//! Runs every figure harness in sequence (EXPERIMENTS.md layout) and
//! writes `BENCH_detection.json` — the machine-readable solver/detection
//! ledger (solver steps, prefix steps, solutions and reductions per suite)
//! that tracks the solver-cost trajectory across PRs — plus the
//! `BENCH_profile.collapsed` solver-step attribution.
//!
//! `--quick` skips the figure harnesses and only emits the JSON (the CI
//! bench-smoke mode). `--out <path>` overrides the JSON location.
//! `--baseline <path>` compares against a checked-in baseline document
//! and exits nonzero when **any suite's** solver steps regress by more
//! than 20%, when a suite disappears, or when the total regresses — the
//! CI guard against silent solver-cost creep (step counts are
//! deterministic; wall time is perfbench's to measure). The `"runtime"`
//! scheduler counters (chunk dispatches, token polls, …), the
//! `"errors"` failure-ledger counters (deterministic fault probes, one
//! per `GrError` class), the `"server"` block and the `"histograms"`
//! digests ride the same budget. Both documents are read with the shared
//! integer-only reader (`gr_trace::json`), so one that does not parse
//! fails the check. The comparison is printed as a baseline-vs-current
//! diff table, and appended to the GitHub job summary when
//! `GITHUB_STEP_SUMMARY` is set. A row more than 20% below its baseline
//! passes with the status `below baseline (re-pin)`, and a summary line
//! counts such rows: the budget over a stale baseline lets them regress
//! back unseen.
//! `--write-baseline` regenerates the baseline file deliberately (after
//! intended spec growth) instead of checking against it.

use gr_bench::stats::{
    corpus, measure_error_counters, measure_profile, measure_runtime_counters,
    measure_server_throughput, measure_suite_stats, render_json,
};
use gr_trace::json::{lookup, JsonVal};
use std::fmt::Write as _;

type Obj = [(String, JsonVal)];

/// The integer entries of the object under `key`; empty when the
/// document has no such block.
fn int_entries(doc: &Obj, key: &str) -> Vec<(String, i64)> {
    let block = lookup(doc, key).and_then(JsonVal::as_obj).unwrap_or_default();
    block.iter().filter_map(|(k, v)| Some((k.clone(), v.as_int()?))).collect()
}

/// Per-suite `(name, solver_steps)` rows, in document order.
fn suite_steps(doc: &Obj) -> Vec<(String, i64)> {
    let suites = lookup(doc, "suites").and_then(JsonVal::as_arr).unwrap_or_default();
    suites
        .iter()
        .filter_map(|s| {
            let o = s.as_obj()?;
            Some((lookup(o, "suite")?.as_str()?.to_string(), lookup(o, "solver_steps")?.as_int()?))
        })
        .collect()
}

/// Per-histogram `(name, [count, sum, top bucket])` digests: enough to
/// gate shape regressions. The top bucket is the highest non-empty one
/// (-1 when every bucket is empty).
fn histogram_digests(doc: &Obj) -> Vec<(String, [i64; 3])> {
    let hists = lookup(doc, "histograms").and_then(JsonVal::as_obj).unwrap_or_default();
    hists
        .iter()
        .filter_map(|(name, h)| {
            let h = h.as_obj()?;
            let field = |k: &str| lookup(h, k).and_then(JsonVal::as_int).unwrap_or(0);
            let buckets = lookup(h, "buckets").and_then(JsonVal::as_arr).unwrap_or_default();
            let top = buckets.iter().rposition(|b| b.as_int().is_some_and(|n| n > 0));
            Some((name.clone(), [field("count"), field("sum"), top.map_or(-1, |i| i as i64)]))
        })
        .collect()
}

/// The largest value within the +20% budget over `base`.
fn budget_limit(base: i64) -> i64 {
    base + base.max(0) / 5
}

/// The status of a row more than 20% below its baseline value: it passes,
/// but the budget over the stale baseline would let it regress unseen.
const BELOW: &str = "below baseline (re-pin)";

/// Whether `cur` lies more than 20% below `base`.
fn far_below(base: i64, cur: i64) -> bool {
    cur * 5 < base * 4
}

/// Appends one baseline-vs-current row gated at +20% over `base`;
/// returns the limit when `cur` exceeds it.
fn gated_row(table: &mut String, label: &str, base: i64, cur: i64) -> Option<i64> {
    let limit = budget_limit(base);
    #[allow(clippy::cast_precision_loss)]
    let delta = (cur - base) as f64 / base.max(1) as f64 * 100.0;
    let status = if cur > limit {
        "**FAIL (+20% budget)**"
    } else if far_below(base, cur) {
        BELOW
    } else {
        "ok"
    };
    let _ = writeln!(table, "| {label} | {base} | {cur} | {delta:+.1}% | {status} |");
    (cur > limit).then_some(limit)
}

/// Gates the integer rows of one block: every baseline row must still be
/// present and within budget; rows new in `cur` are listed as `new
/// {kind}`, for a deliberate re-baseline.
fn gate_rows(
    table: &mut String,
    failures: &mut Vec<String>,
    (prefix, kind): (&str, &str),
    base: &[(String, i64)],
    cur: &[(String, i64)],
) {
    for (name, b) in base {
        let label = format!("{prefix}{name}");
        match cur.iter().find(|(n, _)| n == name) {
            None => {
                let _ = writeln!(table, "| {label} | {b} | — | — | **MISSING** |");
                failures.push(format!("{kind} `{label}` disappeared from the current document"));
            }
            Some((_, c)) => {
                if let Some(limit) = gated_row(table, &label, *b, *c) {
                    failures
                        .push(format!("{kind} `{label}` regressed: {c} > {limit} (+20% over {b})"));
                }
            }
        }
    }
    for (name, c) in cur {
        if !base.iter().any(|(n, _)| n == name) {
            let _ = writeln!(table, "| {prefix}{name} | — | {c} | — | new {kind} (re-baseline) |");
        }
    }
}

/// Builds the baseline-vs-current markdown diff table and the list of
/// failures: a suite, counter or histogram regressed more than 20% or
/// disappeared, the total regressed, or a document does not parse. A row
/// more than 20% below its baseline passes with the status [`BELOW`].
fn diff_report(baseline: &str, current: &str) -> (String, Vec<String>) {
    let mut table = String::from(
        "| suite | baseline steps | current steps | delta | status |\n\
         |-------|---------------:|--------------:|------:|--------|\n",
    );
    let mut failures = Vec::new();
    let parse = |doc: &str| match JsonVal::parse(doc) {
        Some(JsonVal::Obj(o)) => Some(o),
        _ => None,
    };
    let (Some(base), Some(cur)) = (parse(baseline), parse(current)) else {
        failures.push("the baseline or the current document is not integer-only JSON".to_string());
        return (table, failures);
    };
    gate_rows(&mut table, &mut failures, ("", "suite"), &suite_steps(&base), &suite_steps(&cur));
    let total = |doc: &Obj| {
        let t = lookup(doc, "total").and_then(JsonVal::as_obj)?;
        lookup(t, "solver_steps")?.as_int()
    };
    if let (Some(b), Some(c)) = (total(&base), total(&cur)) {
        if let Some(limit) = gated_row(&mut table, "**total**", b, c) {
            failures.push(format!("total regressed: {c} steps > {limit} (+20% over {b})"));
        }
    } else {
        failures.push("cannot read total solver_steps from baseline or current JSON".to_string());
    }
    // Runtime scheduler counters (chunk dispatches, token polls, …), the
    // failure-ledger counters (`errors`: GR001…) and the serving block
    // ride the same >20% budget: the fixed workloads and fault probes are
    // deterministic, so any increase is a real behavior change, not noise.
    for block in ["runtime", "errors", "server"] {
        let prefix = format!("{block}.");
        let (b, c) = (int_entries(&base, block), int_entries(&cur, block));
        gate_rows(&mut table, &mut failures, (&prefix, "counter"), &b, &c);
    }
    // Histogram digests ride the same budget, plus a shape gate: a sample
    // landing in a strictly higher log2 bucket than the baseline ever saw
    // (e.g. a candidate-fanout blowup) fails even when the totals squeak
    // under +20%. The table row shows the sum; count and top-bucket
    // breaches are reported through the status column and failure list.
    let (base_hists, cur_hists) = (histogram_digests(&base), histogram_digests(&cur));
    for (name, [b_count, b_sum, b_top]) in &base_hists {
        let Some((_, [c_count, c_sum, c_top])) = cur_hists.iter().find(|(n, _)| n == name) else {
            let _ = writeln!(table, "| hist.{name} | {b_sum} | — | — | **MISSING** |");
            failures.push(format!("histogram `{name}` disappeared from the current document"));
            continue;
        };
        let mut reasons = Vec::new();
        for (what, base, cur) in [("count", *b_count, *c_count), ("sum", *b_sum, *c_sum)] {
            let limit = budget_limit(base);
            if cur > limit {
                reasons.push(format!("{what} {cur} > {limit} (+20% over {base})"));
            }
        }
        if c_top > b_top {
            reasons.push(format!("top bucket {c_top} > baseline {b_top} (distribution shift)"));
        }
        #[allow(clippy::cast_precision_loss)]
        let delta = (c_sum - b_sum) as f64 / (*b_sum).max(1) as f64 * 100.0;
        let status = if !reasons.is_empty() {
            "**FAIL**"
        } else if far_below(*b_sum, *c_sum) {
            BELOW
        } else {
            "ok"
        };
        let _ = writeln!(table, "| hist.{name} | {b_sum} | {c_sum} | {delta:+.1}% | {status} |");
        for r in reasons {
            failures.push(format!("histogram `{name}` regressed: {r}"));
        }
    }
    for (name, [_, c_sum, _]) in &cur_hists {
        if !base_hists.iter().any(|(n, _)| n == name) {
            let _ =
                writeln!(table, "| hist.{name} | — | {c_sum} | — | new histogram (re-baseline) |");
        }
    }
    (table, failures)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let write_baseline = args.iter().any(|a| a == "--write-baseline");
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let out_path = flag_value("--out").unwrap_or("BENCH_detection.json");
    let baseline_path = flag_value("--baseline");

    if !quick {
        let run = |name: &str| {
            let status =
                std::process::Command::new(std::env::current_exe().unwrap().with_file_name(name))
                    .status();
            if let Err(e) = status {
                eprintln!("failed to run {name}: {e} (build with --release first)");
            }
        };
        for bin in ["fig08_detection", "fig09_scops", "fig12_coverage", "fig15_speedup"] {
            println!("=== {bin} ===");
            run(bin);
            println!();
        }
    }

    let rows: Vec<_> = corpus().into_iter().map(measure_suite_stats).collect();
    let runtime = measure_runtime_counters();
    let errors = measure_error_counters();
    // The serving corpus size is fixed (not `GR_CORPUS_FUNCS`): the
    // baseline diff needs the same corpus on every machine.
    let server = measure_server_throughput(
        gr_benchsuite::fuzz::CORPUS_SEED,
        gr_benchsuite::fuzz::CORPUS_FUNCTIONS,
    );
    println!(
        "serving throughput ({} fns): cold {:.0} fn/s ({} steps, p50 {} p99 {}), \
         warm {:.0} fn/s ({} steps, {}‰ hits)",
        server.corpus_functions,
        server.cold_functions_per_sec(),
        server.cold_steps,
        server.p50_steps,
        server.p99_steps,
        server.warm_functions_per_sec(),
        server.warm_steps,
        server.warm_hit_permil,
    );
    let profile = measure_profile();
    let json = render_json(&rows, &runtime, &errors, &server, &profile.histograms);
    for (path, contents) in [(out_path, &json), ("BENCH_profile.collapsed", &profile.collapsed)] {
        match std::fs::write(path, contents) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    print!("{json}");

    if write_baseline {
        let path = baseline_path.unwrap_or("BENCH_detection_baseline.json");
        match std::fs::write(path, &json) {
            Ok(()) => println!("re-pinned baseline {path} (commit it deliberately)"),
            Err(e) => {
                eprintln!("cannot write baseline {path}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    if let Some(path) = baseline_path {
        let baseline = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                std::process::exit(1);
            }
        };
        let (table, failures) = diff_report(&baseline, &json);
        println!("## Solver-step baseline check\n\n{table}");
        let below = table.matches(BELOW).count();
        if below > 0 {
            println!(
                "baseline check: {below} row(s) more than 20% below the baseline; re-pin it \
                 with `all_figures --quick --write-baseline` so the budget starts from them"
            );
        }
        if let Ok(summary) = std::env::var("GITHUB_STEP_SUMMARY") {
            use std::io::Write as _;
            if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(summary) {
                let _ = writeln!(f, "## Solver-step baseline check\n\n{table}");
            }
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("baseline check failed: {f}");
            }
            eprintln!(
                "re-baseline deliberately with `all_figures --quick --write-baseline` \
                 if the spec growth is intended"
            );
            std::process::exit(1);
        }
        println!("baseline check: every suite within the +20% solver-step budget");
    }
}

#[cfg(test)]
mod tests {
    use super::diff_report;

    /// A small integer-only document with every gated block.
    const DOC: &str = r#"{
  "schema": "gr-bench/detection-stats/v2",
  "suites": [
    {"suite": "NAS", "programs": 10, "solver_steps": 100, "solver_steps_prefix": 8, "solutions": 38, "reductions": 38},
    {"suite": "Micro", "programs": 9, "solver_steps": 6, "solver_steps_prefix": 2, "solutions": 11, "reductions": 10}
  ],
  "total": {"solver_steps": 106},
  "runtime": {"chunk_dispatch": 24, "token_polls": 24},
  "errors": {"GR004": 1},
  "server": {"cold_steps": 7432, "warm_steps": 0},
  "histograms": {
    "solver.fanout{find-last}": {"count":4,"sum":7,"min":1,"max":2,"buckets":[0,1,3]}
  }
}
"#;

    fn failures(base: &str, cur: &str) -> Vec<String> {
        diff_report(base, cur).1
    }

    #[test]
    fn identical_documents_pass() {
        let (table, failures) = diff_report(DOC, DOC);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(table.contains("| NAS | 100 | 100 | +0.0% | ok |"), "{table}");
        assert!(table.contains("| **total** | 106 | 106 | +0.0% | ok |"), "{table}");
        assert!(
            table.contains("| hist.solver.fanout{find-last} | 7 | 7 | +0.0% | ok |"),
            "{table}"
        );
    }

    #[test]
    fn a_suite_may_grow_twenty_percent_and_no_more() {
        let nas = |steps: usize| {
            DOC.replace("\"solver_steps\": 100,", &format!("\"solver_steps\": {steps},"))
        };
        assert!(failures(DOC, &nas(120)).is_empty());
        let over = failures(DOC, &nas(121));
        assert_eq!(over.len(), 1, "{over:?}");
        assert!(over[0].contains("NAS") && over[0].contains("121"), "{over:?}");
    }

    #[test]
    fn a_missing_suite_counter_or_histogram_fails() {
        for (from, to) in [
            ("\"suite\": \"Micro\"", "\"suite\": \"Tiny\""),
            ("\"token_polls\"", "\"token_pollz\""),
            ("\"GR004\"", "\"GR005\""),
            ("\"warm_steps\"", "\"warm_stepz\""),
            ("\"solver.fanout{find-last}\"", "\"solver.fanout{find-first}\""),
        ] {
            let cur = DOC.replace(from, to);
            let (table, failed) = diff_report(DOC, &cur);
            assert_eq!(failed.len(), 1, "{from} -> {to}: {failed:?}");
            assert!(failed[0].contains("disappeared"), "{failed:?}");
            assert!(table.contains("**MISSING**") && table.contains("re-baseline"), "{table}");
        }
    }

    #[test]
    fn a_block_absent_from_the_baseline_gates_nothing() {
        let base: String = DOC
            .lines()
            .filter(|l| !l.contains("\"runtime\""))
            .map(|l| format!("{l}\n"))
            .collect();
        let (table, failed) = diff_report(&base, DOC);
        assert!(failed.is_empty(), "{failed:?}");
        assert!(table.contains("| runtime.token_polls | — | 24 | — | new counter (re-baseline) |"));
    }

    #[test]
    fn a_row_far_below_the_baseline_passes_and_asks_for_a_re_pin() {
        let cur = DOC
            .replace("\"solver_steps\": 100,", "\"solver_steps\": 80,")
            .replace("\"token_polls\": 24", "\"token_polls\": 19")
            .replace("\"sum\":7", "\"sum\":5");
        let (table, failed) = diff_report(DOC, &cur);
        assert!(failed.is_empty(), "{failed:?}");
        // 80 is 20% below 100, not more; 19 of 24 and 5 of 7 are.
        assert!(table.contains("| NAS | 100 | 80 | -20.0% | ok |"), "{table}");
        assert!(
            table.contains("| runtime.token_polls | 24 | 19 | -20.8% | below baseline (re-pin) |")
        );
        assert!(table.contains("| hist.solver.fanout{find-last} | 7 | 5 | -28.6% | below baseline"));
        assert_eq!(table.matches(super::BELOW).count(), 2, "{table}");
    }

    #[test]
    fn a_histogram_whose_top_bucket_shifts_up_fails() {
        // Same count and sum; one sample moved a bucket up.
        let cur = DOC.replace("\"buckets\":[0,1,3]", "\"buckets\":[0,1,2,1]");
        let failed = failures(DOC, &cur);
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].contains("top bucket 3 > baseline 2"), "{failed:?}");
    }

    #[test]
    fn an_unparseable_document_fails() {
        assert!(!failures(DOC, "not json").is_empty());
        assert!(!failures("not json", DOC).is_empty());
        let cut = &DOC[..DOC.find("\"histograms\"").expect("DOC has histograms")];
        assert!(!failures(DOC, cut).is_empty());
        assert!(!failures(cut, DOC).is_empty());
    }

    #[test]
    fn the_committed_baseline_yields_every_row() {
        let base = include_str!("../../../../BENCH_detection_baseline.json");
        let (table, failed) = diff_report(base, base);
        assert!(failed.is_empty(), "{failed:?}");
        for suite in ["NAS", "Parboil", "Rodinia", "Micro"] {
            assert!(table.contains(&format!("| {suite} | ")), "{table}");
        }
        let rows = |prefix: &str| table.lines().filter(|l| l.starts_with(prefix)).count();
        // Each one-line counter block holds one `"key": ` per entry plus
        // its own label.
        let mut counters = 0;
        for block in ["runtime", "errors", "server"] {
            let label = format!("\"{block}\":");
            let line = base.lines().find(|l| l.trim_start().starts_with(&label)).expect("block");
            let keys = line.matches("\": ").count() - 1;
            assert!(keys > 0, "{block}");
            assert_eq!(rows(&format!("| {block}.")), keys, "{block}: {table}");
            counters += keys;
        }
        let hists = base.lines().filter(|l| l.contains("\"buckets\":")).count();
        assert!(hists > 0);
        assert_eq!(rows("| hist."), hists, "{table}");
        // Header, separator, four suites, the total and nothing else.
        assert_eq!(table.lines().count(), 2 + 4 + 1 + counters + hists, "{table}");
    }
}
