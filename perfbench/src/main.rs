//! The repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-detect|serve-steady|exploit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is one process with one client in a closed loop: the next
//! operation starts only after the previous one completed, and no more than
//! two threads are ever busy. Every output is checked against a reference
//! that does not come from the code under test; a mismatch counts as a
//! failed operation. Every timing is calibrated against an in-process
//! reference loop (see `calib.rs`).
//!
//! With `--trace 0` the last stdout line carries the workload's end-to-end
//! metrics; with `--trace 1` the run is split into an untraced sixth and a
//! traced remainder, benchmark-side spans are written to
//! `.perfbench/trace-<workload>.json` (Chrome trace-event format), and the
//! last line carries every per-layer metric. Diagnostics go to stderr.

mod calib;
mod exploit;
mod paper;
mod rng;
mod serve;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use calib::Calibrator;
use spans::Recorder;

/// Setup repetitions per run; `setup_s` reports their median.
const SETUP_REPS: usize = 3;

/// Directory (relative to the working directory) for the trace output and
/// the per-run temporary files.
const OUT_DIR: &str = ".perfbench";

/// Every per-layer metric a traced run reports, with its unit. A workload
/// reports 0 for a layer it does not reach.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("frontend.compile_us.p50", "us"),
    ("analysis.analyses_us.p50", "us"),
    ("core.matchctx_us.p50", "us"),
    ("core.registry_us.p50", "us"),
    ("core.registry_us.p99", "us"),
    ("core.registry_us.fixed", "us"),
    ("core.registry_share", "ratio"),
    ("core.solver_steps", "count"),
    ("core.reductions", "count"),
    ("core.postcheck_accept_ratio", "ratio"),
    ("core.fingerprint_us.p50", "us"),
    ("server.run_batch_us.p50", "us"),
    ("server.run_batch_us.p99", "us"),
    ("server.render_us.p50", "us"),
    ("server.persist_us.p50", "us"),
    ("server.persist_us.p99", "us"),
    ("server.persist_share", "ratio"),
    ("server.hit_ratio", "ratio"),
    ("server.cold_solves", "count"),
    ("server.solver_steps", "count"),
    ("server.cache_entries", "count"),
    ("server.cache_bytes", "bytes"),
    ("parallel.outline_us", "us"),
    ("parallel.fixed_overhead_us", "us"),
    ("parallel.speedup.small", "x"),
    ("parallel.speedup.large", "x"),
    ("parallel.chunks_per_call", "count"),
    ("parallel.spec_useful_ratio", "ratio"),
    ("parallel.call_share", "ratio"),
    ("parallel.small_call_us.p99", "us"),
    ("interp.seq_call_us.small", "us"),
    ("interp.seq_call_ms.large", "ms"),
    ("trace.session_overhead", "ratio"),
    ("bench.ref_ms", "ms"),
    ("bench.span_overhead", "ratio"),
    ("raw.setup_s", "s"),
    ("cal.setup_s", "s"),
    ("raw.throughput_per_s", "1/s"),
    ("cal.throughput_per_s", "1/s"),
    ("raw.latency_ms.light", "ms"),
    ("cal.latency_ms.light", "ms"),
    ("raw.latency_ms.heavy", "ms"),
    ("cal.latency_ms.heavy", "ms"),
];

/// One named measurement.
#[derive(Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// One end-to-end timing: name, raw value, calibrated value, unit.
pub type Timing = (&'static str, Option<f64>, Option<f64>, &'static str);

/// Collected metrics of one run.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a metric; a missing or non-finite value (too few samples) is
    /// left out rather than reported as a number it is not.
    pub fn put(&mut self, name: impl Into<String>, value: Option<f64>, unit: &'static str) {
        if let Some(v) = value.filter(|v| v.is_finite()) {
            self.0.push(Metric { name: name.into(), value: v, unit });
        }
    }

    /// Reports end-to-end timings: each calibrated value under its own name,
    /// or, in a traced run, the raw and calibrated values side by side as
    /// `raw.<name>` and `cal.<name>`.
    pub fn timings(&mut self, timings: &[Timing], trace: bool) {
        for &(name, raw, cal, unit) in timings {
            if trace {
                self.put(format!("raw.{name}"), raw, unit);
                self.put(format!("cal.{name}"), cal, unit);
            } else {
                self.put(name, cal, unit);
            }
        }
    }

    /// The value of metric `name`, if reported.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Measured seconds (split into an untraced and a traced part when
    /// tracing).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory for files the workload writes.
    pub scratch: PathBuf,
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// End-to-end metrics (and, when tracing, per-layer metrics).
    pub metrics: Metrics,
    /// The spans recorded in the traced part.
    pub spans: Recorder,
}

/// Operation tallies.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Runs `setup` [`SETUP_REPS`] times, each between reference samples, and
/// returns the last result with the raw and calibrated median setup times.
pub fn timed_setup<T>(cal: &mut Calibrator, mut setup: impl FnMut() -> T) -> (T, f64, f64) {
    let mut raw = Vec::new();
    let mut calibrated = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (state, r, c) = cal.time(&mut setup);
        raw.push(r);
        calibrated.push(c);
        last = Some(state);
    }
    let state = last.expect("setup ran at least once");
    (state, stats::median(&raw).unwrap_or(0.0), stats::median(&calibrated).unwrap_or(0.0))
}

/// Splits a run's seconds into its untraced and traced parts: a traced
/// run spends a sixth untraced (the baseline for the span overhead) and
/// the rest traced, so the per-request tails of the serving layers rest on
/// a thousand requests or more.
#[must_use]
pub fn phases(cfg: &RunConfig) -> (f64, f64) {
    if cfg.trace {
        (cfg.seconds / 6.0, cfg.seconds * 5.0 / 6.0)
    } else {
        (cfg.seconds, 0.0)
    }
}

impl RunConfig {
    /// Operation time between reference samples: dense in a measured run,
    /// sparse in both parts of a traced run (whose per-layer figures use
    /// one calibration factor per part), so the two parts compare like
    /// with like.
    #[must_use]
    pub fn gap(&self) -> Duration {
        if self.trace {
            calib::TRACED_GAP
        } else {
            calib::GAP
        }
    }
}

/// The per-layer calibration factor of a traced phase: nominal ÷ the
/// median reference sample taken from index `from` on.
#[must_use]
pub fn phase_factor(cal: &Calibrator, from: usize) -> f64 {
    let med = stats::median(&cal.ref_ms[from.min(cal.ref_ms.len())..]);
    med.map_or(1.0, |m| calib::calibrate(1.0, calib::NOMINAL_REF_MS, m))
}

/// Peak resident set size of this process in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn run_workload(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    Some(match name {
        "paper-detect" => paper::run(cfg),
        "serve-steady" => serve::run(cfg),
        "exploit" => exploit::run(cfg),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} is outside (0, 120]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Every per-layer metric name with its unit: [`PER_LAYER`] plus one
/// parallel and one sequential row per exploit kernel and class.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for k in exploit::KERNEL_NAMES {
        for (row, unit) in [
            ("small.par_us", "us"),
            ("small.seq_us", "us"),
            ("large.par_ms", "ms"),
            ("large.seq_ms", "ms"),
        ] {
            out.push((format!("kernel.{k}.{row}"), unit));
        }
    }
    out
}

fn json_result(outcome: &Outcome, names: &[(String, &'static str)]) -> String {
    let mut parts = Vec::new();
    for (name, unit) in names {
        let value = outcome.metrics.get(name).unwrap_or(0.0);
        parts.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.failed == 0 && outcome.tally.attempted > 0,
        outcome.tally.attempted,
        outcome.tally.failed,
        parts.join(", ")
    )
}

/// The end-to-end metrics every workload reports with `--trace 0`, with
/// their units. Each workload fills them with its own operations:
///
/// | metric | `paper-detect` | `serve-steady` | `exploit` |
/// |---|---|---|---|
/// | `throughput_per_s` | programs | functions answered | parallel calls |
/// | `latency_ms.light` | p50 program | p50 request | small-class call† |
/// | `latency_ms.heavy` | p99 program | p95 request | large-class call† |
///
/// † the geometric mean over kernels of each kernel's median call.
/// `setup_s` and `peak_rss_mb` mean the same in every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_ms.light", "ms"),
    ("latency_ms.heavy", "ms"),
];

/// Removes the per-run scratch directory on every exit path.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only if empty
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = ScratchDir(Path::new(OUT_DIR).join(format!("run-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.0.display());
        return ExitCode::from(1);
    }
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scratch: scratch.0.clone(),
    };
    let Some(mut outcome) = run_workload(&args.workload, &cfg) else {
        eprintln!("perfbench: unknown workload `{}`", args.workload);
        return ExitCode::from(2);
    };
    outcome.metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    for m in &outcome.metrics.0 {
        eprintln!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    eprintln!("  attempted {} failed {}", outcome.tally.attempted, outcome.tally.failed);
    let names = if args.trace {
        per_layer()
    } else {
        // An end-to-end metric is never 0: a missing one means the run was
        // too short for its samples, and no result is printed.
        if let Some(&(name, _)) = END_TO_END.iter().find(|(n, _)| outcome.metrics.get(n).is_none())
        {
            eprintln!("perfbench: too few samples for {name}; run longer");
            return ExitCode::from(1);
        }
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    if args.trace {
        let path = Path::new(OUT_DIR).join(format!("trace-{}.json", args.workload));
        if let Err(e) = std::fs::write(&path, outcome.spans.chrome_json(&args.workload)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        eprintln!("  spans: {} written to {}", outcome.spans.spans().len(), path.display());
        for (name, secs) in outcome.spans.self_times() {
            eprintln!("  self time {name:<24} {secs:>10.4} s");
        }
    }
    println!("{}", json_result(&outcome, &names));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str) -> Outcome {
        let dir =
            std::env::temp_dir().join(format!("perfbench-smoke-{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = RunConfig { seed: 7, seconds: 1.0, trace: true, scratch: dir.clone() };
        let out = run_workload(workload, &cfg).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    fn assert_smoke(workload: &str) {
        let out = smoke(workload);
        assert!(out.tally.attempted > 0, "{workload}: nothing attempted");
        assert_eq!(out.tally.failed, 0, "{workload}: failed operations");
        assert!(!out.spans.spans().is_empty(), "{workload}: no spans in the traced part");
        for &(name, _) in END_TO_END {
            // Tails need more samples than a smoke run takes.
            if name != "latency_ms.heavy" && name != "peak_rss_mb" {
                let cal = format!("cal.{name}");
                assert!(out.metrics.get(&cal).is_some(), "{workload}: {cal} missing");
            }
        }
    }

    #[test]
    fn smoke_paper_detect_has_no_failures() {
        assert_smoke("paper-detect");
    }

    #[test]
    fn smoke_serve_steady_has_no_failures() {
        assert_smoke("serve-steady");
    }

    #[test]
    fn smoke_exploit_has_no_failures() {
        assert_smoke("exploit");
    }

    /// The `(name, unit)` entries of the metric list `key` in BENCHMARK.json.
    fn manifest_list(key: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let list = &json[json.find(&format!("\"{key}\"")).expect("list present")..];
        let list = &list[..list.find(']').expect("list closes")];
        let field = |entry: &str, f: &str| {
            let v = entry.split(&format!("\"{f}\": \"")).nth(1).expect("field present");
            v[..v.find('"').expect("string closes")].to_string()
        };
        list.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let owned = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        let e2e = END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect();
        assert_eq!(manifest_list("end_to_end"), owned(e2e));
        assert_eq!(manifest_list("per_layer"), owned(per_layer()));
    }

    #[test]
    fn args_are_checked() {
        let ok = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        let a = ok("--workload exploit --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("exploit", 3, 10.0, true));
        assert!(ok("--workload exploit --seed x --seconds 10").is_err());
        assert!(ok("--workload exploit --seconds 10").is_err());
        assert!(ok("--workload exploit --seed 1 --seconds 0").is_err());
    }
}
