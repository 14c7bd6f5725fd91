//! `greduce` — command-line driver for the general-reductions toolchain.
//!
//! ```text
//! greduce detect <file.c> [--trace] [--profile] [--budget N]   detect reductions
//! greduce stats <file.c> [--json]  solver-step ledger (shared prefix + extensions)
//! greduce trace <file.c> [--json out]   trace the pipeline, write Chrome JSON
//! greduce profile <file.c> [--json|--collapsed]   span cost attribution
//! greduce compare <file.c>       ours vs icc-model vs Polly-model
//! greduce ir <file.c>            dump the SSA IR
//! greduce run <file.c> <fn> [args...]   interpret a function (int args)
//! greduce par <file.c> <fn>      detect, outline and describe
//! greduce suite                  detection table over all 40 benchmarks
//! greduce batch <files..> [--jobs N] [--cache <dir>] [--budget N]
//!                                serve a batch on up to N solving threads +
//!                                persistent fingerprint cache
//! greduce serve [--jobs N] [--cache <dir>] [--budget N]
//!                                long-running loop: file paths on stdin
//! ```

use gr_baselines::{icc_detect, polly_detect};
use gr_core::detect_reductions;
use gr_interp::{Machine, Memory, RtVal};
use std::process::ExitCode;

/// Distinct (function, header) loop groups of a detection result, in
/// first-appearance order — outlining targets one loop at a time.
fn reduction_loops(rs: &[gr_core::Reduction]) -> Vec<(String, gr_ir::BlockId)> {
    let mut loops: Vec<(String, gr_ir::BlockId)> = Vec::new();
    for r in rs {
        if !loops.iter().any(|(f, h)| *f == r.function && *h == r.header) {
            loops.push((r.function.clone(), r.header));
        }
    }
    loops
}

/// Serving options shared by `greduce batch` and `greduce serve`.
struct ServeFlags {
    jobs: usize,
    cache_path: Option<std::path::PathBuf>,
    budget: gr_core::DetectBudget,
    files: Vec<String>,
}

/// Parses `[--jobs N] [--cache <dir>] [--budget N]` plus positional file
/// paths; `None` (with a message) on a malformed flag.
fn parse_serve_flags<'a>(args: impl Iterator<Item = &'a String>) -> Option<ServeFlags> {
    let mut flags = ServeFlags {
        jobs: 4,
        cache_path: None,
        budget: gr_core::DetectBudget::UNLIMITED,
        files: Vec::new(),
    };
    let mut rest = args;
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--jobs" => match rest.next().and_then(|n| n.parse().ok()) {
                Some(n) if n > 0 => flags.jobs = n,
                _ => {
                    eprintln!("--jobs needs a positive worker count");
                    return None;
                }
            },
            "--cache" => match rest.next() {
                Some(dir) => {
                    flags.cache_path = Some(std::path::Path::new(dir).join("gr-cache.json"));
                }
                None => {
                    eprintln!("--cache needs a directory");
                    return None;
                }
            },
            "--budget" => match rest.next().and_then(|n| n.parse().ok()) {
                Some(n) => flags.budget = gr_core::DetectBudget::steps(n),
                None => {
                    eprintln!("--budget needs a step count");
                    return None;
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}`");
                return None;
            }
            file => flags.files.push(file.to_string()),
        }
    }
    Some(flags)
}

/// Compiles one source file for the serving commands; every failure is a
/// coded [`gr_core::GrError::BadRequest`] (`GR007`) printed to stderr and
/// emitted to the trace ledger, and yields `None` — the server survives
/// bad requests instead of dying on them.
fn compile_for_serving(path: &str) -> Option<gr_ir::Module> {
    let refuse = |detail: String| {
        let e = gr_core::GrError::BadRequest { path: path.to_string(), detail };
        e.emit();
        eprintln!("error: {e}");
        None
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => return refuse(format!("cannot read: {e}")),
    };
    match gr_frontend::compile(&source) {
        Ok(m) => Some(m),
        Err(e) => refuse(format!("does not compile: {e}")),
    }
}

/// Runs one file batch through a [`gr_server::DetectionServer`], printing
/// per-function status lines (cold/warm, reductions, steps, `Degraded`
/// budgets) plus GR-coded ledger entries. Returns whether every file
/// compiled.
fn serve_files(server: &mut gr_server::DetectionServer, files: &[String]) -> bool {
    let mut ok = true;
    let mut modules = Vec::new();
    let mut names = Vec::new();
    for f in files {
        match compile_for_serving(f) {
            Some(m) => {
                modules.push(m);
                names.push(f.clone());
            }
            None => ok = false,
        }
    }
    let batch = server.run_batch(&modules);
    let mut last_module = usize::MAX;
    for r in &batch.results {
        if r.module != last_module {
            println!("{}:", names[r.module]);
            last_module = r.module;
        }
        println!("  {}", gr_server::status_line(r));
    }
    let s = &batch.summary;
    println!(
        "batch: {} function(s), {} warm, {} cold, {} degraded, {} solver step(s)",
        s.functions, s.warm_hits, s.cold_solves, s.degraded, s.solver_steps
    );
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = || {
        eprintln!(
            "usage: greduce <detect|stats|trace|profile|compare|ir|run|par|suite|batch|serve|help> [file.c] [args...]"
        );
        ExitCode::FAILURE
    };
    let Some(cmd) = args.first().map(String::as_str) else { return usage() };
    match cmd {
        "help" => {
            println!("greduce — constraint-based reduction discovery (CGO 2017 reproduction)");
            println!("  detect <file.c> [--trace] [--profile] [--budget N]");
            println!("                               list detected reductions; --budget caps");
            println!("                               solver steps per function (anytime mode);");
            println!("                               --profile prints the span cost attribution");
            println!(
                "  stats <file.c> [--json]      per-function solver steps, prefix and extensions"
            );
            println!(
                "  trace <file.c> [--json out]  trace detect+outline, write Chrome trace JSON"
            );
            println!("  profile <file.c> [--json|--collapsed]");
            println!("                               span cost attribution of detect+outline:");
            println!("                               self/total tree, flamegraph collapsed-stack");
            println!("                               (--collapsed) or JSON (--json)");
            println!("  compare <file.c>             compare against icc/Polly models");
            println!("  ir <file.c>                  print the SSA IR");
            println!("  run <file.c> <fn> [ints...]  interpret a function");
            println!("  par <file.c> <fn>            outline the reduction loop and show the plan");
            println!("  suite                        detection table over the 40 benchmarks");
            println!("  batch <files..> [--jobs N] [--cache <dir>] [--budget N]");
            println!("                               detect on up to N threads (default 4);");
            println!("                               --cache persists a fingerprint-keyed report");
            println!("                               cache (gr-cache/v2) so unchanged functions");
            println!("                               re-serve with zero solver steps");
            println!("  serve [--jobs N] [--cache <dir>] [--budget N]");
            println!("                               long-running server: reads one file path per");
            println!("                               stdin line, answers with per-function status");
            ExitCode::SUCCESS
        }
        "batch" => {
            let Some(flags) = parse_serve_flags(args.iter().skip(1)) else { return usage() };
            if flags.files.is_empty() {
                eprintln!("batch needs at least one file");
                return usage();
            }
            let mut server = gr_server::DetectionServer::new(gr_server::ServeConfig {
                jobs: flags.jobs,
                cache_path: flags.cache_path,
                capacity: gr_server::DEFAULT_CAPACITY,
                budget: flags.budget,
            });
            for e in server.ledger() {
                eprintln!("warning: {e}");
            }
            let ok = serve_files(&mut server, &flags.files);
            if let Err(e) = server.persist() {
                eprintln!("cannot persist cache: {e}");
                return ExitCode::FAILURE;
            }
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "serve" => {
            let Some(flags) = parse_serve_flags(args.iter().skip(1)) else { return usage() };
            if !flags.files.is_empty() {
                eprintln!("serve takes no positional files (submit paths on stdin)");
                return usage();
            }
            let mut server = gr_server::DetectionServer::new(gr_server::ServeConfig {
                jobs: flags.jobs,
                cache_path: flags.cache_path,
                capacity: gr_server::DEFAULT_CAPACITY,
                budget: flags.budget,
            });
            for e in server.ledger() {
                eprintln!("warning: {e}");
            }
            eprintln!("greduce serve: one file path per stdin line; EOF ends the session");
            let stdin = std::io::stdin();
            let mut line = String::new();
            loop {
                line.clear();
                match std::io::BufRead::read_line(&mut stdin.lock(), &mut line) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(e) => {
                        eprintln!("stdin error: {e}");
                        break;
                    }
                }
                // Trailing whitespace (and the newline itself) is part of
                // the transport, not the path; a line that is empty after
                // trimming is a malformed request, answered with a coded
                // error like any other bad request — never a session abort.
                let path = line.trim();
                if path.is_empty() {
                    let e = gr_core::GrError::BadRequest {
                        path: String::new(),
                        detail: "empty request line".to_string(),
                    };
                    e.emit();
                    eprintln!("error: {e}");
                    continue;
                }
                // One request = one file batch; the persistent cache and
                // the server's parked helpers live across requests, and
                // each request's stores and touches are appended to the
                // cache file after it, so a killed server loses at most
                // the in-flight request.
                serve_files(&mut server, std::slice::from_ref(&path.to_string()));
                if let Err(e) = server.persist() {
                    eprintln!("cannot persist cache: {e}");
                }
            }
            if let Err(e) = server.persist() {
                eprintln!("cannot persist cache: {e}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        "suite" => {
            for suite in [
                gr_benchsuite::Suite::Nas,
                gr_benchsuite::Suite::Parboil,
                gr_benchsuite::Suite::Rodinia,
                gr_benchsuite::Suite::Micro,
            ] {
                println!("== {suite} ==");
                for p in gr_benchsuite::suite_programs(suite) {
                    let row = gr_benchsuite::measure::measure_detection(&p);
                    println!(
                        "{:<18} scalar={:<2} histogram={:<2} scan={:<2} arg={:<2} search={:<2} fold-until={:<2} fusion={:<2} icc={:<2} polly-red={:<2} scops={}",
                        row.name, row.scalar, row.histogram, row.scan, row.arg, row.search,
                        row.fold_until, row.fusion, row.icc, row.polly_reductions, row.scops
                    );
                }
            }
            ExitCode::SUCCESS
        }
        "detect" | "stats" | "trace" | "profile" | "compare" | "ir" | "run" | "par" => {
            let Some(path) = args.get(1) else { return usage() };
            let source = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let module = match gr_frontend::compile(&source) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("{path}:{e}");
                    return ExitCode::FAILURE;
                }
            };
            match cmd {
                "ir" => {
                    print!("{}", gr_ir::printer::print_module(&module));
                    ExitCode::SUCCESS
                }
                "detect" => {
                    let mut with_trace = false;
                    let mut with_profile = false;
                    let mut budget: Option<usize> = None;
                    let mut rest = args.iter().skip(2);
                    while let Some(a) = rest.next() {
                        match a.as_str() {
                            "--trace" => with_trace = true,
                            "--profile" => with_profile = true,
                            "--budget" => match rest.next().and_then(|n| n.parse().ok()) {
                                Some(n) => budget = Some(n),
                                None => {
                                    eprintln!("--budget needs a step count");
                                    return usage();
                                }
                            },
                            _ => return usage(),
                        }
                    }
                    // Anytime detection: a starved solver degrades to a
                    // partial per-function report instead of running
                    // without bound. Degradation is a warning, not a
                    // failure — the reductions printed are still sound.
                    // Without --budget only the solver's own defensive
                    // limits apply, and hitting them degrades the same way.
                    let guard = (with_trace || with_profile).then(gr_trace::start);
                    let reports = gr_core::detect_reductions_budgeted(
                        &module,
                        budget
                            .map_or(gr_core::DetectBudget::UNLIMITED, gr_core::DetectBudget::steps),
                    );
                    if reports.iter().all(|r| r.reductions.is_empty()) {
                        println!("no reductions detected");
                    }
                    for rep in &reports {
                        for r in &rep.reductions {
                            println!("{r}");
                        }
                    }
                    let mut degraded = 0usize;
                    for rep in &reports {
                        if let gr_core::DetectionStatus::Degraded { steps_used, .. } = rep.status {
                            degraded += 1;
                            let spent = match budget {
                                Some(b) => format!("{steps_used} steps spent of {b} budgeted"),
                                None => format!("solver limit hit after {steps_used} steps"),
                            };
                            eprintln!(
                                "warning: detection degraded in `{}`: {spent} (truncated: {})",
                                rep.function,
                                rep.truncated_idioms.join(", ")
                            );
                        }
                    }
                    if let Some(guard) = guard {
                        let trace = guard.finish();
                        if with_trace {
                            if let Err(e) = std::fs::write("TRACE.json", trace.chrome_json()) {
                                eprintln!("cannot write TRACE.json: {e}");
                                return ExitCode::FAILURE;
                            }
                            println!(
                                "trace: wrote TRACE.json ({} events); solver steps {}; error ledger: GR001 x{}",
                                trace.events.len(),
                                trace.counter("solver.steps"),
                                trace.counter("error{GR001}")
                            );
                        }
                        if with_profile {
                            let attr = gr_trace::profile::Attribution::from_trace(&trace);
                            print!("{}", attr.render_text("solver.steps"));
                        }
                    }
                    if degraded > 0 && budget.is_some() {
                        eprintln!(
                            "{degraded} of {} function(s) degraded; re-run with a larger --budget for full coverage",
                            reports.len()
                        );
                    }
                    ExitCode::SUCCESS
                }
                "trace" => {
                    let mut json_path = String::from("TRACE.json");
                    let mut rest = args.iter().skip(2);
                    while let Some(a) = rest.next() {
                        if a == "--json" {
                            match rest.next() {
                                Some(p) => json_path = p.clone(),
                                None => return usage(),
                            }
                        } else {
                            return usage();
                        }
                    }
                    // One session around the whole pipeline: detection, then
                    // an outline attempt per (function, header) group —
                    // exactly the exploitation pass `stats` reports on.
                    let guard = gr_trace::start();
                    let rs = detect_reductions(&module);
                    for (fname, header) in reduction_loops(&rs) {
                        let group: Vec<gr_core::Reduction> = rs
                            .iter()
                            .filter(|r| r.function == fname && r.header == header)
                            .cloned()
                            .collect();
                        let _ = gr_parallel::parallelize(&module, &fname, &group);
                    }
                    let trace = guard.finish();
                    if let Err(e) = std::fs::write(&json_path, trace.chrome_json()) {
                        eprintln!("cannot write {json_path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    println!(
                        "wrote {json_path}: {} events, {} counters",
                        trace.events.len(),
                        trace.counters.len()
                    );
                    for (name, value) in &trace.counters {
                        println!("  {name:<44} {value:>8}");
                    }
                    ExitCode::SUCCESS
                }
                "profile" => {
                    // Span cost attribution over the same session the
                    // `trace` command records: detection plus one outline
                    // attempt per (function, header) reduction group. Every
                    // render below is byte-deterministic, and the self
                    // values reconcile exactly with the flat counters (the
                    // attribution is recorded at counter-emit time, not
                    // sampled).
                    let mut mode = "text";
                    for a in args.iter().skip(2) {
                        match a.as_str() {
                            "--json" => mode = "json",
                            "--collapsed" => mode = "collapsed",
                            _ => return usage(),
                        }
                    }
                    let guard = gr_trace::start();
                    let rs = detect_reductions(&module);
                    for (fname, header) in reduction_loops(&rs) {
                        let group: Vec<gr_core::Reduction> = rs
                            .iter()
                            .filter(|r| r.function == fname && r.header == header)
                            .cloned()
                            .collect();
                        let _ = gr_parallel::parallelize(&module, &fname, &group);
                    }
                    let trace = guard.finish();
                    let attr = gr_trace::profile::Attribution::from_trace(&trace);
                    match mode {
                        "json" => print!("{}", attr.render_json()),
                        "collapsed" => print!("{}", attr.collapsed("solver.steps")),
                        _ => {
                            print!("{}", attr.render_text("solver.steps"));
                            if !trace.histograms.is_empty() {
                                println!("histograms:");
                                for (name, h) in &trace.histograms {
                                    println!("  {name:<52} {}", h.render_json());
                                }
                            }
                        }
                    }
                    ExitCode::SUCCESS
                }
                "stats" => {
                    // Per-function solver cost: the shared for-loop prefix
                    // is solved once and every idiom resumes from it. With
                    // `--json` the same ledger is emitted as one
                    // machine-readable document instead of the table.
                    let mut json_mode = false;
                    for a in args.iter().skip(2) {
                        match a.as_str() {
                            "--json" => json_mode = true,
                            _ => return usage(),
                        }
                    }
                    let registry = gr_core::IdiomRegistry::with_default_idioms();
                    let mut total_shared = 0usize;
                    let mut rs: Vec<gr_core::Reduction> = Vec::new();
                    // Module-wide extension-step total per idiom, summed
                    // over the per-function reports below.
                    let mut idiom_steps: Vec<(&'static str, usize)> = Vec::new();
                    // Everything the JSON rendering needs, collected while
                    // the table prints (or silently in --json mode).
                    let mut json_funcs = String::new();
                    for func in &module.functions {
                        let analyses = gr_analysis::Analyses::new(&module, func);
                        let ctx = gr_core::atoms::MatchCtx::new(&module, func, &analyses);
                        let mut shared = registry.stats_report(&ctx);
                        // Collected here so the refusal report below does
                        // not need another full detection pass.
                        rs.append(&mut shared.report.reductions);
                        if !json_mode {
                            println!("{}:", func.name);
                        }
                        if !json_funcs.is_empty() {
                            json_funcs.push(',');
                        }
                        json_funcs.push_str(&format!(
                            "\n    {{\"name\": {}, \"prefix_cache\": [",
                            gr_trace::json_str(&func.name)
                        ));
                        for (i, row) in shared.prefix_cache.iter().enumerate() {
                            // One solve per cache row, so the hit rate is
                            // hits / (hits + 1).
                            if !json_mode {
                                println!(
                                    "  {:<20}{:>6} steps (solved once, {} solution(s), {} cache hit(s), {:.0}% hit rate)",
                                    row.name,
                                    row.steps,
                                    row.solutions,
                                    row.hits,
                                    100.0 * row.hits as f64 / (row.hits + 1) as f64
                                );
                            }
                            if i > 0 {
                                json_funcs.push(',');
                            }
                            json_funcs.push_str(&format!(
                                "{{\"name\": {}, \"steps\": {}, \"solutions\": {}, \"hits\": {}}}",
                                gr_trace::json_str(&row.name),
                                row.steps,
                                row.solutions,
                                row.hits
                            ));
                        }
                        json_funcs.push_str("], \"idioms\": [");
                        for (i, (name, ext)) in shared.per_idiom.iter().enumerate() {
                            if !json_mode {
                                println!(
                                    "  {name:<20}{:>6} steps{}",
                                    ext.steps,
                                    if ext.truncated { "  TRUNCATED" } else { "" }
                                );
                            }
                            if i > 0 {
                                json_funcs.push(',');
                            }
                            json_funcs.push_str(&format!(
                                "{{\"name\": {}, \"steps\": {}, \"truncated\": {}}}",
                                gr_trace::json_str(name),
                                ext.steps,
                                u8::from(ext.truncated)
                            ));
                            match idiom_steps.iter_mut().find(|(n, _)| n == name) {
                                Some((_, acc)) => *acc += ext.steps,
                                None => idiom_steps.push((name, ext.steps)),
                            }
                        }
                        let s = shared.total();
                        if !json_mode {
                            println!(
                                "  total               {:>6} steps, {} solutions",
                                s.steps, s.solutions
                            );
                        }
                        json_funcs.push_str(&format!(
                            "], \"total\": {{\"steps\": {}, \"solutions\": {}}}}}",
                            s.steps, s.solutions
                        ));
                        total_shared += s.steps;
                    }
                    if !json_mode && module.functions.len() > 1 {
                        println!("module total: {total_shared} steps");
                    }
                    if !json_mode && module.functions.len() > 1 && idiom_steps.len() > 1 {
                        println!("extension steps per idiom (module total):");
                        for (name, steps) in &idiom_steps {
                            println!("  {name:<20}{steps:>6} steps");
                        }
                    }
                    // Exploitation refusals: which outline refusal fired,
                    // per idiom kind — makes coverage gaps (detected but
                    // not exploitable) visible from the CLI. Outlining
                    // targets one loop at a time, so reductions are
                    // grouped per (function, header): a function with two
                    // independent reduction loops is not a refusal. The
                    // tally is aggregated from the structured
                    // `outline.refusal` trace events rather than a
                    // hand-rolled side channel.
                    let mut exploited = 0usize;
                    let guard = gr_trace::start();
                    for (fname, header) in reduction_loops(&rs) {
                        let group: Vec<gr_core::Reduction> = rs
                            .iter()
                            .filter(|r| r.function == fname && r.header == header)
                            .cloned()
                            .collect();
                        if gr_parallel::parallelize(&module, &fname, &group).is_ok() {
                            exploited += group.len();
                        }
                    }
                    let trace = guard.finish();
                    let mut refusals: Vec<(String, String, usize)> = Vec::new();
                    for ev in trace.events_named("outline.refusal") {
                        let kind = ev.arg_str("kind").unwrap_or("?").to_string();
                        let err = ev.arg_str("detail").unwrap_or("?").to_string();
                        match refusals.iter_mut().find(|(k, m, _)| *k == kind && *m == err) {
                            Some((_, _, n)) => *n += 1,
                            None => refusals.push((kind, err, 1)),
                        }
                    }
                    refusals.sort();
                    if !json_mode {
                        if refusals.is_empty() {
                            if exploited > 0 {
                                println!(
                                    "exploitation: all {exploited} detected reduction(s) outline"
                                );
                            }
                        } else {
                            println!("exploitation refusals ({exploited} exploited):");
                            for (kind, err, n) in &refusals {
                                println!("  {kind:<16} x{n}  {err}");
                            }
                        }
                    }
                    // The failure ledger: every `GrError` raised inside the
                    // session above (outline refusals here; detection and
                    // runtime paths feed the same counters elsewhere).
                    let ledger: Vec<(&str, i64)> = trace.counters_with_prefix("error{").collect();
                    if !json_mode && !ledger.is_empty() {
                        println!("failure ledger:");
                        for (code, n) in &ledger {
                            println!("  {code:<44} {n:>8}");
                        }
                    }
                    if json_mode {
                        // One deterministic document: key order is fixed,
                        // maps are emitted in collection order (functions
                        // and idioms in module order, refusals sorted).
                        let mut out = String::from("{\n  \"schema\": \"greduce/stats/v4\",");
                        out.push_str("\n  \"functions\": [");
                        out.push_str(&json_funcs);
                        if !json_funcs.is_empty() {
                            out.push_str("\n  ");
                        }
                        out.push_str(&format!(
                            "],\n  \"module\": {{\"shared_steps\": {total_shared}}},"
                        ));
                        out.push_str("\n  \"idiom_steps\": {");
                        for (i, (name, steps)) in idiom_steps.iter().enumerate() {
                            if i > 0 {
                                out.push_str(", ");
                            }
                            out.push_str(&format!("{}: {steps}", gr_trace::json_str(name)));
                        }
                        out.push_str("},");
                        out.push_str(&format!(
                            "\n  \"exploitation\": {{\"exploited\": {exploited}, \"refusals\": ["
                        ));
                        for (i, (kind, err, n)) in refusals.iter().enumerate() {
                            if i > 0 {
                                out.push(',');
                            }
                            out.push_str(&format!(
                                "\n    {{\"kind\": {}, \"detail\": {}, \"count\": {n}}}",
                                gr_trace::json_str(kind),
                                gr_trace::json_str(err)
                            ));
                        }
                        if !refusals.is_empty() {
                            out.push_str("\n  ");
                        }
                        out.push_str("]},");
                        out.push_str("\n  \"errors\": {");
                        for (i, (code, n)) in ledger.iter().enumerate() {
                            if i > 0 {
                                out.push_str(", ");
                            }
                            out.push_str(&format!("{}: {n}", gr_trace::json_str(code)));
                        }
                        out.push_str("}\n}");
                        println!("{out}");
                    }
                    ExitCode::SUCCESS
                }
                "compare" => {
                    let rs = detect_reductions(&module);
                    let scalar = rs.iter().filter(|r| r.kind.is_scalar()).count();
                    let histo = rs.iter().filter(|r| r.kind.is_histogram()).count();
                    let scan = rs.iter().filter(|r| r.kind.is_scan()).count();
                    let arg = rs.iter().filter(|r| r.kind.is_arg()).count();
                    let search = rs.iter().filter(|r| r.kind.is_search()).count();
                    let fusion = rs.iter().filter(|r| r.kind.is_fusion()).count();
                    let icc = icc_detect(&module);
                    let polly = polly_detect(&module);
                    println!(
                        "constraint system : {scalar} scalar + {histo} histogram + {scan} scan + {arg} argmin/argmax + {search} early-exit search + {fusion} map-reduce fusion"
                    );
                    println!("icc model         : {} reductions", icc.len());
                    println!(
                        "Polly model       : {} reduction SCoPs of {} SCoPs",
                        polly.reduction_scop_count(),
                        polly.scop_count()
                    );
                    ExitCode::SUCCESS
                }
                "run" => {
                    let Some(func) = args.get(2) else { return usage() };
                    let call_args: Vec<RtVal> = args[3..]
                        .iter()
                        .filter_map(|a| a.parse::<i64>().ok().map(RtVal::I))
                        .collect();
                    let mem = Memory::new(&module);
                    let mut machine = Machine::new(&module, mem);
                    match machine.call(func, &call_args) {
                        Ok(Some(v)) => {
                            println!("{v:?}");
                            ExitCode::SUCCESS
                        }
                        Ok(None) => ExitCode::SUCCESS,
                        Err(e) => {
                            eprintln!("trap: {e}");
                            ExitCode::FAILURE
                        }
                    }
                }
                "par" => {
                    let Some(func) = args.get(2) else { return usage() };
                    let rs = detect_reductions(&module);
                    match gr_parallel::parallelize(&module, func, &rs) {
                        Ok((pm, plan)) => {
                            println!(
                                "outlined `{}` -> chunk `{}`, intrinsic `{}`",
                                func, plan.chunk_fn, plan.intrinsic
                            );
                            match &plan.search {
                                Some(s) => println!(
                                    "  early-exit speculative: {} exit cell(s), {} fold cell(s), cancellable schedule",
                                    s.exits.len(),
                                    s.folds.len()
                                ),
                                None => println!(
                                    "  {} scalar accumulator(s), {} histogram(s), {} scan(s), {} argmin/argmax pair(s), {} other written object(s)",
                                    plan.accs.len(),
                                    plan.hists.len(),
                                    plan.scans.len(),
                                    plan.args.len(),
                                    plan.written.len()
                                ),
                            }
                            print!(
                                "{}",
                                gr_ir::printer::print_function(
                                    &pm,
                                    pm.function(&plan.chunk_fn).expect("chunk exists")
                                )
                            );
                            ExitCode::SUCCESS
                        }
                        Err(e) => {
                            eprintln!("cannot outline: {e}");
                            ExitCode::FAILURE
                        }
                    }
                }
                _ => unreachable!(),
            }
        }
        other => {
            eprintln!("unknown command `{other}`");
            usage()
        }
    }
}
