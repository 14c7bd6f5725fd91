//! Detection throughput per suite — the analogue of the paper's reported
//! compile-time cost (3.77 s per benchmark program for their LLVM pass) —
//! plus the solver-step ledger behind it: steps per suite with the shared
//! for-loop prefix (solved once per function, idioms resumed via
//! `solve_extend`).
//!
//! `cargo bench -p gr-bench --bench detection -- --quick` runs a single
//! timed batch per suite (the CI smoke mode).

use gr_bench::stats::{corpus, measure_suite_stats};
use gr_bench::timing::{bench, bench_quick};
use gr_benchsuite::suite_programs;
use gr_core::detect_reductions;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!("solver steps per suite (shared prefix):");
    for suite in corpus() {
        let s = measure_suite_stats(suite);
        println!("  {:<10} steps={:<6} (prefix {:<5})", s.suite, s.steps_shared, s.steps_prefix);
    }
    for suite in corpus() {
        let modules: Vec<_> = suite_programs(suite).iter().map(|p| p.compile()).collect();
        let run = || {
            let mut total = 0;
            for m in &modules {
                total += detect_reductions(std::hint::black_box(m)).len();
            }
            total
        };
        let name = format!("detection/{suite}");
        if quick {
            bench_quick(&name, run);
        } else {
            bench(&name, run);
        }
    }
}
