//! The solver-step pins of `solver_steps.rs`, re-checked through the
//! `gr-trace` substrate: the trace's `solver.steps` counter must equal the
//! steps the detection reports account, over the whole corpus.

use gr_bench::stats::{corpus, measure_runtime_counters, measure_suite_stats};
use gr_benchsuite::suite_programs;
use gr_core::atoms::MatchCtx;
use gr_core::detect::PrefixCache;
use gr_core::spec::IdiomRegistry;
use gr_core::DetectBudget;

#[test]
fn corpus_trace_steps_match_reports_and_stay_pinned() {
    // The same sweep `solver_steps.rs` pins (prefix-shared, full corpus),
    // with a session around it: the trace counter must agree with the
    // reports' step totals exactly, and the pinned bound holds on the
    // trace.
    let registry = IdiomRegistry::with_default_idioms();
    let guard = gr_trace::start();
    let mut reported = 0usize;
    for suite in corpus() {
        for p in suite_programs(suite) {
            let m = p.compile();
            for func in &m.functions {
                let analyses = gr_analysis::Analyses::new(&m, func);
                let ctx = MatchCtx::new(&m, func, &analyses);
                reported += registry
                    .detect_in_function_report(
                        &ctx,
                        Some(&mut PrefixCache::new()),
                        DetectBudget::UNLIMITED,
                    )
                    .steps_used;
            }
        }
    }
    let trace = guard.finish();
    assert_eq!(
        trace.counter("solver.steps"),
        reported as i64,
        "the trace and the detection reports must count the same steps"
    );
    // Same trend guard as `corpus_steps_drop_3x_vs_pre_sharing_main`,
    // asserted on the trace counter (measured 203 with the extension
    // search: forced moves free, labels in declaration order).
    assert!(trace.counter("solver.steps") <= 300, "corpus steps regressed on trace substrate");
    // The deepest assignment the corpus search reaches; a jump means a
    // spec grew a label chain the candidate ordering no longer prunes.
    assert!(trace.counter("solver.max_depth") >= 1);
}

#[test]
fn suite_stats_solve_each_function_once() {
    // `measure_suite_stats` counts reductions from the same solves that
    // it takes its steps from, so the trace sees each suite's steps once.
    for suite in corpus() {
        let guard = gr_trace::start();
        let stats = measure_suite_stats(suite);
        let trace = guard.finish();
        assert!(stats.steps_shared > 0, "{}: the suite branches somewhere", stats.suite);
        assert_eq!(trace.counter("solver.steps"), stats.steps_shared as i64, "{}", stats.suite);
    }
}

#[test]
fn runtime_counter_snapshot_is_byte_deterministic() {
    // The fixed workloads behind the `"runtime"` block of
    // `BENCH_detection.json` must replay to the same bytes — this is what
    // lets the baseline diff gate on them without noise margins.
    let a = measure_runtime_counters();
    let b = measure_runtime_counters();
    assert_eq!(a.render_json(), b.render_json());
    assert!(a.get("chunk_dispatch") > 0);
    assert!(a.get("token_polls") > 0);
    assert_eq!(a.get("merge_commits"), 1, "the hit workload commits exactly one winner");
}
