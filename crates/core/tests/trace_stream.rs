//! The detection pipeline's trace stream: byte-identical replays, prune
//! reasons, the error ledger and the prefix-cache counters.

use gr_core::atoms::MatchCtx;
use gr_core::detect_reductions;
use gr_core::spec::registry::IdiomRegistry;
use gr_frontend::compile;

const CORPUS_SRC: &str = "void ep(float* x, float* q, float* sums, int nk) {
         float sx = 0.0;
         float sy = 0.0;
         for (int i = 0; i < nk; i++) {
             float x1 = 2.0 * x[2 * i] - 1.0;
             float x2 = 2.0 * x[2 * i + 1] - 1.0;
             float t1 = x1 * x1 + x2 * x2;
             if (t1 <= 1.0) {
                 float t2 = sqrt(-2.0 * log(t1) / t1);
                 float t3 = x1 * t2;
                 float t4 = x2 * t2;
                 int l = fmax(fabs(t3), fabs(t4));
                 q[l] = q[l] + 1.0;
                 sx = sx + t3;
                 sy = sy + t4;
             }
         }
         sums[0] = sx;
         sums[1] = sy;
     }
     int find(int* a, int x, int n) {
         int r = n;
         for (int i = 0; i < n; i++) {
             if (a[i] == x) { r = i; break; }
         }
         return r;
     }";

#[test]
fn repeated_detection_traces_are_byte_identical() {
    let m = compile(CORPUS_SRC).unwrap();
    let run = || {
        let guard = gr_trace::start();
        let _ = detect_reductions(&m);
        guard.finish()
    };
    let a = run();
    let b = run();
    assert_eq!(a.chrome_json(), b.chrome_json());
    assert_eq!(a.snapshot().render_json(), b.snapshot().render_json());
    assert!(a.counter("solver.candidates") > 0);
}

#[test]
fn prune_reasons_are_recorded_by_failing_checker_kind() {
    // Single-mention atoms act as candidate generators or membership
    // filters and never reach the checker stage, so to observe a genuine
    // checker prune the atom must mention its decision label twice:
    // `NotEqual(x, x)` is never a generator, always fails, and every
    // search step records a prune keyed by the atom kind.
    use gr_core::atoms::Atom;
    use gr_core::constraint::SpecBuilder;
    use gr_core::solver::{solve, SolveOptions};

    let m = compile("float f(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }").unwrap();
    let func = &m.functions[0];
    let analyses = gr_analysis::Analyses::new(&m, func);
    let ctx = MatchCtx::new(&m, func, &analyses);
    let mut b = SpecBuilder::new("never");
    let x = b.label("x");
    b.atom(Atom::NotEqual { a: x, b: x });
    let spec = b.finish();
    let guard = gr_trace::start();
    let (sols, stats) = solve(&spec, &ctx, SolveOptions::default());
    let trace = guard.finish();
    assert!(sols.is_empty());
    assert!(stats.steps > 0);
    assert_eq!(
        trace.counter("solver.prunes{NotEqual}"),
        stats.steps as i64,
        "every step fails the NotEqual checker: {:?}",
        trace.counters
    );
}

#[test]
fn budget_truncation_lands_in_the_error_ledger() {
    use gr_core::{detect_reductions_budgeted, DetectBudget, DetectionStatus};

    let m = compile(CORPUS_SRC).unwrap();
    let guard = gr_trace::start();
    let reports = detect_reductions_budgeted(&m, DetectBudget::steps(0));
    let trace = guard.finish();
    assert!(reports.iter().all(|r| r.status.is_degraded()));
    let gr001 = trace.counter("error{GR001}");
    let truncations: usize = reports.iter().map(|r| r.truncated_idioms.len()).sum();
    assert_eq!(gr001, truncations as i64, "one GR001 per truncated idiom solve");
    let raised = trace.events_named("error.raised").count();
    assert_eq!(raised as i64, gr001, "instant events pair the ledger counters");
    // Unbudgeted detection must leave the ledger empty.
    let guard = gr_trace::start();
    let clean = detect_reductions_budgeted(&m, DetectBudget::UNLIMITED);
    let trace = guard.finish();
    assert!(clean.iter().all(|r| r.status == DetectionStatus::Complete));
    assert_eq!(trace.counter("error{GR001}"), 0);
    assert_eq!(trace.events_named("error.raised").count(), 0);
}

#[test]
fn prefix_cache_counters_match_cache_summary() {
    let m = compile(CORPUS_SRC).unwrap();
    let registry = IdiomRegistry::with_default_idioms();
    let guard = gr_trace::start();
    let mut summary_hits = 0usize;
    let mut summary_solves = 0usize;
    for func in &m.functions {
        let analyses = gr_analysis::Analyses::new(&m, func);
        let ctx = MatchCtx::new(&m, func, &analyses);
        let report = registry.stats_report(&ctx);
        for row in &report.prefix_cache {
            summary_hits += row.hits;
            summary_solves += 1;
        }
    }
    let trace = guard.finish();
    let traced_hits: i64 = trace.counters_with_prefix("prefix_cache.hits{").map(|(_, v)| v).sum();
    let traced_solves: i64 =
        trace.counters_with_prefix("prefix_cache.solves{").map(|(_, v)| v).sum();
    assert_eq!(traced_hits, summary_hits as i64);
    assert_eq!(traced_solves, summary_solves as i64);
    // Every per-function cache was dropped inside the session: evictions
    // cover each cached entry exactly once.
    assert_eq!(trace.counter("prefix_cache.evictions"), summary_solves as i64);
    // Spans nest detect-pipeline order: a prefix solve happens inside an
    // idiom span inside the extend/solve machinery.
    assert!(trace.events_named("prefix").count() >= 2, "one fresh prefix solve per fingerprint");
    assert!(trace.events_named("extend").count() > 0);
}
