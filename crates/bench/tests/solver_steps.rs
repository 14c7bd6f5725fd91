//! Tier-1 guards on solver cost and on the equivalence of the
//! prefix-shared and unshared detection paths.
//!
//! The step counts are fully deterministic: candidate lists are sorted
//! before use and the search is depth-first, so the totals only move when
//! candidate generation or the specs change. The bounds leave headroom
//! over the measured values (micro 6, corpus 203 with the ten-idiom
//! registry, both prefixes, the fusion pair-resume, forced-move-free
//! accounting and labels searched in declaration order) so spec growth
//! does not trip them spuriously, while a genuine candidate-generation
//! regression does.
//!
//! `trace_substrate.rs` re-asserts the corpus pin through the `gr-trace`
//! counters, proving the detection reports and the trace count the same
//! steps.

use gr_bench::stats::{corpus, measure_suite_stats};
use gr_benchsuite::{suite_programs, Suite};
use gr_core::atoms::MatchCtx;
use gr_core::detect::PrefixCache;
use gr_core::spec::IdiomRegistry;
use gr_core::{DetectBudget, ReductionKind};

/// Total solver steps of the default registry on `main` before prefix
/// sharing landed, over the same corpus (NAS + Parboil + Rodinia + Micro),
/// measured at commit `6996b9c` with the registry's shared-prefix solve
/// per function. The acceptance bar for prefix sharing was a ≥3× reduction;
/// the extension search (forced moves free, declaration order) now sits
/// two orders of magnitude under it.
const MAIN_BASELINE_STEPS: usize = 12_185;

fn shared_steps(suite: Suite) -> usize {
    let registry = IdiomRegistry::with_default_idioms();
    let mut total = 0;
    for p in suite_programs(suite) {
        let m = p.compile();
        for func in &m.functions {
            let analyses = gr_analysis::Analyses::new(&m, func);
            let ctx = MatchCtx::new(&m, func, &analyses);
            total += registry.stats_report(&ctx).total().steps;
        }
    }
    total
}

/// One function's reductions, with a prefix cache or (`None`) solving
/// every spec from scratch.
fn detect(
    registry: &IdiomRegistry,
    ctx: &MatchCtx<'_>,
    cache: Option<&mut PrefixCache>,
) -> Vec<gr_core::Reduction> {
    registry
        .detect_in_function_report(ctx, cache, DetectBudget::UNLIMITED)
        .reductions
}

/// Every reduction the default registry finds in a suite.
fn suite_reductions(suite: Suite) -> Vec<gr_core::Reduction> {
    let registry = IdiomRegistry::with_default_idioms();
    let mut out = Vec::new();
    for p in suite_programs(suite) {
        let m = p.compile();
        for func in &m.functions {
            let analyses = gr_analysis::Analyses::new(&m, func);
            let ctx = MatchCtx::new(&m, func, &analyses);
            out.extend(detect(&registry, &ctx, Some(&mut PrefixCache::new())));
        }
    }
    out
}

#[test]
fn micro_corpus_steps_are_pinned() {
    let steps = shared_steps(Suite::Micro);
    // Measured 6 with the nine micro programs (scan ×2, argmin, search ×4,
    // speculative fold, fusion pair): nearly every label is a forced move,
    // and forced moves are free.
    assert!(
        steps <= 60,
        "micro-corpus solver steps regressed: {steps} > 60 — candidate \
         generation got weaker (or a new micro program needs a new pin)"
    );
}

#[test]
fn corpus_steps_drop_3x_vs_pre_sharing_main() {
    let total: usize = corpus().into_iter().map(shared_steps).sum();
    assert!(
        total * 3 <= MAIN_BASELINE_STEPS,
        "prefix-shared corpus steps {total} must stay ≤ {} (3x under the \
         pre-sharing baseline of {MAIN_BASELINE_STEPS} — which was measured \
         with only four idioms; nine now ride on the shared prefixes)",
        MAIN_BASELINE_STEPS / 3
    );
    // Tighter trend guard over the measured 203 (ten idioms over 49
    // programs, forced moves free, labels in declaration order): the
    // pre-trie ledger charged 3259 for the identical work.
    assert!(total <= 300, "corpus steps regressed: {total} > 300");
}

#[test]
fn fusion_extension_stays_free_and_still_fires() {
    // The two-loop fusion spec must stay cheap on the programs without a
    // fusible pair: its cross-loop conditions are *residual* conjuncts,
    // decided per resumed (producer, consumer) pair before any extension
    // label is searched, so non-fusible functions cost zero extension
    // steps — and the one real fusion extension is all forced moves, so
    // the steps ledger alone cannot prove the extension ran. The detection result does: the micro fusion pair
    // must still be found.
    let registry = IdiomRegistry::with_default_idioms();
    let mut fusion_ext = 0usize;
    for suite in corpus() {
        for p in suite_programs(suite) {
            let m = p.compile();
            for func in &m.functions {
                let analyses = gr_analysis::Analyses::new(&m, func);
                let ctx = MatchCtx::new(&m, func, &analyses);
                let report = registry.stats_report(&ctx);
                for (name, stats) in &report.per_idiom {
                    if *name == "map-reduce-fusion" {
                        fusion_ext += stats.steps;
                    }
                }
            }
        }
    }
    assert!(fusion_ext <= 80, "fusion extension steps regressed: {fusion_ext} > 80");
    let micro = suite_reductions(Suite::Micro);
    assert!(
        micro.iter().any(|r| r.kind == ReductionKind::MapReduceFusion),
        "the micro fusion pair must exercise the extension: {micro:?}"
    );
}

#[test]
fn early_exit_idiom_extensions_stay_free_and_still_fire() {
    // The five early-exit idioms (searches + the speculative fold) must
    // stay cheap: on functions without an early-exit loop their shared
    // prefix dies at the header label (LoopExitEdges prunes), and on the
    // micro search programs the extensions are forced-move chains costing
    // zero steps. As above, detection results prove the family ran.
    let registry = IdiomRegistry::with_default_idioms();
    let mut family_ext = 0usize;
    for suite in corpus() {
        for p in suite_programs(suite) {
            let m = p.compile();
            for func in &m.functions {
                let analyses = gr_analysis::Analyses::new(&m, func);
                let ctx = MatchCtx::new(&m, func, &analyses);
                let report = registry.stats_report(&ctx);
                for (name, stats) in &report.per_idiom {
                    if matches!(
                        *name,
                        "find-first"
                            | "any-all-of"
                            | "find-min-index-early"
                            | "fold-until-sentinel"
                            | "find-last"
                    ) {
                        family_ext += stats.steps;
                    }
                }
            }
        }
    }
    assert!(family_ext <= 120, "early-exit extension steps regressed: {family_ext} > 120");
    let micro = suite_reductions(Suite::Micro);
    for kind in [ReductionKind::FindFirst, ReductionKind::FindMinIndex] {
        assert!(
            micro.iter().any(|r| r.kind == kind),
            "micro programs must exercise the early-exit family ({kind:?}): {micro:?}"
        );
    }
}

#[test]
fn two_distinct_prefixes_cached_without_collision() {
    // A function containing both loop shapes: the cache must key the two
    // prefix sub-problems separately (distinct fingerprints), serve every
    // fold idiom from the for-loop entry and every search idiom from the
    // early-exit entry, and solve each exactly once.
    let m = gr_frontend::compile(
        "int both(float* a, int* keys, int x, int n) {
             float s = 0.0;
             for (int i = 0; i < n; i++) s += a[i];
             int r = n;
             for (int i = 0; i < n; i++) {
                 if (keys[i] == x) { r = i; break; }
             }
             return r + s;
         }",
    )
    .unwrap();
    let registry = IdiomRegistry::with_default_idioms();
    let func = &m.functions[0];
    let analyses = gr_analysis::Analyses::new(&m, func);
    let ctx = MatchCtx::new(&m, func, &analyses);
    let report = registry.stats_report(&ctx);
    assert_eq!(report.prefix_cache.len(), 2, "{:?}", report.prefix_cache);
    let fold = report
        .prefix_cache
        .iter()
        .find(|r| r.name == "histogram-reduction::prefix")
        .expect("for-loop prefix entry (named by its first solver)");
    let early = report
        .prefix_cache
        .iter()
        .find(|r| r.name == "find-first::prefix")
        .expect("early-exit prefix entry");
    assert_ne!(fold.fingerprint, early.fingerprint);
    // Four fold idioms plus map-reduce fusion share one solve (4 hits —
    // the fusion spec's stacked pair still costs a single cache lookup);
    // the five early-exit idioms (three searches + fold-until-sentinel +
    // find-last) share the other (4 hits).
    assert_eq!(fold.hits, 4);
    assert_eq!(early.hits, 4);
    // Detection still sees exactly one scalar and one find-first.
    let rs = detect(&registry, &ctx, Some(&mut PrefixCache::new()));
    assert_eq!(rs.len(), 2, "{rs:?}");
    assert!(rs.iter().any(|r| r.kind == gr_core::ReductionKind::Scalar));
    assert!(rs.iter().any(|r| r.kind == gr_core::ReductionKind::FindFirst));
}

/// Steps of a suite with every idiom spec solved from scratch — the
/// pre-sharing reference path, kept only for this comparison.
fn unshared_steps(suite: Suite) -> usize {
    let registry = IdiomRegistry::with_default_idioms();
    let mut total = 0;
    for p in suite_programs(suite) {
        let m = p.compile();
        for func in &m.functions {
            let analyses = gr_analysis::Analyses::new(&m, func);
            let ctx = MatchCtx::new(&m, func, &analyses);
            total += registry
                .detect_in_function_report(&ctx, None, DetectBudget::UNLIMITED)
                .steps_used;
        }
    }
    total
}

#[test]
fn sharing_beats_unshared_solves_on_every_suite() {
    let mut shared_total = 0usize;
    let mut unshared_total = 0usize;
    for suite in corpus() {
        let s = measure_suite_stats(suite);
        let unshared = unshared_steps(suite);
        assert!(
            s.steps_shared < unshared,
            "{}: shared {} !< unshared {}",
            s.suite,
            s.steps_shared,
            unshared
        );
        shared_total += s.steps_shared;
        unshared_total += unshared;
    }
    // Forced moves are free on both paths, which shrinks the prefix's
    // share of each unshared solve; per-suite the gain varies (NAS is
    // prefix-light), but across the corpus sharing must still win at
    // least 1.5× (measured: 203 shared vs 379 unshared).
    assert!(
        shared_total * 3 <= unshared_total * 2,
        "sharing gained less than 1.5x corpus-wide ({shared_total} vs {unshared_total})"
    );
}

#[test]
fn shared_and_unshared_detection_reports_are_byte_identical() {
    let registry = IdiomRegistry::with_default_idioms();
    for suite in corpus() {
        for p in suite_programs(suite) {
            let m = p.compile();
            for func in &m.functions {
                let analyses = gr_analysis::Analyses::new(&m, func);
                let ctx = MatchCtx::new(&m, func, &analyses);
                let shared = detect(&registry, &ctx, Some(&mut PrefixCache::new()));
                let unshared = detect(&registry, &ctx, None);
                assert_eq!(
                    format!("{shared:?}"),
                    format!("{unshared:?}"),
                    "reports diverge on {}::{}",
                    p.name,
                    func.name
                );
            }
        }
    }
}

#[test]
fn server_cold_steps_are_pinned() {
    // A 256-function slice of the 10k serving corpus (the full corpus is
    // pinned in BENCH_detection_baseline.json via `all_figures`): the cold
    // batch must stay within the trie-era step budget and the warm batch
    // must be free — every repeat function is served from the fingerprint
    // cache without touching the solver.
    let server = gr_bench::stats::measure_server_throughput(gr_benchsuite::fuzz::CORPUS_SEED, 256);
    assert_eq!(server.corpus_functions, 256);
    // Measured 230 cold steps over the 240 distinct fuzz functions.
    assert!(server.cold_steps <= 250, "cold steps regressed: {} > 250", server.cold_steps);
    assert_eq!(server.warm_steps, 0, "warm batch must cost zero steps");
    assert_eq!(server.warm_hit_permil, 1000, "warm batch must hit fully");
}

#[test]
fn bench_json_renders_all_suites() {
    let rows: Vec<_> = corpus().into_iter().map(measure_suite_stats).collect();
    let mut runtime = gr_trace::MetricsSnapshot::default();
    runtime.counters.insert("chunk_dispatch".to_string(), 12);
    let mut errors = gr_trace::MetricsSnapshot::default();
    errors.counters.insert("GR001".to_string(), 3);
    let mut hists = std::collections::BTreeMap::new();
    let mut h = gr_trace::Histogram::new();
    h.record(7);
    hists.insert("solver.steps.per_idiom{sum}".to_string(), h);
    // A small serving sweep keeps the render test fast; the real corpus
    // size is exercised by `all_figures` and the serving tests.
    let server = gr_bench::stats::measure_server_throughput(gr_benchsuite::fuzz::CORPUS_SEED, 64);
    let json = gr_bench::stats::render_json(&rows, &runtime, &errors, &server, &hists);
    for suite in ["nas", "parboil", "rodinia", "micro"] {
        assert!(
            json.to_lowercase().contains(&format!("\"suite\": \"{suite}\"")),
            "missing {suite} in {json}"
        );
    }
    // The baseline gate reads the document with the shared integer-only
    // reader, which rejects floats and booleans.
    assert!(gr_trace::json::JsonVal::parse(&json).is_some(), "unreadable document: {json}");
    assert!(json.contains("\"runtime\": {\"chunk_dispatch\": 12}"));
    assert!(json.contains("\"errors\": {\"GR001\": 3}"));
    assert!(json.contains("\"server\": {\"corpus_functions\": 64, "), "missing server block");
    assert!(json.contains("\"warm_steps\": 0"), "warm batch must cost zero steps: {json}");
    assert!(json.contains("\"warm_hit_permil\": 1000"), "warm batch must hit fully: {json}");
    assert!(
        json.contains("\"solver.steps.per_idiom{sum}\": {\"count\":1,\"sum\":7,"),
        "missing histograms block in {json}"
    );
}
