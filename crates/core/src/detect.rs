//! The detection driver: a generic loop over the idiom registry.
//!
//! The driver knows nothing about individual idioms. For every function it
//! builds a [`MatchCtx`] and hands it to the registry, which solves each
//! registered specification, deduplicates solutions, applies the idiom's
//! post-check hook and report classifier, and runs its finalize pass (see
//! [`crate::spec::registry`]). [`detect_reductions`] uses the default
//! registry (scalar, histogram, scan, argmin/argmax); [`detect_with`]
//! accepts any registry, which is how downstream users plug in new idioms
//! without touching this crate.
//!
//! This module also hosts the dataflow helpers shared by the built-in
//! classifiers: the update-chain walk used by the degenerate-accumulation
//! filter, the affinity judgement, and the nested-scalar deduplication.

use crate::atoms::MatchCtx;
use crate::constraint::Spec;
use crate::report::Reduction;
use crate::solver::{solve, solve_extend, Assignment, SolveOptions, SolveStats};
use crate::spec::registry::IdiomRegistry;
pub use budget::{
    detect_reductions_budgeted, detect_with_budget, DetectBudget, DetectionReport, DetectionStatus,
};
use gr_analysis::dataflow::{
    computed_only_from, forward_closure_in_loop, DominanceQuery, DominanceResult,
};
use gr_analysis::loops::LoopId;
use gr_analysis::Analyses;
use gr_ir::{Module, Opcode, ValueId};
use std::collections::HashMap;
use std::sync::Arc;

/// Memoized prefix solutions for one function ([`MatchCtx`]): the shared
/// for-loop sub-problem is solved once and every idiom entry resumes from
/// it ([`solve_extend`]). Keyed by the prefix's structural fingerprint, so
/// any family of specs built on the same marked prefix shares — not just
/// the built-in for-loop. Specs stacking several prefix *instances*
/// (map-reduce fusion's producer/consumer pair) resume from tuples of the
/// same cached solutions, so even a two-loop idiom costs one solve here.
///
/// A cache is only meaningful for a single `MatchCtx`: build one per
/// function and drop it afterwards (the driver does).
#[derive(Default)]
pub struct PrefixCache {
    entries: HashMap<u64, CacheEntry>,
}

struct CacheEntry {
    solved: Arc<SolvedPrefix>,
    hits: usize,
}

/// One solved prefix sub-problem.
pub struct SolvedPrefix {
    /// Name of the prefix sub-spec (derived from the first spec that
    /// triggered the solve, e.g. `histogram-reduction::prefix`).
    pub name: String,
    /// Every assignment of the prefix labels satisfying the prefix spec,
    /// in the lexicographic order the solver yields them — the order every
    /// extension resumes from.
    pub solutions: Vec<Assignment>,
    /// Cost of the one prefix solve.
    pub stats: SolveStats,
}

/// Per-prefix cache accounting: one row per distinct fingerprint (see
/// [`PrefixCache::summary`]); `greduce stats` prints these.
#[derive(Debug, Clone)]
pub struct PrefixCacheSummary {
    /// Name of the prefix sub-spec that populated the entry.
    pub name: String,
    /// Structural fingerprint keying the entry.
    pub fingerprint: u64,
    /// Prefix solutions cached.
    pub solutions: usize,
    /// Steps of the one prefix solve.
    pub steps: usize,
    /// Cache hits: lookups served without re-solving.
    pub hits: usize,
}

impl PrefixCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> PrefixCache {
        PrefixCache::default()
    }

    /// The solved prefix of `spec`, computing and memoizing it on first
    /// use. Returns `None` for specs without a marked prefix; the `bool`
    /// is `true` when this call performed the solve (so callers can
    /// attribute the prefix cost exactly once).
    pub fn lookup(
        &mut self,
        spec: &Spec,
        ctx: &MatchCtx<'_>,
        opts: SolveOptions,
    ) -> Option<(Arc<SolvedPrefix>, bool)> {
        let p = spec.prefix?;
        if let Some(e) = self.entries.get_mut(&p.fingerprint) {
            e.hits += 1;
            if gr_trace::enabled() {
                gr_trace::counter_keyed("prefix_cache.hits", &e.solved.name, 1);
            }
            return Some((Arc::clone(&e.solved), false));
        }
        let pspec = spec.prefix_spec()?;
        let name = pspec.name.clone();
        let _sp = gr_trace::enabled()
            .then(|| gr_trace::span_with("prefix", vec![("prefix", name.as_str().into())]));
        let (solutions, stats) = solve(&pspec, ctx, opts);
        if gr_trace::enabled() {
            gr_trace::counter_keyed("prefix_cache.solves", &name, 1);
            gr_trace::counter_keyed("prefix_cache.solutions", &name, solutions.len() as i64);
        }
        let e = Arc::new(SolvedPrefix { name, solutions, stats });
        self.entries
            .insert(p.fingerprint, CacheEntry { solved: Arc::clone(&e), hits: 0 });
        Some((e, true))
    }

    /// Retires every entry, emitting the same `prefix_cache.evictions`
    /// ledger counter as [`Drop`]. Prefix solutions are assignments of
    /// one function's `ValueId`s, so a long-lived cache owner (a
    /// `gr-server` solving job holding its shard across functions) must
    /// reset between functions — reuse across functions would resume
    /// extensions from another function's value arena.
    pub fn reset(&mut self) {
        if gr_trace::enabled() && !self.entries.is_empty() {
            gr_trace::counter("prefix_cache.evictions", self.entries.len() as i64);
        }
        self.entries.clear();
    }

    /// One row per cached prefix, ordered by name for stable output.
    #[must_use]
    pub fn summary(&self) -> Vec<PrefixCacheSummary> {
        let mut rows: Vec<PrefixCacheSummary> = self
            .entries
            .iter()
            .map(|(&fingerprint, e)| PrefixCacheSummary {
                name: e.solved.name.clone(),
                fingerprint,
                solutions: e.solved.solutions.len(),
                steps: e.solved.stats.steps,
                hits: e.hits,
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }
}

impl Drop for PrefixCache {
    /// The cache has no replacement policy: entries live until the
    /// per-function cache is dropped, which is therefore the one eviction
    /// point — `prefix_cache.evictions` counts entries retired here.
    fn drop(&mut self) {
        if gr_trace::enabled() && !self.entries.is_empty() {
            gr_trace::counter("prefix_cache.evictions", self.entries.len() as i64);
        }
    }
}

/// Solves `spec`, going through the prefix cache when both a cache and a
/// marked prefix exist. Returns the solutions, the (extension) solve
/// statistics, and the prefix statistics when this call triggered the
/// prefix solve — `None` on a cache hit or an uncached/unprefixed solve.
pub fn solve_with_cache(
    spec: &Spec,
    ctx: &MatchCtx<'_>,
    cache: Option<&mut PrefixCache>,
    opts: SolveOptions,
) -> (Vec<Assignment>, SolveStats, Option<SolveStats>) {
    if let Some(cache) = cache {
        if let Some((prefix, fresh)) = cache.lookup(spec, ctx, opts) {
            let (sols, mut stats) = solve_extend(spec, ctx, &prefix.solutions, opts);
            // A truncated prefix solve means the cached solution list is
            // incomplete: surface that on every resume, not just the
            // fresh one.
            stats.truncated = stats.truncated || prefix.stats.truncated;
            return (sols, stats, fresh.then_some(prefix.stats));
        }
    }
    let (sols, stats) = solve(spec, ctx, opts);
    (sols, stats, None)
}

/// Detects all reductions of the default idioms in a module.
#[must_use]
pub fn detect_reductions(module: &Module) -> Vec<Reduction> {
    detect_with(&IdiomRegistry::with_default_idioms(), module)
}

/// Detects reductions with a caller-supplied idiom registry: the
/// reductions of [`detect_with_budget`] without a budget, flattened in
/// function order.
#[must_use]
pub fn detect_with(registry: &IdiomRegistry, module: &Module) -> Vec<Reduction> {
    detect_with_budget(registry, module, DetectBudget::UNLIMITED)
        .into_iter()
        .flat_map(|report| report.reductions)
        .collect()
}

/// Budgeted **anytime** detection: step budgets, degradation status and
/// per-function reports. See [`detect_reductions_budgeted`].
mod budget {
    use super::{Analyses, MatchCtx, Module, PrefixCache, Reduction};
    use crate::spec::registry::IdiomRegistry;

    /// A deterministic step budget for one detection run. Budgets are
    /// counted in solver backtracking **steps** — never wall-clock — so
    /// a budgeted run degrades identically on every machine (timers
    /// would make degradation nondeterministic).
    ///
    /// [`DetectBudget::UNLIMITED`] leaves the solver's own defensive
    /// defaults ([`crate::solver::SolveOptions::default`]) in force and
    /// is bit-identical to unbudgeted detection — same steps, same
    /// reports.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct DetectBudget {
        /// Ceiling on cumulative solver steps across all idioms in one
        /// function, prefix solves included. Each solve gets what is
        /// left; once spent, remaining idioms get a zero-step budget and
        /// truncate immediately (their already-cached prefix solutions
        /// are still reused).
        pub per_function_steps: usize,
    }

    impl DetectBudget {
        /// No budget: solver defaults only. Detection behaves exactly
        /// as the unbudgeted driver.
        pub const UNLIMITED: DetectBudget = DetectBudget { per_function_steps: usize::MAX };

        /// At most `steps` solver steps per function.
        #[must_use]
        pub fn steps(steps: usize) -> DetectBudget {
            DetectBudget { per_function_steps: steps }
        }
    }

    impl Default for DetectBudget {
        fn default() -> DetectBudget {
            DetectBudget::UNLIMITED
        }
    }

    /// Completion status of one function's detection run.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum DetectionStatus {
        /// Every solve ran to exhaustion: the report is total.
        Complete,
        /// At least one solve truncated against the budget: the report
        /// is a sound **under-approximation** (everything reported is a
        /// real match; more may exist).
        Degraded {
            /// The per-function step budget that was in force.
            budget: usize,
            /// Solver steps actually spent on this function.
            steps_used: usize,
        },
    }

    impl DetectionStatus {
        /// Whether the run degraded.
        #[must_use]
        pub fn is_degraded(&self) -> bool {
            matches!(self, DetectionStatus::Degraded { .. })
        }
    }

    /// One function's detection outcome under a budget: the reductions
    /// found (possibly partial), the status, and which idioms hit the
    /// budget. A degraded function never poisons the run — the driver
    /// reports it and moves to the next function.
    #[derive(Debug, Clone)]
    pub struct DetectionReport {
        /// Function name.
        pub function: String,
        /// Reductions found within budget (a sound subset on
        /// degradation).
        pub reductions: Vec<Reduction>,
        /// Completion status.
        pub status: DetectionStatus,
        /// Solver steps spent (prefix + extensions).
        pub steps_used: usize,
        /// Names of idiom entries whose solve truncated, in detection
        /// order (empty when complete). A truncated shared *prefix*
        /// surfaces on every idiom that resumed from it.
        pub truncated_idioms: Vec<&'static str>,
    }

    /// Budgeted [`super::detect_reductions`]: one [`DetectionReport`]
    /// per function. A solver blow-up on one function degrades that
    /// function's report to [`DetectionStatus::Degraded`] — with
    /// whatever matches fit in the budget — instead of stalling or
    /// aborting the whole module.
    #[must_use]
    pub fn detect_reductions_budgeted(
        module: &Module,
        budget: DetectBudget,
    ) -> Vec<DetectionReport> {
        let registry = IdiomRegistry::with_default_idioms();
        detect_with_budget(&registry, module, budget)
    }

    /// [`detect_reductions_budgeted`] with a caller-supplied registry.
    #[must_use]
    pub fn detect_with_budget(
        registry: &IdiomRegistry,
        module: &Module,
        budget: DetectBudget,
    ) -> Vec<DetectionReport> {
        let mut out = Vec::new();
        for func in &module.functions {
            let analyses = Analyses::new(module, func);
            let ctx = MatchCtx::new(module, func, &analyses);
            out.push(registry.detect_in_function_report(
                &ctx,
                Some(&mut PrefixCache::new()),
                budget,
            ));
        }
        out
    }
}

/// Walks the generalized-dominance dataflow of `result` within the loop,
/// admitting `allowed` values and the iterator in address context, and
/// returns the walk (its `loads` feed the degenerate-accumulation filter
/// and the affinity judgement).
pub(crate) fn update_walk(
    ctx: &MatchCtx<'_>,
    lid: LoopId,
    iterator: ValueId,
    allowed: &[ValueId],
    result: ValueId,
) -> DominanceResult {
    let q = DominanceQuery {
        func: ctx.func,
        forest: &ctx.analyses.loops,
        cdeps: &ctx.analyses.cdeps,
        invariance: &ctx.invariance,
        purity: &ctx.analyses.purity,
        lid,
        inst_blocks: &ctx.inst_blocks,
    };
    computed_only_from(&q, result, &|v, in_addr| allowed.contains(&v) || (in_addr && v == iterator))
}

/// Whether every load's index is affine in the loop's iterator — the
/// paper's strict "indices affine in the loop iterator" condition, recorded
/// per reduction. For reductions spanning a loop nest, affinity is judged
/// in all counted-loop iterators inside the reduction loop (e.g.
/// `a[i*m + j]`).
pub(crate) fn loads_affine(
    ctx: &MatchCtx<'_>,
    lid: LoopId,
    iterator: ValueId,
    loads: &[ValueId],
) -> bool {
    let func = ctx.func;
    let forest = &ctx.analyses.loops;
    let outer = forest.get(lid);
    let mut iterators = vec![iterator];
    for (i, l) in forest.loops().iter().enumerate() {
        if l.header != outer.header && outer.contains(l.header) {
            if let Some(shape) = gr_analysis::loops::match_for_shape(func, forest, LoopId(i as u32))
            {
                iterators.push(shape.iterator);
            }
        }
    }
    let is_inv = |v: ValueId| ctx.invariance.is_invariant(lid, v);
    loads.iter().all(|&ld| {
        let ptr = func.value(ld).kind.operands()[0];
        match func.value(ptr).kind.opcode() {
            Some(Opcode::Gep) => {
                let idx = func.value(ptr).kind.operands()[1];
                gr_analysis::scev::is_affine(func, &iterators, &is_inv, idx)
            }
            _ => false,
        }
    })
}

/// Pairs the spec's label names with a solver assignment.
pub(crate) fn bindings(names: &[String], asg: &[ValueId]) -> Vec<(String, ValueId)> {
    names.iter().cloned().zip(asg.iter().copied()).collect()
}

/// Drops inner-loop reports of multi-loop accumulations: if reduction `A`'s
/// loop is strictly inside reduction `B`'s and the two accumulators are
/// data-connected inside `B`'s loop — `A` continues `B`'s chain (nested
/// sum), or `A`'s result feeds `B`'s update term (`cost += dot(...)`) —
/// then the source-level reduction is `B`.
pub(crate) fn dedup_nested_scalars(
    ctx: &MatchCtx<'_>,
    mut found: Vec<Reduction>,
) -> Vec<Reduction> {
    let func = ctx.func;
    let forest = &ctx.analyses.loops;
    let mut drop = vec![false; found.len()];
    for (bi, b) in found.iter().enumerate() {
        let Some(b_lid) = forest.loop_with_header(b.header) else { continue };
        let closure = forward_closure_in_loop(
            func,
            &ctx.analyses.users,
            forest,
            b_lid,
            &ctx.inst_blocks,
            b.anchor,
        );
        for (ai, a) in found.iter().enumerate() {
            if ai == bi || drop[bi] {
                continue;
            }
            let outer = forest.get(b_lid);
            if !outer.contains(a.header) || a.header == b.header {
                continue;
            }
            if closure.contains(&a.anchor) {
                drop[ai] = true;
                continue;
            }
            let a_reach = forward_closure_in_loop(
                func,
                &ctx.analyses.users,
                forest,
                b_lid,
                &ctx.inst_blocks,
                a.anchor,
            );
            if a_reach.contains(&b.anchor) {
                drop[ai] = true;
            }
        }
    }
    let mut i = 0;
    found.retain(|_| {
        let keep = !drop[i];
        i += 1;
        keep
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{ReductionKind, ReductionOp};
    use gr_frontend::compile;

    fn detect(src: &str) -> Vec<Reduction> {
        detect_reductions(&compile(src).unwrap())
    }

    #[test]
    fn ep_kernel_yields_two_scalars_and_one_histogram() {
        // The paper's Figure 2 in full.
        let rs = detect(
            "void ep(float* x, float* q, float* sums, int nk) {
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
             }",
        );
        let scalars = rs.iter().filter(|r| r.kind.is_scalar()).count();
        let histos = rs.iter().filter(|r| r.kind.is_histogram()).count();
        assert_eq!(scalars, 2, "{rs:?}");
        assert_eq!(histos, 1, "{rs:?}");
        assert!(rs.iter().all(|r| r.op == ReductionOp::Add));
    }

    #[test]
    fn counterexample_kills_everything() {
        // Paper §2: with `t1 <= sx` the loop has no legal reductions at
        // all (control dependence on an intermediate result).
        let rs = detect(
            "void ep(float* x, float* q, float* sums, int nk) {
                 float sx = 0.0;
                 float sy = 0.0;
                 for (int i = 0; i < nk; i++) {
                     float x1 = 2.0 * x[2 * i] - 1.0;
                     float x2 = 2.0 * x[2 * i + 1] - 1.0;
                     float t1 = x1 * x1 + x2 * x2;
                     if (t1 <= sx) {
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
             }",
        );
        assert!(rs.is_empty(), "{rs:?}");
    }

    #[test]
    fn nested_sum_reported_once_at_outer_loop() {
        let rs = detect(
            "float f(float* a, int n, int m) {
                 float s = 0.0;
                 for (int i = 0; i < n; i++)
                     for (int j = 0; j < m; j++)
                         s += a[i * m + j];
                 return s;
             }",
        );
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(rs[0].depth, 1, "must report the outermost loop");
        assert!(rs[0].affine);
    }

    #[test]
    fn tpacf_histogram_is_non_affine() {
        let rs = detect(
            "void tpacf(int* bins, float* binb, float* dots, int n, int nbins) {
                 for (int i = 0; i < n; i++) {
                     float d = dots[i];
                     int lo = 0;
                     int hi = nbins;
                     while (hi > lo + 1) {
                         int mid = (lo + hi) / 2;
                         if (d >= binb[mid]) { hi = mid; } else { lo = mid; }
                     }
                     bins[lo] = bins[lo] + 1;
                 }
             }",
        );
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert!(rs[0].kind.is_histogram());
        assert!(!rs[0].affine, "binary-search index is not affine");
    }

    #[test]
    fn multiple_functions_all_scanned() {
        let rs = detect(
            "float f(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }
             float g(float* a, int n) { float p = 1.0; for (int i = 0; i < n; i++) p *= a[i]; return p; }",
        );
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].op, ReductionOp::Add);
        assert_eq!(rs[1].op, ReductionOp::Mul);
    }

    #[test]
    fn secondary_induction_variable_not_reported() {
        let rs = detect(
            "int f(int n) {
                 int j = 0;
                 for (int i = 0; i < n; i++) j += 3;
                 return j;
             }",
        );
        assert!(rs.is_empty(), "{rs:?}");
    }

    #[test]
    fn kmeans_style_loop_detects_counts_sums_and_argmin() {
        // Histogram on the membership counts; scalar reductions on delta
        // (outer loop) and on the distance accumulator (innermost loop).
        // The (best, bestd) pair is no longer rejected wholesale: neither
        // value privatizes *alone* (the scalar idiom still refuses both),
        // but the argmin idiom exploits them as a pair.
        let rs = detect(
            "void assign(float* pts, float* centers, int* counts, float* sums, int* member, int n, int k, int d) {
                 int delta = 0;
                 for (int i = 0; i < n; i++) {
                     int best = 0;
                     float bestd = 1.0e30;
                     for (int c = 0; c < k; c++) {
                         float dist = 0.0;
                         for (int j = 0; j < d; j++) {
                             float t = pts[i * d + j] - centers[c * d + j];
                             dist += t * t;
                         }
                         if (dist < bestd) { bestd = dist; best = c; }
                     }
                     if (member[i] != best) delta++;
                     counts[best] = counts[best] + 1;
                 }
                 sums[0] = delta;
             }",
        );
        let histos = rs.iter().filter(|r| r.kind.is_histogram()).count();
        let scalars = rs.iter().filter(|r| r.kind.is_scalar()).count();
        let argmins = rs.iter().filter(|r| r.kind == ReductionKind::ArgMin).count();
        assert_eq!(histos, 1, "{rs:?}");
        assert_eq!(scalars, 2, "{rs:?}");
        assert_eq!(argmins, 1, "{rs:?}");
    }

    #[test]
    fn prefix_sum_detected_as_scan_not_scalar() {
        let rs = detect(
            "void psum(float* a, float* out, int n) {
                 float s = 0.0;
                 for (int i = 0; i < n; i++) { s += a[i]; out[i] = s; }
             }",
        );
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(rs[0].kind, ReductionKind::Scan);
        assert_eq!(rs[0].op, ReductionOp::Add);
        assert!(rs[0].affine);
    }

    #[test]
    fn constant_output_index_is_not_a_scan() {
        // `out[0] = s` — affine but not strided: the post-check kills it,
        // and the scalar idiom still refuses the store, so nothing at all.
        let rs = detect(
            "void f(float* a, float* out, int n) {
                 float s = 0.0;
                 for (int i = 0; i < n; i++) { s += a[i]; out[0] = s; }
             }",
        );
        assert!(rs.is_empty(), "{rs:?}");
    }

    #[test]
    fn argmin_detected_with_normalized_predicate() {
        let rs = detect(
            "int amin(float* a, int n) {
                 float best = 1.0e30;
                 int bi = 0;
                 for (int i = 0; i < n; i++) {
                     float v = a[i];
                     if (v < best) { best = v; bi = i; }
                 }
                 return bi;
             }",
        );
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(rs[0].kind, ReductionKind::ArgMin);
        assert_eq!(rs[0].op, ReductionOp::Min);
        assert_eq!(rs[0].arg_pred, Some(gr_ir::CmpPred::Lt), "strict keeps the first extremum");
    }

    #[test]
    fn non_strict_argmax_records_le_tie_break() {
        let rs = detect(
            "int amax(float* a, int n) {
                 float best = -1.0e30;
                 int bi = 0;
                 for (int i = 0; i < n; i++) {
                     float v = a[i];
                     if (v >= best) { best = v; bi = i; }
                 }
                 return bi;
             }",
        );
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(rs[0].kind, ReductionKind::ArgMax);
        assert_eq!(rs[0].arg_pred, Some(gr_ir::CmpPred::Ge), "non-strict keeps the last");
    }

    #[test]
    fn custom_registry_detects_only_registered_idioms() {
        let src = "void both(float* a, float* out, int n) {
                 float s = 0.0;
                 float total = 0.0;
                 for (int i = 0; i < n; i++) { s += a[i]; out[i] = s; }
                 for (int i = 0; i < n; i++) total += a[i];
                 out[0] = total;
             }";
        let m = compile(src).unwrap();
        let mut scans_only = IdiomRegistry::empty();
        scans_only.register(crate::spec::scan::idiom()).unwrap();
        let rs = detect_with(&scans_only, &m);
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(rs[0].kind, ReductionKind::Scan);
    }

    // `sum` carries two accumulators so the scalar spec's `acc` label
    // branches and the solve costs real steps — a single-accumulator body
    // is all forced moves and would make the budget-cap assertions below
    // vacuous.
    const TWO_FUNCS: &str = "float sum(float* a, int n) {
             float s = 0.0;
             float t = 1.0;
             for (int i = 0; i < n; i++) { s += a[i]; t *= a[i]; }
             return s + t;
         }
         int amin(float* a, int n) {
             float best = 1.0e30;
             int bi = 0;
             for (int i = 0; i < n; i++) {
                 float v = a[i];
                 if (v < best) { best = v; bi = i; }
             }
             return bi;
         }";

    #[test]
    fn unlimited_budget_reproduces_unbudgeted_detection() {
        let m = compile(TWO_FUNCS).unwrap();
        let plain = detect_reductions(&m);
        let reports = detect_reductions_budgeted(&m, DetectBudget::UNLIMITED);
        assert_eq!(reports.len(), 2, "one report per function");
        let budgeted: Vec<&Reduction> = reports.iter().flat_map(|r| &r.reductions).collect();
        assert_eq!(budgeted.len(), plain.len());
        for (a, b) in plain.iter().zip(&budgeted) {
            assert_eq!(a.function, b.function);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.anchor, b.anchor);
        }
        for r in &reports {
            assert_eq!(r.status, DetectionStatus::Complete, "{r:?}");
            assert!(r.truncated_idioms.is_empty());
        }
        // Forced moves are free, so a fully-determined function may cost 0,
        // but the branching `sum` guarantees the module total is accounted.
        let total: usize = reports.iter().map(|r| r.steps_used).sum();
        assert!(total > 0, "steps are accounted even when complete");
    }

    #[test]
    fn zero_budget_degrades_every_function_without_poisoning_the_run() {
        let m = compile(TWO_FUNCS).unwrap();
        let reports = detect_reductions_budgeted(&m, DetectBudget::steps(0));
        assert_eq!(reports.len(), 2, "a degraded function never aborts the module walk");
        for r in &reports {
            assert!(r.status.is_degraded(), "{r:?}");
            assert_eq!(r.status, DetectionStatus::Degraded { budget: 0, steps_used: r.steps_used });
            assert!(!r.truncated_idioms.is_empty());
            assert!(r.reductions.is_empty(), "no steps, no matches: {r:?}");
        }
    }

    #[test]
    fn partial_budget_is_a_sound_underapproximation() {
        let m = compile(TWO_FUNCS).unwrap();
        let complete = detect_reductions_budgeted(&m, DetectBudget::UNLIMITED);
        // Re-run each function with half the steps it actually needs: the
        // degraded report may only *lose* matches, never invent them.
        for (func, full) in m.functions.iter().zip(&complete) {
            let half = DetectBudget::steps(full.steps_used / 2);
            let degraded = detect_reductions_budgeted(&m, half)
                .into_iter()
                .find(|r| r.function == func.name)
                .unwrap();
            assert!(degraded.steps_used <= full.steps_used);
            for r in &degraded.reductions {
                assert!(
                    full.reductions.iter().any(|f| f.anchor == r.anchor && f.kind == r.kind),
                    "budgeted match {r:?} absent from the complete report"
                );
            }
        }
    }
}
