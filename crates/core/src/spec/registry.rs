//! The pluggable idiom registry.
//!
//! The paper's central claim is that a constraint *language* makes idiom
//! detection extensible: a new idiom should be a new specification, not a
//! new detector. This module is that seam. Each [`IdiomEntry`] is a
//! self-describing unit:
//!
//! * a **name** (unique within a registry),
//! * a **constraint specification** built with
//!   [`SpecBuilder`](crate::constraint::SpecBuilder),
//! * an **anchor** function deduplicating solver solutions into
//!   source-level matches,
//! * a **post-check hook** for the conditions the constraint language
//!   cannot express (the paper §3.1.2 names associativity explicitly),
//! * a **report classifier** turning a surviving assignment into a
//!   [`Reduction`] record,
//! * an optional **finalize** pass over all of the idiom's reports in one
//!   function (e.g. dropping nested duplicates).
//!
//! [`IdiomRegistry::with_default_idioms`] registers the ten built-in
//! idioms (scalar, histogram, scan, argmin/argmax, find-first,
//! any-of/all-of, find-min-index-early, fold-until-sentinel, find-last,
//! map-reduce-fusion);
//! [`IdiomRegistry::empty`] plus
//! [`IdiomRegistry::register`] assemble custom detector sets. The generic
//! driver in [`crate::detect`] iterates whatever is registered — it has no
//! knowledge of any individual idiom.
//!
//! # How detection scales: shared-prefix solving
//!
//! Every built-in spec is composed as **`prefix ⨯ extension`**
//! ([`SpecBuilder::mark_prefix`](crate::constraint::SpecBuilder::mark_prefix)).
//! Two prefixes exist: the 12-label single-exit for-loop
//! ([`add_for_loop`](crate::spec::forloop::add_for_loop), under the four
//! fold idioms) and the 17-label early-exit loop
//! ([`add_for_loop_early_exit`](crate::spec::earlyexit::add_for_loop_early_exit),
//! under the four search idioms and the speculative fold).
//! [`IdiomRegistry::detect_in_function_report`] solves each distinct
//! prefix **once per function**, memoized in a
//! [`PrefixCache`] keyed by the prefix's structural fingerprint, and
//! resumes every entry's search from the cached partial assignments with
//! [`solve_extend`](crate::solver::solve_extend). Registering a new idiom
//! on a cached skeleton therefore costs one *extension* solve — a handful
//! of steps — rather than a full re-solve.
//! [`IdiomRegistry::stats_report`] returns a function's detection report
//! with its cost split into the prefix solves and each idiom's extension,
//! with per-prefix cache hit counts, all from one pass over the entries.
//! Solving every spec from scratch
//! ([`IdiomRegistry::detect_in_function_report`] without a cache) stays only
//! as a test oracle: `crates/bench/tests/solver_steps.rs` checks that it
//! reports byte-identical reductions in more steps, and pins the totals.
//!
//! A spec may even stack **several instances** of one prefix: map-reduce
//! fusion ([`crate::spec::fusion`]) poses the for-loop sub-problem twice
//! — producer and consumer loop — and the driver resumes it from every
//! ordered *pair* of the same cached for-loop solutions. Two-loop idioms
//! therefore still pay a single prefix solve per function.
//!
//! Custom idioms need no opt-in: start the spec with `add_for_loop` (or
//! any composite that calls `mark_prefix`) **as the first thing on the
//! builder** — the prefix must precede idiom-specific labels — and the
//! driver shares automatically; specs without a marked prefix are solved
//! whole, exactly as before.

use crate::atoms::MatchCtx;
use crate::constraint::Spec;
use crate::detect::{
    solve_with_cache, DetectBudget, DetectionReport, DetectionStatus, PrefixCache,
};
use crate::error::GrError;
use crate::report::{Reduction, ReductionOp};
use crate::solver::{SolveOptions, SolveStats};
use gr_ir::ValueId;
use std::collections::HashSet;
use std::fmt;

/// Deduplication key for one solver solution (two values suffice for all
/// known idioms; pair them freely).
pub type AnchorFn = fn(&Spec, &[ValueId]) -> (ValueId, ValueId);

/// Post-check hook: validates conditions outside the constraint language
/// and classifies the update operator. Returning `None` rejects the match.
pub type PostCheckFn = fn(&MatchCtx<'_>, &Spec, &[ValueId]) -> Option<ReductionOp>;

/// Report classifier: builds the reduction record for a surviving match.
/// Returning `None` drops the match (e.g. degenerate accumulations).
pub type ClassifyFn = fn(&MatchCtx<'_>, &Spec, &[ValueId], ReductionOp) -> Option<Reduction>;

/// Whole-function cleanup over one idiom's reports (nested-match dedup).
pub type FinalizeFn = fn(&MatchCtx<'_>, Vec<Reduction>) -> Vec<Reduction>;

fn finalize_identity(_: &MatchCtx<'_>, rs: Vec<Reduction>) -> Vec<Reduction> {
    rs
}

/// One registered idiom.
pub struct IdiomEntry {
    /// Unique idiom name (doubles as the registry lookup key).
    pub name: &'static str,
    /// The constraint specification.
    pub spec: Spec,
    /// Solution deduplication key.
    pub anchor: AnchorFn,
    /// Post-check hook (associativity and friends).
    pub post_check: PostCheckFn,
    /// Report classifier.
    pub classify: ClassifyFn,
    /// Per-function cleanup pass.
    pub finalize: FinalizeFn,
}

impl IdiomEntry {
    /// Creates an entry with no finalize pass.
    #[must_use]
    pub fn new(
        name: &'static str,
        spec: Spec,
        anchor: AnchorFn,
        post_check: PostCheckFn,
        classify: ClassifyFn,
    ) -> IdiomEntry {
        IdiomEntry { name, spec, anchor, post_check, classify, finalize: finalize_identity }
    }

    /// Replaces the finalize pass.
    #[must_use]
    pub fn with_finalize(mut self, finalize: FinalizeFn) -> IdiomEntry {
        self.finalize = finalize;
        self
    }
}

impl fmt::Debug for IdiomEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IdiomEntry")
            .field("name", &self.name)
            .field("labels", &self.spec.arity())
            .finish_non_exhaustive()
    }
}

/// Registration errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// An idiom with that name is already registered.
    DuplicateName(&'static str),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::DuplicateName(n) => write!(f, "idiom `{n}` is already registered"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// An ordered collection of idiom entries. Order is detection/report order
/// (registration order), just as each spec's label declaration order is
/// the order the solver assigns its labels in.
#[derive(Debug, Default)]
pub struct IdiomRegistry {
    entries: Vec<IdiomEntry>,
}

impl IdiomRegistry {
    /// An empty registry (build custom detector sets on top).
    #[must_use]
    pub fn empty() -> IdiomRegistry {
        IdiomRegistry { entries: Vec::new() }
    }

    /// The default registry: histogram, scalar, scan, argmin/argmax on the
    /// for-loop prefix, the early-exit family (find-first, any-of/all-of,
    /// find-min-index-early, fold-until-sentinel, find-last) on the
    /// two-exit prefix, and map-reduce fusion on a stacked *pair* of
    /// for-loop prefixes.
    #[must_use]
    pub fn with_default_idioms() -> IdiomRegistry {
        let mut r = IdiomRegistry::empty();
        for e in [
            crate::spec::histogram::idiom(),
            crate::spec::scalar::idiom(),
            crate::spec::scan::idiom(),
            crate::spec::argminmax::idiom(),
            crate::spec::search::find_first_idiom(),
            crate::spec::search::any_all_of_idiom(),
            crate::spec::search::find_min_index_idiom(),
            crate::spec::foldexit::idiom(),
            crate::spec::search::find_last_idiom(),
            crate::spec::fusion::idiom(),
        ] {
            r.register(e).expect("default idiom names are unique");
        }
        r
    }

    /// Registers an idiom.
    ///
    /// # Errors
    /// [`RegistryError::DuplicateName`] when the name is taken.
    pub fn register(&mut self, entry: IdiomEntry) -> Result<(), RegistryError> {
        if self.entries.iter().any(|e| e.name == entry.name) {
            return Err(RegistryError::DuplicateName(entry.name));
        }
        self.entries.push(entry);
        Ok(())
    }

    /// Looks an idiom up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&IdiomEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Registered idiom names, in detection order.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// Number of registered idioms.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The registered entries, in detection order.
    pub fn entries(&self) -> impl Iterator<Item = &IdiomEntry> {
        self.entries.iter()
    }

    /// Runs every registered idiom over one function: the generic `DETECT`
    /// driver with prefix sharing. With a cache, the function's loop-nest
    /// skeleton (the marked spec prefix) is solved **once** into the
    /// [`PrefixCache`] and every idiom entry resumes from the cached
    /// partial assignments; `None` solves every spec from scratch, kept
    /// only as the reference path tests compare the shared reports and
    /// steps against. For each entry the driver deduplicates solutions by
    /// anchor, applies the post-check hook and the report classifier, then
    /// the finalize pass. Every solve runs under `budget`, and the outcome
    /// is a [`DetectionReport`] carrying explicit completion status.
    ///
    /// Budget accounting is deterministic: each entry's solve gets
    /// `min(solver default, per-function remainder)` steps, the remainder
    /// shrinks by the steps actually spent (prefix solves included), and
    /// a solve that truncates records the entry in
    /// [`DetectionReport::truncated_idioms`] and emits a
    /// [`GrError::SolverBudget`] (`GR001`) ledger entry. Truncation never
    /// aborts the loop — later idioms still run (their cached prefix
    /// solutions are free), and every solution found within budget is
    /// still post-checked and classified, so a degraded report is a sound
    /// under-approximation of the complete one.
    ///
    /// With [`DetectBudget::UNLIMITED`] the solve options are exactly
    /// [`SolveOptions::default`] — identical steps, identical reports.
    #[must_use]
    pub fn detect_in_function_report(
        &self,
        ctx: &MatchCtx<'_>,
        cache: Option<&mut PrefixCache>,
        budget: DetectBudget,
    ) -> DetectionReport {
        self.solve_entries(ctx, cache, budget).report
    }

    /// One function's [`DetectionReport`] together with the per-idiom and
    /// shared-prefix solver statistics of the same solves: every entry
    /// resumes from the function's cached prefix solutions and reports
    /// extension-only cost (the one-time prefix cost lands in
    /// [`RegistryStats::prefix`]), with per-prefix cache hit counts.
    #[must_use]
    pub fn stats_report(&self, ctx: &MatchCtx<'_>) -> RegistryStats {
        let mut cache = PrefixCache::new();
        let mut stats = self.solve_entries(ctx, Some(&mut cache), DetectBudget::UNLIMITED);
        stats.prefix_cache = cache.summary();
        stats
    }

    /// The one loop that solves specs, behind both
    /// [`IdiomRegistry::detect_in_function_report`] and
    /// [`IdiomRegistry::stats_report`]; `prefix_cache` is left empty.
    fn solve_entries(
        &self,
        ctx: &MatchCtx<'_>,
        mut cache: Option<&mut PrefixCache>,
        budget: DetectBudget,
    ) -> RegistryStats {
        let _sp = gr_trace::enabled().then(|| {
            gr_trace::span_with("detect", vec![("function", ctx.func.name.as_str().into())])
        });
        let mut out = Vec::new();
        let mut steps_used: usize = 0;
        let mut truncated_idioms: Vec<&'static str> = Vec::new();
        let mut prefix_stats = SolveStats::default();
        let mut per_idiom = Vec::with_capacity(self.entries.len());
        for entry in &self.entries {
            let _isp = gr_trace::enabled()
                .then(|| gr_trace::span_with("idiom", vec![("idiom", entry.name.into())]));
            let defaults = SolveOptions::default();
            let remaining = budget.per_function_steps.saturating_sub(steps_used);
            let opts = SolveOptions { max_steps: defaults.max_steps.min(remaining), ..defaults };
            let (sols, stats, prefix) =
                solve_with_cache(&entry.spec, ctx, cache.as_deref_mut(), opts);
            steps_used += stats.steps + prefix.map_or(0, |p| p.steps);
            if let Some(p) = prefix {
                prefix_stats.absorb(p);
            }
            per_idiom.push((entry.name, stats));
            if gr_trace::enabled() {
                // Extension-step distribution per idiom: one sample per
                // (idiom, function) solve, so the profile answers "which
                // idioms are cheap everywhere vs. expensive somewhere".
                gr_trace::histogram_keyed("solver.steps.per_idiom", entry.name, stats.steps as i64);
            }
            if stats.truncated {
                truncated_idioms.push(entry.name);
                GrError::SolverBudget {
                    function: ctx.func.name.clone(),
                    idiom: entry.name.to_string(),
                    budget: budget.per_function_steps,
                    steps_used,
                }
                .emit();
            }
            let _psp = gr_trace::enabled()
                .then(|| gr_trace::span_with("postcheck", vec![("idiom", entry.name.into())]));
            let mut seen: HashSet<(ValueId, ValueId)> = HashSet::new();
            let mut found = Vec::new();
            for s in sols {
                if !seen.insert((entry.anchor)(&entry.spec, &s)) {
                    continue;
                }
                let Some(op) = (entry.post_check)(ctx, &entry.spec, &s) else {
                    gr_trace::counter_keyed("detect.postcheck_rejects", entry.name, 1);
                    continue;
                };
                if let Some(r) = (entry.classify)(ctx, &entry.spec, &s, op) {
                    found.push(r);
                } else {
                    gr_trace::counter_keyed("detect.classify_rejects", entry.name, 1);
                }
            }
            let finalized = (entry.finalize)(ctx, found);
            gr_trace::counter_keyed("detect.reports", entry.name, finalized.len() as i64);
            out.extend(finalized);
        }
        if gr_trace::enabled() && budget.per_function_steps != usize::MAX {
            // Headroom left under the per-function budget after the whole
            // registry ran: 0 means the budget bit, large means the budget
            // was generous. Only meaningful (and only recorded) when a
            // finite budget is in force.
            let headroom = budget.per_function_steps.saturating_sub(steps_used);
            gr_trace::histogram("detect.budget_headroom", headroom as i64);
        }
        let status = if truncated_idioms.is_empty() {
            DetectionStatus::Complete
        } else {
            DetectionStatus::Degraded { budget: budget.per_function_steps, steps_used }
        };
        RegistryStats {
            report: DetectionReport {
                function: ctx.func.name.clone(),
                reductions: out,
                status,
                steps_used,
                truncated_idioms,
            },
            prefix: prefix_stats,
            per_idiom,
            prefix_cache: Vec::new(),
        }
    }
}

/// One function's detection report with the per-idiom and shared-prefix
/// solver statistics of the same solves (see
/// [`IdiomRegistry::stats_report`]).
#[derive(Debug, Clone)]
pub struct RegistryStats {
    /// The function's detection report.
    pub report: DetectionReport,
    /// Cost of the shared prefix solves (one per distinct prefix per
    /// function).
    pub prefix: SolveStats,
    /// Extension solve cost per idiom entry.
    pub per_idiom: Vec<(&'static str, SolveStats)>,
    /// Per-prefix cache accounting (one row per distinct fingerprint).
    pub prefix_cache: Vec<crate::detect::PrefixCacheSummary>,
}

impl RegistryStats {
    /// Total statistics: prefix cost plus every idiom's cost. Prefix
    /// *solutions* (partial for-loop assignments) are not idiom matches
    /// and are excluded, so the solution count is the idioms' alone.
    #[must_use]
    pub fn total(&self) -> SolveStats {
        let mut acc =
            SolveStats { steps: self.prefix.steps, solutions: 0, truncated: self.prefix.truncated };
        for (_, s) in &self.per_idiom {
            acc.absorb(*s);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::SpecBuilder;
    use gr_analysis::Analyses;
    use gr_frontend::compile;

    fn dummy_entry(name: &'static str) -> IdiomEntry {
        let mut b = SpecBuilder::new(name);
        let x = b.label("x");
        b.atom(crate::atoms::Atom::IsLoopHeader(x));
        IdiomEntry::new(
            name,
            b.finish(),
            |_, s| (s[0], s[0]),
            |_, _, _| None, // rejects everything: registration-only entry
            |_, _, _, _| None,
        )
    }

    #[test]
    fn default_registry_has_ten_idioms() {
        let r = IdiomRegistry::with_default_idioms();
        assert_eq!(
            r.names(),
            vec![
                "histogram-reduction",
                "scalar-reduction",
                "prefix-scan",
                "argmin-argmax",
                "find-first",
                "any-all-of",
                "find-min-index-early",
                "fold-until-sentinel",
                "find-last",
                "map-reduce-fusion"
            ]
        );
        assert_eq!(r.len(), 10);
        assert!(!r.is_empty());
        assert!(r.get("prefix-scan").is_some());
        assert!(r.get("find-first").is_some());
        assert!(r.get("fold-until-sentinel").is_some());
        assert!(r.get("map-reduce-fusion").is_some());
        assert!(r.get("no-such-idiom").is_none());
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut r = IdiomRegistry::empty();
        assert!(r.register(dummy_entry("custom")).is_ok());
        let err = r.register(dummy_entry("custom")).unwrap_err();
        assert_eq!(err, RegistryError::DuplicateName("custom"));
        assert_eq!(err.to_string(), "idiom `custom` is already registered");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn lookup_returns_registered_entry() {
        let mut r = IdiomRegistry::empty();
        r.register(dummy_entry("a")).unwrap();
        r.register(dummy_entry("b")).unwrap();
        assert_eq!(r.get("b").unwrap().name, "b");
        assert_eq!(r.names(), vec!["a", "b"]);
    }

    #[test]
    fn empty_registry_detects_nothing() {
        let m = compile(
            "float f(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }",
        )
        .unwrap();
        let func = &m.functions[0];
        let analyses = Analyses::new(&m, func);
        let ctx = MatchCtx::new(&m, func, &analyses);
        let report = IdiomRegistry::empty().detect_in_function_report(
            &ctx,
            Some(&mut PrefixCache::new()),
            DetectBudget::UNLIMITED,
        );
        assert!(report.reductions.is_empty());
    }

    #[test]
    fn custom_entry_participates_in_detection() {
        // A trivial custom idiom: report every loop header as an `Add`
        // scalar — exercises the full driver path with a non-default entry.
        let mut b = SpecBuilder::new("loop-header");
        let h = b.label("header");
        b.atom(crate::atoms::Atom::IsLoopHeader(h));
        let entry = IdiomEntry::new(
            "loop-header",
            b.finish(),
            |_, s| (s[0], s[0]),
            |_, _, _| Some(ReductionOp::Add),
            |ctx, _, s, op| {
                let lid = ctx.loop_of_header(s[0])?;
                let l = ctx.analyses.loops.get(lid);
                Some(Reduction {
                    function: ctx.func.name.clone(),
                    kind: crate::report::ReductionKind::Scalar,
                    op,
                    header: l.header,
                    depth: l.depth,
                    anchor: s[0],
                    object: None,
                    affine: true,
                    arg_pred: None,
                    bindings: vec![],
                })
            },
        );
        let mut r = IdiomRegistry::empty();
        r.register(entry).unwrap();
        let m = compile(
            "void f(float* a, int n) { for (int i = 0; i < n; i++) a[i] = 1.0; for (int j = 0; j < n; j++) a[j] = 2.0; }",
        )
        .unwrap();
        let func = &m.functions[0];
        let analyses = Analyses::new(&m, func);
        let ctx = MatchCtx::new(&m, func, &analyses);
        let rs = r
            .detect_in_function_report(&ctx, Some(&mut PrefixCache::new()), DetectBudget::UNLIMITED)
            .reductions;
        assert_eq!(rs.len(), 2, "one report per loop header");
    }
}
