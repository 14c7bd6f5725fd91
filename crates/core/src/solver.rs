//! The generic backtracking solver — the paper's `DETECT` procedure
//! (Figure 6).
//!
//! Given a specification with labels `i1 … in` and predicate `c`, the
//! solver assigns labels one per search level, in the order the spec
//! declares them: level `k` assigns label `k`, so the spec author picks
//! the search order (§3.3: "first looking for the loop header"). At step
//! `k` it evaluates `c_k`: the predicate with every atom that mentions a
//! not-yet-assigned label replaced by `true` (paper §3.3, step 2).
//! Candidates for the next label are produced by the atoms themselves
//! ([`Atom::enumerate`]) — falling back to the full `values(F)`
//! enumeration only when no atom can generate. This is the "smarter
//! approach that utilizes knowledge about the composition of the
//! predicate" of §3.2, sharpened in two ways:
//!
//! * **indexed candidate generation** — every generating atom reports the
//!   cardinality of its candidate set from the precomputed indexes on
//!   [`MatchCtx`] ([`Atom::estimate`]); only the most selective generator
//!   is materialized, the rest act as membership filters, so the candidate
//!   set equals the full intersection without building every list;
//! * **disjunction generators** — an `Or` conjunct generates candidates as
//!   the union of its branches' candidate sets whenever every branch can
//!   generate, which keeps specs with alternative shapes (e.g. the
//!   diamond/select argmin forms) tractable.
//!
//! **Step accounting.** A level whose candidate set collapses to a single
//! surviving value is a *forced move*: no search decision is taken, so no
//! step is charged. Steps count only the candidates tried at genuinely
//! branching levels, which is the work a solver with perfect propagation
//! would still have to do.
//!
//! **Prefix sharing.** Specifications composed as `prefix ⨯ extension`
//! (see [`SpecBuilder::mark_prefix`](crate::constraint::SpecBuilder::mark_prefix))
//! can skip re-solving the shared prefix: [`solve_extend`] resumes the
//! backtracking search from previously computed prefix assignments,
//! visiting exactly the nodes a full [`solve`] would visit *below* the
//! prefix — same solutions, a fraction of the steps. The detection driver
//! caches each function's for-loop solutions, as the sorted assignment
//! list [`solve`] returns, in a [`PrefixCache`](crate::detect::PrefixCache).
//! Specs stacking several prefix instances (map-reduce fusion) resume from
//! a *product* of that list with itself: prefix digits are assigned one
//! instance at a time and the cross-instance residual conjuncts prune a
//! whole subtree of tuples as soon as the deciding digit is bound, instead
//! of filtering the flat cartesian product tuple by tuple.
//!
//! [`solve_naive`] is the exponential baseline (filter the full cartesian
//! enumeration), kept for the ablation benchmark and for cross-validation
//! on tiny specs.

use crate::atoms::{Atom, MatchCtx};
use crate::constraint::{Constraint, Label, Spec};
use gr_ir::ValueId;

/// A full assignment of label index → IR value.
pub type Assignment = Vec<ValueId>;

/// Solver configuration.
#[derive(Debug, Clone, Copy)]
pub struct SolveOptions {
    /// Stop after this many solutions (guards against degenerate specs).
    pub max_solutions: usize,
    /// Abort after this many backtracking steps.
    pub max_steps: usize,
}

impl Default for SolveOptions {
    fn default() -> SolveOptions {
        SolveOptions { max_solutions: 10_000, max_steps: 50_000_000 }
    }
}

/// Statistics from one solver run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Candidates tried at branching levels of the backtracking tree.
    /// Forced moves — levels where exactly one candidate survives the
    /// generator intersection — are free: they represent propagation, not
    /// search.
    pub steps: usize,
    /// Solutions yielded.
    pub solutions: usize,
    /// Whether the run hit a limit before exhausting the search space.
    pub truncated: bool,
}

impl SolveStats {
    /// Accumulates another run's statistics into this one.
    pub fn absorb(&mut self, other: SolveStats) {
        self.steps += other.steps;
        self.solutions += other.solutions;
        self.truncated = self.truncated || other.truncated;
    }

    /// Records the steps into the `solver.steps` trace counter — the only
    /// place the trace learns them. Called once as a solve returns, while
    /// its span is still open, so the steps are attributed to the `solve`
    /// or `extend` path that spent them; a step-free solve records nothing.
    fn record_steps(&self) {
        if self.steps > 0 {
            gr_trace::counter("solver.steps", self.steps as i64);
        }
    }
}

/// One branch of an `Or` conjunct, prepared for candidate generation at a
/// fixed level: the branch's atoms decidable at that level, and the subset
/// able to enumerate the level's label.
struct OrBranchGen<'s> {
    /// Branch atoms whose labels are all placed by the level (membership
    /// filters).
    decidable: Vec<&'s Atom>,
    /// Decidable atoms mentioning the level's label exactly once with all
    /// other labels earlier (candidate enumerators).
    enumerators: Vec<&'s Atom>,
}

/// A candidate-generation source for one label.
enum Gen<'s> {
    /// A top-level conjunct atom.
    Atom(&'s Atom),
    /// An `Or` conjunct: candidates are the union over branches of each
    /// branch's (filtered) enumerator sets. Sound because any solution
    /// satisfies at least one branch in full.
    Or(Vec<OrBranchGen<'s>>),
}

/// A `Gen` resolved against the current partial assignment: which atom to
/// materialize and the estimated candidate count.
enum Resolved<'g, 's> {
    Atom(&'s Atom),
    /// Per branch: the chosen enumerator plus the branch's filters.
    Or(Vec<(&'s Atom, &'g [&'s Atom])>),
}

/// The per-level search tables for one (sub-)specification, built once per
/// solver run. Level `k` assigns label `k`, and every table below is
/// indexed by label.
struct SearchPlan<'s> {
    spec: &'s Spec,
    /// First label this plan assigns (0 for a full solve, the prefix arity
    /// for an extension solve); the labels below it hold the resumed
    /// prefix.
    start: usize,
    /// Conjunct atoms decided at each label, cheapest-first.
    checkers: Vec<Vec<&'s Atom>>,
    /// Candidate-generation sources per label.
    generators: Vec<Vec<Gen<'s>>>,
    /// `Or` conjuncts with the label deciding them, partially evaluated
    /// while they are not yet fully decided.
    partials: Vec<(&'s Constraint, usize)>,
    /// Conjuncts past the prefix mark whose labels all lie inside the
    /// prefix: checked once per resumed prefix digit.
    residual: Vec<&'s Constraint>,
}

impl<'s> SearchPlan<'s> {
    fn new(spec: &'s Spec, start: usize, skip_conjuncts: usize) -> SearchPlan<'s> {
        let n = spec.arity();
        let mut plan = SearchPlan {
            spec,
            start,
            checkers: vec![Vec::new(); n],
            generators: (0..n).map(|_| Vec::new()).collect(),
            partials: Vec::new(),
            residual: Vec::new(),
        };
        for c in &spec.conjuncts()[skip_conjuncts..] {
            plan.add_conjunct(c);
        }
        for v in &mut plan.checkers {
            v.sort_by_key(|a| a.cost_rank());
        }
        plan
    }

    fn add_conjunct(&mut self, c: &'s Constraint) {
        match c {
            Constraint::And(cs) => {
                for c in cs {
                    self.add_conjunct(c);
                }
            }
            Constraint::Atom(a) => {
                let labels = a.labels();
                let Some(decided) = labels.iter().map(|l| l.index()).max() else { return };
                if decided < self.start {
                    self.residual.push(c);
                    return;
                }
                self.checkers[decided].push(a);
                if labels.iter().filter(|l| l.index() == decided).count() == 1 {
                    self.generators[decided].push(Gen::Atom(a));
                }
            }
            Constraint::Or(branches) => {
                let Some(max) = c.max_label() else { return };
                if max < self.start {
                    self.residual.push(c);
                    return;
                }
                self.partials.push((c, max));
                // Mandatory atoms per branch (nested `And`s flattened,
                // nested `Or`s skipped — their atoms are optional).
                let flat: Vec<Vec<&'s Atom>> = branches.iter().map(mandatory_atoms).collect();
                for decided in self.start..=max {
                    let mut per_branch = Vec::with_capacity(flat.len());
                    let mut all_generate = true;
                    for atoms in &flat {
                        let decidable: Vec<&'s Atom> = atoms
                            .iter()
                            .copied()
                            .filter(|a| a.labels().iter().all(|l| l.index() <= decided))
                            .collect();
                        let enumerators: Vec<&'s Atom> = decidable
                            .iter()
                            .copied()
                            .filter(|a| {
                                let ls = a.labels();
                                ls.iter().filter(|l| l.index() == decided).count() == 1
                            })
                            .collect();
                        if enumerators.is_empty() {
                            all_generate = false;
                            break;
                        }
                        per_branch.push(OrBranchGen { decidable, enumerators });
                    }
                    if all_generate {
                        self.generators[decided].push(Gen::Or(per_branch));
                    }
                }
            }
        }
    }

    /// Partial evaluation of the not-yet-decided `Or` conjuncts. Conjunct
    /// atoms are covered exactly once by `checkers`; an `Or` decided at an
    /// earlier label was evaluated exactly there and cannot change.
    fn partials_hold(&self, ctx: &MatchCtx<'_>, asg: &[ValueId], label: usize) -> bool {
        self.partials
            .iter()
            .filter(|(_, max)| *max >= label)
            .all(|(c, _)| eval_partial(c, ctx, asg, label))
    }
}

/// Optimistic evaluation once labels `0..=label` are assigned: atoms
/// mentioning a later label count as true (this is the substitution
/// defining `c_k` in the paper).
fn eval_partial(c: &Constraint, ctx: &MatchCtx<'_>, asg: &[ValueId], label: usize) -> bool {
    match c {
        Constraint::Atom(a) => {
            if a.labels().iter().all(|l| l.index() <= label) {
                a.check(ctx, asg)
            } else {
                true
            }
        }
        Constraint::And(cs) => cs.iter().all(|c| eval_partial(c, ctx, asg, label)),
        Constraint::Or(cs) => cs.iter().any(|c| eval_partial(c, ctx, asg, label)),
    }
}

/// The atoms a constraint's truth mandates: itself for an atom, the union
/// of mandatory atoms for an `And`, nothing for an `Or` (no single atom is
/// required).
fn mandatory_atoms(c: &Constraint) -> Vec<&Atom> {
    match c {
        Constraint::Atom(a) => vec![a],
        Constraint::And(cs) => cs.iter().flat_map(mandatory_atoms).collect(),
        Constraint::Or(_) => Vec::new(),
    }
}

/// Enumerates every assignment satisfying `spec` (up to the limits in
/// `opts`), in lexicographic order.
#[must_use]
pub fn solve(spec: &Spec, ctx: &MatchCtx<'_>, opts: SolveOptions) -> (Vec<Assignment>, SolveStats) {
    let _sp = gr_trace::enabled()
        .then(|| gr_trace::span_with("solve", vec![("spec", spec.name.as_str().into())]));
    let mut solutions = Vec::new();
    let mut stats = SolveStats::default();
    if spec.arity() == 0 {
        return (solutions, stats);
    }
    let plan = SearchPlan::new(spec, 0, 0);
    let mut asg: Assignment = vec![ValueId(0); spec.arity()];
    search(&plan, ctx, &mut asg, 0, &mut solutions, &mut stats, opts);
    stats.record_steps();
    solutions.sort_unstable();
    (solutions, stats)
}

/// Resumes the backtracking search of `spec` from solved prefix
/// assignments (each of the prefix's arity), visiting exactly the search
/// nodes a full [`solve`] would visit below those prefixes: the returned
/// solutions are identical to the full solve, while the steps cover only
/// the extension levels.
///
/// Specs stacking several prefix **instances** (see
/// [`PrefixInfo::instances`](crate::constraint::PrefixInfo)) resume from
/// every ordered tuple of prefix solutions via a *product* search: instance
/// digits are assigned outermost-first, and the residual conjuncts
/// confined to the first `d` instances are checked as soon as digit `d` is
/// bound — a failing producer loop prunes every consumer pairing at once
/// instead of surfacing `|loops|` dead tuples. Map-reduce fusion resumes
/// from *pairs* of for-loop solutions this way: one cached solve, a pruned
/// product over the pairs, and the cross-loop residual conjuncts cut each
/// subtree before any extension label is searched.
///
/// The prefix assignments are typically produced once per function by
/// solving [`Spec::prefix_spec`] and cached across idiom entries in a
/// [`PrefixCache`](crate::detect::PrefixCache).
///
/// # Panics
/// Panics if `spec` has no marked prefix.
#[must_use]
pub fn solve_extend(
    spec: &Spec,
    ctx: &MatchCtx<'_>,
    prefix_solutions: &[Assignment],
    opts: SolveOptions,
) -> (Vec<Assignment>, SolveStats) {
    let p = spec.prefix.expect("solve_extend requires a spec with a marked prefix");
    let _sp = gr_trace::enabled()
        .then(|| gr_trace::span_with("extend", vec![("spec", spec.name.as_str().into())]));
    let mut solutions = Vec::new();
    let mut stats = SolveStats::default();
    if prefix_solutions.is_empty() {
        return (solutions, stats);
    }
    let plan = SearchPlan::new(spec, p.total_labels(), p.total_conjuncts());
    // Residual conjuncts bucketed by the last prefix instance they read:
    // checked as soon as that digit of the product is bound.
    let mut residual_at: Vec<Vec<&Constraint>> = (0..p.instances).map(|_| Vec::new()).collect();
    for c in &plan.residual {
        let max = c.max_label().expect("residual conjuncts mention prefix labels");
        residual_at[max / p.labels].push(c);
    }
    let mut asg: Assignment = vec![ValueId(0); spec.arity()];
    product(
        &plan,
        ctx,
        &p,
        prefix_solutions,
        &residual_at,
        0,
        &mut asg,
        &mut solutions,
        &mut stats,
        opts,
    );
    stats.record_steps();
    solutions.sort_unstable();
    (solutions, stats)
}

/// One level of the prefix product: bind instance `depth`'s labels
/// from each cached prefix solution, check the residual conjuncts decided
/// by that digit, and recurse; a full tuple launches the extension search.
#[allow(clippy::too_many_arguments)]
fn product(
    plan: &SearchPlan<'_>,
    ctx: &MatchCtx<'_>,
    p: &crate::constraint::PrefixInfo,
    prefix_solutions: &[Assignment],
    residual_at: &[Vec<&Constraint>],
    depth: usize,
    asg: &mut Assignment,
    solutions: &mut Vec<Assignment>,
    stats: &mut SolveStats,
    opts: SolveOptions,
) {
    if depth == p.instances {
        gr_trace::counter("solver.resume_points", 1);
        search(plan, ctx, asg, plan.start, solutions, stats, opts);
        return;
    }
    let base = depth * p.labels;
    for pre in prefix_solutions {
        debug_assert_eq!(pre.len(), p.labels, "prefix assignment arity mismatch");
        asg[base..base + p.labels].copy_from_slice(pre);
        gr_trace::counter("solver.resume_tuples", 1);
        if residual_at[depth].iter().all(|c| eval(c, ctx, asg)) {
            product(
                plan,
                ctx,
                p,
                prefix_solutions,
                residual_at,
                depth + 1,
                asg,
                solutions,
                stats,
                opts,
            );
            if stats.truncated {
                return;
            }
        }
    }
}

fn search(
    plan: &SearchPlan<'_>,
    ctx: &MatchCtx<'_>,
    asg: &mut Assignment,
    label: usize,
    solutions: &mut Vec<Assignment>,
    stats: &mut SolveStats,
    opts: SolveOptions,
) {
    if stats.steps >= opts.max_steps || solutions.len() >= opts.max_solutions {
        stats.truncated = true;
        return;
    }
    if label == plan.spec.arity() {
        // Every conjunct atom was checked at its deciding label and every
        // `Or` conjunct was evaluated exactly there, so a full assignment
        // is a solution by construction.
        debug_assert!(eval(&plan.spec.root, ctx, asg) || plan.start > 0);
        solutions.push(asg.clone());
        stats.solutions += 1;
        return;
    }
    let (candidates, chosen) = generate_candidates(plan, ctx, asg, label);
    if gr_trace::enabled() {
        gr_trace::counter("solver.candidates", candidates.len() as i64);
        let key = format!("{}::{}", plan.spec.name, plan.spec.label_names[label]);
        gr_trace::counter_keyed("solver.candidates.label", &key, candidates.len() as i64);
        // Fanout distribution per label: how many candidates each decision
        // level generates, not just the sum. The bench baseline gates its
        // shape so fanout blowups fail CI.
        gr_trace::histogram_keyed("solver.fanout", &key, candidates.len() as i64);
    }
    // Membership pre-filter (the rest of the generator intersection): what
    // survives here is the true branching factor of this node, exactly as
    // if every generator list had been materialized and intersected. The
    // materialized source contains its own candidates by construction and
    // is skipped.
    let mut survivors: Vec<ValueId> = Vec::with_capacity(candidates.len());
    for v in candidates {
        asg[label] = v;
        if plan.generators[label]
            .iter()
            .enumerate()
            .all(|(i, g)| Some(i) == chosen || source_contains(g, ctx, asg))
        {
            survivors.push(v);
        }
    }
    // A single survivor is a forced move — propagation, not search — and
    // costs no step; only genuine branching charges the ledger.
    let branching = survivors.len() >= 2;
    for v in survivors {
        if branching {
            stats.steps += 1;
            if stats.steps >= opts.max_steps {
                stats.truncated = true;
                return;
            }
        }
        asg[label] = v;
        if gr_trace::enabled() {
            gr_trace::counter_max("solver.max_depth", (label + 1) as i64);
        }
        // c_k: all conjunct atoms decided at this label must hold, and
        // the optimistic evaluation of the undecided disjunctions must not
        // be false. A prune is counted under the kind of the first failing
        // checker atom (or `Or`).
        let pruned_by = match plan.checkers[label].iter().find(|a| !a.check(ctx, asg)) {
            Some(a) => Some(a.kind_name()),
            None if !plan.partials_hold(ctx, asg, label) => Some("Or"),
            None => None,
        };
        match pruned_by {
            Some(kind) => gr_trace::counter_keyed("solver.prunes", kind, 1),
            None => search(plan, ctx, asg, label + 1, solutions, stats, opts),
        }
        if solutions.len() >= opts.max_solutions {
            stats.truncated = true;
            return;
        }
        if stats.truncated {
            return;
        }
    }
}

/// Materializes the candidate set for `label`: the most selective
/// generating source (by [`Atom::estimate`]) is enumerated; the remaining
/// sources filter by membership in `search`. Returns the index of the
/// materialized source (its membership test is true by construction), or
/// `None` after the full `values(F)` fallback when no source can
/// generate.
fn generate_candidates(
    plan: &SearchPlan<'_>,
    ctx: &MatchCtx<'_>,
    asg: &[ValueId],
    label: usize,
) -> (Vec<ValueId>, Option<usize>) {
    let target = Label(label);
    let mut best: Option<(usize, usize, Resolved<'_, '_>)> = None;
    for (i, g) in plan.generators[label].iter().enumerate() {
        let Some((card, resolved)) = resolve_source(g, ctx, asg, target) else { continue };
        if best.as_ref().is_none_or(|(c, _, _)| card < *c) {
            best = Some((card, i, resolved));
        }
    }
    let chosen = best.as_ref().map(|(_, i, _)| *i);
    let mut out = match best {
        None => return (ctx.func.value_ids().collect(), None),
        Some((_, _, Resolved::Atom(a))) => {
            a.enumerate(ctx, asg, target).expect("estimate and enumerate agree")
        }
        Some((_, _, Resolved::Or(branches))) => {
            let mut union = Vec::new();
            let mut scratch = asg.to_vec();
            for (enumerator, filters) in branches {
                let cands =
                    enumerator.enumerate(ctx, asg, target).expect("estimate and enumerate agree");
                for v in cands {
                    scratch[target.index()] = v;
                    let ok = filters.iter().all(|a| a.check(ctx, &scratch));
                    if ok {
                        union.push(v);
                    }
                }
            }
            union
        }
    };
    out.sort_unstable();
    out.dedup();
    (out, chosen)
}

/// Resolves a generation source at the current node: estimated candidate
/// count plus what to materialize. `None` when the source cannot generate
/// here (it still acts as a checker through the normal paths).
fn resolve_source<'g, 's>(
    g: &'g Gen<'s>,
    ctx: &MatchCtx<'_>,
    asg: &[ValueId],
    target: Label,
) -> Option<(usize, Resolved<'g, 's>)> {
    match g {
        Gen::Atom(a) => a.estimate(ctx, asg, target).map(|c| (c, Resolved::Atom(a))),
        Gen::Or(branches) => {
            let mut total = 0usize;
            let mut picks = Vec::with_capacity(branches.len());
            for b in branches {
                let mut best: Option<(usize, &'s Atom)> = None;
                for a in &b.enumerators {
                    if let Some(card) = a.estimate(ctx, asg, target) {
                        if best.is_none_or(|(c, _)| card < c) {
                            best = Some((card, a));
                        }
                    }
                }
                let (card, a) = best?;
                total = total.saturating_add(card);
                picks.push((a, b.decidable.as_slice()));
            }
            Some((total, Resolved::Or(picks)))
        }
    }
}

/// Membership test against one generation source: equivalent to `v` being
/// in the source's materialized candidate set (the assignment already has
/// the candidate placed in the decided label's slot).
fn source_contains(g: &Gen<'_>, ctx: &MatchCtx<'_>, asg: &[ValueId]) -> bool {
    match g {
        Gen::Atom(a) => a.check(ctx, asg),
        Gen::Or(branches) => branches.iter().any(|b| b.decidable.iter().all(|a| a.check(ctx, asg))),
    }
}

/// Full evaluation: every label is assigned.
fn eval(c: &Constraint, ctx: &MatchCtx<'_>, asg: &[ValueId]) -> bool {
    match c {
        Constraint::Atom(a) => a.check(ctx, asg),
        Constraint::And(cs) => cs.iter().all(|c| eval(c, ctx, asg)),
        Constraint::Or(cs) => cs.iter().any(|c| eval(c, ctx, asg)),
    }
}

/// The naive exponential enumeration of §3.2 ("essentially just enumerate
/// all values in `values(F)^I` and filter"): kept as the ablation baseline.
/// Only use with tiny specs and functions.
#[must_use]
pub fn solve_naive(
    spec: &Spec,
    ctx: &MatchCtx<'_>,
    opts: SolveOptions,
) -> (Vec<Assignment>, SolveStats) {
    let n = spec.arity();
    let values: Vec<ValueId> = ctx.func.value_ids().collect();
    let mut solutions = Vec::new();
    let mut stats = SolveStats::default();
    let mut asg: Assignment = vec![ValueId(0); n];
    let mut idx = vec![0usize; n];
    'outer: loop {
        stats.steps += 1;
        if stats.steps >= opts.max_steps || solutions.len() >= opts.max_solutions {
            stats.truncated = true;
            break;
        }
        for (i, &j) in idx.iter().enumerate() {
            asg[i] = values[j];
        }
        if eval(&spec.root, ctx, &asg) {
            solutions.push(asg.clone());
            stats.solutions += 1;
        }
        // increment the mixed-radix counter
        for d in (0..n).rev() {
            idx[d] += 1;
            if idx[d] < values.len() {
                continue 'outer;
            }
            idx[d] = 0;
            if d == 0 {
                break 'outer;
            }
        }
        if n == 0 {
            break;
        }
    }
    (solutions, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms::OpClass;
    use crate::constraint::SpecBuilder;
    use gr_analysis::Analyses;
    use gr_frontend::compile;

    fn with_ctx<R>(src: &str, f: impl FnOnce(&MatchCtx<'_>) -> R) -> R {
        let m = compile(src).unwrap();
        let func = &m.functions[0];
        let analyses = Analyses::new(&m, func);
        let ctx = MatchCtx::new(&m, func, &analyses);
        f(&ctx)
    }

    const LOOP_SRC: &str =
        "float f(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }";

    /// load(gep(base, idx)) — a three-label mini idiom.
    fn load_spec() -> Spec {
        let mut b = SpecBuilder::new("load-of-gep");
        let load = b.label("load");
        let gep = b.label("gep");
        let base = b.label("base");
        b.atom(Atom::Opcode { l: load, class: OpClass::Load });
        b.atom(Atom::OperandIs { inst: load, index: 0, value: gep });
        b.atom(Atom::Opcode { l: gep, class: OpClass::Gep });
        b.atom(Atom::OperandIs { inst: gep, index: 0, value: base });
        b.finish()
    }

    #[test]
    fn finds_load_gep_chain() {
        with_ctx(LOOP_SRC, |ctx| {
            let spec = load_spec();
            let (sols, stats) = solve(&spec, ctx, SolveOptions::default());
            assert_eq!(sols.len(), 1);
            assert!(!stats.truncated);
            let base = sols[0][2];
            assert_eq!(base, ctx.func.arg_values[0]);
        });
    }

    #[test]
    fn matches_naive_solver_on_small_spec() {
        with_ctx(LOOP_SRC, |ctx| {
            let spec = load_spec();
            let (mut fast, _) = solve(&spec, ctx, SolveOptions::default());
            let (mut naive, _) = solve_naive(&spec, ctx, SolveOptions::default());
            fast.sort();
            naive.sort();
            assert_eq!(fast, naive, "backtracking and naive enumeration must agree");
        });
    }

    #[test]
    fn a_backwards_spec_is_searched_in_declaration_order() {
        // A deliberately backwards spec: the selective anchor (the single
        // gep) is declared *last*. Level 0 assigns `base`, which no atom
        // generates on its own, so it falls back to `values(F)` and every
        // value is a branching step; at most one gep survives below each,
        // which costs nothing. The naive solver enumerates in declaration
        // order too; the reported solutions, and the order they are
        // reported in, must be the same.
        with_ctx(LOOP_SRC, |ctx| {
            let mut b = SpecBuilder::new("backwards");
            let base = b.label("base");
            let gep = b.label("gep");
            b.atom(Atom::Opcode { l: gep, class: OpClass::Gep });
            b.atom(Atom::OperandIs { inst: gep, index: 0, value: base });
            let spec = b.finish();
            let (solved, stats) = solve(&spec, ctx, SolveOptions::default());
            let (declared, _) = solve_naive(&spec, ctx, SolveOptions::default());
            assert!(!solved.is_empty());
            assert_eq!(solved, declared, "the solver must report the naive solutions");
            assert_eq!(stats.steps, ctx.func.value_ids().count(), "label 0 searches values(F)");
        });
    }

    #[test]
    fn smart_solver_visits_far_fewer_nodes() {
        with_ctx(LOOP_SRC, |ctx| {
            let spec = load_spec();
            let (_, fast) = solve(&spec, ctx, SolveOptions::default());
            let (_, naive) = solve_naive(&spec, ctx, SolveOptions::default());
            assert!(fast.steps * 10 < naive.steps, "fast {} vs naive {}", fast.steps, naive.steps);
        });
    }

    #[test]
    fn forced_moves_cost_no_steps() {
        // One load, one gep, one base: every level of the chain has a
        // single surviving candidate, so the whole solve is propagation.
        with_ctx(LOOP_SRC, |ctx| {
            let spec = load_spec();
            let (sols, stats) = solve(&spec, ctx, SolveOptions::default());
            assert_eq!(sols.len(), 1);
            assert_eq!(stats.steps, 0, "a forced chain must be free, steps={}", stats.steps);
        });
    }

    #[test]
    fn or_constraints_enumerate_both_branches() {
        // value is either operand of a cmp: two solutions for the cmp in
        // the loop test.
        with_ctx(LOOP_SRC, |ctx| {
            let mut b = SpecBuilder::new("cmp-operand");
            let cmp = b.label("cmp");
            let v = b.label("v");
            b.atom(Atom::Opcode { l: cmp, class: OpClass::Cmp });
            b.any(vec![
                Constraint::Atom(Atom::OperandIs { inst: cmp, index: 0, value: v }),
                Constraint::Atom(Atom::OperandIs { inst: cmp, index: 1, value: v }),
            ]);
            let spec = b.finish();
            let (sols, stats) = solve(&spec, ctx, SolveOptions::default());
            assert_eq!(sols.len(), 2);
            // The disjunction generates: candidates for `v` are the two cmp
            // operands, not the full `values(F)` fallback.
            assert!(stats.steps < 10, "Or-union generation expected, steps={}", stats.steps);
        });
    }

    #[test]
    fn max_solutions_truncates() {
        with_ctx(LOOP_SRC, |ctx| {
            let mut b = SpecBuilder::new("any-value");
            let l = b.label("x");
            b.atom(Atom::NotEqual { a: l, b: l });
            // NotEqual(x, x) is always false: zero solutions, no truncation.
            let spec = b.finish();
            let (sols, stats) = solve(&spec, ctx, SolveOptions::default());
            assert!(sols.is_empty());
            assert!(!stats.truncated);

            let mut b = SpecBuilder::new("loop-insts");
            let h = b.label("header");
            let x = b.label("x");
            b.atom(Atom::IsLoopHeader(h));
            b.atom(Atom::InLoopInst { inst: x, header: h });
            let spec = b.finish();
            let (sols, stats) =
                solve(&spec, ctx, SolveOptions { max_solutions: 2, ..SolveOptions::default() });
            assert_eq!(sols.len(), 2);
            assert!(stats.truncated);
        });
    }

    #[test]
    fn generator_fallback_still_finds_solutions() {
        // A spec whose atoms cannot generate (Dominates, NotEqual): falls
        // back to enumerating all values.
        with_ctx(LOOP_SRC, |ctx| {
            let mut b = SpecBuilder::new("dom-pair");
            let x = b.label("x");
            let y = b.label("y");
            b.atom(Atom::Dominates { a: x, b: y });
            b.atom(Atom::NotEqual { a: x, b: y });
            let spec = b.finish();
            let (sols, _) = solve(&spec, ctx, SolveOptions::default());
            // entry strictly dominates all 4 others, header dominates 3, ...
            assert!(!sols.is_empty());
            for s in &sols {
                assert!(Atom::Dominates { a: x, b: y }.check(ctx, s));
                assert_ne!(s[x.index()], s[y.index()]);
            }
        });
    }

    #[test]
    fn equal_atom_pins_labels() {
        with_ctx(LOOP_SRC, |ctx| {
            let mut b = SpecBuilder::new("pinned");
            let load = b.label("load");
            let alias = b.label("alias");
            b.atom(Atom::Opcode { l: load, class: OpClass::Load });
            b.atom(Atom::Equal { a: alias, b: load });
            let spec = b.finish();
            let (sols, stats) = solve(&spec, ctx, SolveOptions::default());
            assert_eq!(sols.len(), 1);
            assert_eq!(sols[0][0], sols[0][1]);
            assert!(stats.steps <= 2, "Equal should generate, steps={}", stats.steps);
        });
    }

    #[test]
    fn extend_matches_full_solve_on_marked_prefix() {
        // A two-stage spec: prefix = load-of-gep chain, extension = the
        // gep's index value. The resumed search must agree with the full
        // solve exactly (solutions and steps decomposition) while skipping
        // the prefix steps. Two loads in the source make the prefix a
        // genuinely branching (and thus step-charging) sub-problem.
        const TWO_LOAD_SRC: &str = "float f(float* a, float* b, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i] + b[i]; return s; }";
        with_ctx(TWO_LOAD_SRC, |ctx| {
            let build = |mark: bool| {
                let mut b = SpecBuilder::new("load-of-gep-idx");
                let load = b.label("load");
                let gep = b.label("gep");
                let base = b.label("base");
                b.atom(Atom::Opcode { l: load, class: OpClass::Load });
                b.atom(Atom::OperandIs { inst: load, index: 0, value: gep });
                b.atom(Atom::Opcode { l: gep, class: OpClass::Gep });
                b.atom(Atom::OperandIs { inst: gep, index: 0, value: base });
                if mark {
                    b.mark_prefix();
                }
                let idx = b.label("idx");
                b.atom(Atom::OperandIs { inst: gep, index: 1, value: idx });
                b.finish()
            };
            let marked = build(true);
            let plain = build(false);
            let (full, full_stats) = solve(&plain, ctx, SolveOptions::default());
            let prefix = marked.prefix_spec().unwrap();
            let (pre_sols, pre_stats) = solve(&prefix, ctx, SolveOptions::default());
            assert_eq!(pre_sols.len(), 2);
            assert!(pre_stats.steps > 0, "two loads must branch the prefix");
            let (ext, ext_stats) = solve_extend(&marked, ctx, &pre_sols, SolveOptions::default());
            assert_eq!(ext, full, "resumed search must reproduce the full solve");
            assert!(
                ext_stats.steps < full_stats.steps,
                "extension steps {} must undercut full steps {}",
                ext_stats.steps,
                full_stats.steps
            );
            assert_eq!(pre_stats.steps + ext_stats.steps, full_stats.steps);
        });
    }

    #[test]
    fn prefix_fingerprints_identify_shared_prefixes() {
        let (a, _) = crate::spec::scalar_reduction_spec();
        let (b, _) = crate::spec::scan_spec();
        let pa = a.prefix.unwrap();
        let pb = b.prefix.unwrap();
        assert_eq!(pa.fingerprint, pb.fingerprint, "both extend the same for-loop prefix");
        assert_eq!(pa.labels, pb.labels);
        let (fl, _) = crate::spec::for_loop_spec();
        assert_eq!(fl.arity(), pa.labels);
    }
}
