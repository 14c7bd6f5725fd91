//! The scalar-reduction idiom (paper §3.1.1).
//!
//! Composed as `for-loop ⨯ extension`: [`add_for_loop`] marks the loop
//! skeleton as the spec's shared prefix, so detection solves it once per
//! function and this idiom pays only for the three accumulator labels
//! below (see [`crate::spec::registry`]).
//!
//! On top of the for-loop structure, a scalar reduction binds:
//!
//! * `acc` — a header phi distinct from the induction variable (condition
//!   2: "a scalar value x that is updated in every iteration"; conditional
//!   source-level updates still update the phi every iteration through the
//!   merge, exactly as the paper notes about PHI nodes in SSA),
//! * `acc_init` — its preheader incoming,
//! * `acc_next` — its latch incoming, constrained by *generalized graph
//!   domination* to be computed only from `acc`, array reads, and
//!   loop-invariant values (conditions 3 and 4),
//! * a forward-confinement constraint: inside the loop, `acc` feeds nothing
//!   but pure scalar computation — no stores, no branches, no addresses —
//!   so privatizing it cannot change any other observable behaviour (this
//!   is what rejects the paper's `t1 <= sx` counterexample).

use crate::atoms::{Atom, MatchCtx, OpClass};
use crate::constraint::{Label, Spec, SpecBuilder};
use crate::postcheck::classify_update;
use crate::report::{Reduction, ReductionKind, ReductionOp};
use crate::spec::forloop::{add_for_loop, ForLoopLabels};
use crate::spec::registry::IdiomEntry;
use gr_ir::ValueId;

/// Labels of the scalar-reduction idiom.
#[derive(Debug, Clone, Copy)]
pub struct ScalarLabels {
    /// The for-loop sub-idiom.
    pub for_loop: ForLoopLabels,
    /// Accumulator phi in the header.
    pub acc: Label,
    /// Accumulator value entering the loop.
    pub acc_init: Label,
    /// Accumulator value produced by each iteration.
    pub acc_next: Label,
}

/// Builds the scalar-reduction specification.
#[must_use]
pub fn scalar_reduction_spec() -> (Spec, ScalarLabels) {
    let mut b = SpecBuilder::new("scalar-reduction");
    let fl = add_for_loop(&mut b);

    let acc = b.label("acc");
    let acc_next = b.label("acc_next");
    let acc_init = b.label("acc_init");

    b.atom(Atom::BlockOf { inst: acc, block: fl.header });
    b.atom(Atom::Opcode { l: acc, class: OpClass::Phi });
    b.atom(Atom::TypeScalar(acc));

    b.atom(Atom::PhiIncoming { phi: acc, value: acc_next, block: fl.latch });
    b.atom(Atom::PhiIncoming { phi: acc, value: acc_init, block: fl.preheader });

    // Condition 4: x' is a term of x, array values and loop constants only
    // (the induction variable is admitted inside array index computations).
    b.atom(Atom::ComputedOnlyFrom {
        output: acc_next,
        header: fl.header,
        iterator: fl.iterator,
        allowed: vec![acc],
    });
    // Privatization safety: x influences nothing but its own update chain.
    b.atom(Atom::UsesConfinedTo { source: acc, header: fl.header, terminals: vec![] });

    (b.finish(), ScalarLabels { for_loop: fl, acc, acc_init, acc_next })
}

/// The scalar-reduction idiom's registry entry.
#[must_use]
pub fn idiom() -> IdiomEntry {
    let (spec, _) = scalar_reduction_spec();
    IdiomEntry::new("scalar-reduction", spec, anchor, post_check, classify)
        .with_finalize(crate::detect::dedup_nested_scalars)
}

fn anchor(spec: &Spec, s: &[ValueId]) -> (ValueId, ValueId) {
    (s[spec.label("header").index()], s[spec.label("acc").index()])
}

/// Post-check: associativity of the update chain (the paper performs this
/// outside the constraint language).
fn post_check(ctx: &MatchCtx<'_>, spec: &Spec, s: &[ValueId]) -> Option<ReductionOp> {
    let lid = ctx.loop_of_header(s[spec.label("header").index()])?;
    let acc = s[spec.label("acc").index()];
    let acc_next = s[spec.label("acc_next").index()];
    classify_update(ctx.func, ctx.analyses, lid, acc, acc_next)
}

fn classify(ctx: &MatchCtx<'_>, spec: &Spec, s: &[ValueId], op: ReductionOp) -> Option<Reduction> {
    let lid = ctx.loop_of_header(s[spec.label("header").index()])?;
    let acc = s[spec.label("acc").index()];
    let acc_next = s[spec.label("acc_next").index()];
    let iterator = s[spec.label("iterator").index()];
    // Degenerate-accumulation filter: the update must consume at least
    // one memory read (otherwise it is a closed-form accumulation over
    // invariants — e.g. a secondary induction variable — which is
    // strength-reducible, not a reduction worth privatizing).
    let walk = crate::detect::update_walk(ctx, lid, iterator, &[acc], acc_next);
    if walk.loads.is_empty() {
        return None;
    }
    let affine = crate::detect::loads_affine(ctx, lid, iterator, &walk.loads);
    let l = ctx.analyses.loops.get(lid);
    Some(Reduction {
        function: ctx.func.name.clone(),
        kind: ReductionKind::Scalar,
        op,
        header: l.header,
        depth: l.depth,
        anchor: acc,
        object: None,
        affine,
        arg_pred: None,
        bindings: crate::detect::bindings(&spec.label_names, s),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms::MatchCtx;
    use crate::solver::{solve, SolveOptions};
    use gr_analysis::Analyses;
    use gr_frontend::compile;
    use std::collections::HashSet;

    /// Distinct (function, header, acc) triples matched by the spec.
    fn accs_found(src: &str) -> usize {
        let m = compile(src).unwrap();
        let mut found = HashSet::new();
        for func in &m.functions {
            let analyses = Analyses::new(&m, func);
            let ctx = MatchCtx::new(&m, func, &analyses);
            let (spec, labels) = scalar_reduction_spec();
            let (sols, stats) = solve(&spec, &ctx, SolveOptions::default());
            assert!(!stats.truncated, "solver truncated on {}", func.name);
            for s in sols {
                found.insert((
                    func.name.clone(),
                    s[labels.for_loop.header.index()],
                    s[labels.acc.index()],
                ));
            }
        }
        found.len()
    }

    #[test]
    fn finds_simple_sum() {
        assert_eq!(
            accs_found(
                "float f(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }"
            ),
            1
        );
    }

    #[test]
    fn finds_two_accumulators_in_one_loop() {
        assert_eq!(
            accs_found(
                "void f(float* a, float* out, int n) {
                     float sx = 0.0; float sy = 0.0;
                     for (int i = 0; i < n; i++) { sx += a[2*i]; sy += a[2*i+1]; }
                     out[0] = sx; out[1] = sy;
                 }"
            ),
            2
        );
    }

    #[test]
    fn finds_conditionally_updated_accumulator() {
        assert_eq!(
            accs_found(
                "float f(float* a, int n) {
                     float s = 0.0;
                     for (int i = 0; i < n; i++) { if (a[i] > 0.0) s += a[i]; }
                     return s;
                 }"
            ),
            1
        );
    }

    #[test]
    fn self_gated_sum_passes_spec_but_fails_postcheck() {
        // The accumulator legally appears in its own guarding condition at
        // the *specification* level (min/max exchanges need this); the
        // associativity post-check is what rejects the non-exchange `if
        // (a[i] <= s) s += a[i]` pattern — verified in `detect` tests.
        assert_eq!(
            accs_found(
                "float f(float* a, int n) {
                     float s = 0.0;
                     for (int i = 0; i < n; i++) { if (a[i] <= s) s += a[i]; }
                     return s;
                 }"
            ),
            1
        );
    }

    #[test]
    fn rejects_accumulator_stored_to_memory_each_iteration() {
        assert_eq!(
            accs_found(
                "void f(float* a, float* trace, int n) {
                     float s = 0.0;
                     for (int i = 0; i < n; i++) { s += a[i]; trace[i] = s; }
                 }"
            ),
            0
        );
    }

    #[test]
    fn rejects_accumulator_used_as_index() {
        assert_eq!(
            accs_found(
                "int f(int* a, int* b, int n) {
                     int s = 0;
                     for (int i = 0; i < n; i++) { s += b[s]; }
                     return s;
                 }"
            ),
            0
        );
    }

    #[test]
    fn finds_reduction_with_pure_calls() {
        // EP-style: sqrt/log are pure, so this is still a reduction.
        assert_eq!(
            accs_found(
                "float f(float* x, int nk) {
                     float sx = 0.0;
                     for (int i = 0; i < nk; i++) {
                         float x1 = 2.0 * x[2*i] - 1.0;
                         float x2 = 2.0 * x[2*i+1] - 1.0;
                         float t1 = x1*x1 + x2*x2;
                         if (t1 <= 1.0) {
                             float t2 = sqrt(-2.0 * log(t1) / t1);
                             sx = sx + x1 * t2;
                         }
                     }
                     return sx;
                 }"
            ),
            1
        );
    }

    #[test]
    fn rejects_coupled_accumulators() {
        // sy's update reads sx, so neither privatizes independently:
        // sx fails forward confinement, sy fails generalized dominance.
        assert_eq!(
            accs_found(
                "void f(float* a, float* out, int n) {
                     float sx = 0.0; float sy = 0.0;
                     for (int i = 0; i < n; i++) { sx += a[i]; sy += sx; }
                     out[0] = sx; out[1] = sy;
                 }"
            ),
            0
        );
    }

    #[test]
    fn finds_min_reduction_via_call() {
        assert_eq!(
            accs_found(
                "float f(float* a, int n) {
                     float lo = 1.0e30;
                     for (int i = 0; i < n; i++) lo = fmin(lo, a[i]);
                     return lo;
                 }"
            ),
            1
        );
    }

    #[test]
    fn finds_min_reduction_via_conditional() {
        assert_eq!(
            accs_found(
                "float f(float* a, int n) {
                     float lo = 1.0e30;
                     for (int i = 0; i < n; i++) { float v = a[i]; if (v < lo) lo = v; }
                     return lo;
                 }"
            ),
            1
        );
    }

    #[test]
    fn rejects_histogram_as_scalar() {
        // The histogram update has no scalar header phi.
        assert_eq!(
            accs_found(
                "void h(int* bins, int* k, int n) { for (int i = 0; i < n; i++) bins[k[i]]++; }"
            ),
            0
        );
    }
}
