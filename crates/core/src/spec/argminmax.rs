//! The argmin/argmax idiom: a conditional minimum or maximum with a
//! carried argument index, in either of its two source shapes —
//!
//! ```c
//! // diamond (branch-and-phi):
//! for (int i = 0; i < n; i++) {
//!     float v = a[i];
//!     if (v < best) { best = v; besti = i; }
//! }
//! // select (ternary):
//! for (int i = 0; i < n; i++) {
//!     float v = a[i];
//!     besti = v < best ? i : besti;
//!     best  = v < best ? v : best;
//! }
//! ```
//!
//! Neither carried value is a legal scalar reduction on its own — the
//! paper's kmeans discussion makes the point: privatizing `best` alone
//! corrupts `besti`, and `besti`'s update reads the induction variable
//! directly. As a *pair* the exchange is exploitable: each thread keeps a
//! privatized `(value, index)` pair and the merge replays the exchange
//! predicate across block partials in iteration order, reproducing the
//! sequential tie-break exactly (strict comparisons keep the first
//! extremum, non-strict the last).
//!
//! On top of the for-loop structure the specification binds the shared
//! core of both shapes:
//!
//! * `val` / `val_init` / `val_next` — the extremum carried by the header,
//!   its preheader incoming, and the per-iteration producer (a two-arm
//!   merge phi in the diamond shape, a `select` in the select shape),
//! * `idx` / `idx_init` / `idx_next` — the companion index pair, updated
//!   in lockstep by the *same* decision,
//! * `cand` — the candidate, computed only from inputs and invariants,
//! * `cmp` — the exchange test `cmp(cand, val)` (either operand order),
//!
//! and then a **disjunction over the two shapes**: the diamond branch adds
//! the `branch`/`cond_blk`/`taken`/`skip` control skeleton with the phi
//! incomings, while the select branch requires both producers to be
//! selects steered by comparisons of `cand` against `val` (the index
//! select may reuse `cmp` or carry its own syntactic copy, `icmp`) and
//! pins the diamond-only block labels with [`Atom::Equal`] so every label
//! stays generator-friendly. Confinement (the extremum leaks only into its
//! own exchange, the index only into its merge) is expressed per shape.
//!
//! The post-check normalizes the predicate direction and strictness for
//! whichever shape matched and cross-validates it against the
//! associativity classifier's min/max verdict.

use crate::atoms::{Atom, MatchCtx, OpClass};
use crate::constraint::{Constraint, Label, Spec, SpecBuilder};
use crate::postcheck::{
    classify_update, exchange_op, normalized_exchange_pred, normalized_select_pred,
};
use crate::report::{Reduction, ReductionKind, ReductionOp};
use crate::spec::forloop::{add_for_loop, ForLoopLabels};
use crate::spec::registry::IdiomEntry;
use gr_ir::{CmpPred, Opcode, ValueId};

/// Labels of the argmin/argmax idiom.
#[derive(Debug, Clone, Copy)]
pub struct ArgMinMaxLabels {
    /// The for-loop sub-idiom.
    pub for_loop: ForLoopLabels,
    /// Extremum phi in the header.
    pub val: Label,
    /// Extremum entering the loop.
    pub val_init: Label,
    /// Per-iteration extremum producer (merge phi or select).
    pub val_next: Label,
    /// Index phi in the header.
    pub idx: Label,
    /// Index entering the loop.
    pub idx_init: Label,
    /// Per-iteration index producer (merge phi or select).
    pub idx_next: Label,
    /// The candidate value.
    pub cand: Label,
    /// The exchange comparison.
    pub cmp: Label,
    /// The index producer's comparison (select shape; pinned to `cmp` in
    /// the diamond shape).
    pub icmp: Label,
    /// The conditional branch steered by the comparison (diamond; pinned
    /// to `val_next` in the select shape).
    pub branch: Label,
    /// Block hosting the comparison's branch (diamond; pinned to `merge`).
    pub cond_blk: Label,
    /// Block merging the two arms (block of both producers).
    pub merge: Label,
    /// Block performing the exchange (diamond; pinned to `val_next`).
    pub taken: Label,
    /// Block keeping the carried pair (diamond; pinned to `idx_next`).
    pub skip: Label,
}

/// Builds the argmin/argmax specification.
#[must_use]
pub fn argminmax_spec() -> (Spec, ArgMinMaxLabels) {
    let mut b = SpecBuilder::new("argmin-argmax");
    let fl = add_for_loop(&mut b);

    let val = b.label("val");
    let val_next = b.label("val_next");
    let val_init = b.label("val_init");
    let merge = b.label("merge");
    let idx_next = b.label("idx_next");
    let idx = b.label("idx");
    let idx_init = b.label("idx_init");
    let cmp = b.label("cmp");
    let cand = b.label("cand");
    let icmp = b.label("icmp");
    let branch = b.label("branch");
    let cond_blk = b.label("cond_blk");
    let taken = b.label("taken");
    let skip = b.label("skip");

    // The extremum: a carried header phi, as in the scalar idiom.
    b.atom(Atom::BlockOf { inst: val, block: fl.header });
    b.atom(Atom::Opcode { l: val, class: OpClass::Phi });
    b.atom(Atom::TypeScalar(val));
    b.atom(Atom::NotEqual { a: val, b: fl.iterator });
    b.atom(Atom::PhiIncoming { phi: val, value: val_next, block: fl.latch });
    b.atom(Atom::NotEqual { a: val_next, b: val });
    b.atom(Atom::PhiIncoming { phi: val, value: val_init, block: fl.preheader });

    // Its per-iteration producer lives in a loop block shared with the
    // index producer (`merge` — the phi block in the diamond shape, the
    // selects' block in the select shape).
    b.atom(Atom::BlockOf { inst: val_next, block: merge });
    b.atom(Atom::InLoopBlock { block: merge, header: fl.header });
    b.atom(Atom::BlockOf { inst: idx_next, block: merge });
    b.atom(Atom::TypeInt(idx_next));
    b.atom(Atom::NotEqual { a: idx_next, b: val_next });

    // The companion index feeds a second carried header phi.
    b.atom(Atom::BlockOf { inst: idx, block: fl.header });
    b.atom(Atom::PhiIncoming { phi: idx, value: idx_next, block: fl.latch });
    b.atom(Atom::PhiIncoming { phi: idx, value: idx_init, block: fl.preheader });

    // The exchange comparison tests the candidate against the carried
    // value (either operand order).
    b.atom(Atom::Opcode { l: cmp, class: OpClass::Cmp });
    b.any(vec![
        Constraint::And(vec![
            Constraint::Atom(Atom::OperandIs { inst: cmp, index: 0, value: cand }),
            Constraint::Atom(Atom::OperandIs { inst: cmp, index: 1, value: val }),
        ]),
        Constraint::And(vec![
            Constraint::Atom(Atom::OperandIs { inst: cmp, index: 0, value: val }),
            Constraint::Atom(Atom::OperandIs { inst: cmp, index: 1, value: cand }),
        ]),
    ]);
    // The candidate must not depend on the carried pair: inputs, loop
    // constants, and the iterator inside address computations only.
    b.atom(Atom::ComputedOnlyFrom {
        output: cand,
        header: fl.header,
        iterator: fl.iterator,
        allowed: vec![],
    });

    // The two shapes. Every diamond-only label is pinned by `Equal` in the
    // select branch, so each branch can generate candidates for every
    // label and the disjunction stays solver-friendly (the Or-union
    // generators of `solver`).
    let diamond = Constraint::And(vec![
        // Both producers are two-arm merge phis…
        Constraint::Atom(Atom::Opcode { l: val_next, class: OpClass::Phi }),
        Constraint::Atom(Atom::PhiArity { phi: val_next, n: 2 }),
        Constraint::Atom(Atom::Opcode { l: idx_next, class: OpClass::Phi }),
        Constraint::Atom(Atom::PhiArity { phi: idx_next, n: 2 }),
        Constraint::Atom(Atom::Equal { a: icmp, b: cmp }),
        // …selected by the branch steered by the comparison, deciding
        // between the exchange arm (`taken`) and the keep arm (`skip`).
        Constraint::Atom(Atom::OperandIs { inst: branch, index: 0, value: cmp }),
        Constraint::Atom(Atom::Opcode { l: branch, class: OpClass::CondBr }),
        Constraint::Atom(Atom::BlockOf { inst: branch, block: cond_blk }),
        Constraint::Atom(Atom::InLoopBlock { block: cond_blk, header: fl.header }),
        Constraint::Atom(Atom::PhiIncoming { phi: val_next, value: cand, block: taken }),
        Constraint::Atom(Atom::PhiIncoming { phi: val_next, value: val, block: skip }),
        Constraint::Atom(Atom::OperandOf { inst: branch, value: taken }),
        Constraint::Atom(Atom::OperandOf { inst: branch, value: skip }),
        Constraint::Atom(Atom::CfgEdge { from: cond_blk, to: taken }),
        Constraint::Atom(Atom::CfgEdge { from: cond_blk, to: skip }),
        Constraint::Atom(Atom::CfgEdge { from: taken, to: merge }),
        Constraint::Atom(Atom::CfgEdge { from: skip, to: merge }),
        // The index phi exchanges in lockstep, taking the loop iterator.
        Constraint::Atom(Atom::PhiIncoming { phi: idx_next, value: idx, block: skip }),
        Constraint::Atom(Atom::PhiIncoming { phi: idx_next, value: fl.iterator, block: taken }),
        // Privatization safety: the extremum feeds only its comparison and
        // the exchange phis (the index merge phi is the sanctioned
        // terminal); the index feeds nothing but its own merge.
        Constraint::Atom(Atom::UsesConfinedTo {
            source: val,
            header: fl.header,
            terminals: vec![idx_next],
        }),
        Constraint::Atom(Atom::UsesConfinedTo {
            source: idx,
            header: fl.header,
            terminals: vec![],
        }),
    ]);
    let select = Constraint::And(vec![
        // Both producers are selects steered by comparisons of the
        // candidate against the carried value. The index select may reuse
        // the value comparison or carry its own syntactic copy (`icmp`).
        Constraint::Atom(Atom::Opcode { l: val_next, class: OpClass::Select }),
        Constraint::Atom(Atom::Opcode { l: idx_next, class: OpClass::Select }),
        Constraint::Atom(Atom::OperandIs { inst: val_next, index: 0, value: cmp }),
        Constraint::Atom(Atom::Opcode { l: icmp, class: OpClass::Cmp }),
        Constraint::Atom(Atom::OperandIs { inst: idx_next, index: 0, value: icmp }),
        Constraint::Or(vec![
            Constraint::And(vec![
                Constraint::Atom(Atom::OperandIs { inst: icmp, index: 0, value: cand }),
                Constraint::Atom(Atom::OperandIs { inst: icmp, index: 1, value: val }),
            ]),
            Constraint::And(vec![
                Constraint::Atom(Atom::OperandIs { inst: icmp, index: 0, value: val }),
                Constraint::Atom(Atom::OperandIs { inst: icmp, index: 1, value: cand }),
            ]),
        ]),
        // Value arms: {cand, val} in either orientation…
        Constraint::Or(vec![
            Constraint::And(vec![
                Constraint::Atom(Atom::OperandIs { inst: val_next, index: 1, value: cand }),
                Constraint::Atom(Atom::OperandIs { inst: val_next, index: 2, value: val }),
            ]),
            Constraint::And(vec![
                Constraint::Atom(Atom::OperandIs { inst: val_next, index: 1, value: val }),
                Constraint::Atom(Atom::OperandIs { inst: val_next, index: 2, value: cand }),
            ]),
        ]),
        // …index arms: {iterator, idx} likewise (the post-check verifies
        // the two selections agree on the normalized predicate).
        Constraint::Or(vec![
            Constraint::And(vec![
                Constraint::Atom(Atom::OperandIs { inst: idx_next, index: 1, value: fl.iterator }),
                Constraint::Atom(Atom::OperandIs { inst: idx_next, index: 2, value: idx }),
            ]),
            Constraint::And(vec![
                Constraint::Atom(Atom::OperandIs { inst: idx_next, index: 1, value: idx }),
                Constraint::Atom(Atom::OperandIs { inst: idx_next, index: 2, value: fl.iterator }),
            ]),
        ]),
        // Pin the diamond-only labels: there is no control diamond.
        Constraint::Atom(Atom::Equal { a: branch, b: val_next }),
        Constraint::Atom(Atom::Equal { a: cond_blk, b: merge }),
        Constraint::Atom(Atom::Equal { a: taken, b: val_next }),
        Constraint::Atom(Atom::Equal { a: skip, b: idx_next }),
        // Confinement: the extremum's forward closure runs through the
        // index select into the index phi — both are the sanctioned pair.
        Constraint::Atom(Atom::UsesConfinedTo {
            source: val,
            header: fl.header,
            terminals: vec![idx_next, idx],
        }),
        Constraint::Atom(Atom::UsesConfinedTo {
            source: idx,
            header: fl.header,
            terminals: vec![],
        }),
    ]);
    b.any(vec![diamond, select]);

    (
        b.finish(),
        ArgMinMaxLabels {
            for_loop: fl,
            val,
            val_init,
            val_next,
            idx,
            idx_init,
            idx_next,
            cand,
            cmp,
            icmp,
            branch,
            cond_blk,
            merge,
            taken,
            skip,
        },
    )
}

/// The argmin/argmax idiom's registry entry.
#[must_use]
pub fn idiom() -> IdiomEntry {
    let (spec, _) = argminmax_spec();
    IdiomEntry::new("argmin-argmax", spec, anchor, post_check, classify).with_finalize(finalize)
}

fn anchor(spec: &Spec, s: &[ValueId]) -> (ValueId, ValueId) {
    (s[spec.label("val").index()], s[spec.label("idx").index()])
}

/// The normalized exchange predicate of a surviving assignment, for
/// whichever of the two shapes it bound ("the candidate replaces the pair
/// when `cand PRED val`").
fn exchange_pred(ctx: &MatchCtx<'_>, spec: &Spec, s: &[ValueId]) -> Option<CmpPred> {
    let func = ctx.func;
    let val = s[spec.label("val").index()];
    let val_next = s[spec.label("val_next").index()];
    let cand = s[spec.label("cand").index()];
    if func.value(val_next).kind.opcode() == Some(&Opcode::Select) {
        let pred = normalized_select_pred(func, val_next, cand, val, cand, val)?;
        // The index select must exchange in lockstep: same normalized
        // predicate, iterator on the exchange arm.
        let idx_next = s[spec.label("idx_next").index()];
        let iterator = s[spec.label("iterator").index()];
        let idx = s[spec.label("idx").index()];
        let ipred = normalized_select_pred(func, idx_next, cand, val, iterator, idx)?;
        (pred == ipred).then_some(pred)
    } else {
        let taken = ctx.as_block(s[spec.label("taken").index()])?;
        normalized_exchange_pred(
            func,
            s[spec.label("cmp").index()],
            cand,
            val,
            s[spec.label("branch").index()],
            taken,
        )
    }
}

/// Post-check: normalize the exchange predicate, require it to be an
/// ordering test, and cross-check against the associativity classifier's
/// verdict on the value chain.
fn post_check(ctx: &MatchCtx<'_>, spec: &Spec, s: &[ValueId]) -> Option<ReductionOp> {
    let func = ctx.func;
    let header = s[spec.label("header").index()];
    let lid = ctx.loop_of_header(header)?;
    let val = s[spec.label("val").index()];
    let val_next = s[spec.label("val_next").index()];
    let chain_op = classify_update(func, ctx.analyses, lid, val, val_next)?;
    if !matches!(chain_op, ReductionOp::Min | ReductionOp::Max) {
        return None;
    }
    let pred = exchange_pred(ctx, spec, s)?;
    (exchange_op(pred) == Some(chain_op)).then_some(chain_op)
}

fn classify(ctx: &MatchCtx<'_>, spec: &Spec, s: &[ValueId], op: ReductionOp) -> Option<Reduction> {
    let header = s[spec.label("header").index()];
    let lid = ctx.loop_of_header(header)?;
    let iterator = s[spec.label("iterator").index()];
    let val = s[spec.label("val").index()];
    let cand = s[spec.label("cand").index()];
    // Degenerate filter, as for scalars: the candidate must consume at
    // least one memory read (an extremum over closed-form values is
    // strength-reducible, not worth privatizing).
    let walk = crate::detect::update_walk(ctx, lid, iterator, &[], cand);
    if walk.loads.is_empty() {
        return None;
    }
    let affine = crate::detect::loads_affine(ctx, lid, iterator, &walk.loads);
    let pred = exchange_pred(ctx, spec, s)?;
    let l = ctx.analyses.loops.get(lid);
    Some(Reduction {
        function: ctx.func.name.clone(),
        kind: match op {
            ReductionOp::Min => ReductionKind::ArgMin,
            _ => ReductionKind::ArgMax,
        },
        op,
        header: l.header,
        depth: l.depth,
        anchor: val,
        object: None,
        affine,
        arg_pred: Some(pred),
        bindings: crate::detect::bindings(&spec.label_names, s),
    })
}

/// One report per extremum phi: a value paired with several index phis
/// cannot be exploited as independent pairs (keep the first).
fn finalize(_: &MatchCtx<'_>, mut rs: Vec<Reduction>) -> Vec<Reduction> {
    let mut seen: Vec<ValueId> = Vec::new();
    rs.retain(|r| {
        if seen.contains(&r.anchor) {
            false
        } else {
            seen.push(r.anchor);
            true
        }
    });
    rs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{solve, SolveOptions};
    use gr_analysis::Analyses;
    use gr_frontend::compile;
    use std::collections::HashSet;

    /// Distinct (function, val, idx) triples matched by the raw spec.
    fn pairs_found(src: &str) -> usize {
        let m = compile(src).unwrap();
        let mut found = HashSet::new();
        for func in &m.functions {
            let analyses = Analyses::new(&m, func);
            let ctx = MatchCtx::new(&m, func, &analyses);
            let (spec, labels) = argminmax_spec();
            let (sols, stats) = solve(&spec, &ctx, SolveOptions::default());
            assert!(!stats.truncated, "solver truncated on {}", func.name);
            for s in sols {
                found.insert((func.name.clone(), s[labels.val.index()], s[labels.idx.index()]));
            }
        }
        found.len()
    }

    #[test]
    fn finds_strict_argmin() {
        assert_eq!(
            pairs_found(
                "int amin(float* a, int n) {
                     float best = 1.0e30;
                     int bi = 0;
                     for (int i = 0; i < n; i++) {
                         float v = a[i];
                         if (v < best) { best = v; bi = i; }
                     }
                     return bi;
                 }"
            ),
            1
        );
    }

    #[test]
    fn finds_non_strict_argmax() {
        assert_eq!(
            pairs_found(
                "int amax(float* a, int n) {
                     float best = -1.0e30;
                     int bi = 0;
                     for (int i = 0; i < n; i++) {
                         float v = a[i];
                         if (v >= best) { best = v; bi = i; }
                     }
                     return bi;
                 }"
            ),
            1
        );
    }

    #[test]
    fn finds_argmin_with_computed_candidate() {
        // The candidate is an expression over inputs, not a bare load.
        assert_eq!(
            pairs_found(
                "int close(float* a, float x, int n) {
                     float best = 1.0e30;
                     int bi = 0;
                     for (int i = 0; i < n; i++) {
                         float d = fabs(a[i] - x);
                         if (d < best) { best = d; bi = i; }
                     }
                     return bi;
                 }"
            ),
            1
        );
    }

    #[test]
    fn finds_swapped_operand_order() {
        // `best > a[i]` instead of `a[i] < best`.
        assert_eq!(
            pairs_found(
                "int amin(float* a, int n) {
                     float best = 1.0e30;
                     int bi = 0;
                     for (int i = 0; i < n; i++) {
                         float v = a[i];
                         if (best > v) { best = v; bi = i; }
                     }
                     return bi;
                 }"
            ),
            1
        );
    }

    #[test]
    fn finds_select_based_argmin() {
        // The ternary form lowers to a pair of selects, not a diamond.
        assert_eq!(
            pairs_found(
                "int amin(float* a, int n) {
                     float best = 1.0e30;
                     int bi = 0;
                     for (int i = 0; i < n; i++) {
                         float v = a[i];
                         bi = v < best ? i : bi;
                         best = v < best ? v : best;
                     }
                     return bi;
                 }"
            ),
            1
        );
    }

    #[test]
    fn finds_select_based_argmax_with_swapped_arms() {
        // `best > v ? best : v` keeps the maximum through the false arm.
        assert_eq!(
            pairs_found(
                "int amax(float* a, int n) {
                     float best = -1.0e30;
                     int bi = 0;
                     for (int i = 0; i < n; i++) {
                         float v = a[i];
                         bi = best > v ? bi : i;
                         best = best > v ? best : v;
                     }
                     return bi;
                 }"
            ),
            1
        );
    }

    #[test]
    fn select_argmin_detected_end_to_end() {
        let m = compile(
            "int amin(float* a, int n) {
                 float best = 1.0e30;
                 int bi = 0;
                 for (int i = 0; i < n; i++) {
                     float v = a[i];
                     bi = v < best ? i : bi;
                     best = v < best ? v : best;
                 }
                 return bi;
             }",
        )
        .unwrap();
        let rs = crate::detect::detect_reductions(&m);
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(rs[0].kind, ReductionKind::ArgMin);
        assert_eq!(rs[0].arg_pred, Some(CmpPred::Lt), "strict keeps the first extremum");
    }

    #[test]
    fn select_with_disagreeing_conditions_rejected() {
        // The index select exchanges on a different predicate than the
        // value select: the lockstep cross-check refuses the pair.
        let m = compile(
            "int f(float* a, int n) {
                 float best = 1.0e30;
                 int bi = 0;
                 for (int i = 0; i < n; i++) {
                     float v = a[i];
                     bi = v > best ? i : bi;
                     best = v < best ? v : best;
                 }
                 return bi;
             }",
        )
        .unwrap();
        assert!(crate::detect::detect_reductions(&m).iter().all(|r| !r.kind.is_arg()));
    }

    #[test]
    fn rejects_plain_conditional_min_without_index() {
        // A lone conditional min is a scalar reduction, not an argmin.
        assert_eq!(
            pairs_found(
                "float f(float* a, int n) {
                     float m = 1.0e30;
                     for (int i = 0; i < n; i++) { float v = a[i]; if (v < m) m = v; }
                     return m;
                 }"
            ),
            0
        );
    }

    #[test]
    fn rejects_index_not_exchanged_with_iterator() {
        // The index arm records a transformed value, not the iterator.
        assert_eq!(
            pairs_found(
                "int f(float* a, int n) {
                     float best = 1.0e30;
                     int bi = 0;
                     for (int i = 0; i < n; i++) {
                         float v = a[i];
                         if (v < best) { best = v; bi = 2 * i; }
                     }
                     return bi;
                 }"
            ),
            0
        );
    }

    #[test]
    fn rejects_candidate_depending_on_carried_value() {
        // cand reads the extremum: not an exchange.
        assert_eq!(
            pairs_found(
                "int f(float* a, int n) {
                     float best = 1.0e30;
                     int bi = 0;
                     for (int i = 0; i < n; i++) {
                         float v = a[i] + best;
                         if (v < best) { best = v; bi = i; }
                     }
                     return bi;
                 }"
            ),
            0
        );
    }

    #[test]
    fn rejects_extremum_leaking_into_other_state() {
        // The exchange also bumps an unrelated accumulator under the same
        // branch: `best` now influences foreign carried state.
        assert_eq!(
            pairs_found(
                "int f(float* a, float* out, int n) {
                     float best = 1.0e30;
                     int bi = 0;
                     for (int i = 0; i < n; i++) {
                         float v = a[i];
                         if (v < best) { best = v; bi = i; out[0] = best; }
                     }
                     return bi;
                 }"
            ),
            0
        );
    }

    #[test]
    fn equality_test_passes_spec_but_fails_post_check() {
        // `==` binds structurally; the post-check rejects it because an
        // equality exchange is no ordering (and `classify_update` never
        // reports min/max for it).
        let src = "int f(float* a, int n) {
                     float best = 1.0e30;
                     int bi = 0;
                     for (int i = 0; i < n; i++) {
                         float v = a[i];
                         if (v == best) { best = v; bi = i; }
                     }
                     return bi;
                 }";
        let m = compile(src).unwrap();
        assert!(crate::detect::detect_reductions(&m).iter().all(|r| !r.kind.is_arg()));
    }

    #[test]
    fn kmeans_inner_assignment_is_an_argmin() {
        // The kmeans membership search: the candidate is itself an inner
        // dot-product accumulation — generalized dominance admits it.
        assert_eq!(
            pairs_found(
                "int assign(float* pts, float* centers, int k, int d, int p) {
                     float bestd = 1.0e30;
                     int best = 0;
                     for (int c = 0; c < k; c++) {
                         float dist = 0.0;
                         for (int j = 0; j < d; j++) {
                             float t = pts[p * d + j] - centers[c * d + j];
                             dist += t * t;
                         }
                         if (dist < bestd) { bestd = dist; best = c; }
                     }
                     return best;
                 }"
            ),
            1
        );
    }
}
