//! The speculative-fold idiom: `fold-until-sentinel`, a loop that *both*
//! accumulates a scalar and breaks early, built on the shared
//! [`for-loop-early-exit`](crate::spec::earlyexit) prefix.
//!
//! ```c
//! // sum-until-sentinel: fold everything before the first sentinel
//! float s = 0.0;
//! for (int i = 0; i < n; i++) {
//!     if (a[i] == stop) break;   // guard independent of s
//!     s += a[i];
//! }
//! // post-update break: fold everything up to AND including the hit
//! for (int i = 0; i < n; i++) { s += a[i]; if (a[i] == stop) break; }
//! ```
//!
//! Neither the fold idioms (single-exit prefix rejects the `break`) nor
//! the search idioms (they carry no accumulator) cover this shape — the
//! exact gap ROADMAP carried since the early-exit family landed. The spec
//! composes three reusable pieces purely in the constraint language:
//!
//! * the early-exit prefix (counted loop ⨯ guarded break, pure body),
//! * the exit guard of the search family (`add_exit_guard` in
//!   [`crate::spec::search`]): the break
//!   condition compares a candidate computed **only from inputs,
//!   invariants and the iterator** against an invariant needle — this is
//!   what makes the early exit decidable per chunk, because the guard
//!   never reads the accumulator,
//! * the scalar accumulator discipline of
//!   [`crate::spec::scalar`]: a carried header phi whose update is
//!   computed only from itself, array reads and invariants
//!   ([`Atom::ComputedOnlyFrom`]), confined to pure scalar computation
//!   ([`Atom::UsesConfinedTo`]) — the atoms that pin the accumulator's
//!   *reassociability* so the post-check only has to name the operator.
//!
//! The fold's result materializes as an **exit phi** merging the carried
//! phi (induction exit) with either the carried phi or its update (break
//! arm — pre- or post-update break, an `Or` over [`Atom::Equal`]).
//!
//! Exploitation is the **speculative-fold schedule** of `gr-parallel`:
//! workers fold identity-seeded private partials per chunk while breaking
//! at their local first hit, poll the shared `EarlyExitToken`, and the
//! merge replays partials in iteration order only up to the
//! lowest-indexed hit — parallel results equal sequential ones on every
//! thread count (bit-equal integers/min/max, tolerance float sums).

use crate::atoms::{Atom, MatchCtx, OpClass};
use crate::constraint::{Constraint, Label, Spec, SpecBuilder};
use crate::postcheck::classify_update;
use crate::report::{Reduction, ReductionKind, ReductionOp};
use crate::spec::earlyexit::EarlyExitLabels;
use crate::spec::registry::IdiomEntry;
use crate::spec::search::{add_exit_guard, normalized_break_pred};
use gr_ir::ValueId;

/// Labels of the fold-until-sentinel idiom.
#[derive(Debug, Clone, Copy)]
pub struct FoldExitLabels {
    /// The early-exit loop sub-idiom.
    pub early_exit: EarlyExitLabels,
    /// The per-iteration candidate feeding the exit comparison.
    pub cand: Label,
    /// The loop-invariant sentinel it is compared against.
    pub needle: Label,
    /// Accumulator phi in the header.
    pub acc: Label,
    /// Accumulator value entering the loop.
    pub acc_init: Label,
    /// Accumulator value produced by each completed iteration.
    pub acc_next: Label,
    /// The exit phi carrying the fold result out of the loop.
    pub res: Label,
    /// The break-arm value of `res`: the carried phi (pre-update break)
    /// or its update (post-update break).
    pub res_break: Label,
}

/// Builds the fold-until-sentinel specification.
#[must_use]
pub fn fold_until_spec() -> (Spec, FoldExitLabels) {
    let mut b = SpecBuilder::new("fold-until-sentinel");
    let (ee, cand, needle) = add_exit_guard(&mut b);
    let fl = ee.for_loop;
    // The search classifiers drop a candidate equal to its needle (it
    // reads no memory); the fold's do not, so the fold says it here.
    b.atom(Atom::NotEqual { a: needle, b: cand });

    let acc = b.label("acc");
    let acc_next = b.label("acc_next");
    let acc_init = b.label("acc_init");
    let res = b.label("res");
    let res_break = b.label("res_break");

    // The carried accumulator, exactly as in the scalar-reduction idiom.
    b.atom(Atom::BlockOf { inst: acc, block: fl.header });
    b.atom(Atom::Opcode { l: acc, class: OpClass::Phi });
    b.atom(Atom::TypeScalar(acc));
    b.atom(Atom::NotEqual { a: acc, b: fl.iterator });
    b.atom(Atom::PhiIncoming { phi: acc, value: acc_next, block: fl.latch });
    b.atom(Atom::PhiIncoming { phi: acc, value: acc_init, block: fl.preheader });
    // Condition 4 of the paper: x' is a term of x, array values and loop
    // constants only — together with forward confinement below this pins
    // the update chain to a shape the associativity post-check can
    // reassociate (privatized identity-seeded partials merge in order).
    b.atom(Atom::ComputedOnlyFrom {
        output: acc_next,
        header: fl.header,
        iterator: fl.iterator,
        allowed: vec![acc],
    });
    b.atom(Atom::UsesConfinedTo { source: acc, header: fl.header, terminals: vec![] });

    // The fold result leaves the loop in one of two shapes. A
    // *post-update* break (`s += a[i]; if (…) break;`) materializes an
    // exit phi merging the carried phi (induction exit) with the update
    // (break arm). A *pre-update* break (`if (…) break; s += a[i];`)
    // forwards the carried phi on both arms, so SSA construction folds
    // the trivial exit phi away and post-loop code uses `acc` directly
    // (the header dominates the exit).
    b.any(vec![
        Constraint::And(vec![
            Constraint::Atom(Atom::BlockOf { inst: res, block: fl.exit }),
            Constraint::Atom(Atom::Opcode { l: res, class: OpClass::Phi }),
            Constraint::Atom(Atom::PhiArity { phi: res, n: 2 }),
            Constraint::Atom(Atom::PhiIncoming { phi: res, value: acc, block: fl.header }),
            Constraint::Atom(Atom::PhiIncoming { phi: res, value: res_break, block: ee.break_blk }),
            Constraint::Atom(Atom::Equal { a: res_break, b: acc_next }),
        ]),
        Constraint::And(vec![
            Constraint::Atom(Atom::Equal { a: res, b: acc }),
            Constraint::Atom(Atom::Equal { a: res_break, b: acc }),
        ]),
    ]);

    (
        b.finish(),
        FoldExitLabels { early_exit: ee, cand, needle, acc, acc_init, acc_next, res, res_break },
    )
}

/// The fold-until-sentinel idiom's registry entry.
#[must_use]
pub fn idiom() -> IdiomEntry {
    let (spec, _) = fold_until_spec();
    IdiomEntry::new("fold-until-sentinel", spec, anchor, post_check, classify)
        .with_finalize(finalize)
}

/// One report per accumulator. The pre-update result shape (`res = acc`)
/// is satisfiable whenever the post-update exit phi exists too — the
/// constraint language cannot see whether direct post-loop uses of the
/// carried phi actually occur — so when both shapes matched the same
/// accumulator, the exit-phi report (the authoritative result) wins.
fn finalize(_: &MatchCtx<'_>, rs: Vec<Reduction>) -> Vec<Reduction> {
    let mut out: Vec<Reduction> = Vec::new();
    for r in rs {
        let acc = r.binding("acc");
        match out.iter_mut().find(|o| o.binding("acc") == acc) {
            Some(o) => {
                if o.anchor == acc && r.anchor != acc {
                    *o = r;
                }
            }
            None => out.push(r),
        }
    }
    out
}

fn anchor(spec: &Spec, s: &[ValueId]) -> (ValueId, ValueId) {
    (s[spec.label("res").index()], s[spec.label("acc").index()])
}

/// Post-check: associativity of the update chain, plus a recognizable
/// break predicate (the same normalization the search family applies).
fn post_check(ctx: &MatchCtx<'_>, spec: &Spec, s: &[ValueId]) -> Option<ReductionOp> {
    normalized_break_pred(ctx, spec, s)?;
    let lid = ctx.loop_of_header(s[spec.label("header").index()])?;
    let acc = s[spec.label("acc").index()];
    let acc_next = s[spec.label("acc_next").index()];
    classify_update(ctx.func, ctx.analyses, lid, acc, acc_next)
}

fn classify(ctx: &MatchCtx<'_>, spec: &Spec, s: &[ValueId], op: ReductionOp) -> Option<Reduction> {
    let header = s[spec.label("header").index()];
    let lid = ctx.loop_of_header(header)?;
    let acc = s[spec.label("acc").index()];
    let acc_next = s[spec.label("acc_next").index()];
    let iterator = s[spec.label("iterator").index()];
    // Degenerate-accumulation filter: the fold must consume at least one
    // memory read. Unlike the plain scalar case this admits count-until
    // (`if (a[i] == stop) break; c += 1;`) — its update is closed-form
    // but its trip count is data-dependent through the guard, whose load
    // reaches the walk via control dominance, so the loop is not
    // strength-reducible.
    let walk = crate::detect::update_walk(ctx, lid, iterator, &[acc], acc_next);
    if walk.loads.is_empty() {
        return None;
    }
    // Affinity is judged over the update's loads and the guard
    // candidate's loads together — both feed the chunked schedule.
    let cand_walk =
        crate::detect::update_walk(ctx, lid, iterator, &[], s[spec.label("cand").index()]);
    let mut loads = walk.loads.clone();
    loads.extend(cand_walk.loads.iter().copied().filter(|l| !walk.loads.contains(l)));
    let affine = crate::detect::loads_affine(ctx, lid, iterator, &loads);
    let pred = normalized_break_pred(ctx, spec, s)?;
    let l = ctx.analyses.loops.get(lid);
    Some(Reduction {
        function: ctx.func.name.clone(),
        kind: ReductionKind::FoldUntil,
        op,
        header: l.header,
        depth: l.depth,
        anchor: s[spec.label("res").index()],
        object: None,
        affine,
        arg_pred: Some(pred),
        bindings: crate::detect::bindings(&spec.label_names, s),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detect_reductions;
    use gr_ir::CmpPred;

    fn detect(src: &str) -> Vec<Reduction> {
        detect_reductions(&gr_frontend::compile(src).unwrap())
    }

    #[test]
    fn sum_until_sentinel_detected() {
        let rs = detect(
            "float sum_until(float* a, float stop, int n) {
                 float s = 0.0;
                 for (int i = 0; i < n; i++) {
                     if (a[i] == stop) break;
                     s += a[i];
                 }
                 return s;
             }",
        );
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(rs[0].kind, ReductionKind::FoldUntil);
        assert_eq!(rs[0].op, ReductionOp::Add);
        assert_eq!(rs[0].arg_pred, Some(CmpPred::Eq));
        assert!(rs[0].affine);
    }

    #[test]
    fn post_update_break_detected() {
        // The update runs before the guard: the break arm carries
        // acc_next, folding the hit element in — still one report.
        let rs = detect(
            "int prod_through(int* a, int stop, int n) {
                 int p = 1;
                 for (int i = 0; i < n; i++) {
                     p = p * a[i];
                     if (a[i] == stop) break;
                 }
                 return p;
             }",
        );
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(rs[0].kind, ReductionKind::FoldUntil);
        assert_eq!(rs[0].op, ReductionOp::Mul);
    }

    #[test]
    fn min_until_threshold_detected() {
        let rs = detect(
            "float min_until(float* a, float bound, int n) {
                 float m = 1.0e30;
                 for (int i = 0; i < n; i++) {
                     if (a[i] > bound) break;
                     m = fmin(m, a[i]);
                 }
                 return m;
             }",
        );
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(rs[0].kind, ReductionKind::FoldUntil);
        assert_eq!(rs[0].op, ReductionOp::Min);
        assert_eq!(rs[0].arg_pred, Some(CmpPred::Gt));
    }

    #[test]
    fn guard_reading_the_accumulator_rejected() {
        // `s > limit` couples the exit to the fold: no chunk can decide
        // its exit independently, so the idiom must not match.
        let rs = detect(
            "float f(float* a, float limit, int n) {
                 float s = 0.0;
                 for (int i = 0; i < n; i++) {
                     if (s > limit) break;
                     s += a[i];
                 }
                 return s;
             }",
        );
        assert!(rs.iter().all(|r| !r.kind.is_fold_until()), "{rs:?}");
    }

    #[test]
    fn count_until_detected() {
        // The update itself is closed-form, but the trip count is
        // data-dependent through the guard's load: not strength-reducible,
        // so this is a legitimate fold.
        let rs = detect(
            "int count_until(int* a, int stop, int n) {
                 int c = 0;
                 for (int i = 0; i < n; i++) {
                     if (a[i] == stop) break;
                     c = c + 1;
                 }
                 return c;
             }",
        );
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(rs[0].kind, ReductionKind::FoldUntil);
        assert_eq!(rs[0].op, ReductionOp::Add);
    }

    #[test]
    fn closed_form_guard_and_update_rejected() {
        // Neither the guard nor the update reads memory: the whole loop
        // is closed-form, nothing to privatize.
        let rs = detect(
            "int f(int x, int n) {
                 int c = 0;
                 for (int i = 0; i < n; i++) {
                     if (i * 3 == x) break;
                     c = c + 2;
                 }
                 return c;
             }",
        );
        assert!(rs.iter().all(|r| !r.kind.is_fold_until()), "{rs:?}");
    }

    #[test]
    fn storing_fold_loop_rejected() {
        // A store in the body breaks the prefix's speculation safety.
        let rs = detect(
            "float f(float* a, float* log, float stop, int n) {
                 float s = 0.0;
                 for (int i = 0; i < n; i++) {
                     if (a[i] == stop) break;
                     s += a[i];
                     log[i] = s;
                 }
                 return s;
             }",
        );
        assert!(rs.is_empty(), "{rs:?}");
    }

    #[test]
    fn plain_sum_is_not_fold_until() {
        // No break: the single-exit scalar idiom owns this loop.
        let rs = detect(
            "float f(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }",
        );
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(rs[0].kind, ReductionKind::Scalar);
    }

    #[test]
    fn fold_and_find_first_in_one_loop_both_reported() {
        // The break records the hit index too: a find-first and a
        // fold-until over the same guard, exploited together by the
        // speculative schedule.
        let rs = detect(
            "float f(float* a, int* out, float stop, int n) {
                 float s = 0.0;
                 int r = n;
                 for (int i = 0; i < n; i++) {
                     if (a[i] == stop) { r = i; break; }
                     s += a[i];
                 }
                 out[0] = r;
                 return s;
             }",
        );
        let kinds: Vec<ReductionKind> = rs.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&ReductionKind::FoldUntil), "{rs:?}");
        assert!(kinds.contains(&ReductionKind::FindFirst), "{rs:?}");
        assert_eq!(rs.len(), 2, "{rs:?}");
    }

    #[test]
    fn two_accumulators_with_one_break_both_reported() {
        let rs = detect(
            "void f(float* a, float* out, float stop, int n) {
                 float sx = 0.0;
                 float sy = 0.0;
                 for (int i = 0; i < n; i++) {
                     if (a[2 * i] == stop) break;
                     sx += a[2 * i];
                     sy += a[2 * i + 1];
                 }
                 out[0] = sx;
                 out[1] = sy;
             }",
        );
        assert_eq!(rs.len(), 2, "{rs:?}");
        assert!(rs.iter().all(|r| r.kind.is_fold_until()), "{rs:?}");
    }

    #[test]
    fn fold_until_shares_the_early_exit_prefix() {
        let (spec, labels) = fold_until_spec();
        let (ff, _) = crate::spec::search::find_first_spec();
        assert_eq!(spec.prefix.unwrap().fingerprint, ff.prefix.unwrap().fingerprint);
        assert_eq!(labels.res_break.index(), spec.arity() - 1);
    }
}
