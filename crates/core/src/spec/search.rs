//! The early-exit search idiom family: find-first, any-of/all-of, and
//! find-min-index-early, all built on the shared
//! [`for-loop-early-exit`](crate::spec::earlyexit) prefix.
//!
//! ```c
//! // find-first: the index of the first match
//! int r = n;
//! for (int i = 0; i < n; i++) if (a[i] == x)     { r = i; break; }
//! // any-of: boolean short-circuit
//! int found = 0;
//! for (int i = 0; i < n; i++) if (a[i] == x)     { found = 1; break; }
//! // all-of: the dual short-circuit
//! int ok = 1;
//! for (int i = 0; i < n; i++) if (a[i] > limit)  { ok = 0; break; }
//! // find-min-index-early: sentinel-guarded search
//! int r = -1;
//! for (int i = 0; i < n; i++) if (a[i] < bound)  { r = i; break; }
//! ```
//!
//! The loop carries nothing (its "state" materializes as exit phis at the
//! loop-exit block, merging the break arm with an invariant default), so
//! the privatizing fold templates do not apply: exploitation is the
//! **cancellable speculative search** of `gr-parallel` — chunked execution
//! where workers poll an `EarlyExitToken` and the merge selects the
//! lowest-indexed hit, reproducing sequential semantics exactly.
//!
//! On top of the early-exit prefix all three idioms share a core:
//!
//! * `cand` — the per-iteration candidate feeding the exit comparison,
//!   generalized-dominance-checked like every idiom input (inputs, loop
//!   invariants, the iterator in address context),
//! * `needle` — the other comparison operand, loop-invariant (either
//!   operand order),
//! * `res` — an exit phi merging the break arm with an invariant default.
//!
//! They differ purely in the constraint language:
//!
//! * **find-first** pins `res`'s break arm to the loop iterator and the
//!   exit comparison to an equality predicate ([`Atom::CmpPredIs`]),
//! * **any-of/all-of** pins both `res` arms to integer constants
//!   ([`Atom::IsConstInt`]): `0 → 1` is any-of, `1 → 0` all-of,
//! * **find-min-index-early** is find-first with an ordering predicate —
//!   the needle acts as the sentinel.
//!
//! Each post-check normalizes the break predicate for the report (operand
//! order and which guard arm breaks), mirroring the argmin/argmax
//! exchange-predicate normalization.

use crate::atoms::{Atom, MatchCtx, OpClass};
use crate::constraint::{Constraint, Label, Spec, SpecBuilder};
use crate::report::{Reduction, ReductionKind, ReductionOp};
use crate::spec::earlyexit::{add_for_loop_early_exit, EarlyExitLabels};
use crate::spec::registry::IdiomEntry;
use gr_ir::{CmpPred, Opcode, ValueId, ValueKind};

/// Labels shared by the search idioms.
#[derive(Debug, Clone, Copy)]
pub struct SearchLabels {
    /// The early-exit loop sub-idiom.
    pub early_exit: EarlyExitLabels,
    /// The per-iteration candidate feeding the exit comparison.
    pub cand: Label,
    /// The loop-invariant needle (or sentinel) it is compared against.
    pub needle: Label,
    /// The exit phi carrying the search result.
    pub res: Label,
}

/// Adds the shared exit-guard core on top of the early-exit prefix: the
/// exit comparison tests a per-iteration candidate against a
/// loop-invariant needle, in either operand order, and the candidate
/// depends on nothing but inputs, invariants, and the iterator in address
/// context — the same discipline as every idiom input. Shared between the
/// search family and the speculative folds
/// ([`crate::spec::foldexit`]), which is exactly what makes the fold's
/// early exit decidable per chunk: the guard never reads the accumulator.
pub(crate) fn add_exit_guard(b: &mut SpecBuilder) -> (EarlyExitLabels, Label, Label) {
    let ee = add_for_loop_early_exit(b);
    let fl = ee.for_loop;
    let cand = b.label("cand");
    let needle = b.label("needle");

    b.atom(Atom::InLoopInst { inst: cand, header: fl.header });
    b.atom(Atom::InvariantIn { value: needle, header: fl.header });
    b.any(vec![
        Constraint::And(vec![
            Constraint::Atom(Atom::OperandIs { inst: ee.exit_cond, index: 0, value: cand }),
            Constraint::Atom(Atom::OperandIs { inst: ee.exit_cond, index: 1, value: needle }),
        ]),
        Constraint::And(vec![
            Constraint::Atom(Atom::OperandIs { inst: ee.exit_cond, index: 0, value: needle }),
            Constraint::Atom(Atom::OperandIs { inst: ee.exit_cond, index: 1, value: cand }),
        ]),
    ]);
    b.atom(Atom::ComputedOnlyFrom {
        output: cand,
        header: fl.header,
        iterator: fl.iterator,
        allowed: vec![],
    });

    (ee, cand, needle)
}

/// Adds the shared search core: the exit guard plus the result phi at the
/// loop exit. The caller pins the result arms and the predicate class.
fn add_search_core(b: &mut SpecBuilder) -> SearchLabels {
    let (ee, cand, needle) = add_exit_guard(b);
    let res = b.label("res");

    // The search result: a phi merging the two exit edges, so it sits at
    // the loop exit, the one block both the header and the break
    // trampoline reach. The arms are pinned by the individual idioms.
    b.atom(Atom::Opcode { l: res, class: OpClass::Phi });
    b.atom(Atom::PhiArity { phi: res, n: 2 });

    SearchLabels { early_exit: ee, cand, needle, res }
}

/// Builds the find-first specification: the result's break arm is the
/// iterator and the exit comparison is an equality test.
#[must_use]
pub fn find_first_spec() -> (Spec, SearchLabels) {
    let mut b = SpecBuilder::new("find-first");
    let s = add_search_core(&mut b);
    pin_index_result(&mut b, &s);
    // The post-check keeps these predicates anyway; the pin spares the
    // search the ordering comparisons.
    b.any(vec![
        Constraint::Atom(Atom::CmpPredIs { l: s.early_exit.exit_cond, pred: CmpPred::Eq }),
        Constraint::Atom(Atom::CmpPredIs { l: s.early_exit.exit_cond, pred: CmpPred::Ne }),
    ]);
    (b.finish(), s)
}

/// Pins the index-result shape shared by find-first and find-last: the
/// result's break arm is the loop iterator and its default is invariant.
/// Kept in one place so the two idioms cannot silently diverge — they
/// differ only in the induction step's sign. Their post-checks keep the
/// equality-class predicates (`Eq`/`Ne`), the ordering ones being
/// find-min-index-early's.
fn pin_index_result(b: &mut SpecBuilder, s: &SearchLabels) {
    let fl = s.early_exit.for_loop;
    let res_default = b.label("res_default");
    b.atom(Atom::PhiIncoming { phi: s.res, value: fl.iterator, block: s.early_exit.break_blk });
    b.atom(Atom::PhiIncoming { phi: s.res, value: res_default, block: fl.header });
    b.atom(Atom::InvariantIn { value: res_default, header: fl.header });
}

/// Builds the any-of/all-of specification: both result arms are pinned
/// integer constants (`0 → 1` any-of, `1 → 0` all-of).
#[must_use]
pub fn any_all_of_spec() -> (Spec, SearchLabels) {
    let mut b = SpecBuilder::new("any-all-of");
    let s = add_search_core(&mut b);
    let fl = s.early_exit.for_loop;
    // Implied by the arms below, but the only generator for `res` before
    // `brk_val` is bound.
    b.atom(Atom::BlockOf { inst: s.res, block: fl.exit });
    let brk_val = b.label("brk_val");
    let res_default = b.label("res_default");
    b.atom(Atom::PhiIncoming { phi: s.res, value: brk_val, block: s.early_exit.break_blk });
    b.atom(Atom::PhiIncoming { phi: s.res, value: res_default, block: fl.header });
    b.any(vec![
        Constraint::And(vec![
            Constraint::Atom(Atom::IsConstInt { l: brk_val, value: 1 }),
            Constraint::Atom(Atom::IsConstInt { l: res_default, value: 0 }),
        ]),
        Constraint::And(vec![
            Constraint::Atom(Atom::IsConstInt { l: brk_val, value: 0 }),
            Constraint::Atom(Atom::IsConstInt { l: res_default, value: 1 }),
        ]),
    ]);
    (b.finish(), s)
}

/// Builds the find-last specification: find-first scanning from the high
/// end. Structurally it is the same equality search — break arm pinned to
/// the iterator, invariant default — but [`Atom::ConstIntNegative`] pins
/// the induction step to a known negative constant, so the first hit *in
/// iteration order* is the array's last matching index.
#[must_use]
pub fn find_last_spec() -> (Spec, SearchLabels) {
    let mut b = SpecBuilder::new("find-last");
    let s = add_search_core(&mut b);
    pin_index_result(&mut b, &s);
    b.atom(Atom::ConstIntNegative(s.early_exit.for_loop.iter_step));
    (b.finish(), s)
}

/// Builds the find-min-index-early specification: find-first with an
/// ordering comparison against a loop-invariant sentinel.
#[must_use]
pub fn find_min_index_spec() -> (Spec, SearchLabels) {
    let mut b = SpecBuilder::new("find-min-index-early");
    let s = add_search_core(&mut b);
    let fl = s.early_exit.for_loop;
    let res_default = b.label("res_default");
    b.atom(Atom::PhiIncoming { phi: s.res, value: fl.iterator, block: s.early_exit.break_blk });
    b.atom(Atom::PhiIncoming { phi: s.res, value: res_default, block: fl.header });
    b.atom(Atom::InvariantIn { value: res_default, header: fl.header });
    b.any(
        [CmpPred::Lt, CmpPred::Le, CmpPred::Gt, CmpPred::Ge]
            .into_iter()
            .map(|pred| Constraint::Atom(Atom::CmpPredIs { l: s.early_exit.exit_cond, pred }))
            .collect(),
    );
    (b.finish(), s)
}

/// The find-first idiom's registry entry.
#[must_use]
pub fn find_first_idiom() -> IdiomEntry {
    let (spec, _) = find_first_spec();
    IdiomEntry::new("find-first", spec, anchor, post_check_find_first, classify_find_first)
        .with_finalize(finalize)
}

/// The any-of/all-of idiom's registry entry.
#[must_use]
pub fn any_all_of_idiom() -> IdiomEntry {
    let (spec, _) = any_all_of_spec();
    IdiomEntry::new("any-all-of", spec, anchor, post_check_any_all, classify_any_all)
        .with_finalize(finalize)
}

/// The find-min-index-early idiom's registry entry.
#[must_use]
pub fn find_min_index_idiom() -> IdiomEntry {
    let (spec, _) = find_min_index_spec();
    IdiomEntry::new("find-min-index-early", spec, anchor, post_check_find_min, classify_find_min)
        .with_finalize(finalize)
}

/// The find-last idiom's registry entry.
#[must_use]
pub fn find_last_idiom() -> IdiomEntry {
    let (spec, _) = find_last_spec();
    IdiomEntry::new("find-last", spec, anchor, post_check_find_last, classify_find_last)
        .with_finalize(finalize)
}

fn anchor(spec: &Spec, s: &[ValueId]) -> (ValueId, ValueId) {
    (s[spec.label("res").index()], s[spec.label("exit_cond").index()])
}

/// The normalized break predicate: the loop exits early exactly when
/// `cand PRED needle` holds. Normalizes the comparison's operand order and
/// accounts for the break being on either guard arm — the search-runtime
/// analog of the argmin/argmax exchange-predicate normalization.
pub(crate) fn normalized_break_pred(
    ctx: &MatchCtx<'_>,
    spec: &Spec,
    s: &[ValueId],
) -> Option<CmpPred> {
    let func = ctx.func;
    let cond = s[spec.label("exit_cond").index()];
    let cand = s[spec.label("cand").index()];
    let needle = s[spec.label("needle").index()];
    let Some(&Opcode::Cmp(raw)) = func.value(cond).kind.opcode() else { return None };
    let ops = func.value(cond).kind.operands();
    let pred = if ops[0] == cand && ops[1] == needle {
        raw
    } else if ops[0] == needle && ops[1] == cand {
        raw.swapped()
    } else {
        return None;
    };
    let jops = func.value(s[spec.label("guard_jump").index()]).kind.operands();
    let break_label = s[spec.label("break_blk").index()];
    Some(if jops[1] == break_label { pred } else { pred.negated() })
}

/// Whether the bound induction step is a known negative constant — the
/// find-last shape. Steps that are positive or unknown at compile time
/// stay with find-first.
fn step_is_negative_const(ctx: &MatchCtx<'_>, spec: &Spec, s: &[ValueId]) -> bool {
    matches!(
        ctx.func.value(s[spec.label("iter_step").index()]).kind,
        ValueKind::ConstInt(c) if c < 0
    )
}

fn post_check_find_first(ctx: &MatchCtx<'_>, spec: &Spec, s: &[ValueId]) -> Option<ReductionOp> {
    let pred = normalized_break_pred(ctx, spec, s)?;
    // Both orientations are a first-match search ("first equal" / "first
    // different"); ordering tests belong to find-min-index-early, and
    // equality scans from the high end to find-last.
    if step_is_negative_const(ctx, spec, s) {
        return None;
    }
    matches!(pred, CmpPred::Eq | CmpPred::Ne).then_some(ReductionOp::Min)
}

fn post_check_find_last(ctx: &MatchCtx<'_>, spec: &Spec, s: &[ValueId]) -> Option<ReductionOp> {
    let pred = normalized_break_pred(ctx, spec, s)?;
    // The spec already pins the step negative; belt and braces here keeps
    // the find-first/find-last partition visible in one place.
    if !step_is_negative_const(ctx, spec, s) {
        return None;
    }
    matches!(pred, CmpPred::Eq | CmpPred::Ne).then_some(ReductionOp::Min)
}

fn post_check_any_all(ctx: &MatchCtx<'_>, spec: &Spec, s: &[ValueId]) -> Option<ReductionOp> {
    normalized_break_pred(ctx, spec, s)?;
    Some(ReductionOp::Min)
}

fn post_check_find_min(ctx: &MatchCtx<'_>, spec: &Spec, s: &[ValueId]) -> Option<ReductionOp> {
    let pred = normalized_break_pred(ctx, spec, s)?;
    matches!(pred, CmpPred::Lt | CmpPred::Le | CmpPred::Gt | CmpPred::Ge)
        .then_some(ReductionOp::Min)
}

/// Shared classifier body: degenerate filter (the candidate must consume a
/// memory read — a search over closed-form values needs no loop), affinity
/// judgement, and the common report fields. The merge operator is `Min`
/// for every search: partial hits combine by lowest iteration index.
fn classify_search(
    ctx: &MatchCtx<'_>,
    spec: &Spec,
    s: &[ValueId],
    kind: ReductionKind,
) -> Option<Reduction> {
    let header = s[spec.label("header").index()];
    let lid = ctx.loop_of_header(header)?;
    let iterator = s[spec.label("iterator").index()];
    let cand = s[spec.label("cand").index()];
    let walk = crate::detect::update_walk(ctx, lid, iterator, &[], cand);
    if walk.loads.is_empty() {
        return None;
    }
    let affine = crate::detect::loads_affine(ctx, lid, iterator, &walk.loads);
    let pred = normalized_break_pred(ctx, spec, s)?;
    let l = ctx.analyses.loops.get(lid);
    Some(Reduction {
        function: ctx.func.name.clone(),
        kind,
        op: ReductionOp::Min,
        header: l.header,
        depth: l.depth,
        anchor: s[spec.label("res").index()],
        object: None,
        affine,
        arg_pred: Some(pred),
        bindings: crate::detect::bindings(&spec.label_names, s),
    })
}

fn classify_find_first(
    ctx: &MatchCtx<'_>,
    spec: &Spec,
    s: &[ValueId],
    _: ReductionOp,
) -> Option<Reduction> {
    classify_search(ctx, spec, s, ReductionKind::FindFirst)
}

fn classify_any_all(
    ctx: &MatchCtx<'_>,
    spec: &Spec,
    s: &[ValueId],
    _: ReductionOp,
) -> Option<Reduction> {
    let brk = s[spec.label("brk_val").index()];
    let kind = match ctx.func.value(brk).kind {
        ValueKind::ConstInt(1) => ReductionKind::AnyOf,
        ValueKind::ConstInt(0) => ReductionKind::AllOf,
        _ => return None,
    };
    classify_search(ctx, spec, s, kind)
}

fn classify_find_min(
    ctx: &MatchCtx<'_>,
    spec: &Spec,
    s: &[ValueId],
    _: ReductionOp,
) -> Option<Reduction> {
    classify_search(ctx, spec, s, ReductionKind::FindMinIndex)
}

fn classify_find_last(
    ctx: &MatchCtx<'_>,
    spec: &Spec,
    s: &[ValueId],
    _: ReductionOp,
) -> Option<Reduction> {
    classify_search(ctx, spec, s, ReductionKind::FindLast)
}

/// One report per result phi (`Or` branches can bind the same phi through
/// several assignments). Shared with the speculative folds, whose `Or`
/// over the break-arm shape has the same effect.
pub(crate) fn finalize(_: &MatchCtx<'_>, mut rs: Vec<Reduction>) -> Vec<Reduction> {
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
    use crate::detect::detect_reductions;
    use gr_frontend::compile;

    fn detect(src: &str) -> Vec<Reduction> {
        detect_reductions(&compile(src).unwrap())
    }

    #[test]
    fn find_first_detected() {
        let rs = detect(
            "int find(int* a, int x, int n) {
                 int r = n;
                 for (int i = 0; i < n; i++) {
                     if (a[i] == x) { r = i; break; }
                 }
                 return r;
             }",
        );
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(rs[0].kind, ReductionKind::FindFirst);
        assert_eq!(rs[0].arg_pred, Some(CmpPred::Eq));
        assert!(rs[0].affine);
    }

    #[test]
    fn find_first_mismatch_search_detected() {
        // "First index that differs": Ne is still an equality-class search.
        let rs = detect(
            "int diff(int* a, int x, int n) {
                 int r = n;
                 for (int i = 0; i < n; i++) {
                     if (a[i] != x) { r = i; break; }
                 }
                 return r;
             }",
        );
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(rs[0].kind, ReductionKind::FindFirst);
        assert_eq!(rs[0].arg_pred, Some(CmpPred::Ne));
    }

    #[test]
    fn any_of_detected() {
        let rs = detect(
            "int any(int* a, int x, int n) {
                 int found = 0;
                 for (int i = 0; i < n; i++) {
                     if (a[i] == x) { found = 1; break; }
                 }
                 return found;
             }",
        );
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(rs[0].kind, ReductionKind::AnyOf);
    }

    #[test]
    fn all_of_detected() {
        let rs = detect(
            "int all_below(float* a, float limit, int n) {
                 int ok = 1;
                 for (int i = 0; i < n; i++) {
                     if (a[i] >= limit) { ok = 0; break; }
                 }
                 return ok;
             }",
        );
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(rs[0].kind, ReductionKind::AllOf);
        assert_eq!(rs[0].arg_pred, Some(CmpPred::Ge));
    }

    #[test]
    fn find_min_index_detected_with_computed_candidate() {
        let rs = detect(
            "int below(float* a, float x, float bound, int n) {
                 int r = -1;
                 for (int i = 0; i < n; i++) {
                     float d = fabs(a[i] - x);
                     if (d < bound) { r = i; break; }
                 }
                 return r;
             }",
        );
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(rs[0].kind, ReductionKind::FindMinIndex);
        assert_eq!(rs[0].arg_pred, Some(CmpPred::Lt));
    }

    #[test]
    fn swapped_operands_normalize() {
        // `bound > a[i]` is the same sentinel search as `a[i] < bound`.
        let rs = detect(
            "int below(float* a, float bound, int n) {
                 int r = -1;
                 for (int i = 0; i < n; i++) {
                     if (bound > a[i]) { r = i; break; }
                 }
                 return r;
             }",
        );
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(rs[0].kind, ReductionKind::FindMinIndex);
        assert_eq!(rs[0].arg_pred, Some(CmpPred::Lt));
    }

    #[test]
    fn find_first_and_flag_in_one_loop_both_reported() {
        // Two exit phis: the index and the found flag — a find-first and
        // an any-of over the same guard.
        let rs = detect(
            "int find(int* a, int* out, int x, int n) {
                 int r = n;
                 int found = 0;
                 for (int i = 0; i < n; i++) {
                     if (a[i] == x) { r = i; found = 1; break; }
                 }
                 out[0] = found;
                 return r;
             }",
        );
        let kinds: Vec<ReductionKind> = rs.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&ReductionKind::FindFirst), "{rs:?}");
        assert!(kinds.contains(&ReductionKind::AnyOf), "{rs:?}");
        assert_eq!(rs.len(), 2, "{rs:?}");
    }

    #[test]
    fn loop_without_break_is_not_a_search() {
        // The unconditional linear scan (argmin shape) must stay with the
        // fold idioms.
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
        assert!(rs.iter().all(|r| !r.kind.is_search()), "{rs:?}");
    }

    #[test]
    fn needle_varying_in_loop_rejected() {
        // The comparison tests two loop-varying values: no invariant
        // needle to search for.
        let rs = detect(
            "int f(int* a, int* b, int n) {
                 int r = n;
                 for (int i = 0; i < n; i++) {
                     if (a[i] == b[i]) { r = i; break; }
                 }
                 return r;
             }",
        );
        assert!(rs.iter().all(|r| !r.kind.is_search()), "{rs:?}");
    }

    #[test]
    fn closed_form_candidate_rejected() {
        // No memory read: a search over `i * 3` is strength-reducible.
        let rs = detect(
            "int f(int x, int n) {
                 int r = n;
                 for (int i = 0; i < n; i++) {
                     if (i * 3 == x) { r = i; break; }
                 }
                 return r;
             }",
        );
        assert!(rs.iter().all(|r| !r.kind.is_search()), "{rs:?}");
    }

    #[test]
    fn transformed_break_index_not_find_first() {
        // The break arm records `2 * i`, not the iterator: the result is
        // not the hit index.
        let rs = detect(
            "int f(int* a, int x, int n) {
                 int r = n;
                 for (int i = 0; i < n; i++) {
                     if (a[i] == x) { r = 2 * i; break; }
                 }
                 return r;
             }",
        );
        assert!(rs.iter().all(|r| !r.kind.is_search()), "{rs:?}");
    }

    #[test]
    fn search_specs_share_the_early_exit_prefix() {
        let (a, _) = find_first_spec();
        let (b, _) = any_all_of_spec();
        let (c, _) = find_min_index_spec();
        let (d, _) = find_last_spec();
        let pa = a.prefix.unwrap();
        assert_eq!(pa.fingerprint, b.prefix.unwrap().fingerprint);
        assert_eq!(pa.fingerprint, c.prefix.unwrap().fingerprint);
        assert_eq!(pa.fingerprint, d.prefix.unwrap().fingerprint);
        let (single, _) = crate::spec::scalar_reduction_spec();
        assert_ne!(pa.fingerprint, single.prefix.unwrap().fingerprint);
    }

    #[test]
    fn find_last_detected_on_downward_scan() {
        // Scanning from the high end: the first hit in iteration order is
        // the last matching array index.
        let rs = detect(
            "int findlast(int* a, int x, int n) {
                 int r = -1;
                 for (int i = n - 1; i >= 0; i = i + -1) {
                     if (a[i] == x) { r = i; break; }
                 }
                 return r;
             }",
        );
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(rs[0].kind, ReductionKind::FindLast);
        assert_eq!(rs[0].arg_pred, Some(CmpPred::Eq));
    }

    #[test]
    fn downward_sentinel_search_stays_find_min_index() {
        // Ordering tests keep their idiom regardless of direction; only
        // equality scans from the high end become find-last.
        let rs = detect(
            "int below(float* a, float bound, int n) {
                 int r = -1;
                 for (int i = n - 1; i >= 0; i = i + -1) {
                     if (a[i] < bound) { r = i; break; }
                 }
                 return r;
             }",
        );
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(rs[0].kind, ReductionKind::FindMinIndex);
    }

    #[test]
    fn upward_scan_is_find_first_not_find_last() {
        let rs = detect(
            "int find(int* a, int x, int n) {
                 int r = n;
                 for (int i = 0; i < n; i++) {
                     if (a[i] == x) { r = i; break; }
                 }
                 return r;
             }",
        );
        assert_eq!(rs.len(), 1, "find-first and find-last must partition: {rs:?}");
        assert_eq!(rs[0].kind, ReductionKind::FindFirst);
    }
}
