//! The prefix-sum / scan idiom: a scalar accumulation whose running value
//! is materialized into a distinct output cell every iteration,
//!
//! ```c
//! for (int i = 0; i < n; i++) { s += a[i]; out[i] = s; }
//! ```
//!
//! On top of the for-loop structure the specification binds the same
//! accumulator tuple as the scalar-reduction idiom plus one store:
//!
//! * `acc` / `acc_init` / `acc_next` — the carried scalar, its preheader
//!   incoming, and its per-iteration update, generalized-dominance-checked
//!   exactly like a scalar reduction,
//! * `store` — anchored to the reduction loop, storing the running value
//!   (either `acc_next`, the inclusive form, or `acc`, the exclusive
//!   form) through `addr = gep(out_base, idx)`,
//! * `out_base` — loop-invariant and accessed by nothing else in the loop
//!   (no cross-iteration reads of the output, so the only loop-carried
//!   dependence is the accumulator itself),
//! * `idx` — the output index, which the post-check requires to be
//!   *strided* in the iterator (affine with a nonzero slope), so distinct
//!   iterations write distinct cells and thread blocks write disjoint
//!   output regions,
//! * the accumulator's uses are confined to its own update chain plus the
//!   output store.
//!
//! A scan is *not* a scalar reduction — privatized partials alone cannot
//! reproduce the per-iteration output — which is exactly why the scalar
//! idiom's confinement constraint rejects accumulators that feed stores.
//! Exploitation needs the two-pass block-scan template in `gr-parallel`
//! (whose partials pass runs a store-free "value-only" chunk variant).
//!
//! Like every built-in idiom, the spec is `for-loop ⨯ extension`: the
//! loop skeleton is the shared prefix ([`add_for_loop`]), solved once per
//! function and resumed here (see [`crate::spec::registry`]).

use crate::atoms::{Atom, MatchCtx, OpClass};
use crate::constraint::{Constraint, Label, Spec, SpecBuilder};
use crate::postcheck::classify_update;
use crate::report::{Reduction, ReductionKind, ReductionOp};
use crate::spec::forloop::{add_for_loop, ForLoopLabels};
use crate::spec::registry::IdiomEntry;
use gr_ir::ValueId;

/// Labels of the scan idiom.
#[derive(Debug, Clone, Copy)]
pub struct ScanLabels {
    /// The for-loop sub-idiom.
    pub for_loop: ForLoopLabels,
    /// Accumulator phi in the header.
    pub acc: Label,
    /// Accumulator value entering the loop.
    pub acc_init: Label,
    /// Accumulator value produced by each iteration.
    pub acc_next: Label,
    /// The output store.
    pub store: Label,
    /// The store's address computation.
    pub addr: Label,
    /// The output array pointer.
    pub out_base: Label,
    /// The output index.
    pub idx: Label,
}

/// Builds the scan specification.
#[must_use]
pub fn scan_spec() -> (Spec, ScanLabels) {
    let mut b = SpecBuilder::new("prefix-scan");
    let fl = add_for_loop(&mut b);

    let acc = b.label("acc");
    let acc_next = b.label("acc_next");
    let acc_init = b.label("acc_init");
    let store = b.label("store");
    let addr = b.label("addr");
    let out_base = b.label("out_base");
    let idx = b.label("idx");

    // The carried scalar, exactly as in the scalar-reduction idiom.
    b.atom(Atom::BlockOf { inst: acc, block: fl.header });
    b.atom(Atom::Opcode { l: acc, class: OpClass::Phi });
    b.atom(Atom::NotEqual { a: acc, b: fl.iterator });
    b.atom(Atom::PhiIncoming { phi: acc, value: acc_next, block: fl.latch });
    b.atom(Atom::PhiIncoming { phi: acc, value: acc_init, block: fl.preheader });
    b.atom(Atom::ComputedOnlyFrom {
        output: acc_next,
        header: fl.header,
        iterator: fl.iterator,
        allowed: vec![acc],
    });

    // The running value is written out once per iteration (inclusive scan
    // stores the updated value, exclusive scan the carried one).
    b.atom(Atom::Opcode { l: store, class: OpClass::Store });
    b.atom(Atom::AnchoredTo { inst: store, header: fl.header });
    b.any(vec![
        Constraint::Atom(Atom::OperandIs { inst: store, index: 0, value: acc_next }),
        Constraint::Atom(Atom::OperandIs { inst: store, index: 0, value: acc }),
    ]);
    b.atom(Atom::OperandIs { inst: store, index: 1, value: addr });
    b.atom(Atom::OperandIs { inst: addr, index: 0, value: out_base });
    b.atom(Atom::OperandIs { inst: addr, index: 1, value: idx });

    // The output object is fixed across the loop and otherwise untouched:
    // no read of `out` can smuggle a second loop-carried dependence past
    // the accumulator.
    b.atom(Atom::InvariantIn { value: out_base, header: fl.header });
    b.atom(Atom::OnlyObjectAccesses { ptr: out_base, header: fl.header, allowed: vec![store] });

    // Privatization safety: the accumulator leaks only into its own update
    // chain and the output store.
    b.atom(Atom::UsesConfinedTo { source: acc, header: fl.header, terminals: vec![store] });

    (b.finish(), ScanLabels { for_loop: fl, acc, acc_init, acc_next, store, addr, out_base, idx })
}

/// The scan idiom's registry entry.
#[must_use]
pub fn idiom() -> IdiomEntry {
    let (spec, _) = scan_spec();
    IdiomEntry::new("prefix-scan", spec, anchor, post_check, classify).with_finalize(finalize)
}

fn anchor(spec: &Spec, s: &[ValueId]) -> (ValueId, ValueId) {
    (s[spec.label("acc").index()], s[spec.label("store").index()])
}

/// Post-check: the update must be associative (any of the four operators
/// works under the two-pass template) and the output index must be
/// *strided* in the iterator. The spec leaves the index free: a
/// data-dependent index is not affine, and an affine but constant index
/// is a redundantly-stored scalar reduction, not a scan.
fn post_check(ctx: &MatchCtx<'_>, spec: &Spec, s: &[ValueId]) -> Option<ReductionOp> {
    let header = s[spec.label("header").index()];
    let lid = ctx.loop_of_header(header)?;
    let acc = s[spec.label("acc").index()];
    let acc_next = s[spec.label("acc_next").index()];
    let op = classify_update(ctx.func, ctx.analyses, lid, acc, acc_next)?;
    let iterator = s[spec.label("iterator").index()];
    let idx = s[spec.label("idx").index()];
    let is_inv = |v| ctx.invariance.is_invariant(lid, v);
    gr_analysis::scev::is_strided_in(ctx.func, iterator, &is_inv, idx).then_some(op)
}

fn classify(ctx: &MatchCtx<'_>, spec: &Spec, s: &[ValueId], op: ReductionOp) -> Option<Reduction> {
    let header = s[spec.label("header").index()];
    let lid = ctx.loop_of_header(header)?;
    let acc = s[spec.label("acc").index()];
    let acc_next = s[spec.label("acc_next").index()];
    let iterator = s[spec.label("iterator").index()];
    let walk = crate::detect::update_walk(ctx, lid, iterator, &[acc], acc_next);
    let affine = crate::detect::loads_affine(ctx, lid, iterator, &walk.loads);
    let l = ctx.analyses.loops.get(lid);
    Some(Reduction {
        function: ctx.func.name.clone(),
        kind: ReductionKind::Scan,
        op,
        header: l.header,
        depth: l.depth,
        anchor: acc,
        object: gr_analysis::dataflow::root_object(ctx.func, s[spec.label("out_base").index()]),
        affine,
        arg_pred: None,
        bindings: crate::detect::bindings(&spec.label_names, s),
    })
}

/// One scan per accumulator: when the running value is stored to several
/// output arrays, keep the first (exploitation privatizes the accumulator
/// once; additional stores would need their own outline slots).
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

    /// Distinct (function, acc, store) triples matched by the raw spec.
    fn scans_found(src: &str) -> usize {
        let m = compile(src).unwrap();
        let mut found = HashSet::new();
        for func in &m.functions {
            let analyses = Analyses::new(&m, func);
            let ctx = MatchCtx::new(&m, func, &analyses);
            let (spec, labels) = scan_spec();
            let (sols, stats) = solve(&spec, &ctx, SolveOptions::default());
            assert!(!stats.truncated, "solver truncated on {}", func.name);
            for s in sols {
                found.insert((func.name.clone(), s[labels.acc.index()], s[labels.store.index()]));
            }
        }
        found.len()
    }

    #[test]
    fn finds_inclusive_prefix_sum() {
        assert_eq!(
            scans_found(
                "void psum(float* a, float* out, int n) {
                     float s = 0.0;
                     for (int i = 0; i < n; i++) { s += a[i]; out[i] = s; }
                 }"
            ),
            1
        );
    }

    #[test]
    fn finds_exclusive_prefix_sum() {
        assert_eq!(
            scans_found(
                "void epsum(float* a, float* out, int n) {
                     float s = 0.0;
                     for (int i = 0; i < n; i++) { out[i] = s; s += a[i]; }
                 }"
            ),
            1
        );
    }

    #[test]
    fn finds_integer_prefix_sum() {
        assert_eq!(
            scans_found(
                "void count_offsets(int* flags, int* offs, int n) {
                     int c = 0;
                     for (int i = 0; i < n; i++) { c += flags[i]; offs[i] = c; }
                 }"
            ),
            1
        );
    }

    #[test]
    fn finds_running_minimum() {
        assert_eq!(
            scans_found(
                "void runmin(float* a, float* out, int n) {
                     float m = 1.0e30;
                     for (int i = 0; i < n; i++) { m = fmin(m, a[i]); out[i] = m; }
                 }"
            ),
            1
        );
    }

    #[test]
    fn rejects_plain_scalar_reduction() {
        // No per-iteration store: the scan spec has nothing to bind.
        assert_eq!(
            scans_found(
                "float f(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }"
            ),
            0
        );
    }

    #[test]
    fn rejects_output_read_in_loop() {
        // Reading the output array adds a second carried dependence.
        assert_eq!(
            scans_found(
                "void f(float* a, float* out, int n) {
                     float s = 0.0;
                     for (int i = 1; i < n; i++) { s += a[i] + out[i - 1]; out[i] = s; }
                 }"
            ),
            0
        );
    }

    #[test]
    fn rejects_histogram_as_scan() {
        // The histogram's bins are loaded as well as stored.
        assert_eq!(
            scans_found(
                "void h(int* bins, int* k, int n) { for (int i = 0; i < n; i++) bins[k[i]]++; }"
            ),
            0
        );
    }

    #[test]
    fn rejects_data_dependent_output_index() {
        // `out[k[i]] = s` satisfies the structural constraints (the spec
        // leaves the output index free) and is rejected by the strided
        // post-check.
        let src = "void f(float* a, int* k, float* out, int n) {
                     float s = 0.0;
                     for (int i = 0; i < n; i++) { s += a[i]; out[k[i]] = s; }
                 }";
        assert_eq!(scans_found(src), 1);
        let m = compile(src).unwrap();
        let rs = crate::detect::detect_reductions(&m);
        assert!(rs.iter().all(|r| r.kind != ReductionKind::Scan), "{rs:?}");
    }

    #[test]
    fn constant_index_passes_spec_but_fails_post_check() {
        // The *spec* matches `out[0] = s`; the strided post-check rejects
        // its constant (slope 0) index — detect-level coverage lives in
        // `detect::tests`.
        assert_eq!(
            scans_found(
                "void f(float* a, float* out, int n) {
                     float s = 0.0;
                     for (int i = 0; i < n; i++) { s += a[i]; out[0] = s; }
                 }"
            ),
            1
        );
    }

    #[test]
    fn non_associative_update_passes_spec_but_fails_post_check() {
        // `s = a[i] - s` satisfies the structural constraints (the spec
        // cannot see associativity — the paper performs that check in post
        // processing) and is rejected by `classify_update`.
        let src = "void f(float* a, float* out, int n) {
                     float s = 0.0;
                     for (int i = 0; i < n; i++) { s = a[i] - s; out[i] = s; }
                 }";
        assert_eq!(scans_found(src), 1);
        let m = compile(src).unwrap();
        assert!(crate::detect::detect_reductions(&m).is_empty());
    }
}
