//! The histogram (generalized reduction) idiom — paper §3.1.2.
//!
//! Composed as `for-loop ⨯ extension`: the loop skeleton is the shared
//! spec prefix ([`add_for_loop`]), solved once per function and resumed
//! here, so this spec pays only for its seven own labels (see
//! [`crate::spec::registry`]).
//!
//! On top of the for-loop structure, a histogram binds a load-modify-store
//! through one `gep` whose index is computed only from array reads and
//! loop-invariant values (conditions 3–5 of the paper's definition):
//!
//! * `store` — anchored directly to the reduction loop (not to a nested
//!   loop: this is what makes the paper's system reject the SP `rms` nest,
//!   where the update sits in an inner loop over the bin index),
//! * `addr` — the shared `gep`; `old` loads through it *before* the store,
//! * `base` — the histogram array, loop-invariant and accessed by nothing
//!   else inside the loop (no aliased reads feeding other computation),
//! * `idx` — generalized-dominance-checked with **no** direct access to the
//!   induction variable (only inside address computations of input-array
//!   reads, e.g. `key2[i]` in IS or the binary search of tpacf),
//! * `newv` — computed only from `old` plus input reads and invariants.

use crate::atoms::{Atom, MatchCtx, OpClass};
use crate::constraint::{Constraint, Label, Spec, SpecBuilder};
use crate::postcheck::classify_update;
use crate::report::{Reduction, ReductionKind, ReductionOp};
use crate::spec::forloop::{add_for_loop, ForLoopLabels};
use crate::spec::registry::IdiomEntry;
use gr_analysis::dataflow::root_object;
use gr_ir::ValueId;

/// Labels of the histogram idiom.
#[derive(Debug, Clone, Copy)]
pub struct HistogramLabels {
    /// The for-loop sub-idiom.
    pub for_loop: ForLoopLabels,
    /// The updating store.
    pub store: Label,
    /// The store's address computation.
    pub addr: Label,
    /// The load's address computation (same `(base, idx)`; without GVN the
    /// source expression `h[v] = h[v] + 1` produces two geps).
    pub addr_load: Label,
    /// The histogram array pointer.
    pub base: Label,
    /// The bin index of the store.
    pub idx: Label,
    /// The bin index of the load: the same value, or a syntactic duplicate
    /// of it (a second load through the same `(base, idx)` of unwritten
    /// index memory — the sparse/conditional form `h[k[i]] = h[k[i]] + w[i]`
    /// re-materializes `k[i]` on each side).
    pub idx_load: Label,
    /// The loaded old bin value.
    pub old: Label,
    /// The stored new bin value.
    pub newv: Label,
}

/// Builds the histogram-reduction specification.
#[must_use]
pub fn histogram_spec() -> (Spec, HistogramLabels) {
    let mut b = SpecBuilder::new("histogram-reduction");
    let fl = add_for_loop(&mut b);

    let store = b.label("store");
    let addr = b.label("addr");
    let base = b.label("base");
    let idx = b.label("idx");
    let addr_load = b.label("addr_load");
    let old = b.label("old");
    let newv = b.label("newv");
    let idx_load = b.label("idx_load");
    let src_gep_s = b.label("src_gep_s");
    let src_gep_l = b.label("src_gep_l");
    let src_base = b.label("src_base");
    let src_idx = b.label("src_idx");

    // Condition 4: read and write the same array cell, once per iteration.
    b.atom(Atom::Opcode { l: store, class: OpClass::Store });
    b.atom(Atom::AnchoredTo { inst: store, header: fl.header });
    b.atom(Atom::OperandIs { inst: store, index: 1, value: addr });
    b.atom(Atom::OperandIs { inst: addr, index: 0, value: base });
    b.atom(Atom::OperandIs { inst: addr, index: 1, value: idx });
    // The load goes through a gep with the *same* base (it may be the same
    // instruction or a syntactic duplicate); the index equivalence is a
    // disjunction below.
    b.atom(Atom::OperandIs { inst: addr_load, index: 0, value: base });
    b.atom(Atom::OperandIs { inst: addr_load, index: 1, value: idx_load });
    b.atom(Atom::Opcode { l: old, class: OpClass::Load });
    b.atom(Atom::OperandIs { inst: old, index: 0, value: addr_load });

    // The histogram object itself is fixed across the loop and untouched
    // except through this update.
    b.atom(Atom::InvariantIn { value: base, header: fl.header });
    b.atom(Atom::OnlyObjectAccesses { ptr: base, header: fl.header, allowed: vec![old, store] });

    // Condition 3: idx from array values and loop constants only.
    b.atom(Atom::ComputedOnlyFrom {
        output: idx,
        header: fl.header,
        iterator: fl.iterator,
        allowed: vec![],
    });

    // Condition 5: x' from x, array values and loop constants only.
    b.atom(Atom::OperandIs { inst: store, index: 0, value: newv });
    b.atom(Atom::ComputedOnlyFrom {
        output: newv,
        header: fl.header,
        iterator: fl.iterator,
        allowed: vec![old],
    });
    // Privatization safety: the old value leaks only into the new value.
    b.atom(Atom::UsesConfinedTo { source: old, header: fl.header, terminals: vec![store] });

    // The two index equivalences. Shared: load and store address the same
    // index value (the `+=` form — the auxiliary labels are pinned with
    // [`Atom::Equal`] so the branch stays generator-friendly). Duplicated:
    // both indices are loads through geps with identical `(base, index)`
    // operands, each reading memory the loop never writes — so the two
    // loads observe the same bin, as in the sparse/conditional form
    // `if (w[i] != 0) h[k[i]] = h[k[i]] + w[i]` where `k[i]` is
    // re-materialized on each side of the assignment.
    let shared = Constraint::And(vec![
        Constraint::Atom(Atom::Equal { a: idx_load, b: idx }),
        Constraint::Atom(Atom::Equal { a: src_gep_s, b: addr }),
        Constraint::Atom(Atom::Equal { a: src_gep_l, b: addr_load }),
        Constraint::Atom(Atom::Equal { a: src_base, b: base }),
        Constraint::Atom(Atom::Equal { a: src_idx, b: idx }),
    ]);
    let duplicated = Constraint::And(vec![
        Constraint::Atom(Atom::NotEqual { a: idx_load, b: idx }),
        Constraint::Atom(Atom::Opcode { l: idx, class: OpClass::Load }),
        Constraint::Atom(Atom::OperandIs { inst: idx, index: 0, value: src_gep_s }),
        Constraint::Atom(Atom::Opcode { l: src_gep_s, class: OpClass::Gep }),
        Constraint::Atom(Atom::OperandIs { inst: src_gep_s, index: 0, value: src_base }),
        Constraint::Atom(Atom::OperandIs { inst: src_gep_s, index: 1, value: src_idx }),
        Constraint::Atom(Atom::Opcode { l: idx_load, class: OpClass::Load }),
        Constraint::Atom(Atom::OperandIs { inst: idx_load, index: 0, value: src_gep_l }),
        Constraint::Atom(Atom::Opcode { l: src_gep_l, class: OpClass::Gep }),
        Constraint::Atom(Atom::OperandIs { inst: src_gep_l, index: 0, value: src_base }),
        Constraint::Atom(Atom::OperandIs { inst: src_gep_l, index: 1, value: src_idx }),
        // The duplicate must read unwritten memory too, so both loads
        // observe the same value (`idx` is covered by its own
        // generalized-dominance atom above).
        Constraint::Atom(Atom::ComputedOnlyFrom {
            output: idx_load,
            header: fl.header,
            iterator: fl.iterator,
            allowed: vec![],
        }),
    ]);
    b.any(vec![shared, duplicated]);

    (
        b.finish(),
        HistogramLabels { for_loop: fl, store, addr, addr_load, base, idx, idx_load, old, newv },
    )
}

/// The histogram idiom's registry entry.
#[must_use]
pub fn idiom() -> IdiomEntry {
    let (spec, _) = histogram_spec();
    IdiomEntry::new("histogram-reduction", spec, anchor, post_check, classify)
}

fn anchor(spec: &Spec, s: &[ValueId]) -> (ValueId, ValueId) {
    let store = s[spec.label("store").index()];
    (store, store)
}

/// Post-check: associativity of the bin update.
fn post_check(ctx: &MatchCtx<'_>, spec: &Spec, s: &[ValueId]) -> Option<ReductionOp> {
    let lid = ctx.loop_of_header(s[spec.label("header").index()])?;
    let old = s[spec.label("old").index()];
    let newv = s[spec.label("newv").index()];
    classify_update(ctx.func, ctx.analyses, lid, old, newv)
}

fn classify(ctx: &MatchCtx<'_>, spec: &Spec, s: &[ValueId], op: ReductionOp) -> Option<Reduction> {
    let func = ctx.func;
    let lid = ctx.loop_of_header(s[spec.label("header").index()])?;
    let iterator = s[spec.label("iterator").index()];
    let old = s[spec.label("old").index()];
    let newv = s[spec.label("newv").index()];
    let object = root_object(func, s[spec.label("base").index()]);
    // Affinity of the inputs feeding idx and newv.
    let idx_walk =
        crate::detect::update_walk(ctx, lid, iterator, &[], s[spec.label("idx").index()]);
    let new_walk = crate::detect::update_walk(ctx, lid, iterator, &[old], newv);
    let mut loads = idx_walk.loads.clone();
    loads.extend(new_walk.loads.iter().copied());
    let affine = crate::detect::loads_affine(ctx, lid, iterator, &loads);
    let l = ctx.analyses.loops.get(lid);
    Some(Reduction {
        function: func.name.clone(),
        kind: ReductionKind::Histogram,
        op,
        header: l.header,
        depth: l.depth,
        anchor: s[spec.label("store").index()],
        object,
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

    fn histograms_found(src: &str) -> usize {
        let m = compile(src).unwrap();
        let mut found = HashSet::new();
        for func in &m.functions {
            let analyses = Analyses::new(&m, func);
            let ctx = MatchCtx::new(&m, func, &analyses);
            let (spec, labels) = histogram_spec();
            let (sols, stats) = solve(&spec, &ctx, SolveOptions::default());
            assert!(!stats.truncated, "solver truncated on {}", func.name);
            for s in sols {
                found.insert((func.name.clone(), s[labels.store.index()]));
            }
        }
        found.len()
    }

    #[test]
    fn finds_is_style_histogram() {
        // The paper's IS bottleneck: key_buff_ptr[key_buff_ptr2[i]]++.
        assert_eq!(
            histograms_found(
                "void rank(int* key_buff, int* key2, int n) {
                     for (int i = 0; i < n; i++) key_buff[key2[i]]++;
                 }"
            ),
            1
        );
    }

    #[test]
    fn finds_ep_style_histogram() {
        // Figure 2 of the paper: conditional update, pure calls, bin index
        // from computed data.
        assert_eq!(
            histograms_found(
                "void ep(float* x, float* q, int nk) {
                     for (int i = 0; i < nk; i++) {
                         float x1 = 2.0 * x[2*i] - 1.0;
                         float x2 = 2.0 * x[2*i+1] - 1.0;
                         float t1 = x1*x1 + x2*x2;
                         if (t1 <= 1.0) {
                             float t2 = sqrt(-2.0 * log(t1) / t1);
                             int l = fmax(fabs(x1*t2), fabs(x2*t2));
                             q[l] = q[l] + 1.0;
                         }
                     }
                 }"
            ),
            1
        );
    }

    #[test]
    fn rejects_iterator_as_bin_index() {
        // a[i] += b[i] is a map/stream update, not a histogram (and the SP
        // rms pattern at the innermost level).
        assert_eq!(
            histograms_found(
                "void f(float* a, float* b, int n) {
                     for (int i = 0; i < n; i++) a[i] = a[i] + b[i];
                 }"
            ),
            0
        );
    }

    #[test]
    fn rejects_update_buried_in_inner_loop() {
        // The SP rms nest: the store is anchored to the inner m-loop whose
        // index is its own iterator; at the outer loop it is not anchored.
        assert_eq!(
            histograms_found(
                "void rms_nest(float* rhs, float* rms, int nx) {
                     for (int i = 0; i < nx; i++) {
                         for (int m = 0; m < 5; m++) {
                             float add = rhs[i * 5 + m];
                             rms[m] = rms[m] + add * add;
                         }
                     }
                 }"
            ),
            0
        );
    }

    #[test]
    fn finds_histogram_after_inner_search_loop() {
        // tpacf-style: the bin index is found by binary search in an input
        // array; the update itself is anchored to the outer loop.
        assert_eq!(
            histograms_found(
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
                 }"
            ),
            1
        );
    }

    #[test]
    fn rejects_bin_index_depending_on_histogram() {
        // idx reads the histogram itself: not privatizable.
        assert_eq!(
            histograms_found(
                "void f(int* h, int* k, int n) {
                     for (int i = 0; i < n; i++) h[h[k[i]] % 8]++;
                 }"
            ),
            0
        );
    }

    #[test]
    fn rejects_histogram_read_elsewhere_in_loop() {
        assert_eq!(
            histograms_found(
                "void f(int* h, int* k, int* out, int n) {
                     for (int i = 0; i < n; i++) { h[k[i]]++; out[i] = h[0]; }
                 }"
            ),
            0
        );
    }

    #[test]
    fn finds_saturating_histogram() {
        // Parboil histo: saturating increment under a condition on the old
        // value.
        assert_eq!(
            histograms_found(
                "void histo(int* h, int* img, int n) {
                     for (int i = 0; i < n; i++) {
                         int v = img[i];
                         int old = h[v];
                         if (old < 255) h[v] = old + 1;
                     }
                 }"
            ),
            1
        );
    }

    #[test]
    fn finds_sparse_conditional_histogram_with_duplicated_index_load() {
        // `h[k[i]] = h[k[i]] + w[i]` re-materializes `k[i]` on each side of
        // the assignment: the load and store indices are distinct load
        // instructions over the same unwritten cell. The `Or`'s duplicated
        // branch accepts them.
        assert_eq!(
            histograms_found(
                "void sparse(float* h, int* k, float* w, int n) {
                     for (int i = 0; i < n; i++) {
                         if (w[i] != 0.0) h[k[i]] = h[k[i]] + w[i];
                     }
                 }"
            ),
            1
        );
    }

    #[test]
    fn finds_sparse_histogram_with_hoisted_old_load() {
        // The old value is loaded before the guard, the store inside it.
        assert_eq!(
            histograms_found(
                "void sparse(int* h, int* k, int* w, int n) {
                     for (int i = 0; i < n; i++) {
                         int wi = w[i];
                         int old = h[k[i]];
                         if (wi != 0) h[k[i]] = old + wi;
                     }
                 }"
            ),
            1
        );
    }

    #[test]
    fn rejects_duplicated_index_from_written_memory() {
        // The index array is itself rewritten inside the loop: the two
        // `k[i]` loads may observe different bins.
        assert_eq!(
            histograms_found(
                "void f(int* h, int* k, int n) {
                     for (int i = 0; i < n; i++) {
                         h[k[i]] = h[k[i]] + 1;
                         k[i] = k[i] + 1;
                     }
                 }"
            ),
            0
        );
    }

    #[test]
    fn rejects_non_counted_loop() {
        assert_eq!(
            histograms_found(
                "void f(int* h, int* k) {
                     int i = 0;
                     while (k[i] >= 0) { h[k[i]]++; i++; }
                 }"
            ),
            0
        );
    }
}
