//! The map-reduce fusion idiom — the first spec whose constraint problem
//! spans **two loops**:
//!
//! ```c
//! float f(float* a, int n) {
//!     float tmp[N];
//!     for (int i = 0; i < n; i++) tmp[i] = a[i] * a[i];   // map
//!     float s = 0.0;
//!     for (int j = 0; j < n; j++) s += tmp[j];            // reduce
//!     return s;
//! }
//! ```
//!
//! The spec stacks **two instances of the for-loop prefix**
//! ([`add_for_loop_pair`]): the producer loop (plain label names) and the
//! consumer loop (`_r`-suffixed labels). The detection driver solves the
//! for-loop sub-problem once per function as usual and resumes this spec
//! from every ordered *pair* of cached solutions
//! ([`solve_extend`](crate::solver::solve_extend)); the cross-loop
//! conjuncts below mention only prefix labels, so they prune each pair
//! before a single extension label is searched.
//!
//! On top of the pair the extension binds:
//!
//! * `p_store` / `p_addr` / `tmp_base` / `p_val` — the producer's store
//!   `tmp[i] = p_val` through `gep(tmp_base, iterator)`, anchored in the
//!   producer body and executed every iteration,
//! * `c_load` / `c_addr` — the consumer's load `tmp[j]` through
//!   `gep(tmp_base, iterator_r)`, anchored to the reduction loop,
//! * `acc` / `acc_init` / `acc_next` — the consumer's carried scalar,
//!   with exactly the scalar-reduction discipline (generalized dominance
//!   + forward confinement),
//!
//! and the three cross-loop atoms this idiom introduced:
//!
//! * [`Atom::SameTripCount`] — both loops visit the same index sequence,
//!   so iteration `k` of the fused loop reads exactly what iteration `k`
//!   of the producer wrote,
//! * [`Atom::OnlyConsumedBy`] — function-wide, nothing but the producer
//!   store and the consumer load touches `tmp`'s object, so eliding the
//!   array is unobservable,
//! * [`Atom::NoInterveningWrites`] — the straight-line region between the
//!   loops writes nothing, so moving the producer's reads to consumer
//!   time cannot observe different memory.
//!
//! The post-check adds what the language cannot express: the update must
//! be associative ([`classify_update`]), the intermediate must be a
//! non-escaping local (`tmp` live-out or aliasing an input refuses
//! fusion — its root must be an `alloca` outside every loop), the
//! producer must carry no state besides its induction variable, and both
//! loop bodies must be effect-free apart from the producer store itself.

use crate::atoms::{Atom, MatchCtx, OpClass};
use crate::constraint::{Label, Spec, SpecBuilder};
use crate::postcheck::classify_update;
use crate::report::{Reduction, ReductionKind, ReductionOp};
use crate::spec::forloop::{add_for_loop_pair, ForLoopLabels};
use crate::spec::registry::IdiomEntry;
use gr_analysis::dataflow::root_object;
use gr_ir::{Opcode, ValueId};

/// Labels of the map-reduce fusion idiom.
#[derive(Debug, Clone, Copy)]
pub struct FusionLabels {
    /// The producer loop (prefix instance 0, plain label names).
    pub producer: ForLoopLabels,
    /// The consumer loop (prefix instance 1, `_r`-suffixed label names).
    pub consumer: ForLoopLabels,
    /// The producer's store into the intermediate array.
    pub p_store: Label,
    /// The store's address computation `gep(tmp_base, iterator)`.
    pub p_addr: Label,
    /// The intermediate array pointer.
    pub tmp_base: Label,
    /// The value the producer materializes.
    pub p_val: Label,
    /// The consumer's load of the intermediate.
    pub c_load: Label,
    /// The load's address computation `gep(tmp_base, iterator_r)`.
    pub c_addr: Label,
    /// Accumulator phi in the consumer header.
    pub acc: Label,
    /// Accumulator value entering the consumer loop.
    pub acc_init: Label,
    /// Accumulator value produced by each consumer iteration.
    pub acc_next: Label,
}

/// Builds the map-reduce fusion specification.
#[must_use]
pub fn map_reduce_fusion_spec() -> (Spec, FusionLabels) {
    let mut b = SpecBuilder::new("map-reduce-fusion");
    let (p, c) = add_for_loop_pair(&mut b, "_r");

    // Cross-loop structure, entirely over prefix labels: the solver
    // decides these once per resumed (producer, consumer) pair.
    b.atom(Atom::Dominates { a: p.exit, b: c.preheader });
    b.atom(Atom::SameTripCount { h1: p.header, h2: c.header });
    b.atom(Atom::NoInterveningWrites { from: p.exit, to: c.preheader });

    // The producer's store: `tmp[iterator] = p_val`, sitting in the first
    // body block (so it executes unconditionally every iteration — the
    // consumer reads every element).
    let p_store = b.label("p_store");
    let p_addr = b.label("p_addr");
    let tmp_base = b.label("tmp_base");
    let p_val = b.label("p_val");
    b.atom(Atom::Opcode { l: p_store, class: OpClass::Store });
    b.atom(Atom::AnchoredTo { inst: p_store, header: p.header });
    b.atom(Atom::BlockOf { inst: p_store, block: p.body });
    b.atom(Atom::OperandIs { inst: p_store, index: 1, value: p_addr });
    b.atom(Atom::OperandIs { inst: p_addr, index: 0, value: tmp_base });
    b.atom(Atom::OperandIs { inst: p_addr, index: 1, value: p.iterator });
    b.atom(Atom::InvariantIn { value: tmp_base, header: p.header });
    b.atom(Atom::OperandIs { inst: p_store, index: 0, value: p_val });

    // The consumer's load: `tmp[iterator_r]` through the same base
    // pointer (the frontend binds an array name to one SSA value, so the
    // two loops share `tmp_base` by value identity).
    let c_addr = b.label("c_addr");
    let c_load = b.label("c_load");
    b.atom(Atom::OperandIs { inst: c_addr, index: 0, value: tmp_base });
    b.atom(Atom::OperandIs { inst: c_addr, index: 1, value: c.iterator });
    b.atom(Atom::OperandIs { inst: c_load, index: 0, value: c_addr });
    b.atom(Atom::AnchoredTo { inst: c_load, header: c.header });

    // Function-wide confinement of the intermediate: produced here,
    // consumed there, touched nowhere else.
    b.atom(Atom::OnlyConsumedBy { ptr: tmp_base, allowed: vec![p_store, c_load] });

    // The consumer's carried scalar — verbatim the scalar-reduction
    // discipline on the `_r` loop.
    let acc = b.label("acc");
    let acc_next = b.label("acc_next");
    let acc_init = b.label("acc_init");
    b.atom(Atom::BlockOf { inst: acc, block: c.header });
    b.atom(Atom::Opcode { l: acc, class: OpClass::Phi });
    b.atom(Atom::TypeScalar(acc));
    b.atom(Atom::PhiIncoming { phi: acc, value: acc_next, block: c.latch });
    b.atom(Atom::PhiIncoming { phi: acc, value: acc_init, block: c.preheader });
    b.atom(Atom::ComputedOnlyFrom {
        output: acc_next,
        header: c.header,
        iterator: c.iterator,
        allowed: vec![acc],
    });
    b.atom(Atom::UsesConfinedTo { source: acc, header: c.header, terminals: vec![] });

    (
        b.finish(),
        FusionLabels {
            producer: p,
            consumer: c,
            p_store,
            p_addr,
            tmp_base,
            p_val,
            c_load,
            c_addr,
            acc,
            acc_init,
            acc_next,
        },
    )
}

/// The map-reduce fusion idiom's registry entry.
#[must_use]
pub fn idiom() -> IdiomEntry {
    let (spec, _) = map_reduce_fusion_spec();
    IdiomEntry::new("map-reduce-fusion", spec, anchor, post_check, classify).with_finalize(finalize)
}

fn anchor(spec: &Spec, s: &[ValueId]) -> (ValueId, ValueId) {
    (s[spec.label("acc").index()], s[spec.label("p_store").index()])
}

/// Post-check: associativity of the consumer update, plus the conditions
/// outside the constraint language that make *eliding* the intermediate
/// sound — `tmp` must be a non-escaping local (an `alloca` outside every
/// loop: an argument or global may alias an input or be observed by the
/// caller), the producer must carry nothing but its induction variable
/// (a carried producer value is a scan, not a map), and both loop bodies
/// must be pure apart from the producer store itself (a second store
/// could write memory the moved producer reads).
fn post_check(ctx: &MatchCtx<'_>, spec: &Spec, s: &[ValueId]) -> Option<ReductionOp> {
    let c_lid = ctx.loop_of_header(s[spec.label("header_r").index()])?;
    let p_lid = ctx.loop_of_header(s[spec.label("header").index()])?;
    let acc = s[spec.label("acc").index()];
    let acc_next = s[spec.label("acc_next").index()];
    let op = classify_update(ctx.func, ctx.analyses, c_lid, acc, acc_next)?;

    // `tmp` must be a function-local allocation outside every loop.
    let tmp_root = root_object(ctx.func, s[spec.label("tmp_base").index()])?;
    if ctx.func.value(tmp_root).kind.opcode() != Some(&Opcode::Alloca) {
        return None;
    }
    let root_block = *ctx.inst_blocks.get(&tmp_root)?;
    if ctx.analyses.loops.innermost_of(root_block).is_some() {
        return None;
    }

    // The producer header carries only the induction variable.
    let p_iter = s[spec.label("iterator").index()];
    let p = ctx.analyses.loops.get(p_lid);
    for &inst in &ctx.func.block(p.header).insts {
        if ctx.func.value(inst).kind.opcode() == Some(&Opcode::Phi) && inst != p_iter {
            return None;
        }
    }

    // Effect discipline: the producer body stores only through `p_store`;
    // the consumer body stores nothing; neither calls impure functions.
    let p_store = s[spec.label("p_store").index()];
    let pure_loop =
        |lid, allowed_store: Option<ValueId>| {
            let l = ctx.analyses.loops.get(lid);
            l.blocks.iter().all(|&b| {
                ctx.func.block(b).insts.iter().all(|&inst| {
                    match ctx.func.value(inst).kind.opcode() {
                        Some(Opcode::Store) => Some(inst) == allowed_store,
                        Some(Opcode::Alloca | Opcode::Ret) => false,
                        Some(Opcode::Call(name)) => ctx.analyses.purity.is_pure(name),
                        _ => true,
                    }
                })
            })
        };
    (pure_loop(p_lid, Some(p_store)) && pure_loop(c_lid, None)).then_some(op)
}

fn classify(ctx: &MatchCtx<'_>, spec: &Spec, s: &[ValueId], op: ReductionOp) -> Option<Reduction> {
    let c_lid = ctx.loop_of_header(s[spec.label("header_r").index()])?;
    let p_lid = ctx.loop_of_header(s[spec.label("header").index()])?;
    let acc = s[spec.label("acc").index()];
    // Affinity is judged on the producer's value chain: the fused body
    // reads what the producer read, where the producer read it.
    let p_iter = s[spec.label("iterator").index()];
    let p_val = s[spec.label("p_val").index()];
    let walk = crate::detect::update_walk(ctx, p_lid, p_iter, &[], p_val);
    let affine = crate::detect::loads_affine(ctx, p_lid, p_iter, &walk.loads);
    let l = ctx.analyses.loops.get(c_lid);
    Some(Reduction {
        function: ctx.func.name.clone(),
        kind: ReductionKind::MapReduceFusion,
        op,
        header: l.header,
        depth: l.depth,
        anchor: acc,
        object: root_object(ctx.func, s[spec.label("tmp_base").index()]),
        affine,
        arg_pred: None,
        bindings: crate::detect::bindings(&spec.label_names, s),
    })
}

/// One fusion per accumulator: if several (store, load) chains reach the
/// same consumer accumulator (they cannot, given `OnlyConsumedBy`, but
/// solver-level duplicates with swapped intermediate labels would), keep
/// the first.
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

    /// Distinct (function, acc, p_store) pairs matched by the raw spec
    /// (post-check not applied).
    fn fusions_found(src: &str) -> usize {
        let m = compile(src).unwrap();
        let mut found = HashSet::new();
        for func in &m.functions {
            let analyses = Analyses::new(&m, func);
            let ctx = MatchCtx::new(&m, func, &analyses);
            let (spec, labels) = map_reduce_fusion_spec();
            let (sols, stats) = solve(&spec, &ctx, SolveOptions::default());
            assert!(!stats.truncated, "solver truncated on {}", func.name);
            for s in sols {
                found.insert((func.name.clone(), s[labels.acc.index()], s[labels.p_store.index()]));
            }
        }
        found.len()
    }

    const FUSION_SRC: &str = "float f(float* a, int n) {
             float tmp[4096];
             for (int i = 0; i < n; i++) tmp[i] = a[i] * a[i];
             float s = 0.0;
             for (int j = 0; j < n; j++) s += tmp[j];
             return s;
         }";

    #[test]
    fn finds_square_sum_fusion() {
        assert_eq!(fusions_found(FUSION_SRC), 1);
    }

    #[test]
    fn fusion_detected_end_to_end_with_op() {
        let m = compile(FUSION_SRC).unwrap();
        let rs = crate::detect::detect_reductions(&m);
        let fusion: Vec<_> = rs.iter().filter(|r| r.kind.is_fusion()).collect();
        assert_eq!(fusion.len(), 1, "{rs:?}");
        assert_eq!(fusion[0].op, ReductionOp::Add);
        assert!(fusion[0].affine);
        // The consumer accumulator is *also* a plain scalar reduction —
        // both reports coexist; exploitation prefers the fusion.
        assert!(rs.iter().any(|r| r.kind.is_scalar()), "{rs:?}");
    }

    #[test]
    fn rejects_different_trip_counts() {
        assert_eq!(
            fusions_found(
                "float f(float* a, int n, int m) {
                     float tmp[4096];
                     for (int i = 0; i < n; i++) tmp[i] = a[i] * a[i];
                     float s = 0.0;
                     for (int j = 0; j < m; j++) s += tmp[j];
                     return s;
                 }"
            ),
            0
        );
    }

    #[test]
    fn rejects_tmp_read_elsewhere() {
        // `tmp[0]` read after the reduction: OnlyConsumedBy fails.
        assert_eq!(
            fusions_found(
                "float f(float* a, int n) {
                     float tmp[4096];
                     for (int i = 0; i < n; i++) tmp[i] = a[i] * a[i];
                     float s = 0.0;
                     for (int j = 0; j < n; j++) s += tmp[j];
                     return s + tmp[0];
                 }"
            ),
            0
        );
    }

    #[test]
    fn rejects_intervening_write() {
        // A store to the producer's input between the loops: fusing would
        // read the updated value.
        assert_eq!(
            fusions_found(
                "float f(float* a, int n) {
                     float tmp[4096];
                     for (int i = 0; i < n; i++) tmp[i] = a[i] * a[i];
                     a[0] = 7.0;
                     float s = 0.0;
                     for (int j = 0; j < n; j++) s += tmp[j];
                     return s;
                 }"
            ),
            0
        );
    }

    #[test]
    fn rejects_shifted_consumer_index() {
        // `tmp[…]` must be indexed by the raw iterator on both sides: a
        // reversed read order consumes elements of *other* iterations.
        assert_eq!(
            fusions_found(
                "float f(float* a, int n) {
                     float tmp[4096];
                     for (int i = 0; i < n; i++) tmp[i] = a[i] * a[i];
                     float s = 0.0;
                     for (int j = 0; j < n; j++) s += tmp[n - 1 - j];
                     return s;
                 }"
            ),
            0
        );
    }

    #[test]
    fn aliased_argument_tmp_passes_spec_but_fails_post_check() {
        // The intermediate is a function argument: the *spec* still
        // matches (value flow is identical) but the post-check refuses —
        // the caller observes `tmp`, and it may alias `a`.
        let src = "float f(float* a, float* tmp, int n) {
                 for (int i = 0; i < n; i++) tmp[i] = a[i] * a[i];
                 float s = 0.0;
                 for (int j = 0; j < n; j++) s += tmp[j];
                 return s;
             }";
        assert_eq!(fusions_found(src), 1);
        let m = compile(src).unwrap();
        let rs = crate::detect::detect_reductions(&m);
        assert!(!rs.iter().any(|r| r.kind.is_fusion()), "{rs:?}");
    }

    #[test]
    fn pair_prefix_shares_the_for_loop_fingerprint() {
        let (spec, _) = map_reduce_fusion_spec();
        let p = spec.prefix.unwrap();
        assert_eq!(p.instances, 2);
        let (single, _) = crate::spec::for_loop_spec();
        let ps = single.prefix.unwrap();
        assert_eq!(p.fingerprint, ps.fingerprint, "instance 0 IS the for-loop prefix");
        assert_eq!(p.labels, ps.labels);
        assert_eq!(p.total_labels(), 2 * ps.labels);
    }
}
