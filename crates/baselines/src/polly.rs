//! The Polly-Reduction model (paper §5.2, evaluated in §6).
//!
//! Polly operates on SCoPs — *static control parts*: maximal loop nests
//! with affine loop bounds, affine memory accesses, affine branch
//! conditions and no function calls. The paper finds that this makes the
//! approach fragile on NAS/Parboil/Rodinia: "not statically known iteration
//! spaces and the use of flat array structures" defeat it, and indirect
//! memory access "contradicts the affine memory access condition".
//!
//! Modelled rules for a valid SCoP (a top-level loop nest):
//!
//! * every loop in the nest is a counted `for` loop with a single exit and
//!   bounds invariant in the nest or affine in outer iterators;
//! * no calls (not even pure ones — Polly bails on call sites);
//! * every access index is affine in the nest iterators **with
//!   integer-constant coefficients** on iterators (a flat `a[i*m + j]`
//!   with parametric `m` is rejected, which is exactly the "flat array
//!   structures" failure the paper describes);
//! * every branch condition inside the nest is an integer comparison of
//!   such affine expressions (float or data-dependent conditions reject).
//!
//! Reductions inside a SCoP (Doerfert et al.): scalar accumulator phis
//! with `+`/`*` update chains, and affine load-modify-store pairs
//! (`rms[m] += …`).

use gr_analysis::loops::{match_for_shape, LoopForest, LoopId};
use gr_analysis::Analyses;
use gr_ir::{BinOp, BlockId, Function, Module, Opcode, Type, ValueId, ValueKind};
use std::collections::HashSet;

/// A detected static control part.
#[derive(Debug, Clone)]
pub struct Scop {
    /// Containing function.
    pub function: String,
    /// Header of the outermost loop of the nest.
    pub header: BlockId,
    /// Number of reduction accesses found inside.
    pub reductions: usize,
}

impl Scop {
    /// Whether Polly-Reduction would report this SCoP as a reduction SCoP.
    #[must_use]
    pub fn is_reduction(&self) -> bool {
        self.reductions > 0
    }
}

/// Whole-module Polly results.
#[derive(Debug, Clone, Default)]
pub struct PollyReport {
    /// All SCoPs.
    pub scops: Vec<Scop>,
}

impl PollyReport {
    /// Number of SCoPs found.
    #[must_use]
    pub fn scop_count(&self) -> usize {
        self.scops.len()
    }

    /// Number of SCoPs containing reductions.
    #[must_use]
    pub fn reduction_scop_count(&self) -> usize {
        self.scops.iter().filter(|s| s.is_reduction()).count()
    }
}

/// Runs the Polly model over a module.
#[must_use]
pub fn polly_detect(module: &Module) -> PollyReport {
    let mut report = PollyReport::default();
    for func in &module.functions {
        let analyses = Analyses::new(module, func);
        let forest = &analyses.loops;
        for (i, l) in forest.loops().iter().enumerate() {
            if l.parent.is_some() {
                continue; // only top-level nests form SCoP candidates
            }
            let lid = LoopId(i as u32);
            if let Some(scop) = validate_nest(func, &analyses, forest, lid) {
                report.scops.push(Scop {
                    function: func.name.clone(),
                    header: l.header,
                    reductions: scop,
                });
            }
        }
    }
    report
}

/// Validates the loop nest rooted at `lid`; returns the number of
/// reductions inside when the nest is a SCoP.
fn validate_nest(
    func: &Function,
    analyses: &Analyses,
    forest: &LoopForest,
    lid: LoopId,
) -> Option<usize> {
    // Collect the nest: this loop and everything inside it.
    let root = forest.get(lid);
    let mut nest_loops: Vec<LoopId> = vec![lid];
    for (j, other) in forest.loops().iter().enumerate() {
        if LoopId(j as u32) != lid && root.blocks.contains(&other.header) {
            nest_loops.push(LoopId(j as u32));
        }
    }
    // Every loop must be counted with a single exit target, and every
    // carried scalar must be representable (the induction variable or an
    // add/mul recurrence): an LCG-style recurrence rejects the SCoP.
    let mut iterators: Vec<ValueId> = Vec::new();
    let mut tests: HashSet<ValueId> = HashSet::new();
    for &nl in &nest_loops {
        let shape = match_for_shape(func, forest, nl)?;
        if forest.get(nl).exit_targets.len() != 1 {
            return None;
        }
        iterators.push(shape.iterator);
        tests.insert(shape.test);
        // Bounds must be parameters/constants or affine in outer iterators.
        for v in [shape.init, shape.bound, shape.step] {
            polly_affine(func, &iterators, analyses, lid, v)?;
        }
        let l = forest.get(nl);
        for &inst in &func.block(l.header).insts {
            if func.value(inst).kind.opcode() != Some(&Opcode::Phi) || inst == shape.iterator {
                continue;
            }
            let next = latch_incoming(func, l, inst);
            let op = gr_core::postcheck::classify_update(func, analyses, nl, inst, next)?;
            if !matches!(op, gr_core::ReductionOp::Add | gr_core::ReductionOp::Mul) {
                return None;
            }
        }
    }
    // Scan every instruction of the nest.
    let mut reductions = 0;
    let blocks: Vec<BlockId> = root.blocks.iter().copied().collect();
    for &b in &blocks {
        for &inst in &func.block(b).insts {
            let data = func.value(inst);
            match data.kind.opcode() {
                Some(Opcode::Call(_)) => return None,
                Some(Opcode::Select) => return None,
                Some(Opcode::Load) => {
                    let gep = data.kind.operands()[0];
                    affine_access(func, &iterators, analyses, lid, gep)?;
                }
                Some(Opcode::Store) => {
                    let gep = data.kind.operands()[1];
                    affine_access(func, &iterators, analyses, lid, gep)?;
                }
                Some(Opcode::CondBr) => {
                    let cond = data.kind.operands()[0];
                    if !tests.contains(&cond) {
                        affine_condition(func, &iterators, analyses, lid, cond)?;
                    }
                }
                _ => {}
            }
        }
    }
    // Reduction recognition inside the validated SCoP.
    for &nl in &nest_loops {
        reductions += scalar_reductions_in(func, analyses, forest, nl);
    }
    reductions += array_reductions_in(func, forest, &nest_loops, &iterators, analyses, lid);
    Some(reductions)
}

/// Affinity in the Polly sense: iterator coefficients must be integer
/// constants; additive terms may be nest-invariant parameters. Returns the
/// degree (0 or 1) or `None`.
#[allow(clippy::only_used_in_recursion)] // `outermost` documents the query scope
fn polly_affine(
    func: &Function,
    iterators: &[ValueId],
    analyses: &Analyses,
    outermost: LoopId,
    v: ValueId,
) -> Option<u8> {
    if iterators.contains(&v) {
        return Some(1);
    }
    match &func.value(v).kind {
        ValueKind::ConstInt(_) => return Some(0),
        ValueKind::ConstFloat(_) | ValueKind::ConstBool(_) => return None,
        _ => {}
    }
    // Polyhedral parameters must be statically known symbols: function
    // arguments and constants, combined arithmetically. A loop bound or
    // stride *loaded from memory* is "not statically known" (the paper's
    // words) and rejects the SCoP.
    let _ = analyses;
    if polly_param(func, v) {
        return Some(0);
    }
    let data = func.value(v);
    let ops = data.kind.operands();
    match data.kind.opcode() {
        Some(Opcode::Bin(BinOp::Add | BinOp::Sub)) => {
            let a = polly_affine(func, iterators, analyses, outermost, ops[0])?;
            let b = polly_affine(func, iterators, analyses, outermost, ops[1])?;
            (a.max(b) <= 1).then_some(a.max(b))
        }
        Some(Opcode::Bin(BinOp::Mul)) => {
            let a = polly_affine(func, iterators, analyses, outermost, ops[0])?;
            let b = polly_affine(func, iterators, analyses, outermost, ops[1])?;
            match (a, b) {
                (0, 0) => Some(0),
                // Iterator times *constant* only: a parametric stride is the
                // "flat array structure" Polly cannot model.
                (1, 0) => matches!(func.value(ops[1]).kind, ValueKind::ConstInt(_)).then_some(1),
                (0, 1) => matches!(func.value(ops[0]).kind, ValueKind::ConstInt(_)).then_some(1),
                _ => None,
            }
        }
        Some(Opcode::Un(gr_ir::UnOp::Neg)) => {
            polly_affine(func, iterators, analyses, outermost, ops[0])
        }
        _ => None,
    }
}

/// A statically known symbol: integer arguments/constants and arithmetic
/// over them.
fn polly_param(func: &Function, v: ValueId) -> bool {
    match &func.value(v).kind {
        ValueKind::ConstInt(_) => true,
        ValueKind::Argument(_) => func.value(v).ty == Type::Int,
        ValueKind::Inst {
            opcode: Opcode::Bin(BinOp::Add | BinOp::Sub | BinOp::Mul) | Opcode::Un(gr_ir::UnOp::Neg),
            operands,
        } => operands.iter().all(|&o| polly_param(func, o)),
        ValueKind::Inst { .. } => false,
        _ => false,
    }
}

fn affine_access(
    func: &Function,
    iterators: &[ValueId],
    analyses: &Analyses,
    outermost: LoopId,
    gep: ValueId,
) -> Option<()> {
    let data = func.value(gep);
    if data.kind.opcode() != Some(&Opcode::Gep) {
        return None;
    }
    let idx = data.kind.operands()[1];
    polly_affine(func, iterators, analyses, outermost, idx)?;
    Some(())
}

fn affine_condition(
    func: &Function,
    iterators: &[ValueId],
    analyses: &Analyses,
    outermost: LoopId,
    cond: ValueId,
) -> Option<()> {
    let data = func.value(cond);
    let Some(Opcode::Cmp(_)) = data.kind.opcode() else { return None };
    let ops = data.kind.operands();
    if func.value(ops[0]).ty != Type::Int {
        return None; // float comparison: data dependent control flow
    }
    polly_affine(func, iterators, analyses, outermost, ops[0])?;
    polly_affine(func, iterators, analyses, outermost, ops[1])?;
    Some(())
}

/// Scalar `+`/`*` accumulator phis in one loop of the nest.
fn scalar_reductions_in(
    func: &Function,
    analyses: &Analyses,
    forest: &LoopForest,
    lid: LoopId,
) -> usize {
    let l = forest.get(lid);
    let Some(shape) = match_for_shape(func, forest, lid) else { return 0 };
    let mut n = 0;
    for &inst in &func.block(l.header).insts {
        if func.value(inst).kind.opcode() != Some(&Opcode::Phi) || inst == shape.iterator {
            continue;
        }
        if let Some(op) = gr_core::postcheck::classify_update(
            func,
            analyses,
            lid,
            inst,
            latch_incoming(func, l, inst),
        ) {
            if matches!(op, gr_core::ReductionOp::Add | gr_core::ReductionOp::Mul) {
                n += 1;
            }
        }
    }
    n
}

fn latch_incoming(func: &Function, l: &gr_analysis::loops::Loop, phi: ValueId) -> ValueId {
    func.phi_incoming(phi)
        .into_iter()
        .find(|(_, b)| l.latches.contains(b))
        .map(|(v, _)| v)
        .unwrap_or(phi)
}

/// Affine load-modify-store reduction accesses in the nest: a store whose
/// address is *independent of at least one enclosing iterator* writes the
/// same cell on every iteration of that loop — a loop-carried reduction
/// dependence in the polyhedral sense (Doerfert et al.), like `rms[m] += …`
/// inside an `i` loop. A store whose address uses every surrounding
/// iterator (e.g. `rhs[j] += …` in the `j` loop) touches each cell once
/// and is no reduction.
fn array_reductions_in(
    func: &Function,
    forest: &LoopForest,
    nest_loops: &[LoopId],
    iterators: &[ValueId],
    analyses: &Analyses,
    outermost: LoopId,
) -> usize {
    let root = forest.get(outermost);
    let mut n = 0;
    for &b in &root.blocks {
        for &inst in &func.block(b).insts {
            let data = func.value(inst);
            if data.kind.opcode() != Some(&Opcode::Store) {
                continue;
            }
            let (val, gep) = (data.kind.operands()[0], data.kind.operands()[1]);
            if affine_access(func, iterators, analyses, outermost, gep).is_none() {
                continue;
            }
            let idx = func.value(gep).kind.operands()[1];
            // val = binop(load(gep'), t) with gep' addressing the same
            // (base, index) pair.
            let vdata = func.value(val);
            let Some(Opcode::Bin(BinOp::Add | BinOp::Mul)) = vdata.kind.opcode() else {
                continue;
            };
            let same_cell = |x: ValueId| {
                let xd = func.value(x);
                xd.kind.opcode() == Some(&Opcode::Load)
                    && same_address(func, xd.kind.operands()[0], gep)
            };
            if !vdata.kind.operands().iter().any(|&o| same_cell(o)) {
                continue;
            }
            // Reduction iff some enclosing loop's iterator does not reach
            // the address.
            let carried = nest_loops.iter().any(|&nl| {
                let l = forest.get(nl);
                l.contains(b) && {
                    let shape = match_for_shape(func, forest, nl);
                    shape.is_some_and(|s| !depends_on(func, idx, s.iterator))
                }
            });
            if carried {
                n += 1;
            }
        }
    }
    n
}

/// Whether `v`'s backward slice (operands, through phis) reaches `target`.
fn depends_on(func: &Function, v: ValueId, target: ValueId) -> bool {
    let mut seen = HashSet::new();
    let mut work = vec![v];
    while let Some(x) = work.pop() {
        if x == target {
            return true;
        }
        if !seen.insert(x) {
            continue;
        }
        if let ValueKind::Inst { opcode, operands } = &func.value(x).kind {
            if *opcode == Opcode::Phi {
                work.extend(operands.chunks(2).map(|c| c[0]));
            } else {
                work.extend(operands.iter().copied());
            }
        }
    }
    false
}

fn same_address(func: &Function, a: ValueId, b: ValueId) -> bool {
    if a == b {
        return true;
    }
    let (da, db) = (func.value(a), func.value(b));
    da.kind.opcode() == Some(&Opcode::Gep)
        && db.kind.opcode() == Some(&Opcode::Gep)
        && da.kind.operands() == db.kind.operands()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_frontend::compile;

    fn report(src: &str) -> PollyReport {
        polly_detect(&compile(src).unwrap())
    }

    #[test]
    fn stencil_is_a_scop_without_reductions() {
        let r = report(
            "void stencil(float* a, float* b, int n) {
                 for (int i = 1; i < n; i++)
                     b[i] = a[i - 1] + a[i + 1];
             }",
        );
        assert_eq!(r.scop_count(), 1);
        assert_eq!(r.reduction_scop_count(), 0);
    }

    #[test]
    fn affine_sum_is_a_reduction_scop() {
        let r = report(
            "float sum(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }",
        );
        assert_eq!(r.scop_count(), 1);
        assert_eq!(r.reduction_scop_count(), 1);
    }

    #[test]
    fn affine_array_reduction_is_found() {
        // The SP rms pattern with a constant inner stride: Polly handles it.
        let r = report(
            "void rms_nest(float* rhs, float* rms, int nx) {
                 for (int i = 0; i < nx; i++) {
                     for (int m = 0; m < 5; m++) {
                         float add = rhs[i * 5 + m];
                         rms[m] = rms[m] + add * add;
                     }
                 }
             }",
        );
        assert_eq!(r.scop_count(), 1);
        assert_eq!(r.reduction_scop_count(), 1);
    }

    #[test]
    fn indirect_access_rejects_the_scop() {
        let r = report(
            "void rank(int* bins, int* keys, int n) { for (int i = 0; i < n; i++) bins[keys[i]]++; }",
        );
        assert_eq!(r.scop_count(), 0);
    }

    #[test]
    fn calls_reject_the_scop() {
        let r = report(
            "float f(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += sqrt(a[i]); return s; }",
        );
        assert_eq!(r.scop_count(), 0);
    }

    #[test]
    fn float_condition_rejects_the_scop() {
        // EP's `if (t1 <= 1.0)` is data-dependent control flow.
        let r = report(
            "float f(float* a, int n) {
                 float s = 0.0;
                 for (int i = 0; i < n; i++) { if (a[i] <= 1.0) s += a[i]; }
                 return s;
             }",
        );
        assert_eq!(r.scop_count(), 0);
    }

    #[test]
    fn parametric_stride_rejects_the_scop() {
        // Flat 2-D array with runtime stride m: the paper's "flat array
        // structures" failure.
        let r = report(
            "float f(float* a, int n, int m) {
                 float s = 0.0;
                 for (int i = 0; i < n; i++)
                     for (int j = 0; j < m; j++)
                         s += a[i * m + j];
                 return s;
             }",
        );
        assert_eq!(r.scop_count(), 0);
    }

    #[test]
    fn constant_stride_nest_is_a_scop() {
        let r = report(
            "float f(float* a, int n) {
                 float s = 0.0;
                 for (int i = 0; i < n; i++)
                     for (int j = 0; j < 64; j++)
                         s += a[i * 64 + j];
                 return s;
             }",
        );
        assert_eq!(r.scop_count(), 1);
        assert_eq!(r.reduction_scop_count(), 1);
    }

    #[test]
    fn while_loop_rejects_the_scop() {
        let r = report("int f(int* a) { int i = 0; while (a[i] > 0) i++; return i; }");
        assert_eq!(r.scop_count(), 0);
    }

    #[test]
    fn triangular_nest_is_affine() {
        let r = report(
            "float f(float* a, int n) {
                 float s = 0.0;
                 for (int i = 0; i < n; i++)
                     for (int j = i; j < n; j++)
                         s += a[j];
                 return s;
             }",
        );
        assert_eq!(r.scop_count(), 1);
    }

    #[test]
    fn multiple_nests_are_separate_scops() {
        let r = report(
            "void f(float* a, float* b, int n) {
                 for (int i = 1; i < n; i++) b[i] = a[i - 1];
                 for (int i = 1; i < n; i++) a[i] = b[i] * 2.0;
             }",
        );
        assert_eq!(r.scop_count(), 2);
    }
}
