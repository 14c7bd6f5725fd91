//! Outlining: rewriting a detected reduction loop into a `chunk` function
//! plus a runtime intrinsic call — the IR-level equivalent of the paper's
//! pthread code generation (§4).
//!
//! Given a function `f` with detected reductions that all live in one
//! counted loop, [`parallelize`] produces a new module in which:
//!
//! * a function `__chunk_f(lo, hi, step, closure…, cells…)` contains
//!   a clone of the loop body iterating `lo → hi`, with every carried
//!   value stored to its out-cell at the end (partial results). Scalar
//!   accumulators are seeded with their operator's identity; argmin/argmax
//!   pairs with `(identity, sentinel)`; **scan** accumulators are seeded
//!   from their cell — the runtime writes the identity for the partials
//!   pass and the block offset for the replay pass, so one chunk serves
//!   both passes of the two-pass block scan;
//! * `f`'s loop is replaced by: allocate one cell per carried value,
//!   store the original initial value, call the intrinsic
//!   `__parrun_f(iter_begin, iter_end, iter_step, closure…, cells…)`,
//!   reload the cells, and jump to the loop exit;
//! * all uses of the carried values after the loop are rewired to the
//!   reloaded values.
//!
//! Three templates share this shape: the deterministic folds (scalars,
//! histograms, scans, argmin/argmax), map-reduce fusion and the
//! speculative early-exit loops. Each one checks its own loop shape, then
//! drives the same steps: closure discovery (`Closure`), the chunk
//! skeleton and two-phase body clone (`ChunkBuilder`), and the call-site
//! rewrite (`call_site`, `patch_exit_phis`, `stub_blocks`,
//! `rewire_uses`). A template adds only its own cells and phis, and
//! passes in the rules where it differs.
//!
//! The names depend only on the module being rewritten: a module that
//! already holds `__chunk_f` (or its value-only variant `__chunk_f_vo`)
//! gets `__chunk_f_1` and `__parrun_f_1` (the smallest free suffix)
//! instead.
//!
//! The runtime (see [`crate::runtime`]) intercepts the intrinsic, bisects
//! the iteration space over threads, runs the chunk on privatized memory
//! overlays and merges the partials.

use crate::plan::{
    AccSlot, ArgSlot, ExitSlot, FoldSlot, HistSlot, ReductionPlan, ScanSlot, SearchSlot,
    WrittenPolicy, WrittenSlot, ARG_IDX_SENTINEL, SEARCH_NO_HIT,
};
use gr_analysis::dataflow::root_object;
use gr_analysis::Analyses;
use gr_core::{Reduction, ReductionKind, ReductionOp};
use gr_ir::{BlockId, CmpPred, Function, Module, Opcode, Type, ValueId, ValueKind};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Outlining failures: the reduction is real, but this code generator
/// cannot exploit it (the paper: "manual corrections are still needed for
/// some complex reductions").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutlineError {
    /// No reductions were supplied for the function.
    NoReductions,
    /// The reductions span different loops.
    MixedLoops,
    /// The function is not in the module.
    NoSuchFunction(String),
    /// A loop-header phi is neither the induction variable nor a detected
    /// accumulator: unknown loop-carried state.
    UnknownCarriedState,
    /// The induction variable is used after the loop.
    IteratorLiveOut,
    /// The loop header has unexpected extra instructions.
    UnsupportedHeaderShape,
    /// A loop-exit phi merges an in-loop value that is not a detected
    /// carried value on the loop edge (unsupported shape).
    ExitHasPhis,
    /// A carried accumulator escapes the loop other than through its
    /// detected result (post-loop uses would observe the pre-break
    /// value, which the cells do not reproduce).
    CarriedValueLiveOut,
    /// An exit phi's default (the value flowing in when the loop runs to
    /// completion) is defined inside the loop: the rewritten preheader
    /// cannot seed its cell.
    NonInvariantExitDefault,
    /// A pointer argument of the intrinsic was not object-aligned.
    MisalignedPointer,
    /// The fusion intermediate's address chain has users beside the
    /// detected store/load pair, so eliding the array would orphan them.
    IntermediateNotElidable,
    /// A closure value of the fused chunk does not dominate the rewritten
    /// call site (the consumer preheader), so the intrinsic cannot
    /// forward it.
    ClosureNotAvailable,
}

impl OutlineError {
    /// The error's variant name, used as the structured refusal-reason key
    /// in trace events (`outline.refusal` / `outline.refusals{<kind>}`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            OutlineError::NoReductions => "NoReductions",
            OutlineError::MixedLoops => "MixedLoops",
            OutlineError::NoSuchFunction(_) => "NoSuchFunction",
            OutlineError::UnknownCarriedState => "UnknownCarriedState",
            OutlineError::IteratorLiveOut => "IteratorLiveOut",
            OutlineError::UnsupportedHeaderShape => "UnsupportedHeaderShape",
            OutlineError::ExitHasPhis => "ExitHasPhis",
            OutlineError::CarriedValueLiveOut => "CarriedValueLiveOut",
            OutlineError::NonInvariantExitDefault => "NonInvariantExitDefault",
            OutlineError::MisalignedPointer => "MisalignedPointer",
            OutlineError::IntermediateNotElidable => "IntermediateNotElidable",
            OutlineError::ClosureNotAvailable => "ClosureNotAvailable",
        }
    }
}

impl fmt::Display for OutlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OutlineError::NoReductions => f.write_str("no reductions to outline"),
            OutlineError::MixedLoops => f.write_str("reductions span different loops"),
            OutlineError::NoSuchFunction(n) => write!(f, "no function named `{n}`"),
            OutlineError::UnknownCarriedState => {
                f.write_str("loop carries state that is not a detected reduction")
            }
            OutlineError::IteratorLiveOut => {
                f.write_str("induction variable is used after the loop")
            }
            OutlineError::UnsupportedHeaderShape => {
                f.write_str("loop header has an unsupported shape")
            }
            OutlineError::ExitHasPhis => {
                f.write_str("loop exit phi merges an unknown in-loop value")
            }
            OutlineError::CarriedValueLiveOut => {
                f.write_str("carried accumulator escapes the loop beside its result")
            }
            OutlineError::NonInvariantExitDefault => {
                f.write_str("exit phi default is defined inside the loop")
            }
            OutlineError::MisalignedPointer => {
                f.write_str("histogram pointer is not object-aligned")
            }
            OutlineError::IntermediateNotElidable => {
                f.write_str("fusion intermediate address chain has other users")
            }
            OutlineError::ClosureNotAvailable => {
                f.write_str("closure value does not dominate the fused call site")
            }
        }
    }
}

impl std::error::Error for OutlineError {}

/// The chunk and intrinsic names for outlining `func_name` in `module`:
/// `__chunk_<f>` and `__parrun_<f>`, suffixed `_<k>` with the smallest
/// `k` for which the chunk, its value-only variant `<chunk>_vo` and the
/// intrinsic are all free names. They depend on the module alone, so
/// rewriting one module twice names its chunks the same.
fn chunk_names(module: &Module, func_name: &str) -> (String, String) {
    let free = |name: &str| module.function(name).is_none();
    (0..)
        .map(|k| if k == 0 { String::new() } else { format!("_{k}") })
        .map(|suffix| {
            (format!("__chunk_{func_name}{suffix}"), format!("__parrun_{func_name}{suffix}"))
        })
        .find(|(chunk, intrinsic)| free(chunk) && free(&format!("{chunk}_vo")) && free(intrinsic))
        .expect("some suffix is free")
}

/// Rewrites `func_name` in (a clone of) `module` to execute its detected
/// reduction loop through the parallel runtime.
///
/// `reductions` is the full detection result; the relevant entries are
/// selected by function name. All of them must target the same loop.
///
/// # Errors
/// Returns an [`OutlineError`] when the loop shape is outside what this
/// code generator supports.
pub fn parallelize(
    module: &Module,
    func_name: &str,
    reductions: &[Reduction],
) -> Result<(Module, ReductionPlan), OutlineError> {
    if !gr_trace::enabled() {
        return parallelize_inner(module, func_name, reductions);
    }
    let _sp = gr_trace::span_with("outline", vec![("function", func_name.into())]);
    let result = parallelize_inner(module, func_name, reductions);
    match &result {
        Ok(_) => gr_trace::counter("outline.ok", 1),
        Err(e) => {
            gr_trace::counter_keyed("outline.refusals", e.kind(), 1);
            // One GR002 ledger entry per refusal (not per refused
            // reduction), keeping ledger counts deterministic.
            gr_core::GrError::OutlineRefusal {
                function: func_name.to_string(),
                kind: e.kind(),
                detail: e.to_string(),
            }
            .emit();
            // One structured event per refused reduction, so sinks can
            // attribute the reason to the idiom kinds it turned away.
            let refused: Vec<&Reduction> =
                reductions.iter().filter(|r| r.function == func_name).collect();
            if refused.is_empty() {
                gr_trace::instant(
                    "outline.refusal",
                    vec![
                        ("function", func_name.into()),
                        ("reason", e.kind().into()),
                        ("detail", e.to_string().into()),
                    ],
                );
            }
            for r in refused {
                gr_trace::instant(
                    "outline.refusal",
                    vec![
                        ("function", func_name.into()),
                        ("kind", r.kind.to_string().into()),
                        ("reason", e.kind().into()),
                        ("detail", e.to_string().into()),
                    ],
                );
            }
        }
    }
    result
}

fn parallelize_inner(
    module: &Module,
    func_name: &str,
    reductions: &[Reduction],
) -> Result<(Module, ReductionPlan), OutlineError> {
    let rs: Vec<&Reduction> = reductions.iter().filter(|r| r.function == func_name).collect();
    if rs.is_empty() {
        return Err(OutlineError::NoReductions);
    }
    // Map-reduce fusion takes precedence: its report spans two loops and
    // subsumes the duplicate scalar report on the consumer accumulator.
    // Several fusion reports (independent producer/consumer pairs) are
    // tried in detection order — one call site outlines one loop nest, so
    // the first pair that fuses wins. When every fused outline refuses
    // but other reductions exist, fall back to the single-loop templates
    // (the producer loop then simply runs sequentially before the
    // parallelized consumer).
    let fusions: Vec<&Reduction> = rs
        .iter()
        .copied()
        .filter(|r| r.kind == ReductionKind::MapReduceFusion)
        .collect();
    let mut fusion_err = None;
    for fusion in &fusions {
        match outline_fused(module, func_name, fusion) {
            Ok(out) => return Ok(out),
            Err(e) => fusion_err = Some(e),
        }
    }
    let rs: Vec<&Reduction> =
        rs.into_iter().filter(|r| r.kind != ReductionKind::MapReduceFusion).collect();
    if rs.is_empty() {
        // Only fusions were detected and none outlined: surface the real
        // refusal instead of a misleading `NoReductions`.
        return Err(fusion_err.unwrap_or(OutlineError::NoReductions));
    }
    let header = rs[0].header;
    if rs.iter().any(|r| r.header != header) {
        return Err(OutlineError::MixedLoops);
    }
    // Early-exit searches and speculative folds take the two-exit outline
    // path (they never mix with the deterministic fold reductions: their
    // loop has two exits, which the single-exit prefix rejects).
    if rs.iter().any(|r| r.kind.is_speculative()) {
        if !rs.iter().all(|r| r.kind.is_speculative()) {
            return Err(OutlineError::MixedLoops);
        }
        return outline_speculative(module, func_name, &rs);
    }
    outline_folds(module, func_name, &rs)
}

/// Outlines the deterministic folds of one loop — scalar accumulators,
/// histograms, prefix scans and argmin/argmax pairs — onto the
/// privatize-and-merge schedule. With scans present it also emits the
/// value-only chunk variant for the partials pass.
fn outline_folds(
    module: &Module,
    func_name: &str,
    rs: &[&Reduction],
) -> Result<(Module, ReductionPlan), OutlineError> {
    let header = rs[0].header;
    let fi = function_index(module, func_name)?;
    let func = &module.functions[fi];
    let analyses = Analyses::new(module, func);
    let lid = analyses
        .loops
        .loop_with_header(header)
        .expect("detected reduction loop must exist");
    let l = analyses.loops.get(lid).clone();

    // --- gather loop anatomy from the solver bindings -------------------
    let get = |name: &str| rs[0].binding(name);
    let iterator = get("iterator");
    let exit_block = func.block_of_label(get("exit"));
    let preheader = func.block_of_label(get("preheader"));
    let pred = continue_pred(func, iterator, get("test"), get("jump"), exit_block)?;

    // Header shape: phis, then exactly test + jump.
    let phis = leading_phis(func, header);
    if func.block(header).insts[phis.len()..] != [get("test"), get("jump")] {
        return Err(OutlineError::UnsupportedHeaderShape);
    }

    // Every carried phi must be the iterator or a detected carried value:
    // a scalar accumulator, a scan accumulator, or an argmin/argmax
    // value/index pair.
    let of_kind = |kind: ReductionKind| -> Vec<&Reduction> {
        rs.iter().copied().filter(|r| r.kind == kind).collect()
    };
    let scalar_rs = of_kind(ReductionKind::Scalar);
    let hist_rs = of_kind(ReductionKind::Histogram);
    let scan_rs = of_kind(ReductionKind::Scan);
    let arg_rs: Vec<&Reduction> = rs.iter().copied().filter(|r| r.kind.is_arg()).collect();
    let mut acc_phis: Vec<ValueId> = scalar_rs.iter().map(|r| r.anchor).collect();
    acc_phis.extend(scan_rs.iter().map(|r| r.anchor));
    acc_phis.extend(arg_rs.iter().map(|r| r.anchor));
    acc_phis.extend(arg_rs.iter().map(|r| r.binding("idx")));
    if phis.iter().any(|&p| p != iterator && !acc_phis.contains(&p)) {
        return Err(OutlineError::UnknownCarriedState);
    }
    if used_outside(func, &|b| l.contains(b), iterator) {
        return Err(OutlineError::IteratorLiveOut);
    }
    // Exit phis do not stop fold outlining: a loop nested in control flow
    // merges its carried values with the other paths' values at the exit
    // block. Each exit phi's loop-edge arm must be a detected carried phi
    // (it is patched to the reloaded final) or a value available before
    // the loop.
    let exit_phis = leading_phis(func, exit_block);
    let exit_patches = exit_patches(func, &exit_phis, header, &|b| l.contains(b), &acc_phis)?;

    // --- closure discovery ----------------------------------------------
    let body_blocks: Vec<BlockId> =
        func.block_ids().filter(|&b| l.contains(b) && b != header).collect();
    let mut closure = Closure::discover(func, &body_blocks, &phis, &[]);

    // --- classify written objects ----------------------------------------
    let hist_roots: Vec<ValueId> = hist_rs
        .iter()
        .map(|r| root_object(func, r.binding("base")).expect("histogram root"))
        .collect();
    // Scan outputs are reduction targets with their own slot: the runtime
    // privatizes them in the partials pass and shares them (disjoint
    // strided writes) in the replay pass.
    let scan_out_roots: Vec<ValueId> = scan_rs
        .iter()
        .map(|r| root_object(func, r.binding("out_base")).expect("scan output root"))
        .collect();
    let invariance =
        gr_analysis::invariant::Invariance::new(func, &analyses.loops, &analyses.purity);
    let is_inv = |v: ValueId| invariance.is_invariant(lid, v);
    let mut written_roots: Vec<(ValueId, WrittenPolicy)> = Vec::new();
    for &b in &body_blocks {
        for &inst in &func.block(b).insts {
            let data = func.value(inst);
            if data.kind.opcode() != Some(&Opcode::Store) {
                continue;
            }
            let ptr = data.kind.operands()[1];
            let Some(root) = root_object(func, ptr) else { continue };
            if hist_roots.contains(&root) || scan_out_roots.contains(&root) {
                continue;
            }
            // Allocas inside the loop are thread-local by construction.
            if let ValueKind::Inst { .. } = &func.value(root).kind {
                if let Some(rb) = func.block_of_inst(root) {
                    if l.contains(rb) {
                        continue;
                    }
                }
            }
            let disjoint = store_index_disjoint(func, iterator, &is_inv, ptr);
            let policy = if disjoint {
                WrittenPolicy::DisjointShared
            } else {
                WrittenPolicy::PrivateCopyback
            };
            match written_roots.iter_mut().find(|(r, _)| *r == root) {
                Some((_, p)) => {
                    if policy == WrittenPolicy::PrivateCopyback {
                        *p = WrittenPolicy::PrivateCopyback;
                    }
                }
                None => written_roots.push((root, policy)),
            }
        }
    }
    // Written and scan-output roots must be reachable through the closure
    // (they are used by geps inside the loop, so they were discovered
    // above).
    for &root in written_roots.iter().map(|(r, _)| r).chain(&scan_out_roots) {
        if !closure.values.contains(&root) {
            closure.values.push(root);
        }
    }
    let closure = closure.values;

    // --- build the chunk function -----------------------------------------
    let (chunk_name, intrinsic) = chunk_names(module, func_name);
    // Out-cell layout (mirrored by the intrinsic argument list): scalar
    // cells, scan cells, then one (value, index) cell pair per arg slot.
    let ty_of = |v: ValueId| func.value(v).ty;
    let mut cells: Vec<(String, Type)> = Vec::new();
    for (i, r) in scalar_rs.iter().enumerate() {
        cells.push((format!("out{i}"), cell_ty(ty_of(r.anchor))));
    }
    for (i, r) in scan_rs.iter().enumerate() {
        cells.push((format!("scan{i}"), cell_ty(ty_of(r.anchor))));
    }
    for (i, r) in arg_rs.iter().enumerate() {
        cells.push((format!("argv{i}"), cell_ty(ty_of(r.anchor))));
        cells.push((format!("argi{i}"), Type::PtrInt));
    }
    let acc_out_base = 3 + closure.len();
    let scan_out_base = acc_out_base + scalar_rs.len();
    let arg_out_base = scan_out_base + scan_rs.len();
    let mut ck = ChunkBuilder::new(
        func,
        &chunk_name,
        &closure,
        &cells,
        &Region {
            headers: &[header],
            body: &body_blocks,
            exit: exit_block,
            latch: func.block_of_label(get("latch")),
            next_iter: get("next_iter"),
            iterators: &[iterator],
        },
    );
    let c_accs: Vec<ValueId> = scalar_rs.iter().map(|r| ck.header_phi(r.anchor, "acc")).collect();
    let c_scans: Vec<ValueId> =
        scan_rs.iter().map(|r| ck.header_phi(r.anchor, "scan_acc")).collect();
    let c_args: Vec<(ValueId, ValueId)> = arg_rs
        .iter()
        .map(|r| (ck.header_phi(r.anchor, "arg_val"), ck.header_phi(r.binding("idx"), "arg_idx")))
        .collect();
    // The entry loads each scan seed from its cell: the runtime stores the
    // identity or the block offset there before invoking the chunk.
    let seed_cells: Vec<(usize, Type)> = scan_rs
        .iter()
        .enumerate()
        .map(|(si, r)| (scan_out_base + si, ty_of(r.anchor)))
        .collect();
    let seeds = ck.close_header(pred, func.block_of_label(get("body")), &seed_cells);
    ck.clone_body(&[], &[]);
    for (r, &c_acc) in scalar_rs.iter().zip(&c_accs) {
        let identity = identity_of(&mut ck.chunk, r.op, ty_of(r.anchor));
        ck.complete_phi(c_acc, identity, r.binding("acc_next"));
    }
    // Scan accumulators are seeded from their cell, not a constant.
    for ((r, &c_acc), &seed) in scan_rs.iter().zip(&c_scans).zip(&seeds) {
        ck.complete_phi(c_acc, seed, r.binding("acc_next"));
    }
    // Argmin/argmax pairs start from (identity, sentinel).
    for (r, &(c_val, c_idx)) in arg_rs.iter().zip(&c_args) {
        let identity = identity_of(&mut ck.chunk, r.op, ty_of(r.anchor));
        let sentinel = ck.chunk.const_int(ARG_IDX_SENTINEL);
        ck.complete_phi(c_val, identity, r.binding("val_next"));
        ck.complete_phi(c_idx, sentinel, r.binding("idx_next"));
    }
    for (i, &c_acc) in c_accs.iter().enumerate() {
        ck.store(c_acc, acc_out_base + i);
    }
    for (i, &c_acc) in c_scans.iter().enumerate() {
        ck.store(c_acc, scan_out_base + i);
    }
    for (i, &(c_val, c_idx)) in c_args.iter().enumerate() {
        ck.store(c_val, arg_out_base + 2 * i);
        ck.store(c_idx, arg_out_base + 2 * i + 1);
    }

    // Value-only chunk for the scan partials pass: pass one of the
    // two-pass block scan only needs each block's final running value, so
    // every store whose effect pass one discards — the scan output stores,
    // the histogram updates (privatized and thrown away), and stores to
    // written objects the loop never reads back — is stripped along with
    // the address chains feeding nothing else. This cuts the 2n work
    // bound of scan exploitation toward n + n/blocks: the replay pass does
    // the full body, the partials pass the value computation only.
    let dead_stores: Option<Vec<ValueId>> = (!scan_rs.is_empty()).then(|| {
        let mut dead: Vec<ValueId> = scan_rs.iter().map(|r| r.binding("store")).collect();
        // Histogram load-modify-stores are privatized-and-discarded in
        // pass one; detection confines the old value to its own update, so
        // dropping the store leaves the loads dead for the sweep.
        dead.extend(hist_rs.iter().map(|r| r.binding("store")));
        // Same for written objects, as long as nothing in the loop reads
        // them back (a read-back would observe the stripped stores).
        let body_insts = || body_blocks.iter().flat_map(|&b| func.block(b).insts.iter().copied());
        let root_of = |inst: ValueId, opcode: Opcode, operand: usize| {
            let data = func.value(inst);
            (data.kind.opcode() == Some(&opcode))
                .then(|| root_object(func, data.kind.operands()[operand]))
                .flatten()
        };
        let read_roots: HashSet<ValueId> =
            body_insts().filter_map(|inst| root_of(inst, Opcode::Load, 0)).collect();
        dead.extend(body_insts().filter(|&inst| {
            root_of(inst, Opcode::Store, 1).is_some_and(|root| {
                written_roots.iter().any(|(r, _)| *r == root) && !read_roots.contains(&root)
            })
        }));
        dead.iter().map(|v| ck.val_map[v]).collect()
    });
    let chunk = ck.finish();
    let value_only =
        dead_stores.map(|dead| value_only_variant(&chunk, &format!("{chunk_name}_vo"), &dead));

    // --- rewrite the original function ------------------------------------
    let mut out = module.clone();
    let f = &mut out.functions[fi];
    // Cells for the carried values, mirroring the chunk's out-cell layout,
    // each seeded with the loop's original initial value.
    let mut carried: Vec<(ValueId, ValueId)> = Vec::new(); // (phi, init)
    for r in scalar_rs.iter().chain(&scan_rs) {
        carried.push((r.anchor, r.binding("acc_init")));
    }
    for r in &arg_rs {
        carried.push((r.anchor, r.binding("val_init")));
        carried.push((r.binding("idx"), r.binding("idx_init")));
    }
    let cell_inits: Vec<(Type, ValueId)> =
        carried.iter().map(|&(phi, init)| (ty_of(phi), init)).collect();
    let mut args = vec![get("iter_begin"), get("iter_end"), get("iter_step")];
    args.extend(&closure);
    let (reloads, arg_count) =
        call_site(f, preheader, exit_block, &intrinsic, args, &cell_inits, 0);
    let finals: Vec<(ValueId, ValueId)> =
        carried.iter().map(|&(phi, _)| phi).zip(reloads).collect();
    patch_exit_phis(f, &exit_patches, &finals, header, preheader);
    // With exit phis present the stubs must not create stray predecessors
    // of the exit block (phi incoming edges are checked against
    // predecessors exactly), so the now unreachable blocks branch to
    // themselves instead.
    stub_blocks(f, &|b| l.contains(b), &|b| if exit_phis.is_empty() { exit_block } else { b });
    rewire_uses(f, &|b| l.contains(b), &exit_phis, &finals);

    // --- assemble the plan --------------------------------------------------
    let closure_slot = |root: &ValueId| {
        3 + closure.iter().position(|c| c == root).expect("object root is a closure value")
    };
    let plan = ReductionPlan {
        chunk_value_only_fn: value_only.as_ref().map(|vo| vo.name.clone()),
        accs: scalar_rs
            .iter()
            .enumerate()
            .map(|(i, r)| AccSlot { arg_index: acc_out_base + i, ty: ty_of(r.anchor), op: r.op })
            .collect(),
        hists: hist_rs
            .iter()
            .zip(&hist_roots)
            .map(|(r, root)| HistSlot {
                arg_index: closure_slot(root),
                elem: ty_of(*root).elem().unwrap_or(Type::Float),
                op: r.op,
            })
            .collect(),
        scans: scan_rs
            .iter()
            .zip(&scan_out_roots)
            .enumerate()
            .map(|(i, (r, root))| ScanSlot {
                cell_arg_index: scan_out_base + i,
                out_arg_index: closure_slot(root),
                ty: ty_of(r.anchor),
                op: r.op,
            })
            .collect(),
        args: arg_rs
            .iter()
            .enumerate()
            .map(|(i, r)| ArgSlot {
                val_arg_index: arg_out_base + 2 * i,
                idx_arg_index: arg_out_base + 2 * i + 1,
                ty: ty_of(r.anchor),
                op: r.op,
                pred: r.arg_pred.expect("argmin/argmax report carries its predicate"),
            })
            .collect(),
        written: written_roots
            .iter()
            .map(|(root, policy)| WrittenSlot { arg_index: closure_slot(root), policy: *policy })
            .collect(),
        ..bare_plan(func_name, chunk_name, intrinsic, pred, arg_count)
    };
    Ok((assemble(out, value_only.into_iter().chain([chunk])), plan))
}

/// Outlines a detected **map-reduce fusion** into a single chunked
/// map+reduce body that never materializes the intermediate array:
///
/// * `__chunk_f(lo, hi, step, closure…, out)` iterates the *consumer's*
///   range once; each iteration first runs the producer body's value
///   computation (the `tmp[i] = p_val` store and its address chain are
///   **not cloned** — the consumer's `tmp[j]` load is rewired straight to
///   the cloned `p_val`), then the consumer body folding `p_val` into an
///   identity-seeded accumulator, stored to the out-cell on exit. `tmp`
///   itself never reaches the chunk: no store, no load, not even a
///   closure slot.
/// * the original function drops **both** loops: the producer loop is
///   stubbed outright (detection proved `tmp` is a non-escaping local
///   consumed only by the reduction, so never writing it is unobservable),
///   and the consumer loop is replaced by the usual cell + intrinsic +
///   reload sequence of the scalar template.
///
/// The runtime needs nothing new: the plan is a one-accumulator scalar
/// plan and executes on the standard privatize-and-merge path.
fn outline_fused(
    module: &Module,
    func_name: &str,
    fusion: &Reduction,
) -> Result<(Module, ReductionPlan), OutlineError> {
    let fi = function_index(module, func_name)?;
    let func = &module.functions[fi];
    let analyses = Analyses::new(module, func);

    // --- gather both loops' anatomy from the solver bindings -----------
    let get = |name: &str| fusion.binding(name);
    // Producer (prefix instance 0, plain names).
    let p_iterator = get("iterator");
    let p_header = func.block_of_label(get("header"));
    let p_exit = func.block_of_label(get("exit"));
    // Consumer (prefix instance 1, `_r` names).
    let c_iterator = get("iterator_r");
    let c_header = func.block_of_label(get("header_r"));
    let c_exit = func.block_of_label(get("exit_r"));
    let c_preheader = func.block_of_label(get("preheader_r"));
    // The intermediate's chain and the carried accumulator.
    let p_val = get("p_val");
    let c_load = get("c_load");
    let acc = get("acc");

    let p_lid = analyses.loops.loop_with_header(p_header).expect("producer loop exists");
    let c_lid = analyses.loops.loop_with_header(c_header).expect("consumer loop exists");
    let pl = analyses.loops.get(p_lid).clone();
    let cl = analyses.loops.get(c_lid).clone();
    if pl.latches.len() != 1 || cl.latches.len() != 1 {
        return Err(OutlineError::UnsupportedHeaderShape);
    }

    let pred = continue_pred(func, c_iterator, get("test_r"), get("jump_r"), c_exit)?;

    // Header shapes: producer carries only its induction variable, the
    // consumer only the induction variable and the accumulator.
    let p_phis = leading_phis(func, p_header);
    if p_phis != [p_iterator] {
        return Err(OutlineError::UnknownCarriedState);
    }
    if func.block(p_header).insts[p_phis.len()..] != [get("test"), get("jump")] {
        return Err(OutlineError::UnsupportedHeaderShape);
    }
    let c_phis = leading_phis(func, c_header);
    if c_phis.iter().any(|&p| p != c_iterator && p != acc) {
        return Err(OutlineError::UnknownCarriedState);
    }
    if func.block(c_header).insts[c_phis.len()..] != [get("test_r"), get("jump_r")] {
        return Err(OutlineError::UnsupportedHeaderShape);
    }

    // The elided chain: the producer's store + address gep and the
    // consumer's load + address gep. Each address gep must feed nothing
    // but its access, and the load's only consumers sit in the consumer
    // body (the clone substitutes them).
    let (p_store, p_addr, c_addr) = (get("p_store"), get("p_addr"), get("c_addr"));
    let dead: Vec<ValueId> = vec![p_store, p_addr, c_load, c_addr];
    for b in func.block_ids() {
        for &inst in &func.block(b).insts {
            if inst == p_store || inst == c_load {
                continue;
            }
            let ops = func.value(inst).kind.operands();
            if ops.contains(&p_addr) || ops.contains(&c_addr) {
                return Err(OutlineError::IntermediateNotElidable);
            }
        }
    }

    // No producer-defined SSA value may be consumed outside the producer
    // loop (such a use would observe the *final* iteration's value, which
    // the fused per-iteration clone does not reproduce). The elided tmp
    // chain is memory, not SSA, so the detected fusion itself is exempt.
    let p_insts: HashSet<ValueId> =
        pl.blocks.iter().flat_map(|&b| func.block(b).insts.iter().copied()).collect();
    for b in func.block_ids() {
        if pl.contains(b) {
            continue;
        }
        for &inst in &func.block(b).insts {
            if func.value(inst).kind.operands().iter().any(|op| p_insts.contains(op)) {
                return Err(OutlineError::CarriedValueLiveOut);
            }
        }
    }
    // The consumer's iterator must not escape either.
    if used_outside(func, &|b| cl.contains(b), c_iterator) {
        return Err(OutlineError::IteratorLiveOut);
    }
    // The producer's exit must merge nothing (its loop carries nothing).
    if !leading_phis(func, p_exit).is_empty() {
        return Err(OutlineError::ExitHasPhis);
    }
    // Consumer exit phis: the loop edge must carry the accumulator or an
    // out-of-loop value (patched to the reloaded final below).
    let c_exit_phis = leading_phis(func, c_exit);
    let exit_patches = exit_patches(func, &c_exit_phis, c_header, &|b| cl.contains(b), &[acc])?;

    // --- closure discovery over BOTH bodies -----------------------------
    let p_body_blocks = func.block_ids().filter(|&b| pl.contains(b) && b != p_header);
    let c_body_blocks = func.block_ids().filter(|&b| cl.contains(b) && b != c_header);
    let body_blocks: Vec<BlockId> = p_body_blocks.chain(c_body_blocks).collect();
    // The consumer's body entry must be phi-free: its predecessor changes
    // from the fused header to the producer's latch in the chunk.
    let c_body_entry = func.block_of_label(get("body_r"));
    if !leading_phis(func, c_body_entry).is_empty() {
        return Err(OutlineError::UnsupportedHeaderShape);
    }
    let mut closure = Closure::discover(func, &body_blocks, &[p_iterator, c_iterator, acc], &dead);
    // The produced value itself may live entirely outside both bodies (a
    // loop-invariant broadcast, `tmp[i] = x`): its only user is the elided
    // store, so the body scan above never sees it — yet the consumer's
    // load is rewired to it, so it must still travel to the chunk.
    closure.add(p_val);
    let closure = closure.values;
    // Every closure value must be available at the rewritten call site.
    for &cv in &closure {
        if let ValueKind::Inst { .. } = &func.value(cv).kind {
            let Some(db) = func.block_of_inst(cv) else {
                return Err(OutlineError::ClosureNotAvailable);
            };
            if !analyses.dom.dominates(db, c_preheader) {
                return Err(OutlineError::ClosureNotAvailable);
            }
        }
    }

    // --- build the fused chunk ------------------------------------------
    let (chunk_name, intrinsic) = chunk_names(module, func_name);
    let acc_ty = func.value(acc).ty;
    let acc_out_index = 3 + closure.len();
    // Both original headers collapse onto the fused header, whose one
    // iterator phi stands in for both loops' induction variables and
    // advances by the *consumer's* increment (SameTripCount guarantees it
    // equals the producer's).
    let mut ck = ChunkBuilder::new(
        func,
        &chunk_name,
        &closure,
        &[("out0".to_string(), cell_ty(acc_ty))],
        &Region {
            headers: &[p_header, c_header],
            body: &body_blocks,
            exit: c_exit,
            latch: func.block_of_label(get("latch_r")),
            next_iter: get("next_iter_r"),
            iterators: &[p_iterator, c_iterator],
        },
    );
    let ch_acc = ck.header_phi(acc, "acc");
    ck.close_header(pred, func.block_of_label(get("body")), &[]);
    // Clone both bodies, skipping the elided tmp chain. The fusion itself:
    // the consumer's `tmp[j]` load *is* the producer's per-iteration value.
    ck.clone_body(&dead, &[(c_load, p_val)]);
    // Splice the bodies: the producer's back edge now falls through into
    // the consumer body instead of the (collapsed) header.
    let ch_p_latch = ck.block_map[&func.block_of_label(get("latch"))];
    let (ch_header_label, ch_c_body_label) = (ck.label(c_header), ck.label(c_body_entry));
    let p_term = *ck.chunk.blocks[ch_p_latch.index()]
        .insts
        .last()
        .expect("latch has a terminator");
    if let ValueKind::Inst { operands, .. } = &mut ck.chunk.value_mut(p_term).kind {
        for op in operands.iter_mut() {
            if *op == ch_header_label {
                *op = ch_c_body_label;
            }
        }
    }
    let identity = identity_of(&mut ck.chunk, fusion.op, acc_ty);
    ck.complete_phi(ch_acc, identity, get("acc_next"));
    ck.store(ch_acc, acc_out_index);
    let mut chunk = ck.finish();
    // The producer's own increment (and any other computation feeding only
    // the elided chain) is now dead: sweep it.
    sweep_unused_pure(&mut chunk);

    // --- rewrite the original function ----------------------------------
    let mut out = module.clone();
    let f = &mut out.functions[fi];
    let mut args = vec![get("iter_begin_r"), get("iter_end_r"), get("iter_step_r")];
    args.extend(&closure);
    let (reloads, arg_count) =
        call_site(f, c_preheader, c_exit, &intrinsic, args, &[(acc_ty, get("acc_init"))], 0);
    let finals = [(acc, reloads[0])];
    patch_exit_phis(f, &exit_patches, &finals, c_header, c_preheader);
    stub_blocks(f, &|b| cl.contains(b), &|b| if c_exit_phis.is_empty() { c_exit } else { b });
    // Stub the producer loop outright: its only effect was materializing
    // `tmp`, which detection proved unobservable.
    stub_blocks(f, &|b| pl.contains(b), &|b| if b == p_header { p_exit } else { b });
    rewire_uses(f, &|b| cl.contains(b), &c_exit_phis, &finals);

    let plan = ReductionPlan {
        accs: vec![AccSlot { arg_index: acc_out_index, ty: acc_ty, op: fusion.op }],
        ..bare_plan(func_name, chunk_name, intrinsic, pred, arg_count)
    };
    Ok((assemble(out, [chunk]), plan))
}

/// Outlines an early-exit loop onto the speculative schedule: the
/// two-exit analog of [`parallelize`], covering both the search family
/// (the loop carries nothing; its results are the *exit phis* at the
/// loop-exit block, merging the break arm with an invariant default) and
/// the speculative folds (the loop *also* carries accumulators whose
/// guard is independent of them). The chunk clones both exits **and** the
/// carried state:
///
/// * `__chunk_f(lo, hi, step, closure…, hit, exits…, folds…)` runs
///   the loop over `[lo, hi)` with the guarded break intact and every
///   fold accumulator seeded with its operator's identity. Its exit block
///   merges a **hit phi** — the iterator from the break edge,
///   [`SEARCH_NO_HIT`] from the induction exit — plus one clone of every
///   original exit phi and one **partial phi** per fold (the
///   identity-seeded accumulator, which on a break
///   holds exactly the fold over the chunk's pre-hit iterations), and
///   stores them all to cells;
/// * the original loop is replaced by cells seeded with the not-found
///   defaults (exit phis) and the accumulators' initial values (folds),
///   the intrinsic call, and reloads rewired over the removed exit phis
///   and the accumulators' post-loop uses.
///
/// The runtime executes the chunk speculatively over many sub-ranges,
/// cancels via `EarlyExitToken`, commits the exit cells of the
/// lowest-indexed hit, and folds the partials of every chunk up to it —
/// see [`crate::runtime`].
fn outline_speculative(
    module: &Module,
    func_name: &str,
    rs: &[&Reduction],
) -> Result<(Module, ReductionPlan), OutlineError> {
    let fi = function_index(module, func_name)?;
    let func = &module.functions[fi];
    let analyses = Analyses::new(module, func);
    let header = rs[0].header;
    let lid = analyses
        .loops
        .loop_with_header(header)
        .expect("detected search loop must exist");
    let l = analyses.loops.get(lid).clone();

    // --- gather loop anatomy from the solver bindings -------------------
    let get = |name: &str| rs[0].binding(name);
    let iterator = get("iterator");
    let exit_block = func.block_of_label(get("exit"));
    let preheader = func.block_of_label(get("preheader"));
    let break_bb = func.block_of_label(get("break_blk"));

    let pred = continue_pred(func, iterator, get("test"), get("jump"), exit_block)?;

    // The speculative folds riding on this loop, if any: their carried
    // accumulator phis are the only header state allowed beside the
    // induction variable.
    let fold_rs: Vec<&Reduction> = rs.iter().copied().filter(|r| r.kind.is_fold_until()).collect();
    let fold_accs: Vec<ValueId> = fold_rs.iter().map(|r| r.binding("acc")).collect();
    let fold_res: Vec<ValueId> = fold_rs.iter().map(|r| r.binding("res")).collect();

    // Header shape: the induction phi plus the detected fold
    // accumulators, then test + jump.
    let phis = leading_phis(func, header);
    if !phis.contains(&iterator) {
        return Err(OutlineError::UnsupportedHeaderShape);
    }
    if phis.iter().any(|&p| p != iterator && !fold_accs.contains(&p)) {
        return Err(OutlineError::UnknownCarriedState);
    }
    if func.block(header).insts[phis.len()..] != [get("test"), get("jump")] {
        return Err(OutlineError::UnsupportedHeaderShape);
    }

    // The exit phis: each merges exactly the induction edge (header) and
    // the break edge. Fold results are handled separately (their
    // loop-edge arm is the carried phi, seeded from the accumulator's
    // initial value rather than an invariant default); every other phi's
    // default must be available before the loop.
    let exit_phis = leading_phis(func, exit_block);
    let mut exit_merges: Vec<(ValueId, ValueId, ValueId)> = Vec::new(); // (phi, default, break value)
    for &phi in &exit_phis {
        if fold_res.contains(&phi) {
            continue;
        }
        let incoming = func.phi_incoming(phi);
        let dv = incoming.iter().find(|(_, b)| *b == header).map(|(v, _)| *v);
        let bv = incoming.iter().find(|(_, b)| *b == break_bb).map(|(v, _)| *v);
        let (Some(dv), Some(bv)) = (dv, bv) else { return Err(OutlineError::ExitHasPhis) };
        if incoming.len() != 2 {
            return Err(OutlineError::ExitHasPhis);
        }
        if func.block_of_inst(dv).is_some_and(|b| l.contains(b) || b == break_bb) {
            return Err(OutlineError::NonInvariantExitDefault);
        }
        exit_merges.push((phi, dv, bv));
    }
    // The fold results' break arms: the carried phi (pre-update break —
    // SSA then folds the trivial exit phi away, so `res == acc`) or its
    // update (post-update break, through a surviving exit phi).
    let mut fold_breaks: Vec<ValueId> = Vec::new();
    for (&res, &acc) in fold_res.iter().zip(&fold_accs) {
        if res == acc {
            fold_breaks.push(acc);
        } else {
            let bv = func
                .phi_incoming(res)
                .iter()
                .find(|(_, b)| *b == break_bb)
                .map(|(v, _)| *v)
                .ok_or(OutlineError::ExitHasPhis)?;
            fold_breaks.push(bv);
        }
    }
    // The iterator must not be live past the loop except through the
    // exit phis being replaced; a fold accumulator whose result is an
    // exit phi must not escape directly either (such uses would observe
    // the pre-break value, which the cells do not reproduce).
    let in_loop = |b: BlockId| l.contains(b) || b == break_bb;
    for b in func.block_ids().filter(|&b| !in_loop(b)) {
        for &inst in &func.block(b).insts {
            if exit_phis.contains(&inst) {
                continue;
            }
            let ops = func.value(inst).kind.operands();
            if ops.contains(&iterator) {
                return Err(OutlineError::IteratorLiveOut);
            }
            for (&res, &acc) in fold_res.iter().zip(&fold_accs) {
                if res != acc && ops.contains(&acc) {
                    return Err(OutlineError::CarriedValueLiveOut);
                }
            }
        }
    }

    // --- closure discovery ----------------------------------------------
    // Cloned blocks: the loop body plus the break trampoline (outside the
    // natural loop, since it cannot reach the latch).
    let body_blocks: Vec<BlockId> =
        func.block_ids().filter(|&b| in_loop(b) && b != header).collect();
    let mut closure = Closure::discover(func, &body_blocks, &phis, &[]);
    // The exit-phi arms travel to the chunk as well: defaults are always
    // out-of-loop values, break values may be (invariants forwarded by the
    // trampoline).
    for &(_, dv, bv) in &exit_merges {
        closure.add(dv);
        closure.add(bv);
    }
    let closure = closure.values;

    // --- build the chunk function ----------------------------------------
    let (chunk_name, intrinsic) = chunk_names(module, func_name);
    let ty_of = |v: ValueId| func.value(v).ty;
    let mut cells: Vec<(String, Type)> = vec![("hit".to_string(), Type::PtrInt)];
    for (i, &(phi, _, _)) in exit_merges.iter().enumerate() {
        cells.push((format!("exit{i}"), cell_ty(ty_of(phi))));
    }
    for (i, &acc) in fold_accs.iter().enumerate() {
        cells.push((format!("fold{i}"), cell_ty(ty_of(acc))));
    }
    let hit_arg_index = 3 + closure.len();
    let exit_out_base = hit_arg_index + 1;
    let fold_out_base = exit_out_base + exit_merges.len();
    let mut ck = ChunkBuilder::new(
        func,
        &chunk_name,
        &closure,
        &cells,
        &Region {
            headers: &[header],
            body: &body_blocks,
            exit: exit_block,
            latch: func.block_of_label(get("latch")),
            next_iter: get("next_iter"),
            iterators: &[iterator],
        },
    );
    // Fold accumulators: identity-seeded carried phis, exactly like the
    // deterministic fold template's (the merge re-applies the initial
    // value once, in the rewritten preheader's cell).
    let c_fold_accs: Vec<ValueId> =
        fold_accs.iter().map(|&acc| ck.header_phi(acc, "acc")).collect();
    ck.close_header(pred, func.block_of_label(get("body")), &[]);
    ck.clone_body(&[], &[]);
    for ((r, &acc), &c_acc) in fold_rs.iter().zip(&fold_accs).zip(&c_fold_accs) {
        let identity = identity_of(&mut ck.chunk, r.op, ty_of(acc));
        ck.complete_phi(c_acc, identity, r.binding("acc_next"));
    }

    // Chunk exit: the hit phi plus one clone of every original exit phi,
    // merging the induction edge (header) with the break edge.
    let (c_header_label, c_break_label) = (ck.label(header), ck.label(break_bb));
    let no_hit = ck.chunk.const_int(SEARCH_NO_HIT);
    let c_hit = ck.exit_phi(
        vec![no_hit, c_header_label, ck.iter, c_break_label],
        Type::Int,
        Some("hit".to_string()),
    );
    let mut c_exit_phis = Vec::new();
    for &(phi, dv, bv) in &exit_merges {
        let c_dv = ck.operand(dv);
        let c_bv = ck.operand(bv);
        let name = func.value(phi).name.clone();
        c_exit_phis.push(ck.exit_phi(
            vec![c_dv, c_header_label, c_bv, c_break_label],
            ty_of(phi),
            name,
        ));
    }
    // One partial phi per fold: the identity-seeded accumulator on the
    // induction exit, its break-arm value on the break edge. On a break
    // this is exactly the fold over the chunk's pre-hit (or, post-update,
    // through-hit) iterations — the value the merge replays in order.
    let mut c_partials = Vec::new();
    for ((&acc, &c_acc), &bv) in fold_accs.iter().zip(&c_fold_accs).zip(&fold_breaks) {
        let c_bv = ck.operand(bv);
        let operands = vec![c_acc, c_header_label, c_bv, c_break_label];
        c_partials.push(ck.exit_phi(operands, ty_of(acc), Some("partial".to_string())));
    }
    ck.store(c_hit, hit_arg_index);
    for (i, &c_phi) in c_exit_phis.iter().enumerate() {
        ck.store(c_phi, exit_out_base + i);
    }
    for (i, &c_phi) in c_partials.iter().enumerate() {
        ck.store(c_phi, fold_out_base + i);
    }
    let chunk = ck.finish();

    // --- rewrite the original function ------------------------------------
    let mut out = module.clone();
    let f = &mut out.functions[fi];
    // Cells: the hit marker, one cell per exit phi seeded with its
    // not-found default (the value the phi takes on the induction edge),
    // and one per fold seeded with the accumulator's original initial
    // value: the merge folds `init ⊕ partial_0 ⊕ … ⊕ partial_w` into it,
    // so a loop the runtime never enters keeps `init` — the sequential
    // result of an empty iteration space.
    let mut cell_inits = vec![(Type::Int, f.const_int(SEARCH_NO_HIT))];
    cell_inits.extend(exit_merges.iter().map(|&(phi, dv, _)| (ty_of(phi), dv)));
    cell_inits.extend(fold_rs.iter().map(|r| (ty_of(r.binding("acc")), r.binding("acc_init"))));
    let mut args = vec![get("iter_begin"), get("iter_end"), get("iter_step")];
    args.extend(&closure);
    // Every cell but the hit marker is reloaded: the exit phis' values,
    // then the folds', rewired over whatever carried the fold out of the
    // loop — the surviving exit phi, or (pre-update break) the
    // accumulator phi itself.
    let (reloads, arg_count) =
        call_site(f, preheader, exit_block, &intrinsic, args, &cell_inits, 1);
    let finals: Vec<(ValueId, ValueId)> = exit_merges
        .iter()
        .map(|&(phi, _, _)| phi)
        .chain(fold_res)
        .zip(reloads)
        .collect();
    // Drop the exit phis (replaced by the reloads), then stub out the loop
    // blocks and the trampoline.
    f.blocks[exit_block.index()].insts.retain(|v| !exit_phis.contains(v));
    stub_blocks(f, &in_loop, &|_| exit_block);
    rewire_uses(f, &in_loop, &[], &finals);

    let search = SearchSlot {
        hit_arg_index,
        exits: exit_merges
            .iter()
            .enumerate()
            .map(|(i, &(phi, _, _))| ExitSlot { arg_index: exit_out_base + i, ty: ty_of(phi) })
            .collect(),
        folds: fold_rs
            .iter()
            .zip(&fold_accs)
            .enumerate()
            .map(|(i, (r, &acc))| FoldSlot {
                arg_index: fold_out_base + i,
                ty: ty_of(acc),
                op: r.op,
            })
            .collect(),
    };
    let plan = ReductionPlan {
        search: Some(search),
        ..bare_plan(func_name, chunk_name, intrinsic, pred, arg_count)
    };
    Ok((assemble(out, [chunk]), plan))
}

/// Index of `func_name` in `module`.
fn function_index(module: &Module, func_name: &str) -> Result<usize, OutlineError> {
    module
        .functions
        .iter()
        .position(|f| f.name == func_name)
        .ok_or_else(|| OutlineError::NoSuchFunction(func_name.to_string()))
}

/// Normalizes the loop test into a continue-predicate with the iterator
/// on the left (negated when the jump's then-arm leaves the loop).
fn continue_pred(
    func: &Function,
    iterator: ValueId,
    test: ValueId,
    jump: ValueId,
    exit_block: BlockId,
) -> Result<CmpPred, OutlineError> {
    let Some(&Opcode::Cmp(raw_pred)) = func.value(test).kind.opcode() else {
        return Err(OutlineError::UnsupportedHeaderShape);
    };
    let test_ops = func.value(test).kind.operands();
    let mut pred = if test_ops[0] == iterator { raw_pred } else { raw_pred.swapped() };
    let jump_ops = func.value(jump).kind.operands();
    if func.block_of_label(jump_ops[1]) == exit_block {
        pred = pred.negated();
    }
    Ok(pred)
}

/// The phis at the start of `block`.
fn leading_phis(func: &Function, block: BlockId) -> Vec<ValueId> {
    func.block(block)
        .insts
        .iter()
        .copied()
        .take_while(|&v| func.value(v).kind.opcode() == Some(&Opcode::Phi))
        .collect()
}

/// Whether an instruction outside `region` uses `v`.
fn used_outside(func: &Function, region: &dyn Fn(BlockId) -> bool, v: ValueId) -> bool {
    func.block_ids()
        .filter(|&b| !region(b))
        .flat_map(|b| func.block(b).insts.iter())
        .any(|&inst| func.value(inst).kind.operands().contains(&v))
}

/// Pairs each of `exit_phis` with its arm on the loop edge from `header`.
/// That arm must be one of the `carried` values (patched to its reloaded
/// final) or defined outside the loop.
fn exit_patches(
    func: &Function,
    exit_phis: &[ValueId],
    header: BlockId,
    in_loop: &dyn Fn(BlockId) -> bool,
    carried: &[ValueId],
) -> Result<Vec<(ValueId, ValueId)>, OutlineError> {
    exit_phis
        .iter()
        .map(|&phi| {
            let hv = func
                .phi_incoming(phi)
                .iter()
                .find(|(_, b)| *b == header)
                .map(|(v, _)| *v)
                .ok_or(OutlineError::ExitHasPhis)?;
            if func.block_of_inst(hv).is_some_and(in_loop) && !carried.contains(&hv) {
                return Err(OutlineError::ExitHasPhis);
            }
            Ok((phi, hv))
        })
        .collect()
}

/// The pointer type of a cell holding a `ty` value.
fn cell_ty(ty: Type) -> Type {
    match ty {
        Type::Int | Type::Bool => Type::PtrInt,
        _ => Type::PtrFloat,
    }
}

/// The identity of `op` as a `ty` constant of `chunk`.
fn identity_of(chunk: &mut Function, op: ReductionOp, ty: Type) -> ValueId {
    match ty {
        Type::Int | Type::Bool => chunk.const_int(op.identity_int()),
        _ => chunk.const_float(op.identity_float()),
    }
}

/// Closure discovery: the arguments, globals and instructions defined
/// outside the cloned region that the chunk reads, in first-use order.
/// They travel to the chunk as its `c…` parameters.
struct Closure<'f> {
    func: &'f Function,
    /// Every value the chunk defines itself.
    inside: HashSet<ValueId>,
    values: Vec<ValueId>,
}

impl<'f> Closure<'f> {
    /// Scans the operands of every `body` instruction except those in
    /// `skip` (which are not cloned); `carried` are the header phis the
    /// chunk redefines.
    fn discover(
        func: &'f Function,
        body: &[BlockId],
        carried: &[ValueId],
        skip: &[ValueId],
    ) -> Closure<'f> {
        let body_insts = || body.iter().flat_map(|&b| func.block(b).insts.iter().copied());
        let inside = body_insts().chain(carried.iter().copied()).collect();
        let mut closure = Closure { func, inside, values: Vec::new() };
        for inst in body_insts().filter(|inst| !skip.contains(inst)) {
            for &op in func.value(inst).kind.operands() {
                closure.add(op);
            }
        }
        closure
    }

    /// Adds `v` if it is an argument, a global or an outside instruction.
    fn add(&mut self, v: ValueId) {
        let outside = match &self.func.value(v).kind {
            ValueKind::Argument(_) | ValueKind::GlobalRef(_) => true,
            ValueKind::Inst { .. } => !self.inside.contains(&v),
            _ => false,
        };
        if outside && !self.values.contains(&v) {
            self.values.push(v);
        }
    }
}

/// The part of the original function a chunk clones.
struct Region<'r> {
    /// Loop headers, all collapsed onto the chunk's one header.
    headers: &'r [BlockId],
    /// Blocks cloned into the chunk, in order.
    body: &'r [BlockId],
    /// The block the chunk's exit stands in for.
    exit: BlockId,
    /// The latch whose back edge feeds the header phis.
    latch: BlockId,
    /// The iterator's increment.
    next_iter: ValueId,
    /// Induction variables, all mapped to the chunk's one iterator phi.
    iterators: &'r [ValueId],
}

/// A chunk function under construction: parameters `lo, hi, step,
/// closure…, cells…`; blocks `entry → header ⇄ body… → exit`, with the
/// iterator phi `i` first in the header; and the block and value maps from
/// the original function into it.
struct ChunkBuilder<'f> {
    func: &'f Function,
    chunk: Function,
    block_map: HashMap<BlockId, BlockId>,
    /// Original values to their chunk counterparts. `iter_begin`,
    /// `iter_end` and `iter_step` are deliberately absent: they are often
    /// interned constants (0, 1, n) that the loop body reuses with an
    /// entirely different meaning (e.g. tpacf's binary-search `lo = 0`).
    /// Their structural uses — the iterator phi, the loop test, the
    /// increment — are rebuilt explicitly.
    val_map: HashMap<ValueId, ValueId>,
    body: Vec<BlockId>,
    entry: BlockId,
    header: BlockId,
    exit: BlockId,
    latch: BlockId,
    next_iter: ValueId,
    /// The iterator phi.
    iter: ValueId,
}

impl<'f> ChunkBuilder<'f> {
    fn new(
        func: &'f Function,
        name: &str,
        closure: &[ValueId],
        cells: &[(String, Type)],
        region: &Region,
    ) -> ChunkBuilder<'f> {
        let mut params: Vec<(String, Type)> =
            ["lo", "hi", "step"].iter().map(|p| ((*p).to_string(), Type::Int)).collect();
        params.extend(
            closure.iter().enumerate().map(|(i, &cv)| (format!("c{i}"), func.value(cv).ty)),
        );
        params.extend(cells.iter().cloned());
        let param_refs: Vec<(&str, Type)> = params.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        let mut chunk = Function::new(name, &param_refs, Type::Void);

        let entry = chunk.add_block("entry");
        let header = chunk.add_block("header");
        let mut block_map: HashMap<BlockId, BlockId> =
            region.headers.iter().map(|&h| (h, header)).collect();
        for &b in region.body {
            block_map.insert(b, chunk.add_block(&func.block(b).name));
        }
        let exit = chunk.add_block("exit");
        block_map.insert(region.exit, exit);

        let mut val_map: HashMap<ValueId, ValueId> = closure
            .iter()
            .enumerate()
            .map(|(i, &cv)| (cv, chunk.arg_values[3 + i]))
            .collect();
        let iter = chunk.add_value(
            ValueKind::Inst { opcode: Opcode::Phi, operands: vec![] },
            Type::Int,
            Some("i".to_string()),
        );
        chunk.blocks[header.index()].insts.push(iter);
        val_map.extend(region.iterators.iter().map(|&it| (it, iter)));
        ChunkBuilder {
            func,
            latch: block_map[&region.latch],
            chunk,
            block_map,
            val_map,
            body: region.body.to_vec(),
            entry,
            header,
            exit,
            next_iter: region.next_iter,
            iter,
        }
    }

    /// The chunk label of original block `b`.
    fn label(&self, b: BlockId) -> ValueId {
        self.chunk.block(self.block_map[&b]).label
    }

    /// A header phi standing in for `anchor`, completed later by
    /// [`ChunkBuilder::complete_phi`].
    fn header_phi(&mut self, anchor: ValueId, name: &str) -> ValueId {
        let phi = self.chunk.add_value(
            ValueKind::Inst { opcode: Opcode::Phi, operands: vec![] },
            self.func.value(anchor).ty,
            Some(name.to_string()),
        );
        self.chunk.blocks[self.header.index()].insts.push(phi);
        self.val_map.insert(anchor, phi);
        phi
    }

    /// Ends the header with the continue test `i <pred> hi`, into the
    /// clone of `body_entry` or out to the exit. The entry then loads each
    /// `(parameter, type)` cell of `seeds` and falls into the header;
    /// returns the loaded seeds.
    fn close_header(
        &mut self,
        pred: CmpPred,
        body_entry: BlockId,
        seeds: &[(usize, Type)],
    ) -> Vec<ValueId> {
        let hi = self.chunk.arg_values[1];
        let test =
            self.chunk
                .append_inst(self.header, Opcode::Cmp(pred), vec![self.iter, hi], Type::Bool);
        let targets = vec![test, self.label(body_entry), self.chunk.block(self.exit).label];
        self.chunk.append_inst(self.header, Opcode::CondBr, targets, Type::Void);
        let loaded = seeds
            .iter()
            .map(|&(param, ty)| {
                let cell = self.chunk.arg_values[param];
                self.chunk.append_inst(self.entry, Opcode::Load, vec![cell], ty)
            })
            .collect();
        let header_label = self.chunk.block(self.header).label;
        self.chunk.append_inst(self.entry, Opcode::Br, vec![header_label], Type::Void);
        loaded
    }

    /// Clones the body in two phases — instruction shells first, so
    /// operands may refer forward, then operands — and completes the
    /// iterator phi. Instructions in `skip` are not cloned; each
    /// `(from, to)` of `aliases` makes uses of `from` read the clone of
    /// `to`.
    fn clone_body(&mut self, skip: &[ValueId], aliases: &[(ValueId, ValueId)]) {
        let func = self.func;
        let mut cloned: Vec<(ValueId, ValueId)> = Vec::new(); // (orig, clone)
        for &b in &self.body {
            for &inst in func.block(b).insts.iter().filter(|inst| !skip.contains(inst)) {
                let data = func.value(inst);
                let Some(opcode) = data.kind.opcode() else { unreachable!() };
                let c = self.chunk.add_value(
                    ValueKind::Inst { opcode: opcode.clone(), operands: vec![] },
                    data.ty,
                    data.name.clone(),
                );
                self.chunk.blocks[self.block_map[&b].index()].insts.push(c);
                self.val_map.insert(inst, c);
                cloned.push((inst, c));
            }
        }
        for &(from, to) in aliases {
            let v = self.operand(to);
            self.val_map.insert(from, v);
        }
        for (orig, clone) in cloned {
            let mapped: Vec<ValueId> =
                func.value(orig).kind.operands().iter().map(|&op| self.operand(op)).collect();
            if let ValueKind::Inst { operands, .. } = &mut self.chunk.value_mut(clone).kind {
                *operands = mapped;
            }
        }
        let lo = self.chunk.arg_values[0];
        self.complete_phi(self.iter, lo, self.next_iter);
    }

    /// Completes header phi `phi`: `init` from the entry, the clone of
    /// `next` from the latch.
    fn complete_phi(&mut self, phi: ValueId, init: ValueId, next: ValueId) {
        let incoming = [
            init,
            self.chunk.block(self.entry).label,
            self.val_map[&next],
            self.chunk.block(self.latch).label,
        ];
        if let ValueKind::Inst { operands, .. } = &mut self.chunk.value_mut(phi).kind {
            operands.extend(incoming);
        }
    }

    /// The chunk counterpart of original operand `op`: its clone or
    /// closure parameter, a cloned block's label, or a re-interned
    /// constant.
    fn operand(&mut self, op: ValueId) -> ValueId {
        if let Some(&m) = self.val_map.get(&op) {
            return m;
        }
        match &self.func.value(op).kind {
            ValueKind::Block(b) => {
                let nb = self
                    .block_map
                    .get(b)
                    .unwrap_or_else(|| panic!("branch target {b} not in loop clone"));
                self.chunk.block(*nb).label
            }
            ValueKind::ConstInt(c) => self.chunk.const_int(*c),
            ValueKind::ConstFloat(c) => self.chunk.const_float(*c),
            ValueKind::ConstBool(c) => self.chunk.const_bool(*c),
            other => panic!("unmapped operand {op}: {other:?}"),
        }
    }

    /// A phi in the exit block.
    fn exit_phi(&mut self, operands: Vec<ValueId>, ty: Type, name: Option<String>) -> ValueId {
        let phi = self
            .chunk
            .add_value(ValueKind::Inst { opcode: Opcode::Phi, operands }, ty, name);
        self.chunk.blocks[self.exit.index()].insts.push(phi);
        phi
    }

    /// Stores `v` on exit to the cell passed as parameter `param`.
    fn store(&mut self, v: ValueId, param: usize) {
        let cell = self.chunk.arg_values[param];
        self.chunk.append_inst(self.exit, Opcode::Store, vec![v, cell], Type::Void);
    }

    /// Returns from the exit and yields the chunk.
    fn finish(mut self) -> Function {
        self.chunk.append_inst(self.exit, Opcode::Ret, vec![], Type::Void);
        self.chunk
    }
}

/// Replaces the branch ending `preheader` with the intrinsic call site:
/// one cell per `cells` entry (the carried value's type and the value the
/// cell is seeded with), the call `intrinsic(args…, cells…)`, a reload of
/// every cell from index `reload_from` on, and a branch to `exit`. Returns
/// the reloads and the call's argument count.
fn call_site(
    f: &mut Function,
    preheader: BlockId,
    exit: BlockId,
    intrinsic: &str,
    mut args: Vec<ValueId>,
    cells: &[(Type, ValueId)],
    reload_from: usize,
) -> (Vec<ValueId>, usize) {
    let term = f.blocks[preheader.index()].insts.pop().expect("preheader has a terminator");
    debug_assert_eq!(f.value(term).kind.opcode(), Some(&Opcode::Br));
    let mut ptrs = Vec::new();
    for &(ty, init) in cells {
        let one = f.const_int(1);
        let cell = f.append_inst(preheader, Opcode::Alloca, vec![one], cell_ty(ty));
        f.append_inst(preheader, Opcode::Store, vec![init, cell], Type::Void);
        ptrs.push(cell);
    }
    args.extend(&ptrs);
    let arg_count = args.len();
    f.append_inst(preheader, Opcode::Call(intrinsic.to_string()), args, Type::Void);
    let reloads = cells
        .iter()
        .zip(ptrs)
        .skip(reload_from)
        .map(|(&(ty, _), cell)| f.append_inst(preheader, Opcode::Load, vec![cell], ty))
        .collect();
    let exit_label = f.block(exit).label;
    f.append_inst(preheader, Opcode::Br, vec![exit_label], Type::Void);
    (reloads, arg_count)
}

/// The reloaded final standing in for `v`, if `v` is carried.
fn final_of(finals: &[(ValueId, ValueId)], v: ValueId) -> Option<ValueId> {
    finals.iter().find(|(carried, _)| *carried == v).map(|&(_, reload)| reload)
}

/// Moves each exit phi's loop edge (from `header`) onto the preheader
/// edge, carrying the reloaded final for a carried value; the other arms —
/// paths around the loop — stay untouched.
fn patch_exit_phis(
    f: &mut Function,
    patches: &[(ValueId, ValueId)],
    finals: &[(ValueId, ValueId)],
    header: BlockId,
    preheader: BlockId,
) {
    let header_label = f.block(header).label;
    let preheader_label = f.block(preheader).label;
    for &(phi, hv) in patches {
        let new_v = final_of(finals, hv).unwrap_or(hv);
        if let ValueKind::Inst { operands, .. } = &mut f.values[phi.index()].kind {
            for arm in operands.chunks_mut(2) {
                if arm[1] == header_label {
                    arm[0] = new_v;
                    arm[1] = preheader_label;
                }
            }
        }
    }
}

/// Empties every block `stubbed` selects down to a branch to `target(b)`.
fn stub_blocks(
    f: &mut Function,
    stubbed: &dyn Fn(BlockId) -> bool,
    target: &dyn Fn(BlockId) -> BlockId,
) {
    for b in f.block_ids().collect::<Vec<_>>() {
        if stubbed(b) {
            f.blocks[b.index()].insts.clear();
            let label = f.block(target(b)).label;
            let stub = f.add_value(
                ValueKind::Inst { opcode: Opcode::Br, operands: vec![label] },
                Type::Void,
                None,
            );
            f.blocks[b.index()].insts.push(stub);
        }
    }
}

/// Rewires every use of a carried value outside `region` to its reloaded
/// final, except in the `skip` instructions (exit phis already patched
/// edge-precisely).
fn rewire_uses(
    f: &mut Function,
    region: &dyn Fn(BlockId) -> bool,
    skip: &[ValueId],
    finals: &[(ValueId, ValueId)],
) {
    for b in f.block_ids().collect::<Vec<_>>() {
        if region(b) {
            continue;
        }
        for inst in f.blocks[b.index()].insts.clone() {
            if skip.contains(&inst) {
                continue;
            }
            if let ValueKind::Inst { operands, .. } = &mut f.values[inst.index()].kind {
                for op in operands.iter_mut() {
                    if let Some(reload) = final_of(finals, *op) {
                        *op = reload;
                    }
                }
            }
        }
    }
}

/// A plan with no slots, for a template to fill in.
fn bare_plan(
    function: &str,
    chunk_fn: String,
    intrinsic: String,
    pred: CmpPred,
    arg_count: usize,
) -> ReductionPlan {
    ReductionPlan {
        function: function.to_string(),
        chunk_fn,
        chunk_value_only_fn: None,
        intrinsic,
        pred,
        accs: vec![],
        hists: vec![],
        scans: vec![],
        args: vec![],
        search: None,
        written: vec![],
        arg_count,
    }
}

/// Adds the generated chunks to the rewritten module, which must verify.
fn assemble(mut out: Module, chunks: impl IntoIterator<Item = Function>) -> Module {
    for chunk in chunks {
        out.push_function(chunk);
    }
    gr_ir::verify::verify_module(&out).expect("outlined module must verify");
    out
}

/// Clones `chunk` into its "value-only" variant: `dead_stores` (the scan
/// output stores) are removed, then every pure instruction left without a
/// user — typically the gep chain that computed the output addresses — is
/// dropped by a small dead-code sweep. Signature and out-cell protocol are
/// unchanged, so the runtime can substitute it for the full chunk in the
/// partials pass.
fn value_only_variant(chunk: &Function, name: &str, dead_stores: &[ValueId]) -> Function {
    let mut vo = chunk.clone();
    vo.name = name.to_string();
    for b in &mut vo.blocks {
        b.insts.retain(|v| !dead_stores.contains(v));
    }
    sweep_unused_pure(&mut vo);
    vo
}

/// Iteratively drops pure instructions with no remaining users — the
/// small dead-code sweep shared by the value-only variant (dead address
/// chains of stripped stores) and the fused chunk (the producer's
/// now-unused increment and elided tmp chain feeders).
fn sweep_unused_pure(f: &mut Function) {
    loop {
        let mut used: HashSet<ValueId> = HashSet::new();
        for b in &f.blocks {
            for &inst in &b.insts {
                used.extend(f.value(inst).kind.operands().iter().copied());
            }
        }
        let mut changed = false;
        for bi in 0..f.blocks.len() {
            let insts = f.blocks[bi].insts.clone();
            let kept: Vec<ValueId> = insts
                .iter()
                .copied()
                .filter(|&v| used.contains(&v) || !droppable_when_unused(f, v))
                .collect();
            if kept.len() != insts.len() {
                changed = true;
                f.blocks[bi].insts = kept;
            }
        }
        if !changed {
            break;
        }
    }
}

/// Side-effect-free opcodes a dead-code sweep may drop when unused. Calls
/// are kept conservatively (purity is not re-derived for the chunk).
fn droppable_when_unused(f: &Function, v: ValueId) -> bool {
    matches!(
        f.value(v).kind.opcode(),
        Some(
            Opcode::Gep
                | Opcode::Load
                | Opcode::Bin(_)
                | Opcode::Un(_)
                | Opcode::Cmp(_)
                | Opcode::Cast
                | Opcode::Select
                | Opcode::Phi
        )
    )
}

/// Whether the store address is provably a distinct element for every
/// iteration: the index is `i`, `i ± inv`, `i * c` or `i * c ± inv` with
/// `c` a nonzero integer constant — [`gr_analysis::scev::is_strided_in`],
/// the same predicate the scan post-check applies to its output index.
fn store_index_disjoint(
    func: &Function,
    iterator: ValueId,
    is_invariant: &dyn Fn(ValueId) -> bool,
    ptr: ValueId,
) -> bool {
    let data = func.value(ptr);
    if data.kind.opcode() != Some(&Opcode::Gep) {
        return false;
    }
    let idx = data.kind.operands()[1];
    gr_analysis::scev::is_strided_in(func, iterator, is_invariant, idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_core::detect_reductions;
    use gr_frontend::compile;

    fn outline(src: &str, f: &str) -> Result<(Module, ReductionPlan), OutlineError> {
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        parallelize(&m, f, &rs)
    }

    #[test]
    fn outlines_simple_sum() {
        let (m, plan) = outline(
            "float sum(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }",
            "sum",
        )
        .unwrap();
        assert_eq!(plan.accs.len(), 1);
        assert!(plan.hists.is_empty());
        assert!(m.function(&plan.chunk_fn).is_some());
        assert_eq!(plan.pred, gr_ir::CmpPred::Lt);
        // lo, hi, step, a, n?, cell — closure contains at least `a`.
        assert!(plan.arg_count >= 5);
    }

    #[test]
    fn chunk_names_depend_only_on_the_module() {
        const SUM: &str =
            "float sum(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }";
        let names = |m: &Module| {
            let (_, plan) = parallelize(m, "sum", &detect_reductions(m)).unwrap();
            (plan.chunk_fn, plan.intrinsic)
        };
        let m = compile(SUM).unwrap();
        let plain = ("__chunk_sum".to_string(), "__parrun_sum".to_string());
        assert_eq!(names(&m), plain);
        assert_eq!(names(&m), plain, "a second rewrite of one module names its chunk the same");
        let taken = format!("float __chunk_sum(float x) {{ return x; }}\n{SUM}");
        let suffixed = ("__chunk_sum_1".to_string(), "__parrun_sum_1".to_string());
        assert_eq!(names(&compile(&taken).unwrap()), suffixed);
        let both = format!("float __chunk_sum_1(float x) {{ return x; }}\n{taken}");
        assert_eq!(names(&compile(&both).unwrap()).0, "__chunk_sum_2", "the smallest free suffix");
    }

    #[test]
    fn chained_outlines_keep_chunk_names_unique() {
        // `f`'s value-only chunk would be `__chunk_f_vo`, the name `f_vo`'s
        // own chunk already holds once `f_vo` is outlined first.
        const SCANS: &str = "void f_vo(int* a, int* out, int n) {
                 int s = 0;
                 for (int i = 0; i < n; i++) { s = s + a[i]; out[i] = s; }
             }
             void f(int* a, int* out, int n) {
                 int s = 0;
                 for (int i = 0; i < n; i++) { s = s + a[i]; out[i] = s; }
             }";
        let m = compile(SCANS).unwrap();
        let rs = detect_reductions(&m);
        let (m1, plan_vo) = parallelize(&m, "f_vo", &rs).unwrap();
        let (m2, plan_f) = parallelize(&m1, "f", &rs).unwrap();
        let data: Vec<i64> = (0..5000).map(|i| i % 13 - 3).collect();
        let run = |module: &Module, plan: Option<&ReductionPlan>, threads: usize| {
            let mut mem = gr_interp::Memory::new(module);
            let a = mem.alloc_int(&data);
            let out = mem.alloc_int(&vec![0; data.len()]);
            let mut machine = gr_interp::Machine::new(module, mem);
            if let Some(plan) = plan {
                machine.set_handler(crate::runtime::handler(module, plan.clone(), threads));
            }
            let args =
                [gr_interp::RtVal::ptr(a), gr_interp::RtVal::ptr(out), gr_interp::RtVal::I(5000)];
            machine.call("f_vo", &args).unwrap();
            machine.mem.ints(out).to_vec()
        };
        let expect = run(&m, None, 1);
        for threads in [2, 4] {
            assert_eq!(run(&m2, Some(&plan_vo), threads), expect, "threads={threads}");
        }
        assert_eq!(plan_vo.chunk_value_only_fn.as_deref(), Some("__chunk_f_vo_vo"));
        assert_eq!(plan_f.chunk_fn, "__chunk_f_1");
        assert_eq!(plan_f.chunk_value_only_fn.as_deref(), Some("__chunk_f_1_vo"));
    }

    #[test]
    fn outlines_histogram() {
        let (m, plan) = outline(
            "void rank(int* bins, int* keys, int n) { for (int i = 0; i < n; i++) bins[keys[i]]++; }",
            "rank",
        )
        .unwrap();
        assert_eq!(plan.hists.len(), 1);
        assert!(plan.accs.is_empty());
        assert!(m.function(&plan.chunk_fn).is_some());
        assert!(plan.written.is_empty());
    }

    #[test]
    fn outlines_mixed_ep_loop() {
        let (m, plan) = outline(
            "void ep(float* x, float* q, float* sums, int nk) {
                 float sx = 0.0;
                 float sy = 0.0;
                 for (int i = 0; i < nk; i++) {
                     float x1 = 2.0 * x[2 * i] - 1.0;
                     float x2 = 2.0 * x[2 * i + 1] - 1.0;
                     float t1 = x1 * x1 + x2 * x2;
                     if (t1 <= 1.0) {
                         float t2 = sqrt(-2.0 * log(t1) / t1);
                         float t3 = x1 * t2;
                         float t4 = x2 * t2;
                         int l = fmax(fabs(t3), fabs(t4));
                         q[l] = q[l] + 1.0;
                         sx = sx + t3;
                         sy = sy + t4;
                     }
                 }
                 sums[0] = sx;
                 sums[1] = sy;
             }",
            "ep",
        )
        .unwrap();
        assert_eq!(plan.accs.len(), 2);
        assert_eq!(plan.hists.len(), 1);
        assert!(m.function(&plan.chunk_fn).is_some());
    }

    #[test]
    fn detects_disjoint_stores() {
        let (_, plan) = outline(
            "void f(int* member, int* k, int* counts, int n) {
                 for (int i = 0; i < n; i++) {
                     int c = k[i];
                     counts[c] = counts[c] + 1;
                     member[i] = c;
                 }
             }",
            "f",
        )
        .unwrap();
        assert_eq!(plan.hists.len(), 1);
        assert_eq!(plan.written.len(), 1);
        assert_eq!(plan.written[0].policy, WrittenPolicy::DisjointShared);
    }

    #[test]
    fn scan_plan_carries_store_free_value_only_chunk() {
        let (m, plan) = outline(
            "void psum(float* a, float* out, int n) {
                 float s = 0.0;
                 for (int i = 0; i < n; i++) { s += a[i]; out[i] = s; }
             }",
            "psum",
        )
        .unwrap();
        let vo_name = plan.chunk_value_only_fn.as_deref().expect("scan plans get a variant");
        let vo = m.function(vo_name).expect("variant exists");
        let full = m.function(&plan.chunk_fn).unwrap();
        let count_insts = |f: &Function| f.blocks.iter().map(|b| b.insts.len()).sum::<usize>();
        // The output store and its gep are gone; the cell partial store in
        // the exit block survives (that is the value the runtime folds).
        assert!(
            count_insts(vo) + 2 <= count_insts(full),
            "{} vs {}",
            count_insts(vo),
            count_insts(full)
        );
        let loop_stores = vo
            .blocks
            .iter()
            .filter(|b| b.name != "exit")
            .flat_map(|b| &b.insts)
            .filter(|&&v| vo.value(v).kind.opcode() == Some(&Opcode::Store))
            .count();
        assert_eq!(loop_stores, 0, "no stores left inside the value-only loop body");
        // Same signature: the runtime swaps it in without re-marshalling.
        assert_eq!(vo.arg_values.len(), full.arg_values.len());
    }

    #[test]
    fn non_scan_plan_has_no_value_only_chunk() {
        let (_, plan) = outline(
            "float sum(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }",
            "sum",
        )
        .unwrap();
        assert!(plan.chunk_value_only_fn.is_none());
    }

    #[test]
    fn select_argmin_outlines() {
        let (m, plan) = outline(
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
            "amin",
        )
        .unwrap();
        assert_eq!(plan.args.len(), 1);
        assert_eq!(plan.args[0].pred, gr_ir::CmpPred::Lt);
        assert!(m.function(&plan.chunk_fn).is_some());
    }

    #[test]
    fn find_first_outlines_with_two_exit_chunk() {
        let (m, plan) = outline(
            "int find(int* a, int x, int n) {
                 int r = n;
                 for (int i = 0; i < n; i++) {
                     if (a[i] == x) { r = i; break; }
                 }
                 return r;
             }",
            "find",
        )
        .unwrap();
        let search = plan.search.as_ref().expect("search plan");
        assert_eq!(search.exits.len(), 1, "one exit phi (the result)");
        assert!(plan.accs.is_empty() && plan.hists.is_empty() && plan.scans.is_empty());
        let chunk = m.function(&plan.chunk_fn).expect("chunk exists");
        // The chunk keeps both exits: its exit block merges >= 2 phis (hit
        // plus the result) and the guard condbr survives the clone.
        let exit_blk = chunk.blocks.iter().find(|b| b.name == "exit").unwrap();
        let phis = exit_blk
            .insts
            .iter()
            .filter(|&&v| chunk.value(v).kind.opcode() == Some(&Opcode::Phi))
            .count();
        assert_eq!(phis, 2, "hit phi + result phi");
        let condbrs = chunk
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|&&v| chunk.value(v).kind.opcode() == Some(&Opcode::CondBr))
            .count();
        assert_eq!(condbrs, 2, "loop test + early-exit guard");
    }

    #[test]
    fn search_with_flag_outlines_two_exit_cells() {
        let (_, plan) = outline(
            "int find(int* a, int* out, int x, int n) {
                 int r = n;
                 int found = 0;
                 for (int i = 0; i < n; i++) {
                     if (a[i] == x) { r = i; found = 1; break; }
                 }
                 out[0] = found;
                 return r;
             }",
            "find",
        )
        .unwrap();
        let search = plan.search.as_ref().expect("search plan");
        assert_eq!(search.exits.len(), 2, "index and flag exit phis");
    }

    #[test]
    fn search_with_carried_sum_outlines_speculatively() {
        // The shape PR 3 refused (`UnknownCarriedState`): a find-first
        // whose loop also carries a sum. The combined speculative-fold
        // template now clones both the exit phi and the accumulator.
        let m = compile(
            "int f(int* a, int x, int n) {
                 int r = n;
                 int s = 0;
                 for (int i = 0; i < n; i++) {
                     s = s + a[i];
                     if (a[i] == x) { r = i; break; }
                 }
                 return r + s;
             }",
        )
        .unwrap();
        let rs = detect_reductions(&m);
        assert!(rs.iter().any(|r| r.kind.is_search()), "{rs:?}");
        assert!(rs.iter().any(|r| r.kind.is_fold_until()), "{rs:?}");
        let (pm, plan) = parallelize(&m, "f", &rs).unwrap();
        let search = plan.search.as_ref().expect("speculative plan");
        assert_eq!(search.exits.len(), 1, "the hit index");
        assert_eq!(search.folds.len(), 1, "the carried sum");
        assert!(pm.function(&plan.chunk_fn).is_some());
    }

    #[test]
    fn fold_until_outlines_with_identity_seeded_partial() {
        let (m, plan) = outline(
            "float sum_until(float* a, float stop, int n) {
                 float s = 0.0;
                 for (int i = 0; i < n; i++) {
                     if (a[i] == stop) break;
                     s += a[i];
                 }
                 return s;
             }",
            "sum_until",
        )
        .unwrap();
        let search = plan.search.as_ref().expect("speculative plan");
        assert!(search.exits.is_empty(), "pre-update break folds the exit phi away");
        assert_eq!(search.folds.len(), 1);
        assert_eq!(search.folds[0].op, gr_core::ReductionOp::Add);
        let chunk = m.function(&plan.chunk_fn).unwrap();
        // The chunk's header carries two phis: the iterator and the
        // identity-seeded accumulator.
        let header = chunk.blocks.iter().find(|b| b.name == "header").unwrap();
        let phis = header
            .insts
            .iter()
            .filter(|&&v| chunk.value(v).kind.opcode() == Some(&Opcode::Phi))
            .count();
        assert_eq!(phis, 2, "iterator + accumulator");
    }

    #[test]
    fn fold_with_unrelated_carried_state_still_refused() {
        // The while-style secondary carried value is no detected
        // reduction: the speculative outline must keep refusing.
        let m = compile(
            "float f(float* a, float stop, int n) {
                 float s = 0.0;
                 float prev = 0.0;
                 for (int i = 0; i < n; i++) {
                     if (a[i] == stop) break;
                     s += a[i] * prev;
                     prev = a[i];
                 }
                 return s;
             }",
        )
        .unwrap();
        let rs = detect_reductions(&m);
        if rs.iter().any(|r| r.kind.is_speculative()) {
            assert_eq!(parallelize(&m, "f", &rs).err(), Some(OutlineError::UnknownCarriedState));
        }
    }

    #[test]
    fn value_only_chunk_strips_histogram_and_disjoint_stores() {
        // A scan sharing its loop with a histogram and a disjoint-written
        // array: pass one discards all three side effects, so the
        // value-only chunk must shed every in-loop store.
        let (m, plan) = outline(
            "void f(float* a, float* out, int* h, int* k, int* member, int n) {
                 float s = 0.0;
                 for (int i = 0; i < n; i++) {
                     s += a[i];
                     out[i] = s;
                     h[k[i]] = h[k[i]] + 1;
                     member[i] = k[i];
                 }
             }",
            "f",
        )
        .unwrap();
        assert_eq!(plan.scans.len(), 1);
        assert_eq!(plan.hists.len(), 1);
        assert_eq!(plan.written.len(), 1);
        let vo_name = plan.chunk_value_only_fn.as_deref().expect("scan plans get a variant");
        let vo = m.function(vo_name).unwrap();
        let loop_stores = vo
            .blocks
            .iter()
            .filter(|b| b.name != "exit")
            .flat_map(|b| &b.insts)
            .filter(|&&v| vo.value(v).kind.opcode() == Some(&Opcode::Store))
            .count();
        assert_eq!(loop_stores, 0, "no stores left inside the value-only loop body");
        // The histogram's bin loads die with the store.
        let loads = vo
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|&&v| vo.value(v).kind.opcode() == Some(&Opcode::Load))
            .count();
        let full = m.function(&plan.chunk_fn).unwrap();
        let full_loads = full
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|&&v| full.value(v).kind.opcode() == Some(&Opcode::Load))
            .count();
        assert!(loads < full_loads, "dead bin/member address loads must be swept");
    }

    #[test]
    fn value_only_chunk_keeps_stores_of_read_back_objects() {
        // The written object is read back inside the loop (not by the
        // scan): its stores must survive the strip.
        let (m, plan) = outline(
            "void f(float* a, float* out, int* tmp, int n) {
                 float s = 0.0;
                 for (int i = 0; i < n; i++) {
                     tmp[i] = i * 2;
                     int echo = tmp[i];
                     s += a[i];
                     out[i] = s;
                 }
             }",
            "f",
        )
        .unwrap();
        assert_eq!(plan.scans.len(), 1, "the program's scan must be detected");
        let vo_name = plan.chunk_value_only_fn.as_deref().expect("scan plans get a variant");
        let vo = m.function(vo_name).unwrap();
        let tmp_stores = vo
            .blocks
            .iter()
            .filter(|b| b.name != "exit")
            .flat_map(|b| &b.insts)
            .filter(|&&v| vo.value(v).kind.opcode() == Some(&Opcode::Store))
            .count();
        assert!(tmp_stores >= 1, "read-back object keeps its stores");
    }

    #[test]
    fn fold_with_exit_phis_outlines() {
        // The loop sits inside a conditional: the exit block merges the
        // accumulator with the no-loop path's value through a phi. PR 3
        // removed the ExitHasPhis refusal for searches; this is the fold
        // analog.
        let (m, plan) = outline(
            "float f(float* a, int n, int flag) {
                 float s = 0.0;
                 if (flag) {
                     for (int i = 0; i < n; i++) s += a[i];
                 }
                 return s;
             }",
            "f",
        )
        .unwrap();
        assert_eq!(plan.accs.len(), 1);
        assert!(m.function(&plan.chunk_fn).is_some());
        // The rewritten function still verifies (checked inside
        // parallelize) with the exit phi patched onto the preheader edge.
    }

    #[test]
    fn exit_phi_of_unknown_in_loop_value_still_refused() {
        // The exit phi forwards a non-carried in-loop value: outside what
        // the cells reproduce.
        let m = compile(
            "float f(float* a, int n, int flag) {
                 float s = 0.0;
                 float last = 0.0;
                 if (flag) {
                     for (int i = 0; i < n; i++) { s += a[i]; last = a[i] * 2.0; }
                 }
                 return s + last;
             }",
        )
        .unwrap();
        let rs = detect_reductions(&m);
        if !rs.is_empty() {
            assert!(matches!(
                parallelize(&m, "f", &rs),
                Err(OutlineError::ExitHasPhis | OutlineError::UnknownCarriedState)
            ));
        }
    }

    #[test]
    fn no_reductions_is_an_error() {
        let m = compile("void f(int n) { }").unwrap();
        let rs = detect_reductions(&m);
        assert_eq!(parallelize(&m, "f", &rs).err(), Some(OutlineError::NoReductions));
    }

    const FUSION_SRC: &str = "float sq(float* a, int n) {
             float tmp[8192];
             for (int i = 0; i < n; i++) tmp[i] = a[i] * a[i];
             float s = 0.0;
             for (int j = 0; j < n; j++) s += tmp[j];
             return s;
         }";

    #[test]
    fn fusion_outlines_without_materializing_tmp() {
        let m = compile(FUSION_SRC).unwrap();
        let rs = detect_reductions(&m);
        assert!(rs.iter().any(|r| r.kind.is_fusion()), "{rs:?}");
        let (pm, plan) = parallelize(&m, "sq", &rs).unwrap();
        assert_eq!(plan.accs.len(), 1);
        assert_eq!(plan.accs[0].op, gr_core::ReductionOp::Add);
        assert!(plan.hists.is_empty() && plan.scans.is_empty() && plan.search.is_none());
        let chunk = pm.function(&plan.chunk_fn).expect("chunk exists");
        // The intermediate is gone from the chunk: the only store left is
        // the out-cell partial in the exit block, and the only loads read
        // the input array.
        let stores: Vec<ValueId> = chunk
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .copied()
            .filter(|&v| chunk.value(v).kind.opcode() == Some(&Opcode::Store))
            .collect();
        assert_eq!(stores.len(), 1, "only the partial store survives fusion");
        let store_block = chunk.block_of_inst(stores[0]).unwrap();
        assert_eq!(chunk.block(store_block).name, "exit");
        // No alloca-typed closure slot: tmp never travels to the chunk.
        // (params: lo, hi, step, a, out-cell.)
        assert_eq!(plan.arg_count, 5, "lo/hi/step + input + cell, no tmp slot");
        // One fused loop: exactly one back edge / one cond-br (the header
        // test) in the chunk.
        let condbrs = chunk
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|&&v| chunk.value(v).kind.opcode() == Some(&Opcode::CondBr))
            .count();
        assert_eq!(condbrs, 1, "a single fused loop");
    }

    #[test]
    fn fusion_rewrite_stubs_both_loops() {
        let m = compile(FUSION_SRC).unwrap();
        let rs = detect_reductions(&m);
        let (pm, plan) = parallelize(&m, "sq", &rs).unwrap();
        let f = pm.function("sq").unwrap();
        // The rewritten original must neither store to nor load from tmp:
        // all that survives is the cell protocol around the intrinsic.
        let loads_stores = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|&&v| matches!(f.value(v).kind.opcode(), Some(Opcode::Store | Opcode::Load)))
            .count();
        assert_eq!(loads_stores, 2, "cell seed store + final reload only");
        let calls = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|&&v| {
                matches!(f.value(v).kind.opcode(), Some(Opcode::Call(n)) if *n == plan.intrinsic)
            })
            .count();
        assert_eq!(calls, 1);
    }

    #[test]
    fn fusion_with_argument_tmp_falls_back_to_scalar_outline() {
        // The intermediate is caller-visible: the fusion post-check
        // already refused, so the consumer outlines as a plain scalar
        // reduction and the producer keeps running sequentially.
        let m = compile(
            "float sq(float* a, float* tmp, int n) {
                 for (int i = 0; i < n; i++) tmp[i] = a[i] * a[i];
                 float s = 0.0;
                 for (int j = 0; j < n; j++) s += tmp[j];
                 return s;
             }",
        )
        .unwrap();
        let rs = detect_reductions(&m);
        assert!(!rs.iter().any(|r| r.kind.is_fusion()), "{rs:?}");
        let (pm, plan) = parallelize(&m, "sq", &rs).unwrap();
        assert_eq!(plan.accs.len(), 1);
        // The producer loop survives in the rewritten function.
        let f = pm.function("sq").unwrap();
        let stores = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|&&v| f.value(v).kind.opcode() == Some(&Opcode::Store))
            .count();
        assert!(stores >= 2, "tmp store + cell seed store");
    }

    #[test]
    fn two_independent_fusion_pairs_fuse_the_first() {
        // Two producer/consumer pairs in one function: fusion reports are
        // tried in detection order and the first one that outlines wins
        // (one call site rewrites one loop nest).
        let m = compile(
            "float f(float* a, float* b, float* out, int n, int m) {
                 float t1[2048];
                 for (int i = 0; i < n; i++) t1[i] = a[i] * a[i];
                 float s1 = 0.0;
                 for (int j = 0; j < n; j++) s1 += t1[j];
                 float t2[2048];
                 for (int i = 0; i < m; i++) t2[i] = b[i] + 1.0;
                 float s2 = 0.0;
                 for (int j = 0; j < m; j++) s2 += t2[j];
                 out[0] = s1;
                 out[1] = s2;
             }",
        )
        .unwrap();
        let rs = detect_reductions(&m);
        let fusions = rs.iter().filter(|r| r.kind.is_fusion()).count();
        assert_eq!(fusions, 2, "{rs:?}");
        let (pm, plan) = parallelize(&m, "f", &rs).unwrap();
        assert_eq!(plan.accs.len(), 1, "one pair fused");
        assert!(pm.function(&plan.chunk_fn).is_some());
    }

    #[test]
    fn fusion_of_invariant_broadcast_outlines() {
        // The produced value is loop-invariant (an argument): it has no
        // presence in either loop body — its only user is the elided
        // store — so it must travel to the chunk as a closure slot.
        let m = compile(
            "float f(float* unused, float x, int n) {
                 float tmp[4096];
                 for (int i = 0; i < n; i++) tmp[i] = x;
                 float s = 0.0;
                 for (int j = 0; j < n; j++) s += tmp[j];
                 return s;
             }",
        )
        .unwrap();
        let rs = detect_reductions(&m);
        assert!(rs.iter().any(|r| r.kind.is_fusion()), "{rs:?}");
        let (pm, plan) = parallelize(&m, "f", &rs).unwrap();
        // lo/hi/step + x + out-cell: the broadcast value is the closure.
        assert_eq!(plan.arg_count, 5, "the invariant value travels as a closure slot");
        assert!(pm.function(&plan.chunk_fn).is_some());
    }

    #[test]
    fn fusion_with_computation_in_consumer_body() {
        // The consumer may transform the loaded value before folding; the
        // substitution rewires the load, not the whole update.
        let m = compile(
            "float f(float* a, int n) {
                 float tmp[4096];
                 for (int i = 0; i < n; i++) tmp[i] = a[i] + 1.0;
                 float s = 0.0;
                 for (int j = 0; j < n; j++) s += tmp[j] * 2.0;
                 return s;
             }",
        )
        .unwrap();
        let rs = detect_reductions(&m);
        assert!(rs.iter().any(|r| r.kind.is_fusion()), "{rs:?}");
        let (pm, plan) = parallelize(&m, "f", &rs).unwrap();
        assert!(pm.function(&plan.chunk_fn).is_some());
    }

    #[test]
    fn strided_index_classification() {
        let m = compile(
            "void f(float* a, int n, int m) {
                 for (int i = 0; i < n; i++) a[i * 4 + m] = 1.0;
             }",
        )
        .unwrap();
        let func = &m.functions[0];
        let store = func
            .value_ids()
            .find(|&v| func.value(v).kind.opcode() == Some(&Opcode::Store))
            .unwrap();
        let ptr = func.value(store).kind.operands()[1];
        let phi = func
            .value_ids()
            .find(|&v| func.value(v).kind.opcode() == Some(&Opcode::Phi))
            .unwrap();
        let analyses = Analyses::new(&m, func);
        let inv = gr_analysis::invariant::Invariance::new(func, &analyses.loops, &analyses.purity);
        let lid = gr_analysis::loops::LoopId(0);
        let is_inv = |v: ValueId| inv.is_invariant(lid, v);
        assert!(store_index_disjoint(func, phi, &is_inv, ptr));
    }
}
