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
//! The names depend only on the module being rewritten: a module that
//! already holds `__chunk_f` gets `__chunk_f_1` and `__parrun_f_1` (the
//! smallest free suffix) instead.
//!
//! The runtime (see [`crate::runtime`]) intercepts the intrinsic, bisects
//! the iteration space over threads, runs the chunk on privatized memory
//! overlays and merges the partials.

use crate::plan::{
    AccSlot, ArgSlot, ChunkPolicy, ExitSlot, FoldSlot, HistSlot, ReductionPlan, ScanSlot,
    SearchSlot, WrittenPolicy, WrittenSlot,
};
use gr_analysis::dataflow::root_object;
use gr_analysis::Analyses;
use gr_core::{Reduction, ReductionKind};
use gr_ir::{BlockId, Function, Module, Opcode, Type, ValueId, ValueKind};
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
/// free `k` only when the module already holds that chunk name. They
/// depend on the module alone, so rewriting one module twice names its
/// chunks the same.
fn chunk_names(module: &Module, func_name: &str) -> (String, String) {
    let base = format!("__chunk_{func_name}");
    let suffix = (0..)
        .map(|k| if k == 0 { String::new() } else { format!("_{k}") })
        .find(|suffix| module.function(&format!("{base}{suffix}")).is_none())
        .expect("some suffix is free");
    (format!("{base}{suffix}"), format!("__parrun_{func_name}{suffix}"))
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
    let fi = module
        .functions
        .iter()
        .position(|f| f.name == func_name)
        .ok_or_else(|| OutlineError::NoSuchFunction(func_name.to_string()))?;

    let func = &module.functions[fi];
    let analyses = Analyses::new(module, func);
    let lid = analyses
        .loops
        .loop_with_header(header)
        .expect("detected reduction loop must exist");
    let l = analyses.loops.get(lid).clone();

    // --- gather loop anatomy from the solver bindings -------------------
    let b0 = &rs[0].bindings;
    let get = |name: &str| -> ValueId {
        b0.iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .expect("for-loop binding present")
    };
    let iterator = get("iterator");
    let iter_begin = get("iter_begin");
    let iter_end = get("iter_end");
    let iter_step = get("iter_step");
    let test = get("test");
    let jump = get("jump");
    let exit_block = func.block_of_label(get("exit"));
    let preheader = func.block_of_label(get("preheader"));

    let pred = continue_pred(func, iterator, test, jump, exit_block)?;

    // Header shape: phis, then exactly test + jump.
    let header_insts = func.block(header).insts.clone();
    let phis: Vec<ValueId> = header_insts
        .iter()
        .copied()
        .take_while(|&v| func.value(v).kind.opcode() == Some(&Opcode::Phi))
        .collect();
    let rest: Vec<ValueId> = header_insts[phis.len()..].to_vec();
    if rest != vec![test, jump] {
        return Err(OutlineError::UnsupportedHeaderShape);
    }

    // Every carried phi must be the iterator or a detected carried value:
    // a scalar accumulator, a scan accumulator, or an argmin/argmax
    // value/index pair.
    let scalar_rs: Vec<&Reduction> =
        rs.iter().copied().filter(|r| r.kind == ReductionKind::Scalar).collect();
    let hist_rs: Vec<&Reduction> =
        rs.iter().copied().filter(|r| r.kind == ReductionKind::Histogram).collect();
    let scan_rs: Vec<&Reduction> =
        rs.iter().copied().filter(|r| r.kind == ReductionKind::Scan).collect();
    let arg_rs: Vec<&Reduction> = rs.iter().copied().filter(|r| r.kind.is_arg()).collect();
    let arg_idx_phis: Vec<ValueId> = arg_rs.iter().map(|r| r.binding("idx")).collect();
    let mut acc_phis: Vec<ValueId> = scalar_rs.iter().map(|r| r.anchor).collect();
    acc_phis.extend(scan_rs.iter().map(|r| r.anchor));
    acc_phis.extend(arg_rs.iter().map(|r| r.anchor));
    acc_phis.extend(arg_idx_phis.iter().copied());
    for &p in &phis {
        if p != iterator && !acc_phis.contains(&p) {
            return Err(OutlineError::UnknownCarriedState);
        }
    }
    // The iterator must not be live past the loop.
    for b in func.block_ids() {
        if l.contains(b) {
            continue;
        }
        for &inst in &func.block(b).insts {
            if func.value(inst).kind.operands().contains(&iterator) {
                return Err(OutlineError::IteratorLiveOut);
            }
        }
    }
    // Exit phis no longer stop fold outlining (mirroring what the search
    // path did for its two exits): a loop nested in control flow merges
    // its carried values with the other paths' values at the exit block.
    // Each exit phi's loop-edge arm must be a detected carried phi (it is
    // patched to the reloaded final) or a value available before the loop.
    let exit_phis: Vec<ValueId> = func
        .block(exit_block)
        .insts
        .iter()
        .copied()
        .take_while(|&v| func.value(v).kind.opcode() == Some(&Opcode::Phi))
        .collect();
    let mut exit_patches: Vec<(ValueId, ValueId)> = Vec::new(); // (phi, loop-edge value)
    for &phi in &exit_phis {
        let hv = func
            .phi_incoming(phi)
            .iter()
            .find(|(_, b)| *b == header)
            .map(|(v, _)| *v)
            .ok_or(OutlineError::ExitHasPhis)?;
        let in_loop = func.block_of_inst(hv).is_some_and(|b| l.contains(b));
        if in_loop && !acc_phis.contains(&hv) {
            return Err(OutlineError::ExitHasPhis);
        }
        exit_patches.push((phi, hv));
    }

    // --- closure discovery ----------------------------------------------
    let body_blocks: Vec<BlockId> =
        func.block_ids().filter(|&b| l.contains(b) && b != header).collect();
    let inside: HashSet<ValueId> = body_blocks
        .iter()
        .flat_map(|&b| func.block(b).insts.iter().copied())
        .chain(phis.iter().copied())
        .collect();
    let mut closure: Vec<ValueId> = Vec::new();
    let is_closure = |v: ValueId, func: &Function, closure: &mut Vec<ValueId>| {
        push_closure_value(v, func, &inside, closure);
    };
    for &b in &body_blocks {
        for &inst in &func.block(b).insts {
            let data = func.value(inst);
            let ops: Vec<ValueId> = match data.kind.opcode() {
                Some(Opcode::Phi) => data.kind.operands().chunks(2).map(|c| c[0]).collect(),
                _ => data.kind.operands().to_vec(),
            };
            for op in ops {
                if op == iterator || acc_phis.contains(&op) {
                    continue;
                }
                // Note: iter_begin/iter_end/iter_step are NOT special here;
                // if the body uses them as ordinary values they travel as
                // closure values (or are re-interned as constants).
                is_closure(op, func, &mut closure);
            }
        }
    }

    // --- classify written objects ----------------------------------------
    let hist_bases: Vec<ValueId> = hist_rs
        .iter()
        .map(|r| {
            r.bindings
                .iter()
                .find(|(n, _)| n == "base")
                .map(|(_, v)| *v)
                .expect("histogram base binding")
        })
        .collect();
    let hist_roots: Vec<ValueId> = hist_bases
        .iter()
        .map(|&b| root_object(func, b).expect("histogram root"))
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
    for (root, _) in &written_roots {
        if !closure.contains(root) {
            closure.push(*root);
        }
    }
    for root in &scan_out_roots {
        if !closure.contains(root) {
            closure.push(*root);
        }
    }

    // --- build the chunk function -----------------------------------------
    let (chunk_name, intrinsic) = chunk_names(module, func_name);

    let mut params: Vec<(String, Type)> = vec![
        ("lo".to_string(), Type::Int),
        ("hi".to_string(), Type::Int),
        ("step".to_string(), Type::Int),
    ];
    for (i, &cv) in closure.iter().enumerate() {
        params.push((format!("c{i}"), func.value(cv).ty));
    }
    // Out-cell layout (mirrored by the intrinsic argument list): scalar
    // cells, scan cells, then one (value, index) cell pair per arg slot.
    let ptr_ty = |ty: Type| match ty {
        Type::Int | Type::Bool => Type::PtrInt,
        _ => Type::PtrFloat,
    };
    let acc_out_base = params.len();
    for (i, r) in scalar_rs.iter().enumerate() {
        params.push((format!("out{i}"), ptr_ty(func.value(r.anchor).ty)));
    }
    let scan_out_base = params.len();
    for (i, r) in scan_rs.iter().enumerate() {
        params.push((format!("scan{i}"), ptr_ty(func.value(r.anchor).ty)));
    }
    let arg_out_base = params.len();
    for (i, r) in arg_rs.iter().enumerate() {
        params.push((format!("argv{i}"), ptr_ty(func.value(r.anchor).ty)));
        params.push((format!("argi{i}"), Type::PtrInt));
    }
    let param_refs: Vec<(&str, Type)> = params.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let mut chunk = Function::new(&chunk_name, &param_refs, Type::Void);

    let c_entry = chunk.add_block("entry");
    let c_header = chunk.add_block("header");
    let mut block_map: HashMap<BlockId, BlockId> = HashMap::new();
    block_map.insert(header, c_header);
    for &b in &body_blocks {
        let nb = chunk.add_block(&func.block(b).name);
        block_map.insert(b, nb);
    }
    let c_exit = chunk.add_block("exit");
    block_map.insert(exit_block, c_exit);

    // Value map seeded with params. `iter_begin`/`iter_end`/`iter_step`
    // must NOT be mapped globally: they are often interned constants (0,
    // 1, n) that the loop body reuses with entirely different meaning
    // (e.g. tpacf's binary-search `lo = 0`). Their structural uses — the
    // induction phi, the loop test, the increment — are rebuilt or patched
    // explicitly below.
    let mut val_map: HashMap<ValueId, ValueId> = HashMap::new();
    for (i, &cv) in closure.iter().enumerate() {
        val_map.insert(cv, chunk.arg_values[3 + i]);
    }

    // Header: iterator phi, acc phis, test, jump.
    let c_entry_label = chunk.block(c_entry).label;
    let c_header_label = chunk.block(c_header).label;
    let c_latch = block_map[&func.block_of_label(get("latch"))];
    let c_latch_label = chunk.block(c_latch).label;
    let c_iter = chunk.add_value(
        ValueKind::Inst { opcode: Opcode::Phi, operands: vec![] },
        Type::Int,
        Some("i".to_string()),
    );
    chunk.blocks[c_header.index()].insts.push(c_iter);
    val_map.insert(iterator, c_iter);
    let mut header_phi = |chunk: &mut Function, anchor: ValueId, name: &str| {
        let ty = func.value(anchor).ty;
        let phi = chunk.add_value(
            ValueKind::Inst { opcode: Opcode::Phi, operands: vec![] },
            ty,
            Some(name.to_string()),
        );
        chunk.blocks[c_header.index()].insts.push(phi);
        val_map.insert(anchor, phi);
        (phi, ty)
    };
    let mut c_acc_phis = Vec::new();
    for r in &scalar_rs {
        let (c_acc, ty) = header_phi(&mut chunk, r.anchor, "acc");
        c_acc_phis.push((c_acc, r.op, ty));
    }
    let mut c_scan_phis = Vec::new();
    for r in &scan_rs {
        let (c_acc, ty) = header_phi(&mut chunk, r.anchor, "scan_acc");
        c_scan_phis.push((c_acc, ty));
    }
    let mut c_arg_phis = Vec::new();
    for r in &arg_rs {
        let (c_val, ty) = header_phi(&mut chunk, r.anchor, "arg_val");
        let (c_idx, _) = header_phi(&mut chunk, r.binding("idx"), "arg_idx");
        c_arg_phis.push((c_val, c_idx, r.op, ty));
    }
    let c_test = chunk.append_inst(
        c_header,
        Opcode::Cmp(pred),
        vec![c_iter, chunk.arg_values[1]],
        Type::Bool,
    );
    let body_entry = func.block_of_label(get("body"));
    let c_body_label = chunk.block(block_map[&body_entry]).label;
    let c_exit_label = chunk.block(c_exit).label;
    chunk.append_inst(
        c_header,
        Opcode::CondBr,
        vec![c_test, c_body_label, c_exit_label],
        Type::Void,
    );

    // entry: load each scan seed from its cell (the runtime stores the
    // identity or the block offset there before invoking the chunk), then
    // branch to the header.
    let mut c_scan_seeds = Vec::new();
    for (si, _) in scan_rs.iter().enumerate() {
        let (_, ty) = c_scan_phis[si];
        let cell = chunk.arg_values[scan_out_base + si];
        let seed = chunk.append_inst(c_entry, Opcode::Load, vec![cell], ty);
        c_scan_seeds.push(seed);
    }
    chunk.append_inst(c_entry, Opcode::Br, vec![c_header_label], Type::Void);

    // Clone body instructions: phase 1 shells, phase 2 operands.
    let mut cloned: Vec<(ValueId, ValueId)> = Vec::new(); // (orig, clone)
    for &b in &body_blocks {
        for &inst in &func.block(b).insts.clone() {
            let data = func.value(inst).clone();
            let ValueKind::Inst { opcode, .. } = data.kind else { unreachable!() };
            let c =
                chunk.add_value(ValueKind::Inst { opcode, operands: vec![] }, data.ty, data.name);
            chunk.blocks[block_map[&b].index()].insts.push(c);
            val_map.insert(inst, c);
            cloned.push((inst, c));
        }
    }
    // Phase 2: map operands.
    for (orig, clone) in &cloned {
        let ops = func.value(*orig).kind.operands().to_vec();
        let mapped: Vec<ValueId> = ops
            .iter()
            .map(|&op| map_operand(func, &mut chunk, &val_map, &block_map, op))
            .collect();
        if let ValueKind::Inst { operands, .. } = &mut chunk.value_mut(*clone).kind {
            *operands = mapped;
        }
    }
    // Complete the header phis.
    let next_iter_clone = val_map[&get("next_iter")];
    let lo_arg = chunk.arg_values[0];
    if let ValueKind::Inst { operands, .. } = &mut chunk.value_mut(c_iter).kind {
        operands.extend([lo_arg, c_entry_label, next_iter_clone, c_latch_label]);
    }
    let identity_of = |chunk: &mut Function, op: gr_core::ReductionOp, ty: Type| match ty {
        Type::Int | Type::Bool => chunk.const_int(op.identity_int()),
        _ => chunk.const_float(op.identity_float()),
    };
    for (ri, r) in scalar_rs.iter().enumerate() {
        let (c_acc, op, ty) = c_acc_phis[ri];
        let identity = identity_of(&mut chunk, op, ty);
        let next_clone = val_map[&r.binding("acc_next")];
        if let ValueKind::Inst { operands, .. } = &mut chunk.value_mut(c_acc).kind {
            operands.extend([identity, c_entry_label, next_clone, c_latch_label]);
        }
    }
    // Scan accumulators are seeded from their cell, not a constant.
    for (si, r) in scan_rs.iter().enumerate() {
        let (c_acc, _) = c_scan_phis[si];
        let seed = c_scan_seeds[si];
        let next_clone = val_map[&r.binding("acc_next")];
        if let ValueKind::Inst { operands, .. } = &mut chunk.value_mut(c_acc).kind {
            operands.extend([seed, c_entry_label, next_clone, c_latch_label]);
        }
    }
    // Argmin/argmax pairs start from (identity, sentinel).
    for (ai, r) in arg_rs.iter().enumerate() {
        let (c_val, c_idx, op, ty) = c_arg_phis[ai];
        let identity = identity_of(&mut chunk, op, ty);
        let sentinel = chunk.const_int(crate::plan::ARG_IDX_SENTINEL);
        let val_next_clone = val_map[&r.binding("val_next")];
        let idx_next_clone = val_map[&r.binding("idx_next")];
        if let ValueKind::Inst { operands, .. } = &mut chunk.value_mut(c_val).kind {
            operands.extend([identity, c_entry_label, val_next_clone, c_latch_label]);
        }
        if let ValueKind::Inst { operands, .. } = &mut chunk.value_mut(c_idx).kind {
            operands.extend([sentinel, c_entry_label, idx_next_clone, c_latch_label]);
        }
    }
    // exit: store partials, ret.
    for (ri, _) in scalar_rs.iter().enumerate() {
        let (c_acc, _, _) = c_acc_phis[ri];
        let out = chunk.arg_values[acc_out_base + ri];
        chunk.append_inst(c_exit, Opcode::Store, vec![c_acc, out], Type::Void);
    }
    for (si, _) in scan_rs.iter().enumerate() {
        let (c_acc, _) = c_scan_phis[si];
        let out = chunk.arg_values[scan_out_base + si];
        chunk.append_inst(c_exit, Opcode::Store, vec![c_acc, out], Type::Void);
    }
    for (ai, _) in arg_rs.iter().enumerate() {
        let (c_val, c_idx, _, _) = c_arg_phis[ai];
        let val_out = chunk.arg_values[arg_out_base + 2 * ai];
        let idx_out = chunk.arg_values[arg_out_base + 2 * ai + 1];
        chunk.append_inst(c_exit, Opcode::Store, vec![c_val, val_out], Type::Void);
        chunk.append_inst(c_exit, Opcode::Store, vec![c_idx, idx_out], Type::Void);
    }
    chunk.append_inst(c_exit, Opcode::Ret, vec![], Type::Void);

    // --- rewrite the original function ------------------------------------
    let mut out = module.clone();
    let f = &mut out.functions[fi];

    // Remove the preheader's terminator.
    let term = f.blocks[preheader.index()].insts.pop().expect("preheader has a terminator");
    debug_assert_eq!(f.value(term).kind.opcode(), Some(&Opcode::Br));

    // Cells for the carried values, mirroring the chunk's out-cell layout:
    // scalar cells, scan cells, then (value, index) pairs per arg slot.
    // Each cell is seeded with the loop's original initial value.
    let mut cells = Vec::new();
    let mut carried: Vec<(ValueId, ValueId)> = Vec::new(); // (phi, init)
    for r in &scalar_rs {
        carried.push((r.anchor, r.binding("acc_init")));
    }
    for r in &scan_rs {
        carried.push((r.anchor, r.binding("acc_init")));
    }
    for r in &arg_rs {
        carried.push((r.anchor, r.binding("val_init")));
        carried.push((r.binding("idx"), r.binding("idx_init")));
    }
    for &(phi, init) in &carried {
        let ty = f.value(phi).ty;
        let one = f.const_int(1);
        let pty = match ty {
            Type::Int | Type::Bool => Type::PtrInt,
            _ => Type::PtrFloat,
        };
        let cell = f.append_inst(preheader, Opcode::Alloca, vec![one], pty);
        f.append_inst(preheader, Opcode::Store, vec![init, cell], Type::Void);
        cells.push(cell);
    }
    // Intrinsic call: [lo, hi, step, closure…, cells…].
    let mut call_args = vec![iter_begin, iter_end, iter_step];
    call_args.extend(closure.iter().copied());
    call_args.extend(cells.iter().copied());
    let arg_count = call_args.len();
    f.append_inst(preheader, Opcode::Call(intrinsic.clone()), call_args, Type::Void);
    // Reload finals and rewire post-loop uses.
    let mut finals = Vec::new();
    for (ci, &(phi, _)) in carried.iter().enumerate() {
        let ty = f.value(phi).ty;
        let final_v = f.append_inst(preheader, Opcode::Load, vec![cells[ci]], ty);
        finals.push((phi, final_v));
    }
    let exit_label = f.block(exit_block).label;
    f.append_inst(preheader, Opcode::Br, vec![exit_label], Type::Void);
    // Patch the exit phis: the loop edge becomes the preheader edge,
    // carrying the reloaded final for carried values (the other arms —
    // paths around the loop — stay untouched).
    let header_label = f.block(header).label;
    let preheader_label = f.block(preheader).label;
    for &(phi, hv) in &exit_patches {
        let new_v = finals.iter().find(|(acc, _)| *acc == hv).map_or(hv, |(_, nv)| *nv);
        if let ValueKind::Inst { operands, .. } = &mut f.values[phi.index()].kind {
            for c in operands.chunks_mut(2) {
                if c[1] == header_label {
                    c[0] = new_v;
                    c[1] = preheader_label;
                }
            }
        }
    }
    // Stub out the loop blocks. With exit phis present the stubs must
    // not create stray predecessors of the exit block (phi incoming
    // edges are checked against predecessors exactly), so the now
    // unreachable blocks branch to themselves instead.
    for b in f.block_ids().collect::<Vec<_>>() {
        if l.contains(b) {
            f.blocks[b.index()].insts.clear();
            let target = if exit_phis.is_empty() { exit_label } else { f.block(b).label };
            let stub = f.add_value(
                ValueKind::Inst { opcode: Opcode::Br, operands: vec![target] },
                Type::Void,
                None,
            );
            f.blocks[b.index()].insts.push(stub);
        }
    }
    // Rewire accumulator uses outside the loop.
    for b in f.block_ids().collect::<Vec<_>>() {
        if l.contains(b) {
            continue;
        }
        for inst in f.blocks[b.index()].insts.clone() {
            if exit_phis.contains(&inst) {
                continue; // already patched edge-precisely above
            }
            let kind = &mut f.values[inst.index()].kind;
            if let ValueKind::Inst { operands, .. } = kind {
                for op in operands.iter_mut() {
                    if let Some((_, nv)) = finals.iter().find(|(acc, _)| acc == op) {
                        *op = *nv;
                    }
                }
            }
        }
    }

    // --- assemble the plan --------------------------------------------------
    let accs: Vec<AccSlot> = scalar_rs
        .iter()
        .enumerate()
        .map(|(ri, r)| AccSlot {
            arg_index: 3 + closure.len() + ri,
            ty: func.value(r.anchor).ty,
            op: r.op,
        })
        .collect();
    let hists: Vec<HistSlot> = hist_rs
        .iter()
        .zip(&hist_roots)
        .map(|(r, root)| {
            let pos = closure
                .iter()
                .position(|c| c == root)
                .expect("histogram root is a closure value");
            HistSlot {
                arg_index: 3 + pos,
                elem: func.value(*root).ty.elem().unwrap_or(Type::Float),
                op: r.op,
                growable: false,
            }
        })
        .collect();
    let written: Vec<WrittenSlot> = written_roots
        .iter()
        .map(|(root, policy)| WrittenSlot {
            arg_index: 3 + closure.iter().position(|c| c == root).expect("written root in closure"),
            policy: *policy,
        })
        .collect();
    let scans: Vec<ScanSlot> = scan_rs
        .iter()
        .zip(&scan_out_roots)
        .enumerate()
        .map(|(si, (r, root))| ScanSlot {
            cell_arg_index: scan_out_base + si,
            out_arg_index: 3 + closure
                .iter()
                .position(|c| c == root)
                .expect("scan output root in closure"),
            ty: func.value(r.anchor).ty,
            op: r.op,
        })
        .collect();
    let args: Vec<ArgSlot> = arg_rs
        .iter()
        .enumerate()
        .map(|(ai, r)| ArgSlot {
            val_arg_index: arg_out_base + 2 * ai,
            idx_arg_index: arg_out_base + 2 * ai + 1,
            ty: func.value(r.anchor).ty,
            op: r.op,
            pred: r.arg_pred.expect("argmin/argmax report carries its predicate"),
        })
        .collect();

    // Value-only chunk for the scan partials pass: pass one of the
    // two-pass block scan only needs each block's final running value, so
    // every store whose effect pass one discards — the scan output stores,
    // the histogram updates (privatized and thrown away), and stores to
    // written objects the loop never reads back — is stripped along with
    // the address chains feeding nothing else. This cuts the 2n work
    // bound of scan exploitation toward n + n/blocks: the replay pass does
    // the full body, the partials pass the value computation only.
    let chunk_value_only_fn = if scan_rs.is_empty() {
        None
    } else {
        let vo_name = format!("{chunk_name}_vo");
        let mut dead_stores: Vec<ValueId> =
            scan_rs.iter().map(|r| val_map[&r.binding("store")]).collect();
        // Histogram load-modify-stores are privatized-and-discarded in
        // pass one; detection confines the old value to its own update, so
        // dropping the store leaves the loads dead for the sweep.
        dead_stores.extend(hist_rs.iter().map(|r| val_map[&r.binding("store")]));
        // Same for written objects, as long as nothing in the loop reads
        // them back (a read-back would observe the stripped stores).
        let read_roots: HashSet<ValueId> = body_blocks
            .iter()
            .flat_map(|&b| func.block(b).insts.iter())
            .filter_map(|&inst| {
                let data = func.value(inst);
                (data.kind.opcode() == Some(&Opcode::Load))
                    .then(|| root_object(func, data.kind.operands()[0]))
                    .flatten()
            })
            .collect();
        for &b in &body_blocks {
            for &inst in &func.block(b).insts {
                let data = func.value(inst);
                if data.kind.opcode() != Some(&Opcode::Store) {
                    continue;
                }
                let Some(root) = root_object(func, data.kind.operands()[1]) else { continue };
                if written_roots.iter().any(|(r, _)| *r == root) && !read_roots.contains(&root) {
                    dead_stores.push(val_map[&inst]);
                }
            }
        }
        out.push_function(value_only_variant(&chunk, &vo_name, &dead_stores));
        Some(vo_name)
    };
    out.push_function(chunk);
    gr_ir::verify::verify_module(&out).expect("outlined module must verify");

    let plan = ReductionPlan {
        function: func_name.to_string(),
        chunk_fn: chunk_name,
        chunk_value_only_fn,
        intrinsic,
        pred,
        accs,
        hists,
        scans,
        args,
        search: None,
        written,
        arg_count,
        chunking: ChunkPolicy::default(),
    };
    Ok((out, plan))
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
    let fi = module
        .functions
        .iter()
        .position(|f| f.name == func_name)
        .ok_or_else(|| OutlineError::NoSuchFunction(func_name.to_string()))?;
    let func = &module.functions[fi];
    let analyses = Analyses::new(module, func);

    // --- gather both loops' anatomy from the solver bindings -----------
    let get = |name: &str| fusion.binding(name);
    // Producer (prefix instance 0, plain names).
    let p_iterator = get("iterator");
    let p_header = func.block_of_label(get("header"));
    let p_exit = func.block_of_label(get("exit"));
    let p_test = get("test");
    let p_jump = get("jump");
    // Consumer (prefix instance 1, `_r` names).
    let c_iterator = get("iterator_r");
    let c_header = func.block_of_label(get("header_r"));
    let c_exit = func.block_of_label(get("exit_r"));
    let c_preheader = func.block_of_label(get("preheader_r"));
    let c_test = get("test_r");
    let c_jump = get("jump_r");
    // The intermediate's chain and the carried accumulator.
    let p_store = get("p_store");
    let p_addr = get("p_addr");
    let p_val = get("p_val");
    let c_load = get("c_load");
    let c_addr = get("c_addr");
    let acc = get("acc");
    let acc_init = get("acc_init");
    let acc_next = get("acc_next");

    let p_lid = analyses.loops.loop_with_header(p_header).expect("producer loop exists");
    let c_lid = analyses.loops.loop_with_header(c_header).expect("consumer loop exists");
    let pl = analyses.loops.get(p_lid).clone();
    let cl = analyses.loops.get(c_lid).clone();
    if pl.latches.len() != 1 || cl.latches.len() != 1 {
        return Err(OutlineError::UnsupportedHeaderShape);
    }

    let pred = continue_pred(func, c_iterator, c_test, c_jump, c_exit)?;

    // Header shapes: producer carries only its induction variable, the
    // consumer only the induction variable and the accumulator.
    let header_phis = |header: BlockId| -> Vec<ValueId> {
        func.block(header)
            .insts
            .iter()
            .copied()
            .take_while(|&v| func.value(v).kind.opcode() == Some(&Opcode::Phi))
            .collect()
    };
    let p_phis = header_phis(p_header);
    if p_phis != [p_iterator] {
        return Err(OutlineError::UnknownCarriedState);
    }
    if func.block(p_header).insts[p_phis.len()..] != [p_test, p_jump] {
        return Err(OutlineError::UnsupportedHeaderShape);
    }
    let c_phis = header_phis(c_header);
    for &p in &c_phis {
        if p != c_iterator && p != acc {
            return Err(OutlineError::UnknownCarriedState);
        }
    }
    if func.block(c_header).insts[c_phis.len()..] != [c_test, c_jump] {
        return Err(OutlineError::UnsupportedHeaderShape);
    }

    // The elided chain: the producer's store + address gep and the
    // consumer's load + address gep. Each address gep must feed nothing
    // but its access, and the load's only consumers sit in the consumer
    // body (the clone substitutes them).
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
    for b in func.block_ids() {
        if cl.contains(b) {
            continue;
        }
        for &inst in &func.block(b).insts {
            if func.value(inst).kind.operands().contains(&c_iterator) {
                return Err(OutlineError::IteratorLiveOut);
            }
        }
    }
    // The producer's exit must merge nothing (its loop carries nothing).
    if func
        .block(p_exit)
        .insts
        .first()
        .is_some_and(|&v| func.value(v).kind.opcode() == Some(&Opcode::Phi))
    {
        return Err(OutlineError::ExitHasPhis);
    }
    // Consumer exit phis: the loop edge must carry the accumulator or an
    // out-of-loop value (patched to the reloaded final below).
    let c_exit_phis: Vec<ValueId> = func
        .block(c_exit)
        .insts
        .iter()
        .copied()
        .take_while(|&v| func.value(v).kind.opcode() == Some(&Opcode::Phi))
        .collect();
    let mut exit_patches: Vec<(ValueId, ValueId)> = Vec::new();
    for &phi in &c_exit_phis {
        let hv = func
            .phi_incoming(phi)
            .iter()
            .find(|(_, b)| *b == c_header)
            .map(|(v, _)| *v)
            .ok_or(OutlineError::ExitHasPhis)?;
        let in_loop = func.block_of_inst(hv).is_some_and(|b| cl.contains(b));
        if in_loop && hv != acc {
            return Err(OutlineError::ExitHasPhis);
        }
        exit_patches.push((phi, hv));
    }

    // --- closure discovery over BOTH bodies -----------------------------
    let p_body_blocks: Vec<BlockId> =
        func.block_ids().filter(|&b| pl.contains(b) && b != p_header).collect();
    let c_body_blocks: Vec<BlockId> =
        func.block_ids().filter(|&b| cl.contains(b) && b != c_header).collect();
    // The consumer's body entry must be phi-free: its predecessor changes
    // from the fused header to the producer's latch in the chunk.
    let c_body_entry = func.block_of_label(get("body_r"));
    if func
        .block(c_body_entry)
        .insts
        .first()
        .is_some_and(|&v| func.value(v).kind.opcode() == Some(&Opcode::Phi))
    {
        return Err(OutlineError::UnsupportedHeaderShape);
    }
    let inside: HashSet<ValueId> = p_body_blocks
        .iter()
        .chain(&c_body_blocks)
        .flat_map(|&b| func.block(b).insts.iter().copied())
        .chain([p_iterator, c_iterator, acc])
        .collect();
    let mut closure: Vec<ValueId> = Vec::new();
    for &b in p_body_blocks.iter().chain(&c_body_blocks) {
        for &inst in &func.block(b).insts {
            if dead.contains(&inst) {
                continue;
            }
            let data = func.value(inst);
            let ops: Vec<ValueId> = match data.kind.opcode() {
                Some(Opcode::Phi) => data.kind.operands().chunks(2).map(|c| c[0]).collect(),
                _ => data.kind.operands().to_vec(),
            };
            for op in ops {
                if op == p_iterator || op == c_iterator || op == acc || dead.contains(&op) {
                    continue;
                }
                push_closure_value(op, func, &inside, &mut closure);
            }
        }
    }
    // The produced value itself may live entirely outside both bodies (a
    // loop-invariant broadcast, `tmp[i] = x`): its only user is the elided
    // store, so the body scan above never sees it — yet the consumer's
    // load is rewired to it, so it must still travel to the chunk.
    if p_val != p_iterator && !dead.contains(&p_val) {
        push_closure_value(p_val, func, &inside, &mut closure);
    }
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
    let ptr_ty = |ty: Type| match ty {
        Type::Int | Type::Bool => Type::PtrInt,
        _ => Type::PtrFloat,
    };
    let mut params: Vec<(String, Type)> = vec![
        ("lo".to_string(), Type::Int),
        ("hi".to_string(), Type::Int),
        ("step".to_string(), Type::Int),
    ];
    for (i, &cv) in closure.iter().enumerate() {
        params.push((format!("c{i}"), func.value(cv).ty));
    }
    let acc_out_index = params.len();
    params.push(("out0".to_string(), ptr_ty(acc_ty)));
    let param_refs: Vec<(&str, Type)> = params.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let mut chunk = Function::new(&chunk_name, &param_refs, Type::Void);

    let ch_entry = chunk.add_block("entry");
    let ch_header = chunk.add_block("header");
    let mut block_map: HashMap<BlockId, BlockId> = HashMap::new();
    // Both original headers collapse onto the fused header.
    block_map.insert(p_header, ch_header);
    block_map.insert(c_header, ch_header);
    for &b in p_body_blocks.iter().chain(&c_body_blocks) {
        let nb = chunk.add_block(&func.block(b).name);
        block_map.insert(b, nb);
    }
    let ch_exit = chunk.add_block("exit");
    block_map.insert(c_exit, ch_exit);

    let mut val_map: HashMap<ValueId, ValueId> = HashMap::new();
    for (i, &cv) in closure.iter().enumerate() {
        val_map.insert(cv, chunk.arg_values[3 + i]);
    }

    // Fused header: one iterator phi standing in for both loops'
    // induction variables, the identity-seeded accumulator, the consumer's
    // continue test.
    let ch_entry_label = chunk.block(ch_entry).label;
    let ch_header_label = chunk.block(ch_header).label;
    let ch_iter = chunk.add_value(
        ValueKind::Inst { opcode: Opcode::Phi, operands: vec![] },
        Type::Int,
        Some("i".to_string()),
    );
    chunk.blocks[ch_header.index()].insts.push(ch_iter);
    val_map.insert(p_iterator, ch_iter);
    val_map.insert(c_iterator, ch_iter);
    let ch_acc = chunk.add_value(
        ValueKind::Inst { opcode: Opcode::Phi, operands: vec![] },
        acc_ty,
        Some("acc".to_string()),
    );
    chunk.blocks[ch_header.index()].insts.push(ch_acc);
    val_map.insert(acc, ch_acc);
    let ch_test = chunk.append_inst(
        ch_header,
        Opcode::Cmp(pred),
        vec![ch_iter, chunk.arg_values[1]],
        Type::Bool,
    );
    let p_body_entry = func.block_of_label(get("body"));
    let ch_p_body_label = chunk.block(block_map[&p_body_entry]).label;
    let ch_c_body_label = chunk.block(block_map[&c_body_entry]).label;
    let ch_exit_label = chunk.block(ch_exit).label;
    chunk.append_inst(
        ch_header,
        Opcode::CondBr,
        vec![ch_test, ch_p_body_label, ch_exit_label],
        Type::Void,
    );
    chunk.append_inst(ch_entry, Opcode::Br, vec![ch_header_label], Type::Void);

    // Clone both bodies, skipping the elided tmp chain.
    let mut cloned: Vec<(ValueId, ValueId)> = Vec::new();
    for &b in p_body_blocks.iter().chain(&c_body_blocks) {
        for &inst in &func.block(b).insts.clone() {
            if dead.contains(&inst) {
                continue;
            }
            let data = func.value(inst).clone();
            let ValueKind::Inst { opcode, .. } = data.kind else { unreachable!() };
            let c =
                chunk.add_value(ValueKind::Inst { opcode, operands: vec![] }, data.ty, data.name);
            chunk.blocks[block_map[&b].index()].insts.push(c);
            val_map.insert(inst, c);
            cloned.push((inst, c));
        }
    }
    // The fusion itself: the consumer's `tmp[j]` load *is* the producer's
    // per-iteration value.
    let fused_val = map_operand(func, &mut chunk, &val_map, &block_map, p_val);
    val_map.insert(c_load, fused_val);
    for (orig, clone) in &cloned {
        let ops = func.value(*orig).kind.operands().to_vec();
        let mapped: Vec<ValueId> = ops
            .iter()
            .map(|&op| map_operand(func, &mut chunk, &val_map, &block_map, op))
            .collect();
        if let ValueKind::Inst { operands, .. } = &mut chunk.value_mut(*clone).kind {
            *operands = mapped;
        }
    }
    // Splice the bodies: the producer's back edge now falls through into
    // the consumer body instead of the (collapsed) header.
    let ch_p_latch = block_map[&func.block_of_label(get("latch"))];
    let p_term = *chunk.blocks[ch_p_latch.index()].insts.last().expect("latch has a terminator");
    if let ValueKind::Inst { operands, .. } = &mut chunk.value_mut(p_term).kind {
        for op in operands.iter_mut() {
            if *op == ch_header_label {
                *op = ch_c_body_label;
            }
        }
    }
    // Complete the fused header phis: the iterator advances by the
    // *consumer's* increment (SameTripCount guarantees it equals the
    // producer's), the accumulator by the cloned update.
    let ch_c_latch = block_map[&func.block_of_label(get("latch_r"))];
    let ch_c_latch_label = chunk.block(ch_c_latch).label;
    let next_iter_clone = val_map[&get("next_iter_r")];
    let lo_arg = chunk.arg_values[0];
    if let ValueKind::Inst { operands, .. } = &mut chunk.value_mut(ch_iter).kind {
        operands.extend([lo_arg, ch_entry_label, next_iter_clone, ch_c_latch_label]);
    }
    let identity = match acc_ty {
        Type::Int | Type::Bool => chunk.const_int(fusion.op.identity_int()),
        _ => chunk.const_float(fusion.op.identity_float()),
    };
    let acc_next_clone = val_map[&acc_next];
    if let ValueKind::Inst { operands, .. } = &mut chunk.value_mut(ch_acc).kind {
        operands.extend([identity, ch_entry_label, acc_next_clone, ch_c_latch_label]);
    }
    // exit: store the partial, ret.
    let out_cell = chunk.arg_values[acc_out_index];
    chunk.append_inst(ch_exit, Opcode::Store, vec![ch_acc, out_cell], Type::Void);
    chunk.append_inst(ch_exit, Opcode::Ret, vec![], Type::Void);
    // The producer's own increment (and any other computation feeding only
    // the elided chain) is now dead: sweep it.
    sweep_unused_pure(&mut chunk);

    // --- rewrite the original function ----------------------------------
    let mut out = module.clone();
    let f = &mut out.functions[fi];
    let term = f.blocks[c_preheader.index()].insts.pop().expect("preheader has a terminator");
    debug_assert_eq!(f.value(term).kind.opcode(), Some(&Opcode::Br));
    let one = f.const_int(1);
    let cell = f.append_inst(c_preheader, Opcode::Alloca, vec![one], ptr_ty(acc_ty));
    f.append_inst(c_preheader, Opcode::Store, vec![acc_init, cell], Type::Void);
    let mut call_args = vec![get("iter_begin_r"), get("iter_end_r"), get("iter_step_r")];
    call_args.extend(closure.iter().copied());
    call_args.push(cell);
    let arg_count = call_args.len();
    f.append_inst(c_preheader, Opcode::Call(intrinsic.clone()), call_args, Type::Void);
    let final_v = f.append_inst(c_preheader, Opcode::Load, vec![cell], acc_ty);
    let c_exit_label_orig = f.block(c_exit).label;
    f.append_inst(c_preheader, Opcode::Br, vec![c_exit_label_orig], Type::Void);
    // Patch the consumer's exit phis onto the preheader edge.
    let c_header_label_orig = f.block(c_header).label;
    let c_preheader_label = f.block(c_preheader).label;
    for &(phi, hv) in &exit_patches {
        let new_v = if hv == acc { final_v } else { hv };
        if let ValueKind::Inst { operands, .. } = &mut f.values[phi.index()].kind {
            for ch in operands.chunks_mut(2) {
                if ch[1] == c_header_label_orig {
                    ch[0] = new_v;
                    ch[1] = c_preheader_label;
                }
            }
        }
    }
    // Stub the consumer loop.
    for b in f.block_ids().collect::<Vec<_>>() {
        if cl.contains(b) {
            f.blocks[b.index()].insts.clear();
            let target = if c_exit_phis.is_empty() { c_exit_label_orig } else { f.block(b).label };
            let stub = f.add_value(
                ValueKind::Inst { opcode: Opcode::Br, operands: vec![target] },
                Type::Void,
                None,
            );
            f.blocks[b.index()].insts.push(stub);
        }
    }
    // Stub the producer loop outright: its only effect was materializing
    // `tmp`, which detection proved unobservable.
    let p_exit_label = f.block(p_exit).label;
    for b in f.block_ids().collect::<Vec<_>>() {
        if pl.contains(b) {
            f.blocks[b.index()].insts.clear();
            let target = if b == p_header { p_exit_label } else { f.block(b).label };
            let stub = f.add_value(
                ValueKind::Inst { opcode: Opcode::Br, operands: vec![target] },
                Type::Void,
                None,
            );
            f.blocks[b.index()].insts.push(stub);
        }
    }
    // Rewire the accumulator's post-loop uses to the reloaded final.
    for b in f.block_ids().collect::<Vec<_>>() {
        if cl.contains(b) {
            continue;
        }
        for inst in f.blocks[b.index()].insts.clone() {
            if c_exit_phis.contains(&inst) {
                continue;
            }
            if let ValueKind::Inst { operands, .. } = &mut f.values[inst.index()].kind {
                for op in operands.iter_mut() {
                    if *op == acc {
                        *op = final_v;
                    }
                }
            }
        }
    }

    out.push_function(chunk);
    gr_ir::verify::verify_module(&out).expect("fused module must verify");

    let plan = ReductionPlan {
        function: func_name.to_string(),
        chunk_fn: chunk_name,
        chunk_value_only_fn: None,
        intrinsic,
        pred,
        accs: vec![AccSlot { arg_index: acc_out_index, ty: acc_ty, op: fusion.op }],
        hists: vec![],
        scans: vec![],
        args: vec![],
        search: None,
        written: vec![],
        arg_count,
        chunking: ChunkPolicy::default(),
    };
    Ok((out, plan))
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
///   [`SEARCH_NO_HIT`](crate::plan::SEARCH_NO_HIT) from the induction
///   exit — plus one clone of every original exit phi and one **partial
///   phi** per fold (the identity-seeded accumulator, which on a break
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
    let fi = module
        .functions
        .iter()
        .position(|f| f.name == func_name)
        .ok_or_else(|| OutlineError::NoSuchFunction(func_name.to_string()))?;
    let func = &module.functions[fi];
    let analyses = Analyses::new(module, func);
    let header = rs[0].header;
    let lid = analyses
        .loops
        .loop_with_header(header)
        .expect("detected search loop must exist");
    let l = analyses.loops.get(lid).clone();

    // --- gather loop anatomy from the solver bindings -------------------
    let b0 = &rs[0].bindings;
    let get = |name: &str| -> ValueId {
        b0.iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .expect("early-exit binding present")
    };
    let iterator = get("iterator");
    let iter_begin = get("iter_begin");
    let iter_end = get("iter_end");
    let iter_step = get("iter_step");
    let test = get("test");
    let jump = get("jump");
    let exit_block = func.block_of_label(get("exit"));
    let preheader = func.block_of_label(get("preheader"));
    let break_bb = func.block_of_label(get("break_blk"));

    let pred = continue_pred(func, iterator, test, jump, exit_block)?;

    // The speculative folds riding on this loop, if any: their carried
    // accumulator phis are the only header state allowed beside the
    // induction variable.
    let fold_rs: Vec<&Reduction> = rs.iter().copied().filter(|r| r.kind.is_fold_until()).collect();
    let fold_accs: Vec<ValueId> = fold_rs.iter().map(|r| r.binding("acc")).collect();
    let fold_res: Vec<ValueId> = fold_rs.iter().map(|r| r.binding("res")).collect();

    // Header shape: the induction phi plus the detected fold
    // accumulators, then test + jump.
    let header_insts = func.block(header).insts.clone();
    let phis: Vec<ValueId> = header_insts
        .iter()
        .copied()
        .take_while(|&v| func.value(v).kind.opcode() == Some(&Opcode::Phi))
        .collect();
    if !phis.contains(&iterator) {
        return Err(OutlineError::UnsupportedHeaderShape);
    }
    for &p in &phis {
        if p != iterator && !fold_accs.contains(&p) {
            return Err(OutlineError::UnknownCarriedState);
        }
    }
    if header_insts[phis.len()..] != [test, jump] {
        return Err(OutlineError::UnsupportedHeaderShape);
    }

    // The exit phis: each merges exactly the induction edge (header) and
    // the break edge. Fold results are handled separately (their
    // loop-edge arm is the carried phi, seeded from the accumulator's
    // initial value rather than an invariant default); every other phi's
    // default must be available before the loop.
    let exit_phis: Vec<ValueId> = func
        .block(exit_block)
        .insts
        .iter()
        .copied()
        .take_while(|&v| func.value(v).kind.opcode() == Some(&Opcode::Phi))
        .collect();
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
    for (r, &acc) in fold_rs.iter().zip(&fold_accs) {
        let res = r.binding("res");
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
    for b in func.block_ids() {
        if l.contains(b) || b == break_bb {
            continue;
        }
        for &inst in &func.block(b).insts {
            if exit_phis.contains(&inst) {
                continue;
            }
            let ops = func.value(inst).kind.operands();
            if ops.contains(&iterator) {
                return Err(OutlineError::IteratorLiveOut);
            }
            for (r, &acc) in fold_rs.iter().zip(&fold_accs) {
                if r.binding("res") != acc && ops.contains(&acc) {
                    return Err(OutlineError::CarriedValueLiveOut);
                }
            }
        }
    }

    // --- closure discovery ----------------------------------------------
    // Cloned blocks: the loop body plus the break trampoline (outside the
    // natural loop, since it cannot reach the latch).
    let body_blocks: Vec<BlockId> = func
        .block_ids()
        .filter(|&b| (l.contains(b) && b != header) || b == break_bb)
        .collect();
    let inside: HashSet<ValueId> = body_blocks
        .iter()
        .flat_map(|&b| func.block(b).insts.iter().copied())
        .chain(phis.iter().copied())
        .collect();
    let mut closure: Vec<ValueId> = Vec::new();
    let is_closure = |v: ValueId, func: &Function, closure: &mut Vec<ValueId>| {
        push_closure_value(v, func, &inside, closure);
    };
    for &b in &body_blocks {
        for &inst in &func.block(b).insts {
            let data = func.value(inst);
            let ops: Vec<ValueId> = match data.kind.opcode() {
                Some(Opcode::Phi) => data.kind.operands().chunks(2).map(|c| c[0]).collect(),
                _ => data.kind.operands().to_vec(),
            };
            for op in ops {
                if op == iterator {
                    continue;
                }
                is_closure(op, func, &mut closure);
            }
        }
    }
    // The exit-phi arms travel to the chunk as well: defaults are always
    // out-of-loop values, break values may be (invariants forwarded by the
    // trampoline).
    for &(_, dv, bv) in &exit_merges {
        is_closure(dv, func, &mut closure);
        if bv != iterator {
            is_closure(bv, func, &mut closure);
        }
    }

    // --- build the chunk function ----------------------------------------
    let (chunk_name, intrinsic) = chunk_names(module, func_name);

    let ptr_ty = |ty: Type| match ty {
        Type::Int | Type::Bool => Type::PtrInt,
        _ => Type::PtrFloat,
    };
    let mut params: Vec<(String, Type)> = vec![
        ("lo".to_string(), Type::Int),
        ("hi".to_string(), Type::Int),
        ("step".to_string(), Type::Int),
    ];
    for (i, &cv) in closure.iter().enumerate() {
        params.push((format!("c{i}"), func.value(cv).ty));
    }
    let hit_arg_index = params.len();
    params.push(("hit".to_string(), Type::PtrInt));
    let exit_out_base = params.len();
    for (i, &(phi, _, _)) in exit_merges.iter().enumerate() {
        params.push((format!("exit{i}"), ptr_ty(func.value(phi).ty)));
    }
    let fold_out_base = params.len();
    for (i, &acc) in fold_accs.iter().enumerate() {
        params.push((format!("fold{i}"), ptr_ty(func.value(acc).ty)));
    }
    let param_refs: Vec<(&str, Type)> = params.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let mut chunk = Function::new(&chunk_name, &param_refs, Type::Void);

    let c_entry = chunk.add_block("entry");
    let c_header = chunk.add_block("header");
    let mut block_map: HashMap<BlockId, BlockId> = HashMap::new();
    block_map.insert(header, c_header);
    for &b in &body_blocks {
        let nb = chunk.add_block(&func.block(b).name);
        block_map.insert(b, nb);
    }
    let c_exit = chunk.add_block("exit");
    block_map.insert(exit_block, c_exit);

    let mut val_map: HashMap<ValueId, ValueId> = HashMap::new();
    for (i, &cv) in closure.iter().enumerate() {
        val_map.insert(cv, chunk.arg_values[3 + i]);
    }

    // Header: iterator phi, test, jump.
    let c_entry_label = chunk.block(c_entry).label;
    let c_header_label = chunk.block(c_header).label;
    let c_latch = block_map[&func.block_of_label(get("latch"))];
    let c_latch_label = chunk.block(c_latch).label;
    let c_iter = chunk.add_value(
        ValueKind::Inst { opcode: Opcode::Phi, operands: vec![] },
        Type::Int,
        Some("i".to_string()),
    );
    chunk.blocks[c_header.index()].insts.push(c_iter);
    val_map.insert(iterator, c_iter);
    // Fold accumulators: identity-seeded carried phis, exactly like the
    // deterministic fold template's (the merge re-applies the initial
    // value once, in the rewritten preheader's cell).
    let mut c_fold_accs: Vec<(ValueId, Type)> = Vec::new();
    for &acc in &fold_accs {
        let ty = func.value(acc).ty;
        let c_acc = chunk.add_value(
            ValueKind::Inst { opcode: Opcode::Phi, operands: vec![] },
            ty,
            Some("acc".to_string()),
        );
        chunk.blocks[c_header.index()].insts.push(c_acc);
        val_map.insert(acc, c_acc);
        c_fold_accs.push((c_acc, ty));
    }
    let c_test = chunk.append_inst(
        c_header,
        Opcode::Cmp(pred),
        vec![c_iter, chunk.arg_values[1]],
        Type::Bool,
    );
    let body_entry = func.block_of_label(get("body"));
    let c_body_label = chunk.block(block_map[&body_entry]).label;
    let c_exit_label = chunk.block(c_exit).label;
    chunk.append_inst(
        c_header,
        Opcode::CondBr,
        vec![c_test, c_body_label, c_exit_label],
        Type::Void,
    );
    chunk.append_inst(c_entry, Opcode::Br, vec![c_header_label], Type::Void);

    // Clone body + trampoline instructions: shells, then operands.
    let mut cloned: Vec<(ValueId, ValueId)> = Vec::new();
    for &b in &body_blocks {
        for &inst in &func.block(b).insts.clone() {
            let data = func.value(inst).clone();
            let ValueKind::Inst { opcode, .. } = data.kind else { unreachable!() };
            let c =
                chunk.add_value(ValueKind::Inst { opcode, operands: vec![] }, data.ty, data.name);
            chunk.blocks[block_map[&b].index()].insts.push(c);
            val_map.insert(inst, c);
            cloned.push((inst, c));
        }
    }
    for (orig, clone) in &cloned {
        let ops = func.value(*orig).kind.operands().to_vec();
        let mapped: Vec<ValueId> = ops
            .iter()
            .map(|&op| map_operand(func, &mut chunk, &val_map, &block_map, op))
            .collect();
        if let ValueKind::Inst { operands, .. } = &mut chunk.value_mut(*clone).kind {
            *operands = mapped;
        }
    }
    // Complete the iterator phi.
    let next_iter_clone = val_map[&get("next_iter")];
    let lo_arg = chunk.arg_values[0];
    if let ValueKind::Inst { operands, .. } = &mut chunk.value_mut(c_iter).kind {
        operands.extend([lo_arg, c_entry_label, next_iter_clone, c_latch_label]);
    }
    // Complete the fold accumulator phis: identity from entry, the
    // cloned update from the latch.
    for (r, &(c_acc, ty)) in fold_rs.iter().zip(&c_fold_accs) {
        let identity = match ty {
            Type::Int | Type::Bool => chunk.const_int(r.op.identity_int()),
            _ => chunk.const_float(r.op.identity_float()),
        };
        let next_clone = val_map[&r.binding("acc_next")];
        if let ValueKind::Inst { operands, .. } = &mut chunk.value_mut(c_acc).kind {
            operands.extend([identity, c_entry_label, next_clone, c_latch_label]);
        }
    }

    // Chunk exit: the hit phi plus one clone of every original exit phi,
    // merging the induction edge (header) with the break edge.
    let c_break_label = chunk.block(block_map[&break_bb]).label;
    let no_hit = chunk.const_int(crate::plan::SEARCH_NO_HIT);
    let c_hit = chunk.add_value(
        ValueKind::Inst {
            opcode: Opcode::Phi,
            operands: vec![no_hit, c_header_label, c_iter, c_break_label],
        },
        Type::Int,
        Some("hit".to_string()),
    );
    chunk.blocks[c_exit.index()].insts.push(c_hit);
    let mut c_exit_phis = Vec::new();
    for &(phi, dv, bv) in &exit_merges {
        let c_dv = map_operand(func, &mut chunk, &val_map, &block_map, dv);
        let c_bv = map_operand(func, &mut chunk, &val_map, &block_map, bv);
        let c_phi = chunk.add_value(
            ValueKind::Inst {
                opcode: Opcode::Phi,
                operands: vec![c_dv, c_header_label, c_bv, c_break_label],
            },
            func.value(phi).ty,
            func.value(phi).name.clone(),
        );
        chunk.blocks[c_exit.index()].insts.push(c_phi);
        c_exit_phis.push(c_phi);
    }
    // One partial phi per fold: the identity-seeded accumulator on the
    // induction exit, its break-arm value on the break edge. On a break
    // this is exactly the fold over the chunk's pre-hit (or, post-update,
    // through-hit) iterations — the value the merge replays in order.
    let mut c_fold_phis = Vec::new();
    for (&(c_acc, ty), &bv) in c_fold_accs.iter().zip(&fold_breaks) {
        let c_bv = map_operand(func, &mut chunk, &val_map, &block_map, bv);
        let c_phi = chunk.add_value(
            ValueKind::Inst {
                opcode: Opcode::Phi,
                operands: vec![c_acc, c_header_label, c_bv, c_break_label],
            },
            ty,
            Some("partial".to_string()),
        );
        chunk.blocks[c_exit.index()].insts.push(c_phi);
        c_fold_phis.push(c_phi);
    }
    chunk.append_inst(
        c_exit,
        Opcode::Store,
        vec![c_hit, chunk.arg_values[hit_arg_index]],
        Type::Void,
    );
    for (i, &c_phi) in c_exit_phis.iter().enumerate() {
        let out = chunk.arg_values[exit_out_base + i];
        chunk.append_inst(c_exit, Opcode::Store, vec![c_phi, out], Type::Void);
    }
    for (i, &c_phi) in c_fold_phis.iter().enumerate() {
        let out = chunk.arg_values[fold_out_base + i];
        chunk.append_inst(c_exit, Opcode::Store, vec![c_phi, out], Type::Void);
    }
    chunk.append_inst(c_exit, Opcode::Ret, vec![], Type::Void);

    // --- rewrite the original function ------------------------------------
    let mut out = module.clone();
    let f = &mut out.functions[fi];
    let term = f.blocks[preheader.index()].insts.pop().expect("preheader has a terminator");
    debug_assert_eq!(f.value(term).kind.opcode(), Some(&Opcode::Br));

    // Cells: the hit marker plus one cell per exit phi, seeded with the
    // not-found defaults (the values the phis take on the induction edge).
    let one = f.const_int(1);
    let no_hit_orig = f.const_int(crate::plan::SEARCH_NO_HIT);
    let hit_cell = f.append_inst(preheader, Opcode::Alloca, vec![one], Type::PtrInt);
    f.append_inst(preheader, Opcode::Store, vec![no_hit_orig, hit_cell], Type::Void);
    let mut cells = Vec::new();
    for &(phi, dv, _) in &exit_merges {
        let cell = f.append_inst(preheader, Opcode::Alloca, vec![one], ptr_ty(f.value(phi).ty));
        f.append_inst(preheader, Opcode::Store, vec![dv, cell], Type::Void);
        cells.push(cell);
    }
    // Fold cells are seeded with the accumulator's original initial
    // value: the merge folds `init ⊕ partial_0 ⊕ … ⊕ partial_w` into
    // them, so a loop the runtime never enters keeps `init` — the
    // sequential result of an empty iteration space.
    let mut fold_cells = Vec::new();
    for (r, &acc) in fold_rs.iter().zip(&fold_accs) {
        let cell = f.append_inst(preheader, Opcode::Alloca, vec![one], ptr_ty(f.value(acc).ty));
        f.append_inst(preheader, Opcode::Store, vec![r.binding("acc_init"), cell], Type::Void);
        fold_cells.push(cell);
    }
    let mut call_args = vec![iter_begin, iter_end, iter_step];
    call_args.extend(closure.iter().copied());
    call_args.push(hit_cell);
    call_args.extend(cells.iter().copied());
    call_args.extend(fold_cells.iter().copied());
    let arg_count = call_args.len();
    f.append_inst(preheader, Opcode::Call(intrinsic.clone()), call_args, Type::Void);
    let mut finals = Vec::new();
    for (ci, &(phi, _, _)) in exit_merges.iter().enumerate() {
        let ty = f.value(phi).ty;
        let final_v = f.append_inst(preheader, Opcode::Load, vec![cells[ci]], ty);
        finals.push((phi, final_v));
    }
    // Fold results: rewire whatever carried the fold out of the loop —
    // the surviving exit phi, or (pre-update break) the accumulator phi
    // itself — to the merged cell value.
    for (ri, r) in fold_rs.iter().enumerate() {
        let res = r.binding("res");
        let ty = f.value(res).ty;
        let final_v = f.append_inst(preheader, Opcode::Load, vec![fold_cells[ri]], ty);
        finals.push((res, final_v));
    }
    let exit_label = f.block(exit_block).label;
    f.append_inst(preheader, Opcode::Br, vec![exit_label], Type::Void);
    // Drop the exit phis (replaced by the reloads), then stub out the loop
    // blocks and the trampoline.
    f.blocks[exit_block.index()].insts.retain(|v| !exit_phis.contains(v));
    for b in f.block_ids().collect::<Vec<_>>() {
        if l.contains(b) || b == break_bb {
            f.blocks[b.index()].insts.clear();
            let stub = f.add_value(
                ValueKind::Inst { opcode: Opcode::Br, operands: vec![exit_label] },
                Type::Void,
                None,
            );
            f.blocks[b.index()].insts.push(stub);
        }
    }
    // Rewire exit-phi uses outside the loop to the reloaded values.
    for b in f.block_ids().collect::<Vec<_>>() {
        if l.contains(b) || b == break_bb {
            continue;
        }
        for inst in f.blocks[b.index()].insts.clone() {
            let kind = &mut f.values[inst.index()].kind;
            if let ValueKind::Inst { operands, .. } = kind {
                for op in operands.iter_mut() {
                    if let Some((_, nv)) = finals.iter().find(|(phi, _)| phi == op) {
                        *op = *nv;
                    }
                }
            }
        }
    }

    let search = SearchSlot {
        hit_arg_index,
        exits: exit_merges
            .iter()
            .enumerate()
            .map(|(i, &(phi, _, _))| ExitSlot {
                arg_index: exit_out_base + i,
                ty: func.value(phi).ty,
            })
            .collect(),
        folds: fold_rs
            .iter()
            .zip(&fold_accs)
            .enumerate()
            .map(|(i, (r, &acc))| FoldSlot {
                arg_index: fold_out_base + i,
                ty: func.value(acc).ty,
                op: r.op,
            })
            .collect(),
    };
    out.push_function(chunk);
    gr_ir::verify::verify_module(&out).expect("outlined module must verify");

    let plan = ReductionPlan {
        function: func_name.to_string(),
        chunk_fn: chunk_name,
        chunk_value_only_fn: None,
        intrinsic,
        pred,
        accs: vec![],
        hists: vec![],
        scans: vec![],
        args: vec![],
        search: Some(search),
        written: vec![],
        arg_count,
        chunking: ChunkPolicy::default(),
    };
    Ok((out, plan))
}

/// Normalizes the loop test into a continue-predicate with the iterator
/// on the left (negated when the jump's then-arm leaves the loop) — shared
/// by the fold and search outline paths.
fn continue_pred(
    func: &Function,
    iterator: ValueId,
    test: ValueId,
    jump: ValueId,
    exit_block: BlockId,
) -> Result<gr_ir::CmpPred, OutlineError> {
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

/// Closure-discovery step shared by both outline paths: arguments,
/// globals, and instructions defined outside the cloned region travel as
/// chunk parameters.
fn push_closure_value(
    v: ValueId,
    func: &Function,
    inside: &HashSet<ValueId>,
    closure: &mut Vec<ValueId>,
) {
    match &func.value(v).kind {
        ValueKind::Argument(_) | ValueKind::GlobalRef(_) if !closure.contains(&v) => {
            closure.push(v);
        }
        ValueKind::Inst { .. } if !inside.contains(&v) && !closure.contains(&v) => {
            closure.push(v);
        }
        _ => {}
    }
}

fn map_operand(
    func: &Function,
    chunk: &mut Function,
    val_map: &HashMap<ValueId, ValueId>,
    block_map: &HashMap<BlockId, BlockId>,
    op: ValueId,
) -> ValueId {
    if let Some(&m) = val_map.get(&op) {
        return m;
    }
    match &func.value(op).kind {
        ValueKind::Block(b) => {
            let nb = block_map
                .get(b)
                .unwrap_or_else(|| panic!("branch target {b} not in loop clone"));
            chunk.block(*nb).label
        }
        ValueKind::ConstInt(c) => chunk.const_int(*c),
        ValueKind::ConstFloat(c) => chunk.const_float(*c),
        ValueKind::ConstBool(c) => chunk.const_bool(*c),
        other => panic!("unmapped operand {op}: {other:?}"),
    }
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
