//! The parallel reduction executor.
//!
//! Intercepts the `__parrun_*` intrinsic, splits the iteration space by
//! recursive bisection (paper §4: "depending on the amount of processors in
//! the system and the recursion depth, the function decides whether to
//! bisect its workload recursively"), runs the chunk function on
//! thread-private memory overlays, and merges partial results:
//!
//! * scalar accumulators: cells seeded with the operator identity, merged
//!   with the original initial value after the join;
//! * histograms: private copies (optionally grown dynamically on
//!   out-of-bounds bin indices), merged element-wise;
//! * prefix scans: the **two-pass block scan** — a partials pass runs
//!   every block from the identity with the output array privatized and
//!   discarded, the runtime folds the block partials into per-block
//!   offsets, and a replay pass re-runs each block seeded with its offset,
//!   writing the output through unsynchronized shared storage (the
//!   detector guarantees strided, therefore block-disjoint, indices);
//! * argmin/argmax pairs: per-thread `(value, index)` cells seeded with
//!   `(identity, sentinel)`, folded in iteration order by replaying the
//!   normalized exchange predicate — bit-equal with sequential execution,
//!   including ties;
//! * disjoint-written arrays: shared without synchronization;
//! * other written arrays: private copies, with the copy of the thread
//!   executing the last iterations written back;
//! * **early-exit loops** (searches and speculative folds): the
//!   cancellable speculative path — the iteration space is cut into
//!   [`SPECULATIVE_CHUNKS_PER_WORKER`] chunks per worker with the
//!   geometric front-ramp of [`ramped`], workers claim
//!   chunks in iteration order while polling a shared [`EarlyExitToken`],
//!   and the merge commits the exit values of the lowest-indexed chunk
//!   that hit and folds the speculative-fold partials of every chunk up
//!   to it, reproducing the sequential semantics exactly. This schedule
//!   is speculative rather than a deterministic fold: chunks past the
//!   sequential exit point may run and be discarded, which detection
//!   makes unobservable (the loop body is side-effect free by
//!   construction). A speculative chunk that **traps** is discarded too;
//!   when it cannot be proven irrelevant the executor falls back to
//!   sequential execution instead of propagating the trap.
//!
//! Each handler owns the threads it runs on. The calling thread runs
//! piece 0 of every pass and claims chunks on the speculative schedule
//! like any worker; the other `threads − 1` workers are helpers the
//! handler spawns on its first call, parks between calls and joins when
//! it drops. So a call wakes parked threads instead of spawning fresh
//! ones, and a call at one thread runs on the caller alone.

use crate::overlay::{OverlayMemory, SharedRaw};
use crate::plan::{ReductionPlan, SearchSlot, WrittenPolicy, ARG_IDX_SENTINEL, SEARCH_NO_HIT};
use crate::pool::Pool;
use crate::sync::EarlyExitToken;
use gr_core::{GrError, ReductionOp};
use gr_interp::machine::{IntrinsicHandler, Machine, Trap};
use gr_interp::memory::{MemBackend, Memory, Obj, ObjId};
use gr_interp::RtVal;
use gr_ir::{CmpPred, Module, Type};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Builds the intrinsic handler for `plan`, executing on up to `threads`
/// OS threads: the calling thread plus `threads − 1` helpers that the
/// handler spawns on its first call and keeps parked until it drops.
#[must_use]
pub fn handler<'m>(
    module: &'m Module,
    plan: ReductionPlan,
    threads: usize,
) -> Arc<IntrinsicHandler<'m, Memory>> {
    let threads = threads.max(1);
    let pool = Pool::default();
    Arc::new(move |name: &str, args: &[RtVal], mem: &mut Memory| {
        if name != plan.intrinsic {
            return None;
        }
        Some(execute(module, &plan, &pool, threads, args, mem))
    })
}

/// Chunks per worker on the speculative schedule: more chunks than
/// workers, so cancellation has someplace to bite — a worker that claims a
/// chunk past a known hit stops without touching it.
pub const SPECULATIVE_CHUNKS_PER_WORKER: usize = 8;

/// Splits `count` iterations into at most `pieces` contiguous ranges with
/// a **geometric front-ramp**: piece `k` weighs `min(2^k, 64)`, so the
/// first chunks are small and a hit near the front of the iteration space
/// cancels nearly all of it before the speculative tail has been touched,
/// while the tail still amortizes claim overhead over large chunks.
/// Coverage is exact and pieces stay in iteration order (the cancellation
/// protocol depends only on chunk *order*, not size).
#[must_use]
pub fn ramped(count: i64, pieces: usize) -> Vec<(i64, i64)> {
    if pieces <= 1 || count <= 1 {
        return bisect(count, pieces);
    }
    const RAMP_CAP: u32 = 6; // weights saturate at 2^6 = 64
    let weights: Vec<i64> = (0..pieces)
        .map(|k| 1i64 << u32::try_from(k).map_or(RAMP_CAP, |k| k.min(RAMP_CAP)))
        .collect();
    let total: i128 = weights.iter().map(|&w| i128::from(w)).sum();
    let mut out = Vec::new();
    let mut prefix: i128 = 0;
    let mut start = 0i64;
    for w in weights {
        prefix += i128::from(w);
        #[allow(clippy::cast_possible_truncation)] // bounded by count
        let end = ((i128::from(count) * prefix) / total) as i64;
        if end > start {
            out.push((start, end - start));
            start = end;
        }
    }
    out
}

/// Splits `count` iterations by recursive bisection into at most
/// `pieces` contiguous ranges `(start, len)`.
#[must_use]
pub fn bisect(count: i64, pieces: usize) -> Vec<(i64, i64)> {
    fn rec(start: i64, len: i64, pieces: usize, out: &mut Vec<(i64, i64)>) {
        if pieces <= 1 || len <= 1 {
            if len > 0 {
                out.push((start, len));
            }
            return;
        }
        let left_pieces = pieces / 2;
        let right_pieces = pieces - left_pieces;
        // Split proportionally so each piece gets a similar share.
        let left_len = len * left_pieces as i64 / pieces as i64;
        rec(start, left_len, left_pieces, out);
        rec(start + left_len, len - left_len, right_pieces, out);
    }
    let mut out = Vec::new();
    rec(0, count, pieces, &mut out);
    out
}

fn object_of(arg: RtVal) -> Result<ObjId, Trap> {
    match arg {
        RtVal::P { obj, off: 0 } => Ok(obj),
        _ => Err(Trap::UnknownFunction("misaligned runtime pointer".to_string())),
    }
}

/// A per-scan seed value handed to one piece (identity in the partials
/// pass, the block offset in the replay pass).
#[derive(Debug, Clone, Copy)]
enum SeedVal {
    /// Integer accumulator seed.
    I(i64),
    /// Float accumulator seed.
    F(f64),
}

impl SeedVal {
    fn identity(op: ReductionOp, ty: Type) -> SeedVal {
        match ty {
            Type::Int | Type::Bool => SeedVal::I(op.identity_int()),
            _ => SeedVal::F(op.identity_float()),
        }
    }

    fn into_obj(self) -> Obj {
        match self {
            SeedVal::I(v) => Obj::I(vec![v]),
            SeedVal::F(v) => Obj::F(vec![v]),
        }
    }

    fn merge(self, op: ReductionOp, partial: &Obj) -> SeedVal {
        match self {
            SeedVal::I(v) => {
                let Obj::I(p) = partial else { panic!("scan cell type mismatch") };
                SeedVal::I(op.merge_int(v, p[0]))
            }
            SeedVal::F(v) => {
                let Obj::F(p) = partial else { panic!("scan cell type mismatch") };
                SeedVal::F(op.merge_float(v, p[0]))
            }
        }
    }
}

/// Everything one piece hands back to the merge step.
struct PieceOut {
    cells: Vec<Obj>,
    scan_cells: Vec<Obj>,
    hists: Vec<Obj>,
    arg_vals: Vec<Obj>,
    arg_idxs: Vec<Obj>,
    copyback: Vec<Obj>,
}

/// Why a non-speculative pass did not produce its piece results.
enum PieceFailure {
    /// A chunk trapped. Sequential execution over the same iterations
    /// traps too, so the trap propagates as the pass result.
    Trap(Trap),
    /// A worker panicked mid-chunk. The panic was contained on the
    /// worker; the executor degrades to a whole-range sequential re-run
    /// ([`recover_pass_failure`]).
    Panic {
        /// Piece index the panic occurred in.
        piece: usize,
        /// Rendered panic payload.
        detail: String,
    },
}

/// All resolved runtime objects of one plan.
struct PlanObjects {
    cells: Vec<ObjId>,
    hists: Vec<ObjId>,
    scan_cells: Vec<ObjId>,
    scan_outs: Vec<ObjId>,
    arg_vals: Vec<ObjId>,
    arg_idxs: Vec<ObjId>,
    written: Vec<ObjId>,
}

impl PlanObjects {
    fn resolve(plan: &ReductionPlan, args: &[RtVal]) -> Result<PlanObjects, Trap> {
        let get = |ix: &[usize]| -> Result<Vec<ObjId>, Trap> {
            ix.iter().map(|&i| object_of(args[i])).collect()
        };
        Ok(PlanObjects {
            cells: get(&plan.accs.iter().map(|a| a.arg_index).collect::<Vec<_>>())?,
            hists: get(&plan.hists.iter().map(|h| h.arg_index).collect::<Vec<_>>())?,
            scan_cells: get(&plan.scans.iter().map(|s| s.cell_arg_index).collect::<Vec<_>>())?,
            scan_outs: get(&plan.scans.iter().map(|s| s.out_arg_index).collect::<Vec<_>>())?,
            arg_vals: get(&plan.args.iter().map(|a| a.val_arg_index).collect::<Vec<_>>())?,
            arg_idxs: get(&plan.args.iter().map(|a| a.idx_arg_index).collect::<Vec<_>>())?,
            written: get(&plan.written.iter().map(|w| w.arg_index).collect::<Vec<_>>())?,
        })
    }
}

/// Runs one pass of the chunk over all pieces: piece 0 on the calling
/// thread, every other piece on one of the handler's parked helpers. The
/// results come back in piece order.
///
/// `scan_seeds[piece][scan]` seeds the scan cells; `scan_shared` switches
/// the scan outputs between privatized-and-discarded (partials pass) and
/// unsynchronized shared storage (replay pass); `written_raw` carries the
/// shared storage for disjoint-written objects (`None` entries privatize,
/// which the partials pass uses to keep every side effect off the base).
#[allow(clippy::too_many_arguments)]
fn run_pass(
    module: &Module,
    plan: &ReductionPlan,
    pool: &Pool,
    args: &[RtVal],
    mem: &Memory,
    pieces: &[(i64, i64)],
    bounds: (i64, i64, i64, i64),
    objs: &PlanObjects,
    written_raw: &[Option<Arc<SharedRaw>>],
    scan_seeds: &[Vec<SeedVal>],
    scan_shared: Option<&[Arc<SharedRaw>]>,
) -> Result<Vec<PieceOut>, PieceFailure> {
    let (lo, hi, step, count) = bounds;
    // The scan partials pass (privatized-and-discarded outputs) only needs
    // each block's final running value: run the store-free value-only
    // chunk when outlining produced one.
    let chunk_fn: &str = if scan_shared.is_none() && !plan.scans.is_empty() {
        plan.chunk_value_only_fn.as_deref().unwrap_or(&plan.chunk_fn)
    } else {
        &plan.chunk_fn
    };
    gr_trace::counter("runtime.passes", 1);
    let seams = crate::fault::armed();
    let seams = seams.as_deref();
    let outcomes = pool.run(pieces.len(), |pi| -> Result<PieceOut, PieceFailure> {
        let (start, len) = pieces[pi];
        // Contain panics per piece: a panicking chunk must never tear
        // down the whole executor.
        let run = catch_unwind(AssertUnwindSafe(|| -> Result<PieceOut, Trap> {
            if let Some(seams) = seams {
                seams.maybe_panic(pi);
            }
            if gr_trace::enabled() {
                gr_trace::counter("runtime.chunk_dispatch", 1);
                gr_trace::instant(
                    "runtime.chunk",
                    vec![("chunk", pi.into()), ("start", start.into()), ("len", len.into())],
                );
            }
            let p_lo = plan.nth_iter_value(lo, step, start);
            let p_hi = plan.nth_iter_value(lo, step, start + len);
            let mut piece_args = args.to_vec();
            piece_args[0] = RtVal::I(p_lo);
            piece_args[1] = RtVal::I(clamp_hi(plan, p_hi, hi, step, start + len == count));
            let mut overlay = OverlayMemory::new(mem);
            for (&cell, acc) in objs.cells.iter().zip(&plan.accs) {
                overlay.redirect_private(
                    cell,
                    SeedVal::identity(acc.op, acc.ty).into_obj(),
                    false,
                    0,
                    0.0,
                );
            }
            for (&cell, seed) in objs.scan_cells.iter().zip(&scan_seeds[pi]) {
                overlay.redirect_private(cell, seed.into_obj(), false, 0, 0.0);
            }
            for (si, &out) in objs.scan_outs.iter().enumerate() {
                match scan_shared {
                    Some(raws) => overlay.redirect_raw(out, Arc::clone(&raws[si])),
                    // Partials pass: output writes are recomputed by
                    // the replay pass; sink them (the spec proves the
                    // loop never reads the output).
                    None => overlay.redirect_sink(out),
                }
            }
            for (&vobj, slot) in objs.arg_vals.iter().zip(&plan.args) {
                overlay.redirect_private(
                    vobj,
                    SeedVal::identity(slot.op, slot.ty).into_obj(),
                    false,
                    0,
                    0.0,
                );
            }
            for &iobj in &objs.arg_idxs {
                overlay.redirect_private(iobj, Obj::I(vec![ARG_IDX_SENTINEL]), false, 0, 0.0);
            }
            for (&hobj, h) in objs.hists.iter().zip(&plan.hists) {
                let len = if h.growable { 1 } else { mem.object(hobj).len() };
                let (fill_i, fill_f) = (h.op.identity_int(), h.op.identity_float());
                let seed = match h.elem {
                    Type::Int => Obj::I(vec![fill_i; len]),
                    _ => Obj::F(vec![fill_f; len]),
                };
                overlay.redirect_private(hobj, seed, h.growable, fill_i, fill_f);
            }
            for ((&wobj, w), raw) in objs.written.iter().zip(&plan.written).zip(written_raw) {
                match (w.policy, raw) {
                    (WrittenPolicy::DisjointShared, Some(raw)) => {
                        overlay.redirect_raw(wobj, Arc::clone(raw));
                    }
                    _ => {
                        overlay.redirect_private(wobj, mem.object(wobj).clone(), false, 0, 0.0);
                    }
                }
            }
            let mut machine = Machine::new(module, overlay);
            machine.call(chunk_fn, &piece_args)?;
            let mut overlay = machine.mem;
            let take = |ov: &mut OverlayMemory<'_>, objs: &[ObjId]| -> Vec<Obj> {
                objs.iter().map(|&o| ov.take_private(o)).collect()
            };
            let cells = take(&mut overlay, &objs.cells);
            let scan_cells = take(&mut overlay, &objs.scan_cells);
            let hists = take(&mut overlay, &objs.hists);
            let arg_vals = take(&mut overlay, &objs.arg_vals);
            let arg_idxs = take(&mut overlay, &objs.arg_idxs);
            let copyback: Vec<Obj> = objs
                .written
                .iter()
                .zip(&plan.written)
                .zip(written_raw)
                .filter(|((_, w), raw)| w.policy == WrittenPolicy::PrivateCopyback || raw.is_none())
                .map(|((&o, _), _)| overlay.take_private(o))
                .collect();
            gr_trace::counter("runtime.chunk_complete", 1);
            Ok(PieceOut { cells, scan_cells, hists, arg_vals, arg_idxs, copyback })
        }));
        match run {
            Ok(Ok(out)) => Ok(out),
            Ok(Err(trap)) => Err(PieceFailure::Trap(trap)),
            Err(payload) => {
                gr_trace::counter("runtime.chunk_panic", 1);
                Err(PieceFailure::Panic {
                    piece: pi,
                    detail: crate::fault::panic_message(&*payload),
                })
            }
        }
    });
    // Piece order makes the propagated failure deterministic: the
    // lowest-piece failure wins, which for traps is the earliest trapping
    // iteration — exactly the trap sequential execution hits first.
    outcomes.into_iter().collect()
}

/// One executed chunk's outcome on the speculative schedule.
struct ChunkOut {
    /// Chunk index in iteration order.
    chunk: usize,
    /// The iterator value at the chunk's first hit, or
    /// [`SEARCH_NO_HIT`] when it completed without breaking.
    hit: i64,
    /// Exit-phi cell values (taken only when the chunk hit).
    exits: Vec<Obj>,
    /// Speculative-fold partials (taken from every executed chunk).
    folds: Vec<Obj>,
}

fn execute(
    module: &Module,
    plan: &ReductionPlan,
    pool: &Pool,
    threads: usize,
    args: &[RtVal],
    mem: &mut Memory,
) -> Result<Option<RtVal>, Trap> {
    if let Some(search) = &plan.search {
        return execute_search(module, plan, pool, search, threads, args, mem);
    }
    let lo = args[0].as_i();
    let hi = args[1].as_i();
    let step = args[2].as_i();
    let count = plan.iteration_count(lo, hi, step);
    if count == 0 {
        return Ok(None);
    }
    let pieces = bisect(count, threads.min(count.max(1) as usize));
    let bounds = (lo, hi, step, count);
    let objs = PlanObjects::resolve(plan, args)?;

    // Shared storage for disjoint-written objects (final pass only).
    let mut raw_shared: Vec<Option<Arc<SharedRaw>>> = Vec::new();
    for (w, &obj) in plan.written.iter().zip(&objs.written) {
        raw_shared.push(match w.policy {
            WrittenPolicy::DisjointShared => {
                Some(Arc::new(SharedRaw::new(mem.object(obj).clone())))
            }
            WrittenPolicy::PrivateCopyback => None,
        });
    }

    // Initial scan seeds: the merge identity for the partials pass.
    let identity_seeds: Vec<SeedVal> =
        plan.scans.iter().map(|s| SeedVal::identity(s.op, s.ty)).collect();

    let results = if plan.scans.is_empty() {
        match run_pass(
            module,
            plan,
            pool,
            args,
            mem,
            &pieces,
            bounds,
            &objs,
            &raw_shared,
            &vec![identity_seeds; pieces.len()],
            None,
        ) {
            Ok(r) => r,
            Err(f) => return recover_pass_failure(module, plan, args, mem, f),
        }
    } else {
        // Two-pass block scan. Pass one computes per-block partials with
        // all side effects privatized and discarded.
        let no_raw = vec![None; plan.written.len()];
        let partials = match run_pass(
            module,
            plan,
            pool,
            args,
            mem,
            &pieces,
            bounds,
            &objs,
            &no_raw,
            &vec![identity_seeds; pieces.len()],
            None,
        ) {
            Ok(r) => r,
            Err(f) => return recover_pass_failure(module, plan, args, mem, f),
        };
        // Fold block partials into per-block offsets: block 0 starts from
        // the original initial value, block t from offset(t-1) ⊕
        // partial(t-1).
        let mut offsets: Vec<Vec<SeedVal>> = Vec::with_capacity(pieces.len());
        let mut running: Vec<SeedVal> = plan
            .scans
            .iter()
            .zip(&objs.scan_cells)
            .map(|(s, &cell)| match s.ty {
                Type::Int | Type::Bool => Ok(SeedVal::I(mem.load_i(cell, 0).map_err(Trap::Mem)?)),
                _ => Ok(SeedVal::F(mem.load_f(cell, 0).map_err(Trap::Mem)?)),
            })
            .collect::<Result<_, Trap>>()?;
        for p in &partials {
            offsets.push(running.clone());
            running = running
                .iter()
                .zip(&plan.scans)
                .zip(&p.scan_cells)
                .map(|((seed, s), partial)| seed.merge(s.op, partial))
                .collect();
        }
        // The replay pass re-runs every block from its offset and writes
        // the output through unsynchronized shared storage (strided
        // indices make block writes disjoint).
        let scan_raws: Vec<Arc<SharedRaw>> = objs
            .scan_outs
            .iter()
            .map(|&o| Arc::new(SharedRaw::new(mem.object(o).clone())))
            .collect();
        let replay = match run_pass(
            module,
            plan,
            pool,
            args,
            mem,
            &pieces,
            bounds,
            &objs,
            &raw_shared,
            &offsets,
            Some(&scan_raws),
        ) {
            Ok(r) => r,
            Err(f) => {
                // The replay pass writes only through `SharedRaw` copies
                // (`scan_raws` / disjoint-shared), never the base memory,
                // so partially written copies are simply dropped here and
                // the sequential re-run starts from pristine state.
                drop(scan_raws);
                return recover_pass_failure(module, plan, args, mem, f);
            }
        };
        // Output writeback and the final accumulator values (the running
        // fold now covers every block).
        for (raw, &out) in scan_raws.into_iter().zip(&objs.scan_outs) {
            let obj = Arc::try_unwrap(raw).expect("scan output uniquely owned").into_obj();
            *mem.object_mut(out) = obj;
        }
        for ((seed, s), &cell) in running.iter().zip(&plan.scans).zip(&objs.scan_cells) {
            match (seed, s.ty) {
                (SeedVal::I(v), _) => mem.store_i(cell, 0, *v).map_err(Trap::Mem)?,
                (SeedVal::F(v), _) => mem.store_f(cell, 0, *v).map_err(Trap::Mem)?,
            }
        }
        replay
    };

    // Merge scalars: final = merge(init, partial_0, …, partial_{p-1}).
    for (ai, (&cell, acc)) in objs.cells.iter().zip(&plan.accs).enumerate() {
        match acc.ty {
            Type::Int | Type::Bool => {
                let mut v = mem.load_i(cell, 0).map_err(Trap::Mem)?;
                for r in &results {
                    let Obj::I(p) = &r.cells[ai] else { panic!("cell type mismatch") };
                    v = acc.op.merge_int(v, p[0]);
                }
                mem.store_i(cell, 0, v).map_err(Trap::Mem)?;
            }
            _ => {
                let mut v = mem.load_f(cell, 0).map_err(Trap::Mem)?;
                for r in &results {
                    let Obj::F(p) = &r.cells[ai] else { panic!("cell type mismatch") };
                    v = acc.op.merge_float(v, p[0]);
                }
                mem.store_f(cell, 0, v).map_err(Trap::Mem)?;
            }
        }
    }
    // Fold argmin/argmax pairs in iteration order: a block partial with a
    // real index replaces the running best exactly when the normalized
    // exchange predicate holds — the same rule the loop body applies, so
    // the result (including the tie-break) is bit-equal with sequential
    // execution. Blocks that never exchanged report the sentinel and are
    // skipped.
    for (ai, (slot, (&vcell, &icell))) in
        plan.args.iter().zip(objs.arg_vals.iter().zip(&objs.arg_idxs)).enumerate()
    {
        let mut best_i = mem.load_i(icell, 0).map_err(Trap::Mem)?;
        match slot.ty {
            Type::Int | Type::Bool => {
                let mut best_v = mem.load_i(vcell, 0).map_err(Trap::Mem)?;
                for r in &results {
                    let Obj::I(pv) = &r.arg_vals[ai] else { panic!("arg cell type mismatch") };
                    let Obj::I(pi_) = &r.arg_idxs[ai] else { panic!("arg cell type mismatch") };
                    if pi_[0] != ARG_IDX_SENTINEL && ord_pred(slot.pred, pv[0], best_v) {
                        best_v = pv[0];
                        best_i = pi_[0];
                    }
                }
                mem.store_i(vcell, 0, best_v).map_err(Trap::Mem)?;
            }
            _ => {
                let mut best_v = mem.load_f(vcell, 0).map_err(Trap::Mem)?;
                for r in &results {
                    let Obj::F(pv) = &r.arg_vals[ai] else { panic!("arg cell type mismatch") };
                    let Obj::I(pi_) = &r.arg_idxs[ai] else { panic!("arg cell type mismatch") };
                    if pi_[0] != ARG_IDX_SENTINEL && ord_pred(slot.pred, pv[0], best_v) {
                        best_v = pv[0];
                        best_i = pi_[0];
                    }
                }
                mem.store_f(vcell, 0, best_v).map_err(Trap::Mem)?;
            }
        }
        mem.store_i(icell, 0, best_i).map_err(Trap::Mem)?;
    }
    // Merge histograms element-wise (growing the original if needed).
    for (hi_idx, (&hobj, h)) in objs.hists.iter().zip(&plan.hists).enumerate() {
        let max_len = results
            .iter()
            .map(|r| r.hists[hi_idx].len())
            .max()
            .unwrap_or(0)
            .max(mem.object(hobj).len());
        mem.object_mut(hobj)
            .grow_to(max_len, h.op.identity_int(), h.op.identity_float());
        for r in &results {
            merge_obj(mem.object_mut(hobj), &r.hists[hi_idx], h.op);
        }
    }
    // Disjoint-shared writebacks.
    for ((raw, &wobj), _) in raw_shared.into_iter().zip(&objs.written).zip(&plan.written) {
        if let Some(raw) = raw {
            let obj = Arc::try_unwrap(raw).expect("raw shared uniquely owned").into_obj();
            *mem.object_mut(wobj) = obj;
        }
    }
    // Copyback objects: the piece executing the final iterations wins.
    let copyback_objs: Vec<ObjId> = objs
        .written
        .iter()
        .zip(&plan.written)
        .filter(|(_, w)| w.policy == WrittenPolicy::PrivateCopyback)
        .map(|(&o, _)| o)
        .collect();
    if !copyback_objs.is_empty() {
        if let Some(last) = results.last() {
            for (&obj, data) in copyback_objs.iter().zip(&last.copyback) {
                *mem.object_mut(obj) = data.clone();
            }
        }
    }
    Ok(None)
}

/// Degrades a failed non-speculative pass. A trap propagates — the pass
/// covers every iteration exactly once, so the lowest failing piece holds
/// the earliest trapping iteration, the same trap sequential execution
/// raises. A contained worker panic instead falls back to running the
/// chunk function once, sequentially, over the **entire** iteration space
/// against a scratch copy of the live memory: every chunk-local result so
/// far lived in discarded overlays, so the re-run reproduces exact
/// sequential semantics — including the sequential trap or panic if the
/// failure was genuine — and the base memory is only replaced once the
/// re-run succeeds.
fn recover_pass_failure(
    module: &Module,
    plan: &ReductionPlan,
    args: &[RtVal],
    mem: &mut Memory,
    failure: PieceFailure,
) -> Result<Option<RtVal>, Trap> {
    match failure {
        PieceFailure::Trap(t) => Err(t),
        PieceFailure::Panic { piece, detail } => {
            GrError::WorkerPanic { function: plan.chunk_fn.clone(), chunk: piece as i64, detail }
                .emit();
            if gr_trace::enabled() {
                gr_trace::counter("runtime.panic_fallbacks", 1);
                gr_trace::instant("runtime.panic_fallback", vec![("chunk", piece.into())]);
            }
            let mut machine = Machine::new(module, mem.clone());
            machine.call(&plan.chunk_fn, args)?;
            *mem = machine.mem;
            Ok(None)
        }
    }
}

/// The cancellable speculative executor for early-exit loops: searches
/// and speculative folds.
///
/// The iteration space is cut into `threads ×`
/// [`SPECULATIVE_CHUNKS_PER_WORKER`] chunks in iteration order, [`ramped`]
/// so that small chunks come first. The workers, the calling thread and
/// `threads − 1` parked helpers, claim chunks from a shared counter and,
/// between chunks, poll the [`EarlyExitToken`]: once a
/// strictly earlier chunk is known to have hit, every remaining claim is
/// moot and the worker stops. A chunk runs the two-exit chunk function on
/// an overlay with private hit/exit/fold cells; the chunk itself breaks at
/// its first in-range hit, so per-chunk results are already "earliest in
/// chunk".
///
/// The merge commits the exit cells of the lowest-indexed hit chunk —
/// exactly the sequential first hit — and folds the speculative-fold
/// partials **in chunk order, only up to that chunk** (all of them when
/// nothing hit): because claims are issued in order and only chunks
/// strictly past a known hit are cancelled, every chunk before the winner
/// has run to completion and its partial is available. Results are
/// asserted identical with sequential execution across thread counts by
/// the tests below (bit-equal integers, tolerance float sums from the
/// bounded reassociation).
///
/// Chunks later than the winning hit may execute speculatively and be
/// discarded. Detection guarantees this is unobservable (the loop body is
/// side-effect free — stray writes would trap in the overlay). Loads past
/// the sequential exit point are *not* assumed in-bounds: a speculative
/// chunk that traps is discarded, and if it cannot be proven irrelevant
/// (it precedes the winning hit, or nothing hit at all) the executor
/// falls back to running the chunk function once over the full range —
/// sequential semantics, including the trap if the original program
/// really would have faulted (ROADMAP's bounds-aware fallback).
fn execute_search(
    module: &Module,
    plan: &ReductionPlan,
    pool: &Pool,
    search: &SearchSlot,
    threads: usize,
    args: &[RtVal],
    mem: &mut Memory,
) -> Result<Option<RtVal>, Trap> {
    let lo = args[0].as_i();
    let hi = args[1].as_i();
    let step = args[2].as_i();
    let count = plan.iteration_count(lo, hi, step);
    if count == 0 {
        return Ok(None);
    }
    #[allow(clippy::cast_sign_loss)] // count > 0 here
    let pieces =
        ramped(count, (threads.max(1) * SPECULATIVE_CHUNKS_PER_WORKER).min(count as usize));
    if gr_trace::enabled() {
        gr_trace::counter("runtime.chunks_planned", pieces.len() as i64);
        // Chunk-size distribution per chunk function, recorded at plan
        // time (on the dispatching thread, before any worker races) so the
        // profile is deterministic for a fixed thread count.
        for &(_, len) in &pieces {
            gr_trace::histogram_keyed("runtime.chunk_len", &plan.chunk_fn, len);
        }
        gr_trace::instant(
            "runtime.ramp",
            vec![
                ("chunks", pieces.len().into()),
                ("first_len", pieces.first().map_or(0, |&(_, l)| l).into()),
                ("last_len", pieces.last().map_or(0, |&(_, l)| l).into()),
            ],
        );
    }
    let hit_obj = object_of(args[search.hit_arg_index])?;
    let exit_objs: Vec<ObjId> = search
        .exits
        .iter()
        .map(|e| object_of(args[e.arg_index]))
        .collect::<Result<_, Trap>>()?;
    let fold_objs: Vec<ObjId> = search
        .folds
        .iter()
        .map(|f| object_of(args[f.arg_index]))
        .collect::<Result<_, Trap>>()?;
    let token = EarlyExitToken::new();
    let next = AtomicUsize::new(0);
    let seams = crate::fault::armed();
    let seams = seams.as_deref();
    let base: &Memory = mem;
    // Each job returns the chunks it completed and, for the failure
    // ledger, the chunks that trapped or panicked with what went wrong.
    let results = pool.run(threads, |_| {
        let (mut done, mut failed) = (Vec::new(), Vec::new());
        loop {
            let c = next.fetch_add(1, Ordering::SeqCst);
            if c >= pieces.len() {
                break;
            }
            if seams.is_some_and(|s| s.abort_requested(c)) {
                token.abort();
            }
            gr_trace::counter("runtime.token_polls", 1);
            if token.cancels(c as i64) {
                gr_trace::counter("runtime.token_cancelled", 1);
                break;
            }
            let (start, len) = pieces[c];
            if gr_trace::enabled() {
                gr_trace::counter("runtime.chunk_dispatch", 1);
                gr_trace::instant(
                    "runtime.chunk",
                    vec![("chunk", c.into()), ("start", start.into()), ("len", len.into())],
                );
            }
            let mut piece_args = args.to_vec();
            let p_lo = plan.nth_iter_value(lo, step, start);
            let p_hi = plan.nth_iter_value(lo, step, start + len);
            piece_args[0] = RtVal::I(p_lo);
            piece_args[1] = RtVal::I(clamp_hi(plan, p_hi, hi, step, start + len == count));
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if let Some(seams) = seams {
                    seams.maybe_panic(c);
                }
                run_speculative_chunk(
                    module,
                    &plan.chunk_fn,
                    &piece_args,
                    base,
                    hit_obj,
                    &exit_objs,
                    &fold_objs,
                )
            }));
            let (hit, exits, folds) = match outcome {
                Ok(Ok(r)) => r,
                Ok(Err(trap)) => {
                    // A trap while speculating is not (yet) an
                    // error: record the chunk and let the merge
                    // decide whether sequential execution would
                    // have reached it at all.
                    gr_trace::counter("runtime.chunk_trap", 1);
                    failed.push((
                        c,
                        GrError::InterpTrap {
                            function: plan.chunk_fn.clone(),
                            detail: trap.to_string(),
                        },
                    ));
                    continue;
                }
                Err(payload) => {
                    // A panicking chunk is contained exactly like
                    // a trapping one: its work is discarded, the
                    // schedule keeps running, and the merge falls
                    // back when the chunk turns out to matter.
                    gr_trace::counter("runtime.chunk_panic", 1);
                    failed.push((
                        c,
                        GrError::WorkerPanic {
                            function: plan.chunk_fn.clone(),
                            chunk: c as i64,
                            detail: crate::fault::panic_message(&*payload),
                        },
                    ));
                    continue;
                }
            };
            if hit != SEARCH_NO_HIT {
                gr_trace::counter("runtime.chunk_hits", 1);
                token.offer(c as i64);
            }
            gr_trace::counter("runtime.chunk_complete", 1);
            done.push(ChunkOut { chunk: c, hit, exits, folds });
        }
        (done, failed)
    });
    let (outs, failures): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    let mut outs: Vec<ChunkOut> = outs.into_iter().flatten().collect();
    outs.sort_by_key(|o| o.chunk);
    let first_failure = failures.into_iter().flatten().min_by_key(|&(c, _)| c);
    let winner = outs.iter().filter(|o| o.hit != SEARCH_NO_HIT).map(|o| o.chunk).min();
    // The speculative result stands only when everything sequential
    // execution would have run is accounted for: every chunk up to the
    // winner (all chunks, when nothing hit) completed without a trap.
    let needed = winner.map_or(pieces.len(), |w| w + 1);
    // Lowest chunk index that trapped or panicked while speculating
    // (i64::MAX: none) — the barrier below which the speculative result
    // cannot be trusted.
    let trapped_min = first_failure.as_ref().map_or(i64::MAX, |&(c, _)| c as i64);
    let complete = trapped_min >= needed as i64
        && outs.len() >= needed
        && outs.iter().take(needed).enumerate().all(|(i, o)| o.chunk == i);
    if !complete {
        // Restart from the last completed chunk boundary instead of
        // re-running the whole range: chunks `0..prefix` finished without
        // hit or trap, so their partials are committed as-is and the
        // sequential tail resumes exactly where coverage ends.
        let prefix = completed_prefix(&outs, trapped_min);
        debug_assert!(prefix < pieces.len(), "a fully completed schedule cannot be incomplete");
        let restart_at = pieces.get(prefix).map_or(count, |&(start, _)| start);
        // Failure ledger: one entry for the earliest failure sequential
        // execution actually needs (chunks below `needed` always run to
        // an outcome, so this choice is deterministic; racy speculative
        // failures past the winner are not user-visible degradations),
        // plus the abort itself when the schedule was torn down.
        if let Some((_, err)) = first_failure.filter(|&(c, _)| c < needed) {
            err.emit();
        }
        if token.aborted() {
            GrError::TokenAborted { function: plan.chunk_fn.clone() }.emit();
        }
        if gr_trace::enabled() {
            gr_trace::counter("runtime.trap_fallbacks", 1);
            gr_trace::instant(
                "runtime.trap_fallback",
                vec![("restart_chunk", prefix.into()), ("restart_iter", restart_at.into())],
            );
        }
        return execute_sequential_fallback(
            module,
            plan,
            search,
            args,
            mem,
            hit_obj,
            &exit_objs,
            &fold_objs,
            &outs[..prefix],
            plan.nth_iter_value(lo, step, restart_at),
        );
    }
    if let Some(w) = winner {
        let won = outs.iter().find(|o| o.chunk == w).expect("winner chunk result present");
        gr_trace::counter("runtime.merge_commits", 1);
        if gr_trace::enabled() {
            // Hit-position profile per chunk function: the committed hit is
            // the sequential first hit, so this histogram is identical
            // across thread counts.
            gr_trace::histogram_keyed("runtime.hit_pos", &plan.chunk_fn, won.hit);
            gr_trace::histogram_keyed("runtime.hit_chunk", &plan.chunk_fn, w as i64);
        }
        mem.store_i(hit_obj, 0, won.hit).map_err(Trap::Mem)?;
        for (&o, obj) in exit_objs.iter().zip(&won.exits) {
            *mem.object_mut(o) = obj.clone();
        }
    }
    // Speculative-fold merge: init (already in the cell) ⊕ the partials
    // of chunks 0..=winner, in iteration order.
    if gr_trace::enabled() && !search.folds.is_empty() {
        gr_trace::counter("runtime.fold_partials_merged", (needed * search.folds.len()) as i64);
    }
    for (fi, (slot, &cell)) in search.folds.iter().zip(&fold_objs).enumerate() {
        merge_fold_partials(mem, cell, slot, outs.iter().take(needed).map(|o| &o.folds[fi]))?;
    }
    // No hit anywhere: the hit/exit cells keep the defaults the rewritten
    // preheader stored.
    Ok(None)
}

/// Runs the chunk function once over `args`'s `[lo, hi)` on an overlay
/// with private hit/exit/fold cells — the one chunk-execution protocol
/// shared by the speculative workers and the sequential fallback.
/// Returns the hit value ([`SEARCH_NO_HIT`] when the chunk completed),
/// the exit-cell values (empty unless it hit) and the fold partials.
fn run_speculative_chunk(
    module: &Module,
    chunk_fn: &str,
    args: &[RtVal],
    base: &Memory,
    hit_obj: ObjId,
    exit_objs: &[ObjId],
    fold_objs: &[ObjId],
) -> Result<(i64, Vec<Obj>, Vec<Obj>), Trap> {
    let mut overlay = OverlayMemory::new(base);
    overlay.redirect_private(hit_obj, Obj::I(vec![SEARCH_NO_HIT]), false, 0, 0.0);
    for &o in exit_objs.iter().chain(fold_objs.iter()) {
        overlay.redirect_private(o, base.object(o).clone(), false, 0, 0.0);
    }
    let mut machine = Machine::new(module, overlay);
    machine.call(chunk_fn, args)?;
    let mut overlay = machine.mem;
    let Obj::I(hit) = overlay.take_private(hit_obj) else { panic!("hit cell type mismatch") };
    let hit = hit[0];
    let exits: Vec<Obj> = if hit == SEARCH_NO_HIT {
        Vec::new()
    } else {
        exit_objs.iter().map(|&o| overlay.take_private(o)).collect()
    };
    let folds: Vec<Obj> = fold_objs.iter().map(|&o| overlay.take_private(o)).collect();
    Ok((hit, exits, folds))
}

/// Folds `init ⊕ partial_0 ⊕ … ⊕ partial_k` into a speculative-fold cell
/// (the cell holds `init` on entry — the rewritten preheader stored it).
fn merge_fold_partials<'a>(
    mem: &mut Memory,
    cell: ObjId,
    slot: &crate::plan::FoldSlot,
    partials: impl Iterator<Item = &'a Obj>,
) -> Result<(), Trap> {
    match slot.ty {
        Type::Int | Type::Bool => {
            let mut v = mem.load_i(cell, 0).map_err(Trap::Mem)?;
            for p in partials {
                let Obj::I(p) = p else { panic!("fold cell type mismatch") };
                v = slot.op.merge_int(v, p[0]);
            }
            mem.store_i(cell, 0, v).map_err(Trap::Mem)?;
        }
        _ => {
            let mut v = mem.load_f(cell, 0).map_err(Trap::Mem)?;
            for p in partials {
                let Obj::F(p) = p else { panic!("fold cell type mismatch") };
                v = slot.op.merge_float(v, p[0]);
            }
            mem.store_f(cell, 0, v).map_err(Trap::Mem)?;
        }
    }
    Ok(())
}

/// The longest contiguous run of chunks `0..prefix` that completed
/// without a hit and below the lowest trapped chunk: their partials are
/// exactly what sequential execution would have produced over the same
/// iterations, so the fallback can commit them and restart past them.
/// `outs` must be sorted by chunk index.
fn completed_prefix(outs: &[ChunkOut], trapped_min: i64) -> usize {
    let mut prefix = 0usize;
    for o in outs {
        if o.chunk == prefix && o.hit == SEARCH_NO_HIT && (prefix as i64) < trapped_min {
            prefix += 1;
        } else {
            break;
        }
    }
    prefix
}

/// The bounds-aware fallback: a speculative chunk trapped and sequential
/// execution cannot be proven to stop before it, so the speculative tail
/// is discarded and the chunk function runs once **from the last
/// completed chunk boundary to the true bound** against the live cells —
/// it breaks at its first hit exactly like the original loop, so this is
/// sequential execution in chunk clothing, minus the prefix the schedule
/// already covered (`completed`, whose partials are committed verbatim).
/// A trap here is real and propagates — before any cell is touched, so a
/// trapping call leaves the rewritten preheader's seeds intact.
#[allow(clippy::too_many_arguments)]
fn execute_sequential_fallback(
    module: &Module,
    plan: &ReductionPlan,
    search: &SearchSlot,
    args: &[RtVal],
    mem: &mut Memory,
    hit_obj: ObjId,
    exit_objs: &[ObjId],
    fold_objs: &[ObjId],
    completed: &[ChunkOut],
    restart_lo: i64,
) -> Result<Option<RtVal>, Trap> {
    let mut tail_args = args.to_vec();
    tail_args[0] = RtVal::I(restart_lo);
    let (hit, exits, folds) = run_speculative_chunk(
        module,
        &plan.chunk_fn,
        &tail_args,
        mem,
        hit_obj,
        exit_objs,
        fold_objs,
    )?;
    if hit != SEARCH_NO_HIT {
        mem.store_i(hit_obj, 0, hit).map_err(Trap::Mem)?;
        for (&o, obj) in exit_objs.iter().zip(exits) {
            *mem.object_mut(o) = obj;
        }
    }
    for (fi, ((slot, &cell), tail_partial)) in
        search.folds.iter().zip(fold_objs).zip(&folds).enumerate()
    {
        let prefix_partials = completed.iter().map(move |o| &o.folds[fi]);
        merge_fold_partials(mem, cell, slot, prefix_partials.chain(std::iter::once(tail_partial)))?;
    }
    Ok(None)
}

/// Applies a normalized exchange predicate (ordering tests only — an
/// equality exchange is never classified as argmin/argmax).
fn ord_pred<T: PartialOrd>(pred: CmpPred, a: T, b: T) -> bool {
    match pred {
        CmpPred::Lt => a < b,
        CmpPred::Le => a <= b,
        CmpPred::Gt => a > b,
        CmpPred::Ge => a >= b,
        CmpPred::Eq | CmpPred::Ne => false,
    }
}

/// The per-piece upper bound: interior pieces stop exactly at the next
/// piece's start; the final piece uses the true loop bound (so `Le`/`Ge`
/// predicates include their endpoint).
fn clamp_hi(plan: &ReductionPlan, piece_hi: i64, true_hi: i64, step: i64, is_last: bool) -> i64 {
    if is_last {
        return true_hi;
    }
    match plan.pred {
        gr_ir::CmpPred::Lt | gr_ir::CmpPred::Gt | gr_ir::CmpPred::Ne => piece_hi,
        // For inclusive predicates the piece must stop one step before
        // its neighbour's first iteration.
        gr_ir::CmpPred::Le | gr_ir::CmpPred::Ge => piece_hi - step,
        gr_ir::CmpPred::Eq => piece_hi,
    }
}

fn merge_obj(into: &mut Obj, from: &Obj, op: ReductionOp) {
    match (into, from) {
        (Obj::I(a), Obj::I(b)) => {
            for (x, y) in a.iter_mut().zip(b) {
                *x = op.merge_int(*x, *y);
            }
        }
        (Obj::F(a), Obj::F(b)) => {
            for (x, y) in a.iter_mut().zip(b) {
                *x = op.merge_float(*x, *y);
            }
        }
        _ => panic!("histogram element type mismatch"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outline::parallelize;
    use gr_core::detect_reductions;
    use gr_frontend::compile;

    #[test]
    fn bisect_covers_range_exactly() {
        for count in [1i64, 2, 7, 100, 1023] {
            for pieces in [1usize, 2, 3, 8, 24] {
                let ps = bisect(count, pieces);
                assert!(ps.len() <= pieces);
                let total: i64 = ps.iter().map(|p| p.1).sum();
                assert_eq!(total, count, "count={count} pieces={pieces}");
                let mut next = 0;
                for (start, len) in ps {
                    assert_eq!(start, next);
                    assert!(len > 0);
                    next = start + len;
                }
            }
        }
    }

    #[test]
    fn ramped_covers_range_exactly() {
        for count in [1i64, 2, 7, 100, 1023, 80_000] {
            for pieces in [1usize, 2, 3, 8, 64] {
                let ps = ramped(count, pieces);
                assert!(ps.len() <= pieces);
                let total: i64 = ps.iter().map(|p| p.1).sum();
                assert_eq!(total, count, "count={count} pieces={pieces}");
                let mut next = 0;
                for &(start, len) in &ps {
                    assert_eq!(start, next);
                    assert!(len > 0);
                    next = start + len;
                }
            }
        }
    }

    #[test]
    fn ramped_front_chunks_are_small() {
        // The geometric ramp: the first chunk is a small fraction of the
        // last, so an early hit cancels nearly the whole space cheaply.
        let ps = ramped(64_000, 32);
        assert!(ps.len() > 8);
        let first = ps.first().unwrap().1;
        let last = ps.last().unwrap().1;
        assert!(first * 16 <= last, "first {first} vs last {last}");
        // Sizes never shrink along the ramp (modulo rounding jitter).
        for w in ps.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1, "{ps:?}");
        }
    }

    fn run_parallel(
        src: &str,
        fname: &str,
        threads: usize,
        setup: impl FnOnce(&mut Memory) -> Vec<RtVal>,
    ) -> (Module, ReductionPlan, Memory, Option<RtVal>) {
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        let (pm, plan) = parallelize(&m, fname, &rs).unwrap();
        let mut mem = Memory::new(&pm);
        let args = setup(&mut mem);
        let mut machine = Machine::new(&pm, mem);
        machine.set_handler(handler(&pm, plan.clone(), threads));
        let r = machine.call(fname, &args).unwrap();
        (pm.clone(), plan, machine.mem, r)
    }

    #[test]
    fn parallel_sum_matches_sequential() {
        let data: Vec<f64> = (0..10_000).map(|i| (i % 97) as f64 * 0.25).collect();
        let expect: f64 = data.iter().sum();
        let (_, _, _, r) = run_parallel(
            "float sum(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }",
            "sum",
            8,
            |mem| vec![RtVal::ptr(mem.alloc_float(&data)), RtVal::I(10_000)],
        );
        // Addition reassociation: compare with tolerance.
        let got = r.unwrap().as_f();
        assert!((got - expect).abs() < 1e-6, "got {got}, want {expect}");
    }

    #[test]
    fn parallel_min_uses_identity_correctly() {
        let data: Vec<f64> = (0..1000).map(|i| ((i * 37 % 101) as f64) - 50.0).collect();
        let expect = data.iter().cloned().fold(f64::INFINITY, f64::min).min(3.0);
        let (_, _, _, r) = run_parallel(
            "float lo(float* a, int n) { float s = 3.0; for (int i = 0; i < n; i++) s = fmin(s, a[i]); return s; }",
            "lo",
            6,
            |mem| vec![RtVal::ptr(mem.alloc_float(&data)), RtVal::I(1000)],
        );
        assert_eq!(r.unwrap().as_f(), expect);
    }

    #[test]
    fn parallel_histogram_matches_sequential() {
        let keys: Vec<i64> = (0..20_000).map(|i| (i * 7919 + 13) % 256).collect();
        let mut expect = vec![0i64; 256];
        for &k in &keys {
            expect[k as usize] += 1;
        }
        let m = compile(
            "void rank(int* bins, int* keys, int n) { for (int i = 0; i < n; i++) bins[keys[i]]++; }",
        )
        .unwrap();
        let rs = detect_reductions(&m);
        let (pm, plan) = parallelize(&m, "rank", &rs).unwrap();
        let mut mem = Memory::new(&pm);
        let bins = mem.alloc_int(&vec![0; 256]);
        let k = mem.alloc_int(&keys);
        let mut machine = Machine::new(&pm, mem);
        machine.set_handler(handler(&pm, plan, 8));
        machine
            .call("rank", &[RtVal::ptr(bins), RtVal::ptr(k), RtVal::I(keys.len() as i64)])
            .unwrap();
        assert_eq!(machine.mem.ints(bins), expect.as_slice());
    }

    #[test]
    fn growable_histogram_expands() {
        let keys: Vec<i64> = vec![1, 5, 9, 9, 9, 2];
        let m = compile(
            "void rank(int* bins, int* keys, int n) { for (int i = 0; i < n; i++) bins[keys[i]]++; }",
        )
        .unwrap();
        let rs = detect_reductions(&m);
        let (pm, mut plan) = parallelize(&m, "rank", &rs).unwrap();
        plan.hists[0].growable = true;
        let mut mem = Memory::new(&pm);
        // Original histogram is big enough; private copies start at 1 and
        // grow dynamically (the paper's reallocation scheme).
        let bins = mem.alloc_int(&[0; 10]);
        let k = mem.alloc_int(&keys);
        let mut machine = Machine::new(&pm, mem);
        machine.set_handler(handler(&pm, plan, 3));
        machine
            .call("rank", &[RtVal::ptr(bins), RtVal::ptr(k), RtVal::I(keys.len() as i64)])
            .unwrap();
        assert_eq!(machine.mem.ints(bins), &[0, 1, 1, 0, 0, 1, 0, 0, 0, 3]);
    }

    #[test]
    fn mixed_ep_loop_runs_in_parallel() {
        let n = 4096usize;
        // Pseudo-random input in [0, 1).
        let xs: Vec<f64> =
            (0..2 * n).map(|i| ((i * 1103515245 + 12345) % 1000) as f64 / 1000.0).collect();
        let src = "void ep(float* x, float* q, float* sums, int nk) {
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
             }";
        // Sequential reference.
        let m = compile(src).unwrap();
        let mut mem = Memory::new(&m);
        let x = mem.alloc_float(&xs);
        let q = mem.alloc_float(&[0.0; 16]);
        let sums = mem.alloc_float(&[0.0; 2]);
        let mut seq = Machine::new(&m, mem);
        seq.call("ep", &[RtVal::ptr(x), RtVal::ptr(q), RtVal::ptr(sums), RtVal::I(n as i64)])
            .unwrap();
        let q_ref = seq.mem.floats(q).to_vec();
        let sums_ref = seq.mem.floats(sums).to_vec();
        // Parallel.
        let rs = detect_reductions(&m);
        let (pm, plan) = parallelize(&m, "ep", &rs).unwrap();
        let mut mem = Memory::new(&pm);
        let x = mem.alloc_float(&xs);
        let q = mem.alloc_float(&[0.0; 16]);
        let sums = mem.alloc_float(&[0.0; 2]);
        let mut par = Machine::new(&pm, mem);
        par.set_handler(handler(&pm, plan, 8));
        par.call("ep", &[RtVal::ptr(x), RtVal::ptr(q), RtVal::ptr(sums), RtVal::I(n as i64)])
            .unwrap();
        assert_eq!(par.mem.floats(q), q_ref.as_slice());
        for (a, b) in par.mem.floats(sums).iter().zip(&sums_ref) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn disjoint_written_array_is_correct() {
        let n = 5000usize;
        let keys: Vec<i64> = (0..n as i64).map(|i| (i * 31 + 7) % 64).collect();
        let src = "void f(int* member, int* keys, int* counts, int n) {
                 for (int i = 0; i < n; i++) {
                     int c = keys[i];
                     counts[c] = counts[c] + 1;
                     member[i] = c * 2;
                 }
             }";
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        let (pm, plan) = parallelize(&m, "f", &rs).unwrap();
        assert_eq!(plan.written.len(), 1);
        let mut mem = Memory::new(&pm);
        let member = mem.alloc_int(&vec![0; n]);
        let k = mem.alloc_int(&keys);
        let counts = mem.alloc_int(&vec![0; 64]);
        let mut machine = Machine::new(&pm, mem);
        machine.set_handler(handler(&pm, plan, 8));
        machine
            .call("f", &[RtVal::ptr(member), RtVal::ptr(k), RtVal::ptr(counts), RtVal::I(n as i64)])
            .unwrap();
        for (i, &kv) in keys.iter().enumerate() {
            assert_eq!(machine.mem.ints(member)[i], kv * 2);
        }
        let mut expect = vec![0i64; 64];
        for &kv in &keys {
            expect[kv as usize] += 1;
        }
        assert_eq!(machine.mem.ints(counts), expect.as_slice());
    }

    #[test]
    fn parallel_prefix_sum_matches_sequential_int_exact() {
        let src = "void psum(int* a, int* out, int n) {
                 int s = 0;
                 for (int i = 0; i < n; i++) { s += a[i]; out[i] = s; }
             }";
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert_eq!(rs.len(), 1);
        assert!(rs[0].kind.is_scan());
        let (pm, plan) = parallelize(&m, "psum", &rs).unwrap();
        assert_eq!(plan.scans.len(), 1);
        let data: Vec<i64> = (0..10_000).map(|i| (i * 37 % 101) - 50).collect();
        let mut expect = Vec::with_capacity(data.len());
        let mut s = 0i64;
        for &v in &data {
            s += v;
            expect.push(s);
        }
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_int(&data);
            let out = mem.alloc_int(&vec![0; data.len()]);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            machine
                .call("psum", &[RtVal::ptr(a), RtVal::ptr(out), RtVal::I(data.len() as i64)])
                .unwrap();
            assert_eq!(machine.mem.ints(out), expect.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn parallel_exclusive_scan_matches_sequential() {
        let src = "void epsum(int* a, int* out, int n) {
                 int s = 5;
                 for (int i = 0; i < n; i++) { out[i] = s; s += a[i]; }
             }";
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert_eq!(rs.len(), 1, "{rs:?}");
        let (pm, plan) = parallelize(&m, "epsum", &rs).unwrap();
        let data: Vec<i64> = (0..5000).map(|i| i % 13).collect();
        let mut expect = Vec::with_capacity(data.len());
        let mut s = 5i64;
        for &v in &data {
            expect.push(s);
            s += v;
        }
        let mut mem = Memory::new(&pm);
        let a = mem.alloc_int(&data);
        let out = mem.alloc_int(&vec![0; data.len()]);
        let mut machine = Machine::new(&pm, mem);
        machine.set_handler(handler(&pm, plan, 4));
        machine
            .call("epsum", &[RtVal::ptr(a), RtVal::ptr(out), RtVal::I(data.len() as i64)])
            .unwrap();
        assert_eq!(machine.mem.ints(out), expect.as_slice());
    }

    #[test]
    fn parallel_float_scan_within_tolerance_and_final_value_exposed() {
        // The accumulator's final value is used after the loop: the
        // rewiring must expose the replay pass's total.
        let src = "float psum(float* a, float* out, int n) {
                 float s = 0.0;
                 for (int i = 0; i < n; i++) { s += a[i]; out[i] = s; }
                 return s;
             }";
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        let (pm, plan) = parallelize(&m, "psum", &rs).unwrap();
        let data: Vec<f64> = (0..8192).map(|i| ((i * 31) % 97) as f64 * 0.125).collect();
        let mut expect = Vec::with_capacity(data.len());
        let mut s = 0.0f64;
        for &v in &data {
            s += v;
            expect.push(s);
        }
        let mut mem = Memory::new(&pm);
        let a = mem.alloc_float(&data);
        let out = mem.alloc_float(&vec![0.0; data.len()]);
        let mut machine = Machine::new(&pm, mem);
        machine.set_handler(handler(&pm, plan, 8));
        let r = machine
            .call("psum", &[RtVal::ptr(a), RtVal::ptr(out), RtVal::I(data.len() as i64)])
            .unwrap();
        let got = machine.mem.floats(out);
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            assert!((g - e).abs() < 1e-6 * e.abs().max(1.0), "out[{i}]: {g} vs {e}");
        }
        let total = r.unwrap().as_f();
        assert!((total - s).abs() < 1e-6 * s.abs().max(1.0), "{total} vs {s}");
    }

    #[test]
    fn parallel_running_min_scan() {
        let src = "void runmin(float* a, float* out, int n) {
                 float m = 1.0e30;
                 for (int i = 0; i < n; i++) { m = fmin(m, a[i]); out[i] = m; }
             }";
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert!(rs[0].kind.is_scan());
        let (pm, plan) = parallelize(&m, "runmin", &rs).unwrap();
        let data: Vec<f64> = (0..4000).map(|i| ((i * 7919) % 4001) as f64 - 2000.0).collect();
        let mut expect = Vec::with_capacity(data.len());
        let mut best = f64::INFINITY.min(1.0e30);
        for &v in &data {
            best = best.min(v);
            expect.push(best);
        }
        let mut mem = Memory::new(&pm);
        let a = mem.alloc_float(&data);
        let out = mem.alloc_float(&vec![0.0; data.len()]);
        let mut machine = Machine::new(&pm, mem);
        machine.set_handler(handler(&pm, plan, 6));
        machine
            .call("runmin", &[RtVal::ptr(a), RtVal::ptr(out), RtVal::I(data.len() as i64)])
            .unwrap();
        // min is exact: no reassociation error allowed.
        assert_eq!(machine.mem.floats(out), expect.as_slice());
    }

    fn run_arg(src: &str, fname: &str, data: &[f64], threads: usize) -> i64 {
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert!(rs.iter().any(|r| r.kind.is_arg()), "{rs:?}");
        let (pm, plan) = parallelize(&m, fname, &rs).unwrap();
        assert_eq!(plan.args.len(), 1);
        let mut mem = Memory::new(&pm);
        let a = mem.alloc_float(data);
        let mut machine = Machine::new(&pm, mem);
        machine.set_handler(handler(&pm, plan, threads));
        machine
            .call(fname, &[RtVal::ptr(a), RtVal::I(data.len() as i64)])
            .unwrap()
            .unwrap()
            .as_i()
    }

    const ARGMIN_STRICT: &str = "int amin(float* a, int n) {
             float best = 1.0e30;
             int bi = 0;
             for (int i = 0; i < n; i++) {
                 float v = a[i];
                 if (v < best) { best = v; bi = i; }
             }
             return bi;
         }";

    const ARGMAX_NONSTRICT: &str = "int amax(float* a, int n) {
             float best = -1.0e30;
             int bi = 0;
             for (int i = 0; i < n; i++) {
                 float v = a[i];
                 if (v >= best) { best = v; bi = i; }
             }
             return bi;
         }";

    #[test]
    fn parallel_argmin_matches_sequential() {
        let data: Vec<f64> = (0..9000).map(|i| ((i * 7919) % 10007) as f64).collect();
        let expect = data
            .iter()
            .enumerate()
            .min_by(|(_, x), (_, y)| x.partial_cmp(y).unwrap())
            .unwrap()
            .0 as i64;
        for threads in crate::test_thread_counts() {
            assert_eq!(run_arg(ARGMIN_STRICT, "amin", &data, threads), expect, "threads={threads}");
        }
    }

    #[test]
    fn strict_argmin_tie_break_keeps_first() {
        // The minimum appears several times, straddling block boundaries:
        // strict `<` keeps the first occurrence.
        let mut data = vec![5.0; 6000];
        for &i in &[123usize, 1500, 3000, 4500, 5999] {
            data[i] = -7.0;
        }
        for threads in crate::test_thread_counts() {
            assert_eq!(run_arg(ARGMIN_STRICT, "amin", &data, threads), 123, "threads={threads}");
        }
    }

    #[test]
    fn non_strict_argmax_tie_break_keeps_last() {
        let mut data = vec![1.0; 6000];
        for &i in &[77usize, 2000, 4000, 5500] {
            data[i] = 9.0;
        }
        for threads in crate::test_thread_counts() {
            assert_eq!(
                run_arg(ARGMAX_NONSTRICT, "amax", &data, threads),
                5500,
                "threads={threads}"
            );
        }
    }

    const ARGMIN_SELECT: &str = "int amin(float* a, int n) {
             float best = 1.0e30;
             int bi = 0;
             for (int i = 0; i < n; i++) {
                 float v = a[i];
                 bi = v < best ? i : bi;
                 best = v < best ? v : best;
             }
             return bi;
         }";

    #[test]
    fn parallel_select_argmin_matches_sequential() {
        // The select-shaped pair exploits identically to the diamond,
        // including the strict tie-break across block boundaries.
        let mut data: Vec<f64> = (0..7000).map(|i| ((i * 7919) % 10007) as f64).collect();
        for &i in &[411usize, 3500, 6999] {
            data[i] = -3.0;
        }
        for threads in crate::test_thread_counts() {
            assert_eq!(run_arg(ARGMIN_SELECT, "amin", &data, threads), 411, "threads={threads}");
        }
    }

    #[test]
    fn argmin_with_no_winner_keeps_initial_pair() {
        // Every element exceeds the initial best: the initial (value,
        // index) pair must survive the merge untouched.
        let data = vec![1.0e31; 100];
        let src = "int amin(float* a, int n) {
                 float best = 0.5;
                 int bi = -42;
                 for (int i = 0; i < n; i++) {
                     float v = a[i];
                     if (v < best) { best = v; bi = i; }
                 }
                 return bi;
             }";
        for threads in [1usize, 3, 8] {
            assert_eq!(run_arg(src, "amin", &data, threads), -42, "threads={threads}");
        }
    }

    #[test]
    fn scan_and_scalar_in_same_loop() {
        // A scan plus an independent scalar accumulation: the replay pass
        // is the authoritative pass for the scalar partials.
        let src = "float both(float* a, float* out, int n) {
                 float s = 0.0;
                 float t = 0.0;
                 for (int i = 0; i < n; i++) {
                     s += a[i];
                     out[i] = s;
                     t += a[i] * a[i];
                 }
                 return t;
             }";
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert_eq!(rs.len(), 2, "{rs:?}");
        let (pm, plan) = parallelize(&m, "both", &rs).unwrap();
        assert_eq!(plan.scans.len(), 1);
        assert_eq!(plan.accs.len(), 1);
        let data: Vec<f64> = (0..5000).map(|i| (i % 17) as f64).collect();
        let expect_t: f64 = data.iter().map(|v| v * v).sum();
        let mut expect_out = Vec::new();
        let mut s = 0.0;
        for &v in &data {
            s += v;
            expect_out.push(s);
        }
        let mut mem = Memory::new(&pm);
        let a = mem.alloc_float(&data);
        let out = mem.alloc_float(&vec![0.0; data.len()]);
        let mut machine = Machine::new(&pm, mem);
        machine.set_handler(handler(&pm, plan, 8));
        let r = machine
            .call("both", &[RtVal::ptr(a), RtVal::ptr(out), RtVal::I(data.len() as i64)])
            .unwrap();
        let t = r.unwrap().as_f();
        assert!((t - expect_t).abs() < 1e-6 * expect_t.max(1.0), "{t} vs {expect_t}");
        for (i, (g, e)) in machine.mem.floats(out).iter().zip(&expect_out).enumerate() {
            assert!((g - e).abs() < 1e-6 * e.abs().max(1.0), "out[{i}]: {g} vs {e}");
        }
    }

    const FIND_FIRST: &str = "int find(int* a, int x, int n) {
             int r = n;
             for (int i = 0; i < n; i++) {
                 if (a[i] == x) { r = i; break; }
             }
             return r;
         }";

    fn run_search_int(src: &str, fname: &str, data: &[i64], x: i64, threads: usize) -> i64 {
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert!(rs.iter().any(|r| r.kind.is_search()), "{rs:?}");
        let (pm, plan) = parallelize(&m, fname, &rs).unwrap();
        assert!(plan.search.is_some());
        let mut mem = Memory::new(&pm);
        let a = mem.alloc_int(data);
        let mut machine = Machine::new(&pm, mem);
        machine.set_handler(handler(&pm, plan, threads));
        machine
            .call(fname, &[RtVal::ptr(a), RtVal::I(x), RtVal::I(data.len() as i64)])
            .unwrap()
            .unwrap()
            .as_i()
    }

    #[test]
    fn parallel_find_first_matches_sequential() {
        let n = 9000usize;
        let data: Vec<i64> = (0..n as i64).map(|i| (i * 7919) % 10007).collect();
        let x = data[2 * n / 3];
        let expect = data.iter().position(|&v| v == x).unwrap() as i64;
        for threads in crate::test_thread_counts() {
            assert_eq!(
                run_search_int(FIND_FIRST, "find", &data, x, threads),
                expect,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_find_first_takes_lowest_indexed_hit() {
        // The needle occurs many times, straddling chunk boundaries: the
        // merge must commit the lowest-indexed hit even when later chunks
        // finish (and offer) first.
        let mut data = vec![0i64; 8000];
        for &i in &[137usize, 1500, 3000, 4500, 6000, 7999] {
            data[i] = 42;
        }
        for threads in crate::test_thread_counts() {
            assert_eq!(
                run_search_int(FIND_FIRST, "find", &data, 42, threads),
                137,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_find_first_not_found_keeps_default() {
        let data = vec![1i64; 5000];
        for threads in [1usize, 3, 8] {
            assert_eq!(
                run_search_int(FIND_FIRST, "find", &data, 7, threads),
                5000,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_any_of_and_flag_pair() {
        // Two exit phis (index + flag) exploited together.
        let src = "int find(int* a, int x, int* flag, int n) {
                 int r = n;
                 int found = 0;
                 for (int i = 0; i < n; i++) {
                     if (a[i] == x) { r = i; found = 1; break; }
                 }
                 flag[0] = found;
                 return r;
             }";
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert_eq!(rs.len(), 2, "{rs:?}");
        let (pm, plan) = parallelize(&m, "find", &rs).unwrap();
        assert_eq!(plan.search.as_ref().unwrap().exits.len(), 2);
        let mut data = vec![0i64; 6000];
        data[4321] = 9;
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_int(&data);
            let flag = mem.alloc_int(&[-1]);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            let r = machine
                .call("find", &[RtVal::ptr(a), RtVal::I(9), RtVal::ptr(flag), RtVal::I(6000)])
                .unwrap()
                .unwrap()
                .as_i();
            assert_eq!(r, 4321, "threads={threads}");
            assert_eq!(machine.mem.ints(flag), &[1], "threads={threads}");
        }
    }

    #[test]
    fn parallel_all_of_short_circuit() {
        let src = "int all_below(float* a, float limit, int n) {
                 int ok = 1;
                 for (int i = 0; i < n; i++) {
                     if (a[i] >= limit) { ok = 0; break; }
                 }
                 return ok;
             }";
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert_eq!(rs.len(), 1, "{rs:?}");
        let (pm, plan) = parallelize(&m, "all_below", &rs).unwrap();
        for (data, expect) in [
            (vec![1.0f64; 4000], 1i64), // all below
            (
                {
                    let mut d = vec![1.0f64; 4000];
                    d[3999] = 7.0;
                    d
                },
                0,
            ), // violation at the end
        ] {
            for threads in crate::test_thread_counts() {
                let mut mem = Memory::new(&pm);
                let a = mem.alloc_float(&data);
                let mut machine = Machine::new(&pm, mem);
                machine.set_handler(handler(&pm, plan.clone(), threads));
                let r = machine
                    .call("all_below", &[RtVal::ptr(a), RtVal::F(5.0), RtVal::I(4000)])
                    .unwrap()
                    .unwrap()
                    .as_i();
                assert_eq!(r, expect, "threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_find_min_index_sentinel_search() {
        let src = "int below(float* a, float bound, int n) {
                 int r = -1;
                 for (int i = 0; i < n; i++) {
                     if (a[i] < bound) { r = i; break; }
                 }
                 return r;
             }";
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(rs[0].kind, gr_core::ReductionKind::FindMinIndex);
        let (pm, plan) = parallelize(&m, "below", &rs).unwrap();
        let mut data: Vec<f64> = (0..7000).map(|i| 10.0 + (i % 17) as f64).collect();
        data[5555] = -3.0;
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_float(&data);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            let r = machine
                .call("below", &[RtVal::ptr(a), RtVal::F(0.0), RtVal::I(7000)])
                .unwrap()
                .unwrap()
                .as_i();
            assert_eq!(r, 5555, "threads={threads}");
        }
    }

    #[test]
    fn parallel_search_downward_loop() {
        // Downward iteration: "first" means first in iteration order, not
        // lowest array index.
        let src = "int findr(int* a, int x, int n) {
                 int r = -1;
                 for (int i = n - 1; i >= 0; i = i + -1) {
                     if (a[i] == x) { r = i; break; }
                 }
                 return r;
             }";
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert!(rs.iter().any(|r| r.kind.is_search()), "{rs:?}");
        let (pm, plan) = parallelize(&m, "findr", &rs).unwrap();
        let mut data = vec![0i64; 5000];
        data[100] = 6;
        data[4000] = 6; // iteration order visits 4999..0: 4000 comes first
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_int(&data);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            let r = machine
                .call("findr", &[RtVal::ptr(a), RtVal::I(6), RtVal::I(5000)])
                .unwrap()
                .unwrap()
                .as_i();
            assert_eq!(r, 4000, "threads={threads}");
        }
    }

    #[test]
    fn single_thread_execution_works() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let (_, _, _, r) = run_parallel(
            "float sum(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }",
            "sum",
            1,
            |mem| vec![RtVal::ptr(mem.alloc_float(&data)), RtVal::I(100)],
        );
        assert_eq!(r.unwrap().as_f(), 4950.0);
    }

    #[test]
    fn empty_iteration_space_is_fine() {
        let (_, _, _, r) = run_parallel(
            "float sum(float* a, int n) { float s = 1.5; for (int i = 0; i < n; i++) s += a[i]; return s; }",
            "sum",
            4,
            |mem| vec![RtVal::ptr(mem.alloc_float(&[])), RtVal::I(0)],
        );
        assert_eq!(r.unwrap().as_f(), 1.5);
    }

    // ---- the speculative-fold schedule --------------------------------

    const SUM_UNTIL_INT: &str = "int sum_until(int* a, int stop, int n) {
             int s = 0;
             for (int i = 0; i < n; i++) {
                 if (a[i] == stop) break;
                 s = s + a[i];
             }
             return s;
         }";

    fn fold_plan(src: &str, fname: &str) -> (Module, ReductionPlan) {
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert!(rs.iter().any(|r| r.kind.is_fold_until()), "{rs:?}");
        let (pm, plan) = parallelize(&m, fname, &rs).unwrap();
        assert!(!plan.search.as_ref().unwrap().folds.is_empty());
        (pm, plan)
    }

    fn run_fold_int(
        pm: &Module,
        plan: &ReductionPlan,
        data: &[i64],
        stop: i64,
        threads: usize,
    ) -> i64 {
        let mut mem = Memory::new(pm);
        let a = mem.alloc_int(data);
        let mut machine = Machine::new(pm, mem);
        machine.set_handler(handler(pm, plan.clone(), threads));
        machine
            .call(&plan.function, &[RtVal::ptr(a), RtVal::I(stop), RtVal::I(data.len() as i64)])
            .unwrap()
            .unwrap()
            .as_i()
    }

    #[test]
    fn parallel_sum_until_sentinel_matches_sequential() {
        let (pm, plan) = fold_plan(SUM_UNTIL_INT, "sum_until");
        let mut data: Vec<i64> = (0..40_000).map(|i| (i * 31 + 7) % 97 + 1).collect();
        data[29_000] = -5; // the sentinel, deep in the speculative tail
        let expect: i64 = data[..29_000].iter().sum();
        for threads in crate::test_thread_counts() {
            assert_eq!(run_fold_int(&pm, &plan, &data, -5, threads), expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_sum_until_first_sentinel_wins() {
        // Several sentinels straddling chunk boundaries: the merge must
        // replay partials only up to the lowest-indexed hit, even when a
        // later chunk finds (and offers) its hit first.
        let (pm, plan) = fold_plan(SUM_UNTIL_INT, "sum_until");
        let mut data: Vec<i64> = vec![3; 32_000];
        for &i in &[1_111usize, 8_000, 16_000, 24_000, 31_999] {
            data[i] = -1;
        }
        let expect: i64 = 3 * 1_111;
        for threads in crate::test_thread_counts() {
            assert_eq!(run_fold_int(&pm, &plan, &data, -1, threads), expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_sum_until_no_hit_folds_everything() {
        let (pm, plan) = fold_plan(SUM_UNTIL_INT, "sum_until");
        let data: Vec<i64> = (0..20_000).map(|i| i % 13).collect();
        let expect: i64 = data.iter().sum();
        for threads in crate::test_thread_counts() {
            assert_eq!(run_fold_int(&pm, &plan, &data, -7, threads), expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_fold_until_empty_space_keeps_init() {
        let (pm, plan) = fold_plan(
            "int f(int* a, int stop, int n) {
                 int s = 42;
                 for (int i = 0; i < n; i++) {
                     if (a[i] == stop) break;
                     s = s + a[i];
                 }
                 return s;
             }",
            "f",
        );
        for threads in [1usize, 4] {
            assert_eq!(run_fold_int(&pm, &plan, &[], 0, threads), 42, "threads={threads}");
        }
    }

    #[test]
    fn parallel_post_update_fold_includes_hit_element() {
        // `s += a[i]; if (a[i] == stop) break;` — the sentinel element is
        // folded in before the break.
        let (pm, plan) = fold_plan(
            "int through(int* a, int stop, int n) {
                 int s = 0;
                 for (int i = 0; i < n; i++) {
                     s = s + a[i];
                     if (a[i] == stop) break;
                 }
                 return s;
             }",
            "through",
        );
        let mut data: Vec<i64> = vec![2; 24_000];
        data[17_002] = 1000;
        let expect: i64 = 2 * 17_002 + 1000;
        for threads in crate::test_thread_counts() {
            assert_eq!(run_fold_int(&pm, &plan, &data, 1000, threads), expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_float_sum_until_within_tolerance() {
        let (pm, plan) = fold_plan(
            "float fsum_until(float* a, float stop, int n) {
                 float s = 0.0;
                 for (int i = 0; i < n; i++) {
                     if (a[i] == stop) break;
                     s += a[i];
                 }
                 return s;
             }",
            "fsum_until",
        );
        let mut data: Vec<f64> =
            (0..30_000).map(|i| ((i * 131) % 997) as f64 * 0.125 + 0.25).collect();
        data[23_456] = -1.0;
        let expect: f64 = data[..23_456].iter().sum();
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_float(&data);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            let got = machine
                .call("fsum_until", &[RtVal::ptr(a), RtVal::F(-1.0), RtVal::I(data.len() as i64)])
                .unwrap()
                .unwrap()
                .as_f();
            assert!(
                (got - expect).abs() < 1e-6 * expect.abs().max(1.0),
                "threads={threads}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn parallel_fold_until_downward_loop() {
        // Scanning from the high end: the fold covers the suffix above
        // the first sentinel met in (downward) iteration order.
        let (pm, plan) = fold_plan(
            "int dsum(int* a, int stop, int n) {
                 int s = 0;
                 for (int i = n - 1; i >= 0; i = i + -1) {
                     if (a[i] == stop) break;
                     s = s + a[i];
                 }
                 return s;
             }",
            "dsum",
        );
        let mut data: Vec<i64> = vec![5; 16_000];
        data[300] = -1;
        data[9_000] = -1; // met first when iterating downward from 15999
        let expect: i64 = 5 * (15_999 - 9_000);
        for threads in crate::test_thread_counts() {
            assert_eq!(run_fold_int(&pm, &plan, &data, -1, threads), expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_min_until_is_bit_exact() {
        let (pm, plan) = fold_plan(
            "float min_until(float* a, float bound, int n) {
                 float m = 1.0e30;
                 for (int i = 0; i < n; i++) {
                     if (a[i] > bound) break;
                     m = fmin(m, a[i]);
                 }
                 return m;
             }",
            "min_until",
        );
        let mut data: Vec<f64> = (0..20_000).map(|i| ((i * 7919) % 4001) as f64 - 2000.0).collect();
        data[15_000] = 1.0e9; // exceeds the bound: the loop stops here
        let expect = data[..15_000].iter().cloned().fold(f64::INFINITY, f64::min).min(1.0e30);
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_float(&data);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            let got = machine
                .call("min_until", &[RtVal::ptr(a), RtVal::F(1.0e6), RtVal::I(data.len() as i64)])
                .unwrap()
                .unwrap()
                .as_f();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_fold_and_find_first_share_one_loop() {
        // The combined template: hit index (search exit phi) and carried
        // sum (fold cell) committed consistently from one schedule.
        let src = "int f(int* a, int* out, int x, int n) {
                 int r = n;
                 int s = 0;
                 for (int i = 0; i < n; i++) {
                     s = s + a[i];
                     if (a[i] == x) { r = i; break; }
                 }
                 out[0] = s;
                 return r;
             }";
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert_eq!(rs.len(), 2, "{rs:?}");
        let (pm, plan) = parallelize(&m, "f", &rs).unwrap();
        let search = plan.search.as_ref().unwrap();
        assert_eq!(search.exits.len(), 1);
        assert_eq!(search.folds.len(), 1);
        let mut data: Vec<i64> = (0..18_000).map(|i| (i % 100) + 1).collect();
        data[12_345] = -9;
        let expect_r = 12_345i64;
        let expect_s: i64 = data[..=12_345].iter().sum();
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_int(&data);
            let out = mem.alloc_int(&[0]);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            let r = machine
                .call(
                    "f",
                    &[RtVal::ptr(a), RtVal::ptr(out), RtVal::I(-9), RtVal::I(data.len() as i64)],
                )
                .unwrap()
                .unwrap()
                .as_i();
            assert_eq!(r, expect_r, "threads={threads}");
            assert_eq!(machine.mem.ints(out), &[expect_s], "threads={threads}");
        }
    }

    #[test]
    fn parallel_two_folds_in_one_loop() {
        let (pm, plan) = fold_plan(
            "void two(float* a, float* out, float stop, int n) {
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
            "two",
        );
        assert_eq!(plan.search.as_ref().unwrap().folds.len(), 2);
        let n = 8_000usize;
        let mut data: Vec<f64> = (0..2 * n).map(|i| ((i * 37) % 19) as f64 + 1.0).collect();
        data[2 * 6_500] = -3.0;
        let expect_x: f64 = (0..6_500).map(|i| data[2 * i]).sum();
        let expect_y: f64 = (0..6_500).map(|i| data[2 * i + 1]).sum();
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_float(&data);
            let out = mem.alloc_float(&[0.0, 0.0]);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            machine
                .call("two", &[RtVal::ptr(a), RtVal::ptr(out), RtVal::F(-3.0), RtVal::I(n as i64)])
                .unwrap();
            let got = machine.mem.floats(out);
            assert!((got[0] - expect_x).abs() < 1e-6 * expect_x.max(1.0), "threads={threads}");
            assert!((got[1] - expect_y).abs() < 1e-6 * expect_y.max(1.0), "threads={threads}");
        }
    }

    // ---- map-reduce fusion --------------------------------------------

    const FUSED_SQ: &str = "float sq(float* a, int n) {
             float tmp[8192];
             for (int i = 0; i < n; i++) tmp[i] = a[i] * a[i];
             float s = 0.0;
             for (int j = 0; j < n; j++) s += tmp[j];
             return s;
         }";

    #[test]
    fn parallel_fused_map_reduce_matches_sequential_float() {
        let m = compile(FUSED_SQ).unwrap();
        let rs = detect_reductions(&m);
        assert!(rs.iter().any(|r| r.kind.is_fusion()), "{rs:?}");
        let (pm, plan) = parallelize(&m, "sq", &rs).unwrap();
        let n = 8_000usize;
        let data: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64 * 0.125 - 3.0).collect();
        // Sequential reference from the *unmodified* module.
        let mut mem = Memory::new(&m);
        let a = mem.alloc_float(&data);
        let mut seq = Machine::new(&m, mem);
        let expect = seq.call("sq", &[RtVal::ptr(a), RtVal::I(n as i64)]).unwrap().unwrap().as_f();
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_float(&data);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            let got = machine
                .call("sq", &[RtVal::ptr(a), RtVal::I(n as i64)])
                .unwrap()
                .unwrap()
                .as_f();
            assert!(
                (got - expect).abs() < 1e-6 * expect.abs().max(1.0),
                "threads={threads}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn parallel_fused_map_reduce_int_bit_exact() {
        let src = "int f(int* a, int n) {
                 int tmp[8192];
                 for (int i = 0; i < n; i++) tmp[i] = a[i] * 3 + 1;
                 int s = 0;
                 for (int j = 0; j < n; j++) s += tmp[j];
                 return s;
             }";
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert!(rs.iter().any(|r| r.kind.is_fusion()), "{rs:?}");
        let (pm, plan) = parallelize(&m, "f", &rs).unwrap();
        let n = 6_000usize;
        let data: Vec<i64> = (0..n as i64).map(|i| (i * 31 + 5) % 97 - 48).collect();
        let expect: i64 = data.iter().map(|v| v * 3 + 1).sum();
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_int(&data);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            let got =
                machine.call("f", &[RtVal::ptr(a), RtVal::I(n as i64)]).unwrap().unwrap().as_i();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_fused_min_reduce_is_bit_exact() {
        // A non-Add merge through the fused template.
        let src = "float f(float* a, float x, int n) {
                 float tmp[4096];
                 for (int i = 0; i < n; i++) tmp[i] = fabs(a[i] - x);
                 float best = 1.0e30;
                 for (int j = 0; j < n; j++) best = fmin(best, tmp[j]);
                 return best;
             }";
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert!(rs.iter().any(|r| r.kind.is_fusion()), "{rs:?}");
        let (pm, plan) = parallelize(&m, "f", &rs).unwrap();
        assert_eq!(plan.accs[0].op, ReductionOp::Min);
        let n = 4_000usize;
        let data: Vec<f64> = (0..n).map(|i| ((i * 7919) % 4001) as f64 - 2000.0).collect();
        let expect =
            data.iter().map(|v| (v - 1.25).abs()).fold(f64::INFINITY, f64::min).min(1.0e30);
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_float(&data);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            let got = machine
                .call("f", &[RtVal::ptr(a), RtVal::F(1.25), RtVal::I(n as i64)])
                .unwrap()
                .unwrap()
                .as_f();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn fused_empty_iteration_space_keeps_init() {
        let m = compile(FUSED_SQ).unwrap();
        let rs = detect_reductions(&m);
        let (pm, plan) = parallelize(&m, "sq", &rs).unwrap();
        let mut mem = Memory::new(&pm);
        let a = mem.alloc_float(&[]);
        let mut machine = Machine::new(&pm, mem);
        machine.set_handler(handler(&pm, plan, 4));
        let got = machine.call("sq", &[RtVal::ptr(a), RtVal::I(0)]).unwrap().unwrap().as_f();
        assert_eq!(got, 0.0);
    }

    // ---- bounds-aware speculation -------------------------------------

    #[test]
    fn speculative_trap_past_hit_is_discarded() {
        // The array ends right after the sentinel; the loop bound claims
        // far more. Sequential execution breaks at the sentinel and never
        // reads past it — speculative chunks do, trap, and must be
        // discarded (they all lie past the winning hit), not propagated.
        let (pm, plan) = fold_plan(SUM_UNTIL_INT, "sum_until");
        let h = 1_000usize;
        let mut data: Vec<i64> = (0..=h as i64).map(|i| i % 7 + 1).collect();
        data[h] = -2; // sentinel at the last valid index
        let expect: i64 = data[..h].iter().sum();
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_int(&data);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            let got = machine
                .call("sum_until", &[RtVal::ptr(a), RtVal::I(-2), RtVal::I(8_000)])
                .unwrap()
                .unwrap()
                .as_i();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn search_trap_past_hit_is_discarded() {
        // The same guarantee for a pure search: find-first over an array
        // shorter than the declared bound, hit inside the valid range.
        let m = compile(FIND_FIRST).unwrap();
        let rs = detect_reductions(&m);
        let (pm, plan) = parallelize(&m, "find", &rs).unwrap();
        let mut data = vec![0i64; 700];
        data[650] = 9;
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_int(&data);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            let r = machine
                .call("find", &[RtVal::ptr(a), RtVal::I(9), RtVal::I(50_000)])
                .unwrap()
                .unwrap()
                .as_i();
            assert_eq!(r, 650, "threads={threads}");
        }
    }

    #[test]
    fn trap_with_no_hit_reproduces_sequential_trap() {
        // No sentinel inside the valid range: sequential execution runs
        // off the end and traps — the fallback must reproduce *that* trap
        // (same index, same bounds) rather than return a made-up partial
        // fold. The partial restart changes where re-execution begins, not
        // what it observes.
        let src_module = compile(SUM_UNTIL_INT).unwrap();
        let (pm, plan) = fold_plan(SUM_UNTIL_INT, "sum_until");
        let data = vec![1i64; 500];
        // Sequential reference trap.
        let mut mem = Memory::new(&src_module);
        let a = mem.alloc_int(&data);
        let mut seq = Machine::new(&src_module, mem);
        let seq_err = seq
            .call("sum_until", &[RtVal::ptr(a), RtVal::I(-1), RtVal::I(2_000)])
            .expect_err("sequential execution must trap");
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_int(&data);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            let err = machine
                .call("sum_until", &[RtVal::ptr(a), RtVal::I(-1), RtVal::I(2_000)])
                .expect_err("the out-of-bounds read is real, not speculative");
            // Same faulting access as the sequential run.
            match (&seq_err, &err) {
                (
                    Trap::Mem(gr_interp::memory::MemError::OutOfBounds {
                        index: i1, len: l1, ..
                    }),
                    Trap::Mem(gr_interp::memory::MemError::OutOfBounds {
                        index: i2, len: l2, ..
                    }),
                ) => {
                    assert_eq!((i1, l1), (i2, l2), "threads={threads}");
                }
                other => panic!("expected matching OOB traps, got {other:?}"),
            }
        }
    }

    // ---- one handler, many calls -----------------------------------------

    /// What one call of [`a_reused_handler_keeps_its_helpers`] feeds its
    /// kernel: ordinary inputs, a run with a worker panic injected, or a
    /// bound past the end of the arrays, so that sequential execution traps.
    #[derive(Clone, Copy, PartialEq)]
    enum CallKind {
        Plain,
        Fault,
        Trap,
    }

    const REUSE_N: usize = 1500;

    /// Allocates one call's inputs; returns the arguments and the arrays
    /// whose contents the call must leave as sequential execution does.
    type Inputs = fn(&mut Memory, usize, CallKind) -> (Vec<RtVal>, Vec<ObjId>);

    fn reuse_ints(call: usize) -> Vec<i64> {
        (0..REUSE_N).map(|i| ((i * 7919 + call * 13) % 997) as i64 + 1).collect()
    }

    fn reuse_bound(kind: CallKind) -> RtVal {
        let extra = if kind == CallKind::Trap { 40 } else { 0 };
        RtVal::I((REUSE_N + extra) as i64)
    }

    const REUSE_KERNELS: [(&str, &str, Inputs); 6] = [
        (
            "int sum(int* a, int n) { int s = 0; for (int i = 0; i < n; i++) s += a[i]; return s; }",
            "sum",
            |mem, call, kind| {
                (vec![RtVal::ptr(mem.alloc_int(&reuse_ints(call))), reuse_bound(kind)], vec![])
            },
        ),
        (
            "void rank(int* bins, int* keys, int n) { for (int i = 0; i < n; i++) bins[keys[i]]++; }",
            "rank",
            |mem, call, kind| {
                let bins = mem.alloc_int(&[0; 64]);
                let keys: Vec<i64> = reuse_ints(call).iter().map(|k| k % 64).collect();
                let keys = mem.alloc_int(&keys);
                (vec![RtVal::ptr(bins), RtVal::ptr(keys), reuse_bound(kind)], vec![bins])
            },
        ),
        (
            "void psum(int* a, int* out, int n) {
                 int s = 0;
                 for (int i = 0; i < n; i++) { s += a[i]; out[i] = s; }
             }",
            "psum",
            |mem, call, kind| {
                let a = mem.alloc_int(&reuse_ints(call));
                let out = mem.alloc_int(&[0; REUSE_N]);
                (vec![RtVal::ptr(a), RtVal::ptr(out), reuse_bound(kind)], vec![out])
            },
        ),
        (ARGMIN_STRICT, "amin", |mem, call, kind| {
            let a: Vec<f64> = reuse_ints(call).iter().map(|&v| v as f64).collect();
            (vec![RtVal::ptr(mem.alloc_float(&a)), reuse_bound(kind)], vec![])
        }),
        (FIND_FIRST, "find", |mem, call, kind| {
            let a = reuse_ints(call);
            // Values are positive: -1 never hits, so every chunk runs.
            let x = if kind == CallKind::Plain { a[(call * 613) % REUSE_N] } else { -1 };
            (vec![RtVal::ptr(mem.alloc_int(&a)), RtVal::I(x), reuse_bound(kind)], vec![])
        }),
        (SUM_UNTIL_INT, "sum_until", |mem, call, kind| {
            let mut a = reuse_ints(call);
            if kind == CallKind::Plain {
                a[(call * 613) % REUSE_N] = -5;
            }
            (vec![RtVal::ptr(mem.alloc_int(&a)), RtVal::I(-5), reuse_bound(kind)], vec![])
        }),
    ];

    #[test]
    fn a_reused_handler_keeps_its_helpers() {
        // One handler serves 64 calls per kernel. The first call spawns
        // its helpers (none at one thread) and no later call spawns more,
        // also after a contained worker panic and a trapping call; every
        // call leaves what the sequential interpreter leaves.
        for (src, fname, inputs) in REUSE_KERNELS {
            let m = compile(src).unwrap();
            let rs = detect_reductions(&m);
            let (pm, plan) = parallelize(&m, fname, &rs).unwrap();
            for threads in crate::test_thread_counts() {
                let mut par = Machine::new(&pm, Memory::new(&pm));
                par.set_handler(handler(&pm, plan.clone(), threads));
                let mut seq = Machine::new(&m, Memory::new(&m));
                let before = crate::pool::spawned_here();
                let mut after_first = None;
                for call in 0..64 {
                    let kind = match call {
                        21 => CallKind::Fault,
                        42 => CallKind::Trap,
                        _ => CallKind::Plain,
                    };
                    let ctx = format!("{fname} threads={threads} call={call}");
                    par.mem = Memory::new(&pm);
                    seq.mem = Memory::new(&m);
                    let (args, outs) = inputs(&mut par.mem, call, kind);
                    assert_eq!(inputs(&mut seq.mem, call, kind), (args.clone(), outs.clone()));
                    let want = seq.call(fname, &args);
                    let fault = (kind == CallKind::Fault)
                        .then(|| crate::fault::InjectGuard::panic_at_chunk(threads as i64 - 1));
                    let got = par.call(fname, &args);
                    assert!(fault.is_none_or(|f| f.fired()), "{ctx}: the injected panic fired");
                    assert_eq!(got, want, "{ctx}");
                    assert_eq!(want.is_err(), kind == CallKind::Trap, "{ctx}");
                    if kind != CallKind::Trap {
                        for &o in &outs {
                            assert_eq!(par.mem.object(o), seq.mem.object(o), "{ctx}");
                        }
                    }
                    let spawned = crate::pool::spawned_here() - before;
                    assert_eq!(*after_first.get_or_insert(spawned), spawned, "{ctx}");
                }
                assert_eq!(after_first, Some(threads - 1), "{fname} threads={threads}");
            }
        }
    }

    #[test]
    fn completed_prefix_stops_at_gap_hit_and_trap() {
        let out = |chunk: usize, hit: i64| ChunkOut { chunk, hit, exits: vec![], folds: vec![] };
        // Clean prefix below the trapped chunk.
        let outs = vec![out(0, SEARCH_NO_HIT), out(1, SEARCH_NO_HIT), out(3, SEARCH_NO_HIT)];
        assert_eq!(completed_prefix(&outs, 2), 2, "stops at the trapped chunk");
        assert_eq!(completed_prefix(&outs, i64::MAX), 2, "stops at the gap");
        // A hit terminates the prefix (the tail re-run must re-find it).
        let outs = vec![out(0, SEARCH_NO_HIT), out(1, 77)];
        assert_eq!(completed_prefix(&outs, i64::MAX), 1);
        // Chunk 0 trapped: nothing is committed.
        let outs = vec![out(1, SEARCH_NO_HIT)];
        assert_eq!(completed_prefix(&outs, 0), 0);
        assert_eq!(completed_prefix(&[], 0), 0);
    }

    #[test]
    fn partial_restart_matches_sequential_result_and_trap_deep_in_range() {
        // The array covers most of the claimed range, so many chunks
        // complete before the trapping one: the fallback commits their
        // partials and restarts from the boundary — and must still end in
        // exactly the sequential trap (the fold result is unobservable
        // after a trap, the trap identity is the contract).
        let src_module = compile(SUM_UNTIL_INT).unwrap();
        let (pm, plan) = fold_plan(SUM_UNTIL_INT, "sum_until");
        let data: Vec<i64> = (0..30_000).map(|i| i % 11 + 1).collect();
        let claimed = 32_000i64; // 2k iterations past the end, no sentinel
        let mut mem = Memory::new(&src_module);
        let a = mem.alloc_int(&data);
        let mut seq = Machine::new(&src_module, mem);
        let seq_err = seq
            .call("sum_until", &[RtVal::ptr(a), RtVal::I(-1), RtVal::I(claimed)])
            .expect_err("sequential trap");
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_int(&data);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            let err = machine
                .call("sum_until", &[RtVal::ptr(a), RtVal::I(-1), RtVal::I(claimed)])
                .expect_err("parallel trap");
            assert_eq!(err.to_string(), seq_err.to_string(), "threads={threads}");
        }
    }
}
