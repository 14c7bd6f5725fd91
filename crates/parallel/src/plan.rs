//! The execution plan produced by outlining and consumed by the runtime.

use gr_core::ReductionOp;
use gr_ir::{CmpPred, Type};

/// A scalar accumulator slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccSlot {
    /// Position of the accumulator cell pointer in the intrinsic argument
    /// list.
    pub arg_index: usize,
    /// Element type of the accumulator.
    pub ty: Type,
    /// Merge operator.
    pub op: ReductionOp,
}

/// A histogram array slot. Each thread bins into a private copy of the
/// original's length, seeded with the merge operator's identity, and the
/// merge folds the copies into the original element-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSlot {
    /// Position of the histogram pointer in the intrinsic argument list.
    pub arg_index: usize,
    /// Element type of the bins.
    pub elem: Type,
    /// Merge operator.
    pub op: ReductionOp,
}

/// A prefix-scan slot: the carried running value plus the output array the
/// loop materializes it into. Executed by the two-pass block-scan template:
/// pass one computes per-block partials from identity seeds, the runtime
/// turns them into block offsets, pass two re-runs each block from its
/// offset and writes the final output (disjoint per block, since the
/// output index is strided in the iterator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanSlot {
    /// Position of the accumulator cell pointer in the intrinsic argument
    /// list (doubles as the chunk's seed input and partial output).
    pub cell_arg_index: usize,
    /// Position of the output array pointer in the intrinsic argument list.
    pub out_arg_index: usize,
    /// Element type of the accumulator.
    pub ty: Type,
    /// Merge operator (any associative operator scans).
    pub op: ReductionOp,
}

/// An argmin/argmax slot: a privatized `(value, index)` pair. Each thread
/// runs its block from the identity value and a sentinel index; the merge
/// replays the normalized exchange predicate over block partials in
/// iteration order, which reproduces the sequential tie-break exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArgSlot {
    /// Position of the value cell pointer in the intrinsic argument list.
    pub val_arg_index: usize,
    /// Position of the index cell pointer in the intrinsic argument list.
    pub idx_arg_index: usize,
    /// Element type of the extremum value.
    pub ty: Type,
    /// `Min` or `Max` (diagnostic; the merge itself replays `pred`).
    pub op: ReductionOp,
    /// Normalized exchange predicate: a block partial replaces the running
    /// best exactly when `partial.value PRED best.value`.
    pub pred: CmpPred,
}

/// The sentinel index meaning "this block never exchanged".
pub const ARG_IDX_SENTINEL: i64 = i64::MIN;

/// The hit-cell value meaning "this chunk completed without breaking".
pub const SEARCH_NO_HIT: i64 = i64::MIN;

/// One exit-phi cell of a search plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExitSlot {
    /// Position of the cell pointer in the intrinsic argument list.
    pub arg_index: usize,
    /// Element type of the exit value.
    pub ty: Type,
}

/// One speculative-fold cell: an accumulator carried across a two-exit
/// loop ("sum-until-sentinel"). Each chunk folds an identity-seeded
/// private partial — breaking at its local first hit, so the partial
/// covers exactly the iterations sequential execution would have run
/// inside that chunk — and the merge replays partials in chunk order only
/// up to the lowest-indexed hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoldSlot {
    /// Position of the cell pointer in the intrinsic argument list. The
    /// rewritten preheader seeds it with the accumulator's initial value;
    /// the chunk stores its partial; the merge folds `init ⊕ partials`.
    pub arg_index: usize,
    /// Element type of the accumulator.
    pub ty: Type,
    /// Merge operator (from the associativity post-check).
    pub op: ReductionOp,
}

/// An early-exit loop on the speculative schedule: searches (the results
/// are exit phis, reproduced per chunk and stored to cells together with
/// a hit marker) and speculative folds (identity-seeded per-chunk
/// partials). Executed by the cancellable speculative runtime: the
/// iteration space is cut into many chunks, workers claim chunks in
/// iteration order while polling an `EarlyExitToken`, the merge takes the
/// exit values of the lowest-indexed chunk that hit (the sequential first
/// hit) and folds the partials of every chunk up to it. Chunks after the
/// hit may execute speculatively and are discarded — detection guarantees
/// the loop body is side-effect free, so speculation cannot be observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSlot {
    /// Position of the hit cell (the iterator value at the break, or
    /// [`SEARCH_NO_HIT`]) in the intrinsic argument list.
    pub hit_arg_index: usize,
    /// The exit-phi cells, in exit-block phi order.
    pub exits: Vec<ExitSlot>,
    /// The speculative-fold cells, in detection order.
    pub folds: Vec<FoldSlot>,
}

/// How the runtime treats a memory object the loop writes that is *not* a
/// reduction target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WrittenPolicy {
    /// Stores hit provably disjoint elements per iteration (index affine in
    /// the iterator with nonzero constant slope): threads share the object
    /// without synchronization.
    DisjointShared,
    /// Unknown pattern: each thread works on a private copy and the copy of
    /// the thread executing the final iterations is written back (the
    /// paper's "manual corrections" analog; detection guarantees no
    /// reduction reads these objects).
    PrivateCopyback,
}

/// One additional written object (by intrinsic argument position).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WrittenSlot {
    /// Position of the object pointer in the intrinsic argument list.
    pub arg_index: usize,
    /// Sharing policy.
    pub policy: WrittenPolicy,
}

/// Everything the runtime needs to execute one parallelized loop.
#[derive(Debug, Clone)]
pub struct ReductionPlan {
    /// Name of the rewritten original function.
    pub function: String,
    /// Name of the generated chunk function.
    pub chunk_fn: String,
    /// Name of the "value-only" chunk variant used by the scan partials
    /// pass: the scan output stores (and their dead address chains) are
    /// stripped, since pass one only needs the per-block running values.
    /// `None` when the plan has no scans.
    pub chunk_value_only_fn: Option<String>,
    /// Name of the intrinsic call placed in the original function.
    pub intrinsic: String,
    /// Loop comparison predicate (iterator on the left).
    pub pred: CmpPred,
    /// Scalar accumulator slots.
    pub accs: Vec<AccSlot>,
    /// Histogram slots.
    pub hists: Vec<HistSlot>,
    /// Prefix-scan slots.
    pub scans: Vec<ScanSlot>,
    /// Argmin/argmax slots.
    pub args: Vec<ArgSlot>,
    /// Early-exit speculative schedule (mutually exclusive with the
    /// deterministic fold slots above: speculative loops write no memory,
    /// and their accumulators live in [`SearchSlot::folds`]).
    pub search: Option<SearchSlot>,
    /// Non-reduction written objects.
    pub written: Vec<WrittenSlot>,
    /// Total number of intrinsic arguments (`lo, hi, step, closure…,
    /// cells…`).
    pub arg_count: usize,
}

impl ReductionPlan {
    /// Number of iterations for bounds `(lo, hi, step)` under `pred`.
    #[must_use]
    pub fn iteration_count(&self, lo: i64, hi: i64, step: i64) -> i64 {
        if step == 0 {
            return 0;
        }
        let span = match self.pred {
            CmpPred::Lt => hi - lo,
            CmpPred::Le => hi - lo + step.signum(),
            CmpPred::Gt => hi - lo,
            CmpPred::Ge => hi - lo + step.signum(),
            CmpPred::Ne => hi - lo,
            CmpPred::Eq => return 0,
        };
        if step > 0 {
            if span <= 0 {
                0
            } else {
                (span + step - 1) / step
            }
        } else if span >= 0 {
            0
        } else {
            (span + step + 1) / step
        }
    }

    /// The iterator value reached after `k` iterations.
    #[must_use]
    pub fn nth_iter_value(&self, lo: i64, step: i64, k: i64) -> i64 {
        lo + k * step
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(pred: CmpPred) -> ReductionPlan {
        ReductionPlan {
            function: "f".into(),
            chunk_fn: "c".into(),
            chunk_value_only_fn: None,
            intrinsic: "__parrun_0".into(),
            pred,
            accs: vec![],
            hists: vec![],
            scans: vec![],
            args: vec![],
            search: None,
            written: vec![],
            arg_count: 3,
        }
    }

    #[test]
    fn upward_counts() {
        let p = plan(CmpPred::Lt);
        assert_eq!(p.iteration_count(0, 10, 1), 10);
        assert_eq!(p.iteration_count(0, 10, 3), 4); // 0,3,6,9
        assert_eq!(p.iteration_count(5, 5, 1), 0);
        assert_eq!(p.iteration_count(10, 0, 1), 0);
        let p = plan(CmpPred::Le);
        assert_eq!(p.iteration_count(0, 10, 1), 11);
        assert_eq!(p.iteration_count(1, 10, 2), 5); // 1,3,5,7,9
    }

    #[test]
    fn downward_counts() {
        let p = plan(CmpPred::Gt);
        assert_eq!(p.iteration_count(10, 0, -1), 10);
        assert_eq!(p.iteration_count(10, 0, -3), 4); // 10,7,4,1
        let p = plan(CmpPred::Ge);
        assert_eq!(p.iteration_count(10, 0, -1), 11);
    }

    #[test]
    fn zero_step_is_empty() {
        let p = plan(CmpPred::Lt);
        assert_eq!(p.iteration_count(0, 10, 0), 0);
    }

    #[test]
    fn nth_value() {
        let p = plan(CmpPred::Lt);
        assert_eq!(p.nth_iter_value(3, 2, 4), 11);
        assert_eq!(p.nth_iter_value(10, -3, 2), 4);
    }
}
