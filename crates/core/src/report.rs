//! Reduction reports: what the detector hands to code generation.

use gr_ir::{BlockId, CmpPred, ValueId};
use std::fmt;

/// The (associative, commutative) update operator of a reduction. This is
/// what the privatizing runtime uses to initialize and merge partial
/// results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReductionOp {
    /// Sum (also covers `x - t`, folded as adding negated terms).
    Add,
    /// Product.
    Mul,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl ReductionOp {
    /// Identity element for floats.
    #[must_use]
    pub fn identity_float(self) -> f64 {
        match self {
            ReductionOp::Add => 0.0,
            ReductionOp::Mul => 1.0,
            ReductionOp::Min => f64::INFINITY,
            ReductionOp::Max => f64::NEG_INFINITY,
        }
    }

    /// Identity element for integers.
    #[must_use]
    pub fn identity_int(self) -> i64 {
        match self {
            ReductionOp::Add => 0,
            ReductionOp::Mul => 1,
            ReductionOp::Min => i64::MAX,
            ReductionOp::Max => i64::MIN,
        }
    }

    /// Merges two float partials.
    #[must_use]
    pub fn merge_float(self, a: f64, b: f64) -> f64 {
        match self {
            ReductionOp::Add => a + b,
            ReductionOp::Mul => a * b,
            ReductionOp::Min => a.min(b),
            ReductionOp::Max => a.max(b),
        }
    }

    /// Merges two integer partials.
    #[must_use]
    pub fn merge_int(self, a: i64, b: i64) -> i64 {
        match self {
            ReductionOp::Add => a.wrapping_add(b),
            ReductionOp::Mul => a.wrapping_mul(b),
            ReductionOp::Min => a.min(b),
            ReductionOp::Max => a.max(b),
        }
    }
}

impl ReductionOp {
    /// Parses the stable [`fmt::Display`] name back into the operator —
    /// the round-trip the persistent `gr-cache/v2` format relies on.
    #[must_use]
    pub fn from_name(name: &str) -> Option<ReductionOp> {
        Some(match name {
            "+" => ReductionOp::Add,
            "*" => ReductionOp::Mul,
            "min" => ReductionOp::Min,
            "max" => ReductionOp::Max,
            _ => return None,
        })
    }
}

impl fmt::Display for ReductionOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReductionOp::Add => "+",
            ReductionOp::Mul => "*",
            ReductionOp::Min => "min",
            ReductionOp::Max => "max",
        })
    }
}

/// Kind of a detected reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReductionKind {
    /// Accumulation into a scalar SSA value.
    Scalar,
    /// Load-modify-store of an array cell at a data-dependent index.
    Histogram,
    /// Prefix sum / scan: a scalar accumulation whose running value is
    /// stored to a distinct output cell every iteration.
    Scan,
    /// Conditional minimum with a carried argument index.
    ArgMin,
    /// Conditional maximum with a carried argument index.
    ArgMax,
    /// Early-exit search for the first index whose candidate passes an
    /// equality test against a loop-invariant needle.
    FindFirst,
    /// Boolean short-circuit: breaks to `1` from a default of `0` when any
    /// element satisfies the exit condition.
    AnyOf,
    /// Boolean short-circuit: breaks to `0` from a default of `1` when any
    /// element violates the condition.
    AllOf,
    /// Sentinel-guarded search: the first index whose candidate wins an
    /// ordering comparison against a loop-invariant sentinel.
    FindMinIndex,
    /// Early-exit search scanning from the high end: a downward counted
    /// loop breaking at its first (i.e. the array's last) match.
    FindLast,
    /// Speculative fold: a loop that both accumulates a scalar and breaks
    /// early on a sentinel test independent of the accumulator
    /// ("sum-until-sentinel"). Exploited by folding private partials per
    /// chunk and replaying them only up to the lowest-indexed hit.
    FoldUntil,
    /// Map-reduce fusion: a counted producer loop materializing
    /// `tmp[i] = f(…)` whose output array is consumed *only* by a scalar
    /// reduction loop over the same range in the same function. Exploited
    /// by fusing the two loops into one chunked map+reduce body that never
    /// materializes the intermediate array.
    MapReduceFusion,
}

impl ReductionKind {
    /// Whether this is a scalar reduction.
    #[must_use]
    pub fn is_scalar(self) -> bool {
        self == ReductionKind::Scalar
    }

    /// Whether this is a histogram reduction.
    #[must_use]
    pub fn is_histogram(self) -> bool {
        self == ReductionKind::Histogram
    }

    /// Whether this is a prefix-sum/scan.
    #[must_use]
    pub fn is_scan(self) -> bool {
        self == ReductionKind::Scan
    }

    /// Whether this is an argmin or argmax reduction.
    #[must_use]
    pub fn is_arg(self) -> bool {
        matches!(self, ReductionKind::ArgMin | ReductionKind::ArgMax)
    }

    /// Whether this is an early-exit search idiom (find-first, any-of,
    /// all-of, find-min-index, find-last) — exploited by the cancellable
    /// speculative runtime rather than a privatizing fold.
    #[must_use]
    pub fn is_search(self) -> bool {
        matches!(
            self,
            ReductionKind::FindFirst
                | ReductionKind::AnyOf
                | ReductionKind::AllOf
                | ReductionKind::FindMinIndex
                | ReductionKind::FindLast
        )
    }

    /// Whether this is a speculative fold (accumulator carried across a
    /// two-exit loop).
    #[must_use]
    pub fn is_fold_until(self) -> bool {
        self == ReductionKind::FoldUntil
    }

    /// Whether this is a map-reduce fusion (producer loop + reduction
    /// loop over the same intermediate array).
    #[must_use]
    pub fn is_fusion(self) -> bool {
        self == ReductionKind::MapReduceFusion
    }

    /// Whether this reduction executes on the speculative early-exit
    /// schedule (searches and speculative folds): chunks past the
    /// sequential exit point may run and be discarded.
    #[must_use]
    pub fn is_speculative(self) -> bool {
        self.is_search() || self.is_fold_until()
    }

    /// Parses the stable [`fmt::Display`] name back into the kind —
    /// the round-trip the persistent `gr-cache/v2` format relies on.
    #[must_use]
    pub fn from_name(name: &str) -> Option<ReductionKind> {
        Some(match name {
            "scalar" => ReductionKind::Scalar,
            "histogram" => ReductionKind::Histogram,
            "scan" => ReductionKind::Scan,
            "argmin" => ReductionKind::ArgMin,
            "argmax" => ReductionKind::ArgMax,
            "find-first" => ReductionKind::FindFirst,
            "any-of" => ReductionKind::AnyOf,
            "all-of" => ReductionKind::AllOf,
            "find-min-index" => ReductionKind::FindMinIndex,
            "find-last" => ReductionKind::FindLast,
            "fold-until" => ReductionKind::FoldUntil,
            "map-reduce-fusion" => ReductionKind::MapReduceFusion,
            _ => return None,
        })
    }
}

impl fmt::Display for ReductionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReductionKind::Scalar => "scalar",
            ReductionKind::Histogram => "histogram",
            ReductionKind::Scan => "scan",
            ReductionKind::ArgMin => "argmin",
            ReductionKind::ArgMax => "argmax",
            ReductionKind::FindFirst => "find-first",
            ReductionKind::AnyOf => "any-of",
            ReductionKind::AllOf => "all-of",
            ReductionKind::FindMinIndex => "find-min-index",
            ReductionKind::FindLast => "find-last",
            ReductionKind::FoldUntil => "fold-until",
            ReductionKind::MapReduceFusion => "map-reduce-fusion",
        })
    }
}

/// One detected reduction.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// Function containing the reduction.
    pub function: String,
    /// Scalar or histogram.
    pub kind: ReductionKind,
    /// Update operator (from the associativity post-check).
    pub op: ReductionOp,
    /// Header block of the reduction loop.
    pub header: BlockId,
    /// Nesting depth of the loop (outermost = 1).
    pub depth: u32,
    /// The anchor value: the accumulator phi (scalar) or the store
    /// instruction (histogram).
    pub anchor: ValueId,
    /// For histograms, the root pointer of the histogram object.
    pub object: Option<ValueId>,
    /// Whether every input array access involved is affine in the loop
    /// iterator (the paper's strict conditions; histograms like tpacf have
    /// non-affine index computations and report `false`).
    pub affine: bool,
    /// For argmin/argmax: the normalized exchange predicate — the
    /// candidate replaces the carried value (and its index) exactly when
    /// `candidate PRED value` holds. Strict predicates keep the first
    /// extremum, non-strict ones the last; the parallel merge uses the
    /// same predicate to reproduce the sequential tie-break.
    /// For early-exit searches: the normalized break predicate — the loop
    /// exits early exactly when `candidate PRED needle` holds.
    pub arg_pred: Option<CmpPred>,
    /// Full solver assignment as `(label, value)` pairs, for codegen and
    /// diagnostics.
    pub bindings: Vec<(String, ValueId)>,
}

impl Reduction {
    /// Looks up a label binding by name.
    ///
    /// # Panics
    /// Panics if the label is absent (a detector bug).
    #[must_use]
    pub fn binding(&self, label: &str) -> ValueId {
        self.bindings
            .iter()
            .find(|(n, _)| n == label)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("reduction has no binding `{label}`"))
    }
}

impl fmt::Display for Reduction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} reduction ({}) in @{} at {} (depth {}{})",
            self.kind,
            self.op,
            self.function,
            self.header,
            self.depth,
            if self.affine { ", affine" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities_and_merges() {
        assert_eq!(ReductionOp::Add.identity_float(), 0.0);
        assert_eq!(ReductionOp::Mul.identity_int(), 1);
        assert_eq!(ReductionOp::Min.merge_float(3.0, -1.0), -1.0);
        assert_eq!(ReductionOp::Max.merge_int(3, -1), 3);
        assert_eq!(ReductionOp::Add.merge_int(i64::MAX, 1), i64::MIN); // wrapping
        assert!(ReductionOp::Min.identity_float() > 1e300);
    }

    #[test]
    fn kind_predicates() {
        assert!(ReductionKind::Scalar.is_scalar());
        assert!(!ReductionKind::Scalar.is_histogram());
        assert!(ReductionKind::Histogram.is_histogram());
        assert!(ReductionKind::Scan.is_scan());
        assert!(!ReductionKind::Scan.is_scalar());
        assert!(ReductionKind::ArgMin.is_arg());
        assert!(ReductionKind::ArgMax.is_arg());
        assert!(!ReductionKind::ArgMax.is_scan());
        assert!(ReductionKind::FindFirst.is_search());
        assert!(ReductionKind::AnyOf.is_search());
        assert!(ReductionKind::AllOf.is_search());
        assert!(ReductionKind::FindMinIndex.is_search());
        assert!(ReductionKind::FindLast.is_search());
        assert!(!ReductionKind::Scalar.is_search());
        assert!(!ReductionKind::FindFirst.is_arg());
        assert!(ReductionKind::FoldUntil.is_fold_until());
        assert!(!ReductionKind::FoldUntil.is_search());
        assert!(ReductionKind::FoldUntil.is_speculative());
        assert!(ReductionKind::FindLast.is_speculative());
        assert!(!ReductionKind::Scan.is_speculative());
    }

    #[test]
    fn display_names_round_trip() {
        for kind in [
            ReductionKind::Scalar,
            ReductionKind::Histogram,
            ReductionKind::Scan,
            ReductionKind::ArgMin,
            ReductionKind::ArgMax,
            ReductionKind::FindFirst,
            ReductionKind::AnyOf,
            ReductionKind::AllOf,
            ReductionKind::FindMinIndex,
            ReductionKind::FindLast,
            ReductionKind::FoldUntil,
            ReductionKind::MapReduceFusion,
        ] {
            assert_eq!(ReductionKind::from_name(&kind.to_string()), Some(kind));
        }
        for op in [ReductionOp::Add, ReductionOp::Mul, ReductionOp::Min, ReductionOp::Max] {
            assert_eq!(ReductionOp::from_name(&op.to_string()), Some(op));
        }
        assert_eq!(ReductionKind::from_name("nope"), None);
        assert_eq!(ReductionOp::from_name("nope"), None);
    }

    #[test]
    fn kind_display_names() {
        assert_eq!(ReductionKind::Scan.to_string(), "scan");
        assert_eq!(ReductionKind::ArgMin.to_string(), "argmin");
        assert_eq!(ReductionKind::ArgMax.to_string(), "argmax");
        assert_eq!(ReductionKind::FindFirst.to_string(), "find-first");
        assert_eq!(ReductionKind::AnyOf.to_string(), "any-of");
        assert_eq!(ReductionKind::AllOf.to_string(), "all-of");
        assert_eq!(ReductionKind::FindMinIndex.to_string(), "find-min-index");
        assert_eq!(ReductionKind::FindLast.to_string(), "find-last");
        assert_eq!(ReductionKind::FoldUntil.to_string(), "fold-until");
    }
}
