//! Idiom specifications written in the constraint language.
//!
//! Modules:
//!
//! * [`forloop`] — the for-loop structure of the paper's Figure 5,
//! * [`earlyexit`] — the second markable prefix: a counted loop with one
//!   guarded `break` (two exits),
//! * [`scalar`] — scalar reductions (§3.1.1),
//! * [`histogram`] — generalized/histogram reductions (§3.1.2),
//! * [`scan`] — prefix sums / scans (running value stored per iteration),
//! * [`argminmax`] — conditional min/max with a carried argument index,
//! * [`search`] — the early-exit family: find-first, any-of/all-of,
//!   find-min-index-early, find-last (scanning from the high end),
//! * [`foldexit`] — the speculative fold: fold-until-sentinel, an
//!   accumulator carried across a two-exit loop,
//! * [`fusion`] — map-reduce fusion, the first two-loop idiom: a producer
//!   loop whose output array is consumed only by a reduction loop over
//!   the same range (the spec stacks two for-loop prefix instances),
//! * [`registry`] — the pluggable [`registry::IdiomRegistry`] the generic
//!   detection driver iterates.
//!
//! Composition works exactly like the paper's embedded C++ DSL: a composite
//! is a plain function that adds atoms over shared labels to a
//! [`SpecBuilder`](crate::constraint::SpecBuilder). Composites that form a
//! reusable *stem* — the for-loop is the canonical one — additionally call
//! [`SpecBuilder::mark_prefix`](crate::constraint::SpecBuilder::mark_prefix),
//! which lets the detection driver solve the stem once per function and
//! resume every idiom built on it from the cached solutions (see
//! [`registry`]).

pub mod argminmax;
pub mod earlyexit;
pub mod foldexit;
pub mod forloop;
pub mod fusion;
pub mod histogram;
pub mod registry;
pub mod scalar;
pub mod scan;
pub mod search;

pub use argminmax::{argminmax_spec, ArgMinMaxLabels};
pub use earlyexit::{add_for_loop_early_exit, for_loop_early_exit_spec, EarlyExitLabels};
pub use foldexit::{fold_until_spec, FoldExitLabels};
pub use forloop::{add_for_loop, add_for_loop_pair, for_loop_spec, ForLoopLabels};
pub use fusion::{map_reduce_fusion_spec, FusionLabels};
pub use histogram::{histogram_spec, HistogramLabels};
pub use registry::{IdiomEntry, IdiomRegistry, RegistryError};
pub use scalar::{scalar_reduction_spec, ScalarLabels};
pub use scan::{scan_spec, ScanLabels};
pub use search::{
    any_all_of_spec, find_first_spec, find_last_spec, find_min_index_spec, SearchLabels,
};
