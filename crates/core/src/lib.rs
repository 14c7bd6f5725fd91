//! # gr-core — constraint-based discovery of general reductions
//!
//! This crate is the primary contribution of the reproduced paper
//! (Ginsbach & O'Boyle, *"Discovery and Exploitation of General Reductions:
//! A Constraint Based Approach"*, CGO 2017):
//!
//! 1. a **constraint description language** for computational idioms over
//!    SSA IR — boolean combinations ([`constraint::Constraint`]) of atomic
//!    constraints ([`atoms::Atom`]) over labelled tuples of IR values,
//! 2. a **generic backtracking solver** ([`solver`]) implementing the
//!    paper's `DETECT` procedure (Figure 6): labels are assigned one at a
//!    time, candidates are generated from the constraints themselves
//!    (indexed, most-selective-first, with `Or`-branch unions), and
//!    partial assignments that violate any decided constraint are pruned;
//!    specs composed as `prefix ⨯ extension` share the prefix
//!    sub-solution across idioms ([`solver::solve_extend`] +
//!    [`detect::PrefixCache`] — the for-loop skeleton is solved once per
//!    function, not once per idiom),
//! 3. a pluggable **idiom registry** ([`spec::registry`]) whose entries
//!    pair a specification with the hooks the driver needs (post-check,
//!    report classifier) — a new idiom is a new specification, not a new
//!    detector,
//! 4. **idiom specifications** in [`spec`] for the two markable prefixes —
//!    the single-exit for-loop (Figure 5) and the early-exit loop (one
//!    guarded `break`) — and the ten registered idioms:
//!    * `scalar-reduction` — scalar accumulations (§3.1.1),
//!    * `histogram-reduction` — generalized/histogram reductions (§3.1.2),
//!      including the sparse/conditional form with duplicated index loads,
//!    * `prefix-scan` — prefix sums / scans (`s += a[i]; out[i] = s`),
//!    * `argmin-argmax` — conditional min/max with a carried index,
//!    * `find-first` / `any-all-of` / `find-min-index-early` /
//!      `find-last` — the early-exit search family ([`spec::search`]),
//!      exploited by the cancellable speculative runtime in `gr-parallel`,
//!    * `fold-until-sentinel` — the speculative fold,
//!    * `map-reduce-fusion` — the first **two-loop** idiom
//!      ([`spec::fusion`]): a producer loop whose output array is consumed
//!      only by a reduction loop over the same range; the spec stacks two
//!      for-loop prefix instances and the solver resumes it from *pairs*
//!      of cached prefix solutions,
//! 5. the **post-checks** the paper performs outside the constraint
//!    language (associativity of the update operator) in [`postcheck`], and
//! 6. a generic [`detect`] driver that runs a registry over a module and
//!    produces deduplicated [`report::Reduction`] records.
//!
//! # Example
//!
//! ```
//! let module = gr_frontend::compile(
//!     "float sum(float* a, int n) {
//!          float s = 0.0;
//!          for (int i = 0; i < n; i++) s += a[i];
//!          return s;
//!      }").unwrap();
//! let reductions = gr_core::detect::detect_reductions(&module);
//! assert_eq!(reductions.len(), 1);
//! assert!(reductions[0].kind.is_scalar());
//! ```
//!
//! # Plugging in an idiom
//!
//! ```
//! use gr_core::spec::{IdiomRegistry, IdiomEntry};
//!
//! let mut registry = IdiomRegistry::with_default_idioms();
//! assert_eq!(
//!     registry.names(),
//!     ["histogram-reduction", "scalar-reduction", "prefix-scan", "argmin-argmax",
//!      "find-first", "any-all-of", "find-min-index-early", "fold-until-sentinel",
//!      "find-last", "map-reduce-fusion"],
//! );
//! // A custom entry: any `Spec` built with `SpecBuilder` plus hooks.
//! let scan = gr_core::spec::scan::idiom();
//! let mut custom = IdiomRegistry::empty();
//! custom.register(scan).unwrap();
//! let module = gr_frontend::compile(
//!     "void psum(float* a, float* out, int n) {
//!          float s = 0.0;
//!          for (int i = 0; i < n; i++) { s += a[i]; out[i] = s; }
//!      }").unwrap();
//! let rs = gr_core::detect::detect_with(&custom, &module);
//! assert!(rs[0].kind.is_scan());
//! ```

pub mod atoms;
pub mod constraint;
pub mod detect;
pub mod error;
pub mod fingerprint;
pub mod postcheck;
pub mod report;
pub mod solver;
pub mod spec;

pub use detect::{
    detect_reductions, detect_reductions_budgeted, detect_with, detect_with_budget, DetectBudget,
    DetectionReport, DetectionStatus,
};
pub use error::{ErrorPhase, GrError};
pub use fingerprint::{function_fingerprint, function_fingerprint_with, module_fingerprints};
pub use report::{Reduction, ReductionKind, ReductionOp};
pub use spec::registry::{IdiomEntry, IdiomRegistry, RegistryError};
