//! # general-reductions
//!
//! A from-scratch Rust reproduction of **"Discovery and Exploitation of
//! General Reductions: A Constraint Based Approach"** (Philip Ginsbach and
//! Michael F. P. O'Boyle, CGO 2017): a constraint-based idiom description
//! language and backtracking solver that discover scalar *and histogram*
//! reductions in SSA compiler IR, plus a privatizing parallel runtime that
//! exploits them.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`ir`] — LLVM-like typed SSA IR,
//! * [`frontend`] — a mini-C compiler producing that IR,
//! * [`analysis`] — dominance, control dependence, loops, affinity, purity,
//! * [`core`] — **the paper's contribution**: constraint language, solver,
//!   the pluggable idiom registry with its ten registered idioms
//!   (`scalar-reduction`, `histogram-reduction`, `prefix-scan`,
//!   `argmin-argmax`, the early-exit family `find-first` /
//!   `any-all-of` / `find-min-index-early` / `fold-until-sentinel` /
//!   `find-last`, and the two-loop `map-reduce-fusion` — a stacked pair
//!   of for-loop prefixes resumed from cached solution pairs),
//!   post-checks,
//! * [`baselines`] — Polly-like and icc-like comparison detectors,
//! * [`interp`] — profiling interpreter (the evaluation substrate),
//! * [`parallel`] — outlining + parallel runtime (privatized partials,
//!   element-wise histogram merge, two-pass block scans, tie-break-exact
//!   argmin/argmax merges, loop fusion that never materializes the
//!   intermediate array, and the cancellable speculative executor for
//!   early-exit loops — searches and speculative folds, with a geometric
//!   front-ramp chunk schedule and a bounds-aware sequential fallback
//!   that restarts from the last completed chunk boundary on trapping
//!   speculation),
//! * [`server`] — detection as a service: cold solves on the server's
//!   parked-helper pool (each job owning a `PrefixCache` shard) behind
//!   a persistent, fingerprint-keyed cross-run report cache
//!   (`gr-cache/v2`, an append-only journal) — re-submitting an unchanged
//!   function costs zero solver steps,
//! * [`benchsuite`] — the 40 NAS/Parboil/Rodinia miniatures, the idiom
//!   micro-workloads, and the differential fuzzing harness
//!   ([`benchsuite::fuzz`]) guarding detection soundness,
//! * [`trace`] — the deterministic tracing/metrics layer every stage
//!   above records into (logical-sequence spans and counters, Chrome
//!   trace-event and metrics-snapshot sinks; zero-cost when disabled).
//!
//! New idioms plug in through [`core::spec::registry`]: build a `Spec`
//! with `SpecBuilder`, wrap it in an `IdiomEntry` (name, post-check hook,
//! report classifier), register it, and run `detect_with` — the driver is
//! generic over the registry.
//!
//! # Quickstart
//!
//! ```
//! use general_reductions::prelude::*;
//!
//! let module = compile(
//!     "float sum(float* a, int n) {
//!          float s = 0.0;
//!          for (int i = 0; i < n; i++) s += a[i];
//!          return s;
//!      }").unwrap();
//! let reductions = detect_reductions(&module);
//! assert_eq!(reductions.len(), 1);
//!
//! // Exploit it on 4 threads.
//! let (pm, plan) = parallelize(&module, "sum", &reductions).unwrap();
//! let mut mem = Memory::new(&pm);
//! let a = mem.alloc_float(&[1.0; 1000]);
//! let mut machine = Machine::new(&pm, mem);
//! machine.set_handler(gr_parallel::runtime::handler(&pm, plan, 4));
//! let r = machine.call("sum", &[RtVal::ptr(a), RtVal::I(1000)]).unwrap();
//! assert_eq!(r, Some(RtVal::F(1000.0)));
//! ```

pub use gr_analysis as analysis;
pub use gr_baselines as baselines;
pub use gr_benchsuite as benchsuite;
pub use gr_core as core;
pub use gr_frontend as frontend;
pub use gr_interp as interp;
pub use gr_ir as ir;
pub use gr_parallel as parallel;
pub use gr_server as server;
pub use gr_trace as trace;

/// The most common imports in one place.
pub mod prelude {
    pub use gr_core::{detect_reductions, Reduction, ReductionKind, ReductionOp};
    pub use gr_frontend::compile;
    pub use gr_interp::{Machine, Memory, RtVal};
    pub use gr_parallel::parallelize;
}
