//! # gr-parallel — exploitation: privatizing parallel reduction runtime
//!
//! The paper's §4 code generation, reproduced over the `gr-interp`
//! substrate:
//!
//! > "For each reduction that is found, all input arrays and closure
//! > variables are identified and packed into a structure […] Depending on
//! > the amount of processors in the system and the recursion depth, the
//! > function decides whether to bisect its workload recursively. […] it
//! > copies its parameter array but replaces the histogram array with a
//! > newly allocated copy. After both threads finished their work, the copy
//! > is merged with the original histogram element wise."
//!
//! * [`outline`] — rewrites a detected reduction loop into a `chunk(lo, hi,
//!   step, closure…)` function plus an intrinsic call in the original
//!   function (the "generated code"); early-exit loops outline with both
//!   exits intact (a hit phi plus clones of the exit phis, plus
//!   identity-seeded accumulator clones for speculative folds), and fold
//!   loops with exit phis patch them onto the preheader edge,
//! * [`overlay`] — thread memory views: privatized copies, raw shared
//!   objects for provably disjoint writes, and lock-protected shared
//!   objects (used to simulate the benchmarks' "original parallel
//!   versions"),
//! * [`pool`] — the helper threads an owner keeps parked between calls;
//!   job 0 of every run is the caller's own,
//! * [`runtime`] — the recursive-bisection executor with identity-seeded
//!   privatized accumulators, element-wise merging and dynamic histogram
//!   growth, run on each handler's [`pool::Pool`], and the **cancellable
//!   speculative** path for early-exit loops: chunked execution (a
//!   geometric front-ramp of [`runtime::SPECULATIVE_CHUNKS_PER_WORKER`]
//!   chunks per worker) polling an [`sync::EarlyExitToken`], merged by
//!   lowest hit with fold partials
//!   replayed up to it (sequential semantics on every thread count), and
//!   a bounds-aware sequential fallback for trapping speculation.
//!
//! # Example
//!
//! ```
//! use gr_interp::{machine::Machine, memory::Memory, RtVal};
//!
//! let module = gr_frontend::compile(
//!     "float sum(float* a, int n) {
//!          float s = 0.0;
//!          for (int i = 0; i < n; i++) s += a[i];
//!          return s;
//!      }").unwrap();
//! let reductions = gr_core::detect_reductions(&module);
//! let (par_module, plan) =
//!     gr_parallel::outline::parallelize(&module, "sum", &reductions).unwrap();
//! let mut mem = Memory::new(&par_module);
//! let data: Vec<f64> = (0..1000).map(|i| i as f64).collect();
//! let a = mem.alloc_float(&data);
//! let mut machine = Machine::new(&par_module, mem);
//! machine.set_handler(gr_parallel::runtime::handler(&par_module, plan, 4));
//! let r = machine.call("sum", &[RtVal::ptr(a), RtVal::I(1000)]).unwrap();
//! assert_eq!(r, Some(RtVal::F(499_500.0)));
//! ```

pub mod fault;
pub mod outline;
pub mod overlay;
pub mod plan;
pub mod pool;
pub mod runtime;
pub mod sync;

pub use outline::parallelize;
pub use plan::{AccSlot, FoldSlot, HistSlot, ReductionPlan, SearchSlot, WrittenPolicy};

/// Thread counts the sequential-equivalence tests sweep: `{1, 2, 4, 8}`
/// by default, overridable with a comma-separated `GR_THREADS`
/// environment variable (e.g. `GR_THREADS=2,8`). CI's thread-matrix leg
/// uses the override to exercise each count on a real multi-core runner
/// instead of only time-slicing all four on one machine.
/// # Panics
/// Panics on a malformed `GR_THREADS` value — a CI leg pinned to a
/// thread count must fail loudly rather than silently run the default
/// sweep.
#[must_use]
pub fn test_thread_counts() -> Vec<usize> {
    match std::env::var("GR_THREADS") {
        Ok(spec) => spec
            .split(',')
            .map(|t| match t.trim().parse::<usize>() {
                Ok(n) if n > 0 => n,
                _ => panic!("GR_THREADS: `{t}` is not a positive thread count (in `{spec}`)"),
            })
            .collect(),
        Err(_) => vec![1, 2, 4, 8],
    }
}
