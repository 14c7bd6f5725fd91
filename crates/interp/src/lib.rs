//! # gr-interp — an interpreter for `gr-ir` with profiling and pluggable
//! memory
//!
//! The paper evaluates detected reductions by generating parallel native
//! code; in this reproduction the "machine" is an IR interpreter, so the
//! sequential baseline, the privatized parallel execution and the
//! simulated "original parallel versions" all run on identical substrate
//! and their wall-clock ratios are meaningful.
//!
//! * [`decode::Program`] — a module decoded once for execution: operands
//!   become frame slots, branch targets the first op they enter, phis
//!   per-edge parallel copies, loads are typed by their result and each
//!   call target is resolved to a builtin, a module function or a handler
//!   name. A typed compare followed by its block's final branch on it,
//!   and a `gep` followed by a load or store through it, decode to one
//!   fused op each. Each function is laid out in superblocks: edges are
//!   threaded past blocks that only jump on, and a block that is the only
//!   way into its phi-free successor runs on into that successor's ops,
//!   without touching the IR or the exact block counts,
//! * [`machine::Machine`] — the evaluator, one loop over that decoded
//!   form, generic over a [`memory::MemBackend`] so threads can run over
//!   shared read-only memory with private overlays (see `gr-parallel`).
//!   [`Machine::new`] decodes its module; machines that share one decode
//!   start from [`Machine::from_program`], as the parallel runtime's
//!   pieces do. A call's frame is two word arrays, a kind tag and a
//!   payload per slot, and the loop reads and writes a slot only with
//!   8-byte accesses, so the CPU forwards each store to the op that
//!   loads the slot next. A frame of [`RtVal`]s would be written with
//!   partial stores and read with one 16-byte load the CPU cannot forward
//!   from them, a stall that costs more than dispatch,
//! * [`memory::Memory`] — the owned backend used for sequential runs,
//! * [`profile`] — per-block execution counts, giving exact instruction
//!   counts per loop (the runtime-coverage figures of the paper),
//! * [`builtins`] — the libm-style intrinsics.
//!
//! # Example
//!
//! ```
//! use gr_interp::{machine::Machine, memory::Memory, RtVal};
//!
//! let m = gr_frontend::compile(
//!     "float sum(float* a, int n) {
//!          float s = 0.0;
//!          for (int i = 0; i < n; i++) s += a[i];
//!          return s;
//!      }").unwrap();
//! let mut mem = Memory::new(&m);
//! let a = mem.alloc_float(&[1.0, 2.0, 3.5]);
//! let mut machine = Machine::new(&m, mem);
//! let r = machine.call("sum", &[RtVal::ptr(a), RtVal::I(3)]).unwrap();
//! assert_eq!(r, Some(RtVal::F(6.5)));
//! ```

pub mod builtins;
pub mod decode;
pub mod machine;
pub mod memory;
pub mod profile;
pub mod value;

pub use decode::Program;
pub use machine::{Machine, Trap};
pub use memory::{MemBackend, Memory, ObjId};
pub use value::RtVal;
