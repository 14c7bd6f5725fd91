//! Poisoned-state recovery: an injected worker failure must leave every
//! shared structure (`EarlyExitToken`, `sync::Mutex`, the base memory)
//! reusable by the sequential fallback, and the fallback must reproduce
//! *exact* sequential results — bit-equal, floats included, because the
//! fallback re-runs the loop in sequential order rather than merging
//! reassociated partials.
//!
//! The thread-matrix CI leg runs this file under `GR_THREADS={2,8}`.

use gr_core::detect_reductions;
use gr_frontend::compile;
use gr_interp::machine::Machine;
use gr_interp::memory::Memory;
use gr_interp::RtVal;
use gr_parallel::fault::InjectGuard;
use gr_parallel::runtime::handler;
use gr_parallel::{parallelize, sync};
use std::panic::{catch_unwind, AssertUnwindSafe};

const FIND_FIRST: &str = "int find(int* a, int x, int n) {
         int r = n;
         for (int i = 0; i < n; i++) {
             if (a[i] == x) { r = i; break; }
         }
         return r;
     }";

const FLOAT_SUM: &str = "float sum(float* a, int n) {
         float s = 0.0;
         for (int i = 0; i < n; i++) s += a[i];
         return s;
     }";

const PREFIX_SUM: &str = "void psum(float* a, float* out, int n) {
         float s = 0.0;
         for (int i = 0; i < n; i++) { s += a[i]; out[i] = s; }
     }";

fn noisy_floats(n: usize) -> Vec<f64> {
    // Magnitudes spread enough that reassociated partial sums differ in
    // the low bits — making bit-equality a real sequential-order check.
    (0..n)
        .map(|i| ((i as f64) * 1.377e-3 + 1.0) * if i % 3 == 0 { 1e6 } else { 1e-6 })
        .collect()
}

/// Sequential reference: the unmodified module on a plain interpreter.
fn sequential_find(data: &[i64], x: i64) -> i64 {
    let m = compile(FIND_FIRST).unwrap();
    let mut mem = Memory::new(&m);
    let a = mem.alloc_int(data);
    let mut machine = Machine::new(&m, mem);
    machine
        .call("find", &[RtVal::ptr(a), RtVal::I(x), RtVal::I(data.len() as i64)])
        .unwrap()
        .unwrap()
        .as_i()
}

fn sequential_sum(data: &[f64]) -> f64 {
    let m = compile(FLOAT_SUM).unwrap();
    let mut mem = Memory::new(&m);
    let a = mem.alloc_float(data);
    let mut machine = Machine::new(&m, mem);
    machine
        .call("sum", &[RtVal::ptr(a), RtVal::I(data.len() as i64)])
        .unwrap()
        .unwrap()
        .as_f()
}

fn parallel_find(data: &[i64], x: i64, threads: usize) -> (i64, gr_trace::Trace) {
    let m = compile(FIND_FIRST).unwrap();
    let guard = gr_trace::start();
    let rs = detect_reductions(&m);
    let (pm, plan) = parallelize(&m, "find", &rs).unwrap();
    let mut mem = Memory::new(&pm);
    let a = mem.alloc_int(data);
    let mut machine = Machine::new(&pm, mem);
    machine.set_handler(handler(&pm, plan, threads));
    let got = machine
        .call("find", &[RtVal::ptr(a), RtVal::I(x), RtVal::I(data.len() as i64)])
        .unwrap()
        .unwrap()
        .as_i();
    (got, guard.finish())
}

fn parallel_sum(data: &[f64], threads: usize) -> (f64, gr_trace::Trace) {
    let m = compile(FLOAT_SUM).unwrap();
    let guard = gr_trace::start();
    let rs = detect_reductions(&m);
    let (pm, plan) = parallelize(&m, "sum", &rs).unwrap();
    let mut mem = Memory::new(&pm);
    let a = mem.alloc_float(data);
    let mut machine = Machine::new(&pm, mem);
    machine.set_handler(handler(&pm, plan, threads));
    let got = machine
        .call("sum", &[RtVal::ptr(a), RtVal::I(data.len() as i64)])
        .unwrap()
        .unwrap()
        .as_f();
    (got, guard.finish())
}

#[test]
fn speculative_worker_panic_degrades_to_exact_sequential_search() {
    let n = 5000usize;
    let data: Vec<i64> = (0..n as i64).map(|i| (i * 31) % 977).collect();
    for x in [data[2 * n / 3] /* hit past the panic site */, -1 /* no hit */] {
        let expect = sequential_find(&data, x);
        for threads in gr_parallel::test_thread_counts() {
            let _fault = InjectGuard::panic_at_chunk(0);
            let (got, trace) = parallel_find(&data, x, threads);
            assert_eq!(got, expect, "x={x} threads={threads}");
            assert_eq!(trace.counter("runtime.chunk_panic"), 1, "threads={threads}");
            assert_eq!(trace.counter("runtime.trap_fallbacks"), 1, "threads={threads}");
            assert_eq!(trace.counter("error{GR004}"), 1, "threads={threads}");
            assert_eq!(trace.counter("error{GR003}"), 0, "a panic is not a trap");
        }
    }
}

#[test]
fn reduction_worker_panic_falls_back_to_bit_equal_sequential_sum() {
    // The merge of a healthy parallel run reassociates float additions;
    // the panic fallback must NOT — it re-runs sequentially, so the
    // result is bit-equal with the plain interpreter.
    let data = noisy_floats(4096);
    let expect = sequential_sum(&data);
    for threads in gr_parallel::test_thread_counts() {
        let _fault = InjectGuard::panic_at_chunk(0);
        let (got, trace) = parallel_sum(&data, threads);
        assert_eq!(got.to_bits(), expect.to_bits(), "threads={threads}");
        assert_eq!(trace.counter("runtime.chunk_panic"), 1, "threads={threads}");
        assert_eq!(trace.counter("runtime.panic_fallbacks"), 1, "threads={threads}");
        assert_eq!(trace.counter("error{GR004}"), 1, "threads={threads}");
    }
}

#[test]
fn scan_worker_panic_preserves_whole_output_array() {
    let data = noisy_floats(2048);
    // Sequential reference.
    let m = compile(PREFIX_SUM).unwrap();
    let mut mem = Memory::new(&m);
    let a = mem.alloc_float(&data);
    let out = mem.alloc_float(&vec![0.0; data.len()]);
    let mut machine = Machine::new(&m, mem);
    machine
        .call("psum", &[RtVal::ptr(a), RtVal::ptr(out), RtVal::I(data.len() as i64)])
        .unwrap();
    let expect = machine.mem.object(out).clone();

    for threads in gr_parallel::test_thread_counts() {
        let _fault = InjectGuard::panic_at_chunk(0);
        let pm_src = compile(PREFIX_SUM).unwrap();
        let guard = gr_trace::start();
        let rs = detect_reductions(&pm_src);
        let (pm, plan) = parallelize(&pm_src, "psum", &rs).unwrap();
        let mut mem = Memory::new(&pm);
        let a = mem.alloc_float(&data);
        let out = mem.alloc_float(&vec![0.0; data.len()]);
        let mut machine = Machine::new(&pm, mem);
        machine.set_handler(handler(&pm, plan, threads));
        machine
            .call("psum", &[RtVal::ptr(a), RtVal::ptr(out), RtVal::I(data.len() as i64)])
            .unwrap();
        let trace = guard.finish();
        assert_eq!(machine.mem.object(out), &expect, "threads={threads}");
        assert_eq!(trace.counter("runtime.panic_fallbacks"), 1, "threads={threads}");
        assert_eq!(trace.counter("error{GR004}"), 1, "threads={threads}");
    }
}

#[test]
fn injected_token_abort_degrades_to_exact_sequential_search() {
    let n = 5000usize;
    let data: Vec<i64> = (0..n as i64).map(|i| (i * 31) % 977).collect();
    for x in [data[n / 2], -1] {
        let expect = sequential_find(&data, x);
        for threads in gr_parallel::test_thread_counts() {
            let _fault = InjectGuard::abort_at_chunk(0);
            let (got, trace) = parallel_find(&data, x, threads);
            assert_eq!(got, expect, "x={x} threads={threads}");
            assert_eq!(trace.counter("runtime.trap_fallbacks"), 1, "threads={threads}");
            assert_eq!(trace.counter("error{GR005}"), 1, "threads={threads}");
            assert_eq!(trace.counter("error{GR004}"), 0, "an abort is not a panic");
        }
    }
}

#[test]
fn panicking_holder_does_not_wedge_the_sync_primitives() {
    // Arm a never-firing fault purely to install the panic-report
    // suppression hook for the deliberate `gr-fault:` panics below.
    let _quiet = InjectGuard::panic_at_chunk(i64::MAX - 1);
    let m = sync::Mutex::new(5);
    let token = sync::EarlyExitToken::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            let _ = catch_unwind(AssertUnwindSafe(|| {
                let _g = m.lock();
                token.offer(7);
                panic!("gr-fault: deliberate panic while holding the lock");
            }));
        });
    });
    // A poisoned std mutex would refuse here; the shim hands the data on.
    assert_eq!(*m.lock(), 5);
    *m.lock() = 6;
    assert_eq!(m.into_inner(), 6);
    // The token's state survives the panicking offerer and stays usable
    // by the fallback path.
    assert_eq!(token.winner(), Some(7));
    assert!(token.cancels(8));
    assert!(!token.aborted());
    token.abort();
    assert_eq!(token.winner(), None);
}

#[test]
fn unfired_faults_are_disarmed_by_guard_drop() {
    // A fault armed past the schedule never fires; the next (healthy) run
    // must observe no degradation at all.
    let n = 2000usize;
    let data: Vec<i64> = (0..n as i64).collect();
    {
        let _fault = InjectGuard::panic_at_chunk(1 << 30);
        let (got, trace) = parallel_find(&data, -1, 2);
        assert_eq!(got, n as i64);
        assert_eq!(trace.counter("runtime.chunk_panic"), 0);
        assert_eq!(trace.counter("error{GR004}"), 0);
    }
    let (got, trace) = parallel_find(&data, -1, 2);
    assert_eq!(got, n as i64);
    assert_eq!(trace.counter("runtime.trap_fallbacks"), 0);
    assert_eq!(trace.counter("error{GR004}"), 0);
}

#[test]
fn concurrent_guards_fault_only_their_own_runs() {
    // A panic and an abort armed at the same time on two threads: each
    // run degrades through its own fault and never sees the other's.
    let n = 2000usize;
    let data: Vec<i64> = (0..n as i64).collect();
    for round in 0..5 {
        let barrier = std::sync::Barrier::new(2);
        let ledgers: Vec<(i64, i64)> = std::thread::scope(|s| {
            let arms: [fn() -> InjectGuard; 2] =
                [|| InjectGuard::panic_at_chunk(0), || InjectGuard::abort_at_chunk(0)];
            let handles: Vec<_> = arms
                .into_iter()
                .map(|arm| {
                    let (data, barrier) = (&data, &barrier);
                    s.spawn(move || {
                        let fault = arm();
                        barrier.wait();
                        let (got, trace) = parallel_find(data, -1, 2);
                        assert_eq!(got, n as i64);
                        assert!(fault.fired());
                        (trace.counter("error{GR004}"), trace.counter("error{GR005}"))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(ledgers, vec![(1, 0), (0, 1)], "round {round}");
    }
}
