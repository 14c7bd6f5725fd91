//! Scheduler-counter determinism for the speculative runtime.
//!
//! The ROADMAP gates scheduling wins on deterministic scheduler-step
//! counters rather than wall time; these tests pin that property on the
//! `gr-trace` substrate, and that a trace holds only its owner's work.
//!
//! The thread-matrix CI leg runs this file under `GR_THREADS={2,8}`
//! (through [`gr_parallel::test_thread_counts`]), asserting determinism at
//! each pinned thread count.

use gr_core::detect_reductions;
use gr_frontend::compile;
use gr_interp::machine::Machine;
use gr_interp::memory::Memory;
use gr_interp::RtVal;
use gr_parallel::parallelize;
use gr_parallel::runtime::{handler, ramped, SPECULATIVE_CHUNKS_PER_WORKER};
use gr_trace::MetricsSnapshot;

const FIND_FIRST: &str = "int find(int* a, int x, int n) {
         int r = n;
         for (int i = 0; i < n; i++) {
             if (a[i] == x) { r = i; break; }
         }
         return r;
     }";

/// Runs the full pipeline (detect → outline → parallel execution) under a
/// trace session and returns the search result plus the session's trace.
fn traced_search_run(data: &[i64], x: i64, threads: usize) -> (i64, gr_trace::Trace) {
    let m = compile(FIND_FIRST).unwrap();
    let guard = gr_trace::start();
    let rs = detect_reductions(&m);
    let (pm, plan) = parallelize(&m, "find", &rs).unwrap();
    assert!(plan.search.is_some());
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

/// The chunk count [`gr_parallel::runtime`] plans for a search of `count`
/// iterations — the closed form the counters must reproduce.
fn planned_chunks(count: i64, threads: usize) -> i64 {
    let target = (threads.max(1) * SPECULATIVE_CHUNKS_PER_WORKER).min(count as usize);
    ramped(count, target).len() as i64
}

#[test]
fn no_hit_search_counters_are_deterministic_per_thread_count() {
    // Without a hit nothing is cancelled: every planned chunk is claimed
    // (one token poll each), dispatched, and completed. The aggregate
    // counters are a closed-form function of the thread count — the
    // determinism CI gates on.
    let data = vec![1i64; 5000];
    for threads in gr_parallel::test_thread_counts() {
        let (r1, t1) = traced_search_run(&data, 7, threads);
        let (r2, t2) = traced_search_run(&data, 7, threads);
        assert_eq!(r1, 5000);
        assert_eq!(r2, 5000);
        assert_eq!(
            t1.snapshot().render_json(),
            t2.snapshot().render_json(),
            "byte-identical snapshots for repeated runs at threads={threads}"
        );
        let planned = planned_chunks(data.len() as i64, threads);
        for name in [
            "runtime.chunks_planned",
            "runtime.token_polls",
            "runtime.chunk_dispatch",
            "runtime.chunk_complete",
        ] {
            assert_eq!(t1.counter(name), planned, "{name} at threads={threads}");
        }
        assert_eq!(t1.counter("runtime.token_cancelled"), 0);
        assert_eq!(t1.counter("runtime.merge_commits"), 0);
        assert_eq!(t1.counter("runtime.trap_fallbacks"), 0);
    }
}

#[test]
fn single_thread_hit_run_is_byte_deterministic() {
    // With one worker the claim order is the chunk order, so even a
    // cancelling run (hit mid-range) is fully deterministic — snapshot
    // bytes included.
    let n = 9000usize;
    let data: Vec<i64> = (0..n as i64).map(|i| (i * 7919) % 10007).collect();
    let x = data[2 * n / 3];
    let expect = data.iter().position(|&v| v == x).unwrap() as i64;
    let (r1, t1) = traced_search_run(&data, x, 1);
    let (r2, t2) = traced_search_run(&data, x, 1);
    assert_eq!(r1, expect);
    assert_eq!(r2, expect);
    let s1: MetricsSnapshot = t1.snapshot();
    assert_eq!(s1.render_json(), t2.snapshot().render_json());
    assert_eq!(s1.get("runtime.merge_commits"), 1);
    assert!(s1.get("runtime.chunk_hits") >= 1);
    // A single worker claims chunks in order and stops at the first claim
    // past the winning hit; it never observes a cancellation from another
    // worker mid-stream, but the winner chunk itself completes.
    assert!(s1.get("runtime.chunk_complete") <= s1.get("runtime.chunk_dispatch"));
}

/// Renders every histogram of `t` to one deterministic string.
fn histogram_digest(t: &gr_trace::Trace) -> String {
    t.histograms.iter().map(|(k, h)| format!("{k}={}\n", h.render_json())).collect()
}

#[test]
fn histograms_are_byte_deterministic_per_thread_count() {
    // Same property the counter snapshots pin, on the histogram layer:
    // for a fixed thread count, repeated runs must merge worker-local
    // histogram buffers to identical bytes regardless of which worker
    // recorded what.
    let data = vec![1i64; 5000];
    for threads in gr_parallel::test_thread_counts() {
        let (_, t1) = traced_search_run(&data, 7, threads);
        let (_, t2) = traced_search_run(&data, 7, threads);
        assert_eq!(
            histogram_digest(&t1),
            histogram_digest(&t2),
            "byte-identical histograms for repeated runs at threads={threads}"
        );
        // The plan-time chunk-length histogram must account for every
        // planned chunk exactly.
        let lens = t1.histogram("runtime.chunk_len{__chunk_find}").expect("chunk_len recorded");
        assert_eq!(lens.count as i64, planned_chunks(data.len() as i64, threads));
        assert_eq!(lens.sum, data.len() as i64, "chunk lengths partition the iteration space");
    }
}

#[test]
fn hit_position_histogram_records_sequential_first_hit() {
    // The committed hit is the sequential first hit, so the hit-position
    // histogram is a thread-count-independent observation — here pinned
    // at one worker where the whole schedule is deterministic.
    let n = 9000usize;
    let data: Vec<i64> = (0..n as i64).map(|i| (i * 7919) % 10007).collect();
    let x = data[2 * n / 3];
    let expect = data.iter().position(|&v| v == x).unwrap() as i64;
    let (r, t) = traced_search_run(&data, x, 1);
    assert_eq!(r, expect);
    let hits = t.histogram("runtime.hit_pos{__chunk_find}").expect("hit recorded");
    assert_eq!((hits.count, hits.min, hits.max), (1, expect, expect));
    assert!(t.histogram("runtime.hit_chunk{__chunk_find}").is_some());
}

#[test]
fn detection_side_event_stream_is_thread_count_invariant() {
    // The detection pipeline (solver, prefix cache, outline) runs on the
    // session opener regardless of GR_THREADS: its event stream — and the
    // solver step counters — must be identical across thread counts, even
    // though the runtime plans a different chunk schedule per count.
    let detection_names =
        ["detect", "idiom", "solve", "extend", "prefix", "postcheck", "outline", "outline.refusal"];
    let data = vec![1i64; 5000];
    let mut reference: Option<(Vec<(String, gr_trace::Phase)>, i64)> = None;
    for threads in gr_parallel::test_thread_counts() {
        let (_, trace) = traced_search_run(&data, 7, threads);
        let stream: Vec<(String, gr_trace::Phase)> = trace
            .events
            .iter()
            .filter(|e| detection_names.contains(&e.name))
            .map(|e| (e.name.to_string(), e.phase))
            .collect();
        assert!(!stream.is_empty(), "detection must emit events");
        // A single-accumulator search loop solves entirely by forced
        // moves under the trie search, so the step count may be zero —
        // the property pinned here is its thread-count invariance.
        let steps = trace.counter("solver.steps");
        match &reference {
            None => reference = Some((stream, steps)),
            Some((ref_stream, ref_steps)) => {
                assert_eq!(&stream, ref_stream, "threads={threads}");
                assert_eq!(steps, *ref_steps, "threads={threads}");
            }
        }
    }
}

const INT_SUM: &str = "int sum(int* a, int n) {
         int s = 0;
         for (int i = 0; i < n; i++) s += a[i];
         return s;
     }";

#[test]
fn traced_fold_renders_byte_identical_chrome_json_at_eight_threads() {
    // A fold runs one job per piece: piece 0 on the calling thread, which
    // records on the caller's lane, and every other piece on a helper bound
    // to the slot the caller took for that piece, so the rendered trace
    // cannot depend on which thread happened to record first.
    let m = compile(INT_SUM).unwrap();
    let rs = detect_reductions(&m);
    let (pm, plan) = parallelize(&m, "sum", &rs).unwrap();
    assert!(plan.search.is_none());
    let data: Vec<i64> = (0..4096).collect();
    let render = || {
        let mut mem = Memory::new(&pm);
        let a = mem.alloc_int(&data);
        let mut machine = Machine::new(&pm, mem);
        machine.set_handler(handler(&pm, plan.clone(), 8));
        let guard = gr_trace::start();
        let got = machine.call("sum", &[RtVal::ptr(a), RtVal::I(data.len() as i64)]).unwrap();
        let trace = guard.finish();
        assert_eq!(got.unwrap().as_i(), data.iter().sum::<i64>());
        assert_eq!(trace.counter("runtime.chunk_complete"), 8);
        trace.chrome_json()
    };
    let first = render();
    for repeat in 1..50 {
        assert_eq!(render(), first, "repeat {repeat}");
    }
}

#[test]
fn concurrent_sessions_hold_only_their_owners_work() {
    // Two traced pipelines and one untraced one run at the same time; each
    // trace must render exactly what the same pipeline renders alone.
    let n = 9000usize;
    let data: Vec<i64> = (0..n as i64).map(|i| (i * 7919) % 10007).collect();
    let x = data[2 * n / 3];
    let solo = traced_search_run(&data, x, 1).1.chrome_json();
    for round in 0..5 {
        let barrier = std::sync::Barrier::new(3);
        let traces: Vec<String> = std::thread::scope(|s| {
            let (data, barrier) = (&data, &barrier);
            let traced: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(move || {
                        barrier.wait();
                        traced_search_run(data, x, 1).1.chrome_json()
                    })
                })
                .collect();
            s.spawn(move || {
                barrier.wait();
                let m = compile(FIND_FIRST).unwrap();
                let rs = detect_reductions(&m);
                let (pm, plan) = parallelize(&m, "find", &rs).unwrap();
                let mut mem = Memory::new(&pm);
                let a = mem.alloc_int(data);
                let mut machine = Machine::new(&pm, mem);
                machine.set_handler(handler(&pm, plan, 1));
                machine
                    .call("find", &[RtVal::ptr(a), RtVal::I(x), RtVal::I(data.len() as i64)])
                    .unwrap();
            });
            traced.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, json) in traces.iter().enumerate() {
            assert_eq!(json, &solo, "round {round}, traced thread {i}");
        }
    }
}
