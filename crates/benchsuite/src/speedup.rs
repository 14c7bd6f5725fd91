//! The Figure 15 experiment: end-to-end speedups on the histogram-dominated
//! programs (EP, IS, histo, tpacf, kmeans).
//!
//! Three configurations per program, all on the same interpreter substrate:
//!
//! * **sequential** — the unmodified program;
//! * **reduction parallelism (ours)** — the detected reduction loop
//!   outlined and executed by the privatizing runtime;
//! * **original parallel version** — a simulation of the parallelization
//!   shipped with the benchmark suite, with the pathologies the paper
//!   reports: tpacf and histo serialize updates through a critical section
//!   / per-access lock (slowdown, §6.3), EP and IS parallelize their setup
//!   phases too (coarser parallelism that beats reduction-only
//!   parallelization), and kmeans is itself reduction-based.

use crate::workload::Workload;
use gr_core::detect_reductions;
use gr_interp::machine::Machine;
use gr_interp::memory::{Memory, ObjId};
use gr_interp::{Program, RtVal};
use gr_ir::Module;
use gr_parallel::overlay::OverlayMemory;
use gr_parallel::runtime::{bisect, handler};
use gr_parallel::sync::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One Figure 15 measurement.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Program name.
    pub name: &'static str,
    /// Sequential wall time.
    pub sequential: Duration,
    /// Reduction-parallel wall time (ours).
    pub reduction: Duration,
    /// Simulated original-parallel wall time; `None` where the original
    /// parallel version is ours by construction (kmeans).
    pub original: Option<Duration>,
    /// Paper-reported reduction-parallel speedup (64 cores).
    pub paper_reduction: f64,
    /// Paper-reported original-parallel speedup (64 cores).
    pub paper_original: f64,
}

impl SpeedupRow {
    /// Our measured reduction-parallel speedup.
    #[must_use]
    pub fn reduction_speedup(&self) -> f64 {
        self.sequential.as_secs_f64() / self.reduction.as_secs_f64().max(1e-9)
    }

    /// Our measured original-parallel speedup; `None` where the original
    /// is ours by construction.
    #[must_use]
    pub fn original_speedup(&self) -> Option<f64> {
        let original = self.original?;
        Some(self.sequential.as_secs_f64() / original.as_secs_f64().max(1e-9))
    }
}

/// Runs the whole Figure 15 experiment.
#[must_use]
pub fn fig15(threads: usize, scale: usize) -> Vec<SpeedupRow> {
    vec![
        ep(threads, scale),
        is(threads, scale),
        histo(threads, scale),
        tpacf(threads, scale),
        kmeans(threads, scale),
    ]
}

fn time_workload(module: &Module, w: &Workload) -> Duration {
    let t0 = Instant::now();
    let _ = w.run(module);
    t0.elapsed()
}

/// Runs the program with the detected reduction loop of `kernel` outlined
/// onto `threads` threads; everything else stays sequential.
fn time_ours(module: &Module, w: &Workload, kernel: &str, threads: usize) -> Duration {
    let rs = detect_reductions(module);
    // Only reductions anchored at the kernel's outermost loop participate.
    let outer: Vec<_> = rs
        .iter()
        .filter(|r| r.function == kernel)
        .map(|r| r.depth)
        .min()
        .map(|d| {
            rs.iter()
                .filter(|r| r.function == kernel && r.depth == d)
                .cloned()
                .collect::<Vec<_>>()
        })
        .unwrap_or_default();
    let (pm, plan) =
        gr_parallel::parallelize(module, kernel, &outer).expect("fig15 kernel must outline");
    let t0 = Instant::now();
    let mut mem = Memory::new(&pm);
    let objs = w.materialize(&mut mem);
    let mut machine = Machine::new(&pm, mem);
    machine.set_handler(handler(&pm, plan, threads));
    for c in &w.calls {
        let args = w.resolve_args(c, &objs);
        machine
            .call(c.func, &args)
            .unwrap_or_else(|e| panic!("{kernel}: parallel run trapped: {e}"));
    }
    t0.elapsed()
}

/// Executes `func(ptr_args..., lo, hi)` range-parallel over `threads`
/// threads against shared memory: `locked` objects go behind a mutex
/// (critical-section simulation), `raw` objects are shared unsynchronized
/// (disjoint writes).
#[allow(clippy::too_many_arguments)]
fn run_range_parallel(
    module: &Module,
    mem: &mut Memory,
    func: &str,
    fixed_args: &[RtVal],
    count: i64,
    threads: usize,
    locked: &[ObjId],
    raw: &[ObjId],
) {
    let locked_shared: Vec<(ObjId, Arc<Mutex<gr_interp::memory::Obj>>)> = locked
        .iter()
        .map(|&o| (o, Arc::new(Mutex::new(mem.object(o).clone()))))
        .collect();
    let raw_shared: Vec<(ObjId, Arc<gr_parallel::overlay::SharedRaw>)> = raw
        .iter()
        .map(|&o| (o, Arc::new(gr_parallel::overlay::SharedRaw::new(mem.object(o).clone()))))
        .collect();
    let pieces = bisect(count, threads);
    let program = Program::new(module);
    std::thread::scope(|scope| {
        for &(start, len) in &pieces {
            let locked_shared = locked_shared.clone();
            let raw_shared = raw_shared.clone();
            let base: &Memory = &*mem;
            let program = &program;
            let mut args = fixed_args.to_vec();
            scope.spawn(move || {
                let mut overlay = OverlayMemory::new(base);
                for (o, m) in &locked_shared {
                    overlay.redirect_locked(*o, Arc::clone(m));
                }
                for (o, s) in &raw_shared {
                    overlay.redirect_raw(*o, Arc::clone(s));
                }
                args.push(RtVal::I(start));
                args.push(RtVal::I(start + len));
                let mut machine = Machine::from_program(program, overlay);
                machine
                    .call(func, &args)
                    .unwrap_or_else(|e| panic!("{func}: range-parallel trapped: {e}"));
            });
        }
    });
    for (o, m) in locked_shared {
        *mem.object_mut(o) = Arc::try_unwrap(m).expect("locked uniquely owned").into_inner();
    }
    for (o, s) in raw_shared {
        *mem.object_mut(o) = Arc::try_unwrap(s).expect("raw uniquely owned").into_obj();
    }
}

// --- EP ---------------------------------------------------------------

const EP_FIG15: &str = r#"
void ep_fill(float* x, int n) {
    int s = 271828183;
    for (int i = 0; i < n; i++) {
        s = (s * 1103515245 + 12345) % 2147483647;
        if (s < 0) s = -s;
        x[i] = s * 4.656612875e-10;
    }
}
// Chunk-seeded variant used by the coarse "original parallel version".
void ep_fill_range(float* x, int lo, int hi) {
    int s = 271828183 + lo * 97;
    for (int i = lo; i < hi; i++) {
        s = (s * 1103515245 + 12345) % 2147483647;
        if (s < 0) s = -s;
        x[i] = s * 4.656612875e-10;
    }
}
void ep_kernel(float* x, float* q, float* sums, int nk) {
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
}
"#;

fn ep(threads: usize, scale: usize) -> SpeedupRow {
    let module = gr_frontend::compile(EP_FIG15).expect("EP fig15 source");
    let nk = 120_000 * scale;
    use crate::workload::dsl::{call, farr};
    use crate::workload::{Arg, Init};
    let w = Workload {
        arrays: vec![farr(2 * nk, Init::Zero), farr(10, Init::Zero), farr(2, Init::Zero)],
        calls: vec![
            call("ep_fill", vec![Arg::A(0), Arg::I(2 * nk as i64)]),
            call("ep_kernel", vec![Arg::A(0), Arg::A(1), Arg::A(2), Arg::I(nk as i64)]),
        ],
    };
    let sequential = time_workload(&module, &w);
    let reduction = time_ours(&module, &w, "ep_kernel", threads);
    // Original: parallel chunk-seeded fill + the same reduction kernel.
    let original = {
        let rs = detect_reductions(&module);
        let kernel_rs: Vec<_> = rs.iter().filter(|r| r.function == "ep_kernel").cloned().collect();
        let (pm, plan) =
            gr_parallel::parallelize(&module, "ep_kernel", &kernel_rs).expect("ep kernel outlines");
        let t0 = Instant::now();
        let mut mem = Memory::new(&pm);
        let objs = w.materialize(&mut mem);
        run_range_parallel(
            &pm,
            &mut mem,
            "ep_fill_range",
            &[RtVal::ptr(objs[0])],
            2 * nk as i64,
            threads,
            &[],
            &[objs[0]],
        );
        let mut machine = Machine::new(&pm, mem);
        machine.set_handler(handler(&pm, plan, threads));
        machine
            .call(
                "ep_kernel",
                &[
                    RtVal::ptr(objs[0]),
                    RtVal::ptr(objs[1]),
                    RtVal::ptr(objs[2]),
                    RtVal::I(nk as i64),
                ],
            )
            .expect("ep original run");
        t0.elapsed()
    };
    SpeedupRow {
        name: "EP",
        sequential,
        reduction,
        original: Some(original),
        paper_reduction: 1.62,
        paper_original: 3.0,
    }
}

// --- IS ---------------------------------------------------------------

const IS_FIG15: &str = r#"
void is_create_seq(int* keys, int n, int maxkey) {
    int s = 314159265;
    for (int i = 0; i < n; i++) {
        s = (s * 1103515245 + 12345) % 2147483647;
        if (s < 0) s = -s;
        keys[i] = s % maxkey;
    }
}
void is_create_seq_range(int* keys, int maxkey, int lo, int hi) {
    int s = 314159265 + lo * 31;
    for (int i = lo; i < hi; i++) {
        s = (s * 1103515245 + 12345) % 2147483647;
        if (s < 0) s = -s;
        keys[i] = s % maxkey;
    }
}
void is_rank(int* key_buff, int* keys, int n) {
    for (int i = 0; i < n; i++)
        key_buff[keys[i]]++;
}
"#;

fn is(threads: usize, scale: usize) -> SpeedupRow {
    let module = gr_frontend::compile(IS_FIG15).expect("IS fig15 source");
    let n = 600_000 * scale;
    let maxkey = 4096i64;
    use crate::workload::dsl::{call, iarr};
    use crate::workload::{Arg, Init};
    let w = Workload {
        arrays: vec![iarr(n, Init::Zero), iarr(maxkey as usize, Init::Zero)],
        calls: vec![
            call("is_create_seq", vec![Arg::A(0), Arg::I(n as i64), Arg::I(maxkey)]),
            call("is_rank", vec![Arg::A(1), Arg::A(0), Arg::I(n as i64)]),
        ],
    };
    let sequential = time_workload(&module, &w);
    let reduction = time_ours(&module, &w, "is_rank", threads);
    // Original: both phases parallel (chunk-seeded key generation standing
    // in for the key-partitioning the real IS performs).
    let original = {
        let rs = detect_reductions(&module);
        let rank_rs: Vec<_> = rs.iter().filter(|r| r.function == "is_rank").cloned().collect();
        let (pm, plan) =
            gr_parallel::parallelize(&module, "is_rank", &rank_rs).expect("is_rank outlines");
        let t0 = Instant::now();
        let mut mem = Memory::new(&pm);
        let objs = w.materialize(&mut mem);
        run_range_parallel(
            &pm,
            &mut mem,
            "is_create_seq_range",
            &[RtVal::ptr(objs[0]), RtVal::I(maxkey)],
            n as i64,
            threads,
            &[],
            &[objs[0]],
        );
        let mut machine = Machine::new(&pm, mem);
        machine.set_handler(handler(&pm, plan, threads));
        machine
            .call("is_rank", &[RtVal::ptr(objs[1]), RtVal::ptr(objs[0]), RtVal::I(n as i64)])
            .expect("is original run");
        t0.elapsed()
    };
    SpeedupRow {
        name: "IS",
        sequential,
        reduction,
        original: Some(original),
        paper_reduction: 2.9,
        paper_original: 6.3,
    }
}

// --- histo ------------------------------------------------------------

const HISTO_FIG15: &str = r#"
void histo_kernel(int* histo, int* img, int n) {
    for (int i = 0; i < n; i++) {
        int v = img[i];
        int old = histo[v];
        if (old < 255) histo[v] = old + 1;
    }
}
void histo_range(int* histo, int* img, int lo, int hi) {
    for (int i = lo; i < hi; i++) {
        int v = img[i];
        int old = histo[v];
        if (old < 255) histo[v] = old + 1;
    }
}
"#;

fn histo(threads: usize, scale: usize) -> SpeedupRow {
    let module = gr_frontend::compile(HISTO_FIG15).expect("histo fig15 source");
    let n = 700_000 * scale;
    use crate::workload::dsl::{call, iarr};
    use crate::workload::{Arg, Init};
    let w = Workload {
        arrays: vec![iarr(1024, Init::Zero), iarr(n, Init::RandI(0, 1024))],
        calls: vec![call("histo_kernel", vec![Arg::A(0), Arg::A(1), Arg::I(n as i64)])],
    };
    let sequential = time_workload(&module, &w);
    let reduction = time_ours(&module, &w, "histo_kernel", threads);
    // Original: shared histogram behind a lock on every access ("achieves
    // no speedup against sequential on our system", §6.3).
    let original = {
        let t0 = Instant::now();
        let mut mem = Memory::new(&module);
        let objs = w.materialize(&mut mem);
        run_range_parallel(
            &module,
            &mut mem,
            "histo_range",
            &[RtVal::ptr(objs[0]), RtVal::ptr(objs[1])],
            n as i64,
            threads,
            &[objs[0]],
            &[],
        );
        t0.elapsed()
    };
    SpeedupRow {
        name: "histo",
        sequential,
        reduction,
        original: Some(original),
        paper_reduction: 2.277,
        paper_original: 1.0,
    }
}

// --- tpacf ------------------------------------------------------------

const TPACF_FIG15: &str = r#"
void tpacf_kernel(int* bins, float* binb, float* dots, int n, int nbins) {
    for (int i = 0; i < n; i++) {
        float d = dots[i];
        int lo = 0;
        int hi = nbins;
        while (hi > lo + 1) {
            int mid = (lo + hi) / 2;
            if (d >= binb[mid]) { hi = mid; } else { lo = mid; }
        }
        bins[lo] = bins[lo] + 1;
    }
}
void tpacf_range(int* bins, float* binb, float* dots, int nbins, int lo0, int hi0) {
    for (int i = lo0; i < hi0; i++) {
        float d = dots[i];
        int lo = 0;
        int hi = nbins;
        while (hi > lo + 1) {
            int mid = (lo + hi) / 2;
            if (d >= binb[mid]) { hi = mid; } else { lo = mid; }
        }
        bins[lo] = bins[lo] + 1;
    }
}
"#;

fn tpacf(threads: usize, scale: usize) -> SpeedupRow {
    let module = gr_frontend::compile(TPACF_FIG15).expect("tpacf fig15 source");
    let n = 400_000 * scale;
    let nbins = 64i64;
    use crate::workload::dsl::{call, farr, iarr};
    use crate::workload::{Arg, Init};
    let w = Workload {
        arrays: vec![
            iarr(nbins as usize + 1, Init::Zero),
            farr(nbins as usize + 1, Init::SortedUnit),
            farr(n, Init::RandF(0.0, 1.0)),
        ],
        calls: vec![call(
            "tpacf_kernel",
            vec![Arg::A(0), Arg::A(1), Arg::A(2), Arg::I(n as i64), Arg::I(nbins)],
        )],
    };
    let sequential = time_workload(&module, &w);
    let reduction = time_ours(&module, &w, "tpacf_kernel", threads);
    // Original: the critical-section implementation the paper describes as
    // "implemented poorly […] resulting in slowdown versus sequential".
    let original = {
        let t0 = Instant::now();
        let mut mem = Memory::new(&module);
        let objs = w.materialize(&mut mem);
        run_range_parallel(
            &module,
            &mut mem,
            "tpacf_range",
            &[RtVal::ptr(objs[0]), RtVal::ptr(objs[1]), RtVal::ptr(objs[2]), RtVal::I(nbins)],
            n as i64,
            threads,
            &[objs[0]],
            &[],
        );
        t0.elapsed()
    };
    SpeedupRow {
        name: "tpacf",
        sequential,
        reduction,
        original: Some(original),
        paper_reduction: 35.7,
        paper_original: 0.9,
    }
}

// --- kmeans -----------------------------------------------------------

const KMEANS_FIG15: &str = r#"
void km_assign(float* pts, float* centers, int* counts, int* member_old, int* member_new, float* out, int n, int k, int d) {
    int delta = 0;
    for (int i = 0; i < n; i++) {
        int best = 0;
        float bestd = 1.0e30;
        for (int c = 0; c < k; c++) {
            float dist = 0.0;
            for (int j = 0; j < d; j++) {
                float t = pts[i * d + j] - centers[c * d + j];
                dist = dist + t * t;
            }
            if (dist < bestd) { bestd = dist; best = c; }
        }
        if (member_old[i] != best) delta++;
        member_new[i] = best;
        counts[best] = counts[best] + 1;
    }
    out[0] = delta;
}
"#;

fn kmeans(threads: usize, scale: usize) -> SpeedupRow {
    let module = gr_frontend::compile(KMEANS_FIG15).expect("kmeans fig15 source");
    let n = 40_000 * scale;
    let k = 8i64;
    let d = 4i64;
    use crate::workload::dsl::{call, farr, iarr};
    use crate::workload::{Arg, Init};
    let w = Workload {
        arrays: vec![
            farr(n * d as usize, Init::RandF(0.0, 1.0)),
            farr((k * d) as usize, Init::RandF(0.0, 1.0)),
            iarr(k as usize, Init::Zero),
            iarr(n, Init::Zero),
            farr(2, Init::Zero),
            iarr(n, Init::Zero),
        ],
        calls: vec![call(
            "km_assign",
            vec![
                Arg::A(0),
                Arg::A(1),
                Arg::A(2),
                Arg::A(3),
                Arg::A(5),
                Arg::A(4),
                Arg::I(n as i64),
                Arg::I(k),
                Arg::I(d),
            ],
        )],
    };
    let sequential = time_workload(&module, &w);
    // The paper's transformation pass fails on kmeans ("multiple histogram
    // updates in a nested loop") and reports the achievable speedup
    // instead; this runtime handles it, so ours is measured directly. The
    // original parallel version "is entirely based on reduction
    // parallelism": the same configuration, so it is not timed twice.
    let reduction = time_ours(&module, &w, "km_assign", threads);
    SpeedupRow {
        name: "kmeans",
        sequential,
        reduction,
        original: None,
        paper_reduction: 8.0,
        paper_original: 8.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig15_programs_outline() {
        // Every fig15 kernel must pass detection + outlining.
        for (src, kernel) in [
            (EP_FIG15, "ep_kernel"),
            (IS_FIG15, "is_rank"),
            (HISTO_FIG15, "histo_kernel"),
            (TPACF_FIG15, "tpacf_kernel"),
            (KMEANS_FIG15, "km_assign"),
        ] {
            let module = gr_frontend::compile(src).unwrap();
            let rs = detect_reductions(&module);
            let outer: Vec<_> = rs
                .iter()
                .filter(|r| r.function == kernel)
                .map(|r| r.depth)
                .min()
                .map(|dmin| {
                    rs.iter()
                        .filter(|r| r.function == kernel && r.depth == dmin)
                        .cloned()
                        .collect::<Vec<_>>()
                })
                .unwrap_or_default();
            assert!(!outer.is_empty(), "{kernel}: no reductions detected");
            gr_parallel::parallelize(&module, kernel, &outer)
                .unwrap_or_else(|e| panic!("{kernel}: outline failed: {e}"));
        }
    }

    #[test]
    fn parallel_results_match_sequential_for_is() {
        let module = gr_frontend::compile(IS_FIG15).unwrap();
        let n = 50_000i64;
        let maxkey = 512i64;
        // Sequential.
        let mut mem = Memory::new(&module);
        let keys = mem.alloc_int(&vec![0; n as usize]);
        let buff = mem.alloc_int(&vec![0; maxkey as usize]);
        let mut seq = Machine::new(&module, mem);
        seq.call("is_create_seq", &[RtVal::ptr(keys), RtVal::I(n), RtVal::I(maxkey)])
            .unwrap();
        seq.call("is_rank", &[RtVal::ptr(buff), RtVal::ptr(keys), RtVal::I(n)]).unwrap();
        let expect = seq.mem.ints(buff).to_vec();
        // Parallel.
        let rs = detect_reductions(&module);
        let rank_rs: Vec<_> = rs.iter().filter(|r| r.function == "is_rank").cloned().collect();
        let (pm, plan) = gr_parallel::parallelize(&module, "is_rank", &rank_rs).unwrap();
        let mut mem = Memory::new(&pm);
        let keys = mem.alloc_int(&vec![0; n as usize]);
        let buff = mem.alloc_int(&vec![0; maxkey as usize]);
        let mut par = Machine::new(&pm, mem);
        par.set_handler(handler(&pm, plan, 8));
        par.call("is_create_seq", &[RtVal::ptr(keys), RtVal::I(n), RtVal::I(maxkey)])
            .unwrap();
        par.call("is_rank", &[RtVal::ptr(buff), RtVal::ptr(keys), RtVal::I(n)]).unwrap();
        assert_eq!(par.mem.ints(buff), expect.as_slice());
    }

    #[test]
    fn locked_strategy_matches_sequential_counts_for_tpacf() {
        // tpacf's update is load-then-store under one lock per access; the
        // total count is preserved even though bin-level interleavings may
        // differ (increments of disjoint iterations hit disjoint bins more
        // often than not; the total is what the experiment checks).
        let module = gr_frontend::compile(TPACF_FIG15).unwrap();
        let n = 20_000i64;
        let nbins = 32i64;
        let mut mem = Memory::new(&module);
        let bins = mem.alloc_int(&vec![0; nbins as usize + 1]);
        let mut binb: Vec<f64> = (0..=nbins).map(|i| i as f64 / nbins as f64).collect();
        binb[0] = 0.0001;
        let binb = mem.alloc_float(&binb);
        let dots: Vec<f64> = (0..n).map(|i| ((i * 37) % 1000) as f64 / 1000.0 + 0.0005).collect();
        let dots = mem.alloc_float(&dots);
        run_range_parallel(
            &module,
            &mut mem,
            "tpacf_range",
            &[RtVal::ptr(bins), RtVal::ptr(binb), RtVal::ptr(dots), RtVal::I(nbins)],
            n,
            4,
            &[bins],
            &[],
        );
        let total: i64 = mem.ints(bins).iter().sum();
        assert!(total > 0 && total <= n);
    }
}
