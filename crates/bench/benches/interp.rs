//! Interpreter throughput on representative kernels (the substrate all
//! speedup measurements share), one per control-flow shape the decoder
//! lays out differently:
//!
//! * a counted float sum, whose latch runs inside the loop body;
//! * a key search that misses, so every iteration leaves its compare
//!   through the empty `if.else` and `if.end` blocks to the latch;
//! * a saturating histogram, an `if` without `else` whose arms meet at an
//!   empty join before the latch;
//! * the `tpacf` binary-search histogram, whose while loop, if/else
//!   diamond of empty blocks, integer division, float compare and
//!   histogram store cover branches and stores too.

use gr_bench::timing::bench;
use gr_benchsuite::rng::StdRng;
use gr_interp::{Machine, Memory, RtVal};

const SUM: &str = "float sum(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }";

const FINDKEY: &str = "void findkey(int* a, int* out, int key, int n) {
    int r = n;
    for (int i = 0; i < n; i++) {
        if (a[i] == key) { r = i; break; }
    }
    out[0] = r;
}";

const HISTO: &str = "void histo_kernel(int* histo, int* img, int n) {
    for (int i = 0; i < n; i++) {
        int v = img[i];
        int old = histo[v];
        if (old < 255) histo[v] = old + 1;
    }
}";

const TPACF: &str = "void tpacf_kernel(int* bins, float* binb, float* dots, int n, int nbins) {
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
}";

fn main() {
    let m = gr_frontend::compile(SUM).unwrap();
    let data: Vec<f64> = (0..100_000).map(|i| i as f64).collect();
    bench("interp/sum-100k", || {
        let mut mem = Memory::new(&m);
        let a = mem.alloc_float(&data);
        let mut machine = Machine::new(&m, mem);
        machine.call("sum", &[RtVal::ptr(a), RtVal::I(data.len() as i64)]).unwrap()
    });

    // 60k keys that all miss, as the `exploit` workload's large calls.
    let m = gr_frontend::compile(FINDKEY).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let keys: Vec<i64> = (0..60_000).map(|_| rng.gen_range(0..1 << 30)).collect();
    bench("interp/findkey-60k", || {
        let mut mem = Memory::new(&m);
        let out = mem.alloc_int(&[0]);
        let args = [
            RtVal::ptr(mem.alloc_int(&keys)),
            RtVal::ptr(out),
            RtVal::I(-7),
            RtVal::I(keys.len() as i64),
        ];
        let mut machine = Machine::new(&m, mem);
        machine.call("findkey", &args).unwrap();
        assert_eq!(machine.mem.ints(out), &[keys.len() as i64]);
    });

    // 60k pixels over 1024 bins, as the `exploit` workload's large calls.
    let m = gr_frontend::compile(HISTO).unwrap();
    let img: Vec<i64> = (0..60_000).map(|_| rng.gen_range(0..1024)).collect();
    bench("interp/histo-60k", || {
        let mut mem = Memory::new(&m);
        let histo = mem.alloc_int(&[0; 1024]);
        let args = [RtVal::ptr(histo), RtVal::ptr(mem.alloc_int(&img)), RtVal::I(img.len() as i64)];
        let mut machine = Machine::new(&m, mem);
        machine.call("histo_kernel", &args).unwrap();
        assert_eq!(machine.mem.ints(histo).iter().sum::<i64>(), img.len() as i64);
    });

    // 40k dots over 64 bins, as the `exploit` workload's large calls.
    let m = gr_frontend::compile(TPACF).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let mut binb: Vec<f64> = (0..65).map(|_| rng.gen_range(0.001..0.999)).collect();
    binb.sort_by(f64::total_cmp);
    let dots: Vec<f64> = (0..40_000).map(|_| rng.gen_range(0.0..1.0)).collect();
    bench("interp/tpacf-40k", || {
        let mut mem = Memory::new(&m);
        let bins = mem.alloc_int(&[0; 65]);
        let args = [
            RtVal::ptr(bins),
            RtVal::ptr(mem.alloc_float(&binb)),
            RtVal::ptr(mem.alloc_float(&dots)),
            RtVal::I(dots.len() as i64),
            RtVal::I(64),
        ];
        let mut machine = Machine::new(&m, mem);
        machine.call("tpacf_kernel", &args).unwrap();
        assert_eq!(machine.mem.ints(bins).iter().sum::<i64>(), dots.len() as i64);
    });
}
