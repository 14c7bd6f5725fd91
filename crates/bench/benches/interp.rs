//! Interpreter throughput on representative kernels (the substrate all
//! speedup measurements share): a counted float sum, and the `tpacf`
//! binary-search histogram, whose while loop, if/else diamond of empty
//! blocks, integer division, float compare and histogram store cover
//! branches and stores too.

use gr_bench::timing::bench;
use gr_benchsuite::rng::StdRng;
use gr_interp::{Machine, Memory, RtVal};

const SUM: &str = "float sum(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }";

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
