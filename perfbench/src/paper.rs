//! `paper-detect`: the paper's own evaluation programs through detection.
//!
//! One operation compiles one of the 49 bundled programs (the 40
//! NAS/Parboil/Rodinia miniatures plus the 9 micro programs, 160 functions)
//! and runs the full registry on every function. Programs are taken in a
//! fresh seeded permutation per pass, so every pass covers all of them.

use std::hint::black_box;
use std::time::Instant;

use gr_analysis::Analyses;
use gr_benchsuite::ProgramDef;
use gr_core::atoms::MatchCtx;
use gr_core::detect::PrefixCache;
use gr_core::{DetectBudget, DetectionReport, IdiomRegistry, ReductionKind};

use crate::calib::{closed_loop, Calibrator, Series};
use crate::rng::Rng;
use crate::spans::Recorder;
use crate::{phase_factor, phases, stats, timed_setup, Metrics, Outcome, RunConfig, Tally, Timing};

use ReductionKind::{AnyOf, Histogram, Scalar};
use ReductionKind::{ArgMin, FindFirst, FindLast, FindMinIndex, FoldUntil, MapReduceFusion, Scan};

/// Hand-written expectations per program: scalar reductions, histogram
/// reductions, and any other kinds. The scalar and histogram counts are the
/// paper's per-program figures (§6.1 totals: 84 scalar, 6 histogram — 3 in
/// NAS, 2 in Parboil, 1 in Rodinia); kmeans' distance minimum is also an
/// argmin; the micro programs report the kinds their documentation names.
pub const EXPECTED: &[(&str, usize, usize, &[ReductionKind])] = &[
    ("BT", 4, 0, &[]),
    ("CG", 5, 0, &[]),
    ("DC", 2, 1, &[]),
    ("EP", 2, 1, &[]),
    ("FT", 3, 0, &[]),
    ("IS", 0, 1, &[]),
    ("LU", 4, 0, &[]),
    ("MG", 3, 0, &[]),
    ("SP", 1, 0, &[]),
    ("UA", 11, 0, &[]),
    ("bfs", 0, 0, &[]),
    ("cutcp", 7, 0, &[]),
    ("histo", 0, 1, &[]),
    ("lbm", 0, 0, &[]),
    ("mri-gridding", 0, 0, &[]),
    ("mri-q", 1, 0, &[]),
    ("sad", 0, 0, &[]),
    ("sgemm", 1, 0, &[]),
    ("spmv", 0, 0, &[]),
    ("stencil", 0, 0, &[]),
    ("tpacf", 0, 1, &[]),
    ("backprop", 2, 0, &[]),
    ("bfs", 0, 0, &[]),
    ("b+tree", 1, 0, &[]),
    ("cfd", 3, 0, &[]),
    ("heartwall", 3, 0, &[]),
    ("hotspot", 1, 0, &[]),
    ("hotspot3D", 1, 0, &[]),
    ("kmeans", 3, 1, &[ArgMin]),
    ("lavaMD", 2, 0, &[]),
    ("leukocyte", 4, 0, &[]),
    ("lud", 0, 0, &[]),
    ("mummergpu", 1, 0, &[]),
    ("myocyte", 2, 0, &[]),
    ("nn", 1, 0, &[]),
    ("nw", 0, 0, &[]),
    ("particlefilter", 9, 0, &[]),
    ("pathfinder", 0, 0, &[]),
    ("srad", 4, 0, &[]),
    ("streamcluster", 3, 0, &[]),
    ("scan-offsets", 0, 0, &[Scan]),
    ("scan-running-sum", 0, 0, &[Scan]),
    ("argmin-nearest", 0, 0, &[ArgMin]),
    ("search-find-key", 0, 0, &[FindFirst]),
    ("search-any-hit", 0, 0, &[AnyOf]),
    ("search-first-below", 0, 0, &[FindMinIndex]),
    ("fold-sum-until", 0, 0, &[FoldUntil]),
    ("fuse-square-sum", 1, 0, &[MapReduceFusion]),
    ("search-find-last", 0, 0, &[FindLast]),
];

/// The sorted kind names expected for entry `i` of [`EXPECTED`].
fn expected_kinds(i: usize) -> Vec<String> {
    let (_, scalars, histograms, others) = EXPECTED[i];
    let mut kinds: Vec<String> = std::iter::repeat_n(Scalar, scalars)
        .chain(std::iter::repeat_n(Histogram, histograms))
        .chain(others.iter().copied())
        .map(|k| k.to_string())
        .collect();
    kinds.sort();
    kinds
}

/// Whether the reports of one program match its expectation: the same
/// multiset of kinds, and no report degraded.
fn check(reports: &[DetectionReport], expected: &[String]) -> bool {
    let mut kinds: Vec<String> =
        reports.iter().flat_map(|r| &r.reductions).map(|r| r.kind.to_string()).collect();
    kinds.sort();
    kinds == expected && reports.iter().all(|r| !r.status.is_degraded())
}

struct State {
    programs: Vec<ProgramDef>,
    expected: Vec<Vec<String>>,
    registry: IdiomRegistry,
    rng: Rng,
    order: Vec<usize>,
    pos: usize,
    /// Per function in the traced part: (registry seconds, solver steps).
    registry_samples: Vec<(f64, usize)>,
}

/// The 49 bundled programs, in suite order.
fn programs() -> Vec<ProgramDef> {
    let mut v = gr_benchsuite::all_programs();
    v.extend(gr_benchsuite::micro::programs());
    v
}

impl State {
    fn new(seed: u64) -> State {
        let programs = programs();
        assert_eq!(programs.len(), EXPECTED.len(), "one expectation per bundled program");
        let expected = (0..programs.len())
            .map(|i| {
                assert_eq!(programs[i].name, EXPECTED[i].0, "expectations follow suite order");
                expected_kinds(i)
            })
            .collect();
        let order = (0..programs.len()).collect();
        let mut s = State {
            programs,
            expected,
            registry: IdiomRegistry::with_default_idioms(),
            rng: Rng::new(seed, 1),
            order,
            pos: usize::MAX,
            registry_samples: Vec::new(),
        };
        // Warm-up: one full pass.
        let mut rec = Recorder::new(false);
        for _ in 0..s.programs.len() {
            let _ = s.op(&mut rec);
        }
        s
    }

    fn next_program(&mut self) -> usize {
        if self.pos >= self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.pos = 0;
        }
        self.pos += 1;
        self.order[self.pos - 1]
    }

    /// Compiles and detects program `p`: the raw seconds, and the reports
    /// (`None` when the program failed to compile).
    fn detect(&mut self, p: usize, rec: &mut Recorder) -> (f64, Option<Vec<DetectionReport>>) {
        let source = self.programs[p].source;
        let t = Instant::now();
        let op = rec.open("program");
        let Ok(module) = rec.span("compile", || gr_frontend::compile(source)) else {
            rec.close(op);
            return (t.elapsed().as_secs_f64(), None);
        };
        let mut reports = Vec::with_capacity(module.functions.len());
        for func in &module.functions {
            let analyses = rec.span("analyses", || Analyses::new(&module, func));
            let ctx = rec.span("matchctx", || MatchCtx::new(&module, func, &analyses));
            let r0 = Instant::now();
            let report = rec.span("registry", || {
                self.registry.detect_in_function_report(
                    &ctx,
                    Some(&mut PrefixCache::new()),
                    DetectBudget::UNLIMITED,
                )
            });
            if rec.is_on() {
                self.registry_samples.push((r0.elapsed().as_secs_f64(), report.steps_used));
            }
            reports.push(report);
        }
        rec.close(op);
        (t.elapsed().as_secs_f64(), Some(black_box(reports)))
    }

    /// One operation: the next program in seeded order. Returns the raw
    /// seconds and whether its output checked out.
    fn op(&mut self, rec: &mut Recorder) -> (f64, bool) {
        let p = self.next_program();
        rec.next_op();
        let (secs, reports) = self.detect(p, rec);
        (secs, reports.is_some_and(|r| check(&r, &self.expected[p])))
    }

    /// One full pass in suite order: (solver steps, reductions found).
    fn pass(&mut self) -> (usize, usize) {
        let mut rec = Recorder::new(false);
        let (mut steps, mut found) = (0, 0);
        for p in 0..self.programs.len() {
            let (_, reports) = self.detect(p, &mut rec);
            for r in reports.iter().flatten() {
                steps += r.steps_used;
                found += r.reductions.len();
            }
        }
        (steps, found)
    }
}

/// The end-to-end timings: setup (raw, calibrated), then programs per
/// second and the p50 (light) and p99 (heavy) program latency over the
/// operations in `s`.
fn timings(setup: (f64, f64), s: &Series) -> Vec<Timing> {
    let per_s = |v: &[f64]| Some(v.len() as f64 / v.iter().sum::<f64>());
    let ms = |v: &[f64], p: f64| stats::percentile(v, p).map(|x| x * 1e3);
    vec![
        ("setup_s", Some(setup.0), Some(setup.1), "s"),
        ("throughput_per_s", per_s(&s.raw), per_s(&s.cal), "1/s"),
        ("latency_ms.light", ms(&s.raw, 50.0), ms(&s.cal, 50.0), "ms"),
        ("latency_ms.heavy", ms(&s.raw, 99.0), ms(&s.cal, 99.0), "ms"),
    ]
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut cal = Calibrator::default();
    let (mut state, setup_raw, setup_cal) = timed_setup(&mut cal, || State::new(cfg.seed));
    let setup = (setup_raw, setup_cal);
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    let mut rec = Recorder::new(false);
    let (untraced, traced) = phases(cfg);

    let series = closed_loop(&mut cal, untraced, cfg.gap(), 1, |out| {
        let (secs, ok) = state.op(&mut rec);
        tally.record(ok);
        out.push((0, secs));
    });
    if !cfg.trace {
        metrics.timings(&timings(setup, &series[0]), false);
        return Outcome { tally, metrics, spans: rec };
    }

    // Traced part: spans around compile, analyses, MatchCtx and registry.
    let ref_from = cal.ref_ms.len();
    rec.set_on(true);
    let traced_series = closed_loop(&mut cal, traced, cfg.gap(), 1, |out| {
        let (secs, ok) = state.op(&mut rec);
        tally.record(ok);
        out.push((0, secs));
    });
    rec.set_on(false);
    metrics.timings(&timings(setup, &series[0].merged(&traced_series[0])), true);
    let f = phase_factor(&cal, ref_from);
    let us = |v: Option<f64>| v.map(|x| x * f * 1e6);
    metrics.put("frontend.compile_us.p50", us(stats::median(&rec.durations("compile"))), "us");
    metrics.put("analysis.analyses_us.p50", us(stats::median(&rec.durations("analyses"))), "us");
    metrics.put("core.matchctx_us.p50", us(stats::median(&rec.durations("matchctx"))), "us");
    let registry = rec.durations("registry");
    metrics.put("core.registry_us.p50", us(stats::median(&registry)), "us");
    metrics.put("core.registry_us.p99", us(stats::percentile(&registry, 99.0)), "us");
    let fixed: Vec<f64> = state
        .registry_samples
        .iter()
        .filter(|(_, steps)| *steps == 0)
        .map(|(t, _)| *t)
        .collect();
    metrics.put("core.registry_us.fixed", us(stats::median(&fixed)), "us");
    metrics.put(
        "core.registry_share",
        Some(rec.self_time("registry") / rec.total("program")),
        "ratio",
    );
    metrics.put(
        "bench.span_overhead",
        stats::median(&traced_series[0].cal)
            .zip(stats::median(&series[0].cal))
            .map(|(t, u)| t / u),
        "ratio",
    );

    // One pass per trace-session state, alternating, for the session
    // overhead; the session passes also yield the post-check counters.
    let (mut with, mut without) = (Vec::new(), Vec::new());
    let (mut reports, mut rejects) = (0i64, 0i64);
    let mut per_pass = (0, 0);
    for _ in 0..3 {
        let (_, _, c) = cal.time(|| state.pass());
        without.push(c);
        let session = gr_trace::start();
        let ((steps, found), _, c) = cal.time(|| state.pass());
        let trace = session.finish();
        with.push(c);
        per_pass = (steps, found);
        for (k, v) in trace.counters_with_prefix("detect.") {
            if k.starts_with("detect.reports") {
                reports += v;
            } else if k.starts_with("detect.postcheck_rejects")
                || k.starts_with("detect.classify_rejects")
            {
                rejects += v;
            }
        }
    }
    metrics.put(
        "trace.session_overhead",
        stats::median(&with).zip(stats::median(&without)).map(|(a, b)| a / b),
        "ratio",
    );
    metrics.put("core.solver_steps", Some(per_pass.0 as f64), "count");
    metrics.put("core.reductions", Some(per_pass.1 as f64), "count");
    metrics.put(
        "core.postcheck_accept_ratio",
        Some(reports as f64 / (reports + rejects).max(1) as f64),
        "ratio",
    );
    metrics.put("bench.ref_ms", stats::median(&cal.ref_ms), "ms");
    Outcome { tally, metrics, spans: rec }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_benchsuite::Suite;

    #[test]
    fn expectations_match_the_paper_totals() {
        let programs = programs();
        let (mut scalar, mut hist) = (0, 0);
        let mut hist_by_suite = std::collections::BTreeMap::new();
        for (p, &(name, s, h, others)) in programs.iter().zip(EXPECTED) {
            assert_eq!(p.name, name);
            if p.suite == Suite::Micro {
                assert_eq!(others.len(), 1, "{name}: one documented idiom per micro program");
                continue;
            }
            assert_eq!((s, h), (p.paper.scalar, p.paper.histogram), "{name}");
            scalar += s;
            hist += h;
            *hist_by_suite.entry(p.suite.to_string()).or_insert(0) += h;
        }
        assert_eq!((scalar, hist), (84, 6), "paper §6.1 totals");
        assert_eq!(hist_by_suite["NAS"], 3);
        assert_eq!(hist_by_suite["Parboil"], 2);
        assert_eq!(hist_by_suite["Rodinia"], 1);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<usize> = (0..49).collect();
        let mut b = a.clone();
        Rng::new(5, 1).shuffle(&mut a);
        Rng::new(5, 1).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..49).collect::<Vec<_>>());
        let mut c: Vec<usize> = (0..49).collect();
        Rng::new(6, 1).shuffle(&mut c);
        assert_ne!(a, c);
    }
}
