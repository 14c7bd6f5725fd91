//! `serve-steady`: one detection server with a full on-disk cache.
//!
//! One operation mirrors one `greduce serve` request: a module of eight
//! functions from the seeded synthetic corpus is compiled, passed to
//! `DetectionServer::run_batch`, and the cache is persisted. Six functions
//! per request are warm (re-sent recently served functions, some of them
//! alpha-renamed) and two are new (cold: solve, store, evict). The cache is
//! pre-filled to its capacity during setup, so it stays full and every
//! request costs about the same.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use gr_benchsuite::fuzz::{synthetic_corpus, FuzzCase};
use gr_core::{function_fingerprint, DetectBudget, DetectionReport, ReductionKind};
use gr_ir::Module;
use gr_server::{BatchResult, CacheOutcome, DetectionServer, ServeConfig};

use crate::calib::{self, closed_loop, Calibrator, Series, NOMINAL_REF_P95_MS};
use crate::rng::Rng;
use crate::spans::Recorder;
use crate::{phase_factor, phases, stats, timed_setup, Metrics, Outcome, RunConfig, Tally, Timing};

/// Cache capacity in entries; setup fills it.
const CAPACITY: usize = 2048;
/// Functions per request.
const PER_REQUEST: usize = 8;
/// New (cold) functions per request.
const COLD_PER_REQUEST: usize = 2;
/// Recently served functions a warm slot draws from; far fewer than the
/// cache holds, so every warm draw is still cached.
const RECENT: usize = 512;
/// Corpus functions generated per run: the prefill plus enough new
/// functions for two cold slots per request over a minute of requests.
const CORPUS: usize = 16_384;
/// Requests served during setup, after the prefill.
const WARMUP_REQUESTS: usize = 16;

/// The reduction kinds a corpus function's generator family implies. The
/// family is the second component of the corpus case name
/// (`corpus/<family>/<index>`, with `/twin` appended for alpha-renamed
/// twins).
#[must_use]
pub fn family_kinds(case_name: &str) -> Option<&'static [ReductionKind]> {
    use ReductionKind::{ArgMin, FindFirst, FoldUntil, Histogram, MapReduceFusion, Scalar, Scan};
    let family = case_name.strip_prefix("corpus/")?.split('/').next()?;
    Some(match family {
        "fold-sum" | "fold-guarded" => &[Scalar],
        "histogram" => &[Histogram],
        "scan" => &[Scan],
        "argmin" => &[ArgMin],
        "find-first" => &[FindFirst],
        "fold-until" => &[FoldUntil],
        "fusion" => &[Scalar, MapReduceFusion],
        _ => return None,
    })
}

fn sorted_kinds<'a>(kinds: impl Iterator<Item = &'a ReductionKind>) -> Vec<String> {
    let mut v: Vec<String> = kinds.map(ToString::to_string).collect();
    v.sort();
    v
}

/// The report with function names blanked: what a warm hit must reproduce.
fn signature(report: &DetectionReport) -> String {
    let mut reductions = report.reductions.clone();
    for r in &mut reductions {
        r.function.clear();
    }
    format!("{reductions:?}")
}

/// One function of a request.
struct Slot {
    /// Corpus index.
    idx: usize,
    /// Name the function carries in this request.
    name: String,
    /// Source, renamed when needed.
    src: String,
}

struct State {
    corpus: Vec<FuzzCase>,
    /// Corpus indices that are not twins of their predecessor.
    fresh: Vec<usize>,
    next_fresh: usize,
    recent: VecDeque<usize>,
    rng: Rng,
    serial: u64,
    server: DetectionServer,
    /// Signature of each fingerprint's cold report.
    cold: HashMap<u64, String>,
    /// Whether anything in setup failed its check.
    setup_failures: u64,
    /// Functions, warm hits and solver steps in the traced part.
    traced_functions: usize,
    traced_warm: usize,
    traced_steps: usize,
    traced_requests: usize,
}

fn module_source(slots: &[Slot]) -> String {
    slots.iter().map(|s| s.src.as_str()).collect::<Vec<_>>().join("\n")
}

impl State {
    fn new(seed: u64, cache_path: PathBuf) -> State {
        let _ = std::fs::remove_file(&cache_path);
        let corpus = synthetic_corpus(seed, CORPUS);
        let fresh: Vec<usize> = (0..corpus.len()).filter(|i| i % 16 != 15).collect();
        let server = DetectionServer::new(ServeConfig {
            jobs: 2,
            cache_path: Some(cache_path),
            capacity: CAPACITY,
            budget: DetectBudget::UNLIMITED,
        });
        let mut s = State {
            corpus,
            fresh,
            next_fresh: 0,
            recent: VecDeque::with_capacity(RECENT + PER_REQUEST),
            rng: Rng::new(seed, 2),
            serial: 0,
            server,
            cold: HashMap::new(),
            setup_failures: 0,
            traced_functions: 0,
            traced_warm: 0,
            traced_steps: 0,
            traced_requests: 0,
        };
        // Prefill: the first CAPACITY new functions, eight per module, in
        // one batch, then one persist.
        let slots: Vec<Slot> = (0..CAPACITY).map(|_| s.fresh_slot()).collect();
        let mut modules = Vec::new();
        let mut metas = Vec::new();
        for chunk in slots.chunks(PER_REQUEST) {
            match gr_frontend::compile(&module_source(chunk)) {
                Ok(m) => modules.push(m),
                Err(_) => s.setup_failures += 1,
            }
            metas.extend(chunk.iter().map(|sl| sl.idx));
        }
        let batch = s.server.run_batch(&modules);
        if !s.check(&batch, &metas) || s.server.persist().is_err() {
            s.setup_failures += 1;
        }
        s.recent.extend(metas.iter().rev().take(RECENT).rev());
        let mut rec = Recorder::new(false);
        for _ in 0..WARMUP_REQUESTS {
            if !s.op(&mut rec).1 {
                s.setup_failures += 1;
            }
        }
        s
    }

    fn fresh_slot(&mut self) -> Slot {
        let idx = self.fresh[self.next_fresh % self.fresh.len()];
        self.next_fresh += 1;
        Slot { idx, name: format!("f{idx}"), src: self.corpus[idx].src.clone() }
    }

    /// A recently served function, re-sent as is or alpha-renamed (always
    /// renamed when its name is already taken in this request).
    fn warm_slot(&mut self, taken: &[Slot]) -> Slot {
        let idx = self.recent[self.rng.below(self.recent.len())];
        let name = format!("f{idx}");
        if self.rng.below(4) != 0 && taken.iter().all(|s| s.name != name) {
            return Slot { idx, name, src: self.corpus[idx].src.clone() };
        }
        self.serial += 1;
        let renamed = format!("f{idx}r{}", self.serial);
        let src = self.corpus[idx].src.replacen(&format!(" {name}("), &format!(" {renamed}("), 1);
        Slot { idx, name: renamed, src }
    }

    fn next_request(&mut self) -> Vec<Slot> {
        let mut cold_at = [0usize; COLD_PER_REQUEST];
        let mut positions: Vec<usize> = (0..PER_REQUEST).collect();
        self.rng.shuffle(&mut positions);
        cold_at.copy_from_slice(&positions[..COLD_PER_REQUEST]);
        let mut slots: Vec<Slot> = Vec::with_capacity(PER_REQUEST);
        for pos in 0..PER_REQUEST {
            let slot =
                if cold_at.contains(&pos) { self.fresh_slot() } else { self.warm_slot(&slots) };
            slots.push(slot);
        }
        slots
    }

    /// Checks every function of a batch: the family's kinds, no degraded
    /// report, and a warm report equal to its fingerprint's cold report.
    fn check(&mut self, batch: &BatchResult, idxs: &[usize]) -> bool {
        if batch.results.len() != idxs.len() || !self.server.ledger().is_empty() {
            return false;
        }
        let mut ok = true;
        for (r, &idx) in batch.results.iter().zip(idxs) {
            let expected = family_kinds(&self.corpus[idx].name).map(|k| sorted_kinds(k.iter()));
            let got = sorted_kinds(r.report.reductions.iter().map(|x| &x.kind));
            ok &= expected.as_ref() == Some(&got) && !r.report.status.is_degraded();
            let sig = signature(&r.report);
            match r.outcome {
                CacheOutcome::Cold => {
                    ok &= *self.cold.entry(r.fingerprint).or_insert_with(|| sig.clone()) == sig;
                }
                CacheOutcome::Warm => ok &= self.cold.get(&r.fingerprint) == Some(&sig),
            }
        }
        ok
    }

    /// One request: compile → `run_batch` → `persist`, timed together.
    /// Returns the raw seconds, whether it checked out, and the module.
    fn op(&mut self, rec: &mut Recorder) -> (f64, bool, Option<Module>) {
        let slots = self.next_request();
        let source = module_source(&slots);
        rec.next_op();
        let t = Instant::now();
        let op = rec.open("request");
        let Ok(module) = rec.span("compile", || gr_frontend::compile(&source)) else {
            rec.close(op);
            return (t.elapsed().as_secs_f64(), false, None);
        };
        let server = &mut self.server;
        let batch = rec.span("run_batch", || server.run_batch(std::slice::from_ref(&module)));
        let persisted = rec.span("persist", || server.persist());
        rec.close(op);
        let secs = t.elapsed().as_secs_f64();
        let idxs: Vec<usize> = slots.iter().map(|s| s.idx).collect();
        let ok = persisted.is_ok() && self.check(&batch, &idxs);
        if rec.is_on() {
            self.traced_requests += 1;
            self.traced_functions += batch.summary.functions;
            self.traced_warm += batch.summary.warm_hits;
            self.traced_steps += batch.summary.solver_steps;
        }
        for s in &slots {
            if !self.recent.contains(&s.idx) {
                self.recent.push_back(s.idx);
            }
        }
        while self.recent.len() > RECENT {
            self.recent.pop_front();
        }
        (secs, ok, Some(module))
    }
}

/// The end-to-end timings: setup (raw, calibrated), then functions answered
/// per second and the p50 (light) and p95 (heavy) request latency over the
/// requests in `s`, which carried `functions` functions while the reference
/// loop took the samples `refs`.
///
/// Every request carries two cold functions, so the request tail is set by
/// host stalls rather than by the requests, and a stall is too brief for
/// the neighbouring reference samples to see. The tail is therefore
/// calibrated tail to tail: raw p95 × `NOMINAL_REF_P95_MS` ÷ the p95 of the
/// reference samples taken over the same run. It is the p95, not the p99,
/// because a slow host can leave a run with fewer than the thousand
/// requests a p99 needs, and because over five seeds the p99 spread twice
/// as wide.
fn timings(setup: (f64, f64), s: &Series, functions: usize, refs: &[f64]) -> Vec<Timing> {
    let per_s = |v: &[f64]| Some(functions as f64 / v.iter().sum::<f64>());
    let ms = |v: Option<f64>| v.map(|x| x * 1e3);
    let raw_p95 = stats::percentile(&s.raw, 95.0);
    let tail =
        stats::nearest_rank(refs, 95.0).map(|r| calib::calibrate(1.0, NOMINAL_REF_P95_MS, r));
    vec![
        ("setup_s", Some(setup.0), Some(setup.1), "s"),
        ("throughput_per_s", per_s(&s.raw), per_s(&s.cal), "1/s"),
        ("latency_ms.light", ms(stats::median(&s.raw)), ms(stats::median(&s.cal)), "ms"),
        ("latency_ms.heavy", ms(raw_p95), ms(raw_p95.zip(tail).map(|(p, t)| p * t)), "ms"),
    ]
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut cal = Calibrator::default();
    let cache_path = cfg.scratch.join("gr-cache.json");
    let (mut state, setup_raw, setup_cal) =
        timed_setup(&mut cal, || State::new(cfg.seed, cache_path.clone()));
    let setup = (setup_raw, setup_cal);
    let mut metrics = Metrics::default();
    let mut tally = Tally { attempted: 0, failed: state.setup_failures };
    let mut rec = Recorder::new(false);
    let (untraced, traced) = phases(cfg);

    let mut functions = 0usize;
    let refs_from = cal.ref_ms.len();
    let series = closed_loop(&mut cal, untraced, cfg.gap(), 1, |out| {
        let (secs, ok, module) = state.op(&mut rec);
        functions += module.map_or(0, |m| m.functions.len());
        tally.record(ok);
        out.push((0, secs));
    });
    if !cfg.trace {
        metrics.timings(&timings(setup, &series[0], functions, &cal.ref_ms[refs_from..]), false);
        return Outcome { tally, metrics, spans: rec };
    }

    // Traced part: spans around compile, run_batch and persist; the cache
    // render and the fingerprints are timed after a request, outside its
    // span.
    let ref_from = cal.ref_ms.len();
    rec.set_on(true);
    let traced_series = closed_loop(&mut cal, traced, cfg.gap(), 1, |out| {
        let (secs, ok, module) = state.op(&mut rec);
        functions += module.as_ref().map_or(0, |m| m.functions.len());
        tally.record(ok);
        out.push((0, secs));
        // The render probe repeats most of a persist, so it samples every
        // sixteenth request only.
        if state.traced_requests % 16 == 0 {
            let server = &state.server;
            rec.span("render", || black_box(server.cache().render().len()));
        }
        if let Some(m) = module {
            for func in &m.functions {
                rec.span("fingerprint", || black_box(function_fingerprint(&m, func)));
            }
        }
    });
    rec.set_on(false);
    let all = series[0].merged(&traced_series[0]);
    metrics.timings(&timings(setup, &all, functions, &cal.ref_ms[refs_from..]), true);
    let f = phase_factor(&cal, ref_from);
    let us = |v: Option<f64>| v.map(|x| x * f * 1e6);
    let batch = rec.durations("run_batch");
    let persist = rec.durations("persist");
    metrics.put("frontend.compile_us.p50", us(stats::median(&rec.durations("compile"))), "us");
    metrics.put("core.fingerprint_us.p50", us(stats::median(&rec.durations("fingerprint"))), "us");
    metrics.put("server.run_batch_us.p50", us(stats::median(&batch)), "us");
    metrics.put("server.run_batch_us.p99", us(stats::percentile(&batch, 99.0)), "us");
    metrics.put("server.render_us.p50", us(stats::median(&rec.durations("render"))), "us");
    metrics.put("server.persist_us.p50", us(stats::median(&persist)), "us");
    metrics.put("server.persist_us.p99", us(stats::percentile(&persist, 99.0)), "us");
    metrics.put(
        "server.persist_share",
        Some(rec.self_time("persist") / rec.total("request")),
        "ratio",
    );
    let requests = state.traced_requests.max(1) as f64;
    metrics.put(
        "server.hit_ratio",
        Some(state.traced_warm as f64 / state.traced_functions.max(1) as f64),
        "ratio",
    );
    metrics.put(
        "server.cold_solves",
        Some((state.traced_functions - state.traced_warm) as f64 / requests),
        "count",
    );
    metrics.put("server.solver_steps", Some(state.traced_steps as f64 / requests), "count");
    metrics.put("server.cache_entries", Some(state.server.cache().len() as f64), "count");
    metrics.put("server.cache_bytes", Some(state.server.cache().render().len() as f64), "bytes");
    metrics.put(
        "bench.span_overhead",
        stats::median(&traced_series[0].cal)
            .zip(stats::median(&series[0].cal))
            .map(|(t, u)| t / u),
        "ratio",
    );
    metrics.put("bench.ref_ms", stats::median(&cal.ref_ms), "ms");
    Outcome { tally, metrics, spans: rec }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn family_map_covers_every_corpus_family_and_twin() {
        let corpus = synthetic_corpus(11, 512);
        let mut families = BTreeSet::new();
        let mut twins = 0;
        for case in &corpus {
            assert!(family_kinds(&case.name).is_some(), "unmapped corpus case {}", case.name);
            families.insert(case.name.split('/').nth(1).unwrap().to_string());
            if case.name.ends_with("/twin") {
                twins += 1;
                let base = case.name.trim_end_matches("/twin");
                assert_eq!(family_kinds(&case.name), family_kinds(base));
            }
        }
        assert_eq!(families.len(), 8, "{families:?}");
        assert_eq!(twins, 512 / 16);
        assert_eq!(family_kinds("corpus/unknown/3"), None);
        assert_eq!(family_kinds("fold/self-gated"), None);
    }
}
