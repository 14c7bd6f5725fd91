//! # gr-server — detection as a service
//!
//! Turns the synchronous `gr-core` detection library into a served,
//! cache-persistent system: cold functions are solved on the server's
//! [`Pool`] (the parked-helper pool the parallel runtime uses), each job
//! borrowing the server's one [`IdiomRegistry`] and owning a
//! [`PrefixCache`] shard (reset between functions — prefix solutions
//! are assignments of one function's `ValueId`s), in front of a
//! **persistent cross-run cache**
//! ([`cache::ReportCache`], a `gr-cache/v2` journal on disk) keyed by
//! structural function fingerprints ([`gr_core::fingerprint`],
//! `gr-fp/v2`).
//!
//! The data path of one [`DetectionServer::run_batch`]:
//!
//! 1. The coordinator walks the submitted modules in order, computes
//!    each module's callee purity once, fingerprints every function
//!    with it, and serves warm hits straight from
//!    the persistent cache — **zero solver steps** for any function
//!    whose structure is unchanged since an earlier run (incremental
//!    re-detection: only changed fingerprints re-solve).
//! 2. Misses are solved in one [`Pool::run`] of at most `jobs` jobs, one
//!    per four misses: job 0 on the coordinator, the rest on helpers the
//!    server keeps parked between batches, so a batch with fewer than 8
//!    misses is solved on the coordinator alone. Each job claims misses
//!    from a shared cursor. Every solve runs the full budgeted registry
//!    driver and reports [`DetectionStatus::Degraded`] with GR-coded
//!    ledger entries (`GR001`) rather than stalling on adversarial
//!    functions.
//! 3. The coordinator puts each report into its **submission slot** —
//!    batch output is byte-identical to sequential
//!    [`gr_core::detect_reductions`] for any `jobs` count — and stores
//!    newly solved *complete* reports back into the cache, again in
//!    submission order, so the persisted artifact is deterministic.
//!
//! [`DetectionServer::persist`] then appends to the cache file only the
//! records the batch made: one store per new entry and one touch per
//! hit ([`cache::ReportCache::persist`]).
//!
//! A corrupted cache file on disk never poisons results: loading
//! degrades to an empty cache with a `GR006` ledger entry
//! ([`cache::ReportCache::load`]) and every function simply re-solves.
//!
//! Everything observable lands on the gr-trace ledger: `server.*`
//! counters for the batches (batches, functions, cold jobs) and
//! `cache.persistent.*` for the cache (hits, misses, stores, evictions,
//! poisoned loads, torn tails dropped at load, bytes appended and
//! compactions written).

pub mod cache;

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use gr_analysis::purity::PurityInfo;
use gr_analysis::Analyses;
use gr_core::atoms::MatchCtx;
use gr_core::detect::PrefixCache;
use gr_core::spec::registry::IdiomRegistry;
use gr_core::{
    detect_with_budget, function_fingerprint_with, DetectBudget, DetectionReport, DetectionStatus,
    GrError,
};
use gr_ir::Module;
use gr_parallel::pool::Pool;

pub use cache::{ReportCache, CACHE_SCHEMA, DEFAULT_CAPACITY};

/// Configuration of a [`DetectionServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Most threads that solve one batch, the caller's included. A batch
    /// uses one per four cold functions at most, and at least the
    /// caller's.
    pub jobs: usize,
    /// Persistent cache file (`gr-cache/v2`), written by this server
    /// alone; `None` serves from an in-memory cache only.
    pub cache_path: Option<PathBuf>,
    /// Persistent-cache capacity in entries (LRU beyond).
    pub capacity: usize,
    /// Solver budget applied to every cold solve.
    pub budget: DetectBudget,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            jobs: 4,
            cache_path: None,
            capacity: cache::DEFAULT_CAPACITY,
            budget: DetectBudget::UNLIMITED,
        }
    }
}

/// How one function's report was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Solved this batch.
    Cold,
    /// Served from the persistent cache — zero solver steps.
    Warm,
}

/// One function's outcome within a batch, in submission order.
#[derive(Debug, Clone)]
pub struct FunctionResult {
    /// Index of the submitted module the function came from.
    pub module: usize,
    /// Structural fingerprint (the cache key).
    pub fingerprint: u64,
    /// Cold solve or warm cache hit.
    pub outcome: CacheOutcome,
    /// The detection report (carries function name, reductions, status,
    /// steps). Warm reports always read `Complete` with 0 steps.
    pub report: DetectionReport,
}

/// Aggregate accounting for one batch.
#[derive(Debug, Clone, Default)]
pub struct BatchSummary {
    /// Functions processed.
    pub functions: usize,
    /// Functions served from the persistent cache.
    pub warm_hits: usize,
    /// Functions solved this batch.
    pub cold_solves: usize,
    /// Functions whose report degraded against the budget.
    pub degraded: usize,
    /// Total solver steps spent (cold solves only; hits are free).
    pub solver_steps: usize,
}

/// The result of [`DetectionServer::run_batch`]: per-function results in
/// submission order plus the batch ledger.
#[derive(Debug, Clone, Default)]
pub struct BatchResult {
    /// One entry per submitted function, in submission order.
    pub results: Vec<FunctionResult>,
    /// Aggregate accounting.
    pub summary: BatchSummary,
}

/// Fewest cold jobs that justify each solving thread: a batch with fewer
/// than `2 × MIN_JOBS_PER_WORKER` is solved on the coordinator alone. A
/// parked helper starts no thread, but each run costs its wake and the
/// wait until a second CPU runs it, which on a shared 2-vCPU host
/// stretches to milliseconds in the host's slow phases, against
/// ≈0.2–0.3 ms per synthetic-corpus cold function. At 1, each of
/// `serve-steady`'s two-cold requests wakes a helper: probes read ≈15–20%
/// more throughput on a quiet host (12 alternating 20 s pairs, at most 82
/// steal ticks per run), but every request then waits on the second vCPU,
/// the failure that spread `serve-steady` over 2618–3537 /s at 91–1162
/// steal ticks per run. The constant stays until the benchmark reports
/// steal time and can weigh the two.
const MIN_JOBS_PER_WORKER: usize = 4;

/// A function awaiting a cold solve.
struct Job {
    /// Index into the batch's result vector.
    slot: usize,
    /// Module index in the submitted slice.
    module: usize,
    /// Function index within the module.
    func: usize,
    /// Structural fingerprint (the cache key).
    fingerprint: u64,
}

/// A detection service instance: its configuration, its helper pool and
/// the persistent report cache, alive across any number of batches.
pub struct DetectionServer {
    config: ServeConfig,
    /// The idiom registry, built once; every job of every batch borrows
    /// it.
    registry: IdiomRegistry,
    /// Up to `jobs − 1` helpers, started by the first batch that needs
    /// them and parked between batches.
    pool: Pool,
    cache: ReportCache,
    ledger: Vec<GrError>,
}

impl DetectionServer {
    /// Builds a server, loading the persistent cache when configured. A
    /// corrupted cache file degrades to an empty cache and lands on
    /// [`DetectionServer::ledger`] as `GR006`.
    #[must_use]
    pub fn new(config: ServeConfig) -> DetectionServer {
        let mut ledger = Vec::new();
        let cache = match &config.cache_path {
            Some(path) => {
                let (cache, poison) = ReportCache::load(path, config.capacity);
                ledger.extend(poison);
                cache
            }
            None => ReportCache::new(config.capacity),
        };
        DetectionServer {
            config,
            registry: IdiomRegistry::with_default_idioms(),
            pool: Pool::default(),
            cache,
            ledger,
        }
    }

    /// GR-coded failures observed outside any one function's report
    /// (today: `GR006` persistent-cache corruption at load).
    #[must_use]
    pub fn ledger(&self) -> &[GrError] {
        &self.ledger
    }

    /// The live report cache (for inspection and tests).
    #[must_use]
    pub fn cache(&self) -> &ReportCache {
        &self.cache
    }

    /// Runs one batch over `modules`: warm functions are served from the
    /// cache, cold ones are solved on this thread or, in a batch with
    /// enough of them, on this thread and the server's parked helpers,
    /// and results come back in submission order (module order, then
    /// declaration order) — byte-identical to a sequential run for any
    /// `jobs` count.
    pub fn run_batch(&mut self, modules: &[Module]) -> BatchResult {
        // Phase 1 (coordinator): fingerprint in submission order, serve
        // hits, collect misses. Touch order on the cache is deterministic
        // because only this thread touches it.
        let mut results: Vec<Option<FunctionResult>> = Vec::new();
        let mut jobs: Vec<Job> = Vec::new();
        for (mi, module) in modules.iter().enumerate() {
            let purity = PurityInfo::new(module);
            for (fi, func) in module.functions.iter().enumerate() {
                let fp = function_fingerprint_with(module, &purity, func);
                let hit = self.cache.hit(fp, &func.name).map(|report| FunctionResult {
                    module: mi,
                    fingerprint: fp,
                    outcome: CacheOutcome::Warm,
                    report,
                });
                if hit.is_none() {
                    if gr_trace::enabled() {
                        gr_trace::counter("cache.persistent.misses", 1);
                    }
                    jobs.push(Job { slot: results.len(), module: mi, func: fi, fingerprint: fp });
                }
                results.push(hit);
            }
        }

        // Phase 2: cold solves, one pool job per MIN_JOBS_PER_WORKER
        // misses up to `jobs`, job 0 on this thread. Each job claims
        // misses from a shared cursor and solves them with its own
        // PrefixCache shard, reset between functions.
        if gr_trace::enabled() {
            gr_trace::counter("server.batches", 1);
            gr_trace::counter("server.functions", results.len() as i64);
            gr_trace::counter("server.jobs", jobs.len() as i64);
        }
        let threads = self.config.jobs.min(jobs.len() / MIN_JOBS_PER_WORKER).max(1);
        let (budget, registry, next) = (self.config.budget, &self.registry, AtomicUsize::new(0));
        let solved = self.pool.run(threads, |_| {
            let mut shard = PrefixCache::new();
            let mut out = Vec::new();
            while let Some(job) = jobs.get(next.fetch_add(1, Ordering::SeqCst)) {
                let module = &modules[job.module];
                let func = &module.functions[job.func];
                let analyses = Analyses::new(module, func);
                let ctx = MatchCtx::new(module, func, &analyses);
                let report = registry.detect_in_function_report(&ctx, Some(&mut shard), budget);
                shard.reset();
                out.push((
                    job.slot,
                    FunctionResult {
                        module: job.module,
                        fingerprint: job.fingerprint,
                        outcome: CacheOutcome::Cold,
                        report,
                    },
                ));
            }
            out
        });
        for (slot, cold) in solved.into_iter().flatten() {
            results[slot] = Some(cold);
        }

        // Phase 3 (coordinator): store fresh complete reports and sum up,
        // both in submission order.
        let mut batch = BatchResult::default();
        for r in results {
            let r = r.expect("every cold function is solved");
            batch.summary.functions += 1;
            match r.outcome {
                CacheOutcome::Warm => batch.summary.warm_hits += 1,
                CacheOutcome::Cold => {
                    self.cache.store(r.fingerprint, &r.report);
                    batch.summary.cold_solves += 1;
                }
            }
            if r.report.status.is_degraded() {
                batch.summary.degraded += 1;
            }
            batch.summary.solver_steps += r.report.steps_used;
            batch.results.push(r);
        }
        batch
    }

    /// Persists the cache to its configured path (no-op without one):
    /// appends the records made since the last persist, or compacts the
    /// file ([`ReportCache::persist`]).
    pub fn persist(&mut self) -> io::Result<()> {
        match &self.config.cache_path {
            Some(path) => self.cache.persist(path),
            None => Ok(()),
        }
    }
}

/// Sequential reference driver with the same output shape as
/// [`DetectionServer::run_batch`]: no pool, no cache. The differential
/// tests pin batch output byte-identical to this.
#[must_use]
pub fn detect_sequential(modules: &[Module], budget: DetectBudget) -> Vec<DetectionReport> {
    let registry = IdiomRegistry::with_default_idioms();
    modules
        .iter()
        .flat_map(|module| detect_with_budget(&registry, module, budget))
        .collect()
}

/// Renders one function's serving status as the stable one-line form the
/// CLI prints: name, cold/warm, reduction count, steps, and either
/// `complete` or the degraded budget.
#[must_use]
pub fn status_line(r: &FunctionResult) -> String {
    let outcome = match r.outcome {
        CacheOutcome::Cold => "cold",
        CacheOutcome::Warm => "warm",
    };
    let status = match r.report.status {
        DetectionStatus::Complete => "complete".to_string(),
        DetectionStatus::Degraded { budget, steps_used } => {
            format!("DEGRADED (budget {budget}, spent {steps_used})")
        }
    };
    format!(
        "@{}: {} · {} reduction(s) · {} step(s) · {}",
        r.report.function,
        outcome,
        r.report.reductions.len(),
        r.report.steps_used,
        status,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn modules(srcs: &[&str]) -> Vec<Module> {
        srcs.iter().map(|s| gr_frontend::compile(s).unwrap()).collect()
    }

    const SUM: &str = "float sum(float* a, int n) {
        float s = 0.0;
        for (int i = 0; i < n; i++) s += a[i];
        return s;
    }";

    /// Two accumulators, so the scalar spec's `acc` label branches: a
    /// single-accumulator body is all forced moves and cold-solves at
    /// zero steps.
    const NORMS: &str = "float norms(float* a, int n) {
        float s = 0.0;
        float q = 0.0;
        for (int i = 0; i < n; i++) { s += a[i]; q += a[i] * a[i]; }
        return s + q;
    }";

    #[test]
    fn cold_batch_matches_sequential_and_warm_batch_is_free() {
        // NORMS keeps the `solver_steps > 0` assertion below from being
        // vacuous.
        let ms = modules(&[SUM, NORMS]);
        let mut server = DetectionServer::new(ServeConfig::default());
        let cold = server.run_batch(&ms);
        assert_eq!(cold.summary.cold_solves, 2);
        assert_eq!(cold.summary.warm_hits, 0);
        assert!(cold.summary.solver_steps > 0);

        let seq = detect_sequential(&ms, DetectBudget::UNLIMITED);
        for (b, s) in cold.results.iter().zip(&seq) {
            assert_eq!(format!("{:?}", b.report.reductions), format!("{:?}", s.reductions));
        }

        let warm = server.run_batch(&ms);
        assert_eq!(warm.summary.warm_hits, 2);
        assert_eq!(warm.summary.solver_steps, 0, "warm functions cost zero solver steps");
        for (w, c) in warm.results.iter().zip(&cold.results) {
            assert_eq!(format!("{:?}", w.report.reductions), format!("{:?}", c.report.reductions));
        }
    }

    #[test]
    fn traced_pool_workers_record_into_the_callers_session() {
        // A batch of 2 × MIN_JOBS_PER_WORKER cold functions may use two
        // threads, the caller's lane 0 and one helper's, and the caller's
        // trace sees every solver step only if the helper joins its
        // session.
        let srcs: Vec<String> = (0..2 * MIN_JOBS_PER_WORKER)
            .map(|i| NORMS.replace("norms", &format!("norms{i}")))
            .collect();
        let big = modules(&srcs.iter().map(String::as_str).collect::<Vec<_>>());
        let small = modules(&[SUM, NORMS, &srcs[0]]);
        // A batch's traced solver steps and the highest lane a solve ran on.
        let traced = |ms: &[Module], jobs: usize| {
            let mut server = DetectionServer::new(ServeConfig { jobs, ..ServeConfig::default() });
            let guard = gr_trace::start();
            let batch = server.run_batch(ms);
            let trace = guard.finish();
            assert_eq!(trace.counter("server.jobs"), ms.len() as i64);
            assert_eq!(trace.counter("solver.steps"), batch.summary.solver_steps as i64);
            let top = trace.events_named("solve").map(|e| e.worker as usize).max();
            (trace.counter("solver.steps"), top.expect("the batch solves"))
        };
        // `jobs = 0`, which only the library accepts, solves on the caller.
        let mut steps = None;
        for jobs in [0, 1, 2] {
            let (s, top) = traced(&big, jobs);
            assert!(s > 0 && *steps.get_or_insert(s) == s, "jobs = {jobs}: {s} solver steps");
            assert!(top < jobs.max(1), "jobs = {jobs}: a solve ran on lane {top}");
        }
        assert_eq!(traced(&small, 4).1, 0, "three jobs are too few for a helper");
    }

    #[test]
    fn incremental_redetection_resolves_only_changed_functions() {
        let mut server = DetectionServer::new(ServeConfig::default());
        let before = modules(&[SUM]);
        server.run_batch(&before);
        // One-instruction edit: the fingerprint changes, so it re-solves.
        let after = modules(&["float sum(float* a, int n) {
            float s = 0.0;
            for (int i = 0; i < n; i++) s += a[i] * 2.0;
            return s;
        }"]);
        let r = server.run_batch(&after);
        assert_eq!(r.summary.cold_solves, 1, "a changed function must re-solve");
        // Unchanged resubmission stays warm.
        let again = server.run_batch(&after);
        assert_eq!(again.summary.warm_hits, 1);
    }

    #[test]
    fn alpha_renamed_twin_is_served_warm_under_its_own_name() {
        let mut server = DetectionServer::new(ServeConfig::default());
        server.run_batch(&modules(&[SUM]));
        let twin = modules(&["float total(float* xs, int len) {
            float acc = 0.0;
            for (int j = 0; j < len; j++) acc += xs[j];
            return acc;
        }"]);
        let r = server.run_batch(&twin);
        assert_eq!(r.summary.warm_hits, 1, "alpha-renamed twins share the cache entry");
        assert_eq!(r.results[0].report.function, "total");
        assert_eq!(r.results[0].report.reductions[0].function, "total");
    }

    #[test]
    fn failed_persist_leaves_the_previous_artifact_whole() {
        const ONE: &str = "int one(int* a, int n) {
            int s = 0;
            for (int i = 0; i < n; i++) s += a[i];
            return s;
        }";
        let dir = std::env::temp_dir().join(format!("gr-server-persist-{}", std::process::id()));
        let path = dir.join("gr-cache.json");
        let tmp = dir.join("gr-cache.json.tmp");
        let config =
            || ServeConfig { jobs: 1, cache_path: Some(path.clone()), ..ServeConfig::default() };
        let mut server = DetectionServer::new(config());
        server.run_batch(&modules(&[SUM]));
        server.persist().unwrap();
        let compaction = std::fs::read_to_string(&path).unwrap();
        assert_eq!(compaction, server.cache().render(), "the first persist compacts");
        assert!(!tmp.exists(), "the temp file is renamed away");
        server.run_batch(&modules(&[ONE]));
        server.persist().unwrap();
        // A kill mid-append tears the last record, so the next server's
        // first persist must compact.
        let full = std::fs::read(&path).unwrap();
        let torn = &full[..full.len() - 3];
        std::fs::write(&path, torn).unwrap();
        let mut server = DetectionServer::new(config());
        assert!(server.ledger().is_empty(), "a torn tail is not corruption");
        let batch = server.run_batch(&modules(&[SUM, ONE]));
        assert_eq!((batch.summary.warm_hits, batch.summary.cold_solves), (1, 1));
        // A directory on the temp file's name makes the compaction fail
        // before the artifact is touched.
        std::fs::create_dir_all(&tmp).unwrap();
        assert!(server.persist().is_err(), "an unwritable temp file must surface");
        assert_eq!(std::fs::read(&path).unwrap(), torn);
        let (reloaded, poison) = ReportCache::load(&path, DEFAULT_CAPACITY);
        assert!(poison.is_none(), "the previous artifact still loads");
        assert_eq!(reloaded.render(), compaction);
        // Once the temp name is free again, the next persist compacts.
        std::fs::remove_dir(&tmp).unwrap();
        server.persist().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), server.cache().render());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_lines_are_stable() {
        let mut server = DetectionServer::new(ServeConfig::default());
        let r = server.run_batch(&modules(&[SUM]));
        let line = status_line(&r.results[0]);
        assert!(line.starts_with("@sum: cold · 1 reduction(s)"), "{line}");
        assert!(line.ends_with("complete"), "{line}");
    }
}
