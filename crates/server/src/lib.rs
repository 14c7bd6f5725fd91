//! # gr-server — detection as a service
//!
//! Turns the synchronous `gr-core` detection library into a served,
//! cache-persistent system: a bounded job queue
//! ([`gr_parallel::sync::BoundedQueue`]) feeds a pool of detection
//! workers, each borrowing the server's one [`IdiomRegistry`] and owning
//! a [`PrefixCache`] shard (reset between functions — prefix solutions
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
//! 2. Misses become jobs. A batch with fewer than 8 is solved on the
//!    coordinator, since a worker thread pays for itself only over about
//!    four solves; larger ones go on the bounded queue (backpressure
//!    keeps the in-flight set small), which the workers drain. Every
//!    solve runs the full budgeted registry driver and reports
//!    [`DetectionStatus::Degraded`] with GR-coded ledger entries
//!    (`GR001`) rather than stalling on adversarial functions.
//! 3. The coordinator reassembles results in **submission order** —
//!    batch output is byte-identical to sequential
//!    [`gr_core::detect_reductions`] for any worker count — and stores
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
//! counters for the pool (batches, functions, jobs dispatched) and
//! `cache.persistent.*` for the cache (hits, misses, stores, evictions,
//! poisoned loads, torn tails dropped at load, bytes appended and
//! compactions written).

pub mod cache;

use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use gr_analysis::purity::PurityInfo;
use gr_analysis::Analyses;
use gr_core::atoms::MatchCtx;
use gr_core::detect::PrefixCache;
use gr_core::spec::registry::IdiomRegistry;
use gr_core::{function_fingerprint_with, DetectBudget, DetectionReport, DetectionStatus, GrError};
use gr_ir::Module;
use gr_parallel::sync::{BoundedQueue, Mutex};

pub use cache::{ReportCache, CACHE_SCHEMA, DEFAULT_CAPACITY};

/// Configuration of a [`DetectionServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Most detection workers in the pool. A batch starts one per four
    /// cold functions at most, and solves on the coordinator when that
    /// comes to fewer than two.
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

/// Fewest cold jobs that justify each pool worker: a batch with fewer than
/// `2 × MIN_JOBS_PER_WORKER` is solved on the coordinator. A worker costs
/// a thread start and join and the wait until a second CPU runs it: on a
/// shared 2-vCPU host ≈0.1–0.2 ms at the median and milliseconds in the
/// host's slow phases, against ≈0.2–0.3 ms per synthetic-corpus cold
/// function. Two workers tie the coordinator's mean time on four cold
/// functions there and win on eight; on two they lose, and the request
/// then waits on whenever the host runs the second CPU.
const MIN_JOBS_PER_WORKER: usize = 4;

/// One job on the queue: a function awaiting a cold solve.
struct Job {
    /// Index into the batch's result vector.
    slot: usize,
    /// Module index in the submitted slice.
    module: usize,
    /// Function index within the module.
    func: usize,
}

/// A detection service instance: worker-pool configuration plus the
/// persistent report cache, alive across any number of batches.
pub struct DetectionServer {
    config: ServeConfig,
    /// The idiom registry, built once; every worker of every batch
    /// borrows it.
    registry: IdiomRegistry,
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
        DetectionServer { config, registry: IdiomRegistry::with_default_idioms(), cache, ledger }
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
    /// enough of them, fan out to the worker pool, and results come
    /// back in submission order (module order, then declaration order) —
    /// byte-identical to a sequential run for any `jobs` count.
    pub fn run_batch(&mut self, modules: &[Module]) -> BatchResult {
        // Phase 1 (coordinator): fingerprint in submission order, serve
        // hits, queue misses. Touch order on the cache is deterministic
        // because only this thread touches it.
        let mut results: Vec<Option<FunctionResult>> = Vec::new();
        let mut meta: Vec<(usize, u64)> = Vec::new();
        let mut jobs: Vec<Job> = Vec::new();
        for (mi, module) in modules.iter().enumerate() {
            let purity = PurityInfo::new(module);
            for (fi, func) in module.functions.iter().enumerate() {
                let fp = function_fingerprint_with(module, &purity, func);
                let slot = results.len();
                meta.push((mi, fp));
                if let Some(report) = self.cache.hit(fp, &func.name) {
                    results.push(Some(FunctionResult {
                        module: mi,
                        fingerprint: fp,
                        outcome: CacheOutcome::Warm,
                        report,
                    }));
                } else {
                    if gr_trace::enabled() {
                        gr_trace::counter("cache.persistent.misses", 1);
                    }
                    results.push(None);
                    jobs.push(Job { slot, module: mi, func: fi });
                }
            }
        }

        // Phase 2: cold solves, each with a PrefixCache shard reset
        // between functions. Too few jobs to give two workers
        // MIN_JOBS_PER_WORKER each are solved here on the coordinator;
        // otherwise pool workers drain the bounded queue, one shard each.
        // Reports land in their submission slot, so scheduling order
        // never shows.
        let functions = results.len();
        if gr_trace::enabled() {
            gr_trace::counter("server.batches", 1);
            gr_trace::counter("server.functions", functions as i64);
            gr_trace::counter("server.jobs", jobs.len() as i64);
        }
        let workers = self.config.jobs.min(jobs.len() / MIN_JOBS_PER_WORKER);
        let budget = self.config.budget;
        let registry = &self.registry;
        let solve = |job: &Job, shard: &mut PrefixCache| {
            let module = &modules[job.module];
            let func = &module.functions[job.func];
            let analyses = Analyses::new(module, func);
            let ctx = MatchCtx::new(module, func, &analyses);
            let report = registry.detect_in_function_report(&ctx, Some(&mut *shard), budget);
            shard.reset();
            (job.slot, report)
        };
        let solved: Vec<(usize, DetectionReport)> = if workers < 2 {
            let mut shard = PrefixCache::new();
            jobs.iter().map(|job| solve(job, &mut shard)).collect()
        } else {
            let queue: Arc<BoundedQueue<Job>> = Arc::new(BoundedQueue::new(workers * 4));
            let out: Mutex<Vec<(usize, DetectionReport)>> = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for _ in 0..workers {
                    let queue = Arc::clone(&queue);
                    let (out, solve) = (&out, &solve);
                    let slot = gr_trace::worker();
                    s.spawn(move || {
                        let _trace = slot.map(gr_trace::Worker::bind);
                        let mut shard = PrefixCache::new();
                        while let Some(job) = queue.pop() {
                            let solved = solve(&job, &mut shard);
                            out.lock().push(solved);
                        }
                    });
                }
                for job in jobs {
                    // Push blocks on backpressure; Err means closed,
                    // impossible here (only we close below).
                    let _ = queue.push(job);
                }
                queue.close();
            });
            out.into_inner()
        };

        // Phase 3 (coordinator): store fresh complete reports and stitch
        // the result vector, both in submission order.
        let mut solved = solved;
        solved.sort_by_key(|(slot, _)| *slot);
        let mut job_results = solved.into_iter().peekable();
        let mut batch = BatchResult::default();
        for (slot, result) in results.into_iter().enumerate() {
            let r = match result {
                Some(warm) => warm,
                None => {
                    let (s, report) =
                        job_results.next().expect("every queued job must produce a report");
                    debug_assert_eq!(s, slot);
                    let (mi, fp) = meta[slot];
                    self.cache.store(fp, &report);
                    FunctionResult {
                        module: mi,
                        fingerprint: fp,
                        outcome: CacheOutcome::Cold,
                        report,
                    }
                }
            };
            batch.summary.functions += 1;
            match r.outcome {
                CacheOutcome::Warm => batch.summary.warm_hits += 1,
                CacheOutcome::Cold => batch.summary.cold_solves += 1,
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
    let mut out = Vec::new();
    for module in modules {
        for func in &module.functions {
            let analyses = Analyses::new(module, func);
            let ctx = MatchCtx::new(module, func, &analyses);
            out.push(registry.detect_in_function_report(
                &ctx,
                Some(&mut PrefixCache::new()),
                budget,
            ));
        }
    }
    out
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
        // Cold solves run on pool workers once two or more of them get
        // MIN_JOBS_PER_WORKER jobs each, and the caller's trace sees their
        // solver steps only if every worker joins its session.
        let srcs: Vec<String> = (0..2 * MIN_JOBS_PER_WORKER)
            .map(|i| NORMS.replace("norms", &format!("norms{i}")))
            .collect();
        let big = modules(&srcs.iter().map(String::as_str).collect::<Vec<_>>());
        let small = modules(&[SUM, NORMS, &srcs[0]]);
        // A batch's traced solver steps, and whether its solves ran on
        // pool worker lanes (all of them) or on the coordinator's (none).
        let traced = |ms: &[Module], jobs: usize| {
            let mut server = DetectionServer::new(ServeConfig { jobs, ..ServeConfig::default() });
            let guard = gr_trace::start();
            let batch = server.run_batch(ms);
            let trace = guard.finish();
            assert_eq!(trace.counter("server.jobs"), ms.len() as i64);
            assert_eq!(trace.counter("solver.steps"), batch.summary.solver_steps as i64);
            let pooled: Vec<bool> = trace.events_named("solve").map(|e| e.worker != 0).collect();
            assert!(!pooled.is_empty() && pooled.iter().all(|&p| p == pooled[0]), "jobs={jobs}");
            (trace.counter("solver.steps"), pooled[0])
        };
        let (one, pooled) = traced(&big, 1);
        assert!(one > 0, "the batch must cost solver steps");
        assert!(!pooled, "one worker: the coordinator solves");
        assert_eq!(traced(&big, 2), (one, true), "jobs = 2 records what jobs = 1 does");
        assert!(!traced(&small, 4).1, "three jobs are too few for a pool");
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
