//! Integration guards on the detection service (`gr-server`): batch
//! output must be byte-identical to the sequential reference driver on
//! every worker count (`GR_THREADS` honored), the persistent cache must
//! serve unchanged functions for **zero solver steps** across the whole
//! synthetic corpus (`GR_CORPUS_FUNCS` scales the sweep), a warm hit
//! from another module's entry must equal a cold solve in its own module
//! (the `gr-fp/v2` key covers every module-level fact detection reads),
//! and a corrupted cache file must degrade to a clean re-solve — a
//! `GR006` ledger entry, never wrong results.

use std::collections::HashMap;

use gr_analysis::purity::PurityInfo;
use gr_benchsuite::fuzz::{corpus_functions_from_env, synthetic_corpus, CORPUS_SEED};
use gr_core::DetectBudget;
use gr_ir::{FunctionBuilder, Module, Type};
use gr_server::{detect_sequential, CacheOutcome, DetectionServer, ServeConfig};

fn corpus_modules(functions: usize) -> Vec<Module> {
    synthetic_corpus(CORPUS_SEED, functions)
        .iter()
        .map(|c| {
            gr_frontend::compile(&c.src)
                .unwrap_or_else(|e| panic!("corpus [{}] fails to compile: {e}", c.name))
        })
        .collect()
}

/// Renders a batch's reports in the same shape as the sequential driver's
/// output, for byte-level comparison.
fn batch_reports(batch: &gr_server::BatchResult) -> String {
    batch.results.iter().map(|r| format!("{:?}\n", r.report)).collect()
}

#[test]
fn prop_batch_is_byte_identical_to_sequential_on_every_worker_count() {
    let modules = corpus_modules(160);
    let seq: String = detect_sequential(&modules, DetectBudget::UNLIMITED)
        .iter()
        .map(|r| format!("{r:?}\n"))
        .collect();
    for jobs in gr_parallel::test_thread_counts() {
        let mut server = DetectionServer::new(ServeConfig { jobs, ..ServeConfig::default() });
        let cold = server.run_batch(&modules);
        assert_eq!(
            batch_reports(&cold),
            seq,
            "cold batch diverged from the sequential driver at jobs={jobs}"
        );
        // The warm path must reproduce the same reductions, still in
        // submission order, with zero steps.
        let warm = server.run_batch(&modules);
        assert_eq!(warm.summary.solver_steps, 0, "jobs={jobs}");
        for (w, c) in warm.results.iter().zip(&cold.results) {
            assert_eq!(
                format!("{:?}", w.report.reductions),
                format!("{:?}", c.report.reductions),
                "warm reductions diverged at jobs={jobs}"
            );
        }
    }
}

#[test]
fn prop_degraded_batches_stay_deterministic_across_worker_counts() {
    // A starvation budget degrades some solves — under the trie search
    // most corpus functions solve by forced moves alone, so only the
    // genuinely branching ones exceed a one-step budget; the reports
    // (including the GR-coded degraded status and step counts) must
    // still be byte-identical to the sequential driver on every worker
    // count.
    let modules = corpus_modules(48);
    let budget = DetectBudget::steps(1);
    let seq: String =
        detect_sequential(&modules, budget).iter().map(|r| format!("{r:?}\n")).collect();
    for jobs in gr_parallel::test_thread_counts() {
        let mut server =
            DetectionServer::new(ServeConfig { jobs, budget, ..ServeConfig::default() });
        let batch = server.run_batch(&modules);
        assert_eq!(batch_reports(&batch), seq, "degraded batch diverged at jobs={jobs}");
        assert!(batch.summary.degraded > 0, "the starvation budget must degrade something");
    }
}

/// The acceptance pin: a warm-cache batch over the full synthetic corpus
/// (10 000 functions unless `GR_CORPUS_FUNCS` scales it) spends **zero**
/// solver steps on unchanged functions — every function is served from
/// the fingerprint cache.
#[test]
fn prop_warm_corpus_batch_spends_zero_solver_steps() {
    let functions = corpus_functions_from_env();
    let modules = corpus_modules(functions);
    let mut server = DetectionServer::new(ServeConfig::default());
    let cold = server.run_batch(&modules);
    assert_eq!(cold.summary.functions, functions);
    assert!(cold.summary.solver_steps > 0);

    let warm = server.run_batch(&modules);
    assert_eq!(warm.summary.functions, functions);
    assert_eq!(
        warm.summary.solver_steps, 0,
        "unchanged functions must cost zero solver steps on a warm cache"
    );
    assert_eq!(warm.summary.warm_hits, functions, "every unchanged function must hit");
    assert!(warm.results.iter().all(|r| r.outcome == CacheOutcome::Warm));
    for (w, c) in warm.results.iter().zip(&cold.results) {
        assert_eq!(
            format!("{:?}", w.report.reductions),
            format!("{:?}", c.report.reductions),
            "warm report diverged for {}",
            c.report.function
        );
    }
}

#[test]
fn prop_cache_round_trips_cold_warm_and_poisoned() {
    let dir = std::env::temp_dir().join(format!("gr-serving-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("gr-cache.json");
    let modules = corpus_modules(64);
    let seq: String = detect_sequential(&modules, DetectBudget::UNLIMITED)
        .iter()
        .map(|r| format!("{:?}\n", r.reductions))
        .collect();
    let reductions = |b: &gr_server::BatchResult| -> String {
        b.results.iter().map(|r| format!("{:?}\n", r.report.reductions)).collect()
    };
    let config = || ServeConfig { cache_path: Some(path.clone()), ..ServeConfig::default() };

    // Cold: fresh server, empty disk.
    let mut server = DetectionServer::new(config());
    assert!(server.ledger().is_empty(), "{:?}", server.ledger());
    let cold = server.run_batch(&modules);
    assert_eq!(cold.summary.warm_hits, 0);
    assert_eq!(reductions(&cold), seq);
    server.persist().expect("cache persists");
    let rendered = std::fs::read_to_string(&path).expect("cache file written");
    let header = "{\"schema\": \"gr-cache/v2\", \"keys\": \"gr-fp/v2\"}\n";
    assert!(rendered.starts_with(header), "{rendered}");
    assert_eq!(rendered, server.cache().render(), "the first persist writes a compaction");

    // Warm: a *new* server process reloads the artifact and serves every
    // unchanged function for free.
    let mut server = DetectionServer::new(config());
    assert!(server.ledger().is_empty());
    let warm = server.run_batch(&modules);
    assert_eq!(warm.summary.solver_steps, 0, "cross-run warm batch must be free");
    assert_eq!(reductions(&warm), seq);
    // Re-persisting a rehit cache appends one touch per hit, and the
    // journal replays to the live cache.
    server.persist().expect("cache persists again");
    let journal = std::fs::read_to_string(&path).unwrap();
    assert_eq!(journal.len() - rendered.len(), 64 * "{\"touch\": \"0123456789abcdef\"}\n".len());
    let reloaded = DetectionServer::new(config());
    assert_eq!(reloaded.cache().render(), server.cache().render());

    // Poisoned: a gr-cache/v1 artifact is another schema; the server
    // degrades to an empty cache with a GR006 ledger entry and re-solves
    // correctly.
    std::fs::write(&path, "{\"schema\": \"gr-cache/v1\", \"entries\": [{broken").unwrap();
    let mut server = DetectionServer::new(config());
    let ledger = server.ledger();
    assert_eq!(ledger.len(), 1, "{ledger:?}");
    assert_eq!(ledger[0].code(), "GR006");
    assert!(ledger[0].to_string().contains("persistent cache discarded"), "{}", ledger[0]);
    let recovered = server.run_batch(&modules);
    assert_eq!(recovered.summary.warm_hits, 0, "a poisoned cache must not serve hits");
    assert_eq!(reductions(&recovered), seq, "recovery must re-solve to the same reports");
    // The first persist after a poisoned load rewrites the file whole.
    server.persist().expect("cache persists after poison");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), server.cache().render());
    assert!(DetectionServer::new(config()).ledger().is_empty());

    let _ = std::fs::remove_dir_all(&dir);
}

/// A caller whose loop sums `h(a[i])`: a scalar reduction exactly when
/// `h` is pure.
const CALLER: &str = "float f(float* a, int n) {
    float s = 0.0;
    for (int i = 0; i < n; i++) s += h(a[i]);
    return s;
}";

/// The cross-module cases, in submission order: callers of a pure `h`,
/// an impure `h` (twice, with different bodies) and a pure `h` again;
/// then callers of a pure `helper_1`, an impure `helper_2` and a pure
/// `helper_2`. A cache keyed by callee names serves the first impure `h`
/// caller the pure one's report, and one that strips a `_<digits>`
/// suffix from them serves the impure `helper_2` caller `helper_1`'s.
fn cross_module_sources() -> Vec<String> {
    let with = |callee: &str, src: String| src.replace("h(", &format!("{callee}("));
    vec![
        format!("float h(float x) {{ return x * 2.0; }}\n{CALLER}"),
        format!("float g[4];\nfloat h(float x) {{ g[0] = x; return x * 2.0; }}\n{CALLER}"),
        format!("float g[4];\nfloat h(float x) {{ g[1] = x; return x * 2.0; }}\n{CALLER}"),
        format!("float h(float x) {{ return x * 2.0; }}\n{CALLER}"),
        with("helper_1", format!("float h(float x) {{ return x + 1.0; }}\n{CALLER}")),
        with(
            "helper_2",
            format!("float g[2];\nfloat h(float x) {{ g[0] = x; return x + 1.0; }}\n{CALLER}"),
        ),
        with("helper_2", format!("float h(float x) {{ return x - 1.0; }}\n{CALLER}")),
    ]
}

#[test]
fn prop_warm_hits_across_modules_equal_cold_solves_in_their_own_module() {
    let mut sources: Vec<String> =
        synthetic_corpus(CORPUS_SEED, 96).into_iter().map(|c| c.src).collect();
    sources.extend(cross_module_sources());
    let modules: Vec<Module> = sources
        .iter()
        .map(|s| gr_frontend::compile(s).unwrap_or_else(|e| panic!("{e}\n{s}")))
        .collect();
    // The purity flip is a real difference: detection finds the sum only
    // with a pure callee.
    let flip = detect_sequential(&modules[96..98], DetectBudget::UNLIMITED);
    assert_eq!((flip[1].reductions.len(), flip[3].reductions.len()), (1, 0));

    let mut server = DetectionServer::new(ServeConfig::default());
    let mut stored_by: HashMap<u64, usize> = HashMap::new();
    let mut cross = 0;
    for (mi, module) in modules.iter().enumerate() {
        let batch = server.run_batch(std::slice::from_ref(module));
        let cold = detect_sequential(std::slice::from_ref(module), DetectBudget::UNLIMITED);
        for (r, c) in batch.results.iter().zip(&cold) {
            assert_eq!(
                format!("{:?}", r.report.reductions),
                format!("{:?}", c.reductions),
                "module {mi} function {} ({:?})\n{}",
                c.function,
                r.outcome,
                sources[mi]
            );
            let first = *stored_by.entry(r.fingerprint).or_insert(mi);
            if r.outcome == CacheOutcome::Warm && first != mi {
                cross += 1;
            }
        }
    }
    // Alpha twins in the corpus, the repeated pure `h` and the pure
    // `helper_1`/`helper_2` pair are served across modules.
    assert!(cross >= 96 / 16 + 2, "{cross} cross-module warm hits");
}

/// `module` with every function but the `keep`-th replaced by a stub of
/// the same name, signature and purity: no loads, stores or calls, plus
/// one `alloca` when the original is impure.
fn stubbed(module: &Module, keep: usize) -> Module {
    let purity = PurityInfo::new(module);
    let mut out = module.clone();
    for (i, f) in out.functions.iter_mut().enumerate() {
        if i == keep {
            continue;
        }
        let params: Vec<(&str, Type)> = f.params.iter().map(|p| (p.name.as_str(), p.ty)).collect();
        let mut b = FunctionBuilder::new(&f.name, &params, f.ret);
        if !purity.is_pure(&f.name) {
            let one = b.const_int(1);
            b.alloca(Type::Int, one);
        }
        let ret = match f.ret {
            Type::Void => None,
            Type::Int => Some(b.const_int(0)),
            Type::Float => Some(b.const_float(0.0)),
            Type::Bool => Some(b.const_bool(false)),
            ptr => Some(b.arg(f.params.iter().position(|p| p.ty == ptr).expect("a pointer"))),
        };
        b.ret(ret);
        *f = b.finish();
    }
    out
}

/// The rule `gr-fp/v2` rests on: callee purity is the only module-level
/// fact detection reads. Each function of the 49 bundled programs
/// detects the same in its own module as among stubs of the same purity.
#[test]
fn detection_reads_nothing_of_other_functions_but_their_purity() {
    let mut programs = gr_benchsuite::all_programs();
    programs.extend(gr_benchsuite::micro::programs());
    assert_eq!(programs.len(), 49);
    let mut compared = 0;
    for p in &programs {
        let module = p.compile();
        let own = detect_sequential(std::slice::from_ref(&module), DetectBudget::UNLIMITED);
        let purity = PurityInfo::new(&module);
        for keep in 0..module.functions.len() {
            let stubs = stubbed(&module, keep);
            let stub_purity = PurityInfo::new(&stubs);
            for f in &module.functions {
                assert_eq!(purity.is_pure(&f.name), stub_purity.is_pure(&f.name), "{}", p.name);
            }
            let alone = detect_sequential(std::slice::from_ref(&stubs), DetectBudget::UNLIMITED);
            assert_eq!(
                format!("{:?}", alone[keep]),
                format!("{:?}", own[keep]),
                "{}: {}",
                p.name,
                module.functions[keep].name
            );
            compared += 1;
        }
    }
    assert!(compared > 49, "{compared} functions compared");
}
