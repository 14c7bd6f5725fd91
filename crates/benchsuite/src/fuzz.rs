//! Differential fuzzing of detection **soundness**: random loop nests
//! drawn from the idiom grammar — folds, histograms, scans, argmin,
//! searches, speculative folds, producer/consumer fusion pairs — plus
//! deliberately *mutated near-misses*, asserting that detection never
//! changes semantics: whatever the registry detects and the outliner
//! exploits must produce the same results as the sequential interpreter,
//! on every thread count.
//!
//! Every prior test pinned parallel == sequential on hand-written
//! programs only; this harness closes the gap from the other side. A
//! near-miss that slips past a constraint (a fold whose guard reads the
//! accumulator, a fusion intermediate read after the reduction, …) is
//! *allowed* to go undetected — that costs coverage, not correctness —
//! but if it is detected and exploited, the differential check catches
//! the divergence immediately, with the generating seed and case index
//! in the failure message.
//!
//! The generator is deterministic per seed ([`StdRng`]), so CI failures
//! reproduce locally with the same `GR_FUZZ_SEED`/case count.

use crate::rng::StdRng;
use gr_interp::machine::Machine;
use gr_interp::memory::{Memory, Obj, ObjId};
use gr_interp::RtVal;

/// One concrete argument of a generated kernel call.
#[derive(Debug, Clone)]
pub enum FuzzArg {
    /// A float array (materialized per run).
    FArr(Vec<f64>),
    /// An integer array (materialized per run).
    IArr(Vec<i64>),
    /// An integer scalar.
    I(i64),
    /// A float scalar.
    F(f64),
}

/// One generated program plus the workload to run it on.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// Family + mutation tag, e.g. `fold/self-gated`.
    pub name: String,
    /// Mini-C source; the kernel function is always named `k`.
    pub src: String,
    /// Kernel call arguments, in order.
    pub args: Vec<FuzzArg>,
}

/// Aggregate outcome of one [`run_differential`] sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct FuzzReport {
    /// Cases generated and executed.
    pub cases: usize,
    /// Cases where the registry reported at least one reduction.
    pub detected: usize,
    /// Cases that outlined and ran through the parallel runtime (each
    /// compared against the sequential interpreter on every thread
    /// count).
    pub exploited: usize,
    /// Cases where outlining refused (detection without exploitation
    /// cannot diverge; counted for visibility).
    pub refused: usize,
}

fn floats(rng: &mut StdRng, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

fn ints(rng: &mut StdRng, len: usize, lo: i64, hi: i64) -> Vec<i64> {
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

/// Draws one case from the idiom grammar. Mutated near-misses are mixed
/// in at roughly one case in three.
#[must_use]
pub fn generate(rng: &mut StdRng) -> FuzzCase {
    let n = rng.gen_range(1..2_500);
    #[allow(clippy::cast_sign_loss)]
    let len = n as usize;
    match rng.gen_range(0..8) {
        0 => gen_scalar_fold(rng, len),
        1 => gen_histogram(rng, len),
        2 => gen_scan(rng, len),
        3 => gen_argmin(rng, len),
        4 => gen_search(rng, len),
        5 => gen_fold_until(rng, len),
        6 => gen_fusion(rng, len),
        _ => gen_find_last(rng, len),
    }
}

fn gen_scalar_fold(rng: &mut StdRng, len: usize) -> FuzzCase {
    let data = floats(rng, len, -50.0, 50.0);
    let step = rng.gen_range(1..4);
    let (tag, body) = match rng.gen_range(0..6) {
        0 => ("sum", "s += a[i];"),
        1 => ("sum-square", "s += a[i] * a[i];"),
        2 => ("conditional-sum", "if (a[i] > 0.0) s += a[i];"),
        3 => ("min-call", "s = fmin(s, a[i]);"),
        // Near-misses: the self-gated accumulator (the paper's `t1 <= sx`
        // counterexample family) and the non-associative flip.
        4 => ("self-gated", "if (a[i] <= s) s += a[i];"),
        _ => ("non-associative", "s = a[i] - s;"),
    };
    let init = if tag == "min-call" { "1.0e30" } else { "0.0" };
    FuzzCase {
        name: format!("fold/{tag}/step{step}"),
        src: format!(
            "float k(float* a, int n) {{ float s = {init}; for (int i = 0; i < n; i = i + {step}) {{ {body} }} return s; }}"
        ),
        args: vec![FuzzArg::FArr(data), FuzzArg::I(len as i64)],
    }
}

fn gen_histogram(rng: &mut StdRng, len: usize) -> FuzzCase {
    let bins = 64usize;
    let keys = ints(rng, len, 0, bins as i64);
    let (tag, body) = match rng.gen_range(0..3) {
        0 => ("plain", "h[key[i]] = h[key[i]] + 1;"),
        1 => ("weighted", "h[key[i]] = h[key[i]] + key[i];"),
        // Near-miss: the loaded cell is not the stored cell — a stencil,
        // not a histogram (order matters, must not privatize).
        _ => ("shifted-read", "h[key[i]] = h[63 - key[i]] + 1;"),
    };
    FuzzCase {
        name: format!("histogram/{tag}"),
        src: format!(
            "void k(int* h, int* key, int n) {{ for (int i = 0; i < n; i++) {{ {body} }} }}"
        ),
        args: vec![FuzzArg::IArr(vec![0; bins]), FuzzArg::IArr(keys), FuzzArg::I(len as i64)],
    }
}

fn gen_scan(rng: &mut StdRng, len: usize) -> FuzzCase {
    let data = ints(rng, len, -40, 40);
    let (tag, body) = match rng.gen_range(0..3) {
        0 => ("inclusive", "s += a[i]; out[i] = s;"),
        1 => ("exclusive", "out[i] = s; s += a[i];"),
        // Near-miss: a constant output index is a redundantly stored
        // scalar, not a scan — privatizing the store would drop writes.
        _ => ("constant-index", "s += a[i]; out[0] = s;"),
    };
    FuzzCase {
        name: format!("scan/{tag}"),
        src: format!(
            "void k(int* a, int* out, int n) {{ int s = 0; for (int i = 0; i < n; i++) {{ {body} }} }}"
        ),
        args: vec![FuzzArg::IArr(data), FuzzArg::IArr(vec![0; len]), FuzzArg::I(len as i64)],
    }
}

fn gen_argmin(rng: &mut StdRng, len: usize) -> FuzzCase {
    // Coarse quantization forces duplicated minima: the tie-break is the
    // interesting part.
    let data: Vec<f64> = (0..len).map(|_| rng.gen_range(-8i64..8) as f64).collect();
    let (tag, cmp) = match rng.gen_range(0..3) {
        0 => ("strict", "<"),
        1 => ("non-strict", "<="),
        _ => ("strict-gt", ">"),
    };
    FuzzCase {
        name: format!("argmin/{tag}"),
        src: format!(
            "int k(float* a, int n) {{
                 float best = {};
                 int bi = -1;
                 for (int i = 0; i < n; i++) {{
                     float v = a[i];
                     if (v {cmp} best) {{ best = v; bi = i; }}
                 }}
                 return bi;
             }}",
            if tag == "strict-gt" { "-1.0e30" } else { "1.0e30" }
        ),
        args: vec![FuzzArg::FArr(data), FuzzArg::I(len as i64)],
    }
}

fn gen_search(rng: &mut StdRng, len: usize) -> FuzzCase {
    let mut data = ints(rng, len, 0, 1000);
    // Place the needle (sometimes absent, sometimes duplicated).
    let needle = 1_000_000 + rng.gen_range(0..5);
    for _ in 0..rng.gen_range(0..4) {
        let at = rng.gen_range(0..len as i64);
        #[allow(clippy::cast_sign_loss)]
        {
            data[at as usize] = needle;
        }
    }
    let (tag, body) = match rng.gen_range(0..3) {
        0 => ("find-first", "if (a[i] == x) { r = i; break; }"),
        1 => ("any-of", "if (a[i] == x) { r = 1; break; }"),
        // Near-miss: the body writes — speculation would be observable.
        _ => ("impure-body", "log[i] = a[i]; if (a[i] == x) { r = i; break; }"),
    };
    let log_param = if tag == "impure-body" { "int* log, " } else { "" };
    let mut args = Vec::new();
    if tag == "impure-body" {
        args.push(FuzzArg::IArr(vec![0; len]));
    }
    let src = format!(
        "int k({log_param}int* a, int x, int n) {{
             int r = {};
             for (int i = 0; i < n; i++) {{ {body} }}
             return r;
         }}",
        if tag == "any-of" { "0" } else { "-1" }
    );
    let mut all_args = args;
    all_args.push(FuzzArg::IArr(data));
    all_args.push(FuzzArg::I(needle));
    all_args.push(FuzzArg::I(len as i64));
    FuzzCase { name: format!("search/{tag}"), src, args: all_args }
}

fn gen_fold_until(rng: &mut StdRng, len: usize) -> FuzzCase {
    let mut data = ints(rng, len, 1, 90);
    let sentinel = -7i64;
    if rng.gen_range(0..3) > 0 {
        let at = rng.gen_range(0..len as i64);
        #[allow(clippy::cast_sign_loss)]
        {
            data[at as usize] = sentinel;
        }
    }
    let (tag, guard) = match rng.gen_range(0..3) {
        0 => ("pre-update", "if (a[i] == stop) break; s = s + a[i];"),
        1 => ("post-update", "s = s + a[i]; if (a[i] == stop) break;"),
        // Near-miss: the guard reads the accumulator — chunked
        // speculation cannot reproduce a data-dependent stop point.
        _ => ("acc-in-guard", "s = s + a[i]; if (s > 100000) break;"),
    };
    FuzzCase {
        name: format!("fold-until/{tag}"),
        src: format!(
            "int k(int* a, int stop, int n) {{
                 int s = 0;
                 for (int i = 0; i < n; i++) {{ {guard} }}
                 return s;
             }}"
        ),
        args: vec![FuzzArg::IArr(data), FuzzArg::I(sentinel), FuzzArg::I(len as i64)],
    }
}

fn gen_fusion(rng: &mut StdRng, len: usize) -> FuzzCase {
    let data = floats(rng, len, -10.0, 10.0);
    let map_expr = match rng.gen_range(0..4) {
        0 => "a[i] * a[i]",
        1 => "a[i] + 1.5",
        // A loop-invariant broadcast: the produced value lives entirely
        // outside the loop bodies and travels as a chunk closure slot.
        2 => "0.25",
        _ => "2.0 * a[i] - 0.5",
    };
    // Near-miss variants; `n - 1` with n == 1 is an empty consumer, which
    // is still a valid (vacuous) workload.
    let (tag, epilogue, consumer_bound) = match rng.gen_range(0..4) {
        // Near-miss: the intermediate is read after the reduction.
        0 => ("tmp-read-after", "return s + tmp[0];", "n"),
        // Near-miss: the consumer covers a different range.
        1 => ("short-consumer", "return s;", "n - 1"),
        _ => ("clean", "return s;", "n"),
    };
    FuzzCase {
        name: format!("fusion/{tag}"),
        src: format!(
            "float k(float* a, int n) {{
                 float tmp[2500];
                 for (int i = 0; i < n; i++) tmp[i] = {map_expr};
                 float s = 0.0;
                 for (int j = 0; j < {consumer_bound}; j++) s += tmp[j];
                 {epilogue}
             }}"
        ),
        args: vec![FuzzArg::FArr(data), FuzzArg::I(len as i64)],
    }
}

fn gen_find_last(rng: &mut StdRng, len: usize) -> FuzzCase {
    let mut data = ints(rng, len, 0, 50);
    let needle = 999i64;
    for _ in 0..rng.gen_range(0..3) {
        let at = rng.gen_range(0..len as i64);
        #[allow(clippy::cast_sign_loss)]
        {
            data[at as usize] = needle;
        }
    }
    FuzzCase {
        name: "find-last/downward".to_string(),
        src: "int k(int* a, int x, int n) {
                 int r = -1;
                 for (int i = n - 1; i >= 0; i = i + -1) {
                     if (a[i] == x) { r = i; break; }
                 }
                 return r;
             }"
        .to_string(),
        args: vec![FuzzArg::IArr(data), FuzzArg::I(needle), FuzzArg::I(len as i64)],
    }
}

/// Default size of the serving corpus ([`synthetic_corpus`]): the
/// throughput bench and the warm-cache pins run over ten thousand
/// functions.
pub const CORPUS_FUNCTIONS: usize = 10_000;

/// Seed of the serving corpus used by the bench and the pinned tests.
pub const CORPUS_SEED: u64 = 0x5EED_C0DE;

/// Corpus size override for test runs: `GR_CORPUS_FUNCS=500` scales the
/// sweep down (or up) without touching the pinned default.
#[must_use]
pub fn corpus_functions_from_env() -> usize {
    std::env::var("GR_CORPUS_FUNCS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(CORPUS_FUNCTIONS)
}

/// Deterministic synthetic corpus for the detection-serving throughput
/// bench: `functions` single-kernel translation units named `f0..fN`,
/// drawn from the same idiom grammar as the differential fuzzer but with
/// the function index folded into each body as a distinguishing constant
/// — `gr-fp/v2` hashes constant payloads, so every non-twin function has
/// a distinct structural fingerprint. Every 16th function instead
/// repeats the previous body verbatim under its own name: an
/// alpha-renamed twin, the fingerprint-level duplicate a warm report
/// cache collapses to a single entry.
///
/// The corpus is detection-only (the bench never executes it), so the
/// argument arrays are token-sized.
#[must_use]
pub fn synthetic_corpus(seed: u64, functions: usize) -> Vec<FuzzCase> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<FuzzCase> = Vec::with_capacity(functions);
    for idx in 0..functions {
        let case = if idx % 16 == 15 {
            let prev = &out[idx - 1];
            FuzzCase {
                name: format!("{}/twin", prev.name),
                src: prev.src.replacen(&format!(" f{}(", idx - 1), &format!(" f{idx}("), 1),
                args: prev.args.clone(),
            }
        } else {
            corpus_case(&mut rng, idx)
        };
        out.push(case);
    }
    out
}

/// Draws corpus function `idx`. The family rotates with the rng; the
/// index appears as a constant payload (fold seed, guard threshold,
/// histogram weight, …) so structurally identical templates still
/// fingerprint apart.
fn corpus_case(rng: &mut StdRng, idx: usize) -> FuzzCase {
    let name = format!("f{idx}");
    let c = idx as i64;
    let short = |tag: &str| format!("corpus/{tag}/{idx}");
    let farr = FuzzArg::FArr(vec![1.0; 4]);
    let iarr = FuzzArg::IArr(vec![0; 4]);
    match rng.gen_range(0..8) {
        0 => FuzzCase {
            name: short("fold-sum"),
            src: format!(
                "float {name}(float* a, int n) {{ float s = {c}.0; for (int i = 0; i < n; i++) s += a[i]; return s; }}"
            ),
            args: vec![farr, FuzzArg::I(4)],
        },
        1 => FuzzCase {
            name: short("fold-guarded"),
            src: format!(
                "float {name}(float* a, int n) {{ float s = 0.0; for (int i = 0; i < n; i++) {{ if (a[i] > {c}.0) s += a[i]; }} return s; }}"
            ),
            args: vec![farr, FuzzArg::I(4)],
        },
        2 => FuzzCase {
            name: short("histogram"),
            src: format!(
                "void {name}(int* h, int* key, int n) {{ for (int i = 0; i < n; i++) {{ h[key[i]] = h[key[i]] + {c}; }} }}"
            ),
            args: vec![iarr.clone(), iarr, FuzzArg::I(4)],
        },
        3 => FuzzCase {
            name: short("scan"),
            src: format!(
                "void {name}(int* a, int* out, int n) {{ int s = {c}; for (int i = 0; i < n; i++) {{ s += a[i]; out[i] = s; }} }}"
            ),
            args: vec![iarr.clone(), iarr, FuzzArg::I(4)],
        },
        4 => FuzzCase {
            name: short("argmin"),
            src: format!(
                "int {name}(float* a, int n) {{
                     float best = {c}.5;
                     int bi = -1;
                     for (int i = 0; i < n; i++) {{
                         float v = a[i];
                         if (v < best) {{ best = v; bi = i; }}
                     }}
                     return bi;
                 }}"
            ),
            args: vec![farr, FuzzArg::I(4)],
        },
        5 => FuzzCase {
            name: short("find-first"),
            src: format!(
                "int {name}(int* a, int n) {{
                     int r = -1;
                     for (int i = 0; i < n; i++) {{ if (a[i] == {c}) {{ r = i; break; }} }}
                     return r;
                 }}"
            ),
            args: vec![iarr, FuzzArg::I(4)],
        },
        6 => FuzzCase {
            name: short("fold-until"),
            src: format!(
                "int {name}(int* a, int n) {{
                     int s = 0;
                     for (int i = 0; i < n; i++) {{ if (a[i] == {c}) break; s = s + a[i]; }}
                     return s;
                 }}"
            ),
            args: vec![iarr, FuzzArg::I(4)],
        },
        _ => FuzzCase {
            name: short("fusion"),
            src: format!(
                "float {name}(float* a, int n) {{
                     float tmp[2500];
                     for (int i = 0; i < n; i++) tmp[i] = a[i] + {c}.5;
                     float s = 0.0;
                     for (int j = 0; j < n; j++) s += tmp[j];
                     return s;
                 }}"
            ),
            args: vec![farr, FuzzArg::I(4)],
        },
    }
}

/// Materializes the case's arguments into `mem`, returning the call args
/// and the array objects (for post-run comparison).
pub(crate) fn materialize(case: &FuzzCase, mem: &mut Memory) -> (Vec<RtVal>, Vec<ObjId>) {
    let mut args = Vec::new();
    let mut objs = Vec::new();
    for a in &case.args {
        match a {
            FuzzArg::FArr(v) => {
                let o = mem.alloc_float(v);
                objs.push(o);
                args.push(RtVal::ptr(o));
            }
            FuzzArg::IArr(v) => {
                let o = mem.alloc_int(v);
                objs.push(o);
                args.push(RtVal::ptr(o));
            }
            FuzzArg::I(v) => args.push(RtVal::I(*v)),
            FuzzArg::F(v) => args.push(RtVal::F(*v)),
        }
    }
    (args, objs)
}

pub(crate) fn assert_value_eq(
    case: &str,
    threads: usize,
    seq: &Option<RtVal>,
    par: &Option<RtVal>,
) {
    match (seq, par) {
        (None, None) => {}
        (Some(RtVal::I(a)), Some(RtVal::I(b))) => {
            assert_eq!(a, b, "{case} (threads={threads}): integer result diverged");
        }
        (Some(RtVal::F(a)), Some(RtVal::F(b))) => {
            assert!(
                (a - b).abs() <= 1e-6 * a.abs().max(1.0),
                "{case} (threads={threads}): float result diverged: {a} vs {b}"
            );
        }
        other => panic!("{case} (threads={threads}): result shape diverged: {other:?}"),
    }
}

pub(crate) fn assert_mem_eq(case: &str, threads: usize, seq: &Obj, par: &Obj) {
    match (seq, par) {
        (Obj::I(a), Obj::I(b)) => {
            assert_eq!(a, b, "{case} (threads={threads}): integer array diverged");
        }
        (Obj::F(a), Obj::F(b)) => {
            assert_eq!(a.len(), b.len(), "{case} (threads={threads}): array length diverged");
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-6 * x.abs().max(1.0),
                    "{case} (threads={threads}): float array diverged at {i}: {x} vs {y}"
                );
            }
        }
        _ => panic!("{case} (threads={threads}): array type diverged"),
    }
}

/// Generates `cases` programs from `seed` and asserts, for every one the
/// registry detects *and* the outliner exploits, that the parallel
/// runtime reproduces the sequential interpreter on every count in
/// `threads` — integer results bit-equal, float results within relative
/// tolerance, output arrays element-wise.
///
/// # Panics
/// Panics on the first divergence (detection soundness bug), on a
/// generated program that fails to compile, or on a sequential trap (a
/// generator bug — the grammar must produce trap-free workloads).
#[must_use]
pub fn run_differential(seed: u64, cases: usize, threads: &[usize]) -> FuzzReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut report = FuzzReport::default();
    for case_idx in 0..cases {
        let case = generate(&mut rng);
        let tag = format!("seed {seed:#x} case {case_idx} [{}]", case.name);
        let module = gr_frontend::compile(&case.src).unwrap_or_else(|e| {
            panic!("{tag}: generated source fails to compile: {e}\n{}", case.src)
        });
        report.cases += 1;

        // Sequential reference.
        let mut mem = Memory::new(&module);
        let (args, seq_objs) = materialize(&case, &mut mem);
        let mut seq = Machine::new(&module, mem);
        let seq_ret = seq
            .call("k", &args)
            .unwrap_or_else(|e| panic!("{tag}: sequential run trapped: {e}\n{}", case.src));

        let rs = gr_core::detect_reductions(&module);
        if rs.is_empty() {
            // Nothing detected (e.g. a rejected near-miss): nothing can
            // diverge, and it is not an outliner refusal.
            continue;
        }
        report.detected += 1;
        let Ok((pm, plan)) = gr_parallel::parallelize(&module, "k", &rs) else {
            report.refused += 1;
            continue;
        };
        report.exploited += 1;
        let mut observed: Vec<String> = Vec::new();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for &t in threads {
                let mut mem = Memory::new(&pm);
                let (pargs, par_objs) = materialize(&case, &mut mem);
                let mut par = Machine::new(&pm, mem);
                par.set_handler(gr_parallel::runtime::handler(&pm, plan.clone(), t));
                let par_ret = par
                    .call("k", &pargs)
                    .unwrap_or_else(|e| panic!("{tag} (threads={t}): parallel run trapped: {e}"));
                observed.push(format!("threads={t}: parallel result = {par_ret:?}"));
                assert_value_eq(&tag, t, &seq_ret, &par_ret);
                for (&so, &po) in seq_objs.iter().zip(&par_objs) {
                    assert_mem_eq(&tag, t, seq.mem.object(so), par.mem.object(po));
                }
            }
        }));
        if let Err(panic) = outcome {
            dump_failure(seed, case_idx, &case, &seq_ret, &observed, panic.as_ref(), None);
            std::panic::resume_unwind(panic);
        }
    }
    report
}

/// Writes a reproduction artifact for a differential mismatch to
/// `target/fuzz-failures/<seed>.txt` — the seed, the rendered program,
/// the sequential reference result and every parallel result observed
/// before the divergence — so a CI failure is diagnosable without
/// re-running the sweep. `trace`, when the caller traced the failing run,
/// is additionally dumped to `<seed>.trace.json` (Chrome trace format)
/// so the failing schedule itself is part of the artifact.
pub(crate) fn dump_failure(
    seed: u64,
    case_idx: usize,
    case: &FuzzCase,
    seq_ret: &Option<RtVal>,
    observed: &[String],
    panic: &(dyn std::any::Any + Send),
    trace: Option<&gr_trace::Trace>,
) {
    use std::fmt::Write as _;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/fuzz-failures");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{seed:#x}.txt"));
    let msg = panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic payload>");
    let mut body = String::new();
    let _ = writeln!(body, "differential fuzz failure");
    let _ = writeln!(body, "seed:  {seed:#x}");
    let _ = writeln!(body, "case:  {case_idx} [{}]", case.name);
    let _ = writeln!(body, "repro: GR_FUZZ_SEED={seed:#x} (case index {case_idx})");
    let _ = writeln!(body, "\n--- program ---\n{}", case.src);
    let _ = writeln!(body, "\n--- sequential result ---\n{seq_ret:?}");
    let _ = writeln!(body, "\n--- parallel results (up to the divergence) ---");
    for line in observed {
        let _ = writeln!(body, "{line}");
    }
    let _ = writeln!(body, "\n--- failure ---\n{msg}");
    if std::fs::write(&path, body).is_ok() {
        eprintln!("fuzz-failure artifact written to {}", path.display());
    }
    if let Some(trace) = trace {
        let trace_path = dir.join(format!("{seed:#x}.trace.json"));
        if std::fs::write(&trace_path, trace.chrome_json()).is_ok() {
            eprintln!("fuzz-failure trace written to {}", trace_path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..32 {
            let ca = generate(&mut a);
            let cb = generate(&mut b);
            assert_eq!(ca.src, cb.src);
            assert_eq!(ca.name, cb.name);
        }
    }

    #[test]
    fn every_family_compiles() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            let c = generate(&mut rng);
            gr_frontend::compile(&c.src)
                .unwrap_or_else(|e| panic!("[{}] fails to compile: {e}\n{}", c.name, c.src));
        }
    }

    #[test]
    fn failure_artifact_renders_seed_program_and_results() {
        let mut rng = StdRng::seed_from_u64(1);
        let case = generate(&mut rng);
        let payload: Box<dyn std::any::Any + Send> = Box::new("synthetic divergence".to_string());
        dump_failure(
            0xA11CE,
            3,
            &case,
            &Some(RtVal::I(5)),
            &["threads=2: parallel result = Some(I(6))".to_string()],
            payload.as_ref(),
            None,
        );
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/fuzz-failures/0xa11ce.txt");
        let body = std::fs::read_to_string(&path).expect("artifact written");
        assert!(body.contains("seed:  0xa11ce"));
        assert!(body.contains(&case.src));
        assert!(body.contains("Some(I(5))"));
        assert!(body.contains("synthetic divergence"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failure_artifact_dumps_the_failing_runs_trace() {
        let mut rng = StdRng::seed_from_u64(2);
        let case = generate(&mut rng);
        let payload: Box<dyn std::any::Any + Send> = Box::new("synthetic divergence".to_string());
        let guard = gr_trace::start();
        gr_trace::counter("fuzz.synthetic", 1);
        let failing = guard.finish();
        dump_failure(0xBEEF2, 0, &case, &Some(RtVal::I(5)), &[], payload.as_ref(), Some(&failing));
        let dir =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/fuzz-failures");
        let txt = dir.join("0xbeef2.txt");
        let trace = dir.join("0xbeef2.trace.json");
        assert!(txt.exists(), "text artifact written");
        let body = std::fs::read_to_string(&trace).expect("trace artifact written");
        assert!(body.contains("\"fuzz.synthetic\""), "counter in trace dump: {body}");
        let _ = std::fs::remove_file(&txt);
        let _ = std::fs::remove_file(&trace);
    }

    #[test]
    fn corpus_is_deterministic_with_distinct_names() {
        let a = synthetic_corpus(CORPUS_SEED, 64);
        let b = synthetic_corpus(CORPUS_SEED, 64);
        let mut names = std::collections::HashSet::new();
        for (i, (ca, cb)) in a.iter().zip(&b).enumerate() {
            assert_eq!(ca.src, cb.src, "corpus diverged at {i}");
            assert!(ca.src.contains(&format!(" f{i}(")), "wrong kernel name in {}", ca.src);
            assert!(names.insert(format!("f{i}")));
        }
    }

    #[test]
    fn corpus_twins_repeat_the_previous_body_verbatim() {
        let corpus = synthetic_corpus(CORPUS_SEED, 32);
        for idx in [15usize, 31] {
            let twin =
                corpus[idx].src.replacen(&format!(" f{idx}("), &format!(" f{}(", idx - 1), 1);
            assert_eq!(twin, corpus[idx - 1].src, "f{idx} is not an alpha twin of f{}", idx - 1);
            assert!(corpus[idx].name.ends_with("/twin"));
        }
    }

    #[test]
    fn corpus_families_compile_and_detect() {
        // Every template family must compile, and the corpus has to be a
        // real detection workload: the overwhelming majority of functions
        // carry a detectable reduction (the index constant rides in a slot
        // the idiom specs leave free).
        let corpus = synthetic_corpus(CORPUS_SEED, 96);
        let mut detected = 0usize;
        for case in &corpus {
            let m = gr_frontend::compile(&case.src)
                .unwrap_or_else(|e| panic!("[{}] fails to compile: {e}\n{}", case.name, case.src));
            if !gr_core::detect_reductions(&m).is_empty() {
                detected += 1;
            }
        }
        assert!(
            detected * 10 >= corpus.len() * 9,
            "corpus detection coverage collapsed: {detected}/{} functions detected",
            corpus.len()
        );
    }

    #[test]
    fn smoke_sweep_is_divergence_free() {
        // A small in-crate smoke; the CI-scaled sweep lives in the
        // workspace-level `tests/properties.rs` (GR_FUZZ_CASES).
        let report = run_differential(0xD1FF, 24, &[1, 4]);
        assert_eq!(report.cases, 24);
        assert!(report.detected > 0, "{report:?}");
        assert!(report.exploited > 0, "{report:?}");
    }
}
