//! Deterministic fault-injection harness: every failure class the
//! graceful-degradation pipeline claims to survive — solver budget
//! exhaustion, interpreter traps mid-loop, worker panics, token
//! cancellation races — is *forced*, at a seeded, reproducible site, and
//! the degraded outcome is differentially checked against the sequential
//! interpreter on every thread count.
//!
//! Fault sites are keyed on `(seed, site)`: the case generator draws the
//! program, the fault class and the exact site (chunk index, trapping
//! iteration, step budget) from one [`StdRng`] stream, so a CI failure
//! reproduces locally from `GR_FAULT_SEED` alone. The four classes:
//!
//! * **Solver budget** — pure API, no seams: [`detect_reductions_budgeted`]
//!   with a starvation budget must return a per-function
//!   `DetectionReport` ledger (`Degraded`, never a panic or an aborted
//!   run) whose matches are a subset of the unlimited run's.
//! * **Trap at iteration** — data-driven, no seams: an out-of-bounds
//!   search bound or a zero divisor plants a [`Trap`] at a chosen
//!   iteration; the parallel runtime must reproduce the *sequential*
//!   outcome exactly — the same value if the sequential run survives, the
//!   same trap if it doesn't.
//! * **Worker panic** — via [`InjectGuard::panic_at_chunk`]: the claiming
//!   worker dies; containment plus sequential fallback must reproduce the
//!   sequential result bit-for-bit (integer kernels keep the check exact).
//! * **Token abort** — via [`InjectGuard::abort_at_chunk`]: the
//!   cancellation token is torn down under the speculative schedule; the
//!   fallback must still land on the sequential result.
//!
//! Mismatches reuse the differential fuzzer's reproduction artifacts
//! (`target/fuzz-failures/`); [`write_fault_ledger`] additionally renders
//! the aggregated `error.*` ledger to `target/fault-ledger/` so CI can
//! upload what actually fired.

use std::collections::BTreeMap;

use crate::fuzz::{self, FuzzArg, FuzzCase};
use crate::rng::StdRng;
use gr_core::{detect_reductions, detect_reductions_budgeted, DetectBudget};
use gr_interp::machine::{Machine, Trap};
use gr_interp::memory::Memory;
use gr_interp::RtVal;
use gr_parallel::fault::InjectGuard;

/// The four injected failure classes, in generation rotation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Solver step starvation during detection (GR001).
    SolverBudget,
    /// A data-planted interpreter trap mid-loop (GR003).
    TrapAtIter,
    /// An injected worker panic at a chosen chunk (GR004).
    WorkerPanic,
    /// An injected cancellation-token abort at a chosen chunk (GR005).
    TokenAbort,
}

impl FaultClass {
    /// Stable ledger key.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FaultClass::SolverBudget => "solver-budget",
            FaultClass::TrapAtIter => "trap-at-iter",
            FaultClass::WorkerPanic => "worker-panic",
            FaultClass::TokenAbort => "token-abort",
        }
    }
}

const CLASSES: [FaultClass; 4] = [
    FaultClass::SolverBudget,
    FaultClass::TrapAtIter,
    FaultClass::WorkerPanic,
    FaultClass::TokenAbort,
];

/// Aggregate outcome of one [`run_fault_differential`] sweep.
#[derive(Debug, Clone, Default)]
pub struct FaultReport {
    /// Cases generated and executed.
    pub cases: usize,
    /// Cases per class, in rotation order (budget, trap, panic, abort).
    pub by_class: [usize; 4],
    /// Cases whose program was detected *and* outlined, so the parallel
    /// runtime (and its degradation paths) actually ran. Per class.
    pub exploited: [usize; 4],
    /// Cases where the armed fault demonstrably fired (budget truncation
    /// observed, trap reached, seam consumed). Per class.
    pub fired: [usize; 4],
    /// Aggregated `error.*` ledger across every traced run, keyed by
    /// stable code (`GR001`…); deterministic for a fixed seed and thread
    /// list.
    pub ledger: BTreeMap<String, i64>,
}

impl FaultReport {
    fn absorb_errors(&mut self, trace: &gr_trace::Trace) {
        for (k, v) in trace.counters_with_prefix("error{") {
            let code = k.trim_start_matches("error{").trim_end_matches('}');
            *self.ledger.entry(code.to_string()).or_insert(0) += v;
        }
    }
}

/// Sweeps `cases` seeded fault-injection cases (classes rotate) and
/// asserts that every one degrades to sequential semantics on every count
/// in `threads`: values equal, output arrays equal, traps reproduced
/// verbatim, and no injected fault ever aborts a whole run.
///
/// # Panics
/// Panics on the first divergence, after writing a reproduction artifact
/// to `target/fuzz-failures/` (the same format as the differential
/// fuzzer's, with the fault class and site in the case name).
#[must_use]
pub fn run_fault_differential(seed: u64, cases: usize, threads: &[usize]) -> FaultReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut report = FaultReport::default();
    for case_idx in 0..cases {
        let class = CLASSES[case_idx % CLASSES.len()];
        report.cases += 1;
        report.by_class[case_idx % CLASSES.len()] += 1;
        match class {
            FaultClass::SolverBudget => budget_case(seed, case_idx, &mut rng, &mut report),
            FaultClass::TrapAtIter => {
                let case = gen_trap_case(&mut rng);
                runtime_case(seed, case_idx, class, &case, None, threads, &mut report);
            }
            FaultClass::WorkerPanic => {
                let (case, site) = gen_exact_case(&mut rng, "panic");
                runtime_case(
                    seed,
                    case_idx,
                    class,
                    &case,
                    Some(&|| InjectGuard::panic_at_chunk(site)),
                    threads,
                    &mut report,
                );
            }
            FaultClass::TokenAbort => {
                let (case, site) = gen_exact_case(&mut rng, "abort");
                runtime_case(
                    seed,
                    case_idx,
                    class,
                    &case,
                    Some(&|| InjectGuard::abort_at_chunk(site)),
                    threads,
                    &mut report,
                );
            }
        }
    }
    report
}

/// Solver starvation: a budget of a few steps must degrade — never crash —
/// detection over a random idiom-grammar program, report the truncation in
/// both the `DetectionReport` and the `error.*` ledger, and stay a sound
/// under-approximation of the unlimited run.
fn budget_case(seed: u64, case_idx: usize, rng: &mut StdRng, report: &mut FaultReport) {
    let case = fuzz::generate(rng);
    // The class's first case starves outright: a zero budget truncates
    // every idiom solve at entry, so starvation demonstrably fires on
    // any seed. The rest draw small budgets that may or may not bite —
    // forced moves are free under the trie search, so many grammar
    // draws solve within a handful of counted steps.
    #[allow(clippy::cast_sign_loss)]
    let steps = if case_idx < 4 { 0 } else { rng.gen_range(1..48) as usize };
    let tag = format!("fault seed {seed:#x} case {case_idx} [budget={steps} {}]", case.name);
    let module = gr_frontend::compile(&case.src)
        .unwrap_or_else(|e| panic!("{tag}: fails to compile: {e}\n{}", case.src));

    let guard = gr_trace::start();
    let budgeted = detect_reductions_budgeted(&module, DetectBudget::steps(steps));
    let trace = guard.finish();
    report.absorb_errors(&trace);

    // The run survived (we are here) and covered every function.
    assert_eq!(budgeted.len(), module.functions.len(), "{tag}: report coverage");
    let truncated: usize = budgeted.iter().map(|r| r.truncated_idioms.len()).sum();
    assert_eq!(
        trace.counter("error{GR001}"),
        truncated as i64,
        "{tag}: one GR001 ledger entry per truncated idiom solve"
    );
    // Degradation is a sound under-approximation, never an invention.
    let full = detect_reductions(&module);
    let kept: usize = budgeted.iter().map(|r| r.reductions.len()).sum();
    assert!(kept <= full.len(), "{tag}: budgeted run invented matches ({kept} > {})", full.len());
    if budgeted.iter().any(|r| r.status.is_degraded()) {
        report.fired[0] += 1;
    }
    report.exploited[0] += 1; // the detection pipeline itself is the subject
}

/// Plants a trap at a seeded iteration: an out-of-bounds search bound
/// (len < n) or a zero divisor inside a fold.
fn gen_trap_case(rng: &mut StdRng) -> FuzzCase {
    let len = rng.gen_range(8..1_500);
    #[allow(clippy::cast_sign_loss)]
    let m = len as usize;
    if rng.gen_range(0..2) == 0 {
        // Search whose bound overruns the array: the sequential run traps
        // at i == len unless the needle is found first. Both outcomes are
        // drawn (needle present in-bounds about half the time).
        let mut data: Vec<i64> = (0..m).map(|_| rng.gen_range(0..900)).collect();
        let needle = 1234i64;
        let with_hit = rng.gen_range(0..2) == 0;
        if with_hit {
            let at = rng.gen_range(0..len);
            #[allow(clippy::cast_sign_loss)]
            {
                data[at as usize] = needle;
            }
        }
        let overrun = rng.gen_range(1..64);
        FuzzCase {
            name: format!("trap/oob-search/len{len}+{overrun}/hit={with_hit}"),
            src: "int k(int* a, int x, int n) {
                     int r = -1;
                     for (int i = 0; i < n; i++) {
                         if (a[i] == x) { r = i; break; }
                     }
                     return r;
                 }"
            .to_string(),
            args: vec![FuzzArg::IArr(data), FuzzArg::I(needle), FuzzArg::I(len + overrun)],
        }
    } else {
        // Fold through a division with one zero planted at a seeded index:
        // sequential and parallel must trap DivByZero identically.
        let mut data: Vec<i64> = (0..m).map(|_| rng.gen_range(1..9)).collect();
        let at = rng.gen_range(0..len);
        #[allow(clippy::cast_sign_loss)]
        {
            data[at as usize] = 0;
        }
        FuzzCase {
            name: format!("trap/div-fold/zero-at-{at}"),
            src: "int k(int* a, int n) {
                     int s = 0;
                     for (int i = 0; i < n; i++) s += 1000 / a[i];
                     return s;
                 }"
            .to_string(),
            args: vec![FuzzArg::IArr(data), FuzzArg::I(len)],
        }
    }
}

/// Integer kernels for the seam-injected classes — integer results and
/// arrays make every comparison exact, so the sequential-fallback claim is
/// checked bit-for-bit. Returns the case and the seeded chunk site.
fn gen_exact_case(rng: &mut StdRng, what: &str) -> (FuzzCase, i64) {
    let len = rng.gen_range(64..3_000);
    #[allow(clippy::cast_sign_loss)]
    let m = len as usize;
    let site = rng.gen_range(0..8);
    let (family, src, args) = match rng.gen_range(0..3) {
        0 => {
            let mut data: Vec<i64> = (0..m).map(|_| rng.gen_range(0..500)).collect();
            let needle = 777i64;
            if rng.gen_range(0..2) == 0 {
                let at = rng.gen_range(0..len);
                #[allow(clippy::cast_sign_loss)]
                {
                    data[at as usize] = needle;
                }
            }
            (
                "search",
                "int k(int* a, int x, int n) {
                     int r = -1;
                     for (int i = 0; i < n; i++) {
                         if (a[i] == x) { r = i; break; }
                     }
                     return r;
                 }",
                vec![FuzzArg::IArr(data), FuzzArg::I(needle), FuzzArg::I(len)],
            )
        }
        1 => {
            let data: Vec<i64> = (0..m).map(|_| rng.gen_range(-40..40)).collect();
            (
                "fold",
                "int k(int* a, int n) {
                     int s = 0;
                     for (int i = 0; i < n; i++) s += a[i];
                     return s;
                 }",
                vec![FuzzArg::IArr(data), FuzzArg::I(len)],
            )
        }
        _ => {
            let data: Vec<i64> = (0..m).map(|_| rng.gen_range(-40..40)).collect();
            (
                "scan",
                "void k(int* a, int* out, int n) {
                     int s = 0;
                     for (int i = 0; i < n; i++) { s += a[i]; out[i] = s; }
                 }",
                vec![FuzzArg::IArr(data), FuzzArg::IArr(vec![0; m]), FuzzArg::I(len)],
            )
        }
    };
    (
        FuzzCase {
            name: format!("{what}/{family}/chunk{site}/len{len}"),
            src: src.to_string(),
            args,
        },
        site,
    )
}

/// Runs one case through the full pipeline on every thread count, with
/// `arm` (if any) re-arming the fault seam before each parallel run, and
/// asserts the outcome — value, output arrays, or trap — matches the
/// sequential interpreter exactly.
fn runtime_case(
    seed: u64,
    case_idx: usize,
    class: FaultClass,
    case: &FuzzCase,
    arm: Option<&dyn Fn() -> InjectGuard>,
    threads: &[usize],
    report: &mut FaultReport,
) {
    let class_idx = CLASSES.iter().position(|&c| c == class).unwrap();
    let tag = format!("fault seed {seed:#x} case {case_idx} [{}]", case.name);
    let module = gr_frontend::compile(&case.src)
        .unwrap_or_else(|e| panic!("{tag}: fails to compile: {e}\n{}", case.src));

    // Sequential reference — traps are a legitimate outcome here.
    let mut mem = Memory::new(&module);
    let (args, seq_objs) = fuzz::materialize(case, &mut mem);
    let mut seq = Machine::new(&module, mem);
    let seq_ret: Result<Option<RtVal>, Trap> = seq.call("k", &args);

    let rs = detect_reductions(&module);
    if rs.is_empty() {
        return;
    }
    let Ok((pm, plan)) = gr_parallel::parallelize(&module, "k", &rs) else {
        return;
    };
    report.exploited[class_idx] += 1;

    let mut observed: Vec<String> = Vec::new();
    let mut traces: Vec<gr_trace::Trace> = Vec::new();
    // Thread counts whose checks passed: `traces[checked]`, when present,
    // is the trace of the run whose check failed.
    let mut checked = 0usize;
    let mut fired = 0usize;
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for &t in threads {
            let fault = arm.map(|f| f());
            let session = gr_trace::start();
            let mut mem = Memory::new(&pm);
            let (pargs, par_objs) = fuzz::materialize(case, &mut mem);
            let mut par = Machine::new(&pm, mem);
            par.set_handler(gr_parallel::runtime::handler(&pm, plan.clone(), t));
            let par_ret = par.call("k", &pargs);
            traces.push(session.finish());
            if fault.as_ref().is_some_and(InjectGuard::fired) {
                fired += 1;
            }
            observed.push(format!("threads={t}: parallel outcome = {par_ret:?}"));
            match (&seq_ret, &par_ret) {
                (Ok(s), Ok(p)) => {
                    fuzz::assert_value_eq(&tag, t, s, p);
                    for (&so, &po) in seq_objs.iter().zip(&par_objs) {
                        fuzz::assert_mem_eq(&tag, t, seq.mem.object(so), par.mem.object(po));
                    }
                }
                (Err(s), Err(p)) => {
                    assert_eq!(
                        s.to_string(),
                        p.to_string(),
                        "{tag} (threads={t}): trap diverged from sequential"
                    );
                    if arm.is_none() {
                        fired += 1; // the planted trap was reached
                    }
                }
                (s, p) => panic!(
                    "{tag} (threads={t}): outcome shape diverged: sequential {s:?} vs parallel {p:?}"
                ),
            }
            checked += 1;
        }
    }));
    for trace in &traces {
        report.absorb_errors(trace);
    }
    if let Err(panic) = outcome {
        let seq_ok = seq_ret.as_ref().ok().cloned().flatten();
        let failing = traces.get(checked);
        fuzz::dump_failure(seed, case_idx, case, &seq_ok, &observed, panic.as_ref(), failing);
        std::panic::resume_unwind(panic);
    }
    if fired > 0 {
        report.fired[class_idx] += 1;
    }
}

/// Renders the sweep's aggregated failure ledger as deterministic JSON to
/// `target/fault-ledger/<seed>.json` (CI uploads it as an artifact).
/// Returns the path, or `None` if the directory cannot be created.
pub fn write_fault_ledger(seed: u64, report: &FaultReport) -> Option<std::path::PathBuf> {
    use std::fmt::Write as _;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/fault-ledger");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{seed:#x}.json"));
    let mut body = String::new();
    let _ = writeln!(body, "{{");
    let _ = writeln!(body, "  \"seed\": \"{seed:#x}\",");
    let _ = writeln!(body, "  \"cases\": {},", report.cases);
    let _ = writeln!(body, "  \"classes\": {{");
    for (i, class) in CLASSES.iter().enumerate() {
        let _ = writeln!(
            body,
            "    \"{}\": {{ \"cases\": {}, \"exploited\": {}, \"fired\": {} }}{}",
            class.as_str(),
            report.by_class[i],
            report.exploited[i],
            report.fired[i],
            if i + 1 < CLASSES.len() { "," } else { "" }
        );
    }
    let _ = writeln!(body, "  }},");
    let _ = writeln!(body, "  \"errors\": {{");
    let n = report.ledger.len();
    for (i, (code, count)) in report.ledger.iter().enumerate() {
        let _ = writeln!(body, "    \"{code}\": {count}{}", if i + 1 < n { "," } else { "" });
    }
    let _ = writeln!(body, "  }}");
    let _ = writeln!(body, "}}");
    std::fs::write(&path, body).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_rotation_covers_all_four_classes() {
        let report = run_fault_differential(0xFA_017, 8, &[2]);
        assert_eq!(report.cases, 8);
        assert_eq!(report.by_class, [2, 2, 2, 2]);
    }

    #[test]
    fn budget_class_always_degrades_and_ledgers_gr001() {
        let mut rng = StdRng::seed_from_u64(0xB4D_9E7);
        let mut report = FaultReport::default();
        for i in 0..6 {
            report.cases += 1;
            report.by_class[0] += 1;
            budget_case(0xB4D_9E7, i, &mut rng, &mut report);
        }
        // A handful of solver steps starves most programs in the grammar
        // (a tiny function can finish under budget — that is Complete, not
        // a missed injection), and every truncation lands in the ledger.
        assert!(report.fired[0] >= 4, "{report:?}");
        assert!(report.ledger.get("GR001").copied().unwrap_or(0) > 0, "{report:?}");
    }

    #[test]
    fn ledger_json_is_well_formed_and_lists_every_class() {
        let report = run_fault_differential(0x1ED9E5, 8, &[1, 2]);
        let path = write_fault_ledger(0x1ED9E5, &report).expect("ledger written");
        let body = std::fs::read_to_string(&path).expect("ledger readable");
        for class in CLASSES {
            assert!(body.contains(class.as_str()), "missing {}: {body}", class.as_str());
        }
        assert!(body.contains("\"seed\": \"0x1ed9e5\""));
        let _ = std::fs::remove_file(&path);
    }
}
