//! The irredundancy sweep: every top-level conjunct of every default
//! idiom spec must be needed.
//!
//! For each conjunct the sweep drops it from every spec that contains
//! it and detects the corpus again. A prefix conjunct is one unit across
//! its whole family: dropping it touches every idiom built on that
//! prefix and both instances of the map-reduce-fusion pair. A conjunct
//! of the shared counted-loop builder sits in both prefixes and drops
//! from both. An `Or` counts as one conjunct.
//!
//! The unit is needed if at least one function's `DetectionReport`
//! `{:?}` changes: its reductions and bindings, its status or its solver
//! steps. A unit whose removal changes steps only, or leaves every report
//! alone but makes the solver materialize more candidates, is kept for
//! search cost; the sweep prints those. A unit that changes nothing fails
//! the test: either the other conjuncts imply it and it should be
//! deleted, or it guards a shape the corpus lacks and needs a witness
//! program in `near_misses/mod.rs`.
//!
//! The corpus is the near-miss table, the bundled programs, 256 fuzz
//! draws and a 512-function synthetic slice. A near-miss that names a
//! unit as its witness is tried first, and must be detected as one of
//! its idioms once the unit is dropped. Only the entries a unit touches
//! are re-solved: the idioms report disjoint reduction kinds and the
//! other entries' solves do not change, so a function's full report
//! changes exactly when the touched entries' report does.
//!
//! `UNWITNESSED` lists the conjuncts that change no report yet: each
//! still needs an implication argument (then it is deleted) or a
//! near-miss that only it rejects. The sweep fails when the list and the
//! corpus disagree, so the list can only shrink.
//!
//! Run it alone with `cargo test --release --test spec_irredundancy --
//! --nocapture` to see the search-cost keepers.
//!
//! The same holds one level down, for the constraint language itself:
//! every `Atom` kind must appear in some default spec, so a kind that no
//! spec uses is deleted rather than kept in every match over `Atom`.

mod near_misses;

use gr_analysis::Analyses;
use gr_benchsuite::fuzz::{generate, synthetic_corpus, CORPUS_SEED};
use gr_benchsuite::rng::StdRng;
use gr_core::atoms::{Atom, MatchCtx};
use gr_core::constraint::{Constraint, Spec};
use gr_core::detect::PrefixCache;
use gr_core::spec::{for_loop_early_exit_spec, for_loop_spec};
use gr_core::{DetectBudget, DetectionReport, IdiomEntry, IdiomRegistry};
use gr_ir::Module;
use near_misses::NEAR_MISSES;
use std::collections::HashMap;

/// Conjuncts whose removal changes no report on this corpus yet, each
/// awaiting a witness program or an implication argument that holds for
/// any IR, not just the frontend's.
const UNWITNESSED: &[&str] = &[
    // Implied only by the shapes the frontend emits: every branch
    // condition is a comparison, a latch ends in `br header`, a `break`
    // leaves through a trampoline of its own, an early-exit loop's exit
    // block has the header and that trampoline as its only predecessors,
    // a loop body starts in a block of its own, an argmin merge block is
    // the one its diamond or select sits in, and no pointer is ever
    // offset.
    "counted-loop: Opcode { l: test, class: Cmp }",
    "counted-loop: BlockOf { inst: iterator, block: header }",
    "early-exit: NotInLoopBlock { block: break_blk, header: header }",
    "early-exit: NotEqual { a: break_blk, b: exit }",
    "early-exit: Opcode { l: exit_cond, class: Cmp }",
    "argmin-argmax: NotEqual { a: val_next, b: val }",
    "argmin-argmax: InLoopBlock { block: merge, header: header }",
    "find-first: PhiArity { phi: res, n: 2 }",
    "find-min-index-early: PhiArity { phi: res, n: 2 }",
    "find-last: PhiArity { phi: res, n: 2 }",
    "any-all-of: PhiArity { phi: res, n: 2 }",
    "map-reduce-fusion: AnchoredTo { inst: p_store, header: header }",
    "map-reduce-fusion: InvariantIn { value: tmp_base, header: header }",
];

/// One compiled corpus program with its per-function analyses.
struct Program {
    name: String,
    module: Module,
    analyses: Vec<Analyses>,
}

impl Program {
    fn new(name: String, src: &str) -> Program {
        let module = gr_frontend::compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let analyses = module.functions.iter().map(|f| Analyses::new(&module, f)).collect();
        Program { name, module, analyses }
    }

    /// Every function's report under `registry`.
    fn reports(&self, registry: &IdiomRegistry) -> Vec<DetectionReport> {
        self.module
            .functions
            .iter()
            .zip(&self.analyses)
            .map(|(func, analyses)| {
                let ctx = MatchCtx::new(&self.module, func, analyses);
                registry.detect_in_function_report(
                    &ctx,
                    Some(&mut PrefixCache::new()),
                    DetectBudget::UNLIMITED,
                )
            })
            .collect()
    }
}

/// One top-level conjunct as the spec builders write it: where it
/// drops from, per default entry.
struct Unit {
    /// `scope: conjunct`, the scope being `counted-loop`, `for-loop` or
    /// `early-exit` for prefix conjuncts and the idiom name otherwise.
    name: String,
    /// `(entry index, conjunct indexes)` for every spec holding it.
    drops: Vec<(usize, Vec<usize>)>,
}

/// A conjunct rendered with label names instead of label indexes.
fn render(c: &Constraint, names: &[String]) -> String {
    match c {
        Constraint::Atom(a) => {
            let raw = format!("{a:?}");
            let mut out = String::new();
            let mut rest = raw.as_str();
            while let Some(at) = rest.find("Label(") {
                out.push_str(&rest[..at]);
                let tail = &rest[at + "Label(".len()..];
                let close = tail.find(')').expect("Label(n) is closed");
                out.push_str(&names[tail[..close].parse::<usize>().expect("label index")]);
                rest = &tail[close + 1..];
            }
            out.push_str(rest);
            out
        }
        Constraint::And(cs) => {
            let parts: Vec<String> = cs.iter().map(|c| render(c, names)).collect();
            format!("({})", parts.join(" & "))
        }
        Constraint::Or(cs) => {
            let parts: Vec<String> = cs.iter().map(|c| render(c, names)).collect();
            format!("Or({})", parts.join(" | "))
        }
    }
}

/// The sweep's units, prefix conjuncts first, then each idiom's own.
fn units(entries: &[&IdiomEntry]) -> Vec<Unit> {
    let families = [
        (for_loop_spec().0.prefix.expect("marked").fingerprint, "for-loop"),
        (for_loop_early_exit_spec().0.prefix.expect("marked").fingerprint, "early-exit"),
    ];
    // Prefix conjuncts keyed by their rendering: the counted-loop
    // builder writes the same conjunct into both prefixes.
    let mut prefix: Vec<(Unit, Vec<&str>)> = Vec::new();
    let mut own = Vec::new();
    for (e, entry) in entries.iter().enumerate() {
        let spec = &entry.spec;
        let p = spec.prefix.expect("every default spec marks a prefix");
        let family =
            families.iter().find(|(fp, _)| *fp == p.fingerprint).expect("a known prefix").1;
        for (k, c) in spec.conjuncts().iter().enumerate() {
            let text = render(c, &spec.label_names);
            if k >= p.total_conjuncts() {
                own.push(Unit {
                    name: format!("{}: {text}", entry.name),
                    drops: vec![(e, vec![k])],
                });
                continue;
            }
            if k >= p.conjuncts {
                continue;
            }
            let at: Vec<usize> = (0..p.instances).map(|i| k + i * p.conjuncts).collect();
            match prefix.iter_mut().find(|(u, _)| u.name == text) {
                Some((u, fams)) => {
                    if !fams.contains(&family) {
                        fams.push(family);
                    }
                    u.drops.push((e, at));
                }
                None => prefix.push((Unit { name: text, drops: vec![(e, at)] }, vec![family])),
            }
        }
    }
    let mut out: Vec<Unit> = prefix
        .into_iter()
        .map(|(u, fams)| {
            let scope = if fams.len() == 2 { "counted-loop" } else { fams[0] };
            Unit { name: format!("{scope}: {}", u.name), drops: u.drops }
        })
        .collect();
    out.extend(own);
    out
}

/// `entry` with `spec` in place of its own.
fn with_spec(entry: &IdiomEntry, spec: Spec) -> IdiomEntry {
    IdiomEntry {
        name: entry.name,
        spec,
        anchor: entry.anchor,
        post_check: entry.post_check,
        classify: entry.classify,
        finalize: entry.finalize,
    }
}

/// The entries `unit` touches, in registry order, each with the unit
/// dropped (`drop`) or as registered.
fn touched(entries: &[&IdiomEntry], unit: &Unit, drop: bool) -> IdiomRegistry {
    let mut r = IdiomRegistry::empty();
    for (e, at) in &unit.drops {
        let entry = entries[*e];
        let mut spec = entry.spec.clone();
        if drop {
            let mut cs = spec.conjuncts().to_vec();
            for &k in at.iter().rev() {
                cs.remove(k);
            }
            if let Some(p) = spec.prefix.as_mut() {
                if at[0] < p.conjuncts {
                    // A changed prefix is a different sub-problem: give it
                    // its own cache key, the same across the family.
                    p.conjuncts -= 1;
                    p.fingerprint = p.fingerprint.rotate_left(7) ^ (at[0] as u64 + 1);
                }
            }
            spec.root = Constraint::And(cs);
        }
        r.register(with_spec(entry, spec)).expect("unique names");
    }
    r
}

/// The candidates the solver materializes over the corpus (the sum of
/// the `solver.fanout` samples), read from a trace session.
fn candidates(programs: &[Program], registry: &IdiomRegistry) -> i64 {
    let session = gr_trace::start();
    for program in programs {
        program.reports(registry);
    }
    session.finish().counter("solver.candidates")
}

/// What dropping a unit changed over the corpus.
#[derive(Default)]
struct Outcome {
    /// Whether some function's reductions, bindings or status changed.
    solutions: bool,
    /// The first program whose steps changed, and the corpus-wide steps
    /// before and after.
    steps: Option<String>,
    before: usize,
    after: usize,
}

#[test]
fn every_spec_conjunct_changes_some_report() {
    let registry = IdiomRegistry::with_default_idioms();
    let entries: Vec<&IdiomEntry> = registry.entries().collect();
    let mut programs: Vec<Program> = NEAR_MISSES
        .iter()
        .map(|m| Program::new(format!("near-miss {}", m.name), m.src))
        .collect();
    let mut bundled = gr_benchsuite::all_programs();
    bundled.extend(gr_benchsuite::micro::programs());
    programs.extend(bundled.iter().map(|p| Program::new(p.name.to_string(), p.source)));
    let mut rng = StdRng::seed_from_u64(0x00D1_6E57);
    for i in 0..256 {
        let case = generate(&mut rng);
        programs.push(Program::new(format!("fuzz #{i} {}", case.name), &case.src));
    }
    for case in synthetic_corpus(CORPUS_SEED, 512) {
        programs.push(Program::new(format!("synthetic {}", case.name), &case.src));
    }

    // Reports of the untouched specs, per touched entry set and program.
    let mut baseline: HashMap<Vec<usize>, Vec<Option<Vec<DetectionReport>>>> = HashMap::new();
    let mut unneeded = Vec::new();
    let mut step_keepers = Vec::new();
    let all = units(&entries);
    for unit in &all {
        let key: Vec<usize> = unit.drops.iter().map(|(e, _)| *e).collect();
        let base = baseline.entry(key).or_insert_with(|| programs.iter().map(|_| None).collect());
        let before_registry = touched(&entries, unit, false);
        let after_registry = touched(&entries, unit, true);
        // Witnesses first: each must be detected once the unit is gone.
        let witnesses: Vec<usize> = (0..NEAR_MISSES.len())
            .filter(|&i| NEAR_MISSES[i].witness == Some(&unit.name))
            .collect();
        for &i in &witnesses {
            let detected = programs[i].reports(&after_registry);
            let m = &NEAR_MISSES[i];
            assert!(
                detected.iter().flat_map(|r| &r.reductions).any(|r| m.kinds.contains(&r.kind)),
                "near-miss {} names `{}` but is not detected once it is dropped",
                m.name,
                unit.name
            );
        }
        let order = witnesses
            .iter()
            .copied()
            .chain((0..programs.len()).filter(|i| !witnesses.contains(i)));
        let mut outcome = Outcome::default();
        for i in order {
            let program = &programs[i];
            let before = base[i].get_or_insert_with(|| program.reports(&before_registry));
            let after = program.reports(&after_registry);
            for (b, a) in before.iter().zip(&after) {
                outcome.before += b.steps_used;
                outcome.after += a.steps_used;
                let same_solutions = format!("{:?}{:?}", b.reductions, b.status)
                    == format!("{:?}{:?}", a.reductions, a.status);
                outcome.solutions |= !same_solutions;
                if b.steps_used != a.steps_used && outcome.steps.is_none() {
                    outcome.steps = Some(format!(
                        "{} `{}` {} -> {}",
                        program.name, b.function, b.steps_used, a.steps_used
                    ));
                }
            }
            if outcome.solutions {
                break;
            }
        }
        match (outcome.solutions, &outcome.steps) {
            (true, _) => {}
            (false, Some(first)) => step_keepers.push(format!(
                "{}\n    corpus steps {} -> {}; first at {first}",
                unit.name, outcome.before, outcome.after
            )),
            (false, None) => {
                // Same reports and steps: the conjunct may still spare the
                // solver candidates (a generator narrower than the rest).
                let before = candidates(&programs, &before_registry);
                let after = candidates(&programs, &after_registry);
                if before == after {
                    unneeded.push(unit.name.clone());
                } else {
                    step_keepers
                        .push(format!("{}\n    corpus candidates {before} -> {after}", unit.name));
                }
            }
        }
    }
    let conservative: Vec<&str> = NEAR_MISSES
        .iter()
        .filter(|m| m.conservative)
        .filter_map(|m| m.witness)
        .collect();
    println!(
        "{} conjuncts checked; {} kept only for search cost (steps or candidates):\n  {}\n\
         {} kept conservatively (their witness would be sound to exploit):\n  {}",
        all.len(),
        step_keepers.len(),
        step_keepers.join("\n  "),
        conservative.len(),
        conservative.join("\n  ")
    );
    let new: Vec<&String> =
        unneeded.iter().filter(|u| !UNWITNESSED.contains(&u.as_str())).collect();
    assert!(
        new.is_empty(),
        "{} conjuncts change no report when dropped: delete each one the others imply, \
         or add a near-miss that only it rejects:\n  {}",
        new.len(),
        new.iter().map(|u| u.as_str()).collect::<Vec<_>>().join("\n  ")
    );
    let stale: Vec<&&str> =
        UNWITNESSED.iter().filter(|u| !unneeded.contains(&u.to_string())).collect();
    assert!(
        stale.is_empty(),
        "UNWITNESSED names conjuncts that are gone or now change a report; drop them:\n  {stale:?}"
    );
}

/// Lists every `Atom` kind by its `kind_name`. The generated match has no
/// wildcard arm, so a new `Atom` variant does not compile until it is
/// listed here.
macro_rules! atom_kinds {
    ($($kind:ident),* $(,)?) => {
        const ATOM_KINDS: &[&str] = &[$(stringify!($kind)),*];

        fn listed_kind(a: &Atom) -> &'static str {
            match a {
                $(Atom::$kind { .. } => stringify!($kind),)*
            }
        }
    };
}

atom_kinds!(
    IsLoopHeader,
    Opcode,
    TypeScalar,
    TypeInt,
    PhiArity,
    OperandOf,
    OperandIs,
    PhiIncoming,
    NotEqual,
    Equal,
    BlockOf,
    CfgEdge,
    Dominates,
    Postdominates,
    InLoopBlock,
    NotInLoopBlock,
    InLoopInst,
    AnchoredTo,
    InvariantIn,
    ComputedOnlyFrom,
    UsesConfinedTo,
    OnlyObjectAccesses,
    LoopExitEdges,
    PureInLoop,
    OnlyTerminator,
    CmpPredIs,
    IsConstInt,
    ConstIntNegative,
    SameTripCount,
    NoInterveningWrites,
    OnlyConsumedBy,
);

#[test]
fn every_atom_kind_has_a_default_spec_user() {
    let registry = IdiomRegistry::with_default_idioms();
    let mut used = Vec::new();
    for atom in registry.entries().flat_map(|e| e.spec.root.atoms()) {
        assert_eq!(listed_kind(atom), atom.kind_name());
        used.push(atom.kind_name());
    }
    let unused: Vec<&str> = ATOM_KINDS.iter().copied().filter(|k| !used.contains(k)).collect();
    assert!(
        unused.is_empty(),
        "no default spec uses these atom kinds; delete them or land them with the spec that \
         uses them: {unused:?}"
    );
}
