//! Solver ablation (paper §3.2 vs §3.3): the naive `values(F)^I`
//! enumeration against the backtracking DETECT procedure with
//! constraint-driven candidate generation — and, per idiom, the steps of
//! a `solve_extend` resume from the shared for-loop prefix.

use gr_analysis::Analyses;
use gr_bench::timing::bench;
use gr_core::atoms::{Atom, MatchCtx, OpClass};
use gr_core::constraint::SpecBuilder;
use gr_core::detect::PrefixCache;
use gr_core::solver::{solve, solve_naive, SolveOptions};
use gr_core::spec::{scalar_reduction_spec, IdiomRegistry};

const SRC: &str = "float sum(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }";

/// Small 3-label spec for the naive comparison (the naive solver is
/// exponential; the full reduction spec would never finish).
fn small_spec() -> gr_core::constraint::Spec {
    let mut b = SpecBuilder::new("load-of-gep");
    let load = b.label("load");
    let gep = b.label("gep");
    let base = b.label("base");
    b.atom(Atom::Opcode { l: load, class: OpClass::Load });
    b.atom(Atom::OperandIs { inst: load, index: 0, value: gep });
    b.atom(Atom::Opcode { l: gep, class: OpClass::Gep });
    b.atom(Atom::OperandIs { inst: gep, index: 0, value: base });
    b.finish()
}

fn main() {
    let m = gr_frontend::compile(SRC).unwrap();
    let func = &m.functions[0];
    let analyses = Analyses::new(&m, func);
    let ctx = MatchCtx::new(&m, func, &analyses);

    // Steps per idiom, resumed from the shared prefix.
    let registry = IdiomRegistry::with_default_idioms();
    let report = registry.stats_report(&ctx);
    println!("steps per idiom on `{}` (prefix extension):", func.name);
    println!("  for-loop prefix: {} steps, solved once", report.prefix.steps);
    for (name, ext) in &report.per_idiom {
        println!("  {name:<22} {:>4}", ext.steps);
    }
    println!("  total {}", report.total().steps);

    let spec = small_spec();
    bench("solver/backtracking/3-label", || solve(&spec, &ctx, SolveOptions::default()).0.len());
    bench("solver/naive/3-label", || solve_naive(&spec, &ctx, SolveOptions::default()).0.len());
    let (full, _) = scalar_reduction_spec();
    bench("solver/backtracking/scalar-reduction-15-label", || {
        solve(&full, &ctx, SolveOptions::default()).0.len()
    });
    bench("solver/shared-prefix/default-registry", || {
        let mut cache = PrefixCache::new();
        let mut n = 0;
        for entry in registry.entries() {
            let (sols, _, _) = gr_core::detect::solve_with_cache(
                &entry.spec,
                &ctx,
                Some(&mut cache),
                SolveOptions::default(),
            );
            n += sols.len();
        }
        n
    });
}
