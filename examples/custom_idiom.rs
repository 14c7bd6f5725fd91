//! The paper's extensibility claim: "a constraint language that allows
//! easy extensions to cover other idioms". This example specifies a *new*
//! idiom — a dot-product loop (two same-index loads feeding one multiply
//! that updates an accumulator) — entirely with the public constraint DSL,
//! runs the generic backtracking solver on unseen code, and then plugs
//! the idiom into the [`IdiomRegistry`] so the standard detection driver
//! reports it next to the built-in idioms.
//!
//! Run with: `cargo run --release --example custom_idiom`

use general_reductions::core::atoms::{Atom, MatchCtx, OpClass};
use general_reductions::core::constraint::{Spec, SpecBuilder};
use general_reductions::core::report::{Reduction, ReductionKind, ReductionOp};
use general_reductions::core::solver::{solve, SolveOptions};
use general_reductions::core::spec::add_for_loop;
use general_reductions::core::{detect_with, IdiomEntry, IdiomRegistry};
use general_reductions::prelude::*;
use gr_analysis::Analyses;

/// dot-product idiom: for-loop + acc phi + acc_next = acc + load(a,i) *
/// load(b,i) with both loads indexed by the induction variable.
fn dot_product_spec() -> Spec {
    let mut b = SpecBuilder::new("dot-product");
    let fl = add_for_loop(&mut b);
    let acc = b.label("acc");
    let acc_next = b.label("acc_next");
    let mul = b.label("mul");
    let la = b.label("load_a");
    let lb = b.label("load_b");
    let ga = b.label("gep_a");
    let gb = b.label("gep_b");
    let base_a = b.label("base_a");
    let base_b = b.label("base_b");

    b.atom(Atom::BlockOf { inst: acc, block: fl.header });
    b.atom(Atom::Opcode { l: acc, class: OpClass::Phi });
    b.atom(Atom::PhiIncoming { phi: acc, value: acc_next, block: fl.latch });
    b.atom(Atom::Opcode { l: acc_next, class: OpClass::Add });
    b.atom(Atom::OperandOf { inst: acc_next, value: acc });
    b.atom(Atom::OperandOf { inst: acc_next, value: mul });
    b.atom(Atom::Opcode { l: mul, class: OpClass::Bin });
    b.atom(Atom::OperandIs { inst: mul, index: 0, value: la });
    b.atom(Atom::OperandIs { inst: mul, index: 1, value: lb });
    for (load, gep, base) in [(la, ga, base_a), (lb, gb, base_b)] {
        b.atom(Atom::Opcode { l: load, class: OpClass::Load });
        b.atom(Atom::OperandIs { inst: load, index: 0, value: gep });
        b.atom(Atom::Opcode { l: gep, class: OpClass::Gep });
        b.atom(Atom::OperandIs { inst: gep, index: 0, value: base });
        b.atom(Atom::OperandIs { inst: gep, index: 1, value: fl.iterator });
        b.atom(Atom::InvariantIn { value: base, header: fl.header });
    }
    b.atom(Atom::NotEqual { a: base_a, b: base_b });
    b.finish()
}

fn main() {
    let module = compile(
        "float dot(float* a, float* b, int n) {
             float s = 0.0;
             for (int i = 0; i < n; i++) s += a[i] * b[i];
             return s;
         }
         float not_dot(float* a, int n) {
             float s = 0.0;
             for (int i = 0; i < n; i++) s += a[i] * a[i];
             return s;
         }",
    )
    .expect("compiles");
    let spec = dot_product_spec();
    let mut matches = Vec::new();
    for func in &module.functions {
        let analyses = Analyses::new(&module, func);
        let ctx = MatchCtx::new(&module, func, &analyses);
        let (solutions, stats) = solve(&spec, &ctx, SolveOptions::default());
        println!(
            "@{}: {} dot-product match(es) in {} solver steps",
            func.name,
            solutions.len(),
            stats.steps
        );
        matches.push((func.name.as_str(), solutions.len()));
    }
    // @dot matches once; @not_dot does not (both operands from the same
    // array).
    assert_eq!(matches, [("dot", 1), ("not_dot", 0)], "dot-product match counts");

    // Plug the idiom into the registry: the generic driver now reports
    // dot products alongside the default idioms, with no detector code.
    let entry = IdiomEntry::new(
        "dot-product",
        dot_product_spec(),
        |spec, s| (s[spec.label("acc").index()], s[spec.label("acc").index()]),
        |ctx, spec, s| {
            // Reuse the stock associativity post-check.
            let header = s[spec.label("header").index()];
            let lid = ctx.loop_of_header(header)?;
            let acc = s[spec.label("acc").index()];
            let acc_next = s[spec.label("acc_next").index()];
            general_reductions::core::postcheck::classify_update(
                ctx.func,
                ctx.analyses,
                lid,
                acc,
                acc_next,
            )
        },
        |ctx, spec, s, op| {
            let lid = ctx.loop_of_header(s[spec.label("header").index()])?;
            let l = ctx.analyses.loops.get(lid);
            Some(Reduction {
                function: ctx.func.name.clone(),
                kind: ReductionKind::Scalar,
                op,
                header: l.header,
                depth: l.depth,
                anchor: s[spec.label("acc").index()],
                object: None,
                affine: true,
                arg_pred: None,
                bindings: vec![],
            })
        },
    );
    let mut registry = IdiomRegistry::empty();
    registry.register(entry).expect("fresh name");
    println!("\nthrough the registry driver:");
    let reductions = detect_with(&registry, &module);
    for r in &reductions {
        println!("  {r}");
    }
    // The registry reports exactly @dot's accumulator, as a `+` scalar
    // reduction.
    let reported: Vec<(&str, ReductionKind, ReductionOp)> =
        reductions.iter().map(|r| (r.function.as_str(), r.kind, r.op)).collect();
    assert_eq!(reported, [("dot", ReductionKind::Scalar, ReductionOp::Add)], "registry report");
}
