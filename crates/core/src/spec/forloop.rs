//! The for-loop idiom — the constraint formulation of the paper's
//! Figure 5, adapted to this IR's canonical loop shape.
//!
//! A counted loop is a 12-tuple of values
//! `(header, preheader, latch, body, exit, jump, test, iterator, next_iter,
//! iter_begin, iter_step, iter_end)` such that the header's conditional
//! branch tests `cmp(iterator, iter_end)`, the iterator is a header phi
//! receiving `iter_begin` from the preheader and `next_iter = add(iterator,
//! iter_step)` from the latch, and `iter_begin` / `iter_step` / `iter_end`
//! are constants or defined before the loop ("the iteration space is known
//! in advance, not necessarily at compile time"). The spec states each
//! fact once: `iter_begin` needs no invariance atom, because a value
//! flowing in from the preheader is defined outside the loop, and the
//! invariant `iter_end` cannot be the iterator, a header phi.
//!
//! The body-region constraint (`latch` post-dominates `body`; `body`
//! dominates `latch` already, as the header's one in-loop successor)
//! enforces single-exit iteration: loops with `break` or in-body `return`
//! do not match, because their iteration space is not known in advance.

use crate::atoms::{Atom, OpClass};
use crate::constraint::{Constraint, Label, Spec, SpecBuilder};

/// Labels of the for-loop idiom.
#[derive(Debug, Clone, Copy)]
pub struct ForLoopLabels {
    /// Loop header block.
    pub header: Label,
    /// Unique predecessor outside the loop.
    pub preheader: Label,
    /// Unique latch block (source of the back edge).
    pub latch: Label,
    /// First body block (in-loop successor of the header).
    pub body: Label,
    /// Exit block (out-of-loop successor of the header).
    pub exit: Label,
    /// The header's conditional branch.
    pub jump: Label,
    /// The loop test comparison.
    pub test: Label,
    /// Induction-variable phi.
    pub iterator: Label,
    /// `iterator + iter_step`.
    pub next_iter: Label,
    /// Initial induction value.
    pub iter_begin: Label,
    /// Induction step.
    pub iter_step: Label,
    /// Loop bound.
    pub iter_end: Label,
}

/// Adds the counted-loop constraints shared by both markable prefixes —
/// the single-exit [`add_for_loop`] and the two-exit
/// [`add_for_loop_early_exit`](crate::spec::earlyexit::add_for_loop_early_exit).
/// With `single_exit`, the body-region atom (`latch` post-dominates
/// `body`) enforces that every started iteration reaches the latch;
/// without, the caller adds its own exit discipline (e.g. a single
/// guarded break).
///
/// Does **not** mark the prefix — the calling composite does, after adding
/// its remaining atoms.
pub(crate) fn add_counted_loop(b: &mut SpecBuilder, single_exit: bool) -> ForLoopLabels {
    add_counted_loop_suffixed(b, single_exit, "")
}

/// [`add_counted_loop`] with a suffix appended to every label name, so a
/// spec can stack a *second* copy of the counted-loop sub-problem without
/// colliding with the first instance's label names (the constraint tree
/// is identical modulo the label offset — which is exactly what
/// [`SpecBuilder::mark_prefix`] verifies for stacked prefix instances).
pub(crate) fn add_counted_loop_suffixed(
    b: &mut SpecBuilder,
    single_exit: bool,
    suffix: &str,
) -> ForLoopLabels {
    let header = b.label(&format!("header{suffix}"));
    let preheader = b.label(&format!("preheader{suffix}"));
    let latch = b.label(&format!("latch{suffix}"));
    let jump = b.label(&format!("jump{suffix}"));
    let test = b.label(&format!("test{suffix}"));
    let body = b.label(&format!("body{suffix}"));
    let exit = b.label(&format!("exit{suffix}"));
    let iterator = b.label(&format!("iterator{suffix}"));
    let next_iter = b.label(&format!("next_iter{suffix}"));
    let iter_begin = b.label(&format!("iter_begin{suffix}"));
    let iter_step = b.label(&format!("iter_step{suffix}"));
    let iter_end = b.label(&format!("iter_end{suffix}"));

    // Structure: header is a loop header; preheader enters it from outside;
    // the latch closes the back edge from inside.
    b.atom(Atom::IsLoopHeader(header));
    b.atom(Atom::CfgEdge { from: preheader, to: header });
    b.atom(Atom::NotInLoopBlock { block: preheader, header });
    b.atom(Atom::CfgEdge { from: latch, to: header });
    b.atom(Atom::InLoopBlock { block: latch, header });

    // header: condbr(test, …) with one in-loop and one out-of-loop target.
    // Its targets are the header's successors, so the edges name them.
    b.atom(Atom::BlockOf { inst: jump, block: header });
    b.atom(Atom::Opcode { l: jump, class: OpClass::CondBr });
    b.atom(Atom::OperandIs { inst: jump, index: 0, value: test });
    b.atom(Atom::Opcode { l: test, class: OpClass::Cmp });
    b.atom(Atom::InLoopBlock { block: body, header });
    b.atom(Atom::CfgEdge { from: header, to: body });
    b.atom(Atom::NotInLoopBlock { block: exit, header });
    b.atom(Atom::CfgEdge { from: header, to: exit });

    // Single-exit iteration: every started iteration reaches the latch.
    // (The early-exit prefix replaces this by its guarded-break
    // discipline.) That `body` dominates the latch needs no atom: the loop
    // is entered only at the header, whose in-loop successor is `body`.
    if single_exit {
        b.atom(Atom::Postdominates { a: latch, b: body });
    }

    // Induction variable: a header phi tested against the bound…
    b.atom(Atom::BlockOf { inst: iterator, block: header });
    b.atom(Atom::Opcode { l: iterator, class: OpClass::Phi });
    b.atom(Atom::PhiArity { phi: iterator, n: 2 });
    b.atom(Atom::TypeInt(iterator));
    b.any(vec![
        Constraint::Atom(Atom::OperandIs { inst: test, index: 0, value: iterator }),
        Constraint::Atom(Atom::OperandIs { inst: test, index: 1, value: iterator }),
    ]);
    b.atom(Atom::OperandOf { inst: test, value: iter_end });
    b.atom(Atom::InvariantIn { value: iter_end, header });

    // …receiving add(iterator, step) from the latch and begin from the
    // preheader (outside the loop, so `iter_begin` is invariant).
    b.atom(Atom::PhiIncoming { phi: iterator, value: next_iter, block: latch });
    b.atom(Atom::Opcode { l: next_iter, class: OpClass::Add });
    b.any(vec![
        Constraint::And(vec![
            Constraint::Atom(Atom::OperandIs { inst: next_iter, index: 0, value: iterator }),
            Constraint::Atom(Atom::OperandIs { inst: next_iter, index: 1, value: iter_step }),
        ]),
        Constraint::And(vec![
            Constraint::Atom(Atom::OperandIs { inst: next_iter, index: 0, value: iter_step }),
            Constraint::Atom(Atom::OperandIs { inst: next_iter, index: 1, value: iterator }),
        ]),
    ]);
    b.atom(Atom::InvariantIn { value: iter_step, header });
    b.atom(Atom::PhiIncoming { phi: iterator, value: iter_begin, block: preheader });

    ForLoopLabels {
        header,
        preheader,
        latch,
        body,
        exit,
        jump,
        test,
        iterator,
        next_iter,
        iter_begin,
        iter_step,
        iter_end,
    }
}

/// Adds the for-loop constraints to `b`, returning the labels for
/// composition with further idiom conditions.
///
/// The for-loop labels and conjuncts are marked as the spec's shared
/// **prefix** ([`SpecBuilder::mark_prefix`]): every idiom built on this
/// skeleton poses the identical 12-label sub-problem, so the detection
/// driver solves it once per function and resumes each idiom's search from
/// the cached solutions
/// ([`solve_extend`](crate::solver::solve_extend)).
pub fn add_for_loop(b: &mut SpecBuilder) -> ForLoopLabels {
    let labels = add_counted_loop(b, true);
    b.mark_prefix();
    labels
}

/// Adds **two stacked instances** of the for-loop prefix — the producer
/// and the consumer loop of a two-loop idiom like map-reduce fusion. Each
/// instance is marked with [`SpecBuilder::mark_prefix`], so the detection
/// driver resumes the spec from every ordered *pair* of cached for-loop
/// solutions instead of re-solving either loop; the second instance's
/// labels carry the `suffix` (e.g. `header_r`) to keep names unique.
///
/// Must be the first composite on a fresh builder, exactly like
/// [`add_for_loop`].
pub fn add_for_loop_pair(b: &mut SpecBuilder, suffix: &str) -> (ForLoopLabels, ForLoopLabels) {
    let first = add_for_loop(b);
    let second = add_counted_loop_suffixed(b, true, suffix);
    b.mark_prefix();
    (first, second)
}

/// The standalone for-loop specification.
#[must_use]
pub fn for_loop_spec() -> (Spec, ForLoopLabels) {
    let mut b = SpecBuilder::new("for-loop");
    let labels = add_for_loop(&mut b);
    (b.finish(), labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms::MatchCtx;
    use crate::solver::{solve, SolveOptions};
    use gr_analysis::Analyses;
    use gr_frontend::compile;
    use std::collections::HashSet;

    fn headers_found(src: &str) -> usize {
        let m = compile(src).unwrap();
        let mut headers = HashSet::new();
        for func in &m.functions {
            let analyses = Analyses::new(&m, func);
            let ctx = MatchCtx::new(&m, func, &analyses);
            let (spec, labels) = for_loop_spec();
            let (sols, stats) = solve(&spec, &ctx, SolveOptions::default());
            assert!(!stats.truncated);
            for s in sols {
                headers.insert((func.name.clone(), s[labels.header.index()]));
            }
        }
        headers.len()
    }

    #[test]
    fn finds_simple_for_loop() {
        assert_eq!(
            headers_found(
                "float f(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }"
            ),
            1
        );
    }

    #[test]
    fn finds_both_loops_of_a_nest() {
        assert_eq!(
            headers_found(
                "float f(float* a, int n, int m) {
                     float s = 0.0;
                     for (int i = 0; i < n; i++)
                         for (int j = 0; j < m; j++)
                             s += a[i * m + j];
                     return s;
                 }"
            ),
            2
        );
    }

    #[test]
    fn rejects_loop_with_break() {
        // Iteration space not known in advance.
        assert_eq!(
            headers_found(
                "float f(float* a, int n) {
                     float s = 0.0;
                     for (int i = 0; i < n; i++) {
                         if (a[i] < 0.0) break;
                         s += a[i];
                     }
                     return s;
                 }"
            ),
            0
        );
    }

    #[test]
    fn rejects_data_dependent_while() {
        assert_eq!(
            headers_found("int f(int* a) { int i = 0; while (a[i] > 0) i++; return i; }"),
            0
        );
    }

    #[test]
    fn rejects_bound_modified_in_loop() {
        // `n` is rewritten inside the loop: the bound is not invariant.
        assert_eq!(
            headers_found(
                "int f(int n) {
                     int s = 0;
                     for (int i = 0; i < n; i++) { s += i; n = n - 1; }
                     return s;
                 }"
            ),
            0
        );
    }

    #[test]
    fn accepts_downward_loop_and_strided_step() {
        assert_eq!(
            headers_found(
                "int f(int n) {
                     int s = 0;
                     for (int i = n; i > 0; i = i + -2) s += i;
                     return s;
                 }"
            ),
            1
        );
    }

    #[test]
    fn accepts_runtime_bounds() {
        // Bounds known only at runtime (function arguments) still match:
        // "not necessarily at compile time".
        assert_eq!(
            headers_found(
                "int f(int lo, int hi, int step) {
                     int s = 0;
                     for (int i = lo; i < hi; i += step) s += i;
                     return s;
                 }"
            ),
            1
        );
    }

    #[test]
    fn constraint_solution_agrees_with_pattern_matcher() {
        // Cross-validation: the constraint-derived iterator/bound must
        // agree with the independent `match_for_shape` pattern matcher.
        let m = compile(
            "float f(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }",
        )
        .unwrap();
        let func = &m.functions[0];
        let analyses = Analyses::new(&m, func);
        let ctx = MatchCtx::new(&m, func, &analyses);
        let (spec, labels) = for_loop_spec();
        let (sols, _) = solve(&spec, &ctx, SolveOptions::default());
        assert_eq!(sols.len(), 1);
        let shape = gr_analysis::loops::match_for_shape(
            func,
            &analyses.loops,
            gr_analysis::loops::LoopId(0),
        )
        .expect("pattern matcher");
        let s = &sols[0];
        assert_eq!(s[labels.iterator.index()], shape.iterator);
        assert_eq!(s[labels.test.index()], shape.test);
        assert_eq!(s[labels.iter_begin.index()], shape.init);
        assert_eq!(s[labels.iter_step.index()], shape.step);
        assert_eq!(s[labels.iter_end.index()], shape.bound);
        assert_eq!(s[labels.next_iter.index()], shape.next);
    }
}
