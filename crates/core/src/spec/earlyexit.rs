//! The early-exit for-loop — the **second markable prefix** of the spec
//! family: a counted loop with exactly two exits, the induction exit and
//! one guarded `break`.
//!
//! ```c
//! for (int i = 0; i < n; i++) {
//!     if (a[i] == x) { r = i; break; }   // guarded early exit
//! }
//! ```
//!
//! After lowering, the `break` arm is a trampoline block *outside* the
//! natural loop (it cannot reach the latch) that funnels straight into the
//! loop exit, so the exit block merges two edges: the header's induction
//! exit and the break. The prefix binds:
//!
//! * the full counted-loop 12-tuple of
//!   [`add_for_loop`](crate::spec::forloop::add_for_loop) **minus** the
//!   latch-postdominates-body atom (which is exactly what makes the
//!   single-exit prefix reject `break`),
//! * `guard_blk` / `guard_jump` / `exit_cond` — the in-loop conditional
//!   branch (distinct from the loop test) whose comparison decides the
//!   early exit; both facts follow from its continuing arm, which only an
//!   in-loop block can reach and which the latch post-dominates,
//! * `break_blk` — the out-of-loop trampoline on the taken exit path,
//!   constrained to contain nothing but its terminator (so the whole
//!   speculative region stays side-effect free),
//! * `cont_blk` — the arm continuing the iteration, post-dominated by the
//!   latch, hence in the loop (the break is the *only* in-body exit, belt
//!   and braces with [`Atom::LoopExitEdges`]` = 2`).
//!
//! [`Atom::PureInLoop`] makes the prefix speculation-safe by construction:
//! the parallel search runtime executes iterations past the sequential
//! exit point and discards them, which is only sound when the loop body
//! computes without writing.
//!
//! Like the for-loop, this composite calls
//! [`SpecBuilder::mark_prefix`](crate::constraint::SpecBuilder::mark_prefix):
//! all early-exit idioms (find-first, any-of/all-of, find-min-index-early —
//! see [`crate::spec::search`]) share one 17-label sub-problem, solved once
//! per function and cached by fingerprint in the same
//! [`PrefixCache`](crate::detect::PrefixCache) as the for-loop prefix. On
//! functions without early-exit loops the prefix solve dies at the first
//! label: [`Atom::LoopExitEdges`] prunes every single-exit header
//! immediately.

use crate::atoms::{Atom, OpClass};
use crate::constraint::Label;
use crate::constraint::{Spec, SpecBuilder};
use crate::spec::forloop::{add_counted_loop, ForLoopLabels};

/// Labels of the early-exit for-loop prefix.
#[derive(Debug, Clone, Copy)]
pub struct EarlyExitLabels {
    /// The counted-loop sub-idiom (single-exit discipline relaxed).
    pub for_loop: ForLoopLabels,
    /// Out-of-loop trampoline block on the break path (terminator only).
    pub break_blk: Label,
    /// In-loop block whose terminator decides the early exit.
    pub guard_blk: Label,
    /// The guarding conditional branch (distinct from the loop test).
    pub guard_jump: Label,
    /// The guard's comparison — the exit condition.
    pub exit_cond: Label,
    /// The in-loop arm continuing the iteration.
    pub cont_blk: Label,
}

/// Adds the early-exit loop constraints to `b` and marks them as the
/// spec's shared prefix. Must be the first composite on a fresh builder,
/// exactly like [`add_for_loop`](crate::spec::forloop::add_for_loop).
pub fn add_for_loop_early_exit(b: &mut SpecBuilder) -> EarlyExitLabels {
    let fl = add_counted_loop(b, false);

    let break_blk = b.label("break_blk");
    let guard_blk = b.label("guard_blk");
    let guard_jump = b.label("guard_jump");
    let exit_cond = b.label("exit_cond");
    let cont_blk = b.label("cont_blk");

    // Exactly two ways out of the loop: the induction exit and the break.
    // This prunes every single-exit loop at the header label, keeping the
    // second prefix's solve cost negligible on loops it cannot match.
    b.atom(Atom::LoopExitEdges { header: fl.header, n: 2 });
    // Speculation safety: the body computes, it does not write.
    b.atom(Atom::PureInLoop { header: fl.header });

    // The break trampoline: an out-of-loop block funneling into the loop
    // exit, doing nothing else (values forwarded to exit phis are computed
    // before the guard branches).
    b.atom(Atom::CfgEdge { from: break_blk, to: fl.exit });
    b.atom(Atom::NotInLoopBlock { block: break_blk, header: fl.header });
    b.atom(Atom::NotEqual { a: break_blk, b: fl.exit });
    b.atom(Atom::OnlyTerminator { block: break_blk });

    // The guard: a conditional branch steered by a comparison, taking the
    // break arm...
    b.atom(Atom::CfgEdge { from: guard_blk, to: break_blk });
    b.atom(Atom::BlockOf { inst: guard_jump, block: guard_blk });
    b.atom(Atom::Opcode { l: guard_jump, class: OpClass::CondBr });
    b.atom(Atom::OperandIs { inst: guard_jump, index: 0, value: exit_cond });
    b.atom(Atom::Opcode { l: exit_cond, class: OpClass::Cmp });
    // ...while the other arm continues the iteration and always reaches
    // the latch: the break is the only in-body exit. A block the latch
    // post-dominates is in the loop, so the guard is too (the loop has one
    // entry), and it is not the header, whose arms are the body and the
    // exit.
    b.atom(Atom::CfgEdge { from: guard_blk, to: cont_blk });
    b.atom(Atom::Postdominates { a: fl.latch, b: cont_blk });

    b.mark_prefix();

    EarlyExitLabels { for_loop: fl, break_blk, guard_blk, guard_jump, exit_cond, cont_blk }
}

/// The standalone early-exit loop specification.
#[must_use]
pub fn for_loop_early_exit_spec() -> (Spec, EarlyExitLabels) {
    let mut b = SpecBuilder::new("for-loop-early-exit");
    let labels = add_for_loop_early_exit(&mut b);
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
            let (spec, labels) = for_loop_early_exit_spec();
            let (sols, stats) = solve(&spec, &ctx, SolveOptions::default());
            assert!(!stats.truncated);
            for s in sols {
                headers.insert((func.name.clone(), s[labels.for_loop.header.index()]));
            }
        }
        headers.len()
    }

    #[test]
    fn finds_guarded_break_loop() {
        assert_eq!(
            headers_found(
                "int find(int* a, int x, int n) {
                     int r = n;
                     for (int i = 0; i < n; i++) {
                         if (a[i] == x) { r = i; break; }
                     }
                     return r;
                 }"
            ),
            1
        );
    }

    #[test]
    fn rejects_single_exit_loop() {
        // The canonical sum is the other prefix's business.
        assert_eq!(
            headers_found(
                "float f(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }"
            ),
            0
        );
    }

    #[test]
    fn rejects_two_breaks() {
        // Three exit edges: LoopExitEdges demands exactly two.
        assert_eq!(
            headers_found(
                "int f(int* a, int x, int y, int n) {
                     int r = n;
                     for (int i = 0; i < n; i++) {
                         if (a[i] == x) { r = i; break; }
                         if (a[i] == y) { r = i + n; break; }
                     }
                     return r;
                 }"
            ),
            0
        );
    }

    #[test]
    fn rejects_storing_loop() {
        // A store in the body breaks speculation safety.
        assert_eq!(
            headers_found(
                "int f(int* a, int* log, int x, int n) {
                     int r = n;
                     for (int i = 0; i < n; i++) {
                         log[i] = a[i];
                         if (a[i] == x) { r = i; break; }
                     }
                     return r;
                 }"
            ),
            0
        );
    }

    #[test]
    fn rejects_store_in_break_arm() {
        // The break arm is no trampoline: it writes before leaving.
        assert_eq!(
            headers_found(
                "int f(int* a, int* out, int x, int n) {
                     int r = n;
                     for (int i = 0; i < n; i++) {
                         if (a[i] == x) { out[0] = i; r = i; break; }
                     }
                     return r;
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
    fn both_prefixes_have_distinct_fingerprints() {
        let (single, _) = crate::spec::for_loop_spec();
        let (early, labels) = for_loop_early_exit_spec();
        let ps = single.prefix.unwrap();
        let pe = early.prefix.unwrap();
        assert_ne!(ps.fingerprint, pe.fingerprint, "distinct sub-problems must not collide");
        assert_eq!(pe.labels, early.arity());
        assert_eq!(pe.labels, ps.labels + 5);
        assert_eq!(labels.cont_blk.index(), early.arity() - 1);
    }
}
