//! Structural SSA verifier.
//!
//! Checks the invariants the analyses and the constraint solver rely on:
//! block/terminator structure, phi placement and incoming-edge consistency,
//! operand typing, and def-before-use along dominance (approximated here by
//! a reachability-based check; the full dominance check lives in
//! `gr-analysis` tests to avoid a dependency cycle).

use crate::function::{BlockId, Function};
use crate::inst::{BinOp, Opcode};
use crate::module::Module;
use crate::types::Type;
use crate::value::{ValueId, ValueKind};
use std::collections::HashSet;
use std::fmt;

/// A verifier failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the error occurred.
    pub function: String,
    /// Description of the violated invariant.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verification failed in @{}: {}", self.function, self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Verifies every function in a module, and that no two share a name
/// (calls and the runtime resolve functions by name).
///
/// # Errors
/// Returns the first [`VerifyError`] encountered.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    let mut names = HashSet::new();
    for f in &m.functions {
        if !names.insert(f.name.as_str()) {
            return Err(VerifyError {
                function: f.name.clone(),
                message: "another function has the same name".into(),
            });
        }
        verify_function(f)?;
    }
    Ok(())
}

/// Verifies a single function.
///
/// # Errors
/// Returns a [`VerifyError`] describing the first violated invariant.
pub fn verify_function(f: &Function) -> Result<(), VerifyError> {
    let err = |message: String| VerifyError { function: f.name.clone(), message };

    if f.blocks.is_empty() {
        return Err(err("function has no blocks".into()));
    }

    // Every block ends with exactly one terminator, at the end.
    for b in f.block_ids() {
        let insts = &f.block(b).insts;
        if insts.is_empty() {
            return Err(err(format!("block {b} is empty")));
        }
        for (i, &inst) in insts.iter().enumerate() {
            let Some(op) = f.value(inst).kind.opcode() else {
                return Err(err(format!("block {b} lists non-instruction {inst}")));
            };
            let last = i + 1 == insts.len();
            if op.is_terminator() != last {
                return Err(err(format!(
                    "block {b}: instruction {inst} ({op}) {} a terminator but is {} last",
                    if op.is_terminator() { "is" } else { "is not" },
                    if last { "" } else { "not" }
                )));
            }
        }
    }

    // Phis first in their block; incoming blocks = predecessors exactly.
    let preds = f.predecessors();
    for b in f.block_ids() {
        let insts = &f.block(b).insts;
        let mut seen_non_phi = false;
        for &inst in insts {
            let is_phi = f.value(inst).kind.opcode() == Some(&Opcode::Phi);
            if is_phi && seen_non_phi {
                return Err(err(format!("block {b}: phi {inst} after non-phi instruction")));
            }
            if !is_phi {
                seen_non_phi = true;
            }
            if is_phi {
                let incoming: HashSet<BlockId> =
                    f.phi_incoming(inst).iter().map(|&(_, b)| b).collect();
                let expect: HashSet<BlockId> = preds[b.index()].iter().copied().collect();
                if incoming != expect {
                    return Err(err(format!(
                        "block {b}: phi {inst} incoming blocks {incoming:?} != predecessors {expect:?}"
                    )));
                }
            }
        }
    }

    // Operand validity and typing.
    for b in f.block_ids() {
        for &inst in &f.block(b).insts {
            check_inst_types(f, inst).map_err(err)?;
        }
    }

    // Def-before-use over a reverse-postorder sweep: a non-phi use must be
    // defined in the same or an earlier-reachable block, and within a block
    // defs precede uses.
    check_def_before_use(f).map_err(err)?;

    Ok(())
}

fn check_inst_types(f: &Function, inst: ValueId) -> Result<(), String> {
    let data = f.value(inst);
    let ValueKind::Inst { opcode, operands } = &data.kind else {
        return Ok(());
    };
    let ty_of = |v: ValueId| f.value(v).ty;
    let arity = |n: usize| -> Result<(), String> {
        if operands.len() == n {
            Ok(())
        } else {
            Err(format!("{inst} ({opcode}): expected {n} operands, got {}", operands.len()))
        }
    };
    match opcode {
        Opcode::Bin(op) => {
            arity(2)?;
            let (a, b) = (ty_of(operands[0]), ty_of(operands[1]));
            if a != b {
                return Err(format!("{inst}: binop operand types differ: {a} vs {b}"));
            }
            if matches!(
                op,
                BinOp::Rem | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr
            ) && a == Type::Float
            {
                return Err(format!("{inst}: {op} not defined on float"));
            }
            if data.ty != a {
                return Err(format!("{inst}: binop result type {} != operand type {a}", data.ty));
            }
        }
        Opcode::Un(_) => arity(1)?,
        Opcode::Cmp(_) => {
            arity(2)?;
            if ty_of(operands[0]) != ty_of(operands[1]) {
                return Err(format!("{inst}: cmp operand types differ"));
            }
            if data.ty != Type::Bool {
                return Err(format!("{inst}: cmp result must be bool"));
            }
        }
        Opcode::Phi => {
            if operands.is_empty() || operands.len() % 2 != 0 {
                return Err(format!(
                    "{inst}: phi operand list must be non-empty value/block pairs"
                ));
            }
            for pair in operands.chunks(2) {
                if ty_of(pair[0]) != data.ty {
                    return Err(format!("{inst}: phi incoming type mismatch"));
                }
                if !matches!(f.value(pair[1]).kind, ValueKind::Block(_)) {
                    return Err(format!("{inst}: phi incoming label is not a block"));
                }
            }
        }
        Opcode::Br => {
            arity(1)?;
            if !matches!(f.value(operands[0]).kind, ValueKind::Block(_)) {
                return Err(format!("{inst}: br target is not a block"));
            }
        }
        Opcode::CondBr => {
            arity(3)?;
            if ty_of(operands[0]) != Type::Bool {
                return Err(format!("{inst}: condbr condition must be bool"));
            }
            for &t in &operands[1..] {
                if !matches!(f.value(t).kind, ValueKind::Block(_)) {
                    return Err(format!("{inst}: condbr target is not a block"));
                }
            }
        }
        Opcode::Ret => {
            if f.ret == Type::Void {
                arity(0)?;
            } else {
                arity(1)?;
                if ty_of(operands[0]) != f.ret {
                    return Err(format!("{inst}: return type mismatch"));
                }
            }
        }
        Opcode::Load => {
            arity(1)?;
            let elem = ty_of(operands[0])
                .elem()
                .ok_or_else(|| format!("{inst}: load from non-pointer"))?;
            if data.ty != elem {
                return Err(format!("{inst}: load result type mismatch"));
            }
        }
        Opcode::Store => {
            arity(2)?;
            let elem = ty_of(operands[1])
                .elem()
                .ok_or_else(|| format!("{inst}: store to non-pointer"))?;
            if ty_of(operands[0]) != elem {
                return Err(format!("{inst}: store value type mismatch"));
            }
        }
        Opcode::Gep => {
            arity(2)?;
            if !ty_of(operands[0]).is_ptr() {
                return Err(format!("{inst}: gep base is not a pointer"));
            }
            if ty_of(operands[1]) != Type::Int {
                return Err(format!("{inst}: gep index must be int"));
            }
            if data.ty != ty_of(operands[0]) {
                return Err(format!("{inst}: gep result type must match base"));
            }
        }
        Opcode::Call(_) => {}
        Opcode::Cast => {
            arity(1)?;
            if !data.ty.is_scalar() || !ty_of(operands[0]).is_scalar() {
                return Err(format!("{inst}: cast must be between scalar types"));
            }
        }
        Opcode::Select => {
            arity(3)?;
            if ty_of(operands[0]) != Type::Bool {
                return Err(format!("{inst}: select condition must be bool"));
            }
            if ty_of(operands[1]) != ty_of(operands[2]) || data.ty != ty_of(operands[1]) {
                return Err(format!("{inst}: select arm type mismatch"));
            }
        }
        Opcode::Alloca => {
            arity(1)?;
            if ty_of(operands[0]) != Type::Int {
                return Err(format!("{inst}: alloca size must be int"));
            }
            if !data.ty.is_ptr() {
                return Err(format!("{inst}: alloca result must be pointer"));
            }
        }
    }
    Ok(())
}

fn check_def_before_use(f: &Function) -> Result<(), String> {
    // Defined set grows over a reverse-postorder traversal; phis are exempt
    // from operand checks (their operands flow along edges).
    let order = reverse_postorder(f);
    let mut defined: HashSet<ValueId> = HashSet::new();
    for id in f.value_ids() {
        if !f.value(id).kind.is_inst() {
            defined.insert(id); // constants, args, labels, globals
        }
    }
    // Multi-pass to tolerate legal forward refs across loop back edges for
    // non-phi values would be unsound; instead only flag uses of values never
    // defined anywhere, plus same-block use-before-def.
    let all_insts: HashSet<ValueId> =
        f.block_ids().flat_map(|b| f.block(b).insts.clone()).collect();
    for b in &order {
        let mut local: HashSet<ValueId> = HashSet::new();
        for &inst in &f.block(*b).insts {
            let data = f.value(inst);
            if data.kind.opcode() != Some(&Opcode::Phi) {
                for &op in data.kind.operands() {
                    let op_is_inst = f.value(op).kind.is_inst();
                    if op_is_inst && !all_insts.contains(&op) {
                        return Err(format!("{inst}: uses dangling instruction {op}"));
                    }
                    if op_is_inst
                        && f.block_of_inst(op) == Some(*b)
                        && !local.contains(&op)
                        && op != inst
                    {
                        return Err(format!("{inst}: uses {op} before its definition in {b}"));
                    }
                }
            }
            local.insert(inst);
            defined.insert(inst);
        }
    }
    Ok(())
}

/// Blocks of `f` in reverse postorder from the entry.
#[must_use]
pub fn reverse_postorder(f: &Function) -> Vec<BlockId> {
    let mut visited = vec![false; f.blocks.len()];
    let mut post = Vec::new();
    // Iterative DFS to avoid stack overflow on deep CFGs.
    let mut stack: Vec<(BlockId, usize)> = vec![(f.entry(), 0)];
    visited[f.entry().index()] = true;
    while let Some(&mut (b, ref mut i)) = stack.last_mut() {
        let succs = f.successors(b);
        if *i < succs.len() {
            let s = succs[*i];
            *i += 1;
            if !visited[s.index()] {
                visited[s.index()] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(b);
            stack.pop();
        }
    }
    post.reverse();
    post
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::CmpPred;

    fn loop_fn() -> Function {
        let mut b = FunctionBuilder::new("l", &[("n", Type::Int)], Type::Int);
        let entry = b.current_block();
        let head = b.new_block("head");
        let body = b.new_block("body");
        let exit = b.new_block("exit");
        let zero = b.const_int(0);
        b.br(head);
        b.switch_to(head);
        let i = b.phi(Type::Int, &[(zero, entry)]);
        let c = b.icmp(CmpPred::Lt, i, b.arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let one = b.const_int(1);
        let i2 = b.binop(BinOp::Add, i, one);
        b.add_phi_incoming(i, i2, body);
        b.br(head);
        b.switch_to(exit);
        b.ret(Some(i));
        b.finish()
    }

    #[test]
    fn valid_loop_verifies() {
        assert!(verify_function(&loop_fn()).is_ok());
    }

    #[test]
    fn missing_terminator_rejected() {
        let mut f = Function::new("bad", &[], Type::Void);
        let e = f.add_block("entry");
        let c = f.const_int(1);
        f.append_inst(e, Opcode::Bin(BinOp::Add), vec![c, c], Type::Int);
        let err = verify_function(&f).unwrap_err();
        assert!(err.message.contains("terminator"), "{err}");
    }

    #[test]
    fn empty_block_rejected() {
        let mut f = Function::new("bad", &[], Type::Void);
        f.add_block("entry");
        assert!(verify_function(&f).is_err());
    }

    #[test]
    fn phi_incoming_must_match_preds() {
        let mut b = FunctionBuilder::new("bad", &[("n", Type::Int)], Type::Int);
        let entry = b.current_block();
        let next = b.new_block("next");
        b.br(next);
        b.switch_to(next);
        // phi claims an incoming edge from `next` itself, which is not a pred
        let zero = b.const_int(0);
        let p = b.phi(Type::Int, &[(zero, entry), (zero, next)]);
        b.ret(Some(p));
        let err = verify_function(&b.finish()).unwrap_err();
        assert!(err.message.contains("incoming"), "{err}");
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut f = Function::new("bad", &[("x", Type::Int)], Type::Void);
        let e = f.add_block("entry");
        let x = f.arg_values[0];
        let half = f.const_float(0.5);
        f.append_inst(e, Opcode::Bin(BinOp::Add), vec![x, half], Type::Int);
        f.append_inst(e, Opcode::Ret, vec![], Type::Void);
        let err = verify_function(&f).unwrap_err();
        assert!(err.message.contains("types differ"), "{err}");
    }

    #[test]
    fn use_before_def_in_block_rejected() {
        let mut f = Function::new("bad", &[], Type::Void);
        let e = f.add_block("entry");
        let c = f.const_int(1);
        // Manually create two insts where the first uses the second.
        let late = f.add_value(
            ValueKind::Inst { opcode: Opcode::Bin(BinOp::Add), operands: vec![c, c] },
            Type::Int,
            None,
        );
        let early = f.add_value(
            ValueKind::Inst { opcode: Opcode::Bin(BinOp::Add), operands: vec![late, c] },
            Type::Int,
            None,
        );
        f.blocks[e.index()].insts.push(early);
        f.blocks[e.index()].insts.push(late);
        f.append_inst(e, Opcode::Ret, vec![], Type::Void);
        let err = verify_function(&f).unwrap_err();
        assert!(err.message.contains("before its definition"), "{err}");
    }

    #[test]
    fn two_functions_with_one_name_rejected() {
        let mut m = Module::new();
        m.push_function(loop_fn());
        assert!(verify_module(&m).is_ok());
        m.push_function(loop_fn());
        let err = verify_module(&m).unwrap_err();
        assert_eq!(err.function, "l");
        assert!(err.message.contains("same name"), "{err}");
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let f = loop_fn();
        let order = reverse_postorder(&f);
        assert_eq!(order[0], f.entry());
        assert_eq!(order.len(), 4);
    }
}
