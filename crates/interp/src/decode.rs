//! Decoding: a module turned, once, into the compact form the
//! [`Machine`](crate::machine::Machine) runs.
//!
//! Decoding does once per module the work that walking the IR would redo
//! on every executed instruction. Each operand becomes a frame slot (the
//! arena index of its value), each branch target a block index, and each
//! block's phis a parallel copy per incoming edge. Each load is typed by
//! its result, and each call target is resolved to a builtin, a module
//! function or a name for the intrinsic handler. Constants, globals and
//! argument positions go into a per-function frame template.
//!
//! Decoding accepts any IR. A defect the machine cannot run (a phi with no
//! incoming value for an edge, a block without a terminator, an
//! instruction short of an operand) decodes to an op that panics when it
//! executes, as walking the IR did, and never while decoding.

use crate::builtins::{builtin, BuiltinFn};
use crate::machine::Frame;
use crate::memory::ObjId;
use crate::value::RtVal;
use gr_ir::{BinOp, BlockId, CmpPred, Function, Module, Opcode, Type, UnOp, ValueId, ValueKind};
use std::collections::HashMap;

/// A frame slot: the arena index of the value it holds.
pub(crate) type Slot = u32;

/// One decoded instruction. Arithmetic and comparisons are decoded for
/// the operand type the IR declares; operands of another runtime kind
/// take the generic path, so results and panics match the IR's dynamic
/// semantics whatever the operands hold.
///
/// Two pairs of adjacent instructions decode to one fused op, which saves
/// a dispatch: a typed compare followed by its block's final branch on
/// the compare's result, and a `gep` followed by a load or store through
/// its result. A fused op still writes the compare's or the gep's own
/// slot, so later readers of it need no use analysis, and it runs the
/// pair's reads, writes, panics and traps in the pair's order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// `d = a op b` on integer operands.
    IntBin { op: BinOp, d: Slot, a: Slot, b: Slot },
    /// `d = a op b` on float operands.
    FloatBin { op: BinOp, d: Slot, a: Slot, b: Slot },
    /// `d = a op b` on operands of any other type.
    Bin { op: BinOp, d: Slot, a: Slot, b: Slot },
    /// `d = a pred b` on integer operands.
    IntCmp { pred: CmpPred, d: Slot, a: Slot, b: Slot },
    /// `d = a pred b` on float operands.
    FloatCmp { pred: CmpPred, d: Slot, a: Slot, b: Slot },
    /// `d = a pred b` on operands of any other type.
    Cmp { pred: CmpPred, d: Slot, a: Slot, b: Slot },
    /// [`Op::IntCmp`], then [`Op::Branch`] on `d`.
    IntCmpBranch { pred: CmpPred, d: Slot, a: Slot, b: Slot, then: u32, els: u32 },
    /// [`Op::FloatCmp`], then [`Op::Branch`] on `d`.
    FloatCmpBranch { pred: CmpPred, d: Slot, a: Slot, b: Slot, then: u32, els: u32 },
    /// `d = op a`.
    Un { op: UnOp, d: Slot, a: Slot },
    /// `d = *ptr`, an integer load.
    LoadI { d: Slot, ptr: Slot },
    /// `d = *ptr`, a float load (any result type but `int`).
    LoadF { d: Slot, ptr: Slot },
    /// `*ptr = val`.
    Store { val: Slot, ptr: Slot },
    /// `d = ptr + idx`.
    Gep { d: Slot, ptr: Slot, idx: Slot },
    /// `g = ptr + idx; d = *g`, an integer load.
    GepLoadI { d: Slot, g: Slot, ptr: Slot, idx: Slot },
    /// `g = ptr + idx; d = *g`, a float load.
    GepLoadF { d: Slot, g: Slot, ptr: Slot, idx: Slot },
    /// `g = ptr + idx; *g = val`.
    GepStore { val: Slot, g: Slot, ptr: Slot, idx: Slot },
    /// `d = a` converted to `ty`.
    Cast { d: Slot, a: Slot, ty: Type },
    /// `d = c ? t : e`.
    Select { d: Slot, c: Slot, t: Slot, e: Slot },
    /// `d` = a fresh object of `len` elements; `ty` is the result type.
    Alloca { d: Slot, len: Slot, ty: Type },
    /// A call: the index of its [`CallSite`] in [`Func::calls`].
    Call(u32),
    /// Leave the block along an edge (an index into [`Func::edges`]).
    Jump(u32),
    /// Leave along edge `then` if `c` holds, else along edge `els`.
    Branch { c: Slot, then: u32, els: u32 },
    /// Return `frame[slot]`, or nothing.
    Ret(Option<Slot>),
    /// A branch that is not its block's last instruction: it picks the
    /// edge the block leaves by at its end, unless a later branch picks
    /// again.
    DeferJump(u32),
    /// The conditional form of [`Op::DeferJump`].
    DeferBranch { c: Slot, then: u32, els: u32 },
    /// The end of a block without a terminator, after a deferred branch:
    /// leave along the edge it picked.
    TakeDeferred,
    /// An IR defect: panics with message [`Func::defects`]`[i]`.
    Defect(u32),
}

// Every executed op is copied out of the op stream: a new variant must not
// widen all of them.
const _: () = assert!(std::mem::size_of::<Op>() <= 24);

/// How an edge's phi copies run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EdgeKind {
    /// No copy reads a slot that an earlier copy of the edge writes, so
    /// copying in order is the parallel copy.
    InOrder,
    /// Some copy reads a slot that an earlier one writes: read every
    /// incoming value before writing any phi.
    Parallel,
    /// A phi of the target lists no incoming value for this edge: entering
    /// along it panics.
    NoIncoming,
    /// The branch target is not a block label: branching panics with
    /// message [`Func::defects`]`[i]`.
    NotALabel(u32),
}

/// A control-flow edge with the phi copies of its target block.
#[derive(Debug, Clone)]
pub(crate) struct Edge {
    /// The target block.
    pub(crate) to: u32,
    /// `(phi, incoming)` slot pairs, in phi order: the range
    /// `copies.0..copies.1` of [`Func::copies`].
    pub(crate) copies: (u32, u32),
    /// How the copies run.
    pub(crate) kind: EdgeKind,
}

/// What a call resolves to, in the order the machine tries them.
#[derive(Debug, Clone)]
pub(crate) enum Callee {
    /// A builtin math function.
    Builtin(BuiltinFn),
    /// A function of the module, by index.
    Func(usize),
    /// Neither: the machine's intrinsic handler gets the name, and the
    /// call traps with `UnknownFunction` if there is none or it declines.
    Handler(Box<str>),
}

/// A decoded call instruction.
#[derive(Debug, Clone)]
pub(crate) struct CallSite {
    pub(crate) callee: Callee,
    pub(crate) args: Box<[Slot]>,
    /// The result slot and type, for a non-void call.
    pub(crate) ret: Option<(Slot, Type)>,
}

/// One decoded function.
#[derive(Debug, Clone)]
pub(crate) struct Func {
    /// The frame on entry, before the arguments: constants and globals in
    /// their slots, `Undef` elsewhere.
    pub(crate) template: Frame,
    /// `(slot, argument position)` of every argument value.
    pub(crate) args: Box<[(Slot, usize)]>,
    /// The ops of every block, concatenated in block order.
    pub(crate) ops: Box<[Op]>,
    /// Index in `ops` of each block's first op.
    pub(crate) block_start: Box<[u32]>,
    /// Whether the entry block starts with a phi (entering it from the
    /// call panics).
    pub(crate) entry_phis: bool,
    pub(crate) edges: Box<[Edge]>,
    pub(crate) copies: Box<[(Slot, Slot)]>,
    pub(crate) calls: Box<[CallSite]>,
    /// Panic messages of the IR defects.
    pub(crate) defects: Box<[String]>,
}

/// A module decoded for execution. Decode once with [`Program::new`],
/// then run it on any number of machines
/// ([`Machine::from_program`](crate::machine::Machine::from_program)), on
/// any memory backend and from any thread.
#[derive(Debug, Clone)]
pub struct Program {
    pub(crate) funcs: Vec<Func>,
    /// Function index by name; with duplicate names the last one wins.
    pub(crate) index: HashMap<String, usize>,
}

impl Program {
    /// Decodes every function of `module`.
    #[must_use]
    pub fn new(module: &Module) -> Program {
        let index: HashMap<String, usize> =
            module.functions.iter().enumerate().map(|(i, f)| (f.name.clone(), i)).collect();
        let funcs = module.functions.iter().map(|f| Decoder::function(f, &index)).collect();
        Program { funcs, index }
    }
}

fn slot(v: ValueId) -> Slot {
    v.0
}

fn index_u32(i: usize) -> u32 {
    u32::try_from(i).expect("decoded tables fit u32 indices")
}

/// The op that runs `prev` and then `op`, where the pair has one.
fn fused(prev: Op, op: Op) -> Option<Op> {
    Some(match (prev, op) {
        (Op::IntCmp { pred, d, a, b }, Op::Branch { c, then, els }) if c == d => {
            Op::IntCmpBranch { pred, d, a, b, then, els }
        }
        (Op::FloatCmp { pred, d, a, b }, Op::Branch { c, then, els }) if c == d => {
            Op::FloatCmpBranch { pred, d, a, b, then, els }
        }
        (Op::Gep { d: g, ptr, idx }, Op::LoadI { d, ptr: p }) if p == g => {
            Op::GepLoadI { d, g, ptr, idx }
        }
        (Op::Gep { d: g, ptr, idx }, Op::LoadF { d, ptr: p }) if p == g => {
            Op::GepLoadF { d, g, ptr, idx }
        }
        (Op::Gep { d: g, ptr, idx }, Op::Store { val, ptr: p }) if p == g => {
            Op::GepStore { val, g, ptr, idx }
        }
        _ => return None,
    })
}

/// The phis a block starts with.
fn leading_phis(f: &Function, b: BlockId) -> &[ValueId] {
    let is_phi =
        |v: &ValueId| f.values.get(v.index()).and_then(|d| d.kind.opcode()) == Some(&Opcode::Phi);
    let insts = &f.block(b).insts;
    &insts[..insts.iter().take_while(|v| is_phi(v)).count()]
}

struct Decoder<'f> {
    f: &'f Function,
    index: &'f HashMap<String, usize>,
    ops: Vec<Op>,
    edges: Vec<Edge>,
    copies: Vec<(Slot, Slot)>,
    calls: Vec<CallSite>,
    defects: Vec<String>,
}

impl<'f> Decoder<'f> {
    fn function(f: &'f Function, index: &'f HashMap<String, usize>) -> Func {
        let mut template = vec![RtVal::Undef; f.values.len()];
        let mut args = Vec::new();
        for v in f.value_ids() {
            template[v.index()] = match f.value(v).kind {
                ValueKind::ConstInt(c) => RtVal::I(c),
                ValueKind::ConstFloat(c) => RtVal::F(c),
                ValueKind::ConstBool(c) => RtVal::B(c),
                ValueKind::GlobalRef(g) => RtVal::ptr(ObjId(g.0)),
                ValueKind::Argument(i) => {
                    args.push((slot(v), i));
                    RtVal::Undef
                }
                _ => RtVal::Undef,
            };
        }
        let mut d = Decoder {
            f,
            index,
            ops: Vec::new(),
            edges: Vec::new(),
            copies: Vec::new(),
            calls: Vec::new(),
            defects: Vec::new(),
        };
        let block_start = f
            .block_ids()
            .map(|b| {
                let start = index_u32(d.ops.len());
                d.block(b);
                start
            })
            .collect();
        Func {
            template: Frame::new(&template),
            args: args.into(),
            ops: d.ops.into(),
            block_start,
            entry_phis: !f.blocks.is_empty() && !leading_phis(f, BlockId(0)).is_empty(),
            edges: d.edges.into(),
            copies: d.copies.into(),
            calls: d.calls.into(),
            defects: d.defects.into(),
        }
    }

    fn defect(&mut self, message: String) -> u32 {
        self.defects.push(message);
        index_u32(self.defects.len() - 1)
    }

    /// Decodes block `b` after its phis. Code after a return, a final
    /// branch or a defect never runs, so it is not decoded.
    fn block(&mut self, b: BlockId) {
        let insts = &self.f.block(b).insts;
        let body = &insts[leading_phis(self.f, b).len()..];
        let start = self.ops.len();
        let mut deferred = false;
        for (k, &inst) in body.iter().enumerate() {
            let op = self.inst(b, inst, k + 1 == body.len());
            // A pair with a fused form replaces the block's previous op.
            let op = match self.ops[start..].last().and_then(|&prev| fused(prev, op)) {
                Some(pair) => {
                    self.ops.pop();
                    pair
                }
                None => op,
            };
            self.ops.push(op);
            match op {
                Op::Ret(_)
                | Op::Jump(_)
                | Op::Branch { .. }
                | Op::IntCmpBranch { .. }
                | Op::FloatCmpBranch { .. }
                | Op::Defect(_) => return,
                Op::DeferJump(_) | Op::DeferBranch { .. } => deferred = true,
                _ => {}
            }
        }
        let op = if deferred {
            Op::TakeDeferred
        } else {
            Op::Defect(self.defect(format!("block {b} fell through without terminator")))
        };
        self.ops.push(op);
    }

    /// Decodes instruction `inst` of block `b`; `last` if it ends the
    /// block.
    fn inst(&mut self, b: BlockId, inst: ValueId, last: bool) -> Op {
        let f = self.f;
        let Some(ValueKind::Inst { opcode, operands: o }) =
            f.values.get(inst.index()).map(|v| &v.kind)
        else {
            return Op::Defect(self.defect(format!("block {b} lists non-instruction {inst}")));
        };
        let arity = match opcode {
            Opcode::Phi | Opcode::Ret | Opcode::Call(_) => 0,
            Opcode::Un(_) | Opcode::Br | Opcode::Load | Opcode::Cast | Opcode::Alloca => 1,
            Opcode::Bin(_) | Opcode::Cmp(_) | Opcode::Store | Opcode::Gep => 2,
            Opcode::CondBr | Opcode::Select => 3,
        };
        if o.len() < arity {
            return Op::Defect(self.defect(format!("{inst} ({opcode}) has {} operands", o.len())));
        }
        let d = slot(inst);
        let ty = f.value(inst).ty;
        let operand_ty = |i: usize| f.values.get(o[i].index()).map(|v| v.ty);
        let s = |i: usize| slot(o[i]);
        match opcode {
            Opcode::Phi => Op::Defect(self.defect(format!("phi {inst} after a non-phi in {b}"))),
            Opcode::Bin(op) => {
                let (op, a, b) = (*op, s(0), s(1));
                match (operand_ty(0), operand_ty(1)) {
                    (Some(Type::Int), Some(Type::Int)) => Op::IntBin { op, d, a, b },
                    (Some(Type::Float), Some(Type::Float)) => Op::FloatBin { op, d, a, b },
                    _ => Op::Bin { op, d, a, b },
                }
            }
            Opcode::Cmp(pred) => {
                let (pred, a, b) = (*pred, s(0), s(1));
                match (operand_ty(0), operand_ty(1)) {
                    (Some(Type::Int), Some(Type::Int)) => Op::IntCmp { pred, d, a, b },
                    (Some(Type::Float), Some(Type::Float)) => Op::FloatCmp { pred, d, a, b },
                    _ => Op::Cmp { pred, d, a, b },
                }
            }
            Opcode::Un(op) => Op::Un { op: *op, d, a: s(0) },
            Opcode::Load if ty == Type::Int => Op::LoadI { d, ptr: s(0) },
            Opcode::Load => Op::LoadF { d, ptr: s(0) },
            Opcode::Store => Op::Store { val: s(0), ptr: s(1) },
            Opcode::Gep => Op::Gep { d, ptr: s(0), idx: s(1) },
            Opcode::Cast => Op::Cast { d, a: s(0), ty },
            Opcode::Select => Op::Select { d, c: s(0), t: s(1), e: s(2) },
            Opcode::Alloca => Op::Alloca { d, len: s(0), ty },
            Opcode::Call(name) => {
                let callee = match (builtin(name), self.index.get(name.as_str())) {
                    (Some(b), _) => Callee::Builtin(b),
                    (None, Some(&i)) => Callee::Func(i),
                    (None, None) => Callee::Handler(name.as_str().into()),
                };
                let args = o.iter().map(|&v| slot(v)).collect();
                let ret = (ty != Type::Void).then_some((d, ty));
                self.calls.push(CallSite { callee, args, ret });
                Op::Call(index_u32(self.calls.len() - 1))
            }
            Opcode::Ret => Op::Ret(o.first().map(|&v| slot(v))),
            Opcode::Br => {
                let e = self.edge(b, o[0]);
                if last {
                    Op::Jump(e)
                } else {
                    Op::DeferJump(e)
                }
            }
            Opcode::CondBr => {
                let (c, then, els) = (s(0), self.edge(b, o[1]), self.edge(b, o[2]));
                if last {
                    Op::Branch { c, then, els }
                } else {
                    Op::DeferBranch { c, then, els }
                }
            }
        }
    }

    /// Decodes the edge from block `from` to the block labelled `target`.
    fn edge(&mut self, from: BlockId, target: ValueId) -> u32 {
        let f = self.f;
        let edge = match f.values.get(target.index()).map(|v| &v.kind) {
            Some(&ValueKind::Block(to)) if to.index() < f.blocks.len() => {
                let from_label = f.block(from).label;
                let start = self.copies.len();
                let mut kind = EdgeKind::InOrder;
                for &phi in leading_phis(f, to) {
                    // The first incoming pair naming `from` wins.
                    let ops = f.value(phi).kind.operands();
                    match ops.chunks_exact(2).find(|pair| pair[1] == from_label) {
                        Some(pair) => self.copies.push((slot(phi), slot(pair[0]))),
                        None => kind = EdgeKind::NoIncoming,
                    }
                }
                let copies = &self.copies[start..];
                let reads_earlier_write = copies
                    .iter()
                    .enumerate()
                    .any(|(j, &(_, src))| copies[..j].iter().any(|&(dst, _)| dst == src));
                if kind == EdgeKind::InOrder && reads_earlier_write {
                    kind = EdgeKind::Parallel;
                }
                Edge { to: to.0, copies: (index_u32(start), index_u32(self.copies.len())), kind }
            }
            kind => {
                let message = format!("value {target} is not a block label: {kind:?}");
                Edge { to: 0, copies: (0, 0), kind: EdgeKind::NotALabel(self.defect(message)) }
            }
        };
        self.edges.push(edge);
        index_u32(self.edges.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compares_before_their_branch_and_geps_before_their_access_fuse() {
        let m = gr_frontend::compile(
            "void tpacf(int* bins, float* binb, float* dots, int n, int nbins) {
                 for (int i = 0; i < n; i++) {
                     float d = dots[i];
                     int lo = 0;
                     int hi = nbins;
                     while (hi > lo + 1) {
                         int mid = (lo + hi) / 2;
                         if (d >= binb[mid]) { hi = mid; } else { lo = mid; }
                     }
                     bins[lo] = bins[lo] + 1;
                 }
             }",
        )
        .unwrap();
        let func = &Program::new(&m).funcs[0];
        let blocks: Vec<String> = (0..func.block_start.len())
            .map(|b| {
                let end = func.block_start.get(b + 1).map_or(func.ops.len(), |&e| e as usize);
                let ops = &func.ops[func.block_start[b] as usize..end];
                let kinds: Vec<String> = ops
                    .iter()
                    .map(|op| format!("{op:?}").split([' ', '(']).next().unwrap().to_string())
                    .collect();
                kinds.join(" ")
            })
            .collect();
        // The histogram store's gep is not the op before it, so the store
        // stays unfused.
        let expect = [
            "Jump",
            "IntCmpBranch",
            "GepLoadF Jump",
            "IntBin Jump",
            "Ret",
            "IntBin IntCmpBranch",
            "IntBin IntBin GepLoadF FloatCmpBranch",
            "Gep GepLoadI IntBin Store Jump",
            "Jump",
            "Jump",
            "Jump",
        ];
        assert_eq!(blocks, expect);
        // The fused op writes the gep's slot as well as the load's.
        let Op::GepLoadF { d, g, .. } = func.ops[func.block_start[2] as usize] else {
            unreachable!("checked above")
        };
        let insts = &m.functions[0].block(BlockId(2)).insts;
        assert_eq!((g, d), (slot(insts[0]), slot(insts[1])));
    }
}
