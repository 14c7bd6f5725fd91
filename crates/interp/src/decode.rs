//! Decoding: a module turned, once, into the compact form the
//! [`Machine`](crate::machine::Machine) runs.
//!
//! Decoding does once per module the work that walking the IR would redo
//! on every executed instruction. Each operand becomes a frame slot (the
//! arena index of its value), each branch target the first op of the
//! block it enters, and each block's phis a parallel copy per incoming
//! edge. Each load is typed by its result, and each call target is
//! resolved to a builtin, a module function or a name for the intrinsic
//! handler. Constants, globals and argument positions go into a
//! per-function frame template.
//!
//! Each function is laid out in superblocks (Hwu et al., *The
//! Superblock*, 1993), which saves the jumps that only pass control on:
//!
//! * an edge into a *trampoline*, a block whose only op is a jump along an
//!   edge that runs, is retargeted past it, and the phi copies of the two
//!   edges compose into one parallel copy. Threading stops at an edge that
//!   panics, at a self-loop and where a chain of trampolines would revisit
//!   a block;
//! * a block that ends in a jump to a phi-free block other than the entry,
//!   which no other edge enters, continues with that block's ops in place
//!   of the jump.
//!
//! The IR is untouched, so detection never sees a superblock. A block that
//! heads no superblock (merged into its predecessor, skipped by every edge
//! into it, or unreachable) has no ops of its own. Block counts stay
//! exact: taking an edge counts the blocks it skips, its target and the
//! blocks merged into the target's superblock, and a trap takes back the
//! merged blocks whose first op comes after the trapping op.
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
    /// The target's first op, `u32::MAX` for an edge no decoded op takes.
    pub(crate) start: u32,
    /// `(phi, incoming)` slot pairs, in phi order: the range
    /// `copies.0..copies.1` of [`Func::copies`].
    pub(crate) copies: (u32, u32),
    /// The blocks taking the edge enters: those it skips, its target and
    /// the blocks merged into the target's superblock; a range of
    /// [`Func::counted`].
    pub(crate) counted: (u32, u32),
    /// How the copies run.
    pub(crate) kind: EdgeKind,
}

/// A block decoded inside the superblock of another, after its head.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Merged {
    pub(crate) block: u32,
    /// The superblock's first op.
    pub(crate) head: u32,
    /// The block's first op: a trap at an earlier op of the superblock
    /// leaves the block unentered.
    pub(crate) first: u32,
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
    /// The ops of every superblock, concatenated in the order of their
    /// heads; the entry block's comes first.
    pub(crate) ops: Box<[Op]>,
    /// Index in `ops` of the first op of the superblock each block heads,
    /// `u32::MAX` for a block that heads none.
    pub(crate) block_start: Box<[u32]>,
    /// Whether the entry block starts with a phi (entering it from the
    /// call panics).
    pub(crate) entry_phis: bool,
    /// The blocks a call enters first: the entry block and the blocks
    /// merged into its superblock; a range of [`Func::counted`].
    pub(crate) entry_counted: (u32, u32),
    pub(crate) edges: Box<[Edge]>,
    pub(crate) copies: Box<[(Slot, Slot)]>,
    /// The block lists that entering a superblock counts.
    pub(crate) counted: Box<[u32]>,
    /// Every merged block, for a trap to take back.
    pub(crate) merged: Box<[Merged]>,
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

/// The edges `op` may leave its block by.
fn edges_of(op: Op) -> [Option<u32>; 2] {
    match op {
        Op::Jump(e) | Op::DeferJump(e) => [Some(e), None],
        Op::Branch { then, els, .. }
        | Op::DeferBranch { then, els, .. }
        | Op::IntCmpBranch { then, els, .. }
        | Op::FloatCmpBranch { then, els, .. } => [Some(then), Some(els)],
        _ => [None, None],
    }
}

/// How `copies` run: in order, unless some copy reads a slot that an
/// earlier one writes.
fn copy_kind(copies: &[(Slot, Slot)]) -> EdgeKind {
    let reads_earlier_write = copies
        .iter()
        .enumerate()
        .any(|(j, &(_, src))| copies[..j].iter().any(|&(dst, _)| dst == src));
    if reads_earlier_write {
        EdgeKind::Parallel
    } else {
        EdgeKind::InOrder
    }
}

fn range((lo, hi): (u32, u32)) -> std::ops::Range<usize> {
    lo as usize..hi as usize
}

/// A function's superblocks and the tables that count their blocks.
struct Layout {
    ops: Vec<Op>,
    block_start: Vec<u32>,
    entry_counted: (u32, u32),
    counted: Vec<u32>,
    merged: Vec<Merged>,
}

struct Decoder<'f> {
    f: &'f Function,
    index: &'f HashMap<String, usize>,
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
            edges: Vec::new(),
            copies: Vec::new(),
            calls: Vec::new(),
            defects: Vec::new(),
        };
        let own: Vec<Vec<Op>> = f.block_ids().map(|b| d.block(b)).collect();
        let skipped = d.thread(&own);
        let layout = d.lay_out(&own, &skipped);
        Func {
            template: Frame::new(&template),
            args: args.into(),
            ops: layout.ops.into(),
            block_start: layout.block_start.into(),
            entry_phis: !f.blocks.is_empty() && !leading_phis(f, BlockId(0)).is_empty(),
            entry_counted: layout.entry_counted,
            edges: d.edges.into(),
            copies: d.copies.into(),
            counted: layout.counted.into(),
            merged: layout.merged.into(),
            calls: d.calls.into(),
            defects: d.defects.into(),
        }
    }

    /// Retargets every edge that runs past the trampolines it enters, and
    /// returns the blocks each edge skips, in the order it skips them.
    fn thread(&mut self, own: &[Vec<Op>]) -> Vec<Vec<u32>> {
        let runs = |kind| matches!(kind, EdgeKind::InOrder | EdgeKind::Parallel);
        let original = self.edges.clone();
        let mut skipped = vec![Vec::new(); original.len()];
        for (e, edge) in original.iter().enumerate() {
            if !runs(edge.kind) {
                continue;
            }
            let mut to = edge.to;
            let mut copies = self.copies[range(edge.copies)].to_vec();
            while let [Op::Jump(next)] = own[to as usize][..] {
                let next = &original[next as usize];
                if !runs(next.kind) || next.to == to || skipped[e].contains(&next.to) {
                    break;
                }
                // The next edge's copies read what this edge's copies wrote.
                for &(phi, incoming) in &self.copies[range(next.copies)] {
                    let written = copies.iter().find(|&&(dst, _)| dst == incoming);
                    copies.push((phi, written.map_or(incoming, |&(_, src)| src)));
                }
                skipped[e].push(to);
                to = next.to;
            }
            if to != edge.to {
                copies.retain(|&(dst, src)| dst != src);
                let start = index_u32(self.copies.len());
                self.copies.extend_from_slice(&copies);
                self.edges[e] = Edge {
                    to,
                    copies: (start, index_u32(self.copies.len())),
                    kind: copy_kind(&copies),
                    ..self.edges[e]
                };
            }
        }
        skipped
    }

    /// Lays the blocks' ops out in superblocks, and fills in where each
    /// edge enters and what it counts.
    fn lay_out(&mut self, own: &[Vec<Op>], skipped: &[Vec<u32>]) -> Layout {
        let n = own.len();
        // The blocks reachable from the entry over threaded edges, and how
        // many of their edges enter each block.
        let mut live = vec![false; n];
        let mut preds = vec![0u32; n];
        let mut stack = Vec::new();
        if n > 0 {
            live[0] = true;
            stack.push(0);
        }
        while let Some(b) = stack.pop() {
            for e in own[b].iter().flat_map(|&op| edges_of(op)).flatten() {
                let edge = &self.edges[e as usize];
                if let EdgeKind::NotALabel(_) = edge.kind {
                    continue;
                }
                let to = edge.to as usize;
                preds[to] += 1;
                if !live[to] {
                    live[to] = true;
                    stack.push(to);
                }
            }
        }
        // The edge a live block ends with, when it is the only edge into a
        // phi-free block other than the entry.
        let merge = |b: usize| match own[b].last() {
            Some(&Op::Jump(e)) => {
                let edge = &self.edges[e as usize];
                let to = edge.to as usize;
                let plain = edge.kind == EdgeKind::InOrder && edge.copies.0 == edge.copies.1;
                (plain && to != 0 && preds[to] == 1).then_some(e as usize)
            }
            _ => None,
        };
        let mut merged = vec![false; n];
        for b in (0..n).filter(|&b| live[b]) {
            if let Some(e) = merge(b) {
                merged[self.edges[e].to as usize] = true;
            }
        }
        let mut layout = Layout {
            ops: Vec::new(),
            block_start: vec![u32::MAX; n],
            entry_counted: (0, 0),
            counted: Vec::new(),
            merged: Vec::new(),
        };
        // Each head's superblock: its blocks in the order they run.
        let mut blocks: Vec<Vec<u32>> = vec![Vec::new(); n];
        for head in (0..n).filter(|&b| live[b] && !merged[b]) {
            let start = index_u32(layout.ops.len());
            layout.block_start[head] = start;
            blocks[head].push(index_u32(head));
            let mut b = head;
            while let Some(e) = merge(b) {
                layout.ops.extend_from_slice(&own[b][..own[b].len() - 1]);
                let first = index_u32(layout.ops.len());
                b = self.edges[e].to as usize;
                for &block in skipped[e].iter().chain([&index_u32(b)]) {
                    blocks[head].push(block);
                    layout.merged.push(Merged { block, head: start, first });
                }
            }
            layout.ops.extend_from_slice(&own[b]);
        }
        let mut count = |list: &mut dyn Iterator<Item = u32>| {
            let start = index_u32(layout.counted.len());
            layout.counted.extend(list);
            (start, index_u32(layout.counted.len()))
        };
        if n > 0 {
            layout.entry_counted = count(&mut blocks[0].iter().copied());
        }
        // Every edge a decoded op takes enters the head of a superblock.
        for e in layout.ops.iter().flat_map(|&op| edges_of(op)).flatten() {
            let edge = &mut self.edges[e as usize];
            if let EdgeKind::NotALabel(_) = edge.kind {
                continue;
            }
            let to = edge.to as usize;
            edge.start = layout.block_start[to];
            edge.counted = count(&mut skipped[e as usize].iter().chain(&blocks[to]).copied());
        }
        layout
    }

    fn defect(&mut self, message: String) -> u32 {
        self.defects.push(message);
        index_u32(self.defects.len() - 1)
    }

    /// Decodes block `b` after its phis. Code after a return, a final
    /// branch or a defect never runs, so it is not decoded.
    fn block(&mut self, b: BlockId) -> Vec<Op> {
        let insts = &self.f.block(b).insts;
        let body = &insts[leading_phis(self.f, b).len()..];
        let mut ops = Vec::new();
        let mut deferred = false;
        for (k, &inst) in body.iter().enumerate() {
            let op = self.inst(b, inst, k + 1 == body.len());
            // A pair with a fused form replaces the block's previous op.
            let op = match ops.last().and_then(|&prev| fused(prev, op)) {
                Some(pair) => {
                    ops.pop();
                    pair
                }
                None => op,
            };
            ops.push(op);
            match op {
                Op::Ret(_)
                | Op::Jump(_)
                | Op::Branch { .. }
                | Op::IntCmpBranch { .. }
                | Op::FloatCmpBranch { .. }
                | Op::Defect(_) => return ops,
                Op::DeferJump(_) | Op::DeferBranch { .. } => deferred = true,
                _ => {}
            }
        }
        let op = if deferred {
            Op::TakeDeferred
        } else {
            Op::Defect(self.defect(format!("block {b} fell through without terminator")))
        };
        ops.push(op);
        ops
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
        let (to, copies, kind) = match f.values.get(target.index()).map(|v| &v.kind) {
            Some(&ValueKind::Block(to)) if to.index() < f.blocks.len() => {
                let from_label = f.block(from).label;
                let start = self.copies.len();
                let mut incoming = true;
                for &phi in leading_phis(f, to) {
                    // The first incoming pair naming `from` wins.
                    let ops = f.value(phi).kind.operands();
                    match ops.chunks_exact(2).find(|pair| pair[1] == from_label) {
                        Some(pair) => self.copies.push((slot(phi), slot(pair[0]))),
                        None => incoming = false,
                    }
                }
                let kind =
                    if incoming { copy_kind(&self.copies[start..]) } else { EdgeKind::NoIncoming };
                (to.0, (index_u32(start), index_u32(self.copies.len())), kind)
            }
            kind => {
                let message = format!("value {target} is not a block label: {kind:?}");
                (0, (0, 0), EdgeKind::NotALabel(self.defect(message)))
            }
        };
        self.edges.push(Edge { to, start: u32::MAX, copies, counted: (0, 0), kind });
        index_u32(self.edges.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The op kinds of the superblock each block of `func` heads, `-` for
    /// a block that heads none.
    fn shapes(func: &Func) -> Vec<String> {
        let starts = &func.block_start;
        starts
            .iter()
            .map(|&start| {
                if start == u32::MAX {
                    return "-".to_string();
                }
                let end = starts.iter().copied().filter(|&s| s > start && s != u32::MAX).min();
                let ops = &func.ops[start as usize..end.map_or(func.ops.len(), |e| e as usize)];
                let kinds: Vec<String> = ops
                    .iter()
                    .map(|op| format!("{op:?}").split([' ', '(']).next().unwrap().to_string())
                    .collect();
                kinds.join(" ")
            })
            .collect()
    }

    /// The blocks the edges of `func` count when taken, by target block.
    fn counted(func: &Func) -> Vec<(u32, Vec<u32>)> {
        let mut edges: Vec<(u32, Vec<u32>)> = func
            .edges
            .iter()
            .filter(|e| e.start != u32::MAX)
            .map(|e| (e.to, func.counted[range(e.counted)].to_vec()))
            .collect();
        edges.sort();
        edges.dedup();
        edges
    }

    const TPACF: &str = "void tpacf(int* bins, float* binb, float* dots, int n, int nbins) {
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
    }";

    #[test]
    fn compares_before_their_branch_and_geps_before_their_access_fuse() {
        let m = gr_frontend::compile(TPACF).unwrap();
        let func = &Program::new(&m).funcs[0];
        // The histogram store's gep is not the op before it, so the store
        // stays unfused.
        let expect = [
            "Jump",
            "IntCmpBranch",
            "GepLoadF Jump",
            "-",
            "Ret",
            "IntBin IntCmpBranch",
            "IntBin IntBin GepLoadF FloatCmpBranch",
            "Gep GepLoadI IntBin Store IntBin Jump",
            "-",
            "-",
            "-",
        ];
        assert_eq!(shapes(func), expect);
        // The fused op writes the gep's slot as well as the load's.
        let Op::GepLoadF { d, g, .. } = func.ops[func.block_start[2] as usize] else {
            unreachable!("checked above")
        };
        let insts = &m.functions[0].block(BlockId(2)).insts;
        assert_eq!((g, d), (slot(insts[0]), slot(insts[1])));
    }

    #[test]
    fn the_binary_search_threads_its_diamond_and_merges_its_latch() {
        // bb3 (for.latch) runs after bb7 (while.exit), its only
        // predecessor; both arms of the inner `if` (bb8, bb9) jump to the
        // join bb10, which only jumps back to the inner header bb5.
        let m = gr_frontend::compile(TPACF).unwrap();
        let func = &Program::new(&m).funcs[0];
        let edges = counted(func);
        let expect: Vec<(u32, Vec<u32>)> = vec![
            (1, vec![1]),
            (2, vec![2]),
            (4, vec![4]),
            (5, vec![5]),
            (5, vec![8, 10, 5]),
            (5, vec![9, 10, 5]),
            (6, vec![6]),
            (7, vec![7, 3]),
        ];
        assert_eq!(edges, expect);
        // Each arm's copy writes the join's phis, then the header's phis
        // from what the join's would hold; a copy of a slot to itself
        // goes.
        let f = &m.functions[0];
        let phis =
            |b: u32| leading_phis(f, BlockId(b)).iter().map(|&v| slot(v)).collect::<Vec<_>>();
        let (join, header) = (phis(10), phis(5));
        let arm = |skip: u32| {
            let e = func.edges.iter().find(|e| func.counted[range(e.counted)][0] == skip).unwrap();
            (e.kind, func.copies[range(e.copies)].to_vec())
        };
        let then_copies = arm(8).1;
        assert_eq!(then_copies.len(), 3, "{then_copies:?}");
        assert_eq!(&then_copies[..2].iter().map(|c| c.0).collect::<Vec<_>>(), &join);
        assert_eq!(then_copies[2].0, header[0]);
        assert_eq!(arm(9).0, EdgeKind::InOrder);
        assert_eq!(arm(9).1.len(), 3);
        assert!(func.merged.iter().any(|m| m.block == 3));
    }

    #[test]
    fn a_search_miss_jumps_from_its_compare_to_the_latch() {
        // bb5 (if.then) breaks to the exit bb4; the miss goes through
        // bb6 (if.else) and bb7 (if.end) to the latch bb3.
        let m = gr_frontend::compile(
            "void findkey(int* a, int* out, int key, int n) {
                 int r = n;
                 for (int i = 0; i < n; i++) {
                     if (a[i] == key) { r = i; break; }
                 }
                 out[0] = r;
             }",
        )
        .unwrap();
        let func = &Program::new(&m).funcs[0];
        let expect =
            ["Jump", "IntCmpBranch", "GepLoadI IntCmpBranch", "IntBin Jump", "GepStore Ret"];
        assert_eq!(shapes(func)[..5], expect);
        assert_eq!(shapes(func)[5..], ["-", "-", "-"]);
        let edges = counted(func);
        assert!(edges.contains(&(3, vec![6, 7, 3])), "{edges:?}");
        assert!(edges.contains(&(4, vec![5, 4])), "{edges:?}");
    }

    #[test]
    fn a_fold_runs_its_latch_inside_its_body() {
        let m = gr_frontend::compile(
            "void dot(float* a, float* b, float* out, int n) {
                 float s = 0.0;
                 for (int i = 0; i < n; i++) s += a[i] * b[i];
                 out[0] = s;
             }",
        )
        .unwrap();
        let func = &Program::new(&m).funcs[0];
        let expect = [
            "Jump",
            "IntCmpBranch",
            "GepLoadF GepLoadF FloatBin FloatBin IntBin Jump",
            "-",
            "GepStore Ret",
        ];
        assert_eq!(shapes(func), expect);
        assert_eq!(counted(func), [(1, vec![1]), (2, vec![2, 3]), (4, vec![4])]);
    }
}
