//! The evaluator: a loop over the decoded form of a module
//! ([`crate::decode`]).

use crate::decode::{Callee, EdgeKind, Func, Op, Program, Slot};
use crate::memory::{MemBackend, MemError, ObjId};
use crate::profile::Profile;
use crate::value::RtVal;
use gr_ir::{BinOp, BlockId, CmpPred, Module, Type, UnOp};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// An execution error.
#[derive(Debug, Clone, PartialEq)]
pub enum Trap {
    /// Memory access violation.
    Mem(MemError),
    /// Integer division or remainder by zero.
    DivByZero,
    /// Call to a function that is neither defined, builtin, nor handled.
    UnknownFunction(String),
    /// `call` target does not exist in the module.
    NoSuchFunction(String),
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::Mem(e) => e.fmt(f),
            Trap::DivByZero => f.write_str("integer division by zero"),
            Trap::UnknownFunction(n) => write!(f, "call to unknown function `{n}`"),
            Trap::NoSuchFunction(n) => write!(f, "no function named `{n}`"),
        }
    }
}

impl std::error::Error for Trap {}

impl From<MemError> for Trap {
    fn from(e: MemError) -> Trap {
        Trap::Mem(e)
    }
}

/// Intercepts calls the interpreter cannot resolve (the parallel runtime's
/// `__parrun_*` intrinsics). Returns `None` to decline. The lifetime lets
/// a handler borrow what it runs with.
pub type IntrinsicHandler<'m, M> =
    dyn Fn(&str, &[RtVal], &mut M) -> Option<Result<Option<RtVal>, Trap>> + Send + Sync + 'm;

/// The interpreter: a decoded module plus a memory backend.
///
/// [`Machine::new`] decodes its module ([`Program::new`]);
/// [`Machine::from_program`] runs a decode that many machines share, which
/// is how the parallel runtime starts a machine per chunk without decoding
/// anything. Each function call runs one loop over the decoded ops of its
/// function. That loop is generic over the memory backend, so each crate
/// that runs a backend compiles its own copy; the helpers it calls on
/// every op are forced inline so that every copy is as fast.
pub struct Machine<'m, M: MemBackend = crate::memory::Memory> {
    program: Cow<'m, Program>,
    /// The memory backend (public so harnesses can inspect results).
    pub mem: M,
    /// Optional profiling (enable with [`Machine::enable_profile`]).
    pub profile: Option<Profile>,
    handler: Option<Arc<IntrinsicHandler<'m, M>>>,
}

impl<'m, M: MemBackend> Machine<'m, M> {
    /// Decodes `module` and creates a machine over it with the given
    /// memory.
    #[must_use]
    pub fn new(module: &'m Module, mem: M) -> Machine<'m, M> {
        Machine { program: Cow::Owned(Program::new(module)), mem, profile: None, handler: None }
    }

    /// Creates a machine that runs an already decoded module.
    #[must_use]
    pub fn from_program(program: &'m Program, mem: M) -> Machine<'m, M> {
        Machine { program: Cow::Borrowed(program), mem, profile: None, handler: None }
    }

    /// Starts recording per-block execution counts.
    pub fn enable_profile(&mut self) {
        self.profile = Some(Profile::new());
    }

    /// Installs an intrinsic handler (used by the parallel runtime).
    pub fn set_handler(&mut self, h: Arc<IntrinsicHandler<'m, M>>) {
        self.handler = Some(h);
    }

    /// Calls a function by name.
    ///
    /// # Errors
    /// Returns a [`Trap`] on runtime errors; `Trap::NoSuchFunction` if the
    /// name is not defined.
    pub fn call(&mut self, name: &str, args: &[RtVal]) -> Result<Option<RtVal>, Trap> {
        let program: &Program = &self.program;
        let idx = *program.index.get(name).ok_or_else(|| Trap::NoSuchFunction(name.to_string()))?;
        let mut run = Run {
            program,
            mem: &mut self.mem,
            profile: &mut self.profile,
            handler: self.handler.as_deref(),
        };
        run.function(idx, args)
    }
}

/// Kind tags of a frame slot's head word. A pointer's head also holds its
/// object id, in the high half.
const UNDEF: u64 = 0;
const INT: u64 = 1;
const FLOAT: u64 = 2;
const BOOL: u64 = 3;
const PTR: u64 = 4;

/// A function's frame: one slot per value of its arena, held as two word
/// arrays. A slot's *head* word is its kind tag, plus the object id for a
/// pointer; its *payload* word is the int, the float's bits, the bool or
/// the pointer's offset.
///
/// The loop reads and writes slots only through the word-sized accessors
/// below, so every slot is stored and loaded with the same 8-byte
/// accesses and the CPU forwards each store to the next load of the slot.
/// Slots held as [`RtVal`]s would be written in partial stores (a tag
/// byte, payload pieces) and read back with one 16-byte load that the CPU
/// cannot forward from them, a stall that costs more than dispatch. Two
/// separate arrays also keep the compiler from merging a slot's two words
/// into one such load. [`Frame::get`] and [`Frame::set`] convert to and
/// from [`RtVal`] at calls, returns, casts and the slow paths of the
/// typed ops.
#[derive(Debug, Clone)]
pub(crate) struct Frame {
    head: Box<[u64]>,
    pay: Box<[u64]>,
}

impl Frame {
    /// A frame holding `values`.
    pub(crate) fn new(values: &[RtVal]) -> Frame {
        let mut frame =
            Frame { head: vec![UNDEF; values.len()].into(), pay: vec![0; values.len()].into() };
        for (s, &v) in (0..).zip(values) {
            frame.set(s, v);
        }
        frame
    }

    /// The value in slot `s`.
    #[inline(always)]
    fn get(&self, s: Slot) -> RtVal {
        let (head, pay) = (self.head[s as usize], self.pay[s as usize]);
        match head as u32 as u64 {
            INT => RtVal::I(pay as i64),
            FLOAT => RtVal::F(f64::from_bits(pay)),
            BOOL => RtVal::B(pay != 0),
            PTR => RtVal::P { obj: ObjId((head >> 32) as u32), off: pay as i64 },
            _ => RtVal::Undef,
        }
    }

    /// Stores `v` in slot `s`.
    #[inline(always)]
    fn set(&mut self, s: Slot, v: RtVal) {
        let (head, pay) = match v {
            RtVal::I(x) => (INT, x as u64),
            RtVal::F(x) => (FLOAT, x.to_bits()),
            RtVal::B(x) => (BOOL, u64::from(x)),
            RtVal::P { obj, off } => (PTR | u64::from(obj.0) << 32, off as u64),
            RtVal::Undef => (UNDEF, 0),
        };
        self.put(s, head, pay);
    }

    #[inline(always)]
    fn put(&mut self, s: Slot, head: u64, pay: u64) {
        self.head[s as usize] = head;
        self.pay[s as usize] = pay;
    }

    /// The int in slot `s`, if it holds one.
    #[inline(always)]
    fn int(&self, s: Slot) -> Option<i64> {
        (self.head[s as usize] == INT).then(|| self.pay[s as usize] as i64)
    }

    /// The float in slot `s`, if it holds one.
    #[inline(always)]
    fn float(&self, s: Slot) -> Option<f64> {
        (self.head[s as usize] == FLOAT).then(|| f64::from_bits(self.pay[s as usize]))
    }

    /// The int in slot `s`.
    ///
    /// # Panics
    /// Panics if the slot holds no int.
    #[inline(always)]
    fn as_int(&self, s: Slot) -> i64 {
        self.int(s).unwrap_or_else(|| self.get(s).as_i())
    }

    /// The bool in slot `s`.
    ///
    /// # Panics
    /// Panics if the slot holds no bool.
    #[inline(always)]
    fn cond(&self, s: Slot) -> bool {
        if self.head[s as usize] == BOOL {
            self.pay[s as usize] != 0
        } else {
            self.get(s).as_b()
        }
    }

    /// The object and offset of the pointer in slot `s`.
    ///
    /// # Panics
    /// Panics with `what` if the slot holds no pointer.
    #[inline(always)]
    fn ptr(&self, s: Slot, what: &str) -> (ObjId, i64) {
        let head = self.head[s as usize];
        if head as u32 as u64 != PTR {
            panic!("{what}");
        }
        (ObjId((head >> 32) as u32), self.pay[s as usize] as i64)
    }

    #[inline(always)]
    fn set_i(&mut self, s: Slot, v: i64) {
        self.put(s, INT, v as u64);
    }

    #[inline(always)]
    fn set_f(&mut self, s: Slot, v: f64) {
        self.put(s, FLOAT, v.to_bits());
    }

    #[inline(always)]
    fn set_b(&mut self, s: Slot, v: bool) {
        self.put(s, BOOL, u64::from(v));
    }

    #[inline(always)]
    fn set_p(&mut self, s: Slot, obj: ObjId, off: i64) {
        self.put(s, PTR | u64::from(obj.0) << 32, off as u64);
    }

    /// Copies slot `from` into slot `to`.
    #[inline(always)]
    fn copy(&mut self, to: Slot, from: Slot) {
        self.put(to, self.head[from as usize], self.pay[from as usize]);
    }
}

/// What one [`Machine::call`] runs with.
struct Run<'a, 'm, M: MemBackend> {
    program: &'a Program,
    mem: &'a mut M,
    profile: &'a mut Option<Profile>,
    handler: Option<&'a IntrinsicHandler<'m, M>>,
}

/// The value of `r`, or a break out of the op loop labelled `$ops` with
/// its trap.
macro_rules! or_trap {
    ($ops:lifetime, $r:expr) => {
        match $r {
            Ok(v) => v,
            Err(e) => break $ops Trap::from(e),
        }
    };
}

impl<M: MemBackend> Run<'_, '_, M> {
    fn function(&mut self, idx: usize, args: &[RtVal]) -> Result<Option<RtVal>, Trap> {
        let program = self.program;
        let func = &program.funcs[idx];
        let mut frame = func.template.clone();
        for &(s, i) in &func.args {
            frame.set(s, args[i]);
        }
        assert!(!func.block_start.is_empty(), "function has no blocks");
        self.count(idx, func, func.entry_counted);
        assert!(!func.entry_phis, "phi in entry block");
        // Reused by every call and parallel copy of this frame.
        let mut buf: Vec<RtVal> = Vec::new();
        let mut deferred = 0;
        let ops = &func.ops[..];
        let mut pc = 0;
        // Only a trap leaves the loop; `pc` is then one past the op that
        // trapped.
        let trap = 'ops: loop {
            let op = ops[pc];
            pc += 1;
            match op {
                Op::IntBin { op, d, a, b } => match (frame.int(a), frame.int(b)) {
                    (Some(x), Some(y)) => frame.set_i(d, or_trap!('ops, int_bin(op, x, y))),
                    _ => frame.set(d, or_trap!('ops, eval_bin(op, frame.get(a), frame.get(b)))),
                },
                Op::FloatBin { op, d, a, b } => match (frame.float(a), frame.float(b)) {
                    (Some(x), Some(y)) => frame.set_f(d, float_bin(op, x, y)),
                    _ => frame.set(d, or_trap!('ops, eval_bin(op, frame.get(a), frame.get(b)))),
                },
                Op::Bin { op, d, a, b } => {
                    frame.set(d, or_trap!('ops, eval_bin(op, frame.get(a), frame.get(b))));
                }
                Op::IntCmp { pred, d, a, b } => {
                    let c = int_cmp(&frame, pred, a, b);
                    frame.set_b(d, c);
                }
                Op::FloatCmp { pred, d, a, b } => {
                    let c = float_cmp(&frame, pred, a, b);
                    frame.set_b(d, c);
                }
                Op::Cmp { pred, d, a, b } => {
                    frame.set_b(d, eval_cmp(pred, frame.get(a), frame.get(b)));
                }
                Op::IntCmpBranch { pred, d, a, b, then, els } => {
                    let c = int_cmp(&frame, pred, a, b);
                    frame.set_b(d, c);
                    let e = if c { then } else { els };
                    pc = self.enter(idx, func, e, &mut frame, &mut buf);
                }
                Op::FloatCmpBranch { pred, d, a, b, then, els } => {
                    let c = float_cmp(&frame, pred, a, b);
                    frame.set_b(d, c);
                    let e = if c { then } else { els };
                    pc = self.enter(idx, func, e, &mut frame, &mut buf);
                }
                Op::Un { op, d, a } => {
                    let v = match (op, frame.get(a)) {
                        (UnOp::Neg, RtVal::I(v)) => RtVal::I(v.wrapping_neg()),
                        (UnOp::Neg, RtVal::F(v)) => RtVal::F(-v),
                        (UnOp::Not, RtVal::B(v)) => RtVal::B(!v),
                        (op, v) => panic!("bad unop {op:?} on {v:?}"),
                    };
                    frame.set(d, v);
                }
                Op::LoadI { d, ptr } => {
                    let (obj, off) = frame.ptr(ptr, "load through non-pointer");
                    frame.set_i(d, or_trap!('ops, self.mem.load_i(obj, off)));
                }
                Op::LoadF { d, ptr } => {
                    let (obj, off) = frame.ptr(ptr, "load through non-pointer");
                    frame.set_f(d, or_trap!('ops, self.mem.load_f(obj, off)));
                }
                Op::Store { val, ptr } => {
                    let (obj, off) = frame.ptr(ptr, "store through non-pointer");
                    or_trap!('ops, self.store(&frame, val, obj, off));
                }
                Op::Gep { d, ptr, idx } => {
                    gep(&mut frame, d, ptr, idx);
                }
                Op::GepLoadI { d, g, ptr, idx } => {
                    let (obj, off) = gep(&mut frame, g, ptr, idx);
                    frame.set_i(d, or_trap!('ops, self.mem.load_i(obj, off)));
                }
                Op::GepLoadF { d, g, ptr, idx } => {
                    let (obj, off) = gep(&mut frame, g, ptr, idx);
                    frame.set_f(d, or_trap!('ops, self.mem.load_f(obj, off)));
                }
                Op::GepStore { val, g, ptr, idx } => {
                    let (obj, off) = gep(&mut frame, g, ptr, idx);
                    or_trap!('ops, self.store(&frame, val, obj, off));
                }
                Op::Cast { d, a, ty } => frame.set(d, coerce(frame.get(a), ty)),
                Op::Select { d, c, t, e } => frame.copy(d, if frame.cond(c) { t } else { e }),
                Op::Alloca { d, len, ty } => {
                    let len = frame.as_int(len).max(0) as usize;
                    let elem = ty.elem().expect("alloca yields pointer");
                    frame.set_p(d, self.mem.alloc(elem, len), 0);
                }
                Op::Call(site) => {
                    let site = &func.calls[site as usize];
                    buf.clear();
                    buf.extend(site.args.iter().map(|&s| frame.get(s)));
                    let result = match &site.callee {
                        Callee::Builtin(f) => Some(f(&buf)),
                        Callee::Func(callee) => or_trap!('ops, self.function(*callee, &buf)),
                        Callee::Handler(name) => or_trap!('ops, self.intrinsic(name, &buf)),
                    };
                    if let Some((d, ty)) = site.ret {
                        frame.set(d, coerce(result.unwrap_or(RtVal::Undef), ty));
                    }
                }
                Op::Jump(e) => pc = self.enter(idx, func, e, &mut frame, &mut buf),
                Op::Branch { c, then, els } => {
                    let e = if frame.cond(c) { then } else { els };
                    pc = self.enter(idx, func, e, &mut frame, &mut buf);
                }
                Op::Ret(v) => return Ok(v.map(|s| frame.get(s))),
                Op::DeferJump(e) => deferred = check_target(func, e),
                Op::DeferBranch { c, then, els } => {
                    deferred = check_target(func, if frame.cond(c) { then } else { els });
                }
                Op::TakeDeferred => pc = self.enter(idx, func, deferred, &mut frame, &mut buf),
                Op::Defect(m) => panic!("{}", func.defects[m as usize]),
            }
        };
        if let Some(p) = self.profile.as_mut() {
            take_back(p, idx, func, pc - 1);
        }
        Err(trap)
    }

    /// Stores the value in slot `val` at element `off` of `obj`.
    #[inline(always)]
    fn store(&mut self, frame: &Frame, val: Slot, obj: ObjId, off: i64) -> Result<(), Trap> {
        if let Some(v) = frame.int(val) {
            self.mem.store_i(obj, off, v)?;
        } else if let Some(v) = frame.float(val) {
            self.mem.store_f(obj, off, v)?;
        } else {
            match frame.get(val) {
                RtVal::B(v) => self.mem.store_i(obj, off, i64::from(v))?,
                other => panic!("cannot store {other:?}"),
            }
        }
        Ok(())
    }

    /// Counts one execution of each block in `blocks`, a range of
    /// [`Func::counted`].
    #[inline(always)]
    fn count(&mut self, idx: usize, func: &Func, blocks: (u32, u32)) {
        if let Some(p) = self.profile.as_mut() {
            record_blocks(p, idx, func, blocks);
        }
    }

    /// Takes edge `e` of function `idx`: runs the phi copies of the blocks
    /// it enters as one parallel copy. Returns the first op of the
    /// superblock it enters.
    #[inline(always)]
    fn enter(
        &mut self,
        idx: usize,
        func: &Func,
        e: u32,
        frame: &mut Frame,
        buf: &mut Vec<RtVal>,
    ) -> usize {
        let edge = &func.edges[check_target(func, e) as usize];
        self.count(idx, func, edge.counted);
        let copies = &func.copies[edge.copies.0 as usize..edge.copies.1 as usize];
        match edge.kind {
            EdgeKind::InOrder => {
                for &(phi, incoming) in copies {
                    frame.copy(phi, incoming);
                }
            }
            EdgeKind::Parallel => {
                buf.clear();
                buf.extend(copies.iter().map(|&(_, incoming)| frame.get(incoming)));
                for (&(phi, _), &v) in copies.iter().zip(buf.iter()) {
                    frame.set(phi, v);
                }
            }
            EdgeKind::NoIncoming => panic!("phi has no incoming for executed edge"),
            EdgeKind::NotALabel(_) => unreachable!("checked above"),
        }
        edge.start as usize
    }

    /// Offers a call the module cannot resolve to the handler.
    fn intrinsic(&mut self, name: &str, args: &[RtVal]) -> Result<Option<RtVal>, Trap> {
        let handler = self.handler;
        match handler.and_then(|h| h(name, args, self.mem)) {
            Some(r) => r,
            None => Err(Trap::UnknownFunction(name.to_string())),
        }
    }
}

/// Counts one execution of each block in `blocks` of function `idx`: out
/// of line, so that the loop pays one test for an unprofiled run.
#[inline(never)]
fn record_blocks(profile: &mut Profile, idx: usize, func: &Func, (lo, hi): (u32, u32)) {
    for &b in &func.counted[lo as usize..hi as usize] {
        profile.record(idx, BlockId(b), func.block_start.len());
    }
}

/// Takes back the blocks merged into the superblock of op `at` that start
/// after it: a trap at `at` left them unentered.
#[cold]
fn take_back(profile: &mut Profile, idx: usize, func: &Func, at: usize) {
    for m in func.merged.iter().filter(|m| m.head as usize <= at && at < m.first as usize) {
        profile.take_back(idx, BlockId(m.block));
    }
}

/// Edge `e`, after panicking if its branch target is not a block label.
#[inline(always)]
fn check_target(func: &Func, e: u32) -> u32 {
    if let EdgeKind::NotALabel(m) = func.edges[e as usize].kind {
        panic!("{}", func.defects[m as usize]);
    }
    e
}

/// `d = ptr + idx`; returns the object and offset it stored.
#[inline(always)]
fn gep(frame: &mut Frame, d: Slot, ptr: Slot, idx: Slot) -> (ObjId, i64) {
    let (obj, off) = frame.ptr(ptr, "gep on non-pointer");
    let off = off.wrapping_add(frame.as_int(idx));
    frame.set_p(d, obj, off);
    (obj, off)
}

/// `a pred b`, decoded for int operands.
#[inline(always)]
fn int_cmp(frame: &Frame, pred: CmpPred, a: Slot, b: Slot) -> bool {
    match (frame.int(a), frame.int(b)) {
        (Some(x), Some(y)) => compare(pred, x, y),
        _ => eval_cmp(pred, frame.get(a), frame.get(b)),
    }
}

/// `a pred b`, decoded for float operands.
#[inline(always)]
fn float_cmp(frame: &Frame, pred: CmpPred, a: Slot, b: Slot) -> bool {
    match (frame.float(a), frame.float(b)) {
        (Some(x), Some(y)) => compare(pred, x, y),
        _ => eval_cmp(pred, frame.get(a), frame.get(b)),
    }
}

#[inline(always)]
fn int_bin(op: BinOp, x: i64, y: i64) -> Result<i64, Trap> {
    Ok(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => {
            if y == 0 {
                return Err(Trap::DivByZero);
            }
            x.wrapping_div(y)
        }
        BinOp::Rem => {
            if y == 0 {
                return Err(Trap::DivByZero);
            }
            x.wrapping_rem(y)
        }
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => x.wrapping_shl(y as u32),
        BinOp::Shr => x.wrapping_shr(y as u32),
    })
}

#[inline(always)]
fn float_bin(op: BinOp, x: f64, y: f64) -> f64 {
    match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
        other => panic!("float {other} not supported"),
    }
}

#[inline(always)]
fn compare<T: PartialOrd>(pred: CmpPred, x: T, y: T) -> bool {
    match pred {
        CmpPred::Eq => x == y,
        CmpPred::Ne => x != y,
        CmpPred::Lt => x < y,
        CmpPred::Le => x <= y,
        CmpPred::Gt => x > y,
        CmpPred::Ge => x >= y,
    }
}

/// A binary op on operands of any runtime kind: the slow path of the
/// typed ops, and the only path for booleans.
#[inline(never)]
fn eval_bin(op: BinOp, a: RtVal, b: RtVal) -> Result<RtVal, Trap> {
    Ok(match (a, b) {
        (RtVal::I(x), RtVal::I(y)) => RtVal::I(int_bin(op, x, y)?),
        (RtVal::F(x), RtVal::F(y)) => RtVal::F(float_bin(op, x, y)),
        (RtVal::B(x), RtVal::B(y)) => RtVal::B(match op {
            BinOp::And => x && y,
            BinOp::Or => x || y,
            BinOp::Xor => x ^ y,
            other => panic!("bool {other} not supported"),
        }),
        (a, b) => panic!("mixed binop operands {a:?} {b:?}"),
    })
}

/// A comparison on operands of any runtime kind.
#[inline(never)]
fn eval_cmp(pred: CmpPred, a: RtVal, b: RtVal) -> bool {
    match (a, b) {
        (RtVal::I(x), RtVal::I(y)) => compare(pred, x, y),
        (RtVal::F(x), RtVal::F(y)) => compare(pred, x, y),
        (RtVal::B(x), RtVal::B(y)) => match pred {
            CmpPred::Eq => x == y,
            CmpPred::Ne => x != y,
            _ => panic!("ordered comparison on bools"),
        },
        (a, b) => panic!("mixed cmp operands {a:?} {b:?}"),
    }
}

#[inline(always)]
fn coerce(v: RtVal, to: Type) -> RtVal {
    match (v, to) {
        (RtVal::I(x), Type::Float) => RtVal::F(x as f64),
        (RtVal::F(x), Type::Int) => RtVal::I(x as i64),
        (RtVal::B(x), Type::Int) => RtVal::I(i64::from(x)),
        (RtVal::B(x), Type::Float) => RtVal::F(f64::from(u8::from(x))),
        (RtVal::I(x), Type::Bool) => RtVal::B(x != 0),
        (v, _) => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::Memory;
    use gr_ir::builder::FunctionBuilder;

    fn run(
        src: &str,
        name: &str,
        build: impl FnOnce(&mut Memory) -> Vec<RtVal>,
    ) -> Result<Option<RtVal>, Trap> {
        let m = gr_frontend::compile(src).unwrap();
        let mut mem = Memory::new(&m);
        let args = build(&mut mem);
        let mut machine = Machine::new(&m, mem);
        machine.call(name, &args)
    }

    /// The panic message of `f`.
    fn panic_of<R>(f: impl FnOnce() -> R) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .err()
            .expect("the call panics");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
            .expect("a string payload")
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let r = run(
            "int f(int n) { int s = 0; for (int i = 1; i <= n; i++) { if (i % 2 == 0) s += i; else s -= i; } return s; }",
            "f",
            |_| vec![RtVal::I(10)],
        )
        .unwrap();
        // -1+2-3+4-5+6-7+8-9+10 = 5
        assert_eq!(r, Some(RtVal::I(5)));
    }

    #[test]
    fn float_sum_matches_native() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64) * 0.5).collect();
        let expect: f64 = data.iter().sum();
        let got = run(
            "float sum(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }",
            "sum",
            |mem| vec![RtVal::ptr(mem.alloc_float(&data)), RtVal::I(100)],
        )
        .unwrap();
        assert_eq!(got, Some(RtVal::F(expect)));
    }

    #[test]
    fn histogram_counts_keys() {
        let keys: Vec<i64> = vec![0, 1, 1, 2, 2, 2, 3, 3, 3, 3];
        let m = gr_frontend::compile(
            "void rank(int* bins, int* keys, int n) { for (int i = 0; i < n; i++) bins[keys[i]]++; }",
        )
        .unwrap();
        let mut mem = Memory::new(&m);
        let bins = mem.alloc_int(&[0; 4]);
        let k = mem.alloc_int(&keys);
        let mut machine = Machine::new(&m, mem);
        machine.call("rank", &[RtVal::ptr(bins), RtVal::ptr(k), RtVal::I(10)]).unwrap();
        assert_eq!(machine.mem.ints(bins), &[1, 2, 3, 4]);
    }

    #[test]
    fn nested_calls_and_builtins() {
        let r = run(
            "float hyp(float a, float b) { return sqrt(a * a + b * b); }
             float f() { return hyp(3.0, 4.0); }",
            "f",
            |_| vec![],
        )
        .unwrap();
        assert_eq!(r, Some(RtVal::F(5.0)));
    }

    #[test]
    fn globals_and_locals() {
        let m = gr_frontend::compile(
            "float q[4];
             float f(int n) {
                 float tmp[4];
                 for (int i = 0; i < n; i++) { tmp[i] = i; q[i] = tmp[i] * 2.0; }
                 return q[3];
             }",
        )
        .unwrap();
        let mem = Memory::new(&m);
        let mut machine = Machine::new(&m, mem);
        let r = machine.call("f", &[RtVal::I(4)]).unwrap();
        assert_eq!(r, Some(RtVal::F(6.0)));
        assert_eq!(machine.mem.floats(ObjId(0)), &[0.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn out_of_bounds_traps() {
        // Each access is a gep fused with the load or store through it.
        let oob = |src: &str, float: bool| {
            let m = gr_frontend::compile(src).unwrap();
            let mut mem = Memory::new(&m);
            let a = if float { mem.alloc_float(&[1.0, 2.0]) } else { mem.alloc_int(&[1, 2]) };
            let mut machine = Machine::new(&m, mem);
            let err = machine.call("f", &[RtVal::ptr(a), RtVal::I(5)]).unwrap_err();
            assert_eq!(err, Trap::Mem(MemError::OutOfBounds { obj: a, index: 5, len: 2 }));
        };
        oob("int f(int* a, int i) { return a[i]; }", false);
        oob("float f(float* a, int i) { return a[i]; }", true);
        oob("void f(int* a, int i) { a[i] = 7; }", false);
        oob("void f(float* a, int i) { a[i] = 7.0; }", true);
    }

    #[test]
    fn division_by_zero_traps() {
        let err = run("int f(int a) { return 10 / a; }", "f", |_| vec![RtVal::I(0)]).unwrap_err();
        assert_eq!(err, Trap::DivByZero);
    }

    #[test]
    fn unknown_function_traps_without_handler() {
        let err = run("int f() { return 0; }", "g", |_| vec![]).unwrap_err();
        assert_eq!(err, Trap::NoSuchFunction("g".into()));
    }

    /// A module whose `f(x)` returns `callee(x)`; the frontend refuses
    /// unknown callees, so it is built directly.
    fn calling(callee: &str) -> Module {
        let mut b = FunctionBuilder::new("f", &[("x", Type::Int)], Type::Int);
        let r = b.call(callee, &[b.arg(0)], Type::Int);
        b.ret(Some(r));
        let mut m = Module::new();
        m.push_function(b.finish());
        m
    }

    #[test]
    fn handler_intercepts_intrinsics() {
        let m = calling("__magic");
        let handled = |m| {
            let mut machine = Machine::new(m, Memory::new(m));
            machine.set_handler(Arc::new(|name: &str, args: &[RtVal], _mem: &mut Memory| {
                (name == "__magic").then(|| Ok(Some(RtVal::I(args[0].as_i() * 2))))
            }));
            machine.call("f", &[RtVal::I(21)])
        };
        assert_eq!(handled(&m), Ok(Some(RtVal::I(42))));
        // A declined call traps, as does any call without a handler.
        let other = calling("__other");
        assert_eq!(handled(&other), Err(Trap::UnknownFunction("__other".into())));
        let mut bare = Machine::new(&m, Memory::new(&m));
        assert_eq!(bare.call("f", &[RtVal::I(21)]), Err(Trap::UnknownFunction("__magic".into())));
    }

    #[test]
    fn phis_copy_in_parallel() {
        // The swap makes each phi the other's incoming value on the back
        // edge, so copying them one after the other would lose one.
        let src = "int f(int n) { int a = 1; int b = 2; \
                   for (int i = 0; i < n; i++) { int t = a; a = b; b = t; } return a * 10 + b; }";
        for (n, expect) in [(0, 12), (1, 21), (2, 12), (3, 21)] {
            assert_eq!(run(src, "f", |_| vec![RtVal::I(n)]), Ok(Some(RtVal::I(expect))));
        }
    }

    #[test]
    fn a_threaded_join_that_swaps_copies_in_parallel() {
        // Both arms of the `if` jump to the join, whose phis swap a and b
        // on the then arm and keep them on the else arm; the join jumps
        // back to the header. Each arm's threaded edge writes the join's
        // phis and then the header's from them, so on the then arm the
        // header's a reads b and its b reads a.
        let src = "int g(int n) { int a = 1; int b = 2; int i = 0; \
                   while (i < n) { i = i + 1; int x = a; int y = b; \
                   if (i < 100) { x = b; y = a; } a = x; b = y; } return a * 10 + b; }";
        let m = gr_frontend::compile(src).unwrap();
        let kinds: Vec<EdgeKind> = Program::new(&m).funcs[0].edges.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EdgeKind::Parallel), "{kinds:?}");
        for n in [0, 1, 2, 3, 99, 100, 150] {
            let swaps = (1..=n).filter(|&i| i < 100).count();
            let expect = if swaps % 2 == 0 { 12 } else { 21 };
            assert_eq!(run(src, "g", |_| vec![RtVal::I(n)]), Ok(Some(RtVal::I(expect))), "{n}");
        }
    }

    #[test]
    fn a_cycle_of_empty_blocks_decodes() {
        // f: entry: condbr x, ok, a; a: br b; b: br c; c: br b; ok: ret 1.
        let mut f = FunctionBuilder::new("f", &[("x", Type::Bool)], Type::Int);
        let [ok, a, b, c] = ["ok", "a", "b", "c"].map(|name| f.new_block(name));
        f.cond_br(f.arg(0), ok, a);
        for (from, to) in [(a, b), (b, c), (c, b)] {
            f.switch_to(from);
            f.br(to);
        }
        f.switch_to(ok);
        let one = f.const_int(1);
        f.ret(Some(one));
        let mut m = Module::new();
        m.push_function(f.finish());
        let mut machine = Machine::new(&m, Memory::new(&m));
        assert_eq!(machine.call("f", &[RtVal::B(true)]), Ok(Some(RtVal::I(1))));
    }

    #[test]
    fn a_trap_takes_back_the_merged_blocks_after_it() {
        // f(p, i, d): entry: v = p[i]; br mid. mid: q = v / d; br tail.
        // tail: ret p[q]. Each block is the only successor of the one
        // before, so all three decode as one superblock.
        let mut f = FunctionBuilder::new(
            "f",
            &[("p", Type::PtrInt), ("i", Type::Int), ("d", Type::Int)],
            Type::Int,
        );
        let (mid, tail) = (f.new_block("mid"), f.new_block("tail"));
        let at = f.gep(f.arg(0), f.arg(1));
        let v = f.load(at);
        f.br(mid);
        f.switch_to(mid);
        let q = f.binop(BinOp::Div, v, f.arg(2));
        f.br(tail);
        f.switch_to(tail);
        let at = f.gep(f.arg(0), q);
        let w = f.load(at);
        f.ret(Some(w));
        let mut m = Module::new();
        m.push_function(f.finish());
        assert_eq!(Program::new(&m).funcs[0].block_start[1..], [u32::MAX, u32::MAX]);
        let counts = |i: i64, d: i64| {
            let mut mem = Memory::new(&m);
            let p = RtVal::ptr(mem.alloc_int(&[4, 0]));
            let mut machine = Machine::new(&m, mem);
            machine.enable_profile();
            let r = machine.call("f", &[p, RtVal::I(i), RtVal::I(d)]);
            let profile = machine.profile.as_ref().unwrap();
            (r, (0..3).map(|b| profile.block_count(0, BlockId(b))).collect::<Vec<_>>())
        };
        let oob = |index| Err(Trap::Mem(MemError::OutOfBounds { obj: ObjId(0), index, len: 2 }));
        // A trap before mid's first op leaves mid and tail unentered; a
        // trap at mid's division enters mid but not tail.
        assert_eq!(counts(5, 1), (oob(5), vec![1, 0, 0]));
        assert_eq!(counts(0, 0), (Err(Trap::DivByZero), vec![1, 1, 0]));
        assert_eq!(counts(0, 1), (oob(4), vec![1, 1, 1]));
        assert_eq!(counts(0, 4), (Ok(Some(RtVal::I(0))), vec![1, 1, 1]));
    }

    #[test]
    fn ir_defects_panic_when_executed_not_when_decoded() {
        // f: entry: condbr x, ok, via; ok: ret 1; via: br join; join's
        // phi lists no incoming for the edge from `via`.
        let mut b = FunctionBuilder::new("f", &[("x", Type::Bool)], Type::Int);
        let (ok, via, join) = (b.new_block("ok"), b.new_block("via"), b.new_block("join"));
        let entry = b.current_block();
        b.cond_br(b.arg(0), ok, via);
        b.switch_to(ok);
        let one = b.const_int(1);
        b.ret(Some(one));
        b.switch_to(via);
        b.br(join);
        b.switch_to(join);
        let p = b.phi(Type::Int, &[(one, entry)]);
        b.ret(Some(p));
        // g: a lone block without a terminator.
        let mut g = FunctionBuilder::new("g", &[("x", Type::Int)], Type::Int);
        g.binop(BinOp::Add, g.arg(0), g.arg(0));
        // h: a branch before the block's last instruction, which still
        // runs before the block is left.
        let mut h = FunctionBuilder::new("h", &[("p", Type::PtrInt)], Type::Void);
        let exit = h.new_block("exit");
        h.br(exit);
        let seven = h.const_int(7);
        h.store(seven, h.arg(0));
        h.switch_to(exit);
        h.ret(None);
        let mut m = Module::new();
        m.push_function(b.finish());
        m.push_function(g.finish());
        m.push_function(h.finish());
        let mut mem = Memory::new(&m);
        let cell = mem.alloc_int(&[0]);
        let mut machine = Machine::new(&m, mem);
        assert_eq!(machine.call("f", &[RtVal::B(true)]), Ok(Some(RtVal::I(1))));
        assert_eq!(machine.call("h", &[RtVal::ptr(cell)]), Ok(None));
        assert_eq!(machine.mem.ints(cell), &[7]);
        let no_incoming = panic_of(|| machine.call("f", &[RtVal::B(false)]));
        assert_eq!(no_incoming, "phi has no incoming for executed edge");
        let fell_through = panic_of(|| machine.call("g", &[RtVal::I(1)]));
        assert_eq!(fell_through, "block bb0 fell through without terminator");
    }

    #[test]
    fn typed_ops_take_the_generic_path_for_other_kinds() {
        // Decoded as an int add and an int compare feeding a branch; the
        // caller passes floats, or an int and a float.
        let add = "int f(int a, int b) { return a + b; }";
        let lt = "int f(int a, int b) { int r = 0; if (a < b) r = 1; return r; }";
        let (x, y) = (RtVal::F(1.5), RtVal::F(2.25));
        let sum = eval_bin(BinOp::Add, x, y).unwrap();
        assert_eq!(sum, RtVal::F(3.75));
        assert_eq!(run(add, "f", |_| vec![x, y]), Ok(Some(sum)));
        for (a, b) in [(x, y), (y, x), (x, x)] {
            let expect = i64::from(eval_cmp(CmpPred::Lt, a, b));
            assert_eq!(run(lt, "f", |_| vec![a, b]), Ok(Some(RtVal::I(expect))));
        }
        let mixed = [RtVal::I(1), RtVal::F(2.5)];
        let message = panic_of(|| run(add, "f", |_| mixed.to_vec()));
        assert_eq!(message, "mixed binop operands I(1) F(2.5)");
        let message = panic_of(|| run(lt, "f", |_| mixed.to_vec()));
        assert_eq!(message, "mixed cmp operands I(1) F(2.5)");
    }

    #[test]
    fn compare_and_gep_results_stay_readable_after_their_use() {
        // f(a, b): c = a < b; condbr c, yes, no; yes: ret (int) c;
        // no: ret select c, 5, 7. The branch is not c's last reader.
        let mut f = FunctionBuilder::new("f", &[("a", Type::Int), ("b", Type::Int)], Type::Int);
        let (yes, no) = (f.new_block("yes"), f.new_block("no"));
        let c = f.icmp(CmpPred::Lt, f.arg(0), f.arg(1));
        f.cond_br(c, yes, no);
        f.switch_to(yes);
        let r = f.cast(c, Type::Int);
        f.ret(Some(r));
        f.switch_to(no);
        let (five, seven) = (f.const_int(5), f.const_int(7));
        let s = f.select(c, five, seven);
        f.ret(Some(s));
        // g(a, i): p = a + i; v = *p; *p = v + 1.5; q = a + i; ret *q * 2:
        // the store reuses the address the load's gep made.
        let mut g =
            FunctionBuilder::new("g", &[("a", Type::PtrFloat), ("i", Type::Int)], Type::Float);
        let p = g.gep(g.arg(0), g.arg(1));
        let v = g.load(p);
        let step = g.const_float(1.5);
        let w = g.binop(BinOp::Add, v, step);
        g.store(w, p);
        let q = g.gep(g.arg(0), g.arg(1));
        let back = g.load(q);
        let two = g.const_float(2.0);
        let r = g.binop(BinOp::Mul, back, two);
        g.ret(Some(r));
        let mut m = Module::new();
        m.push_function(f.finish());
        m.push_function(g.finish());
        let mut mem = Memory::new(&m);
        let a = mem.alloc_float(&[1.0, 2.0, 3.0]);
        let mut machine = Machine::new(&m, mem);
        assert_eq!(machine.call("f", &[RtVal::I(1), RtVal::I(2)]), Ok(Some(RtVal::I(1))));
        assert_eq!(machine.call("f", &[RtVal::I(2), RtVal::I(1)]), Ok(Some(RtVal::I(7))));
        assert_eq!(machine.call("g", &[RtVal::ptr(a), RtVal::I(1)]), Ok(Some(RtVal::F(7.0))));
        assert_eq!(machine.mem.floats(a), &[1.0, 3.5, 3.0]);
    }

    #[test]
    fn wrong_kind_operands_panic_with_their_messages() {
        let indexed = "float f(float* a, int i) { return a[i]; }";
        let message = panic_of(|| run(indexed, "f", |_| vec![RtVal::I(3), RtVal::I(0)]));
        assert_eq!(message, "gep on non-pointer");
        let message = panic_of(|| {
            run(indexed, "f", |mem| vec![RtVal::ptr(mem.alloc_float(&[1.0])), RtVal::F(0.0)])
        });
        assert_eq!(message, "expected int, got F(0.0)");
        // Loads, stores and branches straight on the arguments.
        let mut f = FunctionBuilder::new("load", &[("p", Type::PtrInt)], Type::Int);
        let v = f.load(f.arg(0));
        f.ret(Some(v));
        let mut g = FunctionBuilder::new("store", &[("p", Type::PtrInt)], Type::Void);
        let one = g.const_int(1);
        g.store(one, g.arg(0));
        g.ret(None);
        let mut h = FunctionBuilder::new("branch", &[("c", Type::Bool)], Type::Void);
        let exit = h.new_block("exit");
        h.cond_br(h.arg(0), exit, exit);
        h.switch_to(exit);
        h.ret(None);
        let mut m = Module::new();
        m.push_function(f.finish());
        m.push_function(g.finish());
        m.push_function(h.finish());
        let mut machine = Machine::new(&m, Memory::new(&m));
        let mut message = |name: &str| panic_of(|| machine.call(name, &[RtVal::I(3)]));
        assert_eq!(message("load"), "load through non-pointer");
        assert_eq!(message("store"), "store through non-pointer");
        assert_eq!(message("branch"), "expected bool, got I(3)");
    }

    #[test]
    fn profile_counts_blocks() {
        let m = gr_frontend::compile(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }",
        )
        .unwrap();
        let mem = Memory::new(&m);
        let mut machine = Machine::new(&m, mem);
        machine.enable_profile();
        machine.call("f", &[RtVal::I(7)]).unwrap();
        let p = machine.profile.as_ref().unwrap();
        // body executes 7 times, header 8, entry and exit once.
        let func = &m.functions[0];
        let body = func.block_ids().find(|b| func.block(*b).name == "for.body").unwrap();
        let header = func.block_ids().find(|b| func.block(*b).name == "for.header").unwrap();
        assert_eq!(p.block_count(0, body), 7);
        assert_eq!(p.block_count(0, header), 8);
        assert_eq!(p.block_count(0, func.entry()), 1);
        assert!(p.total_instructions(&m) > 0);
    }

    #[test]
    fn tpacf_binary_search_histogram() {
        // End-to-end check of a non-trivial kernel with an inner while loop.
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
        let mut mem = Memory::new(&m);
        // binb descending thresholds: bin b covers [binb[b+1], binb[b])
        let bins = mem.alloc_int(&[0; 4]);
        let binb = mem.alloc_float(&[1.0, 0.75, 0.5, 0.25, 0.0]);
        let dots = mem.alloc_float(&[0.9, 0.8, 0.6, 0.3, 0.1, 0.05]);
        let mut machine = Machine::new(&m, mem);
        machine
            .call(
                "tpacf",
                &[RtVal::ptr(bins), RtVal::ptr(binb), RtVal::ptr(dots), RtVal::I(6), RtVal::I(4)],
            )
            .unwrap();
        assert_eq!(machine.mem.ints(bins).iter().sum::<i64>(), 6);
    }
}
