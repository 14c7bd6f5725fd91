//! The evaluator: a loop over the decoded form of a module
//! ([`crate::decode`]).

use crate::decode::{Callee, EdgeKind, Func, Op, Program, Slot};
use crate::memory::{MemBackend, MemError, ObjId};
use crate::profile::Profile;
use crate::value::RtVal;
use gr_ir::{BinOp, BlockId, CmpPred, Module, Type, UnOp};
use std::borrow::Cow;
use std::fmt;
use std::ops::{Index, IndexMut};
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

/// A function's frame: one slot per value of its arena.
struct Frame(Vec<RtVal>);

impl Index<Slot> for Frame {
    type Output = RtVal;
    #[inline(always)]
    fn index(&self, s: Slot) -> &RtVal {
        &self.0[s as usize]
    }
}

impl IndexMut<Slot> for Frame {
    #[inline(always)]
    fn index_mut(&mut self, s: Slot) -> &mut RtVal {
        &mut self.0[s as usize]
    }
}

/// What one [`Machine::call`] runs with.
struct Run<'a, 'm, M: MemBackend> {
    program: &'a Program,
    mem: &'a mut M,
    profile: &'a mut Option<Profile>,
    handler: Option<&'a IntrinsicHandler<'m, M>>,
}

impl<M: MemBackend> Run<'_, '_, M> {
    fn function(&mut self, idx: usize, args: &[RtVal]) -> Result<Option<RtVal>, Trap> {
        let program = self.program;
        let func = &program.funcs[idx];
        let mut frame = Frame(func.template.to_vec());
        for &(s, i) in &func.args {
            frame[s] = args[i];
        }
        assert!(!func.block_start.is_empty(), "function has no blocks");
        self.record(idx, func, 0);
        assert!(!func.entry_phis, "phi in entry block");
        // Reused by every call and parallel copy of this frame.
        let mut buf: Vec<RtVal> = Vec::new();
        let mut deferred = 0;
        let ops = &func.ops[..];
        let mut pc = 0;
        loop {
            let op = ops[pc];
            pc += 1;
            match op {
                Op::IntBin { op, d, a, b } => {
                    frame[d] = match (frame[a], frame[b]) {
                        (RtVal::I(x), RtVal::I(y)) => RtVal::I(int_bin(op, x, y)?),
                        (x, y) => eval_bin(op, x, y)?,
                    };
                }
                Op::FloatBin { op, d, a, b } => {
                    frame[d] = match (frame[a], frame[b]) {
                        (RtVal::F(x), RtVal::F(y)) => RtVal::F(float_bin(op, x, y)),
                        (x, y) => eval_bin(op, x, y)?,
                    };
                }
                Op::Bin { op, d, a, b } => frame[d] = eval_bin(op, frame[a], frame[b])?,
                Op::IntCmp { pred, d, a, b } => {
                    frame[d] = RtVal::B(match (frame[a], frame[b]) {
                        (RtVal::I(x), RtVal::I(y)) => compare(pred, x, y),
                        (x, y) => eval_cmp(pred, x, y),
                    });
                }
                Op::FloatCmp { pred, d, a, b } => {
                    frame[d] = RtVal::B(match (frame[a], frame[b]) {
                        (RtVal::F(x), RtVal::F(y)) => compare(pred, x, y),
                        (x, y) => eval_cmp(pred, x, y),
                    });
                }
                Op::Cmp { pred, d, a, b } => {
                    frame[d] = RtVal::B(eval_cmp(pred, frame[a], frame[b]))
                }
                Op::Un { op, d, a } => {
                    frame[d] = match (op, frame[a]) {
                        (UnOp::Neg, RtVal::I(v)) => RtVal::I(v.wrapping_neg()),
                        (UnOp::Neg, RtVal::F(v)) => RtVal::F(-v),
                        (UnOp::Not, RtVal::B(v)) => RtVal::B(!v),
                        (op, v) => panic!("bad unop {op:?} on {v:?}"),
                    };
                }
                Op::LoadI { d, ptr } => {
                    let (obj, off) = pointer(frame[ptr], "load through non-pointer");
                    frame[d] = RtVal::I(self.mem.load_i(obj, off)?);
                }
                Op::LoadF { d, ptr } => {
                    let (obj, off) = pointer(frame[ptr], "load through non-pointer");
                    frame[d] = RtVal::F(self.mem.load_f(obj, off)?);
                }
                Op::Store { val, ptr } => {
                    let (obj, off) = pointer(frame[ptr], "store through non-pointer");
                    match frame[val] {
                        RtVal::I(v) => self.mem.store_i(obj, off, v)?,
                        RtVal::F(v) => self.mem.store_f(obj, off, v)?,
                        RtVal::B(v) => self.mem.store_i(obj, off, i64::from(v))?,
                        other => panic!("cannot store {other:?}"),
                    }
                }
                Op::Gep { d, ptr, idx } => {
                    let (obj, off) = pointer(frame[ptr], "gep on non-pointer");
                    frame[d] = RtVal::P { obj, off: off.wrapping_add(frame[idx].as_i()) };
                }
                Op::Cast { d, a, ty } => frame[d] = coerce(frame[a], ty),
                Op::Select { d, c, t, e } => {
                    frame[d] = if frame[c].as_b() { frame[t] } else { frame[e] };
                }
                Op::Alloca { d, len, ty } => {
                    let len = frame[len].as_i().max(0) as usize;
                    let elem = ty.elem().expect("alloca yields pointer");
                    frame[d] = RtVal::ptr(self.mem.alloc(elem, len));
                }
                Op::Call(site) => {
                    let site = &func.calls[site as usize];
                    buf.clear();
                    buf.extend(site.args.iter().map(|&s| frame[s]));
                    let result = match &site.callee {
                        Callee::Builtin(f) => Some(f(&buf)),
                        Callee::Func(callee) => self.function(*callee, &buf)?,
                        Callee::Handler(name) => self.intrinsic(name, &buf)?,
                    };
                    if let Some((d, ty)) = site.ret {
                        frame[d] = coerce(result.unwrap_or(RtVal::Undef), ty);
                    }
                }
                Op::Jump(e) => pc = self.enter(idx, func, e, &mut frame, &mut buf),
                Op::Branch { c, then, els } => {
                    let e = if frame[c].as_b() { then } else { els };
                    pc = self.enter(idx, func, e, &mut frame, &mut buf);
                }
                Op::Ret(v) => return Ok(v.map(|s| frame[s])),
                Op::DeferJump(e) => deferred = check_target(func, e),
                Op::DeferBranch { c, then, els } => {
                    deferred = check_target(func, if frame[c].as_b() { then } else { els });
                }
                Op::TakeDeferred => pc = self.enter(idx, func, deferred, &mut frame, &mut buf),
                Op::Defect(m) => panic!("{}", func.defects[m as usize]),
            }
        }
    }

    /// Counts one execution of block `b` of function `idx`.
    #[inline(always)]
    fn record(&mut self, idx: usize, func: &Func, b: u32) {
        if let Some(p) = self.profile.as_mut() {
            p.record(idx, BlockId(b), func.block_start.len());
        }
    }

    /// Takes edge `e` of function `idx`: enters its target block and runs
    /// the target's phis as one parallel copy. Returns the target's first
    /// op.
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
        self.record(idx, func, edge.to);
        let copies = &func.copies[edge.copies.0 as usize..edge.copies.1 as usize];
        match edge.kind {
            EdgeKind::InOrder => {
                for &(phi, incoming) in copies {
                    frame[phi] = frame[incoming];
                }
            }
            EdgeKind::Parallel => {
                buf.clear();
                buf.extend(copies.iter().map(|&(_, incoming)| frame[incoming]));
                for (&(phi, _), &v) in copies.iter().zip(buf.iter()) {
                    frame[phi] = v;
                }
            }
            EdgeKind::NoIncoming => panic!("phi has no incoming for executed edge"),
            EdgeKind::NotALabel(_) => unreachable!("checked above"),
        }
        func.block_start[edge.to as usize] as usize
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

/// Edge `e`, after panicking if its branch target is not a block label.
#[inline(always)]
fn check_target(func: &Func, e: u32) -> u32 {
    if let EdgeKind::NotALabel(m) = func.edges[e as usize].kind {
        panic!("{}", func.defects[m as usize]);
    }
    e
}

#[inline(always)]
fn pointer(v: RtVal, what: &str) -> (ObjId, i64) {
    let RtVal::P { obj, off } = v else { panic!("{what}") };
    (obj, off)
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
        let err = run("int f(int* a) { return a[5]; }", "f", |mem| {
            vec![RtVal::ptr(mem.alloc_int(&[1, 2]))]
        })
        .unwrap_err();
        assert!(matches!(err, Trap::Mem(MemError::OutOfBounds { .. })));
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
        let mut panic_of = |name: &str, arg: RtVal| {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                machine.call(name, &[arg])
            }))
            .expect_err("the defect panics");
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
        };
        let no_incoming = panic_of("f", RtVal::B(false));
        assert_eq!(no_incoming.as_deref(), Some("phi has no incoming for executed edge"));
        let fell_through = panic_of("g", RtVal::I(1));
        assert_eq!(fell_through.as_deref(), Some("block bb0 fell through without terminator"));
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
