//! The IR evaluator.

use crate::builtins::eval_builtin;
use crate::memory::{MemBackend, MemError, ObjId};
use crate::profile::Profile;
use crate::value::RtVal;
use gr_ir::{BinOp, BlockId, CmpPred, Function, Module, Opcode, Type, UnOp, ValueId, ValueKind};
use std::collections::HashMap;
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
    /// The fuel limit was exhausted (guards non-terminating programs).
    OutOfFuel,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::Mem(e) => e.fmt(f),
            Trap::DivByZero => f.write_str("integer division by zero"),
            Trap::UnknownFunction(n) => write!(f, "call to unknown function `{n}`"),
            Trap::NoSuchFunction(n) => write!(f, "no function named `{n}`"),
            Trap::OutOfFuel => f.write_str("fuel exhausted"),
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
/// `__parrun_*` intrinsics). Returns `None` to decline. The lifetime allows
/// handlers to capture the module they execute chunks from.
pub type IntrinsicHandler<'m, M> =
    dyn Fn(&str, &[RtVal], &mut M) -> Option<Result<Option<RtVal>, Trap>> + Send + Sync + 'm;

/// The interpreter: a module plus a memory backend.
pub struct Machine<'m, M: MemBackend = crate::memory::Memory> {
    module: &'m Module,
    /// The memory backend (public so harnesses can inspect results).
    pub mem: M,
    fn_index: HashMap<&'m str, usize>,
    /// Optional profiling (enable with [`Machine::enable_profile`]).
    pub profile: Option<Profile>,
    fuel: u64,
    handler: Option<Arc<IntrinsicHandler<'m, M>>>,
}

impl<'m, M: MemBackend> Machine<'m, M> {
    /// Creates a machine over `module` with the given memory.
    #[must_use]
    pub fn new(module: &'m Module, mem: M) -> Machine<'m, M> {
        let fn_index =
            module.functions.iter().enumerate().map(|(i, f)| (f.name.as_str(), i)).collect();
        Machine { module, mem, fn_index, profile: None, fuel: u64::MAX, handler: None }
    }

    /// Limits execution to `fuel` instructions.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
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
        let idx = *self.fn_index.get(name).ok_or_else(|| Trap::NoSuchFunction(name.to_string()))?;
        self.exec_function(idx, args)
    }

    fn exec_function(&mut self, idx: usize, args: &[RtVal]) -> Result<Option<RtVal>, Trap> {
        let func: &Function = &self.module.functions[idx];
        let mut frame: Vec<RtVal> = vec![RtVal::Undef; func.values.len()];
        // Pre-populate non-instruction values.
        for v in func.value_ids() {
            match &func.value(v).kind {
                ValueKind::ConstInt(c) => frame[v.index()] = RtVal::I(*c),
                ValueKind::ConstFloat(c) => frame[v.index()] = RtVal::F(*c),
                ValueKind::ConstBool(c) => frame[v.index()] = RtVal::B(*c),
                ValueKind::Argument(i) => frame[v.index()] = args[*i],
                ValueKind::GlobalRef(g) => frame[v.index()] = RtVal::ptr(ObjId(g.0)),
                _ => {}
            }
        }
        let mut cur = func.entry();
        let mut prev: Option<BlockId> = None;
        let nblocks = func.blocks.len();
        // Scratch reused by every block and call of this frame.
        let mut phi_updates: Vec<(ValueId, RtVal)> = Vec::new();
        let mut call_args: Vec<RtVal> = Vec::new();
        loop {
            if let Some(p) = self.profile.as_mut() {
                p.record(idx, cur, nblocks);
            }
            let insts = &func.block(cur).insts;
            // Phase 1: evaluate all phis against the incoming edge
            // simultaneously (SSA parallel-copy semantics).
            phi_updates.clear();
            let mut first_non_phi = 0;
            for (i, &inst) in insts.iter().enumerate() {
                let data = func.value(inst);
                if data.kind.opcode() != Some(&Opcode::Phi) {
                    first_non_phi = i;
                    break;
                }
                first_non_phi = i + 1;
                let from = prev.expect("phi in entry block");
                let from_label = func.block(from).label;
                let ops = data.kind.operands();
                let mut chosen = None;
                for pair in ops.chunks(2) {
                    if pair[1] == from_label {
                        chosen = Some(frame[pair[0].index()]);
                        break;
                    }
                }
                let val = chosen.expect("phi has no incoming for executed edge");
                phi_updates.push((inst, val));
            }
            for &(inst, val) in &phi_updates {
                frame[inst.index()] = val;
            }
            // Phase 2: straight-line execution.
            let mut next: Option<BlockId> = None;
            for &inst in &insts[first_non_phi..] {
                if self.fuel == 0 {
                    return Err(Trap::OutOfFuel);
                }
                self.fuel -= 1;
                let data = func.value(inst);
                let ValueKind::Inst { opcode, operands } = &data.kind else { unreachable!() };
                let get = |v: ValueId| frame[v.index()];
                match opcode {
                    Opcode::Phi => unreachable!("phis are grouped at block start"),
                    Opcode::Bin(op) => {
                        frame[inst.index()] = eval_bin(*op, get(operands[0]), get(operands[1]))?;
                    }
                    Opcode::Un(op) => {
                        frame[inst.index()] = match (op, get(operands[0])) {
                            (UnOp::Neg, RtVal::I(v)) => RtVal::I(v.wrapping_neg()),
                            (UnOp::Neg, RtVal::F(v)) => RtVal::F(-v),
                            (UnOp::Not, RtVal::B(v)) => RtVal::B(!v),
                            (op, v) => panic!("bad unop {op:?} on {v:?}"),
                        };
                    }
                    Opcode::Cmp(pred) => {
                        frame[inst.index()] =
                            RtVal::B(eval_cmp(*pred, get(operands[0]), get(operands[1])));
                    }
                    Opcode::Br => {
                        next = Some(func.block_of_label(operands[0]));
                    }
                    Opcode::CondBr => {
                        let c = get(operands[0]).as_b();
                        let target = if c { operands[1] } else { operands[2] };
                        next = Some(func.block_of_label(target));
                    }
                    Opcode::Ret => {
                        return Ok(operands.first().map(|&v| get(v)));
                    }
                    Opcode::Load => {
                        let RtVal::P { obj, off } = get(operands[0]) else {
                            panic!("load through non-pointer")
                        };
                        frame[inst.index()] = match data.ty {
                            Type::Int => RtVal::I(self.mem.load_i(obj, off)?),
                            _ => RtVal::F(self.mem.load_f(obj, off)?),
                        };
                    }
                    Opcode::Store => {
                        let RtVal::P { obj, off } = get(operands[1]) else {
                            panic!("store through non-pointer")
                        };
                        match get(operands[0]) {
                            RtVal::I(v) => self.mem.store_i(obj, off, v)?,
                            RtVal::F(v) => self.mem.store_f(obj, off, v)?,
                            RtVal::B(v) => self.mem.store_i(obj, off, i64::from(v))?,
                            other => panic!("cannot store {other:?}"),
                        }
                    }
                    Opcode::Gep => {
                        let RtVal::P { obj, off } = get(operands[0]) else {
                            panic!("gep on non-pointer")
                        };
                        let idx = get(operands[1]).as_i();
                        frame[inst.index()] = RtVal::P { obj, off: off.wrapping_add(idx) };
                    }
                    Opcode::Call(name) => {
                        call_args.clear();
                        call_args.extend(operands.iter().map(|&v| get(v)));
                        let result = self.dispatch_call(name, &call_args)?;
                        if data.ty != Type::Void {
                            frame[inst.index()] = coerce(result.unwrap_or(RtVal::Undef), data.ty);
                        }
                    }
                    Opcode::Cast => {
                        frame[inst.index()] = coerce(get(operands[0]), data.ty);
                    }
                    Opcode::Select => {
                        let c = get(operands[0]).as_b();
                        frame[inst.index()] = if c { get(operands[1]) } else { get(operands[2]) };
                    }
                    Opcode::Alloca => {
                        let len = get(operands[0]).as_i().max(0) as usize;
                        let elem = data.ty.elem().expect("alloca yields pointer");
                        let obj = self.mem.alloc(elem, len);
                        frame[inst.index()] = RtVal::ptr(obj);
                    }
                }
            }
            match next {
                Some(n) => {
                    prev = Some(cur);
                    cur = n;
                }
                None => panic!("block {cur} fell through without terminator"),
            }
        }
    }

    fn dispatch_call(&mut self, name: &str, args: &[RtVal]) -> Result<Option<RtVal>, Trap> {
        if let Some(v) = eval_builtin(name, args) {
            return Ok(Some(v));
        }
        if let Some(&idx) = self.fn_index.get(name) {
            return self.exec_function(idx, args);
        }
        if let Some(h) = self.handler.clone() {
            if let Some(r) = h(name, args, &mut self.mem) {
                return r;
            }
        }
        Err(Trap::UnknownFunction(name.to_string()))
    }
}

fn eval_bin(op: BinOp, a: RtVal, b: RtVal) -> Result<RtVal, Trap> {
    Ok(match (a, b) {
        (RtVal::I(x), RtVal::I(y)) => RtVal::I(match op {
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
        }),
        (RtVal::F(x), RtVal::F(y)) => RtVal::F(match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
            other => panic!("float {other} not supported"),
        }),
        (RtVal::B(x), RtVal::B(y)) => RtVal::B(match op {
            BinOp::And => x && y,
            BinOp::Or => x || y,
            BinOp::Xor => x ^ y,
            other => panic!("bool {other} not supported"),
        }),
        (a, b) => panic!("mixed binop operands {a:?} {b:?}"),
    })
}

fn eval_cmp(pred: CmpPred, a: RtVal, b: RtVal) -> bool {
    match (a, b) {
        (RtVal::I(x), RtVal::I(y)) => match pred {
            CmpPred::Eq => x == y,
            CmpPred::Ne => x != y,
            CmpPred::Lt => x < y,
            CmpPred::Le => x <= y,
            CmpPred::Gt => x > y,
            CmpPred::Ge => x >= y,
        },
        (RtVal::F(x), RtVal::F(y)) => match pred {
            CmpPred::Eq => x == y,
            CmpPred::Ne => x != y,
            CmpPred::Lt => x < y,
            CmpPred::Le => x <= y,
            CmpPred::Gt => x > y,
            CmpPred::Ge => x >= y,
        },
        (RtVal::B(x), RtVal::B(y)) => match pred {
            CmpPred::Eq => x == y,
            CmpPred::Ne => x != y,
            _ => panic!("ordered comparison on bools"),
        },
        (a, b) => panic!("mixed cmp operands {a:?} {b:?}"),
    }
}

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
    fn fuel_limits_runaway_loops() {
        let m = gr_frontend::compile("void f() { while (1 > 0) { } }").unwrap();
        let mem = Memory::new(&m);
        let mut machine = Machine::new(&m, mem);
        machine.set_fuel(10_000);
        assert_eq!(machine.call("f", &[]), Err(Trap::OutOfFuel));
    }

    #[test]
    fn unknown_function_traps_without_handler() {
        let err = run("int f() { return 0; }", "g", |_| vec![]).unwrap_err();
        assert_eq!(err, Trap::NoSuchFunction("g".into()));
    }

    #[test]
    fn handler_intercepts_intrinsics() {
        let m = gr_frontend::compile("int f() { return 0; }").unwrap();
        let mem = Memory::new(&m);
        let mut machine = Machine::new(&m, mem);
        machine.set_handler(Arc::new(|name: &str, args: &[RtVal], _mem: &mut Memory| {
            (name == "__magic").then(|| Ok(Some(RtVal::I(args[0].as_i() * 2))))
        }));
        // No IR calls __magic here; invoke dispatch through a module with one.
        let m2 = gr_frontend::compile("int f() { return 0; }").unwrap();
        let _ = m2;
        // Direct check of the dispatch path:
        let r = machine.dispatch_call("__magic", &[RtVal::I(21)]).unwrap();
        assert_eq!(r, Some(RtVal::I(42)));
        let e = machine.dispatch_call("__other", &[]).unwrap_err();
        assert!(matches!(e, Trap::UnknownFunction(_)));
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
