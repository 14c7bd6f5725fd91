//! AST → SSA lowering.
//!
//! Scalars are lowered directly to SSA using the on-the-fly algorithm of
//! Braun et al. ("Simple and Efficient Construction of Static Single
//! Assignment Form", CC 2013): per-block variable definitions, *sealed*
//! blocks, incomplete phis completed at sealing time, and trivial-phi
//! elimination (run here as an end-of-function fixpoint). Arrays stay in
//! memory and are accessed with `gep`/`load`/`store`, exactly like clang's
//! `-O1` output for the benchmark kernels in the paper.
//!
//! Loop shape: `for` loops lower to the canonical
//! `preheader → header(phis, test, condbr) → body… → latch(step, br header)`
//! with a dedicated `exit` block — the shape the paper's Figure 5 constraint
//! specification describes.

use crate::ast::{BinOpKind, CType, Expr, FuncDecl, Program, Span, Stmt, UnOpKind};
use crate::error::CompileError;
use gr_ir::{
    BinOp, BlockId, CmpPred, FunctionBuilder, Module, Opcode, Type, UnOp, ValueId, ValueKind,
};
use std::collections::HashMap;

/// Lowers a parsed program to an SSA [`Module`].
///
/// # Errors
/// Returns a [`CompileError`] for semantic errors (unknown names, type
/// errors, wrong arities).
pub fn lower(program: &Program) -> Result<Module, CompileError> {
    let mut module = Module::new();
    let mut global_ids = HashMap::new();
    for g in &program.globals {
        let elem = ctype_to_ir(g.elem);
        let gid = module.push_global(&g.name, elem, g.size);
        global_ids.insert(g.name.clone(), (gid, elem));
    }
    let mut signatures = HashMap::new();
    for f in &program.functions {
        if crate::is_builtin(&f.name) {
            let message = format!("function `{}` redefines a built-in", f.name);
            return Err(CompileError::at(message, f.span.line, f.span.col));
        }
        let params: Vec<Type> = f.params.iter().map(|(_, t)| ctype_to_ir(*t)).collect();
        if signatures.insert(f.name.clone(), (params, ctype_to_ir(f.ret))).is_some() {
            let message = format!("function `{}` is defined twice", f.name);
            return Err(CompileError::at(message, f.span.line, f.span.col));
        }
    }
    for (name, arity) in crate::BUILTINS {
        let is_int = name.starts_with('i');
        let t = if is_int { Type::Int } else { Type::Float };
        signatures.insert((*name).to_string(), (vec![t; *arity], t));
    }
    for f in &program.functions {
        let func = FunctionLowerer::run(f, &global_ids, &signatures)?;
        module.push_function(func);
    }
    Ok(module)
}

fn ctype_to_ir(t: CType) -> Type {
    match t {
        CType::Int => Type::Int,
        CType::Float => Type::Float,
        CType::PtrInt => Type::PtrInt,
        CType::PtrFloat => Type::PtrFloat,
        CType::Void => Type::Void,
    }
}

/// Unique id for a declared variable (names can shadow across scopes).
type Symbol = usize;

#[derive(Debug, Clone, Copy)]
enum Binding {
    /// Mutable scalar (or pointer) variable, SSA-renamed.
    Scalar { sym: Symbol, ty: Type },
    /// Local array or global: the pointer value itself (immutable binding).
    Array { ptr: ValueId },
}

struct FunctionLowerer<'a> {
    b: FunctionBuilder,
    globals: &'a HashMap<String, (gr_ir::GlobalId, Type)>,
    signatures: &'a HashMap<String, (Vec<Type>, Type)>,
    scopes: Vec<HashMap<String, Binding>>,
    /// Current SSA definition of each symbol per block.
    defs: HashMap<Symbol, HashMap<BlockId, ValueId>>,
    sym_types: Vec<Type>,
    sealed: Vec<bool>,
    incomplete: HashMap<BlockId, Vec<(Symbol, ValueId)>>,
    /// `(continue_target, break_target)` stack.
    loop_stack: Vec<(BlockId, BlockId)>,
    ret_ty: Type,
}

impl<'a> FunctionLowerer<'a> {
    fn run(
        decl: &FuncDecl,
        globals: &'a HashMap<String, (gr_ir::GlobalId, Type)>,
        signatures: &'a HashMap<String, (Vec<Type>, Type)>,
    ) -> Result<gr_ir::Function, CompileError> {
        let params: Vec<(&str, Type)> =
            decl.params.iter().map(|(n, t)| (n.as_str(), ctype_to_ir(*t))).collect();
        let ret_ty = ctype_to_ir(decl.ret);
        let b = FunctionBuilder::new(&decl.name, &params, ret_ty);
        let mut me = FunctionLowerer {
            b,
            globals,
            signatures,
            scopes: vec![HashMap::new()],
            defs: HashMap::new(),
            sym_types: Vec::new(),
            sealed: Vec::new(),
            incomplete: HashMap::new(),
            loop_stack: Vec::new(),
            ret_ty,
        };
        me.note_block_created(); // entry
        me.seal(me.b.current_block());
        // Bind parameters as scalar variables.
        for (i, (name, t)) in params.iter().enumerate() {
            let sym = me.new_symbol(*t);
            let arg = me.b.arg(i);
            me.write_var(sym, me.b.current_block(), arg);
            me.scopes[0].insert((*name).to_string(), Binding::Scalar { sym, ty: *t });
        }
        me.lower_stmts(&decl.body)?;
        if !me.b.current_terminated() {
            if me.ret_ty == Type::Void {
                me.b.ret(None);
            } else {
                let z = me.zero(me.ret_ty);
                me.b.ret(Some(z));
            }
        }
        let mut func = me.b.finish();
        remove_trivial_phis(&mut func);
        Ok(func)
    }

    // ---- SSA machinery -------------------------------------------------

    fn new_symbol(&mut self, ty: Type) -> Symbol {
        self.sym_types.push(ty);
        self.sym_types.len() - 1
    }

    fn note_block_created(&mut self) {
        while self.sealed.len() < self.b.func().blocks.len() {
            self.sealed.push(false);
        }
    }

    fn new_block(&mut self, name: &str) -> BlockId {
        let b = self.b.new_block(name);
        self.note_block_created();
        b
    }

    fn seal(&mut self, block: BlockId) {
        if self.sealed[block.index()] {
            return;
        }
        self.sealed[block.index()] = true;
        if let Some(list) = self.incomplete.remove(&block) {
            for (sym, phi) in list {
                self.add_phi_operands(sym, phi, block);
            }
        }
    }

    fn write_var(&mut self, sym: Symbol, block: BlockId, value: ValueId) {
        self.defs.entry(sym).or_default().insert(block, value);
    }

    fn read_var(&mut self, sym: Symbol, block: BlockId) -> ValueId {
        if let Some(&v) = self.defs.get(&sym).and_then(|m| m.get(&block)) {
            return v;
        }
        self.read_var_recursive(sym, block)
    }

    fn read_var_recursive(&mut self, sym: Symbol, block: BlockId) -> ValueId {
        let val;
        if !self.sealed[block.index()] {
            // Incomplete CFG: place an operandless phi, fill at sealing.
            let saved = self.b.current_block();
            self.b.switch_to(block);
            let phi = self.b.phi(self.sym_types[sym], &[]);
            self.b.switch_to(saved);
            self.incomplete.entry(block).or_default().push((sym, phi));
            val = phi;
        } else {
            let preds = self.b.func().predecessors()[block.index()].clone();
            match preds.len() {
                0 => val = self.zero(self.sym_types[sym]),
                1 => val = self.read_var(sym, preds[0]),
                _ => {
                    // Break potential cycles: write a phi before recursing.
                    let saved = self.b.current_block();
                    self.b.switch_to(block);
                    let phi = self.b.phi(self.sym_types[sym], &[]);
                    self.b.switch_to(saved);
                    self.write_var(sym, block, phi);
                    self.add_phi_operands(sym, phi, block);
                    val = phi;
                }
            }
        }
        self.write_var(sym, block, val);
        val
    }

    fn add_phi_operands(&mut self, sym: Symbol, phi: ValueId, block: BlockId) {
        let preds = self.b.func().predecessors()[block.index()].clone();
        for pred in preds {
            let v = self.read_var(sym, pred);
            self.b.add_phi_incoming(phi, v, pred);
        }
    }

    fn zero(&mut self, ty: Type) -> ValueId {
        match ty {
            Type::Float => self.b.const_float(0.0),
            Type::Bool => self.b.const_bool(false),
            _ => self.b.const_int(0),
        }
    }

    // ---- scopes --------------------------------------------------------

    fn lookup(&self, name: &str) -> Option<Binding> {
        for scope in self.scopes.iter().rev() {
            if let Some(b) = scope.get(name) {
                return Some(*b);
            }
        }
        None
    }

    fn lookup_or_err(&self, name: &str, span: Span) -> Result<Binding, CompileError> {
        self.lookup(name)
            .or_else(|| {
                // Globals are implicitly in scope.
                self.globals.get(name).map(|_| Binding::Array { ptr: ValueId(u32::MAX) })
            })
            .ok_or_else(|| {
                CompileError::at(format!("unknown variable `{name}`"), span.line, span.col)
            })
    }

    /// Pointer value for an array-like name (param, local array, global).
    fn array_ptr(&mut self, name: &str, span: Span) -> Result<ValueId, CompileError> {
        if let Some(binding) = self.lookup(name) {
            match binding {
                Binding::Array { ptr } => return Ok(ptr),
                Binding::Scalar { sym, ty } if ty.is_ptr() => {
                    let cur = self.b.current_block();
                    return Ok(self.read_var(sym, cur));
                }
                Binding::Scalar { .. } => {
                    return Err(CompileError::at(
                        format!("`{name}` is not an array or pointer"),
                        span.line,
                        span.col,
                    ))
                }
            }
        }
        if let Some(&(gid, elem)) = self.globals.get(name) {
            return Ok(self.b.global_ref(gid, elem));
        }
        Err(CompileError::at(format!("unknown array `{name}`"), span.line, span.col))
    }

    // ---- statements ----------------------------------------------------

    fn lower_stmts(&mut self, stmts: &[Stmt]) -> Result<(), CompileError> {
        for s in stmts {
            if self.b.current_terminated() {
                // Unreachable code after return/break/continue: skip.
                break;
            }
            self.lower_stmt(s)?;
        }
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        match stmt {
            Stmt::DeclScalar { name, ty, init, span } => {
                let ty = ctype_to_ir(*ty);
                let sym = self.new_symbol(ty);
                let v = match init {
                    Some(e) => {
                        let v = self.lower_expr(e)?;
                        self.coerce(v, ty, *span)?
                    }
                    None => self.zero(ty),
                };
                let cur = self.b.current_block();
                self.write_var(sym, cur, v);
                self.scopes
                    .last_mut()
                    .expect("scope stack never empty")
                    .insert(name.clone(), Binding::Scalar { sym, ty });
                Ok(())
            }
            Stmt::DeclArray { name, elem, size, .. } => {
                let elem = ctype_to_ir(*elem);
                let size_v = self.b.const_int(*size as i64);
                let ptr = self.b.alloca(elem, size_v);
                self.scopes
                    .last_mut()
                    .expect("scope stack never empty")
                    .insert(name.clone(), Binding::Array { ptr });
                Ok(())
            }
            Stmt::AssignScalar { name, op, value, span } => {
                let binding = self.lookup_or_err(name, *span)?;
                let Binding::Scalar { sym, ty } = binding else {
                    return Err(CompileError::at(
                        format!("cannot assign to array `{name}` without an index"),
                        span.line,
                        span.col,
                    ));
                };
                let rhs = self.lower_expr(value)?;
                let new = match op {
                    None => self.coerce(rhs, ty, *span)?,
                    Some(k) => {
                        let cur = self.b.current_block();
                        let old = self.read_var(sym, cur);
                        let v = self.arith(*k, old, rhs, *span)?;
                        self.coerce(v, ty, *span)?
                    }
                };
                let cur = self.b.current_block();
                self.write_var(sym, cur, new);
                Ok(())
            }
            Stmt::AssignIndex { array, index, op, value, span } => {
                let ptr = self.array_ptr(array, *span)?;
                let elem =
                    self.b.func().value(ptr).ty.elem().ok_or_else(|| {
                        CompileError::at("indexing non-pointer", span.line, span.col)
                    })?;
                let idx = self.lower_expr(index)?;
                let idx = self.coerce(idx, Type::Int, *span)?;
                let addr = self.b.gep(ptr, idx);
                let rhs = self.lower_expr(value)?;
                let new = match op {
                    None => self.coerce(rhs, elem, *span)?,
                    Some(k) => {
                        let old = self.b.load(addr);
                        let v = self.arith(*k, old, rhs, *span)?;
                        self.coerce(v, elem, *span)?
                    }
                };
                self.b.store(new, addr);
                Ok(())
            }
            Stmt::IncDecScalar { name, delta, span } => {
                let binding = self.lookup_or_err(name, *span)?;
                let Binding::Scalar { sym, ty } = binding else {
                    return Err(CompileError::at("cannot increment array", span.line, span.col));
                };
                let cur = self.b.current_block();
                let old = self.read_var(sym, cur);
                let one = match ty {
                    Type::Float => self.b.const_float(*delta as f64),
                    _ => self.b.const_int(*delta),
                };
                let new = self.b.binop(BinOp::Add, old, one);
                let cur = self.b.current_block();
                self.write_var(sym, cur, new);
                Ok(())
            }
            Stmt::IncDecIndex { array, index, delta, span } => {
                let ptr = self.array_ptr(array, *span)?;
                let elem =
                    self.b.func().value(ptr).ty.elem().ok_or_else(|| {
                        CompileError::at("indexing non-pointer", span.line, span.col)
                    })?;
                let idx = self.lower_expr(index)?;
                let idx = self.coerce(idx, Type::Int, *span)?;
                let addr = self.b.gep(ptr, idx);
                let old = self.b.load(addr);
                let one = match elem {
                    Type::Float => self.b.const_float(*delta as f64),
                    _ => self.b.const_int(*delta),
                };
                let new = self.b.binop(BinOp::Add, old, one);
                self.b.store(new, addr);
                Ok(())
            }
            Stmt::If { cond, then_branch, else_branch, .. } => {
                let then_b = self.new_block("if.then");
                let else_b = self.new_block("if.else");
                let merge = self.new_block("if.end");
                self.lower_condition(cond, then_b, else_b)?;
                self.seal(then_b);
                self.seal(else_b);

                self.b.switch_to(then_b);
                self.scopes.push(HashMap::new());
                self.lower_stmts(then_branch)?;
                self.scopes.pop();
                if !self.b.current_terminated() {
                    self.b.br(merge);
                }

                self.b.switch_to(else_b);
                self.scopes.push(HashMap::new());
                self.lower_stmts(else_branch)?;
                self.scopes.pop();
                if !self.b.current_terminated() {
                    self.b.br(merge);
                }

                self.seal(merge);
                self.b.switch_to(merge);
                Ok(())
            }
            Stmt::For { init, cond, step, body, .. } => {
                self.scopes.push(HashMap::new());
                if let Some(init) = init {
                    self.lower_stmt(init)?;
                }
                let header = self.new_block("for.header");
                let body_b = self.new_block("for.body");
                let latch = self.new_block("for.latch");
                let exit = self.new_block("for.exit");
                self.b.br(header);
                // header stays unsealed until the latch branch exists
                self.b.switch_to(header);
                match cond {
                    Some(c) => self.lower_condition(c, body_b, exit)?,
                    None => {
                        self.b.br(body_b);
                    }
                }
                self.seal(body_b);
                self.b.switch_to(body_b);
                self.loop_stack.push((latch, exit));
                self.scopes.push(HashMap::new());
                self.lower_stmts(body)?;
                self.scopes.pop();
                self.loop_stack.pop();
                if !self.b.current_terminated() {
                    self.b.br(latch);
                }
                self.seal(latch);
                self.b.switch_to(latch);
                if let Some(step) = step {
                    self.lower_stmt(step)?;
                }
                self.b.br(header);
                self.seal(header);
                self.seal(exit);
                self.b.switch_to(exit);
                self.scopes.pop();
                Ok(())
            }
            Stmt::While { cond, body, .. } => {
                let header = self.new_block("while.header");
                let body_b = self.new_block("while.body");
                let exit = self.new_block("while.exit");
                self.b.br(header);
                self.b.switch_to(header);
                self.lower_condition(cond, body_b, exit)?;
                self.seal(body_b);
                self.b.switch_to(body_b);
                self.loop_stack.push((header, exit));
                self.scopes.push(HashMap::new());
                self.lower_stmts(body)?;
                self.scopes.pop();
                self.loop_stack.pop();
                if !self.b.current_terminated() {
                    self.b.br(header);
                }
                self.seal(header);
                self.seal(exit);
                self.b.switch_to(exit);
                Ok(())
            }
            Stmt::DoWhile { body, cond, .. } => {
                let body_b = self.new_block("do.body");
                let cond_b = self.new_block("do.cond");
                let exit = self.new_block("do.exit");
                self.b.br(body_b);
                self.b.switch_to(body_b);
                self.loop_stack.push((cond_b, exit));
                self.scopes.push(HashMap::new());
                self.lower_stmts(body)?;
                self.scopes.pop();
                self.loop_stack.pop();
                if !self.b.current_terminated() {
                    self.b.br(cond_b);
                }
                self.seal(cond_b);
                self.b.switch_to(cond_b);
                self.lower_condition(cond, body_b, exit)?;
                self.seal(body_b);
                self.seal(exit);
                self.b.switch_to(exit);
                Ok(())
            }
            Stmt::Return { value, span } => {
                match value {
                    Some(e) => {
                        let v = self.lower_expr(e)?;
                        let v = self.coerce(v, self.ret_ty, *span)?;
                        self.b.ret(Some(v));
                    }
                    None => {
                        if self.ret_ty != Type::Void {
                            return Err(CompileError::at(
                                "missing return value",
                                span.line,
                                span.col,
                            ));
                        }
                        self.b.ret(None);
                    }
                }
                Ok(())
            }
            Stmt::Break(span) => {
                let Some(&(_, brk)) = self.loop_stack.last() else {
                    return Err(CompileError::at("break outside loop", span.line, span.col));
                };
                self.b.br(brk);
                Ok(())
            }
            Stmt::Continue(span) => {
                let Some(&(cont, _)) = self.loop_stack.last() else {
                    return Err(CompileError::at("continue outside loop", span.line, span.col));
                };
                self.b.br(cont);
                Ok(())
            }
            Stmt::Expr(e) => {
                self.lower_expr(e)?;
                Ok(())
            }
            Stmt::Block(stmts) => {
                self.scopes.push(HashMap::new());
                self.lower_stmts(stmts)?;
                self.scopes.pop();
                Ok(())
            }
        }
    }

    // ---- conditions (short-circuit) -------------------------------------

    fn lower_condition(
        &mut self,
        cond: &Expr,
        true_b: BlockId,
        false_b: BlockId,
    ) -> Result<(), CompileError> {
        match cond {
            Expr::Binary { op: BinOpKind::LAnd, lhs, rhs, .. } => {
                let mid = self.new_block("and.rhs");
                self.lower_condition(lhs, mid, false_b)?;
                self.seal(mid);
                self.b.switch_to(mid);
                self.lower_condition(rhs, true_b, false_b)
            }
            Expr::Binary { op: BinOpKind::LOr, lhs, rhs, .. } => {
                let mid = self.new_block("or.rhs");
                self.lower_condition(lhs, true_b, mid)?;
                self.seal(mid);
                self.b.switch_to(mid);
                self.lower_condition(rhs, true_b, false_b)
            }
            Expr::Unary { op: UnOpKind::Not, operand, .. } => {
                self.lower_condition(operand, false_b, true_b)
            }
            _ => {
                let v = self.lower_expr(cond)?;
                let c = self.to_bool(v);
                self.b.cond_br(c, true_b, false_b);
                Ok(())
            }
        }
    }

    /// Coerces a value to a branch condition (named for the C semantics
    /// it implements, not a conversion of `self`).
    #[allow(clippy::wrong_self_convention)]
    fn to_bool(&mut self, v: ValueId) -> ValueId {
        match self.b.func().value(v).ty {
            Type::Bool => v,
            Type::Float => {
                let z = self.b.const_float(0.0);
                self.b.icmp(CmpPred::Ne, v, z)
            }
            _ => {
                let z = self.b.const_int(0);
                self.b.icmp(CmpPred::Ne, v, z)
            }
        }
    }

    // ---- expressions -----------------------------------------------------

    fn lower_expr(&mut self, e: &Expr) -> Result<ValueId, CompileError> {
        match e {
            Expr::IntLit(v, _) => Ok(self.b.const_int(*v)),
            Expr::FloatLit(v, _) => Ok(self.b.const_float(*v)),
            Expr::Var(name, span) => match self.lookup_or_err(name, *span)? {
                Binding::Scalar { sym, .. } => {
                    let cur = self.b.current_block();
                    Ok(self.read_var(sym, cur))
                }
                Binding::Array { .. } => self.array_ptr(name, *span),
            },
            Expr::Index { array, index, span } => {
                let ptr = self.array_ptr(array, *span)?;
                let idx = self.lower_expr(index)?;
                let idx = self.coerce(idx, Type::Int, *span)?;
                let addr = self.b.gep(ptr, idx);
                Ok(self.b.load(addr))
            }
            Expr::Binary { op, lhs, rhs, span } => {
                if matches!(op, BinOpKind::LAnd | BinOpKind::LOr) {
                    // Value position: non-short-circuit boolean arithmetic.
                    let l = self.lower_expr(lhs)?;
                    let r = self.lower_expr(rhs)?;
                    let lb = self.to_bool(l);
                    let rb = self.to_bool(r);
                    let k = if *op == BinOpKind::LAnd { BinOp::And } else { BinOp::Or };
                    return Ok(self.b.binop(k, lb, rb));
                }
                let l = self.lower_expr(lhs)?;
                let r = self.lower_expr(rhs)?;
                self.arith(*op, l, r, *span)
            }
            Expr::Unary { op, operand, span } => {
                // Fold negated literals so `-1` is a constant, not a `neg`
                // instruction (matters for loop-step invariance).
                if *op == UnOpKind::Neg {
                    match **operand {
                        Expr::IntLit(v, _) => return Ok(self.b.const_int(-v)),
                        Expr::FloatLit(v, _) => return Ok(self.b.const_float(-v)),
                        _ => {}
                    }
                }
                let v = self.lower_expr(operand)?;
                match op {
                    UnOpKind::Neg => {
                        if self.b.func().value(v).ty == Type::Bool {
                            return Err(CompileError::at(
                                "cannot negate a boolean",
                                span.line,
                                span.col,
                            ));
                        }
                        Ok(self.b.unop(UnOp::Neg, v))
                    }
                    UnOpKind::Not => {
                        let c = self.to_bool(v);
                        Ok(self.b.unop(UnOp::Not, c))
                    }
                }
            }
            Expr::Call { callee, args, span } => {
                let Some((param_tys, ret)) = self.signatures.get(callee).cloned() else {
                    return Err(CompileError::at(
                        format!("unknown function `{callee}`"),
                        span.line,
                        span.col,
                    ));
                };
                if param_tys.len() != args.len() {
                    return Err(CompileError::at(
                        format!(
                            "`{callee}` expects {} arguments, got {}",
                            param_tys.len(),
                            args.len()
                        ),
                        span.line,
                        span.col,
                    ));
                }
                let mut vals = Vec::with_capacity(args.len());
                for (a, want) in args.iter().zip(&param_tys) {
                    let v = self.lower_expr(a)?;
                    vals.push(self.coerce(v, *want, *span)?);
                }
                Ok(self.b.call(callee, &vals, ret))
            }
            Expr::Cast { ty, operand, span } => {
                let v = self.lower_expr(operand)?;
                self.coerce(v, ctype_to_ir(*ty), *span)
            }
            Expr::Ternary { cond, then_val, else_val, span } => {
                let c = self.lower_expr(cond)?;
                let c = self.to_bool(c);
                let t = self.lower_expr(then_val)?;
                let f = self.lower_expr(else_val)?;
                let (t, f) = self.unify(t, f, *span)?;
                Ok(self.b.select(c, t, f))
            }
        }
    }

    /// Numeric binary operation with C-style int→float promotion.
    fn arith(
        &mut self,
        op: BinOpKind,
        lhs: ValueId,
        rhs: ValueId,
        span: Span,
    ) -> Result<ValueId, CompileError> {
        let (l, r) = self.unify(lhs, rhs, span)?;
        let ty = self.b.func().value(l).ty;
        let bin = |k| Ok::<_, CompileError>(k);
        match op {
            BinOpKind::Add => Ok(self.b.binop(BinOp::Add, l, r)),
            BinOpKind::Sub => Ok(self.b.binop(BinOp::Sub, l, r)),
            BinOpKind::Mul => Ok(self.b.binop(BinOp::Mul, l, r)),
            BinOpKind::Div => Ok(self.b.binop(BinOp::Div, l, r)),
            BinOpKind::Rem => {
                if ty != Type::Int {
                    return Err(CompileError::at("`%` requires integers", span.line, span.col));
                }
                Ok(self.b.binop(BinOp::Rem, l, r))
            }
            BinOpKind::Eq => Ok(self.b.icmp(CmpPred::Eq, l, r)),
            BinOpKind::Ne => Ok(self.b.icmp(CmpPred::Ne, l, r)),
            BinOpKind::Lt => Ok(self.b.icmp(CmpPred::Lt, l, r)),
            BinOpKind::Le => Ok(self.b.icmp(CmpPred::Le, l, r)),
            BinOpKind::Gt => Ok(self.b.icmp(CmpPred::Gt, l, r)),
            BinOpKind::Ge => Ok(self.b.icmp(CmpPred::Ge, l, r)),
            BinOpKind::LAnd | BinOpKind::LOr => {
                let _ = bin(0)?;
                unreachable!("logical ops handled in lower_expr")
            }
        }
    }

    /// Promotes two scalars to a common type (int → float when mixed).
    fn unify(
        &mut self,
        a: ValueId,
        b: ValueId,
        span: Span,
    ) -> Result<(ValueId, ValueId), CompileError> {
        let ta = self.b.func().value(a).ty;
        let tb = self.b.func().value(b).ty;
        if ta == tb {
            return Ok((a, b));
        }
        let to_num = |me: &mut Self, v: ValueId, t: Type| -> ValueId {
            if t == Type::Bool {
                me.b.cast(v, Type::Int)
            } else {
                v
            }
        };
        let a = to_num(self, a, ta);
        let b = to_num(self, b, tb);
        let ta = self.b.func().value(a).ty;
        let tb = self.b.func().value(b).ty;
        if ta == tb {
            return Ok((a, b));
        }
        match (ta, tb) {
            (Type::Float, Type::Int) => {
                let b2 = self.b.cast(b, Type::Float);
                Ok((a, b2))
            }
            (Type::Int, Type::Float) => {
                let a2 = self.b.cast(a, Type::Float);
                Ok((a2, b))
            }
            _ => Err(CompileError::at(
                format!("incompatible operand types {ta} and {tb}"),
                span.line,
                span.col,
            )),
        }
    }

    /// Inserts a cast so `v` has type `want` (int↔float↔bool implicit).
    fn coerce(&mut self, v: ValueId, want: Type, span: Span) -> Result<ValueId, CompileError> {
        let have = self.b.func().value(v).ty;
        if have == want {
            return Ok(v);
        }
        match (have, want) {
            (Type::Int, Type::Float)
            | (Type::Float, Type::Int)
            | (Type::Bool, Type::Int)
            | (Type::Bool, Type::Float) => Ok(self.b.cast(v, want)),
            _ => Err(CompileError::at(
                format!("cannot convert {have} to {want}"),
                span.line,
                span.col,
            )),
        }
    }
}

/// End-of-function trivial-phi elimination: a phi whose operands (ignoring
/// self-references) are all the same value is replaced by that value;
/// repeated to a fixpoint so cascaded trivial phis collapse.
fn remove_trivial_phis(func: &mut gr_ir::Function) {
    let mut replacement: HashMap<ValueId, ValueId> = HashMap::new();
    fn resolve(map: &HashMap<ValueId, ValueId>, mut v: ValueId) -> ValueId {
        while let Some(&n) = map.get(&v) {
            v = n;
        }
        v
    }
    loop {
        let mut changed = false;
        for b in 0..func.blocks.len() {
            let insts = func.blocks[b].insts.clone();
            for inst in insts {
                if replacement.contains_key(&inst) {
                    continue;
                }
                let data = func.value(inst);
                if data.kind.opcode() != Some(&Opcode::Phi) {
                    continue;
                }
                let mut unique: Option<ValueId> = None;
                let mut trivial = true;
                for pair in data.kind.operands().chunks(2) {
                    let v = resolve(&replacement, pair[0]);
                    if v == inst {
                        continue;
                    }
                    match unique {
                        None => unique = Some(v),
                        Some(u) if u == v => {}
                        Some(_) => {
                            trivial = false;
                            break;
                        }
                    }
                }
                if trivial {
                    if let Some(u) = unique {
                        replacement.insert(inst, u);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    if replacement.is_empty() {
        return;
    }
    // Rewrite all operand lists through the replacement map and drop the
    // replaced phis from their blocks.
    for vd in &mut func.values {
        if let ValueKind::Inst { operands, .. } = &mut vd.kind {
            for op in operands.iter_mut() {
                *op = resolve(&replacement, *op);
            }
        }
    }
    for b in &mut func.blocks {
        b.insts.retain(|i| !replacement.contains_key(i));
    }
}

#[cfg(test)]
mod tests {
    use crate::compile;
    use gr_ir::{Opcode, Type};

    fn phis_in(module: &gr_ir::Module, func: &str) -> usize {
        let f = module.function(func).unwrap();
        f.value_ids()
            .filter(|&v| {
                f.value(v).kind.opcode() == Some(&Opcode::Phi) && f.block_of_inst(v).is_some()
            })
            .count()
    }

    #[test]
    fn sum_loop_has_two_phis() {
        let m = compile(
            "float sum(float* a, int n) {
                 float s = 0.0;
                 for (int i = 0; i < n; i++) s += a[i];
                 return s;
             }",
        )
        .unwrap();
        // Exactly the iterator and the accumulator.
        assert_eq!(phis_in(&m, "sum"), 2);
    }

    #[test]
    fn straightline_code_has_no_phis() {
        let m = compile("int f(int a, int b) { int c = a + b; c = c * 2; return c - a; }").unwrap();
        assert_eq!(phis_in(&m, "f"), 0);
    }

    #[test]
    fn conditional_update_creates_merge_phi() {
        let m = compile("int f(int a) { int x = 0; if (a > 0) x = 1; return x; }").unwrap();
        assert_eq!(phis_in(&m, "f"), 1);
    }

    #[test]
    fn if_without_update_creates_no_phi() {
        let m = compile("int f(int* a, int x) { if (x > 0) a[0] = 1; return x; }").unwrap();
        assert_eq!(phis_in(&m, "f"), 0);
    }

    #[test]
    fn histogram_update_loads_and_stores_same_gep() {
        let m = compile(
            "void h(int* bins, int* key, int n) {
                 for (int i = 0; i < n; i++) bins[key[i]]++;
             }",
        )
        .unwrap();
        let f = m.function("h").unwrap();
        // Find the store; its pointer operand must also be the load's.
        let mut found = false;
        for v in f.value_ids() {
            if f.value(v).kind.opcode() == Some(&Opcode::Store) {
                let ptr = f.value(v).kind.operands()[1];
                for u in f.value_ids() {
                    if f.value(u).kind.opcode() == Some(&Opcode::Load)
                        && f.value(u).kind.operands()[0] == ptr
                    {
                        found = true;
                    }
                }
            }
        }
        assert!(found, "histogram load/store must share the gep");
    }

    #[test]
    fn short_circuit_produces_control_flow() {
        let m = compile("int f(int a, int b) { int x = 0; if (a > 0 && b > 0) x = 1; return x; }")
            .unwrap();
        let f = m.function("f").unwrap();
        assert!(f.blocks.len() >= 5, "expected and.rhs block, got {}", f.blocks.len());
    }

    #[test]
    fn while_with_break_and_continue() {
        let m = compile(
            "int f(int n) {
                 int i = 0; int s = 0;
                 while (i < n) {
                     i++;
                     if (i % 2 == 0) continue;
                     if (i > 100) break;
                     s += i;
                 }
                 return s;
             }",
        )
        .unwrap();
        assert!(m.function("f").is_some());
    }

    #[test]
    fn do_while_lowered() {
        let m =
            compile("int f(int n) { int i = 0; do { i++; } while (i < n); return i; }").unwrap();
        assert!(m.function("f").is_some());
    }

    #[test]
    fn globals_are_addressable() {
        let m = compile(
            "float q[10];
             void f(int i) { q[i] = q[i] + 1.0; }",
        )
        .unwrap();
        assert_eq!(m.globals.len(), 1);
        let f = m.function("f").unwrap();
        let has_global_ref =
            f.value_ids().any(|v| matches!(f.value(v).kind, gr_ir::ValueKind::GlobalRef(_)));
        assert!(has_global_ref);
    }

    #[test]
    fn mixed_arithmetic_promotes_to_float() {
        let m = compile("float f(int a, float b) { return a * b; }").unwrap();
        let f = m.function("f").unwrap();
        let has_cast = f.value_ids().any(|v| f.value(v).kind.opcode() == Some(&Opcode::Cast));
        assert!(has_cast);
    }

    #[test]
    fn implicit_float_to_int_on_assignment() {
        // EP benchmark: `l = MAX(fabs(t3), fabs(t4))` truncates to int.
        let m = compile("int f(float x) { int l = fmax(x, 0.0); return l; }").unwrap();
        assert!(m.function("f").is_some());
    }

    #[test]
    fn user_function_calls_typecheck() {
        let m = compile(
            "float helper(float x) { return x * 2.0; }
             float f(float y) { return helper(y) + helper(1.0); }",
        )
        .unwrap();
        assert_eq!(m.functions.len(), 2);
    }

    #[test]
    fn call_arity_mismatch_rejected() {
        let err = compile("float f(float y) { return sqrt(y, y); }").unwrap_err();
        assert!(err.message.contains("expects 1 arguments"), "{err}");
    }

    #[test]
    fn unknown_variable_rejected() {
        let err = compile("int f() { return missing; }").unwrap_err();
        assert!(err.message.contains("unknown variable"), "{err}");
    }

    #[test]
    fn unknown_function_rejected() {
        let err = compile("int f() { return missing(); }").unwrap_err();
        assert!(err.message.contains("unknown function"), "{err}");
    }

    #[test]
    fn rem_on_float_rejected() {
        let err = compile("float f(float x) { return x % 2.0; }").unwrap_err();
        assert!(err.message.contains("requires integers"), "{err}");
    }

    #[test]
    fn code_after_return_is_dropped() {
        let m = compile("int f() { return 1; return 2; }").unwrap();
        let f = m.function("f").unwrap();
        assert_eq!(f.inst_count(), 1);
    }

    #[test]
    fn scoped_shadowing() {
        let m = compile(
            "int f(int x) {
                 int y = x;
                 { int y = 2 * x; y = y + 1; }
                 return y;
             }",
        )
        .unwrap();
        assert!(m.function("f").is_some());
    }

    #[test]
    fn a_redefinition_is_refused() {
        let err = compile("int f(int n) { return n; }\nint f(int n) { return n + 1; }")
            .expect_err("two definitions of `f`");
        assert_eq!(err.message, "function `f` is defined twice");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn a_builtin_cannot_be_redefined() {
        // Built-in calls evaluate as the built-in, and the post-check reads
        // `fmin`/`fmax`/`imin`/`imax` by name, so a user definition under
        // such a name would silently never run.
        let cases = [
            (
                "imax",
                "int imax(int a, int b) { return a + b; }
                 int g(int n) { int m = 0; for (int i = 0; i < n; i++) m = imax(m, i); return m; }",
            ),
            (
                "fmin",
                "float fmin(float a, float b) { return a + b; }
                 float g(float* x, int n) {
                     float m = 0.0;
                     for (int i = 0; i < n; i++) m = fmin(m, x[i]);
                     return m;
                 }",
            ),
            (
                "fmin",
                "float fmin(float a) { return a + 1.0; }
                 float g(float x) { return fmin(x); }",
            ),
        ];
        for (name, src) in cases {
            let err = compile(src).expect_err("a built-in's name is taken");
            assert_eq!(err.message, format!("function `{name}` redefines a built-in"), "{src}");
            let col = u32::try_from(src.find(name).expect("defined on line 1")).unwrap() + 1;
            assert_eq!((err.line, err.col), (1, col), "refused at the name: {src}");
        }
        let err = compile("int f(int n) { return n; }\nint sqrt(int n) { return n; }")
            .expect_err("refused at the definition");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn nested_loops_verify() {
        let m = compile(
            "float f(float* a, int n, int m) {
                 float s = 0.0;
                 for (int i = 0; i < n; i++)
                     for (int j = 0; j < m; j++)
                         s += a[i * m + j];
                 return s;
             }",
        )
        .unwrap();
        assert!(m.function("f").is_some());
    }

    #[test]
    fn local_arrays_alloca() {
        let m = compile(
            "float f(int n) {
                 float tmp[8];
                 for (int i = 0; i < 8; i++) tmp[i] = i;
                 return tmp[0];
             }",
        )
        .unwrap();
        let f = m.function("f").unwrap();
        let allocas = f
            .value_ids()
            .filter(|&v| f.value(v).kind.opcode() == Some(&Opcode::Alloca))
            .count();
        assert_eq!(allocas, 1);
        assert_eq!(f.value(f.arg_values[0]).ty, Type::Int);
    }

    #[test]
    fn ternary_lowered_to_select() {
        let m = compile("float f(float a, float b) { return a > b ? a : b; }").unwrap();
        let f = m.function("f").unwrap();
        let has_select = f.value_ids().any(|v| f.value(v).kind.opcode() == Some(&Opcode::Select));
        assert!(has_select);
    }

    #[test]
    fn ep_kernel_compiles() {
        // Figure 2 of the paper, almost verbatim.
        let m = compile(
            "void ep(float* x, float* q, float* sums, int nk) {
                 float sx = 0.0;
                 float sy = 0.0;
                 for (int i = 0; i < nk; i++) {
                     float x1 = 2.0 * x[2 * i] - 1.0;
                     float x2 = 2.0 * x[2 * i + 1] - 1.0;
                     float t1 = x1 * x1 + x2 * x2;
                     if (t1 <= 1.0) {
                         float t2 = sqrt(-2.0 * log(t1) / t1);
                         float t3 = x1 * t2;
                         float t4 = x2 * t2;
                         int l = fmax(fabs(t3), fabs(t4));
                         q[l] = q[l] + 1.0;
                         sx = sx + t3;
                         sy = sy + t4;
                     }
                 }
                 sums[0] = sx;
                 sums[1] = sy;
             }",
        )
        .unwrap();
        assert!(m.function("ep").is_some());
    }
}
