//! Atomic constraints and the matching context they are evaluated in.
//!
//! Each atom supports two operations, mirroring the `Constraint` interface
//! of the paper's implementation (§3.4):
//!
//! * [`Atom::check`] — decide the atom under a full assignment of its
//!   labels;
//! * [`Atom::enumerate`] — generate candidate values for one yet-unassigned
//!   label given the others (the paper's `next_solution`); atoms that
//!   cannot generate return `None` and act as filters only.

use crate::constraint::Label;
use gr_analysis::dataflow::{
    computed_only_from, forward_closure_in_loop, root_object, DominanceQuery,
};
use gr_analysis::invariant::Invariance;
use gr_analysis::loops::LoopId;
use gr_analysis::Analyses;
use gr_ir::{BlockId, CmpPred, Function, Module, Opcode, ValueId, ValueKind};
use std::collections::HashMap;

/// Coarse opcode classes used by [`Atom::Opcode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Phi node.
    Phi,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Pointer arithmetic.
    Gep,
    /// Conditional branch.
    CondBr,
    /// Comparison.
    Cmp,
    /// Integer/float addition.
    Add,
    /// Any binary arithmetic.
    Bin,
    /// Select.
    Select,
}

fn classify(op: &Opcode) -> Vec<OpClass> {
    match op {
        Opcode::Phi => vec![OpClass::Phi],
        Opcode::Load => vec![OpClass::Load],
        Opcode::Store => vec![OpClass::Store],
        Opcode::Gep => vec![OpClass::Gep],
        Opcode::CondBr => vec![OpClass::CondBr],
        Opcode::Cmp(_) => vec![OpClass::Cmp],
        Opcode::Bin(gr_ir::BinOp::Add) => vec![OpClass::Add, OpClass::Bin],
        Opcode::Bin(_) => vec![OpClass::Bin],
        Opcode::Select => vec![OpClass::Select],
        Opcode::Br
        | Opcode::Call(_)
        | Opcode::Cast
        | Opcode::Alloca
        | Opcode::Un(_)
        | Opcode::Ret => vec![],
    }
}

/// Everything an atom needs to evaluate: the function, its analyses, and
/// precomputed indexes (opcode buckets, use lists, loop-header map).
pub struct MatchCtx<'a> {
    /// Module (for globals, callee lookups).
    pub module: &'a Module,
    /// Function being searched.
    pub func: &'a Function,
    /// Per-function analyses.
    pub analyses: &'a Analyses,
    /// Loop-invariance oracle.
    pub invariance: Invariance<'a>,
    /// Instruction → block map.
    pub inst_blocks: HashMap<ValueId, BlockId>,
    buckets: HashMap<OpClass, Vec<ValueId>>,
    /// Block-label value → loop id for loop headers.
    pub header_loops: HashMap<ValueId, LoopId>,
    /// Integer constant → interned values (the frontend interns constants,
    /// so the list is almost always a singleton).
    const_ints: HashMap<i64, Vec<ValueId>>,
}

impl<'a> MatchCtx<'a> {
    /// Builds the context (cheap; analyses are computed by the caller).
    #[must_use]
    pub fn new(module: &'a Module, func: &'a Function, analyses: &'a Analyses) -> MatchCtx<'a> {
        // Only instructions actually placed in blocks participate (the
        // arena may hold dead values, e.g. eliminated trivial phis).
        let mut buckets: HashMap<OpClass, Vec<ValueId>> = HashMap::new();
        for b in func.block_ids() {
            for &v in &func.block(b).insts {
                if let Some(op) = func.value(v).kind.opcode() {
                    for class in classify(op) {
                        buckets.entry(class).or_default().push(v);
                    }
                }
            }
        }
        let mut header_loops = HashMap::new();
        for (i, l) in analyses.loops.loops().iter().enumerate() {
            header_loops.insert(func.block(l.header).label, LoopId(i as u32));
        }
        let mut const_ints: HashMap<i64, Vec<ValueId>> = HashMap::new();
        for v in func.value_ids() {
            if let ValueKind::ConstInt(c) = func.value(v).kind {
                const_ints.entry(c).or_default().push(v);
            }
        }
        let invariance = Invariance::new(func, &analyses.loops, &analyses.purity);
        MatchCtx {
            module,
            func,
            analyses,
            invariance,
            inst_blocks: func.inst_blocks(),
            buckets,
            header_loops,
            const_ints,
        }
    }

    /// Values in an opcode class.
    #[must_use]
    pub fn bucket(&self, class: OpClass) -> &[ValueId] {
        self.buckets.get(&class).map_or(&[], Vec::as_slice)
    }

    /// Resolves a block-label value to its block.
    #[must_use]
    pub fn as_block(&self, v: ValueId) -> Option<BlockId> {
        match self.func.value(v).kind {
            ValueKind::Block(b) => Some(b),
            _ => None,
        }
    }

    /// The loop whose header has label value `v`.
    #[must_use]
    pub fn loop_of_header(&self, v: ValueId) -> Option<LoopId> {
        self.header_loops.get(&v).copied()
    }

    /// Whether block `b` belongs to the loop with header-label `header`.
    #[must_use]
    pub fn block_in_loop(&self, b: BlockId, header: ValueId) -> bool {
        self.loop_of_header(header)
            .is_some_and(|lid| self.analyses.loops.get(lid).contains(b))
    }

    fn dominance_query(&'a self, lid: LoopId) -> DominanceQuery<'a> {
        DominanceQuery {
            func: self.func,
            forest: &self.analyses.loops,
            cdeps: &self.analyses.cdeps,
            invariance: &self.invariance,
            purity: &self.analyses.purity,
            lid,
            inst_blocks: &self.inst_blocks,
        }
    }
}

/// An atomic constraint over labelled IR values.
#[derive(Debug, Clone)]
pub enum Atom {
    /// The value is the header block of a natural loop.
    IsLoopHeader(Label),
    /// The value is an instruction of the given class.
    Opcode {
        /// Instruction label.
        l: Label,
        /// Required class.
        class: OpClass,
    },
    /// The value has a scalar (int/float/bool) type.
    TypeScalar(Label),
    /// The value has integer type.
    TypeInt(Label),
    /// `phi` has exactly `n` incoming edges.
    PhiArity {
        /// Phi label.
        phi: Label,
        /// Required incoming-edge count.
        n: usize,
    },
    /// `value` appears somewhere in `inst`'s operand list (a weaker,
    /// generator-friendly form of [`Atom::OperandIs`]).
    OperandOf {
        /// Instruction label.
        inst: Label,
        /// Operand value label.
        value: Label,
    },
    /// `inst`'s operand at `index` is `value`.
    OperandIs {
        /// Instruction label.
        inst: Label,
        /// Operand index.
        index: usize,
        /// Operand value label.
        value: Label,
    },
    /// `phi` has the incoming pair `(value, block)`.
    PhiIncoming {
        /// Phi label.
        phi: Label,
        /// Incoming value label.
        value: Label,
        /// Incoming block label.
        block: Label,
    },
    /// The two labels bind distinct values.
    NotEqual {
        /// First label.
        a: Label,
        /// Second label.
        b: Label,
    },
    /// The two labels bind the same value. Mainly useful inside `Or`
    /// branches to pin labels a branch does not otherwise constrain (e.g.
    /// the select form of argmin/argmax pins the diamond's block labels),
    /// keeping every disjunctive shape generator-friendly.
    Equal {
        /// First label.
        a: Label,
        /// Second label.
        b: Label,
    },
    /// Instruction `inst` resides in block `block`.
    BlockOf {
        /// Instruction label.
        inst: Label,
        /// Block label.
        block: Label,
    },
    /// CFG edge from block `from` to block `to`.
    CfgEdge {
        /// Source block label.
        from: Label,
        /// Target block label.
        to: Label,
    },
    /// Block `a` dominates block `b`.
    Dominates {
        /// Dominator.
        a: Label,
        /// Dominated.
        b: Label,
    },
    /// Block `a` post-dominates block `b`.
    Postdominates {
        /// Post-dominator.
        a: Label,
        /// Post-dominated.
        b: Label,
    },
    /// Block `block` is inside the loop with header `header`.
    InLoopBlock {
        /// Block label.
        block: Label,
        /// Loop-header label.
        header: Label,
    },
    /// Block `block` is outside the loop with header `header`.
    NotInLoopBlock {
        /// Block label.
        block: Label,
        /// Loop-header label.
        header: Label,
    },
    /// Instruction `inst` is inside the loop with header `header`.
    InLoopInst {
        /// Instruction label.
        inst: Label,
        /// Loop-header label.
        header: Label,
    },
    /// The innermost loop containing `inst` is exactly the loop with header
    /// `header` (the instruction executes once per iteration, not inside a
    /// nested loop).
    AnchoredTo {
        /// Instruction label.
        inst: Label,
        /// Loop-header label.
        header: Label,
    },
    /// The value is loop-invariant with respect to the loop at `header`
    /// (the paper's "constant within the loop": constants, arguments, and
    /// values defined before the loop).
    InvariantIn {
        /// Value label.
        value: Label,
        /// Loop-header label.
        header: Label,
    },
    /// Generalized graph domination (paper §3.1.2): every data-flow and
    /// control-dominance path from `output` terminates in one of `allowed`,
    /// the `iterator` (address context only), a loop-invariant value, or a
    /// load from memory the loop never writes.
    ComputedOnlyFrom {
        /// Output value label.
        output: Label,
        /// Loop-header label.
        header: Label,
        /// Induction-variable label (allowed in address context).
        iterator: Label,
        /// Always-allowed origin labels.
        allowed: Vec<Label>,
    },
    /// Forward-confinement: inside the loop, `source` may feed only pure
    /// scalar computation (and the values bound to `terminals`); it must
    /// not influence stores, branches, addresses or impure calls.
    UsesConfinedTo {
        /// Source value label.
        source: Label,
        /// Loop-header label.
        header: Label,
        /// Instruction labels that are allowed consumers.
        terminals: Vec<Label>,
    },
    /// Within the loop, the memory object rooted at `ptr` is accessed only
    /// by the instructions bound to `allowed`.
    OnlyObjectAccesses {
        /// Pointer value label (the object root is derived from it).
        ptr: Label,
        /// Loop-header label.
        header: Label,
        /// Permitted accessor instruction labels.
        allowed: Vec<Label>,
    },
    /// The loop at `header` has exactly `n` exit edges (CFG edges from an
    /// in-loop block to an out-of-loop block). A canonical counted loop
    /// has one; an early-exit loop with a single guarded `break` has two.
    LoopExitEdges {
        /// Loop-header label.
        header: Label,
        /// Required exit-edge count.
        n: usize,
    },
    /// Every instruction inside the loop at `header` is free of side
    /// effects: no stores, no allocas, no returns, and only pure calls.
    /// This is the speculation-safety condition of the early-exit idioms —
    /// iterations past the sequential exit point may be executed and
    /// discarded by the parallel search runtime.
    PureInLoop {
        /// Loop-header label.
        header: Label,
    },
    /// The block contains nothing but its terminator (a trampoline, e.g.
    /// the `break` arm of a guarded early exit — any value it forwards to
    /// exit phis is computed before the guard branches).
    OnlyTerminator {
        /// Block label.
        block: Label,
    },
    /// The value is a comparison with exactly the given predicate (the raw
    /// IR predicate; arm/operand normalization is post-check business).
    CmpPredIs {
        /// Comparison instruction label.
        l: Label,
        /// Required predicate.
        pred: CmpPred,
    },
    /// The value is the integer constant `value` (pins exit values of
    /// boolean short-circuit idioms: any-of breaks to 1 from a default of
    /// 0, all-of the other way around).
    IsConstInt {
        /// Value label.
        l: Label,
        /// Required constant.
        value: i64,
    },
    /// The value is a *negative* integer constant. Pins downward
    /// iteration for find-last: a loop scanning from the high end carries
    /// a known negative induction step, which is what distinguishes "the
    /// last matching index" from find-first's "first matching index"
    /// purely in the constraint language.
    ConstIntNegative(Label),
    /// The two labels bind headers of counted loops with the *same
    /// iteration space*: identical initial value, step and bound (value
    /// identity — the frontend interns constants, and shared runtime
    /// bounds are shared SSA values) and the same normalized continue
    /// predicate. The cross-loop condition of map-reduce fusion: the
    /// consumer must visit exactly the indices the producer wrote.
    SameTripCount {
        /// First loop header.
        h1: Label,
        /// Second loop header.
        h2: Label,
    },
    /// Every block on a CFG path from `from` to `to` (both inclusive) is
    /// free of side effects: no stores, no allocas, and only pure calls.
    /// Vacuously true when `to` is unreachable from `from`. Fusing two
    /// loops moves the producer's work past this region, which is only
    /// sound when nothing here writes memory the producer reads.
    NoInterveningWrites {
        /// First block of the region (the producer loop's exit).
        from: Label,
        /// Last block of the region (the consumer loop's preheader).
        to: Label,
    },
    /// **Function-wide** object confinement: the memory object rooted at
    /// `ptr` is accessed — loaded, stored, or passed to a call — only by
    /// the instructions bound to `allowed`, anywhere in the function (the
    /// loop-scoped sibling is [`Atom::OnlyObjectAccesses`]). Pins the
    /// fusion intermediate: an array consumed *only* by its reduction can
    /// be elided entirely once the loops fuse.
    OnlyConsumedBy {
        /// Pointer value label (the object root is derived from it).
        ptr: Label,
        /// Permitted accessor instruction labels.
        allowed: Vec<Label>,
    },
}

impl Atom {
    /// The atom's variant name, used as the prune-reason key in trace
    /// counters (`solver.prunes{<kind>}`).
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            Atom::IsLoopHeader(..) => "IsLoopHeader",
            Atom::Opcode { .. } => "Opcode",
            Atom::TypeScalar(..) => "TypeScalar",
            Atom::TypeInt(..) => "TypeInt",
            Atom::PhiArity { .. } => "PhiArity",
            Atom::OperandOf { .. } => "OperandOf",
            Atom::OperandIs { .. } => "OperandIs",
            Atom::PhiIncoming { .. } => "PhiIncoming",
            Atom::NotEqual { .. } => "NotEqual",
            Atom::Equal { .. } => "Equal",
            Atom::BlockOf { .. } => "BlockOf",
            Atom::CfgEdge { .. } => "CfgEdge",
            Atom::Dominates { .. } => "Dominates",
            Atom::Postdominates { .. } => "Postdominates",
            Atom::InLoopBlock { .. } => "InLoopBlock",
            Atom::NotInLoopBlock { .. } => "NotInLoopBlock",
            Atom::InLoopInst { .. } => "InLoopInst",
            Atom::AnchoredTo { .. } => "AnchoredTo",
            Atom::InvariantIn { .. } => "InvariantIn",
            Atom::ComputedOnlyFrom { .. } => "ComputedOnlyFrom",
            Atom::UsesConfinedTo { .. } => "UsesConfinedTo",
            Atom::OnlyObjectAccesses { .. } => "OnlyObjectAccesses",
            Atom::LoopExitEdges { .. } => "LoopExitEdges",
            Atom::PureInLoop { .. } => "PureInLoop",
            Atom::OnlyTerminator { .. } => "OnlyTerminator",
            Atom::CmpPredIs { .. } => "CmpPredIs",
            Atom::IsConstInt { .. } => "IsConstInt",
            Atom::ConstIntNegative(..) => "ConstIntNegative",
            Atom::SameTripCount { .. } => "SameTripCount",
            Atom::NoInterveningWrites { .. } => "NoInterveningWrites",
            Atom::OnlyConsumedBy { .. } => "OnlyConsumedBy",
        }
    }

    /// All labels this atom mentions.
    #[must_use]
    pub fn labels(&self) -> Vec<Label> {
        match self {
            Atom::IsLoopHeader(l) | Atom::TypeScalar(l) | Atom::TypeInt(l) => vec![*l],
            Atom::Opcode { l, .. } | Atom::CmpPredIs { l, .. } | Atom::IsConstInt { l, .. } => {
                vec![*l]
            }
            Atom::ConstIntNegative(l) => vec![*l],
            Atom::LoopExitEdges { header, .. } => vec![*header],
            Atom::PureInLoop { header } => vec![*header],
            Atom::OnlyTerminator { block } => vec![*block],
            Atom::PhiArity { phi, .. } => vec![*phi],
            Atom::OperandOf { inst, value } => vec![*inst, *value],
            Atom::OperandIs { inst, value, .. } => vec![*inst, *value],
            Atom::PhiIncoming { phi, value, block } => vec![*phi, *value, *block],
            Atom::NotEqual { a, b }
            | Atom::Equal { a, b }
            | Atom::BlockOf { inst: a, block: b }
            | Atom::CfgEdge { from: a, to: b }
            | Atom::Dominates { a, b }
            | Atom::Postdominates { a, b }
            | Atom::InLoopBlock { block: a, header: b }
            | Atom::NotInLoopBlock { block: a, header: b }
            | Atom::InLoopInst { inst: a, header: b }
            | Atom::AnchoredTo { inst: a, header: b }
            | Atom::InvariantIn { value: a, header: b } => vec![*a, *b],
            Atom::SameTripCount { h1: a, h2: b } | Atom::NoInterveningWrites { from: a, to: b } => {
                vec![*a, *b]
            }
            Atom::OnlyConsumedBy { ptr, allowed } => {
                let mut v = vec![*ptr];
                v.extend(allowed.iter().copied());
                v
            }
            Atom::ComputedOnlyFrom { output, header, iterator, allowed } => {
                let mut v = vec![*output, *header, *iterator];
                v.extend(allowed.iter().copied());
                v
            }
            Atom::UsesConfinedTo { source, header, terminals } => {
                let mut v = vec![*source, *header];
                v.extend(terminals.iter().copied());
                v
            }
            Atom::OnlyObjectAccesses { ptr, header, allowed } => {
                let mut v = vec![*ptr, *header];
                v.extend(allowed.iter().copied());
                v
            }
        }
    }

    /// Clones the atom with every mentioned label rewritten through `f`
    /// (structure and parameters untouched). Used to compare stacked
    /// prefix instances modulo their label offset.
    #[must_use]
    pub fn map_labels(&self, f: &dyn Fn(Label) -> Label) -> Atom {
        match self {
            Atom::IsLoopHeader(l) => Atom::IsLoopHeader(f(*l)),
            Atom::TypeScalar(l) => Atom::TypeScalar(f(*l)),
            Atom::TypeInt(l) => Atom::TypeInt(f(*l)),
            Atom::ConstIntNegative(l) => Atom::ConstIntNegative(f(*l)),
            Atom::Opcode { l, class } => Atom::Opcode { l: f(*l), class: *class },
            Atom::CmpPredIs { l, pred } => Atom::CmpPredIs { l: f(*l), pred: *pred },
            Atom::IsConstInt { l, value } => Atom::IsConstInt { l: f(*l), value: *value },
            Atom::LoopExitEdges { header, n } => Atom::LoopExitEdges { header: f(*header), n: *n },
            Atom::PureInLoop { header } => Atom::PureInLoop { header: f(*header) },
            Atom::OnlyTerminator { block } => Atom::OnlyTerminator { block: f(*block) },
            Atom::PhiArity { phi, n } => Atom::PhiArity { phi: f(*phi), n: *n },
            Atom::OperandOf { inst, value } => Atom::OperandOf { inst: f(*inst), value: f(*value) },
            Atom::OperandIs { inst, index, value } => {
                Atom::OperandIs { inst: f(*inst), index: *index, value: f(*value) }
            }
            Atom::PhiIncoming { phi, value, block } => {
                Atom::PhiIncoming { phi: f(*phi), value: f(*value), block: f(*block) }
            }
            Atom::NotEqual { a, b } => Atom::NotEqual { a: f(*a), b: f(*b) },
            Atom::Equal { a, b } => Atom::Equal { a: f(*a), b: f(*b) },
            Atom::BlockOf { inst, block } => Atom::BlockOf { inst: f(*inst), block: f(*block) },
            Atom::CfgEdge { from, to } => Atom::CfgEdge { from: f(*from), to: f(*to) },
            Atom::Dominates { a, b } => Atom::Dominates { a: f(*a), b: f(*b) },
            Atom::Postdominates { a, b } => Atom::Postdominates { a: f(*a), b: f(*b) },
            Atom::InLoopBlock { block, header } => {
                Atom::InLoopBlock { block: f(*block), header: f(*header) }
            }
            Atom::NotInLoopBlock { block, header } => {
                Atom::NotInLoopBlock { block: f(*block), header: f(*header) }
            }
            Atom::InLoopInst { inst, header } => {
                Atom::InLoopInst { inst: f(*inst), header: f(*header) }
            }
            Atom::AnchoredTo { inst, header } => {
                Atom::AnchoredTo { inst: f(*inst), header: f(*header) }
            }
            Atom::InvariantIn { value, header } => {
                Atom::InvariantIn { value: f(*value), header: f(*header) }
            }
            Atom::ComputedOnlyFrom { output, header, iterator, allowed } => {
                Atom::ComputedOnlyFrom {
                    output: f(*output),
                    header: f(*header),
                    iterator: f(*iterator),
                    allowed: allowed.iter().map(|l| f(*l)).collect(),
                }
            }
            Atom::UsesConfinedTo { source, header, terminals } => Atom::UsesConfinedTo {
                source: f(*source),
                header: f(*header),
                terminals: terminals.iter().map(|l| f(*l)).collect(),
            },
            Atom::OnlyObjectAccesses { ptr, header, allowed } => Atom::OnlyObjectAccesses {
                ptr: f(*ptr),
                header: f(*header),
                allowed: allowed.iter().map(|l| f(*l)).collect(),
            },
            Atom::SameTripCount { h1, h2 } => Atom::SameTripCount { h1: f(*h1), h2: f(*h2) },
            Atom::NoInterveningWrites { from, to } => {
                Atom::NoInterveningWrites { from: f(*from), to: f(*to) }
            }
            Atom::OnlyConsumedBy { ptr, allowed } => Atom::OnlyConsumedBy {
                ptr: f(*ptr),
                allowed: allowed.iter().map(|l| f(*l)).collect(),
            },
        }
    }

    /// Decides the atom under `asg`, which must bind every mentioned label.
    #[must_use]
    pub fn check(&self, ctx: &MatchCtx<'_>, asg: &[ValueId]) -> bool {
        let get = |l: Label| asg[l.index()];
        match self {
            Atom::IsLoopHeader(l) => ctx.loop_of_header(get(*l)).is_some(),
            Atom::Opcode { l, class } => ctx
                .func
                .value(get(*l))
                .kind
                .opcode()
                .is_some_and(|op| classify(op).contains(class)),
            Atom::TypeScalar(l) => ctx.func.value(get(*l)).ty.is_scalar(),
            Atom::TypeInt(l) => ctx.func.value(get(*l)).ty == gr_ir::Type::Int,
            Atom::PhiArity { phi, n } => {
                let data = ctx.func.value(get(*phi));
                data.kind.opcode() == Some(&Opcode::Phi) && data.kind.operands().len() == 2 * n
            }
            Atom::OperandOf { inst, value } => {
                ctx.func.value(get(*inst)).kind.operands().contains(&get(*value))
            }
            Atom::OperandIs { inst, index, value } => {
                let ops = ctx.func.value(get(*inst)).kind.operands();
                ops.get(*index) == Some(&get(*value))
            }
            Atom::PhiIncoming { phi, value, block } => {
                let data = ctx.func.value(get(*phi));
                if data.kind.opcode() != Some(&Opcode::Phi) {
                    return false;
                }
                data.kind
                    .operands()
                    .chunks(2)
                    .any(|c| c[0] == get(*value) && c[1] == get(*block))
            }
            Atom::NotEqual { a, b } => get(*a) != get(*b),
            Atom::Equal { a, b } => get(*a) == get(*b),
            Atom::BlockOf { inst, block } => {
                let Some(b) = ctx.as_block(get(*block)) else { return false };
                ctx.inst_blocks.get(&get(*inst)) == Some(&b)
            }
            Atom::CfgEdge { from, to } => {
                let (Some(f), Some(t)) = (ctx.as_block(get(*from)), ctx.as_block(get(*to))) else {
                    return false;
                };
                ctx.analyses.cfg.succs[f.index()].contains(&t)
            }
            Atom::Dominates { a, b } => both_blocks(ctx, get(*a), get(*b))
                .is_some_and(|(x, y)| ctx.analyses.dom.dominates(x, y)),
            Atom::Postdominates { a, b } => both_blocks(ctx, get(*a), get(*b))
                .is_some_and(|(x, y)| ctx.analyses.postdom.postdominates(x, y)),
            Atom::InLoopBlock { block, header } => {
                ctx.as_block(get(*block)).is_some_and(|b| ctx.block_in_loop(b, get(*header)))
            }
            Atom::NotInLoopBlock { block, header } => {
                ctx.as_block(get(*block)).is_some_and(|b| !ctx.block_in_loop(b, get(*header)))
            }
            Atom::InLoopInst { inst, header } => ctx
                .inst_blocks
                .get(&get(*inst))
                .is_some_and(|&b| ctx.block_in_loop(b, get(*header))),
            Atom::AnchoredTo { inst, header } => {
                let Some(&b) = ctx.inst_blocks.get(&get(*inst)) else { return false };
                let Some(lid) = ctx.loop_of_header(get(*header)) else { return false };
                ctx.analyses.loops.innermost_of(b) == Some(lid)
            }
            Atom::InvariantIn { value, header } => ctx
                .loop_of_header(get(*header))
                .is_some_and(|lid| ctx.invariance.is_invariant(lid, get(*value))),
            Atom::ComputedOnlyFrom { output, header, iterator, allowed } => {
                let Some(lid) = ctx.loop_of_header(get(*header)) else { return false };
                let allowed_vals: Vec<ValueId> = allowed.iter().map(|l| get(*l)).collect();
                let iter_val = get(*iterator);
                let q = ctx.dominance_query(lid);
                let r = computed_only_from(&q, get(*output), &|v, in_addr| {
                    allowed_vals.contains(&v) || (in_addr && v == iter_val)
                });
                r.ok
            }
            Atom::UsesConfinedTo { source, header, terminals } => {
                let Some(lid) = ctx.loop_of_header(get(*header)) else { return false };
                let terminal_vals: Vec<ValueId> = terminals.iter().map(|l| get(*l)).collect();
                let closure = forward_closure_in_loop(
                    ctx.func,
                    &ctx.analyses.users,
                    &ctx.analyses.loops,
                    lid,
                    &ctx.inst_blocks,
                    get(*source),
                );
                let in_closure = |v: ValueId| closure.contains(&v) || v == get(*source);
                let l = ctx.analyses.loops.get(lid);
                closure.iter().all(|&v| {
                    if terminal_vals.contains(&v) || v == get(*source) {
                        return true;
                    }
                    match ctx.func.value(v).kind.opcode() {
                        Some(Opcode::Phi) => {
                            // The source may cycle back into its own header
                            // phi, but feeding a *different* loop-carried
                            // value couples two accumulators (privatizing
                            // one corrupts the other).
                            !ctx.func.block(l.header).insts.contains(&v)
                        }
                        Some(
                            Opcode::Bin(_)
                            | Opcode::Un(_)
                            | Opcode::Cmp(_)
                            | Opcode::Cast
                            | Opcode::Select,
                        ) => true,
                        Some(Opcode::Call(name)) => ctx.analyses.purity.is_pure(name),
                        // A branch steered by the source is tolerable only
                        // when it decides nothing but the source's own
                        // update: its controlled blocks may not contain
                        // stores / impure calls, and any phi selected by it
                        // must itself belong to the closure (otherwise a
                        // foreign value escapes under source-dependent
                        // control). The associativity post-check then
                        // decides whether the self-referential pattern is a
                        // legal min/max.
                        Some(Opcode::CondBr) => {
                            let Some(&br_block) = ctx.inst_blocks.get(&v) else { return false };
                            let controlled: Vec<BlockId> = l
                                .blocks
                                .iter()
                                .copied()
                                .filter(|&b| ctx.analyses.cdeps.deps_of(b).contains(&br_block))
                                .collect();
                            for &b in &controlled {
                                for &inst in &ctx.func.block(b).insts {
                                    // Members of the source's own update
                                    // chain (e.g. the histogram store) are
                                    // judged by the element-wise rules.
                                    if in_closure(inst) || terminal_vals.contains(&inst) {
                                        continue;
                                    }
                                    match ctx.func.value(inst).kind.opcode() {
                                        Some(Opcode::Store | Opcode::Ret | Opcode::Alloca) => {
                                            return false
                                        }
                                        Some(Opcode::Call(name))
                                            if !ctx.analyses.purity.is_pure(name) =>
                                        {
                                            return false
                                        }
                                        _ => {}
                                    }
                                }
                            }
                            // Escape check: phis merging values out of the
                            // controlled region must be closure members, or
                            // explicitly sanctioned terminals (the
                            // argmin/argmax index phi is selected by the
                            // value comparison by design; the idiom's own
                            // post-check guarantees the exchange is legal).
                            for &b in &l.blocks {
                                for &inst in &ctx.func.block(b).insts {
                                    if ctx.func.value(inst).kind.opcode() != Some(&Opcode::Phi) {
                                        continue;
                                    }
                                    let selected_by_branch = ctx
                                        .func
                                        .phi_incoming(inst)
                                        .iter()
                                        .any(|(_, from)| controlled.contains(from));
                                    if selected_by_branch
                                        && !in_closure(inst)
                                        && !terminal_vals.contains(&inst)
                                    {
                                        return false;
                                    }
                                }
                            }
                            true
                        }
                        _ => false,
                    }
                })
            }
            Atom::OnlyObjectAccesses { ptr, header, allowed } => {
                let Some(lid) = ctx.loop_of_header(get(*header)) else { return false };
                let Some(object) = root_object(ctx.func, get(*ptr)) else { return false };
                let allowed_vals: Vec<ValueId> = allowed.iter().map(|l| get(*l)).collect();
                let l = ctx.analyses.loops.get(lid);
                for &b in &l.blocks {
                    for &inst in &ctx.func.block(b).insts {
                        if allowed_vals.contains(&inst) {
                            continue;
                        }
                        let data = ctx.func.value(inst);
                        let touches = match data.kind.opcode() {
                            Some(Opcode::Load) => {
                                root_object(ctx.func, data.kind.operands()[0]) == Some(object)
                            }
                            Some(Opcode::Store) => {
                                root_object(ctx.func, data.kind.operands()[1]) == Some(object)
                            }
                            Some(Opcode::Call(_)) => data.kind.operands().iter().any(|&a| {
                                ctx.func.value(a).ty.is_ptr()
                                    && root_object(ctx.func, a) == Some(object)
                            }),
                            _ => false,
                        };
                        if touches {
                            return false;
                        }
                    }
                }
                true
            }
            Atom::LoopExitEdges { header, n } => {
                let Some(lid) = ctx.loop_of_header(get(*header)) else { return false };
                let l = ctx.analyses.loops.get(lid);
                let mut edges = 0usize;
                for &b in &l.blocks {
                    for &s in &ctx.analyses.cfg.succs[b.index()] {
                        if !l.contains(s) {
                            edges += 1;
                        }
                    }
                }
                edges == *n
            }
            Atom::PureInLoop { header } => {
                let Some(lid) = ctx.loop_of_header(get(*header)) else { return false };
                let l = ctx.analyses.loops.get(lid);
                l.blocks.iter().all(|&b| {
                    ctx.func.block(b).insts.iter().all(|&inst| {
                        match ctx.func.value(inst).kind.opcode() {
                            Some(Opcode::Store | Opcode::Alloca | Opcode::Ret) => false,
                            Some(Opcode::Call(name)) => ctx.analyses.purity.is_pure(name),
                            _ => true,
                        }
                    })
                })
            }
            Atom::OnlyTerminator { block } => {
                ctx.as_block(get(*block)).is_some_and(|b| ctx.func.block(b).insts.len() == 1)
            }
            Atom::CmpPredIs { l, pred } => {
                matches!(ctx.func.value(get(*l)).kind.opcode(), Some(&Opcode::Cmp(p)) if p == *pred)
            }
            Atom::IsConstInt { l, value } => {
                matches!(ctx.func.value(get(*l)).kind, ValueKind::ConstInt(c) if c == *value)
            }
            Atom::ConstIntNegative(l) => {
                matches!(ctx.func.value(get(*l)).kind, ValueKind::ConstInt(c) if c < 0)
            }
            Atom::SameTripCount { h1, h2 } => same_trip_count(ctx, get(*h1), get(*h2)),
            Atom::NoInterveningWrites { from, to } => {
                let (Some(f), Some(t)) = (ctx.as_block(get(*from)), ctx.as_block(get(*to))) else {
                    return false;
                };
                no_intervening_writes(ctx, f, t)
            }
            Atom::OnlyConsumedBy { ptr, allowed } => {
                let Some(object) = root_object(ctx.func, get(*ptr)) else { return false };
                let allowed_vals: Vec<ValueId> = allowed.iter().map(|l| get(*l)).collect();
                for b in ctx.func.block_ids() {
                    for &inst in &ctx.func.block(b).insts {
                        if allowed_vals.contains(&inst) {
                            continue;
                        }
                        let data = ctx.func.value(inst);
                        let touches = match data.kind.opcode() {
                            Some(Opcode::Load) => {
                                root_object(ctx.func, data.kind.operands()[0]) == Some(object)
                            }
                            Some(Opcode::Store) => {
                                root_object(ctx.func, data.kind.operands()[1]) == Some(object)
                            }
                            Some(Opcode::Call(_)) => data.kind.operands().iter().any(|&a| {
                                ctx.func.value(a).ty.is_ptr()
                                    && root_object(ctx.func, a) == Some(object)
                            }),
                            _ => false,
                        };
                        if touches {
                            return false;
                        }
                    }
                }
                true
            }
        }
    }

    /// Candidate values for `target` given that every *other* label of this
    /// atom is already bound in `asg`. `None` means the atom cannot
    /// generate and should be used as a filter only.
    #[must_use]
    pub fn enumerate(
        &self,
        ctx: &MatchCtx<'_>,
        asg: &[ValueId],
        target: Label,
    ) -> Option<Vec<ValueId>> {
        let get = |l: Label| asg[l.index()];
        match self {
            Atom::IsLoopHeader(l) if *l == target => {
                Some(ctx.header_loops.keys().copied().collect())
            }
            Atom::Opcode { l, class } if *l == target => Some(ctx.bucket(*class).to_vec()),
            Atom::Equal { a, b } if *a != *b => {
                if *a == target {
                    Some(vec![get(*b)])
                } else if *b == target {
                    Some(vec![get(*a)])
                } else {
                    None
                }
            }
            Atom::OperandIs { inst, index, value } => {
                if *value == target {
                    let ops = ctx.func.value(get(*inst)).kind.operands();
                    ops.get(*index).map(|&v| vec![v])
                } else if *inst == target {
                    Some(
                        ctx.analyses
                            .users
                            .users_of(get(*value))
                            .iter()
                            .copied()
                            .filter(|&u| {
                                ctx.func.value(u).kind.operands().get(*index) == Some(&get(*value))
                            })
                            .collect(),
                    )
                } else {
                    None
                }
            }
            Atom::PhiIncoming { phi, value, block } => {
                if *phi == target {
                    // Users of `value` that are phis with the right pair.
                    let vb = get(*value);
                    Some(
                        ctx.analyses
                            .users
                            .users_of(vb)
                            .iter()
                            .copied()
                            .filter(|&u| {
                                ctx.func.value(u).kind.opcode() == Some(&Opcode::Phi)
                                    && ctx
                                        .func
                                        .value(u)
                                        .kind
                                        .operands()
                                        .chunks(2)
                                        .any(|c| c[0] == vb && c[1] == get(*block))
                            })
                            .collect(),
                    )
                } else {
                    let data = ctx.func.value(get(*phi));
                    if data.kind.opcode() != Some(&Opcode::Phi) {
                        return Some(Vec::new());
                    }
                    if *value == target {
                        Some(
                            data.kind
                                .operands()
                                .chunks(2)
                                .filter(|c| c[1] == get(*block))
                                .map(|c| c[0])
                                .collect(),
                        )
                    } else {
                        // block == target
                        Some(
                            data.kind
                                .operands()
                                .chunks(2)
                                .filter(|c| c[0] == get(*value))
                                .map(|c| c[1])
                                .collect(),
                        )
                    }
                }
            }
            Atom::OperandOf { inst, value } => {
                if *value == target {
                    Some(ctx.func.value(get(*inst)).kind.operands().to_vec())
                } else {
                    Some(ctx.analyses.users.users_of(get(*value)).to_vec())
                }
            }
            Atom::BlockOf { inst, block } => {
                if *inst == target {
                    let b = ctx.as_block(get(*block))?;
                    Some(ctx.func.block(b).insts.clone())
                } else {
                    let &b = ctx.inst_blocks.get(&get(*inst))?;
                    Some(vec![ctx.func.block(b).label])
                }
            }
            Atom::CfgEdge { from, to } => {
                if *to == target {
                    let f = ctx.as_block(get(*from))?;
                    Some(
                        ctx.analyses.cfg.succs[f.index()]
                            .iter()
                            .map(|&b| ctx.func.block(b).label)
                            .collect(),
                    )
                } else {
                    let t = ctx.as_block(get(*to))?;
                    Some(
                        ctx.analyses.cfg.preds[t.index()]
                            .iter()
                            .map(|&b| ctx.func.block(b).label)
                            .collect(),
                    )
                }
            }
            Atom::InLoopBlock { block, header } if *block == target => {
                let lid = ctx.loop_of_header(get(*header))?;
                Some(
                    ctx.analyses
                        .loops
                        .get(lid)
                        .blocks
                        .iter()
                        .map(|&b| ctx.func.block(b).label)
                        .collect(),
                )
            }
            Atom::InLoopInst { inst, header } if *inst == target => {
                let lid = ctx.loop_of_header(get(*header))?;
                let mut out = Vec::new();
                for &b in &ctx.analyses.loops.get(lid).blocks {
                    out.extend(ctx.func.block(b).insts.iter().copied());
                }
                Some(out)
            }
            Atom::AnchoredTo { inst, header } if *inst == target => {
                let lid = ctx.loop_of_header(get(*header))?;
                let mut out = Vec::new();
                for &b in &ctx.analyses.loops.get(lid).blocks {
                    if ctx.analyses.loops.innermost_of(b) == Some(lid) {
                        out.extend(ctx.func.block(b).insts.iter().copied());
                    }
                }
                Some(out)
            }
            Atom::IsConstInt { l, value } if *l == target => {
                Some(ctx.const_ints.get(value).cloned().unwrap_or_default())
            }
            Atom::ConstIntNegative(l) if *l == target => Some(
                ctx.const_ints
                    .iter()
                    .filter(|(&c, _)| c < 0)
                    .flat_map(|(_, vs)| vs.iter().copied())
                    .collect(),
            ),
            _ => None,
        }
    }

    /// The cardinality of the candidate set [`Atom::enumerate`] would
    /// produce for `target`, computed from the precomputed indexes on
    /// [`MatchCtx`] *without materializing the set* (hash lookups and
    /// length reads only). Returns `Some` exactly when `enumerate` would;
    /// the solver uses it to pick the most selective generator first and
    /// to demote the rest to membership filters.
    #[must_use]
    pub fn estimate(&self, ctx: &MatchCtx<'_>, asg: &[ValueId], target: Label) -> Option<usize> {
        let get = |l: Label| asg[l.index()];
        match self {
            Atom::IsLoopHeader(l) if *l == target => Some(ctx.header_loops.len()),
            Atom::Opcode { l, class } if *l == target => Some(ctx.bucket(*class).len()),
            Atom::Equal { a, b } if *a != *b => (*a == target || *b == target).then_some(1),
            Atom::OperandIs { inst, index, value } => {
                if *value == target {
                    let ops = ctx.func.value(get(*inst)).kind.operands();
                    ops.get(*index).map(|_| 1)
                } else if *inst == target {
                    Some(ctx.analyses.users.users_of(get(*value)).len())
                } else {
                    None
                }
            }
            Atom::PhiIncoming { phi, value, block } => {
                if *phi == target {
                    Some(ctx.analyses.users.users_of(get(*value)).len())
                } else if *value == target || *block == target {
                    let data = ctx.func.value(get(*phi));
                    if data.kind.opcode() != Some(&Opcode::Phi) {
                        return Some(0);
                    }
                    Some(data.kind.operands().len() / 2)
                } else {
                    None
                }
            }
            Atom::OperandOf { inst, value } => {
                if *value == target {
                    Some(ctx.func.value(get(*inst)).kind.operands().len())
                } else {
                    Some(ctx.analyses.users.users_of(get(*value)).len())
                }
            }
            Atom::BlockOf { inst, block } => {
                if *inst == target {
                    let b = ctx.as_block(get(*block))?;
                    Some(ctx.func.block(b).insts.len())
                } else {
                    ctx.inst_blocks.get(&get(*inst)).map(|_| 1)
                }
            }
            Atom::CfgEdge { from, to } => {
                if *to == target {
                    let f = ctx.as_block(get(*from))?;
                    Some(ctx.analyses.cfg.succs[f.index()].len())
                } else {
                    let t = ctx.as_block(get(*to))?;
                    Some(ctx.analyses.cfg.preds[t.index()].len())
                }
            }
            Atom::InLoopBlock { block, header } if *block == target => {
                let lid = ctx.loop_of_header(get(*header))?;
                Some(ctx.analyses.loops.get(lid).blocks.len())
            }
            Atom::InLoopInst { inst, header } if *inst == target => {
                let lid = ctx.loop_of_header(get(*header))?;
                Some(
                    ctx.analyses
                        .loops
                        .get(lid)
                        .blocks
                        .iter()
                        .map(|&b| ctx.func.block(b).insts.len())
                        .sum(),
                )
            }
            Atom::AnchoredTo { inst, header } if *inst == target => {
                let lid = ctx.loop_of_header(get(*header))?;
                Some(
                    ctx.analyses
                        .loops
                        .get(lid)
                        .blocks
                        .iter()
                        .filter(|&&b| ctx.analyses.loops.innermost_of(b) == Some(lid))
                        .map(|&b| ctx.func.block(b).insts.len())
                        .sum(),
                )
            }
            Atom::IsConstInt { l, value } if *l == target => {
                Some(ctx.const_ints.get(value).map_or(0, Vec::len))
            }
            Atom::ConstIntNegative(l) if *l == target => {
                Some(ctx.const_ints.iter().filter(|(&c, _)| c < 0).map(|(_, vs)| vs.len()).sum())
            }
            _ => None,
        }
    }

    /// Static evaluation-cost rank for checker ordering: cheap equality and
    /// index lookups first, whole-loop dataflow walks last. Reordering
    /// checkers is sound (all must hold) and puts the most selective cheap
    /// filters in front of the expensive analyses.
    #[must_use]
    pub fn cost_rank(&self) -> u8 {
        match self {
            Atom::NotEqual { .. }
            | Atom::Equal { .. }
            | Atom::TypeScalar(_)
            | Atom::TypeInt(_)
            | Atom::IsLoopHeader(_)
            | Atom::Opcode { .. }
            | Atom::CmpPredIs { .. }
            | Atom::IsConstInt { .. }
            | Atom::ConstIntNegative(_)
            | Atom::PhiArity { .. } => 0,
            Atom::OperandIs { .. }
            | Atom::OperandOf { .. }
            | Atom::PhiIncoming { .. }
            | Atom::BlockOf { .. }
            | Atom::OnlyTerminator { .. }
            | Atom::CfgEdge { .. } => 1,
            Atom::Dominates { .. }
            | Atom::Postdominates { .. }
            | Atom::InLoopBlock { .. }
            | Atom::NotInLoopBlock { .. }
            | Atom::InLoopInst { .. }
            | Atom::AnchoredTo { .. }
            | Atom::InvariantIn { .. } => 2,
            Atom::LoopExitEdges { .. }
            | Atom::SameTripCount { .. }
            | Atom::NoInterveningWrites { .. }
            | Atom::PureInLoop { .. } => 3,
            Atom::ComputedOnlyFrom { .. }
            | Atom::UsesConfinedTo { .. }
            | Atom::OnlyObjectAccesses { .. }
            | Atom::OnlyConsumedBy { .. } => 4,
        }
    }
}

fn both_blocks(ctx: &MatchCtx<'_>, a: ValueId, b: ValueId) -> Option<(BlockId, BlockId)> {
    Some((ctx.as_block(a)?, ctx.as_block(b)?))
}

/// Whether the counted loops headed by `h1` and `h2` have identical
/// iteration spaces: same initial value, step and bound (by SSA value
/// identity) and the same normalized continue predicate with the same
/// branch orientation.
fn same_trip_count(ctx: &MatchCtx<'_>, h1: ValueId, h2: ValueId) -> bool {
    let shape_of = |h: ValueId| {
        let lid = ctx.loop_of_header(h)?;
        gr_analysis::loops::match_for_shape(ctx.func, &ctx.analyses.loops, lid)
    };
    let (Some(s1), Some(s2)) = (shape_of(h1), shape_of(h2)) else { return false };
    // `ForShape::pred` is already normalized to "continue while iterator
    // PRED bound" (iterator on the left, branch orientation folded in).
    (s1.init, s1.step, s1.bound, s1.pred) == (s2.init, s2.step, s2.bound, s2.pred)
}

/// Whether every block on a `from → to` path (both endpoints included) is
/// free of stores, allocas and impure calls. Vacuously true when `to` is
/// unreachable from `from`.
fn no_intervening_writes(ctx: &MatchCtx<'_>, from: BlockId, to: BlockId) -> bool {
    let cfg = &ctx.analyses.cfg;
    let n = ctx.func.blocks.len();
    // Forward reachability from `from`.
    let mut fwd = vec![false; n];
    let mut work = vec![from];
    fwd[from.index()] = true;
    while let Some(b) = work.pop() {
        for &s in &cfg.succs[b.index()] {
            if !fwd[s.index()] {
                fwd[s.index()] = true;
                work.push(s);
            }
        }
    }
    if !fwd[to.index()] {
        return true;
    }
    // Backward reachability from `to`.
    let mut bwd = vec![false; n];
    let mut work = vec![to];
    bwd[to.index()] = true;
    while let Some(b) = work.pop() {
        for &p in &cfg.preds[b.index()] {
            if !bwd[p.index()] {
                bwd[p.index()] = true;
                work.push(p);
            }
        }
    }
    ctx.func.block_ids().filter(|b| fwd[b.index()] && bwd[b.index()]).all(|b| {
        ctx.func
            .block(b)
            .insts
            .iter()
            .all(|&inst| match ctx.func.value(inst).kind.opcode() {
                Some(Opcode::Store | Opcode::Alloca) => false,
                Some(Opcode::Call(name)) => ctx.analyses.purity.is_pure(name),
                _ => true,
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_frontend::compile;

    fn with_ctx<R>(src: &str, f: impl FnOnce(&MatchCtx<'_>) -> R) -> R {
        let m = compile(src).unwrap();
        let func = &m.functions[0];
        let analyses = Analyses::new(&m, func);
        let ctx = MatchCtx::new(&m, func, &analyses);
        f(&ctx)
    }

    const LOOP_SRC: &str =
        "float f(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }";

    #[test]
    fn opcode_buckets_are_populated() {
        with_ctx(LOOP_SRC, |ctx| {
            assert_eq!(ctx.bucket(OpClass::Phi).len(), 2);
            assert_eq!(ctx.bucket(OpClass::Load).len(), 1);
            assert!(ctx.bucket(OpClass::Store).is_empty());
            assert_eq!(ctx.bucket(OpClass::CondBr).len(), 1);
            // i+1 and s+a[i] are both adds.
            assert_eq!(ctx.bucket(OpClass::Add).len(), 2);
        });
    }

    #[test]
    fn operand_is_checks_and_enumerates() {
        with_ctx(LOOP_SRC, |ctx| {
            let load = ctx.bucket(OpClass::Load)[0];
            let gep = ctx.func.value(load).kind.operands()[0];
            let atom = Atom::OperandIs { inst: Label(0), index: 0, value: Label(1) };
            assert!(atom.check(ctx, &[load, gep]));
            // enumerate the operand from the instruction
            let c = atom.enumerate(ctx, &[load, ValueId(0)], Label(1)).unwrap();
            assert_eq!(c, vec![gep]);
            // enumerate the instruction from the operand
            let c = atom.enumerate(ctx, &[ValueId(0), gep], Label(0)).unwrap();
            assert!(c.contains(&load));
        });
    }

    #[test]
    fn loop_header_enumeration() {
        with_ctx(LOOP_SRC, |ctx| {
            let atom = Atom::IsLoopHeader(Label(0));
            let hs = atom.enumerate(ctx, &[], Label(0)).unwrap();
            assert_eq!(hs.len(), 1);
            assert!(atom.check(ctx, &[hs[0]]));
        });
    }

    #[test]
    fn phi_incoming_enumerates_values_and_blocks() {
        with_ctx(LOOP_SRC, |ctx| {
            let header_label = *ctx.header_loops.keys().next().unwrap();
            let header = ctx.as_block(header_label).unwrap();
            let phi = ctx.func.block(header).insts[0];
            let atom = Atom::PhiIncoming { phi: Label(0), value: Label(1), block: Label(2) };
            let incoming = ctx.func.phi_incoming(phi);
            for (v, b) in incoming {
                let bl = ctx.func.block(b).label;
                assert!(atom.check(ctx, &[phi, v, bl]));
                let vals = atom.enumerate(ctx, &[phi, ValueId(0), bl], Label(1)).unwrap();
                assert!(vals.contains(&v));
            }
        });
    }

    #[test]
    fn invariant_atom() {
        with_ctx(LOOP_SRC, |ctx| {
            let header_label = *ctx.header_loops.keys().next().unwrap();
            let n = ctx.func.arg_values[1];
            let atom = Atom::InvariantIn { value: Label(0), header: Label(1) };
            assert!(atom.check(ctx, &[n, header_label]));
            let load = ctx.bucket(OpClass::Load)[0];
            assert!(!atom.check(ctx, &[load, header_label]));
        });
    }
}
