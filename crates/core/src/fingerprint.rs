//! Structural function fingerprints — the content-hash key of the
//! persistent detection cache (`gr-cache/v2`, see `docs/formats.md`).
//!
//! A fingerprint must satisfy two properties the serving layer
//! (`gr-server`) builds on:
//!
//! 1. **Alpha-rename stability.** Renaming the function, its parameters,
//!    locals, labels, globals or callees must not change the fingerprint:
//!    detection never looks at user-chosen name strings (the solver
//!    enumerates `values(F)` positionally), so two alpha-renamed twins
//!    have byte-identical reports modulo the `function` field and must
//!    share one cache entry.
//! 2. **Soundness.** Every input detection reads must reach the hash, so
//!    any change that could change the report — one instruction added, an
//!    operand swapped, a constant changed, a type widened, a callee that
//!    turns impure — changes the fingerprint, because a stale cache hit
//!    would serve a wrong report forever.
//!
//! Detection reads exactly one module-level fact about a function: the
//! purity of each callee ([`PurityInfo`], a fixpoint over the whole call
//! graph, which `Analyses` hands to the atoms). So a call hashes as its
//! callee's purity bit, never as the callee's name, and a renamed callee
//! keeps the fingerprint. The one exception is a built-in's name
//! ([`gr_ir::builtins::is_builtin`]): the post-check reads `fmin`, `fmax`,
//! `imin` and `imax` by name as a reduction's operator, and `fmin` and
//! `fmax` share a purity bit but not a meaning, so such calls hash the
//! name as well. The frontend refuses a user function named like a
//! built-in, so such a name always means the built-in.
//!
//! The hash is FNV-1a over a canonical byte encoding of the function's
//! positional structure (types, opcodes, operand indices, constant
//! values, block/instruction layout) — **never** over printed IR, which
//! embeds parameter and block names. [`std::hash::DefaultHasher`] is
//! avoided on purpose: its algorithm is unspecified and may change
//! between Rust releases, while fingerprints here are persisted to disk
//! across runs. The encoding is versioned by [`FINGERPRINT_SCHEMA`];
//! bumping it invalidates every on-disk cache entry at once.

use gr_analysis::purity::PurityInfo;
use gr_ir::{Function, Module, Opcode, ValueKind};

/// Version tag mixed into every fingerprint and named by the header of
/// every `gr-cache/v2` file. Bump when the encoding changes; files keyed
/// by another version then load as corruption and serve no hits.
pub const FINGERPRINT_SCHEMA: &str = "gr-fp/v2";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a (64-bit): a tiny, stable, dependency-free hasher.
/// Not collision-resistant against adversaries — the cache is a local
/// artifact, not a trust boundary — but stable across runs and releases,
/// which `DefaultHasher` does not guarantee.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Fnv64 {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` as little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `usize` (widened to `u64` so 32- and 64-bit hosts agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs a length-prefixed string (prefixing prevents ambiguity
    /// between `("ab","c")` and `("a","bc")`).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

fn hash_opcode(h: &mut Fnv64, purity: &PurityInfo, opcode: &Opcode) {
    match opcode {
        // `Display` covers every payload-free opcode with a stable
        // mnemonic; a call hashes what detection reads of its callee.
        Opcode::Call(name) => {
            h.write_str("call");
            h.write_u64(u64::from(purity.is_pure(name)));
            h.write_str(if gr_ir::builtins::is_builtin(name) { name } else { "" });
        }
        other => h.write_str(&other.to_string()),
    }
}

/// Structural fingerprint of `func` within `module`, computing the
/// module's [`PurityInfo`] on the way. A caller fingerprinting several
/// functions of one module computes it once and calls
/// [`function_fingerprint_with`].
#[must_use]
pub fn function_fingerprint(module: &Module, func: &Function) -> u64 {
    function_fingerprint_with(module, &PurityInfo::new(module), func)
}

/// Structural fingerprint of `func` within `module`, whose callee purity
/// is `purity` (`PurityInfo::new(module)`).
///
/// Hashes, in order: the schema tag, the signature (parameter types and
/// return type — not names), the value arena (kind tag, payload, type —
/// not the optional source name), and the block layout (per-block
/// instruction lists — not block names). A call hashes its callee's
/// purity bit, plus the name for a built-in. Global references hash the
/// referenced global's element type and declared size, not its name, so
/// renaming a global is alpha-renaming too. `ValueId`s and `BlockId`s
/// are arena positions — already name-free — and are hashed as raw
/// indices.
#[must_use]
pub fn function_fingerprint_with(module: &Module, purity: &PurityInfo, func: &Function) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(FINGERPRINT_SCHEMA);

    h.write_usize(func.params.len());
    for p in &func.params {
        h.write_str(p.ty.to_string().as_str());
    }
    h.write_str(func.ret.to_string().as_str());

    h.write_usize(func.values.len());
    for v in &func.values {
        h.write_str(v.ty.to_string().as_str());
        match &v.kind {
            ValueKind::ConstInt(c) => {
                h.write_str("ci");
                h.write_u64(*c as u64);
            }
            ValueKind::ConstFloat(c) => {
                h.write_str("cf");
                h.write_u64(c.to_bits());
            }
            ValueKind::ConstBool(c) => {
                h.write_str("cb");
                h.write_u64(u64::from(*c));
            }
            ValueKind::Argument(i) => {
                h.write_str("arg");
                h.write_usize(*i);
            }
            ValueKind::GlobalRef(gid) => {
                // Identity of a global is its shape, not its name.
                h.write_str("glob");
                h.write_usize(gid.index());
                if let Some(g) = module.globals.get(gid.index()) {
                    h.write_str(g.elem.to_string().as_str());
                    h.write_usize(g.size);
                }
            }
            ValueKind::Block(bid) => {
                h.write_str("blk");
                h.write_usize(bid.index());
            }
            ValueKind::Inst { opcode, operands } => {
                h.write_str("inst");
                hash_opcode(&mut h, purity, opcode);
                h.write_usize(operands.len());
                for op in operands {
                    h.write_usize(op.index());
                }
            }
        }
    }

    h.write_usize(func.blocks.len());
    for b in &func.blocks {
        h.write_usize(b.insts.len());
        for i in &b.insts {
            h.write_usize(i.index());
        }
    }

    h.finish()
}

/// Fingerprints every function of a module, in declaration order, paired
/// with its (current) name — the unit the incremental re-detection
/// driver diffs against the persistent cache.
#[must_use]
pub fn module_fingerprints(module: &Module) -> Vec<(String, u64)> {
    let purity = PurityInfo::new(module);
    module
        .functions
        .iter()
        .map(|f| (f.name.clone(), function_fingerprint_with(module, &purity, f)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> Module {
        gr_frontend::compile(src).unwrap()
    }

    const SUM: &str = "float sum(float* a, int n) {
        float s = 0.0;
        for (int i = 0; i < n; i++) s += a[i];
        return s;
    }";

    #[test]
    fn deterministic_across_compiles() {
        let m1 = compile(SUM);
        let m2 = compile(SUM);
        assert_eq!(
            function_fingerprint(&m1, &m1.functions[0]),
            function_fingerprint(&m2, &m2.functions[0]),
        );
    }

    #[test]
    fn alpha_renamed_twin_shares_the_fingerprint() {
        // Function, parameter and local names all differ; structure is
        // identical.
        let twin = "float total_42(float* data_1, int count_7) {
            float acc_0 = 0.0;
            for (int idx_3 = 0; idx_3 < count_7; idx_3++) acc_0 += data_1[idx_3];
            return acc_0;
        }";
        let a = compile(SUM);
        let b = compile(twin);
        assert_eq!(
            function_fingerprint(&a, &a.functions[0]),
            function_fingerprint(&b, &b.functions[0]),
        );
    }

    #[test]
    fn one_instruction_edit_changes_the_fingerprint() {
        let edited = "float sum(float* a, int n) {
            float s = 0.0;
            for (int i = 0; i < n; i++) s += a[i] * 2.0;
            return s;
        }";
        let a = compile(SUM);
        let b = compile(edited);
        assert_ne!(
            function_fingerprint(&a, &a.functions[0]),
            function_fingerprint(&b, &b.functions[0]),
        );
    }

    #[test]
    fn constant_edit_changes_the_fingerprint() {
        let edited = "float sum(float* a, int n) {
            float s = 1.0;
            for (int i = 0; i < n; i++) s += a[i];
            return s;
        }";
        let a = compile(SUM);
        let b = compile(edited);
        assert_ne!(
            function_fingerprint(&a, &a.functions[0]),
            function_fingerprint(&b, &b.functions[0]),
        );
    }

    /// The fingerprint of the function named `name` in `src`.
    fn fp_of(src: &str, name: &str) -> u64 {
        let m = compile(src);
        let f = m.functions.iter().find(|f| f.name == name).unwrap();
        function_fingerprint(&m, f)
    }

    const CALLER: &str = "float f(float* a, int n) {
        float s = 0.0;
        for (int i = 0; i < n; i++) s += h(a[i]);
        return s;
    }";

    #[test]
    fn a_callee_turning_impure_changes_the_fingerprint() {
        let pure = format!("float h(float x) {{ return x * 2.0; }}\n{CALLER}");
        let impure =
            format!("float g[4];\nfloat h(float x) {{ g[0] = x; return x * 2.0; }}\n{CALLER}");
        assert_ne!(fp_of(&pure, "f"), fp_of(&impure, "f"));
    }

    #[test]
    fn renaming_a_callee_keeps_the_fingerprint() {
        let a = format!("float h(float x) {{ return x * 2.0; }}\n{CALLER}");
        let b = a.replace("h(", "helper_7(");
        assert_eq!(fp_of(&a, "f"), fp_of(&b, "f"));
    }

    #[test]
    fn builtin_callees_hash_their_names() {
        let call = |callee: &str| {
            format!(
                "float f(float* a, int n) {{
                    float s = 0.0;
                    for (int i = 0; i < n; i++) s = {callee}(s, a[i]);
                    return s;
                }}"
            )
        };
        assert_ne!(fp_of(&call("fmin"), "f"), fp_of(&call("fmax"), "f"));
        assert_ne!(fp_of(&call("fmin"), "f"), fp_of(&call("pow"), "f"));
        // A pure user function in a built-in's place is a different key.
        let user = format!("float mymin(float x, float y) {{ return x; }}\n{}", call("mymin"));
        assert_ne!(fp_of(&call("fmin"), "f"), fp_of(&user, "f"));
    }

    #[test]
    fn distinct_functions_in_one_module_disagree() {
        let m = compile(
            "float f(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }
             int g(int* a, int n) { int s = 0; for (int i = 0; i < n; i++) s += a[i]; return s; }",
        );
        assert_ne!(
            function_fingerprint(&m, &m.functions[0]),
            function_fingerprint(&m, &m.functions[1]),
        );
        let fps = module_fingerprints(&m);
        assert_eq!(fps.len(), 2);
        assert_eq!(fps[0].0, "f");
        assert_eq!(fps[1].0, "g");
    }
}
