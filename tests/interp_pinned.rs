//! Pins the interpreter's observable outcomes with one FNV-1a digest.
//!
//! Every case runs on a fresh `Machine` with profiling on, and feeds the
//! digest with the `{:?}` of each call's return value or trap, of every
//! memory object afterwards, and of every block's execution count. The
//! cases are every bundled program's standard workload (run the way
//! `measure_coverage` runs it), 256 fuzz-grammar draws with their
//! arguments (the seed of `tests/outline_pinned.rs`), and four traps: an
//! out-of-bounds load and store, a division and a remainder by zero.
//!
//! A change to the interpreter must leave the digest unchanged. To
//! re-derive it, run this test on a checkout whose interpreter is the
//! reference (`cargo test --release --test interp_pinned`): a failing
//! assertion prints the digest it computed.

use gr_benchsuite::fuzz::{generate, FuzzArg};
use gr_benchsuite::rng::StdRng;
use gr_interp::{Machine, Memory, ObjId, RtVal};
use gr_ir::{BlockId, Module};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over newline-terminated texts, with tallies so a drift says
/// which way it went.
struct Pin {
    digest: u64,
    calls: usize,
    traps: usize,
}

impl Pin {
    fn feed(&mut self, text: &str) {
        for &b in text.as_bytes().iter().chain(b"\n") {
            self.digest ^= u64::from(b);
            self.digest = self.digest.wrapping_mul(FNV_PRIME);
        }
    }

    /// Runs each `(function, args)` call in order on one profiled machine
    /// over `mem`, stopping at the first trap, then feeds the memory
    /// objects and the block counts.
    fn run(&mut self, name: &str, module: &Module, mem: Memory, calls: &[(&str, Vec<RtVal>)]) {
        self.feed(name);
        let mut machine = Machine::new(module, mem);
        machine.enable_profile();
        for (func, args) in calls {
            let outcome = machine.call(func, args);
            self.calls += 1;
            self.feed(&format!("{func} {outcome:?}"));
            if outcome.is_err() {
                self.traps += 1;
                break;
            }
        }
        for o in 0..machine.mem.object_count() {
            #[allow(clippy::cast_possible_truncation)] // object ids are u32
            self.feed(&format!("{:?}", machine.mem.object(ObjId(o as u32))));
        }
        let profile = machine.profile.as_ref().expect("profiling enabled");
        for (fi, f) in module.functions.iter().enumerate() {
            let counts: Vec<u64> =
                f.block_ids().map(|b: BlockId| profile.block_count(fi, b)).collect();
            self.feed(&format!("{} {counts:?}", f.name));
        }
    }
}

/// Allocates a case's arrays into memory and returns its arguments.
type Build = fn(&mut Memory) -> Vec<RtVal>;

/// A fuzz case's arguments, allocated into `mem` in order.
fn fuzz_args(args: &[FuzzArg], mem: &mut Memory) -> Vec<RtVal> {
    args.iter()
        .map(|a| match a {
            FuzzArg::FArr(v) => RtVal::ptr(mem.alloc_float(v)),
            FuzzArg::IArr(v) => RtVal::ptr(mem.alloc_int(v)),
            FuzzArg::I(v) => RtVal::I(*v),
            FuzzArg::F(v) => RtVal::F(*v),
        })
        .collect()
}

#[test]
fn interpreter_outcomes_match_the_pinned_digest() {
    let mut pin = Pin { digest: FNV_OFFSET, calls: 0, traps: 0 };

    let mut programs = gr_benchsuite::all_programs();
    programs.extend(gr_benchsuite::micro::programs());
    assert_eq!(programs.len(), 49);
    for p in &programs {
        let module = p.compile();
        let workload = (p.workload)(1);
        let mut mem = Memory::new(&module);
        let objs = workload.materialize(&mut mem);
        let calls: Vec<(&str, Vec<RtVal>)> = workload
            .calls
            .iter()
            .map(|c| (c.func, workload.resolve_args(c, &objs)))
            .collect();
        pin.run(p.name, &module, mem, &calls);
    }

    let mut rng = StdRng::seed_from_u64(0x00D1_6E57);
    for _ in 0..256 {
        let case = generate(&mut rng);
        let module =
            gr_frontend::compile(&case.src).unwrap_or_else(|e| panic!("{e}\n{}", case.src));
        let mut mem = Memory::new(&module);
        let args = fuzz_args(&case.args, &mut mem);
        pin.run(&case.name, &module, mem, &[("k", args)]);
    }

    // Each trap case writes or reads a few elements before it faults, so
    // the digest also pins what memory holds at the trap.
    let traps: [(&str, &str, Build); 4] = [
        (
            "out-of-bounds load",
            "int f(int* a, int n) { int s = 0; for (int i = 0; i < n; i++) s += a[i]; return s; }",
            |mem| vec![RtVal::ptr(mem.alloc_int(&[1, 2, 3])), RtVal::I(5)],
        ),
        (
            "out-of-bounds store",
            "void f(float* a, int n) { for (int i = 0; i < n; i++) a[i] = i * 0.5; }",
            |mem| vec![RtVal::ptr(mem.alloc_float(&[9.0; 4])), RtVal::I(6)],
        ),
        (
            "division by zero",
            "int f(int* a, int n) { int q = 0; for (int i = 0; i < n; i++) { q = 100 / (3 - i); a[i] = q; } return q; }",
            |mem| vec![RtVal::ptr(mem.alloc_int(&[0; 8])), RtVal::I(8)],
        ),
        (
            "remainder by zero",
            "int f(int* a, int n) { int r = 0; for (int i = 0; i < n; i++) { r = 100 % (2 - i); a[i] = r; } return r; }",
            |mem| vec![RtVal::ptr(mem.alloc_int(&[0; 8])), RtVal::I(8)],
        ),
    ];
    for (name, src, build) in traps {
        let module = gr_frontend::compile(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let mut mem = Memory::new(&module);
        let args = build(&mut mem);
        pin.run(name, &module, mem, &[("f", args)]);
    }

    assert_eq!(
        (pin.digest, pin.calls, pin.traps),
        (0x73e3_395a_3be9_a88a, 425, 4),
        "interpreter outcomes drifted; computed digest {:#018x} over {} calls, {} of them trapped",
        pin.digest,
        pin.calls,
        pin.traps
    );
}
