//! Pins the outliner's output: an FNV-1a digest over every (function,
//! loop) group the default registry reports, outlined exactly the way
//! `greduce par`/`stats` outline them (one `parallelize` call per
//! `(function, header)` group, in report order).
//!
//! Each group contributes its function name and header, then either the
//! printed outlined module and every `ReductionPlan` field, or the text of
//! the `OutlineError` that refused it. A refactor of the code generator
//! must leave all three digests unchanged; a deliberate output change
//! re-pins them. To re-derive a digest, run this test on a checkout of the
//! code whose output is the reference (`cargo test --release --test
//! outline_pinned`): a failing assertion prints the digest it computed.

use gr_benchsuite::fuzz::{generate, synthetic_corpus, CORPUS_SEED};
use gr_benchsuite::rng::StdRng;
use gr_parallel::ReductionPlan;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Digest plus the outlined/refused tallies, so a drift says which way it
/// went.
struct Pin {
    hash: u64,
    outlined: usize,
    refused: usize,
}

impl Pin {
    fn new() -> Pin {
        Pin { hash: FNV_OFFSET, outlined: 0, refused: 0 }
    }

    fn feed(&mut self, text: &str) {
        for &b in text.as_bytes().iter().chain(b"\n") {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
    }

    /// Detects `src` with the default registry and outlines each
    /// `(function, header)` group of its reports.
    fn outline_all(&mut self, src: &str) {
        let module = gr_frontend::compile(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let rs = gr_core::detect_reductions(&module);
        let mut loops: Vec<(String, gr_ir::BlockId)> = Vec::new();
        for r in &rs {
            if !loops.iter().any(|(f, h)| *f == r.function && *h == r.header) {
                loops.push((r.function.clone(), r.header));
            }
        }
        for (fname, header) in loops {
            let group: Vec<gr_core::Reduction> = rs
                .iter()
                .filter(|r| r.function == fname && r.header == header)
                .cloned()
                .collect();
            self.feed(&format!("{fname} {header}"));
            match gr_parallel::parallelize(&module, &fname, &group) {
                Ok((out, plan)) => {
                    self.outlined += 1;
                    self.feed(&gr_ir::printer::print_module(&out));
                    self.feed(&plan_text(&plan));
                }
                Err(e) => {
                    self.refused += 1;
                    self.feed(&e.to_string());
                }
            }
        }
    }

    fn check(&self, what: &str, hash: u64, outlined: usize, refused: usize) {
        assert_eq!(
            (self.hash, self.outlined, self.refused),
            (hash, outlined, refused),
            "{what}: outliner output drifted; computed digest {:#018x} over {} outlined and \
             {} refused loops",
            self.hash,
            self.outlined,
            self.refused
        );
    }
}

/// Every plan field the runtime reads, rendered one per line.
fn plan_text(p: &ReductionPlan) -> String {
    format!(
        "function {}\nchunk_fn {}\nchunk_value_only_fn {:?}\nintrinsic {}\npred {:?}\n\
         accs {:?}\nhists {:?}\nscans {:?}\nargs {:?}\nsearch {:?}\nwritten {:?}\narg_count {}",
        p.function,
        p.chunk_fn,
        p.chunk_value_only_fn,
        p.intrinsic,
        p.pred,
        p.accs,
        p.hists,
        p.scans,
        p.args,
        p.search,
        p.written,
        p.arg_count
    )
}

#[test]
fn bundled_programs_outline_to_the_pinned_digest() {
    let mut programs = gr_benchsuite::all_programs();
    programs.extend(gr_benchsuite::micro::programs());
    assert_eq!(programs.len(), 49);
    let mut pin = Pin::new();
    for p in &programs {
        pin.feed(p.name);
        pin.outline_all(p.source);
    }
    pin.check("bundled programs", 0x9d7e_f1d8_91d4_2704, 72, 0);
}

#[test]
fn fuzz_grammar_outlines_to_the_pinned_digest() {
    let mut rng = StdRng::seed_from_u64(0x00D1_6E57);
    let mut pin = Pin::new();
    for _ in 0..256 {
        let case = generate(&mut rng);
        pin.feed(&case.name);
        pin.outline_all(&case.src);
    }
    pin.check("fuzz grammar", 0xbfdc_92f7_88e8_2cf6, 180, 6);
}

#[test]
fn synthetic_corpus_outlines_to_the_pinned_digest() {
    let mut pin = Pin::new();
    for case in synthetic_corpus(CORPUS_SEED, 512) {
        pin.feed(&case.name);
        pin.outline_all(&case.src);
    }
    pin.check("synthetic corpus", 0xcd33_dc0f_ca97_d374, 512, 0);
}
