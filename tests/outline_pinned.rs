//! Pins detection and the outliner's output with two FNV-1a digests per
//! corpus.
//!
//! Each source is detected once with
//! `detect_reductions_budgeted(&module, DetectBudget::UNLIMITED)`. The
//! *detection* digest takes every function's `DetectionReport` `{:?}`:
//! the full bindings of each reduction, the status and the solver steps
//! spent. The *outliner* digest takes every (function, loop) group of the
//! flattened reports, outlined exactly the way `greduce par`/`stats`
//! outline them (one `parallelize` call per `(function, header)` group, in
//! report order): its function name and header, then either the printed
//! outlined module and every `ReductionPlan` field, or the text of the
//! `OutlineError` that refused it.
//!
//! A refactor of the solver or of the code generator must leave all six
//! digests unchanged; a deliberate output change re-pins them. To
//! re-derive the digests, run this test on a checkout of the code whose
//! output is the reference (`cargo test --release --test
//! outline_pinned`): a failing assertion prints both digests it computed.

use gr_benchsuite::fuzz::{generate, synthetic_corpus, CORPUS_SEED};
use gr_benchsuite::rng::StdRng;
use gr_core::{detect_reductions_budgeted, DetectBudget};
use gr_parallel::ReductionPlan;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over newline-terminated texts.
struct Fnv(u64);

impl Fnv {
    fn feed(&mut self, text: &str) {
        for &b in text.as_bytes().iter().chain(b"\n") {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// Both digests plus tallies, so a drift says which way it went.
struct Pin {
    detection: Fnv,
    outline: Fnv,
    reductions: usize,
    outlined: usize,
    refused: usize,
}

impl Pin {
    fn new() -> Pin {
        Pin {
            detection: Fnv(FNV_OFFSET),
            outline: Fnv(FNV_OFFSET),
            reductions: 0,
            outlined: 0,
            refused: 0,
        }
    }

    /// Detects `src` with the default registry, then outlines each
    /// `(function, header)` group of its reports.
    fn detect_and_outline(&mut self, name: &str, src: &str) {
        self.detection.feed(name);
        self.outline.feed(name);
        let module = gr_frontend::compile(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let reports = detect_reductions_budgeted(&module, DetectBudget::UNLIMITED);
        for report in &reports {
            self.detection.feed(&format!("{report:?}"));
        }
        let rs: Vec<gr_core::Reduction> =
            reports.into_iter().flat_map(|report| report.reductions).collect();
        self.reductions += rs.len();
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
            self.outline.feed(&format!("{fname} {header}"));
            match gr_parallel::parallelize(&module, &fname, &group) {
                Ok((out, plan)) => {
                    self.outlined += 1;
                    self.outline.feed(&gr_ir::printer::print_module(&out));
                    self.outline.feed(&plan_text(&plan));
                }
                Err(e) => {
                    self.refused += 1;
                    self.outline.feed(&e.to_string());
                }
            }
        }
    }

    fn check(&self, what: &str, detection: (u64, usize), outline: (u64, usize, usize)) {
        let computed =
            ((self.detection.0, self.reductions), (self.outline.0, self.outlined, self.refused));
        assert_eq!(
            computed,
            (detection, outline),
            "{what}: detection or outliner output drifted; computed detection digest {:#018x} \
             over {} reductions, outliner digest {:#018x} over {} outlined and {} refused loops",
            self.detection.0,
            self.reductions,
            self.outline.0,
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
        pin.detect_and_outline(p.name, p.source);
    }
    pin.check("bundled programs", (0x6519_03d7_9b26_5b43, 101), (0x1b6d_c873_5eda_f62a, 72, 0));
}

#[test]
fn fuzz_grammar_outlines_to_the_pinned_digest() {
    let mut rng = StdRng::seed_from_u64(0x00D1_6E57);
    let mut pin = Pin::new();
    for _ in 0..256 {
        let case = generate(&mut rng);
        pin.detect_and_outline(&case.name, &case.src);
    }
    pin.check("fuzz grammar", (0x8799_1480_7950_a1ac, 204), (0xc9df_09a3_4e9b_a8b2, 180, 6));
}

#[test]
fn synthetic_corpus_outlines_to_the_pinned_digest() {
    let mut pin = Pin::new();
    for case in synthetic_corpus(CORPUS_SEED, 512) {
        pin.detect_and_outline(&case.name, &case.src);
    }
    pin.check("synthetic corpus", (0xd5ea_7633_ffc7_0135, 570), (0x58e8_fb30_a06a_66c4, 512, 0));
}
