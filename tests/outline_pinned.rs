//! Pins detection and the outliner's output with three FNV-1a digests
//! per corpus.
//!
//! Each source is detected once with
//! `detect_reductions_budgeted(&module, DetectBudget::UNLIMITED)`. The
//! *content* digest takes every function's `DetectionReport` `{:?}` with
//! `steps_used` zeroed: the full bindings of each reduction and the
//! status. The *steps* digest takes every function's `steps_used`, in
//! order, so search cost is pinned apart from what the search finds. The
//! *outliner* digest takes every (function, loop) group of the flattened
//! reports, outlined exactly the way `greduce par`/`stats` outline them
//! (one `parallelize` call per `(function, header)` group, in report
//! order): its function name and header, then either the printed outlined
//! module and every `ReductionPlan` field, or the text of the
//! `OutlineError` that refused it.
//!
//! A refactor of the solver or of the code generator must leave every
//! digest unchanged. A deliberate change of search order moves only the
//! steps digests; a deliberate output change re-pins the others too. To
//! re-derive the digests, run this test on a checkout of the code whose
//! output is the reference (`cargo test --release --test
//! outline_pinned`): a failing assertion prints every digest it computed
//! and the step total.

use gr_benchsuite::fuzz::{generate, synthetic_corpus, CORPUS_SEED};
use gr_benchsuite::rng::StdRng;
use gr_core::{detect_reductions_budgeted, DetectBudget, DetectionReport};
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

/// The digests plus tallies, so a drift says which way it went.
struct Pin {
    content: Fnv,
    steps: Fnv,
    outline: Fnv,
    reductions: usize,
    total_steps: usize,
    outlined: usize,
    refused: usize,
}

impl Pin {
    fn new() -> Pin {
        Pin {
            content: Fnv(FNV_OFFSET),
            steps: Fnv(FNV_OFFSET),
            outline: Fnv(FNV_OFFSET),
            reductions: 0,
            total_steps: 0,
            outlined: 0,
            refused: 0,
        }
    }

    /// Detects `src` with the default registry, then outlines each
    /// `(function, header)` group of its reports.
    fn detect_and_outline(&mut self, name: &str, src: &str) {
        self.content.feed(name);
        self.outline.feed(name);
        let module = gr_frontend::compile(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let reports = detect_reductions_budgeted(&module, DetectBudget::UNLIMITED);
        for report in &reports {
            self.steps.feed(&report.steps_used.to_string());
            self.total_steps += report.steps_used;
            let content = DetectionReport { steps_used: 0, ..report.clone() };
            self.content.feed(&format!("{content:?}"));
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

    fn check(
        &self,
        what: &str,
        content: (u64, usize),
        steps: (u64, usize),
        outline: (u64, usize, usize),
    ) {
        let computed = (
            (self.content.0, self.reductions),
            (self.steps.0, self.total_steps),
            (self.outline.0, self.outlined, self.refused),
        );
        assert_eq!(
            computed,
            (content, steps, outline),
            "{what}: detection or outliner output drifted; computed content digest {:#018x} \
             over {} reductions, steps digest {:#018x} over {} steps, outliner digest \
             {:#018x} over {} outlined and {} refused loops",
            self.content.0,
            self.reductions,
            self.steps.0,
            self.total_steps,
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
    pin.check(
        "bundled programs",
        (0x5238_302a_bd60_88f0, 101),
        (0x5cf1_d4e6_99a5_0356, 203),
        (0x1b6d_c873_5eda_f62a, 72, 0),
    );
}

#[test]
fn fuzz_grammar_outlines_to_the_pinned_digest() {
    let mut rng = StdRng::seed_from_u64(0x00D1_6E57);
    let mut pin = Pin::new();
    for _ in 0..256 {
        let case = generate(&mut rng);
        pin.detect_and_outline(&case.name, &case.src);
    }
    pin.check(
        "fuzz grammar",
        (0xb2ea_6083_552e_ffe6, 204),
        (0x4951_bb0e_e36e_ee31, 264),
        (0xc9df_09a3_4e9b_a8b2, 180, 6),
    );
}

#[test]
fn synthetic_corpus_outlines_to_the_pinned_digest() {
    let mut pin = Pin::new();
    for case in synthetic_corpus(CORPUS_SEED, 512) {
        pin.detect_and_outline(&case.name, &case.src);
    }
    pin.check(
        "synthetic corpus",
        (0x1fb2_ee24_4712_df5f, 570),
        (0x25dd_bb3d_01cc_8db7, 462),
        (0x58e8_fb30_a06a_66c4, 512, 0),
    );
}
