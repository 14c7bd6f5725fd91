//! Fingerprint distinctness sweep over the seeded fuzz grammars.
//!
//! The serving layer keys its caches on `gr-fp/v2` structural
//! fingerprints, so two properties carry the whole design:
//!
//! 1. **Distinct programs fingerprint apart.** The synthetic corpus
//!    folds the function index into each body as a constant payload, so
//!    every non-twin function is structurally distinct and must hash
//!    distinct — a silent collision would serve one function's report
//!    for another.
//! 2. **Alpha-renamed twins collide.** Every 16th corpus function
//!    repeats the previous body verbatim under a fresh name; the
//!    fingerprint must not see the rename, or the warm-cache hit rate
//!    the bench pins would collapse.
//!
//! Both properties are swept here over hundreds of grammar draws rather
//! than asserted on a hand-picked pair.

use std::collections::HashMap;

use gr_benchsuite::fuzz::{generate, synthetic_corpus, CORPUS_SEED};
use gr_benchsuite::rng::StdRng;
use gr_core::function_fingerprint;

fn kernel_fingerprint(src: &str) -> u64 {
    let m = gr_frontend::compile(src).unwrap_or_else(|e| panic!("corpus source: {e}\n{src}"));
    assert_eq!(m.functions.len(), 1, "fuzz cases are single-kernel units");
    function_fingerprint(&m, &m.functions[0])
}

#[test]
fn corpus_fingerprints_are_distinct_except_for_alpha_twins() {
    let corpus = synthetic_corpus(CORPUS_SEED, 512);
    let fps: Vec<u64> = corpus.iter().map(|c| kernel_fingerprint(&c.src)).collect();

    let mut seen: HashMap<u64, usize> = HashMap::new();
    for (idx, &fp) in fps.iter().enumerate() {
        if idx % 16 == 15 {
            // The twin repeats the previous body under its own name: the
            // rename must be invisible to the fingerprint.
            assert_eq!(
                fp,
                fps[idx - 1],
                "alpha twin {} must collide with its original {}",
                corpus[idx].name,
                corpus[idx - 1].name
            );
            continue;
        }
        if let Some(&prev) = seen.get(&fp) {
            panic!(
                "fingerprint collision between distinct programs {} and {}:\n{}\n---\n{}",
                corpus[prev].name, corpus[idx].name, corpus[prev].src, corpus[idx].src
            );
        }
        seen.insert(fp, idx);
    }
    // Sanity on the sweep itself: every non-twin draw landed in the map.
    assert_eq!(seen.len(), 512 - 512 / 16);
}

#[test]
fn differential_grammar_fingerprints_separate_by_source() {
    // The differential fuzz grammar redraws the same templates, so
    // repeated sources are expected — the invariant is that the
    // fingerprint partitions cases exactly like source equality does:
    // same source, same fingerprint; distinct sources, distinct
    // fingerprints.
    let mut rng = StdRng::seed_from_u64(0xF1D5);
    let mut by_src: HashMap<String, u64> = HashMap::new();
    let mut by_fp: HashMap<u64, String> = HashMap::new();
    for _ in 0..256 {
        let case = generate(&mut rng);
        let fp = kernel_fingerprint(&case.src);
        if let Some(&prev_fp) = by_src.get(&case.src) {
            assert_eq!(prev_fp, fp, "identical source must fingerprint identically");
            continue;
        }
        if let Some(prev_src) = by_fp.get(&fp) {
            panic!(
                "fingerprint collision between distinct programs:\n{prev_src}\n---\n{}",
                case.src
            );
        }
        by_src.insert(case.src.clone(), fp);
        by_fp.insert(fp, case.src);
    }
    assert!(by_src.len() > 10, "sweep must cover many distinct programs, got {}", by_src.len());
}
