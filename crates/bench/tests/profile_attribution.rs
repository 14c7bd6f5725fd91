//! Corpus-wide pins for the profiling layer: the collapsed-stack
//! attribution must be hierarchical and stay within the corpus step pin,
//! and the profile artifacts must be byte-deterministic across runs.

use gr_bench::stats::measure_profile;

#[test]
fn collapsed_attribution_is_nested_and_pinned_corpus_wide() {
    let profile = measure_profile();
    // Every collapsed line ends in its self value; their sum is every
    // solver step of the session. The same trend bound
    // `trace_substrate.rs` pins (measured 203 with the trie-backed
    // extension search).
    let steps: i64 = profile
        .collapsed
        .lines()
        .map(|l| l.rsplit(' ').next().and_then(|v| v.parse::<i64>().ok()).expect("value"))
        .sum();
    assert!(steps > 0 && steps <= 300, "corpus steps regressed: {steps}");
    // Attribution is hierarchical: the corpus sweep runs under
    // detect/extend/solve spans, so the collapsed stacks must be deeper
    // than a single flat frame.
    assert!(
        profile
            .collapsed
            .lines()
            .any(|l| l.split(' ').next().is_some_and(|p| p.contains(';'))),
        "expected nested span paths in:\n{}",
        profile.collapsed
    );
}

#[test]
fn profile_artifacts_are_byte_deterministic() {
    let a = measure_profile();
    let b = measure_profile();
    assert_eq!(a.collapsed, b.collapsed, "collapsed-stack output must replay to the same bytes");
    let render = |hists: &std::collections::BTreeMap<String, gr_trace::Histogram>| {
        hists
            .iter()
            .map(|(k, h)| format!("{k}={}", h.render_json()))
            .collect::<Vec<_>>()
            .join(";")
    };
    assert_eq!(render(&a.histograms), render(&b.histograms), "histogram digests must be stable");
}
