//! The negative corpus: every near-miss of `near_misses/mod.rs` is
//! asserted *not detected* as the idioms it names, one named test each.
//!
//! In the spirit of CoreDiag-style redundancy analysis over constraint
//! sets, every spec earns its keep by what it rejects: a future
//! "simplification" that starts accepting one of these programs is a
//! semantics bug, not a coverage win — each would produce wrong results
//! under the corresponding exploitation template. `spec_irredundancy.rs`
//! reads the same table: a near-miss that names a conjunct is detected
//! once that conjunct is dropped. (The differential fuzzer sweeps
//! mutated near-misses at random; this file pins the canonical
//! counterexamples deterministically.)

mod near_misses;

use gr_core::{detect_reductions, ReductionKind};
use near_misses::NEAR_MISSES;

fn kinds(src: &str) -> Vec<ReductionKind> {
    detect_reductions(&gr_frontend::compile(src).unwrap())
        .iter()
        .map(|r| r.kind)
        .collect()
}

#[track_caller]
fn assert_rejected(name: &str) {
    let m = NEAR_MISSES.iter().find(|m| m.name == name).expect("a table entry");
    let role = match (m.witness, m.conservative) {
        (Some(w), false) => format!(", the witness of `{w}`,"),
        (Some(w), true) => format!(", the conservative witness of `{w}`,"),
        (None, _) => String::new(),
    };
    let ks = kinds(m.src);
    for kind in m.kinds {
        assert!(
            !ks.contains(kind),
            "near-miss {name}{role} wrongly detected as {kind}: {ks:?}\n{}",
            m.src
        );
    }
}

/// One test per table entry, named after it.
macro_rules! near_miss_tests {
    ($($name:ident),* $(,)?) => {
        $(#[test] fn $name() { assert_rejected(stringify!($name)); })*
        const TESTED: &[&str] = &[$(stringify!($name)),*];
    };
}

near_miss_tests!(
    loop_with_float_counter,
    loop_with_variable_step,
    loop_with_doubling_step,
    search_loop_with_a_second_back_edge,
    scalar_accumulator_in_foreign_guard,
    scalar_over_a_pointer,
    scalar_coupled_accumulators,
    scalar_accumulator_as_index,
    histogram_reads_a_different_cell,
    histogram_bin_read_outside_the_update,
    histogram_old_value_escapes,
    histogram_bins_declared_in_the_loop,
    scan_with_constant_output_index,
    histogram_adds_a_carried_value,
    scan_output_read_back,
    scan_with_carried_operand,
    scan_feeds_a_second_accumulator,
    scan_output_read_into_another_array,
    scan_output_declared_in_the_loop,
    scan_stored_in_an_inner_loop,
    argmin_exchange_against_moving_reference,
    argmin_of_a_running_sum,
    find_first_with_impure_body,
    find_first_with_store_in_break_arm,
    find_first_with_moving_needle,
    find_first_of_a_running_sum,
    find_first_with_moving_default,
    any_of_with_computed_break_value,
    any_of_with_moving_needle,
    any_of_with_default_five,
    all_of_with_default_five,
    find_min_index_with_moving_threshold,
    find_min_index_with_flag_result,
    find_min_index_with_moving_default,
    fold_until_accumulator_in_exit_guard,
    fold_until_with_carried_operand,
    fold_until_with_moving_needle,
    fold_until_guard_compares_a_value_with_itself,
    fold_until_of_the_iterator,
    fold_until_over_a_pointer,
    find_last_requires_downward_step,
    find_last_with_moving_needle,
    find_last_of_a_running_sum,
    find_last_with_flag_result,
    find_last_with_moving_default,
    fusion_intermediate_read_after_reduction,
    fusion_producer_writes_reversed,
    fusion_consumer_reads_reversed,
    fusion_conditional_producer_store,
    fusion_consumer_reads_another_array,
    fusion_consumer_reads_in_an_inner_loop,
    fusion_consumer_with_carried_operand,
    fusion_consumer_carries_a_pointer,
    fusion_intermediate_aliases_an_input,
    fusion_with_intervening_write,
    fusion_with_mismatched_trip_counts,
    fusion_with_carried_producer_state,
);

#[test]
fn every_near_miss_has_its_test() {
    let table: Vec<&str> = NEAR_MISSES.iter().map(|m| m.name).collect();
    assert_eq!(table, TESTED, "near_miss_tests! must list the table's entries in order");
}

/// Every idiom's near-misses still have a detectable positive twin:
/// guard against the corpus accidentally testing programs the detector
/// would never see (e.g. a syntax shape the frontend canonicalizes away).
#[test]
fn positive_twins_are_detected() {
    assert!(kinds(
        "float k(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }"
    )
    .contains(&ReductionKind::Scalar));
    assert!(kinds(
        "void k(int* h, int* key, int n) { for (int i = 0; i < n; i++) h[key[i]] = h[key[i]] + 1; }"
    )
    .contains(&ReductionKind::Histogram));
    assert!(kinds(
        "void k(float* a, float* out, int n) { float s = 0.0; for (int i = 0; i < n; i++) { s += a[i]; out[i] = s; } }"
    )
    .contains(&ReductionKind::Scan));
    assert!(kinds(
        "int k(float* a, int n) {
             float best = 1.0e30; int bi = -1;
             for (int i = 0; i < n; i++) { float v = a[i]; if (v < best) { best = v; bi = i; } }
             return bi;
         }"
    )
    .contains(&ReductionKind::ArgMin));
    assert!(kinds(
        "int k(int* a, int x, int n) {
             int r = -1;
             for (int i = 0; i < n; i++) { if (a[i] == x) { r = i; break; } }
             return r;
         }"
    )
    .contains(&ReductionKind::FindFirst));
    assert!(kinds(
        "int k(int* a, int x, int n) {
             int r = 0;
             for (int i = 0; i < n; i++) { if (a[i] == x) { r = 1; break; } }
             return r;
         }"
    )
    .contains(&ReductionKind::AnyOf));
    assert!(kinds(
        "int k(float* a, float bound, int n) {
             int r = -1;
             for (int i = 0; i < n; i++) { if (a[i] < bound) { r = i; break; } }
             return r;
         }"
    )
    .contains(&ReductionKind::FindMinIndex));
    assert!(kinds(
        "int k(int* a, int stop, int n) {
             int s = 0;
             for (int i = 0; i < n; i++) { if (a[i] == stop) break; s = s + a[i]; }
             return s;
         }"
    )
    .contains(&ReductionKind::FoldUntil));
    assert!(kinds(
        "int k(int* a, int x, int n) {
             int r = -1;
             for (int i = n - 1; i >= 0; i = i + -1) { if (a[i] == x) { r = i; break; } }
             return r;
         }"
    )
    .contains(&ReductionKind::FindLast));
    assert!(kinds(
        "float k(float* a, int n) {
             float tmp[2048];
             for (int i = 0; i < n; i++) tmp[i] = a[i] * a[i];
             float s = 0.0;
             for (int j = 0; j < n; j++) s += tmp[j];
             return s;
         }"
    )
    .contains(&ReductionKind::MapReduceFusion));
}
