//! The near-miss table: deliberately broken programs, each of which must
//! not be detected as the idioms it names.
//!
//! Two test targets read it. `negative_corpus.rs` asserts every entry is
//! rejected with the default specs. `spec_irredundancy.rs` drops one
//! top-level conjunct at a time from the default specs, and an entry
//! that names a conjunct in `witness` must then be detected: it is the
//! program that shows the conjunct is needed. An entry marked
//! `conservative` is a shape that would be sound to exploit; its
//! conjunct is kept because widening detection is a change of its own.

use gr_core::ReductionKind::{self, *};

/// One near-miss program.
pub struct NearMiss {
    /// Name of the test asserting the rejection.
    pub name: &'static str,
    /// The idioms it must not be detected as.
    pub kinds: &'static [ReductionKind],
    /// The conjunct only this program rejects, named as the sweep names
    /// it (`scope: conjunct`), or `None` for a near-miss that guards a
    /// whole idiom.
    pub witness: Option<&'static str>,
    /// Whether the rejected shape would be sound to exploit.
    pub conservative: bool,
    /// Mini-C source.
    pub src: &'static str,
}

/// Every near-miss, in the order the tests and the sweep visit them.
pub const NEAR_MISSES: &[NearMiss] = &[
    // for-loop: a float counter. Its trip count depends on rounding, and
    // chunking assumes an integer induction.
    NearMiss {
        name: "loop_with_float_counter",
        kinds: &[Scalar],
        witness: Some("counted-loop: TypeInt(iterator)"),
        conservative: false,
        src: "float k(float* a, float n) {
             float s = 0.0;
             for (float x = 0.0; x < n; x = x + 1.0) { int i = x; s += a[i]; }
             return s;
         }",
    },
    // for-loop: the step is read from memory each iteration, so the
    // iteration space is not known in advance.
    NearMiss {
        name: "loop_with_variable_step",
        kinds: &[Scalar],
        witness: Some("counted-loop: InvariantIn { value: iter_step, header: header }"),
        conservative: false,
        src: "float k(float* a, int* st, int n) {
             float s = 0.0;
             for (int i = 0; i < n; i = i + st[i]) s += a[i];
             return s;
         }",
    },
    // for-loop: a geometric induction; chunks of an arithmetic range
    // would visit the wrong indices.
    NearMiss {
        name: "loop_with_doubling_step",
        kinds: &[Scalar],
        witness: Some("counted-loop: Opcode { l: next_iter, class: Add }"),
        conservative: false,
        src: "float k(float* a, int n) {
             float s = 0.0;
             for (int i = 1; i < n; i = i * 2) s += a[i];
             return s;
         }",
    },
    // early-exit: a `continue` jumps back to the header with a step of 2,
    // a second back edge the search's stride-1 chunks would ignore.
    NearMiss {
        name: "search_loop_with_a_second_back_edge",
        kinds: &[FindFirst],
        witness: Some("counted-loop: PhiArity { phi: iterator, n: 2 }"),
        conservative: false,
        src: "int k(int* a, int x, int n) {
             int r = -1;
             int i = 0;
             while (i < n) {
                 if (a[i] < 0) { i = i + 2; continue; }
                 if (a[i] == x) { r = i; break; }
                 i = i + 1;
             }
             return r;
         }",
    },
    // scalar-reduction: the accumulator steers a branch over *other*
    // state (the paper's §2 counterexample): privatizing it would change
    // which iterations update the array and the sums.
    NearMiss {
        name: "scalar_accumulator_in_foreign_guard",
        kinds: &[Scalar],
        witness: None,
        conservative: false,
        src: "void ep(float* x, float* q, float* sums, int nk) {
             float sx = 0.0;
             for (int i = 0; i < nk; i++) {
                 float x1 = 2.0 * x[i] - 1.0;
                 if (x1 <= sx) {
                     q[i] = x1;
                     sx = sx + x1;
                 }
             }
             sums[0] = sx;
         }",
    },
    // scalar-reduction: the carried value is a pointer, kept at the lower
    // of two addresses; no reduction operator merges pointers.
    NearMiss {
        name: "scalar_over_a_pointer",
        kinds: &[Scalar],
        witness: Some("scalar-reduction: TypeScalar(acc)"),
        conservative: false,
        src: "float k(float* a, float* b, int n) {
             for (int i = 0; i < n; i++) { if (b[i] > 0.0) { if (b < a) a = b; } }
             return a[0];
         }",
    },
    // scalar-reduction: `sy` adds the other accumulator `sx`, so neither
    // privatizes on its own.
    NearMiss {
        name: "scalar_coupled_accumulators",
        kinds: &[Scalar],
        witness: Some("scalar-reduction: ComputedOnlyFrom { output: acc_next, header: header, iterator: iterator, allowed: [acc] }"),
        conservative: false,
        src: "void k(float* a, float* out, int n) {
             float sx = 0.0; float sy = 0.0;
             for (int i = 0; i < n; i++) { sx += a[i]; sy += sx; }
             out[0] = sx; out[1] = sy;
         }",
    },
    // scalar-reduction: the accumulator is an address, so iteration k's
    // read depends on every prior update and partials cannot merge.
    NearMiss {
        name: "scalar_accumulator_as_index",
        kinds: &[Scalar],
        witness: None,
        conservative: false,
        src: "int k(int* a, int n) {
             int s = 0;
             for (int i = 0; i < n; i++) s += a[s];
             return s;
         }",
    },
    // histogram-reduction: the loaded cell differs from the stored cell,
    // a stencil with cross-iteration order dependence.
    NearMiss {
        name: "histogram_reads_a_different_cell",
        kinds: &[Histogram],
        witness: None,
        conservative: false,
        src: "void k(int* h, int* key, int n) {
             for (int i = 0; i < n; i++) h[key[i]] = h[63 - key[i]] + 1;
         }",
    },
    // histogram-reduction: the loop reads a bin besides the update, so
    // private copies would show it a partial count.
    NearMiss {
        name: "histogram_bin_read_outside_the_update",
        kinds: &[Histogram],
        witness: Some("histogram-reduction: OnlyObjectAccesses { ptr: base, header: header, allowed: [old, store] }"),
        conservative: false,
        src: "void k(int* h, int* key, int* out, int n) {
             for (int i = 0; i < n; i++) { h[key[i]]++; out[i] = h[0]; }
         }",
    },
    // histogram-reduction: the old bin value escapes into another array,
    // which would see a private partial count.
    NearMiss {
        name: "histogram_old_value_escapes",
        kinds: &[Histogram],
        witness: Some("histogram-reduction: UsesConfinedTo { source: old, header: header, terminals: [store] }"),
        conservative: false,
        src: "void k(int* h, int* key, int* out, int n) {
             for (int i = 0; i < n; i++) { int v = h[key[i]]; h[key[i]] = v + 1; out[i] = v; }
         }",
    },
    // histogram-reduction: the bins are a fresh array each iteration, not
    // one histogram the loop accumulates into.
    NearMiss {
        name: "histogram_bins_declared_in_the_loop",
        kinds: &[Histogram],
        witness: Some("histogram-reduction: InvariantIn { value: base, header: header }"),
        conservative: false,
        src: "int k(int* key, int n) {
             int t = 0;
             for (int i = 0; i < n; i++) { int h[64]; h[key[i]] = h[key[i]] + 1; t = t + 1; }
             return t;
         }",
    },
    // prefix-scan: the running value lands in one fixed cell, so a
    // privatized replay would lose the order of the stores.
    NearMiss {
        name: "scan_with_constant_output_index",
        kinds: &[Scan],
        witness: None,
        conservative: false,
        src: "void k(float* a, float* out, int n) {
             float s = 0.0;
             for (int i = 0; i < n; i++) { s += a[i]; out[0] = s; }
         }",
    },
    // histogram-reduction: the bin increment is a second carried value,
    // so a chunk cannot start without the previous chunk's last key.
    NearMiss {
        name: "histogram_adds_a_carried_value",
        kinds: &[Histogram],
        witness: Some("histogram-reduction: ComputedOnlyFrom { output: newv, header: header, iterator: iterator, allowed: [old] }"),
        conservative: false,
        src: "void k(int* h, int* key, int n) {
             int prev = 0;
             for (int i = 0; i < n; i++) { h[key[i]] = h[key[i]] + prev; prev = key[i]; }
         }",
    },
    // prefix-scan: the output array is also read in the loop, a second
    // loop-carried dependence beside the accumulator.
    NearMiss {
        name: "scan_output_read_back",
        kinds: &[Scan],
        witness: None,
        conservative: false,
        src: "void k(float* a, float* out, int n) {
             float s = 0.0;
             for (int i = 1; i < n; i++) { s += a[i] + out[i - 1]; out[i] = s; }
         }",
    },
    // prefix-scan: the update reads a second carried value, so a chunk
    // cannot replay without the previous chunk's last element.
    NearMiss {
        name: "scan_with_carried_operand",
        kinds: &[Scan],
        witness: Some("prefix-scan: ComputedOnlyFrom { output: acc_next, header: header, iterator: iterator, allowed: [acc] }"),
        conservative: false,
        src: "void k(float* a, float* out, int n) {
             float s = 0.0;
             float prev = 0.0;
             for (int i = 0; i < n; i++) { s += a[i] * prev; prev = a[i]; out[i] = s; }
         }",
    },
    // prefix-scan: the running value also feeds a second accumulator, a
    // use outside the output store that the scan's chunk replay does not
    // carry; the outliner refuses the loop as carrying state that is not
    // a detected reduction.
    NearMiss {
        name: "scan_feeds_a_second_accumulator",
        kinds: &[Scan],
        witness: Some("prefix-scan: UsesConfinedTo { source: acc, header: header, terminals: [store] }"),
        conservative: false,
        src: "float k(float* a, float* out, int n) {
             float s = 0.0;
             float t = 0.0;
             for (int i = 0; i < n; i++) { s += a[i]; out[i] = s; t += s; }
             return t;
         }",
    },
    // prefix-scan: the loop reads an output cell an earlier iteration
    // wrote, which a chunk replaying in parallel may not have written yet.
    NearMiss {
        name: "scan_output_read_into_another_array",
        kinds: &[Scan],
        witness: Some("prefix-scan: OnlyObjectAccesses { ptr: out_base, header: header, allowed: [store] }"),
        conservative: false,
        src: "void k(float* a, float* out, float* b, int n) {
             float s = 0.0;
             for (int i = 1; i < n; i++) { s += a[i]; out[i] = s; b[i] = out[i - 1]; }
         }",
    },
    // prefix-scan: the output is a fresh array each iteration, not one
    // array the scan fills.
    NearMiss {
        name: "scan_output_declared_in_the_loop",
        kinds: &[Scan],
        witness: Some("prefix-scan: InvariantIn { value: out_base, header: header }"),
        conservative: false,
        src: "float k(float* a, int n) {
             float s = 0.0;
             float t = 0.0;
             for (int i = 0; i < n; i++) { float o[64]; s += a[i]; o[i] = s; t = t + 1.0; }
             return s + t;
         }",
    },
    // prefix-scan: the running value is stored inside an inner loop, not
    // once per iteration. Conservative: storing the same value m times
    // would replay correctly.
    NearMiss {
        name: "scan_stored_in_an_inner_loop",
        kinds: &[Scan],
        witness: Some("prefix-scan: AnchoredTo { inst: store, header: header }"),
        conservative: true,
        src: "void k(float* a, float* out, int n, int m) {
             float s = 0.0;
             for (int i = 0; i < n; i++) { s += a[i]; for (int j = 0; j < m; j++) out[i] = s; }
         }",
    },
    // argmin-argmax: the exchange compares against a *moving* third
    // value, so a block-level replay cannot reproduce the exchanges.
    NearMiss {
        name: "argmin_exchange_against_moving_reference",
        kinds: &[ArgMin, ArgMax],
        witness: None,
        conservative: false,
        src: "int k(float* a, int n) {
             float ref = 0.0;
             float best = 1.0e30;
             int bi = -1;
             for (int i = 0; i < n; i++) {
                 float v = a[i];
                 ref = ref + 1.0;
                 if (v < best - ref) { best = v; bi = i; }
             }
             return bi;
         }",
    },
    // argmin-argmax: the candidate is a running sum, a carried value
    // each chunk would restart from zero.
    NearMiss {
        name: "argmin_of_a_running_sum",
        kinds: &[ArgMin, ArgMax],
        witness: Some("argmin-argmax: ComputedOnlyFrom { output: cand, header: header, iterator: iterator, allowed: [] }"),
        conservative: false,
        src: "int k(float* a, int n) {
             float best = 1.0e30;
             int bi = -1;
             float t = 0.0;
             for (int i = 0; i < n; i++) { t = t + a[i]; if (t < best) { best = t; bi = i; } }
             return bi;
         }",
    },
    // find-first: an impure early-exit body; speculative chunks past the
    // sequential hit would write observable memory.
    NearMiss {
        name: "find_first_with_impure_body",
        kinds: &[FindFirst],
        witness: None,
        conservative: false,
        src: "int k(int* a, int* log, int x, int n) {
             int r = -1;
             for (int i = 0; i < n; i++) {
                 log[i] = a[i];
                 if (a[i] == x) { r = i; break; }
             }
             return r;
         }",
    },
    // find-first: the break arm stores before leaving, so it is no
    // trampoline and speculation past the hit would write.
    NearMiss {
        name: "find_first_with_store_in_break_arm",
        kinds: &[FindFirst],
        witness: Some("early-exit: OnlyTerminator { block: break_blk }"),
        conservative: false,
        src: "int k(int* a, int* out, int x, int n) {
             int r = n;
             for (int i = 0; i < n; i++) {
                 if (a[i] == x) { out[0] = i; r = i; break; }
             }
             return r;
         }",
    },
    // find-first: the needle moves with the iterator (the first index
    // where two arrays agree). Conservative: a pure search with a
    // per-iteration needle would be sound to speculate.
    NearMiss {
        name: "find_first_with_moving_needle",
        kinds: &[FindFirst],
        witness: Some("find-first: InvariantIn { value: needle, header: header }"),
        conservative: true,
        src: "int k(int* a, int* b, int n) {
             int r = n;
             for (int i = 0; i < n; i++) {
                 if (a[i] == b[i]) { r = i; break; }
             }
             return r;
         }",
    },
    // find-first: the candidate is a running sum, a carried value each
    // speculative chunk would restart from zero.
    NearMiss {
        name: "find_first_of_a_running_sum",
        kinds: &[FindFirst],
        witness: Some("find-first: ComputedOnlyFrom { output: cand, header: header, iterator: iterator, allowed: [] }"),
        conservative: false,
        src: "int k(int* a, int x, int n) {
             int r = -1;
             int t = 0;
             for (int i = 0; i < n; i++) { t = t + a[i]; if (t == x) { r = i; break; } }
             return r;
         }",
    },
    // find-first: the not-found default changes every iteration, so it is
    // not known before the loop.
    NearMiss {
        name: "find_first_with_moving_default",
        kinds: &[FindFirst],
        witness: Some("find-first: InvariantIn { value: res_default, header: header }"),
        conservative: false,
        src: "int k(int* a, int x, int n) {
             int r = 0;
             for (int i = 0; i < n; i++) { if (a[i] == x) { r = i; break; } r = r + 2; }
             return r;
         }",
    },
    // any-all-of: the break arm carries computation, so the exit value
    // is not a pinned constant.
    NearMiss {
        name: "any_of_with_computed_break_value",
        kinds: &[AnyOf],
        witness: None,
        conservative: false,
        src: "int k(int* a, int x, int n) {
             int r = 0;
             for (int i = 0; i < n; i++) {
                 if (a[i] == x) { r = i * 2 + 1; break; }
             }
             return r;
         }",
    },
    // any-all-of: the needle moves with the iterator. Conservative: a
    // pure search with a per-iteration needle would be sound to speculate.
    NearMiss {
        name: "any_of_with_moving_needle",
        kinds: &[AnyOf, AllOf],
        witness: Some("any-all-of: InvariantIn { value: needle, header: header }"),
        conservative: true,
        src: "int k(int* a, int* b, int n) {
             int found = 0;
             for (int i = 0; i < n; i++) { if (a[i] == b[i]) { found = 1; break; } }
             return found;
         }",
    },
    // any-all-of: the not-found default is 5, not the other flag value.
    // Conservative: the exit phi forwards its real default.
    NearMiss {
        name: "any_of_with_default_five",
        kinds: &[AnyOf, AllOf],
        witness: Some("any-all-of: PhiIncoming { phi: res, value: res_default, block: header }"),
        conservative: true,
        src: "int k(int* a, int x, int n) {
             int found = 5;
             for (int i = 0; i < n; i++) { if (a[i] == x) { found = 1; break; } }
             return found;
         }",
    },
    // any-all-of: the all-of form with a default of 5. Conservative, as
    // above.
    NearMiss {
        name: "all_of_with_default_five",
        kinds: &[AnyOf, AllOf],
        witness: Some("any-all-of: Or((IsConstInt { l: brk_val, value: 1 } & IsConstInt { l: res_default, value: 0 }) | (IsConstInt { l: brk_val, value: 0 } & IsConstInt { l: res_default, value: 1 }))"),
        conservative: true,
        src: "int k(int* a, int x, int n) {
             int ok = 5;
             for (int i = 0; i < n; i++) { if (a[i] > x) { ok = 0; break; } }
             return ok;
         }",
    },
    // find-min-index-early: the threshold moves inside the loop, so the
    // exit set depends on iteration order.
    NearMiss {
        name: "find_min_index_with_moving_threshold",
        kinds: &[FindMinIndex],
        witness: None,
        conservative: false,
        src: "int k(float* a, float bound, int n) {
             int r = -1;
             for (int i = 0; i < n; i++) {
                 bound = bound * 0.5;
                 if (a[i] < bound) { r = i; break; }
             }
             return r;
         }",
    },
    // find-min-index-early: the result is a flag, not the iterator: an
    // all-of, which must not be reported as an index search.
    NearMiss {
        name: "find_min_index_with_flag_result",
        kinds: &[FindMinIndex],
        witness: Some("find-min-index-early: PhiIncoming { phi: res, value: iterator, block: break_blk }"),
        conservative: false,
        src: "int k(float* a, float limit, int n) {
             int ok = 1;
             for (int i = 0; i < n; i++) {
                 if (a[i] >= limit) { ok = 0; break; }
             }
             return ok;
         }",
    },
    // find-min-index-early: the not-found default changes every
    // iteration.
    NearMiss {
        name: "find_min_index_with_moving_default",
        kinds: &[FindMinIndex],
        witness: Some("find-min-index-early: InvariantIn { value: res_default, header: header }"),
        conservative: false,
        src: "int k(float* a, float bound, int n) {
             int r = 0;
             for (int i = 0; i < n; i++) { if (a[i] < bound) { r = i; break; } r = r + 2; }
             return r;
         }",
    },
    // fold-until-sentinel: the exit guard reads the accumulator, so the
    // stop point depends on the fold itself, which chunks seeded with the
    // identity cannot reproduce.
    NearMiss {
        name: "fold_until_accumulator_in_exit_guard",
        kinds: &[FoldUntil],
        witness: None,
        conservative: false,
        src: "int k(int* a, int limit, int n) {
             int s = 0;
             for (int i = 0; i < n; i++) {
                 s = s + a[i];
                 if (s > limit) break;
             }
             return s;
         }",
    },
    // fold-until-sentinel: the update reads a second carried value, so a
    // chunk cannot start without the previous chunk's last element.
    NearMiss {
        name: "fold_until_with_carried_operand",
        kinds: &[FoldUntil],
        witness: Some("fold-until-sentinel: ComputedOnlyFrom { output: acc_next, header: header, iterator: iterator, allowed: [acc] }"),
        conservative: false,
        src: "float k(float* a, float stop, int n) {
             float s = 0.0;
             float prev = 0.0;
             for (int i = 0; i < n; i++) {
                 if (a[i] == stop) break;
                 s += a[i] * prev;
                 prev = a[i];
             }
             return s;
         }",
    },
    // fold-until-sentinel: the sentinel moves with the iterator.
    // Conservative: a pure guard with a per-iteration needle would be
    // sound to speculate.
    NearMiss {
        name: "fold_until_with_moving_needle",
        kinds: &[FoldUntil],
        witness: Some("fold-until-sentinel: InvariantIn { value: needle, header: header }"),
        conservative: true,
        src: "int k(int* a, int* b, int n) {
             int s = 0;
             for (int i = 0; i < n; i++) { if (a[i] == b[i]) break; s = s + a[i]; }
             return s;
         }",
    },
    // fold-until-sentinel: the guard compares a value with itself.
    // Conservative: an invariant guard would speculate correctly.
    NearMiss {
        name: "fold_until_guard_compares_a_value_with_itself",
        kinds: &[FoldUntil],
        witness: Some("fold-until-sentinel: NotEqual { a: needle, b: cand }"),
        conservative: true,
        src: "int k(int* a, int x, int n) {
             int s = 0;
             for (int i = 0; i < n; i++) { int t = x + 1; if (t == t) break; s = s + a[i]; }
             return s;
         }",
    },
    // fold-until-sentinel: the only carried value is the iterator, which
    // must not be reported as a fold: chunks seed a fold with its
    // identity, but the iterator's value is the chunk's position.
    NearMiss {
        name: "fold_until_of_the_iterator",
        kinds: &[FoldUntil],
        witness: Some("fold-until-sentinel: NotEqual { a: acc, b: iterator }"),
        conservative: false,
        src: "int k(int* a, int x, int n) {
             int i = 0;
             while (i < n) { if (a[0] == x) break; i = i + 1; }
             return i;
         }",
    },
    // fold-until-sentinel: the carried value is a pointer, kept at the
    // lower of two addresses; no reduction operator merges pointers.
    NearMiss {
        name: "fold_until_over_a_pointer",
        kinds: &[FoldUntil],
        witness: Some("fold-until-sentinel: TypeScalar(acc)"),
        conservative: false,
        src: "float k(float* a, float* b, float x, int n) {
             for (int i = 0; i < n; i++) { if (b[i] == x) break; if (b < a) a = b; }
             return a[0];
         }",
    },
    // find-last: an upward loop must classify as find-first, never as
    // find-last (the two partition on the sign of the induction step).
    NearMiss {
        name: "find_last_requires_downward_step",
        kinds: &[FindLast],
        witness: None,
        conservative: false,
        src: "int k(int* a, int x, int n) {
             int r = -1;
             for (int i = 0; i < n; i++) {
                 if (a[i] == x) { r = i; break; }
             }
             return r;
         }",
    },
    // find-last: the needle moves with the iterator. Conservative, as
    // for find-first.
    NearMiss {
        name: "find_last_with_moving_needle",
        kinds: &[FindLast],
        witness: Some("find-last: InvariantIn { value: needle, header: header }"),
        conservative: true,
        src: "int k(int* a, int* b, int n) {
             int r = -1;
             for (int i = n - 1; i >= 0; i = i + -1) { if (a[i] == b[i]) { r = i; break; } }
             return r;
         }",
    },
    // find-last: the candidate is a running sum, a carried value each
    // speculative chunk would restart from zero.
    NearMiss {
        name: "find_last_of_a_running_sum",
        kinds: &[FindLast],
        witness: Some("find-last: ComputedOnlyFrom { output: cand, header: header, iterator: iterator, allowed: [] }"),
        conservative: false,
        src: "int k(int* a, int x, int n) {
             int r = -1;
             int t = 0;
             for (int i = n - 1; i >= 0; i = i + -1) { t = t + a[i]; if (t == x) { r = i; break; } }
             return r;
         }",
    },
    // find-last: the result is a flag, not the iterator: an all-of,
    // which must not be reported as an index search.
    NearMiss {
        name: "find_last_with_flag_result",
        kinds: &[FindLast],
        witness: Some("find-last: PhiIncoming { phi: res, value: iterator, block: break_blk }"),
        conservative: false,
        src: "int k(int* a, int x, int n) {
             int ok = 1;
             for (int i = n - 1; i >= 0; i = i + -1) { if (a[i] == x) { ok = 0; break; } }
             return ok;
         }",
    },
    // find-last: the not-found default changes every iteration.
    NearMiss {
        name: "find_last_with_moving_default",
        kinds: &[FindLast],
        witness: Some("find-last: InvariantIn { value: res_default, header: header }"),
        conservative: false,
        src: "int k(int* a, int x, int n) {
             int r = 0;
             for (int i = n - 1; i >= 0; i = i + -1) { if (a[i] == x) { r = i; break; } r = r + 2; }
             return r;
         }",
    },
    // map-reduce-fusion: the intermediate is read *after* the reduction,
    // so eliding it would return garbage from the stubbed producer.
    NearMiss {
        name: "fusion_intermediate_read_after_reduction",
        kinds: &[MapReduceFusion],
        witness: None,
        conservative: false,
        src: "float k(float* a, int n) {
             float tmp[2048];
             for (int i = 0; i < n; i++) tmp[i] = a[i] * a[i];
             float s = 0.0;
             for (int j = 0; j < n; j++) s += tmp[j];
             return s + tmp[0];
         }",
    },
    // map-reduce-fusion: the producer writes the intermediate backwards,
    // so a fused iteration would read an element not yet produced.
    NearMiss {
        name: "fusion_producer_writes_reversed",
        kinds: &[MapReduceFusion],
        witness: Some("map-reduce-fusion: OperandIs { inst: p_addr, index: 1, value: iterator }"),
        conservative: false,
        src: "float k(float* a, int n) {
             float tmp[4096];
             for (int i = 0; i < n; i++) tmp[n - 1 - i] = a[i] * a[i];
             float s = 0.0;
             for (int j = 0; j < n; j++) s += tmp[j];
             return s;
         }",
    },
    // map-reduce-fusion: the consumer reads the intermediate backwards,
    // so a fused iteration would read an element not yet produced.
    NearMiss {
        name: "fusion_consumer_reads_reversed",
        kinds: &[MapReduceFusion],
        witness: Some("map-reduce-fusion: OperandIs { inst: c_addr, index: 1, value: iterator_r }"),
        conservative: false,
        src: "float k(float* a, int n) {
             float tmp[4096];
             for (int i = 0; i < n; i++) tmp[i] = a[i] * a[i];
             float s = 0.0;
             for (int j = 0; j < n; j++) s += tmp[n - 1 - j];
             return s;
         }",
    },
    // map-reduce-fusion: the producer writes only some elements, and the
    // consumer reads the rest uninitialized.
    NearMiss {
        name: "fusion_conditional_producer_store",
        kinds: &[MapReduceFusion],
        witness: Some("map-reduce-fusion: BlockOf { inst: p_store, block: body }"),
        conservative: false,
        src: "float k(float* a, int n) {
             float tmp[2048];
             for (int i = 0; i < n; i++) { if (a[i] > 0.0) tmp[i] = a[i]; }
             float s = 0.0;
             for (int j = 0; j < n; j++) s += tmp[j];
             return s;
         }",
    },
    // map-reduce-fusion: the consumer folds another array; fusing would
    // fold the producer's values instead.
    NearMiss {
        name: "fusion_consumer_reads_another_array",
        kinds: &[MapReduceFusion],
        witness: Some("map-reduce-fusion: OperandIs { inst: c_addr, index: 0, value: tmp_base }"),
        conservative: false,
        src: "float k(float* a, float* b, int n) {
             float tmp[2048];
             for (int i = 0; i < n; i++) tmp[i] = a[i] * a[i];
             float s = 0.0;
             for (int j = 0; j < n; j++) s += b[j];
             return s;
         }",
    },
    // map-reduce-fusion: the consumer reads the intermediate inside an
    // inner loop. Conservative: the fused body could repeat the read.
    NearMiss {
        name: "fusion_consumer_reads_in_an_inner_loop",
        kinds: &[MapReduceFusion],
        witness: Some("map-reduce-fusion: AnchoredTo { inst: c_load, header: header_r }"),
        conservative: true,
        src: "float k(float* a, int n, int m) {
             float tmp[2048];
             for (int i = 0; i < n; i++) tmp[i] = a[i] * a[i];
             float s = 0.0;
             for (int j = 0; j < n; j++) { for (int q = 0; q < m; q++) s += tmp[j]; }
             return s;
         }",
    },
    // map-reduce-fusion: the consumer's update reads a second carried
    // value.
    NearMiss {
        name: "fusion_consumer_with_carried_operand",
        kinds: &[MapReduceFusion],
        witness: Some("map-reduce-fusion: ComputedOnlyFrom { output: acc_next, header: header_r, iterator: iterator_r, allowed: [acc] }"),
        conservative: false,
        src: "float k(float* a, int n) {
             float tmp[2048];
             for (int i = 0; i < n; i++) tmp[i] = a[i] * a[i];
             float s = 0.0;
             float prev = 0.0;
             for (int j = 0; j < n; j++) { float v = tmp[j]; s += v * prev; prev = v; }
             return s;
         }",
    },
    // map-reduce-fusion: the consumer carries a pointer, not a scalar.
    NearMiss {
        name: "fusion_consumer_carries_a_pointer",
        kinds: &[MapReduceFusion],
        witness: Some("map-reduce-fusion: TypeScalar(acc)"),
        conservative: false,
        src: "float k(float* a, float* b, int n) {
             float tmp[2048];
             for (int i = 0; i < n; i++) tmp[i] = a[i] * a[i];
             for (int j = 0; j < n; j++) { float v = tmp[j]; if (v > 0.0) { if (b < a) a = b; } }
             return a[0];
         }",
    },
    // map-reduce-fusion: the intermediate is a caller-visible argument
    // that may alias the producer's input; the post-check refuses.
    NearMiss {
        name: "fusion_intermediate_aliases_an_input",
        kinds: &[MapReduceFusion],
        witness: None,
        conservative: false,
        src: "float k(float* a, float* tmp, int n) {
             for (int i = 0; i < n; i++) tmp[i] = a[i] * a[i];
             float s = 0.0;
             for (int j = 0; j < n; j++) s += tmp[j];
             return s;
         }",
    },
    // map-reduce-fusion: a write between the loops touches the producer's
    // input, so fusing would read the updated value.
    NearMiss {
        name: "fusion_with_intervening_write",
        kinds: &[MapReduceFusion],
        witness: None,
        conservative: false,
        src: "float k(float* a, int n) {
             float tmp[2048];
             for (int i = 0; i < n; i++) tmp[i] = a[i] * a[i];
             a[0] = 9.0;
             float s = 0.0;
             for (int j = 0; j < n; j++) s += tmp[j];
             return s;
         }",
    },
    // map-reduce-fusion: producer and consumer ranges differ, so the
    // consumer would fold elements the producer never wrote.
    NearMiss {
        name: "fusion_with_mismatched_trip_counts",
        kinds: &[MapReduceFusion],
        witness: None,
        conservative: false,
        src: "float k(float* a, int n, int m) {
             float tmp[2048];
             for (int i = 0; i < n; i++) tmp[i] = a[i] * a[i];
             float s = 0.0;
             for (int j = 0; j < m; j++) s += tmp[j];
             return s;
         }",
    },
    // map-reduce-fusion: the producer carries a running value; that is a
    // scan materialization, and recomputing it per iteration in the fused
    // body would be wrong.
    NearMiss {
        name: "fusion_with_carried_producer_state",
        kinds: &[MapReduceFusion],
        witness: None,
        conservative: false,
        src: "float k(float* a, int n) {
             float tmp[2048];
             float run = 0.0;
             for (int i = 0; i < n; i++) { run += a[i]; tmp[i] = run; }
             float s = 0.0;
             for (int j = 0; j < n; j++) s += tmp[j];
             return s;
         }",
    },
];
