//! Measurement harness: detection counts (Figures 8–11), runtime coverage
//! (Figures 12–14) and detection timing (§6.1's compile-time cost).

use crate::program::{Paper, ProgramDef};
use gr_analysis::Analyses;
use gr_baselines::{icc_detect, polly_detect};
use gr_core::{detect_reductions, ReductionKind};
use std::time::{Duration, Instant};

/// Detection results for one program, measured against this repository's
/// detectors, next to the paper-reported values.
#[derive(Debug, Clone)]
pub struct DetectionRow {
    /// Program name.
    pub name: &'static str,
    /// Scalar reductions found by the constraint system.
    pub scalar: usize,
    /// Histogram reductions found by the constraint system.
    pub histogram: usize,
    /// Prefix scans found by the constraint system.
    pub scan: usize,
    /// Argmin/argmax reductions found by the constraint system.
    pub arg: usize,
    /// Early-exit searches (find-first, any-of/all-of, find-min-index,
    /// find-last) found by the constraint system.
    pub search: usize,
    /// Speculative folds (fold-until-sentinel) found by the constraint
    /// system.
    pub fold_until: usize,
    /// Map-reduce fusions (producer loop + reduction loop over a local
    /// intermediate) found by the constraint system.
    pub fusion: usize,
    /// Reductions found by the icc model.
    pub icc: usize,
    /// Reduction SCoPs found by the Polly model.
    pub polly_reductions: usize,
    /// Total SCoPs found by the Polly model.
    pub scops: usize,
    /// Wall time of the constraint-based detection (the paper reports an
    /// average of 3.77 s per benchmark for theirs).
    pub detect_time: Duration,
    /// Paper-reported values.
    pub paper: Paper,
}

/// Runs every detector over one program.
#[must_use]
pub fn measure_detection(p: &ProgramDef) -> DetectionRow {
    let module = p.compile();
    let t0 = Instant::now();
    let ours = detect_reductions(&module);
    let detect_time = t0.elapsed();
    let scalar = ours.iter().filter(|r| r.kind == ReductionKind::Scalar).count();
    let histogram = ours.iter().filter(|r| r.kind == ReductionKind::Histogram).count();
    let scan = ours.iter().filter(|r| r.kind.is_scan()).count();
    let arg = ours.iter().filter(|r| r.kind.is_arg()).count();
    let search = ours.iter().filter(|r| r.kind.is_search()).count();
    let fold_until = ours.iter().filter(|r| r.kind.is_fold_until()).count();
    let fusion = ours.iter().filter(|r| r.kind.is_fusion()).count();
    let icc = icc_detect(&module).len();
    let polly = polly_detect(&module);
    DetectionRow {
        name: p.name,
        scalar,
        histogram,
        scan,
        arg,
        search,
        fold_until,
        fusion,
        icc,
        polly_reductions: polly.reduction_scop_count(),
        scops: polly.scop_count(),
        detect_time,
        paper: p.paper,
    }
}

/// Detection rows for a whole suite.
#[must_use]
pub fn measure_suite(programs: &[ProgramDef]) -> Vec<DetectionRow> {
    programs.iter().map(measure_detection).collect()
}

/// Runtime coverage of reduction regions for one program (Figures 12–14).
#[derive(Debug, Clone, Copy)]
pub struct CoverageRow {
    /// Program name.
    pub name: &'static str,
    /// Fraction of dynamic instructions inside scalar-reduction loops.
    pub scalar_coverage: f64,
    /// Fraction of dynamic instructions inside histogram loops.
    pub histogram_coverage: f64,
}

/// Profiles the standard workload and attributes instructions to reduction
/// loops. A loop containing at least one histogram counts as a histogram
/// region (that is the exploitation that matters, §6.2); other reduction
/// loops count as scalar regions.
#[must_use]
pub fn measure_coverage(p: &ProgramDef, scale: usize) -> CoverageRow {
    let module = p.compile();
    let reductions = detect_reductions(&module);
    let workload = (p.workload)(scale);
    let mut mem = gr_interp::memory::Memory::new(&module);
    let objs = workload.materialize(&mut mem);
    let mut machine = gr_interp::Machine::new(&module, mem);
    machine.enable_profile();
    for c in &workload.calls {
        let args = workload.resolve_args(c, &objs);
        machine
            .call(c.func, &args)
            .unwrap_or_else(|e| panic!("{}: workload call {} trapped: {e}", p.name, c.func));
    }
    let profile = machine.profile.as_ref().expect("profiling enabled");
    let total = profile.total_instructions(&module).max(1);

    // Group reductions by (function, loop header); histogram wins.
    let mut regions: Vec<(&str, gr_ir::BlockId, bool)> = Vec::new();
    for r in &reductions {
        let is_hist = r.kind == ReductionKind::Histogram;
        match regions.iter_mut().find(|(f, h, _)| *f == r.function.as_str() && *h == r.header) {
            Some((_, _, hist)) => *hist = *hist || is_hist,
            None => regions.push((r.function.as_str(), r.header, is_hist)),
        }
    }
    // Resolve regions to block sets, dropping regions nested inside other
    // regions of the same function (an inner dot-product inside a histogram
    // loop would otherwise be counted twice).
    let mut resolved: Vec<(&str, Vec<gr_ir::BlockId>, bool)> = Vec::new();
    for (fname, header, is_hist) in regions {
        let Some(func) = module.function(fname) else { continue };
        let analyses = Analyses::new(&module, func);
        let Some(lid) = analyses.loops.loop_with_header(header) else { continue };
        let blocks: Vec<gr_ir::BlockId> = analyses.loops.get(lid).blocks.iter().copied().collect();
        resolved.push((fname, blocks, is_hist));
    }
    let nested = |i: usize| {
        let (fi, bi, _) = &resolved[i];
        resolved.iter().enumerate().any(|(j, (fj, bj, _))| {
            j != i && fi == fj && bj.len() > bi.len() && bi.iter().all(|b| bj.contains(b))
        })
    };
    let keep: Vec<bool> = (0..resolved.len()).map(|i| !nested(i)).collect();
    let mut scalar_insts = 0u64;
    let mut hist_insts = 0u64;
    for (i, (fname, blocks, is_hist)) in resolved.iter().enumerate() {
        if !keep[i] {
            continue;
        }
        let Some(func) = module.function(fname) else { continue };
        let insts = profile.instructions_in(&module, func, blocks);
        if *is_hist {
            hist_insts += insts;
        } else {
            scalar_insts += insts;
        }
    }
    CoverageRow {
        name: p.name,
        scalar_coverage: scalar_insts as f64 / total as f64,
        histogram_coverage: hist_insts as f64 / total as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_sources_compile_and_verify() {
        for p in crate::all_programs() {
            let m = p.compile();
            assert!(gr_ir::verify::verify_module(&m).is_ok(), "{} failed verification", p.name);
        }
    }

    #[test]
    fn all_workloads_run() {
        for p in crate::all_programs() {
            let m = p.compile();
            let w = (p.workload)(1);
            let _machine = w.run(&m); // panics on any trap
        }
    }

    #[test]
    fn coverage_is_sane_for_histogram_programs() {
        for name in ["EP", "IS", "histo", "tpacf"] {
            let p = crate::all_programs().into_iter().find(|p| p.name == name).unwrap();
            let row = measure_coverage(&p, 1);
            assert!(
                row.histogram_coverage > 0.3,
                "{name}: histogram coverage {} too low",
                row.histogram_coverage
            );
            assert!(row.histogram_coverage <= 1.0);
        }
    }

    #[test]
    fn ep_detection_matches_paper_exactly() {
        let ep = crate::nas::programs().into_iter().find(|p| p.name == "EP").unwrap();
        let row = measure_detection(&ep);
        assert_eq!(row.scalar, 2, "{row:?}");
        assert_eq!(row.histogram, 1, "{row:?}");
        assert_eq!(row.icc, 0, "{row:?}");
        assert_eq!(row.scops, 0, "{row:?}");
    }

    #[test]
    fn is_detection_matches_paper_exactly() {
        let is = crate::nas::programs().into_iter().find(|p| p.name == "IS").unwrap();
        let row = measure_detection(&is);
        assert_eq!(row.histogram, 1, "{row:?}");
        assert_eq!(row.scalar, 0, "{row:?}");
        assert_eq!(row.icc, 0, "{row:?}");
    }

    #[test]
    fn every_program_matches_its_recorded_numbers() {
        // The `paper` fields double as this repo's calibrated expectations:
        // measured counts must equal them (they are asserted against the
        // paper's reported values in EXPERIMENTS.md).
        for p in crate::all_programs() {
            let row = measure_detection(&p);
            assert_eq!(
                (row.scalar, row.histogram, row.icc, row.polly_reductions, row.scops),
                (
                    p.paper.scalar,
                    p.paper.histogram,
                    p.paper.icc,
                    p.paper.polly_reductions,
                    p.paper.scops
                ),
                "{}: measured (scalar, histogram, icc, polly_red, scops) deviates",
                p.name
            );
        }
    }

    #[test]
    fn totals_match_paper_headlines() {
        let rows = measure_suite(&crate::all_programs());
        let scalar: usize = rows.iter().map(|r| r.scalar).sum();
        let histo: usize = rows.iter().map(|r| r.histogram).sum();
        assert_eq!(scalar, 84, "paper: 84 scalar reductions");
        assert_eq!(histo, 6, "paper: 6 histograms");
        let scops: usize = rows.iter().map(|r| r.scops).sum();
        assert_eq!(scops, 62, "paper: 62 SCoPs");
        let zero_scops = rows.iter().filter(|r| r.scops == 0).count();
        assert_eq!(zero_scops, 23, "paper: 23 of 40 programs without SCoPs");
    }
}
