//! In-process calibration against a fixed reference loop.
//!
//! A shared 2-vCPU host has slow phases, from tens of milliseconds to
//! seconds, in which every timing stretches together. Each timed operation
//! is therefore paired with adjacent timings of [`reference_work`], a loop
//! that lives in this file and calls no repository crate, and reported as
//! `raw × NOMINAL_REF_MS ÷ adjacent_ref` — still in ms or µs, but read as if
//! the reference loop had taken its nominal time.
//!
//! The loop is allocation-heavy on purpose (string formatting into a hash
//! map, then a sort of the keys), because that is what detection and
//! serving spend their time on; an arithmetic-only loop does not slow down
//! with the host the way they do.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats;

/// Nominal time of one [`reference_work`] sample, in milliseconds: roughly
/// its median on a quiet 2-vCPU x86-64 host. Calibrated values are scaled
/// to this reference.
pub const NOMINAL_REF_MS: f64 = 7.5;

/// Nominal p95 of [`reference_work`] samples over a run, in milliseconds
/// (same host as [`NOMINAL_REF_MS`]): the scale for tails calibrated
/// against the reference loop's own tail.
pub const NOMINAL_REF_P95_MS: f64 = 9.0;

/// Keys formatted per reference sample.
const REF_KEYS: usize = 12_000;

/// Operation time between two reference samples in a measured run: a
/// sample follows the first operation that ends at least this long after
/// the previous sample.
pub const GAP: Duration = Duration::from_millis(8);

/// The gap in a traced run, whose per-layer figures are calibrated by one
/// median reference sample per part: sparser samples leave more operations
/// for the per-layer tails.
pub const TRACED_GAP: Duration = Duration::from_millis(50);

/// Reference samples taken on each side of a gap; the median of these
/// `2 × SMOOTH` samples calibrates the gap's operations. A single sample
/// is itself noisy, so the median of its neighbours tracks the host's
/// slow phases more faithfully than the two samples around one gap.
pub const SMOOTH: usize = 3;

/// One sample of the reference loop: formats keys into a
/// `HashMap<String, Vec<u64>>`, sorts the keys, and frees everything it
/// allocated before returning. Returns a checksum so the work cannot be
/// optimized away.
#[must_use]
pub fn reference_work() -> u64 {
    let mut map: HashMap<String, Vec<u64>> = HashMap::with_capacity(REF_KEYS / 2);
    for i in 0..REF_KEYS as u64 {
        let key = format!("ref/{}/{}", i % 5_003, i / 7);
        map.entry(key).or_default().push(black_box(i));
    }
    let mut keys: Vec<&String> = map.keys().collect();
    keys.sort();
    keys.iter().map(|k| k.len() as u64).sum::<u64>()
        + map.values().map(|v| v.len() as u64).sum::<u64>()
}

/// `raw × nominal ÷ adjacent`: a raw timing rescaled by how far the
/// adjacent reference sample strayed from its nominal time.
#[must_use]
pub fn calibrate(raw: f64, nominal: f64, adjacent: f64) -> f64 {
    raw * nominal / adjacent
}

/// Times the reference loop and keeps every sample.
#[derive(Debug, Default)]
pub struct Calibrator {
    /// Raw reference-loop times, in milliseconds, in the order taken.
    pub ref_ms: Vec<f64>,
}

impl Calibrator {
    /// Takes one reference sample and returns its time in milliseconds.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        black_box(reference_work());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.ref_ms.push(ms);
        ms
    }

    /// The calibration factor for work whose adjacent reference samples
    /// are `refs`: `nominal ÷ median(refs)`.
    #[must_use]
    pub fn factor(refs: &[f64]) -> f64 {
        stats::median(refs).map_or(1.0, |m| calibrate(1.0, NOMINAL_REF_MS, m))
    }

    /// Runs `f` between `SMOOTH` reference samples on each side and returns
    /// its result with the raw and calibrated elapsed seconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let mut refs: Vec<f64> = (0..SMOOTH).map(|_| self.sample()).collect();
        let t = Instant::now();
        let out = f();
        let raw = t.elapsed().as_secs_f64();
        refs.extend((0..SMOOTH).map(|_| self.sample()));
        (out, raw, raw * Calibrator::factor(&refs))
    }
}

/// Raw and calibrated samples of one timing series, in seconds.
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// Raw wall-clock seconds.
    pub raw: Vec<f64>,
    /// Calibrated seconds.
    pub cal: Vec<f64>,
}

impl Series {
    /// Appends one sample.
    pub fn push(&mut self, raw: f64, factor: f64) {
        self.raw.push(raw);
        self.cal.push(raw * factor);
    }

    /// The samples of `self` followed by those of `other`.
    #[must_use]
    pub fn merged(&self, other: &Series) -> Series {
        Series {
            raw: [&self.raw[..], &other.raw].concat(),
            cal: [&self.cal[..], &other.cal].concat(),
        }
    }
}

/// Drives a closed loop for `seconds`: `op` runs back to back and pushes
/// `(series, raw seconds)` samples, and a reference sample is taken after
/// every `gap` of operations. Each operation is calibrated by the median
/// of the `SMOOTH` reference samples on either side of its gap. Returns one
/// [`Series`] per series index.
pub fn closed_loop(
    cal: &mut Calibrator,
    seconds: f64,
    gap: Duration,
    series: usize,
    mut op: impl FnMut(&mut Vec<(usize, f64)>),
) -> Vec<Series> {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let first = cal.ref_ms.len();
    // (series, raw seconds, gap): gap `g` lies between reference samples
    // `g - 1` and `g`, counted from `first`.
    let mut samples: Vec<(usize, f64, usize)> = Vec::new();
    let mut pending: Vec<(usize, f64)> = Vec::new();
    cal.sample();
    loop {
        let gap_end = Instant::now() + gap;
        loop {
            op(&mut pending);
            let now = Instant::now();
            if now >= gap_end || now >= end {
                break;
            }
        }
        cal.sample();
        let gap = cal.ref_ms.len() - first - 1;
        samples.extend(pending.drain(..).map(|(s, raw)| (s, raw, gap)));
        if Instant::now() >= end {
            break;
        }
    }
    let refs = &cal.ref_ms[first..];
    let factors: Vec<f64> = (0..refs.len())
        .map(|g| Calibrator::factor(&refs[g.saturating_sub(SMOOTH)..(g + SMOOTH).min(refs.len())]))
        .collect();
    let mut out = vec![Series::default(); series];
    for (s, raw, gap) in samples {
        out[s].push(raw, factors[gap]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_value_is_raw_times_nominal_over_adjacent() {
        assert_eq!(calibrate(10.0, 5.0, 5.0), 10.0);
        assert_eq!(calibrate(10.0, 5.0, 10.0), 5.0, "a host twice as slow halves the time");
        assert_eq!(calibrate(3.0, 6.0, 2.0), 9.0);
        assert_eq!(Calibrator::factor(&[4.0, 9.0, 6.0]), NOMINAL_REF_MS / 6.0);
        assert_eq!(Calibrator::factor(&[4.0, 6.0]), NOMINAL_REF_MS / 5.0);
        let mut s = Series::default();
        s.push(2.0, 0.5);
        assert_eq!((s.raw[0], s.cal[0]), (2.0, 1.0));
    }

    #[test]
    fn reference_work_is_deterministic() {
        assert_eq!(reference_work(), reference_work());
    }

    #[test]
    fn closed_loop_calibrates_every_sample() {
        let mut cal = Calibrator::default();
        let mut n = 0;
        let series = closed_loop(&mut cal, 0.05, GAP, 2, |out| {
            n += 1;
            out.push((n % 2, 1e-3));
        });
        assert_eq!(series[0].raw.len() + series[1].raw.len(), n);
        assert!(cal.ref_ms.len() >= 2);
        assert!(series.iter().flat_map(|s| &s.cal).all(|c| *c > 0.0));
    }
}
