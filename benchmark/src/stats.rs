//! Order statistics for timing samples: median, nearest-rank percentile,
//! the reporting rule "highest percentile with at least ten samples beyond
//! it", its mirror image for host-time samples of repeated equal work
//! ([`quiet`]), and quartiles as Python's `statistics.quantiles(values,
//! n=4)` computes them (the acceptance driver uses that function for
//! run-to-run spread, so the printed quartiles are directly comparable).

/// Percentiles a tail figure may be reported at, lowest first.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller times at least one operation.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `(0, 100]`.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let v = sorted(values);
    v[rank(v.len(), p)]
}

/// Zero-based nearest-rank index of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // Multiply first: `95 * 300 / 100` is exact where `0.95 * 300` is not.
    let r = (p * n as f64 / 100.0).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The highest percentile of [`LADDER`] that still has at least
/// [`MIN_BEYOND`] of `n` samples strictly beyond its rank, or `None` when
/// even the median does not (fewer than 20 samples).
#[must_use]
pub fn top_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|&p| n > 0 && n - 1 - rank(n, p) >= MIN_BEYOND)
}

/// What one repetition of a piece of host work takes while the machine is
/// quiet: the fastest sample that still has [`MIN_BEYOND`] faster ones
/// beyond it, and never more than a tenth of the samples (so five samples
/// give their minimum, 24 their third fastest, a thousand their eleventh).
///
/// Interference on a shared host only ever adds time, and on the box this
/// was written on it comes in spells: the same segment of simulation runs
/// at one of three speeds (1 : 1.2 : 1.7) for seconds to minutes on end, so
/// the median of a ten-second run lands on whichever speed had the larger
/// share and spreads 15-27 % between runs of the same code. The fast tail
/// of a few thousand short samples moves 2-4 %. The sample counts are fixed
/// by the workload plans, so this is a fixed quantile of each metric.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn quiet(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "quiet estimate of no samples");
    sorted(values)[(values.len() / 10).min(MIN_BEYOND)]
}

/// First, second and third quartile by the exclusive method — exactly
/// Python's `statistics.quantiles(values, n=4)`.
///
/// # Panics
///
/// Panics on fewer than two samples (as Python raises).
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let v = sorted(values);
    let n = v.len();
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&ramp(24)), 12.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(300);
        assert_eq!(percentile(&v, 95.0), 285.0);
        assert_eq!(percentile(&v, 100.0), 300.0);
        assert_eq!(percentile(&v, 50.0), 150.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn cold_phase_of_24_reports_the_median_only() {
        // p50 leaves 12 samples beyond it, p75 only 6.
        assert_eq!(top_percentile(24), Some(50.0));
    }

    #[test]
    fn hit_phase_of_300_reports_p95_with_15_beyond() {
        assert_eq!(top_percentile(300), Some(95.0));
        let v = ramp(300);
        let beyond = v.iter().filter(|&&x| x > percentile(&v, 95.0)).count();
        assert_eq!(beyond, 15);
    }

    #[test]
    fn too_few_samples_report_no_tail() {
        assert_eq!(top_percentile(0), None);
        assert_eq!(top_percentile(19), None);
        assert_eq!(top_percentile(20), Some(50.0));
        assert_eq!(top_percentile(1100), Some(99.0));
    }

    #[test]
    fn quiet_is_the_fast_tail_with_ten_samples_beyond_it() {
        assert_eq!(quiet(&[4.0, 2.0, 9.0, 3.0, 5.0]), 2.0);
        assert_eq!(quiet(&ramp(24)), 3.0);
        assert_eq!(quiet(&ramp(100)), 11.0);
        assert_eq!(quiet(&ramp(1500)), 11.0);
        // Slow outliers, however many, do not move it.
        let mut spell = ramp(1500);
        spell.iter_mut().skip(300).for_each(|t| *t *= 1.7);
        assert_eq!(quiet(&spell), 11.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
    }
}
