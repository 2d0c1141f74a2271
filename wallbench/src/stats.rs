//! Order statistics for timings and ratios.

/// Percentile `p` (0–100) of `samples` by linear interpolation between
/// closest ranks; `0.0` for an empty slice. Sorts a copy.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, p)
}

/// [`percentile`] over an already sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// The tail a sample set can support: the highest of the standard
/// percentiles that still leaves at least ten samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (50 when fewer than 20 samples exist).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
}

/// Percentiles [`tail`] chooses from, in permille, highest first
/// (integers, so "ten samples beyond" is decided without rounding).
const TAIL_PERMILLE: [usize; 5] = [999, 990, 950, 900, 500];

/// Highest percentile in `TAIL_PERMILLE` with at least ten samples
/// beyond it, plus the sample count.
pub fn tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    let permille = TAIL_PERMILLE
        .into_iter()
        .find(|pm| n * (1000 - pm) >= 10 * 1000)
        .unwrap_or(500);
    let pct = permille as f64 / 10.0;
    Tail {
        pct,
        value: percentile(samples, pct),
        n,
    }
}

/// Interquartile mean: the mean of the samples between the first and
/// third quartile (by rank, the middle half). Unlike the median it moves
/// smoothly when a run mixes fast and slow stretches of machine time,
/// and unlike the mean it ignores the tails; `0.0` for an empty slice.
pub fn iqm(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let quarter = v.len() / 4;
    let mid = &v[quarter..v.len() - quarter];
    if mid.is_empty() {
        0.0
    } else {
        mid.iter().sum::<f64>() / mid.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn iqm_averages_the_middle_half() {
        // Outer quarters (1, 2 and 100, 1000) are dropped.
        let v = [1000.0, 1.0, 4.0, 3.0, 2.0, 5.0, 6.0, 100.0];
        assert_eq!(iqm(&v), 4.5);
        assert_eq!(iqm(&[7.0]), 7.0);
        assert_eq!(iqm(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.pct, t.n), (99.0, 1000));
        assert!((t.value - 989.01).abs() < 1e-9);
        // 100 samples leave exactly ten beyond p90, too few beyond p95.
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v).pct, 90.0);
        assert_eq!(tail(&v[..99]).pct, 50.0);
        assert_eq!(
            tail(&(0..10_000).map(f64::from).collect::<Vec<_>>()).pct,
            99.9
        );
    }
}
