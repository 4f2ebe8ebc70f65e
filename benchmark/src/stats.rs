//! Order statistics over latency samples and window values.

/// Percentiles the benchmark is willing to report, lowest first.
pub const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Nearest-rank percentile of an ascending slice (`pct` in 0..=100).
/// Returns `None` on an empty slice.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), pct) - 1])
}

/// 1-based nearest rank of `pct` among `n ≥ 1` samples, in whole-number
/// arithmetic on tenths of a percent (99.9 % of 10 000 is rank 9 990, not
/// the 9 991 that `ceil` of a binary fraction gives).
fn rank(n: usize, pct: f64) -> usize {
    let per_mille = (pct * 10.0).round() as usize;
    (n * per_mille).div_ceil(1000).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile position.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    n.saturating_sub(rank(n.max(1), pct))
}

/// The highest percentile of [`LADDER`] that still has at least ten
/// samples beyond it — a tail value resting on fewer does not repeat.
/// `None` when even the median is unsupported (fewer than 20 samples).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Sort a sample in place (total order; the benchmark never produces NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median: the mean of the two middle values on even lengths.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// `(max − min) / median` of a set of window values: how far one run's
/// windows disagree with each other.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let m = median(values)?;
    if m == 0.0 {
        return None;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Some((hi - lo) / m)
}

/// A value read off a power-law fit against the granted CPU share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fit {
    /// The fitted value at a granted share of 1: what the windows say the
    /// metric is when the hypervisor takes nothing away.
    pub at_full_grant: f64,
    /// The exponent: `value ∝ share^slope`.
    pub slope: f64,
}

/// Least-squares fit of `ln value = a + slope · ln share` over
/// `(share, value)` points, with the slope kept inside `slope_range`
/// (a stolen core cannot speed a closed loop up, nor slow it by less than
/// its share). Where the shares barely differ the slope is moot and the
/// fit is the geometric mean. `None` without points or on a non-positive
/// coordinate.
pub fn fit_at_full_grant(points: &[(f64, f64)], slope_range: (f64, f64)) -> Option<Fit> {
    if points.is_empty() || points.iter().any(|p| !(p.0 > 0.0 && p.1 > 0.0)) {
        return None;
    }
    let n = points.len() as f64;
    let logs: Vec<(f64, f64)> = points.iter().map(|p| (p.0.ln(), p.1.ln())).collect();
    let mean_x = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = logs.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    let sxy: f64 = logs.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    let free = if sxx > 1e-9 { sxy / sxx } else { 0.0 };
    let slope = free.clamp(slope_range.0, slope_range.1);
    Some(Fit {
        at_full_grant: at_full_grant(points, slope)?,
        slope,
    })
}

/// The value at a granted share of 1 under a known exponent: the
/// geometric mean of `value · share^(−slope)` over `(share, value)` points.
pub fn at_full_grant(points: &[(f64, f64)], slope: f64) -> Option<f64> {
    if points.is_empty() || points.iter().any(|p| !(p.0 > 0.0 && p.1 > 0.0)) {
        return None;
    }
    let sum: f64 = points.iter().map(|p| p.1.ln() - slope * p.0.ln()).sum();
    Some((sum / points.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.9), Some(7.0));
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p99 leaves 1.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(0), None);
    }

    #[test]
    fn median_of_windows() {
        assert_eq!(median(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some(5.0));
        assert_eq!(median(&[4.0, 2.0]), Some(3.0));
        assert_eq!(median(&[]), None);
        // One stalled window out of five does not move the reported value.
        assert_eq!(median(&[100.0, 101.0, 99.0, 100.5, 4000.0]), Some(100.5));
    }

    #[test]
    fn spread_of_window_values() {
        assert_eq!(relative_spread(&[90.0, 100.0, 110.0]), Some(0.2));
        assert_eq!(relative_spread(&[]), None);
    }

    #[test]
    fn fit_recovers_the_undisturbed_value() {
        // Throughput 1000/s on a free host, falling as share^1.25.
        let points: Vec<(f64, f64)> = [1.0, 0.8, 0.5, 0.3, 0.9]
            .iter()
            .map(|g: &f64| (*g, 1000.0 * g.powf(1.25)))
            .collect();
        let fit = fit_at_full_grant(&points, (1.0, 2.0)).unwrap();
        assert!((fit.at_full_grant - 1000.0).abs() < 1e-6, "{fit:?}");
        assert!((fit.slope - 1.25).abs() < 1e-9);
        // A slope outside the range is pulled to its edge.
        let clamped = fit_at_full_grant(&points, (-2.0, 0.0)).unwrap();
        assert_eq!(clamped.slope, 0.0);
        // Every window undisturbed: the geometric mean, slope at the edge
        // of the range nearest to zero.
        let quiet = fit_at_full_grant(&[(1.0, 90.0), (1.0, 110.0), (1.0, 100.0)], (1.0, 2.0));
        let quiet = quiet.unwrap();
        assert!((quiet.at_full_grant - (90.0f64 * 110.0 * 100.0).cbrt()).abs() < 1e-9);
        assert_eq!(quiet.slope, 1.0);
        assert_eq!(fit_at_full_grant(&[], (0.0, 1.0)), None);
        assert_eq!(fit_at_full_grant(&[(0.0, 5.0)], (0.0, 1.0)), None);
        // With the exponent given, no fit is needed.
        let known = at_full_grant(&[(0.5, 200.0), (0.25, 400.0)], -1.0).unwrap();
        assert!((known - 100.0).abs() < 1e-9);
        assert_eq!(at_full_grant(&[], -1.0), None);
    }
}
