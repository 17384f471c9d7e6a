//! Order statistics for the ledger: medians, percentiles of in-run
//! samples, and the cross-run quartiles `compare` judges spread by.

/// Ascending copy of `values`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of `values` by linear
/// interpolation between closest ranks; `0.0` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    let Some(&last) = v.last() else {
        return 0.0;
    };
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    match v.get(lo + 1) {
        Some(&hi) => v[lo] + frac * (hi - v[lo]),
        None => last,
    }
}

/// Median of `values` (`0.0` for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Mean of the slowest tenth of `values` in *arrival* order — the last
/// decile of a per-epoch series, where fragmentation has peaked.
pub fn last_decile_mean(values: &[f64]) -> f64 {
    let tail = &values[values.len() - (values.len() / 10).max(1).min(values.len())..];
    if tail.is_empty() {
        0.0
    } else {
        tail.iter().sum::<f64>() / tail.len() as f64
    }
}

/// The three quartile cut points of `values`, computed exactly like
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive"
/// method) so this harness and an outside checker agree to the last
/// digit. Needs at least two values; `None` otherwise.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        // `delta` is relative to the clamped `j`, so the end quartiles
        // of a tiny sample extrapolate like Python's do.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Interquartile distance as a share of the median: the spread the
/// acceptance rule compares against a metric's bound. `None` with fewer
/// than two values or a zero median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 25.0) - 1.75).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4)
        assert_eq!(
            quartiles(&[10.0, 20.0, 40.0, 80.0, 160.0]),
            Some([15.0, 40.0, 120.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn last_decile_is_the_tail_in_arrival_order() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(last_decile_mean(&v), 19.5);
        assert_eq!(last_decile_mean(&[5.0]), 5.0);
    }
}
