//! Order statistics over measured samples.

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// How far the median of the even-indexed samples lies from that of the
/// odd-indexed ones, as a share of the median of all: a run's own
/// estimate of how well its median is resolved (0 when undefined).
pub fn split_spread(values: &[f64]) -> f64 {
    let half = |skip| -> Vec<f64> { values.iter().skip(skip).step_by(2).copied().collect() };
    let all = median(values);
    if values.len() < 2 || all == 0.0 {
        return 0.0;
    }
    (median(&half(0)) - median(&half(1))).abs() / all.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_split_spreads() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        // Even-indexed [1, 3] has median 2, odd-indexed [2, 4] median 3.
        assert_eq!(split_spread(&[1.0, 2.0, 3.0, 4.0]), 1.0 / 2.5);
        assert_eq!(split_spread(&[5.0]), 0.0);
    }
}
