//! Order statistics over timing samples.

/// The `q` quantile (0 ≤ q ≤ 1) by linear interpolation between the
/// closest ranks; 0 for an empty sample.
pub fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(v: Vec<f64>) -> f64 {
    quantile(v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_between_ranks() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(vec![], 0.5), 0.0);
        assert_eq!(quantile((0..=100).map(f64::from).collect(), 0.9), 90.0);
    }
}
