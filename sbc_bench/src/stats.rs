//! Order statistics over latency samples.

/// The `q`-quantile (nearest rank) of an ascending-sorted slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn quantile(xs: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(xs), q)
}

pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    assert!(!s.is_empty(), "median of an empty sample");
    (s[(s.len() - 1) / 2] + s[s.len() / 2]) / 2.0
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// The highest of p99/p95/p90 that leaves at least ten samples beyond it
/// (p90 for anything smaller), as `(pct, value)`.
pub fn tail(xs: &[f64]) -> (u32, f64) {
    let pct = [99u32, 95]
        .into_iter()
        .find(|p| xs.len() * (100 - *p as usize) >= 1000)
        .unwrap_or(90);
    (pct, quantile(xs, pct as f64 / 100.0))
}

/// Inter-quartile distance as a share of the median, with the quartiles
/// `statistics.quantiles(values, n=4)` gives (exclusive method).
pub fn iqr_share(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let at = |p: f64| {
        // exclusive method: position p*(n+1), 1-based, linear interpolation
        let pos = (p * (s.len() + 1) as f64).clamp(1.0, s.len() as f64);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(s.len());
        s[lo - 1] + (pos - lo as f64) * (s[hi - 1] - s[lo - 1])
    };
    let med = at(0.5);
    if med == 0.0 {
        return 0.0;
    }
    (at(0.75) - at(0.25)) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (0..3000).map(f64::from).collect();
        assert_eq!(tail(&xs).0, 99);
        assert_eq!(tail(&xs[..500]).0, 95);
        assert_eq!(tail(&xs[..94]).0, 90);
    }

    #[test]
    fn iqr_matches_python_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&xs) - 1.0).abs() < 1e-12);
    }
}
