//! Sample summaries under the benchmark's percentile rule: a percentile
//! is reported only when at least [`MIN_BEYOND`] samples lie beyond it,
//! so a p99 needs at least 1000 samples.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles in basis points (1/100 of a percent).
pub const P50: u32 = 5_000;
/// The 99th percentile in basis points.
pub const P99: u32 = 9_900;

/// Nearest-rank position (1-based) of percentile `bp` among `n` samples.
fn rank(n: usize, bp: u32) -> usize {
    (n * bp as usize).div_ceil(10_000).max(1)
}

/// Can percentile `bp` be reported from `n` samples?
pub fn reportable(n: usize, bp: u32) -> bool {
    n > 0 && n - rank(n, bp) >= MIN_BEYOND
}

/// A sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Sort `values` into a summary.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples(values)
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Percentile `bp` by nearest rank, if the rule allows reporting it.
    pub fn pct(&self, bp: u32) -> Option<f64> {
        if reportable(self.0.len(), bp) {
            self.0.get(rank(self.0.len(), bp) - 1).copied()
        } else {
            None
        }
    }
}

/// The median of a few values (the set-up repetitions).
pub fn median(values: &[f64]) -> f64 {
    let s = Samples::new(values.to_vec());
    let n = s.0.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s.0[n / 2],
        _ => (s.0[n / 2 - 1] + s.0[n / 2]) / 2.0,
    }
}

/// Percentile `bp` of several sample sets pooled so that each set weighs
/// the same, whatever its size: a sample of set r weighs 1/(sets · n_r).
/// The same nearest-rank rule as [`Samples::pct`] (to which it reduces
/// for one set), and the same [`MIN_BEYOND`] samples must lie beyond it.
pub fn weighted_pct(sets: &[Vec<f64>], bp: u32) -> Option<f64> {
    if sets.is_empty() || sets.iter().any(Vec::is_empty) {
        return None;
    }
    let m = sets.len() as f64;
    let mut all: Vec<(f64, f64)> = sets
        .iter()
        .flat_map(|s| {
            let w = 1.0 / (m * s.len() as f64);
            s.iter().map(move |&v| (v, w))
        })
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0));
    let target = f64::from(bp) / 10_000.0 - 1e-9;
    let mut acc = 0.0;
    let at = all.iter().position(|&(_, w)| {
        acc += w;
        acc >= target
    })?;
    // `len - at - 1` samples lie strictly beyond position `at`.
    (all.len() - at > MIN_BEYOND).then_some(all[at].0)
}

/// The geometric mean of positive values: every value weighs the same
/// whatever its size, so a change of one of them by a factor f moves the
/// result by f^(1/n).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!reportable(999, P99));
        assert!(reportable(1000, P99));
        assert!(reportable(5000, P99));
        assert!(!reportable(19, P50));
        assert!(reportable(20, P50));
        assert!(!reportable(0, P50));
    }

    #[test]
    fn percentiles_leave_ten_samples_beyond() {
        let s = Samples::new((1..=1000).rev().map(f64::from).collect());
        assert_eq!(s.pct(P99), Some(990.0));
        assert_eq!(s.pct(P50), Some(500.0));
        let short = Samples::new((1..=999).map(f64::from).collect());
        assert_eq!(short.pct(P99), None);
        assert!(short.pct(P50).is_some());
    }

    #[test]
    fn weighted_pct_weighs_each_set_alike() {
        let one: Vec<f64> = (1..=1000).map(f64::from).collect();
        for n in [200, 999, 1000, 1234] {
            let s: Vec<f64> = (1..=n).map(f64::from).collect();
            for bp in [P50, P99] {
                assert_eq!(
                    weighted_pct(std::slice::from_ref(&s), bp),
                    Samples::new(s.clone()).pct(bp)
                );
            }
        }
        // Every sample twice: the same distribution, the same percentile.
        let twice: Vec<f64> = one.iter().flat_map(|&v| [v, v]).collect();
        let small = vec![5000.0; 100];
        assert_eq!(
            weighted_pct(&[one.clone(), small.clone()], P50),
            weighted_pct(&[twice, small.clone()], P50)
        );
        // Half the weight on each set: the median is the top of `one`.
        assert_eq!(weighted_pct(&[one.clone(), small], P50), Some(1000.0));
        assert_eq!(weighted_pct(&[one, vec![]], P50), None);
        assert_eq!(
            weighted_pct(&[(1..=15).map(f64::from).collect()], P50),
            None
        );
    }

    #[test]
    fn geomean_weighs_each_value_alike() {
        assert!((geomean(&[1000.0, 8000.0, 27000.0]) - 6000.0).abs() < 1e-6);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn median_of_setups() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }
}
