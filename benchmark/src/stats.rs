//! Order statistics and the regression verdict.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the driver that
//! gates this benchmark computes; spread is the inter-quartile distance
//! as a share of the median.

/// Whether a larger or a smaller value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` gives them. Needs two values;
/// with fewer, all three are the single value (or 0).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return [v.first().copied().unwrap_or(0.0); 3];
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Outcome of comparing two sets of runs of one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// The run-to-run spread of either set exceeds the bound, so a
    /// difference of the size of the bound cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares set `b` against set `a` (the base): `b` is worse when its
/// median is worse than `a`'s by more than `bound` of `a`'s median.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return Verdict::Unresolved;
    }
    let gain = match better {
        Better::Higher => (mb - ma) / ma.abs(),
        Better::Lower => (ma - mb) / ma.abs(),
    };
    if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 30, 45, 100], n=4) == [15.0, 30.0, 72.5]
        assert_eq!(
            quartiles(&[100.0, 10.0, 45.0, 30.0, 20.0]),
            [15.0, 30.0, 72.5]
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn verdict_separates_the_four_cases() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.1, 100.4, 99.6];
        let slow = [80.0, 81.0, 79.0, 80.5, 79.5];
        let fast = [120.0, 121.0, 119.0, 120.5, 119.5];
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(
            verdict(&base, &same, Better::Higher, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&base, &slow, Better::Higher, 0.1), Verdict::Worse);
        assert_eq!(verdict(&base, &fast, Better::Higher, 0.1), Verdict::Better);
        assert_eq!(verdict(&base, &slow, Better::Lower, 0.1), Verdict::Better);
        assert_eq!(
            verdict(&base, &noisy, Better::Higher, 0.1),
            Verdict::Unresolved
        );
    }
}
