//! Order statistics over measured samples.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The three quartile cut points, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spreads printed here are the ones a reader recomputes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let ld = data.len();
    assert!(ld > 0, "quartiles of no samples");
    if ld == 1 {
        return [data[0]; 3];
    }
    let m = ld + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    })
}

pub fn median(values: &[f64]) -> f64 {
    let data = sorted(values);
    assert!(!data.is_empty(), "median of no samples");
    let n = data.len();
    if n % 2 == 1 {
        data[n / 2]
    } else {
        (data[n / 2 - 1] + data[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let data = sorted(values);
    assert!(!data.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * data.len() as f64).ceil() as usize;
    data[rank.clamp(1, data.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4)
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn p90_of_a_hundred_samples_leaves_ten_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 90.0), 90.0);
        assert_eq!(median(&values), 50.5);
    }
}
