//! Order statistics over latency samples.

/// The fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty sample set: every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// [`median`], or NaN for no samples (which fails the run's checks).
pub fn median_or_nan(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else {
        median(samples)
    }
}

/// Nearest-rank position (0-based) of percentile `p` in `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`
/// percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// The smallest sample count whose `p` percentile has at least
/// [`MIN_BEYOND_TAIL`] samples beyond it.
pub fn min_samples_for_tail(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, p) >= MIN_BEYOND_TAIL)
        .expect("some count always suffices for p < 1")
}

/// The nearest-rank `p` percentile, refused unless at least
/// [`MIN_BEYOND_TAIL`] samples lie beyond it: a tail read off fewer
/// samples is one outlier, not a percentile.
pub fn tail(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    if beyond(n, p) < MIN_BEYOND_TAIL {
        return Err(format!(
            "p{} of {n} samples has {} beyond it; need {MIN_BEYOND_TAIL}",
            p * 100.0,
            beyond(n, p)
        ));
    }
    Ok(sorted(samples)[rank(n, p)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_always_has_ten_samples_beyond_it() {
        for p in [0.5, 0.9, 0.95, 0.99] {
            for n in 1..3000 {
                let samples: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
                match tail(&samples, p) {
                    Ok(value) => {
                        let above = samples.iter().filter(|&&s| s > value).count();
                        assert!(above >= MIN_BEYOND_TAIL, "p{p} n{n}: {above} beyond");
                    }
                    Err(_) => assert!(n < min_samples_for_tail(p), "p{p} refused at n{n}"),
                }
            }
        }
    }

    #[test]
    fn tail_sample_floors() {
        let p99 = min_samples_for_tail(0.99);
        assert!((1000..=1001).contains(&p99), "p99 floor {p99}");
        assert!(tail(&vec![1.0; p99 - 1], 0.99).is_err());
        assert!(tail(&vec![1.0; p99], 0.99).is_ok());
        assert!((200..=201).contains(&min_samples_for_tail(0.95)));
    }
}
