//! Percentiles and medians over measured samples.

/// Smallest sample count for a p95: ten samples must lie beyond it.
pub const MIN_P95_SAMPLES: usize = 200;

/// Nearest-rank percentile `q` (0..=100) of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median (the mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// p95 of `samples`, refused below [`MIN_P95_SAMPLES`].
pub fn p95(samples: &[f64]) -> Result<f64, String> {
    if samples.len() < MIN_P95_SAMPLES {
        return Err(format!(
            "a p95 needs at least {MIN_P95_SAMPLES} samples, got {}",
            samples.len()
        ));
    }
    Ok(percentile(samples, 95.0).expect("non-empty"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_known_vectors() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p50_and_p95_on_known_vectors() {
        let v: Vec<f64> = (1..=200).map(f64::from).rev().collect();
        assert_eq!(percentile(&v, 50.0), Some(100.0));
        assert_eq!(p95(&v), Ok(190.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(p95(&v), Ok(950.0));
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
    }

    #[test]
    fn p95_refuses_short_samples() {
        let v: Vec<f64> = (0..199).map(f64::from).collect();
        assert!(p95(&v).is_err());
        assert!(p95(&[]).is_err());
    }
}
