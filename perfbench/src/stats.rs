//! Exact order statistics over raw per-operation samples.
//!
//! Every latency the benchmark reports is a nearest-rank percentile of
//! the raw durations it recorded, never a histogram bucket edge. A named
//! tail is only reported when at least [`MIN_BEYOND`] samples lie beyond
//! it; otherwise the run fails loudly instead of printing a tail that one
//! or two outliers decide.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank rank (1-based) of percentile `p` over `n` samples:
/// the smallest rank whose share of samples reaches `p` percent.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile {p} outside [0, 100]"
    );
    assert!(n > 0, "percentile of an empty sample");
    // Tolerate representation error (0.99 * 300 = 296.99999999999994).
    let exact = p / 100.0 * n as f64;
    let rank = (exact - 1e-9).ceil() as usize;
    rank.clamp(1, n)
}

/// Nearest-rank percentile `p` of `samples` (any order).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// The median as the nearest-rank 50th percentile.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Nearest-rank percentile `p` of `samples` for a named tail: errors
/// unless at least [`MIN_BEYOND`] samples rank beyond it.
pub fn tail(what: &str, samples: &[f64], p: f64) -> Result<f64, String> {
    if samples.is_empty() {
        return Err(format!("{what}: no samples for p{p}"));
    }
    let beyond = samples.len() - nearest_rank(p, samples.len());
    if beyond < MIN_BEYOND {
        return Err(format!(
            "{what}: p{p} of {} samples has only {beyond} beyond it (need {MIN_BEYOND}); \
             run longer",
            samples.len()
        ));
    }
    Ok(percentile(samples, p))
}

/// Busy seconds per window of a reported rate.
pub const RATE_WINDOW_S: f64 = 1.0;

/// Windows a rate must span (see [`windowed_rate`]).
pub const MIN_WINDOWS: usize = 5;

/// Operations per second of busy time. `samples` are consecutive
/// (busy seconds, operations) pairs; they are cut into windows of at
/// least `window_s` busy seconds (a short remainder is dropped) and the
/// rate is the median of the windows' rates, so a burst of host noise
/// that covers fewer than half the windows does not move it. Errors
/// unless at least [`MIN_WINDOWS`] windows filled.
pub fn windowed_rate(what: &str, samples: &[(f64, f64)], window_s: f64) -> Result<f64, String> {
    let mut rates = Vec::new();
    let (mut busy, mut ops) = (0.0, 0.0);
    for &(s, n) in samples {
        busy += s;
        ops += n;
        if busy >= window_s {
            rates.push(ops / busy);
            (busy, ops) = (0.0, 0.0);
        }
    }
    if rates.len() < MIN_WINDOWS {
        return Err(format!(
            "{what}: {} window(s) of {window_s} s busy time (need {MIN_WINDOWS}); run longer",
            rates.len()
        ));
    }
    Ok(median(&rates))
}

/// Median of a non-empty sample, or an error naming what was missing.
pub fn median_of(what: &str, samples: &[f64]) -> Result<f64, String> {
    if samples.is_empty() {
        return Err(format!("{what}: no samples"));
    }
    Ok(median(samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        // n = 10: p50 is the 5th value, p90 the 9th, p91 the 10th.
        assert_eq!(nearest_rank(50.0, 10), 5);
        assert_eq!(nearest_rank(90.0, 10), 9);
        assert_eq!(nearest_rank(91.0, 10), 10);
        assert_eq!(nearest_rank(100.0, 10), 10);
        assert_eq!(nearest_rank(0.0, 10), 1);
        // Exact products must not round up a rank.
        assert_eq!(nearest_rank(99.0, 300), 297);
        assert_eq!(nearest_rank(90.0, 330), 297);
        assert_eq!(nearest_rank(50.0, 1), 1);
    }

    #[test]
    fn percentiles_are_sample_values_not_interpolations() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn tail_requires_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 is rank 990: exactly ten beyond.
        assert_eq!(tail("t", &xs, 99.0), Ok(990.0));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        let err = tail("visible", &short, 99.0).unwrap_err();
        assert!(
            err.contains("visible") && err.contains("only 9 beyond"),
            "{err}"
        );
        assert!(tail("t", &[], 50.0).is_err());
    }

    #[test]
    fn windowed_rate_is_the_median_window_and_ignores_a_minority_burst() {
        // 1/8 s per op is 8/s; a 3 s burst at 2/s fills 3 of 12 windows,
        // and the 0.25 s left at the end fills none.
        let mut xs = vec![(0.125, 1.0); 80];
        xs[16..22].fill((0.5, 1.0));
        assert_eq!(windowed_rate("w", &xs, 1.0), Ok(8.0));
        let err = windowed_rate("solves", &xs[..20], 1.0).unwrap_err();
        assert!(err.contains("solves") && err.contains("need 5"), "{err}");
    }

    #[test]
    fn median_of_names_the_empty_sample() {
        assert_eq!(median_of("x", &[4.0, 2.0, 9.0]), Ok(4.0));
        assert!(median_of("solve", &[]).unwrap_err().contains("solve"));
    }
}
