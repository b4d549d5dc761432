//! Order statistics for latency samples.
//!
//! A tail is reported at the highest percentile that still has at least
//! [`TAIL_MIN_BEYOND`] samples beyond it, capped at the percentile the
//! metric is named after, so a short run never reports a "p99" that rests
//! on one or two samples.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Value at quantile `q` (0..=1) of `sorted`, by linear interpolation
/// between closest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// The percentile a tail is reported at for `n` samples: the named
/// percentile `nominal` (e.g. 0.99), lowered until at least
/// [`TAIL_MIN_BEYOND`] samples lie beyond it. `None` when `n` is too
/// small for any percentile to qualify.
pub fn tail_quantile(n: usize, nominal: f64) -> Option<f64> {
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    let highest = 1.0 - TAIL_MIN_BEYOND as f64 / n as f64;
    Some(nominal.min(highest))
}

/// A summarized latency distribution.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// Percentile the tail was taken at, and its value.
    pub tail_q: f64,
    pub tail: f64,
}

/// Median plus the tail at `nominal`, lowered per [`tail_quantile`]. When
/// that would put the tail below the median (fewer than 20 samples), the
/// maximum stands in and `tail_q` is 1.
pub fn summarize(samples: &[f64], nominal: f64) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let (tail_q, tail) = match tail_quantile(s.len(), nominal) {
        Some(q) if q >= 0.5 => (q, quantile(&s, q)),
        _ => (1.0, s[s.len() - 1]),
    };
    Some(Summary {
        n: s.len(),
        p50: quantile(&s, 0.5),
        tail_q,
        tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, so p99 stands.
        assert_eq!(tail_quantile(1000, 0.99), Some(0.99));
        // 200 samples: p99 would leave 2 beyond; 1 - 10/200 = p95.
        let q = tail_quantile(200, 0.99).unwrap();
        assert!((q - 0.95).abs() < 1e-12);
        assert!(200.0 * (1.0 - q) >= 10.0 - 1e-9);
        // Any higher percentile would leave fewer than 10 beyond.
        assert!(200.0 * (1.0 - (q + 0.001)) < 10.0);
        // Too few samples for any tail.
        assert_eq!(tail_quantile(10, 0.9), None);
        assert!(tail_quantile(11, 0.9).unwrap() < 0.1);
    }

    #[test]
    fn tail_value_counts_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = summarize(&samples, 0.99).unwrap();
        let beyond = samples.iter().filter(|&&v| v > s.tail).count();
        assert_eq!(beyond, 10);
        assert_eq!(s.n, 200);
        assert!((s.p50 - 100.5).abs() < 1e-9);
    }

    #[test]
    fn short_runs_fall_back_to_the_maximum() {
        let s = summarize(&[3.0, 1.0, 2.0], 0.99).unwrap();
        assert_eq!((s.tail_q, s.tail), (1.0, 3.0));
        assert_eq!(s.p50, 2.0);
        assert!(summarize(&[], 0.5).is_none());
        // 15 samples: a 10-beyond tail would sit below the median.
        let fifteen: Vec<f64> = (1..=15).map(f64::from).collect();
        let s = summarize(&fifteen, 0.99).unwrap();
        assert_eq!((s.tail_q, s.tail, s.p50), (1.0, 15.0, 8.0));
    }
}
