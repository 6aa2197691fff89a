//! Order statistics and process measurements.

use std::time::Duration;

/// Median of `values` (mean of the middle two for an even count); 0 for
/// none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of durations, in seconds.
pub fn median_s(values: &[Duration]) -> f64 {
    median(&values.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

/// Fewest samples for which a tail percentile is reported: below this
/// the value with ten samples beyond it would sit near the median.
pub const TAIL_MIN_SAMPLES: usize = 40;

/// The highest percentile with at least ten samples beyond it, and its
/// value: the eleventh-largest sample. Returns `(50.0, median)` for
/// fewer than [`TAIL_MIN_SAMPLES`] samples.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n < TAIL_MIN_SAMPLES {
        return (50.0, median(values));
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (100.0 * (n - 10) as f64 / n as f64, v[n - 11])
}

/// Peak resident memory of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let (p, x) = tail(&v);
        assert_eq!(p, 95.0);
        assert_eq!(x, 190.0);
        assert_eq!(v.iter().filter(|&&y| y > x).count(), 10);
        let few: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail(&few), (50.0, 20.0));
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
