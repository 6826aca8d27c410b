//! Order statistics and the payload hash.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// value with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank percentile position.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    n.saturating_sub(rank.clamp(1, n.max(1)))
}

/// A percentile is only as good as the samples beyond it: fewer than
/// ten and the value is one or two scheduler hiccups, not a tail.
pub fn low_n(n: usize, p: f64) -> bool {
    samples_beyond(n, p) < 10
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among samples"));
    values
}

/// Median (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, so `calibrate` and the
/// driver compute the same spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// FNV-1a, 64 bit.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.write(bytes);
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        let five = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&five, 30.0), 20.0);
        assert_eq!(percentile(&five, 40.0), 20.0);
        assert_eq!(percentile(&five, 50.0), 35.0);
        assert_eq!(percentile(&five, 99.0), 50.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn low_n_flags_thin_tails() {
        // 1000 samples leave exactly ten beyond p99; 999 leave nine.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(!low_n(1000, 99.0));
        assert!(low_n(999, 99.0));
        assert!(low_n(450, 99.0));
        assert!(!low_n(450, 50.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5, 9], n=4) == [1.0, 3.5, 6.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0]);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 6.0).abs() < 1e-12);
        assert!((median(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0]) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn fnv_known_values() {
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
