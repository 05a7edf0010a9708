//! Order statistics over timing samples.

/// A bag of samples (milliseconds, seconds, rates — the caller's unit).
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Self {
        Samples(Vec::new())
    }

    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// The median (mean of the middle pair for an even count); 0 when empty.
    pub fn median(&self) -> f64 {
        let sorted = self.sorted();
        let n = sorted.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => sorted[n / 2],
            _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
        }
    }

    /// The highest percentile that still has at least ten samples beyond
    /// it, capped at the 99th: `(quantile, value)` by nearest rank.  With
    /// fewer than twenty samples this falls back to the median.
    pub fn tail(&self) -> (f64, f64) {
        let sorted = self.sorted();
        let n = sorted.len();
        if n < 20 {
            return (0.5, self.median());
        }
        let q = ((n - 10) as f64 / n as f64).min(0.99);
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        (q, sorted[rank - 1])
    }
}

/// Formats a tail quantile as a percentile label (`p97.3`).
pub fn percentile_label(q: f64) -> String {
    format!("p{:.1}", q * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let mut s = Samples::new();
        for i in 1..=100 {
            s.push(f64::from(i));
        }
        let (q, v) = s.tail();
        assert!((q - 0.9).abs() < 1e-12);
        assert_eq!(v, 90.0);
        assert_eq!(s.median(), 50.5);
    }

    #[test]
    fn tail_caps_at_p99() {
        let mut s = Samples::new();
        for i in 1..=10_000 {
            s.push(f64::from(i));
        }
        assert_eq!(s.tail(), (0.99, 9900.0));
    }
}
