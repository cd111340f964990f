//! Summary statistics for latency characterization.
//!
//! The paper quantifies latency *variation* with the relative standard
//! deviation (RSD, "a.k.a. coefficient of variation, defined as the ratio
//! of the standard deviation to the mean", Sec. IV-B). [`Summary`] carries
//! every statistic the characterization figures report.

/// Summary of a sample set (latencies in milliseconds, errors in meters —
/// unit-agnostic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes the summary; empty input produces all-zero statistics.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        Summary {
            count: samples.len(),
            mean,
            std_dev: var.sqrt(),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Relative standard deviation (coefficient of variation), as a
    /// fraction of the mean.
    pub fn rsd(&self) -> f64 {
        if self.mean.abs() < f64::MIN_POSITIVE {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }

    /// Worst-case over best-case ratio (the paper reports up to 4× in
    /// SLAM mode, Sec. IV-B).
    pub fn max_over_min(&self) -> f64 {
        if self.min <= 0.0 {
            f64::INFINITY
        } else {
            self.max / self.min
        }
    }

    /// Root mean square of the samples.
    pub fn rms(samples: &[f64]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        (samples.iter().map(|x| x * x).sum::<f64>() / samples.len() as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statistics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
        assert!((s.max_over_min() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rsd_is_scale_invariant() {
        let a = Summary::of(&[1.0, 2.0, 3.0]);
        let b = Summary::of(&[10.0, 20.0, 30.0]);
        assert!((a.rsd() - b.rsd()).abs() < 1e-12);
    }

    #[test]
    fn empty_input_is_safe() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.rsd(), 0.0);
        assert_eq!(Summary::rms(&[]), 0.0);
    }

    #[test]
    fn rms_of_constant() {
        assert!((Summary::rms(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
    }
}
