//! Order statistics over the timed repetitions.
//!
//! Every timing the benchmark reports is the fastest of a fixed count of
//! identical reps, printed with the median and quartiles beside it. The
//! reps do identical work (their counters and results are checked), and
//! what disturbs them on a shared box only ever adds time, for seconds to
//! minutes at a stretch: over ten runs in such an hour the median of the
//! reps spread 27% and their minimum 8% (README.md, "The estimator").

/// Minimum, first quartile, median and third quartile of the samples
/// (linear interpolation between order statistics). No higher percentile
/// is reported: a run has a few dozen reps at most, so fewer than ten
/// samples lie beyond any of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    pub fn of(samples: &[f64]) -> Quartiles {
        assert!(!samples.is_empty(), "no samples");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let at = |p: f64| {
            let x = p * (s.len() - 1) as f64;
            let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
            s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
        };
        Quartiles { min: s[0], q1: at(0.25), median: at(0.5), q3: at(0.75), n: s.len() }
    }
}

/// Index of the smallest sample: the rep that met the fewest neighbours.
pub fn fastest(samples: &[f64]) -> usize {
    assert!(!samples.is_empty(), "no samples");
    (0..samples.len()).min_by(|&a, &b| samples[a].total_cmp(&samples[b])).expect("not empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let q = Quartiles::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((q.min, q.q1, q.median, q.q3, q.n), (1.0, 2.0, 3.0, 4.0, 5));
        assert_eq!(fastest(&[4.0, 1.0, 3.0]), 1);
        assert_eq!(Quartiles::of(&[1.0, 2.0]).median, 1.5);
        assert_eq!(Quartiles::of(&[7.0]).median, 7.0);
    }
}
