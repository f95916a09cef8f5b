//! Order statistics of a sample of timings.

use crate::json::Json;

/// What a result file carries for one metric: its value (the median of
/// the samples, unless the metric says otherwise), and quartiles, count and
/// tail as context for judging its noise.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)`: the highest percentile that still has at
    /// least ten samples beyond it; `None` below twenty samples, where that
    /// percentile would sit under the median.
    pub tail: Option<(f64, f64)>,
}

pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads this crate prints are the ones the acceptance check computes.
/// A single sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    match m {
        0 => (f64::NAN, f64::NAN),
        1 => (v[0], v[0]),
        _ => {
            let cut = |i: usize| {
                let j = (i * (m + 1) / 4).clamp(1, m - 1);
                let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// Interquartile distance as a share of the median.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples)
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let n = samples.len();
        let (q1, q3) = quartiles(samples);
        let tail = (n >= 20).then(|| {
            let mut v = samples.to_vec();
            v.sort_by(f64::total_cmp);
            // Ten samples lie strictly beyond index n - 11.
            (100.0 * (n - 10) as f64 / n as f64, v[n - 11])
        });
        Summary {
            n,
            value: median(samples),
            q1,
            q3,
            tail,
        }
    }

    /// A count or other single observation.
    pub fn single(x: f64) -> Summary {
        Summary::of(&[x])
    }

    pub fn to_json(&self, unit: &str) -> Json {
        let mut pairs = vec![
            ("value", Json::num(self.value)),
            ("unit", Json::str(unit)),
            ("n", Json::Num(self.n as f64)),
            ("q1", Json::num(self.q1)),
            ("q3", Json::num(self.q3)),
        ];
        if let Some((p, v)) = self.tail {
            pairs.push(("tail_percentile", Json::num(p)));
            pairs.push(("tail_value", Json::num(v)));
        }
        Json::obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_single_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 3.75));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
        assert!((spread(&ten) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(Summary::of(&[1.0; 19]).tail, None);
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 40);
        assert_eq!(s.tail, Some((75.0, 30.0)));
        assert_eq!(v.iter().filter(|&&x| x > 30.0).count(), 10);
        let single = Summary::single(3.0);
        assert_eq!(
            (single.n, single.value, single.q1, single.q3),
            (1, 3.0, 3.0, 3.0)
        );
    }
}
