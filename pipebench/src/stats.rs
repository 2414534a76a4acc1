//! The benchmark's own arithmetic: quantiles, the tail-percentile rule,
//! commit→checked lag from two sampled counter curves, and the failed
//! share. Kept free of timing and I/O so the tests can feed it synthetic
//! inputs.

/// Value at quantile `q` (0 ≤ q ≤ 1) of an ascending slice, interpolating
/// linearly between the two closest ranks. `NaN` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts a copy of `values` ascending (NaNs last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// `(q3 − q1) / median` of `values`: how much they spread, relative to
/// their middle. 0 for fewer than two values.
pub fn relative_iqr(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let s = sorted(values);
    (quantile(&s, 0.75) - quantile(&s, 0.25)) / quantile(&s, 0.5)
}

/// Percentiles the tail rule chooses from, highest first.
pub const TAIL_LADDER: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// The highest percentile of [`TAIL_LADDER`] with at least ten of `n`
/// samples beyond it (`n · (1 − p) ≥ 10`). Falls back to the median when
/// even that has fewer than ten samples beyond it.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p) >= 10.0 - 1e-9)
        .unwrap_or(0.5)
}

/// A timing distribution summarised by the rule the benchmark reports:
/// its median and the tail percentile [`tail_percentile`] allows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// The median.
    pub p50: f64,
    /// Which percentile `tail` is (e.g. 0.99).
    pub tail_pct: f64,
    /// The value at `tail_pct`.
    pub tail: f64,
}

/// Summarises `values` by the median-plus-tail rule, reporting no tail
/// above `ceiling` (a metric named p99 reports p99 once it has the samples
/// for it, and a lower percentile only when it does not).
pub fn summarize(values: &[f64], ceiling: f64) -> Summary {
    let s = sorted(values);
    let tail_pct = tail_percentile(s.len()).min(ceiling);
    Summary {
        count: s.len(),
        p50: quantile(&s, 0.5),
        tail_pct,
        tail: quantile(&s, tail_pct),
    }
}

/// One observation of the pipeline's two monotone counters: events the
/// program has appended and events the verifier has checked, at `t`
/// seconds after the leg started.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CurveSample {
    /// Seconds since the leg started.
    pub t: f64,
    /// Events appended so far (`LogStats::events`).
    pub appended: u64,
    /// Events checked so far.
    pub checked: u64,
}

/// Every `LAG_STRIDE`-th checked event contributes one lag sample.
pub const LAG_STRIDE: u64 = 8;

/// Commit→checked lag in seconds: the horizontal distance between the
/// appended curve and the checked curve, both linear between samples.
///
/// Event number `h` (1-based) was appended when the appended curve reached
/// `h` and checked when the checked curve did; its lag is the difference.
/// Every [`LAG_STRIDE`]-th event yields one sample, so the result weights
/// the distribution by events, not by samples.
pub fn lag_curve(samples: &[CurveSample]) -> Vec<f64> {
    // When `curve(samples[i])` first reached `h`, interpolating linearly
    // from the sample before (or at the first sample, if it already had).
    fn reached(samples: &[CurveSample], i: usize, h: u64, curve: fn(&CurveSample) -> u64) -> f64 {
        let b = &samples[i];
        if i == 0 {
            return b.t;
        }
        let a = &samples[i - 1];
        let rise = (curve(b) - curve(a)) as f64;
        a.t + (b.t - a.t) * (h - curve(a)) as f64 / rise
    }
    let mut lags = Vec::new();
    // Index of the first sample whose `appended` reaches the height being
    // inverted; heights only grow, so it only moves forward.
    let mut j = 0usize;
    for (i, s) in samples.iter().enumerate() {
        let prev = if i == 0 { 0 } else { samples[i - 1].checked };
        if s.checked <= prev {
            continue;
        }
        // Stride-aligned heights in (prev, s.checked].
        let mut h = (prev / LAG_STRIDE + 1) * LAG_STRIDE;
        while h <= s.checked {
            while j < samples.len() && samples[j].appended < h {
                j += 1;
            }
            // Checked beyond anything seen appended (the counters are read
            // one after the other): treat as appended at the last sample.
            let appended_at = if j == samples.len() {
                samples[j - 1].t
            } else {
                reached(samples, j, h, |c| c.appended)
            };
            let checked_at = reached(samples, i, h, |c| c.checked);
            lags.push((checked_at - appended_at).max(0.0));
            h += LAG_STRIDE;
        }
    }
    lags
}

/// Calls in legs that did not end in a clean PASS, as a share of all calls
/// attempted. Each item is `(calls, clean)`. Zero when nothing was
/// attempted.
pub fn failed_share(legs: impl IntoIterator<Item = (u64, bool)>) -> (u64, u64, f64) {
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (calls, clean) in legs {
        attempted += calls;
        if !clean {
            failed += calls;
        }
    }
    let share = if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    };
    (attempted, failed, share)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert!(close(quantile(&s, 0.5), 2.5));
        assert!(close(quantile(&s, 0.0), 1.0));
        assert!(close(quantile(&s, 1.0), 4.0));
        assert!(close(median(&[5.0, 1.0, 3.0]), 3.0));
        assert!(median(&[]).is_nan());
        assert!(close(relative_iqr(&s), (3.25 - 1.75) / 2.5));
        assert_eq!(relative_iqr(&[7.0]), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_percentile(10_000), 0.999);
        assert_eq!(tail_percentile(9_999), 0.99);
        assert_eq!(tail_percentile(1_000), 0.99);
        assert_eq!(tail_percentile(999), 0.9);
        assert_eq!(tail_percentile(100), 0.9);
        assert_eq!(tail_percentile(99), 0.5);
        assert_eq!(tail_percentile(3), 0.5);
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&values, 1.0);
        assert_eq!(s.count, 1000);
        assert!(close(s.p50, 500.5));
        assert_eq!(s.tail_pct, 0.99);
        assert!(close(s.tail, quantile(&values, 0.99)));
        let many: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(summarize(&many, 1.0).tail_pct, 0.999);
        assert_eq!(summarize(&many, 0.99).tail_pct, 0.99);
        assert_eq!(summarize(&values[..50], 0.99).tail_pct, 0.5);
    }

    #[test]
    fn constant_delay_inverts_to_a_constant_lag() {
        // appended(t) = 1000·t; checked(t) = appended(t − 0.5).
        let samples: Vec<CurveSample> = (0..=400)
            .map(|i| {
                let t = i as f64 * 0.005;
                CurveSample {
                    t,
                    appended: (1000.0 * t).round() as u64,
                    checked: (1000.0 * (t - 0.5)).max(0.0).round() as u64,
                }
            })
            .collect();
        let lags = lag_curve(&samples);
        assert_eq!(lags.len() as u64, 1500 / LAG_STRIDE);
        for lag in lags {
            assert!((lag - 0.5).abs() < 0.0051, "lag {lag}");
        }
    }

    #[test]
    fn a_burst_appended_at_once_lags_by_its_check_time() {
        // The offline shape: 80 events appended before t = 0, checked in
        // two halves ending at t = 1 and t = 3.
        let samples = [
            CurveSample {
                t: 0.0,
                appended: 80,
                checked: 0,
            },
            CurveSample {
                t: 1.0,
                appended: 80,
                checked: 40,
            },
            CurveSample {
                t: 3.0,
                appended: 80,
                checked: 80,
            },
        ];
        let lags = lag_curve(&samples);
        let expected = [0.2, 0.4, 0.6, 0.8, 1.0, 1.4, 1.8, 2.2, 2.6, 3.0];
        assert_eq!(lags.len(), expected.len());
        for (lag, want) in lags.iter().zip(expected) {
            assert!(close(*lag, want), "{lags:?}");
        }
    }

    #[test]
    fn interpolation_places_an_event_between_samples() {
        let samples = [
            CurveSample {
                t: 0.0,
                appended: 0,
                checked: 0,
            },
            CurveSample {
                t: 1.0,
                appended: 16,
                checked: 0,
            },
            CurveSample {
                t: 2.0,
                appended: 16,
                checked: 16,
            },
        ];
        // Event 8 was appended at t = 0.5 and checked at t = 1.5; event 16
        // appended at t = 1 and checked at t = 2.
        assert_eq!(lag_curve(&samples), vec![1.0, 1.0]);
    }

    #[test]
    fn checked_ahead_of_the_last_appended_read_is_not_negative() {
        let samples = [
            CurveSample {
                t: 0.0,
                appended: 8,
                checked: 0,
            },
            CurveSample {
                t: 0.1,
                appended: 8,
                checked: 16,
            },
        ];
        let lags = lag_curve(&samples);
        assert_eq!(lags.len(), 2);
        assert!(lags.iter().all(|&l| l >= 0.0));
    }

    #[test]
    fn failed_share_counts_calls_of_unclean_legs() {
        assert_eq!(failed_share([(100, true), (300, false)]), (400, 300, 0.75));
        assert_eq!(failed_share([(100, true)]), (100, 0, 0.0));
        assert_eq!(failed_share([]), (0, 0, 0.0));
    }
}
