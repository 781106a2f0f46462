//! Order statistics for timing samples.

/// Median of `samples` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A tail percentile chosen by the reporting rule: the highest whole
/// percentile, at most `want`, that still has at least ten samples beyond
/// it (nearest-rank definition).  With fewer than twenty samples no tail
/// percentile qualifies and the median is reported as percentile 50.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported.
    pub percentile: u32,
    /// Its value.
    pub value: f64,
    /// Number of samples it was taken from.
    pub samples: usize,
}

/// Samples strictly beyond the nearest-rank `pct`-th percentile of `n`.
fn beyond(n: usize, pct: u32) -> usize {
    let rank = (pct as usize * n).div_ceil(100).max(1);
    n - rank
}

/// The tail percentile of `samples` by the rule documented on [`Tail`].
///
/// # Panics
/// Panics on an empty slice or a `want` outside `50..=99`.
pub fn tail(samples: &[f64], want: u32) -> Tail {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!((50..=99).contains(&want), "tail percentile must be 50..=99");
    let s = sorted(samples);
    let n = s.len();
    match (50..=want).rev().find(|&p| beyond(n, p) >= 10) {
        Some(p) => Tail {
            percentile: p,
            value: s[n - beyond(n, p) - 1],
            samples: n,
        },
        None => Tail {
            percentile: 50,
            value: median(&s),
            samples: n,
        },
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
