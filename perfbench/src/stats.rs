//! Order statistics for reported timings.
//!
//! A timing is reported as its median and its *tail*: the highest whole
//! percentile (at most the 99th) that still has at least
//! [`TAIL_BEYOND`] samples strictly beyond it, using nearest-rank
//! percentiles. With fewer samples the tail is not defined, and the
//! caller reports the maximum instead, saying so.

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of sorted `xs`: the smallest value with at
/// least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p as usize * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// The highest whole percentile in 1..=99 whose nearest-rank value has
/// at least [`TAIL_BEYOND`] samples beyond it, for `n` samples.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..=99u32)
        .rev()
        .find(|&p| (p as usize * n).div_ceil(100) + TAIL_BEYOND <= n)
}

/// Median by linear interpolation between the two middle samples.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median, tail value and the tail percentile used (`None`: too few
/// samples, the tail value is the maximum).
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: Option<u32>,
}

pub fn summarize(xs: &[f64]) -> Summary {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let tail_pct = tail_percentile(v.len());
    Summary {
        n: v.len(),
        p50: median(&v),
        tail: match tail_pct {
            Some(p) => percentile(&v, p),
            None => *v.last().expect("summary of no samples"),
        },
        tail_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p99_only_with_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(5000), Some(99));
        // 999 samples: p99's rank is 990, leaving only 9 beyond.
        assert_eq!(tail_percentile(999), Some(98));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn chosen_tail_always_leaves_ten_beyond() {
        for n in 11..3000 {
            let p = tail_percentile(n).unwrap();
            let rank = (p as usize * n).div_ceil(100);
            assert!(n - rank >= TAIL_BEYOND, "n={n} p={p}");
            if p < 99 {
                let next = ((p as usize + 1) * n).div_ceil(100);
                assert!(n - next < TAIL_BEYOND, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn nearest_rank_and_median() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 1), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = summarize(&v);
        assert_eq!(
            (s.n, s.p50, s.tail, s.tail_pct),
            (100, 50.5, 90.0, Some(90))
        );
        let few = summarize(&[5.0, 1.0]);
        assert_eq!((few.tail, few.tail_pct), (5.0, None));
    }
}
