//! Order statistics shared by every workload.

/// Median of `xs` (mean of the two middle values for an even count); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// A tail latency together with the percentile it was read at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Nearest-rank percentile, in percent.
    pub pct: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// Highest percentile [`tail`] reports. Past it, runs of a few thousand
/// sub-millisecond ops measure the host's scheduling stalls rather than
/// the program: the eleventh-slowest of 13,000 cold compiles read 1.2 ms
/// in one run and 10 ms in the next, while p99 stayed within 1.0–1.1 ms.
pub const TAIL_CAP_PCT: f64 = 99.0;

/// The tail of `xs`: the highest nearest-rank percentile that still has at
/// least ten samples beyond it, so a single outlier cannot set it, capped
/// at [`TAIL_CAP_PCT`]. With fewer than 21 samples that percentile would
/// sit at or below the median, so the median is reported instead (and
/// `pct` says 50).
pub fn tail(xs: &[f64]) -> Tail {
    let s = sorted(xs);
    let n = s.len();
    if n >= 21 {
        // Rank k (0-based) leaves n - 1 - k samples beyond it.
        let cap = (TAIL_CAP_PCT / 100.0 * n as f64).ceil() as usize - 1;
        let (k, pct) = if n - 11 >= cap {
            (cap, TAIL_CAP_PCT)
        } else {
            (n - 11, 100.0 * (n - 10) as f64 / n as f64)
        };
        return Tail {
            value: s[k],
            pct,
            beyond: n - 1 - k,
        };
    }
    Tail {
        value: median(xs),
        pct: 50.0,
        beyond: n / 2,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        for n in (21..3000).step_by(7) {
            let xs: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
            let t = tail(&xs);
            let beyond = xs.iter().filter(|&&x| x > t.value).count();
            assert_eq!(beyond, t.beyond, "n={n}");
            assert!(beyond >= 10, "n={n}");
            assert!(t.pct > 50.0 && t.pct <= TAIL_CAP_PCT, "n={n} pct={}", t.pct);
            if n <= 1000 {
                // Below the cap it is the highest such rank: one rank up
                // leaves only nine.
                assert_eq!(beyond, 10, "n={n}");
            } else {
                assert_eq!(t.pct, TAIL_CAP_PCT, "n={n}");
            }
        }
    }

    #[test]
    fn tail_with_few_samples_is_the_median() {
        let xs: Vec<f64> = (1..=12).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, median(&xs));
        assert_eq!(t.pct, 50.0);
    }

    #[test]
    fn tail_of_a_thousand_samples_is_p99_and_stays_there() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.pct, t.beyond), (990.0, 99.0, 10));
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.pct, t.beyond), (9900.0, 99.0, 100));
    }
}
