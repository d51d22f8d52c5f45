//! Sample statistics used by every workload: medians, the tail rule,
//! geometric means and the seeded Zipf key stream.

use ad_util::Rng64;

/// Samples a reported tail must have beyond it.
const TAIL_MIN_BEYOND: usize = 10;

/// Percentiles tried, highest first, when a tail is asked for.
const TAIL_LADDER: [f64; 6] = [99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Median of `xs` (mean of the two middle values for even counts).
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank index of percentile `pct` in a sorted sample of size `n`.
fn rank_index(n: usize, pct: f64) -> usize {
    let rank = (pct * n as f64 / 100.0).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// A tail value together with the percentile it was actually read at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the percentile used.
    pub value: f64,
    /// The percentile used (at most the one asked for).
    pub pct: f64,
    /// Samples the tail was read from.
    pub n: usize,
}

/// The highest percentile of the ladder, at most `want`, that has at
/// least ten samples beyond it (nearest-rank). `None` when even the
/// median has fewer than ten samples beyond it.
pub fn tail(xs: &[f64], want: f64) -> Option<Tail> {
    let n = xs.len();
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= want)
        .find(|&p| n > 0 && n - 1 - rank_index(n, p) >= TAIL_MIN_BEYOND)
        .map(|pct| Tail {
            value: v[rank_index(n, pct)],
            pct,
            n,
        })
}

/// Geometric mean of strictly positive values.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Geometric mean over groups of each group's median: one median per
/// model, so a slow model does not outweigh a fast one by sample count.
pub fn geomean_of_medians(groups: &[Vec<f64>]) -> Option<f64> {
    let medians: Option<Vec<f64>> = groups.iter().map(|g| median(g)).collect();
    geomean(&medians?)
}

/// Zipf(s) over ranks `0..k`: rank `r` is drawn with weight `1/(r+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Each rank's probability.
    p: Vec<f64>,
}

impl Zipf {
    /// The distribution over `k ≥ 1` ranks with exponent `s`.
    pub fn new(k: usize, s: f64) -> Self {
        let w: Vec<f64> = (1..=k.max(1)).map(|r| 1.0 / (r as f64).powf(s)).collect();
        let total: f64 = w.iter().sum();
        Self {
            p: w.into_iter().map(|x| x / total).collect(),
        }
    }

    /// Each rank's count in `n` draws: its share of `n`, rounded by the
    /// largest remainder (lower rank first on ties) so the counts sum to
    /// `n`.
    pub fn quota(&self, n: usize) -> Vec<usize> {
        let exact: Vec<f64> = self.p.iter().map(|p| p * n as f64).collect();
        let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
        let mut order: Vec<usize> = (0..exact.len()).collect();
        order.sort_by(|&a, &b| {
            let rem = |i: usize| exact[i] - counts[i] as f64;
            rem(b).total_cmp(&rem(a)).then(a.cmp(&b))
        });
        let short = n.saturating_sub(counts.iter().sum());
        for &i in order.iter().cycle().take(short) {
            counts[i] += 1;
        }
        counts
    }
}

/// Draws per block of a key stream.
pub const BLOCK: usize = 256;

/// The seeded key stream of client `client`: an endless sequence of
/// blocks of [`BLOCK`] ranks, each block holding every rank exactly
/// [`Zipf::quota`] times in a seeded order, fixed by (`seed`, `client`).
///
/// Quota blocks instead of independent draws keep the key mix of a run
/// the same for every seed, so that only the order (and with it the hit
/// pattern of an LRU cache) varies: with independent draws, the share of
/// the rarer keys alone moves a run's cost by several percent.
///
/// Each client's generator starts from its own output of a generator
/// seeded with `seed`. (Offsetting the seed itself can land one client's
/// start state on another's second state, which makes the two streams
/// shifted copies of each other.)
pub fn key_stream(zipf: &Zipf, seed: u64, client: u64) -> impl Iterator<Item = usize> {
    let mut seeds = Rng64::new(seed);
    let mut state = seeds.next_u64();
    for _ in 0..client {
        state = seeds.next_u64();
    }
    let mut rng = Rng64::new(state);
    let block: Vec<usize> = zipf
        .quota(BLOCK)
        .iter()
        .enumerate()
        .flat_map(|(rank, &c)| std::iter::repeat_n(rank, c))
        .collect();
    std::iter::repeat(()).flat_map(move |()| {
        let mut b = block.clone();
        shuffle(&mut b, &mut rng);
        b
    })
}

/// Fisher–Yates shuffle of `v` with `rng`.
fn shuffle(v: &mut [usize], rng: &mut Rng64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    shuffle(&mut v, &mut Rng64::new(seed));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the functions must sort.
        permutation(n, 7).into_iter().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, with exactly ten beyond it.
        let t = tail(&ramp(1000), 99.0).unwrap();
        assert_eq!((t.pct, t.value, t.n), (99.0, 989.0, 1000));
        // 999 samples: only nine beyond p99, so p98 is used.
        let t = tail(&ramp(999), 99.0).unwrap();
        assert_eq!(t.pct, 98.0);
        assert_eq!(t.value, 979.0);
        // 200 samples: p95 leaves exactly ten beyond.
        assert_eq!(tail(&ramp(200), 99.0).unwrap().pct, 95.0);
        // 100 samples: p90 leaves ten beyond.
        assert_eq!(tail(&ramp(100), 99.0).unwrap().pct, 90.0);
        // Asking for a lower tail never reports a higher one.
        assert_eq!(tail(&ramp(5000), 95.0).unwrap().pct, 95.0);
        // Too few samples for any tail.
        assert_eq!(tail(&ramp(19), 99.0), None);
        assert_eq!(tail(&[], 99.0), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geomean_of_per_model_medians() {
        // Medians 2, 8 (the 100.0 outlier does not move model A's median).
        let groups = vec![vec![2.0, 1.0, 100.0, 2.0, 3.0], vec![8.0, 8.0]];
        let g = geomean_of_medians(&groups).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        // A model with fewer samples weighs the same as one with more.
        let groups = vec![vec![1.0; 99], vec![100.0]];
        assert!((geomean_of_medians(&groups).unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(geomean_of_medians(&[vec![1.0], vec![]]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn zipf_stream_is_fixed_by_seed() {
        let z = Zipf::new(32, 1.0);
        let a: Vec<usize> = key_stream(&z, 11, 0).take(500).collect();
        let b: Vec<usize> = key_stream(&z, 11, 0).take(500).collect();
        let c: Vec<usize> = key_stream(&z, 12, 0).take(500).collect();
        let d: Vec<usize> = key_stream(&z, 11, 1).take(500).collect();
        assert_eq!(a, b, "same seed, same stream");
        assert_ne!(a, c, "another seed, another stream");
        assert_ne!(a, d, "each client has its own stream");
        assert!(a.iter().all(|&k| k < 32));
        // No client's stream is a shifted copy of another's, for seeds
        // whose bits make `seed ^ c` and `seed + c` coincide too.
        for seed in [1, 202, 1 << 40] {
            let a: Vec<usize> = key_stream(&z, seed, 0).take(200).collect();
            let b: Vec<usize> = key_stream(&z, seed, 1).take(200).collect();
            for shift in 0..4 {
                assert_ne!(a[shift..], b[..200 - shift], "seed {seed} shift {shift}");
                assert_ne!(b[shift..], a[..200 - shift], "seed {seed} shift {shift}");
            }
        }
    }

    #[test]
    fn quota_is_the_zipf_share_rounded_to_the_block() {
        let z = Zipf::new(32, 1.0);
        let q = z.quota(BLOCK);
        assert_eq!(q.iter().sum::<usize>(), BLOCK);
        assert!(q.windows(2).all(|w| w[0] >= w[1]), "{q:?}");
        for (c, p) in q.iter().zip(&z.p) {
            assert!((*c as f64 - p * BLOCK as f64).abs() < 1.0, "{q:?}");
        }
        // Every key of the churn and hot sets appears in every block.
        assert!(q.iter().all(|&c| c > 0), "{q:?}");
        assert!(Zipf::new(36, 1.0).quota(BLOCK).iter().all(|&c| c > 0));
        // The mix of every block, and so of every run, is the same for
        // every seed.
        for seed in [1, 2, 3] {
            let mut counts = vec![0usize; 32];
            for k in key_stream(&z, seed, 0).take(2 * BLOCK) {
                counts[k] += 1;
            }
            assert_eq!(counts, q.iter().map(|c| 2 * c).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(4, 1.0);
        let mut counts = [0usize; 4];
        for k in key_stream(&z, 3, 0).take(20_000) {
            counts[k] += 1;
        }
        // Weights 1, 1/2, 1/3, 1/4 over 25/12: rank 0 gets 48%.
        let share0 = counts[0] as f64 / 20_000.0;
        assert!((share0 - 0.48).abs() < 0.02, "{share0}");
        assert!(counts.windows(2).all(|w| w[0] > w[1]), "{counts:?}");
    }
}
