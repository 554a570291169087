//! The open-loop arrival schedule of the service stream: a seeded Poisson
//! process over a fixed job mix. Jobs are sent when due whether or not the
//! service has kept up, so a stall shows as latency of later jobs.

use fascia_core::coloring::splitmix64;
use std::time::Duration;

/// One scheduled job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Offset of the due time from the stream start.
    pub due: Duration,
    /// Index into the stream's edge-list files.
    pub file: usize,
    /// Index into the stream's templates.
    pub template: usize,
    /// Index into the stream's small set of coloring seeds.
    pub seed: usize,
}

/// Deterministic draws from a SplitMix64 stream.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `jobs` arrivals at `rate_per_s`, and the job mix `(files, templates,
/// seeds)`. The same `seed` always gives the same schedule.
///
/// The gaps are the exponential distribution's quantiles at the stratified
/// probabilities `(i + 0.5) / jobs`, in seeded random order, and the
/// (file, template) pairs are dealt in seeded blocks that hold each pair
/// once. Every run therefore offers the same rate, gap distribution and
/// mix; the seed decides their order and each job's coloring seed. This
/// keeps run-to-run spread down without giving up Poisson-like bursts.
pub fn poisson(
    seed: u64,
    rate_per_s: f64,
    jobs: usize,
    mix: (usize, usize, usize),
) -> Vec<Arrival> {
    let mut rng = Rng(seed);
    let mut gaps: Vec<f64> = (0..jobs)
        .map(|i| -(1.0 - (i as f64 + 0.5) / jobs as f64).ln() / rate_per_s)
        .collect();
    shuffle(&mut gaps, &mut rng);
    let pairs = mix.0 * mix.1;
    let mut block: Vec<usize> = Vec::new();
    let mut t = 0.0f64;
    gaps.iter()
        .map(|gap| {
            if block.is_empty() {
                block = (0..pairs).collect();
                shuffle(&mut block, &mut rng);
            }
            let pair = block.pop().expect("refilled when empty");
            t += gap;
            Arrival {
                due: Duration::from_secs_f64(t),
                file: pair / mix.1,
                template: pair % mix.1,
                seed: rng.below(mix.2),
            }
        })
        .collect()
}

/// Fisher–Yates shuffle.
fn shuffle<T>(xs: &mut [T], rng: &mut Rng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below(i + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson(7, 20.0, 300, (3, 4, 4));
        assert_eq!(a, poisson(7, 20.0, 300, (3, 4, 4)));
        assert_ne!(a, poisson(8, 20.0, 300, (3, 4, 4)));
    }

    #[test]
    fn due_times_increase_at_the_rate_with_exponential_gaps() {
        let a = poisson(11, 20.0, 4000, (3, 4, 4));
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        let span = a.last().unwrap().due.as_secs_f64();
        let rate = a.len() as f64 / span;
        assert!((rate - 20.0).abs() < 0.1, "observed rate {rate}");
        // Exponential gaps: about 1/e of them exceed the mean gap.
        let mut prev = 0.0;
        let long = a
            .iter()
            .filter(|x| {
                let t = x.due.as_secs_f64();
                let gap = t - prev;
                prev = t;
                gap > 1.0 / 20.0
            })
            .count();
        let share = long as f64 / a.len() as f64;
        assert!((share - (-1.0f64).exp()).abs() < 0.01, "share {share}");
    }

    #[test]
    fn every_block_deals_each_pair_once() {
        let a = poisson(5, 10.0, 24, (3, 4, 2));
        for block in a.chunks(12) {
            let mut pairs: Vec<usize> = block.iter().map(|x| x.file * 4 + x.template).collect();
            pairs.sort_unstable();
            assert_eq!(pairs, (0..12).collect::<Vec<_>>());
        }
    }

    #[test]
    fn mix_indices_stay_in_range_and_all_appear() {
        let a = poisson(3, 10.0, 500, (3, 4, 2));
        let seen = |f: fn(&Arrival) -> usize, n: usize| {
            let mut hit = vec![false; n];
            for x in &a {
                hit[f(x)] = true;
            }
            hit.iter().all(|&h| h)
        };
        assert!(seen(|x| x.file, 3));
        assert!(seen(|x| x.template, 4));
        assert!(seen(|x| x.seed, 2));
    }
}
