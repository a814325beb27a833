//! The estimators every timed metric goes through.
//!
//! Host noise on the measuring box only ever *adds* time, arrives in
//! bursts of a second to minutes, and at its worst leaves only a few quiet
//! stretches in a 20 s run. So an end-to-end metric is the **quietest
//! sample** of *identical work* — the fastest epoch `i` over the rounds,
//! the fastest block of requests — never a mean or a count per elapsed
//! time. Measured on that box (see README.md): where the lower quartile of
//! ten two-second windows moved 25 % between runs of one binary, the
//! quietest block of 64 requests moved 6 %. The direct-call probes, which
//! are short enough to sit inside a quiet stretch, keep the lower quartile
//! of their repeats; `agree` reports quartiles the way the acceptance
//! check computes them.

/// Ascending copy; panics on NaN, which no stopwatch produces.
fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "estimator needs at least one sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// The quietest sample of a time.
pub fn quietest(values: &[f64]) -> f64 {
    sorted(values)[0]
}

/// The quietest sample of a rate: noise only ever lowers one.
pub fn fastest(values: &[f64]) -> f64 {
    *sorted(values).last().expect("non-empty")
}

/// Nearest-rank lower quartile: element `⌊(n−1)/4⌋` of the sorted sample.
pub fn lower_quartile(values: &[f64]) -> f64 {
    let v = sorted(values);
    v[(v.len() - 1) / 4]
}

/// Nearest-rank upper quartile — the lower quartile's mirror image, for
/// rates.
pub fn upper_quartile(values: &[f64]) -> f64 {
    let v = sorted(values);
    v[v.len() - 1 - (v.len() - 1) / 4]
}

/// Plain median (mean of the two middle elements for even `n`).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `p` in `(0, 1]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// computes them (the exclusive method); needs two samples.
pub fn python_quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let len = v.len();
    assert!(len >= 2, "quartiles need two samples");
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Quiet epoch times of one fit: epoch `i` is bitwise the same work in
/// every round, so the rounds' `i`-th epoch times are samples of one
/// quantity and the quietest of them is its estimate. The fit is their sum.
pub fn quiet_epochs(rounds: &[Vec<f64>]) -> Vec<f64> {
    let epochs = rounds.first().map_or(0, Vec::len);
    assert!(epochs > 0, "quiet_epochs needs a round with epochs");
    assert!(
        rounds.iter().all(|r| r.len() == epochs),
        "every round runs the same schedule"
    );
    (0..epochs)
        .map(|i| quietest(&rounds.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

/// Completions of a closed-loop phase, cut into blocks of `size`
/// consecutive completions as they arrive: a block is a fixed amount of
/// work and its duration is the measurement. Only whole blocks inside the
/// phase count; what follows the last whole block, and stragglers drained
/// after the phase, do not.
pub struct Blocks {
    size: usize,
    phase_ns: u64,
    /// Where the open block began: the previous block's last completion.
    open_since_ns: u64,
    open: Vec<u32>,
    rates_per_s: Vec<f64>,
    median_latencies_ms: Vec<f64>,
    all_latencies_ns: Vec<u32>,
}

impl Blocks {
    pub fn new(size: usize, phase_ns: u64) -> Self {
        assert!(size > 0, "a block holds at least one completion");
        Self {
            size,
            phase_ns,
            open_since_ns: 0,
            open: Vec::with_capacity(size),
            rates_per_s: Vec::new(),
            median_latencies_ms: Vec::new(),
            all_latencies_ns: Vec::new(),
        }
    }

    /// Files one completion at phase time `done_ns`; returns whether it
    /// fell inside the phase (the phase end is exclusive).
    pub fn record(&mut self, done_ns: u64, latency_ns: u64) -> bool {
        if done_ns >= self.phase_ns {
            return false;
        }
        self.open.push(latency_ns.min(u64::from(u32::MAX)) as u32);
        if self.open.len() == self.size {
            let secs = (done_ns - self.open_since_ns) as f64 / 1e9;
            self.rates_per_s.push(self.size as f64 / secs);
            let ms: Vec<f64> = self.open.iter().map(|&ns| f64::from(ns) / 1e6).collect();
            self.median_latencies_ms.push(median(&ms));
            self.all_latencies_ns.append(&mut self.open);
            self.open_since_ns = done_ns;
        }
        true
    }

    /// Completions in whole blocks.
    pub fn total(&self) -> usize {
        self.all_latencies_ns.len()
    }

    /// Completions per second, one value per block.
    pub fn rates_per_s(&self) -> &[f64] {
        &self.rates_per_s
    }

    /// Median latency in ms, one value per block.
    pub fn median_latencies_ms(&self) -> &[f64] {
        &self.median_latencies_ms
    }

    /// Every latency in ms, for the plain (ungated) statistics.
    pub fn all_latencies_ms(&self) -> Vec<f64> {
        self.all_latencies_ns
            .iter()
            .map(|&ns| f64::from(ns) / 1e6)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the estimators sort for themselves.
        let mut v: Vec<f64> = (0..n).map(|i| ((i * 7) % n) as f64).collect();
        v.reverse();
        v
    }

    #[test]
    fn nearest_rank_quartiles_and_extremes() {
        // n = 1: the only sample. n = 4: still the extreme. n = 5: the
        // second from the quiet end. n = 15: the fourth.
        for (n, low, high) in [(1, 0.0, 0.0), (4, 0.0, 3.0), (5, 1.0, 3.0), (15, 3.0, 11.0)] {
            assert_eq!(lower_quartile(&ramp(n)), low, "lower, n = {n}");
            assert_eq!(upper_quartile(&ramp(n)), high, "upper, n = {n}");
            assert_eq!(quietest(&ramp(n)), 0.0);
            assert_eq!(fastest(&ramp(n)), (n - 1) as f64);
        }
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn python_quartiles_match_the_reference_values() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(python_quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
        assert_eq!(
            python_quartiles(&[4.0, 9.0, 2.0, 5.0, 4.0]),
            (3.0, 4.0, 7.0)
        );
    }

    #[test]
    fn quiet_epochs_match_by_epoch_index() {
        // Epoch 0 is slow in round 0 only, epoch 1 in round 2 only: no
        // single round is the quiet one, the matched estimate still is.
        let rounds = vec![vec![9.0, 2.0], vec![1.0, 2.0], vec![1.0, 8.0]];
        assert_eq!(quiet_epochs(&rounds), vec![1.0, 2.0]);
    }

    #[test]
    fn blocks_are_timed_from_the_previous_block_and_stop_at_the_phase_end() {
        let mut b = Blocks::new(2, 10_000);
        for t in [1_000, 2_000, 2_500, 6_000, 9_999] {
            assert!(b.record(t, t), "{t} is inside the phase");
        }
        assert!(!b.record(10_000, 1), "the phase end is exclusive");
        assert!(!b.record(12_000, 1), "a straggler drained after the phase");
        // Two whole blocks: [0, 2000] and (2000, 6000]; the fifth
        // completion never filled its block.
        assert_eq!(b.total(), 4);
        assert_eq!(b.rates_per_s(), [2.0 / 2_000e-9, 2.0 / 4_000e-9]);
        assert_eq!(b.median_latencies_ms(), [1_500e-6, 4_250e-6]);
        assert_eq!(b.all_latencies_ms().len(), 4);
    }

    /// Bursts one round long, as on the measuring box (seconds of slowdown
    /// against 0.1–0.2 s epochs): 40 % of all epochs run 1.5–4× slow, the
    /// matched estimate does not move and the mean is useless.
    #[test]
    fn matched_quiet_fit_ignores_bursts_that_wreck_the_mean() {
        let mut rng = StdRng::seed_from_u64(0xB0057);
        for _ in 0..200 {
            let (rounds, epochs) = (5usize, 30usize);
            let clean: Vec<f64> = (0..epochs).map(|i| 0.15 - 0.002 * i as f64).collect();
            let mut flat: Vec<f64> = (0..rounds).flat_map(|_| clean.clone()).collect();
            // Two bursts × 30 consecutive epochs = 40 % of the 150 samples.
            let first = rng.gen_range(0..flat.len() - 2 * epochs);
            let second = rng.gen_range(first + epochs..flat.len() - epochs + 1);
            for start in [first, second] {
                for sample in &mut flat[start..start + epochs] {
                    *sample *= rng.gen_range(1.5..4.0);
                }
            }
            let noisy: Vec<Vec<f64>> = flat.chunks(epochs).map(<[f64]>::to_vec).collect();
            let truth: f64 = clean.iter().sum();
            let quiet: f64 = quiet_epochs(&noisy).iter().sum();
            let mean = flat.iter().sum::<f64>() / rounds as f64;
            assert!(
                (quiet - truth).abs() / truth < 0.02,
                "quiet {quiet} vs {truth}"
            );
            assert!((mean - truth) / truth > 0.20, "mean {mean} vs {truth}");
        }
    }

    /// The same for serving blocks: a random 40 % of twenty blocks, in
    /// runs of two or three, lose throughput and gain latency. Both the
    /// quietest block and the quartile hold; the mean does not.
    #[test]
    fn block_estimators_ignore_bursts_that_wreck_the_mean() {
        let mut rng = StdRng::seed_from_u64(0x57A11);
        for _ in 0..200 {
            let mut rate = vec![20_000.0f64; 20];
            let mut latency = vec![0.130f64; 20];
            let mut hit = 0;
            while hit < 8 {
                let start = rng.gen_range(0..20);
                for i in start..(start + rng.gen_range(2..4)).min(20) {
                    if latency[i] == 0.130 && hit < 8 {
                        let slow = rng.gen_range(1.5..4.0);
                        rate[i] /= slow;
                        latency[i] *= slow;
                        hit += 1;
                    }
                }
            }
            for estimate in [fastest(&rate), upper_quartile(&rate)] {
                assert!((estimate - 20_000.0).abs() / 20_000.0 < 0.02);
            }
            for estimate in [quietest(&latency), lower_quartile(&latency)] {
                assert!((estimate - 0.130).abs() / 0.130 < 0.02);
            }
            let mean_rate = rate.iter().sum::<f64>() / 20.0;
            let mean_latency = latency.iter().sum::<f64>() / 20.0;
            // A rate loses at most 1 − 1/1.5 per slow block, so its mean
            // moves less than the latency's; both move far past the bounds.
            assert!((20_000.0 - mean_rate) / 20_000.0 > 0.12);
            assert!((mean_latency - 0.130) / 0.130 > 0.20);
        }
    }
}
