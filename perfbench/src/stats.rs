//! Order statistics, the tail-percentile rule, the workload digest, and
//! the environment probes every run records.

use std::time::Instant;

/// Fewest samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of `samples` (`q` in `[0, 1]`); `None` when empty.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q)])
}

/// Median of `samples`; `None` when empty.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Zero-based nearest rank of quantile `q` among `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_precision_loss)]
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The `q` tail percentile, reported only when at least
/// [`TAIL_MIN_BEYOND`] samples lie strictly beyond it. A tail estimate
/// resting on fewer samples is one outlier away from a different number,
/// so the caller must report it as unsupported instead.
#[must_use]
pub fn tail_quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let value = sorted[rank(sorted.len(), q)];
    let beyond = sorted.iter().filter(|&&v| v > value).count();
    (beyond >= TAIL_MIN_BEYOND).then_some(value)
}

/// FNV-1a over a sequence of `u64` word lists. Each list is prefixed with
/// its length, so `[[1, 2], [3]]` and `[[1], [2, 3]]` digest differently.
#[must_use]
pub fn digest<'a>(keys: impl IntoIterator<Item = &'a [u64]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for key in keys {
        eat(key.len() as u64);
        for &w in key {
            eat(w);
        }
    }
    h
}

/// SplitMix64: the benchmark's own seeded generator, so no input depends
/// on a generator the program under test ships.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of seed `seed`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd134_2543_de82_ef95));
        rng.next_u64();
        rng
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        u
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn below(&mut self, lo: usize, hi: usize) -> usize {
        #[allow(clippy::cast_possible_truncation)]
        let k = (self.next_u64() % (hi - lo) as u64) as usize;
        lo + k
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(0, i + 1);
            items.swap(i, j);
        }
    }
}

/// Increments of the additive-recurrence (Kronecker) sequences that place
/// the parameters a workload's cost depends on: the golden ratio and the
/// two-dimensional R2 constants.
pub const PHI: f64 = 0.618_033_988_749_894_9;
/// First R2 increment.
pub const R2_A: f64 = 0.754_877_666_246_692_7;
/// Second R2 increment.
pub const R2_B: f64 = 0.569_840_290_998_053_3;

/// Point `j` of the sequence with increment `step` and offset `offset`, in
/// `[0, 1)`. Any stretch of such a sequence covers `[0, 1)` evenly.
#[must_use]
pub fn kronecker(offset: f64, j: u64, step: f64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let x = offset + j as f64 * step;
    x - x.floor()
}

/// Share of its range by which the seed moves a Kronecker sequence.
pub const OFFSET_JITTER: f64 = 1.0 / 64.0;

/// Offset of the `k`-th Kronecker sequence of a seeded generator: a fixed
/// offset that the seed moves by at most [`OFFSET_JITTER`]. Every point of
/// the sequence then moves by at most that much between seeds, so two
/// seeds' inputs differ while what they cost stays nearly the same. A
/// freely seeded offset shifted a serve-mixed deck's points into and out of
/// the costly corners of the price band, making seeds' decks differ in cost
/// by ±5%.
pub fn seeded_offset(rng: &mut Rng, k: u64) -> f64 {
    kronecker(0.0, k + 1, PHI) + OFFSET_JITTER * rng.unit()
}

/// A uniform sample of at most `cap` items from a stream of unknown
/// length (Algorithm R), seeded so a run repeats its choices. It keeps the
/// harness's memory flat however many passes a run makes.
#[derive(Debug)]
pub struct Reservoir<T> {
    cap: usize,
    seen: usize,
    items: Vec<T>,
    rng: Rng,
}

impl<T> Reservoir<T> {
    /// An empty reservoir of capacity `cap`.
    #[must_use]
    pub fn new(cap: usize, seed: u64) -> Self {
        Reservoir { cap, seen: 0, items: Vec::with_capacity(cap), rng: Rng::new(seed, 0x7e5e) }
    }

    /// Offers the next item of the stream.
    pub fn offer(&mut self, item: T) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(item);
        } else {
            let j = self.rng.below(0, self.seen);
            if j < self.cap {
                self.items[j] = item;
            }
        }
    }

    /// The kept items.
    #[must_use]
    pub fn items(&self) -> &[T] {
        &self.items
    }
}

/// Cumulative CPU tick counters of the whole machine (`/proc/stat`).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    total: u64,
    steal: u64,
}

impl CpuTicks {
    /// Reads the aggregate `cpu` line; zeros when `/proc/stat` is absent.
    #[must_use]
    pub fn read() -> Self {
        let Ok(stat) = std::fs::read_to_string("/proc/stat") else { return CpuTicks::default() };
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTicks::default();
        };
        let fields: Vec<u64> =
            line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
        CpuTicks { total: fields.iter().take(8).sum(), steal: fields.get(7).copied().unwrap_or(0) }
    }

    /// Share of CPU time stolen by the hypervisor between `self` and
    /// `later`, in percent.
    #[must_use]
    pub fn steal_pct_until(&self, later: &CpuTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let pct = 100.0 * later.steal.saturating_sub(self.steal) as f64 / total as f64;
        pct
    }
}

/// Which samples to keep: those whose hypervisor steal is at or below the
/// median steal of all of them, so at least half are kept.
#[must_use]
pub fn least_stolen_half(steals: &[f64]) -> Vec<bool> {
    let cut = median(steals).unwrap_or(0.0);
    steals.iter().map(|&s| s <= cut).collect()
}

/// Peak resident set of this process (`VmHWM`) in MiB.
#[must_use]
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// Logical CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Seconds elapsed since `t0`.
#[must_use]
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), Some(50.0));
        assert_eq!(quantile(&xs, 0.99), Some(99.0));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 is the 990th value and 10 lie beyond it.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_quantile(&xs, 0.99), Some(990.0));
        // 999 samples: only 9 lie beyond the p99 rank.
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_quantile(&short, 0.99), None);
        // Ties at the top do not count as "beyond".
        let mut tied = vec![1.0; 985];
        tied.extend(vec![5.0; 15]);
        assert_eq!(tail_quantile(&tied, 0.99), None);
        assert_eq!(tail_quantile(&tied, 0.5), Some(1.0));
        assert_eq!(tail_quantile(&[], 0.5), None);
    }

    #[test]
    fn least_stolen_half_keeps_at_least_half() {
        assert_eq!(least_stolen_half(&[5.0, 0.5, 9.0, 1.0]), vec![false, true, false, true]);
        assert_eq!(least_stolen_half(&[0.0, 0.0, 0.0]), vec![true, true, true]);
        assert_eq!(least_stolen_half(&[3.0, 1.0, 2.0]), vec![false, true, true]);
        assert!(least_stolen_half(&[]).is_empty());
    }

    #[test]
    fn digest_is_order_and_boundary_sensitive() {
        let a: [&[u64]; 2] = [&[1, 2], &[3]];
        let b: [&[u64]; 2] = [&[1], &[2, 3]];
        let c: [&[u64]; 2] = [&[3], &[1, 2]];
        assert_eq!(digest(a), digest(a));
        assert_ne!(digest(a), digest(b));
        assert_ne!(digest(a), digest(c));
        assert_eq!(digest(std::iter::empty::<&[u64]>()), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn reservoir_keeps_everything_until_full_then_a_fixed_size_sample() {
        let mut r = Reservoir::new(4, 1);
        for i in 0..3 {
            r.offer(i);
        }
        assert_eq!(r.items(), &[0, 1, 2]);
        for i in 3..1000 {
            r.offer(i);
        }
        assert_eq!(r.items().len(), 4);
        let mut again = Reservoir::new(4, 1);
        (0..1000).for_each(|i| again.offer(i));
        assert_eq!(r.items(), again.items());
    }

    #[test]
    fn rng_is_seeded_and_in_range() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(8, 1);
        let xa: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let xb: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        let xc: Vec<u64> = (0..4).map(|_| c.next_u64()).collect();
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
        for _ in 0..1000 {
            let u = a.range(2.0, 3.0);
            assert!((2.0..3.0).contains(&u));
            assert!((3..8).contains(&a.below(3, 8)));
        }
    }
}
