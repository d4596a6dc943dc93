//! The benchmark's own arithmetic: nearest-rank percentiles with the
//! "ten samples beyond" reporting rule, medians, interval unions for self
//! time, and the seeded generator every request stream draws from.
//!
//! The generator is local on purpose: the benchmark's inputs must not
//! change when the program's own seed derivation changes.

/// A tail percentile is reported only when at least this many samples lie
/// beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(q * n)` (1-based), clamped to `1..=n`. `None` on an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    rank(sorted.len(), q).map(|r| sorted[r - 1])
}

/// [`nearest_rank`], but only when at least [`MIN_BEYOND`] samples lie
/// beyond the percentile's rank — the rule for reporting a tail.
pub fn supported_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let r = rank(sorted.len(), q)?;
    (sorted.len() - r >= MIN_BEYOND).then(|| sorted[r - 1])
}

fn rank(n: usize, q: f64) -> Option<usize> {
    // The epsilon keeps products such as 0.9 * 100 from rounding up a rank.
    (n > 0).then(|| ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n))
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`. Overlapping
/// and nested intervals count once.
pub fn covered(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// A span's self time: its duration minus the part of it its children
/// cover.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    (span.1 - span.0) - covered(span.0, span.1, children)
}

/// SplitMix64 finalizer: a bijective 64-bit mix.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A value derived from `(seed, domain, index)`; distinct domains keep
/// warm-up, measured and schedule streams apart.
pub fn derive(seed: u64, domain: u64, index: u64) -> u64 {
    splitmix64(splitmix64(seed ^ splitmix64(domain)) ^ index)
}

/// A seeded SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Arrival offsets in nanoseconds, ascending, of a Poisson process at
/// `rate` arrivals per second over `[0, seconds)`, conditioned on exactly
/// `round(rate * seconds)` arrivals. Given its count, a Poisson process's
/// arrival times are independent uniforms, so sorted uniform draws are
/// exact; fixing the count keeps the offered load identical across seeds.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<u64> {
    let n = (rate * seconds).round() as usize;
    let mut rng = Rng::new(seed);
    let mut at: Vec<u64> = (0..n)
        .map(|_| (rng.unit() * seconds * 1e9) as u64)
        .collect();
    at.sort_unstable();
    at
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_follows_the_ceiling_rule() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&v, 0.9), Some(90.0));
        assert_eq!(nearest_rank(&v, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        let w = [1.0, 2.0, 3.0];
        assert_eq!(nearest_rank(&w, 0.5), Some(2.0));
        assert_eq!(nearest_rank(&w, 0.34), Some(2.0));
        assert_eq!(nearest_rank(&w, 0.33), Some(1.0));
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(supported_percentile(&hundred[..99], 0.9), None);
        assert_eq!(supported_percentile(&hundred, 0.99), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_percentile(&thousand, 0.99), Some(990.0));
        assert_eq!(supported_percentile(&thousand[..999], 0.99), None);
        assert_eq!(supported_percentile(&hundred[..20], 0.5), Some(10.0));
        assert_eq!(supported_percentile(&hundred[..19], 0.5), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn self_time_counts_overlapping_and_nested_children_once() {
        // Parent [0, 100); two overlapping children [10, 40) and [30, 60),
        // one nested inside the first [15, 20), and one straddling the
        // parent's end [90, 120).
        let children = [(10, 40), (30, 60), (15, 20), (90, 120)];
        assert_eq!(covered(0, 100, &children), 50 + 10);
        assert_eq!(self_time((0, 100), &children), 40);
        // Disjoint children, unsorted.
        assert_eq!(self_time((0, 100), &[(50, 60), (0, 10)]), 80);
        // No children, and a child covering everything.
        assert_eq!(self_time((5, 9), &[]), 4);
        assert_eq!(self_time((5, 9), &[(0, 20)]), 0);
        // Touching intervals merge without double counting.
        assert_eq!(covered(0, 100, &[(0, 10), (10, 20), (20, 30)]), 30);
    }

    #[test]
    fn poisson_schedule_is_reproducible_at_the_requested_rate() {
        let a = poisson_schedule(7, 60.0, 40.0);
        assert_eq!(a, poisson_schedule(7, 60.0, 40.0));
        assert_ne!(a, poisson_schedule(8, 60.0, 40.0));
        assert_eq!(a.len(), 2400);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 40_000_000_000);
        // Mean inter-arrival gap within 5% of 1/60 s.
        let gaps = a.windows(2).map(|w| (w[1] - w[0]) as f64 / 1e9);
        let mean_gap = gaps.sum::<f64>() / (a.len() - 1) as f64;
        let rate = 1.0 / mean_gap;
        assert!((rate - 60.0).abs() / 60.0 < 0.05, "rate {rate}");
        // Exponential gaps: about e^-1 of them exceed the mean gap.
        let long = a
            .windows(2)
            .filter(|w| (w[1] - w[0]) as f64 / 1e9 > 1.0 / 60.0)
            .count() as f64
            / (a.len() - 1) as f64;
        assert!((long - (-1.0f64).exp()).abs() < 0.05, "share {long}");
    }
}
