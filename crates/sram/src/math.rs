//! Standard-normal distribution helpers used by the fault model.
//!
//! The fault model needs the Gaussian tail `Q(z) = P(X >= z)` (to turn a
//! cell-V_min distribution into a bit error rate) and its inverse (to fit
//! measured error rates back to a distribution). Rust's standard library has
//! neither `erf` nor the normal quantile, so both are implemented here:
//!
//! * `Q(z)` via the Abramowitz & Stegun 26.2.17 polynomial (|error| < 7.5e-8),
//! * `Q^{-1}(p)` via Acklam's rational approximation refined with one Halley
//!   step (relative error far below the fitting noise).
//!
//! The module also hosts the two draws of the sparse die sampler
//! ([`crate::model::DieFaultModel`]): the geometric-gap Bernoulli walk (an
//! exact draw of the faulty-cell set in O(faulty cells) expected time) and
//! truncated-tail Gaussian draws via the inverse CDF.

use rand::Rng;

/// Standard normal probability density function.
#[must_use]
pub fn phi_pdf(z: f64) -> f64 {
    const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
    INV_SQRT_2PI * (-0.5 * z * z).exp()
}

/// Standard normal CDF `P(X <= z)` (Abramowitz & Stegun 26.2.17).
#[must_use]
pub fn phi_cdf(z: f64) -> f64 {
    if z < 0.0 {
        return 1.0 - phi_cdf(-z);
    }
    let t = 1.0 / (1.0 + 0.231_641_9 * z);
    let poly = t
        * (0.319_381_530
            + t * (-0.356_563_782
                + t * (1.781_477_937 + t * (-1.821_255_978 + t * 1.330_274_429))));
    1.0 - phi_pdf(z) * poly
}

/// Gaussian upper tail `Q(z) = P(X >= z) = 1 - Phi(z)`.
#[must_use]
pub fn q_tail(z: f64) -> f64 {
    phi_cdf(-z)
}

/// Inverse of the Gaussian upper tail: returns `z` such that `Q(z) = p`.
///
/// # Panics
///
/// Panics unless `p` is in the open interval `(0, 1)`.
#[must_use]
pub fn q_tail_inv(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "tail probability must be in (0, 1), got {p}"
    );
    -norm_ppf(p)
}

/// Inverse standard normal CDF (quantile function) via Acklam's algorithm
/// plus one Halley refinement step.
///
/// # Panics
///
/// Panics unless `p` is in the open interval `(0, 1)`.
#[must_use]
pub fn norm_ppf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probability must be in (0, 1), got {p}");

    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step against the forward CDF.
    let e = phi_cdf(x) - p;
    let u = e * (2.0 * core::f64::consts::PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

/// `2^53`: the scale of the 53-bit draws behind `Rng::gen::<f64>()` and
/// `Rng::gen_bool`, which both take `x >> 11` of one `next_u64` `x` and
/// scale it by `2^-53`.
const UNIT_SCALE: f64 = (1u64 << 53) as f64;

/// Draws a uniform `f64` in the *open* interval `(0, 1)`: the packed-mantissa
/// sample in `[0, 1)` is redrawn on an exact zero so downstream logarithms
/// and quantile lookups stay finite. The crate's samplers draw the same
/// 53 bits as an integer and convert only where they keep the uniform.
pub fn sample_unit_open<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    unit_from_raw(sample_unit_open_raw(rng))
}

/// The integer draw behind [`sample_unit_open`]: the top 53 bits of one
/// `next_u64`, redrawn while they are zero, so the value lies in
/// `[1, 2^53)`. `Rng::gen::<f64>()` scales exactly these bits by `2^-53`,
/// so a zero here is exactly the zero uniform the open sampler redraws.
#[inline]
pub(crate) fn sample_unit_open_raw<R: Rng + ?Sized>(rng: &mut R) -> u64 {
    loop {
        let raw = rng.next_u64() >> 11;
        if raw != 0 {
            return raw;
        }
    }
}

/// The uniform a 53-bit draw stands for: `raw * 2^-53`, exactly the value
/// `Rng::gen::<f64>()` makes of the same bits (`raw < 2^53` converts
/// without rounding, and scaling by a power of two is exact).
#[inline]
#[must_use]
pub(crate) fn unit_from_raw(raw: u64) -> f64 {
    raw as f64 * (1.0 / UNIT_SCALE)
}

/// `Rng::gen_bool(p)` as an integer comparison, for a `p` fixed across many
/// draws. `gen_bool(p)` takes one `next_u64` `x` and succeeds when
/// `((x >> 11) as f64) * 2^-53 < p`. With `r = x >> 11 < 2^53` both the
/// conversion and the scaling are exact, so this is the real inequality
/// `r < p * 2^53`; for an integer `r` that is `r < ceil(p * 2^53)`, and
/// `p * 2^53` is itself exact in `f64` (a power-of-two scaling of a value
/// in `[0, 1]`). So the threshold `T = ceil(p * 2^53)`, computed once,
/// reproduces every decision bit for bit: [`Self::test`] draws nothing
/// else and converts nothing. `T` runs from 0 (`p = 0`, never) to `2^53`
/// (`p = 1`, always).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BernoulliThreshold(u64);

impl BernoulliThreshold {
    /// The threshold of `gen_bool(p)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p <= 1`, the check `gen_bool` makes per draw.
    #[must_use]
    pub(crate) fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        Self((p * UNIT_SCALE).ceil() as u64)
    }

    /// The decision `gen_bool(p)` makes of the raw generator word `x`.
    #[inline]
    #[must_use]
    pub(crate) fn test(self, x: u64) -> bool {
        (x >> 11) < self.0
    }
}

/// The walk's step over one floored gap `gap` (integral and non-negative,
/// possibly infinite) with `remaining` cells left: `Some(gap)` as an
/// integer when the next success lands inside them, `None` when the walk
/// ends. The saturating `as u64` is exact below `2^64` and maps larger
/// gaps and infinity to `u64::MAX`. This equals the `f64` test `gap >=
/// remaining as f64` of the scalar walk whenever `remaining <= 2^53`: a gap
/// below `2^53` compares as the same integer on both sides, and a gap of
/// `2^53` or more ends the walk on both.
#[inline]
fn gap_step(gap: f64, remaining: u64) -> Option<u64> {
    let step = gap as u64;
    (step < remaining).then_some(step)
}

/// Samples the success indices of `n` i.i.d. Bernoulli(`p`) trials into
/// `out` (cleared first), in strictly increasing order, using geometric-gap
/// skipping: the gap to the next success is `floor(ln u / ln(1-p))`, so the
/// expected cost is O(n·p) draws instead of O(n). The number of indices
/// produced is exactly Binomial(`n`, `p`)-distributed.
///
/// This is the one Bernoulli walk of the sparse sampler. The scalar
/// `draw → ln → divide → compare` chain costs ~25 ns per success because
/// each step waits on the last, so the walk pre-draws uniforms in chunks
/// and computes their logarithms as independent operations the CPU can
/// overlap. Chunked drawing over-consumes the generator when the walk
/// terminates mid-chunk, so the generator state is snapshotted before each
/// chunk and, on termination after `j` in-chunk draws, rewound and replayed
/// with exactly `j` [`sample_unit_open`] calls. While fewer than one more
/// success is expected, the walk takes plain scalar steps instead: a chunk
/// costs at least eight draws, the rewind and zeroing its buffers, and a
/// burst die runs one such walk over the 64 columns of every 32 Kbit tile
/// (about 20 ns a walk in scalar steps against 270 ns in a chunk). Indices and
/// post-call generator state therefore equal the scalar walk's
/// (`dante_verify::overlay::scalar_bernoulli_indices` is that reference),
/// which is why the bound is `R: Rng + Clone` rather than `?Sized`. The
/// remaining-range test runs on integers (`gap_step`), which is exact
/// because `n` is at most `2^53`.
///
/// # Panics
///
/// Panics unless `p` is a finite probability in `[0, 1]`, or if `n`
/// exceeds `2^53`.
pub fn sample_bernoulli_indices_into<R: Rng + Clone>(
    n: usize,
    p: f64,
    rng: &mut R,
    out: &mut Vec<u64>,
) {
    out.clear();
    assert!(
        (0.0..=1.0).contains(&p),
        "success probability must be in [0, 1], got {p}"
    );
    let n = n as u64;
    assert!(n <= 1 << 53, "{n} trials exceed the exact range of 2^53");
    if n == 0 || p <= 0.0 {
        return;
    }
    if p >= 1.0 {
        out.extend(0..n);
        return;
    }
    const CHUNK: usize = 1024;
    let ln_q = (-p).ln_1p(); // ln(1 - p), strictly negative
    let mut idx = 0u64;
    // Zeroed on the first chunk: a walk that only takes scalar steps never
    // pays for the 16 KB.
    let mut buffers: Option<([f64; CHUNK], [f64; CHUNK])> = None;
    loop {
        let expect = (n - idx) as f64 * p;
        if expect < 1.0 {
            // The scalar step, exactly as the reference walk takes it.
            let gap = (sample_unit_open(rng).ln() / ln_q).floor();
            let Some(step) = gap_step(gap, n - idx) else {
                return;
            };
            idx += step;
            out.push(idx);
            idx += 1;
            if idx >= n {
                return;
            }
            continue;
        }
        // Size the chunk to the expected remaining draws plus slack, so
        // shallow tails don't burn a full chunk of logarithms for a walk
        // that terminates after one or two gaps.
        let k = ((expect + 6.0 * expect.sqrt() + 8.0) as usize).clamp(8, CHUNK);
        let (uniforms, gaps) = match &mut buffers {
            Some(zeroed) => zeroed,
            none => none.insert(([0.0; CHUNK], [0.0; CHUNK])),
        };
        let snapshot = rng.clone();
        for slot in uniforms.iter_mut().take(k) {
            *slot = sample_unit_open(rng);
        }
        // Independent logarithms: this loop is the throughput win.
        floored_gaps(&uniforms[..k], ln_q, &mut gaps[..k]);
        out.reserve(k);
        for (j, &gap) in gaps.iter().enumerate().take(k) {
            // The remaining-range guard doubles as overflow protection: a
            // deep tail can yield gaps far beyond 2^63.
            let done = match gap_step(gap, n - idx) {
                None => true,
                Some(step) => {
                    idx += step;
                    out.push(idx);
                    idx += 1;
                    idx >= n
                }
            };
            if done {
                // Rewind the over-drawn generator and replay exactly the
                // draws the scalar walk would have consumed.
                *rng = snapshot;
                for _ in 0..=j {
                    let _ = sample_unit_open(rng);
                }
                return;
            }
        }
    }
}

/// Certified absolute error bound of [`fast_ln`] **plus** the platform
/// `f64::ln`'s own sub-ulp error, with two orders of magnitude of margin:
/// the polynomial's truncation tail is `< 5e-13` (see [`fast_ln`]), every
/// rounding term is `< 1e-14`, and libm `ln` is within 1 ulp (`< 1e-14` for
/// results bounded by `|ln(2^-53)| ≈ 36.7`).
const FAST_LN_EPS: f64 = 2e-12;

/// Polynomial natural logarithm with a *certified* absolute error bound
/// ([`FAST_LN_EPS`]) for `u` in `(0, 1)`, normal (the unit-open sampler
/// never produces subnormals).
///
/// `u = 2^e * m` with `m` reduced to `[√½, √2)`, then
/// `ln(m) = 2·atanh(t)`, `t = (m-1)/(m+1)`, `|t| ≤ √2-1/√2+1 ≈ 0.1716`,
/// via the odd series through `t^13`. The truncation tail is
/// `Σ_{k≥7} t^(2k+1)/(2k+1) ≤ t^15/(15(1-t²)) < 2.3e-13` (doubled by the
/// `2·` factor), and `m-1` is exact (Sterbenz), so rounding contributes
/// only a few `1e-15` terms.
///
/// The exact bits of the result are **not** part of any contract — only the
/// error bound is. Callers certify against the bound and fall back to the
/// exact `f64::ln` when certification fails, so their output is bit-stable
/// across compilers and SIMD widths even though this value may not be.
#[inline(always)]
fn fast_ln(u: f64) -> f64 {
    let bits = u.to_bits();
    let e = (((bits >> 52) & 0x7FF) as i32) - 1023;
    let m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | (1023u64 << 52));
    let big = m > std::f64::consts::SQRT_2;
    let m = if big { m * 0.5 } else { m };
    let e = e + i32::from(big);
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let poly = 1.0 / 3.0
        + t2 * (1.0 / 5.0
            + t2 * (1.0 / 7.0 + t2 * (1.0 / 9.0 + t2 * (1.0 / 11.0 + t2 * (1.0 / 13.0)))));
    f64::from(e) * std::f64::consts::LN_2 + (2.0 * t + 2.0 * (t * t2) * poly)
}

/// Fills `gaps[j] = (uniforms[j].ln() / ln_q).floor()` — bit-equivalent to
/// calling libm `ln` per element, several times faster on dense tails.
///
/// Each element computes [`fast_ln`] and *certifies* the floored quotient
/// without any division in the hot loop: with `L = fast_ln(u)` and
/// `r = L * (1/ln_q)`, every value the exact path can produce —
/// `a / ln_q` rounded once, for any `a` within `ε` of `L` — lies within
/// `δ = 2ε/|ln_q| + 2e-15·|r|` of `r` (the first term is the `ε`-interval
/// mapped through the division, doubled for slack; the second covers the
/// reciprocal representation, the multiply rounding, and the exact path's
/// own division rounding, each `≤ 1.2e-16·|r|`, with >10x margin). So when
/// the fractional part of `r` keeps `[r-δ, r+δ]` strictly inside one unit
/// interval, `floor(r)` provably equals the libm-based result. Uncertified
/// elements (quotient within `δ` of an integer, probability `~δ` per unit
/// of gap) are recomputed exactly in a scalar fixup pass, so the output
/// never depends on which path ran. `r - floor(r)` and `1 - s` are exact
/// for `|r| < 2^52` (Sterbenz), and larger `r` fails certification (`s`
/// becomes 0), falling back safely.
///
/// # Panics
///
/// Panics if the buffer lengths differ.
fn floored_gaps(uniforms: &[f64], ln_q: f64, gaps: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: feature presence just checked.
            return unsafe { floored_gaps_avx512(uniforms, ln_q, gaps) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: feature presence just checked.
            return unsafe { floored_gaps_avx2(uniforms, ln_q, gaps) };
        }
    }
    floored_gaps_core(uniforms, ln_q, gaps);
}

/// [`floored_gaps_core`] compiled with AVX-512F codegen.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn floored_gaps_avx512(uniforms: &[f64], ln_q: f64, gaps: &mut [f64]) {
    floored_gaps_core(uniforms, ln_q, gaps);
}

/// [`floored_gaps_core`] compiled with AVX2 codegen.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn floored_gaps_avx2(uniforms: &[f64], ln_q: f64, gaps: &mut [f64]) {
    floored_gaps_core(uniforms, ln_q, gaps);
}

/// The dispatch body of [`floored_gaps`]: a branch-free certification loop
/// the autovectorizer can spread across SIMD lanes (NaN marks the rare
/// uncertified elements — real gaps are always finite), then a scalar
/// libm-`ln` fixup pass.
#[inline(always)]
fn floored_gaps_core(uniforms: &[f64], ln_q: f64, gaps: &mut [f64]) {
    assert_eq!(uniforms.len(), gaps.len(), "gap buffer length mismatch");
    let inv_ln_q = 1.0 / ln_q;
    // δ0: the fast-ln error interval mapped through the division, doubled
    // to absorb the rounding of this very computation.
    let delta0 = 2.0 * FAST_LN_EPS * (-inv_ln_q);
    for (g, &u) in gaps.iter_mut().zip(uniforms) {
        let r = fast_ln(u) * inv_ln_q;
        let f = r.floor();
        let s = r - f;
        let delta = delta0 + r.abs() * 2e-15;
        *g = if s >= delta && (1.0 - s) > delta {
            f
        } else {
            f64::NAN
        };
    }
    for (g, &u) in gaps.iter_mut().zip(uniforms) {
        if g.is_nan() {
            *g = (u.ln() / ln_q).floor();
        }
    }
}

/// Draws one value from the Gaussian `N(mu, sigma)` *conditioned on being
/// greater than `floor`*, via the inverse tail CDF: with
/// `p_f = Q((floor - mu) / sigma)` and `u ~ U(0, 1)`, the draw is
/// `mu + sigma * Q^{-1}(u * p_f)`.
///
/// # Panics
///
/// Panics if `sigma` is not strictly positive or the tail beyond `floor`
/// carries no numerically representable mass.
#[must_use]
pub fn truncated_tail_normal<R: Rng + ?Sized>(mu: f64, sigma: f64, floor: f64, rng: &mut R) -> f64 {
    assert!(sigma > 0.0, "sigma must be positive, got {sigma}");
    let p_floor = q_tail((floor - mu) / sigma);
    assert!(
        p_floor > 0.0,
        "no Gaussian mass above floor {floor} (mu {mu}, sigma {sigma})"
    );
    let t = (sample_unit_open(rng) * p_floor).max(f64::MIN_POSITIVE);
    mu + sigma * q_tail_inv(t)
}

/// CDF of the truncated tail distribution sampled by
/// [`truncated_tail_normal`]: the probability that a draw conditioned on
/// exceeding `floor` is `<= x`. Zero below the floor, one far in the tail.
#[must_use]
pub fn truncated_tail_cdf(mu: f64, sigma: f64, floor: f64, x: f64) -> f64 {
    if x <= floor {
        return 0.0;
    }
    let p_floor = q_tail((floor - mu) / sigma);
    if p_floor <= 0.0 {
        return 1.0;
    }
    ((p_floor - q_tail((x - mu) / sigma)) / p_floor).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn fast_ln_stays_within_its_certified_bound() {
        // Random coverage of the full unit-open range plus the extremes the
        // sampler can actually produce. The bound claimed is FAST_LN_EPS
        // minus libm's share; assert with margin against the whole budget.
        let mut rng = StdRng::seed_from_u64(11);
        let check = |u: f64| {
            let err = (fast_ln(u) - u.ln()).abs();
            assert!(err < 1e-12, "fast_ln error {err:.3e} at u={u:e}");
        };
        for _ in 0..200_000 {
            check(sample_unit_open(&mut rng));
        }
        check(f64::from_bits(1.0f64.to_bits() - 1)); // largest value < 1
        check((2.0f64).powi(-53)); // smallest unit-open draw
        check(std::f64::consts::SQRT_2 / 2.0);
        check(0.5);
        check(0.25);
    }

    #[test]
    fn certified_gaps_match_exact_computation() {
        // Random uniforms across tail densities: the certified path must be
        // bit-equivalent to the libm-ln computation it replaces.
        let mut rng = StdRng::seed_from_u64(12);
        for &p in &[1e-9f64, 1e-6, 1e-3, 0.05, 0.3, 0.42, 0.9, 0.999_999] {
            let ln_q = (-p).ln_1p();
            let uniforms: Vec<f64> = (0..100_000).map(|_| sample_unit_open(&mut rng)).collect();
            let mut gaps = vec![0.0f64; uniforms.len()];
            floored_gaps(&uniforms, ln_q, &mut gaps);
            for (&u, &g) in uniforms.iter().zip(&gaps) {
                let exact = (u.ln() / ln_q).floor();
                assert!(
                    g == exact,
                    "certified gap {g} != exact {exact} (u={u:e}, p={p})"
                );
            }
        }
    }

    #[test]
    fn certified_gaps_survive_boundary_adversaries() {
        // Uniforms engineered so the quotient sits within a few ulps of an
        // integer — exactly where certification must refuse the fast value
        // and the fixup must reproduce libm's rounding.
        for &p in &[1e-6f64, 1e-3, 0.05, 0.42] {
            let ln_q = (-p).ln_1p();
            let mut uniforms = Vec::new();
            for gap in [0u32, 1, 2, 7, 100, 12_345] {
                let u0 = (f64::from(gap) * ln_q).exp();
                if !(u0 > 0.0 && u0 < 1.0) {
                    continue;
                }
                let bits = u0.to_bits();
                for delta in -100i64..=100 {
                    let u = f64::from_bits(bits.wrapping_add_signed(delta));
                    if u > 0.0 && u < 1.0 {
                        uniforms.push(u);
                    }
                }
            }
            let mut gaps = vec![0.0f64; uniforms.len()];
            floored_gaps(&uniforms, ln_q, &mut gaps);
            for (&u, &g) in uniforms.iter().zip(&gaps) {
                let exact = (u.ln() / ln_q).floor();
                assert!(
                    g == exact,
                    "boundary gap {g} != exact {exact} (u bits {:#x}, p={p})",
                    u.to_bits()
                );
            }
        }
    }

    #[test]
    fn cdf_known_values() {
        assert!((phi_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((phi_cdf(1.0) - 0.841_344_746).abs() < 1e-6);
        assert!((phi_cdf(-1.0) - 0.158_655_254).abs() < 1e-6);
        assert!((phi_cdf(2.0) - 0.977_249_868).abs() < 1e-6);
        assert!((phi_cdf(6.0) - 1.0).abs() < 1e-8);
    }

    #[test]
    fn tail_is_complement_of_cdf() {
        // Tolerance is bounded by the A&S 26.2.17 polynomial error (7.5e-8).
        for z in [-3.0, -1.0, 0.0, 0.5, 2.0, 4.0] {
            assert!((q_tail(z) + phi_cdf(z) - 1.0).abs() < 2e-7, "z={z}");
        }
    }

    #[test]
    fn ppf_round_trips_through_cdf() {
        for &p in &[1e-9, 1e-6, 1e-3, 0.014, 0.1, 0.5, 0.9, 0.999] {
            let z = norm_ppf(p);
            assert!(
                (phi_cdf(z) - p).abs() < 1e-7 * (1.0 + 1.0 / p.min(1.0 - p)).min(1e4),
                "p={p}, z={z}, cdf={}",
                phi_cdf(z)
            );
        }
    }

    #[test]
    fn q_inv_round_trips_through_q() {
        for &p in &[1e-8, 1e-4, 0.014, 0.25, 0.5, 0.75, 0.99] {
            let z = q_tail_inv(p);
            let back = q_tail(z);
            assert!((back - p).abs() / p < 1e-3, "p={p} z={z} back={back}");
        }
    }

    #[test]
    fn ppf_known_values() {
        // Accuracy is limited by the forward-CDF polynomial used in the
        // Halley refinement (~1e-7).
        assert!((norm_ppf(0.5)).abs() < 1e-6);
        assert!((norm_ppf(0.975) - 1.959_964).abs() < 1e-4);
        assert!((norm_ppf(0.841_344_746) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn pdf_is_symmetric_and_peaked_at_zero() {
        assert!((phi_pdf(1.3) - phi_pdf(-1.3)).abs() < 1e-15);
        assert!(phi_pdf(0.0) > phi_pdf(0.1));
        assert!((phi_pdf(0.0) - 0.398_942_280_4).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1)")]
    fn ppf_rejects_out_of_range() {
        let _ = norm_ppf(1.0);
    }

    #[test]
    fn bernoulli_indices_are_sorted_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut out = Vec::new();
        sample_bernoulli_indices_into(10_000, 0.01, &mut rng, &mut out);
        assert!(!out.is_empty());
        assert!(out.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        assert!(*out.last().unwrap() < 10_000);
    }

    #[test]
    fn bernoulli_index_count_matches_binomial_mean() {
        // Mean of 400 replications of Binomial(5000, 0.02): expect 100 with
        // sd(mean) = sqrt(5000*0.02*0.98/400) ~ 0.49; allow 5 sigma.
        let mut rng = StdRng::seed_from_u64(2);
        let mut out = Vec::new();
        let mut total = 0usize;
        for _ in 0..400 {
            sample_bernoulli_indices_into(5000, 0.02, &mut rng, &mut out);
            total += out.len();
        }
        let mean = total as f64 / 400.0;
        assert!((mean - 100.0).abs() < 2.5, "mean count {mean} vs 100");
    }

    #[test]
    fn bernoulli_indices_cover_uniformly() {
        // Pool successes over many replications: each cell is hit with the
        // same probability, so first/second-half counts agree to ~3 sigma.
        let mut rng = StdRng::seed_from_u64(3);
        let mut out = Vec::new();
        let (mut lo, mut hi) = (0usize, 0usize);
        for _ in 0..200 {
            sample_bernoulli_indices_into(2000, 0.05, &mut rng, &mut out);
            for &i in &out {
                if i < 1000 {
                    lo += 1;
                } else {
                    hi += 1;
                }
            }
        }
        let n = (lo + hi) as f64;
        let diff = (lo as f64 - hi as f64).abs();
        assert!(diff < 4.0 * n.sqrt(), "lo {lo} vs hi {hi}");
    }

    #[test]
    fn bernoulli_edge_probabilities() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut out = vec![99];
        sample_bernoulli_indices_into(100, 0.0, &mut rng, &mut out);
        assert!(out.is_empty(), "p = 0 clears the buffer");
        sample_bernoulli_indices_into(5, 1.0, &mut rng, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        sample_bernoulli_indices_into(0, 0.5, &mut rng, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn bernoulli_rejects_bad_probability() {
        let mut rng = StdRng::seed_from_u64(5);
        sample_bernoulli_indices_into(10, 1.5, &mut rng, &mut Vec::new());
    }

    #[test]
    fn truncated_tail_draws_stay_above_floor() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..5000 {
            let x = truncated_tail_normal(0.352, 0.040, 0.44, &mut rng);
            assert!(x > 0.44, "draw {x} fell below the floor");
        }
    }

    #[test]
    fn truncated_tail_matches_conditional_cdf() {
        // Empirical CDF of 20k truncated draws against the analytic
        // conditional CDF at a few quantiles (binomial 5-sigma bands).
        let (mu, sigma, floor) = (0.352, 0.040, 0.40);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let draws: Vec<f64> = (0..n)
            .map(|_| truncated_tail_normal(mu, sigma, floor, &mut rng))
            .collect();
        for x in [0.41, 0.43, 0.46, 0.50] {
            let expect = truncated_tail_cdf(mu, sigma, floor, x);
            let got = draws.iter().filter(|&&d| d <= x).count() as f64 / f64::from(n);
            let tol = 5.0 * (expect * (1.0 - expect) / f64::from(n)).sqrt() + 1e-3;
            assert!(
                (got - expect).abs() < tol,
                "at {x}: empirical {got} vs analytic {expect}"
            );
        }
    }

    #[test]
    fn truncated_tail_cdf_brackets() {
        assert_eq!(truncated_tail_cdf(0.352, 0.04, 0.44, 0.43), 0.0);
        let far = truncated_tail_cdf(0.352, 0.04, 0.44, 1.0);
        assert!((far - 1.0).abs() < 1e-9);
        // Monotone between.
        let a = truncated_tail_cdf(0.352, 0.04, 0.44, 0.45);
        let b = truncated_tail_cdf(0.352, 0.04, 0.44, 0.47);
        assert!((0.0..1.0).contains(&a) && a < b);
    }

    /// A generator replaying fixed words, then repeating the last one.
    struct Words(Vec<u64>, usize);

    impl RngCore for Words {
        fn next_u64(&mut self) -> u64 {
            let word = self.0[self.1.min(self.0.len() - 1)];
            self.1 += 1;
            word
        }
    }

    #[test]
    fn bernoulli_threshold_decides_exactly_as_gen_bool() {
        // p * 2^53 integral (0, 0.5, 1 - 2^-53, 1) and not (2^-60, 1e-12,
        // 0.24); draws on both sides of the threshold and at random, each
        // with random low bits, which neither test reads.
        let mut rng = StdRng::seed_from_u64(21);
        for p in [
            0.0,
            2f64.powi(-60),
            1e-12,
            0.24,
            0.5,
            1.0 - 2f64.powi(-53),
            1.0,
        ] {
            let threshold = BernoulliThreshold::new(p);
            let t = threshold.0;
            assert_eq!(t as f64, (p * UNIT_SCALE).ceil(), "p = {p:e}");
            let mut raws: Vec<u64> = (0..2000).map(|_| rng.next_u64() >> 11).collect();
            raws.extend(
                [t.wrapping_sub(1), t, t + 1]
                    .into_iter()
                    .filter(|&r| r < 1 << 53),
            );
            raws.extend([0, 1, (1 << 53) - 1]);
            for raw in raws {
                let x = raw << 11 | (rng.next_u64() >> 53);
                assert_eq!(
                    threshold.test(x),
                    Words(vec![x], 0).gen_bool(p),
                    "p = {p:e}, raw = {raw}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bernoulli_threshold_rejects_bad_probability() {
        let _ = BernoulliThreshold::new(1.0 + f64::EPSILON);
    }

    #[test]
    fn raw_unit_draws_are_the_open_sampler_s_bits() {
        // The same value and the same generator state as sample_unit_open,
        // including the redraw of a zero.
        let mut a = StdRng::seed_from_u64(22);
        let mut b = a.clone();
        for _ in 0..10_000 {
            let raw = sample_unit_open_raw(&mut a);
            assert!((1..1 << 53).contains(&raw));
            assert_eq!(
                unit_from_raw(raw).to_bits(),
                sample_unit_open(&mut b).to_bits()
            );
        }
        assert_eq!(a, b);
        let words = vec![0x7FF, 0, 5 << 11 | 0x7FF];
        let mut raw_rng = Words(words.clone(), 0);
        let mut unit_rng = Words(words, 0);
        assert_eq!(sample_unit_open_raw(&mut raw_rng), 5);
        assert_eq!(sample_unit_open(&mut unit_rng), 5.0 * 2f64.powi(-53));
        assert_eq!((raw_rng.1, unit_rng.1), (3, 3));
    }

    #[test]
    fn integer_gap_step_matches_the_float_test() {
        // Gaps from zero to infinity against the remaining ranges a walk
        // meets: none, one, and all but one of a mnist_fc-sized image and
        // of the largest walk allowed.
        let gaps = [
            0.0,
            1.0,
            2f64.powi(53) - 1.0,
            2f64.powi(53),
            2f64.powi(63),
            2f64.powi(64),
            1e300,
            f64::INFINITY,
        ];
        for n in [6_600_000u64, 1 << 53] {
            for remaining in [0, 1, n - 1, n] {
                for gap in gaps {
                    let step = gap_step(gap, remaining);
                    assert_eq!(
                        step.is_none(),
                        gap >= remaining as f64,
                        "{gap:e} of {remaining}"
                    );
                    if let Some(step) = step {
                        assert_eq!(step as f64, gap, "{gap:e} of {remaining}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceed the exact range")]
    fn bernoulli_rejects_walks_past_2_pow_53() {
        let mut rng = StdRng::seed_from_u64(9);
        sample_bernoulli_indices_into((1 << 53) + 1, 1e-30, &mut rng, &mut Vec::new());
    }

    #[test]
    fn unit_open_never_returns_zero() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..10_000 {
            let u = sample_unit_open(&mut rng);
            assert!(u > 0.0 && u < 1.0);
        }
    }
}
