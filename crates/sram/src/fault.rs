//! The low-voltage SRAM bitcell fault model (paper Sec. 5.1, Fig. 11).
//!
//! On account of inter-cell threshold-voltage (`V_t`) variation, each bitcell
//! has its own minimum reliable operating voltage. The paper models cell
//! vulnerability as normally distributed; equivalently, each cell draws a
//! *cell V_min* `v_c ~ N(mu, sigma)` and is **faulty** at any supply voltage
//! `v < v_c`. The macro-level bit error rate at voltage `v` is then the
//! Gaussian tail
//!
//! ```text
//! F(v) = P(v_c > v) = Q((v - mu) / sigma)
//! ```
//!
//! which rises exponentially as the supply drops — the measured behaviour of
//! Fig. 7 (top). This construction makes fault maps *inclusive* by
//! definition: the set of faulty cells at `V_1` contains the set at `V_2`
//! whenever `V_1 < V_2`, exactly the property the paper requires.
//!
//! A faulty cell does not deterministically corrupt data: on read it
//! produces the wrong value with probability `p` (0.5 by default).

use crate::math::{q_tail, q_tail_inv};
use dante_circuit::units::Volt;

/// Default probability that reading a *faulty* cell yields a flipped bit.
pub const DEFAULT_READ_FLIP_PROBABILITY: f64 = 0.5;

/// Minimum voltage at which the SRAM still retains its stored data
/// (`V_data-retention` of paper Fig. 1); below this the model refuses to
/// operate.
pub const V_DATA_RETENTION: Volt = Volt::const_new(0.30);

/// Gaussian cell-V_min fault model for one SRAM design in one technology.
///
/// # Examples
///
/// ```
/// use dante_sram::fault::VminFaultModel;
/// use dante_circuit::units::Volt;
///
/// let model = VminFaultModel::default_14nm();
/// // The paper's quoted operating point: BER ~ 0.014 at 0.44 V.
/// let ber = model.bit_error_rate(Volt::new(0.44));
/// assert!((ber - 0.014).abs() < 0.002);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VminFaultModel {
    mu: Volt,
    sigma: Volt,
    read_flip_probability: f64,
}

impl VminFaultModel {
    /// The calibrated 14nm 6T-SRAM model (DESIGN.md Sec. 4):
    /// `mu = 0.352 V`, `sigma = 0.040 V`, anchored to the paper's measured
    /// BER of ~1.4e-2 at 0.44 V and zero fails at 0.6 V on a 4 Mbit array.
    #[must_use]
    pub fn default_14nm() -> Self {
        Self {
            mu: Volt::const_new(0.352),
            sigma: Volt::const_new(0.040),
            read_flip_probability: DEFAULT_READ_FLIP_PROBABILITY,
        }
    }

    /// Creates a model from a cell-V_min distribution.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is non-positive or `read_flip_probability` is
    /// outside `(0, 1]`.
    #[must_use]
    pub fn new(mu: Volt, sigma: Volt, read_flip_probability: f64) -> Self {
        assert!(sigma.volts() > 0.0, "sigma must be positive");
        assert!(
            read_flip_probability > 0.0 && read_flip_probability <= 1.0,
            "read flip probability must be in (0, 1]"
        );
        Self {
            mu,
            sigma,
            read_flip_probability,
        }
    }

    /// Mean of the cell-V_min distribution.
    #[must_use]
    pub fn mu(&self) -> Volt {
        self.mu
    }

    /// Standard deviation of the cell-V_min distribution.
    #[must_use]
    pub fn sigma(&self) -> Volt {
        self.sigma
    }

    /// Probability that a faulty cell flips on read.
    #[must_use]
    pub fn read_flip_probability(&self) -> f64 {
        self.read_flip_probability
    }

    /// The bitcell failure rate `F(v)` at supply voltage `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is below [`V_DATA_RETENTION`]: the array no longer
    /// holds data there, so a bit error *rate* is meaningless.
    #[must_use]
    pub fn bit_error_rate(&self, v: Volt) -> f64 {
        assert!(
            v >= V_DATA_RETENTION,
            "{v} is below the data-retention voltage {V_DATA_RETENTION}"
        );
        let z = (v - self.mu).volts() / self.sigma.volts();
        q_tail(z)
    }

    /// Effective probability that a single stored bit reads back flipped at
    /// voltage `v`: `F(v) * p_read_flip`.
    #[must_use]
    pub fn bit_flip_rate(&self, v: Volt) -> f64 {
        self.bit_error_rate(v) * self.read_flip_probability
    }

    /// Inverse of [`Self::bit_error_rate`]: the voltage at which the failure
    /// rate equals `ber`.
    ///
    /// # Panics
    ///
    /// Panics unless `ber` is in `(0, 1)`.
    #[must_use]
    pub fn voltage_for_ber(&self, ber: f64) -> Volt {
        let z = q_tail_inv(ber);
        self.mu + self.sigma * z
    }

    /// The voltage at which the *expected* number of failing cells in an
    /// array of `capacity_bits` first reaches one — `V_1st-error` of Fig. 1.
    #[must_use]
    pub fn v_first_error(&self, capacity_bits: u64) -> Volt {
        assert!(capacity_bits > 0, "array capacity must be positive");
        self.voltage_for_ber(1.0 / capacity_bits as f64)
    }

    /// Expected number of faulty cells in an array of `capacity_bits` at `v`.
    #[must_use]
    pub fn expected_failures(&self, v: Volt, capacity_bits: u64) -> f64 {
        self.bit_error_rate(v) * capacity_bits as f64
    }

    /// Synthetic "hardware measurement" dataset: `(voltage, BER)` points in
    /// the paper's measured range (0.34–0.60 V), as plotted in Fig. 7 (top).
    /// Used by [`crate::ber_fit`] round-trip tests and by the figure
    /// harnesses.
    #[must_use]
    pub fn measurement_points(&self) -> Vec<(Volt, f64)> {
        (0..=13)
            .map(|i| {
                let v = Volt::new(0.34 + 0.02 * f64::from(i));
                (v, self.bit_error_rate(v))
            })
            .collect()
    }
}

impl Default for VminFaultModel {
    fn default() -> Self {
        Self::default_14nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_anchors_match_the_paper() {
        let m = VminFaultModel::default_14nm();
        // ~1.4% BER at 0.44 V (Sec. 2: "the same bit error rate, say at
        // 0.014 at 0.44 V").
        let ber_044 = m.bit_error_rate(Volt::new(0.44));
        assert!((ber_044 - 0.014).abs() < 0.002, "BER(0.44) = {ber_044}");
        // Zero fails at 0.6 V on a 4 Mbit test array (Sec. 3.3): expected
        // failures well below one.
        assert!(m.expected_failures(Volt::new(0.60), 4 * 1024 * 1024) < 0.1);
    }

    #[test]
    fn ber_rises_exponentially_as_voltage_drops() {
        let m = VminFaultModel::default_14nm();
        let mut prev = 0.0;
        let mut ratios = Vec::new();
        for mv in (340..=600).rev().step_by(20) {
            let ber = m.bit_error_rate(Volt::from_millivolts(f64::from(mv)));
            if prev > 0.0 {
                ratios.push(ber / prev);
            }
            assert!(ber >= prev, "BER must grow as V drops");
            prev = ber;
        }
        // Exponential-like: each 20 mV step multiplies the BER substantially
        // in the steep region.
        assert!(ratios.iter().take(5).all(|&r| r > 2.0), "ratios {ratios:?}");
    }

    #[test]
    fn voltage_for_ber_inverts_bit_error_rate() {
        let m = VminFaultModel::default_14nm();
        for &ber in &[1e-7, 1e-4, 0.014, 0.1, 0.4] {
            let v = m.voltage_for_ber(ber);
            let back = m.bit_error_rate(v);
            assert!(
                (back - ber).abs() / ber < 1e-2,
                "ber={ber} v={v} back={back}"
            );
        }
    }

    #[test]
    fn v_first_error_decreases_for_smaller_arrays() {
        let m = VminFaultModel::default_14nm();
        let big = m.v_first_error(4 * 1024 * 1024);
        let small = m.v_first_error(32 * 1024);
        assert!(
            big > small,
            "bigger arrays hit their first error at higher V"
        );
        // The 4 Mbit array's first error appears somewhere below 0.6 V.
        assert!(big < Volt::new(0.60) && big > Volt::new(0.45));
    }

    #[test]
    fn flip_rate_halves_error_rate_by_default() {
        let m = VminFaultModel::default_14nm();
        let v = Volt::new(0.42);
        assert!((m.bit_flip_rate(v) - 0.5 * m.bit_error_rate(v)).abs() < 1e-15);
        let certain = VminFaultModel::new(m.mu(), m.sigma(), 1.0);
        assert!((certain.bit_flip_rate(v) - m.bit_error_rate(v)).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "below the data-retention voltage")]
    fn below_retention_panics() {
        let _ = VminFaultModel::default_14nm().bit_error_rate(Volt::new(0.25));
    }

    #[test]
    fn measurement_points_span_the_measured_range() {
        let pts = VminFaultModel::default_14nm().measurement_points();
        assert_eq!(pts.len(), 14);
        assert!((pts[0].0.volts() - 0.34).abs() < 1e-9);
        assert!((pts[13].0.volts() - 0.60).abs() < 1e-9);
        // Monotonically decreasing BER with rising voltage.
        for w in pts.windows(2) {
            assert!(w[1].1 <= w[0].1);
        }
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn invalid_sigma_rejected() {
        let _ = VminFaultModel::new(Volt::new(0.35), Volt::new(0.0), 0.5);
    }
}
