//! Tunable-precision reals with an energy model.
//!
//! [`ApproxReal`] quantizes an `f64` to a chosen mantissa width by
//! truncating low-order mantissa bits — exactly what a reduced-precision
//! functional unit computes. The energy model follows standard datapath
//! scaling: a `b×b` multiplier array is O(b²) in switched capacitance, an
//! adder O(b). Halving precision therefore saves ~4× on multiplies — the
//! arithmetic behind "reduced … precision" in the paper's §2.2 list of
//! energy-efficient algorithmic approaches.

use xxi_core::units::Energy;

/// An `f64` carried at reduced mantissa precision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ApproxReal {
    value: f64,
    mantissa_bits: u32,
}

/// Quantize `x` to `bits` mantissa bits (1..=52).
fn quantize(x: f64, bits: u32) -> f64 {
    if !x.is_finite() || x == 0.0 {
        return x;
    }
    let raw = x.to_bits();
    let drop = 52 - bits;
    let mask = !((1u64 << drop) - 1);
    f64::from_bits(raw & mask)
}

impl ApproxReal {
    /// Wrap `x` at `mantissa_bits` of precision (1..=52; 52 = exact f64).
    pub fn new(x: f64, mantissa_bits: u32) -> ApproxReal {
        assert!((1..=52).contains(&mantissa_bits));
        ApproxReal {
            value: quantize(x, mantissa_bits),
            mantissa_bits,
        }
    }

    /// The (quantized) value.
    pub fn value(self) -> f64 {
        self.value
    }

    /// Mantissa width.
    pub fn bits(self) -> u32 {
        self.mantissa_bits
    }

    /// Worst-case relative quantization error at this precision: `2^-bits`.
    // xxi-allow: model-reach -- checked by xxi lint (model-constructors)
    pub fn quantization_bound(self) -> f64 {
        2.0f64.powi(-(self.mantissa_bits as i32))
    }
}

/// Add: result carries the *minimum* precision of the operands.
impl std::ops::Add for ApproxReal {
    type Output = ApproxReal;
    fn add(self, rhs: ApproxReal) -> ApproxReal {
        let bits = self.mantissa_bits.min(rhs.mantissa_bits);
        ApproxReal::new(self.value + rhs.value, bits)
    }
}

/// Multiply at minimum operand precision.
impl std::ops::Mul for ApproxReal {
    type Output = ApproxReal;
    fn mul(self, rhs: ApproxReal) -> ApproxReal {
        let bits = self.mantissa_bits.min(rhs.mantissa_bits);
        ApproxReal::new(self.value * rhs.value, bits)
    }
}

/// Quantize a whole slice to `bits` mantissa bits.
pub fn quantize_slice(xs: &[f64], bits: u32) -> Vec<f64> {
    xs.iter()
        .map(|&x| ApproxReal::new(x, bits).value())
        .collect()
}

/// Energy of one multiply at `bits` mantissa width, normalized so a full
/// 52-bit multiply costs `full`: `E = full · (bits/52)²`.
pub fn mul_energy(bits: u32, full: Energy) -> Energy {
    assert!((1..=52).contains(&bits));
    let r = bits as f64 / 52.0;
    full * (r * r)
}

/// Energy of one add at `bits` width: `E = full · bits/52`.
pub fn add_energy(bits: u32, full: Energy) -> Energy {
    assert!((1..=52).contains(&bits));
    full * (bits as f64 / 52.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_precision_is_exact() {
        for x in [1.0, -3.5, 1e-30, 12345.6789] {
            assert_eq!(ApproxReal::new(x, 52).value(), x);
        }
    }

    #[test]
    fn quantization_error_within_bound() {
        for bits in [4u32, 8, 16, 23, 32] {
            for x in [1.234567890123, -98.7654321, 3.14159e7, 1.1e-8] {
                let a = ApproxReal::new(x, bits);
                let rel = ((a.value() - x) / x).abs();
                assert!(rel <= a.quantization_bound(), "bits={bits} x={x} rel={rel}");
            }
        }
    }

    #[test]
    fn fewer_bits_more_error() {
        let x = std::f64::consts::PI;
        let e4 = (ApproxReal::new(x, 4).value() - x).abs();
        let e16 = (ApproxReal::new(x, 16).value() - x).abs();
        let e40 = (ApproxReal::new(x, 40).value() - x).abs();
        assert!(e4 > e16);
        assert!(e16 > e40);
    }

    #[test]
    fn zero_and_nonfinite_pass_through() {
        assert_eq!(ApproxReal::new(0.0, 4).value(), 0.0);
        assert!(ApproxReal::new(f64::INFINITY, 4).value().is_infinite());
    }

    #[test]
    fn arithmetic_takes_minimum_precision() {
        let a = ApproxReal::new(1.5, 8);
        let b = ApproxReal::new(2.5, 20);
        assert_eq!((a + b).bits(), 8);
        assert_eq!((a * b).bits(), 8);
        // Values are near the exact result.
        assert!(((a + b).value() - 4.0).abs() < 0.05);
        assert!(((a * b).value() - 3.75).abs() < 0.05);
    }

    #[test]
    fn mul_energy_quadratic_add_linear() {
        let full = Energy::from_pj(50.0);
        assert!((mul_energy(26, full).value() / mul_energy(52, full).value() - 0.25).abs() < 1e-9);
        assert!((add_energy(26, full).value() / add_energy(52, full).value() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_bits_rejected() {
        ApproxReal::new(1.0, 0);
    }
}
