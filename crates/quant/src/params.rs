//! Symmetric uniform quantization parameters (paper Eq. 1).

use crate::error::QuantError;
use crate::Result;

/// A supported integer bitwidth.
///
/// The paper's prototype mixes 4-bit and 8-bit computation and sketches a
/// 2-bit NPU extension (§7); intermediate widths (5/6/7) appear in
/// Table 2's "average bitwidth" accounting and in the multi-precision
/// baselines of Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QuantBits(u8);

impl QuantBits {
    /// 2-bit quantization (NPU extension mode).
    pub const B2: QuantBits = QuantBits(2);
    /// 4-bit quantization (the paper's low bitwidth).
    pub const B4: QuantBits = QuantBits(4);
    /// 6-bit quantization (Table 5 comparisons).
    pub const B6: QuantBits = QuantBits(6);
    /// 8-bit quantization (the paper's high bitwidth).
    pub const B8: QuantBits = QuantBits(8);

    /// Creates a bitwidth, validating it is in `2..=8`.
    pub fn new(bits: u8) -> Result<Self> {
        if (2..=8).contains(&bits) {
            Ok(QuantBits(bits))
        } else {
            Err(QuantError::UnsupportedBits(bits))
        }
    }

    /// The raw bit count.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Smallest representable integer, `-(2^(b-1))`.
    ///
    /// `-128` for 8 bits, matching the paper's `[-128, 127]` example.
    #[inline]
    pub fn qmin(self) -> i32 {
        -(1 << (self.0 - 1))
    }

    /// Largest representable integer, `2^(b-1) - 1`.
    #[inline]
    pub fn qmax(self) -> i32 {
        (1 << (self.0 - 1)) - 1
    }
}

impl std::fmt::Display for QuantBits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "INT{}", self.0)
    }
}

/// Scale + bitwidth of a symmetric uniform quantizer.
///
/// Maps a real value `x` to `clip(round(x / scale), qmin, qmax)` — the
/// paper's Eq. 1. Symmetric quantization (zero-point 0) is what both the
/// paper's NPU and its GPU kernel implement, because it keeps GEMMs as
/// pure integer dot products.
///
/// # Examples
///
/// ```
/// use flexiq_quant::{QParams, QuantBits};
/// let p = QParams::from_abs_max(1.0, QuantBits::B8).unwrap();
/// assert_eq!(p.quantize(1.0), 127);
/// assert_eq!(p.quantize(-2.0), -128); // clipped
/// assert!((p.dequantize(127) - 1.0).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QParams {
    scale: f32,
    bits: QuantBits,
}

impl QParams {
    /// Creates quantization parameters from an explicit scale.
    pub fn new(scale: f32, bits: QuantBits) -> Result<Self> {
        if !scale.is_finite() || scale <= 0.0 {
            return Err(QuantError::BadScale(scale));
        }
        Ok(QParams { scale, bits })
    }

    /// Derives the scale from the maximum absolute value to represent.
    ///
    /// `scale = abs_max / qmax`, so `abs_max` itself maps to `qmax`.
    /// A zero or non-finite `abs_max` yields an error; degenerate all-zero
    /// channels should be given a tiny epsilon range by the caller.
    pub fn from_abs_max(abs_max: f32, bits: QuantBits) -> Result<Self> {
        if !abs_max.is_finite() || abs_max <= 0.0 {
            return Err(QuantError::BadScale(abs_max));
        }
        QParams::new(abs_max / bits.qmax() as f32, bits)
    }

    /// The quantization step size.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The bitwidth.
    pub fn bits(&self) -> QuantBits {
        self.bits
    }

    /// Quantizes one value: `clip(round(x / scale), qmin, qmax)`, rounding
    /// half away from zero (`f32::round`'s rule). `NaN` maps to 0 and
    /// ±inf saturate.
    ///
    /// Branchless and free of libm calls, so activation quantization
    /// loops inline and vectorize: clamping first bounds `|v| ≤ 2^(b-1)`,
    /// where truncation is exact and the fractional part `v - trunc(v)`
    /// is computed without error, so comparing it to ±0.5 is an exact
    /// round.
    #[inline]
    pub fn quantize(&self, x: f32) -> i32 {
        // `clamp` passes NaN through; the saturating cast sends it to 0
        // and the NaN fraction compares false both ways.
        let v = (x / self.scale).clamp(self.bits.qmin() as f32, self.bits.qmax() as f32);
        let t = v as i32;
        let frac = v - t as f32;
        t + (frac >= 0.5) as i32 - (frac <= -0.5) as i32
    }

    /// Dequantizes one integer back to a real value.
    pub fn dequantize(&self, q: i32) -> f32 {
        q as f32 * self.scale
    }

    /// Round-trips a value through the quantizer (fake quantization).
    pub fn fake(&self, x: f32) -> f32 {
        self.dequantize(self.quantize(x))
    }

    /// Returns a copy of these parameters at a different bitwidth with the
    /// same real-valued range.
    ///
    /// The scale is adjusted so the new `qmax` maps to the same `abs_max`.
    /// This is the conversion used by *uniform* bit-lowering (the naive
    /// middle row of paper Fig. 3), against which FlexiQ's effective-bit
    /// extraction is compared.
    pub fn with_bits(&self, bits: QuantBits) -> QParams {
        let abs_max = self.scale * self.bits.qmax() as f32;
        QParams {
            scale: abs_max / bits.qmax() as f32,
            bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_ranges_match_twos_complement() {
        assert_eq!(QuantBits::B8.qmin(), -128);
        assert_eq!(QuantBits::B8.qmax(), 127);
        assert_eq!(QuantBits::B4.qmin(), -8);
        assert_eq!(QuantBits::B4.qmax(), 7);
        assert_eq!(QuantBits::B2.qmin(), -2);
        assert_eq!(QuantBits::B2.qmax(), 1);
    }

    #[test]
    fn new_validates_bits() {
        assert!(QuantBits::new(1).is_err());
        assert!(QuantBits::new(9).is_err());
        assert!(QuantBits::new(5).is_ok());
    }

    #[test]
    fn quantize_rounds_and_clips() {
        let p = QParams::new(0.1, QuantBits::B8).unwrap();
        assert_eq!(p.quantize(0.25), 3); // round-half-to-even not required; 2.5 rounds away
        assert_eq!(p.quantize(100.0), 127);
        assert_eq!(p.quantize(-100.0), -128);
        assert_eq!(p.quantize(0.0), 0);
    }

    /// The libm formulation `quantize` replaces: `f32::round` (half away
    /// from zero), then an integer clip.
    fn quantize_via_round(p: &QParams, x: f32) -> i32 {
        let q = (x / p.scale()).round() as i64;
        q.clamp(p.bits().qmin() as i64, p.bits().qmax() as i64) as i32
    }

    #[test]
    fn quantize_matches_round_formula_on_edge_cases() {
        let two23 = 8_388_608.0f32;
        let mut xs = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            -f32::from_bits(0x007f_ffff),
            f32::EPSILON,
            0.5 - f32::EPSILON / 4.0,
            -(0.5 - f32::EPSILON / 4.0),
        ];
        for base in [two23, -two23] {
            let mut v = base;
            let mut w = base;
            for _ in 0..4 {
                xs.push(v);
                xs.push(w);
                v = f32::from_bits(v.to_bits() + 1);
                w = f32::from_bits(w.to_bits() - 1);
            }
        }
        // Ties k ± 0.5 across (and beyond) every range, plus their
        // one-ulp neighbours.
        for k in -300..=300 {
            for t in [k as f32 + 0.5, k as f32 - 0.5] {
                xs.extend([
                    t,
                    f32::from_bits(t.to_bits() + 1),
                    f32::from_bits(t.to_bits() - 1),
                ]);
            }
        }
        for bits in [QuantBits::B2, QuantBits::B4, QuantBits::B8] {
            for scale in [1.0f32, 0.5, 0.1, 3.0, 1e-30, 1e30] {
                let p = QParams::new(scale, bits).unwrap();
                for &x in &xs {
                    assert_eq!(
                        p.quantize(x),
                        quantize_via_round(&p, x),
                        "x = {x:e} ({:#010x}), scale = {scale}, {bits}",
                        x.to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn quantize_matches_round_formula_on_bit_pattern_sweep() {
        // A strided walk over all 2^32 bit patterns (the odd stride hits
        // every exponent and both signs, and varied low mantissa bits).
        let stride = 4099u64;
        for scale in [1.0f32, 0.0078125, 0.037, 13.0] {
            let p = QParams::new(scale, QuantBits::B8).unwrap();
            let mut b = 0u64;
            while b < 1 << 32 {
                let x = f32::from_bits(b as u32);
                assert_eq!(p.quantize(x), quantize_via_round(&p, x), "bits {b:#010x}");
                b += stride;
            }
        }
    }

    #[test]
    fn from_abs_max_maps_extreme_to_qmax() {
        let p = QParams::from_abs_max(3.3, QuantBits::B4).unwrap();
        assert_eq!(p.quantize(3.3), 7);
        assert_eq!(p.quantize(-3.3), -7);
    }

    #[test]
    fn bad_scales_rejected() {
        assert!(QParams::new(0.0, QuantBits::B8).is_err());
        assert!(QParams::new(-1.0, QuantBits::B8).is_err());
        assert!(QParams::new(f32::NAN, QuantBits::B8).is_err());
        assert!(QParams::from_abs_max(0.0, QuantBits::B8).is_err());
    }

    #[test]
    fn fake_quant_error_bounded_by_half_step() {
        let p = QParams::from_abs_max(1.0, QuantBits::B8).unwrap();
        for i in -100..=100 {
            let x = i as f32 / 100.0;
            assert!((p.fake(x) - x).abs() <= p.scale() * 0.5 + 1e-7);
        }
    }

    #[test]
    fn with_bits_preserves_range() {
        let p8 = QParams::from_abs_max(2.0, QuantBits::B8).unwrap();
        let p4 = p8.with_bits(QuantBits::B4);
        assert_eq!(p4.quantize(2.0), 7);
        assert!((p4.dequantize(7) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn paper_figure3_example() {
        // Full-precision 0.957 is represented as 29 in 8-bit quantization:
        // this corresponds to a scale of 0.957/29 ≈ 0.033. The paper's
        // channel has max < 32 quantization steps.
        let p = QParams::new(0.033, QuantBits::B8).unwrap();
        assert_eq!(p.quantize(0.957), 29);
    }
}
