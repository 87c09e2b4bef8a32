//! Fixed-point arithmetic for the MulQuant requantizer.
//!
//! Floating-point rescale factors (`S_w·S_x/S_y`, fused normalization
//! scales, bias terms) are quantized to `INT(int_bits, frac_bits)`
//! fixed-point integers — the "Scale and Bias (INT, Frac)" column of the
//! paper's tables (e.g. INT16 with 4 integer and 12 fractional bits).

use std::fmt;

/// A fixed-point number format with `int_bits` integer bits (including
/// sign) and `frac_bits` fractional bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FixedPointFormat {
    /// Integer bits, sign included.
    pub int_bits: u8,
    /// Fractional bits.
    pub frac_bits: u8,
}

impl FixedPointFormat {
    /// The paper's default: 16-bit total with 4 integer and 12 fractional
    /// bits — rendered `INT(4, 12)` in `(INT, Frac)` order.
    pub fn int16_frac12() -> Self {
        FixedPointFormat { int_bits: 4, frac_bits: 12 }
    }

    /// 16-bit total with 3 fractional and 13 integer bits (Table 2's
    /// "INT (13, 3)" rows).
    pub fn int16_frac3() -> Self {
        FixedPointFormat { int_bits: 13, frac_bits: 3 }
    }

    /// Total bit width.
    pub fn total_bits(&self) -> u8 {
        self.int_bits + self.frac_bits
    }

    /// Picks the format whose fractional width places `max_abs`'s leading
    /// bit just under the top of a `word_bits`-wide mantissa — the
    /// mantissa+shift normalization real requantizers use. The shift
    /// (`frac_bits`) may exceed the word width when the factor is far
    /// below 1; every value bounded by `max_abs` is then guaranteed to fit
    /// the mantissa word.
    pub fn auto(word_bits: u8, max_abs: f32) -> Self {
        let word = word_bits.max(2) as i32;
        if max_abs <= 0.0 {
            return FixedPointFormat { int_bits: 1, frac_bits: (word - 1).min(30) as u8 };
        }
        let msb = max_abs.log2().floor() as i32; // max_abs ∈ [2^msb, 2^(msb+1))
        let frac = (word - 2 - msb).clamp(0, 30);
        let int_bits = (word - frac).max(0) as u8;
        FixedPointFormat { int_bits, frac_bits: frac as u8 }
    }

    /// Largest representable value.
    pub fn max_value(&self) -> f32 {
        let raw_max = (1i64 << (self.total_bits() - 1)) - 1;
        raw_max as f32 / (1i64 << self.frac_bits) as f32
    }

    /// Raw integer bounds `(min, max)` of this format's representable
    /// range — range metadata for static verification.
    pub fn raw_bounds(&self) -> (i64, i64) {
        let width = self.total_bits().clamp(2, 31);
        (-(1i64 << (width - 1)), (1i64 << (width - 1)) - 1)
    }

    /// The resolution of this format as a real number: one raw ulp,
    /// `2^-frac_bits`. Quantizing any in-range real to this format is off
    /// by at most half of this.
    pub fn step(&self) -> f64 {
        1.0 / (1i64 << self.frac_bits) as f64
    }

    /// Quantizes a float to this format, saturating at the representable
    /// range (for shift-normalized formats with `int_bits == 0`, the raw
    /// magnitude bound is the fractional word itself; values are expected
    /// to be pre-bounded by the `auto` constructor's `max_abs`).
    pub fn quantize(&self, value: f32) -> FixedScalar {
        let scale = (1i64 << self.frac_bits) as f32;
        let width = self.total_bits().clamp(2, 31);
        let raw_max = (1i64 << (width - 1)) - 1;
        let raw_min = -(1i64 << (width - 1));
        let raw = (value * scale).round() as i64;
        FixedScalar { raw: raw.clamp(raw_min, raw_max) as i32, format: *self }
    }
}

impl Default for FixedPointFormat {
    fn default() -> Self {
        FixedPointFormat::int16_frac12()
    }
}

impl fmt::Display for FixedPointFormat {
    /// Renders as `INT(int_bits, frac_bits)` — the field order of the
    /// struct, the constructors' docs, and the paper's "Scale and Bias
    /// (INT, Frac)" table column.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "INT({}, {})", self.int_bits, self.frac_bits)
    }
}

/// One fixed-point value: a raw integer plus its format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FixedScalar {
    /// Raw integer representation (`value·2^frac` rounded).
    pub raw: i32,
    /// The format the raw value is expressed in.
    pub format: FixedPointFormat,
}

impl FixedScalar {
    /// Quantizes `value` with an automatically chosen fractional width at
    /// the given total bit budget.
    pub fn auto(value: f32, total_bits: u8) -> Self {
        FixedPointFormat::auto(total_bits, value.abs()).quantize(value)
    }

    /// The represented value as a float.
    pub fn to_f32(self) -> f32 {
        self.raw as f32 / (1i64 << self.format.frac_bits) as f32
    }

    /// Multiplies an integer accumulator by this fixed-point factor and
    /// shifts back down with round-half-up — the core MulQuant operation,
    /// expressible in hardware as one multiply and one arithmetic shift.
    pub fn mul_shift(self, acc: i64) -> i64 {
        round_shift(acc * self.raw as i64, self.format.frac_bits)
    }

    /// `|represented value|` as a real number.
    pub fn magnitude(self) -> f64 {
        (self.raw as f64 / (1i64 << self.format.frac_bits) as f64).abs()
    }

    /// Sound bound on `|mul_shift(acc) − acc*·m*|`: the divergence between
    /// the integer multiply/shift applied to an accumulator `acc` and the
    /// exact real product of a reference accumulator `acc*` with a
    /// reference multiplier `m*`, where `|acc − acc*| ≤ acc_err`,
    /// `|acc| ≤ acc_abs`, and `m*` is any real within half a raw ulp of
    /// the stored value (the family every fixed-point word stands for).
    ///
    /// Terms: round-half-up shift rounding (½), the input error amplified
    /// by the stored magnitude, and the multiplier's own half-ulp
    /// amplified by the reference magnitude. Used by `t2c-lint`'s
    /// quantization-error certifier.
    pub fn mul_shift_error_bound(self, acc_abs: f64, acc_err: f64) -> f64 {
        0.5 + self.magnitude() * acc_err + 0.5 * self.format.step() * (acc_abs + acc_err)
    }
}

/// Arithmetic right shift by `bits` with round-half-up
/// (`⌊(v + 2^(bits−1)) / 2^bits⌋`), matching a hardware rounding adder.
pub fn round_shift(v: i64, bits: u8) -> i64 {
    if bits == 0 {
        return v;
    }
    (v + (1i64 << (bits - 1))) >> bits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_round_trips_representable_values() {
        let f = FixedPointFormat::int16_frac12();
        for v in [0.0f32, 1.0, -1.0, 0.5, 3.25, -2.75] {
            assert_eq!(f.quantize(v).to_f32(), v, "value {v}");
        }
    }

    #[test]
    fn quantize_saturates() {
        let f = FixedPointFormat::int16_frac12();
        // Max ≈ 2^3 = 8 − ulp with 4 integer bits.
        let q = f.quantize(1000.0);
        assert!((q.to_f32() - f.max_value()).abs() < 1e-3);
        let qn = f.quantize(-1000.0);
        assert!(qn.to_f32() <= -f.max_value());
    }

    #[test]
    fn quantization_error_bounded_by_half_ulp() {
        let f = FixedPointFormat::int16_frac12();
        let ulp = 1.0 / (1 << 12) as f32;
        for i in 0..100 {
            let v = (i as f32) * 0.013 - 0.65;
            let err = (f.quantize(v).to_f32() - v).abs();
            assert!(err <= ulp / 2.0 + 1e-7, "value {v} err {err}");
        }
    }

    #[test]
    fn round_shift_half_up() {
        assert_eq!(round_shift(5, 1), 3); // 2.5 → 3
        assert_eq!(round_shift(4, 1), 2);
        assert_eq!(round_shift(-5, 1), -2); // −2.5 → −2 (half-up)
        assert_eq!(round_shift(7, 2), 2); // 1.75 → 2
        assert_eq!(round_shift(100, 0), 100);
    }

    #[test]
    fn mul_shift_approximates_float_multiply() {
        let f = FixedPointFormat::int16_frac12();
        let m = f.quantize(0.1234);
        for acc in [-5000i64, -17, 0, 3, 999, 123456] {
            let exact = acc as f32 * 0.1234;
            let fixed = m.mul_shift(acc) as f32;
            assert!(
                (exact - fixed).abs() <= exact.abs() * 1e-3 + 1.0,
                "acc {acc}: {exact} vs {fixed}"
            );
        }
    }

    #[test]
    fn mul_shift_error_bound_dominates_observed_divergence() {
        // The bound must cover |mul_shift(acc) − acc·m| for the stored
        // multiplier itself (acc_err = 0, the center of the half-ulp
        // family) at every probed accumulator.
        let m = FixedPointFormat::int16_frac12().quantize(0.3217);
        for acc in [-40000i64, -3, 0, 7, 12345, 99999] {
            let exact = acc as f64 * m.raw as f64 / 4096.0;
            let observed = (m.mul_shift(acc) as f64 - exact).abs();
            let bound = m.mul_shift_error_bound(acc.unsigned_abs() as f64, 0.0);
            assert!(observed <= bound, "acc {acc}: observed {observed} > bound {bound}");
        }
    }

    #[test]
    fn display_matches_field_order() {
        // (INT, Frac) order: integer bits first, matching the struct
        // fields and constructor docs.
        assert_eq!(FixedPointFormat::int16_frac12().to_string(), "INT(4, 12)");
        assert_eq!(FixedPointFormat::int16_frac3().to_string(), "INT(13, 3)");
        let f = FixedPointFormat { int_bits: 7, frac_bits: 2 };
        assert_eq!(f.to_string(), format!("INT({}, {})", f.int_bits, f.frac_bits));
    }
}
