//! Closed integer intervals in `i128` — wide enough that the analysis
//! arithmetic itself can never overflow while reasoning about `i32`
//! accumulators and `i64` requantization products.

use t2c_core::{FixedScalar, QuantSpec};

/// A closed interval `[lo, hi]` of integer codes or accumulator values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Smallest contained value.
    pub lo: i128,
    /// Largest contained value.
    pub hi: i128,
}

impl Interval {
    /// The interval containing both arguments. Endpoints are ordered, so
    /// a swapped call site yields `[hi, lo]` reinterpreted as `[lo, hi]`
    /// instead of an inverted interval that poisons every downstream
    /// min/max.
    pub fn new(lo: i128, hi: i128) -> Self {
        Interval { lo: lo.min(hi), hi: lo.max(hi) }
    }

    /// The single-point interval `[v, v]`.
    pub fn point(v: i128) -> Self {
        Interval { lo: v, hi: v }
    }

    /// The representable range of a quantization grid.
    pub fn of_spec(spec: QuantSpec) -> Self {
        let (lo, hi) = spec.range();
        Interval { lo: lo as i128, hi: hi as i128 }
    }

    /// Smallest interval containing both operands.
    pub fn union(self, other: Interval) -> Interval {
        Interval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// Shifts both endpoints by a constant.
    pub fn offset(self, v: i128) -> Interval {
        Interval { lo: self.lo + v, hi: self.hi + v }
    }

    /// Exact image under multiplication by `k` (e.g. a MAC count). A
    /// negative `k` reflects the interval, so the endpoints swap.
    pub fn scale(self, k: i128) -> Interval {
        let (a, b) = (self.lo * k, self.hi * k);
        Interval { lo: a.min(b), hi: a.max(b) }
    }

    /// Extends the interval to contain zero (zero-padding contributes
    /// zeros to convolution windows).
    pub fn include_zero(self) -> Interval {
        Interval { lo: self.lo.min(0), hi: self.hi.max(0) }
    }

    /// Intersection with a grid, mirroring the runtime output clamp.
    pub fn clamp_to(self, spec: QuantSpec) -> Interval {
        let (lo, hi) = spec.range();
        Interval {
            lo: self.lo.clamp(lo as i128, hi as i128),
            hi: self.hi.clamp(lo as i128, hi as i128),
        }
    }

    /// Applies the integer ReLU (`max(0, ·)`) to both endpoints.
    pub fn relu(self) -> Interval {
        Interval { lo: self.lo.max(0), hi: self.hi.max(0) }
    }

    /// `hi − lo`.
    pub fn width(self) -> i128 {
        self.hi - self.lo
    }

    /// `true` when every contained value fits an `i32`.
    pub fn fits_i32(self) -> bool {
        self.lo >= i32::MIN as i128 && self.hi <= i32::MAX as i128
    }

    /// `true` when every contained value fits an `i64`.
    pub fn fits_i64(self) -> bool {
        self.lo >= i64::MIN as i128 && self.hi <= i64::MAX as i128
    }

    /// `true` when the interval lies inside the grid.
    pub fn within(self, spec: QuantSpec) -> bool {
        let (lo, hi) = spec.range();
        self.lo >= lo as i128 && self.hi <= hi as i128
    }

    /// Image under a fixed-point multiply/shift with the datapath's
    /// round-half-up, computed in `i128` so an accumulator envelope that
    /// has already left `i32` (or `i64`) maps exactly instead of
    /// overflowing. The map is monotone for a non-negative multiplier and
    /// antitone for a negative one, so the endpoint images bound the image
    /// of every interior point.
    pub fn map_fixed(self, m: FixedScalar) -> Interval {
        let f = |acc: i128| round_shift_i128(acc * i128::from(m.raw), m.format.frac_bits);
        Interval::new(f(self.lo), f(self.hi))
    }
}

impl std::ops::Add for Interval {
    type Output = Interval;

    /// Exact interval sum.
    fn add(self, other: Interval) -> Interval {
        Interval { lo: self.lo + other.lo, hi: self.hi + other.hi }
    }
}

impl std::ops::Mul for Interval {
    type Output = Interval;

    /// Exact interval product (min/max over the four endpoint products).
    fn mul(self, other: Interval) -> Interval {
        let products =
            [self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi];
        Interval {
            lo: *products.iter().min().expect("non-empty"),
            hi: *products.iter().max().expect("non-empty"),
        }
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// The datapath's round-half-up `round_shift`, widened to `i128` for
/// interval endpoints.
pub(crate) fn round_shift_i128(v: i128, bits: u8) -> i128 {
    if bits == 0 {
        return v;
    }
    (v + (1i128 << (bits - 1))) >> bits
}

/// `(min, max)` of a slice, `(0, 0)` when empty.
pub(crate) fn slice_min_max(s: &[i32]) -> (i32, i32) {
    let mut it = s.iter();
    let Some(&first) = it.next() else { return (0, 0) };
    it.fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2c_core::FixedPointFormat;

    #[test]
    fn spec_ranges_and_clamp() {
        let i = Interval::of_spec(QuantSpec::signed(8));
        assert_eq!((i.lo, i.hi), (-128, 127));
        let big = Interval::new(-1000, 1000);
        let c = big.clamp_to(QuantSpec::unsigned(4));
        assert_eq!((c.lo, c.hi), (0, 15));
        assert!(c.within(QuantSpec::unsigned(4)));
        assert!(!big.within(QuantSpec::unsigned(4)));
    }

    #[test]
    fn products_cover_sign_combinations() {
        let a = Interval::new(-3, 5);
        let b = Interval::new(-7, 2);
        let p = a * b;
        // extremes: 5·−7 = −35 and −3·−7 = 21
        assert_eq!((p.lo, p.hi), (-35, 21));
    }

    #[test]
    fn map_fixed_matches_scalar_mul_shift() {
        let m = FixedPointFormat::int16_frac12().quantize(0.37);
        let i = Interval::new(-5000, 9000);
        let mapped = i.map_fixed(m);
        assert_eq!(mapped.lo, m.mul_shift(-5000) as i128);
        assert_eq!(mapped.hi, m.mul_shift(9000) as i128);
        // A negative multiplier flips the endpoints.
        let neg = FixedPointFormat::int16_frac12().quantize(-0.5);
        let flipped = i.map_fixed(neg);
        assert_eq!(flipped.lo, neg.mul_shift(9000) as i128);
        assert_eq!(flipped.hi, neg.mul_shift(-5000) as i128);
    }

    #[test]
    fn relu_and_zero_extension() {
        assert_eq!(Interval::new(-4, 9).relu(), Interval::new(0, 9));
        assert_eq!(Interval::new(3, 9).include_zero(), Interval::new(0, 9));
        assert_eq!(Interval::new(-4, -1).include_zero(), Interval::new(-4, 0));
    }

    #[test]
    fn new_orders_swapped_endpoints() {
        assert_eq!(Interval::new(9, -4), Interval::new(-4, 9));
        assert_eq!(Interval::new(5, 5), Interval::point(5));
        // A swapped construction must still behave under every query.
        let i = Interval::new(100, -100);
        assert_eq!((i.lo, i.hi), (-100, 100));
        assert_eq!(i.width(), 200);
        assert!(i.include_zero() == i);
    }

    #[test]
    fn scale_is_exact_for_negative_factors() {
        let i = Interval::new(-2, 7);
        assert_eq!(i.scale(3), Interval::new(-6, 21));
        // Negative factor reflects: [-2, 7]·−3 = [-21, 6], not [6, -21].
        let r = i.scale(-3);
        assert_eq!((r.lo, r.hi), (-21, 6));
        assert_eq!(i.scale(0), Interval::point(0));
        // Agrees with exact interval multiplication by a point.
        assert_eq!(i.scale(-3), i * Interval::point(-3));
    }

    #[test]
    fn width_fit_checks() {
        assert!(Interval::new(i32::MIN as i128, i32::MAX as i128).fits_i32());
        assert!(!Interval::new(0, i32::MAX as i128 + 1).fits_i32());
        assert!(!Interval::new(0, i64::MAX as i128 + 1).fits_i64());
        assert_eq!(Interval::new(-2, 6).width(), 8);
    }
}
