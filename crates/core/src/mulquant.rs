//! MulQuant — the integer requantization module (paper §3.2, Figure 3).
//!
//! After fusion, every layer's float epilogue (`S_w·S_x/S_y` rescale,
//! channel-wise γ\*, bias β\*/S_y) collapses into **one fixed-point multiply,
//! one add and one shift per output element**:
//!
//! ```text
//! y_q = clamp( (acc·M_c + B_c) >> f , qmin, qmax )
//! ```
//!
//! where `M_c` and `B_c` are INT(int, frac) fixed-point integers — unlike
//! the float rescale tensors PyTorch keeps, everything here is integer.

use t2c_tensor::Tensor;

use crate::fixed::{round_shift, FixedPointFormat};
use crate::qconfig::QuantSpec;

/// Fixed-point channel-wise (or per-tensor) requantizer.
#[derive(Debug, Clone, PartialEq)]
pub struct MulQuant {
    /// Raw fixed-point multipliers (length 1 = per-tensor).
    pub scale_raw: Vec<i32>,
    /// Raw fixed-point biases, already in `2^frac` units (length 1 or C).
    pub bias_raw: Vec<i64>,
    /// The fixed-point format of both.
    pub format: FixedPointFormat,
    /// The integer grid of the output.
    pub out_spec: QuantSpec,
}

impl MulQuant {
    /// Builds a requantizer choosing the fractional width automatically so
    /// the largest multiplier uses the full `total_bits` budget (biases are
    /// stored at the same fractional position in accumulator-width words,
    /// as deployed requantizers do).
    pub fn from_float_auto(
        scales: &[f32],
        biases: &[f32],
        total_bits: u8,
        out_spec: QuantSpec,
    ) -> Self {
        let max_scale = scales.iter().fold(0.0f32, |m, &s| m.max(s.abs()));
        let format = FixedPointFormat::auto(total_bits, max_scale);
        Self::from_float(scales, biases, format, out_spec)
    }

    /// Builds a requantizer from float multipliers and biases.
    ///
    /// # Panics
    ///
    /// Panics if `scales` is empty or `biases` has a different length
    /// (unless one of them has length 1, which broadcasts).
    pub fn from_float(
        scales: &[f32],
        biases: &[f32],
        format: FixedPointFormat,
        out_spec: QuantSpec,
    ) -> Self {
        assert!(!scales.is_empty(), "MulQuant needs at least one scale");
        assert!(
            biases.len() == scales.len() || biases.len() == 1 || scales.len() == 1,
            "scale/bias lengths {} vs {} do not broadcast",
            scales.len(),
            biases.len()
        );
        let n = scales.len().max(biases.len());
        let scale_raw =
            (0..n).map(|i| format.quantize(scales[i.min(scales.len() - 1)]).raw).collect();
        let bias_raw = (0..n)
            .map(|i| {
                // Biases live pre-shift: B = round(b·2^f).
                let b = biases[i.min(biases.len() - 1)];
                let max = (1i64 << (format.total_bits() + 14)) as f32;
                ((b * (1i64 << format.frac_bits) as f32).round().clamp(-max, max)) as i64
            })
            .collect();
        MulQuant { scale_raw, bias_raw, format, out_spec }
    }

    /// `true` if the requantizer carries per-channel factors.
    pub fn is_per_channel(&self) -> bool {
        self.scale_raw.len() > 1
    }

    /// Requantizes one accumulator value for channel `ch`.
    pub fn apply_scalar(&self, acc: i32, ch: usize) -> i32 {
        self.apply_scalar_relu(acc, ch, false)
    }

    /// Requantizes one accumulator value for channel `ch`, optionally
    /// applying the integer ReLU (`max(0, ·)`) before the clamp — the
    /// exact per-element computation of [`MulQuant::apply`], exposed as a
    /// scalar: the per-element reference that compiled plan epilogues are
    /// tested against.
    pub fn apply_scalar_relu(&self, acc: i32, ch: usize, relu: bool) -> i32 {
        let i = ch.min(self.scale_raw.len() - 1);
        let v =
            acc as i64 * self.scale_raw[i] as i64 + self.bias_raw[i.min(self.bias_raw.len() - 1)];
        let mut shifted = round_shift(v, self.format.frac_bits);
        if relu {
            shifted = shifted.max(0);
        }
        shifted.clamp(self.out_spec.qmin() as i64, self.out_spec.qmax() as i64) as i32
    }

    /// Requantizes an accumulator tensor. `ch_axis` selects which axis
    /// indexes the channel factors (1 for `[N, C, H, W]` and `[N, C]`).
    ///
    /// `relu` applies the integer ReLU (`max(0, ·)`) before the clamp —
    /// valid because the zero point is 0 throughout the pipeline.
    ///
    /// When profiling is enabled the global `mulquant.total` /
    /// `mulquant.saturated` counters are updated; disabled, the only
    /// overhead is one branch.
    ///
    /// # Panics
    ///
    /// Panics if `ch_axis` is out of range for `acc`.
    pub fn apply(&self, acc: &Tensor<i32>, ch_axis: usize, relu: bool) -> Tensor<i32> {
        if t2c_obs::enabled() {
            self.apply_with_saturation(acc, ch_axis, relu).0
        } else {
            self.apply_core(acc, ch_axis, relu, false).0
        }
    }

    /// Like [`MulQuant::apply`], additionally returning how many outputs
    /// landed outside the quantization grid and were clipped to its edge.
    /// Also feeds the global `mulquant.*` profile counters when enabled.
    ///
    /// # Panics
    ///
    /// Panics if `ch_axis` is out of range for `acc`.
    pub fn apply_with_saturation(
        &self,
        acc: &Tensor<i32>,
        ch_axis: usize,
        relu: bool,
    ) -> (Tensor<i32>, u64) {
        let (out, saturated) = self.apply_core(acc, ch_axis, relu, true);
        if t2c_obs::enabled() {
            t2c_obs::counter_add("mulquant.total", acc.numel() as u64);
            t2c_obs::counter_add("mulquant.saturated", saturated);
        }
        (out, saturated)
    }

    fn apply_core(
        &self,
        acc: &Tensor<i32>,
        ch_axis: usize,
        relu: bool,
        count_saturation: bool,
    ) -> (Tensor<i32>, u64) {
        let dims = acc.dims();
        assert!(ch_axis < dims.len(), "channel axis {ch_axis} out of range");
        let ch_extent = dims[ch_axis];
        let inner: usize = dims[ch_axis + 1..].iter().product();
        let mut out = Tensor::<i32>::zeros(dims);
        let xs = acc.as_slice();
        let os = out.as_mut_slice();
        let (qmin, qmax) = (self.out_spec.qmin() as i64, self.out_spec.qmax() as i64);
        let mut saturated = 0u64;
        for (i, &x) in xs.iter().enumerate() {
            let ch = (i / inner.max(1)) % ch_extent.max(1);
            let ci = ch.min(self.scale_raw.len() - 1);
            let v = x as i64 * self.scale_raw[ci] as i64
                + self.bias_raw[ci.min(self.bias_raw.len() - 1)];
            let mut shifted = round_shift(v, self.format.frac_bits);
            if relu {
                shifted = shifted.max(0);
            }
            if count_saturation && (shifted < qmin || shifted > qmax) {
                saturated += 1;
            }
            os[i] = shifted.clamp(qmin, qmax) as i32;
        }
        (out, saturated)
    }

    /// Number of requantization channels (1 = per-tensor).
    pub fn channels(&self) -> usize {
        self.scale_raw.len().max(self.bias_raw.len())
    }

    /// The raw-bias magnitude cap this requantizer's biases must respect:
    /// `2^(total_bits + 14)`, the accumulator headroom [`MulQuant::
    /// from_float`] clamps to. Biases beyond it indicate a corrupted or
    /// hand-built requantizer the hardware epilogue cannot represent.
    pub fn bias_headroom(&self) -> i64 {
        1i64 << (self.format.total_bits().min(48) + 14)
    }

    /// Image of the accumulator interval `[lo, hi]` under channel `ch`'s
    /// requantization — multiply, bias add and rounding shift, **before**
    /// the ReLU and the output clamp. The map is monotone (antitone for a
    /// negative multiplier), so endpoint images bound the image of the
    /// whole interval; `t2c-lint` uses this to prove an entire layer's
    /// output range lands inside the output grid.
    pub fn map_range(&self, lo: i64, hi: i64, ch: usize) -> (i64, i64) {
        let ci = ch.min(self.scale_raw.len() - 1);
        let bias = self.bias_raw[ci.min(self.bias_raw.len() - 1)];
        let f =
            |acc: i64| round_shift(acc * self.scale_raw[ci] as i64 + bias, self.format.frac_bits);
        let a = f(lo);
        let b = f(hi);
        (a.min(b), a.max(b))
    }

    /// One pre-shift raw unit expressed in output-grid steps: `2^-frac`.
    pub fn step(&self) -> f64 {
        self.format.step()
    }

    /// `|multiplier|` for channel `ch` as a real number.
    pub fn scale_abs(&self, ch: usize) -> f64 {
        (self.scale_raw[ch.min(self.scale_raw.len() - 1)] as f64
            / (1i64 << self.format.frac_bits) as f64)
            .abs()
    }

    /// Sound per-channel bound, in output quantization steps, on the
    /// divergence between this requantizer's integer epilogue and an exact
    /// real epilogue `acc*·m* + b*` — where `|acc − acc*| ≤ acc_err`,
    /// `|acc| ≤ acc_abs`, and `m*`/`b*` are any reals within half a raw
    /// ulp of the stored fixed-point words. Covers the rounding shift (½),
    /// the accumulator error amplified by the multiplier, and the
    /// multiplier/bias half-ulps amplified by the accumulator envelope.
    /// The trailing ReLU and output clamp are 1-Lipschitz, so the bound
    /// survives them unchanged.
    pub fn error_bound_steps(&self, ch: usize, acc_abs: f64, acc_err: f64) -> f64 {
        0.5 + self.scale_abs(ch) * acc_err + 0.5 * self.step() * (acc_abs + acc_err + 1.0)
    }

    /// The effective float multiplier for channel `ch` (for reports).
    pub fn scale_f32(&self, ch: usize) -> f32 {
        self.scale_raw[ch.min(self.scale_raw.len() - 1)] as f32
            / (1i64 << self.format.frac_bits) as f32
    }

    /// Bytes needed to store the scale and bias words.
    pub fn size_bytes(&self) -> usize {
        let word = self.format.total_bits().div_ceil(8) as usize;
        self.scale_raw.len() * word + self.bias_raw.len() * word
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmt() -> FixedPointFormat {
        FixedPointFormat::int16_frac12()
    }

    #[test]
    fn per_tensor_requant_matches_float_math() {
        let mq = MulQuant::from_float(&[0.05], &[1.7], fmt(), QuantSpec::unsigned(8));
        for acc in [-100i32, 0, 57, 999, 5000] {
            let float = (acc as f32 * 0.05 + 1.7).round().clamp(0.0, 255.0);
            let fixed = mq.apply_scalar(acc, 0) as f32;
            assert!((float - fixed).abs() <= 1.0, "acc {acc}: float {float} vs fixed {fixed}");
        }
    }

    #[test]
    fn per_channel_factors_select_by_axis() {
        let mq = MulQuant::from_float(&[1.0, 2.0], &[0.0, 0.0], fmt(), QuantSpec::signed(8));
        let acc = Tensor::from_vec(vec![3, 3, 3, 3], &[1, 2, 1, 2]).unwrap();
        let y = mq.apply(&acc, 1, false);
        assert_eq!(y.as_slice(), &[3, 3, 6, 6]);
    }

    #[test]
    fn relu_applies_before_clamp() {
        let mq = MulQuant::from_float(&[1.0], &[0.0], fmt(), QuantSpec::signed(8));
        let acc = Tensor::from_vec(vec![-5, 5], &[1, 2]).unwrap();
        let y = mq.apply(&acc, 1, true);
        assert_eq!(y.as_slice(), &[0, 5]);
        let y_no = mq.apply(&acc, 1, false);
        assert_eq!(y_no.as_slice(), &[-5, 5]);
    }

    #[test]
    fn output_clamped_to_spec() {
        let mq = MulQuant::from_float(&[4.0], &[0.0], fmt(), QuantSpec::unsigned(4));
        let acc = Tensor::from_vec(vec![100, -7], &[2]).unwrap();
        let y = mq.apply(&acc, 0, false);
        assert_eq!(y.as_slice(), &[15, 0]);
    }

    #[test]
    fn per_tensor_scale_broadcasts_against_per_channel_bias() {
        // scales.len() == 1 with biases.len() == C: the single scale must
        // broadcast across the channel-indexed biases.
        let mq = MulQuant::from_float(&[0.5], &[0.0, 1.0, 2.0], fmt(), QuantSpec::signed(8));
        assert_eq!(mq.scale_raw.len(), 3);
        assert_eq!(mq.bias_raw.len(), 3);
        assert!(mq.is_per_channel());
        let acc = Tensor::from_vec(vec![2, 2, 2, 4, 4, 4], &[2, 3]).unwrap();
        let y = mq.apply(&acc, 1, false);
        assert_eq!(y.as_slice(), &[1, 2, 3, 2, 3, 4]);
    }

    #[test]
    fn bias_clamps_at_accumulator_headroom() {
        // Biases saturate at ±2^(total_bits + 14): for INT(4, 12) that is
        // ±2^30 raw.
        let big = 1.0e12f32;
        let mq = MulQuant::from_float(&[1.0], &[big, -big], fmt(), QuantSpec::signed(8));
        let cap = 1i64 << (fmt().total_bits() + 14);
        assert_eq!(mq.bias_raw, vec![cap, -cap]);
        // An in-range bias is not clamped.
        let small = MulQuant::from_float(&[1.0], &[2.0], fmt(), QuantSpec::signed(8));
        assert_eq!(small.bias_raw, vec![2 << 12]);
    }

    #[test]
    fn rank2_per_channel_apply_on_axis1() {
        // [N, C] with ch_axis = 1: channel factors select by column.
        let mq = MulQuant::from_float(&[1.0, 2.0, 3.0], &[0.0], fmt(), QuantSpec::signed(8));
        let acc = Tensor::from_vec(vec![1, 1, 1, 2, 2, 2], &[2, 3]).unwrap();
        let y = mq.apply(&acc, 1, false);
        assert_eq!(y.as_slice(), &[1, 2, 3, 2, 4, 6]);
    }

    #[test]
    fn saturation_count_matches_clipped_outputs() {
        let mq = MulQuant::from_float(&[4.0], &[0.0], fmt(), QuantSpec::unsigned(4));
        let acc = Tensor::from_vec(vec![100, -7, 1], &[3]).unwrap();
        let (y, saturated) = mq.apply_with_saturation(&acc, 0, false);
        assert_eq!(y.as_slice(), &[15, 0, 4]);
        assert_eq!(saturated, 2, "400 clips to qmax, -28 clips to qmin");
    }

    #[test]
    fn error_bound_steps_dominates_scalar_requant_divergence() {
        // Against the exact real epilogue with the stored words themselves
        // (the center of the half-ulp family), the certified bound must
        // cover every probed accumulator — including clamped outputs,
        // since the clamp is 1-Lipschitz and applied to both paths.
        let mq = MulQuant::from_float(&[0.043], &[1.3], fmt(), QuantSpec::unsigned(8));
        let m = mq.scale_raw[0] as f64 / 4096.0;
        let b = mq.bias_raw[0] as f64 / 4096.0;
        for acc in [-900i32, -1, 0, 13, 777, 6000] {
            let exact = (acc as f64 * m + b).clamp(0.0, 255.0);
            let fixed = f64::from(mq.apply_scalar(acc, 0).clamp(0, 255));
            let bound = mq.error_bound_steps(0, acc.unsigned_abs() as f64, 0.0);
            let observed = (fixed - exact).abs();
            assert!(observed <= bound, "acc {acc}: observed {observed} > bound {bound}");
        }
    }

    #[test]
    fn scale_f32_round_trips() {
        let mq = MulQuant::from_float(&[0.125], &[0.0], fmt(), QuantSpec::signed(8));
        assert!((mq.scale_f32(0) - 0.125).abs() < 1e-6);
    }

    #[test]
    fn size_accounts_for_channels() {
        let per_tensor = MulQuant::from_float(&[1.0], &[0.0], fmt(), QuantSpec::signed(8));
        let per_channel = MulQuant::from_float(&[1.0; 64], &[0.0; 64], fmt(), QuantSpec::signed(8));
        assert_eq!(per_tensor.size_bytes(), 4);
        assert_eq!(per_channel.size_bytes(), 64 * 4);
    }
}
