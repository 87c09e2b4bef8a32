//! Packed integer weights and the cache-blocked saturating tile loop.
//!
//! The serving hot path multiplies a fixed weight matrix against a stream
//! of small activation batches. [`PackedMat`] pre-transforms such a weight
//! **once, when a model is compiled into an execution plan**, into
//! column-panel tiles so that every subsequent kernel call reads the
//! weight in the exact order the kernel consumes it — no per-call
//! transpose, and each panel is small enough to stay cache-resident while
//! a block of output rows is accumulated against it.
//!
//! # Layout
//!
//! A `[n, k]` weight (`n` output channels, `k` input features, row-major —
//! the orientation `IntOp::Linear` stores) is split into
//! `n.div_ceil(PANEL)` column panels of `PANEL` output channels each:
//!
//! ```text
//! dense weight W: [n, k] row-major      packed data, panel-major
//! ┌──────────── k ────────────┐
//! │ row 0   (output chan 0)   │         panel 0 = chans 0..P     [k × P]
//! │ row 1   (output chan 1)   │         panel 1 = chans P..2P    [k × P]
//! │ …                         │         …
//! └───────────────────────────┘         panel t, entry (p, j):
//!                                       data[t·k·P + p·P + j] = W[t·P + j, p]
//! ```
//!
//! Within a panel the `k` axis is outermost, so the kernel's inner loop
//! walks `PANEL` consecutive values (one cache line pair) and advancing the
//! reduction index `p` is a sequential read. Output channels past `n` in
//! the last panel are zero-filled; [`PackedMat::validate`] enforces that,
//! and the kernel never copies those columns out.
//!
//! # Bit-identity with the naive kernel
//!
//! The plan's packed GEMM ([`crate::fused::gemm_fused_into`], built on
//! this module's tile loop) is bit-identical to `Tensor::matmul_i`
//! against the unpacked transposed weight, by the same argument the skip-zero
//! sparse kernel uses: the dense kernel clamps the i64 accumulator back
//! into `i32` range after **every** MAC, so the running accumulator is
//! always an exact `i32` and any MAC whose product is zero is a no-op
//! (`clamp(acc + 0) == acc`). The packed kernel tiles over output rows and
//! panels — which only changes *which* output element is worked on next —
//! but for any fixed output element `(i, j)` it still visits the reduction
//! index `p = 0..k` strictly ascending and applies the same clamp after
//! each MAC. Skipped zero activations contribute only zero products. The
//! per-element sequence of effective accumulator updates is therefore
//! identical, output rows are disjoint [`crate::parallel`] units owned by
//! exactly one worker, and results are bit-identical at any thread count.
//!
//! The packed kernel additionally carries a **saturation-free fast path**:
//! each panel stores `max |w|` over its entries, and for an activation row
//! with absolute sum `S = Σ_p |a_p|`, every partial sum of every output
//! element in that (row, panel) pair is bounded by `S · max|w|`. When that
//! bound stays within the `i32` rails, the per-MAC clamp provably never
//! engages — `clamp(x) == x` at every step of the chain — so the chain
//! collapses to plain `i32` multiply-adds and the result is still
//! bit-identical. Quantized serving weights (int8 codes against int8
//! activations) take this path at every realistic reduction depth;
//! adversarial full-range inputs fall back to the clamped scalar chain.
//!
//! # Instruction sets
//!
//! `packed_tile` and `saturation_free` are `#[inline(always)]`: the
//! plan's GEMM row block ([`crate::fused::gemm_fused_into`]) inlines them
//! into both of its instantiations, the AVX2 one (8 `i32` lanes per
//! multiply-add) and the baseline one (4 lanes on x86-64), and runs the
//! one [`crate::isa::isa`] selects for the calling thread (see
//! [`crate::isa`](mod@crate::isa)). Both run the same per-element chain, so the results
//! are identical.

use crate::ops::require_rank;
use crate::{Result, Tensor, TensorError};

/// Panel width in output channels; matches the f32 kernel's cache-block
/// edge so one panel of `i32` weights occupies the same L1 footprint as an
/// f32 tile.
pub const PANEL: usize = crate::ops::BLOCK;

/// Output rows accumulated per tile: each panel pass reuses one `PANEL`-wide
/// weight row across `MR` activation rows before it leaves cache.
pub(crate) const MR: usize = 8;

/// A `[n, k]` integer weight packed into column-panel tiles (see the
/// module docs for the layout).
///
/// Fields are public so the lint/test layers can corrupt one; consumers
/// are expected to call [`PackedMat::validate`] before trusting the
/// structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedMat {
    /// Output channels (rows of the original weight).
    pub n: usize,
    /// Input features (columns of the original weight, the reduction dim).
    pub k: usize,
    /// `n.div_ceil(PANEL) * k * PANEL` values, panel-major; entries past
    /// column `n` in the last panel are zero.
    pub data: Vec<i32>,
    /// Per-panel `max |w|`, the saturation-free fast-path bound (see the
    /// module docs). One entry per panel; [`PackedMat::validate`] checks
    /// each against a recomputation, because an under-reported bound would
    /// let the unclamped chain overflow.
    pub panel_max: Vec<u32>,
}

impl PackedMat {
    /// Packs a rank-2 `[n, k]` weight tensor (the `IntOp::Linear`
    /// orientation: one row per output channel).
    ///
    /// # Errors
    ///
    /// Returns an error if `weight` is not rank 2 or has a zero dimension.
    pub fn from_weight(weight: &Tensor<i32>) -> Result<Self> {
        require_rank(weight, 2, "PackedMat::from_weight")?;
        let (n, k) = (weight.dim(0), weight.dim(1));
        if n == 0 || k == 0 {
            return Err(TensorError::InvalidArgument(format!(
                "cannot pack a degenerate [{n}, {k}] weight"
            )));
        }
        let panels = n.div_ceil(PANEL);
        let w = weight.as_slice();
        let mut data = vec![0i32; panels * k * PANEL];
        for t in 0..panels {
            let cols = PANEL.min(n - t * PANEL);
            let panel = &mut data[t * k * PANEL..(t + 1) * k * PANEL];
            for j in 0..cols {
                let wrow = &w[(t * PANEL + j) * k..(t * PANEL + j + 1) * k];
                for (p, &wv) in wrow.iter().enumerate() {
                    panel[p * PANEL + j] = wv;
                }
            }
        }
        let panel_max = data.chunks(k * PANEL).map(max_abs).collect();
        Ok(PackedMat { n, k, data, panel_max })
    }

    /// Number of column panels.
    pub fn panels(&self) -> usize {
        self.n.div_ceil(PANEL)
    }

    /// Reconstructs the dense `[n, k]` weight, dropping the panel padding.
    ///
    /// # Errors
    ///
    /// Returns an error if the structure is invalid.
    pub fn unpack(&self) -> Result<Tensor<i32>> {
        self.validate()?;
        let (n, k) = (self.n, self.k);
        let mut out = vec![0i32; n * k];
        for (t, panel) in self.data.chunks(k * PANEL).enumerate() {
            let cols = PANEL.min(n - t * PANEL);
            for j in 0..cols {
                let row = &mut out[(t * PANEL + j) * k..(t * PANEL + j + 1) * k];
                for (p, rv) in row.iter_mut().enumerate() {
                    *rv = panel[p * PANEL + j];
                }
            }
        }
        Tensor::from_vec(out, &[n, k])
    }

    /// Checks the structural invariants: non-degenerate dimensions, the
    /// exact panel-padded length, and zero fill past column `n` in the
    /// last panel.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] naming the first violated
    /// invariant.
    pub fn validate(&self) -> Result<()> {
        if self.n == 0 || self.k == 0 {
            return Err(TensorError::InvalidArgument(format!(
                "packed weight has degenerate shape [{}, {}]",
                self.n, self.k
            )));
        }
        let expect = self.panels() * self.k * PANEL;
        if self.data.len() != expect {
            return Err(TensorError::InvalidArgument(format!(
                "packed weight [{}, {}] stores {} values, expected {expect}",
                self.n,
                self.k,
                self.data.len()
            )));
        }
        let tail = (self.panels() - 1) * self.k * PANEL;
        let cols = self.n - (self.panels() - 1) * PANEL;
        for p in 0..self.k {
            for j in cols..PANEL {
                if self.data[tail + p * PANEL + j] != 0 {
                    return Err(TensorError::InvalidArgument(format!(
                        "packed weight [{}, {}] has non-zero padding at panel entry ({p}, {j})",
                        self.n, self.k
                    )));
                }
            }
        }
        if self.panel_max.len() != self.panels() {
            return Err(TensorError::InvalidArgument(format!(
                "packed weight [{}, {}] stores {} panel bounds for {} panels",
                self.n,
                self.k,
                self.panel_max.len(),
                self.panels()
            )));
        }
        for (t, panel) in self.data.chunks(self.k * PANEL).enumerate() {
            if self.panel_max[t] != max_abs(panel) {
                return Err(TensorError::InvalidArgument(format!(
                    "packed weight [{}, {}] panel {t} bound {} disagrees with its entries",
                    self.n, self.k, self.panel_max[t]
                )));
            }
        }
        Ok(())
    }
}

/// `max |v|` over a slice (`i32::MIN`-safe via `unsigned_abs`).
fn max_abs(vals: &[i32]) -> u32 {
    vals.iter().map(|v| v.unsigned_abs()).max().unwrap_or(0)
}

/// Accumulates a `rows × PANEL` output tile against one weight panel.
///
/// `a` holds at least `rows` activation rows of length `k`; `pdata` is one
/// `[k × PANEL]` panel with `pmax = max |w|` over its entries; `tile` is
/// the `MR × PANEL` accumulator (rows past `rows` are left untouched). For
/// every output element the reduction index `p` ascends and the
/// accumulator is clamped after each MAC — the bit-identity contract from
/// the module docs. When every row's `Σ|a| · pmax` bound proves the clamp
/// can never engage, the tile runs the unclamped vectorizable chain
/// instead (same results, module docs).
#[inline(always)]
pub(crate) fn packed_tile(
    a: &[i32],
    rows: usize,
    k: usize,
    pdata: &[i32],
    pmax: u32,
    tile: &mut [i32],
) {
    debug_assert!(rows <= MR && rows > 0);
    debug_assert_eq!(pdata.len(), k * PANEL);
    debug_assert_eq!(tile.len(), MR * PANEL);
    if saturation_free(a, rows, k, pmax) {
        // Every partial sum (and every single product) of every output
        // element in this tile stays within the i32 rails, so the plain
        // additions below cannot overflow and equal the clamped chain.
        for p in 0..k {
            let brow = &pdata[p * PANEL..(p + 1) * PANEL];
            for r in 0..rows {
                let av = a[r * k + p];
                if av == 0 {
                    continue;
                }
                let trow = &mut tile[r * PANEL..(r + 1) * PANEL];
                for (o, &bv) in trow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        return;
    }
    for p in 0..k {
        let brow = &pdata[p * PANEL..(p + 1) * PANEL];
        for r in 0..rows {
            let av = a[r * k + p] as i64;
            if av == 0 {
                // Zero product: a saturation no-op, same as the naive kernel.
                continue;
            }
            let trow = &mut tile[r * PANEL..(r + 1) * PANEL];
            for (o, &bv) in trow.iter_mut().zip(brow) {
                let acc = *o as i64 + av * bv as i64;
                *o = acc.clamp(i32::MIN as i64, i32::MAX as i64) as i32;
            }
        }
    }
}

/// `true` when every one of the `rows` activation rows of length `k` at the
/// head of `a` has `Σ|a| · wmax ≤ i32::MAX`, for a weight bound `wmax =
/// max |w|`: then no partial sum of a product against those rows — nor any
/// single product — can leave the `i32` range, and the per-MAC clamp never
/// engages.
#[inline(always)]
pub(crate) fn saturation_free(a: &[i32], rows: usize, k: usize, wmax: u32) -> bool {
    (0..rows).all(|r| {
        let abs_sum: u64 = a[r * k..(r + 1) * k].iter().map(|v| u64::from(v.unsigned_abs())).sum();
        u128::from(abs_sum) * u128::from(wmax) <= i32::MAX as u128
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    fn pseudo_i(dims: &[usize], seed: u64, span: i64) -> Tensor<i32> {
        Tensor::from_fn(dims, |i| {
            let h = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
            ((h >> 33) as i64 % span - span / 2) as i32
        })
    }

    #[test]
    fn pack_unpack_round_trips() {
        for (n, k) in [(1, 1), (10, 3), (64, 64), (65, 7), (130, 9)] {
            let w = pseudo_i(&[n, k], 5, 255);
            let packed = PackedMat::from_weight(&w).unwrap();
            packed.validate().unwrap();
            assert_eq!(packed.panels(), n.div_ceil(PANEL));
            assert_eq!(packed.unpack().unwrap().as_slice(), w.as_slice());
        }
    }

    #[test]
    fn validate_rejects_corrupted_structure() {
        let w = pseudo_i(&[65, 4], 3, 100);
        let good = PackedMat::from_weight(&w).unwrap();

        let mut truncated = good.clone();
        truncated.data.pop();
        assert!(truncated.validate().is_err());

        let mut dirty_pad = good.clone();
        // Panel 1 holds columns 64..128; column 65 is padding for n = 65.
        let last = dirty_pad.data.len() - 1;
        dirty_pad.data[last] = 7;
        assert!(dirty_pad.validate().is_err());

        let mut lying_bound = good.clone();
        // An under-reported bound would wrongly license the unclamped
        // fast path; validate must reject it.
        lying_bound.panel_max[0] = 0;
        assert!(lying_bound.validate().is_err());

        let degenerate = PackedMat { n: 0, k: 4, data: Vec::new(), panel_max: Vec::new() };
        assert!(degenerate.validate().is_err());
    }
}
