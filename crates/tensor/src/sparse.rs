//! Compressed sparse weight matrices and the skip-zero integer matmul.
//!
//! Deployment-side counterpart of the `t2c-sparse` pruners: once a weight
//! tensor has been pruned and quantized, its zero codes can be *compressed
//! away* instead of multiplied. A [`SparseMat`] stores a `[rows, cols]`
//! integer weight matrix as packed per-row non-zero payloads plus one of
//! two structural encodings:
//!
//! * [`SparseEncoding::Bitmask`] — one bit per element, per row. General:
//!   any mask compresses, storage is `nnz · weight_bits + rows · cols`
//!   mask bits.
//! * [`SparseEncoding::Nm`] — the hardware-friendly N:M layout (Zhou et
//!   al., 2021): every group of `m` consecutive in-row elements stores
//!   exactly `n` slots (`min(n, len)` for the trailing partial group), each
//!   slot an in-group column offset plus a payload. The slot count per row
//!   is closed-form, so hardware can index groups without a row pointer.
//!
//! # Bit-identity with the dense kernel
//!
//! [`matmul_sparse_i`] is bit-identical to [`Tensor::matmul_i`] on the
//! densified weights, by construction: the dense kernel clamps the i64
//! accumulator back into `i32` range after **every** MAC, so the running
//! accumulator is always an exact `i32` value and any MAC whose product is
//! zero is a no-op (`clamp(acc + 0) == acc`). The sparse kernel walks the
//! stored slots of a weight row in ascending column order and applies the
//! same clamp after each MAC; the dense kernel walks *all* columns in
//! ascending order, but the columns it visits and the sparse kernel skips
//! contribute only zero products. Both kernels therefore apply the same
//! sequence of effective accumulator updates, and both partition work over
//! output rows with [`crate::parallel`], so results are bit-identical at
//! any thread count. The kernel shares the packed GEMM's saturation-free
//! fast path (see [`crate::packed`]): a block of input rows whose
//! `Σ|x| · max|w|` bound stays within the `i32` rails skips the per-MAC
//! clamp, which provably never engages there.

use crate::fused::RowChannels;
use crate::isa::{dispatch, isa, Kernel};
use crate::packed::saturation_free;
use crate::parallel::par_units;
use crate::{Result, Tensor, TensorError};
use std::fmt;

/// Structural (position) encoding of a [`SparseMat`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseEncoding {
    /// One bit per element: bit `c % 64` of word `r * words_per_row + c / 64`
    /// is set iff element `(r, c)` is stored, with
    /// `words_per_row = cols.div_ceil(64)`.
    Bitmask {
        /// `rows * cols.div_ceil(64)` mask words, row-major.
        words: Vec<u64>,
    },
    /// N:M structured layout: each in-row group of `m` consecutive columns
    /// stores exactly `min(n, group_len)` slots in ascending column order.
    /// Groups with fewer than `n` non-zeros are padded with zero-valued
    /// slots so the per-row slot count stays closed-form.
    Nm {
        /// Survivors per group.
        n: u8,
        /// Group size along the row.
        m: u8,
        /// One in-group column offset per stored slot (`< m`).
        idx: Vec<u8>,
    },
}

/// Why a [`SparseMat`] failed validation.
///
/// The split matters to the lint layer: mask/payload inconsistencies and
/// N:M constraint violations map to different rule IDs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// The mask/row-pointer structure disagrees with the payload.
    Mask(String),
    /// The N:M layout parameters or slot structure are violated.
    NmConstraint(String),
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::Mask(msg) => write!(f, "sparse mask/payload mismatch: {msg}"),
            SparseError::NmConstraint(msg) => write!(f, "N:M constraint violated: {msg}"),
        }
    }
}

impl std::error::Error for SparseError {}

/// A `[rows, cols]` integer matrix stored as packed non-zero payloads plus
/// a structural encoding (see the module docs for the layouts).
///
/// Fields are public so the export reader can reconstruct a matrix and the
/// lint/test layers can corrupt one; every consumer is expected to call
/// [`SparseMat::validate`] before trusting the structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseMat {
    /// Number of matrix rows (the output channels of a linear layer).
    pub rows: usize,
    /// Number of matrix columns (the input features).
    pub cols: usize,
    /// `rows + 1` offsets into `vals`: row `r` owns slots
    /// `row_ptr[r]..row_ptr[r + 1]`, in ascending column order.
    pub row_ptr: Vec<u32>,
    /// Packed stored payloads (N:M padding slots hold value 0).
    pub vals: Vec<i32>,
    /// Where each stored payload sits in the dense matrix.
    pub encoding: SparseEncoding,
}

/// Mask words per row for a bitmask encoding over `cols` columns.
fn words_per_row(cols: usize) -> usize {
    cols.div_ceil(64)
}

impl SparseMat {
    /// Compresses a rank-2 tensor into bitmask form, storing only the
    /// non-zero elements.
    ///
    /// # Errors
    ///
    /// Returns an error if `dense` is not rank 2.
    pub fn from_dense(dense: &Tensor<i32>) -> Result<Self> {
        crate::ops::require_rank(dense, 2, "SparseMat::from_dense")?;
        let (rows, cols) = (dense.dim(0), dense.dim(1));
        let wpr = words_per_row(cols);
        let mut words = vec![0u64; rows * wpr];
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut vals = Vec::new();
        row_ptr.push(0u32);
        let data = dense.as_slice();
        for r in 0..rows {
            for c in 0..cols {
                let v = data[r * cols + c];
                if v != 0 {
                    words[r * wpr + c / 64] |= 1u64 << (c % 64);
                    vals.push(v);
                }
            }
            row_ptr.push(vals.len() as u32);
        }
        Ok(SparseMat { rows, cols, row_ptr, vals, encoding: SparseEncoding::Bitmask { words } })
    }

    /// Compresses a rank-2 tensor into the N:M layout.
    ///
    /// Every in-row group of `m` consecutive columns must hold at most `n`
    /// non-zeros; groups with fewer are padded with zero-valued slots at
    /// the lowest free offsets so each group stores exactly
    /// `min(n, group_len)` slots.
    ///
    /// # Errors
    ///
    /// Returns an error if `dense` is not rank 2, if `n`/`m` are not a
    /// valid pattern (`0 < n <= m`, `m <= 64`), or if any group violates
    /// the constraint.
    pub fn from_dense_nm(dense: &Tensor<i32>, n: u8, m: u8) -> Result<Self> {
        crate::ops::require_rank(dense, 2, "SparseMat::from_dense_nm")?;
        if n == 0 || m == 0 || n > m {
            return Err(TensorError::InvalidArgument(format!("invalid N:M pattern {n}:{m}")));
        }
        let (rows, cols) = (dense.dim(0), dense.dim(1));
        let data = dense.as_slice();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut vals = Vec::new();
        let mut idx = Vec::new();
        row_ptr.push(0u32);
        for r in 0..rows {
            let row = &data[r * cols..(r + 1) * cols];
            for (g, group) in row.chunks(m as usize).enumerate() {
                let keep = (n as usize).min(group.len());
                let nnz = group.iter().filter(|&&v| v != 0).count();
                if nnz > keep {
                    return Err(TensorError::InvalidArgument(format!(
                        "row {r} group {g} has {nnz} non-zeros, exceeding {n}:{m}"
                    )));
                }
                // Non-zero offsets first, then zero-valued padding at the
                // lowest free offsets; stored ascending per group.
                let mut offs: Vec<u8> =
                    (0..group.len() as u8).filter(|&o| group[o as usize] != 0).collect();
                for o in 0..group.len() as u8 {
                    if offs.len() == keep {
                        break;
                    }
                    if group[o as usize] == 0 {
                        offs.push(o);
                    }
                }
                offs.sort_unstable();
                for &o in &offs {
                    idx.push(o);
                    vals.push(group[o as usize]);
                }
            }
            row_ptr.push(vals.len() as u32);
        }
        Ok(SparseMat { rows, cols, row_ptr, vals, encoding: SparseEncoding::Nm { n, m, idx } })
    }

    /// Number of stored slots (including N:M padding slots).
    pub fn stored(&self) -> usize {
        self.vals.len()
    }

    /// Number of stored slots with a non-zero payload.
    pub fn nnz(&self) -> usize {
        self.vals.iter().filter(|&&v| v != 0).count()
    }

    /// Structural sparsity: the fraction of dense elements *not* stored,
    /// `1 − stored / (rows · cols)`. For the bitmask encoding this equals
    /// the value-level sparsity; the N:M layout may store zero padding, so
    /// its structural sparsity is at most `1 − n/m`.
    pub fn sparsity(&self) -> f32 {
        let total = self.rows * self.cols;
        if total == 0 {
            0.0
        } else {
            1.0 - self.stored() as f32 / total as f32
        }
    }

    /// The dense column index of every stored slot, in storage order.
    ///
    /// Kernels use this to turn both encodings into a uniform
    /// (column, value) stream; columns are ascending within each row.
    pub fn col_indices(&self) -> Vec<u32> {
        let mut cols = Vec::with_capacity(self.vals.len());
        match &self.encoding {
            SparseEncoding::Bitmask { words } => {
                let wpr = words_per_row(self.cols);
                for r in 0..self.rows {
                    for (w, &word) in words[r * wpr..(r + 1) * wpr].iter().enumerate() {
                        let mut bits = word;
                        while bits != 0 {
                            let bit = bits.trailing_zeros();
                            cols.push((w as u32) * 64 + bit);
                            bits &= bits - 1;
                        }
                    }
                }
            }
            SparseEncoding::Nm { n, m, idx } => {
                let (n, m) = (*n as usize, *m as usize);
                for r in 0..self.rows {
                    let (start, end) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
                    let mut slot = start;
                    let mut base = 0usize;
                    while slot < end {
                        let group_len = m.min(self.cols - base);
                        let keep = n.min(group_len);
                        for s in 0..keep {
                            cols.push((base + idx[slot + s] as usize) as u32);
                        }
                        slot += keep;
                        base += m;
                    }
                }
            }
        }
        cols
    }

    /// Expands back to the dense `[rows, cols]` tensor.
    pub fn to_dense(&self) -> Tensor<i32> {
        let mut data = vec![0i32; self.rows * self.cols];
        let cols = self.col_indices();
        for r in 0..self.rows {
            let (start, end) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            for s in start..end {
                data[r * self.cols + cols[s] as usize] = self.vals[s];
            }
        }
        Tensor::from_vec(data, &[self.rows, self.cols]).expect("dense shape is consistent")
    }

    /// A short human label for the layout (`"bitmask"` or `"2:4"`).
    pub fn layout_label(&self) -> String {
        match &self.encoding {
            SparseEncoding::Bitmask { .. } => "bitmask".to_owned(),
            SparseEncoding::Nm { n, m, .. } => format!("{n}:{m}"),
        }
    }

    /// Checks the full structural invariants.
    ///
    /// # Errors
    ///
    /// [`SparseError::Mask`] when the row pointers or bitmask disagree with
    /// the payload; [`SparseError::NmConstraint`] when the N:M parameters
    /// or per-group slot structure are violated.
    pub fn validate(&self) -> std::result::Result<(), SparseError> {
        if self.row_ptr.len() != self.rows + 1 {
            return Err(SparseError::Mask(format!(
                "row_ptr has {} entries for {} rows",
                self.row_ptr.len(),
                self.rows
            )));
        }
        if self.row_ptr[0] != 0 {
            return Err(SparseError::Mask("row_ptr[0] must be 0".into()));
        }
        if self.row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(SparseError::Mask("row_ptr must be non-decreasing".into()));
        }
        if *self.row_ptr.last().expect("row_ptr non-empty") as usize != self.vals.len() {
            return Err(SparseError::Mask(format!(
                "row_ptr ends at {} but {} payloads are stored",
                self.row_ptr.last().expect("row_ptr non-empty"),
                self.vals.len()
            )));
        }
        match &self.encoding {
            SparseEncoding::Bitmask { words } => {
                let wpr = words_per_row(self.cols);
                if words.len() != self.rows * wpr {
                    return Err(SparseError::Mask(format!(
                        "bitmask has {} words, expected {}",
                        words.len(),
                        self.rows * wpr
                    )));
                }
                for r in 0..self.rows {
                    let row_words = &words[r * wpr..(r + 1) * wpr];
                    // Bits at or beyond `cols` would name phantom columns.
                    let tail_bits = wpr * 64 - self.cols;
                    if tail_bits > 0 && row_words[wpr - 1] >> (64 - tail_bits) != 0 {
                        return Err(SparseError::Mask(format!(
                            "row {r} sets mask bits beyond column {}",
                            self.cols
                        )));
                    }
                    let pop: u32 = row_words.iter().map(|w| w.count_ones()).sum();
                    let slots = self.row_ptr[r + 1] - self.row_ptr[r];
                    if pop != slots {
                        return Err(SparseError::Mask(format!(
                            "row {r} mask popcount {pop} != {slots} stored payloads"
                        )));
                    }
                }
            }
            SparseEncoding::Nm { n, m, idx } => {
                if *n == 0 || *m == 0 || n > m {
                    return Err(SparseError::NmConstraint(format!("invalid pattern {n}:{m}")));
                }
                if idx.len() != self.vals.len() {
                    return Err(SparseError::Mask(format!(
                        "{} offsets for {} payloads",
                        idx.len(),
                        self.vals.len()
                    )));
                }
                let (n, m) = (*n as usize, *m as usize);
                for r in 0..self.rows {
                    let (start, end) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
                    let mut slot = start;
                    let mut base = 0usize;
                    while base < self.cols {
                        let group_len = m.min(self.cols - base);
                        let keep = n.min(group_len);
                        if slot + keep > end {
                            return Err(SparseError::NmConstraint(format!(
                                "row {r} stores too few slots for its groups"
                            )));
                        }
                        for s in 0..keep {
                            let off = idx[slot + s] as usize;
                            if off >= group_len {
                                return Err(SparseError::NmConstraint(format!(
                                    "row {r} group at column {base}: offset {off} outside group"
                                )));
                            }
                            if s > 0 && idx[slot + s - 1] >= idx[slot + s] {
                                return Err(SparseError::NmConstraint(format!(
                                    "row {r} group at column {base}: offsets not ascending"
                                )));
                            }
                        }
                        slot += keep;
                        base += m;
                    }
                    if slot != end {
                        return Err(SparseError::NmConstraint(format!(
                            "row {r} stores {} slots, expected {}",
                            end - start,
                            slot - start
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Skip-zero integer matmul against a compressed weight matrix:
/// `[batch, cols] × [rows, cols]ᵀ → [batch, rows]`, with 64-bit
/// accumulation saturated to `i32` after every MAC.
///
/// Bit-identical to `x.matmul_i(&w.to_dense().transpose()?)` (see the
/// module docs for the argument) and threaded over output rows with the
/// same deterministic partitioner as the dense kernel.
///
/// # Errors
///
/// Returns an error if `x` is not rank 2, the inner dimensions disagree,
/// or `w` fails [`SparseMat::validate`].
pub fn matmul_sparse_i(x: &Tensor<i32>, w: &SparseMat) -> Result<Tensor<i32>> {
    crate::ops::require_rank(x, 2, "matmul_sparse_i")?;
    let (batch, k) = (x.dim(0), x.dim(1));
    if k != w.cols {
        return Err(TensorError::ShapeMismatch {
            lhs: x.dims().to_vec(),
            rhs: vec![w.rows, w.cols],
            op: "matmul_sparse_i",
        });
    }
    w.validate().map_err(|e| TensorError::InvalidArgument(e.to_string()))?;
    let _t = t2c_obs::Timer::scoped("kernel.spmm_i32.time_ns");
    if t2c_obs::enabled() {
        t2c_obs::counter_add("kernel.spmm_i32.calls", 1);
        t2c_obs::counter_add("kernel.spmm_i32.macs", (batch * w.stored()) as u64);
        t2c_obs::counter_add("kernel.spmm_i32.elements", (batch * w.rows) as u64);
        t2c_obs::counter_add(
            "kernel.spmm_i32.bytes",
            ((batch * k + w.stored() + batch * w.rows) * 4) as u64,
        );
    }
    let mut out = vec![0i32; batch * w.rows];
    spmm_into(x.as_slice(), w, &w.col_indices(), &|_: &mut [i32], _| {}, &mut out);
    Tensor::from_vec(out, &[batch, w.rows])
}

/// The skip-zero loop shared by [`matmul_sparse_i`] and
/// [`crate::fused::spmm_fused_into`]: `x` holds `out.len() / w.rows`
/// activation rows and `cols` is `w.col_indices()`. Each block's finished
/// accumulators of output `j` pass through `epi(block, RowChannels::One(j))`
/// before they are scattered to their rows.
///
/// Blocked over batch rows: each output's MAC chain is serial through the
/// per-step clamp, so walking one slot list against [`SPMM_BLOCK`] input
/// rows at a time keeps that many independent chains in flight (and
/// reuses the column/value stream) without reordering any chain.
pub(crate) fn spmm_into<E>(x: &[i32], w: &SparseMat, cols: &[u32], epi: &E, out: &mut [i32])
where
    E: Fn(&mut [i32], RowChannels) + Sync,
{
    let wmax = w.vals.iter().map(|v| v.unsigned_abs()).max().unwrap_or(0);
    let isa = isa();
    par_units(out, w.rows.max(1), |row0, run| {
        let xs = &x[row0 * w.cols..];
        dispatch(isa, SpmmRows { xs, w, cols, wmax, epi, run });
    });
}

/// The sparse row block behind [`spmm_into`]: the activation rows at the
/// head of `xs` into `run`, [`SPMM_BLOCK`] rows at a time.
struct SpmmRows<'a, E> {
    xs: &'a [i32],
    w: &'a SparseMat,
    cols: &'a [u32],
    /// `max |w|` over the stored values.
    wmax: u32,
    epi: &'a E,
    run: &'a mut [i32],
}

impl<E: Fn(&mut [i32], RowChannels)> Kernel for SpmmRows<'_, E> {
    type Out = ();

    #[inline(always)]
    fn run(self) {
        let SpmmRows { xs, w, cols, wmax, epi, run } = self;
        let (n_out, k) = (w.rows, w.cols);
        let n = n_out.max(1);
        let nrows = run.len() / n;
        let mut r = 0;
        while r < nrows {
            let xs = &xs[r * k..];
            let block = if r + SPMM_BLOCK <= nrows { SPMM_BLOCK } else { 1 };
            let free = saturation_free(xs, block, k, wmax);
            for j in 0..n_out {
                let (start, end) = (w.row_ptr[j] as usize, w.row_ptr[j + 1] as usize);
                let (scols, svals) = (&cols[start..end], &w.vals[start..end]);
                let mut done = [0i32; SPMM_BLOCK];
                let done = &mut done[..block];
                if block == SPMM_BLOCK {
                    let acc = spmm_rows::<SPMM_BLOCK>(xs, k, scols, svals, free);
                    for (d, a) in done.iter_mut().zip(acc) {
                        *d = a as i32;
                    }
                } else {
                    done[0] = spmm_rows::<1>(xs, k, scols, svals, free)[0] as i32;
                }
                epi(done, RowChannels::One(j));
                for (t, &v) in done.iter().enumerate() {
                    run[(r + t) * n + j] = v;
                }
            }
            r += block;
        }
    }
}

/// Batch-row block width for [`matmul_sparse_i`]: enough independent
/// saturating-accumulator chains to hide the clamp's dependency latency.
pub(crate) const SPMM_BLOCK: usize = 16;

/// Accumulates one compressed weight row against the `B` consecutive
/// input rows at the head of `xs` (stride `k`), clamping to `i32` range
/// after every MAC — the exact dense accumulation order per output. When
/// `free` (the rows' [`saturation_free`] bound) proves the clamp can never
/// engage, the plain sums are the same values without the clamp chain.
#[inline(always)]
fn spmm_rows<const B: usize>(
    xs: &[i32],
    k: usize,
    scols: &[u32],
    svals: &[i32],
    free: bool,
) -> [i64; B] {
    let mut acc = [0i64; B];
    for (&c, &v) in scols.iter().zip(svals) {
        let (c, v) = (c as usize, i64::from(v));
        for (t, a) in acc.iter_mut().enumerate() {
            let sum = *a + i64::from(xs[t * k + c]) * v;
            *a = if free { sum } else { sum.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) };
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_threads;

    fn dense_ref(x: &Tensor<i32>, w: &Tensor<i32>) -> Tensor<i32> {
        x.matmul_i(&w.transpose().unwrap()).unwrap()
    }

    #[test]
    fn bitmask_round_trips_dense() {
        let w = Tensor::from_fn(&[5, 7], |i| if i % 3 == 0 { (i as i32 % 9) - 4 } else { 0 });
        let sp = SparseMat::from_dense(&w).unwrap();
        sp.validate().unwrap();
        assert_eq!(sp.to_dense().as_slice(), w.as_slice());
        assert_eq!(sp.nnz(), w.numel() - w.count_zeros());
        assert_eq!(sp.layout_label(), "bitmask");
    }

    #[test]
    fn bitmask_handles_wide_rows_across_word_boundaries() {
        // 130 columns spans three 64-bit mask words per row.
        let w = Tensor::from_fn(&[3, 130], |i| if i % 17 == 0 { 5 } else { 0 });
        let sp = SparseMat::from_dense(&w).unwrap();
        sp.validate().unwrap();
        assert_eq!(sp.to_dense().as_slice(), w.as_slice());
    }

    #[test]
    fn nm_round_trips_with_partial_trailing_group() {
        // cols = 6, m = 4: each row has one full group and one 2-wide tail.
        let w = Tensor::from_vec(
            vec![
                1, 0, 0, 2, 3, 0, //
                0, 0, -1, 0, 0, 4, //
                0, 7, 0, 0, 0, 0,
            ],
            &[3, 6],
        )
        .unwrap();
        let sp = SparseMat::from_dense_nm(&w, 2, 4).unwrap();
        sp.validate().unwrap();
        assert_eq!(sp.layout_label(), "2:4");
        assert_eq!(sp.to_dense().as_slice(), w.as_slice());
        // Every full group stores exactly n slots, the 2-wide tail exactly 2.
        assert_eq!(sp.stored(), 3 * (2 + 2));
    }

    #[test]
    fn nm_rejects_constraint_violation() {
        let w = Tensor::from_vec(vec![1, 2, 3, 0], &[1, 4]).unwrap();
        assert!(SparseMat::from_dense_nm(&w, 2, 4).is_err());
    }

    #[test]
    fn sparse_matmul_is_bit_identical_to_dense_at_any_thread_count() {
        let w = Tensor::from_fn(&[13, 29], |i| {
            if i % 5 == 0 {
                (i as i32).wrapping_mul(2_654_435_761u32 as i32) % 100
            } else {
                0
            }
        });
        let x = Tensor::from_fn(&[9, 29], |i| (i as i32 % 21) - 10);
        let expect = dense_ref(&x, &w);
        let sp = SparseMat::from_dense(&w).unwrap();
        for threads in [1, 2, 8] {
            let got = with_threads(threads, || matmul_sparse_i(&x, &sp).unwrap());
            assert_eq!(got.as_slice(), expect.as_slice(), "threads={threads}");
            assert_eq!(got.dims(), &[9, 13]);
        }
    }

    #[test]
    fn nm_matmul_matches_dense_including_padding_slots() {
        // 2:4-legal weights with under-full groups (padding slots exercise
        // the zero-payload path).
        let w = Tensor::from_vec(
            vec![
                9, 0, 0, 0, 0, -3, //
                0, 0, 0, 0, 0, 0, //
                -1, 0, 0, 2, 7, 8,
            ],
            &[3, 6],
        )
        .unwrap();
        let sp = SparseMat::from_dense_nm(&w, 2, 4).unwrap();
        let x = Tensor::from_fn(&[4, 6], |i| (i as i32 % 11) - 5);
        let expect = dense_ref(&x, &w);
        for threads in [1, 3] {
            let got = with_threads(threads, || matmul_sparse_i(&x, &sp).unwrap());
            assert_eq!(got.as_slice(), expect.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn sparse_matmul_saturates_like_dense() {
        // One weight row forces the accumulator through both rails.
        let w = Tensor::from_vec(vec![i32::MAX, 0, i32::MAX, i32::MIN], &[1, 4]).unwrap();
        let x = Tensor::from_vec(vec![2, 99, 2, 2], &[1, 4]).unwrap();
        let sp = SparseMat::from_dense(&w).unwrap();
        let got = matmul_sparse_i(&x, &sp).unwrap();
        assert_eq!(got.as_slice(), dense_ref(&x, &w).as_slice());
    }

    #[test]
    fn bounded_and_saturating_row_blocks_match_dense() {
        // 40 rows: two 16-row blocks and an 8-row tail. Rows 20 and 37
        // drive the accumulators through the rails, so the second block
        // and row 37 take the clamped chain; the first block and the other
        // tail rows take the unclamped one.
        let w = Tensor::from_fn(&[5, 12], |i| if i % 3 == 0 { 0 } else { (i as i32 % 5) - 1 });
        let x = Tensor::from_fn(&[40, 12], |i| match i / 12 {
            20 | 37 => i32::MAX / 2 - i as i32,
            _ => (i as i32 % 9) - 4,
        });
        let expect = dense_ref(&x, &w);
        assert!(expect.as_slice().iter().any(|&v| v == i32::MAX || v == i32::MIN));
        for sp in [SparseMat::from_dense(&w).unwrap(), SparseMat::from_dense_nm(&w, 2, 3).unwrap()]
        {
            for threads in [1, 3] {
                let got = with_threads(threads, || matmul_sparse_i(&x, &sp).unwrap());
                assert_eq!(got.as_slice(), expect.as_slice(), "threads={threads}");
            }
        }
    }

    #[test]
    fn validate_catches_corruption() {
        let w = Tensor::from_fn(&[2, 8], |i| if i % 2 == 0 { 1 } else { 0 });
        let mut sp = SparseMat::from_dense(&w).unwrap();
        sp.vals.pop();
        assert!(matches!(sp.validate(), Err(SparseError::Mask(_))));

        let mut sp = SparseMat::from_dense(&w).unwrap();
        if let SparseEncoding::Bitmask { words } = &mut sp.encoding {
            words[0] |= 1 << 63; // phantom extra bit
        }
        assert!(matches!(sp.validate(), Err(SparseError::Mask(_))));

        let nm = Tensor::from_vec(vec![1, 0, 2, 0, 0, 3, 0, 4], &[2, 4]).unwrap();
        let mut sp = SparseMat::from_dense_nm(&nm, 2, 4).unwrap();
        if let SparseEncoding::Nm { idx, .. } = &mut sp.encoding {
            idx[0] = 9; // offset outside its group
        }
        assert!(matches!(sp.validate(), Err(SparseError::NmConstraint(_))));

        let mut sp = SparseMat::from_dense_nm(&nm, 2, 4).unwrap();
        if let SparseEncoding::Nm { n, .. } = &mut sp.encoding {
            *n = 0;
        }
        assert!(matches!(sp.validate(), Err(SparseError::NmConstraint(_))));
    }

    #[test]
    fn kernel_rejects_invalid_structure() {
        let w = Tensor::from_fn(&[2, 4], |i| i as i32 % 2);
        let mut sp = SparseMat::from_dense(&w).unwrap();
        sp.row_ptr[1] = 99;
        let x = Tensor::<i32>::zeros(&[1, 4]);
        assert!(matmul_sparse_i(&x, &sp).is_err());
    }

    #[test]
    fn structural_sparsity_reflects_storage() {
        let w = Tensor::from_fn(&[4, 8], |i| if i % 4 == 0 { 1 } else { 0 });
        let sp = SparseMat::from_dense(&w).unwrap();
        assert!((sp.sparsity() - 0.75).abs() < 1e-6);
        // N:M stores padding, so structural sparsity is exactly 1 - n/m.
        let sp = SparseMat::from_dense_nm(&w, 2, 4).unwrap();
        assert!((sp.sparsity() - 0.5).abs() < 1e-6);
    }
}
