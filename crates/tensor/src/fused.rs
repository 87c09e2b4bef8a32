//! Fused integer kernels: the packed/sparse GEMM tile loops and a
//! row-oriented convolution, each with a caller-supplied row epilogue.
//!
//! Compiled execution plans (`t2c-core`'s `plan` module) collapse the
//! interpreter's `MAC → bias → requant → activation` node chain into a
//! single kernel call. The GEMM kernels here are the same cache-blocked
//! loops as [`crate::packed`] and [`crate::sparse`], except that as soon as
//! a run of accumulators is finished it is written to the caller's buffer
//! and handed to `epi(run, channels)`, which rewrites it in place with the
//! **narrow** requantized values while it is still in cache — the wide
//! `i32` accumulator block never materializes as a full tensor. A run is
//! one GEMM tile row (consecutive output channels starting at a panel
//! boundary, [`RowChannels::From`]), one conv output-channel row or one
//! block of sparse-GEMM rows of a single output channel
//! ([`RowChannels::One`]); handing the epilogue whole runs lets it resolve
//! per-channel constants once per run and run flat loops over the values.
//!
//! [`conv2d_fused_into`] works in the orientation of the interpreter's
//! [`crate::ops::conv2d_i32`]: for each `(image, group)` unit it unrolls
//! that group's `[cg·kh·kw, oh·ow]` patch block into caller-provided
//! scratch (a 1×1, stride-1, unpadded convolution reads the image itself,
//! which already is that block), then accumulates each output channel's
//! row as `w[o, p] · cols[p, :]` with `p` ascending and applies the
//! epilogue to the row as it is finished. No group is padded to a panel,
//! so a depthwise unit costs its `kh·kw` rows and nothing more.
//!
//! # Bit-identity
//!
//! The accumulation order is untouched: for any fixed output element the
//! reduction index still ascends with the same per-MAC saturation chain as
//! the unfused kernels (see the `packed`/`sparse` module docs and
//! `conv2d_i32`). Every entry point requires its epilogue to map each
//! value of a run to a pure function of that value and its output channel
//! — exactly what the interpreter's separate bias/requant/LUT passes
//! compute element-wise — so how the kernel cuts its output into runs
//! cannot change a bit. Workers own disjoint output units, so results are
//! bit-identical to the unfused chain at any thread count.
//!
//! The convolution carries the same saturation-free fast path as the
//! packed GEMM: [`ConvWeight`] stores each output channel's `Σ|w|`, and
//! when `Σ|w| · max|x|` over a unit's input fits in `i32`, no partial sum
//! of that channel's row can reach the rails, so the row runs plain `i32`
//! multiply-adds; otherwise it runs the clamped `i64` chain. Either way
//! the result is the same.
//!
//! # Instruction sets
//!
//! Each kernel's hot body — the GEMM row block, the conv `(image, group)`
//! unit and the sparse row block, with the epilogue calls inside them —
//! is written once, as an `#[inline(always)]` [`crate::isa`](mod@crate::isa) kernel, and
//! compiled twice: for AVX2 (8 `i32` lanes) and for the build target's
//! baseline (SSE2 on x86-64). Every call resolves [`crate::isa::isa`] on
//! the calling thread before it fans out, so a [`crate::isa::with_isa`]
//! override reaches its workers, and each worker runs that ISA's
//! instantiation. An epilogue that is itself `#[inline(always)]` (the
//! plans' compiled epilogue is) is compiled into both. The ISA changes
//! which instructions run, never the arithmetic: results are
//! bit-identical under either.
//!
//! # Trust contract
//!
//! These entry points check the shapes they are handed but — unlike the
//! public kernels — do **not** re-validate the packed/sparse weight
//! structure on every call: plans validate once at compile time, and
//! re-walking the weight per inference would defeat the point of the
//! fused path. A corrupted structure panics on an out-of-bounds index
//! (every index is bounds-checked; the crate's one `unsafe` call is the
//! ISA dispatch), it cannot read out of bounds.
//! [`ConvWeight`] keeps its fields private, so its `Σ|w|` bounds always
//! match its weights.
//!
//! Every entry point performs **zero heap allocations** when the resolved
//! worker count is 1: GEMM accumulator tiles live on the stack and the
//! convolution unrolls into the caller's scratch. When the convolution
//! fans out across threads, each worker allocates its own scratch.

use crate::isa::{dispatch, isa, Kernel};
use crate::ops::{matmul_i32_sat_into, require_rank, Conv2dSpec};
use crate::packed::{packed_tile, PackedMat, MR, PANEL};
use crate::parallel::{num_threads, par_units};
use crate::sparse::{spmm_into, SparseMat};
use crate::{Result, Tensor, TensorError};

/// The output channels of a finished run of accumulators handed to a fused
/// kernel's epilogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowChannels {
    /// Every value of the run belongs to this output channel (a conv
    /// output-channel row, or a block of sparse-GEMM rows).
    One(usize),
    /// Value `j` of the run belongs to output channel `start + j` (a GEMM
    /// tile row).
    From(usize),
}

/// Packed GEMM with fused epilogue: `[rows, w.k]` activations (`x`, row
/// major) × packed `[w.n, w.k]` weight into `out[i * w.n + j]`.
///
/// Each finished tile row — the accumulators of one activation row for
/// the up-to-[`PANEL`] consecutive output channels of one weight panel —
/// is written to `out` and then passed to `epi(run, RowChannels::From(c))`,
/// `c` the panel's first channel, which must rewrite every value as a pure
/// function of that value and its channel. Bit-identical to
/// `Tensor::matmul_i` against the unpacked, transposed weight followed by
/// that element-wise map, at any thread count and under either ISA.
/// Performs no heap allocation when the resolved worker count is 1.
///
/// # Errors
///
/// Returns an error if `x` or `out` disagree with `rows` and the packed
/// dimensions.
pub fn gemm_fused_into<E>(
    x: &[i32],
    rows: usize,
    w: &PackedMat,
    epi: &E,
    out: &mut [i32],
) -> Result<()>
where
    E: Fn(&mut [i32], RowChannels) + Sync,
{
    let (n, k) = (w.n, w.k);
    if x.len() != rows * k || out.len() != rows * n {
        return Err(TensorError::InvalidArgument(format!(
            "gemm_fused_into: {} activations / {} outputs do not form [{rows}, {k}] x [{n}, {k}]",
            x.len(),
            out.len()
        )));
    }
    let _t = t2c_obs::Timer::scoped("kernel.gemm_fused.time_ns");
    record_fused("kernel.gemm_fused", rows, k, n);
    let isa = isa();
    par_units(out, n.max(1), |row0, run| dispatch(isa, GemmRows { x, row0, w, epi, run }));
    Ok(())
}

/// The GEMM row block behind [`gemm_fused_into`]: output rows `row0..`
/// into `run`, tile by tile, each tile row handed to `epi` as soon as it
/// is copied out.
struct GemmRows<'a, E> {
    x: &'a [i32],
    row0: usize,
    w: &'a PackedMat,
    epi: &'a E,
    run: &'a mut [i32],
}

impl<E: Fn(&mut [i32], RowChannels)> Kernel for GemmRows<'_, E> {
    type Out = ();

    #[inline(always)]
    fn run(self) {
        let GemmRows { x, row0, w, epi, run } = self;
        let (n, k) = (w.n, w.k);
        let mut tile = [0i32; MR * PANEL];
        let nrows = run.len() / n.max(1);
        let mut r0 = 0usize;
        while r0 < nrows {
            let rblk = MR.min(nrows - r0);
            for (t, pdata) in w.data.chunks(k * PANEL).enumerate() {
                let cols = PANEL.min(n - t * PANEL);
                tile.fill(0);
                packed_tile(&x[(row0 + r0) * k..], rblk, k, pdata, w.panel_max[t], &mut tile);
                for r in 0..rblk {
                    let obase = (r0 + r) * n + t * PANEL;
                    let orow = &mut run[obase..obase + cols];
                    orow.copy_from_slice(&tile[r * PANEL..r * PANEL + cols]);
                    epi(orow, RowChannels::From(t * PANEL));
                }
            }
            r0 += rblk;
        }
    }
}

/// Sparse skip-zero matmul with fused epilogue: `[rows, w.cols]`
/// activations × compressed `[w.rows, w.cols]` weight into
/// `out[i * w.rows + j]`.
///
/// The kernel finishes one output channel `j` for a block of up to 16
/// activation rows at a time and passes those accumulators to
/// `epi(run, RowChannels::One(j))`, which must rewrite every value as a
/// pure function of that value and the channel; the results are then
/// scattered to their rows. `cols` must be `w.col_indices()` precomputed
/// by the caller (plans do this at compile time so the steady state
/// allocates nothing). Bit-identical to [`crate::sparse::matmul_sparse_i`]
/// followed by that element-wise map, at any thread count.
///
/// # Errors
///
/// Returns an error if `x`, `cols` or `out` disagree with `rows` and the
/// sparse dimensions.
pub fn spmm_fused_into<E>(
    x: &[i32],
    rows: usize,
    w: &SparseMat,
    cols: &[u32],
    epi: &E,
    out: &mut [i32],
) -> Result<()>
where
    E: Fn(&mut [i32], RowChannels) + Sync,
{
    let (n_out, k) = (w.rows, w.cols);
    if x.len() != rows * k || out.len() != rows * n_out {
        return Err(TensorError::InvalidArgument(format!(
            "spmm_fused_into: {} activations / {} outputs do not form [{rows}, {k}] x [{n_out}, {k}]",
            x.len(),
            out.len()
        )));
    }
    if cols.len() != w.vals.len() {
        return Err(TensorError::InvalidArgument(format!(
            "spmm_fused_into: {} column indices for {} stored values",
            cols.len(),
            w.vals.len()
        )));
    }
    let _t = t2c_obs::Timer::scoped("kernel.spmm_fused.time_ns");
    record_fused("kernel.spmm_fused", rows, k, n_out);
    spmm_into(x, w, cols, epi, out);
    Ok(())
}

/// A `[oc, cg, kh, kw]` convolution weight for [`conv2d_fused_into`]:
/// the dense `[oc, cg·kh·kw]` rows `IntOp::Conv2d` stores, plus each
/// output channel's `Σ|w|`, computed here once so the kernel can prove a
/// row saturation-free without re-reading the weight. The fields are
/// private: an under-reported bound would let the unclamped chain
/// overflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvWeight {
    oc: usize,
    cg: usize,
    kh: usize,
    kw: usize,
    groups: usize,
    data: Vec<i32>,
    abs_sum: Vec<u64>,
}

impl ConvWeight {
    /// Wraps a rank-4 `[oc, cg, kh, kw]` convolution weight with `groups`
    /// channel groups.
    ///
    /// # Errors
    ///
    /// Returns an error if `weight` is not rank 4, has a zero dimension,
    /// or `groups` does not divide `oc`.
    pub fn new(weight: &Tensor<i32>, groups: usize) -> Result<Self> {
        require_rank(weight, 4, "ConvWeight::new")?;
        let (oc, cg, kh, kw) = (weight.dim(0), weight.dim(1), weight.dim(2), weight.dim(3));
        if weight.numel() == 0 {
            return Err(TensorError::InvalidArgument(format!(
                "cannot run a degenerate [{oc}, {cg}, {kh}, {kw}] convolution weight"
            )));
        }
        if groups == 0 || !oc.is_multiple_of(groups) {
            return Err(TensorError::InvalidGeometry(format!(
                "groups {groups} must divide out-channels {oc}"
            )));
        }
        let data = weight.as_slice().to_vec();
        let abs_sum = data
            .chunks(cg * kh * kw)
            .map(|row| row.iter().map(|v| u64::from(v.unsigned_abs())).sum())
            .collect();
        Ok(ConvWeight { oc, cg, kh, kw, groups, data, abs_sum })
    }

    /// The reduction length of each output channel (`cg·kh·kw`).
    fn k(&self) -> usize {
        self.cg * self.kh * self.kw
    }

    /// Whether `spec` makes every unit's patch block the input image
    /// itself (a 1×1 kernel at stride 1 without padding).
    fn reads_input_directly(&self, spec: Conv2dSpec) -> bool {
        self.kh == 1 && self.kw == 1 && spec.stride == 1 && spec.padding == 0
    }

    /// Scratch words [`conv2d_fused_into`] needs on one worker for inputs
    /// of spatial extent `h × w`: one `[cg·kh·kw, oh·ow]` patch block, or
    /// none when the kernel reads the image directly. Independent of the
    /// batch size.
    ///
    /// # Errors
    ///
    /// Returns an error if the kernel does not fit the padded input.
    pub fn scratch_len(&self, h: usize, w: usize, spec: Conv2dSpec) -> Result<usize> {
        let l = spec.out_extent(h, self.kh)? * spec.out_extent(w, self.kw)?;
        Ok(if self.reads_input_directly(spec) { 0 } else { self.k() * l })
    }
}

/// 2-D convolution with fused epilogue: `x` (an `[N,C,H,W]` image batch,
/// row-major, shape `x_dims`) ⊛ `w` into `out` in `[N,OC,OH,OW]` order.
///
/// Each finished `[OH·OW]` row of output channel `o` of one image is
/// passed to `epi(row, RowChannels::One(o))`, which must rewrite every
/// value as a pure function of that value and the channel. `scratch` must
/// hold at least [`ConvWeight::scratch_len`] words; its contents are
/// overwritten. Bit-identical to [`crate::ops::conv2d_i32`] followed by
/// that element-wise map, at any thread count. Performs no heap
/// allocation when the resolved worker count is 1.
///
/// # Errors
///
/// Returns an error on shape/geometry mismatches, a short `scratch`, or
/// an `out` of the wrong length.
pub fn conv2d_fused_into<E>(
    x: &[i32],
    x_dims: [usize; 4],
    w: &ConvWeight,
    spec: Conv2dSpec,
    epi: &E,
    scratch: &mut [i32],
    out: &mut [i32],
) -> Result<()>
where
    E: Fn(&mut [i32], RowChannels) + Sync,
{
    let [n, c, h, wd] = x_dims;
    let (g, cg, kh, kw) = (w.groups, w.cg, w.kh, w.kw);
    if x.len() != x_dims.iter().product::<usize>() || spec.groups != g || c != cg * g {
        return Err(TensorError::ShapeMismatch {
            lhs: x_dims.to_vec(),
            rhs: vec![w.oc, cg, kh, kw],
            op: "conv2d_fused_into",
        });
    }
    let (oh, ow) = (spec.out_extent(h, kh)?, spec.out_extent(wd, kw)?);
    let (l, k, ocg) = (oh * ow, w.k(), w.oc / g);
    let need = w.scratch_len(h, wd, spec)?;
    if out.len() != n * w.oc * l || scratch.len() < need {
        return Err(TensorError::InvalidArgument(format!(
            "conv2d_fused_into: {} outputs / {} scratch words for [{n}, {}, {oh}, {ow}] \
             needing {need} scratch words",
            out.len(),
            scratch.len(),
            w.oc
        )));
    }
    let _t = t2c_obs::Timer::scoped("kernel.conv_fused.time_ns");
    record_fused("kernel.conv_fused", n * l, k, w.oc);
    let job = ConvUnits { x, w, spec, chw: [c, h, wd], ohw: [oh, ow], epi };
    let isa = isa();
    if num_threads().min(n * g) <= 1 {
        dispatch(isa, ConvRun { job: &job, u0: 0, run: out, scratch });
    } else {
        par_units(out, ocg * l, |u0, run| {
            let mut own = vec![0i32; need];
            dispatch(isa, ConvRun { job: &job, u0, run, scratch: &mut own });
        });
    }
    Ok(())
}

/// One [`conv2d_fused_into`] call's operands, shared by its workers.
struct ConvUnits<'a, E> {
    x: &'a [i32],
    w: &'a ConvWeight,
    spec: Conv2dSpec,
    /// Input channels and spatial extent of one image.
    chw: [usize; 3],
    /// Output spatial extent.
    ohw: [usize; 2],
    epi: &'a E,
}

/// The conv `(image, group)` units `u0..` whose outputs tile `run`: each
/// unrolls its patch block into `scratch` (or reads the image in place),
/// accumulates every output-channel row and hands it to the epilogue.
/// Unit `u` covers `out[img·oc·l + grp·ocg·l ..][..ocg·l]`, contiguous
/// because the layout is image-major, then group.
struct ConvRun<'a, E> {
    job: &'a ConvUnits<'a, E>,
    u0: usize,
    run: &'a mut [i32],
    scratch: &'a mut [i32],
}

impl<E: Fn(&mut [i32], RowChannels)> Kernel for ConvRun<'_, E> {
    type Out = ();

    #[inline(always)]
    fn run(self) {
        let ConvRun { job, u0, run, scratch } = self;
        let ConvUnits { x, w, spec, chw: [c, h, wd], ohw: [oh, ow], epi } = *job;
        let (g, cg, k, l) = (w.groups, w.cg, w.k(), oh * ow);
        let ocg = w.oc / g;
        let direct = w.reads_input_directly(spec);
        for (i, ounit) in run.chunks_mut(ocg * l).enumerate() {
            let (img, grp) = ((u0 + i) / g, (u0 + i) % g);
            let xin = &x[(img * c + grp * cg) * h * wd..][..cg * h * wd];
            let cols: &[i32] = if direct {
                xin
            } else {
                let cols = &mut scratch[..k * l];
                unroll(xin, [cg, h, wd], [w.kh, w.kw], [oh, ow], spec, cols);
                cols
            };
            // Patch entries are input values or padding zeros, so the
            // input's max |x| bounds every one of them.
            let xmax = xin.iter().map(|v| v.unsigned_abs()).max().unwrap_or(0);
            for (oi, orow) in ounit.chunks_mut(l).enumerate() {
                let o = grp * ocg + oi;
                conv_row(&w.data[o * k..(o + 1) * k], w.abs_sum[o], xmax, cols, orow);
                epi(orow, RowChannels::One(o));
            }
        }
    }
}

/// Unrolls one image's `[cg, h, w]` group into its `[cg·kh·kw, oh·ow]`
/// patch block — the values [`crate::ops::im2col`] produces for it,
/// padding zeros included (`cols` may hold stale data).
#[inline(always)]
fn unroll(
    xin: &[i32],
    [cg, h, w]: [usize; 3],
    [kh, kw]: [usize; 2],
    [oh, ow]: [usize; 2],
    spec: Conv2dSpec,
    cols: &mut [i32],
) {
    let (stride, pad) = (spec.stride, spec.padding);
    // Output columns whose tap `oj·stride + kj − pad` lands inside
    // `[0, extent)`; the rest read padding.
    let inside = |kj: usize, extent: usize, outs: usize| {
        let lo = pad.saturating_sub(kj).div_ceil(stride).min(outs);
        let hi = (extent + pad).saturating_sub(kj).div_ceil(stride).clamp(lo, outs);
        (lo, hi)
    };
    let mut rows = cols.chunks_exact_mut(oh * ow);
    for ch in 0..cg {
        let plane = &xin[ch * h * w..(ch + 1) * h * w];
        for ki in 0..kh {
            let (ilo, ihi) = inside(ki, h, oh);
            for kj in 0..kw {
                let (jlo, jhi) = inside(kj, w, ow);
                let row = rows.next().expect("cols holds cg·kh·kw rows");
                if ilo == ihi || jlo == jhi {
                    row.fill(0); // every tap of this kernel offset is padding
                    continue;
                }
                row[..ilo * ow].fill(0);
                row[ihi * ow..].fill(0);
                for oi in ilo..ihi {
                    let orow = &mut row[oi * ow..(oi + 1) * ow];
                    let xrow = &plane[(oi * stride + ki - pad) * w..][..w];
                    orow[..jlo].fill(0);
                    orow[jhi..].fill(0);
                    let first = jlo * stride + kj - pad;
                    if stride == 1 {
                        orow[jlo..jhi].copy_from_slice(&xrow[first..first + jhi - jlo]);
                    } else {
                        for (v, &xv) in
                            orow[jlo..jhi].iter_mut().zip(xrow[first..].iter().step_by(stride))
                        {
                            *v = xv;
                        }
                    }
                }
            }
        }
    }
}

/// Accumulates one output channel's row: `orow[j] = Σ_p wrow[p] ·
/// cols[p, j]` with `p` ascending and the `i64 → i32` clamp after every
/// MAC — the `m = 1` case of the saturating product that
/// [`crate::ops::conv2d_i32`] runs, called directly. When `wsum · xmax` — `Σ|w|` times a bound
/// on every `|cols|` entry — fits in `i32`, no partial sum can reach the
/// rails, so the row runs the unclamped chain (same result).
#[inline(always)]
fn conv_row(wrow: &[i32], wsum: u64, xmax: u32, cols: &[i32], orow: &mut [i32]) {
    let l = orow.len();
    orow.fill(0);
    if u128::from(wsum) * u128::from(xmax) <= i32::MAX as u128 {
        for (&wv, crow) in wrow.iter().zip(cols.chunks_exact(l)) {
            if wv != 0 {
                for (o, &cv) in orow.iter_mut().zip(crow) {
                    *o += wv * cv;
                }
            }
        }
        return;
    }
    matmul_i32_sat_into(wrow, cols, orow, 1, wrow.len(), l);
}

/// Records call/MAC counters for a fused product. One branch when
/// profiling is disabled.
fn record_fused(op: &str, m: usize, k: usize, n: usize) {
    if t2c_obs::enabled() {
        let (m, k, n) = (m as u64, k as u64, n as u64);
        t2c_obs::counter_add(&format!("{op}.calls"), 1);
        t2c_obs::counter_add(&format!("{op}.macs"), m * k * n);
        t2c_obs::counter_add(&format!("{op}.elements"), m * n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{last_dispatched, with_isa, Isa};
    use crate::parallel::with_threads;
    use crate::sparse::matmul_sparse_i;
    use crate::Tensor;
    use std::sync::Mutex;

    /// Every (ISA, thread count) pair to check: the baseline and the
    /// host's detected ISA, at each of `threads`.
    fn sweep<const N: usize>(threads: [usize; N]) -> impl Iterator<Item = (Isa, usize)> {
        [Isa::Scalar, isa()].into_iter().flat_map(move |i| threads.map(|t| (i, t)))
    }

    /// Runs `f` with the kernels limited to `isa` on `threads` workers.
    fn on<R>(isa: Isa, threads: usize, f: impl FnOnce() -> R) -> R {
        with_isa(isa, || with_threads(threads, f))
    }

    fn pseudo_i(dims: &[usize], seed: u64, span: i64) -> Tensor<i32> {
        Tensor::from_fn(dims, |i| {
            let h = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
            ((h >> 33) as i64 % span - span / 2) as i32
        })
    }

    /// A channel-dependent element map exercising bias, shift and clamp.
    fn elem(acc: i32, ch: usize) -> i32 {
        let v = i64::from(acc) + (ch as i64 % 7) - 3;
        let v = (v + 8) >> 4;
        v.clamp(-128, 127) as i32
    }

    /// [`elem`] as a row epilogue, resolving each value's channel from the
    /// run's [`RowChannels`].
    fn epi(run: &mut [i32], chans: RowChannels) {
        for (j, v) in run.iter_mut().enumerate() {
            let ch = match chans {
                RowChannels::One(c) => c,
                RowChannels::From(c0) => c0 + j,
            };
            *v = elem(*v, ch);
        }
    }

    fn identity(_: &mut [i32], _: RowChannels) {}

    #[test]
    fn fused_gemm_matches_unfused_plus_map() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 2), (8, 16, 64), (9, 17, 65), (23, 40, 130)] {
            let x = pseudo_i(&[m, k], 11, 255);
            let w = pseudo_i(&[n, k], 13, 255);
            let packed = PackedMat::from_weight(&w).unwrap();
            let expect: Vec<i32> = x
                .matmul_i(&w.transpose().unwrap())
                .unwrap()
                .as_slice()
                .iter()
                .enumerate()
                .map(|(i, &v)| elem(v, i % n))
                .collect();
            for (isa, threads) in sweep([1, 2, 4]) {
                let mut out = vec![0i32; m * n];
                on(isa, threads, || {
                    gemm_fused_into(x.as_slice(), m, &packed, &epi, &mut out).unwrap();
                });
                assert_eq!(out, expect, "m={m} k={k} n={n} {isa} threads={threads}");
            }
        }
    }

    #[test]
    fn fused_gemm_saturates_identically_at_the_rails() {
        let x = Tensor::from_fn(&[4, 9], |i| match i % 4 {
            0 => i32::MAX,
            1 => 0,
            2 => i32::MIN,
            _ => (i as i32 % 89) - 44,
        });
        let w = Tensor::from_fn(&[70, 9], |i| match i % 3 {
            0 => i32::MAX / 2,
            1 => 0,
            _ => -(i as i32 % 97),
        });
        let packed = PackedMat::from_weight(&w).unwrap();
        let expect: Vec<i32> = x
            .matmul_i(&w.transpose().unwrap())
            .unwrap()
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &v)| elem(v, i % 70))
            .collect();
        for (isa, threads) in sweep([1, 4]) {
            let mut out = vec![0i32; 4 * 70];
            on(isa, threads, || {
                gemm_fused_into(x.as_slice(), 4, &packed, &epi, &mut out).unwrap();
            });
            assert_eq!(out, expect, "{isa} threads={threads}");
        }
    }

    #[test]
    fn fused_spmm_matches_unfused_plus_map() {
        for (m, k, n) in [(1, 4, 3), (17, 33, 20), (32, 64, 48)] {
            let x = pseudo_i(&[m, k], 7, 255);
            let w = Tensor::from_fn(&[n, k], |i| if i % 3 == 0 { (i as i32 % 11) - 5 } else { 0 });
            let sp = SparseMat::from_dense(&w).unwrap();
            let cols = sp.col_indices();
            let expect: Vec<i32> = matmul_sparse_i(&x, &sp)
                .unwrap()
                .as_slice()
                .iter()
                .enumerate()
                .map(|(i, &v)| elem(v, i % n))
                .collect();
            for (isa, threads) in sweep([1, 2, 4]) {
                let mut out = vec![0i32; m * n];
                on(isa, threads, || {
                    spmm_fused_into(x.as_slice(), m, &sp, &cols, &epi, &mut out).unwrap();
                });
                assert_eq!(out, expect, "m={m} k={k} n={n} {isa} threads={threads}");
            }
        }
    }

    #[test]
    fn fused_conv_matches_unfused_plus_map() {
        use crate::ops::conv2d_i32;
        // Dense, strided, depthwise, 1×1 in place and 1×1 strided/padded
        // (which must unroll), at int8 range and at magnitudes that drive
        // the clamped chain.
        let cases = [
            ([2, 3, 7, 7], [5, 3, 3, 3], Conv2dSpec::new(1, 1)),
            ([1, 2, 8, 8], [3, 2, 3, 3], Conv2dSpec::new(2, 1)),
            ([2, 4, 6, 6], [4, 1, 3, 3], Conv2dSpec::new(1, 1).with_groups(4)),
            ([2, 6, 5, 5], [9, 6, 1, 1], Conv2dSpec::new(1, 0)),
            ([1, 4, 6, 6], [4, 2, 1, 1], Conv2dSpec::new(2, 1).with_groups(2)),
            // Kernels wider than the image: whole kernel rows and columns
            // of taps land in the padding.
            ([2, 2, 1, 1], [3, 2, 3, 3], Conv2dSpec::new(1, 1)),
            ([1, 1, 1, 2], [2, 1, 5, 5], Conv2dSpec::new(1, 2)),
            ([1, 2, 2, 1], [2, 1, 5, 3], Conv2dSpec::new(2, 2).with_groups(2)),
        ];
        for (xd, wdim, spec) in cases {
            for span in [255, 1 << 30] {
                let x = pseudo_i(&xd, 31, span);
                let w = pseudo_i(&wdim, 37, span);
                let plain = conv2d_i32(&x, &w, None, spec).unwrap();
                let (oc, l) = (plain.dim(1), plain.dim(2) * plain.dim(3));
                let expect: Vec<i32> = plain
                    .as_slice()
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| elem(v, (i / l) % oc))
                    .collect();
                let weight = ConvWeight::new(&w, spec.groups).unwrap();
                let need = weight.scratch_len(xd[2], xd[3], spec).unwrap();
                assert_eq!(need == 0, wdim[2] == 1 && spec.stride == 1 && spec.padding == 0);
                for (isa, threads) in sweep([1, 3]) {
                    let mut out = vec![0i32; plain.numel()];
                    // Stale scratch must not leak into the patch block.
                    let mut scratch = vec![-7i32; need];
                    on(isa, threads, || {
                        conv2d_fused_into(
                            x.as_slice(),
                            [xd[0], xd[1], xd[2], xd[3]],
                            &weight,
                            spec,
                            &epi,
                            &mut scratch,
                            &mut out,
                        )
                        .unwrap();
                    });
                    assert_eq!(
                        out, expect,
                        "x={xd:?} w={wdim:?} span={span} {isa} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_calling_threads_isa_reaches_every_worker() {
        // 16 rows over 2 workers: each worker records, from inside its
        // epilogue, the ISA its dispatch resolved on that thread.
        let (x, w) = (pseudo_i(&[16, 9], 1, 255), pseudo_i(&[5, 9], 2, 255));
        let packed = PackedMat::from_weight(&w).unwrap();
        for want in [Isa::Scalar, isa()] {
            let seen = Mutex::new(Vec::new());
            let record = |_: &mut [i32], _| {
                let me = (std::thread::current().id(), last_dispatched());
                seen.lock().unwrap().push(me);
            };
            let mut out = vec![0i32; 16 * 5];
            on(want, 2, || gemm_fused_into(x.as_slice(), 16, &packed, &record, &mut out)).unwrap();
            let seen = seen.into_inner().unwrap();
            let mut workers: Vec<_> = seen.iter().map(|(id, _)| *id).collect();
            workers.sort_by_key(|id| format!("{id:?}"));
            workers.dedup();
            assert_eq!(workers.len(), 2, "two workers ran");
            assert!(!workers.contains(&std::thread::current().id()), "workers are spawned");
            assert!(seen.iter().all(|(_, isa)| *isa == Some(want)), "{want}: {seen:?}");
        }
    }

    #[test]
    fn fused_entry_points_reject_bad_shapes() {
        let w = pseudo_i(&[8, 5], 1, 10);
        let packed = PackedMat::from_weight(&w).unwrap();
        let mut out = vec![0i32; 16];
        // Activation length disagrees with rows * k.
        assert!(gemm_fused_into(&[0i32; 9], 2, &packed, &identity, &mut out).is_err());
        // Output length disagrees with rows * n.
        assert!(gemm_fused_into(&[0i32; 10], 2, &packed, &identity, &mut [0i32; 3]).is_err());

        let sp = SparseMat::from_dense(&w).unwrap();
        let cols = sp.col_indices();
        assert!(spmm_fused_into(&[0i32; 9], 2, &sp, &cols, &identity, &mut out).is_err());
        assert!(spmm_fused_into(&[0i32; 10], 2, &sp, &cols[1..], &identity, &mut out).is_err());

        let cw = ConvWeight::new(&pseudo_i(&[4, 2, 3, 3], 1, 20), 2).unwrap();
        let x = [0i32; 4 * 6 * 6];
        let spec = Conv2dSpec::new(1, 1).with_groups(2);
        let mut scratch = vec![0i32; cw.scratch_len(6, 6, spec).unwrap()];
        let mut out = vec![0i32; 4 * 6 * 6];
        let run = |dims, spec, scratch: &mut [i32], out: &mut [i32]| {
            conv2d_fused_into(&x, dims, &cw, spec, &identity, scratch, out)
        };
        run([1, 4, 6, 6], spec, &mut scratch, &mut out).unwrap();
        // Groups disagree with the weight.
        assert!(run([1, 4, 6, 6], Conv2dSpec::new(1, 1), &mut scratch, &mut out).is_err());
        // Input length disagrees with its dims.
        assert!(run([2, 4, 6, 6], spec, &mut scratch, &mut out).is_err());
        // Scratch too short, output too short.
        assert!(run([1, 4, 6, 6], spec, &mut scratch[1..], &mut out).is_err());
        assert!(run([1, 4, 6, 6], spec, &mut scratch, &mut out[1..]).is_err());
        assert!(ConvWeight::new(&pseudo_i(&[4, 2, 3, 3], 1, 20), 3).is_err());
        assert!(ConvWeight::new(&Tensor::zeros(&[0, 2, 3, 3]), 1).is_err());
    }
}
