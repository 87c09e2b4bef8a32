//! The `.t2cm` binary integer-model format.
//!
//! Layout (little endian):
//!
//! ```text
//! magic "T2CM" | version u16 | node_count u32
//! per node: name | inputs | op_tag u8 | payload
//! trailer: fnv1a64 checksum of everything before it
//! ```

use bytes::{Buf, BufMut, BytesMut};
use t2c_core::intmodel::{IntNode, IntOp, LayerNormInt, LinearWeight, Src};
use t2c_core::lut::{GeluLut, SoftmaxLut};
use t2c_core::{FixedPointFormat, FixedScalar, IntModel, MulQuant, QuantSpec};
use t2c_tensor::ops::{Conv2dSpec, PoolSpec};
use t2c_tensor::{SparseEncoding, SparseMat, Tensor};

use crate::{ExportError, Result};

const MAGIC: &[u8; 4] = b"T2CM";
const VERSION: u16 = 1;
const SRC_INPUT: u32 = u32::MAX;

/// Serializes an [`IntModel`] into `.t2cm` bytes.
pub fn write_intmodel(model: &IntModel) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(model.nodes.len() as u32);
    for node in &model.nodes {
        put_str(&mut buf, &node.name);
        buf.put_u8(node.inputs.len() as u8);
        for src in &node.inputs {
            buf.put_u32_le(match src {
                Src::Input => SRC_INPUT,
                Src::Node(i) => *i as u32,
            });
        }
        put_op(&mut buf, &node.op);
    }
    let checksum = fnv1a64(&buf);
    buf.put_u64_le(checksum);
    buf.to_vec()
}

/// Deserializes `.t2cm` bytes back into an [`IntModel`].
///
/// # Errors
///
/// Returns an error on bad magic, unsupported version, corruption
/// (checksum mismatch) or malformed payloads.
pub fn read_intmodel(bytes: &[u8]) -> Result<IntModel> {
    if bytes.len() < 4 + 2 + 4 + 8 {
        return Err(ExportError::Malformed("file too short".into()));
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(
        trailer.try_into().map_err(|_| ExportError::Malformed("missing 8-byte trailer".into()))?,
    );
    let computed = fnv1a64(payload);
    if stored != computed {
        return Err(ExportError::ChecksumMismatch { stored, computed });
    }
    let mut buf = payload;
    let mut magic = [0u8; 4];
    take(&mut buf, 4)?.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(ExportError::BadMagic);
    }
    let version = take(&mut buf, 2)?.get_u16_le();
    if version != VERSION {
        return Err(ExportError::UnsupportedVersion(version));
    }
    let count = take(&mut buf, 4)?.get_u32_le() as usize;
    if count > buf.len() {
        return Err(ExportError::Malformed(format!(
            "node count {count} exceeds remaining payload"
        )));
    }
    let mut model = IntModel::new();
    for node_idx in 0..count {
        let name = get_str(&mut buf)?;
        let n_inputs = take(&mut buf, 1)?.get_u8() as usize;
        let mut inputs = Vec::with_capacity(n_inputs);
        for _ in 0..n_inputs {
            let raw = take(&mut buf, 4)?.get_u32_le();
            inputs.push(if raw == SRC_INPUT {
                Src::Input
            } else {
                // Nodes may only reference earlier nodes; a forward or
                // out-of-range reference would panic during execution.
                if raw as usize >= node_idx {
                    return Err(ExportError::Malformed(format!(
                        "node {node_idx} references node {raw}, which is not an earlier node"
                    )));
                }
                Src::Node(raw as usize)
            });
        }
        let op = get_op(&mut buf)?;
        model.nodes.push(IntNode { op, inputs, name });
    }
    if !buf.is_empty() {
        return Err(ExportError::Malformed(format!("{} trailing bytes", buf.len())));
    }
    Ok(model)
}

// --------------------------------------------------------------------------
// primitives

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if buf.len() < n {
        return Err(ExportError::Malformed(format!("expected {n} bytes, {} left", buf.len())));
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// The FNV-1a 64-bit hash used as the `.t2cm` trailer checksum — public so
/// external tooling (and tests) can verify or re-stamp a file's trailer.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u16_le(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String> {
    let len = take(buf, 2)?.get_u16_le() as usize;
    let raw = take(buf, len)?;
    String::from_utf8(raw.to_vec()).map_err(|_| ExportError::Malformed("bad utf8 name".into()))
}

fn put_spec(buf: &mut BytesMut, s: QuantSpec) {
    buf.put_u8(s.bits);
    buf.put_u8(u8::from(s.signed));
}

fn get_spec(buf: &mut &[u8]) -> Result<QuantSpec> {
    let bits = take(buf, 1)?.get_u8();
    let signed = take(buf, 1)?.get_u8() != 0;
    if bits == 0 || bits > 16 {
        return Err(ExportError::Malformed(format!("invalid bit width {bits}")));
    }
    Ok(QuantSpec { bits, signed })
}

fn put_format(buf: &mut BytesMut, f: FixedPointFormat) {
    buf.put_u8(f.int_bits);
    buf.put_u8(f.frac_bits);
}

fn get_format(buf: &mut &[u8]) -> Result<FixedPointFormat> {
    Ok(FixedPointFormat { int_bits: take(buf, 1)?.get_u8(), frac_bits: take(buf, 1)?.get_u8() })
}

fn put_fixed(buf: &mut BytesMut, f: FixedScalar) {
    buf.put_i32_le(f.raw);
    put_format(buf, f.format);
}

fn get_fixed(buf: &mut &[u8]) -> Result<FixedScalar> {
    Ok(FixedScalar { raw: take(buf, 4)?.get_i32_le(), format: get_format(buf)? })
}

fn put_tensor_i32(buf: &mut BytesMut, t: &Tensor<i32>) {
    buf.put_u8(t.rank() as u8);
    for &d in t.dims() {
        buf.put_u32_le(d as u32);
    }
    for &v in t.as_slice() {
        buf.put_i32_le(v);
    }
}

fn get_tensor_i32(buf: &mut &[u8]) -> Result<Tensor<i32>> {
    let rank = take(buf, 1)?.get_u8() as usize;
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        dims.push(take(buf, 4)?.get_u32_le() as usize);
    }
    let numel: usize = dims
        .iter()
        .try_fold(1usize, |a, &d| a.checked_mul(d))
        .ok_or_else(|| ExportError::Malformed("tensor volume overflows".into()))?;
    // Guard the allocation against corrupt headers: the payload must
    // actually contain this many words.
    if buf.len() < numel.saturating_mul(4) {
        return Err(ExportError::Malformed(format!(
            "tensor claims {numel} elements but only {} bytes remain",
            buf.len()
        )));
    }
    let mut data = Vec::with_capacity(numel);
    for _ in 0..numel {
        data.push(take(buf, 4)?.get_i32_le());
    }
    Ok(Tensor::from_vec(data, &dims)?)
}

fn put_i64s(buf: &mut BytesMut, v: &[i64]) {
    buf.put_u32_le(v.len() as u32);
    for &x in v {
        buf.put_i64_le(x);
    }
}

fn get_i64s(buf: &mut &[u8]) -> Result<Vec<i64>> {
    let n = take(buf, 4)?.get_u32_le() as usize;
    if buf.len() < n.saturating_mul(8) {
        return Err(ExportError::Malformed(format!(
            "i64 vector claims {n} entries but only {} bytes remain",
            buf.len()
        )));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(take(buf, 8)?.get_i64_le());
    }
    Ok(out)
}

fn put_i32s(buf: &mut BytesMut, v: &[i32]) {
    buf.put_u32_le(v.len() as u32);
    for &x in v {
        buf.put_i32_le(x);
    }
}

fn get_i32s(buf: &mut &[u8]) -> Result<Vec<i32>> {
    let n = take(buf, 4)?.get_u32_le() as usize;
    if buf.len() < n.saturating_mul(4) {
        return Err(ExportError::Malformed(format!(
            "i32 vector claims {n} entries but only {} bytes remain",
            buf.len()
        )));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(take(buf, 4)?.get_i32_le());
    }
    Ok(out)
}

fn put_mulquant(buf: &mut BytesMut, m: &MulQuant) {
    put_i32s(buf, &m.scale_raw);
    put_i64s(buf, &m.bias_raw);
    put_format(buf, m.format);
    put_spec(buf, m.out_spec);
}

fn get_mulquant(buf: &mut &[u8]) -> Result<MulQuant> {
    Ok(MulQuant {
        scale_raw: get_i32s(buf)?,
        bias_raw: get_i64s(buf)?,
        format: get_format(buf)?,
        out_spec: get_spec(buf)?,
    })
}

fn put_conv_spec(buf: &mut BytesMut, s: Conv2dSpec) {
    buf.put_u32_le(s.stride as u32);
    buf.put_u32_le(s.padding as u32);
    buf.put_u32_le(s.groups as u32);
}

fn get_conv_spec(buf: &mut &[u8]) -> Result<Conv2dSpec> {
    Ok(Conv2dSpec {
        stride: take(buf, 4)?.get_u32_le() as usize,
        padding: take(buf, 4)?.get_u32_le() as usize,
        groups: take(buf, 4)?.get_u32_le() as usize,
    })
}

fn put_opt_bias(buf: &mut BytesMut, b: &Option<Vec<i64>>) {
    match b {
        Some(v) => {
            buf.put_u8(1);
            put_i64s(buf, v);
        }
        None => buf.put_u8(0),
    }
}

fn get_opt_bias(buf: &mut &[u8]) -> Result<Option<Vec<i64>>> {
    Ok(match take(buf, 1)?.get_u8() {
        0 => None,
        _ => Some(get_i64s(buf)?),
    })
}

// --------------------------------------------------------------------------
// ops

fn put_op(buf: &mut BytesMut, op: &IntOp) {
    match op {
        IntOp::Quantize { scale, spec } => {
            buf.put_u8(0);
            buf.put_f32_le(*scale);
            put_spec(buf, *spec);
        }
        IntOp::Conv2d { weight, bias, spec, requant, relu, weight_spec } => {
            buf.put_u8(1);
            put_tensor_i32(buf, weight);
            put_opt_bias(buf, bias);
            put_conv_spec(buf, *spec);
            put_mulquant(buf, requant);
            buf.put_u8(u8::from(*relu));
            put_spec(buf, *weight_spec);
        }
        IntOp::Linear { weight, bias, requant, relu, weight_spec } => {
            match weight {
                LinearWeight::Dense(w) => {
                    buf.put_u8(2);
                    put_tensor_i32(buf, w);
                }
                LinearWeight::Sparse { mat, declared_sparsity } => {
                    buf.put_u8(18);
                    put_sparse_mat(buf, mat);
                    buf.put_f32_le(*declared_sparsity);
                }
            }
            put_opt_bias(buf, bias);
            match requant {
                Some(r) => {
                    buf.put_u8(1);
                    put_mulquant(buf, r);
                }
                None => buf.put_u8(0),
            }
            buf.put_u8(u8::from(*relu));
            put_spec(buf, *weight_spec);
        }
        IntOp::AddRequant { m_a, m_b, out_spec, relu } => {
            buf.put_u8(3);
            put_fixed(buf, *m_a);
            put_fixed(buf, *m_b);
            put_spec(buf, *out_spec);
            buf.put_u8(u8::from(*relu));
        }
        IntOp::AddConstRequant { value, m, out_spec } => {
            buf.put_u8(4);
            put_tensor_i32(buf, value);
            put_fixed(buf, *m);
            put_spec(buf, *out_spec);
        }
        IntOp::MaxPool2d { spec } => {
            buf.put_u8(5);
            buf.put_u32_le(spec.kernel as u32);
            buf.put_u32_le(spec.stride as u32);
            buf.put_u32_le(spec.padding as u32);
        }
        IntOp::GlobalAvgPool { frac_bits } => {
            buf.put_u8(6);
            buf.put_u8(*frac_bits);
        }
        IntOp::Flatten => buf.put_u8(7),
        IntOp::PatchToTokens => buf.put_u8(8),
        IntOp::ConcatToken { token } => {
            buf.put_u8(9);
            put_tensor_i32(buf, token);
        }
        IntOp::TakeToken { index } => {
            buf.put_u8(10);
            buf.put_u32_le(*index as u32);
        }
        IntOp::SplitHeads { heads } => {
            buf.put_u8(11);
            buf.put_u32_le(*heads as u32);
        }
        IntOp::MergeHeads { heads } => {
            buf.put_u8(12);
            buf.put_u32_le(*heads as u32);
        }
        IntOp::BmmRequant { transpose_rhs, m, out_spec } => {
            buf.put_u8(13);
            buf.put_u8(u8::from(*transpose_rhs));
            put_fixed(buf, *m);
            put_spec(buf, *out_spec);
        }
        IntOp::LayerNorm(ln) => {
            buf.put_u8(14);
            put_i32s(buf, &ln.gamma_m);
            put_i64s(buf, &ln.beta_b);
            buf.put_u8(ln.frac);
            buf.put_u8(ln.shift);
            put_spec(buf, ln.out_spec);
        }
        IntOp::SoftmaxLut(l) => {
            buf.put_u8(15);
            put_i32s(buf, &l.table);
            buf.put_f32_le(l.in_scale);
            put_spec(buf, l.out_spec);
            buf.put_u8(l.frac_bits);
        }
        IntOp::Requant { m, out_spec } => {
            buf.put_u8(17);
            put_fixed(buf, *m);
            put_spec(buf, *out_spec);
        }
        IntOp::GeluLut(l) => {
            buf.put_u8(16);
            put_i32s(buf, &l.table);
            put_spec(buf, l.in_spec);
            buf.put_f32_le(l.in_scale);
            put_spec(buf, l.out_spec);
            buf.put_f32_le(l.out_scale);
        }
    }
}

fn put_sparse_mat(buf: &mut BytesMut, w: &SparseMat) {
    buf.put_u32_le(w.rows as u32);
    buf.put_u32_le(w.cols as u32);
    match &w.encoding {
        SparseEncoding::Bitmask { words } => {
            buf.put_u8(0);
            buf.put_u32_le(words.len() as u32);
            for &word in words {
                buf.put_u64_le(word);
            }
        }
        SparseEncoding::Nm { n, m, idx } => {
            buf.put_u8(1);
            buf.put_u8(*n);
            buf.put_u8(*m);
            buf.put_u32_le(idx.len() as u32);
            buf.put_slice(idx);
        }
    }
    buf.put_u32_le(w.row_ptr.len() as u32);
    for &p in &w.row_ptr {
        buf.put_u32_le(p);
    }
    put_i32s(buf, &w.vals);
}

/// Reads a compressed sparse matrix and structurally validates it, so a
/// corrupt-but-checksummed payload (e.g. written by buggy tooling) cannot
/// reach the kernels.
fn get_sparse_mat(buf: &mut &[u8]) -> Result<SparseMat> {
    let rows = take(buf, 4)?.get_u32_le() as usize;
    let cols = take(buf, 4)?.get_u32_le() as usize;
    let encoding = match take(buf, 1)?.get_u8() {
        0 => {
            let n = take(buf, 4)?.get_u32_le() as usize;
            if buf.len() < n.saturating_mul(8) {
                return Err(ExportError::Malformed(format!(
                    "bitmask claims {n} words but only {} bytes remain",
                    buf.len()
                )));
            }
            let mut words = Vec::with_capacity(n);
            for _ in 0..n {
                words.push(take(buf, 8)?.get_u64_le());
            }
            SparseEncoding::Bitmask { words }
        }
        1 => {
            let n = take(buf, 1)?.get_u8();
            let m = take(buf, 1)?.get_u8();
            let len = take(buf, 4)?.get_u32_le() as usize;
            SparseEncoding::Nm { n, m, idx: take(buf, len)?.to_vec() }
        }
        other => {
            return Err(ExportError::Malformed(format!("unknown sparse encoding tag {other}")))
        }
    };
    let n_ptr = take(buf, 4)?.get_u32_le() as usize;
    if buf.len() < n_ptr.saturating_mul(4) {
        return Err(ExportError::Malformed(format!(
            "row_ptr claims {n_ptr} entries but only {} bytes remain",
            buf.len()
        )));
    }
    let mut row_ptr = Vec::with_capacity(n_ptr);
    for _ in 0..n_ptr {
        row_ptr.push(take(buf, 4)?.get_u32_le());
    }
    let vals = get_i32s(buf)?;
    let mat = SparseMat { rows, cols, row_ptr, vals, encoding };
    mat.validate()
        .map_err(|e| ExportError::Malformed(format!("invalid sparse weight payload: {e}")))?;
    Ok(mat)
}

fn get_op(buf: &mut &[u8]) -> Result<IntOp> {
    let tag = take(buf, 1)?.get_u8();
    Ok(match tag {
        0 => IntOp::Quantize { scale: take(buf, 4)?.get_f32_le(), spec: get_spec(buf)? },
        1 => IntOp::Conv2d {
            weight: get_tensor_i32(buf)?,
            bias: get_opt_bias(buf)?,
            spec: get_conv_spec(buf)?,
            requant: get_mulquant(buf)?,
            relu: take(buf, 1)?.get_u8() != 0,
            weight_spec: get_spec(buf)?,
        },
        2 | 18 => IntOp::Linear {
            weight: match tag {
                2 => LinearWeight::Dense(get_tensor_i32(buf)?),
                _ => LinearWeight::Sparse {
                    mat: get_sparse_mat(buf)?,
                    declared_sparsity: take(buf, 4)?.get_f32_le(),
                },
            },
            bias: get_opt_bias(buf)?,
            requant: match take(buf, 1)?.get_u8() {
                0 => None,
                _ => Some(get_mulquant(buf)?),
            },
            relu: take(buf, 1)?.get_u8() != 0,
            weight_spec: get_spec(buf)?,
        },
        3 => IntOp::AddRequant {
            m_a: get_fixed(buf)?,
            m_b: get_fixed(buf)?,
            out_spec: get_spec(buf)?,
            relu: take(buf, 1)?.get_u8() != 0,
        },
        4 => IntOp::AddConstRequant {
            value: get_tensor_i32(buf)?,
            m: get_fixed(buf)?,
            out_spec: get_spec(buf)?,
        },
        5 => IntOp::MaxPool2d {
            spec: PoolSpec {
                kernel: take(buf, 4)?.get_u32_le() as usize,
                stride: take(buf, 4)?.get_u32_le() as usize,
                padding: take(buf, 4)?.get_u32_le() as usize,
            },
        },
        6 => IntOp::GlobalAvgPool { frac_bits: take(buf, 1)?.get_u8() },
        7 => IntOp::Flatten,
        8 => IntOp::PatchToTokens,
        9 => IntOp::ConcatToken { token: get_tensor_i32(buf)? },
        10 => IntOp::TakeToken { index: take(buf, 4)?.get_u32_le() as usize },
        11 => IntOp::SplitHeads { heads: take(buf, 4)?.get_u32_le() as usize },
        12 => IntOp::MergeHeads { heads: take(buf, 4)?.get_u32_le() as usize },
        13 => IntOp::BmmRequant {
            transpose_rhs: take(buf, 1)?.get_u8() != 0,
            m: get_fixed(buf)?,
            out_spec: get_spec(buf)?,
        },
        14 => IntOp::LayerNorm(LayerNormInt {
            gamma_m: get_i32s(buf)?,
            beta_b: get_i64s(buf)?,
            frac: take(buf, 1)?.get_u8(),
            shift: take(buf, 1)?.get_u8(),
            out_spec: get_spec(buf)?,
        }),
        15 => {
            let table = get_i32s(buf)?;
            let in_scale = take(buf, 4)?.get_f32_le();
            let out_spec = get_spec(buf)?;
            let frac_bits = take(buf, 1)?.get_u8();
            IntOp::SoftmaxLut(SoftmaxLut { table, in_scale, out_spec, frac_bits })
        }
        16 => {
            let table = get_i32s(buf)?;
            let in_spec = get_spec(buf)?;
            let in_scale = take(buf, 4)?.get_f32_le();
            let out_spec = get_spec(buf)?;
            let out_scale = take(buf, 4)?.get_f32_le();
            IntOp::GeluLut(GeluLut { table, in_spec, in_scale, out_spec, out_scale })
        }
        17 => IntOp::Requant { m: get_fixed(buf)?, out_spec: get_spec(buf)? },
        other => return Err(ExportError::Malformed(format!("unknown op tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_model() -> IntModel {
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 0.02, spec: QuantSpec::signed(8) }, vec![]);
        m.push(
            "conv",
            IntOp::Conv2d {
                weight: Tensor::from_fn(&[2, 1, 3, 3], |i| i as i32 - 9),
                bias: Some(vec![5, -5]),
                spec: Conv2dSpec::new(1, 1),
                requant: MulQuant::from_float(
                    &[0.5, 0.25],
                    &[1.0, -1.0],
                    FixedPointFormat::int16_frac12(),
                    QuantSpec::unsigned(8),
                ),
                relu: true,
                weight_spec: QuantSpec::signed(4),
            },
            vec![Src::Node(0)],
        );
        m.push("gap", IntOp::GlobalAvgPool { frac_bits: 4 }, vec![Src::Node(1)]);
        m.push(
            "head",
            IntOp::Linear {
                weight: Tensor::from_fn(&[3, 2], |i| i as i32 - 3).into(),
                bias: None,
                requant: None,
                relu: false,
                weight_spec: QuantSpec::signed(8),
            },
            vec![Src::Node(2)],
        );
        m
    }

    #[test]
    fn round_trip_preserves_model_and_outputs() {
        let model = sample_model();
        let bytes = write_intmodel(&model);
        let loaded = read_intmodel(&bytes).unwrap();
        assert_eq!(loaded.len(), model.len());
        let x = Tensor::from_fn(&[2, 1, 4, 4], |i| (i as f32) * 0.01 - 0.1);
        let a = model.run(&x).unwrap();
        let b = loaded.run(&x).unwrap();
        assert_eq!(a.as_slice(), b.as_slice(), "loaded model must be bit-exact");
    }

    #[test]
    fn corruption_detected_by_checksum() {
        let mut bytes = write_intmodel(&sample_model());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        match read_intmodel(&bytes) {
            Err(ExportError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = write_intmodel(&sample_model());
        bytes[0] = b'X';
        // Fix the checksum so magic is the first check to fail.
        let n = bytes.len();
        let sum = fnv1a64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(read_intmodel(&bytes), Err(ExportError::BadMagic)));
    }

    #[test]
    fn truncated_file_rejected() {
        let bytes = write_intmodel(&sample_model());
        assert!(read_intmodel(&bytes[..10]).is_err());
        assert!(read_intmodel(&[]).is_err());
    }

    #[test]
    fn requant_op_round_trips() {
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 0.02, spec: QuantSpec::unsigned(8) }, vec![]);
        m.push(
            "rq",
            IntOp::Requant {
                m: FixedPointFormat::int16_frac12().quantize(0.03125),
                out_spec: QuantSpec::unsigned(2),
            },
            vec![Src::Node(0)],
        );
        let bytes = write_intmodel(&m);
        let loaded = read_intmodel(&bytes).unwrap();
        let x = Tensor::from_fn(&[1, 4], |i| i as f32 * 0.4);
        assert_eq!(m.run(&x).unwrap().as_slice(), loaded.run(&x).unwrap().as_slice());
    }

    fn sparse_model(nm: bool) -> IntModel {
        let dense = Tensor::from_fn(&[6, 8], |i| if i % 4 < 2 { (i as i32 % 9) - 4 } else { 0 });
        let weight = if nm {
            SparseMat::from_dense_nm(&dense, 2, 4).unwrap()
        } else {
            SparseMat::from_dense(&dense).unwrap()
        };
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 0.05, spec: QuantSpec::signed(8) }, vec![]);
        m.push(
            "fc_sparse",
            IntOp::Linear {
                weight: LinearWeight::sparse(weight),
                bias: Some(vec![3; 6]),
                requant: Some(MulQuant::from_float(
                    &[0.01],
                    &[0.0],
                    FixedPointFormat::int16_frac12(),
                    QuantSpec::unsigned(8),
                )),
                relu: true,
                weight_spec: QuantSpec::signed(4),
            },
            vec![Src::Node(0)],
        );
        m
    }

    #[test]
    fn sparse_linear_round_trips_in_both_encodings() {
        for nm in [false, true] {
            let m = sparse_model(nm);
            let bytes = write_intmodel(&m);
            let loaded = read_intmodel(&bytes).unwrap();
            let (
                IntOp::Linear {
                    weight: LinearWeight::Sparse { mat: wa, declared_sparsity: sa },
                    ..
                },
                IntOp::Linear {
                    weight: LinearWeight::Sparse { mat: wb, declared_sparsity: sb },
                    ..
                },
            ) = (&m.nodes[1].op, &loaded.nodes[1].op)
            else {
                panic!("sparse node lost its op");
            };
            assert_eq!(wa, wb, "sparse weight must round-trip exactly");
            assert!((sa - sb).abs() < f32::EPSILON);
            let x = Tensor::from_fn(&[2, 8], |i| i as f32 * 0.07 - 0.4);
            assert_eq!(m.run(&x).unwrap().as_slice(), loaded.run(&x).unwrap().as_slice());
        }
    }

    #[test]
    fn structurally_invalid_sparse_payload_rejected_even_with_good_checksum() {
        let m = sparse_model(false);
        let mut bytes = write_intmodel(&m);
        // The bitmask words sit right after rows/cols/enc_tag/word_count of
        // node 1's payload. Flip a mask bit so popcount no longer matches
        // the row extents, then re-stamp the checksum so only the
        // structural validator can catch it.
        let needle = b"fc_sparse";
        let pos = bytes.windows(needle.len()).position(|w| w == needle).unwrap();
        // name + inputs(1×u32 + count u8) + op tag u8 + rows/cols u32s + enc tag u8 + count u32
        let word0 = pos + needle.len() + 5 + 1 + 8 + 1 + 4;
        bytes[word0] ^= 0x04;
        let n = bytes.len();
        let sum = fnv1a64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        match read_intmodel(&bytes) {
            Err(ExportError::Malformed(msg)) => {
                assert!(msg.contains("sparse"), "unexpected message: {msg}");
            }
            other => panic!("expected malformed sparse payload, got {other:?}"),
        }
    }

    #[test]
    fn vit_ops_round_trip() {
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 1.0, spec: QuantSpec::signed(8) }, vec![]);
        m.push("tok", IntOp::PatchToTokens, vec![Src::Node(0)]);
        m.push(
            "cls",
            IntOp::ConcatToken { token: Tensor::from_vec(vec![1, 2, 3], &[3]).unwrap() },
            vec![Src::Node(1)],
        );
        m.push(
            "ln",
            IntOp::LayerNorm(LayerNormInt {
                gamma_m: vec![100, 100, 100],
                beta_b: vec![0, 1, 2],
                frac: 12,
                shift: 6,
                out_spec: QuantSpec::signed(8),
            }),
            vec![Src::Node(2)],
        );
        m.push(
            "softmax",
            IntOp::SoftmaxLut(SoftmaxLut::build(0.05, QuantSpec::unsigned(8), 128, 15)),
            vec![Src::Node(3)],
        );
        m.push(
            "gelu",
            IntOp::GeluLut(GeluLut::build(QuantSpec::signed(8), 0.05, QuantSpec::signed(8), 0.05)),
            vec![Src::Node(4)],
        );
        let bytes = write_intmodel(&m);
        let loaded = read_intmodel(&bytes).unwrap();
        assert_eq!(loaded.len(), 6);
        let x = Tensor::from_fn(&[1, 3, 2, 2], |i| i as f32 - 5.0);
        assert_eq!(m.run(&x).unwrap().as_slice(), loaded.run(&x).unwrap().as_slice());
    }
}
