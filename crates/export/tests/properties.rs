//! Property-based tests: every export encoding must round-trip bit-exactly
//! for arbitrary values in range, and the readers must reject (never
//! panic on) corrupted or truncated byte streams — the serving registry
//! feeds untrusted files into them.

use proptest::prelude::*;
use t2c_core::intmodel::{IntOp, Src};
use t2c_core::{FixedPointFormat, IntModel, MulQuant, QuantSpec};
use t2c_export::{from_hex_lines, read_intmodel, to_binary_lines, to_hex_lines, write_intmodel};
use t2c_tensor::ops::Conv2dSpec;
use t2c_tensor::Tensor;

/// A small but representative model: exercises tensors, optional biases,
/// MulQuant payloads and spec bytes in the serialization.
fn wire_model() -> Vec<u8> {
    let mut m = IntModel::new();
    m.push("input", IntOp::Quantize { scale: 0.05, spec: QuantSpec::signed(8) }, vec![]);
    m.push(
        "conv",
        IntOp::Conv2d {
            weight: Tensor::from_fn(&[2, 1, 3, 3], |i| (i as i32 % 13) - 6),
            bias: Some(vec![3, -3]),
            spec: Conv2dSpec::new(1, 1),
            requant: MulQuant::from_float(
                &[0.5, 0.25],
                &[0.0, 1.0],
                FixedPointFormat::int16_frac12(),
                QuantSpec::unsigned(8),
            ),
            relu: true,
            weight_spec: QuantSpec::signed(4),
        },
        vec![Src::Node(0)],
    );
    m.push("gap", IntOp::GlobalAvgPool { frac_bits: 2 }, vec![Src::Node(1)]);
    m.push(
        "head",
        IntOp::Linear {
            weight: Tensor::from_fn(&[3, 2], |i| i as i32 - 2).into(),
            bias: None,
            requant: None,
            relu: false,
            weight_spec: QuantSpec::signed(8),
        },
        vec![Src::Node(2)],
    );
    write_intmodel(&m)
}

fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn hex_round_trip_signed_any_width(values in proptest::collection::vec(-128i32..128, 1..64), bits_sel in 0usize..2) {
        let bits = [8u8, 16][bits_sel];
        let lines = to_hex_lines(&values, bits).unwrap();
        let decoded = from_hex_lines(lines.iter().map(String::as_str), bits, true).unwrap();
        prop_assert_eq!(decoded, values);
    }

    #[test]
    fn hex_round_trip_4bit(values in proptest::collection::vec(-8i32..8, 1..64)) {
        let lines = to_hex_lines(&values, 4).unwrap();
        let decoded = from_hex_lines(lines.iter().map(String::as_str), 4, true).unwrap();
        prop_assert_eq!(decoded, values);
    }

    #[test]
    fn binary_lines_have_exact_width(values in proptest::collection::vec(-8i32..8, 1..32), bits in 4u8..9) {
        let lines = to_binary_lines(&values, bits).unwrap();
        prop_assert!(lines.iter().all(|l| l.len() == bits as usize));
        prop_assert!(lines.iter().all(|l| l.chars().all(|c| c == '0' || c == '1')));
    }

    #[test]
    fn hex_encoding_width_is_constant(values in proptest::collection::vec(-128i32..256, 1..32)) {
        let lines = to_hex_lines(&values, 9).unwrap();
        // 9 bits → 3 nibbles per word, uniformly.
        prop_assert!(lines.iter().all(|l| l.len() == 3));
    }

    #[test]
    fn out_of_range_values_always_rejected(v in 16i32..10_000) {
        prop_assert!(to_hex_lines(&[v], 4).is_err());
        prop_assert!(to_hex_lines(&[-v], 4).is_err());
    }

    #[test]
    fn parser_never_panics_on_arbitrary_payloads(body in proptest::collection::vec(any::<u8>(), 0..256)) {
        // A syntactically "checksum-valid" file with garbage content: the
        // parser must reject gracefully, never panic or loop.
        let mut bytes = Vec::with_capacity(body.len() + 18);
        bytes.extend_from_slice(b"T2CM");
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.extend_from_slice(&body);
        let sum = fnv1a64(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        let _ = read_intmodel(&bytes); // any Err is fine; panics are not
    }

    #[test]
    fn parser_never_panics_on_raw_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = read_intmodel(&bytes);
    }

    #[test]
    fn truncated_valid_stream_always_errs(cut_sel in 0u32..u32::MAX) {
        // Every strict prefix of a valid serialization must be rejected —
        // cleanly. (A truncated file either fails the length check or the
        // checksum over the shifted trailer window.)
        let bytes = wire_model();
        let cut = (cut_sel as usize) % bytes.len();
        prop_assert!(read_intmodel(&bytes[..cut]).is_err());
    }

    #[test]
    fn mutated_valid_stream_never_panics(pos_sel in 0u32..u32::MAX, flip in 1u8..=255) {
        // Flip one byte anywhere in a valid stream: the checksum catches it.
        let mut bytes = wire_model();
        let pos = (pos_sel as usize) % bytes.len();
        bytes[pos] ^= flip;
        prop_assert!(read_intmodel(&bytes).is_err());
    }

    #[test]
    fn mutated_payload_with_restamped_checksum_never_panics(pos_sel in 0u32..u32::MAX, flip in 1u8..=255) {
        // The adversarial case: corrupt the payload, then re-stamp a valid
        // trailer so the parser walks deep into the mutated structure. It
        // may legitimately succeed (a flipped weight byte is still a valid
        // model) but it must never panic, and on failure it must be an Err.
        let mut bytes = wire_model();
        let n = bytes.len();
        let pos = (pos_sel as usize) % (n - 8);
        bytes[pos] ^= flip;
        let sum = t2c_export::fnv1a64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        let _ = read_intmodel(&bytes);
    }

    #[test]
    fn truncated_payload_with_restamped_checksum_always_errs(cut_sel in 0u32..u32::MAX) {
        // Truncate the payload and re-stamp the trailer: parsing must fail
        // (missing bytes) without panicking, even though the checksum is
        // formally valid for the shortened window.
        let bytes = wire_model();
        let payload_len = bytes.len() - 8;
        // Keep at least the magic+version so truncation hits node parsing.
        let cut = 6 + (cut_sel as usize) % (payload_len - 6);
        let mut short = bytes[..cut].to_vec();
        let sum = t2c_export::fnv1a64(&short);
        short.extend_from_slice(&sum.to_le_bytes());
        prop_assert!(read_intmodel(&short).is_err());
    }
}
