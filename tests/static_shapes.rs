//! The static shape-and-cost pass (`IntOp::out_dims` / `IntOp::cost`,
//! walked by `IntModel::infer_shapes`) is the one place the graph's shapes
//! are derived. These tests tie it to execution, pin the accelerator
//! model's totals, and drive every graph consumer with random malformed
//! graphs to prove they refuse instead of panicking.

use proptest::prelude::*;
use proptest::TestRng;
use t2c_accel::{Accelerator, AcceleratorConfig};
use t2c_core::intmodel::{IntOp, LayerNormInt, LinearWeight, Src};
use t2c_core::lut::{GeluLut, SoftmaxLut};
use t2c_core::{zoo, FixedPointFormat, IntModel, MulQuant, QuantSpec};
use t2c_export::{fnv1a64, write_intmodel};
use t2c_lint::{certify_model, lint_model, ErrorBoundConfig, Severity};
use t2c_tensor::ops::{Conv2dSpec, PoolSpec};
use t2c_tensor::rng::TensorRng;
use t2c_tensor::{SparseMat, Tensor};

/// The zoo plus the MLP family (dense, pruned 0.8, 2:4).
fn models() -> Vec<(String, IntModel, Vec<usize>)> {
    let mut all: Vec<(String, IntModel, Vec<usize>)> = zoo::zoo()
        .into_iter()
        .map(|(tag, build)| {
            let (m, d) = build();
            (tag.to_string(), m, d)
        })
        .collect();
    for (tag, (m, d)) in [
        ("mlp-dense", zoo::tiny_mlp()),
        ("mlp-pruned-0.8", zoo::tiny_mlp_pruned(0.8)),
        ("mlp-nm-2of4", zoo::tiny_mlp_nm(2, 4)),
    ] {
        all.push((tag.to_string(), m, d));
    }
    all
}

fn batched(dims: &[usize], batch: usize) -> Vec<usize> {
    let mut d = dims.to_vec();
    d[0] = batch;
    d
}

#[test]
fn inferred_shapes_match_execution() {
    for (tag, model, dims) in models() {
        for batch in [1usize, 3] {
            let dims = batched(&dims, batch);
            let x = TensorRng::seed_from(batch as u64 + 41).uniform(&dims, -1.0, 1.0);
            let ran: Vec<Vec<usize>> =
                model.run_all(&x).unwrap().iter().map(|t| t.dims().to_vec()).collect();
            let inferred = model.infer_shapes(&dims).unwrap();
            assert_eq!(inferred, ran, "{tag} batch {batch}");
        }
    }
}

#[test]
fn accel_trace_totals_are_pinned() {
    // (model, config, batch) → (total_macs, total_cycles, total_traffic),
    // recorded from the accelerator model before it took its shapes and
    // dense MAC counts from the shared static pass.
    #[rustfmt::skip]
    let pins: [(&str, &str, usize, [u64; 3]); 24] = [
        ("mobilenet-ptq", "dense", 1, [232_544, 1228, 31_939]),
        ("mobilenet-ptq", "dense", 3, [697_632, 3620, 90_889]),
        ("mobilenet-ptq", "sparse", 1, [231_007, 1228, 31_939]),
        ("mobilenet-ptq", "sparse", 3, [693_021, 3620, 90_889]),
        ("resnet-qat", "dense", 1, [579_632, 3648, 24_171]),
        ("resnet-qat", "dense", 3, [1_738_896, 10_912, 62_609]),
        ("resnet-qat", "sparse", 1, [574_448, 3644, 24_171]),
        ("resnet-qat", "sparse", 3, [1_723_344, 10_900, 62_609]),
        ("vit-ptq", "dense", 1, [340_160, 2568, 38_756]),
        ("vit-ptq", "dense", 3, [1_020_480, 5592, 80_688]),
        ("vit-ptq", "sparse", 1, [336_889, 2564, 38_756]),
        ("vit-ptq", "sparse", 3, [1_010_667, 5584, 80_688]),
        ("mlp-dense", "dense", 1, [34_048, 2176, 11_439]),
        ("mlp-dense", "dense", 3, [102_144, 2176, 12_483]),
        ("mlp-dense", "sparse", 1, [29_111, 1863, 11_439]),
        ("mlp-dense", "sparse", 3, [87_333, 1863, 12_483]),
        ("mlp-pruned-0.8", "dense", 1, [7834, 544, 3364]),
        ("mlp-pruned-0.8", "dense", 3, [23_502, 544, 4408]),
        ("mlp-pruned-0.8", "sparse", 1, [7578, 519, 3364]),
        ("mlp-pruned-0.8", "sparse", 3, [22_734, 519, 4408]),
        ("mlp-nm-2of4", "dense", 1, [17_664, 1152, 7050]),
        ("mlp-nm-2of4", "dense", 3, [52_992, 1152, 8094]),
        ("mlp-nm-2of4", "sparse", 1, [17_408, 1127, 7050]),
        ("mlp-nm-2of4", "sparse", 3, [52_224, 1127, 8094]),
    ];
    let models = models();
    for (tag, config, batch, want) in pins {
        let (_, model, dims) = models.iter().find(|(t, ..)| t == tag).expect("pinned model");
        let cfg = match config {
            "dense" => AcceleratorConfig::dense16x16(),
            _ => AcceleratorConfig::sparse16x16(),
        };
        let trace = Accelerator::new(model.clone(), cfg).trace(&batched(dims, batch)).unwrap();
        let got = [trace.total_macs(), trace.total_cycles(), trace.total_traffic()];
        assert_eq!(got, want, "{tag} {config} batch {batch}: [macs, cycles, traffic]");
    }
}

#[test]
fn export_checksums_are_pinned() {
    // model → fnv1a64 trailer of its `.t2cm` bytes, recorded while dense
    // and compressed linear weights were still two separate op variants.
    #[rustfmt::skip]
    let pins: [(&str, u64); 6] = [
        ("mobilenet-ptq", 0xb9b5_f9b9_674b_be7f),
        ("resnet-qat", 0x5ebe_67e2_881b_8b1e),
        ("vit-ptq", 0x2171_df70_3586_7548),
        ("mlp-dense", 0x7c4e_e644_9666_d679),
        ("mlp-pruned-0.8", 0x5112_aa6c_1ff8_c908),
        ("mlp-nm-2of4", 0x2ef1_9512_7822_0213),
    ];
    let got: Vec<(String, u64)> = models()
        .iter()
        .map(|(tag, model, _)| {
            let bytes = write_intmodel(model);
            let (payload, trailer) = bytes.split_at(bytes.len() - 8);
            let trailer = u64::from_le_bytes(trailer.try_into().unwrap());
            assert_eq!(trailer, fnv1a64(payload), "{tag}: trailer is the payload checksum");
            (tag.clone(), trailer)
        })
        .collect();
    let want: Vec<(String, u64)> = pins.iter().map(|(t, c)| (t.to_string(), *c)).collect();
    assert_eq!(got, want, "[(model, .t2cm trailer)]");
}

/// Models with one injected fault each, on the paths where lint and the
/// certifier part ways: accumulators, a bmm envelope and a pooled output
/// outside `i32` (lint carries on, the certificate stops), and corrupted
/// or mis-declared sparse layouts.
fn faulted() -> Vec<(String, IntModel, Vec<usize>)> {
    let mut all = Vec::new();
    let hot = |op: &mut IntOp| match op {
        IntOp::Conv2d { weight, .. }
        | IntOp::Linear { weight: LinearWeight::Dense(weight), .. } => {
            weight.as_mut_slice().iter_mut().for_each(|w| *w <<= 20);
        }
        _ => unreachable!("a dense MAC op"),
    };
    let (mut m, d) = zoo::tiny_mlp();
    hot(&mut m.nodes[1].op);
    all.push(("mlp-fc1-overflow".to_owned(), m, d));
    let (mut m, d) = zoo::tiny_mlp();
    hot(&mut m.nodes[2].op);
    all.push(("mlp-head-overflow".to_owned(), m, d));
    let (mut m, d) = zoo::zoo()[0].1();
    let stem = m.nodes.iter().position(|n| matches!(n.op, IntOp::Conv2d { .. })).unwrap();
    hot(&mut m.nodes[stem].op);
    all.push(("mobilenet-stem-overflow".to_owned(), m, d));
    for (tag, fault) in [("corrupt", 0), ("nm-broken", 1), ("drift", 2)] {
        let (mut m, d) =
            if fault == 1 { zoo::tiny_mlp_nm(2, 4) } else { zoo::tiny_mlp_pruned(0.8) };
        let IntOp::Linear { weight: LinearWeight::Sparse { mat, declared_sparsity }, .. } =
            &mut m.nodes[1].op
        else {
            unreachable!("fc1 is compressed")
        };
        match fault {
            0 => drop(mat.vals.pop()),
            1 => {
                if let t2c_tensor::SparseEncoding::Nm { n, .. } = &mut mat.encoding {
                    *n = 0;
                }
            }
            _ => *declared_sparsity += 0.2,
        }
        all.push((format!("mlp-sparse-{tag}"), m, d));
    }
    let wide = IntOp::Quantize { scale: 0.1, spec: QuantSpec::signed(16) };
    let requant = IntOp::Requant {
        m: FixedPointFormat::int16_frac12().quantize(0.25),
        out_spec: QuantSpec::signed(8),
    };
    let mut m = IntModel::new();
    m.push("input", wide.clone(), vec![]);
    m.push(
        "scores",
        IntOp::BmmRequant {
            transpose_rhs: true,
            m: FixedPointFormat::int16_frac12().quantize(0.001),
            out_spec: QuantSpec::signed(8),
        },
        vec![Src::Input, Src::Input],
    );
    m.push("out", requant.clone(), vec![Src::Node(1)]);
    all.push(("bmm-overflow".to_owned(), m, vec![1, 4, 8]));
    let mut m = IntModel::new();
    m.push("input", wide, vec![]);
    m.push("pool", IntOp::GlobalAvgPool { frac_bits: 31 }, vec![Src::Input]);
    m.push("out", requant, vec![Src::Node(1)]);
    all.push(("pool-overflow".to_owned(), m, vec![1, 2, 2, 2]));
    all
}

/// The lint report, the error certificate and the certificate findings of
/// one model, as JSON, one document per line.
fn static_reports(model: &IntModel, dims: &[usize], tag: &str) -> String {
    let lint = lint_model(model, dims, tag).to_json();
    let (cert, cert_lint) = certify_model(model, dims, ErrorBoundConfig::default(), tag);
    format!("{lint}\n{}\n{}\n", cert.to_json(), cert_lint.to_json())
}

#[test]
fn lint_and_certificate_reports_are_pinned() {
    // model → fnv1a64 of its lint and certificate reports, for the zoo,
    // the MLP family and the faulted variants, plus one digest over 256
    // fixed random graphs (dangling and forward sources, missing operands,
    // shape refusals and short LUTs among them), recorded while lint and
    // the certifier walked the graph separately.
    #[rustfmt::skip]
    let pins: [(&str, u64); 15] = [
        ("mobilenet-ptq", 0x5134_ad6a_230a_62f6),
        ("resnet-qat", 0x37b9_c87f_e7b8_138a),
        ("vit-ptq", 0xea8a_d127_2c98_fcc1),
        ("mlp-dense", 0xad4f_5a12_b28e_be6a),
        ("mlp-pruned-0.8", 0xea7b_95cd_cb34_8264),
        ("mlp-nm-2of4", 0x0740_809e_dd97_e3dc),
        ("mlp-fc1-overflow", 0x8897_f0df_f603_7459),
        ("mlp-head-overflow", 0x7f04_4bc6_9b8d_bcb9),
        ("mobilenet-stem-overflow", 0x0dc4_c0f9_64ed_7a5a),
        ("mlp-sparse-corrupt", 0x57df_c5c2_ec73_ca7a),
        ("mlp-sparse-nm-broken", 0x0310_87f7_02aa_b86c),
        ("mlp-sparse-drift", 0xc870_2860_844a_bdd9),
        ("bmm-overflow", 0xba08_b85d_dd64_5a90),
        ("pool-overflow", 0x3e7a_9943_ac4e_11fa),
        ("random-256", 0xde75_08ad_3998_f389),
    ];
    let mut got: Vec<(String, u64)> = models()
        .iter()
        .chain(&faulted())
        .map(|(tag, model, dims)| {
            (tag.clone(), fnv1a64(static_reports(model, dims, tag).as_bytes()))
        })
        .collect();
    let random: String = (0..256u64)
        .map(|seed| {
            let (model, input) = random_case(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            static_reports(&model, &input, &format!("random-{seed}"))
        })
        .collect();
    got.push(("random-256".to_owned(), fnv1a64(random.as_bytes())));
    let want: Vec<(String, u64)> = pins.iter().map(|(t, c)| (t.to_string(), *c)).collect();
    assert_eq!(got, want, "[(model, fnv1a64 of lint + certificate JSON)]");
}

/// Draws for one random graph.
struct Draw(TestRng);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.0.below(n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    /// A random extent: usually 1..=4, sometimes 0.
    fn dim(&mut self) -> usize {
        if self.one_in(12) {
            0
        } else {
            1 + self.below(4)
        }
    }

    /// `fit` (an extent that makes the op well-formed) two times in
    /// three, else a random extent.
    fn pick(&mut self, fit: Option<usize>) -> usize {
        match fit {
            Some(v) if !self.one_in(3) => v,
            _ => self.dim(),
        }
    }

    fn codes(&mut self, dims: &[usize]) -> Tensor<i32> {
        let n: usize = dims.iter().product();
        let vals = (0..n).map(|_| self.below(7) as i32 - 3).collect();
        Tensor::from_vec(vals, dims).unwrap()
    }

    fn fixed(&mut self) -> t2c_core::FixedScalar {
        FixedPointFormat::int16_frac12().quantize([0.0, 0.25, 1.0, 3.0][self.below(4)])
    }

    fn bias(&mut self, channels: usize) -> Option<Vec<i64>> {
        match self.below(4) {
            0 => None,
            1 => Some(vec![5; self.below(4)]),
            _ => Some(vec![-2; channels]),
        }
    }

    fn requant(&mut self, channels: usize) -> MulQuant {
        let spec = QuantSpec::signed(8);
        let format = FixedPointFormat::int16_frac12();
        if self.one_in(6) {
            // Arbitrary (possibly empty) parameter vectors.
            let scales = self.below(3);
            let biases = self.below(3);
            MulQuant {
                scale_raw: vec![512; scales],
                bias_raw: vec![0; biases],
                format,
                out_spec: spec,
            }
        } else {
            let n = if self.one_in(2) { channels.max(1) } else { 1 + self.below(3) };
            MulQuant::from_float(&vec![0.125; n], &[0.0], format, spec)
        }
    }

    /// A random op of any kind, fitted to the first operand's shape
    /// (`x`, when known) most of the time.
    fn op(&mut self, x: Option<&[usize]>) -> IntOp {
        let spec8 = QuantSpec::signed(8);
        let last = x.and_then(|d| d.last().copied());
        let at = |k: usize| x.and_then(|d| d.get(k).copied());
        // Mostly an op kind that accepts the operand's rank.
        let fits: &[usize] = match x.map(<[usize]>::len) {
            Some(4) => &[1, 4, 5, 6, 7, 8, 9, 15, 17, 18],
            Some(3) => &[2, 3, 4, 5, 8, 10, 11, 12, 13, 14, 15, 16, 17, 18],
            Some(2) => &[2, 3, 4, 5, 8, 15, 16, 17, 18],
            _ => &[],
        };
        let kind = match fits.len() {
            0 => self.below(19),
            n if !self.one_in(4) => fits[self.below(n)],
            _ => self.below(19),
        };
        match kind {
            0 => IntOp::Quantize { scale: 0.1, spec: spec8 },
            1 => {
                let c = self.pick(at(1));
                let groups = if self.one_in(2) { 1 } else { self.pick(Some(c.max(1))) };
                let cg = self.pick((groups > 0).then(|| c / groups.max(1)));
                let per_group = 1 + self.below(2);
                let oc = self.pick(Some(groups.max(1) * per_group));
                let k = 1 + self.below(at(2).unwrap_or(3).clamp(1, 3));
                let (kh, kw) = (self.pick(Some(k)), self.pick(Some(k)));
                IntOp::Conv2d {
                    weight: self.codes(&[oc, cg, kh, kw]),
                    bias: self.bias(oc),
                    spec: Conv2dSpec { stride: self.below(3), padding: self.below(2), groups },
                    requant: self.requant(oc),
                    relu: self.one_in(2),
                    weight_spec: QuantSpec::signed(4),
                }
            }
            2 | 3 => {
                let (out_f, in_f) = (self.dim(), self.pick(last));
                let mut codes = self.codes(&[out_f, in_f]);
                let bias = self.bias(out_f);
                let requant = (!self.one_in(3)).then(|| self.requant(out_f));
                let relu = requant.is_some() && self.one_in(2);
                let weight_spec = QuantSpec::signed(4);
                // Dense half the time, else compressed: a bitmask over the
                // drawn codes, or 1:4 / 2:4 over codes pruned to fit.
                let layout = self.below(6) as u8;
                if layout > 3 {
                    for (i, v) in codes.as_mut_slice().iter_mut().enumerate() {
                        if i % in_f.max(1) % 4 >= usize::from(layout - 3) {
                            *v = 0;
                        }
                    }
                }
                let sparse = match layout {
                    0..=2 => None,
                    3 => SparseMat::from_dense(&codes).ok(),
                    _ => SparseMat::from_dense_nm(&codes, layout - 3, 4).ok(),
                };
                let weight = sparse.map_or_else(|| codes.into(), LinearWeight::sparse);
                IntOp::Linear { weight, bias, requant, relu, weight_spec }
            }
            4 => IntOp::AddRequant {
                m_a: self.fixed(),
                m_b: self.fixed(),
                out_spec: spec8,
                relu: self.one_in(2),
            },
            5 => {
                let dims = match x {
                    Some([_, rest @ ..]) if !self.one_in(3) => [&[1][..], rest].concat(),
                    _ => vec![self.dim()],
                };
                IntOp::AddConstRequant {
                    value: self.codes(&dims),
                    m: self.fixed(),
                    out_spec: spec8,
                }
            }
            6 => {
                let window = 1 + self.below(2);
                let kernel = self.pick(Some(window));
                IntOp::MaxPool2d {
                    spec: PoolSpec { kernel, stride: self.below(3), padding: self.below(2) },
                }
            }
            7 => IntOp::GlobalAvgPool { frac_bits: [0, 4, 31, 32, 60][self.below(5)] },
            8 => IntOp::Flatten,
            9 => IntOp::PatchToTokens,
            10 => {
                let d = self.pick(at(2));
                IntOp::ConcatToken { token: self.codes(&[d]) }
            }
            11 => IntOp::TakeToken { index: self.below(4) },
            12 => IntOp::SplitHeads { heads: self.below(4) },
            13 => IntOp::MergeHeads { heads: self.below(4) },
            14 => IntOp::BmmRequant {
                transpose_rhs: self.one_in(2),
                m: self.fixed(),
                out_spec: spec8,
            },
            15 => IntOp::Requant { m: self.fixed(), out_spec: spec8 },
            16 => {
                let (g, b) = (self.pick(last), self.pick(last));
                IntOp::LayerNorm(LayerNormInt {
                    gamma_m: vec![256; g],
                    beta_b: vec![0; b],
                    frac: 12,
                    shift: 6,
                    out_spec: spec8,
                })
            }
            17 => {
                IntOp::SoftmaxLut(SoftmaxLut::build(0.1, QuantSpec::unsigned(8), self.below(9), 12))
            }
            _ => {
                let mut lut = GeluLut::build(spec8, 0.05, spec8, 0.05);
                if self.one_in(2) {
                    lut.table.truncate(self.below(257));
                }
                IntOp::GeluLut(lut)
            }
        }
    }

    /// A graph of up to eight nodes with random operand wiring: dangling,
    /// self/forward and short operand lists included.
    fn graph(&mut self, input: &[usize]) -> IntModel {
        let mut m = IntModel::new();
        let mut hints: Vec<Option<Vec<usize>>> = Vec::new();
        for i in 0..1 + self.below(8) {
            let mut srcs = Vec::new();
            for _ in 0..2 {
                srcs.push(match self.below(12) {
                    0 => Src::Node(i + self.below(3)),
                    1 | 2 => Src::Input,
                    _ if i > 0 => Src::Node(i - 1 - self.below(i.min(3))),
                    _ => Src::Input,
                });
            }
            if self.one_in(2) {
                // Binary ops over one operand: residual x + x, bmm x·xᵀ.
                srcs[1] = srcs[0];
            }
            let hint = |s: &Src| match s {
                Src::Input => Some(input.to_vec()),
                Src::Node(id) => hints.get(*id).cloned().flatten(),
            };
            let (h0, h1) = (hint(&srcs[0]), hint(&srcs[1]));
            let op = if i == 0 && !self.one_in(8) {
                IntOp::Quantize { scale: 0.1, spec: QuantSpec::signed(8) }
            } else {
                self.op(h0.as_deref())
            };
            let listed = match self.below(10) {
                0 => op.arity().saturating_sub(1),
                1 => op.arity() + 1,
                _ => op.arity(),
            };
            srcs.truncate(listed);
            let operands: Vec<&[usize]> = match op {
                IntOp::Quantize { .. } => vec![input],
                _ => {
                    [h0.as_deref(), h1.as_deref()][..op.arity()].iter().flatten().copied().collect()
                }
            };
            hints.push(op.out_dims(&operands).ok());
            m.push(format!("n{i}"), op, srcs);
        }
        m
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_graphs_are_refused_never_panicked_on(seed in any::<u64>()) {
        let (model, input) = random_case(seed);

        let shapes = model.infer_shapes(&input);
        let _ = model.compile(&input);
        let lint = lint_model(&model, &input, "random");
        let _ = certify_model(&model, &input, ErrorBoundConfig::default(), "random");
        let trace = Accelerator::new(model.clone(), AcceleratorConfig::dense16x16()).trace(&input);
        prop_assert_eq!(shapes.is_ok(), trace.is_ok());
        if let Ok(shapes) = &shapes {
            // A graph the static walk accepts has no structural lint error.
            let structural = lint.diagnostics.iter().any(|d| {
                d.severity == Severity::Error
                    && ["T2C002", "T2C003", "T2C004", "T2C005"].contains(&d.rule.id())
            });
            prop_assert!(!structural, "{:?}\n{}", lint.diagnostics, model.summary());
            // One shape rule: every shape lint derived is the static walk's.
            for node in lint.nodes.iter().filter(|n| !n.shape.is_empty()) {
                prop_assert_eq!(&node.shape, &shapes[node.id], "node {}\n{}", node.id, model.summary());
            }
        }
    }
}

/// A random graph and a random input shape (rank 1–4, rank 4 half the
/// time, batch 1–2).
fn random_case(seed: u64) -> (IntModel, Vec<usize>) {
    let mut draw = Draw(TestRng::seed_from(seed));
    let rank = if draw.one_in(2) { 4 } else { 1 + draw.below(3) };
    let mut input: Vec<usize> = (0..rank).map(|_| draw.dim()).collect();
    input[0] = 1 + draw.below(2);
    (draw.graph(&input), input)
}

#[test]
fn random_graphs_reach_every_op_kind() {
    // The never-panics property only means something if the generator
    // also builds well-formed graphs: each op kind must appear in some
    // graph that the static walk accepts and that compiles and traces.
    let mut reached = std::collections::BTreeSet::new();
    let mut layouts = std::collections::BTreeSet::new();
    for seed in 0..1000u64 {
        let (model, input) = random_case(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let traced =
            Accelerator::new(model.clone(), AcceleratorConfig::sparse16x16()).trace(&input).is_ok();
        if traced && model.compile(&input).is_ok() {
            reached.extend(model.nodes.iter().map(|n| n.op.label()));
            layouts.extend(model.nodes.iter().filter_map(|n| match &n.op {
                IntOp::Linear { weight, .. } => Some(weight.layout_label()),
                _ => None,
            }));
        }
    }
    assert_eq!(reached.len(), 19, "op kinds reached: {reached:?}");
    assert_eq!(
        layouts.into_iter().collect::<Vec<_>>(),
        ["1:4", "2:4", "bitmask", "dense"],
        "linear weight layouts reached"
    );
}
