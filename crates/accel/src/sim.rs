use std::path::Path;

use t2c_core::intmodel::IntOp;
use t2c_core::IntModel;
use t2c_tensor::Tensor;

use crate::{AccelError, Result};

/// Microarchitectural parameters of the simulated accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorConfig {
    /// MAC-array rows (output channels map here).
    pub pe_rows: usize,
    /// MAC-array columns (output pixels / batch map here).
    pub pe_cols: usize,
    /// Skip multiply-accumulates on zero weights (sparse acceleration).
    pub zero_skipping: bool,
    /// SRAM word width in bytes (for traffic accounting).
    pub sram_word_bytes: usize,
    /// Energy per 8-bit MAC in picojoules (prototype-node ballpark).
    pub energy_per_mac_pj: f64,
    /// Energy per byte of SRAM traffic in picojoules.
    pub energy_per_byte_pj: f64,
}

impl AcceleratorConfig {
    /// A 16×16 dense array — a typical prototype-scale configuration
    /// (energy numbers are 28 nm-class ballparks: 0.2 pJ/MAC, 1 pJ/byte).
    pub fn dense16x16() -> Self {
        AcceleratorConfig {
            pe_rows: 16,
            pe_cols: 16,
            zero_skipping: false,
            sram_word_bytes: 8,
            energy_per_mac_pj: 0.2,
            energy_per_byte_pj: 1.0,
        }
    }

    /// The same array with zero-skipping enabled.
    pub fn sparse16x16() -> Self {
        AcceleratorConfig { zero_skipping: true, ..Self::dense16x16() }
    }
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        Self::dense16x16()
    }
}

/// Per-layer execution accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerTrace {
    /// Node name.
    pub name: String,
    /// Useful multiply-accumulates performed.
    pub macs: u64,
    /// Estimated array cycles.
    pub cycles: u64,
    /// Weight bytes streamed from SRAM.
    pub weight_bytes: u64,
    /// Activation bytes moved.
    pub activation_bytes: u64,
}

/// A whole-network execution trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutionTrace {
    /// One entry per executed node (compute nodes only).
    pub layers: Vec<LayerTrace>,
}

impl ExecutionTrace {
    /// Total cycles across layers.
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.cycles).sum()
    }

    /// Total useful MACs across layers.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs).sum()
    }

    /// Total memory traffic in bytes.
    pub fn total_traffic(&self) -> u64 {
        self.layers.iter().map(|l| l.weight_bytes + l.activation_bytes).sum()
    }

    /// Energy estimate in nanojoules under the given configuration's
    /// per-MAC / per-byte costs.
    pub fn energy_nj(&self, config: &AcceleratorConfig) -> f64 {
        (self.total_macs() as f64 * config.energy_per_mac_pj
            + self.total_traffic() as f64 * config.energy_per_byte_pj)
            / 1000.0
    }

    /// Array utilization: useful MACs over issued MAC slots
    /// (`cycles · rows · cols`).
    pub fn utilization(&self, config: &AcceleratorConfig) -> f64 {
        let slots = self.total_cycles() as f64 * (config.pe_rows * config.pe_cols) as f64;
        if slots == 0.0 {
            0.0
        } else {
            (self.total_macs() as f64 / slots).min(1.0)
        }
    }
}

/// The simulated accelerator: an integer model plus a timing model.
#[derive(Debug, Clone)]
pub struct Accelerator {
    model: IntModel,
    config: AcceleratorConfig,
}

impl Accelerator {
    /// Wraps an in-memory integer model.
    pub fn new(model: IntModel, config: AcceleratorConfig) -> Self {
        Accelerator { model, config }
    }

    /// Loads the `.t2cm` model from a deployment package directory — the
    /// same artifact an RTL testbench would consume.
    ///
    /// # Errors
    ///
    /// Returns an error if the package is unreadable or corrupt.
    pub fn from_package(dir: &Path, config: AcceleratorConfig) -> Result<Self> {
        let bytes = std::fs::read(dir.join("model.t2cm")).map_err(t2c_export::ExportError::from)?;
        let model = t2c_export::read_intmodel(&bytes)?;
        Ok(Accelerator { model, config })
    }

    /// The loaded integer model.
    pub fn model(&self) -> &IntModel {
        &self.model
    }

    /// The array configuration.
    pub fn config(&self) -> AcceleratorConfig {
        self.config
    }

    /// Executes a float input batch: returns integer logits and the
    /// execution trace.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is malformed.
    pub fn run(&self, x: &Tensor<f32>) -> Result<(Tensor<i32>, ExecutionTrace)> {
        let out = self.model.run(x)?;
        let trace = self.trace(x.dims())?;
        if t2c_obs::enabled() {
            t2c_obs::gauge_set("accel.mac_utilization", trace.utilization(&self.config));
            t2c_obs::counter_add("accel.macs", trace.total_macs());
            t2c_obs::counter_add("accel.cycles", trace.total_cycles());
            t2c_obs::counter_add("accel.traffic_bytes", trace.total_traffic());
        }
        Ok((out, trace))
    }

    /// Like [`Accelerator::run`], but with the host worker count pinned to
    /// `threads` while the MAC-array replay executes. Logits are
    /// bit-identical to [`Accelerator::run`] at every setting — the host
    /// thread count is a simulation-speed knob, never a numerics knob.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is malformed.
    pub fn run_with_threads(
        &self,
        x: &Tensor<f32>,
        threads: usize,
    ) -> Result<(Tensor<i32>, ExecutionTrace)> {
        t2c_tensor::with_threads(threads, || self.run(x))
    }

    /// Computes the timing trace for a given input shape without executing
    /// the datapath (shapes are propagated symbolically).
    ///
    /// # Errors
    ///
    /// Returns an error if shapes cannot be propagated.
    pub fn trace(&self, input_dims: &[usize]) -> Result<ExecutionTrace> {
        let cfg = self.config;
        let mut shapes: Vec<Vec<usize>> = Vec::with_capacity(self.model.nodes.len());
        let mut trace = ExecutionTrace::default();
        for node in &self.model.nodes {
            let in_shape = |i: usize| -> Vec<usize> {
                match node.inputs.get(i) {
                    Some(t2c_core::intmodel::Src::Input) | None => input_dims.to_vec(),
                    Some(t2c_core::intmodel::Src::Node(id)) => shapes[*id].clone(),
                }
            };
            let out_shape: Vec<usize> = match &node.op {
                IntOp::Quantize { .. } => input_dims.to_vec(),
                IntOp::Conv2d { weight, spec, weight_spec, .. } => {
                    let xin = in_shape(0);
                    let (n, _c, h, w) = (xin[0], xin[1], xin[2], xin[3]);
                    let k = weight.dim(2);
                    let oh = spec.out_extent(h, k).map_err(AccelError::Tensor)?;
                    let ow = spec.out_extent(w, k).map_err(AccelError::Tensor)?;
                    let oc = weight.dim(0);
                    let cg = weight.dim(1);
                    let nz = weight.numel() - weight.count_zeros();
                    let macs_dense = (n * oc * oh * ow * cg * k * k) as u64;
                    let macs = if cfg.zero_skipping {
                        // Useful MACs scale with the non-zero fraction.
                        (macs_dense as f64 * nz as f64 / weight.numel().max(1) as f64) as u64
                    } else {
                        macs_dense
                    };
                    let tiles =
                        (oc.div_ceil(cfg.pe_rows) * (n * oh * ow).div_ceil(cfg.pe_cols)) as u64;
                    let inner = if cfg.zero_skipping {
                        // Per-tile depth shrinks with weight density.
                        (((cg * k * k) as f64) * nz as f64 / weight.numel().max(1) as f64).ceil()
                            as u64
                    } else {
                        (cg * k * k) as u64
                    };
                    trace.layers.push(LayerTrace {
                        name: node.name.clone(),
                        macs,
                        cycles: tiles * inner.max(1),
                        weight_bytes: (nz * weight_spec.bits as usize).div_ceil(8) as u64,
                        activation_bytes: (xin.iter().product::<usize>() + n * oc * oh * ow) as u64,
                    });
                    vec![n, oc, oh, ow]
                }
                IntOp::Linear { weight, weight_spec, .. } => {
                    let xin = in_shape(0);
                    let rows: usize = xin[..xin.len() - 1].iter().product();
                    let din = xin[xin.len() - 1];
                    let dout = weight.dim(0);
                    let nz = weight.numel() - weight.count_zeros();
                    let macs_dense = (rows * dout * din) as u64;
                    let macs = if cfg.zero_skipping {
                        (macs_dense as f64 * nz as f64 / weight.numel().max(1) as f64) as u64
                    } else {
                        macs_dense
                    };
                    let tiles = (dout.div_ceil(cfg.pe_rows) * rows.div_ceil(cfg.pe_cols)) as u64;
                    let inner = if cfg.zero_skipping {
                        ((din as f64) * nz as f64 / weight.numel().max(1) as f64).ceil() as u64
                    } else {
                        din as u64
                    };
                    trace.layers.push(LayerTrace {
                        name: node.name.clone(),
                        macs,
                        cycles: tiles * inner.max(1),
                        weight_bytes: (nz * weight_spec.bits as usize).div_ceil(8) as u64,
                        activation_bytes: (rows * (din + dout)) as u64,
                    });
                    let mut out = xin.clone();
                    *out.last_mut().expect("non-empty shape") = dout;
                    out
                }
                IntOp::LinearSparse { weight, weight_spec, .. } => {
                    // A compressed layer skips zeros by construction: only
                    // the stored slots are fetched and multiplied, whether
                    // or not the array's zero-skipping gate is on.
                    let xin = in_shape(0);
                    let rows: usize = xin[..xin.len() - 1].iter().product();
                    let din = xin[xin.len() - 1];
                    let dout = weight.rows;
                    let stored = weight.stored();
                    let total = (weight.rows * weight.cols).max(1);
                    let tiles = (dout.div_ceil(cfg.pe_rows) * rows.div_ceil(cfg.pe_cols)) as u64;
                    let inner = ((din as f64) * stored as f64 / total as f64).ceil() as u64;
                    trace.layers.push(LayerTrace {
                        name: node.name.clone(),
                        macs: (rows * stored) as u64,
                        cycles: tiles * inner.max(1),
                        weight_bytes: (stored * weight_spec.bits as usize).div_ceil(8) as u64,
                        activation_bytes: (rows * (din + dout)) as u64,
                    });
                    let mut out = xin.clone();
                    *out.last_mut().expect("non-empty shape") = dout;
                    out
                }
                IntOp::BmmRequant { transpose_rhs, .. } => {
                    let a = in_shape(0);
                    let b = in_shape(1);
                    let (bs, m, k) = (a[0], a[1], a[2]);
                    let n2 = if *transpose_rhs { b[1] } else { b[2] };
                    let macs = (bs * m * k * n2) as u64;
                    trace.layers.push(LayerTrace {
                        name: node.name.clone(),
                        macs,
                        cycles: (bs as u64)
                            * (m.div_ceil(cfg.pe_rows) * n2.div_ceil(cfg.pe_cols)) as u64
                            * k as u64,
                        weight_bytes: 0,
                        activation_bytes: (a.iter().product::<usize>()
                            + b.iter().product::<usize>())
                            as u64,
                    });
                    vec![bs, m, n2]
                }
                IntOp::AddRequant { .. } => in_shape(0),
                IntOp::AddConstRequant { .. } => in_shape(0),
                IntOp::MaxPool2d { spec } => {
                    let xin = in_shape(0);
                    let oh = (xin[2] + 2 * spec.padding - spec.kernel) / spec.stride + 1;
                    let ow = (xin[3] + 2 * spec.padding - spec.kernel) / spec.stride + 1;
                    vec![xin[0], xin[1], oh, ow]
                }
                IntOp::GlobalAvgPool { .. } => {
                    let xin = in_shape(0);
                    vec![xin[0], xin[1]]
                }
                IntOp::Flatten => {
                    let xin = in_shape(0);
                    vec![xin[0], xin[1..].iter().product()]
                }
                IntOp::PatchToTokens => {
                    let xin = in_shape(0);
                    vec![xin[0], xin[2] * xin[3], xin[1]]
                }
                IntOp::ConcatToken { .. } => {
                    let xin = in_shape(0);
                    vec![xin[0], xin[1] + 1, xin[2]]
                }
                IntOp::TakeToken { .. } => {
                    let xin = in_shape(0);
                    vec![xin[0], xin[2]]
                }
                IntOp::SplitHeads { heads } => {
                    let xin = in_shape(0);
                    vec![xin[0] * heads, xin[1], xin[2] / heads]
                }
                IntOp::MergeHeads { heads } => {
                    let xin = in_shape(0);
                    vec![xin[0] / heads, xin[1], xin[2] * heads]
                }
                IntOp::Requant { .. }
                | IntOp::LayerNorm(_)
                | IntOp::SoftmaxLut(_)
                | IntOp::GeluLut(_) => in_shape(0),
            };
            shapes.push(out_shape);
        }
        Ok(trace)
    }

    /// Runs the accelerator and checks every output element against the
    /// golden integer reference (normally the same `IntModel` executed by
    /// `t2c-core`, or a freshly converted model before export).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Mismatch`] at the first diverging element.
    pub fn verify_against(&self, golden: &IntModel, x: &Tensor<f32>) -> Result<ExecutionTrace> {
        let (out, trace) = self.run(x)?;
        let expect = golden.run(x)?;
        for (i, (&got, &expected)) in out.as_slice().iter().zip(expect.as_slice()).enumerate() {
            if got != expected {
                return Err(AccelError::Mismatch { index: i, got, expected });
            }
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2c_core::intmodel::Src;
    use t2c_core::{FixedPointFormat, MulQuant, QuantSpec};
    use t2c_tensor::ops::Conv2dSpec;

    fn model(weight: Tensor<i32>) -> IntModel {
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 0.1, spec: QuantSpec::signed(8) }, vec![]);
        m.push(
            "conv",
            IntOp::Conv2d {
                weight,
                bias: None,
                spec: Conv2dSpec::new(1, 1),
                requant: MulQuant::from_float(
                    &[0.25],
                    &[0.0],
                    FixedPointFormat::int16_frac12(),
                    QuantSpec::signed(8),
                ),
                relu: false,
                weight_spec: QuantSpec::signed(8),
            },
            vec![Src::Node(0)],
        );
        m.push("gap", IntOp::GlobalAvgPool { frac_bits: 4 }, vec![Src::Node(1)]);
        m
    }

    #[test]
    fn accelerator_matches_golden_reference() {
        let m = model(Tensor::from_fn(&[4, 2, 3, 3], |i| (i as i32 % 9) - 4));
        let accel = Accelerator::new(m.clone(), AcceleratorConfig::dense16x16());
        let x = Tensor::from_fn(&[2, 2, 6, 6], |i| (i as f32) * 0.01 - 0.3);
        let trace = accel.verify_against(&m, &x).unwrap();
        assert!(trace.total_cycles() > 0);
        assert!(trace.total_macs() > 0);
    }

    #[test]
    fn replay_is_bit_identical_across_thread_counts() {
        let m = model(Tensor::from_fn(&[4, 2, 3, 3], |i| (i as i32 % 9) - 4));
        let accel = Accelerator::new(m, AcceleratorConfig::dense16x16());
        let x = Tensor::from_fn(&[2, 2, 6, 6], |i| (i as f32) * 0.01 - 0.3);
        let (base, _) = accel.run_with_threads(&x, 1).unwrap();
        for threads in [2, 4, 8] {
            let (out, _) = accel.run_with_threads(&x, threads).unwrap();
            assert_eq!(out.as_slice(), base.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn zero_skipping_reduces_cycles_on_sparse_weights() {
        // 75% zero weights.
        let w = Tensor::from_fn(&[4, 2, 3, 3], |i| if i % 4 == 0 { 3 } else { 0 });
        let m = model(w);
        let x = Tensor::from_fn(&[1, 2, 8, 8], |i| (i as f32) * 0.01);
        let dense = Accelerator::new(m.clone(), AcceleratorConfig::dense16x16());
        let sparse = Accelerator::new(m, AcceleratorConfig::sparse16x16());
        let (_, dt) = dense.run(&x).unwrap();
        let (st_out, st) = sparse.run(&x).unwrap();
        let (dt_out, _) = dense.run(&x).unwrap();
        // Identical results…
        assert_eq!(st_out.as_slice(), dt_out.as_slice());
        // …but fewer cycles.
        assert!(
            st.total_cycles() * 3 < dt.total_cycles() * 2,
            "sparse {} vs dense {}",
            st.total_cycles(),
            dt.total_cycles()
        );
    }

    #[test]
    fn bigger_array_fewer_cycles() {
        let m = model(Tensor::from_fn(&[32, 2, 3, 3], |i| (i as i32 % 5) - 2));
        let small = Accelerator::new(
            m.clone(),
            AcceleratorConfig { pe_rows: 4, pe_cols: 4, ..AcceleratorConfig::dense16x16() },
        );
        let big = Accelerator::new(
            m,
            AcceleratorConfig { pe_rows: 32, pe_cols: 32, ..AcceleratorConfig::dense16x16() },
        );
        let dims = [1usize, 2, 8, 8];
        assert!(
            big.trace(&dims).unwrap().total_cycles() < small.trace(&dims).unwrap().total_cycles()
        );
    }

    #[test]
    fn energy_and_utilization_reported() {
        let m = model(Tensor::from_fn(&[4, 2, 3, 3], |i| (i as i32 % 9) - 4));
        let cfg = AcceleratorConfig::dense16x16();
        let accel = Accelerator::new(m, cfg);
        let trace = accel.trace(&[1, 2, 8, 8]).unwrap();
        assert!(trace.energy_nj(&cfg) > 0.0);
        let util = trace.utilization(&cfg);
        assert!((0.0..=1.0).contains(&util), "utilization {util}");
        // Zero-skipping lowers MAC energy on sparse weights.
        let sparse_w = Tensor::from_fn(&[4, 2, 3, 3], |i| if i % 4 == 0 { 3 } else { 0 });
        let skip_cfg = AcceleratorConfig::sparse16x16();
        let skip = Accelerator::new(model(sparse_w), skip_cfg);
        let skip_trace = skip.trace(&[1, 2, 8, 8]).unwrap();
        assert!(skip_trace.energy_nj(&skip_cfg) < trace.energy_nj(&cfg));
    }

    #[test]
    fn mismatch_detected() {
        let m = model(Tensor::from_fn(&[4, 2, 3, 3], |i| (i as i32 % 9) - 4));
        let mut tampered = m.clone();
        if let IntOp::Conv2d { weight, .. } = &mut tampered.nodes[1].op {
            weight.as_mut_slice()[0] += 1;
        }
        let accel = Accelerator::new(tampered, AcceleratorConfig::dense16x16());
        let x = Tensor::from_fn(&[1, 2, 6, 6], |i| (i as f32) * 0.02);
        assert!(matches!(accel.verify_against(&m, &x), Err(AccelError::Mismatch { .. })));
    }

    #[test]
    fn from_package_round_trip() {
        let dir = std::env::temp_dir().join(format!("t2c_accel_{}", std::process::id()));
        let m = model(Tensor::from_fn(&[4, 2, 3, 3], |i| (i as i32 % 9) - 4));
        t2c_export::export_package(&m, &dir).unwrap();
        let accel = Accelerator::from_package(&dir, AcceleratorConfig::dense16x16()).unwrap();
        let x = Tensor::from_fn(&[1, 2, 6, 6], |i| (i as f32) * 0.02);
        accel.verify_against(&m, &x).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
