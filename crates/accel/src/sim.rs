use std::path::Path;

use t2c_core::intmodel::{IntOp, LinearWeight};
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
    /// the datapath. Shapes come from the model's static shape walk
    /// ([`IntModel::infer_shapes`]) and dense MAC and element counts from
    /// [`IntOp::cost`]; this model adds the array's tiling, cycle,
    /// zero-skip and byte accounting on top.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Tensor`] if a node's sources or shape rule
    /// fail on `input_dims`.
    pub fn trace(&self, input_dims: &[usize]) -> Result<ExecutionTrace> {
        let cfg = self.config;
        let shapes = self.model.infer_shapes(input_dims)?;
        let mut trace = ExecutionTrace::default();
        for (node, out) in self.model.nodes.iter().zip(&shapes) {
            let ins = node.operand_dims(input_dims, &shapes);
            let cost = node.op.cost(&ins, out);
            let activation_bytes = cost.in_elems + cost.out_elems;
            // Output channels map to array rows; every other output axis
            // (pixels, batch rows) to columns.
            let tiles = |oc: usize| {
                (oc.div_ceil(cfg.pe_rows) * (cost.out_elems as usize / oc).div_ceil(cfg.pe_cols))
                    as u64
            };
            let (macs, cycles, weight_bytes, activation_bytes) = match &node.op {
                IntOp::Conv2d { weight, weight_spec, .. }
                | IntOp::Linear { weight: LinearWeight::Dense(weight), weight_spec, .. } => {
                    let (numel, oc) = (weight.numel(), weight.dim(0));
                    let depth = numel / oc;
                    let nz = numel - weight.count_zeros();
                    let (macs, inner) = if cfg.zero_skipping {
                        // Useful MACs and per-tile depth scale with the
                        // non-zero fraction.
                        (
                            (cost.macs as f64 * nz as f64 / numel as f64) as u64,
                            ((depth as f64) * nz as f64 / numel as f64).ceil() as u64,
                        )
                    } else {
                        (cost.macs, depth as u64)
                    };
                    let wbytes = (nz * weight_spec.bits as usize).div_ceil(8) as u64;
                    (macs, tiles(oc) * inner.max(1), wbytes, activation_bytes)
                }
                IntOp::Linear { weight: LinearWeight::Sparse { mat, .. }, weight_spec, .. } => {
                    // A compressed layer skips zeros by construction: only
                    // the stored slots are fetched and multiplied, whether
                    // or not the array's zero-skipping gate is on.
                    let stored = mat.stored();
                    let total = mat.rows * mat.cols;
                    let inner = ((mat.cols as f64) * stored as f64 / total as f64).ceil() as u64;
                    let wbytes = (stored * weight_spec.bits as usize).div_ceil(8) as u64;
                    (cost.macs, tiles(mat.rows) * inner.max(1), wbytes, activation_bytes)
                }
                IntOp::BmmRequant { .. } => {
                    let ([bs, m, k], n) = ([out[0], out[1], ins[0][2]], out[2]);
                    let cycles =
                        (bs * m.div_ceil(cfg.pe_rows) * n.div_ceil(cfg.pe_cols) * k) as u64;
                    // Both operands stream in; the output stays on chip.
                    (cost.macs, cycles, 0, cost.in_elems)
                }
                _ => continue,
            };
            trace.layers.push(LayerTrace {
                name: node.name.clone(),
                macs,
                cycles,
                weight_bytes,
                activation_bytes,
            });
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
    use t2c_tensor::ops::{Conv2dSpec, PoolSpec};

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
    fn malformed_pool_graphs_are_trace_errors() {
        // Flatten → MaxPool (rank-2 pool input) and an 8×8 window on a 4×4
        // input used to index out of bounds inside the shape arms.
        for (flatten, kernel) in [(true, 2), (false, 8)] {
            let mut m = IntModel::new();
            m.push("input", IntOp::Quantize { scale: 0.1, spec: QuantSpec::signed(8) }, vec![]);
            if flatten {
                m.push("flat", IntOp::Flatten, vec![Src::Node(0)]);
            }
            let src = Src::Node(m.len() - 1);
            m.push("pool", IntOp::MaxPool2d { spec: PoolSpec::new(kernel) }, vec![src]);
            let accel = Accelerator::new(m, AcceleratorConfig::dense16x16());
            assert!(matches!(accel.trace(&[1, 1, 4, 4]), Err(AccelError::Tensor(_))));
        }
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
