//! Static quantization-error certification: sound float↔int divergence
//! bounds over [`IntModel`] graphs.
//!
//! The certificate is the error half of the one graph walk in
//! [`crate::analyze`]: next to each edge's proven value interval, the walk
//! carries a bound on the worst-case divergence
//! `|float_reference − dequant(int_value)|` in that edge's own code units
//! ("steps"). This module holds that error arithmetic, the certificate
//! report and its `T2C6xx` findings.
//!
//! **Reference semantics.** The float reference is the family of
//! real-arithmetic evaluations of the *same* graph in which every stored
//! parameter stands for any real within half a unit of its code: weights
//! and biases within ½ of their stored integers, each fixed-point
//! multiplier/bias within half a raw ulp, LUT entries replaced by the
//! exact function values, `round_shift` replaced by exact division, and
//! the input quantizer replaced by exact real division (clamped, not
//! rounded). The certified bound dominates the divergence against *every*
//! member of that family. The serving runtime's dual-path audit is not one
//! of them: it compares the compiled plan against the integer interpreter,
//! so it checks plan↔interpreter agreement against the bound, not
//! quantization error.
//!
//! **Composition.** Per MAC layer and output channel `c` with `K` MACs,
//! incoming error `e_in`, per-tensor input magnitude envelope `|x|` (from
//! the i128 interval analysis) and requantizer `(M_c, B_c, f)`:
//!
//! ```text
//! E_acc  = Σ|w_i|·e_in + ½·K·(|x| + e_in) + ½·[bias]
//! e_out  = ½ + |M_c|·2^-f·E_acc + ½·2^-f·(|acc|_max + E_acc + 1)
//!          + overshoot_c
//! ```
//!
//! `overshoot_c` is the mul/shift↔clamp interaction: how far the mapped
//! worst-case pre-clamp interval leaves the output grid. The int path
//! clamps it away; the unclamped reference keeps it, so it is genuine
//! divergence — and the term that makes a mis-scaled requantizer fail its
//! error budget (rule T2C602) even when the scale-chain heuristic (T2C201)
//! only warns. ReLU and the output clamp are 1-Lipschitz, so they never
//! grow the bound. LUT ops contribute their exact per-entry table error;
//! normalization ops (LayerNorm, softmax) use coarse grid-width bounds
//! that are input-independent and keep every certificate finite.
//!
//! Where the interval analysis carries on past a finding that leaves the
//! divergence unbounded (an accumulator, bmm envelope or pooled output
//! that can leave `i32`), the certificate stops: that node gets a T2C601
//! and every node downstream an infinite bound with no further finding.
//!
//! DESIGN.md §6.11 derives each rule and its soundness argument.

use t2c_core::intmodel::IntOp;
use t2c_core::lut::{GeluLut, GELU_LIPSCHITZ};
use t2c_core::{FixedScalar, IntModel, MulQuant, QuantSpec};
use t2c_export::{CertifiedError, ExportManifest};
use t2c_obs::report::{json_num, json_str};

use crate::analyze::{walk, Channel, Ctx};
use crate::interval::Interval;
use crate::{Diagnostic, LintReport, Rule, Severity};

/// Schema version of `ErrorReport::to_json` documents.
pub const ERROR_SCHEMA_VERSION: u32 = 1;

/// Configuration of a certification run.
#[derive(Debug, Clone, Copy)]
pub struct ErrorBoundConfig {
    /// Maximum admissible certified end-to-end bound, in final-output
    /// quantization steps. `f64::INFINITY` (the default) certifies without
    /// gating: T2C602 never fires and `ErrorReport::pass` only requires a
    /// finite bound.
    pub tolerance_steps: f64,
}

impl Default for ErrorBoundConfig {
    fn default() -> Self {
        ErrorBoundConfig { tolerance_steps: f64::INFINITY }
    }
}

/// The certified bound at one node's output.
#[derive(Debug, Clone)]
pub struct LayerErrorBound {
    /// Node index in execution order.
    pub id: usize,
    /// Layer name.
    pub name: String,
    /// Op label.
    pub op: &'static str,
    /// Cumulative sound bound on `|reference − int|` at this node's
    /// output, in this node's code units. Infinite = uncertifiable.
    pub steps: f64,
    /// The part introduced locally (rounding, parameter half-ulps, table
    /// error, clamp overshoot) rather than propagated from upstream.
    pub local_steps: f64,
    /// `steps` in absolute units, when the graph declares this edge's
    /// scale (Quantize / LUT outputs and their shape-preserving
    /// descendants).
    pub abs: Option<f64>,
    /// Width of the proven output range, used to rank offending layers
    /// (one step means more on a narrow grid).
    pub grid_width: f64,
}

/// A per-layer + end-to-end quantization-error certificate.
#[derive(Debug, Clone)]
pub struct ErrorReport {
    /// Caller-chosen model label.
    pub tag: String,
    /// The tolerance the run was gated against (infinite = report-only).
    pub tolerance_steps: f64,
    /// Per-node bounds, in execution order.
    pub per_layer: Vec<LayerErrorBound>,
    /// Certified bound at the model output, in output quantization steps.
    /// Infinite when any node on the output path is uncertifiable.
    pub end_to_end_steps: f64,
    /// The end-to-end bound in absolute units, when the output scale is
    /// known.
    pub end_to_end_abs: Option<f64>,
}

impl ErrorReport {
    /// `true` when a finite end-to-end bound exists.
    pub fn certified(&self) -> bool {
        self.end_to_end_steps.is_finite()
    }

    /// `true` when the model is certified *and* within tolerance.
    pub fn pass(&self) -> bool {
        self.certified() && self.end_to_end_steps <= self.tolerance_steps
    }

    /// The layer contributing the most local error relative to its grid
    /// width — the one a T2C602 refusal names.
    pub fn worst_layer(&self) -> Option<&LayerErrorBound> {
        self.per_layer.iter().max_by(|a, b| {
            let ra = a.local_steps / a.grid_width.max(1.0);
            let rb = b.local_steps / b.grid_width.max(1.0);
            ra.total_cmp(&rb)
        })
    }

    /// The end-to-end bound in milli-steps, rounded **up** so the stored
    /// claim never under-reports the proven bound; saturates at
    /// `u64::MAX − 1`, with `u64::MAX` reserved for "no finite bound".
    pub fn end_to_end_millisteps(&self) -> u64 {
        millisteps(self.end_to_end_steps)
    }

    /// The manifest section equivalent of this report.
    pub fn to_certified(&self) -> CertifiedError {
        CertifiedError {
            end_to_end_millisteps: self.end_to_end_millisteps(),
            tolerance_millisteps: millisteps(self.tolerance_steps),
            layers: u32::try_from(self.per_layer.len()).unwrap_or(u32::MAX),
        }
    }

    /// Human-readable multi-line rendering.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let verdict = if self.pass() { "pass" } else { "fail" };
        let _ = writeln!(
            s,
            "t2c-errorbound [{}]: end-to-end ≤ {} step(s){} (tolerance {}) — {verdict}",
            self.tag,
            fmt_steps(self.end_to_end_steps),
            self.end_to_end_abs.map_or(String::new(), |a| format!(" = {a:.3e} abs")),
            fmt_steps(self.tolerance_steps),
        );
        for l in &self.per_layer {
            let _ = writeln!(
                s,
                "  #{:<3} {:<12} {:<16} ≤ {:>10} step(s)  (local {})",
                l.id,
                l.name,
                l.op,
                fmt_steps(l.steps),
                fmt_steps(l.local_steps),
            );
        }
        s
    }

    /// JSON rendering with the keys the `verify.sh` schema gate checks:
    /// `version`, `model`, `per_layer`, `end_to_end_steps`, `tolerance`,
    /// `pass`. Non-finite numbers render as `null`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(1024);
        let _ = write!(
            s,
            "{{\"version\":{ERROR_SCHEMA_VERSION},\"model\":{},\"tolerance\":{},\"end_to_end_steps\":{},\"end_to_end_abs\":{}",
            json_str(&self.tag),
            json_num(self.tolerance_steps),
            json_num(self.end_to_end_steps),
            self.end_to_end_abs.map_or("null".to_owned(), json_num),
        );
        s.push_str(",\"per_layer\":[");
        for (i, l) in self.per_layer.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"id\":{},\"layer\":{},\"op\":{},\"steps\":{},\"local_steps\":{},\"abs\":{}}}",
                l.id,
                json_str(&l.name),
                json_str(l.op),
                json_num(l.steps),
                json_num(l.local_steps),
                l.abs.map_or("null".to_owned(), json_num),
            );
        }
        let _ = write!(s, "],\"pass\": {}}}", self.pass());
        s
    }
}

fn millisteps(steps: f64) -> u64 {
    if !steps.is_finite() {
        return u64::MAX;
    }
    let v = (steps * 1000.0).ceil();
    if v >= (u64::MAX - 1) as f64 {
        u64::MAX - 1
    } else {
        v.max(0.0) as u64
    }
}

fn fmt_steps(v: f64) -> String {
    if !v.is_finite() {
        "∞".to_owned()
    } else if v >= 1e6 {
        format!("{v:.3e}")
    } else {
        format!("{v:.2}")
    }
}

pub(crate) fn maxabs(r: Interval) -> f64 {
    let m = r.lo.unsigned_abs().max(r.hi.unsigned_abs());
    m as f64
}

/// The error state of one tensor edge: the cumulative bound, the part the
/// producing node introduced itself, and the edge's absolute scale when
/// the graph declares one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cert {
    /// Cumulative bound on `|reference − int|`, in this edge's steps.
    pub(crate) err: f64,
    /// The part introduced by the producing node (rounding, parameter
    /// half-ulps, table error, clamp overshoot).
    pub(crate) local: f64,
    /// Declared absolute scale (Quantize / LUT outputs and their
    /// shape-preserving descendants).
    pub(crate) scale: Option<f64>,
}

impl Cert {
    /// The bound in absolute units, when the edge's scale is declared.
    fn abs(self) -> Option<f64> {
        self.scale.map(|sc| self.err * sc)
    }
}

/// Runs the quantization-error certifier over `model` and returns the
/// certificate plus the `T2C6xx` findings as a [`LintReport`] (no node
/// summaries — those belong to [`crate::lint_model`]).
pub fn certify_model(
    model: &IntModel,
    input_shape: &[usize],
    cfg: ErrorBoundConfig,
    tag: &str,
) -> (ErrorReport, LintReport) {
    let mut diags = Vec::new();
    if !matches!(model.nodes.first().map(|n| &n.op), Some(IntOp::Quantize { .. })) {
        diags.push(uncertifiable(
            0,
            "model",
            "the graph does not start with a Quantize node declaring the input grid",
        ));
    }
    let (ctx, states) = walk(model, input_shape);
    diags.extend(ctx.cert);
    // Each node's error state and proven range, where its certificate holds.
    let certs: Vec<Option<(Cert, Interval)>> =
        states.iter().map(|s| s.as_ref().and_then(|s| Some((s.cert?, s.range)))).collect();
    let per_layer = model
        .nodes
        .iter()
        .zip(&certs)
        .enumerate()
        .map(|(i, (node, cert))| LayerErrorBound {
            id: i,
            name: node.name.clone(),
            op: node.op.label(),
            steps: cert.map_or(f64::INFINITY, |(c, _)| c.err),
            local_steps: cert.map_or(f64::INFINITY, |(c, _)| c.local),
            abs: cert.and_then(|(c, _)| c.abs()),
            grid_width: cert.map_or(1.0, |(_, r)| r.width().min(i64::MAX as i128) as f64),
        })
        .collect();
    let end = certs.last().copied().flatten().map(|(c, _)| c);
    let report = ErrorReport {
        tag: tag.to_owned(),
        tolerance_steps: cfg.tolerance_steps,
        per_layer,
        end_to_end_steps: end.map_or(f64::INFINITY, |c| c.err),
        end_to_end_abs: end.and_then(Cert::abs),
    };
    if model.is_empty() {
        diags.push(Diagnostic::global(
            Rule::Uncertifiable,
            Severity::Error,
            "model",
            "model has no nodes, so there is nothing to certify",
            "push at least a Quantize node",
        ));
    }
    if cfg.tolerance_steps.is_finite() && report.certified() && !report.pass() {
        let worst = report.worst_layer();
        let (wname, wid) = worst.map_or(("model", 0), |l| (l.name.as_str(), l.id));
        let wlocal = worst.map_or(0.0, |l| l.local_steps);
        diags.push(Diagnostic::node(
            Rule::ErrorBudgetExceeded,
            Severity::Error,
            wid,
            wname,
            format!(
                "certified end-to-end error bound {} step(s) exceeds the configured tolerance {} — worst contributor is `{wname}` with {} local step(s)",
                fmt_steps(report.end_to_end_steps),
                fmt_steps(cfg.tolerance_steps),
                fmt_steps(wlocal),
            ),
            "re-derive the layer's requantizer from the calibrated scale chain, or raise the tolerance if the budget was optimistic",
        ));
    }
    let lint = LintReport { tag: tag.to_owned(), diagnostics: diags, nodes: Vec::new() };
    (report, lint)
}

/// Cross-checks a package manifest's `certified_error` section against a
/// freshly computed certificate of the shipped model (rule T2C605).
pub fn lint_certified(report: &ErrorReport, manifest: &ExportManifest, tag: &str) -> LintReport {
    let mut diags = Vec::new();
    if let Some(cert) = &manifest.certified {
        let fresh = report.end_to_end_millisteps();
        if cert.end_to_end_millisteps < fresh {
            diags.push(Diagnostic::global(
                Rule::ManifestCertifiedMismatch,
                Severity::Error,
                "certified.txt",
                format!(
                    "manifest claims an end-to-end bound of {} millistep(s) but fresh certification proves only {}",
                    cert.end_to_end_millisteps, fresh
                ),
                "re-export the package so the certificate matches the shipped model",
            ));
        }
        if cert.tolerance_millisteps < cert.end_to_end_millisteps {
            diags.push(Diagnostic::global(
                Rule::ManifestCertifiedMismatch,
                Severity::Error,
                "certified.txt",
                format!(
                    "manifest declares tolerance {} millistep(s), below its own certified bound {}",
                    cert.tolerance_millisteps, cert.end_to_end_millisteps
                ),
                "a package must not declare a tolerance its own certificate violates",
            ));
        }
    }
    LintReport { tag: tag.to_owned(), diagnostics: diags, nodes: Vec::new() }
}

/// A T2C601 finding: no divergence bound exists at node `i`.
fn uncertifiable(i: usize, name: &str, why: &str) -> Diagnostic {
    Diagnostic::node(
        Rule::Uncertifiable,
        Severity::Error,
        i,
        name,
        format!("cannot certify a float↔int divergence bound: {why}"),
        "fix the structural finding lint_model reports for this node, or shrink the accumulator so the overflow proof closes",
    )
}

/// Overshoot of the worst-case pre-clamp interval beyond the output grid —
/// divergence the int path clamps away but the unclamped reference keeps.
pub(crate) fn overshoot(mapped: Interval, spec: QuantSpec) -> f64 {
    let (glo, ghi) = spec.range();
    let under = (glo as i128).saturating_sub(mapped.lo).max(0);
    let over = mapped.hi.saturating_sub(ghi as i128).max(0);
    under.max(over) as f64
}

/// Error after one fixed-point multiply/shift `m` (AddRequant branches,
/// BmmRequant, Requant) over an input range `r` carrying error `e_in`,
/// against the half-ulp family of `m`.
pub(crate) fn edge_err(m: FixedScalar, r: Interval, e_in: f64) -> f64 {
    m.mul_shift_error_bound(maxabs(r), e_in)
}

/// The half-ulp of `m` amplified by the range `r` (the T2C604 term).
pub(crate) fn half_ulp(m: FixedScalar, r: Interval) -> f64 {
    0.5 * m.format.step() * maxabs(r)
}

impl Ctx {
    /// Files T2C601 for node `i` when its certificate was still `live`:
    /// a finding upstream already ended it, and no second one is filed.
    pub(crate) fn lose_certificate(&mut self, live: bool, i: usize, name: &str, why: &str) {
        if live {
            self.cert.push(uncertifiable(i, name, why));
        }
    }

    /// T2C604: fires when the multiplier half-ulp term dominates a layer's
    /// local error — the scale chain amplifies quantization error faster
    /// than rounding does.
    pub(crate) fn check_scale_amplification(
        &mut self,
        i: usize,
        name: &str,
        half_ulp: f64,
        local: f64,
    ) {
        if half_ulp > 1.0 && half_ulp > 0.5 * local {
            self.cert.push(Diagnostic::node(
                Rule::ScaleErrorAmplification,
                Severity::Warn,
                i,
                name,
                format!(
                    "the fixed-point multiplier's half-ulp contributes {} of the layer's {} local error step(s)",
                    fmt_steps(half_ulp),
                    fmt_steps(local)
                ),
                "widen frac_bits so the multiplier resolves finer than the accumulator envelope",
            ));
        }
    }

    /// T2C603: a LUT whose own table/domain error dominates the budget at
    /// its node.
    pub(crate) fn check_lut_domination(
        &mut self,
        i: usize,
        name: &str,
        lut_local: f64,
        total: f64,
    ) {
        if lut_local > 1.0 && lut_local >= 0.5 * total {
            self.cert.push(Diagnostic::node(
                Rule::LutErrorDominates,
                Severity::Warn,
                i,
                name,
                format!(
                    "LUT error of {} step(s) dominates the {}-step budget at this node",
                    fmt_steps(lut_local),
                    fmt_steps(total)
                ),
                "grow the table or its fractional precision; the rest of the pipeline is already tighter than the table",
            ));
        }
    }

    /// The error state after a conv/linear layer of `per` MACs per output
    /// (plus a bias when `biased`) whose per-channel accumulators over the
    /// input range `x` are `chans` and whose requantized pre-clamp channel
    /// images are `mapped`; the worst channel sets the bound. `None`, with
    /// T2C601, when an accumulator may saturate or a requantization product
    /// leaves `i64`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn mac_cert(
        &mut self,
        i: usize,
        name: &str,
        chans: &[Channel],
        requant: Option<&MulQuant>,
        mapped: &[Option<Interval>],
        (per, biased): (usize, bool),
        x: Interval,
        e_in: f64,
    ) -> Option<Cert> {
        let hot = chans.iter().enumerate().find(|(_, c)| !c.fin.fits_i32() || !c.env.fits_i32());
        if let Some((ch, c)) = hot {
            let why = format!(
                "channel {ch} accumulator can reach {} (envelope {}), outside i32 — the saturating MAC array clips by an unbounded amount",
                c.fin.union(c.env),
                c.env
            );
            self.lose_certificate(true, i, name, &why);
            return None;
        }
        let x_abs = maxabs(x);
        let (mut err, mut local, mut worst_half_ulp) = (0.0f64, 0.0f64, 0.0f64);
        for (ch, c) in chans.iter().enumerate() {
            // Weight half-ulp error amplified by the per-MAC input
            // magnitude envelope, plus the incoming error through |w|.
            let e_acc = c.abs_w * e_in + 0.5 * per as f64 * (x_abs + e_in) + f64::from(biased);
            let acc_abs = maxabs(c.fin);
            let (err_ch, local_ch, half_ulp) = match requant {
                Some(mq) => {
                    let Some(m) = mapped[ch] else {
                        let why = format!("channel {ch} requantization product leaves i64");
                        self.lose_certificate(true, i, name, &why);
                        return None;
                    };
                    let e = mq.error_bound_steps(ch, acc_abs, e_acc) + overshoot(m, mq.out_spec);
                    let propagated = mq.scale_abs(ch) * c.abs_w * e_in;
                    (e, e - propagated, 0.5 * mq.step() * acc_abs)
                }
                None => (e_acc, e_acc - c.abs_w * e_in, 0.0),
            };
            if err_ch > err {
                err = err_ch;
                local = local_ch;
                worst_half_ulp = half_ulp;
            }
        }
        self.check_scale_amplification(i, name, worst_half_ulp, local);
        Some(Cert { err, local, scale: None })
    }

    /// The error state after a GELU table over an input range `x`: the
    /// exact table error (entries vs the real gelu, clamp included) plus
    /// the incoming error and any out-of-domain overhang amplified by the
    /// GELU Lipschitz constant.
    pub(crate) fn gelu_cert(
        &mut self,
        i: usize,
        name: &str,
        lut: &GeluLut,
        x: Interval,
        c: Cert,
    ) -> Cert {
        let out_scale = f64::from(lut.out_scale.max(f32::MIN_POSITIVE));
        let in_scale = f64::from(lut.in_scale);
        let overhang = overshoot(x, lut.in_spec);
        let table_steps = lut.max_table_error() / out_scale;
        let amplified = GELU_LIPSCHITZ * (c.err + overhang) * in_scale.abs() / out_scale;
        let err = table_steps + amplified;
        let local = table_steps + GELU_LIPSCHITZ * overhang * in_scale.abs() / out_scale;
        self.check_lut_domination(i, name, local, err);
        Cert { err, local, scale: Some(f64::from(lut.out_scale)) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2c_core::zoo;
    use t2c_core::FixedPointFormat;

    fn ids(report: &LintReport) -> Vec<&str> {
        report.diagnostics.iter().map(|d| d.rule.id()).collect()
    }

    #[test]
    fn tiny_mlp_gets_a_finite_certificate() {
        let (m, dims) = zoo::tiny_mlp();
        let (report, lint) = certify_model(&m, &dims, ErrorBoundConfig::default(), "mlp");
        assert!(report.certified(), "bound must be finite:\n{}", report.to_text());
        assert!(report.pass());
        assert_eq!(lint.error_count(), 0, "{}", lint.to_text());
        assert_eq!(report.per_layer.len(), m.len());
        // Every layer bound is finite and the input quantizer contributes
        // exactly its rounding half-step.
        assert!(report.per_layer.iter().all(|l| l.steps.is_finite()));
        assert!((report.per_layer[0].steps - 0.5).abs() < 1e-9);
        // The input layer has a declared scale, so abs units exist there.
        assert!(report.per_layer[0].abs.is_some());
    }

    #[test]
    fn pruned_variant_certifies_no_looser_than_dense() {
        let (dense, dims) = zoo::tiny_mlp();
        let (dr, _) = certify_model(&dense, &dims, ErrorBoundConfig::default(), "dense");
        let (pruned, _) = zoo::tiny_mlp_pruned(0.8);
        let (pr, pl) = certify_model(&pruned, &dims, ErrorBoundConfig::default(), "pruned");
        assert!(pr.certified());
        assert_eq!(pl.error_count(), 0);
        // Pruning removes weights, so the pruned bound cannot exceed dense.
        assert!(pr.end_to_end_steps <= dr.end_to_end_steps);
    }

    #[test]
    fn mis_scaled_requantizer_blows_the_budget_with_t2c602() {
        let (clean, dims) = zoo::tiny_mlp();
        let (clean_report, _) = certify_model(&clean, &dims, ErrorBoundConfig::default(), "clean");
        let tolerance = clean_report.end_to_end_steps * 1.5;

        let (mut bad, _) = zoo::tiny_mlp();
        if let IntOp::Linear { requant: Some(mq), .. } = &mut bad.nodes[1].op {
            for s in &mut mq.scale_raw {
                *s *= 4;
            }
        } else {
            unreachable!();
        }
        let cfg = ErrorBoundConfig { tolerance_steps: tolerance };
        let (bad_report, bad_lint) = certify_model(&bad, &dims, cfg, "bad");
        assert!(bad_report.certified());
        assert!(bad_report.end_to_end_steps > tolerance, "{}", bad_report.to_text());
        assert!(ids(&bad_lint).contains(&"T2C602"), "got {:?}", ids(&bad_lint));
        let d = bad_lint.diagnostics.iter().find(|d| d.rule == Rule::ErrorBudgetExceeded).unwrap();
        assert!(d.message.contains("fc1"), "must name the offending layer: {}", d.message);
        // The clean model passes the same gate.
        let (ok_report, ok_lint) = certify_model(&clean, &dims, cfg, "clean");
        assert!(ok_report.pass());
        assert_eq!(ok_lint.error_count(), 0);
    }

    #[test]
    fn saturating_accumulator_is_uncertifiable_with_t2c601() {
        use t2c_core::intmodel::Src;
        use t2c_tensor::Tensor;
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 1.0, spec: QuantSpec::unsigned(8) }, vec![]);
        m.push(
            "hot",
            IntOp::Linear {
                weight: Tensor::from_vec(vec![1i32 << 24; 2], &[1, 2]).unwrap().into(),
                bias: None,
                requant: None,
                relu: false,
                weight_spec: QuantSpec::signed(31),
            },
            vec![Src::Input],
        );
        let (report, lint) = certify_model(&m, &[1, 2], ErrorBoundConfig::default(), "hot");
        assert!(!report.certified());
        assert!(ids(&lint).contains(&"T2C601"), "got {:?}", ids(&lint));
        assert!(!report.pass());
    }

    #[test]
    fn coarse_multiplier_on_wide_accumulator_warns_t2c604() {
        use t2c_core::intmodel::Src;
        use t2c_tensor::Tensor;
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 1.0, spec: QuantSpec::signed(8) }, vec![]);
        // INT(13, 3): step = 1/8, so the half-ulp term over a wide
        // accumulator dwarfs the rounding terms.
        m.push(
            "coarse",
            IntOp::Linear {
                weight: Tensor::from_vec(vec![3i32; 256], &[1, 256]).unwrap().into(),
                bias: None,
                requant: Some(MulQuant::from_float(
                    &[0.25],
                    &[0.0],
                    FixedPointFormat::int16_frac3(),
                    QuantSpec::signed(16),
                )),
                relu: false,
                weight_spec: QuantSpec::signed(3),
            },
            vec![Src::Input],
        );
        let (report, lint) = certify_model(&m, &[1, 256], ErrorBoundConfig::default(), "coarse");
        assert!(report.certified());
        assert!(ids(&lint).contains(&"T2C604"), "got {:?}", ids(&lint));
    }

    #[test]
    fn manifest_cross_check_fires_t2c605_on_underclaimed_bound() {
        let (m, dims) = zoo::tiny_mlp();
        let (report, _) = certify_model(&m, &dims, ErrorBoundConfig::default(), "mlp");
        let dir = std::env::temp_dir().join(format!("t2c_eb_605_{}", std::process::id()));
        let mut manifest = t2c_export::export_package(&m, &dir).unwrap();
        // An honest certificate passes the cross-check.
        t2c_export::write_certified(&mut manifest, report.to_certified()).unwrap();
        assert_eq!(lint_certified(&report, &manifest, "ok").error_count(), 0);
        // A manifest claiming a tighter bound than certifiable fails.
        let mut lying = manifest.clone();
        lying.certified = Some(CertifiedError {
            end_to_end_millisteps: report.end_to_end_millisteps() / 2,
            tolerance_millisteps: u64::MAX,
            layers: 3,
        });
        let r = lint_certified(&report, &lying, "lie");
        assert!(ids(&r).contains(&"T2C605"), "got {:?}", ids(&r));
        // A tolerance below the manifest's own bound is inconsistent too.
        let mut tight = manifest.clone();
        tight.certified = Some(CertifiedError {
            end_to_end_millisteps: report.end_to_end_millisteps(),
            tolerance_millisteps: report.end_to_end_millisteps().saturating_sub(1),
            layers: 3,
        });
        assert_eq!(lint_certified(&report, &tight, "tight").error_count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_zoo_certifies_finitely() {
        for (tag, build) in t2c_core::zoo::zoo() {
            let (model, dims) = build();
            let (report, lint) = certify_model(&model, &dims, ErrorBoundConfig::default(), tag);
            assert!(
                report.certified(),
                "{tag} must receive a finite bound:\n{}\n{}",
                report.to_text(),
                lint.to_text()
            );
            assert_eq!(lint.error_count(), 0, "{tag}: {}", lint.to_text());
        }
    }

    #[test]
    fn json_has_the_gate_keys_and_null_for_infinite() {
        let (m, dims) = zoo::tiny_mlp();
        let (report, _) = certify_model(&m, &dims, ErrorBoundConfig::default(), "mlp");
        let json = report.to_json();
        for key in ["version", "model", "per_layer", "end_to_end_steps", "tolerance", "pass"] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key} in {json}");
        }
        assert!(json.contains("\"pass\": true"));
        // Infinite tolerance renders as null, keeping the JSON valid.
        assert!(json.contains("\"tolerance\":null"));
    }
}
