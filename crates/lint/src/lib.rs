//! # t2c-lint — static integer-pipeline verifier
//!
//! Torch2Chip's promise is that the extracted integer-only path is
//! *correct by construction*: weights, scales and [`t2c_core::MulQuant`]
//! requantizers are fused so the hardware path matches the fake-quant path
//! bit for bit. This crate proves the load-bearing parts of that promise
//! **statically**, before anything reaches an RTL testbench:
//!
//! Items 1, 3 and 5 below are one walk over the graph ([`analyze`]): per
//! node it computes the shape, the proven interval and the certified
//! error state together, and [`lint_model`] and [`certify_model`] each
//! report the findings that belong to them.
//!
//! 1. **Interval dataflow** ([`analyze`]) — per-tensor (and, through
//!    conv/linear accumulators, per-channel) value ranges are propagated
//!    from the declared [`t2c_core::QuantSpec`] grids through every
//!    [`t2c_core::intmodel::IntOp`], proving the wide accumulators never
//!    leave `i32` and every `MulQuant` bias stays inside accumulator
//!    headroom.
//! 2. **Scale-chain consistency** — each requantizer's fixed-point
//!    multiply/shift must map the producer's worst-case output range into
//!    the consumer's declared grid; gross mismatches (a wrong shift) are
//!    errors, residual worst-case saturation risk is a warning.
//! 3. **Graph well-formedness** — dangling or forward `Src` references,
//!    arity, shape inference across all ops (core's
//!    [`t2c_core::intmodel::IntOp::out_dims`], the rule every executor
//!    shares), unreachable nodes, LUT domain coverage for the
//!    softmax/GELU tables.
//! 4. **Export cross-checks** ([`manifest`]) — an
//!    [`t2c_export::ExportManifest`] must agree with the analyzed graph on
//!    node names, element counts and bit widths.
//! 5. **Quantization-error certification** ([`errorbound`]) — the walk
//!    also propagates a *sound* bound on
//!    `|float_reference − dequant(int_value)|` per tensor, yielding a
//!    per-layer and end-to-end [`ErrorReport`] plus the `T2C6xx` rule
//!    family; `t2c-serve` gates admission on it.
//!
//! Every finding is a [`Diagnostic`] carrying a stable [`Rule`] id, a
//! [`Severity`], the layer name and a fix hint. The `t2c-check` binary
//! runs the pass over the quickstart/e2e models and their exported
//! packages, emits text and JSON reports and exits non-zero on
//! error-level findings — `scripts/verify.sh` runs it as the
//! model-correctness gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod errorbound;
pub mod interval;
pub mod manifest;

use std::fmt;

pub use analyze::{lint_model, NodeSummary};
pub use errorbound::{
    certify_model, lint_certified, ErrorBoundConfig, ErrorReport, LayerErrorBound,
};
pub use interval::Interval;
pub use manifest::lint_package;

use t2c_obs::report::{json_num, json_str};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note; never gates anything.
    Info,
    /// Worst-case hazard (e.g. saturation under adversarial inputs) that a
    /// calibrated model may legitimately carry. Gates [`LintReport::
    /// is_clean`] but not the `t2c-check` exit code.
    Warn,
    /// Provable malfunction: overflow, a panic path, a broken scale chain
    /// or an export mismatch. Gates the `t2c-check` exit code.
    Error,
}

impl Severity {
    /// Lower-case label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The stable rule identifiers of the static verifier.
///
/// Numbering groups: `T2C0xx` graph well-formedness, `T2C1xx` integer
/// overflow proofs, `T2C2xx` scale-chain consistency, `T2C3xx` LUT domain
/// coverage, `T2C4xx` export cross-checks, `T2C5xx` sparse-layout
/// integrity, `T2C6xx` quantization-error certification. DESIGN.md §6.7
/// documents what each rule proves and its severity policy (§6.11 for the
/// error-certification family).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// T2C001 — the graph must start with a `Quantize` node.
    MissingQuantize,
    /// T2C002 — a `Src::Node` index points past the end of the graph.
    DanglingSrc,
    /// T2C003 — a `Src::Node` index points at itself or a later node.
    ForwardSrc,
    /// T2C004 — a node lists fewer operands than its op consumes.
    MissingOperand,
    /// T2C005 — core's shape rule (`IntOp::out_dims`) refused the node:
    /// a rank, extent or parameter-length mismatch.
    ShapeMismatch,
    /// T2C006 — a node's output is never consumed and it is not the model
    /// output.
    UnreachableNode,
    /// T2C101 — a conv/linear/bmm accumulator (or pooling sum) can leave
    /// `i32`, so the saturating MAC array would silently clip.
    AccOverflow,
    /// T2C102 — a `MulQuant` bias exceeds the accumulator headroom cap the
    /// requantizer epilogue supports.
    BiasHeadroom,
    /// T2C103 — the requantization product `acc·M + B` (or a pooling
    /// product) can leave `i64`.
    WideProductOverflow,
    /// T2C201 — the requantizer's multiply/shift does not map the
    /// producer's range into the output grid (error when grossly off,
    /// warning for residual worst-case saturation).
    ScaleChain,
    /// T2C202 — a fixed-point multiplier quantized to zero: the channel's
    /// output collapses to its bias.
    ZeroMultiplier,
    /// T2C203 — a fixed-point multiplier retains fewer than 3 significant
    /// bits; the fractional width is too small for the requested scale.
    LowPrecisionScale,
    /// T2C204 — weight codes lie outside the declared weight grid, so the
    /// declared bit width under-reports storage and range metadata.
    WeightOffGrid,
    /// T2C301 — a LUT does not cover its declared input domain (a GELU
    /// table shorter than the input grid is an out-of-bounds panic at
    /// runtime).
    LutDomainGap,
    /// T2C302 — producer codes can fall outside the LUT's covered domain
    /// and are clamped/truncated (softmax tail, GELU input clamp).
    LutRangeTruncated,
    /// T2C401 — manifest node list disagrees with the graph (missing or
    /// unknown weight entries).
    ManifestNodeMismatch,
    /// T2C402 — a manifest element count disagrees with the weight tensor.
    ManifestCountMismatch,
    /// T2C403 — a manifest bit width disagrees with the declared weight
    /// grid.
    ManifestWidthMismatch,
    /// T2C501 — a sparse weight's mask/row-pointer structure disagrees
    /// with its packed payload (or the manifest's sparse section disagrees
    /// with the graph's layout), so the skip-zero kernel would read the
    /// wrong values.
    SparseMaskMismatch,
    /// T2C502 — an N:M-encoded weight violates its declared structural
    /// constraint (bad pattern, per-group slot count, or group offsets).
    NmConstraintViolation,
    /// T2C503 — a sparse layer's declared sparsity disagrees with the
    /// actual stored-slot fraction, so size/speedup accounting derived
    /// from the declaration is wrong.
    SparsityMismatch,
    /// T2C601 — the error certifier cannot bound a node's float↔int
    /// divergence (analysis failed upstream, or a saturating accumulator
    /// makes the divergence unbounded), so no end-to-end certificate
    /// exists.
    Uncertifiable,
    /// T2C602 — the certified end-to-end error bound exceeds the
    /// configured tolerance; the message names the worst-contributing
    /// layer.
    ErrorBudgetExceeded,
    /// T2C603 — a LUT's local error (table entries plus domain clamping)
    /// dominates the error budget at its node.
    LutErrorDominates,
    /// T2C604 — the half-ulp of a fixed-point multiplier, amplified by the
    /// accumulator envelope, dominates a layer's local error: the scale
    /// chain amplifies quantization error faster than rounding does.
    ScaleErrorAmplification,
    /// T2C605 — a package manifest's `certified_error` section is
    /// inconsistent with the bound freshly certified from the model it
    /// ships.
    ManifestCertifiedMismatch,
}

impl Rule {
    /// The stable `T2Cxxx` identifier.
    pub fn id(self) -> &'static str {
        match self {
            Rule::MissingQuantize => "T2C001",
            Rule::DanglingSrc => "T2C002",
            Rule::ForwardSrc => "T2C003",
            Rule::MissingOperand => "T2C004",
            Rule::ShapeMismatch => "T2C005",
            Rule::UnreachableNode => "T2C006",
            Rule::AccOverflow => "T2C101",
            Rule::BiasHeadroom => "T2C102",
            Rule::WideProductOverflow => "T2C103",
            Rule::ScaleChain => "T2C201",
            Rule::ZeroMultiplier => "T2C202",
            Rule::LowPrecisionScale => "T2C203",
            Rule::WeightOffGrid => "T2C204",
            Rule::LutDomainGap => "T2C301",
            Rule::LutRangeTruncated => "T2C302",
            Rule::ManifestNodeMismatch => "T2C401",
            Rule::ManifestCountMismatch => "T2C402",
            Rule::ManifestWidthMismatch => "T2C403",
            Rule::SparseMaskMismatch => "T2C501",
            Rule::NmConstraintViolation => "T2C502",
            Rule::SparsityMismatch => "T2C503",
            Rule::Uncertifiable => "T2C601",
            Rule::ErrorBudgetExceeded => "T2C602",
            Rule::LutErrorDominates => "T2C603",
            Rule::ScaleErrorAmplification => "T2C604",
            Rule::ManifestCertifiedMismatch => "T2C605",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One finding of the static verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: Rule,
    /// How bad it is.
    pub severity: Severity,
    /// Graph node index the finding anchors to, when node-scoped.
    pub node: Option<usize>,
    /// Layer name (or package artifact) the finding belongs to.
    pub layer: String,
    /// What is wrong, with the concrete numbers.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

impl Diagnostic {
    /// Builds a node-scoped diagnostic.
    pub fn node(
        rule: Rule,
        severity: Severity,
        node: usize,
        layer: impl Into<String>,
        message: impl Into<String>,
        hint: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule,
            severity,
            node: Some(node),
            layer: layer.into(),
            message: message.into(),
            hint: hint.into(),
        }
    }

    /// Builds a model- or package-scoped diagnostic.
    pub fn global(
        rule: Rule,
        severity: Severity,
        layer: impl Into<String>,
        message: impl Into<String>,
        hint: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule,
            severity,
            node: None,
            layer: layer.into(),
            message: message.into(),
            hint: hint.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let at = match self.node {
            Some(i) => format!("#{i} "),
            None => String::new(),
        };
        write!(
            f,
            "{:<5} {} {at}{}: {} (hint: {})",
            self.severity.label().to_uppercase(),
            self.rule,
            self.layer,
            self.message,
            self.hint
        )
    }
}

/// Top-level JSON keys every `t2c-check` report contains;
/// `scripts/verify.sh` and the schema unit test both check this list.
pub const REQUIRED_KEYS: [&str; 6] = ["version", "tag", "summary", "findings", "nodes", "verdict"];

/// Lint report schema version embedded in every JSON dump.
pub const SCHEMA_VERSION: u32 = 1;

/// The result of a lint pass: findings plus the per-node range metadata
/// the interval analysis derived.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Caller-chosen label (model name, package path, ...).
    pub tag: String,
    /// All findings, in graph order.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-node analysis summaries (name, op label, shape, value range).
    pub nodes: Vec<NodeSummary>,
}

impl LintReport {
    /// Number of findings at the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == severity).count()
    }

    /// Number of error-level findings — the `t2c-check` exit-code gate.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// `true` when the pass produced **no warnings and no errors**. A clean
    /// model is statically proven never to saturate a requantizer for any
    /// input on the declared grids — the property the static/dynamic
    /// agreement suite checks.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.iter().all(|d| d.severity == Severity::Info)
    }

    /// Merges another report's findings (e.g. package checks) into this
    /// one.
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
        if self.nodes.is_empty() {
            self.nodes = other.nodes;
        }
    }

    /// The one-word verdict: `pass` (no errors) or `fail`.
    pub fn verdict(&self) -> &'static str {
        if self.error_count() == 0 {
            "pass"
        } else {
            "fail"
        }
    }

    /// Human-readable multi-line rendering.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "t2c-lint [{}]: {} node(s), {} error(s), {} warning(s), {} info — {}",
            self.tag,
            self.nodes.len(),
            self.error_count(),
            self.count(Severity::Warn),
            self.count(Severity::Info),
            self.verdict(),
        );
        for d in &self.diagnostics {
            let _ = writeln!(s, "  {d}");
        }
        s
    }

    /// Renders the report as a self-contained JSON document with the
    /// [`REQUIRED_KEYS`] top-level fields (same string/number encoding as
    /// the `t2c-obs` profile reports).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(2048);
        let _ = write!(s, "{{\"version\":{SCHEMA_VERSION},\"tag\":{}", json_str(&self.tag));
        let _ = write!(
            s,
            ",\"summary\":{{\"errors\":{},\"warnings\":{},\"infos\":{}}}",
            self.error_count(),
            self.count(Severity::Warn),
            self.count(Severity::Info)
        );
        s.push_str(",\"findings\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"rule\":{},\"severity\":{},\"node\":{},\"layer\":{},\"message\":{},\"hint\":{}}}",
                json_str(d.rule.id()),
                json_str(d.severity.label()),
                d.node.map_or("null".to_owned(), |n| n.to_string()),
                json_str(&d.layer),
                json_str(&d.message),
                json_str(&d.hint),
            );
        }
        s.push_str("],\"nodes\":[");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let shape =
                n.shape.iter().map(std::string::ToString::to_string).collect::<Vec<_>>().join(",");
            let _ = write!(
                s,
                "{{\"id\":{},\"name\":{},\"op\":{},\"shape\":[{shape}],\"lo\":{},\"hi\":{}}}",
                n.id,
                json_str(&n.name),
                json_str(n.op),
                json_num(n.lo as f64),
                json_num(n.hi as f64),
            );
        }
        let _ = write!(s, "],\"verdict\":{}}}", json_str(self.verdict()));
        s
    }
}

/// Checks a JSON lint report for the [`REQUIRED_KEYS`]; returns the
/// missing ones. A substring scan suffices because every required key is a
/// top-level field the serializer always emits.
pub fn validate_schema(json: &str) -> Result<(), Vec<String>> {
    let missing: Vec<String> = REQUIRED_KEYS
        .iter()
        .filter(|k| !json.contains(&format!("\"{k}\":")))
        .map(|k| (*k).to_owned())
        .collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(missing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LintReport {
        LintReport {
            tag: "unit".into(),
            diagnostics: vec![
                Diagnostic::node(
                    Rule::AccOverflow,
                    Severity::Error,
                    3,
                    "conv1",
                    "accumulator range [-6e9, 6e9] exceeds i32",
                    "reduce weight magnitude or widen the accumulator",
                ),
                Diagnostic::global(
                    Rule::UnreachableNode,
                    Severity::Warn,
                    "dead",
                    "output never consumed",
                    "remove the node",
                ),
            ],
            nodes: vec![NodeSummary {
                id: 0,
                name: "input".into(),
                op: "quantize",
                shape: vec![1, 3, 8, 8],
                lo: -128,
                hi: 127,
            }],
        }
    }

    #[test]
    fn counts_and_verdict() {
        let r = sample();
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.count(Severity::Warn), 1);
        assert!(!r.is_clean());
        assert_eq!(r.verdict(), "fail");
        let clean = LintReport { tag: "ok".into(), ..Default::default() };
        assert!(clean.is_clean());
        assert_eq!(clean.verdict(), "pass");
    }

    #[test]
    fn json_passes_schema_and_contains_findings() {
        let json = sample().to_json();
        validate_schema(&json).expect("schema");
        assert!(json.contains("\"rule\":\"T2C101\""));
        assert!(json.contains("\"severity\":\"error\""));
        assert!(json.contains("\"verdict\":\"fail\""));
        assert!(json.contains("\"shape\":[1,3,8,8]"));
    }

    #[test]
    fn schema_check_reports_missing_keys() {
        let err = validate_schema("{\"version\":1}").unwrap_err();
        assert!(err.contains(&"findings".to_owned()));
        assert!(err.contains(&"verdict".to_owned()));
        assert!(!err.contains(&"version".to_owned()));
    }

    #[test]
    fn text_rendering_lists_rule_ids() {
        let text = sample().to_text();
        assert!(text.contains("T2C101"));
        assert!(text.contains("ERROR"));
        assert!(text.contains("conv1"));
        assert!(text.contains("fail"));
    }

    #[test]
    fn rule_ids_are_unique_and_stable() {
        let all = [
            Rule::MissingQuantize,
            Rule::DanglingSrc,
            Rule::ForwardSrc,
            Rule::MissingOperand,
            Rule::ShapeMismatch,
            Rule::UnreachableNode,
            Rule::AccOverflow,
            Rule::BiasHeadroom,
            Rule::WideProductOverflow,
            Rule::ScaleChain,
            Rule::ZeroMultiplier,
            Rule::LowPrecisionScale,
            Rule::WeightOffGrid,
            Rule::LutDomainGap,
            Rule::LutRangeTruncated,
            Rule::ManifestNodeMismatch,
            Rule::ManifestCountMismatch,
            Rule::ManifestWidthMismatch,
            Rule::SparseMaskMismatch,
            Rule::NmConstraintViolation,
            Rule::SparsityMismatch,
            Rule::Uncertifiable,
            Rule::ErrorBudgetExceeded,
            Rule::LutErrorDominates,
            Rule::ScaleErrorAmplification,
            Rule::ManifestCertifiedMismatch,
        ];
        let mut ids: Vec<&str> = all.iter().map(|r| r.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), all.len(), "duplicate rule id");
    }
}
