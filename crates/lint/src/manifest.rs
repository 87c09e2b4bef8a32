//! Export cross-checks: an [`ExportManifest`] must agree with the
//! analyzed graph on which nodes carry weights, how many codes each
//! weight memory holds, and the bit width the hex images were packed at.

use std::collections::BTreeMap;

use t2c_core::IntModel;
use t2c_export::{ExportManifest, SparseEntry};

use crate::{Diagnostic, LintReport, Rule, Severity};

/// Cross-checks `manifest` against `model` and returns the findings as a
/// [`LintReport`] (no node summaries — merge into an [`crate::lint_model`]
/// report for those).
///
/// Rules: `T2C401` node-list disagreement, `T2C402` element-count
/// disagreement, `T2C403` bit-width disagreement, `T2C501` sparse layout
/// disagreement (the manifest's sparse section must mirror the graph's
/// compressed layers exactly).
pub fn lint_package(model: &IntModel, manifest: &ExportManifest, tag: &str) -> LintReport {
    let mut diags = Vec::new();

    // What the graph says should be in the package: every weighted node.
    // Sparse layers contribute their *stored* slot count — the hex image
    // holds only the packed payload.
    let mut expected: BTreeMap<&str, (usize, u8)> = BTreeMap::new();
    let mut expected_sparse: BTreeMap<&str, SparseEntry> = BTreeMap::new();
    for node in &model.nodes {
        if let Some((codes, spec)) = node.op.weight_codes() {
            expected.insert(node.name.as_str(), (codes.len(), spec.bits));
        }
        if let Some(entry) = SparseEntry::of(node) {
            expected_sparse.insert(node.name.as_str(), entry);
        }
    }

    for (name, path, count, bits) in &manifest.hex_files {
        match expected.remove(name.as_str()) {
            None => diags.push(Diagnostic::global(
                Rule::ManifestNodeMismatch,
                Severity::Error,
                name.clone(),
                format!(
                    "manifest lists weight memory {} for a node the graph does not declare weights for",
                    path.display()
                ),
                "regenerate the package from the current model",
            )),
            Some((numel, wbits)) => {
                if *count != numel {
                    diags.push(Diagnostic::global(
                        Rule::ManifestCountMismatch,
                        Severity::Error,
                        name.clone(),
                        format!(
                            "manifest records {count} weight code(s) but the graph tensor holds {numel}"
                        ),
                        "regenerate the package; the weight tensor changed after export",
                    ));
                }
                if *bits != wbits {
                    diags.push(Diagnostic::global(
                        Rule::ManifestWidthMismatch,
                        Severity::Error,
                        name.clone(),
                        format!(
                            "hex images were packed at int{bits} but the graph declares an int{wbits} weight grid"
                        ),
                        "re-export so the memory images match the declared weight_spec",
                    ));
                }
            }
        }
    }

    for (name, (numel, bits)) in expected {
        diags.push(Diagnostic::global(
            Rule::ManifestNodeMismatch,
            Severity::Error,
            name,
            format!(
                "graph node carries {numel} int{bits} weight code(s) but the manifest has no memory image for it"
            ),
            "regenerate the package from the current model",
        ));
    }

    // Sparse section: every compressed layer in the graph must appear with
    // the same layout and slot accounting, and vice versa.
    for entry in &manifest.sparse {
        match expected_sparse.remove(entry.node.as_str()) {
            None => diags.push(Diagnostic::global(
                Rule::ManifestNodeMismatch,
                Severity::Error,
                entry.node.clone(),
                "manifest sparse section lists a node the graph does not hold a sparse layer for"
                    .to_owned(),
                "regenerate the package from the current model",
            )),
            Some(SparseEntry { layout, stored, total, .. }) => {
                if entry.stored != stored || entry.total != total {
                    diags.push(Diagnostic::global(
                        Rule::ManifestCountMismatch,
                        Severity::Error,
                        entry.node.clone(),
                        format!(
                            "manifest records {}/{} stored slots but the graph layout packs {stored}/{total}",
                            entry.stored, entry.total
                        ),
                        "regenerate the package; the sparse layout changed after export",
                    ));
                }
                if entry.layout != layout {
                    diags.push(Diagnostic::global(
                        Rule::SparseMaskMismatch,
                        Severity::Error,
                        entry.node.clone(),
                        format!(
                            "manifest declares layout `{}` but the graph weight is `{layout}`",
                            entry.layout
                        ),
                        "regenerate the package so the manifest mirrors the packed encoding",
                    ));
                }
            }
        }
    }
    for (name, SparseEntry { layout, stored, total, .. }) in expected_sparse {
        diags.push(Diagnostic::global(
            Rule::ManifestNodeMismatch,
            Severity::Error,
            name,
            format!(
                "graph holds a `{layout}` sparse layer ({stored}/{total} slots) absent from the manifest sparse section"
            ),
            "regenerate the package from the current model",
        ));
    }

    LintReport { tag: tag.to_owned(), diagnostics: diags, nodes: Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use t2c_core::intmodel::{IntOp, LinearWeight, Src};
    use t2c_core::{FixedPointFormat, IntModel, MulQuant, QuantSpec};
    use t2c_tensor::ops::Conv2dSpec;
    use t2c_tensor::Tensor;

    fn tiny_model() -> IntModel {
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 1.0, spec: QuantSpec::unsigned(8) }, vec![]);
        m.push(
            "conv1",
            IntOp::Conv2d {
                weight: Tensor::from_vec(vec![1i32; 8 * 3 * 3 * 3], &[8, 3, 3, 3]).unwrap(),
                bias: None,
                spec: Conv2dSpec::new(1, 1),
                requant: MulQuant::from_float(
                    &[0.01],
                    &[0.0],
                    FixedPointFormat::int16_frac12(),
                    QuantSpec::unsigned(8),
                ),
                relu: true,
                weight_spec: QuantSpec::signed(4),
            },
            vec![Src::Input],
        );
        m
    }

    fn manifest_for(entries: Vec<(String, PathBuf, usize, u8)>) -> ExportManifest {
        ExportManifest {
            root: PathBuf::from("pkg"),
            model_file: PathBuf::from("pkg/model.t2cm"),
            hex_files: entries,
            sparse: Vec::new(),
            certified: None,
            total_bytes: 0,
        }
    }

    fn sparse_model() -> IntModel {
        let dense = t2c_tensor::Tensor::from_fn(&[2, 8], |i| i32::from(i % 4 == 0));
        let weight = t2c_tensor::SparseMat::from_dense(&dense).unwrap();
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 1.0, spec: QuantSpec::signed(4) }, vec![]);
        m.push(
            "fc_sparse",
            IntOp::Linear {
                weight: LinearWeight::sparse(weight),
                bias: None,
                requant: None,
                relu: false,
                weight_spec: QuantSpec::signed(2),
            },
            vec![Src::Input],
        );
        m
    }

    #[test]
    fn agreeing_manifest_is_clean() {
        let model = tiny_model();
        let mf = manifest_for(vec![(
            "conv1".into(),
            PathBuf::from("pkg/hex/001_conv1.hex"),
            8 * 3 * 3 * 3,
            4,
        )]);
        let report = lint_package(&model, &mf, "unit");
        assert!(report.is_clean(), "unexpected findings: {}", report.to_text());
    }

    #[test]
    fn missing_and_unknown_entries_fire_t2c401() {
        let model = tiny_model();
        // Unknown node in the manifest, and conv1 absent.
        let mf =
            manifest_for(vec![("ghost".into(), PathBuf::from("pkg/hex/009_ghost.hex"), 10, 4)]);
        let report = lint_package(&model, &mf, "unit");
        let ids: Vec<&str> = report.diagnostics.iter().map(|d| d.rule.id()).collect();
        assert_eq!(ids, vec!["T2C401", "T2C401"]);
        assert_eq!(report.error_count(), 2);
    }

    #[test]
    fn agreeing_sparse_manifest_is_clean() {
        let model = sparse_model();
        let mut mf = manifest_for(vec![(
            "fc_sparse".into(),
            PathBuf::from("pkg/hex/001_fc_sparse.hex"),
            4, // 4 stored non-zeros out of 16
            2,
        )]);
        mf.sparse.push(t2c_export::SparseEntry {
            node: "fc_sparse".into(),
            layout: "bitmask".into(),
            stored: 4,
            total: 16,
        });
        let report = lint_package(&model, &mf, "unit");
        assert!(report.is_clean(), "unexpected findings: {}", report.to_text());
    }

    #[test]
    fn sparse_section_disagreements_fire_t2c402_and_t2c501() {
        let model = sparse_model();
        let mut mf = manifest_for(vec![(
            "fc_sparse".into(),
            PathBuf::from("pkg/hex/001_fc_sparse.hex"),
            4,
            2,
        )]);
        mf.sparse.push(t2c_export::SparseEntry {
            node: "fc_sparse".into(),
            layout: "2:4".into(), // graph packs a bitmask
            stored: 7,            // wrong slot count
            total: 16,
        });
        let report = lint_package(&model, &mf, "unit");
        let ids: Vec<&str> = report.diagnostics.iter().map(|d| d.rule.id()).collect();
        assert!(ids.contains(&"T2C402"), "got {ids:?}");
        assert!(ids.contains(&"T2C501"), "got {ids:?}");
    }

    #[test]
    fn missing_sparse_section_fires_t2c401() {
        let model = sparse_model();
        // Hex image present but no sparse entry at all.
        let mf = manifest_for(vec![(
            "fc_sparse".into(),
            PathBuf::from("pkg/hex/001_fc_sparse.hex"),
            4,
            2,
        )]);
        let report = lint_package(&model, &mf, "unit");
        let ids: Vec<&str> = report.diagnostics.iter().map(|d| d.rule.id()).collect();
        assert_eq!(ids, vec!["T2C401"]);
    }

    #[test]
    fn count_and_width_mismatches_fire_t2c402_t2c403() {
        let model = tiny_model();
        let mf = manifest_for(vec![(
            "conv1".into(),
            PathBuf::from("pkg/hex/001_conv1.hex"),
            7, // wrong count
            8, // wrong width
        )]);
        let report = lint_package(&model, &mf, "unit");
        let ids: Vec<&str> = report.diagnostics.iter().map(|d| d.rule.id()).collect();
        assert!(ids.contains(&"T2C402"), "got {ids:?}");
        assert!(ids.contains(&"T2C403"), "got {ids:?}");
    }
}
