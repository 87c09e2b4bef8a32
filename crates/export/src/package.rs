//! Deployment packages: one directory containing every export format plus
//! a manifest, ready to hand to an RTL verification flow.

use std::fs;
use std::path::{Path, PathBuf};

use t2c_core::intmodel::{IntNode, IntOp, LinearWeight};
use t2c_core::IntModel;

use crate::binary::{read_intmodel, write_intmodel};
use crate::hexfmt::{from_hex_lines, to_binary_lines, to_hex_lines};
use crate::Result;

/// What [`export_package`] wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportManifest {
    /// Package root.
    pub root: PathBuf,
    /// Path of the binary model file.
    pub model_file: PathBuf,
    /// `(node name, hex weight file, element count, bit width)` entries.
    /// For sparse layers the element count is the *stored* (packed)
    /// non-zero count — the hex image holds only the payload values.
    pub hex_files: Vec<(String, PathBuf, usize, u8)>,
    /// Per-sparse-layer metadata (empty for dense-only models).
    pub sparse: Vec<SparseEntry>,
    /// The package's quantization-error certificate, when one was attached
    /// with [`write_certified`].
    pub certified: Option<CertifiedError>,
    /// Total bytes written across all artifacts.
    pub total_bytes: usize,
}

/// A sound float↔int divergence certificate shipped with a package.
///
/// Integer-only on purpose (the manifest derives `Eq`): bounds are stored
/// in **milli-steps** of the model's final output quantization unit,
/// rounded up so the stored claim never under-reports the proven bound.
/// `u64::MAX` means "no finite bound" — for `end_to_end_millisteps` an
/// uncertifiable model, for `tolerance_millisteps` an unset tolerance.
/// `t2c-lint`'s rule T2C605 cross-checks this section against a fresh
/// certification of the shipped model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertifiedError {
    /// Certified end-to-end error bound, in milli-steps (rounded up).
    pub end_to_end_millisteps: u64,
    /// The tolerance the certification was gated against, in milli-steps.
    pub tolerance_millisteps: u64,
    /// Number of layers the certificate covers.
    pub layers: u32,
}

/// Manifest record for one compressed sparse layer.
///
/// Integer-only on purpose: the manifest derives `Eq`, and the lint gate
/// cross-checks these counts against the graph (declared float sparsity
/// lives in the op payload itself, checked by rule T2C503).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseEntry {
    /// Node name.
    pub node: String,
    /// Layout label: `"bitmask"` or `"n:m"`.
    pub layout: String,
    /// Packed (stored) slot count — the hex image's element count.
    pub stored: usize,
    /// Dense element count (`rows · cols`).
    pub total: usize,
}

impl SparseEntry {
    /// The record for `node`, when it holds a compressed linear weight.
    pub fn of(node: &IntNode) -> Option<Self> {
        let IntOp::Linear { weight: LinearWeight::Sparse { mat, .. }, .. } = &node.op else {
            return None;
        };
        Some(SparseEntry {
            node: node.name.clone(),
            layout: mat.layout_label(),
            stored: mat.stored(),
            total: mat.rows * mat.cols,
        })
    }
}

fn sanitized(name: &str) -> String {
    name.chars().map(|c| if c.is_alphanumeric() { c } else { '_' }).collect()
}

/// Writes the full deployment package:
///
/// ```text
/// dir/model.t2cm       — checksummed binary op graph
/// dir/manifest.txt     — human-readable op list
/// dir/hex/*.hex        — per-layer weight memory images ($readmemh)
/// dir/bin/*.mem        — the same in binary text ($readmemb)
/// dir/dec/*.txt        — decimal dumps
/// ```
///
/// # Errors
///
/// Returns an error on I/O failure or unencodable values.
pub fn export_package(model: &IntModel, dir: &Path) -> Result<ExportManifest> {
    fs::create_dir_all(dir.join("hex"))?;
    fs::create_dir_all(dir.join("bin"))?;
    fs::create_dir_all(dir.join("dec"))?;
    let mut total = 0usize;
    // Binary model file.
    let model_bytes = write_intmodel(model);
    total += model_bytes.len();
    let model_file = dir.join("model.t2cm");
    fs::write(&model_file, &model_bytes)?;
    // Per-layer weight memories.
    let mut hex_files = Vec::new();
    let mut sparse = Vec::new();
    let mut manifest = String::from("# Torch2Chip deployment package\n");
    for (i, node) in model.nodes.iter().enumerate() {
        manifest.push_str(&format!("node {i}: {} ({})\n", node.name, node.op.label()));
        let Some((codes, spec)) = node.op.weight_codes() else { continue };
        let bits = spec.bits;
        if let Some(entry) = SparseEntry::of(node) {
            manifest.push_str(&format!(
                "  sparse: {} layout, {}/{} slots stored\n",
                entry.layout, entry.stored, entry.total
            ));
            sparse.push(entry);
        }
        let base = format!("{i:03}_{}", sanitized(&node.name));
        let hex_path = dir.join("hex").join(format!("{base}.hex"));
        let hex_lines = to_hex_lines(codes, bits)?;
        let hex_payload = hex_lines.join("\n") + "\n";
        total += hex_payload.len();
        fs::write(&hex_path, hex_payload)?;
        let bin_lines = to_binary_lines(codes, bits)?;
        let bin_payload = bin_lines.join("\n") + "\n";
        total += bin_payload.len();
        fs::write(dir.join("bin").join(format!("{base}.mem")), bin_payload)?;
        let dec_payload =
            codes.iter().map(std::string::ToString::to_string).collect::<Vec<_>>().join("\n")
                + "\n";
        total += dec_payload.len();
        fs::write(dir.join("dec").join(format!("{base}.txt")), dec_payload)?;
        manifest.push_str(&format!("  weights: {} × int{bits} → hex/{base}.hex\n", codes.len()));
        hex_files.push((node.name.clone(), hex_path, codes.len(), bits));
    }
    total += manifest.len();
    fs::write(dir.join("manifest.txt"), manifest)?;
    Ok(ExportManifest {
        root: dir.to_path_buf(),
        model_file,
        hex_files,
        sparse,
        certified: None,
        total_bytes: total,
    })
}

/// Attaches a quantization-error certificate to an exported package:
/// writes `certified.txt` into the package root and records the section in
/// the manifest. [`read_package`] picks the file up again, so the
/// certificate travels with the artifacts.
///
/// # Errors
///
/// Returns an error on I/O failure.
pub fn write_certified(manifest: &mut ExportManifest, cert: CertifiedError) -> Result<()> {
    let body = format!(
        "end_to_end_millisteps {}\ntolerance_millisteps {}\nlayers {}\n",
        cert.end_to_end_millisteps, cert.tolerance_millisteps, cert.layers
    );
    fs::write(manifest.root.join("certified.txt"), body)?;
    manifest.certified = Some(cert);
    Ok(())
}

/// Parses a package's `certified.txt`, if present. A malformed file is an
/// error — a half-readable certificate must not silently downgrade to
/// "uncertified".
fn read_certified(dir: &Path) -> Result<Option<CertifiedError>> {
    let path = dir.join("certified.txt");
    if !path.is_file() {
        return Ok(None);
    }
    let content = fs::read_to_string(&path)?;
    let mut end = None;
    let mut tol = None;
    let mut layers = None;
    for line in content.lines() {
        let mut it = line.split_whitespace();
        let (Some(key), Some(val)) = (it.next(), it.next()) else { continue };
        let slot = match key {
            "end_to_end_millisteps" => &mut end,
            "tolerance_millisteps" => &mut tol,
            "layers" => &mut layers,
            _ => continue,
        };
        *slot = Some(val.parse::<u64>().map_err(|_| {
            crate::ExportError::Malformed(format!("certified.txt: bad value for {key}: {val}"))
        })?);
    }
    match (end, tol, layers) {
        (Some(e), Some(t), Some(l)) => Ok(Some(CertifiedError {
            end_to_end_millisteps: e,
            tolerance_millisteps: t,
            layers: u32::try_from(l).unwrap_or(u32::MAX),
        })),
        _ => Err(crate::ExportError::Malformed(
            "certified.txt is missing one of end_to_end_millisteps/tolerance_millisteps/layers"
                .to_owned(),
        )),
    }
}

/// Reloads every artifact in a package and verifies bit-exactness:
/// the binary model must round-trip, and every hex memory image must decode
/// to exactly the weights inside it.
///
/// Returns the reloaded model on success.
///
/// # Errors
///
/// Returns an error on any mismatch or unreadable artifact.
pub fn verify_package(manifest: &ExportManifest) -> Result<IntModel> {
    let bytes = fs::read(&manifest.model_file)?;
    let model = read_intmodel(&bytes)?;
    for (name, hex_path, count, bits) in &manifest.hex_files {
        let content = fs::read_to_string(hex_path)?;
        let node = model
            .nodes
            .iter()
            .find(|n| &n.name == name)
            .ok_or_else(|| crate::ExportError::Malformed(format!("node {name} missing")))?;
        let Some((weights, spec)) = node.op.weight_codes() else {
            return Err(crate::ExportError::Malformed(format!("node {name} has no weights")));
        };
        let decoded = from_hex_lines(content.lines(), *bits, spec.signed)?;
        if decoded.len() != *count || decoded != weights {
            return Err(crate::ExportError::Malformed(format!(
                "hex image {} does not match model weights",
                hex_path.display()
            )));
        }
    }
    Ok(model)
}

/// Loads a package directory written by [`export_package`] **without** a
/// pre-existing manifest: the manifest is reconstructed from the binary
/// model (node order, weight counts, declared bit widths) and then the
/// whole package is re-verified with [`verify_package`], so a tampered or
/// incomplete directory is rejected exactly like a tampered manifest.
///
/// This is the entry point for consumers that receive a package as opaque
/// files — the serving runtime's model registry feeds every deployment
/// through it before admission.
///
/// `total_bytes` in the reconstructed manifest counts the artifacts that
/// were actually re-read (binary model + hex images), not the decimal and
/// binary-text mirrors.
///
/// # Errors
///
/// Returns an error if the binary model is unreadable or corrupt, a weight
/// image named by the graph is missing, or any artifact fails the
/// bit-exactness check.
pub fn read_package(dir: &Path) -> Result<(IntModel, ExportManifest)> {
    let model_file = dir.join("model.t2cm");
    let bytes = fs::read(&model_file)?;
    let model = read_intmodel(&bytes)?;
    let mut total = bytes.len();
    let mut hex_files = Vec::new();
    let mut sparse = Vec::new();
    for (i, node) in model.nodes.iter().enumerate() {
        let Some((codes, spec)) = node.op.weight_codes() else { continue };
        let (count, bits) = (codes.len(), spec.bits);
        sparse.extend(SparseEntry::of(node));
        let base = format!("{i:03}_{}", sanitized(&node.name));
        let hex_path = dir.join("hex").join(format!("{base}.hex"));
        if !hex_path.is_file() {
            return Err(crate::ExportError::Malformed(format!(
                "package is missing weight image hex/{base}.hex for node {}",
                node.name
            )));
        }
        total += fs::metadata(&hex_path).map_or(0, |m| m.len() as usize);
        hex_files.push((node.name.clone(), hex_path, count, bits));
    }
    let manifest = ExportManifest {
        root: dir.to_path_buf(),
        model_file,
        hex_files,
        sparse,
        certified: read_certified(dir)?,
        total_bytes: total,
    };
    let model = verify_package(&manifest)?;
    Ok((model, manifest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2c_core::intmodel::Src;
    use t2c_core::{FixedPointFormat, MulQuant, QuantSpec};
    use t2c_tensor::ops::Conv2dSpec;
    use t2c_tensor::Tensor;

    fn sample() -> IntModel {
        let mut m = IntModel::new();
        m.push("input", IntOp::Quantize { scale: 0.1, spec: QuantSpec::signed(8) }, vec![]);
        m.push(
            "conv1",
            IntOp::Conv2d {
                weight: Tensor::from_fn(&[2, 1, 3, 3], |i| (i as i32 % 15) - 7),
                bias: None,
                spec: Conv2dSpec::new(1, 1),
                requant: MulQuant::from_float(
                    &[0.5],
                    &[0.0],
                    FixedPointFormat::int16_frac12(),
                    QuantSpec::unsigned(8),
                ),
                relu: true,
                weight_spec: QuantSpec::signed(4),
            },
            vec![Src::Node(0)],
        );
        m
    }

    #[test]
    fn export_then_verify_round_trips() {
        let dir = std::env::temp_dir().join(format!("t2c_pkg_{}", std::process::id()));
        let model = sample();
        let manifest = export_package(&model, &dir).unwrap();
        assert!(manifest.model_file.exists());
        assert_eq!(manifest.hex_files.len(), 1);
        assert!(manifest.total_bytes > 0);
        let reloaded = verify_package(&manifest).unwrap();
        let x = Tensor::from_fn(&[1, 1, 5, 5], |i| i as f32 * 0.05);
        assert_eq!(model.run(&x).unwrap().as_slice(), reloaded.run(&x).unwrap().as_slice());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_package_reconstructs_manifest_from_disk() {
        let dir = std::env::temp_dir().join(format!("t2c_pkg_read_{}", std::process::id()));
        let model = sample();
        let written = export_package(&model, &dir).unwrap();
        let (reloaded, manifest) = read_package(&dir).unwrap();
        assert_eq!(manifest.hex_files.len(), written.hex_files.len());
        assert_eq!(manifest.hex_files[0].0, written.hex_files[0].0);
        assert_eq!(manifest.hex_files[0].2, written.hex_files[0].2);
        assert_eq!(manifest.hex_files[0].3, written.hex_files[0].3);
        let x = Tensor::from_fn(&[1, 1, 5, 5], |i| i as f32 * 0.05);
        assert_eq!(model.run(&x).unwrap().as_slice(), reloaded.run(&x).unwrap().as_slice());
        // A package with a deleted weight image is rejected with a message
        // naming the missing artifact.
        fs::remove_file(&manifest.hex_files[0].1).unwrap();
        let err = read_package(&dir).unwrap_err();
        assert!(format!("{err}").contains("hex"), "unexpected error: {err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sparse_package_round_trips_with_manifest_entries() {
        let dir = std::env::temp_dir().join(format!("t2c_pkg_sparse_{}", std::process::id()));
        let (model, _) = t2c_core::zoo::tiny_mlp_pruned(0.8);
        let written = export_package(&model, &dir).unwrap();
        assert_eq!(written.sparse.len(), 1, "fc1 must appear as a sparse entry");
        assert_eq!(written.sparse[0].node, "fc1");
        assert!(written.sparse[0].stored < written.sparse[0].total);
        // The sparse hex image holds only the packed non-zeros.
        let fc1 = written.hex_files.iter().find(|h| h.0 == "fc1").unwrap();
        assert_eq!(fc1.2, written.sparse[0].stored);
        let reloaded = verify_package(&written).unwrap();
        let (read_model, read_manifest) = read_package(&dir).unwrap();
        assert_eq!(read_manifest.sparse, written.sparse);
        let x = Tensor::from_fn(&[2, 256], |i| ((i * 31) % 97) as f32 * 0.01 - 0.5);
        let want = model.run(&x).unwrap();
        assert_eq!(want.as_slice(), reloaded.run(&x).unwrap().as_slice());
        assert_eq!(want.as_slice(), read_model.run(&x).unwrap().as_slice());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn certified_section_round_trips_through_read_package() {
        let dir = std::env::temp_dir().join(format!("t2c_pkg_cert_{}", std::process::id()));
        let model = sample();
        let mut manifest = export_package(&model, &dir).unwrap();
        assert_eq!(manifest.certified, None);
        let cert = CertifiedError {
            end_to_end_millisteps: 12_345,
            tolerance_millisteps: 50_000,
            layers: 2,
        };
        write_certified(&mut manifest, cert).unwrap();
        assert_eq!(manifest.certified, Some(cert));
        let (_, reread) = read_package(&dir).unwrap();
        assert_eq!(reread.certified, Some(cert));
        // A corrupt certificate is an error, not a silent downgrade.
        fs::write(dir.join("certified.txt"), "end_to_end_millisteps banana\n").unwrap();
        assert!(read_package(&dir).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_hex_detected() {
        let dir = std::env::temp_dir().join(format!("t2c_pkg_tamper_{}", std::process::id()));
        let manifest = export_package(&sample(), &dir).unwrap();
        let hex = &manifest.hex_files[0].1;
        let mut content = fs::read_to_string(hex).unwrap();
        content = content.replacen('7', "6", 1);
        fs::write(hex, content).unwrap();
        assert!(verify_package(&manifest).is_err());
        fs::remove_dir_all(&dir).ok();
    }
}
