//! Shared plumbing for the table/figure harness binaries.
//!
//! Each paper table/figure has one binary (`table1` … `table4`,
//! `fig3_dualpath`, `fig4_vit`, `fig5_export`) that trains the relevant
//! models on the synthetic substrate and prints the same rows/series the
//! paper reports. `EXPERIMENTS.md` records paper-vs-measured for each.
//! The gate benches share [`paired_median`], the [`report`] writer and
//! the [`load`] driver.

#![forbid(unsafe_code)]

pub mod load;
pub mod report;

use std::time::Instant;

use t2c_core::qmodels::QuantModel;
use t2c_core::trainer::{dual_path_divergence, evaluate_int, PtqPipeline};
use t2c_core::{FuseScheme, T2C};
use t2c_data::{BatchIter, SynthVision};

/// Formats an accuracy and its delta against a baseline the way the
/// paper's tables do: `74.40 (-1.60)`.
pub fn fmt_acc(acc: f32, baseline: f32) -> String {
    format!("{:.2} ({:+.2})", acc * 100.0, (acc - baseline) * 100.0)
}

/// Runs the standard PTQ-convert-evaluate tail shared by several tables:
/// calibrate (and optionally reconstruct), convert with `scheme`, and
/// return `(integer accuracy, conversion report)`.
///
/// # Panics
///
/// Panics on pipeline errors — harness binaries want loud failures.
pub fn ptq_int_accuracy<M: QuantModel>(
    qnn: &M,
    data: &SynthVision,
    pipeline: PtqPipeline,
    scheme: FuseScheme,
    batch: usize,
) -> (f32, t2c_core::ConversionReport) {
    pipeline.run(qnn, data).expect("ptq pipeline");
    qnn.set_training(false);
    let (chip, report) = T2C::new(qnn).nn2chip(scheme).expect("conversion");
    let acc = evaluate_int(&chip, data, batch).expect("integer evaluation");
    if t2c_obs::enabled() {
        // One test batch through both paths so the profile report carries
        // the dual-path divergence gauges.
        if let Some((images, _)) = BatchIter::test(data, batch).next() {
            let _ = dual_path_divergence(qnn, &chip, &images);
        }
    }
    (acc, report)
}

/// Writes the current profile registry to
/// `bench_results/profile_<tag>.json` when `T2C_PROFILE` is on; silent
/// no-op otherwise. Harness binaries call this once before exiting.
pub fn dump_profile(tag: &str) {
    match t2c_obs::report::dump("bench_results", tag) {
        Ok(Some(path)) => println!("\nprofile report: {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("profile dump failed: {e}"),
    }
}

/// A baseline timed against a candidate by [`paired_median`].
#[derive(Debug, Clone, Copy)]
pub struct Paired {
    /// Median baseline time, ns.
    pub baseline_ns: u64,
    /// Median candidate time, ns.
    pub candidate_ns: u64,
    /// Median of the per-pair `baseline / candidate` ratios.
    pub speedup: f64,
    /// 10th percentile of the per-pair ratios.
    pub p10: f64,
    /// 90th percentile of the per-pair ratios.
    pub p90: f64,
}

/// The `p`-th percentile (0–100) of `sorted` by nearest rank; the default
/// value when `sorted` is empty.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Times `baseline` against `candidate` over `reps` interleaved pairs,
/// after two warm-up pairs. Each ratio compares two runs taken moments
/// apart, so a host slowdown that spans a pair cancels out of it instead
/// of landing on one side only, as it does when each side's median is
/// taken in its own time window. The order within a pair alternates, so
/// neither side always runs second on caches the other warmed.
pub fn paired_median(
    reps: usize,
    mut baseline: impl FnMut(),
    mut candidate: impl FnMut(),
) -> Paired {
    fn time(f: &mut impl FnMut()) -> u64 {
        let t0 = Instant::now();
        f();
        u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
    for _ in 0..2 {
        baseline();
        candidate();
    }
    let (mut base, mut cand, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..reps.max(1) {
        let (b, c) = if rep % 2 == 0 {
            let b = time(&mut baseline);
            (b, time(&mut candidate))
        } else {
            let c = time(&mut candidate);
            (time(&mut baseline), c)
        };
        base.push(b);
        cand.push(c);
        ratios.push(b as f64 / c.max(1) as f64);
    }
    base.sort_unstable();
    cand.sort_unstable();
    ratios.sort_unstable_by(f64::total_cmp);
    let mid = base.len() / 2;
    Paired {
        baseline_ns: base[mid],
        candidate_ns: cand[mid],
        speedup: ratios[mid],
        p10: percentile(&ratios, 10.0),
        p90: percentile(&ratios, 90.0),
    }
}

/// Prints a Markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_median_runs_both_sides_in_pairs() {
        let (mut b, mut c) = (0, 0);
        let p = paired_median(
            5,
            || {
                b += 1;
                std::thread::sleep(std::time::Duration::from_millis(2));
            },
            || c += 1,
        );
        assert_eq!((b, c), (7, 7), "two warm-up pairs, then five timed pairs");
        assert!(p.baseline_ns > p.candidate_ns);
        assert!(p.speedup > 1.0);
        assert!(p.p10 <= p.speedup && p.speedup <= p.p90, "{p:?}");
        assert!(p.p10 > 1.0);
    }

    #[test]
    fn fmt_acc_matches_paper_style() {
        assert_eq!(fmt_acc(0.744, 0.76), "74.40 (-1.60)");
        assert_eq!(fmt_acc(0.7596, 0.76), "75.96 (-0.04)");
    }
}
