//! End-to-end execution-plan equivalence: `IntModel::compile` lowers a
//! graph into a fused, arena-backed [`t2c_core::ExecPlan`], and the plan
//! must reproduce the interpreter's logits bit for bit on every zoo model
//! — dense, pruned and N:M structured MLPs, and the conv and ViT zoo at
//! batches 1 and 16 — at any worker count, with the kernels on the
//! baseline ISA or on the host's detected one (`t2c_tensor::isa`).
//! A plan compiled from an export/import round-trip of the model must
//! agree as well: the serialized graph carries everything compilation
//! needs.

use t2c_core::{zoo, Arena, IntModel};
use t2c_export::{read_intmodel, write_intmodel};
use t2c_tensor::rng::TensorRng;
use t2c_tensor::{isa, with_isa, with_threads, Isa, Tensor};

/// Every (ISA, thread count) pair a plan must agree at: the baseline and
/// the host's detected ISA, each at 1, 2 and 4 workers.
fn sweep() -> impl Iterator<Item = (Isa, usize)> {
    [Isa::Scalar, isa()].into_iter().flat_map(|i| [1, 2, 4].map(|t| (i, t)))
}

fn random_input(dims: &[usize], seed: u64) -> Tensor<f32> {
    TensorRng::seed_from(seed).uniform(dims, -1.0, 1.0)
}

fn batched(dims: &[usize], batch: usize) -> Vec<usize> {
    let mut d = dims.to_vec();
    d[0] = batch;
    d
}

/// Every variant of the MLP family the toolkit produces: dense, magnitude
/// pruned and N:M structured.
fn mlp_family() -> Vec<(String, IntModel, Vec<usize>)> {
    let (dense, dims) = zoo::tiny_mlp();
    let (pruned, pdims) = zoo::tiny_mlp_pruned(0.8);
    let (nm, ndims) = zoo::tiny_mlp_nm(2, 4);
    vec![
        ("mlp-dense".into(), dense, dims),
        ("mlp-pruned-0.8".into(), pruned, pdims),
        ("mlp-nm-2of4".into(), nm, ndims),
    ]
}

#[test]
fn plans_match_the_interpreter_across_the_mlp_family_and_threads() {
    for (tag, model, dims) in mlp_family() {
        let plan = model.compile(&dims).unwrap_or_else(|e| panic!("{tag}: compile: {e}"));
        let mut arena = Arena::new();
        for (seed, batch) in [(1u64, 1usize), (2, 3), (3, 4)] {
            let x = random_input(&batched(&dims, batch), seed * 77 + 5);
            let want = model.run(&x).expect("interpreter run");
            for (isa, threads) in sweep() {
                let got = with_isa(isa, || with_threads(threads, || plan.run(&x, &mut arena)))
                    .expect("planned run");
                assert_eq!(
                    got.dims(),
                    want.dims(),
                    "{tag}: planned shape diverges at seed {seed}, {isa}, {threads} thread(s)"
                );
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "{tag}: planned logits diverge at seed {seed}, {isa}, {threads} thread(s)"
                );
            }
        }
    }
}

#[test]
fn plans_match_the_interpreter_on_every_zoo_model() {
    for (tag, builder) in zoo::zoo() {
        let (model, dims) = builder();
        let plan = model.compile(&dims).unwrap_or_else(|e| panic!("{tag}: compile: {e}"));
        assert!(plan.fused_nodes() > 0, "{tag}: zoo models all carry fusable conv/linear chains");
        let mut arena = Arena::new();
        for (seed, batch) in [(1u64, 1usize), (2, 1), (3, 16)] {
            let x = random_input(&batched(&dims, batch), seed * 77 + 5);
            let want = model.run(&x).expect("interpreter run");
            for (isa, threads) in sweep() {
                let got = with_isa(isa, || with_threads(threads, || plan.run(&x, &mut arena)))
                    .expect("planned run");
                assert_eq!(
                    got.dims(),
                    want.dims(),
                    "{tag}: planned shape diverges at seed {seed}, batch {batch}, {isa}, \
                     {threads} thread(s)"
                );
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "{tag}: planned logits diverge at seed {seed}, batch {batch}, {isa}, \
                     {threads} thread(s)"
                );
            }
        }
    }
}

#[test]
fn plans_are_bit_identical_under_both_isas_on_every_served_model() {
    let mut models = vec![("tiny-mlp", zoo::tiny_mlp())];
    models.extend(zoo::zoo().into_iter().map(|(tag, build)| (tag, build())));
    for (tag, (model, dims)) in models {
        let plan = model.compile(&dims).unwrap_or_else(|e| panic!("{tag}: compile: {e}"));
        let mut arena = Arena::new();
        for batch in [1usize, 3, 16] {
            let x = random_input(&batched(&dims, batch), batch as u64 + 40);
            for threads in [1usize, 2] {
                let [scalar, host] = [Isa::Scalar, isa()].map(|i| {
                    with_isa(i, || with_threads(threads, || plan.run(&x, &mut arena)))
                        .expect("planned run")
                });
                assert_eq!(
                    scalar.as_slice(),
                    host.as_slice(),
                    "{tag}: scalar and {} plans diverge at batch {batch}, {threads} thread(s)",
                    isa()
                );
            }
        }
    }
}

#[test]
fn plans_survive_an_export_import_round_trip() {
    for (tag, model, dims) in mlp_family() {
        let bytes = write_intmodel(&model);
        let back = read_intmodel(&bytes).unwrap_or_else(|e| panic!("{tag}: read: {e}"));
        let plan = back.compile(&dims).unwrap_or_else(|e| panic!("{tag}: compile imported: {e}"));
        let mut arena = Arena::new();
        let x = random_input(&batched(&dims, 2), 99);
        let want = model.run(&x).expect("interpreter run");
        let got = plan.run(&x, &mut arena).expect("planned run on imported model");
        assert_eq!(got.as_slice(), want.as_slice(), "{tag}: round-tripped plan diverges");
    }
}
