//! End-to-end cluster tests: rolling updates under fire, replica kills
//! without losing admitted work, and hedged-request plumbing.
//!
//! Time-sensitive routing state is driven by an injected `FakeClock`
//! shared by the router and every replica runtime; assertions never
//! sleep to "wait for" cluster state.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use t2c_cluster::{Cluster, ClusterConfig, HedgeConfig, RouterConfig};
use t2c_core::IntModel;
use t2c_serve::{BatchConfig, FakeClock, ModelRegistry, ServerConfig};
use t2c_tensor::Tensor;

/// A cluster config that dispatches every request immediately (batch of
/// one) so a frozen FakeClock never strands rows in a partial batch.
fn immediate_config(replicas: usize, hedge: HedgeConfig) -> ClusterConfig {
    ClusterConfig {
        replicas,
        router: RouterConfig { replication: 2, hedge, ..RouterConfig::default() },
        server: ServerConfig {
            batch: BatchConfig { max_batch: 1, queue_cap: 256 },
            workers: 1,
            ..ServerConfig::default()
        },
        ..ClusterConfig::default()
    }
}

fn no_hedge() -> HedgeConfig {
    HedgeConfig { min_samples: u64::MAX, default_delay_ns: 0, ..HedgeConfig::default() }
}

/// Quantizes a deterministic ramp with the model's own input grid and
/// returns `(codes, direct_output)`.
fn codes_and_direct(model: &IntModel, dims: &[usize]) -> (Tensor<i32>, Vec<i32>) {
    let reference = ModelRegistry::new();
    let admitted = reference.admit("ref", model.clone(), dims).expect("reference admission");
    let x = Tensor::from_fn(dims, |i| (i as f32) * 0.013 - 0.4);
    let codes = admitted.quantize(&x);
    let direct = admitted.model().run_quantized(&codes).expect("direct run");
    (codes, direct.as_slice().to_vec())
}

#[test]
fn rolling_updates_refuse_zero_requests_while_flipping() {
    let clock = Arc::new(FakeClock::new(1));
    let cluster =
        Cluster::start_with_clock(immediate_config(4, no_hedge()), Arc::<FakeClock>::clone(&clock));

    // Version chain: the base MLP, then progressively sparser prunes.
    let (v1, dims) = t2c_core::zoo::tiny_mlp();
    let updates: Vec<(IntModel, Vec<usize>)> =
        [0.5f32, 0.6, 0.7, 0.8, 0.9].iter().map(|&s| t2c_core::zoo::tiny_mlp_pruned(s)).collect();
    let (codes, direct_v1) = codes_and_direct(&v1, &dims);
    let mut allowed: Vec<Vec<i32>> = vec![direct_v1];
    for (m, d) in &updates {
        allowed.push(codes_and_direct(m, d).1);
    }
    cluster.deploy("mlp", v1, &dims).expect("deploy v1");

    // Hammer the route from four client threads while the main thread
    // flips through five versions. Every single request must resolve
    // with some version's exact output — zero refusals, zero errors.
    let stop = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    for _ in 0..4 {
        let cluster = cluster.clone();
        let codes = codes.clone();
        let allowed = allowed.clone();
        let stop = Arc::clone(&stop);
        clients.push(std::thread::spawn(move || {
            let mut served = 0u64;
            while !stop.load(Ordering::Acquire) {
                let out = cluster.infer("mlp", codes.clone()).expect("no refusals during flips");
                let out = out.as_slice().to_vec();
                assert!(allowed.contains(&out), "output matches no deployed version: {out:?}");
                served += 1;
            }
            served
        }));
    }
    for (i, (model, _)) in updates.iter().enumerate() {
        // Tick the shared clock so each flip happens at a distinct
        // instant, and give the clients a few scheduling quanta of real
        // time to land requests astride the flip.
        clock.advance(1_000_000);
        std::thread::sleep(std::time::Duration::from_millis(20));
        cluster.update("mlp", model.clone()).expect("rolling update");
        assert_eq!(cluster.version("mlp"), Some(i as u64 + 2), "version advances per flip");
    }
    std::thread::sleep(std::time::Duration::from_millis(20));
    stop.store(true, Ordering::Release);
    let served: u64 = clients.into_iter().map(|t| t.join().expect("client thread")).sum();
    let stats = cluster.shutdown();
    assert!(served > 0, "clients must actually exercise the flips");
    assert_eq!(stats.completed, served, "every admitted request resolved exactly once");
}

#[test]
fn killing_a_replica_mid_stream_loses_no_admitted_requests() {
    let clock = Arc::new(FakeClock::new(1));
    let cluster =
        Cluster::start_with_clock(immediate_config(4, no_hedge()), Arc::<FakeClock>::clone(&clock));
    let (model, dims) = t2c_core::zoo::tiny_mlp();
    let (codes, direct) = codes_and_direct(&model, &dims);
    cluster.deploy("mlp", model, &dims).expect("deploy");

    let stop = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    for _ in 0..4 {
        let cluster = cluster.clone();
        let codes = codes.clone();
        let direct = direct.clone();
        let stop = Arc::clone(&stop);
        clients.push(std::thread::spawn(move || {
            let mut served = 0u64;
            while !stop.load(Ordering::Acquire) {
                let out = cluster.infer("mlp", codes.clone()).expect("kill must not lose requests");
                assert_eq!(out.as_slice(), &direct[..]);
                served += 1;
            }
            served
        }));
    }
    std::thread::sleep(std::time::Duration::from_millis(20));
    // Kill two of the four replicas mid-stream; the survivors re-admit
    // the model (consistent-hash re-placement) and requests re-route.
    assert!(cluster.kill_replica(0), "replica 0 starts live");
    std::thread::sleep(std::time::Duration::from_millis(20));
    assert!(cluster.kill_replica(2), "replica 2 starts live");
    assert!(!cluster.kill_replica(2), "double-kill reports the replica gone");
    std::thread::sleep(std::time::Duration::from_millis(20));
    stop.store(true, Ordering::Release);
    let served: u64 = clients.into_iter().map(|t| t.join().expect("client thread")).sum();
    let stats = cluster.stats();
    assert!(served > 0);
    assert_eq!(stats.live_replicas, 2, "two replicas survive");
    assert_eq!(stats.completed, served, "drained + re-routed, nothing lost");
    cluster.shutdown();
}

#[test]
fn hedged_requests_fire_and_first_response_wins() {
    // An aggressive 1ns default hedge delay makes effectively every
    // request hedge; with replication 2 the duplicate lands on the other
    // holder. Results must stay exact and singular.
    let clock = Arc::new(FakeClock::new(1));
    let hedge = HedgeConfig {
        min_samples: u64::MAX,
        default_delay_ns: 1,
        min_delay_ns: 1,
        ..HedgeConfig::default()
    };
    let cluster =
        Cluster::start_with_clock(immediate_config(4, hedge), Arc::<FakeClock>::clone(&clock));
    let (model, dims) = t2c_core::zoo::tiny_mlp();
    let (codes, direct) = codes_and_direct(&model, &dims);
    cluster.deploy("mlp", model, &dims).expect("deploy");

    for _ in 0..50 {
        let out = cluster.infer("mlp", codes.clone()).expect("hedged request resolves");
        assert_eq!(out.as_slice(), &direct[..]);
    }
    let stats = cluster.shutdown();
    assert_eq!(stats.completed, 50);
    assert!(stats.hedges > 0, "the 1ns delay must have fired hedges, got {stats:?}");
    assert!(stats.hedge_wins <= stats.hedges);
}

#[test]
fn cluster_stats_and_catalog_reporting() {
    let cluster = Cluster::start(immediate_config(3, no_hedge()));
    let (model, dims) = t2c_core::zoo::tiny_mlp();
    cluster.deploy("mlp", model.clone(), &dims).expect("deploy");
    assert_eq!(cluster.models(), vec!["mlp".to_string()]);
    assert_eq!(cluster.version("mlp"), Some(1));
    assert!(cluster.version("ghost").is_none());
    // Duplicate deploys are refused; updates of unknown models are refused.
    assert!(cluster.deploy("mlp", model.clone(), &dims).is_err());
    assert!(cluster.update("ghost", model).is_err());
    assert_eq!(cluster.stats().live_replicas, 3);
    let stats = cluster.shutdown();
    assert_eq!(stats.live_replicas, 0, "shutdown drains every replica");
    // Shutdown is idempotent.
    let again = cluster.shutdown();
    assert_eq!(again.live_replicas, 0);
}
