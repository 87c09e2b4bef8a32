//! The closed-loop load driver of `loadgen` and `cluster_loadgen`.
//!
//! Payloads and their expected outputs are generated before the clock
//! starts, so a run measures the serving path, not the load generator's
//! own input synthesis. Each client thread then issues its requests back
//! to back, and a response completes only when it matches the
//! interpreter's output bit for bit; anything else is an error.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use t2c_serve::AdmittedModel;
use t2c_tensor::Tensor;

use crate::percentile;
use crate::report::Case;

/// The pre-generated requests of one run: per client, each quantized
/// payload with the interpreter's output for it.
pub struct ClosedLoop {
    clients: Vec<Vec<(Tensor<i32>, Vec<i32>)>>,
}

/// What one closed-loop run measured.
#[derive(Debug)]
pub struct Load {
    /// Requests issued (`requests` rounded up to whole clients).
    pub requests: usize,
    /// Responses that matched the interpreter.
    pub completed: u64,
    /// Refused requests and wrong responses.
    pub errors: u64,
    /// Wall time of the whole run.
    pub wall_ns: u64,
    /// Completed requests per second of wall time.
    pub throughput_rps: f64,
    /// Median latency of the completed requests.
    pub p50_ns: u64,
    /// 99th-percentile latency of the completed requests.
    pub p99_ns: u64,
}

impl ClosedLoop {
    /// Spreads `requests` single-row requests to `model` over `clients`
    /// threads, and runs each once through the interpreter for its
    /// expected output.
    ///
    /// # Panics
    ///
    /// Panics when the interpreter cannot run `model`.
    pub fn new(model: &AdmittedModel, clients: usize, requests: usize) -> Self {
        let per_client = requests.div_ceil(clients);
        let clients = (0..clients)
            .map(|t| {
                (0..per_client)
                    .map(|r| {
                        let salt = t * per_client + r;
                        let x = Tensor::from_fn(model.input_dims(), |i| {
                            ((i * 131 + salt * 29) % 255) as f32 * 0.004 - 0.5
                        });
                        let codes = model.quantize(&x);
                        let want = model.model().run_quantized(&codes).expect("interpreter run");
                        (codes, want.as_slice().to_vec())
                    })
                    .collect()
            })
            .collect();
        ClosedLoop { clients }
    }

    /// Runs every client on its own thread, each sending its payloads
    /// through `infer` one after another.
    pub fn run<E>(self, infer: impl Fn(Tensor<i32>) -> Result<Tensor<i32>, E> + Sync) -> Load {
        let requests = self.clients.iter().map(Vec::len).sum();
        let latencies = Mutex::new(Vec::with_capacity(requests));
        let errors = AtomicU64::new(0);
        let started = Instant::now();
        std::thread::scope(|scope| {
            for client in self.clients {
                let (infer, latencies, errors) = (&infer, &latencies, &errors);
                scope.spawn(move || {
                    let mut mine = Vec::with_capacity(client.len());
                    for (codes, want) in client {
                        let t0 = Instant::now();
                        match infer(codes) {
                            Ok(out) if out.as_slice() == want.as_slice() => {
                                mine.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(0));
                            }
                            _ => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    latencies.lock().expect("no client panics holding the lock").extend(mine);
                });
            }
        });
        let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut lat = latencies.into_inner().expect("no client panics holding the lock");
        lat.sort_unstable();
        Load {
            requests,
            completed: lat.len() as u64,
            errors: errors.into_inner(),
            wall_ns,
            throughput_rps: lat.len() as f64 / (wall_ns as f64 / 1e9),
            p50_ns: percentile(&lat, 50.0),
            p99_ns: percentile(&lat, 99.0),
        }
    }
}

impl Load {
    /// Appends the run's measurements to `case`, which passes only if
    /// every request completed exactly.
    pub fn record(&self, case: Case) -> Case {
        case.with("requests", self.requests)
            .with("completed", self.completed)
            .with("errors", self.errors)
            .with("wall_ns", self.wall_ns)
            .with("throughput_rps", self.throughput_rps)
            .with("p50_ns", self.p50_ns)
            .with("p99_ns", self.p99_ns)
            .pass(self.errors == 0 && self.completed == self.requests as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2c_serve::ModelRegistry;

    #[test]
    fn a_wrong_output_counts_as_an_error_not_a_completion() {
        let (mlp, dims) = t2c_core::zoo::tiny_mlp();
        let model = ModelRegistry::new().admit("mlp", mlp, &dims).expect("tiny_mlp admits");
        let calls = AtomicU64::new(0);
        let load = ClosedLoop::new(&model, 2, 8).run(|codes| {
            let mut out = model.model().run_quantized(&codes)?;
            if calls.fetch_add(1, Ordering::Relaxed).is_multiple_of(2) {
                out.as_mut_slice()[0] ^= 1;
            }
            Ok::<_, t2c_tensor::TensorError>(out)
        });
        assert_eq!((load.requests, load.completed, load.errors), (8, 4, 4));
        let mut report = crate::report::Report::new("unit");
        report.case(load.record(Case::new()));
        assert!(!report.pass());
    }
}
