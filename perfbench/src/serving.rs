//! Shared machinery of the serving workloads: seeded input pools with
//! their interpreter oracle, the TCP front-end, the traced backend wrapper
//! and the open- and closed-loop load drivers.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use t2c_serve::{AdmittedModel, InferBackend, ServeError, TcpClient};
use t2c_tensor::rng::TensorRng;
use t2c_tensor::Tensor;

use crate::trace::{Span, Tracer};

/// A seeded pool of quantized requests for one model, with the expected
/// output of each computed by the interpreter (`IntModel::run_quantized`),
/// the oracle every response is checked against bit for bit.
pub struct Pool {
    pub model: String,
    pub rows: usize,
    pub inputs: Vec<Tensor<i32>>,
    pub expected: Vec<Vec<i32>>,
}

/// Float inputs of `rows` samples for a model taking `dims` (batch axis 1).
pub fn float_input(dims: &[usize], rows: usize, rng: &mut TensorRng) -> Tensor<f32> {
    let mut d = dims.to_vec();
    d[0] = rows;
    rng.uniform(&d, -1.5, 1.5)
}

impl Pool {
    pub fn new(admitted: &AdmittedModel, rows: usize, count: usize, seed: u64) -> Pool {
        let mut rng = TensorRng::seed_from(seed);
        let inputs: Vec<Tensor<i32>> = (0..count)
            .map(|_| admitted.quantize(&float_input(admitted.input_dims(), rows, &mut rng)))
            .collect();
        let expected = inputs
            .iter()
            .map(|x| admitted.model().run_quantized(x).expect("oracle run").as_slice().to_vec())
            .collect();
        Pool { model: admitted.name().to_string(), rows, inputs, expected }
    }
}

/// Splits a traced request name `model#parent#req` into its parts.
fn parse_tag(name: &str) -> Option<(&str, u64, u64)> {
    let mut it = name.split('#');
    let model = it.next()?;
    let parent = it.next()?.parse().ok()?;
    let req = it.next()?.parse().ok()?;
    Some((model, parent, req))
}

/// Backend wrapper for the traced run: requests whose model name carries a
/// `#parent#req` tag are forwarded under the bare name and recorded as a
/// span (server side of the wire) whose parent is the client's span.
pub struct Traced<B> {
    pub inner: B,
    pub tracer: Arc<Tracer>,
    pub span: &'static str,
}

impl<B: InferBackend> InferBackend for Traced<B> {
    fn infer_wire(
        &self,
        model: &str,
        input: Tensor<i32>,
        deadline_ms: u32,
    ) -> Result<Tensor<i32>, ServeError> {
        let Some((bare, parent, req)) = parse_tag(model) else {
            return self.inner.infer_wire(model, input, deadline_ms);
        };
        let start_ns = self.tracer.now_ns();
        let out = self.inner.infer_wire(bare, input, deadline_ms);
        let end_ns = self.tracer.now_ns();
        let id = self.tracer.next_id();
        self.tracer.record(Span {
            id,
            parent,
            req,
            name: self.span,
            model: bare.to_string(),
            start_ns,
            end_ns,
        });
        out
    }
}

/// A TCP front-end on loopback: `serve_tcp_backend` on an ephemeral port.
pub struct Front {
    stop: Arc<AtomicBool>,
    accept: JoinHandle<()>,
    pub addr: SocketAddr,
}

impl Front {
    pub fn start<B: InferBackend>(backend: Arc<B>) -> Front {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("listener address");
        let stop = Arc::new(AtomicBool::new(false));
        let accept = t2c_serve::serve_tcp_backend(backend, listener, Arc::clone(&stop))
            .expect("start tcp front-end");
        Front { stop, accept, addr }
    }

    pub fn connect(&self, n: usize) -> Vec<TcpClient> {
        (0..n).map(|_| TcpClient::connect(self.addr).expect("connect loopback")).collect()
    }

    /// Stops accepting and joins the accept thread (which joins every
    /// connection thread). Close the clients first.
    pub fn stop(self) {
        self.stop.store(true, std::sync::atomic::Ordering::Release);
        self.accept.join().expect("tcp front-end thread panicked");
    }
}

/// One request as the load generator saw it. Times are nanoseconds on the
/// tracer's clock; `due_ns == send_ns` in a closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub rows: usize,
    pub due_ns: u64,
    pub send_ns: u64,
    pub done_ns: u64,
    pub ok: bool,
    pub traced: bool,
}

impl Outcome {
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    pub fn late_ms(&self) -> f64 {
        self.send_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// How a load driver issues requests.
#[derive(Debug, Clone, Copy)]
pub enum Arrivals {
    /// Requests due on a fixed schedule at this total rate (req/s), spread
    /// round-robin over the connections.
    Open { rate: f64 },
    /// Each connection sends its next request when the previous returns.
    Closed,
}

/// The load of one measured window.
pub struct Load<'a> {
    pub pools: &'a [Pool],
    /// Relative weight of each pool in the seeded request mix.
    pub weights: &'a [u32],
    pub arrivals: Arrivals,
    pub seed: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Requests due at or after this time are traced (`u64::MAX`: none).
    pub trace_from_ns: u64,
}

/// The seeded request mix: blocks holding each pool exactly its weight's
/// number of times, in shuffled order, so every run sends the stated
/// proportions and only the order depends on the seed.
struct Mix {
    block: Vec<usize>,
    next: usize,
}

impl Mix {
    fn new(weights: &[u32]) -> Mix {
        let block: Vec<usize> = weights
            .iter()
            .enumerate()
            .flat_map(|(i, &w)| std::iter::repeat_n(i, w as usize))
            .collect();
        let next = block.len();
        Mix { block, next }
    }

    fn pick(&mut self, rng: &mut TensorRng) -> usize {
        if self.next == self.block.len() {
            let order = rng.permutation(self.block.len());
            self.block = order.iter().map(|&j| self.block[j]).collect();
            self.next = 0;
        }
        self.next += 1;
        self.block[self.next - 1]
    }
}

fn sleep_until(tracer: &Tracer, t_ns: u64) {
    let now = tracer.now_ns();
    if t_ns > now {
        std::thread::sleep(Duration::from_nanos(t_ns - now));
    }
}

/// Drives `load` through `clients` (one thread each) and returns every
/// request's outcome. A response counts as ok only if it is bit-identical
/// to the pool's oracle output.
pub fn drive(tracer: &Tracer, clients: Vec<TcpClient>, load: &Load<'_>) -> Vec<Outcome> {
    let conns = clients.len();
    std::thread::scope(|scope| {
        let threads: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                scope.spawn(move || {
                    let mut rng =
                        TensorRng::seed_from(load.seed.wrapping_mul(0x9E37_79B9) ^ c as u64);
                    let mut mix = Mix::new(load.weights);
                    let mut out = Vec::new();
                    for i in 0u64.. {
                        let seq = i * conns as u64 + c as u64;
                        let due_ns = match load.arrivals {
                            Arrivals::Open { rate } => {
                                load.start_ns + (seq as f64 * 1e9 / rate) as u64
                            }
                            Arrivals::Closed => tracer.now_ns(),
                        };
                        if due_ns >= load.end_ns {
                            break;
                        }
                        sleep_until(tracer, due_ns);
                        let p = mix.pick(&mut rng);
                        let pool = &load.pools[p];
                        let k = rng.next_usize(pool.inputs.len());
                        let traced = due_ns >= load.trace_from_ns;
                        let (root, tcp) =
                            if traced { (tracer.next_id(), tracer.next_id()) } else { (0, 0) };
                        let req = seq + 1;
                        let name = if traced {
                            format!("{}#{tcp}#{req}", pool.model)
                        } else {
                            pool.model.clone()
                        };
                        let send_ns = tracer.now_ns();
                        let res = client.infer(&name, &pool.inputs[k], 0);
                        let done_ns = tracer.now_ns();
                        let ok =
                            matches!(&res, Ok(t) if t.as_slice() == pool.expected[k].as_slice());
                        if traced {
                            let span = |id, parent, name, start_ns, end_ns| Span {
                                id,
                                parent,
                                req,
                                name,
                                model: pool.model.clone(),
                                start_ns,
                                end_ns,
                            };
                            tracer.record(span(root, 0, "request", due_ns, done_ns));
                            if send_ns > due_ns {
                                let late = tracer.next_id();
                                tracer.record(span(late, root, "loadgen.late", due_ns, send_ns));
                            }
                            tracer.record(span(
                                tcp,
                                root,
                                "serve.TcpClient::infer",
                                send_ns,
                                done_ns,
                            ));
                        }
                        out.push(Outcome { rows: pool.rows, due_ns, send_ns, done_ns, ok, traced });
                    }
                    out
                })
            })
            .collect();
        threads.into_iter().flat_map(|t| t.join().expect("load thread panicked")).collect()
    })
}
