//! # t2c-serve — the batched integer-inference serving runtime
//!
//! Torch2Chip's deployment story ends with a verified integer package;
//! this crate is what *hosts* one. It is a std-only, thread-based serving
//! runtime with three pillars:
//!
//! * **Admission control** — [`ModelRegistry`] only admits models that
//!   pass the `t2c-lint` static verifier with zero error-level findings
//!   (packages additionally re-verify checksums and the hex manifest) and
//!   whose execution plan compiles. The runtime serves exactly what
//!   `t2c-check` would sign off on.
//! * **Dynamic micro-batching** — whenever the queue is non-empty, each
//!   free worker pulls up to `max_batch` queued rows of one model, runs
//!   them through the axis-0 concat/split tensor kernels and the model's
//!   compiled `ExecPlan`, and fans back out to per-request completion
//!   slots ([`MicroBatcher`], [`Server`]). Batches fill from the work that
//!   queues up while every worker is busy; nothing waits for stragglers.
//! * **Robustness policy** — a bounded queue with explicit
//!   [`ServeError::Busy`] backpressure, per-request deadlines, worker
//!   panic isolation with a per-model circuit breaker, and graceful
//!   drain-on-shutdown ([`ServerConfig`]).
//!
//! Transport: an in-process [`Handle`] for embedding and tests, plus a
//! tiny length-prefixed TCP protocol ([`wire`]) spoken by the
//! `t2c-serve` binary and [`TcpClient`].
//!
//! ```no_run
//! use std::sync::Arc;
//! use t2c_serve::{ModelRegistry, Server, ServerConfig};
//!
//! let registry = Arc::new(ModelRegistry::new());
//! let (model, dims) = t2c_core::zoo::tiny_mlp();
//! let admitted = registry.admit("mlp", model, &dims).expect("lint gate");
//! let server = Server::start(Arc::clone(&registry), ServerConfig::default());
//! let handle = server.handle();
//! let codes = admitted.quantize(&t2c_tensor::Tensor::zeros(&dims));
//! let logits = handle.infer("mlp", codes).expect("served");
//! assert_eq!(logits.dims(), &[1, 10]);
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod clock;
pub mod error;
pub mod registry;
pub mod runtime;
pub mod wire;

pub use batcher::{BatchConfig, MicroBatcher, Ticket, NO_DEADLINE};
pub use clock::{Clock, FakeClock, SystemClock};
pub use error::{AdmissionError, ServeError};
pub use registry::{AdmittedModel, ModelRegistry};
pub use runtime::{Handle, PendingResponse, Server, ServerConfig, StatsSnapshot};
pub use wire::{serve_tcp, serve_tcp_backend, InferBackend, TcpClient, WireRequest};
