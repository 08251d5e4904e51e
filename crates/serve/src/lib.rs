//! ALS-as-a-service: a job daemon and client for running synthesis flows
//! behind a socket instead of a process boundary.
//!
//! Three layers, one schema:
//!
//! * [`api`] — the versioned wire protocol: [`JobSpec`],
//!   [`JobState`], [`JobStatus`],
//!   [`ErrorBody`] and the request/response envelope.
//!   Server and client both convert through these types, so the two ends
//!   cannot drift. Completed jobs embed the engine's shared
//!   [`FlowResult::to_json`](als_engine::FlowResult::to_json) document —
//!   the same object `als synth --json` prints.
//! * [`queue`] — bounded priority queue with per-tenant admission
//!   control (queued and running ceilings per tenant).
//! * [`server`] / [`client`] — the [`Daemon`] (TCP line
//!   protocol, plus plain-HTTP `GET /metrics` and `GET /healthz` on the
//!   same port) and the [`Client`] the `als job`
//!   subcommands use.
//!
//! Jobs are crash-safe: every lifecycle transition persists to the job's
//! state directory before it is announced, journaling flows run under
//! the engine's append-only journal, and a daemon restart re-enqueues
//! non-terminal jobs — resuming journaled ones to a byte-identical
//! continuation of the interrupted run.

#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod api;
pub mod client;
pub mod queue;
pub mod server;

pub use api::{CircuitSource, ErrorBody, JobSpec, JobState, JobStatus, Priority};
pub use client::Client;
pub use queue::{QueueConfig, TenantPolicy};
pub use server::{Daemon, DaemonConfig};
