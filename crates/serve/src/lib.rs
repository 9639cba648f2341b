//! # cfp-serve — exploration as a service
//!
//! A crash-safe daemon wrapping the design-space exploration engine
//! (`cfp-dse`) behind a line-delimited JSON protocol on a TCP socket.
//! One daemon process holds the warm state every job benefits from — a
//! shared [`cfp_dse::PlanStore`] of optimized/unrolled kernel plans and
//! a shared [`cfp_dse::CompileCache`] of scheduled cores — so repeated
//! or overlapping explorations pay for compilation once.
//!
//! The robustness envelope, in one place:
//!
//! * **Typed errors** ([`JobError`], [`ServeError`]) in the
//!   `cfp_dse::error` taxonomy style; every wire rejection names the
//!   offending field *and byte offset* ([`RequestError`]).
//! * **Deadlines** — deterministic step-fuel inside the engine, plus a
//!   wall-clock watchdog per attempt in the daemon.
//! * **Retries** — capped exponential backoff, and only for the exact
//!   transient set ([`JobError::is_transient`]); deterministic failures
//!   fail fast with the reason attached.
//! * **Load shedding** — a bounded admission queue; submits beyond the
//!   high-water mark get a typed `overloaded` response immediately
//!   instead of degrading admitted work.
//! * **Crash recovery** — every accepted job is journaled
//!   (write-temp-then-rename) before it is acknowledged; a killed and
//!   restarted daemon resumes incomplete jobs from their checkpoint
//!   journals bit-identically.
//!
//! Protocol quickstart (each request and response is one JSON line):
//!
//! ```text
//! → {"op":"submit","benches":["D","G"],"preset":"smoke","fuel":200000}
//! ← {"ok":true,"op":"submit","id":"job-000000","queued":1}
//! → {"op":"result","id":"job-000000"}
//! ← {"ok":true,"op":"result","state":"done","id":"job-000000","digest":"…",…}
//! ```
//!
//! See `DESIGN.md` §15 for the full protocol and failure-injection
//! surface, and the `cfpd` binary for the shipped entry point.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod error;
pub mod job;
pub mod proto;
pub mod server;

/// The wire format's reader and writer: the repo's one JSON module,
/// which lives in `cfp-obs` so the trace sink shares it.
pub use cfp_obs::json;
pub use error::{JobError, ServeError};
pub use proto::{parse_request, FaultSpec, JobKind, JobSpec, Request, RequestError, SpaceName};
pub use server::{RetryPolicy, ServeConfig, Server};
