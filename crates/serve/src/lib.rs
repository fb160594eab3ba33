//! `af-serve`: amnesiac flooding as a long-lived service.
//!
//! The other binaries in this workspace pay graph-construction costs
//! per invocation. This crate pays them once: a daemon loads graphs
//! into a named [`registry`] and answers concurrent requests over
//! newline-delimited JSON — one [`protocol::Request`] per line in, one
//! [`protocol::Response`] per line out — on TCP and on stdio. Each
//! registry entry holds one copy of its graph and nothing derived from
//! it: an exact-time prediction is one parity BFS on that graph
//! ([`af_core::theory::predict_summary`]), with buffers that live only
//! as long as the request (`BENCH_serve.json` quantifies the win over
//! re-parsing per query).
//!
//! The daemon adds **no third execution semantics**: floods run through
//! [`af_core::api::FloodRequest::execute`], the same call the CLI's
//! `flood` command and the benchmark harness make, so a response over
//! the wire is bit-identical to the in-process answer (the loopback
//! integration test pins this). Errors are
//! [`af_core::api::ErrorResponse`] values with stable codes; a
//! malformed line never kills a connection, let alone the daemon.
//!
//! Scale features, all opt-in (PROTOCOL.md documents each): wrapping a
//! request in an id [`protocol::Envelope`] routes it to a shared worker
//! pool, so heavy floods stop serializing behind each other — responses
//! come back as [`protocol::TaggedResponse`] lines, possibly out of
//! order, while bare requests keep their strict in-order semantics. A
//! registry byte budget ([`Registry::with_budget`], `--registry-budget`)
//! bounds the registered graphs' real heap bytes by evicting the
//! least-recently-used graph; `Evict` does the same by hand.
//! `--registry-dir` pre-loads a directory of edge lists at boot, and the
//! `Bench` verb runs the measurement harness in-process so a live
//! daemon can record its own benchmark rows.
//!
//! The daemon watches itself: every request is timed into the
//! lock-free [`metrics`] block (per-verb counts and latency
//! histograms, connection/byte counters, registry footprint gauges),
//! the `Metrics` verb serves the snapshot over the wire, and a final
//! snapshot line goes to stderr when the daemon drains — see the
//! "Observability" section of the README.
//!
//! See PROTOCOL.md for the wire format, verb by verb, and the
//! "Serving" section of the README for a transcript.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod log;
pub mod metrics;
pub mod protocol;
pub mod registry;
pub mod server;

pub use protocol::{Envelope, Request, Response, TaggedResponse};
pub use registry::Registry;
pub use server::{Server, ServerConfig};
