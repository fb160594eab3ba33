//! The wire protocol: one JSON value per line, request in, response out.
//!
//! Every request line deserializes to a [`Request`] and every response
//! line serializes from a [`Response`], both in serde's externally-tagged
//! form — a one-entry object keyed by the verb (`{"Load": {...}}`), or a
//! bare string for the verbs that carry no payload (`"Stats"`,
//! `"Shutdown"`). This is the same representation every other serialized
//! enum in the workspace uses (`GraphSpec` in the benchmark JSON, for
//! one), so a recorded `spec` pastes straight into a `Gen` request.
//!
//! The flood payload is [`af_core::api::FloodRequest`] — the exact struct
//! the CLI and the benchmark harness execute — and failures are
//! [`af_core::api::ErrorResponse`] values with stable codes from
//! [`af_core::api::code`]. PROTOCOL.md documents every verb, field, and
//! code; `tests/doc_links.rs` keeps that file reachable from the README.

use af_analysis::bench::EngineStats;
use af_analysis::GraphSpec;
use af_core::api::{ErrorResponse, FloodRequest, FloodResponse};
use af_core::theory::PredictSummary;
use af_graph::dynamic::GraphDelta;
use serde::{Deserialize, Serialize};

/// An id-correlated request line: `{"id": N, "request": <Request>}`.
///
/// A bare [`Request`] line keeps strict in-order semantics on its
/// connection. Wrapping it in an envelope opts that request into the
/// worker pool: the response comes back as a [`TaggedResponse`] echoing
/// `id`, possibly out of order relative to other enveloped requests on
/// the same connection. Clients pick ids; the server never interprets
/// them beyond echoing (duplicates are legal and echoed as sent). The
/// two line shapes cannot collide: a request enum line is a bare string
/// or a one-entry object, an envelope is a two-entry object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// The wrapped request, executed exactly as its bare form would be.
    pub request: Request,
}

/// The response line for an [`Envelope`]: `{"id": N, "response": ...}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaggedResponse {
    /// The id of the envelope this answers.
    pub id: u64,
    /// The response, exactly what the bare request would have answered.
    pub response: Response,
}

/// One client request: the verb and its payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Register (or replace) a graph under `name` from graph text —
    /// edge-list format (`n <count>` header + `u v` lines) or graph6.
    Load {
        /// Registry name; reusing a name replaces the previous graph.
        name: String,
        /// The graph text, both formats auto-detected.
        graph: String,
    },
    /// Register (or replace) a graph under `name` built from a
    /// [`GraphSpec`] — the same serialized spec the benchmark records,
    /// so any `BENCH_flooding.json` case is loadable verbatim.
    Gen {
        /// Registry name; reusing a name replaces the previous graph.
        name: String,
        /// The generator instance to build.
        spec: GraphSpec,
    },
    /// Exact-time oracle predictions for source sets on a registered
    /// graph — one parity BFS on the current snapshot per set
    /// ([`af_core::theory::predict_summary`]).
    Predict {
        /// The registered graph to query.
        graph: String,
        /// One prediction per set of source node ids.
        source_sets: Vec<Vec<usize>>,
    },
    /// Run one flood on a registered graph: a single source set on the
    /// chosen engine. Sugar for a one-set [`Request::Batch`].
    Flood {
        /// The registered graph to flood.
        graph: String,
        /// The flood's source node ids.
        sources: Vec<usize>,
        /// Canonical engine string (empty = default engine).
        engine: String,
        /// Per-flood round cap (`0` = the default `2n + 2`).
        max_rounds: u32,
    },
    /// Run a batch of floods on a registered graph — the full
    /// [`FloodRequest`] surface: many source sets, any engine
    /// (bitlane-chunked 64 sets per pass), a round cap.
    Batch {
        /// The registered graph to flood.
        graph: String,
        /// The workload, exactly as the CLI and benchmark execute it.
        request: FloodRequest,
    },
    /// Measure a [`FloodRequest`] on a registered graph through the
    /// committed benchmark harness
    /// ([`af_analysis::bench::measure_request`]) and return the
    /// [`EngineStats`] rows — so the daemon can self-record
    /// `BENCH_serve.json` sections under live concurrent load.
    Bench {
        /// The registered graph to measure on.
        graph: String,
        /// The workload to measure (`max_rounds` must be 0: bench rows
        /// are always measured uncapped).
        request: FloodRequest,
        /// How many times to measure the request (≥ 1); one
        /// [`EngineStats`] row per repeat, in run order.
        repeat: u32,
    },
    /// Apply topology edits to a registered graph, in batch order. The
    /// graph's node-id space evolves exactly as
    /// [`af_graph::dynamic::DeltaGraph::apply`] documents (departed ids
    /// retire, joins append).
    Mutate {
        /// The registered graph to edit.
        graph: String,
        /// Edit batches, applied atomically one after another.
        deltas: Vec<GraphDelta>,
    },
    /// Explicitly remove a registered graph from the registry, freeing
    /// its budget charge. Later
    /// requests for the name answer the stable `not_found` code until a
    /// re-`Load`/`Gen`.
    Evict {
        /// The registered graph to remove.
        graph: String,
    },
    /// Server and registry counters. No payload: the wire form is the
    /// bare string `"Stats"`.
    Stats,
    /// Full daemon metrics: per-verb latency histograms, transport
    /// counters, registry footprint gauges. No payload: the wire form
    /// is the bare string `"Metrics"`.
    Metrics,
    /// Drain in-flight requests, then stop the server. No payload: the
    /// wire form is the bare string `"Shutdown"`.
    Shutdown,
}

/// One server response: the outcome keyed by what happened.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// A `Load`/`Gen` succeeded: the registered graph's shape.
    Registered {
        /// The name the graph is registered under.
        name: String,
        /// Node count of the registered graph.
        nodes: usize,
        /// Edge count of the registered graph.
        edges: usize,
    },
    /// A `Predict` succeeded: one summary per requested source set, in
    /// order.
    Predicted {
        /// Termination round, total messages, informed count — per set.
        predictions: Vec<PredictSummary>,
    },
    /// A `Flood` or `Batch` succeeded: the engine that ran (canonical
    /// string, defaults resolved) and one summary per source set.
    Flooded(FloodResponse),
    /// A `Bench` succeeded: one measured [`EngineStats`] row per
    /// requested repeat, in run order — the exact rows
    /// `BENCH_flooding.json` would record for the same request.
    Benched {
        /// The measured graph's name.
        graph: String,
        /// Node count of the measured snapshot.
        nodes: usize,
        /// Edge count of the measured snapshot.
        edges: usize,
        /// One benchmark row per repeat.
        runs: Vec<EngineStats>,
    },
    /// An `Evict` succeeded: what was removed.
    Evicted {
        /// The evicted graph's name.
        name: String,
        /// Heap bytes released (the graph's CSR arrays plus its
        /// departed-id list), as charged against the registry budget.
        bytes_freed: u64,
    },
    /// A `Mutate` succeeded: what the batches did and the graph's new
    /// shape.
    Mutated {
        /// The mutated graph's name.
        name: String,
        /// Node count after all batches (departed ids still count —
        /// ids are never reused).
        nodes: usize,
        /// Edge count after all batches.
        edges: usize,
        /// Total edits applied across all batches.
        edits_applied: usize,
        /// Total requested edits skipped as invalid (see
        /// [`af_graph::dynamic::AppliedDelta::edits_skipped`]).
        edits_skipped: usize,
    },
    /// A `Stats` succeeded.
    Stats(ServerStats),
    /// A `Metrics` succeeded.
    Metrics(MetricsReport),
    /// Acknowledges a `Shutdown`: the server stops accepting new work
    /// and exits once in-flight requests drain.
    ShuttingDown,
    /// The request failed; `code` is stable, `message` is diagnostic.
    Error(ErrorResponse),
}

/// Registry-wide counters returned by [`Request::Stats`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Requests answered so far (this one included), errors included.
    pub requests: u64,
    /// How many of those answered with [`Response::Error`].
    pub errors: u64,
    /// Whole seconds since the daemon's registry came up.
    pub uptime_secs: u64,
    /// Same total as `requests`, under the name the `Metrics` report
    /// uses — `requests` predates the metrics layer and is kept for
    /// wire compatibility.
    pub requests_total: u64,
    /// Parsed requests answered per verb, in wire-documentation order
    /// (unparsable lines count only in `errors`).
    pub verbs: Vec<VerbCount>,
    /// Every registered graph, in name order.
    pub graphs: Vec<GraphInfo>,
}

/// One verb's request count in [`ServerStats`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerbCount {
    /// The verb's wire name (`"Load"`, `"Predict"`, ...).
    pub verb: String,
    /// Requests answered under that verb (errors included).
    pub count: u64,
}

/// The full daemon metrics snapshot returned by [`Request::Metrics`]
/// and flushed to stderr as the final line when the daemon drains.
///
/// Latency quantiles are upper bounds of power-of-two buckets clamped to
/// `max_us` (within 2× of the true value, never above the max); `max_us`
/// is exact. The footprint gauge is maintained eagerly by every register
/// / mutate / evict, so a report is a pure read — it never walks the
/// registry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Whole seconds since the daemon's registry came up.
    pub uptime_secs: u64,
    /// Requests answered so far, errors and unparsable lines included.
    pub requests_total: u64,
    /// How many answered with [`Response::Error`].
    pub errors_total: u64,
    /// Transport sessions opened (a stdio session counts as one).
    pub connections: u64,
    /// Request-line bytes consumed, newlines included.
    pub bytes_read: u64,
    /// Response-line bytes written, newlines included.
    pub bytes_written: u64,
    /// Heap bytes of all registered graphs (CSR arrays plus departed-id
    /// lists) — the charge the byte budget compares against, maintained
    /// eagerly on every register / mutate / evict.
    pub registry_bytes: u64,
    /// The registry byte budget (`--registry-budget`); 0 = unbounded.
    pub registry_budget_bytes: u64,
    /// Graphs evicted over the daemon's lifetime (LRU and explicit
    /// `Evict` both count).
    pub evictions_total: u64,
    /// Worker threads in the shared pool (`--pool`).
    pub pool_workers: u64,
    /// Enveloped requests currently queued or executing on the pool.
    pub pool_depth: u64,
    /// Enveloped requests ever dispatched to the pool.
    pub pool_jobs_total: u64,
    /// Per-verb counts and latency, in wire-documentation order.
    pub verbs: Vec<VerbStat>,
}

/// One verb's count and latency row in [`MetricsReport`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerbStat {
    /// The verb's wire name.
    pub verb: String,
    /// Requests answered under that verb (errors included).
    pub count: u64,
    /// Median latency, µs (bucket upper bound clamped to `max_us`; 0
    /// when unused).
    pub p50_us: u64,
    /// 90th-percentile latency, µs (same bound).
    pub p90_us: u64,
    /// 99th-percentile latency, µs (same bound).
    pub p99_us: u64,
    /// Largest observed latency, µs (exact).
    pub max_us: u64,
}

/// One registered graph's row in [`ServerStats`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphInfo {
    /// Registry name.
    pub name: String,
    /// Current node count.
    pub nodes: usize,
    /// Current edge count.
    pub edges: usize,
    /// `Mutate` batches applied over the graph's lifetime.
    pub mutations: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip_as_json() {
        let requests = vec![
            Request::Load {
                name: "g".into(),
                graph: "n 2\n0 1\n".into(),
            },
            Request::Gen {
                name: "grid".into(),
                spec: GraphSpec::Grid { rows: 3, cols: 4 },
            },
            Request::Predict {
                graph: "g".into(),
                source_sets: vec![vec![0], vec![0, 1]],
            },
            Request::Flood {
                graph: "g".into(),
                sources: vec![0],
                engine: String::new(),
                max_rounds: 0,
            },
            Request::Batch {
                graph: "g".into(),
                request: FloodRequest::single(vec![1]),
            },
            Request::Bench {
                graph: "g".into(),
                request: FloodRequest::single(vec![0]),
                repeat: 3,
            },
            Request::Mutate {
                graph: "g".into(),
                deltas: vec![GraphDelta {
                    insert_edges: vec![(0, 1)],
                    ..GraphDelta::default()
                }],
            },
            Request::Evict { graph: "g".into() },
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
        ];
        for req in requests {
            let line = serde_json::to_string(&req).unwrap();
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(back, req, "{line}");
            // The same request inside an envelope: round-trips with its
            // id, and the envelope line never parses as a bare request
            // (the two shapes are disjoint).
            let env = Envelope {
                id: 42,
                request: req,
            };
            let line = serde_json::to_string(&env).unwrap();
            let back: Envelope = serde_json::from_str(&line).unwrap();
            assert_eq!(back, env, "{line}");
            assert!(
                serde_json::from_str::<Request>(&line).is_err(),
                "envelope must not parse as a bare request: {line}"
            );
        }
    }

    #[test]
    fn payload_free_verbs_are_bare_strings() {
        assert_eq!(serde_json::to_string(&Request::Stats).unwrap(), "\"Stats\"");
        assert_eq!(
            serde_json::to_string(&Request::Metrics).unwrap(),
            "\"Metrics\""
        );
        assert_eq!(
            serde_json::to_string(&Request::Shutdown).unwrap(),
            "\"Shutdown\""
        );
        assert_eq!(
            serde_json::to_string(&Response::ShuttingDown).unwrap(),
            "\"ShuttingDown\""
        );
    }

    #[test]
    fn responses_roundtrip_as_json() {
        let responses = vec![
            Response::Registered {
                name: "g".into(),
                nodes: 10,
                edges: 15,
            },
            Response::Predicted {
                predictions: vec![PredictSummary {
                    termination_round: 5,
                    total_messages: 30,
                    informed_count: 10,
                }],
            },
            Response::Mutated {
                name: "g".into(),
                nodes: 11,
                edges: 14,
                edits_applied: 3,
                edits_skipped: 1,
            },
            Response::Stats(ServerStats {
                requests: 7,
                errors: 1,
                uptime_secs: 12,
                requests_total: 7,
                verbs: vec![VerbCount {
                    verb: "Predict".into(),
                    count: 4,
                }],
                graphs: vec![GraphInfo {
                    name: "g".into(),
                    nodes: 10,
                    edges: 15,
                    mutations: 2,
                }],
            }),
            Response::Evicted {
                name: "g".into(),
                bytes_freed: 4096,
            },
            Response::Metrics(MetricsReport {
                uptime_secs: 12,
                requests_total: 7,
                errors_total: 1,
                connections: 2,
                bytes_read: 900,
                bytes_written: 1800,
                registry_bytes: 4096,
                registry_budget_bytes: 1 << 20,
                evictions_total: 2,
                pool_workers: 4,
                pool_depth: 1,
                pool_jobs_total: 9,
                verbs: vec![VerbStat {
                    verb: "Predict".into(),
                    count: 4,
                    p50_us: 127,
                    p90_us: 255,
                    p99_us: 255,
                    max_us: 201,
                }],
            }),
            Response::ShuttingDown,
            Response::Error(ErrorResponse::new(
                af_core::api::code::UNKNOWN_GRAPH,
                "no graph named 'g'",
            )),
        ];
        for resp in responses {
            let line = serde_json::to_string(&resp).unwrap();
            let back: Response = serde_json::from_str(&line).unwrap();
            assert_eq!(back, resp, "{line}");
            let tagged = TaggedResponse {
                id: 7,
                response: resp,
            };
            let line = serde_json::to_string(&tagged).unwrap();
            let back: TaggedResponse = serde_json::from_str(&line).unwrap();
            assert_eq!(back, tagged, "{line}");
        }
    }

    #[test]
    fn benched_roundtrips_with_real_measured_rows() {
        // A real measured row, not a hand-built literal, so the response
        // carries exactly what `measure_request` produces (f64 fields
        // included).
        let g = af_graph::generators::petersen();
        let row = af_analysis::bench::measure_request(&g, &FloodRequest::single(vec![0])).unwrap();
        let resp = Response::Benched {
            graph: "g".into(),
            nodes: 10,
            edges: 15,
            runs: vec![row],
        };
        let line = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        let Response::Benched { runs, .. } = back else {
            panic!("expected Benched, got {back:?}");
        };
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].engine, "frontier");
        assert_eq!(runs[0].floods_terminated, 1);
    }
}
