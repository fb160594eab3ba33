//! Measures what the daemon exists for: predict throughput on a graph
//! loaded once (warm: one parity BFS on the resident snapshot per query)
//! versus the cold per-query cost (re-parse the graph text, build the
//! double cover, BFS) that a process-per-query workflow pays.
//!
//! ```text
//! bench_serve             # full grid (~1e6-edge instance per family)
//! bench_serve --smoke     # CI-sized instances
//! bench_serve --out PATH  # write the report somewhere else
//! ```
//!
//! Writes `BENCH_serve.json` (schema below). Every warm answer is
//! cross-checked against the cold oracle before timing is trusted: a
//! speedup over wrong answers would be worthless.
//!
//! Report schema (`schema_version` 2):
//!
//! ```json
//! {
//!   "schema_version": 2,
//!   "benchmark": "serve_predict",
//!   "mode": "full",
//!   "cases": [
//!     {
//!       "family": "grid",
//!       "spec": "grid(708x708)",
//!       "nodes": 501264,
//!       "edges": 1001112,
//!       "cold_queries": 2,
//!       "warm_queries": 64,
//!       "cold_ms_per_predict": 1234.5,
//!       "warm_ms_per_predict": 56.7,
//!       "warm_predictions_per_sec": 17.6,
//!       "speedup": 21.8
//!     }
//!   ],
//!   "daemon": {
//!     "transport": "tcp",
//!     "pool": 4,
//!     "background_clients": 2,
//!     "background_predicts": 96,
//!     "graph": "grid(200x200)",
//!     "nodes": 40000,
//!     "edges": 79600,
//!     "runs": [ ...af_analysis::bench::EngineStats rows... ]
//!   }
//! }
//! ```
//!
//! The `daemon` section is **self-recorded**: the rows come back over a
//! real TCP connection as `Bench` verb responses — the daemon runs the
//! `af_analysis::bench` measurement harness in-process — while
//! background clients hammer the same worker pool with id-enveloped
//! `Predict` bursts. The numbers therefore describe a *live, loaded*
//! daemon, not a quiet library call.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use af_analysis::bench::EngineStats;
use af_analysis::GraphSpec;
use af_core::api::FloodRequest;
use af_core::theory;
use af_graph::{io, NodeId};
use af_serve::log_line;
use af_serve::{Envelope, Request, Response, Server, ServerConfig, TaggedResponse};
use serde::Serialize;

/// The `BENCH_serve.json` schema version — bump when the report shape
/// changes, together with its citations (module doc above, README, CI).
const SERVE_BENCH_SCHEMA_VERSION: u32 = 2;

/// One family's cold-versus-warm measurement.
#[derive(Debug, Serialize)]
struct ServeCase {
    family: String,
    spec: String,
    nodes: usize,
    edges: usize,
    cold_queries: usize,
    warm_queries: usize,
    cold_ms_per_predict: f64,
    warm_ms_per_predict: f64,
    warm_predictions_per_sec: f64,
    speedup: f64,
}

/// The daemon-self-recorded section: `Bench` verb rows measured by a
/// live TCP daemon while background clients load its worker pool.
#[derive(Debug, Serialize)]
struct DaemonSection {
    transport: String,
    pool: usize,
    background_clients: usize,
    background_predicts: usize,
    graph: String,
    nodes: usize,
    edges: usize,
    runs: Vec<EngineStats>,
}

/// The whole report, as written to `BENCH_serve.json`.
#[derive(Debug, Serialize)]
struct ServeReport {
    schema_version: u32,
    benchmark: String,
    mode: String,
    cases: Vec<ServeCase>,
    daemon: DaemonSection,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = "BENCH_serve.json".to_owned();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match iter.next() {
                Some(path) => out = path.clone(),
                None => return fail("--out needs a path"),
            },
            other => return fail(&format!("unknown argument '{other}'")),
        }
    }

    let report = run(smoke);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    if let Err(e) = std::fs::write(&out, json + "\n") {
        return fail(&format!("writing {out}: {e}"));
    }
    log_line!("wrote {out}");
    ExitCode::SUCCESS
}

fn fail(message: &str) -> ExitCode {
    log_line!("bench_serve: {message}");
    ExitCode::FAILURE
}

fn run(smoke: bool) -> ServeReport {
    let (cold_queries, warm_queries) = if smoke { (4, 64) } else { (2, 64) };
    let mut cases = Vec::new();
    for (family, specs) in af_analysis::bench::cases(smoke) {
        let spec = specs.last().expect("every family has specs").clone();
        log_line!("[{family}] building {spec} ...");
        let graph = spec.build();
        let text = io::to_edge_list(&graph);
        let (nodes, edges) = (graph.node_count(), graph.edge_count());

        // The served path: load once, predict many.
        let server = Server::default();
        let loaded = server.registry().execute(&Request::Load {
            name: family.to_owned(),
            graph: text.clone(),
        });
        assert!(matches!(loaded, Response::Registered { .. }), "{loaded:?}");

        let sources = spread_sources(nodes, warm_queries.max(cold_queries));
        let predict = |set: Vec<usize>| Request::Predict {
            graph: family.to_owned(),
            source_sets: vec![set],
        };

        // A few untimed queries warm the allocator's pages; their
        // answers are cross-checked against the free oracle.
        for &src in sources.iter().take(3) {
            let resp = server.registry().execute(&predict(vec![src]));
            let Response::Predicted { predictions } = resp else {
                panic!("predict failed: {resp:?}");
            };
            let oracle = theory::predict(&graph, [NodeId::new(src)]);
            assert_eq!(predictions[0].termination_round, oracle.termination_round());
            assert_eq!(predictions[0].total_messages, oracle.total_messages());
        }

        let start = Instant::now();
        for q in 0..warm_queries {
            let resp = server
                .registry()
                .execute(&predict(vec![sources[q % sources.len()]]));
            assert!(matches!(resp, Response::Predicted { .. }), "{resp:?}");
        }
        let warm = start.elapsed();

        // The cold path a daemon-less workflow pays per query: re-parse
        // the graph text, rebuild the double cover, BFS once.
        let start = Instant::now();
        for q in 0..cold_queries {
            let g = io::from_text(&text).expect("round-trips");
            let p = theory::predict(&g, [NodeId::new(sources[q % sources.len()])]);
            std::hint::black_box(p.termination_round());
        }
        let cold = start.elapsed();

        let cold_ms = cold.as_secs_f64() * 1e3 / cold_queries as f64;
        let warm_ms = warm.as_secs_f64() * 1e3 / warm_queries as f64;
        log_line!(
            "[{family}] n={nodes} m={edges}: cold {cold_ms:.2} ms/predict, \
             warm {warm_ms:.3} ms/predict ({:.1}x)",
            cold_ms / warm_ms
        );
        cases.push(ServeCase {
            family: family.to_owned(),
            spec: spec.label(),
            nodes,
            edges,
            cold_queries,
            warm_queries,
            cold_ms_per_predict: cold_ms,
            warm_ms_per_predict: warm_ms,
            warm_predictions_per_sec: 1e3 / warm_ms,
            speedup: cold_ms / warm_ms,
        });
    }
    ServeReport {
        schema_version: SERVE_BENCH_SCHEMA_VERSION,
        benchmark: "serve_predict".to_owned(),
        mode: if smoke { "smoke" } else { "full" }.to_owned(),
        cases,
        daemon: daemon_section(smoke),
    }
}

/// A pipelining NDJSON client for the daemon section (std only; the
/// integration tests have their own richer twin).
struct WireClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl WireClient {
    fn connect(addr: SocketAddr) -> WireClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        WireClient { stream, reader }
    }

    fn send(&mut self, line: &str) {
        // One write per line: a trailing "\n" in its own segment waits
        // for the daemon's delayed ACK under Nagle.
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        self.stream.flush().expect("flush");
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read");
        assert!(n > 0, "daemon closed the connection");
        line.trim_end().to_owned()
    }
}

/// Runs a real TCP daemon, loads one grid, and has it measure its own
/// engines through the `Bench` verb while background clients keep the
/// worker pool busy with enveloped `Predict` bursts.
fn daemon_section(smoke: bool) -> DaemonSection {
    const POOL: usize = 4;
    const BACKGROUND_CLIENTS: usize = 2;
    let spec = if smoke {
        GraphSpec::Grid { rows: 30, cols: 30 }
    } else {
        GraphSpec::Grid {
            rows: 200,
            cols: 200,
        }
    };
    let graph = spec.build();
    let (nodes, edges) = (graph.node_count(), graph.edge_count());
    log_line!("[daemon] serving {} on TCP ...", spec.label());

    let server = Server::with_config(&ServerConfig {
        pool: POOL,
        ..ServerConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let stop = AtomicBool::new(false);
    let mut runs = Vec::new();
    let mut background_predicts = 0usize;

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve_tcp(&listener));

        // Load over the wire, like any client would.
        let mut bencher = WireClient::connect(addr);
        let load = Request::Load {
            name: "bench".into(),
            graph: io::to_edge_list(&graph),
        };
        bencher.send(&serde_json::to_string(&load).expect("serialize"));
        let loaded = bencher.read_line();
        assert!(loaded.starts_with("{\"Registered\""), "{loaded}");

        // Background load: enveloped Predict bursts against the same
        // pool until the bench rows are in.
        let background: Vec<_> = (0..BACKGROUND_CLIENTS)
            .map(|c| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut client = WireClient::connect(addr);
                    let mut sent = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        for i in 0..8usize {
                            let envelope = Envelope {
                                id: (c * 1000 + sent + i) as u64,
                                request: Request::Predict {
                                    graph: "bench".into(),
                                    source_sets: vec![vec![(i * 97) % nodes]],
                                },
                            };
                            client.send(&serde_json::to_string(&envelope).expect("serialize"));
                        }
                        for _ in 0..8 {
                            let line = client.read_line();
                            assert!(line.contains("\"Predicted\""), "{line}");
                        }
                        sent += 8;
                    }
                    sent
                })
            })
            .collect();

        // The daemon measures itself: one Bench request per engine,
        // enveloped so the measurement also rides the pool.
        let sources = spread_sources(nodes, 4);
        for (i, engine) in ["frontier", "fast", "bitlane", "sharded:2:bfs"]
            .into_iter()
            .enumerate()
        {
            let envelope = Envelope {
                id: 9000 + i as u64,
                request: Request::Bench {
                    graph: "bench".into(),
                    request: FloodRequest {
                        source_sets: sources.iter().map(|&s| vec![s]).collect(),
                        engine: engine.into(),
                        max_rounds: 0,
                    },
                    repeat: 2,
                },
            };
            bencher.send(&serde_json::to_string(&envelope).expect("serialize"));
            let line = bencher.read_line();
            let tagged: TaggedResponse =
                serde_json::from_str(&line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
            let Response::Benched { runs: rows, .. } = tagged.response else {
                panic!("bench failed for {engine}: {:?}", tagged.response);
            };
            for row in &rows {
                log_line!(
                    "[daemon] {}: {:.1} ms, {:.0} edges/s under load",
                    row.engine,
                    row.wall_ms,
                    row.edges_per_sec
                );
            }
            runs.extend(rows);
        }

        stop.store(true, Ordering::Relaxed);
        for worker in background {
            background_predicts += worker.join().expect("background client");
        }
        let shutdown = serde_json::to_string(&Request::Shutdown).expect("serialize");
        bencher.send(&shutdown);
        assert_eq!(bencher.read_line(), "\"ShuttingDown\"");
        serving.join().expect("server thread").expect("serve_tcp");
    });

    DaemonSection {
        transport: "tcp".into(),
        pool: POOL,
        background_clients: BACKGROUND_CLIENTS,
        background_predicts,
        graph: spec.label(),
        nodes,
        edges,
        runs,
    }
}

/// `count` well-spread node ids (first, stride steps, last).
fn spread_sources(n: usize, count: usize) -> Vec<usize> {
    let count = count.min(n).max(1);
    (0..count).map(|i| i * (n - 1) / count.max(1)).collect()
}
