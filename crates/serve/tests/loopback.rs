//! End-to-end TCP: a real daemon on a loopback socket, concurrent
//! clients, and the tentpole guarantee — every byte a client reads back
//! is **bit-identical** to serializing the in-process answer, because
//! the wire adds no third execution semantics on top of
//! `FloodRequest::execute` and the registry.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use af_analysis::GraphSpec;
use af_core::api::{code, FloodRequest};
use af_graph::dynamic::GraphDelta;
use af_serve::{Registry, Request, Response, Server};

/// A blocking NDJSON client: one request line out, one response line in.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    fn send_raw(&mut self, line: &str) -> String {
        // One write per line: a trailing "\n" in its own segment waits
        // for the daemon's delayed ACK under Nagle.
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        self.stream.flush().expect("flush");
        let mut response = String::new();
        let n = self.reader.read_line(&mut response).expect("read");
        assert!(n > 0, "server closed the connection after {line:?}");
        response.trim_end().to_owned()
    }

    fn send(&mut self, request: &Request) -> String {
        self.send_raw(&serde_json::to_string(request).expect("serialize"))
    }
}

/// One client's scripted session: register a private graph, predict,
/// flood on several engines, mutate, and predict again.
fn script(name: &str, spec: GraphSpec) -> Vec<Request> {
    vec![
        Request::Gen {
            name: name.into(),
            spec,
        },
        Request::Predict {
            graph: name.into(),
            source_sets: vec![vec![0], vec![0, 1]],
        },
        Request::Flood {
            graph: name.into(),
            sources: vec![0],
            engine: String::new(),
            max_rounds: 0,
        },
        Request::Batch {
            graph: name.into(),
            request: FloodRequest {
                source_sets: vec![vec![0], vec![1], vec![0, 2]],
                engine: "bitlane".into(),
                max_rounds: 0,
            },
        },
        Request::Mutate {
            graph: name.into(),
            deltas: vec![GraphDelta {
                insert_edges: vec![(0, 2)],
                ..GraphDelta::default()
            }],
        },
        Request::Predict {
            graph: name.into(),
            source_sets: vec![vec![0]],
        },
        Request::Batch {
            graph: name.into(),
            request: FloodRequest {
                source_sets: vec![vec![0]],
                engine: "sharded:2:bfs".into(),
                max_rounds: 0,
            },
        },
    ]
}

#[test]
fn concurrent_clients_get_bit_identical_answers_and_shutdown_drains() {
    let server = Server::new(4096);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve_tcp(&listener));

        // Four concurrent clients, each on its own graph so the mutate
        // interleavings cannot affect each other's answers.
        let specs = [
            GraphSpec::Grid { rows: 12, cols: 13 },
            GraphSpec::Cycle { n: 200 },
            GraphSpec::Lollipop { k: 9, p: 30 },
            GraphSpec::SparseConnected {
                n: 150,
                extra: 80,
                seed: 11,
            },
        ];
        let workers: Vec<_> = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                scope.spawn(move || {
                    let name = format!("g{i}");
                    // The in-process reference: the same requests against
                    // a private registry, no sockets involved.
                    let reference = Registry::new();
                    let mut client = Client::connect(addr);
                    for request in script(&name, spec) {
                        let expected =
                            serde_json::to_string(&reference.execute(&request)).expect("serialize");
                        let wire = client.send(&request);
                        assert_eq!(wire, expected, "{request:?}");
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("client");
        }

        // Robustness on a live connection: garbage, truncated JSON, an
        // oversized line — each answered with a structured error, and
        // the same connection keeps working afterwards.
        let mut client = Client::connect(addr);
        for (garbage, want) in [
            ("not json", code::BAD_REQUEST),
            ("{\"Predict\": {\"graph\": \"g0\"", code::BAD_REQUEST),
            (&"x".repeat(5000), code::OVERSIZED),
        ] {
            let resp: Response = serde_json::from_str(&client.send_raw(garbage)).expect("parse");
            let Response::Error(err) = resp else {
                panic!(
                    "expected error for {:?}..., got {resp:?}",
                    &garbage[..16.min(garbage.len())]
                );
            };
            assert_eq!(err.code, want);
        }
        let resp: Response = serde_json::from_str(&client.send(&Request::Predict {
            graph: "g2".into(),
            source_sets: vec![vec![3]],
        }))
        .expect("parse");
        assert!(
            matches!(resp, Response::Predicted { .. }),
            "connection survives garbage: {resp:?}"
        );

        // Stats sees all four graphs and a live error count.
        let resp: Response = serde_json::from_str(&client.send(&Request::Stats)).expect("parse");
        let Response::Stats(stats) = resp else {
            panic!("expected stats, got {resp:?}");
        };
        let names: Vec<&str> = stats.graphs.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(names, ["g0", "g1", "g2", "g3"]);
        assert_eq!(stats.errors, 3);
        assert!(stats.graphs.iter().all(|g| g.mutations == 1));
        // The PR-8 stats extension: totals and per-verb counts ride
        // along without disturbing the original fields above.
        assert_eq!(stats.requests_total, stats.requests);
        let verb_count = |name: &str| {
            stats
                .verbs
                .iter()
                .find(|v| v.verb == name)
                .expect("every verb has a row")
                .count
        };
        assert_eq!(verb_count("Gen"), 4, "one Gen per worker");
        assert_eq!(
            verb_count("Predict"),
            9,
            "two per worker, plus one after garbage"
        );
        assert_eq!(verb_count("Batch"), 8);
        assert_eq!(verb_count("Shutdown"), 0);

        // Metrics: the full snapshot, over the same connection.
        let resp: Response = serde_json::from_str(&client.send(&Request::Metrics)).expect("parse");
        let Response::Metrics(report) = resp else {
            panic!("expected metrics, got {resp:?}");
        };
        assert_eq!(report.errors_total, 3);
        assert!(report.connections >= 5, "four workers plus this client");
        assert!(report.bytes_read > 0 && report.bytes_written > 0);
        assert!(report.registry_bytes > 0, "four graphs are resident");
        let predict = report.verbs.iter().find(|v| v.verb == "Predict").unwrap();
        assert_eq!(predict.count, 9);
        // The PR-9 fields: this server is unbounded, bare requests never
        // touch the pool, and nothing has been evicted yet.
        assert_eq!(report.registry_budget_bytes, 0);
        assert_eq!(report.evictions_total, 0);
        assert_eq!(report.pool_workers, 4, "the default pool");
        assert_eq!(report.pool_depth, 0);
        assert_eq!(report.pool_jobs_total, 0);

        // Eviction updates the gauges *eagerly*: `Metrics` is a pure
        // read of the counters, so the numbers must already be right the
        // instant `Evict` answers — no report-time registry walk to
        // paper over a stale gauge (the PR-9 regression).
        let before = report;
        let resp: Response =
            serde_json::from_str(&client.send(&Request::Evict { graph: "g3".into() }))
                .expect("parse");
        let Response::Evicted { name, bytes_freed } = resp else {
            panic!("expected Evicted, got {resp:?}");
        };
        assert_eq!(name, "g3");
        assert!(bytes_freed > 0);
        let resp: Response = serde_json::from_str(&client.send(&Request::Metrics)).expect("parse");
        let Response::Metrics(after) = resp else {
            panic!("expected metrics, got {resp:?}");
        };
        assert_eq!(after.registry_bytes, before.registry_bytes - bytes_freed);
        assert_eq!(after.evictions_total, 1);
        // A registered-then-evicted name is `not_found`, distinct from
        // the never-registered `unknown_graph`.
        let resp: Response = serde_json::from_str(&client.send(&Request::Flood {
            graph: "g3".into(),
            sources: vec![0],
            engine: String::new(),
            max_rounds: 0,
        }))
        .expect("parse");
        let Response::Error(err) = resp else {
            panic!("expected not_found, got {resp:?}");
        };
        assert_eq!(err.code, code::NOT_FOUND);

        // Shutdown: acknowledged, drained, and the accept loop returns.
        let ack = client.send(&Request::Shutdown);
        assert_eq!(ack, "\"ShuttingDown\"");
        // The drain is the real proof of shutdown: serve_tcp only
        // returns once the accept loop stopped AND every connection
        // thread (this client's included) has exited.
        serving.join().expect("server thread").expect("serve_tcp");
        assert!(server.is_shutting_down());
    });
}

#[test]
fn post_shutdown_requests_on_open_connections_are_refused() {
    let server = Server::default();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve_tcp(&listener));
        let mut early = Client::connect(addr);
        let resp = early.send(&Request::Gen {
            name: "g".into(),
            spec: GraphSpec::Petersen,
        });
        assert!(resp.starts_with("{\"Registered\""), "{resp}");

        let mut closer = Client::connect(addr);
        assert_eq!(closer.send(&Request::Shutdown), "\"ShuttingDown\"");

        // The still-open first connection either gets a structured
        // shutting_down refusal or a clean close — never a hang and
        // never a served request.
        early.stream.write_all(b"\"Stats\"\n").expect("write");
        early.stream.flush().expect("flush");
        let mut line = String::new();
        let n = early.reader.read_line(&mut line).expect("read");
        if n > 0 {
            let resp: Response = serde_json::from_str(line.trim_end()).expect("parse");
            let Response::Error(err) = resp else {
                panic!("expected refusal, got {resp:?}");
            };
            assert_eq!(err.code, code::SHUTTING_DOWN);
        }
        serving.join().expect("server thread").expect("serve_tcp");
    });
}

/// The median of 32 timed round trips on `client`, request `i` being
/// `line(i)`.
fn median_round_trip(client: &mut Client, line: impl Fn(u64) -> String) -> Duration {
    let mut times: Vec<Duration> = (0..32)
        .map(|i| {
            let line = line(i);
            let start = Instant::now();
            let response = client.send_raw(&line);
            let elapsed = start.elapsed();
            assert!(response.contains("Stats"), "{response}");
            elapsed
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// A small request on an idle loopback connection answers in well under
/// a millisecond of work. A response line split over two writes, or a
/// socket left with Nagle on, instead waits for the client's delayed ACK
/// (at least 40 ms on Linux) — so a median above 20 ms means the
/// transport is stalling, not computing.
#[test]
fn small_requests_round_trip_without_a_nagle_stall() {
    let server = Server::default();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve_tcp(&listener));
        let mut client = Client::connect(addr);
        let bare = median_round_trip(&mut client, |_| "\"Stats\"".to_owned());
        let enveloped = median_round_trip(&mut client, |id| {
            format!("{{\"id\": {id}, \"request\": \"Stats\"}}")
        });
        assert_eq!(client.send(&Request::Shutdown), "\"ShuttingDown\"");
        serving.join().expect("server thread").expect("serve_tcp");
        let bound = Duration::from_millis(20);
        assert!(bare < bound, "bare Stats median round trip {bare:?}");
        assert!(
            enveloped < bound,
            "enveloped Stats median round trip {enveloped:?}"
        );
    });
}
