//! The concurrency and fault-injection battery for the pooled serve
//! layer.
//!
//! Concurrency: N concurrent TCP clients fire *pipelined* id-enveloped
//! requests (mixed Flood/Batch/Predict/Mutate) without waiting for
//! responses; the pool answers out of order, and every response must
//! (a) correlate to its request id and (b) be byte-identical to
//! serializing the in-process answer — across pool sizes {1, 2, 8}, so
//! neither a serialized pool nor a wide one changes a single byte.
//!
//! Faults: a client that vanishes mid-pipeline with Batch work queued, a
//! connection that sends an oversized line and then a valid one, and a
//! `Shutdown` racing queued pool work. The daemon must drain cleanly,
//! keep serving everyone else, and keep its metrics balanced
//! (`requests_total` == the sum of per-verb counts) through all of it.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown as SocketShutdown, SocketAddr, TcpListener, TcpStream};

use af_analysis::GraphSpec;
use af_core::api::{code, FloodRequest};
use af_graph::dynamic::GraphDelta;
use af_serve::{Envelope, Registry, Request, Response, Server, ServerConfig, TaggedResponse};

/// An NDJSON client that can pipeline: writes and reads are separate,
/// so many requests can be in flight at once.
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

    fn send_line(&mut self, line: &str) {
        // One write per line: a trailing "\n" in its own segment waits
        // for the daemon's delayed ACK under Nagle.
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        self.stream.flush().expect("flush");
    }

    fn send(&mut self, request: &Request) {
        self.send_line(&serde_json::to_string(request).expect("serialize"));
    }

    fn send_tagged(&mut self, id: u64, request: &Request) {
        let envelope = Envelope {
            id,
            request: request.clone(),
        };
        self.send_line(&serde_json::to_string(&envelope).expect("serialize"));
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read");
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim_end().to_owned()
    }

    /// One request, one response — the in-order bare path.
    fn roundtrip(&mut self, request: &Request) -> String {
        self.send(request);
        self.read_line()
    }

    /// One raw line out, one line in.
    fn roundtrip_raw(&mut self, line: &str) -> String {
        self.send_line(line);
        self.read_line()
    }
}

/// The id of a tagged line, without touching the response payload (so
/// byte-identity checks compare raw lines, not re-serialized parses).
fn tag_of(line: &str) -> u64 {
    #[derive(serde::Deserialize)]
    struct Tag {
        id: u64,
    }
    let tag: Tag = serde_json::from_str(line).unwrap_or_else(|e| panic!("untagged {line:?}: {e}"));
    tag.id
}

/// The wire line the daemon must produce for envelope `id` carrying
/// `request`, per the in-process reference registry.
fn expected_line(reference: &Registry, id: u64, request: &Request) -> String {
    let tagged = TaggedResponse {
        id,
        response: reference.execute(request),
    };
    serde_json::to_string(&tagged).expect("serialize")
}

/// The read-only request mix one burst fires at a graph: floods on
/// different engines, batches, predictions — everything safe to answer
/// in any order.
fn read_only_mix(graph: &str) -> Vec<Request> {
    vec![
        Request::Predict {
            graph: graph.into(),
            source_sets: vec![vec![0], vec![1, 2]],
        },
        Request::Flood {
            graph: graph.into(),
            sources: vec![0],
            engine: String::new(),
            max_rounds: 0,
        },
        Request::Flood {
            graph: graph.into(),
            sources: vec![1],
            engine: "fast".into(),
            max_rounds: 0,
        },
        Request::Batch {
            graph: graph.into(),
            request: FloodRequest {
                source_sets: vec![vec![0], vec![1], vec![0, 2]],
                engine: "bitlane".into(),
                max_rounds: 0,
            },
        },
        Request::Batch {
            graph: graph.into(),
            request: FloodRequest {
                source_sets: vec![vec![2]],
                engine: "sharded:2:bfs".into(),
                max_rounds: 0,
            },
        },
        Request::Predict {
            graph: graph.into(),
            source_sets: vec![vec![3]],
        },
    ]
}

/// Sends `requests` as one pipelined envelope burst with ids starting
/// at `base`, reads all the out-of-order answers, and asserts each one
/// is byte-identical to the reference registry's answer.
fn pipelined_burst(client: &mut Client, reference: &Registry, base: u64, requests: &[Request]) {
    let mut expected = BTreeMap::new();
    for (i, request) in requests.iter().enumerate() {
        let id = base + i as u64;
        expected.insert(id, expected_line(reference, id, request));
        client.send_tagged(id, request);
    }
    for _ in 0..requests.len() {
        let line = client.read_line();
        let id = tag_of(&line);
        let want = expected
            .remove(&id)
            .unwrap_or_else(|| panic!("unknown or duplicate id {id} in {line:?}"));
        assert_eq!(line, want, "id {id} diverged from the in-process answer");
    }
    assert!(expected.is_empty(), "unanswered ids: {expected:?}");
}

/// Tentpole: out-of-order correlation is exact and byte-identical under
/// every pool size, with barriers only where mutation demands them.
#[test]
fn pipelined_out_of_order_clients_match_in_process_execution() {
    for pool in [1usize, 2, 8] {
        let server = Server::with_config(&ServerConfig {
            pool,
            ..ServerConfig::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");

        std::thread::scope(|scope| {
            let serving = scope.spawn(|| server.serve_tcp(&listener));

            let specs = [
                GraphSpec::Grid { rows: 9, cols: 11 },
                GraphSpec::Cycle { n: 120 },
                GraphSpec::Lollipop { k: 7, p: 20 },
                GraphSpec::SparseConnected {
                    n: 90,
                    extra: 40,
                    seed: 7,
                },
            ];
            let clients: Vec<_> = specs
                .into_iter()
                .enumerate()
                .map(|(i, spec)| {
                    scope.spawn(move || {
                        let graph = format!("g{i}");
                        let reference = Registry::new();
                        let mut client = Client::connect(addr);

                        // Barrier 1: the graph must exist before any
                        // pipelined work can race it. Bare = inline.
                        let gen = Request::Gen {
                            name: graph.clone(),
                            spec,
                        };
                        let line = client.roundtrip(&gen);
                        assert_eq!(
                            line,
                            serde_json::to_string(&reference.execute(&gen)).unwrap()
                        );

                        // Burst 1: read-only mix, any order is legal.
                        pipelined_burst(&mut client, &reference, 100, &read_only_mix(&graph));

                        // Barrier 2: a mutation must not race the reads
                        // above (we drained them) or below (we wait for
                        // its tagged ack). Enveloped Mutate still runs
                        // on the pool.
                        let mutate = Request::Mutate {
                            graph: graph.clone(),
                            deltas: vec![GraphDelta {
                                insert_edges: vec![(0, 3)],
                                ..GraphDelta::default()
                            }],
                        };
                        pipelined_burst(
                            &mut client,
                            &reference,
                            200,
                            std::slice::from_ref(&mutate),
                        );

                        // Burst 2: the same mix against the mutated
                        // graph — the pool answers from the new
                        // snapshot, byte-for-byte.
                        pipelined_burst(&mut client, &reference, 300, &read_only_mix(&graph));
                    })
                })
                .collect();
            for client in clients {
                client.join().expect("client");
            }

            let mut closer = Client::connect(addr);
            assert_eq!(closer.roundtrip(&Request::Shutdown), "\"ShuttingDown\"");
            serving.join().expect("server thread").expect("serve_tcp");
        });

        // Metrics balance survives the whole battery: every parsed
        // request landed on exactly one verb row, and the pool drained.
        let report = server.registry().metrics_report();
        assert_eq!(report.pool_workers, pool as u64);
        assert_eq!(report.pool_depth, 0, "pool {pool}: jobs drained");
        assert_eq!(
            report.pool_jobs_total,
            4 * 13,
            "pool {pool}: 13 enveloped requests per client"
        );
        let verb_sum: u64 = report.verbs.iter().map(|v| v.count).sum();
        assert_eq!(report.requests_total, verb_sum, "pool {pool}");
        assert_eq!(report.errors_total, 0, "pool {pool}");
    }
}

/// Fault: a client hangs up with pipelined Batch work still queued. The
/// workers' writes to the dead socket fail; nothing else may notice.
#[test]
fn mid_batch_disconnect_never_kills_the_daemon() {
    let server = Server::with_config(&ServerConfig {
        pool: 2,
        ..ServerConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve_tcp(&listener));

        // The deserter: registers a real graph, pipelines heavy batches,
        // and vanishes without reading a single response.
        let mut deserter = Client::connect(addr);
        let gen = Request::Gen {
            name: "doomed".into(),
            spec: GraphSpec::Grid { rows: 40, cols: 40 },
        };
        let line = deserter.roundtrip(&gen);
        assert!(line.starts_with("{\"Registered\""), "{line}");
        for id in 0..6u64 {
            deserter.send_tagged(
                id,
                &Request::Batch {
                    graph: "doomed".into(),
                    request: FloodRequest {
                        source_sets: vec![vec![0], vec![17], vec![300]],
                        engine: String::new(),
                        max_rounds: 0,
                    },
                },
            );
        }
        deserter
            .stream
            .shutdown(SocketShutdown::Both)
            .expect("shutdown socket");
        drop(deserter);

        // A well-behaved client on another connection is undisturbed,
        // before, during, and after the deserter's jobs die on the wire.
        let reference = Registry::new();
        let mut survivor = Client::connect(addr);
        let gen = Request::Gen {
            name: "alive".into(),
            spec: GraphSpec::Cycle { n: 64 },
        };
        let line = survivor.roundtrip(&gen);
        assert_eq!(
            line,
            serde_json::to_string(&reference.execute(&gen)).unwrap()
        );
        pipelined_burst(&mut survivor, &reference, 500, &read_only_mix("alive"));

        // Wait out the deserter's queue: depth returns to zero because
        // a failed write still finishes the job.
        let mut tries = 0;
        while server.registry().metrics_report().pool_depth > 0 {
            tries += 1;
            assert!(tries < 200, "pool never drained the deserter's jobs");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        assert_eq!(survivor.roundtrip(&Request::Shutdown), "\"ShuttingDown\"");
        serving.join().expect("server thread").expect("serve_tcp");
    });

    let report = server.registry().metrics_report();
    assert_eq!(report.pool_jobs_total, 6 + 6, "deserter's 6 + survivor's 6");
    assert_eq!(report.pool_depth, 0);
    let verb_sum: u64 = report.verbs.iter().map(|v| v.count).sum();
    assert_eq!(report.requests_total, verb_sum, "metrics stay balanced");
    assert_eq!(
        report.errors_total, 0,
        "a dead socket is not a request error"
    );
}

/// Fault: an oversized line answers with a structured error and the
/// *same* connection keeps working — including enveloped requests.
#[test]
fn oversized_then_valid_line_keeps_the_connection() {
    let server = Server::with_config(&ServerConfig {
        line_cap: 1024,
        pool: 2,
        registry_budget: 0,
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve_tcp(&listener));
        let reference = Registry::new();
        let mut client = Client::connect(addr);

        let gen = Request::Gen {
            name: "g".into(),
            spec: GraphSpec::Petersen,
        };
        let line = client.roundtrip(&gen);
        assert_eq!(
            line,
            serde_json::to_string(&reference.execute(&gen)).unwrap()
        );

        // Oversized (2 KiB against a 1 KiB cap), then valid, twice over.
        for _ in 0..2 {
            let line = client.roundtrip_raw(&"x".repeat(2048));
            let resp: Response = serde_json::from_str(&line).expect("parse");
            let Response::Error(err) = resp else {
                panic!("expected oversized error, got {resp:?}");
            };
            assert_eq!(err.code, code::OVERSIZED);
            pipelined_burst(&mut client, &reference, 700, &read_only_mix("g"));
        }

        assert_eq!(client.roundtrip(&Request::Shutdown), "\"ShuttingDown\"");
        serving.join().expect("server thread").expect("serve_tcp");
    });

    let report = server.registry().metrics_report();
    assert_eq!(report.errors_total, 2, "exactly the two oversized lines");
    let verb_sum: u64 = report.verbs.iter().map(|v| v.count).sum();
    assert_eq!(report.requests_total, verb_sum);
}

/// Fault: `Shutdown` lands while the (single-worker) pool still holds
/// queued jobs. Every accepted job must still answer before `serve_tcp`
/// returns — drain means drain.
#[test]
fn shutdown_with_queued_pool_work_drains_every_response() {
    let server = Server::with_config(&ServerConfig {
        pool: 1,
        ..ServerConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve_tcp(&listener));
        let reference = Registry::new();
        let mut client = Client::connect(addr);

        let gen = Request::Gen {
            name: "g".into(),
            spec: GraphSpec::Grid { rows: 30, cols: 30 },
        };
        let line = client.roundtrip(&gen);
        assert_eq!(
            line,
            serde_json::to_string(&reference.execute(&gen)).unwrap()
        );

        // Pipeline K heavy jobs at the single worker, then Shutdown on
        // the same connection without reading anything: the ack executes
        // inline, so it overtakes the queue.
        let batch = Request::Batch {
            graph: "g".into(),
            request: FloodRequest {
                source_sets: vec![vec![0], vec![450], vec![899]],
                engine: String::new(),
                max_rounds: 0,
            },
        };
        let mut expected = BTreeMap::new();
        for id in 0..5u64 {
            expected.insert(id, expected_line(&reference, id, &batch));
            client.send_tagged(id, &batch);
        }
        client.send(&Request::Shutdown);

        // Exactly 6 lines come back — the ack plus all 5 tagged
        // responses — then EOF as the daemon finishes its drain.
        let mut saw_ack = false;
        for _ in 0..6 {
            let line = client.read_line();
            if line == "\"ShuttingDown\"" {
                assert!(!saw_ack, "one ack only");
                saw_ack = true;
                continue;
            }
            let id = tag_of(&line);
            let want = expected
                .remove(&id)
                .unwrap_or_else(|| panic!("unknown or duplicate id {id}"));
            assert_eq!(line, want, "queued job {id} answered after shutdown");
        }
        assert!(saw_ack, "shutdown was acknowledged");
        assert!(expected.is_empty(), "lost queued jobs: {expected:?}");
        let mut rest = String::new();
        let n = client.reader.read_line(&mut rest).expect("read");
        assert_eq!(n, 0, "expected EOF after the drain, got {rest:?}");

        serving.join().expect("server thread").expect("serve_tcp");
    });

    let report = server.registry().metrics_report();
    assert_eq!(report.pool_jobs_total, 5);
    assert_eq!(report.pool_depth, 0, "every queued job was finished");
    let verb_sum: u64 = report.verbs.iter().map(|v| v.count).sum();
    assert_eq!(report.requests_total, verb_sum);
}
