//! The graph registry: named graphs loaded once, shared by every
//! connection, mutated in place — and, when a byte budget is configured,
//! a least-recently-used eviction policy that keeps the total charged
//! footprint under it.
//!
//! An entry holds one copy of its graph and nothing derived from it.
//! `Predict` runs [`af_core::theory::predict_summary`], a parity BFS on
//! the snapshot whose buffers live only as long as the request; `Mutate`
//! resumes a [`af_graph::dynamic::DeltaGraph`] overlay from the snapshot
//! on demand and keeps only the rebuilt CSR.
//!
//! Locking layout, coarsest to finest:
//!
//! - [`Registry`] holds the name → entry map behind a `RwLock`; request
//!   handlers take a read lock just long enough to clone the entry's
//!   `Arc`, so `Load`/`Gen` (the only writers) never block in-flight
//!   floods.
//! - Each [`GraphEntry`] keeps an `Arc<Graph>` **snapshot** behind its
//!   own `RwLock`. Floods and predictions clone the `Arc` and drop the
//!   lock before doing any work, so arbitrarily slow requests never hold
//!   a lock; `Mutate` builds the next snapshot under the entry's
//!   `departed` mutex (which serializes mutations) and swaps it in
//!   atomically.
//!
//! Lock-order rule for the budget machinery: a thread holding the
//! entry-level `departed` lock must **release it before** touching the
//! registry map — eviction walks the map under the write lock and then
//! takes victims' ledgers, so the opposite nesting would be an ABBA
//! deadlock. Handlers therefore finish their entry-level work, drop the
//! guard, and only then call `Registry::enforce_budget`. The per-entry
//! [`Charges`] mutex is the innermost leaf of the order (`departed` →
//! `charges` is allowed; `charges` is never held while taking any other
//! lock).
//!
//! Byte accounting is **eager, exact, and transactional**: each entry
//! charges the real heap bytes of its snapshot and departed ids
//! ([`Graph::heap_bytes`] plus the id vector's capacity) into the shared
//! [`ServeMetrics`] gauge when it is created and releases them when it is
//! dropped, so a `Metrics` report is a pure read. Each entry's charge and
//! its `dead` flag live in one [`Charges`] ledger behind one mutex, so
//! every charge/release pair is observed atomically: an entry evicted
//! while a `Mutate` still holds its `Arc` is flagged dead under the lock,
//! and the mutate's recharge sees the flag in the same critical section
//! and stays uncharged — every interleaving is a total order, and the
//! gauge balances.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use af_core::api::{code, ErrorResponse};
use af_core::theory::{self, PredictSummary};
use af_graph::dynamic::{DeltaGraph, GraphDelta};
use af_graph::{Graph, NodeId};
use parking_lot::{Mutex, RwLock};

use crate::metrics::{ServeMetrics, Verb};
use crate::protocol::{GraphInfo, MetricsReport, Request, Response, ServerStats};

/// One registered graph: its current snapshot, the ids its mutations
/// retired, and its budget ledger.
#[derive(Debug)]
pub struct GraphEntry {
    /// Immutable snapshot of the current topology, swapped after each
    /// mutation. Readers clone the `Arc` and work lock-free.
    snapshot: RwLock<Arc<Graph>>,
    /// Node ids retired by `Mutate` leaves — the one piece of overlay
    /// state the snapshot cannot give back (a departed node and an
    /// isolated live node look the same in the CSR). Empty unless a
    /// mutation retired nodes; its lock serializes `Mutate`s.
    departed: Mutex<Vec<NodeId>>,
    /// `Mutate` batches applied over this graph's lifetime.
    mutations: AtomicU64,
    /// LRU timestamp: the registry clock value of the last touch.
    last_used: AtomicU64,
    /// Budget ledger for this entry — see [`Charges`].
    charges: Mutex<Charges>,
}

/// One entry's budget-accounting ledger. A single mutex guards both the
/// charge and the `dead` flag, so "am I still resident?" and "what do I
/// owe?" are always answered together. The mutex is the innermost leaf
/// of the lock order: held for a few word-sized reads and writes, never
/// while acquiring any other lock.
#[derive(Debug, Default)]
struct Charges {
    /// Heap bytes currently charged for the snapshot and departed ids
    /// (0 after release).
    bytes: u64,
    /// Set when the entry leaves the map (eviction or replacement); an
    /// in-flight `Mutate` observes it and leaves its recharge undone.
    dead: bool,
}

/// The exact heap an entry charges: its snapshot's CSR arrays plus the
/// capacity of its departed-id vector.
fn entry_bytes(graph: &Graph, departed: &Vec<NodeId>) -> u64 {
    (graph.heap_bytes() + departed.capacity() * std::mem::size_of::<NodeId>()) as u64
}

impl GraphEntry {
    fn new(graph: Graph) -> Self {
        GraphEntry {
            snapshot: RwLock::new(Arc::new(graph)),
            departed: Mutex::new(Vec::new()),
            mutations: AtomicU64::new(0),
            last_used: AtomicU64::new(0),
            charges: Mutex::new(Charges::default()),
        }
    }

    /// The current topology as a cheap shared handle.
    pub fn snapshot(&self) -> Arc<Graph> {
        Arc::clone(&self.snapshot.read())
    }
}

/// The daemon's shared state: the graph map plus request counters.
///
/// Every verb funnels through [`Registry::execute`], which returns the
/// wire [`Response`] and keeps the counters honest (errors included).
/// The registry is transport-agnostic — the TCP server, the stdio
/// server, and the in-process tests all drive the same object.
#[derive(Debug, Default)]
pub struct Registry {
    graphs: RwLock<BTreeMap<String, Arc<GraphEntry>>>,
    /// Byte budget for the entries' heap; 0 = unbounded.
    budget: u64,
    /// Monotonic LRU clock; every touch takes the next tick.
    clock: AtomicU64,
    /// Names that were registered and then evicted (cleared by
    /// re-registration) — they answer [`code::NOT_FOUND`] instead of
    /// [`code::UNKNOWN_GRAPH`].
    evicted: Mutex<BTreeSet<String>>,
    requests: AtomicU64,
    errors: AtomicU64,
    metrics: ServeMetrics,
}

impl Registry {
    /// An empty, unbounded registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::with_budget(0)
    }

    /// An empty registry with a byte budget for the graphs' heap (`0` =
    /// unbounded). When an admission would push the charged total over
    /// the budget, least-recently-used graphs are evicted until it fits;
    /// a single graph larger than the whole budget is rejected with
    /// [`code::OVER_BUDGET`].
    #[must_use]
    pub fn with_budget(budget: u64) -> Self {
        let registry = Registry {
            budget,
            ..Registry::default()
        };
        registry.metrics.set_registry_budget(budget);
        registry
    }

    /// The configured byte budget (0 = unbounded).
    #[must_use]
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Executes one request and returns its response, counting both.
    ///
    /// [`Request::Shutdown`] is answered with
    /// [`Response::ShuttingDown`]; actually stopping the transport is
    /// the server's job (the registry has no connections to close).
    pub fn execute(&self, request: &Request) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let verb = Verb::of(request);
        let started = Instant::now();
        let result = match request {
            // af-audit: allow(explicit-atomic-ordering): Registry::load is not an atomic
            Request::Load { name, graph } => self.load(name, graph),
            Request::Gen { name, spec } => self.register(name, spec.build()),
            Request::Predict { graph, source_sets } => self.predict(graph, source_sets),
            Request::Flood {
                graph,
                sources,
                engine,
                max_rounds,
            } => {
                let request = af_core::api::FloodRequest {
                    source_sets: vec![sources.clone()],
                    engine: engine.clone(),
                    max_rounds: *max_rounds,
                };
                self.batch(graph, &request)
            }
            Request::Batch { graph, request } => self.batch(graph, request),
            Request::Bench {
                graph,
                request,
                repeat,
            } => self.bench(graph, request, *repeat),
            Request::Mutate { graph, deltas } => self.mutate(graph, deltas),
            Request::Evict { graph } => self.evict(graph),
            Request::Stats => Ok(Response::Stats(self.stats())),
            Request::Metrics => Ok(Response::Metrics(self.metrics_report())),
            Request::Shutdown => Ok(Response::ShuttingDown),
        };
        let response = result.unwrap_or_else(|e| self.reject(e));
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.metrics.observe(verb, micros);
        response
    }

    /// Wraps a failure as a [`Response::Error`], counting it — also used
    /// by the server for failures that never reach a handler (unparsable
    /// or oversized lines, requests after shutdown began).
    pub fn reject(&self, error: ErrorResponse) -> Response {
        self.errors.fetch_add(1, Ordering::Relaxed);
        Response::Error(error)
    }

    /// Counts a request the server answered without a handler —
    /// unparsable or oversized lines, refusals during shutdown (the
    /// caller pairs this with [`Self::reject`]). These land on the
    /// `Rejected` verb row, so `requests_total` stays equal to the sum
    /// of the per-verb counts no matter what a client throws at us.
    pub fn count_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.metrics.observe(Verb::Rejected, 0);
    }

    /// The daemon's metric block — the transports record connection and
    /// byte counts here; [`Self::execute`] records verbs and latency.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The full metrics snapshot behind the `Metrics` verb and the
    /// final stderr flush. A pure read: the footprint gauges are
    /// maintained eagerly by every register / mutate / evict, so nothing
    /// walks the registry here.
    pub fn metrics_report(&self) -> MetricsReport {
        self.metrics.report(
            self.requests.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
        )
    }

    /// Looks up a registered graph's entry.
    ///
    /// # Errors
    ///
    /// [`code::NOT_FOUND`] if the name was registered but has been
    /// evicted since; [`code::UNKNOWN_GRAPH`] if it never was.
    pub fn entry(&self, name: &str) -> Result<Arc<GraphEntry>, ErrorResponse> {
        if let Some(entry) = self.graphs.read().get(name) {
            return Ok(Arc::clone(entry));
        }
        Err(self.missing_error(name))
    }

    /// The error for a name that is not in the map right now:
    /// [`code::NOT_FOUND`] if it was registered and evicted since,
    /// [`code::UNKNOWN_GRAPH`] if it never was.
    fn missing_error(&self, name: &str) -> ErrorResponse {
        if self.evicted.lock().contains(name) {
            ErrorResponse::new(
                code::NOT_FOUND,
                format!("graph '{name}' was evicted; re-Load or re-Gen it"),
            )
        } else {
            ErrorResponse::new(code::UNKNOWN_GRAPH, format!("no graph named '{name}'"))
        }
    }

    /// Marks an entry as just-used for LRU ordering.
    fn touch(&self, entry: &GraphEntry) {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        entry.last_used.store(tick, Ordering::Relaxed);
    }

    /// Registers a graph parsed from text — the boot path behind
    /// `--registry-dir`. Identical to a `Load` request except that it
    /// does **not** count as a wire request (boot loads would otherwise
    /// skew `requests_total` against the per-verb counts).
    ///
    /// # Errors
    ///
    /// [`code::BAD_GRAPH`] if the text parses as neither edge list nor
    /// graph6; [`code::OVER_BUDGET`] if the graph alone exceeds the
    /// registry budget.
    pub fn register_from_text(&self, name: &str, text: &str) -> Result<Response, ErrorResponse> {
        // af-audit: allow(explicit-atomic-ordering): Registry::load is not an atomic
        self.load(name, text)
    }

    fn load(&self, name: &str, text: &str) -> Result<Response, ErrorResponse> {
        let graph = af_graph::io::from_text(text)
            .map_err(|e| ErrorResponse::new(code::BAD_GRAPH, format!("{e}")))?;
        self.register(name, graph)
    }

    fn register(&self, name: &str, graph: Graph) -> Result<Response, ErrorResponse> {
        let bytes = graph.heap_bytes() as u64;
        if self.budget > 0 && bytes > self.budget {
            return Err(ErrorResponse::new(
                code::OVER_BUDGET,
                format!(
                    "graph '{name}' needs {bytes} bytes, over the {}-byte registry budget",
                    self.budget
                ),
            ));
        }
        let nodes = graph.node_count();
        let edges = graph.edge_count();
        let entry = Arc::new(GraphEntry::new(graph));
        entry.charges.lock().bytes = bytes;
        self.metrics.charge_registry(bytes);
        self.touch(&entry);
        let replaced = self.graphs.write().insert(name.to_owned(), entry);
        if let Some(old) = replaced {
            // Same-name replacement releases the old charge but is not
            // an eviction: the name stays resident.
            self.release_entry(&old);
        }
        self.evicted.lock().remove(name);
        self.enforce_budget(name);
        Ok(Response::Registered {
            name: name.to_owned(),
            nodes,
            edges,
        })
    }

    /// Flags `entry` dead and takes back its outstanding charge in one
    /// critical section. A `Mutate` that recharges after this observes
    /// the flag under the same lock and stays uncharged, so each charge
    /// is released exactly once. Returns the bytes released.
    fn release_entry(&self, entry: &GraphEntry) -> u64 {
        let bytes = {
            let mut charges = entry.charges.lock();
            charges.dead = true;
            std::mem::take(&mut charges.bytes)
        };
        self.metrics.uncharge_registry(bytes);
        bytes
    }

    /// Evicts least-recently-used graphs (never `keep`) until the
    /// charged footprint fits the budget. No-op when unbounded.
    fn enforce_budget(&self, keep: &str) {
        if self.budget == 0 {
            return;
        }
        let mut graphs = self.graphs.write();
        while self.metrics.registry_bytes() > self.budget {
            let victim = graphs
                .iter()
                .filter(|(name, _)| name.as_str() != keep)
                .min_by_key(|(_, entry)| entry.last_used.load(Ordering::Relaxed))
                .map(|(name, _)| name.clone());
            let Some(name) = victim else {
                // Only `keep` is left; Mutate may legitimately leave it
                // over budget (the documented escape hatch).
                break;
            };
            let Some(entry) = graphs.remove(&name) else {
                // Unreachable — the victim name came from this very map
                // under the same write lock — but breaking beats both a
                // panic and a spin.
                break;
            };
            self.release_entry(&entry);
            self.metrics.eviction();
            self.evicted.lock().insert(name);
        }
    }

    fn evict(&self, name: &str) -> Result<Response, ErrorResponse> {
        let removed = self.graphs.write().remove(name);
        let Some(entry) = removed else {
            // Same error split as entry(): evicted-before vs never.
            return Err(self.missing_error(name));
        };
        let bytes_freed = self.release_entry(&entry);
        self.metrics.eviction();
        self.evicted.lock().insert(name.to_owned());
        Ok(Response::Evicted {
            name: name.to_owned(),
            bytes_freed,
        })
    }

    fn predict(&self, name: &str, source_sets: &[Vec<usize>]) -> Result<Response, ErrorResponse> {
        let entry = self.entry(name)?;
        self.touch(&entry);
        let snapshot = entry.snapshot();
        // The oracle itself panics on out-of-range ids, so validate
        // against the snapshot first — a malformed request must come
        // back as an error, not kill the connection.
        let n = snapshot.node_count();
        for (i, set) in source_sets.iter().enumerate() {
            if let Some(&v) = set.iter().find(|&&v| v >= n) {
                return Err(ErrorResponse::new(
                    code::BAD_SOURCE,
                    format!("source {v} in set {i} out of range for {n} nodes"),
                ));
            }
        }
        let predictions: Vec<PredictSummary> = source_sets
            .iter()
            .map(|set| theory::predict_summary(&snapshot, set.iter().copied().map(NodeId::new)))
            .collect();
        Ok(Response::Predicted { predictions })
    }

    fn batch(
        &self,
        name: &str,
        request: &af_core::api::FloodRequest,
    ) -> Result<Response, ErrorResponse> {
        let entry = self.entry(name)?;
        self.touch(&entry);
        let snapshot = entry.snapshot();
        request.execute(&snapshot).map(Response::Flooded)
    }

    fn bench(
        &self,
        name: &str,
        request: &af_core::api::FloodRequest,
        repeat: u32,
    ) -> Result<Response, ErrorResponse> {
        if repeat == 0 {
            return Err(ErrorResponse::new(
                code::BAD_REQUEST,
                "bench repeat must be at least 1",
            ));
        }
        let entry = self.entry(name)?;
        self.touch(&entry);
        let snapshot = entry.snapshot();
        let mut runs = Vec::with_capacity(repeat as usize);
        for _ in 0..repeat {
            runs.push(af_analysis::bench::measure_request(&snapshot, request)?);
        }
        Ok(Response::Benched {
            graph: name.to_owned(),
            nodes: snapshot.node_count(),
            edges: snapshot.edge_count(),
            runs,
        })
    }

    fn mutate(&self, name: &str, deltas: &[GraphDelta]) -> Result<Response, ErrorResponse> {
        let entry = self.entry(name)?;
        self.touch(&entry);
        let (nodes, edges, edits_applied, edits_skipped) = {
            let mut departed = entry.departed.lock();
            let mut overlay = DeltaGraph::from_snapshot(entry.snapshot(), &departed);
            let mut edits_applied = 0;
            let mut edits_skipped = 0;
            for batch in deltas {
                let applied = overlay.apply(batch);
                edits_applied += applied.edges_deleted
                    + applied.edges_inserted
                    + applied.nodes_left
                    + applied.nodes_joined;
                edits_skipped += applied.edits_skipped;
            }
            entry
                .mutations
                .fetch_add(deltas.len() as u64, Ordering::Relaxed);
            *departed = overlay.departed_nodes().collect();
            // Publish the new topology while still holding the departed
            // lock, so mutations apply in one total order.
            let snapshot = overlay.into_graph();
            let (nodes, edges) = (snapshot.node_count(), snapshot.edge_count());
            let new_bytes = entry_bytes(&snapshot, &departed);
            *entry.snapshot.write() = snapshot;
            // Recharge the entry at its new size. Mutate never rejects
            // on budget (clients grow graphs in place); if the result
            // alone exceeds the budget it stays resident as the
            // documented escape hatch — everything else gets evicted.
            // One critical section decides old charge, new charge, and
            // the eviction race: a dead entry simply stays uncharged.
            let (old, recharged) = {
                let mut charges = entry.charges.lock();
                let old = std::mem::take(&mut charges.bytes);
                if charges.dead {
                    (old, 0)
                } else {
                    charges.bytes = new_bytes;
                    (old, new_bytes)
                }
            };
            self.metrics.uncharge_registry(old);
            self.metrics.charge_registry(recharged);
            (nodes, edges, edits_applied, edits_skipped)
        };
        // Entry locks are released; now it is safe to take the map lock.
        self.enforce_budget(name);
        Ok(Response::Mutated {
            name: name.to_owned(),
            nodes,
            edges,
            edits_applied,
            edits_skipped,
        })
    }

    fn stats(&self) -> ServerStats {
        // Clone the entries out under the read lock, then inspect them
        // unlocked: holding the map lock through per-entry lock waits
        // would stall every other request.
        let entries: Vec<(String, Arc<GraphEntry>)> = self
            .graphs
            .read()
            .iter()
            .map(|(name, entry)| (name.clone(), Arc::clone(entry)))
            .collect();
        let graphs = entries
            .into_iter()
            .map(|(name, entry)| {
                let snapshot = entry.snapshot();
                GraphInfo {
                    name,
                    nodes: snapshot.node_count(),
                    edges: snapshot.edge_count(),
                    mutations: entry.mutations.load(Ordering::Relaxed),
                }
            })
            .collect();
        let requests = self.requests.load(Ordering::Relaxed);
        ServerStats {
            requests,
            errors: self.errors.load(Ordering::Relaxed),
            uptime_secs: self.metrics.uptime_secs(),
            requests_total: requests,
            verbs: self.metrics.verb_counts(),
            graphs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use af_analysis::GraphSpec;
    use af_core::api::FloodRequest;
    use af_graph::generators;

    fn registry_with(name: &str, spec: GraphSpec) -> Registry {
        let registry = Registry::new();
        let resp = registry.execute(&Request::Gen {
            name: name.into(),
            spec,
        });
        assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
        registry
    }

    #[test]
    fn load_accepts_both_text_formats() {
        let registry = Registry::new();
        let resp = registry.execute(&Request::Load {
            name: "el".into(),
            graph: af_graph::io::to_edge_list(&generators::petersen()),
        });
        assert_eq!(
            resp,
            Response::Registered {
                name: "el".into(),
                nodes: 10,
                edges: 15,
            }
        );
        let resp = registry.execute(&Request::Load {
            name: "g6".into(),
            graph: "Bw".into(), // graph6 C_3
        });
        assert_eq!(
            resp,
            Response::Registered {
                name: "g6".into(),
                nodes: 3,
                edges: 3,
            }
        );
    }

    #[test]
    fn unknown_graph_and_bad_graph_are_stable_codes() {
        let registry = Registry::new();
        let resp = registry.execute(&Request::Predict {
            graph: "ghost".into(),
            source_sets: vec![vec![0]],
        });
        let Response::Error(err) = resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(err.code, code::UNKNOWN_GRAPH);

        let resp = registry.execute(&Request::Load {
            name: "bad".into(),
            graph: "n 2\n0 7\n".into(),
        });
        let Response::Error(err) = resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(err.code, code::BAD_GRAPH);

        let stats = registry.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.errors, 2);
        assert!(stats.graphs.is_empty());
    }

    #[test]
    fn predict_matches_the_free_oracle() {
        let registry = registry_with("g", GraphSpec::Grid { rows: 4, cols: 5 });
        let g = GraphSpec::Grid { rows: 4, cols: 5 }.build();
        let sets = vec![vec![0], vec![3, 17], vec![0, 1, 2]];
        let resp = registry.execute(&Request::Predict {
            graph: "g".into(),
            source_sets: sets.clone(),
        });
        let Response::Predicted { predictions } = resp else {
            panic!("expected predictions, got {resp:?}");
        };
        for (set, summary) in sets.iter().zip(&predictions) {
            let free = af_core::theory::predict(&g, set.iter().copied().map(NodeId::new));
            assert_eq!(summary.termination_round, free.termination_round());
            assert_eq!(summary.total_messages, free.total_messages());
        }
    }

    #[test]
    fn predict_rejects_out_of_range_sources_without_panicking() {
        let registry = registry_with("g", GraphSpec::Cycle { n: 5 });
        let resp = registry.execute(&Request::Predict {
            graph: "g".into(),
            source_sets: vec![vec![0], vec![5]],
        });
        let Response::Error(err) = resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(err.code, code::BAD_SOURCE);
        assert!(err.message.contains("set 1"), "{err}");
    }

    #[test]
    fn flood_is_sugar_for_a_one_set_batch() {
        let registry = registry_with("g", GraphSpec::Petersen);
        let flood = registry.execute(&Request::Flood {
            graph: "g".into(),
            sources: vec![0],
            engine: "bitlane".into(),
            max_rounds: 0,
        });
        let batch = registry.execute(&Request::Batch {
            graph: "g".into(),
            request: FloodRequest {
                source_sets: vec![vec![0]],
                engine: "bitlane".into(),
                max_rounds: 0,
            },
        });
        assert_eq!(flood, batch);
        let Response::Flooded(resp) = flood else {
            panic!("expected flood response, got {flood:?}");
        };
        assert_eq!(resp.engine, "bitlane");
        assert!(resp.floods[0].terminated);
    }

    #[test]
    fn mutate_updates_topology() {
        let registry = registry_with("g", GraphSpec::Cycle { n: 4 });
        let before = registry.execute(&Request::Predict {
            graph: "g".into(),
            source_sets: vec![vec![0]],
        });

        // Delete one cycle edge: C_4 becomes P_4, eccentricity grows.
        let resp = registry.execute(&Request::Mutate {
            graph: "g".into(),
            deltas: vec![GraphDelta {
                delete_edges: vec![(0, 3)],
                ..GraphDelta::default()
            }],
        });
        assert_eq!(
            resp,
            Response::Mutated {
                name: "g".into(),
                nodes: 4,
                edges: 3,
                edits_applied: 1,
                edits_skipped: 0,
            }
        );
        let stats = registry.stats();
        assert_eq!(stats.graphs[0].mutations, 1);

        let after = registry.execute(&Request::Predict {
            graph: "g".into(),
            source_sets: vec![vec![0]],
        });
        assert_ne!(before, after, "prediction reflects the new topology");
        let expected = af_core::theory::predict(&generators::path(4), [NodeId::new(0)]);
        let Response::Predicted { predictions } = after else {
            panic!("expected predictions, got {after:?}");
        };
        assert_eq!(
            predictions[0].termination_round,
            expected.termination_round()
        );
    }

    #[test]
    fn mutate_counts_skipped_edits() {
        let registry = registry_with("g", GraphSpec::Path { n: 3 });
        let resp = registry.execute(&Request::Mutate {
            graph: "g".into(),
            deltas: vec![GraphDelta {
                delete_edges: vec![(0, 2)],         // not an edge of P_3
                insert_edges: vec![(0, 2), (1, 1)], // second is a self-loop
                ..GraphDelta::default()
            }],
        });
        assert_eq!(
            resp,
            Response::Mutated {
                name: "g".into(),
                nodes: 3,
                edges: 3,
                edits_applied: 1,
                edits_skipped: 2,
            }
        );
    }

    #[test]
    fn departed_nodes_stay_departed_across_mutates() {
        let registry = registry_with("g", GraphSpec::Path { n: 4 });
        let mutate = |delta: GraphDelta| {
            registry.execute(&Request::Mutate {
                graph: "g".into(),
                deltas: vec![delta],
            })
        };
        // Node 3 leaves: it stays in the id space as an isolated node.
        let resp = mutate(GraphDelta {
            leave_nodes: vec![3],
            ..GraphDelta::default()
        });
        assert_eq!(
            resp,
            Response::Mutated {
                name: "g".into(),
                nodes: 4,
                edges: 2,
                edits_applied: 2,
                edits_skipped: 0,
            }
        );
        // A later Mutate must still see it departed, not merely isolated.
        let resp = mutate(GraphDelta {
            insert_edges: vec![(3, 0)],
            ..GraphDelta::default()
        });
        assert_eq!(
            resp,
            Response::Mutated {
                name: "g".into(),
                nodes: 4,
                edges: 2,
                edits_applied: 0,
                edits_skipped: 1,
            }
        );
    }

    #[test]
    fn metrics_verb_reports_per_verb_counts_and_gauges() {
        let registry = registry_with("g", GraphSpec::Cycle { n: 6 });
        for _ in 0..2 {
            let resp = registry.execute(&Request::Predict {
                graph: "g".into(),
                source_sets: vec![vec![0]],
            });
            assert!(matches!(resp, Response::Predicted { .. }), "{resp:?}");
        }
        let resp = registry.execute(&Request::Predict {
            graph: "ghost".into(),
            source_sets: vec![vec![0]],
        });
        assert!(matches!(resp, Response::Error(_)), "{resp:?}");

        let resp = registry.execute(&Request::Metrics);
        let Response::Metrics(report) = resp else {
            panic!("expected metrics, got {resp:?}");
        };
        // Gen + 3 Predicts + this Metrics.
        assert_eq!(report.requests_total, 5);
        assert_eq!(report.errors_total, 1);
        // Eager accounting: the gauge carries exactly the graph's heap,
        // no report-time recompute involved; Predicts charge nothing.
        let g = GraphSpec::Cycle { n: 6 }.build();
        assert_eq!(report.registry_bytes, g.heap_bytes() as u64);
        assert_eq!(report.registry_budget_bytes, 0, "unbounded by default");
        assert_eq!(report.evictions_total, 0);
        let count = |name: &str| report.verbs.iter().find(|v| v.verb == name).unwrap().count;
        assert_eq!(count("Gen"), 1);
        assert_eq!(count("Predict"), 3, "the failed predict still counts");
        assert_eq!(count("Flood"), 0);
        // The report is taken before its own request is observed.
        assert_eq!(count("Metrics"), 0);

        let stats = registry.stats();
        assert_eq!(stats.requests_total, stats.requests);
        let verb_sum: u64 = stats.verbs.iter().map(|v| v.count).sum();
        assert_eq!(
            verb_sum, stats.requests,
            "every parsed request has a verb row"
        );
    }

    #[test]
    fn reloading_a_name_replaces_the_graph() {
        let registry = registry_with("g", GraphSpec::Cycle { n: 3 });
        let resp = registry.execute(&Request::Gen {
            name: "g".into(),
            spec: GraphSpec::Complete { n: 5 },
        });
        assert_eq!(
            resp,
            Response::Registered {
                name: "g".into(),
                nodes: 5,
                edges: 10,
            }
        );
        let stats = registry.stats();
        assert_eq!(stats.graphs.len(), 1);
        assert_eq!(stats.graphs[0].edges, 10);
        // The replaced graph's charge was released, the new one charged.
        let k5 = GraphSpec::Complete { n: 5 }.build();
        assert_eq!(registry.metrics().registry_bytes(), k5.heap_bytes() as u64);
    }

    #[test]
    fn evict_frees_the_charge_and_answers_not_found_after() {
        let registry = registry_with("g", GraphSpec::Grid { rows: 3, cols: 3 });
        let g = GraphSpec::Grid { rows: 3, cols: 3 }.build();
        let resp = registry.execute(&Request::Predict {
            graph: "g".into(),
            source_sets: vec![vec![0]],
        });
        assert!(matches!(resp, Response::Predicted { .. }), "{resp:?}");

        let resp = registry.execute(&Request::Evict { graph: "g".into() });
        assert_eq!(
            resp,
            Response::Evicted {
                name: "g".into(),
                bytes_freed: g.heap_bytes() as u64,
            }
        );
        assert_eq!(registry.metrics().registry_bytes(), 0);
        assert_eq!(registry.metrics().evictions_total(), 1);

        // Evicted names are distinguishable from never-registered ones.
        let resp = registry.execute(&Request::Flood {
            graph: "g".into(),
            sources: vec![0],
            engine: String::new(),
            max_rounds: 0,
        });
        let Response::Error(err) = resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(err.code, code::NOT_FOUND);
        let resp = registry.execute(&Request::Evict { graph: "g".into() });
        let Response::Error(err) = resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(err.code, code::NOT_FOUND, "double evict is not_found");
        let resp = registry.execute(&Request::Evict {
            graph: "ghost".into(),
        });
        let Response::Error(err) = resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(err.code, code::UNKNOWN_GRAPH);

        // Re-registering clears the tombstone and serves again.
        let resp = registry.execute(&Request::Gen {
            name: "g".into(),
            spec: GraphSpec::Grid { rows: 3, cols: 3 },
        });
        assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
        let resp = registry.execute(&Request::Predict {
            graph: "g".into(),
            source_sets: vec![vec![0]],
        });
        assert!(matches!(resp, Response::Predicted { .. }), "{resp:?}");
    }

    #[test]
    fn budget_evicts_least_recently_used_graphs() {
        let spec = GraphSpec::Cycle { n: 50 };
        let one = spec.build().heap_bytes() as u64;
        // Room for two cycles but not three.
        let registry = Registry::with_budget(2 * one + one / 2);
        for name in ["a", "b", "c"] {
            let resp = registry.execute(&Request::Gen {
                name: name.into(),
                spec: spec.clone(),
            });
            assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
        }
        // "a" was least recently used; it fell out.
        let names: Vec<String> = registry
            .stats()
            .graphs
            .iter()
            .map(|g| g.name.clone())
            .collect();
        assert_eq!(names, ["b", "c"]);
        assert!(registry.metrics().registry_bytes() <= registry.budget());
        assert_eq!(registry.metrics().evictions_total(), 1);

        // Touching "b" (a flood) makes "c" the next victim.
        let resp = registry.execute(&Request::Flood {
            graph: "b".into(),
            sources: vec![0],
            engine: String::new(),
            max_rounds: 0,
        });
        assert!(matches!(resp, Response::Flooded(_)), "{resp:?}");
        let resp = registry.execute(&Request::Gen {
            name: "d".into(),
            spec: spec.clone(),
        });
        assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
        let names: Vec<String> = registry
            .stats()
            .graphs
            .iter()
            .map(|g| g.name.clone())
            .collect();
        assert_eq!(names, ["b", "d"], "the flood-touched graph survived");
    }

    #[test]
    fn over_budget_admissions_are_rejected_with_the_stable_code() {
        let small = GraphSpec::Cycle { n: 10 }.build().heap_bytes() as u64;
        let registry = Registry::with_budget(small);
        // A graph bigger than the whole budget is rejected outright.
        let resp = registry.execute(&Request::Gen {
            name: "big".into(),
            spec: GraphSpec::Cycle { n: 1000 },
        });
        let Response::Error(err) = resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(err.code, code::OVER_BUDGET);
        assert_eq!(registry.metrics().registry_bytes(), 0);

        // A graph that fills the budget exactly still serves Predicts:
        // their BFS buffers are per request, not charged.
        let resp = registry.execute(&Request::Gen {
            name: "tight".into(),
            spec: GraphSpec::Cycle { n: 10 },
        });
        assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
        let resp = registry.execute(&Request::Predict {
            graph: "tight".into(),
            source_sets: vec![vec![0]],
        });
        assert!(matches!(resp, Response::Predicted { .. }), "{resp:?}");
        assert_eq!(registry.metrics().registry_bytes(), small);
    }

    #[test]
    fn bench_measures_real_rows_and_rejects_malformed_requests() {
        let registry = registry_with("g", GraphSpec::Grid { rows: 4, cols: 4 });
        let resp = registry.execute(&Request::Bench {
            graph: "g".into(),
            request: FloodRequest {
                source_sets: vec![vec![0], vec![5]],
                engine: "bitlane".into(),
                max_rounds: 0,
            },
            repeat: 2,
        });
        let Response::Benched {
            graph,
            nodes,
            edges,
            runs,
        } = resp
        else {
            panic!("expected Benched, got {resp:?}");
        };
        assert_eq!((graph.as_str(), nodes, edges), ("g", 16, 24));
        assert_eq!(runs.len(), 2, "one row per repeat");
        for row in &runs {
            assert_eq!(row.engine, "bitlane");
            assert_eq!(row.floods_terminated, 2);
            assert!(row.total_messages > 0);
            // Repeats measure the same floods: identical round vectors.
            assert_eq!(row.rounds_per_source, runs[0].rounds_per_source);
        }

        for (request, repeat) in [
            // repeat 0 measures nothing.
            (FloodRequest::single(vec![0]), 0),
            // A capped flood cannot produce a comparable bench row.
            (
                FloodRequest {
                    source_sets: vec![vec![0]],
                    engine: String::new(),
                    max_rounds: 3,
                },
                1,
            ),
            // An empty workload measures nothing.
            (
                FloodRequest {
                    source_sets: vec![],
                    engine: String::new(),
                    max_rounds: 0,
                },
                1,
            ),
        ] {
            let resp = registry.execute(&Request::Bench {
                graph: "g".into(),
                request,
                repeat,
            });
            let Response::Error(err) = resp else {
                panic!("expected error, got {resp:?}");
            };
            assert_eq!(err.code, code::BAD_REQUEST);
        }
    }

    #[test]
    fn register_from_text_skips_the_request_counters() {
        let registry = Registry::new();
        let text = af_graph::io::to_edge_list(&generators::petersen());
        let resp = registry.register_from_text("boot", &text).unwrap();
        assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
        let stats = registry.stats();
        assert_eq!(stats.graphs.len(), 1);
        // Boot loads are not wire requests: the counters stay at zero,
        // so requests_total keeps equalling the sum of per-verb counts.
        assert_eq!(stats.requests, 0);
        let verb_sum: u64 = stats.verbs.iter().map(|v| v.count).sum();
        assert_eq!(verb_sum, 0);
        // The footprint is still charged, though.
        assert!(registry.metrics().registry_bytes() > 0);
    }
}
