//! Workload inputs, all derived from the seed: the graphs (sent to the
//! daemon as edge-list `Load` text, never as generator specs), each
//! client's setup lines, each client's closed-loop request sequence, and
//! the inputs of the traced per-layer probes.

use std::collections::BTreeSet;

use af_analysis::GraphSpec;
use af_core::api::FloodRequest;
use af_graph::dynamic::GraphDelta;
use af_graph::{io, Graph};
use af_serve::{Envelope, Request};

/// The three workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One connection, five heavy flood classes in a fixed cycle.
    FloodMix,
    /// Two connections, warm `Predict`s on two ~1e6-edge graphs.
    PredictLarge,
    /// Two connections, small reads and writes on per-client graphs.
    SmallRw,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FloodMix,
        Workload::PredictLarge,
        Workload::SmallRw,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FloodMix => "flood-mix",
            Workload::PredictLarge => "predict-large",
            Workload::SmallRw => "small-rw",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One request line as sent on the wire (no trailing newline), tagged
/// with its verb so the daemon's per-verb counts can be checked.
#[derive(Debug, Clone)]
pub struct Line {
    /// The JSON line.
    pub text: String,
    /// The wire verb of the (possibly enveloped) request.
    pub verb: &'static str,
}

impl Line {
    fn bare(request: &Request) -> Line {
        Line {
            text: to_json(request),
            verb: verb_of(request),
        }
    }

    fn enveloped(id: u64, request: Request) -> Line {
        let verb = verb_of(&request);
        Line {
            text: to_json(&Envelope { id, request }),
            verb,
        }
    }
}

fn to_json<T: serde::Serialize>(value: &T) -> String {
    // The protocol types always serialize; an empty line would only make
    // the daemon answer `bad_request`, which the checks then count.
    serde_json::to_string(value).unwrap_or_default()
}

fn verb_of(request: &Request) -> &'static str {
    match request {
        Request::Load { .. } => "Load",
        Request::Predict { .. } => "Predict",
        Request::Flood { .. } => "Flood",
        Request::Batch { .. } => "Batch",
        Request::Mutate { .. } => "Mutate",
        _ => "Other",
    }
}

/// A graph of the workload and its `Load` line.
#[derive(Debug)]
pub struct GraphInput {
    /// Registry name.
    pub name: String,
    /// The graph itself (the benchmark's copy, for the oracle checks).
    pub graph: Graph,
    /// Its edge-list text, as `Load` carries it.
    pub text: String,
    /// The `Load` request line.
    pub load: Line,
}

impl GraphInput {
    fn new(name: &str, graph: Graph) -> GraphInput {
        let text = io::to_edge_list(&graph);
        let load = Line::bare(&Request::Load {
            name: name.to_owned(),
            graph: text.clone(),
        });
        GraphInput {
            name: name.to_owned(),
            graph,
            text,
            load,
        }
    }
}

/// One flood class: an engine run on one graph for some source sets.
#[derive(Debug, Clone)]
pub struct FloodClass {
    /// Registry name of the graph.
    pub graph: String,
    /// The flood workload.
    pub request: FloodRequest,
}

/// A client's closed-loop request source.
#[derive(Debug)]
pub enum Sequence {
    /// A fixed list of lines, repeated; the loop only stops after a whole
    /// `period`, so every run holds each class in the same proportion.
    Cycle {
        /// The lines, in order.
        lines: Vec<Line>,
        /// Index of the next line.
        next: usize,
        /// How many lines make one period.
        period: usize,
    },
    /// `small-rw`'s seeded read/write mix.
    Mixed(Box<MixedRw>),
}

impl Sequence {
    /// The next request line.
    pub fn next_line(&mut self) -> Line {
        match self {
            Sequence::Cycle { lines, next, .. } => {
                let line = lines[*next % lines.len()].clone();
                *next += 1;
                line
            }
            Sequence::Mixed(mix) => mix.next_line(),
        }
    }

    /// How many lines the closed loop sends between deadline checks.
    pub fn period(&self) -> usize {
        match self {
            Sequence::Cycle { period, .. } => *period,
            Sequence::Mixed(_) => 1,
        }
    }
}

/// One client: the lines it sends during set-up (its graphs' `Load`s,
/// then one warm-up of each request class) and its timed sequence.
#[derive(Debug)]
pub struct ClientPlan {
    /// Set-up lines, sent in order on the client's own connection.
    pub setup: Vec<Line>,
    /// The timed closed-loop sequence.
    pub sequence: Sequence,
}

/// Everything a run of one workload sends and probes.
#[derive(Debug)]
pub struct Plan {
    /// Every graph the workload loads, in load order.
    pub graphs: Vec<GraphInput>,
    /// One entry per client connection.
    pub clients: Vec<ClientPlan>,
    /// Whether requests change graphs, so that answers depend on each
    /// client's history (each client then owns the graphs it mutates).
    pub mutates: bool,
    /// Flood classes timed by the traced engine probe.
    pub probe_floods: Vec<FloodClass>,
    /// Source sets timed by the traced theory probe: (graph index, set).
    pub probe_queries: Vec<(usize, Vec<usize>)>,
    /// A near-free request (an empty `Predict`) for the queue-wait probe.
    pub ping: Request,
}

/// SplitMix64: a small, seedable, reproducible generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        usize::try_from(self.next_u64() % n as u64).unwrap_or(0)
    }
}

/// `k` single nodes spread evenly over `0..n`, from a seeded offset. The
/// offset stays small so that, on a grid, a flood's length (the sources'
/// eccentricity) barely depends on the seed.
fn spread(n: usize, k: usize, rng: &mut Rng) -> Vec<usize> {
    const JITTER: usize = 16;
    let step = (n / k).max(1);
    let offset = rng.below(step.min(JITTER));
    (0..k).map(|i| (offset + i * step) % n).collect()
}

fn singletons(sources: &[usize]) -> Vec<Vec<usize>> {
    sources.iter().map(|&v| vec![v]).collect()
}

fn batch(graph: &str, engine: &str, source_sets: Vec<Vec<usize>>, max_rounds: u32) -> FloodClass {
    FloodClass {
        graph: graph.to_owned(),
        request: FloodRequest {
            source_sets,
            engine: engine.to_owned(),
            max_rounds,
        },
    }
}

fn batch_request(class: &FloodClass) -> Request {
    Request::Batch {
        graph: class.graph.clone(),
        request: class.request.clone(),
    }
}

fn predict(graph: &str, source_sets: Vec<Vec<usize>>) -> Request {
    Request::Predict {
        graph: graph.to_owned(),
        source_sets,
    }
}

/// Graph sizes: full-size, or a smoke size for the self-check.
struct Sizes {
    sparse_n: usize,
    grid_side: usize,
    churn_side: usize,
    small_n: usize,
    small_side: usize,
}

impl Sizes {
    fn new(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                sparse_n: 5_000,
                grid_side: 70,
                churn_side: 20,
                small_n: 500,
                small_side: 10,
            }
        } else {
            Sizes {
                sparse_n: 500_000,
                grid_side: 708,
                churn_side: 100,
                small_n: 5_000,
                small_side: 30,
            }
        }
    }
}

fn sparse(n: usize, seed: u64) -> Graph {
    GraphSpec::SparseConnected { n, extra: n, seed }.build()
}

fn grid(side: usize) -> Graph {
    GraphSpec::Grid {
        rows: side,
        cols: side,
    }
    .build()
}

/// Builds the plan of `workload` for `seed`.
pub fn build(workload: Workload, seed: u64, smoke: bool) -> Plan {
    let sizes = Sizes::new(smoke);
    let mut rng = Rng::new(seed ^ 0x05EE_D0FF_100D);
    match workload {
        Workload::FloodMix => flood_mix(&sizes, &mut rng),
        Workload::PredictLarge => predict_large(&sizes, &mut rng),
        Workload::SmallRw => small_rw(&sizes, &mut rng),
    }
}

/// `flood-mix`: one connection, one bare `Batch` per class in a fixed
/// cycle. The engine probe times exactly these five classes.
fn flood_mix(sizes: &Sizes, rng: &mut Rng) -> Plan {
    let graphs = vec![
        GraphInput::new("sparse", sparse(sizes.sparse_n, rng.next_u64())),
        GraphInput::new("grid", grid(sizes.grid_side)),
        GraphInput::new("churn", grid(sizes.churn_side)),
    ];
    let sparse_n = graphs[0].graph.node_count();
    let grid_n = graphs[1].graph.node_count();
    let churn_n = graphs[2].graph.node_count();
    let classes = vec![
        batch(
            "sparse",
            "bitlane",
            singletons(&spread(sparse_n, 64, rng)),
            0,
        ),
        batch(
            "sparse",
            "frontier",
            singletons(&spread(sparse_n, 4, rng)),
            0,
        ),
        batch("grid", "frontier", singletons(&spread(grid_n, 16, rng)), 0),
        batch(
            "grid",
            "sharded:2:bfs",
            singletons(&spread(grid_n, 8, rng)),
            0,
        ),
        batch(
            "churn",
            "dynamic:mix:10:7",
            singletons(&spread(churn_n, 1, rng)),
            100,
        ),
    ];
    let cycle: Vec<Line> = classes
        .iter()
        .map(|c| Line::bare(&batch_request(c)))
        .collect();
    let mut setup: Vec<Line> = graphs.iter().map(|g| g.load.clone()).collect();
    setup.extend(cycle.iter().cloned());
    let probe_queries = first_sources(&classes, &graphs);
    Plan {
        clients: vec![ClientPlan {
            setup,
            sequence: Sequence::Cycle {
                period: cycle.len(),
                lines: cycle,
                next: 0,
            },
        }],
        graphs,
        mutates: false,
        probe_floods: classes,
        probe_queries,
        ping: predict("churn", Vec::new()),
    }
}

/// `predict-large`: two connections, bare `Predict`s of single-node
/// source sets, client `c` on large sparse graph `c` only. Set-up builds
/// both covers.
fn predict_large(sizes: &Sizes, rng: &mut Rng) -> Plan {
    const POOL: usize = 16;
    // Two queries per request (~200 ms of compute) average out the host's
    // short stalls, which would otherwise set the tail.
    const SETS: usize = 2;
    // Both graphs are of one kind: a grid query costs a different share
    // of a sparse one as the host's cache pressure changes, and the pooled
    // median would then sit between two moving modes.
    let graphs: Vec<GraphInput> = ["sparse-a", "sparse-b"]
        .iter()
        .map(|name| GraphInput::new(name, sparse(sizes.sparse_n, rng.next_u64())))
        .collect();
    let pools: Vec<Vec<usize>> = graphs
        .iter()
        .map(|g| spread(g.graph.node_count(), POOL, rng))
        .collect();
    let line = |g: usize, i: usize| {
        let sets = (0..SETS).map(|k| vec![pools[g][(i + k) % POOL]]).collect();
        Line::bare(&predict(&graphs[g].name, sets))
    };
    let clients = (0..2)
        .map(|c| {
            // Each client queries its own graph, so the two never wait on
            // one index mutex and both cores stay busy; the tail is then
            // the queries' own, not the clients' changing phase.
            let lines: Vec<Line> = (0..POOL).map(|i| line(c, i)).collect();
            let setup = if c == 0 {
                let mut setup: Vec<Line> = graphs.iter().map(|g| g.load.clone()).collect();
                setup.extend((0..graphs.len()).map(|g| line(g, 0)));
                setup
            } else {
                Vec::new()
            };
            ClientPlan {
                setup,
                sequence: Sequence::Cycle {
                    lines,
                    next: 0,
                    period: 1,
                },
            }
        })
        .collect();
    // The engines sit idle in this workload; the probe floods the first
    // two query sources of the first graph on each engine family, so
    // every engine metric is measured on this workload's own graph.
    let sparse_sets = singletons(&pools[0][..2]);
    let probe_floods = missing_families(&[], &graphs[0].name, &sparse_sets, 4);
    let probe_queries = pools
        .iter()
        .enumerate()
        .flat_map(|(g, pool)| pool.iter().take(4).map(move |&v| (g, vec![v])))
        .collect();
    let ping = predict(&graphs[1].name, Vec::new());
    Plan {
        graphs,
        clients,
        mutates: false,
        probe_floods,
        probe_queries,
        ping,
    }
}

/// `small-rw`: two connections, each owning a small sparse graph and a
/// small grid; a seeded 40/30/15/15 mix of `Predict`, `Flood`, `Batch`
/// and one-edge `Mutate`, dealt from shuffled [`DECK`]s, alternating bare
/// and enveloped.
fn small_rw(sizes: &Sizes, rng: &mut Rng) -> Plan {
    let mut graphs = Vec::new();
    let mut clients = Vec::new();
    for c in 0..2 {
        let own = [
            GraphInput::new(
                &format!("c{c}-sparse"),
                sparse(sizes.small_n, rng.next_u64()),
            ),
            GraphInput::new(&format!("c{c}-grid"), grid(sizes.small_side)),
        ];
        let mut mix = MixedRw::new(rng.next_u64(), &own);
        let mut setup: Vec<Line> = own.iter().map(|g| g.load.clone()).collect();
        // One warm-up per request class (a Predict on each graph builds
        // both covers), bare, through the same generator as the timed mix.
        setup.push(Line::bare(&mix.predict(0)));
        setup.push(Line::bare(&mix.predict(1)));
        setup.push(Line::bare(&mix.flood(0)));
        setup.push(Line::bare(&mix.batch(0)));
        setup.push(Line::bare(&mix.mutate(0)));
        clients.push(ClientPlan {
            setup,
            sequence: Sequence::Mixed(Box::new(mix)),
        });
        graphs.extend(own);
    }
    // Flood and Batch cover frontier and bitlane; the probe adds one
    // flood each of the two families the mix never sends.
    let sets = singletons(&[0, graphs[0].graph.node_count() - 1]);
    let mut probe_floods = vec![
        batch("c0-sparse", "frontier", sets.clone(), 0),
        batch(
            "c0-sparse",
            "bitlane",
            singletons(&spread(sizes.small_n, 64, rng)),
            0,
        ),
    ];
    probe_floods = missing_families(&probe_floods, "c0-sparse", &sets, 100);
    let probe_queries = (0..graphs.len())
        .flat_map(|g| {
            let n = graphs[g].graph.node_count();
            [(g, vec![0]), (g, vec![n / 2]), (g, vec![n - 1])]
        })
        .collect();
    Plan {
        graphs,
        clients,
        mutates: true,
        probe_floods,
        probe_queries,
        ping: predict("c0-grid", Vec::new()),
    }
}

/// `have` plus one class on `graph` for each engine family it lacks; the
/// churn class is capped at `churn_rounds` rounds.
fn missing_families(
    have: &[FloodClass],
    graph: &str,
    sets: &[Vec<usize>],
    churn_rounds: u32,
) -> Vec<FloodClass> {
    let mut classes = have.to_vec();
    for engine in ["frontier", "bitlane", "sharded:2:bfs", "dynamic:mix:10:7"] {
        let family = engine.split(':').next().unwrap_or(engine);
        if !classes.iter().any(|c| c.request.engine.starts_with(family)) {
            let (sets, cap) = if family == "dynamic" {
                (sets[..1].to_vec(), churn_rounds)
            } else {
                (sets.to_vec(), 0)
            };
            classes.push(batch(graph, engine, sets, cap));
        }
    }
    classes
}

/// The first source set of every static flood class, as theory-probe
/// queries.
fn first_sources(classes: &[FloodClass], graphs: &[GraphInput]) -> Vec<(usize, Vec<usize>)> {
    classes
        .iter()
        .filter(|c| !c.request.engine.starts_with("dynamic"))
        .filter_map(|c| {
            let g = graphs.iter().position(|g| g.name == c.graph)?;
            Some((g, c.request.source_sets.first()?.clone()))
        })
        .collect()
}

/// A request class of `small-rw`'s mix.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Predict,
    Flood,
    Batch,
    Mutate,
}

/// One deck of `small-rw`'s mix, per graph: how many requests of each
/// class. A `Batch` carries 64 floods, so it sends most of the messages;
/// dealing whole decks, not rolling each class, keeps `msgs_per_s` from
/// following the seed's share of `Batch`es on the sparse graph.
const DECK: [(Kind, usize); 4] = [
    (Kind::Predict, 8),
    (Kind::Flood, 6),
    (Kind::Batch, 3),
    (Kind::Mutate, 3),
];

/// `small-rw`'s per-client generator. It tracks every edge it has added,
/// so a `Mutate` either inserts a fresh edge or deletes one it added
/// earlier: no edit is skipped and the base graph stays connected.
#[derive(Debug)]
pub struct MixedRw {
    rng: Rng,
    /// What is left of the current deck: (class, graph).
    deck: Vec<(Kind, usize)>,
    names: [String; 2],
    nodes: [usize; 2],
    /// Edges currently present, per graph (base edges plus insertions).
    present: [BTreeSet<(usize, usize)>; 2],
    /// Edges this generator inserted and has not deleted, per graph.
    inserted: [Vec<(usize, usize)>; 2],
    sent: u64,
}

impl MixedRw {
    fn new(seed: u64, graphs: &[GraphInput; 2]) -> MixedRw {
        let present = |g: &GraphInput| {
            g.graph
                .edge_list()
                .map(|(u, v)| ordered(u.index(), v.index()))
                .collect()
        };
        MixedRw {
            rng: Rng::new(seed),
            deck: Vec::new(),
            names: [graphs[0].name.clone(), graphs[1].name.clone()],
            nodes: [graphs[0].graph.node_count(), graphs[1].graph.node_count()],
            present: [present(&graphs[0]), present(&graphs[1])],
            inserted: [Vec::new(), Vec::new()],
            sent: 0,
        }
    }

    fn next_line(&mut self) -> Line {
        if self.deck.is_empty() {
            for g in 0..2 {
                for (kind, count) in DECK {
                    self.deck.extend(std::iter::repeat_n((kind, g), count));
                }
            }
            // Fisher-Yates.
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.below(i + 1);
                self.deck.swap(i, j);
            }
        }
        // The deck was refilled above, so it is never empty here.
        let (kind, g) = self.deck.pop().unwrap_or((Kind::Predict, 0));
        let request = match kind {
            Kind::Predict => self.predict(g),
            Kind::Flood => self.flood(g),
            Kind::Batch => self.batch(g),
            Kind::Mutate => self.mutate(g),
        };
        self.sent += 1;
        if self.sent.is_multiple_of(2) {
            Line::bare(&request)
        } else {
            Line::enveloped(self.sent, request)
        }
    }

    fn predict(&mut self, g: usize) -> Request {
        let v = self.rng.below(self.nodes[g]);
        predict(&self.names[g], vec![vec![v]])
    }

    fn flood(&mut self, g: usize) -> Request {
        Request::Flood {
            graph: self.names[g].clone(),
            sources: vec![self.rng.below(self.nodes[g])],
            engine: "frontier".to_owned(),
            max_rounds: 0,
        }
    }

    fn batch(&mut self, g: usize) -> Request {
        let sets = singletons(&spread(self.nodes[g], 64, &mut self.rng));
        batch_request(&batch(&self.names[g], "bitlane", sets, 0))
    }

    fn mutate(&mut self, g: usize) -> Request {
        let mut delta = GraphDelta::default();
        if !self.inserted[g].is_empty() && self.rng.below(2) == 0 {
            let i = self.rng.below(self.inserted[g].len());
            let edge = self.inserted[g].swap_remove(i);
            self.present[g].remove(&edge);
            delta.delete_edges.push(edge);
        } else {
            let n = self.nodes[g];
            let edge = loop {
                let (u, v) = (self.rng.below(n), self.rng.below(n));
                if u != v && !self.present[g].contains(&ordered(u, v)) {
                    break ordered(u, v);
                }
            };
            self.present[g].insert(edge);
            self.inserted[g].push(edge);
            delta.insert_edges.push(edge);
        }
        Request::Mutate {
            graph: self.names[g].clone(),
            deltas: vec![delta],
        }
    }
}

fn ordered(u: usize, v: usize) -> (usize, usize) {
    (u.min(v), u.max(v))
}
