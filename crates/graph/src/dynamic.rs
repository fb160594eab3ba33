//! Dynamic graphs: a delta-edit overlay over the immutable [`Graph`], plus
//! deterministic churn schedules for flooding while the topology changes.
//!
//! The paper's termination theorem is proved for a *fixed* finite connected
//! graph. The natural next question — which of the guarantees survive when
//! the topology changes *between rounds* — needs a substrate for applying
//! edit batches at round boundaries:
//!
//! * [`GraphDelta`] — one batch of edits: edge insertions/deletions and
//!   node joins/leaves, applied atomically at a round boundary;
//! * [`DeltaGraph`] — the overlay itself: a mutable edge set plus a
//!   departed-node mask over a base [`Graph`], rebuilding a fresh CSR
//!   snapshot after each batch so downstream engines keep their
//!   cache-friendly adjacency scans. A long-lived owner can keep just the
//!   shared snapshot and the departed ids, and resume an overlay from them
//!   on demand ([`DeltaGraph::from_snapshot`] / [`DeltaGraph::into_graph`]);
//! * [`ChurnSpec`] / [`ChurnKind`] — a compact, `Copy`, exactly-comparable
//!   description of a churn workload (`kind:rate_pm:seed`, parseable from
//!   CLI flags);
//! * [`ChurnSchedule`] — concrete per-round deltas, either hand-built or
//!   generated deterministically from a spec by evolving a shadow edge set
//!   with a seeded RNG;
//! * [`ChurnStream`] — the same generation, streamed one round at a time
//!   in `O(current graph)` memory (byte-identical deltas), for long
//!   floods on large graphs where materializing a whole schedule would
//!   not fit.
//!
//! # Identity discipline
//!
//! Node identifiers are **stable across edits**: a joining node always
//! receives the next unused id (`n`, `n + 1`, …) and a leaving node's id is
//! *retired*, never reused — the node stays in the id space as an isolated,
//! departed vertex. This is what lets a flooding engine keep per-node state
//! (receipt logs, scratch flags) across churn without any renumbering.
//! Edge and arc identifiers, by contrast, are *per-snapshot*: every
//! [`DeltaGraph::apply`] rebuilds the CSR, so `EdgeId`/`ArcId` values from
//! before a batch must be re-looked-up (by endpoint pair) afterwards.
//!
//! # Examples
//!
//! ```
//! use af_graph::dynamic::{DeltaGraph, GraphDelta};
//! use af_graph::generators;
//!
//! let mut dg = DeltaGraph::new(&generators::cycle(4));
//! let applied = dg.apply(&GraphDelta {
//!     delete_edges: vec![(0, 1)],
//!     insert_edges: vec![(0, 2)],
//!     ..GraphDelta::default()
//! });
//! assert_eq!(applied.edges_deleted, 1);
//! assert_eq!(applied.edges_inserted, 1);
//! assert_eq!(dg.graph().edge_count(), 4);
//! assert!(dg.graph().contains_edge(0.into(), 2.into()));
//! assert!(!dg.graph().contains_edge(0.into(), 1.into()));
//! ```

use crate::graph::{Graph, GraphBuilder};
use crate::id::NodeId;
use core::fmt;
use core::str::FromStr;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::Arc;

/// One batch of topology edits, applied atomically at a round boundary.
///
/// Application order within a batch is fixed and documented on
/// [`DeltaGraph::apply`]: leaves, then edge deletions, then edge
/// insertions, then joins. Fields reference node ids as of the *start* of
/// the batch (joins excepted: each join's attachment list may also name
/// nodes joined earlier in the same batch, since ids are allocated in
/// order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct GraphDelta {
    /// Nodes that leave: each is marked departed and loses every incident
    /// edge. Departed ids are retired, never reused.
    pub leave_nodes: Vec<usize>,
    /// Undirected edges to delete, as endpoint pairs in either order.
    pub delete_edges: Vec<(usize, usize)>,
    /// Undirected edges to insert, as endpoint pairs in either order.
    pub insert_edges: Vec<(usize, usize)>,
    /// Nodes that join: one attachment list per new node. The `i`-th entry
    /// becomes node `n + i` (for the pre-batch node count `n`) and is
    /// connected to every listed (alive, in-range) node.
    pub join_nodes: Vec<Vec<usize>>,
}

impl GraphDelta {
    /// Returns `true` if the batch contains no edits at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.leave_nodes.is_empty()
            && self.delete_edges.is_empty()
            && self.insert_edges.is_empty()
            && self.join_nodes.is_empty()
    }

    /// Total number of requested edits (joins count once per new node).
    #[must_use]
    pub fn edit_count(&self) -> usize {
        self.leave_nodes.len()
            + self.delete_edges.len()
            + self.insert_edges.len()
            + self.join_nodes.len()
    }
}

/// What one [`DeltaGraph::apply`] actually did — requested edits that were
/// invalid at application time (see the skip rules on `apply`) are counted
/// in `edits_skipped` instead of being applied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AppliedDelta {
    /// Edges removed (including those removed by a leave's incident sweep).
    pub edges_deleted: usize,
    /// Edges newly inserted (including join attachments).
    pub edges_inserted: usize,
    /// Nodes marked departed.
    pub nodes_left: usize,
    /// Nodes newly added.
    pub nodes_joined: usize,
    /// Requested edits that did not apply (missing edge, duplicate edge,
    /// self-loop, out-of-range or departed endpoint, repeated leave).
    pub edits_skipped: usize,
}

impl AppliedDelta {
    /// Returns `true` if the batch changed nothing (every edit skipped,
    /// or the delta was empty) — the topology, and any ids into it, are
    /// exactly as before.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.edges_deleted == 0
            && self.edges_inserted == 0
            && self.nodes_left == 0
            && self.nodes_joined == 0
    }
}

/// A mutable delta-edit overlay over an immutable base [`Graph`].
///
/// The overlay keeps the *current* topology as an edge set plus a
/// departed-node mask, and materializes a fresh CSR [`Graph`] snapshot
/// after every applied batch, so engines that consume the overlay keep
/// ordinary `O(deg)` adjacency scans between boundaries. Snapshot rebuild
/// costs `O(n + m log m)` per batch — churn is a per-round-boundary event,
/// not a per-message one, so this is off the flooding hot path.
///
/// # Examples
///
/// ```
/// use af_graph::dynamic::{DeltaGraph, GraphDelta};
/// use af_graph::generators;
///
/// let mut dg = DeltaGraph::new(&generators::path(3)); // 0-1-2
/// let applied = dg.apply(&GraphDelta {
///     join_nodes: vec![vec![0, 2]],
///     ..GraphDelta::default()
/// });
/// assert_eq!(applied.nodes_joined, 1);
/// assert_eq!(dg.graph().node_count(), 4);
/// assert_eq!(dg.graph().degree(3.into()), 2);
/// ```
#[derive(Debug, Clone)]
pub struct DeltaGraph {
    departed: Vec<bool>,
    edges: BTreeSet<(u32, u32)>,
    snapshot: Arc<Graph>,
}

impl DeltaGraph {
    /// Creates an overlay whose current state equals `base`.
    #[must_use]
    pub fn new(base: &Graph) -> Self {
        DeltaGraph::from_snapshot(Arc::new(base.clone()), &[])
    }

    /// Resumes an overlay from a shared snapshot and the ids that departed
    /// before it was taken, without copying the CSR.
    ///
    /// The departed ids are the one piece of overlay state a snapshot
    /// cannot give back: a departed node and an isolated live node look
    /// the same in the CSR, but only the live one may gain edges. Ids out
    /// of the snapshot's range are ignored.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use af_graph::dynamic::{DeltaGraph, GraphDelta};
    /// use af_graph::generators;
    ///
    /// let mut dg = DeltaGraph::new(&generators::path(3));
    /// dg.apply(&GraphDelta { leave_nodes: vec![2], ..GraphDelta::default() });
    /// let departed: Vec<_> = dg.departed_nodes().collect();
    /// let snapshot: Arc<_> = dg.into_graph();
    ///
    /// // Later: node 2 stays departed, so it cannot be re-attached.
    /// let mut dg = DeltaGraph::from_snapshot(snapshot, &departed);
    /// let applied = dg.apply(&GraphDelta { insert_edges: vec![(0, 2)], ..GraphDelta::default() });
    /// assert_eq!(applied.edits_skipped, 1);
    /// ```
    #[must_use]
    pub fn from_snapshot(snapshot: Arc<Graph>, departed: &[NodeId]) -> Self {
        let mut mask = vec![false; snapshot.node_count()];
        for v in departed {
            if let Some(slot) = mask.get_mut(v.index()) {
                *slot = true;
            }
        }
        DeltaGraph {
            departed: mask,
            edges: snapshot
                .edge_list()
                // af-audit: allow(no-lossy-id-cast): node ids are stored as u32
                .map(|(u, v)| (u.index() as u32, v.index() as u32))
                .collect(),
            snapshot,
        }
    }

    /// The current topology as an immutable CSR snapshot. Valid until the
    /// next [`DeltaGraph::apply`]; edge/arc ids are per-snapshot.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.snapshot
    }

    /// Consumes the overlay, handing back the current snapshot (the one a
    /// no-op batch left untouched, or the last rebuild) without a copy.
    #[must_use]
    pub fn into_graph(self) -> Arc<Graph> {
        self.snapshot
    }

    /// The departed (retired) node ids, ascending — what
    /// [`DeltaGraph::from_snapshot`] needs besides the snapshot.
    pub fn departed_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.departed
            .iter()
            .enumerate()
            .filter(|&(_, &gone)| gone)
            .map(|(v, _)| NodeId::new(v))
    }

    /// Current node count (monotone non-decreasing: departed ids are
    /// retired, not removed).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.departed.len()
    }

    /// Current edge count.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if `v` has left the graph (out-of-range ids are not
    /// departed — they have never existed).
    #[must_use]
    pub fn is_departed(&self, v: NodeId) -> bool {
        self.departed.get(v.index()).copied().unwrap_or(false)
    }

    /// Number of departed (retired) node ids.
    #[must_use]
    pub fn departed_count(&self) -> usize {
        self.departed.iter().filter(|&&d| d).count()
    }

    /// Returns `true` if `v` is in range and has not departed.
    fn is_alive(&self, v: usize) -> bool {
        v < self.departed.len() && !self.departed[v]
    }

    /// Applies one batch and rebuilds the snapshot.
    ///
    /// Edits apply in a fixed order — **leaves, deletions, insertions,
    /// joins** — and invalid edits are *skipped and counted*, never
    /// panicking, so application is total and idempotent:
    ///
    /// * a leave of an out-of-range or already-departed id is skipped;
    /// * a deletion of an absent edge is skipped;
    /// * an insertion that is a self-loop, a duplicate, or touches an
    ///   out-of-range/departed endpoint is skipped;
    /// * a join always adds its node; attachment edges follow the
    ///   insertion rules individually (a join may legally attach to a node
    ///   joined earlier in the same batch).
    pub fn apply(&mut self, delta: &GraphDelta) -> AppliedDelta {
        let mut applied = AppliedDelta::default();

        // All leaves sweep incident edges in ONE pass over the edge set,
        // so a boundary costs O(m), not O(leaves · m). Already-departed
        // endpoints have no incident edges left, so the departed mask is
        // a safe retain predicate.
        let mut any_left = false;
        for &v in &delta.leave_nodes {
            if !self.is_alive(v) {
                applied.edits_skipped += 1;
                continue;
            }
            self.departed[v] = true;
            any_left = true;
            applied.nodes_left += 1;
        }
        if any_left {
            let before = self.edges.len();
            let departed = &self.departed;
            self.edges
                .retain(|&(a, b)| !departed[a as usize] && !departed[b as usize]);
            applied.edges_deleted += before - self.edges.len();
        }

        for &(u, v) in &delta.delete_edges {
            // af-audit: allow(no-lossy-id-cast): endpoints index `departed`,
            // which is sized by the node count, itself bounded by u32::MAX
            let key = (u.min(v) as u32, u.max(v) as u32);
            if self.edges.remove(&key) {
                applied.edges_deleted += 1;
            } else {
                applied.edits_skipped += 1;
            }
        }

        for &(u, v) in &delta.insert_edges {
            if self.try_insert(u, v) {
                applied.edges_inserted += 1;
            } else {
                applied.edits_skipped += 1;
            }
        }

        for attach in &delta.join_nodes {
            let new = self.departed.len();
            self.departed.push(false);
            applied.nodes_joined += 1;
            for &t in attach {
                if self.try_insert(new, t) {
                    applied.edges_inserted += 1;
                } else {
                    applied.edits_skipped += 1;
                }
            }
        }

        // A no-op batch leaves the snapshot (and every id into it) valid.
        if !applied.is_noop() {
            self.rebuild();
        }
        applied
    }

    /// Inserts `{u, v}` if valid (alive distinct endpoints, not present).
    fn try_insert(&mut self, u: usize, v: usize) -> bool {
        if u == v || !self.is_alive(u) || !self.is_alive(v) {
            return false;
        }
        // af-audit: allow(no-lossy-id-cast): is_alive bounds both endpoints
        // by the node count, itself bounded by u32::MAX
        self.edges.insert((u.min(v) as u32, u.max(v) as u32))
    }

    /// Rematerializes the CSR snapshot from the edge set.
    fn rebuild(&mut self) {
        let mut b = GraphBuilder::new(self.departed.len());
        for &(u, v) in &self.edges {
            b.add_edge(u as usize, v as usize)
                // af-audit: allow(no-unwrap-in-lib): every insert path validates
                // endpoints against the same node count the builder is sized to
                .expect("overlay edges are valid by construction");
        }
        self.snapshot = Arc::new(b.build());
    }
}

/// The kind of topology churn a generated schedule exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChurnKind {
    /// Edge flips only: every churn round deletes and inserts the same
    /// number of edges, keeping `n` and (roughly) `m` constant.
    Edge,
    /// Node churn only: joins (each attaching to a few alive nodes) paired
    /// with leaves, keeping the alive population roughly constant.
    Nodes,
    /// Edge flips every churn round, plus probabilistic joins/leaves.
    Mix,
}

impl ChurnKind {
    /// The CLI-stable name (`"edge"`, `"nodes"`, `"mix"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ChurnKind::Edge => "edge",
            ChurnKind::Nodes => "nodes",
            ChurnKind::Mix => "mix",
        }
    }
}

/// A compact, copyable description of a churn workload:
/// `kind:rate_pm:seed`, where `rate_pm` is the per-round edit rate in
/// **per mille** of the current edge count (integer, so specs stay `Eq`
/// and hash/compare exactly). `rate_pm == 0` means *no churn* and renders
/// as `"none"`.
///
/// # Examples
///
/// ```
/// use af_graph::dynamic::{ChurnKind, ChurnSpec};
///
/// let spec: ChurnSpec = "mix:50:7".parse()?;
/// assert_eq!(spec.kind, ChurnKind::Mix);
/// assert_eq!(spec.rate_pm, 50); // 5% of current edges per churn round
/// assert_eq!(spec.to_string(), "mix:50:7");
/// assert_eq!(ChurnSpec::NONE.to_string(), "none");
/// assert!("none".parse::<ChurnSpec>()?.is_none());
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChurnSpec {
    /// What gets churned.
    pub kind: ChurnKind,
    /// Per-round edit budget, in per mille (‰) of the current edge count,
    /// clamped to `0..=1000` at parse time. `0` disables churn.
    pub rate_pm: u32,
    /// Seed for the schedule generator's RNG.
    pub seed: u64,
}

impl ChurnSpec {
    /// The no-churn spec: rate 0, rendered as `"none"`.
    pub const NONE: ChurnSpec = ChurnSpec {
        kind: ChurnKind::Edge,
        rate_pm: 0,
        seed: 0,
    };

    /// Returns `true` if this spec generates no churn at all.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.rate_pm == 0
    }
}

impl fmt::Display for ChurnSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            f.write_str("none")
        } else {
            write!(f, "{}:{}:{}", self.kind.name(), self.rate_pm, self.seed)
        }
    }
}

impl FromStr for ChurnSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "none" {
            return Ok(ChurnSpec::NONE);
        }
        let mut parts = s.split(':');
        let (kind, rate, seed) = (parts.next(), parts.next(), parts.next());
        if parts.next().is_some() {
            return Err(format!("churn spec '{s}': expected kind:rate_pm:seed"));
        }
        let kind = match kind {
            Some("edge") => ChurnKind::Edge,
            Some("nodes") => ChurnKind::Nodes,
            Some("mix") => ChurnKind::Mix,
            other => {
                return Err(format!(
                    "churn kind '{}': use edge, nodes, mix, or none",
                    other.unwrap_or("")
                ))
            }
        };
        let rate_pm: u32 = rate
            .ok_or_else(|| format!("churn spec '{s}': missing rate_pm"))?
            .parse()
            .map_err(|_| format!("churn spec '{s}': rate_pm must be an integer"))?;
        if rate_pm > 1000 {
            return Err(format!("churn rate_pm {rate_pm} exceeds 1000 (= 100%)"));
        }
        let seed: u64 = seed
            .ok_or_else(|| format!("churn spec '{s}': missing seed"))?
            .parse()
            .map_err(|_| format!("churn spec '{s}': seed must be an integer"))?;
        Ok(ChurnSpec {
            kind,
            rate_pm,
            seed,
        })
    }
}

/// Concrete per-round edit batches: the schedule a dynamic flooding engine
/// consumes. The delta keyed by round `r` is applied at the boundary
/// *before* round `r` executes (so a delta at round 1 edits the graph
/// before any message moves).
///
/// Schedules are plain data — hand-buildable for tests and replay, or
/// generated deterministically from a [`ChurnSpec`] by
/// [`ChurnSchedule::generate`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnSchedule {
    deltas: BTreeMap<u32, GraphDelta>,
}

impl ChurnSchedule {
    /// The empty schedule: a dynamic flood under it is bit-identical to a
    /// static one.
    #[must_use]
    pub fn empty() -> Self {
        ChurnSchedule::default()
    }

    /// Sets the delta applied before round `round` (replacing any previous
    /// delta at that round). Empty deltas are dropped.
    pub fn insert(&mut self, round: u32, delta: GraphDelta) {
        if delta.is_empty() {
            self.deltas.remove(&round);
        } else {
            self.deltas.insert(round, delta);
        }
    }

    /// The delta applied before round `round`, if any.
    #[must_use]
    pub fn delta_at(&self, round: u32) -> Option<&GraphDelta> {
        self.deltas.get(&round)
    }

    /// Returns `true` if the schedule contains no deltas.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Number of rounds with a non-empty delta.
    #[must_use]
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// The largest round with a delta, if any.
    #[must_use]
    pub fn max_round(&self) -> Option<u32> {
        self.deltas.keys().next_back().copied()
    }

    /// Iterates over `(round, delta)` pairs in round order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &GraphDelta)> {
        self.deltas.iter().map(|(&r, d)| (r, d))
    }

    /// Generates the deterministic schedule `spec` describes for floods on
    /// `base` of up to `horizon` rounds.
    ///
    /// The generator evolves a shadow copy of the topology round by round
    /// (mirroring [`DeltaGraph::apply`]'s order), so every emitted edit is
    /// valid at its application time: deletions name existing edges,
    /// insertions name absent ones between alive nodes, leaves name alive
    /// nodes. Per churn round the edit budget is
    /// `max(1, m · rate_pm / 1000)` edge flips (for [`ChurnKind::Edge`] /
    /// [`ChurnKind::Mix`]) and `max(1, alive · rate_pm / 1000)` join+leave
    /// pairs (for [`ChurnKind::Nodes`]; [`ChurnKind::Mix`] instead rolls a
    /// single join+leave pair with probability `rate_pm / 1000`). At least
    /// two alive nodes are always preserved. A `rate_pm` of 0 (or a zero
    /// `horizon`) yields the empty schedule.
    /// Materializing the whole horizon costs
    /// `O(horizon · budget)` memory — fine for tests, experiments, and
    /// replay, but for long floods on large graphs prefer the streaming
    /// [`ChurnStream`], which produces byte-identical deltas one round at
    /// a time in `O(current graph)` memory.
    #[must_use]
    pub fn generate(base: &Graph, spec: ChurnSpec, horizon: u32) -> Self {
        let mut schedule = ChurnSchedule::empty();
        if spec.is_none() || horizon == 0 {
            return schedule;
        }
        let mut stream = ChurnStream::new(base, spec, horizon);
        for round in 1..=horizon {
            if let Some(delta) = stream.delta_before(round) {
                schedule.insert(round, delta);
            }
        }
        schedule
    }
}

/// A streaming churn generator: the same deterministic per-round deltas
/// as [`ChurnSchedule::generate`] (byte-identical for the same
/// `(base, spec, horizon)` — the test suite pins this), produced one
/// round at a time so memory stays `O(current graph)` however long the
/// horizon. This is what the dynamic flooding engine consumes for
/// generated (as opposed to hand-built) schedules, keeping full-scale
/// benchmark graphs churnable.
#[derive(Debug, Clone)]
pub struct ChurnStream {
    spec: ChurnSpec,
    horizon: u32,
    /// The next round the shadow state has not yet produced.
    next_round: u32,
    rng: ChaCha8Rng,
    shadow: Shadow,
}

impl ChurnStream {
    /// Creates the stream for floods on `base` of up to `horizon` rounds.
    #[must_use]
    pub fn new(base: &Graph, spec: ChurnSpec, horizon: u32) -> Self {
        ChurnStream {
            spec,
            horizon,
            next_round: 1,
            rng: ChaCha8Rng::seed_from_u64(spec.seed),
            shadow: Shadow::new(base),
        }
    }

    /// The spec this stream generates from.
    #[must_use]
    pub fn spec(&self) -> ChurnSpec {
        self.spec
    }

    /// The last round with churn.
    #[must_use]
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// The delta applied at the boundary before `round`, or `None` past
    /// the horizon / for a zero-rate spec. Rounds must be requested in
    /// increasing order; skipped-over rounds are generated and discarded
    /// so the emitted sequence always equals the materialized schedule's.
    pub fn delta_before(&mut self, round: u32) -> Option<GraphDelta> {
        if self.spec.is_none() || round > self.horizon || round < self.next_round {
            return None;
        }
        let mut delta = GraphDelta::default();
        while self.next_round <= round {
            delta = self.shadow.round_delta(&mut self.rng, self.spec);
            self.next_round += 1;
        }
        if delta.is_empty() {
            None
        } else {
            Some(delta)
        }
    }
}

/// The generator's shadow topology: an indexable edge list (uniform
/// deletion sampling in `O(log m)`) plus the alive-node roster, which is
/// the single source of liveness truth.
#[derive(Debug, Clone)]
struct Shadow {
    n: usize,
    alive: Vec<u32>,
    edge_vec: Vec<(u32, u32)>,
    edge_set: BTreeSet<(u32, u32)>,
}

impl Shadow {
    fn new(base: &Graph) -> Self {
        let edge_vec: Vec<(u32, u32)> = base
            .edge_list()
            // af-audit: allow(no-lossy-id-cast): node ids are stored as u32
            .map(|(u, v)| (u.index() as u32, v.index() as u32))
            .collect();
        Shadow {
            n: base.node_count(),
            // af-audit: allow(no-lossy-id-cast): node counts are bounded by u32::MAX
            alive: (0..base.node_count() as u32).collect(),
            edge_set: edge_vec.iter().copied().collect(),
            edge_vec,
        }
    }

    /// Produces one churn round's delta per the spec's kind and edit
    /// budget (see [`ChurnSchedule::generate`]'s documentation), applying
    /// the edits to the shadow state in [`DeltaGraph::apply`]'s order —
    /// leaves before edge flips before joins — so every emitted edit is
    /// valid at its application time.
    fn round_delta(&mut self, rng: &mut ChaCha8Rng, spec: ChurnSpec) -> GraphDelta {
        let mut delta = GraphDelta::default();
        match spec.kind {
            ChurnKind::Edge => {
                self.edge_flips(rng, spec.rate_pm, &mut delta);
            }
            ChurnKind::Nodes => {
                // All leaves before all joins, mirroring the apply order
                // (a leave must never name a node joined in the same
                // batch — joins apply last).
                let budget = (self.alive.len() * spec.rate_pm as usize / 1000).max(1);
                self.leave_batch(rng, budget, &mut delta);
                for _ in 0..budget {
                    self.join_one(rng, &mut delta);
                }
            }
            ChurnKind::Mix => {
                if rng.gen_bool(f64::from(spec.rate_pm) / 1000.0) {
                    self.leave_batch(rng, 1, &mut delta);
                }
                self.edge_flips(rng, spec.rate_pm, &mut delta);
                if rng.gen_bool(f64::from(spec.rate_pm) / 1000.0) {
                    self.join_one(rng, &mut delta);
                }
            }
        }
        delta
    }

    /// Deletes and inserts `max(1, m · rate_pm / 1000)` edges each.
    fn edge_flips(&mut self, rng: &mut ChaCha8Rng, rate_pm: u32, delta: &mut GraphDelta) {
        let budget = (self.edge_vec.len() * rate_pm as usize / 1000).max(1);
        for _ in 0..budget {
            if self.edge_vec.is_empty() {
                break;
            }
            let i = rng.gen_range(0..self.edge_vec.len());
            let e = self.edge_vec.swap_remove(i);
            self.edge_set.remove(&e);
            delta.delete_edges.push((e.0 as usize, e.1 as usize));
        }
        for _ in 0..budget {
            if let Some((u, v)) = self.sample_non_edge(rng) {
                self.insert(u, v);
                delta.insert_edges.push((u as usize, v as usize));
            }
        }
    }

    /// A uniform-ish absent pair of alive nodes (bounded rejection
    /// sampling; `None` if the alive subgraph is too dense or too small).
    fn sample_non_edge(&self, rng: &mut ChaCha8Rng) -> Option<(u32, u32)> {
        if self.alive.len() < 2 {
            return None;
        }
        for _ in 0..32 {
            let u = self.alive[rng.gen_range(0..self.alive.len())];
            let v = self.alive[rng.gen_range(0..self.alive.len())];
            if u == v {
                continue;
            }
            let key = (u.min(v), u.max(v));
            if !self.edge_set.contains(&key) {
                return Some(key);
            }
        }
        None
    }

    fn insert(&mut self, u: u32, v: u32) {
        let key = (u.min(v), u.max(v));
        if self.edge_set.insert(key) {
            self.edge_vec.push(key);
        }
    }

    /// Retires up to `count` random alive nodes (preserving at least
    /// two), sweeping all their incident edges in ONE pass — `O(m log
    /// leaves)` per batch, not `O(leaves · m)`. The RNG draws one sample
    /// per leave, same as retiring them one at a time.
    fn leave_batch(&mut self, rng: &mut ChaCha8Rng, count: usize, delta: &mut GraphDelta) {
        let mut leaving: BTreeSet<u32> = BTreeSet::new();
        for _ in 0..count {
            if self.alive.len() <= 2 {
                break;
            }
            let i = rng.gen_range(0..self.alive.len());
            let v = self.alive.swap_remove(i);
            leaving.insert(v);
            delta.leave_nodes.push(v as usize);
        }
        if !leaving.is_empty() {
            self.edge_vec
                .retain(|&(a, b)| !leaving.contains(&a) && !leaving.contains(&b));
            self.edge_set
                .retain(|&(a, b)| !leaving.contains(&a) && !leaving.contains(&b));
        }
    }

    /// Joins one new node, attached to up to three distinct alive nodes.
    fn join_one(&mut self, rng: &mut ChaCha8Rng, delta: &mut GraphDelta) {
        if self.alive.is_empty() {
            return;
        }
        // af-audit: allow(no-lossy-id-cast): node counts are bounded by u32::MAX
        let new = self.n as u32;
        self.n += 1;
        let mut attach: Vec<u32> = Vec::new();
        for _ in 0..3.min(self.alive.len()) {
            let t = self.alive[rng.gen_range(0..self.alive.len())];
            if !attach.contains(&t) {
                attach.push(t);
            }
        }
        self.alive.push(new);
        for &t in &attach {
            self.insert(new, t);
        }
        delta
            .join_nodes
            .push(attach.into_iter().map(|t| t as usize).collect());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;
    use crate::generators;

    #[test]
    fn empty_delta_is_a_no_op() {
        let g = generators::petersen();
        let mut dg = DeltaGraph::new(&g);
        let applied = dg.apply(&GraphDelta::default());
        assert_eq!(applied, AppliedDelta::default());
        assert_eq!(dg.graph(), &g);
        assert!(GraphDelta::default().is_empty());
        assert_eq!(GraphDelta::default().edit_count(), 0);
    }

    #[test]
    fn edge_edits_apply_and_invalid_ones_skip() {
        let mut dg = DeltaGraph::new(&generators::path(4)); // 0-1-2-3
        let applied = dg.apply(&GraphDelta {
            delete_edges: vec![(1, 0), (0, 3)], // second is absent
            insert_edges: vec![(3, 0), (3, 0), (2, 2), (0, 9)],
            ..GraphDelta::default()
        });
        assert_eq!(applied.edges_deleted, 1);
        assert_eq!(applied.edges_inserted, 1);
        assert_eq!(applied.edits_skipped, 4);
        assert!(dg.graph().contains_edge(0.into(), 3.into()));
        assert!(!dg.graph().contains_edge(0.into(), 1.into()));
        assert_eq!(dg.edge_count(), 3);
    }

    #[test]
    fn leave_retires_the_id_and_drops_incident_edges() {
        let mut dg = DeltaGraph::new(&generators::star(5)); // hub 0
        let applied = dg.apply(&GraphDelta {
            leave_nodes: vec![0, 0, 99],
            ..GraphDelta::default()
        });
        assert_eq!(applied.nodes_left, 1);
        assert_eq!(applied.edges_deleted, 4);
        assert_eq!(applied.edits_skipped, 2); // repeat + out of range
        assert_eq!(dg.node_count(), 5, "ids are retired, not removed");
        assert!(dg.is_departed(0.into()));
        assert!(!dg.is_departed(1.into()));
        assert_eq!(dg.departed_count(), 1);
        assert_eq!(dg.edge_count(), 0);

        // Inserts touching a departed node are skipped.
        let applied = dg.apply(&GraphDelta {
            insert_edges: vec![(0, 1), (1, 2)],
            ..GraphDelta::default()
        });
        assert_eq!(applied.edges_inserted, 1);
        assert_eq!(applied.edits_skipped, 1);
    }

    #[test]
    fn resumed_overlay_continues_like_the_resident_one() {
        let batches = [
            GraphDelta {
                leave_nodes: vec![3],
                insert_edges: vec![(0, 5)],
                ..GraphDelta::default()
            },
            GraphDelta {
                insert_edges: vec![(3, 7), (1, 6)],
                join_nodes: vec![vec![3, 2]],
                ..GraphDelta::default()
            },
        ];
        let mut resident = DeltaGraph::new(&generators::petersen());
        let mut snapshot = Arc::new(generators::petersen());
        let mut departed = Vec::new();
        for batch in &batches {
            let mut resumed = DeltaGraph::from_snapshot(snapshot, &departed);
            assert_eq!(resumed.apply(batch), resident.apply(batch));
            departed = resumed.departed_nodes().collect();
            snapshot = resumed.into_graph();
            assert_eq!(*snapshot, *resident.graph());
        }
        assert_eq!(departed, [NodeId::new(3)]);
    }

    #[test]
    fn joins_allocate_fresh_ids_in_order() {
        let mut dg = DeltaGraph::new(&generators::path(2));
        let applied = dg.apply(&GraphDelta {
            join_nodes: vec![vec![0, 1], vec![2]], // second attaches to first
            ..GraphDelta::default()
        });
        assert_eq!(applied.nodes_joined, 2);
        assert_eq!(applied.edges_inserted, 3);
        assert_eq!(dg.node_count(), 4);
        assert!(dg.graph().contains_edge(2.into(), 3.into()));
        assert!(algo::is_connected(dg.graph()));
    }

    #[test]
    fn departed_ids_are_never_reused() {
        let mut dg = DeltaGraph::new(&generators::path(3));
        dg.apply(&GraphDelta {
            leave_nodes: vec![2],
            ..GraphDelta::default()
        });
        dg.apply(&GraphDelta {
            join_nodes: vec![vec![0]],
            ..GraphDelta::default()
        });
        assert_eq!(dg.node_count(), 4, "join took id 3, not the retired 2");
        assert!(dg.is_departed(2.into()));
        assert!(!dg.is_departed(3.into()));
    }

    #[test]
    fn churn_spec_parses_and_displays() {
        for (text, kind, rate, seed) in [
            ("edge:50:7", ChurnKind::Edge, 50, 7),
            ("nodes:10:0", ChurnKind::Nodes, 10, 0),
            ("mix:1000:42", ChurnKind::Mix, 1000, 42),
        ] {
            let spec: ChurnSpec = text.parse().unwrap();
            assert_eq!(spec.kind, kind);
            assert_eq!(spec.rate_pm, rate);
            assert_eq!(spec.seed, seed);
            assert_eq!(spec.to_string(), text);
        }
        assert_eq!("none".parse::<ChurnSpec>().unwrap(), ChurnSpec::NONE);
        assert!(ChurnSpec::NONE.is_none());
        assert_eq!(ChurnSpec::NONE.to_string(), "none");
        for bad in [
            "",
            "edge",
            "edge:5",
            "warp:5:1",
            "edge:x:1",
            "edge:5:x",
            "edge:1001:1",
            "edge:5:1:9",
        ] {
            assert!(bad.parse::<ChurnSpec>().is_err(), "{bad}");
        }
    }

    #[test]
    fn zero_rate_and_zero_horizon_generate_nothing() {
        let g = generators::cycle(8);
        assert!(ChurnSchedule::generate(&g, ChurnSpec::NONE, 100).is_empty());
        let spec: ChurnSpec = "edge:100:1".parse().unwrap();
        assert!(ChurnSchedule::generate(&g, spec, 0).is_empty());
        assert_eq!(ChurnSchedule::empty().max_round(), None);
        assert_eq!(ChurnSchedule::empty().len(), 0);
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let g = generators::sparse_connected(40, 40, 3);
        let spec: ChurnSpec = "mix:100:9".parse().unwrap();
        let a = ChurnSchedule::generate(&g, spec, 32);
        let b = ChurnSchedule::generate(&g, spec, 32);
        assert_eq!(a, b);
        let other = ChurnSchedule::generate(&g, ChurnSpec { seed: 10, ..spec }, 32);
        assert_ne!(a, other, "different seed, different schedule");
        assert!(a.max_round().unwrap() <= 32);
    }

    #[test]
    fn generated_edits_are_always_valid_at_application_time() {
        // Replaying every generated delta through DeltaGraph must apply
        // every edit: the generator's shadow state mirrors `apply` exactly.
        for (kind, seed) in [("edge", 1u64), ("nodes", 2), ("mix", 3)] {
            let g = generators::sparse_connected(30, 20, seed);
            let spec: ChurnSpec = format!("{kind}:150:{seed}").parse().unwrap();
            let schedule = ChurnSchedule::generate(&g, spec, 40);
            assert!(!schedule.is_empty());
            let mut dg = DeltaGraph::new(&g);
            for (round, delta) in schedule.iter() {
                assert!(round >= 1);
                let applied = dg.apply(delta);
                assert_eq!(
                    applied.edits_skipped, 0,
                    "{kind} round {round}: generator emitted an invalid edit"
                );
            }
            // Node churn really moved the population.
            if kind != "edge" {
                assert!(dg.departed_count() > 0);
                assert!(dg.node_count() > g.node_count());
            }
        }
    }

    #[test]
    fn edge_churn_preserves_node_count_and_roughly_m() {
        let g = generators::cycle(24);
        let spec: ChurnSpec = "edge:100:5".parse().unwrap();
        let schedule = ChurnSchedule::generate(&g, spec, 16);
        let mut dg = DeltaGraph::new(&g);
        for (_, delta) in schedule.iter() {
            assert!(delta.leave_nodes.is_empty());
            assert!(delta.join_nodes.is_empty());
            dg.apply(delta);
        }
        assert_eq!(dg.node_count(), 24);
        // Insertion is rejection-sampled, so m can only shrink slightly.
        assert!(dg.edge_count() <= 24);
        assert!(dg.edge_count() >= 12);
    }

    #[test]
    fn stream_is_byte_identical_to_the_materialized_schedule() {
        for kind in ["edge", "nodes", "mix"] {
            let g = generators::sparse_connected(36, 24, 5);
            let spec: ChurnSpec = format!("{kind}:120:9").parse().unwrap();
            let schedule = ChurnSchedule::generate(&g, spec, 24);
            let mut stream = ChurnStream::new(&g, spec, 24);
            assert_eq!(stream.spec(), spec);
            assert_eq!(stream.horizon(), 24);
            for round in 1..=26 {
                let streamed = stream.delta_before(round);
                let materialized = schedule.delta_at(round).cloned();
                assert_eq!(streamed, materialized, "{kind} round {round}");
            }
            // Re-requesting a past round yields nothing (state advanced).
            assert_eq!(stream.delta_before(3), None);
        }
        // Zero-rate streams are silent.
        let g = generators::cycle(6);
        let mut none = ChurnStream::new(&g, ChurnSpec::NONE, 10);
        assert_eq!(none.delta_before(1), None);
    }

    #[test]
    fn stream_fast_forwards_over_skipped_rounds() {
        // Asking only for round 5 must yield the same delta as walking
        // rounds 1..=5 (intermediate state still evolves).
        let g = generators::sparse_connected(30, 20, 7);
        let spec: ChurnSpec = "edge:200:3".parse().unwrap();
        let schedule = ChurnSchedule::generate(&g, spec, 8);
        let mut stream = ChurnStream::new(&g, spec, 8);
        assert_eq!(stream.delta_before(5), schedule.delta_at(5).cloned());
        assert_eq!(stream.delta_before(6), schedule.delta_at(6).cloned());
    }

    #[test]
    fn schedule_insert_replaces_and_drops_empty() {
        let mut s = ChurnSchedule::empty();
        s.insert(
            3,
            GraphDelta {
                delete_edges: vec![(0, 1)],
                ..GraphDelta::default()
            },
        );
        assert_eq!(s.len(), 1);
        assert!(s.delta_at(3).is_some());
        assert!(s.delta_at(2).is_none());
        s.insert(3, GraphDelta::default());
        assert!(s.is_empty(), "empty delta clears the slot");
    }
}
