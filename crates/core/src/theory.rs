//! The exact-time oracle and the paper's bounds.
//!
//! # The double-cover correspondence
//!
//! Amnesiac flooding on `G` from a source set `I` is *exactly* multi-source
//! BFS on the bipartite double cover `B(G)` started from the even lifts
//! `I' = {(v, Even) : v ∈ I}`:
//!
//! * a message sent on arc `u → w` in round `r` lifts to the cover arc
//!   `(u, (r−1) mod 2) → (w, r mod 2)`, so at any fixed round each base arc
//!   has at most one active lift and the projection is a per-round
//!   bijection on message sets;
//! * all lifted sources live in the Even part, which is an independent set
//!   of the (bipartite) cover, and a same-colour multi-source amnesiac
//!   flood on a bipartite graph is a plain parallel BFS (the Lemma 2.1
//!   argument verbatim).
//!
//! Consequently node `u` receives the message in round `r` **iff**
//! `dist_B(I', (u, r mod 2)) = r`, and the flood terminates at the largest
//! finite such distance. Everything the paper proves falls out:
//!
//! * each node receives at most twice (once per parity lift) — the engine
//!   behind Theorem 3.1's round-set argument;
//! * connected bipartite `G`, single source `v`: the odd copy is a separate
//!   component, every node receives exactly once at round `d(v, u)`, and
//!   termination is at `e(v) ≤ D` (Lemma 2.1 / Corollary 2.2);
//! * connected non-bipartite `G`: the cover is connected, termination is
//!   `ecc_B((v, Even)) ≤ 2D + 1` (Theorem 3.3);
//! * message complexity is exactly `m` (bipartite) / `2m` (non-bipartite)
//!   for a single source, because every edge of the flooded cover
//!   component(s) is used exactly once.
//!
//! [`predict`] computes the full receive schedule this way — an
//! implementation of the *theory* that shares no code with the two
//! simulators, so the test suites can confront them.
//!
//! # Multi-source exact times
//!
//! The same lift answers the paper's open multi-source question exactly.
//! Write `e(S) = max_u min_{s ∈ S} d(s, u)` for the **set eccentricity**
//! ([`set_eccentricity`]). On a connected graph with a non-empty source
//! set `S`:
//!
//! * node `u`'s *first* receipt is always at round `d(S, u)`, so
//!   `T ≥ e(S)`;
//! * if `G` is bipartite **and `S` is monochromatic** (each component's
//!   sources in one of its colour classes — on a connected graph, simply
//!   all sources in one class), the lifted sources land in components of
//!   the (disconnected) cover that together contain exactly one lift per
//!   node: every node receives exactly once, at `d(S, u)`, and `T = e(S)`
//!   ([`bipartite_exact_set`] — the verbatim generalization of
//!   Lemma 2.1);
//! * otherwise — `G` non-bipartite, *or* bipartite with sources on both
//!   sides — both lifts of some node are reached at rounds of opposite
//!   parity, so `T ≥ e(S) + 1`, and the paper's odd-walk argument (taken
//!   at the nearest source) still gives `T ≤ e(S) + D + 1`.
//!
//! [`termination_bounds`] packages that window, and
//! [`exact_termination_set`] computes the exact value from the cover.
//! Note the mixed-colour caveat is real, not defensive: on the path
//! `0 – 1 – 2` with `S = {0, 1}`, `e(S) = 1` but the flood runs 2 rounds.

use af_graph::algo::{self, double_cover, Parity};
use af_graph::{Graph, NodeId};

/// The oracle's prediction of a flood's complete receive schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prediction {
    receive_rounds: Vec<Vec<u32>>,
    termination_round: u32,
    messages: u64,
}

impl Prediction {
    /// Predicted rounds (sorted) at which `v` receives the message.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn receive_rounds(&self, v: NodeId) -> &[u32] {
        &self.receive_rounds[v.index()]
    }

    /// Predicted termination round (0 when nothing is ever sent).
    #[must_use]
    pub fn termination_round(&self) -> u32 {
        self.termination_round
    }

    /// Predicted total message count.
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.messages
    }

    /// Predicted number of distinct informed nodes (excluding sources that
    /// never hear the message back).
    #[must_use]
    pub fn informed_count(&self) -> usize {
        self.receive_rounds.iter().filter(|r| !r.is_empty()).count()
    }
}

/// Predicts the complete receive schedule of an amnesiac flood on `graph`
/// from `sources`, via multi-source BFS on the bipartite double cover.
///
/// Duplicate sources are collapsed.
///
/// # Panics
///
/// Panics if a source is out of range.
///
/// # Examples
///
/// ```
/// use af_core::theory;
/// use af_graph::generators;
///
/// // Figure 2: the triangle from b terminates in 2D + 1 = 3 rounds and
/// // the two non-sources receive twice.
/// let g = generators::cycle(3);
/// let p = theory::predict(&g, [1.into()]);
/// assert_eq!(p.termination_round(), 3);
/// assert_eq!(p.receive_rounds(0.into()), &[1, 2]);
/// assert_eq!(p.receive_rounds(1.into()), &[3]);
/// ```
#[must_use]
pub fn predict<I>(graph: &Graph, sources: I) -> Prediction
where
    I: IntoIterator<Item = NodeId>,
{
    let dc = double_cover(graph);
    let lifted = sources.into_iter().map(|v| dc.lift(v, Parity::Even));
    let bfs = algo::multi_bfs(dc.graph(), lifted);

    let n = graph.node_count();
    let mut receive_rounds = vec![Vec::new(); n];
    let mut termination = 0u32;
    for u in graph.nodes() {
        let mut rounds = Vec::new();
        for p in [Parity::Even, Parity::Odd] {
            if let Some(d) = bfs.distance(dc.lift(u, p)) {
                if d > 0 {
                    rounds.push(d);
                }
            }
        }
        rounds.sort_unstable();
        termination = termination.max(rounds.last().copied().unwrap_or(0));
        receive_rounds[u.index()] = rounds;
    }

    // Every edge of the cover that joins two reached nodes is used exactly
    // once (BFS on a bipartite graph uses every intra-component edge), so
    // the message count is the number of cover edges with both endpoints
    // reached.
    let messages = dc
        .graph()
        .edge_list()
        .filter(|&(a, b)| bfs.is_reachable(a) && bfs.is_reachable(b))
        .count() as u64;

    Prediction {
        receive_rounds,
        termination_round: termination,
        messages,
    }
}

/// A reusable exact-time oracle for one graph: the bipartite double cover
/// is built **once**, and every query after that is a multi-source BFS
/// over the cached cover using epoch-stamped scratch buffers — zero
/// allocation per warm [`PredictIndex::summary`] query, `O(n + m)` time.
///
/// This is the referee for [`predict_summary`], the cover-free path
/// `af-serve` answers `Predict` with: the tests confront the two on the
/// zoo and on random source sets. [`PredictIndex::predict`] is
/// **bit-identical** to the free-standing [`predict`] — a unit test below
/// confronts them on the zoo.
#[derive(Debug)]
pub struct PredictIndex {
    cover: algo::DoubleCover,
    /// BFS distance per cover node; valid iff `mark` carries this query's
    /// epoch (the stamp trick makes reset O(1) instead of O(2n)).
    dist: Vec<u32>,
    mark: Vec<u32>,
    epoch: u32,
    queue: Vec<NodeId>,
}

/// The scalar slice of a [`Prediction`], for callers that do not need the
/// per-node receive schedule (the serve hot path). With the `serde`
/// feature it serializes field-for-field, so `af-serve` returns it on the
/// wire directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PredictSummary {
    /// Predicted termination round (0 when nothing is ever sent).
    pub termination_round: u32,
    /// Predicted total message count.
    pub total_messages: u64,
    /// Predicted number of distinct informed nodes.
    pub informed_count: usize,
}

impl PredictIndex {
    /// Builds the index for `graph` (one double-cover construction).
    #[must_use]
    pub fn new(graph: &Graph) -> Self {
        let cover = double_cover(graph);
        let cover_n = cover.graph().node_count();
        PredictIndex {
            cover,
            dist: vec![0; cover_n],
            mark: vec![0; cover_n],
            epoch: 0,
            queue: Vec::new(),
        }
    }

    /// Node count of the base graph this index answers for.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.cover.base_node_count()
    }

    /// Multi-source BFS over the cached cover from the even lifts of
    /// `sources`. After this, `self.reached(x)` / `self.dist[x]` describe
    /// the query.
    fn bfs<I>(&mut self, sources: I)
    where
        I: IntoIterator<Item = NodeId>,
    {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // u32 wraparound: old stamps could alias the new epoch.
            self.mark.fill(0);
            self.epoch = 1;
        }
        self.queue.clear();
        let n = self.node_count();
        for v in sources {
            assert!(v.index() < n, "source {v} out of range");
            let x = self.cover.lift(v, Parity::Even);
            if self.mark[x.index()] != self.epoch {
                self.mark[x.index()] = self.epoch;
                self.dist[x.index()] = 0;
                self.queue.push(x);
            }
        }
        let mut head = 0;
        while let Some(&x) = self.queue.get(head) {
            head += 1;
            let d = self.dist[x.index()] + 1;
            for &y in self.cover.graph().neighbors(x) {
                if self.mark[y.index()] != self.epoch {
                    self.mark[y.index()] = self.epoch;
                    self.dist[y.index()] = d;
                    self.queue.push(y);
                }
            }
        }
    }

    /// Was cover node `x` reached by the current query's BFS?
    fn reached(&self, x: NodeId) -> bool {
        self.mark[x.index()] == self.epoch
    }

    /// The round at which the current query reaches `(u, p)`, if it does
    /// and the round is positive (round 0 is the send, not a receipt).
    fn receive_round(&self, u: NodeId, p: Parity) -> Option<u32> {
        let x = self.cover.lift(u, p);
        match self.reached(x) {
            true if self.dist[x.index()] > 0 => Some(self.dist[x.index()]),
            _ => None,
        }
    }

    /// Messages of the current query: one per cover edge with both
    /// endpoints reached (see [`predict`]).
    fn messages(&self) -> u64 {
        self.cover
            .graph()
            .edge_list()
            .filter(|&(a, b)| self.reached(a) && self.reached(b))
            .count() as u64
    }

    /// The complete receive schedule — bit-identical to [`predict`] on the
    /// same graph and sources, with the cover construction amortized away.
    ///
    /// # Panics
    ///
    /// Panics if a source is out of range.
    pub fn predict<I>(&mut self, sources: I) -> Prediction
    where
        I: IntoIterator<Item = NodeId>,
    {
        self.bfs(sources);
        let n = self.node_count();
        let mut receive_rounds = vec![Vec::new(); n];
        let mut termination = 0u32;
        for u in (0..n).map(NodeId::new) {
            let mut rounds = Vec::new();
            for p in [Parity::Even, Parity::Odd] {
                if let Some(d) = self.receive_round(u, p) {
                    rounds.push(d);
                }
            }
            rounds.sort_unstable();
            termination = termination.max(rounds.last().copied().unwrap_or(0));
            receive_rounds[u.index()] = rounds;
        }
        Prediction {
            receive_rounds,
            termination_round: termination,
            messages: self.messages(),
        }
    }

    /// The scalar prediction only — termination round, message count,
    /// informed nodes — with **zero allocation** on a warm index. The
    /// fields agree exactly with [`PredictIndex::predict`]'s.
    ///
    /// # Panics
    ///
    /// Panics if a source is out of range.
    pub fn summary<I>(&mut self, sources: I) -> PredictSummary
    where
        I: IntoIterator<Item = NodeId>,
    {
        self.bfs(sources);
        let n = self.node_count();
        let mut termination = 0u32;
        let mut informed = 0usize;
        for u in (0..n).map(NodeId::new) {
            let mut any = false;
            for p in [Parity::Even, Parity::Odd] {
                if let Some(d) = self.receive_round(u, p) {
                    termination = termination.max(d);
                    any = true;
                }
            }
            informed += usize::from(any);
        }
        // Messages without the O(m) cover-edge scan [`Self::messages`]
        // does: BFS reaches every neighbor of a reached node, so a cover
        // edge with one reached endpoint has both reached — the counted
        // edge set is exactly the one induced by the reached nodes, i.e.
        // half the degree sum over the BFS queue. O(reached) per query,
        // and bit-equal to the edge filter (the cross-check tests pin it).
        let cover = self.cover.graph();
        let degree_sum: u64 = self.queue.iter().map(|&x| cover.degree(x) as u64).sum();
        PredictSummary {
            termination_round: termination,
            total_messages: degree_sum / 2,
            informed_count: informed,
        }
    }
}

/// The scalar prediction — termination round, message count, informed
/// nodes — by one parity-constrained BFS on `graph` itself, without the
/// double cover. Equal field-for-field to [`PredictIndex::summary`]:
///
/// * the termination round is the largest positive parity distance;
/// * a node is informed iff it has a positive distance of either parity;
/// * every reached `(u, parity)` state sends one message down each of
///   `u`'s edges, and each message lands on a reached state, so the
///   message count is half the degree sum over the reached states.
///
/// Allocates its BFS buffers per call (at most 24 bytes per node) and frees
/// them on return; `O(n + m)` time. Duplicate sources are collapsed.
///
/// # Panics
///
/// Panics if a source is out of range.
///
/// # Examples
///
/// ```
/// use af_core::theory;
/// use af_graph::generators;
///
/// // Figure 2's triangle: 2D + 1 = 3 rounds, 2m = 6 messages.
/// let s = theory::predict_summary(&generators::cycle(3), [1.into()]);
/// assert_eq!((s.termination_round, s.total_messages, s.informed_count), (3, 6, 3));
/// ```
#[must_use]
pub fn predict_summary<I>(graph: &Graph, sources: I) -> PredictSummary
where
    I: IntoIterator<Item = NodeId>,
{
    let pd = algo::parity_distances(graph, sources);
    let mut termination = 0u32;
    let mut informed = 0usize;
    let mut degree_sum = 0u64;
    for u in graph.nodes() {
        let (even, odd) = pd.both(u);
        let mut any = false;
        for d in [even, odd].into_iter().flatten() {
            degree_sum += graph.degree(u) as u64;
            if d > 0 {
                termination = termination.max(d);
                any = true;
            }
        }
        informed += usize::from(any);
    }
    PredictSummary {
        termination_round: termination,
        total_messages: degree_sum / 2,
        informed_count: informed,
    }
}

/// The same prediction as [`predict`], computed by parity-constrained BFS
/// on the base graph instead of materializing the double cover.
///
/// The two implementations share no code below the `Graph` API; the test
/// suites require them to agree exactly, which guards both against
/// construction bugs in the cover and traversal bugs in the parity BFS.
///
/// # Panics
///
/// Panics if a source is out of range.
#[must_use]
pub fn predict_via_parity<I>(graph: &Graph, sources: I) -> Prediction
where
    I: IntoIterator<Item = NodeId>,
{
    let pd = algo::parity_distances(graph, sources);
    let n = graph.node_count();
    let mut receive_rounds = vec![Vec::new(); n];
    let mut termination = 0u32;
    let mut reached_even = vec![false; n];
    let mut reached_odd = vec![false; n];
    for u in graph.nodes() {
        let mut rounds = Vec::new();
        let (e, o) = pd.both(u);
        reached_even[u.index()] = e.is_some();
        reached_odd[u.index()] = o.is_some();
        for d in [e, o].into_iter().flatten() {
            if d > 0 {
                rounds.push(d);
            }
        }
        rounds.sort_unstable();
        termination = termination.max(rounds.last().copied().unwrap_or(0));
        receive_rounds[u.index()] = rounds;
    }
    // Message count: one per reached double-cover edge; a base edge {u, w}
    // contributes its (u-even, w-odd) lift when both those states are
    // reached, and its (u-odd, w-even) lift likewise.
    let mut messages = 0u64;
    for (u, w) in graph.edge_list() {
        if reached_even[u.index()] && reached_odd[w.index()] {
            messages += 1;
        }
        if reached_odd[u.index()] && reached_even[w.index()] {
            messages += 1;
        }
    }
    Prediction {
        receive_rounds,
        termination_round: termination,
        messages,
    }
}

/// The paper's termination-time upper bound for `graph`: `D` if bipartite
/// (Corollary 2.2), `2D + 1` otherwise (Theorem 3.3). `None` for
/// disconnected or empty graphs, where no single bound applies.
///
/// # Examples
///
/// ```
/// use af_core::theory::upper_bound;
/// use af_graph::generators;
///
/// assert_eq!(upper_bound(&generators::cycle(6)), Some(3));     // D
/// assert_eq!(upper_bound(&generators::cycle(3)), Some(3));     // 2D + 1
/// assert_eq!(upper_bound(&generators::petersen()), Some(5));   // 2·2 + 1
/// ```
#[must_use]
pub fn upper_bound(graph: &Graph) -> Option<u32> {
    let d = algo::diameter(graph)?;
    Some(if algo::is_bipartite(graph) {
        d
    } else {
        2 * d + 1
    })
}

/// Lemma 2.1's exact termination time for a connected bipartite graph:
/// the eccentricity of the source. `None` if the graph is disconnected or
/// not bipartite.
#[must_use]
pub fn bipartite_exact(graph: &Graph, source: NodeId) -> Option<u32> {
    if !algo::is_bipartite(graph) {
        return None;
    }
    algo::eccentricity(graph, source)
}

/// The exact termination time for any graph and source: the largest finite
/// distance from the source's even lift in the double cover.
///
/// Equals [`bipartite_exact`] (`= e(v) ≤ D`) on connected bipartite graphs.
/// On connected non-bipartite graphs it lies in `[e(v) + 1, 2D + 1]`:
/// strictly above the *source eccentricity* (the second parity of every
/// node still has to be reached), and therefore strictly above `D` when
/// flooding from a maximum-eccentricity source — the sense in which the
/// paper calls non-bipartite termination "strictly larger than D"
/// (Theorem 3.3).
#[must_use]
pub fn exact_termination(graph: &Graph, source: NodeId) -> u32 {
    predict(graph, [source]).termination_round()
}

/// The set eccentricity `e(S) = max_u min_{s ∈ S} d(s, u)`: the largest
/// multi-source BFS distance from `S`. This is the round of the *last
/// first receipt* of a multi-source flood, and hence a lower bound on its
/// termination time.
///
/// Returns `None` if `S` is empty or some node is unreachable from `S`
/// (duplicate sources are collapsed).
///
/// # Panics
///
/// Panics if a source is out of range.
#[must_use]
pub fn set_eccentricity<I>(graph: &Graph, sources: I) -> Option<u32>
where
    I: IntoIterator<Item = NodeId>,
{
    let bfs = algo::multi_bfs(graph, sources);
    if bfs.sources().is_empty() || bfs.reachable_count() < graph.node_count() {
        return None;
    }
    bfs.eccentricity()
}

/// Lemma 2.1 generalized to source sets: if `graph` is bipartite, every
/// node is reachable from `S`, and **each component's sources lie in one
/// colour class of that component**, every node receives exactly once —
/// at `d(S, u)` — and the flood terminates at exactly the set
/// eccentricity `e(S)`.
///
/// (The condition is per component because a 2-colouring's orientation is
/// arbitrary component by component; on a connected graph it reduces to
/// "all sources in one colour class".)
///
/// Returns `None` when the hypothesis fails: non-bipartite graphs, nodes
/// unreachable from `S`, an empty source set, or a component flooded from
/// both its sides (where `T > e(S)` strictly; see the [module docs](self)).
///
/// # Panics
///
/// Panics if a source is out of range.
///
/// # Examples
///
/// ```
/// use af_core::theory;
/// use af_graph::{generators, NodeId};
///
/// let g = generators::cycle(8);
/// // 0 and 4 share a colour class on C8: exact time e({0, 4}) = 2.
/// assert_eq!(theory::bipartite_exact_set(&g, [0.into(), 4.into()]), Some(2));
/// // 0 and 3 do not: the lemma does not apply.
/// assert_eq!(theory::bipartite_exact_set(&g, [0.into(), 3.into()]), None);
/// ```
#[must_use]
pub fn bipartite_exact_set<I>(graph: &Graph, sources: I) -> Option<u32>
where
    I: IntoIterator<Item = NodeId>,
{
    let sources: Vec<NodeId> = sources.into_iter().collect();
    if !is_monochromatic_bipartite(graph, &sources) {
        return None;
    }
    set_eccentricity(graph, sources)
}

/// The exactness hypothesis of [`bipartite_exact_set`], minus
/// reachability: is `graph` bipartite with each component's sources in
/// one of that component's colour classes? (False for empty `sources`.)
fn is_monochromatic_bipartite(graph: &Graph, sources: &[NodeId]) -> bool {
    if sources.is_empty() {
        return false;
    }
    let coloring = match algo::bipartiteness(graph) {
        algo::Bipartiteness::Bipartite(c) => c,
        algo::Bipartiteness::OddCycle(_) => return false,
    };
    let components = algo::connected_components(graph);
    let mut component_side: Vec<Option<algo::Side>> = vec![None; components.count()];
    for &s in sources {
        let slot = &mut component_side[components.component(s)];
        match *slot {
            None => *slot = Some(coloring.side(s)),
            Some(side) if side != coloring.side(s) => return false,
            Some(_) => {}
        }
    }
    true
}

/// The multi-source termination-time window `(lo, hi)` with
/// `lo ≤ T ≤ hi`:
///
/// * bipartite graph, per-component monochromatic `S` — `lo = hi = e(S)`
///   (the window is the exact value, [`bipartite_exact_set`]);
/// * every other connected case — `lo = e(S) + 1` (strict: a second
///   parity must still be served after the last first receipt) and
///   `hi = e(S) + D + 1` (the odd-walk bound taken at the nearest
///   source).
///
/// Returns `None` for empty source sets, for graphs not entirely
/// reachable from `S`, and — outside the exact bipartite case — for
/// disconnected graphs (the upper bound needs a finite diameter, even
/// when `S` touches every component).
///
/// # Panics
///
/// Panics if a source is out of range.
#[must_use]
pub fn termination_bounds<I>(graph: &Graph, sources: I) -> Option<(u32, u32)>
where
    I: IntoIterator<Item = NodeId>,
{
    let sources: Vec<NodeId> = sources.into_iter().collect();
    let ecc = set_eccentricity(graph, sources.iter().copied())?;
    if is_monochromatic_bipartite(graph, &sources) {
        return Some((ecc, ecc));
    }
    let d = algo::diameter(graph)?;
    Some((ecc + 1, ecc + d + 1))
}

/// The exact termination time of a multi-source flood: the largest finite
/// distance from the lifted source set `{(s, Even) : s ∈ S}` in the
/// bipartite double cover. `0` for empty source sets.
///
/// Always lies inside [`termination_bounds`] when those are defined, and
/// generalizes [`exact_termination`] (`sources = [v]`).
///
/// # Panics
///
/// Panics if a source is out of range.
#[must_use]
pub fn exact_termination_set<I>(graph: &Graph, sources: I) -> u32
where
    I: IntoIterator<Item = NodeId>,
{
    predict(graph, sources).termination_round()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::flood;
    use af_graph::generators;

    #[test]
    fn oracle_matches_simulation_on_figures() {
        for (g, s) in [
            (generators::path(4), 1usize), // Figure 1
            (generators::cycle(3), 1),     // Figure 2
            (generators::cycle(6), 0),     // Figure 3
        ] {
            let p = predict(&g, [NodeId::new(s)]);
            let r = flood(&g, NodeId::new(s));
            assert_eq!(Some(p.termination_round()), r.termination_round(), "{g}");
            for v in g.nodes() {
                assert_eq!(p.receive_rounds(v), r.receive_rounds(v), "{g} node {v}");
            }
            assert_eq!(p.total_messages(), r.total_messages(), "{g}");
        }
    }

    #[test]
    fn oracle_matches_simulation_on_zoo() {
        let zoo: Vec<(Graph, Vec<usize>)> = vec![
            (generators::petersen(), vec![0]),
            (generators::wheel(7), vec![3]),
            (generators::barbell(4), vec![0]),
            (generators::grid(4, 5), vec![7]),
            (generators::hypercube(4), vec![0]),
            (generators::complete(7), vec![2]),
            (generators::cycle(9), vec![0, 4]),
            (generators::lollipop(4, 5), vec![8]),
            (generators::path(6), vec![0, 5]),
        ];
        for (g, sources) in zoo {
            let srcs: Vec<NodeId> = sources.iter().map(|&s| NodeId::new(s)).collect();
            let p = predict(&g, srcs.iter().copied());
            let r = crate::run::AmnesiacFlooding::multi_source(&g, srcs.iter().copied()).run();
            assert!(r.terminated());
            assert_eq!(Some(p.termination_round()), r.termination_round(), "{g}");
            for v in g.nodes() {
                assert_eq!(p.receive_rounds(v), r.receive_rounds(v), "{g} node {v}");
            }
            assert_eq!(p.total_messages(), r.total_messages(), "{g}");
            assert_eq!(p.informed_count(), r.informed_count(), "{g}");
        }
    }

    #[test]
    fn both_oracle_implementations_agree() {
        let zoo: Vec<(Graph, Vec<usize>)> = vec![
            (generators::petersen(), vec![0]),
            (generators::cycle(7), vec![2]),
            (generators::cycle(8), vec![2]),
            (generators::grid(4, 5), vec![0, 19]),
            (generators::complete(6), vec![1, 2, 3]),
            (generators::barbell(4), vec![0]),
            (generators::friendship(3), vec![0]),
            (generators::friendship(3), vec![1, 4]),
            (generators::path(9), vec![0, 8]),
        ];
        for (g, sources) in zoo {
            let srcs: Vec<NodeId> = sources.iter().map(|&s| NodeId::new(s)).collect();
            let a = predict(&g, srcs.iter().copied());
            let b = predict_via_parity(&g, srcs.iter().copied());
            assert_eq!(a, b, "{g} from {sources:?}");
        }
    }

    #[test]
    fn bipartite_exact_is_source_eccentricity() {
        let g = generators::grid(3, 5);
        for v in g.nodes() {
            let exact = bipartite_exact(&g, v).unwrap();
            assert_eq!(exact, af_graph::algo::eccentricity(&g, v).unwrap());
            let run = flood(&g, v);
            assert_eq!(run.termination_round(), Some(exact));
        }
    }

    #[test]
    fn bipartite_exact_rejects_non_bipartite() {
        assert_eq!(bipartite_exact(&generators::cycle(5), 0.into()), None);
        let disconnected = Graph::from_edges(4, [(0, 1)]).unwrap();
        assert_eq!(bipartite_exact(&disconnected, 0.into()), None);
    }

    #[test]
    fn upper_bounds_match_paper() {
        assert_eq!(upper_bound(&generators::path(5)), Some(4));
        assert_eq!(upper_bound(&generators::complete(6)), Some(3)); // 2·1+1
        assert_eq!(upper_bound(&generators::cycle(10)), Some(5));
        assert_eq!(upper_bound(&generators::cycle(11)), Some(11)); // 2·5+1
        assert_eq!(upper_bound(&Graph::empty(3)), None);
    }

    #[test]
    fn exact_termination_within_bounds_on_zoo() {
        for g in [
            generators::cycle(7),
            generators::petersen(),
            generators::wheel(6),
            generators::barbell(5),
            generators::complete(4),
            generators::torus(3, 5),
        ] {
            let bound = upper_bound(&g).unwrap();
            let d = af_graph::algo::diameter(&g).unwrap();
            for v in g.nodes() {
                let t = exact_termination(&g, v);
                assert!(t <= bound, "{g}: T = {t} > bound {bound}");
                assert!(t > d, "{g}: non-bipartite termination exceeds D");
            }
        }
    }

    #[test]
    fn nodes_receive_at_most_twice() {
        for g in [
            generators::petersen(),
            generators::complete(6),
            generators::cycle(9),
            generators::grid(4, 4),
        ] {
            let p = predict(&g, [0.into()]);
            for v in g.nodes() {
                assert!(p.receive_rounds(v).len() <= 2);
            }
        }
    }

    #[test]
    fn single_source_receive_parities_differ() {
        let g = generators::petersen();
        let p = predict(&g, [0.into()]);
        for v in g.nodes() {
            if let [a, b] = *p.receive_rounds(v) {
                assert_ne!(a % 2, b % 2, "two receipts always have opposite parity");
            }
        }
    }

    #[test]
    fn set_eccentricity_matches_definition() {
        let g = generators::grid(4, 5);
        let dm = af_graph::algo::distance_matrix(&g);
        let sets: Vec<Vec<usize>> = vec![vec![0], vec![0, 19], vec![3, 7, 12], vec![5]];
        for set in sets {
            let srcs: Vec<NodeId> = set.iter().map(|&s| NodeId::new(s)).collect();
            let want = g
                .nodes()
                .map(|u| srcs.iter().filter_map(|&s| dm.get(s, u)).min().unwrap())
                .max()
                .unwrap();
            assert_eq!(set_eccentricity(&g, srcs), Some(want), "{set:?}");
        }
        // Empty source sets and unreachable nodes have no eccentricity.
        assert_eq!(set_eccentricity(&g, []), None);
        let disc = Graph::from_edges(4, [(0, 1)]).unwrap();
        assert_eq!(set_eccentricity(&disc, [0.into()]), None);
        assert_eq!(
            set_eccentricity(&disc, [0.into(), 2.into(), 3.into()]),
            Some(1)
        );
    }

    #[test]
    fn monochromatic_bipartite_sets_terminate_at_set_eccentricity() {
        // Same-colour source sets on bipartite graphs: T = e(S) exactly,
        // every node receives exactly once.
        let cases: Vec<(Graph, Vec<usize>)> = vec![
            (generators::cycle(8), vec![0, 4]),
            (generators::cycle(8), vec![0, 2, 6]),
            (generators::grid(4, 5), vec![0, 18]),
            (generators::path(9), vec![0, 4, 8]),
            (generators::hypercube(4), vec![0, 3, 5]),
        ];
        for (g, set) in cases {
            let srcs: Vec<NodeId> = set.iter().map(|&s| NodeId::new(s)).collect();
            let exact = bipartite_exact_set(&g, srcs.iter().copied())
                .unwrap_or_else(|| panic!("{g} from {set:?} should be monochromatic"));
            assert_eq!(exact, set_eccentricity(&g, srcs.iter().copied()).unwrap());
            let run = crate::run::AmnesiacFlooding::multi_source(&g, srcs.iter().copied()).run();
            assert_eq!(run.termination_round(), Some(exact), "{g} from {set:?}");
            assert_eq!(run.max_receive_count(), 1, "{g} from {set:?}");
            assert_eq!(termination_bounds(&g, srcs), Some((exact, exact)));
        }
    }

    #[test]
    fn mixed_colour_bipartite_sets_exceed_set_eccentricity() {
        // The caveat the module docs call out: path 0-1-2 from {0, 1} has
        // e(S) = 1 but runs 2 rounds — Lemma 2.1 does not lift to
        // bichromatic source sets.
        let g = generators::path(3);
        let srcs = [NodeId::new(0), NodeId::new(1)];
        assert_eq!(bipartite_exact_set(&g, srcs), None);
        assert_eq!(set_eccentricity(&g, srcs), Some(1));
        assert_eq!(exact_termination_set(&g, srcs), 2);
        assert_eq!(termination_bounds(&g, srcs), Some((2, 4)));

        // Strictness holds on every mixed set of the zoo.
        let zoo: Vec<(Graph, Vec<usize>)> = vec![
            (generators::cycle(8), vec![0, 3]),
            (generators::grid(4, 5), vec![0, 1]),
            (generators::path(6), vec![0, 1, 5]),
        ];
        for (g, set) in zoo {
            let srcs: Vec<NodeId> = set.iter().map(|&s| NodeId::new(s)).collect();
            assert_eq!(bipartite_exact_set(&g, srcs.iter().copied()), None);
            let e = set_eccentricity(&g, srcs.iter().copied()).unwrap();
            assert!(
                exact_termination_set(&g, srcs) > e,
                "{g} from {set:?}: T must exceed e(S)"
            );
        }
    }

    #[test]
    fn disconnected_bipartite_exactness_is_per_component_and_symmetric() {
        // Two disjoint edges: the colour orientation of each component is
        // arbitrary, so every one-source-per-component set is
        // monochromatic per component and must get the same exact answer
        // regardless of which endpoints are picked.
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        for set in [[0usize, 2], [0, 3], [1, 2], [1, 3]] {
            let srcs: Vec<NodeId> = set.iter().map(|&s| NodeId::new(s)).collect();
            assert_eq!(
                bipartite_exact_set(&g, srcs.iter().copied()),
                Some(1),
                "{set:?}"
            );
            assert_eq!(termination_bounds(&g, srcs.iter().copied()), Some((1, 1)));
            assert_eq!(exact_termination_set(&g, srcs), 1, "{set:?}");
        }
        // Both sources inside one component (other unreachable): no claim.
        assert_eq!(bipartite_exact_set(&g, [0.into(), 1.into()]), None);
        // Both colours of one component used: mixed, no exactness claim —
        // and the non-exact window has no finite diameter here either.
        assert_eq!(
            bipartite_exact_set(&g, [0.into(), 1.into(), 2.into()]),
            None
        );
        assert_eq!(termination_bounds(&g, [0.into(), 1.into(), 2.into()]), None);
    }

    #[test]
    fn termination_bounds_contain_exact_time_on_zoo() {
        let zoo: Vec<(Graph, Vec<usize>)> = vec![
            (generators::petersen(), vec![0]),
            (generators::petersen(), vec![0, 7, 9]),
            (generators::cycle(7), vec![2, 5]),
            (generators::complete(6), vec![0, 1, 2]),
            (generators::wheel(7), vec![1, 4]),
            (generators::barbell(4), vec![0, 7]),
            (generators::grid(4, 5), vec![0, 1, 19]),
            (generators::friendship(3), vec![0, 2]),
            (generators::lollipop(4, 5), vec![0, 8]),
        ];
        for (g, set) in zoo {
            let srcs: Vec<NodeId> = set.iter().map(|&s| NodeId::new(s)).collect();
            let (lo, hi) = termination_bounds(&g, srcs.iter().copied()).unwrap();
            let t = exact_termination_set(&g, srcs.iter().copied());
            assert!(
                lo <= t && t <= hi,
                "{g} from {set:?}: {t} not in [{lo}, {hi}]"
            );
            // The exact value agrees with a real multi-source run.
            let run = crate::run::AmnesiacFlooding::multi_source(&g, srcs.iter().copied()).run();
            assert_eq!(run.termination_round(), Some(t), "{g} from {set:?}");
        }
        // No bounds without reachability or sources.
        assert_eq!(termination_bounds(&generators::cycle(5), []), None);
        let disc = Graph::from_edges(4, [(0, 1)]).unwrap();
        assert_eq!(termination_bounds(&disc, [0.into()]), None);
    }

    #[test]
    fn whole_node_set_floods_for_one_or_two_rounds() {
        // S = V: e(S) = 0, so the window pins T to {1, 2} on any connected
        // graph with an edge (round 1 is the all-to-all exchange; a second
        // round happens iff some arc's reverse was silent, which cannot
        // recur).
        for g in [
            generators::complete(5),
            generators::cycle(6),
            generators::petersen(),
            generators::path(4),
        ] {
            let t = exact_termination_set(&g, g.nodes());
            assert!(
                (1..=2).contains(&t),
                "{g}: all-sources flood took {t} rounds"
            );
            let (lo, hi) = termination_bounds(&g, g.nodes()).unwrap();
            assert!(lo <= t && t <= hi, "{g}");
        }
    }

    #[test]
    fn predict_index_is_bit_identical_to_predict() {
        let zoo: Vec<(Graph, Vec<usize>)> = vec![
            (generators::petersen(), vec![0]),
            (generators::petersen(), vec![0, 7, 9]),
            (generators::cycle(7), vec![2]),
            (generators::cycle(8), vec![0, 4]),
            (generators::grid(4, 5), vec![0, 19]),
            (generators::complete(6), vec![1, 2, 3]),
            (generators::barbell(4), vec![0]),
            (generators::path(9), vec![0, 8]),
            (generators::lollipop(4, 5), vec![8]),
        ];
        for (g, set) in zoo {
            let srcs: Vec<NodeId> = set.iter().map(|&s| NodeId::new(s)).collect();
            let mut index = PredictIndex::new(&g);
            assert_eq!(index.node_count(), g.node_count());
            let want = predict(&g, srcs.iter().copied());
            let got = index.predict(srcs.iter().copied());
            assert_eq!(got, want, "{g} from {set:?}");
            let summary = index.summary(srcs.iter().copied());
            assert_eq!(summary.termination_round, want.termination_round());
            assert_eq!(summary.total_messages, want.total_messages());
            assert_eq!(summary.informed_count, want.informed_count());
            // The cover-free path the daemon answers with.
            assert_eq!(predict_summary(&g, srcs.iter().copied()), summary);
        }

        // One index, many queries: warm queries must stay exact — the
        // whole point of the epoch-stamped scratch.
        let g = generators::petersen();
        let mut index = PredictIndex::new(&g);
        let sets: Vec<Vec<NodeId>> = vec![
            vec![0.into()],
            vec![0.into(), 7.into(), 9.into()],
            vec![3.into()],
            g.nodes().collect(),
            vec![0.into()], // repeat: first query must be reproducible
        ];
        for srcs in sets {
            let want = predict(&g, srcs.iter().copied());
            assert_eq!(index.predict(srcs.iter().copied()), want, "{srcs:?}");
        }
    }

    #[test]
    fn predict_index_handles_empty_and_repeated_sources() {
        let g = generators::cycle(6);
        let mut index = PredictIndex::new(&g);
        let empty = index.summary([]);
        assert_eq!(empty.termination_round, 0);
        assert_eq!(empty.total_messages, 0);
        assert_eq!(empty.informed_count, 0);
        // Duplicates collapse, and a query after the empty one is unpolluted.
        let dup = index.predict([0.into(), 0.into()]);
        assert_eq!(dup, predict(&g, [0.into()]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn predict_index_rejects_out_of_range_sources() {
        let g = generators::cycle(4);
        let _ = PredictIndex::new(&g).summary([9.into()]);
    }

    #[test]
    fn empty_and_trivial_graphs() {
        let g = Graph::empty(1);
        let p = predict(&g, [0.into()]);
        assert_eq!(p.termination_round(), 0);
        assert_eq!(p.total_messages(), 0);
        assert_eq!(p.informed_count(), 0);
    }

    use af_graph::Graph;
}
