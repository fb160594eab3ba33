//! Parity-constrained shortest walks: for every node, the length of the
//! shortest *even*-length and shortest *odd*-length walk from a source set.
//!
//! This is the double-cover oracle computed without materializing the
//! cover: a BFS over `(node, parity)` states. `af-core` cross-checks the
//! two implementations against each other and against the simulators —
//! they must agree state-for-state, since
//! `dist_B((I, Even), (u, p)) = shortest walk I → u of parity p`.
//!
//! The module also derives the **odd girth** (length of the shortest odd
//! cycle), which controls how quickly the "second parity" becomes
//! reachable in non-bipartite graphs.

use crate::graph::Graph;
use crate::id::NodeId;

/// Marks a `(node, parity)` state no walk reaches.
const UNREACHED: u32 = u32::MAX;

/// Shortest even- and odd-length walk distances from a source set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParityDistances {
    /// The distance of state `(v, parity)` at index `2v` (even) or
    /// `2v + 1` (odd), [`UNREACHED`] if no walk of that parity exists.
    /// Interleaving the parities keeps a node's two states on one cache
    /// line.
    dist: Vec<u32>,
}

impl ParityDistances {
    fn state(&self, x: usize) -> Option<u32> {
        let d = self.dist[x];
        (d != UNREACHED).then_some(d)
    }

    /// Length of the shortest even-length walk from the sources to `v`
    /// (0 for the sources themselves), or `None` if no such walk exists.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    #[must_use]
    pub fn even(&self, v: NodeId) -> Option<u32> {
        self.state(2 * v.index())
    }

    /// Length of the shortest odd-length walk from the sources to `v`, or
    /// `None` if no such walk exists.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    #[must_use]
    pub fn odd(&self, v: NodeId) -> Option<u32> {
        self.state(2 * v.index() + 1)
    }

    /// Both parities, `(even, odd)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn both(&self, v: NodeId) -> (Option<u32>, Option<u32>) {
        (self.even(v), self.odd(v))
    }

    /// The largest finite parity distance overall — exactly the amnesiac
    /// flooding termination round from these sources.
    #[must_use]
    pub fn max_finite(&self) -> Option<u32> {
        self.dist.iter().copied().filter(|&d| d != UNREACHED).max()
    }
}

/// Computes shortest even/odd walk lengths from every node of `sources`
/// via BFS over `(node, parity)` states. Duplicate sources are tolerated.
///
/// Holds two buffers while it runs: one `u32` distance per state (8
/// bytes per node) and a queue that every state enters at most once (at
/// most 16 bytes per node, allocated once and never grown).
///
/// # Panics
///
/// Panics if a source is out of range.
///
/// # Examples
///
/// ```
/// use af_graph::{algo, generators};
///
/// // Triangle from node 0: node 1 is reachable by an odd walk of length 1
/// // (direct edge) and an even walk of length 2 (via node 2).
/// let g = generators::cycle(3);
/// let pd = algo::parity_distances(&g, [0.into()]);
/// assert_eq!(pd.both(1.into()), (Some(2), Some(1)));
/// // The source itself: even trivially 0; odd 3 (once around the triangle).
/// assert_eq!(pd.both(0.into()), (Some(0), Some(3)));
/// ```
#[must_use]
pub fn parity_distances<I>(graph: &Graph, sources: I) -> ParityDistances
where
    I: IntoIterator<Item = NodeId>,
{
    let n = graph.node_count();
    let mut dist = vec![UNREACHED; 2 * n];
    let mut queue: Vec<usize> = Vec::with_capacity(2 * n);

    for s in sources {
        assert!(s.index() < n, "source {s} out of range");
        let x = 2 * s.index();
        if dist[x] == UNREACHED {
            dist[x] = 0;
            queue.push(x);
        }
    }

    let mut head = 0;
    while let Some(&x) = queue.get(head) {
        head += 1;
        let next = dist[x] + 1;
        // A step flips the walk's parity: state (u, p) reaches (w, 1 - p).
        let flipped = (x & 1) ^ 1;
        for &w in graph.neighbors(NodeId::new(x / 2)) {
            let y = 2 * w.index() + flipped;
            if dist[y] == UNREACHED {
                dist[y] = next;
                queue.push(y);
            }
        }
    }

    ParityDistances { dist }
}

/// The odd girth: the length of the shortest odd cycle, or `None` if the
/// graph is bipartite.
///
/// Computed from parity distances: the shortest odd closed walk through
/// `v` has length `odd(v)` when flooding from `v` alone, and the shortest
/// odd closed walk overall is a cycle.
///
/// # Examples
///
/// ```
/// use af_graph::{algo, generators};
///
/// assert_eq!(algo::odd_girth(&generators::cycle(7)), Some(7));
/// assert_eq!(algo::odd_girth(&generators::petersen()), Some(5));
/// assert_eq!(algo::odd_girth(&generators::cycle(8)), None);
/// ```
#[must_use]
pub fn odd_girth(graph: &Graph) -> Option<u32> {
    let mut best: Option<u32> = None;
    for v in graph.nodes() {
        let pd = parity_distances(graph, [v]);
        if let Some(o) = pd.odd(v) {
            best = Some(best.map_or(o, |b| b.min(o)));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{self, Parity};
    use crate::generators;

    /// The parity BFS must agree with the materialized double cover.
    #[test]
    fn matches_double_cover_distances() {
        for g in [
            generators::cycle(3),
            generators::cycle(6),
            generators::petersen(),
            generators::complete(5),
            generators::grid(3, 4),
            generators::barbell(4),
            generators::path(7),
        ] {
            let dc = algo::double_cover(&g);
            for s in g.nodes() {
                let pd = parity_distances(&g, [s]);
                let bfs = algo::bfs(dc.graph(), dc.lift(s, Parity::Even));
                for v in g.nodes() {
                    assert_eq!(
                        pd.even(v),
                        bfs.distance(dc.lift(v, Parity::Even)),
                        "{g} {s}->{v} even"
                    );
                    assert_eq!(
                        pd.odd(v),
                        bfs.distance(dc.lift(v, Parity::Odd)),
                        "{g} {s}->{v} odd"
                    );
                }
            }
        }
    }

    #[test]
    fn bipartite_graphs_have_one_parity_per_node() {
        let g = generators::grid(3, 5);
        let pd = parity_distances(&g, [0.into()]);
        let bfs = algo::bfs(&g, 0.into());
        for v in g.nodes() {
            let d = bfs.distance(v).unwrap();
            let (e, o) = pd.both(v);
            if d.is_multiple_of(2) {
                assert_eq!(e, Some(d));
                assert_eq!(o, None);
            } else {
                assert_eq!(o, Some(d));
                assert_eq!(e, None);
            }
        }
    }

    #[test]
    fn non_bipartite_graphs_reach_both_parities() {
        let g = generators::petersen();
        let pd = parity_distances(&g, [0.into()]);
        for v in g.nodes() {
            let (e, o) = pd.both(v);
            assert!(e.is_some() && o.is_some(), "node {v}");
            assert_ne!(e.unwrap() % 2, 1);
            assert_ne!(o.unwrap() % 2, 0);
        }
    }

    #[test]
    fn max_finite_is_flooding_termination_time() {
        // C5 from any node: termination = 5.
        let g = generators::cycle(5);
        let pd = parity_distances(&g, [0.into()]);
        assert_eq!(pd.max_finite(), Some(5));
        // C6: termination = 3.
        let g = generators::cycle(6);
        let pd = parity_distances(&g, [0.into()]);
        assert_eq!(pd.max_finite(), Some(3));
    }

    #[test]
    fn multi_source_parity() {
        let g = generators::path(4);
        let pd = parity_distances(&g, [0.into(), 3.into()]);
        // node 1: odd walk length 1 (from 0), even walk length 2 (from 3).
        assert_eq!(pd.both(1.into()), (Some(2), Some(1)));
        assert_eq!(pd.max_finite(), Some(3));
    }

    #[test]
    fn odd_girth_values() {
        assert_eq!(odd_girth(&generators::cycle(3)), Some(3));
        assert_eq!(odd_girth(&generators::cycle(9)), Some(9));
        assert_eq!(odd_girth(&generators::complete(6)), Some(3));
        assert_eq!(odd_girth(&generators::petersen()), Some(5));
        assert_eq!(odd_girth(&generators::grid(4, 4)), None);
        assert_eq!(odd_girth(&generators::path(9)), None);
        // Wheel with even rim: shortest odd cycle is a hub triangle.
        assert_eq!(odd_girth(&generators::wheel(8)), Some(3));
    }

    #[test]
    fn isolated_nodes_are_unreachable() {
        let g = crate::Graph::from_edges(3, [(0, 1)]).unwrap();
        let pd = parity_distances(&g, [0.into()]);
        assert_eq!(pd.both(2.into()), (None, None));
    }
}
