//! The core [`Graph`] type: a compact, immutable, undirected simple graph.
//!
//! Graphs are built through [`GraphBuilder`] (or the convenience
//! [`Graph::from_edges`]) and are immutable afterwards, which lets the
//! representation be a cache-friendly CSR (compressed sparse row) layout
//! with sorted neighbour lists and stable edge/arc identifiers.

use crate::error::GraphError;
use crate::id::{ArcId, Direction, EdgeId, NodeId};
use std::collections::BTreeSet;

/// A finite, undirected, simple graph (no self-loops, no parallel edges).
///
/// The node set is always `0..n`. Isolated nodes are allowed (the flooding
/// theory only ever runs on connected graphs, but the substrate does not
/// force that; use [`crate::algo::is_connected`] to check).
///
/// # Representation
///
/// Adjacency is stored CSR-style: `offsets[v]..offsets[v+1]` indexes into a
/// flat `neighbors` array sorted per node, with a parallel `incident_edges`
/// array giving the [`EdgeId`] of each incident edge. Edge `e`'s canonical
/// endpoints `(u, v)` with `u < v` are stored in `endpoints[e]`, sorted
/// lexicographically so edge identifiers are deterministic for a given edge
/// set regardless of insertion order.
///
/// # Examples
///
/// ```
/// use af_graph::Graph;
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 3);
/// assert_eq!(g.degree(1.into()), 2);
/// assert!(g.contains_edge(2.into(), 1.into()));
/// # Ok::<(), af_graph::GraphError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Graph {
    offsets: Vec<u32>,
    neighbors: Vec<NodeId>,
    incident_edges: Vec<EdgeId>,
    endpoints: Vec<(NodeId, NodeId)>,
}

impl Graph {
    /// Creates a graph with `n` nodes and no edges.
    ///
    /// # Examples
    ///
    /// ```
    /// use af_graph::Graph;
    /// let g = Graph::empty(5);
    /// assert_eq!(g.node_count(), 5);
    /// assert_eq!(g.edge_count(), 0);
    /// ```
    #[must_use]
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
            incident_edges: Vec::new(),
            endpoints: Vec::new(),
        }
    }

    /// Builds a graph with `n` nodes from an iterator of endpoint pairs.
    ///
    /// Duplicate edges (in either orientation) are collapsed.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is `>= n` and
    /// [`GraphError::SelfLoop`] if both endpoints of a pair coincide.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut builder = GraphBuilder::new(n);
        for (u, v) in edges {
            builder.add_edge(u, v)?;
        }
        Ok(builder.build())
    }

    /// Number of nodes `n`.
    #[inline]
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Number of directed arcs, always `2m`.
    #[inline]
    #[must_use]
    pub fn arc_count(&self) -> usize {
        2 * self.edge_count()
    }

    /// Returns `true` if the graph has no nodes.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// Iterates over all node identifiers `0..n`.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Iterates over all edge identifiers `0..m`.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = EdgeId> + Clone {
        (0..self.edge_count()).map(EdgeId::new)
    }

    /// Iterates over all arc identifiers `0..2m`.
    pub fn arcs(&self) -> impl ExactSizeIterator<Item = ArcId> + Clone {
        (0..self.arc_count()).map(ArcId::from_index)
    }

    /// The sorted neighbour list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    #[must_use]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Iterates over `(neighbor, edge)` pairs incident to `v`, in neighbour
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn incident(&self, v: NodeId) -> impl ExactSizeIterator<Item = (NodeId, EdgeId)> + '_ {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        self.neighbors[lo..hi]
            .iter()
            .copied()
            .zip(self.incident_edges[lo..hi].iter().copied())
    }

    /// Iterates over `(neighbor, arc)` pairs for `v`, in neighbour order,
    /// where the arc points *from* `v` *to* the neighbour.
    ///
    /// Arc identifiers are derived directly from the CSR layout, so hot
    /// loops over a node's out-arcs need no per-neighbour binary search
    /// (unlike repeated [`Graph::arc_between`] calls).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    ///
    /// # Examples
    ///
    /// ```
    /// use af_graph::Graph;
    ///
    /// let g = Graph::from_edges(3, [(0, 1), (1, 2)])?;
    /// for (w, a) in g.incident_arcs(1.into()) {
    ///     assert_eq!(g.arc_tail(a), 1.into());
    ///     assert_eq!(g.arc_head(a), w);
    /// }
    /// # Ok::<(), af_graph::GraphError>(())
    /// ```
    pub fn incident_arcs(&self, v: NodeId) -> impl ExactSizeIterator<Item = (NodeId, ArcId)> + '_ {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        self.neighbors[lo..hi]
            .iter()
            .copied()
            .zip(self.incident_edges[lo..hi].iter().copied())
            .map(move |(w, e)| {
                let dir = if v < w {
                    Direction::Forward
                } else {
                    Direction::Reverse
                };
                (w, ArcId::new(e, dir))
            })
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    #[must_use]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// Maximum degree, or 0 for an empty graph.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Minimum degree, or 0 for an empty graph.
    #[must_use]
    pub fn min_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// The canonical `(min, max)` endpoints of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    #[must_use]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.endpoints[e.index()]
    }

    /// Returns `true` if `u` and `v` are adjacent.
    ///
    /// Runs in `O(log deg(u))`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Returns the identifier of the edge between `u` and `v`, if present.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let lo = self.offsets[u.index()] as usize;
        let hi = self.offsets[u.index() + 1] as usize;
        let pos = self.neighbors[lo..hi].binary_search(&v).ok()?;
        Some(self.incident_edges[lo + pos])
    }

    /// Returns the arc *from* `tail` *to* `head`, if the edge exists.
    ///
    /// # Panics
    ///
    /// Panics if `tail` is out of range.
    #[must_use]
    pub fn arc_between(&self, tail: NodeId, head: NodeId) -> Option<ArcId> {
        let e = self.edge_between(tail, head)?;
        let dir = if tail < head {
            Direction::Forward
        } else {
            Direction::Reverse
        };
        Some(ArcId::new(e, dir))
    }

    /// Returns the `(tail, head)` pair of arc `a` (the arc points tail → head).
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    #[inline]
    #[must_use]
    pub fn arc_endpoints(&self, a: ArcId) -> (NodeId, NodeId) {
        let (u, v) = self.endpoints(a.edge());
        match a.direction() {
            Direction::Forward => (u, v),
            Direction::Reverse => (v, u),
        }
    }

    /// The node an arc points at.
    #[inline]
    #[must_use]
    pub fn arc_head(&self, a: ArcId) -> NodeId {
        self.arc_endpoints(a).1
    }

    /// The node an arc originates from.
    #[inline]
    #[must_use]
    pub fn arc_tail(&self, a: ArcId) -> NodeId {
        self.arc_endpoints(a).0
    }

    /// Iterates over the canonical endpoint pairs of all edges, in edge-id
    /// order.
    pub fn edge_list(&self) -> impl ExactSizeIterator<Item = (NodeId, NodeId)> + '_ {
        self.endpoints.iter().copied()
    }

    /// Heap bytes this graph owns: the capacities of its four CSR arrays,
    /// which is exactly what the allocator handed out for them (the
    /// `Graph` value itself, four `Vec` headers, is not counted).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * core::mem::size_of::<T>()
        }
        bytes(&self.offsets)
            + bytes(&self.neighbors)
            + bytes(&self.incident_edges)
            + bytes(&self.endpoints)
    }

    /// Sum of all degrees divided by node count, or 0.0 for an empty graph.
    #[must_use]
    pub fn average_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / self.node_count() as f64
        }
    }
}

impl core::fmt::Debug for Graph {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.node_count())
            .field("m", &self.edge_count())
            .field("edges", &self.endpoints)
            .finish()
    }
}

impl core::fmt::Display for Graph {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Graph(n={}, m={})", self.node_count(), self.edge_count())
    }
}

impl Default for Graph {
    fn default() -> Self {
        Graph::empty(0)
    }
}

#[cfg(feature = "serde")]
mod serde_impl {
    use super::*;
    use serde::de::Error as _;
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    #[derive(Serialize, Deserialize)]
    struct GraphRepr {
        n: usize,
        edges: Vec<(usize, usize)>,
    }

    impl Serialize for Graph {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            let repr = GraphRepr {
                n: self.node_count(),
                edges: self
                    .edge_list()
                    .map(|(u, v)| (u.index(), v.index()))
                    .collect(),
            };
            repr.serialize(serializer)
        }
    }

    impl<'de> Deserialize<'de> for Graph {
        fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
            let repr = GraphRepr::deserialize(deserializer)?;
            Graph::from_edges(repr.n, repr.edges).map_err(D::Error::custom)
        }
    }
}

/// Incremental builder for [`Graph`] ([C-BUILDER]).
///
/// The builder validates endpoints eagerly and collapses duplicate edges, so
/// the built graph is always a valid simple graph.
///
/// # Examples
///
/// ```
/// use af_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// assert!(b.add_edge(0, 1)?);  // newly inserted
/// assert!(!b.add_edge(1, 0)?); // duplicate (other orientation)
/// b.add_edge(1, 2)?;
/// let g = b.build();
/// assert_eq!(g.edge_count(), 2);
/// # Ok::<(), af_graph::GraphError>(())
/// ```
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: BTreeSet<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: BTreeSet::new(),
        }
    }

    /// Number of nodes the built graph will have.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of distinct edges added so far.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds the undirected edge `{u, v}`. Returns `Ok(true)` if the edge was
    /// newly inserted and `Ok(false)` if it was already present.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is `>= n`, or
    /// [`GraphError::SelfLoop`] if `u == v`.
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<bool, GraphError> {
        if u >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
        }
        if v >= self.n {
            return Err(GraphError::NodeOutOfRange { node: v, n: self.n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        // af-audit: allow(no-lossy-id-cast): u, v < n, checked just above, and
        // GraphBuilder::new rejects n > u32::MAX
        let key = (u.min(v) as u32, u.max(v) as u32);
        Ok(self.edges.insert(key))
    }

    /// Adds every edge from an iterator, stopping at the first error.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`GraphBuilder::add_edge`].
    pub fn add_edges<I>(&mut self, edges: I) -> Result<&mut Self, GraphError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        for (u, v) in edges {
            self.add_edge(u, v)?;
        }
        Ok(self)
    }

    /// Returns `true` if the edge `{u, v}` has been added.
    #[must_use]
    pub fn contains_edge(&self, u: usize, v: usize) -> bool {
        // af-audit: allow(no-lossy-id-cast): out-of-range endpoints simply miss,
        // since no stored key can exceed n
        let key = (u.min(v) as u32, u.max(v) as u32);
        self.edges.contains(&key)
    }

    /// Finalizes the builder into an immutable [`Graph`].
    ///
    /// Does not consume the builder, so variations of a graph can be built
    /// incrementally.
    #[must_use]
    pub fn build(&self) -> Graph {
        let n = self.n;
        let m = self.edges.len();

        // The BTreeSet iterates in lexicographic (min, max) order, which
        // fixes edge ids deterministically.
        let endpoints: Vec<(NodeId, NodeId)> = self
            .edges
            .iter()
            .map(|&(u, v)| (NodeId::new(u as usize), NodeId::new(v as usize)))
            .collect();

        let mut deg = vec![0u32; n];
        for &(u, v) in &endpoints {
            deg[u.index()] += 1;
            deg[v.index()] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + deg[i];
        }

        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut neighbors = vec![NodeId::default(); 2 * m];
        let mut incident_edges = vec![EdgeId::default(); 2 * m];
        for (e, &(u, v)) in endpoints.iter().enumerate() {
            let cu = cursor[u.index()] as usize;
            neighbors[cu] = v;
            incident_edges[cu] = EdgeId::new(e);
            cursor[u.index()] += 1;
            let cv = cursor[v.index()] as usize;
            neighbors[cv] = u;
            incident_edges[cv] = EdgeId::new(e);
            cursor[v.index()] += 1;
        }

        // Neighbour lists must be sorted for binary-search lookups. Because
        // endpoint pairs were visited in lexicographic order, each node's
        // list is already sorted... for the *first* endpoints, but a node can
        // appear as both min and max endpoint in interleaved order, so sort
        // defensively (cheap: lists are short and nearly sorted).
        for v in 0..n {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            let mut pairs: Vec<(NodeId, EdgeId)> = neighbors[lo..hi]
                .iter()
                .copied()
                .zip(incident_edges[lo..hi].iter().copied())
                .collect();
            pairs.sort_unstable();
            for (i, (nb, ie)) in pairs.into_iter().enumerate() {
                neighbors[lo + i] = nb;
                incident_edges[lo + i] = ie;
            }
        }

        Graph {
            offsets,
            neighbors,
            incident_edges,
            endpoints,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        // 0 - 1 - 2
        //     |  /
        //     3
        Graph::from_edges(4, [(0, 1), (1, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn counts() {
        let g = sample();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.arc_count(), 8);
        assert!(!g.is_empty());
        assert!(Graph::empty(0).is_empty());
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = sample();
        assert_eq!(g.neighbors(1.into()), &[0.into(), 2.into(), 3.into()]);
        assert_eq!(g.neighbors(0.into()), &[1.into()]);
        assert_eq!(g.neighbors(3.into()), &[1.into(), 2.into()]);
    }

    #[test]
    fn degrees() {
        let g = sample();
        assert_eq!(g.degree(0.into()), 1);
        assert_eq!(g.degree(1.into()), 3);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.min_degree(), 1);
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn edge_ids_are_lexicographic() {
        let g = sample();
        let pairs: Vec<_> = g.edge_list().collect();
        assert_eq!(
            pairs,
            vec![
                (0.into(), 1.into()),
                (1.into(), 2.into()),
                (1.into(), 3.into()),
                (2.into(), 3.into()),
            ]
        );
    }

    #[test]
    fn edge_ids_do_not_depend_on_insertion_order() {
        let a = Graph::from_edges(4, [(0, 1), (1, 2), (1, 3), (2, 3)]).unwrap();
        let b = Graph::from_edges(4, [(3, 2), (3, 1), (2, 1), (1, 0)]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn contains_and_lookup() {
        let g = sample();
        assert!(g.contains_edge(0.into(), 1.into()));
        assert!(g.contains_edge(1.into(), 0.into()));
        assert!(!g.contains_edge(0.into(), 3.into()));
        assert_eq!(g.edge_between(2.into(), 3.into()), Some(EdgeId::new(3)));
        assert_eq!(g.edge_between(0.into(), 2.into()), None);
    }

    #[test]
    fn arcs_point_the_right_way() {
        let g = sample();
        let a = g.arc_between(3.into(), 1.into()).unwrap();
        assert_eq!(g.arc_tail(a), 3.into());
        assert_eq!(g.arc_head(a), 1.into());
        assert_eq!(a.direction(), Direction::Reverse);
        let b = a.reversed();
        assert_eq!(g.arc_tail(b), 1.into());
        assert_eq!(g.arc_head(b), 3.into());
        assert_eq!(g.arc_between(1.into(), 3.into()), Some(b));
    }

    #[test]
    fn incident_arcs_agree_with_arc_between() {
        let g = sample();
        for v in g.nodes() {
            let pairs: Vec<(NodeId, ArcId)> = g.incident_arcs(v).collect();
            assert_eq!(pairs.len(), g.degree(v));
            for (w, a) in pairs {
                assert_eq!(Some(a), g.arc_between(v, w));
                assert_eq!(g.arc_tail(a), v);
                assert_eq!(g.arc_head(a), w);
            }
        }
    }

    #[test]
    fn incident_pairs_match_neighbors() {
        let g = sample();
        for v in g.nodes() {
            let via_incident: Vec<NodeId> = g.incident(v).map(|(w, _)| w).collect();
            assert_eq!(via_incident.as_slice(), g.neighbors(v));
            for (w, e) in g.incident(v) {
                let (a, b) = g.endpoints(e);
                assert!((a, b) == (v.min(w), v.max(w)));
            }
        }
    }

    #[test]
    fn builder_rejects_bad_edges() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(
            b.add_edge(0, 3),
            Err(GraphError::NodeOutOfRange { node: 3, n: 3 })
        );
        assert_eq!(
            b.add_edge(5, 0),
            Err(GraphError::NodeOutOfRange { node: 5, n: 3 })
        );
        assert_eq!(b.add_edge(1, 1), Err(GraphError::SelfLoop { node: 1 }));
        assert_eq!(b.edge_count(), 0);
    }

    #[test]
    fn builder_collapses_duplicates() {
        let mut b = GraphBuilder::new(2);
        assert!(b.add_edge(0, 1).unwrap());
        assert!(!b.add_edge(0, 1).unwrap());
        assert!(!b.add_edge(1, 0).unwrap());
        assert!(b.contains_edge(1, 0));
        assert_eq!(b.build().edge_count(), 1);
    }

    #[test]
    fn builder_is_reusable() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        let g1 = b.build();
        b.add_edge(1, 2).unwrap();
        let g2 = b.build();
        assert_eq!(g1.edge_count(), 1);
        assert_eq!(g2.edge_count(), 2);
    }

    #[test]
    fn empty_graph_behaves() {
        let g = Graph::empty(3);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.neighbors(0.into()), &[]);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(Graph::default().node_count(), 0);
    }

    #[test]
    fn debug_and_display_are_nonempty() {
        let g = sample();
        assert!(format!("{g:?}").contains("Graph"));
        assert_eq!(g.to_string(), "Graph(n=4, m=4)");
    }

    #[test]
    fn graph_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Graph>();
    }

    #[cfg(feature = "serde")]
    #[test]
    fn serde_roundtrip() {
        let g = sample();
        let json = serde_json::to_string(&g).unwrap();
        let back: Graph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }

    #[cfg(feature = "serde")]
    #[test]
    fn serde_rejects_invalid() {
        let bad = r#"{"n": 2, "edges": [[0, 5]]}"#;
        assert!(serde_json::from_str::<Graph>(bad).is_err());
        let loop_edge = r#"{"n": 2, "edges": [[1, 1]]}"#;
        assert!(serde_json::from_str::<Graph>(loop_edge).is_err());
    }
}
