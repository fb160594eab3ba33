//! Property-based tests for the paper's theorems on seeded random graphs.
//!
//! These are the empirical analogues of the paper's ∀-statements:
//! Theorem 3.1 (termination), Lemma 2.1 / Corollary 2.2 (bipartite
//! exactness), Theorem 3.3 (non-bipartite bound), plus the double-cover
//! consequences (receive-twice-max, parity, message complexity) and the
//! equivalence of the two independent simulator implementations.

use af_core::{roundsets, theory, AmnesiacFlooding, AmnesiacFloodingProtocol, FastFlooding};
use af_engine::SyncEngine;
use af_graph::{algo, generators, Graph, NodeId};
use proptest::prelude::*;

prop_compose! {
    /// Connected random graph, n in [1, 48], density controlled.
    fn connected_graph()(
        (n, extra, seed) in (1usize..48, 0usize..80, any::<u64>())
    ) -> Graph {
        generators::sparse_connected(n, extra, seed)
    }
}

prop_compose! {
    /// Connected random graph plus a valid source node.
    fn graph_and_source()(g in connected_graph(), raw in any::<u32>()) -> (Graph, NodeId) {
        let s = NodeId::new(raw as usize % g.node_count());
        (g, s)
    }
}

/// Connected bipartite graphs: a mix of the bipartite families.
fn bipartite_graph() -> BoxedStrategy<Graph> {
    prop_oneof![
        (1usize..40).prop_map(generators::path),
        (2usize..20).prop_map(|k| generators::cycle(2 * k)),
        ((1usize..6), (1usize..6)).prop_map(|(r, c)| generators::grid(r, c)),
        (1u32..5).prop_map(generators::hypercube),
        ((1usize..8), (1usize..8)).prop_map(|(a, b)| generators::complete_bipartite(a, b)),
        ((1usize..30), any::<u64>()).prop_map(|(n, seed)| generators::random_tree(n, seed)),
        ((1usize..8), (0usize..4)).prop_map(|(s, l)| generators::caterpillar(s, l)),
    ]
    .boxed()
}

prop_compose! {
    /// Connected random graph plus 1..4 sources.
    fn graph_and_sources()(
        g in connected_graph(),
        raws in proptest::collection::vec(any::<u32>(), 1..4)
    ) -> (Graph, Vec<NodeId>) {
        let sources: Vec<NodeId> = raws
            .iter()
            .map(|&r| NodeId::new(r as usize % g.node_count()))
            .collect();
        (g, sources)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Theorem 3.1: AF terminates on every finite connected graph — and
    /// within the Theorem 3.3 / Corollary 2.2 bound.
    #[test]
    fn terminates_within_paper_bound((g, s) in graph_and_source()) {
        let run = AmnesiacFlooding::single_source(&g, s).run();
        prop_assert!(run.terminated(), "Theorem 3.1 violated on {g}");
        let bound = theory::upper_bound(&g).unwrap();
        prop_assert!(
            run.termination_round().unwrap() <= bound,
            "termination {} exceeds bound {bound} on {g}",
            run.termination_round().unwrap()
        );
    }

    /// Lemma 2.1: on bipartite graphs termination is exactly the source
    /// eccentricity and every node receives exactly once, at its distance.
    #[test]
    fn bipartite_floods_are_parallel_bfs(g in bipartite_graph(), raw in any::<u32>()) {
        let s = NodeId::new(raw as usize % g.node_count());
        let run = AmnesiacFlooding::single_source(&g, s).run();
        let bfs = algo::bfs(&g, s);
        prop_assert_eq!(run.termination_round(), bfs.eccentricity());
        for v in g.nodes() {
            if v == s {
                prop_assert!(run.receive_rounds(v).is_empty());
            } else {
                prop_assert_eq!(run.receive_rounds(v), &[bfs.distance(v).unwrap()][..]);
            }
        }
    }

    /// Theorem 3.3 strictness: non-bipartite termination strictly exceeds
    /// the *source eccentricity* (every node's second parity still has to
    /// be reached), stays within 2D + 1, and from a maximum-eccentricity
    /// source strictly exceeds the diameter — the paper's "strictly larger
    /// than D".
    #[test]
    fn non_bipartite_termination_is_slow((g, s) in graph_and_source()) {
        prop_assume!(!algo::is_bipartite(&g));
        let d = algo::diameter(&g).unwrap();
        let ecc = algo::eccentricity(&g, s).unwrap();
        let run = AmnesiacFlooding::single_source(&g, s).run();
        let t = run.termination_round().unwrap();
        prop_assert!(t > ecc, "{g}: T = {t} <= e(s) = {ecc}");
        prop_assert!(t <= 2 * d + 1, "{g}: T = {t} > 2D+1 = {}", 2 * d + 1);

        // Worst-case source: eccentricity = diameter forces T > D.
        let worst = g
            .nodes()
            .max_by_key(|&v| algo::eccentricity(&g, v).unwrap())
            .unwrap();
        let t_worst = AmnesiacFlooding::single_source(&g, worst)
            .run()
            .termination_round()
            .unwrap();
        prop_assert!(t_worst > d, "{g}: worst-case T = {t_worst} <= D = {d}");
    }

    /// Double-cover oracle equals the simulation, receive round by receive
    /// round — single source.
    #[test]
    fn oracle_matches_simulation((g, s) in graph_and_source()) {
        let run = AmnesiacFlooding::single_source(&g, s).run();
        let pred = theory::predict(&g, [s]);
        prop_assert_eq!(run.termination_round(), Some(pred.termination_round()));
        prop_assert_eq!(run.total_messages(), pred.total_messages());
        for v in g.nodes() {
            prop_assert_eq!(run.receive_rounds(v), pred.receive_rounds(v), "node {}", v);
        }
    }

    /// The two independent oracle implementations (materialized double
    /// cover vs parity BFS) agree exactly, and so do their scalar slices
    /// ([`theory::PredictIndex::summary`] vs [`theory::predict_summary`]),
    /// on source sets that may be empty or repeat a node.
    #[test]
    fn oracle_implementations_agree((g, sources) in graph_and_sources(), len in 0usize..6) {
        let set: Vec<NodeId> = sources.iter().cycle().take(len).copied().collect();
        let a = theory::predict(&g, set.iter().copied());
        let b = theory::predict_via_parity(&g, set.iter().copied());
        let referee = theory::PredictIndex::new(&g).summary(set.iter().copied());
        prop_assert_eq!(
            (referee.termination_round, referee.total_messages, referee.informed_count),
            (a.termination_round(), a.total_messages(), a.informed_count())
        );
        prop_assert_eq!(theory::predict_summary(&g, set.iter().copied()), referee);
        prop_assert_eq!(a, b);
    }

    /// Double-cover oracle equals the simulation — multi-source.
    #[test]
    fn oracle_matches_simulation_multi_source((g, sources) in graph_and_sources()) {
        let run = AmnesiacFlooding::multi_source(&g, sources.iter().copied()).run();
        prop_assert!(run.terminated());
        let pred = theory::predict(&g, sources.iter().copied());
        prop_assert_eq!(run.termination_round(), Some(pred.termination_round()));
        prop_assert_eq!(run.total_messages(), pred.total_messages());
        for v in g.nodes() {
            prop_assert_eq!(run.receive_rounds(v), pred.receive_rounds(v), "node {}", v);
        }
    }

    /// The bitset simulator and the generic engine agree exactly.
    #[test]
    fn fast_and_engine_agree((g, sources) in graph_and_sources()) {
        let mut fast = FastFlooding::new(&g, sources.iter().copied());
        let mut engine = SyncEngine::new(&g, AmnesiacFloodingProtocol, sources.iter().copied());
        loop {
            let fast_flight = fast.in_flight();
            prop_assert_eq!(fast_flight.as_slice(), engine.in_flight());
            let (a, b) = (fast.step(), engine.step());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
            prop_assert!(fast.round() < 10_000, "runaway flood on {}", g);
        }
        prop_assert_eq!(fast.total_messages(), engine.total_messages());
        for v in g.nodes() {
            prop_assert_eq!(fast.receipts(v), engine.receipts(v));
        }
    }

    /// Every node receives at most twice; two receipts have opposite
    /// parity (the engine behind Theorem 3.1).
    #[test]
    fn receive_twice_max_with_opposite_parity((g, sources) in graph_and_sources()) {
        let run = AmnesiacFlooding::multi_source(&g, sources.iter().copied()).run();
        for v in g.nodes() {
            let rounds = run.receive_rounds(v);
            prop_assert!(rounds.len() <= 2, "{g}: node {v} received {} times", rounds.len());
            if let [a, b] = *rounds {
                prop_assert_ne!(a % 2, b % 2);
            }
        }
    }

    /// The proof's Re (even-duration recurrence sequences) is empty on
    /// every terminating run — Theorem 3.1's core invariant.
    #[test]
    fn even_duration_round_set_sequences_never_occur((g, sources) in graph_and_sources()) {
        let run = AmnesiacFlooding::multi_source(&g, sources.iter().copied()).run();
        let analysis = roundsets::analyze(&run);
        prop_assert!(analysis.even_sequences_empty());
        prop_assert!(analysis.max_occurrences() <= 2);
    }

    /// Message complexity: exactly m on bipartite graphs, exactly 2m on
    /// non-bipartite graphs (single source, connected).
    #[test]
    fn message_complexity_is_exact((g, s) in graph_and_source()) {
        let run = AmnesiacFlooding::single_source(&g, s).run();
        let m = g.edge_count() as u64;
        let expected = if algo::is_bipartite(&g) { m } else { 2 * m };
        prop_assert_eq!(run.total_messages(), expected, "{}", g);
    }

    /// Every node of a connected graph is informed (flooding is a
    /// broadcast), except that the flood needs at least one edge.
    #[test]
    fn flooding_is_a_broadcast((g, s) in graph_and_source()) {
        prop_assume!(g.node_count() >= 2);
        let run = AmnesiacFlooding::single_source(&g, s).run();
        // Every node other than the source receives; the source itself
        // receives iff some odd closed walk returns the message (it still
        // *participated*, as the origin).
        for v in g.nodes() {
            if v != s {
                prop_assert!(!run.receive_rounds(v).is_empty(), "{g}: node {v} missed");
            }
        }
    }

    /// The flooding-based bipartiteness detector agrees with the graph
    /// algorithm on every connected instance.
    #[test]
    fn detection_agrees_with_graph_algorithm((g, s) in graph_and_source()) {
        let verdict = af_core::detect::detect_bipartiteness(&g, s);
        prop_assert_eq!(verdict.is_bipartite(), algo::is_bipartite(&g));
        let timing = af_core::detect::detect_by_timing(&g, s).unwrap();
        prop_assert_eq!(timing.is_bipartite(), algo::is_bipartite(&g));
    }

    /// Determinism: the same (graph, sources) always produces the same run.
    #[test]
    fn runs_are_deterministic((g, sources) in graph_and_sources()) {
        let a = AmnesiacFlooding::multi_source(&g, sources.iter().copied()).run();
        let b = AmnesiacFlooding::multi_source(&g, sources.iter().copied()).run();
        prop_assert_eq!(a, b);
    }

    /// The multi-source window: `e(S) ≤ T ≤ e(S) + D + 1` on every
    /// connected instance, with `T = e(S)` exactly iff the
    /// monochromatic-bipartite lemma applies, and the last *first* receipt
    /// landing at exactly `e(S)`.
    #[test]
    fn multi_source_window_is_exact((g, sources) in graph_and_sources()) {
        let run = AmnesiacFlooding::multi_source(&g, sources.iter().copied()).run();
        let t = run.termination_round().unwrap();
        let ecc = theory::set_eccentricity(&g, sources.iter().copied()).unwrap();
        let (lo, hi) = theory::termination_bounds(&g, sources.iter().copied()).unwrap();
        prop_assert!(lo <= t && t <= hi, "{}: T = {} outside [{}, {}]", g, t, lo, hi);
        match theory::bipartite_exact_set(&g, sources.iter().copied()) {
            Some(exact) => prop_assert_eq!(t, exact, "{}: monochromatic-bipartite", g),
            None if g.node_count() > 1 => prop_assert!(t > ecc, "{}: strictness", g),
            None => {}
        }
        // First receipts of non-sources are multi-source BFS distances
        // (sources themselves only hear the message back through their
        // second parity, which can land far later than e(S)).
        let bfs = algo::multi_bfs(&g, sources.iter().copied());
        for v in g.nodes() {
            if sources.contains(&v) {
                continue;
            }
            prop_assert_eq!(
                run.receive_rounds(v).first().copied(),
                bfs.distance(v),
                "{}: first receipt of {}",
                g,
                v
            );
        }
    }
}
