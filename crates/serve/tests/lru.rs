//! Property battery for the byte-budget LRU registry: under *any*
//! interleaving of Load/Gen/Flood/Predict/Evict against a budgeted
//! registry,
//!
//! 1. the resident-bytes gauge never exceeds the budget after any op
//!    (eviction is part of the op that overflows, not a lazy sweep);
//! 2. a registered-then-evicted name answers the stable `not_found`
//!    code, while a never-registered name answers `unknown_graph`;
//! 3. evicting everything returns the gauge to exactly zero — every
//!    charge taken is a charge released, so the accounting cannot
//!    drift over a long-lived daemon's life; and
//! 4. re-registering an evicted name answers predictions
//!    bit-identically to a fresh registry.
//!
//! The budget is sized in real heap bytes ([`Graph::heap_bytes`]), the
//! unit the registry charges; `tests/heap_charge.rs` pins that charge to
//! a counting allocator.
//!
//! The ops run through `Registry::execute`, the same entry point the
//! wire uses, so these properties are wire properties.

use std::collections::BTreeSet;

use af_analysis::GraphSpec;
use af_core::api::code;
use af_graph::Graph;
use af_serve::{Registry, Request, Response};
use proptest::prelude::*;

/// The fixed name pool: `g0..g5`, each with its own generated shape, so
/// an op `(verb, name)` is two small integers.
const NAME_COUNT: usize = 6;

fn spec(i: usize) -> GraphSpec {
    GraphSpec::Cycle { n: 8 + 6 * i }
}

fn name(i: usize) -> String {
    format!("g{i}")
}

/// `Load` always carries this tiny triangle, so the text path and the
/// generator path mix in one interleaving.
const TRIANGLE: &str = "n 3\n0 1\n1 2\n2 0\n";

/// A budget that fits about three of the largest graphs: big enough
/// that every single admission succeeds, small enough that
/// interleavings actually evict.
fn budget() -> u64 {
    let largest: Graph = spec(NAME_COUNT - 1).build();
    3 * largest.heap_bytes() as u64
}

/// Names currently registered, straight from the public stats walk.
fn present(registry: &Registry) -> BTreeSet<String> {
    let Response::Stats(stats) = registry.execute(&Request::Stats) else {
        panic!("stats");
    };
    stats.graphs.into_iter().map(|g| g.name).collect()
}

fn decode(verb: usize, target: usize) -> Request {
    let graph = name(target);
    match verb {
        0 => Request::Gen {
            name: graph,
            spec: spec(target),
        },
        1 => Request::Load {
            name: graph,
            graph: TRIANGLE.into(),
        },
        2 => Request::Flood {
            graph,
            sources: vec![0],
            engine: String::new(),
            max_rounds: 0,
        },
        3 => Request::Predict {
            graph,
            source_sets: vec![vec![0]],
        },
        4 => Request::Evict { graph },
        _ => unreachable!("verb range is 0..=4"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn budget_holds_under_any_interleaving(
        ops in proptest::collection::vec((0..=4usize, 0..NAME_COUNT), 0..60)
    ) {
        let budget = budget();
        let registry = Registry::with_budget(budget);
        let mut ever: BTreeSet<String> = BTreeSet::new();

        for (verb, target) in ops {
            let request = decode(verb, target);
            let graph = name(target);
            let was_present = present(&registry).contains(&graph);
            let was_ever = ever.contains(&graph);
            let response = registry.execute(&request);

            // Property 2: the right answer shape for each (op, state).
            match (verb, was_present) {
                (0 | 1, _) => {
                    prop_assert!(
                        matches!(response, Response::Registered { .. }),
                        "single graphs always fit the budget: {response:?}"
                    );
                    ever.insert(graph.clone());
                }
                (2, true) => prop_assert!(
                    matches!(response, Response::Flooded(_)),
                    "flood on present graph"
                ),
                (3, true) => prop_assert!(
                    matches!(response, Response::Predicted { .. }),
                    "predict on present graph"
                ),
                (4, true) => prop_assert!(
                    matches!(response, Response::Evicted { .. }),
                    "evict on present graph"
                ),
                (_, false) => {
                    let Response::Error(err) = response else {
                        panic!("expected an error on absent '{graph}'");
                    };
                    let want = if was_ever { code::NOT_FOUND } else { code::UNKNOWN_GRAPH };
                    prop_assert_eq!(&err.code, want, "absent '{}' (ever={})", graph, was_ever);
                }
                _ => unreachable!(),
            }

            // Property 1: never over budget, not even transiently
            // observable between ops.
            let resident = registry.metrics().registry_bytes();
            prop_assert!(
                resident <= budget,
                "resident {resident} exceeds budget {budget} after verb {verb} on {graph}"
            );
        }

        // Property 3: evicting the survivors returns the gauge to zero —
        // and each `bytes_freed` matches the recomputed footprint of the
        // snapshot it releases.
        for graph in present(&registry) {
            let before = registry.metrics().registry_bytes();
            let response = registry.execute(&Request::Evict { graph: graph.clone() });
            let Response::Evicted { bytes_freed, .. } = response else {
                panic!("evicting present '{graph}' failed: {response:?}");
            };
            prop_assert_eq!(registry.metrics().registry_bytes(), before - bytes_freed);
        }
        prop_assert_eq!(registry.metrics().registry_bytes(), 0, "all charges released");

        // Property 4: a name that lived and died re-registers cleanly
        // and answers predictions exactly like a fresh unbounded
        // registry.
        if let Some(graph) = ever.first().cloned() {
            let probe = Request::Predict {
                graph: graph.clone(),
                source_sets: vec![vec![0], vec![1, 2]],
            };
            let gen = Request::Gen {
                name: graph.clone(),
                spec: GraphSpec::Petersen,
            };
            let reference = Registry::new();
            reference.execute(&gen);
            registry.execute(&gen);
            prop_assert_eq!(
                serde_json::to_string(&registry.execute(&probe)).unwrap(),
                serde_json::to_string(&reference.execute(&probe)).unwrap(),
                "re-registered graph diverged for '{}'", graph
            );
        }
    }
}
