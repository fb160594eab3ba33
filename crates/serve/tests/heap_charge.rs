//! The registry's byte budget charges real heap bytes, not an estimate.
//!
//! This file is its own test binary with a counting `#[global_allocator]`
//! that tracks live heap bytes **per thread** (a `const`-initialised
//! thread-local `Cell`), so tests running in parallel never see each
//! other's allocations. Two claims are pinned against that counter:
//!
//! 1. [`Graph::heap_bytes`] equals the bytes a built graph holds; and
//! 2. after a `Gen` and after a `Mutate`, the `registry_bytes` gauge
//!    equals the heap the registry entry's graph and departed ids hold,
//!    measured by dropping the entry and counting what comes back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use af_analysis::GraphSpec;
use af_graph::dynamic::GraphDelta;
use af_graph::{generators, Graph};
use af_serve::registry::GraphEntry;
use af_serve::{Registry, Request, Response};

/// System allocator wrapper that keeps a per-thread live-byte balance.
struct CountingAlloc;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn track(delta: i64) {
    // `try_with`: the allocator may run while this thread's locals are
    // being torn down; those bytes belong to no test.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap bytes currently live on this thread.
fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Bytes released by dropping `value`.
fn freed_by_drop<T>(value: T) -> u64 {
    let before = live();
    drop(value);
    u64::try_from(before - live()).expect("a drop never allocates net bytes")
}

/// A graph constructor, run inside the measured window.
type Build = fn() -> Graph;

#[test]
fn heap_bytes_is_the_measured_heap_of_a_built_graph() {
    let cases: [(&str, Build); 5] = [
        ("empty", || Graph::empty(7)),
        ("petersen", generators::petersen),
        ("grid", || generators::grid(30, 40)),
        ("sparse", || generators::sparse_connected(3000, 4500, 42)),
        ("parsed", || {
            af_graph::io::from_text(&af_graph::io::to_edge_list(&generators::cycle(99)))
                .expect("round-trips")
        }),
    ];
    for (name, build) in cases {
        let before = live();
        let graph = build();
        let held = u64::try_from(live() - before).expect("a graph holds heap");
        assert_eq!(graph.heap_bytes() as u64, held, "{name}: built");
        assert_eq!(freed_by_drop(graph), held, "{name}: dropped");
    }
}

/// The heap one registry entry holds besides its fixed-size parts (the
/// entry's own `Arc` allocation and its snapshot's `Arc` allocation),
/// measured by evicting the entry and then dropping the last handle.
fn measured_entry_heap(registry: &Registry, name: &str) -> u64 {
    let entry: Arc<GraphEntry> = registry.entry(name).expect("registered");
    let resp = registry.execute(&Request::Evict { graph: name.into() });
    assert!(matches!(resp, Response::Evicted { .. }), "{resp:?}");
    let arc_inner = |payload: usize| (2 * std::mem::size_of::<usize>() + payload) as u64;
    freed_by_drop(entry)
        - arc_inner(std::mem::size_of::<GraphEntry>())
        - arc_inner(std::mem::size_of::<Graph>())
}

#[test]
fn registry_gauge_equals_the_measured_heap_after_gen_and_mutate() {
    let spec = GraphSpec::SparseConnected {
        n: 4000,
        extra: 4000,
        seed: 7,
    };

    // After a Gen.
    let registry = Registry::new();
    let resp = registry.execute(&Request::Gen {
        name: "g".into(),
        spec: spec.clone(),
    });
    assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
    let charged = registry.metrics().registry_bytes();
    assert_eq!(measured_entry_heap(&registry, "g"), charged);

    // After a Mutate that retires nodes, joins one, and flips edges: the
    // charge now covers the rebuilt CSR plus the departed-id list.
    let registry = Registry::new();
    registry.execute(&Request::Gen {
        name: "g".into(),
        spec,
    });
    let resp = registry.execute(&Request::Mutate {
        graph: "g".into(),
        deltas: vec![
            GraphDelta {
                leave_nodes: vec![1, 2, 3],
                insert_edges: vec![(10, 3999), (11, 3998)],
                ..GraphDelta::default()
            },
            GraphDelta {
                delete_edges: vec![(10, 3999)],
                join_nodes: vec![vec![0, 5, 9]],
                ..GraphDelta::default()
            },
        ],
    });
    let Response::Mutated { edits_applied, .. } = resp else {
        panic!("expected Mutated, got {resp:?}");
    };
    assert!(edits_applied > 0);
    let charged = registry.metrics().registry_bytes();
    let graph_bytes = registry.entry("g").unwrap().snapshot().heap_bytes() as u64;
    assert!(charged > graph_bytes, "the departed ids are charged too");
    assert_eq!(measured_entry_heap(&registry, "g"), charged);
}
