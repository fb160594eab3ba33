//! Regression test for the batched flood runner's allocation contract:
//! after a warm-up pass, [`FloodBatch`] must execute further floods —
//! *including floods whose source-set sizes differ from each other and
//! from the warm-up's* — without touching the global allocator. This is
//! the property that makes per-flood cost the intrinsic `O(messages)`
//! work in the throughput benchmark.
//!
//! The test installs a counting `#[global_allocator]` (this file is its
//! own test binary, so the hook is invisible to every other suite) and
//! asserts the allocation counter does not move across the second pass.
//! The counter is per thread, so tests running in parallel under the
//! default harness never count each other's allocations.

use amnesiac_flooding::core::obs::{NdjsonTraceWriter, NoopProbe, SharedProbe};
use amnesiac_flooding::core::{FloodBatch, FloodEngine, FloodStats};
use amnesiac_flooding::graph::{generators, NodeId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

mod common;
use common::source_set_for;

/// System allocator wrapper counting every `alloc`/`realloc` call made
/// on the current thread.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator may run while this thread's locals are
    // being torn down; those calls belong to no test.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made on this thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_flood_batch_is_allocation_free_across_mixed_set_sizes() {
    let g = generators::sparse_connected(600, 900, 42);

    // Mixed source-set sizes off the shared ladder: sqrt(n)-sized sets
    // (selector 3) interleaved with singletons, triples, and pairs.
    let source_sets: Vec<Vec<NodeId>> = [3usize, 0, 2, 3, 1, 0, 3]
        .into_iter()
        .enumerate()
        .map(|(i, selector)| source_set_for(g.node_count(), selector, 42 ^ i as u64))
        .collect();

    let mut batch = FloodBatch::new(&g);

    // Pass 1 (warm-up): grows every internal buffer to its high-water
    // mark and records the expected per-flood results.
    let mut expected = Vec::with_capacity(source_sets.len());
    for set in &source_sets {
        expected.push(batch.run_from(set.iter().copied()));
    }

    // Pass 2: identical floods, zero allocator traffic allowed.
    let before = allocations();
    let mut mismatches = 0usize;
    for (set, want) in source_sets.iter().zip(&expected) {
        let got = batch.run_from(set.iter().copied());
        if got != *want {
            mismatches += 1;
        }
    }
    let delta = allocations() - before;

    assert_eq!(mismatches, 0, "reused batch diverged from warm-up results");
    assert_eq!(
        delta, 0,
        "FloodBatch::reset allocated {delta} times across mixed source-set sizes"
    );

    // Sanity: the floods did real work and the counter is live.
    assert!(expected.iter().all(FloodStats::terminated));
    assert!(expected.iter().all(|s| s.total_messages() > 0));
    let probe: Vec<u8> = vec![1, 2, 3];
    assert!(allocations() > before, "{probe:?}");
}

/// PR-8 observability contract: attaching a probe must not change the
/// allocation story. A warm flood with the no-op probe — the "probe
/// slot occupied but nobody listening" configuration — stays
/// allocation-free.
#[test]
fn warm_flood_with_noop_probe_is_allocation_free() {
    let g = generators::sparse_connected(600, 900, 42);
    let source_sets: Vec<Vec<NodeId>> = [3usize, 0, 2, 1]
        .into_iter()
        .enumerate()
        .map(|(i, selector)| source_set_for(g.node_count(), selector, 7 ^ i as u64))
        .collect();

    let mut batch = FloodBatch::new(&g);
    let probe: SharedProbe = Rc::new(RefCell::new(NoopProbe));
    batch.set_probe(Some(probe));

    // Pass 1 (warm-up) with the probe attached throughout.
    let mut expected = Vec::with_capacity(source_sets.len());
    for set in &source_sets {
        expected.push(batch.run_from(set.iter().copied()));
    }

    // Pass 2: zero allocator traffic allowed.
    let before = allocations();
    for (set, want) in source_sets.iter().zip(&expected) {
        let got = batch.run_from(set.iter().copied());
        assert_eq!(&got, want, "probed batch diverged from warm-up");
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "no-op probe allocated {delta} times when warm");
}

/// The full tracing configuration: a warm flood writing complete NDJSON
/// traces into a pre-opened `Vec<u8>` sink allocates nothing — the sink
/// and the writer's line buffer reach their high-water marks during
/// warm-up and are reused byte-for-byte afterwards.
#[test]
fn warm_traced_flood_is_allocation_free_and_deterministic() {
    let g = generators::sparse_connected(600, 900, 42);
    let source_sets: Vec<Vec<NodeId>> = [3usize, 0, 2, 1]
        .into_iter()
        .enumerate()
        .map(|(i, selector)| source_set_for(g.node_count(), selector, 9 ^ i as u64))
        .collect();

    let mut batch = FloodBatch::new(&g);
    let writer = Rc::new(RefCell::new(NdjsonTraceWriter::new(Vec::new())));
    batch.set_probe(Some(writer.clone()));

    // Pass 1 (warm-up): floods trace into the growing sink.
    let mut expected = Vec::with_capacity(source_sets.len());
    for set in &source_sets {
        expected.push(batch.run_from(set.iter().copied()));
    }
    let warm_trace = {
        let mut w = writer.borrow_mut();
        let bytes = w.sink_mut().clone();
        // Keep the sink's capacity, drop its contents: the "pre-opened
        // sink" a long-lived tracing session reuses.
        w.sink_mut().clear();
        bytes
    };
    assert!(!warm_trace.is_empty(), "warm-up floods produced traces");

    // Pass 2: identical floods, identical trace bytes, zero allocations.
    let before = allocations();
    for (set, want) in source_sets.iter().zip(&expected) {
        let got = batch.run_from(set.iter().copied());
        assert_eq!(&got, want, "traced batch diverged from warm-up");
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "warm traced flood allocated {delta} times");
    assert_eq!(
        writer.borrow_mut().sink_mut().as_slice(),
        warm_trace.as_slice(),
        "the second pass traced byte-identically"
    );
}

#[test]
fn warm_bitlane_batch_is_allocation_free_across_mixed_set_sizes() {
    let g = generators::sparse_connected(600, 900, 42);

    // 70 mixed-size sets: more than one 64-lane word, so the second pass
    // exercises a full chunk AND the 6-lane tail through the chunked
    // bit-parallel runner.
    let source_sets: Vec<Vec<NodeId>> = (0..70)
        .map(|i| source_set_for(g.node_count(), [3usize, 0, 2, 1][i % 4], 42 ^ i as u64))
        .collect();

    let mut batch = FloodBatch::with_engine(&g, FloodEngine::BitLane);

    // Pass 1 (warm-up): grows every internal buffer — lane words, active
    // lists, receipt scratch — to its high-water mark.
    let mut expected = Vec::with_capacity(source_sets.len());
    batch.run_many_into(&source_sets, &mut expected);

    // Pass 2: identical floods into a pre-sized output vector, zero
    // allocator traffic allowed.
    let mut got = Vec::with_capacity(source_sets.len());
    let before = allocations();
    batch.run_many_into(&source_sets, &mut got);
    let delta = allocations() - before;

    assert_eq!(got, expected, "reused bitlane batch diverged from warm-up");
    assert_eq!(
        delta, 0,
        "bitlane FloodBatch allocated {delta} times across mixed source-set sizes"
    );

    // Sanity: real floods, and the bitlane engine agrees with the
    // frontier engine on every one of them.
    assert!(expected.iter().all(FloodStats::terminated));
    assert!(expected.iter().all(|s| s.total_messages() > 0));
    let mut frontier = FloodBatch::new(&g);
    let reference: Vec<_> = frontier.run_many(&source_sets);
    assert_eq!(expected, reference);
}
