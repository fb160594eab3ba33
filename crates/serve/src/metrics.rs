//! Daemon instrumentation: per-verb request counts and latency
//! histograms, connection and byte counters, and registry footprint
//! gauges — all built on the lock-free primitives in
//! [`af_core::obs::metrics`], so recording on the request path is a
//! handful of relaxed atomics and **never allocates**.
//!
//! One [`ServeMetrics`] lives inside the [`crate::Registry`] for the
//! daemon's lifetime. [`Registry::execute`](crate::Registry::execute)
//! times every request and records it under its verb; the transports add
//! connection and byte counts. A [`Request::Metrics`] turns the whole
//! block into a serializable [`MetricsReport`]
//! (PROTOCOL.md, "Metrics"), and the same report is flushed to stderr
//! as a final snapshot when the daemon drains on `Shutdown`.

use std::time::Instant;

use af_core::obs::metrics::{Counter, Gauge, Histogram};

use crate::protocol::{MetricsReport, Request, VerbCount, VerbStat};

/// Every wire verb, as an instrumentation row index — plus the
/// [`Verb::Rejected`] row for lines answered without reaching a verb
/// handler, so `requests_total` always equals the sum of the rows (the
/// balance the fault-injection battery pins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `Load` — register a graph from text.
    Load,
    /// `Gen` — register a graph from a spec.
    Gen,
    /// `Predict` — exact-time oracle queries.
    Predict,
    /// `Flood` — one flood, one source set.
    Flood,
    /// `Batch` — a full `FloodRequest`.
    Batch,
    /// `Bench` — measure a `FloodRequest` through the benchmark harness.
    Bench,
    /// `Mutate` — topology edits.
    Mutate,
    /// `Evict` — drop a graph from the registry.
    Evict,
    /// `Stats` — registry counters.
    Stats,
    /// `Metrics` — this module's report.
    Metrics,
    /// `Shutdown` — drain and stop.
    Shutdown,
    /// Any line answered without reaching a verb handler: unparsable,
    /// oversized, or refused during the shutdown drain.
    Rejected,
}

/// How many verbs there are (the instrumentation array length).
const VERBS: usize = 12;

impl Verb {
    /// Every verb, in wire-documentation order.
    pub const ALL: [Verb; VERBS] = [
        Verb::Load,
        Verb::Gen,
        Verb::Predict,
        Verb::Flood,
        Verb::Batch,
        Verb::Bench,
        Verb::Mutate,
        Verb::Evict,
        Verb::Stats,
        Verb::Metrics,
        Verb::Shutdown,
        Verb::Rejected,
    ];

    /// The verb's wire name — exactly the JSON tag on the request line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verb::Load => "Load",
            Verb::Gen => "Gen",
            Verb::Predict => "Predict",
            Verb::Flood => "Flood",
            Verb::Batch => "Batch",
            Verb::Bench => "Bench",
            Verb::Mutate => "Mutate",
            Verb::Evict => "Evict",
            Verb::Stats => "Stats",
            Verb::Metrics => "Metrics",
            Verb::Shutdown => "Shutdown",
            Verb::Rejected => "Rejected",
        }
    }

    /// Which verb a parsed request is.
    #[must_use]
    pub fn of(request: &Request) -> Verb {
        match request {
            Request::Load { .. } => Verb::Load,
            Request::Gen { .. } => Verb::Gen,
            Request::Predict { .. } => Verb::Predict,
            Request::Flood { .. } => Verb::Flood,
            Request::Batch { .. } => Verb::Batch,
            Request::Bench { .. } => Verb::Bench,
            Request::Mutate { .. } => Verb::Mutate,
            Request::Evict { .. } => Verb::Evict,
            Request::Stats => Verb::Stats,
            Request::Metrics => Verb::Metrics,
            Request::Shutdown => Verb::Shutdown,
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The daemon's metric block: fixed atomics allocated once, recorded
/// from every connection thread without locks.
#[derive(Debug)]
pub struct ServeMetrics {
    /// When the daemon (registry) came up; uptime is measured from here.
    started: Instant,
    /// Requests answered, per verb.
    counts: [Counter; VERBS],
    /// Request latency in microseconds, per verb.
    latency_us: [Histogram; VERBS],
    /// Transport sessions opened (TCP connections; a stdio session
    /// counts as one).
    connections: Counter,
    /// Request-line bytes consumed, newlines included.
    bytes_read: Counter,
    /// Response-line bytes written, newlines included.
    bytes_written: Counter,
    /// Heap bytes of all registered graphs — the byte-budget charge,
    /// maintained *eagerly* by the registry (charged on register,
    /// recharged on mutate, released on evict), never recomputed at
    /// report time.
    registry_bytes: Gauge,
    /// The registry byte budget; 0 = unbounded.
    registry_budget: Gauge,
    /// Graphs evicted (LRU pressure and explicit `Evict` both count).
    evictions: Counter,
    /// Worker threads in the shared pool.
    pool_workers: Gauge,
    /// Enveloped requests currently queued or executing on the pool.
    pool_depth: Gauge,
    /// Enveloped requests ever dispatched to the pool.
    pool_jobs: Counter,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

impl ServeMetrics {
    /// A fresh block; uptime starts now.
    #[must_use]
    pub fn new() -> Self {
        ServeMetrics {
            started: Instant::now(),
            counts: [const { Counter::new() }; VERBS],
            latency_us: std::array::from_fn(|_| Histogram::new()),
            connections: Counter::new(),
            bytes_read: Counter::new(),
            bytes_written: Counter::new(),
            registry_bytes: Gauge::new(),
            registry_budget: Gauge::new(),
            evictions: Counter::new(),
            pool_workers: Gauge::new(),
            pool_depth: Gauge::new(),
            pool_jobs: Counter::new(),
        }
    }

    /// Whole seconds since the block was created.
    #[must_use]
    pub fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Records one answered request: its verb and its latency.
    pub fn observe(&self, verb: Verb, micros: u64) {
        self.counts[verb.index()].inc();
        self.latency_us[verb.index()].record(micros);
    }

    /// Requests answered under one verb so far.
    #[must_use]
    pub fn verb_count(&self, verb: Verb) -> u64 {
        self.counts[verb.index()].get()
    }

    /// Counts one opened transport session.
    pub fn connection_opened(&self) {
        self.connections.inc();
    }

    /// Counts request bytes consumed off a transport.
    pub fn add_bytes_read(&self, n: u64) {
        self.bytes_read.add(n);
    }

    /// Counts response bytes written to a transport.
    pub fn add_bytes_written(&self, n: u64) {
        self.bytes_written.add(n);
    }

    /// Charges `bytes` of graph footprint against the registry gauge —
    /// called when a graph is registered or a mutation recharges it.
    pub fn charge_registry(&self, bytes: u64) {
        self.registry_bytes.add(bytes);
    }

    /// Releases `bytes` of footprint — called on evict and on the old
    /// snapshot of a mutate. Saturates at zero.
    pub fn uncharge_registry(&self, bytes: u64) {
        self.registry_bytes.sub(bytes);
    }

    /// Heap bytes currently charged.
    #[must_use]
    pub fn registry_bytes(&self) -> u64 {
        self.registry_bytes.get()
    }

    /// Records the configured byte budget (0 = unbounded) so reports
    /// carry it.
    pub fn set_registry_budget(&self, budget: u64) {
        self.registry_budget.set(budget);
    }

    /// Counts one graph evicted from the registry.
    pub fn eviction(&self) {
        self.evictions.inc();
    }

    /// Graphs evicted so far.
    #[must_use]
    pub fn evictions_total(&self) -> u64 {
        self.evictions.get()
    }

    /// Records the pool size once at transport start, so reports can
    /// tell a pool-less daemon (0) from a busy one.
    pub fn set_pool_workers(&self, workers: u64) {
        self.pool_workers.set(workers);
    }

    /// Counts one enveloped request handed to the pool (depth rises).
    pub fn job_enqueued(&self) {
        self.pool_jobs.inc();
        self.pool_depth.add(1);
    }

    /// Counts one pool job finished (depth falls).
    pub fn job_finished(&self) {
        self.pool_depth.sub(1);
    }

    /// Enveloped requests currently queued or executing on the pool.
    #[must_use]
    pub fn pool_depth(&self) -> u64 {
        self.pool_depth.get()
    }

    /// Per-verb counts in [`Verb::ALL`] order — the light rows
    /// [`crate::protocol::ServerStats`] carries.
    #[must_use]
    pub fn verb_counts(&self) -> Vec<VerbCount> {
        Verb::ALL
            .iter()
            .map(|&verb| VerbCount {
                verb: verb.name().to_owned(),
                count: self.verb_count(verb),
            })
            .collect()
    }

    /// The full point-in-time report. The registry passes in its own
    /// request/error totals (they predate this module and stay where
    /// `Stats` has always read them).
    #[must_use]
    pub fn report(&self, requests_total: u64, errors_total: u64) -> MetricsReport {
        let verbs = Verb::ALL
            .iter()
            .map(|&verb| {
                let snap = self.latency_us[verb.index()].snapshot();
                VerbStat {
                    verb: verb.name().to_owned(),
                    count: self.verb_count(verb),
                    p50_us: snap.p50,
                    p90_us: snap.p90,
                    p99_us: snap.p99,
                    max_us: snap.max,
                }
            })
            .collect();
        MetricsReport {
            uptime_secs: self.uptime_secs(),
            requests_total,
            errors_total,
            connections: self.connections.get(),
            bytes_read: self.bytes_read.get(),
            bytes_written: self.bytes_written.get(),
            registry_bytes: self.registry_bytes.get(),
            registry_budget_bytes: self.registry_budget.get(),
            evictions_total: self.evictions.get(),
            pool_workers: self.pool_workers.get(),
            pool_depth: self.pool_depth.get(),
            pool_jobs_total: self.pool_jobs.get(),
            verbs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_classify_and_name_consistently() {
        for verb in Verb::ALL {
            assert_eq!(Verb::ALL[verb.index()], verb);
        }
        assert_eq!(Verb::of(&Request::Stats), Verb::Stats);
        assert_eq!(Verb::of(&Request::Metrics), Verb::Metrics);
        assert_eq!(Verb::of(&Request::Shutdown), Verb::Shutdown);
        assert_eq!(
            Verb::of(&Request::Load {
                name: "g".into(),
                graph: String::new(),
            }),
            Verb::Load
        );
    }

    #[test]
    fn observations_land_in_the_right_rows() {
        let metrics = ServeMetrics::new();
        metrics.observe(Verb::Predict, 120);
        metrics.observe(Verb::Predict, 80);
        metrics.observe(Verb::Flood, 3000);
        assert_eq!(metrics.verb_count(Verb::Predict), 2);
        assert_eq!(metrics.verb_count(Verb::Flood), 1);
        assert_eq!(metrics.verb_count(Verb::Stats), 0);

        let report = metrics.report(3, 0);
        assert_eq!(report.requests_total, 3);
        let predict = report.verbs.iter().find(|v| v.verb == "Predict").unwrap();
        assert_eq!(predict.count, 2);
        assert!(predict.max_us >= 120);
        let flood = report.verbs.iter().find(|v| v.verb == "Flood").unwrap();
        assert!(flood.p99_us >= 3000, "log bucket upper bound");
    }

    #[test]
    fn transport_counters_accumulate() {
        let metrics = ServeMetrics::new();
        metrics.connection_opened();
        metrics.connection_opened();
        metrics.add_bytes_read(100);
        metrics.add_bytes_written(40);
        metrics.add_bytes_written(2);
        metrics.charge_registry(4096);
        metrics.charge_registry(1024);
        metrics.uncharge_registry(1024);
        let report = metrics.report(0, 0);
        assert_eq!(report.connections, 2);
        assert_eq!(report.bytes_read, 100);
        assert_eq!(report.bytes_written, 42);
        assert_eq!(report.registry_bytes, 4096);
    }

    #[test]
    fn pool_and_eviction_instrumentation_balances() {
        let metrics = ServeMetrics::new();
        metrics.set_pool_workers(4);
        metrics.set_registry_budget(1 << 20);
        metrics.job_enqueued();
        metrics.job_enqueued();
        metrics.job_enqueued();
        assert_eq!(metrics.pool_depth(), 3);
        metrics.job_finished();
        metrics.eviction();
        let report = metrics.report(0, 0);
        assert_eq!(report.pool_workers, 4);
        assert_eq!(report.registry_budget_bytes, 1 << 20);
        assert_eq!(report.pool_jobs_total, 3);
        assert_eq!(report.pool_depth, 2);
        assert_eq!(report.evictions_total, 1);
    }
}
