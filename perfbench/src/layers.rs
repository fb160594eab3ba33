//! The traced run's per-layer metrics. Each one times calls into a
//! layer's public functions from this file, on the workload's own inputs,
//! so the program itself carries no probes.
//!
//! [`LAYER_METRICS`] is the one list of these metrics: its names, units
//! and directions are what `BENCHMARK.json`'s `per_layer` holds (the
//! self-check compares them), and each row names the end-to-end metric
//! and workload it should move.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use af_core::api::FloodSummary;
use af_core::obs::{FloodProbe, RoundNote, RoundRecord};
use af_core::theory::{self, PredictIndex};
use af_core::{FloodBatch, FloodEngine};
use af_graph::{io, NodeId};
use af_serve::{Request, Server};

use crate::plan::Plan;
use crate::run::{ClientLog, Metric};
use crate::stats;
use crate::verify::Verdict;

/// One per-layer metric and the end-to-end figure it should move.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Metric name (`layer.quantity`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// What it measures, and the end-to-end metric and workload it moves.
    pub moves: &'static str,
}

const fn row(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
    }
}

/// Every per-layer metric, in output order.
pub const LAYER_METRICS: &[LayerMetric] = &[
    row("graph.parse_ms", "ms", "lower",
        "io::from_text over every Load text -> setup_s, flood-mix and predict-large"),
    row("graph.heap_mb", "MiB", "lower",
        "heap held by the parsed graphs (counting allocator) -> peak_rss_mb, predict-large"),
    row("protocol.parse_us", "us", "lower",
        "deserializing a timed request line, mean -> latency_p50_ms, small-rw"),
    row("protocol.serialize_us", "us", "lower",
        "serializing a timed response line, mean -> latency_p50_ms, small-rw"),
    row("protocol.load_parse_ms", "ms", "lower",
        "deserializing the largest Load line -> setup_s"),
    row("protocol.bytes_in", "B", "lower",
        "request line bytes, mean over timed requests -> latency_p50_ms, small-rw"),
    row("protocol.bytes_out", "B", "lower",
        "response line bytes, mean over timed requests -> latency_p50_ms, small-rw"),
    row("engine.construct_ms", "ms", "lower",
        "FloodBatch::with_engine, summed over the flood classes -> throughput_rps, flood-mix"),
    row("engine.rounds", "count", "lower",
        "rounds executed, summed over the flood classes (exact)"),
    row("engine.frontier_round_ms", "ms", "lower",
        "frontier-engine round, mean -> msgs_per_s, flood-mix"),
    row("engine.sparse_walk_ms", "ms", "lower",
        "bitlane SparseWalk round, mean -> msgs_per_s, flood-mix"),
    row("engine.dense_sweep_ms", "ms", "lower",
        "bitlane DenseSweep round, mean -> msgs_per_s, flood-mix"),
    row("engine.churn_round_ms", "ms", "lower",
        "dynamic-engine round with a churn boundary, mean -> throughput_rps, flood-mix"),
    row("engine.sharded_run_ms", "ms", "lower",
        "whole sharded run_many, summed (rounds replay after the join) -> throughput_rps, flood-mix"),
    row("engine.crossing_arcs", "count", "lower",
        "arcs crossing a shard boundary, summed (exact)"),
    row("api.overhead_ms", "ms", "lower",
        "FloodRequest::execute minus construct and run_many, summed -> latency_p50_ms, flood-mix"),
    row("predict.index_build_ms", "ms", "lower",
        "PredictIndex::new over every graph -> setup_s predict-large, latency_p99_ms small-rw"),
    row("predict.index_mb", "MiB", "lower",
        "heap held by those indexes -> peak_rss_mb, predict-large"),
    row("predict.query_ms", "ms", "lower",
        "warm PredictIndex::summary, mean -> latency_p50_ms and throughput_rps, predict-large"),
    row("predict.parity_query_ms", "ms", "lower",
        "theory::predict_via_parity on the same sets, mean (registry-diet baseline)"),
    row("registry.execute_us", "us", "lower",
        "Registry::execute in process on the timed requests, mean -> latency_p50_ms, small-rw and predict-large"),
    row("registry.heap_mb", "MiB", "lower",
        "heap a registry holds after the workload's set-up -> peak_rss_mb, predict-large"),
    row("registry.charged_mb", "MiB", "lower",
        "the registry_bytes gauge after the same set-up -> peak_rss_mb, predict-large"),
    row("registry.charge_ratio", "ratio", "lower",
        "registry.heap_mb / registry.charged_mb -> peak_rss_mb, predict-large"),
    row("registry.predict_parallel_speedup", "x", "higher",
        "Predict throughput, two threads on one graph / one thread (no loop shares a graph between clients, so no end-to-end metric waits on this mutex)"),
    row("server.transport_ms", "ms", "lower",
        "client round trip over TCP minus in-process execute, mean -> latency_p50_ms and throughput_rps, small-rw"),
    row("server.queue_wait_ms", "ms", "lower",
        "enveloped minus bare round trip, one in flight, mean -> latency_p50_ms, small-rw"),
    row("metrics.quantile_over_max", "count", "lower",
        "daemon latency rows whose p50/p90/p99 exceeds max_us (a finding)"),
    row("trace.latency_p50_ms", "ms", "lower",
        "latency_p50_ms of the traced loop; minus the untraced one = tracing overhead"),
    row("trace.throughput_rps", "req/s", "higher",
        "throughput_rps of the traced loop; against the untraced one = tracing overhead"),
];

/// Figures of the traced closed loop that `run` measures itself.
#[derive(Debug, Clone, Copy)]
pub struct LoopFigures {
    /// Client p50 latency, ms.
    pub latency_p50_ms: f64,
    /// Requests per second.
    pub throughput_rps: f64,
    /// Daemon latency rows with a quantile above their max.
    pub quantile_over_max: u64,
}

/// The traced run's result.
#[derive(Debug)]
pub struct Probe {
    /// One value per [`LAYER_METRICS`] row, in that order.
    pub metrics: Vec<Metric>,
    /// Disagreements the probes found between two layers.
    pub problems: Vec<String>,
}

/// Measures every per-layer metric on `plan`'s inputs.
pub fn probe(
    plan: &Plan,
    logs: &[ClientLog],
    verdict: &Verdict,
    figures: LoopFigures,
) -> Result<Probe, String> {
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut problems = Vec::new();

    wire(logs, verdict, &mut values);
    graph_layer(plan, &mut values)?;
    engine_layer(plan, &mut values, &mut problems)?;
    theory_layer(plan, &mut values, &mut problems);
    registry_layer(plan, &mut values)?;
    values.insert(
        "metrics.quantile_over_max",
        figures.quantile_over_max as f64,
    );
    values.insert("trace.latency_p50_ms", figures.latency_p50_ms);
    values.insert("trace.throughput_rps", figures.throughput_rps);

    let metrics = LAYER_METRICS
        .iter()
        .map(|m| {
            values
                .get(m.name)
                .map(|&value| Metric {
                    name: m.name,
                    value,
                    unit: m.unit,
                })
                .ok_or_else(|| format!("no value for {}", m.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Probe { metrics, problems })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn mib(bytes: isize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Protocol, registry and server figures of the timed requests, from the
/// client's exchanges and their in-process replays.
fn wire(logs: &[ClientLog], verdict: &Verdict, values: &mut BTreeMap<&'static str, f64>) {
    let mut parse = Vec::new();
    let mut serialize = Vec::new();
    let mut execute = Vec::new();
    let mut bytes_in = Vec::new();
    let mut bytes_out = Vec::new();
    let mut transport = Vec::new();
    for (log, replays) in logs.iter().zip(&verdict.timed) {
        for (sent, replayed) in log.timed.iter().zip(replays) {
            parse.push(us(replayed.parse));
            serialize.push(us(replayed.serialize));
            execute.push(us(replayed.execute));
            bytes_in.push((sent.line.text.len() + 1) as f64);
            bytes_out.push((sent.exchange.response.len() + 1) as f64);
            transport.push(ms(sent.exchange.latency) - ms(replayed.execute));
        }
    }
    values.insert("protocol.parse_us", stats::mean(&parse));
    values.insert("protocol.serialize_us", stats::mean(&serialize));
    values.insert("protocol.bytes_in", stats::mean(&bytes_in));
    values.insert("protocol.bytes_out", stats::mean(&bytes_out));
    values.insert("registry.execute_us", stats::mean(&execute));
    values.insert("server.transport_ms", stats::mean(&transport));
    // Probe lines: one warm-up, then (bare, enveloped) pairs.
    let waits: Vec<f64> = logs
        .first()
        .map(|log| {
            log.probes
                .get(1..)
                .unwrap_or_default()
                .chunks_exact(2)
                .map(|pair| ms(pair[1].exchange.latency) - ms(pair[0].exchange.latency))
                .collect()
        })
        .unwrap_or_default();
    values.insert("server.queue_wait_ms", stats::mean(&waits));
}

/// Graph parsing and the protocol's largest line.
fn graph_layer(plan: &Plan, values: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let mut parse = Duration::ZERO;
    let mut heap = 0isize;
    for input in &plan.graphs {
        let before = crate::live_bytes();
        let started = Instant::now();
        let graph = io::from_text(&input.text).map_err(|e| format!("{}: {e}", input.name))?;
        parse += started.elapsed();
        heap += crate::live_bytes() - before;
        drop(graph);
    }
    values.insert("graph.parse_ms", ms(parse));
    values.insert("graph.heap_mb", mib(heap));

    let largest = plan
        .graphs
        .iter()
        .max_by_key(|g| g.load.text.len())
        .ok_or("the workload loads no graph")?;
    let started = Instant::now();
    let request: Request =
        serde_json::from_str(&largest.load.text).map_err(|e| format!("Load line: {e}"))?;
    values.insert("protocol.load_parse_ms", ms(started.elapsed()));
    drop(request);
    Ok(())
}

/// A probe that timestamps each round and keeps its note.
#[derive(Debug, Default)]
struct RoundTimer {
    started: Option<Instant>,
    rounds: Vec<(RoundNote, Duration)>,
}

impl FloodProbe for RoundTimer {
    fn round_started(&mut self, _round: u32) {
        self.started = Some(Instant::now());
    }

    fn round_finished(&mut self, record: &RoundRecord<'_>) {
        if let Some(started) = self.started.take() {
            self.rounds.push((record.note, started.elapsed()));
        }
    }
}

/// Engine construction, rounds by kind, and the request API's overhead,
/// over the workload's flood classes.
fn engine_layer(
    plan: &Plan,
    values: &mut BTreeMap<&'static str, f64>,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let mut construct = Duration::ZERO;
    let mut overhead_ms = 0.0;
    let mut rounds = 0u64;
    let mut crossing = 0u64;
    let mut sharded = Duration::ZERO;
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for class in &plan.probe_floods {
        let graph = &plan
            .graphs
            .iter()
            .find(|g| g.name == class.graph)
            .ok_or_else(|| format!("no graph {}", class.graph))?
            .graph;
        let engine = class.request.parse_engine().map_err(|e| e.to_string())?;

        let started = Instant::now();
        let answer = class.request.execute(graph).map_err(|e| e.to_string())?;
        let api = started.elapsed();

        let sets: Vec<Vec<NodeId>> = class
            .request
            .source_sets
            .iter()
            .map(|set| set.iter().copied().map(NodeId::new).collect())
            .collect();
        let started = Instant::now();
        let mut batch = FloodBatch::with_engine(graph, engine);
        if class.request.max_rounds > 0 {
            batch = batch.with_max_rounds(class.request.max_rounds);
        }
        let built = started.elapsed();
        let timer = Rc::new(RefCell::new(RoundTimer::default()));
        batch.set_probe(Some(timer.clone()));
        let started = Instant::now();
        let stats = batch.run_many(&sets);
        let run = started.elapsed();

        construct += built;
        overhead_ms += ms(api) - ms(built) - ms(run);
        let summaries: Vec<FloodSummary> = stats.iter().map(FloodSummary::from_stats).collect();
        if summaries != answer.floods {
            problems.push(format!(
                "{} on {}: FloodBatch and FloodRequest::execute disagree",
                class.request.engine, class.graph
            ));
        }
        rounds += summaries.iter().map(|s| u64::from(s.rounds)).sum::<u64>();
        if matches!(engine, FloodEngine::Sharded { .. }) {
            sharded += run;
        }
        for &(note, took) in &timer.borrow().rounds {
            let kind = match note {
                RoundNote::None if engine == FloodEngine::Frontier => "frontier",
                RoundNote::SparseWalk => "sparse",
                RoundNote::DenseSweep => "dense",
                RoundNote::Churn { .. } => "churn",
                RoundNote::ShardExchange { crossing: c } => {
                    crossing += c;
                    continue;
                }
                RoundNote::None => continue,
            };
            by_kind.entry(kind).or_default().push(ms(took));
        }
    }
    let mean_of = |kind: &str| by_kind.get(kind).map_or(0.0, |v| stats::mean(v));
    values.insert("engine.construct_ms", ms(construct));
    values.insert("engine.rounds", rounds as f64);
    values.insert("engine.frontier_round_ms", mean_of("frontier"));
    values.insert("engine.sparse_walk_ms", mean_of("sparse"));
    values.insert("engine.dense_sweep_ms", mean_of("dense"));
    values.insert("engine.churn_round_ms", mean_of("churn"));
    values.insert("engine.sharded_run_ms", ms(sharded));
    values.insert("engine.crossing_arcs", crossing as f64);
    values.insert("api.overhead_ms", overhead_ms);
    Ok(())
}

/// Double-cover index builds and warm queries against the parity BFS,
/// which must agree with them.
fn theory_layer(plan: &Plan, values: &mut BTreeMap<&'static str, f64>, problems: &mut Vec<String>) {
    let mut by_graph: BTreeMap<usize, Vec<&Vec<usize>>> = BTreeMap::new();
    for (g, set) in &plan.probe_queries {
        by_graph.entry(*g).or_default().push(set);
    }
    let mut build = Duration::ZERO;
    let mut heap = 0isize;
    let mut query = Vec::new();
    let mut parity = Vec::new();
    for (g, sets) in by_graph {
        let graph = &plan.graphs[g].graph;
        let before = crate::live_bytes();
        let started = Instant::now();
        let mut index = PredictIndex::new(graph);
        build += started.elapsed();
        heap += crate::live_bytes() - before;
        // One untimed query touches the index's scratch pages.
        let _ = index.summary(sets[0].iter().copied().map(NodeId::new));
        for set in sets {
            let started = Instant::now();
            let warm = index.summary(set.iter().copied().map(NodeId::new));
            query.push(ms(started.elapsed()));
            let started = Instant::now();
            let slow = theory::predict_via_parity(graph, set.iter().copied().map(NodeId::new));
            parity.push(ms(started.elapsed()));
            if (
                warm.termination_round,
                warm.total_messages,
                warm.informed_count,
            ) != (
                slow.termination_round(),
                slow.total_messages(),
                slow.informed_count(),
            ) {
                problems.push(format!(
                    "{} sources {set:?}: PredictIndex and predict_via_parity disagree",
                    plan.graphs[g].name
                ));
            }
        }
    }
    values.insert("predict.index_build_ms", ms(build));
    values.insert("predict.index_mb", mib(heap));
    values.insert("predict.query_ms", stats::mean(&query));
    values.insert("predict.parity_query_ms", stats::mean(&parity));
}

/// Heap held against bytes charged after the workload's set-up, and how
/// Predict throughput on one graph scales from one thread to two.
fn registry_layer(plan: &Plan, values: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let before = crate::live_bytes();
    let server = Server::default();
    // Only the set-up lines that change what the registry holds: Loads,
    // the Predicts that build covers, and Mutates.
    for line in plan.clients.iter().flat_map(|c| &c.setup) {
        if matches!(line.verb, "Load" | "Predict" | "Mutate") {
            let request: Request = serde_json::from_str(&line.text).map_err(|e| e.to_string())?;
            server.registry().execute(&request);
        }
    }
    let heap = mib(crate::live_bytes() - before);
    let charged = server.registry().metrics_report().registry_bytes as f64 / (1024.0 * 1024.0);
    values.insert("registry.heap_mb", heap);
    values.insert("registry.charged_mb", charged);
    values.insert("registry.charge_ratio", heap / charged);

    let largest = plan
        .graphs
        .iter()
        .max_by_key(|g| g.graph.node_count())
        .ok_or("the workload loads no graph")?;
    let n = largest.graph.node_count();
    let query = |i: usize| Request::Predict {
        graph: largest.name.clone(),
        source_sets: vec![vec![i * 7919 % n]],
    };
    let registry = server.registry();
    registry.execute(&query(0));
    let started = Instant::now();
    registry.execute(&query(1));
    let one = started.elapsed().as_secs_f64().max(1e-6);
    let count = ((0.25 / one) as usize).clamp(2, 4000);
    let started = Instant::now();
    for i in 0..count {
        registry.execute(&query(i));
    }
    let single = count as f64 / started.elapsed().as_secs_f64();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..2 {
            let query = &query;
            scope.spawn(move || {
                for i in 0..count {
                    registry.execute(&query(i + t * count));
                }
            });
        }
    });
    let double = (2 * count) as f64 / started.elapsed().as_secs_f64();
    values.insert("registry.predict_parallel_speedup", double / single);
    Ok(())
}
