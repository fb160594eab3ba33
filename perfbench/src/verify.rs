//! Answer checking. Every daemon answer is compared byte for byte with an
//! in-process `af_serve::Server` that replays the same lines, and every
//! static flood summary is checked against the double-cover oracle.
//!
//! A client that mutates owns the graphs it mutates, so its answers
//! depend only on its own history: each such client gets a replay server
//! of its own and is replayed line by line. Without mutations an answer
//! depends only on the line, so one shared replay server answers each
//! distinct line once.

use std::collections::HashMap;
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use af_core::api::FloodRequest;
use af_core::theory::PredictIndex;
use af_core::FloodEngine;
use af_graph::{Graph, NodeId};
use af_serve::{Envelope, Request, Response, Server, TaggedResponse};

use crate::plan::Plan;
use crate::run::{ClientLog, Sent};

/// Source sets of each static flood answer checked against the oracle.
const ORACLE_SETS: usize = 4;
/// Mismatch descriptions kept for the report.
const MAX_PROBLEMS: usize = 8;

/// One line replayed in process: the expected answer and the time each
/// layer took to produce it.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// The answer line the daemon must have sent.
    pub expected: String,
    /// Deserializing the request line.
    pub parse: Duration,
    /// `Registry::execute`.
    pub execute: Duration,
    /// Serializing the response line.
    pub serialize: Duration,
    /// Flood messages in the answer (predicted ones for `Predict`).
    pub messages: u64,
    /// Why the answer is a failure even when the bytes match, if it is.
    pub fault: Option<String>,
}

/// The result of checking one run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Timed requests whose answer was wrong or an error.
    pub timed_failures: u64,
    /// Flood messages over all timed answers.
    pub timed_messages: u64,
    /// The replay of each timed request, per client, in send order.
    pub timed: Vec<Vec<Replayed>>,
    /// Descriptions of the first failures, from any phase.
    pub problems: Vec<String>,
}

/// Replays every client's lines and compares the answers. With
/// `warm_timings`, a timed line is never answered from a set-up line's
/// replay, so its timings are those of a warm server, as the daemon's were.
pub fn replay(plan: &Plan, logs: &[ClientLog], warm_timings: bool) -> Result<Verdict, String> {
    let servers: Vec<Server> = (0..if plan.mutates { logs.len() } else { 1 })
        .map(|_| Server::default())
        .collect();
    let mut oracle = Oracle::default();
    let mut memo: HashMap<String, Replayed> = HashMap::new();
    let mut verdict = Verdict::default();
    let mut failures = 0usize;
    for (c, log) in logs.iter().enumerate() {
        let s = if plan.mutates { c } else { 0 };
        let mut replay_one = |sent: &Sent, memoize: bool| -> Result<Replayed, String> {
            if plan.mutates || !memoize {
                return replay_line(&servers[s], s, &mut oracle, &sent.line.text);
            }
            if let Some(done) = memo.get(&sent.line.text) {
                return Ok(done.clone());
            }
            let done = replay_line(&servers[s], s, &mut oracle, &sent.line.text)?;
            memo.insert(sent.line.text.clone(), done.clone());
            Ok(done)
        };
        let mut check = |phase: &str, i: usize, sent: &Sent, replayed: &Replayed| -> bool {
            let fault = if sent.exchange.response != replayed.expected {
                Some(format!(
                    "answered {} but the replay answers {}",
                    clip(&sent.exchange.response),
                    clip(&replayed.expected)
                ))
            } else {
                replayed.fault.clone()
            };
            let Some(fault) = fault else {
                return true;
            };
            failures += 1;
            if verdict.problems.len() < MAX_PROBLEMS {
                verdict.problems.push(format!(
                    "client {c} {phase} request {i} ({}): {fault}",
                    clip(&sent.line.text)
                ));
            }
            false
        };
        for (i, sent) in log.setup.iter().enumerate() {
            let replayed = replay_one(sent, !warm_timings)?;
            check("set-up", i, sent, &replayed);
        }
        let mut timed = Vec::with_capacity(log.timed.len());
        for (i, sent) in log.timed.iter().enumerate() {
            let replayed = replay_one(sent, true)?;
            if check("timed", i, sent, &replayed) {
                verdict.timed_messages += replayed.messages;
            } else {
                verdict.timed_failures += 1;
            }
            timed.push(replayed);
        }
        for (i, sent) in log.probes.iter().enumerate() {
            let replayed = replay_one(sent, true)?;
            check("probe", i, sent, &replayed);
        }
        verdict.timed.push(timed);
    }
    if failures > verdict.problems.len() {
        verdict
            .problems
            .push(format!("{failures} failed answers in all"));
    }
    Ok(verdict)
}

/// Parses, executes and serializes one line exactly as the daemon's
/// dispatch does, timing each step, then checks the answer's semantics.
fn replay_line(
    server: &Server,
    s: usize,
    oracle: &mut Oracle,
    line: &str,
) -> Result<Replayed, String> {
    let started = Instant::now();
    let (id, request) = match serde_json::from_str::<Request>(line) {
        Ok(request) => (None, request),
        Err(_) => {
            let envelope: Envelope =
                serde_json::from_str(line).map_err(|e| format!("unparsable line: {e}"))?;
            (Some(envelope.id), envelope.request)
        }
    };
    let parse = started.elapsed();
    let started = Instant::now();
    let response = server.registry().execute(&request);
    let execute = started.elapsed();
    let started = Instant::now();
    let expected = match id {
        Some(id) => serde_json::to_string(&TaggedResponse {
            id,
            response: response.clone(),
        }),
        None => serde_json::to_string(&response),
    }
    .map_err(|e| format!("serializing a response: {e}"))?;
    let serialize = started.elapsed();

    let (messages, fault) = match &response {
        Response::Error(e) => (0, Some(format!("error answer {}: {}", e.code, e.message))),
        Response::Predicted { predictions } => {
            (predictions.iter().map(|p| p.total_messages).sum(), None)
        }
        Response::Flooded(flooded) => {
            let messages = flooded.floods.iter().map(|f| f.messages).sum();
            let fault = match static_flood(&request) {
                Some((graph, flood)) => oracle.check(server, s, graph, flood, &flooded.floods)?,
                None => None,
            };
            (messages, fault)
        }
        _ => (0, None),
    };
    Ok(Replayed {
        expected,
        parse,
        execute,
        serialize,
        messages,
        fault,
    })
}

/// The graph and flood of a `Flood`/`Batch` on a static engine.
fn static_flood(request: &Request) -> Option<(&str, FloodRequest)> {
    let (graph, flood) = match request {
        Request::Flood {
            graph,
            sources,
            engine,
            max_rounds,
        } => (
            graph,
            FloodRequest {
                source_sets: vec![sources.clone()],
                engine: engine.clone(),
                max_rounds: *max_rounds,
            },
        ),
        Request::Batch { graph, request } => (graph, request.clone()),
        _ => return None,
    };
    match FloodEngine::from_str(&flood.engine) {
        Ok(FloodEngine::Dynamic { .. }) | Err(_) => None,
        Ok(_) => Some((graph.as_str(), flood)),
    }
}

fn clip(text: &str) -> String {
    const KEEP: usize = 160;
    match text.char_indices().nth(KEEP) {
        Some((at, _)) => format!("{}...", &text[..at]),
        None => text.to_owned(),
    }
}

/// A double-cover index per replayed graph snapshot, rebuilt whenever
/// the snapshot changes.
#[derive(Debug, Default)]
struct Oracle {
    indexes: HashMap<(usize, String), (Arc<Graph>, PredictIndex)>,
}

impl Oracle {
    /// Checks the first sets of a static flood answer against the
    /// oracle's termination round and message count.
    fn check(
        &mut self,
        server: &Server,
        s: usize,
        graph: &str,
        flood: FloodRequest,
        summaries: &[af_core::api::FloodSummary],
    ) -> Result<Option<String>, String> {
        let snapshot = server
            .registry()
            .entry(graph)
            .map_err(|e| format!("replay lost graph {graph}: {e}"))?
            .snapshot();
        let key = (s, graph.to_owned());
        let stale = self
            .indexes
            .get(&key)
            .is_none_or(|(seen, _)| !Arc::ptr_eq(seen, &snapshot));
        if stale {
            let index = PredictIndex::new(&snapshot);
            self.indexes.insert(key.clone(), (snapshot, index));
        }
        let Some((_, index)) = self.indexes.get_mut(&key) else {
            return Err("oracle index vanished".to_owned());
        };
        for (i, (set, got)) in flood
            .source_sets
            .iter()
            .zip(summaries)
            .take(ORACLE_SETS)
            .enumerate()
        {
            let want = index.summary(set.iter().copied().map(NodeId::new));
            if !got.terminated
                || got.rounds != want.termination_round
                || got.messages != want.total_messages
            {
                return Ok(Some(format!(
                    "set {i} flooded {} rounds / {} messages, the oracle predicts {} / {}",
                    got.rounds, got.messages, want.termination_round, want.total_messages
                )));
            }
        }
        Ok(None)
    }
}
