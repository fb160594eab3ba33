//! One benchmark run: set the daemon up (several times, for `setup_s`),
//! drive the workload's closed loop over TCP, cross-check the daemon's
//! own metrics, verify every answer, and, when traced, probe the layers.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use af_serve::protocol::MetricsReport;
use af_serve::{Envelope, Response};

use crate::daemon::{Conn, Daemon, Exchange};
use crate::layers;
use crate::plan::{self, Line, Plan, Workload};
use crate::stats;
use crate::verify;

/// Worker threads the daemon runs for enveloped requests.
const POOL: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Bare/enveloped ping pairs of the traced queue-wait probe.
const PING_PAIRS: usize = 16;

/// The end-to-end metrics an untraced run prints, in order: name, unit,
/// and which direction is better.
pub const END_TO_END: [(&str, &str, &str); 7] = [
    ("setup_s", "s", "lower"),
    ("throughput_rps", "req/s", "higher"),
    ("msgs_per_s", "msg/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed closed loop.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The `af-serve` binary.
    pub daemon: PathBuf,
    /// Smoke-sized graphs (the self-check).
    pub smoke: bool,
}

/// One metric as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// Every answer matched the in-process replay and the oracle, and
    /// the daemon's own counts matched the client's.
    pub correct: bool,
    /// Timed requests sent.
    pub attempted: u64,
    /// Timed requests that failed (error answer or wrong answer).
    pub failed: u64,
    /// The metrics of this mode, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Findings and diagnostics worth a human's attention.
    pub notes: Vec<String>,
}

/// One request as sent and answered.
#[derive(Debug, Clone)]
pub struct Sent {
    /// The request line.
    pub line: Line,
    /// The daemon's answer and its timing.
    pub exchange: Exchange,
}

/// Everything one client sent to the final daemon, by phase.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Set-up lines (`Load`s and warm-ups).
    pub setup: Vec<Sent>,
    /// The timed closed loop.
    pub timed: Vec<Sent>,
    /// Probe lines sent after the loop (traced runs only).
    pub probes: Vec<Sent>,
}

impl ClientLog {
    /// Every exchange in send order.
    pub fn all(&self) -> impl Iterator<Item = &Sent> {
        self.setup.iter().chain(&self.timed).chain(&self.probes)
    }
}

/// Runs one workload end to end.
pub fn run(options: &Options) -> Result<Report, String> {
    let mut plan = plan::build(options.workload, options.seed, options.smoke);
    let setups = if options.trace { 1 } else { SETUPS };
    let mut setup_secs = Vec::with_capacity(setups);
    let mut first_setup: Option<Vec<Vec<String>>> = None;
    let mut notes = Vec::new();
    let (daemon, mut conns, mut logs) = loop {
        let started = Instant::now();
        let (daemon, mut conns, logs) = set_up(options, &plan)?;
        setup_secs.push(started.elapsed().as_secs_f64());
        // Every set-up sends the same lines, so it must get the same
        // answers; the last one's are verified against the replay.
        let answers: Vec<Vec<String>> = logs
            .iter()
            .map(|l| {
                l.setup
                    .iter()
                    .map(|s| s.exchange.response.clone())
                    .collect()
            })
            .collect();
        match &first_setup {
            Some(first) if *first != answers => {
                return Err("two set-ups of the same inputs answered differently".to_owned())
            }
            Some(_) => {}
            None => first_setup = Some(answers),
        }
        if setup_secs.len() == setups {
            break (daemon, conns, logs);
        }
        conns.truncate(1);
        daemon.shutdown(&mut conns[0])?;
    };

    let loop_started = Instant::now();
    let timed = closed_loop(&mut plan, &mut conns, options.seconds)?;
    let wall = loop_started.elapsed().as_secs_f64();
    for (log, sent) in logs.iter_mut().zip(timed) {
        log.timed = sent;
    }
    if options.trace {
        logs[0].probes = ping_pairs(&plan, &mut conns[0])?;
    }

    let (report, received_before) = fetch_metrics(&mut conns)?;
    let sent_bytes: u64 = conns.iter().map(|c| c.bytes_sent).sum();
    let count_problems = check_counts(&report, &logs, conns.len(), sent_bytes, received_before);
    let over_max = quantile_over_max(&report);
    notes.push(format!(
        "finding: metrics.quantile_over_max = {over_max} daemon latency rows report a quantile above max_us"
    ));
    let peak_rss_mb = daemon.peak_rss_mb()?;
    conns.truncate(1);
    daemon.shutdown(&mut conns[0])?;
    drop(conns);

    let verdict = verify::replay(&plan, &logs, options.trace)?;
    notes.extend(count_problems.iter().cloned());
    notes.extend(verdict.problems.iter().cloned());
    let timed_total: usize = logs.iter().map(|l| l.timed.len()).sum();
    let attempted = timed_total as u64;
    let failed = verdict.timed_failures;
    let mut correct = failed == 0 && verdict.problems.is_empty() && count_problems.is_empty();

    let latencies: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.timed)
        .map(|s| s.exchange.latency.as_secs_f64() * 1e3)
        .collect();
    notes.extend(class_latencies(&logs));
    let throughput = timed_total as f64 / wall;
    let p50 = stats::quantile(&latencies, 0.5).unwrap_or(0.0);
    notes.push(format!(
        "error_rate {} ratio ({failed} failed of {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    ));
    notes.push(format!(
        "{timed_total} timed requests over {wall:.3} s on {} connection(s)",
        logs.len()
    ));

    let metrics = if options.trace {
        let figures = layers::LoopFigures {
            latency_p50_ms: p50,
            throughput_rps: throughput,
            quantile_over_max: over_max,
        };
        let probe = layers::probe(&plan, &logs, &verdict, figures)?;
        correct &= probe.problems.is_empty();
        notes.extend(probe.problems.iter().cloned());
        let metrics = probe.metrics;
        if options.workload == Workload::SmallRw {
            if let Some(t) = metrics.iter().find(|m| m.name == "server.transport_ms") {
                notes.push(format!(
                    "finding: server.transport_ms = {:.3} ms of a {p50:.3} ms client p50; \
                     the daemon writes each response line with two write_all calls on a socket \
                     without TCP_NODELAY, so Nagle's algorithm waits on the client's delayed ACK",
                    t.value
                ));
            }
        }
        metrics
    } else {
        let mut tail = |q: f64| {
            let (value, used) = stats::tail_quantile(&latencies, q);
            if used < q {
                notes.push(format!(
                    "latency_p{:.0}_ms is the p{:.1} of {timed_total} requests: the highest \
                     quantile with {} samples beyond it",
                    q * 100.0,
                    used * 100.0,
                    stats::TAIL_SAMPLES
                ));
            }
            value
        };
        let values = [
            stats::median(&setup_secs).unwrap_or(0.0),
            throughput,
            verdict.timed_messages as f64 / wall,
            p50,
            tail(0.9),
            tail(0.99),
            peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), value)| Metric { name, value, unit })
            .collect()
    };
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// Spawns a daemon, connects every client, and sends each client's set-up
/// lines in turn; any error answer aborts the run.
fn set_up(options: &Options, plan: &Plan) -> Result<(Daemon, Vec<Conn>, Vec<ClientLog>), String> {
    let daemon = Daemon::spawn(&options.daemon, POOL)?;
    let mut conns = Vec::with_capacity(plan.clients.len());
    let mut logs = Vec::with_capacity(plan.clients.len());
    for client in &plan.clients {
        let mut conn = daemon.connect()?;
        let mut log = ClientLog::default();
        for line in &client.setup {
            let exchange = conn.round_trip(&line.text)?;
            if exchange.response.contains("\"Error\"") {
                return Err(format!("set-up request failed: {}", exchange.response));
            }
            log.setup.push(Sent {
                line: line.clone(),
                exchange,
            });
        }
        conns.push(conn);
        logs.push(log);
    }
    Ok((daemon, conns, logs))
}

/// Every client sends its sequence, one request in flight, until
/// `seconds` have passed, checking the clock only between whole periods.
fn closed_loop(
    plan: &mut Plan,
    conns: &mut [Conn],
    seconds: f64,
) -> Result<Vec<Vec<Sent>>, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let workers: Vec<_> = plan
            .clients
            .iter_mut()
            .zip(conns.iter_mut())
            .map(|(client, conn)| {
                scope.spawn(move || -> Result<Vec<Sent>, String> {
                    let mut sent = Vec::new();
                    let period = client.sequence.period();
                    while Instant::now() < deadline {
                        for _ in 0..period {
                            let line = client.sequence.next_line();
                            let exchange = conn.round_trip(&line.text)?;
                            sent.push(Sent { line, exchange });
                        }
                    }
                    Ok(sent)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .map_err(|_| "a client thread panicked".to_owned())?
            })
            .collect()
    })
}

/// The queue-wait probe: the same near-free request bare and enveloped,
/// alternately, one in flight, after one warm-up.
fn ping_pairs(plan: &Plan, conn: &mut Conn) -> Result<Vec<Sent>, String> {
    let bare = Line {
        text: serde_json::to_string(&plan.ping).map_err(|e| e.to_string())?,
        verb: "Predict",
    };
    let mut sent = Vec::with_capacity(2 * PING_PAIRS + 1);
    let exchange = conn.round_trip(&bare.text)?;
    sent.push(Sent {
        line: bare.clone(),
        exchange,
    });
    for i in 0..PING_PAIRS {
        let envelope = Envelope {
            id: 1_000_000 + i as u64,
            request: plan.ping.clone(),
        };
        let enveloped = Line {
            text: serde_json::to_string(&envelope).map_err(|e| e.to_string())?,
            verb: "Predict",
        };
        for line in [&bare, &enveloped] {
            let exchange = conn.round_trip(&line.text)?;
            sent.push(Sent {
                line: line.clone(),
                exchange,
            });
        }
    }
    Ok(sent)
}

/// Fetches the daemon's `Metrics` report on the first connection; also
/// returns the response bytes the clients had read before asking.
fn fetch_metrics(conns: &mut [Conn]) -> Result<(MetricsReport, u64), String> {
    // Another connection's thread counts its last response's bytes just
    // after writing it; give it a moment to do so.
    std::thread::sleep(Duration::from_millis(20));
    let received: u64 = conns.iter().map(|c| c.bytes_received).sum();
    let answer = conns[0].round_trip("\"Metrics\"")?.response;
    match serde_json::from_str::<Response>(&answer) {
        Ok(Response::Metrics(report)) => Ok((report, received)),
        _ => Err(format!("Metrics answered {answer}")),
    }
}

/// Compares the daemon's own report with what the clients sent: per-verb
/// counts, errors, connections and bytes. Returns one line per mismatch.
fn check_counts(
    report: &MetricsReport,
    logs: &[ClientLog],
    connections: usize,
    bytes_sent: u64,
    bytes_received: u64,
) -> Vec<String> {
    let mut expected: BTreeMap<&str, u64> = BTreeMap::new();
    for sent in logs.iter().flat_map(ClientLog::all) {
        *expected.entry(sent.line.verb).or_default() += 1;
    }
    let mut problems = Vec::new();
    for row in &report.verbs {
        let want = expected.get(row.verb.as_str()).copied().unwrap_or(0);
        if row.count != want {
            problems.push(format!(
                "daemon counted {} {} requests, the clients sent {want}",
                row.count, row.verb
            ));
        }
    }
    let total: u64 = expected.values().sum();
    let checks = [
        // The `Metrics` request counts itself in the total, but not yet
        // in its own verb row.
        ("requests_total", report.requests_total, total + 1),
        ("errors_total", report.errors_total, 0),
        ("connections", report.connections, connections as u64),
        ("bytes_read", report.bytes_read, bytes_sent),
        ("bytes_written", report.bytes_written, bytes_received),
    ];
    for (name, got, want) in checks {
        if got != want {
            problems.push(format!(
                "daemon reports {name} {got}, the clients saw {want}"
            ));
        }
    }
    problems
}

/// For a workload that repeats a few distinct lines, each line's median
/// latency: the classes the pooled quantiles fall on.
fn class_latencies(logs: &[ClientLog]) -> Vec<String> {
    const MAX_CLASSES: usize = 32;
    let mut classes: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for sent in logs.iter().flat_map(|l| &l.timed) {
        let ms = sent.exchange.latency.as_secs_f64() * 1e3;
        classes.entry(&sent.line.text).or_default().push(ms);
        if classes.len() > MAX_CLASSES {
            return Vec::new();
        }
    }
    classes
        .into_iter()
        .map(|(line, ms)| {
            let head: String = line.chars().take(90).collect();
            let median = stats::median(&ms).unwrap_or(0.0);
            format!("{} x {median:.1} ms median: {head}", ms.len())
        })
        .collect()
}

/// Latency rows (with traffic) whose p50, p90 or p99 exceeds their max.
fn quantile_over_max(report: &MetricsReport) -> u64 {
    report
        .verbs
        .iter()
        .filter(|v| v.count > 0 && v.p50_us.max(v.p90_us).max(v.p99_us) > v.max_us)
        .count() as u64
}
