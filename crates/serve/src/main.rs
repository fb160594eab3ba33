//! The `af-serve` daemon binary.
//!
//! ```text
//! af-serve                     # serve stdin/stdout (one JSON line each way)
//! af-serve --listen 127.0.0.1:7171   # serve TCP, thread per connection
//! af-serve --line-cap 1048576  # override the per-line byte cap
//! af-serve --metrics-interval 30     # metrics snapshot to stderr every 30s
//! af-serve --pool 8            # workers for id-enveloped (out-of-order) requests
//! af-serve --registry-budget 268435456  # LRU-evict graphs past 256 MiB
//! af-serve --registry-dir graphs/       # pre-load every edge list in graphs/
//! ```
//!
//! Diagnostics go to stderr; the protocol stream is never polluted. On
//! TCP the daemon prints `listening on <addr>` to stderr once the
//! socket is bound (with `--listen 127.0.0.1:0` the line reveals the
//! picked port). A `Shutdown` request on any connection drains and
//! stops the daemon; so does EOF on stdin in stdio mode. Either way the
//! final stderr line is a full metrics snapshot (`af-serve: final
//! metrics {...}`); `--metrics-interval SECS` additionally emits the
//! same snapshot periodically while serving.

use std::io::{self, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use af_serve::log_line;
use af_serve::server::{ServerConfig, DEFAULT_LINE_CAP, DEFAULT_POOL};
use af_serve::Server;

const USAGE: &str = "usage: af-serve [--listen ADDR] [--line-cap BYTES] [--metrics-interval SECS]
                [--pool N] [--registry-budget BYTES] [--registry-dir DIR]

Serve the flooding protocol (PROTOCOL.md) as newline-delimited JSON.
Default transport is stdio; --listen ADDR serves TCP instead.
--pool N sizes the worker pool that runs id-enveloped requests out of
order (default 4). --registry-budget BYTES caps the heap bytes held by
registered graphs, evicting least-recently used graphs past the cap
(default 0 = unbounded). --registry-dir DIR
pre-loads every edge-list file in DIR (graph name = file stem) before
serving. --metrics-interval SECS prints a metrics snapshot line to
stderr every SECS seconds (a final snapshot is always printed on
drain).";

/// How often the metrics ticker re-checks the shutdown flag while
/// waiting out its interval.
const TICK: Duration = Duration::from_millis(100);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut listen: Option<String> = None;
    let mut line_cap = DEFAULT_LINE_CAP;
    let mut pool = DEFAULT_POOL;
    let mut registry_budget = 0u64;
    let mut registry_dir: Option<PathBuf> = None;
    let mut metrics_interval: Option<Duration> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--listen" => match iter.next() {
                Some(addr) => listen = Some(addr.clone()),
                None => return usage_error("--listen needs an address"),
            },
            "--line-cap" => match iter.next().map(|v| v.parse::<usize>()) {
                Some(Ok(cap)) if cap > 0 => line_cap = cap,
                _ => return usage_error("--line-cap needs a positive byte count"),
            },
            "--pool" => match iter.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => pool = n,
                _ => return usage_error("--pool needs a positive worker count"),
            },
            "--registry-budget" => match iter.next().map(|v| v.parse::<u64>()) {
                Some(Ok(bytes)) if bytes > 0 => registry_budget = bytes,
                _ => return usage_error("--registry-budget needs a positive byte count"),
            },
            "--registry-dir" => match iter.next() {
                Some(dir) => registry_dir = Some(PathBuf::from(dir)),
                None => return usage_error("--registry-dir needs a directory"),
            },
            "--metrics-interval" => match iter.next().map(|v| v.parse::<u64>()) {
                Some(Ok(secs)) if secs > 0 => metrics_interval = Some(Duration::from_secs(secs)),
                _ => return usage_error("--metrics-interval needs a positive second count"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument '{other}'")),
        }
    }

    let server = Server::with_config(&ServerConfig {
        line_cap,
        pool,
        registry_budget,
    });
    if let Some(dir) = registry_dir {
        match server.load_registry_dir(&dir) {
            Ok(loaded) => log_line!("af-serve: registry-dir loaded {loaded} graph(s)"),
            Err(e) => {
                log_line!("af-serve: --registry-dir {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let outcome = std::thread::scope(|scope| {
        if let Some(interval) = metrics_interval {
            let server = &server;
            scope.spawn(move || metrics_ticker(server, interval));
        }
        let outcome = match listen {
            Some(addr) => serve_tcp(&server, &addr),
            None => {
                let stdin = io::stdin();
                // `io::stdout()` (not its lock): the pool workers need a
                // `Send` writer to answer enveloped requests.
                server.serve_stdio(BufReader::new(stdin.lock()), io::stdout())
            }
        };
        // Release the ticker even when the transport ended without a
        // Shutdown request (EOF on stdin, a listener error).
        server.begin_shutdown();
        outcome
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            log_line!("af-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints a metrics snapshot line to stderr every `interval` until the
/// server starts draining, polling the flag so shutdown never waits out
/// a long interval.
fn metrics_ticker(server: &Server, interval: Duration) {
    let mut waited = Duration::ZERO;
    while !server.is_shutting_down() {
        std::thread::sleep(TICK);
        waited += TICK;
        if waited >= interval {
            waited = Duration::ZERO;
            if !server.is_shutting_down() {
                log_line!("af-serve: {}", server.metrics_line());
            }
        }
    }
}

fn serve_tcp(server: &Server, addr: &str) -> io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    log_line!("listening on {}", listener.local_addr()?);
    io::stderr().flush()?;
    server.serve_tcp(&listener)
}

fn usage_error(message: &str) -> ExitCode {
    log_line!("af-serve: {message}\n{USAGE}");
    ExitCode::FAILURE
}
