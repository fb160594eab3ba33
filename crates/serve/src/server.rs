//! The transports: newline-delimited JSON over TCP (thread per
//! connection) and over stdio (one reader thread), both driving the same
//! [`Registry`] through the same parse/dispatch path — so anything the
//! integration tests prove about one transport holds for the other.
//!
//! Robustness contract (PROTOCOL.md, "Errors"): a malformed line —
//! garbage bytes, truncated JSON, an unknown verb, a line over the cap —
//! produces a structured [`Response::Error`] on that line's slot and the
//! connection survives. The only things that end a connection are EOF,
//! an I/O error on the socket, and server shutdown. `Shutdown` flips a
//! flag: the listener stops accepting, in-flight requests finish and
//! their responses are written, later requests get a `shutting_down`
//! error, and `serve_tcp` returns once every connection thread drains.
//!
//! Concurrency model (PROTOCOL.md, "Request ids"): a bare request line
//! executes **inline** on its connection thread — strictly in order, one
//! response per request, exactly the PR-7 semantics. A request wrapped in
//! an id [`Envelope`] is dispatched to the shared **worker pool** and its
//! [`TaggedResponse`] may come back out of order; the connection's writer
//! is a mutex, so inline and pooled responses interleave only at line
//! granularity. `Shutdown` always executes inline (even enveloped), and
//! the drain ordering is structural: connection threads exit first, then
//! the queue closes, then the workers finish every job accepted before
//! the close — so a `Shutdown` racing queued work never loses a response.
//!
//! Write path: every response line — inline, pooled, `oversized` and
//! `shutting_down` alike — is serialized straight into one buffer that
//! already ends in its newline and goes out in a single `write_all`, and
//! every accepted TCP connection sets `TCP_NODELAY`. A line split over two
//! writes, or a last partial segment on a Nagle socket, would otherwise
//! wait for the client's delayed ACK (at least 40 ms on Linux) before the
//! client sees its newline.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};
use std::time::Duration;

use af_core::api::{code, ErrorResponse};
use parking_lot::Mutex;

use crate::protocol::{Envelope, Request, Response, TaggedResponse};
use crate::registry::Registry;

/// Default cap on one request line, in bytes (64 MiB — a `Load` of a
/// million-edge edge-list text is ~14 MiB, so real workloads fit with
/// room; a missing-newline stream cannot buffer unboundedly).
pub const DEFAULT_LINE_CAP: usize = 64 << 20;

/// Default worker-pool size for enveloped (id-tagged) requests.
pub const DEFAULT_POOL: usize = 4;

/// How long a connection thread blocks in a read before re-checking the
/// shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Construction-time knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-line byte cap ([`DEFAULT_LINE_CAP`]).
    pub line_cap: usize,
    /// Worker threads shared by all connections for enveloped requests
    /// ([`DEFAULT_POOL`]; clamped to at least 1).
    pub pool: usize,
    /// Registry byte budget for the registered graphs' heap;
    /// 0 = unbounded. See [`Registry::with_budget`].
    pub registry_budget: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            line_cap: DEFAULT_LINE_CAP,
            pool: DEFAULT_POOL,
            registry_budget: 0,
        }
    }
}

/// The shared server state: one registry plus the shutdown latch.
///
/// Transport-free by itself — [`Server::handle_line`] maps one bare
/// request line to one response, and [`Server::serve_tcp`] /
/// [`Server::serve_stdio`] wrap the full parse/dispatch path (envelopes
/// included) in a transport. Tests drive `handle_line` directly to pin
/// wire behavior without sockets.
#[derive(Debug)]
pub struct Server {
    registry: Registry,
    shutting_down: AtomicBool,
    metrics_flushed: AtomicBool,
    line_cap: usize,
    pool_size: usize,
}

impl Default for Server {
    fn default() -> Self {
        Server::new(DEFAULT_LINE_CAP)
    }
}

impl Server {
    /// A server with an empty unbounded registry, the given per-line
    /// byte cap, and the default pool size.
    #[must_use]
    pub fn new(line_cap: usize) -> Self {
        Server::with_config(&ServerConfig {
            line_cap,
            ..ServerConfig::default()
        })
    }

    /// A server built from explicit [`ServerConfig`] knobs.
    #[must_use]
    pub fn with_config(config: &ServerConfig) -> Self {
        let pool_size = config.pool.max(1);
        let server = Server {
            registry: Registry::with_budget(config.registry_budget),
            shutting_down: AtomicBool::new(false),
            metrics_flushed: AtomicBool::new(false),
            line_cap: config.line_cap,
            pool_size,
        };
        server.registry.metrics().set_pool_workers(pool_size as u64);
        server
    }

    /// The graph registry (shared by every connection).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Worker threads each transport runs for enveloped requests.
    #[must_use]
    pub fn pool_size(&self) -> usize {
        self.pool_size
    }

    /// Has a `Shutdown` request been accepted?
    ///
    /// Relaxed suffices: the flag is monotonic (false → true, once) and
    /// only gates *when* a loop notices the drain — the drain's
    /// correctness is structural (scope joins, then queue close), not
    /// ordering-dependent.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Relaxed)
    }

    /// Begins the drain: no new work is accepted, the TCP accept loop
    /// stops, connection threads exit after their current request.
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::Relaxed);
    }

    /// Registers every file in `dir` (sorted by path, name = file stem)
    /// through the same text-sniffing path a `Load` request takes —
    /// the `--registry-dir` boot loader. A file that fails to read or
    /// parse is warned to stderr and skipped; the daemon still boots.
    /// Boot loads do not count as wire requests. Returns how many
    /// graphs were registered.
    ///
    /// # Errors
    ///
    /// Propagates a missing or unreadable directory (a misspelled
    /// `--registry-dir` should fail loudly, not boot an empty daemon).
    pub fn load_registry_dir(&self, dir: &Path) -> io::Result<usize> {
        let mut paths: Vec<_> = std::fs::read_dir(dir)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|path| path.is_file())
            .collect();
        paths.sort();
        let mut loaded = 0;
        for path in paths {
            let Some(name) = path.file_stem().and_then(|s| s.to_str()) else {
                crate::log_line!("af-serve: skipping {} (unusable file name)", path.display());
                continue;
            };
            let text = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                Err(e) => {
                    crate::log_line!("af-serve: skipping {}: {e}", path.display());
                    continue;
                }
            };
            match self.registry.register_from_text(name, &text) {
                Ok(Response::Registered { nodes, edges, .. }) => {
                    crate::log_line!(
                        "af-serve: loaded '{name}' ({nodes} nodes, {edges} edges) from {}",
                        path.display()
                    );
                    loaded += 1;
                }
                Ok(other) => unreachable!("register answers Registered, got {other:?}"),
                Err(e) => crate::log_line!("af-serve: skipping {}: {e}", path.display()),
            }
        }
        Ok(loaded)
    }

    /// Answers one **bare** request line inline: parse, execute, and
    /// return the [`Response`] — never panicking and never killing the
    /// caller's connection. Every error path is a structured
    /// [`Response::Error`]. (Envelope routing is a transport feature;
    /// an envelope line here answers `bad_request`.)
    pub fn handle_line(&self, line: &str) -> Response {
        if self.is_shutting_down() {
            self.registry.count_request();
            return self.registry.reject(ErrorResponse::new(
                code::SHUTTING_DOWN,
                "server is draining for shutdown",
            ));
        }
        let request: Request = match serde_json::from_str(line) {
            Ok(request) => request,
            Err(e) => {
                self.registry.count_request();
                return self
                    .registry
                    .reject(ErrorResponse::new(code::BAD_REQUEST, format!("{e}")));
            }
        };
        if matches!(request, Request::Shutdown) {
            self.begin_shutdown();
        }
        self.registry.execute(&request)
    }

    /// [`Self::handle_line`], serialized back to one response line
    /// (without the trailing newline).
    #[must_use]
    pub fn handle_json(&self, line: &str) -> String {
        serialize(&self.handle_line(line))
    }

    /// The current metrics snapshot as the daemon's stderr line form:
    /// `metrics {json}`, where the JSON is a
    /// [`crate::protocol::MetricsReport`].
    #[must_use]
    pub fn metrics_line(&self) -> String {
        let report = self.registry.metrics_report();
        format!("metrics {}", serialize(&report))
    }

    /// Writes the final metrics snapshot line to stderr, at most once
    /// per server — called when a transport loop drains (`Shutdown` or
    /// EOF), so even a daemon killed right after the drain leaves
    /// evidence of what it served. (Relaxed: the swap alone decides the
    /// unique winner; nothing else is published through this flag.)
    pub fn flush_final_metrics(&self) {
        if !self.metrics_flushed.swap(true, Ordering::Relaxed) {
            crate::log_line!("af-serve: final {}", self.metrics_line());
        }
    }

    /// The response for a line that exceeded the cap (counted).
    fn oversized(&self) -> Response {
        self.registry.count_request();
        self.registry.reject(ErrorResponse::new(
            code::OVERSIZED,
            format!("request line exceeds the {}-byte cap", self.line_cap),
        ))
    }

    /// Serves newline-delimited JSON on stdin/stdout until EOF or a
    /// `Shutdown` request. Bare requests answer inline in order;
    /// enveloped requests run on the pool and may answer out of order.
    /// Returns only after every accepted pool job has written its
    /// response.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors on the two streams.
    pub fn serve_stdio<W: Write + Send>(&self, input: impl BufRead, output: W) -> io::Result<()> {
        self.registry.metrics().connection_opened();
        let queue = JobQueue::new();
        let out = Arc::new(Mutex::new(output));
        let result = crossbeam::scope(|scope| {
            let queue = &queue;
            for _ in 0..self.pool_size {
                scope.spawn(move |_| self.pool_worker(queue));
            }
            let result = self.stdio_loop(input, &out, queue);
            // EOF or Shutdown: no more pushes can happen; the workers
            // drain what was accepted and exit.
            queue.close();
            result
        })
        // The scope errors only if a worker panicked; surface that as
        // an I/O error instead of propagating the panic.
        .map_err(|_| io::Error::other("a pool worker panicked"))
        .and_then(|r| r);
        self.flush_final_metrics();
        result
    }

    /// The stdio read loop, separated so the scope in
    /// [`Self::serve_stdio`] stays readable.
    fn stdio_loop<W: Write + Send>(
        &self,
        input: impl BufRead,
        out: &Arc<Mutex<W>>,
        queue: &JobQueue<W>,
    ) -> io::Result<()> {
        let mut lines = LineReader::new(input, self.line_cap);
        loop {
            match lines.next_line()? {
                LineRead::Eof => return Ok(()),
                LineRead::Blank => continue,
                LineRead::Oversized => {
                    let response = self.oversized();
                    self.write_line(out, &serialize_line(&response))?;
                }
                LineRead::Line(line) => {
                    self.registry
                        .metrics()
                        .add_bytes_read(line.len() as u64 + 1);
                    self.dispatch(&line, out, queue)?;
                }
            }
            if self.is_shutting_down() {
                return Ok(());
            }
        }
    }

    /// Serves newline-delimited JSON on a TCP listener, one thread per
    /// connection plus the shared worker pool, until a `Shutdown`
    /// request on any connection. Returns after the drain: every
    /// connection thread has exited, every accepted pool job has written
    /// its response, and every worker has stopped.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors; per-connection I/O errors only
    /// end that connection.
    pub fn serve_tcp(&self, listener: &TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let queue = JobQueue::new();
        let outcome = crossbeam::scope(|workers| -> io::Result<()> {
            let queue = &queue;
            for _ in 0..self.pool_size {
                workers.spawn(move |_| self.pool_worker(queue));
            }
            // The inner scope joins every connection thread before the
            // outer closure resumes — only then is it safe to close the
            // queue, because nobody can push after the close.
            let result = crossbeam::scope(|scope| -> io::Result<()> {
                while !self.is_shutting_down() {
                    match listener.accept() {
                        Ok((stream, _addr)) => {
                            scope.spawn(move |_| {
                                // A dropped client is that client's problem.
                                let _ = self.serve_connection(stream, queue);
                            });
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(POLL_INTERVAL);
                        }
                        Err(e) => return Err(e),
                    }
                }
                Ok(())
            })
            .map_err(|_| io::Error::other("a connection thread panicked"))
            .and_then(|r| r);
            queue.close();
            result
        });
        let result = outcome
            .map_err(|_| io::Error::other("a pool worker panicked"))
            .and_then(|r| r);
        self.flush_final_metrics();
        result
    }

    /// One connection's request/response loop. Responses (inline and
    /// pooled) funnel through the shared writer mutex; the stream clone
    /// inside each queued job keeps the socket alive even if this
    /// thread exits before the pool answers.
    fn serve_connection(&self, stream: TcpStream, queue: &JobQueue<TcpStream>) -> io::Result<()> {
        self.registry.metrics().connection_opened();
        stream.set_read_timeout(Some(POLL_INTERVAL))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let out = Arc::new(Mutex::new(stream));
        let mut lines = LineReader::new(reader, self.line_cap);
        loop {
            match lines.next_line() {
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // Read timeout: no data right now. Keep waiting
                    // unless the server is draining.
                    if self.is_shutting_down() {
                        return Ok(());
                    }
                    continue;
                }
                Err(e) => return Err(e),
                Ok(LineRead::Eof) => return Ok(()),
                Ok(LineRead::Blank) => continue,
                Ok(LineRead::Oversized) => {
                    let response = self.oversized();
                    self.write_line(&out, &serialize_line(&response))?;
                }
                Ok(LineRead::Line(line)) => {
                    self.registry
                        .metrics()
                        .add_bytes_read(line.len() as u64 + 1);
                    self.dispatch(&line, &out, queue)?;
                }
            }
            if self.is_shutting_down() {
                // Either this client asked for shutdown (it just got its
                // `ShuttingDown` ack) or another did (this one just got
                // its final inline response; its queued jobs still
                // answer during the drain); close the connection so the
                // accept loop's scope can drain.
                return Ok(());
            }
        }
    }

    /// Routes one parsed line: bare requests inline (in order),
    /// enveloped requests to the pool (out of order), `Shutdown` always
    /// inline so the ack is written before the drain begins.
    fn dispatch<W: Write + Send>(
        &self,
        line: &str,
        out: &Arc<Mutex<W>>,
        queue: &JobQueue<W>,
    ) -> io::Result<()> {
        if self.is_shutting_down() {
            self.registry.count_request();
            let response = self.registry.reject(ErrorResponse::new(
                code::SHUTTING_DOWN,
                "server is draining for shutdown",
            ));
            return self.write_line(out, &serialize_line(&response));
        }
        match parse_line(line) {
            Parsed::Bare(request) => {
                if matches!(request, Request::Shutdown) {
                    self.begin_shutdown();
                }
                let response = self.registry.execute(&request);
                self.write_line(out, &serialize_line(&response))
            }
            Parsed::Enveloped(id, request) => {
                if matches!(request, Request::Shutdown) {
                    self.begin_shutdown();
                    let response = self.registry.execute(&request);
                    return self.write_tagged(out, TaggedResponse { id, response });
                }
                self.registry.metrics().job_enqueued();
                queue.push(Job {
                    id,
                    request,
                    out: Arc::clone(out),
                });
                Ok(())
            }
            Parsed::BadEnvelope(id, message) => {
                self.registry.count_request();
                let response = self
                    .registry
                    .reject(ErrorResponse::new(code::BAD_REQUEST, message));
                self.write_tagged(out, TaggedResponse { id, response })
            }
            Parsed::Bad(message) => {
                self.registry.count_request();
                let response = self
                    .registry
                    .reject(ErrorResponse::new(code::BAD_REQUEST, message));
                self.write_line(out, &serialize_line(&response))
            }
        }
    }

    /// One pool worker: pop, execute, write the tagged response to the
    /// job's connection. Runs until the queue closes *and* empties. A
    /// failed write means the client vanished — that job's response is
    /// dropped, the worker (and every other connection) lives on.
    fn pool_worker<W: Write + Send>(&self, queue: &JobQueue<W>) {
        while let Some(job) = queue.pop() {
            let response = self.registry.execute(&job.request);
            let _ = self.write_tagged(
                &job.out,
                TaggedResponse {
                    id: job.id,
                    response,
                },
            );
            self.registry.metrics().job_finished();
        }
    }

    /// Serializes and writes one tagged response line.
    fn write_tagged<W: Write>(&self, out: &Mutex<W>, tagged: TaggedResponse) -> io::Result<()> {
        self.write_line(out, &serialize_line(&tagged))
    }

    /// Writes one newline-terminated response line (a [`serialize_line`]
    /// buffer) with a single `write_all` under the connection's writer
    /// mutex, and counts its bytes. One write per line keeps the newline
    /// out of a second segment that Nagle would hold back until the
    /// client's delayed ACK.
    fn write_line<W: Write>(&self, out: &Mutex<W>, line: &[u8]) -> io::Result<()> {
        {
            let mut writer = out.lock();
            writer.write_all(line)?;
            writer.flush()?;
        }
        self.registry.metrics().add_bytes_written(line.len() as u64);
        Ok(())
    }
}

/// Serializes one wire value to its single-line JSON form. Our response
/// and report types always serialize; if that invariant ever breaks the
/// client gets a structured error line, not a panicking daemon.
fn serialize<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap_or_else(|e| {
        let msg = format!("serialization failed: {e}").replace(['"', '\\'], "'");
        format!("{{\"Error\":{{\"code\":\"bad_request\",\"message\":\"{msg}\"}}}}")
    })
}

/// [`serialize`] as a response line buffer, newline included, so the
/// transport writes it with one `write_all`.
fn serialize_line<T: serde::Serialize>(value: &T) -> Vec<u8> {
    let mut line = serialize(value).into_bytes();
    line.push(b'\n');
    line
}

/// How one request line parsed.
enum Parsed {
    /// A bare [`Request`]: execute inline, answer in order.
    Bare(Request),
    /// A well-formed [`Envelope`]: dispatch to the pool.
    Enveloped(u64, Request),
    /// An envelope whose inner request is malformed — the id still
    /// parses, so the error can be correlated.
    BadEnvelope(u64, String),
    /// Neither shape parsed.
    Bad(String),
}

/// The id-recovery probe for malformed envelopes: any JSON object with
/// a numeric `id` field (other fields ignored).
#[derive(serde::Deserialize)]
struct IdProbe {
    id: u64,
}

/// Three-stage parse: bare request, then envelope, then id probe. The
/// shapes are disjoint (a bare request line is a string or a one-entry
/// object; an envelope is a two-entry object), so the order only
/// determines which error message a garbage line gets.
fn parse_line(line: &str) -> Parsed {
    match serde_json::from_str::<Request>(line) {
        Ok(request) => Parsed::Bare(request),
        Err(bare_error) => match serde_json::from_str::<Envelope>(line) {
            Ok(envelope) => Parsed::Enveloped(envelope.id, envelope.request),
            Err(envelope_error) => match serde_json::from_str::<IdProbe>(line) {
                Ok(probe) => Parsed::BadEnvelope(probe.id, format!("{envelope_error}")),
                Err(_) => Parsed::Bad(format!("{bare_error}")),
            },
        },
    }
}

/// One queued unit of pool work: an enveloped request plus the shared
/// writer of the connection that sent it.
struct Job<W> {
    id: u64,
    request: Request,
    out: Arc<Mutex<W>>,
}

/// The shared job queue: a mutex-guarded deque plus a condvar (std's —
/// the vendored `parking_lot` shim has no condvar). `pop` blocks until
/// a job arrives or the queue is closed *and* drained, which is exactly
/// the shutdown contract the workers need.
struct JobQueue<W> {
    state: StdMutex<QueueState<W>>,
    ready: Condvar,
}

struct QueueState<W> {
    jobs: VecDeque<Job<W>>,
    closed: bool,
}

impl<W> JobQueue<W> {
    fn new() -> Self {
        JobQueue {
            state: StdMutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    // Poison recovery is sound for this queue: every critical section
    // is a single deque/flag operation that cannot be observed half
    // done, so a panic elsewhere while holding the lock leaves a
    // consistent state worth continuing the drain with.

    fn push(&self, job: Job<W>) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        debug_assert!(!state.closed, "push after close");
        state.jobs.push_back(job);
        drop(state);
        self.ready.notify_one();
    }

    fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.ready.notify_all();
    }

    /// Blocks for the next job; `None` once closed and drained.
    fn pop(&self) -> Option<Job<W>> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One read outcome from [`LineReader`].
enum LineRead {
    /// The stream ended cleanly.
    Eof,
    /// A whitespace-only line (ignored by both transports).
    Blank,
    /// One complete line within the cap.
    Line(String),
    /// A line exceeded the cap; its bytes were discarded through the
    /// next newline (or EOF) and the stream is positioned after it.
    Oversized,
}

/// A byte-capped, *resumable* line reader: if the underlying reader
/// returns a timeout error mid-line (TCP read timeouts, used to poll the
/// shutdown flag), the partial line is kept and the next call continues
/// it — `BufRead::read_line` would lose that property.
struct LineReader<R> {
    reader: R,
    cap: usize,
    buf: Vec<u8>,
    overflow: bool,
}

impl<R: BufRead> LineReader<R> {
    fn new(reader: R, cap: usize) -> Self {
        LineReader {
            reader,
            cap,
            buf: Vec::new(),
            overflow: false,
        }
    }

    fn next_line(&mut self) -> io::Result<LineRead> {
        loop {
            let available = self.reader.fill_buf()?;
            if available.is_empty() {
                // EOF. A partial unterminated line still gets answered.
                return Ok(if self.overflow {
                    self.overflow = false;
                    LineRead::Oversized
                } else if self.buf.is_empty() {
                    LineRead::Eof
                } else {
                    self.take_line()
                });
            }
            let (chunk, terminated, consumed) = match available.iter().position(|&b| b == b'\n') {
                Some(i) => (&available[..i], true, i + 1),
                None => (available, false, available.len()),
            };
            if !self.overflow {
                self.buf.extend_from_slice(chunk);
                if self.buf.len() > self.cap {
                    self.overflow = true;
                    self.buf.clear();
                }
            }
            self.reader.consume(consumed);
            if terminated {
                return Ok(if self.overflow {
                    self.overflow = false;
                    LineRead::Oversized
                } else {
                    self.take_line()
                });
            }
        }
    }

    fn take_line(&mut self) -> LineRead {
        let line = String::from_utf8_lossy(&self.buf).into_owned();
        self.buf.clear();
        if line.trim().is_empty() {
            LineRead::Blank
        } else {
            LineRead::Line(line)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use af_analysis::GraphSpec;

    fn gen_line(name: &str, spec: &GraphSpec) -> String {
        serde_json::to_string(&Request::Gen {
            name: name.into(),
            spec: spec.clone(),
        })
        .unwrap()
    }

    #[test]
    fn malformed_lines_answer_with_errors_and_the_server_survives() {
        let server = Server::default();
        for garbage in [
            "not json at all",
            "{\"Load\": {\"name\": \"g\"",   // truncated
            "{\"Warp\": {}}",                // unknown verb
            "{\"Load\": {\"name\": \"g\"}}", // missing field
            "[1, 2, 3]",                     // wrong shape
            "\"Load\"",                      // payload verb as unit
        ] {
            let resp = server.handle_line(garbage);
            let Response::Error(err) = resp else {
                panic!("expected error for {garbage:?}, got {resp:?}");
            };
            assert_eq!(err.code, code::BAD_REQUEST, "{garbage:?}");
        }
        // The server still works after all that garbage.
        let resp = server.handle_line(&gen_line("g", &GraphSpec::Petersen));
        assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
        let Response::Stats(stats) = server.handle_line("\"Stats\"") else {
            panic!("stats");
        };
        assert_eq!(stats.errors, 6);
        assert_eq!(stats.requests, 8);
    }

    #[test]
    fn stdio_session_runs_and_shutdown_stops_it() {
        let server = Server::default();
        let input = format!(
            "{}\n{}\n\n\"Shutdown\"\n{}\n",
            gen_line("g", &GraphSpec::Cycle { n: 5 }),
            "{\"Predict\": {\"graph\": \"g\", \"source_sets\": [[0]]}}",
            "\"Stats\"", // never answered: the server stopped at Shutdown
        );
        let mut output = Vec::new();
        server.serve_stdio(input.as_bytes(), &mut output).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[0].starts_with("{\"Registered\""), "{}", lines[0]);
        assert!(lines[1].starts_with("{\"Predicted\""), "{}", lines[1]);
        assert_eq!(lines[2], "\"ShuttingDown\"");
        assert!(server.is_shutting_down());
        // Post-shutdown lines are refused, not executed.
        let Response::Error(err) = server.handle_line("\"Stats\"") else {
            panic!("expected shutting_down error");
        };
        assert_eq!(err.code, code::SHUTTING_DOWN);
    }

    #[test]
    fn every_response_line_is_one_write() {
        // A sink that records each `write` call. A line split over two
        // writes stalls on a Nagle socket until the peer's delayed ACK.
        #[derive(Clone, Default)]
        struct Recorder(Arc<StdMutex<Vec<Vec<u8>>>>);
        impl Write for Recorder {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let server = Server::default();
        let input = "\"Stats\"\n{\"id\": 1, \"request\": \"Stats\"}\nnot json\n\"Shutdown\"\n";
        let recorder = Recorder::default();
        server
            .serve_stdio(input.as_bytes(), recorder.clone())
            .unwrap();
        let writes: Vec<String> = recorder
            .0
            .lock()
            .unwrap()
            .iter()
            .map(|w| String::from_utf8(w.clone()).unwrap())
            .collect();
        assert_eq!(writes.len(), 4, "one write per response line: {writes:?}");
        for text in &writes {
            let (line, rest) = text.split_once('\n').expect("a complete line");
            assert!(rest.is_empty(), "one line per write: {text:?}");
            let bare = serde_json::from_str::<Response>(line).is_ok();
            let tagged = serde_json::from_str::<TaggedResponse>(line).is_ok();
            assert!(bare || tagged, "not a response line: {line}");
        }
        let written: u64 = writes.iter().map(|w| w.len() as u64).sum();
        assert_eq!(server.registry().metrics_report().bytes_written, written);
    }

    #[test]
    fn oversized_lines_error_and_the_session_continues() {
        let server = Server::new(256);
        let big = format!(
            "{{\"Load\": {{\"name\": \"big\", \"graph\": \"{}\"}}}}",
            "x".repeat(512)
        );
        let input = format!("{big}\n{}\n", gen_line("g", &GraphSpec::Petersen));
        let mut output = Vec::new();
        server.serve_stdio(input.as_bytes(), &mut output).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("\"oversized\""), "{}", lines[0]);
        assert!(lines[1].starts_with("{\"Registered\""), "{}", lines[1]);
    }

    #[test]
    fn oversized_final_line_without_newline_still_answers() {
        let server = Server::new(16);
        let mut output = Vec::new();
        server
            .serve_stdio("x".repeat(64).as_bytes(), &mut output)
            .unwrap();
        let text = std::str::from_utf8(&output).unwrap();
        assert!(text.contains("\"oversized\""), "{text}");
    }

    #[test]
    fn line_reader_resumes_across_split_chunks() {
        // A reader that yields one byte per fill_buf models a slow
        // socket; the capped reader must reassemble the line.
        struct OneByte<'a>(&'a [u8]);
        impl io::Read for OneByte<'_> {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                let n = usize::from(!self.0.is_empty() && !out.is_empty());
                if n == 1 {
                    out[0] = self.0[0];
                    self.0 = &self.0[1..];
                }
                Ok(n)
            }
        }
        let reader = BufReader::with_capacity(1, OneByte(b"\"Stats\"\nrest\n"));
        let mut lines = LineReader::new(reader, 64);
        let LineRead::Line(first) = lines.next_line().unwrap() else {
            panic!("line");
        };
        assert_eq!(first, "\"Stats\"");
        let LineRead::Line(second) = lines.next_line().unwrap() else {
            panic!("line");
        };
        assert_eq!(second, "rest");
        assert!(matches!(lines.next_line().unwrap(), LineRead::Eof));
    }

    #[test]
    fn parse_line_distinguishes_all_four_shapes() {
        assert!(matches!(parse_line("\"Stats\""), Parsed::Bare(_)));
        assert!(matches!(
            parse_line("{\"id\": 9, \"request\": \"Stats\"}"),
            Parsed::Enveloped(9, Request::Stats)
        ));
        // A malformed inner request still correlates by id.
        let Parsed::BadEnvelope(id, _) = parse_line("{\"id\": 3, \"request\": {\"Warp\": {}}}")
        else {
            panic!("expected BadEnvelope");
        };
        assert_eq!(id, 3);
        let Parsed::BadEnvelope(id, _) = parse_line("{\"id\": 4}") else {
            panic!("expected BadEnvelope");
        };
        assert_eq!(id, 4);
        assert!(matches!(parse_line("not json"), Parsed::Bad(_)));
        assert!(matches!(
            parse_line("{\"id\": \"nine\", \"request\": \"Stats\"}"),
            Parsed::Bad(_)
        ));
    }

    #[test]
    fn tagged_response_wire_shape_is_pinned() {
        let tagged = TaggedResponse {
            id: 7,
            response: Response::ShuttingDown,
        };
        assert_eq!(
            serde_json::to_string(&tagged).unwrap(),
            "{\"id\":7,\"response\":\"ShuttingDown\"}"
        );
    }

    #[test]
    fn stdio_envelopes_run_on_the_pool_and_correlate_by_id() {
        let server = Server::with_config(&ServerConfig {
            pool: 2,
            ..ServerConfig::default()
        });
        // A bare Gen (inline, first line out), then three enveloped
        // requests that may answer in any order, then EOF drains.
        let input = format!(
            "{}\n{}\n{}\n{}\n",
            gen_line("g", &GraphSpec::Cycle { n: 8 }),
            "{\"id\": 1, \"request\": {\"Predict\": {\"graph\": \"g\", \"source_sets\": [[0]]}}}",
            "{\"id\": 2, \"request\": {\"Flood\": {\"graph\": \"g\", \"sources\": [0], \
             \"engine\": \"\", \"max_rounds\": 0}}}",
            "{\"id\": 3, \"request\": {\"Predict\": {\"graph\": \"ghost\", \
             \"source_sets\": [[0]]}}}",
        );
        let mut output = Vec::new();
        server.serve_stdio(input.as_bytes(), &mut output).unwrap();
        let text = std::str::from_utf8(&output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{lines:?}");
        assert!(lines[0].starts_with("{\"Registered\""), "{}", lines[0]);
        // The three tagged responses arrive in some order; correlate.
        let mut seen = std::collections::BTreeMap::new();
        for line in &lines[1..] {
            let tagged: TaggedResponse = serde_json::from_str(line).unwrap();
            seen.insert(tagged.id, tagged.response);
        }
        assert!(matches!(seen.get(&1), Some(Response::Predicted { .. })));
        assert!(matches!(seen.get(&2), Some(Response::Flooded(_))));
        let Some(Response::Error(err)) = seen.get(&3) else {
            panic!("expected error for ghost, got {:?}", seen.get(&3));
        };
        assert_eq!(err.code, code::UNKNOWN_GRAPH);
        // All three went through the pool.
        let report = server.registry().metrics_report();
        assert_eq!(report.pool_jobs_total, 3);
        assert_eq!(report.pool_depth, 0, "drained before returning");
        assert_eq!(report.pool_workers, 2);
        // Counters balance: 4 parsed requests, all on verb rows.
        assert_eq!(report.requests_total, 4);
        let verb_sum: u64 = report.verbs.iter().map(|v| v.count).sum();
        assert_eq!(verb_sum, report.requests_total);
    }
}
