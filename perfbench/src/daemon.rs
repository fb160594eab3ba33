//! The daemon under test, as a child process, and one client connection
//! to it over loopback TCP.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a drained daemon may take to exit before it is killed.
const EXIT_GRACE: Duration = Duration::from_secs(10);

/// A running `af-serve --listen 127.0.0.1:0` process. Dropping it kills
/// and reaps the process, so no exit path leaves it running.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    stderr: BufReader<ChildStderr>,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns the daemon with a `pool`-worker pool and waits until it
    /// reports its listening address.
    pub fn spawn(bin: &Path, pool: usize) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--pool", &pool.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let Some(stderr) = child.stderr.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stderr was not captured".to_owned());
        };
        let mut daemon = Daemon {
            child,
            stderr: BufReader::new(stderr),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        loop {
            line.clear();
            let read = daemon
                .stderr
                .read_line(&mut line)
                .map_err(|e| format!("reading daemon stderr: {e}"))?;
            if read == 0 {
                return Err("daemon exited before listening".to_owned());
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                daemon.addr = addr
                    .parse()
                    .map_err(|e| format!("daemon address {addr:?}: {e}"))?;
                return Ok(daemon);
            }
        }
    }

    /// Opens one client connection.
    pub fn connect(&self) -> Result<Conn, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        let reader = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Conn {
            stream,
            reader: BufReader::new(reader),
            bytes_sent: 0,
            bytes_received: 0,
        })
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let kib = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or_else(|| format!("no VmHWM in {path}"))?;
        Ok(kib / 1024.0)
    }

    /// Sends `Shutdown` on `conn` and waits for the process to exit.
    pub fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        let ack = conn.round_trip("\"Shutdown\"")?.response;
        if ack != "\"ShuttingDown\"" {
            return Err(format!("Shutdown answered {ack}"));
        }
        let started = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if started.elapsed() < EXIT_GRACE => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("daemon did not exit after Shutdown".to_owned()),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
        // The rest of stderr is the final metrics line; drain it so the
        // pipe is closed cleanly.
        let mut rest = String::new();
        let _ = self.stderr.read_to_string(&mut rest);
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One answered request, as the client saw it.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// The response line, without its newline.
    pub response: String,
    /// From the first byte written to the full response line read.
    pub latency: Duration,
}

/// A client connection: one request in flight at a time, each request
/// line written with a single `write_all`.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// Request bytes written, newlines included.
    pub bytes_sent: u64,
    /// Response bytes read, newlines included.
    pub bytes_received: u64,
}

impl Conn {
    /// Sends one request line and reads its response line.
    pub fn round_trip(&mut self, line: &str) -> Result<Exchange, String> {
        let mut wire = String::with_capacity(line.len() + 1);
        wire.push_str(line);
        wire.push('\n');
        let started = Instant::now();
        self.stream
            .write_all(wire.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        self.reader
            .read_line(&mut response)
            .map_err(|e| format!("receive: {e}"))?;
        let latency = started.elapsed();
        if !response.ends_with('\n') {
            return Err("the daemon closed the connection".to_owned());
        }
        self.bytes_sent += wire.len() as u64;
        self.bytes_received += response.len() as u64;
        response.pop();
        Ok(Exchange { response, latency })
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}
