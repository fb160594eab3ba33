//! `perfbench`: drives the real `af-serve` daemon over loopback TCP with
//! one of three workloads, checks every answer, and prints the metrics.
//!
//! ```text
//! perfbench --daemon PATH --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! perfbench --describe
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`, with
//! the end-to-end metrics when `--trace 0` and the per-layer metrics when
//! `--trace 1`. Lines above it repeat the metrics for a human, with the
//! error rate and the findings. A wrong answer prints `"correct": false`
//! and exits 1; a run that cannot complete prints no result and exits 2.
//! `--describe` prints the workload and metric names the benchmark emits.
//! `perfbench/run.py` builds both binaries and is the usual entry point.

mod daemon;
mod layers;
mod plan;
mod run;
mod stats;
mod verify;

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicIsize, Ordering};

use plan::Workload;
use run::{Options, Report};

/// The system allocator, counting the bytes currently allocated so the
/// traced run can measure what a structure holds on the heap.
struct CountingAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter has no effect on the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(size(layout.size()), Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(size(layout.size()), Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(size(layout.size()), Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(size(new_size) - size(layout.size()), Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn size(bytes: usize) -> isize {
    isize::try_from(bytes).unwrap_or(isize::MAX)
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap bytes currently allocated by this process.
pub fn live_bytes() -> isize {
    LIVE.load(Ordering::Relaxed)
}

const USAGE: &str =
    "usage: perfbench --daemon PATH --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
       perfbench --describe";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--describe") {
        println!("{}", describe());
        return ExitCode::SUCCESS;
    }
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run::run(&options) {
        Ok(report) => print_report(&options, &report),
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut daemon = None;
    let mut smoke = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--smoke" {
            smoke = true;
            continue;
        }
        let value = iter.next().ok_or_else(|| format!("{arg} needs a value"))?;
        match arg.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            "--daemon" => daemon = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {arg}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        daemon: daemon.ok_or("--daemon is required")?,
        smoke,
    })
}

fn print_report(options: &Options, report: &Report) -> ExitCode {
    println!(
        "perfbench {} seed {} trace {}: {} of {} timed requests failed, correct: {}",
        options.workload.name(),
        options.seed,
        u8::from(options.trace),
        report.failed,
        report.attempted,
        report.correct
    );
    for m in &report.metrics {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for note in &report.notes {
        println!("  note: {note}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            // A non-finite value is not JSON; it cannot occur for a run
            // that measured anything, so print it as 0 and flag the run.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    let correct = report.correct && finite;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The workloads and metrics this build emits, as JSON, for the
/// self-check to compare with `BENCHMARK.json`.
fn describe() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("\"{}\"", w.name()))
        .collect();
    let end_to_end: Vec<String> = run::END_TO_END
        .iter()
        .map(|(name, unit, better)| {
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    let per_layer: Vec<String> = layers::LAYER_METRICS
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"moves\": \"{}\"}}",
                m.name, m.unit, m.better, m.moves
            )
        })
        .collect();
    format!(
        "{{\"workloads\": [{}], \"end_to_end\": [{}], \"per_layer\": [{}]}}",
        workloads.join(", "),
        end_to_end.join(", "),
        per_layer.join(", ")
    )
}
