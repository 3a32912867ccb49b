//! `tage-serve` — the resumable campaign daemon.
//!
//! Serves the campaign service (`tage_bench::service`, see
//! `docs/SERVICE.md`) over a hand-rolled std-only HTTP/1.1 listener:
//!
//! ```text
//! tage-serve [--addr HOST:PORT] [--workers N] [--engine multilane|scalar]
//!            [--store DIR] [--journal DIR]
//! ```
//!
//! Endpoints: `POST /campaigns` (submit a grid), `GET /campaigns/<id>`
//! (incremental status), `GET /campaigns/<id>/report` (final byte-stable
//! report), `GET /metrics`, `GET /healthz`, `POST /shutdown`.
//!
//! The daemon shuts down gracefully on SIGINT/SIGTERM or `POST /shutdown`:
//! it stops accepting work, finishes and persists the cells its workers
//! are running, and exits 0. Accepted grids are journaled under
//! `--journal`, finished cells under `--store`, so a restarted daemon
//! resumes every open campaign.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use tage_bench::cli;
use tage_bench::service::{start, ServeOptions};
use tage_sim::engine::default_parallelism;
use tage_sim::EngineKind;

/// Default bind address (loopback only; put a real proxy in front for
/// anything else).
const DEFAULT_ADDR: &str = "127.0.0.1:7421";
/// Default cell-store directory.
const DEFAULT_STORE: &str = ".tage-serve/cells";
/// Default campaign-journal directory.
const DEFAULT_JOURNAL: &str = ".tage-serve/journal";

/// Set by the signal handler; polled by the main loop.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    /// POSIX `signal(2)`. The libs forbid unsafe code; this one shim lives
    /// in the binary so the daemon can catch SIGINT/SIGTERM without any
    /// dependency.
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn on_signal(_signum: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

fn install_signal_handlers() {
    let handler = on_signal as *const () as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

fn parse_options() -> Result<ServeOptions, String> {
    let mut options = ServeOptions {
        addr: DEFAULT_ADDR.to_string(),
        workers: default_parallelism(),
        engine: EngineKind::Multilane,
        store_dir: DEFAULT_STORE.into(),
        journal_dir: DEFAULT_JOURNAL.into(),
        max_body_bytes: tage_bench::service::http::DEFAULT_MAX_BODY_BYTES,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => options.addr = cli::require_value(&mut args, "--addr")?,
            "--workers" => {
                let value = cli::require_value(&mut args, "--workers")?;
                options.workers = cli::parse_count("--workers", &value)?;
            }
            "--engine" => {
                let value = cli::require_value(&mut args, "--engine")?;
                options.engine = match value.as_str() {
                    "multilane" => EngineKind::Multilane,
                    "scalar" => EngineKind::Scalar,
                    other => {
                        return Err(format!(
                            "unknown --engine \"{other}\" (known: multilane, scalar)"
                        ))
                    }
                };
            }
            "--store" => options.store_dir = cli::require_value(&mut args, "--store")?.into(),
            "--journal" => options.journal_dir = cli::require_value(&mut args, "--journal")?.into(),
            other => return Err(format!("unknown argument: {other} (see docs/SERVICE.md)")),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_options() {
        Ok(options) => options,
        Err(error) => {
            eprintln!("tage-serve: {error}");
            return ExitCode::FAILURE;
        }
    };
    install_signal_handlers();
    let handle = match start(options.clone()) {
        Ok(handle) => handle,
        Err(error) => {
            eprintln!("tage-serve: {error}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "tage-serve listening on http://{} ({} workers, store {}, journal {}, {} campaigns rehydrated)",
        handle.addr(),
        options.workers,
        options.store_dir.display(),
        options.journal_dir.display(),
        handle.rehydrated(),
    );
    // Wait for a signal or a POST /shutdown, then drain and exit 0.
    while !SIGNALLED.load(Ordering::SeqCst) && !handle.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    println!("tage-serve: shutting down (finishing the running cells)");
    handle.request_shutdown();
    handle.join();
    println!("tage-serve: bye");
    ExitCode::SUCCESS
}
