//! `branchlabd` — the predictor-sweep evaluation daemon.
//!
//! Boots the server from [`branchlab_server::ServerConfig`], warms
//! the suite traces, and serves until SIGTERM/SIGINT, at which point
//! it drains in-flight work and exits 0.
//!
//! `branchlabd --help` lists the flags. Exit status: 0 after a clean
//! drain (or `--help`), 1 when binding or writing `--addr-file` fails,
//! 2 on a usage error.
//!
//! `--trace-out` writes the flight recorder's retained request traces
//! as Chrome trace-event JSON at shutdown (open in Perfetto);
//! `--slow-ms` logs requests past the threshold as JSONL, to stderr
//! or to `--slow-log FILE`.
//!
//! `--spill-dir` makes restarts warm: traces and the response cache
//! spill there (every `--spill-every` seconds and on graceful drain),
//! and the next boot restores whatever validates. The `--chaos-*`
//! rates arm deterministic server-side fault injection — worker
//! panics, slow computes, cache-read corruption, spill-write failure
//! — for drills and the CI chaos smoke; see
//! `branchlab_server::chaos`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use branchlab_server::{Server, ServerConfig};
use branchlab_telemetry::cli::{self, Args, CliError, Flag};
use branchlab_workloads::Scale;

/// Set from the signal handler; polled by the main loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sig {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work here: set the flag.
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    /// Install the handler for SIGINT (2) and SIGTERM (15).
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        // SAFETY: `signal` with a handler that only stores to a static
        // AtomicBool is async-signal-safe; the numbers are the
        // POSIX-mandated values for SIGINT and SIGTERM.
        unsafe {
            signal(2, on_signal);
            signal(15, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    /// No signal wiring off unix; ctrl-c kills the process directly.
    pub fn install() {}
}

const FLAGS: &[Flag] = &[
    ("--listen", "ADDR"),
    ("--addr-file", "PATH"),
    ("--scale", Scale::NAMES),
    ("--seed", "N"),
    ("--workers", "N"),
    ("--queue", "N"),
    ("--cache", "N"),
    ("--deadline-ms", "N"),
    ("--warm", "A,B,..."),
    ("--recorder", "N"),
    ("--slow-ms", "N"),
    ("--slow-log", "FILE"),
    ("--trace-out", "FILE"),
    ("--spill-dir", "DIR"),
    ("--spill-every", "SECS"),
    ("--chaos-seed", "N"),
    ("--chaos-panic-rate", "P"),
    ("--chaos-delay-rate", "P"),
    ("--chaos-delay-ms", "N"),
    ("--chaos-cache-corrupt-rate", "P"),
    ("--chaos-spill-fail-rate", "P"),
];

struct Cli {
    config: ServerConfig,
    addr_file: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args(args: &mut Args) -> Result<Cli, CliError> {
    let mut cli = Cli {
        config: ServerConfig::default(),
        addr_file: None,
        trace_out: None,
    };
    let config = &mut cli.config;
    while let Some(flag) = args.next_flag()? {
        match flag {
            "--listen" => config.addr = args.value()?,
            "--addr-file" => cli.addr_file = Some(args.value()?),
            "--scale" => config.experiment.scale = args.value()?,
            "--seed" => config.experiment.seed = args.value()?,
            "--workers" => config.workers = args.value()?,
            "--queue" => config.queue_cap = args.value()?,
            "--cache" => config.cache_cap = args.value()?,
            "--deadline-ms" => config.default_deadline = Duration::from_millis(args.value()?),
            "--warm" => config.warm_benches = args.list()?,
            "--recorder" => config.flight_recorder_cap = args.value()?,
            "--slow-ms" => config.slow_ms = Some(args.value()?),
            "--slow-log" => config.slow_log = Some(args.value()?),
            "--trace-out" => cli.trace_out = Some(args.value()?),
            "--spill-dir" => config.spill_dir = Some(args.value()?),
            "--spill-every" => {
                config.spill_every = Duration::from_secs(args.value::<u64>()?.max(1));
            }
            "--chaos-seed" => config.chaos.seed = args.value()?,
            "--chaos-panic-rate" => config.chaos.worker_panic_rate = args.rate()?,
            "--chaos-delay-rate" => config.chaos.slow_compute_rate = args.rate()?,
            "--chaos-delay-ms" => config.chaos.delay = Duration::from_millis(args.value()?),
            "--chaos-cache-corrupt-rate" => config.chaos.cache_corrupt_rate = args.rate()?,
            "--chaos-spill-fail-rate" => config.chaos.spill_fail_rate = args.rate()?,
            other => return Err(CliError::Unknown(other.into())),
        }
    }
    Ok(cli)
}

fn main() {
    let Cli {
        config,
        addr_file,
        trace_out,
    } = cli::parse_env("branchlabd", FLAGS, parse_args);
    sig::install();

    let mut handle = match Server::start(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("branchlabd: bind failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("branchlabd: listening on http://{}", handle.addr());
    if let Some(path) = addr_file {
        // Written last so a watcher that sees the file can connect
        // immediately.
        if let Err(e) = std::fs::write(&path, handle.addr().to_string()) {
            eprintln!("branchlabd: writing {}: {e}", path.display());
            std::process::exit(1);
        }
    }

    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("branchlabd: shutting down, draining in-flight work");
    handle.shutdown_and_join();
    if let Some(path) = trace_out {
        // After the drain, so the export covers every completed
        // request the recorder still retains.
        let recorded = handle.traces_recorded();
        match std::fs::write(&path, handle.chrome_trace_json()) {
            Ok(()) => eprintln!(
                "branchlabd: wrote Chrome trace ({recorded} requests recorded) to {}",
                path.display()
            ),
            Err(e) => eprintln!("branchlabd: writing {}: {e}", path.display()),
        }
    }
    eprintln!("branchlabd: drained, bye");
}
