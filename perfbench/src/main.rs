//! `perfbench` — the branchlab benchmark.
//!
//! One workload per process:
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds N] [--trace 0|1]
//!           [--smoke]
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics; with
//! `--trace 1` it measures the per-layer ledger from benchmark-side
//! spans and reports the tracing overhead. Either way it checks the
//! program's outputs, prints a Markdown report to stderr, and prints
//! one JSON result object as the last line of stdout. `--workload all`
//! runs every workload, untraced then traced, each in its own child
//! process. See README.md for the workloads and metrics.

mod counters;
mod ledger;
mod paper_tables;
mod report;
mod serve;
mod spans;
mod sweeps;

use std::path::PathBuf;
use std::process::ExitCode;

use branchlab::telemetry::{json, JsonValue};
use branchlab::workloads::Scale;

use report::Outcome;

/// End-to-end metrics (`--trace 0`), in report order, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "ops/s"),
];

/// Per-layer metrics (`--trace 1`), in report order, with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("minic.compile_ms", "ms"),
    ("profile.run_ms", "ms"),
    ("profile.insts", "count"),
    ("fsem.fs_program_ms", "ms"),
    ("fsem.code_expansion_ms", "ms"),
    ("ir.lower_ms", "ms"),
    ("interp.ns_per_inst", "ns/inst"),
    ("interp.insts", "count"),
    ("trace.capture_ns_per_event", "ns/event"),
    ("trace.bytes_per_event", "B/event"),
    ("trace.resident_mb", "MB"),
    ("trace.decode_ns_per_event", "ns/event"),
    ("predict.scalar_ns_per_point_event.sbtb", "ns/point-event"),
    ("predict.scalar_ns_per_point_event.cbtb", "ns/point-event"),
    ("predict.scalar_ns_per_point_event.mlbtb", "ns/point-event"),
    ("predict.scalar_ns_per_point_event.gshare", "ns/point-event"),
    ("predict.scalar_ns_per_point_event.local", "ns/point-event"),
    ("predict.scalar_ns_per_point_event.static", "ns/point-event"),
    ("predict.btb_miss_ratio", "ratio"),
    ("predict.lane_ns_per_point_event.cbtb", "ns/point-event"),
    ("predict.lane_ns_per_point_event.gshare", "ns/point-event"),
    ("predict.lane_ns_per_point_event.local", "ns/point-event"),
    ("experiments.sweep_busy_ratio", "ratio"),
    ("experiments.merge_us", "us"),
    ("experiments.lane_point_fraction", "ratio"),
    ("experiments.supervisor_retries", "count"),
    ("server.parse_us", "us"),
    ("server.cache_lookup_us", "us"),
    ("server.queue_wait_us.p50", "us"),
    ("server.queue_wait_us.p99", "us"),
    ("server.compute_ms.p50", "ms"),
    ("server.compute_ms.p99", "ms"),
    ("server.render_us", "us"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.coalesce_ratio", "ratio"),
    ("server.shed_ratio", "ratio"),
    ("serve.p50_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.gen_late_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// The workloads, in run order.
pub const WORKLOADS: &[&str] = &["paper_tables", "suite_sweep", "footprint_sweep", "serve"];

const USAGE: &str =
    "usage: perfbench --workload <paper_tables|suite_sweep|footprint_sweep|serve|all> \
[--seed N] [--seconds N] [--trace 0|1] [--smoke]";

/// Sweep threads, daemon workers and client connections: the host's
/// cores, capped at two so runs on bigger hosts stay comparable.
#[must_use]
pub fn threads() -> usize {
    report::cores().min(2)
}

/// Where traced runs put their Chrome traces (inside the checkout).
pub const OUT_DIR: &str = ".perfbench_out";

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured duration, seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Reduced-size run for the smoke test.
    pub smoke: bool,
}

impl Ctx {
    /// `full`, or the test scale in a smoke run.
    #[must_use]
    pub fn scale(&self, full: Scale) -> Scale {
        if self.smoke {
            Scale::Test
        } else {
            full
        }
    }

    /// Path of a file this run writes under [`OUT_DIR`].
    #[must_use]
    pub fn out_file(&self, suffix: &str) -> PathBuf {
        PathBuf::from(OUT_DIR).join(format!("{}-seed{}{suffix}", self.workload, self.seed))
    }
}

enum Parsed {
    Run(Ctx),
    Help,
}

fn parse_args(args: &[String]) -> Result<Parsed, String> {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 1989,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--help" | "-h" => return Ok(Parsed::Help),
            "--workload" => ctx.workload = value()?.clone(),
            "--seed" => {
                let v = value()?;
                ctx.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a non-negative integer"))?;
            }
            "--seconds" => {
                let v = value()?;
                ctx.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds: `{v}` is not a duration in (0, 3600]"))?;
            }
            "--trace" => {
                ctx.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is not 0 or 1")),
                }
            }
            "--smoke" => ctx.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if ctx.workload.is_empty() {
        ctx.workload = "all".to_string();
    }
    if ctx.workload != "all" && !WORKLOADS.contains(&ctx.workload.as_str()) {
        return Err(format!("unknown workload `{}`", ctx.workload));
    }
    Ok(Parsed::Run(ctx))
}

fn scale_label(ctx: &Ctx) -> &'static str {
    let full = match ctx.workload.as_str() {
        "footprint_sweep" => Scale::Paper,
        "serve" => Scale::Test,
        _ => Scale::Small,
    };
    branchlab::experiments::trace_replay::scale_name(ctx.scale(full))
}

/// Run one workload in this process and print its result line.
fn run_one(ctx: &Ctx) -> ExitCode {
    let mut out = Outcome::default();
    report::pin_malloc_thresholds(&mut out);
    let ran = match ctx.workload.as_str() {
        "paper_tables" => paper_tables::run(ctx, &mut out),
        "suite_sweep" => sweeps::run(ctx, &sweeps::SUITE_SWEEP, &mut out),
        "footprint_sweep" => sweeps::run(ctx, &sweeps::FOOTPRINT_SWEEP, &mut out),
        "serve" => serve::run(ctx, &mut out),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {}: {e}", ctx.workload);
        return ExitCode::FAILURE;
    }
    let names = if ctx.trace { PER_LAYER } else { END_TO_END };
    let result = out.result_json(names);
    let info = report::system_info(&ctx.workload, scale_label(ctx), ctx.seed, ctx.trace);
    eprintln!("{}", report::markdown(&info, &out));
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}

/// `--workload all`: every workload untraced then traced, each in a
/// child process, with a summary table and one combined result line.
fn run_all(ctx: &Ctx) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate own executable");
        return ExitCode::FAILURE;
    };
    let mut results = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0i64, 0i64, true);
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &ctx.seed.to_string()])
                .args(["--seconds", &ctx.seconds.to_string(), "--trace", trace])
                .stderr(std::process::Stdio::inherit());
            if ctx.smoke {
                cmd.arg("--smoke");
            }
            let output = match cmd.output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("perfbench: spawning {workload}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let parsed = stdout.lines().last().and_then(|l| json::parse(l).ok());
            let Some(line) = parsed.filter(|_| output.status.success()) else {
                eprintln!("perfbench: {workload} (trace {trace}) produced no result");
                return ExitCode::FAILURE;
            };
            attempted += line
                .get("attempted")
                .and_then(JsonValue::as_int)
                .unwrap_or(0);
            failed += line.get("failed").and_then(JsonValue::as_int).unwrap_or(0);
            correct &= line
                .get("correct")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false);
            results.push((format!("{workload}/trace{trace}"), line));
        }
    }
    let mut table =
        String::from("\n## Summary\n\n| Run | Metric | Value | Unit |\n|---|---|---:|---|\n");
    for (run, line) in &results {
        if let Some(JsonValue::Obj(metrics)) = line.get("metrics") {
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("");
                table.push_str(&format!("| {run} | {name} | {value:.6} | {unit} |\n"));
            }
        }
    }
    eprintln!("{table}");
    let combined = JsonValue::obj(vec![
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("workloads", JsonValue::Obj(results)),
    ]);
    println!("{}", combined.to_json());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Parsed::Help) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Parsed::Run(ctx)) if ctx.workload == "all" => run_all(&ctx),
        Ok(Parsed::Run(ctx)) => run_one(&ctx),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
