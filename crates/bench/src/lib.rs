//! # branchlab-bench
//!
//! The benchmark harness: one binary per paper artifact —
//! `table1` … `table5`, `fig3`, `fig4`, an `ablation` binary for the
//! extension studies, and a `report` binary that regenerates everything
//! in one run (used to produce EXPERIMENTS.md). Std-only timing benches
//! (under `benches/`) cover the interpreter, the predictors, and the
//! Forward Semantic transform.
//!
//! Every table/figure binary parses the same [`FLAGS`] into
//! [`Options`] through the shared [`cli`] layer (`<bin> --help` lists
//! them; `ablation` takes only [`STUDY_FLAGS`]), among them:
//!
//! * `--scale test|small|paper` (default `small`)
//! * `--seed N` (default 1989)
//! * `--markdown` / `--csv` output formats (default fixed-width text)
//! * `--telemetry-out DIR` — write a run manifest (`manifest.json`)
//!   plus metrics snapshots (`metrics.jsonl`, `metrics.prom`) with
//!   per-benchmark phase timings and per-site predictor counters
//! * `--trace-cache DIR` — persist captured branch traces on disk
//!   (hash-validated; stale or corrupt entries degrade to re-capture)
//! * `--no-trace-replay` — re-interpret every sweep point instead of
//!   replaying captured traces (the slow baseline)
//! * `--sweep-threads N` — score sweep points on N worker threads
//!   (default: `BRANCHLAB_SWEEP_THREADS`, else the machine's available
//!   parallelism); results are bit-identical at any thread count
//! * `--trace-out FILE` — write the run's per-benchmark phase
//!   timelines as Chrome trace-event JSON (open in Perfetto or
//!   `chrome://tracing`); off by default, so benchmark numbers are
//!   never perturbed by tracing
//!
//! Exit status: 0 on success or `--help`, 1 when the run failed or is
//! partial ([`EXIT_PARTIAL`]), 2 on a usage error.

#![warn(missing_docs)]

use std::path::PathBuf;
use std::time::Duration;

use branchlab::experiments::{
    run_suite_supervised, BenchResult, ExperimentConfig, SuiteResult, SupervisorConfig, Table,
};
use branchlab::predict::PredStats;
use branchlab::telemetry::cli::{self, Args, CliError, Flag};
use branchlab::telemetry::manifest::BenchmarkRecord;
use branchlab::telemetry::{JsonValue, MetricsRegistry, RunManifest};
use branchlab::workloads::{benchmark, Benchmark, Scale};

pub mod timing;

/// Sites listed in the manifest's per-predictor top-mispredicted table.
pub const MANIFEST_TOP_K_SITES: usize = 10;

/// Output format selected on the command line.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Format {
    /// Fixed-width text (default).
    Text,
    /// GitHub-flavored markdown.
    Markdown,
    /// Comma-separated values.
    Csv,
}

/// Parsed command-line options shared by all bench binaries.
#[derive(Clone, Debug)]
pub struct Options {
    /// Experiment configuration (scale, seed, fault injection, …).
    pub config: ExperimentConfig,
    /// Supervision policy (retries, watchdog, checkpoint/resume).
    pub supervisor: SupervisorConfig,
    /// Output format.
    pub format: Format,
    /// Directory for the run manifest and metrics snapshots; also turns
    /// on per-site predictor telemetry.
    pub telemetry_out: Option<PathBuf>,
    /// File for the run's Chrome trace-event export (phase timelines
    /// per benchmark; `None` disables the export).
    pub trace_out: Option<PathBuf>,
}

/// Every flag of the table/figure binaries. `ablation` accepts the
/// first eight ([`STUDY_FLAGS`]): it never runs the supervised suite,
/// so the rest would be ignored.
pub const FLAGS: &[Flag] = &[
    ("--scale", Scale::NAMES),
    ("--seed", "N"),
    ("--markdown", ""),
    ("--csv", ""),
    ("--trace-out", "FILE"),
    ("--trace-cache", "DIR"),
    ("--no-trace-replay", ""),
    ("--sweep-threads", "N"),
    ("--no-verify", ""),
    ("--telemetry-out", "DIR"),
    ("--max-attempts", "N"),
    ("--backoff-ms", "N"),
    ("--watchdog-ms", "N"),
    ("--checkpoint", "FILE"),
    ("--resume", ""),
    ("--fault-exec-rate", "R"),
    ("--fault-panic-rate", "R"),
    ("--fault-delay-rate", "R"),
    ("--fault-delay-ms", "N"),
    ("--fault-seed", "N"),
    ("--fault-benches", "A,B,..."),
];

/// The `--benches` value of `replay_bench`, `btb_bench` and
/// `serve_bench` as shipped benchmarks, so an unknown name is a usage
/// error while parsing rather than a panic mid-run.
///
/// # Errors
/// [`CliError::BadValue`] naming the first unknown benchmark.
pub fn benches_flag(args: &mut Args) -> Result<Vec<&'static Benchmark>, CliError> {
    args.list()?
        .into_iter()
        .map(|name| {
            benchmark(&name).ok_or(CliError::BadValue(
                "--benches",
                name,
                "a comma list of benchmark names",
            ))
        })
        .collect()
}

/// The flags of `ablation`, a prefix of [`FLAGS`].
pub const STUDY_FLAGS: &[Flag] = FLAGS.split_at(8).0;

impl Options {
    /// Parse an explicit argument list (everything after the binary
    /// name) against [`FLAGS`].
    ///
    /// # Errors
    /// A [`CliError`] naming the flag at fault.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, CliError> {
        Self::parse_from(&mut Args::new(args, FLAGS))
    }

    /// Parse the flags under a cursor; the suite binaries hand this to
    /// [`cli::parse_env`] with [`FLAGS`] or [`STUDY_FLAGS`].
    ///
    /// # Errors
    /// A [`CliError`] naming the flag at fault.
    pub fn parse_from(args: &mut Args) -> Result<Self, CliError> {
        let mut o = Options {
            config: ExperimentConfig::default(),
            supervisor: SupervisorConfig::default(),
            format: Format::Text,
            telemetry_out: None,
            trace_out: None,
        };
        let (config, supervisor) = (&mut o.config, &mut o.supervisor);
        while let Some(flag) = args.next_flag()? {
            match flag {
                "--scale" => config.scale = args.value()?,
                "--seed" => config.seed = args.value()?,
                "--markdown" => o.format = Format::Markdown,
                "--csv" => o.format = Format::Csv,
                "--trace-out" => o.trace_out = Some(args.value()?),
                "--trace-cache" => config.trace_cache_dir = Some(args.value()?),
                "--no-trace-replay" => config.use_trace_replay = false,
                "--sweep-threads" => config.sweep_threads = Some(args.value::<usize>()?.max(1)),
                "--no-verify" => config.verify_equivalence = false,
                "--telemetry-out" => {
                    config.collect_site_telemetry = true;
                    o.telemetry_out = Some(args.value()?);
                }
                "--max-attempts" => supervisor.max_attempts = args.value::<u32>()?.max(1),
                "--backoff-ms" => supervisor.backoff_base = Duration::from_millis(args.value()?),
                "--watchdog-ms" => {
                    supervisor.watchdog = Some(Duration::from_millis(args.value()?));
                }
                "--checkpoint" => supervisor.checkpoint = Some(args.value()?),
                "--resume" => supervisor.resume = true,
                "--fault-exec-rate" => config.fault.exec_error_rate = args.rate()?,
                "--fault-panic-rate" => config.fault.panic_rate = args.rate()?,
                "--fault-delay-rate" => config.fault.delay_rate = args.rate()?,
                "--fault-delay-ms" => config.fault.delay = Duration::from_millis(args.value()?),
                "--fault-seed" => config.fault.seed = args.value()?,
                "--fault-benches" => config.fault.benches = args.list()?,
                other => return Err(CliError::Unknown(other.into())),
            }
        }
        Ok(o)
    }

    /// Render a table in the selected format.
    #[must_use]
    pub fn render(&self, table: &Table) -> String {
        match self.format {
            Format::Text => table.to_text(),
            Format::Markdown => table.to_markdown(),
            Format::Csv => table.to_csv(),
        }
    }
}

/// Process exit code for a suite with at least one failed benchmark.
pub const EXIT_PARTIAL: i32 = 1;

/// Run the full supervised suite with progress and failure diagnostics
/// to stderr. Never panics on benchmark failure: failed benches come
/// back as [`SuiteResult::failures`] records (check
/// [`SuiteResult::is_complete`], or let [`artifact_main`] turn them
/// into a non-zero exit).
#[must_use]
pub fn suite(options: &Options) -> SuiteResult {
    eprintln!(
        "running 12-benchmark suite (scale {:?}, seed {}) …",
        options.config.scale, options.config.seed
    );
    if options.config.fault.enabled() {
        eprintln!(
            "fault injection armed: exec {:.2} / panic {:.2} / delay {:.2} (seed {})",
            options.config.fault.exec_error_rate,
            options.config.fault.panic_rate,
            options.config.fault.delay_rate,
            options.config.fault.seed
        );
    }
    let start = std::time::Instant::now();
    let suite = run_suite_supervised(&options.config, &options.supervisor);
    let insts: u64 = suite.benches.iter().map(|b| b.stats.insts).sum();
    let sup = &suite.supervisor;
    eprintln!(
        "done in {:.1}s ({:.1}M dynamic instructions; {} completed, {} failed, {} resumed, {} retries)",
        start.elapsed().as_secs_f64(),
        insts as f64 / 1e6,
        sup.completed,
        sup.failed,
        sup.resumed,
        sup.retries,
    );
    for f in &suite.failures {
        eprintln!("  {f}");
    }
    suite
}

/// The shared main of every table/figure binary: parse the command
/// line, run the supervised suite, hand it to `emit` for rendering,
/// and — when `--telemetry-out` was given — write the run manifest and
/// metrics snapshots. Exits with [`EXIT_PARTIAL`] (after rendering the
/// partial tables and telemetry) when any benchmark failed.
///
/// # Panics
/// Panics on an unwritable telemetry directory (these binaries are
/// terminal tools); benchmark failures degrade instead of panicking.
pub fn artifact_main(tool: &str, emit: impl FnOnce(&Options, &SuiteResult)) {
    let options = cli::parse_env(tool, FLAGS, Options::parse_from);
    let suite = suite(&options);
    emit(&options, &suite);
    if let Some(dir) = &options.telemetry_out {
        let path = write_telemetry(tool, &options, &suite, dir)
            .unwrap_or_else(|e| panic!("writing telemetry to {} failed: {e}", dir.display()));
        eprintln!("telemetry manifest written to {}", path.display());
    }
    if let Some(path) = &options.trace_out {
        std::fs::write(path, suite_chrome_trace(tool, &suite).to_json_pretty())
            .unwrap_or_else(|e| panic!("writing Chrome trace to {} failed: {e}", path.display()));
        eprintln!("Chrome trace written to {}", path.display());
    }
    if !suite.is_complete() {
        eprintln!(
            "{tool}: partial results — {} of {} benchmarks failed",
            suite.failures.len(),
            suite.failures.len() + suite.benches.len()
        );
        std::process::exit(EXIT_PARTIAL);
    }
}

/// Render a suite run as a Chrome trace-event document: one process
/// row per benchmark (its compile/profile/evaluate phase timeline)
/// plus rows for the process-wide trace-replay and parallel-sweep
/// counters. Openable in Perfetto / `chrome://tracing`.
#[must_use]
pub fn suite_chrome_trace(tool: &str, suite: &SuiteResult) -> JsonValue {
    let mut groups: Vec<(String, Vec<branchlab::telemetry::PhaseSpan>)> = suite
        .benches
        .iter()
        .map(|b| (b.name.to_string(), b.phases.clone()))
        .collect();
    let trace_spans = branchlab::experiments::TraceStats::snapshot().phase_spans();
    if !trace_spans.is_empty() {
        groups.push(("suite: trace replay".to_string(), trace_spans));
    }
    let sweep_spans = branchlab::experiments::SweepStats::snapshot().phase_spans();
    if !sweep_spans.is_empty() {
        groups.push(("suite: parallel sweep".to_string(), sweep_spans));
    }
    branchlab::telemetry::phases_chrome_trace(tool, &groups)
}

/// Prediction scoring as a JSON object for the manifest.
fn pred_json(stats: &PredStats) -> JsonValue {
    JsonValue::obj(vec![
        ("events", stats.events.into()),
        ("correct", stats.correct.into()),
        ("accuracy", stats.accuracy().into()),
        ("btb_lookups", stats.btb_lookups.into()),
        ("btb_misses", stats.btb_misses.into()),
        ("miss_ratio", stats.miss_ratio().into()),
    ])
}

/// Scoring plus per-site counters for one BTB scheme.
fn btb_json(stats: &PredStats, sites: &branchlab::telemetry::SiteProbe) -> JsonValue {
    JsonValue::obj(vec![
        ("stats", pred_json(stats)),
        ("sites", sites.to_json_value(MANIFEST_TOP_K_SITES)),
    ])
}

/// One benchmark's manifest record: phase spans plus per-predictor
/// summaries.
fn bench_record(b: &BenchResult) -> BenchmarkRecord {
    BenchmarkRecord {
        name: b.name.to_string(),
        phases: b.phases.clone(),
        predictors: vec![
            ("sbtb".into(), btb_json(&b.sbtb, &b.sbtb_sites)),
            ("cbtb".into(), btb_json(&b.cbtb, &b.cbtb_sites)),
            ("fs".into(), pred_json(&b.fs)),
            ("always_taken".into(), pred_json(&b.always_taken)),
            ("always_not_taken".into(), pred_json(&b.always_not_taken)),
            ("btfn".into(), pred_json(&b.btfn)),
        ],
    }
}

/// Write `manifest.json`, `metrics.jsonl`, and `metrics.prom` for a
/// suite run under `dir`. Returns the manifest path.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_telemetry(
    tool: &str,
    options: &Options,
    suite: &SuiteResult,
    dir: &std::path::Path,
) -> std::io::Result<PathBuf> {
    let mut manifest = RunManifest::new(tool);
    let cfg = &options.config;
    manifest.set_config("scale", cfg.scale.name());
    manifest.set_config("seed", cfg.seed);
    manifest.set_config("fs_slots", u64::from(cfg.fs_slots));
    manifest.set_config("cbtb_strict", cfg.cbtb_strict);
    manifest.set_config("verify_equivalence", cfg.verify_equivalence);
    if cfg.fault.enabled() {
        manifest.set_config("fault_seed", cfg.fault.seed);
        manifest.set_config("fault_exec_rate", cfg.fault.exec_error_rate);
        manifest.set_config("fault_panic_rate", cfg.fault.panic_rate);
        manifest.set_config("fault_delay_rate", cfg.fault.delay_rate);
    }
    manifest.set_config("max_attempts", u64::from(options.supervisor.max_attempts));

    let registry = MetricsRegistry::new();
    for (name, value) in suite.supervisor.counters() {
        registry.counter(&format!("suite.{name}")).add(value);
    }
    let trace = branchlab::experiments::TraceStats::snapshot();
    trace.export(&registry);
    manifest.set_section("trace", trace.to_json_value());
    let sweep = branchlab::experiments::SweepStats::snapshot();
    sweep.export(&registry);
    let mut sweep_json = sweep.to_json_value();
    if let JsonValue::Obj(fields) = &mut sweep_json {
        fields.push((
            "configured_threads".to_string(),
            JsonValue::from(cfg.resolved_sweep_threads() as u64),
        ));
    }
    manifest.set_section("sweep_parallel", sweep_json);
    for span in sweep.phase_spans() {
        registry
            .counter(&format!("suite.sweep.parallel.phase.{}.wall_us", span.name))
            .add(span.wall.as_micros().min(u128::from(u64::MAX)) as u64);
    }
    let lanes = branchlab::experiments::LaneStats::snapshot();
    lanes.export(&registry);
    manifest.set_section("sweep_lanes", lanes.to_json_value());
    manifest.set_section(
        "supervisor",
        JsonValue::Obj(
            suite
                .supervisor
                .counters()
                .iter()
                .map(|(k, v)| ((*k).to_string(), JsonValue::from(*v)))
                .collect(),
        ),
    );
    manifest.set_section(
        "failures",
        JsonValue::Arr(
            suite
                .failures
                .iter()
                .map(|f| {
                    JsonValue::obj(vec![
                        ("bench", f.name.as_str().into()),
                        ("error", f.error.as_str().into()),
                        ("class", f.class.to_string().into()),
                        ("attempts", u64::from(f.attempts).into()),
                        ("elapsed_ms", (f.elapsed.as_millis() as u64).into()),
                    ])
                })
                .collect(),
        ),
    );
    for f in &suite.failures {
        registry.counter(&format!("bench.{}.failed", f.name)).inc();
        registry
            .counter(&format!("bench.{}.attempts", f.name))
            .add(u64::from(f.attempts));
    }
    for b in &suite.benches {
        manifest.push_benchmark(bench_record(b));
        b.stats.export(&registry, &format!("bench.{}.exec", b.name));
        for (scheme, stats) in [("sbtb", &b.sbtb), ("cbtb", &b.cbtb), ("fs", &b.fs)] {
            let prefix = format!("bench.{}.{scheme}", b.name);
            registry
                .counter(&format!("{prefix}.events"))
                .add(stats.events);
            registry
                .counter(&format!("{prefix}.correct"))
                .add(stats.correct);
            registry
                .counter(&format!("{prefix}.mispredicts"))
                .add(stats.events - stats.correct);
        }
        for phase in &b.phases {
            registry
                .counter(&format!("bench.{}.phase.{}.wall_us", b.name, phase.name))
                .add(phase.wall.as_micros().min(u128::from(u64::MAX)) as u64);
        }
    }
    manifest.write_to(dir, Some(&registry.snapshot()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_small_scale() {
        let o = Options::parse(Vec::new()).unwrap();
        assert_eq!(o.config.seed, 1989);
        assert!(matches!(o.config.scale, Scale::Small));
        assert!(o.telemetry_out.is_none());
        assert!(!o.config.collect_site_telemetry);
        assert!(!o.config.fault.enabled());
        assert_eq!(o.supervisor, SupervisorConfig::default());
    }

    #[test]
    fn supervisor_and_fault_flags_parse() {
        let o = Options::parse(
            [
                "--max-attempts",
                "5",
                "--backoff-ms",
                "7",
                "--watchdog-ms",
                "250",
                "--checkpoint",
                "/tmp/ck.jsonl",
                "--resume",
                "--fault-exec-rate",
                "0.25",
                "--fault-panic-rate",
                "0.5",
                "--fault-delay-rate",
                "1.0",
                "--fault-delay-ms",
                "9",
                "--fault-seed",
                "77",
                "--fault-benches",
                "wc, grep",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(o.supervisor.max_attempts, 5);
        assert_eq!(o.supervisor.backoff_base, Duration::from_millis(7));
        assert_eq!(o.supervisor.watchdog, Some(Duration::from_millis(250)));
        assert_eq!(
            o.supervisor.checkpoint.as_deref(),
            Some(std::path::Path::new("/tmp/ck.jsonl"))
        );
        assert!(o.supervisor.resume);
        let fault = &o.config.fault;
        assert!(fault.enabled());
        assert_eq!(fault.exec_error_rate, 0.25);
        assert_eq!(fault.panic_rate, 0.5);
        assert_eq!(fault.delay_rate, 1.0);
        assert_eq!(fault.delay, Duration::from_millis(9));
        assert_eq!(fault.seed, 77);
        assert_eq!(fault.benches, vec!["wc".to_string(), "grep".to_string()]);
    }

    #[test]
    fn out_of_range_rates_rejected() {
        let err = Options::parse(["--fault-exec-rate".to_string(), "1.5".to_string()]).unwrap_err();
        assert!(
            matches!(err, CliError::BadValue("--fault-exec-rate", _, _)),
            "{err:?}"
        );
        assert!(err.to_string().contains("rate in [0, 1]"), "{err}");
    }

    #[test]
    fn all_flags_parse() {
        let o = Options::parse(
            [
                "--scale",
                "test",
                "--seed",
                "7",
                "--csv",
                "--no-verify",
                "--telemetry-out",
                "/tmp/t",
            ]
            .map(String::from),
        )
        .unwrap();
        assert!(matches!(o.config.scale, Scale::Test));
        assert_eq!(o.config.seed, 7);
        assert_eq!(o.format, Format::Csv);
        assert!(!o.config.verify_equivalence);
        assert_eq!(
            o.telemetry_out.as_deref(),
            Some(std::path::Path::new("/tmp/t"))
        );
        assert!(
            o.config.collect_site_telemetry,
            "--telemetry-out enables site probes"
        );
    }

    #[test]
    fn unknown_flag_rejected() {
        let err = Options::parse(["--bogus".to_string()]).unwrap_err();
        assert_eq!(err, CliError::Unknown("--bogus".to_string()));
        assert!(err.to_string().contains("unknown argument"), "{err}");
    }

    #[test]
    fn sweep_threads_flag_parses_and_clamps() {
        let o = Options::parse(Vec::new()).unwrap();
        assert!(
            o.config.sweep_threads.is_none(),
            "default defers to env/cores"
        );
        let o = Options::parse(["--sweep-threads", "6"].map(String::from)).unwrap();
        assert_eq!(o.config.sweep_threads, Some(6));
        assert_eq!(o.config.resolved_sweep_threads(), 6);
        let o = Options::parse(["--sweep-threads", "0"].map(String::from)).unwrap();
        assert_eq!(o.config.sweep_threads, Some(1), "0 clamps to serial");
    }

    #[test]
    fn trace_flags_parse() {
        let o = Options::parse(Vec::new()).unwrap();
        assert!(o.config.use_trace_replay, "replay is the default");
        assert!(o.config.trace_cache_dir.is_none());
        let o =
            Options::parse(["--trace-cache", "/tmp/traces", "--no-trace-replay"].map(String::from))
                .unwrap();
        assert!(!o.config.use_trace_replay);
        assert_eq!(
            o.config.trace_cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/traces"))
        );
    }

    #[test]
    fn trace_out_flag_parses_and_defaults_off() {
        let o = Options::parse(Vec::new()).unwrap();
        assert!(o.trace_out.is_none(), "tracing export is opt-in");
        let o = Options::parse(["--trace-out", "/tmp/run.trace.json"].map(String::from)).unwrap();
        assert_eq!(
            o.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/run.trace.json"))
        );
    }

    #[test]
    fn every_listed_flag_is_handled() {
        for (name, value) in FLAGS {
            let sample = match *value {
                "" => None,
                "N" => Some("1"),
                "R" => Some("0.5"),
                "A,B,..." => Some("wc"),
                v if v == Scale::NAMES => Some("test"),
                _ => Some("/tmp/x"),
            };
            let line = std::iter::once(name.to_string()).chain(sample.map(String::from));
            assert!(Options::parse(line).is_ok(), "{name}");
        }
    }

    #[test]
    fn render_selects_format() {
        let mut t = Table::new("t", &["a"]);
        t.row(vec!["1".into()]);
        let mut o = Options::parse(Vec::new()).unwrap();
        o.format = Format::Csv;
        assert!(o.render(&t).starts_with("a\n"));
        o.format = Format::Markdown;
        assert!(o.render(&t).contains("| a |"));
    }
}
