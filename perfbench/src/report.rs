//! Result assembly: named metrics with units and sample counts, the
//! ledger of attempted and failed operations, summary statistics, the
//! system-information block, output digests and peak memory.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use branchlab::telemetry::JsonValue;

/// One measured quantity.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string (`ms`, `1/s`, `ns/event`, …).
    pub unit: &'static str,
    /// How many samples the value summarises.
    pub samples: usize,
}

/// Everything one workload run produced: its metrics and the
/// operations it attempted, with how many of them failed a check.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (regenerations, sweep batches, requests,
    /// set-up passes, output checks).
    pub attempted: u64,
    /// Attempted operations that errored or failed a check.
    pub failed: u64,
    /// Metrics in the order they were recorded.
    pub metrics: Vec<Metric>,
    /// Free-form `key = value` facts for the report (request-mix
    /// shares, digests, …).
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Record the workload's throughput under its own name and unit, and
    /// as the bounded `ops_per_s` every workload reports.
    pub fn throughput(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metric(name, value, unit, samples);
        self.metric("ops_per_s", value, "ops/s", samples);
    }

    /// Record a fact for the human-readable report.
    pub fn fact(&mut self, key: &str, value: impl std::fmt::Display) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// Count one operation; a `false` outcome is a failed op and is
    /// explained on stderr. Returns `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
        ok
    }

    /// Count one operation from a `Result`, returning its value.
    pub fn try_op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.op(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.op(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Count `n` operations that all succeeded.
    pub fn ok_ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, restricted to `names` in that order. A listed metric
    /// the run did not produce counts as a failed operation.
    pub fn result_json(&mut self, names: &[(&str, &str)]) -> JsonValue {
        let mut metrics = Vec::new();
        for &(name, unit) in names {
            let found = self
                .metrics
                .iter()
                .find(|m| m.name == name && m.value.is_finite());
            match found {
                Some(m) if m.unit == unit => metrics.push((
                    name.to_string(),
                    JsonValue::obj(vec![("value", m.value.into()), ("unit", unit.into())]),
                )),
                _ => {
                    self.op(false, || {
                        format!("metric `{name}` ({unit}) was not measured")
                    });
                }
            }
        }
        JsonValue::obj(vec![
            ("correct", (self.failed == 0).into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", JsonValue::Obj(metrics)),
        ])
    }
}

/// Median of `xs` (NaN when empty).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile `p` ∈ (0, 1] of `xs` (NaN when empty).
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Seconds since `t`.
#[must_use]
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// FNV-1a 64-bit hash.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The committed digest for `(workload, seed)`, if one is recorded in
/// `digests.txt`.
#[must_use]
fn committed_digest(workload: &str, seed: u64) -> Option<&'static str> {
    include_str!("../digests.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let mut f = l.split_whitespace();
            let (w, s, d) = (f.next()?, f.next()?, f.next()?);
            (w == workload && s.parse() == Ok(seed)).then_some(d)
        })
}

/// Compare a run's output digest with the committed one (one op). Seeds
/// without a committed digest are reported as unchecked, not failed.
pub fn check_digest(out: &mut Outcome, workload: &str, seed: u64, smoke: bool, text: &str) {
    let got = format!("{:016x}", fnv1a(text.as_bytes()));
    out.fact("output_digest", &got);
    if smoke {
        return;
    }
    match committed_digest(workload, seed) {
        Some(want) => {
            out.op(want == got, || {
                format!("{workload} seed {seed}: output digest {got}, committed {want}")
            });
        }
        None => out.fact(
            "output_digest_check",
            "unchecked (no committed digest for this seed)",
        ),
    }
}

/// glibc's mmap and trim thresholds, pinned by [`pin_malloc_thresholds`].
const MALLOC_THRESHOLD_BYTES: i32 = 16 * 1024;

/// Pin glibc's mmap and trim thresholds at [`MALLOC_THRESHOLD_BYTES`]
/// before the workload allocates, so that `peak_rss_mb` follows the
/// program's live memory rather than what the allocator keeps. By
/// default glibc raises both thresholds whenever a large block is
/// freed, after which freed buffers stay resident; how much stays
/// depends on which programs the two sweep threads happened to run
/// together. On `paper_tables` (2-vCPU VM) the per-regeneration peak
/// then ranged over 12–22 MB within one run. Pinned at the 128 KiB
/// default, it ranged over 10–16 MB, with whole runs offset by
/// fragmented 16–128 KiB blocks; pinned at 16 KiB, over 9.3–10.2 MB,
/// at no measurable cost in throughput on any workload.
pub fn pin_malloc_thresholds(out: &mut Outcome) {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only sets allocator parameters; glibc takes
        // the arena lock itself.
        let pinned = unsafe {
            mallopt(M_MMAP_THRESHOLD, MALLOC_THRESHOLD_BYTES) == 1
                && mallopt(M_TRIM_THRESHOLD, MALLOC_THRESHOLD_BYTES) == 1
        };
        out.op(pinned, || {
            "mallopt refused the pinned thresholds".to_string()
        });
        out.fact(
            "malloc_thresholds",
            format!("pinned at {MALLOC_THRESHOLD_BYTES} B"),
        );
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    out.fact("malloc_thresholds", "allocator default (not glibc)");
}

/// This process's resident set size in MiB (`VmRSS`), or NaN where
/// `/proc` is unavailable.
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Samples the resident set every [`RSS_SAMPLE_MS`] on a background
/// thread, so a run reports `peak_rss_mb` as the median over its
/// iterations of each iteration's peak. The run-wide high-water mark
/// would instead depend on which two suite programs happened to overlap
/// in the one worst iteration.
pub struct RssSampler {
    peak_mb: Arc<Mutex<f64>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    peaks: Vec<f64>,
}

/// Resident-set sampling period, milliseconds.
const RSS_SAMPLE_MS: u64 = 5;

impl RssSampler {
    /// Start sampling.
    #[must_use]
    pub fn start() -> Self {
        let peak_mb = Arc::new(Mutex::new(rss_mb()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (peak_mb, stop) = (Arc::clone(&peak_mb), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let now = rss_mb();
                    let mut peak = peak_mb.lock().expect("rss peak lock");
                    *peak = peak.max(now);
                    drop(peak);
                    std::thread::sleep(std::time::Duration::from_millis(RSS_SAMPLE_MS));
                }
            })
        };
        RssSampler {
            peak_mb,
            stop,
            thread: Some(thread),
            peaks: Vec::new(),
        }
    }

    /// Close an iteration: record its peak and start the next from the
    /// current resident set.
    pub fn mark(&mut self) {
        let mut peak = self.peak_mb.lock().expect("rss peak lock");
        self.peaks.push(peak.max(rss_mb()));
        *peak = rss_mb();
    }

    /// Stop sampling, join the thread and record `peak_rss_mb`.
    pub fn finish(mut self, out: &mut Outcome) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            out.op(thread.join().is_ok(), || {
                "resident-set sampler panicked".to_string()
            });
        }
        out.metric("peak_rss_mb", median(&self.peaks), "MB", self.peaks.len());
    }
}

/// Cores the benchmark may use (`available_parallelism`).
#[must_use]
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The system-information block: host, toolchain and run identity.
#[must_use]
pub fn system_info(workload: &str, scale: &str, seed: u64, trace: bool) -> Vec<(String, String)> {
    vec![
        ("Cores".into(), cores().to_string()),
        ("Rust".into(), command_line("rustc", &["--version"])),
        (
            "Commit".into(),
            command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        ),
        ("Workload".into(), workload.to_string()),
        ("Scale".into(), scale.to_string()),
        ("Seed".into(), seed.to_string()),
        ("Traced".into(), trace.to_string()),
    ]
}

/// Render the system block, the metrics and the facts as Markdown
/// tables (the layout of a `BENCHMARKS.md` results page).
#[must_use]
pub fn markdown(info: &[(String, String)], out: &Outcome) -> String {
    let mut s = String::from("## System Information\n\n| Property | Value |\n|---|---|\n");
    for (k, v) in info {
        s.push_str(&format!("| {k} | {v} |\n"));
    }
    s.push_str(&format!(
        "| Ops attempted | {} |\n| Ops failed | {} |\n",
        out.attempted, out.failed
    ));
    s.push_str("\n## Metrics\n\n| Metric | Value | Unit | Samples |\n|---|---:|---|---:|\n");
    for m in &out.metrics {
        s.push_str(&format!(
            "| {} | {:.6} | {} | {} |\n",
            m.name, m.value, m.unit, m.samples
        ));
    }
    if !out.facts.is_empty() {
        s.push_str("\n## Facts\n\n| Key | Value |\n|---|---|\n");
        for (k, v) in &out.facts {
            s.push_str(&format!("| {k} | {v} |\n"));
        }
    }
    s
}
