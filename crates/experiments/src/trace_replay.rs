//! Trace-driven replay: capture each benchmark's dynamic event stream
//! once, then feed every sweep configuration from the captured trace at
//! memory speed.
//!
//! This is the paper's own methodology — the ten Unix benchmarks were
//! traced once and every scheme was scored off those traces — and it
//! turns the sweep cost from O(points × interpret) into
//! O(interpret + points × replay).
//!
//! * [`captured_runs`]: the natural-layout trace of a benchmark, one
//!   [`TraceBuf`] per input run, from (in priority order) the
//!   process-wide in-memory cache, the optional on-disk cache
//!   ([`ExperimentConfig::trace_cache_dir`], hash-validated), or a
//!   fresh capture pass. Keyed by benchmark name + program content
//!   hash + scale + seed ([`TraceKey`]), so a source edit or input
//!   change can never serve a stale trace.
//! * [`replay_runs`]: drive any [`ExecHooks`] sink from the buffers,
//!   run by run, exactly as the live interpreter would have.
//! * [`cached_profile`]: the profiling pass, computed once per key and
//!   shared by the studies that need branch-site statistics.
//! * [`TraceStats`]: process-wide counters (`suite.trace.*` in the
//!   metrics registry) recording cache traffic and capture/replay
//!   wall-clock, from which the bench binaries synthesize `Timeline`
//!   spans.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use branchlab_interp::run;
use branchlab_ir::lower;
use branchlab_profile::{profile_module_with, Profile};
use branchlab_telemetry::{JsonValue, MetricsRegistry, PhaseSpan};
use branchlab_trace::{
    hash_bytes, load_trace, replay, save_trace, Capture, ExecHooks, TraceBuf, TraceKey,
};
use branchlab_workloads::{Benchmark, Scale};

use crate::harness::{ExperimentConfig, ExperimentError};

/// The canonical short name for a scale (`"test"` / `"small"` /
/// `"paper"`), as used in trace keys and request canonicalization.
#[must_use]
pub fn scale_name(scale: Scale) -> &'static str {
    scale.name()
}

/// The cache key identifying one benchmark's trace under one input
/// configuration.
#[must_use]
pub fn trace_key(bench: &Benchmark, config: &ExperimentConfig) -> TraceKey {
    TraceKey {
        bench: bench.name.to_string(),
        program_hash: hash_bytes(bench.source.as_bytes()),
        scale: scale_name(config.scale).to_string(),
        seed: config.seed,
    }
}

type TraceMap = Mutex<HashMap<TraceKey, Arc<Vec<TraceBuf>>>>;
type ProfileMap = Mutex<HashMap<TraceKey, Arc<Profile>>>;

fn trace_map() -> &'static TraceMap {
    static MAP: OnceLock<TraceMap> = OnceLock::new();
    MAP.get_or_init(|| Mutex::new(HashMap::new()))
}

fn profile_map() -> &'static ProfileMap {
    static MAP: OnceLock<ProfileMap> = OnceLock::new();
    MAP.get_or_init(|| Mutex::new(HashMap::new()))
}

macro_rules! counters {
    ($($name:ident),* $(,)?) => {
        // Cell names intentionally mirror the snake_case field/metric
        // names they back.
        #[allow(non_upper_case_globals)]
        mod counter_cells {
            use super::AtomicU64;
            $(pub static $name: AtomicU64 = AtomicU64::new(0);)*
        }

        /// A snapshot of the process-wide trace-engine counters.
        #[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
        #[allow(missing_docs)] // field names mirror the metric names below
        pub struct TraceStats {
            $(pub $name: u64,)*
        }

        impl TraceStats {
            /// Current counter values.
            #[must_use]
            pub fn snapshot() -> TraceStats {
                TraceStats {
                    $($name: counter_cells::$name.load(Ordering::Relaxed),)*
                }
            }

            /// The counters as `(name, value)` pairs, for metrics
            /// export under a `suite.trace.` prefix.
            #[must_use]
            pub fn counters(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)*]
            }

            /// Counter deltas since `earlier` (per-phase accounting
            /// for one sweep or one bench run).
            #[must_use]
            pub fn since(&self, earlier: &TraceStats) -> TraceStats {
                TraceStats {
                    $($name: self.$name.saturating_sub(earlier.$name),)*
                }
            }
        }
    };
}

counters!(
    captures,
    memory_hits,
    disk_hits,
    disk_invalid,
    replays,
    events_captured,
    events_replayed,
    capture_us,
    replay_us,
    profile_computes,
    profile_hits,
);

fn bump(cell: &AtomicU64, by: u64) {
    cell.fetch_add(by, Ordering::Relaxed);
}

impl TraceStats {
    /// Export every counter as `suite.trace.<name>` into a metrics
    /// registry.
    pub fn export(&self, registry: &MetricsRegistry) {
        for (name, value) in self.counters() {
            registry.counter(&format!("suite.trace.{name}")).add(value);
        }
    }

    /// JSON object form for run manifests.
    #[must_use]
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Obj(
            self.counters()
                .into_iter()
                .map(|(k, v)| (k.to_string(), JsonValue::from(v)))
                .collect(),
        )
    }

    /// Synthesize `Timeline`-style capture/replay spans from the
    /// accumulated wall-clock counters.
    #[must_use]
    pub fn phase_spans(&self) -> Vec<PhaseSpan> {
        vec![
            PhaseSpan {
                name: "trace_capture".to_string(),
                wall: std::time::Duration::from_micros(self.capture_us),
                work: self.events_captured,
            },
            PhaseSpan {
                name: "trace_replay".to_string(),
                wall: std::time::Duration::from_micros(self.replay_us),
                work: self.events_replayed,
            },
        ]
    }
}

/// Drop every in-memory cached trace and profile (tests use this to
/// force re-capture; the on-disk cache is untouched).
pub fn clear_cache() {
    trace_map().lock().expect("trace cache lock").clear();
    profile_map().lock().expect("profile cache lock").clear();
}

/// Capture the benchmark's event stream by running the conventional
/// binary over every input run with a [`Capture`] sink.
fn capture(bench: &Benchmark, config: &ExperimentConfig) -> Result<Vec<TraceBuf>, ExperimentError> {
    let started = Instant::now();
    let module = bench.compile()?;
    let program = lower(&module)?;
    let exec_cfg = config.exec_config();
    let mut bufs = Vec::new();
    let mut events = 0u64;
    for streams in bench.runs(config.scale, config.seed) {
        let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
        let mut cap = Capture::new();
        run(&program, &exec_cfg, &refs, &mut cap)?;
        let buf = cap.into_buf();
        events += buf.events();
        bufs.push(buf);
    }
    bump(&counter_cells::captures, 1);
    bump(&counter_cells::events_captured, events);
    bump(
        &counter_cells::capture_us,
        started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
    );
    Ok(bufs)
}

/// The benchmark's per-run trace buffers: in-memory cache first, then
/// the hash-validated on-disk cache (when
/// [`ExperimentConfig::trace_cache_dir`] is set), then a fresh capture
/// pass — which populates both caches for the next caller.
///
/// An unreadable, corrupt, or stale on-disk entry is counted
/// (`disk_invalid`) and silently degrades to re-capture; a failed
/// best-effort save never fails the experiment.
///
/// # Errors
/// Returns [`ExperimentError`] when the capture pipeline
/// (compile/lower/run) fails.
pub fn captured_runs(
    bench: &Benchmark,
    config: &ExperimentConfig,
) -> Result<Arc<Vec<TraceBuf>>, ExperimentError> {
    let key = trace_key(bench, config);
    if let Some(hit) = trace_map().lock().expect("trace cache lock").get(&key) {
        bump(&counter_cells::memory_hits, 1);
        return Ok(Arc::clone(hit));
    }

    let disk_path = config
        .trace_cache_dir
        .as_ref()
        .map(|d| d.join(key.file_name()));
    if let Some(path) = &disk_path {
        match load_trace(path, &key) {
            Ok(Some(runs)) => {
                bump(&counter_cells::disk_hits, 1);
                let runs = Arc::new(runs);
                trace_map()
                    .lock()
                    .expect("trace cache lock")
                    .insert(key, Arc::clone(&runs));
                return Ok(runs);
            }
            Ok(None) => {}
            Err(_) => bump(&counter_cells::disk_invalid, 1),
        }
    }

    let runs = Arc::new(capture(bench, config)?);
    if let Some(path) = &disk_path {
        let _ = save_trace(path, &key, &runs);
    }
    trace_map()
        .lock()
        .expect("trace cache lock")
        .insert(key, Arc::clone(&runs));
    Ok(runs)
}

/// Replay every run's buffer into `hooks`, in run order, with no state
/// reset between runs — exactly the event sequence the live
/// interpreter would have delivered. Returns the total event count.
///
/// # Errors
/// Returns [`ExperimentError::Trace`] on a malformed buffer (impossible
/// for buffers produced by [`Capture`]; reachable only through cache
/// corruption that slipped past the checksum).
pub fn replay_runs<H: ExecHooks>(runs: &[TraceBuf], hooks: &mut H) -> Result<u64, ExperimentError> {
    let started = Instant::now();
    let mut events = 0u64;
    for buf in runs {
        events += replay(buf, hooks).map_err(|e| ExperimentError::Trace(e.to_string()))?;
    }
    note_replay(
        events,
        started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
    );
    Ok(events)
}

/// Credit the trace counters with one replay pass: `events` decoded in
/// `wall_us`. The sweep executor decodes the shared buffers itself,
/// once per pass, and reports its decode time here so `suite.trace.*`
/// stays an honest account of replay work.
pub(crate) fn note_replay(events: u64, wall_us: u64) {
    bump(&counter_cells::replays, 1);
    bump(&counter_cells::events_replayed, events);
    bump(&counter_cells::replay_us, wall_us);
}

/// The benchmark's profiling pass (instrumented layout), computed once
/// per [`TraceKey`] and shared — `context_switch_study` and
/// `delay_slot_study` both need it, and under replay neither should
/// pay for it twice.
///
/// # Errors
/// Returns [`ExperimentError`] when compiling or profiling fails.
pub fn cached_profile(
    bench: &Benchmark,
    config: &ExperimentConfig,
) -> Result<Arc<Profile>, ExperimentError> {
    let key = trace_key(bench, config);
    if let Some(hit) = profile_map().lock().expect("profile cache lock").get(&key) {
        bump(&counter_cells::profile_hits, 1);
        return Ok(Arc::clone(hit));
    }
    let module = bench.compile()?;
    let profile = Arc::new(profile_module_with(
        &module,
        &bench.runs(config.scale, config.seed),
        &config.exec_config(),
    )?);
    bump(&counter_cells::profile_computes, 1);
    profile_map()
        .lock()
        .expect("profile cache lock")
        .insert(key, Arc::clone(&profile));
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use branchlab_trace::BranchMix;
    use branchlab_workloads::benchmark;

    #[test]
    fn captured_runs_hit_memory_cache_on_second_call() {
        let config = ExperimentConfig {
            seed: 0xC0FFEE, // private key: avoid cross-test interference
            ..ExperimentConfig::test()
        };
        let bench = benchmark("wc").unwrap();
        let before = TraceStats::snapshot();
        let first = captured_runs(bench, &config).unwrap();
        let second = captured_runs(bench, &config).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let delta = TraceStats::snapshot().since(&before);
        assert_eq!(delta.captures, 1, "{delta:?}");
        assert!(delta.memory_hits >= 1, "{delta:?}");
        assert!(delta.events_captured > 0);
    }

    #[test]
    fn replayed_mix_matches_capture_event_count() {
        let config = ExperimentConfig {
            seed: 0xBEEF01,
            ..ExperimentConfig::test()
        };
        let bench = benchmark("cmp").unwrap();
        let runs = captured_runs(bench, &config).unwrap();
        let total: u64 = runs.iter().map(TraceBuf::events).sum();
        let mut mix = BranchMix::new();
        let replayed = replay_runs(&runs, &mut mix).unwrap();
        assert_eq!(replayed, total);
        assert!(mix.cond_total() > 0);
    }

    #[test]
    fn trace_key_distinguishes_scale_seed_and_bench() {
        let config = ExperimentConfig::test();
        let wc = trace_key(benchmark("wc").unwrap(), &config);
        let grep = trace_key(benchmark("grep").unwrap(), &config);
        assert_ne!(wc, grep);
        let other_seed = ExperimentConfig {
            seed: 7,
            ..ExperimentConfig::test()
        };
        assert_ne!(wc, trace_key(benchmark("wc").unwrap(), &other_seed));
    }

    #[test]
    fn stats_snapshot_since_and_json_are_consistent() {
        let a = TraceStats {
            captures: 2,
            replay_us: 10,
            ..TraceStats::default()
        };
        let b = TraceStats {
            captures: 5,
            replay_us: 25,
            ..TraceStats::default()
        };
        let d = b.since(&a);
        assert_eq!(d.captures, 3);
        assert_eq!(d.replay_us, 15);
        let json = d.to_json_value();
        assert_eq!(json.get("captures").and_then(JsonValue::as_int), Some(3));
        let spans = d.phase_spans();
        assert_eq!(spans[1].name, "trace_replay");
        assert_eq!(spans[1].wall, std::time::Duration::from_micros(15));
    }
}
