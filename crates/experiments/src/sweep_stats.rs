//! Process-wide counters for the parallel sweep executor
//! (`suite.sweep.parallel.*` in the metrics registry), following the
//! same snapshot/since pattern as [`TraceStats`](crate::TraceStats).
//!
//! The executor in [`SweepBatch`](crate::SweepBatch) bumps these on
//! every scoring pass that ran on more than one worker: how many sweeps
//! ran, how many workers they used, how many sweep points and scoring
//! units were scored, the time workers spent inside units (barrier
//! waits excluded), and the plan-order merge time. The bench binaries export them into the
//! metrics registry and the run manifest, and synthesize `Timeline`
//! spans from the wall-clock counters.

use std::sync::atomic::{AtomicU64, Ordering};

use branchlab_telemetry::{JsonValue, MetricsRegistry, PhaseSpan};

// Cell names intentionally mirror the snake_case field/metric names
// they back.
#[allow(non_upper_case_globals)]
mod cells {
    use super::AtomicU64;
    pub static sweeps: AtomicU64 = AtomicU64::new(0);
    pub static workers: AtomicU64 = AtomicU64::new(0);
    pub static points: AtomicU64 = AtomicU64::new(0);
    pub static batches: AtomicU64 = AtomicU64::new(0);
    pub static busy_us: AtomicU64 = AtomicU64::new(0);
    pub static merge_us: AtomicU64 = AtomicU64::new(0);
}

fn bump(cell: &AtomicU64, by: u64) {
    cell.fetch_add(by, Ordering::Relaxed);
}

/// A snapshot of the process-wide parallel-sweep counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Parallel scoring passes executed.
    pub sweeps: u64,
    /// Workers that ran the rounds (the caller's thread included),
    /// summed over sweeps.
    pub workers: u64,
    /// Predictor sweep points scored in parallel passes.
    pub points: u64,
    /// Scoring units (scalar points, lane families, RAS sets) run;
    /// each unit consumes the whole stream.
    pub batches: u64,
    /// Wall-clock workers spent inside units — scoring or decoding,
    /// never waiting at a round barrier — in microseconds (sums across
    /// concurrent workers, so it can exceed elapsed time).
    pub busy_us: u64,
    /// Wall-clock spent merging worker results back into plan order,
    /// in microseconds.
    pub merge_us: u64,
}

impl SweepStats {
    /// Current counter values.
    #[must_use]
    pub fn snapshot() -> SweepStats {
        SweepStats {
            sweeps: cells::sweeps.load(Ordering::Relaxed),
            workers: cells::workers.load(Ordering::Relaxed),
            points: cells::points.load(Ordering::Relaxed),
            batches: cells::batches.load(Ordering::Relaxed),
            busy_us: cells::busy_us.load(Ordering::Relaxed),
            merge_us: cells::merge_us.load(Ordering::Relaxed),
        }
    }

    /// The counters as `(name, value)` pairs, for metrics export under
    /// a `suite.sweep.parallel.` prefix.
    #[must_use]
    pub fn counters(&self) -> [(&'static str, u64); 6] {
        [
            ("sweeps", self.sweeps),
            ("workers", self.workers),
            ("points", self.points),
            ("batches", self.batches),
            ("busy_us", self.busy_us),
            ("merge_us", self.merge_us),
        ]
    }

    /// Counter deltas since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: &SweepStats) -> SweepStats {
        SweepStats {
            sweeps: self.sweeps.saturating_sub(earlier.sweeps),
            workers: self.workers.saturating_sub(earlier.workers),
            points: self.points.saturating_sub(earlier.points),
            batches: self.batches.saturating_sub(earlier.batches),
            busy_us: self.busy_us.saturating_sub(earlier.busy_us),
            merge_us: self.merge_us.saturating_sub(earlier.merge_us),
        }
    }

    /// Export every counter as `suite.sweep.parallel.<name>` into a
    /// metrics registry.
    pub fn export(&self, registry: &MetricsRegistry) {
        for (name, value) in self.counters() {
            registry
                .counter(&format!("suite.sweep.parallel.{name}"))
                .add(value);
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

    /// Synthesize `Timeline`-style spans from the accumulated
    /// wall-clock counters: aggregate worker unit time (work = points
    /// scored) and plan-order merge time (work = units merged).
    #[must_use]
    pub fn phase_spans(&self) -> Vec<PhaseSpan> {
        vec![
            PhaseSpan {
                name: "sweep_score".to_string(),
                wall: std::time::Duration::from_micros(self.busy_us),
                work: self.points,
            },
            PhaseSpan {
                name: "sweep_merge".to_string(),
                wall: std::time::Duration::from_micros(self.merge_us),
                work: self.batches,
            },
        ]
    }
}

/// One parallel pass's accounting, applied to the process-wide cells
/// in a single call (internal to the sweep executor).
pub(crate) fn note_sweep(delta: &SweepStats) {
    bump(&cells::sweeps, delta.sweeps);
    bump(&cells::workers, delta.workers);
    bump(&cells::points, delta.points);
    bump(&cells::batches, delta.batches);
    bump(&cells::busy_us, delta.busy_us);
    bump(&cells::merge_us, delta.merge_us);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_sweep_accumulates_and_since_subtracts() {
        let before = SweepStats::snapshot();
        note_sweep(&SweepStats {
            sweeps: 1,
            workers: 4,
            points: 36,
            batches: 13,
            busy_us: 1000,
            merge_us: 5,
        });
        let delta = SweepStats::snapshot().since(&before);
        assert!(delta.sweeps >= 1);
        assert!(delta.workers >= 4);
        assert!(delta.points >= 36);
    }

    #[test]
    fn json_and_spans_are_consistent() {
        let s = SweepStats {
            sweeps: 2,
            workers: 8,
            points: 72,
            batches: 26,
            busy_us: 2000,
            merge_us: 10,
        };
        let json = s.to_json_value();
        assert_eq!(json.get("workers").and_then(JsonValue::as_int), Some(8));
        let spans = s.phase_spans();
        assert_eq!(spans[0].name, "sweep_score");
        assert_eq!(spans[0].work, 72);
        assert_eq!(spans[1].name, "sweep_merge");
        assert_eq!(spans[1].wall, std::time::Duration::from_micros(10));
    }
}
