//! The only place the benchmark reads the process-global engine
//! counters (`SweepStats`, `LaneStats`; `TraceStats` is not needed).
//! Every other number comes from the benchmark's own timers and spans,
//! so moving those counters to a scoped handle means editing this file
//! alone.

use branchlab::experiments::{LaneStats, SweepStats};

/// The engine counters the per-layer ledger uses.
#[derive(Copy, Clone, Debug)]
pub struct EngineCounters {
    /// Parallel sweep passes.
    pub sweeps: u64,
    /// Worker busy time summed over workers, µs.
    pub sweep_busy_us: u64,
    /// Time spent merging shard results into plan order, µs.
    pub merge_us: u64,
    /// Sweep points scored as packed lanes.
    pub lane_points: u64,
    /// Sweep points scored on the scalar path by a lane-planning pass.
    pub scalar_points: u64,
}

/// Current values of the process-global counters.
#[must_use]
pub fn read() -> EngineCounters {
    let sweep = SweepStats::snapshot();
    let lanes = LaneStats::snapshot();
    EngineCounters {
        sweeps: sweep.sweeps,
        sweep_busy_us: sweep.busy_us,
        merge_us: sweep.merge_us,
        lane_points: lanes.lanes,
        scalar_points: lanes.scalar_points,
    }
}

impl EngineCounters {
    /// Counter growth since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: &EngineCounters) -> EngineCounters {
        EngineCounters {
            sweeps: self.sweeps - earlier.sweeps,
            sweep_busy_us: self.sweep_busy_us - earlier.sweep_busy_us,
            merge_us: self.merge_us - earlier.merge_us,
            lane_points: self.lane_points - earlier.lane_points,
            scalar_points: self.scalar_points - earlier.scalar_points,
        }
    }

    /// Sweep points a lane-planning pass saw (packed plus scalar).
    #[must_use]
    pub fn planned_points(&self) -> u64 {
        self.lane_points + self.scalar_points
    }
}
