//! Benchmark-side tracing on the repository's own span model
//! (`branchlab_telemetry::trace`). Spans are opened in the benchmark's
//! code around calls into each crate's public functions; nothing inside
//! the program is instrumented. A traced run keeps its spans in memory,
//! derives the per-layer numbers from them, and writes them out once as
//! a Chrome trace at the end.

use std::path::Path;
use std::sync::Arc;

use branchlab::telemetry::{
    chrome_trace, validate_chrome_trace, RequestTrace, SpanHandle, SpanLink,
};

/// Open a child of `parent` when tracing, nothing otherwise — the same
/// code path serves the traced and the untraced runs.
#[must_use]
pub fn child(parent: Option<&SpanLink>, name: &str) -> Option<SpanHandle> {
    parent.map(|p| p.child(name))
}

/// Summed durations and work of every span called `name`.
#[derive(Copy, Clone, Debug, Default)]
pub struct SpanTotals {
    /// Summed duration, µs.
    pub dur_us: u64,
    /// Summed work units.
    pub work: u64,
    /// Number of spans.
    pub count: usize,
}

impl SpanTotals {
    /// Nanoseconds per work unit.
    #[must_use]
    pub fn ns_per_work(&self) -> f64 {
        self.dur_us as f64 * 1e3 / self.work as f64
    }

    /// Summed duration in milliseconds.
    #[must_use]
    pub fn ms(&self) -> f64 {
        self.dur_us as f64 / 1e3
    }
}

/// Totals over every span called `name` in `trace`.
#[must_use]
pub fn totals(trace: &RequestTrace, name: &str) -> SpanTotals {
    trace
        .spans
        .iter()
        .filter(|s| s.name == name)
        .fold(SpanTotals::default(), |t, s| SpanTotals {
            dur_us: t.dur_us + s.dur_us,
            work: t.work + s.work,
            count: t.count + 1,
        })
}

/// Write `trace` as a Chrome trace-event document and check that
/// `validate_chrome_trace` accepts what was written. Returns the event
/// count.
///
/// # Errors
/// An I/O failure or a document the validator rejects.
pub fn write_chrome(path: &Path, trace: RequestTrace) -> Result<usize, String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = chrome_trace(&[Arc::new(trace)]).to_json();
    std::fs::write(path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    let written = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    validate_chrome_trace(&written).map(|names| names.len())
}
