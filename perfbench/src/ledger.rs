//! The per-layer ledger of a traced run. Each function times one layer
//! in isolation on the workload's own programs and inputs, by opening a
//! span (named `<crate>.<operation>`) around each call into that crate's
//! public API. The metrics are computed afterwards from the recorded
//! spans, so every number here traces back to a span in the run's
//! Chrome trace.

use std::hint::black_box;

use branchlab::experiments::{ExperimentConfig, SweepBatch};
use branchlab::fsem::{code_expansion, fs_program, FsConfig};
use branchlab::interp::{run, ExecConfig};
use branchlab::ir::{lower, lower_with_plan, LayoutPlan};
use branchlab::predict::{
    BackwardTakenForwardNot, BranchPredictor, Cbtb, CbtbConfig, Gshare, LaneFamily, LocalHistory,
    MlBtb, PredStats, Sbtb,
};
use branchlab::profile::Profiler;
use branchlab::telemetry::{RequestTrace, SpanLink};
use branchlab::trace::{BlockIter, BranchEvent, Capture, TraceBuf, DEFAULT_BLOCK_EVENTS};
use branchlab::workloads::{benchmark, Benchmark, Scale};

use crate::counters::EngineCounters;
use crate::report::Outcome;
use crate::spans::totals;

/// Branch events decoded up front for the predictor timings: enough to
/// fill and churn every buffer, small enough to stay a few tens of MB.
const PREDICT_EVENTS: usize = 1 << 20;

/// Repetitions of each decode, predictor and interpreter timing.
const REPS: usize = 3;

/// One sweep point.
type Point = Box<dyn BranchPredictor>;
/// A constructor of a fresh sweep point.
type MakePoint = fn() -> Point;

/// The programs and inputs a workload's ledger measures.
pub struct LayerSet {
    /// Programs.
    pub benches: Vec<&'static Benchmark>,
    /// Input scale.
    pub scale: Scale,
    /// Input seed.
    pub seed: u64,
}

impl LayerSet {
    /// A set from benchmark names (all shipped, so lookup cannot fail).
    #[must_use]
    pub fn new(names: &[&str], scale: Scale, seed: u64) -> Self {
        LayerSet {
            benches: names
                .iter()
                .map(|n| benchmark(n).expect("benchmark ships with the suite"))
                .collect(),
            scale,
            seed,
        }
    }
}

/// Interpreter limits matching the experiment harness defaults.
#[must_use]
pub fn exec_config() -> ExecConfig {
    let cfg = ExperimentConfig::default();
    ExecConfig {
        max_insts: cfg.max_insts_per_run,
        memory_words: cfg.memory_words,
        max_call_depth: cfg.max_call_depth,
    }
}

/// Compile → lower → profile → FS build → code expansion → plain
/// interpretation, one span per crate call.
pub fn front_end(set: &LayerSet, root: &SpanLink, out: &mut Outcome) {
    let exec = exec_config();
    for bench in &set.benches {
        let module = {
            let _s = root.child("minic.compile");
            bench.compile()
        };
        let Some(module) = out.try_op("compile", module) else {
            continue;
        };
        let runs = bench.runs(set.scale, set.seed);
        let lowered = {
            let _s = root.child("ir.lower");
            lower(&module).and_then(|natural| {
                lower_with_plan(&module, &LayoutPlan::instrumented(&module))
                    .map(|instrumented| (natural, instrumented))
            })
        };
        let Some((natural, instrumented)) = out.try_op("lower", lowered) else {
            continue;
        };
        let profile = {
            let mut span = root.child("profile.run");
            let mut profiler = Profiler::new(&instrumented);
            let mut result = Ok(());
            for streams in &runs {
                profiler.record_program_entry(module.entry);
                let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
                match run(&instrumented, &exec, &refs, &mut profiler) {
                    Ok(o) => span.add_work(o.stats.insts),
                    Err(e) => result = Err(e),
                }
            }
            result.map(|()| profiler.into_profile())
        };
        let Some(profile) = out.try_op("profile", profile) else {
            continue;
        };
        let fs = {
            let _s = root.child("fsem.fs_program");
            fs_program(&module, &profile, FsConfig::with_slots(2))
        };
        out.try_op("fs_program", fs.map(black_box));
        let expansion = {
            let _s = root.child("fsem.code_expansion");
            code_expansion(&module, &profile, &[1, 2, 4, 8])
        };
        out.try_op("code_expansion", expansion.map(black_box));
        let mut span = root.child("interp.run");
        for streams in &runs {
            let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
            if let Some(o) = out.try_op("interpret", run(&natural, &exec, &refs, &mut ())) {
                span.add_work(o.stats.insts);
            }
        }
    }
}

/// Capture and decode the set's traces, then time every predictor kind
/// on the scalar `eval_block` path and the lane families on the same
/// pre-decoded events. Lane results are checked against their scalar
/// twins.
pub fn trace_and_predict(set: &LayerSet, root: &SpanLink, out: &mut Outcome) {
    let exec = exec_config();
    let mut bufs: Vec<TraceBuf> = Vec::new();
    for bench in &set.benches {
        let program = bench
            .compile()
            .map_err(|e| e.to_string())
            .and_then(|m| lower(&m).map_err(|e| e.to_string()));
        let Some(program) = out.try_op("compile for capture", program) else {
            continue;
        };
        for streams in bench.runs(set.scale, set.seed) {
            let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
            let mut span = root.child("trace.capture");
            let mut cap = Capture::new();
            if out
                .try_op("capture", run(&program, &exec, &refs, &mut cap))
                .is_some()
            {
                let buf = cap.into_buf();
                span.add_work(buf.events());
                bufs.push(buf);
            }
        }
    }
    let events: u64 = bufs.iter().map(TraceBuf::events).sum();
    let bytes: usize = bufs.iter().map(TraceBuf::byte_len).sum();
    out.metric(
        "trace.bytes_per_event",
        bytes as f64 / events as f64,
        "B/event",
        bufs.len(),
    );
    out.metric(
        "trace.resident_mb",
        bytes as f64 / (1 << 20) as f64,
        "MB",
        bufs.len(),
    );

    for _ in 0..REPS {
        let mut span = root.child("trace.decode");
        let mut iter = BlockIter::new(&bufs);
        let mut n = 0u64;
        loop {
            match iter.next_block() {
                Ok(Some(block)) => n += black_box(block).len() as u64,
                Ok(None) => break,
                Err(e) => {
                    out.op(false, || format!("decode: {e}"));
                    break;
                }
            }
        }
        span.add_work(n);
    }
    let mut decoded: Vec<BranchEvent> = Vec::with_capacity(PREDICT_EVENTS);
    let mut iter = BlockIter::new(&bufs);
    while let Ok(Some(block)) = iter.next_block() {
        let room = PREDICT_EVENTS - decoded.len();
        decoded.extend_from_slice(&block.branches[..block.branches.len().min(room)]);
        if decoded.len() == PREDICT_EVENTS {
            break;
        }
    }

    let scalar: [(&str, MakePoint); 6] = [
        ("sbtb", || Box::new(Sbtb::paper())),
        ("cbtb", || Box::new(Cbtb::paper())),
        ("mlbtb", || Box::new(MlBtb::server())),
        ("gshare", || Box::new(Gshare::new(12, 8))),
        ("local", || Box::new(LocalHistory::new(12, 8))),
        ("static", || Box::new(BackwardTakenForwardNot)),
    ];
    let mut scalar_stats = Vec::new();
    for (kind, make) in scalar {
        let mut stats = PredStats::default();
        for _ in 0..REPS {
            let mut p = make();
            stats = PredStats::default();
            let mut span = root.child(&format!("predict.scalar.{kind}"));
            for block in decoded.chunks(DEFAULT_BLOCK_EVENTS) {
                p.eval_block(black_box(block), &mut stats);
            }
            span.add_work(decoded.len() as u64);
        }
        scalar_stats.push((kind, black_box(stats)));
    }
    let scalar_twin = |kind: &str| {
        scalar_stats
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, s)| *s)
            .expect("every lane kind has a scalar twin")
    };
    let cbtb = scalar_twin("cbtb");
    out.metric(
        "predict.btb_miss_ratio",
        cbtb.miss_ratio(),
        "ratio",
        cbtb.btb_lookups as usize,
    );

    // Lane families; the first configuration of each is its scalar twin
    // above, so every family is checked against the scalar path.
    let mut counter_family = vec![CbtbConfig::paper()];
    for counter_bits in 1..=4u8 {
        for threshold in 1..(1u8 << counter_bits) {
            if (counter_bits, threshold) != (2, 2) {
                counter_family.push(CbtbConfig {
                    counter_bits,
                    threshold,
                    ..CbtbConfig::paper()
                });
            }
        }
    }
    let geometries = [
        (12, 8),
        (8, 4),
        (10, 4),
        (10, 6),
        (12, 4),
        (12, 6),
        (14, 4),
        (14, 6),
        (14, 8),
    ];
    let families: [(&str, Vec<Point>); 3] = [
        (
            "cbtb",
            counter_family
                .iter()
                .map(|c| Box::new(Cbtb::new(*c)) as Point)
                .collect(),
        ),
        (
            "gshare",
            geometries
                .iter()
                .map(|&(t, h)| Box::new(Gshare::new(t, h)) as Point)
                .collect(),
        ),
        (
            "local",
            geometries
                .iter()
                .map(|&(t, h)| Box::new(LocalHistory::new(t, h)) as Point)
                .collect(),
        ),
    ];
    for (kind, points) in families {
        let Some(specs) = points
            .iter()
            .map(|p| p.lane_spec())
            .collect::<Option<Vec<_>>>()
        else {
            out.op(false, || format!("{kind}: a family point has no lane spec"));
            continue;
        };
        let mut lanes = Vec::new();
        for _ in 0..REPS {
            let mut family = LaneFamily::new(&specs);
            let mut span = root.child(&format!("predict.lane.{kind}"));
            for block in decoded.chunks(DEFAULT_BLOCK_EVENTS) {
                family.eval_block(black_box(block));
            }
            span.add_work((decoded.len() * specs.len()) as u64);
            drop(span);
            lanes = family.finish();
        }
        let want = scalar_twin(kind);
        out.op(lanes.first() == Some(&want), || {
            format!(
                "{kind}: lane result {:?} differs from scalar {want:?}",
                lanes.first()
            )
        });
    }
}

/// One mixed sweep per program of the set on `threads` sweep workers:
/// a CBTB counter family that packs into lanes plus scalar-only points.
/// Returns the summed batch wall time in µs.
pub fn sweep_probe(set: &LayerSet, threads: usize, root: &SpanLink, out: &mut Outcome) -> u64 {
    let config = ExperimentConfig {
        scale: set.scale,
        seed: set.seed,
        sweep_threads: Some(threads),
        ..ExperimentConfig::default()
    };
    let mut wall_us = 0;
    for bench in &set.benches {
        let mut batch = SweepBatch::new(bench, &config);
        let span = root.child("experiments.sweep");
        batch.set_trace_parent(span.link());
        let mut points: Vec<Point> = (1..=3u8)
            .map(|threshold| {
                Box::new(Cbtb::new(CbtbConfig {
                    threshold,
                    ..CbtbConfig::paper()
                })) as Point
            })
            .collect();
        points.push(Box::new(Sbtb::paper()));
        points.push(Box::new(MlBtb::server()));
        batch.eval(points);
        out.try_op("sweep probe", batch.run().map(|_| ()));
        wall_us += span.elapsed_us();
    }
    wall_us
}

/// The experiments-layer metrics from engine-counter growth over sweeps
/// that took `batch_wall_us` of wall-clock on `threads` workers.
pub fn experiments_metrics(
    delta: &EngineCounters,
    batch_wall_us: u64,
    threads: usize,
    retries: u64,
    out: &mut Outcome,
) {
    out.metric(
        "experiments.sweep_busy_ratio",
        delta.sweep_busy_us as f64 / (threads as u64 * batch_wall_us).max(1) as f64,
        "ratio",
        delta.sweeps as usize,
    );
    out.metric(
        "experiments.merge_us",
        delta.merge_us as f64 / delta.sweeps.max(1) as f64,
        "us",
        delta.sweeps as usize,
    );
    out.metric(
        "experiments.lane_point_fraction",
        delta.lane_points as f64 / delta.planned_points().max(1) as f64,
        "ratio",
        delta.planned_points() as usize,
    );
    out.metric("experiments.supervisor_retries", retries as f64, "count", 1);
}

/// The front-end, trace and predict metrics from the spans recorded by
/// [`front_end`] and [`trace_and_predict`].
pub fn span_metrics(trace: &RequestTrace, out: &mut Outcome) {
    let t = |name: &str| totals(trace, name);
    let ms = [
        ("minic.compile_ms", "minic.compile"),
        ("profile.run_ms", "profile.run"),
        ("fsem.fs_program_ms", "fsem.fs_program"),
        ("fsem.code_expansion_ms", "fsem.code_expansion"),
        ("ir.lower_ms", "ir.lower"),
    ];
    for (metric, span) in ms {
        let s = t(span);
        out.metric(metric, s.ms(), "ms", s.count);
    }
    let profile = t("profile.run");
    out.metric("profile.insts", profile.work as f64, "count", profile.count);
    let interp = t("interp.run");
    out.metric(
        "interp.ns_per_inst",
        interp.ns_per_work(),
        "ns/inst",
        interp.count,
    );
    out.metric("interp.insts", interp.work as f64, "count", interp.count);
    for (metric, span) in [
        ("trace.capture_ns_per_event", "trace.capture"),
        ("trace.decode_ns_per_event", "trace.decode"),
    ] {
        let s = t(span);
        out.metric(metric, s.ns_per_work(), "ns/event", s.count);
    }
    for kind in ["sbtb", "cbtb", "mlbtb", "gshare", "local", "static"] {
        let s = t(&format!("predict.scalar.{kind}"));
        out.metric(
            &format!("predict.scalar_ns_per_point_event.{kind}"),
            s.ns_per_work(),
            "ns/point-event",
            s.count,
        );
    }
    for kind in ["cbtb", "gshare", "local"] {
        let s = t(&format!("predict.lane.{kind}"));
        out.metric(
            &format!("predict.lane_ns_per_point_event.{kind}"),
            s.ns_per_work(),
            "ns/point-event",
            s.count,
        );
    }
}
