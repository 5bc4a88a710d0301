//! The two sweep workloads: families of predictor configurations scored
//! through `SweepBatch` on warm, resident traces.
//!
//! * `suite_sweep` — suite programs with 19–94 branch sites, where a
//!   256-entry BTB rarely evicts: the ablation study set, the 26-point
//!   CBTB counter family and a gshare/local geometry family. Lanes and
//!   trace decode carry this workload.
//! * `footprint_sweep` — the generated `dispatch`/`router` programs at
//!   paper scale, whose ~1,000 branch sites overflow every buffer below
//!   1,024 entries: fully-associative SBTB/CBTB capacity points and BTB
//!   hierarchies, all on the scalar path. Buffer replacement and
//!   hierarchy promotion carry this workload.
//!
//! One batch is one `(program, family)` sweep, the unit a `/v1/sweep`
//! request computes.

use std::time::Instant;

use branchlab::experiments::ablation::{full_study, StudySpec};
use branchlab::experiments::trace_replay::{cached_profile, captured_runs, clear_cache};
use branchlab::experiments::{ExperimentConfig, SweepBatch, Table};
use branchlab::predict::{
    BranchPredictor, Cbtb, CbtbConfig, FillPolicy, Gshare, LocalHistory, MlBtb, MlBtbConfig, Sbtb,
    SbtbConfig,
};
use branchlab::telemetry::{SpanLink, TraceContext};
use branchlab::workloads::{benchmark, Benchmark, Scale};

use crate::ledger::{self, LayerSet};
use crate::report::{check_digest, median, percentile, secs, Outcome, RssSampler};
use crate::{counters, serve, spans, Ctx};

/// Set-up repetitions (the reported set-up time is their median).
const SETUP_REPS: usize = 3;

/// One family of sweep points.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Family {
    /// The `ablation` binary's study set (`full_study`).
    Study,
    /// Every `(counter_bits, threshold)` CBTB point at 256 entries.
    Counters,
    /// Gshare and local-history table/history geometries.
    TwoLevel,
    /// Fully-associative SBTB and CBTB, 64…2048 entries.
    Capacity,
    /// A squeezed 64×4 CBTB and three BTB hierarchies.
    Hierarchy,
}

/// A sweep workload: programs, input scale and point families.
pub struct SweepPlan {
    /// Workload name.
    pub name: &'static str,
    /// Programs swept.
    pub benches: &'static [&'static str],
    /// Input scale outside smoke runs.
    pub scale: Scale,
    /// Families scored on every program.
    pub families: &'static [Family],
}

/// `suite_sweep`.
pub const SUITE_SWEEP: SweepPlan = SweepPlan {
    name: "suite_sweep",
    benches: &["compress", "lex", "yacc"],
    scale: Scale::Small,
    families: &[Family::Study, Family::Counters, Family::TwoLevel],
};

/// `footprint_sweep`.
pub const FOOTPRINT_SWEEP: SweepPlan = SweepPlan {
    name: "footprint_sweep",
    benches: &["dispatch", "router"],
    scale: Scale::Paper,
    families: &[Family::Capacity, Family::Hierarchy],
};

fn points(family: Family) -> Vec<Box<dyn BranchPredictor>> {
    let mut points: Vec<Box<dyn BranchPredictor>> = Vec::new();
    match family {
        Family::Study => {}
        Family::Counters => {
            for counter_bits in 1..=4u8 {
                for threshold in 1..(1u8 << counter_bits) {
                    let config = CbtbConfig {
                        counter_bits,
                        threshold,
                        ..CbtbConfig::paper()
                    };
                    points.push(Box::new(Cbtb::new(config)));
                }
            }
        }
        Family::TwoLevel => {
            for table_bits in [8, 10, 12, 14] {
                for history_bits in [4, 6, 8] {
                    points.push(Box::new(Gshare::new(table_bits, history_bits)));
                    points.push(Box::new(LocalHistory::new(table_bits, history_bits)));
                }
            }
        }
        Family::Capacity => {
            for entries in [64, 128, 256, 512, 1024, 2048] {
                points.push(Box::new(Sbtb::new(SbtbConfig {
                    entries,
                    ways: entries,
                })));
                points.push(Box::new(Cbtb::new(CbtbConfig {
                    entries,
                    ways: entries,
                    ..CbtbConfig::paper()
                })));
            }
        }
        Family::Hierarchy => {
            points.push(Box::new(Cbtb::new(CbtbConfig {
                entries: 64,
                ways: 4,
                ..CbtbConfig::paper()
            })));
            points.push(Box::new(MlBtb::paper()));
            points.push(Box::new(MlBtb::server()));
            points.push(Box::new(MlBtb::new(MlBtbConfig {
                policy: FillPolicy::Staged,
                ..MlBtbConfig::server()
            })));
        }
    }
    points
}

/// What one batch produced: its rendered output (checked and digested)
/// and the branch events its scalar points scored, when it has any.
struct BatchOutput {
    text: String,
    branch_events: Option<u64>,
}

fn run_batch(
    bench: &Benchmark,
    config: &ExperimentConfig,
    family: Family,
    parent: Option<&SpanLink>,
) -> Result<BatchOutput, String> {
    if family == Family::Study {
        let tables = full_study(bench, config, &StudySpec::default()).map_err(|e| e.to_string())?;
        let text = tables
            .iter()
            .map(Table::to_csv)
            .collect::<Vec<_>>()
            .join("\n");
        return Ok(BatchOutput {
            text,
            branch_events: None,
        });
    }
    let mut batch = SweepBatch::new(bench, config);
    if let Some(link) = parent {
        batch.set_trace_parent(link.clone());
    }
    let ticket = batch.eval(points(family));
    let results = batch.run().map_err(|e| e.to_string())?;
    let stats = results.stats(ticket);
    let text = stats.iter().map(|s| format!("{s:?}\n")).collect();
    Ok(BatchOutput {
        text,
        branch_events: stats.first().map(|s| s.events),
    })
}

/// One `(program, family)` batch of a round, with what the warm-up
/// learned about it.
struct Batch {
    bench: &'static Benchmark,
    family: Family,
    reference: String,
    point_events: u64,
}

/// Score every batch once; `Ok(latencies)` in seconds. Each output is
/// checked against the warm-up round's.
fn round(
    batches: &[Batch],
    config: &ExperimentConfig,
    parent: Option<&SpanLink>,
    out: &mut Outcome,
) -> Vec<f64> {
    let mut latencies = Vec::with_capacity(batches.len());
    for b in batches {
        let t = Instant::now();
        let span = spans::child(
            parent,
            &format!("experiments.sweep.{:?}", b.family).to_lowercase(),
        );
        let link = span.as_ref().map(branchlab::telemetry::SpanHandle::link);
        let result = run_batch(b.bench, config, b.family, link.as_ref());
        drop(span);
        latencies.push(secs(t));
        if let Some(output) = out.try_op("sweep batch", result) {
            out.op(output.text == b.reference, || {
                format!(
                    "{} {:?}: output differs from the warm-up round",
                    b.bench.name, b.family
                )
            });
        }
    }
    latencies
}

/// Run a sweep workload.
///
/// # Errors
/// A set-up failure (capture, profile or warm-up sweep).
pub fn run(ctx: &Ctx, plan: &SweepPlan, out: &mut Outcome) -> Result<(), String> {
    let config = ExperimentConfig {
        scale: ctx.scale(plan.scale),
        seed: ctx.seed,
        sweep_threads: Some(crate::threads()),
        ..ExperimentConfig::default()
    };
    let benches: Vec<&'static Benchmark> = plan
        .benches
        .iter()
        .map(|n| benchmark(n).expect("benchmark ships with the suite"))
        .collect();
    let needs_profile = plan.families.contains(&Family::Study);

    // Set-up: compile, profile and capture every program from cold. Its
    // later repetitions run between measured rounds.
    let setup = || -> Result<f64, String> {
        let started = Instant::now();
        clear_cache();
        for bench in &benches {
            captured_runs(bench, &config).map_err(|e| format!("{}: capture: {e}", bench.name))?;
            if needs_profile {
                cached_profile(bench, &config)
                    .map_err(|e| format!("{}: profile: {e}", bench.name))?;
            }
        }
        Ok(secs(started))
    };
    let mut setup_times = vec![setup()?];
    out.ok_ops(1);

    // Warm-up round: reference outputs, point counts, branch events.
    let mut batches = Vec::new();
    let mut branch_events = vec![0u64; benches.len()];
    for (i, bench) in benches.iter().enumerate() {
        for &family in plan.families {
            let before = counters::read();
            let output = run_batch(bench, &config, family, None)
                .map_err(|e| format!("{} {family:?}: warm-up sweep: {e}", bench.name))?;
            let planned = counters::read().since(&before).planned_points();
            if family != Family::Study {
                let want = points(family).len() as u64;
                out.op(planned == want, || {
                    format!("{family:?}: {planned} points planned, {want} enqueued")
                });
            }
            if let Some(events) = output.branch_events {
                branch_events[i] = events;
            }
            batches.push((i, family, output.text, planned));
        }
    }
    let batches: Vec<Batch> = batches
        .into_iter()
        .map(|(i, family, reference, planned)| Batch {
            bench: benches[i],
            family,
            reference,
            point_events: planned * branch_events[i],
        })
        .collect();
    let digest_text: String = batches
        .iter()
        .map(|b| format!("{} {:?}\n{}", b.bench.name, b.family, b.reference))
        .collect();
    check_digest(out, plan.name, ctx.seed, ctx.smoke, &digest_text);

    if ctx.trace {
        traced(ctx, &config, &benches, &batches, out);
        return Ok(());
    }
    let (mut latencies, mut rounds, mut busy_s) = (Vec::new(), 0u64, 0.0);
    let mut rss = RssSampler::start();
    while rounds == 0 || busy_s < ctx.seconds {
        let started = Instant::now();
        latencies.extend(round(&batches, &config, None, out));
        busy_s += secs(started);
        rss.mark();
        rounds += 1;
        if setup_times.len() < SETUP_REPS {
            if let Some(t) = out.try_op("set-up", setup()) {
                setup_times.push(t);
            }
        }
    }
    rss.finish(out);
    out.metric("setup_s", median(&setup_times), "s", setup_times.len());
    let point_events: u64 = batches.iter().map(|b| b.point_events).sum();
    out.throughput(
        "point_events_per_s",
        (rounds * point_events) as f64 / busy_s,
        "point-events/s",
        rounds as usize,
    );
    out.metric(
        "batch_p50_ms",
        median(&latencies) * 1e3,
        "ms",
        latencies.len(),
    );
    out.metric(
        "batch_p99_ms",
        percentile(&latencies, 0.99) * 1e3,
        "ms",
        latencies.len(),
    );
    out.fact("rounds", rounds);
    Ok(())
}

/// The traced run: rounds alternating untraced and traced (a span per
/// batch, with the batch's own capture/score/merge spans under it) for
/// the overhead and the experiments-layer counters, then the ledger.
fn traced(
    ctx: &Ctx,
    config: &ExperimentConfig,
    benches: &[&'static Benchmark],
    batches: &[Batch],
    out: &mut Outcome,
) {
    let trace = TraceContext::new();
    trace.set_label(&ctx.workload);
    let root = trace.root(&format!("perfbench.{}", ctx.workload));
    let link = root.link();
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let before = counters::read();
    let started = Instant::now();
    while plain.is_empty() || spanned.is_empty() || secs(started) < ctx.seconds {
        let traced_round = plain.len() > spanned.len();
        let latencies = round(batches, config, traced_round.then_some(&link), out);
        if traced_round {
            &mut spanned
        } else {
            &mut plain
        }
        .push(latencies.iter().sum::<f64>() * 1e3);
    }
    let busy_ms: f64 = plain.iter().chain(&spanned).sum();
    ledger::experiments_metrics(
        &counters::read().since(&before),
        (busy_ms * 1e3) as u64,
        crate::threads(),
        0,
        out,
    );
    out.metric(
        "trace.overhead_ms",
        median(&spanned) - median(&plain),
        "ms",
        plain.len() + spanned.len(),
    );

    let names: Vec<&str> = benches.iter().map(|b| b.name).collect();
    let set = LayerSet::new(&names, config.scale, ctx.seed);
    ledger::front_end(&set, &link, out);
    ledger::trace_and_predict(&set, &link, out);
    serve::layer_probe(ctx, &link, out);
    drop(root);
    let finished = trace.finish();
    ledger::span_metrics(&finished, out);
    let written = spans::write_chrome(&ctx.out_file(".trace.json"), finished);
    out.try_op("chrome trace", written);
}
