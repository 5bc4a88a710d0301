//! `paper_tables`: regenerate Tables 1–5 for the twelve suite programs
//! through `run_suite_supervised` — compile, profile, FS transform with
//! equivalence verification, live evaluation of every scheme, and code
//! expansion. The only workload where minic, profile, fsem, ir and
//! interp do the work live; trace replay, lanes and the server do none.

use std::hint::black_box;
use std::time::Instant;

use branchlab::experiments::{
    run_suite_supervised, tables, ExperimentConfig, SuiteResult, SupervisorConfig,
};
use branchlab::ir::lower;
use branchlab::telemetry::TraceContext;
use branchlab::workloads::{Scale, SUITE};

use crate::ledger::{self, LayerSet};
use crate::report::{check_digest, median, percentile, secs, Outcome, RssSampler};
use crate::{counters, serve, spans, Ctx};

/// Set-up repetitions (the reported set-up time is their median), and
/// how many of them run in each gap between regenerations.
const SETUP_REPS: usize = 15;
const SETUP_REPS_PER_GAP: usize = 5;

/// Compile, lower and generate the inputs of every suite program: the
/// work that precedes the first table.
fn setup(config: &ExperimentConfig) -> Result<(), String> {
    for bench in SUITE {
        let module = bench
            .compile()
            .map_err(|e| format!("{}: {e}", bench.name))?;
        black_box(lower(&module).map_err(|e| format!("{}: {e}", bench.name))?);
        black_box(bench.runs(config.scale, config.seed));
    }
    Ok(())
}

/// Tables 1–5 as CSV: the regenerated output a run is checked on.
fn render(suite: &SuiteResult) -> String {
    [
        tables::table1(suite),
        tables::table2(suite),
        tables::table3(suite),
        tables::table4(suite),
        tables::table5(suite),
    ]
    .iter()
    .map(|t| t.to_csv())
    .collect::<Vec<_>>()
    .join("\n")
}

/// One regeneration, checked for completeness and against the first
/// regeneration's tables (`reference`, filled on first use).
fn regenerate(
    config: &ExperimentConfig,
    reference: &mut Option<String>,
    out: &mut Outcome,
) -> SuiteResult {
    let suite = run_suite_supervised(config, &SupervisorConfig::default());
    out.op(suite.is_complete(), || {
        let failures: Vec<String> = suite.failures.iter().map(ToString::to_string).collect();
        format!("suite incomplete: {}", failures.join("; "))
    });
    let text = render(&suite);
    match reference {
        Some(first) => {
            out.op(*first == text, || {
                "tables differ between regenerations".to_string()
            });
        }
        None => *reference = Some(text),
    }
    suite
}

/// Run the workload.
///
/// # Errors
/// A set-up failure (the suite does not compile).
pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let config = ExperimentConfig {
        scale: ctx.scale(Scale::Small),
        seed: ctx.seed,
        sweep_threads: Some(crate::threads()),
        ..ExperimentConfig::default()
    };
    let timed_setup = || -> Result<f64, String> {
        let started = Instant::now();
        setup(&config)?;
        Ok(secs(started))
    };
    let mut setup_times = vec![timed_setup()?];
    out.ok_ops(1);
    if ctx.trace {
        traced(ctx, &config, out);
        return Ok(());
    }

    let mut reference = None;
    let (mut insts, mut latencies) = (0u64, Vec::new());
    let mut setup_spent_s = 0.0;
    let mut rss = RssSampler::start();
    let started = Instant::now();
    loop {
        let suite = regenerate(&config, &mut reference, out);
        rss.mark();
        for b in &suite.benches {
            insts += b.stats.insts + b.phase("fs_eval").map_or(0, |p| p.work);
            latencies.push(b.phases.iter().map(|p| p.wall.as_secs_f64()).sum::<f64>());
        }
        if secs(started) - setup_spent_s >= ctx.seconds {
            break;
        }
        // Later set-up repetitions run between regenerations.
        let t = Instant::now();
        for _ in 0..SETUP_REPS_PER_GAP.min(SETUP_REPS - setup_times.len()) {
            if let Some(s) = out.try_op("set-up", timed_setup()) {
                setup_times.push(s);
            }
        }
        setup_spent_s += secs(t);
    }
    let wall = secs(started) - setup_spent_s;
    rss.finish(out);
    let regenerations = latencies.len() / SUITE.len();
    out.metric("setup_s", median(&setup_times), "s", setup_times.len());
    // Natural and FS runs both interpret.
    out.throughput(
        "sim_insts_per_s",
        insts as f64 / wall,
        "insts/s",
        regenerations,
    );
    out.metric(
        "bench_p50_ms",
        median(&latencies) * 1e3,
        "ms",
        latencies.len(),
    );
    out.metric(
        "bench_p99_ms",
        percentile(&latencies, 0.99) * 1e3,
        "ms",
        latencies.len(),
    );
    check_digest(
        out,
        "paper_tables",
        ctx.seed,
        ctx.smoke,
        reference.as_deref().unwrap_or(""),
    );
    Ok(())
}

/// The traced run: regenerations alternating untraced and traced (a
/// span around the supervisor call) for the overhead, then the ledger.
fn traced(ctx: &Ctx, config: &ExperimentConfig, out: &mut Outcome) {
    let trace = TraceContext::new();
    trace.set_label("paper_tables");
    let root = trace.root("perfbench.paper_tables");
    let link = root.link();
    let mut reference = None;
    let (mut plain, mut spanned, mut retries) = (Vec::new(), Vec::new(), 0);
    let started = Instant::now();
    while plain.is_empty() || spanned.is_empty() || secs(started) < ctx.seconds {
        let traced_iteration = plain.len() > spanned.len();
        let t = Instant::now();
        let span = spans::child(
            traced_iteration.then_some(&link),
            "experiments.run_suite_supervised",
        );
        let suite = regenerate(config, &mut reference, out);
        drop(span);
        retries += suite.supervisor.retries;
        if traced_iteration {
            &mut spanned
        } else {
            &mut plain
        }
        .push(secs(t) * 1e3);
    }
    out.metric(
        "trace.overhead_ms",
        median(&spanned) - median(&plain),
        "ms",
        plain.len() + spanned.len(),
    );
    check_digest(
        out,
        "paper_tables",
        ctx.seed,
        ctx.smoke,
        reference.as_deref().unwrap_or(""),
    );

    let names: Vec<&str> = SUITE.iter().map(|b| b.name).collect();
    ledger::front_end(&LayerSet::new(&names, config.scale, ctx.seed), &link, out);
    let replay_set = LayerSet::new(&names, Scale::Test, ctx.seed);
    ledger::trace_and_predict(&replay_set, &link, out);
    let before = counters::read();
    let wall_us = ledger::sweep_probe(&replay_set, crate::threads(), &link, out);
    ledger::experiments_metrics(
        &counters::read().since(&before),
        wall_us,
        crate::threads(),
        retries,
        out,
    );
    serve::layer_probe(ctx, &link, out);
    drop(root);
    let finished = trace.finish();
    ledger::span_metrics(&finished, out);
    let written = spans::write_chrome(&ctx.out_file(".trace.json"), finished);
    out.try_op("chrome trace", written);
}
