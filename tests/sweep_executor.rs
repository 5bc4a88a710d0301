//! The sweep executor against the live interpreter.
//!
//! A mixed plan — SBTB, CBTB and mlbtb scalar points, a CBTB lane
//! family, gshare and return-address stacks — is scored through
//! `SweepBatch` from the captured trace at 1, 2 and 3 sweep threads,
//! and every statistic must equal a live interpreter pass
//! (`eval_predictors_live`, and a live-mode batch for the stacks). The
//! trace spans several of the executor's blocks, so the comparison
//! covers block hand-over, not just one short round.

use branchlab::experiments::trace_replay::captured_runs;
use branchlab::experiments::{eval_predictors_live, ExperimentConfig, SweepBatch};
use branchlab::predict::{
    BranchPredictor, Cbtb, CbtbConfig, Gshare, MlBtb, PredStats, ReturnAddressStack, Sbtb,
};
use branchlab::telemetry::TraceContext;
use branchlab::trace::{TraceBuf, DEFAULT_BLOCK_EVENTS};
use branchlab::workloads::{benchmark, Benchmark};

const RAS_DEPTHS: [usize; 3] = [4, 16, 64];

/// The plan, freshly built: three CBTB thresholds that pack into one
/// lane family, then four points that stay scalar.
fn plan() -> Vec<Box<dyn BranchPredictor>> {
    let mut points: Vec<Box<dyn BranchPredictor>> = (1..=3)
        .map(|threshold| {
            Box::new(Cbtb::new(CbtbConfig {
                threshold,
                ..CbtbConfig::paper()
            })) as Box<dyn BranchPredictor>
        })
        .collect();
    points.push(Box::new(Sbtb::paper()));
    points.push(Box::new(Cbtb::new(CbtbConfig {
        entries: 64,
        ways: 4,
        ..CbtbConfig::paper()
    })));
    points.push(Box::new(MlBtb::server()));
    points.push(Box::new(Gshare::new(12, 8)));
    points
}

/// Returns, correct, overflows and underflows of each stack.
type RasOutcome = Vec<(u64, u64, u64, u64)>;

fn ras_outcome(stacks: &[ReturnAddressStack]) -> RasOutcome {
    stacks
        .iter()
        .map(|r| (r.returns, r.correct, r.overflows, r.underflows))
        .collect()
}

/// Score the plan from the trace at `threads`; returns the stats, the
/// stacks' outcome and the executor's round count.
fn replayed(bench: &Benchmark, threads: usize) -> (Vec<PredStats>, RasOutcome, u64) {
    let cfg = ExperimentConfig {
        sweep_threads: Some(threads),
        ..ExperimentConfig::test()
    };
    let ctx = TraceContext::new();
    let root = ctx.root("sweep");
    let mut batch = SweepBatch::new(bench, &cfg);
    batch.set_trace_parent(root.link());
    let points = batch.eval(plan());
    let stacks = batch.ras(&RAS_DEPTHS);
    let results = batch.run().expect("replayed sweep");
    drop(root);

    let lanes = results.lane_stats();
    assert_eq!(
        (lanes.families, lanes.lanes, lanes.scalar_points),
        (1, 3, 4),
        "threads={threads}: the CBTB family packs, the rest stays scalar"
    );
    let sweep = results.sweep_stats();
    if threads > 1 {
        assert_eq!((sweep.sweeps, sweep.workers), (1, threads as u64));
    } else {
        assert_eq!(sweep.sweeps, 0, "one thread scores inline");
    }
    let spans = ctx.finish().spans;
    let score = spans
        .iter()
        .find(|s| s.name == "sweep_score")
        .expect("sweep_score span");
    let shards = spans.iter().filter(|s| s.name == "score_shard").count();
    assert_eq!(shards, threads, "one score_shard span per worker");
    (
        results.stats(points).to_vec(),
        ras_outcome(results.ras(stacks)),
        score.arg_value("rounds").expect("rounds arg"),
    )
}

#[test]
fn every_thread_count_matches_the_live_interpreter() {
    let bench = benchmark("wc").unwrap();
    let cfg = ExperimentConfig::test();
    let events: u64 = captured_runs(bench, &cfg)
        .unwrap()
        .iter()
        .map(TraceBuf::events)
        .sum();
    // The executor decodes DEFAULT_BLOCK_EVENTS-sized blocks.
    assert!(
        events >= 3 * DEFAULT_BLOCK_EVENTS as u64,
        "wc at test scale must span 3+ blocks, has {events} events"
    );

    let live = eval_predictors_live(bench, &cfg, plan()).unwrap();
    let live_ras = {
        let live_cfg = ExperimentConfig {
            use_trace_replay: false,
            ..ExperimentConfig::test()
        };
        let mut batch = SweepBatch::new(bench, &live_cfg);
        let t = batch.ras(&RAS_DEPTHS);
        ras_outcome(batch.run().unwrap().ras(t))
    };
    assert!(live_ras.iter().all(|r| r.0 > 0), "wc makes returns");

    for threads in [1, 2, 3] {
        let (stats, ras, rounds) = replayed(bench, threads);
        assert!(rounds >= 3, "threads={threads}: {rounds} rounds");
        assert_eq!(stats, live, "threads={threads}");
        assert_eq!(ras, live_ras, "threads={threads}");
    }
}
