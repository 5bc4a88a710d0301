//! Deferred sweep evaluation: studies enqueue their predictor and
//! return-address-stack configurations into a [`SweepBatch`], then one
//! pass over the benchmark's event stream scores every configuration
//! point at once — the paper's own trace-driven shape (trace the
//! program once, score all schemes off the recording).
//!
//! With [`ExperimentConfig::use_trace_replay`] set, the pass replays
//! the cached trace, so a whole ablation study set costs one capture
//! plus one decode per benchmark. In baseline mode each enqueued group
//! keeps its own live interpreter pass (the pre-replay cost shape), and
//! [`ExperimentConfig::sweep_per_point`] degrades that further to one
//! full compile→profile→interpret pipeline per configuration point —
//! the O(points × interpret) re-interpretation baseline that
//! `replay_bench` measures trace replay against.
//!
//! ## Parallel scoring
//!
//! The replay pass has one executor for every thread count
//! ([`ExperimentConfig::resolved_sweep_threads`]). It decodes the
//! captured [`TraceBuf`]s **once per pass**, block by block, into two
//! alternating owned buffers, and runs in block-synchronous rounds. In
//! round *k* the workers claim units from an atomic counter — first
//! "decode block *k + 1* into the spare buffer", then every scoring unit
//! (one scalar evaluator, one lane family, or the return-address-stack
//! set) against block *k* — and a barrier ends the round. Every unit
//! therefore sees every block in capture order, whichever worker runs
//! it, which makes the results **bit-identical at any thread count by
//! construction**. One worker is the caller's thread; with one thread
//! the same loop runs inline and spawns nothing. Results merge back in
//! plan order. A corrupt trace ends the pass with
//! [`ExperimentError::Trace`], and a panicking unit ends it with the
//! panic resumed on the caller — neither can strand a worker at the
//! barrier.
//!
//! ## Lane planning
//!
//! Before scoring, the replay pass consults every sweep point's
//! [`BranchPredictor::lane_spec`]: compatible fresh configurations
//! (same [`LaneFamilyKey`]) are packed — up to [`MAX_LANES`] at a
//! time — into bit-parallel [`LaneFamily`] work items that score all
//! their lanes in one walk of the event stream, while incompatible or
//! stateful points keep today's scalar path. Each family is one unit of
//! the executor (thread parallelism multiplies lane parallelism), and
//! results merge back by flattened plan index, so every table is
//! byte-identical to the scalar path at any thread count.
//! [`ExperimentConfig::use_lane_scoring`] (on by default) gates the
//! planner for baseline measurements.
//!
//! [`TraceBuf`]: branchlab_trace::TraceBuf

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, LockResult, Mutex, PoisonError, RwLock};
use std::time::Instant;

use branchlab_interp::run;
use branchlab_ir::lower;
use branchlab_predict::{
    BranchPredictor, Evaluator, LaneFamily, LaneFamilyKey, LaneSpec, PredStats, ReturnAddressStack,
    MAX_LANES,
};
use branchlab_profile::profile_module_with;
use branchlab_telemetry::SpanLink;
use branchlab_trace::{BlockBuf, BlockIter, CallRet, ExecHooks, ReplayError, TraceBuf};
use branchlab_workloads::Benchmark;

use crate::harness::{eval_predictors_live, ExperimentConfig, ExperimentError};
use crate::lane_stats::{note_lanes, LaneStats};
use crate::sweep_stats::{note_sweep, SweepStats};
use crate::trace_replay::{captured_runs, note_replay};

/// Handle to one enqueued predictor group (one study's sweep points);
/// redeem with [`SweepResults::stats`].
#[derive(Copy, Clone, Debug)]
pub struct PredTicket(usize);

/// Handle to one enqueued set of return-address stacks; redeem with
/// [`SweepResults::ras`].
#[derive(Copy, Clone, Debug)]
pub struct RasTicket {
    start: usize,
    len: usize,
}

/// A deferred evaluation over one benchmark's event stream.
///
/// Enqueue predictor groups and return-address stacks, then score
/// everything in one pass over the benchmark's captured trace:
///
/// ```
/// use branchlab_experiments::{ExperimentConfig, SweepBatch};
/// use branchlab_predict::{Cbtb, Sbtb};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let bench = branchlab_workloads::benchmark("wc").unwrap();
/// let config = ExperimentConfig::test();
///
/// let mut batch = SweepBatch::new(bench, &config);
/// let btbs = batch.eval(vec![Box::new(Sbtb::paper()), Box::new(Cbtb::paper())]);
/// let stacks = batch.ras(&[8]);
///
/// let results = batch.run()?;
/// let stats = results.stats(btbs);
/// assert_eq!(stats.len(), 2);
/// assert!(stats[0].accuracy() > 0.5);
/// assert!(results.ras(stacks)[0].returns > 0);
/// # Ok(())
/// # }
/// ```
pub struct SweepBatch<'a> {
    bench: &'a Benchmark,
    config: &'a ExperimentConfig,
    groups: Vec<Vec<Box<dyn BranchPredictor>>>,
    ras: Vec<ReturnAddressStack>,
    trace: Option<SpanLink>,
}

impl<'a> SweepBatch<'a> {
    /// An empty batch over `bench`'s conventional binary.
    #[must_use]
    pub fn new(bench: &'a Benchmark, config: &'a ExperimentConfig) -> Self {
        SweepBatch {
            bench,
            config,
            groups: Vec::new(),
            ras: Vec::new(),
            trace: None,
        }
    }

    /// Record this batch's capture/score/merge phases — and each
    /// scoring worker's `score_shard` — as child spans under `parent` (see
    /// [`branchlab_telemetry::trace`]). Off by default, so offline
    /// sweeps pay nothing.
    pub fn set_trace_parent(&mut self, parent: SpanLink) {
        self.trace = Some(parent);
    }

    /// The benchmark this batch evaluates.
    #[must_use]
    pub fn bench(&self) -> &'a Benchmark {
        self.bench
    }

    /// The configuration this batch evaluates under.
    #[must_use]
    pub fn config(&self) -> &'a ExperimentConfig {
        self.config
    }

    /// Enqueue one group of predictors (typically one study's sweep
    /// points), scored identically to [`eval_predictors`].
    ///
    /// [`eval_predictors`]: crate::harness::eval_predictors
    pub fn eval(&mut self, predictors: Vec<Box<dyn BranchPredictor>>) -> PredTicket {
        self.groups.push(predictors);
        PredTicket(self.groups.len() - 1)
    }

    /// Enqueue return-address stacks of the given depths (they consume
    /// the trace's call/return events).
    pub fn ras(&mut self, depths: &[usize]) -> RasTicket {
        let start = self.ras.len();
        self.ras
            .extend(depths.iter().map(|&d| ReturnAddressStack::new(d)));
        RasTicket {
            start,
            len: depths.len(),
        }
    }

    /// Execute every enqueued evaluation and hand back the results.
    ///
    /// # Errors
    /// Returns [`ExperimentError`] on compile/lower/run/replay failure.
    pub fn run(self) -> Result<SweepResults, ExperimentError> {
        if self.config.use_trace_replay {
            self.run_replay()
        } else {
            self.run_live()
        }
    }

    /// One replay pass feeds every evaluator, lane family, and stack
    /// through the block-synchronous executor (see the module docs); the
    /// results are bit-identical at any thread count.
    fn run_replay(self) -> Result<SweepResults, ExperimentError> {
        let trace = self.trace;
        let runs = {
            let mut span = trace.as_ref().map(|t| t.child("sweep_capture"));
            let runs = captured_runs(self.bench, self.config)?;
            if let Some(s) = span.as_mut() {
                s.add_work(runs.iter().map(TraceBuf::events).sum());
            }
            runs
        };
        let group_sizes: Vec<usize> = self.groups.iter().map(Vec::len).collect();
        let points: Vec<Box<dyn BranchPredictor>> = self.groups.into_iter().flatten().collect();
        let n_points = points.len();
        let mut lanes = LaneStats::default();
        let (scalars, families) = if self.config.use_lane_scoring {
            let (scalars, families) = plan_lanes(points);
            lanes = LaneStats {
                passes: 1,
                families: families.len() as u64,
                lanes: families.iter().map(|f| f.indices.len() as u64).sum(),
                scalar_points: scalars.len() as u64,
                // Every family walks the complete stream exactly once.
                events: families.len() as u64 * runs.iter().map(TraceBuf::events).sum::<u64>(),
            };
            note_lanes(&lanes);
            (scalars, families)
        } else {
            (points.into_iter().enumerate().collect(), Vec::new())
        };
        // Lane families first: they are the heaviest units, so claiming
        // them early keeps the tail of each round short.
        let mut units: Vec<Unit> = families.into_iter().map(Unit::Lanes).collect();
        units.extend(
            scalars
                .into_iter()
                .map(|(i, p)| Unit::Scalar(i, Evaluator::new(p))),
        );
        let n_ras = self.ras.len();
        if n_ras > 0 {
            units.push(Unit::Ras(self.ras));
        }

        let pass = {
            let mut span = trace.as_ref().map(|t| t.child("sweep_score"));
            let link = span.as_ref().map(branchlab_telemetry::SpanHandle::link);
            let pass = score_blocks(
                &runs,
                &mut units,
                self.config.resolved_sweep_threads(),
                EVENT_BLOCK,
                link.as_ref(),
            )?;
            if let Some(s) = span.as_mut() {
                s.arg("points", (n_points + n_ras) as u64);
                s.arg("workers", pass.workers as u64);
                s.arg("rounds", pass.rounds);
                s.add_work(pass.events);
            }
            pass
        };
        note_replay(pass.events, pass.decode_us);

        // Merge scalar and lane results back by flattened plan index,
        // so the regrouped tables are independent of how the planner
        // split the points and of which worker scored what.
        let merge_started = Instant::now();
        let merge_span = trace.as_ref().map(|t| t.child("sweep_merge"));
        let n_units = units.len();
        let mut out: Vec<Option<PredStats>> = vec![None; n_points];
        let mut ras = Vec::new();
        // Spent predictors are freed after the merge is timed.
        let mut spent = Vec::with_capacity(n_units);
        for unit in units {
            match unit {
                Unit::Scalar(i, e) => {
                    out[i] = Some(e.stats);
                    spent.push(e.predictor);
                }
                Unit::Lanes(work) => {
                    for (i, s) in work.indices.into_iter().zip(work.family.finish()) {
                        out[i] = Some(s);
                    }
                }
                Unit::Ras(stacks) => ras = stacks,
            }
        }
        let mut stats = out
            .into_iter()
            .map(|s| s.expect("every sweep point was scored"));
        let groups = group_sizes
            .into_iter()
            .map(|n| stats.by_ref().take(n).collect())
            .collect();
        drop(merge_span);
        let mut sweep = SweepStats::default();
        if pass.workers > 1 {
            sweep = SweepStats {
                sweeps: 1,
                workers: pass.workers as u64,
                points: n_points as u64,
                batches: n_units as u64,
                busy_us: pass.busy_us,
                merge_us: micros(merge_started),
            };
            note_sweep(&sweep);
        }
        drop(spent);
        Ok(SweepResults {
            groups,
            ras,
            sweep,
            lanes,
        })
    }

    /// The re-interpretation baseline: one live pass per group (the
    /// pre-replay cost shape), or one full pipeline per predictor when
    /// [`ExperimentConfig::sweep_per_point`] is set.
    fn run_live(self) -> Result<SweepResults, ExperimentError> {
        let mut groups = Vec::with_capacity(self.groups.len());
        for preds in self.groups {
            if self.config.sweep_per_point {
                let mut stats = Vec::with_capacity(preds.len());
                for p in preds {
                    // The pre-replay methodology, reconstructed point
                    // for point: every sweep configuration re-runs the
                    // full compile→profile→interpret pipeline (the
                    // profile feeds the point's predictor construction
                    // in that methodology; here the batch already built
                    // its predictors, so only the cost shape matters).
                    let module = self.bench.compile()?;
                    let _profile = profile_module_with(
                        &module,
                        &self.bench.runs(self.config.scale, self.config.seed),
                        &self.config.exec_config(),
                    )?;
                    stats.extend(eval_predictors_live(self.bench, self.config, vec![p])?);
                }
                groups.push(stats);
            } else {
                groups.push(eval_predictors_live(self.bench, self.config, preds)?);
            }
        }
        let mut ras = self.ras;
        if !ras.is_empty() {
            let module = self.bench.compile()?;
            let program = lower(&module)?;
            let exec_cfg = self.config.exec_config();
            for r in &mut ras {
                for streams in self.bench.runs(self.config.scale, self.config.seed) {
                    let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
                    run(&program, &exec_cfg, &refs, r)?;
                }
            }
        }
        Ok(SweepResults {
            groups,
            ras,
            sweep: SweepStats::default(),
            lanes: LaneStats::default(),
        })
    }
}

/// Results of a [`SweepBatch`], indexed by the tickets it issued.
pub struct SweepResults {
    groups: Vec<Vec<PredStats>>,
    ras: Vec<ReturnAddressStack>,
    sweep: SweepStats,
    lanes: LaneStats,
}

impl SweepResults {
    /// The scored statistics for one enqueued predictor group, in
    /// enqueue order.
    #[must_use]
    pub fn stats(&self, ticket: PredTicket) -> &[PredStats] {
        &self.groups[ticket.0]
    }

    /// The driven return-address stacks for one enqueued depth set.
    #[must_use]
    pub fn ras(&self, ticket: RasTicket) -> &[ReturnAddressStack] {
        &self.ras[ticket.start..ticket.start + ticket.len]
    }

    /// The parallel-sweep counters of this batch's own scoring pass
    /// (all zero when it scored on one worker or ran live). Unlike a
    /// [`SweepStats::snapshot`] diff, no concurrent sweep leaks in.
    #[must_use]
    pub fn sweep_stats(&self) -> SweepStats {
        self.sweep
    }

    /// The lane-planner counters of this batch's own scoring pass (all
    /// zero when lane scoring was off or it ran live).
    #[must_use]
    pub fn lane_stats(&self) -> LaneStats {
        self.lanes
    }
}

/// One packed lane family plus the flattened plan indices its lanes'
/// results merge back into ([`LaneFamily::finish`] returns stats in
/// lane order, which is exactly `indices` order by construction).
struct LaneFamilyWork {
    indices: Vec<usize>,
    family: LaneFamily,
}

/// Group compatible sweep points into lane families. Points whose
/// [`BranchPredictor::lane_spec`] is `None` (stateful, instrumented,
/// or an unpackable scheme), points with no [`LaneFamilyKey`], and
/// families that end up with a single member stay scalar — the
/// returned `(flattened index, predictor)` list. Bucketing is
/// first-fit in plan order and capped at [`MAX_LANES`] per family
/// (overflow opens another family), so the plan is deterministic.
#[allow(clippy::type_complexity)]
fn plan_lanes(
    points: Vec<Box<dyn BranchPredictor>>,
) -> (Vec<(usize, Box<dyn BranchPredictor>)>, Vec<LaneFamilyWork>) {
    struct Bucket {
        key: LaneFamilyKey,
        indices: Vec<usize>,
        specs: Vec<LaneSpec>,
        boxes: Vec<Box<dyn BranchPredictor>>,
    }
    let mut scalars: Vec<(usize, Box<dyn BranchPredictor>)> = Vec::new();
    let mut buckets: Vec<Bucket> = Vec::new();
    for (i, p) in points.into_iter().enumerate() {
        let keyed = p.lane_spec().and_then(|s| s.family_key().map(|k| (s, k)));
        match keyed {
            Some((spec, key)) => {
                match buckets
                    .iter_mut()
                    .find(|b| b.key == key && b.indices.len() < MAX_LANES)
                {
                    Some(b) => {
                        b.indices.push(i);
                        b.specs.push(spec);
                        b.boxes.push(p);
                    }
                    None => buckets.push(Bucket {
                        key,
                        indices: vec![i],
                        specs: vec![spec],
                        boxes: vec![p],
                    }),
                }
            }
            None => scalars.push((i, p)),
        }
    }
    let mut families = Vec::new();
    for b in buckets {
        if b.indices.len() >= 2 {
            families.push(LaneFamilyWork {
                indices: b.indices,
                family: LaneFamily::new(&b.specs),
            });
        } else {
            // A one-lane family has no amortization to offer; give the
            // point its predictor back.
            scalars.extend(b.indices.into_iter().zip(b.boxes));
        }
    }
    scalars.sort_by_key(|(i, _)| *i);
    (scalars, families)
}

/// Events per decoded block. Each unit consumes a long run of events
/// with its tables cache-hot — round-robining tens of predictors per
/// event thrashes L1 and costs several times the per-event work of a
/// dedicated live pass — while one block per round keeps the barrier
/// cost negligible.
const EVENT_BLOCK: usize = 16 * 1024;

/// One scoring unit of the executor: it owns its sinks and consumes
/// every block of the pass, in capture order.
enum Unit {
    /// One scalar sweep point, with its flattened plan index.
    Scalar(usize, Evaluator<Box<dyn BranchPredictor>>),
    /// One packed lane family — all its lanes score in one walk.
    Lanes(LaneFamilyWork),
    /// Every enqueued return-address stack. Stacks consume only the
    /// call/return half of the stream, and branch events never interact
    /// with it, so delivering the halves on separate units cannot change
    /// any statistic.
    Ras(Vec<ReturnAddressStack>),
}

impl Unit {
    /// Score one block; returns the point-events consumed.
    fn score(&mut self, block: &BlockBuf) -> u64 {
        match self {
            Unit::Scalar(_, e) => {
                e.branch_block(&block.branches);
                block.branches.len() as u64
            }
            Unit::Lanes(work) => {
                work.family.eval_block(&block.branches);
                (work.family.lanes() * block.branches.len()) as u64
            }
            Unit::Ras(stacks) => {
                for &cr in &block.callrets {
                    for r in stacks.iter_mut() {
                        match cr {
                            CallRet::Call { from, callee } => r.call(from, callee),
                            CallRet::Ret { from, to } => r.ret(from, to),
                        }
                    }
                }
                (stacks.len() * block.callrets.len()) as u64
            }
        }
    }
}

/// What one executor pass — or one worker's share of it — did.
#[derive(Debug, Default)]
struct Pass {
    /// Workers that ran the rounds (the caller's thread included).
    workers: usize,
    /// Rounds, one per decoded block.
    rounds: u64,
    /// Events decoded — the trace's length; each is decoded once.
    events: u64,
    /// Time inside units (decode included), summed over workers.
    busy_us: u64,
    /// Time spent decoding.
    decode_us: u64,
}

/// Why a pass stopped early. The first failure wins.
enum Failure {
    Trace(ReplayError),
    Panic(Box<dyn Any + Send>),
}

/// The state every worker of a pass shares. Block `k` lives in
/// `blocks[k % 2]`; round `k` claims from `claims[k % 2]`. Claim 0 is
/// "decode block `k + 1` into the spare buffer", claim `i ≥ 1` is
/// `units[i - 1]`. The claim counters publish no data, so they are
/// `Relaxed`: the locks and the round barrier order every access to
/// units and blocks.
struct Rounds<'r, 'u> {
    units: Vec<Mutex<&'u mut Unit>>,
    decoder: Mutex<BlockIter<'r>>,
    blocks: [RwLock<BlockBuf>; 2],
    claims: [AtomicUsize; 2],
    /// The first failure and the round it happened in.
    failure: Mutex<Option<(u64, Failure)>>,
    barrier: Barrier,
}

/// A lock whose holder panicked is still safe to read here: the pass
/// is already failing and only the failure record is used.
fn unpoison<G>(guard: LockResult<G>) -> G {
    guard.unwrap_or_else(PoisonError::into_inner)
}

impl Rounds<'_, '_> {
    /// Run rounds until the spare block comes back empty or a unit
    /// fails. Every worker passes every barrier — a failing unit is
    /// caught and recorded rather than unwinding past it — so no worker
    /// can strand the others.
    fn work(&self, trace: Option<&SpanLink>) -> Pass {
        let mut span = trace.map(|t| t.child("score_shard"));
        let mut tally = Pass::default();
        let (mut units, mut point_events) = (0u64, 0u64);
        loop {
            let round = tally.rounds;
            let cur = (round % 2) as usize;
            loop {
                let claim = self.claims[cur].fetch_add(1, Ordering::Relaxed);
                if claim > self.units.len() {
                    break;
                }
                let started = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    if claim == 0 {
                        let mut spare = unpoison(self.blocks[1 - cur].write());
                        let next = unpoison(self.decoder.lock()).next_block_into(&mut spare);
                        next.err().map(Failure::Trace)
                    } else {
                        let block = unpoison(self.blocks[cur].read());
                        point_events += unpoison(self.units[claim - 1].lock()).score(&block);
                        units += 1;
                        None
                    }
                }))
                .unwrap_or_else(|panic| Some(Failure::Panic(panic)));
                let us = micros(started);
                tally.busy_us += us;
                if claim == 0 {
                    tally.decode_us += us;
                }
                if let Some(f) = outcome {
                    unpoison(self.failure.lock()).get_or_insert((round, f));
                }
            }
            tally.rounds += 1;
            if self.barrier.wait().is_leader() {
                // Round k + 2 reuses this counter; every worker passes
                // round k + 1's barrier first, so the reset lands in time.
                self.claims[cur].store(0, Ordering::Relaxed);
            }
            // Only a failure from this round or earlier counts: a faster
            // worker may already be failing in the next round, and every
            // worker must reach that round's barrier too.
            let failed = unpoison(self.failure.lock())
                .as_ref()
                .is_some_and(|(r, _)| *r <= round);
            // Block k + 1 stays untouched until round k + 2's decode.
            if failed || unpoison(self.blocks[1 - cur].read()).is_empty() {
                break;
            }
        }
        if let Some(s) = span.as_mut() {
            s.arg("units", units);
            s.add_work(point_events);
        }
        tally
    }
}

/// The block-synchronous executor: decode `runs` once, block by block,
/// and feed every block to every unit on `threads` workers.
///
/// Block 0 is decoded up front. In round `k` the workers claim, from an
/// atomic counter, the decode of block `k + 1` into the spare buffer
/// (always claimed first) and then each unit in turn, which scores
/// block `k`; a barrier ends the round. Each unit therefore sees the
/// whole stream in capture order whichever worker runs it, so results
/// are bit-identical at any thread count. One worker is the caller's
/// thread; with `threads == 1` nothing is spawned.
///
/// A unit that panics stops the pass at the end of its round and the
/// panic resumes on the caller; a corrupt trace stops it the same way
/// and returns [`ExperimentError::Trace`].
fn score_blocks(
    runs: &[TraceBuf],
    units: &mut [Unit],
    threads: usize,
    block_events: usize,
    trace: Option<&SpanLink>,
) -> Result<Pass, ExperimentError> {
    let trace_err = |e: ReplayError| ExperimentError::Trace(e.to_string());
    let mut decoder = BlockIter::with_block_events(runs, block_events);
    if let Some(t) = trace {
        decoder.set_trace_parent(t);
    }
    let started = Instant::now();
    let mut first = BlockBuf::default();
    decoder.next_block_into(&mut first).map_err(trace_err)?;
    let workers = threads.clamp(1, units.len() + 1);
    let first_us = micros(started);
    let mut pass = Pass {
        workers,
        busy_us: first_us,
        decode_us: first_us,
        ..Pass::default()
    };
    let rounds = Rounds {
        units: units.iter_mut().map(Mutex::new).collect(),
        decoder: Mutex::new(decoder),
        blocks: [RwLock::new(first), RwLock::new(BlockBuf::default())],
        claims: [AtomicUsize::new(0), AtomicUsize::new(0)],
        failure: Mutex::new(None),
        barrier: Barrier::new(workers),
    };
    let tallies: Vec<Pass> = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..workers)
            .map(|_| s.spawn(|| rounds.work(trace)))
            .collect();
        let mut tallies = vec![rounds.work(trace)];
        for h in spawned {
            tallies.push(h.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        tallies
    });
    match unpoison(rounds.failure.into_inner()) {
        Some((_, Failure::Panic(p))) => resume_unwind(p),
        Some((_, Failure::Trace(e))) => return Err(trace_err(e)),
        None => {}
    }
    pass.rounds = tallies[0].rounds;
    pass.events = unpoison(rounds.decoder.into_inner()).delivered();
    for t in tallies {
        pass.busy_us += t.busy_us;
        pass.decode_us += t.decode_us;
    }
    Ok(pass)
}

fn micros(since: Instant) -> u64 {
    since.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::eval_predictors;
    use branchlab_predict::{AlwaysTaken, Cbtb, Sbtb};
    use branchlab_workloads::benchmark;

    #[test]
    fn batched_stats_match_individual_eval_calls() {
        let bench = benchmark("wc").unwrap();
        let cfg = ExperimentConfig::test();
        let mut batch = SweepBatch::new(bench, &cfg);
        let a = batch.eval(vec![Box::new(Sbtb::paper()), Box::new(AlwaysTaken)]);
        let b = batch.eval(vec![Box::new(Cbtb::paper())]);
        let r = batch.ras(&[4, 64]);
        let results = batch.run().unwrap();

        let solo_a = eval_predictors(
            bench,
            &cfg,
            vec![Box::new(Sbtb::paper()), Box::new(AlwaysTaken)],
        )
        .unwrap();
        let solo_b = eval_predictors(bench, &cfg, vec![Box::new(Cbtb::paper())]).unwrap();
        assert_eq!(results.stats(a), solo_a.as_slice());
        assert_eq!(results.stats(b), solo_b.as_slice());
        let ras = results.ras(r);
        assert_eq!(ras.len(), 2);
        assert!(ras[0].returns > 0);
        assert!(ras[1].accuracy() >= ras[0].accuracy());
    }

    #[test]
    fn parallel_replay_is_bit_identical_to_serial() {
        let bench = benchmark("grep").unwrap();
        fn plan<'a>(
            bench: &'a Benchmark,
            cfg: &'a ExperimentConfig,
        ) -> (SweepBatch<'a>, PredTicket, PredTicket, RasTicket) {
            let mut batch = SweepBatch::new(bench, cfg);
            let a = batch.eval(vec![
                Box::new(Sbtb::paper()) as Box<dyn BranchPredictor>,
                Box::new(Cbtb::paper()),
                Box::new(AlwaysTaken),
            ]);
            let b = batch.eval(vec![Box::new(Cbtb::paper()) as Box<dyn BranchPredictor>]);
            let r = batch.ras(&[4, 64]);
            (batch, a, b, r)
        }
        let serial_cfg = ExperimentConfig {
            sweep_threads: Some(1),
            ..ExperimentConfig::test()
        };
        let (batch, sa, sb, sr) = plan(bench, &serial_cfg);
        let serial = batch.run().unwrap();
        for threads in [2, 3, 7] {
            let cfg = ExperimentConfig {
                sweep_threads: Some(threads),
                ..ExperimentConfig::test()
            };
            let (batch, pa, pb, pr) = plan(bench, &cfg);
            let parallel = batch.run().unwrap();
            assert_eq!(parallel.stats(pa), serial.stats(sa), "threads={threads}");
            assert_eq!(parallel.stats(pb), serial.stats(sb), "threads={threads}");
            let (ser, par) = (serial.ras(sr), parallel.ras(pr));
            assert_eq!(par.len(), ser.len());
            for (p, s) in par.iter().zip(ser) {
                assert_eq!((p.returns, p.correct), (s.returns, s.correct));
            }
            let delta = parallel.sweep_stats();
            assert_eq!(delta.sweeps, 1, "threads={threads}");
            assert_eq!(delta.points, 4, "threads={threads}");
            assert!(delta.batches >= 2, "threads={threads} {delta:?}");
        }
    }

    #[test]
    fn traced_batch_records_phase_and_shard_spans() {
        use branchlab_telemetry::{Span, TraceContext};
        let bench = benchmark("wc").unwrap();
        let traced = |threads: usize| -> Vec<Span> {
            let cfg = ExperimentConfig {
                sweep_threads: Some(threads),
                ..ExperimentConfig::test()
            };
            let ctx = TraceContext::new();
            let root = ctx.root("compute");
            let mut batch = SweepBatch::new(bench, &cfg);
            batch.set_trace_parent(root.link());
            let _ = batch.eval(vec![Box::new(Sbtb::paper()), Box::new(Cbtb::paper())]);
            let _ = batch.ras(&[8]);
            batch.run().unwrap();
            drop(root);
            ctx.finish().spans
        };
        for threads in [1, 2] {
            // Capture, one score pass with a worker span per thread and
            // the trace crate's decode span under it, then the merge.
            let spans = traced(threads);
            let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
            for phase in [
                "sweep_capture",
                "sweep_score",
                "score_shard",
                "block_replay",
                "sweep_merge",
            ] {
                assert!(names.contains(&phase), "missing {phase} in {names:?}");
            }
            let score = spans.iter().find(|s| s.name == "sweep_score").unwrap();
            assert_eq!(score.arg_value("points"), Some(3), "2 predictors + 1 RAS");
            let shards: Vec<_> = spans.iter().filter(|s| s.name == "score_shard").collect();
            assert_eq!(shards.len(), threads, "one shard per worker");
            assert!(shards.iter().all(|s| s.parent == Some(score.id)));
            // Every unit (Sbtb, Cbtb, the RAS set) ran once per round,
            // on whichever worker claimed it.
            let units: u64 = shards.iter().filter_map(|s| s.arg_value("units")).sum();
            assert_eq!(units, 3 * score.arg_value("rounds").unwrap(), "{shards:?}");
            assert!(shards.iter().map(|s| s.work).sum::<u64>() > 0);
        }
    }

    /// Executor units covering every kind: a 3-lane CBTB family, two
    /// scalar points and a RAS set.
    fn mixed_units(extra: Option<Box<dyn BranchPredictor>>) -> Vec<Unit> {
        use branchlab_predict::{CbtbConfig, Gshare};
        let mut points: Vec<Box<dyn BranchPredictor>> = (1..=3)
            .map(|threshold| {
                Box::new(Cbtb::new(CbtbConfig {
                    threshold,
                    ..CbtbConfig::paper()
                })) as Box<dyn BranchPredictor>
            })
            .collect();
        points.push(Box::new(Sbtb::paper()));
        points.push(Box::new(Gshare::new(10, 4)));
        points.extend(extra);
        let (scalars, families) = plan_lanes(points);
        assert_eq!(families.len(), 1);
        let mut units: Vec<Unit> = families.into_iter().map(Unit::Lanes).collect();
        units.extend(
            scalars
                .into_iter()
                .map(|(i, p)| Unit::Scalar(i, Evaluator::new(p))),
        );
        units.push(Unit::Ras(vec![
            ReturnAddressStack::new(4),
            ReturnAddressStack::new(16),
        ]));
        units
    }

    /// What a set of units scored, in unit order.
    fn scored(units: Vec<Unit>) -> (Vec<PredStats>, Vec<(u64, u64, u64)>) {
        let (mut stats, mut ras) = (Vec::new(), Vec::new());
        for unit in units {
            match unit {
                Unit::Scalar(_, e) => stats.push(e.stats),
                Unit::Lanes(work) => stats.extend(work.family.finish()),
                Unit::Ras(stacks) => {
                    ras.extend(stacks.iter().map(|r| (r.returns, r.correct, r.overflows)));
                }
            }
        }
        (stats, ras)
    }

    /// wc's trace at test scale, captured privately so these tests
    /// leave the process-wide trace cache and its counters alone.
    fn wc_runs() -> Vec<TraceBuf> {
        let bench = benchmark("wc").unwrap();
        let cfg = ExperimentConfig::test();
        let program = lower(&bench.compile().unwrap()).unwrap();
        bench
            .runs(cfg.scale, cfg.seed)
            .iter()
            .map(|streams| {
                let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
                let mut cap = branchlab_trace::Capture::new();
                run(&program, &cfg.exec_config(), &refs, &mut cap).unwrap();
                cap.into_buf()
            })
            .collect()
    }

    #[test]
    fn tiny_blocks_match_one_thread_over_hundreds_of_rounds() {
        let runs = wc_runs();
        let mut serial = mixed_units(None);
        let base = score_blocks(&runs, &mut serial, 1, EVENT_BLOCK, None).unwrap();
        assert_eq!((base.workers, base.rounds), (1, 5), "{base:?}");
        let want = scored(serial);
        for threads in [1, 2, 3] {
            let mut units = mixed_units(None);
            let pass = score_blocks(&runs, &mut units, threads, 256, None).unwrap();
            assert!(pass.rounds >= 200, "threads={threads} {pass:?}");
            assert_eq!(pass.events, base.events);
            assert_eq!(pass.workers, threads);
            assert_eq!(scored(units), want, "threads={threads}");
        }
    }

    #[test]
    fn truncated_trace_is_a_trace_error_at_every_thread_count() {
        // Dropping the last byte cuts the final record mid-field.
        let mut cut = wc_runs();
        let last = cut.pop().unwrap();
        let bytes = last.as_bytes();
        cut.push(TraceBuf::from_parts(
            bytes[..bytes.len() - 1].to_vec(),
            last.events(),
        ));
        for threads in [1, 2, 3] {
            for block in [EVENT_BLOCK, 256] {
                let mut units = mixed_units(None);
                match score_blocks(&cut, &mut units, threads, block, None) {
                    Err(ExperimentError::Trace(msg)) => {
                        assert!(msg.contains("truncated record"), "{msg}");
                    }
                    other => panic!("threads={threads} block={block}: {other:?}"),
                }
            }
        }
    }

    /// A predictor that panics on its third block.
    struct Bomb(u32);

    impl BranchPredictor for Bomb {
        fn name(&self) -> &'static str {
            "bomb"
        }
        fn predict(&mut self, _: &branchlab_trace::BranchEvent) -> branchlab_predict::Prediction {
            branchlab_predict::Prediction::not_taken()
        }
        fn update(&mut self, _: &branchlab_trace::BranchEvent, _: &branchlab_predict::Prediction) {}
        fn eval_block(&mut self, _: &[branchlab_trace::BranchEvent], _: &mut PredStats) {
            self.0 += 1;
            assert!(self.0 < 3, "bomb went off");
        }
    }

    #[test]
    fn panicking_unit_propagates_instead_of_deadlocking() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let runs = wc_runs();
            let mut units = mixed_units(Some(Box::new(Bomb(0))));
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                score_blocks(&runs, &mut units, 2, 256, None)
            }));
            let message = outcome.err().and_then(|p| {
                p.downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
            });
            let _ = tx.send(message);
        });
        let message = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("executor deadlocked after a unit panicked");
        assert_eq!(message.as_deref(), Some("bomb went off"));
    }

    /// A lane-heavy plan: a CBTB counter family, a gshare pair, a
    /// local pair, plus deliberately unpackable points (an Sbtb, a
    /// counter too wide for the planes).
    fn lane_plan<'a>(
        bench: &'a Benchmark,
        cfg: &'a ExperimentConfig,
    ) -> (SweepBatch<'a>, PredTicket, PredTicket) {
        use branchlab_predict::{CbtbConfig, Gshare, LocalHistory};
        let mut batch = SweepBatch::new(bench, cfg);
        let a = batch.eval(vec![
            Box::new(Cbtb::new(CbtbConfig {
                threshold: 1,
                ..CbtbConfig::paper()
            })) as Box<dyn BranchPredictor>,
            Box::new(Sbtb::paper()),
            Box::new(Cbtb::paper()),
            Box::new(Cbtb::new(CbtbConfig {
                counter_bits: 3,
                threshold: 4,
                ..CbtbConfig::paper()
            })),
            Box::new(Cbtb::new(CbtbConfig {
                counter_bits: 7,
                threshold: 64,
                ..CbtbConfig::paper()
            })),
        ]);
        let b = batch.eval(vec![
            Box::new(Gshare::new(12, 8)) as Box<dyn BranchPredictor>,
            Box::new(LocalHistory::new(12, 6)),
            Box::new(Gshare::new(10, 4)),
            Box::new(LocalHistory::new(10, 2)),
        ]);
        (batch, a, b)
    }

    #[test]
    fn lane_scoring_is_bit_identical_to_scalar() {
        let bench = benchmark("wc").unwrap();
        let scalar_cfg = ExperimentConfig {
            use_lane_scoring: false,
            sweep_threads: Some(1),
            ..ExperimentConfig::test()
        };
        let (batch, sa, sb) = lane_plan(bench, &scalar_cfg);
        let scalar = batch.run().unwrap();
        // Serial path here (the parallel × lanes cross product runs in
        // tests/replay_fidelity.rs, in its own process); counters are
        // process-wide, so assertions are monotonic-safe `>=`.
        let cfg = ExperimentConfig {
            sweep_threads: Some(1),
            ..ExperimentConfig::test()
        };
        let before = LaneStats::snapshot();
        let (batch, la, lb) = lane_plan(bench, &cfg);
        let laned = batch.run().unwrap();
        assert_eq!(laned.stats(la), scalar.stats(sa));
        assert_eq!(laned.stats(lb), scalar.stats(sb));
        let delta = LaneStats::snapshot().since(&before);
        assert!(delta.passes >= 1);
        // One CBTB family (3 paper-geometry lanes), one gshare pair,
        // one local pair; the Sbtb and the 7-bit counter stay scalar.
        assert!(delta.families >= 3, "{delta:?}");
        assert!(delta.lanes >= 7, "{delta:?}");
        assert!(delta.scalar_points >= 2, "{delta:?}");
        assert!(delta.events > 0, "{delta:?}");
        // The batch's own counters are exact: no concurrent test leaks in.
        let own = laned.lane_stats();
        assert_eq!(
            (own.passes, own.families, own.lanes, own.scalar_points),
            (1, 3, 7, 2),
            "{own:?}"
        );
        assert_eq!(
            laned.sweep_stats(),
            SweepStats::default(),
            "scored serially"
        );
    }

    #[test]
    fn lane_planner_returns_singletons_to_the_scalar_path() {
        use branchlab_predict::Gshare;
        // One point per family key: nothing to amortize anywhere, so
        // every predictor must come back on the scalar path in order.
        let points: Vec<Box<dyn BranchPredictor>> = vec![
            Box::new(Cbtb::paper()),
            Box::new(Gshare::default()),
            Box::new(Sbtb::paper()),
        ];
        let (scalars, families) = plan_lanes(points);
        assert!(families.is_empty());
        let idx: Vec<usize> = scalars.iter().map(|(i, _)| *i).collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn lane_planner_packs_compatible_points_and_overflows_at_cap() {
        use branchlab_predict::CbtbConfig;
        // 35 compatible paper-geometry variants (threshold cycled) plus
        // one incompatible geometry: 32 lanes + a 3-lane overflow
        // family + 1 singleton back to scalar.
        let mut points: Vec<Box<dyn BranchPredictor>> = (0..35)
            .map(|i| {
                Box::new(Cbtb::new(CbtbConfig {
                    threshold: 1 + (i % 3),
                    ..CbtbConfig::paper()
                })) as Box<dyn BranchPredictor>
            })
            .collect();
        points.push(Box::new(Cbtb::new(CbtbConfig {
            entries: 64,
            ways: 4,
            ..CbtbConfig::paper()
        })));
        let (scalars, families) = plan_lanes(points);
        assert_eq!(families.len(), 2);
        assert_eq!(families[0].indices.len(), MAX_LANES);
        assert_eq!(families[1].indices.len(), 3);
        assert_eq!(scalars.len(), 1);
        assert_eq!(scalars[0].0, 35);
    }

    #[test]
    fn live_batch_matches_replayed_batch() {
        let bench = benchmark("cmp").unwrap();
        let build = || -> Vec<Box<dyn BranchPredictor>> {
            vec![Box::new(Sbtb::paper()), Box::new(Cbtb::paper())]
        };
        let replay_cfg = ExperimentConfig::test();
        let mut batch = SweepBatch::new(bench, &replay_cfg);
        let t = batch.eval(build());
        let replayed = batch.run().unwrap();

        for sweep_per_point in [false, true] {
            let live_cfg = ExperimentConfig {
                use_trace_replay: false,
                sweep_per_point,
                ..ExperimentConfig::test()
            };
            let mut batch = SweepBatch::new(bench, &live_cfg);
            let lt = batch.eval(build());
            let live = batch.run().unwrap();
            assert_eq!(
                live.stats(lt),
                replayed.stats(t),
                "sweep_per_point={sweep_per_point}"
            );
        }
    }
}
