//! The predictor interface and the scoring harness that turns a
//! predictor into an [`ExecHooks`] sink with accuracy/miss-ratio
//! accounting (the source of the paper's Table 3).

use branchlab_ir::Addr;
use branchlab_trace::{BranchEvent, BranchKind, ExecHooks};

/// Where a taken-prediction's target comes from, which decides whether a
/// taken-prediction can actually steer the fetch unit correctly.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TargetInfo {
    /// No target available (direction-only predictor, e.g. always-taken
    /// without a BTB). Scored on direction alone.
    None,
    /// A concrete target remembered by hardware (BTB entry); correct only
    /// if it matches the actual target.
    Addr(Addr),
    /// The target encoded in the instruction (compiler schemes). Always
    /// right for direct branches, never right for indirect ones.
    Encoded,
}

/// A prediction made at fetch time.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction.
    pub taken: bool,
    /// Target source for a taken prediction.
    pub target: TargetInfo,
    /// BTB lookup outcome: `Some(true)` hit, `Some(false)` miss, `None`
    /// for predictors without a buffer.
    pub hit: Option<bool>,
}

impl Prediction {
    /// A buffer-less not-taken prediction.
    #[must_use]
    pub fn not_taken() -> Self {
        Prediction {
            taken: false,
            target: TargetInfo::None,
            hit: None,
        }
    }

    /// Was this prediction correct for the resolved branch `ev`?
    ///
    /// Correct means the fetch unit was steered onto the right path:
    /// direction matches, and for a taken prediction the supplied target
    /// (if the scheme supplies one) matches the actual target.
    #[must_use]
    pub fn is_correct(&self, ev: &BranchEvent) -> bool {
        if !self.taken {
            return !ev.taken;
        }
        if !ev.taken {
            return false;
        }
        match self.target {
            TargetInfo::None => true,
            TargetInfo::Addr(a) => a == ev.target,
            TargetInfo::Encoded => ev.kind != BranchKind::UncondIndirect,
        }
    }
}

/// A branch prediction scheme.
///
/// `Send` is a supertrait so a boxed `dyn BranchPredictor` can be moved
/// to a sweep worker thread; every predictor is plain owned data, so the
/// bound costs implementors nothing.
pub trait BranchPredictor: Send {
    /// Scheme name for reports.
    fn name(&self) -> &'static str;

    /// Predict the branch at fetch time. Implementations may update
    /// internal LRU state but must not observe `ev.taken`/`ev.target`.
    fn predict(&mut self, ev: &BranchEvent) -> Prediction;

    /// Learn from the resolved branch (called after [`predict`] with the
    /// prediction it returned).
    ///
    /// [`predict`]: BranchPredictor::predict
    fn update(&mut self, ev: &BranchEvent, pred: &Prediction);

    /// Discard volatile state (context switch). Default: no-op, which is
    /// exactly right for compiler-based schemes.
    fn flush(&mut self) {}

    /// Score a block of events into `stats` — per event the exact
    /// predict → tally → update sequence of [`Evaluator::branch`].
    ///
    /// The default body is the only implementation; it lives on the
    /// trait so every concrete predictor gets a monomorphized loop with
    /// `predict`/`update` statically dispatched and inlined. Driving a
    /// `dyn BranchPredictor` block-wise therefore costs one virtual
    /// call per block instead of two per event.
    fn eval_block(&mut self, events: &[BranchEvent], stats: &mut PredStats) {
        for ev in events {
            let pred = self.predict(ev);
            stats.tally(ev, &pred);
            self.update(ev, &pred);
        }
    }

    /// Describe this predictor as a packable sweep lane, or `None` to
    /// stay on the scalar path (the default).
    ///
    /// Contract: return `Some` only while the predictor's state is
    /// *exactly* the freshly-constructed state the spec describes —
    /// the lane engine rebuilds the configuration from the spec alone,
    /// and the planner swaps it in for this instance. Instrumented
    /// predictors (enabled telemetry sinks) must return `None`: lane
    /// scoring does not replay per-event probes.
    fn lane_spec(&self) -> Option<crate::lanes::LaneSpec> {
        None
    }
}

impl<P: BranchPredictor + ?Sized> BranchPredictor for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn predict(&mut self, ev: &BranchEvent) -> Prediction {
        (**self).predict(ev)
    }
    fn update(&mut self, ev: &BranchEvent, pred: &Prediction) {
        (**self).update(ev, pred)
    }
    fn flush(&mut self) {
        (**self).flush()
    }
    fn eval_block(&mut self, events: &[BranchEvent], stats: &mut PredStats) {
        (**self).eval_block(events, stats)
    }
    fn lane_spec(&self) -> Option<crate::lanes::LaneSpec> {
        (**self).lane_spec()
    }
}

/// Accuracy and miss-ratio accounting for one predictor over one trace.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PredStats {
    /// Branch events scored.
    pub events: u64,
    /// Correct predictions.
    pub correct: u64,
    /// Conditional branch events.
    pub cond_events: u64,
    /// Correct predictions on conditional branches.
    pub cond_correct: u64,
    /// Events where the predictor consulted a buffer.
    pub btb_lookups: u64,
    /// Buffer lookups that missed.
    pub btb_misses: u64,
}

impl PredStats {
    /// Overall prediction accuracy `A` (all branches, as in the paper's
    /// cost model).
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        ratio(self.correct, self.events)
    }

    /// Accuracy restricted to conditional branches.
    #[must_use]
    pub fn cond_accuracy(&self) -> f64 {
        ratio(self.cond_correct, self.cond_events)
    }

    /// Buffer miss ratio `ρ` (0 for buffer-less predictors).
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        ratio(self.btb_misses, self.btb_lookups)
    }

    /// Score one resolved prediction (the accounting half of
    /// [`Evaluator::branch`], shared with
    /// [`BranchPredictor::eval_block`]).
    #[inline]
    pub fn tally(&mut self, ev: &BranchEvent, pred: &Prediction) {
        let correct = pred.is_correct(ev);
        self.events += 1;
        self.correct += u64::from(correct);
        if ev.kind == BranchKind::Cond {
            self.cond_events += 1;
            self.cond_correct += u64::from(correct);
        }
        if let Some(hit) = pred.hit {
            self.btb_lookups += 1;
            self.btb_misses += u64::from(!hit);
        }
    }

    /// Merge another run's statistics.
    pub fn merge(&mut self, other: &PredStats) {
        self.events += other.events;
        self.correct += other.correct;
        self.cond_events += other.cond_events;
        self.cond_correct += other.cond_correct;
        self.btb_lookups += other.btb_lookups;
        self.btb_misses += other.btb_misses;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Drives a predictor over a branch-event stream and scores it.
///
/// `Evaluator` implements [`ExecHooks`], so it can be handed straight to
/// the interpreter (and composed with other sinks via tuples).
#[derive(Clone, Debug, Default)]
pub struct Evaluator<P> {
    /// The predictor under evaluation.
    pub predictor: P,
    /// Accumulated scoring.
    pub stats: PredStats,
}

impl<P: BranchPredictor> Evaluator<P> {
    /// Wrap a predictor with fresh statistics.
    pub fn new(predictor: P) -> Self {
        Evaluator {
            predictor,
            stats: PredStats::default(),
        }
    }
}

impl<P: BranchPredictor> Evaluator<P> {
    /// Score a whole block of events in one predictor call (see
    /// [`BranchPredictor::eval_block`]).
    pub fn branch_block(&mut self, events: &[BranchEvent]) {
        self.predictor.eval_block(events, &mut self.stats);
    }
}

impl<P: BranchPredictor> ExecHooks for Evaluator<P> {
    fn branch(&mut self, ev: &BranchEvent) {
        let pred = self.predictor.predict(ev);
        self.stats.tally(ev, &pred);
        self.predictor.update(ev, &pred);
    }
}

/// Wraps a predictor and flushes it every `interval` branches, modelling
/// context switches. The paper notes the Forward Semantic is immune to
/// this while BTB schemes suffer; `flush` on compiler schemes is a no-op,
/// so this wrapper reproduces exactly that asymmetry.
#[derive(Clone, Debug)]
pub struct ContextSwitched<P> {
    inner: P,
    interval: u64,
    since_switch: u64,
}

impl<P: BranchPredictor> ContextSwitched<P> {
    /// Flush `inner` every `interval` branch events.
    ///
    /// # Panics
    /// Panics if `interval` is 0.
    pub fn new(inner: P, interval: u64) -> Self {
        assert!(interval > 0, "context-switch interval must be positive");
        ContextSwitched {
            inner,
            interval,
            since_switch: 0,
        }
    }
}

impl<P: BranchPredictor> BranchPredictor for ContextSwitched<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    #[inline]
    fn predict(&mut self, ev: &BranchEvent) -> Prediction {
        self.since_switch += 1;
        if self.since_switch >= self.interval {
            self.since_switch = 0;
            self.inner.flush();
        }
        self.inner.predict(ev)
    }

    #[inline]
    fn update(&mut self, ev: &BranchEvent, pred: &Prediction) {
        self.inner.update(ev, pred);
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use branchlab_ir::{Addr, BlockId, BranchId, FuncId};
    use branchlab_trace::{BranchEvent, BranchKind};

    /// A conditional branch event at `pc` with the given outcome.
    pub fn cond(pc: u32, taken: bool) -> BranchEvent {
        cond_to(pc, taken, 100)
    }

    /// A conditional branch event with an explicit target.
    pub fn cond_to(pc: u32, taken: bool, target: u32) -> BranchEvent {
        BranchEvent {
            pc: Addr(pc),
            kind: BranchKind::Cond,
            taken,
            target: Addr(target),
            fallthrough: Addr(pc + 1),
            branch: BranchId {
                func: FuncId(0),
                block: BlockId(pc),
            },
            likely: false,
            cond: Some(branchlab_ir::Cond::Eq),
        }
    }

    /// An unconditional direct jump event.
    pub fn jmp(pc: u32, target: u32) -> BranchEvent {
        BranchEvent {
            kind: BranchKind::UncondDirect,
            taken: true,
            ..cond_to(pc, true, target)
        }
    }

    /// An indirect (unknown-target) jump event.
    pub fn indirect(pc: u32, target: u32) -> BranchEvent {
        BranchEvent {
            kind: BranchKind::UncondIndirect,
            taken: true,
            ..cond_to(pc, true, target)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::{cond, cond_to, indirect, jmp};
    use super::*;

    #[test]
    fn not_taken_prediction_scoring() {
        let p = Prediction::not_taken();
        assert!(p.is_correct(&cond(0, false)));
        assert!(!p.is_correct(&cond(0, true)));
    }

    #[test]
    fn taken_prediction_requires_matching_target() {
        let p = Prediction {
            taken: true,
            target: TargetInfo::Addr(Addr(100)),
            hit: Some(true),
        };
        assert!(p.is_correct(&cond_to(0, true, 100)));
        assert!(!p.is_correct(&cond_to(0, true, 200)));
        assert!(!p.is_correct(&cond_to(0, false, 100)));
    }

    #[test]
    fn encoded_target_fails_only_on_indirect() {
        let p = Prediction {
            taken: true,
            target: TargetInfo::Encoded,
            hit: None,
        };
        assert!(p.is_correct(&cond_to(0, true, 77)));
        assert!(p.is_correct(&jmp(0, 77)));
        assert!(!p.is_correct(&indirect(0, 77)));
    }

    #[test]
    fn direction_only_taken_prediction_ignores_target() {
        let p = Prediction {
            taken: true,
            target: TargetInfo::None,
            hit: None,
        };
        assert!(p.is_correct(&cond_to(0, true, 42)));
    }

    struct Fixed(bool);
    impl BranchPredictor for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn predict(&mut self, _: &BranchEvent) -> Prediction {
            Prediction {
                taken: self.0,
                target: TargetInfo::None,
                hit: None,
            }
        }
        fn update(&mut self, _: &BranchEvent, _: &Prediction) {}
    }

    #[test]
    fn evaluator_accumulates_accuracy() {
        let mut e = Evaluator::new(Fixed(false));
        for taken in [false, false, true, false] {
            e.branch(&cond(0, taken));
        }
        assert_eq!(e.stats.events, 4);
        assert_eq!(e.stats.correct, 3);
        assert!((e.stats.accuracy() - 0.75).abs() < 1e-12);
        assert_eq!(e.stats.cond_accuracy(), 0.75);
        assert_eq!(e.stats.miss_ratio(), 0.0);
    }

    #[test]
    fn pred_stats_merge() {
        let mut a = PredStats {
            events: 10,
            correct: 9,
            ..Default::default()
        };
        let b = PredStats {
            events: 10,
            correct: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.events, 20);
        assert!((a.accuracy() - 0.7).abs() < 1e-12);
    }

    struct CountFlush {
        flushes: u32,
    }
    impl BranchPredictor for CountFlush {
        fn name(&self) -> &'static str {
            "count"
        }
        fn predict(&mut self, _: &BranchEvent) -> Prediction {
            Prediction::not_taken()
        }
        fn update(&mut self, _: &BranchEvent, _: &Prediction) {}
        fn flush(&mut self) {
            self.flushes += 1;
        }
    }

    #[test]
    fn context_switch_flushes_on_interval() {
        let mut p = ContextSwitched::new(CountFlush { flushes: 0 }, 10);
        for _ in 0..35 {
            let _ = p.predict(&cond(0, true));
        }
        assert_eq!(p.inner.flushes, 3);
    }
}
