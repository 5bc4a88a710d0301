//! The branch target buffer engine: one parametric buffer behind the
//! paper's SBTB and CBTB (§2.2) and the multi-level hierarchies that
//! followed them.
//!
//! A [`Btb`] is a stack of set-associative, true-LRU levels keyed by
//! branch address. [`BtbConfig`] picks three things:
//!
//! * **levels** — per-level [`BtbLevel::entries`] / [`BtbLevel::ways`]
//!   and a [`BtbLevel::latency`] lookup penalty. The paper uses one
//!   256-entry fully-associative level; server-scale footprints use a
//!   small, fast L1 backed by larger, slower levels (cf. Gupta &
//!   Panda's Micro BTB).
//! * **policy** — [`FillPolicy`]: where new entries land and how hits
//!   climb toward L1. Hits move entries up (promotion), displaced
//!   entries move one level down (demotion), and only last-level
//!   victims leave, so each branch resides in at most one level.
//! * **direction** — [`Direction`]: how a hit picks a direction.
//!   [`Direction::TakenOnly`] is the SBTB: only taken branches fill, a
//!   hit predicts taken with the stored target, and a hit that falls
//!   through deletes its entry. [`Direction::Counter`] is the CBTB with
//!   J. E. Smith's n-bit saturating counter: every branch fills, with
//!   the counter at the threshold `T` on a taken fill and `T − 1` on a
//!   not-taken fill, and a hit predicts taken when the counter reaches
//!   the threshold.
//!
//! The paper's text says "predicted taken when C > T", which with the
//! stated T = 2 would make a just-inserted taken branch predict
//! *not-taken* — contradicting both the cited Smith scheme and the
//! initialization rule. We read it as `C ≥ T` (see DESIGN.md);
//! `strict_greater` restores the literal reading for sensitivity
//! experiments.
//!
//! [`Sbtb`], [`Cbtb`] and [`MlBtb`] are constructor names for the
//! paper's buffers and the hierarchies; their configs convert into a
//! [`BtbConfig`], and [`BtbConfig::validate`] is the one place the
//! geometry and counter rules live.

use std::fmt;

use branchlab_ir::Addr;
use branchlab_telemetry::{NoopSink, ProbeEvent, ProbeKind, TelemetrySink};
use branchlab_trace::BranchEvent;

use crate::assoc::AssocBuffer;
use crate::lanes::{saturating_step, LaneSpec};
use crate::predictor::{BranchPredictor, Prediction, TargetInfo};

/// Geometry and lookup cost of one BTB level.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BtbLevel {
    /// Total entries at this level.
    pub entries: usize,
    /// Associativity (ways per set); `entries` for fully associative.
    pub ways: usize,
    /// Extra fetch cycles charged when a prediction is served from this
    /// level (0 for a single-cycle L1). Accumulated in
    /// [`BtbStats::latency_cycles`]; a full miss charges the sum of
    /// all level latencies (the lookup walked the whole hierarchy).
    pub latency: u32,
}

/// The hierarchy spelling of [`BtbLevel`].
pub type MlBtbLevel = BtbLevel;

/// Where new entries are filled and how hits are promoted.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FillPolicy {
    /// Inclusive-L1: new entries fill L1, and a hit at any lower level
    /// promotes the entry straight back to L1. Victims demote one level
    /// down. Fast to re-warm, but streaming branch populations churn L1.
    L1,
    /// Staged climb: new entries fill the *last* level and each hit
    /// promotes one level up, so a branch must prove reuse before it
    /// reaches L1 (hysteresis against single-use pollution).
    Staged,
}

impl FillPolicy {
    /// Stable lowercase name (the server's canonical spelling).
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            FillPolicy::L1 => "l1",
            FillPolicy::Staged => "staged",
        }
    }
}

/// How a buffer hit picks a direction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Direction {
    /// The SBTB rule: fill on taken, a hit predicts taken, and a
    /// mispredicted hit deletes its entry.
    TakenOnly,
    /// The CBTB rule: an n-bit saturating counter per entry.
    Counter {
        /// Counter width in bits (the paper uses 2).
        bits: u8,
        /// Prediction threshold `T` (the paper uses 2).
        threshold: u8,
        /// Predict taken only when `C > T` (the paper's literal text)
        /// instead of `C ≥ T`.
        strict_greater: bool,
    },
}

/// A full BTB configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BtbConfig {
    /// Levels ordered L1 → last; at least one.
    pub levels: Vec<BtbLevel>,
    /// Fill + promotion policy (moot for a single level).
    pub policy: FillPolicy,
    /// Direction rule.
    pub direction: Direction,
}

/// Why a [`BtbConfig`] is unbuildable.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BtbConfigError {
    /// The level list is empty.
    NoLevels,
    /// A level's `entries / ways` is not a positive power-of-two set
    /// count.
    Geometry {
        /// Level index, L1 = 0.
        level: usize,
        /// The level's entries.
        entries: usize,
        /// The level's ways.
        ways: usize,
    },
    /// Counter width outside `1..=7`.
    CounterBits(u8),
    /// Threshold outside `1..=2^bits − 1`.
    Threshold {
        /// The requested threshold.
        threshold: u8,
        /// The counter's maximum value.
        max: u8,
    },
}

impl fmt::Display for BtbConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BtbConfigError::NoLevels => write!(f, "at least one level required"),
            BtbConfigError::Geometry {
                level,
                entries,
                ways,
            } => write!(
                f,
                "level {}: {entries} entries in {ways} ways: set count must be a power of two",
                level + 1
            ),
            BtbConfigError::CounterBits(bits) => {
                write!(f, "counter bits must be in 1..=7, got {bits}")
            }
            BtbConfigError::Threshold { threshold, max } => {
                write!(f, "threshold must be in 1..={max}, got {threshold}")
            }
        }
    }
}

impl std::error::Error for BtbConfigError {}

impl BtbConfig {
    /// Check the geometry and counter rules every BTB consumer shares.
    ///
    /// # Errors
    /// The first rule the configuration breaks.
    pub fn validate(&self) -> Result<(), BtbConfigError> {
        if self.levels.is_empty() {
            return Err(BtbConfigError::NoLevels);
        }
        for (level, l) in self.levels.iter().enumerate() {
            if l.ways == 0 || l.entries % l.ways != 0 || !(l.entries / l.ways).is_power_of_two() {
                return Err(BtbConfigError::Geometry {
                    level,
                    entries: l.entries,
                    ways: l.ways,
                });
            }
        }
        if let Direction::Counter {
            bits, threshold, ..
        } = self.direction
        {
            if !(1..=7).contains(&bits) {
                return Err(BtbConfigError::CounterBits(bits));
            }
            let max = (1u8 << bits) - 1;
            if !(1..=max).contains(&threshold) {
                return Err(BtbConfigError::Threshold { threshold, max });
            }
        }
        Ok(())
    }

    /// Scheme name for reports: `SBTB` or `CBTB` for one level, `MLBTB`
    /// for a hierarchy.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match (self.levels.len(), self.direction) {
            (1, Direction::TakenOnly) => "SBTB",
            (1, Direction::Counter { .. }) => "CBTB",
            _ => "MLBTB",
        }
    }

    /// The single-level counter buffer this configuration describes,
    /// if it is one (the shape the lane engine packs).
    #[must_use]
    pub fn as_cbtb(&self) -> Option<CbtbConfig> {
        match (self.levels.as_slice(), self.direction) {
            (
                [l],
                Direction::Counter {
                    bits,
                    threshold,
                    strict_greater,
                },
            ) => Some(CbtbConfig {
                entries: l.entries,
                ways: l.ways,
                counter_bits: bits,
                threshold,
                strict_greater,
            }),
            _ => None,
        }
    }

    fn single(entries: usize, ways: usize, direction: Direction) -> Self {
        BtbConfig {
            levels: vec![BtbLevel {
                entries,
                ways,
                latency: 0,
            }],
            policy: FillPolicy::L1,
            direction,
        }
    }
}

/// SBTB geometry.
#[derive(Copy, Clone, Debug)]
pub struct SbtbConfig {
    /// Total entries.
    pub entries: usize,
    /// Associativity (ways per set); `entries` for fully associative.
    pub ways: usize,
}

impl SbtbConfig {
    /// The paper's configuration: 256 entries, fully associative, LRU.
    #[must_use]
    pub fn paper() -> Self {
        SbtbConfig {
            entries: 256,
            ways: 256,
        }
    }
}

impl From<SbtbConfig> for BtbConfig {
    fn from(c: SbtbConfig) -> Self {
        BtbConfig::single(c.entries, c.ways, Direction::TakenOnly)
    }
}

/// CBTB geometry and counter parameters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CbtbConfig {
    /// Total entries.
    pub entries: usize,
    /// Associativity (ways per set); `entries` for fully associative.
    pub ways: usize,
    /// Counter width in bits (the paper uses 2).
    pub counter_bits: u8,
    /// Prediction threshold `T` (the paper uses 2).
    pub threshold: u8,
    /// Predict taken only when `C > T` (the paper's literal text) instead
    /// of `C ≥ T` (the reading consistent with Smith's scheme).
    pub strict_greater: bool,
}

impl CbtbConfig {
    /// The paper's configuration: 256 entries, fully associative, 2-bit
    /// counters, T = 2.
    #[must_use]
    pub fn paper() -> Self {
        CbtbConfig {
            entries: 256,
            ways: 256,
            counter_bits: 2,
            threshold: 2,
            strict_greater: false,
        }
    }
}

impl From<CbtbConfig> for BtbConfig {
    fn from(c: CbtbConfig) -> Self {
        BtbConfig::single(
            c.entries,
            c.ways,
            Direction::Counter {
                bits: c.counter_bits,
                threshold: c.threshold,
                strict_greater: c.strict_greater,
            },
        )
    }
}

/// Multi-level BTB configuration with CBTB-style counters (`C ≥ T`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MlBtbConfig {
    /// Levels ordered L1 → last; at least one.
    pub levels: Vec<BtbLevel>,
    /// Fill + promotion policy.
    pub policy: FillPolicy,
    /// Direction counter width in bits (the CBTB's 2 by default).
    pub counter_bits: u8,
    /// Predict-taken threshold `T` (`C ≥ T`).
    pub threshold: u8,
}

impl MlBtbConfig {
    /// The paper's single-level geometry: 256 entries, fully
    /// associative, 2-bit counters, T = 2 — the same buffer as
    /// [`CbtbConfig::paper`].
    #[must_use]
    pub fn paper() -> Self {
        MlBtbConfig {
            levels: vec![BtbLevel {
                entries: 256,
                ways: 256,
                latency: 0,
            }],
            policy: FillPolicy::L1,
            counter_bits: 2,
            threshold: 2,
        }
    }

    /// A server-scale two-level hierarchy: a 64-entry 4-way L1 in front
    /// of a 2048-entry 8-way L2 with a 2-cycle lookup penalty.
    #[must_use]
    pub fn server() -> Self {
        MlBtbConfig {
            levels: vec![
                BtbLevel {
                    entries: 64,
                    ways: 4,
                    latency: 0,
                },
                BtbLevel {
                    entries: 2048,
                    ways: 8,
                    latency: 2,
                },
            ],
            ..Self::paper()
        }
    }
}

impl From<MlBtbConfig> for BtbConfig {
    fn from(c: MlBtbConfig) -> Self {
        BtbConfig {
            levels: c.levels,
            policy: c.policy,
            direction: Direction::Counter {
                bits: c.counter_bits,
                threshold: c.threshold,
                strict_greater: false,
            },
        }
    }
}

/// Per-level hit/miss/fill/evict accounting.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Lookups served by this level.
    pub hits: u64,
    /// Lookups that searched this level and missed.
    pub misses: u64,
    /// Entries placed into this level (new, promoted, or demoted).
    pub fills: u64,
    /// Entries displaced out of this level by a fill.
    pub evicts: u64,
}

/// Whole-buffer statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BtbStats {
    /// One entry per configured level, L1 first.
    pub levels: Vec<LevelStats>,
    /// Entries moved up a level on a hit.
    pub promotions: u64,
    /// Displaced entries moved down a level instead of leaving.
    pub demotions: u64,
    /// Entries evicted out of the last level (left the buffer).
    pub dropped: u64,
    /// Accumulated lookup-latency penalty cycles (per-level `latency`
    /// of the serving level; full misses pay the sum of all levels).
    pub latency_cycles: u64,
}

/// One resident branch. The SBTB rule leaves `counter` at 0.
#[derive(Copy, Clone, Debug)]
struct Entry {
    counter: u8,
    target: Addr,
}

/// One level's buffer with its lookup cost and counters side by side,
/// so the per-event walk touches one place per level. Hits are not
/// counted: each level's hits are the lookups that reached it minus its
/// misses, which [`Btb::stats`] derives.
#[derive(Clone, Debug)]
struct Level {
    buf: AssocBuffer<Entry>,
    latency: u64,
    misses: u64,
    fills: u64,
    evicts: u64,
}

/// Where the entry served by the last `predict` now resides, so
/// `update` can revisit it without re-searching the buffer.
#[derive(Copy, Clone, Debug)]
struct LastHit {
    pc: u32,
    /// Level the entry resides at *after* any promotion.
    level: usize,
    /// Way within that level, when known (no-promotion fast path).
    way: Option<u32>,
}

/// The branch target buffer.
///
/// Generic over a [`TelemetrySink`]; the default [`NoopSink`] keeps
/// `enabled()` constant-false, so the uninstrumented predictor
/// monomorphizes with no probe code on the hot path. A fresh,
/// uninstrumented single-level counter buffer describes itself as a
/// [`LaneSpec::Cbtb`] so sweeps can score it in bit-parallel lanes;
/// hierarchies and the SBTB rule stay on the scalar path.
///
/// ```
/// use branchlab_predict::{Cbtb, Evaluator, MlBtb, Sbtb, SbtbConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let module = branchlab_minic::compile(
///     "int main() { int i; int s = 0; for (i = 0; i < 100; i++) { s += i; } return s; }",
/// )?;
/// let program = branchlab_ir::lower(&module)?;
///
/// let mut sbtb = Evaluator::new(Sbtb::new(SbtbConfig { entries: 64, ways: 64 }));
/// let mut cbtb = Evaluator::new(Cbtb::paper());
/// let mut mlbtb = Evaluator::new(MlBtb::server());
/// branchlab_interp::run(&program, &Default::default(), &[], &mut sbtb)?;
/// branchlab_interp::run(&program, &Default::default(), &[], &mut cbtb)?;
/// branchlab_interp::run(&program, &Default::default(), &[], &mut mlbtb)?;
///
/// // A repetitive loop is an easy target for every rule: the stored
/// // target is almost always right, and the 2-bit counters hold the
/// // loop branch at "taken" through its single not-taken exit.
/// for stats in [sbtb.stats, cbtb.stats, mlbtb.stats] {
///     assert!(stats.accuracy() > 0.9);
///     assert!(stats.btb_lookups > 0);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Btb<S: TelemetrySink = NoopSink> {
    /// L1 sits inline: most lookups end there, one pointer hop sooner.
    l1: Level,
    /// L2 onward.
    lower: Vec<Level>,
    config: BtbConfig,
    /// A hit predicts taken when its counter is at least this: `T`,
    /// `T + 1` under `C > T`, and 0 (always) under the SBTB rule.
    taken_at: u8,
    lookups: u64,
    promotions: u64,
    demotions: u64,
    dropped: u64,
    sink: S,
    last_hit: Option<LastHit>,
}

impl Btb {
    /// Build a BTB.
    ///
    /// # Panics
    /// Panics on any configuration [`BtbConfig::validate`] rejects.
    #[must_use]
    pub fn new(config: BtbConfig) -> Self {
        Self::with_sink(config, NoopSink)
    }
}

impl<S: TelemetrySink> Btb<S> {
    /// Build a BTB that publishes probe events to `sink`.
    ///
    /// # Panics
    /// Panics on any configuration [`BtbConfig::validate`] rejects.
    #[must_use]
    pub fn with_sink(config: BtbConfig, sink: S) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid BTB configuration: {e}");
        }
        let taken_at = match config.direction {
            Direction::TakenOnly => 0,
            Direction::Counter {
                threshold,
                strict_greater,
                ..
            } => threshold + u8::from(strict_greater),
        };
        let mut levels = config.levels.iter().map(|l| Level {
            buf: AssocBuffer::new(l.entries / l.ways, l.ways),
            latency: u64::from(l.latency),
            misses: 0,
            fills: 0,
            evicts: 0,
        });
        Btb {
            l1: levels.next().expect("validated: at least one level"),
            lower: levels.collect(),
            taken_at,
            lookups: 0,
            promotions: 0,
            demotions: 0,
            dropped: 0,
            config,
            sink,
            last_hit: None,
        }
    }

    /// The configuration this buffer was built with.
    #[must_use]
    pub fn config(&self) -> &BtbConfig {
        &self.config
    }

    /// Level statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> BtbStats {
        // Level i serves what reached it and did not miss; only L1's
        // misses reach L2, and so on. What misses the last level walked
        // every level.
        let mut reached = self.lookups;
        let mut latency_cycles = 0;
        let levels = self
            .levels()
            .map(|l| {
                let hits = reached - l.misses;
                latency_cycles += hits * l.latency;
                reached = l.misses;
                LevelStats {
                    hits,
                    misses: l.misses,
                    fills: l.fills,
                    evicts: l.evicts,
                }
            })
            .collect();
        latency_cycles += reached * self.levels().map(|l| l.latency).sum::<u64>();
        BtbStats {
            levels,
            promotions: self.promotions,
            demotions: self.demotions,
            dropped: self.dropped,
            latency_cycles,
        }
    }

    /// The telemetry sink.
    #[must_use]
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Total resident entries across all levels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.levels().map(|l| l.buf.len()).sum()
    }

    /// Whether every level is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.levels().all(|l| l.buf.is_empty())
    }

    fn levels(&self) -> impl Iterator<Item = &Level> {
        std::iter::once(&self.l1).chain(&self.lower)
    }

    fn levels_mut(&mut self) -> impl Iterator<Item = &mut Level> {
        std::iter::once(&mut self.l1).chain(&mut self.lower)
    }

    fn level_mut(&mut self, level: usize) -> &mut Level {
        match level {
            0 => &mut self.l1,
            _ => &mut self.lower[level - 1],
        }
    }

    #[inline]
    fn probe(&mut self, site: u32, kind: ProbeKind) {
        if self.sink.enabled() {
            self.sink.emit(ProbeEvent { site, kind });
        }
    }

    /// Place `entry` into `level`, demoting displaced victims one level
    /// down; the last level's victim leaves the buffer.
    #[inline]
    fn place(&mut self, mut level: usize, mut key: u32, mut entry: Entry) {
        loop {
            let at = self.level_mut(level);
            at.fills += 1;
            let Some((victim_key, victim)) = at.buf.insert(key, entry) else {
                return;
            };
            at.evicts += 1;
            if level == self.lower.len() {
                self.dropped += 1;
                self.probe(victim_key, ProbeKind::Evict);
                return;
            }
            self.demotions += 1;
            level += 1;
            key = victim_key;
            entry = victim;
        }
    }

    /// Search L2 onward for `pc` and promote a hit: straight to L1
    /// (inclusive-L1) or one level up (staged climb), victims cascading
    /// down. Returns where the entry now resides.
    #[inline]
    fn find_lower(&mut self, pc: u32) -> Option<(LastHit, Entry)> {
        let mut found = None;
        for (i, level) in self.lower.iter_mut().enumerate() {
            if let Some((way, e)) = level.buf.lookup_pos(pc) {
                found = Some((i + 1, way, *e));
                break;
            }
            level.misses += 1;
        }
        let (level, way, entry) = found?;
        self.lower[level - 1].buf.remove_at(pc, way);
        self.promotions += 1;
        let dest = match self.config.policy {
            FillPolicy::L1 => 0,
            FillPolicy::Staged => level - 1,
        };
        self.place(dest, pc, entry);
        let last = LastHit {
            pc,
            level: dest,
            way: None,
        };
        Some((last, entry))
    }

    /// The resident entry for `pc`, found at the position `predict`
    /// recorded when there is one, with its LRU position refreshed.
    /// A `pred` that missed needs no search: `predict` just walked
    /// every level.
    #[inline(always)]
    fn resident(
        &mut self,
        last: Option<LastHit>,
        pred: &Prediction,
        pc: u32,
    ) -> Option<&mut Entry> {
        if pred.hit == Some(false) {
            return None;
        }
        match last {
            Some(LastHit {
                level,
                way: Some(way),
                ..
            }) => self.level_mut(level).buf.touch(pc, way),
            Some(LastHit { level, .. }) => self.level_mut(level).buf.lookup(pc),
            None => self.levels_mut().find_map(|l| l.buf.lookup(pc)),
        }
    }

    fn probe_outcome(&mut self, ev: &BranchEvent, pred: &Prediction) {
        let site = ev.pc.0;
        let kind = if ev.taken {
            ProbeKind::Taken
        } else {
            ProbeKind::NotTaken
        };
        self.sink.emit(ProbeEvent { site, kind });
        if !pred.is_correct(ev) {
            self.sink.emit(ProbeEvent {
                site,
                kind: ProbeKind::Mispredict,
            });
        }
        let stale = ev.taken
            && self
                .levels()
                .find_map(|l| l.buf.peek(site))
                .is_some_and(|e| e.target != ev.target);
        if stale {
            self.sink.emit(ProbeEvent {
                site,
                kind: ProbeKind::Alias,
            });
        }
    }
}

impl<S: TelemetrySink> BranchPredictor for Btb<S> {
    fn name(&self) -> &'static str {
        self.config.name()
    }

    #[inline]
    fn predict(&mut self, ev: &BranchEvent) -> Prediction {
        let pc = ev.pc.0;
        self.lookups += 1;
        let (last, entry) = match self.l1.buf.lookup_pos(pc) {
            Some((way, e)) => (
                LastHit {
                    pc,
                    level: 0,
                    way: Some(way),
                },
                *e,
            ),
            None => {
                self.l1.misses += 1;
                let Some(hit) = self.find_lower(pc) else {
                    self.probe(pc, ProbeKind::Miss);
                    self.last_hit = None;
                    return Prediction {
                        taken: false,
                        target: TargetInfo::None,
                        hit: Some(false),
                    };
                };
                hit
            }
        };
        self.probe(pc, ProbeKind::Hit);
        self.last_hit = Some(last);
        Prediction {
            taken: entry.counter >= self.taken_at,
            target: TargetInfo::Addr(entry.target),
            hit: Some(true),
        }
    }

    #[inline]
    fn update(&mut self, ev: &BranchEvent, pred: &Prediction) {
        if self.sink.enabled() {
            self.probe_outcome(ev, pred);
        }
        let pc = ev.pc.0;
        let last = self.last_hit.take().filter(|h| h.pc == pc);
        let counter = match self.config.direction {
            Direction::TakenOnly if ev.taken => {
                // Remember (or refresh) the taken branch and its target.
                if let Some(entry) = self.resident(last, pred, pc) {
                    entry.target = ev.target;
                    return;
                }
                0
            }
            Direction::TakenOnly => {
                // Predicted taken but fell through: delete the entry (§2.2).
                if pred.hit == Some(true) {
                    let removed = match last {
                        Some(LastHit {
                            level,
                            way: Some(way),
                            ..
                        }) => self.level_mut(level).buf.remove_at(pc, way),
                        _ => None,
                    };
                    if removed.is_none() {
                        self.levels_mut().find_map(|l| l.buf.remove(pc));
                    }
                }
                return;
            }
            Direction::Counter {
                bits, threshold, ..
            } => {
                let max = (1u8 << bits) - 1;
                if let Some(entry) = self.resident(last, pred, pc) {
                    entry.counter = saturating_step(entry.counter, max, ev.taken);
                    if ev.taken {
                        entry.target = ev.target;
                    }
                    return;
                }
                threshold - u8::from(!ev.taken)
            }
        };
        let fill = match self.config.policy {
            FillPolicy::L1 => 0,
            FillPolicy::Staged => self.lower.len(),
        };
        self.place(
            fill,
            pc,
            Entry {
                counter,
                target: ev.target,
            },
        );
    }

    fn flush(&mut self) {
        for level in self.levels_mut() {
            level.buf.flush();
        }
        self.last_hit = None;
    }

    fn lane_spec(&self) -> Option<LaneSpec> {
        // A probe sink observes per-event effects the lane engine does
        // not replay, and a non-empty buffer means state has diverged
        // from the fresh configuration the spec describes.
        if self.sink.enabled() || !self.is_empty() {
            return None;
        }
        self.config.as_cbtb().map(LaneSpec::Cbtb)
    }
}

/// Constructors for the paper's Simple Branch Target Buffer: a
/// single-level [`Btb`] with the [`Direction::TakenOnly`] rule.
#[derive(Debug)]
pub enum Sbtb {}

#[allow(clippy::new_ret_no_self)] // a constructor namespace: it builds a `Btb`
impl Sbtb {
    /// An SBTB with the given geometry.
    ///
    /// # Panics
    /// Panics on a geometry [`BtbConfig::validate`] rejects.
    #[must_use]
    pub fn new(config: SbtbConfig) -> Btb {
        Btb::new(config.into())
    }

    /// The paper's 256-entry fully-associative SBTB.
    #[must_use]
    pub fn paper() -> Btb {
        Self::new(SbtbConfig::paper())
    }

    /// An SBTB that publishes probe events to `sink`.
    ///
    /// # Panics
    /// Panics on a geometry [`BtbConfig::validate`] rejects.
    #[must_use]
    pub fn with_sink<S: TelemetrySink>(config: SbtbConfig, sink: S) -> Btb<S> {
        Btb::with_sink(config.into(), sink)
    }
}

/// Constructors for the paper's Counter-based Branch Target Buffer: a
/// single-level [`Btb`] with the [`Direction::Counter`] rule.
#[derive(Debug)]
pub enum Cbtb {}

#[allow(clippy::new_ret_no_self)] // a constructor namespace: it builds a `Btb`
impl Cbtb {
    /// A CBTB.
    ///
    /// # Panics
    /// Panics on a configuration [`BtbConfig::validate`] rejects.
    #[must_use]
    pub fn new(config: CbtbConfig) -> Btb {
        Btb::new(config.into())
    }

    /// The paper's 256-entry fully-associative 2-bit CBTB with T = 2.
    #[must_use]
    pub fn paper() -> Btb {
        Self::new(CbtbConfig::paper())
    }

    /// A CBTB that publishes probe events to `sink`.
    ///
    /// # Panics
    /// Panics on a configuration [`BtbConfig::validate`] rejects.
    #[must_use]
    pub fn with_sink<S: TelemetrySink>(config: CbtbConfig, sink: S) -> Btb<S> {
        Btb::with_sink(config.into(), sink)
    }
}

/// Constructors for multi-level BTB hierarchies with CBTB counters.
#[derive(Debug)]
pub enum MlBtb {}

#[allow(clippy::new_ret_no_self)] // a constructor namespace: it builds a `Btb`
impl MlBtb {
    /// A multi-level BTB.
    ///
    /// # Panics
    /// Panics on a configuration [`BtbConfig::validate`] rejects.
    #[must_use]
    pub fn new(config: MlBtbConfig) -> Btb {
        Btb::new(config.into())
    }

    /// The paper's single-level 256-entry geometry — the same buffer as
    /// [`Cbtb::paper`].
    #[must_use]
    pub fn paper() -> Btb {
        Self::new(MlBtbConfig::paper())
    }

    /// The server-scale two-level hierarchy of [`MlBtbConfig::server`].
    #[must_use]
    pub fn server() -> Btb {
        Self::new(MlBtbConfig::server())
    }

    /// A multi-level BTB that publishes probe events to `sink`.
    ///
    /// # Panics
    /// Panics on a configuration [`BtbConfig::validate`] rejects.
    #[must_use]
    pub fn with_sink<S: TelemetrySink>(config: MlBtbConfig, sink: S) -> Btb<S> {
        Btb::with_sink(config.into(), sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::test_util::{cond, cond_to, indirect, jmp};
    use crate::predictor::Evaluator;
    use branchlab_telemetry::SiteProbe;
    use branchlab_trace::ExecHooks;

    fn drive(btb: Btb, events: &[BranchEvent]) -> Evaluator<Btb> {
        let mut e = Evaluator::new(btb);
        for ev in events {
            e.branch(ev);
        }
        e
    }

    /// `outcomes` of one conditional branch at pc 10, target 50.
    fn drive_outcomes(btb: Btb, outcomes: &[bool]) -> Evaluator<Btb> {
        let events: Vec<_> = outcomes.iter().map(|&t| cond_to(10, t, 50)).collect();
        drive(btb, &events)
    }

    fn tiny(policy: FillPolicy) -> MlBtbConfig {
        MlBtbConfig {
            levels: vec![
                BtbLevel {
                    entries: 1,
                    ways: 1,
                    latency: 0,
                },
                BtbLevel {
                    entries: 2,
                    ways: 2,
                    latency: 3,
                },
            ],
            policy,
            counter_bits: 2,
            threshold: 2,
        }
    }

    // SBTB rule.

    #[test]
    fn sbtb_miss_predicts_not_taken() {
        let e = drive(Sbtb::paper(), &[cond(10, false)]);
        assert_eq!(e.stats.correct, 1);
        assert_eq!(e.stats.btb_misses, 1);
    }

    #[test]
    fn sbtb_only_taken_branches_enter_the_buffer() {
        let mut e = Evaluator::new(Sbtb::paper());
        e.branch(&cond(10, false));
        assert_eq!(e.predictor.len(), 0);
        e.branch(&cond(10, true));
        assert_eq!(e.predictor.len(), 1);
        assert!(e.predictor.l1.buf.peek(10).is_some());
    }

    #[test]
    fn sbtb_hit_predicts_taken_with_stored_target() {
        // taken once (miss, inserted), then taken again (hit, correct).
        let e = drive(
            Sbtb::paper(),
            &[cond_to(10, true, 50), cond_to(10, true, 50)],
        );
        assert_eq!(e.stats.events, 2);
        assert_eq!(e.stats.correct, 1); // first was a mispredicted miss
        assert_eq!(e.stats.btb_misses, 1);
        assert_eq!(e.stats.btb_lookups, 2);
    }

    #[test]
    fn sbtb_mispredicted_taken_deletes_entry() {
        let mut e = Evaluator::new(Sbtb::paper());
        e.branch(&cond(10, true)); // inserted
        e.branch(&cond(10, false)); // hit, predicted taken, wrong → deleted
        assert_eq!(e.predictor.len(), 0);
        // Next not-taken is a miss and correctly predicted.
        e.branch(&cond(10, false));
        assert_eq!(e.stats.correct, 1);
    }

    #[test]
    fn sbtb_loop_branch_accuracy_converges() {
        // 100 iterations of a taken loop branch: first is wrong, rest hit.
        let events: Vec<_> = (0..100).map(|_| cond_to(10, true, 5)).collect();
        let e = drive(Sbtb::paper(), &events);
        assert_eq!(e.stats.correct, 99);
    }

    #[test]
    fn sbtb_indirect_jump_correct_only_when_target_repeats() {
        let e = drive(
            Sbtb::paper(),
            &[indirect(10, 100), indirect(10, 100), indirect(10, 200)],
        );
        // miss(wrong), hit target 100 (right), hit stale 100 vs actual 200 (wrong)
        assert_eq!(e.stats.correct, 1);
    }

    #[test]
    fn sbtb_unconditional_direct_jump_settles_after_first_miss() {
        let e = drive(Sbtb::paper(), &[jmp(10, 7), jmp(10, 7), jmp(10, 7)]);
        assert_eq!(e.stats.correct, 2);
    }

    #[test]
    fn sbtb_capacity_pressure_evicts_lru_and_costs_accuracy() {
        // 4-entry SBTB, 8 distinct always-taken branches, round-robin:
        // working set (8) exceeds capacity (4) with LRU + round-robin →
        // every single access misses.
        let mut e = Evaluator::new(Sbtb::new(SbtbConfig {
            entries: 4,
            ways: 4,
        }));
        for _round in 0..4 {
            for pc in 0..8u32 {
                e.branch(&cond_to(pc * 16, true, 500));
            }
        }
        assert_eq!(e.stats.btb_misses, 32);
        assert_eq!(e.stats.correct, 0);
    }

    #[test]
    fn sbtb_site_probe_counts_hits_misses_and_evictions() {
        let mut e = Evaluator::new(Sbtb::with_sink(
            SbtbConfig {
                entries: 1,
                ways: 1,
            },
            SiteProbe::enabled(),
        ));
        e.branch(&cond_to(10, true, 50)); // miss, insert
        e.branch(&cond_to(10, true, 50)); // hit, correct
        e.branch(&cond_to(10, true, 99)); // hit, stale target → alias
        e.branch(&cond_to(26, true, 7)); // miss, insert evicts site 10
        let probe = e.predictor.sink();
        let site10 = probe.sites()[&10];
        assert_eq!(site10.hits, 2);
        assert_eq!(site10.misses, 1);
        assert_eq!(site10.evicts, 1, "site 10 was the eviction victim");
        assert_eq!(site10.aliases, 1);
        assert_eq!(site10.taken, 3);
        assert_eq!(site10.mispredicts, 2); // first miss + stale target
        assert_eq!(probe.sites()[&26].misses, 1);
    }

    #[test]
    fn sbtb_flush_empties_buffer() {
        let mut s = Sbtb::paper();
        let p = s.predict(&cond(10, true));
        s.update(&cond(10, true), &p);
        assert_eq!(s.len(), 1);
        s.flush();
        assert!(s.is_empty());
    }

    // CBTB rule.

    #[test]
    fn cbtb_all_branches_enter_the_buffer() {
        let mut e = Evaluator::new(Cbtb::paper());
        e.branch(&cond(10, false)); // not-taken still inserted
        assert_eq!(e.predictor.len(), 1);
    }

    #[test]
    fn cbtb_fresh_taken_entry_predicts_taken() {
        // taken (miss→insert at T), then taken again → predicted taken.
        let e = drive_outcomes(Cbtb::paper(), &[true, true]);
        assert_eq!(e.stats.correct, 1);
    }

    #[test]
    fn cbtb_fresh_not_taken_entry_predicts_not_taken() {
        let e = drive_outcomes(Cbtb::paper(), &[false, false]);
        // First is a correct not-taken miss, second a correct hit.
        assert_eq!(e.stats.correct, 2);
        assert_eq!(e.stats.btb_misses, 1);
    }

    #[test]
    fn cbtb_counter_saturates_and_tolerates_one_anomaly() {
        // Long taken run saturates at 3; one not-taken dip (to 2) must
        // not flip the prediction (the 2-bit counter's hysteresis).
        let mut outcomes = vec![true; 10];
        outcomes.push(false);
        outcomes.push(true); // still predicted taken → correct
        let e = drive_outcomes(Cbtb::paper(), &outcomes);
        // Events: 1 miss-wrong + 9 correct taken + 1 wrong not-taken + 1 correct.
        assert_eq!(e.stats.events, 12);
        assert_eq!(e.stats.correct, 10);
    }

    #[test]
    fn cbtb_two_anomalies_flip_the_prediction() {
        // saturate taken, then two not-taken (3→2→1), next prediction is
        // not-taken.
        let mut e = drive_outcomes(Cbtb::paper(), &[true, true, true, true, false, false]);
        e.branch(&cond_to(10, false, 50));
        // That last event should be predicted not-taken → correct.
        assert_eq!(e.stats.correct, 3 + 1);
    }

    #[test]
    fn cbtb_alternating_pattern_defeats_counters() {
        // T,N,T,N… the counter oscillates around the threshold.
        let outcomes: Vec<bool> = (0..40).map(|i| i % 2 == 0).collect();
        let e = drive_outcomes(Cbtb::paper(), &outcomes);
        assert!(
            e.stats.accuracy() < 0.6,
            "alternation should be hard: {}",
            e.stats.accuracy()
        );
    }

    #[test]
    fn cbtb_strict_greater_reading_hurts_fresh_entries() {
        let cfg = CbtbConfig {
            strict_greater: true,
            ..CbtbConfig::paper()
        };
        let strict = drive_outcomes(Cbtb::new(cfg), &[true, true, true]);
        let lenient = drive_outcomes(Cbtb::paper(), &[true, true, true]);
        assert!(strict.stats.correct < lenient.stats.correct);
    }

    #[test]
    fn cbtb_stale_target_counts_as_misprediction() {
        let mut e = Evaluator::new(Cbtb::paper());
        e.branch(&cond_to(10, true, 100));
        e.branch(&cond_to(10, true, 100)); // correct
        e.branch(&cond_to(10, true, 999)); // predicted taken but old target
        assert_eq!(e.stats.correct, 1);
        // Target refreshed after the update.
        e.branch(&cond_to(10, true, 999));
        assert_eq!(e.stats.correct, 2);
    }

    #[test]
    fn cbtb_miss_ratio_much_lower_than_sbtb_on_mixed_branches() {
        // A branch that is never taken stays resident in the CBTB
        // (misses once) but would never enter an SBTB (misses always).
        let e = drive_outcomes(Cbtb::paper(), &[false; 50]);
        assert_eq!(e.stats.btb_misses, 1);
        assert!((e.stats.miss_ratio() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn cbtb_counter_bits_sweep_is_constructible() {
        for bits in 1..=4u8 {
            let cfg = CbtbConfig {
                counter_bits: bits,
                threshold: 1 << (bits - 1),
                ..CbtbConfig::paper()
            };
            let _ = Cbtb::new(cfg);
        }
    }

    #[test]
    fn cbtb_site_probe_sees_residence_and_mispredicts() {
        let mut e = Evaluator::new(Cbtb::with_sink(CbtbConfig::paper(), SiteProbe::enabled()));
        e.branch(&cond_to(10, true, 50)); // miss (wrong), insert at T
        e.branch(&cond_to(10, true, 50)); // hit, correct
        e.branch(&cond_to(10, false, 50)); // hit, predicted taken → wrong
        let probe = e.predictor.sink();
        let c = probe.sites()[&10];
        assert_eq!((c.hits, c.misses), (2, 1));
        assert_eq!((c.taken, c.not_taken), (2, 1));
        assert_eq!(c.mispredicts, 2);
        assert_eq!(c.evicts, 0);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn cbtb_threshold_above_counter_max_rejected() {
        let _ = Cbtb::new(CbtbConfig {
            counter_bits: 2,
            threshold: 4,
            ..CbtbConfig::paper()
        });
    }

    // Hierarchies.

    #[test]
    fn single_level_is_prediction_identical_to_cbtb() {
        let mut ml = Evaluator::new(MlBtb::paper());
        let mut cb = Evaluator::new(Cbtb::paper());
        let mut x = 12345u64;
        for i in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pc = 10 + (x >> 33) as u32 % 400; // overflow the 256 entries
            let taken = (x >> 13) & 3 != 0;
            let ev = cond_to(pc, taken, pc + 100 + (i % 3));
            ml.branch(&ev);
            cb.branch(&ev);
        }
        assert_eq!(ml.stats, cb.stats);
    }

    #[test]
    fn l2_hit_promotes_to_l1_and_demotes_the_victim() {
        let mut e = Evaluator::new(MlBtb::new(tiny(FillPolicy::L1)));
        e.branch(&cond_to(10, true, 50)); // miss → fill L1
        e.branch(&cond_to(20, true, 60)); // miss → fill L1, 10 demoted to L2
        assert_eq!(e.predictor.stats().demotions, 1);
        e.branch(&cond_to(10, true, 50)); // L2 hit → promote 10, demote 20
        let s = e.predictor.stats().clone();
        assert_eq!(s.levels[1].hits, 1);
        assert_eq!(s.promotions, 1);
        assert_eq!(s.demotions, 2);
        assert_eq!(s.dropped, 0);
        // 10 now fronts L1 again.
        e.branch(&cond_to(10, true, 50));
        assert_eq!(e.predictor.stats().levels[0].hits, 1);
    }

    #[test]
    fn staged_policy_fills_the_last_level_first() {
        let mut e = Evaluator::new(MlBtb::new(tiny(FillPolicy::Staged)));
        e.branch(&cond_to(10, true, 50)); // miss → fill L2
        let s = e.predictor.stats().clone();
        assert_eq!(s.levels[1].fills, 1);
        assert_eq!(s.levels[0].fills, 0);
        e.branch(&cond_to(10, true, 50)); // L2 hit → climb to L1
        let s = e.predictor.stats().clone();
        assert_eq!(s.levels[1].hits, 1);
        assert_eq!(s.promotions, 1);
        e.branch(&cond_to(10, true, 50)); // now an L1 hit
        assert_eq!(e.predictor.stats().levels[0].hits, 1);
    }

    #[test]
    fn hierarchy_retains_what_a_bare_l1_would_drop() {
        // 8 round-robin branches through a 4-entry L1: alone it thrashes
        // (zero hits); backed by a 16-entry L2 every revisit hits.
        let l1 = BtbLevel {
            entries: 4,
            ways: 4,
            latency: 0,
        };
        let l2 = BtbLevel {
            entries: 16,
            ways: 16,
            latency: 2,
        };
        let mk = |levels: Vec<BtbLevel>| {
            Evaluator::new(MlBtb::new(MlBtbConfig {
                levels,
                ..MlBtbConfig::paper()
            }))
        };
        let mut bare = mk(vec![l1]);
        let mut ml = mk(vec![l1, l2]);
        for _round in 0..6 {
            for pc in 0..8u32 {
                let ev = cond_to(100 + pc * 10, true, 500 + pc);
                bare.branch(&ev);
                ml.branch(&ev);
            }
        }
        assert_eq!(bare.stats.btb_lookups, ml.stats.btb_lookups);
        assert!(
            ml.stats.btb_misses < bare.stats.btb_misses,
            "hierarchy {} vs bare {}",
            ml.stats.btb_misses,
            bare.stats.btb_misses
        );
        assert_eq!(bare.stats.btb_misses, 48); // every lookup thrashes
        assert_eq!(ml.stats.btb_misses, 8); // compulsory only
    }

    #[test]
    fn latency_charges_serving_level_and_full_walk_on_miss() {
        let mut e = Evaluator::new(MlBtb::new(tiny(FillPolicy::L1)));
        e.branch(&cond_to(10, true, 50)); // full miss: 0 + 3
        assert_eq!(e.predictor.stats().latency_cycles, 3);
        e.branch(&cond_to(10, true, 50)); // L1 hit: +0
        assert_eq!(e.predictor.stats().latency_cycles, 3);
        e.branch(&cond_to(20, true, 60)); // full miss: +3 (10 → L2)
        e.branch(&cond_to(10, true, 50)); // L2 hit: +3
        assert_eq!(e.predictor.stats().latency_cycles, 9);
    }

    #[test]
    fn a_hit_charges_only_its_serving_level() {
        let mut config = tiny(FillPolicy::L1);
        config.levels[0].latency = 1;
        let mut e = Evaluator::new(MlBtb::new(config));
        e.branch(&cond_to(10, true, 50)); // full miss: 1 + 3
        e.branch(&cond_to(10, true, 50)); // L1 hit: +1
        assert_eq!(e.predictor.stats().latency_cycles, 5);
        e.branch(&cond_to(20, true, 60)); // full miss: +4 (10 → L2)
        e.branch(&cond_to(10, true, 50)); // L2 hit: +3, not +1 + 3
        assert_eq!(e.predictor.stats().latency_cycles, 12);
    }

    #[test]
    fn dropped_entries_probe_evict() {
        let mut e = Evaluator::new(MlBtb::with_sink(tiny(FillPolicy::L1), SiteProbe::enabled()));
        // Capacity is 1 + 2 = 3; the fourth distinct branch drops one.
        for pc in [10, 20, 30, 40] {
            e.branch(&cond_to(pc, true, pc + 5));
        }
        assert_eq!(e.predictor.stats().dropped, 1);
        let probe = e.predictor.sink();
        let evicted: u64 = probe.sites().values().map(|c| c.evicts).sum();
        assert_eq!(evicted, 1);
        // The very first branch is the LRU chain's tail.
        assert_eq!(probe.sites()[&10].evicts, 1);
    }

    #[test]
    fn counters_keep_direction_through_one_anomaly() {
        let e = drive_outcomes(MlBtb::server(), &[true, true, true, false, true]);
        // miss-wrong, correct, correct, wrong, correct (counter held).
        assert_eq!(e.stats.correct, 3);
    }

    #[test]
    fn not_taken_branches_are_resident() {
        let e = drive(MlBtb::server(), &[cond(10, false), cond(10, false)]);
        assert_eq!(e.stats.btb_misses, 1);
        assert_eq!(e.stats.correct, 2);
    }

    #[test]
    fn flush_empties_every_level() {
        let mut e = Evaluator::new(MlBtb::new(tiny(FillPolicy::L1)));
        for pc in [10, 20, 30] {
            e.branch(&cond_to(pc, true, pc + 5));
        }
        assert_eq!(e.predictor.len(), 3);
        e.predictor.flush();
        assert!(e.predictor.is_empty());
    }

    #[test]
    fn lane_spec_is_unpackable() {
        // A single-level hierarchy is the CBTB and packs like it; the
        // planner must fall back to the scalar path for hierarchies.
        assert_eq!(MlBtb::paper().lane_spec(), Cbtb::paper().lane_spec());
        assert!(MlBtb::server().lane_spec().is_none());
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_level_list_rejected() {
        let _ = MlBtb::new(MlBtbConfig {
            levels: vec![],
            ..MlBtbConfig::server()
        });
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = MlBtb::new(MlBtbConfig {
            levels: vec![BtbLevel {
                entries: 24,
                ways: 2,
                latency: 0,
            }],
            ..MlBtbConfig::server()
        });
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn threshold_above_counter_max_rejected() {
        let _ = MlBtb::new(MlBtbConfig {
            counter_bits: 2,
            threshold: 4,
            ..MlBtbConfig::server()
        });
    }

    // One configuration, one validator.

    #[test]
    fn names_and_lane_specs_follow_the_config() {
        assert_eq!(Sbtb::paper().name(), "SBTB");
        assert_eq!(Cbtb::paper().name(), "CBTB");
        assert_eq!(MlBtb::paper().name(), "CBTB");
        assert_eq!(MlBtb::server().name(), "MLBTB");
        assert!(Sbtb::paper().lane_spec().is_none());
        assert_eq!(
            Cbtb::paper().lane_spec(),
            Some(LaneSpec::Cbtb(CbtbConfig::paper()))
        );
        let probed = Cbtb::with_sink(CbtbConfig::paper(), SiteProbe::enabled());
        assert!(probed.lane_spec().is_none());
        let mut warm = Cbtb::paper();
        let p = warm.predict(&cond(10, true));
        warm.update(&cond(10, true), &p);
        assert!(warm.lane_spec().is_none());
    }

    #[test]
    fn validate_names_the_broken_rule() {
        let cbtb = |counter_bits, threshold| {
            BtbConfig::from(CbtbConfig {
                counter_bits,
                threshold,
                ..CbtbConfig::paper()
            })
        };
        let sbtb = |entries, ways| BtbConfig::from(SbtbConfig { entries, ways });
        assert_eq!(cbtb(2, 2).validate(), Ok(()));
        assert_eq!(cbtb(8, 2).validate(), Err(BtbConfigError::CounterBits(8)));
        assert_eq!(cbtb(0, 0).validate(), Err(BtbConfigError::CounterBits(0)));
        assert_eq!(
            cbtb(2, 0).validate(),
            Err(BtbConfigError::Threshold {
                threshold: 0,
                max: 3
            })
        );
        // The SBTB rule has no counter to check.
        assert_eq!(
            BtbConfig {
                direction: Direction::TakenOnly,
                ..cbtb(0, 0)
            }
            .validate(),
            Ok(())
        );
        for (entries, ways) in [(24, 2), (10, 3), (0, 4), (4, 0), (4, 8)] {
            assert_eq!(
                sbtb(entries, ways).validate(),
                Err(BtbConfigError::Geometry {
                    level: 0,
                    entries,
                    ways
                }),
                "{entries}x{ways}"
            );
        }
        let mut two = BtbConfig::from(MlBtbConfig::server());
        two.levels[1].ways = 3;
        assert!(matches!(
            two.validate(),
            Err(BtbConfigError::Geometry { level: 1, .. })
        ));
        let none = BtbConfig {
            levels: vec![],
            ..two
        };
        assert_eq!(none.validate(), Err(BtbConfigError::NoLevels));
    }
}
