//! Reference model for the branch target buffers.
//!
//! A deliberately naive BTB: every set of every level is a `Vec`
//! ordered by recency (index 0 is the most recently used entry), and
//! each rule of the paper's §2.2 is spelled out directly:
//!
//! * SBTB: only taken branches fill; a hit predicts taken with the
//!   stored target; a hit that falls through deletes its entry.
//! * CBTB: every branch fills, with an n-bit counter starting at `T`
//!   (taken) or `T − 1` (not taken); a hit predicts taken when `C ≥ T`,
//!   or `C > T` under the paper's literal reading.
//! * Two-level hierarchies with the CBTB rule: `L1` fills the first
//!   level and promotes any lower-level hit straight back to it;
//!   `Staged` fills the last level and promotes a hit one level up.
//!   Displaced entries move one level down; the last level's victim
//!   leaves the buffer.
//!
//! The engines in `branchlab::predict` and this model are driven over
//! the same seeded event streams; both must score identical
//! [`PredStats`] and hold the same number of entries afterwards.

use branchlab::ir::{Addr, BlockId, BranchId, Cond, FuncId};
use branchlab::predict::{
    BranchPredictor, Cbtb, CbtbConfig, Evaluator, FillPolicy, MlBtb, MlBtbConfig, MlBtbLevel,
    PredStats, Prediction, Sbtb, SbtbConfig, TargetInfo,
};
use branchlab::telemetry::Rng;
use branchlab::trace::{BranchEvent, BranchKind, ExecHooks};

#[derive(Copy, Clone, Debug)]
struct Entry {
    pc: u32,
    counter: u8,
    target: Addr,
}

#[derive(Copy, Clone, Debug, PartialEq)]
enum Rule {
    /// The SBTB's taken-only buffer.
    TakenOnly,
    /// The CBTB's saturating counter.
    Counter {
        bits: u8,
        threshold: u8,
        strict: bool,
    },
}

/// One level: `sets` recency-ordered vectors of at most `ways` entries.
struct Level {
    sets: Vec<Vec<Entry>>,
    ways: usize,
}

impl Level {
    fn new(entries: usize, ways: usize) -> Self {
        Level {
            sets: (0..entries / ways).map(|_| Vec::new()).collect(),
            ways,
        }
    }

    fn set(&mut self, pc: u32) -> &mut Vec<Entry> {
        let n = self.sets.len();
        &mut self.sets[pc as usize % n]
    }

    /// Remove `pc` if present.
    fn take(&mut self, pc: u32) -> Option<Entry> {
        let set = self.set(pc);
        let pos = set.iter().position(|e| e.pc == pc)?;
        Some(set.remove(pos))
    }

    /// Put `e` at the most-recent end; return the least-recent entry if
    /// the set overflowed.
    fn put(&mut self, e: Entry) -> Option<Entry> {
        let ways = self.ways;
        let set = self.set(e.pc);
        set.insert(0, e);
        (set.len() > ways).then(|| set.pop().unwrap())
    }
}

struct Model {
    levels: Vec<Level>,
    rule: Rule,
    /// Fill new entries at the last level and climb one level per hit.
    staged: bool,
}

impl Model {
    fn new(geometry: &[(usize, usize)], rule: Rule, staged: bool) -> Self {
        Model {
            levels: geometry.iter().map(|&(n, w)| Level::new(n, w)).collect(),
            rule,
            staged,
        }
    }

    fn len(&self) -> usize {
        self.levels.iter().flat_map(|l| &l.sets).map(Vec::len).sum()
    }

    /// Place `e` at `level`, pushing victims down the hierarchy.
    fn place(&mut self, mut level: usize, e: Entry) {
        let mut moving = Some(e);
        while let Some(e) = moving {
            if level == self.levels.len() {
                return;
            }
            moving = self.levels[level].put(e);
            level += 1;
        }
    }

    /// Find `pc`, move it to the most-recent end of the level it is
    /// promoted to, and return its entry.
    fn find(&mut self, pc: u32) -> Option<Entry> {
        let level = (0..self.levels.len()).find(|&i| {
            let n = self.levels[i].sets.len();
            self.levels[i].sets[pc as usize % n]
                .iter()
                .any(|e| e.pc == pc)
        })?;
        let e = self.levels[level].take(pc).unwrap();
        let dest = match level {
            0 => 0,
            _ if self.staged => level - 1,
            _ => 0,
        };
        self.place(dest, e);
        Some(e)
    }

    fn resident_mut(&mut self, pc: u32) -> Option<&mut Entry> {
        self.levels
            .iter_mut()
            .flat_map(|l| l.sets.iter_mut())
            .flat_map(|s| s.iter_mut())
            .find(|e| e.pc == pc)
    }
}

impl BranchPredictor for Model {
    fn name(&self) -> &'static str {
        "model"
    }

    fn predict(&mut self, ev: &BranchEvent) -> Prediction {
        let Some(e) = self.find(ev.pc.0) else {
            return Prediction {
                taken: false,
                target: TargetInfo::None,
                hit: Some(false),
            };
        };
        let taken = match self.rule {
            Rule::TakenOnly => true,
            Rule::Counter {
                threshold, strict, ..
            } => {
                if strict {
                    e.counter > threshold
                } else {
                    e.counter >= threshold
                }
            }
        };
        Prediction {
            taken,
            target: TargetInfo::Addr(e.target),
            hit: Some(true),
        }
    }

    fn update(&mut self, ev: &BranchEvent, pred: &Prediction) {
        let pc = ev.pc.0;
        match self.rule {
            Rule::TakenOnly => {
                if ev.taken {
                    match self.resident_mut(pc) {
                        Some(e) => e.target = ev.target,
                        None => self.place(0, new_entry(ev, 0)),
                    }
                } else if pred.hit == Some(true) {
                    self.levels[0].take(pc);
                }
            }
            Rule::Counter {
                bits, threshold, ..
            } => {
                let max = (1u8 << bits) - 1;
                match self.resident_mut(pc) {
                    Some(e) => {
                        if ev.taken {
                            e.counter = (e.counter + 1).min(max);
                            e.target = ev.target;
                        } else {
                            e.counter = e.counter.saturating_sub(1);
                        }
                    }
                    None => {
                        let counter = if ev.taken { threshold } else { threshold - 1 };
                        let fill = if self.staged {
                            self.levels.len() - 1
                        } else {
                            0
                        };
                        self.place(fill, new_entry(ev, counter));
                    }
                }
            }
        }
    }
}

fn new_entry(ev: &BranchEvent, counter: u8) -> Entry {
    Entry {
        pc: ev.pc.0,
        counter,
        target: ev.target,
    }
}

/// A seeded stream over `sites` branch addresses: mostly conditional
/// branches with per-site bias, some direct and indirect jumps, and a
/// few targets per site so stale targets occur.
fn stream(seed: u64, sites: u32, n: usize) -> Vec<BranchEvent> {
    let mut rng = Rng::seed_from_u64(seed);
    let bias: Vec<f64> = (0..sites)
        .map(|_| rng.gen_range(0..=10u32) as f64 / 10.0)
        .collect();
    (0..n)
        .map(|_| {
            // Skew toward low sites so some branches stay hot.
            let site = rng.gen_range(0..sites).min(rng.gen_range(0..sites));
            let pc = 16 + site * 3;
            let (kind, taken) = match rng.gen_range(0..20u32) {
                0 => (BranchKind::UncondDirect, true),
                1 => (BranchKind::UncondIndirect, true),
                _ => (BranchKind::Cond, rng.gen_bool(bias[site as usize])),
            };
            let target = match kind {
                BranchKind::UncondIndirect => 500 + rng.gen_range(0..3u32),
                _ => 400 + site + u32::from(rng.gen_range(0..8u32) == 0),
            };
            BranchEvent {
                pc: Addr(pc),
                kind,
                taken,
                target: Addr(target),
                fallthrough: Addr(pc + 1),
                branch: BranchId {
                    func: FuncId(0),
                    block: BlockId(site),
                },
                likely: false,
                cond: (kind == BranchKind::Cond).then_some(Cond::Lt),
            }
        })
        .collect()
}

/// Drive `engine` and `model` over the same events and compare.
fn check<P: BranchPredictor>(
    label: &str,
    engine: P,
    len: impl Fn(&P) -> usize,
    model: Model,
    events: &[BranchEvent],
) -> PredStats {
    let mut e = Evaluator::new(engine);
    let mut m = Evaluator::new(model);
    for (i, ev) in events.iter().enumerate() {
        e.branch(ev);
        m.branch(ev);
        if i % 97 == 0 {
            assert_eq!(e.stats, m.stats, "{label}: stats diverged at event {i}");
        }
    }
    assert_eq!(e.stats, m.stats, "{label}");
    assert_eq!(
        len(&e.predictor),
        m.predictor.len(),
        "{label}: resident entries"
    );
    e.stats
}

const SEEDS: [u64; 4] = [1, 7, 1989, 0xB7B];
/// (entries, ways): fully associative, both sides of the buffer's
/// indexed-set threshold, and set-associative.
const GEOMETRIES: [(usize, usize); 6] = [(4, 4), (8, 8), (16, 16), (8, 2), (16, 4), (32, 16)];

#[test]
fn sbtb_matches_the_model() {
    for seed in SEEDS {
        let events = stream(seed, 40, 4000);
        for (entries, ways) in GEOMETRIES {
            let stats = check(
                &format!("sbtb {entries}x{ways} seed {seed}"),
                Sbtb::new(SbtbConfig { entries, ways }),
                |b| b.len(),
                Model::new(&[(entries, ways)], Rule::TakenOnly, false),
                &events,
            );
            assert!(stats.btb_misses > 0 && stats.btb_misses < stats.btb_lookups);
        }
    }
}

#[test]
fn cbtb_matches_the_model_under_both_threshold_rules() {
    for seed in SEEDS {
        let events = stream(seed, 40, 4000);
        for (entries, ways) in GEOMETRIES {
            for (bits, threshold) in [(1, 1), (2, 1), (2, 2), (2, 3), (3, 4), (7, 64)] {
                for strict in [false, true] {
                    let config = CbtbConfig {
                        entries,
                        ways,
                        counter_bits: bits,
                        threshold,
                        strict_greater: strict,
                    };
                    check(
                        &format!("{config:?} seed {seed}"),
                        Cbtb::new(config),
                        |b| b.len(),
                        Model::new(
                            &[(entries, ways)],
                            Rule::Counter {
                                bits,
                                threshold,
                                strict,
                            },
                            false,
                        ),
                        &events,
                    );
                }
            }
        }
    }
}

#[test]
fn two_level_hierarchies_match_the_model() {
    let level = |entries, ways| MlBtbLevel {
        entries,
        ways,
        latency: 1,
    };
    let shapes = [
        [(2, 2), (8, 8)],
        [(4, 2), (16, 4)],
        [(4, 4), (16, 16)],
        [(8, 1), (32, 16)],
    ];
    for seed in SEEDS {
        let events = stream(seed, 48, 4000);
        for [l1, l2] in shapes {
            for (policy, staged) in [(FillPolicy::L1, false), (FillPolicy::Staged, true)] {
                for (bits, threshold) in [(2, 2), (1, 1), (3, 5)] {
                    let config = MlBtbConfig {
                        levels: vec![level(l1.0, l1.1), level(l2.0, l2.1)],
                        policy,
                        counter_bits: bits,
                        threshold,
                    };
                    check(
                        &format!("{config:?} seed {seed}"),
                        MlBtb::new(config.clone()),
                        |b| b.len(),
                        Model::new(
                            &[l1, l2],
                            Rule::Counter {
                                bits,
                                threshold,
                                strict: false,
                            },
                            staged,
                        ),
                        &events,
                    );
                }
            }
        }
    }
}
