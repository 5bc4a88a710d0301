//! # branchlab-predict
//!
//! Branch prediction schemes for the `branchlab` reproduction of
//! Hwu/Conte/Chang, *ISCA 1989*:
//!
//! * [`Btb`] — the one branch target buffer engine: set-associative
//!   true-LRU levels, a fill/promotion policy, per-level lookup-latency
//!   penalties, and a direction rule, all from one [`BtbConfig`].
//!   [`Sbtb`] (taken branches only, delete-on-mispredict) and [`Cbtb`]
//!   (n-bit saturating counters, 2-bit with threshold 2 by default)
//!   build the paper's 256-entry fully-associative buffers; [`MlBtb`]
//!   builds multi-level hierarchies for server-scale instruction
//!   footprints beyond the paper's single buffer.
//! * [`ForwardSemantic`] — the software scheme's prediction side:
//!   profile-derived likely bits with encoded targets.
//! * [`AlwaysTaken`], [`AlwaysNotTaken`], [`BackwardTakenForwardNot`] —
//!   static baselines from the paper's related work.
//! * [`Evaluator`] — scores any [`BranchPredictor`] over a branch-event
//!   stream, producing the accuracy `A` and miss ratio `ρ` of Table 3.
//! * [`LaneFamily`] — bit-parallel SoA scoring of up to 32 compatible
//!   sweep configurations per event in packed `u64` lanes, bit-identical
//!   to per-configuration [`Evaluator`] runs.
//! * [`ContextSwitched`] — periodic-flush wrapper for the context-switch
//!   sensitivity study the paper discusses qualitatively.
//!
//! ```
//! use branchlab_predict::{Evaluator, Sbtb};
//! use branchlab_trace::ExecHooks;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = branchlab_minic::compile(
//!     "int main() { int i; int s = 0; for (i = 0; i < 100; i++) { s += i; } return s; }",
//! )?;
//! let program = branchlab_ir::lower(&module)?;
//! let mut eval = Evaluator::new(Sbtb::paper());
//! branchlab_interp::run(&program, &Default::default(), &[], &mut eval)?;
//! assert!(eval.stats.accuracy() > 0.9);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod assoc;
mod btb;
mod lanes;
mod predictor;
mod ras;
mod statics;
mod twolevel;

pub use assoc::AssocBuffer;
pub use btb::{
    Btb, BtbConfig, BtbConfigError, BtbLevel, BtbStats, Cbtb, CbtbConfig, Direction, FillPolicy,
    LevelStats, MlBtb, MlBtbConfig, MlBtbLevel, Sbtb, SbtbConfig,
};
pub use lanes::{
    CbtbLanes, GshareLanes, LaneFamily, LaneFamilyKey, LaneSpec, LocalLanes, MAX_LANES,
};
pub use predictor::{
    BranchPredictor, ContextSwitched, Evaluator, PredStats, Prediction, TargetInfo,
};
pub use ras::ReturnAddressStack;
pub use statics::{
    AlwaysNotTaken, AlwaysTaken, BackwardTakenForwardNot, ForwardSemantic, LikelyBit, OpcodeBias,
    OpcodeCounts,
};
pub use twolevel::{Gshare, LocalHistory};
