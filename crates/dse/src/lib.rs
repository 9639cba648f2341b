//! # cfp-dse — the custom-fit design-space exploration
//!
//! The paper's primary contribution, assembled from the substrates: an
//! exhaustive hardware/software codesign loop that, given an application
//! (or a suite), finds the clustered-VLIW architecture that runs it best
//! under a cost budget.
//!
//! * [`eval`] — one `(architecture, benchmark)` evaluation: optimize
//!   with a machine-derived residency budget, sweep unroll factors until
//!   spilling, keep the best cycles-per-output;
//! * [`memo`] — sharded concurrent memoization of compile results, keyed
//!   by interned plan and scheduling signature, so the sweep never
//!   redoes work two architectures share (the register axis collapses
//!   entirely);
//! * [`explore`] — the exhaustive parallel sweep over the design space
//!   in `(architecture, benchmark)` work units, with the cost and
//!   cycle-time models attached and Table 3-style run statistics
//!   (logical compilations, cache hits, unique schedules, quarantined
//!   units, per-stage timings). The sweep, the guided search's rungs,
//!   the gap study and the plan walk all fan out through one private
//!   unit runner (`units.rs`), whose workers live for one run;
//! * [`error`] — the typed failure taxonomy: per-unit [`EvalError`]s,
//!   quarantine [`FailReason`]s, and run-level [`ExploreError`]s, so a
//!   pathological candidate is a reported value, never a lost sweep;
//! * [`checkpoint`] — the one crash-consistent journal of completed
//!   units, the one runner through which the sweep and the search
//!   replay and append it, and bit-identical resume of interrupted
//!   runs;
//! * [`oracle`] — the heuristic-vs-optimal gap study: sampled design
//!   points certified by the exact-II scheduler, the measured trust
//!   bound on every table the evaluator produces;
//! * [`mod@select`] — COST/RANGE architecture selection (Tables 8–10);
//! * [`pareto`] — scatter points and best-alternative frontiers
//!   (Figures 3–4);
//! * [`search`] — the guided search engine (lazy evaluator, successive
//!   halving, frontier refinement) plus the classic strategies,
//!   answering the paper's open question about search effectiveness;
//! * [`correction`] — the paper's clustering correction-factor
//!   approximation, as an ablation against our full clustered
//!   scheduling;
//! * [`report`], [`tables`] — plain-text/CSV renderings in the paper's
//!   layouts.
//!
//! ```no_run
//! use cfp_dse::{explore::{ExploreConfig, Exploration}, select::{select, Range}};
//!
//! let ex = Exploration::run(&ExploreConfig::paper());
//! // The architecture custom-fit to benchmark A under cost 10:
//! let sel = select(&ex, 0, 10.0, Range::Fraction(0.0)).unwrap();
//! println!("A's machine: {} at cost {:.1}", sel.spec, sel.cost);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The exploration stack promises its failures are typed values; an
// unwrap/expect in non-test code needs a written justification (a
// sibling `#[allow]` with a comment) or a Result path instead. CI runs
// clippy with `-D warnings`, so this gate is enforced.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod checkpoint;
pub mod correction;
pub mod error;
pub mod eval;
pub mod explore;
pub mod io;
pub mod memo;
pub mod oracle;
pub mod pareto;
pub mod report;
pub mod search;
pub mod select;
pub mod tables;
mod units;

pub use checkpoint::{spec_fingerprint, Checkpoint};
pub use error::{CheckpointError, EvalError, ExploreError, FailKind, FailReason};
pub use eval::{
    evaluate, quarantine, try_evaluate, EvalOutcome, Evaluator, Measurement, PlanCache, PlanId,
    PlanStore,
};
pub use explore::{ArchEval, Exploration, ExploreConfig, RunStats};
pub use io::{from_csv, to_csv};
pub use memo::{CompileCache, CoreSummary, ShardedMap};
pub use oracle::{BenchGap, OracleConfig, OraclePoint, OracleReport, PointVerdict};
pub use pareto::{frontier, hypervolume, scatter, ScatterPoint};
pub use search::{
    promote, try_search, try_search_shared, LazyEvaluator, RoundStats, SearchConfig, SearchOutcome,
    SearchReport, Strategy,
};
pub use select::{select, Range, Selection};
pub use tables::{paper_ranges, render, speedup_table, SpeedupTable};
