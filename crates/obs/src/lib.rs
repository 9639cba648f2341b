//! # cfp-obs — std-only structured observability
//!
//! The exploration compiles thousands of `(architecture, benchmark,
//! unroll)` units; when one is slow, fuel-exhausted, or cache-missed,
//! coarse `RunStats` totals cannot say *which* one or *why*. This crate
//! is the tracing layer threaded through the whole stack — frontend,
//! optimizer, scheduler, and sweep — without pulling in tokio or
//! `tracing` (tier-1 stays fully offline):
//!
//! * [`Recorder`] — the sink trait. Instrumented code is generic over
//!   it through [`UnitTrace`] handles; the default [`NullRecorder`]
//!   costs one predicted branch per stage boundary and **zero heap
//!   allocation**, so the sweep's allocation-free steady state survives
//!   instrumentation (proven by `tests/trace_equivalence.rs`).
//! * [`JsonlRecorder`](jsonl::JsonlRecorder) — a lock-sharded in-memory
//!   sink that serializes to JSON Lines. Under its deterministic clock
//!   ([`jsonl::JsonlRecorder::deterministic`]) timestamps are per-unit
//!   monotonic counters, so a trace is byte-stable across runs *and
//!   thread counts* — worker interleaving cannot reorder or re-stamp
//!   anything (the drain sorts by `(unit, seq)`).
//! * [`summary::TraceSummary`] — post-hoc aggregation: per-stage
//!   latency histograms and a per-architecture "why it lost"
//!   attribution table, surfaced by `exhibits --trace-summary`.
//! * [`json`] — the repo's one JSON reader and string writer, shared by
//!   the `cfpd` protocol, the JSONL sink and the pinned-result tests.
//!
//! Events are flat spans: one record per completed stage, carrying a
//! start/end stamp and a small field list. Instrumented code keeps
//! fields on the stack (`&[(&str, Value)]`) and formats strings only
//! behind [`UnitTrace::on`] guards, which is what keeps the disabled
//! path allocation-free.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
pub mod jsonl;
pub mod summary;

pub use jsonl::JsonlRecorder;

/// One pipeline or sweep stage a span can describe.
///
/// The taxonomy follows the compilation pipeline (parse → lower → opt
/// passes → assign → ddg → list/modulo schedule (and the exact-II
/// certifier that grades it) → regalloc → encode → simulate) plus the
/// sweep's own units (plan build, per-unroll compile,
/// per-`(arch, bench)` unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Stage {
    /// Lexing + parsing DSL source.
    Parse,
    /// Lowering the AST to kernel IR.
    Lower,
    /// One machine-independent optimizer pass (named by a `pass` field).
    Opt,
    /// Building the sweep's optimized/unrolled plan cache.
    PlanBuild,
    /// Lowering a kernel to schedulable loop code (+ pre-assignment DDG).
    Prepare,
    /// BUG-style cluster assignment.
    Assign,
    /// Building the post-assignment data-dependence graph.
    Ddg,
    /// Resource-constrained list scheduling.
    List,
    /// Modulo (software-pipelining) scheduling.
    Modulo,
    /// One exact minimum-II certification walk.
    Exact,
    /// Register-pressure analysis / allocation.
    Regalloc,
    /// Encoding a schedule into long-instruction words.
    Encode,
    /// Cycle-accurate simulation of a schedule.
    Simulate,
    /// One unroll factor's compilation inside an evaluation sweep.
    Compile,
    /// One `(architecture, benchmark)` evaluation unit.
    Unit,
    /// One round of the guided search engine (rung survivors, frontier
    /// size, dedup hits — the per-round bracket bookkeeping).
    Search,
}

impl Stage {
    /// The stable lowercase token used in the JSONL schema.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Lower => "lower",
            Stage::Opt => "opt",
            Stage::PlanBuild => "plan_build",
            Stage::Prepare => "prepare",
            Stage::Assign => "assign",
            Stage::Ddg => "ddg",
            Stage::List => "list",
            Stage::Modulo => "modulo",
            Stage::Exact => "exact",
            Stage::Regalloc => "regalloc",
            Stage::Encode => "encode",
            Stage::Simulate => "simulate",
            Stage::Compile => "compile",
            Stage::Unit => "unit",
            Stage::Search => "search",
        }
    }
}

/// A field value. `Copy` except for the borrowed string, so field lists
/// can live on the caller's stack and cost nothing when tracing is off.
#[derive(Debug, Clone, Copy)]
pub enum Value<'a> {
    /// Unsigned counter (steps, cycles, counts).
    U64(u64),
    /// Signed quantity.
    I64(i64),
    /// Floating measurement (serialized with full round-trip precision).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Borrowed string (format only behind an [`UnitTrace::on`] guard).
    Str(&'a str),
}

/// One completed span, borrowed from the instrumented call site.
#[derive(Debug, Clone, Copy)]
pub struct Event<'a> {
    /// The trace unit this span belongs to (see [`unit`]).
    pub unit: u64,
    /// 1-based sequence number within the unit — with [`Event::unit`],
    /// the deterministic total order of a trace.
    pub seq: u32,
    /// Start stamp (wall nanoseconds, or the unit's tick counter under
    /// the deterministic clock).
    pub start: u64,
    /// End stamp, same clock as [`Event::start`].
    pub end: u64,
    /// What ran.
    pub stage: Stage,
    /// Stage-specific payload, in recording order.
    pub fields: &'a [(&'static str, Value<'a>)],
}

/// A span sink. Implementations must be shareable across worker threads.
pub trait Recorder: Sync {
    /// Whether spans are being kept. Instrumented code checks this
    /// before formatting anything heap-allocating.
    fn enabled(&self) -> bool;
    /// A timestamp. `tick` is the calling unit's own monotonic event
    /// counter; a wall-clock recorder ignores it, the deterministic
    /// clock returns it verbatim (making stamps independent of thread
    /// count and machine speed).
    fn now(&self, tick: u64) -> u64;
    /// Record one completed span.
    fn record(&self, event: &Event<'_>);
}

/// The zero-cost default sink: drops everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }
    fn now(&self, _tick: u64) -> u64 {
        0
    }
    fn record(&self, _event: &Event<'_>) {}
}

/// The shared null sink [`UnitTrace::disabled`] borrows from.
pub static NULL: NullRecorder = NullRecorder;

/// A per-unit tracing handle: a recorder reference plus this unit's
/// sequence and tick counters.
///
/// One `UnitTrace` is created per trace unit (a sweep `(arch, bench)`
/// pair, a baseline evaluation, one item of the plan walk, the plan
/// build's summary) and threaded by `&mut` through the pipeline.
/// Because the counters are *per unit*, stamps and sequence numbers
/// never depend on what other threads are doing — that is what makes
/// deterministic traces byte-stable across thread counts.
pub struct UnitTrace<'r> {
    rec: &'r dyn Recorder,
    unit: u64,
    seq: u32,
    ticks: u64,
}

impl std::fmt::Debug for UnitTrace<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnitTrace")
            .field("unit", &self.unit)
            .field("seq", &self.seq)
            .field("ticks", &self.ticks)
            .field("on", &self.on())
            .finish()
    }
}

impl<'r> UnitTrace<'r> {
    /// A handle for `unit` recording into `rec`.
    #[must_use]
    pub fn new(rec: &'r dyn Recorder, unit: u64) -> Self {
        UnitTrace {
            rec,
            unit,
            seq: 0,
            ticks: 0,
        }
    }

    /// A handle that records nothing (borrows the shared [`NULL`] sink).
    /// This is what every untraced entry point passes down.
    #[must_use]
    pub fn disabled() -> UnitTrace<'static> {
        UnitTrace::new(&NULL, 0)
    }

    /// Whether the sink keeps spans. Guard any heap-allocating field
    /// preparation (string formatting, joins) behind this.
    #[must_use]
    pub fn on(&self) -> bool {
        self.rec.enabled()
    }

    /// The unit id this handle records under.
    #[must_use]
    pub fn unit(&self) -> u64 {
        self.unit
    }

    /// Take a start stamp for a stage about to run. Returns 0 (and
    /// advances nothing) when tracing is off.
    #[must_use]
    pub fn start(&mut self) -> u64 {
        if !self.on() {
            return 0;
        }
        self.ticks += 1;
        self.rec.now(self.ticks)
    }

    /// Record a completed stage that began at `start` (from
    /// [`UnitTrace::start`]). No-op when tracing is off — the field
    /// slice is stack-built by the caller, so the disabled path
    /// allocates nothing.
    pub fn stage(&mut self, stage: Stage, start: u64, fields: &[(&'static str, Value<'_>)]) {
        if !self.on() {
            return;
        }
        self.ticks += 1;
        let end = self.rec.now(self.ticks);
        self.seq += 1;
        self.rec.record(&Event {
            unit: self.unit,
            seq: self.seq,
            start,
            end,
            stage,
            fields,
        });
    }
}

/// The trace-unit id scheme shared by the exploration and the readers.
///
/// Sweep units come first (their id is the flat `(arch, bench)` index),
/// then search rounds, baseline evaluations, the plan build's summary
/// and last the plan walk's batch items — so a drained trace sorted by
/// `(unit, seq)` reads in sweep order.
pub mod unit {
    /// Bit marking a search-round summary unit.
    pub const SEARCH_BIT: u64 = 1 << 60;
    /// Bit marking a baseline evaluation unit.
    pub const BASELINE_BIT: u64 = 1 << 61;
    /// The plan-build pseudo-unit: the walk's `plan_build` summary.
    pub const PLAN: u64 = 1 << 62;
    /// Bit marking one item of the plan walk's batches.
    pub const PLAN_ITEM_BIT: u64 = 1 << 63;

    /// The id of sweep unit `i` (flat `arch * benches + bench` index).
    #[must_use]
    pub fn sweep(i: usize) -> u64 {
        i as u64
    }

    /// The id of the baseline evaluation of benchmark column `b`.
    #[must_use]
    pub fn baseline(b: usize) -> u64 {
        BASELINE_BIT | b as u64
    }

    /// The id of search round `r`'s summary span.
    #[must_use]
    pub fn search(r: usize) -> u64 {
        SEARCH_BIT | r as u64
    }

    /// The id of the plan walk's batch item `i`, which records that
    /// item's optimizer spans: a kernel's base runs, or one unroll
    /// factor's chain (numbered after every base-run item).
    #[must_use]
    pub fn plan(i: usize) -> u64 {
        PLAN_ITEM_BIT | i as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The parts of an [`Event`] a contract test compares.
    type EventRow = (u64, u32, u64, u64, Stage, usize);

    /// A sink that counts calls, for contract tests.
    #[derive(Default)]
    struct Counting {
        events: Mutex<Vec<EventRow>>,
    }

    impl Recorder for Counting {
        fn enabled(&self) -> bool {
            true
        }
        fn now(&self, tick: u64) -> u64 {
            tick
        }
        fn record(&self, e: &Event<'_>) {
            self.events.lock().unwrap().push((
                e.unit,
                e.seq,
                e.start,
                e.end,
                e.stage,
                e.fields.len(),
            ));
        }
    }

    #[test]
    fn disabled_trace_is_inert() {
        let mut tr = UnitTrace::disabled();
        assert!(!tr.on());
        assert_eq!(tr.start(), 0);
        tr.stage(Stage::List, 0, &[("steps", Value::U64(9))]);
        // Nothing observable happened; the counters never advanced.
        assert_eq!(tr.seq, 0);
        assert_eq!(tr.ticks, 0);
    }

    #[test]
    fn seq_and_ticks_advance_per_unit() {
        let rec = Counting::default();
        let mut tr = UnitTrace::new(&rec, 7);
        let t0 = tr.start();
        tr.stage(Stage::Assign, t0, &[]);
        let t1 = tr.start();
        tr.stage(Stage::List, t1, &[("steps", Value::U64(1))]);
        let events = rec.events.lock().unwrap();
        assert_eq!(
            *events,
            vec![(7, 1, 1, 2, Stage::Assign, 0), (7, 2, 3, 4, Stage::List, 1),]
        );
    }

    #[test]
    fn stage_tokens_are_unique() {
        let all = [
            Stage::Parse,
            Stage::Lower,
            Stage::Opt,
            Stage::PlanBuild,
            Stage::Prepare,
            Stage::Assign,
            Stage::Ddg,
            Stage::List,
            Stage::Modulo,
            Stage::Exact,
            Stage::Regalloc,
            Stage::Encode,
            Stage::Simulate,
            Stage::Compile,
            Stage::Unit,
            Stage::Search,
        ];
        let mut tokens: Vec<&str> = all.iter().map(|s| s.as_str()).collect();
        tokens.sort_unstable();
        tokens.dedup();
        assert_eq!(tokens.len(), all.len());
    }

    #[test]
    fn unit_id_ranges_do_not_collide() {
        assert!(unit::sweep(usize::MAX >> 4) < unit::search(0));
        assert!(unit::search(1 << 20) < unit::baseline(0));
        assert!(unit::baseline(1 << 20) < unit::PLAN);
        assert!(unit::PLAN < unit::plan(0));
        // A plan item's id is never another kind's, however large the
        // other kind's index.
        let ids = |i: usize| {
            [
                unit::sweep(i),
                unit::search(i),
                unit::baseline(i),
                unit::PLAN,
            ]
        };
        for i in [0, 1, 7, 1 << 20, usize::MAX >> 4] {
            for j in [0, 1, 7, 1 << 20, usize::MAX >> 4] {
                assert!(!ids(j).contains(&unit::plan(i)), "plan({i}) against {j}");
            }
            assert_eq!(unit::plan(i) & !unit::PLAN_ITEM_BIT, i as u64);
        }
    }
}
