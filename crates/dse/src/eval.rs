//! Per-architecture evaluation: the inner step of the codesign loop.
//!
//! For one candidate architecture and one benchmark this reproduces the
//! paper's §2.4 discipline: compile at increasing unroll factors, stop as
//! soon as register spilling appears, and keep the fastest non-spilling
//! schedule (per *output unit*, so different unroll factors compare
//! fairly). A kernel that spills even without unrolling is compiled with
//! spill traffic and pays for it — the paper's "pathological" case.
//!
//! There is one way in: an [`Evaluator`] names the plans, the compile
//! memo, the fuel budget and the unroll cap, and [`Evaluator::evaluate`]
//! runs one `(architecture, benchmark)` unit in the caller's scratch and
//! trace. Every compilation goes through the memo — a caller with
//! nothing to share hands it a fresh [`CompileCache`], which is what
//! [`try_evaluate`] and [`evaluate`], the two conveniences kept, do
//! (DESIGN.md, "Entry points", says who needs them). [`quarantine`] is
//! the panic boundary the sweep and the search wrap around it.
//!
//! Optimization is machine-aware only through a *residency budget*
//! (how many loop constants LICM may pin in registers — half the
//! register file). Budgets take four distinct values across the whole
//! space, so optimized/unrolled kernels are precomputed once per
//! `(benchmark, budget, unroll)` in a [`PlanCache`] and shared by all
//! architectures.
//!
//! Building those plans runs each *distinct* optimization once. The
//! optimizer reports the peak resident count its LICM calls reached, and
//! a run that stayed under its budget is the run of every budget above
//! that peak (`cfp_opt::optimize_budgeted_traced`), so one kernel's
//! pipeline ([`BenchPlans`]) keeps its runs and lets a later budget take
//! an earlier one's result instead of repeating it. There is one walk
//! over plan keys, [`PlanStore::ensure_snapshot_extended`]'s, which
//! interns what the pipeline hands back, so ids depend only on the
//! kernels, never on which run produced them; [`PlanCache::build`] is
//! that walk on a fresh store, and [`plan`] is the same pipeline on one
//! caller-supplied kernel (`cfpc`'s).

use crate::error::{EvalError, FailReason};
use crate::memo::{CompileCache, CoreSummary};
use cfp_kernels::Benchmark;
use cfp_machine::{ArchSpec, ExtSet, MachineResources};
use cfp_obs::{Stage, UnitTrace, Value};
use cfp_sched::{prepare, spill_penalty_cycles, try_compile_core, Fuel, SchedScratch};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Unroll factors the experiment sweeps, ascending.
pub const UNROLL_SWEEP: [u32; 5] = [1, 2, 4, 8, 16];

/// Bodies larger than this are not attempted (compile-time guard; the
/// affected points are reported as using the largest feasible unroll).
pub const MAX_BODY_OPS: usize = 24_000;

/// The residency budget LICM gets for a machine with `regs` registers.
#[must_use]
pub fn residency_budget(regs: u32) -> usize {
    (regs / 2) as usize
}

/// The fuse-pass targets an extension set provides. This is the one
/// bridge between the machine layer's [`ExtSet`] (which knows nothing of
/// IR) and `cfp-opt`'s [`cfp_opt::fuse::FuseTargets`] (which knows
/// nothing of machines): both are masks over extension-table rows, so it
/// copies the bits.
#[must_use]
pub fn fuse_targets(exts: ExtSet) -> cfp_opt::fuse::FuseTargets {
    cfp_opt::fuse::FuseTargets(exts.bits())
}

/// A plan-map key: which benchmark, residency budget, unroll factor,
/// and fused-extension set a precomputed kernel was prepared for.
type PlanKey = (Benchmark, usize, u32, ExtSet);

/// Stable identity of one optimized + unrolled kernel in a [`PlanCache`].
///
/// Plans are interned by content: two `(benchmark, budget, unroll)`
/// triples whose optimized kernels come out identical (common — LICM
/// budgets above a kernel's constant count are indistinguishable) share
/// one id. The id is the key compile memoization is sharded on, so the
/// dedup collapses the register axis even before scheduling starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanId(u32);

impl PlanId {
    /// Dense index for per-plan tables.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One optimizer run over a fixed input, with the certificate it came
/// back with.
#[derive(Debug)]
struct OptRun {
    budget: usize,
    /// Peak resident count over the run's LICM calls.
    peak: usize,
    kernel: cfp_ir::Kernel,
}

impl OptRun {
    fn new(mut kernel: cfp_ir::Kernel, budget: usize, trace: &mut UnitTrace<'_>) -> Self {
        let peak = cfp_opt::optimize_budgeted_traced(&mut kernel, budget, trace);
        OptRun {
            budget,
            peak,
            kernel,
        }
    }

    /// Whether `budget` would have made this very run on the same input:
    /// trivially if it is the run's own budget, and otherwise when both
    /// lie above the peak — LICM's one budget comparison then never held
    /// here and would never hold there.
    fn answers(&self, budget: usize) -> bool {
        budget == self.budget || self.peak < self.budget.min(budget)
    }
}

/// One kernel's plan pipeline — optimize, unroll, re-optimize across
/// the unrolled copies (where CSE turns a stencil's overlapping loads
/// into a register window, the paper's central registers-for-bandwidth
/// trade), fuse last — with every result kept, so each distinct
/// optimization and each distinct fusing happens once however many
/// budgets ask for it. Callers make a fresh one per source kernel.
#[derive(Debug)]
struct BenchPlans {
    source: cfp_ir::Kernel,
    /// Runs over the source kernel: one per budget class.
    base: Vec<OptRun>,
    /// Runs over `unroll(base[i], u)`, tagged `(i, u)`.
    unrolled: Vec<(usize, u32, OptRun)>,
    /// `unrolled[j]`'s kernel fused for a non-empty extension set,
    /// tagged `(j, set)`.
    fused: Vec<(usize, ExtSet, cfp_ir::Kernel)>,
    /// Optimizer runs made.
    runs: u64,
    /// Plans handed out from a run made for another budget.
    shared: u64,
}

impl BenchPlans {
    fn new(source: cfp_ir::Kernel) -> Self {
        BenchPlans {
            source,
            base: Vec::new(),
            unrolled: Vec::new(),
            fused: Vec::new(),
            runs: 0,
            shared: 0,
        }
    }

    /// The source's plan for `(budget, u, exts)`, or `None` when the
    /// unrolled body would exceed [`MAX_BODY_OPS`]. The scalar pipeline
    /// never sees fused instructions: the fuse pass rewrites its result.
    fn plan(
        &mut self,
        budget: usize,
        u: u32,
        exts: ExtSet,
        trace: &mut UnitTrace<'_>,
    ) -> Option<&cfp_ir::Kernel> {
        let bi = find_or_push(
            &mut self.base,
            |r| r.answers(budget),
            || {
                self.runs += 1;
                OptRun::new(self.source.clone(), budget, trace)
            },
        );
        let base = &self.base[bi].kernel;
        if base.body.len() * (u as usize) > MAX_BODY_OPS {
            return None;
        }
        let ui = find_or_push(
            &mut self.unrolled,
            |(i, f, r)| (*i, *f) == (bi, u) && r.answers(budget),
            || {
                self.runs += 1;
                let run = OptRun::new(cfp_opt::unroll::unroll(base, u), budget, trace);
                (bi, u, run)
            },
        );
        let run = &self.unrolled[ui].2;
        self.shared += u64::from(run.budget != budget);
        if exts.is_empty() {
            return Some(&run.kernel);
        }
        let fi = find_or_push(
            &mut self.fused,
            |(j, e, _)| (*j, *e) == (ui, exts),
            || {
                let mut kernel = run.kernel.clone();
                cfp_opt::fuse::fuse(&mut kernel, fuse_targets(exts));
                (ui, exts, kernel)
            },
        );
        Some(&self.fused[fi].2)
    }
}

/// The sweep's plan for one kernel: `source` through the pipeline every
/// [`PlanCache`] plan comes from, for a machine with residency budget
/// `budget` (see [`residency_budget`]) and extension set `exts`, unrolled
/// `unroll` times. `None` when the unrolled body would exceed
/// [`MAX_BODY_OPS`] — the key the sweep leaves out and its unroll sweep
/// stops at. `trace` gets the optimizer's per-pass `opt` spans.
#[must_use]
pub fn plan(
    source: cfp_ir::Kernel,
    budget: usize,
    unroll: u32,
    exts: ExtSet,
    trace: &mut UnitTrace<'_>,
) -> Option<cfp_ir::Kernel> {
    BenchPlans::new(source)
        .plan(budget, unroll, exts, trace)
        .cloned()
}

/// Index of the first entry `wanted` accepts, pushing `make()` if none.
fn find_or_push<T>(
    entries: &mut Vec<T>,
    wanted: impl Fn(&T) -> bool,
    make: impl FnOnce() -> T,
) -> usize {
    entries.iter().position(wanted).unwrap_or_else(|| {
        entries.push(make());
        entries.len() - 1
    })
}

/// Intern `kernel` by content into an append-only kernel vector.
fn intern(kernels: &mut Vec<Arc<cfp_ir::Kernel>>, kernel: &cfp_ir::Kernel) -> PlanId {
    // Plan counts are benches × budgets × unrolls — a few hundred at
    // most, so the index always fits; saturating keeps the cast
    // panic-free without inventing an unreachable error path.
    let i = find_or_push(kernels, |k| **k == *kernel, || Arc::new(kernel.clone()));
    PlanId(u32::try_from(i).unwrap_or(u32::MAX))
}

/// Precomputed optimized + unrolled kernels, interned by content: the
/// repo's one plan table. A [`PlanStore`] is one of these behind a
/// mutex, and what the store hands a job is another — the store's table
/// restricted to the job's keys.
///
/// Kernels are held in `Arc`s so that snapshot is a handful of pointer
/// clones rather than a deep copy of every kernel body.
#[derive(Debug, Default)]
pub struct PlanCache {
    /// Append-only content-interned kernels. Ids index this vector, so
    /// a [`PlanId`] handed out once stays valid for the table's
    /// lifetime and means the same kernel in every snapshot of it —
    /// which is what lets a shared [`crate::CompileCache`] key on them
    /// across jobs.
    kernels: Vec<Arc<cfp_ir::Kernel>>,
    /// `(benchmark, budget, unroll, extensions)` → interned id, or
    /// `None` for a key whose unrolled body exceeds [`MAX_BODY_OPS`] —
    /// the cap is a property of the key, so its absence is recorded
    /// rather than confused with "never computed".
    plans: HashMap<PlanKey, Option<PlanId>>,
}

impl PlanCache {
    /// The extensionless plans of the given benchmarks, register sizes
    /// and unroll factors: a snapshot of a fresh [`PlanStore`], so there
    /// is one plan walk. Plans over fused-extension sets, and plans that
    /// should outlive one run, come from a store's
    /// [`PlanStore::ensure_snapshot_extended`].
    #[must_use]
    pub fn build(benches: &[Benchmark], reg_sizes: &[u32], unrolls: &[u32]) -> Self {
        PlanStore::new().ensure_snapshot_extended(benches, reg_sizes, unrolls, &[ExtSet::EMPTY])
    }

    /// Look up a plan ([`ExtSet::EMPTY`] for the extensionless one).
    #[must_use]
    pub fn get(
        &self,
        bench: Benchmark,
        budget: usize,
        unroll: u32,
        exts: ExtSet,
    ) -> Option<&cfp_ir::Kernel> {
        self.id(bench, budget, unroll, exts)
            .map(|id| self.kernel(id))
    }

    /// Look up a plan's interned identity. Extension sets whose fuse
    /// pass rewrote nothing share the extensionless plan's id —
    /// interning is by content.
    #[must_use]
    pub fn id(&self, bench: Benchmark, budget: usize, unroll: u32, exts: ExtSet) -> Option<PlanId> {
        self.plans
            .get(&(bench, budget, unroll, exts))
            .copied()
            .flatten()
    }

    /// The kernel behind an id.
    ///
    /// # Panics
    /// Panics if `id` came from a different cache.
    #[must_use]
    pub fn kernel(&self, id: PlanId) -> &cfp_ir::Kernel {
        &self.kernels[id.index()]
    }

    /// Number of cached plans (distinct `(benchmark, budget, unroll)`
    /// triples; several may share an interned kernel).
    #[must_use]
    pub fn len(&self) -> usize {
        self.plans.values().flatten().count()
    }

    /// Number of content-distinct kernels behind those plans. Counted
    /// over this cache's own plans: a [`PlanStore`] snapshot carries the
    /// store's whole kernel vector (ids index it), including kernels only
    /// earlier jobs asked for.
    #[must_use]
    pub fn unique_kernels(&self) -> usize {
        let mut seen = vec![false; self.kernels.len()];
        self.plans
            .values()
            .flatten()
            .filter(|id| !std::mem::replace(&mut seen[id.index()], true))
            .count()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        !self.plans.values().any(Option::is_some)
    }
}

/// A cross-run plan cache for the exploration service: the persistent
/// analogue of building a fresh [`PlanCache`] per sweep, and nothing
/// more than one — a mutex and two counters around a [`PlanCache`]
/// that only grows. Optimization is deterministic and interning is by
/// content, so a [`PlanId`] means the same kernel in every job that
/// ever runs against this store, which is exactly the contract the
/// shared `CompileCache`'s `(PlanId, signature)` keys need.
///
/// [`PlanStore::ensure_snapshot_extended`] materializes the plans one
/// job needs (computing only the missing ones) as a [`PlanCache`] whose
/// kernel vector is a prefix snapshot of the store — pointer clones,
/// not kernel copies.
#[derive(Debug, Default)]
pub struct PlanStore {
    table: std::sync::Mutex<PlanCache>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl PlanStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PlanCache> {
        // Plan computation runs while holding the lock, but every
        // mutation (intern push, map insert) is complete before the
        // next fallible step, so a poisoned table is still coherent.
        self.table
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A [`PlanCache`] holding every `(benchmark, budget, unroll,
    /// extension set)` key the given sweep needs, computing the missing
    /// ones. Budgets derive from `reg_sizes` through
    /// [`residency_budget`]. For each non-empty extension set the scalar
    /// pipeline runs unchanged and the fuse pass rewrites the result
    /// *last*, so the classic passes never see fused instructions; sets
    /// whose fuse pass finds nothing to rewrite intern to the
    /// extensionless plan's id (and share its compile memoization). On a
    /// fresh store the ids are dense in first-interned order — that is
    /// [`PlanCache::build`] — and on any store they are consistent
    /// across every snapshot it ever produced.
    #[must_use]
    pub fn ensure_snapshot_extended(
        &self,
        benches: &[Benchmark],
        reg_sizes: &[u32],
        unrolls: &[u32],
        ext_sets: &[ExtSet],
    ) -> PlanCache {
        self.snapshot(
            benches,
            reg_sizes,
            unrolls,
            ext_sets,
            &mut UnitTrace::disabled(),
        )
    }

    /// [`Self::ensure_snapshot_extended`] recording the optimizer's
    /// per-pass `opt` spans for the plans it had to compute and one
    /// `plan_build` summary span (plan, unique-kernel and optimizer-run
    /// counts). This is the repo's one walk over plan keys.
    pub(crate) fn snapshot(
        &self,
        benches: &[Benchmark],
        reg_sizes: &[u32],
        unrolls: &[u32],
        ext_sets: &[ExtSet],
        trace: &mut UnitTrace<'_>,
    ) -> PlanCache {
        let t0 = trace.start();
        let mut budgets: Vec<usize> = reg_sizes.iter().map(|&r| residency_budget(r)).collect();
        budgets.sort_unstable();
        budgets.dedup();
        let mut ext_sets: Vec<ExtSet> = ext_sets.to_vec();
        ext_sets.sort_unstable();
        ext_sets.dedup();
        let mut table = self.lock();
        let mut hits = 0u64;
        let mut misses = 0u64;
        let (mut opt_runs, mut opt_shared) = (0, 0);
        let mut snapshot = PlanCache::default();
        for &b in benches {
            // Made on the first miss, so a fully warm round never
            // compiles the benchmark's source.
            let mut pipeline: Option<BenchPlans> = None;
            for &budget in &budgets {
                for &u in unrolls {
                    for &exts in &ext_sets {
                        let key = (b, budget, u, exts);
                        let id = if let Some(&id) = table.plans.get(&key) {
                            hits += 1;
                            id
                        } else {
                            misses += 1;
                            let id = pipeline
                                .get_or_insert_with(|| BenchPlans::new(b.kernel()))
                                .plan(budget, u, exts, trace)
                                .map(|kernel| intern(&mut table.kernels, kernel));
                            table.plans.insert(key, id);
                            id
                        };
                        snapshot.plans.insert(key, id);
                    }
                }
            }
            if let Some(pipeline) = pipeline {
                opt_runs += pipeline.runs;
                opt_shared += pipeline.shared;
            }
        }
        // Ids index the store's kernel vector, so the snapshot's vector
        // must be a prefix of it: clone every Arc up to the store's
        // current length (cheap — pointer per kernel).
        snapshot.kernels = table.kernels.clone();
        drop(table);
        self.hits
            .fetch_add(hits, std::sync::atomic::Ordering::Relaxed);
        self.misses
            .fetch_add(misses, std::sync::atomic::Ordering::Relaxed);
        // Guarded, not left to `stage`: counting the kernels is a pass
        // over the plan map.
        if trace.on() {
            let unique = snapshot.unique_kernels() as u64;
            trace.stage(
                Stage::PlanBuild,
                t0,
                &[
                    ("plans", Value::U64(snapshot.len() as u64)),
                    ("unique_kernels", Value::U64(unique)),
                    ("opt_runs", Value::U64(opt_runs)),
                    ("opt_shared", Value::U64(opt_shared)),
                ],
            );
        }
        snapshot
    }

    /// Plan-map lookups served without re-optimizing.
    #[must_use]
    pub fn plan_hits(&self) -> u64 {
        self.hits.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Plan-map lookups that had to compute the plan.
    #[must_use]
    pub fn plan_misses(&self) -> u64 {
        self.misses.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Content-distinct kernels interned so far.
    #[must_use]
    pub fn unique_kernels(&self) -> usize {
        self.lock().kernels.len()
    }
}

/// Per-worker reusable state for the evaluation loop: the scheduler's
/// scratch arena plus the most recent machine lowering. One of these per
/// worker thread makes the sweep's steady state allocation-free —
/// consecutive units on a worker reuse every scheduling buffer, and the
/// lowered machine description ([`MachineResources`] with its embedded
/// [`cfp_machine::Mdes`], per-cluster `Vec`s both) is memoized at the
/// *scheduling-signature* level: a spec that differs from the previous
/// unit only in register-file size — the exploration's row-major unit
/// order walks the register axis innermost, so this is the common
/// transition — re-deals the register fields in place instead of
/// rebuilding the lowering.
#[derive(Debug, Default)]
pub struct EvalScratch {
    machine: Option<(ArchSpec, MachineResources)>,
    sched: SchedScratch,
}

impl EvalScratch {
    /// A fresh scratch; buffers grow on first use and are reused after.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The lowered machine for `spec`, memoized against the previous
    /// call. Returned alongside the scheduler scratch so callers can
    /// hold both borrows at once.
    fn machine_and_sched(&mut self, spec: &ArchSpec) -> (&MachineResources, &mut SchedScratch) {
        let EvalScratch { machine, sched } = self;
        match machine {
            Some((s, _)) if s == spec => {}
            // Registers are the one axis outside the scheduling
            // signature: same datapath, different bank size. Re-deal
            // the register files — the result is exactly `from_spec`.
            Some((s, m))
                if {
                    let mut sib = *s;
                    sib.regs = spec.regs;
                    sib == *spec
                } =>
            {
                m.retune_regs(spec.regs);
                *s = *spec;
            }
            _ => *machine = Some((*spec, MachineResources::from_spec(spec))),
        }
        let m = &machine
            .get_or_insert_with(|| (*spec, MachineResources::from_spec(spec)))
            .1;
        (m, sched)
    }
}

/// One successful `(architecture, benchmark)` measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Cycles per output unit at the chosen unroll factor, including any
    /// spill penalty (architecture cycles — multiply by the derate for
    /// time).
    pub cycles_per_output: f64,
    /// The chosen unroll factor.
    pub unroll: u32,
    /// Whether even the un-unrolled kernel spilled (penalty applied).
    pub spilled: bool,
    /// Compilations performed for this pair (Table 3 accounting).
    pub compilations: u32,
}

/// The evaluation of one `(architecture, benchmark)` pair: either a
/// [`Measurement`], or a quarantine record explaining why this unit
/// produced none. Failed units never abort a sweep — they ride along so
/// the exploration can report degraded coverage honestly.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalOutcome {
    /// The evaluation completed.
    Done(Measurement),
    /// The evaluation was quarantined.
    Failed {
        /// Why (caught panic, exhausted fuel budget, or a typed error).
        reason: FailReason,
    },
}

impl EvalOutcome {
    /// The measurement, if the unit completed.
    #[must_use]
    pub fn measurement(&self) -> Option<&Measurement> {
        match self {
            EvalOutcome::Done(m) => Some(m),
            EvalOutcome::Failed { .. } => None,
        }
    }

    /// The quarantine record, if the unit failed.
    #[must_use]
    pub fn failure(&self) -> Option<&FailReason> {
        match self {
            EvalOutcome::Done(_) => None,
            EvalOutcome::Failed { reason } => Some(reason),
        }
    }

    /// Whether the unit completed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        matches!(self, EvalOutcome::Done(_))
    }

    /// Cycles per output, or NaN for a quarantined unit. NaN is the
    /// honest missing-data value here: it propagates through speedups
    /// and means the analysis layers must (and do) treat the pair as
    /// incomparable rather than silently ranking it.
    #[must_use]
    pub fn cycles_per_output(&self) -> f64 {
        self.measurement().map_or(f64::NAN, |m| m.cycles_per_output)
    }

    /// Compilations this unit performed (0 for a quarantined unit).
    #[must_use]
    pub fn compilations(&self) -> u32 {
        self.measurement().map_or(0, |m| m.compilations)
    }
}

/// Run one unit's evaluation behind the quarantine boundary: a panic or
/// a typed error becomes [`EvalOutcome::Failed`] instead of taking down
/// the worker (and with it the whole sweep or search).
///
/// `AssertUnwindSafe` is sound for what evaluations share across the
/// boundary: the plan cache is read-only; the compile memo's shards hold
/// only completed values (computes run outside the shard locks) and
/// recover from poisoning explicitly; and every consumer of the worker's
/// scratch arena resizes and clears its buffers on entry, so a panic
/// mid-unit leaves at worst stale data the next unit overwrites.
pub fn quarantine(unit: impl FnOnce() -> Result<Measurement, EvalError>) -> EvalOutcome {
    match catch_unwind(AssertUnwindSafe(unit)) {
        Ok(Ok(m)) => EvalOutcome::Done(m),
        Ok(Err(e)) => EvalOutcome::Failed { reason: e.into() },
        Err(payload) => EvalOutcome::Failed {
            reason: FailReason::from_panic(payload.as_ref()),
        },
    }
}

/// One evaluation session: everything "generate the code; measure the
/// goodness of the code" (paper §2.2) is parameterized by, as one `Copy`
/// value. The sweep, the guided search's rungs and the one-line
/// conveniences below all build one of these and call
/// [`Evaluator::evaluate`]; a new evaluation axis is a new field here.
#[derive(Debug, Clone, Copy)]
pub struct Evaluator<'a> {
    /// The optimized + unrolled kernels to compile.
    pub plans: &'a PlanCache,
    /// The compile memo every compilation goes through, shared with
    /// every architecture that schedules alike: each `(plan, scheduling
    /// signature)` pair is scheduled once per cache instead of once per
    /// architecture, and only the register-capacity verdict and the
    /// spill penalty are recomputed per machine. Results do not depend
    /// on what the cache already holds — a fresh one per unit gives the
    /// same outcome and the same logical compilation count.
    pub memo: &'a CompileCache,
    /// Per-compilation scheduler step budget (`None` never exhausts).
    /// Each unroll factor gets a fresh budget, and it bounds the work
    /// done: a compilation that would cost more stops at the budget.
    pub fuel: Option<u64>,
    /// Truncate the sweep to the prefix of [`UNROLL_SWEEP`] not exceeding
    /// this — the fidelity knob of the search engine's rung ladder. Any
    /// value ≥ 16 is the full sweep.
    pub max_unroll: u32,
}

/// What one scheduled core comes to on one machine's register files.
struct Attempt {
    fits: bool,
    cycles: u32,
    steps: u64,
    excess: u32,
}

impl Attempt {
    /// The capacity verdict: registers short across the clusters, and
    /// the schedule's length plus the spill traffic that excess costs.
    /// The only part of an attempt that reads the register-file size.
    fn of(core: &CoreSummary, machine: &MachineResources) -> Self {
        let excess: u32 = core
            .peak
            .iter()
            .zip(machine.mdes.clusters())
            .map(|(&p, c)| p.saturating_sub(c.regs))
            .sum();
        Attempt {
            fits: excess == 0,
            cycles: core.length + spill_penalty_cycles(excess, machine),
            steps: core.steps,
            excess,
        }
    }
}

impl<'a> Evaluator<'a> {
    /// The full sweep over `plans` through `memo`, no fuel budget.
    #[must_use]
    pub fn new(plans: &'a PlanCache, memo: &'a CompileCache) -> Self {
        Evaluator {
            plans,
            memo,
            fuel: None,
            max_unroll: u32::MAX,
        }
    }

    /// Evaluate one benchmark on one architecture: compile at increasing
    /// unroll factors, stop as soon as register spilling appears, keep
    /// the fastest schedule per output.
    ///
    /// A compile error at `u = 1` fails the whole unit; at deeper unrolls
    /// it stops the sweep and keeps the best result so far, exactly like
    /// the paper's spill rule — deeper unrolling is an optimization, and
    /// an optimization that goes over budget is simply not taken.
    ///
    /// `scratch` is the worker's: results are bit-identical to a fresh
    /// one, reuse only removes allocation. `trace` gets one `compile`
    /// span per attempted unroll factor (and the scheduler's inner spans
    /// for every compilation this unit ran itself); disabled, it changes
    /// nothing and allocates nothing.
    ///
    /// # Errors
    /// [`EvalError::MissingPlan`] on a plan cache built for other
    /// benchmarks or register sizes; [`EvalError::Sched`] when the
    /// un-unrolled compilation itself goes over budget.
    pub fn evaluate(
        &self,
        spec: &ArchSpec,
        bench: Benchmark,
        scratch: &mut EvalScratch,
        trace: &mut UnitTrace<'_>,
    ) -> Result<Measurement, EvalError> {
        let (machine, sched) = scratch.machine_and_sched(spec);
        let budget = residency_budget(spec.regs);
        // Derive the memo key from the memoized description rather than
        // a throwaway `Mdes`: this keeps the warm path allocation-free
        // (see `tests/trace_equivalence.rs`).
        let sig = spec.sched_signature_with(&machine.mdes);
        let mut best: Option<Measurement> = None;
        let mut compilations = 0;

        for &u in UNROLL_SWEEP.iter().take_while(|&&u| u <= self.max_unroll) {
            let Some(id) = self.plans.id(bench, budget, u, spec.exts) else {
                break; // body cap reached; larger unrolls only grow
            };
            let kernel = self.plans.kernel(id);
            let mut fuel = Fuel::from_budget(self.fuel);
            let t0 = trace.start();
            // Every compilation costs this unit the core's steps: a miss
            // spends them scheduling under the unit's own fuel (and
            // stops at the budget), a hit is charged the steps the
            // stored core recorded. The cache stores only successes, so
            // an over-budget core is never kept and fails the same way
            // for the next unit that asks; a verdict is a function of
            // the core and the budget, never of which unit computed it
            // or in what order.
            let mut missed = false;
            let out = self
                .memo
                .try_core(id, sig, || {
                    missed = true;
                    let prepared = self
                        .memo
                        .prepared(id, machine.l2_latency, || prepare(kernel, machine, trace));
                    try_compile_core(&prepared, machine, &mut fuel, sched, trace)
                })
                .and_then(|core| {
                    if !missed {
                        fuel.spend(core.steps)?;
                    }
                    Ok(Attempt::of(&core, machine))
                });
            let head = [
                ("unroll", Value::U64(u64::from(u))),
                ("cache", Value::Str(if missed { "miss" } else { "hit" })),
            ];
            match &out {
                Ok(a) => trace.stage(
                    Stage::Compile,
                    t0,
                    &[
                        head[0],
                        head[1],
                        ("steps", Value::U64(a.steps)),
                        ("fits", Value::Bool(a.fits)),
                        ("cycles", Value::U64(u64::from(a.cycles))),
                        ("spill_excess", Value::U64(u64::from(a.excess))),
                    ],
                ),
                Err(e) => trace.stage(
                    Stage::Compile,
                    t0,
                    &[
                        head[0],
                        head[1],
                        ("error", Value::Str(e.token())),
                        ("steps", Value::U64(fuel.spent())),
                    ],
                ),
            }
            let Attempt { fits, cycles, .. } = match out {
                Ok(a) => a,
                Err(_) if best.is_some() => break,
                Err(source) => {
                    return Err(EvalError::Sched {
                        bench,
                        unroll: u,
                        source,
                    })
                }
            };
            compilations += 1;
            if !fits && u > 1 {
                break; // the paper's rule: spilling stops the sweep
            }
            let cpo = f64::from(cycles) / f64::from(kernel.outputs_per_iter);
            if best.as_ref().is_none_or(|b| cpo < b.cycles_per_output) {
                best = Some(Measurement {
                    cycles_per_output: cpo,
                    unroll: u,
                    spilled: !fits,
                    compilations: 0, // filled once the sweep's total is known
                });
            }
            if !fits {
                break; // u == 1 spilled: keep the penalized result, stop
            }
        }
        let Some(mut out) = best else {
            return Err(EvalError::MissingPlan { bench, budget });
        };
        out.compilations = compilations;
        Ok(out)
    }
}

/// [`Evaluator::evaluate`] at its defaults plus a fuel budget, with a
/// fresh compile cache, a fresh scratch and no trace.
///
/// # Errors
/// As [`Evaluator::evaluate`].
pub fn try_evaluate(
    spec: &ArchSpec,
    bench: Benchmark,
    cache: &PlanCache,
    fuel_budget: Option<u64>,
) -> Result<Measurement, EvalError> {
    let memo = CompileCache::new();
    let session = Evaluator {
        fuel: fuel_budget,
        ..Evaluator::new(cache, &memo)
    };
    session.evaluate(
        spec,
        bench,
        &mut EvalScratch::new(),
        &mut UnitTrace::disabled(),
    )
}

/// Evaluate one benchmark on one architecture.
///
/// # Panics
/// Panics if the cache is missing the un-unrolled plan for the
/// benchmark (build the cache with the same benchmarks and register
/// sizes as the space being explored). Sweeps over untrusted candidates
/// should call [`Evaluator::evaluate`].
#[must_use]
pub fn evaluate(spec: &ArchSpec, bench: Benchmark, cache: &PlanCache) -> Measurement {
    match try_evaluate(spec, bench, cache, None) {
        Ok(m) => m,
        Err(e) => panic!("evaluation failed without a fuel budget: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> PlanCache {
        PlanCache::build(&[Benchmark::D, Benchmark::A], &[64, 256], &[1, 2, 4])
    }

    #[test]
    fn cache_holds_each_budget_and_unroll() {
        let c = small_cache();
        let get = |regs, u| c.get(Benchmark::D, residency_budget(regs), u, ExtSet::EMPTY);
        assert!(get(64, 1).is_some());
        assert!(get(256, 4).is_some());
        assert!(get(128, 1).is_none());
        assert_eq!(c.len(), 2 * 2 * 3);
    }

    #[test]
    fn baseline_evaluates_every_benchmark() {
        let cache = PlanCache::build(&Benchmark::ALL, &[64], &[1, 2]);
        for b in Benchmark::ALL {
            let out = evaluate(&ArchSpec::baseline(), b, &cache);
            assert!(out.cycles_per_output > 1.0, "{b}: {out:?}");
            assert!(out.compilations >= 1);
        }
    }

    #[test]
    fn richer_machine_is_faster_per_output() {
        let cache = PlanCache::build(&[Benchmark::D], &[64, 256], &[1, 2, 4]);
        let base = evaluate(&ArchSpec::baseline(), Benchmark::D, &cache);
        let big = evaluate(
            &ArchSpec::new(8, 4, 256, 2, 4, 1).unwrap(),
            Benchmark::D,
            &cache,
        );
        assert!(big.cycles_per_output < base.cycles_per_output);
    }

    #[test]
    fn unrolling_is_chosen_when_it_helps() {
        let cache = PlanCache::build(&[Benchmark::G], &[256], &[1, 2, 4]);
        let out = evaluate(
            &ArchSpec::new(8, 4, 256, 4, 2, 1).unwrap(),
            Benchmark::G,
            &cache,
        );
        assert!(out.unroll > 1, "{out:?}");
    }

    #[test]
    fn regs_only_siblings_patch_the_lowering_exactly() {
        // The signature-level memo's in-place register re-deal must be
        // indistinguishable from a fresh lowering.
        let mut scratch = EvalScratch::new();
        let a = ArchSpec::new(8, 4, 128, 2, 4, 4).unwrap();
        let b = ArchSpec::new(8, 4, 512, 2, 4, 4).unwrap();
        scratch.machine_and_sched(&a);
        let (m, _) = scratch.machine_and_sched(&b);
        assert_eq!(*m, MachineResources::from_spec(&b));
        // A non-sibling (different cluster count) rebuilds, also exactly.
        let c = ArchSpec::new(8, 4, 512, 2, 4, 2).unwrap();
        let (m, _) = scratch.machine_and_sched(&c);
        assert_eq!(*m, MachineResources::from_spec(&c));
    }

    #[test]
    fn a_reused_eval_scratch_changes_no_measurement() {
        // One scratch across architectures and benchmarks (including a
        // machine switch, which re-lowers the memoized resources) must
        // reproduce `try_evaluate`'s measurements bit for bit — a fresh
        // scratch and a fresh compile cache per unit, nothing reused —
        // on a cache of its own per unit and on one shared warm cache.
        let cache = small_cache();
        let specs = [
            ArchSpec::baseline(),
            ArchSpec::new(8, 4, 256, 2, 4, 2).unwrap(),
            ArchSpec::new(2, 1, 64, 1, 4, 1).unwrap(),
        ];
        let shared = CompileCache::new();
        let warm = Evaluator::new(&cache, &shared);
        let mut scratch = EvalScratch::new();
        let off = &mut UnitTrace::disabled();
        for spec in &specs {
            for b in [Benchmark::D, Benchmark::A] {
                let fresh = try_evaluate(spec, b, &cache, None).unwrap();
                let per_unit = CompileCache::new();
                let reused = Evaluator::new(&cache, &per_unit)
                    .evaluate(spec, b, &mut scratch, off)
                    .unwrap();
                assert_eq!(fresh, reused, "{spec} {b}");
                let cached = warm.evaluate(spec, b, &mut scratch, off).unwrap();
                assert_eq!(fresh, cached, "{spec} {b} (cached)");
            }
        }
    }

    #[test]
    fn an_over_budget_core_stops_at_the_budget_and_is_never_stored() {
        // A's un-unrolled core on the baseline costs more than 20 000
        // steps: the unit fails on a cold cache without storing the core,
        // and fails identically once an unlimited run has stored it.
        let cache = PlanCache::build(&[Benchmark::A], &[64], &[1]);
        let spec = ArchSpec::baseline();
        let off = &mut UnitTrace::disabled();
        let memo = CompileCache::new();
        let tight = Evaluator {
            fuel: Some(20_000),
            ..Evaluator::new(&cache, &memo)
        };
        let cold = tight
            .evaluate(&spec, Benchmark::A, &mut EvalScratch::new(), off)
            .expect_err("over budget");
        assert!(
            matches!(
                cold,
                EvalError::Sched {
                    unroll: 1,
                    source: cfp_sched::SchedError::FuelExhausted { budget: 20_000 },
                    ..
                }
            ),
            "{cold}"
        );
        assert_eq!((memo.core_misses(), memo.unique_cores()), (1, 0));
        let full = Evaluator::new(&cache, &memo)
            .evaluate(&spec, Benchmark::A, &mut EvalScratch::new(), off)
            .expect("no budget");
        assert_eq!((memo.core_misses(), memo.unique_cores()), (2, 1));
        assert_eq!(full.unroll, 1);
        let warm = tight
            .evaluate(&spec, Benchmark::A, &mut EvalScratch::new(), off)
            .expect_err("still over budget");
        assert_eq!(warm, cold);
        assert_eq!(memo.core_hits(), 1);
    }

    #[test]
    fn one_kernels_plan_is_the_plan_caches() {
        let cache = small_cache();
        let off = &mut UnitTrace::disabled();
        for b in [Benchmark::D, Benchmark::A] {
            for (regs, u) in [(64, 1), (256, 2), (64, 4)] {
                let budget = residency_budget(regs);
                let one = plan(b.kernel(), budget, u, ExtSet::EMPTY, off);
                assert!(
                    one.as_ref() == cache.get(b, budget, u, ExtSet::EMPTY),
                    "{b} {regs} {u}"
                );
            }
        }
        // Past the body cap there is no plan, exactly as in the table.
        let huge = u32::try_from(MAX_BODY_OPS).unwrap();
        assert!(plan(Benchmark::A.kernel(), 64, huge, ExtSet::EMPTY, off).is_none());
    }

    #[test]
    fn plan_store_snapshots_match_a_cold_build_and_keep_ids_stable() {
        let benches = [Benchmark::D, Benchmark::A];
        let store = PlanStore::new();
        let snap =
            store.ensure_snapshot_extended(&benches, &[64, 256], &[1, 2, 4], &[ExtSet::EMPTY]);
        let cold = PlanCache::build(&benches, &[64, 256], &[1, 2, 4]);
        assert_eq!(snap.len(), cold.len());
        assert_eq!(snap.unique_kernels(), cold.unique_kernels());
        // Same measurements through either cache.
        let spec = ArchSpec::new(8, 4, 256, 2, 4, 2).unwrap();
        for b in benches {
            assert_eq!(evaluate(&spec, b, &snap), evaluate(&spec, b, &cold), "{b}");
        }
        // A second, overlapping snapshot hits the plan map and reuses
        // the same ids for shared triples — the cross-job contract.
        let again =
            store.ensure_snapshot_extended(&[Benchmark::D], &[256], &[1, 2, 4], &[ExtSet::EMPTY]);
        assert!(store.plan_hits() > 0);
        let budget = residency_budget(256);
        for u in [1, 2, 4] {
            assert_eq!(
                snap.id(Benchmark::D, budget, u, ExtSet::EMPTY),
                again.id(Benchmark::D, budget, u, ExtSet::EMPTY),
                "unroll {u}"
            );
        }
    }

    #[test]
    fn a_is_stuck_at_unroll_one_on_tiny_register_files() {
        // The paper's pathology: benchmark A's unrolled 7x7 window does
        // not fit 8 clusters x 16 registers, so the machine chosen for H
        // cannot unroll A at all — while the same datapath with 512
        // registers unrolls deeply and runs several times faster.
        let cache = PlanCache::build(&[Benchmark::A], &[128, 512], &[1, 2, 4, 8]);
        let starved = evaluate(
            &ArchSpec::new(16, 4, 128, 1, 4, 8).unwrap(),
            Benchmark::A,
            &cache,
        );
        let roomy = evaluate(
            &ArchSpec::new(16, 4, 512, 1, 4, 8).unwrap(),
            Benchmark::A,
            &cache,
        );
        assert_eq!(starved.unroll, 1, "{starved:?}");
        assert!(roomy.unroll >= 4, "{roomy:?}");
        assert!(roomy.cycles_per_output * 2.0 < starved.cycles_per_output);
    }
}
