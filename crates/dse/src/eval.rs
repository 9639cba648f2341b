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
//! runs one `(architecture, benchmark)` unit under the caller's trace,
//! on the calling thread's lowered-machine memo and scheduler arena.
//! Every compilation goes through the memo — a caller with
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
//! that peak (`cfp_opt::optimize_budgeted_traced`), so a kernel's base
//! runs ([`BaseRuns`]) and each unroll factor's chain ([`UnrollChain`])
//! keep their runs and let a later budget take an earlier one's result
//! instead of repeating it. There is one walk over plan keys,
//! [`PlanStore::ensure_snapshot_extended`]'s: it makes the plans it
//! misses as two batches on the run's workers — every kernel's base
//! runs, then every `(benchmark, unroll)` chain — each item tracing
//! under a unit of its own, and then interns them in key order, so ids
//! depend only on the kernels, never on which run or which worker
//! produced them; [`PlanCache::build`] is that walk on a fresh store,
//! and [`plan`] is the same pipeline on one caller-supplied kernel
//! (`cfpc`'s).

use crate::error::{EvalError, FailReason};
use crate::memo::{CompileCache, CoreSummary};
use crate::units::Workers;
use cfp_ir::{WordMap, WordSet};
use cfp_kernels::Benchmark;
use cfp_machine::{ArchSpec, ExtSet, MachineResources, SchedSignature};
use cfp_obs::{Recorder, Stage, UnitTrace, Value};
use cfp_sched::{prepare, spill_excess, spill_penalty_cycles, try_compile_core, Fuel};
use std::cell::Cell;
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

/// The first stage of a kernel's plan pipeline — optimize, unroll,
/// re-optimize across the unrolled copies (where CSE turns a stencil's
/// overlapping loads into a register window, the paper's central
/// registers-for-bandwidth trade), fuse last: the optimizer runs over
/// one source kernel, one per budget class.
#[derive(Debug)]
struct BaseRuns {
    source: cfp_ir::Kernel,
    runs: Vec<OptRun>,
}

impl BaseRuns {
    fn new(source: cfp_ir::Kernel) -> Self {
        BaseRuns {
            source,
            runs: Vec::new(),
        }
    }

    /// Make a run that answers `budget`, unless one already does.
    fn at(&mut self, budget: usize, trace: &mut UnitTrace<'_>) {
        find_or_push(
            &mut self.runs,
            |r| r.answers(budget),
            || OptRun::new(self.source.clone(), budget, trace),
        );
    }
}

/// Where an [`UnrollChain`] keeps a plan it handed out.
#[derive(Debug, Clone, Copy)]
enum Pick {
    Unrolled(usize),
    Fused(usize),
}

/// One unroll factor's stage of a kernel's pipeline, with every result
/// kept, so each distinct optimization and each distinct fusing happens
/// once however many budgets ask for it. It reads the kernel's base runs
/// and nothing of another chain, which is what lets the plan walk run
/// one kernel's chains on different workers. The scalar pipeline never
/// sees fused instructions: the fuse pass rewrites its result.
#[derive(Debug)]
struct UnrollChain {
    u: u32,
    /// Runs over `unroll(base[i], u)`, tagged `i`.
    unrolled: Vec<(usize, OptRun)>,
    /// `unrolled[j]`'s kernel fused for a non-empty extension set,
    /// tagged `(j, set)`.
    fused: Vec<(usize, ExtSet, cfp_ir::Kernel)>,
    /// The plan handed out for each `(budget, exts)` asked, `None` past
    /// the body cap.
    picks: Vec<((usize, ExtSet), Option<Pick>)>,
    /// Plans handed out from a run made for another budget.
    shared: u64,
}

impl UnrollChain {
    fn new(u: u32) -> Self {
        UnrollChain {
            u,
            unrolled: Vec::new(),
            fused: Vec::new(),
            picks: Vec::new(),
            shared: 0,
        }
    }

    /// The plan for `(budget, exts)` over `base`, the kernel's base runs
    /// with one among them that answers `budget` ([`BaseRuns::at`]), or
    /// `None` when the unrolled body would exceed [`MAX_BODY_OPS`].
    fn plan(
        &mut self,
        base: &[OptRun],
        budget: usize,
        exts: ExtSet,
        trace: &mut UnitTrace<'_>,
    ) -> Option<&cfp_ir::Kernel> {
        let pick = self.pick(base, budget, exts, trace);
        self.picks.push(((budget, exts), pick));
        pick.map(|p| self.kernel(p))
    }

    fn pick(
        &mut self,
        base: &[OptRun],
        budget: usize,
        exts: ExtSet,
        trace: &mut UnitTrace<'_>,
    ) -> Option<Pick> {
        let bi = base.iter().position(|r| r.answers(budget))?;
        let base = &base[bi].kernel;
        if base.body.len() * (self.u as usize) > MAX_BODY_OPS {
            return None;
        }
        let u = self.u;
        let ui = find_or_push(
            &mut self.unrolled,
            |(i, r)| *i == bi && r.answers(budget),
            || {
                (
                    bi,
                    OptRun::new(cfp_opt::unroll::unroll(base, u), budget, trace),
                )
            },
        );
        let run = &self.unrolled[ui].1;
        self.shared += u64::from(run.budget != budget);
        if exts.is_empty() {
            return Some(Pick::Unrolled(ui));
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
        Some(Pick::Fused(fi))
    }

    fn kernel(&self, pick: Pick) -> &cfp_ir::Kernel {
        match pick {
            Pick::Unrolled(i) => &self.unrolled[i].1.kernel,
            Pick::Fused(i) => &self.fused[i].2,
        }
    }

    /// The plan [`Self::plan`] handed out for `(budget, exts)`.
    fn picked(&self, budget: usize, exts: ExtSet) -> Option<&cfp_ir::Kernel> {
        let (_, pick) = self.picks.iter().find(|(k, _)| *k == (budget, exts))?;
        pick.map(|p| self.kernel(p))
    }
}

/// The plans a walk had to make, in their chains, with the optimizer's
/// accounting.
#[derive(Debug)]
struct Made {
    chains: Vec<(Benchmark, UnrollChain)>,
    /// Optimizer runs made.
    runs: u64,
    /// Plans handed out from a run made for another budget.
    shared: u64,
}

impl Made {
    /// Make the plans of `missing` (walk order, no key twice) on the
    /// run's workers: every kernel's base runs as one batch, then every
    /// `(kernel, unroll)` chain as another, deepest unroll first. Each
    /// item records its `opt` spans into `rec` under its own unit,
    /// [`cfp_obs::unit::plan`] — the base runs first, then the chains —
    /// so a deterministic trace does not depend on who made what.
    fn of<'env>(missing: &[PlanKey], workers: &Workers<'env>, rec: &'env dyn Recorder) -> Self {
        let mut benches: Vec<(Benchmark, Vec<usize>)> = Vec::new();
        // One chain's work: its kernel's index in `benches`, its unroll
        // factor, and its keys' budgets and sets in walk order.
        type Chain = (usize, u32, Vec<(usize, ExtSet)>);
        let mut jobs: Vec<Chain> = Vec::new();
        for (k, keys) in missing.chunk_by(|x, y| x.0 == y.0).enumerate() {
            let mut budgets: Vec<usize> = keys.iter().map(|key| key.1).collect();
            budgets.dedup();
            benches.push((keys[0].0, budgets));
            for &(_, budget, u, exts) in keys {
                let job = find_or_push(&mut jobs, |j| (j.0, j.1) == (k, u), || (k, u, Vec::new()));
                jobs[job].2.push((budget, exts));
            }
        }
        // Deepest unrolls first, so the longest chains do not start last.
        jobs.sort_by_key(|&(k, u, _)| (std::cmp::Reverse(u), k));
        let tags: Vec<Benchmark> = jobs.iter().map(|&(k, _, _)| benches[k].0).collect();
        let nb = benches.len();
        let bases = workers.run(nb, move |i| {
            let (b, budgets) = &benches[i];
            let trace = &mut UnitTrace::new(rec, cfp_obs::unit::plan(i));
            let mut base = BaseRuns::new(b.kernel());
            for &budget in budgets {
                base.at(budget, trace);
            }
            Some(base)
        });
        let bases: Arc<Vec<BaseRuns>> = Arc::new(rethrown(bases));
        let chains = workers.run(jobs.len(), {
            let bases = Arc::clone(&bases);
            move |i| {
                let (k, u, keys) = &jobs[i];
                let trace = &mut UnitTrace::new(rec, cfp_obs::unit::plan(nb + i));
                let mut chain = UnrollChain::new(*u);
                for &(budget, exts) in keys {
                    chain.plan(&bases[*k].runs, budget, exts, trace);
                }
                Some(chain)
            }
        });
        let chains = rethrown(chains);
        let base_runs: u64 = bases.iter().map(|b| b.runs.len() as u64).sum();
        Made {
            runs: base_runs + chains.iter().map(|c| c.unrolled.len() as u64).sum::<u64>(),
            shared: chains.iter().map(|c| c.shared).sum(),
            chains: tags.into_iter().zip(chains).collect(),
        }
    }

    /// The plan made for `key`.
    fn plan(&self, (b, budget, u, exts): PlanKey) -> Option<&cfp_ir::Kernel> {
        let (_, chain) = self.chains.iter().find(|(cb, c)| (*cb, c.u) == (b, u))?;
        chain.picked(budget, exts)
    }
}

/// A batch's answers, every slot filled; a panic in it goes on
/// unwinding on the calling thread, as it would have had the batch run
/// there.
fn rethrown<T>(answers: std::thread::Result<Vec<Option<T>>>) -> Vec<T> {
    match answers {
        Ok(slots) => slots.into_iter().flatten().collect(),
        Err(payload) => std::panic::resume_unwind(payload),
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
    let mut base = BaseRuns::new(source);
    base.at(budget, trace);
    let mut chain = UnrollChain::new(unroll);
    chain.plan(&base.runs, budget, exts, trace).cloned()
}

/// The keys a snapshot of these axes holds, in walk order: benchmark,
/// then budget (from `reg_sizes` through [`residency_budget`]), unroll
/// factor and extension set, budgets and sets ascending without repeats.
fn plan_keys(
    benches: &[Benchmark],
    reg_sizes: &[u32],
    unrolls: &[u32],
    ext_sets: &[ExtSet],
) -> Vec<PlanKey> {
    let mut budgets: Vec<usize> = reg_sizes.iter().map(|&r| residency_budget(r)).collect();
    budgets.sort_unstable();
    budgets.dedup();
    let mut ext_sets: Vec<ExtSet> = ext_sets.to_vec();
    ext_sets.sort_unstable();
    ext_sets.dedup();
    let mut keys: Vec<PlanKey> = Vec::new();
    for &b in benches {
        for &budget in &budgets {
            for &u in unrolls {
                keys.extend(ext_sets.iter().map(|&exts| (b, budget, u, exts)));
            }
        }
    }
    keys
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
    plans: WordMap<PlanKey, Option<PlanId>>,
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
        Workers::scope(1, |workers| {
            self.snapshot(
                benches,
                reg_sizes,
                unrolls,
                ext_sets,
                workers,
                &cfp_obs::NULL,
            )
        })
    }

    /// [`Self::ensure_snapshot_extended`] on the run's worker set,
    /// recording into `rec` the optimizer's per-pass `opt` spans for the
    /// plans it had to compute, each under its batch item's unit, and
    /// one `plan_build` summary span (plan, unique-kernel and
    /// optimizer-run counts) under [`cfp_obs::unit::PLAN`]. This is the
    /// repo's one walk over plan keys: it makes the missing plans
    /// ([`Made::of`]), then interns them in walk order, so ids never
    /// depend on which worker made what.
    pub(crate) fn snapshot<'env>(
        &self,
        benches: &[Benchmark],
        reg_sizes: &[u32],
        unrolls: &[u32],
        ext_sets: &[ExtSet],
        workers: &Workers<'env>,
        rec: &'env dyn Recorder,
    ) -> PlanCache {
        let mut trace = UnitTrace::new(rec, cfp_obs::unit::PLAN);
        let t0 = trace.start();
        let keys = plan_keys(benches, reg_sizes, unrolls, ext_sets);
        let mut table = self.lock();
        // Only misses are made, so a fully warm round never compiles a
        // benchmark's source.
        let mut asked: WordSet<PlanKey> = WordSet::default();
        let missing: Vec<PlanKey> = keys
            .iter()
            .copied()
            .filter(|key| !table.plans.contains_key(key) && asked.insert(*key))
            .collect();
        let made = Made::of(&missing, workers, rec);
        let mut snapshot = PlanCache::default();
        for key in keys.iter().copied() {
            let id = if let Some(&id) = table.plans.get(&key) {
                id
            } else {
                let id = made
                    .plan(key)
                    .map(|kernel| intern(&mut table.kernels, kernel));
                table.plans.insert(key, id);
                id
            };
            snapshot.plans.insert(key, id);
        }
        // Ids index the store's kernel vector, so the snapshot's vector
        // must be a prefix of it: clone every Arc up to the store's
        // current length (cheap — pointer per kernel).
        snapshot.kernels = table.kernels.clone();
        drop(table);
        let misses = missing.len() as u64;
        self.hits.fetch_add(
            keys.len() as u64 - misses,
            std::sync::atomic::Ordering::Relaxed,
        );
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
                    ("opt_runs", Value::U64(made.runs)),
                    ("opt_shared", Value::U64(made.shared)),
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

/// The machine lowering a thread evaluated last, memoized at the
/// *scheduling-signature* level: a spec that differs from the previous
/// unit's only in register-file size — the exploration's row-major unit
/// order walks the register axis innermost, so this is the common
/// transition — re-deals the register fields in place instead of
/// rebuilding the lowering ([`MachineResources`] with its embedded
/// [`cfp_machine::Mdes`], per-cluster `Vec`s both). The lowering's
/// [`SchedSignature`] (the compile memo's key) is kept beside it:
/// computed once per rebuild and reused unchanged across register
/// re-deals, since registers are outside the signature.
struct Lowered {
    spec: ArchSpec,
    machine: MachineResources,
    sig: SchedSignature,
}

thread_local! {
    /// The calling thread's last [`Lowered`]; empty while an evaluation
    /// holds it, so a unit that panics leaves nothing stale behind.
    static LOWERED: Cell<Option<Lowered>> = const { Cell::new(None) };
}

impl Lowered {
    /// The lowering of `spec`, made from the one the thread kept.
    fn take(spec: &ArchSpec) -> Self {
        let regs_apart = |kept: &ArchSpec| {
            ArchSpec {
                regs: spec.regs,
                ..*kept
            } == *spec
        };
        match LOWERED.take() {
            Some(kept) if kept.spec == *spec => kept,
            // Registers are the one axis outside the scheduling
            // signature: same datapath, different bank size. Re-deal
            // the register files — the result is exactly `from_spec`,
            // and the signature stands.
            Some(mut kept) if regs_apart(&kept.spec) => {
                kept.machine.retune_regs(spec.regs);
                kept.spec = *spec;
                kept
            }
            _ => {
                let machine = MachineResources::from_spec(spec);
                // From the lowering just built rather than a throwaway
                // `Mdes`: this keeps the warm path allocation-free (see
                // `tests/trace_equivalence.rs`).
                let sig = spec.sched_signature_with(&machine.mdes);
                Lowered {
                    spec: *spec,
                    machine,
                    sig,
                }
            }
        }
    }

    /// Keep this lowering for the thread's next evaluation.
    fn keep(self) {
        LOWERED.set(Some(self));
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
/// recover from poisoning explicitly; the thread's lowered-machine memo
/// is empty while a unit holds it; and every consumer of the thread's
/// scheduler arena resizes and clears its buffers on entry and releases
/// its borrow as a panic unwinds, so a panic mid-unit leaves at worst
/// stale data the next unit overwrites.
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
    /// The capacity verdict ([`spill_excess`], as [`cfp_sched::finish`]
    /// takes it), and the schedule's length plus the spill traffic that
    /// excess costs.
    fn of(core: &CoreSummary, machine: &MachineResources) -> Self {
        let excess = spill_excess(&core.peak, machine);
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
    /// The lowered machine and the scheduler's working memory are the
    /// calling thread's: results are bit-identical on a fresh thread,
    /// reuse only removes allocation. `trace` gets one `compile`
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
        trace: &mut UnitTrace<'_>,
    ) -> Result<Measurement, EvalError> {
        let lowered = Lowered::take(spec);
        let out = self.evaluate_on(spec, bench, &lowered, trace);
        lowered.keep();
        out
    }

    /// [`Evaluator::evaluate`] on `spec`'s lowering.
    fn evaluate_on(
        &self,
        spec: &ArchSpec,
        bench: Benchmark,
        lowered: &Lowered,
        trace: &mut UnitTrace<'_>,
    ) -> Result<Measurement, EvalError> {
        let (machine, sig) = (&lowered.machine, lowered.sig);
        let budget = residency_budget(spec.regs);
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
                    try_compile_core(&prepared, machine, &mut fuel, trace)
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
/// fresh compile cache and no trace.
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
    session.evaluate(spec, bench, &mut UnitTrace::disabled())
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
        // indistinguishable from a fresh lowering, and so must every
        // rebuild. The kept signature is the compile memo's key, so a
        // stale one would serve another machine's schedules: after every
        // transition — first lowering, same spec, register re-deal, full
        // rebuild, extension and pipelining switches — it must be the
        // spec's own.
        let walk = [
            ArchSpec::new(8, 4, 128, 2, 4, 4).unwrap(),
            ArchSpec::new(8, 4, 128, 2, 4, 4).unwrap(),
            ArchSpec::new(8, 4, 512, 2, 4, 4).unwrap(),
            ArchSpec::new(8, 4, 64, 2, 4, 4).unwrap(),
            // A non-sibling (different cluster count) rebuilds.
            ArchSpec::new(8, 4, 64, 2, 4, 2).unwrap(),
            ArchSpec::new(8, 4, 64, 2, 4, 2)
                .unwrap()
                .with_extensions(ExtSet::MULADD),
            ArchSpec::new(8, 4, 256, 2, 4, 2)
                .unwrap()
                .with_extensions(ExtSet::MULADD),
            ArchSpec::new(8, 4, 256, 2, 4, 2).unwrap(),
            ArchSpec::new(8, 4, 128, 2, 4, 2)
                .unwrap()
                .with_pipelined_l2(),
            ArchSpec::baseline(),
        ];
        for spec in &walk {
            let lowered = Lowered::take(spec);
            assert_eq!(lowered.machine, MachineResources::from_spec(spec), "{spec}");
            assert_eq!(lowered.sig, spec.sched_signature(), "{spec}");
            lowered.keep();
        }
    }

    #[test]
    fn a_reused_eval_scratch_changes_no_measurement() {
        // One thread's memo and arena across architectures and benchmarks
        // (including a machine switch, which re-lowers the memoized
        // resources) must reproduce `try_evaluate`'s measurements on a
        // freshly spawned thread bit for bit — a fresh thread and a fresh
        // compile cache per unit, nothing reused — on a cache of its own
        // per unit and on one shared warm cache.
        let cache = small_cache();
        let specs = [
            ArchSpec::baseline(),
            ArchSpec::new(8, 4, 256, 2, 4, 2).unwrap(),
            ArchSpec::new(2, 1, 64, 1, 4, 1).unwrap(),
        ];
        let shared = CompileCache::new();
        let warm = Evaluator::new(&cache, &shared);
        let off = &mut UnitTrace::disabled();
        for spec in &specs {
            for b in [Benchmark::D, Benchmark::A] {
                let fresh = std::thread::scope(|s| {
                    s.spawn(|| try_evaluate(spec, b, &cache, None).unwrap())
                        .join()
                        .expect("no panic")
                });
                let per_unit = CompileCache::new();
                let reused = Evaluator::new(&cache, &per_unit)
                    .evaluate(spec, b, off)
                    .unwrap();
                assert_eq!(fresh, reused, "{spec} {b}");
                let cached = warm.evaluate(spec, b, off).unwrap();
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
            .evaluate(&spec, Benchmark::A, off)
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
            .evaluate(&spec, Benchmark::A, off)
            .expect("no budget");
        assert_eq!((memo.core_misses(), memo.unique_cores()), (2, 1));
        assert_eq!(full.unroll, 1);
        let warm = tight
            .evaluate(&spec, Benchmark::A, off)
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

        // The walk on four workers makes the same runs and interns the
        // same kernels under the same ids as on one, cold and warm.
        let regs = [8, 64, 256];
        let unrolls = [1, 2, 4, 8];
        let exts = [ExtSet::EMPTY, ExtSet::MULADD, ExtSet::ALL];
        let walk = |threads: usize| {
            let store = PlanStore::new();
            Workers::scope(threads, |workers| {
                let cold =
                    store.snapshot(&benches, &regs, &unrolls, &exts, workers, &cfp_obs::NULL);
                let warm = store.snapshot(
                    &[Benchmark::G, Benchmark::D],
                    &[16, 64],
                    &unrolls,
                    &exts,
                    workers,
                    &cfp_obs::NULL,
                );
                (cold, warm)
            })
        };
        let (one, four) = (walk(1), walk(4));
        for (a, b) in [(&one.0, &four.0), (&one.1, &four.1)] {
            assert_eq!(a.kernels, b.kernels);
            assert_eq!(a.plans, b.plans);
        }
        let keys = plan_keys(&benches, &regs, &unrolls, &exts);
        let made = |threads: usize| {
            Workers::scope(threads, |workers| {
                let made = Made::of(&keys, workers, &cfp_obs::NULL);
                (made.runs, made.shared)
            })
        };
        assert_eq!(made(1), made(4));
    }

    /// Notes the threads that record `opt` spans and keeps the
    /// `plan_build` summary's counts. The calling thread's first `opt`
    /// span waits (up to a minute) until a helper has recorded one, so a
    /// walk that hands items to helpers shows it whatever the
    /// interleaving.
    struct WalkWatch {
        caller: std::thread::ThreadId,
        opt_threads: std::sync::Mutex<Vec<std::thread::ThreadId>>,
        helper_seen: std::sync::Condvar,
        build: std::sync::Mutex<Vec<(&'static str, u64)>>,
    }

    impl Recorder for WalkWatch {
        fn enabled(&self) -> bool {
            true
        }
        fn now(&self, tick: u64) -> u64 {
            tick
        }
        fn record(&self, event: &cfp_obs::Event<'_>) {
            if event.stage == Stage::PlanBuild {
                let counts = event
                    .fields
                    .iter()
                    .filter_map(|&(name, value)| match value {
                        Value::U64(n) => Some((name, n)),
                        _ => None,
                    });
                self.build.lock().unwrap().extend(counts);
            }
            if event.stage != Stage::Opt {
                return;
            }
            let me = std::thread::current().id();
            let mut seen = self.opt_threads.lock().unwrap();
            seen.push(me);
            if me != self.caller {
                self.helper_seen.notify_all();
                return;
            }
            if seen.iter().filter(|&&t| t == me).count() > 1 {
                return;
            }
            let helpers_idle =
                |seen: &mut Vec<std::thread::ThreadId>| seen.iter().all(|&t| t == self.caller);
            let minute = std::time::Duration::from_secs(60);
            drop(
                self.helper_seen
                    .wait_timeout_while(seen, minute, helpers_idle),
            );
        }
    }

    #[test]
    fn a_traced_sweep_walks_its_plans_on_helpers_as_an_untraced_one_does() {
        let config = crate::ExploreConfig {
            archs: vec![
                ArchSpec::new(2, 1, 64, 1, 4, 1).unwrap(),
                ArchSpec::new(4, 2, 128, 1, 2, 1).unwrap(),
                ArchSpec::new(8, 4, 256, 2, 8, 2).unwrap(),
            ],
            benches: vec![Benchmark::A, Benchmark::D],
            threads: 4,
            ..crate::ExploreConfig::default()
        };
        let watch = WalkWatch {
            caller: std::thread::current().id(),
            opt_threads: std::sync::Mutex::default(),
            helper_seen: std::sync::Condvar::new(),
            build: std::sync::Mutex::default(),
        };
        let sweep = |rec: &dyn Recorder| {
            let store = PlanStore::new();
            crate::Exploration::try_run_shared(&config, &store, &CompileCache::new(), rec)
                .expect("the sweep runs");
            store
        };
        let (traced, untraced) = (sweep(&watch), sweep(&cfp_obs::NULL));
        let opt_threads = watch.opt_threads.lock().unwrap();
        assert!(
            opt_threads.iter().any(|&t| t != watch.caller),
            "the traced walk ran on the calling thread alone"
        );

        // Asked again for the sweep's keys, each store hands out the ids
        // its sweep interned; the baseline adds no register size here.
        let regs = [64, 128, 256];
        let exts = [ExtSet::EMPTY];
        let again = |store: &PlanStore| {
            store.ensure_snapshot_extended(&config.benches, &regs, &UNROLL_SWEEP, &exts)
        };
        let (a, b) = (again(&traced), again(&untraced));
        assert_eq!(a.kernels, b.kernels);
        assert_eq!(a.plans, b.plans);
        let keys = plan_keys(&config.benches, &regs, &UNROLL_SWEEP, &exts);
        let made = Workers::scope(1, |workers| Made::of(&keys, workers, &cfp_obs::NULL));
        assert_eq!(
            *watch.build.lock().unwrap(),
            [
                ("plans", b.len() as u64),
                ("unique_kernels", b.unique_kernels() as u64),
                ("opt_runs", made.runs),
                ("opt_shared", made.shared),
            ]
        );
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
