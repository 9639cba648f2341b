//! The exhaustive exploration loop (paper §2.2/§2.4).
//!
//! "Using some search method, search for a new candidate architecture;
//! measure the cost; build a version of our compiler that generates good
//! code for that architecture; generate the code; measure the goodness of
//! the code; repeat until satisfied." The paper searched exhaustively;
//! so do we, over every `(base point, cluster arrangement)` of the
//! paper's [`cfp_machine::SpaceAxes`], on the crate's unit runner
//! (`units.rs`: one `(architecture, benchmark)` pair per unit), with
//! full per-cluster scheduling instead of the paper's clustering
//! correction factor.
//!
//! The sweep is fault-tolerant: each `(architecture, benchmark)` unit is
//! evaluated behind a panic boundary, and a unit that panics, exhausts
//! its [`ExploreConfig::fuel`] budget, or reports a typed error is
//! quarantined as [`EvalOutcome::Failed`] while the rest of the sweep
//! completes. [`RunStats::failed_units`] reports the degraded coverage.
//! With [`ExploreConfig::checkpoint`] set, completed units are journaled
//! to disk and an interrupted run resumes bit-identically.

use crate::checkpoint::{self, Checkpoint, Journalled};
use crate::error::{CheckpointError, ExploreError, FailKind};
use crate::eval::{quarantine, EvalOutcome, Evaluator, PlanStore, UNROLL_SWEEP};
use crate::memo::CompileCache;
use crate::units::Workers;
use cfp_kernels::Benchmark;
use cfp_machine::{ArchSpec, CostModel, CycleModel, ExtSet, SpaceAxes};
use cfp_obs::{Recorder, Stage, UnitTrace, Value};
use cfp_testkit::FaultInjector;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The distinct fused-extension sets a candidate list asks for, sorted —
/// the plan cache prepares fused plans only for sets some spec enables,
/// so an extensionless sweep builds exactly the historical cache.
fn ext_sets_of(archs: &[ArchSpec]) -> Vec<ExtSet> {
    let mut sets: Vec<ExtSet> = archs.iter().map(|a| a.exts).collect();
    sets.push(ExtSet::EMPTY); // the baseline spec is always evaluated
    sets.sort_unstable();
    sets.dedup();
    sets
}

/// What to explore.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Candidate architectures (all cluster arrangements, clusters set).
    pub archs: Vec<ArchSpec>,
    /// Benchmarks to evaluate.
    pub benches: Vec<Benchmark>,
    /// Workers of the run: the calling thread and `threads − 1` helper
    /// threads started once for the whole sweep, which build the plans,
    /// evaluate the baselines and then the units. `0` or `1` starts no
    /// thread. Results are bit-identical for every value.
    pub threads: usize,
    /// Per-compilation scheduler step budget. A compilation over budget
    /// stops at the budget with a typed error instead of monopolizing a
    /// worker; the unit is quarantined (at unroll 1) or the unroll sweep
    /// truncated (deeper). Budgets count deterministic scheduler steps,
    /// never wall-clock, so budgeted results are identical on every
    /// platform, thread count and compile-cache warmth. `None` (the
    /// default) never exhausts.
    pub fuel: Option<u64>,
    /// Journal completed units to disk as the sweep runs, and optionally
    /// resume an interrupted run. See [`Checkpoint`].
    pub checkpoint: Option<Checkpoint>,
    /// Deterministic fault injection for robustness tests: the injector
    /// panics on a seed-determined subset of unit indices, exercising
    /// the quarantine exactly where [`FaultInjector::tripped_among`]
    /// predicts. Production runs leave this `None`.
    pub fault: Option<FaultInjector>,
}

impl Default for ExploreConfig {
    /// An empty space with production defaults: all cores, no fuel
    /// budget, no checkpoint, no fault injection. Start from this
    /// (`..ExploreConfig::default()`) so configurations keep compiling
    /// as robustness knobs are added.
    fn default() -> Self {
        ExploreConfig {
            archs: Vec::new(),
            benches: Vec::new(),
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            fuel: None,
            checkpoint: None,
            fault: None,
        }
    }
}

impl ExploreConfig {
    /// The paper's full experiment: every arrangement of the 192-point
    /// space, the ten table benchmarks.
    #[must_use]
    pub fn paper() -> Self {
        ExploreConfig {
            archs: SpaceAxes::paper().arrangements(),
            benches: Benchmark::TABLE_COLUMNS.to_vec(),
            ..ExploreConfig::default()
        }
    }

    /// A reduced configuration for tests and quick demos: a handful of
    /// representative architectures and benchmarks.
    #[must_use]
    // Justified expect: the spec table below is constant and covered by
    // every test that calls `smoke`; a typo fails immediately, loudly.
    #[allow(clippy::expect_used)]
    pub fn smoke() -> Self {
        let specs = [
            (1, 1, 64, 1, 8, 1),
            (2, 1, 64, 1, 4, 1),
            (4, 2, 128, 1, 4, 1),
            (4, 2, 256, 1, 4, 4),
            (8, 2, 128, 1, 4, 4),
            (8, 4, 256, 2, 4, 2),
            (16, 4, 128, 1, 4, 8),
        ];
        ExploreConfig {
            archs: specs
                .into_iter()
                .map(|(a, m, r, p2, l2, c)| {
                    ArchSpec::new(a, m, r, p2, l2, c).expect("smoke specs are valid")
                })
                .collect(),
            benches: vec![Benchmark::A, Benchmark::D, Benchmark::F, Benchmark::H],
            ..ExploreConfig::default()
        }
    }
}

/// Bookkeeping in the spirit of the paper's Table 3, extended with the
/// compile-reuse accounting: `compilations` counts *logical*
/// compilations (what the paper would have run), while the cache fields
/// say how many of those were served without scheduling anything.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Logical benchmark compilations performed (the paper ran 5730).
    pub compilations: u64,
    /// Logical compilations answered from the compile cache.
    pub cache_hits: u64,
    /// Distinct `(plan, scheduling signature)` schedules actually
    /// computed.
    pub unique_schedules: u64,
    /// Content-distinct optimized kernels behind the plan cache.
    pub unique_plans: usize,
    /// Architectures evaluated (the paper had 191 base points).
    pub architectures: usize,
    /// `(architecture, benchmark)` units quarantined instead of measured
    /// — panics caught at the unit boundary, typed evaluation errors,
    /// and fuel exhaustion. 0 on a healthy run.
    pub failed_units: u64,
    /// The subset of `failed_units` that failed by exhausting the
    /// [`ExploreConfig::fuel`] budget.
    pub fuel_exhausted: u64,
    /// Units replayed from the checkpoint journal instead of evaluated.
    pub resumed_units: u64,
    /// Cheap screening evaluations (truncated unroll sweeps) performed
    /// by the guided search engine's lower rungs. 0 for an exhaustive
    /// exploration, which only ever runs full sweeps.
    pub screen_evals: u64,
    /// Full-fidelity evaluations (complete unroll sweep, full fuel) —
    /// the currency the search engine economizes. An exhaustive sweep
    /// would spend one per `(architecture, benchmark)` unit; the engine
    /// reports only what its final rungs actually ran.
    pub full_evals: u64,
    /// Search queries answered without any evaluation: a unit replayed
    /// from a search journal, or a sibling whose scheduled core was
    /// already in the compile cache (`SchedSignature` dedup).
    pub dedup_hits: u64,
    /// Time spent optimizing/unrolling plans (the plan-cache build).
    pub plan_wall: Duration,
    /// Time spent in the evaluation sweep proper.
    pub eval_wall: Duration,
    /// Wall-clock time of the whole exploration.
    pub wall: Duration,
}

impl RunStats {
    /// The counts an exploration's outcomes determine — architectures,
    /// compilations (baseline included), failed and fuel-exhausted units
    /// (baseline excluded) — with every other field zero.
    pub(crate) fn counted(archs: &[ArchEval], baseline: &ArchEval) -> Self {
        let all = || archs.iter().flat_map(|a| &a.outcomes);
        RunStats {
            compilations: all()
                .chain(&baseline.outcomes)
                .map(|o| u64::from(o.compilations()))
                .sum(),
            architectures: archs.len(),
            failed_units: all().filter(|o| !o.is_done()).count() as u64,
            fuel_exhausted: all()
                .filter(|o| {
                    o.failure()
                        .is_some_and(|r| r.kind == FailKind::FuelExhausted)
                })
                .count() as u64,
            ..RunStats::default()
        }
    }
}

/// One evaluated architecture.
#[derive(Debug, Clone)]
pub struct ArchEval {
    /// The architecture.
    pub spec: ArchSpec,
    /// Baseline-relative datapath cost.
    pub cost: f64,
    /// Cycle-time derating factor.
    pub derate: f64,
    /// Per-benchmark outcomes (aligned with the exploration's benches).
    pub outcomes: Vec<EvalOutcome>,
}

/// The complete result of an exploration.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Benchmarks, column order.
    pub benches: Vec<Benchmark>,
    /// All evaluated architectures.
    pub archs: Vec<ArchEval>,
    /// The baseline evaluation (speedup denominator).
    pub baseline: ArchEval,
    /// Run bookkeeping.
    pub stats: RunStats,
}

/// Emit the `unit` summary span for one evaluated pair. The formatted
/// architecture string is built only when the trace is live, so the
/// [`cfp_obs::NullRecorder`] path stays allocation-free.
fn unit_span(
    trace: &mut UnitTrace<'_>,
    t0: u64,
    spec: &ArchSpec,
    bench: Benchmark,
    out: &EvalOutcome,
    baseline: bool,
) {
    if !trace.on() {
        return;
    }
    let arch = spec.to_string();
    match out {
        EvalOutcome::Done(m) => trace.stage(
            Stage::Unit,
            t0,
            &[
                ("arch", Value::Str(&arch)),
                ("bench", Value::Str(bench.letter())),
                ("baseline", Value::Bool(baseline)),
                ("outcome", Value::Str("done")),
                ("unroll", Value::U64(u64::from(m.unroll))),
                ("spilled", Value::Bool(m.spilled)),
                ("cpo", Value::F64(m.cycles_per_output)),
                ("compilations", Value::U64(u64::from(m.compilations))),
            ],
        ),
        EvalOutcome::Failed { reason } => trace.stage(
            Stage::Unit,
            t0,
            &[
                ("arch", Value::Str(&arch)),
                ("bench", Value::Str(bench.letter())),
                ("baseline", Value::Bool(baseline)),
                ("outcome", Value::Str("failed")),
                ("fail", Value::Str(reason.kind.token())),
            ],
        ),
    }
}

impl Exploration {
    /// Run the codesign loop.
    ///
    /// # Panics
    /// Panics where [`Self::try_run`] would return an error (empty
    /// configuration, failed baseline, unusable checkpoint journal).
    /// Individual quarantined units never panic this.
    #[must_use]
    pub fn run(config: &ExploreConfig) -> Self {
        match Self::try_run(config) {
            Ok(ex) => ex,
            Err(e) => panic!("exploration failed: {e}"),
        }
    }

    /// Run the codesign loop, with run-level failures as values.
    ///
    /// Unit-level failures do **not** end up here: a panicking,
    /// over-budget, or erroring `(architecture, benchmark)` unit is
    /// caught at the unit boundary, quarantined as
    /// [`EvalOutcome::Failed`], counted in [`RunStats::failed_units`],
    /// and the sweep keeps going. Only conditions that invalidate the
    /// whole run — nothing to explore, a baseline that cannot be
    /// measured (every speedup divides by it), a checkpoint journal
    /// that cannot be read or belongs to a different configuration —
    /// abort with an [`ExploreError`].
    ///
    /// # Errors
    /// See above.
    pub fn try_run(config: &ExploreConfig) -> Result<Self, ExploreError> {
        Self::try_run_traced(config, &cfp_obs::NULL)
    }

    /// [`Self::try_run`] emitting structured spans into `rec`: the plan
    /// build, every stage of every compilation, and one `unit` summary
    /// span per `(architecture, benchmark)` pair (and per baseline
    /// unit) carrying the outcome, chosen unroll, spill status, and —
    /// on failure — the quarantine kind. With the [`cfp_obs::NULL`]
    /// recorder this is exactly [`Self::try_run`]: same results, same
    /// fuel verdicts, same checkpoint fingerprint, and no allocation on
    /// the sweep's steady-state path.
    ///
    /// Units resumed from a checkpoint journal are replayed, not
    /// evaluated, so they emit no spans.
    ///
    /// # Errors
    /// As [`Self::try_run`].
    pub fn try_run_traced(
        config: &ExploreConfig,
        rec: &dyn Recorder,
    ) -> Result<Self, ExploreError> {
        Self::try_run_shared(config, &PlanStore::new(), &CompileCache::new(), rec)
    }

    /// [`Self::try_run_traced`] against caches that outlive the run —
    /// the exploration service's entry point. Plans come from (and new
    /// plans are added to) the shared [`PlanStore`]; compile results are
    /// shared through the caller's [`CompileCache`], so a job whose
    /// `(plan, scheduling signature)` pairs were already scheduled by an
    /// earlier job pays only the capacity checks. Results are
    /// bit-identical to [`Self::try_run_traced`] on the same config: a
    /// warm cache changes who computes, never what is computed (the
    /// fuel discipline of [`Evaluator::evaluate`] is what makes that
    /// hold). [`Self::try_run_traced`] is this function on fresh caches.
    ///
    /// [`RunStats::cache_hits`] and [`RunStats::unique_schedules`]
    /// report this run's delta against the shared cache's counters. The
    /// delta is exact when jobs run one at a time; concurrent jobs on
    /// one cache attribute each other's hits approximately (counters
    /// are global), which the service accepts — the numbers steer
    /// reporting, not results.
    ///
    /// # Errors
    /// As [`Self::try_run`].
    pub fn try_run_shared(
        config: &ExploreConfig,
        store: &PlanStore,
        memo: &CompileCache,
        rec: &dyn Recorder,
    ) -> Result<Self, ExploreError> {
        if config.archs.is_empty() || config.benches.is_empty() {
            return Err(ExploreError::EmptyConfig);
        }
        Workers::scope(config.threads, |workers| {
            Self::sweep(config, store, memo, rec, workers, checkpoint::sweep_journal)
        })
    }

    /// The sweep on the run's worker set: the plan walk, the baselines
    /// as one batch, then every `(architecture, benchmark)` unit as
    /// another, journalled through the journal `attach` opens for the
    /// configured checkpoint.
    fn sweep<'env>(
        config: &'env ExploreConfig,
        store: &PlanStore,
        memo: &'env CompileCache,
        rec: &'env dyn Recorder,
        workers: &Workers<'env>,
        attach: impl FnOnce(&Checkpoint, u64, usize) -> Result<Journalled<usize>, CheckpointError>,
    ) -> Result<Self, ExploreError> {
        let start = Instant::now();
        let mut reg_sizes: Vec<u32> = config.archs.iter().map(|a| a.regs).collect();
        reg_sizes.push(ArchSpec::baseline().regs);
        let plans = Arc::new(store.snapshot(
            &config.benches,
            &reg_sizes,
            &UNROLL_SWEEP,
            &ext_sets_of(&config.archs),
            workers,
            rec,
        ));
        let plan_wall = start.elapsed();

        let cost = CostModel::paper_calibrated();
        let cycle = CycleModel::paper_calibrated();
        // Cache counters are reported as deltas from here, so a shared,
        // pre-warmed `memo` yields per-run numbers.
        let hits0 = memo.core_hits();
        let cores0 = memo.unique_cores() as u64;

        let nb = config.benches.len();
        let units = config.archs.len() * nb;

        // Evaluate one pair behind the quarantine boundary and emit its
        // `unit` span (`fault_unit` is `None` for the baseline).
        let quarantined = {
            let plans = Arc::clone(&plans);
            move |spec: &ArchSpec,
                  bench: Benchmark,
                  fault_unit: Option<u64>,
                  trace: &mut UnitTrace<'_>| {
                let session = Evaluator {
                    fuel: config.fuel,
                    ..Evaluator::new(&plans, memo)
                };
                let t0 = trace.start();
                let out = quarantine(|| {
                    if let (Some(injector), Some(u)) = (&config.fault, fault_unit) {
                        injector.fire(u);
                    }
                    session.evaluate(spec, bench, trace)
                });
                unit_span(trace, t0, spec, bench, &out, fault_unit.is_none());
                out
            }
        };

        // The baseline is the denominator of every speedup; fault
        // injection is keyed off unit indices and never hits it, but a
        // fuel budget small enough to starve it fails the run before any
        // unit is evaluated or journaled.
        let baseline_spec = ArchSpec::baseline();
        let baseline_outcomes = workers
            .run(nb, {
                let quarantined = quarantined.clone();
                move |bi| {
                    let mut trace = UnitTrace::new(rec, cfp_obs::unit::baseline(bi));
                    Some(quarantined(
                        &baseline_spec,
                        config.benches[bi],
                        None,
                        &mut trace,
                    ))
                }
            })
            .map_err(|_| ExploreError::WorkerLost)?
            .into_iter()
            .flatten()
            .map(|out| match out {
                EvalOutcome::Failed { reason } => Err(ExploreError::BaselineFailed(reason)),
                done => Ok(done),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let baseline = ArchEval {
            spec: baseline_spec,
            cost: cost.cost(&baseline_spec),
            derate: cycle.derate(&baseline_spec),
            outcomes: baseline_outcomes,
        };

        // Checkpoint: the journal the units are appended to as they
        // land, with the units a resumed journal already holds.
        let journalled = Arc::new(match &config.checkpoint {
            Some(ck) => attach(ck, checkpoint::fingerprint(config), units)?,
            None => Journalled::off(),
        });

        // One work unit per (architecture, benchmark) pair: much finer
        // grains than whole architectures, so a few slow deep-unroll
        // evaluations cannot leave most workers idle at the tail of the
        // sweep. Units on one worker reuse its thread's lowered machine
        // and scheduler arena back to back.
        let eval_start = Instant::now();
        let answers = journalled.run_journalled(
            workers,
            units,
            |i| i,
            move |i| {
                let spec = &config.archs[i / nb];
                let bench = config.benches[i % nb];
                let mut trace = UnitTrace::new(rec, cfp_obs::unit::sweep(i));
                quarantined(spec, bench, Some(i as u64), &mut trace)
            },
        )?;
        let outcomes: Vec<EvalOutcome> = answers.into_iter().map(|(out, _)| out).collect();
        let eval_wall = eval_start.elapsed();

        let archs: Vec<ArchEval> = config
            .archs
            .iter()
            .enumerate()
            .map(|(a, spec)| ArchEval {
                spec: *spec,
                cost: cost.cost(spec),
                derate: cycle.derate(spec),
                outcomes: outcomes[a * nb..(a + 1) * nb].to_vec(),
            })
            .collect();

        Ok(Exploration {
            benches: config.benches.clone(),
            stats: RunStats {
                cache_hits: memo.core_hits().saturating_sub(hits0),
                unique_schedules: (memo.unique_cores() as u64).saturating_sub(cores0),
                unique_plans: plans.unique_kernels(),
                resumed_units: journalled.resumed(),
                plan_wall,
                eval_wall,
                wall: start.elapsed(),
                // The search-engine accounting stays zero: the exhaustive
                // sweep screens nothing and dedups through the compile
                // cache only (reported as cache_hits above).
                ..RunStats::counted(&archs, &baseline)
            },
            archs,
            baseline,
        })
    }

    /// Speedup of architecture `a` on benchmark column `b`: baseline time
    /// per output over this architecture's time per output (cycle-time
    /// derate included, exactly like the paper's "Speedup"). NaN when
    /// the unit was quarantined — missing data stays visibly missing,
    /// and the analysis layers exclude such pairs from every ranking.
    #[must_use]
    pub fn speedup(&self, a: usize, b: usize) -> f64 {
        let base = self.baseline.outcomes[b].cycles_per_output(); // derate 1.0
        let arch = &self.archs[a];
        base / (arch.outcomes[b].cycles_per_output() * arch.derate)
    }

    /// All speedups of one architecture, column order.
    #[must_use]
    pub fn speedup_row(&self, a: usize) -> Vec<f64> {
        (0..self.benches.len())
            .map(|b| self.speedup(a, b))
            .collect()
    }

    /// Column index of a benchmark.
    #[must_use]
    pub fn bench_index(&self, b: Benchmark) -> Option<usize> {
        self.benches.iter().position(|&x| x == b)
    }

    /// Harmonic mean of a speedup row — the paper's `su` column, which
    /// orders architectures by total running time across the suite.
    /// NaN if any entry is NaN (a quarantined unit poisons the row's
    /// mean, which is what makes failed rows lose every selection).
    #[must_use]
    pub fn harmonic_mean(speedups: &[f64]) -> f64 {
        let s: f64 = speedups.iter().map(|&v| 1.0 / v).sum();
        speedups.len() as f64 / s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_exploration_is_sane() {
        let mut cfg = ExploreConfig::smoke();
        cfg.benches = vec![Benchmark::D, Benchmark::G];
        let ex = Exploration::run(&cfg);
        assert_eq!(ex.archs.len(), cfg.archs.len());
        assert!(ex.stats.compilations > 0);
        // A healthy run quarantines nothing.
        assert_eq!(ex.stats.failed_units, 0);
        assert_eq!(ex.stats.fuel_exhausted, 0);
        assert_eq!(ex.stats.resumed_units, 0);
        // The smoke space repeats signatures (and register sizes), so
        // the compile cache must have absorbed work.
        // Every logical compilation is a hit or a compute; computes can
        // exceed the unique count only by benign duplicate races.
        assert!(ex.stats.cache_hits > 0);
        assert!(ex.stats.unique_schedules > 0);
        assert!(ex.stats.unique_plans > 0);
        assert!(ex.stats.cache_hits + ex.stats.unique_schedules <= ex.stats.compilations);
        // Baseline evaluated against itself gives speedup 1.0.
        let base_idx = ex
            .archs
            .iter()
            .position(|a| a.spec == ArchSpec::baseline())
            .expect("smoke space includes the baseline");
        for b in 0..ex.benches.len() {
            let su = ex.speedup(base_idx, b);
            assert!((su - 1.0).abs() < 1e-9, "baseline speedup {su}");
        }
        // Every bigger machine is at least as fast in cycles (speedups
        // can still dip below 1 from the cycle-time derate).
        for a in 0..ex.archs.len() {
            for b in 0..ex.benches.len() {
                assert!(ex.speedup(a, b) > 0.05, "arch {a} bench {b}");
            }
        }
    }

    #[test]
    fn harmonic_mean_matches_hand_value() {
        let hm = Exploration::harmonic_mean(&[1.0, 2.0, 4.0]);
        assert!((hm - 3.0 / (1.0 + 0.5 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut cfg = ExploreConfig::smoke();
        cfg.benches = vec![Benchmark::D];
        cfg.archs.truncate(3);
        let e1 = Exploration::run(&cfg);
        let e2 = Exploration::run(&cfg);
        for a in 0..e1.archs.len() {
            assert_eq!(e1.speedup_row(a), e2.speedup_row(a));
        }
    }

    #[test]
    fn empty_configurations_are_typed_errors() {
        let err = Exploration::try_run(&ExploreConfig::default()).expect_err("empty");
        assert!(matches!(err, ExploreError::EmptyConfig));
        let err = Exploration::try_run_shared(
            &ExploreConfig::default(),
            &PlanStore::new(),
            &CompileCache::new(),
            &cfp_obs::NULL,
        )
        .expect_err("empty");
        assert!(matches!(err, ExploreError::EmptyConfig));
    }

    #[test]
    fn shared_cache_runs_are_bit_identical_to_cold_runs() {
        // The service contract: the same job against a cold per-run
        // cache, a cold shared cache, and a warm shared cache produces
        // identical results — warmth changes accounting, never answers.
        let mut cfg = ExploreConfig::smoke();
        cfg.benches = vec![Benchmark::D, Benchmark::G];
        cfg.threads = 2;
        let cold = Exploration::run(&cfg);
        let store = PlanStore::new();
        let memo = CompileCache::new();
        let first =
            Exploration::try_run_shared(&cfg, &store, &memo, &cfp_obs::NULL).expect("shared run");
        let second = Exploration::try_run_shared(&cfg, &store, &memo, &cfp_obs::NULL)
            .expect("warm shared run");
        for ((a, b), c) in cold.archs.iter().zip(&first.archs).zip(&second.archs) {
            assert_eq!(a.outcomes, b.outcomes, "cold vs shared ({})", a.spec);
            assert_eq!(a.outcomes, c.outcomes, "cold vs warm ({})", a.spec);
            assert_eq!((a.cost, a.derate), (b.cost, b.derate));
        }
        assert_eq!(cold.baseline.outcomes, second.baseline.outcomes);
        // The warm run scheduled nothing new: every logical compilation
        // was a hit, and the run-delta of unique schedules is zero.
        assert_eq!(second.stats.unique_schedules, 0);
        assert!(second.stats.cache_hits > 0);
        assert_eq!(second.stats.compilations, first.stats.compilations);
        // The plan store served the second run's plans from memory.
        assert!(store.plan_hits() > 0);
    }

    #[test]
    fn unique_plans_counts_the_jobs_own_plans_on_a_shared_store() {
        // Job B after job A on one store reports what B reports alone,
        // not every kernel the store has interned by then.
        let mut a = ExploreConfig::smoke();
        a.archs.truncate(3);
        a.benches = vec![Benchmark::D];
        let mut b = a.clone();
        b.benches = vec![Benchmark::G];
        let (store, memo) = (PlanStore::new(), CompileCache::new());
        let shared = |cfg| {
            Exploration::try_run_shared(cfg, &store, &memo, &cfp_obs::NULL).expect("shared run")
        };
        let first = shared(&a);
        let second = shared(&b);
        let alone = Exploration::run(&b);
        assert_eq!(second.stats.unique_plans, alone.stats.unique_plans);
        assert_eq!(
            store.unique_kernels(),
            first.stats.unique_plans + second.stats.unique_plans,
            "D and G share no kernel, so the store holds both jobs'"
        );
    }

    #[test]
    fn shared_runs_stay_identical_under_an_evicting_memo() {
        // A service cache bounded far below the working set still never
        // changes an answer — eviction costs recomputes only.
        let mut cfg = ExploreConfig::smoke();
        cfg.archs.truncate(4);
        cfg.benches = vec![Benchmark::D];
        cfg.threads = 1;
        let cold = Exploration::run(&cfg);
        let store = PlanStore::new();
        let tiny = CompileCache::bounded(1);
        for round in 0..2 {
            let ex = Exploration::try_run_shared(&cfg, &store, &tiny, &cfp_obs::NULL)
                .expect("shared run");
            for (a, b) in cold.archs.iter().zip(&ex.archs) {
                assert_eq!(a.outcomes, b.outcomes, "round {round} ({})", a.spec);
            }
        }
        assert!(tiny.core_evictions() > 0, "a one-core cache must evict");
    }

    /// Whether `event` is the summary span of a sweep unit (not of a
    /// baseline unit) — the one span emitted outside the quarantine.
    fn is_sweep_unit(event: &cfp_obs::Event<'_>) -> bool {
        let mut fields = event.fields.iter();
        event.stage == Stage::Unit && !fields.any(|f| matches!(f, ("baseline", Value::Bool(true))))
    }

    /// Keeps nothing; runs its closure whenever a sweep unit reports.
    struct Tripwire<F: Fn() + Sync>(F);
    impl<F: Fn() + Sync> Recorder for Tripwire<F> {
        fn enabled(&self) -> bool {
            true
        }
        fn now(&self, tick: u64) -> u64 {
            tick
        }
        fn record(&self, event: &cfp_obs::Event<'_>) {
            if is_sweep_unit(event) {
                self.0();
            }
        }
    }

    #[test]
    fn a_panic_outside_the_quarantine_is_a_lost_worker() {
        let mut cfg = ExploreConfig::smoke();
        cfg.archs.truncate(3);
        cfg.benches = vec![Benchmark::D];
        cfg.threads = 2;
        let rec = Tripwire(|| panic!("the recorder is down"));
        let err = Exploration::try_run_traced(&cfg, &rec).expect_err("workers die");
        assert!(matches!(err, ExploreError::WorkerLost), "{err}");
    }

    #[test]
    fn a_sweep_whose_journal_append_fails_returns_its_checkpoint_error() {
        let path = std::env::temp_dir().join(format!(
            "cfp_ckpt_lost_append_{}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut cfg = ExploreConfig::smoke();
        cfg.archs.truncate(3);
        cfg.benches = vec![Benchmark::D];
        cfg.threads = 2;
        cfg.checkpoint = Some(Checkpoint::new(&path));
        let (store, memo) = (PlanStore::new(), CompileCache::new());
        let before = crate::units::helpers_started();
        let err = Workers::scope(cfg.threads, |workers| {
            Exploration::sweep(
                &cfg,
                &store,
                &memo,
                &cfp_obs::NULL,
                workers,
                |ck, fp, units| checkpoint::sweep_journal(ck, fp, units)?.refusing_writes(),
            )
        })
        .expect_err("journal lost");
        assert!(
            matches!(&err, ExploreError::Checkpoint(CheckpointError::Io { path: p, .. }) if *p == path),
            "{err}"
        );
        let journal = std::fs::read_to_string(&path).expect("the header was written");
        assert_eq!(journal.lines().count(), 1, "nothing was appended");
        // Returning at all means the helper was joined.
        assert_eq!(crate::units::helpers_started() - before, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_starving_fuel_budget_fails_the_baseline_not_the_process() {
        let mut cfg = ExploreConfig::smoke();
        cfg.archs.truncate(2);
        cfg.benches = vec![Benchmark::D];
        cfg.fuel = Some(1); // not even one scheduler scan
        cfg.threads = 2;
        let path = std::env::temp_dir().join(format!(
            "cfp_ckpt_starved_baseline_{}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        cfg.checkpoint = Some(Checkpoint::new(&path));
        let err = Exploration::try_run(&cfg).expect_err("baseline starves");
        assert!(matches!(err, ExploreError::BaselineFailed(_)), "{err}");
        assert!(
            !path.exists(),
            "no unit is journaled after a failed baseline"
        );
    }

    #[test]
    fn a_tight_fuel_budget_quarantines_units_deterministically() {
        let mut cfg = ExploreConfig::smoke();
        cfg.benches = vec![Benchmark::D, Benchmark::G];
        // Wide enough for the baseline and the small machines, too tight
        // for some deep-unroll compilations on the big ones. Chosen so
        // the run exercises both outcomes; exact coverage is asserted
        // deterministic below, not pinned to a count.
        cfg.fuel = Some(2_000);
        let e1 = Exploration::run(&cfg);
        let e2 = Exploration::run(&cfg);
        for (a1, a2) in e1.archs.iter().zip(&e2.archs) {
            assert_eq!(a1.outcomes, a2.outcomes, "budgeted runs are identical");
        }
        // And identical to every unit evaluated on a fresh cache of its
        // own, which schedules every core itself: a hit is charged the
        // stored core's recorded steps, so budget verdicts cannot depend
        // on sharing or interleaving.
        let regs: Vec<u32> = cfg.archs.iter().map(|a| a.regs).collect();
        let plans = crate::eval::PlanCache::build(&cfg.benches, &regs, &UNROLL_SWEEP);
        for arch in &e1.archs {
            for (out, &bench) in arch.outcomes.iter().zip(&cfg.benches) {
                let memo = CompileCache::new();
                let alone = Evaluator {
                    fuel: cfg.fuel,
                    ..Evaluator::new(&plans, &memo)
                };
                let off = &mut UnitTrace::disabled();
                let want = quarantine(|| alone.evaluate(&arch.spec, bench, off));
                assert_eq!(*out, want, "sharing must not change verdicts");
            }
        }
        // Failed units (if any at this budget) are counted and typed.
        let failed = e1
            .archs
            .iter()
            .flat_map(|a| &a.outcomes)
            .filter(|o| !o.is_done())
            .count() as u64;
        assert_eq!(e1.stats.failed_units, failed);
        assert!(e1.stats.fuel_exhausted <= e1.stats.failed_units);
    }
}
