//! Guided search over the design space: lazy evaluation, successive
//! halving, and frontier refinement.
//!
//! The paper searched exhaustively and noted: "we are confident that any
//! good search technique could cut down significantly on our processing
//! time without greatly affecting the results" (§2.2) — and lists "how
//! effective are search methods?" among its open questions (§1.1). This
//! module answers that question twice over:
//!
//! * the classic strategies ([`Strategy`], [`run`], [`study`]) — random
//!   sampling, hill climbing, simulated annealing — driven against a
//!   completed [`Exploration`] used as ground truth, which is what lets the
//!   study grade each one against the known optimum; and
//! * the guided engine ([`try_search`]): a [`LazyEvaluator`] that compiles
//!   and scores only the candidates a search actually asks about — one
//!   [`Evaluator`] per rung, behind the sweep's [`quarantine`] —
//!   wrapped in a successive-halving unroll ladder (cheap
//!   truncated-unroll screens at the low rungs, full-fidelity evaluation
//!   only for the survivors) with frontier-neighborhood refinement
//!   between rounds.
//!   It runs on [`SpaceAxes::combinatorial`]'s 127 000 arrangements,
//!   but only those within the cost bound are admissible: 6 700 at
//!   cost ≤ 10, the bound every shipped search uses (18 760 / 40 810 /
//!   57 620 at 20 / 50 / 100; pinned by `cfp-machine`'s axes tests).
//!
//! Both read their lattice moves from [`SpaceAxes::neighbors`] and their
//! random draws from [`cfp_testkit::Rng`], the workspace's one
//! SplitMix64.
//!
//! The objective is the paper's design task: maximize the target
//! benchmark's speedup subject to a cost bound. The engine reports the
//! whole constrained Pareto frontier it found, its hypervolume, and the
//! bracket bookkeeping (screens vs. full evaluations vs. dedup hits)
//! that says what the guidance saved.
//!
//! Everything is deterministic in the seed: proposals, promotion ties,
//! and archive order are all independent of thread count (each rung's
//! pool is one batch on the search's worker set, answers in pool
//! order). With
//! [`SearchConfig::checkpoint`] set, each rung's pool runs through the
//! sweep's journalled runner ([`crate::checkpoint`]): every outcome is
//! appended as it lands, under the search journal's own magic word and
//! entry key, and a resumed search replays what the journal holds —
//! same decisions, same frontier; only the physical-work counters
//! differ, since replayed outcomes are dedup hits rather than fresh
//! evaluations.

use crate::checkpoint::{
    self, search_journal, spec_fingerprint, Checkpoint, Journalled, SearchKey, SEARCH_MAGIC,
};
use crate::error::{ExploreError, FailKind};
use crate::eval::{quarantine, EvalOutcome, Evaluator, PlanCache, PlanStore, UNROLL_SWEEP};
use crate::explore::{Exploration, RunStats};
use crate::memo::CompileCache;
use crate::pareto::{self, ScatterPoint};
use crate::units::Workers;
use cfp_ir::{WordMap, WordSet};
use cfp_kernels::Benchmark;
use cfp_machine::{ArchSpec, CostModel, CycleModel, Fnv1a, SpaceAxes};
use cfp_obs::{Recorder, Stage, UnitTrace, Value};
use cfp_testkit::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Uniform index in `0..n` by plain remainder. Every pinned search and
/// oracle-study digest was drawn this way; [`Rng::below`] rejects to
/// remove the modulo bias and so consumes the stream differently.
///
/// # Panics
/// Panics if `n == 0`.
pub(crate) fn below(rng: &mut Rng, n: usize) -> usize {
    assert!(n > 0);
    // The remainder is < n, which already fits in usize.
    (rng.next_u64() % (n as u64)) as usize
}

/// Uniform float in `[0, 1)` from the top 53 bits of one draw.
fn unit(rng: &mut Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1_u64 << 53) as f64
}

/// A search strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Evaluate everything (the paper's method).
    Exhaustive,
    /// Evaluate `n` uniformly random candidates.
    RandomSample {
        /// Sample size.
        n: usize,
    },
    /// Greedy hill climbing in the parameter lattice, with restarts.
    HillClimb {
        /// Number of random restarts.
        restarts: usize,
    },
    /// Simulated annealing with a geometric cooling schedule.
    Anneal {
        /// Total proposal steps.
        steps: usize,
    },
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::Exhaustive => f.write_str("exhaustive"),
            Strategy::RandomSample { n } => write!(f, "random({n})"),
            Strategy::HillClimb { restarts } => write!(f, "hill-climb({restarts})"),
            Strategy::Anneal { steps } => write!(f, "anneal({steps})"),
        }
    }
}

/// The outcome of one search run.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// The strategy used.
    pub strategy: Strategy,
    /// Distinct candidates evaluated (the cost the paper wanted to cut).
    pub evaluations: usize,
    /// The best architecture found (cost within the bound).
    pub best: Option<ArchSpec>,
    /// Its target speedup.
    pub best_speedup: f64,
    /// `best_speedup / exhaustive_best_speedup` — 1.0 means the search
    /// found the true optimum.
    pub quality: f64,
}

/// The shared strategy driver: walks candidates according to `strategy`,
/// scoring through `eval` (higher is better; non-finite means "not a
/// candidate"), and returns the best finite-scored spec found.
fn drive(
    strategy: Strategy,
    specs: &[ArchSpec],
    seed: u64,
    eval: &mut dyn FnMut(&ArchSpec) -> f64,
) -> Option<(f64, ArchSpec)> {
    let mut rng = Rng::new(seed ^ 0x5eed);
    // The axes are the single source of truth for the strategies'
    // neighborhood structure.
    let axes = SpaceAxes::extended();
    let mut best: Option<(f64, ArchSpec)> = None;
    let consider = |v: f64, s: ArchSpec, best: &mut Option<(f64, ArchSpec)>| {
        if v.is_finite() && best.as_ref().is_none_or(|(b, _)| v > *b) {
            *best = Some((v, s));
        }
    };

    match strategy {
        Strategy::Exhaustive => {
            for s in specs {
                let v = eval(s);
                consider(v, *s, &mut best);
            }
        }
        Strategy::RandomSample { n } => {
            for _ in 0..n {
                let s = specs[below(&mut rng, specs.len())];
                let v = eval(&s);
                consider(v, s, &mut best);
            }
        }
        Strategy::HillClimb { restarts } => {
            for _ in 0..restarts.max(1) {
                let mut cur = specs[below(&mut rng, specs.len())];
                let mut cur_v = eval(&cur);
                consider(cur_v, cur, &mut best);
                loop {
                    let mut improved = false;
                    for n in axes.neighbors(&cur) {
                        let v = eval(&n);
                        consider(v, n, &mut best);
                        if v > cur_v {
                            cur = n;
                            cur_v = v;
                            improved = true;
                        }
                    }
                    if !improved {
                        break;
                    }
                }
            }
        }
        Strategy::Anneal { steps } => {
            let mut cur = specs[below(&mut rng, specs.len())];
            let mut cur_v = eval(&cur);
            consider(cur_v, cur, &mut best);
            let t0 = 2.0_f64;
            for step in 0..steps {
                let temp = t0 * 0.98_f64.powi(i32::try_from(step).unwrap_or(i32::MAX));
                let ns = axes.neighbors(&cur);
                if ns.is_empty() {
                    break;
                }
                let cand = ns[below(&mut rng, ns.len())];
                let v = eval(&cand);
                consider(v, cand, &mut best);
                let accept = v > cur_v
                    || (v.is_finite() && unit(&mut rng) < ((v - cur_v) / temp.max(1e-6)).exp());
                if accept {
                    cur = cand;
                    cur_v = v;
                }
            }
        }
    }
    best
}

/// Run one strategy against a finished exploration: the exploration is
/// the ground truth `drive` queries, which is what lets the report grade
/// the strategy against the known optimum.
#[must_use]
pub fn run(
    ex: &Exploration,
    target: usize,
    cost_bound: f64,
    strategy: Strategy,
    seed: u64,
) -> SearchReport {
    let specs: Vec<ArchSpec> = ex.archs.iter().map(|a| a.spec).collect();
    let index_of: WordMap<ArchSpec, usize> =
        specs.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    let mut queried: WordSet<usize> = WordSet::default();
    // The objective: the target's speedup, or -inf over the cost bound
    // or outside the space.
    let best = drive(strategy, &specs, seed, &mut |s| {
        let Some(&i) = index_of.get(s) else {
            return f64::NEG_INFINITY;
        };
        queried.insert(i);
        if ex.archs[i].cost > cost_bound {
            return f64::NEG_INFINITY;
        }
        ex.speedup(i, target)
    });

    let exhaustive_best = (0..ex.archs.len())
        .filter(|&i| ex.archs[i].cost <= cost_bound)
        .map(|i| ex.speedup(i, target))
        .fold(f64::NEG_INFINITY, f64::max);
    let (best_speedup, best_spec) = match best {
        Some((v, s)) => (v, Some(s)),
        None => (f64::NEG_INFINITY, None),
    };
    SearchReport {
        strategy,
        evaluations: queried.len(),
        best: best_spec,
        best_speedup,
        quality: if exhaustive_best > 0.0 && best_speedup.is_finite() {
            best_speedup / exhaustive_best
        } else {
            0.0
        },
    }
}

/// The study: every strategy on every benchmark column, averaged over
/// seeds. Returns `(strategy, mean evaluations, mean quality)` rows.
#[must_use]
pub fn study(ex: &Exploration, cost_bound: f64, seeds: &[u64]) -> Vec<(Strategy, f64, f64)> {
    let strategies = [
        Strategy::Exhaustive,
        Strategy::RandomSample {
            n: (ex.archs.len() / 4).max(1),
        },
        Strategy::RandomSample {
            n: (ex.archs.len() / 16).max(1),
        },
        Strategy::HillClimb { restarts: 3 },
        Strategy::Anneal { steps: 60 },
    ];
    strategies
        .into_iter()
        .map(|st| {
            let mut evals = 0.0;
            let mut quality = 0.0;
            let mut n = 0.0;
            for t in 0..ex.benches.len() {
                for &seed in seeds {
                    let r = run(ex, t, cost_bound, st, seed);
                    evals += r.evaluations as f64;
                    quality += r.quality;
                    n += 1.0;
                }
            }
            (st, evals / n, quality / n)
        })
        .collect()
}

// ---------------------------------------------------------------------
// The guided engine.
// ---------------------------------------------------------------------

/// The successive-halving ladder, cheapest rung first: each rung
/// truncates the unroll sweep to the [`UNROLL_SWEEP`] prefix not
/// exceeding its value. The last, `u32::MAX`, is the full sweep,
/// bit-identical to the exhaustive evaluation path, and only its
/// results enter the archive.
const RUNGS: [u32; 3] = [4, 8, u32::MAX];

/// Index of the full-fidelity rung.
const FULL_RUNG: usize = RUNGS.len() - 1;

/// Fraction of a rung's entrants promoted to the next rung
/// (`ceil(n · PROMOTE)`, at least one).
const PROMOTE: f64 = 0.34;

/// What the guided engine searches, and how hard.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// The axes spanning the candidate space (membership, sampling, and
    /// neighborhood moves all derive from these — the space is never
    /// materialized).
    pub axes: SpaceAxes,
    /// The benchmark whose speedup is being maximized.
    pub bench: Benchmark,
    /// The cost bound: candidates over it are never compiled.
    pub cost_bound: f64,
    /// Seed for proposals; the whole search is deterministic in it.
    pub seed: u64,
    /// Search rounds (each proposes, screens, and refines).
    pub rounds: usize,
    /// Candidates entering each round's bracket.
    pub round_size: usize,
    /// Per-compilation fuel budget at every rung (`None` = unlimited).
    pub fuel: Option<u64>,
    /// Workers of the search: the calling thread and `threads − 1`
    /// helper threads started once for the whole search, which build
    /// its plans and evaluate every rung's pool. `0` or `1` starts no
    /// thread. The outcome is bit-identical for every value.
    pub threads: usize,
    /// Journal every evaluated `(candidate, rung)` outcome to disk and
    /// optionally resume — same crash-consistency discipline as the
    /// exhaustive sweep's [`Checkpoint`], bit-identical resume included.
    pub checkpoint: Option<Checkpoint>,
}

/// How many lattice steps outward the per-round frontier refinement
/// explores. The wave itself may pass through dominated or over-budget
/// intermediates, so depth 2 is what lets the search cross a one-spec
/// ridge (the common shape near a cost bound: the affordable optimum's
/// only cheap neighbors are worse, and its better neighbors are over
/// budget).
const REFINE_DEPTH: usize = 2;

impl SearchConfig {
    /// The default bracket over the given axes: 10 rounds of 32
    /// candidates, no fuel budget. At these defaults an extended-space
    /// search performs well under 100 full-fidelity evaluations — the
    /// exhaustive sweep performs 1200.
    #[must_use]
    pub fn new(axes: SpaceAxes, bench: Benchmark, cost_bound: f64) -> Self {
        SearchConfig {
            axes,
            bench,
            cost_bound,
            seed: 0,
            rounds: 10,
            round_size: 32,
            fuel: None,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            checkpoint: None,
        }
    }
}

/// The lazy evaluator: evaluates only the `(candidate, rung)` pairs a
/// search asks about, through the shared plan snapshot and compile
/// cache. It keeps no answers of its own: the search admits each
/// candidate to a pool once, so no pair is asked twice, and a resumed
/// search's answers come from its journal. Full-rung answers are
/// bit-identical to what the exhaustive sweep's evaluation path records
/// for the same `(architecture, benchmark)` unit.
pub struct LazyEvaluator<'a> {
    config: &'a SearchConfig,
    plans: PlanCache,
    memo: &'a CompileCache,
    cost: CostModel,
    cycle: CycleModel,
    baseline_cpo: f64,
}

impl std::fmt::Debug for LazyEvaluator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyEvaluator")
            .field("bench", &self.config.bench)
            .field("baseline_cpo", &self.baseline_cpo)
            .finish_non_exhaustive()
    }
}

impl<'a> LazyEvaluator<'a> {
    /// Build the evaluator: snapshot the plans the space's register sizes
    /// need (cheap — one benchmark, a handful of residency budgets) and
    /// evaluate the baseline at full fidelity.
    ///
    /// # Errors
    /// [`ExploreError::BaselineFailed`] when the baseline cannot be
    /// measured (every speedup divides by it).
    pub fn new(
        config: &'a SearchConfig,
        store: &PlanStore,
        memo: &'a CompileCache,
    ) -> Result<Self, ExploreError> {
        Workers::scope(1, |workers| Self::on(config, store, memo, workers))
    }

    /// [`Self::new`] with the plan snapshot made on the run's workers.
    fn on(
        config: &'a SearchConfig,
        store: &PlanStore,
        memo: &'a CompileCache,
        workers: &Workers<'_>,
    ) -> Result<Self, ExploreError> {
        let mut regs: Vec<u32> = config.axes.reg_values().to_vec();
        regs.push(ArchSpec::baseline().regs);
        // Fused plans exist only for extension sets the axes can reach;
        // the baseline's empty set is on every axis list already, so an
        // extensionless search snapshots exactly the historical plans.
        let plans = store.snapshot(
            &[config.bench],
            &regs,
            &UNROLL_SWEEP,
            config.axes.ext_values(),
            workers,
            &cfp_obs::NULL,
        );
        let full = Evaluator {
            fuel: config.fuel,
            ..Evaluator::new(&plans, memo)
        };
        let baseline = full
            .evaluate(
                &ArchSpec::baseline(),
                config.bench,
                &mut UnitTrace::disabled(),
            )
            .map_err(|e| ExploreError::BaselineFailed(e.into()))?;
        Ok(LazyEvaluator {
            config,
            plans,
            memo,
            cost: CostModel::paper_calibrated(),
            cycle: CycleModel::paper_calibrated(),
            baseline_cpo: baseline.cycles_per_output,
        })
    }

    /// Baseline cycles per output (the speedup denominator).
    #[must_use]
    pub fn baseline_cpo(&self) -> f64 {
        self.baseline_cpo
    }

    /// Baseline-relative datapath cost of a candidate — model-cheap, no
    /// compilation, so over-budget candidates are filtered for free.
    #[must_use]
    pub fn cost(&self, spec: &ArchSpec) -> f64 {
        self.cost.cost(spec)
    }

    /// The speedup an outcome implies for `spec` (derate included; NaN
    /// for a quarantined outcome).
    #[must_use]
    pub fn speedup(&self, spec: &ArchSpec, outcome: &EvalOutcome) -> f64 {
        self.baseline_cpo / (outcome.cycles_per_output() * self.cycle.derate(spec))
    }

    /// Evaluate `spec` at ladder rung `rung`. Panics and typed errors are
    /// quarantined into [`EvalOutcome::Failed`], never propagated.
    ///
    /// # Panics
    /// Panics if `rung` is off the ladder.
    #[must_use]
    pub fn outcome(&self, spec: &ArchSpec, rung: usize) -> EvalOutcome {
        let session = Evaluator {
            fuel: self.config.fuel,
            max_unroll: RUNGS[rung],
            ..Evaluator::new(&self.plans, self.memo)
        };
        // The same quarantine boundary as the exhaustive sweep: a
        // pathological candidate becomes a Failed outcome, not a lost
        // search.
        quarantine(|| {
            let off = &mut UnitTrace::disabled();
            session.evaluate(spec, self.config.bench, off)
        })
    }

    /// Content-distinct kernels behind the plan snapshot.
    #[must_use]
    pub fn unique_plans(&self) -> usize {
        self.plans.unique_kernels()
    }
}

/// Successive-halving promotion: indices of the top `ceil(n · fraction)`
/// scores, ranked descending, with non-finite scores (NaN included)
/// losing to every finite one and exact ties broken by ascending index.
/// Returned indices are in rank order; a nonempty input always promotes
/// at least one.
#[must_use]
pub fn promote(scores: &[f64], fraction: f64) -> Vec<usize> {
    if scores.is_empty() {
        return Vec::new();
    }
    let keep = ((scores.len() as f64) * fraction.clamp(0.0, 1.0)).ceil() as usize;
    let keep = keep.clamp(1, scores.len());
    let rank = |i: usize| {
        let s = scores[i];
        if s.is_nan() {
            f64::NEG_INFINITY
        } else {
            s
        }
    };
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| rank(b).total_cmp(&rank(a)).then(a.cmp(&b)));
    order.truncate(keep);
    order
}

/// The frontier's speedup at a given cost: the best speedup among
/// frontier points no more expensive (0 when none are). `frontier` is
/// ascending in both cost and speedup.
fn frontier_height(frontier: &[(f64, f64)], cost: f64) -> f64 {
    let mut h = 0.0;
    for &(c, su) in frontier {
        if c <= cost {
            h = su;
        } else {
            break;
        }
    }
    h
}

/// Per-round bracket bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundStats {
    /// Round index.
    pub round: usize,
    /// Candidates entering the bracket.
    pub entrants: usize,
    /// Pool size at each rung (entrants first, final-rung survivors
    /// last).
    pub rung_survivors: Vec<usize>,
    /// Fresh truncated-sweep screens this round (non-final rungs).
    pub screens: u64,
    /// Fresh full-fidelity evaluations this round (final rung).
    pub full_evals: u64,
    /// Queries replayed from the search journal this round instead of
    /// evaluated.
    pub dedup_hits: u64,
    /// Frontier size after the round.
    pub frontier_size: usize,
    /// Best constrained speedup after the round (NaN before the archive
    /// has any member).
    pub best_speedup: f64,
}

/// What a guided search found.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The benchmark searched for.
    pub bench: Benchmark,
    /// The cost bound.
    pub cost_bound: f64,
    /// Every candidate evaluated at full fidelity, sorted by cost (spec
    /// order on ties) — the engine's scatter.
    pub evaluated: Vec<ScatterPoint>,
    /// Indices into `evaluated` forming the discovered Pareto frontier.
    pub frontier: Vec<usize>,
    /// The frontier's best point (highest speedup within the bound).
    pub best: Option<ScatterPoint>,
    /// Hypervolume the frontier dominates against the `(cost_bound, 0)`
    /// corner (see [`pareto::hypervolume`]).
    pub hypervolume: f64,
    /// Per-round bracket bookkeeping.
    pub rounds: Vec<RoundStats>,
    /// Run accounting: `screen_evals`/`full_evals`/`dedup_hits` carry
    /// the search economics, the rest mirror the exhaustive sweep's
    /// counters.
    pub stats: RunStats,
}

/// Run the guided search with its own caches and no recorder.
///
/// # Errors
/// As [`try_search_shared`].
pub fn try_search(config: &SearchConfig) -> Result<SearchOutcome, ExploreError> {
    try_search_shared(
        config,
        &PlanStore::new(),
        &CompileCache::new(),
        &cfp_obs::NULL,
    )
}

/// Run the guided search against caches that outlive the run — the
/// exploration service's entry point, mirroring
/// [`Exploration::try_run_shared`]. Warm caches change who computes,
/// never what is computed: [`Evaluator::evaluate`]'s fuel discipline
/// keeps every verdict interleaving-independent, so the returned
/// frontier is identical on any thread count and cache warmth.
///
/// One [`Stage::Search`] span per round streams into `rec` (round
/// index, bracket ladder, screens, full evaluations, dedup hits,
/// frontier size, best speedup).
///
/// # Errors
/// [`ExploreError::EmptyConfig`] when the config has no rounds or no
/// round size; [`ExploreError::BaselineFailed`] when the
/// baseline cannot be measured; [`ExploreError::Checkpoint`] when the
/// search journal cannot be used; [`ExploreError::WorkerLost`] if a
/// worker dies outside the quarantine boundary.
pub fn try_search_shared(
    config: &SearchConfig,
    store: &PlanStore,
    memo: &CompileCache,
    rec: &dyn Recorder,
) -> Result<SearchOutcome, ExploreError> {
    if config.rounds == 0 || config.round_size == 0 {
        return Err(ExploreError::EmptyConfig);
    }
    Workers::scope(config.threads, |workers| {
        search(config, store, memo, rec, workers)
    })
}

/// The guided search on the run's worker set: the plan snapshot, then
/// each rung's pool as one batch.
fn search<'env>(
    config: &'env SearchConfig,
    store: &PlanStore,
    memo: &'env CompileCache,
    rec: &dyn Recorder,
    workers: &Workers<'env>,
) -> Result<SearchOutcome, ExploreError> {
    let start = Instant::now();
    let hits0 = memo.core_hits();
    let cores0 = memo.unique_cores() as u64;
    let lazy = Arc::new(LazyEvaluator::on(config, store, memo, workers)?);
    let plan_wall = start.elapsed();

    // Attach the search journal, which replays what it holds: the
    // engine's control flow is deterministic in the seed, so replayed
    // answers land on exactly the queries a fresh run would have made,
    // and the resumed frontier is bit-identical.
    let journalled = Arc::new(match &config.checkpoint {
        Some(ck) => search_journal(ck, search_fingerprint(config))?,
        None => Journalled::off(),
    });
    let resumed = journalled.resumed();

    let eval_start = Instant::now();
    let mut rng = Rng::new(config.seed ^ 0x5eac);
    let mut seen: WordSet<ArchSpec> = WordSet::default();
    // Full-fidelity results, keyed by spec for deterministic iteration.
    let mut archive: BTreeMap<ArchSpec, (f64, f64)> = BTreeMap::new();
    let mut rounds: Vec<RoundStats> = Vec::new();
    let (mut screens_total, mut full_total, mut replays_total) = (0_u64, 0_u64, 0_u64);
    let (mut compilations, mut failed, mut fuel_exhausted) = (0_u64, 0_u64, 0_u64);
    let mut points: Vec<ScatterPoint> = Vec::new();
    let mut frontier_idx: Vec<usize> = Vec::new();
    let mut frontier_pts: Vec<(f64, f64)> = Vec::new();
    let mut frontier_specs: Vec<ArchSpec> = Vec::new();

    for round in 0..config.rounds {
        let mut trace = UnitTrace::new(rec, cfp_obs::unit::search(round));
        let t0 = trace.start();

        // Propose: refine the current frontier's neighborhoods first
        // (cheapest frontier member outward, breadth-first two steps
        // deep), then fill with fresh uniform samples. Only admissible
        // candidates enter the pool, and never twice — but the *wave*
        // expands through every lattice neighbor, including dominated
        // and over-budget ones: the ridge to an optimum that sits
        // against the cost bound routinely passes through intermediates
        // the pool itself would reject (e.g. a wider machine is only
        // affordable after a cluster step that temporarily loses
        // speedup). The cost model screens over-budget candidates
        // before any compilation.
        let mut pool: Vec<ArchSpec> = Vec::new();
        let mut wave: Vec<ArchSpec> = frontier_specs.clone();
        'refine: for _depth in 0..REFINE_DEPTH {
            let mut next: Vec<ArchSpec> = Vec::new();
            let mut in_next: WordSet<ArchSpec> = WordSet::default();
            for s in &wave {
                for n in config.axes.neighbors(s) {
                    if pool.len() >= config.round_size {
                        break 'refine;
                    }
                    if !config.axes.contains(&n) {
                        continue;
                    }
                    if in_next.insert(n) {
                        next.push(n);
                    }
                    if seen.contains(&n) || lazy.cost(&n) > config.cost_bound {
                        continue;
                    }
                    seen.insert(n);
                    pool.push(n);
                }
            }
            wave = next;
        }
        let mut attempts = 0_usize;
        while pool.len() < config.round_size && attempts < config.round_size.saturating_mul(64) {
            attempts += 1;
            let s = config.axes.sample_with(&mut |n| below(&mut rng, n));
            if seen.contains(&s) || lazy.cost(&s) > config.cost_bound {
                continue;
            }
            seen.insert(s);
            pool.push(s);
        }
        if pool.is_empty() {
            break; // the admissible space is exhausted
        }

        let entrants = pool.len();
        let mut rung_survivors: Vec<usize> = Vec::new();
        let (mut screens, mut fulls, mut dedup_hits) = (0_u64, 0_u64, 0_u64);

        for ri in 0..RUNGS.len() {
            rung_survivors.push(pool.len());
            let specs = Arc::new(pool.clone());
            let results = journalled.run_journalled(
                workers,
                pool.len(),
                {
                    let specs = Arc::clone(&specs);
                    move |i| SearchKey {
                        candidate: spec_fingerprint(&specs[i]),
                        rung: ri,
                    }
                },
                {
                    let lazy = Arc::clone(&lazy);
                    move |i| lazy.outcome(&specs[i], ri)
                },
            )?;
            for (out, fresh) in &results {
                if !fresh {
                    dedup_hits += 1;
                    continue;
                }
                if ri == FULL_RUNG {
                    fulls += 1;
                } else {
                    screens += 1;
                }
                compilations += u64::from(out.compilations());
                if let Some(reason) = out.failure() {
                    failed += 1;
                    if reason.kind == FailKind::FuelExhausted {
                        fuel_exhausted += 1;
                    }
                }
            }
            if ri == FULL_RUNG {
                for (s, (out, _)) in pool.iter().zip(&results) {
                    if out.is_done() {
                        let su = lazy.speedup(s, out);
                        if su.is_finite() {
                            archive.insert(*s, (lazy.cost(s), su));
                        }
                    }
                }
            } else {
                // Score by frontier contribution — how far above the
                // current frontier's staircase this candidate's screened
                // speedup rises at its cost — and promote the top slice.
                let scores: Vec<f64> = pool
                    .iter()
                    .zip(&results)
                    .map(|(s, (out, _))| {
                        let su = lazy.speedup(s, out);
                        if su.is_finite() {
                            su - frontier_height(&frontier_pts, lazy.cost(s))
                        } else {
                            f64::NEG_INFINITY
                        }
                    })
                    .collect();
                let kept: Vec<ArchSpec> = promote(&scores, PROMOTE)
                    .into_iter()
                    .filter(|&i| scores[i].is_finite())
                    .map(|i| pool[i])
                    .collect();
                pool = kept;
                if pool.is_empty() {
                    break; // every entrant failed its screen
                }
            }
        }

        // Rebuild the frontier from the archive (scatter order: cost
        // ascending, spec order on ties — same as `pareto::scatter`).
        points = archive
            .iter()
            .map(|(s, &(cost, speedup))| ScatterPoint {
                spec: *s,
                cost,
                speedup,
            })
            .collect();
        points.sort_by(|a, b| a.cost.total_cmp(&b.cost).then(a.spec.cmp(&b.spec)));
        frontier_idx = pareto::frontier(&points);
        frontier_pts = frontier_idx
            .iter()
            .map(|&i| (points[i].cost, points[i].speedup))
            .collect();
        frontier_specs = frontier_idx.iter().map(|&i| points[i].spec).collect();
        let best_speedup = frontier_pts.last().map_or(f64::NAN, |p| p.1);
        screens_total += screens;
        full_total += fulls;
        replays_total += dedup_hits;

        if trace.on() {
            let ladder: Vec<String> = rung_survivors.iter().map(ToString::to_string).collect();
            let ladder = ladder.join("/");
            trace.stage(
                Stage::Search,
                t0,
                &[
                    ("round", Value::U64(round as u64)),
                    ("entrants", Value::U64(entrants as u64)),
                    ("rungs", Value::Str(&ladder)),
                    ("screens", Value::U64(screens)),
                    ("full", Value::U64(fulls)),
                    ("dedup", Value::U64(dedup_hits)),
                    ("frontier", Value::U64(frontier_idx.len() as u64)),
                    ("best_su", Value::F64(best_speedup)),
                ],
            );
        }
        rounds.push(RoundStats {
            round,
            entrants,
            rung_survivors,
            screens,
            full_evals: fulls,
            dedup_hits,
            frontier_size: frontier_idx.len(),
            best_speedup,
        });
    }
    let eval_wall = eval_start.elapsed();

    let cache_hits = memo.core_hits().saturating_sub(hits0);
    let best = frontier_idx.last().map(|&i| points[i]);
    let hypervolume = pareto::hypervolume(&points, &frontier_idx, config.cost_bound);
    Ok(SearchOutcome {
        bench: config.bench,
        cost_bound: config.cost_bound,
        frontier: frontier_idx,
        best,
        hypervolume,
        rounds,
        stats: RunStats {
            compilations,
            cache_hits,
            unique_schedules: (memo.unique_cores() as u64).saturating_sub(cores0),
            unique_plans: lazy.unique_plans(),
            architectures: archive.len(),
            failed_units: failed,
            fuel_exhausted,
            resumed_units: resumed,
            screen_evals: screens_total,
            full_evals: full_total,
            // Journal replays plus signature-sibling compile-cache hits;
            // the cache component is approximate under concurrent jobs,
            // exactly like `cache_hits`.
            dedup_hits: replays_total + cache_hits,
            plan_wall,
            eval_wall,
            wall: start.elapsed(),
        },
        evaluated: points,
    })
}

/// FNV-1a over everything that determines a search's queries and
/// answers: the axes, the objective, the seed, and the bracket shape.
/// Same constants and separator discipline as the checkpoint
/// fingerprint, different magic so the two journal kinds never collide.
#[must_use]
pub fn search_fingerprint(config: &SearchConfig) -> u64 {
    let mut h = Fnv1a::new();
    let mut eat = |bytes: &[u8]| {
        h.write(bytes);
        h.write(&[0xff]);
    };
    eat(SEARCH_MAGIC.as_bytes());
    eat(checkpoint::VERSION.as_bytes());
    eat(format!("{:?}", config.axes).as_bytes());
    eat(config.bench.letter().as_bytes());
    eat(format!("bound:{:016x}", config.cost_bound.to_bits()).as_bytes());
    eat(format!("seed:{}", config.seed).as_bytes());
    eat(format!("bracket:{}:{}", config.rounds, config.round_size).as_bytes());
    eat(format!("promote:{:016x}", PROMOTE.to_bits()).as_bytes());
    for max_unroll in RUNGS {
        match config.fuel {
            None => eat(format!("rung:{max_unroll}:none").as_bytes()),
            Some(f) => eat(format!("rung:{max_unroll}:{f}").as_bytes()),
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::ExploreConfig;
    use cfp_kernels::Benchmark;

    fn ex() -> Exploration {
        let mut cfg = ExploreConfig::smoke();
        cfg.benches = vec![Benchmark::D, Benchmark::H];
        Exploration::run(&cfg)
    }

    #[test]
    fn exhaustive_finds_the_optimum_by_definition() {
        let ex = ex();
        let r = run(&ex, 0, 10.0, Strategy::Exhaustive, 1);
        assert!((r.quality - 1.0).abs() < 1e-12, "{r:?}");
        assert_eq!(r.evaluations, ex.archs.len());
    }

    #[test]
    fn sampling_evaluates_fewer_and_never_exceeds_exhaustive() {
        let ex = ex();
        for seed in [1_u64, 2, 3] {
            let r = run(&ex, 0, 10.0, Strategy::RandomSample { n: 3 }, seed);
            assert!(r.evaluations <= 3);
            assert!(r.quality <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn searches_are_deterministic_in_the_seed() {
        let ex = ex();
        let a = run(&ex, 1, 10.0, Strategy::Anneal { steps: 30 }, 42);
        let b = run(&ex, 1, 10.0, Strategy::Anneal { steps: 30 }, 42);
        assert_eq!(a.best, b.best);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn neighbors_step_one_parameter_and_stay_valid() {
        let s = ArchSpec::new(8, 4, 256, 2, 4, 2).unwrap();
        let ns = SpaceAxes::extended().neighbors(&s);
        assert!(!ns.is_empty());
        for n in &ns {
            assert!(n.validate().is_ok());
            let diffs = usize::from(n.alus != s.alus)
                + usize::from(n.regs != s.regs)
                + usize::from(n.l2_ports != s.l2_ports)
                + usize::from(n.l2_latency != s.l2_latency)
                + usize::from(n.clusters != s.clusters);
            // muls may co-move with alus to stay legal.
            assert!(diffs <= 1 || (diffs == 1 && n.muls != s.muls), "{n}");
        }
        // Extremes have fewer neighbors but still some.
        assert!(!SpaceAxes::extended()
            .neighbors(&ArchSpec::baseline())
            .is_empty());
    }

    #[test]
    fn study_reports_every_strategy() {
        let ex = ex();
        let rows = study(&ex, 10.0, &[1, 2]);
        assert_eq!(rows.len(), 5);
        // Exhaustive always has quality 1.
        assert!((rows[0].2 - 1.0).abs() < 1e-12);
        for (_, evals, quality) in &rows {
            assert!(*evals >= 1.0);
            assert!(*quality >= 0.0 && *quality <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn promotion_keeps_the_top_fraction_with_index_ties() {
        let scores = [1.0, 5.0, f64::NAN, 5.0, 2.0, f64::NEG_INFINITY];
        // ceil(6 * 0.34) = 3: both 5.0s (index order) then 2.0.
        assert_eq!(promote(&scores, 0.34), vec![1, 3, 4]);
        // At least one survives any positive fraction.
        assert_eq!(promote(&scores, 0.0), vec![1]);
        assert_eq!(promote(&[], 0.5), Vec::<usize>::new());
        // All non-finite: still promotes (engine filters afterwards).
        assert_eq!(promote(&[f64::NAN, f64::NAN], 0.5).len(), 1);
    }

    #[test]
    fn frontier_height_reads_the_staircase() {
        let f = [(1.0, 2.0), (3.0, 4.0)];
        assert_eq!(frontier_height(&f, 0.5), 0.0);
        assert_eq!(frontier_height(&f, 1.0), 2.0);
        assert_eq!(frontier_height(&f, 2.9), 2.0);
        assert_eq!(frontier_height(&f, 30.0), 4.0);
        assert_eq!(frontier_height(&[], 5.0), 0.0);
    }

    fn small_config() -> SearchConfig {
        let mut cfg = SearchConfig::new(SpaceAxes::paper(), Benchmark::D, 10.0);
        cfg.rounds = 3;
        cfg.round_size = 8;
        cfg.threads = 2;
        cfg.seed = 7;
        cfg
    }

    #[test]
    fn guided_search_finds_a_monotone_frontier_cheaply() {
        let out = try_search(&small_config()).expect("search runs");
        assert!(!out.evaluated.is_empty());
        assert!(!out.frontier.is_empty());
        // The frontier is a staircase within the bound.
        let mut last_su = f64::NEG_INFINITY;
        for &i in &out.frontier {
            let p = &out.evaluated[i];
            assert!(p.cost <= 10.0 + 1e-9, "{p:?}");
            assert!(p.speedup > last_su);
            last_su = p.speedup;
        }
        assert_eq!(out.best.map(|p| p.speedup), Some(last_su));
        assert!(out.hypervolume > 0.0);
        // The economics: far fewer full evaluations than the space has
        // arrangements, with screens carrying the exploration.
        let space = SpaceAxes::paper().arrangements().len() as u64;
        assert!(out.stats.full_evals < space / 4, "{:?}", out.stats);
        assert!(out.stats.screen_evals >= out.stats.full_evals);
        assert_eq!(out.rounds.len(), 3);
        for r in &out.rounds {
            assert_eq!(r.rung_survivors.first(), Some(&r.entrants));
            assert!(r.frontier_size >= 1);
        }
    }

    #[test]
    fn guided_search_is_deterministic_across_thread_counts() {
        let mut one = small_config();
        one.threads = 1;
        let mut four = small_config();
        four.threads = 4;
        let a = try_search(&one).expect("search runs");
        let b = try_search(&four).expect("search runs");
        assert_eq!(a.evaluated, b.evaluated);
        assert_eq!(a.frontier, b.frontier);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.hypervolume.to_bits(), b.hypervolume.to_bits());
    }

    #[test]
    fn unique_plans_counts_the_searchs_own_plans_on_a_shared_store() {
        // Search B after search A on one store reports what B reports
        // alone, not every kernel the store has interned by then.
        let a = small_config();
        let mut b = small_config();
        b.bench = Benchmark::G;
        let (store, memo) = (PlanStore::new(), CompileCache::new());
        let shared =
            |cfg| try_search_shared(cfg, &store, &memo, &cfp_obs::NULL).expect("search runs");
        let first = shared(&a);
        let second = shared(&b);
        let alone = try_search(&b).expect("search runs");
        assert_eq!(second.stats.unique_plans, alone.stats.unique_plans);
        assert_eq!(
            store.unique_kernels(),
            first.stats.unique_plans + second.stats.unique_plans,
            "D and G share no kernel, so the store holds both searches'"
        );
    }

    #[test]
    fn a_panic_outside_the_quarantine_is_a_lost_worker() {
        // `outcome` documents its one panic outside the quarantine — a
        // rung off the ladder — which is how a test gets a unit to die.
        let cfg = small_config();
        let (store, memo) = (PlanStore::new(), CompileCache::new());
        let lazy = LazyEvaluator::new(&cfg, &store, &memo).expect("baseline evaluates");
        let pool = [
            ArchSpec::baseline(),
            ArchSpec::new(8, 4, 256, 2, 4, 2).unwrap(),
        ];
        let off_the_ladder = RUNGS.len();
        let err = Workers::scope(2, |workers| {
            let unit = |i: usize| lazy.outcome(&pool[i], off_the_ladder);
            Arc::new(Journalled::off()).run_journalled(workers, pool.len(), |i| i, unit)
        })
        .expect_err("both workers die");
        assert!(matches!(err, ExploreError::WorkerLost), "{err}");
    }

    #[test]
    fn a_search_whose_baseline_fails_ends_its_worker_set() {
        let mut cfg = small_config();
        cfg.fuel = Some(1); // not even one scheduler scan
        let before = crate::units::helpers_started();
        let err = try_search(&cfg).expect_err("baseline starves");
        assert!(matches!(err, ExploreError::BaselineFailed(_)), "{err}");
        // Returning at all means the helper was joined.
        assert_eq!(crate::units::helpers_started() - before, 1);
    }

    #[test]
    fn a_search_keeps_its_workers_for_every_rung() {
        // Ten rounds of three rungs used to start two threads per rung.
        let mut cfg = small_config();
        cfg.rounds = 10;
        let before = crate::units::helpers_started();
        let out = try_search(&cfg).expect("search runs");
        assert_eq!(out.rounds.len(), 10);
        assert_eq!(crate::units::helpers_started() - before, 1);
        let mut one = cfg.clone();
        one.threads = 1;
        let before = crate::units::helpers_started();
        let serial = try_search(&one).expect("search runs");
        assert_eq!(
            crate::units::helpers_started(),
            before,
            "one thread starts none"
        );
        assert_eq!(serial.evaluated, out.evaluated);
    }

    #[test]
    fn fingerprints_separate_configs() {
        let a = small_config();
        let mut b = small_config();
        b.seed ^= 1;
        assert_ne!(search_fingerprint(&a), search_fingerprint(&b));
        let mut c = small_config();
        c.fuel = Some(5000);
        assert_ne!(search_fingerprint(&a), search_fingerprint(&c));
        assert_eq!(search_fingerprint(&a), search_fingerprint(&small_config()));
    }
}
