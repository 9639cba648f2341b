//! The heuristic-vs-optimal gap study — sampling design points and
//! putting the modulo scheduler on trial against the exact-II oracle.
//!
//! The custom-fit speedups (Tables 8–10) and the guided-search quality
//! claims all rest on the evaluator, whose loop quality is bounded by a
//! *heuristic* scheduler. This module measures that trust directly:
//! sample `(benchmark × architecture × unroll)` points from the paper
//! and extended spaces, schedule each with the production heuristic,
//! then certify the true minimum II with
//! [`PipelineProblem::certify`] under a deterministic fuel ladder — one
//! [`PipelineProblem`] per point, shared by the heuristic, the validator
//! and every rung, over the sweep's own plans, built once per study. The
//! result is a [`OracleReport`]: how often the heuristic is provably
//! optimal, the mean/max II ratio when it is not, a per-benchmark
//! breakdown, and a digest over every verdict so the whole study pins
//! as one regression-guarded number (`results/oracle_gap.json`,
//! enforced by `tests/pinned.rs::oracle_gap`).
//!
//! Everything is deterministic in the seed: sampling uses the same
//! SplitMix64 remainder draws as the guided search (and
//! [`SpaceAxes::sample_with`]'s pinned draw order), and each point's
//! certification burns its own step-count [`Fuel`], so verdicts —
//! including [`PointVerdict::FuelExhausted`] — are bit-identical across
//! platforms, thread counts, and re-runs. The points are units on the
//! same runner as the sweep's and the search's (`units.rs`), on one
//! worker set for the whole study.

use crate::checkpoint::spec_fingerprint;
use crate::eval::{residency_budget, PlanCache, PlanStore};
use crate::memo::CompileCache;
use crate::search::below;
use crate::units::Workers;
use cfp_kernels::Benchmark;
use cfp_machine::{ArchSpec, ExtSet, Fnv1a, MachineResources, SpaceAxes};
use cfp_obs::UnitTrace;
use cfp_sched::{prepare, try_compile_core, CertifyOutcome, Fuel, PipelineProblem};
use cfp_testkit::Rng;

/// The default fuel ladder: three rungs, a decade apart. Each undecided
/// point restarts from scratch on the next rung (restarting is how the
/// budget stays a pure function of the point, not of scheduling order).
/// The top rung is sized so the hardest sampled points decide — or are
/// reported [`PointVerdict::FuelExhausted`] — within seconds of wall
/// clock; exhaustion is a verdict the report carries, not a failure.
pub const DEFAULT_FUEL_LADDER: [u64; 3] = [50_000, 500_000, 2_000_000];

/// Configuration of one oracle study.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Points sampled from [`SpaceAxes::paper`].
    pub paper_points: usize,
    /// Points sampled from [`SpaceAxes::extended`] (pipelined-L2 axis
    /// open — where the heuristic's latency clamp provably costs II).
    pub extended_points: usize,
    /// Seed of the sampling stream.
    pub seed: u64,
    /// Benchmarks the sampler draws from.
    pub benches: Vec<Benchmark>,
    /// Unroll factors the sampler draws from.
    pub unrolls: Vec<u32>,
    /// Step budgets tried per point, in order, restarting each time.
    pub fuel_ladder: Vec<u64>,
    /// Workers of the study: the calling thread and `threads − 1` helper
    /// threads started once, which build the plans and then measure the
    /// points. `0` or `1` starts no thread. The report is bit-identical
    /// for every value.
    pub threads: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            paper_points: 96,
            extended_points: 96,
            seed: 0x0bac_1e00_0bac_1e00,
            benches: Benchmark::INDIVIDUAL.to_vec(),
            unrolls: vec![1, 2],
            fuel_ladder: DEFAULT_FUEL_LADDER.to_vec(),
            threads: 1,
        }
    }
}

/// The oracle's verdict on one sampled point (a plain mirror of
/// [`CertifyOutcome`] without the certificate payload, which is
/// validated eagerly and recorded as [`OraclePoint::certificate_valid`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointVerdict {
    /// The exact solver beat the heuristic: `min_ii` is certified and
    /// strictly below the heuristic's achieved II.
    Certified {
        /// The certified minimum initiation interval.
        min_ii: u32,
        /// Candidate IIs proven infeasible below it.
        proved_infeasible: u32,
    },
    /// Every II below the heuristic's is proven infeasible — the
    /// heuristic is optimal at this point, and the oracle proved it.
    WitnessOptimal {
        /// The certified minimum II (the heuristic's own).
        min_ii: u32,
        /// Candidate IIs proven infeasible below it.
        proved_infeasible: u32,
    },
    /// Undecided at the top of the fuel ladder.
    FuelExhausted {
        /// The candidate II whose decision ran out of steps.
        at_ii: u32,
    },
    /// No feasible II exists at all (zero-ω dependence cycle).
    Unschedulable,
}

/// One sampled `(benchmark × architecture × unroll)` trial.
#[derive(Debug, Clone)]
pub struct OraclePoint {
    /// The benchmark whose kernel was scheduled.
    pub bench: Benchmark,
    /// The sampled architecture.
    pub spec: ArchSpec,
    /// The sampled unroll factor.
    pub unroll: u32,
    /// List-schedule length of the loop body (the II = len bound the
    /// paper's barrier discipline implies).
    pub list_len: u32,
    /// The heuristic modulo scheduler's achieved II (`None` when it
    /// found no II at all and the oracle ran uncapped).
    pub heuristic_ii: Option<u32>,
    /// The oracle's verdict.
    pub verdict: PointVerdict,
    /// Which fuel-ladder rung decided the point (ladder length − 1 for
    /// [`PointVerdict::FuelExhausted`]).
    pub rung: u32,
    /// Whether every schedule seen here — the heuristic's and, when the
    /// oracle improved on it, the exact certificate — replayed through
    /// [`PipelineProblem::validate`]. Anything but `true` is a validator
    /// hole.
    pub certificate_valid: bool,
}

impl OraclePoint {
    /// The certified minimum II, when the point was decided.
    #[must_use]
    pub fn certified_ii(&self) -> Option<u32> {
        match self.verdict {
            PointVerdict::Certified { min_ii, .. }
            | PointVerdict::WitnessOptimal { min_ii, .. } => Some(min_ii),
            PointVerdict::FuelExhausted { .. } | PointVerdict::Unschedulable => None,
        }
    }

    /// Heuristic-over-optimal II ratio (`1.0` = heuristic optimal).
    #[must_use]
    pub fn ii_ratio(&self) -> Option<f64> {
        let h = self.heuristic_ii?;
        let c = self.certified_ii()?;
        if c == 0 {
            return None;
        }
        Some(f64::from(h) / f64::from(c))
    }
}

/// One benchmark's row of the gap table.
#[derive(Debug, Clone)]
pub struct BenchGap {
    /// The benchmark.
    pub bench: Benchmark,
    /// Sampled points featuring it.
    pub points: usize,
    /// Points certified (either outcome).
    pub certified: usize,
    /// Certified points where the heuristic was provably optimal.
    pub optimal: usize,
    /// Mean heuristic/optimal II ratio over certified points.
    pub mean_ratio: f64,
    /// Worst heuristic/optimal II ratio over certified points.
    pub max_ratio: f64,
}

/// The gap aggregates over some points: the report's totals, or one
/// [`BenchGap`] row.
struct Gap {
    points: usize,
    certified: usize,
    /// Certified points where the oracle strictly beat the heuristic.
    improved: usize,
    /// Mean heuristic/optimal II ratio over certified points (1 with
    /// none), summed in point order.
    mean_ratio: f64,
    /// Worst such ratio (at least 1).
    max_ratio: f64,
}

impl Gap {
    fn over<'p>(points: impl IntoIterator<Item = &'p OraclePoint>) -> Self {
        let (mut n, mut certified, mut improved) = (0, 0, 0);
        let (mut ratios, mut sum, mut max_ratio) = (0_usize, 0.0, 1.0_f64);
        for p in points {
            n += 1;
            certified += usize::from(p.certified_ii().is_some());
            improved += usize::from(matches!(p.verdict, PointVerdict::Certified { .. }));
            if let Some(r) = p.ii_ratio() {
                ratios += 1;
                sum += r;
                max_ratio = max_ratio.max(r);
            }
        }
        Gap {
            points: n,
            certified,
            improved,
            mean_ratio: if ratios == 0 {
                1.0
            } else {
                sum / ratios as f64
            },
            max_ratio,
        }
    }
}

/// The finished study: every point's verdict plus the aggregates the
/// exhibits and the pinned budget file are built from.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// The configuration that produced the report.
    pub config: OracleConfig,
    /// Every sampled point, in sampling order (paper space first) — all
    /// of them but those whose unrolled body is past the sweep's body
    /// cap ([`crate::eval::MAX_BODY_OPS`]), which have no plan.
    pub points: Vec<OraclePoint>,
}

impl OracleReport {
    /// Run the study described by `config`.
    ///
    /// Sampling is a single-threaded, order-pinned pass (so the trial
    /// list is a pure function of the seed); the plan walk and then the
    /// measurement fan out over one set of `config.threads` workers on
    /// the crate's unit runner, each trial burning its own fuel — the
    /// report is bit-identical for every thread count.
    ///
    /// # Panics
    /// A panic inside a trial is re-raised here with its own payload,
    /// whichever thread it struck on.
    #[must_use]
    pub fn run(config: &OracleConfig) -> OracleReport {
        let mut rng = Rng::new(config.seed);
        let mut trials: Vec<(Benchmark, ArchSpec, u32)> = Vec::new();
        for (axes, count) in [
            (SpaceAxes::paper(), config.paper_points),
            (SpaceAxes::extended(), config.extended_points),
        ] {
            for _ in 0..count {
                let spec = axes.sample_with(&mut |n| below(&mut rng, n));
                let bench = config.benches[below(&mut rng, config.benches.len().max(1))];
                let unroll = config.unrolls[below(&mut rng, config.unrolls.len().max(1))];
                trials.push((bench, spec, unroll));
            }
        }

        // Each kernel is optimized once per study, not once per point.
        let mut regs: Vec<u32> = trials.iter().map(|(_, spec, _)| spec.regs).collect();
        regs.sort_unstable();
        regs.dedup();
        let ladder = if config.fuel_ladder.is_empty() {
            DEFAULT_FUEL_LADDER.to_vec()
        } else {
            config.fuel_ladder.clone()
        };
        // The points of one plan share its lowering and graph per L2 latency.
        let memo = CompileCache::new();
        let points = Workers::scope(config.threads, |workers| {
            let plans = PlanStore::new().snapshot(
                &config.benches,
                &regs,
                &config.unrolls,
                &[ExtSet::EMPTY],
                workers,
                &cfp_obs::NULL,
            );
            workers.run(trials.len(), move |i| {
                let (bench, spec, unroll) = &trials[i];
                measure(*bench, spec, *unroll, &ladder, &plans, &memo)
            })
        })
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload));

        OracleReport {
            config: config.clone(),
            points: points.into_iter().flatten().collect(),
        }
    }

    /// Points with a certified minimum II (either outcome).
    #[must_use]
    pub fn certified(&self) -> usize {
        Gap::over(&self.points).certified
    }

    /// Certified points where the oracle strictly beat the heuristic.
    #[must_use]
    pub fn improved(&self) -> usize {
        Gap::over(&self.points).improved
    }

    /// Points the fuel ladder could not decide.
    #[must_use]
    pub fn exhausted(&self) -> usize {
        self.points
            .iter()
            .filter(|p| matches!(p.verdict, PointVerdict::FuelExhausted { .. }))
            .count()
    }

    /// Fraction of certified points where the heuristic is optimal.
    #[must_use]
    pub fn heuristic_optimal_fraction(&self) -> f64 {
        let gap = Gap::over(&self.points);
        if gap.certified == 0 {
            return 1.0;
        }
        (gap.certified - gap.improved) as f64 / gap.certified as f64
    }

    /// Mean heuristic/optimal II ratio over certified points.
    #[must_use]
    pub fn mean_ratio(&self) -> f64 {
        Gap::over(&self.points).mean_ratio
    }

    /// Worst heuristic/optimal II ratio over certified points.
    #[must_use]
    pub fn max_ratio(&self) -> f64 {
        Gap::over(&self.points).max_ratio
    }

    /// Whether every certificate (and every heuristic schedule) passed
    /// the shared validator.
    #[must_use]
    pub fn all_valid(&self) -> bool {
        self.points.iter().all(|p| p.certificate_valid)
    }

    /// Whether the heuristic ever achieved an II *below* a certified
    /// minimum — impossible unless the validator has a hole.
    #[must_use]
    pub fn heuristic_beat_oracle(&self) -> bool {
        self.points.iter().any(|p| {
            matches!(
                (p.heuristic_ii, p.certified_ii()),
                (Some(h), Some(c)) if h < c
            )
        })
    }

    /// The per-benchmark gap table, in [`OracleConfig::benches`] order.
    #[must_use]
    pub fn per_benchmark(&self) -> Vec<BenchGap> {
        self.config
            .benches
            .iter()
            .map(|&bench| {
                let gap = Gap::over(self.points.iter().filter(|p| p.bench == bench));
                BenchGap {
                    bench,
                    points: gap.points,
                    certified: gap.certified,
                    optimal: gap.certified - gap.improved,
                    mean_ratio: gap.mean_ratio,
                    max_ratio: gap.max_ratio,
                }
            })
            .collect()
    }

    /// FNV-1a over every verdict (integers only — no float formatting
    /// in the pinned surface): the study's single regression digest.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        let mut eat = |x: u64| h.write(&x.to_le_bytes());
        for p in &self.points {
            eat(spec_fingerprint(&p.spec));
            eat(u64::from(p.bench.letter().as_bytes()[0]));
            eat(u64::from(p.unroll));
            eat(u64::from(p.list_len));
            eat(p.heuristic_ii.map_or(u64::MAX, u64::from));
            let (tag, a, b) = match p.verdict {
                PointVerdict::Certified {
                    min_ii,
                    proved_infeasible,
                } => (0, u64::from(min_ii), u64::from(proved_infeasible)),
                PointVerdict::WitnessOptimal {
                    min_ii,
                    proved_infeasible,
                } => (1, u64::from(min_ii), u64::from(proved_infeasible)),
                PointVerdict::FuelExhausted { at_ii } => (2, u64::from(at_ii), 0),
                PointVerdict::Unschedulable => (3, 0, 0),
            };
            eat(tag);
            eat(a);
            eat(b);
            eat(u64::from(p.rung));
            eat(u64::from(p.certificate_valid));
        }
        h.finish()
    }
}

/// Measure one trial: take the sweep's plan for the machine's residency
/// budget from `plans`, its prepared form for the machine's L2 latency
/// from `memo`, list- and modulo-schedule it, then certify the minimum
/// II up the fuel ladder — all three over one [`PipelineProblem`], on
/// the graph the list scheduler ran on. `None` for a trial whose
/// unrolled body is over [`crate::eval::MAX_BODY_OPS`]: the sweep has no
/// such plan, so the study leaves the trial out too.
fn measure(
    bench: Benchmark,
    spec: &ArchSpec,
    unroll: u32,
    ladder: &[u64],
    plans: &PlanCache,
    memo: &CompileCache,
) -> Option<OraclePoint> {
    let id = plans.id(bench, residency_budget(spec.regs), unroll, ExtSet::EMPTY)?;
    let machine = MachineResources::from_spec(spec);
    let off = &mut UnitTrace::disabled();
    let prepared = memo.prepared(id, machine.l2_latency, || {
        prepare(plans.kernel(id), &machine, off)
    });
    let core = match try_compile_core(&prepared, &machine, &mut Fuel::unlimited(), off) {
        Ok(core) => core,
        Err(e) => panic!("compilation failed under unlimited fuel: {e}"),
    };
    let ddg = prepared.assigned_ddg(&core.assignment);
    let problem = PipelineProblem::new(&core.assignment, &ddg, &machine, core.length);
    let ms = problem
        .schedule(&mut Fuel::unlimited(), off)
        .unwrap_or_default(); // unlimited fuel never exhausts
    let witness = ms.as_ref().map(|s| s.ii);
    // The heuristic's own schedule replays through the shared validator
    // first — the differential check runs in both directions.
    let mut valid = ms.as_ref().is_none_or(|s| problem.validate(s.ii, &s.slots));

    let mut verdict = PointVerdict::FuelExhausted { at_ii: 0 };
    let mut rung = ladder.len().saturating_sub(1) as u32;
    for (i, &steps) in ladder.iter().enumerate() {
        let mut fuel = Fuel::limited(steps);
        match problem.certify(witness, &mut fuel, off) {
            CertifyOutcome::Certified {
                min_ii,
                slots,
                proved_infeasible,
            } => {
                valid = valid && problem.validate(min_ii, &slots);
                verdict = PointVerdict::Certified {
                    min_ii,
                    proved_infeasible,
                };
                rung = i as u32;
                break;
            }
            CertifyOutcome::WitnessOptimal {
                min_ii,
                proved_infeasible,
            } => {
                verdict = PointVerdict::WitnessOptimal {
                    min_ii,
                    proved_infeasible,
                };
                rung = i as u32;
                break;
            }
            CertifyOutcome::Unschedulable => {
                verdict = PointVerdict::Unschedulable;
                rung = i as u32;
                break;
            }
            CertifyOutcome::FuelExhausted { at_ii } => {
                verdict = PointVerdict::FuelExhausted { at_ii };
            }
        }
    }

    Some(OraclePoint {
        bench,
        spec: *spec,
        unroll,
        list_len: core.length,
        heuristic_ii: witness,
        verdict,
        rung,
        certificate_valid: valid,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> OracleConfig {
        OracleConfig {
            paper_points: 3,
            extended_points: 3,
            benches: vec![Benchmark::D, Benchmark::G],
            unrolls: vec![1],
            threads: 1,
            ..OracleConfig::default()
        }
    }

    #[test]
    fn the_report_is_bit_identical_across_thread_counts() {
        let base = OracleReport::run(&tiny());
        let threaded = OracleReport::run(&OracleConfig {
            threads: 4,
            ..tiny()
        });
        assert_eq!(base.digest(), threaded.digest());
        assert_eq!(base.points.len(), 6);
    }

    #[test]
    fn the_heuristic_never_beats_a_certificate_and_all_replay() {
        let report = OracleReport::run(&tiny());
        assert!(!report.heuristic_beat_oracle());
        assert!(report.all_valid());
        assert!(report.mean_ratio() >= 1.0);
        assert!(report.max_ratio() >= report.mean_ratio() || report.certified() == 0);
    }
}
