//! `oracle_gap` — the exact-II oracle's study: sampled design points,
//! the heuristic modulo scheduler's II certified (or not) by the exact
//! solver under a step budget. The only workload where `sched.modulo`
//! and `sched.exact` run.

use super::{proc_deltas, timed, trace_ratios, Pass, Workload};
use crate::report::RunResult;
use crate::trace::Tracer;
use crate::{gen, probe, staged, Digest};
use custom_fit::dse::eval::residency_budget;
use custom_fit::dse::{OracleConfig, OraclePoint, OracleReport, PointVerdict};
use custom_fit::kernels::Benchmark;
use custom_fit::sched::{
    certify_min_ii, modulo_schedule, omega_deps, validate_modulo, CertifyOutcome, Ddg, Fuel,
};

/// Points per `(benchmark, unroll factor, space)`. The study runs once
/// per benchmark and unroll factor with those alone, so every pass grades
/// the same number of points of each kernel at each size: a point's cost
/// is set by its kernel first, and a free draw over kernels made a pass
/// vary 30x between seeds.
pub const POINTS: usize = 16;

/// Unroll factors graded (the study's default two).
const UNROLLS: [u32; 2] = [1, 2];

/// The step budgets tried per point: the first rung of the study's
/// default ladder, under a rung a decade smaller so that the restart up
/// the ladder runs too. The default's upper rungs (500 000 and 2 000 000
/// steps) cost up to 0.3 s and 6 s on the points that exhaust them and
/// decide few; a handful of such points then sets the whole pass's time,
/// and how many a seed draws varies.
const FUEL_LADDER: [u64; 2] = [5_000, 50_000];

/// The sampler seed of the quality probe's studies.
const REFERENCE_SEED: u64 = 1996;

/// Benchmarks whose reference studies double as the warm-up: the three
/// cheapest.
const WARM_UP: [Benchmark; 3] = [Benchmark::D, Benchmark::G, Benchmark::H];

/// The workload's state. A point's cost is heavy-tailed, and one study's
/// total moves 15 % with its draw, so it matters here most that every
/// pass is a fresh study of the same shape.
#[derive(Debug)]
pub struct OracleGap {
    seed: u64,
    threads: usize,
    /// The current pass's studies.
    configs: Vec<OracleConfig>,
    /// Digest of the reference studies the warm-up ran; the quality
    /// probe runs them again and must reproduce it.
    warm_up_digest: u64,
    last: Vec<OracleReport>,
}

/// One study per benchmark and unroll factor, sampler seeds from `rng`.
fn configs(mut rng: cfp_testkit::Rng, threads: usize) -> Vec<OracleConfig> {
    Benchmark::INDIVIDUAL
        .iter()
        .flat_map(|&bench| UNROLLS.map(|unroll| (bench, unroll)))
        .map(|(bench, unroll)| OracleConfig {
            paper_points: POINTS,
            extended_points: POINTS,
            seed: rng.next_u64(),
            benches: vec![bench],
            unrolls: vec![unroll],
            fuel_ladder: FUEL_LADDER.to_vec(),
            threads,
        })
        .collect()
}

/// The quality probe's studies: the same shape under a fixed seed.
fn reference_configs(threads: usize) -> Vec<OracleConfig> {
    configs(gen::stream(REFERENCE_SEED, "oracle.reference"), threads)
}

fn is_warm_up(config: &OracleConfig) -> bool {
    WARM_UP.contains(&config.benches[0])
}

fn study(configs: &[OracleConfig], threads: usize) -> Vec<OracleReport> {
    configs
        .iter()
        .map(|cfg| {
            OracleReport::run(&OracleConfig {
                threads,
                ..cfg.clone()
            })
        })
        .collect()
}

fn digest_all<'a>(reports: impl IntoIterator<Item = &'a OracleReport>) -> u64 {
    let mut d = Digest::default();
    for r in reports {
        d.eat(r.digest());
    }
    d.0
}

/// A point fails when a schedule it saw did not replay through the
/// shared validator, or the heuristic beat a "certified" optimum. Fuel
/// exhaustion is an outcome, not a failure.
fn failed(p: &OraclePoint) -> bool {
    !p.certificate_valid
        || matches!(
            (p.heuristic_ii, p.certified_ii()),
            (Some(h), Some(c)) if h < c
        )
}

fn account(reports: &[OracleReport]) -> Pass {
    let points = || reports.iter().flat_map(|r| &r.points);
    Pass {
        attempted: points().count() as u64,
        failed: points().filter(|p| failed(p)).count() as u64,
        op_ms: Vec::new(),
        digest: digest_all(reports),
        check_failures: reports
            .iter()
            .filter(|r| !r.all_valid() || r.heuristic_beat_oracle())
            .map(|r| {
                format!(
                    "{} x{}: a schedule failed the shared validator or beat a certified optimum",
                    r.config.benches[0], r.config.unrolls[0]
                )
            })
            .collect(),
    }
}

/// One point by hand, the way the study's private `measure` grades it:
/// plan discipline, staged compile, heuristic modulo schedule, then the
/// exact solver up the fuel ladder.
fn staged_point(
    tr: &mut Tracer,
    p: &OraclePoint,
    ladder: &[u64],
) -> (Option<u32>, PointVerdict, u32, bool) {
    let budget = residency_budget(p.spec.regs);
    let mut kernel = staged::frontend(tr, p.bench);
    staged::optimize(tr, &mut kernel, budget);
    if p.unroll > 1 {
        kernel = staged::unroll(tr, &kernel, p.unroll);
        staged::optimize(tr, &mut kernel, budget);
    }
    let machine = staged::lower(tr, &p.spec);
    let r = staged::compile(tr, &kernel, &machine).expect("unlimited fuel");
    let ddg = tr.span("sched.ddg", || Ddg::build(&r.assignment.code));
    let modulo = tr.enter("sched.modulo");
    let ms = modulo_schedule(&r.assignment, &ddg, &machine, r.length);
    let deps = omega_deps(&r.assignment.code, &ddg);
    let mut valid = ms
        .as_ref()
        .is_none_or(|s| validate_modulo(&r.assignment, &machine, &deps, s.ii, &s.slots));
    tr.exit(modulo);
    tr.count("sched.modulo.points", 1.0);
    tr.count("sched.modulo.scheduled", f64::from(u8::from(ms.is_some())));
    tr.count(
        "sched.modulo.ii_attempts",
        ms.as_ref().map_or(0.0, |s| f64::from(s.ii_attempts)),
    );
    let witness = ms.as_ref().map(|s| s.ii);

    let mut verdict = PointVerdict::FuelExhausted { at_ii: 0 };
    let mut rung = ladder.len().saturating_sub(1) as u32;
    for (i, &steps) in ladder.iter().enumerate() {
        let mut fuel = Fuel::limited(steps);
        let outcome = tr.span("sched.exact", || {
            certify_min_ii(&r.assignment, &ddg, &machine, r.length, witness, &mut fuel)
        });
        tr.count("sched.exact.steps", fuel.spent() as f64);
        let decided = match outcome {
            CertifyOutcome::Certified {
                min_ii,
                slots,
                proved_infeasible,
            } => {
                valid &= validate_modulo(&r.assignment, &machine, &deps, min_ii, &slots);
                Some(PointVerdict::Certified {
                    min_ii,
                    proved_infeasible,
                })
            }
            CertifyOutcome::WitnessOptimal {
                min_ii,
                proved_infeasible,
            } => Some(PointVerdict::WitnessOptimal {
                min_ii,
                proved_infeasible,
            }),
            CertifyOutcome::Unschedulable => Some(PointVerdict::Unschedulable),
            CertifyOutcome::FuelExhausted { at_ii } => {
                verdict = PointVerdict::FuelExhausted { at_ii };
                None
            }
        };
        if let Some(v) = decided {
            verdict = v;
            rung = i as u32;
            break;
        }
    }
    tr.count(
        "sched.exact.certified",
        f64::from(u8::from(matches!(
            verdict,
            PointVerdict::Certified { .. } | PointVerdict::WitnessOptimal { .. }
        ))),
    );
    (witness, verdict, rung, valid)
}

impl Workload for OracleGap {
    const NAME: &'static str = "oracle_gap";

    fn prepare(seed: u64, threads: usize) -> Self {
        let warm: Vec<OracleConfig> = reference_configs(threads)
            .into_iter()
            .filter(is_warm_up)
            .collect();
        OracleGap {
            seed,
            threads,
            configs: Vec::new(),
            // On one thread, like every workload's warm-up: see
            // `sweep_cold`.
            warm_up_digest: digest_all(&study(&warm, 1)),
            last: Vec::new(),
        }
    }

    fn before_pass(&mut self, pass: u64) {
        self.configs = configs(
            gen::pass_stream(self.seed, pass, "oracle.seeds"),
            self.threads,
        );
    }

    fn pass(&mut self) -> Pass {
        self.last = study(&self.configs, self.threads);
        account(&self.last)
    }

    fn verify(&mut self, out: &mut RunResult) {
        // Every pass checked its own certificates; only the note is left.
        let sum = |f: fn(&OracleReport) -> usize| self.last.iter().map(f).sum::<usize>();
        out.notes.push(format!(
            "{} benchmarks x unroll {UNROLLS:?} x ({POINTS} paper + {POINTS} extended) points a pass, fuel ladder {FUEL_LADDER:?}; last pass: {} certified ({} improving on the heuristic), {} fuel-exhausted",
            Benchmark::INDIVIDUAL.len(),
            sum(OracleReport::certified),
            sum(OracleReport::improved),
            sum(OracleReport::exhausted),
        ));
    }

    /// Certified II over heuristic II of every certified point of the
    /// reference studies: 1 where the heuristic is proven optimal, below 1
    /// where it left cycles on the table. The passes' own studies are not
    /// used: how many of them a run times depends on the machine's speed.
    fn quality(&mut self, out: &mut RunResult) -> Vec<f64> {
        let reference = study(&reference_configs(self.threads), self.threads);
        let pass = account(&reference);
        out.failed += pass.failed;
        out.check_failures.extend(pass.check_failures);
        let again = digest_all(reference.iter().filter(|r| is_warm_up(&r.config)));
        out.check(again == self.warm_up_digest, || {
            format!(
                "the warm-up's reference studies repeated with digest {again:016x}, not {:016x}",
                self.warm_up_digest
            )
        });
        out.digests
            .push(("reference".to_owned(), digest_all(&reference)));
        reference
            .iter()
            .flat_map(|r| &r.points)
            .filter_map(|p| Some(f64::from(p.certified_ii()?) / f64::from(p.heuristic_ii?)))
            .collect()
    }

    fn trace(&mut self, tr: &mut Tracer, out: &mut RunResult) {
        // Full parallelism first (process probes, warm-up, and the
        // sampled points the staged pass walks), then the staged pass,
        // then the single-threaded wall its spans must account for.
        let threads = self.threads;
        let configs = self.configs.clone();
        let (cpu0, io0) = (probe::cpu_times(), probe::io_counters());
        let (parallel, par) = timed(|| study(&configs, threads));
        proc_deltas(out, (cpu0, probe::cpu_times()), (io0, probe::io_counters()));
        let (traced, ()) = timed(|| {
            let mut op = 0;
            for report in &par {
                for p in &report.points {
                    op += 1;
                    tr.set_op(op);
                    let (ii, verdict, rung, valid) =
                        staged_point(tr, p, &report.config.fuel_ladder);
                    out.check(
                        (ii, verdict, rung, valid)
                            == (p.heuristic_ii, p.verdict, p.rung, p.certificate_valid),
                        || {
                            format!(
                                "{} {} x{}: staged verdict {verdict:?} at rung {rung}, study said {:?} at rung {}",
                                p.bench, p.spec, p.unroll, p.verdict, p.rung
                            )
                        },
                    );
                }
            }
        });
        let (untraced, real) = timed(|| study(&configs, 1));
        trace_ratios(out, tr, traced, untraced);

        let pass = account(&real);
        out.attempted = pass.attempted;
        out.failed = pass.failed;
        out.digests.push(("result".to_owned(), pass.digest));
        out.check(digest_all(&par) == pass.digest, || {
            format!("the {threads}-thread study differs from the 1-thread study")
        });
        out.metrics.insert(
            "dse.explore.parallel_efficiency",
            untraced / (threads as f64 * parallel),
        );
        let ratio = |num: &str, den: &str| tr.counter(num) / tr.counter(den).max(1.0);
        out.metrics.insert(
            "sched.modulo.scheduled_ratio",
            ratio("sched.modulo.scheduled", "sched.modulo.points"),
        );
        out.metrics.insert(
            "sched.exact.certified_ratio",
            ratio("sched.exact.certified", "sched.modulo.points"),
        );
        out.notes.push(format!(
            "{threads} threads for the parallel pass; 1-thread wall {untraced:.3} s, staged {traced:.3} s"
        ));
    }
}
