//! `sweep_cold` — the paper's experiment on a structure-preserving
//! sample, from DSL source text to Tables 8–10, cold every pass.

use super::{proc_deltas, reference_sweep, timed, trace_ratios, Pass, Workload};
use crate::report::RunResult;
use crate::staged::{Evaluator, Plans};
use crate::trace::Tracer;
use crate::{gen, probe};
use custom_fit::dse::eval::residency_budget;
use custom_fit::dse::{
    frontier, paper_ranges, render, scatter, select, speedup_table, ArchEval, EvalOutcome,
    Exploration, ExploreConfig, Range, RunStats,
};
use custom_fit::kernels::{golden, Benchmark};
use custom_fit::machine::{ArchSpec, CostModel, CycleModel, ExtSet, MachineResources};
use custom_fit::obs::JsonlRecorder;
use custom_fit::serve::job::result_digest;
use std::hint::black_box;

/// Sibling groups per sweep. 16 of the paper space's 162 keeps a pass
/// near 3 s on two cores, so a run times several, while the cache hit
/// ratio stays at the full space's (about two thirds).
pub const GROUPS: usize = 16;

/// Units the spot check re-compiles and simulates against the golden
/// reference.
const SPOT_UNITS: usize = 16;

/// Cost bounds of Tables 8, 9 and 10.
const COST_BOUNDS: [f64; 3] = [5.0, 10.0, 15.0];

/// The workload's state: only inputs — every pass starts from nothing.
#[derive(Debug)]
pub struct SweepCold {
    seed: u64,
    /// The current pass's sweep.
    config: ExploreConfig,
    last: Option<Exploration>,
}

/// The sweep of pass number `pass`: its own draw of [`GROUPS`] sibling
/// groups on every table benchmark.
fn config(seed: u64, pass: u64, threads: usize) -> ExploreConfig {
    let groups = gen::sample(
        &mut gen::pass_stream(seed, pass, "sweep.groups"),
        &gen::paper_groups(),
        GROUPS,
        |g| gen::cost_class(&g[0]),
    );
    ExploreConfig {
        archs: groups.concat(),
        benches: Benchmark::TABLE_COLUMNS.to_vec(),
        threads,
        ..ExploreConfig::default()
    }
}

/// Tables 8–10 of a finished sweep, rendered; returns the checks that
/// failed.
fn tables(ex: &Exploration) -> Vec<String> {
    let mut failures = Vec::new();
    for cost in COST_BOUNDS {
        let table = speedup_table(ex, cost, &paper_ranges(cost));
        for section in &table.sections {
            let want = match section.range {
                Range::Fraction(_) => ex.benches.len(),
                Range::Infinite => 1,
            };
            if section.rows.len() != want {
                failures.push(format!(
                    "cost {cost} range {}: {} rows, expected {want}",
                    section.range,
                    section.rows.len()
                ));
            }
        }
        black_box(render(&table, ex));
    }
    failures
}

/// The cost/speedup scatter and frontier of every benchmark (Figures
/// 3–4).
fn frontiers(ex: &Exploration) {
    for bench in 0..ex.benches.len() {
        black_box(frontier(&scatter(ex, bench)));
    }
}

impl SweepCold {
    fn run(&self, threads: usize) -> Exploration {
        let config = ExploreConfig {
            threads,
            ..self.config.clone()
        };
        Exploration::try_run(&config).expect("a sweep over valid inputs runs")
    }

    /// Re-compile the selected unroll of a seeded handful of units by
    /// the plan discipline and simulate it against the hand-written
    /// reference: the sweep's cycle counts describe code that computes
    /// the right answer.
    fn spot_check(&self, ex: &Exploration, out: &mut RunResult) {
        let mut rng = gen::stream(self.seed, "sweep.spot");
        for _ in 0..SPOT_UNITS {
            let a = rng.index(ex.archs.len());
            let b = rng.index(ex.benches.len());
            let (spec, bench) = (ex.archs[a].spec, ex.benches[b]);
            let Some(m) = ex.archs[a].outcomes[b].measurement() else {
                continue; // already counted as a failed unit
            };
            let budget = residency_budget(spec.regs);
            let n = 16_u64;
            let workload = bench.workload(n, rng.next_u64());
            let mut kernel = workload.kernel.clone();
            custom_fit::opt::optimize_budgeted(&mut kernel, budget);
            let mut kernel = custom_fit::opt::unroll::unroll(&kernel, m.unroll);
            custom_fit::opt::optimize_budgeted(&mut kernel, budget);
            let machine = MachineResources::from_spec(&spec);
            let result = custom_fit::sched::compile(&kernel, &machine);
            let cpo = f64::from(result.cycles_per_iter()) / f64::from(kernel.outputs_per_iter);
            out.check(cpo == m.cycles_per_output, || {
                format!(
                    "{bench} on {spec} x{}: recompiled to {cpo} cycles/output, sweep said {}",
                    m.unroll, m.cycles_per_output
                )
            });
            let mut mem = workload.image();
            let sim = custom_fit::sched::simulate(
                &kernel,
                &result,
                &machine,
                &mut mem,
                n / u64::from(m.unroll),
            );
            let mut gold = workload.image();
            golden::run(bench, &mut gold, n);
            let same = workload
                .observable_arrays()
                .into_iter()
                .all(|i| mem.array(i) == gold.array(i));
            out.attempted += 1;
            if sim.is_err() || !same {
                out.failed += 1;
                out.check_failures.push(format!(
                    "{bench} on {spec} x{}: simulation {sim:?}, arrays equal: {same}",
                    m.unroll
                ));
            }
        }
    }

    /// The sweep by hand on one thread: plans, then every unit through
    /// the staged evaluator, then models, selection and frontiers.
    fn staged(&self, tr: &mut Tracer) -> Exploration {
        let (archs, benches) = (&self.config.archs, &self.config.benches);
        let mut regs: Vec<u32> = archs.iter().map(|a| a.regs).collect();
        regs.push(ArchSpec::baseline().regs);
        let plans = Plans::build(tr, benches, &regs, &[ExtSet::EMPTY]);
        let mut eval = Evaluator::default();
        let baseline = ArchSpec::baseline();
        let mut unit = 0;
        let mut row = |tr: &mut Tracer, spec: &ArchSpec| -> Vec<EvalOutcome> {
            benches
                .iter()
                .map(|&b| {
                    unit += 1;
                    eval.evaluate(tr, &plans, spec, b, unit)
                })
                .collect()
        };
        let baseline_outcomes = row(tr, &baseline);
        let outcomes: Vec<Vec<EvalOutcome>> = archs.iter().map(|s| row(tr, s)).collect();
        tr.set_op(0);
        let (cost, cycle) = (
            CostModel::paper_calibrated(),
            CycleModel::paper_calibrated(),
        );
        let models = tr.enter("machine.models");
        let arch_evals: Vec<ArchEval> = archs
            .iter()
            .zip(outcomes)
            .map(|(spec, outcomes)| ArchEval {
                spec: *spec,
                cost: cost.cost(spec),
                derate: cycle.derate(spec),
                outcomes,
            })
            .collect();
        let baseline = ArchEval {
            spec: baseline,
            cost: cost.cost(&baseline),
            derate: cycle.derate(&baseline),
            outcomes: baseline_outcomes,
        };
        tr.exit(models);
        Exploration {
            benches: benches.clone(),
            archs: arch_evals,
            baseline,
            stats: RunStats::default(),
        }
    }
}

impl Workload for SweepCold {
    const NAME: &'static str = "sweep_cold";

    fn prepare(seed: u64, threads: usize) -> Self {
        let config = config(seed, 0, threads);
        // Warm-up: a fixed fortieth of the paper space on half the
        // benchmarks through the whole path, so allocator arenas and lazy
        // statics exist before timing. The same at every seed: a draw
        // this small varies in cost by a third. And on one thread: the
        // sweep spawns its workers anew every run, so there is no pool to
        // warm, and a set-up this short on two threads is mostly their
        // wake-ups.
        let warm = ExploreConfig {
            archs: reference_sweep().0.into_iter().step_by(40).collect(),
            benches: config.benches.iter().copied().step_by(2).collect(),
            threads: 1,
            ..config.clone()
        };
        let ex = Exploration::try_run(&warm).expect("the warm-up sweep runs");
        black_box(tables(&ex));
        frontiers(&ex);
        SweepCold {
            seed,
            config,
            last: None,
        }
    }

    fn before_pass(&mut self, pass: u64) {
        self.config = config(self.seed, pass, self.config.threads);
    }

    fn pass(&mut self) -> Pass {
        let ex = self.run(self.config.threads);
        let check_failures = tables(&ex);
        frontiers(&ex);
        let pass = Pass {
            attempted: (ex.archs.len() * ex.benches.len()) as u64,
            failed: ex.stats.failed_units,
            op_ms: Vec::new(),
            digest: result_digest(&ex),
            check_failures,
        };
        self.last = Some(ex);
        pass
    }

    fn verify(&mut self, out: &mut RunResult) {
        let ex = self.last.take().expect("verify follows a pass");
        out.notes.push(format!(
            "last pass: {} architectures in {GROUPS} sibling groups x {} benchmarks; {} compilations, {} unique schedules, {} cache hits",
            ex.archs.len(),
            ex.benches.len(),
            ex.stats.compilations,
            ex.stats.unique_schedules,
            ex.stats.cache_hits
        ));
        self.spot_check(&ex, out);
    }

    /// The target's speedup of the machine Table 9 selects for it (cost
    /// 10, range 0 %), over the whole paper space on the reference
    /// benchmarks. A target with no selection reads 0.
    fn quality(&mut self, _out: &mut RunResult) -> Vec<f64> {
        let (archs, benches) = reference_sweep();
        let ex = Exploration::try_run(&ExploreConfig {
            archs,
            benches,
            threads: self.config.threads,
            ..ExploreConfig::default()
        })
        .expect("the reference sweep runs");
        (0..ex.benches.len())
            .map(|t| select(&ex, t, 10.0, Range::Fraction(0.0)).map_or(0.0, |sel| sel.speedups[t]))
            .collect()
    }

    fn trace(&mut self, tr: &mut Tracer, out: &mut RunResult) {
        // The real sweep at full parallelism goes first, with the process
        // probes around it (what the threads cost beyond the work). It is
        // also the process's warm-up — the first full pass pays the page
        // faults that grow the heap — and the result every later pass
        // must reproduce.
        let reference = |w: &Self, threads: usize| {
            let ex = w.run(threads);
            black_box(tables(&ex));
            frontiers(&ex);
            ex
        };
        let threads = self.config.threads;
        let (cpu0, io0) = (probe::cpu_times(), probe::io_counters());
        let (parallel, par) = timed(|| reference(self, threads));
        proc_deltas(out, (cpu0, probe::cpu_times()), (io0, probe::io_counters()));
        let (traced, staged) = timed(|| {
            let ex = self.staged(tr);
            black_box(tr.span("dse.select", || tables(&ex)));
            tr.span("dse.pareto", || frontiers(&ex));
            ex
        });
        // The same work on one thread, tracing off: the wall the spans
        // must account for.
        let (untraced, real) = timed(|| reference(self, 1));
        trace_ratios(out, tr, traced, untraced);

        let (real_digest, staged_digest) = (result_digest(&real), result_digest(&staged));
        out.digests.push(("result".to_owned(), real_digest));
        out.check(real_digest == staged_digest, || {
            format!("staged sweep digest {staged_digest:016x} differs from the real sweep's {real_digest:016x}")
        });
        // One thread makes the sweep's own accounting exact, so the
        // staged counters must reproduce it.
        for (name, real_count) in [
            ("dse.eval.compilations", real.stats.compilations),
            ("dse.eval.cache_hits", real.stats.cache_hits),
            ("dse.eval.unique_schedules", real.stats.unique_schedules),
            (
                "dse.plan_build.unique_kernels",
                real.stats.unique_plans as u64,
            ),
        ] {
            out.check(tr.counter(name) == real_count as f64, || {
                format!("{name}: staged {} vs real {real_count}", tr.counter(name))
            });
        }
        out.attempted = (real.archs.len() * real.benches.len()) as u64;
        out.failed = real.stats.failed_units;

        out.check(result_digest(&par) == real_digest, || {
            format!("{threads}-thread sweep differs from the 1-thread sweep")
        });
        out.metrics.insert(
            "dse.explore.parallel_efficiency",
            untraced / (threads as f64 * parallel),
        );

        // And once more with the program's own JSONL recorder draining
        // every span, to price `cfp-obs`.
        let one_thread = ExploreConfig {
            threads: 1,
            ..self.config.clone()
        };
        let rec = JsonlRecorder::new();
        let (recorded, ex) = timed(|| {
            let ex = Exploration::try_run_traced(&one_thread, &rec).expect("sweep runs");
            black_box(tables(&ex));
            frontiers(&ex);
            ex
        });
        out.check(result_digest(&ex) == real_digest, || {
            "the sweep under the JSONL recorder differs from the plain sweep".to_owned()
        });
        out.metrics.insert("obs.jsonl.events", rec.len() as f64);
        out.metrics
            .insert("obs.jsonl.overhead_ratio", recorded / untraced);
        out.notes.push(format!(
            "{threads} threads for the parallel pass; 1-thread wall {untraced:.3} s, staged {traced:.3} s"
        ));
    }
}
