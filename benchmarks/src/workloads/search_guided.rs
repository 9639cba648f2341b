//! `search_guided` — the guided search over the 127 000-arrangement
//! combinatorial space, one cold search per table benchmark.

use super::{proc_deltas, timed, trace_ratios, Pass, Workload};
use crate::report::RunResult;
use crate::staged::Plans;
use crate::trace::Tracer;
use crate::{gen, probe, Digest};
use custom_fit::dse::eval::UNROLL_SWEEP;
use custom_fit::dse::{
    try_evaluate, try_search, try_search_shared, CompileCache, PlanCache, PlanStore, SearchConfig,
    SearchOutcome,
};
use custom_fit::kernels::Benchmark;
use custom_fit::machine::{ArchSpec, CycleModel, SpaceAxes};
use custom_fit::serve::job::search_digest;

/// The cost bound every search runs under (Table 9's).
const COST_BOUND: f64 = 10.0;

/// Benchmarks the warm-up searches: cheap ones, enough to touch every
/// code path once.
const WARM_UP: [Benchmark; 2] = [Benchmark::A, Benchmark::H];

/// Search seeds of the quality probe, one search per seed on each of
/// [`gen::CHEAP`].
const REFERENCE_SEEDS: [u64; 3] = [1, 2, 3];

/// The workload's state: one search configuration per table benchmark.
#[derive(Debug)]
pub struct SearchGuided {
    seed: u64,
    /// The current pass's searches.
    configs: Vec<SearchConfig>,
    last: Vec<SearchOutcome>,
}

/// One cold search of the combinatorial space.
fn search(bench: Benchmark, seed: u64, threads: usize) -> SearchConfig {
    SearchConfig {
        seed,
        threads,
        ..SearchConfig::new(SpaceAxes::combinatorial(), bench, COST_BOUND)
    }
}

/// The searches of pass number `pass`: one per table benchmark, each
/// with its own search seed.
fn configs(seed: u64, pass: u64, threads: usize) -> Vec<SearchConfig> {
    let mut rng = gen::pass_stream(seed, pass, "search.seeds");
    Benchmark::TABLE_COLUMNS
        .iter()
        .map(|&bench| search(bench, rng.next_u64(), threads))
        .collect()
}

/// Run every search of `configs` on `threads` threads.
fn search_all(configs: &[SearchConfig], threads: usize) -> Vec<SearchOutcome> {
    configs
        .iter()
        .map(|cfg| {
            try_search(&SearchConfig {
                threads,
                ..cfg.clone()
            })
            .expect("a search over valid axes runs")
        })
        .collect()
}

/// Digest of every search's full result surface, in benchmark order.
fn digest_all(outcomes: &[SearchOutcome]) -> u64 {
    let mut d = Digest::default();
    for out in outcomes {
        d.eat(search_digest(out));
    }
    d.0
}

impl Workload for SearchGuided {
    const NAME: &'static str = "search_guided";

    fn prepare(seed: u64, threads: usize) -> Self {
        let configs = configs(seed, 0, threads);
        // Warm-up: two cheap searches under a fixed search seed, so the
        // set-up costs the same at every seed, and on one thread like
        // every workload's warm-up (see `sweep_cold`).
        std::hint::black_box(search_all(&WARM_UP.map(|bench| search(bench, 0, 1)), 1));
        SearchGuided {
            seed,
            configs,
            last: Vec::new(),
        }
    }

    fn before_pass(&mut self, pass: u64) {
        self.configs = configs(self.seed, pass, self.configs[0].threads);
    }

    fn pass(&mut self) -> Pass {
        let threads = self.configs[0].threads;
        let outcomes = search_all(&self.configs, threads);
        let pass = Pass {
            attempted: outcomes
                .iter()
                .map(|o| o.stats.screen_evals + o.stats.full_evals)
                .sum(),
            failed: outcomes.iter().map(|o| o.stats.failed_units).sum(),
            // The ten searches cost from 0.03 s to 1.5 s by benchmark, so
            // a median over them flips between two benchmarks; the pass
            // is the operation.
            op_ms: Vec::new(),
            digest: digest_all(&outcomes),
            check_failures: Vec::new(),
        };
        self.last = outcomes;
        pass
    }

    /// Every frontier point's speedup must be bit-equal to a direct,
    /// uncached, full-fidelity evaluation of that architecture.
    fn verify(&mut self, out: &mut RunResult) {
        let cycle = CycleModel::paper_calibrated();
        let baseline = ArchSpec::baseline();
        let mut points = 0;
        for so in &self.last {
            let mut regs: Vec<u32> = so
                .frontier
                .iter()
                .map(|&i| so.evaluated[i].spec.regs)
                .collect();
            regs.push(baseline.regs);
            let plans = PlanCache::build(&[so.bench], &regs, &UNROLL_SWEEP);
            let base = try_evaluate(&baseline, so.bench, &plans, None).expect("baseline evaluates");
            for &i in &so.frontier {
                let p = &so.evaluated[i];
                let direct = try_evaluate(&p.spec, so.bench, &plans, None).map(|m| {
                    base.cycles_per_output / (m.cycles_per_output * cycle.derate(&p.spec))
                });
                points += 1;
                out.check(
                    direct
                        .as_ref()
                        .is_ok_and(|su| su.to_bits() == p.speedup.to_bits()),
                    || {
                        format!(
                            "{} frontier point {}: search says {}, direct evaluation {direct:?}",
                            so.bench, p.spec, p.speedup
                        )
                    },
                );
            }
        }
        let stats = |f: fn(&SearchOutcome) -> u64| self.last.iter().map(f).sum::<u64>();
        out.notes.push(format!(
            "last pass: {} searches; {} screens, {} full evaluations, {} dedup hits; {points} frontier points re-evaluated directly",
            self.last.len(),
            stats(|o| o.stats.screen_evals),
            stats(|o| o.stats.full_evals),
            stats(|o| o.stats.dedup_hits),
        ));
    }

    /// The best speedup each of a fixed set of searches finds: the cheap
    /// benchmarks under [`REFERENCE_SEEDS`]. One search's best moves 10 %
    /// with its seed, so the timed searches' own, seeded from `--seed`,
    /// cannot show a 1 % loss. A search that finds nothing reads 0, which
    /// zeroes the geometric mean instead of vanishing from it.
    fn quality(&mut self, _out: &mut RunResult) -> Vec<f64> {
        let threads = self.configs[0].threads;
        let reference: Vec<SearchConfig> = gen::CHEAP
            .iter()
            .flat_map(|&bench| REFERENCE_SEEDS.map(|seed| search(bench, seed, threads)))
            .collect();
        search_all(&reference, threads)
            .iter()
            .map(|o| o.best.map_or(0.0, |p| p.speedup))
            .collect()
    }

    fn trace(&mut self, tr: &mut Tracer, out: &mut RunResult) {
        // Full parallelism first: the pass the process probes describe,
        // and the warm-up for the two single-threaded passes compared below.
        let threads = self.configs[0].threads;
        let (cpu0, io0) = (probe::cpu_times(), probe::io_counters());
        let (parallel, par) = timed(|| search_all(&self.configs, threads));
        proc_deltas(out, (cpu0, probe::cpu_times()), (io0, probe::io_counters()));
        // The engine's control flow is private, so a search is one
        // `dse.search` span; what can be driven by hand is the plan
        // build it starts with. That runs here under spans, and the
        // search itself then runs against a store already holding the
        // plans, so the span carries the search proper and no plan work
        // is counted twice.
        let (traced, staged) = timed(|| {
            self.configs
                .iter()
                .enumerate()
                .map(|(op, cfg)| {
                    tr.set_op(op as u64 + 1);
                    let mut regs = cfg.axes.reg_values().to_vec();
                    regs.push(ArchSpec::baseline().regs);
                    Plans::build(tr, &[cfg.bench], &regs, cfg.axes.ext_values());
                    let (store, memo) = (PlanStore::new(), CompileCache::new());
                    let _ = store.ensure_snapshot_extended(
                        &[cfg.bench],
                        &regs,
                        &UNROLL_SWEEP,
                        cfg.axes.ext_values(),
                    );
                    let cfg = SearchConfig {
                        threads: 1,
                        ..cfg.clone()
                    };
                    tr.span("dse.search", || {
                        try_search_shared(&cfg, &store, &memo, &custom_fit::obs::NULL)
                            .expect("a search over valid axes runs")
                    })
                })
                .collect::<Vec<_>>()
        });
        let (untraced, real) = timed(|| search_all(&self.configs, 1));
        trace_ratios(out, tr, traced, untraced);

        let real_digest = digest_all(&real);
        out.digests.push(("result".to_owned(), real_digest));
        out.check(digest_all(&staged) == real_digest, || {
            "searches against a pre-built plan store differ from cold searches".to_owned()
        });
        let sum = |f: fn(&SearchOutcome) -> f64| real.iter().map(f).sum::<f64>();
        out.metrics.insert(
            "dse.search.screen_evals",
            sum(|o| o.stats.screen_evals as f64),
        );
        out.metrics
            .insert("dse.search.full_evals", sum(|o| o.stats.full_evals as f64));
        out.metrics
            .insert("dse.search.dedup_hits", sum(|o| o.stats.dedup_hits as f64));
        out.metrics.insert(
            "dse.search.plan_share",
            sum(|o| o.stats.plan_wall.as_secs_f64()) / sum(|o| o.stats.wall.as_secs_f64()),
        );
        out.attempted = real
            .iter()
            .map(|o| o.stats.screen_evals + o.stats.full_evals)
            .sum();
        out.failed = real.iter().map(|o| o.stats.failed_units).sum();

        out.check(digest_all(&par) == real_digest, || {
            format!("{threads}-thread searches differ from 1-thread searches")
        });
        out.metrics.insert(
            "dse.explore.parallel_efficiency",
            untraced / (threads as f64 * parallel),
        );
        out.notes.push(format!(
            "{threads} threads for the parallel pass; 1-thread wall {untraced:.3} s, traced {traced:.3} s"
        ));
    }
}
