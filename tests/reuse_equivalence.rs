//! The compilation-reuse layer must be invisible: every result it hands
//! out has to be bit-identical to what a from-scratch compile produces.
//! Every evaluation goes through a [`CompileCache`]; "from scratch" is a
//! fresh cache per unit, where nothing is shared and every core is
//! scheduled by the unit that asks. Three layers of evidence, innermost
//! first:
//!
//! 1. the phase split (`prepare` → `try_compile_core` → `finish`) equals the
//!    one-shot `compile`, and the core really is independent of the
//!    register-file size — the invariant the memo keys encode (one of the
//!    two references independent of the memo; the other is
//!    `tests/recorded_run.rs`, which regenerates `results/exploration.csv`,
//!    recorded before the memo existed, byte for byte);
//! 2. evaluation through a shared warm cache equals `evaluate`, which
//!    runs on a fresh one, on random architectures, and at every unroll
//!    cap and under a fuel budget on the smoke machines;
//! 3. a whole `Exploration::run` reproduces, unit for unit, what an
//!    [`Evaluator`] on a fresh cache per unit measures (outcomes,
//!    unrolls, logical compilation counts), and journaling it changes
//!    nothing; nor does a unit that panicked inside the scheduler's
//!    per-thread arena change the units after it.
//!
//! Below those, plan-level reuse: the plan build answers a budget from
//! another budget's optimizer run wherever LICM's certificate allows it,
//! and must still hand out exactly the plans — same keys, same ids, equal
//! kernels — that optimizing every budget on its own does.

mod common;

use cfp_testkit::cases;
use custom_fit::dse::checkpoint::Checkpoint;
use custom_fit::dse::eval::{fuse_targets, residency_budget, MAX_BODY_OPS, UNROLL_SWEEP};
use custom_fit::dse::explore::{Exploration, ExploreConfig};
use custom_fit::dse::{
    evaluate, quarantine, CompileCache, EvalOutcome, Evaluator, FailKind, PlanCache, PlanStore,
};
use custom_fit::machine::ExtSet;
use custom_fit::obs::{JsonlRecorder, Stage, UnitTrace};
use custom_fit::opt::{fuse::fuse, optimize_budgeted, optimize_budgeted_traced, unroll::unroll};
use custom_fit::prelude::*;
use custom_fit::sched::cluster::assign;
use custom_fit::sched::{
    compile, finish, prepare, schedule_with, try_compile_core, Fuel, Prepared, Priority, SchedCore,
};

/// The scheduled core of `prepared` under unlimited fuel.
fn core_of(prepared: &Prepared, machine: &MachineResources) -> SchedCore {
    try_compile_core(
        prepared,
        machine,
        &mut Fuel::unlimited(),
        &mut UnitTrace::disabled(),
    )
    .expect("unlimited fuel")
}

#[test]
fn memoized_phases_reproduce_direct_compiles_bit_for_bit() {
    cases(0x2e05_0001, 20, |rng| {
        let kernel = common::build(&common::recipe(rng));
        let spec = common::arch(rng);
        let machine = MachineResources::from_spec(&spec);

        let direct = compile(&kernel, &machine);
        let prepared = prepare(&kernel, &machine, &mut UnitTrace::disabled());
        let core = core_of(&prepared, &machine);
        assert_eq!(finish(&core, &machine), direct, "{spec}");

        // Every sibling differing only in register-file size must share
        // the prepared form and the scheduled core bit for bit — the
        // invariant that makes (plan, signature) a sound memo key.
        for regs in [64_u32, 128, 256, 512] {
            if regs == spec.regs {
                continue;
            }
            let sib = ArchSpec::new(
                spec.alus,
                spec.muls,
                regs,
                spec.l2_ports,
                spec.l2_latency,
                spec.clusters,
            )
            .expect("register sizes divide every cluster count here");
            assert_eq!(sib.sched_signature(), spec.sched_signature());
            let m2 = MachineResources::from_spec(&sib);
            assert_eq!(
                prepare(&kernel, &m2, &mut UnitTrace::disabled()),
                prepared,
                "{spec} vs {sib}"
            );
            assert_eq!(core_of(&prepared, &m2), core, "{spec} vs {sib}");
            // Serving the sibling from the shared core equals compiling
            // it from scratch.
            assert_eq!(finish(&core, &m2), compile(&kernel, &m2), "{sib}");
        }
    });
}

#[test]
fn cached_evaluation_matches_direct_evaluation() {
    let benches = [Benchmark::A, Benchmark::D, Benchmark::G];
    let plans = PlanCache::build(&benches, &[64, 128, 256, 512], &[1, 2, 4]);
    let memo = CompileCache::new();
    cases(0x2e05_0002, 40, |rng| {
        let spec = common::arch(rng);
        let bench = *rng.pick(&benches);
        let cached = Evaluator::new(&plans, &memo)
            .evaluate(&spec, bench, &mut UnitTrace::disabled())
            .expect("evaluation without a fuel budget");
        let direct = evaluate(&spec, bench, &plans);
        assert_eq!(cached, direct, "{spec} on {bench}");
    });
    // 40 evaluations over a small space must have revisited signatures.
    assert!(memo.core_hits() > 0);
}

#[test]
fn capped_evaluation_is_the_same_with_and_without_the_memo() {
    // The search's rungs are capped and share their cache, the sweep is
    // uncapped; capped on a cache of its own is the combination nothing
    // else runs. Every cap, with no fuel budget and with one tight
    // enough to stop sweeps early — which a warm cache must not change.
    let config = ExploreConfig::smoke();
    let regs: Vec<u32> = config.archs.iter().map(|a| a.regs).collect();
    let plans = PlanCache::build(&config.benches, &regs, &UNROLL_SWEEP);
    let memo = CompileCache::new();
    let off = &mut UnitTrace::disabled();
    let mut stopped_early = 0;
    for max_unroll in [1, 2, 4, 8, u32::MAX] {
        for spec in &config.archs {
            for &bench in &config.benches {
                let mut free = None;
                for fuel in [None, Some(2_000)] {
                    let fresh = CompileCache::new();
                    let alone = Evaluator {
                        fuel,
                        max_unroll,
                        ..Evaluator::new(&plans, &fresh)
                    };
                    let memoized = Evaluator {
                        memo: &memo,
                        ..alone
                    };
                    let want = alone.evaluate(spec, bench, off);
                    let got = memoized.evaluate(spec, bench, off);
                    assert_eq!(got, want, "{spec} on {bench}, cap {max_unroll}, {fuel:?}");
                    if let Ok(m) = &want {
                        assert!(m.unroll <= max_unroll, "{spec} on {bench}: {m:?}");
                    }
                    stopped_early += usize::from(free.as_ref().is_some_and(|f| *f != want));
                    free.get_or_insert(want);
                }
            }
        }
    }
    assert!(stopped_early > 0, "the budget must bind somewhere");
}

/// A unit that panics while the scheduler holds the thread's arena — a
/// prepared plan whose graph belongs to longer code, so the list
/// scheduler indexes past the code mid-arm — fails behind `quarantine`. The borrow is released
/// as the panic unwinds: the units after it on the same thread neither
/// fail with a borrow error nor measure a bit differently from the same
/// units on a freshly spawned thread.
#[test]
fn a_panic_inside_the_arena_leaves_later_units_unchanged() {
    let benches = [Benchmark::A, Benchmark::D];
    let spec = ArchSpec::new(8, 4, 256, 2, 4, 2).expect("valid");
    let plans = PlanCache::build(&benches, &[spec.regs], &UNROLL_SWEEP);
    let units = || -> Vec<EvalOutcome> {
        let memo = CompileCache::new();
        let session = Evaluator::new(&plans, &memo);
        let off = &mut UnitTrace::disabled();
        benches
            .iter()
            .map(|&b| quarantine(|| session.evaluate(&spec, b, off)))
            .collect()
    };
    let fresh = std::thread::scope(|s| s.spawn(units).join()).expect("no panic");
    assert!(fresh.iter().all(|o| o.measurement().is_some()), "{fresh:?}");

    // One cluster: assignment inserts no move, so the list scheduler
    // runs on the prepared graph itself.
    let machine = MachineResources::from_spec(&ArchSpec::baseline());
    let off = &mut UnitTrace::disabled();
    let kernel = Benchmark::D.kernel();
    let short = prepare(&kernel, &machine, off);
    let long = prepare(&unroll(&kernel, 4), &machine, off);
    let broken = Prepared {
        code: short.code,
        ddg: long.ddg,
    };
    for _ in 0..2 {
        let failed = quarantine(|| {
            let core = try_compile_core(&broken, &machine, &mut Fuel::unlimited(), off);
            panic!("a mismatched graph compiled: {core:?}")
        });
        let EvalOutcome::Failed { reason } = failed else {
            panic!("a mismatched graph cannot measure")
        };
        assert_eq!(reason.kind, FailKind::Panic);
        assert!(
            reason.message.contains("out of bounds"),
            "{}",
            reason.message
        );
        assert_eq!(units(), fresh);
    }
}

/// A unit that panics inside a list arm while ops are still queued — the
/// source-order arm run on a short body with the graph of its unrolled
/// copy, so an issued op's successor lies past the body and indexing it
/// panics with the rest of the cycle's ready ops still in their queues —
/// fails behind `quarantine`, and every later unit on the thread, on that
/// machine and another, measures exactly what a fresh thread measures:
/// the next arm's reset clears what the broken one left queued.
#[test]
fn a_panic_with_ops_queued_leaves_later_units_unchanged() {
    let benches = [Benchmark::A, Benchmark::D];
    let specs = [
        ArchSpec::baseline(),
        ArchSpec::new(8, 4, 256, 2, 4, 2).expect("valid"),
    ];
    let regs: Vec<u32> = specs.iter().map(|s| s.regs).collect();
    let plans = PlanCache::build(&benches, &regs, &UNROLL_SWEEP);
    let units = || -> Vec<EvalOutcome> {
        let memo = CompileCache::new();
        let session = Evaluator::new(&plans, &memo);
        let off = &mut UnitTrace::disabled();
        specs
            .iter()
            .flat_map(|spec| benches.iter().map(move |&b| (spec, b)))
            .map(|(spec, b)| quarantine(|| session.evaluate(spec, b, off)))
            .collect()
    };
    let fresh = std::thread::scope(|s| s.spawn(units).join()).expect("no panic");
    assert!(fresh.iter().all(|o| o.measurement().is_some()), "{fresh:?}");

    let machine = MachineResources::from_spec(&ArchSpec::baseline());
    let off = &mut UnitTrace::disabled();
    let kernel = Benchmark::D.kernel();
    let short = prepare(&kernel, &machine, off);
    let long = prepare(&unroll(&kernel, 4), &machine, off);
    let assignment = assign(&short.code, &short.ddg, &machine);
    let ops = assignment.code.ops.len();
    for _ in 0..2 {
        let failed = quarantine(|| {
            let fuel = &mut Fuel::unlimited();
            let schedule = schedule_with(
                &assignment,
                &long.ddg,
                &machine,
                Priority::SourceOrder,
                fuel,
            );
            panic!("a mismatched graph scheduled: {schedule:?}")
        });
        let EvalOutcome::Failed { reason } = failed else {
            panic!("a mismatched graph cannot measure")
        };
        assert_eq!(reason.kind, FailKind::Panic);
        assert!(
            reason.message.contains(&format!("the len is {ops} ")),
            "{}",
            reason.message
        );
        assert_eq!(units(), fresh);
    }
}

#[test]
fn exploration_is_identical_with_reuse_on_and_off() {
    // "On" is the sweep, one cache shared by every unit; "off" is every
    // unit of the same configuration on a fresh cache of its own.
    let on = ExploreConfig::smoke();
    let e_on = Exploration::run(&on);
    assert_eq!(e_on.benches, on.benches);

    let mut regs: Vec<u32> = on.archs.iter().map(|a| a.regs).collect();
    regs.push(ArchSpec::baseline().regs);
    let plans = PlanCache::build(&on.benches, &regs, &UNROLL_SWEEP);
    let off = |spec: &ArchSpec| -> Vec<_> {
        let trace = &mut UnitTrace::disabled();
        on.benches
            .iter()
            .map(|&b| {
                let memo = CompileCache::new();
                let alone = Evaluator::new(&plans, &memo);
                quarantine(|| alone.evaluate(spec, b, trace))
            })
            .collect()
    };
    assert_eq!(e_on.baseline.outcomes, off(&ArchSpec::baseline()));
    let mut compilations: u64 = e_on
        .baseline
        .outcomes
        .iter()
        .map(|o| u64::from(o.compilations()))
        .sum();
    for (arch, spec) in e_on.archs.iter().zip(&on.archs) {
        assert_eq!(arch.spec, *spec);
        let outcomes = off(spec);
        assert_eq!(arch.outcomes, outcomes, "{spec}");
        compilations += outcomes
            .iter()
            .map(|o| u64::from(o.compilations()))
            .sum::<u64>();
    }
    // Same logical work, different physical work.
    assert_eq!(e_on.stats.compilations, compilations);
    assert!(e_on.stats.cache_hits > 0);
    assert!(
        e_on.stats.unique_schedules < e_on.stats.compilations,
        "reuse saved nothing: {} schedules for {} compilations",
        e_on.stats.unique_schedules,
        e_on.stats.compilations
    );

    // And checkpointing is equally invisible: journaling every unit to
    // disk as it lands must not change a single bit of the results.
    let path = std::env::temp_dir().join(format!(
        "cfp_reuse_equivalence_{}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let mut ck = on.clone();
    ck.checkpoint = Some(Checkpoint::new(&path));
    let e_ck = Exploration::run(&ck);
    assert_eq!(e_ck.stats.resumed_units, 0);
    assert_eq!(e_on.baseline.outcomes, e_ck.baseline.outcomes);
    for (x, y) in e_on.archs.iter().zip(&e_ck.archs) {
        assert_eq!(x.outcomes, y.outcomes, "{}", x.spec);
    }
    assert_eq!(e_on.stats.compilations, e_ck.stats.compilations);
    let _ = std::fs::remove_file(&path);
}

type PlanKey = (Benchmark, usize, u32, ExtSet);

/// The plan build as it stood before plan-level reuse, kept as the
/// reference: every `(benchmark, budget)` optimized on its own, every
/// unroll factor re-optimized on its own, kernels interned by content in
/// key order. Returns the interned kernels and each key's index.
fn per_budget_plans(
    benches: &[Benchmark],
    budgets: &[usize],
    unrolls: &[u32],
    ext_sets: &[ExtSet],
) -> (Vec<Kernel>, Vec<(PlanKey, usize)>) {
    let mut kernels: Vec<Kernel> = Vec::new();
    let mut plans = Vec::new();
    for &b in benches {
        let base = b.kernel();
        for &budget in budgets {
            let mut opt = base.clone();
            optimize_budgeted(&mut opt, budget);
            for &u in unrolls {
                if opt.body.len() * (u as usize) > MAX_BODY_OPS {
                    continue;
                }
                let mut unrolled = unroll(&opt, u);
                optimize_budgeted(&mut unrolled, budget);
                for &exts in ext_sets {
                    let mut k = unrolled.clone();
                    if !exts.is_empty() {
                        fuse(&mut k, fuse_targets(exts));
                    }
                    let id = kernels.iter().position(|x| *x == k).unwrap_or_else(|| {
                        kernels.push(k);
                        kernels.len() - 1
                    });
                    plans.push(((b, budget, u, exts), id));
                }
            }
        }
    }
    (kernels, plans)
}

fn assert_same_plans(got: &PlanCache, want: &(Vec<Kernel>, Vec<(PlanKey, usize)>), what: &str) {
    let (kernels, plans) = want;
    assert_eq!(got.len(), plans.len(), "{what}: key count");
    assert_eq!(got.unique_kernels(), kernels.len(), "{what}: kernels");
    for &((b, budget, u, exts), id) in plans {
        let got_id = got
            .id(b, budget, u, exts)
            .unwrap_or_else(|| panic!("{what}: {b} budget {budget} unroll {u} {exts:?} missing"));
        assert_eq!(got_id.index(), id, "{what}: {b} {budget} {u} {exts:?}");
        assert!(
            *got.kernel(got_id) == kernels[id],
            "{what}: kernel of {b} budget {budget} unroll {u} {exts:?} differs"
        );
    }
}

/// Every way of building `benches`' plans against the per-budget loop:
/// a [`PlanStore`] cold (which is what a [`PlanCache`] is) and warm.
fn check_plan_builds(benches: &[Benchmark], regs: &[u32], unrolls: &[u32], ext_sets: &[ExtSet]) {
    let budgets: Vec<usize> = regs.iter().map(|&r| residency_budget(r)).collect();
    let want = per_budget_plans(benches, &budgets, unrolls, ext_sets);
    let store = PlanStore::new();
    let first = store.ensure_snapshot_extended(benches, regs, unrolls, ext_sets);
    assert_same_plans(&first, &want, "PlanStore cold");
    let misses = store.plan_misses();
    let warm = store.ensure_snapshot_extended(benches, regs, unrolls, ext_sets);
    assert_same_plans(&warm, &want, "PlanStore warm");
    assert_eq!(
        store.plan_misses(),
        misses,
        "a warm round recomputes nothing"
    );
}

/// Register files 2..4096: the small ones give LICM budgets of 1..16
/// resident values, below most kernels' constant counts, so the runs
/// that answer for one budget alone are exercised beside the ones that
/// answer for a whole class.
fn binding_and_free_regs() -> Vec<u32> {
    (1..=12).map(|i| 1 << i).collect()
}

fn all_ext_sets() -> Vec<ExtSet> {
    let sets: Vec<ExtSet> = (0..8).filter_map(ExtSet::from_bits).collect();
    assert_eq!(sets.len(), 8);
    sets
}

#[test]
fn plan_builds_equal_the_per_budget_loop_where_budgets_bind() {
    // The tier-1 slice of the cross product below, sized for a debug
    // build: everything for the three small kernels (built together, so
    // ids cross benchmarks), and the rest one at a time on seven
    // register sizes and two extension sets, up to the unroll factor
    // beside each.
    check_plan_builds(
        &[Benchmark::D, Benchmark::E, Benchmark::G],
        &binding_and_free_regs(),
        &UNROLL_SWEEP,
        &all_ext_sets(),
    );
    let rest = [
        (Benchmark::A, 4),
        (Benchmark::F, 4),
        (Benchmark::H, 4),
        (Benchmark::GF, 4),
        (Benchmark::GEF, 4),
        (Benchmark::DH, 4),
        (Benchmark::C, 2),
        (Benchmark::DHEF, 2),
    ];
    for (b, deepest) in rest {
        let unrolls: Vec<u32> = UNROLL_SWEEP.into_iter().filter(|&u| u <= deepest).collect();
        check_plan_builds(
            &[b],
            &[2, 4, 8, 16, 32, 64, 4096],
            &unrolls,
            &[ExtSet::EMPTY, ExtSet::ALL],
        );
    }
}

#[test]
#[ignore = "minutes in a debug build; CI runs it in release"]
fn plan_builds_equal_the_per_budget_loop_over_the_full_cross_product() {
    // All 11 kernels x the unroll sweep x all 8 extension sets x register
    // files 2..4096. One benchmark at a time keeps the reference's
    // kernels from piling up; the first round takes two.
    let mut rounds: Vec<&[Benchmark]> = vec![&Benchmark::ALL[..2]];
    rounds.extend(Benchmark::ALL[2..].chunks(1));
    for benches in rounds {
        check_plan_builds(
            benches,
            &binding_and_free_regs(),
            &UNROLL_SWEEP,
            &all_ext_sets(),
        );
    }
}

#[test]
fn a_partly_warm_store_computes_the_missing_plans_alone() {
    // Keys that miss one at a time — other budgets, unroll factors and
    // extension sets of the benchmark already present — must come out as
    // they do when the whole benchmark is built in one go.
    let benches = [Benchmark::D, Benchmark::G];
    let regs = [4_u32, 16, 64, 512];
    let budgets: Vec<usize> = regs.iter().map(|&r| residency_budget(r)).collect();
    let ext_sets = [ExtSet::EMPTY, ExtSet::ALL];
    let want = per_budget_plans(&benches, &budgets, &UNROLL_SWEEP, &ext_sets);
    let store = PlanStore::new();
    for &r in regs.iter().rev() {
        for &u in &UNROLL_SWEEP {
            for exts in ext_sets {
                let _ = store.ensure_snapshot_extended(&benches, &[r], &[u], &[exts]);
            }
        }
    }
    let snap = store.ensure_snapshot_extended(&benches, &regs, &UNROLL_SWEEP, &ext_sets);
    // Ids follow first-interned order, which differs here; kernels and
    // keys must not.
    assert_eq!(snap.len(), want.1.len());
    for &((b, budget, u, exts), id) in &want.1 {
        let got = snap.get(b, budget, u, exts).expect("key present");
        assert!(
            *got == want.0[id],
            "{b} budget {budget} unroll {u} {exts:?}"
        );
    }
}

#[test]
fn the_residency_certificate_holds_across_both_stages_on_random_ir() {
    // What the plan pipeline relies on, stated on kernels it never
    // ships: a base run at budget B that peaked at p < B is the base run
    // of every B' in (p, B], and the re-optimized unrolled kernel built
    // on it, peaking at q, is the plan of every B' in (max(p, q), B].
    cases(0x2e05_0013, 24, |rng| {
        let source = common::build(&common::recipe(rng));
        let plan = |budget: usize, u: u32| {
            let mut k = source.clone();
            optimize_budgeted(&mut k, budget);
            let mut k = unroll(&k, u);
            optimize_budgeted(&mut k, budget);
            k
        };
        let peak_of = |k: &mut Kernel, budget: usize| {
            optimize_budgeted_traced(k, budget, &mut UnitTrace::disabled())
        };
        let top = peak_of(&mut source.clone(), usize::MAX) + 2;
        for budget in (0..=top).rev() {
            let mut base = source.clone();
            let p = peak_of(&mut base, budget);
            for u in [1, 2, 4] {
                let mut unrolled = unroll(&base, u);
                let q = peak_of(&mut unrolled, budget);
                for other in (p.max(q) + 1)..=budget {
                    assert!(
                        plan(other, u) == unrolled,
                        "budget {other} from {budget}, u {u}"
                    );
                }
            }
        }
    });
}

#[test]
fn the_paper_plan_set_runs_each_distinct_optimization_once() {
    // Clock-free guard for the plan build: the paper's experiment asks
    // for ten benchmarks x four register sizes x five unroll factors.
    // Optimizing each on its own is 232 runs; with budgets that never
    // bind answered by one run it must stay at or under 70.
    // Read off a plain traced run; one small machine per register size
    // puts the paper's four budgets in play.
    let rec = JsonlRecorder::deterministic();
    let config = ExploreConfig {
        archs: [64, 128, 256, 512]
            .into_iter()
            .map(|regs| ArchSpec::new(2, 1, regs, 1, 4, 1).expect("valid spec"))
            .collect(),
        benches: Benchmark::TABLE_COLUMNS.to_vec(),
        ..ExploreConfig::default()
    };
    let ex = Exploration::try_run_traced(&config, &rec).expect("the sweep runs");
    assert_eq!(ex.stats.unique_plans, 53);
    let events = rec.events();
    let build = events
        .iter()
        .find(|e| e.stage == Stage::PlanBuild)
        .expect("plan_build span");
    let field = |name: &str| build.field(name).and_then(|v| v.as_u64()).expect(name);
    assert_eq!(field("plans"), 192);
    assert_eq!(field("unique_kernels"), 53);
    let runs = field("opt_runs");
    assert!(runs <= 70, "{runs} optimizer runs for 192 plans");
    // Every plan came from its own budget's run or from a shared one,
    // and a run really made is one `scalarize` span in the trace.
    let own = 192 - field("opt_shared");
    assert!(own <= runs, "{own} own-budget plans from {runs} runs");
    let traced_runs = events
        .iter()
        .filter(|e| e.stage == Stage::Opt)
        .filter(|e| e.field("pass").and_then(|v| v.as_str()) == Some("scalarize"))
        .count() as u64;
    assert_eq!(traced_runs, runs);
}
