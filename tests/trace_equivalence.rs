//! The observability layer is free: recording every span changes no
//! result, and the default [`custom_fit::obs::NullRecorder`] keeps the
//! sweep's steady-state path allocation-free.
//!
//! The same two contracts hold for the spans inside the modulo scheduler
//! and the exact-II certifier, which run off the sweep's path
//! (`PipelineProblem::schedule` and `::certify`).
//!
//! Two contracts, both from `cfp_obs`'s design:
//! * **Results-identical** — an exploration run under a live
//!   [`JsonlRecorder`] produces bit-identical speedups, outcomes, fuel
//!   verdicts, and checkpoint journals to the same run under the null
//!   recorder (which is what `Exploration::try_run` uses).
//! * **Zero-allocation off** — with a disabled trace, a warm worker's
//!   cached evaluation allocates nothing: the spans' field lists live
//!   on the stack and every string render is guarded by `trace.on()`.
//!   Proven here with a counting global allocator, not by inspection.
//!
//! The same allocator holds two more paths to their counts: the compile
//! path allocates per table, not per instruction, and the service's
//! result digest allocates nothing at all.

use custom_fit::dse::explore::{Exploration, ExploreConfig};
use custom_fit::dse::{Checkpoint, CompileCache, Evaluator, PlanCache};
use custom_fit::machine::{ArchSpec, MachineResources};
use custom_fit::obs::{JsonlRecorder, Stage, UnitTrace};
use custom_fit::prelude::Benchmark;
use custom_fit::sched::{
    work_counts, CertifyOutcome, CompileResult, Ddg, FuClass, Fuel, PipelineProblem,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// ---------------------------------------------------------------------
// A counting allocator: the System allocator plus a per-thread tally of
// allocation calls. Per-thread, so the parallel test harness and other
// tests in this binary cannot disturb a measurement.

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers entirely to `System`; the tally is a thread-local
// counter bump (`try_with`, so a late allocation during thread teardown
// is simply not counted rather than panicking).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

// ---------------------------------------------------------------------
// Results-identical: traced and untraced runs agree bit for bit.

/// Every observable result, compared bitwise. Outcome equality covers
/// measurements (cycles-per-output, unroll, spill flag, compilation
/// counts) and quarantine records (kind and message); speedup rows are
/// additionally compared through `to_bits` so `-0.0`/`0.0` or NaN
/// payload drift could not hide behind float `==`.
fn assert_results_identical(plain: &Exploration, traced: &Exploration) {
    assert_eq!(plain.benches, traced.benches);
    assert_eq!(plain.baseline.outcomes, traced.baseline.outcomes);
    assert_eq!(plain.archs.len(), traced.archs.len());
    for (a, (p, t)) in plain.archs.iter().zip(&traced.archs).enumerate() {
        assert_eq!(p.spec, t.spec);
        assert_eq!(p.cost.to_bits(), t.cost.to_bits(), "{}", p.spec);
        assert_eq!(p.outcomes, t.outcomes, "{}", p.spec);
        let pr: Vec<u64> = plain.speedup_row(a).iter().map(|s| s.to_bits()).collect();
        let tr: Vec<u64> = traced.speedup_row(a).iter().map(|s| s.to_bits()).collect();
        assert_eq!(pr, tr, "{}", p.spec);
    }
    assert_eq!(plain.stats.compilations, traced.stats.compilations);
    assert_eq!(plain.stats.cache_hits, traced.stats.cache_hits);
    assert_eq!(plain.stats.unique_schedules, traced.stats.unique_schedules);
    assert_eq!(plain.stats.unique_plans, traced.stats.unique_plans);
    assert_eq!(plain.stats.failed_units, traced.stats.failed_units);
    assert_eq!(plain.stats.fuel_exhausted, traced.stats.fuel_exhausted);
}

#[test]
fn traced_exploration_is_bit_identical_to_untraced() {
    let cfg = ExploreConfig::smoke();
    let plain = Exploration::try_run(&cfg).expect("smoke run");
    let rec = JsonlRecorder::new();
    let traced = Exploration::try_run_traced(&cfg, &rec).expect("traced smoke run");
    assert_results_identical(&plain, &traced);
    // The trace really recorded the sweep (one unit span per pair plus
    // per-stage compile spans), it did not just stay out of the way.
    let units = cfg.archs.len() * cfg.benches.len() + cfg.benches.len();
    assert!(
        rec.len() > units,
        "expected more than {units} spans, got {}",
        rec.len()
    );
}

#[test]
fn traced_fuel_verdicts_are_bit_identical_to_untraced() {
    // A budget wide enough for the baseline but too tight for some
    // deep-unroll compilations on the big machines (the same shape as
    // `explore`'s own budgeted test): the traced run must cut exactly
    // the same sweeps at exactly the same unrolls, and quarantine
    // exactly the same units — fuel verdicts are step counts, and
    // tracing must not add or leak steps.
    let mut cfg = ExploreConfig::smoke();
    cfg.benches = vec![Benchmark::D, Benchmark::G];
    cfg.fuel = Some(2_000);
    let plain = Exploration::try_run(&cfg).expect("fuel-budget run");
    let rec = JsonlRecorder::new();
    let traced = Exploration::try_run_traced(&cfg, &rec).expect("traced fuel-budget run");
    assert_results_identical(&plain, &traced);
    // Prove the budget was binding — an unlimited run measures at least
    // one unit differently — so the equivalence above really compared
    // fuel-shaped results, not an untouched sweep.
    let mut unlimited_cfg = ExploreConfig::smoke();
    unlimited_cfg.benches = cfg.benches.clone();
    let unlimited = Exploration::try_run(&unlimited_cfg).expect("unlimited run");
    assert!(
        plain
            .archs
            .iter()
            .zip(&unlimited.archs)
            .any(|(p, u)| p.outcomes != u.outcomes),
        "fuel budget {:?} changed nothing; the verdict equivalence is vacuous",
        cfg.fuel
    );
}

#[test]
fn checkpoint_journals_are_byte_identical_with_tracing_on() {
    // Identical fingerprints are necessary but not sufficient; the whole
    // journal — header, unit order, serialized outcomes — must match, so
    // a journal written under tracing resumes a run without it (and vice
    // versa). Single-threaded so unit completion order is defined.
    let dir = std::env::temp_dir();
    let plain_path = dir.join(format!("cfp_trace_eq_plain_{}.journal", std::process::id()));
    let traced_path = dir.join(format!(
        "cfp_trace_eq_traced_{}.journal",
        std::process::id()
    ));
    let config = |ck: Checkpoint| {
        let mut cfg = ExploreConfig::smoke();
        cfg.threads = 1;
        cfg.checkpoint = Some(ck);
        cfg
    };

    let plain_cfg = config(Checkpoint::new(&plain_path));
    let plain = Exploration::try_run(&plain_cfg).expect("plain checkpointed run");
    let rec = JsonlRecorder::new();
    let traced_cfg = config(Checkpoint::new(&traced_path));
    let traced = Exploration::try_run_traced(&traced_cfg, &rec).expect("traced checkpointed run");

    let plain_journal = std::fs::read_to_string(&plain_path).expect("read plain journal");
    let traced_journal = std::fs::read_to_string(&traced_path).expect("read traced journal");
    let _ = std::fs::remove_file(&plain_path);
    let _ = std::fs::remove_file(&traced_path);

    assert_results_identical(&plain, &traced);
    assert_eq!(
        plain_journal, traced_journal,
        "checkpoint journals diverged under tracing"
    );
    // Both runs journaled under the same fingerprint (the recorder is
    // not an input to it), which the byte equality already implies; the
    // explicit check documents the contract.
    assert_eq!(
        custom_fit::dse::checkpoint::fingerprint(&plain_cfg),
        custom_fit::dse::checkpoint::fingerprint(&traced_cfg),
    );
}

// ---------------------------------------------------------------------
// Zero-allocation off: the null path costs nothing on a warm worker.

#[test]
fn the_allocation_counter_itself_works() {
    let before = allocs();
    let v: Vec<u64> = Vec::with_capacity(512);
    assert!(allocs() > before, "the counting allocator is not wired in");
    drop(v);
}

#[test]
fn null_recorder_steady_state_allocates_nothing() {
    let benches = [Benchmark::A, Benchmark::D];
    let spec = ArchSpec::new(8, 4, 256, 2, 4, 2).expect("valid spec");
    let cache = PlanCache::build(&benches, &[spec.regs], &[1, 2, 4, 8]);
    let memo = CompileCache::new();
    let session = Evaluator::new(&cache, &memo);

    // Warm-up: populate the compile memo and grow the scratch arena to
    // its steady-state size, exactly as a sweep worker's first units do.
    let mut warm = Vec::new();
    for &b in &benches {
        warm.push(
            session
                .evaluate(&spec, b, &mut UnitTrace::disabled())
                .expect("warm-up evaluation"),
        );
    }

    // Steady state: the same units again with a disabled trace — the
    // exact path the sweep takes under the null recorder.
    let before = allocs();
    for round in 0..3 {
        for (wi, &b) in benches.iter().enumerate() {
            let m = session
                .evaluate(&spec, b, &mut UnitTrace::disabled())
                .expect("steady-state evaluation");
            assert_eq!(
                m, warm[wi],
                "round {round}: steady state changed the result"
            );
            let t = session
                .evaluate(&spec, b, &mut UnitTrace::disabled())
                .expect("steady-state traced evaluation");
            assert_eq!(
                t, warm[wi],
                "round {round}: disabled trace changed the result"
            );
        }
    }
    let allocated = allocs() - before;
    assert_eq!(
        allocated, 0,
        "the warm cached-evaluation path allocated {allocated} times under a disabled trace"
    );
}

// ---------------------------------------------------------------------
// The solvers' spans: the modulo search and the exact certifier.

/// Benchmark D, optimized and compiled for `spec`.
fn compiled(spec: &ArchSpec) -> (MachineResources, CompileResult) {
    let mut kernel = Benchmark::D.kernel();
    custom_fit::opt::optimize(&mut kernel);
    let machine = MachineResources::from_spec(spec);
    let r = custom_fit::sched::compile(&kernel, &machine);
    (machine, r)
}

#[test]
fn traced_solvers_are_bit_identical_to_untraced() {
    // Pipelined Level-2 ports put the optimum below the heuristic's
    // latency clamp, so the certifier really searches.
    let spec = ArchSpec::new(8, 4, 256, 4, 8, 1)
        .expect("valid spec")
        .with_pipelined_l2();
    let (machine, r) = compiled(&spec);
    let ddg = Ddg::build(&r.assignment.code);
    let problem = PipelineProblem::new(&r.assignment, &ddg, &machine, r.length);
    let run = |trace: &mut UnitTrace<'_>| {
        let (mut fuel, before) = (Fuel::unlimited(), work_counts());
        let ms = problem
            .schedule(&mut fuel, trace)
            .expect("unlimited fuel")
            .expect("schedulable");
        let after = work_counts();
        let mut exact_fuel = Fuel::limited(2_000_000);
        let verdict = problem.certify(Some(ms.ii), &mut exact_fuel, trace);
        (
            (ms.ii, ms.slots, ms.mii, ms.ii_attempts, fuel.spent()),
            (
                after.modulo_attempts - before.modulo_attempts,
                after.modulo_probes - before.modulo_probes,
            ),
            (verdict, exact_fuel.spent()),
        )
    };
    let plain = run(&mut UnitTrace::disabled());
    let rec = JsonlRecorder::new();
    let traced = run(&mut UnitTrace::new(&rec, 0));
    assert_eq!(plain, traced);

    // The trace says what happened, in the solvers' own numbers.
    let ((ii, _, mii, ii_attempts, steps), _, (verdict, exact_steps)) = plain;
    let events = rec.events();
    assert_eq!(events.len(), 2);
    let u = |e: usize, name: &str| events[e].field(name).and_then(|v| v.as_u64());
    assert_eq!(events[0].stage, Stage::Modulo);
    assert_eq!(u(0, "ii"), Some(u64::from(ii)));
    assert_eq!(u(0, "mii"), Some(u64::from(mii)));
    assert_eq!(u(0, "ii_attempts"), Some(u64::from(ii_attempts)));
    assert_eq!(u(0, "steps"), Some(steps));
    let CertifyOutcome::Certified {
        min_ii,
        proved_infeasible,
        ..
    } = verdict
    else {
        panic!("expected a certified improvement, got {verdict:?}");
    };
    assert_eq!(events[1].stage, Stage::Exact);
    assert_eq!(
        events[1].field("verdict").and_then(|v| v.as_str()),
        Some("certified")
    );
    assert_eq!(u(1, "lower"), Some(u64::from(problem.exact_mii())));
    assert_eq!(u(1, "decided"), Some(u64::from(proved_infeasible) + 1));
    assert_eq!(u(1, "at_ii"), Some(u64::from(min_ii)));
    assert_eq!(u(1, "steps"), Some(exact_steps));
    assert!(u(1, "n").is_some_and(|n| n > 0));
}

#[test]
fn a_search_that_gives_up_says_why_and_allocates_nothing_when_off() {
    // One multiplier, on cluster 0. Forcing a multiply onto cluster 1
    // leaves it no unit at any II: the search must say `missing_unit`
    // (with how many IIs it tried), the certifier `unschedulable`, and
    // with recording off neither may allocate — the search works in the
    // warm arena, and the span fields live on the stack.
    let spec = ArchSpec::new(4, 1, 128, 1, 4, 2).expect("valid spec");
    let (machine, mut r) = compiled(&spec);
    let mul = r
        .assignment
        .code
        .ops
        .iter()
        .position(|op| op.class == FuClass::Mul)
        .expect("benchmark D multiplies");
    assert_eq!(r.assignment.cluster_of_op[mul], 0);
    r.assignment.cluster_of_op[mul] = 1;
    let ddg = Ddg::build(&r.assignment.code);
    let problem = PipelineProblem::new(&r.assignment, &ddg, &machine, r.length);

    let rec = JsonlRecorder::new();
    let mut trace = UnitTrace::new(&rec, 0);
    let before = work_counts().modulo_attempts;
    let traced = problem
        .schedule(&mut Fuel::unlimited(), &mut trace)
        .expect("unlimited fuel");
    let attempts = work_counts().modulo_attempts - before;
    assert!(traced.is_none());
    let verdict = problem.certify(None, &mut Fuel::limited(1_000), &mut trace);
    assert_eq!(verdict, CertifyOutcome::Unschedulable);
    let events = rec.events();
    assert_eq!(events.len(), 2);
    let s = |e: usize, name: &str| events[e].field(name).and_then(|v| v.as_str());
    assert_eq!(
        events[0].field("feasible").and_then(|v| v.as_bool()),
        Some(false)
    );
    assert_eq!(s(0, "reason"), Some("missing_unit"));
    assert_eq!(
        events[0].field("ii_attempts").and_then(|v| v.as_u64()),
        Some(attempts)
    );
    assert_eq!(s(1, "verdict"), Some("unschedulable"));

    // The arena is warm now; the same two calls with recording off.
    let before = allocs();
    let plain = problem
        .schedule(&mut Fuel::unlimited(), &mut UnitTrace::disabled())
        .expect("unlimited fuel");
    let off = problem.certify(None, &mut Fuel::limited(1_000), &mut UnitTrace::disabled());
    let allocated = allocs() - before;
    assert!(plain.is_none());
    assert_eq!(off, verdict);
    assert_eq!(
        allocated, 0,
        "a failed search and an instant verdict allocated {allocated} times under a disabled trace"
    );
}

// ---------------------------------------------------------------------
// Dense tables: the compile path allocates per table, not per
// instruction.

/// Heap allocations of each step of the `cfpc` path on `bench` unrolled
/// `unroll` times: `unroll`, `vreg_count` of the unrolled kernel,
/// `optimize_budgeted`, `LoopCode::build`, `allocate`, `encode`,
/// `simulate`, in that order, then the body length. `encode`'s count leaves out the vectors of the
/// program it returns (each word owns an op list and an immediate pool),
/// which grow with the schedule by definition.
fn compile_path_allocations(bench: Benchmark, unroll: u32) -> ([u64; 7], usize) {
    use custom_fit::sched::{allocate, encode, simulate, LoopCode};
    let spec = ArchSpec::new(16, 8, 512, 4, 2, 1).expect("valid spec");
    let machine = MachineResources::from_spec(&spec);
    let budget = custom_fit::dse::eval::residency_budget(spec.regs);
    let mut base = bench.kernel();
    custom_fit::opt::optimize_budgeted(&mut base, budget);

    let mut counts = [0_u64; 7];
    let mut step = 0;
    let mut counted = |f: &mut dyn FnMut()| {
        let before = allocs();
        f();
        counts[step] = allocs() - before;
        step += 1;
    };
    let mut kernel = base.clone();
    counted(&mut || kernel = custom_fit::opt::unroll::unroll(&base, unroll));
    counted(&mut || {
        std::hint::black_box(kernel.vreg_count());
    });
    counted(&mut || custom_fit::opt::optimize_budgeted(&mut kernel, budget));
    let mut code = None;
    counted(&mut || code = Some(LoopCode::build(&kernel, &machine)));
    drop(code);
    let result = custom_fit::sched::compile(&kernel, &machine);
    assert!(result.fits(), "{bench} x{unroll} must fit to be encoded");
    let mut phys = None;
    counted(&mut || phys = Some(allocate(&result.assignment, &result.schedule, &machine)));
    assert!(phys.is_some_and(|p| p.is_ok()));
    let mut program = None;
    counted(&mut || program = Some(encode(&result.assignment, &result.schedule, &machine)));
    let program = program.expect("ran").expect("encodes");
    let mut mem = bench.workload(16, 1).image();
    let iters = 16 / u64::from(unroll);
    let mut stats = None;
    counted(&mut || stats = Some(simulate(&kernel, &result, &machine, &mut mem, iters)));
    assert!(stats.is_some_and(|s| s.is_ok()));
    let own_vectors = 1 + program
        .words
        .iter()
        .map(|w| u64::from(!w.ops.is_empty()) + u64::from(!w.imms.is_empty()))
        .sum::<u64>();
    counts[5] -= own_vectors;
    (counts, kernel.body.len())
}

/// What unrolling may add to any one step's allocation count: one more
/// round of the optimizer's fixed point (a kernel clone and each pass's
/// handful of tables) and a few doublings of a growing vector.
const UNROLL_ALLOCATION_SLACK: u64 = 32;

#[test]
fn compile_path_allocations_do_not_grow_with_the_body() {
    const STEPS: [&str; 7] = [
        "unroll",
        "vreg_count",
        "optimize_budgeted",
        "LoopCode::build",
        "allocate",
        "encode",
        "simulate",
    ];
    // A stencil and the IDCT: eight times the body, the same tables.
    for bench in [Benchmark::A, Benchmark::C] {
        let (rolled, small) = compile_path_allocations(bench, 1);
        let (unrolled, large) = compile_path_allocations(bench, 8);
        assert!(large >= 5 * small, "{bench}: {small} -> {large} ops");
        for ((step, at_1), at_8) in STEPS.iter().zip(rolled).zip(unrolled) {
            assert!(
                at_8 <= at_1 + UNROLL_ALLOCATION_SLACK,
                "{bench}: {step} allocated {at_1} times on {small} ops and {at_8} on {large}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The service's result digest: every architecture's spec is folded in
// as its `Display` text, written straight into the hash.

#[test]
fn the_result_digest_allocates_nothing() {
    let mut cfg = ExploreConfig::smoke();
    cfg.archs.truncate(3);
    cfg.benches = vec![Benchmark::D, Benchmark::G];
    let ex = Exploration::run(&cfg);
    let first = custom_fit::serve::job::result_digest(&ex);
    let before = allocs();
    let again = custom_fit::serve::job::result_digest(&ex);
    let allocated = allocs() - before;
    assert_eq!(first, again);
    assert_eq!(
        allocated,
        0,
        "result_digest allocated {allocated} times over {} architectures",
        ex.archs.len() + 1
    );
}
