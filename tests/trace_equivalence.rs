//! The observability layer is free: recording every span changes no
//! result, and the default [`custom_fit::obs::NullRecorder`] keeps the
//! sweep's steady-state path allocation-free.
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

use custom_fit::dse::explore::{Exploration, ExploreConfig};
use custom_fit::dse::{Checkpoint, CompileCache, EvalScratch, Evaluator, PlanCache};
use custom_fit::machine::ArchSpec;
use custom_fit::obs::{JsonlRecorder, UnitTrace};
use custom_fit::prelude::Benchmark;
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
    let session = Evaluator {
        memo: Some(&memo),
        ..Evaluator::new(&cache)
    };
    let mut scratch = EvalScratch::new();

    // Warm-up: populate the compile memo and grow the scratch arena to
    // its steady-state size, exactly as a sweep worker's first units do.
    let mut warm = Vec::new();
    for &b in &benches {
        warm.push(
            session
                .evaluate(&spec, b, &mut scratch, &mut UnitTrace::disabled())
                .expect("warm-up evaluation"),
        );
    }

    // Steady state: the same units again with a disabled trace — the
    // exact path the sweep takes under the null recorder.
    let before = allocs();
    for round in 0..3 {
        for (wi, &b) in benches.iter().enumerate() {
            let m = session
                .evaluate(&spec, b, &mut scratch, &mut UnitTrace::disabled())
                .expect("steady-state evaluation");
            assert_eq!(
                m, warm[wi],
                "round {round}: steady state changed the result"
            );
            let t = session
                .evaluate(&spec, b, &mut scratch, &mut UnitTrace::disabled())
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
