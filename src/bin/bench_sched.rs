//! Wall-clock and step-count microbenchmark of the scheduler core.
//!
//! Times the hot path the exploration spends its life in —
//! [`cfp_sched::try_compile_core`] (cluster assignment, CSR DDG
//! build, per-row ready-queue scheduling, pressure analysis) with a reused
//! [`cfp_sched::SchedScratch`] — plus the modulo scheduler, over the
//! full kernel corpus crossed with a stratified + seeded-random sample
//! of architectures. Std-only on purpose (no criterion): it runs under
//! the tier-1 offline build, and the random extras come from
//! `cfp_testkit`'s SplitMix64 so the unit set is identical everywhere.
//!
//! Usage:
//!   `cargo run --release --bin bench_sched [-- <out.json>]` — time the
//!   corpus (keep-fastest of 3 reps) and write `BENCH_sched.json`.
//!
//!   `cargo run --release --bin bench_sched -- --check` — no timing:
//!   recompute the deterministic step and probe totals and fail (exit 1)
//!   if they exceed the budgets committed in
//!   `results/sched_step_budget.json`. Scheduler steps are semantic
//!   events (placements and ready-list scans) and probes are the ready
//!   queues' pops and refused peeks — the work an issue scan really
//!   does — both bit-identical on every platform, so this is a perf
//!   regression guard CI can enforce without ever reading a clock.

use custom_fit::machine::{ArchSpec, MachineResources};
use custom_fit::obs::UnitTrace;
use custom_fit::prelude::Benchmark;
use custom_fit::sched::{
    prepare, try_compile_core, try_modulo_schedule, Ddg, Fuel, Prepared, SchedScratch,
};
use std::time::Instant;

/// Where the `--check` budgets live.
const BUDGET_FILE: &str = "results/sched_step_budget.json";

/// Timed repetitions; the fastest is reported (the work is
/// deterministic, reps differ only in OS noise).
const REPS: usize = 3;

/// Stratified architecture sample: every datapath width class, cluster
/// counts 1/2/4/8, both port widths, both Level-2 latencies, the full
/// register range. Small enough to run in seconds, wide enough that the
/// scheduler's resource logic (bitmask rows, port masks, cluster moves)
/// all get exercised.
fn stratified() -> Vec<ArchSpec> {
    let specs = [
        (1_u32, 1_u32, 64_u32, 1_u32, 8_u32, 1_u32),
        (2, 1, 64, 1, 4, 1),
        (4, 2, 128, 1, 4, 1),
        (4, 2, 256, 2, 4, 1),
        (8, 2, 128, 1, 4, 4),
        (8, 4, 256, 2, 4, 2),
        (16, 4, 128, 1, 4, 8),
        (16, 8, 512, 4, 2, 4),
    ];
    specs
        .into_iter()
        .filter_map(|(a, m, r, p2, l2, c)| ArchSpec::new(a, m, r, p2, l2, c).ok())
        .collect()
}

/// Seeded-random extras on top of the stratified sample: SplitMix64
/// draws over the axis values, kept when they form a valid spec. Fixed
/// seed, fixed count — the corpus is part of the benchmark's identity.
fn random_extras(n: usize) -> Vec<ArchSpec> {
    let mut rng = cfp_testkit::Rng::new(0xC0DE_5EED);
    let alus = [2_u32, 4, 8, 16];
    let muls = [1_u32, 2, 4, 8];
    let regs = [64_u32, 128, 256, 512];
    let ports = [1_u32, 2, 4];
    let lats = [2_u32, 4, 8];
    let clusters = [1_u32, 2, 4];
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let spec = ArchSpec::new(
            *rng.pick(&alus),
            *rng.pick(&muls),
            *rng.pick(&regs),
            *rng.pick(&ports),
            *rng.pick(&lats),
            *rng.pick(&clusters),
        );
        if let Ok(s) = spec {
            out.push(s);
        }
    }
    out
}

/// The kernel corpus: every table benchmark, optimized, at unroll 1 and
/// 2 (unroll 2 doubles the body and is where the ready list earns its
/// keep; deeper unrolls belong to `bench_explore`'s end-to-end run).
fn kernels() -> Vec<(String, custom_fit::ir::Kernel)> {
    let mut out = Vec::new();
    for b in Benchmark::ALL {
        let mut k = b.kernel();
        custom_fit::opt::optimize(&mut k);
        out.push((format!("{b}x1"), k.clone()));
        out.push((format!("{b}x2"), custom_fit::opt::unroll::unroll(&k, 2)));
    }
    out
}

/// One full pass over the corpus: list-schedule every
/// `(kernel, architecture)` unit through the reused scratch, then
/// modulo-schedule the un-unrolled units. Returns the deterministic
/// totals; `prepared` is the pre-lowered corpus so the timed region is
/// the scheduler core, not the frontend.
struct PassTotals {
    units: u64,
    list_steps: u64,
    list_probes: u64,
    modulo_units: u64,
    modulo_scheduled: u64,
    modulo_steps: u64,
    ii_attempts: u64,
}

fn run_pass(
    corpus: &[(String, custom_fit::ir::Kernel)],
    machines: &[(ArchSpec, MachineResources)],
    prepared: &[Vec<Prepared>],
    scratch: &mut SchedScratch,
) -> PassTotals {
    let mut t = PassTotals {
        units: 0,
        list_steps: 0,
        list_probes: 0,
        modulo_units: 0,
        modulo_scheduled: 0,
        modulo_steps: 0,
        ii_attempts: 0,
    };
    // The pass goes through the traced entry points with a disabled
    // trace (the NullRecorder), so the step budgets below also guard
    // the span bookkeeping: if tracing ever leaked steps or changed a
    // schedule, `--check` would fail.
    let mut trace = UnitTrace::disabled();
    let probes_before = scratch.list_probes();
    for (ki, (name, _)) in corpus.iter().enumerate() {
        for (mi, (_, machine)) in machines.iter().enumerate() {
            let mut fuel = Fuel::unlimited();
            let core = match try_compile_core(
                &prepared[ki][mi],
                machine,
                &mut fuel,
                scratch,
                &mut trace,
            ) {
                Ok(core) => core,
                Err(e) => unreachable!("unlimited fuel cannot exhaust ({name}): {e}"),
            };
            t.units += 1;
            t.list_steps += core.steps;
            // Modulo scheduling overlaps loop iterations; it only makes
            // sense (and only terminates quickly) on un-unrolled bodies,
            // mirroring the pipelining exhibit.
            if name.ends_with("x1") {
                let ddg = Ddg::build_in(&core.assignment.code, scratch);
                let mut mfuel = Fuel::unlimited();
                let ms = match try_modulo_schedule(
                    &core.assignment,
                    &ddg,
                    machine,
                    core.length,
                    &mut mfuel,
                    scratch,
                    &mut trace,
                ) {
                    Ok(ms) => ms,
                    Err(e) => unreachable!("unlimited fuel cannot exhaust ({name}): {e}"),
                };
                t.modulo_units += 1;
                t.modulo_steps += mfuel.spent();
                if let Some(ms) = ms {
                    t.modulo_scheduled += 1;
                    t.ii_attempts += u64::from(ms.ii_attempts);
                }
            }
        }
    }
    t.list_probes = scratch.list_probes() - probes_before;
    t
}

/// Pull `"key": <integer>` out of a flat JSON object without a JSON
/// dependency. Good enough for the budget file this binary itself
/// writes.
fn json_u64(text: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let out = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_sched.json".to_string());

    let corpus = kernels();
    let mut machines: Vec<(ArchSpec, MachineResources)> = Vec::new();
    for spec in stratified().into_iter().chain(random_extras(4)) {
        machines.push((spec, MachineResources::from_spec(&spec)));
    }
    // Lowering is the cacheable `prepare` phase; do it once outside the
    // timed region so the measurement is the scheduler core alone.
    let prepared: Vec<Vec<Prepared>> = corpus
        .iter()
        .map(|(_, k)| {
            machines
                .iter()
                .map(|(_, m)| prepare(k, m, &mut UnitTrace::disabled()))
                .collect()
        })
        .collect();
    let mut scratch = SchedScratch::new();

    if check {
        let totals = run_pass(&corpus, &machines, &prepared, &mut scratch);
        let budget = match std::fs::read_to_string(BUDGET_FILE) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: cannot read {BUDGET_FILE}: {e}");
                std::process::exit(2);
            }
        };
        let (Some(max_steps), Some(max_probes), Some(max_attempts)) = (
            json_u64(&budget, "max_list_steps"),
            json_u64(&budget, "max_list_probes"),
            json_u64(&budget, "max_ii_attempts"),
        ) else {
            eprintln!(
                "error: {BUDGET_FILE} is missing max_list_steps/max_list_probes/max_ii_attempts"
            );
            std::process::exit(2);
        };
        println!(
            "list steps {} (budget {max_steps}), list probes {} (budget {max_probes}), \
             modulo II attempts {} (budget {max_attempts})",
            totals.list_steps, totals.list_probes, totals.ii_attempts
        );
        if totals.list_steps > max_steps
            || totals.list_probes > max_probes
            || totals.ii_attempts > max_attempts
        {
            eprintln!("error: scheduler step budget exceeded — the core regressed");
            std::process::exit(1);
        }
        println!("within budget");
        return;
    }

    let mut best_list = f64::INFINITY;
    let mut best_total = f64::INFINITY;
    let mut totals = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let pass = run_pass(&corpus, &machines, &prepared, &mut scratch);
        let total_s = t0.elapsed().as_secs_f64();
        // A second, list-only pass isolates the list scheduler from the
        // modulo ablation share of the wall time.
        let t1 = Instant::now();
        for row in &prepared {
            for (mi, (_, machine)) in machines.iter().enumerate() {
                let mut fuel = Fuel::unlimited();
                let _ = try_compile_core(
                    &row[mi],
                    machine,
                    &mut fuel,
                    &mut scratch,
                    &mut UnitTrace::disabled(),
                );
            }
        }
        let list_s = t1.elapsed().as_secs_f64();
        best_list = best_list.min(list_s);
        best_total = best_total.min(total_s);
        totals = Some(pass);
    }
    let t = totals.expect("REPS >= 1");

    let json = format!(
        "{{\n  \"benchmark\": \"scheduler core ({} kernels x {} architectures)\",\n  \
           \"reps\": {REPS},\n  \"units\": {},\n  \
           \"list_wall_s\": {:.4},\n  \"list_units_per_s\": {:.0},\n  \
           \"list_steps\": {},\n  \"list_probes\": {},\n  \
           \"modulo\": {{\"units\": {}, \"scheduled\": {}, \"steps\": {}, \
           \"ii_attempts\": {}}},\n  \
           \"full_pass_wall_s\": {:.4},\n  \"budget_file\": \"{BUDGET_FILE}\"\n}}\n",
        corpus.len(),
        machines.len(),
        t.units,
        best_list,
        t.units as f64 / best_list,
        t.list_steps,
        t.list_probes,
        t.modulo_units,
        t.modulo_scheduled,
        t.modulo_steps,
        t.ii_attempts,
        best_total,
    );
    std::fs::write(&out, &json).expect("write benchmark report");
    println!(
        "{} list-scheduled units in {:.3}s ({:.0}/s), {} scheduler steps, {} queue probes; \
         modulo pipelined {}/{} units with {} II attempts",
        t.units,
        best_list,
        t.units as f64 / best_list,
        t.list_steps,
        t.list_probes,
        t.modulo_scheduled,
        t.modulo_units,
        t.ii_attempts
    );
    println!("wrote {out}");
}
