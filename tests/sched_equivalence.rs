//! The scheduler's data-structure engineering must be invisible: the
//! CSR dependence graph, the per-row packed-key ready queues walked off
//! the machine description's reservation table, its counted rows, and
//! the modulo scheduler's II-skip bound are all pure representation
//! changes. This suite pins them to the straightforward implementations
//! they replaced (the oracle below reads the spec's per-cluster shapes,
//! a model independent of the description the scheduler reads):
//!
//! 1. an in-test *oracle* list scheduler — the original `Vec`-based
//!    ready list, per-port free-at vectors, and counter-based issue
//!    slots, transcribed verbatim — must produce the same schedule AND
//!    the same fuel trace (`Fuel::spent`, exhaustion verdicts at tight
//!    budgets, `SchedCore::steps`) as the production path on real
//!    kernels across a stratified architecture sample, and on seeded
//!    synthetic instances aimed at the row interactions those kernels
//!    under-sample (scarce multipliers, eight clusters, pipelined
//!    Level-2, more than 64 ALU slots, every extension set, an op with no
//!    row to issue on, tight fuel) — the portfolio over it stopping, as
//!    production's does, after a critical-path arm that meets
//!    `max(critical path, ResMII)`;
//! 2. that bound is at most either arm's length, and the stop changes
//!    the portfolio's fuel and nothing else (shipped kernels at unroll
//!    1–4 and seeded memory-heavy kernels, the generator
//!    `crates/sched/src/testgen.rs` shares with `cfp-sched`'s own tests);
//! 3. an oracle modulo scheduler running the original full II search
//!    (no infeasible-II skipping, one candidate slot at a time, ops in
//!    index order) must reach the same `(ii, slots, mii)` on every unit
//!    cluster assignment inserted no move into — evidence the capacity
//!    bound only ever skips IIs that could not have been scheduled
//!    anyway, and the probe scan only candidates that could not have
//!    fit; a unit with moves, which index order cannot place at any II,
//!    must pipeline and validate, and a search's fuel is still the
//!    one-at-a-time scan's, to the step;
//! 4. the CSR graph round-trips through its flat edge list on seeded
//!    random DAGs, and both adjacency views agree edge for edge.

mod common;
#[path = "../crates/sched/src/testgen.rs"]
mod testgen;

use cfp_testkit::{cases, Rng};
use custom_fit::ir::Kernel;
use custom_fit::machine::{ArchSpec, ExtSet, MachineResources, UnitClass};
use custom_fit::obs::{JsonlRecorder, Stage, UnitTrace};
use custom_fit::prelude::Benchmark;
use custom_fit::sched::cluster::assign;
use custom_fit::sched::list::schedule_with_fuel_in;
use custom_fit::sched::{
    omega_deps, prepare, rec_mii, res_mii, try_compile_core, try_modulo_schedule, try_schedule_in,
    validate_modulo, Assignment, Ddg, Dep, DepKind, FuClass, Fuel, HomeTable, LoopCode,
    ModuloSchedule, OmegaDep, OpOrigin, Placement, Priority, SOp, SchedError, SchedScratch,
    Schedule, Uses,
};

/// The old scheduler's hard cycle cap (unchanged in the rewrite).
const MAX_CYCLES: u32 = 1 << 20;

/// The original list scheduler, transcribed from the pre-rewrite source:
/// one flat ready list re-sorted every cycle, per-cluster counter issue
/// slots, per-port free-at vectors, and the re-scan-until-quiescent
/// inner loop whose scans price the fuel. Three spellings changed: the
/// dependence-graph accessors (`ddg.preds[i]` → `ddg.pred_count(i)`),
/// the resource an op class issues on (read from the machine
/// description's registered rows, so fused classes issue on the unit
/// they upgrade and an unregistered class never issues), and a port's
/// busy time (the description's reservation, which is the op's latency
/// on the non-pipelined ports the original knew).
fn oracle_schedule_with_fuel(
    assignment: &Assignment,
    ddg: &Ddg,
    machine: &MachineResources,
    priority: Priority,
    fuel: &mut Fuel,
) -> Result<Schedule, SchedError> {
    let code = &assignment.code;
    let n = code.ops.len();
    let branch = code.branch_index();

    let mut pending: Vec<usize> = (0..n).map(|i| ddg.pred_count(i) as usize).collect();
    let mut earliest = vec![0_u32; n];
    let mut issue = vec![u32::MAX; n];

    let nc = machine.cluster_count();
    let mut l1_ports: Vec<Vec<u32>> = (0..nc)
        .map(|c| vec![0; machine.clusters[c].l1_ports as usize])
        .collect();
    let mut l2_ports: Vec<Vec<u32>> = (0..nc)
        .map(|c| vec![0; machine.clusters[c].l2_ports as usize])
        .collect();

    let mut unit_of = [None; 8];
    for class in machine.mdes.registered_classes() {
        unit_of[class.code() as usize] = Some(machine.mdes.op(class).unit);
    }

    let mut ready: Vec<usize> = (0..n).filter(|&i| pending[i] == 0 && i != branch).collect();
    let mut scheduled = 0_usize;
    let total_non_branch = n - 1;

    let mut t = 0_u32;
    while scheduled < total_non_branch {
        if t >= MAX_CYCLES {
            return Err(SchedError::CycleCapExceeded { cap: MAX_CYCLES });
        }
        match priority {
            Priority::CriticalPath => {
                ready.sort_by(|&a, &b| ddg.height[b].cmp(&ddg.height[a]).then(a.cmp(&b)));
            }
            Priority::SourceOrder => ready.sort_unstable(),
        }
        let mut alu_used = vec![0_u32; nc];
        let mut mul_used = vec![0_u32; nc];
        let mut issued_any = true;
        while issued_any {
            issued_any = false;
            fuel.spend(1 + ready.len() as u64)?;
            let mut next_ready = Vec::with_capacity(ready.len());
            for &i in &ready {
                if issue[i] != u32::MAX {
                    continue;
                }
                if earliest[i] > t {
                    next_ready.push(i);
                    continue;
                }
                let c = assignment.cluster_of_op[i] as usize;
                let class = code.ops[i].class;
                let ok = match unit_of[class.code() as usize] {
                    Some(UnitClass::Alu) => {
                        if alu_used[c] < machine.clusters[c].alus {
                            alu_used[c] += 1;
                            true
                        } else {
                            false
                        }
                    }
                    Some(UnitClass::Mul) => {
                        if alu_used[c] < machine.clusters[c].alus
                            && mul_used[c] < machine.clusters[c].muls
                        {
                            alu_used[c] += 1;
                            mul_used[c] += 1;
                            true
                        } else {
                            false
                        }
                    }
                    Some(unit @ (UnitClass::L1Port | UnitClass::L2Port)) => {
                        let ports = if unit == UnitClass::L2Port {
                            &mut l2_ports[c]
                        } else {
                            &mut l1_ports[c]
                        };
                        match ports.iter_mut().find(|free_at| **free_at <= t) {
                            Some(slot) => {
                                *slot = t + machine.reserved_cycles(class);
                                true
                            }
                            None => false,
                        }
                    }
                    Some(UnitClass::Branch) | None => false,
                };
                if ok {
                    issue[i] = t;
                    scheduled += 1;
                    issued_any = true;
                    for d in ddg.succs(i) {
                        let to = d.to as usize;
                        pending[to] -= 1;
                        earliest[to] = earliest[to].max(t + d.lat);
                        if pending[to] == 0 && to != branch {
                            next_ready.push(to);
                        }
                    }
                } else {
                    next_ready.push(i);
                }
            }
            ready = next_ready;
        }
        t += 1;
    }

    let last_issue = issue
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != branch)
        .map(|(_, &v)| v)
        .max()
        .unwrap_or(0);
    issue[branch] = last_issue.max(earliest[branch]);

    let mut length = issue[branch] + 1;
    for (i, op) in code.ops.iter().enumerate() {
        length = length.max(issue[i] + op.latency.max(1));
    }

    let placements = (0..n)
        .map(|i| Placement {
            cycle: issue[i],
            cluster: assignment.cluster_of_op[i],
        })
        .collect();
    Ok(Schedule { placements, length })
}

/// The original two-heuristic portfolio under today's stopping rule:
/// the source-order arm runs only when the critical-path arm falls short
/// of `max(critical path, ResMII)`.
fn oracle_try_schedule(
    assignment: &Assignment,
    ddg: &Ddg,
    machine: &MachineResources,
    fuel: &mut Fuel,
) -> Result<Schedule, SchedError> {
    let cp = oracle_schedule_with_fuel(assignment, ddg, machine, Priority::CriticalPath, fuel)?;
    if cp.length == lower_bound(assignment, ddg, machine) {
        return Ok(cp);
    }
    let so = oracle_schedule_with_fuel(assignment, ddg, machine, Priority::SourceOrder, fuel)?;
    Ok(if so.length < cp.length { so } else { cp })
}

/// `max(critical path, ResMII)`: no list schedule of the assigned code
/// is shorter.
fn lower_bound(assignment: &Assignment, ddg: &Ddg, machine: &MachineResources) -> u32 {
    ddg.critical_path()
        .max(res_mii(&assignment.code, assignment, machine))
}

/// The equivalence corpus: every table benchmark (optimized) on a
/// stratified spread of machines, plus the unroll-2 bodies on two of
/// them (bigger ready lists, same invariants). Debug-build friendly.
fn corpus() -> (Vec<custom_fit::ir::Kernel>, Vec<ArchSpec>) {
    let kernels: Vec<_> = Benchmark::ALL
        .iter()
        .map(|b| {
            let mut k = b.kernel();
            custom_fit::opt::optimize(&mut k);
            k
        })
        .collect();
    let specs = [
        (1_u32, 1_u32, 64_u32, 1_u32, 8_u32, 1_u32),
        (2, 1, 64, 1, 4, 1),
        (4, 2, 128, 1, 4, 2),
        (8, 4, 256, 2, 4, 2),
        (16, 4, 128, 1, 4, 8),
        (16, 8, 512, 4, 2, 4),
    ];
    let specs = specs
        .into_iter()
        .filter_map(|(a, m, r, p2, l2, c)| ArchSpec::new(a, m, r, p2, l2, c).ok())
        .collect();
    (kernels, specs)
}

#[test]
fn list_scheduler_matches_the_oracle_in_schedule_and_fuel() {
    let (kernels, specs) = corpus();
    let mut scratch = SchedScratch::new();
    let mut checked = 0;
    for spec in &specs {
        let machine = MachineResources::from_spec(spec);
        for (ki, kernel) in kernels.iter().enumerate() {
            for unroll in [1_u32, 2] {
                if unroll == 2 && checked % 3 != 0 {
                    continue; // unroll-2 on a third of the units: slower, same logic
                }
                let k = if unroll == 1 {
                    kernel.clone()
                } else {
                    custom_fit::opt::unroll::unroll(kernel, 2)
                };
                let prepared = prepare(&k, &machine, &mut UnitTrace::disabled());
                let assignment = assign(&prepared.code, &prepared.ddg, &machine);
                let ddg = Ddg::build(&assignment.code);

                let mut oracle_fuel = Fuel::unlimited();
                let oracle = oracle_try_schedule(&assignment, &ddg, &machine, &mut oracle_fuel)
                    .expect("unlimited fuel");
                let mut new_fuel = Fuel::unlimited();
                let new = try_schedule_in(&assignment, &ddg, &machine, &mut new_fuel, &mut scratch)
                    .expect("unlimited fuel");

                assert_eq!(new, oracle, "{spec} kernel {ki} x{unroll}");
                assert_eq!(
                    new_fuel.spent(),
                    oracle_fuel.spent(),
                    "{spec} kernel {ki} x{unroll}: fuel must price the same semantic events"
                );

                // `SchedCore::steps` is exactly the list scheduler's fuel.
                let core = try_compile_core(
                    &prepared,
                    &machine,
                    &mut Fuel::unlimited(),
                    &mut scratch,
                    &mut UnitTrace::disabled(),
                )
                .expect("unlimited fuel");
                assert_eq!(core.steps, new_fuel.spent(), "{spec} kernel {ki} x{unroll}");
                checked += 1;
            }
        }
    }
    assert!(checked > 40, "corpus unexpectedly small ({checked} units)");
}

#[test]
fn fuel_exhaustion_verdicts_are_identical_at_tight_budgets() {
    let (kernels, specs) = corpus();
    let mut scratch = SchedScratch::new();
    for spec in specs.iter().take(3) {
        let machine = MachineResources::from_spec(spec);
        for (ki, kernel) in kernels.iter().enumerate() {
            let prepared = prepare(kernel, &machine, &mut UnitTrace::disabled());
            let assignment = assign(&prepared.code, &prepared.ddg, &machine);
            let ddg = Ddg::build(&assignment.code);
            let mut full = Fuel::unlimited();
            let reference = try_schedule_in(&assignment, &ddg, &machine, &mut full, &mut scratch)
                .expect("unlimited fuel");
            let spent = full.spent();

            for budget in [1, spent / 2, spent - 1, spent] {
                let mut of = Fuel::limited(budget);
                let o = oracle_try_schedule(&assignment, &ddg, &machine, &mut of);
                let mut nf = Fuel::limited(budget);
                let n = try_schedule_in(&assignment, &ddg, &machine, &mut nf, &mut scratch);
                assert_eq!(o, n, "{spec} kernel {ki} budget {budget}/{spent}");
                assert_eq!(
                    of.spent(),
                    nf.spent(),
                    "{spec} kernel {ki} budget {budget}/{spent}"
                );
                if budget == spent {
                    assert_eq!(n.expect("exact budget suffices"), reference);
                }
            }
        }
    }
}

/// The portfolio's early stop, on every table kernel at unroll 1, 2 and 4
/// across the stratified machines and on seeded memory-heavy kernels:
/// `max(critical path, ResMII)` is at most either arm's length; stopping
/// once the critical-path arm meets it returns the schedule both arms
/// keep; `SchedCore::steps` is that arm's fuel when the bound is met and
/// both arms' otherwise; and the `list` span reports the bound and the
/// arms that ran.
#[test]
fn the_portfolio_stops_where_the_bound_certifies_the_first_arm() {
    let mut scratch = SchedScratch::new();
    let (mut units, mut certified) = (0, 0);
    let mut check = |kernel: &Kernel, spec: &ArchSpec, what: &str| {
        let machine = MachineResources::from_spec(spec);
        let prepared = prepare(kernel, &machine, &mut UnitTrace::disabled());
        let assignment = assign(&prepared.code, &prepared.ddg, &machine);
        let ddg = Ddg::build(&assignment.code);
        let mut arm = |priority| {
            let mut fuel = Fuel::unlimited();
            let s = schedule_with_fuel_in(
                &assignment,
                &ddg,
                &machine,
                priority,
                &mut fuel,
                &mut scratch,
            )
            .expect("unlimited fuel");
            (s, fuel.spent())
        };
        let (cp, cp_fuel) = arm(Priority::CriticalPath);
        let (so, so_fuel) = arm(Priority::SourceOrder);
        let bound = lower_bound(&assignment, &ddg, &machine);
        assert!(bound <= cp.length, "{what}: bound {bound} > {}", cp.length);
        assert!(bound <= so.length, "{what}: bound {bound} > {}", so.length);
        let met = cp.length == bound;
        let both = if so.length < cp.length { so } else { cp };
        let steps = if met { cp_fuel } else { cp_fuel + so_fuel };

        let mut fuel = Fuel::unlimited();
        let stopped = try_schedule_in(&assignment, &ddg, &machine, &mut fuel, &mut scratch)
            .expect("unlimited fuel");
        assert_eq!(stopped, both, "{what}");
        assert_eq!(fuel.spent(), steps, "{what}");

        let rec = JsonlRecorder::new();
        let core = try_compile_core(
            &prepared,
            &machine,
            &mut Fuel::unlimited(),
            &mut scratch,
            &mut UnitTrace::new(&rec, 0),
        )
        .expect("unlimited fuel");
        assert_eq!(core.schedule, both, "{what}");
        assert_eq!(core.steps, steps, "{what}");
        let list = rec
            .events()
            .into_iter()
            .find(|e| e.stage == Stage::List)
            .expect("a list span");
        let field = |name| list.field(name).and_then(|v| v.as_u64());
        assert_eq!(field("bound"), Some(u64::from(bound)), "{what}");
        assert_eq!(field("arms"), Some(if met { 1 } else { 2 }), "{what}");
        units += 1;
        certified += u32::from(met);
    };
    let (kernels, _) = corpus();
    for spec in &common::stratified() {
        for (ki, kernel) in kernels.iter().enumerate() {
            for u in [1, 2, 4] {
                let k = custom_fit::opt::unroll::unroll(kernel, u);
                check(&k, spec, &format!("{spec} kernel {ki} x{u}"));
            }
        }
    }
    for case in 0..40 {
        let k = testgen::memory_heavy(&mut Rng::new(0x5709_0001 + case));
        for spec in &common::stratified() {
            check(&k, spec, &format!("{spec} memory heavy {case}"));
        }
    }
    assert!(
        certified > 0 && certified < units,
        "both branches of the stop must be exercised ({certified} of {units} certified)"
    );
}

/// A scheduling instance built directly rather than compiled: `n` ops
/// whose classes are drawn from `classes` (repeat a class to weight
/// it), each on a random cluster that has its unit, over a random
/// forward DAG whose edge latencies reach past the producers' own (so
/// the calendar ring is wider than any op latency), closed by the loop
/// branch. The list scheduler reads nothing else of an assignment.
fn synthetic(
    rng: &mut Rng,
    machine: &MachineResources,
    classes: &[FuClass],
    n: usize,
) -> (Assignment, Ddg) {
    let nc = machine.cluster_count();
    let mut ops = Vec::with_capacity(n);
    let mut cluster_of_op = Vec::with_capacity(n);
    for i in 0..n {
        let (class, origin) = if i + 1 == n {
            (FuClass::Branch, OpOrigin::LoopBranch)
        } else {
            (*rng.pick(classes), OpOrigin::Body(i))
        };
        let legal: Vec<u32> = (0..nc)
            .filter(|&c| {
                let cl = &machine.clusters[c];
                match machine.mdes.op(class).unit {
                    UnitClass::Alu => cl.alus > 0,
                    UnitClass::Mul => cl.alus > 0 && cl.muls > 0,
                    UnitClass::L1Port => cl.l1_ports > 0,
                    UnitClass::L2Port => cl.l2_ports > 0,
                    UnitClass::Branch => cl.has_branch,
                }
            })
            .map(|c| c as u32)
            .collect();
        cluster_of_op.push(*rng.pick(&legal));
        ops.push(SOp {
            origin,
            inst: None,
            class,
            latency: machine.latency(class),
            def: None,
            uses: Uses::default(),
        });
    }
    let mut edges = Vec::new();
    for to in 1..n {
        for _ in 0..rng.index(3) {
            edges.push(Dep {
                from: rng.index(to) as u32,
                to: to as u32,
                lat: rng.range_u32(1..=9),
                kind: DepKind::RegRaw,
            });
        }
    }
    let latencies: Vec<u32> = ops.iter().map(|o| o.latency).collect();
    let ddg = Ddg::from_edges(&latencies, &edges);
    let assignment = Assignment {
        code: LoopCode {
            ops,
            live_ins: Vec::new(),
            resident: Vec::new(),
            carried: Vec::new(),
            vreg_limit: 0,
        },
        cluster_of_op,
        home_of: HomeTable::default(),
        move_count: 0,
    };
    (assignment, ddg)
}

/// Production and oracle portfolios on one instance: equal schedule or
/// error and equal fuel spent, under unlimited fuel and down a ladder of
/// budgets from one step to exactly enough.
fn assert_matches_oracle(
    assignment: &Assignment,
    ddg: &Ddg,
    machine: &MachineResources,
    scratch: &mut SchedScratch,
    what: &str,
) {
    let mut oracle_fuel = Fuel::unlimited();
    let oracle = oracle_try_schedule(assignment, ddg, machine, &mut oracle_fuel);
    let mut new_fuel = Fuel::unlimited();
    let new = try_schedule_in(assignment, ddg, machine, &mut new_fuel, scratch);
    assert_eq!(new, oracle, "{what}");
    assert_eq!(new_fuel.spent(), oracle_fuel.spent(), "{what}");
    let spent = new_fuel.spent();
    for budget in [1, spent / 7, spent / 3, spent / 2, spent - 1, spent] {
        let mut of = Fuel::limited(budget);
        let o = oracle_try_schedule(assignment, ddg, machine, &mut of);
        let mut nf = Fuel::limited(budget);
        let n = try_schedule_in(assignment, ddg, machine, &mut nf, scratch);
        assert_eq!(n, o, "{what} budget {budget}/{spent}");
        assert_eq!(nf.spent(), of.spent(), "{what} budget {budget}/{spent}");
        assert_eq!(
            n.is_err(),
            budget < spent || oracle.is_err(),
            "{what} budget {budget}/{spent}"
        );
    }
}

const PLAIN: [FuClass; 4] = [FuClass::Alu, FuClass::Mul, FuClass::MemL1, FuClass::MemL2];

#[test]
fn row_queues_match_the_oracle_where_the_corpus_is_thin() {
    let spec = |a, m, p2, l2, c| ArchSpec::new(a, m, 64 * c, p2, l2, c).expect("valid spec");
    let mut machines: Vec<(String, MachineResources, Vec<FuClass>)> = Vec::new();
    let mut add = |name: &str, s: ArchSpec, classes: &[FuClass]| {
        let machine = MachineResources::from_spec(&s);
        machines.push((format!("{name} {s}"), machine, classes.to_vec()));
    };
    // Fewer multipliers than ALUs under multiply-heavy code: the IMUL
    // row fills and closes while the ALU row it shares slots with stays
    // open, one cluster and several.
    let mul_heavy = [
        FuClass::Mul,
        FuClass::Mul,
        FuClass::Mul,
        FuClass::Alu,
        FuClass::MemL2,
    ];
    add("scarce multipliers", spec(4, 1, 1, 4, 1), &mul_heavy);
    add("scarce multipliers", spec(8, 2, 2, 4, 2), &mul_heavy);
    add("scarce multipliers", spec(16, 4, 2, 2, 4), &mul_heavy);
    // Eight clusters, some without a multiplier or a port.
    add("eight clusters", spec(8, 4, 2, 4, 8), &PLAIN);
    add("eight clusters", spec(16, 8, 4, 8, 8), &PLAIN);
    // Level-2 ports that hold for the full latency, and ones that take
    // an access every cycle.
    let mem_heavy = [FuClass::MemL2, FuClass::MemL2, FuClass::MemL1, FuClass::Alu];
    for l2 in [2, 8] {
        add("blocking L2", spec(4, 2, 2, l2, 2), &mem_heavy);
        add(
            "pipelined L2",
            spec(4, 2, 2, l2, 2).with_pipelined_l2(),
            &mem_heavy,
        );
    }
    // The widest arrangement of the combinatorial space, 146 issue
    // slots on one cluster: 128 ALU slots (past a 64-bit word), 32
    // multipliers and 16 Level-2 ports, blocking and pipelined, under
    // every mix.
    let wide = ArchSpec::new(128, 32, 512, 16, 4, 1).expect("valid spec");
    for s in [wide, wide.with_pipelined_l2()] {
        for mix in [&mem_heavy[..], &mul_heavy, &PLAIN] {
            add("wide", s, mix);
        }
    }
    // Every extension set: each registered fused class issues on the
    // row of the unit it upgrades.
    for bits in 0..8 {
        let exts = ExtSet::from_bits(bits).expect("three extension bits");
        let mut classes = PLAIN.to_vec();
        for i in exts.iter() {
            let fused = FuClass::Fused(i as u8);
            classes.extend([fused, fused]);
        }
        add(
            "extension set",
            spec(4, 1, 1, 4, 2).with_extensions(exts),
            &classes,
        );
    }

    let mut scratch = SchedScratch::new();
    for (mi, (name, machine, classes)) in machines.iter().enumerate() {
        let mut rng = Rng::new(0x5EED_0012 + mi as u64);
        for case in 0..40 {
            let n = 2 + rng.index(70);
            let (assignment, ddg) = synthetic(&mut rng, machine, classes, n);
            let what = format!("{name} case {case} ({n} ops)");
            assert_matches_oracle(&assignment, &ddg, machine, &mut scratch, &what);
        }
    }
}

#[test]
fn an_op_with_no_registered_row_never_issues() {
    // A multiply-add on a machine that did not buy the extension sits in
    // play, priced by every scan, until the cycle cap or the fuel ends
    // the run — the same way in both schedulers.
    let spec = ArchSpec::new(4, 2, 128, 1, 4, 2)
        .expect("valid spec")
        .with_extensions(ExtSet::MINMAX);
    let machine = MachineResources::from_spec(&spec);
    let mut classes = PLAIN.to_vec();
    classes.push(FuClass::Fused(1));
    let mut rng = Rng::new(0x5EED_0013);
    let (mut assignment, ddg) = synthetic(&mut rng, &machine, &classes, 24);
    assignment.code.ops[5].class = FuClass::Fused(0);

    let mut scratch = SchedScratch::new();
    let mut fuel = Fuel::unlimited();
    let capped = try_schedule_in(&assignment, &ddg, &machine, &mut fuel, &mut scratch);
    assert_eq!(
        capped,
        Err(SchedError::CycleCapExceeded { cap: MAX_CYCLES }),
        "nothing can issue the op, so only the cap stops the run"
    );
    let mut oracle_fuel = Fuel::unlimited();
    assert_eq!(
        oracle_try_schedule(&assignment, &ddg, &machine, &mut oracle_fuel),
        capped
    );
    assert_eq!(fuel.spent(), oracle_fuel.spent());

    for budget in [1, 100, 10_000, fuel.spent() - 1] {
        let mut of = Fuel::limited(budget);
        let o = oracle_try_schedule(&assignment, &ddg, &machine, &mut of);
        let mut nf = Fuel::limited(budget);
        let n = try_schedule_in(&assignment, &ddg, &machine, &mut nf, &mut scratch);
        assert_eq!(n, Err(SchedError::FuelExhausted { budget }));
        assert_eq!(n, o, "budget {budget}");
        assert_eq!(nf.spent(), of.spent(), "budget {budget}");
    }
}

#[test]
fn move_free_assignments_schedule_on_the_prepared_graph() {
    // With no move inserted the assigned code is the prepared code, so
    // the compile borrows the prepared dependence graph instead of
    // building it again — and still reports its `ddg` span.
    let (kernels, _) = corpus();
    let specs = [
        ArchSpec::baseline(),
        ArchSpec::new(4, 2, 128, 1, 4, 1).expect("valid spec"),
        ArchSpec::new(16, 8, 512, 4, 2, 1).expect("valid spec"),
    ];
    let mut scratch = SchedScratch::new();
    for spec in &specs {
        let machine = MachineResources::from_spec(spec);
        for (ki, kernel) in kernels.iter().enumerate() {
            let prepared = prepare(kernel, &machine, &mut UnitTrace::disabled());
            let assignment = assign(&prepared.code, &prepared.ddg, &machine);
            assert_eq!(assignment.move_count, 0, "{spec} kernel {ki}");
            assert_eq!(
                Ddg::build(&assignment.code),
                prepared.ddg,
                "{spec} kernel {ki}"
            );

            let rec = JsonlRecorder::new();
            let mut trace = UnitTrace::new(&rec, 0);
            let core = try_compile_core(
                &prepared,
                &machine,
                &mut Fuel::unlimited(),
                &mut scratch,
                &mut trace,
            )
            .expect("unlimited fuel");
            let ddg_spans: Vec<_> = rec
                .events()
                .into_iter()
                .filter(|e| e.stage == Stage::Ddg)
                .collect();
            assert_eq!(ddg_spans.len(), 1, "{spec} kernel {ki}");
            assert_eq!(
                ddg_spans[0].field("critical_path").and_then(|v| v.as_u64()),
                Some(u64::from(core.critical_path)),
                "{spec} kernel {ki}"
            );
        }
    }
}

/// The original modulo scheduler's full II search, transcribed from the
/// pre-rewrite source: nested-`Vec` reservation tables and no
/// infeasible-II skipping — every II from the lower bound up is
/// attempted. Returns what the rewrite must reproduce.
fn oracle_modulo(
    assignment: &Assignment,
    ddg: &Ddg,
    machine: &MachineResources,
    list_length: u32,
) -> Option<(u32, Vec<u32>, u32)> {
    struct Table {
        ii: u32,
        alu: Vec<Vec<u32>>,
        mul: Vec<Vec<u32>>,
        mem: Vec<[Vec<u32>; 2]>,
        branch: Vec<u32>,
    }
    impl Table {
        fn fits(&self, op: &SOp, cluster: usize, slot: u32, m: &MachineResources) -> bool {
            let s = (slot % self.ii) as usize;
            let cl = &m.clusters[cluster];
            match op.class {
                FuClass::Alu => self.alu[cluster][s] < cl.alus,
                FuClass::Mul => self.alu[cluster][s] < cl.alus && self.mul[cluster][s] < cl.muls,
                FuClass::Branch => self.branch[s] < u32::from(cl.has_branch),
                FuClass::MemL1 | FuClass::MemL2 => {
                    if op.latency > self.ii {
                        return false;
                    }
                    let li = usize::from(op.class == FuClass::MemL2);
                    let ports = if li == 0 { cl.l1_ports } else { cl.l2_ports };
                    (0..op.latency)
                        .all(|dt| self.mem[cluster][li][((slot + dt) % self.ii) as usize] < ports)
                }
                _ => unreachable!("fused class in the unextended corpus"),
            }
        }
        fn take(&mut self, op: &SOp, cluster: usize, slot: u32) {
            let s = (slot % self.ii) as usize;
            match op.class {
                FuClass::Alu => self.alu[cluster][s] += 1,
                FuClass::Mul => {
                    self.alu[cluster][s] += 1;
                    self.mul[cluster][s] += 1;
                }
                FuClass::Branch => self.branch[s] += 1,
                FuClass::MemL1 | FuClass::MemL2 => {
                    let li = usize::from(op.class == FuClass::MemL2);
                    for dt in 0..op.latency {
                        self.mem[cluster][li][((slot + dt) % self.ii) as usize] += 1;
                    }
                }
                _ => unreachable!("fused class in the unextended corpus"),
            }
        }
    }

    let code = &assignment.code;
    let n = code.ops.len();
    let deps = omega_deps(code, ddg);
    let max_lat = code.ops.iter().map(|o| o.latency).max().unwrap_or(1);
    let mii = res_mii(code, assignment, machine)
        .max(rec_mii(n, &deps, list_length))
        .max(max_lat);

    let intra_preds: Vec<Vec<&OmegaDep>> = {
        let mut v: Vec<Vec<&OmegaDep>> = vec![Vec::new(); n];
        for d in &deps {
            if d.omega == 0 {
                v[d.to].push(d);
            }
        }
        v
    };

    'outer: for ii in mii..=(4 * list_length.max(mii)) {
        let z = vec![0_u32; ii as usize];
        let nc = machine.cluster_count();
        let mut table = Table {
            ii,
            alu: vec![z.clone(); nc],
            mul: vec![z.clone(); nc],
            mem: (0..nc).map(|_| [z.clone(), z.clone()]).collect(),
            branch: z,
        };
        let mut slots = vec![u32::MAX; n];
        for (i, op) in code.ops.iter().enumerate() {
            let cluster = assignment.cluster_of_op[i] as usize;
            let est = intra_preds[i]
                .iter()
                .map(|d| slots[d.from].saturating_add(d.lat))
                .max()
                .unwrap_or(0);
            let mut placed = false;
            // `est` saturates at `u32::MAX` when an intra predecessor
            // with a higher index (an inserted move) is unplaced; the
            // empty range fails the II, as the original did in release.
            for slot in est..est.saturating_add(ii) {
                if table.fits(op, cluster, slot, machine) {
                    table.take(op, cluster, slot);
                    slots[i] = slot;
                    placed = true;
                    break;
                }
            }
            if !placed {
                continue 'outer;
            }
        }
        let ok = deps.iter().all(|d| {
            i64::from(slots[d.to])
                >= i64::from(slots[d.from]) + i64::from(d.lat) - i64::from(ii) * i64::from(d.omega)
        });
        if !ok {
            continue;
        }
        return Some((ii, slots, mii));
    }
    None
}

#[test]
fn modulo_ii_skipping_reaches_the_oracles_exact_schedule() {
    let (kernels, specs) = corpus();
    let mut scratch = SchedScratch::new();
    let (mut pipelined, mut moved) = (0, 0);
    for spec in &specs {
        let machine = MachineResources::from_spec(spec);
        for (ki, kernel) in kernels.iter().enumerate() {
            let prepared = prepare(kernel, &machine, &mut UnitTrace::disabled());
            let core = try_compile_core(
                &prepared,
                &machine,
                &mut Fuel::unlimited(),
                &mut scratch,
                &mut UnitTrace::disabled(),
            )
            .expect("unlimited fuel");
            let ddg = Ddg::build_in(&core.assignment.code, None, &mut scratch);
            let schedule = |scratch: &mut SchedScratch| {
                try_modulo_schedule(
                    &core.assignment,
                    &ddg,
                    &machine,
                    core.length,
                    &mut Fuel::unlimited(),
                    scratch,
                    &mut UnitTrace::disabled(),
                )
                .expect("unlimited fuel")
            };
            let new = schedule(&mut scratch);
            let fresh = schedule(&mut SchedScratch::new());
            let key = |ms: &Option<ModuloSchedule>| {
                ms.as_ref()
                    .map(|ms| (ms.ii, ms.slots.clone(), ms.mii, ms.ii_attempts))
            };
            assert_eq!(key(&new), key(&fresh), "{spec} kernel {ki}: scratch reuse");
            if core.move_count > 0 {
                // The transcription places in index order, so the first
                // reader of a move appended behind it has nowhere to go
                // at any II: it is no reference here. Production places
                // in dependence order and must pipeline the unit.
                let ms = new.unwrap_or_else(|| panic!("{spec} kernel {ki}: no schedule"));
                assert!(ms.ii >= ms.mii, "{spec} kernel {ki}");
                let deps = omega_deps(&core.assignment.code, &ddg);
                assert!(
                    validate_modulo(&core.assignment, &machine, &deps, ms.ii, &ms.slots),
                    "{spec} kernel {ki}: II {} does not validate",
                    ms.ii
                );
                moved += 1;
                continue;
            }
            let oracle = oracle_modulo(&core.assignment, &ddg, &machine, core.length);
            match (new, oracle) {
                (Some(ms), Some((ii, slots, mii))) => {
                    assert_eq!(ms.ii, ii, "{spec} kernel {ki}");
                    assert_eq!(ms.slots, slots, "{spec} kernel {ki}");
                    assert_eq!(ms.mii, mii, "{spec} kernel {ki}");
                    // Skipping can only shrink the attempt count, never
                    // change which II succeeds.
                    assert!(
                        ms.ii_attempts >= 1 && ms.mii + ms.ii_attempts > ms.ii,
                        "{spec} kernel {ki}: {} attempts cannot reach II {} from {}",
                        ms.ii_attempts,
                        ms.ii,
                        ms.mii
                    );
                    pipelined += 1;
                }
                (None, None) => {}
                (new, oracle) => panic!(
                    "{spec} kernel {ki}: feasibility disagrees (new {:?}, oracle {:?})",
                    new.map(|m| m.ii),
                    oracle.map(|o| o.0)
                ),
            }
        }
    }
    assert!(pipelined > 5, "too few pipelined units ({pipelined})");
    assert!(moved > 5, "too few units with moves ({moved})");
}

/// The probe scan skips the candidates a full residue rules out but
/// charges fuel for them, so a search costs what the one-slot-at-a-time
/// scan cost: exactly the fuel it reports reproduces it, one step less
/// exhausts. One non-pipelined Level-2 port held eight cycles per access
/// is where the skipping happens.
#[test]
fn modulo_probe_skipping_keeps_the_fuel_boundary() {
    let spec = ArchSpec::new(8, 4, 256, 1, 8, 1).expect("valid");
    let machine = MachineResources::from_spec(&spec);
    let (kernels, _) = corpus();
    let mut skipped = 0;
    for (ki, kernel) in kernels.iter().enumerate() {
        let prepared = prepare(kernel, &machine, &mut UnitTrace::disabled());
        let core = try_compile_core(
            &prepared,
            &machine,
            &mut Fuel::unlimited(),
            &mut SchedScratch::new(),
            &mut UnitTrace::disabled(),
        )
        .expect("unlimited fuel");
        let ddg = Ddg::build(&core.assignment.code);
        let run = |fuel: &mut Fuel, scratch: &mut SchedScratch| {
            try_modulo_schedule(
                &core.assignment,
                &ddg,
                &machine,
                core.length,
                fuel,
                scratch,
                &mut UnitTrace::disabled(),
            )
        };
        let (mut fuel, mut scratch) = (Fuel::unlimited(), SchedScratch::new());
        let ms = run(&mut fuel, &mut scratch)
            .expect("unlimited fuel")
            .unwrap_or_else(|| panic!("kernel {ki}: no schedule"));
        let spent = fuel.spent();
        assert!(scratch.modulo_probes() <= spent, "kernel {ki}");
        skipped += spent - scratch.modulo_probes();

        let exact = run(&mut Fuel::limited(spent), &mut scratch)
            .unwrap_or_else(|e| panic!("kernel {ki}: its own fuel did not suffice: {e}"))
            .expect("the same search");
        assert_eq!((exact.ii, &exact.slots), (ms.ii, &ms.slots), "kernel {ki}");
        assert_eq!(
            run(&mut Fuel::limited(spent - 1), &mut scratch).map(|ms| ms.map(|ms| ms.ii)),
            Err(SchedError::FuelExhausted { budget: spent - 1 }),
            "kernel {ki}"
        );
    }
    assert!(
        skipped > 0,
        "no candidate was ever skipped: the test is vacuous"
    );
}

#[test]
fn csr_ddg_round_trips_through_its_edge_list() {
    cases(0xDD60_0001, 60, |rng| {
        let n = 2 + rng.index(30);
        let latencies: Vec<u32> = (0..n).map(|_| rng.range_u32(1..=8)).collect();
        let kinds = [
            DepKind::RegRaw,
            DepKind::MemRaw,
            DepKind::MemWar,
            DepKind::MemWaw,
        ];
        // Forward edges only, so the random graph is a DAG by
        // construction.
        let mut edges = Vec::new();
        for from in 0..n {
            for to in (from + 1)..n {
                if rng.below(4) == 0 {
                    edges.push(Dep {
                        from: from as u32,
                        to: to as u32,
                        lat: rng.range_u32(1..=8),
                        kind: *rng.pick(&kinds),
                    });
                }
            }
        }
        let g = Ddg::from_edges(&latencies, &edges);
        assert_eq!(g.op_count(), n);

        // Round trip: the flat edge list rebuilds the identical graph.
        let again = Ddg::from_edges(&latencies, g.edges());
        assert_eq!(g, again);

        // Both adjacency views hold every edge exactly once, and the
        // pred view groups them by consumer in input order (the order
        // the old nested-`Vec` representation flattened to).
        assert_eq!(g.edges().len(), edges.len());
        let mut expected = edges.clone();
        expected.sort_by_key(|d| d.to); // stable: input order within a group
        assert_eq!(g.edges(), expected.as_slice());
        let mut from_succs: Vec<Dep> = (0..n).flat_map(|i| g.succs(i).iter().copied()).collect();
        let mut all = edges.clone();
        let key = |d: &Dep| (d.from, d.to, d.lat);
        from_succs.sort_by_key(key);
        all.sort_by_key(key);
        assert_eq!(from_succs, all);
        for i in 0..n {
            assert_eq!(g.pred_count(i) as usize, g.preds(i).len());
            for d in g.preds(i) {
                assert_eq!(d.to as usize, i);
            }
            for d in g.succs(i) {
                assert_eq!(d.from as usize, i);
            }
        }
    });
}
