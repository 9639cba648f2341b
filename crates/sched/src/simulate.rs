//! Cycle-accurate execution of a scheduled loop.
//!
//! The simulator is the back end's proof of correctness: it executes the
//! placed operations cycle by cycle with real register values, *checking*
//! on the way that
//!
//! * no value is read before its producer's latency has elapsed,
//! * every read is cluster-local (resident values excepted — they are
//!   broadcast at setup),
//! * no cycle oversubscribes ALUs, IMUL slots, memory ports, or the
//!   branch unit,
//!
//! and its memory image must equal the reference interpreter's, for every
//! architecture (asserted across the design space by the integration
//! tests).
//!
//! The schedule is read once in cycle order: the issue order is one
//! counting sort on `(cycle, is_store)`, stable in op index, and the
//! resource check one `length × rows` occupancy table. A placement at or
//! past the schedule's length — never compiled, but the refusal tests
//! build them — reserves nothing and issues after every in-range op.

use crate::compile::CompileResult;
use crate::loopcode::OpOrigin;
use cfp_ir::{Interpreter, Kernel, MemImage, Vreg};
use cfp_machine::{MachineResources, UnitClass};
use std::error::Error;
use std::fmt;

/// Execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Machine cycles consumed (`iterations × schedule length`).
    pub cycles: u64,
    /// Operations executed (moves and loop overhead included).
    pub operations: u64,
}

/// A violation detected during simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// An operand was read before it was ready.
    NotReady {
        /// Op index.
        op: usize,
        /// The register.
        vreg: Vreg,
        /// The issue cycle of the reader.
        cycle: u32,
    },
    /// An operand lives in a different cluster.
    NonLocal {
        /// Op index.
        op: usize,
        /// The register.
        vreg: Vreg,
    },
    /// A cycle oversubscribes a resource.
    Oversubscribed {
        /// Cycle.
        cycle: u32,
        /// Cluster.
        cluster: u32,
        /// Human-readable resource name.
        what: &'static str,
    },
    /// A memory access faulted.
    Mem(cfp_ir::interp::InterpError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NotReady { op, vreg, cycle } => {
                write!(
                    f,
                    "op {op} reads {vreg} at cycle {cycle} before it is ready"
                )
            }
            SimError::NonLocal { op, vreg } => {
                write!(f, "op {op} reads {vreg} from another cluster")
            }
            SimError::Oversubscribed {
                cycle,
                cluster,
                what,
            } => write!(
                f,
                "cycle {cycle} oversubscribes {what} on cluster {cluster}"
            ),
            SimError::Mem(e) => write!(f, "memory fault: {e}"),
        }
    }
}

impl Error for SimError {}

impl From<cfp_ir::interp::InterpError> for SimError {
    fn from(e: cfp_ir::interp::InterpError) -> Self {
        SimError::Mem(e)
    }
}

/// Execute `iters` iterations of the compiled loop against `mem`.
///
/// # Errors
/// Returns the first [`SimError`] violation — a correct compiler output
/// never produces one.
pub fn simulate(
    kernel: &Kernel,
    result: &CompileResult,
    machine: &MachineResources,
    mem: &mut MemImage,
    iters: u64,
) -> Result<SimStats, SimError> {
    simulate_traced(
        kernel,
        result,
        machine,
        mem,
        iters,
        &mut cfp_obs::UnitTrace::disabled(),
    )
}

/// [`simulate`] recording one `simulate` span with the cycle and
/// operation totals of the run (or an `ok: false` field when the
/// schedule faulted). With a disabled trace this is exactly
/// [`simulate`].
///
/// # Errors
/// As [`simulate`].
pub fn simulate_traced(
    kernel: &Kernel,
    result: &CompileResult,
    machine: &MachineResources,
    mem: &mut MemImage,
    iters: u64,
    trace: &mut cfp_obs::UnitTrace<'_>,
) -> Result<SimStats, SimError> {
    use cfp_obs::{Stage, Value};
    let t0 = trace.start();
    let out = simulate_inner(kernel, result, machine, mem, iters);
    match &out {
        Ok(stats) => trace.stage(
            Stage::Simulate,
            t0,
            &[
                ("cycles", Value::U64(stats.cycles)),
                ("operations", Value::U64(stats.operations)),
            ],
        ),
        Err(_) => trace.stage(Stage::Simulate, t0, &[("ok", Value::Bool(false))]),
    }
    out
}

fn simulate_inner(
    kernel: &Kernel,
    result: &CompileResult,
    machine: &MachineResources,
    mem: &mut MemImage,
    iters: u64,
) -> Result<SimStats, SimError> {
    validate_resources(result, machine)?;
    // Setup: run the preamble, latch carried inits, zero the synthetic
    // state (pointers, induction, bound).
    let preamble_vals = Interpreter::new().preamble_values(kernel, mem)?;
    let order = placement_order(result);
    run_schedule(result, &preamble_vals, &order, mem, iters)
}

/// Placement order: by cycle, stores after non-stores within a cycle
/// (loads sample memory at the start of a cycle, stores commit at the
/// end — this is what makes a 0-separation WAR legal), op index within
/// that.
///
/// One counting sort over the `2 × length` keys `(cycle, is_store)`,
/// stable in op index: the schedule is read once in cycle order. A
/// placement at or past `length` (no compiled schedule has one; the
/// refusal tests build them) lands in the overflow tail, the one range
/// sorted by comparison.
fn placement_order(result: &CompileResult) -> Vec<usize> {
    let code = &result.assignment.code;
    let placements = &result.schedule.placements;
    let len = result.schedule.length as usize;
    let n = code.ops.len();
    let is_store = |i: usize| code.ops[i].inst.is_some_and(|x| x.is_store());
    let key = |i: usize| 2 * (placements[i].cycle as usize).min(len) + usize::from(is_store(i));
    // `next[k]`: where key `k`'s next op goes; keys `2·len` and up are
    // the overflow tail.
    let mut next = vec![0_usize; 2 * len + 3];
    for i in 0..n {
        next[key(i) + 1] += 1;
    }
    for k in 1..next.len() {
        next[k] += next[k - 1];
    }
    let tail = next[2 * len];
    let mut order = vec![0_usize; n];
    for i in 0..n {
        let slot = &mut next[key(i)];
        order[*slot] = i;
        *slot += 1;
    }
    order[tail..].sort_unstable_by_key(|&i| (placements[i].cycle, is_store(i), i));
    order
}

/// The cycle-by-cycle execution loop, after validation and preamble.
fn run_schedule(
    result: &CompileResult,
    preamble_vals: &[i32],
    order: &[usize],
    mem: &mut MemImage,
    iters: u64,
) -> Result<SimStats, SimError> {
    let code = &result.assignment.code;
    let n_vregs = code.vreg_limit as usize;
    let mut vals = vec![0_i32; n_vregs];
    vals[..preamble_vals.len()].copy_from_slice(preamble_vals);

    // Indexed by vreg number: broadcast loop constants, readable from
    // every cluster.
    let mut resident = vec![false; n_vregs];
    for v in &code.resident {
        resident[v.index()] = true;
    }

    let mut ready = vec![0_u32; n_vregs];
    let mut latch = vec![0_i32; code.carried.len()];
    let mut stats = SimStats::default();
    for iter in 0..iters {
        for d in code.ops.iter().filter_map(|o| o.def) {
            ready[d.index()] = u32::MAX;
        }
        for &i in order {
            let op = &code.ops[i];
            let t = result.schedule.placements[i].cycle;
            let cluster = result.schedule.placements[i].cluster;
            // Readiness + locality checks. Move ops are exempt from
            // locality: they *are* the cross-cluster transfers (the
            // template's global connections).
            let is_move = matches!(op.origin, OpOrigin::Move { .. });
            for &u in &op.uses {
                if ready[u.index()] > t {
                    return Err(SimError::NotReady {
                        op: i,
                        vreg: u,
                        cycle: t,
                    });
                }
                if !is_move
                    && !resident[u.index()]
                    && result
                        .assignment
                        .home_of
                        .get(&u)
                        .copied()
                        .unwrap_or(cluster)
                        != cluster
                {
                    return Err(SimError::NonLocal { op: i, vreg: u });
                }
            }
            execute(op, &mut vals, mem, i64::try_from(iter).expect("few iters"))?;
            if let Some(d) = op.def {
                ready[d.index()] = t + op.latency;
            }
            stats.operations += 1;
        }
        // Iteration boundary: latch carried values (two-phase).
        for (next, &(_, o)) in latch.iter_mut().zip(&code.carried) {
            *next = vals[o.index()];
        }
        for (&(inp, _), &v) in code.carried.iter().zip(&latch) {
            vals[inp.index()] = v;
            ready[inp.index()] = 0;
        }
        stats.cycles += u64::from(result.schedule.length);
    }
    Ok(stats)
}

fn execute(
    op: &crate::loopcode::SOp,
    vals: &mut [i32],
    mem: &mut MemImage,
    iter: i64,
) -> Result<(), SimError> {
    match (&op.inst, op.origin) {
        // The interpreter's own step; a fault carries no iteration tag.
        (Some(inst), _) => cfp_ir::interp::exec(inst, vals, mem, iter, None)?,
        (None, OpOrigin::Move { src, .. }) => {
            vals[op.def.expect("moves define").index()] = vals[src.index()];
        }
        (None, OpOrigin::StreamBump(_) | OpOrigin::Induction) => {
            let cur = op.uses[0];
            vals[op.def.expect("bumps define").index()] = vals[cur.index()].wrapping_add(1);
        }
        (None, OpOrigin::LoopTest) => {
            let (a, b) = (vals[op.uses[0].index()], vals[op.uses[1].index()]);
            vals[op.def.expect("test defines").index()] = i32::from(a < b);
        }
        (None, OpOrigin::LoopBranch) => {}
        (None, OpOrigin::Body(_)) => unreachable!("body ops carry their inst"),
    }
    Ok(())
}

/// Structural resource validation (independent of iteration count): one
/// `len × rows` occupancy table over the machine's reservation table
/// ([`cfp_machine::Mdes::reservations`]), each row held to its unit
/// count. A non-pipelined port's reservation is counted up to the end of
/// the schedule.
fn validate_resources(result: &CompileResult, machine: &MachineResources) -> Result<(), SimError> {
    let code = &result.assignment.code;
    let row_units: Vec<u32> = machine.mdes.row_units().collect();
    let rows = row_units.len();
    let len = result.schedule.length as usize;
    let mut busy = vec![0_u32; len * rows];
    for (op, p) in code.ops.iter().zip(&result.schedule.placements) {
        for r in machine.mdes.reservations(op.class, p.cluster as usize) {
            for t in (p.cycle as usize..len).take(r.reserved as usize) {
                busy[t * rows + r.row as usize] += 1;
            }
        }
    }
    for (t, cycle) in busy.chunks_exact(rows).enumerate() {
        if let Some(row) = cycle
            .iter()
            .zip(&row_units)
            .position(|(&n, &units)| n > units)
        {
            let per_cluster = UnitClass::ALL.len();
            return Err(SimError::Oversubscribed {
                cycle: u32::try_from(t).expect("small"),
                cluster: u32::try_from(row / per_cluster).expect("small"),
                what: UnitClass::ALL[row % per_cluster].name(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use cfp_frontend::compile_kernel;
    use cfp_ir::ArrayKind;
    use cfp_machine::ArchSpec;

    /// Compile for `spec`, simulate, and compare against the interpreter.
    fn check(src: &str, consts: &[(&str, i64)], spec: &ArchSpec, iters: u64) {
        let kernel = compile_kernel(src, consts).unwrap();
        let machine = MachineResources::from_spec(spec);
        let result = compile(&kernel, &machine);

        let data =
            |seed: i64| -> Vec<i64> { (0..256).map(|k| (k * 31 + seed * 17 + 7) % 253).collect() };
        let mut mem_ref = MemImage::for_kernel(&kernel);
        let mut mem_sim = MemImage::for_kernel(&kernel);
        for (i, a) in kernel.arrays.iter().enumerate() {
            if !matches!(a.kind, ArrayKind::Local(_)) {
                mem_ref.bind(i, data(i64::try_from(i).unwrap()));
                mem_sim.bind(i, data(i64::try_from(i).unwrap()));
            }
        }
        Interpreter::new()
            .run(&kernel, &mut mem_ref, iters)
            .unwrap();
        let stats = simulate(&kernel, &result, &machine, &mut mem_sim, iters)
            .unwrap_or_else(|e| panic!("simulation failed on {spec}: {e}"));
        assert_eq!(stats.cycles, iters * u64::from(result.schedule.length));
        for i in 0..kernel.arrays.len() {
            assert_eq!(mem_ref.array(i), mem_sim.array(i), "array {i} on {spec}");
        }
    }

    const KERNELS: &[&str] = &[
        // Plain map.
        "kernel m(in u8 s[], out u8 d[]) { loop i { d[i] = u8(s[i] * 3 + 1); } }",
        // Stencil with window reuse after CSE (none run here, still valid).
        "kernel st(in u8 s[], out i32 d[]) {
            loop i {
                var acc = 0;
                for t in 0..7 { acc = acc + s[i + t] * (2*t + 1); }
                d[i] = acc >> 3;
            }
        }",
        // Carried chain with select.
        "kernel c(in i32 s[], out i32 d[]) {
            var e = 5;
            loop i {
                e = (e * 7 + s[i]) >> 1;
                if e > 200 { e = e - 200; }
                d[i] = e;
            }
        }",
        // In-place error buffer (WAR within the iteration).
        "kernel fs(in u8 s[], inout i16 err[], out u8 d[]) {
            var e = 0;
            loop i {
                var t = err[i + 1];
                e = t + ((e * 7 + 8) >> 4) + s[i];
                err[i] = i16((e * 3 + 8) >> 4);
                d[i] = u8(e > 128 ? 255 : 0);
            }
        }",
    ];

    #[test]
    fn matches_interpreter_on_the_baseline() {
        for src in KERNELS {
            check(src, &[], &ArchSpec::baseline(), 16);
        }
    }

    #[test]
    fn matches_interpreter_on_wide_machines() {
        let spec = ArchSpec::new(8, 4, 256, 2, 4, 1).unwrap();
        for src in KERNELS {
            check(src, &[], &spec, 16);
        }
    }

    #[test]
    fn matches_interpreter_on_clustered_machines() {
        for clusters in [2_u32, 4] {
            let spec = ArchSpec::new(8, 4, 256, 2, 4, clusters).unwrap();
            for src in KERNELS {
                check(src, &[], &spec, 16);
            }
        }
    }

    #[test]
    fn matches_interpreter_on_many_cluster_low_latency_machines() {
        let spec = ArchSpec::new(16, 8, 512, 4, 2, 8).unwrap();
        for src in KERNELS {
            check(src, &[], &spec, 8);
        }
    }

    #[test]
    fn a_schedule_too_wide_for_its_machine_is_refused_before_any_effect() {
        let kernel = compile_kernel(KERNELS[0], &[]).unwrap();
        let wide = ArchSpec::new(8, 4, 256, 2, 4, 1).unwrap();
        let wide_machine = MachineResources::from_spec(&wide);
        let narrow_machine = MachineResources::from_spec(&ArchSpec::baseline());
        // A wide schedule validated against the baseline's resources
        // oversubscribes; validation runs before the preamble, so the
        // image comes back untouched.
        let result = compile(&kernel, &wide_machine);
        let mut base = MemImage::for_kernel(&kernel);
        for (i, a) in kernel.arrays.iter().enumerate() {
            if !matches!(a.kind, ArrayKind::Local(_)) {
                base.bind(i, (0..256).map(|k| (k * 13 + 5) % 250).collect());
            }
        }
        let mut mem = base.clone();
        let verdict = simulate(&kernel, &result, &narrow_machine, &mut mem, 8);
        assert!(
            matches!(verdict, Err(SimError::Oversubscribed { .. })),
            "narrow machine accepted a wide schedule: {verdict:?}"
        );
        assert_eq!(mem, base, "a refused schedule mutated its image");
        simulate(&kernel, &result, &wide_machine, &mut mem, 8).expect("the right machine runs");
    }

    /// The comparison sort [`placement_order`] replaced: the reference
    /// its counting sort is held to.
    fn placement_order_by_sort(result: &CompileResult) -> Vec<usize> {
        let code = &result.assignment.code;
        let mut order: Vec<usize> = (0..code.ops.len()).collect();
        order.sort_by_key(|&i| {
            (
                result.schedule.placements[i].cycle,
                code.ops[i].inst.is_some_and(|x| x.is_store()),
                i,
            )
        });
        order
    }

    /// Seeded schedules on one to eight clusters, then the same
    /// schedules re-dealt at random: empty cycles, several stores in one
    /// cycle, and placements at and past the length the refusal tests
    /// build. The counting sort must return the reference's order.
    #[test]
    fn the_counting_sort_keeps_the_comparison_order() {
        use crate::list::Placement;
        cfp_testkit::cases(0x51a7, 48, |rng| {
            let kernel = crate::testgen::memory_heavy(rng);
            let clusters = rng.range_u32(1..=8);
            let spec = ArchSpec::new(2 * clusters, 2, 64 * clusters, 2, 4, clusters).unwrap();
            let result = compile(&kernel, &MachineResources::from_spec(&spec));
            assert_eq!(placement_order(&result), placement_order_by_sort(&result));
            let mut dealt = result.clone();
            dealt.schedule.length = rng.range_u32(0..=result.schedule.length + 2);
            let span = dealt.schedule.length + 3;
            for p in &mut dealt.schedule.placements {
                *p = Placement {
                    cycle: if rng.index(8) == 0 {
                        u32::MAX - rng.range_u32(0..=1)
                    } else {
                        rng.range_u32(0..=span) / 2
                    },
                    cluster: rng.range_u32(0..=clusters - 1),
                };
            }
            assert_eq!(placement_order(&dealt), placement_order_by_sort(&dealt));
        });
    }

    #[test]
    fn every_unit_class_refuses_an_oversubscribed_cycle() {
        use crate::list::Placement;
        // Cluster 0: one ALU, the IMUL, the L1 port and the branch unit;
        // cluster 1: one ALU and the L2 port.
        let machine = MachineResources::from_spec(&ArchSpec::new(2, 1, 128, 1, 4, 2).unwrap());
        let kernel = compile_kernel(
            "kernel k(in u8 s[], in l1 i16 c[], out i32 d[]) {
                loop i { d[i] = s[i] * c[i] + s[i + 1] + 3; }
            }",
            &[],
        )
        .unwrap();
        let result = compile(&kernel, &machine);
        let code = &result.assignment.code;
        // Each case moves the first `moved` ops bound to `unit` into one
        // fresh cycle past the end, on `cluster`, where they do not fit.
        let cases = [
            (UnitClass::Alu, 2, 0),    // two issues, one ALU
            (UnitClass::Mul, 1, 1),    // no IMUL on cluster 1
            (UnitClass::L1Port, 1, 1), // the L1 port is cluster 0's
            (UnitClass::L2Port, 1, 0), // the L2 port is cluster 1's
            (UnitClass::Branch, 1, 1), // the branch unit is cluster 0's
        ];
        for (unit, moved, cluster) in cases {
            let mut crowded = result.clone();
            let cycle = crowded.schedule.length;
            crowded.schedule.length += 1;
            let bound =
                (0..code.ops.len()).filter(|&i| machine.mdes.op(code.ops[i].class).unit == unit);
            assert!(bound.clone().count() >= moved, "{unit:?}");
            for i in bound.take(moved) {
                crowded.schedule.placements[i] = Placement { cycle, cluster };
            }
            assert_eq!(
                validate_resources(&crowded, &machine),
                Err(SimError::Oversubscribed {
                    cycle,
                    cluster,
                    what: unit.name()
                }),
                "{unit:?}"
            );
        }
        validate_resources(&result, &machine).expect("the compiled schedule fits");
    }
}
