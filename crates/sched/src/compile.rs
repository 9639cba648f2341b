//! The retargetable back end: kernel + machine → scheduled loop.
//!
//! This is the paper's "build a version of our compiler that generates
//! good code for that architecture" step, minus the 50-second relink: the
//! machine description is a runtime value.
//!
//! Three cacheable phases, one function each: [`prepare`] (reads only the
//! memory latencies), [`try_compile_core`] (reads the scheduling
//! signature; takes the caller's fuel, scratch arena and trace) and
//! [`finish`] (reads the register files). [`compile_core`] and
//! [`compile`] are the panicking one-liners over them for callers with
//! one kernel and one machine.

use crate::cluster::{assign_in, Assignment};
use crate::ddg::Ddg;
use crate::error::{Fuel, SchedError};
use crate::list::{self, Schedule};
use crate::loopcode::{FuClass, LoopCode};
use crate::regalloc::{peak_pressure_in, PressureReport};
use crate::scratch::SchedScratch;
use cfp_ir::Kernel;
use cfp_machine::{MachineResources, UnitClass};
use cfp_obs::{Stage, UnitTrace, Value};

/// Everything the middle end and the design-space exploration need to
/// know about one compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileResult {
    /// The scheduled iteration.
    pub schedule: Schedule,
    /// The assigned loop code (moves included).
    pub assignment: Assignment,
    /// Register pressure versus capacity.
    pub pressure: PressureReport,
    /// Schedule length in cycles (no spill traffic).
    pub length: u32,
    /// Extra cycles per iteration paid for spill traffic (0 when the
    /// kernel fits).
    pub spill_penalty: u32,
    /// Inter-cluster moves inserted.
    pub move_count: usize,
    /// The dependence-graph lower bound on the iteration.
    pub critical_path: u32,
}

impl CompileResult {
    /// Whether the kernel fit in the register files.
    #[must_use]
    pub fn fits(&self) -> bool {
        self.pressure.fits()
    }

    /// Effective cycles per iteration, including spill traffic.
    #[must_use]
    pub fn cycles_per_iter(&self) -> u32 {
        self.length + self.spill_penalty
    }
}

/// The machine-independent prefix of a compilation: lowered loop code
/// plus its pre-assignment dependence graph.
///
/// Of the whole machine description, this phase reads only the memory
/// latencies (Level-1 is a model constant; Level-2 is the spec's `l2`
/// field), so one `Prepared` serves every architecture sharing an
/// `l2_latency`. The design-space exploration builds it once per plan
/// and reuses it across the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prepared {
    /// The lowered, schedulable loop body.
    pub code: LoopCode,
    /// Dependence graph over `code` (pre cluster assignment).
    pub ddg: Ddg,
}

/// Run the machine-independent phase: lower `kernel` and build its
/// dependence graph, recording a `prepare` span (lowered op count and
/// the pre-assignment critical path) into `trace`.
#[must_use]
pub fn prepare(kernel: &Kernel, machine: &MachineResources, trace: &mut UnitTrace<'_>) -> Prepared {
    let t0 = trace.start();
    let code = LoopCode::build(kernel, machine);
    let ddg = Ddg::build(&code);
    trace.stage(
        Stage::Prepare,
        t0,
        &[
            ("ops", Value::U64(code.ops.len() as u64)),
            ("critical_path", Value::U64(u64::from(ddg.critical_path()))),
        ],
    );
    Prepared { code, ddg }
}

/// The register-capacity-free core of a compilation: everything
/// determined by the plan and the machine's scheduling signature
/// ([`cfp_machine::SchedSignature`] — the spec minus its register-file
/// size). Two machines differing only in registers share one `SchedCore`
/// bit for bit; only the fits/spills verdict, computed by [`finish`],
/// can differ between them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedCore {
    /// The scheduled iteration.
    pub schedule: Schedule,
    /// The assigned loop code (moves included).
    pub assignment: Assignment,
    /// Maximum simultaneous live values per cluster.
    pub peak: Vec<u32>,
    /// Schedule length in cycles (no spill traffic).
    pub length: u32,
    /// Inter-cluster moves inserted.
    pub move_count: usize,
    /// The dependence-graph lower bound on the iteration.
    pub critical_path: u32,
    /// Scheduler steps this compilation cost (deterministic — loop
    /// trips, not time). A memoizing caller charges this against its own
    /// [`Fuel`] on a cache hit, so budget verdicts come out identical
    /// whether a compilation was computed or reused.
    pub steps: u64,
}

/// Run the machine-dependent phase on a prepared plan under unlimited
/// fuel, with a fresh scratch and no trace.
///
/// # Panics
/// Panics if the scheduler hits its internal cycle cap; sweeps over
/// untrusted candidates should call [`try_compile_core`].
#[must_use]
pub fn compile_core(prepared: &Prepared, machine: &MachineResources) -> SchedCore {
    let (fuel, scratch) = (&mut Fuel::unlimited(), &mut SchedScratch::new());
    match try_compile_core(prepared, machine, fuel, scratch, &mut UnitTrace::disabled()) {
        Ok(core) => core,
        Err(e) => panic!("compilation failed under unlimited fuel: {e}"),
    }
}

/// Run the machine-dependent phase on a prepared plan: cluster
/// assignment, list scheduling, and peak register pressure. The
/// scheduler runs under `fuel`, and a candidate that cannot be scheduled
/// within the budget (or within the cycle cap) returns a [`SchedError`]
/// instead of aborting or hanging the calling worker.
///
/// Working memory comes from `scratch`: cluster assignment, the
/// post-assignment dependence graph, list scheduling, and the pressure
/// analysis all draw their buffers from one reused arena, so a sweep's
/// steady-state compilations allocate only their results.
///
/// One span per phase — `assign`, `ddg`, `list` (with the deterministic
/// step count, the portfolio's lower bound and how many of its arms
/// ran), `regalloc` — goes into `trace`. With a disabled trace
/// the guards cost one predicted branch per phase, allocate nothing, and
/// never touch the fuel accounting, so schedules, steps, and budget
/// verdicts are bit-identical with tracing on or off.
///
/// # Errors
/// Whatever [`list::try_schedule`] reports (the failure is recorded as
/// an `error` field on the `list` span before it propagates).
pub fn try_compile_core(
    prepared: &Prepared,
    machine: &MachineResources,
    fuel: &mut Fuel,
    scratch: &mut SchedScratch,
    trace: &mut UnitTrace<'_>,
) -> Result<SchedCore, SchedError> {
    let before = fuel.spent();
    let t0 = trace.start();
    let assignment = assign_in(&prepared.code, &prepared.ddg, machine, scratch);
    trace.stage(
        Stage::Assign,
        t0,
        &[
            ("ops", Value::U64(assignment.code.ops.len() as u64)),
            ("moves", Value::U64(assignment.move_count as u64)),
        ],
    );
    let t0 = trace.start();
    // A move-free assignment (always, on one cluster) leaves the code as
    // prepared, so its dependence graph is the prepared one. Moves are
    // appended behind the original ops and never touch memory, so a
    // rebuild takes its memory edges from the prepared graph.
    let rebuilt;
    let ddg = if assignment.move_count == 0 {
        &prepared.ddg
    } else {
        rebuilt = Ddg::build_in(&assignment.code, Some(&prepared.ddg), scratch);
        &rebuilt
    };
    trace.stage(
        Stage::Ddg,
        t0,
        &[("critical_path", Value::U64(u64::from(ddg.critical_path())))],
    );
    let t0 = trace.start();
    let run = match list::portfolio_in(&assignment, ddg, machine, fuel, scratch) {
        Ok(run) => run,
        Err(e) => {
            trace.stage(
                Stage::List,
                t0,
                &[
                    ("error", Value::Str(e.token())),
                    ("steps", Value::U64(fuel.spent() - before)),
                ],
            );
            return Err(e);
        }
    };
    trace.stage(
        Stage::List,
        t0,
        &[
            ("length", Value::U64(u64::from(run.schedule.length))),
            ("bound", Value::U64(u64::from(run.bound))),
            ("arms", Value::U64(u64::from(run.arms))),
            ("steps", Value::U64(fuel.spent() - before)),
        ],
    );
    let schedule = run.schedule;
    let t0 = trace.start();
    let peak = peak_pressure_in(&assignment, &schedule, machine.cluster_count(), scratch);
    trace.stage(
        Stage::Regalloc,
        t0,
        &[("peak", Value::U64(peak.iter().map(|&p| u64::from(p)).sum()))],
    );
    Ok(SchedCore {
        length: schedule.length,
        critical_path: ddg.critical_path(),
        move_count: assignment.move_count,
        steps: fuel.spent() - before,
        schedule,
        assignment,
        peak,
    })
}

/// Judge a scheduled core against a concrete machine's register files:
/// attach capacities and price the spill traffic. This is the only step
/// that reads the register-file size, and it is cheap — the exploration
/// runs it once per register configuration while sharing the core.
#[must_use]
pub fn finish(core: &SchedCore, machine: &MachineResources) -> CompileResult {
    let pressure = PressureReport {
        peak: core.peak.clone(),
        capacity: machine.mdes.clusters().iter().map(|cl| cl.regs).collect(),
    };
    let spill_penalty = spill_penalty_cycles(pressure.spill_excess(), machine);
    CompileResult {
        schedule: core.schedule.clone(),
        assignment: core.assignment.clone(),
        pressure,
        length: core.length,
        spill_penalty,
        move_count: core.move_count,
        critical_path: core.critical_path,
    }
}

/// Compile one kernel for one machine.
///
/// Equivalent to [`prepare`] → [`compile_core`] → [`finish`]; the phases
/// are public so callers that sweep many machines can cache the first
/// two (see `cfp-dse`).
///
/// # Panics
/// As [`compile_core`]; call the phases to get failures as values.
#[must_use]
pub fn compile(kernel: &Kernel, machine: &MachineResources) -> CompileResult {
    let prepared = prepare(kernel, machine, &mut UnitTrace::disabled());
    finish(&compile_core(&prepared, machine), machine)
}

/// Cycles of spill traffic per iteration when `excess` values do not fit.
///
/// Each excess value costs one store and one reload per iteration. The
/// traffic flows through the Level-2 ports (non-pipelined, so each access
/// holds a port for the full latency), and the reload's latency lands on
/// the critical path once. This deliberately simple model reproduces the
/// qualitative cliff the paper describes — "the compiler gets greedy and
/// gets into trouble" — without re-running the scheduler on spill code.
#[must_use]
pub fn spill_penalty_cycles(excess: u32, machine: &MachineResources) -> u32 {
    if excess == 0 {
        return 0;
    }
    let l2_ports = machine.mdes.total_units(UnitClass::L2Port).max(1);
    // Each access occupies a port for its reservation window (the full
    // latency when the ports do not pipeline), and the reload's result
    // latency lands on the critical path once.
    let traffic = (2 * excess * machine.reserved_cycles(FuClass::MemL2)).div_ceil(l2_ports);
    traffic + machine.latency(FuClass::MemL2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_frontend::compile_kernel;
    use cfp_machine::ArchSpec;

    fn res(src: &str, spec: &ArchSpec) -> CompileResult {
        let k = compile_kernel(src, &[]).unwrap();
        compile(&k, &MachineResources::from_spec(spec))
    }

    const STENCIL: &str = "kernel st(in u8 s[], out i32 d[]) {
        loop i {
            var acc = 0;
            for t in 0..7 { acc = acc + s[i + t] * (2*t + 1); }
            d[i] = acc;
        }
    }";

    #[test]
    fn richer_machines_run_faster() {
        let small = res(STENCIL, &ArchSpec::baseline());
        let big = res(STENCIL, &ArchSpec::new(8, 4, 256, 4, 4, 1).unwrap());
        assert!(big.cycles_per_iter() < small.cycles_per_iter());
        assert!(big.fits() && small.fits());
    }

    #[test]
    fn length_never_beats_the_critical_path() {
        for spec in [
            ArchSpec::baseline(),
            ArchSpec::new(16, 8, 512, 4, 2, 1).unwrap(),
            ArchSpec::new(16, 8, 512, 4, 2, 4).unwrap(),
        ] {
            let r = res(STENCIL, &spec);
            assert!(
                r.length >= r.critical_path,
                "{spec}: {} < {}",
                r.length,
                r.critical_path
            );
        }
    }

    #[test]
    fn spill_penalty_scales_with_excess() {
        let m = MachineResources::from_spec(&ArchSpec::baseline());
        assert_eq!(spill_penalty_cycles(0, &m), 0);
        let one = spill_penalty_cycles(1, &m);
        let ten = spill_penalty_cycles(10, &m);
        assert!(one > 0 && ten > one);
    }

    #[test]
    fn phased_compile_matches_the_one_shot_path() {
        let k = compile_kernel(STENCIL, &[]).unwrap();
        for spec in [
            ArchSpec::baseline(),
            ArchSpec::new(8, 4, 256, 2, 4, 4).unwrap(),
            ArchSpec::new(16, 8, 128, 4, 2, 2).unwrap(),
        ] {
            let m = MachineResources::from_spec(&spec);
            let phased = finish(
                &compile_core(&prepare(&k, &m, &mut UnitTrace::disabled()), &m),
                &m,
            );
            assert_eq!(phased, compile(&k, &m), "{spec}");
        }
    }

    #[test]
    fn the_core_ignores_register_file_size() {
        let k = compile_kernel(STENCIL, &[]).unwrap();
        let small = MachineResources::from_spec(&ArchSpec::new(8, 4, 64, 2, 4, 4).unwrap());
        let large = MachineResources::from_spec(&ArchSpec::new(8, 4, 512, 2, 4, 4).unwrap());
        let off = &mut UnitTrace::disabled();
        let prepared = prepare(&k, &small, off);
        assert_eq!(prepared, prepare(&k, &large, off));
        let core = compile_core(&prepared, &small);
        assert_eq!(core, compile_core(&prepared, &large));
        // Only the capacity verdict may differ between the two machines.
        let (a, b) = (finish(&core, &small), finish(&core, &large));
        assert_eq!(a.pressure.peak, b.pressure.peak);
        assert_ne!(a.pressure.capacity, b.pressure.capacity);
    }

    #[test]
    fn clustered_compile_is_consistent() {
        let r = res(STENCIL, &ArchSpec::new(8, 4, 256, 2, 4, 4).unwrap());
        assert_eq!(
            r.assignment.cluster_of_op.len(),
            r.assignment.code.ops.len()
        );
        assert_eq!(r.schedule.placements.len(), r.assignment.code.ops.len());
        assert!(r.fits());
    }
}
