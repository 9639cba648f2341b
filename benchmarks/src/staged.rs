//! The pipeline driven stage by stage through public functions, one
//! span per call — what the traced run uses in place of the one-call
//! entry points (`PlanCache::build`, `sched::compile`, the memoized
//! evaluator) whose inside the harness cannot see.
//!
//! Each function here does exactly the work of the entry point it
//! stands in for, in the same order, and the traced passes check that
//! the results agree bit for bit; the spans then say where that work's
//! time goes. Scratch-arena (`*_in`) variants are deliberately not
//! used: the plain functions are the stable public surface, and what
//! the arena saves shows up as `trace.overhead_ratio`.

use crate::trace::Tracer;
use custom_fit::dse::eval::{fuse_targets, residency_budget, MAX_BODY_OPS, UNROLL_SWEEP};
use custom_fit::dse::{EvalOutcome, FailKind, FailReason, Measurement};
use custom_fit::frontend::compile_kernel;
use custom_fit::ir::Kernel;
use custom_fit::kernels::Benchmark;
use custom_fit::machine::{ArchSpec, ExtSet, MachineResources, SchedSignature};
use custom_fit::sched::{
    cluster, finish, list, regalloc, spill_penalty_cycles, CompileResult, Ddg, Fuel, LoopCode,
    Prepared, SchedCore, SchedError,
};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// `frontend.compile`: DSL source to IR, with the source-size and
/// IR-size counters.
pub fn frontend(tr: &mut Tracer, bench: Benchmark) -> Kernel {
    let source = bench.source();
    let kernel = tr.span("frontend.compile", || {
        compile_kernel(source, bench.consts()).expect("bundled kernels compile")
    });
    tr.count("frontend.compile.kernels", 1.0);
    tr.count("frontend.compile.src_bytes", source.len() as f64);
    tr.count(
        "frontend.compile.ir_insts",
        (kernel.preamble.len() + kernel.body.len()) as f64,
    );
    kernel
}

/// `opt.optimize`: the budgeted pipeline, with IR size before and after.
pub fn optimize(tr: &mut Tracer, kernel: &mut Kernel, budget: usize) {
    tr.count("opt.optimize.insts_in", kernel.body.len() as f64);
    tr.span("opt.optimize", || {
        custom_fit::opt::optimize_budgeted(kernel, budget);
    });
    tr.count("opt.optimize.insts_out", kernel.body.len() as f64);
}

/// `opt.unroll`.
pub fn unroll(tr: &mut Tracer, kernel: &Kernel, factor: u32) -> Kernel {
    let out = tr.span("opt.unroll", || {
        custom_fit::opt::unroll::unroll(kernel, factor)
    });
    tr.count("opt.unroll.insts_out", out.body.len() as f64);
    out
}

/// `opt.fuse`: rewrite for the machine's extension set (a no-op span
/// for an empty set is not recorded).
pub fn fuse(tr: &mut Tracer, kernel: &mut Kernel, exts: ExtSet) {
    if exts.is_empty() {
        return;
    }
    let fused = tr.span("opt.fuse", || {
        custom_fit::opt::fuse::fuse(kernel, fuse_targets(exts))
    });
    tr.count("opt.fuse.fused_ops", f64::from(fused));
}

/// `machine.mdes`: lower a spec to the scheduler's machine description.
pub fn lower(tr: &mut Tracer, spec: &ArchSpec) -> MachineResources {
    tr.count("machine.mdes.lowerings", 1.0);
    tr.span("machine.mdes", || MachineResources::from_spec(spec))
}

/// The machine-independent prefix of a compilation: `sched.loopcode`
/// then `sched.ddg`.
pub fn prepare(tr: &mut Tracer, kernel: &Kernel, machine: &MachineResources) -> Prepared {
    let code = tr.span("sched.loopcode", || LoopCode::build(kernel, machine));
    tr.count("sched.loopcode.ops", code.ops.len() as f64);
    let ddg = tr.span("sched.ddg", || Ddg::build(&code));
    tr.count("sched.ddg.edges", ddg.edges().len() as f64);
    Prepared { code, ddg }
}

/// The machine-dependent core: `sched.cluster`, `sched.ddg` again over
/// the assigned code, `sched.list` under a counting [`Fuel`], and the
/// `sched.regalloc.pressure` analysis.
///
/// # Errors
/// Whatever the list scheduler reports.
pub fn core(
    tr: &mut Tracer,
    prepared: &Prepared,
    machine: &MachineResources,
) -> Result<SchedCore, SchedError> {
    let assignment = tr.span("sched.cluster", || {
        cluster::assign(&prepared.code, &prepared.ddg, machine)
    });
    tr.count("sched.cluster.moves", assignment.move_count as f64);
    let ddg = tr.span("sched.ddg", || Ddg::build(&assignment.code));
    tr.count("sched.ddg.edges", ddg.edges().len() as f64);
    let mut fuel = Fuel::unlimited();
    let schedule = tr.span("sched.list", || {
        list::try_schedule(&assignment, &ddg, machine, &mut fuel)
    })?;
    tr.count("sched.list.steps", fuel.spent() as f64);
    tr.count("sched.list.length", f64::from(schedule.length));
    tr.count("sched.list.critical_path", f64::from(ddg.critical_path()));
    let peak = tr.span("sched.regalloc.pressure", || {
        regalloc::peak_pressure(&assignment, &schedule, machine.cluster_count())
    });
    Ok(SchedCore {
        length: schedule.length,
        critical_path: ddg.critical_path(),
        move_count: assignment.move_count,
        steps: fuel.spent(),
        schedule,
        assignment,
        peak,
    })
}

/// `sched::compile`, staged: [`prepare`], [`core`], then `sched.finish`.
///
/// # Errors
/// Whatever the list scheduler reports.
pub fn compile(
    tr: &mut Tracer,
    kernel: &Kernel,
    machine: &MachineResources,
) -> Result<CompileResult, SchedError> {
    let prepared = prepare(tr, kernel, machine);
    let core = core(tr, &prepared, machine)?;
    Ok(tr.span("sched.finish", || finish(&core, machine)))
}

/// The plan cache, rebuilt by hand: every `(benchmark, residency budget,
/// unroll, extension set)` the sweep would ask for, optimized, unrolled,
/// re-optimized, fused and interned by content — `PlanCache::build`'s
/// loop with a span around each call into `frontend` and `opt`.
#[derive(Debug, Default)]
pub struct Plans {
    kernels: Vec<Kernel>,
    ids: BTreeMap<(Benchmark, usize, u32, ExtSet), usize>,
}

impl Plans {
    /// Build under a `dse.plan_build` span (its self time is the
    /// interning and cloning between the calls).
    pub fn build(
        tr: &mut Tracer,
        benches: &[Benchmark],
        reg_sizes: &[u32],
        ext_sets: &[ExtSet],
    ) -> Self {
        let root = tr.enter("dse.plan_build");
        let mut budgets: Vec<usize> = reg_sizes.iter().map(|&r| residency_budget(r)).collect();
        budgets.sort_unstable();
        budgets.dedup();
        let mut plans = Plans::default();
        for &b in benches {
            let base = frontend(tr, b);
            for &budget in &budgets {
                let mut opt = base.clone();
                optimize(tr, &mut opt, budget);
                for &u in &UNROLL_SWEEP {
                    if opt.body.len() * (u as usize) > MAX_BODY_OPS {
                        continue;
                    }
                    let mut unrolled = unroll(tr, &opt, u);
                    optimize(tr, &mut unrolled, budget);
                    for &exts in ext_sets {
                        let mut k = unrolled.clone();
                        fuse(tr, &mut k, exts);
                        let id = plans.intern(k);
                        plans.ids.insert((b, budget, u, exts), id);
                    }
                }
            }
        }
        tr.exit(root);
        tr.count("dse.plan_build.plans", plans.ids.len() as f64);
        tr.count("dse.plan_build.unique_kernels", plans.kernels.len() as f64);
        plans
    }

    fn intern(&mut self, kernel: Kernel) -> usize {
        if let Some(i) = self.kernels.iter().position(|k| *k == kernel) {
            return i;
        }
        self.kernels.push(kernel);
        self.kernels.len() - 1
    }
}

/// The memoized evaluator, rebuilt by hand over [`Plans`]: one
/// `dse.eval` span per `(architecture, benchmark)` unit, inside it the
/// unroll sweep with every `(plan, scheduling signature)` scheduled once
/// through [`prepare`] and [`core`] and served from a map afterwards —
/// the evaluation discipline of `dse::try_evaluate_cached`, including
/// its stop-on-spill rule and its hit accounting.
#[derive(Debug, Default)]
pub struct Evaluator {
    prepared: HashMap<(usize, u32), Rc<Prepared>>,
    cores: HashMap<(usize, SchedSignature), Rc<SchedCore>>,
    lowered: Option<(ArchSpec, MachineResources)>,
}

impl Evaluator {
    /// Evaluate one unit. `op` tags the unit's spans.
    pub fn evaluate(
        &mut self,
        tr: &mut Tracer,
        plans: &Plans,
        spec: &ArchSpec,
        bench: Benchmark,
        op: u64,
    ) -> EvalOutcome {
        tr.set_op(op);
        let root = tr.enter("dse.eval");
        if self.lowered.as_ref().is_none_or(|(s, _)| s != spec) {
            self.lowered = Some((*spec, lower(tr, spec)));
        }
        let machine = &self.lowered.as_ref().expect("just lowered").1;
        let sig = spec.sched_signature_with(&machine.mdes);
        let budget = residency_budget(spec.regs);
        let mut best: Option<Measurement> = None;
        let mut compilations = 0;
        let mut failure = None;
        for &u in &UNROLL_SWEEP {
            let Some(&id) = plans.ids.get(&(bench, budget, u, spec.exts)) else {
                break;
            };
            let core = match self.cores.get(&(id, sig)) {
                Some(core) => {
                    tr.count("dse.eval.cache_hits", 1.0);
                    Rc::clone(core)
                }
                None => {
                    let prepared = match self.prepared.get(&(id, machine.l2_latency)) {
                        Some(p) => Rc::clone(p),
                        None => {
                            let p = Rc::new(prepare(tr, &plans.kernels[id], machine));
                            self.prepared
                                .insert((id, machine.l2_latency), Rc::clone(&p));
                            p
                        }
                    };
                    match core(tr, &prepared, machine) {
                        Ok(c) => {
                            tr.count("dse.eval.unique_schedules", 1.0);
                            let c = Rc::new(c);
                            self.cores.insert((id, sig), Rc::clone(&c));
                            c
                        }
                        Err(_) if best.is_some() => break,
                        Err(e) => {
                            failure = Some(e);
                            break;
                        }
                    }
                }
            };
            compilations += 1;
            tr.count("dse.eval.compilations", 1.0);
            let excess: u32 = core
                .peak
                .iter()
                .zip(&machine.clusters)
                .map(|(&p, c)| p.saturating_sub(c.regs))
                .sum();
            let fits = excess == 0;
            if !fits && u > 1 {
                break;
            }
            let cycles = core.length + spill_penalty_cycles(excess, machine);
            let cpo = f64::from(cycles) / f64::from(plans.kernels[id].outputs_per_iter);
            if best.as_ref().is_none_or(|b| cpo < b.cycles_per_output) {
                best = Some(Measurement {
                    cycles_per_output: cpo,
                    unroll: u,
                    spilled: !fits,
                    compilations: 0,
                });
            }
            if !fits {
                break;
            }
        }
        tr.exit(root);
        match (best, failure) {
            (Some(mut m), None) => {
                m.compilations = compilations;
                EvalOutcome::Done(m)
            }
            (_, failure) => EvalOutcome::Failed {
                reason: FailReason {
                    kind: FailKind::Error,
                    message: failure.map_or("no plan".to_owned(), |e| e.to_string()),
                },
            },
        }
    }
}
