//! `compile_verify` — the `cfpc` path with no cache anywhere: every
//! kernel, from source text to a simulated schedule, checked against the
//! hand-written reference.

use super::{timed, trace_ratios, Pass, Workload};
use crate::report::RunResult;
use crate::trace::Tracer;
use crate::{gen, staged, Digest};
use custom_fit::dse::eval::{residency_budget, MAX_BODY_OPS};
use custom_fit::ir::{Kernel, MemImage};
use custom_fit::kernels::data::Workload as Problem;
use custom_fit::kernels::{golden, Benchmark};
use custom_fit::machine::{ArchSpec, MachineResources};
use custom_fit::sched::{allocate, decode, encode, simulate, CompileResult};

/// Machines drawn per pass. Every machine compiles every kernel once,
/// about 430 operations a pass, near 3 s on one core.
pub const MACHINES: usize = 40;

/// Unroll factors, dealt over `(kernel, machine)` pairs as a Latin
/// square: kernel `k` on the pass's machine `m` is compiled at
/// `UNROLLS[(k + m) % 4]`. An operation's cost is set by its kernel and
/// unroll factor first (0.1 to 30 ms), so every pass compiles every kernel
/// at every factor equally often, each time on a different machine, and
/// four times the machines of a full factorial fit in a pass: what is left
/// to the draw is the machines' own effect on cost, averaged over forty.
const UNROLLS: [u32; 4] = [1, 2, 4, 8];

/// Base-kernel iterations simulated (a multiple of every unroll factor;
/// at least 8 and up to 512 output units, by kernel).
const ITERS: u64 = 8;

/// The machines of the quality probe, narrow to wide: `(a m r p2 l2 c)`.
const REFERENCE_MACHINES: [(u32, u32, u32, u32, u32, u32); 4] = [
    (2, 1, 128, 1, 4, 1),
    (4, 2, 128, 2, 4, 2),
    (8, 4, 256, 2, 4, 2),
    (16, 8, 512, 4, 4, 4),
];

/// One kernel's generated problem and its reference answer.
#[derive(Debug)]
struct Reference {
    bench: Benchmark,
    problem: Problem,
    image: MemImage,
    gold: MemImage,
    /// Simulated cycles per output on the baseline machine, un-unrolled.
    baseline_cpo: f64,
}

/// The workload's state: generated inputs and references only.
#[derive(Debug)]
pub struct CompileVerify {
    seed: u64,
    references: Vec<Reference>,
    /// The current pass's machines.
    machines: Vec<ArchSpec>,
}

/// What one operation produced.
#[derive(Debug, Clone, Copy)]
struct OpResult {
    /// Simulated cycles for [`ITERS`] base iterations.
    cycles: u64,
    /// Compressed code size, 0 when the kernel spills on this machine.
    code_bytes: u64,
    ok: bool,
}

/// The front half of an operation — source text to the kernel the back
/// end compiles, through the same calls `cfpc` makes — or `None` when
/// the unrolled body would exceed the evaluator's size cap (not an
/// operation, exactly as in the sweep).
fn front(tr: &mut Tracer, bench: Benchmark, spec: &ArchSpec, unroll: u32) -> Option<Kernel> {
    let mut k = staged::frontend(tr, bench);
    staged::optimize(tr, &mut k, residency_budget(spec.regs));
    if k.body.len() * unroll as usize > MAX_BODY_OPS {
        return None;
    }
    let mut k = staged::unroll(tr, &k, unroll);
    staged::fuse(tr, &mut k, spec.exts);
    Some(k)
}

/// The back half after scheduling: allocate and encode when the kernel
/// fits, decode what was encoded, simulate on a fresh copy of the image
/// and compare every observable array with the reference.
fn back(
    tr: &mut Tracer,
    reference: &Reference,
    kernel: &Kernel,
    result: &CompileResult,
    machine: &MachineResources,
    unroll: u32,
) -> OpResult {
    let mut ok = true;
    let mut code_bytes = 0;
    if result.fits() {
        ok &= tr
            .span("sched.regalloc.allocate", || {
                allocate(&result.assignment, &result.schedule, machine)
            })
            .is_ok();
        // `encode` allocates again internally; its span carries both.
        let program = tr.span("sched.encode", || {
            let program = encode(&result.assignment, &result.schedule, machine).ok()?;
            let decoded: usize = decode(&program).iter().map(Vec::len).sum();
            (decoded == result.assignment.code.ops.len()
                && program.words.len() == result.schedule.length as usize)
                .then_some(program)
        });
        ok &= program.is_some();
        code_bytes = program.map_or(0, |p| p.compressed_bytes() as u64);
    }
    let mut mem = reference.image.clone();
    let sim = tr.span("sched.simulate", || {
        simulate(kernel, result, machine, &mut mem, ITERS / u64::from(unroll))
    });
    ok &= sim.is_ok()
        && reference
            .problem
            .observable_arrays()
            .into_iter()
            .all(|i| mem.array(i) == reference.gold.array(i));
    let cycles = sim.map_or(0, |s| s.cycles);
    tr.count("sched.simulate.cycles", cycles as f64);
    tr.count("sched.encode.bytes_compressed", code_bytes as f64);
    tr.count(
        "sched.regalloc.spilled_units",
        f64::from(u8::from(!result.fits())),
    );
    OpResult {
        cycles,
        code_bytes,
        ok,
    }
}

impl CompileVerify {
    /// Every `(kernel, machine, unroll)` of the pass, kernel by kernel.
    fn ops(&self) -> impl Iterator<Item = (&Reference, ArchSpec, u32)> + '_ {
        self.references.iter().enumerate().flat_map(move |(k, r)| {
            self.machines
                .iter()
                .enumerate()
                .map(move |(m, &spec)| (r, spec, UNROLLS[(k + m) % UNROLLS.len()]))
        })
    }

    /// One operation: source text to verified schedule. `None` when the
    /// unrolled body exceeds the size cap. `staged` selects the back end:
    /// `sched::compile` in one call, or the same pipeline stage by stage
    /// under `tr`'s spans.
    fn op(
        tr: &mut Tracer,
        reference: &Reference,
        spec: &ArchSpec,
        unroll: u32,
        staged: bool,
    ) -> Option<OpResult> {
        let kernel = front(tr, reference.bench, spec, unroll)?;
        let machine = staged::lower(tr, spec);
        let result = if staged {
            staged::compile(tr, &kernel, &machine).expect("unlimited fuel")
        } else {
            custom_fit::sched::compile(&kernel, &machine)
        };
        Some(back(tr, reference, &kernel, &result, &machine, unroll))
    }

    /// Baseline cycles per output over this operation's.
    fn speedup(reference: &Reference, done: &OpResult) -> f64 {
        let outputs = ITERS * u64::from(reference.problem.kernel.outputs_per_iter);
        reference.baseline_cpo / (done.cycles as f64 / outputs as f64)
    }

    /// One pass. `staged` selects the back end: `sched::compile` in one
    /// call, or the same pipeline stage by stage under `tr`'s spans.
    fn run(&self, tr: &mut Tracer, staged: bool) -> Pass {
        let mut pass = Pass::default();
        let mut digest = Digest::default();
        for (op, (reference, spec, unroll)) in self.ops().enumerate() {
            tr.set_op(op as u64 + 1);
            let (s, done) = timed(|| Self::op(tr, reference, &spec, unroll, staged));
            let Some(done) = done else { continue };
            pass.attempted += 1;
            pass.op_ms.push(s * 1e3);
            digest.eat(done.cycles);
            digest.eat(done.code_bytes);
            if !done.ok {
                pass.failed += 1;
                pass.check_failures.push(format!(
                    "{} on {spec} x{unroll}: simulated output differs from the golden reference",
                    reference.bench
                ));
            }
        }
        pass.digest = digest.0;
        pass
    }
}

impl Workload for CompileVerify {
    const NAME: &'static str = "compile_verify";

    fn prepare(seed: u64, _threads: usize) -> Self {
        let mut rng = gen::stream(seed, "cv.images");
        let baseline = ArchSpec::baseline();
        let base_machine = MachineResources::from_spec(&baseline);
        // Images, reference answers and the baseline's cycle counts: one
        // full trip through the pipeline per kernel, which is also the
        // warm-up.
        let references = Benchmark::ALL
            .iter()
            .map(|&bench| {
                let problem = bench.workload(ITERS, rng.next_u64());
                let image = problem.image();
                let mut gold = image.clone();
                golden::run(bench, &mut gold, ITERS);
                let kernel = front(&mut Tracer::off(), bench, &baseline, 1)
                    .expect("un-unrolled kernels are small");
                let result = custom_fit::sched::compile(&kernel, &base_machine);
                let mut mem = image.clone();
                let stats = simulate(&kernel, &result, &base_machine, &mut mem, ITERS)
                    .expect("the baseline machine runs every kernel");
                let outputs = ITERS * u64::from(problem.kernel.outputs_per_iter);
                Reference {
                    bench,
                    problem,
                    image,
                    gold,
                    baseline_cpo: stats.cycles as f64 / outputs as f64,
                }
            })
            .collect();
        let mut workload = CompileVerify {
            seed,
            references,
            machines: Vec::new(),
        };
        // ... and every kernel at every unroll factor once, on pass 0's
        // first four machines, so the timed passes start with every path
        // taken and the heap grown.
        workload.before_pass(0);
        let warm = &workload.machines[..UNROLLS.len()];
        for (reference, spec, unroll) in workload.ops().filter(|(_, m, _)| warm.contains(m)) {
            std::hint::black_box(Self::op(
                &mut Tracer::off(),
                reference,
                &spec,
                unroll,
                false,
            ));
        }
        workload
    }

    fn before_pass(&mut self, pass: u64) {
        self.machines = gen::machines(
            &mut gen::pass_stream(self.seed, pass, "cv.machines"),
            MACHINES,
        );
    }

    fn pass(&mut self) -> Pass {
        self.run(&mut Tracer::off(), false)
    }

    fn verify(&mut self, out: &mut RunResult) {
        // Every operation already compared its arrays with the reference
        // inside the pass; nothing is left to check afterwards.
        out.notes.push(format!(
            "a pass: {} kernels x {} machines ({} with fused extensions), unroll {UNROLLS:?} dealt as a Latin square; single-threaded",
            self.references.len(),
            self.machines.len(),
            self.machines.iter().filter(|m| !m.exts.is_empty()).count(),
        ));
    }

    /// Every kernel on four fixed machines at unroll 1 and 4, through the
    /// same operation the passes time. A speedup whose output failed
    /// verification reads 0.
    fn quality(&mut self, _out: &mut RunResult) -> Vec<f64> {
        let mut speedups = Vec::new();
        for reference in &self.references {
            for (a, m, r, p2, l2, c) in REFERENCE_MACHINES {
                let spec = ArchSpec::new(a, m, r, p2, l2, c).expect("reference machines are valid");
                for unroll in [1, 4] {
                    if let Some(done) =
                        Self::op(&mut Tracer::off(), reference, &spec, unroll, false)
                    {
                        speedups.push(if done.ok {
                            Self::speedup(reference, &done)
                        } else {
                            0.0
                        });
                    }
                }
            }
        }
        speedups
    }

    fn trace(&mut self, tr: &mut Tracer, out: &mut RunResult) {
        // An untraced pass first (warm-up, and the result to reproduce),
        // then the staged pass under spans, then the untraced wall the
        // spans must account for.
        let real = self.run(&mut Tracer::off(), false);
        let (traced, staged) = timed(|| self.run(tr, true));
        let (untraced, _) = timed(|| self.run(&mut Tracer::off(), false));
        trace_ratios(out, tr, traced, untraced);
        out.digests.push(("result".to_owned(), real.digest));
        out.check(staged.digest == real.digest, || {
            format!(
                "staged compilation digest {:016x} differs from sched::compile's {:016x}",
                staged.digest, real.digest
            )
        });
        out.attempted = staged.attempted;
        out.failed = staged.failed;
        out.check_failures.extend(staged.check_failures);
        out.notes.push(format!(
            "single-threaded; untraced wall {untraced:.3} s, staged {traced:.3} s"
        ));
    }
}
