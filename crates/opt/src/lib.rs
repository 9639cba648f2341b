//! # cfp-opt — machine-independent optimizer
//!
//! Classic scalar optimizations over `cfp_ir::Kernel`s, applied between
//! the front end and the VLIW back end:
//!
//! * [`fold::constant_fold`] — constant propagation and folding;
//! * [`algebraic::simplify`] — identities (`x+0`, `x*1`, …) and
//!   power-of-two multiply strength reduction;
//! * [`copyprop::propagate`] — copy propagation (so simplification
//!   residue never occupies an issue slot);
//! * [`cse::eliminate`] — common-subexpression elimination, including
//!   redundant-load elimination with per-array store epochs (this is the
//!   pass that turns an unrolled stencil's overlapping loads into a
//!   register window);
//! * [`licm::hoist`] — loop-invariant code motion into the preamble
//!   (hoisted values then occupy registers for the whole loop, which is
//!   exactly the register-pressure trade-off the paper's experiment
//!   exercises);
//! * [`scalarize::promote_locals`] — scalar promotion (mem2reg) of
//!   constant-indexed local scratch arrays;
//! * [`dce::eliminate`] — dead-code and dead-carry elimination;
//! * [`unroll::unroll`] — outer-loop unrolling by a given factor (the
//!   factor the experiment sweeps until spilling starts);
//! * [`fuse::fuse`] — fused-operation rewriting for the custom-
//!   instruction axis (runs *after* the pipeline and unrolling, only for
//!   design points whose extension set provides the fused units).
//!
//! [`optimize`] runs the standard pipeline to a fixed point. Each pass in
//! the loop reports whether it changed the kernel, and the first round
//! in which none did ends it. A pass may report a change that did not
//! happen (one more round, the same result), never the reverse; debug
//! builds check every "unchanged" round against a copy. All passes preserve interpreter semantics —
//! property-tested in the workspace's `tests/properties.rs`.
//!
//! ```
//! use cfp_frontend::compile_kernel;
//! use cfp_opt::{optimize, unroll::unroll};
//!
//! let mut k = compile_kernel(
//!     "kernel k(in u8 s[], out u8 d[]) { loop i { d[i] = u8(s[i] * 8 + 0); } }",
//!     &[],
//! ).unwrap();
//! optimize(&mut k);
//! // *8 became <<3 and the +0 disappeared.
//! assert_eq!(k.mul_count(), 0);
//! let k4 = cfp_opt::unroll::unroll(&k, 4);
//! assert_eq!(k4.outputs_per_iter, 4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The passes rewrite user kernels inside sweep workers; a panic here
// loses a unit, so an unwrap/expect in non-test code needs a written
// justification (a sibling `#[allow]` with a comment) or a fallible
// path instead. CI runs clippy with `-D warnings`, enforcing the gate.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod algebraic;
pub mod copyprop;
pub mod cse;
pub mod dce;
pub mod fold;
pub mod fuse;
pub mod licm;
pub mod scalarize;
pub mod unroll;

use cfp_ir::{CarriedInit, Kernel, Operand, Vreg};

/// Run the standard pipeline (scalar promotion, then fold → algebraic →
/// CSE → LICM → DCE to a fixed point, bounded by a small iteration cap)
/// with no limit on loop-resident values.
pub fn optimize(kernel: &mut Kernel) {
    optimize_budgeted(kernel, usize::MAX);
}

/// Like [`optimize`], but LICM keeps the number of loop-resident values
/// at or below `max_resident` — the knob the design-space exploration
/// derives from each candidate architecture's register file.
pub fn optimize_budgeted(kernel: &mut Kernel, max_resident: usize) {
    optimize_budgeted_traced(kernel, max_resident, &mut cfp_obs::UnitTrace::disabled());
}

/// [`optimize_budgeted`] recording one `opt` span per pass invocation
/// (named by a `pass` field, with the fixpoint iteration and the body
/// size after the pass). With a disabled trace this is exactly
/// [`optimize_budgeted`] — the span bookkeeping costs one predicted
/// branch per pass and never allocates.
///
/// Returns the peak resident count over the run's LICM calls. The budget
/// is read nowhere but in LICM's one comparison ([`licm`] module docs),
/// so a run that reports `peak < max_resident` never saw it hold in any
/// call: by induction over the calls it is, step for step, the run of
/// every budget above `peak` on the same input — same kernel, same peak.
/// A run with `peak >= max_resident` answers for `max_resident` alone.
pub fn optimize_budgeted_traced(
    kernel: &mut Kernel,
    max_resident: usize,
    trace: &mut cfp_obs::UnitTrace<'_>,
) -> usize {
    use cfp_obs::{Stage, Value};
    let peak = std::cell::Cell::new(0_usize);
    let pass = |kernel: &mut Kernel,
                trace: &mut cfp_obs::UnitTrace<'_>,
                iter: u64,
                name: &'static str,
                f: &dyn Fn(&mut Kernel) -> bool| {
        let t0 = trace.start();
        let changed = f(kernel);
        trace.stage(
            Stage::Opt,
            t0,
            &[
                ("pass", Value::Str(name)),
                ("iter", Value::U64(iter)),
                ("body_ops", Value::U64(kernel.body.len() as u64)),
            ],
        );
        changed
    };
    pass(kernel, trace, 0, "scalarize", &|k| {
        scalarize::promote_locals(k) > 0
    });
    for iter in 1..=8_u64 {
        // Debug builds hold every "unchanged" report to the kernel itself.
        #[cfg(debug_assertions)]
        let before = kernel.clone();
        // Every pass runs, whatever the ones before it reported.
        let mut changed = pass(kernel, trace, iter, "fold", &fold::constant_fold);
        changed |= pass(kernel, trace, iter, "algebraic", &algebraic::simplify);
        changed |= pass(kernel, trace, iter, "copyprop", &copyprop::propagate);
        changed |= pass(kernel, trace, iter, "cse", &cse::eliminate);
        changed |= pass(kernel, trace, iter, "licm", &|k| {
            let (resident, hoisted) = hoist_reported(k, max_resident);
            peak.set(peak.get().max(resident));
            hoisted
        });
        changed |= pass(kernel, trace, iter, "dce", &dce::eliminate);
        #[cfg(debug_assertions)]
        debug_assert!(changed || *kernel == before, "a pass hid a change");
        if !changed {
            break;
        }
    }
    debug_assert_eq!(cfp_ir::verify(kernel), Ok(()), "optimizer broke IR");
    peak.get()
}

/// LICM as a fixpoint pass: the resident count, and whether anything was
/// hoisted — hoisting only ever moves body instructions to the preamble.
fn hoist_reported(kernel: &mut Kernel, max_resident: usize) -> (usize, bool) {
    let preamble = kernel.preamble.len();
    let resident = licm::hoist_budgeted(kernel, max_resident);
    (resident, kernel.preamble.len() != preamble)
}

/// "No register": the empty entry of a dense table of [`Vreg`]s. No
/// kernel numbers a register this high — `Kernel::vreg_count` would
/// overflow first.
pub(crate) const NO_VREG: Vreg = Vreg(u32::MAX);

/// Rewrite every register operand of every instruction (preamble + body)
/// and every carried output and init register through a substitution.
pub(crate) fn substitute(kernel: &mut Kernel, map: impl Fn(Vreg) -> Vreg) {
    for inst in kernel.preamble.iter_mut().chain(kernel.body.iter_mut()) {
        inst.map_operands(|o| match o {
            Operand::Reg(v) => Operand::Reg(map(v)),
            imm => imm,
        });
    }
    for c in &mut kernel.carried {
        c.output = map(c.output);
        if let CarriedInit::Preamble(p) = c.init {
            c.init = CarriedInit::Preamble(map(p));
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use cfp_frontend::compile_kernel;
    use cfp_ir::{Interpreter, MemImage};

    /// Compile, transform with `f`, run both versions on the same inputs
    /// (`n_iters` base iterations = `n_iters / speedup` transformed
    /// iterations), and require identical memory images.
    pub fn check_same_results(
        src: &str,
        consts: &[(&str, i64)],
        f: impl Fn(&cfp_ir::Kernel) -> cfp_ir::Kernel,
        iter_ratio: u64,
    ) {
        let base = compile_kernel(src, consts).unwrap();
        let xformed = f(&base);
        cfp_ir::verify(&xformed).expect("transformed kernel verifies");

        let n_iters = 8_u64;
        let mut mem_a = MemImage::for_kernel(&base);
        let mut mem_b = MemImage::for_kernel(&xformed);
        for (i, a) in base.arrays.iter().enumerate() {
            if !matches!(a.kind, cfp_ir::ArrayKind::Local(_)) {
                let data: Vec<i64> = (0..64).map(|k| (k * 37 + 11) % 251).collect();
                mem_a.bind(i, data.clone());
                mem_b.bind(i, data);
            }
        }
        Interpreter::new().run(&base, &mut mem_a, n_iters).unwrap();
        Interpreter::new()
            .run(&xformed, &mut mem_b, n_iters / iter_ratio)
            .unwrap();
        for i in 0..base.arrays.len() {
            // Local arrays are scratch, not observable outputs — scalar
            // promotion legitimately stops materializing them.
            if matches!(base.arrays[i].kind, cfp_ir::ArrayKind::Local(_)) {
                continue;
            }
            assert_eq!(mem_a.array(i), mem_b.array(i), "array {i} diverged");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::check_same_results;
    use cfp_frontend::compile_kernel;

    #[test]
    fn pipeline_preserves_semantics_on_representative_kernels() {
        let stencil = "kernel st(in u8 s[], out i32 d[]) {
            loop i {
                var acc = 0;
                for t in 0..5 { acc = acc + s[i + t] * (t + 1); }
                d[i] = acc >> 2;
            }
        }";
        let carried = "kernel c(in i32 s[], out i32 d[]) {
            var e = 3;
            loop i {
                e = (e * 7 + s[i]) >> 1;
                if e > 100 { e = e - 100; }
                d[i] = e;
            }
        }";
        for src in [stencil, carried] {
            for u in [1_u64, 2, 4] {
                check_same_results(
                    src,
                    &[],
                    |k| {
                        let mut o = k.clone();
                        optimize(&mut o);
                        unroll::unroll(&o, u32::try_from(u).unwrap())
                    },
                    u,
                );
            }
        }
    }

    /// Every pass of the fixpoint reports a change exactly when the
    /// kernel changed, round after round, on every shipped kernel as
    /// lowered and as unrolled by four after a first optimization.
    #[test]
    fn every_pass_reports_exactly_its_changes() {
        type Pass = fn(&mut Kernel) -> bool;
        let passes: [(&str, Pass); 6] = [
            ("fold", fold::constant_fold),
            ("algebraic", algebraic::simplify),
            ("copyprop", copyprop::propagate),
            ("cse", cse::eliminate),
            ("licm", |k| hoist_reported(k, usize::MAX).1),
            ("dce", dce::eliminate),
        ];
        for b in cfp_kernels::Benchmark::ALL {
            let lowered = b.kernel();
            let mut optimized = lowered.clone();
            optimize(&mut optimized);
            for mut k in [lowered, unroll::unroll(&optimized, 4)] {
                scalarize::promote_locals(&mut k);
                for round in 1..=8 {
                    let mut any = false;
                    for (name, pass) in passes {
                        let before = k.clone();
                        let changed = pass(&mut k);
                        assert_eq!(changed, k != before, "{b} round {round}: {name}");
                        any |= changed;
                    }
                    if !any {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn optimize_reaches_fixed_point() {
        let mut k = compile_kernel(
            "kernel k(in i32 s[], out i32 d[]) { loop i { d[i] = (s[i] + 0) * 1 + (2 + 3); } }",
            &[],
        )
        .unwrap();
        optimize(&mut k);
        let snapshot = k.clone();
        optimize(&mut k);
        assert_eq!(k, snapshot, "second run must be a no-op");
    }
}
