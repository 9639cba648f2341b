//! The fuse pass is semantics-preserving: rewriting mined dependence
//! chains (multiply-add, min/max clip, add-shift) into fused
//! instructions changes no observable memory, under the reference
//! interpreter and under the cycle-accurate simulator on machines whose
//! extension set provides the fused units.
//!
//! Three layers of evidence, mirroring `tests/frontend_fuzz.rs`'s
//! SplitMix64-random discipline:
//!
//! * every benchmark kernel, optimized and unrolled, fuses to a kernel
//!   the interpreter cannot tell apart on seeded random inputs;
//! * random recipe kernels (the `common` generator, which emits the
//!   mul→add, cmp→sel, and add→ashr idioms the miner targets) agree
//!   under every extension-target subset;
//! * fused schedules compiled for extension-bearing machines simulate
//!   to the golden Rust reference, end to end through the scheduler,
//!   register allocator, and simulator.
//!
//! And one claim about the axis as the exploration sees it: adding the
//! `ExtSet` axis leaves the unextended subspace bit-identical, and
//! cost-bounded selections buy the extensions it offers.

mod common;

use cfp_testkit::cases;
use common::{bind_inputs, build, recipe, N_ITERS};
use custom_fit::dse::{select, Exploration, ExploreConfig, Range};
use custom_fit::kernels::golden;
use custom_fit::machine::ExtSet;
use custom_fit::opt::fuse::{fuse, mine, FuseTargets};
use custom_fit::prelude::*;

/// Every target subset, empty through ALL.
fn all_targets() -> Vec<FuseTargets> {
    (0..8_u8).map(FuseTargets).collect()
}

#[test]
fn fused_benchmarks_match_the_interpreter_reference() {
    for bench in Benchmark::ALL {
        for unroll in [1_u32, 2] {
            let workload = bench.workload(N_ITERS, 0xf05e + u64::from(unroll));
            let mut kernel = workload.kernel.clone();
            custom_fit::opt::optimize(&mut kernel);
            let kernel = custom_fit::opt::unroll::unroll(&kernel, unroll);

            let mut fused = kernel.clone();
            let rewrites = fuse(&mut fused, FuseTargets::ALL);
            custom_fit::ir::verify(&fused).expect("fused kernel verifies");
            // Every rewrite removes exactly one producer instruction.
            assert_eq!(fused.body.len(), kernel.body.len() - rewrites as usize);

            let iters = N_ITERS / u64::from(unroll);
            let mut mem_ref = workload.image();
            Interpreter::new()
                .run(&kernel, &mut mem_ref, iters)
                .expect("reference runs");
            let mut mem_fused = workload.image();
            Interpreter::new()
                .run(&fused, &mut mem_fused, iters)
                .expect("fused runs");
            for i in workload.observable_arrays() {
                assert_eq!(
                    mem_ref.array(i),
                    mem_fused.array(i),
                    "{bench} x{unroll}: array {i} diverged after {rewrites} rewrites"
                );
            }
        }
    }
}

/// Random kernels, every target subset: the rewrite count under a subset
/// never exceeds ALL's, gated ops never appear, and semantics hold.
#[test]
fn random_kernels_agree_under_every_target_subset() {
    cases(0xf05e_0001, 24, |rng| {
        let kernel = build(&recipe(rng));
        let mut mem_ref = bind_inputs(&kernel);
        Interpreter::new()
            .run(&kernel, &mut mem_ref, N_ITERS)
            .expect("reference runs");
        for targets in all_targets() {
            let mut fused = kernel.clone();
            let n = fuse(&mut fused, targets);
            custom_fit::ir::verify(&fused).expect("fused kernel verifies");
            for inst in &fused.body {
                if let Some(op) = inst.fused_op() {
                    assert!(targets.allows(op), "{op:?} emitted against {targets:?}");
                }
            }
            if !targets.any() {
                assert_eq!(n, 0, "no targets, no rewrites");
            }
            let mut mem = bind_inputs(&kernel);
            Interpreter::new()
                .run(&fused, &mut mem, N_ITERS)
                .expect("fused runs");
            for i in 0..4 {
                assert_eq!(mem_ref.array(i), mem.array(i), "array {i} ({targets:?})");
            }
        }
    });
}

/// Mining is consistent with fusing: the candidate counts are exactly
/// the rewrites ALL-target fusion performs, on every benchmark.
#[test]
fn mine_predicts_fuse_on_every_benchmark() {
    for bench in Benchmark::ALL {
        let mut kernel = bench.kernel();
        custom_fit::opt::optimize(&mut kernel);
        let cands = mine(&kernel);
        let total: u32 = cands.iter().map(|c| c.count).sum();
        let mut fused = kernel.clone();
        assert_eq!(fuse(&mut fused, FuseTargets::ALL), total, "{bench}");
        for w in cands.windows(2) {
            assert!(w[0].score() >= w[1].score(), "{bench}: miner ranking");
        }
    }
}

/// The suite actually contains the mined idioms — the axis has something
/// to sell. (Which kernels buy which ops is the `exhibits fused`
/// exhibit; this pins only that every fused-op family occurs somewhere.)
#[test]
fn the_suite_exercises_every_fused_op_family() {
    let mut mined = [0_u32; custom_fit::machine::EXTENSIONS.len()];
    for bench in Benchmark::ALL {
        let mut kernel = bench.kernel();
        custom_fit::opt::optimize(&mut kernel);
        for c in mine(&kernel) {
            mined[usize::from(c.op.row().ext)] += c.count;
        }
    }
    for (ext, n) in custom_fit::machine::EXTENSIONS.iter().zip(mined) {
        assert!(n > 0, "no benchmark mines a `{}` operation", ext.name);
    }
}

/// End to end through the machine layer: fused kernels compiled for
/// extension-bearing architectures simulate to the golden reference.
#[test]
fn fused_schedules_simulate_to_the_golden_reference() {
    let specs = [
        ArchSpec::new(8, 4, 256, 2, 4, 1).expect("valid"),
        ArchSpec::new(16, 8, 512, 4, 4, 4).expect("valid"),
    ];
    for bench in [Benchmark::A, Benchmark::D, Benchmark::F, Benchmark::H] {
        for base in &specs {
            let spec = base.with_extensions(ExtSet::ALL);
            let n = 4_u64;
            let workload = bench.workload(n, 0xf05e_90ed);
            let mut kernel = workload.kernel.clone();
            custom_fit::opt::optimize_budgeted(&mut kernel, (spec.regs / 2) as usize);
            fuse(&mut kernel, FuseTargets::ALL);

            let machine = MachineResources::from_spec(&spec);
            let result = compile(&kernel, &machine);
            let mut mem = workload.image();
            simulate(&kernel, &result, &machine, &mut mem, n)
                .unwrap_or_else(|e| panic!("{bench} on {spec}: {e}"));

            let mut gold = workload.image();
            golden::run(bench, &mut gold, n);
            for i in workload.observable_arrays() {
                assert_eq!(mem.array(i), gold.array(i), "{bench} on {spec}: array {i}");
            }
        }
    }
}

/// The axis as the sweep sees it, on a slice of `r = 256` datapaths
/// crossed with every set on [`ExtSet::AXIS`]: the empty-set block
/// scores bit for bit what a sweep without the axis scores, and the
/// per-target selections under cost 10 buy at least two distinct fused
/// ops — the axis pays for itself.
#[test]
fn the_extension_axis_keeps_the_plain_subspace_and_gets_bought() {
    let mut plain = Vec::new();
    for (a, m) in [(4_u32, 2_u32), (8, 4)] {
        for c in [1_u32, 2] {
            for p2 in [1_u32, 2] {
                plain.push(ArchSpec::new(a, m, 256, p2, 4, c).expect("valid"));
            }
        }
    }
    let benches = vec![Benchmark::A, Benchmark::D, Benchmark::G, Benchmark::H];
    let run = |archs: Vec<ArchSpec>| {
        Exploration::run(&ExploreConfig {
            archs,
            benches: benches.clone(),
            ..ExploreConfig::default()
        })
    };
    let px = run(plain.clone());
    let fx = run(plain
        .iter()
        .flat_map(|s| ExtSet::AXIS.iter().map(|&e| s.with_extensions(e)))
        .collect());

    let bits = |row: Vec<f64>| row.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    for (pa, p) in px.archs.iter().enumerate() {
        let fa = fx
            .archs
            .iter()
            .position(|a| a.spec == p.spec)
            .expect("the empty-set block is a subset of the fused slice");
        assert_eq!(
            bits(px.speedup_row(pa)),
            bits(fx.speedup_row(fa)),
            "{}: the extension axis changed the unextended subspace",
            p.spec
        );
    }

    let mut bought = ExtSet::EMPTY;
    for col in 0..fx.benches.len() {
        if let Some(sel) = select(&fx, col, 10.0, Range::Fraction(0.0)) {
            for op in sel.spec.exts.iter() {
                bought = bought.with(op);
            }
        }
    }
    assert!(
        bought.len() >= 2,
        "only {bought} bought across targets — the axis is not paying"
    );
}
