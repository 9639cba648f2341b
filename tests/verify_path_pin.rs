//! The compile-and-verify path, pinned to its bits.
//!
//! `cfpc` and the `compile_verify` benchmark run one pipeline: DSL source
//! → lowered IR → budgeted optimizer → unroll → fuse → `sched::compile`
//! → `allocate` → `encode`/`decode` → `simulate`. The benchmark's own
//! digest folds only the simulated cycles and the compressed code size,
//! so a changed register assignment, slot order or immediate pool would
//! pass it unseen. This pin folds every intermediate of that pipeline
//! into one `Fnv1a` digest: the lowered and the optimized IR listings,
//! the unrolled-and-fused kernel, `allocate`'s `PhysMap` (every vreg on
//! every cluster), every encoded word (mask, slots, immediates) and its
//! decoding, `SimStats` and the whole simulated memory image.
//!
//! The set: the eleven benchmark kernels on `compile_verify`'s four
//! reference machines plus one machine per non-empty fused-extension
//! set, at unroll 1 and 4. A faster back end or front end must leave the
//! literal below where it is.

use custom_fit::dse::eval::{fuse_targets, residency_budget, MAX_BODY_OPS};
use custom_fit::frontend::compile_kernel;
use custom_fit::ir::pretty::Listing;
use custom_fit::ir::Vreg;
use custom_fit::kernels::Benchmark;
use custom_fit::machine::{ArchSpec, ExtSet, Fnv1a, MachineResources};
use custom_fit::sched::{allocate, compile, decode, encode, simulate};
use std::fmt::Write as _;

/// `compile_verify`'s reference machines, narrow to wide:
/// `(a m r p2 l2 c)`.
const REFERENCE_MACHINES: [(u32, u32, u32, u32, u32, u32); 4] = [
    (2, 1, 128, 1, 4, 1),
    (4, 2, 128, 2, 4, 2),
    (8, 4, 256, 2, 4, 2),
    (16, 8, 512, 4, 4, 4),
];

/// Base-kernel iterations simulated (a multiple of every unroll factor).
const ITERS: u64 = 8;

fn eat(digest: &mut Fnv1a, word: u64) {
    digest.write(&word.to_le_bytes());
}

/// The machines of the pin: the four reference machines, then the
/// third of them once with every non-empty extension set.
fn machines() -> Vec<ArchSpec> {
    let mut specs: Vec<ArchSpec> = REFERENCE_MACHINES
        .iter()
        .map(|&(a, m, r, p2, l2, c)| ArchSpec::new(a, m, r, p2, l2, c).expect("valid"))
        .collect();
    let fused = specs[2];
    specs.extend(
        (1..=ExtSet::ALL.bits())
            .map(|bits| fused.with_extensions(ExtSet::from_bits(bits).expect("a subset"))),
    );
    specs
}

/// One operation of the path, folded into `digest`.
fn fold_one(digest: &mut Fnv1a, bench: Benchmark, spec: &ArchSpec, unroll: u32, seed: u64) {
    let lowered = compile_kernel(bench.source(), bench.consts()).expect("bundled kernels compile");
    write!(digest, "{}", Listing(&lowered)).expect("infallible");
    let mut kernel = lowered;
    custom_fit::opt::optimize_budgeted(&mut kernel, residency_budget(spec.regs));
    write!(digest, "{}", Listing(&kernel)).expect("infallible");
    if kernel.body.len() * unroll as usize > MAX_BODY_OPS {
        eat(digest, u64::MAX);
        return;
    }
    let mut kernel = custom_fit::opt::unroll::unroll(&kernel, unroll);
    if !spec.exts.is_empty() {
        custom_fit::opt::fuse::fuse(&mut kernel, fuse_targets(spec.exts));
    }
    write!(digest, "{}", Listing(&kernel)).expect("infallible");

    let machine = MachineResources::from_spec(spec);
    let result = compile(&kernel, &machine);
    eat(digest, u64::from(result.length));
    eat(digest, u64::from(result.spill_penalty));
    match allocate(&result.assignment, &result.schedule, &machine) {
        Ok(map) => {
            eat(digest, map.len() as u64);
            for v in 0..result.assignment.code.vreg_limit {
                for c in 0..machine.cluster_count() as u32 {
                    eat(digest, map.get(Vreg(v), c).map_or(0, |r| u64::from(r) + 1));
                }
            }
        }
        Err(e) => write!(digest, "{e:?}").expect("infallible"),
    }
    match encode(&result.assignment, &result.schedule, &machine) {
        Ok(program) => {
            eat(digest, program.slots_per_word as u64);
            for word in &program.words {
                eat(digest, word.mask);
                eat(digest, word.ops.len() as u64);
                for &op in &word.ops {
                    eat(digest, op);
                }
                eat(digest, word.imms.len() as u64);
                for &imm in &word.imms {
                    eat(digest, u64::from(imm as u32));
                }
            }
            write!(digest, "{:?}", decode(&program)).expect("infallible");
        }
        Err(e) => write!(digest, "{e:?}").expect("infallible"),
    }

    let problem = bench.workload(ITERS, seed);
    let mut mem = problem.image();
    match simulate(
        &kernel,
        &result,
        &machine,
        &mut mem,
        ITERS / u64::from(unroll),
    ) {
        Ok(stats) => {
            eat(digest, stats.cycles);
            eat(digest, stats.operations);
        }
        Err(e) => write!(digest, "{e:?}").expect("infallible"),
    }
    for i in 0..mem.len() {
        let array = mem.array(i);
        eat(digest, array.len() as u64);
        for &x in array {
            eat(digest, x as u64);
        }
    }
}

/// Every intermediate of the compile-and-verify path, as one literal.
#[test]
fn the_compile_and_verify_path_is_pinned() {
    let mut digest = Fnv1a::new();
    let specs = machines();
    assert_eq!(specs.len(), 4 + 7);
    for (k, bench) in Benchmark::ALL.into_iter().enumerate() {
        for spec in &specs {
            for unroll in [1, 4] {
                fold_one(&mut digest, bench, spec, unroll, 0x5eed ^ k as u64);
            }
        }
    }
    let got = digest.finish();
    assert_eq!(
        got, 0x620a_d92c_49f4_c5f9,
        "compile-and-verify digest: {got:#018x}"
    );
}
