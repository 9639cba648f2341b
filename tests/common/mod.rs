//! Shared generators for the workspace property tests: random (but
//! well-formed) kernels and random valid architectures, driven by the
//! std-only `cfp_testkit::Rng`.
#![allow(dead_code)] // each test binary uses a subset

use cfp_testkit::Rng;
use custom_fit::ir::{CarriedInit, KernelBuilder, MemSpace, Operand, Pred, Ty, Vreg};
use custom_fit::prelude::*;

pub mod serve;

/// A recipe for one random kernel: a list of op codes interpreted
/// against the values produced so far.
#[derive(Debug, Clone)]
pub struct KernelRecipe {
    pub ops: Vec<(u8, u8, u8, i64)>,
    pub carried_seed: bool,
}

/// Draw a random recipe: 1..40 ops, each `(opcode, src1, src2, imm)`.
pub fn recipe(rng: &mut Rng) -> KernelRecipe {
    let len = rng.index(39) + 1;
    let ops = rng.vec_of(len, |r| {
        (
            r.range_u32(0..=7) as u8,
            r.next_u32() as u8,
            r.next_u32() as u8,
            r.range_i64(-64..=63),
        )
    });
    KernelRecipe {
        ops,
        carried_seed: rng.gen_bool(),
    }
}

/// Materialize a recipe into a verified kernel. All values stay small
/// (inputs are bytes, immediates |k| < 64, and every op result feeds
/// shifts/masks often enough to stay bounded) so plain and wrapping
/// arithmetic agree.
pub fn build(recipe: &KernelRecipe) -> Kernel {
    let mut b = KernelBuilder::new("random");
    let src_a = b.array_in("a", Ty::U8, MemSpace::L2);
    let src_b = b.array_in("b", Ty::U8, MemSpace::L1);
    let buf = b.array_inout("buf", Ty::I16, MemSpace::L2);
    let dst = b.array_out("dst", Ty::I32, MemSpace::L2);

    let mut vals: Vec<Vreg> = Vec::new();
    let x0 = b.load(src_a, 1, 0, Ty::U8);
    vals.push(x0);

    let acc_in = b.fresh();
    let mut acc_cur: Vreg = acc_in;

    for &(op, s1, s2, imm) in &recipe.ops {
        let pick = |s: u8, vals: &[Vreg]| vals[s as usize % vals.len()];
        let v = match op {
            0 => {
                let a = pick(s1, &vals);
                b.add(a, Operand::from(imm))
            }
            1 => {
                let a = pick(s1, &vals);
                let c = pick(s2, &vals);
                b.sub(a, c)
            }
            2 => {
                let a = pick(s1, &vals);
                b.mul(a, Operand::from(imm & 15))
            }
            3 => {
                let a = pick(s1, &vals);
                b.bin(custom_fit::ir::BinOp::And, a, Operand::Imm(255))
            }
            4 => {
                let a = pick(s1, &vals);
                b.ashr(a, Operand::from(i64::from(s2 % 5)))
            }
            5 => {
                // A fresh load at a varying offset.
                b.load(src_a, 1, i64::from(s2 % 8), Ty::U8)
            }
            6 => {
                let a = pick(s1, &vals);
                let c = pick(s2, &vals);
                let t = b.cmp(Pred::Lt, a, c);
                b.sel(t, a, c)
            }
            _ => {
                // Accumulate into the carried value.
                let a = pick(s1, &vals);
                let masked = b.bin(custom_fit::ir::BinOp::And, a, Operand::Imm(1023));
                let next = b.add(acc_cur, masked);
                acc_cur = next;
                next
            }
        };
        vals.push(v);
    }
    // Keep the L1 array and the inout array exercised.
    let t = b.load(src_b, 0, 2, Ty::U8);
    let last = *vals.last().expect("at least one value");
    let mixed = b.add(last, t);
    let narrowed = b.bin(custom_fit::ir::BinOp::And, mixed, Operand::Imm(0x7fff));
    let old = b.load(buf, 1, 1, Ty::I16);
    b.store(buf, 1, 0, narrowed, Ty::I16);
    let summed = b.add(narrowed, old);
    b.store(dst, 1, 0, summed, Ty::I32);

    if recipe.carried_seed {
        b.carry_into(acc_in, acc_cur, CarriedInit::Const(5));
    } else {
        // Keep the accumulator chain but seed it from the preamble.
        let mut k = b;
        k.in_preamble(true);
        let seed = k.mov(9_i64);
        k.in_preamble(false);
        k.carry_into(acc_in, acc_cur, CarriedInit::Preamble(seed));
        let kernel = k.finish();
        custom_fit::ir::verify(&kernel).expect("generated kernel verifies");
        return kernel;
    }
    let kernel = b.finish();
    custom_fit::ir::verify(&kernel).expect("generated kernel verifies");
    kernel
}

/// Draw a random valid architecture covering the experiment's axes.
pub fn arch(rng: &mut Rng) -> ArchSpec {
    loop {
        let a = *rng.pick(&[1_u32, 2, 4, 8, 16]);
        let r = *rng.pick(&[64_u32, 128, 256, 512]);
        let p2 = rng.range_u32(1..=4);
        let l2 = rng.range_u32(2..=8);
        let c = *rng.pick(&[1_u32, 2, 4, 8]);
        let m = (a / 2).max(1);
        if let Ok(spec) = ArchSpec::new(a, m, r, p2, l2, c) {
            return spec;
        }
    }
}

/// Iterations the shared workloads run for.
pub const N_ITERS: u64 = 8;

/// Deterministic inputs for a recipe-built kernel.
pub fn bind_inputs(kernel: &Kernel) -> MemImage {
    let mut mem = MemImage::for_kernel(kernel);
    let len = usize::try_from(N_ITERS).expect("small") + 16;
    mem.bind(0, (0..len).map(|i| ((i * 37 + 11) % 256) as i64).collect());
    mem.bind(1, (0..len).map(|i| ((i * 53 + 7) % 256) as i64).collect());
    mem.bind(2, (0..len).map(|i| ((i * 29) % 100) as i64 - 50).collect());
    mem.bind(3, vec![0; len]);
    mem
}

/// Stratified architecture sample: every datapath width class, cluster
/// counts 1/2/4/8, both port widths, both Level-2 latencies, the full
/// register range. Small enough to run in seconds, wide enough that the
/// scheduler's resource logic (bitmask rows, port masks, cluster moves)
/// all get exercised.
pub fn stratified() -> Vec<ArchSpec> {
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
