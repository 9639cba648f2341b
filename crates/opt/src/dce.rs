//! Dead-code and dead-carry elimination.
//!
//! An instruction is live when its value reaches a store or a *useful*
//! loop-carried value; a carry is useful when its carried-in value feeds
//! a store or another useful carry. The two fixed points are computed
//! together.
//!
//! The inner one — every register that feeds a target set — is one
//! reverse sweep. `cfp_ir::verify` guarantees SSA and def-before-use,
//! and the preamble runs before the body, so walking the body backwards
//! and then the preamble backwards visits each definition after every
//! instruction that can read it: by the time a def is reached its
//! liveness is final, and its operands are marked before their own defs
//! come up. That is the least fixed point in a single pass, where a
//! forward scan gains one dependence level per pass.

use cfp_ir::{CarriedInit, Inst, Kernel};

/// Remove dead instructions (preamble + body) and useless carries.
/// Returns whether anything was removed.
// Justified expect: `useful` is built with exactly one entry per carried
// value, so the iterator in the final `retain` cannot run dry.
#[allow(clippy::expect_used)]
pub fn eliminate(kernel: &mut Kernel) -> bool {
    let size = |k: &Kernel| k.body.len() + k.preamble.len() + k.carried.len();
    let before = size(kernel);
    // Fixed point over the set of useful carries. `live` is indexed by
    // vreg number and refilled each round.
    let mut useful: Vec<bool> = vec![false; kernel.carried.len()];
    let mut live = vec![false; kernel.vreg_count() as usize];
    loop {
        live.fill(false);
        mark_targets(kernel, &useful, &mut live);
        backward_closure(kernel, &mut live);
        let mut changed = false;
        for (i, c) in kernel.carried.iter().enumerate() {
            if !useful[i] && live[c.input.index()] {
                useful[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    kernel
        .body
        .retain(|inst| inst.is_store() || inst.def().is_some_and(|d| live[d.index()]));
    kernel
        .preamble
        .retain(|inst| inst.def().is_some_and(|d| live[d.index()]));
    let mut keep = useful.iter();
    kernel.carried.retain(|_| *keep.next().expect("aligned"));
    size(kernel) != before
}

/// Mark what is live by decree: everything a store reads, and the output
/// and preamble-computed initial value of every carry marked `useful`.
fn mark_targets(kernel: &Kernel, useful: &[bool], live: &mut [bool]) {
    for inst in kernel.body.iter().filter(|i| i.is_store()) {
        mark_operands(inst, live);
    }
    for (c, _) in kernel.carried.iter().zip(useful).filter(|(_, u)| **u) {
        live[c.output.index()] = true;
        if let CarriedInit::Preamble(v) = c.init {
            live[v.index()] = true;
        }
    }
}

fn mark_operands(inst: &Inst, live: &mut [bool]) {
    inst.for_each_use(|v| live[v.index()] = true);
}

/// Grow `live` (the target set on entry) to every vreg that transitively
/// feeds it: one reverse sweep over the body, then the preamble (see the
/// module docs for why one is enough).
fn backward_closure(kernel: &Kernel, live: &mut [bool]) {
    for inst in kernel.body.iter().rev().chain(kernel.preamble.iter().rev()) {
        if inst.def().is_some_and(|d| live[d.index()]) {
            mark_operands(inst, live);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_frontend::compile_kernel;
    use cfp_ir::{KernelBuilder, MemSpace, Ty, Vreg};
    use cfp_kernels::Benchmark;

    /// The closure as it was computed before the reverse sweep: forward
    /// scans, body then preamble, repeated until nothing changes. Kept
    /// as the reference the sweep must equal.
    fn forward_closure(kernel: &Kernel, live: &mut [bool]) {
        loop {
            let before = live.to_vec();
            for inst in kernel.body.iter().chain(&kernel.preamble) {
                if inst.def().is_some_and(|d| live[d.index()]) {
                    mark_operands(inst, live);
                }
            }
            if live == before {
                return;
            }
        }
    }

    /// The target set as a fresh table.
    fn targets(kernel: &Kernel, useful: &[bool]) -> Vec<bool> {
        let mut live = vec![false; kernel.vreg_count() as usize];
        mark_targets(kernel, useful, &mut live);
        live
    }

    /// [`eliminate`] over [`forward_closure`].
    fn eliminate_forward(kernel: &mut Kernel) {
        let mut useful = vec![false; kernel.carried.len()];
        let closure = loop {
            let mut live = targets(kernel, &useful);
            forward_closure(kernel, &mut live);
            let grown: Vec<bool> = kernel
                .carried
                .iter()
                .map(|c| live[c.input.index()])
                .collect();
            if grown == useful {
                break live;
            }
            useful = grown;
        };
        kernel
            .body
            .retain(|i| i.is_store() || i.def().is_some_and(|d| closure[d.index()]));
        kernel
            .preamble
            .retain(|i| i.def().is_some_and(|d| closure[d.index()]));
        let mut keep = useful.iter();
        kernel.carried.retain(|_| *keep.next().unwrap());
    }

    /// Both closures from two target sets — the stores alone, and the
    /// stores plus every carry — and both eliminations.
    fn assert_sweep_equals_fixed_point(kernel: &Kernel, what: &str) {
        cfp_ir::verify(kernel).unwrap();
        for every_carry in [false, true] {
            let targets = targets(kernel, &vec![every_carry; kernel.carried.len()]);
            let (mut swept, mut fixed) = (targets.clone(), targets);
            backward_closure(kernel, &mut swept);
            forward_closure(kernel, &mut fixed);
            assert_eq!(swept, fixed, "{what}: closure");
        }
        let (mut swept, mut fixed) = (kernel.clone(), kernel.clone());
        eliminate(&mut swept);
        eliminate_forward(&mut fixed);
        assert_eq!(swept, fixed, "{what}: kernel");
        cfp_ir::verify(&swept).unwrap();
    }

    #[test]
    fn one_sweep_equals_the_forward_fixed_point_on_the_shipped_kernels() {
        for b in Benchmark::ALL {
            let raw = b.kernel();
            let mut optimized = raw.clone();
            crate::optimize(&mut optimized);
            for u in [1, 2, 4, 8, 16] {
                // The lowered code as the pipeline's first DCE sees it,
                // and unrolled optimized code as its re-run does.
                for (k, state) in [(&raw, "raw"), (&optimized, "optimized")] {
                    let k = crate::unroll::unroll(k, u);
                    assert_sweep_equals_fixed_point(&k, &format!("{b} x{u} {state}"));
                }
            }
        }
    }

    #[test]
    fn one_sweep_equals_the_forward_fixed_point_on_random_kernels() {
        // Straight-line code over random earlier values: most of it
        // dead, several carries of which some feed only each other, a
        // preamble whose values may or may not be read.
        cfp_testkit::cases(0xdce0_0001, 200, |rng| {
            let mut b = KernelBuilder::new("random");
            let s = b.array_in("s", Ty::I32, MemSpace::L2);
            let d = b.array_out("d", Ty::I32, MemSpace::L2);
            b.in_preamble(true);
            let mut vals: Vec<Vreg> = (0..rng.index(4) + 1).map(|i| b.mov(i as i64)).collect();
            for _ in 0..rng.index(4) {
                let x = *rng.pick(&vals);
                vals.push(b.add(x, 1_i64));
            }
            let seeds = vals.clone();
            b.in_preamble(false);
            let carried_in: Vec<Vreg> = (0..rng.index(5)).map(|_| b.fresh()).collect();
            vals.extend(&carried_in);
            vals.push(b.load(s, 1, 0, Ty::I32));
            for _ in 0..rng.index(60) + 1 {
                let (x, y) = (*rng.pick(&vals), *rng.pick(&vals));
                let v = match rng.index(4) {
                    0 => b.add(x, y),
                    1 => b.mul(x, 3_i64),
                    2 => b.load(s, 1, rng.range_i64(0..=7), Ty::I32),
                    _ => {
                        let t = b.cmp(cfp_ir::Pred::Lt, x, y);
                        b.sel(t, x, y)
                    }
                };
                vals.push(v);
            }
            for _ in 0..rng.index(3) + 1 {
                b.store(d, 1, rng.range_i64(0..=3), *rng.pick(&vals), Ty::I32);
            }
            // Carried outputs must be body-defined (or the input itself).
            let body_vals = &vals[seeds.len() + carried_in.len()..];
            for &input in &carried_in {
                let output = if rng.gen_bool() {
                    *rng.pick(body_vals)
                } else {
                    input
                };
                let init = if rng.gen_bool() {
                    CarriedInit::Preamble(*rng.pick(&seeds))
                } else {
                    CarriedInit::Const(1)
                };
                b.carry_into(input, output, init);
            }
            assert_sweep_equals_fixed_point(&b.finish(), "random");
        });
    }

    #[test]
    fn a_long_dependence_chain_closes_in_one_sweep() {
        // 20 000 links: the forward scan would need as many passes.
        let mut b = KernelBuilder::new("chain");
        let s = b.array_in("s", Ty::I32, MemSpace::L2);
        let d = b.array_out("d", Ty::I32, MemSpace::L2);
        let mut x = b.load(s, 1, 0, Ty::I32);
        let _dead = b.mul(x, 7_i64);
        for _ in 0..20_000 {
            x = b.add(x, 1_i64);
        }
        b.store(d, 1, 0, x, Ty::I32);
        let mut k = b.finish();
        let mut live = targets(&k, &[]);
        backward_closure(&k, &mut live);
        let marked = live.iter().filter(|&&l| l).count();
        assert_eq!(marked, 20_001, "the load and every link");
        eliminate(&mut k);
        assert_eq!(k.body.len(), 20_002);
    }

    #[test]
    fn removes_unused_computation() {
        let mut b = KernelBuilder::new("t");
        let s = b.array_in("s", Ty::I32, MemSpace::L2);
        let d = b.array_out("d", Ty::I32, MemSpace::L2);
        let x = b.load(s, 1, 0, Ty::I32);
        let _dead = b.mul(x, 7_i64);
        let y = b.add(x, 1_i64);
        b.store(d, 1, 0, y, Ty::I32);
        let mut k = b.finish();
        eliminate(&mut k);
        assert_eq!(k.body.len(), 3);
        assert!(k.body.iter().all(|i| !i.needs_mul_unit()));
    }

    #[test]
    fn removes_dead_preamble_values() {
        let mut b = KernelBuilder::new("t");
        let d = b.array_out("d", Ty::I32, MemSpace::L2);
        b.in_preamble(true);
        let used = b.mov(3_i64);
        let _dead = b.mov(4_i64);
        b.in_preamble(false);
        let y = b.add(used, 1_i64);
        b.store(d, 1, 0, y, Ty::I32);
        let mut k = b.finish();
        eliminate(&mut k);
        assert_eq!(k.preamble.len(), 1);
    }

    #[test]
    fn keeps_store_feeding_chains_only() {
        let mut k = compile_kernel(
            "kernel t(in i32 s[], out i32 d[]) {
                loop i {
                    var a = s[i] * 3;
                    var unused = a * a + 17;
                    d[i] = a;
                }
            }",
            &[],
        )
        .unwrap();
        eliminate(&mut k);
        cfp_ir::verify(&k).unwrap();
        assert_eq!(k.mul_count(), 1, "only the store-feeding multiply stays");
    }

    #[test]
    fn drops_useless_carries_keeps_useful_ones() {
        let mut k = compile_kernel(
            "kernel t(in i32 s[], out i32 d[]) {
                var keep = 0;
                var drop_me = 0;
                loop i {
                    keep = keep + s[i];
                    drop_me = drop_me + 1;
                    d[i] = keep;
                }
            }",
            &[],
        )
        .unwrap();
        assert_eq!(k.carried.len(), 2);
        eliminate(&mut k);
        cfp_ir::verify(&k).unwrap();
        assert_eq!(k.carried.len(), 1, "the unread accumulator dies");
    }

    #[test]
    fn carry_chains_resolve_to_the_minimal_useful_set() {
        // `a` is recomputed from `b` every iteration, so only `b`'s carry
        // is genuinely loop-carried; `a`'s carry is useless and dies.
        let mut k = compile_kernel(
            "kernel t(in i32 s[], out i32 d[]) {
                var a = 0;
                var b = 0;
                loop i {
                    a = b + s[i];
                    b = a;
                    d[i] = a;
                }
            }",
            &[],
        )
        .unwrap();
        eliminate(&mut k);
        cfp_ir::verify(&k).unwrap();
        assert_eq!(k.carried.len(), 1);
    }

    #[test]
    fn dce_preserves_semantics() {
        crate::testutil::check_same_results(
            "kernel t(in i32 s[], out i32 d[]) {
                var junk = 5;
                loop i {
                    var dead = s[i] * 99;
                    junk = junk + dead;
                    d[i] = s[i] + 1;
                }
            }",
            &[],
            |k| {
                let mut o = k.clone();
                eliminate(&mut o);
                o
            },
            1,
        );
    }
}
