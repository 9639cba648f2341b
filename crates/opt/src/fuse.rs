//! Fused-operation mining and rewriting (the custom-instruction axis).
//!
//! The paper sizes the datapath to the application; this pass lets the
//! application *extend* it. It mines recurring two-op dependence chains
//! from a kernel body — multiply-add (`mul` feeding `add`), min/max clip
//! (`cmp` feeding `sel` over the same operands), and add-shift (`add`
//! feeding `ashr`, the fixed-point scale-and-round idiom) — and, for a
//! design point whose extension set provides the matching fused unit,
//! rewrites each chain into a single [`Inst::Fused`] instruction.
//!
//! Matching is deliberately conservative: the producer must be a body
//! instruction whose value has exactly one use (so deleting it cannot
//! change any other consumer, a carried output, or a store). Because the
//! fused ops are defined as exact compositions of the base ops, every
//! rewrite is bit-identical under the reference interpreter — property-
//! tested in `tests/fuse_equivalence.rs`.
//!
//! The pass runs *after* the scalar pipeline and unrolling (see
//! `cfp-dse`), so the classic passes never see fused instructions and an
//! unrolled stencil contributes one candidate occurrence per copy.

use cfp_ir::{BinOp, FusedOp, Inst, Kernel, Operand, Pred};
use std::collections::HashMap;

/// Which fused operations the target design point provides.
///
/// This mirrors the machine layer's extension set without depending on
/// it; `cfp-dse` maps one onto the other.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FuseTargets {
    /// Provide `madd` (multiply-add).
    pub mul_add: bool,
    /// Provide `min`/`max` (compare-select clips).
    pub min_max: bool,
    /// Provide `addshr` (add then arithmetic shift right).
    pub add_shr: bool,
}

impl FuseTargets {
    /// Every fused operation enabled (used by the miner).
    pub const ALL: FuseTargets = FuseTargets {
        mul_add: true,
        min_max: true,
        add_shr: true,
    };

    /// Whether any fused operation is enabled.
    #[must_use]
    pub fn any(self) -> bool {
        self.mul_add || self.min_max || self.add_shr
    }

    /// Whether `op` may be emitted under these targets.
    #[must_use]
    pub fn allows(self, op: FusedOp) -> bool {
        match op {
            FusedOp::MulAdd => self.mul_add,
            FusedOp::Min | FusedOp::Max => self.min_max,
            FusedOp::AddShr => self.add_shr,
        }
    }
}

/// One mined fused-op candidate: how often it occurs in the body and how
/// many dependence-chain cycles each occurrence saves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The fused operation.
    pub op: FusedOp,
    /// Static occurrences in the (unrolled) body — one per iteration.
    pub count: u32,
    /// Critical-path cycles saved per occurrence (producer latency +
    /// consumer latency vs. the composed fused latency).
    pub cycles_saved: u32,
}

impl Candidate {
    /// Ranking score: static occurrence × latency saved.
    #[must_use]
    pub fn score(&self) -> u32 {
        self.count * self.cycles_saved
    }
}

/// Dependence-chain cycles saved by one fused occurrence. These mirror
/// the machine layer's base latencies (ALU 1, pipelined IMUL 2): a
/// `mul`+`add` chain takes 3 cycles against the fused op's composed 2;
/// the 1-cycle pairs (`cmp`+`sel`, `add`+`ashr`) halve to 1.
#[must_use]
fn cycles_saved(op: FusedOp) -> u32 {
    match op {
        FusedOp::MulAdd | FusedOp::Min | FusedOp::Max | FusedOp::AddShr => 1,
    }
}

/// Mine all fused-op candidates in `kernel`'s body, ranked by descending
/// [`Candidate::score`] (ties broken by op order). Zero-count ops are
/// omitted. The counts are exactly the rewrites [`fuse`] would apply
/// with every target enabled.
#[must_use]
pub fn mine(kernel: &Kernel) -> Vec<Candidate> {
    let mut counts: HashMap<FusedOp, u32> = HashMap::new();
    for rw in plan(kernel, FuseTargets::ALL) {
        let Inst::Fused { op, .. } = rw.fused else {
            unreachable!("plan only emits fused instructions");
        };
        *counts.entry(op).or_insert(0) += 1;
    }
    let mut out: Vec<Candidate> = counts
        .into_iter()
        .map(|(op, count)| Candidate {
            op,
            count,
            cycles_saved: cycles_saved(op),
        })
        .collect();
    out.sort_by_key(|c| (std::cmp::Reverse(c.score()), c.op));
    out
}

/// Rewrite every chain allowed by `targets` into a fused instruction,
/// deleting the consumed producers. Returns the number of rewrites.
pub fn fuse(kernel: &mut Kernel, targets: FuseTargets) -> u32 {
    if !targets.any() {
        return 0;
    }
    let rewrites = plan(kernel, targets);
    if rewrites.is_empty() {
        return 0;
    }
    let mut remove = vec![false; kernel.body.len()];
    for rw in &rewrites {
        kernel.body[rw.consumer] = rw.fused;
        remove[rw.producer] = true;
    }
    let mut idx = 0;
    kernel.body.retain(|_| {
        let keep = !remove[idx];
        idx += 1;
        keep
    });
    debug_assert_eq!(cfp_ir::verify(kernel), Ok(()), "fuse broke IR");
    u32::try_from(rewrites.len()).unwrap_or(u32::MAX)
}

/// A planned rewrite: body\[`consumer`\] becomes `fused` and
/// body\[`producer`\] is deleted.
struct Rewrite {
    consumer: usize,
    producer: usize,
    fused: Inst,
}

/// Walk consumers in body order and greedily match fusable chains. The
/// scan mirrors exactly what applying the rewrites in order would do: an
/// instruction already claimed (as a rewritten consumer or a consumed
/// producer) cannot serve as a producer for a later match.
fn plan(kernel: &Kernel, targets: FuseTargets) -> Vec<Rewrite> {
    let body = &kernel.body;
    // Indexed by vreg number: the body instruction defining it, and how
    // many times it is read.
    const NO_SITE: usize = usize::MAX;
    let n_vregs = kernel.vreg_count() as usize;
    let mut def_site = vec![NO_SITE; n_vregs];
    let mut use_count = vec![0_u32; n_vregs];
    for (i, inst) in body.iter().enumerate() {
        if let Some(d) = inst.def() {
            def_site[d.index()] = i;
        }
        inst.for_each_use(|u| use_count[u.index()] += 1);
    }
    // A carried output is read by the loop latch; its producer must stay.
    for c in &kernel.carried {
        use_count[c.output.index()] += 1;
    }

    let single_use_producer = |o: Operand, taken: &[bool]| -> Option<usize> {
        let v = o.reg()?;
        let j = def_site[v.index()];
        if j == NO_SITE || taken[j] || use_count[v.index()] != 1 {
            return None;
        }
        Some(j)
    };

    let mut taken = vec![false; body.len()];
    let mut out = Vec::new();
    for (i, inst) in body.iter().enumerate() {
        let rw = match *inst {
            // `t = mul a, b; dst = add t, c` → `dst = madd a, b, c`.
            Inst::Bin {
                dst,
                op: BinOp::Add,
                a,
                b,
            } if targets.mul_add => [(a, b), (b, a)].iter().find_map(|&(cand, other)| {
                let j = single_use_producer(cand, &taken)?;
                let Inst::Bin {
                    op: BinOp::Mul,
                    a: ma,
                    b: mb,
                    ..
                } = body[j]
                else {
                    return None;
                };
                Some(Rewrite {
                    consumer: i,
                    producer: j,
                    fused: Inst::Fused {
                        dst,
                        op: FusedOp::MulAdd,
                        a: ma,
                        b: mb,
                        c: other,
                    },
                })
            }),
            // `t = add a, b; dst = ashr t, sh` → `dst = addshr a, b, sh`.
            Inst::Bin {
                dst,
                op: BinOp::AShr,
                a,
                b: sh,
            } if targets.add_shr => single_use_producer(a, &taken).and_then(|j| {
                let Inst::Bin {
                    op: BinOp::Add,
                    a: pa,
                    b: pb,
                    ..
                } = body[j]
                else {
                    return None;
                };
                Some(Rewrite {
                    consumer: i,
                    producer: j,
                    fused: Inst::Fused {
                        dst,
                        op: FusedOp::AddShr,
                        a: pa,
                        b: pb,
                        c: sh,
                    },
                })
            }),
            // `t = cmp.pred a, b; dst = sel t ? x : y` with `{x, y}` the
            // compared operands → `min`/`max`. Ties agree for every
            // ordering predicate, so `le`/`ge` normalize too.
            Inst::Sel {
                dst,
                cond,
                on_true,
                on_false,
            } if targets.min_max => single_use_producer(cond, &taken).and_then(|j| {
                let Inst::Cmp { pred, a, b, .. } = body[j] else {
                    return None;
                };
                let picks_smaller = match pred {
                    Pred::Lt | Pred::Le => true,
                    Pred::Gt | Pred::Ge => false,
                    Pred::Eq | Pred::Ne => return None,
                };
                let op = if on_true == a && on_false == b {
                    if picks_smaller {
                        FusedOp::Min
                    } else {
                        FusedOp::Max
                    }
                } else if on_true == b && on_false == a {
                    if picks_smaller {
                        FusedOp::Max
                    } else {
                        FusedOp::Min
                    }
                } else {
                    return None;
                };
                Some(Rewrite {
                    consumer: i,
                    producer: j,
                    fused: Inst::Fused {
                        dst,
                        op,
                        a,
                        b,
                        c: Operand::Imm(0),
                    },
                })
            }),
            _ => None,
        };
        if let Some(rw) = rw {
            taken[rw.producer] = true;
            taken[rw.consumer] = true;
            out.push(rw);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_ir::{Interpreter, KernelBuilder, MemImage, MemSpace, Ty};

    fn run_both(base: &Kernel, fused: &Kernel, iters: u64) {
        let mut mem_a = MemImage::for_kernel(base);
        let mut mem_b = MemImage::for_kernel(fused);
        for (i, a) in base.arrays.iter().enumerate() {
            if !matches!(a.kind, cfp_ir::ArrayKind::Local(_)) {
                let data: Vec<i64> = (0..64).map(|k| (k * 53 + 7) % 251 - 120).collect();
                mem_a.bind(i, data.clone());
                mem_b.bind(i, data);
            }
        }
        Interpreter::new().run(base, &mut mem_a, iters).unwrap();
        Interpreter::new().run(fused, &mut mem_b, iters).unwrap();
        for i in 0..base.arrays.len() {
            assert_eq!(mem_a.array(i), mem_b.array(i), "array {i} diverged");
        }
    }

    #[test]
    fn fuses_mul_add_chain() {
        let mut b = KernelBuilder::new("t");
        let s = b.array_in("s", Ty::I32, MemSpace::L2);
        let d = b.array_out("d", Ty::I32, MemSpace::L2);
        let x = b.load(s, 1, 0, Ty::I32);
        let m = b.mul(x, Operand::Imm(3));
        let r = b.add(m, Operand::Imm(11));
        b.store(d, 1, 0, r, Ty::I32);
        let base = b.finish();
        let mut k = base.clone();
        assert_eq!(fuse(&mut k, FuseTargets::ALL), 1);
        assert!(k.body.iter().any(|i| i.fused_op() == Some(FusedOp::MulAdd)));
        assert_eq!(k.body.len(), base.body.len() - 1);
        run_both(&base, &k, 8);
    }

    #[test]
    fn fuses_clip_to_min_and_max() {
        let mut b = KernelBuilder::new("t");
        let s = b.array_in("s", Ty::I32, MemSpace::L2);
        let d = b.array_out("d", Ty::I32, MemSpace::L2);
        let x = b.load(s, 1, 0, Ty::I32);
        // clamp(x, 0, 100) spelled as the frontend's if-converted selects.
        let c1 = b.cmp(Pred::Lt, x, Operand::Imm(100));
        let lo = b.sel(c1, x, Operand::Imm(100)); // min(x, 100)
        let c2 = b.cmp(Pred::Gt, lo, Operand::Imm(0));
        let hi = b.sel(c2, lo, Operand::Imm(0)); // max(lo, 0)
        b.store(d, 1, 0, hi, Ty::I32);
        let base = b.finish();
        let mut k = base.clone();
        assert_eq!(fuse(&mut k, FuseTargets::ALL), 2);
        assert!(k.body.iter().any(|i| i.fused_op() == Some(FusedOp::Min)));
        assert!(k.body.iter().any(|i| i.fused_op() == Some(FusedOp::Max)));
        run_both(&base, &k, 8);
    }

    #[test]
    fn swapped_select_arms_flip_min_max() {
        let mut b = KernelBuilder::new("t");
        let s = b.array_in("s", Ty::I32, MemSpace::L2);
        let d = b.array_out("d", Ty::I32, MemSpace::L2);
        let x = b.load(s, 1, 0, Ty::I32);
        let y = b.load(s, 1, 1, Ty::I32);
        let c = b.cmp(Pred::Lt, x, y);
        let r = b.sel(c, y, x); // picks the larger → max
        b.store(d, 1, 0, r, Ty::I32);
        let base = b.finish();
        let mut k = base.clone();
        assert_eq!(fuse(&mut k, FuseTargets::ALL), 1);
        assert!(k.body.iter().any(|i| i.fused_op() == Some(FusedOp::Max)));
        run_both(&base, &k, 8);
    }

    #[test]
    fn fuses_add_shr_scaling() {
        let mut b = KernelBuilder::new("t");
        let s = b.array_in("s", Ty::I32, MemSpace::L2);
        let d = b.array_out("d", Ty::I32, MemSpace::L2);
        let x = b.load(s, 1, 0, Ty::I32);
        let y = b.load(s, 1, 1, Ty::I32);
        let a = b.add(x, y);
        let r = b.bin(BinOp::AShr, a, Operand::Imm(1));
        b.store(d, 1, 0, r, Ty::I32);
        let base = b.finish();
        let mut k = base.clone();
        assert_eq!(fuse(&mut k, FuseTargets::ALL), 1);
        assert!(k.body.iter().any(|i| i.fused_op() == Some(FusedOp::AddShr)));
        run_both(&base, &k, 8);
    }

    #[test]
    fn multi_use_producer_is_left_alone() {
        let mut b = KernelBuilder::new("t");
        let s = b.array_in("s", Ty::I32, MemSpace::L2);
        let d = b.array_out("d", Ty::I32, MemSpace::L2);
        let x = b.load(s, 1, 0, Ty::I32);
        let m = b.mul(x, Operand::Imm(3));
        let r = b.add(m, Operand::Imm(11));
        b.store(d, 2, 0, r, Ty::I32);
        b.store(d, 2, 1, m, Ty::I32); // second use of the mul
        let base = b.finish();
        let mut k = base.clone();
        assert_eq!(fuse(&mut k, FuseTargets::ALL), 0);
        assert_eq!(k, base);
    }

    #[test]
    fn carried_output_is_not_consumed() {
        let mut b = KernelBuilder::new("t");
        let s = b.array_in("s", Ty::I32, MemSpace::L2);
        let d = b.array_out("d", Ty::I32, MemSpace::L2);
        let x = b.load(s, 1, 0, Ty::I32);
        let acc_in = b.fresh();
        let m = b.mul(x, Operand::Imm(3));
        let acc_out = b.add(acc_in, m);
        b.carry_into(acc_in, acc_out, cfp_ir::CarriedInit::Const(0));
        b.store(d, 1, 0, acc_out, Ty::I32);
        let base = b.finish();
        let mut k = base.clone();
        // The mul is single-use, so madd still fires; but the *add* must
        // survive as the carried output's def.
        assert_eq!(fuse(&mut k, FuseTargets::ALL), 1);
        cfp_ir::verify(&k).unwrap();
        run_both(&base, &k, 8);
    }

    #[test]
    fn targets_gate_each_pattern() {
        let mut b = KernelBuilder::new("t");
        let s = b.array_in("s", Ty::I32, MemSpace::L2);
        let d = b.array_out("d", Ty::I32, MemSpace::L2);
        let x = b.load(s, 1, 0, Ty::I32);
        let m = b.mul(x, Operand::Imm(3));
        let r = b.add(m, Operand::Imm(11));
        b.store(d, 1, 0, r, Ty::I32);
        let base = b.finish();
        let mut k = base.clone();
        let only_minmax = FuseTargets {
            min_max: true,
            ..FuseTargets::default()
        };
        assert_eq!(fuse(&mut k, only_minmax), 0);
        assert_eq!(k, base);
        assert_eq!(fuse(&mut k, FuseTargets::default()), 0);
    }

    #[test]
    fn mine_counts_match_fuse_rewrites() {
        let mut b = KernelBuilder::new("t");
        let s = b.array_in("s", Ty::I32, MemSpace::L2);
        let d = b.array_out("d", Ty::I32, MemSpace::L2);
        let x = b.load(s, 1, 0, Ty::I32);
        let y = b.load(s, 1, 1, Ty::I32);
        let m1 = b.mul(x, Operand::Imm(3));
        let a1 = b.add(m1, y);
        let m2 = b.mul(y, Operand::Imm(5));
        let a2 = b.add(m2, x);
        let su = b.add(a1, a2);
        let r = b.bin(BinOp::AShr, su, Operand::Imm(2));
        b.store(d, 1, 0, r, Ty::I32);
        let base = b.finish();
        let cands = mine(&base);
        let total: u32 = cands.iter().map(|c| c.count).sum();
        let mut k = base.clone();
        assert_eq!(fuse(&mut k, FuseTargets::ALL), total);
        let madd = cands.iter().find(|c| c.op == FusedOp::MulAdd).unwrap();
        assert_eq!(madd.count, 2);
        assert!(cands.iter().any(|c| c.op == FusedOp::AddShr));
        assert!(cands[0].score() >= cands.last().unwrap().score());
        run_both(&base, &k, 8);
    }

    #[test]
    fn chained_fusion_does_not_double_consume() {
        // t = a*b; u = t + c; v = u >> 1 — madd wins the add; the ashr
        // then has no Bin add producer left and stays unfused.
        let mut b = KernelBuilder::new("t");
        let s = b.array_in("s", Ty::I32, MemSpace::L2);
        let d = b.array_out("d", Ty::I32, MemSpace::L2);
        let x = b.load(s, 1, 0, Ty::I32);
        let y = b.load(s, 1, 1, Ty::I32);
        let t = b.mul(x, y);
        let u = b.add(t, Operand::Imm(4));
        let v = b.bin(BinOp::AShr, u, Operand::Imm(3));
        b.store(d, 1, 0, v, Ty::I32);
        let base = b.finish();
        let mut k = base.clone();
        assert_eq!(fuse(&mut k, FuseTargets::ALL), 1);
        assert!(k.body.iter().any(|i| i.fused_op() == Some(FusedOp::MulAdd)));
        assert!(!k.body.iter().any(|i| i.fused_op() == Some(FusedOp::AddShr)));
        run_both(&base, &k, 8);
    }
}
