//! Fused-operation mining and rewriting (the custom-instruction axis).
//!
//! The paper sizes the datapath to the application; this pass lets the
//! application *extend* it. For a design point whose extension set
//! provides a fused unit, it rewrites each two-op dependence chain that
//! spells one of `cfp-ir`'s fused operations ([`cfp_ir::FUSED_OPS`]) into
//! a single [`Inst::Fused`] instruction. There is one matcher, and it
//! reads each allowed row's expression tree: the tree's root is the
//! consumer, its one inner operation the producer, and its slots the
//! fused instruction's operands — multiply-add (`mul` feeding `add`),
//! min/max (`cmp` feeding `sel` over the compared operands), add-shift
//! (`add` feeding `ashr`, the fixed-point scale-and-round idiom).
//!
//! Matching is deliberately conservative: the producer must be a body
//! instruction whose value has exactly one use (so deleting it cannot
//! change any other consumer, a carried output, or a store), and no
//! instruction is claimed twice. Because the fused ops are defined as
//! exact compositions of the base ops, every rewrite is bit-identical
//! under the reference interpreter — property-tested in
//! `tests/fuse_equivalence.rs`.
//!
//! The pass runs *after* the scalar pipeline and unrolling (see
//! `cfp-dse`), so the classic passes never see fused instructions and an
//! unrolled stencil contributes one candidate occurrence per copy.

use cfp_ir::{Expr, FusedOp, Inst, Kernel, Operand, Pred};
use std::collections::HashMap;

/// Which fused operations the target design point provides: bit `i`
/// enables every operation whose extension-table row is `i`.
///
/// This mirrors the machine layer's extension set bit for bit without
/// depending on it; `cfp-dse` copies one into the other.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FuseTargets(pub u8);

impl FuseTargets {
    /// Every fused operation enabled (used by the miner).
    pub const ALL: FuseTargets = FuseTargets(u8::MAX);

    /// Whether any extension is enabled.
    #[must_use]
    pub fn any(self) -> bool {
        self.0 != 0
    }

    /// Whether `op` may be emitted under these targets.
    #[must_use]
    pub fn allows(self, op: FusedOp) -> bool {
        self.0 >> op.row().ext & 1 != 0
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

/// Dependence-chain cycles one fused occurrence saves: a fused op keeps
/// its unit's latency, so the chain loses the 1-cycle ALU half of it.
const CYCLES_SAVED: u32 = 1;

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
            cycles_saved: CYCLES_SAVED,
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
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rewrite {
    consumer: usize,
    producer: usize,
    fused: Inst,
}

/// Walk consumers in body order and greedily match fusable chains. The
/// scan mirrors exactly what applying the rewrites in order would do: an
/// instruction already claimed (as a rewritten consumer or a consumed
/// producer) cannot serve as a producer for a later match. A consumer is
/// tried as written, then flipped (see [`Matcher::bind_inst`]), each way
/// against the allowed rows in table order.
fn plan(kernel: &Kernel, targets: FuseTargets) -> Vec<Rewrite> {
    let mut m = Matcher::new(kernel);
    let mut out = Vec::new();
    for i in 0..kernel.body.len() {
        let found = [false, true].into_iter().find_map(|flip| {
            FusedOp::all()
                .filter(|&op| targets.allows(op))
                .find_map(|op| m.rewrite(i, flip, op))
        });
        if let Some(rw) = found {
            m.taken[rw.producer] = true;
            m.taken[rw.consumer] = true;
            out.push(rw);
        }
    }
    out
}

/// The body's def sites and use counts, and what earlier rewrites
/// claimed.
struct Matcher<'k> {
    body: &'k [Inst],
    /// Indexed by vreg number: the body instruction defining it.
    def_site: Vec<usize>,
    /// Indexed by vreg number: its reads, the loop latch's of a carried
    /// output included (that producer must stay).
    use_count: Vec<u32>,
    taken: Vec<bool>,
}

/// One match attempt's operand slots and producer.
#[derive(Default)]
struct Binding {
    slots: [Option<Operand>; 3],
    producer: Option<usize>,
}

const NO_SITE: usize = usize::MAX;

impl<'k> Matcher<'k> {
    fn new(kernel: &'k Kernel) -> Self {
        let n_vregs = kernel.vreg_count() as usize;
        let mut def_site = vec![NO_SITE; n_vregs];
        let mut use_count = vec![0_u32; n_vregs];
        for (i, inst) in kernel.body.iter().enumerate() {
            if let Some(d) = inst.def() {
                def_site[d.index()] = i;
            }
            inst.for_each_use(|u| use_count[u.index()] += 1);
        }
        for c in &kernel.carried {
            use_count[c.output.index()] += 1;
        }
        Matcher {
            body: &kernel.body,
            def_site,
            use_count,
            taken: vec![false; kernel.body.len()],
        }
    }

    /// body\[`i`\] rewritten as `op`, if the row's tree matches it.
    fn rewrite(&self, i: usize, flip: bool, op: FusedOp) -> Option<Rewrite> {
        // Most instructions are not the row's root operation: say so
        // before setting up a match attempt.
        let root = match (op.row().tree, &self.body[i]) {
            (Expr::Bin(want, ..), Inst::Bin { op, .. }) => want == *op,
            (Expr::Sel(..), Inst::Sel { .. }) => true,
            _ => false,
        };
        if !root {
            return None;
        }
        let mut bind = Binding::default();
        if !self.bind_inst(&op.row().tree, self.body[i], flip, &mut bind) {
            return None;
        }
        let [a, b, c] = bind.slots.map(|s| s.unwrap_or(Operand::Imm(0)));
        let dst = self.body[i].def()?;
        let fused = Inst::Fused { dst, op, a, b, c };
        Some(Rewrite {
            consumer: i,
            producer: bind.producer?,
            fused,
        })
    }

    /// Match `pat` against `inst`. `flip` reads `inst` its other way: a
    /// commutative operation with its operands swapped, a select with its
    /// arms swapped under the negated compare.
    fn bind_inst(&self, pat: &Expr, inst: Inst, flip: bool, bind: &mut Binding) -> bool {
        let operands = |l, r, a, b, bind: &mut Binding| {
            let (a, b) = if flip { (b, a) } else { (a, b) };
            self.bind_operand(l, a, bind) && self.bind_operand(r, b, bind)
        };
        match (*pat, inst) {
            (Expr::Bin(op, l, r), Inst::Bin { op: got, a, b, .. }) => {
                op == got && (!flip || op.is_commutative()) && operands(l, r, a, b, bind)
            }
            (Expr::Cmp(want, l, r), Inst::Cmp { pred, a, b, .. }) => {
                !flip && pred == want && operands(l, r, a, b, bind)
            }
            (
                Expr::Sel(cond, t, f),
                Inst::Sel {
                    cond: c,
                    on_true,
                    on_false,
                    ..
                },
            ) => {
                // Picking between its compare's own operands, a select
                // reads `le`/`ge` as `lt`/`gt`: on a tie they are equal.
                let ties =
                    matches!(*cond, Expr::Cmp(_, x, y) if (t, f) == (x, y) || (t, f) == (y, x));
                let cond_matches = self.producer(c, bind).is_some_and(|j| {
                    let Inst::Cmp { dst, pred, a, b } = self.body[j] else {
                        return false;
                    };
                    let pred = match (if flip { pred.negated() } else { pred }, ties) {
                        (Pred::Le, true) => Pred::Lt,
                        (Pred::Ge, true) => Pred::Gt,
                        (p, _) => p,
                    };
                    self.bind_inst(cond, Inst::Cmp { dst, pred, a, b }, false, bind)
                });
                cond_matches && operands(t, f, on_true, on_false, bind)
            }
            _ => false,
        }
    }

    /// Match `pat` against operand `o`: a slot takes it (or must already
    /// hold it); an operation must be its producer.
    fn bind_operand(&self, pat: &Expr, o: Operand, bind: &mut Binding) -> bool {
        match *pat {
            Expr::Slot(k) => *bind.slots[usize::from(k)].get_or_insert(o) == o,
            _ => self
                .producer(o, bind)
                .is_some_and(|j| self.bind_inst(pat, self.body[j], false, bind)),
        }
    }

    /// The body instruction defining `o`, taken as the attempt's one
    /// producer: its value has a single use and it is not claimed.
    fn producer(&self, o: Operand, bind: &mut Binding) -> Option<usize> {
        let v = o.reg()?;
        let j = self.def_site[v.index()];
        let free = j != NO_SITE && !self.taken[j] && self.use_count[v.index()] == 1;
        (free && bind.producer.is_none()).then(|| *bind.producer.insert(j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_ir::{BinOp, Interpreter, KernelBuilder, MemImage, MemSpace, Ty, FUSED_OPS};

    /// The table row with mnemonic `name`.
    fn op(name: &str) -> FusedOp {
        FusedOp::all().find(|op| op.row().mnemonic == name).unwrap()
    }

    /// Whether `k` holds a fused instruction spelled `name`.
    fn has(k: &Kernel, name: &str) -> bool {
        k.body.iter().any(|i| i.fused_op() == Some(op(name)))
    }

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
        assert!(has(&k, "madd"));
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
        assert!(has(&k, "min"));
        assert!(has(&k, "max"));
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
        assert!(has(&k, "max"));
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
        assert!(has(&k, "addshr"));
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
        let only_minmax = FuseTargets(1 << op("min").row().ext);
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
        let madd = cands.iter().find(|c| c.op == op("madd")).unwrap();
        assert_eq!(madd.count, 2);
        assert!(cands.iter().any(|c| c.op == op("addshr")));
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
        assert!(has(&k, "madd"));
        assert!(!has(&k, "addshr"));
        run_both(&base, &k, 8);
    }

    /// The matcher as three hand-written arms, one per extension, as it
    /// was before the operation table: the reference [`plan`] is held to.
    fn reference_plan(kernel: &Kernel, targets: FuseTargets) -> Vec<Rewrite> {
        let (mul_add, min_max, add_shr) = (
            targets.allows(op("madd")),
            targets.allows(op("min")),
            targets.allows(op("addshr")),
        );
        let body = &kernel.body;
        let n_vregs = kernel.vreg_count() as usize;
        let mut def_site = vec![NO_SITE; n_vregs];
        let mut use_count = vec![0_u32; n_vregs];
        for (i, inst) in body.iter().enumerate() {
            if let Some(d) = inst.def() {
                def_site[d.index()] = i;
            }
            inst.for_each_use(|u| use_count[u.index()] += 1);
        }
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
                Inst::Bin {
                    dst,
                    op: BinOp::Add,
                    a,
                    b,
                } if mul_add => [(a, b), (b, a)].iter().find_map(|&(cand, other)| {
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
                            op: op("madd"),
                            a: ma,
                            b: mb,
                            c: other,
                        },
                    })
                }),
                Inst::Bin {
                    dst,
                    op: BinOp::AShr,
                    a,
                    b: sh,
                } if add_shr => single_use_producer(a, &taken).and_then(|j| {
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
                            op: op("addshr"),
                            a: pa,
                            b: pb,
                            c: sh,
                        },
                    })
                }),
                Inst::Sel {
                    dst,
                    cond,
                    on_true,
                    on_false,
                } if min_max => single_use_producer(cond, &taken).and_then(|j| {
                    let Inst::Cmp { pred, a, b, .. } = body[j] else {
                        return None;
                    };
                    let picks_smaller = match pred {
                        Pred::Lt | Pred::Le => true,
                        Pred::Gt | Pred::Ge => false,
                        Pred::Eq | Pred::Ne => return None,
                    };
                    let name = if on_true == a && on_false == b {
                        if picks_smaller {
                            "min"
                        } else {
                            "max"
                        }
                    } else if on_true == b && on_false == a {
                        if picks_smaller {
                            "max"
                        } else {
                            "min"
                        }
                    } else {
                        return None;
                    };
                    Some(Rewrite {
                        consumer: i,
                        producer: j,
                        fused: Inst::Fused {
                            dst,
                            op: op(name),
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

    /// Every extension mask the table can name, none through all.
    fn all_masks() -> impl Iterator<Item = FuseTargets> {
        let exts = FUSED_OPS.iter().map(|row| row.ext).max().unwrap() + 1;
        (0..1 << exts).map(FuseTargets)
    }

    /// Hold [`plan`] to [`reference_plan`] on `k` under every mask;
    /// returns the rewrites made with every target enabled.
    fn assert_plans_agree(k: &Kernel, what: &str) -> Vec<Rewrite> {
        for targets in all_masks() {
            assert_eq!(
                plan(k, targets),
                reference_plan(k, targets),
                "{what} under {targets:?}"
            );
        }
        plan(k, FuseTargets::ALL)
    }

    #[test]
    fn the_table_matcher_rewrites_every_benchmark_as_the_hand_written_arms_did() {
        let mut fused = 0;
        for bench in cfp_kernels::Benchmark::ALL {
            let mut base = bench.kernel();
            crate::optimize(&mut base);
            for u in [1, 2, 4] {
                let mut k = crate::unroll::unroll(&base, u);
                crate::optimize(&mut k);
                fused += assert_plans_agree(&k, &format!("{bench} x{u}")).len();
            }
        }
        assert!(fused > 0);
    }

    /// A seeded body built around the matcher's near misses: compares
    /// under every predicate feeding selects whose arms are the compared
    /// operands in either order, or something else; immediates in either
    /// slot; `mul`→`add`→`ashr` chains; producers read twice or carried
    /// around the loop.
    fn near_misses(rng: &mut cfp_testkit::Rng) -> Kernel {
        let mut b = KernelBuilder::new("near_misses");
        let s = b.array_in("s", Ty::I32, MemSpace::L2);
        let d = b.array_out("d", Ty::I32, MemSpace::L2);
        let mut vals: Vec<Operand> = (0..3).map(|k| b.load(s, 1, k, Ty::I32).into()).collect();
        let mut stored = 0;
        for _ in 0..12 {
            let pick = |rng: &mut cfp_testkit::Rng| {
                if rng.index(4) == 0 {
                    Operand::from(rng.range_i64(-3..=3))
                } else {
                    *rng.pick(&vals)
                }
            };
            let (x, y, z) = (pick(rng), pick(rng), pick(rng));
            let (producer, value) = match rng.index(4) {
                0 => {
                    let c = b.cmp(*rng.pick(Pred::all()), x, y);
                    let (t, f) = match rng.index(4) {
                        0 => (x, y),
                        1 => (y, x),
                        2 => (x, z),
                        _ => (z, y),
                    };
                    (c, b.sel(c, t, f))
                }
                1 => {
                    let m = b.mul(x, y);
                    let a = if rng.gen_bool() {
                        b.add(m, z)
                    } else {
                        b.add(z, m)
                    };
                    (m, b.bin(BinOp::AShr, a, Operand::Imm(2)))
                }
                2 => {
                    let a = b.add(x, y);
                    (a, b.bin(BinOp::AShr, a, z))
                }
                _ => {
                    let m = b.mul(x, y);
                    (m, b.add(m, z))
                }
            };
            match rng.index(6) {
                // A second reader of the producer.
                0 => {
                    b.store(d, 16, stored, producer, Ty::I32);
                    stored += 1;
                }
                // The producer carried around the loop.
                1 => {
                    let acc = b.fresh();
                    b.carry_into(acc, producer, cfp_ir::CarriedInit::Const(0));
                    vals.push(acc.into());
                }
                _ => {}
            }
            vals.push(value.into());
        }
        let last = *vals.last().unwrap();
        b.store(d, 16, stored, last, Ty::I32);
        b.finish()
    }

    #[test]
    fn the_table_matcher_agrees_with_the_hand_written_arms_on_near_misses() {
        let mut made = [0; FUSED_OPS.len()];
        for case in 0..300 {
            let mut rng = cfp_testkit::Rng::new(0xf05e_0a11 + case);
            let k = near_misses(&mut rng);
            cfp_ir::verify(&k).unwrap();
            for rw in assert_plans_agree(
                &k,
                &format!("case {case}:\n{}", cfp_ir::pretty::Listing(&k)),
            ) {
                made[usize::from(rw.fused.fused_op().unwrap().0)] += 1;
            }
        }
        assert!(made.iter().all(|&n| n > 0), "{made:?}");
    }
}
