//! Constant propagation and folding.

use cfp_ir::{Inst, Kernel, Operand, Vreg};

/// Propagate known constants through operands and fold fully-constant
/// instructions into `mov dst, #imm` (removed later by DCE when unused).
/// Returns whether any instruction changed.
pub fn constant_fold(kernel: &mut Kernel) -> bool {
    let mut changed = false;
    // The constant each register is known to hold, indexed by register.
    let mut known: Vec<Option<i32>> = vec![None; kernel.vreg_count() as usize];
    let (pre, body) = (&mut kernel.preamble, &mut kernel.body);
    for inst in pre.iter_mut().chain(body.iter_mut()) {
        let old = *inst;
        inst.map_operands(|o| match o {
            Operand::Reg(v) => known[v.index()].map_or(o, Operand::Imm),
            imm => imm,
        });
        if let Some((dst, value)) = fold_inst(inst) {
            known[dst.index()] = Some(value);
            *inst = Inst::mov(dst, Operand::Imm(value));
        } else if let Some((dst, copied)) = fold_select(inst) {
            *inst = Inst::mov(dst, copied);
        }
        changed |= *inst != old;
    }
    changed
}

/// If the instruction computes a compile-time constant, return it.
fn fold_inst(inst: &Inst) -> Option<(Vreg, i32)> {
    match *inst {
        Inst::Bin {
            dst,
            op,
            a: Operand::Imm(x),
            b: Operand::Imm(y),
        } => Some((dst, op.eval(x, y))),
        Inst::Un {
            dst,
            op,
            a: Operand::Imm(x),
        } => Some((dst, op.eval(x))),
        Inst::Cmp {
            dst,
            pred,
            a: Operand::Imm(x),
            b: Operand::Imm(y),
        } => Some((dst, pred.eval(x, y))),
        Inst::Sel {
            dst,
            cond: Operand::Imm(c),
            on_true: Operand::Imm(t),
            on_false: Operand::Imm(f),
        } => Some((dst, if c != 0 { t } else { f })),
        _ => None,
    }
}

/// A select with a constant condition collapses to a copy of the chosen
/// arm even when that arm is a register.
fn fold_select(inst: &Inst) -> Option<(Vreg, Operand)> {
    if let Inst::Sel {
        dst,
        cond: Operand::Imm(c),
        on_true,
        on_false,
    } = *inst
    {
        Some((dst, if c != 0 { on_true } else { on_false }))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_ir::{BinOp, KernelBuilder, MemSpace, Pred, Ty};

    #[test]
    fn folds_chains_of_constants() {
        let mut b = KernelBuilder::new("t");
        let dst = b.array_out("d", Ty::I32, MemSpace::L2);
        let x = b.mov(3_i64);
        let y = b.mul(x, 4_i64);
        let z = b.add(y, 1_i64);
        b.store(dst, 1, 0, z, Ty::I32);
        let mut k = b.finish();
        constant_fold(&mut k);
        assert_eq!(k.body[2], Inst::mov(z, 13_i64));
        // The store's operand becomes an immediate on the next round.
        constant_fold(&mut k);
        let Inst::St { value, .. } = k.body[3] else {
            panic!()
        };
        assert_eq!(value, Operand::Imm(13));
    }

    #[test]
    fn folds_cmp_and_sel() {
        let mut b = KernelBuilder::new("t");
        let c = b.cmp(Pred::Lt, 2_i64, 5_i64);
        let s = b.sel(c, 10_i64, 20_i64);
        let mut k = b.finish();
        constant_fold(&mut k);
        constant_fold(&mut k);
        assert_eq!(k.body[1], Inst::mov(s, 10_i64));
    }

    #[test]
    fn select_with_const_cond_and_reg_arm_becomes_copy() {
        let mut b = KernelBuilder::new("t");
        let src = b.array_in("s", Ty::I32, MemSpace::L2);
        let x = b.load(src, 1, 0, Ty::I32);
        let s = b.sel(1_i64, x, 99_i64);
        let mut k = b.finish();
        constant_fold(&mut k);
        assert_eq!(k.body[1], Inst::mov(s, x));
    }

    #[test]
    fn does_not_fold_through_carried_inputs() {
        let mut b = KernelBuilder::new("t");
        let inp = b.fresh();
        let out = b.add(inp, 1_i64);
        b.carry_into(inp, out, cfp_ir::CarriedInit::Const(0));
        let mut k = b.finish();
        let before = k.clone();
        constant_fold(&mut k);
        assert_eq!(k, before, "carried input is not a constant");
    }

    #[test]
    fn wrapping_is_respected() {
        let mut b = KernelBuilder::new("t");
        let x = b.bin(BinOp::Shl, 1_i64, 31_i64);
        let mut k = b.finish();
        constant_fold(&mut k);
        assert_eq!(k.body[0], Inst::mov(x, i64::from(i32::MIN)));
    }
}
