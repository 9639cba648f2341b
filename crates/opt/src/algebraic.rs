//! Algebraic simplification.
//!
//! Identity/absorption rewrites plus one deliberate strength reduction:
//! multiply by a power of two becomes a shift. Arbitrary multiply-by-
//! constant decomposition into shift/add sequences is *not* performed —
//! the paper's machines pay for IMUL units and its benchmarks exercise
//! them; decomposing every constant multiply would silently change which
//! architectures win (see DESIGN.md §4).

use cfp_ir::{BinOp, Inst, Operand};

/// Apply local rewrites to every instruction. Returns whether any
/// instruction changed.
pub fn simplify(kernel: &mut cfp_ir::Kernel) -> bool {
    let mut changed = false;
    for inst in kernel.preamble.iter_mut().chain(kernel.body.iter_mut()) {
        if let Some(better) = rewrite(inst) {
            changed |= better != *inst;
            *inst = better;
        }
    }
    changed
}

fn rewrite(inst: &Inst) -> Option<Inst> {
    match *inst {
        Inst::Bin { dst, op, a, b } => rewrite_bin(dst, op, a, b),
        Inst::Sel {
            dst,
            on_true,
            on_false,
            ..
        } if on_true == on_false => Some(Inst::mov(dst, on_true)),
        Inst::Cmp { dst, pred, a, b } if a == b && a.reg().is_some() => {
            Some(Inst::mov(dst, Operand::Imm(pred.eval(0, 0))))
        }
        _ => None,
    }
}

fn rewrite_bin(dst: cfp_ir::Vreg, op: BinOp, a: Operand, b: Operand) -> Option<Inst> {
    use Operand::Imm;
    let mov = |o: Operand| Some(Inst::mov(dst, o));
    match (op, a, b) {
        // Additive identities.
        (BinOp::Add, x, Imm(0)) | (BinOp::Add, Imm(0), x) | (BinOp::Sub, x, Imm(0)) => mov(x),
        (BinOp::Sub, x, y) if x == y && x.reg().is_some() => mov(Imm(0)),
        // Multiplicative identities, absorption, and power-of-two shifts.
        (BinOp::Mul, x, Imm(1)) | (BinOp::Mul, Imm(1), x) => mov(x),
        (BinOp::Mul, _, Imm(0)) | (BinOp::Mul, Imm(0), _) => mov(Imm(0)),
        (BinOp::Mul, x, Imm(k)) | (BinOp::Mul, Imm(k), x) if k > 1 && (k & (k - 1)) == 0 => {
            Some(Inst::Bin {
                dst,
                op: BinOp::Shl,
                a: x,
                b: i64::from(k.trailing_zeros()).into(),
            })
        }
        // Bitwise identities.
        (BinOp::And, x, Imm(-1)) | (BinOp::And, Imm(-1), x) => mov(x),
        (BinOp::And, _, Imm(0)) | (BinOp::And, Imm(0), _) => mov(Imm(0)),
        (BinOp::Or, x, Imm(0))
        | (BinOp::Or, Imm(0), x)
        | (BinOp::Xor, x, Imm(0))
        | (BinOp::Xor, Imm(0), x) => mov(x),
        (BinOp::And | BinOp::Or, x, y) if x == y && x.reg().is_some() => mov(x),
        (BinOp::Xor, x, y) if x == y && x.reg().is_some() => mov(Imm(0)),
        // Shift identities.
        (BinOp::Shl | BinOp::AShr | BinOp::LShr, x, Imm(0)) => mov(x),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_ir::{KernelBuilder, MemSpace, Pred, Ty, UnOp, Vreg};

    fn body_of(f: impl FnOnce(&mut KernelBuilder, Vreg)) -> Vec<Inst> {
        let mut b = KernelBuilder::new("t");
        let src = b.array_in("s", Ty::I32, MemSpace::L2);
        let x = b.load(src, 1, 0, Ty::I32);
        f(&mut b, x);
        let mut k = b.finish();
        simplify(&mut k);
        k.body
    }

    #[test]
    fn additive_and_multiplicative_identities() {
        let body = body_of(|b, x| {
            let _ = b.add(x, 0_i64);
            let _ = b.mul(x, 1_i64);
            let _ = b.mul(x, 0_i64);
            let _ = b.sub(x, x);
        });
        assert!(
            matches!(body[1], Inst::Un { op: UnOp::Copy, a, .. } if a == Operand::Reg(Vreg(0)))
        );
        assert!(matches!(body[2], Inst::Un { op: UnOp::Copy, .. }));
        assert!(matches!(
            body[3],
            Inst::Un {
                op: UnOp::Copy,
                a: Operand::Imm(0),
                ..
            }
        ));
        assert!(matches!(
            body[4],
            Inst::Un {
                op: UnOp::Copy,
                a: Operand::Imm(0),
                ..
            }
        ));
    }

    #[test]
    fn power_of_two_mul_becomes_shift() {
        let body = body_of(|b, x| {
            let _ = b.mul(x, 8_i64);
        });
        assert!(
            matches!(
                body[1],
                Inst::Bin {
                    op: BinOp::Shl,
                    b: Operand::Imm(3),
                    ..
                }
            ),
            "{:?}",
            body[1]
        );
    }

    #[test]
    fn non_power_of_two_mul_stays() {
        let body = body_of(|b, x| {
            let _ = b.mul(x, 7_i64);
        });
        assert!(matches!(body[1], Inst::Bin { op: BinOp::Mul, .. }));
    }

    #[test]
    fn select_same_arms_collapses() {
        let body = body_of(|b, x| {
            let c = b.cmp(Pred::Lt, x, 3_i64);
            let _ = b.sel(c, x, x);
        });
        assert!(matches!(body[2], Inst::Un { op: UnOp::Copy, .. }));
    }

    #[test]
    fn cmp_same_reg_folds_by_predicate() {
        let body = body_of(|b, x| {
            let _ = b.cmp(Pred::Le, x, x);
            let _ = b.cmp(Pred::Ne, x, x);
        });
        assert!(matches!(
            body[1],
            Inst::Un {
                op: UnOp::Copy,
                a: Operand::Imm(1),
                ..
            }
        ));
        assert!(matches!(
            body[2],
            Inst::Un {
                op: UnOp::Copy,
                a: Operand::Imm(0),
                ..
            }
        ));
    }
}
