//! A convenience builder for constructing kernels programmatically.
//!
//! The DSL front end is the usual way to produce a [`Kernel`]; the builder
//! exists for tests, synthetic workloads, and users who want to skip the
//! textual syntax.

use crate::inst::{Inst, MemRef, Operand, Vreg};
use crate::kernel::{ArrayDecl, ArrayId, ArrayKind, Carried, CarriedInit, Kernel};
use crate::op::{BinOp, Pred, UnOp};
use crate::types::{MemSpace, Ty};

/// Builds a [`Kernel`] one instruction at a time.
///
/// Instructions are appended to the *body* by default; call
/// [`KernelBuilder::in_preamble`] around setup code. Every emit method
/// returns the destination [`Vreg`] so expressions chain naturally.
#[derive(Debug, Default)]
pub struct KernelBuilder {
    kernel: Kernel,
    next_vreg: u32,
    preamble_mode: bool,
}

impl KernelBuilder {
    /// Start building a kernel with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            kernel: Kernel::new(name),
            next_vreg: 0,
            preamble_mode: false,
        }
    }

    /// Allocate a fresh virtual register.
    pub fn fresh(&mut self) -> Vreg {
        let v = Vreg(self.next_vreg);
        self.next_vreg += 1;
        v
    }

    fn declare(&mut self, name: &str, ty: Ty, space: MemSpace, kind: ArrayKind) -> ArrayId {
        let id = ArrayId(u32::try_from(self.kernel.arrays.len()).expect("too many arrays"));
        self.kernel.arrays.push(ArrayDecl {
            name: name.to_owned(),
            ty,
            space,
            kind,
        });
        id
    }

    /// Declare an input array.
    pub fn array_in(&mut self, name: &str, ty: Ty, space: MemSpace) -> ArrayId {
        self.declare(name, ty, space, ArrayKind::In)
    }

    /// Declare an output array.
    pub fn array_out(&mut self, name: &str, ty: Ty, space: MemSpace) -> ArrayId {
        self.declare(name, ty, space, ArrayKind::Out)
    }

    /// Declare a read-write array.
    pub fn array_inout(&mut self, name: &str, ty: Ty, space: MemSpace) -> ArrayId {
        self.declare(name, ty, space, ArrayKind::InOut)
    }

    /// Declare a kernel-local scratch array of `len` elements.
    pub fn array_local(&mut self, name: &str, ty: Ty, space: MemSpace, len: u32) -> ArrayId {
        self.declare(name, ty, space, ArrayKind::Local(len))
    }

    /// Route subsequent emissions to the preamble (`true`) or body.
    pub fn in_preamble(&mut self, on: bool) -> &mut Self {
        self.preamble_mode = on;
        self
    }

    /// Append a raw instruction to the current section.
    pub fn push(&mut self, inst: Inst) -> &mut Self {
        if self.preamble_mode {
            self.kernel.preamble.push(inst);
        } else {
            self.kernel.body.push(inst);
        }
        self
    }

    /// Emit `dst = op(a, b)` into a fresh register.
    pub fn bin(&mut self, op: BinOp, a: impl Into<Operand>, b: impl Into<Operand>) -> Vreg {
        let dst = self.fresh();
        self.push(Inst::Bin {
            dst,
            op,
            a: a.into(),
            b: b.into(),
        });
        dst
    }

    /// Emit an add.
    pub fn add(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Vreg {
        self.bin(BinOp::Add, a, b)
    }

    /// Emit a subtract.
    pub fn sub(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Vreg {
        self.bin(BinOp::Sub, a, b)
    }

    /// Emit a multiply.
    pub fn mul(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Vreg {
        self.bin(BinOp::Mul, a, b)
    }

    /// Emit a left shift.
    pub fn shl(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Vreg {
        self.bin(BinOp::Shl, a, b)
    }

    /// Emit an arithmetic right shift.
    pub fn ashr(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Vreg {
        self.bin(BinOp::AShr, a, b)
    }

    /// Emit `dst = op(a)`.
    pub fn un(&mut self, op: UnOp, a: impl Into<Operand>) -> Vreg {
        let dst = self.fresh();
        self.push(Inst::Un {
            dst,
            op,
            a: a.into(),
        });
        dst
    }

    /// Emit a copy / immediate materialization.
    pub fn mov(&mut self, a: impl Into<Operand>) -> Vreg {
        self.un(UnOp::Copy, a)
    }

    /// Emit a compare producing 0/1.
    pub fn cmp(&mut self, pred: Pred, a: impl Into<Operand>, b: impl Into<Operand>) -> Vreg {
        let dst = self.fresh();
        self.push(Inst::Cmp {
            dst,
            pred,
            a: a.into(),
            b: b.into(),
        });
        dst
    }

    /// Emit a select.
    pub fn sel(
        &mut self,
        cond: impl Into<Operand>,
        on_true: impl Into<Operand>,
        on_false: impl Into<Operand>,
    ) -> Vreg {
        let dst = self.fresh();
        self.push(Inst::Sel {
            dst,
            cond: cond.into(),
            on_true: on_true.into(),
            on_false: on_false.into(),
        });
        dst
    }

    /// Emit `min(a, b)` as a compare + select pair: the base ISA has no
    /// min, and the fuse pass turns the pair into the fused `min` only
    /// for machines with the extension that provides it.
    pub fn min(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Vreg {
        let (a, b) = (a.into(), b.into());
        let c = self.cmp(Pred::Lt, a, b);
        self.sel(c, a, b)
    }

    /// Emit `max(a, b)` as a compare + select pair.
    pub fn max(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Vreg {
        let (a, b) = (a.into(), b.into());
        let c = self.cmp(Pred::Gt, a, b);
        self.sel(c, a, b)
    }

    /// Emit an affine load `array[coeff*i + offset]`.
    pub fn load(&mut self, array: ArrayId, coeff: i64, offset: i64, ty: Ty) -> Vreg {
        let dst = self.fresh();
        self.push(Inst::Ld {
            dst,
            mem: MemRef::affine(array, coeff, offset),
            ty,
        });
        dst
    }

    /// Emit an affine store `array[coeff*i + offset] = value`.
    pub fn store(
        &mut self,
        array: ArrayId,
        coeff: i64,
        offset: i64,
        value: impl Into<Operand>,
        ty: Ty,
    ) -> &mut Self {
        self.push(Inst::St {
            mem: MemRef::affine(array, coeff, offset),
            value: value.into(),
            ty,
        })
    }

    /// Declare a loop-carried scalar. Returns the carried-in register the
    /// body should read; call with the body's end-of-iteration register.
    pub fn carry(&mut self, output: Vreg, init: CarriedInit) -> Vreg {
        let input = self.fresh();
        self.kernel.carried.push(Carried {
            input,
            output,
            init,
        });
        input
    }

    /// Declare a loop-carried scalar whose carried-in register was
    /// allocated up front (needed when the body must read the value before
    /// the producing instruction has been emitted).
    pub fn carry_into(&mut self, input: Vreg, output: Vreg, init: CarriedInit) {
        self.kernel.carried.push(Carried {
            input,
            output,
            init,
        });
    }

    /// Set how many output units one iteration produces.
    pub fn outputs_per_iter(&mut self, n: u32) -> &mut Self {
        self.kernel.outputs_per_iter = n;
        self
    }

    /// Finish and return the kernel.
    #[must_use]
    pub fn finish(self) -> Kernel {
        self.kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify;

    #[test]
    fn builds_a_verifiable_kernel() {
        let mut b = KernelBuilder::new("k");
        let src = b.array_in("src", Ty::U8, MemSpace::L2);
        let dst = b.array_out("dst", Ty::U8, MemSpace::L2);
        b.in_preamble(true);
        let seven = b.mov(7_i64);
        b.in_preamble(false);
        let x = b.load(src, 1, 0, Ty::U8);
        let y = b.mul(x, seven);
        let acc0 = b.fresh();
        let acc_in = b.carry(acc0, CarriedInit::Const(0));
        b.push(Inst::Bin {
            dst: acc0,
            op: BinOp::Add,
            a: Operand::Reg(acc_in),
            b: Operand::Reg(y),
        });
        b.store(dst, 1, 0, acc0, Ty::U8);
        let k = b.finish();
        verify(&k).expect("verifies");
        assert_eq!(k.body.len(), 4);
        assert_eq!(k.preamble.len(), 1);
        assert_eq!(k.carried.len(), 1);
    }

    #[test]
    fn min_max_lower_to_cmp_sel() {
        let mut b = KernelBuilder::new("m");
        let x = b.mov(3_i64);
        let y = b.mov(9_i64);
        let _ = b.min(x, y);
        let _ = b.max(x, y);
        let k = b.finish();
        let cmps = k
            .body
            .iter()
            .filter(|i| matches!(i, Inst::Cmp { .. }))
            .count();
        let sels = k
            .body
            .iter()
            .filter(|i| matches!(i, Inst::Sel { .. }))
            .count();
        assert_eq!((cmps, sels), (2, 2));
    }
}
