//! # cfp-ir — the intermediate representation of the custom-fit toolchain
//!
//! This crate defines the loop-level IR that the whole system revolves
//! around. A [`Kernel`] models one image-processing loop nest after the
//! front end has fully unrolled constant-bound inner loops and if-converted
//! all control flow: what remains is a *preamble* (executed once; typically
//! hoisted coefficient loads) and a straight-line *body* executed once per
//! iteration of the surviving outer loop, plus a set of *loop-carried*
//! scalar values threaded from one iteration to the next.
//!
//! The representation is deliberately close to what a clustered VLIW
//! scheduler wants to consume:
//!
//! * operations are simple RISC-style scalar ops over virtual registers
//!   ([`Inst`], [`BinOp`], [`UnOp`], [`Pred`]);
//! * memory accesses carry an *affine* reference ([`MemRef`]) — element
//!   index `coeff * iteration + offset (+ dynamic)` — which is exactly the
//!   information the scheduler's memory-dependence test needs;
//! * arrays are declared with a memory space ([`MemSpace`]) matching the
//!   paper's two-level memory system.
//!
//! The crate also provides a reference [`interp`] interpreter (the golden
//! executor against which scheduled code is validated), a structural
//! [`mod@verify`] pass, a pretty-printer, and the workspace's one
//! in-process table hash ([`WordHasher`], behind [`WordMap`] and
//! [`WordSet`]).
//!
//! ```
//! use cfp_ir::{KernelBuilder, MemSpace, Ty, Operand};
//!
//! // dst[i] = src[i] * 3 + 1
//! let mut b = KernelBuilder::new("saxpyish");
//! let src = b.array_in("src", Ty::U8, MemSpace::L2);
//! let dst = b.array_out("dst", Ty::U8, MemSpace::L2);
//! let x = b.load(src, 1, 0, Ty::U8);
//! let m = b.mul(x, Operand::Imm(3));
//! let r = b.add(m, Operand::Imm(1));
//! b.store(dst, 1, 0, r, Ty::U8);
//! let kernel = b.finish();
//! assert!(cfp_ir::verify::verify(&kernel).is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod build;
pub mod hash;
pub mod inst;
pub mod interp;
pub mod kernel;
pub mod op;
pub mod pretty;
pub mod types;
pub mod verify;

pub use build::KernelBuilder;
pub use hash::{WordBuildHasher, WordHasher, WordMap, WordSet};
pub use inst::{Inst, MemRef, Operand, Vreg};
pub use interp::{Interpreter, MemImage};
pub use kernel::{ArrayDecl, ArrayId, ArrayKind, Carried, CarriedInit, Kernel};
pub use op::{BinOp, Expr, FusedOp, FusedRow, Pred, UnOp, FUSED_OPS};
pub use types::{MemSpace, Ty};
pub use verify::{verify, VerifyError};

/// Wrap an `i64` to the semantics of a 32-bit two's-complement register.
///
/// Every ALU result in the machine model is a 32-bit integer; the
/// interpreter and the schedule simulator both funnel results through this
/// function so they agree bit-for-bit.
#[inline]
pub fn wrap32(x: i64) -> i64 {
    x as i32 as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap32_wraps_like_a_register() {
        assert_eq!(wrap32(0), 0);
        assert_eq!(wrap32(i64::from(i32::MAX) + 1), i64::from(i32::MIN));
        assert_eq!(wrap32(-1), -1);
        assert_eq!(wrap32(1 << 40), 0);
        assert_eq!(wrap32((1 << 31) | 1), i64::from(i32::MIN) + 1);
    }
}
