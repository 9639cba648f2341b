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
//! * a register and an immediate ([`Operand::Imm`]) hold an `i32`, the
//!   machine's one integer width: every operation wraps as the hardware
//!   does, and an exact integer (a frontend constant, a builder literal)
//!   becomes a register value in one place, `From<i64> for Operand`;
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
