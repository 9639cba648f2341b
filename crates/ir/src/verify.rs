//! Structural verification of kernels.
//!
//! The verifier enforces the invariants the rest of the toolchain relies
//! on (and that the front end is supposed to establish):
//!
//! * single static assignment across preamble + body;
//! * definitions precede uses; carried inputs and preamble values are the
//!   only body live-ins;
//! * carried inputs are never redefined; carried outputs are body-defined
//!   (or equal to their input for pass-through values);
//! * the preamble is pure setup — no stores, only iteration-invariant
//!   (`coeff == 0`) affine loads;
//! * array accesses respect the declared binding kind.

use crate::inst::{Inst, Vreg};
use crate::kernel::{CarriedInit, Kernel};
use std::error::Error;
use std::fmt;

/// A structural rule violation found by [`verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A register is defined more than once.
    MultipleDefs(Vreg),
    /// A register is used before (or without) a definition.
    UseBeforeDef {
        /// The offending register.
        vreg: Vreg,
        /// `"preamble"` or `"body"`.
        section: &'static str,
        /// Instruction index within the section.
        index: usize,
    },
    /// A carried input register is also defined by an instruction.
    CarriedInputRedefined(Vreg),
    /// A carried output register is not defined in the body (and differs
    /// from its input).
    CarriedOutputUndefined(Vreg),
    /// A carried init references a register the preamble does not define.
    CarriedInitUndefined(Vreg),
    /// The preamble contains a store.
    StoreInPreamble(usize),
    /// A preamble load varies with the iteration (`coeff != 0`).
    VaryingPreambleLoad(usize),
    /// An instruction references an array that was never declared.
    UnknownArray(u32),
    /// A load from a write-only array or store to a read-only array.
    AccessViolation {
        /// Array name.
        array: String,
        /// `"load"` or `"store"`.
        access: &'static str,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::MultipleDefs(v) => write!(f, "register {v} has multiple definitions"),
            VerifyError::UseBeforeDef {
                vreg,
                section,
                index,
            } => write!(
                f,
                "register {vreg} used before definition ({section}[{index}])"
            ),
            VerifyError::CarriedInputRedefined(v) => {
                write!(f, "carried input {v} is redefined by an instruction")
            }
            VerifyError::CarriedOutputUndefined(v) => {
                write!(f, "carried output {v} is not defined in the body")
            }
            VerifyError::CarriedInitUndefined(v) => {
                write!(
                    f,
                    "carried init register {v} is not defined in the preamble"
                )
            }
            VerifyError::StoreInPreamble(i) => write!(f, "preamble[{i}] is a store"),
            VerifyError::VaryingPreambleLoad(i) => {
                write!(f, "preamble[{i}] load varies with the iteration")
            }
            VerifyError::UnknownArray(a) => write!(f, "array a{a} is not declared"),
            VerifyError::AccessViolation { array, access } => {
                write!(f, "illegal {access} on array `{array}`")
            }
        }
    }
}

impl Error for VerifyError {}

/// Check every structural invariant; returns the first violation found.
///
/// # Errors
/// Returns a [`VerifyError`] describing the first broken invariant.
pub fn verify(kernel: &Kernel) -> Result<(), VerifyError> {
    check_arrays(kernel)?;
    let n_vregs = kernel.vreg_count() as usize;
    let sites = def_sites(kernel, n_vregs)?;
    check_carried(kernel, &sites)?;
    check_preamble(kernel)?;
    check_def_before_use(kernel, n_vregs)?;
    Ok(())
}

fn check_arrays(kernel: &Kernel) -> Result<(), VerifyError> {
    for inst in kernel.preamble.iter().chain(&kernel.body) {
        if let Some(m) = inst.mem() {
            let Some(decl) = kernel.arrays.get(m.array.index()) else {
                return Err(VerifyError::UnknownArray(m.array.0));
            };
            let (ok, access) = if inst.is_store() {
                (decl.kind.writable(), "store")
            } else {
                (decl.kind.readable(), "load")
            };
            if !ok {
                return Err(VerifyError::AccessViolation {
                    array: decl.name.clone(),
                    access,
                });
            }
        }
    }
    Ok(())
}

/// Where a register is defined, one entry per vreg number.
#[derive(Clone, Copy, PartialEq, Eq)]
enum DefSite {
    Nowhere,
    Preamble,
    Body,
}

/// The definition site of every register, or the first register with a
/// second definition.
fn def_sites(kernel: &Kernel, n_vregs: usize) -> Result<Vec<DefSite>, VerifyError> {
    let mut sites = vec![DefSite::Nowhere; n_vregs];
    let sections = [
        (&kernel.preamble, DefSite::Preamble),
        (&kernel.body, DefSite::Body),
    ];
    for (insts, site) in sections {
        for d in insts.iter().filter_map(Inst::def) {
            if std::mem::replace(&mut sites[d.index()], site) != DefSite::Nowhere {
                return Err(VerifyError::MultipleDefs(d));
            }
        }
    }
    Ok(sites)
}

fn check_carried(kernel: &Kernel, sites: &[DefSite]) -> Result<(), VerifyError> {
    for c in &kernel.carried {
        if sites[c.input.index()] != DefSite::Nowhere {
            return Err(VerifyError::CarriedInputRedefined(c.input));
        }
        if c.output != c.input && sites[c.output.index()] != DefSite::Body {
            return Err(VerifyError::CarriedOutputUndefined(c.output));
        }
        if let CarriedInit::Preamble(v) = c.init {
            if sites[v.index()] != DefSite::Preamble {
                return Err(VerifyError::CarriedInitUndefined(v));
            }
        }
    }
    Ok(())
}

fn check_preamble(kernel: &Kernel) -> Result<(), VerifyError> {
    for (i, inst) in kernel.preamble.iter().enumerate() {
        if inst.is_store() {
            return Err(VerifyError::StoreInPreamble(i));
        }
        if let Some(m) = inst.mem() {
            if m.coeff != 0 {
                return Err(VerifyError::VaryingPreambleLoad(i));
            }
        }
    }
    Ok(())
}

fn check_def_before_use(kernel: &Kernel, n_vregs: usize) -> Result<(), VerifyError> {
    let mut avail = vec![false; n_vregs];
    check_section(&kernel.preamble, "preamble", &mut avail)?;
    for c in &kernel.carried {
        avail[c.input.index()] = true;
    }
    check_section(&kernel.body, "body", &mut avail)
}

/// Walk one section in order: every read must be of an available
/// register, and every definition becomes available after it.
fn check_section(
    insts: &[Inst],
    section: &'static str,
    avail: &mut [bool],
) -> Result<(), VerifyError> {
    for (index, inst) in insts.iter().enumerate() {
        let mut missing = None;
        inst.for_each_use(|u| {
            if missing.is_none() && !avail[u.index()] {
                missing = Some(u);
            }
        });
        if let Some(vreg) = missing {
            return Err(VerifyError::UseBeforeDef {
                vreg,
                section,
                index,
            });
        }
        if let Some(d) = inst.def() {
            avail[d.index()] = true;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::KernelBuilder;
    use crate::inst::{MemRef, Operand};
    use crate::kernel::{ArrayId, Carried};
    use crate::op::BinOp;
    use crate::types::{MemSpace, Ty};

    fn base() -> KernelBuilder {
        KernelBuilder::new("t")
    }

    #[test]
    fn empty_kernel_verifies() {
        assert_eq!(verify(&Kernel::new("e")), Ok(()));
    }

    #[test]
    fn rejects_use_before_def() {
        let mut b = base();
        b.push(Inst::Bin {
            dst: Vreg(0),
            op: BinOp::Add,
            a: Operand::Reg(Vreg(9)),
            b: Operand::Imm(1),
        });
        let err = verify(&b.finish()).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::UseBeforeDef { vreg: Vreg(9), .. }
        ));
    }

    #[test]
    fn rejects_double_def() {
        let mut b = base();
        b.push(Inst::mov(Vreg(0), 1_i64));
        b.push(Inst::mov(Vreg(0), 2_i64));
        assert_eq!(verify(&b.finish()), Err(VerifyError::MultipleDefs(Vreg(0))));
    }

    #[test]
    fn rejects_store_to_input() {
        let mut b = base();
        let a = b.array_in("src", Ty::U8, MemSpace::L2);
        b.store(a, 1, 0, 5_i64, Ty::U8);
        assert!(matches!(
            verify(&b.finish()),
            Err(VerifyError::AccessViolation {
                access: "store",
                ..
            })
        ));
    }

    #[test]
    fn rejects_load_from_output() {
        let mut b = base();
        let a = b.array_out("dst", Ty::U8, MemSpace::L2);
        let _ = b.load(a, 1, 0, Ty::U8);
        assert!(matches!(
            verify(&b.finish()),
            Err(VerifyError::AccessViolation { access: "load", .. })
        ));
    }

    #[test]
    fn rejects_unknown_array() {
        let mut b = base();
        b.push(Inst::Ld {
            dst: Vreg(0),
            mem: MemRef::affine(ArrayId(3), 1, 0),
            ty: Ty::U8,
        });
        assert_eq!(verify(&b.finish()), Err(VerifyError::UnknownArray(3)));
    }

    #[test]
    fn rejects_store_in_preamble() {
        let mut b = base();
        let a = b.array_out("dst", Ty::U8, MemSpace::L2);
        b.in_preamble(true);
        b.store(a, 0, 0, 1_i64, Ty::U8);
        assert_eq!(verify(&b.finish()), Err(VerifyError::StoreInPreamble(0)));
    }

    #[test]
    fn rejects_varying_preamble_load() {
        let mut b = base();
        let a = b.array_in("src", Ty::U8, MemSpace::L2);
        b.in_preamble(true);
        let _ = b.load(a, 1, 0, Ty::U8);
        assert_eq!(
            verify(&b.finish()),
            Err(VerifyError::VaryingPreambleLoad(0))
        );
    }

    #[test]
    fn rejects_redefined_carried_input() {
        let mut b = base();
        let x = b.mov(1_i64);
        let mut k = b.finish();
        k.carried.push(Carried {
            input: x,
            output: x,
            init: crate::kernel::CarriedInit::Const(0),
        });
        assert_eq!(verify(&k), Err(VerifyError::CarriedInputRedefined(x)));
    }

    #[test]
    fn rejects_undefined_carried_output() {
        let mut k = Kernel::new("t");
        k.carried.push(Carried {
            input: Vreg(0),
            output: Vreg(1),
            init: crate::kernel::CarriedInit::Const(0),
        });
        assert_eq!(
            verify(&k),
            Err(VerifyError::CarriedOutputUndefined(Vreg(1)))
        );
    }

    #[test]
    fn pass_through_carried_is_fine() {
        let mut k = Kernel::new("t");
        k.carried.push(Carried {
            input: Vreg(0),
            output: Vreg(0),
            init: crate::kernel::CarriedInit::Const(7),
        });
        assert_eq!(verify(&k), Ok(()));
    }

    #[test]
    fn rejects_bad_carried_init() {
        let mut k = Kernel::new("t");
        k.carried.push(Carried {
            input: Vreg(0),
            output: Vreg(0),
            init: crate::kernel::CarriedInit::Preamble(Vreg(5)),
        });
        assert_eq!(verify(&k), Err(VerifyError::CarriedInitUndefined(Vreg(5))));
    }

    #[test]
    fn error_display_is_informative() {
        let e = VerifyError::UseBeforeDef {
            vreg: Vreg(3),
            section: "body",
            index: 2,
        };
        assert_eq!(
            e.to_string(),
            "register v3 used before definition (body[2])"
        );
    }
}
