//! Instructions, operands, and affine memory references.

use crate::kernel::ArrayId;
use crate::op::{BinOp, FusedOp, Pred, UnOp};
use crate::types::Ty;
use std::fmt;

/// A virtual register. The compiler allocates these freely; the back end
/// later checks that the scheduled code fits in the target's real register
/// files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Vreg(pub u32);

impl Vreg {
    /// Index into dense per-vreg tables.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Vreg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An instruction operand: a virtual register or an immediate.
///
/// Immediates are free in the machine model (VLIW long-immediate fields),
/// matching the Multiflow-style encodings the paper builds on. An
/// immediate is a register value: an `i32`, read by every pass exactly as
/// the machine reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Read a virtual register.
    Reg(Vreg),
    /// A 32-bit immediate.
    Imm(i32),
}

impl Operand {
    /// The register read by this operand, if any.
    #[must_use]
    pub fn reg(self) -> Option<Vreg> {
        match self {
            Operand::Reg(v) => Some(v),
            Operand::Imm(_) => None,
        }
    }

    /// The immediate value, if this operand is one.
    #[must_use]
    pub fn imm(self) -> Option<i32> {
        match self {
            Operand::Reg(_) => None,
            Operand::Imm(i) => Some(i),
        }
    }
}

impl From<Vreg> for Operand {
    fn from(v: Vreg) -> Self {
        Operand::Reg(v)
    }
}

/// The one conversion from an exact integer (a frontend constant, a
/// builder literal) to a register value: its low 32 bits, two's
/// complement, as a 32-bit register holds it.
impl From<i64> for Operand {
    fn from(i: i64) -> Self {
        Operand::Imm(i as i32)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(v) => v.fmt(f),
            Operand::Imm(i) => write!(f, "#{i}"),
        }
    }
}

/// An affine memory reference: element index `coeff * iter + offset`,
/// plus an optional dynamic component.
///
/// `iter` is the index of the kernel's surviving outer loop. Keeping the
/// access function symbolic (rather than materializing address arithmetic
/// in the IR) gives the scheduler's dependence test exact information and
/// matches a machine with register+offset addressing and autonomous
/// address streams; the per-iteration pointer-bump and loop-control
/// operations are added back as explicit scheduled operations by the back
/// end so their issue slots are still paid for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Which declared array is accessed.
    pub array: ArrayId,
    /// Elements advanced per outer-loop iteration.
    pub coeff: i64,
    /// Constant element offset.
    pub offset: i64,
    /// Optional dynamic extra index (defeats exact dependence analysis).
    pub dyn_index: Option<Operand>,
}

impl MemRef {
    /// A purely affine reference.
    #[must_use]
    pub fn affine(array: ArrayId, coeff: i64, offset: i64) -> Self {
        MemRef {
            array,
            coeff,
            offset,
            dyn_index: None,
        }
    }

    /// Element index at a given iteration, with the dynamic part resolved
    /// by the caller (0 if absent).
    #[must_use]
    pub fn element_index(&self, iter: i64, dyn_value: i64) -> i64 {
        self.coeff * iter + self.offset + dyn_value
    }

    /// Whether the access function is fully known at compile time.
    #[must_use]
    pub fn is_affine(&self) -> bool {
        self.dyn_index.is_none()
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}[{}*i{:+}", self.array.0, self.coeff, self.offset)?;
        if let Some(d) = self.dyn_index {
            write!(f, "+{d}")?;
        }
        f.write_str("]")
    }
}

/// One straight-line IR instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `dst = op(a, b)`.
    Bin {
        /// Destination register.
        dst: Vreg,
        /// Operation.
        op: BinOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = op(a)`.
    Un {
        /// Destination register.
        dst: Vreg,
        /// Operation.
        op: UnOp,
        /// Operand.
        a: Operand,
    },
    /// `dst = (a pred b) ? 1 : 0`.
    Cmp {
        /// Destination register.
        dst: Vreg,
        /// Predicate.
        pred: Pred,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = cond != 0 ? on_true : on_false` (the if-conversion primitive).
    Sel {
        /// Destination register.
        dst: Vreg,
        /// Condition (any non-zero value selects `on_true`).
        cond: Operand,
        /// Value when the condition is non-zero.
        on_true: Operand,
        /// Value when the condition is zero.
        on_false: Operand,
    },
    /// `dst = op(a, b, c)` — a mined fused operation (custom-instruction
    /// axis). Only present in kernels rewritten by the fuse pass for a
    /// design point whose extension set enables `op`. Two-operand fused
    /// ops carry `c = #0`, which is never read or visited.
    Fused {
        /// Destination register.
        dst: Vreg,
        /// Fused operation.
        op: FusedOp,
        /// First operand.
        a: Operand,
        /// Second operand.
        b: Operand,
        /// Third operand (`#0` and ignored when `op.arity() == 2`).
        c: Operand,
    },
    /// `dst = load.ty mem`.
    Ld {
        /// Destination register.
        dst: Vreg,
        /// Access function.
        mem: MemRef,
        /// Element type (controls widening).
        ty: Ty,
    },
    /// `store.ty mem = value`.
    St {
        /// Access function.
        mem: MemRef,
        /// Value to store (narrowed to `ty`).
        value: Operand,
        /// Element type (controls narrowing).
        ty: Ty,
    },
}

impl Inst {
    /// Register defined by this instruction, if any.
    #[must_use]
    pub fn def(&self) -> Option<Vreg> {
        match *self {
            Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Cmp { dst, .. }
            | Inst::Sel { dst, .. }
            | Inst::Fused { dst, .. }
            | Inst::Ld { dst, .. } => Some(dst),
            Inst::St { .. } => None,
        }
    }

    /// Visit every register this instruction reads, in operand order.
    pub fn for_each_use(&self, mut f: impl FnMut(Vreg)) {
        self.for_each_operand(|o| {
            if let Operand::Reg(v) = o {
                f(v);
            }
        });
    }

    /// Visit every operand (not the destination).
    pub fn for_each_operand(&self, mut f: impl FnMut(Operand)) {
        match *self {
            Inst::Bin { a, b, .. } | Inst::Cmp { a, b, .. } => {
                f(a);
                f(b);
            }
            Inst::Un { a, .. } => f(a),
            Inst::Sel {
                cond,
                on_true,
                on_false,
                ..
            } => {
                f(cond);
                f(on_true);
                f(on_false);
            }
            Inst::Fused { op, a, b, c, .. } => {
                f(a);
                f(b);
                if op.arity() == 3 {
                    f(c);
                }
            }
            Inst::Ld { mem, .. } => {
                if let Some(d) = mem.dyn_index {
                    f(d);
                }
            }
            Inst::St { mem, value, .. } => {
                if let Some(d) = mem.dyn_index {
                    f(d);
                }
                f(value);
            }
        }
    }

    /// Rewrite every operand (not the destination) through `f`.
    pub fn map_operands(&mut self, mut f: impl FnMut(Operand) -> Operand) {
        match self {
            Inst::Bin { a, b, .. } | Inst::Cmp { a, b, .. } => {
                *a = f(*a);
                *b = f(*b);
            }
            Inst::Un { a, .. } => *a = f(*a),
            Inst::Sel {
                cond,
                on_true,
                on_false,
                ..
            } => {
                *cond = f(*cond);
                *on_true = f(*on_true);
                *on_false = f(*on_false);
            }
            Inst::Fused { op, a, b, c, .. } => {
                *a = f(*a);
                *b = f(*b);
                if op.arity() == 3 {
                    *c = f(*c);
                }
            }
            Inst::Ld { mem, .. } => {
                if let Some(d) = &mut mem.dyn_index {
                    *d = f(*d);
                }
            }
            Inst::St { mem, value, .. } => {
                if let Some(d) = &mut mem.dyn_index {
                    *d = f(*d);
                }
                *value = f(*value);
            }
        }
    }

    /// Rewrite the destination register through `f`.
    pub fn map_def(&mut self, f: impl FnOnce(Vreg) -> Vreg) {
        match self {
            Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Cmp { dst, .. }
            | Inst::Sel { dst, .. }
            | Inst::Fused { dst, .. }
            | Inst::Ld { dst, .. } => *dst = f(*dst),
            Inst::St { .. } => {}
        }
    }

    /// The memory reference touched by this instruction, if any.
    #[must_use]
    pub fn mem(&self) -> Option<&MemRef> {
        match self {
            Inst::Ld { mem, .. } | Inst::St { mem, .. } => Some(mem),
            _ => None,
        }
    }

    /// Mutable access to the memory reference, if any.
    pub fn mem_mut(&mut self) -> Option<&mut MemRef> {
        match self {
            Inst::Ld { mem, .. } | Inst::St { mem, .. } => Some(mem),
            _ => None,
        }
    }

    /// Whether this is a memory access (load or store).
    #[must_use]
    pub fn is_mem(&self) -> bool {
        self.mem().is_some()
    }

    /// Whether this is a store.
    #[must_use]
    pub fn is_store(&self) -> bool {
        matches!(self, Inst::St { .. })
    }

    /// Whether this instruction requires an IMUL-capable ALU.
    #[must_use]
    pub fn needs_mul_unit(&self) -> bool {
        match self {
            Inst::Bin { op, .. } => op.needs_mul_unit(),
            Inst::Fused { op, .. } => op.needs_mul_unit(),
            _ => false,
        }
    }

    /// The fused operation, if this is a fused instruction.
    #[must_use]
    pub fn fused_op(&self) -> Option<FusedOp> {
        match self {
            Inst::Fused { op, .. } => Some(*op),
            _ => None,
        }
    }

    /// Convenience constructor for a register-to-register copy.
    #[must_use]
    pub fn mov(dst: Vreg, src: impl Into<Operand>) -> Inst {
        Inst::Un {
            dst,
            op: UnOp::Copy,
            a: src.into(),
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Bin { dst, op, a, b } => write!(f, "{dst} = {op} {a}, {b}"),
            Inst::Un { dst, op, a } => write!(f, "{dst} = {op} {a}"),
            Inst::Cmp { dst, pred, a, b } => write!(f, "{dst} = cmp.{pred} {a}, {b}"),
            Inst::Sel {
                dst,
                cond,
                on_true,
                on_false,
            } => write!(f, "{dst} = sel {cond} ? {on_true} : {on_false}"),
            Inst::Fused { dst, op, a, b, c } => {
                if op.arity() == 3 {
                    write!(f, "{dst} = {op} {a}, {b}, {c}")
                } else {
                    write!(f, "{dst} = {op} {a}, {b}")
                }
            }
            Inst::Ld { dst, mem, ty } => write!(f, "{dst} = ld.{ty} {mem}"),
            Inst::St { mem, value, ty } => write!(f, "st.{ty} {mem} = {value}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ArrayId;

    fn v(n: u32) -> Vreg {
        Vreg(n)
    }

    fn uses(i: &Inst) -> Vec<Vreg> {
        let mut out = Vec::new();
        i.for_each_use(|u| out.push(u));
        out
    }

    #[test]
    fn def_and_uses() {
        let i = Inst::Bin {
            dst: v(2),
            op: BinOp::Add,
            a: Operand::Reg(v(0)),
            b: Operand::Imm(3),
        };
        assert_eq!(i.def(), Some(v(2)));
        assert_eq!(uses(&i), vec![v(0)]);

        let s = Inst::St {
            mem: MemRef::affine(ArrayId(0), 1, 0),
            value: Operand::Reg(v(5)),
            ty: Ty::U8,
        };
        assert_eq!(s.def(), None);
        assert_eq!(uses(&s), vec![v(5)]);
        assert!(s.is_store());
    }

    #[test]
    fn sel_uses_all_three() {
        let i = Inst::Sel {
            dst: v(3),
            cond: Operand::Reg(v(0)),
            on_true: Operand::Reg(v(1)),
            on_false: Operand::Reg(v(2)),
        };
        assert_eq!(uses(&i), vec![v(0), v(1), v(2)]);
    }

    #[test]
    fn map_operands_rewrites() {
        let mut i = Inst::Bin {
            dst: v(2),
            op: BinOp::Add,
            a: Operand::Reg(v(0)),
            b: Operand::Reg(v(1)),
        };
        i.map_operands(|o| match o {
            Operand::Reg(Vreg(n)) => Operand::Reg(Vreg(n + 10)),
            imm => imm,
        });
        assert_eq!(uses(&i), vec![v(10), v(11)]);
    }

    #[test]
    fn dynamic_index_counts_as_use() {
        let mem = MemRef {
            array: ArrayId(1),
            coeff: 3,
            offset: 1,
            dyn_index: Some(Operand::Reg(v(9))),
        };
        let l = Inst::Ld {
            dst: v(1),
            mem,
            ty: Ty::I16,
        };
        assert_eq!(uses(&l), vec![v(9)]);
        assert!(!mem.is_affine());
        assert_eq!(mem.element_index(4, 2), 3 * 4 + 1 + 2);
    }

    #[test]
    fn display_is_stable() {
        let i = Inst::Ld {
            dst: v(7),
            mem: MemRef::affine(ArrayId(2), 3, -1),
            ty: Ty::U8,
        };
        assert_eq!(i.to_string(), "v7 = ld.u8 a2[3*i-1]");
    }

    #[test]
    fn mov_constructor() {
        let m = Inst::mov(v(1), 42_i64);
        assert_eq!(m.to_string(), "v1 = mov #42");
        assert_eq!(m.def(), Some(v(1)));
    }
}
