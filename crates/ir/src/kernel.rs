//! The compilation unit: a single loop kernel.

use crate::inst::{Inst, Vreg};
use crate::types::{MemSpace, Ty};
use std::fmt;

/// Identifies a declared array within one [`Kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

impl ArrayId {
    /// Index into dense per-array tables.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// How an array is bound at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayKind {
    /// Read-only input provided by the caller.
    In,
    /// Write-only output provided by the caller.
    Out,
    /// Read-write buffer provided by the caller (e.g. the Floyd–Steinberg
    /// error line).
    InOut,
    /// Kernel-local scratch of a fixed element count.
    Local(u32),
}

impl ArrayKind {
    /// Whether the kernel may read from the array.
    #[must_use]
    pub fn readable(self) -> bool {
        !matches!(self, ArrayKind::Out)
    }

    /// Whether the kernel may write to the array.
    #[must_use]
    pub fn writable(self) -> bool {
        !matches!(self, ArrayKind::In)
    }
}

/// A declared array: name, element type, memory space, binding kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDecl {
    /// Source-level name (diagnostics and pretty-printing only).
    pub name: String,
    /// Element type.
    pub ty: Ty,
    /// Which memory level holds it.
    pub space: MemSpace,
    /// Binding kind.
    pub kind: ArrayKind,
}

/// Initial value of a loop-carried scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CarriedInit {
    /// A compile-time constant.
    Const(i32),
    /// The value computed by the preamble into this register.
    Preamble(Vreg),
}

/// One loop-carried scalar: the body reads `input`, and the value written
/// to `output` in iteration *i* becomes `input` in iteration *i + 1*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Carried {
    /// Register the body reads (the carried-in value).
    pub input: Vreg,
    /// Register whose end-of-iteration value is carried forward. May equal
    /// `input` when an iteration leaves the value unchanged.
    pub output: Vreg,
    /// Value of `input` on the first iteration.
    pub init: CarriedInit,
}

/// A compiled loop kernel: the unit the scheduler and the design-space
/// exploration operate on.
///
/// Semantics: run `preamble` once, then for each iteration `i` in
/// `0..n` run `body` with carried inputs bound (from `init` on the first
/// iteration, from the previous iteration's outputs afterwards). All
/// control flow has been if-converted; all constant-bound inner loops have
/// been fully unrolled. One iteration of `body` produces one output unit
/// (a pixel, a pixel triple, or an 8×8 block, depending on the kernel).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Kernel {
    /// Kernel name (from the DSL source).
    pub name: String,
    /// Declared arrays, indexed by [`ArrayId`].
    pub arrays: Vec<ArrayDecl>,
    /// Run-once setup code (hoisted loop-invariant loads and constants).
    /// Values defined here stay live across the whole loop.
    pub preamble: Vec<Inst>,
    /// One iteration of the loop body.
    pub body: Vec<Inst>,
    /// Loop-carried scalars.
    pub carried: Vec<Carried>,
    /// How many *source-level* output units one body iteration produces.
    /// 1 before unrolling; multiplied by the unroll factor afterwards.
    pub outputs_per_iter: u32,
}

impl Kernel {
    /// Create an empty kernel with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Kernel {
            name: name.into(),
            outputs_per_iter: 1,
            ..Kernel::default()
        }
    }

    /// Look up an array declaration.
    ///
    /// # Panics
    /// Panics if `id` was not declared in this kernel.
    #[must_use]
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.index()]
    }

    /// Number of virtual registers used (1 + highest index), considering
    /// preamble, body, and carried declarations. Every dense per-vreg
    /// table in the toolchain is sized by this.
    #[must_use]
    pub fn vreg_count(&self) -> u32 {
        let mut max = 0_u32;
        let mut see = |v: Vreg| max = max.max(v.0 + 1);
        for i in self.preamble.iter().chain(&self.body) {
            if let Some(d) = i.def() {
                see(d);
            }
            i.for_each_use(&mut see);
        }
        for c in &self.carried {
            see(c.input);
            see(c.output);
            if let CarriedInit::Preamble(v) = c.init {
                see(v);
            }
        }
        max
    }

    /// Registers that are live-in to the body: carried inputs plus every
    /// preamble-defined register the body (or the carried inits) uses.
    #[must_use]
    pub fn body_live_ins(&self) -> Vec<Vreg> {
        // One table: a register is skipped once it is listed, and from
        // the start when the body defines it.
        let mut skip = vec![false; self.vreg_count() as usize];
        let mut out = Vec::new();
        for c in &self.carried {
            if !std::mem::replace(&mut skip[c.input.index()], true) {
                out.push(c.input);
            }
        }
        for d in self.body.iter().filter_map(Inst::def) {
            skip[d.index()] = true;
        }
        for i in &self.body {
            i.for_each_use(|u| {
                if !std::mem::replace(&mut skip[u.index()], true) {
                    out.push(u);
                }
            });
        }
        out
    }

    /// Count of body instructions that need an IMUL unit.
    #[must_use]
    pub fn mul_count(&self) -> usize {
        self.body.iter().filter(|i| i.needs_mul_unit()).count()
    }

    /// Count of body memory accesses per memory space `(l1, l2)`.
    #[must_use]
    pub fn mem_counts(&self) -> (usize, usize) {
        let mut l1 = 0;
        let mut l2 = 0;
        for i in &self.body {
            if let Some(m) = i.mem() {
                match self.array(m.array).space {
                    MemSpace::L1 => l1 += 1,
                    MemSpace::L2 => l2 += 1,
                }
            }
        }
        (l1, l2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{MemRef, Operand};
    use crate::op::BinOp;

    fn sample() -> Kernel {
        let mut k = Kernel::new("t");
        k.arrays.push(ArrayDecl {
            name: "src".into(),
            ty: Ty::U8,
            space: MemSpace::L2,
            kind: ArrayKind::In,
        });
        k.preamble.push(Inst::mov(Vreg(0), 7_i64));
        k.body.push(Inst::Ld {
            dst: Vreg(1),
            mem: MemRef::affine(ArrayId(0), 1, 0),
            ty: Ty::U8,
        });
        k.body.push(Inst::Bin {
            dst: Vreg(2),
            op: BinOp::Mul,
            a: Operand::Reg(Vreg(1)),
            b: Operand::Reg(Vreg(0)),
        });
        k.body.push(Inst::Bin {
            dst: Vreg(3),
            op: BinOp::Add,
            a: Operand::Reg(Vreg(2)),
            b: Operand::Reg(Vreg(4)),
        });
        k.carried.push(Carried {
            input: Vreg(4),
            output: Vreg(3),
            init: CarriedInit::Const(0),
        });
        k
    }

    #[test]
    fn vreg_count_spans_everything() {
        assert_eq!(sample().vreg_count(), 5);
    }

    #[test]
    fn live_ins_are_carried_plus_preamble_values() {
        let li = sample().body_live_ins();
        assert!(li.contains(&Vreg(4)), "carried input");
        assert!(li.contains(&Vreg(0)), "preamble constant");
        assert!(!li.contains(&Vreg(1)), "body-defined");
        assert_eq!(li.len(), 2);
    }

    #[test]
    fn counts() {
        let k = sample();
        assert_eq!(k.mul_count(), 1);
        assert_eq!(k.mem_counts(), (0, 1));
    }

    #[test]
    fn array_kind_permissions() {
        assert!(ArrayKind::In.readable() && !ArrayKind::In.writable());
        assert!(!ArrayKind::Out.readable() && ArrayKind::Out.writable());
        assert!(ArrayKind::InOut.readable() && ArrayKind::InOut.writable());
        assert!(ArrayKind::Local(8).readable() && ArrayKind::Local(8).writable());
    }
}
