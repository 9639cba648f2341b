//! Operation kinds and their evaluation semantics.
//!
//! Following the paper's RISC/VLIW philosophy the base repertoire is small
//! and simple: integer add/sub/logicals/shifts at 1 cycle, integer multiply
//! at 2 cycles (pipelined), compares producing 0/1, and a select. The base
//! ISA has no fused or "smart" operations (no min/max, no MAC): the paper
//! matches *structures and sizes* to the application, not opcodes.
//!
//! [`FUSED_OPS`] is the deliberate exception: the operation table of
//! *mined* fused operations (multiply-add, min/max clip, add-shift) that
//! the custom-instruction axis can enable per design point. A row holds
//! a mnemonic, the index of the `cfp-machine` extension that provides
//! it, and an expression tree ([`Expr`]) over base operations and
//! numbered operand slots. A [`FusedOp`] is a row index, and every layer
//! reads the row: evaluation composes the tree, so the base ISA pins the
//! semantics and the golden-reference interpreter stays the single
//! source of truth; arity and the multiplier requirement are derived
//! from the tree; `cfp-opt`'s fuse pass matches it; the scheduler issues
//! the op under op class `5 + ext` and the encoder gives it opcode
//! `31 + row`.

use std::fmt;

/// Two-operand ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// 32-bit wrapping add.
    Add,
    /// 32-bit wrapping subtract.
    Sub,
    /// 32-bit wrapping multiply (2-cycle pipelined; needs an IMUL unit).
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left (amount masked to 5 bits).
    Shl,
    /// Arithmetic shift right (amount masked to 5 bits).
    AShr,
    /// Logical shift right (amount masked to 5 bits).
    LShr,
}

impl BinOp {
    /// Evaluate with 32-bit register semantics.
    #[must_use]
    pub fn eval(self, a: i32, b: i32) -> i32 {
        // `wrapping_sh*` masks the amount to its low five bits.
        let sh = b as u32;
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl(sh),
            BinOp::AShr => a.wrapping_shr(sh),
            BinOp::LShr => (a as u32).wrapping_shr(sh) as i32,
        }
    }

    /// Whether this operation requires an IMUL-capable ALU.
    #[must_use]
    pub fn needs_mul_unit(self) -> bool {
        matches!(self, BinOp::Mul)
    }

    /// Whether `op(a, b) == op(b, a)` for all inputs.
    #[must_use]
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
        )
    }

    /// The mnemonic used by the pretty-printer.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::AShr => "ashr",
            BinOp::LShr => "lshr",
        }
    }

    /// All binary operations, for exhaustive property tests.
    #[must_use]
    pub fn all() -> &'static [BinOp] {
        &[
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::AShr,
            BinOp::LShr,
        ]
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One-operand operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Register-to-register copy (also the op used for immediates and the
    /// scheduler's inter-cluster moves).
    Copy,
    /// Two's-complement negate.
    Neg,
    /// Bitwise not.
    Not,
    /// Sign-extend the low 8 bits.
    Sext8,
    /// Sign-extend the low 16 bits.
    Sext16,
    /// Zero-extend the low 8 bits.
    Zext8,
    /// Zero-extend the low 16 bits.
    Zext16,
}

impl UnOp {
    /// Evaluate with 32-bit register semantics.
    #[must_use]
    pub fn eval(self, a: i32) -> i32 {
        match self {
            UnOp::Copy => a,
            UnOp::Neg => a.wrapping_neg(),
            UnOp::Not => !a,
            UnOp::Sext8 => i32::from(a as i8),
            UnOp::Sext16 => i32::from(a as i16),
            UnOp::Zext8 => a & 0xff,
            UnOp::Zext16 => a & 0xffff,
        }
    }

    /// The mnemonic used by the pretty-printer.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Copy => "mov",
            UnOp::Neg => "neg",
            UnOp::Not => "not",
            UnOp::Sext8 => "sxtb",
            UnOp::Sext16 => "sxth",
            UnOp::Zext8 => "uxtb",
            UnOp::Zext16 => "uxth",
        }
    }

    /// All unary operations, for exhaustive property tests.
    #[must_use]
    pub fn all() -> &'static [UnOp] {
        &[
            UnOp::Copy,
            UnOp::Neg,
            UnOp::Not,
            UnOp::Sext8,
            UnOp::Sext16,
            UnOp::Zext8,
            UnOp::Zext16,
        ]
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Comparison predicates (signed). Compares produce 0 or 1 in a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl Pred {
    /// Evaluate to 1 (true) or 0 (false).
    #[must_use]
    pub fn eval(self, a: i32, b: i32) -> i32 {
        let t = match self {
            Pred::Eq => a == b,
            Pred::Ne => a != b,
            Pred::Lt => a < b,
            Pred::Le => a <= b,
            Pred::Gt => a > b,
            Pred::Ge => a >= b,
        };
        i32::from(t)
    }

    /// The predicate with operands swapped: `a P b == b P.swap() a`.
    #[must_use]
    pub fn swapped(self) -> Pred {
        match self {
            Pred::Eq => Pred::Eq,
            Pred::Ne => Pred::Ne,
            Pred::Lt => Pred::Gt,
            Pred::Le => Pred::Ge,
            Pred::Gt => Pred::Lt,
            Pred::Ge => Pred::Le,
        }
    }

    /// The logical negation: `!(a P b) == a P.negated() b`.
    #[must_use]
    pub fn negated(self) -> Pred {
        match self {
            Pred::Eq => Pred::Ne,
            Pred::Ne => Pred::Eq,
            Pred::Lt => Pred::Ge,
            Pred::Le => Pred::Gt,
            Pred::Gt => Pred::Le,
            Pred::Ge => Pred::Lt,
        }
    }

    /// The mnemonic used by the pretty-printer.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            Pred::Eq => "eq",
            Pred::Ne => "ne",
            Pred::Lt => "lt",
            Pred::Le => "le",
            Pred::Gt => "gt",
            Pred::Ge => "ge",
        }
    }

    /// All predicates, for exhaustive property tests.
    #[must_use]
    pub fn all() -> &'static [Pred] {
        &[Pred::Eq, Pred::Ne, Pred::Lt, Pred::Le, Pred::Gt, Pred::Ge]
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A node of a fused operation's expression tree: base operations over
/// numbered operand slots. The tree is both the operation's semantics
/// ([`FusedOp::eval`]) and the pattern `cfp-opt`'s fuse pass matches; a
/// select's condition is a compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expr {
    /// Operand slot `k` of the fused instruction (`a`, `b`, `c`).
    Slot(u8),
    /// A base ALU operation.
    Bin(BinOp, &'static Expr, &'static Expr),
    /// A compare producing 0 or 1.
    Cmp(Pred, &'static Expr, &'static Expr),
    /// `cond != 0 ? on_true : on_false`.
    Sel(&'static Expr, &'static Expr, &'static Expr),
}

impl Expr {
    /// Evaluate over the slot values, composing the base operations'
    /// `eval` exactly.
    #[must_use]
    pub fn eval(&self, slots: &[i32; 3]) -> i32 {
        match *self {
            Expr::Slot(k) => slots[usize::from(k)],
            Expr::Bin(op, a, b) => op.eval(a.eval(slots), b.eval(slots)),
            Expr::Cmp(pred, a, b) => pred.eval(a.eval(slots), b.eval(slots)),
            Expr::Sel(c, t, f) => if c.eval(slots) != 0 { t } else { f }.eval(slots),
        }
    }

    /// Whether `hit` holds for this node or any node below it.
    fn any(&self, hit: &impl Fn(&Expr) -> bool) -> bool {
        hit(self)
            || match *self {
                Expr::Slot(_) => false,
                Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => a.any(hit) || b.any(hit),
                Expr::Sel(c, t, f) => c.any(hit) || t.any(hit) || f.any(hit),
            }
    }
}

/// One row of the fused-operation table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedRow {
    /// The mnemonic the pretty-printer uses.
    pub mnemonic: &'static str,
    /// The row of `cfp-machine`'s extension table that provides this
    /// operation; bit `ext` of an extension set enables it.
    pub ext: u8,
    /// What the operation computes.
    pub tree: Expr,
}

const A: &Expr = &Expr::Slot(0);
const B: &Expr = &Expr::Slot(1);
const C: &Expr = &Expr::Slot(2);

/// The fused-operation table: the mined operations the custom-
/// instruction axis can enable, each the exact composition of two base
/// operations — no extra rounding, saturation or width change — so a
/// fused rewrite is bit-identical to the unfused pair under the
/// reference interpreter.
#[rustfmt::skip]
pub const FUSED_OPS: [FusedRow; 4] = [
    // `a * b + c`: the multiplier's accumulate stage.
    FusedRow { mnemonic: "madd", ext: 0, tree: Expr::Bin(BinOp::Add, &Expr::Bin(BinOp::Mul, A, B), C) },
    // `a < b ? a : b` and `a > b ? a : b`: a compare-select mux.
    FusedRow { mnemonic: "min", ext: 1, tree: Expr::Sel(&Expr::Cmp(Pred::Lt, A, B), A, B) },
    FusedRow { mnemonic: "max", ext: 1, tree: Expr::Sel(&Expr::Cmp(Pred::Gt, A, B), A, B) },
    // `(a + b) >> c`, arithmetic: the fixed-point scale-and-round idiom.
    FusedRow { mnemonic: "addshr", ext: 2, tree: Expr::Bin(BinOp::AShr, &Expr::Bin(BinOp::Add, A, B), C) },
];

/// A mined fused operation: a row index into [`FUSED_OPS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FusedOp(pub u8);

impl FusedOp {
    /// Every fused operation, in table order.
    pub fn all() -> impl Iterator<Item = FusedOp> {
        (0..FUSED_OPS.len() as u8).map(FusedOp)
    }

    /// The operation's table row.
    #[must_use]
    pub fn row(self) -> &'static FusedRow {
        &FUSED_OPS[usize::from(self.0)]
    }

    /// Evaluate with 32-bit register semantics.
    #[must_use]
    pub fn eval(self, a: i32, b: i32, c: i32) -> i32 {
        self.row().tree.eval(&[a, b, c])
    }

    /// Number of operands actually read (2 or 3): the third only when
    /// the tree reads slot 2.
    #[must_use]
    pub fn arity(self) -> usize {
        2 + usize::from(self.row().tree.any(&|e| *e == Expr::Slot(2)))
    }

    /// Whether this operation requires an IMUL-capable ALU.
    #[must_use]
    pub fn needs_mul_unit(self) -> bool {
        self.row()
            .tree
            .any(&|e| matches!(e, Expr::Bin(BinOp::Mul, ..)))
    }
}

impl fmt::Display for FusedOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.row().mnemonic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The semantics the operations had when registers and immediates
    /// were `i64` and every result was re-wrapped to 32 bits: the
    /// reference the `i32` operations are held to.
    mod wide {
        use super::*;

        pub(super) fn wrap32(x: i64) -> i64 {
            x as i32 as i64
        }

        pub(super) fn bin(op: BinOp, a: i64, b: i64) -> i64 {
            let sh = (b & 31) as u32;
            match op {
                BinOp::Add => wrap32(a.wrapping_add(b)),
                BinOp::Sub => wrap32(a.wrapping_sub(b)),
                BinOp::Mul => wrap32(a.wrapping_mul(b)),
                BinOp::And => wrap32(a & b),
                BinOp::Or => wrap32(a | b),
                BinOp::Xor => wrap32(a ^ b),
                BinOp::Shl => wrap32((a as i32).wrapping_shl(sh) as i64),
                BinOp::AShr => i64::from((a as i32) >> sh),
                BinOp::LShr => i64::from((a as i32 as u32) >> sh),
            }
        }

        pub(super) fn un(op: UnOp, a: i64) -> i64 {
            match op {
                UnOp::Copy => wrap32(a),
                UnOp::Neg => wrap32(a.wrapping_neg()),
                UnOp::Not => wrap32(!a),
                UnOp::Sext8 => a as i8 as i64,
                UnOp::Sext16 => a as i16 as i64,
                UnOp::Zext8 => a & 0xff,
                UnOp::Zext16 => a & 0xffff,
            }
        }

        pub(super) fn pred(p: Pred, a: i64, b: i64) -> i64 {
            let (a, b) = (wrap32(a), wrap32(b));
            let t = match p {
                Pred::Eq => a == b,
                Pred::Ne => a != b,
                Pred::Lt => a < b,
                Pred::Le => a <= b,
                Pred::Gt => a > b,
                Pred::Ge => a >= b,
            };
            i64::from(t)
        }

        pub(super) fn expr(e: &Expr, slots: &[i64; 3]) -> i64 {
            match *e {
                Expr::Slot(k) => slots[usize::from(k)],
                Expr::Bin(op, a, b) => bin(op, expr(a, slots), expr(b, slots)),
                Expr::Cmp(p, a, b) => pred(p, expr(a, slots), expr(b, slots)),
                Expr::Sel(c, t, f) => wrap32(expr(if expr(c, slots) != 0 { t } else { f }, slots)),
            }
        }
    }

    /// Around zero, both ends of the 32-bit range and past them.
    const EDGES: [i64; 8] = [
        0,
        1,
        -1,
        0x7fff_ffff,
        0x8000_0000,
        0xffff_ffff,
        0x1_0000_0000,
        -0x8000_0001,
    ];

    /// An edge value as a register holds it.
    fn reg(v: i64) -> i32 {
        crate::Operand::from(v).imm().expect("an immediate")
    }

    /// Every operation on registers computes what the wide reference
    /// computes on the same values before they were narrowed, so the
    /// narrowing can happen once, where an integer becomes an operand.
    /// (The reference's `lshr` by a multiple of 32 left a negative value
    /// as its unsigned 64-bit reading, which every reader re-wrapped: it
    /// is compared as a register reads it.)
    #[test]
    fn register_ops_are_the_wide_semantics() {
        for &a in &EDGES {
            for &b in &EDGES {
                for &op in BinOp::all() {
                    let got = op.eval(reg(a), reg(b));
                    let want = wide::wrap32(wide::bin(op, a, b));
                    assert_eq!(i64::from(got), want, "{op} {a} {b}");
                }
                for &p in Pred::all() {
                    let got = p.eval(reg(a), reg(b));
                    assert_eq!(i64::from(got), wide::pred(p, a, b), "{p} {a} {b}");
                }
            }
            for &op in UnOp::all() {
                assert_eq!(i64::from(op.eval(reg(a))), wide::un(op, a), "{op} {a}");
            }
        }
    }

    #[test]
    fn fused_rows_are_the_wide_semantics() {
        for op in FusedOp::all() {
            for &a in &EDGES {
                for &b in &EDGES {
                    for &c in &EDGES {
                        let got = op.eval(reg(a), reg(b), reg(c));
                        let want = wide::expr(&op.row().tree, &[a, b, c]);
                        assert_eq!(i64::from(got), want, "{op} {a} {b} {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn add_wraps() {
        assert_eq!(BinOp::Add.eval(i32::MAX, 1), i32::MIN);
        assert_eq!(BinOp::Add.eval(2, 3), 5);
    }

    #[test]
    fn shifts_mask_amount() {
        assert_eq!(BinOp::Shl.eval(1, 33), 2);
        assert_eq!(BinOp::AShr.eval(-8, 1), -4);
        assert_eq!(BinOp::LShr.eval(-8, 1), i32::MAX - 3);
        assert_eq!(BinOp::LShr.eval(-1, 24), 0xff);
    }

    #[test]
    fn mul_wraps() {
        assert_eq!(BinOp::Mul.eval(1 << 16, 1 << 16), 0);
        assert_eq!(BinOp::Mul.eval(-3, 7), -21);
    }

    #[test]
    fn commutativity_claims_hold() {
        for &op in BinOp::all() {
            if op.is_commutative() {
                for a in [-7, 0, 3, 1 << 30] {
                    for b in [-1, 2, 255] {
                        assert_eq!(op.eval(a, b), op.eval(b, a), "{op}");
                    }
                }
            }
        }
    }

    #[test]
    fn pred_swap_and_negate() {
        for &p in Pred::all() {
            for a in [-2, 0, 5] {
                for b in [-2, 0, 5] {
                    assert_eq!(p.eval(a, b), p.swapped().eval(b, a), "{p} swap");
                    assert_eq!(p.eval(a, b), 1 - p.negated().eval(a, b), "{p} neg");
                }
            }
        }
    }

    #[test]
    fn unops() {
        assert_eq!(UnOp::Neg.eval(5), -5);
        assert_eq!(UnOp::Not.eval(0), -1);
        assert_eq!(UnOp::Sext8.eval(0x80), -128);
        assert_eq!(UnOp::Zext8.eval(-1), 0xff);
        assert_eq!(UnOp::Sext16.eval(0x8000), -0x8000);
        assert_eq!(UnOp::Zext16.eval(-1), 0xffff);
        assert_eq!(UnOp::Copy.eval(42), 42);
    }

    #[test]
    fn only_mul_needs_mul_unit() {
        for &op in BinOp::all() {
            assert_eq!(op.needs_mul_unit(), op == BinOp::Mul);
        }
    }

    /// The table row with mnemonic `name`.
    fn op(name: &str) -> FusedOp {
        FusedOp::all().find(|op| op.row().mnemonic == name).unwrap()
    }

    #[test]
    fn fused_ops_compose_base_ops_exactly() {
        let samples = [i32::MIN, -7, -1, 0, 1, 3, 255, i32::MAX];
        for &a in &samples {
            for &b in &samples {
                for &c in &[-4, 0, 1, 8, 31] {
                    assert_eq!(
                        op("madd").eval(a, b, c),
                        BinOp::Add.eval(BinOp::Mul.eval(a, b), c),
                    );
                    assert_eq!(
                        op("addshr").eval(a, b, c),
                        BinOp::AShr.eval(BinOp::Add.eval(a, b), c),
                    );
                    let min = if Pred::Lt.eval(a, b) != 0 { a } else { b };
                    let max = if Pred::Gt.eval(a, b) != 0 { a } else { b };
                    assert_eq!(op("min").eval(a, b, c), min);
                    assert_eq!(op("max").eval(a, b, c), max);
                }
            }
        }
    }

    #[test]
    fn fused_arity_and_units() {
        assert_eq!(FusedOp::all().count(), FUSED_OPS.len());
        for op in FusedOp::all() {
            assert!(op.arity() == 2 || op.arity() == 3);
            assert_eq!(op.needs_mul_unit(), op == self::op("madd"));
        }
        assert_eq!(op("min").arity(), 2);
        assert_eq!(op("madd").arity(), 3);
    }
}
