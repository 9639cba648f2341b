//! Abstract syntax tree of the kernel DSL.
//!
//! The surface language is a tiny C-like kernel language. One file
//! declares one kernel; its body may contain at most one `loop` statement
//! (the surviving outer loop over output units), any number of
//! constant-bound `for` loops (fully unrolled at lowering), and `if`s
//! (if-converted to selects). See `crates/kernels/src/dsl/` for the real
//! benchmark sources.

use crate::token::Span;
use crate::vocab::{Binary, Named};
use cfp_ir::{MemSpace, Ty};

/// A parsed kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelAst {
    /// Kernel name.
    pub name: String,
    /// Parameter list.
    pub params: Vec<Param>,
    /// Top-level statements (setup plus the single `loop`).
    pub body: Vec<Stmt>,
    /// Location of the header.
    pub span: Span,
}

/// Array binding direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Read-only.
    In,
    /// Write-only.
    Out,
    /// Read-write.
    InOut,
}

/// One kernel parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum Param {
    /// An array parameter, e.g. `in l2 u8 src[]`.
    Array {
        /// Name.
        name: String,
        /// Direction.
        dir: Dir,
        /// Memory level (defaults to L2).
        space: MemSpace,
        /// Element type.
        ty: Ty,
        /// Location.
        span: Span,
    },
    /// A compile-time constant, e.g. `const factor` (value supplied when
    /// the kernel is compiled — the paper specializes kernels per
    /// configuration, as embedded codesign does).
    Const {
        /// Name.
        name: String,
        /// Location.
        span: Span,
    },
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `var x = e;` — declare a mutable i32 scalar.
    Var {
        /// Name.
        name: String,
        /// Initializer (defaults to 0).
        init: Option<Expr>,
        /// Location.
        span: Span,
    },
    /// `local l2 i16 buf[64];` — kernel-local scratch array.
    LocalArray {
        /// Name.
        name: String,
        /// Memory level.
        space: MemSpace,
        /// Element type.
        ty: Ty,
        /// Constant element count.
        len: Expr,
        /// Location.
        span: Span,
    },
    /// `x = e;`
    Assign {
        /// Scalar name.
        name: String,
        /// New value.
        value: Expr,
        /// Location.
        span: Span,
    },
    /// `arr[idx] = e;`
    Store {
        /// Array name.
        array: String,
        /// Element index.
        index: Expr,
        /// Value.
        value: Expr,
        /// Location.
        span: Span,
    },
    /// `for v in lo..hi { … }` — constant bounds, fully unrolled.
    For {
        /// Loop variable (a constant within each unrolled copy).
        var: String,
        /// Inclusive lower bound (constant expression).
        start: Expr,
        /// Exclusive upper bound (constant expression).
        end: Expr,
        /// Body.
        body: Vec<Stmt>,
        /// Location.
        span: Span,
    },
    /// `loop i { … }` or `loop i produces K { … }` — the outer loop.
    Loop {
        /// Iteration variable (usable only in affine index positions).
        var: String,
        /// Output units produced per iteration (defaults to 1).
        produces: Option<Expr>,
        /// Body.
        body: Vec<Stmt>,
        /// Location.
        span: Span,
    },
    /// `if c { … } else { … }` — if-converted; stores are not allowed
    /// inside.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_body: Vec<Stmt>,
        /// Else branch (may be empty).
        else_body: Vec<Stmt>,
        /// Location.
        span: Span,
    },
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64, Span),
    /// Scalar variable, const parameter, or loop variable.
    Var(String, Span),
    /// Array element read `arr[idx]`.
    Index {
        /// Array name.
        array: String,
        /// Element index.
        index: Box<Expr>,
        /// Location.
        span: Span,
    },
    /// Prefix operation.
    Unary {
        /// Operator.
        op: &'static Named,
        /// Operand.
        expr: Box<Expr>,
        /// Location.
        span: Span,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: &'static Binary,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Location.
        span: Span,
    },
    /// `c ? t : f`.
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value if non-zero.
        then_expr: Box<Expr>,
        /// Value if zero.
        else_expr: Box<Expr>,
        /// Location.
        span: Span,
    },
    /// Builtin call: `min`, `max`, `abs`, or a cast (`u8(x)`, `i16(x)`, …).
    Call {
        /// Builtin name.
        func: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Location.
        span: Span,
    },
}

impl Expr {
    /// The source location of this expression.
    #[must_use]
    pub fn span(&self) -> Span {
        match self {
            Expr::Int(_, s) | Expr::Var(_, s) => *s,
            Expr::Index { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Ternary { span, .. }
            | Expr::Call { span, .. } => *span,
        }
    }
}
