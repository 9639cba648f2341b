//! The kernel language's vocabulary, said once.
//!
//! Every keyword, punctuation mark, operator and builtin of the DSL is a
//! row here: its spelling, a binary operator's precedence, and its
//! [`Meaning`], the IR it lowers to. The lexer and `Tok`'s `Display`
//! read the spellings, the parser the precedences, lowering the
//! meanings. Constant folding is that same IR applied to immediates
//! (`BinOp::eval`, `Pred::eval`, `UnOp::eval`, and a select copies an
//! arm), and truthiness is `Pred::Ne.eval(v, 0)`, so a folded
//! expression stores what its unfolded form executes.

use crate::token::Tok;
use cfp_ir::{BinOp, Inst, Operand, Pred, UnOp, Vreg};
use Meaning::{Abs, Bin, Cmp, Logic, Pick, Un};

/// Keywords and punctuation marks.
pub(crate) static WORDS: [(Tok, &str); 31] = [
    (Tok::Kernel, "kernel"),
    (Tok::In, "in"),
    (Tok::Out, "out"),
    (Tok::Inout, "inout"),
    (Tok::Const, "const"),
    (Tok::Var, "var"),
    (Tok::Local, "local"),
    (Tok::Loop, "loop"),
    (Tok::For, "for"),
    (Tok::If, "if"),
    (Tok::Else, "else"),
    (Tok::Produces, "produces"),
    (Tok::L1, "l1"),
    (Tok::L2, "l2"),
    (Tok::U8, "u8"),
    (Tok::I8, "i8"),
    (Tok::U16, "u16"),
    (Tok::I16, "i16"),
    (Tok::I32, "i32"),
    (Tok::LParen, "("),
    (Tok::RParen, ")"),
    (Tok::LBrace, "{"),
    (Tok::RBrace, "}"),
    (Tok::LBracket, "["),
    (Tok::RBracket, "]"),
    (Tok::Comma, ","),
    (Tok::Semi, ";"),
    (Tok::Colon, ":"),
    (Tok::Question, "?"),
    (Tok::DotDot, ".."),
    (Tok::Assign, "="),
];

/// A binary operator.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Binary {
    pub(crate) spelling: &'static str,
    /// Higher binds tighter; the ranks are C's.
    pub(crate) prec: u8,
    pub(crate) meaning: Meaning,
}

const fn binary(spelling: &'static str, prec: u8, meaning: Meaning) -> Binary {
    Binary {
        spelling,
        prec,
        meaning,
    }
}

/// The binary operators (C semantics on 32-bit ints; `>>` is arithmetic,
/// `>>>` logical).
pub(crate) static BINARY: [Binary; 17] = [
    binary("||", 1, Logic(BinOp::Or)),
    binary("&&", 2, Logic(BinOp::And)),
    binary("|", 3, Bin(BinOp::Or)),
    binary("^", 4, Bin(BinOp::Xor)),
    binary("&", 5, Bin(BinOp::And)),
    binary("==", 6, Cmp(Pred::Eq)),
    binary("!=", 6, Cmp(Pred::Ne)),
    binary("<", 7, Cmp(Pred::Lt)),
    binary("<=", 7, Cmp(Pred::Le)),
    binary(">", 7, Cmp(Pred::Gt)),
    binary(">=", 7, Cmp(Pred::Ge)),
    binary("<<", 8, Bin(BinOp::Shl)),
    binary(">>", 8, Bin(BinOp::AShr)),
    binary(">>>", 8, Bin(BinOp::LShr)),
    binary("+", 9, Bin(BinOp::Add)),
    binary("-", 9, Bin(BinOp::Sub)),
    binary("*", 10, Bin(BinOp::Mul)),
];

/// A prefix operator or a builtin: a name and its meaning, whose second
/// operand, if it has one, is `#0`.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Named {
    pub(crate) name: &'static str,
    pub(crate) meaning: Meaning,
}

const fn named(name: &'static str, meaning: Meaning) -> Named {
    Named { name, meaning }
}

/// The prefix operators: `!e` is `e == 0`.
pub(crate) static UNARY: [Named; 3] = [
    named("-", Un(UnOp::Neg)),
    named("~", Un(UnOp::Not)),
    named("!", Cmp(Pred::Eq)),
];

/// The builtins: `min`, `max`, `abs` and the casts, which a type keyword
/// spells as a call (`u8(x)`).
pub(crate) static BUILTINS: [Named; 8] = [
    named("min", Pick(Pred::Lt)),
    named("max", Pick(Pred::Gt)),
    named("abs", Abs),
    named("u8", Un(UnOp::Zext8)),
    named("i8", Un(UnOp::Sext8)),
    named("u16", Un(UnOp::Zext16)),
    named("i16", Un(UnOp::Sext16)),
    named("i32", Un(UnOp::Copy)),
];

/// An operator token: its spelling, and the rows it is in binary and in
/// prefix position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Op {
    pub(crate) spelling: &'static str,
    pub(crate) binary: Option<&'static Binary>,
    pub(crate) unary: Option<&'static Named>,
}

/// Every operator spelling once, with its rows.
pub(crate) fn operators() -> impl Iterator<Item = Op> {
    let prefix = |s: &str| UNARY.iter().find(|r| r.name == s);
    let binary = BINARY.iter().map(move |r| Op {
        spelling: r.spelling,
        binary: Some(r),
        unary: prefix(r.spelling),
    });
    let prefix_only = UNARY
        .iter()
        .filter(|r| !BINARY.iter().any(|b| b.spelling == r.name));
    binary.chain(prefix_only.map(|r| Op {
        spelling: r.name,
        binary: None,
        unary: Some(r),
    }))
}

/// The builtin called `name`.
pub(crate) fn builtin(name: &str) -> Option<&'static Named> {
    BUILTINS.iter().find(|r| r.name == name)
}

/// Whether the register value `v` is true where a select or a logical
/// operator reads it.
pub(crate) fn truthy(v: i32) -> bool {
    Pred::Ne.eval(v, 0) != 0
}

/// What an operator or builtin computes: the IR it lowers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Meaning {
    /// `a op b`.
    Bin(BinOp),
    /// `a pred b`, 0 or 1.
    Cmp(Pred),
    /// `op a`; `Copy` emits nothing, a register already being 32 bits.
    Un(UnOp),
    /// `a pred b ? a : b` (`min`, `max`).
    Pick(Pred),
    /// `a < 0 ? -a : a`.
    Abs,
    /// `op` over both operands' truth (`a != 0`); `&&` and `||` do not
    /// short-circuit, the target being if-converted.
    Logic(BinOp),
}

/// Where [`Meaning::lower`] puts an operation that does not fold.
pub(crate) trait Ir {
    /// Emit `make(dst)` for a fresh register `dst`; return `dst`.
    fn def(&mut self, make: impl FnOnce(Vreg) -> Inst) -> Operand;
}

impl Meaning {
    /// How many operands it takes.
    pub(crate) fn arity(self) -> usize {
        match self {
            Un(_) | Abs => 1,
            Bin(_) | Cmp(_) | Pick(_) | Logic(_) => 2,
        }
    }

    /// The IR of `self` over `a` and `b` (`b` unread by a one-operand
    /// meaning), one operation at a time through `ir`; an operation whose
    /// operands are all constants folds to the constant it computes.
    pub(crate) fn lower(self, a: Operand, b: Operand, ir: &mut impl Ir) -> Operand {
        let zero = Operand::Imm(0);
        match self {
            Bin(op) => bin(ir, op, a, b),
            Cmp(pred) => cmp(ir, pred, a, b),
            Un(UnOp::Copy) if matches!(a, Operand::Reg(_)) => a,
            Un(op) => un(ir, op, a),
            Pick(pred) => {
                let c = cmp(ir, pred, a, b);
                sel(ir, c, a, b)
            }
            Abs => {
                let neg = un(ir, UnOp::Neg, a);
                let c = cmp(ir, Pred::Lt, a, zero);
                sel(ir, c, neg, a)
            }
            Logic(op) => {
                let a = cmp(ir, Pred::Ne, a, zero);
                let b = cmp(ir, Pred::Ne, b, zero);
                bin(ir, op, a, b)
            }
        }
    }

    /// `self` over affine forms `c0 + c1·i` of the loop variable `i`, the
    /// index arithmetic the scheduler's dependence test reads: `None` when
    /// `self` does not keep them affine.
    ///
    /// # Errors
    /// A message when the result would square `i` or overflow 64 bits.
    pub(crate) fn affine(
        self,
        (a0, a1): (i64, i64),
        (b0, b1): (i64, i64),
    ) -> Result<Option<(i64, i64)>, &'static str> {
        let form = match self {
            Bin(BinOp::Add) => a0.checked_add(b0).zip(a1.checked_add(b1)),
            Bin(BinOp::Sub) => a0.checked_sub(b0).zip(a1.checked_sub(b1)),
            Bin(BinOp::Mul) if a1 != 0 && b1 != 0 => {
                return Err("the loop variable may not be multiplied by itself")
            }
            Bin(BinOp::Mul) => {
                let (k, (c0, c1)) = if a1 == 0 {
                    (a0, (b0, b1))
                } else {
                    (b0, (a0, a1))
                };
                k.checked_mul(c0).zip(k.checked_mul(c1))
            }
            Bin(BinOp::Shl) if b1 == 0 && (0..31).contains(&b0) => {
                a0.checked_mul(1 << b0).zip(a1.checked_mul(1 << b0))
            }
            Un(UnOp::Neg) => a0.checked_neg().zip(a1.checked_neg()),
            Un(UnOp::Copy) => Some((a0, a1)),
            _ => return Ok(None),
        };
        form.map(Some).ok_or("index arithmetic overflows")
    }
}

fn bin(ir: &mut impl Ir, op: BinOp, a: Operand, b: Operand) -> Operand {
    match (a, b) {
        (Operand::Imm(x), Operand::Imm(y)) => Operand::Imm(op.eval(x, y)),
        _ => ir.def(|dst| Inst::Bin { dst, op, a, b }),
    }
}

fn un(ir: &mut impl Ir, op: UnOp, a: Operand) -> Operand {
    match a {
        Operand::Imm(x) => Operand::Imm(op.eval(x)),
        _ => ir.def(|dst| Inst::Un { dst, op, a }),
    }
}

fn cmp(ir: &mut impl Ir, pred: Pred, a: Operand, b: Operand) -> Operand {
    match (a, b) {
        (Operand::Imm(x), Operand::Imm(y)) => Operand::Imm(pred.eval(x, y)),
        _ => ir.def(|dst| Inst::Cmp { dst, pred, a, b }),
    }
}

/// A select; with a constant condition, the arm it copies.
fn sel(ir: &mut impl Ir, cond: Operand, on_true: Operand, on_false: Operand) -> Operand {
    match cond {
        Operand::Imm(c) => {
            if truthy(c) {
                on_true
            } else {
                on_false
            }
        }
        _ => ir.def(|dst| Inst::Sel {
            dst,
            cond,
            on_true,
            on_false,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_kernel;
    use cfp_ir::{Interpreter, MemImage};

    /// Around zero, both ends of the 32-bit range and past them.
    const CONSTS: [i64; 8] = [
        0,
        1,
        -1,
        0x7fff_ffff,
        0x8000_0000,
        0xffff_ffff,
        0x1_0000_0000,
        -0x8000_0001,
    ];

    /// One statement storing `d[k]` per case: every row of the tables on
    /// every operand (pair) of `CONSTS`, then `?:` and `if` on every
    /// condition. `operand(j)` spells `CONSTS[j]`.
    fn statements(operand: &dyn Fn(usize) -> String) -> Vec<String> {
        let n = CONSTS.len();
        let pairs = || (0..n).flat_map(move |a| (0..n).map(move |b| (a, b)));
        let mut exprs = Vec::new();
        for row in &BINARY {
            for (a, b) in pairs() {
                exprs.push(format!("{} {} {}", operand(a), row.spelling, operand(b)));
            }
        }
        for row in &UNARY {
            exprs.extend((0..n).map(|a| format!("{}{}", row.name, operand(a))));
        }
        for row in &BUILTINS {
            for (a, b) in pairs() {
                match row.meaning.arity() {
                    1 if b == 0 => exprs.push(format!("{}({})", row.name, operand(a))),
                    2 => exprs.push(format!("{}({}, {})", row.name, operand(a), operand(b))),
                    _ => {}
                }
            }
        }
        for c in 0..n {
            for (a, b) in pairs() {
                exprs.push(format!("{} ? {} : {}", operand(c), operand(a), operand(b)));
            }
        }
        let mut stmts: Vec<String> = (exprs.iter().enumerate())
            .map(|(k, e)| format!("d[{k}] = {e};"))
            .collect();
        for c in 0..n {
            let k = stmts.len();
            stmts.push(format!(
                "var x{k} = 9; if {} {{ x{k} = 7; }} d[{k}] = x{k};",
                operand(c)
            ));
        }
        stmts
    }

    /// What one iteration of the kernel made of `stmts` stores, with
    /// `CONSTS` in the `in i32` array `s`.
    fn stored(stmts: &[String], folded: bool) -> Vec<i64> {
        let src = format!(
            "kernel f(in i32 s[], out i32 d[]) {{ loop i {{ {} }} }}",
            stmts.join(" ")
        );
        let k = compile_kernel(&src, &[]).unwrap_or_else(|e| panic!("{}", e.render(&src)));
        if folded {
            assert!(
                (k.body.iter()).all(|i| matches!(
                    i,
                    Inst::St {
                        value: Operand::Imm(_),
                        ..
                    }
                )),
                "constant operands fold to stores of immediates"
            );
        }
        let mut mem = MemImage::for_kernel(&k);
        mem.bind(0, CONSTS.to_vec());
        mem.bind(1, vec![0; stmts.len()]);
        Interpreter::new().run(&k, &mut mem, 1).expect("runs");
        mem.array(1).to_vec()
    }

    /// Folding is the IR applied to constants: `d[k] = E(consts)`, which
    /// the frontend folds, stores what `d[k] = E(s[j]…)` stores when it
    /// reads the same constants from memory and executes.
    #[test]
    fn folded_expressions_store_what_their_unfolded_forms_execute() {
        let literal = statements(&|j| format!("({})", CONSTS[j]));
        let loaded = statements(&|j| format!("s[{j}]"));
        let (folded, executed) = (stored(&literal, true), stored(&loaded, false));
        for (k, stmt) in literal.iter().enumerate() {
            assert_eq!(folded[k], executed[k], "{stmt}");
        }
    }

    #[test]
    fn every_spelling_is_one_token_and_displays_as_itself() {
        for (tok, s) in &WORDS {
            assert_eq!(tok.to_string(), format!("`{s}`"));
        }
        let ops = operators().map(|op| op.spelling);
        let spellings: Vec<&str> = WORDS.iter().map(|&(_, s)| s).chain(ops).collect();
        for s in spellings {
            let toks = crate::lexer::lex(s).expect("lexes");
            assert_eq!(toks.len(), 2, "`{s}` is one token");
            assert_eq!(toks[0].tok.spelling(), Some(s));
        }
    }
}
