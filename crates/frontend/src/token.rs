//! Tokens and source spans.

use crate::vocab::{Op, WORDS};
use std::fmt;

/// A byte range in the source text, for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// Construct a span.
    #[must_use]
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// The smallest span covering both.
    #[must_use]
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// 1-based (line, column) of the span start within `src`.
    #[must_use]
    pub fn line_col(&self, src: &str) -> (usize, usize) {
        let mut line = 1;
        let mut col = 1;
        for (i, ch) in src.char_indices() {
            if i >= self.start {
                break;
            }
            if ch == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        (line, col)
    }
}

/// Lexical token kinds of the kernel DSL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier.
    Ident(String),
    /// Integer literal (decimal or `0x` hexadecimal).
    Int(i64),

    // Keywords.
    /// `kernel`
    Kernel,
    /// `in`
    In,
    /// `out`
    Out,
    /// `inout`
    Inout,
    /// `const`
    Const,
    /// `var`
    Var,
    /// `local`
    Local,
    /// `loop`
    Loop,
    /// `for`
    For,
    /// `if`
    If,
    /// `else`
    Else,
    /// `produces`
    Produces,
    /// `l1`
    L1,
    /// `l2`
    L2,
    /// `u8`
    U8,
    /// `i8`
    I8,
    /// `u16`
    U16,
    /// `i16`
    I16,
    /// `i32`
    I32,

    // Punctuation.
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `?`
    Question,
    /// `..`
    DotDot,
    /// `=`
    Assign,

    /// An operator, with its rows in [`crate::vocab`]'s tables.
    Op(Op),

    /// End of input.
    Eof,
}

impl Tok {
    /// The fixed spelling of a keyword, punctuation mark or operator.
    pub(crate) fn spelling(&self) -> Option<&'static str> {
        match self {
            Tok::Op(op) => Some(op.spelling),
            _ => WORDS.iter().find(|(t, _)| t == self).map(|&(_, s)| s),
        }
    }
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Int(v) => write!(f, "integer `{v}`"),
            Tok::Eof => f.write_str("end of input"),
            fixed => write!(f, "`{}`", fixed.spelling().unwrap_or("?")),
        }
    }
}

/// A token with its source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Kind and payload.
    pub tok: Tok,
    /// Where it came from.
    pub span: Span,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_merge_and_line_col() {
        let a = Span::new(2, 5);
        let b = Span::new(8, 9);
        assert_eq!(a.to(b), Span::new(2, 9));
        let src = "ab\ncd\nef";
        assert_eq!(Span::new(0, 1).line_col(src), (1, 1));
        assert_eq!(Span::new(3, 4).line_col(src), (2, 1));
        assert_eq!(Span::new(7, 8).line_col(src), (3, 2));
    }
}
