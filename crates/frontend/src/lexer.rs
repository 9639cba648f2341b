//! Hand-written lexer for the kernel DSL.

use crate::diag::CompileError;
use crate::token::{Span, Tok, Token};
use crate::vocab::{operators, WORDS};
use std::sync::OnceLock;

/// Tokenize `src` fully.
///
/// # Errors
/// Returns [`CompileError`] on an unrecognized character or malformed
/// integer literal.
pub fn lex(src: &str) -> Result<Vec<Token>, CompileError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                let open = i;
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(CompileError::new(
                            "unterminated block comment",
                            Span::new(open, open + 2),
                        ));
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            '0'..='9' => {
                let (tok, next) = lex_number(src, i)?;
                out.push(Token {
                    tok,
                    span: Span::new(start, next),
                });
                i = next;
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let mut j = i + 1;
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
                let word = &src[i..j];
                let tok = spellings(bytes[i])
                    .iter()
                    .find(|(s, _)| s.len() == word.len() && s.bytes().eq(word.bytes()))
                    .map_or_else(|| Tok::Ident(word.to_owned()), |(_, t)| t.clone());
                out.push(Token {
                    tok,
                    span: Span::new(i, j),
                });
                i = j;
            }
            _ => {
                let (tok, len) = symbol(&bytes[i..]).ok_or_else(|| {
                    CompileError::new(format!("unrecognized character `{c}`"), Span::new(i, i + 1))
                })?;
                out.push(Token {
                    tok,
                    span: Span::new(i, i + len),
                });
                i += len;
            }
        }
    }
    out.push(Token {
        tok: Tok::Eof,
        span: Span::new(bytes.len(), bytes.len()),
    });
    Ok(out)
}

fn lex_number(src: &str, start: usize) -> Result<(Tok, usize), CompileError> {
    let bytes = src.as_bytes();
    let (radix, digits_start) =
        if bytes[start] == b'0' && matches!(bytes.get(start + 1), Some(b'x' | b'X')) {
            (16, start + 2)
        } else {
            (10, start)
        };
    let mut j = digits_start;
    while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
        j += 1;
    }
    let text: String = src[digits_start..j].chars().filter(|&c| c != '_').collect();
    let value = i64::from_str_radix(&text, radix).map_err(|e| {
        CompileError::new(
            format!("malformed integer literal: {e}"),
            Span::new(start, j),
        )
    })?;
    Ok((Tok::Int(value), j))
}

/// The longest punctuation mark or operator `rest` starts with.
fn symbol(rest: &[u8]) -> Option<(Tok, usize)> {
    let (s, tok) = spellings(rest[0]).iter().find(|(s, _)| {
        rest.get(..s.len())
            .is_some_and(|r| r.iter().eq(s.as_bytes()))
    })?;
    Some((tok.clone(), s.len()))
}

/// The fixed spellings, keywords, punctuation marks and operators, that
/// begin with `first`, each with its token, longest first.
fn spellings(first: u8) -> &'static [(&'static str, Tok)] {
    static INDEX: OnceLock<Vec<Vec<(&str, Tok)>>> = OnceLock::new();
    let index = INDEX.get_or_init(|| {
        let mut index = vec![Vec::new(); 128];
        let words = WORDS.iter().map(|(t, s)| (*s, t.clone()));
        for (s, t) in words.chain(operators().map(|op| (op.spelling, Tok::Op(op)))) {
            index[usize::from(s.as_bytes()[0])].push((s, t));
        }
        for spellings in &mut index {
            spellings.sort_by_key(|(s, _)| std::cmp::Reverse(s.len()));
        }
        index
    });
    index.get(usize::from(first)).map_or(&[], Vec::as_slice)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_a_kernel_header() {
        let toks = kinds("kernel f(in l2 u8 src[], out u8 dst[]) {}");
        assert_eq!(toks[0], Tok::Kernel);
        assert_eq!(toks[1], Tok::Ident("f".into()));
        assert!(toks.contains(&Tok::LBracket));
        assert_eq!(*toks.last().unwrap(), Tok::Eof);
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(kinds("42")[0], Tok::Int(42));
        assert_eq!(kinds("0x80")[0], Tok::Int(128));
        assert_eq!(kinds("1_000")[0], Tok::Int(1000));
    }

    #[test]
    fn lexes_operators_greedily() {
        let spelled = |src| kinds(src).iter().map(Tok::spelling).collect::<Vec<_>>();
        assert_eq!(
            spelled("a >>> b >> c >= d > e"),
            [
                None,
                Some(">>>"),
                None,
                Some(">>"),
                None,
                Some(">="),
                None,
                Some(">"),
                None,
                None
            ]
        );
        assert_eq!(kinds("0..7")[1], Tok::DotDot);
        assert_eq!(spelled("a && b")[1], Some("&&"));
        assert_eq!(spelled("a == b = c")[1..4], [Some("=="), None, Some("=")]);
        let minus = kinds("-")[0].clone();
        assert!(matches!(minus, Tok::Op(op) if op.binary.is_some() && op.unary.is_some()));
    }

    #[test]
    fn skips_comments() {
        let toks = kinds("a // line\nb /* block\nstill */ c");
        assert_eq!(
            toks,
            vec![
                Tok::Ident("a".into()),
                Tok::Ident("b".into()),
                Tok::Ident("c".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("a $ b").is_err());
        assert!(lex("/* unterminated").is_err());
        assert!(lex("0xzz").is_err());
    }

    #[test]
    fn spans_point_at_source() {
        let toks = lex("ab cd").unwrap();
        assert_eq!(toks[1].span, Span::new(3, 5));
    }
}
