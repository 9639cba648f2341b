//! Recursive-descent parser with precedence climbing.

use crate::ast::{Dir, Expr, KernelAst, Param, Stmt};
use crate::diag::CompileError;
use crate::token::{Span, Tok, Token};
use crate::vocab::Op;
use cfp_ir::{MemSpace, Ty};

/// Parse a single kernel from a token stream (see [`crate::lexer::lex`]).
///
/// # Errors
/// Returns the first syntax error encountered.
pub fn parse(tokens: &[Token]) -> Result<KernelAst, CompileError> {
    let mut p = Parser { tokens, pos: 0 };
    let k = p.kernel()?;
    p.expect(&Tok::Eof)?;
    Ok(k)
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Tok) -> Result<Token, CompileError> {
        if self.peek() == tok {
            Ok(self.bump())
        } else {
            Err(CompileError::new(
                format!("expected {tok}, found {}", self.peek()),
                self.span(),
            ))
        }
    }

    fn ident(&mut self) -> Result<(String, Span), CompileError> {
        let span = self.span();
        match self.bump().tok {
            Tok::Ident(s) => Ok((s, span)),
            other => Err(CompileError::new(
                format!("expected identifier, found {other}"),
                span,
            )),
        }
    }

    fn try_ty(&mut self) -> Option<Ty> {
        let ty = ty_of(self.peek())?;
        self.bump();
        Some(ty)
    }

    fn ty(&mut self) -> Result<Ty, CompileError> {
        self.try_ty().ok_or_else(|| {
            CompileError::new(
                format!("expected element type, found {}", self.peek()),
                self.span(),
            )
        })
    }

    fn try_space(&mut self) -> Option<MemSpace> {
        let s = match self.peek() {
            Tok::L1 => MemSpace::L1,
            Tok::L2 => MemSpace::L2,
            _ => return None,
        };
        self.bump();
        Some(s)
    }

    fn kernel(&mut self) -> Result<KernelAst, CompileError> {
        let kw = self.expect(&Tok::Kernel)?;
        let (name, _) = self.ident()?;
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                params.push(self.param()?);
                if !self.eat(&Tok::Comma) {
                    self.expect(&Tok::RParen)?;
                    break;
                }
            }
        }
        let body = self.block()?;
        Ok(KernelAst {
            name,
            params,
            body,
            span: kw.span,
        })
    }

    fn param(&mut self) -> Result<Param, CompileError> {
        let span = self.span();
        if self.eat(&Tok::Const) {
            let (name, _) = self.ident()?;
            return Ok(Param::Const { name, span });
        }
        let dir = match self.bump().tok {
            Tok::In => Dir::In,
            Tok::Out => Dir::Out,
            Tok::Inout => Dir::InOut,
            other => {
                return Err(CompileError::new(
                    format!("expected `in`, `out`, `inout`, or `const`, found {other}"),
                    span,
                ))
            }
        };
        let space = self.try_space().unwrap_or(MemSpace::L2);
        let ty = self.ty()?;
        let (name, _) = self.ident()?;
        self.expect(&Tok::LBracket)?;
        self.expect(&Tok::RBracket)?;
        Ok(Param::Array {
            name,
            dir,
            space,
            ty,
            span,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        self.expect(&Tok::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(&Tok::RBrace) {
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        let span = self.span();
        match self.peek().clone() {
            Tok::Var => {
                self.bump();
                let (name, _) = self.ident()?;
                let init = if self.eat(&Tok::Assign) {
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Var { name, init, span })
            }
            Tok::Local => {
                self.bump();
                let space = self.try_space().unwrap_or(MemSpace::L2);
                let ty = self.ty()?;
                let (name, _) = self.ident()?;
                self.expect(&Tok::LBracket)?;
                let len = self.expr()?;
                self.expect(&Tok::RBracket)?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::LocalArray {
                    name,
                    space,
                    ty,
                    len,
                    span,
                })
            }
            Tok::For => {
                self.bump();
                let (var, _) = self.ident()?;
                // `in` is a keyword; reuse it as the range separator.
                self.expect(&Tok::In)?;
                let start = self.expr()?;
                self.expect(&Tok::DotDot)?;
                let end = self.expr()?;
                let body = self.block()?;
                Ok(Stmt::For {
                    var,
                    start,
                    end,
                    body,
                    span,
                })
            }
            Tok::Loop => {
                self.bump();
                let (var, _) = self.ident()?;
                let produces = if self.eat(&Tok::Produces) {
                    Some(self.expr()?)
                } else {
                    None
                };
                let body = self.block()?;
                Ok(Stmt::Loop {
                    var,
                    produces,
                    body,
                    span,
                })
            }
            Tok::If => {
                self.bump();
                let cond = self.expr()?;
                let then_body = self.block()?;
                let else_body = if self.eat(&Tok::Else) {
                    if *self.peek() == Tok::If {
                        vec![self.stmt()?]
                    } else {
                        self.block()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    span,
                })
            }
            Tok::Ident(name) => {
                if *self.peek2() == Tok::LBracket {
                    self.bump();
                    self.bump();
                    let index = self.expr()?;
                    self.expect(&Tok::RBracket)?;
                    self.expect(&Tok::Assign)?;
                    let value = self.expr()?;
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::Store {
                        array: name,
                        index,
                        value,
                        span,
                    })
                } else {
                    self.bump();
                    self.expect(&Tok::Assign)?;
                    let value = self.expr()?;
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::Assign { name, value, span })
                }
            }
            other => Err(CompileError::new(
                format!("expected a statement, found {other}"),
                span,
            )),
        }
    }

    /// Entry point: ternary is the lowest-precedence expression form.
    fn expr(&mut self) -> Result<Expr, CompileError> {
        let cond = self.binary(0)?;
        if self.eat(&Tok::Question) {
            let then_expr = self.expr()?;
            self.expect(&Tok::Colon)?;
            let else_expr = self.expr()?;
            let span = cond.span().to(else_expr.span());
            Ok(Expr::Ternary {
                cond: Box::new(cond),
                then_expr: Box::new(then_expr),
                else_expr: Box::new(else_expr),
                span,
            })
        } else {
            Ok(cond)
        }
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr, CompileError> {
        let mut lhs = self.unary()?;
        while let Tok::Op(Op {
            binary: Some(op), ..
        }) = *self.peek()
        {
            if op.prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary(op.prec + 1)?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, CompileError> {
        let span = self.span();
        if let Tok::Op(Op {
            unary: Some(op), ..
        }) = *self.peek()
        {
            self.bump();
            let e = self.unary()?;
            let span = span.to(e.span());
            return Ok(Expr::Unary {
                op,
                expr: Box::new(e),
                span,
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, CompileError> {
        let span = self.span();
        // Cast syntax: a type keyword used as a call, e.g. `u8(x)`; the
        // keyword's spelling names the builtin.
        let cast = match (ty_of(self.peek()), self.peek2()) {
            (Some(_), Tok::LParen) => self.peek().spelling(),
            _ => None,
        };
        if let Some(func) = cast {
            self.bump();
            self.expect(&Tok::LParen)?;
            let e = self.expr()?;
            let close = self.expect(&Tok::RParen)?;
            return Ok(Expr::Call {
                func: func.to_owned(),
                args: vec![e],
                span: span.to(close.span),
            });
        }
        match self.bump().tok {
            Tok::Int(v) => Ok(Expr::Int(v, span)),
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => match self.peek() {
                Tok::LBracket => {
                    self.bump();
                    let index = self.expr()?;
                    let close = self.expect(&Tok::RBracket)?;
                    Ok(Expr::Index {
                        array: name,
                        index: Box::new(index),
                        span: span.to(close.span),
                    })
                }
                Tok::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    if *self.peek() != Tok::RParen {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                    }
                    let close = self.expect(&Tok::RParen)?;
                    Ok(Expr::Call {
                        func: name,
                        args,
                        span: span.to(close.span),
                    })
                }
                _ => Ok(Expr::Var(name, span)),
            },
            other => Err(CompileError::new(
                format!("expected an expression, found {other}"),
                span,
            )),
        }
    }
}

fn ty_of(tok: &Tok) -> Option<Ty> {
    Some(match tok {
        Tok::U8 => Ty::U8,
        Tok::I8 => Ty::I8,
        Tok::U16 => Ty::U16,
        Tok::I16 => Ty::I16,
        Tok::I32 => Ty::I32,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Result<KernelAst, CompileError> {
        parse(&lex(src)?)
    }

    #[test]
    fn parses_minimal_kernel() {
        let k = parse_src("kernel k() {}").unwrap();
        assert_eq!(k.name, "k");
        assert!(k.params.is_empty());
        assert!(k.body.is_empty());
    }

    #[test]
    fn parses_params() {
        let k = parse_src("kernel k(in l1 i16 t[], out u8 d[], const f) {}").unwrap();
        assert_eq!(k.params.len(), 3);
        assert!(matches!(
            &k.params[0],
            Param::Array {
                dir: Dir::In,
                space: MemSpace::L1,
                ty: Ty::I16,
                ..
            }
        ));
        assert!(matches!(
            &k.params[1],
            Param::Array {
                dir: Dir::Out,
                space: MemSpace::L2,
                ty: Ty::U8,
                ..
            }
        ));
        assert!(matches!(&k.params[2], Param::Const { name, .. } if name == "f"));
    }

    #[test]
    fn parses_statements() {
        let k = parse_src(
            "kernel k(in u8 s[], out u8 d[]) {
                var acc = 0;
                local i16 buf[8];
                loop i produces 3 {
                    for t in 0..3 {
                        acc = acc + s[3*i + t];
                    }
                    if acc > 100 { acc = 100; } else { acc = acc; }
                    d[i] = acc;
                }
            }",
        )
        .unwrap();
        assert_eq!(k.body.len(), 3);
        let Stmt::Loop {
            var,
            produces,
            body,
            ..
        } = &k.body[2]
        else {
            panic!("expected loop");
        };
        assert_eq!(var, "i");
        assert!(produces.is_some());
        assert_eq!(body.len(), 3);
    }

    #[test]
    fn precedence_matches_c() {
        let k = parse_src("kernel k() { var x = 1 + 2 * 3 << 1 & 7; }").unwrap();
        let Stmt::Var { init: Some(e), .. } = &k.body[0] else {
            panic!()
        };
        // ((1 + (2*3)) << 1) & 7
        let Expr::Binary { op, lhs, .. } = e else {
            panic!("top is &, got {e:?}")
        };
        assert_eq!(op.spelling, "&");
        let Expr::Binary { op, lhs: add, .. } = lhs.as_ref() else {
            panic!("then <<")
        };
        assert_eq!(op.spelling, "<<");
        assert!(matches!(add.as_ref(), Expr::Binary { op, .. } if op.spelling == "+"));
    }

    #[test]
    fn ternary_and_casts() {
        let k = parse_src("kernel k() { var x = u8(3 > 2 ? min(1, 2) : 0); }").unwrap();
        let Stmt::Var {
            init: Some(Expr::Call { func, args, .. }),
            ..
        } = &k.body[0]
        else {
            panic!()
        };
        assert_eq!(func, "u8");
        assert!(matches!(args[0], Expr::Ternary { .. }));
    }

    #[test]
    fn else_if_chains() {
        let k = parse_src(
            "kernel k() { var x = 0; if x > 1 { x = 1; } else if x > 0 { x = 2; } else { x = 3; } }",
        )
        .unwrap();
        let Stmt::If { else_body, .. } = &k.body[1] else {
            panic!()
        };
        assert_eq!(else_body.len(), 1);
        assert!(matches!(else_body[0], Stmt::If { .. }));
    }

    #[test]
    fn reports_syntax_errors() {
        assert!(parse_src("kernel k() { var ; }").is_err());
        assert!(parse_src("kernel k() { x = ; }").is_err());
        assert!(parse_src("kernel () {}").is_err());
        assert!(parse_src("kernel k() { for i in 0..3 }").is_err());
        assert!(parse_src("kernel k() {} trailing").is_err());
    }

    #[test]
    fn unary_chains() {
        let k = parse_src("kernel k() { var x = -~!3; }").unwrap();
        let Stmt::Var { init: Some(e), .. } = &k.body[0] else {
            panic!()
        };
        assert!(matches!(e, Expr::Unary { op, .. } if op.name == "-"));
    }
}
