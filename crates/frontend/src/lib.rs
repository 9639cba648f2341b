//! # cfp-frontend — the kernel DSL
//!
//! A tiny C-like language in which the paper's image-processing kernels
//! are written (see `crates/kernels/src/dsl/`). One source file declares
//! one kernel over typed arrays in the two-level memory system, with a
//! single `loop` over output units, constant-bound `for` loops (fully
//! unrolled), `if`/ternaries (if-converted to selects), and compile-time
//! `const` parameters (kernels are specialized per configuration, as
//! embedded codesign does).
//!
//! ```
//! use cfp_frontend::compile_kernel;
//!
//! let kernel = compile_kernel(
//!     "kernel scale(in u8 src[], out u8 dst[], const k) {
//!          loop i {
//!              dst[i] = u8(min(255, src[i] * k));
//!          }
//!      }",
//!     &[("k", 3)],
//! ).unwrap();
//! assert_eq!(kernel.name, "scale");
//! assert_eq!(kernel.mul_count(), 1);
//! ```
//!
//! The full grammar:
//!
//! ```text
//! kernel   := 'kernel' IDENT '(' params? ')' block
//! param    := ('in'|'out'|'inout') ('l1'|'l2')? type IDENT '[' ']'
//!           | 'const' IDENT
//! type     := 'u8' | 'i8' | 'u16' | 'i16' | 'i32'
//! block    := '{' stmt* '}'
//! stmt     := 'var' IDENT ('=' expr)? ';'
//!           | 'local' ('l1'|'l2')? type IDENT '[' expr ']' ';'
//!           | IDENT '=' expr ';'
//!           | IDENT '[' expr ']' '=' expr ';'
//!           | 'for' IDENT 'in' expr '..' expr block
//!           | 'loop' IDENT ('produces' expr)? block
//!           | 'if' expr block ('else' (block | if-stmt))?
//! expr     := C-like expressions over i32 scalars: + - * & | ^ << >> >>>
//!             == != < <= > >= && || ?: ~ ! unary-minus, array loads
//!             `a[e]`, and builtins min/max/abs and casts u8()/i8()/u16()/
//!             i16()/i32()
//! ```
//!
//! Semantics notes: all scalars are 32-bit ints; `>>` is arithmetic and
//! `>>>` logical; `&&`/`||` do **not** short-circuit (the target is fully
//! if-converted); stores are not allowed under `if`; the `loop` variable
//! may only be used in affine index arithmetic. Constants fold with the
//! IR's own operations, so a folded expression stores what it would
//! compute at run time; overflow of 64-bit index arithmetic or of a
//! `for` trip count is an error.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ast;
pub mod diag;
mod lexer;
mod lower;
mod parser;
mod token;
mod vocab;

pub use diag::CompileError;
pub use token::Span;

use cfp_ir::Kernel;

/// Compile DSL source text into a verified [`Kernel`], binding each
/// `const` parameter to the supplied value.
///
/// # Errors
/// Returns the first lexical, syntactic, or semantic error, with a span
/// into `src` (use [`CompileError::render`] for a friendly message).
pub fn compile_kernel(src: &str, consts: &[(&str, i64)]) -> Result<Kernel, CompileError> {
    compile_kernel_traced(src, consts, &mut cfp_obs::UnitTrace::disabled())
}

/// [`compile_kernel`] recording `parse` and `lower` spans into `trace`.
/// With a disabled trace this is exactly `compile_kernel`.
///
/// # Errors
/// As [`compile_kernel`].
pub fn compile_kernel_traced(
    src: &str,
    consts: &[(&str, i64)],
    trace: &mut cfp_obs::UnitTrace<'_>,
) -> Result<Kernel, CompileError> {
    use cfp_obs::{Stage, Value};
    let t0 = trace.start();
    let tokens = lexer::lex(src)?;
    let ast = parser::parse(&tokens)?;
    trace.stage(
        Stage::Parse,
        t0,
        &[("tokens", Value::U64(tokens.len() as u64))],
    );
    let t0 = trace.start();
    let kernel = lower::lower(&ast, consts)?;
    trace.stage(
        Stage::Lower,
        t0,
        &[
            ("body_ops", Value::U64(kernel.body.len() as u64)),
            ("preamble_ops", Value::U64(kernel.preamble.len() as u64)),
        ],
    );
    Ok(kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_ir::{Interpreter, MemImage};

    fn run(src: &str, consts: &[(&str, i64)], inputs: &[Vec<i64>], iters: u64) -> Vec<Vec<i64>> {
        let k = compile_kernel(src, consts).expect("compiles");
        cfp_ir::verify(&k).expect("verifies");
        let mut mem = MemImage::for_kernel(&k);
        let mut it = inputs.iter();
        for (i, a) in k.arrays.iter().enumerate() {
            if !matches!(a.kind, cfp_ir::ArrayKind::Local(_)) {
                mem.bind(
                    i,
                    it.next().expect("one binding per non-local array").clone(),
                );
            }
        }
        Interpreter::new().run(&k, &mut mem, iters).expect("runs");
        (0..k.arrays.len()).map(|i| mem.array(i).to_vec()).collect()
    }

    #[test]
    fn map_kernel_computes() {
        let out = run(
            "kernel m(in u8 s[], out u8 d[]) { loop i { d[i] = u8(s[i] * 2 + 1); } }",
            &[],
            &[vec![1, 2, 3], vec![0; 3]],
            3,
        );
        assert_eq!(out[1], vec![3, 5, 7]);
    }

    #[test]
    fn full_unrolling_of_for() {
        // 3-tap box sum per output.
        let out = run(
            "kernel box(in i32 s[], out i32 d[]) {
                loop i {
                    var acc = 0;
                    for t in 0..3 { acc = acc + s[i + t]; }
                    d[i] = acc;
                }
            }",
            &[],
            &[vec![1, 2, 3, 4, 5], vec![0; 3]],
            3,
        );
        assert_eq!(out[1], vec![6, 9, 12]);
    }

    #[test]
    fn carried_scalar_accumulates() {
        let out = run(
            "kernel acc(in i32 s[], out i32 d[]) {
                var sum = 100;
                loop i { sum = sum + s[i]; d[i] = sum; }
            }",
            &[],
            &[vec![1, 2, 3], vec![0; 3]],
            3,
        );
        assert_eq!(out[1], vec![101, 103, 106]);
    }

    #[test]
    fn if_conversion_matches_branch_semantics() {
        let out = run(
            "kernel clampdouble(in i32 s[], out i32 d[]) {
                loop i {
                    var x = s[i];
                    if x > 10 { x = 10; } else { x = x * 2; }
                    d[i] = x;
                }
            }",
            &[],
            &[vec![3, 11, 5, 100], vec![0; 4]],
            4,
        );
        assert_eq!(out[1], vec![6, 10, 10, 10]);
    }

    #[test]
    fn const_params_specialize() {
        let out = run(
            "kernel sc(in i32 s[], out i32 d[], const k) { loop i { d[i] = s[i] << k; } }",
            &[("k", 3)],
            &[vec![1, 2], vec![0; 2]],
            2,
        );
        assert_eq!(out[1], vec![8, 16]);
    }

    #[test]
    fn strided_affine_indices() {
        // RGB-style: 3 elements in, 3 out, swapped channels.
        let out = run(
            "kernel swap(in u8 s[], out u8 d[]) {
                loop i {
                    d[3*i + 0] = s[3*i + 2];
                    d[3*i + 1] = s[3*i + 1];
                    d[3*i + 2] = s[3*i + 0];
                }
            }",
            &[],
            &[vec![1, 2, 3, 4, 5, 6], vec![0; 6]],
            2,
        );
        assert_eq!(out[1], vec![3, 2, 1, 6, 5, 4]);
    }

    #[test]
    fn local_scratch_arrays_work() {
        let out = run(
            "kernel viatmp(in i32 s[], out i32 d[]) {
                local i32 tmp[2];
                loop i {
                    tmp[0] = s[i];
                    tmp[1] = tmp[0] * 3;
                    d[i] = tmp[1];
                }
            }",
            &[],
            &[vec![5, 7], vec![0; 2]],
            2,
        );
        assert_eq!(out[1], vec![15, 21]);
    }

    #[test]
    fn ternary_min_max_abs() {
        let out = run(
            "kernel t(in i32 s[], out i32 d[]) {
                loop i {
                    d[i] = abs(min(s[i], 0)) + max(s[i], 0) + (s[i] > 0 ? 1000 : 0);
                }
            }",
            &[],
            &[vec![-5, 7], vec![0; 2]],
            2,
        );
        assert_eq!(out[1], vec![5, 1007]);
    }

    #[test]
    fn loads_widen_by_array_type() {
        let out = run(
            "kernel w(in i16 s[], out i32 d[]) { loop i { d[i] = s[i]; } }",
            &[],
            &[vec![-1, 0x7fff], vec![0; 2]],
            2,
        );
        assert_eq!(out[1], vec![-1, 0x7fff]);
    }

    #[test]
    fn hoisted_table_loads_go_to_preamble() {
        let k = compile_kernel(
            "kernel h(in l1 i16 t[], in u8 s[], out i32 d[]) {
                var c0 = t[0];
                var c1 = t[1];
                loop i { d[i] = s[i] * c0 + c1; }
            }",
            &[],
        )
        .unwrap();
        assert_eq!(k.preamble.len(), 2, "two hoisted loads");
        assert_eq!(k.mem_counts(), (0, 2), "body touches only L2");
    }

    #[test]
    fn rejects_semantic_errors() {
        let cases: &[(&str, &[(&str, i64)])] = &[
            // undefined name
            ("kernel k() { var x = y; }", &[]),
            // store under if
            (
                "kernel k(in i32 s[], out u8 d[]) { loop i { if s[i] > 0 { d[i] = 1; } } }",
                &[],
            ),
            // two loops
            ("kernel k() { loop i { } loop j { } }", &[]),
            // statements after loop
            ("kernel k() { loop i { } var x = 1; }", &[]),
            // loop var escapes index context
            (
                "kernel k(out i32 d[]) { loop i { d[0] = i + 0 == 3 ? 1 : 0; } }",
                &[],
            ),
            // missing const binding
            ("kernel k(const q) {}", &[]),
            // extra const binding
            ("kernel k() {}", &[("zz", 1)]),
            // non-const for bound
            (
                "kernel k(in i32 s[], out i32 d[]) { loop i { var n = s[i]; for t in 0..n { } } }",
                &[],
            ),
            // assignment to const
            ("kernel k(const q) { q = 3; }", &[("q", 1)]),
            // shadowing
            ("kernel k() { var x = 1; var x = 2; }", &[]),
            // unknown builtin
            ("kernel k() { var x = frob(1); }", &[]),
            // store to input
            ("kernel k(in u8 s[]) { loop i { s[i] = 0; } }", &[]),
            // `for` trip count past i64
            (
                "kernel k(out i32 d[]) { loop i { for k in -1 .. 0x7fffffffffffffff { } } }",
                &[],
            ),
            // affine index offset past i64
            (
                "kernel k(out i32 dst[]) { loop i { dst[(i + 1) * 0x7fffffffffffffff + 1] = 0; } }",
                &[],
            ),
        ];
        for (src, consts) in cases {
            assert!(compile_kernel(src, consts).is_err(), "should reject: {src}");
        }
    }

    #[test]
    fn loop_var_times_itself_is_rejected_with_good_message() {
        let err =
            compile_kernel("kernel k(out i32 d[]) { loop i { d[i*i] = 0; } }", &[]).unwrap_err();
        assert!(err.message().contains("multiplied by itself"), "{err}");
    }

    #[test]
    fn shifted_loop_var_stays_affine() {
        let k = compile_kernel(
            "kernel k(in i32 s[], out i32 d[]) { loop i { d[i << 1] = s[i << 1]; } }",
            &[],
        )
        .unwrap();
        let m = k.body[0].mem().unwrap();
        assert_eq!((m.coeff, m.offset), (2, 0));
        assert!(m.is_affine());
    }

    #[test]
    fn dynamic_index_falls_back_to_register() {
        let k = compile_kernel(
            "kernel k(in i32 idx[], in i32 s[], out i32 d[]) {
                loop i { d[i] = s[idx[i] & 7]; }
            }",
            &[],
        )
        .unwrap();
        let dynamic = k
            .body
            .iter()
            .filter_map(cfp_ir::Inst::mem)
            .any(|m| !m.is_affine());
        assert!(dynamic);
    }

    #[test]
    fn logical_ops_normalize() {
        let out = run(
            "kernel l(in i32 s[], out i32 d[]) {
                loop i { d[i] = (s[i] && 4) + (s[i] || 0) * 10; }
            }",
            &[],
            &[vec![0, 9], vec![0; 2]],
            2,
        );
        assert_eq!(out[1], vec![0, 11]);
    }

    #[test]
    fn statically_false_if_lowers_nothing() {
        let k = compile_kernel(
            "kernel k(out i32 d[], const dbg) {
                var x = 0;
                loop i {
                    if dbg { x = x + 1; }
                    d[i] = x;
                }
            }",
            &[("dbg", 0)],
        )
        .unwrap();
        // x never changes: no selects in the body.
        assert_eq!(k.carried.len(), 1, "x is still assigned syntactically");
        assert!(k
            .body
            .iter()
            .all(|i| !matches!(i, cfp_ir::Inst::Sel { .. })));
    }

    #[test]
    fn error_rendering_has_location() {
        let src = "kernel k() {\n  var x = doesnotexist;\n}";
        let err = compile_kernel(src, &[]).unwrap_err();
        let rendered = err.render(src);
        assert!(rendered.contains("error at 2:"), "{rendered}");
    }
}
