//! Robustness fuzzing of the DSL front end: on arbitrary input the
//! compiler must return a diagnostic, never panic — and diagnostics must
//! always point inside the source. Mutations of valid kernels exercise
//! the interesting near-miss space.

mod common;

use cfp_testkit::{cases, Rng};
use custom_fit::frontend::compile_kernel;

fn check_total(src: &str) {
    match compile_kernel(src, &[("k", 3), ("w", 2)]) {
        Ok(kernel) => {
            custom_fit::ir::verify(&kernel).expect("accepted kernels verify");
        }
        Err(e) => {
            let span = e.span();
            assert!(span.start <= span.end);
            assert!(span.end <= src.len() + 1, "span escapes the source");
            // Rendering must be total too.
            let _ = e.render(src);
            let _ = e.to_string();
        }
    }
}

const SEEDS: &[&str] = &[
    "kernel k(in u8 s[], out u8 d[], const k) { loop i { d[i] = u8(s[i] * k); } }",
    "kernel k(in i32 s[], out i32 d[]) {
        var acc = 7;
        loop i {
            for t in 0..3 { acc = acc + s[i + t]; }
            if acc > 100 { acc = acc - 100; } else { acc = acc + 1; }
            d[i] = acc;
        }
    }",
    "kernel k(inout i16 e[], out u8 d[]) {
        local i32 t[4];
        loop i produces 2 {
            t[0] = e[2*i] >>> 1;
            t[1] = t[0] ? 3 : ~4;
            e[2*i + 1] = i16(t[1] && t[0] || 0);
            d[2*i] = u8(max(0, min(255, t[1])));
            d[2*i + 1] = u8(abs(t[0]) ^ 0x7f);
        }
    }",
];

/// Arbitrary printable-ish text of up to `max` chars.
fn arbitrary_text(rng: &mut Rng, max: usize) -> String {
    let len = rng.index(max + 1);
    (0..len)
        .map(|_| {
            // Mostly ASCII with occasional multibyte chars, like \PC.
            match rng.index(20) {
                0 => '\u{00e9}',
                1 => '\u{4e16}',
                2 => '\t',
                _ => char::from(rng.range_u32(0x20..=0x7e) as u8),
            }
        })
        .collect()
}

/// Arbitrary bytes: the compiler is total.
#[test]
fn compiler_is_total_on_arbitrary_text() {
    cases(0xf022_0001, 64, |rng| {
        check_total(&arbitrary_text(rng, 300));
    });
}

/// Structured soup from the DSL's own vocabulary: much deeper
/// penetration into the parser.
#[test]
fn compiler_is_total_on_token_soup() {
    const WORDS: &[&str] = &[
        "kernel", "loop", "for", "if", "else", "var", "local", "in", "out", "inout", "const", "u8",
        "i16", "i32", "l1", "l2", "produces", "min", "i", "x", "s", "d", "0", "1", "255", "+", "-",
        "*", ">>", "<<", "?", ":", "(", ")", "{", "}", "[", "]", ";", ",", "=", "==", "..",
    ];
    // Extreme literals, for the overflow checks of `for` trip counts and
    // affine index arithmetic.
    const LITERALS: [&str; 4] = ["0x7fffffffffffffff", "0x80000000", "0x100000000", "-1"];
    let words: Vec<&str> = WORDS.iter().chain(&LITERALS).copied().collect();
    cases(0xf022_0002, 64, |rng| {
        let n = rng.index(60);
        let soup = rng.vec_of(n, |r| *r.pick(&words)).join(" ");
        check_total(&soup);
    });
}

/// Single-byte mutations of valid kernels.
#[test]
fn compiler_is_total_on_mutated_kernels() {
    cases(0xf022_0003, 64, |rng| {
        let mut src = rng.pick(SEEDS).to_string();
        if !src.is_empty() {
            let pos = rng.index(src.len());
            let byte = rng.range_u32(0..=127) as u8;
            if src.is_char_boundary(pos) && src.is_char_boundary(pos + 1) {
                src.replace_range(pos..pos + 1, &char::from(byte).to_string());
            }
        }
        check_total(&src);
    });
}

/// Deleting a random slice of a valid kernel.
#[test]
fn compiler_is_total_on_truncated_kernels() {
    cases(0xf022_0004, 64, |rng| {
        let src = *rng.pick(SEEDS);
        let (a, b) = (rng.index(src.len()), rng.index(src.len()));
        let (lo, hi) = (a.min(b), a.max(b));
        if src.is_char_boundary(lo) && src.is_char_boundary(hi) {
            let mut s = String::new();
            s.push_str(&src[..lo]);
            s.push_str(&src[hi..]);
            check_total(&s);
        }
    });
}

#[test]
fn the_seeds_themselves_compile() {
    for s in SEEDS {
        compile_kernel(s, &[("k", 3)])
            .or_else(|_| compile_kernel(s, &[]))
            .unwrap_or_else(|e| panic!("seed failed: {}\n{}", e.render(s), s));
    }
}
