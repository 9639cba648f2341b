//! Outer-loop unrolling.
//!
//! Replicates the body `factor` times inside one iteration: copy `u`'s
//! affine accesses shift by `coeff·u` elements and the overall stride
//! becomes `coeff·factor`; loop-carried values chain through the copies
//! and only the last copy's value is carried out. This is the knob the
//! experiment sweeps — "running the compilation … for different unrolling
//! factors. When the compiler started spilling register contents for a
//! given unrolling, we stopped considering that unrolling factor and all
//! larger ones" (§2.4).

use crate::NO_VREG;
use cfp_ir::{Carried, Inst, Kernel, Operand, Vreg};

/// Unroll `kernel` by `factor` (≥ 1). The result performs `factor`
/// original iterations per new iteration, so run it for `n / factor`
/// iterations. The frontend bounds an affine index's coefficient and
/// offset to `i32`, so the scaled ones stay inside `i64` for any factor.
///
/// # Panics
/// Panics if `factor == 0`.
#[must_use]
pub fn unroll(kernel: &Kernel, factor: u32) -> Kernel {
    assert!(factor >= 1, "unroll factor must be at least 1");
    if factor == 1 {
        return kernel.clone();
    }
    // Indexed by the original kernel's vreg numbers: which carry a
    // register is the input of, and what the copy being emitted renames
    // a body-defined register to. One rename table serves every copy —
    // each copy defines the same registers, so it overwrites them all.
    const NO_CARRY: usize = usize::MAX;
    let n_vregs = kernel.vreg_count();
    let mut carry_of = vec![NO_CARRY; n_vregs as usize];
    for (i, c) in kernel.carried.iter().enumerate() {
        carry_of[c.input.index()] = i;
    }
    let mut remap = vec![NO_VREG; n_vregs as usize];

    let mut out = Kernel {
        name: kernel.name.clone(),
        arrays: kernel.arrays.clone(),
        preamble: kernel.preamble.clone(),
        body: Vec::with_capacity(kernel.body.len() * factor as usize),
        carried: Vec::new(),
        outputs_per_iter: kernel.outputs_per_iter * factor,
    };
    let mut next_vreg = n_vregs;
    let mut fresh = || {
        let v = Vreg(next_vreg);
        next_vreg += 1;
        v
    };

    // The register currently holding each carry's value entering copy u.
    let mut cur_in: Vec<Vreg> = kernel.carried.iter().map(|c| c.input).collect();

    for u in 0..factor {
        // Number the copy's registers in instruction order: the output
        // must be a pure function of the input so that identical plans
        // stay identical (content-addressed plan interning depends on it).
        for d in kernel.body.iter().filter_map(Inst::def) {
            remap[d.index()] = fresh();
        }
        for inst in &kernel.body {
            let mut ni = *inst;
            ni.map_def(|d| remap[d.index()]);
            ni.map_operands(|o| match o {
                Operand::Reg(v) => {
                    if remap[v.index()] != NO_VREG {
                        Operand::Reg(remap[v.index()])
                    } else if carry_of[v.index()] != NO_CARRY {
                        Operand::Reg(cur_in[carry_of[v.index()]])
                    } else {
                        o
                    }
                }
                imm => imm,
            });
            if let Some(m) = ni.mem_mut() {
                m.offset += m.coeff * i64::from(u);
                m.coeff *= i64::from(factor);
            }
            out.body.push(ni);
        }
        for (ci, c) in kernel.carried.iter().enumerate() {
            if c.output != c.input {
                cur_in[ci] = remap[c.output.index()];
            }
            // Pass-through carries keep flowing the incoming value.
        }
    }

    out.carried = kernel
        .carried
        .iter()
        .zip(&cur_in)
        .map(|(c, &last)| Carried {
            input: c.input,
            output: last,
            init: c.init,
        })
        .collect();
    debug_assert_eq!(cfp_ir::verify(&out), Ok(()), "unrolling broke IR");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::check_same_results;
    use cfp_frontend::compile_kernel;

    fn sample() -> Kernel {
        compile_kernel(
            "kernel s(in u8 src[], out i32 dst[]) {
                var acc = 0;
                loop i {
                    acc = acc + src[i];
                    dst[i] = acc;
                }
            }",
            &[],
        )
        .unwrap()
    }

    #[test]
    fn factor_one_is_identity() {
        let k = sample();
        assert_eq!(unroll(&k, 1), k);
    }

    #[test]
    fn body_and_outputs_scale() {
        let k = sample();
        let k4 = unroll(&k, 4);
        assert_eq!(k4.body.len(), k.body.len() * 4);
        assert_eq!(k4.outputs_per_iter, 4);
        assert_eq!(k4.carried.len(), k.carried.len());
    }

    #[test]
    fn memrefs_shift_and_scale() {
        let k = compile_kernel(
            "kernel s(in u8 src[], out u8 dst[]) { loop i { dst[3*i+1] = src[3*i]; } }",
            &[],
        )
        .unwrap();
        let k2 = unroll(&k, 2);
        let refs: Vec<(i64, i64)> = k2
            .body
            .iter()
            .filter_map(|i| i.mem().map(|m| (m.coeff, m.offset)))
            .collect();
        assert_eq!(refs, vec![(6, 0), (6, 1), (6, 3), (6, 4)]);
    }

    #[test]
    fn carried_chain_threads_through_copies() {
        for f in [2_u64, 4, 8] {
            check_same_results(
                "kernel s(in u8 src[], out i32 dst[]) {
                    var acc = 7;
                    loop i {
                        acc = acc + src[i];
                        dst[i] = acc;
                    }
                }",
                &[],
                |k| unroll(k, u32::try_from(f).unwrap()),
                f,
            );
        }
    }

    #[test]
    fn pass_through_carries_survive() {
        // `first` is captured on the first iteration and then only read.
        check_same_results(
            "kernel s(in i32 src[], out i32 dst[]) {
                var first = -1;
                loop i {
                    if first < 0 { first = src[i]; }
                    dst[i] = first;
                }
            }",
            &[],
            |k| unroll(k, 2),
            2,
        );
    }

    #[test]
    fn inout_error_diffusion_style_kernel_unrolls_correctly() {
        // Loop-carried memory traffic (store in iteration u, load in
        // iteration u+1 reads the *old* value at a different offset).
        check_same_results(
            "kernel fs(in u8 src[], inout i16 err[], out u8 dst[]) {
                var e = 0;
                loop i {
                    var t = err[i + 1];
                    e = (t + ((e * 7 + 8) >> 4) + src[i]);
                    err[i] = i16((e * 3 + 8) >> 4);
                    dst[i] = u8(e > 128 ? 255 : 0);
                }
            }",
            &[],
            |k| unroll(k, 4),
            4,
        );
    }
}
