//! Loop-invariant code motion.
//!
//! Moves body instructions whose value cannot change across iterations
//! into the preamble: pure ops over invariant operands, and
//! iteration-invariant loads (`coeff == 0`) from arrays the body never
//! stores to. Hoisted values become *resident* — they occupy a register
//! for the entire loop — so LICM trades issue slots for register
//! pressure, one of the tensions the paper's experiment measures.
//!
//! The residency budget enters in exactly one comparison,
//! `resident_count >= max_resident`, and the count only grows. So the
//! count [`hoist_budgeted`] returns is a certificate: a call that ends
//! at `p < max_resident` never saw the comparison hold, and is therefore
//! the call every budget above `p` would have made on the same input.
//! The plan build (`cfp_dse::eval`) uses it to run each distinct
//! optimization once.

use cfp_ir::{Inst, Kernel};

/// Hoist loop-invariant body instructions into the preamble, without a
/// register budget (see [`hoist_budgeted`]).
pub fn hoist(kernel: &mut Kernel) {
    hoist_budgeted(kernel, usize::MAX);
}

/// Hoist loop-invariant body instructions into the preamble, keeping the
/// total count of loop-resident values (existing preamble values read by
/// the body plus newly hoisted ones) at or below `max_resident`.
///
/// Real compilers make this decision against the target's register file;
/// the design-space exploration calls the optimizer with a budget derived
/// from each candidate architecture, so register-poor machines hoist
/// fewer table loads — and pay for the reloads in memory traffic instead.
///
/// Returns the final resident count (see the module docs for what it
/// certifies).
pub fn hoist_budgeted(kernel: &mut Kernel, max_resident: usize) -> usize {
    // Per-array and per-vreg facts, each a table indexed by number.
    let mut stored = vec![false; kernel.arrays.len()];
    for m in kernel
        .body
        .iter()
        .filter(|i| i.is_store())
        .filter_map(Inst::mem)
    {
        stored[m.array.index()] = true;
    }
    let n_vregs = kernel.vreg_count() as usize;
    let mut carried_output = vec![false; n_vregs];
    let mut carried_input = vec![false; n_vregs];
    for c in &kernel.carried {
        carried_output[c.output.index()] = true;
        carried_input[c.input.index()] = true;
    }
    let mut invariant = vec![false; n_vregs];
    for d in kernel.preamble.iter().filter_map(Inst::def) {
        invariant[d.index()] = true;
    }
    let mut hoist_flags = vec![false; kernel.body.len()];

    // Values already resident: preamble defs the body actually reads.
    let mut resident_count = {
        let mut body_reads = vec![false; n_vregs];
        for inst in &kernel.body {
            inst.for_each_use(|v| body_reads[v.index()] = true);
        }
        invariant
            .iter()
            .zip(&body_reads)
            .filter(|&(&inv, &read)| inv && read)
            .count()
    };

    // Grow the invariant set to a fixed point (bounded by body length),
    // stopping when the residency budget is exhausted.
    loop {
        let mut changed = false;
        for (idx, inst) in kernel.body.iter().enumerate() {
            if resident_count >= max_resident {
                break;
            }
            if hoist_flags[idx] {
                continue;
            }
            if !hoistable(inst, &invariant, &carried_input, &stored) {
                continue;
            }
            let Some(dst) = inst.def() else { continue };
            if carried_output[dst.index()] {
                continue; // must stay body-defined
            }
            hoist_flags[idx] = true;
            invariant[dst.index()] = true;
            resident_count += 1;
            changed = true;
        }
        if !changed || resident_count >= max_resident {
            break;
        }
    }

    if hoist_flags.iter().any(|&f| f) {
        let mut remaining = Vec::with_capacity(kernel.body.len());
        for (idx, inst) in kernel.body.drain(..).enumerate() {
            if hoist_flags[idx] {
                kernel.preamble.push(inst);
            } else {
                remaining.push(inst);
            }
        }
        kernel.body = remaining;
    }
    resident_count
}

fn hoistable(inst: &Inst, invariant: &[bool], carried_input: &[bool], stored: &[bool]) -> bool {
    if inst.is_store() {
        return false;
    }
    if let Some(m) = inst.mem() {
        if m.coeff != 0 || stored[m.array.index()] {
            return false;
        }
    }
    let mut ok = true;
    inst.for_each_use(|v| {
        if carried_input[v.index()] || !invariant[v.index()] {
            ok = false;
        }
    });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_frontend::compile_kernel;

    #[test]
    fn hoists_invariant_loads_and_arithmetic() {
        let mut k = compile_kernel(
            "kernel h(in l1 i16 t[], in u8 s[], out i32 d[]) {
                loop i {
                    var c = t[3] * 2 + 1;
                    d[i] = s[i] * c;
                }
            }",
            &[],
        )
        .unwrap();
        let body_before = k.body.len();
        hoist(&mut k);
        cfp_ir::verify(&k).unwrap();
        assert!(k.body.len() < body_before);
        // The invariant load and its arithmetic moved out; only the
        // varying load, multiply, and store remain.
        assert_eq!(k.body.len(), 3, "{:#?}", k.body);
        assert_eq!(k.mem_counts(), (0, 2), "varying load + store, both L2");
    }

    #[test]
    fn does_not_hoist_loads_from_stored_arrays() {
        let mut k = compile_kernel(
            "kernel h(inout i32 buf[], out i32 d[]) {
                loop i {
                    var x = buf[0];
                    buf[0] = x + 1;
                    d[i] = x;
                }
            }",
            &[],
        )
        .unwrap();
        let before = k.clone();
        hoist(&mut k);
        assert_eq!(k, before, "buf[0] varies via the store");
    }

    #[test]
    fn does_not_hoist_carried_dependent_values() {
        let mut k = compile_kernel(
            "kernel h(out i32 d[]) {
                var e = 1;
                loop i {
                    e = e * 3;
                    d[i] = e;
                }
            }",
            &[],
        )
        .unwrap();
        let before = k.clone();
        hoist(&mut k);
        assert_eq!(k, before);
    }

    #[test]
    fn hoisting_preserves_semantics() {
        crate::testutil::check_same_results(
            "kernel h(in l1 i16 t[], in u8 s[], out i32 d[]) {
                loop i {
                    var c = t[5] * t[6];
                    d[i] = s[i] + c;
                }
            }",
            &[],
            |k| {
                let mut o = k.clone();
                hoist(&mut o);
                o
            },
            1,
        );
    }
}
