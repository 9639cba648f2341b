//! Scalar promotion of local scratch arrays (mem2reg).
//!
//! A kernel-local array whose every access uses a compile-time constant
//! element index is really a bundle of scalars; this pass promotes each
//! element to virtual registers, turning stores into copies and loads
//! into uses. Elements that are read before their first store in an
//! iteration carry their value from the previous iteration (local memory
//! persists), so the pass introduces loop-carried pairs for them —
//! initialized to 0, matching zeroed local memory.
//!
//! This is what lets the IDCT and median kernels be written naturally
//! with `local` scratch and still compile to pure register dataflow, as
//! the paper's compiler would.

use crate::NO_VREG;
use cfp_ir::{ArrayId, ArrayKind, Carried, CarriedInit, Inst, Kernel, MemRef, Vreg};

/// Promote every eligible local array. Returns how many arrays were
/// promoted.
///
/// Three walks, whatever the number of arrays: the first finds the
/// eligible arrays, the second counts the registers each needs — which
/// fixes every array's register range — and the third rewrites the body
/// in place.
pub fn promote_locals(kernel: &mut Kernel) -> usize {
    // A local array is eligible when something accesses it and every
    // access is to a constant element inside it.
    let n_arrays = kernel.arrays.len();
    let mut touched = vec![false; n_arrays];
    let mut refused = vec![false; n_arrays];
    for m in kernel
        .preamble
        .iter()
        .chain(&kernel.body)
        .filter_map(Inst::mem)
    {
        if let ArrayKind::Local(len) = kernel.arrays[m.array.index()].kind {
            touched[m.array.index()] = true;
            refused[m.array.index()] |=
                m.coeff != 0 || m.dyn_index.is_some() || m.offset < 0 || m.offset >= i64::from(len);
        }
    }
    let eligible = |array: ArrayId| touched[array.index()] && !refused[array.index()];
    let promoted = (0..)
        .map(ArrayId)
        .take(n_arrays)
        .filter(|&a| eligible(a))
        .count();
    if promoted == 0 {
        return 0;
    }

    // The promoted elements the body touches, in `(array, offset)`
    // order: an element's position here is its slot in the two tables
    // below, so they are as long as the code is, not as the arrays are
    // declared.
    let mut elems: Vec<(ArrayId, i64)> = kernel
        .body
        .iter()
        .filter_map(Inst::mem)
        .filter(|m| eligible(m.array))
        .map(|m| (m.array, m.offset))
        .collect();
    elems.sort_unstable();
    elems.dedup();
    let slot = |m: &MemRef| elems.binary_search(&(m.array, m.offset)).ok();
    // The register holding each element right now, and the carried input
    // made for an element the body reads before it stores to it.
    let mut current = vec![NO_VREG; elems.len()];
    let mut carried_in = vec![NO_VREG; elems.len()];

    // Arrays number their fresh registers one after another in array
    // order, each in body order: one per store and one per element read
    // before its first store. Count them, then lay the ranges out.
    let mut next_vreg = vec![0_u32; n_arrays];
    for inst in &kernel.body {
        let Some(m) = inst.mem() else { continue };
        let Some(e) = slot(m) else { continue };
        if inst.is_store() || current[e] == NO_VREG {
            next_vreg[m.array.index()] += 1;
            current[e] = Vreg(0);
        }
    }
    current.fill(NO_VREG);
    let mut next = kernel.vreg_count();
    for first in &mut next_vreg {
        let count = *first;
        *first = next;
        next += count;
    }

    // Loads become copies of the element's register, stores become the
    // narrowing of the stored value into a fresh one.
    for inst in &mut kernel.body {
        let Some(m) = inst.mem() else { continue };
        let Some(e) = slot(m) else { continue };
        let next = &mut next_vreg[m.array.index()];
        let mut fresh = || {
            *next += 1;
            Vreg(*next - 1)
        };
        *inst = match *inst {
            Inst::Ld { dst, .. } => {
                if current[e] == NO_VREG {
                    current[e] = fresh();
                    carried_in[e] = current[e];
                }
                // Loads re-apply the element type's narrowing; a stored
                // value was already truncated, so the pair of casts is
                // what memory would have done.
                Inst::mov(dst, current[e])
            }
            Inst::St { value, ty, .. } => {
                // Narrow exactly like a store of this element type.
                current[e] = fresh();
                narrowing_inst(current[e], value, ty)
            }
            other => other,
        };
    }

    // Elements read before written carry across iterations, in array
    // then element order.
    for (&input, &output) in carried_in.iter().zip(&current) {
        if input != NO_VREG {
            kernel.carried.push(Carried {
                input,
                output,
                init: CarriedInit::Const(0),
            });
        }
    }
    promoted
}

/// An instruction computing `dst = truncate_ty(value)`.
fn narrowing_inst(dst: Vreg, value: cfp_ir::Operand, ty: cfp_ir::Ty) -> Inst {
    use cfp_ir::{Ty, UnOp};
    let op = match ty {
        Ty::U8 => UnOp::Zext8,
        Ty::I8 => UnOp::Sext8,
        Ty::U16 => UnOp::Zext16,
        Ty::I16 => UnOp::Sext16,
        Ty::I32 => UnOp::Copy,
    };
    Inst::Un { dst, op, a: value }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::check_same_results;
    use cfp_frontend::compile_kernel;

    #[test]
    fn promotes_constant_indexed_scratch() {
        let mut k = compile_kernel(
            "kernel p(in i32 s[], out i32 d[]) {
                local i32 t[4];
                loop i {
                    t[0] = s[i];
                    t[1] = t[0] * 3;
                    t[2] = t[1] + t[0];
                    d[i] = t[2];
                }
            }",
            &[],
        )
        .unwrap();
        assert_eq!(promote_locals(&mut k), 1);
        cfp_ir::verify(&k).unwrap();
        assert_eq!(
            k.mem_counts(),
            (0, 2),
            "only the real load and store remain"
        );
    }

    #[test]
    fn read_before_write_becomes_carried() {
        let mut k = compile_kernel(
            "kernel p(in i32 s[], out i32 d[]) {
                local i32 t[1];
                loop i {
                    d[i] = t[0];
                    t[0] = s[i];
                }
            }",
            &[],
        )
        .unwrap();
        let carries_before = k.carried.len();
        assert_eq!(promote_locals(&mut k), 1);
        cfp_ir::verify(&k).unwrap();
        assert_eq!(k.carried.len(), carries_before + 1);
    }

    #[test]
    fn dynamic_index_blocks_promotion() {
        let mut k = compile_kernel(
            "kernel p(in i32 s[], out i32 d[]) {
                local i32 t[4];
                loop i {
                    t[s[i] & 3] = i32(1);
                    d[i] = t[0];
                }
            }",
            &[],
        )
        .unwrap();
        assert_eq!(promote_locals(&mut k), 0);
    }

    #[test]
    fn promotion_preserves_semantics_including_narrowing() {
        check_same_results(
            "kernel p(in i32 s[], out i32 d[]) {
                local u8 t[2];
                loop i {
                    t[0] = s[i];          // truncates to u8
                    t[1] = t[0] + 300;    // truncates again
                    d[i] = t[1] + t[0];
                }
            }",
            &[],
            |k| {
                let mut o = k.clone();
                assert_eq!(promote_locals(&mut o), 1);
                o
            },
            1,
        );
    }

    #[test]
    fn cross_iteration_scratch_preserves_semantics() {
        check_same_results(
            "kernel p(in i32 s[], out i32 d[]) {
                local i32 win[2];
                loop i {
                    d[i] = win[0] + win[1];
                    win[0] = win[1];
                    win[1] = s[i];
                }
            }",
            &[],
            |k| {
                let mut o = k.clone();
                assert_eq!(promote_locals(&mut o), 1);
                o
            },
            1,
        );
    }

    #[test]
    fn each_array_numbers_its_registers_in_one_block() {
        // Interleaved accesses to two arrays: `t`'s fresh registers (a
        // carried input and two stores) still come before `u`'s, each
        // in body order, as when arrays were promoted one at a time.
        let mut k = compile_kernel(
            "kernel p(in i32 s[], out i32 d[]) {
                local i32 t[2];
                local i32 u[2];
                loop i {
                    u[0] = s[i];
                    t[0] = u[0] + t[1];
                    u[1] = t[0];
                    t[1] = u[1];
                    d[i] = t[1];
                }
            }",
            &[],
        )
        .unwrap();
        let first_fresh = k.vreg_count();
        assert_eq!(promote_locals(&mut k), 2);
        cfp_ir::verify(&k).unwrap();
        let fresh_defs: Vec<u32> = k
            .body
            .iter()
            .filter_map(Inst::def)
            .map(|d| d.0)
            .filter(|&d| d >= first_fresh)
            .collect();
        // Body order: u[0]=, t[0]=, u[1]=, t[1]=; `t` owns the first
        // three numbers (its carried input is the first of them).
        let f = first_fresh;
        assert_eq!(fresh_defs, [f + 3, f + 1, f + 4, f + 2]);
        assert_eq!(k.carried.last().map(|c| c.input), Some(Vreg(f)));
    }

    #[test]
    fn a_huge_local_array_costs_what_its_accesses_do() {
        // The tables are as long as the code, not as the declaration.
        let mut k = compile_kernel(
            "kernel p(in i32 s[], out i32 d[]) {
                local i32 t[4000000000];
                loop i {
                    t[2147483647] = s[i];
                    d[i] = t[2147483647] + t[7];
                }
            }",
            &[],
        )
        .unwrap();
        assert_eq!(promote_locals(&mut k), 1);
        cfp_ir::verify(&k).unwrap();
        assert_eq!(k.mem_counts(), (0, 2));
    }
}
