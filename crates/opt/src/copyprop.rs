//! Copy propagation.
//!
//! Folding and algebraic simplification leave `mov dst, src` chains
//! behind; without this pass every one of them would occupy a real ALU
//! slot in the schedule. Uses of a copied value are rewritten to the
//! copy's source (transitively), after which DCE deletes the dead moves.
//!
//! Carried values constrain the rewrite: a carried *output* must remain
//! a body-defined register, so an output that is a copy is retargeted to
//! the copy's source only when that source is itself body-defined.

use cfp_ir::{CarriedInit, Inst, Kernel, Operand, UnOp};

/// Propagate copies through the kernel. Follow with DCE to remove the
/// dead moves. Returns whether any instruction or carry changed.
pub fn propagate(kernel: &mut Kernel) -> bool {
    // The source of every copy, indexed by the copy's register.
    let n_vregs = kernel.vreg_count() as usize;
    let mut copy_of: Vec<Option<Operand>> = vec![None; n_vregs];
    let mut copies = 0_usize;
    for inst in kernel.preamble.iter().chain(&kernel.body) {
        if let Inst::Un {
            dst,
            op: UnOp::Copy,
            a,
        } = inst
        {
            copies += usize::from(copy_of[dst.index()].replace(*a).is_none());
        }
    }
    if copies == 0 {
        return false;
    }
    let resolve = |mut o: Operand| {
        // Transitive, with a hop cap as a cycle guard (copies cannot form
        // cycles under single assignment, but stay defensive).
        for _ in 0..=copies {
            match o {
                Operand::Reg(v) => match copy_of[v.index()] {
                    Some(next) => o = next,
                    None => return o,
                },
                imm => return imm,
            }
        }
        o
    };

    let mut changed = false;
    for inst in kernel.preamble.iter_mut().chain(kernel.body.iter_mut()) {
        let old = *inst;
        inst.map_operands(resolve);
        changed |= *inst != old;
    }

    // Carried plumbing: which section, if any, defines each register.
    const PREAMBLE: u8 = 1;
    const BODY: u8 = 2;
    let mut def_in = vec![0_u8; n_vregs];
    for d in kernel.preamble.iter().filter_map(Inst::def) {
        def_in[d.index()] |= PREAMBLE;
    }
    for d in kernel.body.iter().filter_map(Inst::def) {
        def_in[d.index()] |= BODY;
    }
    for c in &mut kernel.carried {
        let old = *c;
        if let Operand::Reg(v) = resolve(Operand::Reg(c.output)) {
            if v == c.input || def_in[v.index()] & BODY != 0 {
                c.output = v;
            }
        }
        if let CarriedInit::Preamble(p) = c.init {
            match resolve(Operand::Reg(p)) {
                Operand::Reg(v) if def_in[v.index()] & PREAMBLE != 0 => {
                    c.init = CarriedInit::Preamble(v);
                }
                Operand::Imm(k) => c.init = CarriedInit::Const(k),
                Operand::Reg(_) => {}
            }
        }
        changed |= *c != old;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::check_same_results;
    use cfp_frontend::compile_kernel;
    use cfp_ir::{KernelBuilder, MemSpace, Ty};

    #[test]
    fn consumers_bypass_copy_chains() {
        let mut b = KernelBuilder::new("t");
        let s = b.array_in("s", Ty::I32, MemSpace::L2);
        let d = b.array_out("d", Ty::I32, MemSpace::L2);
        let x = b.load(s, 1, 0, Ty::I32);
        let c1 = b.mov(x);
        let c2 = b.mov(c1);
        let y = b.add(c2, 1_i64);
        b.store(d, 1, 0, y, Ty::I32);
        let mut k = b.finish();
        propagate(&mut k);
        crate::dce::eliminate(&mut k);
        cfp_ir::verify(&k).unwrap();
        assert_eq!(k.body.len(), 3, "load + add + store: {:#?}", k.body);
        let Inst::Bin { a, .. } = k.body[1] else {
            panic!()
        };
        assert_eq!(a, Operand::Reg(x));
    }

    #[test]
    fn immediate_copies_fold_into_operands() {
        let mut b = KernelBuilder::new("t");
        let d = b.array_out("d", Ty::I32, MemSpace::L2);
        let c = b.mov(41_i64);
        let y = b.add(c, 1_i64);
        b.store(d, 1, 0, y, Ty::I32);
        let mut k = b.finish();
        propagate(&mut k);
        crate::dce::eliminate(&mut k);
        let Inst::Bin { a, .. } = k.body[0] else {
            panic!()
        };
        assert_eq!(a, Operand::Imm(41));
    }

    #[test]
    fn carried_output_retargets_only_to_body_defs() {
        // The carried output is a copy of a preamble constant: the mov
        // must survive (outputs must be body-defined).
        let mut b = KernelBuilder::new("t");
        b.in_preamble(true);
        let k0 = b.mov(7_i64);
        b.in_preamble(false);
        let out = b.mov(k0);
        let inp = b.carry(out, cfp_ir::CarriedInit::Const(0));
        let d = b.array_out("d", Ty::I32, MemSpace::L2);
        b.store(d, 1, 0, inp, Ty::I32);
        let mut k = b.finish();
        propagate(&mut k);
        crate::dce::eliminate(&mut k);
        cfp_ir::verify(&k).expect("carried output still body-defined");
    }

    #[test]
    fn full_pipeline_removes_simplification_movs() {
        let mut k = compile_kernel(
            "kernel t(in i32 s[], out i32 d[]) {
                loop i { d[i] = (s[i] * 1 + 0) * 4; }
            }",
            &[],
        )
        .unwrap();
        crate::optimize(&mut k);
        // *1 and +0 vanish entirely; *4 became a shift; no copies left.
        let copies = k
            .body
            .iter()
            .filter(|i| matches!(i, Inst::Un { op: UnOp::Copy, .. }))
            .count();
        assert_eq!(copies, 0, "{:#?}", k.body);
        assert_eq!(k.body.len(), 3);
    }

    #[test]
    fn propagation_preserves_semantics() {
        check_same_results(
            "kernel t(in i32 s[], out i32 d[]) {
                var acc = 0;
                loop i {
                    var x = s[i] * 1;
                    var y = x + 0;
                    acc = acc + y;
                    d[i] = acc;
                }
            }",
            &[],
            |k| {
                let mut o = k.clone();
                crate::optimize(&mut o);
                o
            },
            1,
        );
    }
}
