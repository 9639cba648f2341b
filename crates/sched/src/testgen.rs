//! Seeded test kernels, compiled into tests only: this crate's unit
//! tests declare the module under `#[cfg(test)]`, and the root package's
//! `tests/sched_equivalence.rs` includes the file by path, so both run
//! the same generator.

use cfp_ir::{Inst, Kernel, KernelBuilder, MemRef, MemSpace, Operand, Ty};
use cfp_testkit::Rng;

/// A seeded kernel that is mostly memory traffic: load-only,
/// store-only and read-write arrays on both memory levels, two
/// strides and colliding offsets on one array, dynamic indices.
pub fn memory_heavy(rng: &mut Rng) -> Kernel {
    let mut b = KernelBuilder::new("memory_heavy");
    let ins = [
        b.array_in("a", Ty::I32, MemSpace::L2),
        b.array_in("t", Ty::I16, MemSpace::L1),
    ];
    let outs = [
        b.array_out("d", Ty::I32, MemSpace::L2),
        b.array_out("e", Ty::I32, MemSpace::L1),
    ];
    let both = [
        b.array_inout("p", Ty::I32, MemSpace::L2),
        b.array_inout("q", Ty::I32, MemSpace::L1),
    ];
    let mut vals = vec![b.load(ins[0], 1, 0, Ty::I32)];
    for _ in 0..rng.index(40) + 2 {
        let store = rng.index(5) < 2;
        let array = match (store, rng.gen_bool()) {
            (_, true) => *rng.pick(&both),
            (true, false) => *rng.pick(&outs),
            (false, false) => *rng.pick(&ins),
        };
        let mem = MemRef {
            array,
            coeff: *rng.pick(&[0, 1, 1, 2]),
            offset: rng.range_i64(0..=3),
            dyn_index: (rng.index(6) == 0).then(|| Operand::Reg(*rng.pick(&vals))),
        };
        if store {
            let value = Operand::Reg(*rng.pick(&vals));
            b.push(Inst::St {
                mem,
                value,
                ty: Ty::I32,
            });
        } else {
            let dst = b.fresh();
            b.push(Inst::Ld {
                dst,
                mem,
                ty: Ty::I32,
            });
            vals.push(dst);
        }
        if rng.gen_bool() {
            let (x, y) = (*rng.pick(&vals), *rng.pick(&vals));
            vals.push(b.add(x, y));
        }
    }
    b.store(outs[0], 1, 0, *vals.last().unwrap(), Ty::I32);
    b.finish()
}
