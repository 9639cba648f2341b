//! Common-subexpression and redundant-load elimination.
//!
//! Value numbering within each section (preamble and body are numbered
//! separately; cross-section redundancy is handled by LICM + a second
//! pipeline round). Loads participate with a per-array *store epoch*: two
//! loads of the same access function merge only when no store to that
//! array sits between them. Arrays never alias each other (the DSL
//! guarantees it), so a store only bumps its own array's epoch.
//!
//! After unrolling, this pass is what turns a stencil's overlapping
//! window loads into register reuse — the main reason unrolled kernels
//! demand both registers *and* fewer memory ports.

use crate::NO_VREG;
use cfp_ir::{Inst, Kernel, Operand, Vreg, WordMap};
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};

/// What makes two instructions compute the same value, in four words:
/// the expression table hashes four words and compares 32 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    /// The instruction kind (bits 0–7), its operation, predicate or
    /// element type (bits 8–15), one bit per `args` slot that holds a
    /// register number rather than an immediate (bits 16–18), and for
    /// loads whether there is a dynamic index at all (bit 19).
    head: u32,
    /// Loads: the array read *and* its store epoch, as one number —
    /// the generation the array's last store (or the section's start)
    /// gave it. Every store draws a number no array held before, so two
    /// loads agree here exactly when they read the same array with no
    /// store to it between them.
    generation: u32,
    /// The operands in operand order, each a register number or an
    /// immediate. Loads: stride, offset, dynamic index.
    args: [i64; 3],
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(u64::from(self.head) | u64::from(self.generation) << 32);
        for a in self.args {
            state.write_u64(a as u64);
        }
    }
}

impl Key {
    fn new(kind: u32, code: u32, operands: &[Operand]) -> Key {
        let mut key = Key {
            head: kind | code << 8,
            generation: 0,
            args: [0; 3],
        };
        for (slot, &o) in operands.iter().enumerate() {
            key.set(slot, o);
        }
        key
    }

    fn set(&mut self, slot: usize, o: Operand) {
        self.args[slot] = match o {
            Operand::Reg(v) => {
                self.head |= 1 << (16 + slot);
                i64::from(v.0)
            }
            Operand::Imm(i) => i64::from(i),
        };
    }
}

/// Run CSE over the kernel. Returns whether any instruction was merged.
pub fn eliminate(kernel: &mut Kernel) -> bool {
    let n_vregs = kernel.vreg_count() as usize;
    let n_arrays = kernel.arrays.len();
    // One substitution table per section, each indexed by the eliminated
    // register: numbering a section resolves operands through its own
    // eliminations only.
    let mut subst_pre = vec![NO_VREG; n_vregs];
    let mut subst = vec![NO_VREG; n_vregs];
    let merged = number_section(&mut kernel.preamble, n_arrays, &mut subst_pre)
        + number_section(&mut kernel.body, n_arrays, &mut subst);
    if merged == 0 {
        return false;
    }
    for (s, &pre) in subst.iter_mut().zip(&subst_pre) {
        if pre != NO_VREG {
            *s = pre;
        }
    }
    crate::substitute(kernel, |v| resolve(&subst, v));
    true
}

fn resolve(subst: &[Vreg], mut v: Vreg) -> Vreg {
    while subst[v.index()] != NO_VREG {
        v = subst[v.index()];
    }
    v
}

/// Value-number one section in place, recording `subst[dst] = earlier`
/// for every instruction dropped as a duplicate. Returns how many were.
fn number_section(insts: &mut Vec<Inst>, n_arrays: usize, subst: &mut [Vreg]) -> usize {
    // The table is the one place the optimizer still hashes — its keys
    // are not small integers — and it is only ever probed, so the
    // in-process table hash serves.
    let mut table: WordMap<Key, Vreg> =
        WordMap::with_capacity_and_hasher(insts.len(), Default::default());
    // Each array's generation; arrays start on their own numbers and a
    // store draws the next unused one. A section holds fewer than
    // 2^32 − arrays stores, so the numbers never repeat.
    let mut generation: Vec<u32> = (0..).take(n_arrays).collect();
    let mut next_generation = generation.len() as u32;
    let mut kept = 0;
    for i in 0..insts.len() {
        let mut inst = insts[i];
        inst.map_operands(|o| match o {
            Operand::Reg(v) => Operand::Reg(resolve(subst, v)),
            imm => imm,
        });
        if let Inst::St { mem, .. } = &inst {
            generation[mem.array.index()] = next_generation;
            next_generation += 1;
        }
        if let Some((dst, key)) = key_of(&inst, &generation) {
            match table.entry(key) {
                Entry::Occupied(first) => {
                    subst[dst.index()] = *first.get();
                    continue;
                }
                Entry::Vacant(slot) => {
                    slot.insert(dst);
                }
            }
        }
        insts[kept] = inst;
        kept += 1;
    }
    let merged = insts.len() - kept;
    insts.truncate(kept);
    merged
}

/// The register an instruction defines and the key of the value it
/// computes; `None` for stores.
fn key_of(inst: &Inst, generation: &[u32]) -> Option<(Vreg, Key)> {
    Some(match *inst {
        Inst::Bin { dst, op, a, b } => {
            let (a, b) = if op.is_commutative() {
                canonical_pair(a, b)
            } else {
                (a, b)
            };
            (dst, Key::new(0, op as u32, &[a, b]))
        }
        Inst::Un { dst, op, a } => (dst, Key::new(1, op as u32, &[a])),
        Inst::Cmp { dst, pred, a, b } => {
            // `a < b` and `b > a` share a key via predicate swapping.
            let (ca, cb) = canonical_pair(a, b);
            let pred = if (ca, cb) == (a, b) {
                pred
            } else {
                pred.swapped()
            };
            (dst, Key::new(2, pred as u32, &[ca, cb]))
        }
        Inst::Sel {
            dst,
            cond,
            on_true,
            on_false,
        } => (dst, Key::new(3, 0, &[cond, on_true, on_false])),
        Inst::Fused { dst, op, a, b, c } => (dst, Key::new(4, u32::from(op.0), &[a, b, c])),
        Inst::Ld { dst, mem, ty } => {
            let mut key = Key::new(5, ty as u32, &[]);
            key.generation = generation[mem.array.index()];
            key.args = [mem.coeff, mem.offset, 0];
            if let Some(d) = mem.dyn_index {
                key.head |= 1 << 19;
                key.set(2, d);
            }
            (dst, key)
        }
        Inst::St { .. } => return None,
    })
}

fn canonical_pair(a: Operand, b: Operand) -> (Operand, Operand) {
    if rank(a) <= rank(b) {
        (a, b)
    } else {
        (b, a)
    }
}

fn rank(o: Operand) -> (u8, i64) {
    match o {
        Operand::Imm(i) => (0, i64::from(i)),
        Operand::Reg(Vreg(n)) => (1, i64::from(n)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_ir::{BinOp, KernelBuilder, MemSpace, Pred, Ty};

    #[test]
    fn merges_identical_loads() {
        let mut b = KernelBuilder::new("t");
        let s = b.array_in("s", Ty::I32, MemSpace::L2);
        let d = b.array_out("d", Ty::I32, MemSpace::L2);
        let x = b.load(s, 1, 0, Ty::I32);
        let y = b.load(s, 1, 0, Ty::I32);
        let z = b.add(x, y);
        b.store(d, 1, 0, z, Ty::I32);
        let mut k = b.finish();
        eliminate(&mut k);
        let loads = k
            .body
            .iter()
            .filter(|i| matches!(i, Inst::Ld { .. }))
            .count();
        assert_eq!(loads, 1);
        // The add now reads the surviving load twice.
        let Inst::Bin { a, b: bb, .. } = k.body[1] else {
            panic!()
        };
        assert_eq!(a, bb);
    }

    #[test]
    fn store_blocks_load_merging_for_that_array_only() {
        let mut b = KernelBuilder::new("t");
        let buf = b.array_inout("buf", Ty::I32, MemSpace::L2);
        let other = b.array_in("o", Ty::I32, MemSpace::L2);
        let d = b.array_out("d", Ty::I32, MemSpace::L2);
        let x1 = b.load(buf, 1, 0, Ty::I32);
        let o1 = b.load(other, 1, 0, Ty::I32);
        b.store(buf, 1, 0, 99_i64, Ty::I32);
        let x2 = b.load(buf, 1, 0, Ty::I32);
        let o2 = b.load(other, 1, 0, Ty::I32);
        let s1 = b.add(x1, x2);
        let s2 = b.add(o1, o2);
        let s = b.add(s1, s2);
        b.store(d, 1, 0, s, Ty::I32);
        let mut k = b.finish();
        eliminate(&mut k);
        let buf_loads = k
            .body
            .iter()
            .filter(|i| matches!(i, Inst::Ld { mem, .. } if mem.array == buf))
            .count();
        let other_loads = k
            .body
            .iter()
            .filter(|i| matches!(i, Inst::Ld { mem, .. } if mem.array == other))
            .count();
        assert_eq!(buf_loads, 2, "store to buf blocks merging");
        assert_eq!(other_loads, 1, "other array is unaffected");
    }

    #[test]
    fn commutative_ops_share_a_key() {
        let mut b = KernelBuilder::new("t");
        let s = b.array_in("s", Ty::I32, MemSpace::L2);
        let d = b.array_out("d", Ty::I32, MemSpace::L2);
        let x = b.load(s, 1, 0, Ty::I32);
        let y = b.load(s, 1, 1, Ty::I32);
        let p = b.add(x, y);
        let q = b.add(y, x);
        let z = b.mul(p, q);
        b.store(d, 1, 0, z, Ty::I32);
        let mut k = b.finish();
        eliminate(&mut k);
        let adds = k
            .body
            .iter()
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Add, .. }))
            .count();
        assert_eq!(adds, 1);
    }

    #[test]
    fn swapped_compares_share_a_key() {
        let mut b = KernelBuilder::new("t");
        let s = b.array_in("s", Ty::I32, MemSpace::L2);
        let d = b.array_out("d", Ty::I32, MemSpace::L2);
        let x = b.load(s, 1, 0, Ty::I32);
        let y = b.load(s, 1, 1, Ty::I32);
        let c1 = b.cmp(Pred::Lt, x, y);
        let c2 = b.cmp(Pred::Gt, y, x);
        let z = b.add(c1, c2);
        b.store(d, 1, 0, z, Ty::I32);
        let mut k = b.finish();
        eliminate(&mut k);
        let cmps = k
            .body
            .iter()
            .filter(|i| matches!(i, Inst::Cmp { .. }))
            .count();
        assert_eq!(cmps, 1);
    }

    #[test]
    fn subtraction_is_not_commuted() {
        let mut b = KernelBuilder::new("t");
        let s = b.array_in("s", Ty::I32, MemSpace::L2);
        let d = b.array_out("d", Ty::I32, MemSpace::L2);
        let x = b.load(s, 1, 0, Ty::I32);
        let y = b.load(s, 1, 1, Ty::I32);
        let p = b.sub(x, y);
        let q = b.sub(y, x);
        let z = b.add(p, q);
        b.store(d, 1, 0, z, Ty::I32);
        let mut k = b.finish();
        eliminate(&mut k);
        let subs = k
            .body
            .iter()
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Sub, .. }))
            .count();
        assert_eq!(subs, 2);
    }

    #[test]
    fn chains_of_duplicates_collapse_transitively() {
        let mut b = KernelBuilder::new("t");
        let s = b.array_in("s", Ty::I32, MemSpace::L2);
        let d = b.array_out("d", Ty::I32, MemSpace::L2);
        let x1 = b.load(s, 1, 0, Ty::I32);
        let x2 = b.load(s, 1, 0, Ty::I32);
        let a1 = b.add(x1, 1_i64);
        let a2 = b.add(x2, 1_i64); // dup only after load merge
        let z = b.mul(a1, a2);
        b.store(d, 1, 0, z, Ty::I32);
        let mut k = b.finish();
        eliminate(&mut k);
        assert_eq!(k.body.len(), 4, "load + add + mul + store, {:#?}", k.body);
    }
}
