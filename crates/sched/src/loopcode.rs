//! Lowering a kernel body to schedulable operations.
//!
//! The IR keeps memory access functions symbolic (`coeff·i + offset`),
//! which is what a machine with register+offset addressing and per-stream
//! address registers executes. The issue slots for maintaining those
//! address registers are still real, so this stage materializes them as
//! explicit operations:
//!
//! * one *pointer bump* add per array stream (an array the body accesses
//!   with `coeff != 0`);
//! * the induction-variable add, the loop-bound compare, and the
//!   loop-closing branch (which may only issue on cluster 0's branch
//!   unit).
//!
//! These overhead ops participate in scheduling, cluster assignment, and
//! register pressure exactly like body ops.

use cfp_ir::{ArrayId, Inst, Kernel, Vreg};
use cfp_machine::MachineResources;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// Which machine-description op class an operation belongs to. The
/// scheduler classifies IR here (the machine crate never sees IR);
/// everything the class *implies* — latency, pipelining, which unit an
/// issue occupies — is read from the machine description
/// ([`cfp_machine::Mdes`]), never hardcoded in this crate.
pub use cfp_machine::OpClass as FuClass;

/// Where a schedulable op came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpOrigin {
    /// `body[index]` of the kernel.
    Body(usize),
    /// An inter-cluster copy inserted by cluster assignment.
    Move {
        /// The value being copied.
        src: Vreg,
        /// Destination cluster.
        to: u32,
    },
    /// Address-register bump for one array stream.
    StreamBump(ArrayId),
    /// Induction-variable add.
    Induction,
    /// Loop-bound compare.
    LoopTest,
    /// Loop-closing branch.
    LoopBranch,
}

/// The registers one op reads, in operand order. No IR instruction has
/// more than three register operands, so the list is stored inline: an
/// [`SOp`] owns no heap memory and cloning a [`LoopCode`] copies its ops
/// as one block. Reads as a slice (derefs to `[Vreg]`); slots past the
/// length stay `Vreg(0)`, which keeps the derived equality exact.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Uses {
    len: u8,
    regs: [Vreg; 3],
}

impl Uses {
    /// The list holding `regs`.
    ///
    /// # Panics
    /// Panics on more than three registers.
    #[must_use]
    pub fn of(regs: &[Vreg]) -> Self {
        let mut uses = Uses::default();
        for &v in regs {
            uses.push(v);
        }
        uses
    }

    /// Append `v`.
    ///
    /// # Panics
    /// Panics if the list already holds three registers.
    pub fn push(&mut self, v: Vreg) {
        self.regs[usize::from(self.len)] = v;
        self.len += 1;
    }
}

impl Default for Uses {
    fn default() -> Self {
        Uses {
            len: 0,
            regs: [Vreg(0); 3],
        }
    }
}

impl Deref for Uses {
    type Target = [Vreg];
    fn deref(&self) -> &[Vreg] {
        &self.regs[..usize::from(self.len)]
    }
}

impl DerefMut for Uses {
    fn deref_mut(&mut self) -> &mut [Vreg] {
        &mut self.regs[..usize::from(self.len)]
    }
}

impl<'a> IntoIterator for &'a Uses {
    type Item = &'a Vreg;
    type IntoIter = std::slice::Iter<'a, Vreg>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for Uses {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.deref().fmt(f)
    }
}

/// One schedulable operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SOp {
    /// Provenance.
    pub origin: OpOrigin,
    /// The IR instruction, for body ops (used by the schedule simulator).
    pub inst: Option<Inst>,
    /// Functional-unit requirement.
    pub class: FuClass,
    /// Result latency in cycles.
    pub latency: u32,
    /// Defined register, if any.
    pub def: Option<Vreg>,
    /// Registers read.
    pub uses: Uses,
}

/// The flattened, schedulable form of one loop iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopCode {
    /// All operations (body order first, then overhead ops).
    pub ops: Vec<SOp>,
    /// Values live into each iteration (carried inputs, resident preamble
    /// values, stream pointers, induction state, loop bound).
    pub live_ins: Vec<Vreg>,
    /// The subset of live-ins that stay in a register for the whole loop
    /// (preamble values and the loop bound). Resident values are
    /// broadcast to every cluster that reads them at loop setup, so
    /// cross-cluster reads of them need no per-iteration move — but they
    /// occupy a register in *each* such cluster.
    pub resident: Vec<Vreg>,
    /// Carried pairs `(in, out)`: at the iteration boundary the value of
    /// `out` becomes `in`. Includes the kernel's carried scalars plus the
    /// synthetic pointer/induction chains.
    pub carried: Vec<(Vreg, Vreg)>,
    /// One past the highest vreg number in use.
    pub vreg_limit: u32,
}

impl LoopCode {
    /// Build the schedulable form of `kernel`'s body for `machine`.
    #[must_use]
    pub fn build(kernel: &Kernel, machine: &MachineResources) -> Self {
        let mut next = kernel.vreg_count();
        let mut fresh = || {
            let v = Vreg(next);
            next += 1;
            v
        };

        // Body ops, the three loop-control ops, and at most one pointer
        // bump per array.
        let mut ops: Vec<SOp> = Vec::with_capacity(kernel.body.len() + 3 + kernel.arrays.len());
        for (i, inst) in kernel.body.iter().enumerate() {
            let class = class_of(inst, kernel);
            let mut uses = Uses::default();
            inst.for_each_use(|v| uses.push(v));
            ops.push(SOp {
                origin: OpOrigin::Body(i),
                inst: Some(*inst),
                class,
                latency: machine.latency(class),
                def: inst.def(),
                uses,
            });
        }

        let mut carried: Vec<(Vreg, Vreg)> =
            kernel.carried.iter().map(|c| (c.input, c.output)).collect();
        let mut live_ins = kernel.body_live_ins();

        // One pointer bump per streamed array, in array order.
        let mut streamed = vec![false; kernel.arrays.len()];
        for m in kernel.body.iter().filter_map(Inst::mem) {
            streamed[m.array.index()] |= m.coeff != 0;
        }
        for array in (0..)
            .map(ArrayId)
            .zip(&streamed)
            .filter_map(|(a, &s)| s.then_some(a))
        {
            let cur = fresh();
            let nxt = fresh();
            ops.push(SOp {
                origin: OpOrigin::StreamBump(array),
                inst: None,
                class: FuClass::Alu,
                latency: machine.latency(FuClass::Alu),
                def: Some(nxt),
                uses: Uses::of(&[cur]),
            });
            carried.push((cur, nxt));
            live_ins.push(cur);
        }

        // Induction variable, loop test, loop branch.
        let i_cur = fresh();
        let i_nxt = fresh();
        let bound = fresh();
        let test = fresh();
        ops.push(SOp {
            origin: OpOrigin::Induction,
            inst: None,
            class: FuClass::Alu,
            latency: machine.latency(FuClass::Alu),
            def: Some(i_nxt),
            uses: Uses::of(&[i_cur]),
        });
        ops.push(SOp {
            origin: OpOrigin::LoopTest,
            inst: None,
            class: FuClass::Alu,
            latency: machine.latency(FuClass::Alu),
            def: Some(test),
            uses: Uses::of(&[i_nxt, bound]),
        });
        ops.push(SOp {
            origin: OpOrigin::LoopBranch,
            inst: None,
            class: FuClass::Branch,
            latency: machine.latency(FuClass::Branch),
            def: None,
            uses: Uses::of(&[test]),
        });
        carried.push((i_cur, i_nxt));
        live_ins.push(i_cur);
        live_ins.push(bound);

        // Resident values: preamble-defined live-ins plus the loop bound.
        let mut preamble_def = vec![false; next as usize];
        for d in kernel.preamble.iter().filter_map(Inst::def) {
            preamble_def[d.index()] = true;
        }
        let mut resident: Vec<Vreg> = live_ins
            .iter()
            .copied()
            .filter(|v| preamble_def[v.index()])
            .collect();
        resident.push(bound);

        LoopCode {
            ops,
            live_ins,
            resident,
            carried,
            vreg_limit: next,
        }
    }

    /// Indices of the ops that are memory accesses.
    #[must_use]
    pub fn mem_ops(&self) -> Vec<usize> {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.class.is_mem())
            .map(|(i, _)| i)
            .collect()
    }

    /// Index of the loop branch op.
    ///
    /// # Panics
    /// Panics if the loop code was not built by [`LoopCode::build`].
    #[must_use]
    pub fn branch_index(&self) -> usize {
        self.ops
            .iter()
            .position(|o| o.origin == OpOrigin::LoopBranch)
            .expect("loop code always carries its branch")
    }
}

fn class_of(inst: &Inst, kernel: &Kernel) -> FuClass {
    if let Some(op) = inst.fused_op() {
        // Fused ops issue under their extension's registered class; the
        // machine description binds it to the unit the extension upgrades.
        return FuClass::Fused(op.row().ext);
    }
    if inst.needs_mul_unit() {
        return FuClass::Mul;
    }
    if let Some(m) = inst.mem() {
        // `MemSpace` declares L1 then L2: its discriminant is the level.
        return FuClass::mem(kernel.array(m.array).space as usize);
    }
    FuClass::Alu
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_frontend::compile_kernel;
    use cfp_machine::ArchSpec;

    fn machine() -> MachineResources {
        MachineResources::from_spec(&ArchSpec::baseline())
    }

    fn sample() -> Kernel {
        compile_kernel(
            "kernel s(in u8 src[], in l1 i16 tbl[], out i32 dst[]) {
                var c = tbl[0];
                var acc = 0;
                loop i {
                    acc = acc + src[i] * c;
                    dst[i] = acc;
                }
            }",
            &[],
        )
        .unwrap()
    }

    #[test]
    fn overhead_ops_are_materialized() {
        let k = sample();
        let lc = LoopCode::build(&k, &machine());
        // Body ops + 2 stream bumps (src, dst) + induction + test + branch.
        assert_eq!(lc.ops.len(), k.body.len() + 5);
        let bumps = lc
            .ops
            .iter()
            .filter(|o| matches!(o.origin, OpOrigin::StreamBump(_)))
            .count();
        assert_eq!(bumps, 2);
        assert_eq!(lc.ops[lc.branch_index()].class, FuClass::Branch);
    }

    #[test]
    fn classes_and_latencies_follow_the_machine() {
        let k = sample();
        let spec = ArchSpec::new(4, 2, 128, 1, 4, 1).unwrap();
        let lc = LoopCode::build(&k, &MachineResources::from_spec(&spec));
        let classes: Vec<FuClass> = lc.ops.iter().map(|o| o.class).collect();
        assert!(classes.contains(&FuClass::Mul));
        assert!(classes.contains(&FuClass::MemL2));
        for op in &lc.ops {
            match op.class {
                FuClass::Mul => assert_eq!(op.latency, 2),
                FuClass::MemL2 => assert_eq!(op.latency, 4),
                FuClass::MemL1 => assert_eq!(op.latency, 3),
                _ => assert_eq!(op.latency, 1),
            }
        }
    }

    #[test]
    fn carried_chains_cover_pointers_and_induction() {
        let k = sample();
        let lc = LoopCode::build(&k, &machine());
        // acc + 2 pointers + induction.
        assert_eq!(lc.carried.len(), 4);
        for (inp, _) in &lc.carried {
            assert!(lc.live_ins.contains(inp));
        }
    }

    #[test]
    fn resident_values_include_constants_and_bound() {
        let k = sample();
        let lc = LoopCode::build(&k, &machine());
        // The hoisted tbl[0] load and the loop bound.
        assert_eq!(lc.resident.len(), 2);
    }

    /// The two fused-operation tables join by extension index: every
    /// operation row names an extension row, every extension provides
    /// some operation, an operation multiplies exactly when its
    /// extension upgrades the multiplier, and a fused instruction issues
    /// under its extension's class on that extension's unit.
    #[test]
    fn the_operation_table_joins_the_extension_table() {
        use cfp_ir::{FusedOp, Operand, FUSED_OPS};
        use cfp_machine::{ExtSet, UnitClass, EXTENSIONS};
        let extended =
            MachineResources::from_spec(&ArchSpec::baseline().with_extensions(ExtSet::ALL));
        let empty = cfp_ir::KernelBuilder::new("k").finish();
        for op in FusedOp::all() {
            assert!(usize::from(op.row().ext) < EXTENSIONS.len(), "{op}");
            let ext = &EXTENSIONS[usize::from(op.row().ext)];
            assert_eq!(op.needs_mul_unit(), ext.unit == UnitClass::Mul, "{op}");
            let inst = Inst::Fused {
                dst: Vreg(0),
                op,
                a: Operand::Imm(1),
                b: Operand::Imm(2),
                c: Operand::Imm(3),
            };
            let class = class_of(&inst, &empty);
            assert_eq!(class.code(), 5 + u32::from(op.row().ext), "{op}");
            assert_eq!(extended.mdes.op(class).unit, ext.unit, "{op}");
            assert!(
                extended.mdes.registered_classes().any(|c| c == class),
                "{op}"
            );
        }
        for (i, ext) in EXTENSIONS.iter().enumerate() {
            assert!(
                FUSED_OPS.iter().any(|row| usize::from(row.ext) == i),
                "extension {} provides no operation",
                ext.name
            );
        }
    }
}
