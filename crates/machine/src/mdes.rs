//! The declarative machine description (MDES): one source of truth for
//! op latencies, unit classes, per-cluster unit counts, and reservation
//! semantics.
//!
//! In the Multiflow/HPL-PD tradition the paper's compiler descends from,
//! a *machine description* is a declarative table the whole back end is
//! generated from — the scheduler, the simulator, and the cost models
//! all read the same spec, so retargeting touches one place. [`Mdes`] is
//! that table here: derived deterministically from an
//! [`ArchSpec`], it holds
//!
//! * an **op-class table** ([`OpDesc`] per [`OpClass`]): result latency,
//!   whether issues pipeline, and which [`UnitClass`] an issue occupies;
//! * a **unit table** ([`ClusterUnits`] per cluster): how many units of
//!   each class the cluster provides, plus its register-bank capacity;
//! * a **reservation model**: an issue of class `k` occupies one unit of
//!   `ops[k].unit` for [`OpDesc::reserved_cycles`] cycles — `1` when the
//!   unit pipelines, the full latency when it does not — and a multiply
//!   also takes one ALU issue slot. [`Mdes::reservations`] states it as
//!   rows of one **reservation table**, row `5·cluster + unit` backed by
//!   [`Mdes::units`] of that cluster and unit ([`Mdes::row_units`]).
//!
//! Everything downstream consumes these tables instead of matching on
//! hardcoded enums: `cfp-sched`'s lowering and issue scan, ResMII, the
//! modulo schedulers and their validator, the simulator's resource
//! validation, the spill-penalty model, and the
//! scheduling signature (which hashes the MDES content so compilation
//! reuse and checkpoint fingerprints track the description, not the
//! tuple). Adding a design-space axis — e.g. pipelined Level-2 ports,
//! [`ArchSpec::with_pipelined_l2`] — therefore touches only this
//! derivation.
//!
//! The custom-instruction axis ([`ArchSpec::with_extensions`]) works the
//! same way, read from the extension table ([`crate::EXTENSIONS`]): row
//! `i` describes op class [`OpClass::Fused`]`(i)`, code `5 + i`, as a
//! copy of the base row of the unit it upgrades — the multiplier's for
//! `madd`, the ALU's for the ALU-pair fusions — registered when the
//! spec's extension set holds the row and dumped as `f.<name>`. A fused
//! op occupies an existing unit, so no new unit class and no new
//! reservation row exists anywhere downstream. The fused rows hash
//! *after* everything the historical description hashed, so an empty
//! extension set keeps every content hash, signature, and checkpoint
//! fingerprint bit-identical.

use crate::arch::ArchSpec;
use crate::ext::{ExtSet, EXTENSIONS};
use std::fmt::Write as _;

/// Latency of a plain ALU operation (cycles).
pub const ALU_LATENCY: u32 = 1;
/// Latency of an integer multiply (cycles, pipelined).
pub const MUL_LATENCY: u32 = 2;
/// Latency of a Level-1 memory access (cycles, non-pipelined).
pub const L1_LATENCY: u32 = 3;
/// Latency of the loop-closing branch (cycles).
pub const BRANCH_LATENCY: u32 = 1;

/// The classes of schedulable operations. The discriminants are the
/// codes of the scheduler's packed per-op side array
/// (`meta & Mdes::CODE_MASK`), so an [`Mdes`] table row and a packed
/// word name the same class. Codes 0–4 are the built-in classes every
/// machine provides; code `5 + i` is the fused class of extension row
/// `i`, which an extension set holding the row registers
/// ([`ArchSpec::with_extensions`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Plain integer ALU operation (also inter-cluster moves).
    Alu,
    /// Integer multiply.
    Mul,
    /// Level-1 memory access.
    MemL1,
    /// Level-2 memory access.
    MemL2,
    /// The loop-closing branch.
    Branch,
    /// The fused operations of extension-table row `i`
    /// ([`crate::EXTENSIONS`]), issuing on the unit that row upgrades.
    Fused(u8),
}

impl OpClass {
    /// The built-in classes every machine provides, in packed-code order.
    pub const ALL: [OpClass; 5] = [
        OpClass::Alu,
        OpClass::Mul,
        OpClass::MemL1,
        OpClass::MemL2,
        OpClass::Branch,
    ];

    /// Number of op-class table rows: the built-ins, then one fused
    /// class per extension-table row.
    pub const COUNT: usize = OpClass::ALL.len() + EXTENSIONS.len();

    /// The packed side-array code of this class.
    #[must_use]
    pub fn code(self) -> u32 {
        match self {
            OpClass::Alu => 0,
            OpClass::Mul => 1,
            OpClass::MemL1 => 2,
            OpClass::MemL2 => 3,
            OpClass::Branch => 4,
            OpClass::Fused(i) => 5 + u32::from(i),
        }
    }

    /// Whether this class is a memory access (either level).
    #[must_use]
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::MemL1 | OpClass::MemL2)
    }

    /// The memory class for a level index (0 = L1, 1 = L2).
    #[must_use]
    pub fn mem(level: usize) -> OpClass {
        if level == 0 {
            OpClass::MemL1
        } else {
            OpClass::MemL2
        }
    }
}

/// The classes of issue resources a cluster provides. One table row per
/// class; [`OpDesc::unit`] says which row an issue of each op class
/// draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum UnitClass {
    /// ALU issue slots.
    Alu = 0,
    /// IMUL-capable issue slots.
    Mul = 1,
    /// Level-1 memory ports.
    L1Port = 2,
    /// Level-2 memory ports.
    L2Port = 3,
    /// The branch unit.
    Branch = 4,
}

impl UnitClass {
    /// Every unit class, in table order.
    pub const ALL: [UnitClass; 5] = [
        UnitClass::Alu,
        UnitClass::Mul,
        UnitClass::L1Port,
        UnitClass::L2Port,
        UnitClass::Branch,
    ];

    /// Human name, as used in resource-validation error messages.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            UnitClass::Alu => "ALU slots",
            UnitClass::Mul => "IMUL slots",
            UnitClass::L1Port => "L1 ports",
            UnitClass::L2Port => "L2 ports",
            UnitClass::Branch => "branch unit",
        }
    }
}

/// One op-class table row: how long the result takes, whether issues
/// pipeline, and which unit an issue occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpDesc {
    /// Result latency in cycles (consumers wait this long).
    pub latency: u32,
    /// Whether the unit accepts a new issue every cycle. A
    /// non-pipelined unit stays busy for the whole access.
    pub pipelined: bool,
    /// The unit class an issue of this op occupies.
    pub unit: UnitClass,
}

impl OpDesc {
    /// How many cycles one issue keeps its unit busy: `1` when the unit
    /// pipelines, the full latency when it does not. This is the
    /// reservation model's only knob.
    #[must_use]
    pub fn reserved_cycles(&self) -> u32 {
        if self.pipelined {
            1
        } else {
            self.latency
        }
    }
}

/// One reservation an issue makes in the reservation table: row `row`
/// held for `reserved` consecutive cycles from the issue cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResReq {
    /// Table row, `5·cluster +` the [`UnitClass`] discriminant.
    pub row: u32,
    /// Consecutive cycles one issue holds the row (1 for pipelined
    /// units, the full latency for non-pipelined ports).
    pub reserved: u32,
}

/// One cluster's row of the unit table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterUnits {
    /// Unit counts, indexed by [`UnitClass`] discriminant.
    pub counts: [u32; 5],
    /// Register-bank capacity (the one field the scheduler's signature
    /// ignores; only the final fits/spills verdict reads it).
    pub regs: u32,
}

impl ClusterUnits {
    /// Units of the given class on this cluster.
    #[must_use]
    pub fn count(&self, unit: UnitClass) -> u32 {
        self.counts[unit as usize]
    }

    /// Register-file ports of this cluster: `3` per ALU (two reads, one
    /// write) plus `2` per attached memory port.
    #[must_use]
    pub fn regfile_ports(&self) -> u32 {
        3 * self.count(UnitClass::Alu)
            + 2 * (self.count(UnitClass::L1Port) + self.count(UnitClass::L2Port))
    }
}

/// The machine description: op-class table plus per-cluster unit table,
/// derived deterministically from an [`ArchSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mdes {
    /// Op-class table, indexed by [`OpClass::code`]. The fused rows
    /// (codes 5 and up) are always *described* — copies of their
    /// units' base rows — but only *registered* (issuable, hashed,
    /// rendered) when [`Mdes::exts`] enables them.
    ops: [OpDesc; OpClass::COUNT],
    /// Unit table, one row per cluster.
    clusters: Vec<ClusterUnits>,
    /// Which fused rows are registered.
    exts: ExtSet,
}

impl Mdes {
    /// Bits of a packed issue-scan word that hold the op-class code.
    pub const CODE_BITS: u32 = 4;
    /// Mask selecting the code bits of a packed issue-scan word.
    pub const CODE_MASK: u32 = (1 << Mdes::CODE_BITS) - 1;

    /// Derive the description from an architecture spec. Latencies
    /// follow the paper's Table 4 (`ALU_LATENCY` and friends above);
    /// unit counts follow the spec's round-robin cluster dealing; the
    /// Level-2 reservation semantics follow
    /// [`ArchSpec::l2_pipelined`] — the extended design-space axis —
    /// and the registered fused rows follow [`ArchSpec::exts`] — the
    /// custom-instruction axis.
    #[must_use]
    pub fn from_spec(spec: &ArchSpec) -> Self {
        // Built-in class `k` issues on unit class `k`.
        let base = [
            OpDesc {
                latency: ALU_LATENCY,
                pipelined: true,
                unit: UnitClass::Alu,
            },
            OpDesc {
                latency: MUL_LATENCY,
                pipelined: true,
                unit: UnitClass::Mul,
            },
            OpDesc {
                latency: L1_LATENCY,
                pipelined: false,
                unit: UnitClass::L1Port,
            },
            OpDesc {
                latency: spec.l2_latency,
                pipelined: spec.l2_pipelined,
                unit: UnitClass::L2Port,
            },
            OpDesc {
                latency: BRANCH_LATENCY,
                pipelined: true,
                unit: UnitClass::Branch,
            },
        ];
        // A fused row keeps the timing of the unit it upgrades: the
        // extra stage rides the unit's existing cycle.
        let ops = std::array::from_fn(|k| match k.checked_sub(base.len()) {
            None => base[k],
            Some(i) => base[EXTENSIONS[i].unit as usize],
        });
        let clusters = spec
            .cluster_shapes()
            .map(|sh| ClusterUnits {
                counts: [
                    sh.alus,
                    sh.muls,
                    sh.l1_ports,
                    sh.l2_ports,
                    u32::from(sh.has_branch),
                ],
                regs: sh.regs,
            })
            .collect();
        Mdes {
            ops,
            clusters,
            exts: spec.exts,
        }
    }

    /// The op-class table row for `class`.
    #[must_use]
    pub fn op(&self, class: OpClass) -> &OpDesc {
        &self.ops[class.code() as usize]
    }

    /// The whole op-class table, in packed-code order (built-in rows
    /// first, then the fused rows whether or not they are registered).
    #[must_use]
    pub fn ops(&self) -> &[OpDesc; OpClass::COUNT] {
        &self.ops
    }

    /// Which fused rows are registered (issuable on this machine).
    #[must_use]
    pub fn exts(&self) -> ExtSet {
        self.exts
    }

    /// The registered op classes, in packed-code order: every built-in,
    /// then each fused class the extension set enables. This is the row
    /// set dumps render and the dynamic row count downstream tables are
    /// sized from.
    pub fn registered_classes(&self) -> impl Iterator<Item = OpClass> + '_ {
        OpClass::ALL
            .into_iter()
            .chain(self.exts.iter().map(|i| OpClass::Fused(i as u8)))
    }

    /// Result latency of `class`.
    #[must_use]
    pub fn latency(&self, class: OpClass) -> u32 {
        self.op(class).latency
    }

    /// Reservation duration of one issue of `class`.
    #[must_use]
    pub fn reserved_cycles(&self, class: OpClass) -> u32 {
        self.op(class).reserved_cycles()
    }

    /// The packed issue-scan word for `class`:
    /// `(reserved_cycles << CODE_BITS) | code`. The scan dispatches on
    /// the low [`Mdes::CODE_BITS`] bits and charges the reservation
    /// duration from the rest.
    #[must_use]
    pub fn packed_meta(&self, class: OpClass) -> u32 {
        (self.op(class).reserved_cycles() << Mdes::CODE_BITS) | class.code()
    }

    /// The issue scan's dispatch table: entry `k` is the [`UnitClass`]
    /// discriminant of packed code `k`'s registered row, `u8::MAX` for
    /// codes with no registered row (unknown codes and unregistered
    /// fused rows — the scan refuses to issue those). Deriving the
    /// table here keeps the scheduler's hot loop generated from the
    /// description instead of matching hardcoded class codes.
    #[must_use]
    pub fn unit_codes(&self) -> [u8; 1 << Mdes::CODE_BITS] {
        let mut tab = [u8::MAX; 1 << Mdes::CODE_BITS];
        for class in self.registered_classes() {
            // Discriminants fit in u8 by construction (5 unit classes).
            #[allow(clippy::cast_possible_truncation)]
            {
                tab[class.code() as usize] = self.op(class).unit as u8;
            }
        }
        // The branch row never issues through the scan.
        tab[OpClass::Branch.code() as usize] = u8::MAX;
        tab
    }

    /// The unit table.
    #[must_use]
    pub fn clusters(&self) -> &[ClusterUnits] {
        &self.clusters
    }

    /// Re-deal the register files for a new total, in place. Registers
    /// are the one axis outside the scheduling signature (and outside
    /// [`Mdes::content_hash`]), so a description memoized per signature
    /// can be retuned to a sibling spec without a rebuild. The result is
    /// exactly `Mdes::from_spec` of the sibling.
    pub fn retune_regs(&mut self, total_regs: u32) {
        let c = u32::try_from(self.clusters.len()).unwrap_or(1);
        for cl in &mut self.clusters {
            cl.regs = total_regs / c;
        }
    }

    /// Number of clusters.
    #[must_use]
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Units of `unit` on cluster `c`.
    ///
    /// # Panics
    /// Panics if `c` is out of range.
    #[must_use]
    pub fn units(&self, c: usize, unit: UnitClass) -> u32 {
        self.clusters[c].count(unit)
    }

    /// Total units of `unit` across the machine.
    #[must_use]
    pub fn total_units(&self, unit: UnitClass) -> u32 {
        self.clusters.iter().map(|cl| cl.count(unit)).sum()
    }

    /// The unit count behind each row of the reservation table, in row
    /// order: row `5·c + unit` holds [`Mdes::units`]`(c, unit)` — the
    /// unit table's [`ClusterUnits::counts`] flattened.
    pub fn row_units(&self) -> impl Iterator<Item = u32> + '_ {
        self.clusters.iter().flat_map(|cl| cl.counts)
    }

    /// The reservation-table rows one issue of `class` on cluster `c`
    /// holds: its unit's row for [`OpDesc::reserved_cycles`], and, when
    /// that unit is the multiplier, one cycle of the cluster's ALU row
    /// too — a multiply issues from an ALU slot. ResMII, the modulo
    /// heuristic, the exact oracle, the modulo validator and the
    /// simulator all read the reservation model from here.
    pub fn reservations(&self, class: OpClass, c: usize) -> impl Iterator<Item = ResReq> {
        let op = self.op(class);
        let row = |unit: UnitClass| (UnitClass::ALL.len() * c + unit as usize) as u32;
        let issue_slot = (op.unit == UnitClass::Mul).then(|| ResReq {
            row: row(UnitClass::Alu),
            reserved: 1,
        });
        issue_slot.into_iter().chain(std::iter::once(ResReq {
            row: row(op.unit),
            reserved: op.reserved_cycles(),
        }))
    }

    /// The register-file port count that limits cycle time: the
    /// per-cluster ALU slice plus the machine's total memory-access
    /// requirement (how the paper's Table 7 treats clustered machines).
    #[must_use]
    pub fn cycle_ports(&self) -> u32 {
        let alus_per_cluster = self
            .clusters
            .first()
            .map_or(0, |cl| cl.count(UnitClass::Alu));
        let mem_total = self.total_units(UnitClass::L1Port) + self.total_units(UnitClass::L2Port);
        3 * alus_per_cluster + 2 * mem_total
    }

    /// FNV-1a hash of everything the scheduler reads from this
    /// description: the registered op-class table (latency, pipelining,
    /// unit binding) and the per-cluster unit counts — deliberately
    /// *not* the register capacities, which only the final fits/spills
    /// verdict consumes. Two architectures with equal hashes schedule
    /// alike, so [`crate::SchedSignature`] embeds this value and the
    /// compile memo and checkpoint fingerprints follow the description's
    /// content.
    ///
    /// Registered fused rows hash *after* the historical stream (five
    /// built-in rows, then cluster counts), each prefixed by its code —
    /// the `minmax` and `addshr` rows are otherwise identical — so an
    /// empty extension set produces the exact historical hash.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        let mut h = crate::Fnv1a::new();
        let mut eat = |x: u32| h.write(&x.to_le_bytes());
        for op in &self.ops[..OpClass::ALL.len()] {
            eat(op.latency);
            eat(u32::from(op.pipelined));
            eat(op.unit as u32);
        }
        for cl in &self.clusters {
            for &n in &cl.counts {
                eat(n);
            }
        }
        for i in self.exts.iter() {
            let class = OpClass::Fused(i as u8);
            let op = self.op(class);
            eat(class.code());
            eat(op.latency);
            eat(u32::from(op.pipelined));
            eat(op.unit as u32);
        }
        h.finish()
    }

    /// Pretty-print the description: the op table (every *registered*
    /// row, so extended machines list their fused classes), the unit
    /// table, and the reservation rows. This is what `exhibits
    /// --mdes-dump` shows and what the golden-file test pins.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let class_name = |c: OpClass| match c {
            OpClass::Alu => "alu".to_owned(),
            OpClass::Mul => "imul".to_owned(),
            OpClass::MemL1 => "mem.l1".to_owned(),
            OpClass::MemL2 => "mem.l2".to_owned(),
            OpClass::Branch => "branch".to_owned(),
            OpClass::Fused(i) => format!("f.{}", EXTENSIONS[usize::from(i)].name),
        };
        out.push_str("op class  latency  pipelined  reserved  unit\n");
        for class in self.registered_classes() {
            let op = self.op(class);
            let _ = writeln!(
                out,
                "{:<9} {:<8} {:<10} {:<9} {}",
                class_name(class),
                op.latency,
                if op.pipelined { "yes" } else { "no" },
                op.reserved_cycles(),
                op.unit.name(),
            );
        }
        out.push('\n');
        out.push_str("cluster  ALU  IMUL  L1  L2  BR  regs\n");
        for (j, cl) in self.clusters.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:<8} {:<4} {:<5} {:<3} {:<3} {:<3} {}",
                j,
                cl.count(UnitClass::Alu),
                cl.count(UnitClass::Mul),
                cl.count(UnitClass::L1Port),
                cl.count(UnitClass::L2Port),
                cl.count(UnitClass::Branch),
                cl.regs,
            );
        }
        out.push('\n');
        out.push_str("reservation rows (one issue occupies one unit):\n");
        for class in self.registered_classes() {
            let op = self.op(class);
            let cycles = op.reserved_cycles();
            let _ = writeln!(
                out,
                "{:<9} -> {} for {} cycle{}",
                class_name(class),
                op.unit.name(),
                cycles,
                if cycles == 1 { "" } else { "s" },
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_tables_match_the_paper() {
        let m = Mdes::from_spec(&ArchSpec::baseline());
        assert_eq!(m.latency(OpClass::Alu), 1);
        assert_eq!(m.latency(OpClass::Mul), 2);
        assert_eq!(m.latency(OpClass::MemL1), 3);
        assert_eq!(m.latency(OpClass::MemL2), 8);
        assert_eq!(m.latency(OpClass::Branch), 1);
        // Reservation: multiply pipelines, memory does not.
        assert_eq!(m.reserved_cycles(OpClass::Mul), 1);
        assert_eq!(m.reserved_cycles(OpClass::MemL1), 3);
        assert_eq!(m.reserved_cycles(OpClass::MemL2), 8);
        // Unit table: one of everything on the single cluster.
        assert_eq!(m.cluster_count(), 1);
        for unit in UnitClass::ALL {
            assert_eq!(m.units(0, unit), 1, "{unit:?}");
        }
        assert_eq!(m.clusters()[0].regs, 64);
        assert_eq!(m.cycle_ports(), 7);
    }

    #[test]
    fn packed_meta_encodes_reservation_over_code() {
        let spec = ArchSpec::baseline().with_extensions(ExtSet::ALL);
        let m = Mdes::from_spec(&spec);
        for class in m.registered_classes() {
            let meta = m.packed_meta(class);
            assert_eq!(meta & Mdes::CODE_MASK, class.code());
            assert_eq!(meta >> Mdes::CODE_BITS, m.reserved_cycles(class));
        }
    }

    #[test]
    fn fused_rows_register_with_the_extension_set() {
        let spec = ArchSpec::new(8, 4, 256, 2, 8, 2).unwrap();
        let plain = Mdes::from_spec(&spec);
        assert!(plain.exts().is_empty());
        assert_eq!(plain.registered_classes().count(), OpClass::ALL.len());
        // Descriptors exist even unregistered (downstream lowering may
        // read a row's timing before deciding whether it is issuable).
        // A fused row is its unit's base row: `madd` the multiplier's,
        // `minmax` and `addshr` the ALU's.
        assert_eq!(plain.op(OpClass::Fused(0)), plain.op(OpClass::Mul));
        assert_eq!(plain.op(OpClass::Fused(1)), plain.op(OpClass::Alu));
        assert_eq!(plain.op(OpClass::Fused(2)), plain.op(OpClass::Alu));
        assert_eq!(plain.latency(OpClass::Fused(0)), MUL_LATENCY);

        let ext = Mdes::from_spec(&spec.with_extensions(ExtSet::MULADD));
        assert_eq!(ext.exts(), ExtSet::MULADD);
        let classes: Vec<OpClass> = ext.registered_classes().collect();
        assert_eq!(classes.len(), 6);
        assert_eq!(classes[5], OpClass::Fused(0));
        assert_eq!(classes[5].code(), 5);
        // The unit table is untouched: fused ops occupy existing units.
        assert_eq!(plain.clusters(), ext.clusters());
    }

    #[test]
    fn unit_codes_dispatch_registered_rows_only() {
        let spec = ArchSpec::new(8, 4, 256, 2, 8, 2).unwrap();
        let plain = Mdes::from_spec(&spec).unit_codes();
        assert_eq!(plain[0], UnitClass::Alu as u8);
        assert_eq!(plain[1], UnitClass::Mul as u8);
        assert_eq!(plain[2], UnitClass::L1Port as u8);
        assert_eq!(plain[3], UnitClass::L2Port as u8);
        // Branch places separately; unregistered and unknown codes are
        // refused.
        assert_eq!(plain[4], u8::MAX);
        for (k, &code) in plain.iter().enumerate().skip(5) {
            assert_eq!(code, u8::MAX, "code {k}");
        }
        let ext = Mdes::from_spec(&spec.with_extensions(ExtSet::ALL)).unit_codes();
        assert_eq!(ext[..5], plain[..5]);
        assert_eq!(ext[5], UnitClass::Mul as u8);
        assert_eq!(ext[6], UnitClass::Alu as u8);
        assert_eq!(ext[7], UnitClass::Alu as u8);
    }

    #[test]
    fn reservations_hold_the_unit_row_and_a_multiplys_alu_slot() {
        let spec = ArchSpec::new(8, 4, 256, 2, 8, 2)
            .unwrap()
            .with_extensions(ExtSet::ALL);
        let m = Mdes::from_spec(&spec);
        let rows: Vec<u32> = m.row_units().collect();
        assert_eq!(rows.len(), 5 * m.cluster_count());
        for c in 0..m.cluster_count() {
            for class in m.registered_classes() {
                let unit = m.op(class).unit;
                let res: Vec<ResReq> = m.reservations(class, c).collect();
                let own = ResReq {
                    row: (5 * c + unit as usize) as u32,
                    reserved: m.reserved_cycles(class),
                };
                let alu_slot = ResReq {
                    row: (5 * c) as u32,
                    reserved: 1,
                };
                if unit == UnitClass::Mul {
                    assert_eq!(res, [alu_slot, own], "{class:?}");
                } else {
                    assert_eq!(res, [own], "{class:?}");
                }
                assert_eq!(rows[own.row as usize], m.units(c, unit));
            }
        }
    }

    #[test]
    fn extension_sets_split_the_content_hash() {
        let spec = ArchSpec::new(8, 4, 256, 2, 8, 2).unwrap();
        let mut hashes = std::collections::HashSet::new();
        for set in ExtSet::AXIS {
            let m = Mdes::from_spec(&spec.with_extensions(set));
            assert!(hashes.insert(m.content_hash()), "{set} collides");
        }
        // `minmax` and `addshr` rows are identical descriptors; only the
        // code prefix separates their hashes.
        let a = Mdes::from_spec(&spec.with_extensions(ExtSet::MINMAX));
        let b = Mdes::from_spec(&spec.with_extensions(ExtSet::ADDSHR));
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn render_lists_registered_fused_rows() {
        let spec = ArchSpec::new(4, 2, 256, 2, 8, 2).unwrap();
        let plain = Mdes::from_spec(&spec).render();
        for needle in ["f.madd", "f.minmax", "f.addshr"] {
            assert!(!plain.contains(needle), "unextended dump shows {needle}");
        }
        let ext = Mdes::from_spec(&spec.with_extensions(ExtSet::ALL)).render();
        for needle in ["f.madd", "f.minmax", "f.addshr"] {
            // Once in the op table, once in the reservation rows.
            assert_eq!(ext.matches(needle).count(), 2, "{needle}:\n{ext}");
        }
        assert!(ext.contains("f.madd    2        yes        1         IMUL slots"));
    }

    #[test]
    fn unit_dealing_matches_cluster_shapes() {
        let spec = ArchSpec::new(8, 2, 256, 2, 4, 4).unwrap();
        let m = Mdes::from_spec(&spec);
        for (j, sh) in spec.cluster_shapes().enumerate() {
            assert_eq!(m.units(j, UnitClass::Alu), sh.alus);
            assert_eq!(m.units(j, UnitClass::Mul), sh.muls);
            assert_eq!(m.units(j, UnitClass::L1Port), sh.l1_ports);
            assert_eq!(m.units(j, UnitClass::L2Port), sh.l2_ports);
            assert_eq!(m.units(j, UnitClass::Branch), u32::from(sh.has_branch));
            assert_eq!(m.clusters()[j].regfile_ports(), sh.regfile_ports());
        }
        assert_eq!(m.cycle_ports(), spec.cycle_ports());
    }

    #[test]
    fn pipelined_l2_changes_only_the_reservation() {
        let spec = ArchSpec::new(8, 4, 256, 2, 8, 2).unwrap();
        let base = Mdes::from_spec(&spec);
        let piped = Mdes::from_spec(&spec.with_pipelined_l2());
        assert_eq!(base.latency(OpClass::MemL2), piped.latency(OpClass::MemL2));
        assert_eq!(base.reserved_cycles(OpClass::MemL2), 8);
        assert_eq!(piped.reserved_cycles(OpClass::MemL2), 1);
        assert_eq!(base.clusters(), piped.clusters());
        assert_ne!(base.content_hash(), piped.content_hash());
    }

    #[test]
    fn content_hash_ignores_registers_and_tracks_everything_else() {
        let a = Mdes::from_spec(&ArchSpec::new(8, 4, 256, 2, 4, 4).unwrap());
        let b = Mdes::from_spec(&ArchSpec::new(8, 4, 512, 2, 4, 4).unwrap());
        assert_eq!(a.content_hash(), b.content_hash());
        for other in [
            ArchSpec::new(4, 4, 256, 2, 4, 4).unwrap(),
            ArchSpec::new(8, 2, 256, 2, 4, 4).unwrap(),
            ArchSpec::new(8, 4, 256, 1, 4, 4).unwrap(),
            ArchSpec::new(8, 4, 256, 2, 8, 4).unwrap(),
            ArchSpec::new(8, 4, 256, 2, 4, 2).unwrap(),
        ] {
            assert_ne!(
                a.content_hash(),
                Mdes::from_spec(&other).content_hash(),
                "{other}"
            );
        }
    }

    #[test]
    fn render_lists_every_class_and_cluster() {
        let m = Mdes::from_spec(&ArchSpec::new(4, 2, 256, 2, 8, 2).unwrap());
        let text = m.render();
        for needle in ["alu", "imul", "mem.l1", "mem.l2", "branch", "regs", "128"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        assert_eq!(text.lines().filter(|l| l.starts_with("mem.l2")).count(), 2);
    }
}
