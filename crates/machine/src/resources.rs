//! A machine ready for the back end in `cfp-sched`.
//!
//! Every hardware fact — latencies, pipelining, unit and register
//! counts per cluster — lives in the embedded machine description
//! ([`Mdes`], see [`crate::mdes`]), and the workspace reads it there.

use crate::arch::{ArchSpec, ClusterShape};
use crate::mdes::{Mdes, OpClass};

/// A whole machine, ready for scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineResources {
    /// Per-cluster shapes as the spec deals them; index = cluster id.
    /// Nothing in the workspace reads them (CI's lint holds that): they
    /// stay for the frozen benchmark package, which reads their `regs`.
    pub clusters: Vec<ClusterShape>,
    /// Level-2 access latency (cycles).
    pub l2_latency: u32,
    /// The machine description everything else is derived from.
    pub mdes: Mdes,
}

impl MachineResources {
    /// Derive the resource tables from an architecture spec.
    #[must_use]
    pub fn from_spec(spec: &ArchSpec) -> Self {
        MachineResources {
            clusters: spec.cluster_shapes().collect(),
            l2_latency: spec.l2_latency,
            mdes: Mdes::from_spec(spec),
        }
    }

    /// Number of clusters.
    #[must_use]
    pub fn cluster_count(&self) -> usize {
        self.mdes.cluster_count()
    }

    /// Re-deal the register files for a new total, in place: exactly
    /// `from_spec` of the sibling spec ([`Mdes::retune_regs`]).
    pub fn retune_regs(&mut self, total_regs: u32) {
        self.mdes.retune_regs(total_regs);
        for (cl, units) in self.clusters.iter_mut().zip(self.mdes.clusters()) {
            cl.regs = units.regs;
        }
    }

    /// Result latency of an op class, from the machine description.
    #[must_use]
    pub fn latency(&self, class: OpClass) -> u32 {
        self.mdes.latency(class)
    }

    /// Reservation duration of one issue of `class` (1 when the unit
    /// pipelines, the full latency when it does not).
    #[must_use]
    pub fn reserved_cycles(&self, class: OpClass) -> u32 {
        self.mdes.reserved_cycles(class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdes::UnitClass;

    #[test]
    fn baseline_resources() {
        let r = MachineResources::from_spec(&ArchSpec::baseline());
        assert_eq!(r.cluster_count(), 1);
        let c = &r.clusters[0];
        assert_eq!((c.alus, c.muls, c.regs), (1, 1, 64));
        assert_eq!((c.l1_ports, c.l2_ports), (1, 1));
        assert!(c.has_branch);
        assert_eq!(r.latency(OpClass::MemL1), 3);
        assert_eq!(r.latency(OpClass::MemL2), 8);
    }

    #[test]
    fn clustered_resources_place_branch_and_ports() {
        let spec = ArchSpec::new(8, 2, 256, 1, 4, 4).unwrap();
        let r = MachineResources::from_spec(&spec);
        assert_eq!(r.cluster_count(), 4);
        assert!(r.clusters[0].has_branch);
        assert!(!r.clusters[1].has_branch);
        assert_eq!(r.mdes.units(0, UnitClass::L1Port), 1);
        assert_eq!(r.mdes.units(1, UnitClass::L2Port), 1);
        assert_eq!(r.mdes.units(2, UnitClass::L2Port), 0);
        assert_eq!(r.mdes.total_units(UnitClass::Alu), 8);
        assert_eq!(r.l2_latency, 4);
    }
}
