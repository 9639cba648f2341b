//! Canonical scheduling signatures: which architectures compile alike.
//!
//! The back end's phases — lowering, dependence graphs, cluster
//! assignment, list scheduling, and the register-*pressure* computation —
//! read only the machine description ([`crate::Mdes`]): op latencies,
//! reservation semantics, and per-cluster unit counts. Register-file
//! *size* enters the pipeline only at the very end, when peak pressure
//! is compared against bank capacity. Two architectures that differ only
//! in `r` therefore produce bit-identical schedules, and the paper's
//! `r ∈ {64, 128, 256, 512}` sweep axis collapses to one compilation per
//! signature.
//!
//! [`SchedSignature`] is the canonical key for that equivalence class.
//! It is exactly [`ArchSpec`] minus `regs`, plus a content hash of the
//! derived machine description: the tuple fields name the point in the
//! design space, and `mdes_hash` pins everything the scheduler actually
//! reads — so a future description axis that the tuple fields don't
//! capture still splits the equivalence class correctly.

use crate::arch::ArchSpec;
use crate::ext::ExtSet;
use crate::mdes::Mdes;

/// The schedule-relevant projection of an [`ArchSpec`].
///
/// Everything the compiler's machine-dependent phases consume, and
/// nothing more. Architectures with equal signatures get identical
/// schedules, assignments, and peak register pressure — only the
/// fits/spills verdict (capacity-dependent) may differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SchedSignature {
    /// Total ALUs (`a`).
    pub alus: u32,
    /// IMUL-capable ALUs (`m`).
    pub muls: u32,
    /// Level-2 memory ports (`p2`).
    pub l2_ports: u32,
    /// Level-2 access latency (`l2`).
    pub l2_latency: u32,
    /// Cluster count (`c`).
    pub clusters: u32,
    /// Whether Level-2 ports pipeline (the extended axis).
    pub l2_pipelined: bool,
    /// Which fused extensions are enabled (the custom-instruction
    /// axis) — the fuse pass rewrites code differently per set, so
    /// extension sets never share a compilation.
    pub exts: ExtSet,
    /// FNV-1a hash of the derived [`Mdes`] content (op table + unit
    /// counts, registers excluded) — see [`Mdes::content_hash`].
    pub mdes_hash: u64,
}

impl ArchSpec {
    /// The canonical scheduling signature of this architecture: the spec
    /// with the register-file size projected away, plus the content hash
    /// of its derived machine description.
    #[must_use]
    pub fn sched_signature(&self) -> SchedSignature {
        self.sched_signature_with(&Mdes::from_spec(self))
    }

    /// [`Self::sched_signature`] reusing an already-derived description
    /// instead of building a throwaway one. `mdes` must be this spec's
    /// (registers may have been retuned — they are outside the hash), as
    /// from a memoized [`crate::MachineResources`]. Allocation-free,
    /// which is what keeps a sweep worker's warm cached-evaluation path
    /// off the heap entirely.
    #[must_use]
    pub fn sched_signature_with(&self, mdes: &Mdes) -> SchedSignature {
        SchedSignature {
            alus: self.alus,
            muls: self.muls,
            l2_ports: self.l2_ports,
            l2_latency: self.l2_latency,
            clusters: self.clusters,
            l2_pipelined: self.l2_pipelined,
            exts: self.exts,
            mdes_hash: mdes.content_hash(),
        }
    }
}

impl std::fmt::Display for SchedSignature {
    /// Paper tuple order with the register field elided:
    /// `(a m _ p2 l2 c)`, with `l2` carrying a `p` suffix when the
    /// Level-2 ports pipeline and a trailing extension token when the
    /// set is non-empty (matching [`ArchSpec`]'s `Display`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "({} {} _ {} {}{} {}",
            self.alus,
            self.muls,
            self.l2_ports,
            self.l2_latency,
            if self.l2_pipelined { "p" } else { "" },
            self.clusters
        )?;
        if !self.exts.is_empty() {
            write!(f, " {}", self.exts)?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::MachineResources;

    #[test]
    fn signature_with_a_memoized_description_matches_the_fresh_one() {
        for spec in [
            ArchSpec::new(8, 4, 256, 2, 4, 4).unwrap(),
            ArchSpec::new(2, 1, 64, 1, 8, 1).unwrap(),
            ArchSpec::new(16, 8, 512, 4, 2, 4)
                .unwrap()
                .with_pipelined_l2(),
        ] {
            let machine = MachineResources::from_spec(&spec);
            assert_eq!(
                spec.sched_signature_with(&machine.mdes),
                spec.sched_signature(),
                "{spec}"
            );
            // A retuned sibling description (different register total)
            // still yields the sibling's own signature — registers are
            // outside the hash.
            let mut sib = spec;
            sib.regs = if spec.regs == 64 { 512 } else { 64 };
            assert_eq!(
                sib.sched_signature_with(&machine.mdes),
                sib.sched_signature(),
                "{sib}"
            );
        }
    }

    #[test]
    fn signature_ignores_registers_only() {
        let a = ArchSpec::new(8, 4, 256, 2, 4, 4).unwrap();
        let b = ArchSpec::new(8, 4, 512, 2, 4, 4).unwrap();
        assert_eq!(a.sched_signature(), b.sched_signature());
        for other in [
            ArchSpec::new(4, 4, 256, 2, 4, 4).unwrap(),
            ArchSpec::new(8, 2, 256, 2, 4, 4).unwrap(),
            ArchSpec::new(8, 4, 256, 1, 4, 4).unwrap(),
            ArchSpec::new(8, 4, 256, 2, 8, 4).unwrap(),
            ArchSpec::new(8, 4, 256, 2, 4, 2).unwrap(),
            ArchSpec::new(8, 4, 256, 2, 4, 4)
                .unwrap()
                .with_pipelined_l2(),
            ArchSpec::new(8, 4, 256, 2, 4, 4)
                .unwrap()
                .with_extensions(ExtSet::MULADD),
        ] {
            assert_ne!(a.sched_signature(), other.sched_signature(), "{other}");
        }
    }

    #[test]
    fn equal_signatures_mean_equal_scheduler_inputs() {
        // The reservation tables of equal-signature machines differ only
        // in register capacity.
        let a = MachineResources::from_spec(&ArchSpec::new(8, 3, 128, 3, 4, 4).unwrap());
        let b = MachineResources::from_spec(&ArchSpec::new(8, 3, 512, 3, 4, 4).unwrap());
        assert_eq!(a.l2_latency, b.l2_latency);
        assert_eq!(a.cluster_count(), b.cluster_count());
        assert_eq!(a.mdes.content_hash(), b.mdes.content_hash());
        assert_eq!(a.mdes.ops(), b.mdes.ops());
        for (ca, cb) in a.clusters.iter().zip(&b.clusters) {
            assert_eq!(ca.alus, cb.alus);
            assert_eq!(ca.muls, cb.muls);
            assert_eq!(ca.l1_ports, cb.l1_ports);
            assert_eq!(ca.l2_ports, cb.l2_ports);
            assert_eq!(ca.has_branch, cb.has_branch);
            assert_ne!(ca.regs, cb.regs);
        }
    }

    #[test]
    fn display_elides_the_register_field() {
        let s = ArchSpec::new(8, 4, 256, 1, 4, 4).unwrap().sched_signature();
        assert_eq!(s.to_string(), "(8 4 _ 1 4 4)");
        let p = ArchSpec::new(8, 4, 256, 1, 4, 4)
            .unwrap()
            .with_pipelined_l2()
            .sched_signature();
        assert_eq!(p.to_string(), "(8 4 _ 1 4p 4)");
        let e = ArchSpec::new(8, 4, 256, 1, 4, 4)
            .unwrap()
            .with_extensions(ExtSet::ALL)
            .sched_signature();
        assert_eq!(e.to_string(), "(8 4 _ 1 4 4 +madd+minmax+addshr)");
    }

    #[test]
    fn signature_hash_matches_derived_description() {
        for spec in [
            ArchSpec::baseline(),
            ArchSpec::new(16, 8, 512, 4, 2, 8).unwrap(),
            ArchSpec::new(4, 2, 256, 2, 8, 2)
                .unwrap()
                .with_pipelined_l2(),
        ] {
            assert_eq!(
                spec.sched_signature().mdes_hash,
                MachineResources::from_spec(&spec).mdes.content_hash()
            );
        }
    }
}
