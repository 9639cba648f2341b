//! The design space the experiment searches exhaustively (paper §2.2/§2.4).
//!
//! Base points vary the resources the paper varies:
//!
//! * ALUs `a ∈ {1, 2, 4, 8, 16}`;
//! * IMUL-capable ALUs `m ∈ {max(1, a/4), max(1, a/2)}` (the paper allows
//!   between a quarter and a half of the ALUs, always at least one);
//! * registers `r ∈ {64, 128, 256, 512}` (total across clusters);
//! * Level-2 ports `p2 ∈ {1, 2, 4}` and latency `l2 ∈ {4, 8}`.
//!
//! That is 8 × 4 × 3 × 2 = 192 base points; the paper reports 191 and
//! never spells out its enumeration, so we carry a one-point discrepancy
//! (documented in `EXPERIMENTS.md`). For each base point the cluster
//! arrangements `c ∈ {1, 2, 4, 8, 16}` with `c ≤ a`, even resource
//! division, and at least 16 registers per cluster are evaluated, and the
//! best is kept — matching the paper's "after the best cluster
//! arrangement had been selected" (Figure 3).

use crate::arch::ArchSpec;
use crate::axes::SpaceAxes;

/// The enumerated space of candidate architectures.
#[derive(Debug, Clone)]
pub struct DesignSpace {
    base_points: Vec<ArchSpec>,
}

impl DesignSpace {
    /// The paper's space (see the module docs): what
    /// [`SpaceAxes::paper`] generates.
    #[must_use]
    pub fn paper() -> Self {
        SpaceAxes::paper().space()
    }

    /// The extended space: every paper base point twice, once with the
    /// historical non-pipelined Level-2 ports and once with pipelined
    /// ports ([`ArchSpec::with_pipelined_l2`]). Off by default — the
    /// paper sweep ([`DesignSpace::paper`]) is unchanged; `exhibits
    /// --extended` runs this space to ask whether pipelining the L2
    /// ports buys performance worth their cost.
    #[must_use]
    pub fn extended() -> Self {
        SpaceAxes::extended().space()
    }

    /// The custom-instruction space: every paper base point under each
    /// [`crate::ExtSet::AXIS`] candidate — the empty set first (that
    /// block is the paper enumeration exactly), then each single fused
    /// op so the exhibit can attribute gains, then all three. Off by
    /// default — `exhibits --fused` runs this space to ask which
    /// kernels buy which fused operations and what speedup per unit
    /// area they return (the paper's Table 3 question, asked of the
    /// instruction set instead of the datapath).
    #[must_use]
    pub fn with_extensions() -> Self {
        SpaceAxes::with_extensions().space()
    }

    /// The generated combinatorial space: every axis of the extended
    /// space widened (ALUs to 128, registers to 4096, ports to 16,
    /// sixteenth-resolution mul fractions, both L2 pipelining settings)
    /// — see [`crate::SpaceAxes::combinatorial`]. Past 10^5 arrangements
    /// (pinned by a test), it exists to be *searched*, not swept: the
    /// guided engine in `cfp-dse` evaluates only the points it visits.
    #[must_use]
    pub fn combinatorial() -> Self {
        SpaceAxes::combinatorial().space()
    }

    /// A space over explicit base points (all must have `clusters = 1`
    /// and validate). Used by [`crate::SpaceAxes::space`] to wrap an
    /// axis-generated enumeration.
    #[must_use]
    pub fn from_base_points(base_points: Vec<ArchSpec>) -> Self {
        debug_assert!(base_points
            .iter()
            .all(|s| s.clusters == 1 && s.validate().is_ok()));
        DesignSpace { base_points }
    }

    /// The base points (all with `clusters = 1`).
    #[must_use]
    pub fn base_points(&self) -> &[ArchSpec] {
        &self.base_points
    }

    /// Legal cluster counts for a base point.
    #[must_use]
    pub fn cluster_options(spec: &ArchSpec) -> Vec<u32> {
        cluster_options(spec.alus, spec.regs)
    }

    /// Every `(base point, cluster count)` combination, as full specs.
    #[must_use]
    pub fn all_arrangements(&self) -> Vec<ArchSpec> {
        arrangements(&self.base_points)
    }

    /// Number of base points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.base_points.len()
    }

    /// Whether the space is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.base_points.is_empty()
    }
}

/// The cluster counts the experiment tries.
const CLUSTER_COUNTS: [u32; 5] = [1, 2, 4, 8, 16];

/// The cluster-count rule: the counts that divide both the ALUs and the
/// registers evenly and leave every cluster at least 16 registers.
pub(crate) fn cluster_options(alus: u32, regs: u32) -> Vec<u32> {
    CLUSTER_COUNTS
        .into_iter()
        .filter(|&c| c <= alus && alus % c == 0 && regs % c == 0 && regs / c >= 16)
        .collect()
}

/// Every base point under each of its legal cluster counts, base-point
/// order outermost.
pub(crate) fn arrangements(base_points: &[ArchSpec]) -> Vec<ArchSpec> {
    let mut out = Vec::new();
    for base in base_points {
        for c in cluster_options(base.alus, base.regs) {
            let mut s = *base;
            s.clusters = c;
            debug_assert!(s.validate().is_ok());
            out.push(s);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_space_has_192_base_points() {
        // One more than the paper's 191 (enumeration unspecified there).
        let s = DesignSpace::paper();
        assert_eq!(s.len(), 192);
    }

    #[test]
    fn base_points_are_unique_and_valid() {
        let s = DesignSpace::paper();
        let mut seen = std::collections::HashSet::new();
        for p in s.base_points() {
            assert!(p.validate().is_ok());
            assert!(seen.insert(*p), "duplicate {p}");
            assert!(p.muls >= 1 && p.muls <= p.alus.div_ceil(2));
        }
    }

    #[test]
    fn extended_space_doubles_the_paper_space() {
        let paper = DesignSpace::paper();
        let ext = DesignSpace::extended();
        assert_eq!(ext.len(), 2 * paper.len());
        let mut seen = std::collections::HashSet::new();
        for p in ext.base_points() {
            assert!(p.validate().is_ok());
            assert!(seen.insert(*p), "duplicate {p}");
        }
        assert_eq!(
            ext.base_points().iter().filter(|p| p.l2_pipelined).count(),
            paper.len()
        );
    }

    #[test]
    fn extension_space_multiplies_the_paper_space() {
        let paper = DesignSpace::paper();
        let ext = DesignSpace::with_extensions();
        assert_eq!(ext.len(), crate::ExtSet::AXIS.len() * paper.len());
        // The empty-set prefix is the paper space exactly.
        assert_eq!(&ext.base_points()[..paper.len()], paper.base_points());
        let mut seen = std::collections::HashSet::new();
        for p in ext.base_points() {
            assert!(p.validate().is_ok());
            assert!(seen.insert(*p), "duplicate {p}");
        }
        for set in crate::ExtSet::AXIS {
            assert_eq!(
                ext.base_points().iter().filter(|p| p.exts == set).count(),
                paper.len()
            );
        }
    }

    #[test]
    fn cluster_options_respect_constraints() {
        let a = ArchSpec::new(16, 8, 64, 1, 8, 1).unwrap();
        // 64 regs: at most 4 clusters (16 regs each).
        assert_eq!(DesignSpace::cluster_options(&a), vec![1, 2, 4]);
        let b = ArchSpec::new(1, 1, 512, 1, 8, 1).unwrap();
        assert_eq!(DesignSpace::cluster_options(&b), vec![1]);
        let c = ArchSpec::new(16, 8, 512, 1, 8, 1).unwrap();
        assert_eq!(DesignSpace::cluster_options(&c), vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn arrangements_are_valid_and_cover_base_points() {
        let s = DesignSpace::paper();
        let all = s.all_arrangements();
        assert!(all.len() > s.len());
        for a in &all {
            assert!(a.validate().is_ok());
        }
        // Every base point appears with clusters = 1.
        let ones = all.iter().filter(|a| a.clusters == 1).count();
        assert_eq!(ones, s.len());
    }
}
