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

/// The paper's space as a sweep's candidate list. Every enumeration —
/// the paper's, the extended and fused-extension spaces, the
/// combinatorial one — is a [`SpaceAxes`]; this type keeps the two
/// calls the benchmark package imports.
#[derive(Debug, Clone)]
pub struct DesignSpace {
    axes: SpaceAxes,
}

impl DesignSpace {
    /// The paper's space (see the module docs): [`SpaceAxes::paper`].
    #[must_use]
    pub fn paper() -> Self {
        DesignSpace {
            axes: SpaceAxes::paper(),
        }
    }

    /// Every `(base point, cluster count)` combination, as full specs:
    /// [`SpaceAxes::arrangements`].
    #[must_use]
    pub fn all_arrangements(&self) -> Vec<ArchSpec> {
        self.axes.arrangements()
    }
}
