//! The design spaces, as axes — the one description both the exhaustive
//! sweep and the search engine read.
//!
//! An exhaustive sweep wants concrete candidates
//! ([`SpaceAxes::base_points`], [`SpaceAxes::arrangements`]); a guided
//! search needs to know the *axes*: which values each parameter may
//! take, so it can sample uniformly, step one position along one axis
//! ("neighbors"), and test membership without materializing the whole
//! space. [`SpaceAxes`] carries exactly that: one value list per
//! parameter, with the IMUL axis expressed as a fraction of the ALU
//! count (in sixteenths) so a mul setting survives an ALU move the way
//! the paper intends ("between a quarter and a half of the ALUs"), plus
//! the one cluster-count rule every axis set shares.
//!
//! Four axis sets are provided:
//!
//! * [`SpaceAxes::paper`] / [`SpaceAxes::extended`] /
//!   [`SpaceAxes::with_extensions`] — the paper's space, doubled with
//!   pipelined Level-2 mirrors, and crossed with the fused-extension
//!   axis (checkpoint fingerprints hash those enumerations;
//!   `tests/recorded_run.rs` holds the paper one to the recorded run);
//! * [`SpaceAxes::combinatorial`] — the generated large space: every
//!   axis widened (ALUs to 128, registers to 4096, ports to 16, full
//!   sixteenth-resolution per-cluster mul fractions, pipelined and
//!   non-pipelined L2) so the arrangement count passes 10^5 — far past
//!   what an exhaustive sweep can evaluate, which is the point.

use crate::arch::ArchSpec;
use crate::ext::ExtSet;

/// The value lists of every architecture axis.
///
/// The IMUL axis is stored as numerators over sixteen: a setting `k`
/// means `muls = max(1, alus * k / 16)`, so "a quarter of the ALUs" is
/// `k = 4` at every ALU count. Duplicate mul values collapsing at small
/// ALU counts are deduplicated in first-occurrence order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpaceAxes {
    alus: Vec<u32>,
    mul_sixteenths: Vec<u32>,
    regs: Vec<u32>,
    l2_ports: Vec<u32>,
    l2_latencies: Vec<u32>,
    l2_pipelined: Vec<bool>,
    exts: Vec<ExtSet>,
}

impl SpaceAxes {
    /// The paper's axes (§2.4): quarter/half IMUL fractions, no
    /// pipelined L2 — 192 base points (the paper reports 191; see
    /// [`crate::space`]). [`crate::DesignSpace::paper`] is these.
    #[must_use]
    pub fn paper() -> Self {
        SpaceAxes {
            alus: vec![1, 2, 4, 8, 16],
            mul_sixteenths: vec![4, 8],
            regs: vec![64, 128, 256, 512],
            l2_ports: vec![1, 2, 4],
            l2_latencies: vec![4, 8],
            l2_pipelined: vec![false],
            exts: vec![ExtSet::EMPTY],
        }
    }

    /// The extended axes: the paper's plus the pipelined-L2 toggle —
    /// every paper base point twice, once with the historical
    /// non-pipelined Level-2 ports and once with pipelined ports
    /// ([`ArchSpec::with_pipelined_l2`]). `exhibits extended` runs this
    /// space to ask whether pipelining the L2 ports buys performance
    /// worth their cost.
    #[must_use]
    pub fn extended() -> Self {
        SpaceAxes {
            l2_pipelined: vec![false, true],
            ..Self::paper()
        }
    }

    /// The paper's axes plus the custom-instruction axis: every
    /// [`ExtSet::AXIS`] candidate — the empty set first (that block is
    /// the paper enumeration exactly), then each single fused op so the
    /// exhibit can attribute gains, then all three. `exhibits fused`
    /// runs this space to ask which kernels buy which fused operations
    /// and what speedup per unit area they return.
    #[must_use]
    pub fn with_extensions() -> Self {
        SpaceAxes {
            exts: ExtSet::AXIS.to_vec(),
            ..Self::paper()
        }
    }

    /// The generated combinatorial axes: every existing axis widened and
    /// the mul fraction opened to full sixteenth resolution. The
    /// arrangement count exceeds 10^5 (pinned by a test) — the scale
    /// demonstration space for the guided search engine.
    #[must_use]
    pub fn combinatorial() -> Self {
        SpaceAxes {
            alus: vec![1, 2, 4, 8, 16, 32, 64, 128],
            mul_sixteenths: (1..=16).collect(),
            regs: vec![32, 64, 128, 256, 512, 1024, 2048, 4096],
            l2_ports: vec![1, 2, 4, 8, 16],
            l2_latencies: vec![1, 2, 4, 8, 16],
            l2_pipelined: vec![false, true],
            exts: vec![ExtSet::EMPTY],
        }
    }

    /// The register-file axis values — what an evaluation pipeline needs
    /// to pre-build plans for (residency budgets derive from these).
    #[must_use]
    pub fn reg_values(&self) -> &[u32] {
        &self.regs
    }

    /// The fused-extension axis values — the other plan-cache dimension
    /// an evaluation pipeline pre-builds for (fused plans exist only for
    /// sets the axes can reach).
    #[must_use]
    pub fn ext_values(&self) -> &[ExtSet] {
        &self.exts
    }

    /// The legal IMUL counts for `alus`, in axis order, deduplicated in
    /// first-occurrence order (small ALU counts collapse fractions).
    #[must_use]
    pub fn muls_for(&self, alus: u32) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::with_capacity(self.mul_sixteenths.len());
        for &k in &self.mul_sixteenths {
            let m = (alus * k / 16).max(1);
            if !out.contains(&m) {
                out.push(m);
            }
        }
        out
    }

    /// Legal cluster counts for a `(alus, regs)` pair: the counts that
    /// divide both the ALUs and the registers evenly and leave every
    /// cluster at least 16 registers. The rule is the same for every
    /// axis set.
    #[must_use]
    pub fn cluster_options(&self, alus: u32, regs: u32) -> Vec<u32> {
        cluster_options(alus, regs)
    }

    /// The base points (all with `clusters = 1`), enumerated extension
    /// set outermost, then pipelined flag, then ALUs → muls → regs →
    /// ports → latency (single-value outer axes contribute no
    /// reordering).
    #[must_use]
    pub fn base_points(&self) -> Vec<ArchSpec> {
        let mut out = Vec::new();
        for &exts in &self.exts {
            for &pipe in &self.l2_pipelined {
                for &a in &self.alus {
                    for m in self.muls_for(a) {
                        for &r in &self.regs {
                            for &p2 in &self.l2_ports {
                                for &l2 in &self.l2_latencies {
                                    let s = ArchSpec {
                                        alus: a,
                                        muls: m,
                                        regs: r,
                                        l2_ports: p2,
                                        l2_latency: l2,
                                        clusters: 1,
                                        l2_pipelined: pipe,
                                        exts,
                                    };
                                    debug_assert!(s.validate().is_ok());
                                    out.push(s);
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Every `(base point, cluster count)` combination — the candidate
    /// set a sweep evaluates and a search over these axes draws from.
    #[must_use]
    pub fn arrangements(&self) -> Vec<ArchSpec> {
        arrangements(&self.base_points())
    }

    /// Whether `spec` is one of this axis set's arrangements.
    #[must_use]
    pub fn contains(&self, spec: &ArchSpec) -> bool {
        self.alus.contains(&spec.alus)
            && self.regs.contains(&spec.regs)
            && self.l2_ports.contains(&spec.l2_ports)
            && self.l2_latencies.contains(&spec.l2_latency)
            && self.l2_pipelined.contains(&spec.l2_pipelined)
            && self.exts.contains(&spec.exts)
            && self.muls_for(spec.alus).contains(&spec.muls)
            && self
                .cluster_options(spec.alus, spec.regs)
                .contains(&spec.clusters)
    }

    /// A uniformly sampled arrangement. `pick` must return a uniform
    /// index below its argument (the caller supplies the RNG, so this
    /// crate stays RNG-free); each axis is drawn independently, then a
    /// legal cluster count for the drawn `(alus, regs)`.
    #[must_use]
    pub fn sample_with(&self, pick: &mut dyn FnMut(usize) -> usize) -> ArchSpec {
        let a = self.alus[pick(self.alus.len())];
        let ms = self.muls_for(a);
        let m = ms[pick(ms.len())];
        let r = self.regs[pick(self.regs.len())];
        let p2 = self.l2_ports[pick(self.l2_ports.len())];
        let l2 = self.l2_latencies[pick(self.l2_latencies.len())];
        let pipe = self.l2_pipelined[pick(self.l2_pipelined.len())];
        // Always nonempty: c = 1 is legal for every (alus, regs) with
        // regs >= 16, and every reg axis value is at least 32.
        let cs = self.cluster_options(a, r);
        let c = cs[pick(cs.len())];
        // Single-candidate axes draw nothing, so axis sets without the
        // extension dimension consume exactly the historical RNG stream
        // (pinned search digests hash the resulting visit order).
        let exts = if self.exts.len() > 1 {
            self.exts[pick(self.exts.len())]
        } else {
            self.exts.first().copied().unwrap_or(ExtSet::EMPTY)
        };
        let s = ArchSpec {
            alus: a,
            muls: m,
            regs: r,
            l2_ports: p2,
            l2_latency: l2,
            clusters: c,
            l2_pipelined: pipe,
            exts,
        };
        debug_assert!(s.validate().is_ok());
        s
    }

    /// Lattice neighbors of `spec`: one axis moved one position along
    /// its value list, keeping the spec valid. ALU moves carry the IMUL
    /// fraction along (snapping to the nearest legal count for the new
    /// ALU total); the mul move steps within [`SpaceAxes::muls_for`];
    /// the pipelined move toggles the flag when the axis allows both.
    /// Specs whose current value is off-axis get no move on that axis.
    #[must_use]
    pub fn neighbors(&self, spec: &ArchSpec) -> Vec<ArchSpec> {
        let mut out = Vec::new();
        let mut push = |s: ArchSpec| {
            if s.validate().is_ok() && &s != spec {
                out.push(s);
            }
        };
        for a in step(&self.alus, spec.alus) {
            push(ArchSpec {
                alus: a,
                muls: nearest(&self.muls_for(a), spec.muls),
                ..*spec
            });
        }
        for m in step(&self.muls_for(spec.alus), spec.muls) {
            push(ArchSpec { muls: m, ..*spec });
        }
        for r in step(&self.regs, spec.regs) {
            push(ArchSpec { regs: r, ..*spec });
        }
        for p in step(&self.l2_ports, spec.l2_ports) {
            push(ArchSpec {
                l2_ports: p,
                ..*spec
            });
        }
        for l in step(&self.l2_latencies, spec.l2_latency) {
            push(ArchSpec {
                l2_latency: l,
                ..*spec
            });
        }
        if self.l2_pipelined.len() > 1 {
            push(ArchSpec {
                l2_pipelined: !spec.l2_pipelined,
                ..*spec
            });
        }
        if let Some(i) = self.exts.iter().position(|&e| e == spec.exts) {
            if i > 0 {
                push(ArchSpec {
                    exts: self.exts[i - 1],
                    ..*spec
                });
            }
            if i + 1 < self.exts.len() {
                push(ArchSpec {
                    exts: self.exts[i + 1],
                    ..*spec
                });
            }
        }
        for c in step(&self.cluster_options(spec.alus, spec.regs), spec.clusters) {
            push(ArchSpec {
                clusters: c,
                ..*spec
            });
        }
        out.sort();
        out.dedup();
        out
    }
}

/// The cluster counts the experiment tries.
const CLUSTER_COUNTS: [u32; 5] = [1, 2, 4, 8, 16];

/// [`SpaceAxes::cluster_options`]' rule.
fn cluster_options(alus: u32, regs: u32) -> Vec<u32> {
    CLUSTER_COUNTS
        .into_iter()
        .filter(|&c| c <= alus && alus % c == 0 && regs % c == 0 && regs / c >= 16)
        .collect()
}

/// Every base point (`clusters = 1`) under each of its legal cluster
/// counts, base-point order outermost: [`SpaceAxes::arrangements`] of a
/// whole enumeration, or of a sampled subset of one.
#[must_use]
pub fn arrangements(base_points: &[ArchSpec]) -> Vec<ArchSpec> {
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

/// The values one position either side of `cur` in `vals` (empty when
/// `cur` is not on the axis).
fn step(vals: &[u32], cur: u32) -> Vec<u32> {
    vals.iter()
        .position(|&v| v == cur)
        .map(|i| {
            let mut v = Vec::new();
            if i > 0 {
                v.push(vals[i - 1]);
            }
            if i + 1 < vals.len() {
                v.push(vals[i + 1]);
            }
            v
        })
        .unwrap_or_default()
}

/// The value of `vals` closest to `want` (ties to the smaller value).
/// `vals` must be nonempty — every [`SpaceAxes::muls_for`] list is.
fn nearest(vals: &[u32], want: u32) -> u32 {
    let mut best = vals[0];
    for &v in vals {
        if v.abs_diff(want) < best.abs_diff(want) {
            best = v;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_space_has_192_base_points() {
        // One more than the paper's 191 (enumeration unspecified there).
        assert_eq!(SpaceAxes::paper().base_points().len(), 192);
    }

    #[test]
    fn base_points_are_unique_and_valid() {
        let mut seen = std::collections::HashSet::new();
        for p in SpaceAxes::paper().base_points() {
            assert!(p.validate().is_ok());
            assert!(seen.insert(p), "duplicate {p}");
            assert!(p.muls >= 1 && p.muls <= p.alus.div_ceil(2));
        }
    }

    #[test]
    fn extended_space_doubles_the_paper_space() {
        let paper = SpaceAxes::paper().base_points();
        let ext = SpaceAxes::extended().base_points();
        assert_eq!(ext.len(), 384);
        assert_eq!(ext.len(), 2 * paper.len());
        let mut seen = std::collections::HashSet::new();
        for p in &ext {
            assert!(p.validate().is_ok());
            assert!(seen.insert(*p), "duplicate {p}");
        }
        assert_eq!(ext.iter().filter(|p| p.l2_pipelined).count(), paper.len());
    }

    #[test]
    fn cluster_options_respect_constraints() {
        let axes = SpaceAxes::paper();
        // 64 regs: at most 4 clusters (16 regs each).
        assert_eq!(axes.cluster_options(16, 64), vec![1, 2, 4]);
        assert_eq!(axes.cluster_options(1, 512), vec![1]);
        assert_eq!(axes.cluster_options(16, 512), vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn arrangements_are_valid_and_cover_base_points() {
        let axes = SpaceAxes::paper();
        let base = axes.base_points();
        let all = axes.arrangements();
        assert!(all.len() > base.len());
        for a in &all {
            assert!(a.validate().is_ok());
        }
        // Every base point appears with clusters = 1.
        let ones = all.iter().filter(|a| a.clusters == 1).count();
        assert_eq!(ones, base.len());
    }

    #[test]
    fn combinatorial_space_exceeds_one_hundred_thousand_points() {
        let axes = SpaceAxes::combinatorial();
        let all = axes.arrangements();
        assert!(all.len() >= 100_000, "only {} arrangements", all.len());
        let mut seen = std::collections::HashSet::new();
        for s in &all {
            assert!(s.validate().is_ok());
            assert!(seen.insert(*s), "duplicate {s}");
        }
    }

    /// How much of the combinatorial space a guided search may visit:
    /// the arrangements within each cost bound under the calibrated
    /// model. At 10, the bound every shipped search uses, that is 6 700
    /// of 127 000.
    #[test]
    fn combinatorial_space_admits_few_arrangements_under_a_cost_bound() {
        let cost = crate::CostModel::paper_calibrated();
        let costs: Vec<f64> = SpaceAxes::combinatorial()
            .arrangements()
            .iter()
            .map(|s| cost.cost(s))
            .collect();
        let admitted: Vec<usize> = [10.0, 20.0, 50.0, 100.0, f64::INFINITY]
            .iter()
            .map(|&bound| costs.iter().filter(|&&c| c <= bound).count())
            .collect();
        assert_eq!(admitted, [6_700, 18_760, 40_810, 57_620, 127_000]);
    }

    #[test]
    fn contains_accepts_exactly_the_arrangements() {
        let axes = SpaceAxes::paper();
        for s in axes.arrangements() {
            assert!(axes.contains(&s), "{s}");
        }
        // Off-axis values are rejected.
        let odd = ArchSpec::new(3, 1, 64, 1, 4, 1).unwrap();
        assert!(!axes.contains(&odd));
        let pipelined = ArchSpec::baseline().with_pipelined_l2();
        assert!(!axes.contains(&pipelined));
        assert!(SpaceAxes::extended().contains(&pipelined));
    }

    #[test]
    fn samples_are_valid_members_and_deterministic() {
        let axes = SpaceAxes::combinatorial();
        // A tiny deterministic LCG stands in for the caller's RNG.
        let mut state = 0x1234_5678_u64;
        let mut pick = move |n: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            ((state >> 33) as usize) % n
        };
        for _ in 0..500 {
            let s = axes.sample_with(&mut pick);
            assert!(s.validate().is_ok());
            assert!(axes.contains(&s), "{s}");
        }
    }

    #[test]
    fn neighbors_stay_on_axis_and_step_one_parameter() {
        let axes = SpaceAxes::extended();
        let s = ArchSpec::new(8, 4, 256, 2, 4, 2).unwrap();
        let ns = axes.neighbors(&s);
        assert!(!ns.is_empty());
        for n in &ns {
            assert!(n.validate().is_ok());
            let diffs = usize::from(n.alus != s.alus)
                + usize::from(n.regs != s.regs)
                + usize::from(n.l2_ports != s.l2_ports)
                + usize::from(n.l2_latency != s.l2_latency)
                + usize::from(n.l2_pipelined != s.l2_pipelined)
                + usize::from(n.clusters != s.clusters);
            // muls may co-move with alus to stay legal.
            assert!(diffs <= 1, "{n}");
        }
        // Neighbors of a member that stay within constraints are members.
        for n in &ns {
            if axes.cluster_options(n.alus, n.regs).contains(&n.clusters) {
                assert!(axes.contains(n), "{n}");
            }
        }
    }

    #[test]
    fn extension_axes_multiply_the_paper_space() {
        let axes = SpaceAxes::with_extensions();
        let base = axes.base_points();
        let paper = SpaceAxes::paper().base_points();
        assert_eq!(base.len(), paper.len() * ExtSet::AXIS.len());
        // The empty-set block is the paper space exactly (fingerprints
        // hash that enumeration), and every candidate set appears once
        // per paper point.
        assert_eq!(&base[..paper.len()], &paper[..]);
        for set in ExtSet::AXIS {
            assert_eq!(base.iter().filter(|s| s.exts == set).count(), paper.len());
        }
        let mut seen = std::collections::HashSet::new();
        for p in &base {
            assert!(p.validate().is_ok());
            assert!(seen.insert(*p), "duplicate {p}");
        }
        // Extension moves are one-position steps along the axis list.
        let s = ArchSpec::new(8, 4, 256, 2, 4, 2).unwrap();
        let ns = axes.neighbors(&s);
        assert!(ns.iter().any(|n| n.exts == ExtSet::MULADD
            && ArchSpec {
                exts: ExtSet::EMPTY,
                ..*n
            } == s));
        assert!(!ns.iter().any(|n| n.exts == ExtSet::ALL));
        assert!(axes.contains(&s.with_extensions(ExtSet::ALL)));
        assert!(!SpaceAxes::paper().contains(&s.with_extensions(ExtSet::ALL)));
    }

    #[test]
    fn extensionless_axes_sample_the_historical_rng_stream() {
        // Axis sets without the extension dimension must consume exactly
        // the historical seven draws per sample (a, m, r, p2, l2, pipe,
        // c) — an eighth draw would shift every later sample and break
        // the pinned search digests. The widened set draws one more.
        let count_picks = |axes: &SpaceAxes| {
            let mut state = 0x9e37_79b9_u64;
            let mut calls = 0_usize;
            let mut pick = |n: usize| {
                calls += 1;
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                ((state >> 33) as usize) % n
            };
            for _ in 0..16 {
                let s = axes.sample_with(&mut pick);
                assert!(axes.contains(&s), "{s}");
            }
            calls
        };
        assert_eq!(count_picks(&SpaceAxes::paper()), 16 * 7);
        assert_eq!(count_picks(&SpaceAxes::extended()), 16 * 7);
        assert_eq!(count_picks(&SpaceAxes::combinatorial()), 16 * 7);
        assert_eq!(count_picks(&SpaceAxes::with_extensions()), 16 * 8);
    }

    #[test]
    fn mul_fractions_track_alu_moves() {
        let axes = SpaceAxes::paper();
        // Half of 8 ALUs is 4; stepping up to 16 snaps to the nearest
        // legal count for 16 (quarter = 4), stepping down to 4 snaps to
        // half = 2.
        let s = ArchSpec::new(8, 4, 256, 2, 4, 1).unwrap();
        let ns = axes.neighbors(&s);
        assert!(ns.iter().any(|n| n.alus == 16 && n.muls == 4));
        assert!(ns.iter().any(|n| n.alus == 4 && n.muls == 2));
    }
}
