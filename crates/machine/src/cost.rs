//! The datapath-area cost model (paper §3.3).
//!
//! ```text
//! COST = Σ over clusters of  Xdp(p) · (Yreg(r', p) + Yalu(a') + Ymul(m'))
//!        + k6 · (clusters − 1)          // inter-cluster interconnect
//!
//! Xdp(p)      = k1·p          (datapath width; k1 folds into the scale)
//! Yreg(r', p) = r'·(k2·p + k3) (register-file height)
//! Yalu(a')    = k4·a'          (ALU height)
//! Ymul(m')    = k5·m'          (multiplier height)
//! p           = 3·a' + 2·l'    (register-file ports of the cluster)
//! ```
//!
//! Costs are reported relative to the baseline architecture, which costs
//! exactly 1.0. The interconnect term is our one structural addition to
//! the printed formula — see [`crate::calibrate`] for why it is needed
//! and how the constants are fit to the paper's Table 6.

use crate::arch::ArchSpec;
use crate::calibrate;
use crate::ext::EXTENSIONS;
use crate::mdes::UnitClass;
use std::sync::OnceLock;

/// Area premium of an extension that upgrades the IMUL slots, per slot,
/// in ALU heights (multiplied by `k4`): an accumulate stage adds an
/// adder and forwarding to each multiplier.
pub const MUL_UPGRADE_AREA_ALU_HEIGHTS: f64 = 0.5;

/// Area premium of an extension that upgrades the ALU slots, per slot,
/// in ALU heights: a compare-select mux or a short post-shifter.
pub const ALU_UPGRADE_AREA_ALU_HEIGHTS: f64 = 0.25;

/// Computes architecture cost in baseline-relative units.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    k2: f64,
    k3: f64,
    k4: f64,
    k5: f64,
    k6: f64,
    baseline_raw: f64,
}

impl CostModel {
    /// Build a model from raw coefficients (`k1` is normalized away: the
    /// model always reports cost relative to [`ArchSpec::baseline`]).
    #[must_use]
    pub fn from_coefficients(k2: f64, k3: f64, k4: f64, k5: f64, k6: f64) -> Self {
        let mut m = CostModel {
            k2,
            k3,
            k4,
            k5,
            k6,
            baseline_raw: 1.0,
        };
        m.baseline_raw = m.raw_cost(&ArchSpec::baseline());
        m
    }

    /// The model calibrated against the paper's Table 6 (cached; the fit
    /// runs once per process).
    #[must_use]
    pub fn paper_calibrated() -> Self {
        static CACHE: OnceLock<CostModel> = OnceLock::new();
        CACHE.get_or_init(calibrate::fit_cost_model).clone()
    }

    /// The raw (un-normalized) cost, computed from the per-cluster
    /// shapes the machine description itself is derived from (the same
    /// counts the scheduler sees through [`crate::Mdes`]). Reading the
    /// shapes directly keeps this allocation-free — a
    /// [`crate::Mdes::from_spec`] materializes its unit table on the
    /// heap, and scoring a large design space calls this once per point.
    #[must_use]
    pub fn raw_cost(&self, spec: &ArchSpec) -> f64 {
        let (k2, k3, k4, k5) = (self.k2, self.k3, self.k4, self.k5);
        // Fused-extension area: each enabled extension upgrades the slots
        // of its unit, charging a fraction of an ALU height per slot.
        // Both weights are exactly 0.0 for the empty set, so unextended
        // costs stay bit-identical (x + 0.0 == x for these finite sums).
        let upgraded = |i: usize, unit| EXTENSIONS[i].unit == unit;
        let upgrades = |unit| spec.exts.iter().filter(|&i| upgraded(i, unit)).count() as f64;
        let ext_alu_w = k4 * ALU_UPGRADE_AREA_ALU_HEIGHTS * upgrades(UnitClass::Alu);
        let ext_mul_w = k4 * MUL_UPGRADE_AREA_ALU_HEIGHTS * upgrades(UnitClass::Mul);
        let mut total = 0.0;
        for sh in spec.cluster_shapes() {
            let p = f64::from(sh.regfile_ports());
            let y_reg = f64::from(sh.regs) * (k2 * p + k3);
            let y_alu = k4 * f64::from(sh.alus);
            let y_mul = k5 * f64::from(sh.muls);
            let y_ext = ext_alu_w * f64::from(sh.alus) + ext_mul_w * f64::from(sh.muls);
            total += p * (y_reg + y_alu + y_mul + y_ext);
        }
        total + self.k6 * f64::from(spec.clusters - 1)
    }

    /// Cost relative to the baseline (the unit of Tables 6 and 8–10).
    #[must_use]
    pub fn cost(&self, spec: &ArchSpec) -> f64 {
        self.raw_cost(spec) / self.baseline_raw
    }

    /// The fitted coefficients `(k2, k3, k4, k5, k6)`.
    #[must_use]
    pub fn coefficients(&self) -> (f64, f64, f64, f64, f64) {
        (self.k2, self.k3, self.k4, self.k5, self.k6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(a: u32, m: u32, r: u32, p2: u32, c: u32) -> ArchSpec {
        ArchSpec::new(a, m, r, p2, 8, c).unwrap()
    }

    #[test]
    fn baseline_costs_one() {
        let model = CostModel::paper_calibrated();
        assert!((model.cost(&ArchSpec::baseline()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cost_is_monotone_in_each_resource() {
        let model = CostModel::paper_calibrated();
        let base = spec(4, 2, 128, 1, 2);
        let c0 = model.cost(&base);
        assert!(model.cost(&spec(8, 2, 128, 1, 2)) > c0, "more ALUs");
        assert!(model.cost(&spec(4, 4, 128, 1, 2)) > c0, "more MULs");
        assert!(model.cost(&spec(4, 2, 256, 1, 2)) > c0, "more registers");
        assert!(model.cost(&spec(4, 2, 128, 2, 2)) > c0, "more L2 ports");
    }

    #[test]
    fn clustering_cuts_cost_of_big_machines() {
        // The core Table 6 phenomenon: splitting a big register file into
        // clusters slashes area (ports enter quadratically).
        let model = CostModel::paper_calibrated();
        let mono = model.cost(&spec(16, 8, 512, 1, 1));
        let quad = model.cost(&spec(16, 8, 512, 1, 4));
        assert!(quad < mono / 3.0, "mono {mono:.1} vs 4-cluster {quad:.1}");
    }

    #[test]
    fn coefficients_are_physical() {
        let (k2, k3, k4, k5, k6) = CostModel::paper_calibrated().coefficients();
        assert!(k2 > 0.0);
        assert!(k3 >= 1e-3, "register height floor");
        assert!(k4 > 0.0);
        assert!((k5 - 3.0 * k4).abs() < 1e-12, "mul pinned at 3 ALU heights");
        assert!(k6 > 0.0);
    }

    #[test]
    fn extensions_charge_area_and_empty_sets_charge_exactly_nothing() {
        use crate::ext::ExtSet;
        let model = CostModel::paper_calibrated();
        let base = spec(8, 4, 256, 2, 2);
        let c0 = model.cost(&base);
        // Empty set: bit-identical to a spec built before the axis.
        assert_eq!(
            model.cost(&base.with_extensions(ExtSet::EMPTY)).to_bits(),
            c0.to_bits()
        );
        // Each extension costs something; the full set costs the most,
        // and the premium stays small next to the units it upgrades.
        let mut prev = c0;
        for set in [ExtSet::MULADD, ExtSet::MULADD.with(1), ExtSet::ALL] {
            let c = model.cost(&base.with_extensions(set));
            assert!(c > prev, "{set}: {c} !> {prev}");
            prev = c;
        }
        let all = model.cost(&base.with_extensions(ExtSet::ALL));
        assert!(all < c0 * 1.15, "premium too large: {all} vs {c0}");
        // `madd` scales with the IMUL slots, not the ALUs.
        let few_muls = spec(8, 1, 256, 2, 2);
        let madd_few =
            model.cost(&few_muls.with_extensions(ExtSet::MULADD)) - model.cost(&few_muls);
        let madd_many = model.cost(&base.with_extensions(ExtSet::MULADD)) - c0;
        assert!(madd_many > madd_few);
    }

    #[test]
    fn cost_range_matches_paper_claim() {
        // "The costs range from 1.0 … to about 100 for the most ambitious
        // architectures (16 ALUs, 8 MULs, 512 registers, 4 memory ports,
        // 1 cluster)."
        let model = CostModel::paper_calibrated();
        let ambitious = spec(16, 8, 512, 4, 1);
        let c = model.cost(&ambitious);
        assert!(c > 60.0 && c < 160.0, "got {c:.1}");
    }
}
