//! The cycle-time derating model (paper §3.4).
//!
//! The read stage of the register file is assumed to limit cycle speed,
//! with a quadratic relationship between cycle time and port count:
//! `T(p) = α + β·p²`, where `p = 3·(a/c) + 2·(1 + p2)` is the paper's
//! Table 7 port measure. Derating factors are reported relative to the
//! baseline (whose factor is exactly 1.0); see [`crate::calibrate`] for
//! the fit (within 5% of every Table 7 row).

use crate::arch::ArchSpec;
use crate::calibrate;
use std::sync::OnceLock;

/// Computes the cycle-time derating factor of an architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleModel {
    alpha: f64,
    beta: f64,
    baseline_raw: f64,
}

impl CycleModel {
    /// Build from the quadratic's coefficients (normalization to the
    /// baseline is applied automatically).
    #[must_use]
    pub fn from_coefficients(alpha: f64, beta: f64) -> Self {
        let mut m = CycleModel {
            alpha,
            beta,
            baseline_raw: 1.0,
        };
        m.baseline_raw = m.raw_derate(&ArchSpec::baseline());
        m
    }

    /// The model calibrated against the paper's Table 7 (cached).
    #[must_use]
    pub fn paper_calibrated() -> Self {
        static CACHE: OnceLock<CycleModel> = OnceLock::new();
        *CACHE.get_or_init(calibrate::fit_cycle_model)
    }

    fn raw_derate(&self, spec: &ArchSpec) -> f64 {
        // The spec's port measure is the integer the derived machine
        // description reports as `Mdes::cycle_ports` (asserted equal in
        // the mdes tests); reading it directly keeps this call free of
        // the description's heap-allocated unit table — scoring a large
        // design space calls this once per point.
        let p = f64::from(spec.cycle_ports());
        self.alpha + self.beta * p * p
    }

    /// Cycle-time multiplier relative to the baseline: an architecture
    /// with derate 2.0 runs each cycle twice as slowly as the baseline.
    #[must_use]
    pub fn derate(&self, spec: &ArchSpec) -> f64 {
        self.raw_derate(spec) / self.baseline_raw
    }

    /// The fitted `(α, β)` before normalization.
    #[must_use]
    pub fn coefficients(&self) -> (f64, f64) {
        (self.alpha, self.beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(a: u32, p2: u32, c: u32) -> ArchSpec {
        ArchSpec::new(a, 1, 512, p2, 8, c).unwrap()
    }

    #[test]
    fn baseline_derates_to_one() {
        let m = CycleModel::paper_calibrated();
        assert!((m.derate(&ArchSpec::baseline()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn derate_grows_with_alus_and_ports() {
        let m = CycleModel::paper_calibrated();
        assert!(m.derate(&spec(8, 1, 1)) > m.derate(&spec(4, 1, 1)));
        assert!(m.derate(&spec(8, 2, 1)) > m.derate(&spec(8, 1, 1)));
    }

    #[test]
    fn clustering_restores_cycle_speed() {
        // Table 7's core phenomenon: a 16-ALU machine derates 7.3x as one
        // cluster but only ~1.1x as eight clusters.
        let m = CycleModel::paper_calibrated();
        let mono = m.derate(&spec(16, 1, 1));
        let eight = m.derate(&spec(16, 1, 8));
        assert!(mono > 6.5 && mono < 8.0, "mono {mono:.2}");
        assert!(eight < 1.2, "eight {eight:.2}");
    }

    #[test]
    fn monotone_in_port_measure() {
        let m = CycleModel::paper_calibrated();
        let mut last = 0.0;
        for a in [1_u32, 2, 4, 8, 16] {
            let d = m.derate(&spec(a, 1, 1));
            assert!(d > last);
            last = d;
        }
    }
}
