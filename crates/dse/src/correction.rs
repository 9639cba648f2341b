//! The paper's clustering "correction value" approximation, as an
//! ablation.
//!
//! To avoid an exponential explosion of runtime, the paper did **not**
//! compile for every cluster arrangement: it computed "a 'correction
//! value' as a function of the number of clusters, by running a set of
//! separate experiments for a few significant architecture data points"
//! (§2.4), and asserted "this approximation is enough to account for the
//! effects of clustering".
//!
//! Our reproduction schedules every arrangement for real, which lets us
//! *test* that assertion: derive per-cluster-count correction factors
//! from a few sample base points exactly as the paper did, predict every
//! other clustered result from its single-cluster sibling, and measure
//! the prediction error against the fully-scheduled truth.

use crate::explore::Exploration;
use crate::pareto::base_key;
use cfp_ir::WordMap;

/// Per-benchmark correction factors: `factor[bench][clusters]` ≈
/// `cycles(c clusters) / cycles(1 cluster)` at the sample points.
#[derive(Debug, Clone)]
pub struct CorrectionModel {
    factors: Vec<WordMap<u32, f64>>,
}

impl CorrectionModel {
    /// Fit correction factors from up to `samples` base points that have
    /// both single-cluster and multi-cluster evaluations.
    #[must_use]
    pub fn fit(ex: &Exploration, samples: usize) -> Self {
        // Group arch indices by base point.
        let mut groups: WordMap<(u32, u32, u32, u32, u32), Vec<usize>> = WordMap::default();
        for (i, a) in ex.archs.iter().enumerate() {
            groups.entry(base_key(&a.spec)).or_default().push(i);
        }
        let mut sample_groups: Vec<&Vec<usize>> = groups
            .values()
            .filter(|g| g.len() > 1 && g.iter().any(|&i| ex.archs[i].spec.clusters == 1))
            .collect();
        // Deterministic sample choice: spread across the space.
        sample_groups.sort_by_key(|g| ex.archs[g[0]].spec);
        let stride = (sample_groups.len() / samples.max(1)).max(1);
        let chosen: Vec<&Vec<usize>> = sample_groups.iter().step_by(stride).copied().collect();

        let mut factors = vec![WordMap::<u32, (f64, f64)>::default(); ex.benches.len()];
        for g in chosen {
            // The groups were filtered to contain a single-cluster member,
            // but stay total if that invariant ever breaks.
            let Some(mono) = g.iter().find(|&&i| ex.archs[i].spec.clusters == 1).copied() else {
                continue;
            };
            for &i in g {
                let c = ex.archs[i].spec.clusters;
                for (b, acc) in factors.iter_mut().enumerate() {
                    let ratio = ex.archs[i].outcomes[b].cycles_per_output()
                        / ex.archs[mono].outcomes[b].cycles_per_output();
                    // A quarantined unit has no measurement (NaN); it
                    // cannot contribute a sample to the fit.
                    if !ratio.is_finite() {
                        continue;
                    }
                    let e = acc.entry(c).or_insert((0.0, 0.0));
                    e.0 += ratio;
                    e.1 += 1.0;
                }
            }
        }
        CorrectionModel {
            factors: factors
                .into_iter()
                .map(|m| m.into_iter().map(|(c, (s, n))| (c, s / n)).collect())
                .collect(),
        }
    }

    /// Predicted cycles-per-output of arch `i` on bench column `b`,
    /// given only the single-cluster sibling's measurement.
    #[must_use]
    pub fn predict(&self, ex: &Exploration, i: usize, b: usize) -> Option<f64> {
        let spec = ex.archs[i].spec;
        let mono_cpo = ex
            .archs
            .iter()
            .position(|a| a.spec.clusters == 1 && base_key(&a.spec) == base_key(&spec))
            .map(|m| ex.archs[m].outcomes[b].cycles_per_output())
            .filter(|c| c.is_finite())?;
        let f = *self.factors[b].get(&spec.clusters)?;
        Some(mono_cpo * f)
    }
}

/// Error statistics of the approximation over the whole exploration.
#[derive(Debug, Clone, Copy, Default)]
pub struct AblationReport {
    /// Predictions compared.
    pub points: usize,
    /// Mean |relative error| of predicted cycles.
    pub mean_abs_err: f64,
    /// Maximum |relative error|.
    pub max_abs_err: f64,
    /// Fraction of (benchmark, cost-bound) design decisions that come
    /// out identical under the approximation (best-arch agreement at
    /// cost bounds 5/10/15).
    pub decision_agreement: f64,
}

/// Evaluate the paper's approximation against full clustered scheduling.
#[must_use]
pub fn ablation(ex: &Exploration, samples: usize) -> AblationReport {
    let model = CorrectionModel::fit(ex, samples);
    let mut points = 0_usize;
    let mut sum = 0.0;
    let mut max = 0.0_f64;
    for (i, arch) in ex.archs.iter().enumerate() {
        if arch.spec.clusters == 1 {
            continue;
        }
        for b in 0..ex.benches.len() {
            let Some(pred) = model.predict(ex, i, b) else {
                continue;
            };
            let truth = arch.outcomes[b].cycles_per_output();
            if !truth.is_finite() {
                continue; // a quarantined unit has no truth to score against
            }
            let rel = ((pred - truth) / truth).abs();
            points += 1;
            sum += rel;
            max = max.max(rel);
        }
    }

    // Decision agreement: does argmax-speedup-under-cost change?
    let mut decisions = 0_usize;
    let mut agree = 0_usize;
    for bound in [5.0, 10.0, 15.0] {
        for b in 0..ex.benches.len() {
            // NaN speedups (quarantined units) are excluded from both
            // argmaxes; total_cmp keeps the comparison total regardless.
            let truth_best = (0..ex.archs.len())
                .filter(|&i| ex.archs[i].cost <= bound && ex.speedup(i, b).is_finite())
                .max_by(|&x, &y| ex.speedup(x, b).total_cmp(&ex.speedup(y, b)));
            let approx_value = |i: usize| -> f64 {
                let cpo = if ex.archs[i].spec.clusters == 1 {
                    Some(ex.archs[i].outcomes[b].cycles_per_output())
                } else {
                    model.predict(ex, i, b)
                };
                let v = cpo.map_or(f64::NEG_INFINITY, |c| {
                    ex.baseline.outcomes[b].cycles_per_output() / (c * ex.archs[i].derate)
                });
                if v.is_nan() {
                    f64::NEG_INFINITY
                } else {
                    v
                }
            };
            let approx_best = (0..ex.archs.len())
                .filter(|&i| ex.archs[i].cost <= bound)
                .max_by(|&x, &y| approx_value(x).total_cmp(&approx_value(y)));
            if let (Some(t), Some(a)) = (truth_best, approx_best) {
                decisions += 1;
                // Agreement up to near-ties: the approximate winner's true
                // speedup within 5% of the true winner's.
                let within = ex.speedup(a, b) >= 0.95 * ex.speedup(t, b);
                agree += usize::from(within);
            }
        }
    }

    AblationReport {
        points,
        mean_abs_err: if points > 0 { sum / points as f64 } else { 0.0 },
        max_abs_err: max,
        decision_agreement: if decisions > 0 {
            agree as f64 / decisions as f64
        } else {
            1.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::ExploreConfig;
    use cfp_kernels::Benchmark;
    use cfp_machine::ArchSpec;

    fn ex() -> Exploration {
        // Base points that expand to several cluster counts.
        let mut archs = Vec::new();
        for (a, m, r) in [(4_u32, 2_u32, 256_u32), (8, 4, 256), (8, 2, 512)] {
            for c in [1_u32, 2, 4] {
                archs.push(ArchSpec::new(a, m, r, 1, 4, c).expect("valid"));
            }
        }
        Exploration::run(&ExploreConfig {
            archs,
            benches: vec![Benchmark::D, Benchmark::H],
            threads: 1,
            ..ExploreConfig::default()
        })
    }

    #[test]
    fn correction_predicts_within_reason_and_reports() {
        let ex = ex();
        let report = ablation(&ex, 2);
        assert!(report.points > 0);
        assert!(report.mean_abs_err >= 0.0);
        assert!(report.max_abs_err >= report.mean_abs_err);
        assert!(report.decision_agreement > 0.0 && report.decision_agreement <= 1.0);
    }

    #[test]
    fn fitting_on_everything_is_self_consistent_at_samples() {
        let ex = ex();
        let model = CorrectionModel::fit(&ex, usize::MAX);
        // With every group sampled, predictions at the sampled points are
        // group-averaged, so errors stay bounded by in-group spread.
        for i in 0..ex.archs.len() {
            for b in 0..ex.benches.len() {
                if ex.archs[i].spec.clusters > 1 {
                    let p = model.predict(&ex, i, b).expect("covered");
                    assert!(p > 0.0);
                }
            }
        }
    }
}
