//! Architecture selection under a cost budget with a RANGE back-off
//! (paper §4.2, Tables 8–10).
//!
//! For each target benchmark the designer picks the architecture that is
//! best for that benchmark without exceeding COST. With RANGE > 0 the
//! designer is willing to give up up to `RANGE` of the target's best
//! achievable speedup in order to improve the whole suite: among
//! candidates within range of the best, the one with the highest overall
//! `su` (harmonic-mean speedup — total running time) wins. RANGE = ∞
//! ignores the target entirely, answering "which architecture minimizes
//! the total running time of all the applications at this cost".

use crate::explore::Exploration;
use cfp_machine::ArchSpec;

/// The back-off parameter. `Fraction(0.10)` is the paper's "10%".
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Range {
    /// Give up at most this fraction of the target's best speedup.
    Fraction(f64),
    /// Ignore the target: optimize the whole suite.
    Infinite,
}

impl std::fmt::Display for Range {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Range::Fraction(x) => write!(f, "{:.0}%", x * 100.0),
            Range::Infinite => f.write_str("inf"),
        }
    }
}

/// One selected architecture and its full evaluation row.
#[derive(Debug, Clone)]
pub struct Selection {
    /// Index into the exploration's architectures.
    pub arch_index: usize,
    /// The chosen architecture.
    pub spec: ArchSpec,
    /// Its cost.
    pub cost: f64,
    /// Harmonic-mean speedup over all columns (the paper's `su`).
    pub su: f64,
    /// Per-benchmark speedups, column order.
    pub speedups: Vec<f64>,
}

/// The selection rule over parallel columns: `cost`/`su` per
/// architecture plus the target benchmark's speedup column. Returns the
/// winning architecture index.
fn select_core(
    specs: &[ArchSpec],
    cost: &[f64],
    su: &[f64],
    target_su: &[f64],
    cost_bound: f64,
    range: Range,
) -> Option<usize> {
    // Quarantined units surface as NaN speedups, which poison the row's
    // harmonic mean; a designer cannot pick an architecture with missing
    // measurements, so such rows are out of the running entirely.
    let affordable: Vec<usize> = (0..specs.len())
        .filter(|&a| cost[a] <= cost_bound && su[a].is_finite())
        .collect();
    if affordable.is_empty() {
        return None;
    }

    let candidates: Vec<usize> = match range {
        Range::Infinite => affordable,
        Range::Fraction(f) => {
            let best = affordable
                .iter()
                .map(|&a| target_su[a])
                .fold(f64::NEG_INFINITY, f64::max);
            affordable
                .into_iter()
                .filter(|&a| target_su[a] >= best * (1.0 - f) - 1e-12)
                .collect()
        }
    };

    // Among candidates, the best overall suite performance; ties go to
    // the cheaper architecture, then to the lexically smaller spec so
    // results are deterministic.
    candidates.into_iter().min_by(|&x, &y| {
        su[y]
            .total_cmp(&su[x])
            .then(cost[x].total_cmp(&cost[y]))
            .then(specs[x].cmp(&specs[y]))
    })
}

/// Select for `target` under `cost_bound` and `range`.
///
/// Returns `None` when no architecture fits the cost bound.
#[must_use]
pub fn select(
    exploration: &Exploration,
    target: usize,
    cost_bound: f64,
    range: Range,
) -> Option<Selection> {
    // Three linear passes build the columns once, so the winner
    // comparator never recomputes a harmonic mean.
    let na = exploration.archs.len();
    let specs: Vec<ArchSpec> = exploration.archs.iter().map(|a| a.spec).collect();
    let cost: Vec<f64> = exploration.archs.iter().map(|a| a.cost).collect();
    let mut su = Vec::with_capacity(na);
    let mut target_su = Vec::with_capacity(na);
    for a in 0..na {
        su.push(Exploration::harmonic_mean(&exploration.speedup_row(a)));
        target_su.push(exploration.speedup(a, target));
    }

    let winner = select_core(&specs, &cost, &su, &target_su, cost_bound, range)?;
    let speedups = exploration.speedup_row(winner);
    Some(Selection {
        arch_index: winner,
        spec: specs[winner],
        cost: cost[winner],
        su: su[winner],
        speedups,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::ExploreConfig;
    use cfp_kernels::Benchmark;

    fn small_exploration() -> Exploration {
        let mut cfg = ExploreConfig::smoke();
        cfg.benches = vec![Benchmark::A, Benchmark::H];
        Exploration::run(&cfg)
    }

    #[test]
    fn selection_respects_the_cost_bound() {
        let ex = small_exploration();
        for bound in [2.0, 5.0, 10.0] {
            for t in 0..ex.benches.len() {
                if let Some(sel) = select(&ex, t, bound, Range::Fraction(0.0)) {
                    assert!(sel.cost <= bound, "{} > {bound}", sel.cost);
                }
            }
        }
    }

    #[test]
    fn range_zero_maximizes_the_target() {
        let ex = small_exploration();
        let t = 0;
        let sel = select(&ex, t, 10.0, Range::Fraction(0.0)).unwrap();
        for a in 0..ex.archs.len() {
            if ex.archs[a].cost <= 10.0 {
                assert!(
                    ex.speedup(a, t) <= sel.speedups[t] + 1e-9,
                    "arch {a} beats the selection on its own target"
                );
            }
        }
    }

    #[test]
    fn infinite_range_is_target_independent() {
        let ex = small_exploration();
        let s0 = select(&ex, 0, 10.0, Range::Infinite).unwrap();
        let s1 = select(&ex, 1, 10.0, Range::Infinite).unwrap();
        assert_eq!(s0.spec, s1.spec, "the `all` row is a single architecture");
    }

    #[test]
    fn widening_the_range_never_hurts_the_suite() {
        let ex = small_exploration();
        for t in 0..ex.benches.len() {
            let s0 = select(&ex, t, 10.0, Range::Fraction(0.0)).unwrap();
            let s10 = select(&ex, t, 10.0, Range::Fraction(0.10)).unwrap();
            let sinf = select(&ex, t, 10.0, Range::Infinite).unwrap();
            assert!(s10.su >= s0.su - 1e-9);
            assert!(sinf.su >= s10.su - 1e-9);
        }
    }

    #[test]
    fn impossible_budget_returns_none() {
        let ex = small_exploration();
        assert!(select(&ex, 0, 0.1, Range::Fraction(0.0)).is_none());
    }
}
