//! Cost/speedup scatter data and best-alternative frontiers
//! (paper Figures 3 and 4).
//!
//! Both constructions gather parallel columns and run a sort-then-sweep
//! core over them (`scatter_soa`, `frontier_soa`) — no hash-map fold, no
//! per-point struct walk. `tests/scoring_pins.rs` pins every point,
//! order and `f64` bit they produce on the full paper and extended
//! spaces; `tests/pinned.rs` holds them to a transcription of the
//! hash-map construction they replaced.

use crate::explore::Exploration;
use cfp_machine::ArchSpec;

/// One point of a scatter diagram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScatterPoint {
    /// The architecture (best cluster arrangement for this benchmark).
    pub spec: ArchSpec,
    /// Baseline-relative cost.
    pub cost: f64,
    /// Speedup on the benchmark.
    pub speedup: f64,
}

/// The *base point* of a spec: the five axes of Table 5. Cluster count
/// and Level-2 pipelining are arrangement freedom, not a new base point
/// — arrangements compete inside one scatter slot.
pub(crate) fn base_key(s: &ArchSpec) -> (u32, u32, u32, u32, u32) {
    (s.alus, s.muls, s.regs, s.l2_ports, s.l2_latency)
}

/// The scatter for one benchmark: one point per *base point* of the
/// space, "after the best cluster arrangement had been selected"
/// (Figure 3's caption) — the arrangement with the highest speedup,
/// cheaper on ties.
#[must_use]
pub fn scatter(exploration: &Exploration, bench: usize) -> Vec<ScatterPoint> {
    let specs: Vec<ArchSpec> = exploration.archs.iter().map(|a| a.spec).collect();
    let cost: Vec<f64> = exploration.archs.iter().map(|a| a.cost).collect();
    let speedup: Vec<f64> = (0..specs.len())
        .map(|a| exploration.speedup(a, bench))
        .collect();
    scatter_soa(&specs, &cost, &speedup)
}

/// The core of [`scatter`]: three parallel columns in, one slot per
/// architecture, `speedup` holding that architecture's speedup on the
/// benchmark being plotted (NaN for a quarantined unit).
///
/// Quarantined (non-finite) entries are dropped before grouping: a unit
/// with no measurement cannot be "the best arrangement" of its base
/// point, and must not block finite siblings either. Arrangements of one
/// base point are folded in architecture-index order with the same
/// epsilon rule the per-point fold always used, so the output is
/// bit-identical to the historical hash-map construction.
fn scatter_soa(specs: &[ArchSpec], cost: &[f64], speedup: &[f64]) -> Vec<ScatterPoint> {
    // Finite units only, grouped by base point. The sort is stable, so
    // within one base point the architecture-index encounter order — the
    // order the fold below depends on — is preserved.
    let mut order: Vec<u32> = (0..specs.len() as u32)
        .filter(|&i| speedup[i as usize].is_finite())
        .collect();
    order.sort_by_key(|&i| base_key(&specs[i as usize]));

    let point = |i: u32| ScatterPoint {
        spec: specs[i as usize],
        cost: cost[i as usize],
        speedup: speedup[i as usize],
    };
    let mut points: Vec<ScatterPoint> = Vec::new();
    let mut at = 0;
    while at < order.len() {
        let key = base_key(&specs[order[at] as usize]);
        let mut cur = point(order[at]);
        at += 1;
        while at < order.len() && base_key(&specs[order[at] as usize]) == key {
            let p = point(order[at]);
            let better = p.speedup > cur.speedup + 1e-12
                || ((p.speedup - cur.speedup).abs() <= 1e-12 && p.cost < cur.cost);
            if better {
                cur = p;
            }
            at += 1;
        }
        points.push(cur);
    }
    points.sort_by(|a, b| a.cost.total_cmp(&b.cost).then(a.spec.cmp(&b.spec)));
    points
}

/// Indices of the best cost/performance alternatives: the staircase of
/// points whose speedup strictly exceeds every cheaper point's (the line
/// the paper draws through each scatter diagram).
///
/// [`scatter`] output is already cost-sorted, so for it this is a single
/// sweep; unsorted input is handled by the cost sort inside the core
/// (indices still come back ascending by cost).
#[must_use]
pub fn frontier(points: &[ScatterPoint]) -> Vec<usize> {
    let cost: Vec<f64> = points.iter().map(|p| p.cost).collect();
    let speedup: Vec<f64> = points.iter().map(|p| p.speedup).collect();
    frontier_soa(&cost, &speedup)
}

/// The core of [`frontier`]: sort-then-sweep over two parallel columns.
///
/// Points are visited cheapest-first (ties keep index order — the sort
/// is stable, so already-sorted input is visited exactly in index
/// order), and a point joins the frontier when its speedup beats the
/// best pushed so far by more than the `1e-12` epsilon. One `O(n log n)`
/// sort and one linear sweep; on cost-sorted input the output is
/// index-identical to the historical in-order scan.
fn frontier_soa(cost: &[f64], speedup: &[f64]) -> Vec<usize> {
    let mut order: Vec<u32> = (0..cost.len() as u32).collect();
    order.sort_by(|&a, &b| cost[a as usize].total_cmp(&cost[b as usize]));
    let mut out = Vec::new();
    let mut best = f64::NEG_INFINITY;
    for &i in &order {
        if speedup[i as usize] > best + 1e-12 {
            best = speedup[i as usize];
            out.push(i as usize);
        }
    }
    out
}

/// The area of cost/speedup space a frontier dominates, relative to the
/// reference corner `(cost_bound, 0.0)`: the sum over frontier points
/// within the bound of `(cost_bound - cost) × (speedup - previous
/// frontier speedup)`. The standard two-objective hypervolume indicator
/// (maximize speedup, minimize cost) — the search engine's measure of
/// "how much of the exhaustive frontier did a guided run recover",
/// robust to the frontier having different member counts.
///
/// `frontier_idx` must come from [`frontier`] over `points` (ascending
/// cost, strictly ascending speedup). Points at or beyond `cost_bound`
/// contribute nothing.
#[must_use]
pub fn hypervolume(points: &[ScatterPoint], frontier_idx: &[usize], cost_bound: f64) -> f64 {
    let mut hv = 0.0;
    let mut prev = 0.0_f64;
    for &i in frontier_idx {
        let p = &points[i];
        if !p.speedup.is_finite() {
            continue;
        }
        if p.cost < cost_bound {
            hv += (cost_bound - p.cost) * (p.speedup - prev);
        }
        // Even an over-bound point raises the bar for later ones: the
        // staircase is monotone, so nothing after it can add area below
        // its speedup anyway.
        prev = p.speedup.max(prev);
    }
    hv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::ExploreConfig;
    use cfp_kernels::Benchmark;

    #[test]
    fn scatter_has_one_point_per_base_and_frontier_is_monotone() {
        let mut cfg = ExploreConfig::smoke();
        cfg.benches = vec![Benchmark::D];
        let ex = Exploration::run(&cfg);
        let pts = scatter(&ex, 0);
        // The smoke space has 7 distinct base configurations.
        assert_eq!(pts.len(), 7);
        let f = frontier(&pts);
        assert!(!f.is_empty());
        let mut last_cost = f64::NEG_INFINITY;
        let mut last_su = f64::NEG_INFINITY;
        for &i in &f {
            assert!(pts[i].cost >= last_cost);
            assert!(pts[i].speedup > last_su);
            last_cost = pts[i].cost;
            last_su = pts[i].speedup;
        }
        // The frontier contains the global best point.
        let best = pts
            .iter()
            .map(|p| p.speedup)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((pts[*f.last().unwrap()].speedup - best).abs() < 1e-12);
    }

    /// Transcription of the pre-SoA frontier: the in-order scan over
    /// already-cost-sorted points. The sweep must reproduce it exactly
    /// on sorted input — including the epsilon subtlety that `best`
    /// tracks only *pushed* members, not the running maximum.
    fn frontier_by_scan(points: &[ScatterPoint]) -> Vec<usize> {
        let mut out = Vec::new();
        let mut best = f64::NEG_INFINITY;
        for (i, p) in points.iter().enumerate() {
            if p.speedup > best + 1e-12 {
                best = p.speedup;
                out.push(i);
            }
        }
        out
    }

    #[test]
    fn sweep_matches_the_historical_scan_on_random_clouds() {
        cfp_testkit::cases(0xF05A_11CE, 256, |rng| {
            let n = 1 + rng.index(40);
            let spec = ArchSpec::baseline();
            let mut pts: Vec<ScatterPoint> = (0..n)
                .map(|_| ScatterPoint {
                    spec,
                    // Coarse grids on purpose: exact cost ties and
                    // epsilon-close speedups are common, exercising the
                    // tie rules rather than the generic path.
                    cost: 1.0 + rng.below(30) as f64 / 4.0,
                    speedup: match rng.below(10) {
                        0 => 2.0 + 1e-13 * rng.below(40) as f64,
                        _ => 0.5 + rng.below(40) as f64 / 8.0,
                    },
                })
                .collect();
            // Callers hold scatter output: cost-sorted.
            pts.sort_by(|a, b| a.cost.total_cmp(&b.cost));
            assert_eq!(frontier(&pts), frontier_by_scan(&pts));
        });
    }

    #[test]
    fn hypervolume_sums_the_dominated_staircase() {
        let spec = ArchSpec::baseline();
        let p = |cost: f64, speedup: f64| ScatterPoint {
            spec,
            cost,
            speedup,
        };
        let pts = [p(1.0, 2.0), p(3.0, 4.0), p(9.0, 5.0)];
        let f = frontier(&pts);
        assert_eq!(f, vec![0, 1, 2]);
        // bound 5: (5-1)*2 + (5-3)*(4-2) = 8 + 4 = 12; the 9-cost point
        // is over the bound and adds nothing.
        assert!((hypervolume(&pts, &f, 5.0) - 12.0).abs() < 1e-12);
        // A superset frontier dominates at least as much area.
        let less = [p(1.0, 2.0), p(3.0, 4.0)];
        let lf = frontier(&less);
        assert!(hypervolume(&less, &lf, 5.0) <= hypervolume(&pts, &f, 5.0) + 1e-12);
        // Empty frontier, or every point over the bound: zero.
        assert_eq!(hypervolume(&[], &[], 5.0), 0.0);
        assert_eq!(hypervolume(&pts, &f, 0.5), 0.0);
    }

    #[test]
    fn sweep_handles_unsorted_input_by_cost_order() {
        let spec = ArchSpec::baseline();
        let p = |cost: f64, speedup: f64| ScatterPoint {
            spec,
            cost,
            speedup,
        };
        // Expensive-but-fast first: the scan would keep index 0 and then
        // reject the cheap point; the sweep visits cheapest-first and
        // keeps both, cheap one first.
        let pts = [p(9.0, 5.0), p(1.0, 2.0)];
        assert_eq!(frontier(&pts), vec![1, 0]);
    }
}
