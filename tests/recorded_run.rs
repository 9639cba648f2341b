//! Regression checks on the recorded full-experiment artifact
//! (`results/exploration.csv`): the *data-level* claims EXPERIMENTS.md
//! makes, asserted against the very run it cites; the design space's
//! enumeration, held to the `arch` column recorded at the seed commit;
//! and (release, `--ignored`) the whole experiment regenerated and
//! compared byte for byte. The file is load-bearing: its absence fails.

use custom_fit::dse;
use custom_fit::machine::SpaceAxes;
use custom_fit::prelude::*;

const RECORDED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results/exploration.csv");

fn recorded_text() -> String {
    std::fs::read_to_string(RECORDED).unwrap_or_else(|e| panic!("cannot read `{RECORDED}`: {e}"))
}

fn recorded() -> Exploration {
    dse::from_csv(&recorded_text()).expect("recorded artifact parses")
}

/// The paper space enumerates exactly the recorded run's architectures,
/// in the recorded order: 192 base points, 600 arrangements. The
/// extended space doubles the base points.
#[test]
fn the_paper_space_enumerates_the_recorded_architectures_in_order() {
    let text = recorded_text();
    let mut archs: Vec<ArchSpec> = Vec::new();
    for row in text.lines().skip(1).filter(|r| r.ends_with(",0")) {
        let cell = row.split(',').next().expect("arch column");
        let spec = ArchSpec::parse(&cell.replace('/', " ")).expect("recorded arch parses");
        if archs.last() != Some(&spec) {
            archs.push(spec);
        }
    }
    let paper = SpaceAxes::paper();
    assert_eq!(paper.base_points().len(), 192);
    assert_eq!(archs.len(), 600);
    assert_eq!(paper.arrangements(), archs);
    // What the benchmark package sweeps.
    assert_eq!(DesignSpace::paper().all_arrangements(), archs);
    assert_eq!(SpaceAxes::extended().base_points().len(), 384);
}

/// The experiment itself: the full 192-point sweep regenerates the
/// recording byte for byte (seconds in release, minutes in debug).
#[test]
#[ignore = "the full paper sweep; run in release"]
fn the_paper_experiment_regenerates_the_recording_byte_for_byte() {
    let ex = Exploration::try_run(&ExploreConfig::paper()).expect("the paper sweep runs");
    assert!(
        dse::to_csv(&ex) == recorded_text(),
        "the regenerated sweep differs from results/exploration.csv; \
         `exhibits -- all --save FILE` and diff to see where"
    );
}

#[test]
fn recorded_run_supports_the_experiments_md_claims() {
    let ex = recorded();

    // Scale: the full space, all arrangements.
    assert_eq!(ex.benches.len(), 10);
    assert!(ex.archs.len() >= 550, "{}", ex.archs.len());

    let a_col = ex.bench_index(Benchmark::A).expect("A present");

    // 1. Speedups span roughly the paper's range.
    let mut max_su = f64::NEG_INFINITY;
    let mut min_su = f64::INFINITY;
    for a in 0..ex.archs.len() {
        for b in 0..ex.benches.len() {
            let s = ex.speedup(a, b);
            max_su = max_su.max(s);
            min_su = min_su.min(s);
        }
    }
    assert!(max_su > 10.0, "top speedup {max_su:.2}");
    assert!(min_su < 1.0, "pathologies exist: min {min_su:.2}");

    // 2. The A pathology: some architecture that is within 30% of some
    //    other benchmark's cost-10 best runs A at less than half of A's
    //    own cost-10 best.
    let affordable: Vec<usize> = (0..ex.archs.len())
        .filter(|&i| ex.archs[i].cost <= 10.0)
        .collect();
    let best_a = affordable
        .iter()
        .map(|&i| ex.speedup(i, a_col))
        .fold(f64::NEG_INFINITY, f64::max);
    let danger = (0..ex.benches.len())
        .filter(|&t| t != a_col)
        .map(|t| {
            let best_t = affordable
                .iter()
                .map(|&i| ex.speedup(i, t))
                .fold(f64::NEG_INFINITY, f64::max);
            affordable
                .iter()
                .filter(|&&i| ex.speedup(i, t) >= 0.7 * best_t)
                .map(|&i| ex.speedup(i, a_col))
                .fold(f64::INFINITY, f64::min)
        })
        .fold(f64::INFINITY, f64::min);
    assert!(
        danger * 2.0 < best_a,
        "worst A on a reasonable machine {danger:.2} vs best {best_a:.2}"
    );

    // 3. RANGE monotonicity on the real data, at every cost bound.
    for bound in [5.0, 10.0, 15.0] {
        for t in 0..ex.benches.len() {
            let s0 = select(&ex, t, bound, Range::Fraction(0.0)).expect("feasible");
            let s10 = select(&ex, t, bound, Range::Fraction(0.10)).expect("feasible");
            let sinf = select(&ex, t, bound, Range::Infinite).expect("feasible");
            assert!(s10.su >= s0.su - 1e-9, "{bound}/{t}");
            assert!(sinf.su >= s10.su - 1e-9, "{bound}/{t}");
            assert!(s0.cost <= bound && s10.cost <= bound && sinf.cost <= bound);
        }
    }

    // 4. Frontiers are non-trivial for every benchmark.
    for b in 0..ex.benches.len() {
        let pts = dse::scatter(&ex, b);
        assert_eq!(pts.len(), 192, "one point per base configuration");
        assert!(dse::frontier(&pts).len() >= 4, "{}", ex.benches[b]);
    }

    // 5. Search study on the real oracle: exhaustive is optimal and
    //    hill-climbing is close while touching a fraction of the space.
    let rows = dse::search::study(&ex, 10.0, &[1, 2, 3]);
    assert!((rows[0].2 - 1.0).abs() < 1e-12, "exhaustive quality 1");
    let hill = rows
        .iter()
        .find(|(s, ..)| matches!(s, dse::Strategy::HillClimb { .. }))
        .expect("hill climbing in the study");
    assert!(hill.2 > 0.85, "hill-climb quality {:.3}", hill.2);
    assert!(
        hill.1 < ex.archs.len() as f64 / 3.0,
        "hill-climb evaluations {:.0}",
        hill.1
    );
}
