//! Property tests for the machine model: conservation, validation
//! totality, parse/display round-trips, and model sanity over the whole
//! enumerable parameter lattice (not just the curated design space).

use cfp_machine::{ArchSpec, CostModel, CycleModel, MachineResources, SpaceAxes, UnitClass};
use cfp_testkit::{cases, Rng};

fn any_field(rng: &mut Rng) -> (u32, u32, u32, u32, u32, u32) {
    (
        rng.range_u32(1..=16), // alus (any value, not just powers of two)
        rng.range_u32(1..=16), // muls
        rng.range_u32(16..=512),
        rng.range_u32(1..=4),
        rng.range_u32(1..=8),
        rng.range_u32(1..=16),
    )
}

/// `ArchSpec::new` never panics, and accepted specs satisfy every
/// structural invariant.
#[test]
fn validation_is_total_and_sound() {
    cases(0xa2c4_0001, 256, |rng| {
        let (a, m, r, p2, l2, c) = any_field(rng);
        match ArchSpec::new(a, m, r, p2, l2, c) {
            Ok(spec) => {
                assert!(spec.muls <= spec.alus);
                assert!(spec.clusters <= spec.alus);
                assert_eq!(spec.alus % spec.clusters, 0);
                assert_eq!(spec.regs % spec.clusters, 0);

                // Conservation across cluster shapes.
                let shapes: Vec<_> = spec.cluster_shapes().collect();
                assert_eq!(shapes.iter().map(|s| s.alus).sum::<u32>(), spec.alus);
                assert_eq!(shapes.iter().map(|s| s.muls).sum::<u32>(), spec.muls);
                assert_eq!(shapes.iter().map(|s| s.regs).sum::<u32>(), spec.regs);
                assert_eq!(
                    shapes.iter().map(|s| s.l1_ports + s.l2_ports).sum::<u32>(),
                    spec.total_mem_ports()
                );
                assert_eq!(shapes.iter().filter(|s| s.has_branch).count(), 1);
                assert_eq!(shapes.iter().map(|s| s.l1_ports).sum::<u32>(), 1);

                // Round-robin dealing differs by at most one across clusters.
                let mem_counts: Vec<u32> = shapes.iter().map(|s| s.l1_ports + s.l2_ports).collect();
                let (mn, mx) = (
                    *mem_counts.iter().min().unwrap(),
                    *mem_counts.iter().max().unwrap(),
                );
                assert!(mx - mn <= 1);

                // Display/parse round trip.
                let text = spec.to_string();
                assert_eq!(ArchSpec::parse(&text).unwrap(), spec);

                // Resources mirror the shapes.
                let res = MachineResources::from_spec(&spec);
                assert_eq!(res.cluster_count(), spec.clusters as usize);
                assert_eq!(res.mdes.total_units(UnitClass::Alu), spec.alus);
                assert!(res.mdes.total_units(UnitClass::Mul) > 0);
            }
            Err(_) => {
                // Rejected specs really do break an invariant.
                let broken = m > a || c > a || a % c != 0 || r % c != 0;
                assert!(broken, "({a} {m} {r} {p2} {l2} {c}) rejected spuriously");
            }
        }
    });
}

/// Models are finite, positive, and baseline-normalized for every
/// valid spec.
#[test]
fn models_are_sane_everywhere() {
    cases(0xa2c4_0002, 256, |rng| {
        let (a, m, r, p2, l2, c) = any_field(rng);
        if let Ok(spec) = ArchSpec::new(a, m, r, p2, l2, c) {
            let cost = CostModel::paper_calibrated().cost(&spec);
            let derate = CycleModel::paper_calibrated().derate(&spec);
            assert!(cost.is_finite() && cost > 0.0);
            assert!(derate.is_finite() && derate > 0.5);
            // Nothing is cheaper than the baseline by more than rounding:
            // the baseline is the minimal machine of the space.
            if spec.alus >= 1 && spec.regs >= 64 && spec.l2_ports >= 1 {
                assert!(cost > 0.5, "{spec}: {cost}");
            }
        }
    });
}

#[test]
fn the_paper_space_is_fully_valid_and_priced() {
    let cost = CostModel::paper_calibrated();
    let cycle = CycleModel::paper_calibrated();
    let all = SpaceAxes::paper().arrangements();
    assert!(all.len() > 500, "{}", all.len());
    for spec in &all {
        assert!(spec.validate().is_ok(), "{spec}");
        let c = cost.cost(spec);
        let d = cycle.derate(spec);
        assert!((0.9..200.0).contains(&c), "{spec}: cost {c}");
        assert!((0.9..10.0).contains(&d), "{spec}: derate {d}");
    }
    // The paper's claim: costs range from 1.0 to about 100.
    let max = all
        .iter()
        .map(|s| cost.cost(s))
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(max > 60.0 && max < 160.0, "max cost {max:.1}");
}
