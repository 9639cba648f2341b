//! Register-allocation coverage: the spill onset along the paper's
//! register axis, and an oracle tying `cfp_sched::regalloc`'s two halves
//! together — the pressure report's fits/spills verdict must agree with
//! actual linear-scan allocation, and no allocation may ever hand out a
//! register number beyond the architecture's bank.

use custom_fit::dse::eval::{plan, residency_budget};
use custom_fit::dse::{CompileCache, Evaluator, ExploreConfig, PlanCache};
use custom_fit::ir::Vreg;
use custom_fit::machine::{ArchSpec, ExtSet, MachineResources};
use custom_fit::obs::UnitTrace;
use custom_fit::prelude::Benchmark;
use custom_fit::sched::{allocate, prepare, pressure, try_compile_core, Fuel};

// ---------------------------------------------------------------------
// Spill onset along the register axis.

/// Benchmark A on the paper's pathological 16-ALU, 8-cluster datapath,
/// swept along the register axis. The onset is monotone: once a bank
/// size lets the chosen unroll fit, every larger bank does too, and the
/// chosen unroll factor never shrinks as registers grow. The smallest
/// bank is pinned to the paper's story (stuck at unroll 1), the largest
/// to the full sweep depth.
#[test]
fn the_spill_onset_moves_monotonically_along_the_register_axis() {
    let reg_sizes = [64_u32, 128, 256, 512];
    let cache = PlanCache::build(&[Benchmark::A], &reg_sizes, &[1, 2, 4, 8, 16]);
    // The register axis shares every core through one warm cache; each
    // row must equal the row a fresh cache schedules on its own.
    let shared = CompileCache::new();
    let mut rows = Vec::new();
    for &r in &reg_sizes {
        let spec = ArchSpec::new(16, 4, r, 1, 4, 8).expect("valid spec");
        let at = |memo: &CompileCache| {
            Evaluator::new(&cache, memo)
                .evaluate(&spec, Benchmark::A, &mut UnitTrace::disabled())
                .expect("evaluation")
        };
        let m = at(&shared);
        assert_eq!(m, at(&CompileCache::new()), "{r} registers");
        rows.push((r, m));
    }
    assert!(shared.core_hits() > 0, "the register axis shared nothing");
    for w in rows.windows(2) {
        let ((r0, a), (r1, b)) = (&w[0], &w[1]);
        assert!(
            b.unroll >= a.unroll,
            "unroll shrank from {} to {} between {r0} and {r1} registers",
            a.unroll,
            b.unroll
        );
        if !a.spilled {
            assert!(
                !b.spilled,
                "a fitting kernel at {r0} registers spilled at {r1}"
            );
        }
        assert!(
            b.cycles_per_output <= a.cycles_per_output + 1e-9,
            "more registers made A slower ({r0}: {}, {r1}: {})",
            a.cycles_per_output,
            b.cycles_per_output
        );
    }
    // The endpoints of the paper's story.
    let starved = &rows.iter().find(|(r, _)| *r == 128).expect("row").1;
    assert_eq!(starved.unroll, 1, "128 registers should pin A at unroll 1");
    let roomy = &rows.last().expect("row").1;
    assert!(roomy.unroll >= 8, "512 registers should unroll A deep");
    assert!(!roomy.spilled);
}

// ---------------------------------------------------------------------
// The pressure/allocation oracle.

/// For every smoke architecture, a spread of benchmarks, and two unroll
/// depths: compile the kernel, then check that
/// * `pressure(..).fits()` and `allocate(..)` agree exactly;
/// * a successful allocation never assigns a physical register at or
///   beyond the cluster's bank size, and covers every value the
///   schedule defines;
/// * a failed allocation names a cluster the pressure report shows as
///   over capacity.
#[test]
fn allocation_succeeds_exactly_when_the_pressure_report_fits() {
    let benches = [Benchmark::A, Benchmark::D, Benchmark::H];
    let smoke = ExploreConfig::smoke().archs;
    let mut checked_ok = 0_u32;
    let mut checked_err = 0_u32;
    for spec in &smoke {
        let machine = MachineResources::from_spec(spec);
        for &bench in &benches {
            let base = bench.kernel();
            for unroll in [1_u32, 2] {
                let budget = residency_budget(spec.regs);
                let off = &mut UnitTrace::disabled();
                let unrolled =
                    plan(base.clone(), budget, unroll, ExtSet::EMPTY, off).expect("under the cap");
                let prepared = prepare(&unrolled, &machine, &mut UnitTrace::disabled());
                let core = try_compile_core(
                    &prepared,
                    &machine,
                    &mut Fuel::unlimited(),
                    &mut UnitTrace::disabled(),
                )
                .expect("compilation under unlimited fuel");
                let report = pressure(&core.assignment, &core.schedule, &machine);
                let ctx = format!("{spec} {bench:?} unroll {unroll}");
                match allocate(&core.assignment, &core.schedule, &machine) {
                    Ok(phys) => {
                        checked_ok += 1;
                        assert!(
                            report.fits(),
                            "{ctx}: allocation fit but pressure says spill"
                        );
                        assert!(
                            !phys.is_empty(),
                            "{ctx}: a scheduled kernel maps no registers"
                        );
                        let mut seen = 0_usize;
                        for v in 0..core.assignment.code.vreg_limit {
                            for (c, cl) in machine.clusters.iter().enumerate() {
                                if let Some(r) = phys.get(Vreg(v), u32::try_from(c).expect("small"))
                                {
                                    seen += 1;
                                    assert!(
                                        u32::from(r) < cl.regs,
                                        "{ctx}: vreg {v} got register {r} in a {}-register bank",
                                        cl.regs
                                    );
                                }
                            }
                        }
                        assert_eq!(
                            seen,
                            phys.len(),
                            "{ctx}: the map holds keys outside the code's vreg range"
                        );
                    }
                    Err(e) => {
                        checked_err += 1;
                        assert!(!report.fits(), "{ctx}: pressure fit but allocation failed");
                        let c = e.cluster as usize;
                        assert!(
                            report.peak[c] > report.capacity[c],
                            "{ctx}: allocation blamed cluster {c}, which the report shows \
                             under capacity (peak {} of {})",
                            report.peak[c],
                            report.capacity[c]
                        );
                    }
                }
            }
        }
    }
    // The oracle saw both sides of the verdict, or it proved nothing.
    assert!(checked_ok > 0, "no kernel fit anywhere");
    assert!(
        checked_err > 0,
        "no kernel spilled anywhere; add a tighter configuration"
    );
}
