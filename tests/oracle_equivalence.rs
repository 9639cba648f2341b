//! The exact-II oracle on trial against everything that can check it:
//! structural lower bounds, the shared modulo validator, the golden
//! interpreter, a brute-force transcription of the decision problem on
//! random small instances, a min-cycle-ratio transcription of
//! `rec_mii` and the whole-graph `rec_mii` the component-restricted one
//! replaced, and its own determinism under threads and re-fuelling.

mod common;

use custom_fit::dse::eval::{residency_budget, PlanCache};
use custom_fit::dse::{OracleConfig, OraclePoint, OracleReport, PointVerdict};
use custom_fit::kernels::golden;
use custom_fit::machine::ExtSet;
use custom_fit::obs::UnitTrace;
use custom_fit::prelude::*;
use custom_fit::sched::exact::solve;
use custom_fit::sched::{
    certify_min_ii, modulo_schedule, omega_deps, rec_mii, res_mii, validate_modulo, CertifyOutcome,
    Ddg, ExactVerdict, Fuel, OmegaDep, PipelineProblem, ResReq,
};

/// A compiled point the oracle can certify: the clustered assignment,
/// its DDG, the machine, and the list-schedule length.
fn point(
    bench: Benchmark,
    spec: &ArchSpec,
    unroll: u32,
) -> (custom_fit::sched::Assignment, Ddg, MachineResources, u32) {
    let mut kernel = bench.kernel();
    custom_fit::opt::optimize_budgeted(&mut kernel, (spec.regs / 2) as usize);
    let kernel = custom_fit::opt::unroll::unroll(&kernel, unroll);
    let machine = MachineResources::from_spec(spec);
    let r = compile(&kernel, &machine);
    let ddg = Ddg::build(&r.assignment.code);
    let len = r.length;
    (r.assignment, ddg, machine, len)
}

/// The small corpus the kernel-level tests walk: mid-size machines with
/// and without pipelined L2, so both oracle outcomes appear.
fn corpus() -> Vec<(Benchmark, ArchSpec)> {
    let plain = ArchSpec::new(4, 2, 256, 2, 4, 1).expect("valid");
    let piped = ArchSpec::new(8, 4, 256, 4, 8, 1)
        .expect("valid")
        .with_pipelined_l2();
    vec![
        (Benchmark::D, plain),
        (Benchmark::G, plain),
        (Benchmark::D, piped),
        (Benchmark::G, piped),
        (Benchmark::H, piped),
    ]
}

#[test]
fn certified_ii_never_undercuts_the_structural_lower_bounds() {
    for (bench, spec) in corpus() {
        let (a, ddg, m, len) = point(bench, &spec, 1);
        let deps = omega_deps(&a.code, &ddg);
        let witness = modulo_schedule(&a, &ddg, &m, len).map(|ms| ms.ii);
        let lower = res_mii(&a.code, &a, &m).max(rec_mii(a.code.ops.len(), &deps, len));
        match certify_min_ii(&a, &ddg, &m, len, witness, &mut Fuel::limited(2_000_000)) {
            CertifyOutcome::Certified { min_ii, .. }
            | CertifyOutcome::WitnessOptimal { min_ii, .. } => {
                assert!(
                    min_ii >= lower,
                    "{bench} on {spec}: certified {min_ii} under bound {lower}"
                );
            }
            CertifyOutcome::FuelExhausted { at_ii } => {
                // Even an undecided walk never probes below the bound.
                assert!(at_ii >= lower, "{bench} on {spec}: probing under the bound");
            }
            CertifyOutcome::Unschedulable => panic!("{bench} on {spec}: unschedulable"),
        }
    }
}

#[test]
fn feasible_certificates_validate_and_the_point_simulates_to_golden() {
    for (bench, spec) in corpus() {
        // The existing end-to-end guarantee on the same compilation the
        // oracle certifies: schedule, simulate, compare with golden.
        let n = 4_u64;
        let workload = bench.workload(n, 0xfeed);
        let mut kernel = workload.kernel.clone();
        custom_fit::opt::optimize_budgeted(&mut kernel, (spec.regs / 2) as usize);
        let machine = MachineResources::from_spec(&spec);
        let r = compile(&kernel, &machine);
        let mut mem = workload.image();
        simulate(&kernel, &r, &machine, &mut mem, n)
            .unwrap_or_else(|e| panic!("{bench} on {spec}: {e}"));
        let mut gold = workload.image();
        golden::run(bench, &mut gold, n);
        for i in workload.observable_arrays() {
            assert_eq!(mem.array(i), gold.array(i), "{bench} on {spec}: array {i}");
        }

        // Every feasible certificate on that very loop replays through
        // the shared validator bit-exactly.
        let ddg = Ddg::build(&r.assignment.code);
        let deps = omega_deps(&r.assignment.code, &ddg);
        let witness = modulo_schedule(&r.assignment, &ddg, &machine, r.length).map(|ms| ms.ii);
        if let CertifyOutcome::Certified { min_ii, slots, .. } = certify_min_ii(
            &r.assignment,
            &ddg,
            &machine,
            r.length,
            witness,
            &mut Fuel::limited(2_000_000),
        ) {
            assert!(
                validate_modulo(&r.assignment, &machine, &deps, min_ii, &slots),
                "{bench} on {spec}: certificate at II {min_ii} failed the validator"
            );
            if let Some(w) = witness {
                assert!(min_ii < w, "{bench} on {spec}: no real improvement");
            }
        }
    }
}

/// Brute-force transcription of the fixed-II decision problem: try every
/// slot vector over the completeness box (per-component translation puts
/// some feasible schedule, if any exists, inside `[0, ii + 2·horizon)`
/// after shifting the minimum slot to zero). Row `r` holds `row_units[r]`
/// units.
fn brute_force_feasible(
    n: usize,
    deps: &[OmegaDep],
    row_units: &[u32],
    reqs: &[Vec<ResReq>],
    ii: u32,
) -> bool {
    let max_lat = deps
        .iter()
        .map(|d| i64::from(d.lat))
        .max()
        .unwrap_or(1)
        .max(1);
    let horizon = (n as i64) * (i64::from(ii) + max_lat);
    let span = i64::from(ii) + 2 * horizon;
    let mut slots = vec![0_i64; n];
    let ok = |slots: &[i64]| -> bool {
        for d in deps {
            if slots[d.to] < slots[d.from] + i64::from(d.lat) - i64::from(ii) * i64::from(d.omega) {
                return false;
            }
        }
        let mut counts = vec![0_u32; row_units.len() * ii as usize];
        for (v, rs) in reqs.iter().enumerate() {
            for r in rs {
                for dt in 0..i64::from(r.reserved) {
                    let residue = (slots[v] + dt).rem_euclid(i64::from(ii)) as usize;
                    counts[r.row as usize * ii as usize + residue] += 1;
                }
            }
        }
        counts
            .iter()
            .enumerate()
            .all(|(cell, &k)| k <= row_units[cell / ii as usize])
    };
    fn rec(v: usize, span: i64, slots: &mut Vec<i64>, ok: &dyn Fn(&[i64]) -> bool) -> bool {
        if v == slots.len() {
            return ok(slots);
        }
        for s in 0..span {
            slots[v] = s;
            if rec(v + 1, span, slots, ok) {
                return true;
            }
        }
        false
    }
    rec(0, span, &mut slots, &ok)
}

#[test]
fn the_solver_agrees_with_brute_force_on_random_small_instances() {
    cfp_testkit::cases(0x0bac_1e00, 120, |rng| {
        let n = 1 + rng.below(3) as usize;
        let n_rows = 1 + rng.below(2) as usize;
        let n_deps = rng.below(4) as usize;
        let deps: Vec<OmegaDep> = (0..n_deps)
            .map(|_| OmegaDep {
                from: rng.below(n as u64) as usize,
                to: rng.below(n as u64) as usize,
                lat: 1 + rng.below(3) as u32,
                omega: rng.below(2) as u32,
            })
            .collect();
        // Unit counts per row, a missing unit now and then.
        let row_units: Vec<u32> = (0..n_rows)
            .map(|_| {
                if rng.below(6) == 0 {
                    0
                } else {
                    1 + rng.below(2) as u32
                }
            })
            .collect();
        let reqs: Vec<Vec<ResReq>> = (0..n)
            .map(|_| {
                vec![ResReq {
                    row: rng.below(n_rows as u64) as u32,
                    reserved: 1 + rng.below(2) as u32,
                }]
            })
            .collect();
        for ii in 1..=3_u32 {
            let verdict = solve(n, &deps, &row_units, &reqs, ii, &mut Fuel::unlimited());
            let brute = brute_force_feasible(n, &deps, &row_units, &reqs, ii);
            match verdict {
                ExactVerdict::Feasible(slots) => {
                    assert!(brute, "solver feasible at {ii}, brute force disagrees");
                    // The witness itself must satisfy every constraint.
                    let as_i64: Vec<i64> = slots.iter().map(|&s| i64::from(s)).collect();
                    for d in &deps {
                        assert!(
                            as_i64[d.to]
                                >= as_i64[d.from] + i64::from(d.lat)
                                    - i64::from(ii) * i64::from(d.omega)
                        );
                    }
                }
                ExactVerdict::Infeasible => {
                    assert!(!brute, "solver infeasible at {ii}, brute force found one");
                }
                ExactVerdict::FuelExhausted => panic!("unlimited fuel exhausted"),
            }
        }
    });
}

/// Min-cycle-ratio transcription: the recurrence bound is the maximum
/// over dependence cycles of `ceil(total latency / total distance)` —
/// with a zero-distance positive-latency cycle meaning "no II at all".
fn cycle_bound(n: usize, deps: &[OmegaDep]) -> u32 {
    fn dfs(
        at: usize,
        start: usize,
        lat: u64,
        omega: u64,
        visited: &mut Vec<bool>,
        deps: &[OmegaDep],
        best: &mut u32,
    ) {
        for d in deps.iter().filter(|d| d.from == at) {
            if d.to == start {
                let (l, o) = (lat + u64::from(d.lat), omega + u64::from(d.omega));
                let b = if o == 0 {
                    u32::MAX
                } else {
                    u32::try_from(l.div_ceil(o)).unwrap_or(u32::MAX)
                };
                *best = (*best).max(b);
            } else if !visited[d.to] {
                visited[d.to] = true;
                dfs(
                    d.to,
                    start,
                    lat + u64::from(d.lat),
                    omega + u64::from(d.omega),
                    visited,
                    deps,
                    best,
                );
                visited[d.to] = false;
            }
        }
    }
    let mut best = 1_u32;
    for s in 0..n {
        let mut visited = vec![false; n];
        visited[s] = true;
        dfs(s, s, 0, 0, &mut visited, deps, &mut best);
    }
    best
}

#[test]
fn rec_mii_matches_the_min_cycle_ratio_oracle_on_random_dep_sets() {
    cfp_testkit::cases(0x5eed_4ec2, 200, |rng| {
        let n = 1 + rng.below(4) as usize;
        let n_deps = rng.below(6) as usize;
        let deps: Vec<OmegaDep> = (0..n_deps)
            .map(|_| OmegaDep {
                from: rng.below(n as u64) as usize,
                to: rng.below(n as u64) as usize,
                lat: 1 + rng.below(4) as u32,
                omega: rng.below(3) as u32,
            })
            .collect();
        let expected = cycle_bound(n, &deps);
        let hint = 1 + rng.below(8) as u32;
        assert_eq!(
            rec_mii(n, &deps, hint),
            expected,
            "n={n} deps={deps:?} hint={hint}"
        );
    });
}

#[test]
fn rec_mii_edge_cases_saturate_instead_of_wrapping() {
    // An ω = 0 positive-latency cycle is infeasible at every II: the
    // sentinel comes back no matter how extreme the hint.
    let zero_omega_cycle = [
        OmegaDep {
            from: 0,
            to: 1,
            lat: 2,
            omega: 0,
        },
        OmegaDep {
            from: 1,
            to: 0,
            lat: 2,
            omega: 0,
        },
    ];
    for hint in [1, 2, 1 << 20, u32::MAX - 1, u32::MAX] {
        assert_eq!(rec_mii(2, &zero_omega_cycle, hint), u32::MAX, "hint={hint}");
    }
    // A plain carried cycle still resolves exactly, even when the hint
    // starts the doubling search at the saturation boundary.
    let carried = [
        OmegaDep {
            from: 0,
            to: 1,
            lat: 7,
            omega: 0,
        },
        OmegaDep {
            from: 1,
            to: 0,
            lat: 6,
            omega: 1,
        },
    ];
    for hint in [1, 13, 1 << 20, u32::MAX] {
        assert_eq!(rec_mii(2, &carried, hint), 13, "hint={hint}");
    }
}

/// The `rec_mii` that relaxed the whole dependence set for `n_ops`
/// rounds, verbatim from before the feasibility check was restricted to
/// recurrence components: the reference the restriction is held equal to.
fn whole_graph_rec_mii(n_ops: usize, deps: &[OmegaDep], hi_hint: u32) -> u32 {
    let feasible = |ii: u32| -> bool {
        // Positive-cycle detection on weights (lat − II·ω) via bounded
        // Bellman-Ford relaxation of longest paths.
        let mut dist = vec![0_i64; n_ops];
        for _round in 0..n_ops {
            let mut changed = false;
            for d in deps {
                // Saturating: the sentinel II probe times a saturated
                // carried-memory distance exceeds i64 — such an edge is
                // simply "infinitely slack", which saturation preserves.
                let w = i64::from(d.lat)
                    .saturating_sub(i64::from(ii).saturating_mul(i64::from(d.omega)));
                let relaxed = dist[d.from].saturating_add(w);
                if relaxed > dist[d.to] {
                    dist[d.to] = relaxed;
                    changed = true;
                }
            }
            if !changed {
                return true;
            }
        }
        false // still relaxing after n rounds: positive cycle
    };
    let mut lo = 1_u32;
    let mut hi = hi_hint.max(2);
    while !feasible(hi) {
        if hi == u32::MAX {
            return u32::MAX; // an ω = 0 cycle: no II is feasible
        }
        // Saturate rather than wrap on extreme hints; past the
        // practical range jump straight to the sentinel check, and let
        // the binary search below recover the true bound when one
        // exists up there.
        hi = if hi > (1 << 20) {
            u32::MAX
        } else {
            hi.saturating_mul(2)
        };
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if feasible(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    hi
}

#[test]
fn component_rec_mii_equals_the_whole_graph_one_on_random_dep_sets() {
    use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
    // How often each answer class came up: no recurrence (1), a finite
    // bound above 1, the ω = 0 sentinel.
    let classes = [const { AtomicU32::new(0) }; 3];
    cfp_testkit::cases(0x5cc0_4ec2, 400, |rng| {
        let n = 1 + rng.index(14);
        let mut deps = Vec::new();
        // A forward ω = 0 skeleton (acyclic by construction) …
        for from in 0..n {
            for to in (from + 1)..n {
                if rng.below(5) == 0 {
                    deps.push(OmegaDep {
                        from,
                        to,
                        lat: 1 + rng.below(6) as u32,
                        omega: 0,
                    });
                }
            }
        }
        // … closed into several recurrences by carried edges pointing
        // anywhere (self-dependences included), some with a distance
        // saturated at the conversion limit …
        for _ in 0..rng.index(5) {
            let from = rng.index(n);
            deps.push(OmegaDep {
                from,
                to: rng.index(from + 1),
                lat: 1 + rng.below(6) as u32,
                omega: *rng.pick(&[1, 1, 2, 3, u32::MAX]),
            });
        }
        // … and, now and then, a backward ω = 0 edge: a cycle no II
        // satisfies whenever it closes one.
        if rng.below(6) == 0 {
            let from = rng.index(n);
            deps.push(OmegaDep {
                from,
                to: rng.index(from + 1),
                lat: 1 + rng.below(3) as u32,
                omega: 0,
            });
        }
        // Every class of hint: below the answer, around it, past the
        // doubling search's saturation threshold, and the extremes.
        let hints = [
            1,
            2,
            1 + rng.below(40) as u32,
            (1 << 20) + 1,
            u32::MAX - 1,
            u32::MAX,
        ];
        let want = whole_graph_rec_mii(n, &deps, hints[2]);
        for hint in hints {
            assert_eq!(
                whole_graph_rec_mii(n, &deps, hint),
                want,
                "the reference moved with its hint"
            );
            assert_eq!(
                rec_mii(n, &deps, hint),
                want,
                "n={n} hint={hint} deps={deps:?}"
            );
        }
        let class = match want {
            1 => 0,
            u32::MAX => 2,
            _ => 1,
        };
        classes[class].fetch_add(1, Relaxed);
    });
    let [acyclic, finite, sentinel] = classes.map(AtomicU32::into_inner);
    assert!(
        acyclic >= 20 && finite >= 100 && sentinel >= 20,
        "thin coverage: {acyclic} acyclic, {finite} finite, {sentinel} ω = 0 sentinel"
    );
}

#[test]
fn component_rec_mii_equals_the_whole_graph_one_on_every_kernel() {
    // The reference relaxes every edge for as many rounds as there are
    // ops on each infeasible probe, which is minutes of debug build over
    // the whole corpus: a debug build checks every third unit (3 divides
    // neither the 11 kernels nor the 8 machines, so each still appears),
    // a release build — CI's `release-ignored` job — all 88.
    let stride = if cfg!(debug_assertions) { 3 } else { 1 };
    let mut with_moves = 0;
    let units = common::stratified()
        .into_iter()
        .flat_map(|spec| Benchmark::ALL.map(|bench| (spec, bench)));
    for (spec, bench) in units.step_by(stride) {
        let machine = MachineResources::from_spec(&spec);
        let mut kernel = bench.kernel();
        custom_fit::opt::optimize(&mut kernel);
        let r = compile(&kernel, &machine);
        let ddg = Ddg::build(&r.assignment.code);
        let deps = omega_deps(&r.assignment.code, &ddg);
        let n = r.assignment.code.ops.len();
        with_moves += usize::from(r.assignment.move_count > 0);
        assert_eq!(
            rec_mii(n, &deps, r.length),
            whole_graph_rec_mii(n, &deps, r.length),
            "{bench} on {spec}"
        );
    }
    assert!(with_moves >= 10, "only {with_moves} units moved a value");
}

/// The differential pinned sample: small, fixed seed, reduced ladder so
/// the walk stays debug-build cheap.
fn pinned_config(threads: usize) -> OracleConfig {
    OracleConfig {
        paper_points: 6,
        extended_points: 6,
        seed: 0x0bac_1e00_0bac_1e00,
        benches: vec![Benchmark::D, Benchmark::G, Benchmark::H],
        unrolls: vec![1],
        fuel_ladder: vec![20_000, 200_000],
        threads,
    }
}

/// The pinned verdict digest of [`pinned_config`]'s sample. The exact
/// solver, the heuristic, the sampler, and the digest are all
/// platform-independent integer computations, so this value drifting
/// means behavior drifted.
const PINNED_GAP_DIGEST: u64 = 2_246_422_527_192_875_549;

#[test]
fn the_pinned_sample_is_deterministic_and_the_heuristic_never_wins() {
    let single = OracleReport::run(&pinned_config(1));
    let threaded = OracleReport::run(&pinned_config(3));
    assert_eq!(
        single.digest(),
        threaded.digest(),
        "thread count changed verdicts"
    );
    assert!(
        !single.heuristic_beat_oracle(),
        "heuristic beat a certificate"
    );
    assert!(single.all_valid(), "a schedule failed the shared validator");
    assert_eq!(single.points.len(), 12);
    // The heuristic is graded on every point — on the clustered
    // machines too, where it once scheduled nothing that moved a value
    // and the oracle ran with no witness.
    assert!(single.points.iter().any(|p| p.spec.clusters > 1));
    for p in &single.points {
        assert!(
            p.heuristic_ii.is_some(),
            "{} on {}: no heuristic II",
            p.bench,
            p.spec
        );
    }
    assert_eq!(single.digest(), PINNED_GAP_DIGEST, "gap digest drifted");
}

/// One study point measured from scratch: the study's plan, a one-shot
/// `compile`, a fresh `Ddg::build` of the assigned code and a problem of
/// its own, then the heuristic, the validator and the fuel ladder; and
/// whether cluster assignment inserted moves.
fn reference_point(
    plans: &PlanCache,
    (bench, spec, unroll): (Benchmark, ArchSpec, u32),
    ladder: &[u64],
) -> (OraclePoint, bool) {
    let kernel = plans
        .get(bench, residency_budget(spec.regs), unroll, ExtSet::EMPTY)
        .expect("a plan under the body cap");
    let machine = MachineResources::from_spec(&spec);
    let r = compile(kernel, &machine);
    let ddg = Ddg::build(&r.assignment.code);
    let problem = PipelineProblem::new(&r.assignment, &ddg, &machine, r.length);
    let off = &mut UnitTrace::disabled();
    let ms = problem
        .schedule(&mut Fuel::unlimited(), off)
        .expect("unlimited fuel");
    let witness = ms.as_ref().map(|s| s.ii);
    let mut valid = ms.as_ref().is_none_or(|s| problem.validate(s.ii, &s.slots));
    let mut verdict = PointVerdict::FuelExhausted { at_ii: 0 };
    let mut rung = ladder.len() as u32 - 1;
    for (i, &steps) in ladder.iter().enumerate() {
        let decided = match problem.certify(witness, &mut Fuel::limited(steps), off) {
            CertifyOutcome::Certified {
                min_ii,
                slots,
                proved_infeasible,
            } => {
                valid &= problem.validate(min_ii, &slots);
                PointVerdict::Certified {
                    min_ii,
                    proved_infeasible,
                }
            }
            CertifyOutcome::WitnessOptimal {
                min_ii,
                proved_infeasible,
            } => PointVerdict::WitnessOptimal {
                min_ii,
                proved_infeasible,
            },
            CertifyOutcome::Unschedulable => PointVerdict::Unschedulable,
            CertifyOutcome::FuelExhausted { at_ii } => {
                verdict = PointVerdict::FuelExhausted { at_ii };
                continue;
            }
        };
        (verdict, rung) = (decided, i as u32);
        break;
    }
    let point = OraclePoint {
        bench,
        spec,
        unroll,
        list_len: r.length,
        heuristic_ii: witness,
        verdict,
        rung,
        certificate_valid: valid,
    };
    (point, r.assignment.move_count > 0)
}

#[test]
fn a_study_equals_its_points_measured_one_by_one() {
    // Both spaces, unroll 1 and 2: points share a plan and an L2 latency
    // (one prepared graph), and on some clustered machines assignment
    // inserts moves (a rebuilt graph).
    let config = OracleConfig {
        paper_points: 8,
        extended_points: 8,
        seed: 0x0bac_1e00_0054,
        benches: vec![Benchmark::D, Benchmark::G, Benchmark::H],
        unrolls: vec![1, 2],
        fuel_ladder: vec![2_000, 20_000],
        threads: 2,
    };
    let report = OracleReport::run(&config);
    let mut regs: Vec<u32> = report.points.iter().map(|p| p.spec.regs).collect();
    regs.sort_unstable();
    regs.dedup();
    let plans = PlanCache::build(&config.benches, &regs, &config.unrolls);
    let field = |p: &OraclePoint| {
        let key = (p.bench, p.spec, p.unroll, p.list_len, p.heuristic_ii);
        (key, p.verdict, p.rung, p.certificate_valid)
    };
    let mut moved = 0;
    for p in &report.points {
        let (want, moves) =
            reference_point(&plans, (p.bench, p.spec, p.unroll), &config.fuel_ladder);
        assert_eq!(
            field(p),
            field(&want),
            "{} on {} x{}",
            p.bench,
            p.spec,
            p.unroll
        );
        moved += usize::from(moves);
    }
    assert_eq!(report.points.len(), 16);
    assert!(
        moved > 0 && moved < 16,
        "{moved} of 16 points moved a value"
    );
    assert!(report.points.iter().any(|p| p.spec.l2_pipelined));
}

#[test]
fn certification_verdicts_survive_memoized_re_fuelling() {
    // Exactly the spent budget reproduces the verdict; one step less
    // exhausts — the property the compile cache's re-charge relies on.
    let spec = ArchSpec::new(8, 4, 256, 4, 8, 1)
        .expect("valid")
        .with_pipelined_l2();
    let (a, ddg, m, len) = point(Benchmark::D, &spec, 1);
    let witness = modulo_schedule(&a, &ddg, &m, len).map(|ms| ms.ii);
    let mut fuel = Fuel::limited(2_000_000);
    let out = certify_min_ii(&a, &ddg, &m, len, witness, &mut fuel);
    let spent = fuel.spent();
    assert!(spent > 0, "expected the walk to do real work");
    let replay = certify_min_ii(&a, &ddg, &m, len, witness, &mut Fuel::limited(spent));
    assert_eq!(replay, out);
    let starved = certify_min_ii(&a, &ddg, &m, len, witness, &mut Fuel::limited(spent - 1));
    assert!(matches!(starved, CertifyOutcome::FuelExhausted { .. }));
}

/// An accumulator kept in one array element: `acc[0]` is loaded, added
/// to and stored back every iteration, so each iteration's load reads
/// the element the previous iteration stored — a recurrence of load,
/// add and store latency (4 + 1 + 4 on these machines) that no index
/// shows. The validator checks schedules against `omega_deps` itself,
/// so a carried edge that set drops passes it; this test reads the
/// recurrence off the kernel instead.
#[test]
fn a_fixed_element_accumulator_bounds_both_iis_by_its_recurrence() {
    let kernel = compile_kernel(
        "kernel k(in i32 s[], inout i32 acc[], out i32 d[]) {
            loop i { acc[0] = acc[0] + s[i]; d[i] = acc[0]; }
        }",
        &[],
    )
    .expect("compiles");
    let plain = ArchSpec::new(4, 2, 256, 2, 4, 1).expect("valid");
    for spec in [plain.with_pipelined_l2(), plain] {
        let machine = MachineResources::from_spec(&spec);
        let r = compile(&kernel, &machine);
        let (a, len) = (&r.assignment, r.length);
        let ddg = Ddg::build(&a.code);
        let deps = omega_deps(&a.code, &ddg);
        // The accesses to the fixed element: stride 0.
        let fixed = |store: bool| {
            let ops = a.code.ops.iter().enumerate();
            ops.filter(move |(_, op)| {
                op.inst.is_some_and(|inst| {
                    inst.is_store() == store
                        && inst.mem().is_some_and(|m| m.is_affine() && m.coeff == 0)
                })
            })
        };
        let (store, store_op) = fixed(true).next().expect("one store to acc[0]");
        let carried = deps.iter().any(|d| {
            d.from == store
                && d.omega == 1
                && d.lat == store_op.latency
                && fixed(false).any(|(load, _)| d.to == load)
        });
        assert!(carried, "{spec}: no carried store → load edge: {deps:?}");
        let rec = rec_mii(a.code.ops.len(), &deps, len);
        assert!(rec >= 9, "{spec}: RecMII {rec} below load + add + store");
        let heuristic = modulo_schedule(a, &ddg, &machine, len).expect("schedulable");
        assert!(heuristic.ii >= rec, "{spec}: heuristic II {}", heuristic.ii);
        let witness = Some(heuristic.ii);
        match certify_min_ii(
            a,
            &ddg,
            &machine,
            len,
            witness,
            &mut Fuel::limited(2_000_000),
        ) {
            CertifyOutcome::Certified { min_ii, .. }
            | CertifyOutcome::WitnessOptimal { min_ii, .. } => {
                assert!(
                    min_ii >= rec,
                    "{spec}: certified II {min_ii} under RecMII {rec}"
                );
            }
            other => panic!("{spec}: {other:?}"),
        }
    }
}
