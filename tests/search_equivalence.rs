//! The guided search engine must be invisible where it overlaps the
//! exhaustive machinery and honest where it does not. Four layers of
//! evidence, and one pin:
//!
//! 1. the [`LazyEvaluator`]'s full-fidelity answers are bit-identical to
//!    the eager evaluation path for the same queries;
//! 2. at the default bracket budget the engine recovers the exhaustive
//!    sweep's true constrained optimum on the extended space — not an
//!    approximation of it — while performing a fraction of the
//!    full-fidelity evaluations;
//! 3. the search is deterministic in the seed (bit-identical across
//!    thread counts) and checkpointed runs resume bit-identically;
//! 4. successive-halving promotion keeps exactly the top fraction,
//!    ranks non-finite scores below every finite one, and breaks ties
//!    by ascending index;
//! 5. the journal fingerprint of every search config cfpd builds stays
//!    on the literal values existing journals carry.

use cfp_testkit::cases;
use custom_fit::dse::checkpoint::Checkpoint;
use custom_fit::dse::eval::{Evaluator, PlanStore, UNROLL_SWEEP};
use custom_fit::dse::explore::{Exploration, ExploreConfig};
use custom_fit::dse::{
    frontier, hypervolume, promote, spec_fingerprint, try_search, CompileCache, ScatterPoint,
    SearchConfig, SearchOutcome,
};
use custom_fit::machine::{ArchSpec, CycleModel, ExtSet, SpaceAxes};
use custom_fit::obs::UnitTrace;
use custom_fit::prelude::Benchmark;
use custom_fit::serve::job::search_digest;

const BENCH: Benchmark = Benchmark::D;
const COST_BOUND: f64 = 10.0;

/// Everything a search decided, as exact bits: the evaluated points in
/// order, the frontier indices, the hypervolume. Two outcomes are
/// interchangeable exactly when these agree.
fn decision_bits(so: &SearchOutcome) -> (Vec<(u64, u64, u64)>, Vec<usize>, u64) {
    let pts = so
        .evaluated
        .iter()
        .map(|p| {
            (
                spec_fingerprint(&p.spec),
                p.cost.to_bits(),
                p.speedup.to_bits(),
            )
        })
        .collect();
    (pts, so.frontier.clone(), so.hypervolume.to_bits())
}

fn engine_config(threads: usize) -> SearchConfig {
    let mut cfg = SearchConfig::new(SpaceAxes::extended(), BENCH, COST_BOUND);
    cfg.threads = threads;
    cfg
}

#[test]
fn lazy_evaluator_answers_match_the_eager_evaluation_path() {
    let config = engine_config(1);
    let axes = config.axes.clone();
    let store = PlanStore::new();
    let memo = CompileCache::new();
    let lazy_eval =
        custom_fit::dse::LazyEvaluator::new(&config, &store, &memo).expect("baseline evaluates");
    // The ladder's last rung (unroll caps 4, 8, then none): the full
    // sweep, which must answer as the eager path does.
    let full = 2;

    // The eager reference path: its own plan snapshot and compile
    // cache, so nothing is shared with the evaluator under test.
    let mut regs: Vec<u32> = axes.reg_values().to_vec();
    regs.push(ArchSpec::baseline().regs);
    let ref_store = PlanStore::new();
    let ref_memo = CompileCache::new();
    let ref_plans =
        ref_store.ensure_snapshot_extended(&[BENCH], &regs, &UNROLL_SWEEP, &[ExtSet::EMPTY]);
    let eager = Evaluator::new(&ref_plans, &ref_memo);
    let cycle = CycleModel::paper_calibrated();

    cases(0x5eac_0001, 25, |rng| {
        let spec = axes.sample_with(&mut |n| rng.index(n));
        let lazy = lazy_eval.outcome(&spec, full);
        let eager = match eager.evaluate(&spec, BENCH, &mut UnitTrace::disabled()) {
            Ok(m) => custom_fit::dse::EvalOutcome::Done(m),
            Err(e) => custom_fit::dse::EvalOutcome::Failed { reason: e.into() },
        };
        assert_eq!(lazy, eager, "{spec}");

        // The lazy evaluator's speedup is the exhaustive formula bit for
        // bit.
        if let custom_fit::dse::EvalOutcome::Done(m) = &lazy {
            let want = lazy_eval.baseline_cpo() / (m.cycles_per_output * cycle.derate(&spec));
            assert_eq!(
                lazy_eval.speedup(&spec, &lazy).to_bits(),
                want.to_bits(),
                "{spec}"
            );
        }
    });
}

#[test]
fn guided_search_recovers_the_exhaustive_constrained_optimum() {
    // Ground truth: the full extended sweep on the search benchmark.
    let archs = SpaceAxes::extended().arrangements();
    let arrangements = archs.len();
    let ex = Exploration::run(&ExploreConfig {
        archs,
        benches: vec![BENCH],
        ..ExploreConfig::default()
    });
    let mut points: Vec<ScatterPoint> = Vec::new();
    for (i, arch) in ex.archs.iter().enumerate() {
        let speedup = ex.speedup(i, 0);
        if speedup.is_finite() && arch.cost <= COST_BOUND {
            points.push(ScatterPoint {
                spec: arch.spec,
                cost: arch.cost,
                speedup,
            });
        }
    }
    points.sort_by(|a, b| a.cost.total_cmp(&b.cost).then(a.spec.cmp(&b.spec)));
    let front = frontier(&points);
    let (best_i, best_su) = front
        .last()
        .map(|&i| (i, points[i].speedup))
        .expect("constrained frontier is nonempty");
    let hv = hypervolume(&points, &front, COST_BOUND);

    let so = try_search(&engine_config(2)).expect("search runs");
    let best = so.best.as_ref().expect("search found a best");

    // Not "close": the engine must land on the same architecture with
    // the same bits — its full rung is the exhaustive evaluator.
    assert_eq!(best.spec, points[best_i].spec);
    assert_eq!(best.speedup.to_bits(), best_su.to_bits());
    assert!(
        so.hypervolume >= 0.95 * hv,
        "frontier hypervolume {} vs exhaustive {hv}",
        so.hypervolume
    );
    // ...at a fraction of the full-fidelity budget.
    assert!(
        so.stats.full_evals as usize * 20 <= arrangements,
        "{} full evals is not ≥20x under {arrangements}",
        so.stats.full_evals
    );
    assert!(so.stats.screen_evals > 0);
    assert!(so.stats.dedup_hits > 0);
}

#[test]
fn search_is_thread_deterministic_and_resumes_bit_identically() {
    let narrow = try_search(&engine_config(1)).expect("1-thread search");
    let digest = search_digest(&narrow);
    for threads in [2, 3, 8] {
        let wide = try_search(&engine_config(threads)).expect("multi-thread search");
        assert_eq!(search_digest(&wide), digest, "{threads} threads");
        assert_eq!(decision_bits(&wide), decision_bits(&narrow));
        assert_eq!(wide.rounds, narrow.rounds, "{threads} threads");
    }

    // Journal a run, then replay it on a different thread count: the
    // resumed search must make the same decisions bit for bit, with
    // every previously evaluated outcome served from the journal.
    let dir = std::env::temp_dir().join(format!("cfp_search_equiv_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ck = dir.join("search.ck");
    let _ = std::fs::remove_file(&ck);

    let mut first_cfg = engine_config(3);
    first_cfg.checkpoint = Some(Checkpoint::resume(&ck));
    let first = try_search(&first_cfg).expect("journaled search");
    assert_eq!(first.stats.resumed_units, 0);
    assert_eq!(search_digest(&first), digest);

    let mut resumed_cfg = engine_config(1);
    resumed_cfg.checkpoint = Some(Checkpoint::resume(&ck));
    let resumed = try_search(&resumed_cfg).expect("resumed search");
    assert!(
        resumed.stats.resumed_units > 0,
        "resume replayed nothing from the journal"
    );
    assert_eq!(search_digest(&resumed), digest);
    // Round decisions match exactly; the physical counters legitimately
    // differ (replayed outcomes are dedup hits, not fresh evals).
    assert_eq!(resumed.rounds.len(), narrow.rounds.len());
    for (r, w) in resumed.rounds.iter().zip(&narrow.rounds) {
        assert_eq!(r.round, w.round);
        assert_eq!(r.entrants, w.entrants);
        assert_eq!(r.rung_survivors, w.rung_survivors);
        assert_eq!(r.frontier_size, w.frontier_size);
        assert_eq!(r.best_speedup.to_bits(), w.best_speedup.to_bits());
    }

    // Cut the journal to its first half, as an interrupted run leaves
    // it, and finish the search on eight threads.
    let text = std::fs::read_to_string(&ck).expect("journal");
    let lines: Vec<&str> = text.lines().collect();
    let kept = lines[..lines.len() / 2 + 1].join("\n") + "\n";
    std::fs::write(&ck, kept).expect("cut journal");
    let mut finished_cfg = engine_config(8);
    finished_cfg.checkpoint = Some(Checkpoint::resume(&ck));
    let finished = try_search(&finished_cfg).expect("finished search");
    assert_eq!(finished.stats.resumed_units as usize, lines.len() / 2);
    assert_eq!(search_digest(&finished), digest);

    let _ = std::fs::remove_file(&ck);
    let _ = std::fs::remove_dir(&dir);
}

#[test]
fn promotion_keeps_exactly_the_top_fraction_with_non_finite_scores_last() {
    assert!(promote(&[], 0.5).is_empty());
    // NaN ranks with -inf: both lose to every finite score, ties (and
    // the NaN/-inf tie itself) break by ascending index.
    assert_eq!(
        promote(&[f64::NAN, 1.0, f64::NEG_INFINITY], 1.0),
        vec![1, 0, 2]
    );

    cases(0x5eac_0002, 60, |rng| {
        let n = rng.index(40) + 1;
        let scores: Vec<f64> = (0..n)
            .map(|_| match rng.index(8) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                // A coarse grid, so exact ties are common.
                _ => (rng.index(9) as f64 - 4.0) / 2.0,
            })
            .collect();
        let fraction = rng.index(101) as f64 / 100.0;
        let kept = promote(&scores, fraction);

        // Exactly ceil(n·fraction), at least one, never more than n.
        let want = ((n as f64 * fraction).ceil() as usize).clamp(1, n);
        assert_eq!(kept.len(), want, "n={n} fraction={fraction}");

        // No duplicates, all in range.
        let mut seen = std::collections::HashSet::new();
        for &i in &kept {
            assert!(i < n);
            assert!(seen.insert(i), "index {i} promoted twice");
        }

        // Rank order: descending score (NaN as -inf), ties ascending
        // by index — and every kept entry outranks every dropped one.
        let rank = |i: usize| {
            let s = scores[i];
            if s.is_nan() {
                f64::NEG_INFINITY
            } else {
                s
            }
        };
        for w in kept.windows(2) {
            let (a, b) = (w[0], w[1]);
            assert!(
                rank(a) > rank(b) || (rank(a) == rank(b) && a < b),
                "promotion order broken at {a},{b} in {scores:?}"
            );
        }
        let floor = kept.last().copied().expect("nonempty");
        for i in 0..n {
            if !kept.contains(&i) {
                assert!(
                    rank(i) < rank(floor) || (rank(i) == rank(floor) && i > floor),
                    "dropped {i} outranks kept {floor} in {scores:?}"
                );
            }
        }
    });
}

/// The fused-extension axis is searchable: over
/// `SpaceAxes::with_extensions` the lazy evaluator snapshots fused plans,
/// extended candidates evaluate like any other spec, and the search
/// stays bit-deterministic across thread counts — the new dimension
/// adds no nondeterminism. The proposal stream *reaches* extended
/// specs (otherwise this test would pass vacuously).
#[test]
fn search_over_the_extension_axis_is_deterministic_and_reaches_extensions() {
    let config = |threads: usize| {
        let mut cfg = SearchConfig::new(SpaceAxes::with_extensions(), BENCH, COST_BOUND);
        cfg.rounds = 3;
        cfg.round_size = 16;
        cfg.threads = threads;
        cfg
    };
    let wide = try_search(&config(4)).expect("4-thread search");
    let narrow = try_search(&config(1)).expect("1-thread search");
    assert_eq!(decision_bits(&wide), decision_bits(&narrow));
    assert!(
        wide.evaluated.iter().any(|p| !p.spec.exts.is_empty()),
        "no extended candidate was ever evaluated"
    );
    // The archive's speedups are finite where evaluation succeeded and
    // the frontier respects the cost bound, extensions included.
    for &i in &wide.frontier {
        assert!(wide.evaluated[i].cost <= COST_BOUND + 1e-9);
    }
}

/// The search journal's fingerprint, pinned to the bytes every shipped
/// journal header carries: cfpd's search configs for each named space,
/// without and with a job fuel budget, and the `SearchConfig::new`
/// defaults `tests/pinned.rs` searches with. A changed value refuses
/// every existing `cfp-search` journal on resume.
#[test]
fn search_fingerprints_are_pinned() {
    use custom_fit::dse::search::search_fingerprint;
    use custom_fit::serve::job::search_config;
    use custom_fit::serve::{JobKind, JobSpec, SpaceName};
    use std::path::Path;

    let pinned = [
        (SpaceName::Paper, None, 0x02a3_8218_d3a5_87ae),
        (SpaceName::Paper, Some(5000), 0xc70b_e1a8_064a_23cf),
        (SpaceName::Extended, None, 0x31b4_7dc7_bcbd_13da),
        (SpaceName::Extended, Some(5000), 0xbd9b_2f5b_8f4d_8703),
        (SpaceName::Combinatorial, None, 0xd965_94d6_83a0_b10b),
        (SpaceName::Combinatorial, Some(5000), 0x10d2_562a_2905_678e),
    ];
    for (space, fuel, want) in pinned {
        let job = JobSpec {
            kind: JobKind::Search,
            benches: vec![BENCH],
            space: Some(space),
            cost_bound: Some(COST_BOUND),
            seed: 7,
            fuel,
            ..JobSpec::default()
        };
        let got = search_fingerprint(&search_config(&job, Path::new("")));
        assert_eq!(got, want, "{space:?} fuel {fuel:?}: {got:#018x}");
    }
    let defaults = SearchConfig::new(SpaceAxes::extended(), Benchmark::D, 10.0);
    let got = search_fingerprint(&defaults);
    assert_eq!(got, 0x832a_788f_b17d_8595, "defaults: {got:#018x}");
}
