//! Headline exhibit for the guided search engine: frontier quality per
//! full-fidelity evaluation, against the exhaustive sweep's answer.
//!
//! Three measurements over benchmark D under a cost bound of 10:
//!
//!   * **exhaustive** — `Exploration` over every arrangement of the
//!     extended design space (the 1200-arrangement reference): its
//!     constrained frontier, best speedup, and hypervolume are ground
//!     truth, and its arrangement count is the full-fidelity evaluation
//!     budget the guided engine is judged against.
//!   * **guided** — `try_search` over the same space at the engine's
//!     default bracket budget. The exhibit's claim: best constrained
//!     speedup and hypervolume both ≥ 95% of exhaustive, at ≥ 20×
//!     fewer full-fidelity evaluations. The frontier is also required
//!     to be bit-identical across thread counts (`results_identical`).
//!   * **combinatorial** — the same engine pointed at the ≥ 10^5-point
//!     combinatorial space, where exhaustive sweeping is off the table:
//!     a wall-clock row showing the budget the lazy oracle actually
//!     spends there.
//!
//! Usage:
//!   `cargo run --release --bin bench_search [-- <out.json>] [--resume]`
//!   — run all three, write `BENCH_search.json`. With `--resume`, also
//!   journal a guided run, re-run it resuming from the journal, and
//!   require the resumed frontier bit-identical (`resume_identical`).
//!
//!   `cargo run --release --bin bench_search -- --check` — no timing:
//!   recompute the guided frontier digest and the quality gates and
//!   fail (exit 1) if anything drifts from `results/search_budget.json`
//!   (exit 2 when the budget file is unreadable). Deterministic on
//!   every platform and thread count, so CI enforces it clock-free.

use custom_fit::dse::{
    frontier, hypervolume, spec_fingerprint, Checkpoint, Exploration, ExploreConfig, ScatterPoint,
    SearchConfig, SearchOutcome,
};
use custom_fit::machine::{DesignSpace, Fnv1a, SpaceAxes};
use custom_fit::prelude::Benchmark;
use std::time::Instant;

/// Where the `--check` digests live.
const BUDGET_FILE: &str = "results/search_budget.json";

/// The benchmark searched for (D: the FIR filter, mid-pack in both
/// parallelism and register pressure).
const BENCH: Benchmark = Benchmark::D;

/// The cost bound the frontier is built under.
const COST_BOUND: f64 = 10.0;

/// Quality floor: guided best speedup and hypervolume vs exhaustive.
const QUALITY_FLOOR: f64 = 0.95;

/// Budget floor: exhaustive full-fidelity evals per guided one.
const EVALS_RATIO_FLOOR: f64 = 20.0;

/// FNV-1a over the full search result surface, the repo's standard
/// digest (same constants as the checkpoint fingerprints).
struct Digest(Fnv1a);

impl Digest {
    fn new() -> Self {
        Digest(Fnv1a::new())
    }
    fn u(&mut self, v: u64) {
        self.0.write(&v.to_le_bytes());
    }
    fn f(&mut self, v: f64) {
        self.u(if v.is_finite() {
            v.to_bits()
        } else {
            u64::MAX - 1
        });
    }
}

/// Digest of everything a guided search decided: every full-fidelity
/// point (exact bits), the frontier, the hypervolume. Two runs agree
/// bit for bit exactly when these agree.
fn search_digest(so: &SearchOutcome) -> u64 {
    let mut d = Digest::new();
    for p in &so.evaluated {
        d.u(spec_fingerprint(&p.spec));
        d.f(p.cost);
        d.f(p.speedup);
    }
    for &i in &so.frontier {
        d.u(i as u64);
    }
    d.f(so.hypervolume);
    d.0.finish()
}

/// Ground truth: the exhaustive sweep's constrained frontier over the
/// extended space. Returns (arrangements, best speedup, hypervolume).
fn exhaustive_reference() -> (usize, f64, f64) {
    let archs = DesignSpace::extended().all_arrangements();
    let arrangements = archs.len();
    let config = ExploreConfig {
        archs,
        benches: vec![BENCH],
        ..ExploreConfig::default()
    };
    let ex = Exploration::run(&config);
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
    let best = front.last().map_or(0.0, |&i| points[i].speedup);
    let hv = hypervolume(&points, &front, COST_BOUND);
    (arrangements, best, hv)
}

/// The engine at its default bracket budget on the given space.
fn engine_config(axes: SpaceAxes, threads: usize) -> SearchConfig {
    let mut cfg = SearchConfig::new(axes, BENCH, COST_BOUND);
    cfg.threads = threads;
    cfg
}

fn run_engine(cfg: &SearchConfig) -> SearchOutcome {
    match custom_fit::dse::try_search(cfg) {
        Ok(so) => so,
        Err(e) => {
            eprintln!("error: guided search failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Pull `"key": <integer>` out of a flat JSON object without a JSON
/// dependency (the budget file this binary itself writes).
fn json_u64(text: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let do_resume = args.iter().any(|a| a == "--resume");
    let out = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_search.json".to_string());

    // Ground truth (also the wall-clock bar the engine must undercut).
    let t0 = Instant::now();
    let (exhaustive_archs, exhaustive_best, exhaustive_hv) = exhaustive_reference();
    let exhaustive_s = t0.elapsed().as_secs_f64();

    // The guided engine, twice: the frontier must be bit-identical on
    // any thread count (the lazy oracle's fuel discipline makes every
    // verdict interleaving-independent).
    let t0 = Instant::now();
    let guided = run_engine(&engine_config(SpaceAxes::extended(), 4));
    let guided_s = t0.elapsed().as_secs_f64();
    let single = run_engine(&engine_config(SpaceAxes::extended(), 1));
    let digest = search_digest(&guided);
    let identical = digest == search_digest(&single);

    let guided_best = guided.best.as_ref().map_or(0.0, |b| b.speedup);
    let quality_su = guided_best / exhaustive_best;
    let quality_hv = guided.hypervolume / exhaustive_hv;
    let full_evals = guided.stats.full_evals.max(1);
    let evals_ratio = exhaustive_archs as f64 / full_evals as f64;

    println!(
        "extended space: exhaustive {exhaustive_archs} arrangements -> best {exhaustive_best:.3}, \
         hv {exhaustive_hv:.3}; guided {full_evals} full evals \
         ({} screens, {} dedup hits) -> best {guided_best:.3} ({:.1}% of exhaustive), \
         hv {:.3} ({:.1}%), {evals_ratio:.1}x fewer full evals",
        guided.stats.screen_evals,
        guided.stats.dedup_hits,
        quality_su * 100.0,
        guided.hypervolume,
        quality_hv * 100.0,
    );

    let mut failed = false;
    if quality_su < QUALITY_FLOOR || quality_hv < QUALITY_FLOOR {
        eprintln!(
            "error: frontier quality below the {QUALITY_FLOOR} floor \
             (speedup {quality_su:.4}, hypervolume {quality_hv:.4})"
        );
        failed = true;
    }
    if evals_ratio < EVALS_RATIO_FLOOR {
        eprintln!(
            "error: only {evals_ratio:.1}x fewer full-fidelity evals \
             (floor {EVALS_RATIO_FLOOR}x)"
        );
        failed = true;
    }
    if !identical {
        eprintln!("error: guided frontier differs between 1 and 4 threads");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }

    if check {
        let budget = match std::fs::read_to_string(BUDGET_FILE) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: cannot read {BUDGET_FILE}: {e}");
                std::process::exit(2);
            }
        };
        let (Some(want_digest), Some(want_evals)) = (
            json_u64(&budget, "frontier_digest"),
            json_u64(&budget, "full_evals"),
        ) else {
            eprintln!("error: {BUDGET_FILE} is missing frontier_digest/full_evals");
            std::process::exit(2);
        };
        println!(
            "guided frontier digest {digest} after {full_evals} full evals \
             (pinned {want_digest} after {want_evals})"
        );
        if digest != want_digest || full_evals != want_evals {
            eprintln!("error: guided search result drifted from {BUDGET_FILE}");
            std::process::exit(1);
        }
        println!("quality gates hold and the frontier matches the pinned digest");
        return;
    }

    // Resume proof: journal a run, replay it, demand the same bits.
    let mut resume_identical = None;
    if do_resume {
        let dir = std::env::temp_dir().join(format!("cfp-bench-search-{}", std::process::id()));
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
        let ck = dir.join("search.ck");
        let _ = std::fs::remove_file(&ck);
        let mut cfg = engine_config(SpaceAxes::extended(), 4);
        cfg.checkpoint = Some(Checkpoint::resume(&ck));
        let first = run_engine(&cfg);
        cfg.threads = 1; // resume on a different thread count, same bits
        let resumed = run_engine(&cfg);
        let same =
            search_digest(&first) == search_digest(&resumed) && search_digest(&first) == digest;
        println!(
            "resume: {} journal entries replayed, frontier {}",
            resumed.stats.resumed_units,
            if same { "bit-identical" } else { "DIVERGED" }
        );
        if !same || resumed.stats.resumed_units == 0 {
            eprintln!("error: journaled resume did not reproduce the run");
            std::process::exit(1);
        }
        resume_identical = Some(true);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The space exhaustive search cannot touch: ≥ 10^5 arrangements,
    // searched under the same default budget.
    let combi_axes = SpaceAxes::combinatorial();
    let combi_arrangements = combi_axes.arrangements().len();
    let t0 = Instant::now();
    let combi = run_engine(&engine_config(combi_axes, 4));
    let combi_s = t0.elapsed().as_secs_f64();
    let combi_best = combi.best.as_ref().map_or(0.0, |b| b.speedup);
    println!(
        "combinatorial space: {combi_arrangements} arrangements, guided {} full evals \
         in {combi_s:.2}s -> best {combi_best:.3}, frontier {}",
        combi.stats.full_evals,
        combi.frontier.len()
    );

    let resume_field = match resume_identical {
        Some(v) => format!(",\n  \"resume_identical\": {v}"),
        None => String::new(),
    };
    let json = format!(
        "{{\n  \"benchmark\": \"guided search vs exhaustive sweep \
           (bench {}, cost bound {COST_BOUND})\",\n  \
           \"exhaustive_archs\": {exhaustive_archs},\n  \
           \"exhaustive_wall_s\": {exhaustive_s:.4},\n  \
           \"exhaustive_best_su\": {exhaustive_best:.6},\n  \
           \"exhaustive_hypervolume\": {exhaustive_hv:.6},\n  \
           \"guided_full_evals\": {full_evals},\n  \
           \"guided_screen_evals\": {},\n  \
           \"guided_dedup_hits\": {},\n  \
           \"guided_wall_s\": {guided_s:.4},\n  \
           \"guided_best_su\": {guided_best:.6},\n  \
           \"guided_hypervolume\": {:.6},\n  \
           \"quality_su\": {quality_su:.4},\n  \
           \"quality_hypervolume\": {quality_hv:.4},\n  \
           \"evals_ratio\": {evals_ratio:.1},\n  \
           \"results_identical\": {identical}{resume_field},\n  \
           \"combinatorial_arrangements\": {combi_arrangements},\n  \
           \"combinatorial_full_evals\": {},\n  \
           \"combinatorial_wall_s\": {combi_s:.4},\n  \
           \"combinatorial_best_su\": {combi_best:.6},\n  \
           \"frontier_digest\": {digest},\n  \
           \"full_evals\": {full_evals},\n  \
           \"budget_file\": \"{BUDGET_FILE}\"\n}}\n",
        BENCH.letter(),
        guided.stats.screen_evals,
        guided.stats.dedup_hits,
        guided.hypervolume,
        combi.stats.full_evals,
    );
    std::fs::write(&out, &json).expect("write benchmark report");
    println!("wrote {out}");
}
