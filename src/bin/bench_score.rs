//! Wall-clock microbenchmark of the post-schedule scoring + selection
//! pipeline — everything that happens *after* the simulator has measured
//! cycles: cost/derate model evaluation, scatter folding, frontier
//! extraction, and the full selection grid.
//!
//! Two implementations of the same pipeline run over one live
//! exploration of the extended (384-base-point, 1200-arrangement)
//! design space:
//!
//!   * **scalar** — a transcription of the pre-batch code paths: a
//!     machine description rebuilt per cost/derate call, the
//!     HashMap-folded scatter, the in-order frontier scan, and the
//!     closure-based selector that recomputes harmonic means inside
//!     its comparison sort.
//!   * **batch** — the SoA core: [`CostModel::cost_batch`] /
//!     [`CycleModel::derate_batch`] slice passes, one [`EvalBatch`]
//!     build, `EvalBatch::scatter` + [`frontier`], and [`select_batch`]
//!     over the precomputed `su` column.
//!
//! Every output of both passes is folded into an FNV-1a digest; the two
//! digests must be equal (`results_identical`) or the binary exits
//! non-zero. Std-only on purpose (no criterion): it runs under the
//! tier-1 offline build.
//!
//! Usage:
//!   `cargo run --release --bin bench_score [-- <out.json>]` — time both
//!   passes (keep-fastest of 5 reps, 20 pipeline iterations each), write
//!   `BENCH_score.json`, and refresh the `batch_core` row of
//!   `BENCH_explore.json`.
//!
//!   `cargo run --release --bin bench_score -- --check` — no timing:
//!   recompute the scoring-surface digest and fail (exit 1) if it drifts
//!   from `results/score_budget.json` or if the scalar and batch
//!   pipelines ever disagree bit-for-bit. The digest is deterministic on
//!   every platform and thread count, so CI can enforce it without
//!   reading a clock.

use custom_fit::dse::{
    frontier, select_batch, spec_fingerprint, Exploration, ExploreConfig, Range, ScatterPoint,
    Selection,
};
use custom_fit::machine::{ArchSpec, CostModel, CycleModel, DesignSpace, Fnv1a};
use custom_fit::prelude::Benchmark;
use std::time::Instant;

/// Where the `--check` digests live.
const BUDGET_FILE: &str = "results/score_budget.json";

/// Timed repetitions; the fastest is reported (the work is
/// deterministic, reps differ only in OS noise).
const REPS: usize = 5;

/// Pipeline iterations inside one timed rep: a single scoring pass is
/// milliseconds, so each rep times a block and reports the per-pass
/// mean.
const ITERS: usize = 20;

/// Cost bounds of the selection grid (baseline-relative, spanning cheap
/// to effectively-unbounded).
const BOUNDS: [f64; 5] = [2.0, 5.0, 10.0, 30.0, 1e9];

/// RANGE back-offs of the selection grid.
const RANGES: [Range; 3] = [Range::Fraction(0.0), Range::Fraction(0.10), Range::Infinite];

/// FNV-1a over every pipeline output, so "same digest" means "same
/// scatter, same frontier, same selections, bit for bit".
struct Digest(Fnv1a);

impl Digest {
    fn new() -> Self {
        Digest(Fnv1a::new())
    }
    fn u(&mut self, v: u64) {
        self.0.write(&v.to_le_bytes());
    }
    fn f(&mut self, v: f64) {
        // Non-finite values collapse to one marker so the digest does
        // not depend on NaN payload bits.
        self.u(if v.is_finite() {
            v.to_bits()
        } else {
            u64::MAX - 1
        });
    }
    fn points(&mut self, pts: &[ScatterPoint]) {
        for p in pts {
            self.u(spec_fingerprint(&p.spec));
            self.f(p.cost);
            self.f(p.speedup);
        }
    }
    fn selection(&mut self, sel: Option<&Selection>) {
        match sel {
            Some(s) => {
                self.u(s.arch_index as u64);
                self.f(s.cost);
                self.f(s.su);
            }
            None => self.u(u64::MAX),
        }
    }
}

/// Transcriptions of the pre-batch scalar code paths, kept verbatim so
/// the benchmark measures what the SoA core actually replaced.
mod oracle {
    use custom_fit::dse::{Exploration, Range, ScatterPoint, Selection};
    use custom_fit::machine::{ArchSpec, CostModel, CycleModel, Mdes, UnitClass};

    /// The old models: same fitted coefficients, but a full machine
    /// description rebuilt on every call, exactly as `CostModel::cost`
    /// and `CycleModel::derate` did before the slice entry points.
    pub struct ScalarModels {
        k: (f64, f64, f64, f64, f64),
        cost_base: f64,
        ab: (f64, f64),
        derate_base: f64,
    }

    impl ScalarModels {
        pub fn new(cost: &CostModel, cycle: &CycleModel) -> Self {
            let mut m = ScalarModels {
                k: cost.coefficients(),
                cost_base: 1.0,
                ab: cycle.coefficients(),
                derate_base: 1.0,
            };
            // The production models normalize by the baseline's raw
            // value computed once at fit time; replicate that here so
            // the per-call work is the per-spec part only.
            m.cost_base = m.raw_cost(&ArchSpec::baseline());
            m.derate_base = m.raw_derate(&ArchSpec::baseline());
            m
        }

        fn raw_cost(&self, spec: &ArchSpec) -> f64 {
            let (k2, k3, k4, k5, k6) = self.k;
            let mdes = Mdes::from_spec(spec);
            let mut total = 0.0;
            for cl in mdes.clusters() {
                let p = f64::from(cl.regfile_ports());
                let y_reg = f64::from(cl.regs) * (k2 * p + k3);
                let y_alu = k4 * f64::from(cl.count(UnitClass::Alu));
                let y_mul = k5 * f64::from(cl.count(UnitClass::Mul));
                total += p * (y_reg + y_alu + y_mul);
            }
            total + k6 * f64::from(spec.clusters - 1)
        }

        pub fn cost(&self, spec: &ArchSpec) -> f64 {
            self.raw_cost(spec) / self.cost_base
        }

        fn raw_derate(&self, spec: &ArchSpec) -> f64 {
            let p = f64::from(Mdes::from_spec(spec).cycle_ports());
            self.ab.0 + self.ab.1 * p * p
        }

        pub fn derate(&self, spec: &ArchSpec) -> f64 {
            self.raw_derate(spec) / self.derate_base
        }
    }

    /// The HashMap-folded scatter (one best arrangement per base
    /// point), as `pareto::scatter` computed it before the SoA rewrite.
    pub fn scatter(exploration: &Exploration, bench: usize) -> Vec<ScatterPoint> {
        use std::collections::HashMap;
        let mut best: HashMap<(u32, u32, u32, u32, u32), ScatterPoint> = HashMap::new();
        for (i, arch) in exploration.archs.iter().enumerate() {
            let s = arch.spec;
            let key = (s.alus, s.muls, s.regs, s.l2_ports, s.l2_latency);
            let p = ScatterPoint {
                spec: s,
                cost: arch.cost,
                speedup: exploration.speedup(i, bench),
            };
            if !p.speedup.is_finite() {
                continue;
            }
            best.entry(key)
                .and_modify(|cur| {
                    let better = p.speedup > cur.speedup + 1e-12
                        || ((p.speedup - cur.speedup).abs() <= 1e-12 && p.cost < cur.cost);
                    if better {
                        *cur = p;
                    }
                })
                .or_insert(p);
        }
        let mut points: Vec<ScatterPoint> = best.into_values().collect();
        points.sort_by(|a, b| a.cost.total_cmp(&b.cost).then(a.spec.cmp(&b.spec)));
        points
    }

    /// The in-order frontier scan over cost-sorted scatter points.
    pub fn frontier(points: &[ScatterPoint]) -> Vec<usize> {
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

    /// The closure-based selector, harmonic means recomputed inside the
    /// comparison sort, as `select` worked before the column rewrite.
    pub fn select(
        exploration: &Exploration,
        target: usize,
        cost_bound: f64,
        range: Range,
    ) -> Option<Selection> {
        let target_su = |a: usize| exploration.speedup(a, target);
        let overall = |a: usize| Exploration::harmonic_mean(&exploration.speedup_row(a));
        let affordable: Vec<usize> = (0..exploration.archs.len())
            .filter(|&a| exploration.archs[a].cost <= cost_bound && overall(a).is_finite())
            .collect();
        if affordable.is_empty() {
            return None;
        }

        let candidates: Vec<usize> = match range {
            Range::Infinite => affordable.clone(),
            Range::Fraction(f) => {
                let best = affordable
                    .iter()
                    .map(|&a| target_su(a))
                    .fold(f64::NEG_INFINITY, f64::max);
                affordable
                    .iter()
                    .copied()
                    .filter(|&a| target_su(a) >= best * (1.0 - f) - 1e-12)
                    .collect()
            }
        };

        let winner = candidates.into_iter().min_by(|&x, &y| {
            overall(y)
                .total_cmp(&overall(x))
                .then(
                    exploration.archs[x]
                        .cost
                        .total_cmp(&exploration.archs[y].cost),
                )
                .then(exploration.archs[x].spec.cmp(&exploration.archs[y].spec))
        })?;

        let speedups = exploration.speedup_row(winner);
        Some(Selection {
            arch_index: winner,
            spec: exploration.archs[winner].spec,
            cost: exploration.archs[winner].cost,
            su: Exploration::harmonic_mean(&speedups),
            speedups,
        })
    }
}

/// One full scalar scoring pass: per-spec model calls, scatter +
/// frontier per benchmark, the whole selection grid. Returns the digest
/// of everything it computed.
fn scalar_pass(ex: &Exploration, specs: &[ArchSpec], models: &oracle::ScalarModels) -> u64 {
    let mut d = Digest::new();
    for s in specs {
        d.f(models.cost(s));
    }
    for s in specs {
        d.f(models.derate(s));
    }
    for b in 0..ex.benches.len() {
        let pts = oracle::scatter(ex, b);
        d.points(&pts);
        for i in oracle::frontier(&pts) {
            d.u(i as u64);
        }
    }
    for target in 0..ex.benches.len() {
        for &bound in &BOUNDS {
            for &range in &RANGES {
                d.selection(oracle::select(ex, target, bound, range).as_ref());
            }
        }
    }
    d.0.finish()
}

/// The same pass through the SoA core: slice model entry points, one
/// `EvalBatch` build, column scatter/frontier, `select_batch` grid.
fn batch_pass(ex: &Exploration, specs: &[ArchSpec], cost: &CostModel, cycle: &CycleModel) -> u64 {
    let mut d = Digest::new();
    let mut costs = vec![0.0; specs.len()];
    let mut derates = vec![0.0; specs.len()];
    cost.cost_batch(specs, &mut costs);
    cycle.derate_batch(specs, &mut derates);
    for &c in &costs {
        d.f(c);
    }
    for &v in &derates {
        d.f(v);
    }
    let batch = ex.batch();
    for b in 0..batch.benches() {
        let pts = batch.scatter(b);
        d.points(&pts);
        for i in frontier(&pts) {
            d.u(i as u64);
        }
    }
    for target in 0..batch.benches() {
        for &bound in &BOUNDS {
            for &range in &RANGES {
                d.selection(select_batch(&batch, target, bound, range).as_ref());
            }
        }
    }
    d.0.finish()
}

/// The live input: the whole extended space (every cluster arrangement)
/// on three spread benchmarks. Deterministic, thread-count blind.
fn build_exploration() -> Exploration {
    let config = ExploreConfig {
        archs: DesignSpace::extended().all_arrangements(),
        benches: vec![Benchmark::A, Benchmark::D, Benchmark::H],
        ..ExploreConfig::default()
    };
    Exploration::run(&config)
}

/// Pull `"key": <integer>` out of a flat JSON object without a JSON
/// dependency. Good enough for the budget file this binary itself
/// writes (digests are stored as decimal u64).
fn json_u64(text: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Refresh (or insert) the `batch_core` row of `BENCH_explore.json` so
/// the exploration benchmark report carries the scoring-core numbers
/// alongside the reuse and MDES rows.
fn patch_explore_row(row: &str) {
    let path = "BENCH_explore.json";
    let Ok(text) = std::fs::read_to_string(path) else {
        return; // no report yet — bench_explore has not run here
    };
    let mut out = String::new();
    for line in text.lines() {
        if !line.trim_start().starts_with("\"batch_core\"") {
            out.push_str(line);
            out.push('\n');
        }
    }
    let needle = "  \"results_identical\"";
    if let Some(at) = out.find(needle) {
        out.insert_str(at, &format!("  \"batch_core\": {row},\n"));
        if std::fs::write(path, out).is_ok() {
            println!("updated {path} (batch_core row)");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let out = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_score.json".to_string());

    let cost = CostModel::paper_calibrated();
    let cycle = CycleModel::paper_calibrated();
    let models = oracle::ScalarModels::new(&cost, &cycle);

    let t0 = Instant::now();
    let ex = build_exploration();
    let eval_s = t0.elapsed().as_secs_f64();
    let specs: Vec<ArchSpec> = ex.archs.iter().map(|a| a.spec).collect();
    let cells = ex.benches.len() * BOUNDS.len() * RANGES.len();

    let scalar_digest = scalar_pass(&ex, &specs, &models);
    let batch_digest = batch_pass(&ex, &specs, &cost, &cycle);
    if scalar_digest != batch_digest {
        eprintln!(
            "error: batch scoring diverged from the scalar pipeline \
             (scalar {scalar_digest:#018x}, batch {batch_digest:#018x})"
        );
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
        let (Some(want_digest), Some(want_archs)) = (
            json_u64(&budget, "surface_digest"),
            json_u64(&budget, "archs"),
        ) else {
            eprintln!("error: {BUDGET_FILE} is missing surface_digest/archs");
            std::process::exit(2);
        };
        println!(
            "scoring surface digest {batch_digest} over {} architectures \
             (pinned {want_digest} over {want_archs})",
            specs.len()
        );
        if batch_digest != want_digest || specs.len() as u64 != want_archs {
            eprintln!("error: scoring surface drifted from {BUDGET_FILE}");
            std::process::exit(1);
        }
        println!("scalar and batch pipelines identical; surface matches the pinned digest");
        return;
    }

    let mut best_scalar = f64::INFINITY;
    let mut best_batch = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        for _ in 0..ITERS {
            std::hint::black_box(scalar_pass(&ex, &specs, &models));
        }
        best_scalar = best_scalar.min(t.elapsed().as_secs_f64() / ITERS as f64);
        let t = Instant::now();
        for _ in 0..ITERS {
            std::hint::black_box(batch_pass(&ex, &specs, &cost, &cycle));
        }
        best_batch = best_batch.min(t.elapsed().as_secs_f64() / ITERS as f64);
    }
    let speedup = best_scalar / best_batch;

    let json = format!(
        "{{\n  \"benchmark\": \"post-schedule scoring + selection \
           ({} architectures x {} benchmarks, {cells} selection cells)\",\n  \
           \"reps\": {REPS},\n  \"iters_per_rep\": {ITERS},\n  \
           \"eval_wall_s\": {eval_s:.4},\n  \
           \"scalar_score_wall_s\": {best_scalar:.6},\n  \
           \"batch_score_wall_s\": {best_batch:.6},\n  \
           \"speedup\": {speedup:.2},\n  \
           \"results_identical\": true,\n  \
           \"archs\": {},\n  \"surface_digest\": {batch_digest},\n  \
           \"budget_file\": \"{BUDGET_FILE}\"\n}}\n",
        specs.len(),
        ex.benches.len(),
        specs.len(),
    );
    std::fs::write(&out, &json).expect("write benchmark report");
    println!(
        "scored {} architectures x {} benchmarks: scalar {:.3} ms, batch {:.3} ms \
         ({speedup:.2}x), results identical",
        specs.len(),
        ex.benches.len(),
        best_scalar * 1e3,
        best_batch * 1e3,
    );
    patch_explore_row(&format!(
        "{{\"scalar_score_wall_s\": {best_scalar:.6}, \"batch_score_wall_s\": {best_batch:.6}, \
         \"speedup\": {speedup:.2}, \"results_identical\": true}}"
    ));
    println!("wrote {out}");
}
