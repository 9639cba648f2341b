//! The five pins in `results/*.json`, recomputed and compared.
//!
//! Each test reruns one deterministic computation — scheduler step
//! totals, the scoring surface, a guided search, the exact-II gap
//! study, the plan corpus' kernels — and holds its integer results
//! equal to the file committed under
//! `results/`. Every quantity is a semantic event count or an FNV-1a
//! digest, bit-identical on every platform and thread count, so these
//! are performance and behaviour guards that never read a clock. Wall
//! time for the same layers is the benchmark's business
//! (`BENCHMARK.json`: `sched.list.*`, `dse.select.time_s`,
//! `dse.search.*`, `sched.exact.*`).
//!
//! A mismatch prints the recomputed `"key": value` lines; after an
//! intended change, paste them over the old ones in the named file.
//!
//! The three cheap pins run in tier-1. The scheduler corpus and the gap
//! study are minutes in a debug build and are `#[ignore]`d; CI runs all
//! five with `cargo test --release --test pinned -- --include-ignored`.

mod common;

use common::stratified;
use custom_fit::dse::eval::{residency_budget, UNROLL_SWEEP};
use custom_fit::dse::{
    frontier, scatter, select, spec_fingerprint, try_search, Exploration, ExploreConfig,
    OracleConfig, OracleReport, PlanStore, Range, ScatterPoint, SearchConfig, Selection,
};
use custom_fit::machine::{
    ArchSpec, CostModel, CycleModel, DesignSpace, ExtSet, Fnv1a, MachineResources, SpaceAxes,
};
use custom_fit::obs::UnitTrace;
use custom_fit::prelude::Benchmark;
use custom_fit::sched::{
    prepare, try_compile_core, try_modulo_schedule, Ddg, Fuel, Prepared, SchedScratch,
};
use custom_fit::serve::json::{self, Json};

/// Hold `recomputed` equal to the integers pinned in `results/<file>`.
///
/// # Panics
/// With every recomputed line, ready to paste, when any of them differs.
fn assert_pinned(file: &str, recomputed: &[(&str, u64)]) {
    let path = format!("{}/results/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let pins = json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let drifted = recomputed.iter().any(|&(key, got)| {
        let want = pins
            .get(key)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("{path} has no integer \"{key}\""));
        got != want
    });
    if drifted {
        let lines: Vec<String> = recomputed
            .iter()
            .map(|(key, got)| format!("  \"{key}\": {got}"))
            .collect();
        panic!(
            "results/{file} no longer matches; recomputed:\n{}",
            lines.join(",\n")
        );
    }
}

/// FNV-1a over every output of a pipeline, so "same digest" means "same
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

// ---- results/sched_step_budget.json ---------------------------------

/// Seeded-random extras on top of the stratified sample: SplitMix64
/// draws over the axis values, kept when they form a valid spec. Fixed
/// seed, fixed count — the corpus is part of the pin's identity.
fn random_extras(n: usize) -> Vec<ArchSpec> {
    let mut rng = cfp_testkit::Rng::new(0xC0DE_5EED);
    let alus = [2_u32, 4, 8, 16];
    let muls = [1_u32, 2, 4, 8];
    let regs = [64_u32, 128, 256, 512];
    let ports = [1_u32, 2, 4];
    let lats = [2_u32, 4, 8];
    let clusters = [1_u32, 2, 4];
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let spec = ArchSpec::new(
            *rng.pick(&alus),
            *rng.pick(&muls),
            *rng.pick(&regs),
            *rng.pick(&ports),
            *rng.pick(&lats),
            *rng.pick(&clusters),
        );
        if let Ok(s) = spec {
            out.push(s);
        }
    }
    out
}

/// The kernel corpus: every table benchmark, optimized, at unroll 1 and
/// 2 (unroll 2 doubles the body and is where the ready queues earn
/// their keep).
fn kernels() -> Vec<(String, custom_fit::ir::Kernel)> {
    let mut out = Vec::new();
    for b in Benchmark::ALL {
        let mut k = b.kernel();
        custom_fit::opt::optimize(&mut k);
        out.push((format!("{b}x1"), k.clone()));
        out.push((format!("{b}x2"), custom_fit::opt::unroll::unroll(&k, 2)));
    }
    out
}

/// List-schedule every `(kernel, architecture)` unit of the corpus
/// through one reused scratch and modulo-schedule the un-unrolled ones.
/// Steps are the semantic placement and scan events `Fuel` charges;
/// probes are the ready queues' pops plus refused peeks — the work an
/// issue scan really does — so a walk that goes back to visiting every
/// ready op moves the second number even at equal steps. Pair probes
/// are the memory-op pairs the dependence-graph builder examines in the
/// graphs built for the modulo scheduler (a post-assignment rebuild
/// copies the prepared graph's memory edges and examines none); a scan
/// that goes back to every pair of memory ops, which is `all_pairs`
/// here, at least doubles them. `max_ii_attempts` sums
/// [`custom_fit::sched::ModuloSchedule::ii_attempts`], which only a search that
/// found a schedule reports; `max_modulo_attempts` and
/// `max_modulo_probes` are the arena's totals over every search — the
/// IIs attempted by the ones that gave up included, and the first-fit
/// searches (one per op placement tried, each a word-parallel pass over
/// the op's residue bitmaps) all of them made — so a search that walks
/// its whole II range for nothing shows up here and nowhere else.
#[test]
#[ignore = "minutes in a debug build; CI runs it in release"]
fn scheduler_step_budget() {
    let corpus = kernels();
    let machines: Vec<MachineResources> = stratified()
        .into_iter()
        .chain(random_extras(4))
        .map(|spec| MachineResources::from_spec(&spec))
        .collect();
    let prepared: Vec<Vec<Prepared>> = corpus
        .iter()
        .map(|(_, k)| {
            machines
                .iter()
                .map(|m| prepare(k, m, &mut UnitTrace::disabled()))
                .collect()
        })
        .collect();
    let mut scratch = SchedScratch::new();
    // The traced entry points under a disabled trace: the totals also
    // prove that span bookkeeping adds no step when recording is off.
    let mut trace = UnitTrace::disabled();
    let (mut list_steps, mut ii_attempts, mut all_pairs) = (0_u64, 0_u64, 0_u64);
    let pairs_among = |mem_ops: usize| (mem_ops * mem_ops.saturating_sub(1) / 2) as u64;
    for (ki, (name, _)) in corpus.iter().enumerate() {
        for (mi, machine) in machines.iter().enumerate() {
            let core = try_compile_core(
                &prepared[ki][mi],
                machine,
                &mut Fuel::unlimited(),
                &mut scratch,
                &mut trace,
            )
            .unwrap_or_else(|e| panic!("unlimited fuel cannot exhaust ({name}): {e}"));
            list_steps += core.steps;
            // Modulo scheduling overlaps loop iterations; it only makes
            // sense (and only terminates quickly) on un-unrolled bodies.
            if name.ends_with("x1") {
                let ddg = Ddg::build_in(&core.assignment.code, None, &mut scratch);
                all_pairs += pairs_among(core.assignment.code.mem_ops().len());
                let ms = try_modulo_schedule(
                    &core.assignment,
                    &ddg,
                    machine,
                    core.length,
                    &mut Fuel::unlimited(),
                    &mut scratch,
                    &mut trace,
                )
                .unwrap_or_else(|e| panic!("unlimited fuel cannot exhaust ({name}): {e}"));
                ii_attempts += ms.map_or(0, |ms| u64::from(ms.ii_attempts));
            }
        }
    }
    assert!(
        scratch.ddg_probes() * 2 <= all_pairs,
        "the memory scan examined {} of {all_pairs} pairs",
        scratch.ddg_probes()
    );
    assert_pinned(
        "sched_step_budget.json",
        &[
            ("max_list_steps", list_steps),
            ("max_list_probes", scratch.list_probes()),
            ("max_ii_attempts", ii_attempts),
            ("max_ddg_pair_probes", scratch.ddg_probes()),
            ("max_modulo_attempts", scratch.modulo_attempts()),
            ("max_modulo_probes", scratch.modulo_probes()),
        ],
    );
}

// ---- results/score_budget.json --------------------------------------

/// Cost bounds of the selection grid (baseline-relative, spanning cheap
/// to effectively-unbounded).
const BOUNDS: [f64; 5] = [2.0, 5.0, 10.0, 30.0, 1e9];

/// RANGE back-offs of the selection grid.
const RANGES: [Range; 3] = [Range::Fraction(0.0), Range::Fraction(0.10), Range::Infinite];

/// Transcriptions of the scalar code paths the column cores replaced,
/// kept verbatim as the reference production scoring is held
/// bit-identical to.
mod oracle {
    use custom_fit::dse::{Exploration, Range, ScatterPoint, Selection};
    use custom_fit::machine::{ArchSpec, CostModel, CycleModel, Mdes, UnitClass};

    /// The old models: same fitted coefficients, but a full machine
    /// description rebuilt on every call, exactly as `CostModel::cost`
    /// and `CycleModel::derate` did before they read the spec directly.
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

/// The same pass through production scoring: the models' `cost` / `derate`,
/// `scatter` / `frontier` per benchmark, the `select` grid.
fn production_pass(
    ex: &Exploration,
    specs: &[ArchSpec],
    cost: &CostModel,
    cycle: &CycleModel,
) -> u64 {
    let mut d = Digest::new();
    for s in specs {
        d.f(cost.cost(s));
    }
    for s in specs {
        d.f(cycle.derate(s));
    }
    for b in 0..ex.benches.len() {
        let pts = scatter(ex, b);
        d.points(&pts);
        for i in frontier(&pts) {
            d.u(i as u64);
        }
    }
    for target in 0..ex.benches.len() {
        for &bound in &BOUNDS {
            for &range in &RANGES {
                d.selection(select(ex, target, bound, range).as_ref());
            }
        }
    }
    d.0.finish()
}

/// Every cost, derate, scatter point, frontier index and grid selection
/// over the whole extended space (every cluster arrangement) on three
/// spread benchmarks, through production scoring and through the scalar
/// transcription of the code its column cores replaced.
#[test]
fn scoring_surface() {
    let cost = CostModel::paper_calibrated();
    let cycle = CycleModel::paper_calibrated();
    let models = oracle::ScalarModels::new(&cost, &cycle);
    let ex = Exploration::run(&ExploreConfig {
        archs: DesignSpace::extended().all_arrangements(),
        benches: vec![Benchmark::A, Benchmark::D, Benchmark::H],
        ..ExploreConfig::default()
    });
    let specs: Vec<ArchSpec> = ex.archs.iter().map(|a| a.spec).collect();

    let scalar_digest = scalar_pass(&ex, &specs, &models);
    let production_digest = production_pass(&ex, &specs, &cost, &cycle);
    assert_eq!(
        scalar_digest, production_digest,
        "production scoring diverged from the scalar transcription"
    );
    assert_pinned(
        "score_budget.json",
        &[
            ("archs", specs.len() as u64),
            ("surface_digest", production_digest),
        ],
    );
}

// ---- results/search_budget.json -------------------------------------

/// The guided engine at its default bracket budget on the extended
/// space (benchmark D, cost bound 10): every full-fidelity point it
/// evaluated (exact bits), the frontier, the hypervolume, and how many
/// full-fidelity evaluations that took. That this answer is the
/// exhaustive sweep's optimum at ≥ 20× fewer evaluations, on any thread
/// count and across a journal resume, is `tests/search_equivalence.rs`.
#[test]
fn search_frontier() {
    let guided = try_search(&SearchConfig::new(
        SpaceAxes::extended(),
        Benchmark::D,
        10.0,
    ))
    .expect("guided search runs");
    let mut d = Digest::new();
    d.points(&guided.evaluated);
    for &i in &guided.frontier {
        d.u(i as u64);
    }
    d.f(guided.hypervolume);
    assert_pinned(
        "search_budget.json",
        &[
            ("frontier_digest", d.0.finish()),
            ("full_evals", guided.stats.full_evals),
        ],
    );
}

// ---- results/oracle_gap.json ----------------------------------------

/// The gap study at the default [`OracleConfig`]: 96 paper-space and 96
/// extended-space points, each point's minimum II certified under the
/// deterministic fuel ladder and compared with the heuristic modulo
/// scheduler's. The digest folds every verdict; the gates are the
/// study's claims (enough certificates, no schedule the shared
/// validator refuses, no heuristic II under a certified optimum).
#[test]
#[ignore = "minutes in a debug build; CI runs it in release"]
fn oracle_gap() {
    let report = OracleReport::run(&OracleConfig {
        threads: 4,
        ..OracleConfig::default()
    });
    let certified = report.certified();
    assert!(certified >= 100, "only {certified} certified points");
    assert!(
        report.all_valid(),
        "a schedule failed the shared modulo validator"
    );
    assert!(
        !report.heuristic_beat_oracle(),
        "the heuristic beat a certified optimum (validator hole)"
    );
    assert_pinned(
        "oracle_gap.json",
        &[
            ("gap_digest", report.digest()),
            ("certified", certified as u64),
        ],
    );
}

// ---- results/plan_digest.json ---------------------------------------

/// Every kernel the optimizer can hand the back end: the full plan
/// cross product — eleven benchmarks × the residency budgets of the four
/// register-file sizes × [`UNROLL_SWEEP`] × all eight extension sets —
/// through the production plan walk, each content-distinct kernel's
/// listing folded once, in first-interned order. This is where "same
/// kernels" is checked: at the optimizer's output, vreg numbers and
/// instruction order included, not three layers downstream in a cycle
/// count.
#[test]
fn plan_corpus() {
    const REGS: [u32; 4] = [64, 128, 256, 512];
    let ext_sets: Vec<ExtSet> = (0..8).filter_map(ExtSet::from_bits).collect();
    assert_eq!(ext_sets.len(), 8);
    let plans =
        PlanStore::new().ensure_snapshot_extended(&Benchmark::ALL, &REGS, &UNROLL_SWEEP, &ext_sets);
    let mut digest = Fnv1a::new();
    let mut folded = Vec::new();
    for b in Benchmark::ALL {
        for regs in REGS {
            for u in UNROLL_SWEEP {
                for &exts in &ext_sets {
                    let Some(id) = plans.id(b, residency_budget(regs), u, exts) else {
                        continue;
                    };
                    if folded.contains(&id) {
                        continue;
                    }
                    folded.push(id);
                    let listing = custom_fit::ir::pretty::Listing(plans.kernel(id)).to_string();
                    digest.write(listing.as_bytes());
                    digest.write(&[0]);
                }
            }
        }
    }
    assert_eq!(folded.len(), plans.unique_kernels());
    assert_pinned(
        "plan_digest.json",
        &[
            ("plans", plans.len() as u64),
            ("unique_kernels", folded.len() as u64),
            ("kernel_digest", digest.finish()),
        ],
    );
}
