//! The five workloads and the two ways of running one: end to end with
//! tracing off, and the single-threaded traced pass.

pub mod compile_verify;
pub mod oracle_gap;
pub mod search_guided;
pub mod serve_mixed;
pub mod sweep_cold;

use crate::report::RunResult;
use crate::trace::Tracer;
use crate::{median, probe, tail};
use custom_fit::kernels::Benchmark;
use custom_fit::machine::{ArchSpec, DesignSpace};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workload names, in the order a run without `--workload` takes them.
pub const NAMES: [&str; 5] = [
    "sweep_cold",
    "search_guided",
    "compile_verify",
    "serve_mixed",
    "oracle_gap",
];

/// What one timed pass produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Client-observed latency of each individually timed operation, ms
    /// (empty where the pass is one indivisible call).
    pub op_ms: Vec<f64>,
    /// Digest of everything the pass computed.
    pub digest: u64,
    /// Output checks that failed inside the pass.
    pub check_failures: Vec<String>,
}

/// One benchmark workload.
///
/// A pass is a fixed *amount* of work, but every pass draws its own
/// inputs, from the seed and the pass number: `wall_s`, a median over
/// passes, is then a median over samples too, and moves less from seed to
/// seed than one sample's cost does. What must not depend on how many
/// passes fit in the run comes from elsewhere: the run's result digest is
/// pass 0's, and `code_speedup_gm` comes from [`Workload::quality`].
pub trait Workload: Sized {
    /// The `--workload` name.
    const NAME: &'static str;

    /// Everything before a timed pass but its own inputs: generate from
    /// `seed` what every pass uses, build the state a pass starts from,
    /// warm up. Timed as `setup_s`, and done again before every pass.
    fn prepare(seed: u64, threads: usize) -> Self;

    /// Untimed: generate the inputs of pass number `pass`.
    fn before_pass(&mut self, pass: u64);

    /// One pass over the inputs `before_pass` made, tracing off.
    fn pass(&mut self) -> Pass;

    /// Output checks too costly to repeat every pass, run once on the
    /// last pass, outside the timing.
    fn verify(&mut self, out: &mut RunResult);

    /// The quality of the answer: speedups over the baseline machine whose
    /// geometric mean is `code_speedup_gm`. Untimed, after the passes,
    /// through the code path the passes time, over a *fixed* reference set
    /// that neither the seed nor the pass count moves: the metric is there
    /// to show a change in schedule or search quality of a few percent
    /// between two commits, and the mean speedup of a seeded sample of 10
    /// or 60 machines moves 20 % with the draw.
    fn quality(&mut self, out: &mut RunResult) -> Vec<f64>;

    /// The single-threaded traced pass over pass 0's inputs: drive the
    /// pipeline stage by stage, record spans and counters into `tr`, and
    /// fill the per-layer metrics that are not plain span or counter sums.
    fn trace(&mut self, tr: &mut Tracer, out: &mut RunResult);
}

/// The reference set of the sweep-shaped quality probes: every paper
/// arrangement on the four benchmarks cheap enough to sweep in a second.
#[must_use]
pub fn reference_sweep() -> (Vec<ArchSpec>, Vec<Benchmark>) {
    (
        DesignSpace::paper().all_arrangements(),
        crate::gen::CHEAP.to_vec(),
    )
}

/// Where run artefacts go: `out/` beside the package manifest. `cargo
/// run` exports the manifest directory; a bare binary falls back to the
/// path from the repo root.
#[must_use]
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("benchmarks"), PathBuf::from)
        .join("out")
}

/// Wall time of `f`, seconds, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Run `W` end to end: set up and run a pass, over and over for
/// `seconds`; check the outputs, and fill the end-to-end metrics.
///
/// Every pass has its own set-up before it, so `setup_s` has as many
/// samples as `wall_s`, spread through the run like them: three set-ups
/// of 0.1 s taken in a run's first second moved 40 % between two hours of
/// one machine.
pub fn run_end_to_end<W: Workload>(seed: u64, seconds: u64, threads: usize) -> RunResult {
    let mut out = RunResult::default();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let (mut setups, mut walls, mut op_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut workload: Option<W> = None;
    while walls.is_empty() || start.elapsed() < budget {
        // The previous instance's teardown is not set-up.
        drop(workload.take());
        let (s, mut w) = timed(|| W::prepare(seed, threads));
        setups.push(s);
        w.before_pass(walls.len() as u64);
        let (s, pass) = timed(|| w.pass());
        if walls.is_empty() {
            out.digests.push(("result".to_owned(), pass.digest));
        }
        walls.push(s);
        op_ms.extend(pass.op_ms);
        out.attempted += pass.attempted;
        out.failed += pass.failed;
        out.check_failures.extend(pass.check_failures);
        workload = Some(w);
    }
    let mut w = workload.expect("the loop runs at least once");
    w.verify(&mut out);
    let quality = w.quality(&mut out);

    out.notes.push(format!(
        "{threads} threads; {} operations individually timed; {} passes timed, walls {walls:.3?} s, each after a set-up, {setups:.3?} s",
        op_ms.len(),
        walls.len(),
    ));
    // A pass that is one indivisible call is itself the operation its
    // user waits for.
    if op_ms.is_empty() {
        op_ms = walls.iter().map(|s| s * 1e3).collect();
    }
    out.metrics.insert("setup_s", median(&setups));
    out.metrics.insert("wall_s", median(&walls));
    out.metrics.insert("op_p50_ms", median(&op_ms));
    out.metrics.insert("op_p95_ms", tail(&op_ms));
    out.metrics
        .insert("code_speedup_gm", crate::geomean(&quality));
    out
}

/// Run `W`'s traced pass and turn the spans and counters into the
/// per-layer metrics. The span file goes to `out/trace-<name>.jsonl`.
pub fn run_traced<W: Workload>(seed: u64) -> RunResult {
    let mut out = RunResult::default();
    for &(name, _) in crate::report::PER_LAYER {
        out.metrics.insert(name, 0.0);
    }
    let mut w = W::prepare(seed, crate::default_threads());
    w.before_pass(0);
    let mut tr = Tracer::new();
    w.trace(&mut tr, &mut out);

    // A `<span>.time_s` / `<span>_time_s` metric is that span's self time,
    // and a counter named like a metric is that metric.
    let self_times = tr.self_times();
    let time = |span: &str| self_times.get(span).copied().unwrap_or(0.0);
    for &(name, _) in crate::report::PER_LAYER {
        let span = name
            .strip_suffix(".time_s")
            .or_else(|| name.strip_suffix("_time_s"));
        if let Some(span) = span {
            out.metrics.insert(name, time(span));
        } else if let Some(&count) = tr.counters().get(name) {
            out.metrics.insert(name, count);
        }
    }
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    out.metrics.insert(
        "sched.list.len_over_cp",
        ratio(
            tr.counter("sched.list.length"),
            tr.counter("sched.list.critical_path"),
        ),
    );
    out.metrics.insert(
        "sched.simulate.cycles_per_host_s",
        ratio(tr.counter("sched.simulate.cycles"), time("sched.simulate")),
    );
    out.metrics.insert(
        "dse.eval.hit_ratio",
        ratio(
            tr.counter("dse.eval.cache_hits"),
            tr.counter("dse.eval.compilations"),
        ),
    );
    out.metrics.insert(
        "frontend.compile.src_bytes_per_s",
        ratio(
            tr.counter("frontend.compile.src_bytes"),
            time("frontend.compile"),
        ),
    );

    match probe::peak_rss_mb() {
        Some(mb) => {
            out.metrics.insert("proc.peak_rss_mb", mb);
        }
        None => {
            out.notes
                .push("proc.peak_rss_mb omitted: /proc/self/status has no VmHWM".to_owned());
            out.metrics.insert("proc.peak_rss_mb", probe::UNAVAILABLE);
        }
    }

    let path = out_dir().join(format!("trace-{}.jsonl", W::NAME));
    match tr.write_jsonl(&path) {
        Ok(()) => out.notes.push(format!(
            "{} spans written to {}",
            tr.spans().len(),
            path.display()
        )),
        Err(e) => out
            .check_failures
            .push(format!("cannot write {}: {e}", path.display())),
    }
    // Every clock-free count of the traced pass, digested: two traced
    // runs of one seed must print the same value.
    let mut counts = crate::Digest::default();
    for (name, value) in tr.counters() {
        counts.eat_bytes(name.as_bytes());
        counts.eat(value.to_bits());
    }
    out.digests.push(("counters".to_owned(), counts.0));
    out
}

/// Fill `trace.coverage`, `trace.overhead_ratio` from the traced pass's
/// wall time and the untraced single-thread wall of the same work.
pub fn trace_ratios(out: &mut RunResult, tr: &Tracer, traced_wall: f64, untraced_wall: f64) {
    out.metrics
        .insert("trace.coverage", tr.covered_s() / untraced_wall);
    out.metrics
        .insert("trace.overhead_ratio", traced_wall / untraced_wall);
}

/// Fill the `proc.*` metrics from probe readings taken around a pass;
/// a missing probe is noted and reported as unavailable, never as 0.
pub fn proc_deltas(
    out: &mut RunResult,
    cpu: (Option<probe::CpuTimes>, Option<probe::CpuTimes>),
    io: (Option<probe::IoCounters>, Option<probe::IoCounters>),
) {
    match cpu {
        (Some(a), Some(b)) => {
            out.metrics.insert("proc.user_s", b.user_s - a.user_s);
            out.metrics.insert("proc.sys_s", b.sys_s - a.sys_s);
            out.metrics.insert(
                "proc.minor_faults",
                b.minor_faults.saturating_sub(a.minor_faults) as f64,
            );
        }
        _ => {
            out.notes.push(
                "proc.user_s, proc.sys_s, proc.minor_faults omitted: /proc/self/stat unreadable"
                    .to_owned(),
            );
            for name in ["proc.user_s", "proc.sys_s", "proc.minor_faults"] {
                out.metrics.insert(name, probe::UNAVAILABLE);
            }
        }
    }
    match io {
        (Some(a), Some(b)) => {
            out.metrics.insert(
                "proc.write_bytes",
                b.write_bytes.saturating_sub(a.write_bytes) as f64,
            );
        }
        _ => {
            out.notes
                .push("proc.write_bytes omitted: /proc/self/io unreadable".to_owned());
            out.metrics.insert("proc.write_bytes", probe::UNAVAILABLE);
        }
    }
}
