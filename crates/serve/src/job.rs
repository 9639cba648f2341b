//! From an admitted [`JobSpec`] to an exploration run and back: config
//! materialization, the result-surface digest, and the terminal result
//! JSON the daemon persists and serves.

use crate::json;
use crate::proto::{JobSpec, SpaceName};
use cfp_dse::{
    ArchEval, Checkpoint, EvalOutcome, Exploration, ExploreConfig, SearchConfig, SearchOutcome,
};
use cfp_kernels::Benchmark;
use cfp_machine::{ArchSpec, CostModel, Fnv1a};
use std::fmt::Write;
use std::path::Path;

/// The [`ExploreConfig`] a job runs as, journaling to `ck_path`.
///
/// The checkpoint always opens in resume mode: a fresh job finds no
/// journal and starts cold, a retried or recovered job replays what its
/// earlier attempt completed — one code path, and the bit-identity
/// guarantee is the checkpoint layer's, not this function's.
#[must_use]
pub fn explore_config(spec: &JobSpec, ck_path: &Path) -> ExploreConfig {
    ExploreConfig {
        archs: spec.archs.clone(),
        benches: spec.benches.clone(),
        threads: spec.threads,
        fuel: spec.fuel,
        checkpoint: Some(Checkpoint::resume(ck_path)),
        fault: spec.fault.as_ref().map(crate::proto::FaultSpec::injector),
    }
}

/// The [`SearchConfig`] a search job runs as, journaling its search
/// journal to `ck_path`. Engine defaults fill everything the canonical
/// job line does not pin.
#[must_use]
pub fn search_config(spec: &JobSpec, ck_path: &Path) -> SearchConfig {
    let axes = spec.space.unwrap_or(SpaceName::Extended).axes();
    let bench = spec.benches.first().copied().unwrap_or(Benchmark::D);
    let bound = spec.cost_bound.unwrap_or(f64::INFINITY);
    let mut cfg = SearchConfig::new(axes, bench, bound);
    cfg.seed = spec.seed;
    if let Some(r) = spec.rounds {
        cfg.rounds = r as usize;
    }
    if let Some(r) = spec.round_size {
        cfg.round_size = r as usize;
    }
    cfg.threads = spec.threads;
    cfg.fuel = spec.fuel;
    cfg.checkpoint = Some(Checkpoint::resume(ck_path));
    cfg
}

/// Drop candidates over the job's cost budget, in place. Runs at
/// admission so the journaled canonical job already reflects the
/// filter — a recovered job must not depend on re-running it.
pub fn apply_cost_budget(spec: &mut JobSpec) {
    let Some(max_cost) = spec.max_cost else {
        return;
    };
    let cost = CostModel::paper_calibrated();
    spec.archs.retain(|a| cost.cost(a) <= max_cost);
    spec.max_cost = None;
}

/// The result-surface digest: [`Fnv1a`] with a `0x1f` separator after
/// every field.
struct Digest(Fnv1a);

impl Digest {
    fn new() -> Self {
        Digest(Fnv1a::new())
    }

    fn eat(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
        self.eat_byte(0x1f);
    }

    fn eat_byte(&mut self, b: u8) {
        self.0.write(&[b]);
    }

    fn eat_u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }

    /// A spec's `Display` text as one field, written straight into the
    /// hash: the bytes of `to_string()` without the `String`.
    fn eat_spec(&mut self, spec: &ArchSpec) {
        // Writing into a hash cannot fail.
        let _ = write!(self.0, "{spec}");
        self.eat_byte(0x1f);
    }

    fn eat_arch(&mut self, arch: &ArchEval) {
        self.eat_spec(&arch.spec);
        self.eat_u64(arch.cost.to_bits());
        self.eat_u64(arch.derate.to_bits());
        for out in &arch.outcomes {
            match out {
                EvalOutcome::Done(m) => {
                    self.eat(b"done");
                    self.eat_u64(m.cycles_per_output.to_bits());
                    self.eat_u64(u64::from(m.unroll));
                    self.eat_byte(u8::from(m.spilled));
                    self.eat_u64(u64::from(m.compilations));
                }
                EvalOutcome::Failed { reason } => {
                    self.eat(b"failed");
                    self.eat(reason.kind.token().as_bytes());
                }
            }
        }
    }
}

/// FNV-1a digest of a run's full result surface: every architecture's
/// spec, cost, derate, and per-benchmark outcome (exact `f64` bit
/// patterns), plus the baseline. Two runs of the same job are
/// bit-identical exactly when their digests match — this is the value
/// the kill-and-resume recovery test compares.
#[must_use]
pub fn result_digest(ex: &Exploration) -> u64 {
    let mut d = Digest::new();
    for b in &ex.benches {
        d.eat(b.letter().as_bytes());
    }
    d.eat_arch(&ex.baseline);
    for arch in &ex.archs {
        d.eat_arch(arch);
    }
    d.0.finish()
}

/// The best architecture of a run by harmonic-mean speedup, skipping
/// rows poisoned by quarantined units. `None` when nothing measured.
#[must_use]
pub fn best_arch(ex: &Exploration) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for a in 0..ex.archs.len() {
        let su = Exploration::harmonic_mean(&ex.speedup_row(a));
        if su.is_finite() && best.is_none_or(|(_, b)| su > b) {
            best = Some((a, su));
        }
    }
    best
}

/// The terminal result JSON for a completed run: identity, digest,
/// stats, and the winning architecture. One line; this is both the wire
/// response and the `.result` file's content.
#[must_use]
pub fn result_json(id: &str, ex: &Exploration, attempts: u32, wall_ms: u64) -> String {
    let digest = result_digest(ex);
    let mut out = String::from(r#"{"ok":true,"op":"result","state":"done","id":"#);
    json::write_str(&mut out, id);
    out.push_str(&format!(
        r#","digest":"{digest:016x}","attempts":{attempts},"wall_ms":{wall_ms}"#
    ));
    out.push_str(&stats_fields(&ex.stats));
    if let Some((a, su)) = best_arch(ex) {
        out.push_str(r#","best":{"arch":"#);
        json::write_str(&mut out, &ex.archs[a].spec.to_string());
        out.push_str(&format!(r#","su":{su},"cost":{}}}"#, ex.archs[a].cost));
    }
    out.push('}');
    out
}

/// The run-stats portion shared by explore and search results (the
/// search economics counters are simply zero for a sweep).
fn stats_fields(s: &cfp_dse::RunStats) -> String {
    format!(
        r#","architectures":{},"compilations":{},"cache_hits":{},"unique_schedules":{},"failed_units":{},"fuel_exhausted":{},"resumed_units":{},"screen_evals":{},"full_evals":{},"dedup_hits":{}"#,
        s.architectures,
        s.compilations,
        s.cache_hits,
        s.unique_schedules,
        s.failed_units,
        s.fuel_exhausted,
        s.resumed_units,
        s.screen_evals,
        s.full_evals,
        s.dedup_hits
    )
}

/// FNV-1a digest of a search's full result surface: every full-fidelity
/// point (spec, exact cost and speedup bits), the frontier indices, and
/// the hypervolume. Two runs of the same search job are bit-identical
/// exactly when their digests match — the same discipline as
/// [`result_digest`], over the guided engine's output.
#[must_use]
pub fn search_digest(out: &SearchOutcome) -> u64 {
    let mut d = Digest::new();
    d.eat(out.bench.letter().as_bytes());
    d.eat_u64(out.cost_bound.to_bits());
    for p in &out.evaluated {
        d.eat_spec(&p.spec);
        d.eat_u64(p.cost.to_bits());
        d.eat_u64(p.speedup.to_bits());
    }
    for &i in &out.frontier {
        d.eat_u64(i as u64);
    }
    d.eat_u64(out.hypervolume.to_bits());
    d.0.finish()
}

/// The terminal result JSON for a completed search job: same envelope
/// as [`result_json`] with `"kind":"search"`, the search digest, the
/// frontier summary, and the bracket economics.
#[must_use]
pub fn search_result_json(id: &str, so: &SearchOutcome, attempts: u32, wall_ms: u64) -> String {
    let digest = search_digest(so);
    let mut out = String::from(r#"{"ok":true,"op":"result","state":"done","id":"#);
    json::write_str(&mut out, id);
    out.push_str(&format!(
        r#","kind":"search","digest":"{digest:016x}","attempts":{attempts},"wall_ms":{wall_ms}"#
    ));
    out.push_str(&stats_fields(&so.stats));
    out.push_str(&format!(
        r#","rounds":{},"frontier":{},"hypervolume":{}"#,
        so.rounds.len(),
        so.frontier.len(),
        so.hypervolume
    ));
    if let Some(best) = &so.best {
        out.push_str(r#","best":{"arch":"#);
        json::write_str(&mut out, &best.spec.to_string());
        out.push_str(&format!(r#","su":{},"cost":{}}}"#, best.speedup, best.cost));
    }
    out.push('}');
    out
}

/// The terminal result JSON for a failed job. Same envelope as
/// [`result_json`], `state: "failed"`, with the error's class token and
/// rendering.
#[must_use]
pub fn failure_json(id: &str, err: &crate::error::JobError, attempts: u32) -> String {
    let mut out = String::from(r#"{"ok":false,"op":"result","state":"failed","id":"#);
    json::write_str(&mut out, id);
    out.push_str(&format!(r#","attempts":{attempts},"error":"#));
    json::write_str(&mut out, err.token());
    out.push_str(r#","message":"#);
    json::write_str(&mut out, &err.to_string());
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_kernels::Benchmark;
    use cfp_machine::ExtSet;

    #[test]
    fn a_spec_folds_in_as_its_display_text() {
        // `eat_spec` writes the `Display` text without building it: the
        // digest must be the one `to_string()` gave.
        let specs = [
            ArchSpec::baseline(),
            ArchSpec::new(16, 8, 512, 4, 12, 8).expect("valid"),
            ArchSpec::new(8, 4, 256, 2, 4, 2)
                .expect("valid")
                .with_pipelined_l2()
                .with_extensions(ExtSet::MULADD.with(2)),
        ];
        for spec in specs {
            let (mut direct, mut built) = (Digest::new(), Digest::new());
            direct.eat_spec(&spec);
            built.eat(spec.to_string().as_bytes());
            assert_eq!(direct.0.finish(), built.0.finish(), "{spec}");
        }
    }

    fn tiny_job() -> JobSpec {
        JobSpec {
            benches: vec![Benchmark::D],
            archs: vec![
                ArchSpec::baseline(),
                ArchSpec::new(4, 2, 128, 1, 4, 1).expect("valid"),
            ],
            ..JobSpec::default()
        }
    }

    #[test]
    fn digests_are_stable_and_sensitive() {
        let spec = tiny_job();
        let dir = std::env::temp_dir().join(format!("cfp-serve-job-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let ck = dir.join("digest.ck");
        let _ = std::fs::remove_file(&ck);
        let cfg = explore_config(&spec, &ck);
        let e1 = Exploration::try_run(&cfg).expect("runs");
        let _ = std::fs::remove_file(&ck);
        let e2 = Exploration::try_run(&cfg).expect("runs");
        assert_eq!(result_digest(&e1), result_digest(&e2));
        // A different space digests differently.
        let mut other = spec.clone();
        other.archs.pop();
        let ck2 = dir.join("digest2.ck");
        let _ = std::fs::remove_file(&ck2);
        let e3 = Exploration::try_run(&explore_config(&other, &ck2)).expect("runs");
        assert_ne!(result_digest(&e1), result_digest(&e3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cost_budget_filters_at_admission_and_clears_itself() {
        let mut spec = tiny_job();
        spec.max_cost = Some(1.5);
        let before = spec.archs.len();
        apply_cost_budget(&mut spec);
        assert!(spec.archs.len() < before, "the 4-ALU machine costs > 1.5");
        assert_eq!(spec.archs, vec![ArchSpec::baseline()]);
        assert_eq!(spec.max_cost, None, "baked in, not re-applied on recovery");
    }

    #[test]
    fn result_json_is_parseable_and_complete() {
        let spec = tiny_job();
        let dir = std::env::temp_dir().join(format!("cfp-serve-json-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let ck = dir.join("result.ck");
        let _ = std::fs::remove_file(&ck);
        let ex = Exploration::try_run(&explore_config(&spec, &ck)).expect("runs");
        let line = result_json("job-000007", &ex, 1, 42);
        let v = crate::json::parse(&line).expect("valid JSON");
        assert_eq!(
            v.get("id").and_then(crate::json::Json::as_str),
            Some("job-000007")
        );
        assert_eq!(
            v.get("state").and_then(crate::json::Json::as_str),
            Some("done")
        );
        let digest = v
            .get("digest")
            .and_then(crate::json::Json::as_str)
            .expect("digest");
        assert_eq!(
            u64::from_str_radix(digest, 16).expect("hex"),
            result_digest(&ex)
        );
        assert!(v.get("best").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
