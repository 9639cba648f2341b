//! The metric tables (the same names and units `BENCHMARK.json` lists)
//! and the one-line JSON result the driver reads.

use std::collections::BTreeMap;

/// End-to-end metrics, `(name, unit)`: what a user of the system sees,
/// measured with tracing off, reported by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("code_speedup_gm", "x"),
];

/// Per-layer metrics, `(name, unit)`, from the traced run only. A layer
/// a workload does not exercise reads 0: it did no work there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sched.list.time_s", "s"),
    ("sched.list.steps", "count"),
    ("sched.list.len_over_cp", "ratio"),
    ("sched.cluster.time_s", "s"),
    ("sched.cluster.moves", "count"),
    ("sched.ddg.time_s", "s"),
    ("sched.ddg.edges", "count"),
    ("sched.loopcode.time_s", "s"),
    ("sched.loopcode.ops", "count"),
    ("sched.regalloc.pressure_time_s", "s"),
    ("sched.finish.time_s", "s"),
    ("sched.regalloc.allocate_time_s", "s"),
    ("sched.regalloc.spilled_units", "count"),
    ("sched.encode.time_s", "s"),
    ("sched.encode.bytes_compressed", "bytes"),
    ("sched.simulate.time_s", "s"),
    ("sched.simulate.cycles", "count"),
    ("sched.simulate.cycles_per_host_s", "1/s"),
    ("sched.modulo.time_s", "s"),
    ("sched.modulo.ii_attempts", "count"),
    ("sched.modulo.scheduled_ratio", "ratio"),
    ("sched.exact.time_s", "s"),
    ("sched.exact.steps", "count"),
    ("sched.exact.certified_ratio", "ratio"),
    ("opt.optimize.time_s", "s"),
    ("opt.optimize.insts_in", "count"),
    ("opt.optimize.insts_out", "count"),
    ("opt.unroll.time_s", "s"),
    ("opt.unroll.insts_out", "count"),
    ("opt.fuse.time_s", "s"),
    ("opt.fuse.fused_ops", "count"),
    ("dse.plan_build.time_s", "s"),
    ("dse.plan_build.plans", "count"),
    ("dse.plan_build.unique_kernels", "count"),
    ("dse.eval.time_s", "s"),
    ("dse.eval.compilations", "count"),
    ("dse.eval.unique_schedules", "count"),
    ("dse.eval.hit_ratio", "ratio"),
    ("dse.search.time_s", "s"),
    ("dse.search.screen_evals", "count"),
    ("dse.search.full_evals", "count"),
    ("dse.search.dedup_hits", "count"),
    ("dse.search.plan_share", "ratio"),
    ("dse.explore.parallel_efficiency", "ratio"),
    ("dse.select.time_s", "s"),
    ("dse.pareto.time_s", "s"),
    ("machine.models.time_s", "s"),
    ("machine.mdes.time_s", "s"),
    ("machine.mdes.lowerings", "count"),
    ("frontend.compile.time_s", "s"),
    ("frontend.compile.kernels", "count"),
    ("frontend.compile.src_bytes_per_s", "1/s"),
    ("frontend.compile.ir_insts", "count"),
    ("serve.submit_ack.p50_ms", "ms"),
    ("serve.ack_to_result.p50_ms", "ms"),
    ("serve.engine.p50_ms", "ms"),
    ("serve.proto.parse_lines_per_s", "1/s"),
    ("serve.journal.write_bytes_per_job", "bytes"),
    ("serve.journal.write_syscalls_per_job", "count"),
    ("serve.cache.core_hit_ratio", "ratio"),
    ("serve.cache.core_evictions", "count"),
    ("serve.cache.plan_hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.retries", "count"),
    ("proc.user_s", "s"),
    ("proc.sys_s", "s"),
    ("proc.minor_faults", "count"),
    ("proc.write_bytes", "bytes"),
    ("proc.peak_rss_mb", "MB"),
    ("obs.jsonl.events", "count"),
    ("obs.jsonl.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Operations attempted (at least 1).
    pub attempted: u64,
    /// Operations that failed: quarantined or fuel-exhausted sweep
    /// units, failed / shed / timed-out jobs, verification mismatches,
    /// invalid certificates.
    pub failed: u64,
    /// Output checks that did not hold (digest differences between
    /// passes, tables missing a row, a spot check disagreeing). Any one
    /// makes the run incorrect.
    pub check_failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Digests printed so two commits can be compared exactly.
    pub digests: Vec<(String, u64)>,
    /// Free-form notes (sample counts, thread counts, omitted probes).
    pub notes: Vec<String>,
}

impl RunResult {
    /// Whether every output check held and no operation failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }

    /// Record a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Print the human-readable report, then the driver's JSON line.
    ///
    /// # Errors
    /// Names the first metric of `names` that is missing or not finite —
    /// a harness bug, reported instead of an invalid result line.
    pub fn print(
        &self,
        workload: &str,
        names: &[(&'static str, &'static str)],
    ) -> Result<(), String> {
        println!("workload {workload}");
        for note in &self.notes {
            println!("  note: {note}");
        }
        for (what, digest) in &self.digests {
            println!("  digest {what}: {digest:016x}");
        }
        for failure in &self.check_failures {
            println!("  CHECK FAILED: {failure}");
        }
        let mut fields = Vec::new();
        for &(name, unit) in names {
            let value = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            println!("  {name} = {value} {unit}");
            fields.push(format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#));
        }
        println!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(",")
        );
        Ok(())
    }
}
