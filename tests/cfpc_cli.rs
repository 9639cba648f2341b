//! End-to-end tests of the `cfpc` compiler driver binary.

use std::process::Command;

fn cfpc(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_cfpc"))
        .args(args)
        .output()
        .expect("cfpc runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn write_kernel(name: &str, body: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, body).expect("writable temp dir");
    path
}

const KERNEL: &str = "kernel blend(in u8 a[], in u8 b[], out u8 d[], const w) {
    loop i { d[i] = u8((a[i]*w + b[i]*(8 - w)) >> 3); }
}";

#[test]
fn stats_run_reports_the_machine_and_schedule() {
    let path = write_kernel("cfpc_stats.cfk", KERNEL);
    let (stdout, stderr, ok) = cfpc(&[
        path.to_str().unwrap(),
        "--const",
        "w=5",
        "--arch",
        "(4 2 128 2 4 1)",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("machine    : (4 2 128 2 4 1)"), "{stdout}");
    assert!(stdout.contains("schedule   :"), "{stdout}");
    assert!(stdout.contains("registers  :"), "{stdout}");
}

#[test]
fn an_unrolled_compile_is_the_plan_the_sweep_prices() {
    // A on the thin-cluster machine at unroll 2: the kernel `cfpc`
    // schedules must be the sweep's plan (optimize, unroll, re-optimize),
    // not a plain unroll of the optimized kernel.
    use custom_fit::dse::PlanCache;
    use custom_fit::machine::{ArchSpec, ExtSet, MachineResources};
    use custom_fit::prelude::Benchmark;

    let spec = ArchSpec::parse("(16 4 128 4 4 8)").expect("valid spec");
    let plans = PlanCache::build(&[Benchmark::A], &[spec.regs], &[1, 2]);
    let kernel = plans
        .get(Benchmark::A, 64, 2, ExtSet::EMPTY)
        .expect("A at unroll 2 is under the body cap");
    let want = custom_fit::sched::compile(kernel, &MachineResources::from_spec(&spec));

    let (stdout, stderr, ok) = cfpc(&[
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/crates/kernels/src/dsl/fir7x7.cfk"
        ),
        "--const",
        "stride=256",
        "--arch",
        "(16 4 128 4 4 8)",
        "--unroll",
        "2",
    ]);
    assert!(ok, "stderr: {stderr}");
    let schedule = format!("schedule   : {} cycles/iter ", want.length);
    assert!(stdout.contains(&schedule), "want `{schedule}` in\n{stdout}");
    let peak = format!("registers  : peak {:?} of ", want.pressure.peak);
    assert!(stdout.contains(&peak), "want `{peak}` in\n{stdout}");
}

#[test]
fn an_unroll_past_the_body_cap_is_refused_by_name() {
    let path = write_kernel("cfpc_cap.cfk", KERNEL);
    let p = path.to_str().unwrap();
    let (stdout, stderr, ok) = cfpc(&[p, "--const", "w=5", "--unroll", "100000"]);
    assert!(!ok);
    assert_eq!(stdout, "");
    let cap = custom_fit::dse::eval::MAX_BODY_OPS.to_string();
    assert!(stderr.contains(&cap), "the refusal names the cap: {stderr}");
    // Without the optimizer there is no plan to refuse: a plain unroll.
    let (_, stderr, ok) = cfpc(&[p, "--const", "w=5", "--unroll", "3", "--no-opt"]);
    assert!(ok, "stderr: {stderr}");
}

#[test]
fn emit_modes_produce_their_artifacts() {
    let path = write_kernel("cfpc_emit.cfk", KERNEL);
    let p = path.to_str().unwrap();
    let (ir, _, ok) = cfpc(&[p, "--const", "w=5", "--emit", "ir"]);
    assert!(ok && ir.contains("kernel blend {"), "{ir}");
    let (sched, _, ok) = cfpc(&[p, "--const", "w=5", "--emit", "schedule", "--unroll", "2"]);
    assert!(ok && sched.contains("br loop"), "{sched}");
    let (enc, _, ok) = cfpc(&[p, "--const", "w=5", "--emit", "encoding"]);
    assert!(ok && enc.contains("bytes raw"), "{enc}");
}

#[test]
fn a_machine_wider_than_the_slot_mask_is_refused_by_name() {
    // 128 ALU slots, the Level-1 and 16 Level-2 ports and the branch: 146
    // slots, past the encoding's 64-bit occupancy mask.
    let rgb2ycc = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/kernels/src/dsl/rgb2ycc.cfk"
    );
    let wide = ["--arch", "(128 32 512 16 4 1)"];
    let (stdout, stderr, ok) = cfpc(&[&[rgb2ycc, "--emit", "encoding"][..], &wide].concat());
    assert!(!ok);
    assert_eq!(stdout, "");
    assert!(stderr.contains("cannot encode: 146 slots"), "{stderr}");
    // Scheduling the machine is still fine.
    let (stdout, stderr, ok) = cfpc(&[&[rgb2ycc, "--emit", "schedule"][..], &wide].concat());
    assert!(ok && stdout.contains("br loop"), "{stderr}");
}

#[test]
fn diagnostics_point_at_the_source() {
    let path = write_kernel(
        "cfpc_bad.cfk",
        "kernel k(out u8 d[]) { loop i { d[i] = undefined_name; } }",
    );
    let (_, stderr, ok) = cfpc(&[path.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("undefined name"), "{stderr}");
    assert!(stderr.contains('^'), "caret rendering: {stderr}");
}

#[test]
fn bad_usage_fails_with_help() {
    let (_, stderr, ok) = cfpc(&["--emit"]);
    assert!(!ok);
    assert!(stderr.contains("usage: cfpc"), "{stderr}");
    let (_, stderr, ok) = cfpc(&["nosuchfile.cfk"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn trace_records_every_stage_once_and_leaves_stdout_alone() {
    let path = write_kernel("cfpc_trace.cfk", KERNEL);
    for emit in ["stats", "encoding"] {
        let spans = std::env::temp_dir().join(format!("cfpc_trace_{emit}.jsonl"));
        let _ = std::fs::remove_file(&spans);
        let plain = [
            path.to_str().unwrap(),
            "--const",
            "w=5",
            "--arch",
            "(8 4 256 2 4 2)",
            "--unroll",
            "2",
            "--emit",
            emit,
        ];
        let traced = [&plain[..], &["--trace", spans.to_str().unwrap()]].concat();
        let (plain_out, _, ok) = cfpc(&plain);
        assert!(ok);
        let (traced_out, stderr, ok) = cfpc(&traced);
        assert!(ok, "stderr: {stderr}");
        assert_eq!(plain_out, traced_out, "--trace changed stdout ({emit})");
        assert_eq!(stderr, "", "a clean run says nothing ({emit})");

        // One span per line, in pipeline order; each optimizer pass is
        // its own `opt` span, every other stage runs exactly once.
        let text = std::fs::read_to_string(&spans).expect("trace file written");
        let stages: Vec<String> = text
            .lines()
            .map(|line| {
                let span = custom_fit::serve::json::parse(line).expect("a JSON object per line");
                span.get("stage")
                    .and_then(|s| s.as_str())
                    .expect("every span names its stage")
                    .to_owned()
            })
            .collect();
        let mut once = stages.clone();
        once.dedup();
        assert_eq!(
            once,
            [
                "parse", "lower", "opt", "prepare", "assign", "ddg", "list", "regalloc", "encode",
                "simulate"
            ],
            "{text}"
        );
        for stage in once.iter().filter(|s| *s != "opt") {
            let spans = stages.iter().filter(|s| *s == stage).count();
            assert_eq!(spans, 1, "{stage} spans ({emit})");
        }
    }
}
