//! The benchmark's own promises: `BENCHMARK.json` lists exactly what the
//! harness reports, and the traced run's clock-free counts repeat
//! exactly.

use cfp_benchmarks::report::{RunResult, END_TO_END, PER_LAYER};
use cfp_benchmarks::workloads::{
    compile_verify::CompileVerify, oracle_gap::OracleGap, run_traced, search_guided::SearchGuided,
    serve_mixed::ServeMixed, sweep_cold::SweepCold, Workload, NAMES,
};
use custom_fit::serve::json::{self, Json};

fn listed(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a `{key}` array"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("a string")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_what_the_harness_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
    let spec = json::parse(&text).expect("BENCHMARK.json is JSON");
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    };
    assert_eq!(listed(&spec, "end_to_end"), own(END_TO_END));
    assert_eq!(listed(&spec, "per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("a workloads array")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_owned()
        })
        .collect();
    assert_eq!(workloads, NAMES);
    // The driver refuses a bound over a quarter, and needs `setup_s`.
    let bounds: Vec<(String, f64)> = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("checked above")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("a name")
                    .to_owned(),
                m.get("bound").and_then(Json::as_f64).expect("a bound"),
            )
        })
        .collect();
    assert!(
        bounds.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25),
        "{bounds:?}"
    );
    assert!(bounds.iter().any(|(n, _)| n == "setup_s"));
}

/// The digest over every counter of a traced run, and the result digest.
fn traced_digests<W: Workload>(seed: u64) -> Vec<(String, u64)> {
    let run: RunResult = run_traced::<W>(seed);
    assert!(run.correct(), "{}: {:?}", W::NAME, run.check_failures);
    for &(name, _) in PER_LAYER {
        assert!(
            run.metrics.get(name).is_some_and(|v| v.is_finite()),
            "{}: per-layer metric {name} missing",
            W::NAME
        );
    }
    run.digests
}

fn assert_repeats<W: Workload>() {
    let (first, second) = (traced_digests::<W>(3), traced_digests::<W>(3));
    assert_eq!(first, second, "{}: a traced run did not repeat", W::NAME);
    assert!(first.iter().any(|(what, _)| what == "counters"));
}

/// Clock-free counters come from the single-threaded traced pass so that
/// they repeat exactly; here on the two quickest workloads.
#[test]
fn traced_counts_repeat_exactly() {
    assert_repeats::<CompileVerify>();
    assert_repeats::<ServeMixed>();
}

/// The same for all five (about two minutes); `stability.py repeat`
/// checks it too.
#[test]
#[ignore = "slow: run with --ignored"]
fn traced_counts_repeat_exactly_on_every_workload() {
    assert_repeats::<SweepCold>();
    assert_repeats::<SearchGuided>();
    assert_repeats::<OracleGap>();
}
