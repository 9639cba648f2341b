//! The one benchmark command. The driver's form:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmarks/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Without `--workload` all five run in turn.
//! Every metric is printed by name with its unit; the last line of
//! standard output is the driver's JSON object. Exit status: 0 when every
//! output check held, 1 when one did not, 2 on a usage error.

use cfp_benchmarks::report::{RunResult, END_TO_END, PER_LAYER};
use cfp_benchmarks::workloads::{
    compile_verify::CompileVerify, oracle_gap::OracleGap, run_end_to_end, run_traced,
    search_guided::SearchGuided, serve_mixed::ServeMixed, sweep_cold::SweepCold, Workload, NAMES,
};

const USAGE: &str =
    "usage: cfp-benchmarks [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1>]
workloads: sweep_cold search_guided compile_verify serve_mixed oracle_gap (default: all five)
defaults: --seed 1 --seconds 15 --trace 0";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15,
        traced: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}`"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn run<W: Workload>(args: &Args) -> RunResult {
    if args.traced {
        run_traced::<W>(args.seed)
    } else {
        run_end_to_end::<W>(args.seed, args.seconds, cfp_benchmarks::default_threads())
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let names = if args.traced { PER_LAYER } else { END_TO_END };
    let mut all_correct = true;
    for name in NAMES {
        if args.workload.as_deref().is_some_and(|w| w != name) {
            continue;
        }
        let result = match name {
            "sweep_cold" => run::<SweepCold>(&args),
            "search_guided" => run::<SearchGuided>(&args),
            "compile_verify" => run::<CompileVerify>(&args),
            "serve_mixed" => run::<ServeMixed>(&args),
            _ => run::<OracleGap>(&args),
        };
        if let Err(msg) = result.print(name, names) {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
        all_correct &= result.correct();
    }
    if !all_correct {
        std::process::exit(1);
    }
}
