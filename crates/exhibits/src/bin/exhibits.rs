//! Regenerate the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p cfp-exhibits --bin exhibits -- all
//! cargo run --release -p cfp-exhibits --bin exhibits -- table8 table9 --fast
//! cargo run --release -p cfp-exhibits --bin exhibits -- figure3 --csv
//! ```
//!
//! `extended`, `fused` and `oracle` are the axis studies `all` leaves
//! out: each runs a space of its own. `--fast` explores a 1-in-8 sample
//! of the design space (same shapes, seconds instead of minutes) and a
//! quarter of the oracle's points; `--csv` emits the figures' raw data;
//! `--save FILE` persists the exploration and `--load FILE` replays a
//! saved one instead of recomputing (see `cfp_dse::io`).
//!
//! `--checkpoint FILE` journals completed `(architecture, benchmark)`
//! units to FILE as the exploration runs; add `--resume` to pick up an
//! interrupted run from the same journal (bit-identical to an
//! uninterrupted run — see `cfp_dse::checkpoint`).
//!
//! `--trace-out FILE` writes every exploration span (plan build,
//! per-stage compiler spans, per-unit summaries) as JSONL to FILE;
//! `--trace-summary` prints the aggregated per-stage latency histogram
//! and per-architecture "why it lost" attribution tables. Results are
//! bit-identical with tracing on or off (see `cfp_obs`).

use cfp_dse::Checkpoint;
use cfp_exhibits::exhibits;

fn usage() -> String {
    format!(
        "usage: exhibits [{} | all]... [--fast] [--csv] [--mdes-dump SPEC] [--save FILE] \
         [--load FILE] [--checkpoint FILE [--resume]] [--trace-out FILE] [--trace-summary]",
        exhibits::EXHIBITS.map(|row| row.0).join(" | ")
    )
}

fn value_after(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let csv = args.iter().any(|a| a == "--csv");
    let save = value_after(&args, "--save");
    let load = value_after(&args, "--load");
    let resume = args.iter().any(|a| a == "--resume");
    let checkpoint = value_after(&args, "--checkpoint").map(|path| {
        if resume {
            Checkpoint::resume(path)
        } else {
            Checkpoint::new(path)
        }
    });
    if resume && checkpoint.is_none() {
        eprintln!("error: --resume needs --checkpoint FILE\n{}", usage());
        std::process::exit(2);
    }
    // `--trace-out FILE` drains the exploration's spans to a JSONL
    // trace; `--trace-summary` prints the per-stage latency and
    // per-architecture attribution tables instead of (or as well as)
    // the raw lines.
    let trace_out = value_after(&args, "--trace-out");
    let trace_summary = args.iter().any(|a| a == "--trace-summary");
    let recorder = (trace_out.is_some() || trace_summary).then(cfp_obs::JsonlRecorder::new);

    // `--mdes-dump SPEC`: print the derived machine description and be
    // done (composable with other exhibits, but needs no exploration).
    let mdes_dump = value_after(&args, "--mdes-dump").map(|s| {
        let spec = cfp_machine::ArchSpec::parse(&s).unwrap_or_else(|e| {
            eprintln!("error: bad spec `{s}`: {e}\n{}", usage());
            std::process::exit(2);
        });
        exhibits::mdes_dump(&spec)
    });
    // The names: every argument but a flag and the value after one
    // that takes a value.
    let valued = [
        "--save",
        "--load",
        "--checkpoint",
        "--mdes-dump",
        "--trace-out",
    ];
    let mut skip_next = false;
    let mut wanted: Vec<String> = args
        .iter()
        .filter(|a| {
            let value = skip_next;
            skip_next = !value && valued.contains(&a.as_str());
            !value && !a.starts_with("--")
        })
        .cloned()
        .collect();
    // Every name is checked before anything runs, loads or saves.
    let unknown = |w: &&String| *w != "all" && exhibits::needs_exploration(w).is_none();
    if let Some(w) = wanted.iter().find(unknown) {
        eprintln!("unknown exhibit `{w}`\n{}", usage());
        std::process::exit(2);
    }
    if let Some(dump) = &mdes_dump {
        println!("{dump}\n");
    }
    // `--mdes-dump` alone stands alone; don't pull in `all`.
    if wanted.iter().any(|w| w == "all") || (wanted.is_empty() && mdes_dump.is_none()) {
        wanted = exhibits::all().map(str::to_owned).collect();
    }

    let needs_exploration = wanted
        .iter()
        .any(|w| exhibits::needs_exploration(w) == Some(true));
    let exploration = if let Some(path) = &load {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read `{path}`: {e}");
            std::process::exit(1);
        });
        Some(cfp_dse::from_csv(&text).unwrap_or_else(|e| {
            eprintln!("error: `{path}` is not a saved exploration: {e}");
            std::process::exit(1);
        }))
    } else if needs_exploration {
        eprintln!(
            "running the {} exploration (use --fast for a sampled space)...",
            if fast { "sampled" } else { "full 192-point" }
        );
        let rec: &dyn cfp_obs::Recorder = recorder
            .as_ref()
            .map_or(&cfp_obs::NULL, |r| r as &dyn cfp_obs::Recorder);
        match exhibits::run_exploration(fast, checkpoint, rec) {
            Ok(ex) => {
                if ex.stats.resumed_units > 0 {
                    eprintln!(
                        "resumed {} completed units from the checkpoint journal",
                        ex.stats.resumed_units
                    );
                }
                Some(ex)
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    } else {
        if recorder.is_some() {
            eprintln!(
                "note: --trace-out/--trace-summary need an exploration to trace; \
                 the requested exhibits{} run none",
                if load.is_some() {
                    " (--load replays)"
                } else {
                    ""
                }
            );
        }
        None
    };
    if let Some(rec) = &recorder {
        if let Some(path) = &trace_out {
            if let Err(e) = std::fs::write(path, rec.to_jsonl()) {
                eprintln!("error: cannot write `{path}`: {e}");
                std::process::exit(1);
            }
            eprintln!("trace written to {path} ({} events)", rec.len());
        }
        if trace_summary && !rec.is_empty() {
            let summary = cfp_obs::summary::TraceSummary::from_events(&rec.events());
            println!("{}\n", summary.render());
        }
    }
    if let (Some(path), Some(ex)) = (&save, &exploration) {
        if let Err(e) = std::fs::write(path, cfp_dse::to_csv(ex)) {
            eprintln!("error: cannot write `{path}`: {e}");
            std::process::exit(1);
        }
        eprintln!("exploration saved to {path}");
    }
    for w in &wanted {
        let out = exhibits::render(w, exploration.as_ref(), fast, csv).expect("checked above");
        println!("{out}\n");
    }
}
