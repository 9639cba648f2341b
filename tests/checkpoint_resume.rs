//! Checkpoint/resume must be invisible in the results: a run that is
//! interrupted after N units and resumed from its journal produces an
//! [`Exploration`] bit-identical to one that never stopped — across
//! thread counts, because units are independent and the journal stores
//! exact `f64` bit patterns.

use custom_fit::dse::checkpoint::Checkpoint;
use custom_fit::dse::error::{CheckpointError, ExploreError};
use custom_fit::dse::explore::{Exploration, ExploreConfig};
use custom_fit::prelude::*;
use std::path::PathBuf;

/// A per-test journal path in the system temp directory (no tempfile
/// crate in the no-registry build), cleaned up before use.
fn journal_path(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("cfp_ckpt_{tag}_{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn config() -> ExploreConfig {
    let mut cfg = ExploreConfig::smoke();
    cfg.benches = vec![Benchmark::D, Benchmark::G];
    cfg.threads = 2;
    cfg
}

fn assert_bit_identical(a: &Exploration, b: &Exploration) {
    assert_eq!(a.benches, b.benches);
    assert_eq!(a.baseline.outcomes, b.baseline.outcomes);
    assert_eq!(a.archs.len(), b.archs.len());
    for (x, y) in a.archs.iter().zip(&b.archs) {
        assert_eq!(x.spec, y.spec);
        assert_eq!(x.outcomes, y.outcomes, "{}", x.spec);
    }
    for i in 0..a.archs.len() {
        let xa: Vec<u64> = a.speedup_row(i).iter().map(|s| s.to_bits()).collect();
        let xb: Vec<u64> = b.speedup_row(i).iter().map(|s| s.to_bits()).collect();
        assert_eq!(xa, xb, "{}", a.archs[i].spec);
    }
}

#[test]
fn interrupted_run_resumes_bit_identically() {
    let cfg = config();
    let units = cfg.archs.len() * cfg.benches.len();

    // The reference: no checkpointing at all.
    let reference = Exploration::run(&cfg);

    // A full checkpointed run, to obtain a complete journal.
    let path = journal_path("resume");
    let mut ck_cfg = cfg.clone();
    ck_cfg.checkpoint = Some(Checkpoint::new(&path));
    let full = Exploration::run(&ck_cfg);
    assert_bit_identical(&reference, &full);
    assert_eq!(full.stats.resumed_units, 0);

    // Simulate a crash: truncate the journal to the header plus the
    // first N completed units (append order, whatever it was).
    let kept = 5;
    let text = std::fs::read_to_string(&path).expect("journal exists");
    let truncated: Vec<&str> = text.lines().take(1 + kept).collect();
    assert!(
        text.lines().count() > 1 + kept,
        "run is big enough to truncate"
    );
    std::fs::write(&path, format!("{}\n", truncated.join("\n"))).expect("truncate");

    // Resume on a different thread count; replayed + fresh must equal
    // the uninterrupted run exactly.
    let mut resume_cfg = cfg.clone();
    resume_cfg.threads = 1;
    resume_cfg.checkpoint = Some(Checkpoint::resume(&path));
    let resumed = Exploration::run(&resume_cfg);
    assert_eq!(resumed.stats.resumed_units, kept as u64);
    assert_bit_identical(&reference, &resumed);

    // The journal is now complete again: resuming once more replays
    // every unit and evaluates nothing.
    let mut replay_cfg = cfg.clone();
    replay_cfg.checkpoint = Some(Checkpoint::resume(&path));
    let replayed = Exploration::run(&replay_cfg);
    assert_eq!(replayed.stats.resumed_units, units as u64);
    assert_bit_identical(&reference, &replayed);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_journal_cut_mid_line_resumes_bit_identically() {
    // A crash inside an append leaves the last line without its newline.
    // Resume drops it and evaluates that unit again; only whole lines
    // count as resumed.
    let cfg = config();
    let reference = Exploration::run(&cfg);
    let path = journal_path("torn");
    let mut ck_cfg = cfg.clone();
    ck_cfg.checkpoint = Some(Checkpoint::new(&path));
    let _ = Exploration::run(&ck_cfg);

    let kept = 4;
    let text = std::fs::read_to_string(&path).expect("journal exists");
    let lines: Vec<&str> = text.lines().collect();
    let torn = lines[1 + kept];
    let cut = format!("{}\n{}", lines[..=kept].join("\n"), &torn[..torn.len() / 2]);
    std::fs::write(&path, cut).expect("cut the journal mid-line");

    let mut resume_cfg = cfg.clone();
    resume_cfg.threads = 1;
    resume_cfg.checkpoint = Some(Checkpoint::resume(&path));
    let resumed = Exploration::run(&resume_cfg);
    assert_eq!(resumed.stats.resumed_units, kept as u64);
    assert_bit_identical(&reference, &resumed);
    // The torn half-line is gone: the journal holds every unit, each on
    // a whole line, and replays them all.
    let healed = std::fs::read_to_string(&path).expect("journal exists");
    let mut healed: Vec<&str> = healed.lines().collect();
    let mut whole = lines.clone();
    healed.sort_unstable();
    whole.sort_unstable();
    assert_eq!(healed, whole);
    let replayed = Exploration::run(&resume_cfg);
    assert_eq!(replayed.stats.resumed_units, lines.len() as u64 - 1);
    assert_bit_identical(&reference, &replayed);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn an_existing_journal_is_never_silently_clobbered() {
    let path = journal_path("clobber");
    let mut cfg = config();
    cfg.checkpoint = Some(Checkpoint::new(&path));
    let _ = Exploration::run(&cfg);

    // Same path without `resume` must refuse, not overwrite.
    let err = Exploration::try_run(&cfg).expect_err("journal exists");
    assert!(
        matches!(err, ExploreError::Checkpoint(CheckpointError::Exists(_))),
        "{err}"
    );

    let _ = std::fs::remove_file(&path);
}

#[test]
fn resuming_under_a_different_configuration_is_refused() {
    let path = journal_path("mismatch");
    let mut cfg = config();
    cfg.checkpoint = Some(Checkpoint::new(&path));
    let _ = Exploration::run(&cfg);

    // Different benchmark set → different fingerprint → refused.
    let mut other = config();
    other.benches = vec![Benchmark::A];
    other.checkpoint = Some(Checkpoint::resume(&path));
    let err = Exploration::try_run(&other).expect_err("wrong config");
    assert!(
        matches!(
            err,
            ExploreError::Checkpoint(CheckpointError::Mismatch { .. })
        ),
        "{err}"
    );

    // A corrupted journal is named by line, not panicked over.
    let text = std::fs::read_to_string(&path).expect("journal exists");
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    lines[1] = "garbage,entry".to_owned();
    std::fs::write(&path, lines.join("\n")).expect("corrupt");
    let mut again = config();
    again.checkpoint = Some(Checkpoint::resume(&path));
    let err = Exploration::try_run(&again).expect_err("corrupt journal");
    assert!(
        matches!(
            err,
            ExploreError::Checkpoint(CheckpointError::Corrupt { line: 2, .. })
        ),
        "{err}"
    );

    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_on_a_missing_journal_starts_fresh() {
    let path = journal_path("fresh");
    let mut cfg = config();
    cfg.checkpoint = Some(Checkpoint::resume(&path));
    let ex = Exploration::run(&cfg);
    assert_eq!(ex.stats.resumed_units, 0);
    assert_bit_identical(&Exploration::run(&config()), &ex);
    assert!(path.exists(), "journal was created");
    let _ = std::fs::remove_file(&path);
}
