//! The scoring surface, pinned: every cost, derate, speedup, fail
//! verdict, scatter point, frontier index and selection an
//! [`Exploration`] yields — through its accessors and through
//! `pareto::scatter` / `frontier` and `select::select` — folded into FNV
//! digests on the recorded full paper space, on a live paper-space sweep
//! across 1/2/N worker threads, and on a live extended-space sweep with
//! injected quarantines (NaN rows must never enter a scatter, a frontier,
//! or a selection).
//!
//! The digests were captured from these same scalar surfaces when the
//! column cores behind them were introduced and have not moved since;
//! one flipped bit anywhere changes them. This binary installs a
//! process-global panic hook (like `fault_injection.rs`) to keep
//! injected panics quiet.

use cfp_testkit::{FaultInjector, INJECTED_FAULT};
use custom_fit::dse::checkpoint::fingerprint;
use custom_fit::dse::explore::{Exploration, ExploreConfig};
use custom_fit::dse::select::{select, Range};
use custom_fit::dse::{pareto, spec_fingerprint, FailKind};
use custom_fit::machine::{Fnv1a, SpaceAxes};
use custom_fit::prelude::*;
use std::sync::Once;

/// Column digest of the recorded full-paper-space run
/// (`results/exploration.csv`, 600 architectures x 10 benchmarks).
const RECORDED_PAPER_COLUMNS: u64 = 0x1480_c48b_a4d9_4404;
/// Scatter/frontier/selection surface digest of the recorded run.
const RECORDED_PAPER_SURFACE: u64 = 0xd073_c49c_3af2_6088;
/// Column digest of the live paper-sample sweep (86 archs, A/D/G).
const LIVE_PAPER_COLUMNS: u64 = 0xa9e5_8773_10d8_a7f6;
/// Column digest of the live extended sweep (384 base points, D/H,
/// injected quarantines).
const LIVE_EXTENDED_COLUMNS: u64 = 0x2497_e1c3_6b0f_f29e;
/// Surface digest of the live extended sweep.
const LIVE_EXTENDED_SURFACE: u64 = 0x0f9c_e667_a932_cd41;
/// Checkpoint fingerprint of the paper-sample configuration.
const PAPER_SAMPLE_FINGERPRINT: u64 = 0x5691_b469_ed2a_b11a;
/// Checkpoint fingerprint of the extended configuration.
const EXTENDED_FINGERPRINT: u64 = 0x2972_acef_a901_baa4;

fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains(INJECTED_FAULT));
            if !injected {
                default(info);
            }
        }));
    });
}

fn eat(h: &mut Fnv1a, x: u64) {
    h.write(&x.to_le_bytes());
}

/// Fold an `f64` by exact bits, mapping every non-finite value to one
/// marker so the digest never depends on NaN payload bits.
fn eat_f(h: &mut Fnv1a, x: f64) {
    eat(
        h,
        if x.is_finite() {
            x.to_bits()
        } else {
            u64::MAX - 1
        },
    );
}

/// FNV digest of the exploration's columns: per-architecture
/// fingerprints, costs, derates and harmonic means, then the arch-major
/// speedup plane and the fail codes (0 measured, 1 panic, 2 fuel,
/// 3 error).
fn column_digest(ex: &Exploration) -> u64 {
    let mut h = Fnv1a::new();
    eat(&mut h, ex.archs.len() as u64);
    eat(&mut h, ex.benches.len() as u64);
    for arch in &ex.archs {
        eat(&mut h, spec_fingerprint(&arch.spec));
    }
    for arch in &ex.archs {
        eat_f(&mut h, arch.cost);
    }
    for arch in &ex.archs {
        eat_f(&mut h, arch.derate);
    }
    for a in 0..ex.archs.len() {
        eat_f(&mut h, Exploration::harmonic_mean(&ex.speedup_row(a)));
    }
    for a in 0..ex.archs.len() {
        for s in ex.speedup_row(a) {
            eat_f(&mut h, s);
        }
    }
    for out in ex.archs.iter().flat_map(|a| &a.outcomes) {
        let code = match out.failure().map(|r| r.kind) {
            None => 0,
            Some(FailKind::Panic) => 1,
            Some(FailKind::FuelExhausted) => 2,
            Some(FailKind::Error) => 3,
        };
        eat(&mut h, code);
    }
    h.finish()
}

/// The selection grid every surface below walks.
const BOUNDS: [f64; 5] = [2.0, 5.0, 10.0, 30.0, 1e9];
const RANGES: [Range; 3] = [Range::Fraction(0.0), Range::Fraction(0.10), Range::Infinite];

/// The analysis surfaces: every benchmark's scatter and frontier, and a
/// selection grid over targets, bounds, and ranges. No quarantined
/// (non-finite) unit may reach any of them.
fn surface_digest(ex: &Exploration) -> u64 {
    let mut h = Fnv1a::new();
    for b in 0..ex.benches.len() {
        let pts = pareto::scatter(ex, b);
        eat(&mut h, pts.len() as u64);
        for p in &pts {
            assert!(p.speedup.is_finite(), "a NaN entered the scatter");
            eat(&mut h, spec_fingerprint(&p.spec));
            eat_f(&mut h, p.cost);
            eat_f(&mut h, p.speedup);
        }
        for i in pareto::frontier(&pts) {
            eat(&mut h, i as u64);
        }
    }
    for target in 0..ex.benches.len() {
        for bound in BOUNDS {
            for range in RANGES {
                match select(ex, target, bound, range) {
                    Some(sel) => {
                        assert!(sel.su.is_finite(), "a quarantined row won a selection");
                        assert!(sel.speedups.iter().all(|x| x.is_finite()));
                        eat(&mut h, sel.arch_index as u64);
                        eat_f(&mut h, sel.su);
                    }
                    None => eat(&mut h, u64::MAX),
                }
            }
        }
    }
    h.finish()
}

/// A quarantined unit is a NaN speedup, and nothing else is.
fn assert_failures_are_the_nans(ex: &Exploration) {
    for (a, arch) in ex.archs.iter().enumerate() {
        for (b, out) in arch.outcomes.iter().enumerate() {
            assert_eq!(
                out.failure().is_some(),
                !ex.speedup(a, b).is_finite(),
                "fail verdict and NaN speedup must coincide at ({a}, {b})"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The recorded full paper space (600 architectures x 10 benchmarks).

#[test]
fn recorded_paper_space_is_bit_identical_and_pinned() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/exploration.csv");
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("results/exploration.csv absent; skipping");
        return;
    };
    let ex = custom_fit::dse::from_csv(&text).expect("recorded artifact parses");
    assert!(
        ex.archs.len() >= 550,
        "not the full space: {}",
        ex.archs.len()
    );
    assert_eq!(ex.benches.len(), 10);
    assert_failures_are_the_nans(&ex);
    let cols = column_digest(&ex);
    let surf = surface_digest(&ex);
    assert_eq!(
        cols, RECORDED_PAPER_COLUMNS,
        "columns drifted: {cols:#018x}"
    );
    assert_eq!(
        surf, RECORDED_PAPER_SURFACE,
        "surface drifted: {surf:#018x}"
    );
}

// ---------------------------------------------------------------------
// Live sweeps.

/// Every 7th arrangement of the paper space: the same 86-architecture
/// corpus `mdes_equivalence.rs` pins.
fn paper_sample() -> ExploreConfig {
    ExploreConfig {
        archs: SpaceAxes::paper()
            .arrangements()
            .into_iter()
            .step_by(7)
            .collect(),
        benches: vec![Benchmark::A, Benchmark::D, Benchmark::G],
        ..ExploreConfig::default()
    }
}

/// One cluster arrangement per *base point* of the extended space: all
/// 384 points present, the arrangement axis collapsed.
fn extended_one_per_base() -> ExploreConfig {
    let mut seen = std::collections::HashSet::new();
    let archs: Vec<ArchSpec> = SpaceAxes::extended()
        .arrangements()
        .into_iter()
        .filter(|s| {
            // The six-axis key: `l2_pipelined` is the axis the extended
            // space adds, so it stays in (unlike the scatter's key,
            // which deliberately collapses pipelined siblings).
            seen.insert((
                s.alus,
                s.muls,
                s.regs,
                s.l2_ports,
                s.l2_latency,
                s.l2_pipelined,
            ))
        })
        .collect();
    assert_eq!(archs.len(), 384, "extended space changed size");
    ExploreConfig {
        archs,
        benches: vec![Benchmark::D, Benchmark::H],
        // Dooms a seed-determined ~quarter of the units: the NaN
        // exclusion paths run against real quarantines, not synthetics.
        fault: Some(FaultInjector::one_in(0xba7c_4e11, 4)),
        ..ExploreConfig::default()
    }
}

#[test]
fn live_paper_sample_is_thread_independent_and_pinned() {
    let mut digests = Vec::new();
    for threads in [1, 2, ExploreConfig::default().threads] {
        let mut cfg = paper_sample();
        cfg.threads = threads;
        let ex = Exploration::run(&cfg);
        assert_failures_are_the_nans(&ex);
        digests.push(column_digest(&ex));
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "thread count changed the columns: {digests:#018x?}"
    );
    assert_eq!(
        digests[0], LIVE_PAPER_COLUMNS,
        "live paper columns drifted: {:#018x}",
        digests[0]
    );
}

#[test]
fn live_extended_space_with_quarantines_is_bit_identical_and_pinned() {
    quiet_injected_panics();
    let cfg = extended_one_per_base();
    let ex = Exploration::run(&cfg);
    assert!(
        ex.stats.failed_units > 0,
        "the injector doomed nothing; the NaN paths went untested"
    );
    assert_failures_are_the_nans(&ex);
    // The quarantine shows up in the outcomes exactly as often as the
    // stats report.
    let outcomes = ex.archs.iter().flat_map(|a| &a.outcomes);
    let failed = outcomes.filter(|o| o.failure().is_some()).count() as u64;
    assert_eq!(failed, ex.stats.failed_units);
    let cols = column_digest(&ex);
    let surf = surface_digest(&ex);
    assert_eq!(cols, LIVE_EXTENDED_COLUMNS, "columns drifted: {cols:#018x}");
    assert_eq!(surf, LIVE_EXTENDED_SURFACE, "surface drifted: {surf:#018x}");
}

#[test]
fn checkpoint_fingerprints_are_pinned_and_thread_blind() {
    let paper = paper_sample();
    let extended = extended_one_per_base();
    let fa = fingerprint(&paper);
    let fb = fingerprint(&extended);
    assert_eq!(
        fa, PAPER_SAMPLE_FINGERPRINT,
        "paper fingerprint: {fa:#018x}"
    );
    assert_eq!(fb, EXTENDED_FINGERPRINT, "extended fingerprint: {fb:#018x}");
    // The fingerprint names the *work*, not the machine running it: a
    // resumed checkpoint must match across thread counts.
    let mut other = paper_sample();
    other.threads = 1;
    assert_eq!(fingerprint(&other), fa);
}
