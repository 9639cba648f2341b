//! The batch evaluation core is behavior-preserving: every column of
//! [`EvalBatch`], every scatter point, frontier index, and selection
//! produced by the SoA consumers is bit-identical to the scalar path
//! (`Exploration` accessors, `pareto::scatter`/`frontier`,
//! `select::select`) — on the recorded full paper space, on a live
//! paper-space sweep across 1/2/N worker threads, and on a live
//! extended-space sweep with injected quarantines (NaN rows must never
//! enter a scatter, a frontier, or a selection).
//!
//! The pinned digests were captured from the *scalar* surfaces at the
//! commit that introduced the batch core; one flipped bit anywhere in a
//! cost, derate, speedup, fail verdict, scatter point, frontier index,
//! or selection changes them. This binary installs a process-global
//! panic hook (like `fault_injection.rs`) to keep injected panics quiet.

use cfp_testkit::{FaultInjector, INJECTED_FAULT};
use custom_fit::dse::batch::{spec_fingerprint, EvalBatch};
use custom_fit::dse::checkpoint::fingerprint;
use custom_fit::dse::explore::{Exploration, ExploreConfig};
use custom_fit::dse::pareto;
use custom_fit::dse::select::{select, select_batch, Range};
use custom_fit::machine::{DesignSpace, Fnv1a};
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

/// FNV digest of every batch column: fingerprints, costs, derates,
/// harmonic means, the full speedup plane, and the fail codes.
fn column_digest(batch: &EvalBatch) -> u64 {
    let mut h = Fnv1a::new();
    eat(&mut h, batch.len() as u64);
    eat(&mut h, batch.benches() as u64);
    for &f in batch.fingerprints() {
        eat(&mut h, f);
    }
    for &c in batch.costs() {
        eat_f(&mut h, c);
    }
    for &d in batch.derates() {
        eat_f(&mut h, d);
    }
    for &s in batch.sus() {
        eat_f(&mut h, s);
    }
    for &s in batch.speedups() {
        eat_f(&mut h, s);
    }
    for &k in batch.fails() {
        eat(&mut h, u64::from(k));
    }
    h.finish()
}

/// The analysis surfaces, digested from the *batch* consumers: every
/// benchmark's scatter and frontier, and a selection grid over targets,
/// bounds, and ranges.
fn surface_digest(batch: &EvalBatch) -> u64 {
    let mut h = Fnv1a::new();
    for b in 0..batch.benches() {
        let pts = batch.scatter(b);
        eat(&mut h, pts.len() as u64);
        for p in &pts {
            eat(&mut h, spec_fingerprint(&p.spec));
            eat_f(&mut h, p.cost);
            eat_f(&mut h, p.speedup);
        }
        for i in pareto::frontier(&pts) {
            eat(&mut h, i as u64);
        }
    }
    for target in 0..batch.benches() {
        for bound in [2.0, 5.0, 10.0, 30.0, 1e9] {
            for range in [Range::Fraction(0.0), Range::Fraction(0.10), Range::Infinite] {
                match select_batch(batch, target, bound, range) {
                    Some(sel) => {
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

/// The heart of the PR's guarantee: every batch column and every batch
/// consumer agrees with the scalar path bit for bit, and no quarantined
/// (non-finite) unit reaches a scatter, a frontier, or a selection.
fn assert_bit_identical(ex: &Exploration) {
    let batch = ex.batch();
    assert_eq!(batch.len(), ex.archs.len());
    assert_eq!(batch.benches(), ex.benches.len());

    // Columns mirror the scalar accessors.
    for (a, arch) in ex.archs.iter().enumerate() {
        assert_eq!(batch.specs()[a], arch.spec);
        assert_eq!(batch.fingerprints()[a], spec_fingerprint(&arch.spec));
        assert_eq!(
            batch.costs()[a].to_bits(),
            arch.cost.to_bits(),
            "{}",
            arch.spec
        );
        assert_eq!(batch.derates()[a].to_bits(), arch.derate.to_bits());
        let row = ex.speedup_row(a);
        let su = Exploration::harmonic_mean(&row);
        assert!(
            batch.sus()[a].to_bits() == su.to_bits() || (batch.sus()[a].is_nan() && su.is_nan())
        );
        for b in 0..ex.benches.len() {
            let scalar = ex.speedup(a, b);
            let batched = batch.speedup_row(a)[b];
            assert!(
                scalar.to_bits() == batched.to_bits() || (scalar.is_nan() && batched.is_nan()),
                "unit ({a}, {b}): {scalar} vs {batched}"
            );
            let kind = arch.outcomes[b].failure().map(|r| r.kind);
            assert_eq!(batch.fail(a, b), kind, "unit ({a}, {b})");
            assert_eq!(
                batch.fail(a, b).is_some(),
                !batched.is_finite(),
                "fail code and NaN speedup must coincide at ({a}, {b})"
            );
        }
    }

    // Scatter and frontier: same points, same order, same bits, and no
    // quarantined unit slips in.
    for b in 0..ex.benches.len() {
        let scalar = pareto::scatter(ex, b);
        let batched = batch.scatter(b);
        assert_eq!(scalar.len(), batched.len(), "bench {b}");
        for (s, t) in scalar.iter().zip(&batched) {
            assert_eq!(s.spec, t.spec);
            assert_eq!(s.cost.to_bits(), t.cost.to_bits());
            assert_eq!(s.speedup.to_bits(), t.speedup.to_bits());
            assert!(t.speedup.is_finite(), "a NaN entered the scatter");
        }
        assert_eq!(pareto::frontier(&scalar), pareto::frontier(&batched));
    }

    // Selection: the batch rule picks the same winner everywhere, and
    // never a poisoned row.
    for target in 0..ex.benches.len() {
        for bound in [2.0, 5.0, 10.0, 30.0, 1e9] {
            for range in [Range::Fraction(0.0), Range::Fraction(0.10), Range::Infinite] {
                let s = select(ex, target, bound, range);
                let t = select_batch(&batch, target, bound, range);
                match (s, t) {
                    (None, None) => {}
                    (Some(s), Some(t)) => {
                        assert_eq!(s.arch_index, t.arch_index, "target {target} bound {bound}");
                        assert_eq!(s.su.to_bits(), t.su.to_bits());
                        assert!(t.su.is_finite(), "a quarantined row won a selection");
                        assert!(t.speedups.iter().all(|x| x.is_finite()));
                        let sb: Vec<u64> = s.speedups.iter().map(|x| x.to_bits()).collect();
                        let tb: Vec<u64> = t.speedups.iter().map(|x| x.to_bits()).collect();
                        assert_eq!(sb, tb);
                    }
                    (s, t) => panic!(
                        "target {target} bound {bound} {range}: scalar Some={} batch Some={}",
                        s.is_some(),
                        t.is_some()
                    ),
                }
            }
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
    assert_bit_identical(&ex);
    let batch = ex.batch();
    let cols = column_digest(&batch);
    let surf = surface_digest(&batch);
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
        archs: DesignSpace::paper()
            .all_arrangements()
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
    let archs: Vec<ArchSpec> = DesignSpace::extended()
        .all_arrangements()
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
        if digests.is_empty() {
            // The full scalar-vs-batch sweep once; digests carry the
            // cross-thread claim.
            assert_bit_identical(&ex);
        }
        digests.push(column_digest(&ex.batch()));
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "thread count changed the batch: {digests:#018x?}"
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
    assert_bit_identical(&ex);
    let batch = ex.batch();
    // The quarantine shows up in the fail plane exactly as often as the
    // stats report.
    let failed = batch.fails().iter().filter(|&&k| k != 0).count() as u64;
    assert_eq!(failed, ex.stats.failed_units);
    let cols = column_digest(&batch);
    let surf = surface_digest(&batch);
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
