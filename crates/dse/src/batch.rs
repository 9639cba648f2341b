//! Structure-of-arrays view of an exploration: the batch evaluation
//! core (DESIGN.md §14).
//!
//! The sweep produces one pointer-rich [`crate::explore::ArchEval`] per
//! architecture — convenient for inspection, hostile to bulk scoring:
//! every cost/speedup/selection pass chases `Vec<EvalOutcome>` pointers
//! and re-derives per-unit quantities. [`EvalBatch`] flattens the whole
//! result into parallel columns keyed by architecture index (and
//! `arch × bench` unit index for the per-benchmark planes), filled in a
//! handful of linear passes. Everything downstream of the scheduler —
//! scatter, frontier, selection, digesting, CSV export — can then run as
//! tight loops over flat `f64`/`u64` slices: autovectorizable, and
//! shardable across worker threads by splitting slices, not by
//! dispatching per unit.
//!
//! Invariants (tested by `tests/batch_equivalence.rs`):
//! * every column is **bit-identical** to the scalar accessor it
//!   mirrors ([`Exploration::speedup`], [`Exploration::harmonic_mean`],
//!   the `ArchEval` cost/derate fields);
//! * quarantined units carry NaN speedups and a nonzero fail code, and
//!   the batch consumers exclude them exactly where the scalar path
//!   does (scatter skips them, selection drops poisoned rows);
//! * batch [`EvalBatch::scatter`]/[`crate::select::select_batch`]
//!   reproduce the scalar [`crate::pareto::scatter`]/
//!   [`crate::select::select`] outputs index for index.

use crate::error::FailKind;
use crate::explore::Exploration;
use crate::pareto::{scatter_soa, ScatterPoint};
use cfp_machine::{ArchSpec, Fnv1a};

/// Flat, column-major view of a completed exploration.
///
/// Columns of length `len()` (one slot per architecture):
/// [`specs`](Self::specs), [`fingerprints`](Self::fingerprints),
/// [`costs`](Self::costs), [`derates`](Self::derates),
/// [`sus`](Self::sus). Planes of length `len() × benches()` in
/// arch-major order: [`speedups`](Self::speedups),
/// [`fails`](Self::fails).
#[derive(Debug, Clone, PartialEq)]
pub struct EvalBatch {
    specs: Vec<ArchSpec>,
    fingerprint: Vec<u64>,
    cost: Vec<f64>,
    derate: Vec<f64>,
    su: Vec<f64>,
    speedup: Vec<f64>,
    fail: Vec<u8>,
    nb: usize,
}

/// FNV-1a over one architecture's seven axes plus its extension set —
/// the batch's stable per-spec identity (distinct specs hash apart with
/// overwhelming probability; digests and journals use it, grouping
/// never does). An empty extension set contributes no bytes, so every
/// unextended spec keeps its historical fingerprint bit for bit.
#[must_use]
pub fn spec_fingerprint(spec: &ArchSpec) -> u64 {
    let mut h = Fnv1a::new();
    let mut eat = |x: u32| h.write(&x.to_le_bytes());
    eat(spec.alus);
    eat(spec.muls);
    eat(spec.regs);
    eat(spec.l2_ports);
    eat(spec.l2_latency);
    eat(u32::from(spec.l2_pipelined));
    eat(spec.clusters);
    if !spec.exts.is_empty() {
        eat(u32::from(spec.exts.bits()));
    }
    h.finish()
}

impl EvalBatch {
    /// Flatten `ex` into columns. Four linear passes — specs/costs/
    /// derates/fingerprints, per-unit speedups and fail codes, then
    /// per-arch harmonic means — each reading its inputs exactly once.
    #[must_use]
    pub fn from_exploration(ex: &Exploration) -> Self {
        let na = ex.archs.len();
        let nb = ex.benches.len();

        let mut specs = Vec::with_capacity(na);
        let mut fingerprint = Vec::with_capacity(na);
        let mut cost = Vec::with_capacity(na);
        let mut derate = Vec::with_capacity(na);
        for arch in &ex.archs {
            specs.push(arch.spec);
            fingerprint.push(spec_fingerprint(&arch.spec));
            cost.push(arch.cost);
            derate.push(arch.derate);
        }

        // Baseline cycles-per-output per column: the speedup numerators.
        let base: Vec<f64> = ex
            .baseline
            .outcomes
            .iter()
            .map(super::eval::EvalOutcome::cycles_per_output)
            .collect();

        let mut speedup = Vec::with_capacity(na * nb);
        let mut fail = Vec::with_capacity(na * nb);
        for (a, arch) in ex.archs.iter().enumerate() {
            let d = derate[a];
            for (b, out) in arch.outcomes.iter().enumerate() {
                // Same expression as `Exploration::speedup`, term for
                // term — the column is bit-identical to the accessor.
                speedup.push(base[b] / (out.cycles_per_output() * d));
                fail.push(out.failure().map_or(0, |r| fail_code(r.kind)));
            }
        }

        let su = (0..na)
            .map(|a| Exploration::harmonic_mean(&speedup[a * nb..(a + 1) * nb]))
            .collect();

        EvalBatch {
            specs,
            fingerprint,
            cost,
            derate,
            su,
            speedup,
            fail,
            nb,
        }
    }

    /// Number of architectures (rows).
    #[must_use]
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Number of benchmark columns.
    #[must_use]
    pub fn benches(&self) -> usize {
        self.nb
    }

    /// The architecture column.
    #[must_use]
    pub fn specs(&self) -> &[ArchSpec] {
        &self.specs
    }

    /// Per-spec FNV fingerprints (see [`spec_fingerprint`]).
    #[must_use]
    pub fn fingerprints(&self) -> &[u64] {
        &self.fingerprint
    }

    /// Baseline-relative costs, one per architecture.
    #[must_use]
    pub fn costs(&self) -> &[f64] {
        &self.cost
    }

    /// Cycle-time derating factors, one per architecture.
    #[must_use]
    pub fn derates(&self) -> &[f64] {
        &self.derate
    }

    /// Harmonic-mean speedups (the paper's `su`), one per architecture;
    /// NaN where any unit of the row was quarantined.
    #[must_use]
    pub fn sus(&self) -> &[f64] {
        &self.su
    }

    /// The full speedup plane, arch-major (`a * benches() + b`). NaN
    /// marks a quarantined unit.
    #[must_use]
    pub fn speedups(&self) -> &[f64] {
        &self.speedup
    }

    /// Per-unit fail codes, arch-major: `0` for a measured unit,
    /// otherwise the [`FailKind`] (see [`EvalBatch::fail`]).
    #[must_use]
    pub fn fails(&self) -> &[u8] {
        &self.fail
    }

    /// One architecture's speedup row.
    ///
    /// # Panics
    /// Panics if `a` is out of range.
    #[must_use]
    pub fn speedup_row(&self, a: usize) -> &[f64] {
        &self.speedup[a * self.nb..(a + 1) * self.nb]
    }

    /// The quarantine kind of unit `(a, b)`, `None` when it measured.
    ///
    /// # Panics
    /// Panics if `a` or `b` is out of range.
    #[must_use]
    pub fn fail(&self, a: usize, b: usize) -> Option<FailKind> {
        assert!(b < self.nb, "bench column out of range");
        fail_kind(self.fail[a * self.nb + b])
    }

    /// The scatter of one benchmark column (paper Figure 3), computed
    /// from the flat columns: gather the column, group by base point,
    /// keep the best arrangement. Identical output — points, order,
    /// every bit — to [`crate::pareto::scatter`] on the exploration
    /// this batch was built from.
    ///
    /// # Panics
    /// Panics if `bench` is out of range.
    #[must_use]
    pub fn scatter(&self, bench: usize) -> Vec<ScatterPoint> {
        assert!(bench < self.nb, "bench column out of range");
        let col: Vec<f64> = (0..self.len())
            .map(|a| self.speedup[a * self.nb + bench])
            .collect();
        scatter_soa(&self.specs, &self.cost, &col)
    }
}

/// Stable one-byte encoding of a [`FailKind`] for the fail plane.
fn fail_code(kind: FailKind) -> u8 {
    match kind {
        FailKind::Panic => 1,
        FailKind::FuelExhausted => 2,
        FailKind::Error => 3,
    }
}

/// Inverse of [`fail_code`]; `0` means the unit measured.
fn fail_kind(code: u8) -> Option<FailKind> {
    match code {
        1 => Some(FailKind::Panic),
        2 => Some(FailKind::FuelExhausted),
        _ => (code == 3).then_some(FailKind::Error),
    }
}

impl Exploration {
    /// The structure-of-arrays view of this exploration. Built in a few
    /// linear passes; callers that score, select, or export in bulk
    /// should build it once and loop over the flat columns instead of
    /// walking the per-arch structs.
    #[must_use]
    pub fn batch(&self) -> EvalBatch {
        EvalBatch::from_exploration(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::ExploreConfig;
    use cfp_kernels::Benchmark;

    #[test]
    fn columns_mirror_the_scalar_accessors_bit_for_bit() {
        let mut cfg = ExploreConfig::smoke();
        cfg.benches = vec![Benchmark::A, Benchmark::D];
        let ex = Exploration::run(&cfg);
        let batch = ex.batch();
        assert_eq!(batch.len(), ex.archs.len());
        assert_eq!(batch.benches(), ex.benches.len());
        for a in 0..ex.archs.len() {
            assert_eq!(batch.specs()[a], ex.archs[a].spec);
            assert_eq!(batch.costs()[a].to_bits(), ex.archs[a].cost.to_bits());
            assert_eq!(batch.derates()[a].to_bits(), ex.archs[a].derate.to_bits());
            let row = ex.speedup_row(a);
            assert_eq!(
                batch.sus()[a].to_bits(),
                Exploration::harmonic_mean(&row).to_bits()
            );
            for b in 0..ex.benches.len() {
                assert_eq!(
                    batch.speedup_row(a)[b].to_bits(),
                    ex.speedup(a, b).to_bits(),
                    "unit ({a}, {b})"
                );
                assert_eq!(batch.fail(a, b), None);
            }
        }
    }

    #[test]
    fn fingerprints_separate_every_axis() {
        let spec = cfp_machine::ArchSpec::new(8, 4, 256, 2, 4, 2).unwrap();
        let variants = [
            cfp_machine::ArchSpec::new(16, 4, 256, 2, 4, 2).unwrap(),
            cfp_machine::ArchSpec::new(8, 2, 256, 2, 4, 2).unwrap(),
            cfp_machine::ArchSpec::new(8, 4, 512, 2, 4, 2).unwrap(),
            cfp_machine::ArchSpec::new(8, 4, 256, 1, 4, 2).unwrap(),
            cfp_machine::ArchSpec::new(8, 4, 256, 2, 8, 2).unwrap(),
            cfp_machine::ArchSpec::new(8, 4, 256, 2, 4, 4).unwrap(),
            spec.with_pipelined_l2(),
        ];
        let base = spec_fingerprint(&spec);
        for v in variants {
            assert_ne!(base, spec_fingerprint(&v), "{v}");
        }
        // The extension set is an axis too: every non-empty set hashes
        // apart from the base spec and from the other sets.
        let exts: Vec<u64> = cfp_machine::ExtSet::AXIS
            .iter()
            .map(|&e| spec_fingerprint(&spec.with_extensions(e)))
            .collect();
        assert_eq!(exts[0], base, "empty set must not change the hash");
        for (i, &a) in exts.iter().enumerate() {
            for &b in &exts[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn fail_codes_round_trip() {
        for kind in [FailKind::Panic, FailKind::FuelExhausted, FailKind::Error] {
            assert_eq!(fail_kind(fail_code(kind)), Some(kind));
        }
        assert_eq!(fail_kind(0), None);
        assert_eq!(fail_kind(9), None);
    }
}
