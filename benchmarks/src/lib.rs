//! The repo's one benchmark: five named workloads over the codesign
//! loop, end-to-end metrics with tracing off, and an outside-in layer
//! waterfall from a separate traced run. See `README.md` beside this
//! crate for the metric glossary and what each workload may and may not
//! be used to claim; `BENCHMARK.json` at the repo root is the contract.
//!
//! Every layer is measured from outside, by timing calls into the
//! program's public functions. Nothing here is called by the program.

#![forbid(unsafe_code)]

pub mod gen;
pub mod probe;
pub mod report;
pub mod staged;
pub mod trace;
pub mod workloads;

/// Worker threads and client connections every workload uses:
/// `min(nproc, 4)`, so a result names the parallelism it was taken at.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZero::get)
        .min(4)
}

/// Median of a sample (mean of the middle two for even counts).
///
/// # Panics
/// Panics on an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The 95th percentile of a sample of at least 200 (ten or more samples
/// then lie beyond it); the median of a smaller one, where no high
/// percentile is resolved.
///
/// # Panics
/// Panics on an empty sample.
#[must_use]
pub fn tail(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 200 {
        return median(values);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[(n * 95).div_ceil(100) - 1]
}

/// Geometric mean; 0 for an empty sample or any non-positive entry, so a
/// broken speedup can never read as a good one.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// FNV-1a folding of `u64`s — the digest every workload prints so two
/// commits can be compared exactly.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one value in.
    pub fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a byte string in, length-prefixed so concatenations differ.
    pub fn eat_bytes(&mut self, bytes: &[u8]) {
        self.eat(bytes.len() as u64);
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_is_a_p95_only_with_enough_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // Under 200 samples no high percentile is resolved.
        let few: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&few), median(&few));
        // 1000 samples: a true p95.
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&many), 950.0);
    }

    #[test]
    fn geomean_refuses_broken_entries() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[1.0, f64::NAN]), 0.0);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }
}
