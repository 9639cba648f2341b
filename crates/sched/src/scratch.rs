//! Reusable scratch buffers for the hot compilation path.
//!
//! The design-space exploration runs the back end once per *unique*
//! `(plan, scheduling signature)` pair — on the order of a thousand
//! compilations per sweep — and every one of them used to allocate its
//! working state from scratch: ready queues, reservation counts,
//! dependence-count arrays, pressure diff arrays, cluster-assignment
//! maps. [`SchedScratch`] owns all of that state instead. A worker
//! thread creates one arena and threads it through
//! [`crate::compile::try_compile_core`]; after the first few
//! compilations the buffers have grown to the high-water mark of the
//! sweep and steady-state compilation performs no heap allocation for
//! its working state.
//!
//! Every user of the arena fully re-initializes the ranges it reads, so
//! the buffers carry no information between compilations — a unit that
//! panics mid-compile (the exploration quarantines it) leaves nothing a
//! later unit can observe. Reuse is therefore invisible: schedules,
//! step counts, and fuel verdicts are bit-identical to the
//! allocate-per-call implementation (asserted by
//! `tests/sched_equivalence.rs`). The two values that do accumulate are
//! the work counts ([`SchedScratch::list_probes`],
//! [`SchedScratch::ddg_probes`], [`SchedScratch::modulo_attempts`],
//! [`SchedScratch::modulo_probes`]), statistics no compilation reads.

use crate::ddg::{Dep, MemAccess};
use crate::list::IssueQueue;
use cfp_machine::ResReq;
use std::collections::BinaryHeap;

/// The scratch arena. Create one per worker thread (or use the
/// convenience wrappers that create a throwaway arena per call) and
/// pass it to the `*_in` entry points of the back end.
///
/// The fields are deliberately private: the arena's only contract is
/// "reusable memory"; its contents between calls are unspecified.
#[derive(Debug, Default)]
pub struct SchedScratch {
    // --- list scheduler ---
    pub(crate) pending: Vec<u32>,
    pub(crate) earliest: Vec<u32>,
    pub(crate) issue: Vec<u32>,
    pub(crate) queues: Vec<BinaryHeap<u64>>,
    pub(crate) issued: Vec<u32>,
    pub(crate) list_probes: u64,
    pub(crate) cal: Vec<Vec<u32>>,
    pub(crate) op_queue: Vec<u32>,
    pub(crate) room: Vec<u32>,
    pub(crate) ring: Vec<u32>,
    pub(crate) walk: Vec<IssueQueue>,
    pub(crate) walk_reqs: Vec<ResReq>,
    // --- resource bound (the portfolio's stop, ResMII) ---
    pub(crate) res_busy: Vec<u32>,
    // --- dependence-graph construction ---
    pub(crate) def_of: Vec<u32>,
    pub(crate) edge_buf: Vec<Dep>,
    pub(crate) mems_tmp: Vec<MemAccess>,
    pub(crate) stores_tmp: Vec<MemAccess>,
    pub(crate) ddg_probes: u64,
    pub(crate) row_tmp: Vec<u32>,
    pub(crate) indeg: Vec<u32>,
    pub(crate) topo: Vec<u32>,
    // --- cluster assignment ---
    pub(crate) order: Vec<u32>,
    pub(crate) height_start: Vec<u32>,
    pub(crate) home: Vec<u32>,
    pub(crate) vflags: Vec<u8>,
    pub(crate) alu_load: Vec<f64>,
    pub(crate) alu_share: Vec<f64>,
    pub(crate) mem_load: Vec<f64>,
    pub(crate) copy_of: Vec<u32>,
    pub(crate) legal: Vec<u32>,
    // --- register-pressure analysis ---
    pub(crate) last_use: Vec<u32>,
    pub(crate) reader_mask: Vec<u64>,
    pub(crate) diff: Vec<i32>,
    // --- modulo scheduler ---
    pub(crate) mod_rows: Vec<u32>,
    pub(crate) mod_full: Vec<u64>,
    pub(crate) mod_slots: Vec<u32>,
    pub(crate) mod_demand: Vec<u64>,
    pub(crate) modulo_attempts: u64,
    pub(crate) modulo_probes: u64,
}

impl SchedScratch {
    /// A fresh, empty arena. Buffers grow on first use and are kept.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Ready-queue probes (pops plus refused peeks) the list scheduler
    /// has made through this arena since it was created — the clock-free
    /// measure of issue-scan work (`tests/pinned.rs` holds it to
    /// `results/sched_step_budget.json`).
    #[must_use]
    pub fn list_probes(&self) -> u64 {
        self.list_probes
    }

    /// Memory-op pairs the dependence-graph builder has examined through
    /// this arena since it was created — the clock-free measure of the
    /// memory scan, pinned beside the list probes.
    #[must_use]
    pub fn ddg_probes(&self) -> u64 {
        self.ddg_probes
    }

    /// Initiation intervals the modulo scheduler has attempted through
    /// this arena since it was created — those of searches that found no
    /// schedule included, which [`crate::ModuloSchedule::ii_attempts`]
    /// cannot report. Pinned beside the list probes.
    #[must_use]
    pub fn modulo_attempts(&self) -> u64 {
        self.modulo_attempts
    }

    /// First-fit searches the modulo scheduler has made through this
    /// arena since it was created — one per op placement tried, each a
    /// word-parallel pass over the op's reservation rows (fuel prices a
    /// search as the candidate slots a one-at-a-time scan would have
    /// probed). Pinned beside the list probes.
    #[must_use]
    pub fn modulo_probes(&self) -> u64 {
        self.modulo_probes
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn packed_keys_sort_by_priority_then_low_index() {
        // Descending key order must be highest priority first, lowest
        // index on ties — the ready queues' invariant.
        let key = |pri: u32, idx: u32| (u64::from(pri) << 32) | u64::from(u32::MAX - idx);
        let mut keys = [key(7, 3), key(7, 1), key(9, 5)];
        keys.sort_unstable_by(|a, b| b.cmp(a));
        let idx = |k: u64| u32::MAX - (k as u32);
        assert_eq!(idx(keys[0]), 5, "highest priority first");
        assert_eq!(idx(keys[1]), 1, "low index wins the tie");
        assert_eq!(idx(keys[2]), 3);
    }
}
