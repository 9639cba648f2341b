//! The back end's one scratch arena: reusable memory for the hot
//! compilation path.
//!
//! The design-space exploration runs the back end once per *unique*
//! `(plan, scheduling signature)` pair — on the order of a thousand
//! compilations per sweep — and every one of them needs working state:
//! ready queues, reservation counts, dependence-count arrays, pressure
//! diff arrays, cluster-assignment maps. [`SchedScratch`] owns all of
//! it, one per thread: each public entry point of the crate borrows the
//! calling thread's arena once ([`with_arena`]) and hands `&mut` down to
//! private helpers, so after the first few compilations on a thread the
//! buffers have grown to the high-water mark of its work and
//! steady-state compilation performs no heap allocation for its working
//! state. No public function calls another public function while it
//! holds the borrow — a nested borrow would panic.
//!
//! Every user of the arena fully re-initializes the ranges it reads, so
//! the buffers carry no information between calls — a unit that panics
//! mid-compile (the exploration quarantines it) releases the borrow as
//! it unwinds and leaves nothing a later unit can observe. Reuse is
//! therefore invisible: schedules, step counts, and fuel verdicts are
//! bit-identical on a warmed thread and a fresh one (asserted by
//! `tests/sched_equivalence.rs`). The values that do accumulate are the
//! [`WorkCounts`], statistics no compilation reads; [`work_counts`]
//! snapshots them.
//!
//! One structure here is more than a buffer: the list scheduler's
//! ready queues (`ReadyQueues`), a bitmap over ranks per queue — a
//! rank being an op's place in the arm's order, priority descending,
//! index ascending — with a summary word per 64 words and the lowest
//! rank cached, so the pop order is exactly a max-heap's over
//! `(priority, !index)` keys while push, pop and peek are word
//! operations. Its unit test drives it against a sorted reference.

use crate::cluster::Placing;
use crate::ddg::{height_order, Dep, MemBuckets};
use crate::list::{IssueQueue, Wait};
use crate::mrt::Mrt;
use cfp_machine::ResReq;
use std::cell::RefCell;

/// The arena. Its only contract is "reusable memory": its contents
/// between calls are unspecified.
#[derive(Debug, Default)]
pub(crate) struct SchedScratch {
    pub(crate) counts: WorkCounts,
    // --- list scheduler ---
    pub(crate) waits: Vec<Wait>,
    pub(crate) issue: Vec<u32>,
    pub(crate) ready: ReadyQueues,
    pub(crate) issued: Vec<u32>,
    pub(crate) cal: Vec<u32>,
    pub(crate) cal_next: Vec<u32>,
    pub(crate) op_queue: Vec<u32>,
    pub(crate) op_lat: Vec<u32>,
    pub(crate) room: Vec<u32>,
    pub(crate) ring: Vec<u32>,
    pub(crate) ring_back: Vec<u32>,
    pub(crate) walk: Vec<IssueQueue>,
    pub(crate) walk_reqs: Vec<ResReq>,
    pub(crate) class_queue: Vec<u32>,
    pub(crate) class_ops: Vec<u32>,
    // --- resource bound (the portfolio's stop, ResMII) ---
    pub(crate) res_busy: Vec<u32>,
    // --- dependence-graph construction ---
    pub(crate) def_of: Vec<u32>,
    pub(crate) lats: Vec<u32>,
    pub(crate) edge_buf: Vec<Dep>,
    pub(crate) mem: MemBuckets,
    pub(crate) row_tmp: Vec<u32>,
    pub(crate) on_stack: Vec<bool>,
    pub(crate) dfs: Vec<(u32, u32, u32)>,
    // --- cluster assignment ---
    pub(crate) placing: Vec<Placing>,
    pub(crate) height_start: Vec<u32>,
    pub(crate) home: Vec<u32>,
    pub(crate) vflags: Vec<u8>,
    pub(crate) alu_load: Vec<f64>,
    pub(crate) alu_units: Vec<f64>,
    pub(crate) alu_share: Vec<f64>,
    pub(crate) mem_load: Vec<f64>,
    pub(crate) copy_of: Vec<u32>,
    pub(crate) legal: Vec<u32>,
    // --- register-pressure analysis ---
    pub(crate) last_use: Vec<u32>,
    pub(crate) reader_mask: Vec<u64>,
    pub(crate) diff: Vec<i32>,
    // --- modulo scheduler ---
    pub(crate) mrt: Mrt,
    pub(crate) mod_slots: Vec<u32>,
    pub(crate) mod_demand: Vec<u64>,
}

thread_local! {
    static ARENA: RefCell<SchedScratch> = RefCell::new(SchedScratch::default());
}

/// Run `f` on the calling thread's arena. Public entry points call this
/// once each and pass the `&mut` down; calling it again inside `f`
/// panics.
pub(crate) fn with_arena<R>(f: impl FnOnce(&mut SchedScratch) -> R) -> R {
    ARENA.with_borrow_mut(f)
}

/// The back end's clock-free work counts on the calling thread since it
/// started: statistics no compilation reads. `tests/pinned.rs` holds
/// the deltas of one corpus to `results/sched_step_budget.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Ready-queue probes (pops plus refused peeks) of the list
    /// scheduler — the measure of issue-scan work.
    pub list_probes: u64,
    /// Memory-op pairs the dependence-graph builder examined — the
    /// measure of the memory scan.
    pub ddg_probes: u64,
    /// Initiation intervals the modulo scheduler attempted — those of
    /// searches that found no schedule included, which
    /// [`crate::ModuloSchedule::ii_attempts`] cannot report.
    pub modulo_attempts: u64,
    /// First-fit searches the modulo scheduler made — one per op
    /// placement tried, each a word-parallel pass over the op's
    /// reservation rows (fuel prices a search as the candidate slots a
    /// one-at-a-time scan would have probed).
    pub modulo_probes: u64,
}

/// A snapshot of the calling thread's [`WorkCounts`].
#[must_use]
pub fn work_counts() -> WorkCounts {
    ARENA.with_borrow(|arena| arena.counts)
}

/// The queue of an op that never queues (the branch, which places
/// last, and classes with no registered row, which never issue).
pub(crate) const NO_QUEUE: u32 = u32::MAX;

/// A queue's head when it holds nothing.
pub(crate) const EMPTY: u32 = u32::MAX;

/// The ready queues of one list-scheduling arm, over ranks instead of
/// keys.
///
/// An op's rank is its place in the arm's total order — priority
/// descending, index ascending — so a queue's head is its lowest rank.
/// A queue is a bitmap over the ranks, a word per 64 ranks and a summary
/// word per 64 words, with its lowest rank cached: push, pop and peek
/// are a few word operations, and the pop order is exactly that of a
/// max-heap of `(priority, !index)` keys. Each op is pushed at most once
/// per arm.
#[derive(Debug, Default)]
pub(crate) struct ReadyQueues {
    /// Each queue's lowest rank, or [`EMPTY`].
    heads: Vec<u32>,
    /// Bit `q % 64` of word `q / 64`: queue `q` holds an op.
    occupied: Vec<u64>,
    /// Rank → op.
    rank_op: Vec<u32>,
    /// Op → rank.
    op_rank: Vec<u32>,
    /// Queue `q`'s words are `words[q·stride..][..stride]`.
    words: Vec<u64>,
    /// Queue `q`'s summary words are `summary[q·sums..][..sums]`.
    summary: Vec<u64>,
    stride: usize,
    sums: usize,
    /// Counting-sort buckets.
    start: Vec<u32>,
}

impl ReadyQueues {
    /// Rank ops `0..n` — by `height` descending, index ascending, or by
    /// index alone without `height` — and lay out `queues` empty queues.
    /// Linear in the ops and the highest height, plus a word per 64 ops
    /// per queue.
    pub(crate) fn reset(&mut self, height: Option<&[u32]>, n: usize, queues: usize) {
        let count = u32::try_from(n).expect("op count fits u32");
        self.rank_op.clear();
        self.op_rank.clear();
        match height {
            None => {
                self.rank_op.extend(0..count);
                self.op_rank.extend(0..count);
            }
            Some(height) => {
                self.rank_op.resize(n, 0);
                let (rank_op, op_rank) = (&mut self.rank_op, &mut self.op_rank);
                height_order(height, &mut self.start, |rank, i| {
                    rank_op[rank as usize] = i;
                    op_rank.push(rank);
                });
            }
        }
        self.heads.clear();
        self.heads.resize(queues, EMPTY);
        self.occupied.clear();
        self.occupied.resize(queues.div_ceil(64), 0);
        self.stride = n.div_ceil(64);
        self.sums = self.stride.div_ceil(64);
        self.words.clear();
        self.words.resize(queues * self.stride, 0);
        self.summary.clear();
        self.summary.resize(queues * self.sums, 0);
    }

    /// Queue op `op` on queue `q`.
    #[inline]
    pub(crate) fn push(&mut self, q: u32, op: u32) {
        let q = q as usize;
        let rank = self.op_rank[op as usize];
        let w = rank as usize / 64;
        self.words[q * self.stride + w] |= 1 << (rank % 64);
        self.summary[q * self.sums + w / 64] |= 1 << (w % 64);
        self.heads[q] = self.heads[q].min(rank);
        self.occupied[q / 64] |= 1 << (q % 64);
    }

    /// The rank at the head of queue `q`, [`EMPTY`] if it holds nothing.
    #[inline]
    pub(crate) fn head(&self, q: u32) -> u32 {
        self.heads[q as usize]
    }

    /// The heads of queues `first..first + len`.
    #[inline]
    pub(crate) fn heads(&self, first: usize, len: usize) -> &[u32] {
        &self.heads[first..first + len]
    }

    /// Drop the head of queue `q`, which must hold an op.
    #[inline]
    pub(crate) fn pop(&mut self, q: u32) {
        let q = q as usize;
        let (words, summary) = (
            &mut self.words[q * self.stride..][..self.stride],
            &mut self.summary[q * self.sums..][..self.sums],
        );
        // The head is the lowest set bit of the lowest nonzero word,
        // whose summary bit is the lowest of its summary word.
        let w = self.heads[q] as usize / 64;
        words[w] &= words[w] - 1;
        if words[w] != 0 {
            self.heads[q] = (w * 64) as u32 + words[w].trailing_zeros();
            return;
        }
        summary[w / 64] &= summary[w / 64] - 1;
        for (s, &bits) in summary.iter().enumerate().skip(w / 64) {
            if bits != 0 {
                let w = s * 64 + bits.trailing_zeros() as usize;
                self.heads[q] = (w * 64) as u32 + words[w].trailing_zeros();
                return;
            }
        }
        self.heads[q] = EMPTY;
        self.occupied[q / 64] &= !(1 << (q % 64));
    }

    /// The first queue from `q` on that holds an op.
    #[inline]
    pub(crate) fn occupied_from(&self, q: usize) -> Option<usize> {
        let mut at = q / 64;
        let mut bits = self.occupied.get(at)? & (u64::MAX << (q % 64));
        while bits == 0 {
            at += 1;
            bits = *self.occupied.get(at)?;
        }
        Some(at * 64 + bits.trailing_zeros() as usize)
    }

    /// The op of rank `rank`.
    #[inline]
    pub(crate) fn op(&self, rank: u32) -> u32 {
        self.rank_op[rank as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::{ReadyQueues, EMPTY};
    use std::collections::BTreeSet;

    #[test]
    fn rank_queues_pop_by_priority_then_low_index() {
        // Random push/pop interleavings against a sorted reference of
        // `(priority desc, index asc)`, both priority functions, op
        // counts around a word (64) and a summary word (4 096).
        let mut queues = ReadyQueues::default();
        for (case, &n) in [1, 63, 64, 65, 130, 4095, 4097, 9000].iter().enumerate() {
            cfp_testkit::cases(0x5c4a_0037 + case as u64, 4, |rng| {
                let mut queues = ReadyQueues::default();
                let queues_n = 1 + rng.index(3);
                let height: Vec<u32> = rng.vec_of(n, |r| r.range_u32(0..=9));
                // Some ops never queue, like the branch.
                let queue_of: Vec<Option<usize>> = (0..n)
                    .map(|_| Some(rng.index(queues_n + 1)).filter(|&q| q < queues_n))
                    .collect();
                let by_height = rng.gen_bool();
                let pri = |i: usize| if by_height { height[i] } else { 0 };
                queues.reset(by_height.then_some(&height[..]), n, queues_n);
                let key = |i: usize| (u32::MAX - pri(i), i);
                let ranked: Vec<usize> = (0..n as u32).map(|k| queues.op(k) as usize).collect();
                assert!(ranked.windows(2).all(|w| key(w[0]) < key(w[1])), "n {n}");
                // Each op is pushed once, in a shuffled order.
                let mut pushes: Vec<usize> = (0..n).filter(|&i| queue_of[i].is_some()).collect();
                for i in (1..pushes.len()).rev() {
                    pushes.swap(i, rng.index(i + 1));
                }
                let mut reference = vec![BTreeSet::new(); queues_n];
                let mut next = 0;
                while next < pushes.len() || reference.iter().any(|q| !q.is_empty()) {
                    if next < pushes.len() && rng.index(3) != 0 {
                        let i = pushes[next];
                        next += 1;
                        let q = queue_of[i].expect("a queued op");
                        queues.push(q as u32, i as u32);
                        reference[q].insert(key(i));
                    } else {
                        let q = rng.index(queues_n);
                        if let Some((_, i)) = reference[q].pop_first() {
                            let rank = queues.head(q as u32);
                            assert_eq!(queues.op(rank) as usize, i, "n {n} queue {q}");
                            queues.pop(q as u32);
                        }
                    }
                    for (q, held) in reference.iter().enumerate() {
                        let head = queues.head(q as u32);
                        let head = (head != EMPTY).then(|| queues.op(head) as usize);
                        assert_eq!(head, held.first().map(|&(_, i)| i), "n {n} queue {q}");
                        let next = (q..queues_n).find(|&k| !reference[k].is_empty());
                        assert_eq!(queues.occupied_from(q), next, "n {n} from {q}");
                    }
                }
            });
        }
        // A reset arena starts empty whatever the last arm left behind.
        queues.reset(None, 2, 1);
        queues.push(0, 1);
        queues.reset(None, 2, 1);
        assert_eq!(queues.head(0), EMPTY);
    }
}
