//! Data-dependence graph over a [`LoopCode`].
//!
//! Register dependences are pure RAW (the IR is single-assignment within
//! an iteration). Memory dependences come from one rule on the affine
//! access functions (`MemAccess::distances`): at which iteration
//! distances two references to the *same array* can name the same
//! element. Arrays never alias each other. This graph holds the pairs
//! that can meet within one iteration — the loop barrier orders the
//! rest — and [`crate::modulo::omega_deps`] reads the loop-carried ones
//! off the same rule, array buckets and def table.
//!
//! The memory scan is per array: the memory ops are bucketed by array
//! (program order kept inside a bucket), a load is compared only with
//! the stores after it, and a store with every later access of its
//! array — so an array nothing stores to costs nothing, and no load–load
//! pair is ever looked at. [`SchedScratch::ddg_probes`] counts the pairs
//! examined; `results/sched_step_budget.json` pins the total. The graph
//! rebuilt after cluster assignment scans nothing: moves never touch
//! memory, so it copies the prepared graph's memory edges (the `memory`
//! argument of [`Ddg::build_in`]).
//!
//! The graph is stored in compressed-sparse-row (CSR) form: one flat edge
//! array grouped by consumer, one grouped by producer, each indexed by an
//! `n + 1`-entry row-offset table. The exploration builds a graph once
//! per cached plan and then reads it from every architecture of the
//! sweep, so the layout is optimized for shared read-only traversal: a
//! node's predecessors (or successors) are one contiguous slice, and the
//! whole structure is four allocations regardless of edge count. Within
//! each group, edges appear in the exact order the old `Vec<Vec<Dep>>`
//! representation pushed them (the grouping sort is stable), so every
//! downstream traversal sees the same sequence it always has.

use crate::loopcode::{LoopCode, SOp};
use crate::scratch::{with_arena, SchedScratch};

/// Why an edge exists (affects its latency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Register read-after-write: consumer waits for the full latency.
    RegRaw,
    /// Memory read-after-write (same element): load waits for the store
    /// to complete.
    MemRaw,
    /// Memory write-after-read: the store may issue in the cycle after
    /// the load samples memory.
    MemWar,
    /// Memory write-after-write (same element): order preserved.
    MemWaw,
}

/// One dependence edge. Indices are `u32` so an edge packs into twelve
/// bytes plus the kind — the graphs are read far more than built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dep {
    /// Producer op index.
    pub from: u32,
    /// Consumer op index.
    pub to: u32,
    /// Minimum issue-cycle separation: `issue(to) ≥ issue(from) + lat`.
    pub lat: u32,
    /// Classification.
    pub kind: DepKind,
}

/// The dependence graph, in CSR form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ddg {
    /// All edges, grouped by consumer (`to`).
    pred_edges: Vec<Dep>,
    /// `pred_edges[pred_row[i]..pred_row[i + 1]]` are op `i`'s preds.
    pred_row: Vec<u32>,
    /// All edges, grouped by producer (`from`).
    succ_edges: Vec<Dep>,
    /// `succ_edges[succ_row[i]..succ_row[i + 1]]` are op `i`'s succs.
    succ_row: Vec<u32>,
    /// Critical-path height of each op (its latency plus the longest
    /// path below it); the list scheduler's priority.
    pub height: Vec<u32>,
    /// The longest edge latency (0 without edges), which sizes the list
    /// scheduler's calendar ring.
    max_lat: u32,
}

impl Ddg {
    /// Build the graph.
    #[must_use]
    pub fn build(code: &LoopCode) -> Self {
        with_arena(|arena| Self::build_in(code, None, arena))
    }

    /// [`Ddg::build`] in a borrowed arena, which holds every intermediate
    /// buffer, so a sweep that builds many graphs allocates only the
    /// graphs themselves.
    ///
    /// `memory`, when given, is a graph whose code has `code`'s memory
    /// ops at the same indices — the pre-assignment graph of code that
    /// cluster assignment only appended moves to and renamed operands in —
    /// and its memory edges are copied instead of rescanned. They come out
    /// of it grouped by consumer, producers ascending; each memory op's
    /// conflicts lie in its own array, so every CSR group holds the
    /// sequence the scan would have pushed. The consumer view is then
    /// written op by op — register edges, then the op's memory group —
    /// and only the producer view is grouped.
    pub(crate) fn build_in(
        code: &LoopCode,
        memory: Option<&Ddg>,
        arena: &mut SchedScratch,
    ) -> Self {
        let n = code.ops.len();

        // `lats` holds each op's result latency, read below in
        // dependence order rather than through `code.ops`.
        def_table(code, &mut arena.def_of);
        arena.lats.clear();
        arena.lats.extend(code.ops.iter().map(|op| op.latency));
        let (def_of, lats) = (&arena.def_of[..], &arena.lats[..]);
        if let Some(g) = memory {
            // Each op's group of the consumer view is its register RAW
            // edges, then its memory edges as the prepared graph's group
            // holds them — what the stable grouping below would make of
            // the collected edges — so that view is written in order.
            let mut pred_edges = Vec::with_capacity(3 * n + g.edges().len());
            let mut pred_row = Vec::with_capacity(n + 1);
            pred_row.push(0);
            for (i, op) in code.ops.iter().enumerate() {
                pred_edges.extend(reg_raw(i, op, def_of, lats));
                if i < g.op_count() {
                    let memory = g.preds(i).iter().filter(|d| d.kind != DepKind::RegRaw);
                    pred_edges.extend(memory);
                }
                pred_row.push(u32::try_from(pred_edges.len()).expect("edge count fits u32"));
            }
            // The producer view in the collected order: register RAW
            // edges first, then memory edges, each consumer-major.
            let is_reg = |d: &&Dep| d.kind == DepKind::RegRaw;
            let collected = || {
                let reg = pred_edges.iter().filter(is_reg);
                reg.chain(pred_edges.iter().filter(|d| !is_reg(d)))
            };
            let (succ_edges, succ_row) = group(n, collected, |e| e.from, &mut arena.row_tmp);
            return complete(
                (pred_edges, pred_row),
                (succ_edges, succ_row),
                lats,
                (&mut arena.on_stack, &mut arena.dfs),
            );
        }

        // Collect every edge, in discovery order: register RAW first,
        // then memory edges array by array, producer-major in program
        // order. Every conflict of a memory op lies inside its own array
        // and the grouping below is stable, so each CSR group holds the
        // sequence the nested-Vec representation pushed.
        let edges = &mut arena.edge_buf;
        edges.clear();
        for (i, op) in code.ops.iter().enumerate() {
            edges.extend(reg_raw(i, op, def_of, lats));
        }

        // Memory ordering edges: each memory op against the partners
        // after it that it can meet within one iteration.
        arena.mem.fill(code);
        for (a, partners, before) in arena.mem.partners() {
            let later = &partners[before..];
            arena.counts.ddg_probes += later.len() as u64;
            for b in later.iter().filter(|b| a.distances(b).contains(0)) {
                let (kind, lat) = a.order(b, lats[a.op as usize]);
                edges.push(Dep {
                    from: a.op,
                    to: b.op,
                    lat,
                    kind,
                });
            }
        }

        assemble(
            n,
            &arena.edge_buf,
            lats,
            &mut arena.row_tmp,
            (&mut arena.on_stack, &mut arena.dfs),
        )
    }

    /// Rebuild a graph from an explicit edge list over `latencies.len()`
    /// ops (op `i` has result latency `latencies[i]`). Edges keep their
    /// input order within each CSR group. This is [`Ddg::build`] minus
    /// the dependence analysis — the round-trip partner of
    /// [`Ddg::edges`], used by the equivalence tests.
    ///
    /// # Panics
    /// Panics if the edge list contains a cycle or an out-of-range index.
    #[must_use]
    pub fn from_edges(latencies: &[u32], edges: &[Dep]) -> Self {
        with_arena(|arena| {
            assemble(
                latencies.len(),
                edges,
                latencies,
                &mut arena.row_tmp,
                (&mut arena.on_stack, &mut arena.dfs),
            )
        })
    }

    /// Number of ops the graph spans.
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.pred_row.len() - 1
    }

    /// Dependences into op `i` (its predecessors), in build order.
    #[must_use]
    pub fn preds(&self, i: usize) -> &[Dep] {
        &self.pred_edges[self.pred_row[i] as usize..self.pred_row[i + 1] as usize]
    }

    /// Dependences out of op `i` (its successors), in build order.
    #[must_use]
    pub fn succs(&self, i: usize) -> &[Dep] {
        &self.succ_edges[self.succ_row[i] as usize..self.succ_row[i + 1] as usize]
    }

    /// Number of predecessors of op `i`.
    #[must_use]
    pub fn pred_count(&self, i: usize) -> u32 {
        self.pred_row[i + 1] - self.pred_row[i]
    }

    /// Every edge, grouped by consumer — the order the old nested-`Vec`
    /// representation yielded from `preds.iter().flatten()`.
    #[must_use]
    pub fn edges(&self) -> &[Dep] {
        &self.pred_edges
    }

    /// The longest latency of any edge, 0 in a graph without edges.
    #[must_use]
    pub(crate) fn max_latency(&self) -> u32 {
        self.max_lat
    }

    /// The length in cycles of the longest dependence chain — a lower
    /// bound on any schedule, regardless of resources.
    #[must_use]
    pub fn critical_path(&self) -> u32 {
        self.height.iter().copied().max().unwrap_or(0)
    }
}

/// The order the schedulers rank ops in — height descending, index
/// ascending — as a counting sort: `place(slot, i)` is called for each
/// op `i` in index order with `slot`, its place in that order.
/// `buckets` is working memory.
pub(crate) fn height_order(
    height: &[u32],
    buckets: &mut Vec<u32>,
    mut place: impl FnMut(u32, u32),
) {
    let top = height.iter().copied().max().unwrap_or(0) as usize;
    buckets.clear();
    buckets.resize(top + 1, 0);
    for &h in height {
        buckets[top - h as usize] += 1;
    }
    let mut at = 0;
    for slot in buckets.iter_mut() {
        (*slot, at) = (at, at + *slot);
    }
    for (i, &h) in (0..).zip(height) {
        let slot = &mut buckets[top - h as usize];
        place(*slot, i);
        *slot += 1;
    }
}

/// Op `i`'s register RAW edges, in operand order, under the vreg →
/// defining op table `def_of` and result latencies `lats`.
fn reg_raw<'a>(
    i: usize,
    op: &'a SOp,
    def_of: &'a [u32],
    lats: &'a [u32],
) -> impl Iterator<Item = Dep> + 'a {
    let to = u32::try_from(i).expect("op count fits u32");
    op.uses.iter().filter_map(move |u| {
        let from = def_of[u.index()];
        (from != u32::MAX).then(|| Dep {
            from,
            to,
            lat: lats[from as usize],
            kind: DepKind::RegRaw,
        })
    })
}

/// Group `edges` into the two CSR views and compute heights. The
/// grouping is a stable counting sort, so edges sharing a consumer (or
/// producer) keep their input order.
fn assemble(
    n: usize,
    edges: &[Dep],
    lats: &[u32],
    row_tmp: &mut Vec<u32>,
    dfs: (&mut Vec<bool>, &mut Vec<(u32, u32, u32)>),
) -> Ddg {
    let pred = group(n, || edges.iter(), |e| e.to, row_tmp);
    let succ = group(n, || edges.iter(), |e| e.from, row_tmp);
    complete(pred, succ, lats, dfs)
}

/// The edges `edges()` yields grouped by `key`, and the `n + 1` group
/// offsets: a stable counting sort, so a group keeps the input order.
fn group<'a, I: Iterator<Item = &'a Dep>>(
    n: usize,
    edges: impl Fn() -> I,
    key: fn(&Dep) -> u32,
    row_tmp: &mut Vec<u32>,
) -> (Vec<Dep>, Vec<u32>) {
    let mut row = vec![0_u32; n + 1];
    for e in edges() {
        row[key(e) as usize + 1] += 1;
    }
    for i in 0..n {
        row[i + 1] += row[i];
    }
    // Scatter in input order through a cursor copy of the offsets —
    // this is what keeps each group stable.
    row_tmp.clear();
    row_tmp.extend_from_slice(&row[..n]);
    let filler = Dep {
        from: 0,
        to: 0,
        lat: 0,
        kind: DepKind::RegRaw,
    };
    let mut grouped = vec![filler; row[n] as usize];
    for e in edges() {
        let k = key(e) as usize;
        grouped[row_tmp[k] as usize] = *e;
        row_tmp[k] += 1;
    }
    (grouped, row)
}

/// The graph of two CSR views, its heights computed (op `i` has result
/// latency `lats[i]`).
fn complete(
    (pred_edges, pred_row): (Vec<Dep>, Vec<u32>),
    (succ_edges, succ_row): (Vec<Dep>, Vec<u32>),
    lats: &[u32],
    (on_stack, stack): (&mut Vec<bool>, &mut Vec<(u32, u32, u32)>),
) -> Ddg {
    let n = lats.len();
    // Critical-path heights, depth first: an op's height waits for its
    // successors'. Walked from the last op back, a graph whose edges run
    // forward finds every successor done and visits each edge once; a
    // move appended behind its readers is finished on demand by its
    // producer. Every height is at least 1, so 0 means "not yet". A
    // stack entry is an op, the next of its edges to look at and the
    // longest chain below it so far; a successor still on the stack
    // would close a cycle.
    let mut height = vec![0_u32; n];
    on_stack.clear();
    on_stack.resize(n, false);
    stack.clear();
    for root in (0..n).rev() {
        if height[root] != 0 {
            continue;
        }
        on_stack[root] = true;
        stack.push((root as u32, succ_row[root], 0));
        while let Some((u, at, below)) = stack.last_mut() {
            let ui = *u as usize;
            let end = succ_row[ui + 1];
            while *at < end {
                let d = succ_edges[*at as usize];
                let h = height[d.to as usize];
                if h == 0 {
                    break;
                }
                *below = (*below).max(d.lat + h);
                *at += 1;
            }
            if *at < end {
                let v = succ_edges[*at as usize].to;
                assert!(!on_stack[v as usize], "dependence graph must be acyclic");
                on_stack[v as usize] = true;
                stack.push((v, succ_row[v as usize], 0));
                continue;
            }
            // Edge latencies already include the producer's latency, so
            // a node's height is the longest chain hanging below it — or
            // its own completion time if it is a sink.
            height[ui] = lats[ui].max(1).max(*below);
            on_stack[ui] = false;
            stack.pop();
        }
    }

    Ddg {
        max_lat: pred_edges.iter().map(|d| d.lat).max().unwrap_or(0),
        pred_edges,
        pred_row,
        succ_edges,
        succ_row,
        height,
    }
}

/// Fill `def_of` as `code`'s vreg → defining op table (the IR is
/// single-assignment), `u32::MAX` where no op defines the vreg.
pub(crate) fn def_table(code: &LoopCode, def_of: &mut Vec<u32>) {
    def_of.clear();
    def_of.resize(code.vreg_limit as usize, u32::MAX);
    for (i, op) in code.ops.iter().enumerate() {
        if let Some(d) = op.def {
            def_of[d.index()] = u32::try_from(i).expect("op count fits u32");
        }
    }
}

/// A loop body's memory ops bucketed by array, as this graph's scan and
/// [`crate::modulo::omega_deps`]' loop-carried one both walk them.
#[derive(Debug, Default)]
pub(crate) struct MemBuckets {
    /// Every memory access, sorted by `(array, op)`: one bucket per
    /// array, program order inside it.
    mems: Vec<MemAccess>,
    /// The stores among `mems`, in the same order.
    stores: Vec<MemAccess>,
}

impl MemBuckets {
    /// Bucket `code`'s memory ops, reusing the buffers.
    pub(crate) fn fill(&mut self, code: &LoopCode) {
        self.mems.clear();
        self.mems
            .extend(code.ops.iter().enumerate().filter_map(|(i, op)| {
                let inst = op.inst.as_ref()?;
                let m = inst.mem()?;
                Some(MemAccess {
                    array: m.array.0,
                    op: u32::try_from(i).expect("op count fits u32"),
                    affine: m.is_affine().then_some((m.coeff, m.offset)),
                    store: inst.is_store(),
                })
            }));
        self.mems.sort_unstable_by_key(|m| (m.array, m.op));
        self.stores.clear();
        self.stores.extend(self.mems.iter().filter(|m| m.store));
    }

    /// Every memory op, array by array in program order, with its
    /// partners — every access of its array for a store, the array's
    /// stores for a load (loads never order against loads), program
    /// order kept — and how many of those come no later than it.
    pub(crate) fn partners(&self) -> impl Iterator<Item = (&MemAccess, &[MemAccess], usize)> {
        let mut stores = &self.stores[..];
        let runs = self.mems.chunk_by(|a, b| a.array == b.array);
        runs.flat_map(move |run| {
            let k = stores.partition_point(|s| s.array == run[0].array);
            let (own, rest) = stores.split_at(k);
            stores = rest;
            let mut stores_so_far = 0;
            run.iter().enumerate().map(move |(i, a)| {
                stores_so_far += usize::from(a.store);
                if a.store {
                    (a, run, i + 1)
                } else {
                    (a, own, stores_so_far)
                }
            })
        })
    }
}

/// One memory op as the ordering scans see it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemAccess {
    pub(crate) array: u32,
    pub(crate) op: u32,
    /// `(coeff, offset)` of the access function; `None` with a dynamic
    /// index, which may name any element.
    affine: Option<(i64, i64)>,
    pub(crate) store: bool,
}

/// The iteration distances `k` at which one access, in iteration `i`,
/// and another, in iteration `i + k`, can name the same element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Distances {
    Never,
    Exactly(i64),
    Every,
}

impl Distances {
    /// Whether the two can meet `k` iterations apart.
    fn contains(self, k: i64) -> bool {
        self == Distances::Every || self == Distances::Exactly(k)
    }

    /// The smallest distance ≥ 1 at which the two can meet — a carried
    /// edge's ω, saturated at `u32::MAX` (which no real II feels) — if any.
    pub(crate) fn first_carried(self) -> Option<u32> {
        match self {
            Distances::Never => None,
            Distances::Exactly(k) => (k >= 1).then(|| u32::try_from(k).unwrap_or(u32::MAX)),
            Distances::Every => Some(1),
        }
    }
}

impl MemAccess {
    /// The one memory-conflict rule: the distances at which this access
    /// and `other`, to the same array, can name the same element. With
    /// one stride `c` this access touches `c·i + oa` and `other`, `k`
    /// iterations later, `c·(i + k) + ob`: they meet iff `c·k = oa − ob`
    /// — at one distance, or at every distance for a fixed element
    /// (`c = 0`, equal offsets). Unequal strides (where
    /// `c1·i + o1 = c2·(i + k) + o2` has solutions) and dynamic indices
    /// are taken to meet at every distance.
    pub(crate) fn distances(&self, other: &MemAccess) -> Distances {
        match (self.affine, other.affine) {
            (Some((c, oa)), Some((cb, ob))) if c == cb => match (c, oa - ob) {
                (0, 0) => Distances::Every,
                (c, delta) if c != 0 && delta % c == 0 => Distances::Exactly(delta / c),
                _ => Distances::Never,
            },
            _ => Distances::Every,
        }
    }

    /// The kind and latency ([`DepKind`]) of the edge ordering this
    /// access before `later`, this op's result latency being `lat`.
    pub(crate) fn order(&self, later: &MemAccess, lat: u32) -> (DepKind, u32) {
        match (self.store, later.store) {
            (true, false) => (DepKind::MemRaw, lat),
            (false, _) => (DepKind::MemWar, 1),
            (true, true) => (DepKind::MemWaw, 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopcode::{FuClass, LoopCode};
    use crate::scratch::work_counts;
    use crate::testgen::memory_heavy;
    use cfp_frontend::compile_kernel;
    use cfp_ir::{Inst, Kernel};
    use cfp_kernels::Benchmark;
    use cfp_machine::{ArchSpec, MachineResources};

    /// Dependence between two memory ops in program order (`a` before `b`),
    /// or `None` when they provably never touch the same element in the same
    /// iteration.
    fn mem_dep_kind(a: &Inst, b: &Inst) -> Option<DepKind> {
        let (ma, mb) = (a.mem()?, b.mem()?);
        if ma.array != mb.array {
            return None;
        }
        let kind = match (a.is_store(), b.is_store()) {
            (false, false) => return None,
            (true, false) => DepKind::MemRaw,
            (false, true) => DepKind::MemWar,
            (true, true) => DepKind::MemWaw,
        };
        let may_conflict = if !ma.is_affine() || !mb.is_affine() {
            true
        } else if ma.coeff == mb.coeff {
            ma.offset == mb.offset
        } else {
            // Different strides on the same array: `c1·i + o1 = c2·i + o2`
            // has a solution for some iteration; be conservative.
            true
        };
        may_conflict.then_some(kind)
    }

    /// The graph as it was built before the per-array scan: every pair
    /// of memory ops examined, whatever their arrays. Kept as the
    /// reference [`Ddg::build`] must equal; also returns the pairs it
    /// visited.
    fn build_all_pairs(code: &LoopCode) -> (Ddg, u64) {
        let mut edges = Vec::new();
        let mut def_of = vec![u32::MAX; code.vreg_limit as usize];
        for (i, op) in code.ops.iter().enumerate() {
            if let Some(d) = op.def {
                def_of[d.index()] = i as u32;
            }
        }
        for (i, op) in code.ops.iter().enumerate() {
            for u in &op.uses {
                let p = def_of[u.index()];
                if p != u32::MAX {
                    edges.push(Dep {
                        from: p,
                        to: i as u32,
                        lat: code.ops[p as usize].latency,
                        kind: DepKind::RegRaw,
                    });
                }
            }
        }
        let mems = code.mem_ops();
        let mut pairs = 0;
        for (ai, &a) in mems.iter().enumerate() {
            for &b in &mems[ai + 1..] {
                pairs += 1;
                let (ia, ib) = (code.ops[a].inst.unwrap(), code.ops[b].inst.unwrap());
                let Some(kind) = mem_dep_kind(&ia, &ib) else {
                    continue;
                };
                let lat = match kind {
                    DepKind::MemRaw => code.ops[a].latency,
                    _ => 1,
                };
                edges.push(Dep {
                    from: a as u32,
                    to: b as u32,
                    lat,
                    kind,
                });
            }
        }
        let lats: Vec<u32> = code.ops.iter().map(|o| o.latency).collect();
        (Ddg::from_edges(&lats, &edges), pairs)
    }

    fn assert_equals_all_pairs(kernel: &Kernel, what: &str) -> u64 {
        let mut visited = 0;
        for spec in [
            ArchSpec::baseline(),
            ArchSpec::new(4, 2, 128, 1, 2, 1).unwrap(),
        ] {
            let code = LoopCode::build(kernel, &MachineResources::from_spec(&spec));
            let (reference, pairs) = build_all_pairs(&code);
            let before = work_counts().ddg_probes;
            assert_eq!(Ddg::build(&code), reference, "{what} {spec}");
            let fresh = Ddg::build_in(&code, None, &mut SchedScratch::default());
            assert_eq!(fresh, reference, "{what} {spec} fresh");
            assert!(work_counts().ddg_probes - before <= pairs, "{what} {spec}");
            visited += pairs;
        }
        visited
    }

    #[test]
    fn per_array_scan_equals_all_pairs_on_the_shipped_kernels() {
        let before = work_counts().ddg_probes;
        let mut all_pairs = 0;
        for b in Benchmark::ALL {
            let raw = b.kernel();
            let mut optimized = raw.clone();
            cfp_opt::optimize(&mut optimized);
            for u in [1, 2, 4, 8, 16] {
                for (k, state) in [(&raw, "raw"), (&optimized, "optimized")] {
                    let k = cfp_opt::unroll::unroll(k, u);
                    // The reference is quadratic in the memory ops; the
                    // deepest unrolls of the largest benchmarks are minutes.
                    if k.body.len() > 4000 {
                        continue;
                    }
                    all_pairs += assert_equals_all_pairs(&k, &format!("{b} x{u} {state}"));
                }
            }
        }
        let probes = work_counts().ddg_probes - before;
        assert!(probes * 2 <= all_pairs, "{probes} of {all_pairs} pairs");
    }

    #[test]
    fn per_array_scan_equals_all_pairs_on_memory_heavy_kernels() {
        cfp_testkit::cases(0xdd90_0001, 300, |rng| {
            let k = memory_heavy(rng);
            assert_equals_all_pairs(&k, "memory heavy");
            let k = cfp_opt::unroll::unroll(&k, 3);
            assert_equals_all_pairs(&k, "memory heavy x3");
        });
    }

    #[test]
    fn an_array_nothing_stores_to_is_never_scanned() {
        let lc = code_for(
            "kernel k(in u8 s[], out i32 d[]) {
                loop i { d[i] = s[i] + s[i+1] + s[i+2] + s[i+3]; }
            }",
        );
        let before = work_counts();
        let _ = Ddg::build(&lc);
        assert_eq!(work_counts(), before, "four loads, one lone store");
    }

    fn code_for(src: &str) -> LoopCode {
        let k = compile_kernel(src, &[]).unwrap();
        LoopCode::build(&k, &MachineResources::from_spec(&ArchSpec::baseline()))
    }

    #[test]
    fn raw_edges_carry_producer_latency() {
        let lc = code_for("kernel k(in u8 s[], out i32 d[]) { loop i { d[i] = s[i] * 3; } }");
        let g = Ddg::build(&lc);
        // Find the multiply; its predecessor is the load (latency 8 on the
        // baseline's L2).
        let mul = lc.ops.iter().position(|o| o.class == FuClass::Mul).unwrap();
        let raw: Vec<_> = g
            .preds(mul)
            .iter()
            .filter(|d| d.kind == DepKind::RegRaw)
            .collect();
        assert_eq!(raw.len(), 1);
        assert_eq!(raw[0].lat, 8);
    }

    #[test]
    fn independent_elements_have_no_memory_edges() {
        let lc = code_for(
            "kernel k(inout i32 b[], out i32 d[]) {
                loop i {
                    var x = b[2*i];
                    b[2*i + 1] = x;
                    d[i] = x;
                }
            }",
        );
        let g = Ddg::build(&lc);
        let mem_edges = g
            .edges()
            .iter()
            .filter(|d| d.kind != DepKind::RegRaw)
            .count();
        assert_eq!(mem_edges, 0, "offsets 0 and 1 never collide");
    }

    #[test]
    fn same_element_store_then_load_is_raw() {
        let lc = code_for(
            "kernel k(inout i32 b[], out i32 d[]) {
                loop i {
                    b[i] = 7;
                    d[i] = b[i];
                }
            }",
        );
        let g = Ddg::build(&lc);
        let raw = g
            .edges()
            .iter()
            .any(|d| d.kind == DepKind::MemRaw && d.lat == 8);
        assert!(raw);
    }

    #[test]
    fn load_then_store_same_element_is_war() {
        let lc = code_for(
            "kernel k(inout i32 b[], out i32 d[]) {
                loop i {
                    var x = b[i];
                    b[i] = x + 1;
                    d[i] = x;
                }
            }",
        );
        let g = Ddg::build(&lc);
        assert!(g
            .edges()
            .iter()
            .any(|d| d.kind == DepKind::MemWar && d.lat == 1));
    }

    #[test]
    fn dynamic_index_is_conservative() {
        let lc = code_for(
            "kernel k(in i32 idx[], inout i32 b[], out i32 d[]) {
                loop i {
                    b[idx[i] & 3] = i32(1);
                    d[i] = b[0];
                }
            }",
        );
        let g = Ddg::build(&lc);
        assert!(g.edges().iter().any(|d| d.kind == DepKind::MemRaw));
    }

    #[test]
    fn critical_path_is_a_lower_bound() {
        let lc =
            code_for("kernel k(in u8 s[], out i32 d[]) { loop i { d[i] = (s[i] * 3 + 1) * 5; } }");
        let g = Ddg::build(&lc);
        // ld(8) + mul(2) + add(1) + mul(2) + st issues → ≥ 13.
        assert!(g.critical_path() >= 13, "{}", g.critical_path());
    }

    #[test]
    fn csr_round_trips_through_its_edge_list() {
        let lc = code_for(
            "kernel k(in u8 s[], inout i32 b[], out i32 d[]) {
                loop i {
                    var x = b[i];
                    b[i] = x + s[i];
                    d[i] = x * 3;
                }
            }",
        );
        let g = Ddg::build(&lc);
        let lats: Vec<u32> = lc.ops.iter().map(|o| o.latency).collect();
        let rebuilt = Ddg::from_edges(&lats, g.edges());
        // The consumer-grouped view and the heights round-trip exactly.
        assert_eq!(rebuilt.edges(), g.edges());
        assert_eq!(rebuilt.height, g.height);
        for i in 0..g.op_count() {
            assert_eq!(rebuilt.preds(i), g.preds(i), "op {i}");
        }
        // The producer-grouped views agree as multisets; within a group
        // the rebuilt order may differ (input order was consumer-grouped)
        // — no consumer of `succs` is order-sensitive.
        let key = |d: &Dep| (d.from, d.to, d.lat);
        for view in [&g, &rebuilt] {
            let mut by_succ: Vec<Dep> = (0..view.op_count())
                .flat_map(|i| view.succs(i))
                .copied()
                .collect();
            let mut by_pred: Vec<Dep> = view.edges().to_vec();
            by_succ.sort_unstable_by_key(key);
            by_pred.sort_unstable_by_key(key);
            assert_eq!(by_succ, by_pred);
        }
    }

    #[test]
    fn a_warmed_arena_builds_identical_graphs() {
        let sources = [
            "kernel k(in u8 s[], out i32 d[]) { loop i { d[i] = s[i] * 3; } }",
            "kernel k(inout i32 b[], out i32 d[]) {
                loop i { b[i] = 7; d[i] = b[i]; }
            }",
        ];
        for src in sources {
            let lc = code_for(src);
            assert_eq!(
                Ddg::build(&lc),
                Ddg::build_in(&lc, None, &mut SchedScratch::default()),
                "{src}"
            );
        }
    }

    #[test]
    fn heights_are_longest_chains_whatever_the_index_order() {
        // Random DAGs under a random renumbering, so edges run backward
        // as well as forward (as a move appended behind its readers
        // does), against heights relaxed to a fixed point.
        cfp_testkit::cases(0xdd90_0037, 200, |rng| {
            let n = 1 + rng.index(40);
            let mut name: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                name.swap(i, rng.index(i + 1));
            }
            let mut edges = Vec::new();
            for to in 1..n {
                for _ in 0..rng.index(4) {
                    edges.push(Dep {
                        from: name[rng.index(to)],
                        to: name[to],
                        lat: rng.range_u32(1..=9),
                        kind: DepKind::RegRaw,
                    });
                }
            }
            let lats: Vec<u32> = rng.vec_of(n, |r| r.range_u32(0..=8));
            let mut reference: Vec<u32> = lats.iter().map(|&l| l.max(1)).collect();
            loop {
                let before = reference.clone();
                for d in &edges {
                    let chain = d.lat + reference[d.to as usize];
                    let h = &mut reference[d.from as usize];
                    *h = (*h).max(chain);
                }
                if before == reference {
                    break;
                }
            }
            assert_eq!(Ddg::from_edges(&lats, &edges).height, reference);
        });
    }

    #[test]
    #[should_panic(expected = "acyclic")]
    fn a_cycle_is_refused() {
        let dep = |from, to| Dep {
            from,
            to,
            lat: 1,
            kind: DepKind::RegRaw,
        };
        let _ = Ddg::from_edges(&[1, 1, 1], &[dep(0, 1), dep(1, 2), dep(2, 1)]);
    }
}
