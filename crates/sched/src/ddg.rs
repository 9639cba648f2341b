//! Data-dependence graph over a [`LoopCode`].
//!
//! Register dependences are pure RAW (the IR is single-assignment within
//! an iteration). Memory dependences use the affine access functions:
//! two references to the *same array* conflict within an iteration only
//! if their access functions can name the same element at the same
//! iteration index — for equal strides that means equal offsets; for
//! unequal strides or any dynamic index we are conservative. Arrays never
//! alias each other. Cross-iteration memory ordering is guaranteed by the
//! loop barrier (iterations do not overlap in the non-pipelined schedule).
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

use crate::loopcode::LoopCode;
use crate::scratch::SchedScratch;
use cfp_ir::Inst;

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
}

impl Ddg {
    /// Build the graph.
    #[must_use]
    pub fn build(code: &LoopCode) -> Self {
        Self::build_in(code, None, &mut SchedScratch::new())
    }

    /// [`Ddg::build`] using `scratch` for every intermediate buffer, so a
    /// sweep that builds many graphs allocates only the graphs themselves.
    ///
    /// `memory`, when given, is a graph whose code has `code`'s memory
    /// ops at the same indices — the pre-assignment graph of code that
    /// cluster assignment only appended moves to and renamed operands in —
    /// and its memory edges are copied instead of rescanned. They come out
    /// of it grouped by consumer, producers ascending; each memory op's
    /// conflicts lie in its own array, so after the stable grouping below
    /// every CSR group holds the sequence the scan would have pushed.
    #[must_use]
    pub fn build_in(code: &LoopCode, memory: Option<&Ddg>, scratch: &mut SchedScratch) -> Self {
        let n = code.ops.len();

        // Collect every edge, in discovery order: register RAW first,
        // then memory edges array by array, producer-major in program
        // order. Every conflict of a memory op lies inside its own array
        // and the grouping below is stable, so each CSR group holds the
        // sequence the nested-Vec representation pushed.
        let edges = &mut scratch.edge_buf;
        edges.clear();

        // Register RAW edges. `def_of` is a vreg-indexed table (the IR is
        // single-assignment, so last-write-wins insertion is moot).
        let def_of = &mut scratch.def_of;
        def_of.clear();
        def_of.resize(code.vreg_limit as usize, u32::MAX);
        for (i, op) in code.ops.iter().enumerate() {
            if let Some(d) = op.def {
                def_of[d.index()] = u32::try_from(i).expect("op count fits u32");
            }
        }
        for (i, op) in code.ops.iter().enumerate() {
            for u in &op.uses {
                let p = def_of[u.index()];
                if p != u32::MAX {
                    edges.push(Dep {
                        from: p,
                        to: u32::try_from(i).expect("op count fits u32"),
                        lat: code.ops[p as usize].latency,
                        kind: DepKind::RegRaw,
                    });
                }
            }
        }

        if let Some(g) = memory {
            edges.extend(g.edges().iter().filter(|d| d.kind != DepKind::RegRaw));
        } else {
            // Memory ordering edges, pairwise per array. Sorting by
            // `(array, op index)` buckets the memory ops by array with
            // program order kept inside each bucket.
            let (mems, stores) = (&mut scratch.mems_tmp, &mut scratch.stores_tmp);
            mems.clear();
            mems.extend(
                code.ops
                    .iter()
                    .enumerate()
                    .filter_map(|(i, op)| MemAccess::of(i, op.inst.as_ref()?)),
            );
            mems.sort_unstable_by_key(|m| (m.array, m.op));
            for run in mems.chunk_by(|a, b| a.array == b.array) {
                stores.clear();
                stores.extend(run.iter().filter(|m| m.store));
                // Loads never order against loads: a load pairs only with
                // the stores after it (none, in an array nothing stores
                // to); a store pairs with every later access.
                let mut next_store = 0;
                for (ai, a) in run.iter().enumerate() {
                    let later = if a.store {
                        next_store += 1;
                        &run[ai + 1..]
                    } else {
                        &stores[next_store..]
                    };
                    scratch.ddg_probes += later.len() as u64;
                    for b in later.iter().filter(|b| a.may_conflict(b)) {
                        let (kind, lat) = match (a.store, b.store) {
                            (true, false) => (DepKind::MemRaw, code.ops[a.op as usize].latency),
                            (false, _) => (DepKind::MemWar, 1),
                            (true, true) => (DepKind::MemWaw, 1),
                        };
                        edges.push(Dep {
                            from: a.op,
                            to: b.op,
                            lat,
                            kind,
                        });
                    }
                }
            }
        }

        let latency_of = |i: usize| code.ops[i].latency;
        assemble(
            n,
            &scratch.edge_buf,
            latency_of,
            &mut scratch.row_tmp,
            (&mut scratch.indeg, &mut scratch.topo),
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
        let mut scratch = SchedScratch::new();
        assemble(
            latencies.len(),
            edges,
            |i| latencies[i],
            &mut scratch.row_tmp,
            (&mut scratch.indeg, &mut scratch.topo),
        )
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

    /// The length in cycles of the longest dependence chain — a lower
    /// bound on any schedule, regardless of resources.
    #[must_use]
    pub fn critical_path(&self) -> u32 {
        self.height.iter().copied().max().unwrap_or(0)
    }
}

/// Group `edges` into the two CSR views and compute heights. The
/// grouping is a stable counting sort, so edges sharing a consumer (or
/// producer) keep their input order.
fn assemble(
    n: usize,
    edges: &[Dep],
    latency_of: impl Fn(usize) -> u32,
    row_tmp: &mut Vec<u32>,
    (indeg, topo): (&mut Vec<u32>, &mut Vec<u32>),
) -> Ddg {
    let m = edges.len();
    let filler = Dep {
        from: 0,
        to: 0,
        lat: 0,
        kind: DepKind::RegRaw,
    };

    let group = |key: fn(&Dep) -> u32, row_tmp: &mut Vec<u32>| -> (Vec<Dep>, Vec<u32>) {
        let mut row = vec![0_u32; n + 1];
        for e in edges {
            row[key(e) as usize + 1] += 1;
        }
        for i in 0..n {
            row[i + 1] += row[i];
        }
        // Scatter in input order through a cursor copy of the offsets —
        // this is what keeps each group stable.
        row_tmp.clear();
        row_tmp.extend_from_slice(&row[..n]);
        let mut grouped = vec![filler; m];
        for e in edges {
            let k = key(e) as usize;
            grouped[row_tmp[k] as usize] = *e;
            row_tmp[k] += 1;
        }
        (grouped, row)
    };

    let (pred_edges, pred_row) = group(|e| e.to, row_tmp);
    let (succ_edges, succ_row) = group(|e| e.from, row_tmp);

    // Critical-path heights over a reverse topological order (the graph
    // is acyclic: register RAW edges follow single-assignment order and
    // memory edges follow program order).
    indeg.clear();
    indeg.reserve(n);
    for i in 0..n {
        indeg.push(pred_row[i + 1] - pred_row[i]);
    }
    // `row_tmp` is free again after the grouping; it serves as the stack.
    row_tmp.clear();
    row_tmp.extend((0..n).filter(|&i| indeg[i] == 0).map(|i| i as u32));
    topo.clear();
    while let Some(i) = row_tmp.pop() {
        topo.push(i);
        for e in &succ_edges[succ_row[i as usize] as usize..succ_row[i as usize + 1] as usize] {
            indeg[e.to as usize] -= 1;
            if indeg[e.to as usize] == 0 {
                row_tmp.push(e.to);
            }
        }
    }
    assert_eq!(topo.len(), n, "dependence graph must be acyclic");

    let mut height = vec![0_u32; n];
    for &i in topo.iter().rev() {
        let i = i as usize;
        let below = succ_edges[succ_row[i] as usize..succ_row[i + 1] as usize]
            .iter()
            .map(|d| d.lat + height[d.to as usize])
            .max()
            .unwrap_or(0);
        // Edge latencies already include the producer's latency, so a
        // node's height is the longest chain hanging below it — or its
        // own completion time if it is a sink.
        height[i] = latency_of(i).max(1).max(below);
    }

    Ddg {
        pred_edges,
        pred_row,
        succ_edges,
        succ_row,
        height,
    }
}

/// One memory op as the ordering scans see it (this graph's and the
/// loop-carried one of [`crate::modulo::omega_deps`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemAccess {
    pub(crate) array: u32,
    pub(crate) op: u32,
    /// `(coeff, offset)` of the access function; `None` with a dynamic
    /// index, which may name any element.
    pub(crate) affine: Option<(i64, i64)>,
    pub(crate) store: bool,
}

impl MemAccess {
    /// Op `op`'s access, decoded from its instruction; `None` when the
    /// instruction touches no memory.
    pub(crate) fn of(op: usize, inst: &Inst) -> Option<Self> {
        let m = inst.mem()?;
        Some(MemAccess {
            array: m.array.0,
            op: u32::try_from(op).expect("op count fits u32"),
            affine: m.is_affine().then_some((m.coeff, m.offset)),
            store: inst.is_store(),
        })
    }

    /// Whether two accesses to one array can name the same element in
    /// the same iteration: equal strides collide only at equal offsets;
    /// unequal strides (`c1·i + o1 = c2·i + o2` has a solution for some
    /// iteration) and dynamic indices are taken to collide.
    fn may_conflict(&self, other: &MemAccess) -> bool {
        match (self.affine, other.affine) {
            (Some((ca, oa)), Some((cb, ob))) => ca != cb || oa == ob,
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopcode::{FuClass, LoopCode};
    use crate::testgen::memory_heavy;
    use cfp_frontend::compile_kernel;
    use cfp_ir::Kernel;
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

    fn assert_equals_all_pairs(kernel: &Kernel, scratch: &mut SchedScratch, what: &str) -> u64 {
        let mut visited = 0;
        for spec in [
            ArchSpec::baseline(),
            ArchSpec::new(4, 2, 128, 1, 2, 1).unwrap(),
        ] {
            let code = LoopCode::build(kernel, &MachineResources::from_spec(&spec));
            let (reference, pairs) = build_all_pairs(&code);
            let before = scratch.ddg_probes();
            assert_eq!(
                Ddg::build_in(&code, None, scratch),
                reference,
                "{what} {spec}"
            );
            assert_eq!(Ddg::build(&code), reference, "{what} {spec} fresh");
            assert!(scratch.ddg_probes() - before <= pairs, "{what} {spec}");
            visited += pairs;
        }
        visited
    }

    #[test]
    fn per_array_scan_equals_all_pairs_on_the_shipped_kernels() {
        let mut scratch = SchedScratch::new();
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
                    all_pairs +=
                        assert_equals_all_pairs(&k, &mut scratch, &format!("{b} x{u} {state}"));
                }
            }
        }
        assert!(
            scratch.ddg_probes() * 2 <= all_pairs,
            "{} of {all_pairs} pairs",
            scratch.ddg_probes()
        );
    }

    #[test]
    fn per_array_scan_equals_all_pairs_on_memory_heavy_kernels() {
        cfp_testkit::cases(0xdd90_0001, 300, |rng| {
            let mut scratch = SchedScratch::new();
            let k = memory_heavy(rng);
            assert_equals_all_pairs(&k, &mut scratch, "memory heavy");
            let k = cfp_opt::unroll::unroll(&k, 3);
            assert_equals_all_pairs(&k, &mut scratch, "memory heavy x3");
        });
    }

    #[test]
    fn an_array_nothing_stores_to_is_never_scanned() {
        let lc = code_for(
            "kernel k(in u8 s[], out i32 d[]) {
                loop i { d[i] = s[i] + s[i+1] + s[i+2] + s[i+3]; }
            }",
        );
        let mut scratch = SchedScratch::new();
        let _ = Ddg::build_in(&lc, None, &mut scratch);
        assert_eq!(scratch.ddg_probes(), 0, "four loads, one lone store");
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
    fn scratch_reuse_builds_identical_graphs() {
        let sources = [
            "kernel k(in u8 s[], out i32 d[]) { loop i { d[i] = s[i] * 3; } }",
            "kernel k(inout i32 b[], out i32 d[]) {
                loop i { b[i] = 7; d[i] = b[i]; }
            }",
        ];
        let mut scratch = SchedScratch::new();
        for src in sources {
            let lc = code_for(src);
            assert_eq!(
                Ddg::build_in(&lc, None, &mut scratch),
                Ddg::build(&lc),
                "{src}"
            );
        }
    }
}
