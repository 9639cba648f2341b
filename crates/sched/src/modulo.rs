//! Modulo scheduling (software pipelining) — an ablation scheduler.
//!
//! The paper's compiler line (Multiflow trace scheduling) ran loops
//! unrolled with a barrier at the back edge, which is exactly what
//! [`crate::list`] models. Software pipelining overlaps iterations
//! instead, initiating one every *II* cycles. This module implements a
//! simplified iterative modulo scheduler (after Rau) so the repository
//! can quantify what the barrier discipline costs on each benchmark and
//! machine:
//!
//! * recurrence-bound kernels (Floyd–Steinberg's error chain) gain
//!   almost nothing — their II is the dependence cycle;
//! * resource-bound kernels (color conversion, median) collapse to the
//!   resource bound, shedding the latency-drain tail the barrier pays.
//!
//! Everything about a point that does not depend on the II — the
//! dependence set with its iteration distances, each op's reservation
//! requirements, ResMII, RecMII and the placement order — is derived
//! once, by [`PipelineProblem::new`]. The heuristic search
//! ([`PipelineProblem::schedule`]), the structural validator
//! ([`PipelineProblem::validate`]) and the exact certifier in
//! [`crate::exact`] all borrow that one value; the free functions
//! ([`modulo_schedule`], [`try_modulo_schedule`], [`validate_modulo`])
//! are constructions of it for callers that ask one question of a point.
//!
//! The II search starts at `max(ResMII, RecMII)` and walks upward, but it
//! does not walk blindly: ops are placed in a fixed order — Kahn's
//! topological order over the same-iteration dependences, smallest op
//! index first among the ready ops, which is plain index order except
//! where cluster assignment appended an inter-cluster move behind its
//! reader — so the per-resource demand of the prefix up to a failed
//! placement is the same at every II. That demand is carried out of the
//! failed attempt and turned into a capacity bound — any II with
//! `units × II < demand` must fail the same way — letting the search
//! jump straight past provably infeasible IIs instead of probing each
//! one (port-starved machines used to scan hundreds).
//! [`ModuloSchedule::ii_attempts`] reports how many IIs were actually
//! attempted. Within an attempt an op takes the first slot of its
//! window that has room. Each reservation row keeps a bitmap of its full
//! residues, so the first fit is word-parallel: the op's rows, rotated
//! across each reserved window, OR into one mask of blocked residues,
//! and the slot is its first clear bit from `est mod II` on. Fuel is
//! charged per candidate slot of an attempted II as if each had been
//! probed in turn — the price of a search is that of the
//! one-slot-at-a-time scan — and skipped IIs cost nothing (the found
//! schedule is identical, and the modulo scheduler is off the
//! exploration's budgeted path).
//!
//! Scope: this is an *analytical* scheduler. Its output is validated
//! structurally (every dependence satisfies
//! `slot(to) ≥ slot(from) + lat − II·ω`, no modulo resource is
//! oversubscribed, and a register-pressure estimate accounts for
//! lifetimes spanning `⌈L/II⌉` in-flight instances) — it is not executed
//! by the cycle-accurate simulator, which models the barrier machine.
//! See `EXPERIMENTS.md` ("pipelining" exhibit).

use crate::cluster::Assignment;
use crate::ddg::{Ddg, MemAccess};
use crate::error::{Fuel, SchedError};
use crate::loopcode::LoopCode;
use crate::scratch::SchedScratch;
pub use cfp_machine::ResReq;
use cfp_machine::{MachineResources, UnitClass};
use cfp_obs::{Stage, UnitTrace, Value};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A dependence with an iteration distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OmegaDep {
    /// Producer op.
    pub from: usize,
    /// Consumer op.
    pub to: usize,
    /// Latency.
    pub lat: u32,
    /// Iteration distance (0 = same iteration).
    pub omega: u32,
}

impl OmegaDep {
    /// Whether `slots` satisfies the dependence at initiation interval
    /// `ii`: `slot(to) ≥ slot(from) + lat − II·ω`.
    pub(crate) fn holds(&self, ii: u32, slots: &[u32]) -> bool {
        i64::from(slots[self.to])
            >= i64::from(slots[self.from]) + i64::from(self.lat)
                - i64::from(ii) * i64::from(self.omega)
    }
}

/// The result of modulo scheduling.
#[derive(Debug, Clone)]
pub struct ModuloSchedule {
    /// Achieved initiation interval.
    pub ii: u32,
    /// Flat slot of each op (stage = slot / ii, modulo slot = slot % ii).
    pub slots: Vec<u32>,
    /// The lower bound `max(ResMII, RecMII)` the search started from.
    pub mii: u32,
    /// Estimated registers needed per cluster, counting `⌈L/II⌉`
    /// overlapping instances per value.
    pub pressure_estimate: Vec<u32>,
    /// Candidate IIs actually attempted (provably infeasible IIs are
    /// skipped by the capacity bound and not counted).
    pub ii_attempts: u32,
}

impl ModuloSchedule {
    /// Number of pipeline stages.
    #[must_use]
    pub fn stages(&self) -> u32 {
        self.slots
            .iter()
            .map(|&s| s / self.ii + 1)
            .max()
            .unwrap_or(1)
    }
}

/// Build the full dependence set: the intra-iteration graph plus
/// loop-carried register edges (carried pairs, ω = 1) and loop-carried
/// memory edges (affine distance on same-array conflicts; conservative
/// ω = 1 for non-affine references).
#[must_use]
pub fn omega_deps(code: &LoopCode, ddg: &Ddg) -> Vec<OmegaDep> {
    let mut deps: Vec<OmegaDep> = ddg
        .edges()
        .iter()
        .map(|d| OmegaDep {
            from: d.from as usize,
            to: d.to as usize,
            lat: d.lat,
            omega: 0,
        })
        .collect();

    // Carried register values: producer of `out` feeds every reader of
    // `in` one iteration later. One pass over the ops lists each carried
    // input's readers, grouped by input, ascending within a group.
    const NO_OP: usize = usize::MAX;
    let vregs = code.vreg_limit as usize;
    let mut def_of = vec![NO_OP; vregs];
    for (i, op) in code.ops.iter().enumerate() {
        if let Some(d) = op.def {
            def_of[d.index()] = i;
        }
    }
    let mut carried_in = vec![false; vregs];
    for &(inp, _) in &code.carried {
        carried_in[inp.index()] = true;
    }
    let mut readers: Vec<(u32, usize)> = Vec::new();
    for (i, op) in code.ops.iter().enumerate() {
        for (k, u) in op.uses.iter().enumerate() {
            // An op reading the input twice is one reader.
            if carried_in[u.index()] && !op.uses[..k].contains(u) {
                readers.push((u.0, i));
            }
        }
    }
    readers.sort_by_key(|&(v, _)| v); // stable: readers stay ascending
    for &(inp, out) in &code.carried {
        let producer = def_of[out.index()];
        if producer == NO_OP {
            continue; // pass-through carry: no producer op
        }
        let first = readers.partition_point(|&(v, _)| v < inp.0);
        for &(_, to) in readers[first..].iter().take_while(|&&(v, _)| v == inp.0) {
            deps.push(OmegaDep {
                from: producer,
                to,
                lat: code.ops[producer].latency,
                omega: 1,
            });
        }
    }

    // Loop-carried memory dependences: same array, conflicting elements
    // k iterations apart. Each memory op is decoded once; a store pairs
    // with every access of its array, a load with the array's stores,
    // both in program order — the pairs, and the order, of a scan over
    // every ordered pair of memory ops.
    let mems: Vec<MemAccess> = code
        .mem_ops()
        .into_iter()
        .map(|i| {
            let inst = code.ops[i].inst.as_ref().expect("mem ops carry insts");
            MemAccess::of(i, inst).expect("mem")
        })
        .collect();
    let mut by_array = mems.clone();
    by_array.sort_by_key(|m| m.array); // stable: program order per array
    let stores: Vec<MemAccess> = by_array.iter().copied().filter(|m| m.store).collect();
    let of_array = |list: &'_ [MemAccess], array: u32| -> std::ops::Range<usize> {
        list.partition_point(|m| m.array < array)..list.partition_point(|m| m.array <= array)
    };
    for a in &mems {
        let partners = if a.store {
            &by_array[of_array(&by_array, a.array)]
        } else {
            &stores[of_array(&stores, a.array)]
        };
        for b in partners {
            let omega = match (a.affine, b.affine) {
                (Some((coeff, oa)), Some((cb, ob))) if coeff == cb => {
                    if coeff == 0 {
                        continue; // same fixed element: intra edges cover it
                    }
                    // a at iteration i touches coeff·i + oa; b at
                    // iteration i+k touches coeff·(i+k) + ob: conflict
                    // iff coeff·k = oa − ob.
                    let delta = oa - ob;
                    if delta % coeff != 0 {
                        continue;
                    }
                    let k = delta / coeff;
                    if k <= 0 {
                        continue; // same-iteration (intra) or b-before-a direction
                    }
                    // A distance beyond u32 never constrains a real II;
                    // saturate instead of trusting the cast.
                    u32::try_from(k).unwrap_or(u32::MAX)
                }
                // Differing strides or a dynamic index: conservative.
                _ => 1,
            };
            let lat = if a.store && !b.store {
                code.ops[a.op as usize].latency // RAW across iterations
            } else {
                1 // WAR/WAW ordering
            };
            deps.push(OmegaDep {
                from: a.op as usize,
                to: b.op as usize,
                lat,
                omega,
            });
        }
    }
    deps
}

/// The resource-constrained lower bound on II: per row of the machine's
/// reservation table ([`cfp_machine::Mdes::reservations`]), the busy
/// cycles its ops reserve over the row's units. A barrier schedule is a
/// modulo schedule at II = its length, so this also bounds every list
/// schedule's length from below — the list portfolio stops on it
/// ([`crate::list::try_schedule_in`]). Rows with no units are skipped:
/// an op that needs one has no II at all, which
/// [`PipelineProblem::exact_mii`] reports.
#[must_use]
pub fn res_mii(code: &LoopCode, assignment: &Assignment, machine: &MachineResources) -> u32 {
    res_mii_in(code, assignment, machine, &mut SchedScratch::new())
}

/// [`res_mii`] with its per-row counts in `scratch`, so the list
/// portfolio's hot path allocates nothing.
#[must_use]
pub(crate) fn res_mii_in(
    code: &LoopCode,
    assignment: &Assignment,
    machine: &MachineResources,
    scratch: &mut SchedScratch,
) -> u32 {
    let busy = &mut scratch.res_busy;
    busy.clear();
    busy.resize(UnitClass::ALL.len() * machine.cluster_count(), 0);
    for (op, &c) in code.ops.iter().zip(&assignment.cluster_of_op) {
        for r in machine.mdes.reservations(op.class, c as usize) {
            busy[r.row as usize] += r.reserved;
        }
    }
    bound_of_rows(machine.mdes.row_units(), busy)
}

/// The ResMII of per-row reserved cycles `busy` over the rows' unit
/// counts, rows with no units skipped.
fn bound_of_rows(row_units: impl IntoIterator<Item = u32>, busy: &[u32]) -> u32 {
    row_units
        .into_iter()
        .zip(busy)
        .filter(|&(units, _)| units > 0)
        .fold(1, |bound, (units, &cycles)| {
            bound.max(cycles.div_ceil(units))
        })
}

/// The recurrence-constrained lower bound on II: the smallest II such
/// that no dependence cycle has positive slack deficit, found by binary
/// search with a longest-path feasibility check.
///
/// Feasibility at an II is exactly "no cycle of positive total weight
/// `lat − II·ω`", and every cycle lies inside one strongly-connected
/// component of the dependence set. So the check relaxes only the edges
/// inside cyclic components (Tarjan's algorithm, once per call),
/// each component bounded by its own node count — on real loop code a
/// small fraction of the graph — and a dependence set with no cycle at
/// all answers 1 without a single relaxation.
///
/// Two edge cases are pinned down because the exact-II oracle's
/// distance bounds lean on this value being a *true* bound:
///
/// * a positive-latency cycle whose total iteration distance is zero
///   (an ω = 0 cycle) is infeasible at **every** II — the sentinel
///   `u32::MAX` is returned instead of a doubling artifact (such
///   cycles cannot arise from [`omega_deps`], whose carried edges all
///   have ω ≥ 1, but callers may probe arbitrary dependence sets);
/// * an extreme `hi_hint` saturates instead of overflowing the
///   doubling search.
///
/// `hi_hint` only seeds the search; the result does not depend on it.
#[must_use]
pub fn rec_mii(n_ops: usize, deps: &[OmegaDep], hi_hint: u32) -> u32 {
    let components = recurrences(n_ops, deps);
    if components.is_empty() {
        return 1; // no dependence cycle constrains the II
    }
    let mut dist = Vec::new();
    let mut feasible = |ii: u32| components.iter().all(|c| c.feasible(ii, &mut dist));
    let mut lo = 1_u32;
    let mut hi = hi_hint.max(2);
    while !feasible(hi) {
        if hi == u32::MAX {
            return u32::MAX; // an ω = 0 cycle: no II is feasible
        }
        // Saturate rather than wrap on extreme hints; past the
        // practical range jump straight to the sentinel check, and let
        // the binary search below recover the true bound when one
        // exists up there.
        hi = if hi > (1 << 20) {
            u32::MAX
        } else {
            hi.saturating_mul(2)
        };
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if feasible(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    hi
}

/// One cyclic strongly-connected component of a dependence set: the
/// edges with both ends inside it, renumbered to its own `0..nodes`.
struct Recurrence {
    nodes: usize,
    edges: Vec<OmegaDep>,
}

impl Recurrence {
    /// Whether no cycle of the component has positive total weight
    /// `lat − II·ω`: bounded Bellman–Ford relaxation of longest paths
    /// from every node at once. A longest path without a positive cycle
    /// has fewer than `nodes` edges, so a round that still relaxes after
    /// `nodes` of them has found one.
    fn feasible(&self, ii: u32, dist: &mut Vec<i64>) -> bool {
        dist.clear();
        dist.resize(self.nodes, 0);
        for _round in 0..self.nodes {
            let mut changed = false;
            for d in &self.edges {
                // Saturating: the sentinel II probe times a saturated
                // carried-memory distance exceeds i64 — such an edge is
                // simply "infinitely slack", which saturation preserves.
                let w = i64::from(d.lat)
                    .saturating_sub(i64::from(ii).saturating_mul(i64::from(d.omega)));
                let relaxed = dist[d.from].saturating_add(w);
                if relaxed > dist[d.to] {
                    dist[d.to] = relaxed;
                    changed = true;
                }
            }
            if !changed {
                return true;
            }
        }
        false
    }
}

/// The cyclic strongly-connected components of `deps` over `n` ops
/// (Tarjan's algorithm, iterative so a long dependence chain cannot
/// overflow the stack). A component is cyclic when it holds an edge:
/// two or more ops, or one op with a self-dependence.
fn recurrences(n: usize, deps: &[OmegaDep]) -> Vec<Recurrence> {
    const UNSET: u32 = u32::MAX;
    // The edges grouped by producer (CSR).
    let mut row = vec![0_usize; n + 1];
    for d in deps {
        row[d.from + 1] += 1;
    }
    for i in 0..n {
        row[i + 1] += row[i];
    }
    let mut by_from = deps.to_vec();
    let mut cursor = row.clone();
    for d in deps {
        by_from[cursor[d.from]] = *d;
        cursor[d.from] += 1;
    }

    let mut index = vec![UNSET; n]; // discovery number
    let mut low = vec![0_u32; n];
    let mut comp = vec![UNSET; n]; // component number, once popped
    let mut local = vec![0_usize; n]; // position inside its component
    let mut stack: Vec<usize> = Vec::new();
    let mut work: Vec<(usize, usize)> = Vec::new(); // (op, next out-edge)
    let (mut discovered, mut comps) = (0_u32, 0_u32);
    let mut out = Vec::new();
    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        work.push((root, row[root]));
        while let Some(&(v, at)) = work.last() {
            if index[v] == UNSET {
                index[v] = discovered;
                low[v] = discovered;
                discovered += 1;
                stack.push(v);
            }
            if at < row[v + 1] {
                work.last_mut().expect("just read").1 += 1;
                let w = by_from[at].to;
                if index[w] == UNSET {
                    work.push((w, row[w]));
                } else if comp[w] == UNSET {
                    low[v] = low[v].min(index[w]); // w is on the stack
                }
                continue;
            }
            work.pop();
            if let Some(&(parent, _)) = work.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] != index[v] {
                continue;
            }
            // `v` roots a component: everything above it on the stack.
            let first = stack
                .iter()
                .rposition(|&m| m == v)
                .expect("a root is on the stack");
            for (k, &m) in stack[first..].iter().enumerate() {
                comp[m] = comps;
                local[m] = k;
            }
            let edges: Vec<OmegaDep> = stack[first..]
                .iter()
                .flat_map(|&m| &by_from[row[m]..row[m + 1]])
                .filter(|d| comp[d.to] == comps)
                .map(|d| OmegaDep {
                    from: local[d.from],
                    to: local[d.to],
                    ..*d
                })
                .collect();
            if !edges.is_empty() {
                out.push(Recurrence {
                    nodes: stack.len() - first,
                    edges,
                });
            }
            stack.truncate(first);
            comps += 1;
        }
    }
    out
}

/// Each op's rows of the machine's reservation table at its assigned
/// cluster ([`cfp_machine::Mdes::reservations`]): what the heuristic's
/// placement probes, the validator and the exact solver in
/// [`crate::exact`] reserve, modulo the II.
fn op_reservations(assignment: &Assignment, machine: &MachineResources) -> Vec<Vec<ResReq>> {
    let code = &assignment.code;
    code.ops
        .iter()
        .zip(&assignment.cluster_of_op)
        .map(|(op, &c)| machine.mdes.reservations(op.class, c as usize).collect())
        .collect()
}

/// Structural validator for a modulo schedule at initiation interval
/// `ii`: every dependence satisfies `slot(to) ≥ slot(from) + lat − II·ω`
/// and no reservation row is oversubscribed at any residue, counting
/// each op's reserved window exactly the way the scheduler's placement
/// probes do. Both the heuristic's schedules and the exact oracle's
/// certificates must pass this check — a feasibility claim that fails
/// it is a bug in whichever scheduler made it.
///
/// The caller hands in the dependence set it wants checked; a caller
/// that holds a [`PipelineProblem`] uses [`PipelineProblem::validate`],
/// which is this check over the problem's own parts.
#[must_use]
pub fn validate_modulo(
    assignment: &Assignment,
    machine: &MachineResources,
    deps: &[OmegaDep],
    ii: u32,
    slots: &[u32],
) -> bool {
    let row_units: Vec<u32> = machine.mdes.row_units().collect();
    let reqs = op_reservations(assignment, machine);
    validate_slots(&row_units, &reqs, deps, ii, slots)
}

/// The check behind [`validate_modulo`] and [`PipelineProblem::validate`].
fn validate_slots(
    row_units: &[u32],
    reqs: &[Vec<ResReq>],
    deps: &[OmegaDep],
    ii: u32,
    slots: &[u32],
) -> bool {
    if ii == 0 || slots.len() != reqs.len() {
        return false;
    }
    if !deps.iter().all(|d| d.holds(ii, slots)) {
        return false;
    }
    let stride = ii as usize;
    let mut counts = vec![0_u32; row_units.len() * stride];
    for (rs, &slot) in reqs.iter().zip(slots) {
        for r in rs {
            for dt in 0..r.reserved {
                counts[r.row as usize * stride + ((slot + dt) % ii) as usize] += 1;
            }
        }
    }
    // Capacity holds at every residue of every row.
    counts
        .chunks_exact(stride)
        .zip(row_units)
        .all(|(cells, &units)| cells.iter().all(|&k| k <= units))
}

/// One `(loop, assignment, machine)` point as a software-pipelining
/// problem: everything the schedulers need that does not depend on the
/// II, derived once.
///
/// Built by [`PipelineProblem::new`]; the heuristic search
/// ([`PipelineProblem::schedule`]), the validator
/// ([`PipelineProblem::validate`]) and the exact certifier
/// (`PipelineProblem::certify` and `PipelineProblem::decide`, in
/// [`crate::exact`]) borrow it, so a caller that asks several questions
/// of one point — the gap study schedules, validates and then certifies
/// up a fuel ladder — pays for the dependence analysis and RecMII once.
#[derive(Debug)]
pub struct PipelineProblem<'a> {
    assignment: &'a Assignment,
    ddg: &'a Ddg,
    machine: &'a MachineResources,
    /// The list-schedule length: the II the loop barrier already
    /// achieves, which caps both searches at `4 ×` itself.
    pub(crate) list_length: u32,
    /// [`omega_deps`] of the assigned code.
    pub(crate) deps: Vec<OmegaDep>,
    /// Each op's rows of the machine's reservation table.
    pub(crate) reqs: Vec<Vec<ResReq>>,
    /// The unit count behind each row of that table.
    pub(crate) row_units: Vec<u32>,
    /// Where the heuristic search starts: `max(ResMII, RecMII, longest
    /// op latency)`.
    mii: u32,
    exact_mii: u32,
    /// The heuristic's placement order.
    order: Vec<u32>,
}

impl<'a> PipelineProblem<'a> {
    /// Derive the problem of pipelining `assignment`'s loop (whose
    /// post-assignment graph is `ddg`) on `machine`. `list_length` is the
    /// loop's list-schedule length.
    #[must_use]
    pub fn new(
        assignment: &'a Assignment,
        ddg: &'a Ddg,
        machine: &'a MachineResources,
        list_length: u32,
    ) -> Self {
        let code = &assignment.code;
        let deps = omega_deps(code, ddg);
        let reqs = op_reservations(assignment, machine);
        let row_units: Vec<u32> = machine.mdes.row_units().collect();
        let mut busy = vec![0_u32; row_units.len()];
        for r in reqs.iter().flatten() {
            busy[r.row as usize] += r.reserved;
        }
        let res_mii = bound_of_rows(row_units.iter().copied(), &busy);
        let bound = res_mii.max(rec_mii(code.ops.len(), &deps, list_length));
        let max_lat = code.ops.iter().map(|o| o.latency).max().unwrap_or(1);
        let missing_unit = reqs
            .iter()
            .flatten()
            .any(|r| row_units[r.row as usize] == 0);
        PipelineProblem {
            assignment,
            ddg,
            machine,
            list_length,
            mii: bound.max(max_lat),
            exact_mii: if missing_unit { u32::MAX } else { bound },
            order: placement_order(ddg),
            deps,
            reqs,
            row_units,
        }
    }

    /// The structural lower bound on II the certification walk starts
    /// from: `max(ResMII, RecMII)`. Unlike the bound the heuristic search
    /// starts from ([`ModuloSchedule::mii`]) this does **not** clamp to
    /// the maximum latency — pipelined units can legally overlap a
    /// long-latency op every cycle, and even a *non-pipelined* multi-port
    /// row sustains an II below one access's reservation by rotating
    /// ports across iterations; what reservations do force is
    /// `ceil(total reserved / units)` per row, which is ResMII. `u32::MAX`
    /// when no II exists at all (an op needs a table row with no units,
    /// or the dependence set holds an ω = 0 cycle).
    #[must_use]
    pub fn exact_mii(&self) -> u32 {
        self.exact_mii
    }

    /// [`validate_modulo`] of `slots` at `ii` against the problem's own
    /// dependence set and reservation requirements.
    #[must_use]
    pub fn validate(&self, ii: u32, slots: &[u32]) -> bool {
        validate_slots(&self.row_units, &self.reqs, &self.deps, ii, slots)
    }

    /// Attempt modulo scheduling under a step budget: each candidate slot
    /// at each attempted II spends fuel, so a machine whose II search
    /// space is pathologically large degrades to
    /// [`SchedError::FuelExhausted`] instead of stalling an exploration
    /// worker. `Ok(None)` only if no II up to `4 × list length` admits a
    /// schedule under this (non-backtracking) heuristic. The reservation
    /// rows, slot array and demand counters live in `scratch`'s reused
    /// flat buffers.
    ///
    /// Records one `modulo` span: the II the search settled on and the
    /// lower bound it started from — or a `feasible: false` with the
    /// `reason` it gave up (`missing_unit`: an op needs a unit its
    /// cluster does not have; `ii_cap`: the walk reached the cap), or an
    /// error token — with how many candidate IIs it tried and the fuel
    /// the search charged.
    ///
    /// # Errors
    /// [`SchedError::FuelExhausted`] when `fuel` runs dry mid-search.
    pub fn schedule(
        &self,
        fuel: &mut Fuel,
        scratch: &mut SchedScratch,
        trace: &mut UnitTrace<'_>,
    ) -> Result<Option<ModuloSchedule>, SchedError> {
        let before = fuel.spent();
        let t0 = trace.start();
        let out = self.search_ii(fuel, scratch);
        let steps = fuel.spent() - before;
        match &out {
            Ok(Ok(ms)) => trace.stage(
                Stage::Modulo,
                t0,
                &[
                    ("ii", Value::U64(u64::from(ms.ii))),
                    ("mii", Value::U64(u64::from(ms.mii))),
                    ("ii_attempts", Value::U64(u64::from(ms.ii_attempts))),
                    ("steps", Value::U64(steps)),
                ],
            ),
            Ok(Err(gave_up)) => trace.stage(
                Stage::Modulo,
                t0,
                &[
                    ("feasible", Value::Bool(false)),
                    ("reason", Value::Str(gave_up.reason)),
                    ("ii_attempts", Value::U64(u64::from(gave_up.ii_attempts))),
                    ("steps", Value::U64(steps)),
                ],
            ),
            Err(e) => trace.stage(
                Stage::Modulo,
                t0,
                &[
                    ("error", Value::Str(e.token())),
                    ("steps", Value::U64(steps)),
                ],
            ),
        }
        out.map(Result::ok)
    }

    /// The II search behind [`PipelineProblem::schedule`].
    fn search_ii(
        &self,
        fuel: &mut Fuel,
        scratch: &mut SchedScratch,
    ) -> Result<Result<ModuloSchedule, GaveUp>, SchedError> {
        let SchedScratch {
            mod_rows,
            mod_full,
            mod_slots,
            mod_demand,
            modulo_attempts,
            modulo_probes,
            ..
        } = scratch;
        let n = self.reqs.len();
        let units = &self.row_units;
        let mii = self.mii;
        let limit = 4 * self.list_length.max(mii);
        let mut ii_attempts = 0_u32;
        let mut ii = mii;
        'outer: while ii <= limit {
            ii_attempts += 1;
            *modulo_attempts += 1;
            mod_rows.clear();
            mod_rows.resize(self.row_units.len() * ii as usize, 0);
            // Each row's full residues, as `first_fit` reads them: none
            // yet, except every residue of a row with no units.
            let words = (ii as usize).div_ceil(64);
            mod_full.clear();
            mod_full.resize(self.row_units.len() * words, 0);
            for (row, _) in units.iter().enumerate().filter(|&(_, &k)| k == 0) {
                let bits = &mut mod_full[row * words..][..words];
                bits.fill(u64::MAX);
                bits[words - 1] >>= 64 * words - ii as usize;
            }
            mod_demand.clear();
            mod_demand.resize(self.row_units.len(), 0);
            mod_slots.clear();
            mod_slots.resize(n, u32::MAX);
            // The placement order is II-independent, which is what makes
            // the demand prefix reusable as a skip bound.
            for &i in &self.order {
                let i = i as usize;
                let reqs = &self.reqs[i];
                // Account this op's demand up front so a failure's bound
                // covers the op that needs the room, not just its prefix.
                // All resource accounting follows the unit binding the
                // description assigns to each class, so registered fused
                // classes draw from the unit they upgrade.
                for r in reqs {
                    mod_demand[r.row as usize] += u64::from(r.reserved);
                }
                let est = self
                    .ddg
                    .preds(i)
                    .iter()
                    .map(|d| {
                        // An unplaced predecessor would put `est` at
                        // `u32::MAX` and fail the op at every II.
                        debug_assert_ne!(
                            mod_slots[d.from as usize],
                            u32::MAX,
                            "op {i} is placed before its same-iteration predecessor {}",
                            d.from
                        );
                        mod_slots[d.from as usize].saturating_add(d.lat)
                    })
                    .max()
                    .unwrap_or(0);
                *modulo_probes += 1;
                if let Some(slot) = first_fit(mod_full, ii, reqs, est, fuel)? {
                    for r in reqs {
                        let (row, k) = (r.row as usize, units[r.row as usize]);
                        for dt in 0..r.reserved {
                            let res = ((slot + dt) % ii) as usize;
                            let cell = &mut mod_rows[row * ii as usize + res];
                            *cell += 1;
                            if *cell >= k {
                                mod_full[row * words + res / 64] |= 1 << (res % 64);
                            }
                        }
                    }
                    mod_slots[i] = slot;
                    continue;
                }
                // The probe window spanned every residue, so one of the
                // op's rows is out of capacity. Demand is II-independent
                // (fixed placement order), so any II whose total capacity
                // `units × II` is below the demand fails the same way —
                // jump straight past all of them.
                let mut next = ii + 1;
                for r in reqs {
                    let k = units[r.row as usize];
                    if k == 0 {
                        // The resource does not exist at any II.
                        return Ok(Err(GaveUp {
                            ii_attempts,
                            reason: "missing_unit",
                        }));
                    }
                    let bound = mod_demand[r.row as usize].div_ceil(u64::from(k));
                    next = next.max(u32::try_from(bound).unwrap_or(u32::MAX));
                }
                ii = next;
                continue 'outer;
            }
            // Check every dependence (including carried ones) at this II.
            if !self.deps.iter().all(|d| d.holds(ii, mod_slots)) {
                ii += 1;
                continue;
            }
            let pressure_estimate = pipeline_pressure(
                &self.assignment.code,
                self.assignment,
                mod_slots,
                ii,
                self.machine,
            );
            return Ok(Ok(ModuloSchedule {
                ii,
                slots: mod_slots.clone(),
                mii,
                pressure_estimate,
                ii_attempts,
            }));
        }
        Ok(Err(GaveUp {
            ii_attempts,
            reason: "ii_cap",
        }))
    }
}

/// Why a search returned no schedule, for the `modulo` span.
struct GaveUp {
    ii_attempts: u32,
    reason: &'static str,
}

/// The heuristic's placement order: Kahn's topological order over the
/// same-iteration (ω = 0) dependences — the edges of `ddg` — taking the
/// smallest op index among the ready ops. Where index order is already
/// topological this *is* index order; it differs exactly where cluster
/// assignment appended an inter-cluster move behind the op that reads
/// it, which index order would place first, with no slot to wait for.
fn placement_order(ddg: &Ddg) -> Vec<u32> {
    let n = ddg.op_count();
    let mut waiting: Vec<u32> = (0..n).map(|i| ddg.pred_count(i)).collect();
    let mut ready: BinaryHeap<Reverse<u32>> = (0..n as u32)
        .filter(|&i| waiting[i as usize] == 0)
        .map(Reverse)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse(i)) = ready.pop() {
        order.push(i);
        for d in ddg.succs(i as usize) {
            waiting[d.to as usize] -= 1;
            if waiting[d.to as usize] == 0 {
                ready.push(Reverse(d.to));
            }
        }
    }
    debug_assert_eq!(order.len(), n, "a dependence graph is acyclic");
    order
}

/// The first slot of `est..est + ii` at which every reservation of
/// `reqs` finds room, or `None` when the window holds none.
///
/// `full` holds one bitmap per reservation row, `ii.div_ceil(64)` words
/// a row: bit `r` is set when the row has no room left at residue `r`
/// (every bit, for a row with no units), bits from `ii` up clear. A
/// candidate at residue `s` is blocked when one of its reserved windows
/// `s..s + reserved` covers a full residue, so OR-ing each reserved row's
/// bitmap rotated by `0..reserved` marks 64 candidates' verdicts at a
/// time. The words are built in circular order from `est mod ii`, and
/// the answer is the first clear bit, so a search usually builds one.
/// Fuel is charged as the one-slot-at-a-time scan charged it —
/// `found − est + 1`, or the whole window when nothing fits — so slot,
/// fuel and the exhaustion point are that scan's.
fn first_fit(
    full: &[u64],
    ii: u32,
    reqs: &[ResReq],
    est: u32,
    fuel: &mut Fuel,
) -> Result<Option<u32>, SchedError> {
    // The window is `ii` candidates unless `est + ii` saturates.
    let span = est.saturating_add(ii) - est;
    let (n, start) = (ii as usize, (est % ii) as usize);
    let words = n.div_ceil(64);
    // Word `w` of the blocked mask: bit `j` set when the candidate at
    // residue `64·w + j` runs into a full residue.
    let blocked = |w: usize| {
        let mut mask = 0;
        for r in reqs {
            let row = &full[r.row as usize * words..][..words];
            for dt in 0..r.reserved as usize {
                // `64·w` and `dt` are both below `n`.
                let p = 64 * w + dt;
                mask |= window(row, if p >= n { p - n } else { p }, n);
            }
        }
        mask
    };
    let mut offset = None;
    // One reservation longer than the II would collide with itself: no
    // candidate of the window fits.
    if reqs.iter().all(|r| r.reserved <= ii) {
        // Circular order from `start`: its word from `start` on, the
        // words after it, the words before it, its word below `start`.
        let (first, lead) = (start / 64, start % 64);
        for (k, w) in (first..words).chain(0..=first).enumerate() {
            let mut free = !blocked(w);
            if w == first {
                let from_start = u64::MAX << lead;
                free &= if k == 0 { from_start } else { !from_start };
            }
            if w == words - 1 && n % 64 != 0 {
                free &= (1 << (n % 64)) - 1; // no residue from `n` up
            }
            if free != 0 {
                let f = 64 * w + free.trailing_zeros() as usize;
                // Below `n`, so below `ii`.
                offset = Some(((f + n - start) % n) as u32).filter(|&o| o < span);
                break;
            }
        }
    }
    match offset {
        Some(o) => {
            fuel.spend(u64::from(o) + 1)?;
            Ok(Some(est + o))
        }
        None => {
            fuel.spend(u64::from(span))?;
            Ok(None)
        }
    }
}

/// Bits `p..p + 64` of the circular `n`-bit vector `bits` (whose bits
/// from `n` up are clear), bit `p` lowest. Filling word `w` of a rotated
/// copy, its bits from `n − 64·w` up stand for no residue and are left
/// unspecified.
fn window(bits: &[u64], p: usize, n: usize) -> u64 {
    let linear = |p: usize| {
        let (w, b) = (p / 64, p % 64);
        let lo = bits.get(w).map_or(0, |x| x >> b);
        let hi = if b == 0 {
            0
        } else {
            bits.get(w + 1).map_or(0, |x| x << (64 - b))
        };
        lo | hi
    };
    if p == 0 || p + 64 <= n {
        linear(p)
    } else {
        // Past `n` the window wraps to bit 0 — once, since either
        // `n > 64` or the positions past `n` are meaningless.
        linear(p) | linear(0) << (n - p)
    }
}

/// Attempt modulo scheduling; returns `None` only if no II up to
/// `4 × list length` admits a schedule under this (non-backtracking)
/// heuristic.
#[must_use]
pub fn modulo_schedule(
    assignment: &Assignment,
    ddg: &Ddg,
    machine: &MachineResources,
    list_length: u32,
) -> Option<ModuloSchedule> {
    // Unlimited fuel never exhausts; keep the total signature anyway.
    try_modulo_schedule(
        assignment,
        ddg,
        machine,
        list_length,
        &mut Fuel::unlimited(),
        &mut SchedScratch::new(),
        &mut UnitTrace::disabled(),
    )
    .unwrap_or_default()
}

/// [`PipelineProblem::schedule`] of a problem built for this one call.
///
/// # Errors
/// [`SchedError::FuelExhausted`] when `fuel` runs dry mid-search.
pub fn try_modulo_schedule(
    assignment: &Assignment,
    ddg: &Ddg,
    machine: &MachineResources,
    list_length: u32,
    fuel: &mut Fuel,
    scratch: &mut SchedScratch,
    trace: &mut UnitTrace<'_>,
) -> Result<Option<ModuloSchedule>, SchedError> {
    PipelineProblem::new(assignment, ddg, machine, list_length).schedule(fuel, scratch, trace)
}

/// Register-pressure estimate under pipelining: a value live `L` flat
/// cycles needs `⌈L/II⌉` simultaneous instances.
fn pipeline_pressure(
    code: &LoopCode,
    assignment: &Assignment,
    slots: &[u32],
    ii: u32,
    machine: &MachineResources,
) -> Vec<u32> {
    // The latest slot reading each value, indexed by vreg number; 0 for
    // a value nothing reads, which the `max(start)` below absorbs.
    let mut last_use = vec![0_u32; code.vreg_limit as usize];
    for (i, op) in code.ops.iter().enumerate() {
        for u in &op.uses {
            let e = &mut last_use[u.index()];
            *e = (*e).max(slots[i]);
        }
    }
    let mut per_cluster = vec![0_u32; machine.cluster_count()];
    for (i, op) in code.ops.iter().enumerate() {
        let Some(d) = op.def else { continue };
        let c = assignment.cluster_of_op[i] as usize;
        let start = slots[i];
        let end = last_use[d.index()].max(start) + 1;
        let live = end - start;
        per_cluster[c] += live.div_ceil(ii).max(1);
    }
    per_cluster
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::assign;
    use crate::cluster::tests::stratified;
    use crate::loopcode::LoopCode;
    use crate::testgen::memory_heavy;
    use cfp_frontend::compile_kernel;
    use cfp_ir::Kernel;
    use cfp_kernels::Benchmark;
    use cfp_machine::ArchSpec;

    fn pipeline(src: &str, spec: &ArchSpec) -> (ModuloSchedule, u32, Vec<OmegaDep>, usize) {
        let k = compile_kernel(src, &[]).unwrap();
        let m = MachineResources::from_spec(spec);
        let code = LoopCode::build(&k, &m);
        let pre = Ddg::build(&code);
        let a = assign(&code, &pre, &m);
        let ddg = Ddg::build(&a.code);
        let list = crate::list::schedule(&a, &ddg, &m);
        let deps = omega_deps(&a.code, &ddg);
        let n = a.code.ops.len();
        let ms = modulo_schedule(&a, &ddg, &m, list.length).expect("schedulable");
        (ms, list.length, deps, n)
    }

    const PARALLEL: &str = "kernel p(in u8 s[], out i32 d[]) {
        loop i { d[i] = s[i] * 5 + s[i + 1] * 7; }
    }";

    const SERIAL: &str = "kernel s(in u8 src[], out i32 d[]) {
        var e = 1;
        loop i {
            e = ((e * 7 + 8) >> 4) + src[i];
            d[i] = e;
        }
    }";

    #[test]
    fn parallel_kernels_pipeline_far_below_the_barrier() {
        // Long memory latency makes the barrier's drain expensive; the
        // pipeline initiates every ResMII cycles instead.
        let spec = ArchSpec::new(8, 4, 256, 4, 8, 1).unwrap();
        let (ms, list_len, deps, _) = pipeline(PARALLEL, &spec);
        assert!(ms.ii * 2 <= list_len, "II {} vs barrier {list_len}", ms.ii);
        // Structural validity: every dependence holds at the achieved II.
        for d in &deps {
            assert!(d.holds(ms.ii, &ms.slots), "{d:?}");
        }
    }

    #[test]
    fn serial_recurrences_bound_the_ii() {
        let spec = ArchSpec::new(8, 4, 256, 4, 4, 1).unwrap();
        let (ms, _, _, n) = pipeline(SERIAL, &spec);
        // The e-chain is ~4 ops (mul 2 + add + shr + add): II cannot be 1.
        assert!(ms.ii >= 4, "II {} below the recurrence", ms.ii);
        assert!(ms.mii >= 4);
        assert_eq!(ms.slots.len(), n);
    }

    #[test]
    fn res_mii_reflects_port_saturation() {
        let k = compile_kernel(PARALLEL, &[]).unwrap();
        let spec = ArchSpec::new(8, 4, 256, 1, 8, 1).unwrap();
        let m = MachineResources::from_spec(&spec);
        let code = LoopCode::build(&k, &m);
        let pre = Ddg::build(&code);
        let a = assign(&code, &pre, &m);
        // 2 loads + 1 store × 8 cycles on one non-pipelined port ≥ 24.
        assert!(res_mii(&a.code, &a, &m) >= 24);
    }

    fn dep(from: usize, to: usize, lat: u32, omega: u32) -> OmegaDep {
        OmegaDep {
            from,
            to,
            lat,
            omega,
        }
    }

    #[test]
    fn rec_mii_binary_search_matches_hand_value() {
        // A 2-cycle: a→b (lat 3, ω0), b→a (lat 3, ω1): II ≥ 6.
        let deps = [dep(0, 1, 3, 0), dep(1, 0, 3, 1)];
        assert_eq!(rec_mii(2, &deps, 4), 6);
        // No cycles → 1.
        assert_eq!(rec_mii(2, &[dep(0, 1, 9, 0)], 4), 1);
    }

    #[test]
    fn rec_mii_is_the_worst_recurrence_component() {
        // Two recurrences joined by a one-way edge, a self-dependence,
        // and an acyclic tail: the bound is the tightest component's, and
        // neither the joining edge nor the tail is ever relaxed.
        let deps = [
            dep(0, 1, 3, 0),
            dep(1, 0, 3, 1),  // {0, 1}: ceil(6 / 1) = 6
            dep(1, 2, 50, 0), // joins the components, on no cycle
            dep(2, 3, 4, 0),
            dep(3, 4, 4, 0),
            dep(4, 2, 5, 2), // {2, 3, 4}: ceil(13 / 2) = 7
            dep(5, 5, 9, 3), // {5}: ceil(9 / 3) = 3
            dep(4, 6, 40, 0),
            dep(6, 7, 40, 0), // the tail
        ];
        let components = recurrences(8, &deps);
        let mut shape: Vec<(usize, usize)> = components
            .iter()
            .map(|c| (c.nodes, c.edges.len()))
            .collect();
        shape.sort_unstable();
        assert_eq!(shape, [(1, 1), (2, 2), (3, 3)]);
        for hint in [1, 7, 100, u32::MAX] {
            assert_eq!(rec_mii(8, &deps, hint), 7, "hint={hint}");
        }
        // An ω = 0 cycle anywhere is the sentinel, whatever else there is.
        let mut stuck = deps.to_vec();
        stuck.push(dep(7, 6, 1, 0));
        assert_eq!(rec_mii(8, &stuck, 7), u32::MAX);
    }

    #[test]
    fn carried_memory_distance_is_computed() {
        // Store at i, load at i+2 (offset −2 difference, coeff 1): ω = 2.
        let k = compile_kernel(
            "kernel m(inout i32 b[], out i32 d[]) {
                loop i {
                    var x = b[i + 2];
                    b[i] = x + 1;
                    d[i] = x;
                }
            }",
            &[],
        )
        .unwrap();
        let m = MachineResources::from_spec(&ArchSpec::baseline());
        let code = LoopCode::build(&k, &m);
        let ddg = Ddg::build(&code);
        let deps = omega_deps(&code, &ddg);
        assert!(
            deps.iter().any(|d| d.omega == 2),
            "expected a distance-2 carried memory dependence: {deps:?}"
        );
    }

    /// [`omega_deps`] as first written, kept as the reference the
    /// per-array scan must equal: every carried pair rescans every op for
    /// its readers, and every ordered pair of memory ops is examined,
    /// whatever their arrays.
    fn omega_deps_all_pairs(code: &LoopCode, ddg: &Ddg) -> Vec<OmegaDep> {
        let mut deps: Vec<OmegaDep> = ddg
            .edges()
            .iter()
            .map(|d| dep(d.from as usize, d.to as usize, d.lat, 0))
            .collect();
        let mut def_of = vec![usize::MAX; code.vreg_limit as usize];
        for (i, op) in code.ops.iter().enumerate() {
            if let Some(d) = op.def {
                def_of[d.index()] = i;
            }
        }
        for &(inp, out) in &code.carried {
            let producer = def_of[out.index()];
            if producer == usize::MAX {
                continue;
            }
            for (i, op) in code.ops.iter().enumerate() {
                if op.uses.contains(&inp) {
                    deps.push(dep(producer, i, code.ops[producer].latency, 1));
                }
            }
        }
        let mems = code.mem_ops();
        for &a in &mems {
            for &b in &mems {
                let (ia, ib) = (code.ops[a].inst.unwrap(), code.ops[b].inst.unwrap());
                let (ma, mb) = (ia.mem().unwrap(), ib.mem().unwrap());
                if ma.array != mb.array || (!ia.is_store() && !ib.is_store()) {
                    continue;
                }
                let omega = if ma.is_affine() && mb.is_affine() && ma.coeff == mb.coeff {
                    if ma.coeff == 0 {
                        continue;
                    }
                    let delta = ma.offset - mb.offset;
                    if delta % ma.coeff != 0 || delta / ma.coeff <= 0 {
                        continue;
                    }
                    u32::try_from(delta / ma.coeff).unwrap_or(u32::MAX)
                } else {
                    1
                };
                let lat = if ia.is_store() && !ib.is_store() {
                    code.ops[a].latency
                } else {
                    1
                };
                deps.push(dep(a, b, lat, omega));
            }
        }
        deps
    }

    /// Holds [`omega_deps`] of `kernel`'s assigned code to the all-pairs
    /// reference on every stratified machine — same deps, same order —
    /// and returns how many carried (ω ≥ 1) deps it saw.
    fn omega_deps_equal_all_pairs(kernel: &Kernel, what: &str) -> usize {
        let mut carried = 0;
        for spec in stratified() {
            let m = MachineResources::from_spec(&spec);
            let code = LoopCode::build(kernel, &m);
            let a = assign(&code, &Ddg::build(&code), &m);
            let ddg = Ddg::build(&a.code);
            let deps = omega_deps(&a.code, &ddg);
            assert_eq!(deps, omega_deps_all_pairs(&a.code, &ddg), "{what} {spec}");
            carried += deps.iter().filter(|d| d.omega > 0).count();
        }
        carried
    }

    fn optimized_benchmarks() -> impl Iterator<Item = (Benchmark, Kernel)> {
        Benchmark::ALL.into_iter().map(|b| {
            let mut k = b.kernel();
            cfp_opt::optimize(&mut k);
            (b, k)
        })
    }

    #[test]
    fn omega_deps_equal_all_pairs_on_the_shipped_kernels() {
        let mut carried = 0;
        for (b, k) in optimized_benchmarks() {
            for u in [1, 2, 4] {
                let k = cfp_opt::unroll::unroll(&k, u);
                carried += omega_deps_equal_all_pairs(&k, &format!("{b} x{u}"));
            }
        }
        assert!(carried > 0, "no carried dependence: the test is vacuous");
        // An op that reads a carried value twice is one reader of it.
        let squares = "kernel q(in i32 s[], out i32 d[]) {
            var e = 1;
            loop i { e = e * e + s[i]; d[i] = e; }
        }";
        omega_deps_equal_all_pairs(&compile_kernel(squares, &[]).unwrap(), "squares");
    }

    /// Unroll 8 and 16, where the reference's quadratic scans are slow
    /// in a debug build; CI runs it with the other `#[ignore]`d tests.
    #[test]
    #[ignore = "slow in a debug build; CI runs it in release"]
    fn omega_deps_equal_all_pairs_on_deep_unrolls() {
        for (b, k) in optimized_benchmarks() {
            for u in [8, 16] {
                let k = cfp_opt::unroll::unroll(&k, u);
                omega_deps_equal_all_pairs(&k, &format!("{b} x{u}"));
            }
        }
    }

    #[test]
    fn omega_deps_equal_all_pairs_on_memory_heavy_kernels() {
        let carried = std::sync::atomic::AtomicUsize::new(0);
        cfp_testkit::cases(0x0de9_0001, 60, |rng| {
            let k = memory_heavy(rng);
            let mut seen = omega_deps_equal_all_pairs(&k, "memory heavy");
            let k = cfp_opt::unroll::unroll(&k, 3);
            seen += omega_deps_equal_all_pairs(&k, "memory heavy x3");
            carried.fetch_add(seen, std::sync::atomic::Ordering::Relaxed);
        });
        assert!(carried.into_inner() > 0, "no carried dependence");
    }

    #[test]
    fn stages_and_pressure_are_reported() {
        let spec = ArchSpec::new(4, 2, 128, 2, 4, 1).unwrap();
        let (ms, ..) = pipeline(PARALLEL, &spec);
        assert!(ms.stages() >= 1);
        assert_eq!(ms.pressure_estimate.len(), 1);
        assert!(ms.pressure_estimate[0] > 0);
    }

    #[test]
    fn the_ii_skip_never_skips_the_found_ii() {
        // On a port-starved machine the search starts far above the list
        // length; the skip bound must still land on the same II a linear
        // scan finds, while attempting no more IIs than `found − mii + 1`.
        for spec in [
            ArchSpec::new(8, 4, 256, 1, 8, 1).unwrap(),
            ArchSpec::new(2, 1, 64, 1, 4, 1).unwrap(),
            ArchSpec::new(8, 4, 256, 4, 8, 1).unwrap(),
        ] {
            let k = compile_kernel(PARALLEL, &[]).unwrap();
            let m = MachineResources::from_spec(&spec);
            let code = LoopCode::build(&k, &m);
            let pre = Ddg::build(&code);
            let a = assign(&code, &pre, &m);
            let ddg = Ddg::build(&a.code);
            let list = crate::list::schedule(&a, &ddg, &m);
            let ms = modulo_schedule(&a, &ddg, &m, list.length).expect("schedulable");
            assert!(ms.ii >= ms.mii, "{spec}");
            assert!(
                ms.ii_attempts <= ms.ii - ms.mii + 1,
                "{spec}: {} attempts for II {} from MII {}",
                ms.ii_attempts,
                ms.ii,
                ms.mii
            );
            assert!(ms.ii_attempts >= 1, "{spec}");
        }
    }

    #[test]
    fn scratch_reuse_reproduces_fresh_modulo_schedules() {
        let mut scratch = SchedScratch::new();
        for spec in [
            ArchSpec::new(8, 4, 256, 1, 8, 1).unwrap(),
            ArchSpec::new(4, 2, 128, 2, 4, 1).unwrap(),
        ] {
            let k = compile_kernel(PARALLEL, &[]).unwrap();
            let m = MachineResources::from_spec(&spec);
            let code = LoopCode::build(&k, &m);
            let pre = Ddg::build(&code);
            let a = assign(&code, &pre, &m);
            let ddg = Ddg::build(&a.code);
            let list = crate::list::schedule(&a, &ddg, &m);
            let fresh = modulo_schedule(&a, &ddg, &m, list.length).expect("schedulable");
            let reused = try_modulo_schedule(
                &a,
                &ddg,
                &m,
                list.length,
                &mut Fuel::unlimited(),
                &mut scratch,
                &mut UnitTrace::disabled(),
            )
            .expect("unlimited")
            .expect("schedulable");
            assert_eq!(fresh.ii, reused.ii, "{spec}");
            assert_eq!(fresh.slots, reused.slots, "{spec}");
            assert_eq!(fresh.mii, reused.mii, "{spec}");
            assert_eq!(fresh.ii_attempts, reused.ii_attempts, "{spec}");
        }
    }

    /// Two clusters: the only IMUL sits on cluster 0, the only L2 port
    /// on cluster 1, so every load's value crosses to be multiplied.
    const CROSSING: &str = "kernel w(in u8 s[], out i32 d[]) {
        loop i {
            var a = s[4*i] * 3;
            var b = s[4*i+1] * 5;
            d[i] = a + b;
        }
    }";

    #[test]
    fn a_value_that_crosses_clusters_still_pipelines() {
        // Cluster assignment appends each inter-cluster move at the end
        // of the code, behind the op that reads it. Placing in index
        // order met that reader first, with an unplaced predecessor and
        // so no slot at any II: the search walked to the cap and
        // returned `None` on every unit that moved a value.
        let spec = ArchSpec::new(2, 1, 128, 1, 4, 2).unwrap();
        let k = compile_kernel(CROSSING, &[]).unwrap();
        let m = MachineResources::from_spec(&spec);
        let code = LoopCode::build(&k, &m);
        let a = assign(&code, &Ddg::build(&code), &m);
        assert!(a.move_count > 0, "mul and memory are on different clusters");
        let ddg = Ddg::build(&a.code);
        let list = crate::list::schedule(&a, &ddg, &m);
        let problem = PipelineProblem::new(&a, &ddg, &m, list.length);
        // The order is a permutation that respects every same-iteration
        // dependence and departs from index order only for the moves.
        let mut at = vec![usize::MAX; a.code.ops.len()];
        for (pos, &i) in problem.order.iter().enumerate() {
            at[i as usize] = pos;
        }
        assert!(at.iter().all(|&pos| pos != usize::MAX));
        assert!(ddg
            .edges()
            .iter()
            .all(|d| at[d.from as usize] < at[d.to as usize]));
        assert!(problem.order.windows(2).any(|w| w[0] > w[1]));

        let ms = modulo_schedule(&a, &ddg, &m, list.length).expect("a unit with moves pipelines");
        assert!(ms.ii >= ms.mii);
        assert!(ms.ii_attempts <= ms.ii - ms.mii + 1);
        assert!(validate_modulo(&a, &m, &problem.deps, ms.ii, &ms.slots));
        assert!(problem.validate(ms.ii, &ms.slots));
    }

    #[test]
    fn placement_order_is_index_order_when_that_is_topological() {
        for spec in [
            ArchSpec::new(8, 4, 256, 1, 8, 1).unwrap(),
            ArchSpec::new(4, 2, 128, 2, 4, 1).unwrap(),
        ] {
            let k = compile_kernel(PARALLEL, &[]).unwrap();
            let m = MachineResources::from_spec(&spec);
            let code = LoopCode::build(&k, &m);
            let ddg = Ddg::build(&code);
            let order = placement_order(&ddg);
            assert!(order.iter().copied().eq(0..code.ops.len() as u32), "{spec}");
        }
    }

    /// The scan `first_fit` replaces: every candidate probed in turn.
    fn linear_first_fit(
        rows: &[u32],
        row_units: &[u32],
        ii: u32,
        reqs: &[ResReq],
        est: u32,
        fuel: &mut Fuel,
    ) -> Result<Option<u32>, SchedError> {
        for slot in est..est.saturating_add(ii) {
            fuel.spend(1)?;
            let fits = reqs.iter().all(|r| {
                r.reserved <= ii
                    && (0..r.reserved).all(|dt| {
                        let cell = r.row as usize * ii as usize + ((slot + dt) % ii) as usize;
                        rows[cell] < row_units[r.row as usize]
                    })
            });
            if fits {
                return Ok(Some(slot));
            }
        }
        Ok(None)
    }

    /// Each row's full residues, as `search_ii` keeps them for
    /// `first_fit`.
    fn full_bitmaps(rows: &[u32], row_units: &[u32], ii: u32) -> Vec<u64> {
        let (n, words) = (ii as usize, (ii as usize).div_ceil(64));
        let mut full = vec![0_u64; row_units.len() * words];
        for (k, &cell) in rows.iter().enumerate() {
            let (row, res) = (k / n, k % n);
            if cell >= row_units[row] {
                full[row * words + res / 64] |= 1 << (res % 64);
            }
        }
        full
    }

    /// `first_fit` against [`linear_first_fit`] on `count` random
    /// reservation tables at IIs up to `max_ii`: the same slot for the
    /// same fuel, exactly that fuel reproduces it and one step less runs
    /// dry. Returns how many searches found a slot past the end of the
    /// II's first lap (`est mod II` wrapped to residue 0), past 64
    /// candidates (a later bitmap word), and none at all.
    fn first_fit_agrees_with_the_linear_scan(seed: u64, count: u64, max_ii: u64) -> [u64; 3] {
        let seen = [(); 3].map(|()| std::sync::atomic::AtomicU64::new(0));
        cfp_testkit::cases(seed, count, |rng| {
            let ii = 1 + rng.below(max_ii) as u32;
            let n_rows = 1 + rng.index(3);
            // Unit counts per row: a missing unit now and then, and rows
            // wider than a 64-bit word.
            let row_units: Vec<u32> = (0..n_rows)
                .map(|_| match rng.below(10) {
                    0 => 0,
                    1 => 65 + rng.below(8) as u32,
                    _ => 1 + rng.below(3) as u32,
                })
                .collect();
            // Random occupancy, dense enough that windows collide.
            let dense = rng.below(4);
            let mut rows = vec![0_u32; n_rows * ii as usize];
            for (k, cell) in rows.iter_mut().enumerate() {
                let units = row_units[k / ii as usize];
                let take = if rng.below(4) < dense {
                    u64::from(units)
                } else {
                    rng.below(u64::from(units) + 1)
                };
                *cell = u32::try_from(take).expect("at most the row's units");
            }
            // Short reservations, and ones up to two cycles past the II.
            let reqs: Vec<ResReq> = (0..1 + rng.index(2))
                .map(|_| ResReq {
                    row: rng.index(n_rows) as u32,
                    reserved: 1 + match rng.below(2) {
                        0 => rng.below(4),
                        _ => rng.below(u64::from(ii) + 2),
                    } as u32,
                })
                .collect();
            // Earliest starts up to three IIs out.
            let est = rng.below(3 * u64::from(ii) + 40) as u32;
            let full = full_bitmaps(&rows, &row_units, ii);
            let fit = |fuel: &mut Fuel| first_fit(&full, ii, &reqs, est, fuel);

            let mut fuel = Fuel::unlimited();
            let got = fit(&mut fuel);
            let mut linear_fuel = Fuel::unlimited();
            let want = linear_first_fit(&rows, &row_units, ii, &reqs, est, &mut linear_fuel);
            let case = format!("ii={ii} est={est} units={row_units:?} reqs={reqs:?}");
            assert_eq!(got, want, "{case}");
            assert_eq!(fuel.spent(), linear_fuel.spent(), "{case}");
            let bump = |k: usize| seen[k].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            match want {
                Ok(Some(slot)) if est % ii + (slot - est) >= ii => bump(0),
                Ok(None) => bump(2),
                _ => 0,
            };
            if matches!(want, Ok(Some(slot)) if slot - est >= 64) {
                bump(1);
            }

            // The boundary is the linear scan's too.
            let spent = fuel.spent();
            assert_eq!(fit(&mut Fuel::limited(spent)), want, "{case}");
            assert_eq!(
                fit(&mut Fuel::limited(spent - 1)),
                Err(SchedError::FuelExhausted { budget: spent - 1 }),
                "{case}"
            );
        });
        seen.map(std::sync::atomic::AtomicU64::into_inner)
    }

    #[test]
    fn first_fit_finds_the_linear_scans_slot_for_the_linear_scans_fuel() {
        let [wrapped, _, none] = first_fit_agrees_with_the_linear_scan(0xF125_7F17, 600, 12);
        assert!(wrapped > 0 && none > 0, "wrapped {wrapped}, none {none}");
    }

    /// IIs past 64 and 128 (two- and three-word bitmaps) with
    /// reservations longer than 64 cycles: instant in release, slow in a
    /// debug build; CI runs it with the other `#[ignore]`d tests.
    #[test]
    #[ignore = "slow in a debug build; CI runs it in release"]
    fn first_fit_matches_the_linear_scan_at_multi_word_iis() {
        let [wrapped, far, none] = first_fit_agrees_with_the_linear_scan(0xF125_7F18, 3000, 200);
        assert!(
            wrapped > 0 && far > 0 && none > 0,
            "wrapped {wrapped}, past a word {far}, none {none}"
        );
    }
}
