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
//! Everything about a point that does not depend on the II is one
//! [`PipelineProblem`]; [`modulo_schedule`] and [`validate_modulo`] ask
//! one question of a point. The II search starts at `max(ResMII, RecMII, longest op latency)` and
//! walks upward, but not blindly: ops are placed in one fixed order
//! (`placement_order`), so the per-resource demand of the prefix up to a
//! failed placement is the same at every II, and the search jumps past
//! every II whose capacity `units × II` is below it.
//! [`ModuloSchedule::ii_attempts`] reports how many IIs were actually
//! attempted. Within an attempt an op takes the first slot of its window
//! with room in the attempt's modulo reservation table (`mrt.rs`).
//!
//! Scope: this is an *analytical* scheduler. Its output is validated
//! structurally (every dependence satisfies
//! `slot(to) ≥ slot(from) + lat − II·ω` and no modulo resource is
//! oversubscribed) — it is not executed by the cycle-accurate simulator,
//! which models the barrier machine.
//! The validator checks the same [`omega_deps`] the schedulers obey, so
//! it cannot see a dependence that set drops; `tests/oracle_equivalence.rs`
//! (`a_fixed_element_accumulator_bounds_both_iis_by_its_recurrence`)
//! reads a recurrence off a kernel instead. See `EXPERIMENTS.md`
//! ("pipelining" exhibit).

use crate::cluster::Assignment;
use crate::ddg::{def_table, Ddg, MemBuckets};
use crate::error::{Fuel, SchedError};
use crate::loopcode::LoopCode;
use crate::mrt::Mrt;
use crate::scratch::{with_arena, SchedScratch};
use cfp_machine::MachineResources;
pub use cfp_machine::ResReq;
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
    /// Where the search started: `max(ResMII, RecMII, longest op
    /// latency)` (the certifier's [`PipelineProblem::exact_mii`] leaves
    /// the latency out).
    pub mii: u32,
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
/// memory edges (the smallest distance ≥ 1 at which a same-array pair
/// can meet, by the rule [`Ddg::build`] reads distance 0 off: an affine
/// distance, or ω = 1 for a fixed element, unequal strides and
/// non-affine references).
#[must_use]
pub fn omega_deps(code: &LoopCode, ddg: &Ddg) -> Vec<OmegaDep> {
    let same_iteration = ddg.edges().iter();
    let mut deps: Vec<OmegaDep> = same_iteration
        .map(|d| dep(d.from as usize, d.to as usize, d.lat, 0))
        .collect();

    // Carried register values: the producer of `out` feeds every reader
    // of `in` one iteration later. One pass over the ops lists each fed
    // input's readers (an op reading it twice is one reader), grouped by
    // input, ascending within a group.
    let mut def_of = Vec::new();
    def_table(code, &mut def_of);
    let mut fed_by = vec![u32::MAX; code.vreg_limit as usize];
    for &(inp, out) in &code.carried {
        fed_by[inp.index()] = def_of[out.index()]; // none for a pass-through carry
    }
    let mut readers: Vec<(u32, usize)> = Vec::new();
    for (i, op) in code.ops.iter().enumerate() {
        for (k, u) in op.uses.iter().enumerate() {
            if fed_by[u.index()] != u32::MAX && !op.uses[..k].contains(u) {
                readers.push((u.0, i));
            }
        }
    }
    readers.sort_by_key(|&(v, _)| v); // stable: readers stay ascending
    for &(inp, _) in &code.carried {
        let producer = fed_by[inp.index()] as usize;
        let first = readers.partition_point(|&(v, _)| v < inp.0);
        for &(_, to) in readers[first..].iter().take_while(|&&(v, _)| v == inp.0) {
            deps.push(dep(producer, to, code.ops[producer].latency, 1));
        }
    }

    // Loop-carried memory dependences: each memory op against all its
    // partners, where the two meet k ≥ 1 iterations apart. The walk is
    // array-major; sorted stably by producer, its edges are in the order
    // of a scan over every ordered pair of memory ops.
    let memory = deps.len();
    let mut buckets = MemBuckets::default();
    buckets.fill(code);
    for (a, partners, _) in buckets.partners() {
        for b in partners {
            if let Some(omega) = a.distances(b).first_carried() {
                let (_, lat) = a.order(b, code.ops[a.op as usize].latency);
                deps.push(dep(a.op as usize, b.op as usize, lat, omega));
            }
        }
    }
    deps[memory..].sort_by_key(|d| d.from);
    deps
}

/// The dependence `from → to` of latency `lat` at iteration distance
/// `omega`.
fn dep(from: usize, to: usize, lat: u32, omega: u32) -> OmegaDep {
    OmegaDep {
        from,
        to,
        lat,
        omega,
    }
}

/// The resource-constrained lower bound on II: per row of the machine's
/// reservation table ([`cfp_machine::Mdes::reservations`]), the busy
/// cycles its ops reserve over the row's units. A barrier schedule is a
/// modulo schedule at II = its length, so this also bounds every list
/// schedule's length from below — the list portfolio stops on it
/// ([`crate::list::try_schedule`]). Rows with no units are skipped:
/// an op that needs one has no II at all, which
/// [`PipelineProblem::exact_mii`] reports.
#[must_use]
pub fn res_mii(code: &LoopCode, assignment: &Assignment, machine: &MachineResources) -> u32 {
    let ops = code.ops.iter().zip(&assignment.cluster_of_op);
    let tally = ops.map(|(op, &c)| (machine.mdes.reservations(op.class, c as usize), 1));
    res_mii_of(machine.mdes.row_units(), tally, &mut Vec::new())
}

/// The ResMII of a tally of reservations — each `(rows, count)` is
/// `count` ops that each reserve `rows` — over rows backed by
/// `row_units` units each, rows with no units skipped. `busy` is
/// working memory for each row's reserved cycles. The one tally behind
/// [`res_mii`], [`PipelineProblem::new`], the list scheduler's stopping
/// bound and the exact solver's capacity check.
pub(crate) fn res_mii_of<R: IntoIterator<Item = ResReq>>(
    row_units: impl IntoIterator<Item = u32>,
    tally: impl IntoIterator<Item = (R, u32)>,
    busy: &mut Vec<u32>,
) -> u32 {
    busy.clear();
    for (rows, count) in tally {
        for r in rows {
            let row = r.row as usize;
            if row >= busy.len() {
                busy.resize(row + 1, 0); // rows past the last reserved one stay idle
            }
            busy[row] += count * r.reserved;
        }
    }
    let rows = row_units.into_iter().zip(busy.iter());
    let staffed = rows.filter(|&(units, _)| units > 0);
    staffed.fold(1, |bound, (units, &cycles)| {
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
    first_feasible_ii(n_ops, deps, 1, hi_hint)
}

/// The smallest II at or above `floor` at which no dependence cycle has
/// positive weight `lat − II·ω`: `floor.max(rec_mii(..))`, since a
/// weight only falls as the II grows. When `floor` already holds —
/// ResMII on a resource-bound loop — that is one feasibility check, not
/// a search. Otherwise the search doubles from `hi_hint` (at
/// least `floor + 1`) until an II holds, then bisects the gap; `u32::MAX`
/// when none does. The result does not depend on `hi_hint`.
pub(crate) fn first_feasible_ii(n_ops: usize, deps: &[OmegaDep], floor: u32, hi_hint: u32) -> u32 {
    let components = recurrences(n_ops, deps);
    let mut dist = Vec::new();
    let mut feasible = |ii: u32| components.iter().all(|c| c.feasible(ii, &mut dist));
    let floor = floor.max(1);
    if feasible(floor) {
        return floor; // also every dependence set without a cycle
    }
    // Infeasible at `floor`, so at every II below it too.
    let Some(mut lo) = floor.checked_add(1) else {
        return u32::MAX;
    };
    let mut hi = hi_hint.max(lo);
    while !feasible(hi) {
        if hi == u32::MAX {
            return u32::MAX; // an ω = 0 cycle: no II is feasible
        }
        lo = hi + 1;
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
/// cluster ([`cfp_machine::Mdes::reservations`]).
fn op_reservations(assignment: &Assignment, machine: &MachineResources) -> Vec<Vec<ResReq>> {
    let code = &assignment.code;
    code.ops
        .iter()
        .zip(&assignment.cluster_of_op)
        .map(|(op, &c)| machine.mdes.reservations(op.class, c as usize).collect())
        .collect()
}

/// Structural validator for a modulo schedule at initiation interval
/// `ii`: every dependence of `deps` satisfies `slot(to) ≥ slot(from) +
/// lat − II·ω`, and no reservation row is oversubscribed at any residue
/// of the modulo reservation table both schedulers place in. A
/// feasibility claim that fails it is a bug in the scheduler that made
/// it. [`PipelineProblem::validate`] checks against the problem's own
/// parts.
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

/// The check behind [`validate_modulo`] and [`PipelineProblem::validate`]:
/// every op, in order, fits where the ones before it left room.
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
    let mut table = Mrt::new(row_units, ii);
    reqs.iter().zip(slots).all(|(rs, &slot)| {
        let fits = table.fits(rs, i64::from(slot));
        if fits {
            table.reserve(rs, i64::from(slot));
        }
        fits
    })
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
    ddg: &'a Ddg,
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
        assignment: &Assignment,
        ddg: &'a Ddg,
        machine: &MachineResources,
        list_length: u32,
    ) -> Self {
        let code = &assignment.code;
        let deps = omega_deps(code, ddg);
        let reqs = op_reservations(assignment, machine);
        let row_units: Vec<u32> = machine.mdes.row_units().collect();
        let tally = reqs.iter().map(|rows| (rows.iter().copied(), 1));
        let res_mii = res_mii_of(row_units.iter().copied(), tally, &mut Vec::new());
        // `max(ResMII, RecMII)`, probed from ResMII up.
        let bound = first_feasible_ii(code.ops.len(), &deps, res_mii, list_length);
        let max_lat = code.ops.iter().map(|o| o.latency).max().unwrap_or(1);
        let missing_unit = reqs
            .iter()
            .flatten()
            .any(|r| row_units[r.row as usize] == 0);
        PipelineProblem {
            ddg,
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
    /// table, slot array and demand counters live in the calling thread's
    /// arena.
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
        trace: &mut UnitTrace<'_>,
    ) -> Result<Option<ModuloSchedule>, SchedError> {
        let before = fuel.spent();
        let t0 = trace.start();
        let out = with_arena(|arena| self.search_ii(fuel, arena));
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
        arena: &mut SchedScratch,
    ) -> Result<Result<ModuloSchedule, GaveUp>, SchedError> {
        let SchedScratch {
            mrt,
            mod_slots,
            mod_demand,
            counts,
            ..
        } = arena;
        let units = &self.row_units;
        let mii = self.mii;
        let limit = 4 * self.list_length.max(mii);
        let mut ii_attempts = 0_u32;
        let mut ii = mii;
        'outer: while ii <= limit {
            ii_attempts += 1;
            counts.modulo_attempts += 1;
            mrt.reset(units, ii);
            mod_demand.clear();
            mod_demand.resize(self.row_units.len(), 0);
            mod_slots.clear();
            mod_slots.resize(self.reqs.len(), u32::MAX);
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
                counts.modulo_probes += 1;
                if let Some(slot) = mrt.first_fit(reqs, est, fuel)? {
                    mrt.reserve(reqs, i64::from(slot));
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
            return Ok(Ok(ModuloSchedule {
                ii,
                slots: mod_slots.clone(),
                mii,
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
    PipelineProblem::new(assignment, ddg, machine, list_length)
        .schedule(&mut Fuel::unlimited(), &mut UnitTrace::disabled())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::assign;
    use crate::cluster::tests::stratified;
    use crate::loopcode::{FuClass, LoopCode};
    use crate::testgen::memory_heavy;
    use cfp_frontend::compile_kernel;
    use cfp_ir::Kernel;
    use cfp_kernels::Benchmark;
    use cfp_machine::ArchSpec;

    fn list_schedule(a: &Assignment, ddg: &Ddg, m: &MachineResources) -> crate::list::Schedule {
        crate::list::try_schedule(a, ddg, m, &mut Fuel::unlimited()).expect("unlimited fuel")
    }

    fn pipeline(src: &str, spec: &ArchSpec) -> (ModuloSchedule, u32, Vec<OmegaDep>, usize) {
        let k = compile_kernel(src, &[]).unwrap();
        let m = MachineResources::from_spec(spec);
        let code = LoopCode::build(&k, &m);
        let pre = Ddg::build(&code);
        let a = assign(&code, &pre, &m);
        let ddg = Ddg::build(&a.code);
        let list = list_schedule(&a, &ddg, &m);
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

    /// The bound `PipelineProblem::new` took before the ResMII-floored
    /// probe: ResMII, RecMII by its own search, the larger.
    fn max_of_both_bounds(a: &Assignment, ddg: &Ddg, m: &MachineResources, len: u32) -> u32 {
        let deps = omega_deps(&a.code, ddg);
        res_mii(&a.code, a, m).max(rec_mii(a.code.ops.len(), &deps, len))
    }

    #[test]
    fn the_resmii_floored_probe_is_the_larger_of_both_bounds() {
        use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
        // How often RecMII was at most 2 (every floor but 1 holds), above
        // it (floors 1 and 2 search past), and the ω = 0 sentinel.
        let classes = [const { AtomicU32::new(0) }; 3];
        cfp_testkit::cases(0xf100_4ec2, 300, |rng| {
            let n = 1 + rng.index(14);
            let mut deps = Vec::new();
            for from in 0..n {
                for to in (from + 1)..n {
                    if rng.below(5) == 0 {
                        deps.push(dep(from, to, 1 + rng.below(6) as u32, 0));
                    }
                }
            }
            for _ in 0..rng.index(5) {
                let from = rng.index(n);
                let omega = *rng.pick(&[1, 1, 2, 3, u32::MAX]);
                deps.push(dep(
                    from,
                    rng.index(from + 1),
                    1 + rng.below(6) as u32,
                    omega,
                ));
            }
            if rng.below(6) == 0 {
                let from = rng.index(n);
                deps.push(dep(from, rng.index(from + 1), 1 + rng.below(3) as u32, 0));
            }
            let rec = rec_mii(n, &deps, 1 + rng.below(40) as u32);
            let floors = [
                1,
                2,
                1 + rng.below(40) as u32,
                rec.saturating_sub(1).max(1),
                rec,
                rec.saturating_add(1),
                (1 << 20) + 1,
                u32::MAX - 1,
                u32::MAX,
            ];
            let hints = [1, 2, 1 + rng.below(40) as u32, (1 << 20) + 1, u32::MAX];
            for floor in floors {
                for hint in hints {
                    assert_eq!(
                        first_feasible_ii(n, &deps, floor, hint),
                        floor.max(rec_mii(n, &deps, hint)),
                        "n={n} floor={floor} hint={hint} deps={deps:?}"
                    );
                }
            }
            let class = match rec {
                1 | 2 => 0,
                u32::MAX => 2,
                _ => 1,
            };
            classes[class].fetch_add(1, Relaxed);
        });
        let [low, high, sentinel] = classes.map(AtomicU32::into_inner);
        assert!(
            low >= 50 && high >= 50 && sentinel >= 20,
            "thin coverage: {low} low, {high} high, {sentinel} ω = 0 sentinels"
        );
    }

    #[test]
    fn problem_bounds_are_unchanged_on_every_shipped_kernel() {
        let (mut probed, mut rec_bound) = (0, 0);
        for (b, k) in optimized_benchmarks() {
            for u in [1, 2, 4] {
                let k = cfp_opt::unroll::unroll(&k, u);
                for spec in stratified() {
                    let m = MachineResources::from_spec(&spec);
                    let code = LoopCode::build(&k, &m);
                    let a = assign(&code, &Ddg::build(&code), &m);
                    let ddg = Ddg::build(&a.code);
                    let len = list_schedule(&a, &ddg, &m).length;
                    let problem = PipelineProblem::new(&a, &ddg, &m, len);
                    let bound = max_of_both_bounds(&a, &ddg, &m, len);
                    let max_lat = a.code.ops.iter().map(|o| o.latency).max().unwrap_or(1);
                    assert_eq!(problem.mii, bound.max(max_lat), "{b} x{u} {spec}");
                    assert_eq!(problem.exact_mii, bound, "{b} x{u} {spec}");
                    probed += 1;
                    rec_bound += usize::from(bound > res_mii(&a.code, &a, &m));
                }
            }
        }
        assert!(
            rec_bound >= 10,
            "{rec_bound} of {probed} points recurrence-bound"
        );

        // A multiply moved onto the cluster with no multiplier: no II at
        // all, whatever the two bounds say.
        let spec = ArchSpec::new(4, 1, 128, 1, 4, 2).unwrap();
        let m = MachineResources::from_spec(&spec);
        let mut k = Benchmark::D.kernel();
        cfp_opt::optimize(&mut k);
        let code = LoopCode::build(&k, &m);
        let mut a = assign(&code, &Ddg::build(&code), &m);
        let ddg = Ddg::build(&a.code);
        let len = list_schedule(&a, &ddg, &m).length;
        let mul = a
            .code
            .ops
            .iter()
            .position(|op| op.class == FuClass::Mul)
            .unwrap();
        assert_eq!(a.cluster_of_op[mul], 0);
        a.cluster_of_op[mul] = 1;
        let problem = PipelineProblem::new(&a, &ddg, &m, len);
        let max_lat = a.code.ops.iter().map(|o| o.latency).max().unwrap_or(1);
        assert_eq!(problem.exact_mii, u32::MAX);
        assert_eq!(
            problem.mii,
            max_of_both_bounds(&a, &ddg, &m, len).max(max_lat)
        );
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
                    let delta = ma.offset - mb.offset;
                    match ma.coeff {
                        // A fixed element meets itself at every distance.
                        0 if delta == 0 => 1,
                        c if c != 0 && delta % c == 0 && delta / c > 0 => {
                            u32::try_from(delta / c).unwrap_or(u32::MAX)
                        }
                        _ => continue,
                    }
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
        // A fixed element is met again by every later iteration.
        let accumulator = "kernel a(in i32 s[], inout i32 acc[], out i32 d[]) {
            loop i { acc[0] = acc[0] + s[i]; d[i] = acc[0]; }
        }";
        let k = compile_kernel(accumulator, &[]).unwrap();
        assert!(omega_deps_equal_all_pairs(&k, "accumulator") > 0);
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
    fn stages_are_reported() {
        let spec = ArchSpec::new(4, 2, 128, 2, 4, 1).unwrap();
        let (ms, ..) = pipeline(PARALLEL, &spec);
        assert!(ms.stages() >= 1);
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
            let list = list_schedule(&a, &ddg, &m);
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
            let list = list_schedule(&a, &ddg, &m);
            // This thread's arena is warm from the calls above; a spawned
            // thread's is fresh.
            let run = || modulo_schedule(&a, &ddg, &m, list.length).expect("schedulable");
            let reused = run();
            let fresh = std::thread::scope(|s| s.spawn(run).join()).expect("no panic");
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
        let list = list_schedule(&a, &ddg, &m);
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

    /// `validate_slots` as first written: every op's reserved windows
    /// counted into one table, then every cell held to its row's units.
    fn counted_validate(
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
        counts
            .chunks_exact(stride)
            .zip(row_units)
            .all(|(cells, &units)| cells.iter().all(|&k| k <= units))
    }

    #[test]
    fn validation_in_the_table_equals_counting_every_cell() {
        use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
        // Accepted, refused for a resource, refused for a dependence.
        let verdicts = [const { AtomicU32::new(0) }; 3];
        cfp_testkit::cases(0x7a11_da7e, 600, |rng| {
            let n = rng.index(10);
            let rows = 1 + rng.index(4);
            let row_units: Vec<u32> = (0..rows)
                .map(|_| match rng.below(10) {
                    0 => 0,
                    1 => 65 + rng.below(8) as u32,
                    _ => 1 + rng.below(4) as u32,
                })
                .collect();
            let ii = match rng.below(8) {
                0 => 0,
                1 => 60 + rng.below(80) as u32, // past 64 and 128
                _ => 1 + rng.below(12) as u32,
            };
            // Each op's rows distinct, as `Mdes::reservations` lists them;
            // reservations short, or up to two IIs long.
            let reqs: Vec<Vec<ResReq>> = (0..n)
                .map(|_| {
                    let first = rng.index(rows);
                    let second = (first + 1 + rng.index(rows)) % rows;
                    let picked = if first == second || rng.below(2) == 0 {
                        vec![first]
                    } else {
                        vec![first, second]
                    };
                    picked
                        .into_iter()
                        .map(|row| ResReq {
                            row: row as u32,
                            reserved: 1 + match rng.below(4) {
                                0 => rng.below(2 * u64::from(ii) + 2),
                                _ => rng.below(3),
                            } as u32,
                        })
                        .collect()
                })
                .collect();
            let len = if rng.below(20) == 0 { n + 1 } else { n };
            let slots: Vec<u32> = (0..len)
                .map(|_| rng.below(4 * u64::from(ii) + 8) as u32)
                .collect();
            let deps: Vec<OmegaDep> = (0..if n == 0 { 0 } else { rng.index(3) })
                .map(|_| {
                    dep(
                        rng.index(n),
                        rng.index(n),
                        rng.below(3) as u32,
                        1 + rng.below(2) as u32,
                    )
                })
                .collect();
            let got = validate_slots(&row_units, &reqs, &deps, ii, &slots);
            let want = counted_validate(&row_units, &reqs, &deps, ii, &slots);
            assert_eq!(
                got, want,
                "ii={ii} units={row_units:?} reqs={reqs:?} slots={slots:?} deps={deps:?}"
            );
            let held = ii > 0 && len == n && deps.iter().all(|d| d.holds(ii, &slots));
            verdicts[match (got, held) {
                (true, _) => 0,
                (false, true) => 1,
                (false, false) => 2,
            }]
            .fetch_add(1, Relaxed);
        });
        let [accepted, resource, other] = verdicts.map(AtomicU32::into_inner);
        assert!(
            accepted >= 60 && resource >= 60 && other >= 30,
            "thin coverage: {accepted} accepted, {resource} refused for a resource, \
             {other} for a dependence, the II or the slot count"
        );
    }
}
