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
//! The II search starts at `max(ResMII, RecMII)` and walks upward, but it
//! does not walk blindly: ops are placed in a fixed order, so the
//! per-resource demand of the prefix up to a failed placement is the same
//! at every II. That demand is carried out of the failed attempt and
//! turned into a capacity bound — any II with `units × II < demand` must
//! fail the same way — letting the search jump straight past provably
//! infeasible IIs instead of probing each one (port-starved machines used
//! to scan hundreds). [`ModuloSchedule::ii_attempts`] reports how many
//! IIs were actually attempted. Fuel is spent per placement probe on
//! attempted IIs only; skipped IIs cost nothing (the found schedule is
//! identical, and the modulo scheduler is off the exploration's budgeted
//! path).
//!
//! Scope: this is an *analytical* scheduler. Its output is validated
//! structurally (every dependence satisfies
//! `slot(to) ≥ slot(from) + lat − II·ω`, no modulo resource is
//! oversubscribed, and a register-pressure estimate accounts for
//! lifetimes spanning `⌈L/II⌉` in-flight instances) — it is not executed
//! by the cycle-accurate simulator, which models the barrier machine.
//! See `EXPERIMENTS.md` ("pipelining" exhibit).

use crate::cluster::Assignment;
use crate::ddg::Ddg;
use crate::error::{Fuel, SchedError};
use crate::loopcode::LoopCode;
use crate::scratch::{row_has_room, row_take, SchedScratch};
use cfp_ir::Vreg;
use cfp_machine::{MachineResources, UnitClass};
use cfp_obs::{Stage, UnitTrace, Value};
use std::collections::HashMap;

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
    // `in` one iteration later.
    let mut def_of: HashMap<Vreg, usize> = HashMap::new();
    for (i, op) in code.ops.iter().enumerate() {
        if let Some(d) = op.def {
            def_of.insert(d, i);
        }
    }
    for &(inp, out) in &code.carried {
        let Some(&producer) = def_of.get(&out) else {
            continue; // pass-through carry: no producer op
        };
        for (i, op) in code.ops.iter().enumerate() {
            if op.uses.contains(&inp) {
                deps.push(OmegaDep {
                    from: producer,
                    to: i,
                    lat: code.ops[producer].latency,
                    omega: 1,
                });
            }
        }
    }

    // Loop-carried memory dependences: same array, conflicting elements
    // k iterations apart.
    let mems = code.mem_ops();
    for &a in &mems {
        for &b in &mems {
            let (ia, ib) = (
                code.ops[a].inst.expect("mem ops carry insts"),
                code.ops[b].inst.expect("mem ops carry insts"),
            );
            let (ma, mb) = (ia.mem().expect("mem"), ib.mem().expect("mem"));
            if ma.array != mb.array {
                continue;
            }
            if !ia.is_store() && !ib.is_store() {
                continue;
            }
            let omega = if ma.is_affine() && mb.is_affine() && ma.coeff == mb.coeff {
                if ma.coeff == 0 {
                    continue; // same fixed element: intra edges cover it
                }
                // a at iteration i touches coeff·i + oa; b at iteration
                // i+k touches coeff·(i+k) + ob: conflict iff
                // coeff·k = oa − ob.
                let delta = ma.offset - mb.offset;
                if delta % ma.coeff != 0 {
                    continue;
                }
                let k = delta / ma.coeff;
                if k <= 0 {
                    continue; // same-iteration (intra) or b-before-a direction
                }
                // A distance beyond u32 never constrains a real II;
                // saturate instead of trusting the cast.
                u32::try_from(k).unwrap_or(u32::MAX)
            } else {
                // Differing strides or a dynamic index: conservative.
                1
            };
            let lat = if ia.is_store() && !ib.is_store() {
                code.ops[a].latency // RAW across iterations
            } else {
                1 // WAR/WAW ordering
            };
            deps.push(OmegaDep {
                from: a,
                to: b,
                lat,
                omega,
            });
        }
    }
    deps
}

/// The resource-constrained lower bound on II.
#[must_use]
pub fn res_mii(code: &LoopCode, assignment: &Assignment, machine: &MachineResources) -> u32 {
    let nc = machine.cluster_count();
    let mut alu = vec![0_u32; nc];
    let mut mul = vec![0_u32; nc];
    let mut mem = vec![[0_u32; 2]; nc]; // busy cycles per level
    let mut branch = 0_u32;
    for (i, op) in code.ops.iter().enumerate() {
        let c = assignment.cluster_of_op[i] as usize;
        match machine.mdes.op(op.class).unit {
            UnitClass::Alu => alu[c] += 1,
            UnitClass::Mul => {
                alu[c] += 1;
                mul[c] += 1;
            }
            // A port is busy for the reservation duration the machine
            // description prescribes (the full latency when the port
            // does not pipeline, one cycle when it does).
            unit @ (UnitClass::L1Port | UnitClass::L2Port) => {
                let li = usize::from(unit == UnitClass::L2Port);
                mem[c][li] += machine.reserved_cycles(op.class);
            }
            UnitClass::Branch => branch += 1,
        }
    }
    let mut bound = branch.max(1);
    for c in 0..nc {
        let cl = &machine.clusters[c];
        if cl.alus > 0 {
            bound = bound.max(alu[c].div_ceil(cl.alus));
        }
        if cl.mul_capable > 0 {
            bound = bound.max(mul[c].div_ceil(cl.mul_capable));
        }
        if cl.l1_ports > 0 {
            bound = bound.max(mem[c][0].div_ceil(cl.l1_ports));
        }
        if cl.l2_ports > 0 {
            bound = bound.max(mem[c][1].div_ceil(cl.l2_ports));
        }
    }
    bound
}

/// The recurrence-constrained lower bound on II: the smallest II such
/// that no dependence cycle has positive slack deficit, found by binary
/// search with a longest-path feasibility check.
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
#[must_use]
pub fn rec_mii(n_ops: usize, deps: &[OmegaDep], hi_hint: u32) -> u32 {
    let feasible = |ii: u32| -> bool {
        // Positive-cycle detection on weights (lat − II·ω) via bounded
        // Bellman-Ford relaxation of longest paths.
        let mut dist = vec![0_i64; n_ops];
        for _round in 0..n_ops {
            let mut changed = false;
            for d in deps {
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
        false // still relaxing after n rounds: positive cycle
    };
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

/// Flat modulo-reservation-table indexing: one bitmask row per
/// (resource, residue). Resources are numbered `0..4·nc + 1`:
/// ALU per cluster, then IMUL per cluster, then the two memory levels
/// per cluster, then the single branch unit. The same numbering indexes
/// the demand counters the II-skip bound reads.
#[inline]
pub(crate) fn res_alu(c: usize) -> usize {
    c
}
#[inline]
pub(crate) fn res_mul(nc: usize, c: usize) -> usize {
    nc + c
}
#[inline]
pub(crate) fn res_mem(nc: usize, c: usize, li: usize) -> usize {
    2 * nc + 2 * c + li
}
#[inline]
pub(crate) fn res_branch(nc: usize) -> usize {
    4 * nc
}

/// One reservation an op makes in the flat modulo table: `units`
/// interchangeable resources on `row`, held for `reserved` consecutive
/// modulo slots starting at the op's issue slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResReq {
    /// Flat row index (the `res_*` numbering: ALU per cluster, IMUL per
    /// cluster, two memory levels per cluster, one branch row).
    pub row: u32,
    /// Interchangeable units backing the row for this op.
    pub units: u32,
    /// Consecutive modulo slots one placement occupies (1 for pipelined
    /// units, the full reservation for non-pipelined ports).
    pub reserved: u32,
}

/// The reservation requirements of every op, in the same flat row
/// numbering and with the same unit counts and reserved durations the
/// heuristic's placement probes use — the shared MDES plumbing behind
/// [`validate_modulo`] and the exact solver in [`crate::exact`].
/// Returns `(row_count, per-op requirements)`.
#[must_use]
pub fn op_requirements(
    code: &LoopCode,
    assignment: &Assignment,
    machine: &MachineResources,
) -> (usize, Vec<Vec<ResReq>>) {
    let nc = machine.cluster_count();
    let n_rows = 4 * nc + 1;
    let reqs = code
        .ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let c = assignment.cluster_of_op[i] as usize;
            let cl = &machine.clusters[c];
            let unit = machine.mdes.op(op.class).unit;
            match unit {
                UnitClass::Alu => vec![ResReq {
                    row: res_alu(c) as u32,
                    units: cl.alus,
                    reserved: 1,
                }],
                UnitClass::Mul => vec![
                    ResReq {
                        row: res_alu(c) as u32,
                        units: cl.alus,
                        reserved: 1,
                    },
                    ResReq {
                        row: res_mul(nc, c) as u32,
                        units: cl.mul_capable,
                        reserved: 1,
                    },
                ],
                UnitClass::L1Port | UnitClass::L2Port => {
                    let li = usize::from(unit == UnitClass::L2Port);
                    let ports = if li == 0 { cl.l1_ports } else { cl.l2_ports };
                    vec![ResReq {
                        row: res_mem(nc, c, li) as u32,
                        units: ports,
                        reserved: machine.reserved_cycles(op.class),
                    }]
                }
                UnitClass::Branch => vec![ResReq {
                    row: res_branch(nc) as u32,
                    units: u32::from(cl.has_branch),
                    reserved: 1,
                }],
            }
        })
        .collect();
    (n_rows, reqs)
}

/// Structural validator for a modulo schedule at initiation interval
/// `ii`: every dependence satisfies `slot(to) ≥ slot(from) + lat − II·ω`
/// and no reservation row is oversubscribed at any residue, counting
/// each op's reserved window exactly the way the scheduler's placement
/// probes do. Both the heuristic's schedules and the exact oracle's
/// certificates must pass this check — a feasibility claim that fails
/// it is a bug in whichever scheduler made it.
#[must_use]
pub fn validate_modulo(
    assignment: &Assignment,
    machine: &MachineResources,
    deps: &[OmegaDep],
    ii: u32,
    slots: &[u32],
) -> bool {
    let code = &assignment.code;
    if ii == 0 || slots.len() != code.ops.len() {
        return false;
    }
    if !deps.iter().all(|d| {
        i64::from(slots[d.to])
            >= i64::from(slots[d.from]) + i64::from(d.lat) - i64::from(ii) * i64::from(d.omega)
    }) {
        return false;
    }
    let (n_rows, reqs) = op_requirements(code, assignment, machine);
    let stride = ii as usize;
    let mut counts = vec![0_u32; n_rows * stride];
    for (i, rs) in reqs.iter().enumerate() {
        for r in rs {
            if r.units == 0 {
                return false;
            }
            for dt in 0..r.reserved {
                counts[r.row as usize * stride + ((slots[i] + dt) % ii) as usize] += 1;
            }
        }
    }
    // Capacity holds at every residue an op occupies, against that op's
    // own unit count (rows are shared; unit counts are per-cluster).
    reqs.iter().enumerate().all(|(i, rs)| {
        rs.iter().all(|r| {
            (0..r.reserved).all(|dt| {
                counts[r.row as usize * stride + ((slots[i] + dt) % ii) as usize] <= r.units
            })
        })
    })
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

/// [`modulo_schedule`] under a step budget: each placement attempt at
/// each candidate II spends fuel, so a machine whose II search space is
/// pathologically large degrades to [`SchedError::FuelExhausted`]
/// instead of stalling an exploration worker. The reservation rows, slot
/// array, intra-dependence index, and demand counters live in `scratch`'s
/// reused flat buffers.
///
/// Records one `modulo` span: the II the search settled on (or a
/// `feasible: false` / error token when it did not), the lower bound it
/// started from, how many candidate IIs it tried, and the fuel the
/// search charged.
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
    let before = fuel.spent();
    let t0 = trace.start();
    let out = search_ii(assignment, ddg, machine, list_length, fuel, scratch);
    let steps = fuel.spent() - before;
    match &out {
        Ok(Some(ms)) => trace.stage(
            Stage::Modulo,
            t0,
            &[
                ("ii", Value::U64(u64::from(ms.ii))),
                ("mii", Value::U64(u64::from(ms.mii))),
                ("ii_attempts", Value::U64(u64::from(ms.ii_attempts))),
                ("steps", Value::U64(steps)),
            ],
        ),
        Ok(None) => trace.stage(
            Stage::Modulo,
            t0,
            &[
                ("feasible", Value::Bool(false)),
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
    out
}

/// The II search behind [`try_modulo_schedule`].
#[allow(clippy::too_many_lines)] // one self-contained search loop
fn search_ii(
    assignment: &Assignment,
    ddg: &Ddg,
    machine: &MachineResources,
    list_length: u32,
    fuel: &mut Fuel,
    scratch: &mut SchedScratch,
) -> Result<Option<ModuloSchedule>, SchedError> {
    let code = &assignment.code;
    let n = code.ops.len();
    let nc = machine.cluster_count();
    let deps = omega_deps(code, ddg);
    let max_lat = code.ops.iter().map(|o| o.latency).max().unwrap_or(1);
    let mii = res_mii(code, assignment, machine)
        .max(rec_mii(n, &deps, list_length))
        .max(max_lat);

    let SchedScratch {
        mod_rows,
        mod_slots,
        mod_pred_row,
        mod_pred_from,
        mod_pred_lat,
        mod_demand,
        ..
    } = scratch;

    // Intra-iteration predecessors in CSR form, grouped by consumer —
    // built once, shared by every II attempt.
    mod_pred_row.clear();
    mod_pred_row.resize(n + 1, 0);
    for d in &deps {
        if d.omega == 0 {
            mod_pred_row[d.to + 1] += 1;
        }
    }
    for i in 0..n {
        mod_pred_row[i + 1] += mod_pred_row[i];
    }
    let m_intra = mod_pred_row[n] as usize;
    mod_pred_from.clear();
    mod_pred_from.resize(m_intra, 0);
    mod_pred_lat.clear();
    mod_pred_lat.resize(m_intra, 0);
    mod_slots.clear(); // borrow as the scatter cursor before its real job
    mod_slots.extend_from_slice(&mod_pred_row[..n]);
    for d in &deps {
        if d.omega == 0 {
            let at = mod_slots[d.to] as usize;
            mod_pred_from[at] = u32::try_from(d.from).expect("op count fits u32");
            mod_pred_lat[at] = d.lat;
            mod_slots[d.to] += 1;
        }
    }

    let nres = 4 * nc + 1;
    let limit = 4 * list_length.max(mii);
    let mut ii_attempts = 0_u32;
    let mut ii = mii;
    'outer: while ii <= limit {
        ii_attempts += 1;
        let stride = ii as usize;
        mod_rows.clear();
        mod_rows.resize(nres * stride, 0);
        mod_demand.clear();
        mod_demand.resize(nres, 0);
        mod_slots.clear();
        mod_slots.resize(n, u32::MAX);
        // Placement order: original index order, which is a topological
        // order over intra deps by construction of the loop code. The
        // order is II-independent, which is what makes the demand prefix
        // reusable as a skip bound.
        for i in 0..n {
            let op = &code.ops[i];
            let c = assignment.cluster_of_op[i] as usize;
            let cl = &machine.clusters[c];
            // Account this op's demand up front so a failure's bound
            // covers the op that needs the room, not just its prefix.
            // All resource accounting follows the unit binding the
            // description assigns to each class, so registered fused
            // classes draw from the unit they upgrade.
            let unit = machine.mdes.op(op.class).unit;
            match unit {
                UnitClass::Alu => mod_demand[res_alu(c)] += 1,
                UnitClass::Mul => {
                    mod_demand[res_alu(c)] += 1;
                    mod_demand[res_mul(nc, c)] += 1;
                }
                UnitClass::L1Port | UnitClass::L2Port => {
                    let li = usize::from(unit == UnitClass::L2Port);
                    mod_demand[res_mem(nc, c, li)] += u64::from(machine.reserved_cycles(op.class));
                }
                UnitClass::Branch => mod_demand[res_branch(nc)] += 1,
            }
            let est = (mod_pred_row[i] as usize..mod_pred_row[i + 1] as usize)
                .map(|e| mod_slots[mod_pred_from[e] as usize].saturating_add(mod_pred_lat[e]))
                .max()
                .unwrap_or(0);
            let mut placed = false;
            for slot in est..est.saturating_add(ii) {
                fuel.spend(1)?;
                let s = (slot % ii) as usize;
                let ok = match unit {
                    UnitClass::Alu => {
                        let row = &mut mod_rows[res_alu(c) * stride + s];
                        if row_has_room(*row, cl.alus) {
                            row_take(row, cl.alus);
                            true
                        } else {
                            false
                        }
                    }
                    UnitClass::Mul => {
                        if row_has_room(mod_rows[res_alu(c) * stride + s], cl.alus)
                            && row_has_room(mod_rows[res_mul(nc, c) * stride + s], cl.mul_capable)
                        {
                            row_take(&mut mod_rows[res_alu(c) * stride + s], cl.alus);
                            row_take(&mut mod_rows[res_mul(nc, c) * stride + s], cl.mul_capable);
                            true
                        } else {
                            false
                        }
                    }
                    UnitClass::Branch => {
                        let row = &mut mod_rows[res_branch(nc) * stride + s];
                        let units = u32::from(cl.has_branch);
                        if row_has_room(*row, units) {
                            row_take(row, units);
                            true
                        } else {
                            false
                        }
                    }
                    UnitClass::L1Port | UnitClass::L2Port => {
                        let li = usize::from(unit == UnitClass::L2Port);
                        let ports = if li == 0 { cl.l1_ports } else { cl.l2_ports };
                        let base = res_mem(nc, c, li) * stride;
                        // An access occupies its port for the reserved
                        // duration; one reservation longer than the II
                        // would collide with itself.
                        let reserved = machine.reserved_cycles(op.class);
                        if reserved > ii {
                            false
                        } else if (0..reserved).all(|dt| {
                            row_has_room(mod_rows[base + ((slot + dt) % ii) as usize], ports)
                        }) {
                            for dt in 0..reserved {
                                row_take(&mut mod_rows[base + ((slot + dt) % ii) as usize], ports);
                            }
                            true
                        } else {
                            false
                        }
                    }
                };
                if ok {
                    mod_slots[i] = slot;
                    placed = true;
                    break;
                }
            }
            if !placed {
                // The probe window spanned every residue, so this class
                // is out of capacity. Demand is II-independent (fixed
                // placement order), so any II whose total capacity
                // `units × II` is below the demand fails the same way —
                // jump straight past all of them.
                let bound = |demand: u64, units: u32| -> Option<u32> {
                    if units == 0 {
                        return None; // the resource does not exist at any II
                    }
                    Some(u32::try_from(demand.div_ceil(u64::from(units))).unwrap_or(u32::MAX))
                };
                let next = match unit {
                    UnitClass::Alu => bound(mod_demand[res_alu(c)], cl.alus),
                    UnitClass::Mul => match (
                        bound(mod_demand[res_alu(c)], cl.alus),
                        bound(mod_demand[res_mul(nc, c)], cl.mul_capable),
                    ) {
                        (Some(a), Some(m)) => Some(a.max(m)),
                        _ => None,
                    },
                    UnitClass::Branch => {
                        bound(mod_demand[res_branch(nc)], u32::from(cl.has_branch))
                    }
                    UnitClass::L1Port | UnitClass::L2Port => {
                        let li = usize::from(unit == UnitClass::L2Port);
                        let ports = if li == 0 { cl.l1_ports } else { cl.l2_ports };
                        bound(mod_demand[res_mem(nc, c, li)], ports)
                    }
                };
                let Some(next) = next else {
                    return Ok(None);
                };
                ii = (ii + 1).max(next);
                continue 'outer;
            }
        }
        // Check every dependence (including carried ones) at this II.
        let ok = deps.iter().all(|d| {
            i64::from(mod_slots[d.to])
                >= i64::from(mod_slots[d.from]) + i64::from(d.lat)
                    - i64::from(ii) * i64::from(d.omega)
        });
        if !ok {
            ii += 1;
            continue;
        }
        let pressure_estimate = pipeline_pressure(code, assignment, mod_slots, ii, machine);
        return Ok(Some(ModuloSchedule {
            ii,
            slots: mod_slots.clone(),
            mii,
            pressure_estimate,
            ii_attempts,
        }));
    }
    Ok(None)
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
    let mut last_use: HashMap<Vreg, u32> = HashMap::new();
    for (i, op) in code.ops.iter().enumerate() {
        for u in &op.uses {
            let e = last_use.entry(*u).or_insert(slots[i]);
            *e = (*e).max(slots[i]);
        }
    }
    let mut per_cluster = vec![0_u32; machine.cluster_count()];
    for (i, op) in code.ops.iter().enumerate() {
        let Some(d) = op.def else { continue };
        let c = assignment.cluster_of_op[i] as usize;
        let start = slots[i];
        let end = last_use.get(&d).copied().unwrap_or(start).max(start) + 1;
        let live = end - start;
        per_cluster[c] += live.div_ceil(ii).max(1);
    }
    per_cluster
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::assign;
    use crate::loopcode::LoopCode;
    use cfp_frontend::compile_kernel;
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
            assert!(
                i64::from(ms.slots[d.to])
                    >= i64::from(ms.slots[d.from]) + i64::from(d.lat)
                        - i64::from(ms.ii) * i64::from(d.omega),
                "{d:?}"
            );
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
        let deps = [
            OmegaDep {
                from: 0,
                to: 1,
                lat: 3,
                omega: 0,
            },
            OmegaDep {
                from: 1,
                to: 0,
                lat: 3,
                omega: 1,
            },
        ];
        assert_eq!(rec_mii(2, &deps, 4), 6);
        // No cycles → 1.
        let acyclic = [OmegaDep {
            from: 0,
            to: 1,
            lat: 9,
            omega: 0,
        }];
        assert_eq!(rec_mii(2, &acyclic, 4), 1);
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
}
