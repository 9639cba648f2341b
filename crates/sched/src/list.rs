//! Resource-constrained list scheduling.
//!
//! A classic cycle-driven list scheduler with critical-path priority.
//! Every resource fact is the machine description's reservation table
//! ([`cfp_machine::Mdes::reservations`], [`cfp_machine::Mdes::row_units`]):
//!
//! * an op issues when each row its class reserves on its cluster has a
//!   free unit — so a cluster issues at most `alus` ALU-class ops a
//!   cycle, of which at most `muls` multiplies (a multiply also holds an
//!   ALU slot);
//! * a reservation holds its row for its cycles: a non-pipelined memory
//!   port for the full access latency, a pipelined unit for one;
//! * the single branch unit lives on cluster 0, and the loop-closing
//!   branch is placed in the last instruction word;
//! * the loop is a barrier: the next iteration starts once every result
//!   of this one is complete (no software pipelining — matching the
//!   unroll-and-list-schedule discipline of the Multiflow line).
//!
//! Engineering (see DESIGN.md §11): each op has a rank, its place in
//! the arm's order (priority descending, index ascending), and ready
//! ops wait in one rank bitmap per (cluster, unit row their class binds
//! to) — the arena's `ReadyQueues`: push, pop and peek are word
//! operations, and a bitmap of occupied queues lets a cycle skip the
//! groups with nothing to issue. Queues that share a row form a group,
//! walked each cycle as one ascending stream of ranks; a row that
//! refuses one op refuses every lower-priority op behind it, so a full
//! row closes every queue holding it: a cycle costs O(ops issued +
//! occupied queues), not O(ops ready). Occupancy is a free-unit count
//! per row plus a ring, as long as the longest reservation, of the
//! units each cycle hands back — issue cycles never go down and a
//! reservation starts at its issue, so a row has a free unit at `t`
//! exactly when fewer than its units are reserved across `t`. Newly
//! eligible ops wait in a power-of-two calendar ring bucketed by
//! earliest legal cycle. A cycle that issues nothing changes nothing,
//! so every cycle after it repeats it until a bucket fills or a unit
//! comes back; the arm jumps there, charging each skipped cycle as the
//! cycle it repeats. The issue walk, each op's queue and the ResMII
//! tally depend on the machine and the assignment only, and are built
//! once for both arms. Every buffer lives in the calling thread's
//! arena. Schedules, fuel verdicts, and
//! [`crate::error::Fuel::spent`] step counts are bit-identical to the
//! straightforward flat-list implementation — fuel prices semantic scan
//! events (`1 + ops in play` per scan), not data-structure operations
//! (`tests/sched_equivalence.rs` pins all three).
//!
//! The portfolio ([`try_schedule`]) runs the critical-path arm, then
//! the source-order arm only if the first fell short of the lower bound
//! `max(critical path, ResMII)`. That stop is the one rule here that
//! moves step counts: a schedule certified optimal by the bound alone
//! costs one arm's fuel, and the schedule returned is unchanged.

use crate::cluster::Assignment;
use crate::ddg::Ddg;
use crate::error::{Fuel, SchedError};
use crate::loopcode::OpOrigin;
use crate::modulo::res_mii_of;
use crate::scratch::{with_arena, SchedScratch, EMPTY, NO_QUEUE};
use cfp_machine::{MachineResources, OpClass, EXTENSIONS};

/// Where one op landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Issue cycle.
    pub cycle: u32,
    /// Cluster.
    pub cluster: u32,
}

/// A complete schedule of one loop iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Placement of each op (indexed like the assigned loop code).
    pub placements: Vec<Placement>,
    /// Iteration length in cycles (the initiation interval of the
    /// non-overlapped loop).
    pub length: u32,
}

/// Hard cap so a scheduler bug cannot spin forever.
const MAX_CYCLES: u32 = 1 << 20;

/// One ready queue of the issue walk: the queue of reservation-table
/// row `row`, holding the reservations `lo..hi` of the scratch arena's
/// `walk_reqs` (the first on row `slot`, its issue slot), walked with the
/// queues issuing from the same slot row — the walk's queues
/// `start..end`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IssueQueue {
    start: u32,
    end: u32,
    row: u32,
    slot: u32,
    lo: usize,
    hi: usize,
}

/// An op's dependence state during an arm: its predecessors not yet
/// issued, and the earliest cycle the issued ones allow it. One record,
/// so a successor update touches one cache line.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Wait {
    preds: u32,
    earliest: u32,
}

/// Ready-list priority function — an ablation knob. Critical-path
/// priority is the classic choice (and this back end's default); source
/// order is the naive baseline that quantifies what the heuristic buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Longest dependence chain below the op (default).
    #[default]
    CriticalPath,
    /// Original program order.
    SourceOrder,
}

/// Schedule assigned loop code on the machine: a two-heuristic
/// portfolio. Critical-path priority wins on latency-bound code; source
/// order often wins on non-pipelined-port-bound code (it interleaves
/// accesses with their consumers instead of front-loading the longest
/// chains). The shorter schedule is kept — see the `priority` exhibit
/// for per-benchmark numbers. Failures are values: the portfolio stops
/// with a [`SchedError`] when `fuel` runs out or the cycle cap is hit,
/// so one pathological candidate cannot hang or abort a design-space
/// sweep. Working memory comes from the calling thread's arena, so a
/// thread sweeping many candidates allocates nothing but the returned
/// schedules.
///
/// The portfolio stops after the critical-path arm when that arm's
/// length meets the lower bound `max(critical path, ResMII)`
/// ([`Ddg::critical_path`], [`crate::modulo::res_mii`]): no schedule is
/// shorter, and a tie already goes to the critical-path arm, so the
/// source-order arm could not change the result — skipping it changes
/// only the fuel spent.
///
/// # Errors
/// [`SchedError::FuelExhausted`] when `fuel` runs dry;
/// [`SchedError::CycleCapExceeded`] past the internal cycle cap (a
/// resource the code needs but the machine lacks entirely — prevented by
/// `ArchSpec` validation and cluster assignment).
pub fn try_schedule(
    assignment: &Assignment,
    ddg: &Ddg,
    machine: &MachineResources,
    fuel: &mut Fuel,
) -> Result<Schedule, SchedError> {
    with_arena(|arena| portfolio_in(assignment, ddg, machine, fuel, arena).map(|run| run.schedule))
}

/// One run of the portfolio: the schedule kept, the lower bound the
/// critical-path arm was held to, and how many arms ran (1 when that arm
/// met the bound, 2 otherwise).
#[derive(Debug)]
pub(crate) struct Portfolio {
    pub(crate) schedule: Schedule,
    pub(crate) bound: u32,
    pub(crate) arms: u32,
}

/// [`try_schedule`] in a borrowed arena, reporting what the portfolio
/// ran.
pub(crate) fn portfolio_in(
    assignment: &Assignment,
    ddg: &Ddg,
    machine: &MachineResources,
    fuel: &mut Fuel,
    arena: &mut SchedScratch,
) -> Result<Portfolio, SchedError> {
    let core = issue_tables(assignment, machine, arena);
    let cp = arm(
        assignment,
        ddg,
        machine,
        Priority::CriticalPath,
        core,
        fuel,
        arena,
    )?;
    let bound = ddg.critical_path().max(core.res_mii);
    if cp.length == bound {
        return Ok(Portfolio {
            schedule: cp,
            bound,
            arms: 1,
        });
    }
    let so = arm(
        assignment,
        ddg,
        machine,
        Priority::SourceOrder,
        core,
        fuel,
        arena,
    )?;
    Ok(Portfolio {
        schedule: if so.length < cp.length { so } else { cp },
        bound,
        arms: 2,
    })
}

/// The scheduler proper: one arm of the portfolio, with an explicit
/// priority function. Fuel is spent once per issue scan, proportionally
/// to the number of ready ops examined, so the budget bounds real work —
/// not just cycles.
///
/// # Errors
/// As [`try_schedule`].
pub fn schedule_with(
    assignment: &Assignment,
    ddg: &Ddg,
    machine: &MachineResources,
    priority: Priority,
    fuel: &mut Fuel,
) -> Result<Schedule, SchedError> {
    with_arena(|arena| {
        let core = issue_tables(assignment, machine, arena);
        arm(assignment, ddg, machine, priority, core, fuel, arena)
    })
}

/// What [`issue_tables`] returns beside the tables it leaves in the
/// arena: the loop branch's index, the ring length in cycles (the
/// longest reservation of the walk) and the code's ResMII.
#[derive(Debug, Clone, Copy)]
struct IssueTables {
    branch: usize,
    span: usize,
    res_mii: u32,
}

/// The per-core half of the scheduler, shared by both arms: the issue
/// walk (`walk`, `walk_reqs`) read from the reservation table, and from
/// one pass over the ops each op's queue in it (`op_queue`), the cycles
/// it holds the schedule open (`op_lat`, its latency but at least one),
/// the loop branch, and the per-row busy cycles of
/// [`crate::modulo::res_mii`]. None of it depends on the priority.
fn issue_tables(
    assignment: &Assignment,
    machine: &MachineResources,
    arena: &mut SchedScratch,
) -> IssueTables {
    let SchedScratch {
        op_queue,
        op_lat,
        walk,
        walk_reqs,
        class_queue,
        class_ops,
        res_busy,
        ..
    } = arena;
    // On each cluster, every registered class but the branch (which
    // places last) queues on its unit's row; classes bound to one unit
    // reserve alike. Queues issuing from one slot row, their first
    // reservation, form a group: a multiply's queue joins the ALU queue
    // through the ALU slot it issues from. No other row is shared
    // ([`Mdes::reservations`]). `class_queue[c·COUNT + code]` is the
    // queue of class `code` on cluster `c`.
    let mdes = &machine.mdes;
    let nc = machine.cluster_count();
    let mut issues = [false; OpClass::COUNT];
    for class in mdes.registered_classes() {
        issues[class.code() as usize] = class != OpClass::Branch;
    }
    walk.clear();
    walk_reqs.clear();
    class_queue.clear();
    class_queue.resize(nc * OpClass::COUNT, NO_QUEUE);
    for c in 0..nc {
        let first = walk.len();
        for class in mdes.registered_classes() {
            let row = mdes.unit_row(class, c);
            if issues[class.code() as usize] && walk[first..].iter().all(|q| q.row != row) {
                let lo = walk_reqs.len();
                walk_reqs.extend(mdes.reservations(class, c));
                walk.push(IssueQueue {
                    start: 0,
                    end: 0,
                    row,
                    slot: walk_reqs[lo].row,
                    lo,
                    hi: walk_reqs.len(),
                });
            }
        }
        walk[first..].sort_unstable_by_key(|q| (q.slot, q.row));
        for k in (first..walk.len()).rev() {
            let next = walk.get(k + 1).filter(|q| q.slot == walk[k].slot);
            walk[k].end = next.map_or(k as u32 + 1, |q| q.end);
            assert!(walk[k].end as usize - k <= 64, "a group fits one mask word");
        }
        for k in first..walk.len() {
            let prev = walk[first..k].last().filter(|q| q.slot == walk[k].slot);
            walk[k].start = prev.map_or(k as u32, |q| q.start);
        }
        for class in mdes.registered_classes() {
            if issues[class.code() as usize] {
                let row = mdes.unit_row(class, c);
                let k = walk[first..].iter().position(|q| q.row == row);
                let k = first + k.expect("an issuing class has a queue");
                class_queue[c * OpClass::COUNT + class.code() as usize] = k as u32;
            }
        }
    }
    let span = walk_reqs.iter().map(|r| r.reserved).max().unwrap_or(1) as usize;
    op_queue.clear();
    op_lat.clear();
    class_ops.clear();
    class_ops.resize(nc * OpClass::COUNT, 0);
    let mut branch = None;
    for (i, (op, &c)) in assignment
        .code
        .ops
        .iter()
        .zip(&assignment.cluster_of_op)
        .enumerate()
    {
        let key = c as usize * OpClass::COUNT + op.class.code() as usize;
        op_queue.push(class_queue[key]);
        op_lat.push(op.latency.max(1));
        class_ops[key] += 1;
        if op.origin == OpOrigin::LoopBranch {
            branch = branch.or(Some(i));
        }
    }
    // ResMII: every op reserves its class's rows on its cluster,
    // registered or not — tallied per (cluster, class).
    let classes = OpClass::ALL
        .into_iter()
        .chain((0..EXTENSIONS.len()).map(|i| OpClass::Fused(i as u8)));
    let class_ops = &*class_ops;
    let tally = classes.enumerate().flat_map(|(k, class)| {
        let ops = move |c: usize| class_ops[c * OpClass::COUNT + k];
        (0..nc).map(move |c| (mdes.reservations(class, c), ops(c)))
    });
    IssueTables {
        branch: branch.expect("loop code always carries its branch"),
        span,
        res_mii: res_mii_of(mdes.row_units(), tally, res_busy),
    }
}

/// One arm of the portfolio over the tables [`issue_tables`] left in
/// `arena`.
#[allow(clippy::too_many_lines)] // the single hot loop of the back end
fn arm(
    assignment: &Assignment,
    ddg: &Ddg,
    machine: &MachineResources,
    priority: Priority,
    IssueTables { branch, span, .. }: IssueTables,
    fuel: &mut Fuel,
    arena: &mut SchedScratch,
) -> Result<Schedule, SchedError> {
    let n = assignment.code.ops.len();

    let SchedScratch {
        waits,
        issue,
        ready,
        issued,
        counts,
        cal,
        cal_next,
        op_queue,
        op_lat,
        room,
        ring,
        ring_back,
        walk,
        walk_reqs,
        ..
    } = arena;

    // Dependence bookkeeping.
    waits.clear();
    waits.extend((0..n).map(|i| Wait {
        preds: ddg.pred_count(i),
        earliest: 0,
    }));
    issue.clear();
    issue.resize(n, u32::MAX);

    // Occupancy (module doc): `room[row]` free units at the current
    // cycle, `ring[s·rows + row]` units handed back at the cycles of
    // ring slot `s` (`t mod span`), `ring_back[s]` their sum.
    room.clear();
    room.extend(machine.mdes.row_units());
    let rows = room.len();
    ring.clear();
    ring.resize(span * rows, 0);
    ring_back.clear();
    ring_back.resize(span, 0);
    ready.reset(
        (priority == Priority::CriticalPath).then_some(&ddg.height[..]),
        n,
        walk.len(),
    );

    // Enabled-but-unissued ops live in one of two structures: the ready
    // queue of their (cluster, unit row) — operands available, waiting
    // for a slot — or the calendar (operands still in flight; a ring of
    // buckets indexed by earliest legal cycle masked to the ring width,
    // bucket `b` a list from `cal[b]` through `cal_next`). An op enabled
    // at cycle `t` has its earliest cycle in `(t, t + max edge latency]`,
    // so a power-of-two ring wider than the longest edge never aliases
    // two distinct cycles. `in_play` counts both structures plus the ops
    // bound to no row (never queued, never issued) — the population the
    // original single ready list held, which is what fuel is priced on.
    let w = (ddg.max_latency() as usize + 1).next_power_of_two();
    let mask = w - 1;
    cal.clear();
    cal.resize(w, EMPTY);
    cal_next.clear();
    cal_next.resize(n, EMPTY);
    let mut in_play = 0_u64;
    for (i, wait) in waits.iter().enumerate() {
        if wait.preds == 0 && i != branch {
            cal_next[i] = cal[0];
            cal[0] = i as u32;
            in_play += 1;
        }
    }

    let mut scheduled = 0_usize;
    let total_non_branch = n - 1;

    // The walk's tables as plain slices, held in registers across it.
    let (walk, walk_reqs) = (&walk[..], &walk_reqs[..]);
    let (room, ring, ring_back) = (&mut room[..], &mut ring[..], &mut ring_back[..]);
    // The head rank of each queue of the group being walked.
    let mut heads = [0_u32; 64];
    // `ring`'s slot of cycle `t`: `t mod span`.
    let mut now = 0_usize;
    let mut t = 0_u32;
    // The last cycle that issued an op.
    let mut last_issue = 0;
    while scheduled < total_non_branch {
        if t >= MAX_CYCLES {
            return Err(SchedError::CycleCapExceeded { cap: MAX_CYCLES });
        }
        // Ops whose operands arrive at `t` graduate into their row's
        // queue. Branch places separately and classes with no registered
        // row never issue: neither is queued.
        let mut i = std::mem::replace(&mut cal[t as usize & mask], EMPTY);
        while i != EMPTY {
            let q = op_queue[i as usize];
            if q != NO_QUEUE {
                ready.push(q, i);
            }
            i = cal_next[i as usize];
        }
        // One fuel charge per issue scan, priced by the ops in play —
        // identical to the flat-list scheduler's accounting.
        fuel.spend(1 + in_play)?;
        issued.clear();
        // Reservations ending at `t` hand their units back.
        if ring_back[now] != 0 {
            ring_back[now] = 0;
            for (free, back) in room.iter_mut().zip(&mut ring[now * rows..(now + 1) * rows]) {
                *free += std::mem::take(back);
            }
        }
        let mut probes = 0;
        let mut g = 0;
        while let Some(q) = ready.occupied_from(g) {
            // The next group holding an op.
            let first = walk[q].start as usize;
            let group = &walk[first..walk[q].end as usize];
            g = first + group.len();
            // The group's queues as one ascending stream of ranks. A row
            // that refuses one op refuses every lower-priority op behind
            // it, so a full row closes every queue holding it.
            let mut open = 0_u64;
            for (j, (head, &rank)) in heads
                .iter_mut()
                .zip(ready.heads(first, group.len()))
                .enumerate()
            {
                *head = rank;
                open |= u64::from(rank != EMPTY) << j;
            }
            while open != 0 {
                let mut j = open.trailing_zeros() as usize;
                let mut rest = open & (open - 1);
                while rest != 0 {
                    let k = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    if heads[k] < heads[j] {
                        j = k;
                    }
                }
                probes += 1;
                // Every queue of the group holds its slot row; a later
                // row is this queue's unit's own.
                let q = &group[j];
                if room[q.slot as usize] == 0 {
                    open = 0;
                    continue;
                }
                if room[q.row as usize] == 0 {
                    open &= !(1 << j);
                    continue;
                }
                for r in &walk_reqs[q.lo..q.hi] {
                    room[r.row as usize] -= 1;
                    let mut at = now + r.reserved as usize;
                    if at >= span {
                        at -= span;
                    }
                    ring[at * rows + r.row as usize] += 1;
                    ring_back[at] += 1;
                }
                issued.push(ready.op(heads[j]));
                let q = (first + j) as u32;
                ready.pop(q);
                heads[j] = ready.head(q);
                if heads[j] == EMPTY {
                    open &= !(1 << j);
                }
            }
        }
        counts.list_probes += probes;
        if issued.is_empty() {
            // Nothing changes until operands arrive or a unit comes
            // back, so each cycle before that replays this one: same
            // probes, same charge (a budget that runs out inside the
            // stretch fails at the same cycle, with the same spend).
            // With nothing in flight at all, that is the cycle cap.
            let horizon = mask.max(span);
            let quiet = |d: usize| {
                cal[(t as usize + d) & mask] == EMPTY && ring_back[(now + d) % span] == 0
            };
            let idle = (1..=horizon)
                .find(|&d| !quiet(d))
                .map_or(MAX_CYCLES - t, |d| d as u32)
                - 1;
            for _ in 0..idle {
                t += 1;
                if t >= MAX_CYCLES {
                    return Err(SchedError::CycleCapExceeded { cap: MAX_CYCLES });
                }
                fuel.spend(1 + in_play)?;
                counts.list_probes += probes;
            }
            now = (now + idle as usize) % span;
        } else {
            last_issue = t;
            scheduled += issued.len();
            in_play -= issued.len() as u64;
            for &i in issued.iter() {
                let i = i as usize;
                issue[i] = t;
                for d in ddg.succs(i) {
                    let to = d.to as usize;
                    let wait = &mut waits[to];
                    wait.preds -= 1;
                    wait.earliest = wait.earliest.max(t + d.lat);
                    if wait.preds == 0 && to != branch {
                        // Every dependence carries latency ≥ 1, so a
                        // newly enabled op is never eligible this cycle
                        // and the queues are stable during the walk.
                        let b = wait.earliest as usize & mask;
                        cal_next[to] = cal[b];
                        cal[b] = to as u32;
                        in_play += 1;
                    }
                }
            }
            // The original scheduler re-scanned after a productive pass
            // and found nothing (monotone resources, latencies ≥ 1);
            // charge that scan.
            fuel.spend(1 + in_play)?;
        }
        t += 1;
        now += 1;
        if now == span {
            now = 0;
        }
    }

    // Branch in the last word (or later if its own operand is not ready).
    issue[branch] = last_issue.max(waits[branch].earliest);

    let mut length = issue[branch] + 1;
    for (&t, &lat) in issue.iter().zip(op_lat.iter()) {
        length = length.max(t + lat);
    }

    let placements = (0..n)
        .map(|i| Placement {
            cycle: issue[i],
            cluster: assignment.cluster_of_op[i],
        })
        .collect();
    Ok(Schedule { placements, length })
}

/// Pretty-print a schedule as one line per cycle (used by examples and
/// the quickstart). Allocation happens only here, at print time: the
/// cycle walk uses a sorted index cursor, not per-cycle bucket vectors.
#[must_use]
pub fn render(schedule: &Schedule, assignment: &Assignment) -> String {
    use std::fmt::Write as _;
    let mut order: Vec<usize> = (0..schedule.placements.len()).collect();
    order.sort_unstable_by_key(|&i| (schedule.placements[i].cycle, i));
    let mut out = String::with_capacity(order.len() * 24 + schedule.length as usize * 8);
    let mut cursor = 0_usize;
    for t in 0..schedule.length {
        let _ = write!(out, "{t:4}: ");
        let start = cursor;
        while cursor < order.len() && schedule.placements[order[cursor]].cycle == t {
            let i = order[cursor];
            cursor += 1;
            let op = &assignment.code.ops[i];
            let desc = match (&op.inst, op.origin) {
                (Some(inst), _) => inst.to_string(),
                (None, OpOrigin::Move { src, to }) => format!("mov.x {src}->cl{to}"),
                (None, OpOrigin::StreamBump(a)) => format!("bump {a}"),
                (None, OpOrigin::Induction) => "i += U".to_owned(),
                (None, OpOrigin::LoopTest) => "cmp i, n".to_owned(),
                (None, OpOrigin::LoopBranch) => "br loop".to_owned(),
                (None, OpOrigin::Body(_)) => unreachable!("body ops carry insts"),
            };
            let _ = write!(out, "[c{} {desc}]  ", assignment.cluster_of_op[i]);
        }
        if cursor == start {
            out.push_str("(stall)");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::assign;
    use crate::loopcode::{FuClass, LoopCode};
    use cfp_frontend::compile_kernel;
    use cfp_machine::{ArchSpec, UnitClass};

    fn schedule(a: &Assignment, ddg: &Ddg, m: &MachineResources) -> Schedule {
        try_schedule(a, ddg, m, &mut Fuel::unlimited()).expect("unlimited fuel")
    }

    fn sched_for(src: &str, spec: &ArchSpec) -> (Schedule, Assignment, Ddg, MachineResources) {
        let k = compile_kernel(src, &[]).unwrap();
        let m = MachineResources::from_spec(spec);
        let code = LoopCode::build(&k, &m);
        let pre = Ddg::build(&code);
        let a = assign(&code, &pre, &m);
        let ddg = Ddg::build(&a.code);
        let s = schedule(&a, &ddg, &m);
        (s, a, ddg, m)
    }

    const WIDE: &str = "kernel w(in u8 s[], out i32 d[]) {
        loop i {
            var a = s[4*i] * 3;
            var b = s[4*i+1] * 5;
            var c = s[4*i+2] * 7;
            var e = s[4*i+3] * 9;
            d[i] = (a + b) + (c + e);
        }
    }";

    #[test]
    fn every_op_is_placed_and_deps_hold() {
        let (s, _a, ddg, _) = sched_for(WIDE, &ArchSpec::new(4, 2, 128, 2, 4, 1).unwrap());
        for (i, p) in s.placements.iter().enumerate() {
            assert!(p.cycle < s.length, "op {i}");
        }
        for d in ddg.edges() {
            assert!(
                s.placements[d.to as usize].cycle >= s.placements[d.from as usize].cycle + d.lat,
                "dep {} -> {} violated",
                d.from,
                d.to
            );
        }
    }

    #[test]
    fn schedule_respects_alu_and_mul_limits() {
        let spec = ArchSpec::new(2, 1, 64, 2, 4, 1).unwrap();
        let (s, a, _, m) = sched_for(WIDE, &spec);
        let mut alu = vec![0; s.length as usize];
        let mut mul = vec![0; s.length as usize];
        for (op, p) in a.code.ops.iter().zip(&s.placements) {
            let t = p.cycle as usize;
            match op.class {
                FuClass::Alu => alu[t] += 1,
                FuClass::Mul => {
                    alu[t] += 1;
                    mul[t] += 1;
                }
                _ => {}
            }
        }
        let (alus, muls) = (
            m.mdes.units(0, UnitClass::Alu),
            m.mdes.units(0, UnitClass::Mul),
        );
        assert!(alu.iter().all(|&n| n <= alus), "alu oversubscribed");
        assert!(mul.iter().all(|&n| n <= muls), "mul oversubscribed");
    }

    #[test]
    fn non_pipelined_ports_throttle_memory() {
        // 5 loads/iter, 1 L2 port, latency 4 → at least 5·4 cycles.
        let (s, _, _, _) = sched_for(WIDE, &ArchSpec::new(4, 2, 128, 1, 4, 1).unwrap());
        assert!(s.length >= 20, "length {}", s.length);
        // Same code, 4 ports: much shorter.
        let (s4, _, _, _) = sched_for(WIDE, &ArchSpec::new(4, 2, 128, 4, 4, 1).unwrap());
        assert!(s4.length < s.length, "{} !< {}", s4.length, s.length);
    }

    #[test]
    fn more_alus_shorten_wide_code() {
        let (s1, ..) = sched_for(WIDE, &ArchSpec::new(1, 1, 64, 4, 4, 1).unwrap());
        let (s8, ..) = sched_for(WIDE, &ArchSpec::new(8, 4, 64, 4, 4, 1).unwrap());
        assert!(s8.length < s1.length, "{} !< {}", s8.length, s1.length);
    }

    #[test]
    fn branch_is_in_the_last_word() {
        let (s, a, ..) = sched_for(WIDE, &ArchSpec::new(4, 2, 128, 2, 4, 1).unwrap());
        let bi = a.code.branch_index();
        let last_issue = s
            .placements
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != bi)
            .map(|(_, p)| p.cycle)
            .max()
            .unwrap();
        assert!(s.placements[bi].cycle >= last_issue);
    }

    #[test]
    fn length_covers_all_latencies() {
        let (s, a, ..) = sched_for(WIDE, &ArchSpec::new(4, 2, 128, 2, 8, 1).unwrap());
        for (i, p) in s.placements.iter().enumerate() {
            assert!(p.cycle + a.code.ops[i].latency <= s.length);
        }
    }

    #[test]
    fn portfolio_takes_the_best_of_both_priorities() {
        for spec in [
            ArchSpec::new(2, 1, 64, 1, 8, 1).unwrap(),
            ArchSpec::new(4, 2, 128, 1, 4, 1).unwrap(),
            ArchSpec::new(8, 4, 256, 2, 4, 2).unwrap(),
        ] {
            let k = cfp_frontend::compile_kernel(WIDE, &[]).unwrap();
            let m = MachineResources::from_spec(&spec);
            let code = crate::loopcode::LoopCode::build(&k, &m);
            let pre = Ddg::build(&code);
            let a = assign(&code, &pre, &m);
            let ddg = Ddg::build(&a.code);
            let arm = |p| schedule_with(&a, &ddg, &m, p, &mut Fuel::unlimited()).expect("fuel");
            let (cp, so) = (arm(Priority::CriticalPath), arm(Priority::SourceOrder));
            let best = schedule(&a, &ddg, &m);
            assert_eq!(best.length, cp.length.min(so.length), "{spec}");
        }
    }

    #[test]
    fn tiny_fuel_stops_the_scheduler_with_a_typed_error() {
        let k = compile_kernel(WIDE, &[]).unwrap();
        let m = MachineResources::from_spec(&ArchSpec::new(4, 2, 128, 2, 4, 1).unwrap());
        let code = LoopCode::build(&k, &m);
        let pre = Ddg::build(&code);
        let a = assign(&code, &pre, &m);
        let ddg = Ddg::build(&a.code);
        let mut fuel = Fuel::limited(1);
        let err = try_schedule(&a, &ddg, &m, &mut fuel).expect_err("one step cannot be enough");
        assert_eq!(err, SchedError::FuelExhausted { budget: 1 });
    }

    #[test]
    fn ample_fuel_reproduces_the_unlimited_schedule() {
        let k = compile_kernel(WIDE, &[]).unwrap();
        let m = MachineResources::from_spec(&ArchSpec::new(4, 2, 128, 2, 4, 1).unwrap());
        let code = LoopCode::build(&k, &m);
        let pre = Ddg::build(&code);
        let a = assign(&code, &pre, &m);
        let ddg = Ddg::build(&a.code);
        let mut fuel = Fuel::limited(1 << 20);
        let budgeted = try_schedule(&a, &ddg, &m, &mut fuel).expect("plenty of fuel");
        assert_eq!(budgeted, schedule(&a, &ddg, &m));
        // Fuel spending is deterministic, so the leftover is too.
        let mut again = Fuel::limited(1 << 20);
        let _ = try_schedule(&a, &ddg, &m, &mut again).expect("plenty of fuel");
        assert_eq!(fuel.remaining(), again.remaining());
    }

    #[test]
    fn a_warmed_arena_changes_nothing() {
        for spec in [
            ArchSpec::new(4, 2, 128, 2, 4, 1).unwrap(),
            ArchSpec::new(2, 1, 64, 1, 8, 1).unwrap(),
            ArchSpec::new(8, 4, 256, 2, 4, 2).unwrap(),
        ] {
            let k = compile_kernel(WIDE, &[]).unwrap();
            let m = MachineResources::from_spec(&spec);
            let code = LoopCode::build(&k, &m);
            let pre = Ddg::build(&code);
            let a = assign(&code, &pre, &m);
            let ddg = Ddg::build(&a.code);
            let (mut fresh_fuel, arena) = (Fuel::limited(1 << 20), &mut SchedScratch::default());
            let fresh = portfolio_in(&a, &ddg, &m, &mut fresh_fuel, arena).expect("fuel");
            let mut reused_fuel = Fuel::limited(1 << 20);
            let reused = try_schedule(&a, &ddg, &m, &mut reused_fuel).expect("fuel");
            assert_eq!(fresh.schedule, reused, "{spec}");
            assert_eq!(fresh_fuel.remaining(), reused_fuel.remaining(), "{spec}");
        }
    }

    #[test]
    fn render_mentions_every_cycle() {
        let (s, a, ..) = sched_for(WIDE, &ArchSpec::new(2, 1, 64, 1, 4, 1).unwrap());
        let text = render(&s, &a);
        assert_eq!(text.lines().count(), s.length as usize);
        assert!(text.contains("br loop"));
    }
}
