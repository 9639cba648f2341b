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
//! Engineering (see DESIGN.md §11): ready ops wait in one binary heap of
//! packed `(priority, !index)` keys per (cluster, unit row their class
//! binds to). Queues that share a row form a group, walked each cycle as
//! one descending stream; a row that refuses one op refuses every
//! lower-priority op behind it, so a full row closes every queue holding
//! it: a cycle costs O(ops issued + queues), not O(ops ready). Occupancy
//! is a free-unit count per row plus a ring, as long as the longest
//! reservation, of the units each cycle hands back — issue cycles never
//! go down and a reservation starts at its issue, so a row has a free
//! unit at `t` exactly when fewer than its units are reserved across
//! `t`. Newly eligible ops wait in a calendar ring bucketed by earliest
//! legal cycle, and every buffer lives in a caller-provided
//! [`SchedScratch`]. Schedules, fuel verdicts, and
//! [`crate::error::Fuel::spent`] step counts are bit-identical to the
//! straightforward flat-list implementation — fuel prices semantic scan
//! events (`1 + ops in play` per scan), not data-structure operations
//! (`tests/sched_equivalence.rs` pins all three).
//!
//! The portfolio ([`try_schedule_in`]) runs the critical-path arm, then
//! the source-order arm only if the first fell short of the lower bound
//! `max(critical path, ResMII)`. That stop is the one rule here that
//! moves step counts: a schedule certified optimal by the bound alone
//! costs one arm's fuel, and the schedule returned is unchanged.

use crate::cluster::Assignment;
use crate::ddg::Ddg;
use crate::error::{Fuel, SchedError};
use crate::loopcode::OpOrigin;
use crate::modulo::res_mii_in;
use crate::scratch::SchedScratch;
use cfp_machine::{MachineResources, OpClass};
use std::collections::BinaryHeap;

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

impl Schedule {
    /// Ops grouped by cycle, for display and the simulator. Buckets are
    /// sized by a counting pass first, so each is allocated exactly once.
    #[must_use]
    pub fn by_cycle(&self) -> Vec<Vec<usize>> {
        let mut counts = vec![0_usize; self.length as usize];
        for p in &self.placements {
            counts[p.cycle as usize] += 1;
        }
        let mut words: Vec<Vec<usize>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for (i, p) in self.placements.iter().enumerate() {
            words[p.cycle as usize].push(i);
        }
        words
    }
}

/// Hard cap so a scheduler bug cannot spin forever.
const MAX_CYCLES: u32 = 1 << 20;

/// `op_queue` of an op that never issues (the branch, unregistered classes).
const NO_QUEUE: u32 = u32::MAX;

/// One ready queue of the issue walk: the queue of reservation-table
/// row `row`, holding the reservations `lo..hi` of the scratch arena's
/// `walk_reqs`, walked with the queues issuing from the same slot row —
/// the walk's queues before index `end`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IssueQueue {
    end: u32,
    row: u32,
    lo: usize,
    hi: usize,
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
/// for per-benchmark numbers.
///
/// # Panics
/// Panics if the schedule exceeds an internal cycle cap (indicates a
/// resource the code needs but the machine lacks entirely — prevented by
/// `ArchSpec` validation and cluster assignment). Sweeps over untrusted
/// machine candidates should call [`try_schedule`] instead.
#[must_use]
pub fn schedule(assignment: &Assignment, ddg: &Ddg, machine: &MachineResources) -> Schedule {
    match try_schedule(assignment, ddg, machine, &mut Fuel::unlimited()) {
        Ok(s) => s,
        Err(e) => panic!("list scheduling failed under unlimited fuel: {e}"),
    }
}

/// [`schedule`], but failures are values: the portfolio stops with a
/// [`SchedError`] when `fuel` runs out or the cycle cap is hit, so one
/// pathological candidate cannot hang or abort a design-space sweep.
///
/// # Errors
/// [`SchedError::FuelExhausted`] when `fuel` runs dry;
/// [`SchedError::CycleCapExceeded`] past the internal cycle cap.
pub fn try_schedule(
    assignment: &Assignment,
    ddg: &Ddg,
    machine: &MachineResources,
    fuel: &mut Fuel,
) -> Result<Schedule, SchedError> {
    try_schedule_in(assignment, ddg, machine, fuel, &mut SchedScratch::new())
}

/// [`try_schedule`] with working memory from `scratch`. A worker thread
/// sweeping many candidates passes the same arena every time and the
/// steady state allocates nothing but the returned schedules.
///
/// The portfolio stops after the critical-path arm when that arm's
/// length meets the lower bound `max(critical path, ResMII)`
/// ([`Ddg::critical_path`], [`crate::modulo::res_mii`]): no schedule is
/// shorter, and a tie already goes to the critical-path arm, so the
/// source-order arm could not change the result — skipping it changes
/// only the fuel spent.
///
/// # Errors
/// As [`try_schedule`].
pub fn try_schedule_in(
    assignment: &Assignment,
    ddg: &Ddg,
    machine: &MachineResources,
    fuel: &mut Fuel,
    scratch: &mut SchedScratch,
) -> Result<Schedule, SchedError> {
    portfolio_in(assignment, ddg, machine, fuel, scratch).map(|run| run.schedule)
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

/// [`try_schedule_in`], reporting what the portfolio ran.
pub(crate) fn portfolio_in(
    assignment: &Assignment,
    ddg: &Ddg,
    machine: &MachineResources,
    fuel: &mut Fuel,
    scratch: &mut SchedScratch,
) -> Result<Portfolio, SchedError> {
    let cp = schedule_with_fuel_in(
        assignment,
        ddg,
        machine,
        Priority::CriticalPath,
        fuel,
        scratch,
    )?;
    let bound = ddg
        .critical_path()
        .max(res_mii_in(&assignment.code, assignment, machine, scratch));
    if cp.length == bound {
        return Ok(Portfolio {
            schedule: cp,
            bound,
            arms: 1,
        });
    }
    let so = schedule_with_fuel_in(
        assignment,
        ddg,
        machine,
        Priority::SourceOrder,
        fuel,
        scratch,
    )?;
    Ok(Portfolio {
        schedule: if so.length < cp.length { so } else { cp },
        bound,
        arms: 2,
    })
}

/// [`schedule`] with an explicit priority function.
///
/// # Panics
/// As [`schedule`].
#[must_use]
pub fn schedule_with(
    assignment: &Assignment,
    ddg: &Ddg,
    machine: &MachineResources,
    priority: Priority,
) -> Schedule {
    let (fuel, scratch) = (&mut Fuel::unlimited(), &mut SchedScratch::new());
    match schedule_with_fuel_in(assignment, ddg, machine, priority, fuel, scratch) {
        Ok(s) => s,
        Err(e) => panic!("list scheduling failed under unlimited fuel: {e}"),
    }
}

/// Pack a ready-queue key: priority in the high half, bit-inverted index
/// in the low half, so the greatest key is the highest priority and the
/// lowest index on ties — the exact order a sorted ready list produces.
/// Indices are unique, so the order is total.
#[inline]
fn ready_key(pri: u32, i: usize) -> u64 {
    (u64::from(pri) << 32) | u64::from(u32::MAX - i as u32)
}

#[inline]
fn key_index(key: u64) -> usize {
    (u32::MAX - (key as u32)) as usize
}

/// The scheduler proper: one priority function, an explicit step budget,
/// working memory from `scratch`. Fuel is spent once per issue scan,
/// proportionally to the number of ready ops examined, so the budget
/// bounds real work — not just cycles.
///
/// # Errors
/// As [`try_schedule`].
#[allow(clippy::too_many_lines)] // the single hot loop of the back end
pub fn schedule_with_fuel_in(
    assignment: &Assignment,
    ddg: &Ddg,
    machine: &MachineResources,
    priority: Priority,
    fuel: &mut Fuel,
    scratch: &mut SchedScratch,
) -> Result<Schedule, SchedError> {
    let code = &assignment.code;
    let n = code.ops.len();
    let branch = code.branch_index();
    let nc = machine.cluster_count();

    let SchedScratch {
        pending,
        earliest,
        issue,
        queues,
        issued,
        list_probes,
        cal,
        op_queue,
        room,
        ring,
        walk,
        walk_reqs,
        ..
    } = scratch;

    // Dependence bookkeeping.
    pending.clear();
    pending.extend((0..n).map(|i| ddg.pred_count(i)));
    earliest.clear();
    earliest.resize(n, 0);
    issue.clear();
    issue.resize(n, u32::MAX);

    // The issue walk, read from the reservation table. On each cluster,
    // every registered class but the branch (which places last) queues
    // on its unit's row; classes bound to one unit reserve alike. Queues
    // issuing from one slot row, their first reservation, form a group:
    // a multiply's queue joins the ALU queue through the ALU slot it
    // issues from. No other row is shared ([`Mdes::reservations`]).
    let mdes = &machine.mdes;
    let mut issues = [false; OpClass::COUNT];
    for class in mdes.registered_classes() {
        issues[class.code() as usize] = class != OpClass::Branch;
    }
    walk.clear();
    walk_reqs.clear();
    for c in 0..nc {
        let first = walk.len();
        for class in mdes.registered_classes() {
            let row = mdes.unit_row(class, c);
            if issues[class.code() as usize] && walk[first..].iter().all(|q| q.row != row) {
                let lo = walk_reqs.len();
                walk_reqs.extend(mdes.reservations(class, c));
                let hi = walk_reqs.len();
                walk.push(IssueQueue {
                    end: 0,
                    row,
                    lo,
                    hi,
                });
            }
        }
        let slot = |q: &IssueQueue| walk_reqs[q.lo].row;
        walk[first..].sort_unstable_by_key(|q| (slot(q), q.row));
        for k in (first..walk.len()).rev() {
            let next = walk.get(k + 1).filter(|q| slot(q) == slot(&walk[k]));
            walk[k].end = next.map_or(k as u32 + 1, |q| q.end);
            assert!(walk[k].end as usize - k <= 64, "a group fits one mask word");
        }
    }
    // Occupancy (module doc): `room[row]` free units at the current
    // cycle, `ring[(t mod span)·rows + row]` units handed back at `t`.
    let span = walk_reqs.iter().map(|r| r.reserved).max().unwrap_or(1) as usize;
    room.clear();
    room.extend(mdes.row_units());
    let rows = room.len();
    ring.clear();
    ring.resize(span * rows, 0);
    op_queue.clear();
    for (op, &c) in code.ops.iter().zip(&assignment.cluster_of_op) {
        let row = issues[op.class.code() as usize].then(|| mdes.unit_row(op.class, c as usize));
        op_queue.push(row.unwrap_or(NO_QUEUE));
    }

    let pri_of = |i: usize| match priority {
        Priority::CriticalPath => ddg.height[i],
        Priority::SourceOrder => 0,
    };

    // Enabled-but-unissued ops live in one of two structures: the ready
    // queue of their (cluster, unit row) — operands available, waiting
    // for a slot — or `cal` (operands still in flight; a calendar ring of
    // buckets indexed by earliest legal cycle mod the ring width). An op
    // enabled at cycle `t` has its earliest cycle in
    // `(t, t + max edge latency]`, so a ring of `max edge latency + 1`
    // buckets never aliases two distinct cycles. `in_play` counts both
    // structures plus the ops bound to no row (never queued, never
    // issued) — the population the original single ready list held,
    // which is what fuel is priced on.
    let w = 1 + ddg.edges().iter().map(|d| d.lat).max().unwrap_or(0) as usize;
    for bucket in cal.iter_mut() {
        bucket.clear(); // stale entries from an errored prior run
    }
    if cal.len() < w {
        cal.resize_with(w, Vec::new);
    }
    for q in queues.iter_mut() {
        q.clear(); // likewise
    }
    if queues.len() < rows {
        queues.resize_with(rows, BinaryHeap::new);
    }
    let mut in_play = 0_u64;
    for (i, &p) in pending.iter().enumerate() {
        if p == 0 && i != branch {
            cal[0].push(i as u32);
            in_play += 1;
        }
    }

    let mut scheduled = 0_usize;
    let total_non_branch = n - 1;

    // The walk's tables as plain slices, held in registers across it.
    let (walk, walk_reqs) = (&walk[..], &walk_reqs[..]);
    let (room, ring, queues) = (&mut room[..], &mut ring[..], &mut queues[..]);
    // The head key of each queue of the group being walked.
    let mut heads = [0_u64; 64];
    // `ring`'s slot of cycle `t`: `(t mod span)·rows`.
    let mut now = 0_usize;
    let mut t = 0_u32;
    while scheduled < total_non_branch {
        if t >= MAX_CYCLES {
            return Err(SchedError::CycleCapExceeded { cap: MAX_CYCLES });
        }
        // Ops whose operands arrive at `t` graduate into their row's
        // queue. Branch places separately and classes with no registered
        // row never issue: neither is queued.
        let bucket = &mut cal[t as usize % w];
        for &i in bucket.iter() {
            let q = op_queue[i as usize];
            if q != NO_QUEUE {
                queues[q as usize].push(ready_key(pri_of(i as usize), i as usize));
            }
        }
        bucket.clear();
        // One fuel charge per issue scan, priced by the ops in play —
        // identical to the flat-list scheduler's accounting.
        fuel.spend(1 + in_play)?;
        issued.clear();
        // Reservations ending at `t` hand their units back.
        for (free, back) in room.iter_mut().zip(&mut ring[now..now + rows]) {
            *free += std::mem::take(back);
        }
        let mut probes = 0;
        let mut g = 0;
        while g < walk.len() {
            let group = &walk[g..walk[g].end as usize];
            g += group.len();
            // The group's queues as one descending stream. A row that
            // refuses one op refuses every lower-priority op behind it,
            // so a full row closes every queue holding it for the cycle.
            let mut open = 0_u64;
            for (j, q) in group.iter().enumerate() {
                if let Some(&key) = queues[q.row as usize].peek() {
                    heads[j] = key;
                    open |= 1 << j;
                }
            }
            while open != 0 {
                let mut j = open.trailing_zeros() as usize;
                let mut rest = open & (open - 1);
                while rest != 0 {
                    let k = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    if heads[k] > heads[j] {
                        j = k;
                    }
                }
                probes += 1;
                let reqs = &walk_reqs[group[j].lo..group[j].hi];
                if let Some(full) = reqs.iter().find(|r| room[r.row as usize] == 0) {
                    // Every queue of the group holds its slot row; a later
                    // row is this queue's unit's own.
                    open &= if full.row == reqs[0].row {
                        0
                    } else {
                        !(1 << j)
                    };
                    continue;
                }
                for r in reqs {
                    room[r.row as usize] -= 1;
                    let mut at = now + r.reserved as usize * rows;
                    if at >= ring.len() {
                        at -= ring.len();
                    }
                    ring[at + r.row as usize] += 1;
                }
                issued.push(key_index(heads[j]) as u32);
                let queue = &mut queues[group[j].row as usize];
                queue.pop();
                match queue.peek() {
                    Some(&key) => heads[j] = key,
                    None => open &= !(1 << j),
                }
            }
        }
        *list_probes += probes;
        if !issued.is_empty() {
            scheduled += issued.len();
            in_play -= issued.len() as u64;
            for &i in issued.iter() {
                let i = i as usize;
                issue[i] = t;
                for d in ddg.succs(i) {
                    let to = d.to as usize;
                    pending[to] -= 1;
                    earliest[to] = earliest[to].max(t + d.lat);
                    if pending[to] == 0 && to != branch {
                        // Every dependence carries latency ≥ 1, so a
                        // newly enabled op is never eligible this cycle
                        // and the queues are stable during the walk.
                        cal[earliest[to] as usize % w].push(to as u32);
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
        now += rows;
        if now == ring.len() {
            now = 0;
        }
    }

    // Branch in the last word (or later if its own operand is not ready).
    let last_issue = issue
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != branch)
        .map(|(_, &v)| v)
        .max()
        .unwrap_or(0);
    issue[branch] = last_issue.max(earliest[branch]);

    let mut length = issue[branch] + 1;
    for (i, op) in code.ops.iter().enumerate() {
        length = length.max(issue[i] + op.latency.max(1));
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
    use cfp_machine::ArchSpec;

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
        for word in s.by_cycle() {
            let mut alu = 0;
            let mut mul = 0;
            for i in word {
                match a.code.ops[i].class {
                    FuClass::Alu => alu += 1,
                    FuClass::Mul => {
                        alu += 1;
                        mul += 1;
                    }
                    _ => {}
                }
            }
            assert!(alu <= m.clusters[0].alus, "alu oversubscribed");
            assert!(mul <= m.clusters[0].muls, "mul oversubscribed");
        }
    }

    #[test]
    fn by_cycle_buckets_cover_every_op_exactly_once() {
        let (s, ..) = sched_for(WIDE, &ArchSpec::new(4, 2, 128, 2, 4, 1).unwrap());
        let words = s.by_cycle();
        assert_eq!(words.len(), s.length as usize);
        let mut seen = vec![false; s.placements.len()];
        for (t, word) in words.iter().enumerate() {
            for &i in word {
                assert_eq!(s.placements[i].cycle as usize, t);
                assert!(!seen[i], "op {i} appears twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
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
            let cp = schedule_with(&a, &ddg, &m, Priority::CriticalPath);
            let so = schedule_with(&a, &ddg, &m, Priority::SourceOrder);
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
    fn a_reused_scratch_changes_nothing() {
        let mut scratch = SchedScratch::new();
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
            let mut fresh_fuel = Fuel::limited(1 << 20);
            let fresh = try_schedule(&a, &ddg, &m, &mut fresh_fuel).expect("fuel");
            let mut reused_fuel = Fuel::limited(1 << 20);
            let reused =
                try_schedule_in(&a, &ddg, &m, &mut reused_fuel, &mut scratch).expect("fuel");
            assert_eq!(fresh, reused, "{spec}");
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
