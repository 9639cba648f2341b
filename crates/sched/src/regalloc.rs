//! Register-pressure analysis and spill detection.
//!
//! After scheduling, every value has a cluster and a live interval in
//! cycles. The maximum number of simultaneously-live values in a cluster
//! must fit its register bank; the excess is the *spill pressure*. The
//! experiment's discipline (paper §2.4) is: if an unroll factor spills,
//! reject it and all larger ones; if the kernel spills even without
//! unrolling, the compiler must insert spill traffic and the schedule
//! pays for it (see `compile::spill_penalty_cycles`) — that is the
//! mechanism behind the paper's pathological cases (A at speedup 0.89 on
//! a 16-ALU, 128-register machine).
//!
//! Interval rules (steady state, iterations back to back):
//! * a value defined at cycle `d` with last read at cycle `u` is live on
//!   `[d, u]`; if it is carried out, it is live to the end of the
//!   iteration, and its carried-in twin is separately live from cycle 0 —
//!   counting both models the overlap between a value and its successor;
//! * resident values (loop constants, broadcast at setup) occupy one
//!   register in **every cluster that reads them**, for the whole loop.
//!
//! [`allocate`] scans those intervals cluster by cluster in `(start,
//! end, vreg)` order, an order it builds without a comparison sort of
//! the whole list: one bucket per `(cluster, start cycle)`, filled in a
//! single walk, with only a bucket's ties sorted.

use crate::cluster::Assignment;
use crate::list::Schedule;
use crate::scratch::{with_arena, SchedScratch};
use cfp_ir::Vreg;
use cfp_machine::MachineResources;

/// Per-cluster pressure versus capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PressureReport {
    /// Maximum simultaneous live values per cluster.
    pub peak: Vec<u32>,
    /// Register capacity per cluster.
    pub capacity: Vec<u32>,
}

impl PressureReport {
    /// Total registers short across clusters (0 when everything fits).
    #[must_use]
    pub fn spill_excess(&self) -> u32 {
        excess(&self.peak, self.capacity.iter().copied())
    }

    /// Whether the kernel fits without spilling.
    #[must_use]
    pub fn fits(&self) -> bool {
        self.spill_excess() == 0
    }
}

/// Registers short across clusters of `capacity` registers each.
pub(crate) fn excess(peak: &[u32], capacity: impl IntoIterator<Item = u32>) -> u32 {
    std::iter::zip(peak, capacity)
        .map(|(&p, c)| p.saturating_sub(c))
        .sum()
}

/// Compute the pressure report for a scheduled iteration.
#[must_use]
pub fn pressure(
    assignment: &Assignment,
    schedule: &Schedule,
    machine: &MachineResources,
) -> PressureReport {
    PressureReport {
        peak: peak_pressure(assignment, schedule, machine.cluster_count()),
        capacity: machine.mdes.clusters().iter().map(|cl| cl.regs).collect(),
    }
}

/// Maximum simultaneous live values per cluster.
///
/// This is the capacity-free half of [`pressure`]: the live intervals are
/// fully determined by the assignment and the schedule, so the peaks
/// depend on the machine only through its cluster count — never its
/// register-file size. The design-space exploration exploits this to
/// share one computation across every register configuration of an
/// otherwise-identical architecture.
#[must_use]
pub fn peak_pressure(assignment: &Assignment, schedule: &Schedule, clusters: usize) -> Vec<u32> {
    with_arena(|arena| peak_pressure_in(assignment, schedule, clusters, arena))
}

/// [`peak_pressure`] in a borrowed arena: last-use times, resident-reader
/// sets (one bitmask word per 64 clusters), and the interval diff arrays
/// live in reused flat buffers.
pub(crate) fn peak_pressure_in(
    assignment: &Assignment,
    schedule: &Schedule,
    clusters: usize,
    arena: &mut SchedScratch,
) -> Vec<u32> {
    let nc = clusters;
    let len = schedule.length as usize;
    let SchedScratch {
        vflags,
        last_use,
        reader_mask,
        diff,
        ..
    } = arena;

    // Interval diff arrays, one `len + 1` run per cluster.
    diff.clear();
    diff.resize(nc * (len + 1), 0);
    let tables = (vflags, last_use, reader_mask);
    for_each_interval(assignment, schedule, nc, tables, |c, from, to, _| {
        let to = to.min(len);
        if from < to {
            diff[c * (len + 1) + from] += 1;
            diff[c * (len + 1) + to] -= 1;
        }
    });

    let mut peak = vec![0_u32; nc];
    for (c, p) in peak.iter_mut().enumerate() {
        let mut cur = 0_i32;
        for d in diff[c * (len + 1)..].iter().take(len) {
            cur += d;
            *p = (*p).max(u32::try_from(cur.max(0)).expect("non-negative"));
        }
    }
    peak
}

/// The live intervals of a scheduled iteration, `f(cluster, start, end,
/// value)` each, by the rules in the module docs: defined values in op
/// order, then live-in values, then resident values in vreg order — one
/// interval per reading cluster. The pressure analysis and the register
/// allocator both build from this walk, so they cannot disagree.
///
/// `tables` is working memory, indexed by vreg number: flags (bit 0:
/// resident, i.e. a broadcast loop constant; bit 1: carried out), the
/// last read cycle of every non-resident value, and for resident values
/// a bitmask of the clusters reading them (a word per 64 clusters).
fn for_each_interval(
    assignment: &Assignment,
    schedule: &Schedule,
    clusters: usize,
    tables: (&mut Vec<u8>, &mut Vec<u32>, &mut Vec<u64>),
    mut f: impl FnMut(usize, usize, usize, Vreg),
) {
    const NO_USE: u32 = u32::MAX; // cycles are < 2^20, so MAX is free
    const RESIDENT: u8 = 1;
    const CARRIED_OUT: u8 = 2;
    let code = &assignment.code;
    let len = schedule.length as usize;
    let nv = code.vreg_limit as usize;
    let (vflags, last_use, reader_mask) = tables;

    vflags.clear();
    vflags.resize(nv, 0);
    for v in &code.resident {
        vflags[v.index()] |= RESIDENT;
    }
    for &(_, o) in &code.carried {
        vflags[o.index()] |= CARRIED_OUT;
    }
    // A carried-in value also occupies its register until the boundary
    // latch overwrites it, but it may be overwritten as soon as its last
    // reader has issued; only the last read matters, so carried-in needs
    // no flag of its own.

    let words = clusters.div_ceil(64);
    last_use.clear();
    last_use.resize(nv, NO_USE);
    reader_mask.clear();
    reader_mask.resize(nv * words, 0);
    for (i, op) in code.ops.iter().enumerate() {
        let t = schedule.placements[i].cycle;
        for u in &op.uses {
            if vflags[u.index()] & RESIDENT != 0 {
                let c = schedule.placements[i].cluster as usize;
                reader_mask[u.index() * words + c / 64] |= 1_u64 << (c % 64);
            } else {
                let e = &mut last_use[u.index()];
                *e = if *e == NO_USE { t } else { (*e).max(t) };
            }
        }
    }

    // Defined values.
    for (i, op) in code.ops.iter().enumerate() {
        let Some(d) = op.def else { continue };
        let c = schedule.placements[i].cluster as usize;
        let start = schedule.placements[i].cycle as usize;
        let end = if vflags[d.index()] & CARRIED_OUT != 0 {
            len
        } else {
            match last_use[d.index()] {
                NO_USE => start + 1,
                u => (u as usize) + 1,
            }
        };
        f(c, start, end.max(start + 1), d);
    }
    // Live-in values (carried-in, non-resident).
    for &v in &code.live_ins {
        if vflags[v.index()] & RESIDENT != 0 {
            continue;
        }
        let c = assignment.home_of.get(&v).copied().unwrap_or(0) as usize;
        let end = match last_use[v.index()] {
            NO_USE => 1,
            u => (u as usize) + 1,
        };
        f(c, 0, end, v);
    }
    // Resident values: whole loop, in every reading cluster.
    for (v, &flags) in (0..).map(Vreg).zip(vflags.iter()) {
        if flags & RESIDENT == 0 {
            continue;
        }
        for w in 0..words {
            let mut mask = reader_mask[v.index() * words + w];
            while mask != 0 {
                let c = w * 64 + mask.trailing_zeros() as usize;
                f(c, 0, len, v);
                mask &= mask - 1;
            }
        }
    }
}

/// A physical register assignment: `(vreg, cluster) -> register number`
/// within that cluster's bank. Resident values get one register in every
/// cluster that reads them (they are broadcast at loop setup); carried
/// in/out pairs may hold distinct registers — the iteration-boundary
/// latch is architectural, in the spirit of rotating register files.
///
/// One flat table, a row of `clusters` entries per vreg number.
#[derive(Debug, Clone, Default)]
pub struct PhysMap {
    regs: Vec<u16>,
    clusters: usize,
    assigned: usize,
}

/// "No register": banks hold at most `u16::MAX` registers, numbered from
/// zero, so the top value is never handed out.
const NO_REG: u16 = u16::MAX;

impl PhysMap {
    /// The physical register of `v` as seen from `cluster`.
    #[must_use]
    pub fn get(&self, v: Vreg, cluster: u32) -> Option<u16> {
        let c = cluster as usize;
        if c >= self.clusters {
            return None;
        }
        self.regs
            .get(v.index() * self.clusters + c)
            .copied()
            .filter(|&r| r != NO_REG)
    }

    /// Number of assignments.
    #[must_use]
    pub fn len(&self) -> usize {
        self.assigned
    }

    /// Whether no registers were assigned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assigned == 0
    }
}

/// Register allocation failure: a cluster ran out of registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocError {
    /// The cluster that overflowed.
    pub cluster: u32,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cluster {} ran out of physical registers", self.cluster)
    }
}

impl std::error::Error for AllocError {}

/// Linear-scan register allocation over the scheduled live intervals —
/// the ones [`pressure`] counts, so allocation succeeds if and only if
/// the pressure report fits (up to identical tie conventions).
///
/// # Errors
/// Returns [`AllocError`] naming the first cluster whose bank overflows.
pub fn allocate(
    assignment: &Assignment,
    schedule: &Schedule,
    machine: &MachineResources,
) -> Result<PhysMap, AllocError> {
    let code = &assignment.code;
    let nc = machine.cluster_count();
    let nv = code.vreg_limit as usize;

    // Every interval, `(cluster, start, end, vreg)`, in one vector; an
    // interval holds its register for at least one cycle.
    let mut intervals: Vec<(usize, usize, usize, Vreg)> =
        Vec::with_capacity(code.ops.len() + code.live_ins.len() + code.resident.len() * nc);
    let tables = (&mut Vec::new(), &mut Vec::new(), &mut Vec::new());
    for_each_interval(assignment, schedule, nc, tables, |c, start, end, v| {
        intervals.push((c, start, end.max(start + 1), v));
    });

    // Linear scan, cluster by cluster: the order groups each cluster's
    // intervals and orders them by `(start, end, vreg)`.
    let intervals = interval_order(&intervals, nc, schedule.length as usize);
    let mut map = PhysMap {
        regs: vec![NO_REG; nv * nc],
        clusters: nc,
        assigned: 0,
    };
    let mut free: Vec<u16> = Vec::new();
    // Active intervals: (end, phys), kept as a min-heap by end.
    let mut active: std::collections::BinaryHeap<std::cmp::Reverse<(usize, u16)>> =
        std::collections::BinaryHeap::new();
    let mut scanning = None;
    for &(c, start, end, v) in &intervals {
        if scanning != Some(c) {
            scanning = Some(c);
            // `NO_REG` itself is never a register number.
            let regs = u16::try_from(machine.mdes.clusters()[c].regs).unwrap_or(NO_REG);
            free.clear();
            free.extend((0..regs).rev());
            active.clear();
        }
        while let Some(&std::cmp::Reverse((e, phys))) = active.peek() {
            if e <= start {
                active.pop();
                free.push(phys);
            } else {
                break;
            }
        }
        let Some(phys) = free.pop() else {
            return Err(AllocError {
                cluster: u32::try_from(c).expect("small"),
            });
        };
        let slot = &mut map.regs[v.index() * nc + c];
        map.assigned += usize::from(*slot == NO_REG);
        *slot = phys;
        active.push(std::cmp::Reverse((end, phys)));
    }
    Ok(map)
}

/// `intervals` sorted by `(cluster, start, end, vreg)`, read once in
/// cycle order: a counting sort on `(cluster, start)` — a bucket per
/// cluster and cycle, every start at or past `len` in the cluster's last
/// bucket, every cluster at or past `clusters` in one bucket after all
/// of them — then each bucket of more than one interval sorted on the
/// whole key, which orders the ties and the rare out-of-range entries.
fn interval_order(
    intervals: &[(usize, usize, usize, Vreg)],
    clusters: usize,
    len: usize,
) -> Vec<(usize, usize, usize, Vreg)> {
    let row = len + 1;
    let tail = clusters * row;
    let key = |&(c, start, ..): &(usize, usize, usize, Vreg)| {
        if c < clusters {
            c * row + start.min(len)
        } else {
            tail
        }
    };
    // `next[k]`: where bucket `k`'s next interval goes.
    let mut next = vec![0_usize; tail + 2];
    for iv in intervals {
        next[key(iv) + 1] += 1;
    }
    for k in 1..next.len() {
        next[k] += next[k - 1];
    }
    let mut sorted = vec![(0, 0, 0, Vreg(0)); intervals.len()];
    for iv in intervals {
        let slot = &mut next[key(iv)];
        sorted[*slot] = *iv;
        *slot += 1;
    }
    // Every bucket now ends where the next one begins.
    let mut lo = 0;
    for &hi in &next[..=tail] {
        if hi - lo > 1 {
            sorted[lo..hi].sort_unstable();
        }
        lo = hi;
    }
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::assign;
    use crate::ddg::Ddg;
    use crate::list;
    use crate::loopcode::LoopCode;
    use cfp_frontend::compile_kernel;
    use cfp_machine::ArchSpec;

    fn report(src: &str, spec: &ArchSpec) -> PressureReport {
        let k = compile_kernel(src, &[]).unwrap();
        let m = MachineResources::from_spec(spec);
        let code = LoopCode::build(&k, &m);
        let pre = Ddg::build(&code);
        let a = assign(&code, &pre, &m);
        let ddg = Ddg::build(&a.code);
        let s = list::try_schedule(&a, &ddg, &m, &mut crate::Fuel::unlimited()).expect("fuel");
        pressure(&a, &s, &m)
    }

    /// The comparison sort [`interval_order`] replaced: the reference
    /// its buckets are held to.
    fn interval_order_by_sort(
        intervals: &[(usize, usize, usize, Vreg)],
    ) -> Vec<(usize, usize, usize, Vreg)> {
        let mut sorted = intervals.to_vec();
        sorted.sort_unstable();
        sorted
    }

    /// The intervals of seeded schedules on one to eight clusters, as
    /// compiled and re-dealt at random (empty cycles, crowded cycles,
    /// starts at and past the length), then raw random intervals with
    /// repeated keys and clusters at and past the machine's count: the
    /// buckets must return the reference's order.
    #[test]
    fn the_bucketed_order_keeps_the_comparison_order() {
        use crate::list::Placement;
        cfp_testkit::cases(0x1e7a, 48, |rng| {
            let kernel = crate::testgen::memory_heavy(rng);
            let clusters = rng.range_u32(1..=8);
            let spec = ArchSpec::new(2 * clusters, 2, 64 * clusters, 2, 4, clusters).unwrap();
            let m = MachineResources::from_spec(&spec);
            let r = crate::compile::compile(&kernel, &m);
            let mut dealt = r.schedule.clone();
            dealt.length = rng.range_u32(0..=r.schedule.length + 2);
            for p in &mut dealt.placements {
                *p = Placement {
                    cycle: rng.range_u32(0..=dealt.length + 3) / 2,
                    cluster: rng.range_u32(0..=clusters - 1),
                };
            }
            for schedule in [&r.schedule, &dealt] {
                let mut intervals = Vec::new();
                let tables = (&mut Vec::new(), &mut Vec::new(), &mut Vec::new());
                let nc = clusters as usize;
                for_each_interval(&r.assignment, schedule, nc, tables, |c, s, e, v| {
                    intervals.push((c, s, e.max(s + 1), v));
                });
                let len = schedule.length as usize;
                assert_eq!(
                    interval_order(&intervals, nc, len),
                    interval_order_by_sort(&intervals)
                );
            }
            let len = rng.index(40);
            let raw: Vec<_> = (0..rng.index(200))
                .map(|_| {
                    let start = if rng.index(10) == 0 {
                        usize::MAX - rng.index(2)
                    } else {
                        rng.index(len + 4)
                    };
                    let end = start.saturating_add(rng.index(3));
                    (rng.index(8), start, end, Vreg(rng.range_u32(0..=9)))
                })
                .collect();
            let clusters = rng.index(9);
            let sorted = interval_order(&raw, clusters, len);
            assert_eq!(sorted, interval_order_by_sort(&raw));
        });
    }

    #[test]
    fn small_kernel_fits_the_baseline() {
        let r = report(
            "kernel k(in u8 s[], out u8 d[]) { loop i { d[i] = u8(s[i] + 1); } }",
            &ArchSpec::baseline(),
        );
        assert!(r.fits(), "{r:?}");
        assert!(r.peak[0] >= 4, "at least pointers + induction: {r:?}");
    }

    #[test]
    fn wide_window_overflows_a_tiny_bank() {
        // 24 concurrent products on a machine with 16 registers.
        let src = "kernel w(in u8 s[], out i32 d[]) {
            loop i {
                var acc = 0;
                for t in 0..24 { acc = acc + s[24*i + t] * (2*t + 3); }
                d[i] = acc;
            }
        }";
        let tiny = report(src, &ArchSpec::new(16, 8, 16, 4, 4, 1).unwrap());
        assert!(!tiny.fits(), "peak {:?}", tiny.peak);
        let big = report(src, &ArchSpec::new(16, 8, 512, 4, 4, 1).unwrap());
        assert!(big.fits(), "peak {:?}", big.peak);
    }

    #[test]
    fn clustering_splits_pressure_and_capacity() {
        let src = "kernel w(in u8 s[], out i32 d[]) {
            loop i {
                var a = s[4*i] * 3;
                var b = s[4*i+1] * 5;
                var c = s[4*i+2] * 7;
                var e = s[4*i+3] * 9;
                d[i] = (a + b) + (c + e);
            }
        }";
        let r = report(src, &ArchSpec::new(8, 4, 256, 2, 4, 4).unwrap());
        assert_eq!(r.capacity, vec![64, 64, 64, 64]);
        assert!(r.fits());
    }

    #[test]
    fn resident_constants_count_everywhere_they_are_read() {
        let src = "kernel k(in l1 i16 t[], in u8 s[], out i32 d[]) {
            var c0 = t[0];
            loop i { d[i] = s[i] * c0 + (s[i+1] * c0); }
        }";
        let r1 = report(src, &ArchSpec::new(2, 1, 64, 1, 4, 1).unwrap());
        assert!(r1.fits());
        assert!(r1.peak[0] >= 5);
    }
}
