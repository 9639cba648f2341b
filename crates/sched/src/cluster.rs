//! Cluster assignment (bottom-up-greedy, after Ellis' BUG as used in the
//! Multiflow compiler) and explicit inter-cluster move insertion.
//!
//! Operations are placed on clusters in priority order, scoring each
//! legal cluster by (a) how many operand values would have to travel and
//! (b) estimated load balance. Cross-cluster reads of non-resident values
//! then get explicit copy operations — the "explicit move in a prior
//! instruction" of the paper's template — which consume an ALU slot in
//! the destination cluster and one cycle of latency. Resident values
//! (loop constants) are instead broadcast to every reading cluster at
//! loop setup, costing register pressure there but no per-iteration move.
//!
//! The pass allocates its result and nothing per op: the code is cloned
//! as one block ([`SOp`] is `Copy`, its operands inline), value homes
//! live in a vreg-indexed [`HomeTable`], cluster legality is one mask per
//! cluster, and one-cluster machines skip the priority order entirely.
//! The order itself is a counting sort over critical-path heights whose
//! scatter also copies each op's placement inputs (def, class, operands)
//! into that order, so placement streams through them instead of
//! chasing ops across the code; each op's operand homes are gathered
//! once before its clusters are scored, and the scoring loop keeps the
//! first legal cluster of least score without a branch per cluster.

use crate::ddg::{height_order, Ddg};
use crate::loopcode::{FuClass, LoopCode, OpOrigin, SOp, Uses};
use crate::scratch::{with_arena, SchedScratch};
use cfp_ir::{Operand, Vreg};
use cfp_machine::{MachineResources, OpClass, UnitClass};

/// The result of cluster assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// The loop code with move ops appended and uses rewritten.
    pub code: LoopCode,
    /// Cluster of each op (indexed like `code.ops`).
    pub cluster_of_op: Vec<u32>,
    /// Home cluster of every value (defs, live-ins, and move copies).
    /// Resident values are homed where first read but readable anywhere.
    pub home_of: HomeTable,
    /// Number of inserted inter-cluster moves.
    pub move_count: usize,
}

/// "No home": the entry of a vreg number cluster assignment never saw.
const NO_HOME: u32 = u32::MAX;

/// Home cluster per value: a table indexed by vreg number, read with a
/// map's spellings (`get(&v)`, `[&v]`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HomeTable(Vec<u32>);

impl HomeTable {
    /// The home cluster of `v`, if `v` is a def, a live-in or a copy.
    #[must_use]
    pub fn get(&self, v: &Vreg) -> Option<&u32> {
        self.0.get(v.index()).filter(|&&h| h != NO_HOME)
    }
}

impl std::ops::Index<&Vreg> for HomeTable {
    type Output = u32;
    fn index(&self, v: &Vreg) -> &u32 {
        self.get(v).expect("value has a home cluster")
    }
}

/// One op as the placement loop reads it: its index, def (`NO_HOME`
/// for none), class and operands.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Placing {
    op: u32,
    def: u32,
    class: OpClass,
    uses: Uses,
}

/// Assign `code` to the machine's clusters.
///
/// # Panics
/// Panics if an op has no legal cluster (e.g. a multiply on a machine
/// whose IMUL count is zero — excluded by `ArchSpec` validation).
#[must_use]
pub fn assign(code: &LoopCode, ddg: &Ddg, machine: &MachineResources) -> Assignment {
    with_arena(|arena| assign_in(code, ddg, machine, arena))
}

/// [`assign`] in a borrowed arena: the priority order and its height
/// buckets, value-home table, per-cluster legality masks and load
/// estimates, and the copy-vreg cache all live in reused flat arrays,
/// and nothing is allocated per op — the result is the cloned code (one
/// block of ops), the cluster column and the home table.
#[allow(clippy::too_many_lines)]
pub(crate) fn assign_in(
    code: &LoopCode,
    ddg: &Ddg,
    machine: &MachineResources,
    arena: &mut SchedScratch,
) -> Assignment {
    let nc = machine.cluster_count();
    let n = code.ops.len();
    let nv = code.vreg_limit as usize;

    let SchedScratch {
        placing,
        height_start,
        home,
        vflags,
        alu_load,
        alu_units,
        alu_share,
        mem_load,
        copy_of,
        legal,
        ..
    } = arena;

    // Bit 0 of `vflags[v]`: v is resident (a broadcast loop constant).
    vflags.clear();
    vflags.resize(nv, 0);
    for v in &code.resident {
        vflags[v.index()] |= 1;
    }
    // `home[v]` is the value's home cluster, `NO_HOME` until assigned.
    // Copy vregs are appended past `nv` as moves are inserted.
    home.clear();
    home.resize(nv, NO_HOME);

    let mut cluster_of_op = vec![0_u32; n];

    if nc > 1 {
        // Priority order: critical-path height descending, then original
        // position. Each op's placement inputs are gathered into that
        // order in one sequential pass over the code, so the placement
        // loop streams instead of chasing ops across `code.ops`.
        let filler = Placing {
            op: 0,
            def: NO_HOME,
            class: OpClass::Alu,
            uses: Uses::default(),
        };
        placing.clear();
        placing.resize(n, filler);
        height_order(&ddg.height, height_start, |slot, i| {
            let op = &code.ops[i as usize];
            placing[slot as usize] = Placing {
                op: i,
                def: op.def.map_or(NO_HOME, |d| d.0),
                class: op.class,
                uses: op.uses,
            };
        });
        // `alu_share[c]` is `alu_load[c]` over the cluster's ALUs
        // (`alu_units[c]`, at least one), kept in step with the load
        // rather than divided per probe.
        alu_load.clear();
        alu_load.resize(nc, 0.0);
        alu_units.clear();
        alu_units.extend((0..nc).map(|c| f64::from(machine.mdes.units(c, UnitClass::Alu).max(1))));
        alu_share.clear();
        alu_share.resize(nc, 0.0);
        mem_load.clear();
        mem_load.resize(nc, 0.0);
        // Bit `k` of `legal[c]`: cluster `c` has a unit of the class the
        // machine description binds op class `k` to (one `u32` bit each).
        const _: () = assert!(OpClass::COUNT <= 32);
        legal.clear();
        for c in 0..nc {
            let mut mask = 0_u32;
            for (k, class) in machine.mdes.ops().iter().enumerate() {
                mask |= u32::from(machine.mdes.units(c, class.unit) > 0) << k;
            }
            legal.push(mask);
        }

        for op in placing.iter() {
            let i = op.op;
            // The homes of the operands that would have to travel: the
            // non-resident ones already placed. A cluster's travel cost is
            // how many of them live elsewhere.
            let mut homes = [NO_HOME; 3];
            let mut homed = 0;
            for u in &op.uses {
                let h = home[u.index()];
                if vflags[u.index()] & 1 == 0 && h != NO_HOME {
                    homes[homed] = h;
                    homed += 1;
                }
            }
            let homes = &homes[..homed];
            let is_mem = op.class.is_mem();
            let balance = if is_mem { &*mem_load } else { &*alu_share };
            // The first legal cluster of least score (scores are finite).
            let code = op.class.code();
            let (mut best, mut c) = (f64::INFINITY, NO_HOME);
            for (cu, (&mask, &balance)) in (0..).zip(legal.iter().zip(balance)) {
                let comm = homes.iter().filter(|&&h| h != cu).count() as f64;
                let score = comm * 2.0 + balance;
                if (mask >> code & 1 != 0) & (score < best) {
                    (best, c) = (score, cu);
                }
            }
            assert!(c != NO_HOME, "every op has a legal cluster");
            cluster_of_op[i as usize] = c;
            let ci = c as usize;
            if is_mem {
                mem_load[ci] += 1.0;
            } else {
                alu_load[ci] += 1.0;
                alu_share[ci] = alu_load[ci] / alu_units[ci];
            }
            if op.def != NO_HOME {
                home[op.def as usize] = c;
            }
            // Provisionally home live-in operands at their first consumer.
            for u in &op.uses {
                if vflags[u.index()] & 1 == 0 && home[u.index()] == NO_HOME {
                    home[u.index()] = c;
                }
            }
        }
        // A carried value stays in the cluster that computes the carried-out
        // register; the carried-in register therefore lives there too.
        for &(inp, out) in &code.carried {
            if inp != out && home[out.index()] != NO_HOME {
                home[inp.index()] = home[out.index()];
            }
        }
    } else {
        for v in code
            .ops
            .iter()
            .filter_map(|o| o.def)
            .chain(code.live_ins.iter().copied())
        {
            home[v.index()] = 0;
        }
    }
    // Any live-in nobody read yet still needs a home.
    for &v in &code.live_ins {
        if home[v.index()] == NO_HOME {
            home[v.index()] = 0;
        }
    }

    // Insert moves for cross-cluster reads of non-resident values.
    // `copy_of[v·nc + c]` caches the copy vreg of `v` on cluster `c`;
    // only original vregs are ever looked up (each op's uses are
    // snapshotted before its own rewrite), so `nv · nc` entries suffice.
    let mut new_code = code.clone();
    let mut new_clusters = cluster_of_op.clone();
    let mut move_count = 0_usize;
    if nc > 1 {
        copy_of.clear();
        copy_of.resize(nv * nc, NO_HOME);
        for (i, &c) in cluster_of_op.iter().enumerate() {
            let uses = new_code.ops[i].uses;
            for &u in &uses {
                if vflags[u.index()] & 1 != 0 {
                    continue;
                }
                let h = home[u.index()];
                if h == c {
                    continue;
                }
                let slot = u.index() * nc + c as usize;
                let copy = if copy_of[slot] != NO_HOME {
                    Vreg(copy_of[slot])
                } else {
                    let v = Vreg(new_code.vreg_limit);
                    new_code.vreg_limit += 1;
                    new_code.ops.push(SOp {
                        origin: OpOrigin::Move { src: u, to: c },
                        inst: None,
                        class: FuClass::Alu,
                        latency: machine.latency(FuClass::Alu),
                        def: Some(v),
                        uses: Uses::of(&[u]),
                    });
                    new_clusters.push(c);
                    home.push(c);
                    copy_of[slot] = v.0;
                    move_count += 1;
                    v
                };
                rewrite_use(&mut new_code.ops[i], u, copy);
            }
        }
    }

    Assignment {
        code: new_code,
        cluster_of_op: new_clusters,
        home_of: HomeTable(home.clone()),
        move_count,
    }
}

fn rewrite_use(op: &mut SOp, from: Vreg, to: Vreg) {
    for u in op.uses.iter_mut() {
        if *u == from {
            *u = to;
        }
    }
    if let Some(inst) = &mut op.inst {
        inst.map_operands(|o| match o {
            Operand::Reg(v) if v == from => Operand::Reg(to),
            other => other,
        });
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cfp_frontend::compile_kernel;
    use cfp_ir::Kernel;
    use cfp_kernels::Benchmark;
    use cfp_machine::ArchSpec;
    use std::collections::{HashMap, HashSet};

    fn allowed(op: &SOp, c: usize, machine: &MachineResources) -> bool {
        // Uniform unit-count lookup: the machine description says which
        // unit class the op occupies; a cluster is legal iff it has one.
        let unit = machine.mdes.op(op.class).unit;
        machine.mdes.units(c, unit) > 0
    }

    /// Cluster assignment as it was before the inline operand list, the
    /// legality masks and the home table: two description lookups per
    /// (op, cluster), the order sorted on every machine, the homes
    /// collected into a map. Kept as the reference [`assign_in`] must
    /// equal. Returns `(code, cluster_of_op, home_of, move_count)`.
    fn reference_assign(
        code: &LoopCode,
        ddg: &Ddg,
        machine: &MachineResources,
    ) -> (LoopCode, Vec<u32>, HashMap<Vreg, u32>, usize) {
        let nc = machine.cluster_count();
        let n = code.ops.len();
        let nv = code.vreg_limit as usize;
        let mut resident = vec![false; nv];
        for v in &code.resident {
            resident[v.index()] = true;
        }
        let mut home = vec![NO_HOME; nv];
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            ddg.height[b as usize]
                .cmp(&ddg.height[a as usize])
                .then(a.cmp(&b))
        });
        let mut cluster_of_op = vec![0_u32; n];
        let mut alu_load = vec![0.0_f64; nc];
        let mut mem_load = vec![0.0_f64; nc];
        if nc > 1 {
            for &i in &order {
                let op = &code.ops[i as usize];
                let mut best: Option<(f64, u32)> = None;
                for c in 0..nc {
                    if !allowed(op, c, machine) {
                        continue;
                    }
                    let cu = c as u32;
                    let comm: f64 = op
                        .uses
                        .iter()
                        .filter(|u| !resident[u.index()])
                        .filter(|u| {
                            let h = home[u.index()];
                            h != NO_HOME && h != cu
                        })
                        .count() as f64;
                    let balance = if op.class.is_mem() {
                        mem_load[c]
                    } else {
                        alu_load[c] / f64::from(machine.clusters[c].alus.max(1))
                    };
                    let score = comm * 2.0 + balance;
                    if best.is_none_or(|(s, _)| score < s) {
                        best = Some((score, cu));
                    }
                }
                let (_, c) = best.expect("every op has a legal cluster");
                cluster_of_op[i as usize] = c;
                if op.class.is_mem() {
                    mem_load[c as usize] += 1.0;
                } else {
                    alu_load[c as usize] += 1.0;
                }
                if let Some(d) = op.def {
                    home[d.index()] = c;
                }
                for u in &op.uses {
                    if !resident[u.index()] && home[u.index()] == NO_HOME {
                        home[u.index()] = c;
                    }
                }
            }
            for &(inp, out) in &code.carried {
                if inp != out && home[out.index()] != NO_HOME {
                    home[inp.index()] = home[out.index()];
                }
            }
        } else {
            for v in code
                .ops
                .iter()
                .filter_map(|o| o.def)
                .chain(code.live_ins.iter().copied())
            {
                home[v.index()] = 0;
            }
        }
        for &v in &code.live_ins {
            if home[v.index()] == NO_HOME {
                home[v.index()] = 0;
            }
        }

        let mut new_code = code.clone();
        let mut new_clusters = cluster_of_op.clone();
        let mut move_count = 0_usize;
        if nc > 1 {
            let mut copy_of = vec![NO_HOME; nv * nc];
            for (i, &c) in cluster_of_op.iter().enumerate() {
                let uses = new_code.ops[i].uses;
                for &u in &uses {
                    if resident[u.index()] || home[u.index()] == c {
                        continue;
                    }
                    let slot = u.index() * nc + c as usize;
                    let copy = if copy_of[slot] != NO_HOME {
                        Vreg(copy_of[slot])
                    } else {
                        let v = Vreg(new_code.vreg_limit);
                        new_code.vreg_limit += 1;
                        new_code.ops.push(SOp {
                            origin: OpOrigin::Move { src: u, to: c },
                            inst: None,
                            class: FuClass::Alu,
                            latency: machine.latency(FuClass::Alu),
                            def: Some(v),
                            uses: Uses::of(&[u]),
                        });
                        new_clusters.push(c);
                        home.push(c);
                        copy_of[slot] = v.0;
                        move_count += 1;
                        v
                    };
                    rewrite_use(&mut new_code.ops[i], u, copy);
                }
            }
        }
        let home_of = home
            .iter()
            .enumerate()
            .filter(|&(_, &h)| h != NO_HOME)
            .map(|(v, &h)| (Vreg(v as u32), h))
            .collect();
        (new_code, new_clusters, home_of, move_count)
    }

    /// The pinned step budget's stratified sample (`tests/pinned.rs`):
    /// every width class, 1/2/4/8 clusters, both Level-2 latencies — and
    /// three more eight-cluster machines, where most clusters lack a
    /// multiplier or a port and equal scores between clusters are dense.
    /// The modulo scheduler's dependence-set tests sample it too.
    pub(crate) fn stratified() -> Vec<ArchSpec> {
        [
            (1, 1, 64, 1, 8, 1),
            (2, 1, 64, 1, 4, 1),
            (4, 2, 128, 1, 4, 1),
            (4, 2, 256, 2, 4, 1),
            (8, 2, 128, 1, 4, 4),
            (8, 4, 256, 2, 4, 2),
            (16, 4, 128, 1, 4, 8),
            (16, 8, 512, 4, 2, 4),
            (8, 8, 512, 2, 2, 8),
            (8, 2, 256, 4, 8, 8),
            (16, 16, 512, 8, 4, 8),
        ]
        .into_iter()
        .filter_map(|(a, m, r, p2, l2, c)| ArchSpec::new(a, m, r, p2, l2, c).ok())
        .collect()
    }

    fn assert_equals_reference(kernel: &Kernel, what: &str) {
        for spec in stratified() {
            let m = MachineResources::from_spec(&spec);
            let code = LoopCode::build(kernel, &m);
            let ddg = Ddg::build(&code);
            let (ref_code, ref_clusters, ref_home, ref_moves) = reference_assign(&code, &ddg, &m);
            let fresh = assign(&code, &ddg, &m);
            assert_eq!(fresh.code, ref_code, "{what} {spec}");
            assert_eq!(fresh.cluster_of_op, ref_clusters, "{what} {spec}");
            assert_eq!(fresh.move_count, ref_moves, "{what} {spec}");
            for v in (0..fresh.code.vreg_limit + 2).map(Vreg) {
                assert_eq!(fresh.home_of.get(&v), ref_home.get(&v), "{what} {spec} {v}");
            }
            // The post-assignment graph that copies the prepared graph's
            // memory edges is the graph a fresh scan builds.
            assert_eq!(
                with_arena(|arena| Ddg::build_in(&fresh.code, Some(&ddg), arena)),
                Ddg::build(&fresh.code),
                "{what} {spec}"
            );
        }
    }

    #[test]
    fn assignment_equals_the_reference_on_the_shipped_kernels() {
        for b in Benchmark::ALL {
            let raw = b.kernel();
            let mut optimized = raw.clone();
            cfp_opt::optimize(&mut optimized);
            assert_equals_reference(&raw, &format!("{b} raw"));
            for u in [1, 2, 4] {
                let k = cfp_opt::unroll::unroll(&optimized, u);
                assert_equals_reference(&k, &format!("{b} x{u}"));
            }
        }
    }

    /// Unroll 8 and 16: the deepest bodies the sweep prices, where one
    /// height is shared by many ops. Seconds in release, too slow for a
    /// debug build; CI runs it with the other `#[ignore]`d tests.
    #[test]
    #[ignore = "slow in a debug build; CI runs it in release"]
    fn assignment_equals_the_reference_on_deep_unrolls() {
        for b in Benchmark::ALL {
            let mut optimized = b.kernel();
            cfp_opt::optimize(&mut optimized);
            for u in [8, 16] {
                let k = cfp_opt::unroll::unroll(&optimized, u);
                assert_equals_reference(&k, &format!("{b} x{u}"));
            }
        }
    }

    #[test]
    fn assignment_equals_the_reference_on_memory_heavy_kernels() {
        cfp_testkit::cases(0xc105_0001, 60, |rng| {
            let k = crate::testgen::memory_heavy(rng);
            assert_equals_reference(&k, "memory heavy");
            let k = cfp_opt::unroll::unroll(&k, 3);
            assert_equals_reference(&k, "memory heavy x3");
        });
    }

    fn assigned(src: &str, spec: &ArchSpec) -> Assignment {
        let k = compile_kernel(src, &[]).unwrap();
        let m = MachineResources::from_spec(spec);
        let code = LoopCode::build(&k, &m);
        let ddg = Ddg::build(&code);
        assign(&code, &ddg, &m)
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
    fn single_cluster_needs_no_moves() {
        let a = assigned(WIDE, &ArchSpec::new(4, 2, 128, 1, 4, 1).unwrap());
        assert_eq!(a.move_count, 0);
        assert!(a.cluster_of_op.iter().all(|&c| c == 0));
    }

    #[test]
    fn multi_cluster_respects_fu_placement() {
        let spec = ArchSpec::new(4, 2, 128, 1, 4, 4).unwrap();
        let a = assigned(WIDE, &spec);
        let m = MachineResources::from_spec(&spec);
        for (i, op) in a.code.ops.iter().enumerate() {
            assert!(
                allowed(op, a.cluster_of_op[i] as usize, &m),
                "op {i} ({:?}) on illegal cluster {}",
                op.class,
                a.cluster_of_op[i]
            );
        }
    }

    #[test]
    fn cross_cluster_values_get_moves() {
        // Two clusters: the only IMUL sits on cluster 0, the only L2 port
        // on cluster 1, so every load's value must cross to be multiplied.
        let spec = ArchSpec::new(2, 1, 128, 1, 4, 2).unwrap();
        let a = assigned(WIDE, &spec);
        assert!(a.move_count > 0, "mul and memory are on different clusters");
        // Every rewritten use must now be local or resident — except the
        // moves themselves, which are the cross-cluster transfers.
        let resident: HashSet<Vreg> = a.code.resident.iter().copied().collect();
        for (i, op) in a.code.ops.iter().enumerate() {
            if matches!(op.origin, OpOrigin::Move { .. }) {
                continue;
            }
            for u in &op.uses {
                if resident.contains(u) {
                    continue;
                }
                assert_eq!(
                    a.home_of[u], a.cluster_of_op[i],
                    "op {i} reads {u} from another cluster"
                );
            }
        }
    }

    #[test]
    fn branch_lands_on_cluster_zero() {
        let spec = ArchSpec::new(8, 4, 256, 1, 4, 4).unwrap();
        let a = assigned(WIDE, &spec);
        let bi = a.code.branch_index();
        assert_eq!(a.cluster_of_op[bi], 0);
    }

    #[test]
    fn carried_inputs_live_with_their_producers() {
        let spec = ArchSpec::new(8, 4, 256, 1, 4, 2).unwrap();
        let a = assigned(
            "kernel c(in i32 s[], out i32 d[]) {
                var acc = 0;
                loop i { acc = acc + s[i]; d[i] = acc; }
            }",
            &spec,
        );
        for &(inp, out) in &a.code.carried {
            if inp != out {
                assert_eq!(a.home_of[&inp], a.home_of[&out], "{inp}/{out}");
            }
        }
    }

    #[test]
    fn a_warmed_arena_reproduces_fresh_assignments() {
        for spec in [
            ArchSpec::new(2, 1, 128, 1, 4, 2).unwrap(),
            ArchSpec::new(8, 4, 256, 1, 4, 4).unwrap(),
            ArchSpec::new(4, 2, 128, 1, 4, 1).unwrap(),
        ] {
            let k = compile_kernel(WIDE, &[]).unwrap();
            let m = MachineResources::from_spec(&spec);
            let code = LoopCode::build(&k, &m);
            let ddg = Ddg::build(&code);
            let reused = assign(&code, &ddg, &m);
            let fresh = assign_in(&code, &ddg, &m, &mut SchedScratch::default());
            assert_eq!(fresh, reused, "{spec}");
        }
    }
}
