//! The machine-description refactor is behavior-preserving: every
//! scheduler decision, fuel verdict, and checkpoint fingerprint is
//! bit-identical to the pre-`Mdes` implementation.
//!
//! The pinned digests below were captured by running the *pre-refactor*
//! tree (commit `ec90063`) over a deterministic corpus: every 7th
//! arrangement of the paper's 192-point design space (86 architectures),
//! benchmarks A, D, and G, at unroll 1 and 2, with fuel-boundary
//! verdicts on every 5th unit and modulo scheduling on every 3rd spec.
//! The same loop re-run against the `Mdes`-backed scheduler must produce
//! the same 64-bit FNV digest — one flipped placement, fuel count, II
//! attempt, or register peak anywhere in the corpus changes it. (Two
//! deliberate re-pins since: see `PRE_MDES_CORPUS_DIGEST`.)

use custom_fit::dse::checkpoint::fingerprint;
use custom_fit::dse::explore::ExploreConfig;
use custom_fit::machine::{ArchSpec, DesignSpace, Fnv1a, MachineResources, OpClass, UnitClass};
use custom_fit::obs::UnitTrace;
use custom_fit::prelude::Benchmark;
use custom_fit::sched::{
    omega_deps, prepare, rec_mii, res_mii, try_compile_core, try_modulo_schedule, Ddg, Fuel,
    PipelineProblem, SchedScratch,
};

/// Digest of the scheduling corpus. Every placement, length, move count,
/// critical path and register peak is the pre-refactor scheduler's. Two
/// re-pins since. The modulo results of the units with inter-cluster
/// moves moved (from `0xf1b4_6bfc_b9ab_dd97`) when the modulo
/// scheduler's placement order began to follow the dependences past the
/// moves appended behind their readers — until then each of them folded
/// a `None` and the fuel of a walk to the II cap. Then the list steps it
/// folds moved (from `0xbc9d_9406_65fe_8400`) when the list portfolio
/// began to stop after a critical-path arm that meets `max(critical
/// path, ResMII)`; the verdicts at each unit's own step count did not.
const PRE_MDES_CORPUS_DIGEST: u64 = 0x9583_8917_1c2b_8d16;
/// Digest of the modulo results alone (fuel, II, MII, II attempts,
/// slots) over the units of that corpus whose assignment holds no
/// inter-cluster move, captured before that change: on them Kahn order
/// is index order and nothing may move.
const MOVE_FREE_MODULO_DIGEST: u64 = 0xece4_15e1_f675_2d87;
/// `fingerprint` of the sample sweep (A/D/G, unlimited fuel) pre-refactor.
const PRE_MDES_FINGERPRINT_A: u64 = 0x5691_b469_ed2a_b11a;
/// `fingerprint` of the sample sweep (table columns, fuel 9999) pre-refactor.
const PRE_MDES_FINGERPRINT_B: u64 = 0x3340_0a5f_ee5c_d5b2;

fn eat(h: &mut Fnv1a, x: u64) {
    h.write(&x.to_le_bytes());
}

fn sample_specs() -> Vec<ArchSpec> {
    DesignSpace::paper()
        .all_arrangements()
        .into_iter()
        .step_by(7)
        .collect()
}

#[test]
fn corpus_digest_matches_the_pre_mdes_oracle() {
    let specs = sample_specs();
    assert_eq!(specs.len(), 86, "the pinned corpus is exactly this sample");
    let benches = [Benchmark::A, Benchmark::D, Benchmark::G];
    let mut scratch = SchedScratch::new();
    let mut h = Fnv1a::new();
    let mut move_free = Fnv1a::new();
    let mut unit = 0_u64;
    for bench in benches {
        let mut k = bench.kernel();
        custom_fit::opt::optimize(&mut k);
        let k2 = custom_fit::opt::unroll::unroll(&k, 2);
        for spec in &specs {
            let machine = MachineResources::from_spec(spec);
            for kernel in [&k, &k2] {
                let prepared = prepare(kernel, &machine, &mut UnitTrace::disabled());
                let mut fuel = Fuel::unlimited();
                let core = try_compile_core(
                    &prepared,
                    &machine,
                    &mut fuel,
                    &mut scratch,
                    &mut UnitTrace::disabled(),
                )
                .expect("unlimited fuel");
                eat(&mut h, core.steps);
                eat(&mut h, u64::from(core.length));
                eat(&mut h, core.move_count as u64);
                eat(&mut h, u64::from(core.critical_path));
                for p in &core.schedule.placements {
                    eat(&mut h, (u64::from(p.cycle) << 32) | u64::from(p.cluster));
                }
                for &p in &core.peak {
                    eat(&mut h, u64::from(p));
                }
                // Fuel verdicts at the exact boundary, on a subset.
                if unit % 5 == 0 && core.steps > 1 {
                    let ok = try_compile_core(
                        &prepared,
                        &machine,
                        &mut Fuel::limited(core.steps),
                        &mut scratch,
                        &mut UnitTrace::disabled(),
                    )
                    .is_ok();
                    let under = try_compile_core(
                        &prepared,
                        &machine,
                        &mut Fuel::limited(core.steps - 1),
                        &mut scratch,
                        &mut UnitTrace::disabled(),
                    )
                    .is_err();
                    eat(&mut h, u64::from(ok));
                    eat(&mut h, u64::from(under));
                }
                unit += 1;
            }
            // Modulo on the un-unrolled body, every 3rd spec.
            if unit % 3 == 0 {
                let prepared = prepare(&k, &machine, &mut UnitTrace::disabled());
                let mut fuel = Fuel::unlimited();
                let core = try_compile_core(
                    &prepared,
                    &machine,
                    &mut fuel,
                    &mut scratch,
                    &mut UnitTrace::disabled(),
                )
                .expect("unlimited fuel");
                let ddg = Ddg::build_in(&core.assignment.code, None, &mut scratch);
                let mut mfuel = Fuel::unlimited();
                let ms = try_modulo_schedule(
                    &core.assignment,
                    &ddg,
                    &machine,
                    core.length,
                    &mut mfuel,
                    &mut scratch,
                    &mut UnitTrace::disabled(),
                )
                .expect("unlimited fuel");
                // Fed to the whole-corpus digest, and again to a digest
                // of the units cluster assignment inserted no move into.
                let fold = |h: &mut Fnv1a| {
                    eat(h, mfuel.spent());
                    match &ms {
                        Some(ms) => {
                            eat(h, u64::from(ms.ii));
                            eat(h, u64::from(ms.mii));
                            eat(h, u64::from(ms.ii_attempts));
                            for &s in &ms.slots {
                                eat(h, u64::from(s));
                            }
                        }
                        None => eat(h, u64::MAX),
                    }
                };
                fold(&mut h);
                if core.move_count == 0 {
                    fold(&mut move_free);
                }
            }
        }
    }
    assert_eq!(
        h.finish(),
        PRE_MDES_CORPUS_DIGEST,
        "a scheduler decision, step count, or register peak changed"
    );
    assert_eq!(
        move_free.finish(),
        MOVE_FREE_MODULO_DIGEST,
        "a modulo schedule, II attempt, or fuel count of a move-free unit changed"
    );
}

#[test]
fn checkpoint_fingerprints_are_unchanged() {
    let cfg_a = ExploreConfig {
        archs: sample_specs(),
        benches: vec![Benchmark::A, Benchmark::D, Benchmark::G],
        fuel: None,
        ..ExploreConfig::default()
    };
    let cfg_b = ExploreConfig {
        archs: sample_specs(),
        benches: Benchmark::TABLE_COLUMNS.to_vec(),
        fuel: Some(9999),
        ..ExploreConfig::default()
    };
    assert_eq!(fingerprint(&cfg_a), PRE_MDES_FINGERPRINT_A);
    assert_eq!(fingerprint(&cfg_b), PRE_MDES_FINGERPRINT_B);
}

/// The tables the refactor retired, transcribed from the pre-`Mdes`
/// scheduler sources, checked live against the derived description over
/// the whole paper space.
#[test]
fn derived_tables_match_the_retired_hardcoded_ones() {
    for spec in DesignSpace::paper().all_arrangements() {
        let machine = MachineResources::from_spec(&spec);
        // loopcode.rs `latency_of`: ALU 1, IMUL 2, L1 3, L2 from the
        // spec, branch 1.
        assert_eq!(machine.latency(OpClass::Alu), 1);
        assert_eq!(machine.latency(OpClass::Mul), 2);
        assert_eq!(machine.latency(OpClass::MemL1), 3);
        assert_eq!(machine.latency(OpClass::MemL2), spec.l2_latency);
        assert_eq!(machine.latency(OpClass::Branch), 1);
        // list.rs issue scan: memory ports stayed busy for the full
        // latency (non-pipelined), every other unit re-issued each cycle.
        for class in OpClass::ALL {
            let expect = if class.is_mem() {
                machine.latency(class)
            } else {
                1
            };
            assert_eq!(machine.reserved_cycles(class), expect, "{spec} {class:?}");
        }
        // Unit counts agree with the spec's round-robin cluster dealing.
        for (j, sh) in spec.cluster_shapes().enumerate() {
            assert_eq!(machine.mdes.units(j, UnitClass::Alu), sh.alus);
            assert_eq!(machine.mdes.units(j, UnitClass::Mul), sh.muls);
            assert_eq!(machine.mdes.units(j, UnitClass::L1Port), sh.l1_ports);
            assert_eq!(machine.mdes.units(j, UnitClass::L2Port), sh.l2_ports);
            assert_eq!(
                machine.mdes.units(j, UnitClass::Branch),
                u32::from(sh.has_branch)
            );
        }
    }
}

/// The premise the one reservation table rests on, over the shipped
/// kernels × a stride of the paper and extended spaces × unroll 1, 2 and
/// 4 (each kernel and unroll factor on every third machine of the
/// stride, the third rotating so every machine meets every kernel):
/// every row an op reserves is backed by the unit count the spec's
/// cluster dealing gives that op's cluster — so no row ever serves two
/// different counts — no op needs a unit its cluster lacks, and the exact
/// oracle starts from `max(ResMII, RecMII)`, above the per-op bound
/// `ceil(reserved / units)` it once added on top.
#[test]
fn the_reservation_table_is_the_one_resource_bound() {
    let specs: Vec<ArchSpec> = (DesignSpace::paper().all_arrangements().into_iter())
        .step_by(100)
        .chain(
            DesignSpace::extended()
                .all_arrangements()
                .into_iter()
                .step_by(200),
        )
        .collect();
    let mut scratch = SchedScratch::new();
    let mut points = 0;
    for (b, bench) in Benchmark::ALL.into_iter().enumerate() {
        let mut k = bench.kernel();
        custom_fit::opt::optimize(&mut k);
        for (u, unroll) in [1, 2, 4].into_iter().enumerate() {
            let kernel = custom_fit::opt::unroll::unroll(&k, unroll);
            for spec in specs.iter().skip((b + u) % 3).step_by(3) {
                let at = format!("{bench} unroll {unroll} on {spec}");
                let machine = MachineResources::from_spec(spec);
                let prepared = prepare(&kernel, &machine, &mut UnitTrace::disabled());
                let core = try_compile_core(
                    &prepared,
                    &machine,
                    &mut Fuel::unlimited(),
                    &mut scratch,
                    &mut UnitTrace::disabled(),
                )
                .expect("unlimited fuel");
                let a = &core.assignment;
                let row_units: Vec<u32> = machine.mdes.row_units().collect();
                let mut per_op = 1;
                for (op, &c) in a.code.ops.iter().zip(&a.cluster_of_op) {
                    let sh = &machine.clusters[c as usize];
                    for r in machine.mdes.reservations(op.class, c as usize) {
                        let unit = UnitClass::ALL[r.row as usize % UnitClass::ALL.len()];
                        let dealt = match unit {
                            UnitClass::Alu => sh.alus,
                            UnitClass::Mul => sh.muls,
                            UnitClass::L1Port => sh.l1_ports,
                            UnitClass::L2Port => sh.l2_ports,
                            UnitClass::Branch => u32::from(sh.has_branch),
                        };
                        let units = row_units[r.row as usize];
                        assert_eq!(units, machine.mdes.units(c as usize, unit), "{at}");
                        assert_eq!(units, dealt, "{at}: {unit:?} on cluster {c}");
                        assert!(units > 0, "{at}: {:?} needs a missing {unit:?}", op.class);
                        per_op = per_op.max(r.reserved.div_ceil(units));
                    }
                }
                let ddg = Ddg::build_in(&a.code, None, &mut scratch);
                let deps = omega_deps(&a.code, &ddg);
                let bound = res_mii(&a.code, a, &machine).max(rec_mii(
                    a.code.ops.len(),
                    &deps,
                    core.length,
                ));
                let problem = PipelineProblem::new(a, &ddg, &machine, core.length);
                assert_eq!(problem.exact_mii(), bound, "{at}");
                assert!(per_op <= bound, "{at}: per-op bound {per_op} over {bound}");
                points += 1;
            }
        }
    }
    assert_eq!(specs.len(), 12);
    assert_eq!(points, Benchmark::ALL.len() * 3 * specs.len() / 3);
}

/// The custom-instruction axis composes with register retuning: a
/// description memoized per signature retunes to a sibling register
/// total without touching its registered fused rows or content hash,
/// and the result is exactly the sibling's fresh description.
#[test]
fn retuning_registers_preserves_fused_rows_and_hash() {
    use custom_fit::machine::{ExtSet, Mdes};
    let spec = ArchSpec::new(8, 4, 256, 2, 8, 2)
        .expect("valid spec")
        .with_extensions(ExtSet::ALL);
    let mut mdes = Mdes::from_spec(&spec);
    let hash = mdes.content_hash();
    let classes: Vec<_> = mdes.registered_classes().collect();
    mdes.retune_regs(512);
    assert_eq!(mdes.content_hash(), hash, "registers are outside the hash");
    assert_eq!(mdes.exts(), ExtSet::ALL);
    assert_eq!(mdes.registered_classes().collect::<Vec<_>>(), classes);
    let mut sib = spec;
    sib.regs = 512;
    assert_eq!(mdes, Mdes::from_spec(&sib));
    assert_eq!(
        spec.sched_signature_with(&mdes),
        spec.sched_signature(),
        "a retuned description still signs for its spec"
    );
}

/// The worked example from DESIGN.md, pinned byte for byte: `exhibits
/// --mdes-dump "(4 2 256 2 8 2)"` prints this rendering under a
/// one-line header. Regenerate the golden file from that command if the
/// dump format deliberately changes.
#[test]
fn golden_mdes_dump_for_the_worked_example() {
    let spec = ArchSpec::parse("(4 2 256 2 8 2)").expect("valid spec");
    let rendered = custom_fit::machine::Mdes::from_spec(&spec).render();
    assert_eq!(rendered, include_str!("golden/mdes_4_2_256_2_8_2.txt"));
}

/// The extended axis end to end: flipping `l2_pipelined` reaches the
/// scheduler purely through the derived description — no scheduler code
/// special-cases it — and a Level-2-bound kernel gets faster, never
/// slower.
#[test]
fn pipelined_l2_ports_change_only_the_description_and_help() {
    let base = ArchSpec::new(4, 2, 256, 1, 8, 1).expect("valid spec");
    let piped = base.with_pipelined_l2();
    assert_ne!(base.sched_signature(), piped.sched_signature());

    let mb = MachineResources::from_spec(&base);
    let mp = MachineResources::from_spec(&piped);
    // The description differs exactly in the Level-2 reservation window.
    assert_eq!(mp.latency(OpClass::MemL2), mb.latency(OpClass::MemL2));
    assert_eq!(
        mb.reserved_cycles(OpClass::MemL2),
        mb.latency(OpClass::MemL2)
    );
    assert_eq!(mp.reserved_cycles(OpClass::MemL2), 1);
    for class in OpClass::ALL {
        if class != OpClass::MemL2 {
            assert_eq!(mb.reserved_cycles(class), mp.reserved_cycles(class));
        }
    }

    let mut scratch = SchedScratch::new();
    let mut k = Benchmark::D.kernel();
    custom_fit::opt::optimize(&mut k);
    let k = custom_fit::opt::unroll::unroll(&k, 4);
    let schedule = |machine: &MachineResources, scratch: &mut SchedScratch| {
        let prepared = prepare(&k, machine, &mut UnitTrace::disabled());
        try_compile_core(
            &prepared,
            machine,
            &mut Fuel::unlimited(),
            scratch,
            &mut UnitTrace::disabled(),
        )
        .expect("unlimited fuel")
        .length
    };
    let lb = schedule(&mb, &mut scratch);
    let lp = schedule(&mp, &mut scratch);
    assert!(
        lp < lb,
        "one non-pipelined L2 port serializes benchmark D's loads: {lp} vs {lb}"
    );
}
