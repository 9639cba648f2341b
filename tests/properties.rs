//! Property-based tests over randomized kernels and architectures.
//!
//! The generators build arbitrary (but well-formed) kernels directly with
//! the IR builder — random dataflow over two input arrays, an inout
//! array, carried accumulators, compares and selects — then check the
//! system's core invariants:
//!
//! * the optimizer and unroller preserve interpreter semantics;
//! * for any valid architecture, the compiled schedule simulates to the
//!   same memory image as the interpreter;
//! * the dependence graph's memory edges are exactly the conflicting
//!   pairs a scan over every pair of memory ops finds;
//! * the cost and cycle models are monotone in every resource;
//! * the paper design space is exactly the cross product of the axes the
//!   paper states, with no duplicates and every point valid.

mod common;

use cfp_testkit::cases;
use common::{arch, bind_inputs, build, recipe, N_ITERS};
use custom_fit::machine::SpaceAxes;
use custom_fit::prelude::*;

#[test]
fn optimizer_and_unroller_preserve_semantics() {
    cases(0x5eed_0001, 24, |rng| {
        let r = recipe(rng);
        let unroll = rng.range_u32(1..=4);
        let unroll = if N_ITERS % u64::from(unroll) == 0 {
            unroll
        } else {
            1
        };
        let kernel = build(&r);
        let mut mem_ref = bind_inputs(&kernel);
        Interpreter::new()
            .run(&kernel, &mut mem_ref, N_ITERS)
            .expect("reference runs");

        let mut opt = kernel.clone();
        custom_fit::opt::optimize(&mut opt);
        let opt = custom_fit::opt::unroll::unroll(&opt, unroll);
        custom_fit::ir::verify(&opt).expect("optimized kernel verifies");
        let mut mem_opt = bind_inputs(&kernel);
        Interpreter::new()
            .run(&opt, &mut mem_opt, N_ITERS / u64::from(unroll))
            .expect("optimized runs");
        for i in 0..4 {
            assert_eq!(mem_ref.array(i), mem_opt.array(i), "array {i}");
        }
    });
}

#[test]
fn schedules_simulate_like_the_interpreter() {
    cases(0x5eed_0002, 24, |rng| {
        let r = recipe(rng);
        let spec = arch(rng);
        let kernel = build(&r);
        let machine = MachineResources::from_spec(&spec);
        let result = compile(&kernel, &machine);

        let mut mem_ref = bind_inputs(&kernel);
        Interpreter::new()
            .run(&kernel, &mut mem_ref, N_ITERS)
            .expect("reference runs");
        let mut mem_sim = bind_inputs(&kernel);
        simulate(&kernel, &result, &machine, &mut mem_sim, N_ITERS)
            .unwrap_or_else(|e| panic!("{spec}: {e}"));
        for i in 0..4 {
            assert_eq!(mem_ref.array(i), mem_sim.array(i), "array {i}");
        }
        // Structural sanity alongside: the schedule respects the
        // dependence-graph lower bound.
        assert!(result.length >= result.critical_path);
    });
}

/// `Ddg::build` scans memory ops per array and never pairs two loads.
/// Here every pair is examined, with the conflict rule spelled out on
/// the IR, and the graph reassembled from its own register edges plus
/// these memory edges must be the same graph, group order included.
#[test]
fn memory_edges_are_the_conflicting_pairs_of_an_all_pairs_scan() {
    use custom_fit::sched::{cluster, Ddg, Dep, DepKind, LoopCode};
    cases(0x5eed_0005, 24, |rng| {
        let mut kernel = build(&recipe(rng));
        if rng.gen_bool() {
            custom_fit::opt::optimize(&mut kernel);
        }
        let kernel = custom_fit::opt::unroll::unroll(&kernel, rng.range_u32(1..=4));
        let machine = MachineResources::from_spec(&arch(rng));
        let code = LoopCode::build(&kernel, &machine);
        let code = cluster::assign(&code, &Ddg::build(&code), &machine).code;
        let graph = Ddg::build(&code);

        let mut edges: Vec<Dep> = graph.edges().to_vec();
        edges.retain(|d| d.kind == DepKind::RegRaw);
        let mems = code.mem_ops();
        for (ai, &a) in mems.iter().enumerate() {
            for &b in &mems[ai + 1..] {
                let (ia, ib) = (code.ops[a].inst.unwrap(), code.ops[b].inst.unwrap());
                let (ma, mb) = (ia.mem().unwrap(), ib.mem().unwrap());
                let same_element = !ma.is_affine()
                    || !mb.is_affine()
                    || ma.coeff != mb.coeff
                    || ma.offset == mb.offset;
                let (kind, lat) = match (ia.is_store(), ib.is_store()) {
                    (false, false) => continue,
                    (true, false) => (DepKind::MemRaw, code.ops[a].latency),
                    (false, true) => (DepKind::MemWar, 1),
                    (true, true) => (DepKind::MemWaw, 1),
                };
                if ma.array == mb.array && same_element {
                    let (from, to) = (a as u32, b as u32);
                    edges.push(Dep {
                        from,
                        to,
                        lat,
                        kind,
                    });
                }
            }
        }
        let latencies: Vec<u32> = code.ops.iter().map(|o| o.latency).collect();
        assert_eq!(graph, Ddg::from_edges(&latencies, &edges));
    });
}

#[test]
fn cost_and_cycle_models_are_monotone() {
    cases(0x5eed_0003, 32, |rng| {
        let spec = arch(rng);
        let cost = CostModel::paper_calibrated();
        let cycle = CycleModel::paper_calibrated();
        let c0 = cost.cost(&spec);
        assert!(c0.is_finite() && c0 > 0.0);
        // Grow each resource in turn; cost must not drop.
        let grow = [
            ArchSpec {
                alus: spec.alus * 2,
                muls: spec.muls * 2,
                ..spec
            },
            ArchSpec {
                regs: spec.regs * 2,
                ..spec
            },
            ArchSpec {
                l2_ports: spec.l2_ports + 1,
                ..spec
            },
        ];
        for g in grow {
            if g.validate().is_ok() {
                assert!(cost.cost(&g) >= c0 - 1e-12, "{g} vs {spec}");
            }
        }
        // Cycle time never improves when ALUs per cluster grow.
        let wider = ArchSpec {
            alus: spec.alus * 2,
            muls: spec.muls,
            ..spec
        };
        if wider.validate().is_ok() {
            assert!(cycle.derate(&wider) >= cycle.derate(&spec) - 1e-12);
        }
    });
}

#[test]
fn paper_space_is_the_stated_cross_product() {
    // Rebuild the space independently from the axes §2.2 states: ALUs,
    // IMUL fraction in {1/4, 1/2} (at least one), registers, L2 ports,
    // L2 latency. 8 (a, m) pairs × 4 × 3 × 2 = 192 base points — one
    // more than the paper's reported 191; the paper never spells out its
    // enumeration, and EXPERIMENTS.md documents the discrepancy.
    let mut expected = std::collections::HashSet::new();
    for a in [1_u32, 2, 4, 8, 16] {
        for m in [(a / 4).max(1), (a / 2).max(1)] {
            for r in [64_u32, 128, 256, 512] {
                for p2 in [1_u32, 2, 4] {
                    for l2 in [4_u32, 8] {
                        expected.insert(ArchSpec::new(a, m, r, p2, l2, 1).expect("valid"));
                    }
                }
            }
        }
    }
    assert_eq!(expected.len(), 192);

    let axes = SpaceAxes::paper();
    let base = axes.base_points();
    assert_eq!(base.len(), 192, "one more than the paper's 191");
    let mut seen = std::collections::HashSet::new();
    for p in &base {
        assert!(p.validate().is_ok(), "{p}");
        assert!(!p.l2_pipelined, "the paper space is non-pipelined: {p}");
        assert!(seen.insert(*p), "duplicate base point {p}");
        assert!(expected.contains(p), "{p} is outside the stated axes");
    }
    // Every cluster arrangement is valid and derives a machine
    // description that agrees with its spec (the layer everything
    // downstream of the space consumes).
    for s in axes.arrangements() {
        assert!(s.validate().is_ok(), "{s}");
        let mdes = custom_fit::machine::Mdes::from_spec(&s);
        assert_eq!(mdes.cluster_count(), s.clusters as usize, "{s}");
        assert_eq!(s.sched_signature().mdes_hash, mdes.content_hash(), "{s}");
    }
}
