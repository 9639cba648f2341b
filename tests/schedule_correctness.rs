//! The repository's keystone invariant, end to end: for every benchmark
//! and a spread of architectures across the design space, the scheduled
//! VLIW code — executed cycle-accurately with clustered register files,
//! functional-unit latencies, non-pipelined memory ports, and explicit
//! inter-cluster moves — computes exactly what the golden Rust reference
//! computes.

use custom_fit::kernels::golden;
use custom_fit::prelude::*;

fn check(bench: Benchmark, spec: &ArchSpec, unroll: u32, n: u64) {
    let workload = bench.workload(n, 0xfeed + u64::from(unroll));
    let mut kernel = workload.kernel.clone();
    custom_fit::opt::optimize_budgeted(&mut kernel, (spec.regs / 2) as usize);
    let kernel = custom_fit::opt::unroll::unroll(&kernel, unroll);
    let machine = MachineResources::from_spec(spec);
    let result = compile(&kernel, &machine);

    let mut mem = workload.image();
    simulate(&kernel, &result, &machine, &mut mem, n / u64::from(unroll))
        .unwrap_or_else(|e| panic!("{bench} on {spec} x{unroll}: {e}"));

    let mut gold = workload.image();
    golden::run(bench, &mut gold, n);
    for i in workload.observable_arrays() {
        assert_eq!(
            mem.array(i),
            gold.array(i),
            "{bench} on {spec} x{unroll}: array {i} ({})",
            workload.kernel.arrays[i].name
        );
    }
}

/// Architectures spanning the corners of the space: the baseline, a wide
/// single cluster, a port-starved many-cluster machine, and a fast-memory
/// clustered machine.
fn spread() -> Vec<ArchSpec> {
    [
        (1, 1, 64, 1, 8, 1),
        (8, 4, 256, 2, 4, 1),
        (16, 4, 128, 1, 4, 8),
        (16, 8, 512, 4, 2, 4),
    ]
    .into_iter()
    .map(|(a, m, r, p2, l2, c)| ArchSpec::new(a, m, r, p2, l2, c).expect("valid"))
    .collect()
}

#[test]
fn every_benchmark_simulates_correctly_across_the_space() {
    for bench in Benchmark::ALL {
        for spec in spread() {
            check(bench, &spec, 1, 4);
        }
    }
}

#[test]
fn unrolled_schedules_simulate_correctly() {
    let spec = ArchSpec::new(8, 4, 512, 2, 4, 2).expect("valid");
    for bench in [Benchmark::A, Benchmark::F, Benchmark::H, Benchmark::D] {
        check(bench, &spec, 4, 8);
    }
}

#[test]
fn clustered_idct_simulates_correctly() {
    // C is the heaviest dataflow (promoted 8x8 block): exercise it on a
    // 4-cluster machine with unrolling.
    check(
        Benchmark::C,
        &ArchSpec::new(16, 8, 512, 4, 4, 4).expect("valid"),
        2,
        4,
    );
}
