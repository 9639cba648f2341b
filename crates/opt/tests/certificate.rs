//! The residency certificate `optimize_budgeted_traced` returns, on the
//! shipped kernels.
//!
//! LICM reads its budget in one comparison, `resident_count >=
//! max_resident`, over a count that only grows. A run whose peak `p`
//! stayed below its budget `B` therefore never saw the comparison hold,
//! and every budget above `p` would have made the same run: same kernel,
//! same peak. A run with `p >= B` speaks for `B` alone. The plan build
//! (`cfp_dse::eval`) skips optimizer runs on the strength of this, so it
//! is checked here exhaustively: every budget from 0 to two past the
//! unbudgeted peak, on every kernel, before and after unrolling.

use cfp_ir::Kernel;
use cfp_kernels::Benchmark;
use cfp_obs::UnitTrace;
use cfp_opt::{optimize, optimize_budgeted_traced, unroll::unroll};

fn run(input: &Kernel, budget: usize) -> (Kernel, usize) {
    let mut k = input.clone();
    let peak = optimize_budgeted_traced(&mut k, budget, &mut UnitTrace::disabled());
    (k, peak)
}

#[test]
fn a_run_under_its_budget_is_the_run_of_every_budget_above_its_peak() {
    let (mut classes, mut alone, mut alone_and_different) = (0, 0, 0);
    for b in Benchmark::ALL {
        let raw = b.kernel();
        let mut optimized = raw.clone();
        optimize(&mut optimized);
        for input in [raw, unroll(&optimized, 4)] {
            let (free, top) = run(&input, usize::MAX);
            let runs: Vec<(Kernel, usize)> = (0..=top + 2).map(|b| run(&input, b)).collect();
            for (budget, (kernel, peak)) in runs.iter().enumerate() {
                if *peak < budget {
                    classes += 1;
                    for other in &runs[peak + 1..=budget] {
                        assert!(other.0 == *kernel, "{b}: budget {budget}, peak {peak}");
                        assert_eq!(other.1, *peak, "{b}: budget {budget}");
                    }
                    // Not only up to `budget`: all the way up.
                    assert!(free == *kernel && top == *peak, "{b}: budget {budget}");
                } else {
                    alone += 1;
                    alone_and_different += usize::from(runs[budget + 1].0 != *kernel);
                }
            }
        }
    }
    // Both branches of the rule were really taken, and "answers for B
    // alone" is not vacuous: one more resident value changes the code.
    assert!(classes > 0 && alone > 0, "{classes} shared, {alone} alone");
    assert!(
        alone_and_different > 0,
        "no binding budget changed a kernel"
    );
}
