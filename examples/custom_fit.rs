//! Custom-fit a processor to one application — the paper's core loop on
//! a reduced design space (so it runs in seconds; the full 192-point
//! experiment lives in `cargo run -p cfp-exhibits --bin exhibits`).
//!
//! ```sh
//! cargo run --release --example custom_fit [BENCH] [COST]
//! ```
//!
//! `BENCH` is a paper benchmark letter (default `H`); `COST` a budget
//! (default 10).

use custom_fit::dse;
use custom_fit::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let bench = args.get(1).map_or(Benchmark::H, |s| {
        Benchmark::ALL
            .into_iter()
            .find(|b| b.letter().eq_ignore_ascii_case(s))
            .unwrap_or_else(|| panic!("unknown benchmark `{s}`"))
    });
    let budget: f64 = args
        .get(2)
        .map_or(10.0, |s| s.parse().expect("numeric cost"));

    // A reduced but representative slice of the paper's space: vary ALUs,
    // registers, memory ports, and clustering.
    let mut archs = Vec::new();
    for (a, m) in [(1, 1), (2, 1), (4, 2), (8, 4), (16, 8)] {
        for r in [64_u32, 128, 256] {
            for p2 in [1_u32, 2] {
                for c in [1_u32, 2, 4] {
                    if let Ok(spec) = ArchSpec::new(a, m, r, p2, 4, c) {
                        if r / c >= 16 {
                            archs.push(spec);
                        }
                    }
                }
            }
        }
    }
    let config = ExploreConfig {
        archs,
        benches: vec![bench],
        ..ExploreConfig::default()
    };
    println!(
        "exploring {} architectures for benchmark {bench} ({})",
        config.archs.len(),
        bench.description()
    );
    let ex = Exploration::run(&config);
    println!(
        "{} compilations in {:.1?}\n",
        ex.stats.compilations, ex.stats.wall
    );

    // The scatter and its best-alternatives frontier (paper Figure 3).
    let points = dse::scatter(&ex, 0);
    let front = dse::frontier(&points);
    println!("{}", dse::report::ascii_scatter(&points, &front, 64, 20));

    println!("best cost/performance alternatives:");
    for &i in &front {
        let p = &points[i];
        println!(
            "  {}  cost {:6.2}  speedup {:5.2}",
            p.spec, p.cost, p.speedup
        );
    }

    match select(&ex, 0, budget, Range::Fraction(0.0)) {
        Some(sel) => println!(
            "\ncustom-fit processor for {bench} under cost {budget}: {} \
             (cost {:.1}, speedup {:.2})",
            sel.spec, sel.cost, sel.speedups[0]
        ),
        None => println!("\nno architecture fits cost {budget}"),
    }
}
