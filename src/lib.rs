//! # custom-fit — Custom-Fit Processors in Rust
//!
//! A full reproduction of *Custom-Fit Processors: Letting Applications
//! Define Architectures* (Fisher, Faraboschi, Desoli — HP Labs Cambridge,
//! MICRO-29, 1996): an automatic hardware/software codesign loop that
//! searches a space of clustered-VLIW architectures for the one that runs
//! a given application best under a datapath-cost budget.
//!
//! This facade re-exports the whole toolchain:
//!
//! | module | crate | what it is |
//! |---|---|---|
//! | [`ir`] | `cfp-ir` | loop-level IR, interpreter, verifier |
//! | [`frontend`] | `cfp-frontend` | the kernel DSL (lexer → parser → lowering) |
//! | [`opt`] | `cfp-opt` | optimizer (fold, CSE, LICM, mem2reg, DCE, unrolling) |
//! | [`machine`] | `cfp-machine` | architecture specs, cost & cycle-time models, design space |
//! | [`sched`] | `cfp-sched` | VLIW back end: DDG, clustering, list scheduling, pressure, simulator |
//! | [`kernels`] | `cfp-kernels` | the paper's benchmarks (DSL + golden references + data) |
//! | [`dse`] | `cfp-dse` | the exploration, selection, and reporting layer |
//! | [`obs`] | `cfp-obs` | structured observability: recorders, spans, trace summaries |
//! | [`serve`] | `cfp-serve` | the `cfpd` exploration daemon: jobs over TCP, retries, crash recovery |
//!
//! ## Quick start
//!
//! ```
//! use custom_fit::prelude::*;
//!
//! // Compile a kernel for the paper's baseline machine and a custom one.
//! let kernel = compile_kernel(
//!     "kernel scale(in u8 s[], out u8 d[]) { loop i { d[i] = u8((s[i]*3) >> 2); } }",
//!     &[],
//! ).unwrap();
//! let custom = ArchSpec::new(4, 2, 128, 2, 4, 1).unwrap();
//!
//! let base = compile_for(&kernel, &ArchSpec::baseline());
//! let tuned = compile_for(&kernel, &custom);
//! assert!(tuned.cycles_per_iter() < base.cycles_per_iter());
//! ```
//!
//! See `examples/` for end-to-end walkthroughs and `crates/exhibits` for the
//! binaries that regenerate every table and figure of the paper.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use cfp_dse as dse;
pub use cfp_frontend as frontend;
pub use cfp_ir as ir;
pub use cfp_kernels as kernels;
pub use cfp_machine as machine;
pub use cfp_obs as obs;
pub use cfp_opt as opt;
pub use cfp_sched as sched;
pub use cfp_serve as serve;

/// Compile a kernel for an architecture as given — no optimization, no
/// unrolling: the facade's one-call version of the back end (the sweep
/// schedules its own plans, `cfp_dse::eval::plan`).
#[must_use]
pub fn compile_for(
    kernel: &cfp_ir::Kernel,
    spec: &cfp_machine::ArchSpec,
) -> cfp_sched::CompileResult {
    let machine = cfp_machine::MachineResources::from_spec(spec);
    cfp_sched::compile(kernel, &machine)
}

/// The most common imports, for examples and quick experiments.
pub mod prelude {
    pub use crate::compile_for;
    pub use cfp_dse::{select, speedup_table, Exploration, ExploreConfig, Range, Selection};
    pub use cfp_frontend::compile_kernel;
    pub use cfp_ir::{Interpreter, Kernel, MemImage};
    pub use cfp_kernels::Benchmark;
    pub use cfp_machine::{ArchSpec, CostModel, CycleModel, DesignSpace, MachineResources};
    pub use cfp_sched::{compile, simulate};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_pipeline_works() {
        let k = compile_kernel(
            "kernel k(in u8 s[], out u8 d[]) { loop i { d[i] = u8(s[i] ^ 255); } }",
            &[],
        )
        .unwrap();
        let r = crate::compile_for(&k, &ArchSpec::baseline());
        assert!(r.fits());
    }
}
