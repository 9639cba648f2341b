//! # cfp-sched — the retargetable VLIW back end
//!
//! The machine-dependent half of the compiler, corresponding to the
//! paper's "build a version of our compiler that generates good code for
//! that architecture" step:
//!
//! 1. [`loopcode`] flattens a kernel body into schedulable operations,
//!    materializing the address-stream and loop-control overhead;
//! 2. [`ddg`] builds the data-dependence graph (register RAW plus affine
//!    memory disambiguation);
//! 3. [`cluster`] performs BUG-style cluster assignment and inserts the
//!    explicit inter-cluster moves of the paper's template;
//! 4. [`list`] runs a resource-constrained list scheduler (per-cluster
//!    ALU/IMUL slots, non-pipelined memory ports, the single branch
//!    unit);
//! 5. [`regalloc`] measures per-cluster register pressure and detects
//!    spilling — the signal the experiment's unroll sweep stops on;
//! 6. [`mod@simulate`] executes the schedule cycle-accurately and must
//!    reproduce the reference interpreter bit for bit;
//! 7. [`mod@encode`] lowers schedules to bit-level long-instruction words
//!    (with the classic VLIW NOP-compression) and back;
//! 8. [`modulo`] is an ablation scheduler: software pipelining, to
//!    quantify what the paper's loop-barrier discipline costs.
//!
//! [`compile`](compile::compile) glues the pipeline together. The
//! pipeline is also exposed as three cacheable phases —
//! [`prepare`](compile::prepare) (machine-independent),
//! [`try_compile_core`](compile::try_compile_core) (depends on the
//! machine's scheduling signature but not its register-file size), and
//! [`finish`](compile::finish) (the capacity verdict) — so a sweep over
//! many machines can share everything two of them compile alike.
//!
//! Every entry point draws its working memory from the calling thread's
//! one scratch arena, borrowed once per call and carrying nothing
//! between calls: a thread that compiles kernel after kernel allocates
//! only its results, and callers pass no arena. [`work_counts`] reads
//! the clock-free work counters the arena keeps.
//!
//! ```
//! use cfp_frontend::compile_kernel;
//! use cfp_machine::{ArchSpec, MachineResources};
//!
//! let kernel = compile_kernel(
//!     "kernel k(in u8 s[], out i32 d[]) { loop i { d[i] = s[i] * 5 + 7; } }",
//!     &[],
//! ).unwrap();
//! let machine = MachineResources::from_spec(&ArchSpec::baseline());
//! let out = cfp_sched::compile::compile(&kernel, &machine);
//! assert!(out.fits());
//! assert!(u64::from(out.cycles_per_iter()) >= u64::from(out.critical_path));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod compile;
pub mod ddg;
pub mod encode;
pub mod error;
pub mod exact;
pub mod list;
pub mod loopcode;
pub mod modulo;
mod mrt;
pub mod regalloc;
mod scratch;
pub mod simulate;

pub use cluster::{Assignment, HomeTable};
pub use compile::{
    compile, finish, prepare, spill_excess, spill_penalty_cycles, try_compile_core, CompileResult,
    Prepared, SchedCore,
};
pub use ddg::{Ddg, Dep, DepKind};
pub use encode::{decode, encode, encode_traced, EncodeError, Program};
pub use error::{Fuel, SchedError};
pub use exact::{certify_min_ii, CertifyOutcome, ExactVerdict};
pub use list::{render, schedule_with, try_schedule, Placement, Priority, Schedule};
pub use loopcode::{FuClass, LoopCode, OpOrigin, SOp, Uses};
pub use modulo::{
    modulo_schedule, omega_deps, rec_mii, res_mii, validate_modulo, ModuloSchedule, OmegaDep,
    PipelineProblem, ResReq,
};
pub use regalloc::{allocate, peak_pressure, pressure, AllocError, PhysMap, PressureReport};
pub use scratch::{work_counts, WorkCounts};
pub use simulate::{simulate, simulate_traced, SimError, SimStats};

#[cfg(test)]
mod testgen;
