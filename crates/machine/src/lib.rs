//! # cfp-machine — the clustered-VLIW machine model
//!
//! Everything the paper calls "the architecture" lives here:
//!
//! * [`ArchSpec`] — the 6-tuple `(a m r p2 l2 c)` the paper uses to name
//!   an architecture: total ALUs, IMUL-capable ALUs, total registers,
//!   Level-2 memory ports, Level-2 latency, and cluster count — plus the
//!   derived per-cluster quantities (register-file ports, port placement);
//! * [`CostModel`] — the datapath-area cost
//!   `COST = Σ_clusters Xdp(p)·(Yreg(r,p) + Yalu(a) + Ymul(m))`,
//!   with fitting constants calibrated against the paper's Table 6;
//! * [`CycleModel`] — the cycle-time derating factor, quadratic in the
//!   register-file ports, calibrated against the paper's Table 7;
//! * [`calibrate`] — the least-squares machinery that derives those
//!   constants from the published tables (the paper fitted its constants
//!   "from observation of existing designs"; the designs we can observe
//!   are the table rows the paper printed);
//! * [`SpaceAxes`] — the design spaces as axis value lists: the
//!   exhaustive enumeration of candidate architectures searched by the
//!   experiment (the paper's 191-point space, §2.4; [`DesignSpace`] is
//!   its candidate list), the pipelined-L2 extended space, the
//!   fused-extension space and the combinatorial one;
//! * [`Mdes`] — the declarative machine description (op-class table,
//!   unit table, reservation model) derived from an [`ArchSpec`]; the
//!   single source of truth every downstream consumer reads;
//! * [`MachineResources`] — the reservation-table view of an architecture
//!   consumed by the `cfp-sched` list scheduler, wrapping an [`Mdes`];
//! * [`Fnv1a`] — the one persisted hash, behind every signature,
//!   fingerprint and pinned digest in the workspace.
//!
//! ```
//! use cfp_machine::{ArchSpec, CostModel, CycleModel};
//!
//! let arch = ArchSpec::new(8, 4, 256, 1, 4, 4).unwrap();
//! let cost = CostModel::paper_calibrated();
//! let cycle = CycleModel::paper_calibrated();
//! assert!(cost.cost(&arch) > 1.0);
//! assert!(cycle.derate(&arch) >= 1.0);
//! assert_eq!(arch.to_string(), "(8 4 256 1 4 4)");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The machine model is library code for a long-running sweep: fallible
// paths must return typed errors, not panic. Justified exceptions
// (static tables validated by tests, fits over fixed grids) carry a
// local `#[allow]` with a comment.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod arch;
pub mod axes;
pub mod calibrate;
pub mod cost;
pub mod cycle;
pub mod ext;
pub mod hash;
pub mod mdes;
pub mod paper;
pub mod resources;
pub mod signature;
pub mod space;

pub use arch::{ArchError, ArchSpec, ClusterShape};
pub use axes::SpaceAxes;
pub use cost::CostModel;
pub use cycle::CycleModel;
pub use ext::{ExtSet, Extension, EXTENSIONS};
pub use hash::Fnv1a;
pub use mdes::{
    ClusterUnits, Mdes, OpClass, OpDesc, ResReq, UnitClass, ALU_LATENCY, BRANCH_LATENCY,
    L1_LATENCY, MUL_LATENCY,
};
pub use resources::MachineResources;
pub use signature::SchedSignature;
pub use space::DesignSpace;
