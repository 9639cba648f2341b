//! # cfp-exhibits — exhibit regenerators
//!
//! One function per table and figure of the paper, each producing the
//! text (or CSV) that corresponds to that exhibit, computed from this
//! repository's models and experiment. The `exhibits` binary drives
//! them:
//!
//! ```sh
//! cargo run --release -p cfp-exhibits --bin exhibits -- all
//! cargo run --release -p cfp-exhibits --bin exhibits -- table8 --fast
//! ```
//!
//! Timing the toolchain itself is `benchmarks/`' job (see its README).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exhibits;
