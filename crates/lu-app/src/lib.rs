//! Block LU factorization as a DPS application — the paper's evaluation
//! workload (§5–§6).
//!
//! The matrix is distributed onto worker threads in column blocks of size
//! `r × n`. Each iteration `k` factorizes the panel (column block `k`),
//! solves triangular systems on the other column blocks (after row
//! flipping), performs the distributed block multiplications `L21·T12`, and
//! subtracts the products — then recurses on the trailing matrix. All the
//! paper's variants are implemented:
//!
//! * **Basic** flow graph — merge/split barriers between phases;
//! * **Pipelined (P)** — stream operations start iteration `k+1`'s panel as
//!   soon as column `k+1` is complete and stream triangular-solve and
//!   multiplication requests as their inputs become available;
//! * **Flow control (FC)** — a credit window on the stream generating
//!   multiplication requests;
//! * **Parallel sub-block multiplication (PM)** — each `r × r`
//!   multiplication is decomposed into `s × r` line blocks and `r × s`
//!   column blocks multiplied across threads (the paper's Figure 7);
//! * **Dynamic thread removal** — after a configured iteration, worker
//!   threads are deallocated; their column blocks migrate to the survivors
//!   and subsequent work is automatically redistributed.
//!
//! Three data modes support the paper's Table 1: [`DataMode::Real`]
//! (allocate + really compute — direct execution, verifiable against the
//! sequential reference), [`DataMode::Alloc`] (allocate but replace kernels
//! with benchmarked charges — PDEXEC) and [`DataMode::Ghost`] (ghost
//! payloads, no allocation — PDEXEC NOALLOC).

#![warn(missing_docs)]

pub mod builder;
pub mod config;
pub mod ops;
pub mod payload;
pub mod run;

pub use builder::build_lu_app;
pub use config::{DataMode, LuConfig};
pub use payload::{LuOutput, Payload};
pub use run::{measure_lu, predict_lu, predict_lu_with_fabric, LuCheckpoint, LuRun};
