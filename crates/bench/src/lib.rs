//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§7–§8).
//!
//! `scenarios` is the one exhibit runner; the other binaries are the
//! host-timed table and tools:
//!
//! | binary      | content |
//! |-------------|---------|
//! | `scenarios` | lists/runs any registered [`workload::ScenarioSpec`]: Figures 8–13 (`fig8-variants`, `fig9-variants`, `fig10-granularity`, `fig11-efficiency`, `fig11-12-removal`, `fig13-errors`), the four `ablation-*` sweeps and the workload crate's built-ins; `--journal` / `--replay` record and verify the reference journal |
//! | `table1`    | Table 1: simulation cost & memory per simulation setting, plus predicted times (host-timed, serial, so not a scenario) |
//! | `lurun`     | one LU run through any engine from the command line |
//! | `fuzz`      | seeded determinism and journal-codec fuzzing |
//! | `chaos`     | seeded crash/recovery sweep of the durable cluster service |
//!
//! "Measured" values come from the seeded ground-truth testbed emulator
//! (this repository's stand-in for the paper's Sun cluster — see
//! `testbed`); "predicted" values from the simulator using only the
//! published platform parameters. See `EXPERIMENTS.md` for paper-vs-
//! reproduction numbers. Host-time numbers come from the `benchmark/`
//! package (`benchmark run` / `trace`), never from this crate.

pub mod experiments;
pub mod fuzz;
pub mod harness;
pub mod journal_probe;
pub mod runner;
pub mod scenarios;

pub use experiments::*;
pub use fuzz::{fuzz, fuzz_journal_decode, fuzz_with, FuzzConfig, FuzzOutcome, JournalFuzzReport};
pub use harness::{
    panic_message, run_parallel_isolated_with, run_parallel_with, smoke, thread_count,
};
pub use journal_probe::{
    default_journal_path, record_reference_journal, replay_journal_file, JournalProbe,
    JournalReplay,
};
pub use runner::{run_scenario, run_scenario_with, ScenarioOutcome, ScenarioRow};
pub use scenarios::figure_scenarios;
