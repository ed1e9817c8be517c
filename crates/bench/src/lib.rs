//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§7–§8).
//!
//! Each binary in `src/bin` reproduces one exhibit:
//!
//! | binary   | paper exhibit | content |
//! |----------|---------------|---------|
//! | `table1` | Table 1       | simulation cost & memory per simulation setting, plus predicted times |
//! | `fig8`   | Figure 8      | impact of modifications + granularity, 4 nodes, reference r = 648 |
//! | `fig9`   | Figure 9      | impact of modifications, 4 nodes, reference r = 324 |
//! | `fig10`  | Figure 10     | granularity sweep × pipelining strategies, 8 nodes |
//! | `fig11`  | Figure 11     | dynamic efficiency per LU iteration, with thread removal |
//! | `fig12`  | Figure 12     | total running time of removal strategies |
//! | `fig13`  | Figure 13     | histogram of prediction errors over all measurements |
//! | `all`    | —             | everything above in sequence |
//! | `scenarios` | —          | lists/runs any registered [`workload::ScenarioSpec`], figures included |
//!
//! "Measured" values come from the seeded ground-truth testbed emulator
//! (this repository's stand-in for the paper's Sun cluster — see
//! `testbed`); "predicted" values from the simulator using only the
//! published platform parameters. See `EXPERIMENTS.md` for paper-vs-
//! reproduction numbers.

pub mod chaos;
pub mod experiments;
pub mod fuzz;
pub mod harness;
pub mod journal_probe;
pub mod runner;
pub mod scenarios;

pub use chaos::{record_chaos, run_chaos, ChaosConfig, ChaosOutcome, CHAOS_SHARDS};
pub use experiments::*;
pub use fuzz::{
    first_text_divergence, fuzz, fuzz_journal_decode, fuzz_with, FuzzConfig, FuzzOutcome,
    JournalFuzzReport,
};
pub use harness::{
    panic_message, run_parallel, run_parallel_isolated, run_parallel_isolated_with,
    run_parallel_with, smoke, thread_count, time, BenchJson,
};
pub use journal_probe::{
    default_journal_path, record_reference_journal, replay_journal_file, JournalProbe,
    JournalReplay,
};
pub use runner::{run_scenario, ScenarioOutcome, ScenarioRow};
pub use scenarios::figure_scenarios;
