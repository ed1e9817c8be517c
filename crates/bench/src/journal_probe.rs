//! Reference-run journal capture and self-contained replay: the plumbing
//! behind `scenarios --journal` and `scenarios --replay`.
//!
//! `scenarios --journal` records the committed-event journal of a
//! reference LU run (the Figure 8 reference configuration, smoke-sized
//! under `DVNS_SMOKE=1`) and writes the encoded stream to
//! `results/lu_reference.journal`. The file is self-contained: the
//! application configuration, root seed and a digest of the canonical
//! report ride along as journal metadata, so `scenarios --replay <path>` can
//! rebuild the exact run in a later process, run it once, and byte-compare
//! — reporting the first diverging event (ticket, virtual time, op, field)
//! on any mismatch instead of a whole-file diff.

use std::hash::Hasher;
use std::path::{Path, PathBuf};

use desim::fxhash::FxHasher;
use dps_sim::Journal;
use lu_app::LuConfig;

use crate::Env;

/// Where `scenarios --journal` writes the reference journal and where
/// `scenarios --replay` looks without an explicit path.
pub fn default_journal_path() -> PathBuf {
    PathBuf::from("results").join("lu_reference.journal")
}

/// Hex digest of a canonical report rendering, stored in the journal
/// metadata so a replay in a later process can byte-compare without
/// shipping the full report text.
fn canonical_digest(canonical: &str) -> String {
    let mut h = FxHasher::default();
    h.write(canonical.as_bytes());
    format!("{:016x}", h.finish())
}

/// The recorded reference configuration: Figure 8's reference point
/// (r = 648 on 4 nodes at the paper's matrix order), shrunk to a
/// CI-sized instance in smoke mode.
fn reference_cfg(env: &Env, smoke: bool) -> LuConfig {
    if smoke {
        env.lu_sized(432, 36, 4)
    } else {
        env.lu(648, 4)
    }
}

/// What [`record_reference_journal`] produced.
pub struct JournalProbe {
    /// Committed events in the recorded stream.
    pub events: usize,
    /// Digest of the canonical report (also stored in the journal).
    pub digest: String,
}

/// Runs the reference configuration journaled and writes the stream (plus
/// replay metadata) to `path`.
pub fn record_reference_journal(
    seed: u64,
    smoke: bool,
    path: &Path,
) -> Result<JournalProbe, String> {
    let mut env = Env::paper_seeded(seed);
    env.simcfg.record_journal = true;
    let cfg = reference_cfg(&env, smoke);
    let report = env
        .predict(&cfg)
        .map_err(|e| format!("reference run failed: {e}"))?
        .report;

    let digest = canonical_digest(&report.canonical_string());
    let mut journal = report.journal.expect("record_journal was set");
    journal.set_meta("app", "lu");
    journal.set_meta("n", cfg.n.to_string());
    journal.set_meta("r", cfg.r.to_string());
    journal.set_meta("nodes", cfg.nodes.to_string());
    journal.set_meta("seed", seed.to_string());
    journal.set_meta("canonical_fxhash", digest.clone());
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, journal.encode())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(JournalProbe {
        events: journal.len(),
        digest,
    })
}

/// What [`replay_journal_file`] verified.
#[derive(Debug)]
pub struct JournalReplay {
    /// Committed events in the recorded stream.
    pub events: usize,
}

/// Decodes a journal written by [`record_reference_journal`], rebuilds
/// the run from its metadata, and runs it again. The rerun must re-emit
/// the recorded stream event-for-event and reproduce the recorded
/// canonical digest; the error pinpoints the first diverging event
/// otherwise.
pub fn replay_journal_file(path: &Path) -> Result<JournalReplay, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let recorded =
        Journal::decode(&bytes).map_err(|e| format!("cannot decode {}: {e}", path.display()))?;
    let meta = |key: &str| {
        recorded
            .meta_get(key)
            .map(str::to_string)
            .ok_or_else(|| format!("journal {} lacks metadata `{key}`", path.display()))
    };
    let app_kind = meta("app")?;
    if app_kind != "lu" {
        return Err(format!(
            "journal records a `{app_kind}` run; only `lu` replays here"
        ));
    }
    let parse = |key: &str| -> Result<u64, String> {
        meta(key)?
            .parse::<u64>()
            .map_err(|e| format!("journal metadata `{key}` is not a number: {e}"))
    };
    let (n, r, nodes) = (
        parse("n")? as usize,
        parse("r")? as usize,
        parse("nodes")? as u32,
    );
    let seed = parse("seed")?;
    let digest = meta("canonical_fxhash")?;

    let mut env = Env::paper_seeded(seed);
    env.simcfg.record_journal = true;
    let report = env
        .predict(&env.lu_sized(n, r, nodes))
        .map_err(|e| format!("rerun failed: {e}"))?
        .report;
    let rerun = report.journal.as_ref().expect("record_journal was set");
    if let Some(d) = rerun.first_divergence(&recorded) {
        return Err(format!("rerun diverged: {d}"));
    }
    let got = canonical_digest(&report.canonical_string());
    if got != digest {
        return Err(format!(
            "rerun: canonical digest {got} != recorded {digest}"
        ));
    }
    Ok(JournalReplay {
        events: recorded.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Record → replay round trip through an actual file, smoke-sized:
    /// the contract the CI journal smoke exercises across two processes.
    #[test]
    fn recorded_reference_journal_replays_from_disk() {
        let path =
            std::env::temp_dir().join(format!("dvns-journal-probe-{}.journal", std::process::id()));
        let probe = record_reference_journal(42, true, &path).unwrap();
        assert!(probe.events > 0);
        let replayed = replay_journal_file(&path).unwrap();
        assert_eq!(replayed.events, probe.events);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_rejects_a_truncated_file() {
        let path =
            std::env::temp_dir().join(format!("dvns-journal-trunc-{}.journal", std::process::id()));
        std::fs::write(&path, b"DVNSJ1\n").unwrap();
        let err = replay_journal_file(&path).unwrap_err();
        assert!(err.contains("cannot decode"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
