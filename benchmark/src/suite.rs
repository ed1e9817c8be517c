//! `run`, `trace` and `golden`: the whole suite from one command.
//!
//! `run` and `trace` start one child process per workload — this program
//! again, with the driver's flags — so that `peak_rss_mb` is per workload,
//! and merge what the children record into one result file.

use std::path::Path;
use std::process::Command;

use crate::inputs::{Sizes, DEFAULT_SEED};
use crate::json::Json;
use crate::spec::{self, Spec};
use crate::trace::out_dir;
use crate::workloads::{build, Mode, NAMES};
use crate::{hygiene, Args};

/// `a.workload` empty means every workload; the other fields are handed
/// to each child as the driver would.
pub fn suite(spec: &Spec, a: &Args) -> Result<bool, String> {
    let kind = if a.trace { "trace" } else { "run" };
    let names: Vec<&str> = spec
        .workloads
        .iter()
        .map(String::as_str)
        .filter(|n| a.workload.is_empty() || *n == a.workload)
        .collect();
    if names.is_empty() {
        return Err(format!(
            "unknown workload {:?} (one of {})",
            a.workload,
            spec.workloads.join(", ")
        ));
    }
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;

    let mut ok = true;
    let mut records = Vec::new();
    for name in names {
        let record = dir.join(format!(".record-{kind}-{name}.json"));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .arg("--record")
            .arg(&record);
        if a.quick {
            cmd.arg("--quick");
        }
        // The child prints to our standard output; `status` waits for it.
        let status = cmd
            .status()
            .map_err(|e| format!("cannot start {name}: {e}"))?;
        ok &= status.success();
        match std::fs::read_to_string(&record) {
            Ok(text) => records.push((name, Json::parse(&text)?)),
            Err(e) => {
                ok = false;
                eprintln!("{name}: no record ({e}); exit status {status}");
            }
        }
        let _ = std::fs::remove_file(&record);
        println!();
    }

    let out = a.out.clone().unwrap_or_else(|| {
        let quick = if a.quick { "-quick" } else { "" };
        dir.join(format!("{kind}-seed{}{quick}.json", a.seed))
    });
    let doc = Json::obj([
        ("kind", Json::str(kind)),
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::Num(a.seconds)),
        ("quick", Json::Bool(a.quick)),
        ("host", hygiene::host()),
        ("workloads", Json::obj(records)),
    ]);
    std::fs::write(&out, doc.pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("results: {}", out.display());
    Ok(ok)
}

/// Regenerates `golden.json` from one repetition per workload at the
/// default seed. The file is compiled in: build again afterwards.
pub fn golden() -> Result<bool, String> {
    let sz = Sizes::full();
    let mut entries = Vec::new();
    for name in NAMES {
        let out = build(name, &sz, DEFAULT_SEED)?
            .rep(Mode::Timed)
            .map_err(|e| format!("{name}: {e}"))?;
        println!(
            "{name}: digest {:016x}, {} counts",
            out.digest,
            out.facts.len()
        );
        entries.push((name, spec::golden_entry(out.digest, &out.facts)));
    }
    let doc = Json::obj([
        ("seed", Json::Num(DEFAULT_SEED as f64)),
        ("workloads", Json::obj(entries)),
    ]);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden.json");
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}; build again to compile it in", path.display());
    Ok(true)
}
