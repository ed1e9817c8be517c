//! Run hygiene: what the host is, and refusing to start in an
//! environment that would silently change what is measured.

use std::process::Command;

use crate::json::Json;

/// Variables the library and its harness read. Any of them set means the
/// run would not measure the configuration this benchmark pins.
const FORBIDDEN: [&str; 3] = ["DVNS_THREADS", "DVNS_ENGINE_THREADS", "DVNS_SMOKE"];
const FORBIDDEN_PREFIX: &str = "DVNS_PERF_";

/// The offending variable names, if any.
pub fn forbidden_env(vars: impl Iterator<Item = String>) -> Vec<String> {
    let mut bad: Vec<String> = vars
        .filter(|k| FORBIDDEN.contains(&k.as_str()) || k.starts_with(FORBIDDEN_PREFIX))
        .collect();
    bad.sort();
    bad
}

pub fn refuse_forbidden_env() -> Result<(), String> {
    let bad = forbidden_env(std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()));
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to measure with {} set: unset it and run again",
            bad.join(", ")
        ))
    }
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Peak resident set of this process, MiB (`VmHWM`); `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let kb = proc_field("/proc/self/status", "VmHWM")?
        .trim_end_matches("kB")
        .trim()
        .parse::<f64>()
        .ok()?;
    Some(kb / 1024.0)
}

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .map(str::to_string)
    })?
}

/// The commit measured, when the checkout is a git repository.
fn git_commit() -> Option<String> {
    let dir = env!("CARGO_MANIFEST_DIR");
    let head = first_line("git", &["-C", dir, "rev-parse", "HEAD"])?;
    let dirty = first_line(
        "git",
        &["-C", dir, "status", "--porcelain", "--untracked-files=no"],
    )
    .is_some_and(|l| !l.is_empty());
    Some(if dirty { format!("{head}+dirty") } else { head })
}

/// Host fingerprint stored in every result file.
pub fn host() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        (
            "cpu_model",
            Json::str(
                proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        (
            "rustc",
            Json::str(first_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "git_commit",
            Json::str(git_commit().unwrap_or_else(|| "unknown".into())),
        ),
        ("engine_threads", Json::Num(1.0)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_every_forbidden_variable() {
        let vars = [
            "PATH",
            "DVNS_SMOKE",
            "DVNS_PERF_BATCH",
            "DVNS_CACHE_DIR",
            "DVNS_THREADS",
        ]
        .map(String::from);
        assert_eq!(
            forbidden_env(vars.into_iter()),
            ["DVNS_PERF_BATCH", "DVNS_SMOKE", "DVNS_THREADS"]
        );
        assert!(forbidden_env(["HOME".to_string()].into_iter()).is_empty());
    }
}
