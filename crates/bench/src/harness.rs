//! Parallel experiment harness and machine-readable perf reporting.
//!
//! Every figure of the paper is a sweep over independent (configuration,
//! seed) points; the harness fans those points across cores with
//! [`std::thread::scope`] and merges results **in deterministic input
//! order**, so the parallel path emits byte-identical output to the serial
//! one. Thread count comes from `DVNS_THREADS` (default: all cores); set
//! `DVNS_THREADS=1` to force the serial path.
//!
//! [`BenchJson`] accumulates throughput/wall-clock records and writes
//! `results/BENCH_engine.json`, giving subsequent PRs a perf trajectory.
//! `DVNS_SMOKE=1` shrinks every experiment to a CI-sized matrix.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Number of worker threads the harness fans out over: `DVNS_THREADS` if
/// set (clamped to `1..=available cores`), otherwise all available cores.
///
/// The clamp matters: the sweep points are CPU-bound simulator runs, so
/// oversubscribing a small container (e.g. `DVNS_THREADS=4` on one core)
/// only buys scheduler churn — a 4-thread run used to come out *slower*
/// than the serial one there. An unparseable value falls back to all cores
/// (the same as unset) with a warning, instead of silently forcing the
/// serial path.
pub fn thread_count() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    resolve_thread_count(std::env::var("DVNS_THREADS").ok().as_deref(), cores)
}

/// The pure policy behind [`thread_count`], split out for testing.
fn resolve_thread_count(var: Option<&str>, cores: usize) -> usize {
    match var {
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) => n.clamp(1, cores),
            Err(_) => {
                eprintln!(
                    "warning: DVNS_THREADS={v:?} is not an unsigned integer; \
                     using all {cores} core(s)"
                );
                cores
            }
        },
        None => cores,
    }
}

/// Whether `DVNS_SMOKE=1` asked for CI-sized experiments (tiny matrices,
/// single seeds) that exercise every code path in seconds.
pub fn smoke() -> bool {
    std::env::var("DVNS_SMOKE").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

/// Runs `f` over every item, fanning across [`thread_count`] threads, and
/// returns the results **in input order** regardless of completion order.
///
/// `f` receives `(index, &item)`. Items are claimed from a shared atomic
/// cursor, so an expensive point never stalls the queue behind it. With one
/// thread (or one item) no threads are spawned at all — the serial path is
/// literally serial, which the determinism test exploits.
pub fn run_parallel<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_parallel_with(items, thread_count(), f)
}

/// [`run_parallel`] with an explicit thread count — the determinism test
/// compares a 1-thread run against a many-thread run of the same sweep
/// without touching the environment.
pub fn run_parallel_with<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(i, &items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("worker skipped an item")
        })
        .collect()
}

/// Renders a panic payload as text: the `&str`/`String` message when the
/// panic carried one (the overwhelmingly common case), a placeholder
/// otherwise.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`run_parallel`] with per-point panic isolation: each point runs under
/// [`std::panic::catch_unwind`], so one poisoned point yields an
/// `Err(panic message)` in its slot while every other point completes and
/// keeps its deterministic input-order position. Serial (`threads = 1`) and
/// parallel runs produce identical result vectors.
pub fn run_parallel_isolated<T, R, F>(items: &[T], f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_parallel_isolated_with(items, thread_count(), f)
}

/// [`run_parallel_isolated`] with an explicit thread count.
pub fn run_parallel_isolated_with<T, R, F>(
    items: &[T],
    threads: usize,
    f: F,
) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_parallel_with(items, threads, |i, t| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, t)))
            .map_err(|p| panic_message(&*p))
    })
}

/// Times a closure, returning its result and the elapsed seconds.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), as a memory-trajectory proxy. `None` off Linux.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// One perf record: a name plus numeric fields.
struct Record {
    name: String,
    fields: Vec<(String, f64)>,
}

/// Accumulates perf records and renders `results/BENCH_engine.json`.
///
/// The JSON is hand-rolled (no serde in the workspace): a top-level object
/// with host metadata and a `benches` array of `{name, <field>: value}`
/// objects.
pub struct BenchJson {
    records: Vec<Record>,
}

impl Default for BenchJson {
    fn default() -> Self {
        Self::new()
    }
}

impl BenchJson {
    /// An empty collection.
    pub fn new() -> BenchJson {
        BenchJson {
            records: Vec::new(),
        }
    }

    /// Adds one record with arbitrary numeric fields.
    pub fn record(&mut self, name: &str, fields: &[(&str, f64)]) {
        self.records.push(Record {
            name: name.to_string(),
            fields: fields.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
    }

    /// Renders the JSON document.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"threads\": {},\n  \"cores\": {},\n  \"smoke\": {},\n",
            thread_count(),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            smoke(),
        ));
        if let Some(rss) = peak_rss_bytes() {
            out.push_str(&format!("  \"peak_rss_bytes\": {rss},\n"));
        }
        out.push_str("  \"benches\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            out.push_str(&format!("    {{\"name\": \"{}\"", r.name));
            for (k, v) in &r.fields {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    out.push_str(&format!(", \"{k}\": {}", *v as i64));
                } else {
                    out.push_str(&format!(", \"{k}\": {v:.6}"));
                }
            }
            out.push('}');
            out.push_str(if i + 1 < self.records.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes `results/BENCH_engine.json`, merging with any records an
    /// earlier binary of the same run already wrote (matched by name —
    /// latest wins, order preserved).
    pub fn write(&self) {
        let dir = std::path::Path::new("results");
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let path = dir.join("BENCH_engine.json");
        let mut merged: Vec<Record> = Vec::new();
        if let Ok(prev) = std::fs::read_to_string(&path) {
            merged = parse_records(&prev);
        }
        for r in &self.records {
            merged.retain(|m| m.name != r.name);
            merged.push(Record {
                name: r.name.clone(),
                fields: r.fields.clone(),
            });
        }
        let all = BenchJson { records: merged };
        let _ = std::fs::write(&path, all.render());
    }
}

/// Minimal parser for the subset of JSON [`BenchJson::render`] emits — just
/// enough to merge records across figure binaries without serde.
fn parse_records(text: &str) -> Vec<Record> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with("{\"name\":") {
            continue;
        }
        let body = line.trim_start_matches('{').trim_end_matches('}');
        let mut name = String::new();
        let mut fields = Vec::new();
        for part in body.split(", ") {
            let Some((k, v)) = part.split_once(':') else {
                continue;
            };
            let k = k.trim().trim_matches('"');
            let v = v.trim();
            if k == "name" {
                name = v.trim_matches('"').to_string();
            } else if let Ok(num) = v.parse::<f64>() {
                fields.push((k.to_string(), num));
            }
        }
        if !name.is_empty() {
            out.push(Record { name, fields });
        }
    }
    out
}

/// Times `iters` runs of `f` after one warmup and prints `name: ns/iter`
/// (plain-text microbenchmark, replacing the former criterion harness).
pub fn bench_iters(name: &str, iters: u32, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    let per = t0.elapsed().as_secs_f64() / iters as f64;
    println!("{name:<44} {:>12.0} ns/iter", per * 1e9);
    per
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_policy() {
        // Unset: all cores.
        assert_eq!(resolve_thread_count(None, 8), 8);
        // Explicit counts clamp to 1..=cores — no oversubscription.
        assert_eq!(resolve_thread_count(Some("1"), 8), 1);
        assert_eq!(resolve_thread_count(Some("4"), 8), 4);
        assert_eq!(resolve_thread_count(Some("64"), 8), 8);
        assert_eq!(resolve_thread_count(Some("4"), 1), 1);
        assert_eq!(resolve_thread_count(Some("0"), 8), 1);
        // Garbage behaves like unset (all cores), not like "1".
        assert_eq!(resolve_thread_count(Some("lots"), 8), 8);
        assert_eq!(resolve_thread_count(Some(""), 2), 2);
    }

    #[test]
    fn parallel_results_arrive_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = run_parallel(&items, |i, &x| {
            // Vary per-item cost so completion order scrambles.
            std::thread::sleep(std::time::Duration::from_micros((x % 7) * 50));
            i as u64 + x
        });
        assert_eq!(out, (0..100).map(|x| 2 * x).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_point_is_isolated_serial_and_parallel() {
        let items: Vec<u32> = (0..16).collect();
        let run = |threads| {
            run_parallel_isolated_with(&items, threads, |_, &x| {
                assert!(x != 7, "point {x} is poisoned");
                x * 2
            })
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial, parallel, "isolation must not break determinism");
        for (i, r) in serial.iter().enumerate() {
            if i == 7 {
                let msg = r.as_ref().unwrap_err();
                assert!(msg.contains("point 7 is poisoned"), "got: {msg}");
            } else {
                assert_eq!(*r, Ok(i as u32 * 2));
            }
        }
    }

    #[test]
    fn json_renders_and_reparses() {
        let mut j = BenchJson::new();
        j.record(
            "lu_sim",
            &[("events_per_sec", 123456.5), ("wall_secs", 2.0)],
        );
        j.record("fig10", &[("wall_secs", 10.25)]);
        let text = j.render();
        assert!(text.contains("\"name\": \"lu_sim\""));
        assert!(text.contains("\"events_per_sec\": 123456.5"));
        assert!(text.contains("\"wall_secs\": 2"));
        let back = parse_records(&text);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].name, "lu_sim");
        assert_eq!(back[0].fields[0].0, "events_per_sec");
        assert!((back[0].fields[0].1 - 123456.5).abs() < 1e-9);
    }

    #[test]
    fn rss_proxy_reports_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes().unwrap() > 0);
        }
    }
}
