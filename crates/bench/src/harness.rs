//! Parallel experiment harness.
//!
//! Every figure of the paper is a sweep over independent (configuration,
//! seed) points; the harness fans those points across cores with
//! [`std::thread::scope`] and merges results **in deterministic input
//! order**, so the parallel path emits byte-identical output to the serial
//! one. Thread count comes from `DVNS_THREADS` (default: all cores); set
//! `DVNS_THREADS=1` to force the serial path.
//!
//! `DVNS_SMOKE=1` shrinks every experiment to a CI-sized matrix; only the
//! binaries' `main` functions read it ([`smoke`]) and pass the flag down.
//! Host-time numbers are the business of the `benchmark/` package, not of
//! this harness.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// Runs `f` over every item on `threads` threads and returns the results
/// **in input order** regardless of completion order.
///
/// `f` receives `(index, &item)`. Items are claimed from a shared atomic
/// cursor, so an expensive point never stalls the queue behind it. With one
/// thread (or one item) no threads are spawned at all — the serial path is
/// literally serial, which the determinism test exploits by comparing a
/// 1-thread run against a many-thread run of the same sweep without
/// touching the environment.
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

/// [`run_parallel_with`] with per-point panic isolation: each point runs
/// under [`std::panic::catch_unwind`], so one poisoned point yields an
/// `Err(panic message)` in its slot while every other point completes and
/// keeps its deterministic input-order position. Serial (`threads = 1`) and
/// parallel runs produce identical result vectors.
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
        let out = run_parallel_with(&items, 4, |i, &x| {
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
}
