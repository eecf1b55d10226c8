//! Deterministic parallel execution substrate for the workspace.
//!
//! Built entirely on `std::thread::scope` — no external dependencies beyond
//! the std-only `mbm-obs` telemetry handle — so it can parallelize over
//! *borrowed* data (grid candidates, nonce ranges, episode seeds) without
//! `'static` bounds or reference counting. Fan-out occupancy (task count and
//! engaged workers per call) is reported to [`mbm_obs::global`] when that
//! recorder is enabled.
//!
//! # Determinism contract
//!
//! Every primitive here produces output that is **bitwise identical at any
//! thread count**, including `threads = 1` (which short-circuits to a plain
//! serial loop with zero thread machinery):
//!
//! * [`Pool::par_eval`] / [`Pool::par_map`] write each task's result into its
//!   own index slot; workers dynamically claim indices from a shared atomic
//!   counter (work stealing for load balance), but the reassembled output is
//!   in index order regardless of which worker computed what.
//! * [`Pool::find_first_map`] returns the hit from the **lowest-index**
//!   chunk, exactly matching a serial left-to-right scan: chunk indices are
//!   claimed in increasing order, every chunk below the best hit is fully
//!   scanned, and workers only stop claiming *new* chunks past the best hit.
//!
//! Floating-point reductions stay deterministic because reduction order is
//! fixed (serial fold over the index-ordered map output) — parallelism is
//! confined to the independent map stage.
//!
//! # Sizing
//!
//! [`Pool::global`] reads the `MBM_PAR_THREADS` environment variable
//! (`1` forces serial), falling back to [`std::thread::available_parallelism`].

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once, OnceLock};

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

thread_local! {
    static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
}

/// Routes the process panic hook through a thread-local mute switch so
/// panics captured by [`catch_quiet`] don't spray backtraces over
/// experiment output or daemon logs, while panics everywhere else stay as
/// loud as before.
fn install_quiet_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Mutes the quiet hook on this thread until dropped, then restores the
/// previous mute state, so nested [`catch_quiet`] calls stay quiet.
struct QuietPanicGuard(bool);

impl QuietPanicGuard {
    fn arm() -> Self {
        QuietPanicGuard(SUPPRESS_PANIC_OUTPUT.with(|s| s.replace(true)))
    }
}

impl Drop for QuietPanicGuard {
    fn drop(&mut self) {
        SUPPRESS_PANIC_OUTPUT.with(|s| s.set(self.0));
    }
}

/// The workspace's one panic boundary: runs `f`, and turns a panic inside
/// it into `Err` with the payload rendered to a string (`&str` and
/// `String` payloads; anything else is reported as opaque).
///
/// The hook output of a caught panic is suppressed (the panic is
/// *reported*, in the returned value — it is not silent), and each one is
/// counted on the `par.panics_caught` telemetry counter. Panics outside a
/// `catch_quiet` call keep the default hook.
///
/// # Errors
///
/// Returns the rendered panic message when `f` panicked.
pub fn catch_quiet<U>(f: impl FnOnce() -> U) -> Result<U, String> {
    install_quiet_panic_hook();
    let _quiet = QuietPanicGuard::arm();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        let rec = mbm_obs::global();
        if rec.enabled() {
            rec.incr("par.panics_caught");
        }
        panic_message(payload.as_ref())
    })
}

/// A sizing handle for scoped parallel execution.
///
/// The pool holds no live threads; each call spawns scoped workers that die
/// before the call returns, which is what lets tasks borrow local data. For
/// the workloads in this repo (payoff evaluations, nonce chunks, training
/// episodes) task bodies are micro- to milliseconds, so per-call spawn cost
/// is noise.
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool running tasks on `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Pool { threads: threads.max(1) }
    }

    /// A pool that executes everything serially on the calling thread.
    #[must_use]
    pub fn serial() -> Self {
        Pool::new(1)
    }

    /// The process-wide default pool: `MBM_PAR_THREADS` if set, otherwise
    /// [`std::thread::available_parallelism`].
    #[must_use]
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let threads = std::env::var("MBM_PAR_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
                });
            Pool::new(threads)
        })
    }

    /// Worker count this pool was sized for.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates `f(0..n)` and returns the results in index order.
    ///
    /// Workers claim indices dynamically, so uneven task costs balance
    /// automatically. A panic in any task propagates to the caller.
    pub fn par_eval<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let workers = self.threads.min(n);
        // Fan-out occupancy telemetry: task count per call and workers
        // actually engaged (clamped by the task count). Counters only — no
        // per-task events — so the disabled path costs one atomic load.
        let rec = mbm_obs::global();
        if rec.enabled() {
            rec.incr("par.calls");
            rec.add("par.tasks", n as u64);
            rec.observe("par.fan_out", n as f64);
            rec.observe("par.workers", workers.max(1) as f64);
        }
        if workers <= 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let mut partials: Vec<Vec<(usize, U)>> = Vec::with_capacity(workers);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            out.push((i, f(i)));
                        }
                        out
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(part) => partials.push(part),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        let mut slots: Vec<Option<U>> = std::iter::repeat_with(|| None).take(n).collect();
        for part in partials {
            for (i, v) in part {
                slots[i] = Some(v);
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("par_eval: every index is claimed exactly once"))
            .collect()
    }

    /// Maps `f` over `items`, returning results in item order.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        self.par_eval(items.len(), |i| f(i, &items[i]))
    }

    /// Maps `f` over `chunk_size`-sized windows of `items` (last chunk may be
    /// shorter); `f` receives the chunk's start offset and slice. Results are
    /// in chunk order.
    pub fn par_chunks<T, U, F>(&self, items: &[T], chunk_size: usize, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &[T]) -> U + Sync,
    {
        assert!(chunk_size > 0, "par_chunks: chunk_size must be nonzero");
        let n_chunks = items.len().div_ceil(chunk_size);
        self.par_eval(n_chunks, |c| {
            let start = c * chunk_size;
            let end = (start + chunk_size).min(items.len());
            f(start, &items[start..end])
        })
    }

    /// Parallel map followed by a **serial, index-ordered** fold — the
    /// deterministic way to reduce floating-point partials.
    pub fn par_map_reduce<U, A, F, R>(&self, n: usize, f: F, init: A, mut fold: R) -> A
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
        R: FnMut(A, U) -> A,
    {
        self.par_eval(n, f).into_iter().fold(init, &mut fold)
    }

    /// Scans chunks `0..n_chunks` for the first hit, exactly as a serial
    /// left-to-right scan would find it.
    ///
    /// `f(c)` must scan chunk `c` fully and return its first internal hit (or
    /// `None`). Chunks are claimed in increasing index order; once a hit in
    /// chunk `b` is recorded, workers stop claiming chunks past `b`, but every
    /// already-claimed chunk still completes — so the lowest-index hit is
    /// exact, not merely "a" hit. Cancellation granularity is one chunk.
    pub fn find_first_map<R, F>(&self, n_chunks: usize, f: F) -> Option<R>
    where
        R: Send,
        F: Fn(usize) -> Option<R> + Sync,
    {
        let workers = self.threads.min(n_chunks);
        let rec = mbm_obs::global();
        if rec.enabled() {
            rec.incr("par.scan.calls");
            // Chunk count offered, not scanned: the scanned count varies
            // with thread interleaving and is deliberately not a counter.
            rec.observe("par.scan.chunks_offered", n_chunks as f64);
        }
        if workers <= 1 {
            return (0..n_chunks).find_map(f);
        }
        let next = AtomicUsize::new(0);
        let best = AtomicUsize::new(usize::MAX);
        let hits: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n_chunks || i > best.load(Ordering::Acquire) {
                            break;
                        }
                        if let Some(r) = f(i) {
                            best.fetch_min(i, Ordering::AcqRel);
                            hits.lock().expect("find_first_map: hits lock").push((i, r));
                        }
                    })
                })
                .collect();
            for h in handles {
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        let mut hits = hits.into_inner().expect("find_first_map: hits lock");
        hits.sort_by_key(|&(i, _)| i);
        hits.into_iter().next().map(|(_, r)| r)
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::global().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_eval_matches_serial_ordering() {
        let serial: Vec<u64> = (0..257).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
        for threads in [1, 2, 3, 8, 64] {
            let pool = Pool::new(threads);
            let parallel = pool.par_eval(257, |i| (i as u64).wrapping_mul(0x9E37));
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn par_eval_handles_empty_and_single() {
        let pool = Pool::new(4);
        assert_eq!(pool.par_eval(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.par_eval(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn par_map_borrows_locals() {
        let data: Vec<f64> = (0..100).map(f64::from).collect();
        let scale = 1.5; // captured by reference inside scoped workers
        let out = Pool::new(4).par_map(&data, |_, x| x * scale);
        assert_eq!(out, data.iter().map(|x| x * scale).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_covers_all_items_once() {
        let data: Vec<u32> = (0..103).collect();
        let chunks = Pool::new(4).par_chunks(&data, 10, |start, chunk| (start, chunk.to_vec()));
        let mut flat = Vec::new();
        for (start, chunk) in chunks {
            assert_eq!(start, flat.len());
            flat.extend(chunk);
        }
        assert_eq!(flat, data);
    }

    #[test]
    fn par_map_reduce_is_index_ordered() {
        // Catastrophic-cancellation-prone sum: any reordering changes the bits.
        let terms: Vec<f64> = (0..1000)
            .map(|i| if i % 2 == 0 { 1e16 } else { -1e16 + f64::from(i as u16) })
            .collect();
        let serial = terms.iter().fold(0.0, |a, b| a + b);
        for threads in [2, 5, 16] {
            let got =
                Pool::new(threads).par_map_reduce(terms.len(), |i| terms[i], 0.0, |a, b| a + b);
            assert_eq!(serial.to_bits(), got.to_bits(), "threads = {threads}");
        }
    }

    #[test]
    fn find_first_map_returns_lowest_index_hit() {
        // Hits at chunks 37 and 11 — the scan must return chunk 11's payload
        // at every thread count, even though a worker may reach 37 first.
        for threads in [1, 2, 4, 16] {
            let pool = Pool::new(threads);
            let calls = AtomicU64::new(0);
            let got = pool.find_first_map(100, |c| {
                calls.fetch_add(1, Ordering::Relaxed);
                if c == 37 {
                    std::thread::yield_now();
                }
                (c == 11 || c == 37).then_some(c * 1000)
            });
            assert_eq!(got, Some(11_000), "threads = {threads}");
        }
    }

    #[test]
    fn find_first_map_none_when_no_hit() {
        assert_eq!(Pool::new(4).find_first_map(50, |_| None::<u8>), None);
    }

    #[test]
    fn find_first_map_skips_tail_after_hit() {
        // With an early hit, far-tail chunks should mostly go unclaimed.
        let pool = Pool::new(4);
        let calls = AtomicU64::new(0);
        let got = pool.find_first_map(100_000, |c| {
            calls.fetch_add(1, Ordering::Relaxed);
            (c == 3).then_some(c)
        });
        assert_eq!(got, Some(3));
        assert!(
            calls.load(Ordering::Relaxed) < 10_000,
            "cancellation did not stop the scan: {} chunks evaluated",
            calls.load(Ordering::Relaxed)
        );
    }

    #[test]
    #[should_panic(expected = "task boom")]
    fn panics_propagate() {
        Pool::new(4).par_eval(64, |i| {
            if i == 13 {
                panic!("task boom");
            }
            i
        });
    }

    #[test]
    fn catch_quiet_isolates_panics_per_task() {
        for threads in [1, 4] {
            let out = Pool::new(threads).par_eval(64, |i| {
                catch_quiet(|| {
                    if i == 13 {
                        panic!("task boom {i}");
                    }
                    i * 2
                })
            });
            assert_eq!(out.len(), 64, "threads = {threads}");
            for (i, slot) in out.iter().enumerate() {
                if i == 13 {
                    let message = slot.as_ref().expect_err("task 13 panicked");
                    assert!(message.contains("task boom 13"), "message: {message}");
                } else {
                    assert_eq!(slot.as_ref().copied().unwrap(), i * 2, "threads = {threads}");
                }
            }
        }
    }

    #[test]
    fn catch_quiet_restores_the_mute_state_of_nested_calls() {
        let muted = || SUPPRESS_PANIC_OUTPUT.with(Cell::get);
        assert!(!muted());
        let inner = catch_quiet(|| {
            assert_eq!(catch_quiet(|| panic!("inner boom")), Err::<(), _>("inner boom".into()));
            muted()
        });
        assert_eq!(inner, Ok(true), "the outer call must stay muted after the inner one");
        assert!(!muted());
    }

    #[test]
    fn global_pool_is_usable() {
        let pool = Pool::global();
        assert!(pool.threads() >= 1);
        assert_eq!(pool.par_eval(8, |i| i * 2), vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }
}
