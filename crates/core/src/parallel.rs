//! Shared infrastructure for the work-stealing parallel candidate sweeps.
//!
//! The selectors' per-candidate work (one perturbation front each) is
//! independent except for the pruning threshold `Max_S`, so the sweep
//! parallelizes with three tiny lock-free pieces instead of a scheduler
//! dependency:
//!
//! * [`WorkQueue`] — a shared atomic cursor over an indexed work list.
//!   Workers *steal* the next unclaimed index whenever they finish their
//!   current item, so load balances automatically even when candidate
//!   costs vary by orders of magnitude (a pruned front costs a handful of
//!   levels, a surviving front costs its whole cone).
//! * [`SharedMax`] — the paper's `Max_S` published through an `AtomicU64`
//!   holding `f64` bits, raised by monotone compare-and-swap. Workers
//!   prune against the freshest exact sensitivity any worker has
//!   completed, without taking a lock on the hot path.
//! * [`normalize_threads`] / [`default_threads`] — the thread-count knob
//!   semantics shared by every selector (mirroring
//!   [`MonteCarlo::with_threads`](statsize_ssta::MonteCarlo::with_threads)).
//!
//! Everything here is *schedule-independent by construction*: the value
//! read from [`SharedMax`] only ever lags the true threshold (pruning
//! less, never wrongly), and the reduction of per-worker results is
//! performed in one deterministic order — so results are bit-identical
//! for every thread count.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Environment variable overriding every selector's default thread count
/// (explicit [`with_threads`](crate::PrunedSelector::with_threads) calls
/// still win). CI sets it to force the parallel sweep through the whole
/// test suite.
pub const THREADS_ENV: &str = "STATSIZE_SELECTOR_THREADS";

/// The default selector thread count: [`THREADS_ENV`] when set to a
/// positive integer, otherwise 1 (one worker — parallelism is opt-in).
///
/// Read afresh on every selector construction (not snapshotted at first
/// use), so setting the variable mid-process affects selectors built
/// afterwards; construction is nowhere near a hot path.
pub(crate) fn default_threads() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// Spawns `threads` scoped workers running the same closure (each worker
/// typically drains a shared [`WorkQueue`]) and collects their results
/// in worker-index order, propagating any worker panic. The one place
/// the spawn/join/panic pattern of every selector sweep lives.
pub(crate) fn run_workers<T, F>(threads: usize, worker: F) -> Vec<T>
where
    T: Send,
    F: Fn() -> T + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(&worker)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("selector worker panicked"))
            .collect()
    })
}

/// Runs `len` independent work items across `threads` workers stealing
/// indices from a shared [`WorkQueue`], scattering results back into
/// **index order** — the one audited home of the claim/scatter idiom
/// whose ordering the determinism contracts rest on. `init` builds each
/// worker's private state once (e.g. a scratch pool); `work` maps
/// `(state, index)` to the item's result. Bit-identical to the serial
/// loop for every thread count, provided `work` reads only shared
/// immutable state.
pub(crate) fn run_indexed<S, T, I, F>(threads: usize, len: usize, init: I, work: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    run_indexed_isolated(threads, len, init, work)
        .into_iter()
        .map(|r| r.unwrap_or_else(|msg| panic!("worker panicked: {msg}")))
        .collect()
}

/// The panic-isolated form of [`run_indexed`]: each work item runs under
/// `catch_unwind`, so one panicking item becomes an `Err` in its slot
/// while the worker keeps claiming and every other item still completes.
/// This is what keeps a single degenerate circuit from poisoning a whole
/// campaign's `std::thread::scope` — the caller decides whether an `Err`
/// is a structured failure (campaigns) or grounds to re-panic
/// ([`run_indexed`]).
///
/// The worker state `S` is reused across items on the same worker even
/// after a caught panic; callers must hand in state for which that is
/// sound (the selectors' scratch pools are plain buffer pools — a torn
/// pool only costs re-allocation, never correctness).
pub(crate) fn run_indexed_isolated<S, T, I, F>(
    threads: usize,
    len: usize,
    init: I,
    work: F,
) -> Vec<Result<T, String>>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let queue = WorkQueue::new(len);
    let per_worker: Vec<Vec<(usize, Result<T, String>)>> = run_workers(threads, || {
        let mut state = init();
        let mut local = Vec::new();
        while let Some(idx) = queue.claim() {
            let result = catch_unwind(AssertUnwindSafe(|| work(&mut state, idx)))
                .map_err(|payload| panic_message(payload.as_ref()));
            local.push((idx, result));
        }
        local
    });
    let mut slots: Vec<Option<Result<T, String>>> = Vec::new();
    slots.resize_with(len, || None);
    for (idx, item) in per_worker.into_iter().flatten() {
        slots[idx] = Some(item);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index is claimed exactly once"))
        .collect()
}

/// Renders a caught panic payload as text: the `&str`/`String` payloads
/// `panic!` produces are passed through, anything else is summarized.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Normalizes a requested thread count against the amount of available
/// work: `0` (a degenerate "no threads" request) is clamped to 1, and
/// counts above `work_items` are capped so no worker is ever spawned with
/// nothing to claim.
pub(crate) fn normalize_threads(requested: usize, work_items: usize) -> usize {
    requested.clamp(1, work_items.max(1))
}

/// A shared atomic work cursor: the degenerate (single-ended) form of a
/// work-stealing deque, sufficient because work items are claimed one at
/// a time from a pre-indexed list. Claiming is one `fetch_add`.
pub(crate) struct WorkQueue {
    next: AtomicUsize,
    len: usize,
}

impl WorkQueue {
    /// A queue over work items `0..len`.
    pub(crate) fn new(len: usize) -> Self {
        Self {
            next: AtomicUsize::new(0),
            len,
        }
    }

    /// Steals the next unclaimed index, or `None` when the queue is
    /// drained.
    pub(crate) fn claim(&self) -> Option<usize> {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        (idx < self.len).then_some(idx)
    }
}

/// A monotonically increasing non-negative `f64` shared across workers:
/// the live pruning threshold (`Max_S` for `k = 1`, the k-th best
/// completed sensitivity in general).
///
/// Reads are single atomic loads (no lock on the per-level hot path);
/// raises are monotone CAS-max loops. Relaxed ordering is sufficient for
/// correctness: a stale read only *under*-estimates the threshold, which
/// makes pruning more conservative, never wrong — and the completed-set
/// accounting that the final result is reduced from lives behind a mutex,
/// not here.
pub(crate) struct SharedMax(AtomicU64);

impl SharedMax {
    /// Starts at `floor` (the selectors use 0.0: candidates are never
    /// pruned against a negative threshold).
    pub(crate) fn new(floor: f64) -> Self {
        debug_assert!(floor >= 0.0 && floor.is_finite());
        Self(AtomicU64::new(floor.to_bits()))
    }

    /// The current threshold.
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Raises the threshold to `value` if it is higher than the current
    /// one (no-op otherwise).
    pub(crate) fn raise(&self, value: f64) {
        debug_assert!(value >= 0.0 && value.is_finite());
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |current| {
                (value > f64::from_bits(current)).then(|| value.to_bits())
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_clamps_zero_and_caps_at_work() {
        assert_eq!(normalize_threads(0, 10), 1);
        assert_eq!(normalize_threads(1, 10), 1);
        assert_eq!(normalize_threads(4, 10), 4);
        assert_eq!(normalize_threads(64, 10), 10);
        // No work at all still normalizes to one (idle) worker slot.
        assert_eq!(normalize_threads(0, 0), 1);
        assert_eq!(normalize_threads(8, 0), 1);
    }

    #[test]
    fn work_queue_hands_out_each_index_once() {
        let q = WorkQueue::new(3);
        assert_eq!(q.claim(), Some(0));
        assert_eq!(q.claim(), Some(1));
        assert_eq!(q.claim(), Some(2));
        assert_eq!(q.claim(), None);
        assert_eq!(q.claim(), None);
    }

    #[test]
    fn shared_max_is_monotone() {
        let m = SharedMax::new(0.0);
        assert_eq!(m.get(), 0.0);
        m.raise(1.5);
        assert_eq!(m.get(), 1.5);
        m.raise(0.5); // lower: ignored
        assert_eq!(m.get(), 1.5);
        m.raise(2.25);
        assert_eq!(m.get(), 2.25);
    }

    #[test]
    fn isolated_run_converts_panics_to_errors_and_finishes_the_rest() {
        for threads in [1usize, 3] {
            let results = run_indexed_isolated(
                threads,
                5,
                || (),
                |(), idx| {
                    if idx == 2 {
                        panic!("item {idx} exploded");
                    }
                    idx * 10
                },
            );
            assert_eq!(results.len(), 5, "threads={threads}");
            for (idx, r) in results.iter().enumerate() {
                if idx == 2 {
                    assert_eq!(r, &Err("item 2 exploded".to_string()), "threads={threads}");
                } else {
                    assert_eq!(r, &Ok(idx * 10), "threads={threads}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "worker panicked: boom")]
    fn run_indexed_repanics_on_the_calling_thread() {
        // Must panic on the *main* thread (not abort via a poisoned
        // scope), with the original message preserved.
        let _ = run_indexed(
            2,
            3,
            || (),
            |(), idx| {
                if idx == 1 {
                    panic!("boom");
                }
                idx
            },
        );
    }

    #[test]
    fn panic_message_extracts_common_payloads() {
        let caught = std::panic::catch_unwind(|| panic!("plain &str")).expect_err("must panic");
        assert_eq!(panic_message(caught.as_ref()), "plain &str");
        let caught =
            std::panic::catch_unwind(|| panic!("formatted {}", 7)).expect_err("must panic");
        assert_eq!(panic_message(caught.as_ref()), "formatted 7");
        let caught =
            std::panic::catch_unwind(|| std::panic::panic_any(42u8)).expect_err("must panic");
        assert_eq!(panic_message(caught.as_ref()), "non-string panic payload");
    }

    #[test]
    fn shared_max_concurrent_raises_settle_on_the_maximum() {
        let m = SharedMax::new(0.0);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let m = &m;
                scope.spawn(move || {
                    for i in 0..1000 {
                        m.raise((t * 1000 + i) as f64 / 8000.0);
                    }
                });
            }
        });
        assert_eq!(m.get(), 7999.0 / 8000.0);
    }
}
