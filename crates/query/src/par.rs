//! The one segment fan-out, shared by the vectorized query kernels here and
//! the evolution operators in `cods` (DECOMPOSE / MERGE / the plan
//! executor's waves).
//!
//! Work decomposes into independent items — one per segment batch, or one
//! per (column × segment) — and runs on scoped threads
//! (`std::thread::scope`): the caller and up to `min(n, threads()) − 1`
//! helpers pull item indices from one counter, so the grain can be
//! thousands of items without spawning thousands of threads. Helpers come
//! from one process-wide budget of `threads()` live helpers, whatever the
//! nesting (a plan wave whose SMOs fan out per column) and however many
//! server connections fan out at once: a fan-out that finds the budget
//! spent runs on fewer helpers, down to running inline. With one item or
//! one worker the map degenerates to the serial loop, so single-core hosts
//! pay nothing for the seam. No helper outlives its fan-out, so each
//! fan-out pays for starting and joining its helpers (0.1–1 ms on a busy
//! 2-core host): a caller whose items take microseconds runs them inline.
//!
//! `CODS_QUERY_THREADS` sizes **both** fan-outs: the override below also
//! decides whether the SMO operators fan out or run serially.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;

/// Helper threads reserved by the fan-outs running now, process-wide.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// Worker count the fan-out is sized against: the hardware's, or
/// `CODS_QUERY_THREADS` — the thread-scaling smoke's knob, so a 1-core CI
/// container can still exercise the N>1 fan-out path (items then interleave
/// on the single core; results must stay bit-identical).
fn threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        width(std::env::var("CODS_QUERY_THREADS").ok().as_deref(), cores)
    })
}

/// The fan-out width for a `CODS_QUERY_THREADS` value `env` on a host with
/// `cores` hardware threads. An unset, unparsable or zero override leaves
/// `cores`; a valid one is clamped to `max(2, cores)`, since it sizes how
/// many helper threads a fan-out spawns.
fn width(env: Option<&str>, cores: usize) -> usize {
    match env.and_then(|s| s.parse::<usize>().ok()) {
        Some(n) if n > 0 => n.min(cores.max(2)),
        _ => cores,
    }
}

/// Helpers reserved from a budget; dropping it gives them back, on unwind
/// too.
struct Reserved<'a> {
    live: &'a AtomicUsize,
    n: usize,
}

impl<'a> Reserved<'a> {
    /// Reserves up to `want` helpers, as many as keep `live` at most `cap`.
    fn take(live: &'a AtomicUsize, cap: usize, want: usize) -> Reserved<'a> {
        let grant = |now: usize| want.min(cap.saturating_sub(now));
        let (Ok(before) | Err(before)) =
            live.fetch_update(Ordering::AcqRel, Ordering::Acquire, |now| {
                Some(now + grant(now))
            });
        Reserved {
            live,
            n: grant(before),
        }
    }
}

impl Drop for Reserved<'_> {
    fn drop(&mut self) {
        self.live.fetch_sub(self.n, Ordering::AcqRel);
    }
}

/// Maps `f` over `items` in parallel, preserving order.
pub fn map_parallel<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    fan_out(&LIVE, threads(), items, f)
}

/// [`map_parallel`] against the budget `live` of at most `cap` helpers, for
/// `cap` workers. A panicking item's original payload propagates once every
/// thread has stopped.
fn fan_out<T, R, F>(live: &AtomicUsize, cap: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let helpers = Reserved::take(live, cap, n.min(cap).saturating_sub(1));
    if helpers.n == 0 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            // Relaxed: the counter only hands out indices; each item moves
            // through its slot's mutex and each result through a join.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else {
                return done;
            };
            let item = slot.lock().expect("item slot poisoned").take();
            done.push((i, f(item.expect("each index is pulled once"))));
        }
    };
    // Joining the helpers here, rather than leaving it to the scope,
    // propagates a panicking item's own payload: the scope would replace it
    // with a message of its own.
    let parts = thread::scope(|s| {
        let handles: Vec<_> = (0..helpers.n)
            .filter_map(|_| thread::Builder::new().spawn_scoped(s, work).ok())
            .collect();
        let mut parts = vec![work()];
        for handle in handles {
            parts.push(handle.join().unwrap_or_else(|e| resume_unwind(e)));
        }
        parts
    });
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in parts.into_iter().flatten() {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("every item ran"))
        .collect()
}

/// [`map_parallel`] where each task borrows a scratch value — a slot table
/// indexed by dictionary id, say — from `pool`, creating one with
/// `new_scratch` only when every pooled one is in use. `f` must hand its
/// scratch back reset (an id table by walking the ids it touched), so a
/// worker fills at most one per call instead of one per item, and with a
/// single worker every item reuses the same one. The scratch values stay
/// in `pool` afterwards.
pub fn map_parallel_pooled<T, R, S, F>(
    items: Vec<T>,
    pool: &mut Vec<S>,
    new_scratch: impl Fn() -> S + Sync,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    S: Send,
    F: Fn(T, &mut S) -> R + Sync,
{
    let shared = Mutex::new(std::mem::take(pool));
    let out = map_parallel(items, |item| {
        let pooled = shared.lock().expect("scratch pool poisoned").pop();
        let mut scratch = pooled.unwrap_or_else(&new_scratch);
        let r = f(item, &mut scratch);
        shared.lock().expect("scratch pool poisoned").push(scratch);
        r
    });
    *pool = shared.into_inner().expect("scratch pool poisoned");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn maps_in_order() {
        let out = map_parallel(vec![1, 2, 3, 4], |x| x * 10);
        assert_eq!(out, vec![10, 20, 30, 40]);
    }

    #[test]
    fn empty_and_single() {
        let out: Vec<i32> = map_parallel(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
        assert_eq!(map_parallel(vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn pooled_scratch_is_reused_and_kept() {
        let mut pool: Vec<Vec<u32>> = Vec::new();
        let out = map_parallel_pooled((0..64u32).collect(), &mut pool, Vec::new, |x, s| {
            assert!(s.is_empty(), "scratch handed back dirty");
            s.push(x);
            let r = s[0] * 2;
            s.clear();
            r
        });
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<_>>());
        // At most one per worker: the caller and its helpers.
        assert!(!pool.is_empty() && pool.len() <= threads());
    }

    #[test]
    fn many_tasks_preserve_order() {
        let items: Vec<u64> = (0..10_000).collect();
        let out = map_parallel(items, |x| x * 2);
        assert_eq!(out.len(), 10_000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 2);
        }
    }

    // The tests below run against a budget of their own, so they fan out on
    // a single-core host too and see no other test's helpers.

    #[test]
    fn items_borrow_stack_data() {
        let live = AtomicUsize::new(0);
        let data: Vec<u64> = (0..100).collect();
        let total = AtomicUsize::new(0);
        fan_out(&live, 4, data.chunks(7).collect(), |chunk| {
            let sum: u64 = chunk.iter().sum();
            total.fetch_add(sum as usize, Ordering::Relaxed);
        });
        assert_eq!(
            total.load(Ordering::Relaxed),
            (0..100u64).sum::<u64>() as usize
        );
    }

    #[test]
    fn nested_fan_outs_complete_within_the_budget() {
        const CAP: usize = 3;
        let live = AtomicUsize::new(0);
        let count = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        fan_out(&live, CAP, (0..CAP * 4).collect(), |_| {
            fan_out(&live, CAP, (0..4).collect(), |_| {
                peak.fetch_max(live.load(Ordering::Acquire), Ordering::Relaxed);
                count.fetch_add(1, Ordering::Relaxed);
            })
        });
        assert_eq!(count.load(Ordering::Relaxed), CAP * 16);
        let peak = peak.load(Ordering::Relaxed);
        assert!((1..=CAP).contains(&peak), "peak of {peak} live helpers");
        assert_eq!(live.load(Ordering::Acquire), 0);
    }

    #[test]
    fn a_panicking_item_propagates_its_payload() {
        let live = AtomicUsize::new(0);
        let err = catch_unwind(AssertUnwindSafe(|| {
            fan_out(&live, 4, (0..64u32).collect(), |x| {
                assert!(x != 37, "item {x} failed");
                x
            })
        }))
        .expect_err("the item's panic propagates");
        assert_eq!(
            err.downcast_ref::<String>().map(String::as_str),
            Some("item 37 failed")
        );
        // The helpers are given back, and the next fan-out works.
        assert_eq!(live.load(Ordering::Acquire), 0);
        assert_eq!(fan_out(&live, 4, vec![1, 2, 3], |x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn a_fan_out_returns_its_values_in_item_order() {
        let live = AtomicUsize::new(0);
        let out = fan_out(&live, 4, (0..1_000u32).collect(), |x| x * 3);
        assert_eq!(out, (0..1_000).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn the_override_is_clamped() {
        assert_eq!(width(Some("100000"), 8), 8);
        assert_eq!(width(Some("100000"), 1), 2);
        assert_eq!(width(Some("3"), 8), 3);
        assert_eq!(width(Some("2"), 1), 2);
        assert_eq!(width(Some("0"), 8), 8);
        assert_eq!(width(Some("abc"), 8), 8);
        assert_eq!(width(None, 8), 8);
        assert_eq!(width(None, 1), 1);
    }
}
