//! The one segment fan-out, shared by the vectorized query kernels here and
//! the evolution operators in `cods` (DECOMPOSE / MERGE / the plan
//! executor's waves).
//!
//! Work decomposes into independent tasks — one per segment batch, or one
//! per (column × segment) — and runs on `rayon`'s persistent process-wide
//! pool (one OS thread per hardware thread, started once per process), so
//! the grain can be thousands of tasks without spawning thousands of
//! threads. With one item or one worker the map degenerates to the serial
//! loop, so single-core hosts pay nothing for the seam.
//!
//! `CODS_QUERY_THREADS` sizes **both** fan-outs: the override below also
//! decides whether the SMO operators fan out or run serially.

use std::sync::{Mutex, OnceLock};

/// Worker count the fan-out is sized against. `CODS_QUERY_THREADS`
/// overrides the pool's native width — the thread-scaling smoke's knob, so a
/// 1-core CI container can still exercise the N>1 fan-out path (tasks then
/// interleave on the single worker; results must stay bit-identical).
fn threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("CODS_QUERY_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(rayon::current_num_threads)
    })
}

/// Maps `f` over `items` in parallel, preserving order.
pub fn map_parallel<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if items.len() <= 1 || threads() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    rayon::scope(|scope| {
        let f = &f;
        for (slot, item) in out.iter_mut().zip(items) {
            scope.spawn(move |_| {
                *slot = Some(f(item));
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("pool task did not complete"))
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
        // At most one per pool worker, plus the caller, which helps drain.
        assert!(!pool.is_empty() && pool.len() <= rayon::current_num_threads() + 1);
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
}
