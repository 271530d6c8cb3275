//! Executor abstraction for the deterministic Monte Carlo hot loops.
//!
//! The experiment crates (`xxi-cloud` especially) burn most of their time
//! in embarrassingly parallel trial loops, but they sit *below*
//! `xxi-stack` in the dependency graph and cannot name its `Pool`. This
//! module defines the seam: [`Parallelism`] is the minimal executor
//! interface (`Pool` implements it in `xxi-stack`; [`Serial`] is the
//! dependency-free default), and [`mc_chunks`] is the chunking discipline
//! that keeps parallel runs **byte-identical** to serial ones:
//!
//! * trials are split into fixed-size chunks of [`MC_GRAIN`] — the
//!   boundaries depend only on the trial count, never on the thread
//!   count;
//! * each chunk draws from its own [`Rng64::stream`] substream, indexed
//!   by chunk number — no chunk observes another's RNG state;
//! * results are returned in chunk order — floating-point reductions see
//!   the same operand order on every executor.
//!
//! Under those three rules, `--threads 4` and `--threads 1` print the
//! same tables, which is what makes the parallel experiments auditable.
//! The seam does not expose a thread count, so code written against it
//! has nothing to make its results depend on.
//!
//! [`map`] is the one index-ordered parallel map, underneath
//! [`mc_chunks`] and every sweep that runs one independent job per grid
//! point (a fault rate, a queue, a policy pair). On a `Pool` each worker
//! claims indices one at a time from a shared counter, and each result
//! takes a lock on its slot, so callers with fine-grain work chunk it
//! first and map over the chunks, as [`mc_chunks`] does.

use std::ops::Range;
use std::sync::Mutex;

use crate::rng::Rng64;

/// An executor that can run `tasks` independent closures to completion.
///
/// The closure may borrow from the caller's stack: implementations must
/// not return from `for_tasks` until every invocation has finished.
pub trait Parallelism: Sync {
    /// Invoke `f(i)` for every `i in 0..tasks`, possibly concurrently,
    /// and return only when all invocations have completed.
    fn for_tasks(&self, tasks: usize, f: &(dyn Fn(usize) + Sync));
}

/// The dependency-free executor: runs every task inline, in index order.
#[derive(Clone, Copy, Debug, Default)]
pub struct Serial;

impl Parallelism for Serial {
    fn for_tasks(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        for i in 0..tasks {
            f(i);
        }
    }
}

/// Trials per Monte Carlo chunk. Fixed (not derived from thread count) so
/// chunk boundaries — and therefore every RNG substream and reduction
/// order — are a function of the experiment alone.
pub const MC_GRAIN: usize = 8192;

/// Run `f(i)` for every `i in 0..n` on `exec` and return the results in
/// index order, whatever order the executor ran them in.
pub fn map<R, F>(exec: &dyn Parallelism, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    exec.for_tasks(n, &|i| {
        *slots[i].lock().unwrap() = Some(f(i));
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("task completed")) // xxi-allow: panic-path -- see the expect message
        .collect()
}

/// Run a Monte Carlo trial loop on `exec`, deterministically.
///
/// Splits `0..trials` into [`MC_GRAIN`]-sized chunks and calls
/// `f(range, rng)` once per chunk, where `rng` is the chunk's own
/// [`Rng64::stream`]`(seed, chunk_index)` substream. Results come back in
/// chunk order. The output is identical for every executor and thread
/// count; only the wall clock changes.
pub fn mc_chunks<R, F>(exec: &dyn Parallelism, trials: usize, seed: u64, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>, &mut Rng64) -> R + Sync,
{
    map(exec, trials.div_ceil(MC_GRAIN), |c| {
        let lo = c * MC_GRAIN;
        let hi = ((c + 1) * MC_GRAIN).min(trials);
        f(lo..hi, &mut Rng64::stream(seed, c as u64))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs every task inline in reverse index order.
    struct Reversed;

    impl Parallelism for Reversed {
        fn for_tasks(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
            for i in (0..tasks).rev() {
                f(i);
            }
        }
    }

    #[test]
    fn serial_runs_in_index_order() {
        let seen = Mutex::new(Vec::new());
        Serial.for_tasks(5, &|i| seen.lock().unwrap().push(i));
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn map_returns_results_in_index_order_on_any_schedule() {
        assert_eq!(map(&Serial, 4, |i| i * 10), vec![0, 10, 20, 30]);
        assert_eq!(map(&Reversed, 4, |i| i * 10), vec![0, 10, 20, 30]);
        assert!(map(&Serial, 0, |i| i).is_empty());
    }

    #[test]
    fn mc_chunks_covers_every_trial_exactly_once() {
        let counts = mc_chunks(&Serial, 3 * MC_GRAIN + 17, 1, |r, _| r.len());
        assert_eq!(counts.len(), 4);
        assert_eq!(counts.iter().sum::<usize>(), 3 * MC_GRAIN + 17);
        assert_eq!(counts[3], 17);
    }

    #[test]
    fn mc_chunks_empty_trials() {
        let out = mc_chunks(&Serial, 0, 1, |r, _| r.len());
        assert!(out.is_empty());
    }

    #[test]
    fn mc_chunks_is_deterministic_per_seed() {
        let a = mc_chunks(&Serial, 20_000, 42, |r, rng| {
            r.map(|_| rng.next_f64()).sum::<f64>()
        });
        let b = mc_chunks(&Serial, 20_000, 42, |r, rng| {
            r.map(|_| rng.next_f64()).sum::<f64>()
        });
        let c = mc_chunks(&Serial, 20_000, 43, |r, rng| {
            r.map(|_| rng.next_f64()).sum::<f64>()
        });
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn chunk_substreams_do_not_depend_on_execution_order() {
        // Reversed-order execution must produce the same per-chunk values:
        // the substream is a function of (seed, chunk), not of history.
        let fwd = mc_chunks(&Serial, 4 * MC_GRAIN, 7, |r, rng| {
            r.map(|_| rng.next_u64()).fold(0u64, u64::wrapping_add)
        });
        let rev = mc_chunks(&Reversed, 4 * MC_GRAIN, 7, |r, rng| {
            r.map(|_| rng.next_u64()).fold(0u64, u64::wrapping_add)
        });
        assert_eq!(fwd, rev);
    }
}
