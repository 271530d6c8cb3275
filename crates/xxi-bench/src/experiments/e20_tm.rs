//! E20 — §2.4 programmability: transactional memory "seeks to
//! significantly simplify parallelization and synchronization … now
//! entering the commercial mainstream."
//!
//! The bank races real threads, yet everything the report prints is
//! deterministic: money is conserved under any interleaving, and threads
//! on disjoint halves never abort (locks are per cell). Commit rates and
//! abort ratios are host measurements, so they live in the bench registry
//! (`xxi bench stack/stm-bank --threads N`).

use std::sync::Arc;

use xxi_core::rng::Rng64;
use xxi_core::Report;
use xxi_stack::stm::{transfer, TxArray};

use super::{Experiment, RunCtx};

/// Initial balance of every account.
const BALANCE: u64 = 1_000;

/// Race one thread per seed over `accounts` cells (each starting at
/// [`BALANCE`]), splitting `transfers` random transfers evenly among them.
/// Returns the array for the caller to audit.
pub(crate) fn run_bank(accounts: usize, transfers: usize, seeds: &[u64]) -> Arc<TxArray> {
    let arr = Arc::new(TxArray::new(accounts));
    for i in 0..accounts {
        arr.write_direct(i, BALANCE);
    }
    let n = seeds.len();
    let handles: Vec<_> = seeds
        .iter()
        .enumerate()
        .map(|(t, &seed)| {
            let arr = Arc::clone(&arr);
            let share = transfers / n + usize::from(t < transfers % n);
            std::thread::spawn(move || {
                let mut rng = Rng64::new(seed);
                for _ in 0..share {
                    let from = rng.below(accounts as u64) as usize;
                    let mut to = rng.below(accounts as u64) as usize;
                    if to == from {
                        to = (to + 1) % accounts;
                    }
                    transfer(&arr, from, to, rng.below(20) + 1);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("bank thread panicked");
    }
    arr
}

/// True when the bank still holds `accounts` × [`BALANCE`].
pub(crate) fn conserved(arr: &TxArray) -> bool {
    (0..arr.len()).map(|i| arr.read_direct(i)).sum::<u64>() == BALANCE * arr.len() as u64
}

pub struct E20Tm;

impl Experiment for E20Tm {
    fn id(&self) -> &'static str {
        "e20"
    }

    fn title(&self) -> &'static str {
        "Transactional memory: invariants without locks"
    }

    fn paper_claim(&self) -> &'static str {
        "§2.4: 'Transactional memory ... simplify parallelization and synchronization'"
    }

    fn fill(&self, ctx: &RunCtx, r: &mut Report) {
        r.section("Concurrent bank: the conservation invariant");
        let transfers = 20_000usize;
        let mut all_conserved = true;
        for (threads, accounts) in [(1usize, 64usize), (2, 64), (4, 64), (4, 256)] {
            let seeds: Vec<u64> = (0..threads).map(|t| ctx.seed_or(t as u64 + 1)).collect();
            all_conserved &= conserved(&run_bank(accounts, threads * transfers, &seeds));
        }
        r.text(format!(
            "money conserved after {transfers} transfers per thread at 1, 2 and 4 threads\n\
             (64 and 256 accounts): {all_conserved}"
        ));
        r.finding(
            "money_conserved",
            if all_conserved { 1.0 } else { 0.0 },
            "bool",
        );

        r.section("No false conflicts: disjoint working sets");
        let arr = Arc::new(TxArray::new(64));
        let mut handles = Vec::new();
        for t in 0..2usize {
            let arr = Arc::clone(&arr);
            let seed = ctx.seed_or(t as u64 + 1);
            handles.push(std::thread::spawn(move || {
                let mut rng = Rng64::new(seed);
                let base = t * 32;
                for _ in 0..20_000 {
                    let from = base + rng.below(32) as usize;
                    let to = base + ((from - base + 1 + rng.below(30) as usize) % 32);
                    transfer(&arr, from, to, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        r.text(format!(
            "2 threads on disjoint halves: commits={} aborts={} (a correct STM must\n\
         abort ONLY on genuine overlap)",
            arr.commits(),
            arr.aborts()
        ));

        r.text(
            "\nHeadline: the invariant ('total money constant') holds at every thread\n\
             count without one explicit lock in application code, and disjoint\n\
             workloads run abort-free (no false conflicts). Aborts under sharing are\n\
             the price of optimistic concurrency — and they are retries, never\n\
             deadlocks or corruption. That is the programmability trade §2.4 credits\n\
             TM with, measured.",
        );
    }
}
