//! Intermittent computing on harvested power.
//!
//! §2.1 names "systems that can leverage intermittent power (e.g., from
//! harvested energy)" as a new opportunity. The canonical problem: a task
//! must make progress across power failures that wipe volatile state. The
//! canonical solution: checkpoint progress to NVM (there is no battery to
//! flush caches with — state must already be durable when power dies).
//!
//! The model: a task of `total_steps` steps runs off a capacitor charged by
//! a bursty harvester. Each step costs energy; checkpointing every
//! `interval` steps costs extra (an NVM write). When the capacitor runs
//! dry mid-interval, volatile progress since the last checkpoint is lost.
//! Too-rare checkpoints risk **non-termination** (Sisyphus: each power-on
//! burst does less work than gets lost); too-frequent checkpoints waste
//! energy on NVM writes. The tests exhibit both regimes — this is the
//! forward-progress argument from the intermittent-computing literature
//! (Lucia & Ransford et al.) that the paper's sensor agenda builds on.

use xxi_core::rng::Rng64;
use xxi_core::units::Energy;

/// An intermittently-powered task.
#[derive(Clone, Debug)]
pub struct IntermittentTask {
    /// Steps of work to complete.
    pub total_steps: u64,
    /// Energy per step of work.
    pub e_step: Energy,
    /// Energy per NVM checkpoint.
    pub e_checkpoint: Energy,
    /// Steps between checkpoints (`0` disables checkpointing).
    pub interval: u64,
    /// Capacitor capacity: the energy available per power-on burst.
    pub burst_energy: Energy,
}

/// Outcome of an intermittent run.
#[derive(Clone, Copy, Debug)]
pub struct RunStats {
    /// Completed?
    pub finished: bool,
    /// Power-on bursts consumed.
    pub bursts: u64,
    /// Total steps executed (including re-executed lost work).
    pub steps_executed: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Total energy consumed.
    pub energy: Energy,
}

impl IntermittentTask {
    /// Run until completion or `max_bursts` power-on cycles.
    ///
    /// Burst sizes vary ±20% around `burst_energy` (harvester
    /// variability), seeded deterministically.
    pub fn run(&self, max_bursts: u64, seed: u64) -> RunStats {
        let mut rng = Rng64::new(seed);
        let mut durable_progress = 0u64; // checkpointed steps
        let mut bursts = 0u64;
        let mut steps_executed = 0u64;
        let mut checkpoints = 0u64;
        let mut energy = 0.0f64;

        while durable_progress < self.total_steps && bursts < max_bursts {
            bursts += 1;
            let mut budget = self.burst_energy.value() * rng.range_f64(0.8, 1.2);
            let mut volatile_progress = durable_progress;
            let mut since_ckpt = 0u64;

            while volatile_progress < self.total_steps {
                // One step of work.
                if budget < self.e_step.value() {
                    break; // power failure: volatile progress lost
                }
                budget -= self.e_step.value();
                energy += self.e_step.value();
                volatile_progress += 1;
                steps_executed += 1;
                since_ckpt += 1;

                let due = self.interval > 0 && since_ckpt >= self.interval;
                let done = volatile_progress == self.total_steps;
                if due || done {
                    if budget < self.e_checkpoint.value() {
                        break; // died during/before the checkpoint
                    }
                    budget -= self.e_checkpoint.value();
                    energy += self.e_checkpoint.value();
                    checkpoints += 1;
                    durable_progress = volatile_progress;
                    since_ckpt = 0;
                }
            }
        }

        RunStats {
            finished: durable_progress >= self.total_steps,
            bursts,
            steps_executed,
            checkpoints,
            energy: Energy(energy),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(interval: u64) -> IntermittentTask {
        IntermittentTask {
            total_steps: 10_000,
            e_step: Energy::from_uj(1.0),
            e_checkpoint: Energy::from_uj(20.0),
            interval,
            burst_energy: Energy::from_mj(1.0), // ~1000 steps per burst
        }
    }

    #[test]
    fn checkpointing_guarantees_forward_progress() {
        let t = task(100);
        let out = t.run(100, 1);
        assert!(out.finished, "must finish: {out:?}");
        // ~10 bursts of ~1000 steps each.
        assert!(out.bursts >= 9 && out.bursts <= 20, "bursts={}", out.bursts);
        // Re-execution waste is bounded by interval per burst.
        assert!(out.steps_executed < 10_000 + 100 * out.bursts);
    }

    #[test]
    fn no_checkpointing_means_sisyphus() {
        // Without checkpoints (interval 0 ⇒ only the final step checkpoint
        // matters), a 10_000-step task cannot finish on ~1000-step bursts:
        // all volatile progress is lost every time.
        let t = task(0);
        let out = t.run(200, 2);
        assert!(!out.finished, "Sisyphus must not finish: {out:?}");
        // It burned energy re-executing the same prefix.
        assert!(out.steps_executed > 100_000);
        assert_eq!(out.checkpoints, 0);
    }

    #[test]
    fn too_frequent_checkpoints_waste_energy() {
        let sparse = task(500).run(300, 3);
        let dense = task(2).run(300, 3);
        assert!(sparse.finished && dense.finished);
        // Checkpoint every 2 steps: 10 µJ/step overhead vs 1 µJ/step work.
        assert!(
            dense.energy.value() > 3.0 * sparse.energy.value(),
            "dense={} sparse={}",
            dense.energy,
            sparse.energy
        );
    }

    #[test]
    fn bigger_bursts_fewer_cycles() {
        let small = task(100).run(1000, 4);
        let mut big = task(100);
        big.burst_energy = Energy::from_mj(5.0);
        let big_out = big.run(1000, 4);
        assert!(small.finished && big_out.finished);
        assert!(big_out.bursts < small.bursts);
    }

    #[test]
    fn energy_accounting_consistent() {
        let t = task(100);
        let out = t.run(100, 5);
        let expect = out.steps_executed as f64 * 1e-6 + out.checkpoints as f64 * 20e-6;
        assert!((out.energy.value() - expect).abs() < 1e-9);
    }

    #[test]
    fn task_fitting_in_one_burst_needs_one() {
        let t = IntermittentTask {
            total_steps: 100,
            e_step: Energy::from_uj(1.0),
            e_checkpoint: Energy::from_uj(20.0),
            interval: 50,
            burst_energy: Energy::from_mj(1.0),
        };
        let out = t.run(10, 6);
        assert!(out.finished);
        assert_eq!(out.bursts, 1);
    }
}
