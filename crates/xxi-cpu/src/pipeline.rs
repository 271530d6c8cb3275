//! A 5-stage in-order pipeline simulator — 20th-century ILP, concretely.
//!
//! Table 2's left column: *"Performance through software-invisible
//! instruction level parallelism (ILP)"*. The E2 attribution credits
//! architecture with ~80×, much of it from exactly the mechanisms this
//! module simulates: pipelining, forwarding/bypass networks, and branch
//! prediction. Making them executable lets the tests *measure* the IPC
//! effect of each mechanism instead of asserting it:
//!
//! * classic IF/ID/EX/MEM/WB in-order pipeline;
//! * RAW hazards stall the pipe unless **forwarding** is enabled
//!   (load-use keeps a 1-cycle bubble even with forwarding, as in the
//!   textbook);
//! * branches resolve in EX; a **2-bit saturating-counter predictor**
//!   (vs always-not-taken) converts most of the 2-cycle flush penalty
//!   back into throughput.
//!
//! Energy hook: every stall/flush cycle burns pipeline overhead energy
//! without retiring work — one concrete reason the big OoO core of
//! `xxi-tech::ops` pays ~10× the functional energy per instruction.

use xxi_core::metrics::Metrics;

/// A register-transfer instruction for the pipeline model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// `d = a ⊕ b` one-cycle ALU op.
    Alu {
        /// Destination register.
        d: u8,
        /// Source register.
        a: u8,
        /// Source register.
        b: u8,
    },
    /// `d = mem[a]` — result available after MEM.
    Load {
        /// Destination register.
        d: u8,
        /// Address register.
        a: u8,
    },
    /// `mem[a] = v`.
    Store {
        /// Address register.
        a: u8,
        /// Value register.
        v: u8,
    },
    /// Conditional branch on register `c`; `taken` is the actual outcome
    /// (the model carries outcomes; prediction happens in the frontend).
    Branch {
        /// Condition register (consumed in EX).
        c: u8,
        /// Ground-truth outcome.
        taken: bool,
    },
    /// No-op.
    Nop,
}

impl Op {
    fn dest(&self) -> Option<u8> {
        match *self {
            Op::Alu { d, .. } | Op::Load { d, .. } => Some(d),
            _ => None,
        }
    }

    fn sources(&self) -> [Option<u8>; 2] {
        match *self {
            Op::Alu { a, b, .. } => [Some(a), Some(b)],
            Op::Load { a, .. } => [Some(a), None],
            Op::Store { a, v } => [Some(a), Some(v)],
            Op::Branch { c, .. } => [Some(c), None],
            Op::Nop => [None, None],
        }
    }

    fn is_load(&self) -> bool {
        matches!(self, Op::Load { .. })
    }
}

/// Pipeline configuration.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Forwarding/bypass network present?
    pub forwarding: bool,
    /// Use the 2-bit predictor (else predict not-taken)?
    pub branch_predictor: bool,
    /// Cycles lost on a mispredicted branch (flush depth).
    pub mispredict_penalty: u32,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            forwarding: true,
            branch_predictor: true,
            mispredict_penalty: 2,
        }
    }
}

/// Result of running a program.
#[derive(Clone, Debug)]
pub struct PipelineResult {
    /// Instructions retired.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Retired instructions per cycle.
    pub ipc: f64,
    /// Stall cycles from data hazards.
    pub stall_cycles: u64,
    /// Flush cycles from branch mispredictions.
    pub flush_cycles: u64,
    /// Branch-prediction accuracy (1.0 when no branches).
    pub branch_accuracy: f64,
}

/// Run `program` (a straight-line trace: branches carry their outcome but
/// do not redirect the trace — standard trace-driven simplification)
/// through the pipeline.
pub fn simulate(program: &[Op], cfg: PipelineConfig) -> PipelineResult {
    let mut metrics = Metrics::new();
    // Two-bit counter per (static) trace index bucket.
    let mut predictor = [1u8; 64]; // weakly not-taken
    let mut cycles: u64 = 0;
    // Track the destination registers of the instructions currently in EX
    // and MEM stages relative to the issuing instruction: we model the
    // schedule analytically — for an in-order scalar pipe, total cycles =
    // instructions + pipeline fill + stalls + flushes.
    let depth = 5u64;
    let mut stalls: u64 = 0;
    let mut flushes: u64 = 0;
    let mut branches: u64 = 0;
    let mut correct: u64 = 0;

    for (i, op) in program.iter().enumerate() {
        // --- data hazards against the previous two instructions ---
        let mut stall_here = 0u64;
        for (dist, prev) in program[..i].iter().rev().take(2).enumerate() {
            let Some(d) = prev.dest() else { continue };
            let uses = op.sources().iter().flatten().any(|&s| s == d);
            if !uses {
                continue;
            }
            let gap = dist as u64 + 1; // 1 = immediately previous
            let needed = if cfg.forwarding {
                // Forwarding: ALU results bypass with no stall; loads
                // deliver after MEM ⇒ 1 bubble for the immediate consumer.
                if prev.is_load() && gap == 1 {
                    1
                } else {
                    0
                }
            } else {
                // No forwarding: results visible after WB ⇒ consumer must
                // be ≥3 behind (with write-before-read register file).
                3u64.saturating_sub(gap)
            };
            stall_here = stall_here.max(needed);
        }
        stalls += stall_here;

        // --- control hazards ---
        if let Op::Branch { taken, .. } = *op {
            branches += 1;
            let slot = i % predictor.len();
            let predicted_taken = if cfg.branch_predictor {
                predictor[slot] >= 2
            } else {
                false
            };
            if predicted_taken == taken {
                correct += 1;
            } else {
                flushes += cfg.mispredict_penalty as u64;
            }
            if cfg.branch_predictor {
                // Saturating update.
                if taken {
                    predictor[slot] = (predictor[slot] + 1).min(3);
                } else {
                    predictor[slot] = predictor[slot].saturating_sub(1);
                }
            }
        }
        metrics.incr("instructions");
    }

    let instructions = program.len() as u64;
    cycles += instructions + (depth - 1) + stalls + flushes;
    PipelineResult {
        instructions,
        cycles,
        ipc: instructions as f64 / cycles as f64,
        stall_cycles: stalls,
        flush_cycles: flushes,
        branch_accuracy: if branches == 0 {
            1.0
        } else {
            correct as f64 / branches as f64
        },
    }
}

/// Generate a dependent-ALU-chain program (worst case without forwarding).
pub fn chain_program(n: usize) -> Vec<Op> {
    (0..n)
        .map(|i| Op::Alu {
            d: (i % 8) as u8,
            a: ((i + 7) % 8) as u8,
            b: ((i + 7) % 8) as u8,
        })
        .collect()
}

/// Generate an independent-ALU program (no hazards at distance ≤ 2).
pub fn independent_program(n: usize) -> Vec<Op> {
    (0..n)
        .map(|i| {
            let r = (i % 4) as u8;
            Op::Alu {
                d: r,
                a: r + 4,
                b: r + 8,
            }
        })
        .collect()
}

/// A loop-like branch pattern: `taken` for `body` iterations, then one
/// not-taken exit, repeated.
pub fn loop_branch_program(iterations: usize, body: usize) -> Vec<Op> {
    let mut prog = Vec::new();
    for _ in 0..iterations {
        for j in 0..body {
            let r = (j % 4) as u8;
            prog.push(Op::Alu { d: r, a: r, b: r });
        }
        prog.push(Op::Branch { c: 0, taken: true });
    }
    prog.push(Op::Branch { c: 0, taken: false });
    prog
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_code_reaches_ipc_one() {
        let r = simulate(&independent_program(10_000), PipelineConfig::default());
        assert_eq!(r.stall_cycles, 0);
        assert!(r.ipc > 0.999, "ipc={}", r.ipc);
    }

    #[test]
    fn forwarding_removes_alu_stalls() {
        let prog = chain_program(10_000);
        let with = simulate(&prog, PipelineConfig::default());
        let without = simulate(
            &prog,
            PipelineConfig {
                forwarding: false,
                ..PipelineConfig::default()
            },
        );
        assert_eq!(with.stall_cycles, 0, "bypass handles ALU-ALU");
        // Without forwarding every instruction waits 2 cycles on its
        // predecessor.
        assert_eq!(without.stall_cycles, 2 * (10_000 - 1));
        assert!(
            with.ipc > 2.5 * without.ipc,
            "{} vs {}",
            with.ipc,
            without.ipc
        );
    }

    #[test]
    fn load_use_keeps_one_bubble_even_with_forwarding() {
        let prog = vec![
            Op::Load { d: 1, a: 0 },
            Op::Alu { d: 2, a: 1, b: 1 }, // immediate consumer
            Op::Load { d: 3, a: 0 },
            Op::Nop,
            Op::Alu { d: 4, a: 3, b: 3 }, // one instruction of slack
        ];
        let r = simulate(&prog, PipelineConfig::default());
        assert_eq!(r.stall_cycles, 1, "exactly the textbook load-use bubble");
    }

    #[test]
    fn predictor_learns_loop_branches() {
        let prog = loop_branch_program(500, 3);
        let predicted = simulate(&prog, PipelineConfig::default());
        let naive = simulate(
            &prog,
            PipelineConfig {
                branch_predictor: false,
                ..PipelineConfig::default()
            },
        );
        // Not-taken prediction is wrong on every loop-back branch.
        assert!(
            naive.branch_accuracy < 0.05,
            "naive={}",
            naive.branch_accuracy
        );
        assert!(
            predicted.branch_accuracy > 0.95,
            "predicted={}",
            predicted.branch_accuracy
        );
        assert!(predicted.ipc > naive.ipc);
    }

    #[test]
    fn mispredict_penalty_scales_flushes() {
        let prog = loop_branch_program(200, 1);
        let cheap = simulate(
            &prog,
            PipelineConfig {
                branch_predictor: false,
                mispredict_penalty: 2,
                ..PipelineConfig::default()
            },
        );
        let deep = simulate(
            &prog,
            PipelineConfig {
                branch_predictor: false,
                mispredict_penalty: 20,
                ..PipelineConfig::default()
            },
        );
        assert_eq!(deep.flush_cycles, 10 * cheap.flush_cycles);
        assert!(deep.ipc < cheap.ipc / 2.0);
    }

    #[test]
    fn architecture_mechanisms_compose_toward_the_e2_story() {
        // A realistic mix: loads feeding ALU work inside branchy loops.
        let mut prog = Vec::new();
        for i in 0..2_000usize {
            prog.push(Op::Load { d: 1, a: 0 });
            prog.push(Op::Alu { d: 2, a: 1, b: 1 });
            prog.push(Op::Alu { d: 3, a: 2, b: 2 });
            prog.push(Op::Branch {
                c: 3,
                taken: i % 16 != 15,
            });
        }
        let stone_age = simulate(
            &prog,
            PipelineConfig {
                forwarding: false,
                branch_predictor: false,
                mispredict_penalty: 2,
            },
        );
        let modern = simulate(&prog, PipelineConfig::default());
        let gain = modern.ipc / stone_age.ipc;
        // Forwarding + prediction roughly double-to-triple IPC on this mix —
        // the per-era architecture gains E2's table encodes.
        assert!((1.8..4.0).contains(&gain), "gain={gain}");
    }

    #[test]
    fn ipc_never_exceeds_one_on_scalar_pipe() {
        for prog in [
            independent_program(1000),
            chain_program(1000),
            loop_branch_program(100, 2),
        ] {
            let r = simulate(&prog, PipelineConfig::default());
            assert!(r.ipc <= 1.0 + 1e-12);
        }
    }
}
