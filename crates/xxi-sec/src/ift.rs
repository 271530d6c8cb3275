//! Dynamic information-flow tracking (DIFT).
//!
//! A minimal register machine in which **every value carries a taint
//! label** maintained by "hardware" (the interpreter), per the classic
//! DIFT designs (Suh et al. ASPLOS'04; Dalton et al. "Raksha") that §2.4's
//! "information flow tracking" refers to. Rules:
//!
//! * `In` produces **tainted** data (untrusted input) or **secret** data
//!   (confidential), per the policy's source labels.
//! * Arithmetic propagates the union of operand taints.
//! * Loads/stores propagate taint through memory (each word has a label).
//! * The policy traps on: tainted **jump targets** (control-flow hijack),
//!   tainted **output** when confidentiality is enforced (exfiltration),
//!   and secret-dependent branches if configured (timing discipline).
//! * `Declassify` clears labels — the explicit, auditable escape hatch.

use serde::{Deserialize, Serialize};

use xxi_core::metrics::Metrics;

/// Taint label lattice: a small bitset (untrusted | secret).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Taint(pub u8);

impl Taint {
    /// No label.
    pub const CLEAN: Taint = Taint(0);
    /// Attacker-influenced (integrity concern).
    pub const UNTRUSTED: Taint = Taint(1);
    /// Confidential (secrecy concern).
    pub const SECRET: Taint = Taint(2);

    /// Lattice join.
    pub fn join(self, other: Taint) -> Taint {
        Taint(self.0 | other.0)
    }

    /// Does this label include `other`?
    pub fn contains(self, other: Taint) -> bool {
        self.0 & other.0 == other.0
    }
}

/// The machine's instruction set.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Instr {
    /// `r[d] = imm` (clean constant).
    Const {
        /// Destination register.
        d: u8,
        /// Immediate value.
        imm: u64,
    },
    /// `r[d] = r[a] + r[b]` (taint join).
    Add {
        /// Destination.
        d: u8,
        /// Left operand.
        a: u8,
        /// Right operand.
        b: u8,
    },
    /// `r[d] = r[a] ^ r[b]` (taint join).
    Xor {
        /// Destination.
        d: u8,
        /// Left operand.
        a: u8,
        /// Right operand.
        b: u8,
    },
    /// `r[d] = mem[r[a]]` (value + label from memory, joined with address
    /// taint — pointer taint matters).
    Load {
        /// Destination.
        d: u8,
        /// Address register.
        a: u8,
    },
    /// `mem[r[a]] = r[v]`.
    Store {
        /// Address register.
        a: u8,
        /// Value register.
        v: u8,
    },
    /// `r[d] = input()` labeled by the policy's input label.
    In {
        /// Destination.
        d: u8,
    },
    /// `output(r[v])` — the confidentiality sink.
    Out {
        /// Value register.
        v: u8,
    },
    /// Indirect jump to `r[a]` — the integrity sink.
    JmpReg {
        /// Target-address register.
        a: u8,
    },
    /// Branch to absolute `target` if `r[c] != 0`.
    Bnz {
        /// Condition register.
        c: u8,
        /// Branch target (instruction index).
        target: usize,
    },
    /// Clear `r[v]`'s label (explicit, audited).
    Declassify {
        /// Register to declassify.
        v: u8,
    },
    /// Stop.
    Halt,
}

/// What the hardware monitor traps on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrapKind {
    /// Untrusted data used as a jump target.
    TaintedJump,
    /// Secret data reached output without declassification.
    SecretLeak,
    /// Branch condition depends on a secret (timing discipline).
    SecretBranch,
}

/// Enforcement policy.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Policy {
    /// Label attached to `In` data.
    pub input_label: Taint,
    /// Trap on untrusted jump targets.
    pub block_tainted_jumps: bool,
    /// Trap on secret-labeled output.
    pub block_secret_output: bool,
    /// Trap on secret-dependent branches.
    pub block_secret_branches: bool,
}

impl Policy {
    /// Integrity policy: inputs untrusted, jumps protected.
    pub fn integrity() -> Policy {
        Policy {
            input_label: Taint::UNTRUSTED,
            block_tainted_jumps: true,
            block_secret_output: false,
            block_secret_branches: false,
        }
    }

    /// Confidentiality policy: inputs secret, output protected.
    pub fn confidentiality() -> Policy {
        Policy {
            input_label: Taint::SECRET,
            block_tainted_jumps: false,
            block_secret_output: true,
            block_secret_branches: false,
        }
    }
}

/// Result of running a program.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// Ran to `Halt`; the outputs produced.
    Finished(Vec<u64>),
    /// The monitor trapped.
    Trapped {
        /// Why.
        kind: TrapKind,
        /// At which instruction index.
        pc: usize,
    },
}

/// The DIFT machine.
///
/// ```
/// use xxi_sec::ift::{Instr, Machine, Outcome, Policy, TrapKind};
/// // Untrusted input used as a jump target: the monitor traps.
/// let mut m = Machine::new(Policy::integrity(), 16, vec![0xBAD]);
/// let prog = [Instr::In { d: 0 }, Instr::JmpReg { a: 0 }, Instr::Halt];
/// assert_eq!(
///     m.run(&prog, 10),
///     Outcome::Trapped { kind: TrapKind::TaintedJump, pc: 1 }
/// );
/// ```
pub struct Machine {
    regs: [u64; 16],
    reg_taint: [Taint; 16],
    mem: Vec<u64>,
    mem_taint: Vec<Taint>,
    inputs: Vec<u64>,
    next_input: usize,
    policy: Policy,
    /// `instructions`, `taint_propagations`, `declassifications`, `traps`.
    pub metrics: Metrics,
}

impl Machine {
    /// A machine with `mem_words` of zeroed memory and a queue of `inputs`.
    pub fn new(policy: Policy, mem_words: usize, inputs: Vec<u64>) -> Machine {
        Machine {
            regs: [0; 16],
            reg_taint: [Taint::CLEAN; 16],
            mem: vec![0; mem_words],
            mem_taint: vec![Taint::CLEAN; mem_words],
            inputs,
            next_input: 0,
            policy,
            metrics: Metrics::new(),
        }
    }

    /// Execute `prog` (bounded at `max_steps` to stop runaway loops).
    pub fn run(&mut self, prog: &[Instr], max_steps: usize) -> Outcome {
        let mut pc = 0usize;
        let mut outputs = Vec::new();
        for _ in 0..max_steps {
            let Some(&ins) = prog.get(pc) else {
                return Outcome::Finished(outputs);
            };
            self.metrics.incr("instructions");
            match ins {
                Instr::Const { d, imm } => {
                    self.regs[d as usize] = imm;
                    self.reg_taint[d as usize] = Taint::CLEAN;
                }
                Instr::Add { d, a, b } => {
                    self.regs[d as usize] =
                        self.regs[a as usize].wrapping_add(self.regs[b as usize]);
                    self.propagate2(d, a, b);
                }
                Instr::Xor { d, a, b } => {
                    self.regs[d as usize] = self.regs[a as usize] ^ self.regs[b as usize];
                    self.propagate2(d, a, b);
                }
                Instr::Load { d, a } => {
                    let addr = (self.regs[a as usize] as usize) % self.mem.len();
                    self.regs[d as usize] = self.mem[addr];
                    let t = self.mem_taint[addr].join(self.reg_taint[a as usize]);
                    self.set_taint(d, t);
                }
                Instr::Store { a, v } => {
                    let addr = (self.regs[a as usize] as usize) % self.mem.len();
                    self.mem[addr] = self.regs[v as usize];
                    self.mem_taint[addr] =
                        self.reg_taint[v as usize].join(self.reg_taint[a as usize]);
                }
                Instr::In { d } => {
                    self.regs[d as usize] = self.inputs.get(self.next_input).copied().unwrap_or(0);
                    self.next_input += 1;
                    self.set_taint(d, self.policy.input_label);
                }
                Instr::Out { v } => {
                    if self.policy.block_secret_output
                        && self.reg_taint[v as usize].contains(Taint::SECRET)
                    {
                        self.metrics.incr("traps");
                        return Outcome::Trapped {
                            kind: TrapKind::SecretLeak,
                            pc,
                        };
                    }
                    outputs.push(self.regs[v as usize]);
                }
                Instr::JmpReg { a } => {
                    if self.policy.block_tainted_jumps
                        && self.reg_taint[a as usize].contains(Taint::UNTRUSTED)
                    {
                        self.metrics.incr("traps");
                        return Outcome::Trapped {
                            kind: TrapKind::TaintedJump,
                            pc,
                        };
                    }
                    pc = (self.regs[a as usize] as usize) % prog.len().max(1);
                    continue;
                }
                Instr::Bnz { c, target } => {
                    if self.policy.block_secret_branches
                        && self.reg_taint[c as usize].contains(Taint::SECRET)
                    {
                        self.metrics.incr("traps");
                        return Outcome::Trapped {
                            kind: TrapKind::SecretBranch,
                            pc,
                        };
                    }
                    if self.regs[c as usize] != 0 {
                        pc = target;
                        continue;
                    }
                }
                Instr::Declassify { v } => {
                    self.metrics.incr("declassifications");
                    self.reg_taint[v as usize] = Taint::CLEAN;
                }
                Instr::Halt => return Outcome::Finished(outputs),
            }
            pc += 1;
        }
        Outcome::Finished(outputs)
    }

    fn propagate2(&mut self, d: u8, a: u8, b: u8) {
        let t = self.reg_taint[a as usize].join(self.reg_taint[b as usize]);
        self.set_taint(d, t);
    }

    fn set_taint(&mut self, d: u8, t: Taint) {
        if t != Taint::CLEAN {
            self.metrics.incr("taint_propagations");
        }
        self.reg_taint[d as usize] = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Instr::*;

    #[test]
    fn taint_lattice_joins() {
        assert_eq!(Taint::CLEAN.join(Taint::SECRET), Taint::SECRET);
        assert_eq!(Taint::UNTRUSTED.join(Taint::SECRET), Taint(3));
        assert!(Taint(3).contains(Taint::SECRET));
        assert!(!Taint::UNTRUSTED.contains(Taint::SECRET));
    }

    #[test]
    fn clean_program_runs_and_outputs() {
        let mut m = Machine::new(Policy::integrity(), 16, vec![]);
        let prog = [
            Const { d: 0, imm: 2 },
            Const { d: 1, imm: 3 },
            Add { d: 2, a: 0, b: 1 },
            Out { v: 2 },
            Halt,
        ];
        assert_eq!(m.run(&prog, 100), Outcome::Finished(vec![5]));
    }

    #[test]
    fn control_flow_hijack_is_trapped() {
        // Attacker-controlled input flows (via arithmetic and memory) into
        // a jump target: the integrity policy must trap.
        let mut m = Machine::new(Policy::integrity(), 16, vec![0xDEAD]);
        let prog = [
            In { d: 0 }, // untrusted
            Const { d: 1, imm: 4 },
            Add { d: 2, a: 0, b: 1 }, // still untrusted
            Const { d: 3, imm: 8 },
            Store { a: 3, v: 2 }, // through memory
            Load { d: 4, a: 3 },
            JmpReg { a: 4 }, // hijack attempt
            Halt,
        ];
        assert_eq!(
            m.run(&prog, 100),
            Outcome::Trapped {
                kind: TrapKind::TaintedJump,
                pc: 6
            }
        );
    }

    #[test]
    fn clean_indirect_jump_is_allowed() {
        let mut m = Machine::new(Policy::integrity(), 16, vec![]);
        let prog = [
            Const { d: 0, imm: 3 },
            JmpReg { a: 0 }, // jump over the bad Out
            Out { v: 0 },    // skipped
            Halt,
        ];
        assert_eq!(m.run(&prog, 100), Outcome::Finished(vec![]));
    }

    #[test]
    fn secret_exfiltration_is_trapped_even_laundered_through_memory() {
        let mut m = Machine::new(Policy::confidentiality(), 16, vec![42]);
        let prog = [
            In { d: 0 }, // secret
            Const { d: 1, imm: 7 },
            Xor { d: 2, a: 0, b: 1 }, // "encrypted"? still secret label
            Const { d: 3, imm: 5 },
            Store { a: 3, v: 2 },
            Load { d: 4, a: 3 },
            Out { v: 4 },
            Halt,
        ];
        assert_eq!(
            m.run(&prog, 100),
            Outcome::Trapped {
                kind: TrapKind::SecretLeak,
                pc: 6
            }
        );
    }

    #[test]
    fn declassification_permits_output() {
        let mut m = Machine::new(Policy::confidentiality(), 16, vec![42]);
        let prog = [In { d: 0 }, Declassify { v: 0 }, Out { v: 0 }, Halt];
        assert_eq!(m.run(&prog, 100), Outcome::Finished(vec![42]));
        assert_eq!(m.metrics.counter("declassifications"), 1);
    }

    #[test]
    fn pointer_taint_propagates_on_load() {
        // Loading through a secret-derived address taints the result
        // (index-based leaks).
        let mut m = Machine::new(Policy::confidentiality(), 16, vec![3]);
        let prog = [
            In { d: 0 },         // secret index
            Load { d: 1, a: 0 }, // mem is clean, but address is secret
            Out { v: 1 },
            Halt,
        ];
        assert_eq!(
            m.run(&prog, 100),
            Outcome::Trapped {
                kind: TrapKind::SecretLeak,
                pc: 2
            }
        );
    }

    #[test]
    fn secret_branch_discipline() {
        let policy = Policy {
            block_secret_branches: true,
            ..Policy::confidentiality()
        };
        let mut m = Machine::new(policy, 16, vec![1]);
        let prog = [In { d: 0 }, Bnz { c: 0, target: 3 }, Halt, Halt];
        assert_eq!(
            m.run(&prog, 100),
            Outcome::Trapped {
                kind: TrapKind::SecretBranch,
                pc: 1
            }
        );
    }

    #[test]
    fn loops_execute_with_branches() {
        // Sum 1..=5 with a loop; all-clean, must finish with 15.
        let mut m = Machine::new(Policy::integrity(), 16, vec![]);
        let prog = [
            Const { d: 0, imm: 5 }, // counter
            Const { d: 1, imm: 0 }, // acc
            Const {
                d: 2,
                imm: u64::MAX,
            }, // -1
            Add { d: 1, a: 1, b: 0 }, // acc += counter
            Add { d: 0, a: 0, b: 2 }, // counter -= 1
            Bnz { c: 0, target: 3 },
            Out { v: 1 },
            Halt,
        ];
        assert_eq!(m.run(&prog, 1000), Outcome::Finished(vec![15]));
    }

    #[test]
    fn constants_scrub_registers() {
        let mut m = Machine::new(Policy::confidentiality(), 16, vec![9]);
        let prog = [
            In { d: 0 },
            Const { d: 0, imm: 1 }, // overwrite secret with constant
            Out { v: 0 },
            Halt,
        ];
        assert_eq!(m.run(&prog, 100), Outcome::Finished(vec![1]));
    }
}
