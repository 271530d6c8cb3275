//! Failsafe-mode state machine.
//!
//! §2.4: *"for mission-critical scenarios (including medical devices),
//! architects must rethink designs to allow for failsafe operation."*
//!
//! A three-mode machine with hysteresis:
//!
//! * **Normal** — full function. Escalates to Degraded after
//!   `degrade_threshold` errors within a window.
//! * **Degraded** — reduced function (e.g. lower rate, conservative
//!   algorithms). Escalates to Safe on continued errors; de-escalates to
//!   Normal after a long clean streak.
//! * **Safe** — minimal guaranteed-correct function (a pacemaker's fixed
//!   pacing mode). Nothing in the machine leaves Safe mode — automatic
//!   recovery from the last-resort mode is exactly what a failsafe design
//!   must *not* do; leaving it is a service intervention outside the model.

/// Operating mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Full functionality.
    Normal,
    /// Reduced, conservative operation.
    Degraded,
    /// Minimal guaranteed-correct operation; requires service to exit.
    Safe,
}

/// The failsafe controller.
#[derive(Clone, Debug)]
pub struct FailsafeMachine {
    mode: Mode,
    /// Errors within the current window.
    errors_in_window: u32,
    /// Clean events since the last error.
    clean_streak: u32,
    /// Errors in a window that trigger Normal → Degraded.
    pub degrade_threshold: u32,
    /// Errors in a window (while Degraded) that trigger Degraded → Safe.
    pub safe_threshold: u32,
    /// Clean events required for Degraded → Normal.
    pub recover_threshold: u32,
    transitions: Vec<(Mode, Mode)>,
}

impl FailsafeMachine {
    /// A machine with the given thresholds.
    pub fn new(degrade_threshold: u32, safe_threshold: u32, recover_threshold: u32) -> Self {
        assert!(degrade_threshold > 0 && safe_threshold > 0 && recover_threshold > 0);
        FailsafeMachine {
            mode: Mode::Normal,
            errors_in_window: 0,
            clean_streak: 0,
            degrade_threshold,
            safe_threshold,
            recover_threshold,
            transitions: Vec::new(),
        }
    }

    /// Current mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Record an error event.
    pub fn error(&mut self) {
        self.clean_streak = 0;
        self.errors_in_window += 1;
        match self.mode {
            Mode::Normal if self.errors_in_window >= self.degrade_threshold => {
                self.transition(Mode::Degraded);
            }
            Mode::Degraded if self.errors_in_window >= self.safe_threshold => {
                self.transition(Mode::Safe);
            }
            _ => {}
        }
    }

    /// Record a successful (clean) event.
    pub fn ok(&mut self) {
        self.clean_streak += 1;
        if self.mode == Mode::Degraded && self.clean_streak >= self.recover_threshold {
            self.transition(Mode::Normal);
        }
    }

    fn transition(&mut self, to: Mode) {
        if self.mode != to {
            self.transitions.push((self.mode, to));
        }
        self.mode = to;
        self.errors_in_window = 0;
        self.clean_streak = 0;
    }

    /// The transition history.
    pub fn transitions(&self) -> &[(Mode, Mode)] {
        &self.transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> FailsafeMachine {
        FailsafeMachine::new(3, 2, 5)
    }

    #[test]
    fn starts_normal() {
        assert_eq!(machine().mode(), Mode::Normal);
    }

    #[test]
    fn escalates_to_degraded_then_safe() {
        let mut m = machine();
        m.error();
        m.error();
        assert_eq!(m.mode(), Mode::Normal);
        m.error();
        assert_eq!(m.mode(), Mode::Degraded);
        m.error();
        assert_eq!(m.mode(), Mode::Degraded);
        m.error();
        assert_eq!(m.mode(), Mode::Safe);
        assert_eq!(
            m.transitions(),
            &[(Mode::Normal, Mode::Degraded), (Mode::Degraded, Mode::Safe)]
        );
    }

    #[test]
    fn degraded_recovers_after_clean_streak() {
        let mut m = machine();
        for _ in 0..3 {
            m.error();
        }
        assert_eq!(m.mode(), Mode::Degraded);
        for _ in 0..4 {
            m.ok();
        }
        assert_eq!(m.mode(), Mode::Degraded);
        m.ok();
        assert_eq!(m.mode(), Mode::Normal);
    }

    #[test]
    fn error_resets_clean_streak() {
        let mut m = machine();
        for _ in 0..3 {
            m.error();
        }
        for _ in 0..4 {
            m.ok();
        }
        m.error(); // streak resets
        for _ in 0..4 {
            m.ok();
        }
        assert_eq!(m.mode(), Mode::Degraded, "streak must restart after error");
        m.ok();
        assert_eq!(m.mode(), Mode::Normal);
    }

    #[test]
    fn safe_mode_is_sticky() {
        let mut m = machine();
        for _ in 0..5 {
            m.error();
        }
        assert_eq!(m.mode(), Mode::Safe);
        for _ in 0..1000 {
            m.ok();
        }
        assert_eq!(m.mode(), Mode::Safe, "no automatic exit from Safe");
    }

    #[test]
    fn normal_errors_below_threshold_are_tolerated() {
        let mut m = machine();
        for _ in 1..m.degrade_threshold {
            m.error();
            m.ok();
        }
        assert_eq!(m.mode(), Mode::Normal);
        assert!(m.transitions().is_empty());
    }
}
