//! The per-request latency budget: the QoS contract the serving stack
//! works inside.
//!
//! §2.4: *"how can applications express Quality-of-Service targets and
//! have the underlying hardware, the operating system and the
//! virtualization layers work together to ensure them?"* Here the target
//! is a deadline per request, which the cluster serving model spends
//! across retries, hedges and failovers (experiment E21).

/// A per-request latency budget: the QoS contract the serving stack works
/// inside. The request must answer within `deadline_ms`; each attempt
/// against a replica may consume at most `attempt_timeout_ms` before the
/// client declares it lost — sliced down to whatever budget remains, so a
/// late retry never overshoots the deadline.
///
/// This is the request-level face of §2.4's QoS question: the cluster
/// serving model (`crate::cluster`) spends this budget across retries,
/// hedges, and failovers, and degrades to a partial result when it runs
/// out rather than blowing the SLO.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// End-to-end request deadline (ms).
    pub deadline_ms: f64,
    /// Per-attempt timeout (ms) before the attempt is declared lost.
    pub attempt_timeout_ms: f64,
}

impl Budget {
    /// A budget with the given deadline and per-attempt timeout.
    pub fn new(deadline_ms: f64, attempt_timeout_ms: f64) -> Budget {
        assert!(deadline_ms > 0.0 && attempt_timeout_ms > 0.0);
        Budget {
            deadline_ms,
            attempt_timeout_ms,
        }
    }

    /// Budget left `elapsed_ms` into the request (never negative).
    pub fn remaining_ms(&self, elapsed_ms: f64) -> f64 {
        (self.deadline_ms - elapsed_ms).max(0.0)
    }

    /// Timeout for an attempt launched `elapsed_ms` into the request:
    /// the per-attempt timeout, clipped to the remaining budget. `None`
    /// once the budget is exhausted — don't even send the RPC.
    pub fn attempt_timeout(&self, elapsed_ms: f64) -> Option<f64> {
        let left = self.remaining_ms(elapsed_ms);
        (left > 0.0).then(|| self.attempt_timeout_ms.min(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_slices_attempts_from_the_deadline() {
        let b = Budget::new(50.0, 12.0);
        assert_eq!(b.attempt_timeout(0.0), Some(12.0));
        // Near the deadline only the remainder is granted.
        assert_eq!(b.attempt_timeout(45.0), Some(5.0));
        assert_eq!(b.attempt_timeout(50.0), None);
        assert_eq!(b.attempt_timeout(60.0), None);
        assert_eq!(b.remaining_ms(60.0), 0.0);
    }
}
