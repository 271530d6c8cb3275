//! QoS-aware colocation of latency-critical and batch work.
//!
//! §2.4: *"how can applications express Quality-of-Service targets and
//! have the underlying hardware, the operating system and the
//! virtualization layers work together to ensure them?"* The concrete
//! version every datacenter faces: a latency-critical (LC) service and
//! batch jobs share a server; batch work raises the LC service's latency
//! through shared-resource interference (LLC, memory bandwidth). The
//! operator wants maximum batch throughput subject to the LC SLO.
//!
//! The model: LC p99 latency inflates with batch occupancy `b ∈ [0,1]` as
//! `p99(b) = p99₀ · (1 + k·b^γ)` (convex: the last cores hurt most —
//! memory bandwidth saturation). [`Colocation::max_batch_under_slo`] finds
//! the admission knob's setting; tests verify the SLO is honored and the
//! machine isn't left needlessly idle.

/// A colocation scenario.
#[derive(Clone, Copy, Debug)]
pub struct Colocation {
    /// LC p99 latency with the machine to itself (ms).
    pub base_p99_ms: f64,
    /// Interference strength: p99 multiplier at full batch occupancy.
    pub k: f64,
    /// Interference convexity (≥1).
    pub gamma: f64,
}

impl Colocation {
    /// A typical memory-bandwidth-bound pairing: 2.5× inflation at full
    /// occupancy, convex.
    pub fn typical() -> Colocation {
        Colocation {
            base_p99_ms: 10.0,
            k: 1.5,
            gamma: 2.0,
        }
    }

    /// LC p99 at batch occupancy `b`.
    pub fn lc_p99(&self, b: f64) -> f64 {
        assert!((0.0..=1.0).contains(&b));
        self.base_p99_ms * (1.0 + self.k * b.powf(self.gamma))
    }

    /// Largest batch occupancy keeping LC p99 ≤ `slo_ms` (0 if even an
    /// idle machine violates it; 1 if the SLO never binds).
    pub fn max_batch_under_slo(&self, slo_ms: f64) -> f64 {
        if slo_ms < self.base_p99_ms {
            return 0.0;
        }
        let headroom = slo_ms / self.base_p99_ms - 1.0;
        let b = (headroom / self.k).powf(1.0 / self.gamma);
        b.min(1.0)
    }
}

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

    #[test]
    fn interference_is_convex_and_monotone() {
        let c = Colocation::typical();
        assert_eq!(c.lc_p99(0.0), 10.0);
        assert!((c.lc_p99(1.0) - 25.0).abs() < 1e-9);
        // Convexity: the second half of occupancy hurts more.
        let first_half = c.lc_p99(0.5) - c.lc_p99(0.0);
        let second_half = c.lc_p99(1.0) - c.lc_p99(0.5);
        assert!(second_half > 2.0 * first_half);
    }

    #[test]
    fn admission_honors_slo_exactly() {
        let c = Colocation::typical();
        for slo in [12.0, 15.0, 20.0, 24.9] {
            let b = c.max_batch_under_slo(slo);
            assert!(b > 0.0 && b < 1.0);
            assert!(c.lc_p99(b) <= slo + 1e-9, "slo={slo} b={b}");
            // And not needlessly conservative: 1% more batch violates.
            assert!(c.lc_p99((b + 0.02).min(1.0)) > slo);
        }
    }

    #[test]
    fn impossible_slo_means_no_batch() {
        let c = Colocation::typical();
        assert_eq!(c.max_batch_under_slo(9.0), 0.0);
    }

    #[test]
    fn slack_slo_means_full_batch() {
        let c = Colocation::typical();
        assert_eq!(c.max_batch_under_slo(100.0), 1.0);
    }
}
