//! # xxi-cloud
//!
//! Warehouse-scale computing models for the `xxi-arch` framework.
//!
//! §2.1 ("The Infrastructure—Cloud Servers") contains the paper's single
//! most quotable quantitative claim: *"if 100 systems must jointly respond
//! to a request, 63% of requests will incur the 99-percentile delay of the
//! individual systems due to waiting for stragglers"* (citing Dean). This
//! crate reproduces that arithmetic, the queueing dynamics that create
//! stragglers, and the mitigations the tail-at-scale literature proposes —
//! plus the datacenter power models behind "memory and storage systems
//! consume an increasing fraction of the total data center power budget."
//!
//! * [`latency`] — server response-time distributions (exponential,
//!   log-normal, log-normal with a Pareto straggler tail).
//! * [`fanout`] — fan-out requests: analytic `1 − p^n` straggler
//!   probability and Monte Carlo latency-of-max (experiment E9).
//! * [`queueing`] — an M/G/1 queue, run as a loop over its arrivals,
//!   showing tail inflation with utilization (why stragglers exist).
//! * [`hedge`] — hedged requests: deadline-triggered duplicates that cut
//!   p99 at a few percent extra load (E9's mitigation table).
//! * [`obs`] — the fan-out/hedge model re-run on the DES engine with full
//!   telemetry: request/leaf trace spans, latency histograms, and an
//!   energy ledger (leaf compute / fabric RPC / root idle-wait).
//! * [`power`] — datacenter power: server idle/peak, energy
//!   proportionality, PUE, and the memory/storage share of the budget.
//! * [`qos`] — the per-request [`qos::Budget`] (deadline + per-attempt
//!   timeout), §2.4's QoS interface as the serving stack sees it.
//! * [`cluster`] — fault-injected cluster serving on the DES (experiment
//!   E21): per-request deadlines, retries with jittered exponential
//!   backoff, routing ([`cluster::Routing`]) and hedging
//!   ([`cluster::Hedging`]) policies chosen as config values, replica
//!   failover along a no-revisit permutation, and failsafe-driven
//!   graceful degradation, driven by `xxi_core::des::fault` fault plans.

pub mod cluster;
pub mod fanout;
pub mod hedge;
pub mod latency;
pub mod obs;
pub mod power;
pub mod qos;
pub mod queueing;

pub use cluster::{cluster_sweep_on, ClusterConfig, ClusterOutcome, Hedging, RetryPolicy, Routing};
pub use fanout::analytic_straggler_prob;
pub use hedge::HedgeOutcome;
pub use latency::LatencyDist;
pub use obs::{ClusterObservation, ObservedFanout};
pub use power::{DatacenterPower, ServerPower};
pub use queueing::{MG1Queue, QueueResult};

/// Executors for the determinism tests.
#[cfg(test)]
pub(crate) mod testing {
    use xxi_core::par::Parallelism;

    /// Runs every task inline in reverse index order.
    pub(crate) struct Reversed;

    impl Parallelism for Reversed {
        fn for_tasks(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
            for i in (0..tasks).rev() {
                f(i);
            }
        }
    }
}
