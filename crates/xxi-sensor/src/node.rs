//! The whole sensor node: sample → process → transmit — experiment E10.
//!
//! Three policies for a node that samples a biometric-like signal and must
//! get clinically relevant information to the uplink:
//!
//! * [`NodePolicy::SendRaw`] — transmit every sample. Radio-dominated.
//! * [`NodePolicy::FilterThenSend`] — run an on-node anomaly detector
//!   (moving-mean threshold) and transmit only anomalous windows. Trades
//!   MCU ops (pJ) for radio bits (nJ) — the paper's central sensor claim.
//! * [`NodePolicy::CompressThenSend`] — delta-encode and transmit
//!   everything (lossless middle ground, modeled with a calibrated
//!   compression ratio).
//!
//! The simulation marches a battery through sampling epochs and reports
//! lifetime, plus the detector's recall so the energy saving is shown not
//! to come from dropping the signal.
//!
//! The node is also a fault-injection client ([`SensorNode::run_faulted`]):
//! component 0 of a [`FaultPlan`] is the radio. During a brownout (kill or
//! pause) the node buffers its payload, burns a short probe transmission
//! discovering the dead link, and flushes the backlog — bits *and* pending
//! anomaly reports — once the radio recovers; a slowdown stretches transmit
//! energy (link-layer retransmissions). [`SensorNode::run`] and
//! [`SensorNode::run_observed`] are the empty-plan special case,
//! bit-identical to the pre-fault-seam behavior.

use serde::{Deserialize, Serialize};

use crate::mcu::Mcu;
use crate::power::{Battery, Harvester};
use crate::radio::Radio;
use xxi_approx::signal::{NoiseBound, SignalDraws, SignalGen};
use xxi_core::des::fault::{FaultInjector, FaultPlan};
use xxi_core::metrics::Metrics;
use xxi_core::obs::{EnergyLedger, Layer, LogHistogram, Trace};
use xxi_core::rng::LANES;
use xxi_core::time::SimTime;
use xxi_core::units::{Energy, Seconds};

/// Processing/transmission policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodePolicy {
    /// Transmit every raw sample.
    SendRaw,
    /// Detect anomalies on-node; transmit only anomalous windows.
    FilterThenSend,
    /// Delta-compress and transmit everything.
    CompressThenSend,
}

/// Node configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SensorNodeConfig {
    /// Sampling rate in Hz.
    pub sample_hz: f64,
    /// Bits per raw sample.
    pub bits_per_sample: u32,
    /// Samples per processing/transmit epoch.
    pub epoch_samples: usize,
    /// Detection window for the moving-mean filter.
    pub window: usize,
    /// Detection threshold as a multiple of the running RMS.
    pub threshold: f64,
    /// Compression ratio for [`NodePolicy::CompressThenSend`].
    pub compression_ratio: f64,
    /// MCU operations per sample for filtering.
    pub ops_per_sample_filter: u64,
    /// MCU operations per sample for compression.
    pub ops_per_sample_compress: u64,
}

impl Default for SensorNodeConfig {
    fn default() -> SensorNodeConfig {
        SensorNodeConfig {
            sample_hz: 250.0, // ECG-class
            bits_per_sample: 12,
            epoch_samples: 250,
            window: 8,
            threshold: 1.8,
            compression_ratio: 3.0,
            ops_per_sample_filter: 50,
            ops_per_sample_compress: 200,
        }
    }
}

/// Result of simulating one node to battery exhaustion (or the horizon).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct NodeOutcome {
    /// Battery lifetime.
    pub lifetime: Seconds,
    /// Bits transmitted in total.
    pub bits_sent: u64,
    /// Fraction of true anomaly windows that were reported (recall);
    /// 1.0 for policies that send everything.
    pub recall: f64,
    /// Total energy spent in the radio.
    pub radio_energy: Energy,
    /// Total energy spent computing.
    pub compute_energy: Energy,
}

/// Telemetry from one [`SensorNode::run_observed`] simulation.
#[derive(Clone, Debug)]
pub struct NodeObservation {
    /// Energy attribution: `mcu_compute` (compute), `radio_tx` (network),
    /// `mcu_sleep` (idle), and `harvester` (harvest) when harvesting.
    pub ledger: EnergyLedger,
    /// Total joules drawn per epoch.
    pub epoch_energy: LogHistogram,
    /// One `epoch` span per epoch plus a `tx` instant per transmission.
    /// Trace timestamps saturate after ~200 simulated days (the `SimTime`
    /// horizon); histograms and the ledger are unaffected.
    pub trace: Trace,
}

/// Result of a fault-injected node run ([`SensorNode::run_faulted`]).
#[derive(Clone, Debug)]
pub struct FaultedNodeOutcome {
    /// Lifetime / bits / recall outcome, as for [`SensorNode::run`].
    pub outcome: NodeOutcome,
    /// Epochs whose transmission was deferred by a radio brownout.
    pub deferred_epochs: u64,
    /// Energy burned probing a browned-out radio (part of the battery
    /// draw, excluded from [`NodeOutcome::radio_energy`]'s useful bits).
    pub probe_energy: Energy,
    /// `sensor.*` counters plus the fault accounting
    /// (`fault.scheduled == fault.fired + fault.cancelled`).
    pub metrics: Metrics,
}

/// The radio is fault-plan component 0.
const RADIO: u32 = 0;

/// Bits in the probe frame a node wastes discovering a browned-out link.
const PROBE_BITS: u64 = 64;

/// The node simulator.
pub struct SensorNode {
    /// Node configuration.
    pub cfg: SensorNodeConfig,
    /// MCU model.
    pub mcu: Mcu,
    /// Radio model.
    pub radio: Radio,
}

impl SensorNode {
    /// Build a node.
    pub fn new(cfg: SensorNodeConfig, mcu: Mcu, radio: Radio) -> SensorNode {
        assert!(cfg.epoch_samples > 0 && cfg.window > 0);
        SensorNode { cfg, mcu, radio }
    }

    /// Simulate under `policy` until `battery` dies or `horizon` elapses.
    pub fn run(
        &self,
        policy: NodePolicy,
        battery: Battery,
        horizon: Seconds,
        seed: u64,
    ) -> NodeOutcome {
        self.run_observed(policy, battery, None, horizon, seed, Trace::disabled())
            .0
    }

    /// Like [`SensorNode::run`], but with full telemetry: an energy ledger
    /// across harvest/compute/transmit/idle, a per-epoch energy histogram,
    /// and (when `trace` is enabled) epoch spans and transmit instants on
    /// the simulated clock. An optional `harvester` recharges the battery
    /// each epoch, with the captured energy on the ledger's harvest layer.
    pub fn run_observed(
        &self,
        policy: NodePolicy,
        battery: Battery,
        harvester: Option<Harvester>,
        horizon: Seconds,
        seed: u64,
        trace: Trace,
    ) -> (NodeOutcome, NodeObservation) {
        let (out, obs, _) = self.run_inner(
            policy,
            battery,
            harvester,
            horizon,
            Epochs::new(&self.cfg, policy, seed),
            trace,
            &FaultPlan::new(),
        );
        (out, obs)
    }

    /// [`SensorNode::run`] with the radio exposed to a [`FaultPlan`]
    /// (component 0 = the radio). During a brownout the payload is
    /// buffered, a `PROBE_BITS`-bit probe is wasted discovering the dead
    /// link, and the backlog — bits and pending anomaly reports — flushes
    /// once the radio recovers; a slowdown multiplies transmit energy.
    /// With an empty plan this is bit-identical to the fault-free run.
    /// Fault times must stay under the `SimTime` horizon (~200 days).
    pub fn run_faulted(
        &self,
        policy: NodePolicy,
        battery: Battery,
        horizon: Seconds,
        seed: u64,
        plan: &FaultPlan,
    ) -> FaultedNodeOutcome {
        let (outcome, _, stats) = self.run_inner(
            policy,
            battery,
            None,
            horizon,
            Epochs::new(&self.cfg, policy, seed),
            Trace::disabled(),
            plan,
        );
        stats.outcome(outcome)
    }

    #[allow(clippy::too_many_arguments)] // the one shared body behind run/run_observed/run_faulted
    fn run_inner(
        &self,
        policy: NodePolicy,
        mut battery: Battery,
        mut harvester: Option<Harvester>,
        horizon: Seconds,
        mut epochs: Epochs,
        trace: Trace,
        plan: &FaultPlan,
    ) -> (NodeOutcome, NodeObservation, FaultStats) {
        let cfg = &self.cfg;
        let epoch_dt = Seconds(cfg.epoch_samples as f64 / cfg.sample_hz);
        let mut elapsed = 0.0f64;
        let mut bits_sent = 0u64;
        let mut anomaly_epochs = 0u64;
        let mut reported_anomaly_epochs = 0u64;
        // The ledger's components, posted once after the loop.
        let [mut harvest, mut compute, mut sleep, mut radio, mut probe] = [Tally::ZERO; 5];
        let mut epoch_energy = LogHistogram::new();
        let mut trace = trace;
        let mut faults = FaultInjector::new(plan, 1);
        let mut pending_bits = 0u64;
        let mut pending_reports = 0u64;
        let mut deferred = 0u64;
        let mut lived = 0u64;

        while elapsed < horizon.value() && !battery.dead() {
            lived += 1;
            if let Some(h) = harvester.as_mut() {
                let e_h = h.harvest(epoch_dt);
                battery.charge(e_h);
                harvest.add(e_h);
            }
            // SendRaw and CompressThenSend read only the anomaly mask, so
            // only the filter ever looks at the noise.
            let has_anomaly = epochs.advance();
            if has_anomaly {
                anomaly_epochs += 1;
            }

            // Baseline sampling cost (ADC + store): 10 ops/sample.
            let mut ops = 10 * cfg.epoch_samples as u64;
            let mut bits = 0u64;
            let mut reported = false;

            match policy {
                NodePolicy::SendRaw => {
                    bits = cfg.epoch_samples as u64 * cfg.bits_per_sample as u64;
                    reported = has_anomaly;
                }
                NodePolicy::FilterThenSend => {
                    ops += cfg.ops_per_sample_filter * cfg.epoch_samples as u64;
                    if epochs.detect() {
                        bits = cfg.epoch_samples as u64 * cfg.bits_per_sample as u64;
                        reported = has_anomaly;
                    }
                }
                NodePolicy::CompressThenSend => {
                    ops += cfg.ops_per_sample_compress * cfg.epoch_samples as u64;
                    bits = (cfg.epoch_samples as f64 * cfg.bits_per_sample as f64
                        / cfg.compression_ratio) as u64;
                    reported = has_anomaly;
                }
            }

            // Radio health at the epoch boundary; brownouts defer the
            // payload and cost a probe frame discovering the dead link.
            let now = SimTime::from_seconds(Seconds(elapsed));
            faults.advance(now);
            let radio_up = faults.is_up(RADIO, now);
            let mut tx_bits = 0u64;
            let mut e_probe = Energy::ZERO;
            if radio_up {
                tx_bits = bits + pending_bits;
                pending_bits = 0;
            } else if bits > 0 || pending_bits > 0 {
                pending_bits += bits;
                e_probe = self.radio.tx_energy(PROBE_BITS);
                deferred += 1;
            }

            let e_compute = self.mcu.compute_energy(ops);
            let e_radio = if tx_bits > 0 {
                self.radio.tx_energy(tx_bits) * faults.slowdown(RADIO, now)
            } else {
                Energy::ZERO
            };
            let e_sleep = self.mcu.sleep_power * epoch_dt;
            let e_total = e_compute + e_radio + e_sleep + e_probe;
            if !battery.draw(e_total) {
                break;
            }
            bits_sent += tx_bits;
            if reported && has_anomaly {
                if radio_up {
                    reported_anomaly_epochs += 1;
                } else {
                    pending_reports += 1;
                }
            }
            if radio_up && pending_reports > 0 {
                // The backlog just flushed: its anomaly reports arrive now.
                reported_anomaly_epochs += pending_reports;
                pending_reports = 0;
            }

            compute.add(e_compute);
            sleep.add(e_sleep);
            if tx_bits > 0 {
                radio.add(e_radio);
            }
            if e_probe.value() > 0.0 {
                probe.add(e_probe);
            }
            epoch_energy.add(e_total.value());
            if trace.is_enabled() {
                let t0 = SimTime::from_seconds(Seconds(elapsed));
                let t1 = SimTime::from_seconds(Seconds(elapsed + epoch_dt.value()));
                trace.span_args("epoch", "sensor", 0, t0, t1, &[("soc", battery.soc())]);
                if tx_bits > 0 {
                    trace.instant_args("tx", "sensor", 1, t1, &[("bits", tx_bits as f64)]);
                }
            }

            elapsed += epoch_dt.value();
        }
        // Fire any plan remainder so the accounting covers the whole plan.
        faults.advance(SimTime::MAX);
        let mut ledger = EnergyLedger::new();
        for (component, layer, t) in [
            ("harvester", Layer::Harvest, harvest),
            ("mcu_compute", Layer::Compute, compute),
            ("mcu_sleep", Layer::Idle, sleep),
            ("radio_tx", Layer::Network, radio),
            ("radio_probe", Layer::Network, probe),
        ] {
            ledger.charge_batch(component, layer, t.energy, t.events);
        }

        let outcome = NodeOutcome {
            lifetime: Seconds(elapsed),
            bits_sent,
            recall: if anomaly_epochs == 0 {
                1.0
            } else {
                reported_anomaly_epochs as f64 / anomaly_epochs as f64
            },
            radio_energy: radio.energy,
            compute_energy: compute.energy,
        };
        (
            outcome,
            NodeObservation {
                ledger,
                epoch_energy,
                trace,
            },
            FaultStats {
                epochs: lived,
                deferred,
                anomaly_epochs,
                reported_epochs: reported_anomaly_epochs,
                probe_energy: probe.energy,
                faults,
            },
        )
    }
}

/// One ledger component's charges in a run, summed in charge order from
/// zero so that one [`EnergyLedger::charge_batch`] posts them bit for bit.
/// The outcome's energies read the same sums: the epochs that add nothing
/// to a tally would have added an exact zero.
#[derive(Clone, Copy)]
struct Tally {
    energy: Energy,
    events: u64,
}

impl Tally {
    const ZERO: Tally = Tally {
        energy: Energy::ZERO,
        events: 0,
    };

    fn add(&mut self, e: Energy) {
        self.energy += e;
        self.events += 1;
    }
}

/// Fault-path bookkeeping threaded out of `run_inner`.
struct FaultStats {
    epochs: u64,
    deferred: u64,
    anomaly_epochs: u64,
    reported_epochs: u64,
    probe_energy: Energy,
    faults: FaultInjector,
}

impl FaultStats {
    /// [`SensorNode::run_faulted`]'s answer: the outcome plus the
    /// `sensor.*` and `fault.*` counters.
    fn outcome(self, outcome: NodeOutcome) -> FaultedNodeOutcome {
        let mut metrics = Metrics::new();
        metrics.count("sensor.epochs", self.epochs);
        metrics.count("sensor.deferred_epochs", self.deferred);
        metrics.count("sensor.anomaly_epochs", self.anomaly_epochs);
        metrics.count("sensor.reported_epochs", self.reported_epochs);
        self.faults.record(&mut metrics);
        FaultedNodeOutcome {
            outcome,
            deferred_epochs: self.deferred,
            probe_energy: self.probe_energy,
            metrics,
        }
    }
}

/// The epoch-seed chain: epoch `k` of a run draws its signal from the
/// `k`-th LCG step after the run seed.
fn next_epoch_seed(seed: u64) -> u64 {
    seed.wrapping_mul(6364136223846793005).wrapping_add(7)
}

/// A run's epochs in order, each answering `draw_into`'s `has_anomaly` and
/// (for the filter) the exact `detect` of its signal. Epochs are decided
/// [`LANES`] at a time by [`Detector::lanes`], ahead of the run; an epoch
/// the lanes leave open is redrawn alone and decided exactly. Epochs
/// decided ahead but never lived leave no trace: the run reads only the
/// epochs it advances to.
struct Epochs {
    gen: SignalGen,
    /// The policy reads `detect`, so the lanes run the screen.
    filter: bool,
    /// Decide epochs in lanes; off, each epoch is drawn and decided alone
    /// (the screen cannot run, so lanes would only draw each epoch twice).
    lanes: bool,
    isa: Isa,
    detector: Detector,
    draws: SignalDraws,
    /// The last seed of the chain handed out.
    seed: u64,
    batch: Batch,
    /// The current epoch's lane; `LANES - 1` before the first epoch.
    lane: usize,
}

/// One batch of [`LANES`] chained epochs.
#[derive(Debug, PartialEq)]
struct Batch {
    seeds: [u64; LANES],
    has_anomaly: [bool; LANES],
    /// `detect`, where the lanes settle it.
    fired: [Option<bool>; LANES],
}

impl Epochs {
    fn new(cfg: &SensorNodeConfig, policy: NodePolicy, seed: u64) -> Epochs {
        // Clinically interesting events are rare: ~5% of epochs.
        let gen = SignalGen {
            anomaly_rate: 0.0002,
            ..SignalGen::default()
        };
        let detector = Detector::new(&gen, cfg.epoch_samples, cfg.window, cfg.threshold);
        let filter = policy == NodePolicy::FilterThenSend;
        Epochs {
            filter,
            lanes: !filter || detector.screening,
            isa: Isa::detect(),
            detector,
            draws: gen.draws(),
            gen,
            seed,
            batch: Batch {
                seeds: [seed; LANES],
                has_anomaly: [false; LANES],
                fired: [None; LANES],
            },
            lane: LANES - 1,
        }
    }

    /// Step to the next epoch; returns whether its signal has an anomaly.
    fn advance(&mut self) -> bool {
        if !self.lanes {
            self.seed = next_epoch_seed(self.seed);
            return self
                .gen
                .draw_into(self.detector.n, self.seed, &mut self.draws);
        }
        self.lane = (self.lane + 1) % LANES;
        if self.lane == 0 {
            let seeds = std::array::from_fn(|_| {
                self.seed = next_epoch_seed(self.seed);
                self.seed
            });
            self.batch = self
                .detector
                .lanes(&self.gen, &self.draws, seeds, self.filter, self.isa);
        }
        self.batch.has_anomaly[self.lane]
    }

    /// The exact `detect` of the current epoch's signal.
    fn detect(&mut self) -> bool {
        if self.lanes {
            if let Some(fired) = self.batch.fired[self.lane] {
                return fired;
            }
            let seed = self.batch.seeds[self.lane];
            let any = self.gen.draw_into(self.detector.n, seed, &mut self.draws);
            debug_assert_eq!(any, self.batch.has_anomaly[self.lane]);
        }
        self.detector.detect(&self.gen, &self.draws)
    }
}

/// The instruction set [`Detector::lanes`] runs on, chosen once per run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    /// The target's baseline (SSE2 on x86-64).
    Plain,
    /// 256-bit vectors. Built only by [`Isa::available`], after the CPU
    /// reported AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// 512-bit vectors with a 64-bit rotate and native gathers. Built only
    /// by [`Isa::available`], after the CPU reported AVX-512F.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    /// Every build of the lane kernel this CPU runs, narrowest first.
    fn available() -> impl Iterator<Item = Isa> {
        #[cfg(target_arch = "x86_64")]
        let wide = [
            std::arch::is_x86_feature_detected!("avx2").then_some(Isa::Avx2),
            std::arch::is_x86_feature_detected!("avx512f").then_some(Isa::Avx512),
        ];
        #[cfg(not(target_arch = "x86_64"))]
        let wide: [Option<Isa>; 0] = [];
        std::iter::once(Isa::Plain).chain(wide.into_iter().flatten())
    }

    /// The widest instruction set the lane kernel has a build for:
    /// AVX-512F, else AVX2, else plain.
    fn detect() -> Isa {
        Isa::available().last().unwrap_or(Isa::Plain)
    }

    /// The target feature the build is compiled for.
    fn name(self) -> &'static str {
        match self {
            Isa::Plain => "plain",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => "avx512f",
        }
    }
}

/// The build of the lane kernel this CPU decides E10's epochs on:
/// `"avx512f"`, `"avx2"` or `"plain"`. Sensor timings differ by build.
pub fn lane_isa() -> &'static str {
    Isa::detect().name()
}

/// Moving-mean-of-squares anomaly detector: fires when any window's RMS
/// exceeds `threshold ×` the epoch RMS baseline.
fn detect(signal: &[f64], window: usize, threshold: f64) -> bool {
    let epoch_ms = signal.iter().map(|x| x * x).sum::<f64>() / signal.len() as f64;
    if epoch_ms == 0.0 {
        return false;
    }
    let mut acc = 0.0;
    for (i, x) in signal.iter().enumerate() {
        acc += x * x;
        if i >= window {
            acc -= signal[i - window] * signal[i - window];
        }
        let n = window.min(i + 1) as f64;
        if acc / n > threshold * threshold * epoch_ms {
            return true;
        }
    }
    false
}

/// Relative margin on the screen's cut-offs. Why: the screen bounds real
/// sums, but [`detect`] compares rounded f64 ones. Each of its running and
/// epoch sums errs by at most ~2n·ε·S, where S is the epoch's sum of
/// squares (no partial sum exceeds it), against a cut-off of at least
/// T·S/n (T = threshold²); the screen's own sums err alike, and each
/// squared sample by a few ε relative. So the cut-off moves by under
/// 8n²ε/T relative, which this margin covers while `8n²ε ≤ T·margin`
/// (E10's n = 250, T = 3.24: 1.1e-10 against 3.2e-7). Past that the screen
/// stands down and every epoch takes the exact transform.
const SCREEN_MARGIN: f64 = 1e-7;

/// [`detect`] for one epoch, decided from the epoch's draws wherever
/// bounds on its noise settle it; the exact transform is the fallback.
struct Detector {
    /// Samples per epoch.
    n: usize,
    window: usize,
    threshold: f64,
    bound: NoiseBound,
    /// Whether the rounding budget behind [`SCREEN_MARGIN`] holds.
    screening: bool,
    /// Prefix sums of per-sample lower and upper bounds on the squared
    /// signal.
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// The exact signal, for epochs the screen leaves open.
    signal: Vec<f64>,
    /// `lo`/`hi` for [`LANES`] epochs at once, one row per sample.
    lane_lo: Vec<[f64; LANES]>,
    lane_hi: Vec<[f64; LANES]>,
}

impl Detector {
    fn new(gen: &SignalGen, n: usize, window: usize, threshold: f64) -> Detector {
        let t = threshold * threshold;
        Detector {
            n,
            window,
            threshold,
            bound: gen.noise_bound(),
            screening: 8.0 * (n as f64).powi(2) * f64::EPSILON <= t * SCREEN_MARGIN,
            lo: Vec::with_capacity(n),
            hi: Vec::with_capacity(n),
            signal: Vec::with_capacity(n),
            lane_lo: Vec::new(),
            lane_hi: Vec::new(),
        }
    }

    /// Exactly `detect(signal)` for the signal `draws` transform into.
    fn detect(&mut self, gen: &SignalGen, draws: &SignalDraws) -> bool {
        match self.screen(draws) {
            Some(fired) => fired,
            None => {
                gen.signal_into(draws, &mut self.signal);
                detect(&self.signal, self.window, self.threshold)
            }
        }
    }

    /// `Some(detect(signal))` when the noise bounds prove the answer:
    /// some window's lowest mean square clears the highest cut-off, or
    /// every window's highest stays under the lowest. `None` otherwise.
    fn screen(&mut self, draws: &SignalDraws) -> Option<bool> {
        if !self.screening {
            return None;
        }
        let n = draws.clean().len();
        self.lo.resize(n, 0.0);
        self.hi.resize(n, 0.0);
        let (mut s_lo, mut s_hi) = (0.0, 0.0);
        let sums = self.lo.iter_mut().zip(&mut self.hi);
        for ((&c, &u), (lo_sum, hi_sum)) in draws.clean().iter().zip(draws.u()).zip(sums) {
            let b = self.bound.at(u);
            let lo = (c.abs() - b).max(0.0);
            let hi = c.abs() + b;
            s_lo += lo * lo;
            s_hi += hi * hi;
            (*lo_sum, *hi_sum) = (s_lo, s_hi);
        }
        // With prefix sums each window is one difference, independent of
        // the other windows.
        let (lo, hi) = (&self.lo, &self.hi);
        let t = self.threshold * self.threshold;
        let cut_lo = t * (s_lo / n as f64) * (1.0 - SCREEN_MARGIN);
        let cut_hi = t * (s_hi / n as f64) * (1.0 + SCREEN_MARGIN);
        let (mut above, mut below) = (false, true);
        // The first `window` windows start at sample 0 and grow.
        for (i, (&l, &h)) in lo.iter().zip(hi).take(self.window).enumerate() {
            let k = (i + 1) as f64;
            above |= l > cut_hi * k;
            below &= h <= cut_lo * k;
        }
        let w = self.window as f64;
        let (cut_lo_w, cut_hi_w) = (cut_lo * w, cut_hi * w);
        let full = lo
            .iter()
            .skip(self.window)
            .zip(lo)
            .zip(hi.iter().skip(self.window).zip(hi));
        for ((&l, &l0), (&h, &h0)) in full {
            above |= l - l0 > cut_hi_w;
            below &= h - h0 <= cut_lo_w;
        }
        if above {
            Some(true)
        } else {
            below.then_some(false)
        }
    }

    /// The [`Batch`] of the epochs drawn from `seeds`: each one's
    /// `has_anomaly`, exact, and, with `filter`, [`Detector::screen`]'s
    /// answer wherever the epoch has no anomaly. Runs on `isa`; every
    /// build returns the same bits.
    fn lanes(
        &mut self,
        gen: &SignalGen,
        draws: &SignalDraws,
        seeds: [u64; LANES],
        filter: bool,
        isa: Isa,
    ) -> Batch {
        match isa {
            Isa::Plain => self.lanes_body(gen, draws, seeds, filter),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Isa::Avx2` is built only after
            // `is_x86_feature_detected!("avx2")` held, so this CPU runs
            // AVX2 instructions.
            Isa::Avx2 => unsafe { self.lanes_avx2(gen, draws, seeds, filter) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Isa::Avx512` is built only after
            // `is_x86_feature_detected!("avx512f")` held, so this CPU runs
            // AVX-512F instructions.
            Isa::Avx512 => unsafe { self.lanes_avx512(gen, draws, seeds, filter) },
        }
    }

    /// [`Detector::lanes_body`] compiled for AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn lanes_avx2(
        &mut self,
        gen: &SignalGen,
        draws: &SignalDraws,
        seeds: [u64; LANES],
        filter: bool,
    ) -> Batch {
        self.lanes_body(gen, draws, seeds, filter)
    }

    /// [`Detector::lanes_body`] compiled for AVX-512F.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn lanes_avx512(
        &mut self,
        gen: &SignalGen,
        draws: &SignalDraws,
        seeds: [u64; LANES],
        filter: bool,
    ) -> Batch {
        self.lanes_body(gen, draws, seeds, filter)
    }

    /// [`Detector::lanes`]' one body, inlined into each build. Per lane it
    /// is [`Detector::screen`] step for step, over the `clean` and `u`
    /// that [`SignalGen::draw_lanes`] hands a lane without an anomaly.
    #[inline(always)]
    fn lanes_body(
        &mut self,
        gen: &SignalGen,
        draws: &SignalDraws,
        seeds: [u64; LANES],
        filter: bool,
    ) -> Batch {
        let n = self.n;
        let mut fired = [None; LANES];
        if !(filter && self.screening) {
            let has_anomaly = gen.draw_lanes(n, &seeds, draws, |_, _, _| {});
            return Batch {
                seeds,
                has_anomaly,
                fired,
            };
        }
        self.lane_lo.resize(n, [0.0; LANES]);
        self.lane_hi.resize(n, [0.0; LANES]);
        let (mut s_lo, mut s_hi) = ([0.0f64; LANES], [0.0f64; LANES]);
        let (bound, lane_lo, lane_hi) = (&self.bound, &mut self.lane_lo, &mut self.lane_hi);
        let has_anomaly = gen.draw_lanes(n, &seeds, draws, |i, c, u| {
            let c = c.abs();
            for l in 0..LANES {
                let b = bound.at(u[l]);
                let lo = (c - b).max(0.0);
                let hi = c + b;
                s_lo[l] += lo * lo;
                s_hi[l] += hi * hi;
            }
            (lane_lo[i], lane_hi[i]) = (s_lo, s_hi);
        });
        let (t, w) = (self.threshold * self.threshold, self.window as f64);
        let (mut cut_lo, mut cut_hi) = ([0.0; LANES], [0.0; LANES]);
        let (mut cut_lo_w, mut cut_hi_w) = ([0.0; LANES], [0.0; LANES]);
        for l in 0..LANES {
            cut_lo[l] = t * (s_lo[l] / n as f64) * (1.0 - SCREEN_MARGIN);
            cut_hi[l] = t * (s_hi[l] / n as f64) * (1.0 + SCREEN_MARGIN);
            (cut_lo_w[l], cut_hi_w[l]) = (cut_lo[l] * w, cut_hi[l] * w);
        }
        let (mut above, mut below) = ([false; LANES], [true; LANES]);
        for (i, (lo, hi)) in lane_lo
            .iter()
            .zip(lane_hi.iter())
            .take(self.window)
            .enumerate()
        {
            let k = (i + 1) as f64;
            for l in 0..LANES {
                above[l] |= lo[l] > cut_hi[l] * k;
                below[l] &= hi[l] <= cut_lo[l] * k;
            }
        }
        let full = lane_lo
            .iter()
            .skip(self.window)
            .zip(lane_lo.iter())
            .zip(lane_hi.iter().skip(self.window).zip(lane_hi.iter()));
        for ((lo, lo0), (hi, hi0)) in full {
            for l in 0..LANES {
                above[l] |= lo[l] - lo0[l] > cut_hi_w[l];
                below[l] &= hi[l] - hi0[l] <= cut_lo_w[l];
            }
        }
        for l in 0..LANES {
            if !has_anomaly[l] {
                fired[l] = if above[l] {
                    Some(true)
                } else {
                    below[l].then_some(false)
                };
            }
        }
        Batch {
            seeds,
            has_anomaly,
            fired,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radio::RadioTech;

    fn node() -> SensorNode {
        SensorNode::new(
            SensorNodeConfig::default(),
            Mcu::cortex_m_class(),
            Radio::new(RadioTech::BleClass),
        )
    }

    fn small_battery() -> Battery {
        Battery::new(Energy(1.0))
    }

    #[test]
    fn filtering_extends_lifetime_substantially() {
        // E10's headline: compute-then-send beats send-raw on lifetime.
        let n = node();
        let horizon = Seconds::from_hours(10_000.0);
        let raw = n.run(NodePolicy::SendRaw, small_battery(), horizon, 1);
        let filt = n.run(NodePolicy::FilterThenSend, small_battery(), horizon, 1);
        assert!(
            filt.lifetime.value() > 2.0 * raw.lifetime.value(),
            "filter {}h vs raw {}h",
            filt.lifetime.hours(),
            raw.lifetime.hours()
        );
        // And it's the radio that made the difference: bits per second of
        // lifetime drop by at least 5×.
        let raw_rate = raw.bits_sent as f64 / raw.lifetime.value();
        let filt_rate = filt.bits_sent as f64 / filt.lifetime.value();
        assert!(
            filt_rate < raw_rate / 5.0,
            "filt={filt_rate} raw={raw_rate}"
        );
    }

    #[test]
    fn compression_lands_between() {
        let n = node();
        let horizon = Seconds::from_hours(10_000.0);
        let raw = n.run(NodePolicy::SendRaw, small_battery(), horizon, 2);
        let comp = n.run(NodePolicy::CompressThenSend, small_battery(), horizon, 2);
        let filt = n.run(NodePolicy::FilterThenSend, small_battery(), horizon, 2);
        assert!(comp.lifetime.value() > raw.lifetime.value());
        assert!(comp.lifetime.value() < filt.lifetime.value());
    }

    #[test]
    fn filtering_keeps_high_recall() {
        // The saving must not come from dropping the medical events.
        let n = node();
        let filt = n.run(
            NodePolicy::FilterThenSend,
            Battery::new(Energy(2.0)),
            Seconds::from_hours(10_000.0),
            3,
        );
        assert!(filt.recall > 0.9, "recall={}", filt.recall);
    }

    #[test]
    fn radio_dominates_raw_policy_energy() {
        let n = node();
        let raw = n.run(
            NodePolicy::SendRaw,
            small_battery(),
            Seconds::from_hours(10_000.0),
            4,
        );
        assert!(
            raw.radio_energy.value() > 3.0 * raw.compute_energy.value(),
            "radio={} compute={}",
            raw.radio_energy,
            raw.compute_energy
        );
    }

    #[test]
    fn observed_run_matches_plain_run_and_accounts_energy() {
        let n = node();
        let horizon = Seconds::from_hours(1_000.0);
        let plain = n.run(NodePolicy::FilterThenSend, small_battery(), horizon, 6);
        let (out, obs) = n.run_observed(
            NodePolicy::FilterThenSend,
            small_battery(),
            None,
            horizon,
            6,
            Trace::disabled(),
        );
        // run() is run_observed() without a harvester: identical outcome.
        assert_eq!(out.lifetime.value(), plain.lifetime.value());
        assert_eq!(out.bits_sent, plain.bits_sent);
        // The ledger's compute/network layers equal the outcome's totals.
        assert!(
            (obs.ledger.layer_total(Layer::Compute).value() - out.compute_energy.value()).abs()
                < 1e-12
        );
        assert!(
            (obs.ledger.layer_total(Layer::Network).value() - out.radio_energy.value()).abs()
                < 1e-12
        );
        assert!(obs.ledger.layer_total(Layer::Idle).value() > 0.0);
        assert!(obs.epoch_energy.count() > 0);
    }

    #[test]
    fn harvesting_extends_lifetime_and_lands_on_the_ledger() {
        use crate::power::HarvestProfile;
        use xxi_core::units::Power;
        let n = node();
        let horizon = Seconds::from_hours(100.0);
        let (plain, _) = n.run_observed(
            NodePolicy::FilterThenSend,
            small_battery(),
            None,
            horizon,
            7,
            Trace::disabled(),
        );
        let h = Harvester::new(HarvestProfile::Constant, Power::from_uw(50.0), 100, 7);
        let (harvested, obs) = n.run_observed(
            NodePolicy::FilterThenSend,
            small_battery(),
            Some(h),
            horizon,
            7,
            Trace::disabled(),
        );
        assert!(harvested.lifetime.value() > plain.lifetime.value());
        assert!(obs.ledger.layer_total(Layer::Harvest).value() > 0.0);
        // Harvest is income: excluded from spend.
        assert!(obs.ledger.total_spent().value() > 0.0);
    }

    #[test]
    fn epoch_trace_has_spans_and_tx_instants() {
        let n = node();
        let (_, obs) = n.run_observed(
            NodePolicy::SendRaw,
            small_battery(),
            None,
            Seconds(100.0),
            8,
            Trace::enabled(),
        );
        assert!(!obs.trace.is_empty());
        let json = obs.trace.chrome_json();
        assert!(json.contains("\"epoch\""), "{json}");
        assert!(json.contains("\"tx\""), "{json}");
    }

    #[test]
    fn empty_plan_run_faulted_matches_run_bit_for_bit() {
        let n = node();
        let horizon = Seconds::from_hours(1_000.0);
        let plain = n.run(NodePolicy::FilterThenSend, small_battery(), horizon, 21);
        let faulted = n.run_faulted(
            NodePolicy::FilterThenSend,
            small_battery(),
            horizon,
            21,
            &FaultPlan::new(),
        );
        assert_eq!(
            plain.lifetime.value().to_bits(),
            faulted.outcome.lifetime.value().to_bits()
        );
        assert_eq!(plain.bits_sent, faulted.outcome.bits_sent);
        assert_eq!(
            plain.radio_energy.value().to_bits(),
            faulted.outcome.radio_energy.value().to_bits()
        );
        assert_eq!(faulted.deferred_epochs, 0);
        assert_eq!(faulted.probe_energy.value(), 0.0);
    }

    #[test]
    fn a_brownout_defers_bits_then_flushes_the_backlog() {
        use xxi_core::des::fault::Fault;
        let n = node();
        let horizon = Seconds(3_600.0);
        // Radio pauses (brownout) from t = 600 s for 1200 s.
        let mut plan = FaultPlan::new();
        plan.at(
            SimTime::from_seconds(Seconds(600.0)),
            0,
            Fault::Pause {
                for_time: SimTime::from_seconds(Seconds(1_200.0)),
            },
        );
        let free = n.run_faulted(
            NodePolicy::SendRaw,
            Battery::new(Energy(5.0)),
            horizon,
            22,
            &FaultPlan::new(),
        );
        let browned = n.run_faulted(
            NodePolicy::SendRaw,
            Battery::new(Energy(5.0)),
            horizon,
            22,
            &plan,
        );
        // SendRaw transmits every epoch, so every brownout epoch defers.
        assert!(browned.deferred_epochs > 100, "{}", browned.deferred_epochs);
        assert!(browned.probe_energy.value() > 0.0);
        // No bits are dropped — the backlog flushes after recovery — but
        // the probes drain the battery: same horizon, same bits, more
        // energy gone.
        assert_eq!(browned.outcome.bits_sent, free.outcome.bits_sent);
        assert_eq!(
            browned.metrics.counter("fault.scheduled"),
            browned.metrics.counter("fault.fired") + browned.metrics.counter("fault.cancelled")
        );
    }

    #[test]
    fn a_killed_radio_strands_the_backlog_and_recall() {
        use xxi_core::des::fault::Fault;
        let n = node();
        let horizon = Seconds::from_hours(100.0);
        let mut plan = FaultPlan::new();
        plan.at(SimTime::from_seconds(Seconds(60.0)), 0, Fault::Kill);
        let dead = n.run_faulted(
            NodePolicy::SendRaw,
            Battery::new(Energy(5.0)),
            horizon,
            23,
            &plan,
        );
        let free = n.run_faulted(
            NodePolicy::SendRaw,
            Battery::new(Energy(5.0)),
            horizon,
            23,
            &FaultPlan::new(),
        );
        // Everything after t=60 s is deferred forever.
        assert!(dead.outcome.bits_sent < free.outcome.bits_sent / 10);
        assert!(dead.deferred_epochs > 0);
        // Anomalies after the kill are never reported.
        assert!(
            dead.outcome.recall < 1.0 || dead.metrics.counter("sensor.anomaly_epochs") == 0,
            "recall={}",
            dead.outcome.recall
        );
    }

    /// Chains `epochs` epoch seeds as `run_inner` does and checks the draw
    /// phase and the screen against `generate` and the exact `detect`.
    /// Returns `(decided, open)`: epochs the screen settled / left open.
    fn check_screen(epochs: u64, rate: f64, seed: u64) -> (u64, u64) {
        let cfg = SensorNodeConfig::default();
        let gen = SignalGen {
            anomaly_rate: rate,
            ..SignalGen::default()
        };
        let mut draws = gen.draws();
        let mut det = Detector::new(&gen, cfg.epoch_samples, cfg.window, cfg.threshold);
        assert!(
            det.screening,
            "E10's configuration is inside the rounding budget"
        );
        let (mut decided, mut open) = (0, 0);
        let mut epoch_seed = seed;
        for _ in 0..epochs {
            epoch_seed = next_epoch_seed(epoch_seed);
            let any = gen.draw_into(cfg.epoch_samples, epoch_seed, &mut draws);
            let (signal, mask) = gen.generate(cfg.epoch_samples, epoch_seed);
            assert_eq!(any, mask.iter().any(|&m| m), "epoch seed {epoch_seed}");
            let exact = detect(&signal, cfg.window, cfg.threshold);
            match det.screen(&draws) {
                Some(fired) => {
                    assert_eq!(fired, exact, "rate {rate}, epoch seed {epoch_seed}");
                    decided += 1;
                }
                None => open += 1,
            }
            assert_eq!(det.detect(&gen, &draws), exact);
        }
        (decided, open)
    }

    fn screen_sweep(epochs: u64) {
        let mut open_total = 0;
        for (i, rate) in [0.0, 0.0002, 0.002, 0.02].into_iter().enumerate() {
            let (decided, open) = check_screen(epochs, rate, i as u64 + 1);
            eprintln!(
                "rate {rate}: screen decided {decided} of {epochs} epochs ({:.2}%)",
                100.0 * decided as f64 / epochs as f64
            );
            open_total += open;
        }
        assert!(open_total > 0, "the exact fallback never ran");
    }

    #[test]
    fn screen_agrees_with_exact_detect() {
        screen_sweep(100_000);
    }

    #[test]
    #[ignore = "4M epochs per rate; CI runs it in release with --include-ignored"]
    fn screen_agrees_with_exact_detect_large() {
        screen_sweep(4_000_000);
    }

    /// Decides `batches` batches of chained epochs of `n` samples in lanes
    /// on every build this CPU runs ([`Isa::available`]), which must all
    /// agree bit for bit with the plain one, and checks each lane
    /// against `draw_into` and the exact `detect`: `has_anomaly` always,
    /// `detect` wherever the lanes settle it, and the lane screen against
    /// the scalar one on lanes without an anomaly. Returns the epochs left
    /// open.
    fn check_lanes(batches: u64, rate: f64, n: usize, seed: u64) -> u64 {
        let cfg = SensorNodeConfig::default();
        let gen = SignalGen {
            anomaly_rate: rate,
            ..SignalGen::default()
        };
        let (table, mut draws) = (gen.draws(), gen.draws());
        let mut det = Detector::new(&gen, n, cfg.window, cfg.threshold);
        assert!(det.screening);
        let mut signal = Vec::new();
        let mut open = 0;
        let mut epoch_seed = seed;
        for _ in 0..batches {
            let seeds = std::array::from_fn(|_| {
                epoch_seed = next_epoch_seed(epoch_seed);
                epoch_seed
            });
            let batch = det.lanes(&gen, &table, seeds, true, Isa::Plain);
            for isa in Isa::available() {
                let at = format!("{isa:?}, rate {rate}, n {n}, seeds {seeds:?}");
                assert_eq!(det.lanes(&gen, &table, seeds, true, isa), batch, "{at}");
                let bare = det.lanes(&gen, &table, seeds, false, isa);
                assert_eq!(bare.seeds, seeds, "{at}");
                assert_eq!(bare.has_anomaly, batch.has_anomaly, "{at}");
                assert_eq!(
                    bare.fired, [None; LANES],
                    "{at}: no screen without the filter"
                );
            }
            for (l, &epoch_seed) in seeds.iter().enumerate() {
                let at = format!("rate {rate}, n {n}, epoch seed {epoch_seed}");
                let any = gen.draw_into(n, epoch_seed, &mut draws);
                assert_eq!(batch.has_anomaly[l], any, "{at}");
                if any {
                    assert_eq!(batch.fired[l], None, "{at}");
                } else {
                    assert_eq!(batch.fired[l], det.screen(&draws), "{at}");
                }
                gen.signal_into(&draws, &mut signal);
                let exact = detect(&signal, cfg.window, cfg.threshold);
                match batch.fired[l] {
                    Some(fired) => assert_eq!(fired, exact, "{at}"),
                    None => open += 1,
                }
            }
        }
        open
    }

    /// [`check_lanes`] at every anomaly rate and each of `sizes`.
    fn lanes_sweep(batches: u64, sizes: &[usize]) {
        eprintln!("lane builds: {:?}", Isa::available().collect::<Vec<_>>());
        let mut open = 0;
        for (i, rate) in [0.0, 0.0002, 0.002, 0.02].into_iter().enumerate() {
            for &n in sizes {
                open += check_lanes(batches, rate, n, i as u64 + 1);
            }
        }
        assert!(open > 0, "the exact fallback never ran");
    }

    /// At 250 samples (E10's) and 77: neither is a multiple of the lane
    /// count or the carrier period. At 5, no window is full.
    #[test]
    fn lanes_agree_with_draw_into_and_exact_detect() {
        lanes_sweep(1_000, &[250, 77, 5]);
    }

    #[test]
    #[ignore = "4M epochs per rate; CI runs it in release with --include-ignored"]
    fn lanes_agree_with_draw_into_and_exact_detect_large() {
        lanes_sweep(4_000_000 / LANES as u64, &[250]);
    }

    /// `run_inner` with every epoch drawn and decided on its own: the
    /// one-epoch-at-a-time loop the lanes must reproduce.
    fn one_at_a_time(
        n: &SensorNode,
        policy: NodePolicy,
        battery: Battery,
        harvester: Option<Harvester>,
        seed: u64,
        plan: &FaultPlan,
    ) -> (NodeOutcome, NodeObservation, FaultStats) {
        let mut epochs = Epochs::new(&n.cfg, policy, seed);
        epochs.lanes = false;
        let horizon = Seconds::from_hours(1_000.0);
        n.run_inner(
            policy,
            battery,
            harvester,
            horizon,
            epochs,
            Trace::disabled(),
            plan,
        )
    }

    #[test]
    fn lanes_match_one_epoch_at_a_time_wherever_the_node_dies() {
        use crate::power::HarvestProfile;
        use xxi_core::des::fault::Fault;
        use xxi_core::units::Power;
        let n = node();
        let horizon = Seconds::from_hours(1_000.0);
        let epoch_s = n.cfg.epoch_samples as f64 / n.cfg.sample_hz;
        let mut kill = FaultPlan::new();
        kill.at(
            SimTime::from_seconds(Seconds(20.0 * epoch_s)),
            0,
            Fault::Kill,
        );
        let harvester = Harvester::new(HarvestProfile::Constant, Power::from_uw(1.0), 10, 5);
        let empty = FaultPlan::new();
        let seed = 31;
        let same = |what: &str, a: String, b: String| assert_eq!(a, b, "{what}");
        for policy in [
            NodePolicy::SendRaw,
            NodePolicy::CompressThenSend,
            NodePolicy::FilterThenSend,
        ] {
            // Grow the battery by the cheapest epoch's spend per step, so the
            // node dies one epoch later at most, until it has died in every
            // lane of a batch.
            let (_, obs, _) = one_at_a_time(&n, policy, small_battery(), None, seed, &empty);
            let step = obs.epoch_energy.min();
            let mut died_at_lane = [false; LANES];
            for k in 16.. {
                if died_at_lane == [true; LANES] {
                    break;
                }
                assert!(k < 1_000, "{policy:?}: died only at lanes {died_at_lane:?}");
                let battery = Battery::new(Energy(step * (k as f64 + 0.5)));
                let at = format!("{policy:?}, battery for {k} epochs");
                let (out, _, stats) =
                    one_at_a_time(&n, policy, battery.clone(), None, seed, &empty);
                assert!(
                    out.lifetime.value() < horizon.value(),
                    "{at}: outlived the horizon"
                );
                died_at_lane[(stats.epochs as usize - 1) % LANES] = true;
                let run = n.run(policy, battery.clone(), horizon, seed);
                same(&at, format!("{run:?}"), format!("{out:?}"));

                let (out, obs, _) = one_at_a_time(
                    &n,
                    policy,
                    battery.clone(),
                    Some(harvester.clone()),
                    seed,
                    &empty,
                );
                let observed = n.run_observed(
                    policy,
                    battery.clone(),
                    Some(harvester.clone()),
                    horizon,
                    seed,
                    Trace::disabled(),
                );
                same(&at, format!("{observed:?}"), format!("{:?}", (out, obs)));

                for plan in [&empty, &kill] {
                    let (out, _, stats) =
                        one_at_a_time(&n, policy, battery.clone(), None, seed, plan);
                    let faulted = n.run_faulted(policy, battery.clone(), horizon, seed, plan);
                    same(
                        &at,
                        format!("{faulted:?}"),
                        format!("{:?}", stats.outcome(out)),
                    );
                }
            }
        }
    }

    #[test]
    fn screen_stands_down_outside_its_rounding_budget() {
        let gen = SignalGen::default();
        let mut draws = gen.draws();
        gen.draw_into(250, 1, &mut draws);
        // A zero threshold leaves no room for the margin.
        let mut det = Detector::new(&gen, 250, 8, 0.0);
        assert_eq!(det.screen(&draws), None);
        let (signal, _) = gen.generate(250, 1);
        assert_eq!(det.detect(&gen, &draws), detect(&signal, 8, 0.0));
        // Nor do the lanes screen, so a filter run decides each epoch alone.
        for isa in Isa::available() {
            let batch = det.lanes(&gen, &draws, [1; LANES], true, isa);
            assert_eq!(batch.fired, [None; LANES]);
        }
        let cfg = SensorNodeConfig {
            threshold: 0.0,
            ..SensorNodeConfig::default()
        };
        assert!(!Epochs::new(&cfg, NodePolicy::FilterThenSend, 1).lanes);
        assert!(Epochs::new(&cfg, NodePolicy::SendRaw, 1).lanes);
    }

    #[test]
    fn horizon_caps_simulation() {
        let n = node();
        let out = n.run(
            NodePolicy::FilterThenSend,
            Battery::coin_cell(),
            Seconds(10.0),
            5,
        );
        assert!(out.lifetime.value() <= 10.0 + 1.1);
    }
}
