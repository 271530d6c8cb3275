//! Deterministic fault injection for DES models.
//!
//! §2.1 and §2.4 of the paper share a premise: 21st-century systems must
//! hold their latency and availability targets *while the hardware
//! underneath fails*. A simulation that only models healthy components
//! cannot test that, so this module is the seam every DES model can plug
//! faults through:
//!
//! * a [`FaultPlan`] is a schedule of faults — kill, pause, slow, or
//!   restore a numbered component at a chosen sim-time. Plans are built
//!   by hand ([`FaultPlan::at`]) or generated from a seed
//!   ([`FaultPlan::seeded`]), and a given `(seed, horizon, components,
//!   rate, mix)` always yields the same plan;
//! * a [`Topology`] maps components to failure scopes (racks, switches,
//!   power domains) so [`FaultPlan::correlated`] can draw *scope-level*
//!   faults that strike every component sharing the scope at the same
//!   instant — the blast-radius failure mode independent per-component
//!   draws can never produce;
//! * a [`FaultInjector`] executes the plan as simulated time advances:
//!   the owning model calls [`FaultInjector::advance`] with the DES clock
//!   and queries [`FaultInjector::is_up`] / [`FaultInjector::slowdown`]
//!   when dispatching work;
//! * every planned fault is accounted for — `scheduled == fired +
//!   cancelled` is an invariant (a fault aimed at an already-dead
//!   component is *cancelled*, not silently dropped) — and the counts
//!   surface through [`FaultInjector::record`] into a
//!   [`Metrics`] registry.
//!
//! The injector is deliberately independent of [`Sim`](crate::des::Sim):
//! it never schedules events itself, so any model (cluster serving,
//! NoC, sensor fleet) can adopt it without changing its event structure.

use crate::metrics::Metrics;
use crate::rng::Rng64;
use crate::time::SimTime;

/// Index of a simulated component (replica, router, node, …).
pub type CompId = u32;

/// One kind of injected fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// Permanent crash: the component never responds again (until an
    /// explicit [`Fault::Restore`]).
    Kill,
    /// Unresponsive for `for_time`, then back to normal — a reboot, a
    /// long GC pause, a network partition.
    Pause {
        /// How long the component stays unresponsive.
        for_time: SimTime,
    },
    /// Still responsive, but service takes `factor`× as long for
    /// `for_time` — a degraded disk, a throttled CPU, a noisy neighbor.
    Slow {
        /// Service-time multiplier (> 1 slows the component down).
        factor: f64,
        /// How long the slowdown lasts.
        for_time: SimTime,
    },
    /// Repair intervention: clears any standing Kill/Pause/Slow.
    Restore,
}

/// One fault scheduled against one component at one sim-time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlannedFault {
    /// When the fault strikes.
    pub at: SimTime,
    /// Which component it strikes.
    pub comp: CompId,
    /// What happens to it.
    pub fault: Fault,
}

/// Relative weights for the fault kinds a seeded plan draws from.
#[derive(Clone, Copy, Debug)]
pub struct FaultMix {
    /// Weight of [`Fault::Kill`].
    pub kill: f64,
    /// Weight of [`Fault::Pause`] (duration drawn in [`FaultMix::pause_ms`]).
    pub pause: f64,
    /// Weight of [`Fault::Slow`].
    pub slow: f64,
    /// Pause duration range (ms), uniform.
    pub pause_ms: (f64, f64),
    /// Slowdown factor range, uniform.
    pub slow_factor: (f64, f64),
    /// Slowdown duration range (ms), uniform.
    pub slow_ms: (f64, f64),
}

impl FaultMix {
    /// Kills only — the crash-failure model of the availability
    /// literature.
    pub fn kills_only() -> FaultMix {
        FaultMix {
            kill: 1.0,
            pause: 0.0,
            slow: 0.0,
            pause_ms: (10.0, 50.0),
            slow_factor: (2.0, 8.0),
            slow_ms: (10.0, 100.0),
        }
    }

    /// A gray-failure storm: mostly pauses and slowdowns, some crashes —
    /// the hard case for tail-latency SLOs.
    pub fn gray() -> FaultMix {
        FaultMix {
            kill: 0.2,
            pause: 0.4,
            slow: 0.4,
            pause_ms: (10.0, 50.0),
            slow_factor: (2.0, 8.0),
            slow_ms: (10.0, 100.0),
        }
    }
}

/// Component → failure-scope map: which components share a rack, a
/// top-of-rack switch, a power domain — anything that fails as a unit.
///
/// Scopes are numbered `0..scopes()`; every component belongs to exactly
/// one. [`FaultPlan::correlated`] draws faults per *scope* and expands
/// them to every member, so a "rack kill" takes out all its components
/// at one instant.
#[derive(Clone, Debug, PartialEq)]
pub struct Topology {
    /// `scope_of[comp]` is the failure scope of component `comp`.
    scope_of: Vec<u32>,
    scopes: u32,
}

impl Topology {
    /// Build from an explicit component → scope map. Scope ids must be
    /// dense (`0..=max`); a gap means a scope no fault can ever strike.
    pub fn new(scope_of: Vec<u32>) -> Topology {
        assert!(!scope_of.is_empty(), "a topology needs components");
        let scopes = scope_of.iter().max().unwrap() + 1; // xxi-allow: panic-path -- non-empty is asserted above
        Topology { scope_of, scopes }
    }

    /// Every component in its own scope — correlated draws degenerate to
    /// independent per-component faults (the budget-matched baseline).
    pub fn flat(components: u32) -> Topology {
        Topology {
            scope_of: (0..components).collect(),
            scopes: components,
        }
    }

    /// Striped assignment: component `c` lands in scope `c % scopes`.
    /// With components numbered shard-major (replica `r` of shard `s` is
    /// `s * replicas + r`), `striped(components, replicas)` puts replica
    /// column `r` of every shard in rack `r` — the classic
    /// one-replica-per-rack placement.
    pub fn striped(components: u32, scopes: u32) -> Topology {
        assert!(scopes > 0 && scopes <= components);
        Topology {
            scope_of: (0..components).map(|c| c % scopes).collect(),
            scopes,
        }
    }

    /// Contiguous blocks of `per_scope` components per scope — nodes
    /// racked in order.
    pub fn blocks(components: u32, per_scope: u32) -> Topology {
        assert!(per_scope > 0);
        let scopes = components.div_ceil(per_scope);
        Topology {
            scope_of: (0..components).map(|c| c / per_scope).collect(),
            scopes,
        }
    }

    /// Number of components mapped.
    pub fn components(&self) -> u32 {
        self.scope_of.len() as u32
    }

    /// Number of failure scopes.
    pub fn scopes(&self) -> u32 {
        self.scopes
    }

    /// Scope of component `comp`.
    pub fn scope_of(&self, comp: CompId) -> u32 {
        self.scope_of[comp as usize]
    }

    /// Components in `scope`, in component order.
    pub fn members(&self, scope: u32) -> Vec<CompId> {
        (0..self.components())
            .filter(|&c| self.scope_of[c as usize] == scope)
            .collect()
    }
}

/// A deterministic schedule of faults, sorted by strike time.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<PlannedFault>,
}

impl FaultPlan {
    /// An empty plan (the fault-free baseline).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedule `fault` against `comp` at sim-time `at`.
    pub fn at(&mut self, at: SimTime, comp: CompId, fault: Fault) -> &mut FaultPlan {
        self.events.push(PlannedFault { at, comp, fault });
        self
    }

    /// Schedule `fault` against every member of `scope` at sim-time
    /// `at` — a hand-built blast: one rack, one instant, all of it.
    pub fn at_scope(
        &mut self,
        at: SimTime,
        topo: &Topology,
        scope: u32,
        fault: Fault,
    ) -> &mut FaultPlan {
        for comp in topo.members(scope) {
            self.at(at, comp, fault);
        }
        self
    }

    /// Generate a seeded plan: exactly `ceil(rate * components)` faults
    /// (zero when `rate == 0`), each striking a component drawn uniformly
    /// at a time drawn uniformly in `[0, horizon)`, with kinds drawn from
    /// `mix`. A pure function of its arguments — the same plan on every
    /// host, executor, and thread count.
    ///
    /// Expressing the rate as *faults per component* (a "1% leaf-kill
    /// rate" is `rate = 0.01`) keeps the injected count deterministic
    /// instead of Bernoulli-noisy, so sweeps and regression tests see the
    /// exact fault load they asked for.
    pub fn seeded(
        seed: u64,
        horizon: SimTime,
        components: u32,
        rate: f64,
        mix: FaultMix,
    ) -> FaultPlan {
        assert!(components > 0, "a plan needs components to strike");
        assert!((0.0..=1.0).contains(&rate), "rate is faults per component");
        let faults = (rate * components as f64).ceil() as usize * usize::from(rate > 0.0);
        let mut rng = Rng64::stream(seed, 0xFA_017);
        let mut plan = FaultPlan::new();
        for _ in 0..faults {
            let at = SimTime::from_ps(rng.below(horizon.ps().max(1)));
            let comp = rng.below(components as u64) as CompId;
            let fault = draw_fault(&mut rng, &mix);
            plan.at(at, comp, fault);
        }
        plan
    }

    /// Generate a seeded *correlated* plan: exactly `ceil(rate *
    /// topo.scopes())` scope-level faults (zero when `rate == 0`), each
    /// striking a scope drawn uniformly at a time drawn uniformly in
    /// `[0, horizon)`, with kinds drawn from `mix` — then expanded into
    /// one [`PlannedFault`] per member of the scope, all sharing the
    /// same instant and the same fault. Per-component accounting
    /// (`scheduled == fired + cancelled`) is preserved because the
    /// expansion is ordinary planned faults, one per component.
    ///
    /// Drawn from its own RNG substream, disjoint from
    /// [`FaultPlan::seeded`]'s, so a model can layer both plans from one
    /// root seed without the draws colliding.
    pub fn correlated(
        seed: u64,
        horizon: SimTime,
        topo: &Topology,
        rate: f64,
        mix: FaultMix,
    ) -> FaultPlan {
        assert!((0.0..=1.0).contains(&rate), "rate is faults per scope");
        let faults = (rate * topo.scopes() as f64).ceil() as usize * usize::from(rate > 0.0);
        let mut rng = Rng64::stream(seed, 0xFA_C08);
        let mut plan = FaultPlan::new();
        for _ in 0..faults {
            let at = SimTime::from_ps(rng.below(horizon.ps().max(1)));
            let scope = rng.below(topo.scopes() as u64) as u32;
            let fault = draw_fault(&mut rng, &mix);
            plan.at_scope(at, topo, scope, fault);
        }
        plan
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The planned faults, in insertion order.
    pub fn events(&self) -> &[PlannedFault] {
        &self.events
    }
}

/// Draw one fault kind from `mix` — shared by [`FaultPlan::seeded`] and
/// [`FaultPlan::correlated`] so both consume the mix identically.
fn draw_fault(rng: &mut Rng64, mix: &FaultMix) -> Fault {
    let total = mix.kill + mix.pause + mix.slow;
    assert!(total > 0.0, "fault mix must have positive weight");
    let pick = rng.next_f64() * total;
    if pick < mix.kill {
        Fault::Kill
    } else if pick < mix.kill + mix.pause {
        let (lo, hi) = mix.pause_ms;
        Fault::Pause {
            for_time: SimTime::from_ms_f64(rng.range_f64(lo, hi)),
        }
    } else {
        Fault::Slow {
            factor: rng.range_f64(mix.slow_factor.0, mix.slow_factor.1),
            for_time: SimTime::from_ms_f64(rng.range_f64(mix.slow_ms.0, mix.slow_ms.1)),
        }
    }
}

/// Health of one component at one instant.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Status {
    Up,
    Dead,
    Paused { until: SimTime },
    Slowed { factor: f64, until: SimTime },
}

/// Executes a [`FaultPlan`] against `components` numbered components as
/// simulated time advances. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct FaultInjector {
    /// Plan events sorted by (time, insertion order).
    plan: Vec<PlannedFault>,
    next: usize,
    status: Vec<Status>,
    fired: u64,
    cancelled: u64,
    /// Fired work-losing faults (Kill/Pause) per component — models use
    /// the delta across an interval to detect "the server crashed while
    /// this job was resident".
    disruptions: Vec<u64>,
    total_disruptions: u64,
}

impl FaultInjector {
    /// Arm `plan` over components `0..components`. Faults aimed outside
    /// that range are a plan bug and panic at `advance` time.
    pub fn new(plan: &FaultPlan, components: u32) -> FaultInjector {
        let mut sorted: Vec<(usize, &PlannedFault)> = plan.events.iter().enumerate().collect();
        sorted.sort_by_key(|(i, f)| (f.at, *i));
        FaultInjector {
            plan: sorted.into_iter().map(|(_, f)| *f).collect(),
            next: 0,
            status: vec![Status::Up; components as usize],
            fired: 0,
            cancelled: 0,
            disruptions: vec![0; components as usize],
            total_disruptions: 0,
        }
    }

    /// Fire every planned fault due at or before `now`. Callers invoke
    /// this with the DES clock before querying component health; calling
    /// it more than once per instant is harmless.
    pub fn advance(&mut self, now: SimTime) {
        while let Some(f) = self.plan.get(self.next) {
            if f.at > now {
                break;
            }
            let f = *f;
            self.next += 1;
            self.apply(f);
        }
    }

    fn apply(&mut self, f: PlannedFault) {
        let s = &mut self.status[f.comp as usize];
        // A fault aimed at a dead component changes nothing: count it as
        // cancelled so the accounting invariant stays exact. Restore is
        // the exception — repair is precisely for dead components.
        if *s == Status::Dead && f.fault != Fault::Restore {
            self.cancelled += 1;
            return;
        }
        *s = match f.fault {
            Fault::Kill => Status::Dead,
            Fault::Pause { for_time } => Status::Paused {
                until: f.at.saturating_add(for_time),
            },
            Fault::Slow { factor, for_time } => Status::Slowed {
                factor,
                until: f.at.saturating_add(for_time),
            },
            Fault::Restore => Status::Up,
        };
        self.fired += 1;
        if matches!(f.fault, Fault::Kill | Fault::Pause { .. }) {
            self.disruptions[f.comp as usize] += 1;
            self.total_disruptions += 1;
        }
    }

    /// True when `comp` accepts and answers requests at `now` (a pause
    /// whose window has passed counts as recovered).
    pub fn is_up(&self, comp: CompId, now: SimTime) -> bool {
        match self.status[comp as usize] {
            Status::Up | Status::Slowed { .. } => true,
            Status::Dead => false,
            Status::Paused { until } => now >= until,
        }
    }

    /// Service-time multiplier for `comp` at `now` (1.0 when healthy).
    pub fn slowdown(&self, comp: CompId, now: SimTime) -> f64 {
        match self.status[comp as usize] {
            Status::Slowed { factor, until } if now < until => factor,
            _ => 1.0,
        }
    }

    /// Earliest instant ≥ `now` at which `comp` answers requests:
    /// `Some(now)` when up, the pause expiry when paused, `None` when
    /// dead (no planned recovery before another `advance`).
    pub fn up_at(&self, comp: CompId, now: SimTime) -> Option<SimTime> {
        match self.status[comp as usize] {
            Status::Up | Status::Slowed { .. } => Some(now),
            Status::Dead => None,
            Status::Paused { until } => Some(if now >= until { now } else { until }),
        }
    }

    /// Fired work-losing faults (Kill/Pause) against `comp` so far.
    /// Comparing the value before and after an interval tells a model
    /// whether the component crashed while its work was resident.
    pub fn disruptions(&self, comp: CompId) -> u64 {
        self.disruptions[comp as usize]
    }

    /// Fired work-losing faults across all components. A correlated
    /// scope fault contributes one per member, all at the same instant.
    pub fn total_disruptions(&self) -> u64 {
        self.total_disruptions
    }

    /// Faults in the plan.
    pub fn scheduled(&self) -> u64 {
        self.plan.len() as u64
    }

    /// Faults that took effect.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Faults that struck an already-dead component.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Surface the accounting into `m` as `fault.scheduled`,
    /// `fault.fired`, and `fault.cancelled` counters.
    pub fn record(&self, m: &mut Metrics) {
        m.count("fault.scheduled", self.scheduled());
        m.count("fault.fired", self.fired);
        m.count("fault.cancelled", self.cancelled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimTime {
        SimTime::from_ms(x)
    }

    #[test]
    fn kill_is_permanent_and_pause_expires() {
        let mut plan = FaultPlan::new();
        plan.at(ms(10), 0, Fault::Kill);
        plan.at(ms(10), 1, Fault::Pause { for_time: ms(5) });
        let mut inj = FaultInjector::new(&plan, 2);
        inj.advance(ms(9));
        assert!(inj.is_up(0, ms(9)) && inj.is_up(1, ms(9)));
        inj.advance(ms(10));
        assert!(!inj.is_up(0, ms(10)));
        assert!(!inj.is_up(1, ms(12)), "paused inside the window");
        assert!(inj.is_up(1, ms(15)), "pause expires on its own");
        assert!(!inj.is_up(0, ms(1000)), "kill never expires");
    }

    #[test]
    fn slow_multiplies_then_expires() {
        let mut plan = FaultPlan::new();
        plan.at(
            ms(5),
            0,
            Fault::Slow {
                factor: 4.0,
                for_time: ms(10),
            },
        );
        let mut inj = FaultInjector::new(&plan, 1);
        inj.advance(ms(20));
        assert!(inj.is_up(0, ms(6)), "slowed components still answer");
        assert_eq!(inj.slowdown(0, ms(6)), 4.0);
        assert_eq!(inj.slowdown(0, ms(15)), 1.0, "slowdown expired");
    }

    #[test]
    fn restore_repairs_a_dead_component() {
        let mut plan = FaultPlan::new();
        plan.at(ms(1), 0, Fault::Kill);
        plan.at(ms(2), 0, Fault::Restore);
        let mut inj = FaultInjector::new(&plan, 1);
        inj.advance(ms(3));
        assert!(inj.is_up(0, ms(3)));
        assert_eq!(inj.fired(), 2);
        assert_eq!(inj.cancelled(), 0);
    }

    #[test]
    fn faults_on_dead_components_are_cancelled_not_lost() {
        let mut plan = FaultPlan::new();
        plan.at(ms(1), 0, Fault::Kill);
        plan.at(ms(2), 0, Fault::Kill);
        plan.at(ms(3), 0, Fault::Pause { for_time: ms(1) });
        let mut inj = FaultInjector::new(&plan, 1);
        inj.advance(ms(10));
        assert_eq!(inj.scheduled(), 3);
        assert_eq!(inj.fired(), 1);
        assert_eq!(inj.cancelled(), 2);
    }

    #[test]
    fn advance_fires_in_time_order_regardless_of_insertion() {
        let mut plan = FaultPlan::new();
        plan.at(ms(5), 0, Fault::Restore); // inserted first, fires second
        plan.at(ms(1), 0, Fault::Kill);
        let mut inj = FaultInjector::new(&plan, 1);
        inj.advance(ms(10));
        assert!(inj.is_up(0, ms(10)), "restore fired after the kill");
        assert_eq!(inj.fired(), 2);
    }

    #[test]
    fn seeded_plans_are_pure_functions_of_their_arguments() {
        let a = FaultPlan::seeded(7, ms(1000), 60, 0.1, FaultMix::gray());
        let b = FaultPlan::seeded(7, ms(1000), 60, 0.1, FaultMix::gray());
        assert_eq!(a.events(), b.events());
        let c = FaultPlan::seeded(8, ms(1000), 60, 0.1, FaultMix::gray());
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn seeded_plan_injects_the_exact_count_asked_for() {
        assert_eq!(
            FaultPlan::seeded(1, ms(100), 60, 0.01, FaultMix::kills_only()).len(),
            1,
            "ceil(0.01 * 60) = 1, deterministically"
        );
        assert_eq!(
            FaultPlan::seeded(1, ms(100), 60, 0.1, FaultMix::kills_only()).len(),
            6
        );
        assert!(FaultPlan::seeded(1, ms(100), 60, 0.0, FaultMix::gray()).is_empty());
    }

    #[test]
    fn seeded_kills_only_mix_produces_only_kills() {
        let plan = FaultPlan::seeded(3, ms(500), 20, 0.5, FaultMix::kills_only());
        assert!(plan.events().iter().all(|f| f.fault == Fault::Kill));
    }

    #[test]
    fn accounting_is_conserved_over_random_plans() {
        // Property: for any seeded plan, once the whole plan has fired,
        // scheduled == fired + cancelled.
        for seed in 0..50 {
            for mix in [FaultMix::kills_only(), FaultMix::gray()] {
                let plan = FaultPlan::seeded(seed, ms(1000), 16, 0.9, mix);
                let mut inj = FaultInjector::new(&plan, 16);
                inj.advance(SimTime::MAX);
                assert_eq!(
                    inj.scheduled(),
                    inj.fired() + inj.cancelled(),
                    "seed {seed}: {} != {} + {}",
                    inj.scheduled(),
                    inj.fired(),
                    inj.cancelled()
                );
            }
        }
    }

    #[test]
    fn record_surfaces_the_accounting_as_metrics() {
        let plan = FaultPlan::seeded(9, ms(100), 8, 1.0, FaultMix::gray());
        let mut inj = FaultInjector::new(&plan, 8);
        inj.advance(SimTime::MAX);
        let mut m = Metrics::new();
        inj.record(&mut m);
        assert_eq!(m.counter("fault.scheduled"), inj.scheduled());
        assert_eq!(m.counter("fault.fired"), inj.fired());
        assert_eq!(m.counter("fault.cancelled"), inj.cancelled());
        assert_eq!(
            m.counter("fault.scheduled"),
            m.counter("fault.fired") + m.counter("fault.cancelled")
        );
    }

    #[test]
    fn topology_constructors_partition_components() {
        let striped = Topology::striped(6, 3);
        assert_eq!(striped.scopes(), 3);
        assert_eq!(striped.members(1), vec![1, 4]);
        let blocks = Topology::blocks(6, 2);
        assert_eq!(blocks.scopes(), 3);
        assert_eq!(blocks.members(1), vec![2, 3]);
        let flat = Topology::flat(4);
        assert_eq!(flat.scopes(), 4);
        assert_eq!(flat.members(2), vec![2]);
        for topo in [striped, blocks, flat] {
            let mut seen = 0u32;
            for s in 0..topo.scopes() {
                seen += topo.members(s).len() as u32;
            }
            assert_eq!(seen, topo.components(), "scopes partition components");
        }
    }

    #[test]
    fn correlated_fires_every_scope_member_at_the_same_instant() {
        // Property: every fault a correlated plan schedules is part of a
        // scope-wide group — same instant, same fault, one event per
        // member, nothing outside the scope at that instant.
        for seed in 0..32 {
            let topo = Topology::striped(24, 4);
            let plan = FaultPlan::correlated(seed, ms(1000), &topo, 1.0, FaultMix::gray());
            for ev in plan.events() {
                let scope = topo.scope_of(ev.comp);
                for member in topo.members(scope) {
                    assert!(
                        plan.events()
                            .iter()
                            .any(|e| e.at == ev.at && e.comp == member && e.fault == ev.fault),
                        "seed {seed}: member {member} missing from scope {scope} blast at {:?}",
                        ev.at
                    );
                }
            }
        }
    }

    #[test]
    fn correlated_plans_are_pure_and_disjoint_from_seeded() {
        let topo = Topology::blocks(12, 4);
        let a = FaultPlan::correlated(5, ms(500), &topo, 0.5, FaultMix::gray());
        let b = FaultPlan::correlated(5, ms(500), &topo, 0.5, FaultMix::gray());
        assert_eq!(a.events(), b.events());
        // Same seed, flat topology vs per-component seeded: different
        // substreams, different draws.
        let flat = Topology::flat(12);
        let c = FaultPlan::correlated(5, ms(500), &flat, 0.5, FaultMix::gray());
        let s = FaultPlan::seeded(5, ms(500), 12, 0.5, FaultMix::gray());
        assert_ne!(c.events(), s.events());
    }

    #[test]
    fn correlated_budget_is_rate_times_scopes_expanded_by_members() {
        let topo = Topology::striped(60, 3); // 3 racks of 20
        let plan = FaultPlan::correlated(1, ms(100), &topo, 0.5, FaultMix::kills_only());
        // ceil(0.5 * 3) = 2 scope faults x 20 members each.
        assert_eq!(plan.len(), 40);
        assert!(FaultPlan::correlated(1, ms(100), &topo, 0.0, FaultMix::gray()).is_empty());
    }

    #[test]
    fn correlated_accounting_is_conserved() {
        for seed in 0..32 {
            let topo = Topology::blocks(16, 4);
            let plan = FaultPlan::correlated(seed, ms(1000), &topo, 1.0, FaultMix::gray());
            let mut inj = FaultInjector::new(&plan, 16);
            inj.advance(SimTime::MAX);
            assert_eq!(inj.scheduled(), inj.fired() + inj.cancelled());
        }
    }

    #[test]
    fn at_scope_strikes_all_members() {
        let topo = Topology::striped(6, 3);
        let mut plan = FaultPlan::new();
        plan.at_scope(ms(7), &topo, 0, Fault::Kill);
        assert_eq!(plan.len(), 2);
        let mut inj = FaultInjector::new(&plan, 6);
        inj.advance(ms(7));
        assert!(!inj.is_up(0, ms(7)) && !inj.is_up(3, ms(7)));
        assert!(inj.is_up(1, ms(7)) && inj.is_up(2, ms(7)));
    }

    #[test]
    fn up_at_reports_recovery_instants() {
        let mut plan = FaultPlan::new();
        plan.at(ms(10), 0, Fault::Kill);
        plan.at(ms(10), 1, Fault::Pause { for_time: ms(5) });
        let mut inj = FaultInjector::new(&plan, 3);
        inj.advance(ms(10));
        assert_eq!(inj.up_at(0, ms(10)), None, "dead: no planned recovery");
        assert_eq!(inj.up_at(1, ms(12)), Some(ms(15)), "pause expiry");
        assert_eq!(inj.up_at(1, ms(20)), Some(ms(20)), "after expiry: now");
        assert_eq!(inj.up_at(2, ms(10)), Some(ms(10)), "healthy: now");
    }

    #[test]
    fn disruptions_count_work_losing_faults_only() {
        let mut plan = FaultPlan::new();
        plan.at(ms(1), 0, Fault::Pause { for_time: ms(1) });
        plan.at(
            ms(3),
            0,
            Fault::Slow {
                factor: 2.0,
                for_time: ms(1),
            },
        );
        plan.at(ms(5), 0, Fault::Kill);
        plan.at(ms(6), 0, Fault::Restore);
        plan.at(ms(7), 1, Fault::Kill);
        let mut inj = FaultInjector::new(&plan, 2);
        inj.advance(ms(2));
        assert_eq!(inj.disruptions(0), 1, "pause disrupts");
        inj.advance(ms(4));
        assert_eq!(inj.disruptions(0), 1, "slow does not");
        inj.advance(SimTime::MAX);
        assert_eq!(inj.disruptions(0), 2, "kill disrupts; restore does not");
        assert_eq!(inj.disruptions(1), 1);
        assert_eq!(inj.total_disruptions(), 3);
    }

    #[test]
    fn incremental_advance_matches_one_shot_advance() {
        let plan = FaultPlan::seeded(11, ms(200), 10, 0.8, FaultMix::gray());
        let mut step = FaultInjector::new(&plan, 10);
        for t in 0..=200 {
            step.advance(ms(t));
            step.advance(ms(t)); // idempotent per instant
        }
        let mut shot = FaultInjector::new(&plan, 10);
        shot.advance(ms(200));
        assert_eq!(step.fired(), shot.fired());
        assert_eq!(step.cancelled(), shot.cancelled());
        for c in 0..10 {
            assert_eq!(step.is_up(c, ms(200)), shot.is_up(c, ms(200)));
            assert_eq!(step.slowdown(c, ms(200)), shot.slowdown(c, ms(200)));
        }
    }
}
