//! An energy ledger: joules attributed to named components and layers.
//!
//! The paper's "energy first" thesis demands that every model answer not
//! just *how much* energy a run consumed but *where it went* — which
//! component (an L2 cache, a radio, a hedged RPC) and which architectural
//! layer (compute, memory, network, idle, harvest). [`EnergyLedger`] is
//! the cross-layer accumulator: models `charge` joules as they run, and
//! experiment binaries render the resulting attribution table next to
//! their latency numbers.
//!
//! Ledgers are mergeable, so per-shard or per-node ledgers roll up into a
//! system total without losing attribution.

use crate::table::Table;
use crate::units::Energy;
use std::collections::BTreeMap;
use std::fmt;

/// Architectural layer an energy charge belongs to.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum Layer {
    /// Datapath work: ALUs, accelerators, MCU active cycles.
    Compute,
    /// Storage hierarchy: caches, DRAM, NVM.
    Memory,
    /// Data movement between nodes: NoC links, radios, datacenter fabric.
    Network,
    /// Energy burned while waiting: leakage, sleep power, idle servers.
    Idle,
    /// Energy *captured* from the environment (sensor harvesters). Kept on
    /// the ledger so harvest and spend are visible side by side.
    Harvest,
}

impl Layer {
    /// All layers, in display order.
    pub const ALL: [Layer; 5] = [
        Layer::Compute,
        Layer::Memory,
        Layer::Network,
        Layer::Idle,
        Layer::Harvest,
    ];

    /// Lower-case layer name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Compute => "compute",
            Layer::Memory => "memory",
            Layer::Network => "network",
            Layer::Idle => "idle",
            Layer::Harvest => "harvest",
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    layer: Layer,
    energy: Energy,
    events: u64,
}

/// Accumulates energy charges keyed by component name.
///
/// Component names are `&'static str` by design: charge sites name their
/// component with a literal, so the hot path never allocates.
#[derive(Clone, Debug, Default)]
pub struct EnergyLedger {
    entries: BTreeMap<&'static str, Entry>,
}

impl EnergyLedger {
    /// An empty ledger.
    pub fn new() -> EnergyLedger {
        EnergyLedger::default()
    }

    /// Attribute `energy` to `component` within `layer`. A component keeps
    /// the layer of its first charge; charging the same name under a
    /// different layer is a wiring bug and panics in debug builds.
    #[inline]
    pub fn charge(&mut self, component: &'static str, layer: Layer, energy: Energy) {
        let e = self.entries.entry(component).or_insert(Entry {
            layer,
            energy: Energy::ZERO,
            events: 0,
        });
        debug_assert_eq!(
            e.layer, layer,
            "component {component:?} charged under two layers"
        );
        e.energy += energy;
        e.events += 1;
    }

    /// Attribute `events` charges totalling `energy` to `component` in one
    /// call, for hot loops that sum their charges locally. Adds no entry
    /// when `events == 0`.
    ///
    /// Callers must sum in charge order, starting from [`Energy::ZERO`]:
    /// then, for a component with no earlier charges, the ledger is bit
    /// for bit what `events` separate [`EnergyLedger::charge`] calls would
    /// leave (otherwise it differs only by floating-point reassociation).
    pub fn charge_batch(
        &mut self,
        component: &'static str,
        layer: Layer,
        energy: Energy,
        events: u64,
    ) {
        if events == 0 {
            return;
        }
        let e = self.entries.entry(component).or_insert(Entry {
            layer,
            energy: Energy::ZERO,
            events: 0,
        });
        debug_assert_eq!(
            e.layer, layer,
            "component {component:?} charged under two layers"
        );
        e.energy += energy;
        e.events += events;
    }

    /// Number of distinct components charged.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been charged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total energy across every layer except [`Layer::Harvest`] (harvest
    /// is income, not spend).
    pub fn total_spent(&self) -> Energy {
        self.entries
            .values()
            .filter(|e| e.layer != Layer::Harvest)
            .map(|e| e.energy)
            .sum()
    }

    /// Total energy attributed to one layer.
    pub fn layer_total(&self, layer: Layer) -> Energy {
        self.entries
            .values()
            .filter(|e| e.layer == layer)
            .map(|e| e.energy)
            .sum()
    }

    /// Energy attributed to one component (zero if never charged).
    // xxi-allow: model-reach -- test oracle: the ledger, cloud and NoC tests read one component
    pub fn component(&self, name: &str) -> Energy {
        self.entries
            .get(name)
            .map(|e| e.energy)
            .unwrap_or(Energy::ZERO)
    }

    /// Iterate `(component, layer, energy, events)` in name order.
    pub fn components(&self) -> impl Iterator<Item = (&'static str, Layer, Energy, u64)> + '_ {
        self.entries
            .iter()
            .map(|(name, e)| (*name, e.layer, e.energy, e.events))
    }

    /// Fold another ledger into this one (shard / node roll-up).
    pub fn merge(&mut self, other: &EnergyLedger) {
        for (name, e) in &other.entries {
            let mine = self.entries.entry(name).or_insert(Entry {
                layer: e.layer,
                energy: Energy::ZERO,
                events: 0,
            });
            debug_assert_eq!(mine.layer, e.layer);
            mine.energy += e.energy;
            mine.events += e.events;
        }
    }

    /// Render the attribution table: one row per component, grouped by
    /// layer, with per-layer subtotals and the spend total.
    pub fn table(&self) -> Table {
        let mut t = Table::new(&["component", "layer", "energy", "events", "share"]);
        let spent = self.total_spent();
        for layer in Layer::ALL {
            let lt = self.layer_total(layer);
            if lt == Energy::ZERO && !self.entries.values().any(|e| e.layer == layer) {
                continue;
            }
            for (name, l, energy, events) in self.components() {
                if l != layer {
                    continue;
                }
                let share = if layer == Layer::Harvest || spent.value() == 0.0 {
                    String::new()
                } else {
                    format!("{:.1}%", 100.0 * energy / spent)
                };
                t.row(&[
                    name.to_string(),
                    layer.name().to_string(),
                    fmt_energy(energy),
                    events.to_string(),
                    share,
                ]);
            }
            let share = if layer == Layer::Harvest || spent.value() == 0.0 {
                String::new()
            } else {
                format!("{:.1}%", 100.0 * lt / spent)
            };
            t.row(&[
                format!("= {layer}"),
                String::new(),
                fmt_energy(lt),
                String::new(),
                share,
            ]);
        }
        t.row(&[
            "= total spent".to_string(),
            String::new(),
            fmt_energy(spent),
        ]);
        t
    }
}

impl fmt::Display for EnergyLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.table().render())
    }
}

/// Format an energy with an auto-selected SI prefix (pJ … MJ).
pub fn fmt_energy(e: Energy) -> String {
    let j = e.value();
    let a = j.abs();
    if a == 0.0 {
        "0 J".to_string()
    } else if a < 1e-9 {
        format!("{:.2} pJ", j * 1e12)
    } else if a < 1e-6 {
        format!("{:.2} nJ", j * 1e9)
    } else if a < 1e-3 {
        format!("{:.2} uJ", j * 1e6)
    } else if a < 1.0 {
        format!("{:.2} mJ", j * 1e3)
    } else if a < 1e3 {
        format!("{j:.2} J")
    } else if a < 1e6 {
        format!("{:.2} kJ", j * 1e-3)
    } else {
        format!("{:.2} MJ", j * 1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_component() {
        let mut l = EnergyLedger::new();
        l.charge("l1", Layer::Memory, Energy::from_pj(10.0));
        l.charge("l1", Layer::Memory, Energy::from_pj(5.0));
        l.charge("alu", Layer::Compute, Energy::from_pj(3.0));
        assert_eq!(l.len(), 2);
        assert!((l.component("l1").pj() - 15.0).abs() < 1e-9);
        assert!((l.layer_total(Layer::Memory).pj() - 15.0).abs() < 1e-9);
        assert!((l.total_spent().pj() - 18.0).abs() < 1e-9);
    }

    #[test]
    fn batch_charge_matches_individual_charges_bit_for_bit() {
        // Uneven energies, so the running sum's rounding is order-sensitive.
        let charges = [0.1, 0.2, 0.3, 1e-12, 7.0, 0.1].map(Energy);
        let mut single = EnergyLedger::new();
        let mut sum = Energy::ZERO;
        for e in charges {
            single.charge("link", Layer::Network, e);
            sum += e;
        }
        single.charge("alu", Layer::Compute, Energy(3.0));
        let mut batched = EnergyLedger::new();
        batched.charge_batch("link", Layer::Network, sum, charges.len() as u64);
        batched.charge("alu", Layer::Compute, Energy(3.0));

        let bits = |l: &EnergyLedger| {
            l.components()
                .map(|(name, layer, e, n)| (name, layer, e.value().to_bits(), n))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&single), bits(&batched));
        assert_eq!(single.table().render(), batched.table().render());
        assert_eq!(
            single.total_spent().value().to_bits(),
            batched.total_spent().value().to_bits()
        );
        for layer in Layer::ALL {
            assert_eq!(
                single.layer_total(layer).value().to_bits(),
                batched.layer_total(layer).value().to_bits()
            );
        }
    }

    #[test]
    fn empty_batch_adds_no_entry() {
        let mut l = EnergyLedger::new();
        l.charge_batch("link", Layer::Network, Energy::ZERO, 0);
        assert!(l.is_empty());
    }

    #[test]
    fn harvest_is_excluded_from_spend() {
        let mut l = EnergyLedger::new();
        l.charge("solar", Layer::Harvest, Energy::from_mj(2.0));
        l.charge("radio", Layer::Network, Energy::from_mj(1.0));
        assert!((l.total_spent().mj() - 1.0).abs() < 1e-9);
        assert!((l.layer_total(Layer::Harvest).mj() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn merge_rolls_up_components() {
        let mut a = EnergyLedger::new();
        let mut b = EnergyLedger::new();
        a.charge("link", Layer::Network, Energy::from_nj(1.0));
        b.charge("link", Layer::Network, Energy::from_nj(2.0));
        b.charge("dram", Layer::Memory, Energy::from_nj(4.0));
        a.merge(&b);
        assert!((a.component("link").nj() - 3.0).abs() < 1e-9);
        assert!((a.component("dram").nj() - 4.0).abs() < 1e-9);
        let (_, _, _, events) = a.components().find(|(n, ..)| *n == "link").unwrap();
        assert_eq!(events, 2);
    }

    #[test]
    fn table_has_subtotals_and_shares() {
        let mut l = EnergyLedger::new();
        l.charge("alu", Layer::Compute, Energy(3.0));
        l.charge("dram", Layer::Memory, Energy(1.0));
        let s = l.table().render();
        assert!(s.contains("= compute"), "{s}");
        assert!(s.contains("= total spent"), "{s}");
        assert!(s.contains("75.0%"), "{s}");
        assert!(s.contains("25.0%"), "{s}");
    }

    #[test]
    fn energy_formatting_picks_prefix() {
        assert_eq!(fmt_energy(Energy::from_pj(12.0)), "12.00 pJ");
        assert_eq!(fmt_energy(Energy::from_nj(3.5)), "3.50 nJ");
        assert_eq!(fmt_energy(Energy::from_uj(7.0)), "7.00 uJ");
        assert_eq!(fmt_energy(Energy::from_mj(2.5)), "2.50 mJ");
        assert_eq!(fmt_energy(Energy(42.0)), "42.00 J");
        assert_eq!(fmt_energy(Energy(5e4)), "50.00 kJ");
        assert_eq!(fmt_energy(Energy::ZERO), "0 J");
    }

    #[test]
    fn display_matches_table() {
        let mut l = EnergyLedger::new();
        l.charge("x", Layer::Compute, Energy(1.0));
        assert_eq!(format!("{l}"), l.table().render());
    }
}
