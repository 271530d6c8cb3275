//! Fine-grain protection domains within one application.
//!
//! §2.4: *"We need interfaces to specify fine-grain protection boundaries
//! among modules within a single application."* The classical page-granular
//! process boundary is too coarse (a crypto library and a JSON parser share
//! one address space today); the mechanism modeled here is a
//! **domain × region access matrix** checked on every access — the
//! Mondrian-/CHERI-flavored direction the paper gestures at — plus an
//! energy price per check, so "efficient enforcement" is measurable, not
//! assumed.

use std::collections::{BTreeMap, HashMap};

use xxi_core::metrics::Metrics;
use xxi_core::units::Energy;
use xxi_core::{Result, XxiError};

/// A protection domain (an intra-application module).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(pub u32);

/// A protected memory region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

/// Access kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store.
    Write,
}

/// Permission bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Perms(pub u8);

impl Perms {
    /// No access.
    pub const NONE: Perms = Perms(0);
    /// Read.
    // xxi-allow: model-reach -- checked by xxi lint (model-constructors: a read grant is no write)
    pub const R: Perms = Perms(1);
    /// Read + write.
    pub const RW: Perms = Perms(3);

    /// Does this permission set allow `kind`?
    pub fn allows(self, kind: AccessKind) -> bool {
        let need = match kind {
            AccessKind::Read => 1,
            AccessKind::Write => 2,
        };
        self.0 & need != 0
    }
}

/// The access matrix plus its regions.
#[derive(Clone, Debug, Default)]
pub struct ProtectionMatrix {
    /// region → (base word, length in words)
    // BTreeMap so overlap checks and `region_of` scans visit regions in
    // id order — error messages and lookups stay deterministic.
    regions: BTreeMap<RegionId, (usize, usize)>,
    /// (domain, region) → perms
    matrix: HashMap<(DomainId, RegionId), Perms>,
    /// `checks`, `faults`.
    pub metrics: Metrics,
}

/// Energy per protection check — a few lookaside-buffer bits' worth, far
/// cheaper than a TLB miss (anchored at 45 nm alongside the other tables).
pub const CHECK_ENERGY_PJ: f64 = 0.8;

impl ProtectionMatrix {
    /// Empty matrix.
    pub fn new() -> ProtectionMatrix {
        ProtectionMatrix::default()
    }

    /// Define (or redefine) a region covering `[base, base+len)` words.
    pub fn define_region(&mut self, id: RegionId, base: usize, len: usize) -> Result<()> {
        if len == 0 {
            return Err(XxiError::config("empty region"));
        }
        for (other, &(b, l)) in &self.regions {
            if *other != id && base < b + l && b < base + len {
                return Err(XxiError::config(format!(
                    "region {id:?} overlaps {other:?}"
                )));
            }
        }
        self.regions.insert(id, (base, len));
        Ok(())
    }

    /// Grant `perms` on `region` to `domain` (replaces previous grant).
    pub fn grant(&mut self, domain: DomainId, region: RegionId, perms: Perms) {
        self.matrix.insert((domain, region), perms);
    }

    /// The region containing word `addr`, if any.
    pub fn region_of(&self, addr: usize) -> Option<RegionId> {
        self.regions
            .iter()
            .find(|(_, &(b, l))| addr >= b && addr < b + l)
            .map(|(id, _)| *id)
    }

    /// Check one access; `Ok` means allowed. Faults are counted.
    pub fn check(&mut self, domain: DomainId, addr: usize, kind: AccessKind) -> Result<()> {
        self.metrics.incr("checks");
        let Some(region) = self.region_of(addr) else {
            self.metrics.incr("faults");
            return Err(XxiError::invariant(format!(
                "{domain:?} touched unmapped word {addr}"
            )));
        };
        let perms = self
            .matrix
            .get(&(domain, region))
            .copied()
            .unwrap_or(Perms::NONE);
        if perms.allows(kind) {
            Ok(())
        } else {
            self.metrics.incr("faults");
            Err(XxiError::invariant(format!(
                "{domain:?} lacks {kind:?} on {region:?}"
            )))
        }
    }

    /// Total checking energy so far.
    pub fn check_energy(&self) -> Energy {
        Energy::from_pj(CHECK_ENERGY_PJ * self.metrics.counter("checks") as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scenario §2.4 implies: an app with a crypto module holding key
    /// material, a parser handling untrusted input, and shared scratch.
    fn app() -> (
        ProtectionMatrix,
        DomainId,
        DomainId,
        RegionId,
        RegionId,
        RegionId,
    ) {
        let mut pm = ProtectionMatrix::new();
        let crypto = DomainId(1);
        let parser = DomainId(2);
        let keys = RegionId(10);
        let inbuf = RegionId(11);
        let scratch = RegionId(12);
        pm.define_region(keys, 0, 64).unwrap();
        pm.define_region(inbuf, 64, 256).unwrap();
        pm.define_region(scratch, 320, 128).unwrap();
        pm.grant(crypto, keys, Perms::RW);
        pm.grant(crypto, scratch, Perms::RW);
        pm.grant(parser, inbuf, Perms::RW);
        pm.grant(parser, scratch, Perms::RW);
        (pm, crypto, parser, keys, inbuf, scratch)
    }

    #[test]
    fn intra_module_access_allowed() {
        let (mut pm, crypto, parser, ..) = app();
        assert!(pm.check(crypto, 5, AccessKind::Read).is_ok());
        assert!(pm.check(crypto, 5, AccessKind::Write).is_ok());
        assert!(pm.check(parser, 100, AccessKind::Read).is_ok());
        assert!(pm.check(parser, 400, AccessKind::Write).is_ok());
        assert_eq!(pm.metrics.counter("faults"), 0);
    }

    #[test]
    fn parser_cannot_touch_key_material() {
        // The Heartbleed-shaped fault this mechanism exists to stop.
        let (mut pm, _, parser, ..) = app();
        assert!(pm.check(parser, 5, AccessKind::Read).is_err());
        assert!(pm.check(parser, 5, AccessKind::Write).is_err());
        assert_eq!(pm.metrics.counter("faults"), 2);
    }

    #[test]
    fn crypto_cannot_read_raw_input_unless_granted() {
        let (mut pm, crypto, _, _, _inbuf, _) = app();
        assert!(pm.check(crypto, 100, AccessKind::Read).is_err());
        pm.grant(crypto, RegionId(11), Perms::R);
        assert!(pm.check(crypto, 100, AccessKind::Read).is_ok());
        assert!(pm.check(crypto, 100, AccessKind::Write).is_err());
    }

    #[test]
    fn unmapped_addresses_fault() {
        let (mut pm, crypto, ..) = app();
        assert!(pm.check(crypto, 9_999, AccessKind::Read).is_err());
    }

    #[test]
    fn overlapping_regions_rejected() {
        let mut pm = ProtectionMatrix::new();
        pm.define_region(RegionId(1), 0, 100).unwrap();
        assert!(pm.define_region(RegionId(2), 50, 100).is_err());
        assert!(pm.define_region(RegionId(2), 100, 100).is_ok());
        assert!(pm.define_region(RegionId(3), 0, 0).is_err());
        // Redefining the same region is allowed.
        assert!(pm.define_region(RegionId(1), 0, 50).is_ok());
    }

    #[test]
    fn perms_semantics() {
        assert!(Perms::RW.allows(AccessKind::Read));
        assert!(Perms::RW.allows(AccessKind::Write));
        assert!(!Perms::NONE.allows(AccessKind::Read));
        assert!(Perms::R.allows(AccessKind::Read));
    }

    #[test]
    fn checking_energy_is_cheap_relative_to_work() {
        // 1M checked accesses cost ~0.8 µJ — noise next to the ~100 pJ/op
        // application they protect (<1% overhead).
        let (mut pm, crypto, ..) = app();
        for _ in 0..1_000_000 {
            let _ = pm.check(crypto, 5, AccessKind::Read);
        }
        let overhead = pm.check_energy().value() / (1_000_000.0 * 100e-12);
        assert!(overhead < 0.01, "overhead={overhead}");
    }
}
