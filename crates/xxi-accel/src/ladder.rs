//! The specialization ladder — experiment E7.
//!
//! Per-operation energy on a general-purpose core decomposes as
//! `E_op = E_functional + E_overhead`, where the overhead (instruction
//! fetch, decode, rename, schedule, register file, bypass) is ~10× the
//! functional work for an FMA on a big OoO core (see `xxi-tech::ops`).
//! Each rung of the ladder amortizes or strips part of that overhead:
//!
//! * **SIMD** amortizes one instruction's overhead over `w` lanes.
//! * **GPU-style manycore** uses simple in-order lanes (small overhead)
//!   further amortized over a warp.
//! * **Fixed-function** hardware keeps only the functional energy plus a
//!   few percent of sequencing control.
//!
//! Kernel character matters: control-heavy kernels can't fill wide lanes
//! (divergence), and data-movement-heavy kernels keep paying the memory
//! ladder regardless — which is why the paper pairs specialization with
//! "energy-efficient memory hierarchies". Both effects are modeled.

use xxi_core::units::Energy;
use xxi_tech::node::TechNode;
use xxi_tech::ops::OpEnergies;

/// Kernel archetypes with different control/data character.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// FIR filter: perfectly regular, streaming.
    Fir,
    /// AES-round-like: bit-level ops, regular, huge ASIC advantage.
    AesRound,
    /// FFT butterfly: regular but shuffle-heavy.
    Fft,
    /// 2D stencil: regular with neighborhood data reuse.
    Stencil,
    /// Branch-heavy irregular code: the specialization-hostile case.
    Irregular,
}

impl Kernel {
    /// SIMD/SIMT lane utilization (1.0 = perfectly vectorizable).
    pub fn vector_utilization(self) -> f64 {
        match self {
            Kernel::Fir => 1.0,
            Kernel::AesRound => 1.0,
            Kernel::Fft => 0.85,
            Kernel::Stencil => 0.9,
            Kernel::Irregular => 0.15,
        }
    }

    /// How much a fixed-function datapath shrinks the *functional* energy
    /// itself (bit-width tailoring, fused dataflow, no IEEE generality).
    pub fn asic_functional_gain(self) -> f64 {
        match self {
            Kernel::Fir => 3.0,
            Kernel::AesRound => 10.0, // byte-level ops murdered by 64-b ALUs
            Kernel::Fft => 3.0,
            Kernel::Stencil => 2.5,
            Kernel::Irregular => 1.2,
        }
    }
}

/// Execution substrate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ImplKind {
    /// Big out-of-order core, scalar instructions.
    ScalarOoO,
    /// Simple in-order core, scalar instructions.
    ScalarInOrder,
    /// OoO core with SIMD of the given lane count.
    Simd {
        /// Number of lanes.
        lanes: u32,
    },
    /// GPU-style manycore: in-order lanes in warps of the given width.
    Manycore {
        /// Warp width.
        warp: u32,
    },
    /// Fixed-function accelerator.
    FixedFunction,
}

/// Energy per *useful* operation of `kernel` on `impl_kind` at `node`.
pub fn ladder_energy_per_op(node: &TechNode, impl_kind: ImplKind, kernel: Kernel) -> Energy {
    let ops = OpEnergies::at(node);
    let func = ops.fp_fma;
    let util = kernel.vector_utilization();
    match impl_kind {
        ImplKind::ScalarOoO => func + ops.ooo_overhead,
        ImplKind::ScalarInOrder => func + ops.inorder_overhead,
        ImplKind::Simd { lanes } => {
            assert!(lanes >= 1);
            // One instruction's overhead amortized over the *useful* lanes;
            // idle lanes still burn functional energy (masked execution).
            let useful = (lanes as f64 * util).max(1.0);
            let wasted = lanes as f64 - useful;
            (ops.ooo_overhead / useful) + func + func * (wasted / useful)
        }
        ImplKind::Manycore { warp } => {
            assert!(warp >= 1);
            let useful = (warp as f64 * util).max(1.0);
            let wasted = warp as f64 - useful;
            (ops.inorder_overhead / useful) + func + func * (wasted / useful)
        }
        ImplKind::FixedFunction => {
            // Functional energy shrinks by the kernel's tailoring gain;
            // add 5% sequencing control.
            let tailored = func / kernel.asic_functional_gain();
            tailored * 1.05
        }
    }
}

/// Energy-efficiency factor of `impl_kind` over the scalar-OoO baseline.
pub fn efficiency_factor(node: &TechNode, impl_kind: ImplKind, kernel: Kernel) -> f64 {
    let base = ladder_energy_per_op(node, ImplKind::ScalarOoO, kernel);
    let here = ladder_energy_per_op(node, impl_kind, kernel);
    base.value() / here.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xxi_tech::node::NodeDb;

    fn node() -> TechNode {
        NodeDb::standard().by_name("45nm").unwrap().clone()
    }

    #[test]
    fn ladder_ordering_on_regular_kernel() {
        let n = node();
        let k = Kernel::Fir;
        let ooo = ladder_energy_per_op(&n, ImplKind::ScalarOoO, k);
        let inorder = ladder_energy_per_op(&n, ImplKind::ScalarInOrder, k);
        let simd = ladder_energy_per_op(&n, ImplKind::Simd { lanes: 16 }, k);
        let gpu = ladder_energy_per_op(&n, ImplKind::Manycore { warp: 32 }, k);
        let asic = ladder_energy_per_op(&n, ImplKind::FixedFunction, k);
        assert!(ooo.value() > inorder.value());
        assert!(inorder.value() > simd.value());
        assert!(simd.value() > gpu.value());
        assert!(gpu.value() > asic.value());
    }

    #[test]
    fn paper_anchor_100x_specialization() {
        // §2.2: "Specialization can give 100× higher energy efficiency."
        let n = node();
        for k in [Kernel::Fir, Kernel::Fft, Kernel::Stencil] {
            let f = efficiency_factor(&n, ImplKind::FixedFunction, k);
            assert!(
                (20.0..2000.0).contains(&f),
                "{k:?}: fixed-function factor {f}"
            );
        }
        // AES-like kernels reach the top of the published range
        // (Hameed et al.'s ~500×).
        let aes = efficiency_factor(&n, ImplKind::FixedFunction, Kernel::AesRound);
        assert!(aes > 100.0, "aes={aes}");
    }

    #[test]
    fn simd_gives_order_of_magnitude_on_vectorizable_code() {
        let n = node();
        let f = efficiency_factor(&n, ImplKind::Simd { lanes: 8 }, Kernel::Fir);
        assert!((4.0..12.0).contains(&f), "simd factor={f}");
    }

    #[test]
    fn irregular_code_defeats_wide_machines() {
        // With 15% lane utilization, wide SIMD wastes energy on idle lanes:
        // the factor collapses, and can even invert vs narrow SIMD.
        let n = node();
        let wide = efficiency_factor(&n, ImplKind::Simd { lanes: 32 }, Kernel::Irregular);
        let narrow = efficiency_factor(&n, ImplKind::Simd { lanes: 4 }, Kernel::Irregular);
        let regular = efficiency_factor(&n, ImplKind::Simd { lanes: 32 }, Kernel::Fir);
        assert!(
            wide < regular / 3.0,
            "wide-on-irregular={wide} regular={regular}"
        );
        assert!(narrow > wide * 0.5, "narrow should be competitive");
        // Fixed function barely helps irregular code either.
        let asic = efficiency_factor(&n, ImplKind::FixedFunction, Kernel::Irregular);
        let asic_fir = efficiency_factor(&n, ImplKind::FixedFunction, Kernel::Fir);
        assert!(asic < asic_fir);
    }

    #[test]
    fn wider_simd_helps_until_utilization_runs_out() {
        let n = node();
        let k = Kernel::Stencil; // 90% utilization
        let e4 = ladder_energy_per_op(&n, ImplKind::Simd { lanes: 4 }, k);
        let e16 = ladder_energy_per_op(&n, ImplKind::Simd { lanes: 16 }, k);
        assert!(e16.value() < e4.value());
        // For irregular code the masked-lane waste puts a floor under the
        // wide machine: a plain in-order scalar core beats 64-lane SIMD.
        let i64 = ladder_energy_per_op(&n, ImplKind::Simd { lanes: 64 }, Kernel::Irregular);
        let scalar = ladder_energy_per_op(&n, ImplKind::ScalarInOrder, Kernel::Irregular);
        assert!(
            scalar.value() < i64.value(),
            "scalar={scalar:?} simd64={i64:?}"
        );
    }

    #[test]
    fn factors_hold_across_nodes() {
        // The ladder is about architecture, not technology: factors are
        // stable across nodes (energies all scale together).
        let db = NodeDb::standard();
        let f45 = efficiency_factor(
            db.by_name("45nm").unwrap(),
            ImplKind::FixedFunction,
            Kernel::Fir,
        );
        let f7 = efficiency_factor(
            db.by_name("7nm").unwrap(),
            ImplKind::FixedFunction,
            Kernel::Fir,
        );
        assert!((f45 - f7).abs() / f45 < 1e-9);
    }

    #[test]
    fn single_lane_simd_equals_scalar() {
        let n = node();
        let s1 = ladder_energy_per_op(&n, ImplKind::Simd { lanes: 1 }, Kernel::Fir);
        let sc = ladder_energy_per_op(&n, ImplKind::ScalarOoO, Kernel::Fir);
        assert!((s1.value() - sc.value()).abs() < 1e-18);
    }
}
