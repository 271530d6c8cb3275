//! Hill–Marty: Amdahl's Law in the multicore era (IEEE Computer, 2008).
//!
//! The paper's §2.2 parallelism agenda ("future growth in computer
//! performance must come from massive on-chip parallelism with simpler,
//! low-power cores") was coordinated by Mark Hill, and the quantitative
//! backbone of that position is the Hill–Marty model. A chip has `n` *base
//! core equivalents* (BCE); a core built from `r` BCEs has single-thread
//! performance `perf(r) = √r` (Pollack). For a workload with parallel
//! fraction `f`:
//!
//! * **Symmetric** — `n/r` identical cores:
//!   `S = 1 / ((1−f)/perf(r) + f·r/(perf(r)·n))`
//! * **Asymmetric** — one big `r`-BCE core plus `n−r` small cores:
//!   `S = 1 / ((1−f)/perf(r) + f/(perf(r) + n − r))`
//! * **Dynamic** — the big core's resources can be reconfigured into `n`
//!   small cores during parallel sections:
//!   `S = 1 / ((1−f)/perf(r) + f/n)`
//!
//! Experiment E6 regenerates the classic speedup-vs-r curves and the
//! power-constrained (dark-silicon) variant.

/// Pollack's-rule performance of an `r`-BCE core.
pub fn perf_pollack(r: f64) -> f64 {
    assert!(r >= 1.0, "a core needs at least one BCE");
    r.sqrt()
}

fn check(f: f64, n: f64, r: f64) {
    assert!((0.0..=1.0).contains(&f), "parallel fraction in [0,1]");
    assert!(n >= 1.0 && r >= 1.0 && r <= n, "need 1 <= r <= n");
}

/// Symmetric multicore speedup: `n/r` cores of `r` BCEs each.
///
/// ```
/// use xxi_cpu::hillmarty::speedup_symmetric;
/// // Hill & Marty's anchor point: f = 0.975, n = 256, r = 7 ⇒ S ≈ 51.
/// let s = speedup_symmetric(0.975, 256.0, 7.0);
/// assert!((s - 51.2).abs() < 1.0);
/// ```
pub fn speedup_symmetric(f: f64, n: f64, r: f64) -> f64 {
    check(f, n, r);
    let p = perf_pollack(r);
    1.0 / ((1.0 - f) / p + f * r / (p * n))
}

/// Asymmetric speedup: one `r`-BCE core + `n − r` single-BCE cores.
pub fn speedup_asymmetric(f: f64, n: f64, r: f64) -> f64 {
    check(f, n, r);
    let p = perf_pollack(r);
    1.0 / ((1.0 - f) / p + f / (p + n - r))
}

/// Dynamic speedup: `r`-BCE core serially, all `n` BCEs in parallel.
pub fn speedup_dynamic(f: f64, n: f64, r: f64) -> f64 {
    check(f, n, r);
    let p = perf_pollack(r);
    1.0 / ((1.0 - f) / p + f / n)
}

/// Classic Amdahl speedup with `n` unit cores (the 20th-century baseline).
// xxi-allow: model-reach -- oracle for tests/properties.rs (hillmarty_ordering_and_bounds) and tests/runtime_scaling.rs (pool_scaling_is_amdahl_shaped)
pub fn speedup_amdahl(f: f64, n: f64) -> f64 {
    assert!((0.0..=1.0).contains(&f) && n >= 1.0);
    1.0 / ((1.0 - f) + f / n)
}

/// The `r` maximizing symmetric speedup for `(f, n)`, by scan over integer
/// divisors-ish values (the published analyses scan integers too).
pub fn best_symmetric_r(f: f64, n: f64) -> f64 {
    let mut best = (1.0, speedup_symmetric(f, n, 1.0));
    let mut r = 1.0;
    while r <= n {
        let s = speedup_symmetric(f, n, r);
        if s > best.1 {
            best = (r, s);
        }
        r += 1.0;
    }
    best.0
}

/// Power-constrained symmetric speedup: only `active` of the chip's `n/r`
/// cores can be powered simultaneously (dark silicon). The serial term is
/// unchanged; the parallel term uses the powered cores only.
pub fn speedup_symmetric_power_limited(f: f64, n: f64, r: f64, active_frac: f64) -> f64 {
    check(f, n, r);
    assert!((0.0..=1.0).contains(&active_frac));
    let p = perf_pollack(r);
    let cores = (n / r * active_frac).max(1.0);
    1.0 / ((1.0 - f) / p + f / (p * cores))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_to_amdahl_with_unit_cores() {
        for f in [0.5, 0.9, 0.99] {
            for n in [16.0, 64.0, 256.0] {
                let hm = speedup_symmetric(f, n, 1.0);
                let am = speedup_amdahl(f, n);
                assert!((hm - am).abs() < 1e-12, "f={f} n={n}");
            }
        }
    }

    #[test]
    fn serial_workload_wants_one_big_core() {
        // f = 0: speedup = perf(r), maximized at r = n.
        let n = 256.0;
        assert!((speedup_symmetric(0.0, n, n) - 16.0).abs() < 1e-12);
        assert!(speedup_symmetric(0.0, n, n) > speedup_symmetric(0.0, n, 1.0));
        assert_eq!(best_symmetric_r(0.0, n), n);
    }

    #[test]
    fn fully_parallel_workload_wants_small_cores() {
        let n = 256.0;
        assert!((speedup_symmetric(1.0, n, 1.0) - 256.0).abs() < 1e-9);
        assert!(speedup_symmetric(1.0, n, 1.0) > speedup_symmetric(1.0, n, 64.0));
        assert_eq!(best_symmetric_r(1.0, n), 1.0);
    }

    #[test]
    fn paper_figure_anchor_f_0_975_n_256() {
        // From Hill & Marty's published curves (f=0.975, n=256): symmetric
        // peaks near r≈7 with speedup ≈ 51; dynamic reaches ≈ 186 at r=256.
        let n = 256.0;
        let f = 0.975;
        let best_r = best_symmetric_r(f, n);
        assert!((4.0..=12.0).contains(&best_r), "best_r={best_r}");
        let s = speedup_symmetric(f, n, best_r);
        assert!((45.0..60.0).contains(&s), "s={s}");
        let d = speedup_dynamic(f, n, n);
        assert!((170.0..200.0).contains(&d), "d={d}");
    }

    #[test]
    fn ordering_dynamic_beats_asymmetric_beats_symmetric() {
        // For interesting (f, n, r), dynamic ≥ asymmetric ≥ symmetric.
        for f in [0.5, 0.9, 0.975, 0.99] {
            for r in [4.0, 16.0, 64.0] {
                let n = 256.0;
                let s = speedup_symmetric(f, n, r);
                let a = speedup_asymmetric(f, n, r);
                let d = speedup_dynamic(f, n, r);
                assert!(a >= s - 1e-9, "f={f} r={r}: asym {a} < sym {s}");
                assert!(d >= a - 1e-9, "f={f} r={r}: dyn {d} < asym {a}");
            }
        }
    }

    #[test]
    fn speedup_bounded_by_ideal() {
        for f in [0.3, 0.9, 0.999] {
            for r in [1.0, 8.0, 64.0] {
                let n = 256.0;
                for s in [
                    speedup_symmetric(f, n, r),
                    speedup_asymmetric(f, n, r),
                    speedup_dynamic(f, n, r),
                ] {
                    // Nothing exceeds n·perf(n)/... actually the loose bound
                    // is n (all BCEs fully utilized at unit efficiency) plus
                    // Pollack perf on serial; use n + √n.
                    assert!(s <= n + n.sqrt(), "f={f} r={r}: s={s}");
                    assert!(s >= 1.0 - 1e-12);
                }
            }
        }
    }

    #[test]
    fn more_chip_resources_never_hurt() {
        for f in [0.5, 0.975] {
            let s64 = speedup_symmetric(f, 64.0, 4.0);
            let s256 = speedup_symmetric(f, 256.0, 4.0);
            assert!(s256 >= s64);
        }
    }

    #[test]
    fn dark_silicon_erodes_parallel_speedup() {
        let f = 0.99;
        let n = 256.0;
        let full = speedup_symmetric_power_limited(f, n, 1.0, 1.0);
        let half = speedup_symmetric_power_limited(f, n, 1.0, 0.5);
        let tenth = speedup_symmetric_power_limited(f, n, 1.0, 0.1);
        assert!(full > half && half > tenth);
        assert!((full - speedup_symmetric(f, n, 1.0)).abs() < 1e-9);
        // At 10% active the chip behaves like a much smaller one (the
        // serial term keeps the floor above a strict 10%).
        assert!(tenth < 0.3 * full, "tenth={tenth} full={full}");
    }

    #[test]
    #[should_panic]
    fn r_bigger_than_n_rejected() {
        speedup_symmetric(0.5, 16.0, 32.0);
    }
}
