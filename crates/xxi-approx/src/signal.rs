//! Synthetic biometric-like signal generation.
//!
//! The paper's smart-sensor scenario (§2.1) filters "a nominal biometric
//! signal" for anomalies on-device. No public dataset ships with this
//! reproduction, so this generator synthesizes the equivalent: a periodic
//! carrier (heartbeat-like), Gaussian noise, baseline wander, and injected
//! anomaly events at known positions — giving the detection experiments a
//! labeled ground truth.

use xxi_core::rng::{chance_cut, Rng64, RngLanes, LANES};

/// Signal generator configuration.
#[derive(Clone, Copy, Debug)]
pub struct SignalGen {
    /// Samples per period of the carrier.
    pub period: usize,
    /// Carrier amplitude.
    pub amplitude: f64,
    /// Gaussian noise standard deviation.
    pub noise_sigma: f64,
    /// Probability per sample that an anomaly event begins.
    pub anomaly_rate: f64,
    /// Anomaly amplitude multiplier.
    pub anomaly_gain: f64,
    /// Anomaly duration in samples.
    pub anomaly_len: usize,
}

impl Default for SignalGen {
    fn default() -> SignalGen {
        SignalGen {
            period: 64,
            amplitude: 1.0,
            noise_sigma: 0.05,
            anomaly_rate: 0.002,
            anomaly_gain: 3.0,
            anomaly_len: 16,
        }
    }
}

/// One seed's random draws, before the Gaussian transform: what
/// [`SignalGen::draw_into`] fills. Sample `i` of the signal is
/// `clean[i] + σ·sqrt(-2 ln u[i])·cos(τ v[i])`. Buffers are
/// reused across calls, so a caller drawing many seeds allocates once.
#[derive(Clone, Debug)]
pub struct SignalDraws {
    /// `amplitude · sin(2π k / period)` for each phase `k`.
    carrier: Vec<f64>,
    clean: Vec<f64>,
    u: Vec<f64>,
    v: Vec<f64>,
    mask: Vec<bool>,
}

impl SignalDraws {
    /// Noise-free value per sample: carrier × anomaly gain.
    pub fn clean(&self) -> &[f64] {
        &self.clean
    }

    /// Box–Muller's `u ∈ (0, 1]` per sample.
    pub fn u(&self) -> &[f64] {
        &self.u
    }
}

impl SignalGen {
    /// Empty draw buffers carrying this generator's carrier table.
    pub fn draws(&self) -> SignalDraws {
        let carrier = (0..self.period)
            .map(|k| {
                let phase = k as f64 / self.period as f64;
                self.amplitude * (std::f64::consts::TAU * phase).sin()
            })
            .collect();
        SignalDraws {
            carrier,
            clean: Vec::new(),
            u: Vec::new(),
            v: Vec::new(),
            mask: Vec::new(),
        }
    }

    /// Draw `n` samples' randomness from `seed` into `out` (built by this
    /// generator's [`SignalGen::draws`]) without transforming it; returns
    /// whether any sample is anomalous. This, [`SignalGen::draw_lanes`] and
    /// [`SignalGen::draw_lanes_exact`] are the one place that knows the
    /// draw order: per sample, the anomaly-onset chance (only outside an
    /// event), then [`Rng64::normal_uv`]'s `u` and `v`.
    pub fn draw_into(&self, n: usize, seed: u64, out: &mut SignalDraws) -> bool {
        debug_assert_eq!(out.carrier.len(), self.period, "draws of another generator");
        let mut rng = Rng64::new(seed);
        out.clean.resize(n, 0.0);
        out.u.resize(n, 0.0);
        out.v.resize(n, 0.0);
        out.mask.resize(n, false);
        let mut anomaly_left = 0usize;
        let mut any = false;
        let mut phase = 0;
        let samples = out.clean.iter_mut().zip(&mut out.u).zip(&mut out.v);
        for (((clean, u), v), anomalous) in samples.zip(&mut out.mask) {
            if anomaly_left == 0 && rng.chance(self.anomaly_rate) {
                anomaly_left = self.anomaly_len;
            }
            *anomalous = anomaly_left > 0;
            let gain = if *anomalous {
                anomaly_left -= 1;
                self.anomaly_gain
            } else {
                1.0
            };
            any |= *anomalous;
            *clean = out.carrier[phase] * gain;
            (*u, *v) = rng.normal_uv();
            phase += 1;
            if phase == self.period {
                phase = 0;
            }
        }
        any
    }

    /// [`SignalGen::draw_into`]'s answer for [`LANES`] seeds at once, with
    /// the lanes stepped in lockstep. Lockstep assumes every sample draws
    /// the onset chance, `u` and `v`. That holds until a lane's first onset
    /// (inside an event the chance is skipped), and that onset makes the
    /// answer `true`, so every lane's answer is exact. An onset that marks
    /// nothing (`anomaly_len == 0`) keeps the order, so it is not one. Each
    /// lane keeps the least onset draw it has made: some onset fired
    /// exactly when that least draw is under the cut.
    ///
    /// `sample(i, carrier, u)` sees sample `i`'s carrier value and each
    /// lane's `u`. For a lane answering `false` these are exactly
    /// `draw_into`'s `clean[i]` (no gain applies) and `u[i]`; for a lane
    /// answering `true` they are meaningless. `draws` (built by this
    /// generator's [`SignalGen::draws`]) supplies only the carrier table.
    #[inline(always)]
    pub fn draw_lanes(
        &self,
        n: usize,
        seeds: &[u64; LANES],
        draws: &SignalDraws,
        mut sample: impl FnMut(usize, f64, &[f64; LANES]),
    ) -> [bool; LANES] {
        debug_assert_eq!(
            draws.carrier.len(),
            self.period,
            "draws of another generator"
        );
        let mut rng = RngLanes::new(seeds);
        let cut = if self.anomaly_len == 0 {
            0
        } else {
            chance_cut(self.anomaly_rate)
        };
        // A running minimum stays in vector registers; OR-ing per-sample
        // `bool`s into the answer did not.
        let mut least = [u64::MAX; LANES];
        let mut phase = 0;
        for i in 0..n {
            let onset = rng.next_u64();
            let mut u = rng.next_f64();
            rng.next_u64(); // v
            for l in 0..LANES {
                least[l] = least[l].min(onset[l] >> 11);
                u[l] = 1.0 - u[l];
            }
            sample(i, draws.carrier[phase], &u);
            phase += 1;
            if phase == self.period {
                phase = 0;
            }
        }
        std::array::from_fn(|l| least[l] < cut)
    }

    /// [`SignalGen::draw_into`] for [`LANES`] seeds at once, exact in every
    /// lane, anomalies included. Each lane counts down its own event, and
    /// a lane inside one skips the sample's onset chance
    /// ([`RngLanes::skip_where`]), so every lane draws in `draw_into`'s
    /// order while the lanes step together.
    ///
    /// `sample(i, clean, u)` sees, in each lane, exactly `draw_into`'s
    /// `clean[i]` (gain applied) and `u[i]`. `draws` (built by this
    /// generator's [`SignalGen::draws`]) supplies only the carrier table.
    /// Where a batch has no anomaly, [`SignalGen::draw_lanes`] is cheaper.
    #[inline(always)]
    pub fn draw_lanes_exact(
        &self,
        n: usize,
        seeds: &[u64; LANES],
        draws: &SignalDraws,
        mut sample: impl FnMut(usize, &[f64; LANES], &[f64; LANES]),
    ) -> [bool; LANES] {
        debug_assert_eq!(
            draws.carrier.len(),
            self.period,
            "draws of another generator"
        );
        let mut rng = RngLanes::new(seeds);
        let cut = chance_cut(self.anomaly_rate);
        let len = self.anomaly_len as u64;
        // Per lane: samples left in the current event, and whether any
        // sample was anomalous (as a word, to stay in vector registers).
        let (mut left, mut any) = ([0u64; LANES], [0u64; LANES]);
        let mut phase = 0;
        for i in 0..n {
            // The sample's onset chance, drawn only outside an event.
            let mut inside = [false; LANES];
            for l in 0..LANES {
                inside[l] = left[l] > 0;
            }
            let onset = rng.skip_where(&inside);
            let carrier = draws.carrier[phase];
            let mut clean = [0.0; LANES];
            for l in 0..LANES {
                if !inside[l] && onset[l] >> 11 < cut {
                    left[l] = len;
                }
                let anomalous = left[l] > 0;
                any[l] |= u64::from(anomalous);
                left[l] -= u64::from(anomalous);
                clean[l] = carrier * if anomalous { self.anomaly_gain } else { 1.0 };
            }
            let mut u = rng.next_f64();
            rng.next_u64(); // v
            for u in &mut u {
                *u = 1.0 - *u;
            }
            sample(i, &clean, &u);
            phase += 1;
            if phase == self.period {
                phase = 0;
            }
        }
        std::array::from_fn(|l| any[l] != 0)
    }

    /// The noise a sample's `(u, v)` draws turn into.
    #[inline]
    fn noise(&self, u: f64, v: f64) -> f64 {
        0.0 + self.noise_sigma * Rng64::box_muller(u, v)
    }

    /// Transform `draws` into the signal, replacing `out`'s contents.
    pub fn signal_into(&self, draws: &SignalDraws, out: &mut Vec<f64>) {
        out.clear();
        let samples = draws.clean.iter().zip(&draws.u).zip(&draws.v);
        out.extend(samples.map(|((c, &u), &v)| c + self.noise(u, v)));
    }

    /// Generate `n` samples; returns `(signal, anomaly_mask)` where the
    /// mask is true on samples inside an anomaly event.
    pub fn generate(&self, n: usize, seed: u64) -> (Vec<f64>, Vec<bool>) {
        let mut draws = self.draws();
        self.draw_into(n, seed, &mut draws);
        let mut signal = Vec::with_capacity(n);
        self.signal_into(&draws, &mut signal);
        (signal, draws.mask)
    }

    /// Upper bounds on a sample's noise keyed by its `u` alone (see
    /// [`NoiseBound`]).
    pub fn noise_bound(&self) -> NoiseBound {
        let mut table = Box::new([0.0; TABLE_LEN]);
        for (bound, b) in table.iter_mut().zip(FIRST_BUCKET..=LAST_BUCKET) {
            let u_lo = f64::from_bits(b << BUCKET_SHIFT);
            let r = (-2.0 * u_lo.ln()).max(0.0).sqrt();
            *bound = self.noise_sigma.abs() * r * (1.0 + BOUND_SLACK);
        }
        NoiseBound { table }
    }
}

/// Mantissa bits below a [`NoiseBound`] bucket: buckets split each binade
/// of `u` into 64.
const BUCKET_SHIFT: u32 = 52 - 6;
/// Bucket of the smallest `u` a draw yields, 2⁻⁵³ (biased exponent 970).
const FIRST_BUCKET: u64 = (1023 - 53) << 6;
/// Bucket of `u = 1`.
const LAST_BUCKET: u64 = 1023 << 6;
/// [`NoiseBound`]'s table length: the buckets rounded up to a power of two,
/// so a masked index needs no bounds check (and the lookup no branch).
const TABLE_LEN: usize = ((LAST_BUCKET - FIRST_BUCKET) as usize + 1).next_power_of_two();
/// Relative slack on each bound. Why: the signal's noise is computed as
/// `σ · sqrt(-2 ln u) · cos(τv)` in f64, with `ln` within an ulp and each
/// other step rounded once, so it can exceed the real-valued bound by a few
/// ulps (~1e-15 relative); 1e-9 covers that with room to spare.
const BOUND_SLACK: f64 = 1e-9;

/// Per-sample noise bounds without a transcendental call per sample: for
/// each bucket of `u` (binade plus top 6 mantissa bits), the bound
/// `|σ z| ≤ σ · sqrt(-2 ln u_lo)` at the bucket's lower edge `u_lo`, which
/// holds for every `u` in the bucket because `-ln` falls as `u` grows.
#[derive(Clone, Debug)]
pub struct NoiseBound {
    table: Box<[f64; TABLE_LEN]>,
}

impl NoiseBound {
    /// An upper bound on the noise of a sample drawn with this `u`, for
    /// any `v`; `u` must be a [`SignalDraws::u`] value.
    #[inline]
    pub fn at(&self, u: f64) -> f64 {
        let bucket = (u.to_bits() >> BUCKET_SHIFT).wrapping_sub(FIRST_BUCKET);
        debug_assert!(
            bucket <= LAST_BUCKET - FIRST_BUCKET,
            "u = {u} is not a draw"
        );
        self.table[bucket as usize & (TABLE_LEN - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The single-loop generator `generate` replaced: chance, carrier,
    /// gain and a `mu + sigma * normal()` noise draw (`mu` = 0) per
    /// sample. Kept verbatim as the reference.
    fn generate_reference(g: &SignalGen, n: usize, seed: u64) -> (Vec<f64>, Vec<bool>) {
        let mut rng = Rng64::new(seed);
        let mut signal = Vec::with_capacity(n);
        let mut mask = vec![false; n];
        let mut anomaly_left = 0usize;
        for (i, anomalous) in mask.iter_mut().enumerate() {
            if anomaly_left == 0 && rng.chance(g.anomaly_rate) {
                anomaly_left = g.anomaly_len;
            }
            let phase = (i % g.period) as f64 / g.period as f64;
            let carrier = g.amplitude * (std::f64::consts::TAU * phase).sin();
            let gain = if anomaly_left > 0 {
                *anomalous = true;
                anomaly_left -= 1;
                g.anomaly_gain
            } else {
                1.0
            };
            signal.push(carrier * gain + (0.0 + g.noise_sigma * rng.normal()));
        }
        (signal, mask)
    }

    #[test]
    fn generate_matches_the_reference_loop_bit_for_bit() {
        let gens = [
            SignalGen::default(),
            SignalGen {
                anomaly_rate: 0.05,
                anomaly_len: 5,
                period: 50,
                ..SignalGen::default()
            },
        ];
        for g in &gens {
            for seed in [0, 1, 7, 0xDEAD_BEEF, u64::MAX] {
                for n in [0, 1, 63, 250, 1_001] {
                    let (s, m) = g.generate(n, seed);
                    let (rs, rm) = generate_reference(g, n, seed);
                    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&s), bits(&rs), "seed {seed} n {n}");
                    assert_eq!(m, rm, "seed {seed} n {n}");
                }
            }
        }
    }

    #[test]
    fn draw_into_reuses_buffers_and_reports_any_anomaly() {
        let g = SignalGen {
            anomaly_rate: 0.01,
            ..SignalGen::default()
        };
        let mut d = g.draws();
        for (n, seed) in [(500, 1), (100, 2), (700, 3)] {
            let any = g.draw_into(n, seed, &mut d);
            let (s, mask) = g.generate(n, seed);
            assert_eq!(any, mask.iter().any(|&m| m));
            assert_eq!(d.mask, mask);
            let mut again = Vec::new();
            g.signal_into(&d, &mut again);
            assert_eq!(again, s);
        }
    }

    /// Each lane's least onset draw over `n` samples, were no onset to
    /// fire: the first of every sample's three draws.
    fn least_onset(n: usize, seed: u64) -> u64 {
        let mut r = Rng64::new(seed);
        let draws = (0..n).map(|_| {
            let k = r.next_u64() >> 11;
            r.normal_uv();
            k
        });
        draws.min().unwrap_or(u64::MAX)
    }

    #[test]
    fn running_minimum_onset_is_exact_at_the_cut() {
        let n = 250;
        let seeds: [u64; LANES] = std::array::from_fn(|l| 1_000 + l as u64);
        let least: Vec<u64> = seeds.iter().map(|&seed| least_onset(n, seed)).collect();
        for (edge, &m) in least.iter().enumerate() {
            // Rates whose cut sits one below, at and one above lane
            // `edge`'s least draw: `k / 2⁵³` is exact, so its cut is `k`.
            for k in [m - 1, m, m + 1] {
                let g = SignalGen {
                    anomaly_rate: k as f64 / (1u64 << 53) as f64,
                    ..SignalGen::default()
                };
                assert_eq!(chance_cut(g.anomaly_rate), k);
                let mut d = g.draws();
                let got = g.draw_lanes(n, &seeds, &d.clone(), |_, _, _| {});
                for (l, &seed) in seeds.iter().enumerate() {
                    let at = format!("edge lane {edge}, cut {k}, lane {l}");
                    assert_eq!(got[l], g.draw_into(n, seed, &mut d), "{at}");
                    assert_eq!(got[l], least[l] < k, "{at}");
                }
            }
        }
    }

    /// Every lane's `clean` and `u`, one row per sample.
    type Rows = Vec<([f64; LANES], [f64; LANES])>;

    #[inline(always)]
    fn exact_rows(
        g: &SignalGen,
        n: usize,
        seeds: &[u64; LANES],
        table: &SignalDraws,
        rows: &mut Rows,
    ) -> [bool; LANES] {
        rows.clear();
        g.draw_lanes_exact(n, seeds, table, |i, clean, u| {
            assert_eq!(i, rows.len());
            rows.push((*clean, *u));
        })
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn exact_rows_avx2(
        g: &SignalGen,
        n: usize,
        seeds: &[u64; LANES],
        table: &SignalDraws,
        rows: &mut Rows,
    ) -> [bool; LANES] {
        exact_rows(g, n, seeds, table, rows)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn exact_rows_avx512(
        g: &SignalGen,
        n: usize,
        seeds: &[u64; LANES],
        table: &SignalDraws,
        rows: &mut Rows,
    ) -> [bool; LANES] {
        exact_rows(g, n, seeds, table, rows)
    }

    /// The builds of `draw_lanes_exact` this CPU runs.
    fn builds() -> Vec<&'static str> {
        let mut builds = vec!["plain"];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                builds.push("avx2");
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                builds.push("avx512f");
            }
        }
        builds
    }

    /// `draw_lanes_exact` on `batches` batches of chained seeds, every
    /// build, against `draw_into` lane by lane: `has_anomaly`, `clean`
    /// and `u`, bit for bit. Returns the lanes with an anomaly.
    fn check_exact_lanes(batches: u64) -> u64 {
        let mut anomalous = 0;
        let mut rows = Rows::new();
        let mut seed = 5u64;
        for rate in [0.0, 2e-4, 2e-2, 0.2, 1.0] {
            for n in [250, 77, 5] {
                for len in [0, 1, 16, n + 5] {
                    let g = SignalGen {
                        anomaly_rate: rate,
                        anomaly_len: len,
                        period: 50,
                        ..SignalGen::default()
                    };
                    let (table, mut d) = (g.draws(), g.draws());
                    for _ in 0..batches {
                        let seeds = std::array::from_fn(|_| {
                            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(7);
                            seed
                        });
                        for build in builds() {
                            let any = match build {
                                #[cfg(target_arch = "x86_64")]
                                // SAFETY: `builds` lists AVX2 only where the CPU has it.
                                "avx2" => unsafe {
                                    exact_rows_avx2(&g, n, &seeds, &table, &mut rows)
                                },
                                #[cfg(target_arch = "x86_64")]
                                // SAFETY: `builds` lists AVX-512F only where the CPU has it.
                                "avx512f" => unsafe {
                                    exact_rows_avx512(&g, n, &seeds, &table, &mut rows)
                                },
                                _ => exact_rows(&g, n, &seeds, &table, &mut rows),
                            };
                            assert_eq!(rows.len(), n);
                            for (l, &seed) in seeds.iter().enumerate() {
                                let at =
                                    format!("{build}, rate {rate}, n {n}, len {len}, seed {seed}");
                                assert_eq!(any[l], g.draw_into(n, seed, &mut d), "{at}");
                                anomalous += u64::from(any[l]);
                                for (i, (clean, u)) in rows.iter().enumerate() {
                                    assert_eq!(
                                        clean[l].to_bits(),
                                        d.clean()[i].to_bits(),
                                        "{at}, sample {i}"
                                    );
                                    assert_eq!(
                                        u[l].to_bits(),
                                        d.u()[i].to_bits(),
                                        "{at}, sample {i}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        anomalous
    }

    #[test]
    fn draw_lanes_exact_matches_draw_into_lane_by_lane() {
        assert!(check_exact_lanes(3) > 0, "no lane had an anomaly");
    }

    #[test]
    #[ignore = "~100x the batches; CI runs it in release with --include-ignored"]
    fn draw_lanes_exact_matches_draw_into_lane_by_lane_large() {
        check_exact_lanes(300);
    }

    #[test]
    fn noise_bound_covers_every_draw() {
        let g = SignalGen::default();
        let nb = g.noise_bound();
        let mut d = g.draws();
        g.draw_into(100_000, 9, &mut d);
        for (&u, &v) in d.u.iter().zip(&d.v) {
            assert!(g.noise(u, v).abs() <= nb.at(u), "u={u} v={v}");
        }
        // The extremes of u's range: the bound is finite and tight at 1.
        assert_eq!(nb.at(1.0), 0.0);
        assert!(nb.at(0.5f64.powi(53)).is_finite());
    }

    #[test]
    fn deterministic_per_seed() {
        let g = SignalGen::default();
        assert_eq!(g.generate(1000, 5), g.generate(1000, 5));
        assert_ne!(g.generate(1000, 5).0, g.generate(1000, 6).0);
    }

    #[test]
    fn amplitude_roughly_matches() {
        let g = SignalGen {
            anomaly_rate: 0.0,
            noise_sigma: 0.0,
            ..SignalGen::default()
        };
        let (s, mask) = g.generate(640, 1);
        assert!(mask.iter().all(|&m| !m));
        let peak = s.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        assert!((peak - 1.0).abs() < 0.01, "peak={peak}");
    }

    #[test]
    fn anomalies_are_bigger_and_marked() {
        let g = SignalGen {
            anomaly_rate: 0.01,
            ..SignalGen::default()
        };
        let (s, mask) = g.generate(50_000, 2);
        let n_anom = mask.iter().filter(|&&m| m).count();
        assert!(n_anom > 100, "need anomalies to compare: {n_anom}");
        let rms = |xs: Vec<f64>| (xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64).sqrt();
        let anom: Vec<f64> = s
            .iter()
            .zip(&mask)
            .filter(|(_, &m)| m)
            .map(|(x, _)| *x)
            .collect();
        let norm: Vec<f64> = s
            .iter()
            .zip(&mask)
            .filter(|(_, &m)| !m)
            .map(|(x, _)| *x)
            .collect();
        assert!(rms(anom) > 1.5 * rms(norm));
    }

    #[test]
    fn anomaly_events_have_configured_length() {
        let g = SignalGen {
            anomaly_rate: 0.001,
            anomaly_len: 8,
            ..SignalGen::default()
        };
        let (_, mask) = g.generate(100_000, 3);
        // Count run lengths; all complete runs must be ≥8 (back-to-back
        // events can merge into longer runs).
        let mut runs = Vec::new();
        let mut len = 0;
        for &m in &mask {
            if m {
                len += 1;
            } else if len > 0 {
                runs.push(len);
                len = 0;
            }
        }
        assert!(!runs.is_empty());
        assert!(runs.iter().all(|&r| r >= 8), "short run found: {runs:?}");
    }
}
