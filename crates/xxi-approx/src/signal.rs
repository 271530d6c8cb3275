//! Synthetic biometric-like signal generation.
//!
//! The paper's smart-sensor scenario (§2.1) filters "a nominal biometric
//! signal" for anomalies on-device. No public dataset ships with this
//! reproduction, so this generator synthesizes the equivalent: a periodic
//! carrier (heartbeat-like), Gaussian noise, baseline wander, and injected
//! anomaly events at known positions — giving the detection experiments a
//! labeled ground truth.

use serde::{Deserialize, Serialize};

use xxi_core::rng::Rng64;

/// Signal generator configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
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
    /// whether any sample is anomalous. This is the one place that knows
    /// the draw order: per sample, the anomaly-onset chance (only outside
    /// an event), then [`Rng64::normal_uv`]'s `u` and `v`.
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
        let table = (FIRST_BUCKET..=LAST_BUCKET)
            .map(|b| {
                let u_lo = f64::from_bits(b << BUCKET_SHIFT);
                let r = (-2.0 * u_lo.ln()).max(0.0).sqrt();
                self.noise_sigma.abs() * r * (1.0 + BOUND_SLACK)
            })
            .collect();
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
    table: Vec<f64>,
}

impl NoiseBound {
    /// An upper bound on the noise of a sample drawn with this `u`, for
    /// any `v`; `u` must be a [`SignalDraws::u`] value.
    #[inline]
    pub fn at(&self, u: f64) -> f64 {
        self.table[((u.to_bits() >> BUCKET_SHIFT) - FIRST_BUCKET) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The single-loop generator `generate` replaced: chance, carrier,
    /// gain and `normal_with` per sample. Kept verbatim as the reference.
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
            signal.push(carrier * gain + rng.normal_with(0.0, g.noise_sigma));
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
