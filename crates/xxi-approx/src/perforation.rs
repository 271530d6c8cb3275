//! Loop perforation.
//!
//! Execute only every `k`-th loop iteration and interpolate the rest — the
//! classic compiler-level approximation (Sidiroglou et al., 2011). For
//! smooth kernels (filters, reductions over redundant data) quality decays
//! gracefully while work drops by `1/k` — the shape experiment E14 sweeps.

/// A moving-mean filter of window `w` over `signal`, perforated by factor
/// `k`: the filter is evaluated on every `k`-th sample and intermediate
/// outputs are linearly interpolated. `k = 1` is the exact filter.
/// Returns `(output, evaluations)` where `evaluations` counts actual
/// window computations (the work metric).
pub fn perforated_mean_filter(signal: &[f64], w: usize, k: usize) -> (Vec<f64>, u64) {
    assert!(w >= 1 && k >= 1 && !signal.is_empty());
    let n = signal.len();
    let eval = |i: usize| -> f64 {
        let lo = i.saturating_sub(w - 1);
        let window = &signal[lo..=i];
        window.iter().sum::<f64>() / window.len() as f64
    };
    let mut out = vec![0.0; n];
    let mut evals = 0u64;
    let mut anchors: Vec<usize> = (0..n).step_by(k).collect();
    // xxi-allow: panic-path -- anchors always contains 0
    if *anchors.last().unwrap() != n - 1 {
        anchors.push(n - 1);
    }
    for &i in &anchors {
        out[i] = eval(i);
        evals += 1;
    }
    // Linear interpolation between anchors.
    for pair in anchors.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        for i in (a + 1)..b {
            let t = (i - a) as f64 / (b - a) as f64;
            out[i] = out[a] * (1.0 - t) + out[b] * t;
        }
    }
    (out, evals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::rmse;
    use crate::signal::SignalGen;

    #[test]
    fn k1_is_exact() {
        let (s, _) = SignalGen::default().generate(1000, 1);
        let (exact, evals) = perforated_mean_filter(&s, 8, 1);
        assert_eq!(evals, 1000);
        // Spot-check one window by hand.
        let manual: f64 = s[0..=7].iter().sum::<f64>() / 8.0;
        assert!((exact[7] - manual).abs() < 1e-12);
    }

    #[test]
    fn work_drops_as_one_over_k() {
        let (s, _) = SignalGen::default().generate(10_000, 2);
        let (_, e1) = perforated_mean_filter(&s, 8, 1);
        let (_, e4) = perforated_mean_filter(&s, 8, 4);
        let (_, e16) = perforated_mean_filter(&s, 8, 16);
        assert!((e1 as f64 / e4 as f64 - 4.0).abs() < 0.1);
        assert!((e1 as f64 / e16 as f64 - 16.0).abs() < 0.5);
    }

    #[test]
    fn quality_degrades_gracefully() {
        let (s, _) = SignalGen::default().generate(10_000, 3);
        let (exact, _) = perforated_mean_filter(&s, 8, 1);
        let (p2, _) = perforated_mean_filter(&s, 8, 2);
        let (p8, _) = perforated_mean_filter(&s, 8, 8);
        let e2 = rmse(&exact, &p2);
        let e8 = rmse(&exact, &p8);
        assert!(e2 < e8, "more perforation, more error");
        // Smooth kernel: even k=8 keeps RMSE well under the signal RMS.
        let sig_rms = (s.iter().map(|x| x * x).sum::<f64>() / s.len() as f64).sqrt();
        assert!(e8 < 0.5 * sig_rms, "e8={e8} rms={sig_rms}");
    }

    #[test]
    fn edge_cases() {
        let (out, evals) = perforated_mean_filter(&[5.0], 4, 8);
        assert_eq!(out, vec![5.0]);
        assert_eq!(evals, 1);
    }
}
