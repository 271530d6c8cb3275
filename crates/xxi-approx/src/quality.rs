//! Quality metrics for approximate computation.

/// Root-mean-square error between a reference and an approximation.
pub fn rmse(reference: &[f64], approx: &[f64]) -> f64 {
    assert_eq!(reference.len(), approx.len());
    assert!(!reference.is_empty());
    let sum: f64 = reference
        .iter()
        .zip(approx)
        .map(|(r, a)| (r - a) * (r - a))
        .sum();
    (sum / reference.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_match() {
        let x = [1.0, -2.0, 3.0];
        assert_eq!(rmse(&x, &x), 0.0);
    }

    #[test]
    fn rmse_known_case() {
        let r = [0.0, 0.0, 0.0, 0.0];
        let a = [1.0, -1.0, 1.0, -1.0];
        assert!((rmse(&r, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_rejected() {
        rmse(&[1.0], &[1.0, 2.0]);
    }
}
