//! The quantitative check behind Figure 5's "approximately linear" scalability claim.

/// Least-squares linear fit `y ≈ slope·x + intercept`, returning
/// `(slope, intercept, r²)` — used to verify Figure 5's "approximately
/// linear" scalability claim quantitatively.
///
/// # Panics
/// Panics unless both slices have equal length ≥ 2.
pub fn linear_fit(x: &[f64], y: &[f64]) -> (f64, f64, f64) {
    assert_eq!(x.len(), y.len(), "x/y length mismatch");
    assert!(x.len() >= 2, "need at least two points");
    let n = x.len() as f64;
    let mean_x = x.iter().sum::<f64>() / n;
    let mean_y = y.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&xi, &yi) in x.iter().zip(y) {
        sxx += (xi - mean_x) * (xi - mean_x);
        sxy += (xi - mean_x) * (yi - mean_y);
        syy += (yi - mean_y) * (yi - mean_y);
    }
    assert!(sxx > 0.0, "x values are constant");
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    (slope, intercept, r2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_recovers_exact_line() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [3.0, 5.0, 7.0, 9.0];
        let (slope, intercept, r2) = linear_fit(&x, &y);
        assert!((slope - 2.0).abs() < 1e-12);
        assert!((intercept - 1.0).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_r2_drops_with_noise() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [1.0, 4.0, 2.0, 5.0, 3.0];
        let (_, _, r2) = linear_fit(&x, &y);
        assert!(r2 < 0.7);
    }
}
