//! Numeric helpers: the variance of a weight set.
//!
//! Weighted SimRank (§8.2 of the paper) needs the *variance* of the weight
//! set incident to a node: `spread(i) = exp(-variance(i))`. The paper does
//! not pin down sample vs population variance; we use population variance,
//! which is well-defined for a single-element set (zero) and matches the
//! worked examples (a node with equal incident weights has spread 1).

/// Population variance `Σ(x-μ)²/n` of a slice (0 for empty or
/// single-element slices), by Welford's streaming update — numerically
/// stable for long slices.
pub fn population_variance(values: &[f64]) -> f64 {
    let (mut count, mut mean, mut m2) = (0u64, 0.0f64, 0.0f64);
    for &x in values {
        count += 1;
        let delta = x - mean;
        mean += delta / count as f64;
        let delta2 = x - mean;
        m2 += delta * delta2;
    }
    if count < 2 {
        0.0
    } else {
        m2 / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_slices_have_zero_variance() {
        assert_eq!(population_variance(&[]), 0.0);
        assert_eq!(population_variance(&[42.0]), 0.0);
    }

    #[test]
    fn known_variance() {
        // Values 2, 4, 4, 4, 5, 5, 7, 9: mean 5, population variance 4.
        let vals = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((population_variance(&vals) - 4.0).abs() <= 1e-12);
        assert!((population_variance(&[1.0, 2.0, 3.0, 4.0]) - 1.25).abs() <= 1e-12);
    }

    #[test]
    fn constant_slice_has_zero_variance() {
        assert!(population_variance(&[3.5; 1000]).abs() <= 1e-12);
    }
}
