//! Gauss error function.
//!
//! `erf` is required by the paper's Eq. 19 (the CDF of the log-normal
//! stake law under the probabilistic bouncing attack). The implementation
//! uses the Chebyshev-fitted rational approximation of `erfc` (Numerical
//! Recipes §6.2), whose relative error is below `1.2 × 10⁻⁷` everywhere —
//! far below every tolerance used in the reproduction.

/// Complementary error function `erfc(x) = 1 − erf(x)`.
pub(crate) fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 2.0 / (2.0 + z);
    let ty = 4.0 * t - 2.0;

    // Chebyshev coefficients (Numerical Recipes, 3rd ed., erfc_chebyshev).
    const COF: [f64; 28] = [
        -1.3026537197817094,
        6.419_697_923_564_902e-1,
        1.9476473204185836e-2,
        -9.561_514_786_808_63e-3,
        -9.46595344482036e-4,
        3.66839497852761e-4,
        4.2523324806907e-5,
        -2.0278578112534e-5,
        -1.624290004647e-6,
        1.303655835580e-6,
        1.5626441722e-8,
        -8.5238095915e-8,
        6.529054439e-9,
        5.059343495e-9,
        -9.91364156e-10,
        -2.27365122e-10,
        9.6467911e-11,
        2.394038e-12,
        -6.886027e-12,
        8.94487e-13,
        3.13092e-13,
        -1.12708e-13,
        3.81e-16,
        7.106e-15,
        -1.523e-15,
        -9.4e-17,
        1.21e-16,
        -2.8e-17,
    ];

    let mut d = 0.0f64;
    let mut dd = 0.0f64;
    for &c in COF.iter().rev().take(COF.len() - 1) {
        let tmp = d;
        d = ty * d - dd + c;
        dd = tmp;
    }
    let ans = t * (-z * z + 0.5 * (COF[0] + ty * d) - dd).exp();

    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Error function `erf(x)`.
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::f64::consts::SQRT_2;
    use proptest::prelude::*;

    /// Reference values computed with mpmath at 50 digits.
    const REFS: &[(f64, f64)] = &[
        (0.0, 0.0),
        (0.1, 0.1124629160182849),
        (0.5, 0.5204998778130465),
        (1.0, 0.8427007929497149),
        (1.5, 0.9661051464753107),
        (2.0, 0.9953222650189527),
        (3.0, 0.9999779095030014),
        (-1.0, -0.8427007929497149),
        (-2.5, -0.999593047982555),
    ];

    #[test]
    fn erf_matches_reference_values() {
        for &(x, want) in REFS {
            let got = erf(x);
            assert!((got - want).abs() < 5e-8, "erf({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn erfc_complements_erf() {
        for x in [-3.0, -1.0, 0.0, 0.3, 1.7, 4.0] {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn erfc_key_points() {
        // Φ(x) = erfc(−x/√2)/2 at its 0.5, 0.975/0.025 and ±8σ points.
        let z975 = 1.959_963_984_540_054 / SQRT_2;
        assert!((erfc(0.0) - 1.0).abs() < 2e-12);
        assert!((erf(z975) - 0.95).abs() < 2e-7);
        assert!((erfc(z975) - 0.05).abs() < 2e-7);
        assert!((erfc(-z975) - 1.95).abs() < 2e-7);
        assert!(erfc(-8.0 / SQRT_2) > 1.999_999_98);
        assert!(erfc(8.0 / SQRT_2) < 2e-8);
    }

    proptest! {
        #[test]
        fn prop_erf_is_odd(x in -5.0f64..5.0) {
            prop_assert!((erf(x) + erf(-x)).abs() < 1e-9);
        }

        #[test]
        fn prop_erf_monotone(a in -5.0f64..5.0, d in 1e-3f64..1.0) {
            prop_assert!(erf(a + d) > erf(a));
        }

        #[test]
        fn prop_erfc_in_range(x in -40.0f64..40.0) {
            let c = erfc(-x / SQRT_2);
            prop_assert!((0.0..=2.0).contains(&c));
        }
    }
}
