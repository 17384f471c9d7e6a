//! §5.2.3 — pushing the Byzantine proportion over ⅓.
//!
//! Semi-active Byzantine validators can *refuse* to finalize even when
//! the ⅔ threshold is reachable, letting the leak keep draining honest
//! inactive validators. Their stake proportion over time (Eq. 11):
//!
//! ```text
//!                         β0·e^(−3t²/2²⁸)
//! β(t) = ─────────────────────────────────────────────────────────
//!        p0(1−β0) + (1−p0)(1−β0)·e^(−t²/2²⁵) + β0·e^(−3t²/2²⁸)
//! ```
//!
//! peaks at the ejection of the honest-inactive cohort (t = 4685), giving
//! (Eq. 13):
//!
//! ```text
//! β_max(p0, β0) = β0·E / (p0(1−β0) + β0·E),   E = e^(−3·4685²/2²⁸)
//! ```
//!
//! β_max ≥ ⅓ requires `β0 ≥ p0/(p0 + 2E)`; at `p0 = 0.5` the bound is
//! **β0 = 0.2421** (paper Fig. 7).

use crate::stake_model::{inactive_stake, semi_active_stake, PAPER_EJECT_INACTIVE, STAKE_0};

/// Eq. 11: the Byzantine stake proportion at epoch `t` on the branch with
/// honest proportion `p0` (before any ejection).
pub fn byzantine_proportion(p0: f64, beta0: f64, t: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p0));
    assert!((0.0..1.0).contains(&beta0));
    let byz = beta0 * semi_active_stake(t) / STAKE_0;
    let honest_active = p0 * (1.0 - beta0);
    let honest_inactive = if t >= PAPER_EJECT_INACTIVE {
        0.0
    } else {
        (1.0 - p0) * (1.0 - beta0) * inactive_stake(t) / STAKE_0
    };
    byz / (honest_active + honest_inactive + byz)
}

/// The semi-active decay factor at the honest-inactive ejection epoch:
/// `E = e^(−3·4685²/2²⁸)`.
pub fn ejection_decay_factor() -> f64 {
    semi_active_stake(PAPER_EJECT_INACTIVE) / STAKE_0
}

/// Eq. 13: the maximum Byzantine proportion, reached when the honest
/// inactive validators are ejected.
pub fn beta_max(p0: f64, beta0: f64) -> f64 {
    let e = ejection_decay_factor();
    beta0 * e / (p0 * (1.0 - beta0) + beta0 * e)
}

/// The minimum β₀ for which β_max(p0, β₀) ≥ ⅓ on the branch with honest
/// proportion `p0`: `β0 = p0/(p0 + 2E)`.
pub fn min_beta0_for_third(p0: f64) -> f64 {
    let e = ejection_decay_factor();
    p0 / (p0 + 2.0 * e)
}

/// The minimum β₀ for which the Byzantine proportion exceeds ⅓ on **both**
/// branches (the slower branch binds).
pub fn min_beta0_for_third_both_branches(p0: f64) -> f64 {
    min_beta0_for_third(p0).max(min_beta0_for_third(1.0 - p0))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the paper's Fig. 7 lower bound: β0 = 0.2421 at p0 = 0.5.
    #[test]
    fn lower_bound_is_0_2421() {
        let b = min_beta0_for_third(0.5);
        assert!((b - 0.2421).abs() < 5e-4, "bound = {b}");
        // paper's formula: 1/(1 + 4e^(−3·4685²/2²⁸))
        let direct = 1.0 / (1.0 + 4.0 * ejection_decay_factor());
        assert!((b - direct).abs() < 1e-12);
    }

    #[test]
    fn beta_starts_at_beta0_and_peaks_at_ejection() {
        let beta0 = 0.25;
        assert!((byzantine_proportion(0.5, beta0, 0.0) - beta0).abs() < 1e-12);
        let before = byzantine_proportion(0.5, beta0, PAPER_EJECT_INACTIVE - 1.0);
        let at = byzantine_proportion(0.5, beta0, PAPER_EJECT_INACTIVE);
        assert!(at > before, "ejection jump: {before} → {at}");
        // Eq. 13 equals Eq. 11 at the ejection epoch
        assert!((at - beta_max(0.5, beta0)).abs() < 1e-9);
    }

    #[test]
    fn exceeding_third_monotone_in_beta0() {
        assert!(beta_max(0.5, 0.24) < 1.0 / 3.0);
        assert!(beta_max(0.5, 0.25) > 1.0 / 3.0);
        // boundary value is exact
        let b = min_beta0_for_third(0.5);
        assert!((beta_max(0.5, b) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn even_split_is_optimal_for_both_branches() {
        // For the attack to work on both branches the binding constraint
        // is max(p0, 1−p0); p0 = 0.5 minimizes it.
        let at_half = min_beta0_for_third_both_branches(0.5);
        for p0 in [0.3, 0.4, 0.6, 0.7] {
            assert!(min_beta0_for_third_both_branches(p0) > at_half);
        }
    }
}
