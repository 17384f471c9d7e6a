//! §5.1 — GST upper bound for Safety with only honest validators.
//!
//! Honest validators split across a partition with proportion `p0` on
//! branch 1. The ratio of active validators on that branch at epoch `t`
//! (Eq. 5):
//!
//! ```text
//! ratio(t) = p0 / (p0 + (1 − p0)·e^(−t²/2²⁵))
//! ```
//!
//! Finalization resumes when the ratio reaches ⅔, which happens at
//! (Eq. 6):
//!
//! ```text
//! t = min(√(2²⁵·[ln(2(1−p0)) − ln p0]), 4685)
//! ```
//!
//! With the honest validators split evenly (`p0 = 0.5`), both branches
//! regain finality at the ejection of the inactive cohort (epoch 4685)
//! and finalize conflicting checkpoints at **4686** — the paper's upper
//! bound on GST for Safety.

use serde::Serialize;

use crate::stake_model::PAPER_EJECT_INACTIVE;

/// Eq. 5: ratio of active validators' stake on a branch where a
/// proportion `p0` of (honest) validators is active, at epoch `t`, with
/// ejection of the inactive cohort at the paper's epoch 4685.
pub fn active_ratio(p0: f64, t: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p0), "p0 must be in [0,1]");
    if t >= PAPER_EJECT_INACTIVE {
        return 1.0;
    }
    let decay = (-t * t / 2f64.powi(25)).exp();
    p0 / (p0 + (1.0 - p0) * decay)
}

/// Eq. 6: the epoch at which the ⅔ threshold is reached on the branch
/// holding a proportion `p0` of the active stake.
///
/// Returns 0 when `p0 ≥ 2/3` (finalization is immediate) and caps at the
/// inactive-cohort ejection epoch (4685).
pub fn two_thirds_epoch(p0: f64) -> f64 {
    assert!(p0 > 0.0 && p0 < 1.0, "p0 must be in (0,1)");
    if p0 >= 2.0 / 3.0 {
        return 0.0;
    }
    let arg = (2.0 * (1.0 - p0)).ln() - p0.ln();
    (2f64.powi(25) * arg).sqrt().min(PAPER_EJECT_INACTIVE)
}

/// The §5.1 headline: the epoch of finalization on **both** (conflicting)
/// branches — the slower branch's threshold epoch plus one epoch to
/// finalize the justified checkpoint.
pub fn conflicting_finalization_epoch(p0: f64) -> f64 {
    let slower = two_thirds_epoch(p0).max(two_thirds_epoch(1.0 - p0));
    slower + 1.0
}

/// A (t, ratio) series for Figure 3.
#[derive(Debug, Clone, Serialize)]
pub struct RatioSeries {
    /// The active proportion parameter.
    pub p0: f64,
    /// Epochs since the leak started.
    pub epochs: Vec<f64>,
    /// Eq. 5 ratio at each epoch.
    pub ratio: Vec<f64>,
}

/// Regenerates one Figure 3 curve: the active-validator ratio over
/// `0..=max_epoch` (step `step`), jumping to 1 at the ejection epoch.
pub fn figure3_series(p0: f64, max_epoch: f64, step: f64) -> RatioSeries {
    let mut epochs = Vec::new();
    let mut ratio = Vec::new();
    let mut t = 0.0;
    while t <= max_epoch {
        epochs.push(t);
        ratio.push(active_ratio(p0, t));
        t += step;
    }
    RatioSeries { p0, epochs, ratio }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_starts_at_p0_and_grows() {
        for p0 in [0.2, 0.3, 0.4, 0.5, 0.6] {
            assert!((active_ratio(p0, 0.0) - p0).abs() < 1e-12);
            assert!(active_ratio(p0, 100.0) > p0);
            assert!(active_ratio(p0, 2000.0) > active_ratio(p0, 1000.0));
        }
    }

    #[test]
    fn ratio_jumps_to_one_at_ejection() {
        assert!(active_ratio(0.3, PAPER_EJECT_INACTIVE - 1.0) < 1.0);
        assert_eq!(active_ratio(0.3, PAPER_EJECT_INACTIVE), 1.0);
    }

    /// Paper §5.1: for p0 = 0.6 the 2/3 threshold is crossed *before*
    /// ejection, at √(2²⁵·ln(4/3)) ≈ 3107.
    #[test]
    fn p06_reaches_two_thirds_at_3107() {
        let t = two_thirds_epoch(0.6);
        assert!((t - 3107.0).abs() < 1.0, "t = {t}");
    }

    /// Paper §5.1: for p0 ≤ 0.5 the threshold is only reached at the
    /// ejection epoch 4685.
    #[test]
    fn half_or_less_capped_at_ejection() {
        for p0 in [0.2, 0.3, 0.4, 0.5] {
            assert_eq!(two_thirds_epoch(p0), PAPER_EJECT_INACTIVE);
        }
    }

    /// Paper §5.1 headline: conflicting finalization at exactly 4686 for
    /// any split (the slower branch always waits for ejection).
    #[test]
    fn conflicting_finalization_at_4686() {
        for p0 in [0.2, 0.35, 0.5, 0.6] {
            assert_eq!(conflicting_finalization_epoch(p0), 4686.0);
        }
    }

    #[test]
    fn supermajority_finalizes_immediately() {
        assert_eq!(two_thirds_epoch(0.7), 0.0);
        // 2/3 exactly: ln(2(1-p0)) - ln(p0) = ln(2/3) - ln(2/3) = 0
        assert!(two_thirds_epoch(2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn figure3_series_shape() {
        let s = figure3_series(0.5, 8000.0, 10.0);
        assert_eq!(s.epochs.len(), s.ratio.len());
        assert!(s.ratio.first().unwrap() - 0.5 < 1e-9);
        assert_eq!(*s.ratio.last().unwrap(), 1.0);
        // monotone non-decreasing
        for w in s.ratio.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }
}
