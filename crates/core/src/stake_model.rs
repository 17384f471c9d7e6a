//! The paper's continuous stake model (§4.3).
//!
//! During an inactivity leak, modelling the per-epoch penalty
//! `s(t+1) = s(t) − I(t)·s(t)/2²⁶` as the ODE `s′ = −I·s/2²⁶` (Eq. 3)
//! yields closed forms for the three behaviour classes:
//!
//! * active: `s(t) = s₀`;
//! * semi-active: `I(t) = 3t/2` ⇒ `s(t) = s₀·e^(−3t²/2²⁸)`;
//! * inactive: `I(t) = 4t` ⇒ `s(t) = s₀·e^(−t²/2²⁵)`.
//!
//! Ejection happens when the stake falls to 16.75 ETH (effective balance
//! 16 ETH under hysteresis). The paper quotes ejection epochs **4685**
//! (inactive) and **7652** (semi-active); the self-consistent roots of its
//! own closed forms are 4660.6 and 7610.7 — a ~0.5 % gap caused by the
//! 1-ETH effective-balance staircase, which slows the decay slightly in
//! the real (discrete) protocol. Both sets of constants are exposed; the
//! paper's values are the defaults everywhere a table/figure is
//! regenerated so the reproduction matches the publication.

use serde::Serialize;

/// Initial stake (ETH).
pub(crate) const STAKE_0: f64 = 32.0;

/// Ejection threshold on the actual balance (ETH): effective balance
/// reaches 16 ETH when the balance drops below 16 + 1 − 0.25.
pub(crate) const EJECTION_STAKE: f64 = 16.75;

/// Paper's ejection epoch for always-inactive validators (Fig. 2).
pub(crate) const PAPER_EJECT_INACTIVE: f64 = 4685.0;

/// Validator behaviour classes of §4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum StakeBehavior {
    /// Active every epoch.
    Active,
    /// Active every other epoch.
    SemiActive,
    /// Never active.
    Inactive,
}

impl StakeBehavior {
    /// Continuous stake `s(t)` in ETH (paper §4.3), **without** ejection
    /// censoring.
    pub fn stake(self, t: f64) -> f64 {
        match self {
            StakeBehavior::Active => STAKE_0,
            StakeBehavior::SemiActive => STAKE_0 * (-3.0 * t * t / 2f64.powi(28)).exp(),
            StakeBehavior::Inactive => STAKE_0 * (-t * t / 2f64.powi(25)).exp(),
        }
    }

    /// Continuous stake with ejection: 0 once the stake falls below
    /// 16.75 ETH.
    pub fn stake_censored(self, t: f64) -> f64 {
        let s = self.stake(t);
        if s < EJECTION_STAKE {
            0.0
        } else {
            s
        }
    }

    /// The epoch at which this behaviour's stake reaches the ejection
    /// threshold (`None` for active validators).
    ///
    /// These are the *self-consistent* roots of the closed forms (4660.6
    /// and 7610.7); the paper's rounded constants are 4685 and 7652.
    pub fn ejection_epoch(self) -> Option<f64> {
        let log_ratio = (STAKE_0 / EJECTION_STAKE).ln();
        match self {
            StakeBehavior::Active => None,
            StakeBehavior::SemiActive => Some((2f64.powi(28) * log_ratio / 3.0).sqrt()),
            StakeBehavior::Inactive => Some((2f64.powi(25) * log_ratio).sqrt()),
        }
    }
}

/// Stake of a semi-active validator at epoch `t` (ETH) — shorthand used
/// throughout §5.
pub(crate) fn semi_active_stake(t: f64) -> f64 {
    StakeBehavior::SemiActive.stake(t)
}

/// Stake of an inactive validator at epoch `t` (ETH).
pub(crate) fn inactive_stake(t: f64) -> f64 {
    StakeBehavior::Inactive.stake(t)
}

/// Which inactivity-penalty semantics a trajectory uses (see
/// `ChainConfig::paper_inactivity_penalties` in `ethpos-types`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PenaltySemantics {
    /// Paper Eq. 2: the penalty applies every epoch while the score is
    /// positive.
    Paper,
    /// Bellatrix spec: the penalty applies only in epochs whose
    /// timely-target flag was missed.
    Spec,
}

impl PenaltySemantics {
    /// Short identifier used by tables and the CLI `--grid semantics=`
    /// axis.
    ///
    /// ```
    /// use ethpos_core::PenaltySemantics;
    ///
    /// assert_eq!(PenaltySemantics::Paper.id(), "paper");
    /// assert_eq!(PenaltySemantics::from_id("spec"), Some(PenaltySemantics::Spec));
    /// assert_eq!(PenaltySemantics::from_id("bogus"), None);
    /// ```
    pub fn id(self) -> &'static str {
        match self {
            PenaltySemantics::Paper => "paper",
            PenaltySemantics::Spec => "spec",
        }
    }

    /// Parses [`PenaltySemantics::id`] back.
    pub fn from_id(id: &str) -> Option<Self> {
        match id {
            "paper" => Some(PenaltySemantics::Paper),
            "spec" => Some(PenaltySemantics::Spec),
            _ => None,
        }
    }
}

/// Serializes as [`PenaltySemantics::id`] (`"paper"` / `"spec"`), so the
/// JSON value round-trips through the CLI's `--grid semantics=` axis.
impl Serialize for PenaltySemantics {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.id().into())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The denominator of the per-epoch inactivity penalty, `2²⁶`.
    const LEAK_DENOMINATOR: f64 = 67_108_864.0;

    /// Paper's ejection epoch for semi-active validators (Fig. 2; §5.3 uses
    /// 7653 for the attack's Byzantine validators).
    const PAPER_EJECT_SEMI_ACTIVE: f64 = 7652.0;

    /// Discrete reference implementation of the §4 update rule (spec
    /// arithmetic in ETH floats, no effective-balance staircase): used in
    /// tests to bound the ODE approximation error.
    fn discrete_stake_trajectory(behavior: StakeBehavior, epochs: u64) -> Vec<f64> {
        discrete_stake_trajectory_with(behavior, epochs, PenaltySemantics::Paper)
    }

    /// [`discrete_stake_trajectory`] with explicit penalty semantics
    /// (paper Eq. 2 vs Bellatrix `get_inactivity_penalty_deltas`).
    fn discrete_stake_trajectory_with(
        behavior: StakeBehavior,
        epochs: u64,
        semantics: PenaltySemantics,
    ) -> Vec<f64> {
        let mut s = STAKE_0;
        let mut score: f64 = 0.0;
        let mut out = Vec::with_capacity(epochs as usize + 1);
        out.push(s);
        for e in 0..epochs {
            let active = match behavior {
                StakeBehavior::Active => true,
                StakeBehavior::SemiActive => e % 2 == 0,
                StakeBehavior::Inactive => false,
            };
            if active {
                score = (score - 1.0).max(0.0);
            } else {
                score += 4.0;
            }
            let pays = match semantics {
                PenaltySemantics::Paper => true,
                PenaltySemantics::Spec => !active,
            };
            if pays {
                s -= score * s / LEAK_DENOMINATOR;
            }
            out.push(s);
        }
        out
    }

    /// The spec-faithful semi-active stake: the penalty lands only on the
    /// inactive epochs, halving the decay exponent relative to the paper:
    /// `s(t) ≈ s₀·e^(−3t²/2²⁹)` (see EXPERIMENTS.md, finding 1).
    pub(crate) fn semi_active_stake_spec(t: f64) -> f64 {
        STAKE_0 * (-3.0 * t * t / 2f64.powi(29)).exp()
    }

    /// Spec-faithful semi-active ejection epoch (`≈ 10 764`, vs the paper's
    /// 7652).
    fn semi_active_ejection_epoch_spec() -> f64 {
        (2f64.powi(29) * (STAKE_0 / EJECTION_STAKE).ln() / 3.0).sqrt()
    }

    #[test]
    fn active_stake_is_constant() {
        assert_eq!(StakeBehavior::Active.stake(0.0), 32.0);
        assert_eq!(StakeBehavior::Active.stake(5000.0), 32.0);
        assert_eq!(StakeBehavior::Active.ejection_epoch(), None);
    }

    #[test]
    fn ejection_epochs_match_closed_forms() {
        let inactive = StakeBehavior::Inactive.ejection_epoch().unwrap();
        let semi = StakeBehavior::SemiActive.ejection_epoch().unwrap();
        assert!((inactive - 4660.58).abs() < 0.1, "inactive: {inactive}");
        assert!((semi - 7610.70).abs() < 0.1, "semi: {semi}");
        // paper's rounded constants sit within 0.6% of the closed forms
        assert!((inactive - PAPER_EJECT_INACTIVE).abs() / PAPER_EJECT_INACTIVE < 0.006);
        assert!((semi - PAPER_EJECT_SEMI_ACTIVE).abs() / PAPER_EJECT_SEMI_ACTIVE < 0.006);
    }

    #[test]
    fn censored_stake_drops_to_zero_at_ejection() {
        let t = StakeBehavior::Inactive.ejection_epoch().unwrap();
        assert!(StakeBehavior::Inactive.stake_censored(t - 1.0) > 16.0);
        assert_eq!(StakeBehavior::Inactive.stake_censored(t + 1.0), 0.0);
    }

    #[test]
    fn ode_tracks_discrete_update_within_tolerance() {
        // The ODE approximation drifts < 0.5% from the exact discrete
        // recurrence over 4000 epochs.
        for behavior in [StakeBehavior::SemiActive, StakeBehavior::Inactive] {
            let discrete = discrete_stake_trajectory(behavior, 4000);
            for &t in &[500.0f64, 1000.0, 2000.0, 4000.0] {
                let ode = behavior.stake(t);
                let exact = discrete[t as usize];
                let rel = (ode - exact).abs() / exact;
                assert!(
                    rel < 0.005,
                    "{behavior:?} at {t}: ode {ode:.4} vs discrete {exact:.4} ({rel:.5})"
                );
            }
        }
    }

    #[test]
    fn spec_semantics_halves_the_semi_active_exponent() {
        // Over 4000 epochs the spec-semantics trajectory tracks
        // e^(−3t²/2²⁹) within 0.5%, i.e. decays half as fast (in log) as
        // the paper's model.
        let spec =
            discrete_stake_trajectory_with(StakeBehavior::SemiActive, 4000, PenaltySemantics::Spec);
        for &t in &[1000.0f64, 2000.0, 4000.0] {
            let model = semi_active_stake_spec(t);
            let exact = spec[t as usize];
            let rel = (model - exact).abs() / exact;
            assert!(
                rel < 0.005,
                "t={t}: model {model:.4} vs discrete {exact:.4}"
            );
        }
        // always-inactive is unaffected by the semantics choice
        let a =
            discrete_stake_trajectory_with(StakeBehavior::Inactive, 2000, PenaltySemantics::Spec);
        let b =
            discrete_stake_trajectory_with(StakeBehavior::Inactive, 2000, PenaltySemantics::Paper);
        assert_eq!(a, b);
    }

    #[test]
    fn spec_semi_active_ejection_beyond_ten_thousand_epochs() {
        let e = semi_active_ejection_epoch_spec();
        assert!((10762.0..10765.0).contains(&e), "spec ejection at {e}");
        assert!(e > 1.4 * PAPER_EJECT_SEMI_ACTIVE);
    }

    #[test]
    fn stake_ordering_active_semi_inactive() {
        for t in [100.0, 1000.0, 3000.0] {
            let a = StakeBehavior::Active.stake(t);
            let s = StakeBehavior::SemiActive.stake(t);
            let i = StakeBehavior::Inactive.stake(t);
            assert!(a > s && s > i, "ordering violated at t={t}");
        }
    }
}
