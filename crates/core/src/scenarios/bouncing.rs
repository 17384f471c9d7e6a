//! §5.3 — the probabilistic bouncing attack under the inactivity leak.
//!
//! Byzantine validators withhold votes and release them at the right time
//! to keep honest validators bouncing between two chains. The attack
//! needs (Eq. 14):
//!
//! ```text
//! (2 − 3β0)/(3(1 − β0)) < p0 < 2/(3(1 − β0))
//! ```
//!
//! and continues past epoch `k` with probability `(1 − (1−β0)^j)^k`
//! (a Byzantine proposer must land in the first `j` slots each epoch).
//!
//! An honest validator's inactivity score from one branch's view is a
//! random walk (+4 w.p. 1−p0, −1 w.p. p0), giving a Gaussian score law
//! (Eq. 16), a log-normal stake law (Eq. 18–19), and — after censoring at
//! the ejection threshold and the 32 ETH cap (Eq. 20–22) — the paper's
//! headline (Eq. 24): the probability that the Byzantine proportion
//! exceeds ⅓,
//!
//! ```text
//! P(t) = F̄(2β0/(1−β0) · s_B(t), t)
//! ```
//!
//! with `s_B` the semi-active Byzantine stake.

use serde::Serialize;

use crate::stake_model::{semi_active_stake, EJECTION_STAKE, STAKE_0};
use ethpos_stats::erf;

/// Eq. 14: the (open) interval of honest proportions `p0` for which the
/// bouncing attack can keep going — honest validators alone cannot
/// justify, Byzantine votes can tip either branch.
pub fn viability_window(beta0: f64) -> (f64, f64) {
    assert!((0.0..1.0).contains(&beta0));
    (
        (2.0 - 3.0 * beta0) / (3.0 * (1.0 - beta0)),
        2.0 / (3.0 * (1.0 - beta0)),
    )
}

/// True if `p0` satisfies Eq. 14 for `beta0`.
pub fn is_viable(p0: f64, beta0: f64) -> bool {
    let (lo, hi) = viability_window(beta0);
    lo < p0 && p0 < hi
}

/// Natural log of the attack-continuation probability for `k` epochs with
/// parameter `j`: `k·ln(1 − (1−β0)^j)`. Computed in log space — the paper
/// quotes 1.01×10⁻¹²¹ for β0 = 1/3, j = 8, k = 7000.
pub fn continuation_log_prob(beta0: f64, j: u32, k: u64) -> f64 {
    assert!((0.0..1.0).contains(&beta0));
    let per_epoch = 1.0 - (1.0 - beta0).powi(j as i32);
    k as f64 * per_epoch.ln()
}

/// Parameters of the §5.3 score/stake laws.
///
/// # Example
///
/// ```
/// use ethpos_core::scenarios::bouncing::BouncingLaw;
///
/// let law = BouncingLaw::new(0.5);
/// // At β0 = 1/3 the Eq. 24 probability is exactly one half.
/// let p = law.prob_exceed_third(1.0 / 3.0, 3000.0);
/// assert!((p - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Serialize)]
pub struct BouncingLaw {
    /// Probability of being on the observed branch each epoch.
    pub p0: f64,
    /// Drift of the score walk per epoch (paper: V = 3/2 at p0 = 0.5).
    pub v: f64,
    /// Diffusion coefficient (paper: D = 25·p0(1−p0)).
    pub d: f64,
}

impl BouncingLaw {
    /// Builds the law for a membership parameter `p0`.
    ///
    /// Under the Fig. 8 bounce the proportions alternate between the
    /// branches each epoch, so over two epochs a validator's score moves
    /// +8 / +3 / −2 with the Eq. 15 probabilities — mean exactly 3
    /// regardless of `p0` (the paper: *"p0 does not have much impact on
    /// the curve, it just changes the variance slightly"*). Hence
    /// `V = 3/2` always and `D = 25·p0(1−p0)`.
    pub fn new(p0: f64) -> Self {
        assert!(p0 > 0.0 && p0 < 1.0, "p0 in (0,1)");
        BouncingLaw {
            p0,
            v: 1.5,
            d: 25.0 * p0 * (1.0 - p0),
        }
    }

    /// Eq. 19: the (uncensored) CDF of the stake `s` at epoch `t`:
    ///
    /// ```text
    /// F(s,t) = 1/2 + 1/2·erf[(2²⁶·ln(s/32) + V·t²/2) / √(4/3·D·t³)]
    /// ```
    pub fn stake_cdf(&self, s: f64, t: f64) -> f64 {
        assert!(t > 0.0);
        if s <= 0.0 {
            return 0.0;
        }
        let num = 67_108_864.0 * (s / STAKE_0).ln() + self.v * t * t / 2.0;
        let den = (4.0 / 3.0 * self.d * t * t * t).sqrt();
        0.5 + 0.5 * erf(num / den)
    }

    /// Eq. 18: the (uncensored) stake density at epoch `t`.
    pub fn stake_pdf(&self, s: f64, t: f64) -> f64 {
        assert!(t > 0.0);
        if s <= 0.0 {
            return 0.0;
        }
        let var = 4.0 / 3.0 * self.d * t * t * t;
        let arg = 67_108_864.0 * (s / STAKE_0).ln() + self.v * t * t / 2.0;
        67_108_864.0 / s * (1.0 / (core::f64::consts::PI * var).sqrt()) * (-arg * arg / var).exp()
    }

    /// Eq. 22: the censored stake CDF `F̄(x, t)` accounting for ejection
    /// below 16.75 ETH (mass at 0) and the 32 ETH cap (mass at 32).
    pub fn censored_stake_cdf(&self, x: f64, t: f64) -> f64 {
        let a = EJECTION_STAKE;
        let b = STAKE_0;
        if x < 0.0 {
            return 0.0;
        }
        let fa = self.stake_cdf(a, t);
        if x < a {
            // only the ejected mass (at exactly 0) is ≤ x
            return fa;
        }
        if x < b {
            return self.stake_cdf(x, t);
        }
        1.0
    }

    /// Eq. 20–21 as data: the censored distribution 𝒫̄ at epoch `t` —
    /// point masses at 0 (ejected) and 32 (cap), plus the continuous
    /// density on (16.75, 32) sampled on `points` abscissae (Fig. 9).
    pub fn censored_distribution(&self, t: f64, points: usize) -> CensoredStakeDistribution {
        let a = EJECTION_STAKE;
        let b = STAKE_0;
        let mass_at_zero = self.stake_cdf(a, t);
        let mass_at_cap = 1.0 - self.stake_cdf(b, t);
        let mut stake = Vec::with_capacity(points);
        let mut density = Vec::with_capacity(points);
        for i in 0..points {
            let x = a + (b - a) * (i as f64 + 0.5) / points as f64;
            stake.push(x);
            density.push(self.stake_pdf(x, t));
        }
        CensoredStakeDistribution {
            t,
            mass_at_zero,
            mass_at_cap,
            stake,
            density,
        }
    }

    /// Eq. 24: the probability that the Byzantine proportion exceeds ⅓ at
    /// epoch `t`, i.e. `F̄(2β0/(1−β0)·s_B(t), t)`.
    pub fn prob_exceed_third(&self, beta0: f64, t: f64) -> f64 {
        assert!((0.0..1.0).contains(&beta0));
        let threshold = 2.0 * beta0 / (1.0 - beta0) * semi_active_stake(t);
        self.censored_stake_cdf(threshold, t)
    }
}

/// The censored stake distribution 𝒫̄ (paper Eq. 20–21, Fig. 9).
#[derive(Debug, Clone, Serialize)]
pub struct CensoredStakeDistribution {
    /// Epoch.
    pub t: f64,
    /// Probability mass at stake 0 (ejected validators).
    pub mass_at_zero: f64,
    /// Probability mass at the 32 ETH cap.
    pub mass_at_cap: f64,
    /// Stake abscissae in (16.75, 32).
    pub stake: Vec<f64>,
    /// Continuous density at each abscissa.
    pub density: Vec<f64>,
}

/// One Figure 10 curve: P[β(t) > 1/3] over epochs for a given β₀.
#[derive(Debug, Clone, Serialize)]
pub struct Fig10Curve {
    /// Initial Byzantine proportion.
    pub beta0: f64,
    /// Epochs.
    pub epochs: Vec<f64>,
    /// Eq. 24 at each epoch.
    pub prob: Vec<f64>,
}

/// Regenerates Figure 10: Eq. 24 over `1..=max_epoch` for each β₀
/// (paper grid: 1/3, 0.3333, 0.333, 0.33, 0.329, 0.3), p0 = 0.5.
pub fn figure10_curves(betas: &[f64], max_epoch: f64, step: f64) -> Vec<Fig10Curve> {
    let law = BouncingLaw::new(0.5);
    betas
        .iter()
        .map(|&beta0| {
            let mut epochs = Vec::new();
            let mut prob = Vec::new();
            let mut t = step.max(1.0);
            while t <= max_epoch {
                epochs.push(t);
                prob.push(law.prob_exceed_third(beta0, t));
                t += step;
            }
            Fig10Curve {
                beta0,
                epochs,
                prob,
            }
        })
        .collect()
}

/// The paper's Figure 10 β₀ grid.
pub fn paper_fig10_betas() -> Vec<f64> {
    vec![1.0 / 3.0, 0.3333, 0.333, 0.33, 0.329, 0.3]
}

/// Eq. 15: the distribution of an honest validator's inactivity-score
/// change over **two epochs** of bouncing, from one branch's view:
///
/// ```text
/// +8 with probability p0(1−p0)      (absent both epochs)
/// +3 with probability p0² + (1−p0)² (present exactly once)
/// −2 with probability p0(1−p0)      (present both epochs)
/// ```
pub fn score_transition_two_epochs(p0: f64) -> [(i64, f64); 3] {
    assert!(p0 > 0.0 && p0 < 1.0);
    let cross = p0 * (1.0 - p0);
    let same = p0 * p0 + (1.0 - p0) * (1.0 - p0);
    [(8, cross), (3, same), (-2, cross)]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the paper's continuation-probability example: for β0 = 1/3,
    /// j = 8, reaching epoch 7000 has probability 1.01×10⁻¹²¹.
    #[test]
    fn continuation_example_matches_paper() {
        let log10 = continuation_log_prob(1.0 / 3.0, 8, 7000) / core::f64::consts::LN_10;
        // 1.01e-121 ⇔ log10 ≈ −120.9957
        assert!(
            (log10 + 120.9957).abs() < 0.01,
            "log10 P = {log10}, paper: ≈ −121"
        );
    }

    /// Eq. 14 at β0 → 0 pins p0 → 2/3 (the paper's remark).
    #[test]
    fn viability_window_shrinks_to_two_thirds() {
        let (lo, hi) = viability_window(1e-9);
        assert!((lo - 2.0 / 3.0).abs() < 1e-6);
        assert!((hi - 2.0 / 3.0).abs() < 1e-6);
        // and is comfortably wide at β0 = 1/3: (1/2, 1)
        let (lo, hi) = viability_window(1.0 / 3.0);
        assert!((lo - 0.5).abs() < 1e-12);
        assert!((hi - 1.0).abs() < 1e-12);
        assert!(is_viable(0.6, 1.0 / 3.0));
        assert!(!is_viable(0.4, 1.0 / 3.0));
    }

    #[test]
    fn law_constants_match_paper_at_half() {
        let law = BouncingLaw::new(0.5);
        assert!((law.v - 1.5).abs() < 1e-12, "V = {}", law.v);
        assert!((law.d - 6.25).abs() < 1e-12, "D = {}", law.d);
        // V is p0-independent under the Fig. 8 alternation; D shrinks
        // away from p0 = 1/2.
        let skew = BouncingLaw::new(0.3);
        assert!((skew.v - 1.5).abs() < 1e-12);
        assert!(skew.d < 6.25);
    }

    /// At β0 = 1/3 the Eq. 24 threshold equals s_B, and since the stake
    /// law's median is s_B the probability is exactly 1/2 (the paper's
    /// explanation of the top Fig. 10 curve).
    #[test]
    fn beta_third_probability_is_half() {
        let law = BouncingLaw::new(0.5);
        for t in [500.0, 2000.0, 5000.0] {
            let p = law.prob_exceed_third(1.0 / 3.0, t);
            assert!((p - 0.5).abs() < 1e-9, "P({t}) = {p}");
        }
    }

    #[test]
    fn smaller_beta_smaller_probability() {
        let law = BouncingLaw::new(0.5);
        let t = 4000.0;
        let p333 = law.prob_exceed_third(0.333, t);
        let p33 = law.prob_exceed_third(0.33, t);
        let p30 = law.prob_exceed_third(0.30, t);
        assert!(p333 > p33 && p33 > p30, "{p333} > {p33} > {p30}");
        // paper fig 10: β0 = 0.3 is essentially zero until very late
        assert!(p30 < 1e-3, "p30 = {p30}");
    }

    #[test]
    fn stake_cdf_is_monotone_and_bounded() {
        let law = BouncingLaw::new(0.5);
        let t = 3000.0;
        let mut prev = 0.0;
        for i in 1..=32 {
            let s = i as f64;
            let f = law.stake_cdf(s, t);
            assert!((0.0..=1.0).contains(&f));
            assert!(f >= prev);
            prev = f;
        }
    }

    #[test]
    fn censored_cdf_has_point_masses() {
        let law = BouncingLaw::new(0.5);
        let t = 4024.0; // the paper's Fig. 9 epoch
        let below_ejection = law.censored_stake_cdf(10.0, t);
        let at_ejection = law.stake_cdf(EJECTION_STAKE, t);
        assert!((below_ejection - at_ejection).abs() < 1e-12);
        assert_eq!(law.censored_stake_cdf(32.0, t), 1.0);
        assert_eq!(law.censored_stake_cdf(-1.0, t), 0.0);
    }

    #[test]
    fn censored_distribution_integrates_to_one() {
        let law = BouncingLaw::new(0.5);
        let d = law.censored_distribution(4024.0, 4000);
        let width = (STAKE_0 - EJECTION_STAKE) / d.stake.len() as f64;
        let continuous: f64 = d.density.iter().map(|f| f * width).sum();
        let total = d.mass_at_zero + d.mass_at_cap + continuous;
        assert!(
            (total - 1.0).abs() < 1e-3,
            "total mass = {total} (0-mass {}, cap-mass {})",
            d.mass_at_zero,
            d.mass_at_cap
        );
    }

    /// Eq. 16: the Gaussian density of the inactivity score `I` at epoch
    /// `t` (the convolution of the paper's two random walks).
    fn score_density(law: &BouncingLaw, score: f64, t: f64) -> f64 {
        assert!(t > 0.0);
        let var = 4.0 * law.d * t;
        ((-(score - law.v * t).powi(2)) / var).exp() / (core::f64::consts::PI * var).sqrt()
    }

    #[test]
    fn score_density_is_normalized() {
        let law = BouncingLaw::new(0.5);
        let t = 1000.0;
        let integral =
            ethpos_stats::integrate_simpson(|x| score_density(&law, x, t), -2000.0, 6000.0, 8000);
        assert!((integral - 1.0).abs() < 1e-6, "∫φ = {integral}");
    }

    #[test]
    fn figure10_has_rise_before_byzantine_ejection() {
        // The probability rises abruptly right before the Byzantine
        // ejection (paper: epoch 7653).
        let curves = figure10_curves(&[0.33], 7600.0, 100.0);
        let c = &curves[0];
        let p_mid = c.prob[c.epochs.iter().position(|&t| t == 4000.0).unwrap()];
        let p_late = *c.prob.last().unwrap();
        assert!(p_late > p_mid, "late {p_late} vs mid {p_mid}");
    }

    #[test]
    fn eq15_transition_distribution() {
        let d = score_transition_two_epochs(0.5);
        assert_eq!(d[0], (8, 0.25));
        assert_eq!(d[1], (3, 0.5));
        assert_eq!(d[2], (-2, 0.25));
        // probabilities sum to 1 and the mean is 2V = 3 for any p0 = 0.5
        let total: f64 = d.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let mean: f64 = d.iter().map(|(dx, p)| *dx as f64 * p).sum();
        assert!((mean - 3.0).abs() < 1e-12);
        // the alternation makes the mean exactly 3 for ANY p0 — the
        // paper's observation that p0 barely affects the curve
        for p0 in [0.1, 0.3, 0.6, 0.9] {
            let d = score_transition_two_epochs(p0);
            let mean: f64 = d.iter().map(|(dx, p)| *dx as f64 * p).sum();
            assert!((mean - 3.0).abs() < 1e-12, "p0 = {p0}: mean = {mean}");
        }
    }

    #[test]
    fn two_branch_monte_carlo_confirms_doubling() {
        // Empirical check of the "doubled" remark via the sharded walk
        // harness: every walker is tracked from both branches' viewpoints
        // (anti-correlated), and the union breach rate is compared
        // against twice the single-branch rate.
        use ethpos_sim::{run_two_branch_walks, TwoBranchWalkConfig};
        let out = run_two_branch_walks(&TwoBranchWalkConfig {
            beta0: 0.333,
            walkers: 20_000,
            epochs: 3000,
            seed: 11,
            ..TwoBranchWalkConfig::default()
        });
        let single = out.single_branch_breach;
        let either = out.either_branch_breach;
        // anti-correlation makes breaches on A and B nearly disjoint at
        // moderate probabilities, so the union is close to 2× the single
        assert!(single > 0.1, "single = {single}");
        assert!(
            (either / single - 2.0).abs() < 0.25,
            "either/single = {} (single {single}, either {either})",
            either / single
        );
    }

    #[test]
    fn monte_carlo_agrees_with_analytic_eq24() {
        // Cross-check Eq. 24 against the walk Monte Carlo at t = 3000.
        use ethpos_sim::{run_bouncing_walks, BouncingWalkConfig};
        let law = BouncingLaw::new(0.5);
        let cfg = BouncingWalkConfig {
            beta0: 0.333,
            walkers: 20_000,
            epochs: 3001,
            record_every: 500,
            ..BouncingWalkConfig::default()
        };
        let mc = run_bouncing_walks(&cfg);
        let at3000 = mc.series.iter().find(|s| s.epoch == 3000).unwrap();
        let analytic = law.prob_exceed_third(0.333, 3000.0);
        let diff = (at3000.prob_exceed_third - analytic).abs();
        assert!(
            diff < 0.06,
            "MC {} vs analytic {analytic}",
            at3000.prob_exceed_third
        );
        // The paper disregards the score floor at zero, "conservatively
        // estimating the loss of stake" — so Eq. 24 must sit at or above
        // the faithful Monte Carlo.
        assert!(
            analytic >= at3000.prob_exceed_third - 0.01,
            "analytic {analytic} below MC {}",
            at3000.prob_exceed_third
        );
    }
}
