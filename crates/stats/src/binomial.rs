//! Exact binomial count sampling.
//!
//! The cohort-compressed state backend marks a churned class by drawing
//! *how many* of a cohort's `c` identical members attest on a branch —
//! a `Binomial(c, p)` count — instead of `c` per-member Bernoulli draws
//! (`ethpos_state::StateBackend::mark_class_counted`). These
//! samplers are **exact**: the returned counts follow the true discrete
//! law, not a normal or Poisson approximation, so count-level marking is
//! distributionally indistinguishable from the per-member reference path
//! at any population size.
//!
//! Two regimes, the classic split:
//!
//! * `n·min(p, 1−p) < 10` — **BINV** (inversion): walk the CDF with the
//!   ratio recurrence `f(x+1)/f(x) = (n−x)/(x+1) · p/q`. O(mean) per
//!   draw, one uniform consumed.
//! * otherwise — **BTPE**-style rejection (Kachitvichyanukul &
//!   Schmeiser, 1988): a triangle/parallelogram/exponential-tail hat
//!   over the scaled pmf with squeeze tests, falling back to a Stirling
//!   series for the exact acceptance comparison. O(1) expected per
//!   draw.
//!
//! Edge cases (`p ∈ {0, 1}`, `n = 0`) return the degenerate count
//! without consuming randomness, so callers may stream draws off a
//! shared `StdRng` without perturbing sibling draws.

use rand::Rng;

/// Below this `n·min(p, 1−p)`, sampling inverts the CDF directly
/// (BINV); above it, the BTPE rejection scheme is cheaper.
const BINV_THRESHOLD: f64 = 10.0;

/// Iteration cap of one BINV inversion pass. The cap only triggers on
/// the astronomically unlikely uniform that lands beyond ~30 standard
/// deviations (mean < 10, sd < 3.2 in the BINV regime); the draw then
/// restarts with a fresh uniform instead of walking the whole support.
const BINV_MAX_X: u64 = 110;

/// An exact binomial law `Binomial(n, p)` for count sampling.
///
/// # Example
///
/// ```
/// use ethpos_stats::{seeded_rng, Binomial};
///
/// let mut rng = seeded_rng(7);
/// let d = Binomial::new(1_000_000, 0.5);
/// let k = d.sample(&mut rng);
/// assert!((400_000..=600_000).contains(&k));
/// assert_eq!(Binomial::new(9, 0.0).sample(&mut rng), 0);
/// assert_eq!(Binomial::new(9, 1.0).sample(&mut rng), 9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    /// Number of trials.
    pub n: u64,
    /// Success probability.
    pub p: f64,
}

impl Binomial {
    /// Creates a binomial law.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [0, 1]`.
    pub fn new(n: u64, p: f64) -> Self {
        assert_probability(p);
        Binomial { n, p }
    }

    /// Draws one exact count.
    ///
    /// Degenerate parameters (`n = 0`, `p ∈ {0, 1}`) return without
    /// consuming randomness.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        sample_count(self.n, self.p, rng)
    }
}

fn assert_probability(p: f64) {
    assert!(
        (0.0..=1.0).contains(&p),
        "binomial needs p in [0, 1], got {p}"
    );
}

/// The sampling kernel behind [`Binomial`] (and [`PreparedBinomial`]
/// beyond its table): degenerate cases, the `p ↔ q` mirror and the
/// BINV/BTPE split.
fn sample_count<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    // Work in the p ≤ 1/2 half-plane (counts mirror under p ↔ q).
    let flipped = p > 0.5;
    let p = if flipped { 1.0 - p } else { p };
    let k = if n as f64 * p < BINV_THRESHOLD {
        binv(n, p, rng)
    } else {
        btpe(n, p, rng)
    };
    if flipped {
        n - k
    } else {
        k
    }
}

/// BINV's `f(0), f(1), …` for `Binomial(n, p)`, `0 < p ≤ 1/2`: the ratio
/// recurrence `f(x+1) = f(x)·(a/(x+1) − s)` both the inversion walk and
/// the [`PreparedBinomial`] table step through, so the two hold the same
/// bits.
fn binv_terms(n: u64, p: f64) -> impl Iterator<Item = f64> {
    let q = 1.0 - p;
    let s = p / q;
    let a = (n + 1) as f64 * s;
    // `f(0) = q^n` via `exp(n·ln1p(−p))` — exact to an ulp even when a
    // direct powi would round through many multiplications.
    let mut r = (n as f64 * (-p).ln_1p()).exp();
    // Each step's factor is applied only when the walk asks for the next
    // term, so a draw that stops at `x` pays `x` divisions, not `x + 1`.
    (0..=BINV_MAX_X.min(n)).map(move |x| {
        if x > 0 {
            r *= a / x as f64 - s;
        }
        r
    })
}

/// One inversion pass over `terms`: the first `x` whose cumulative mass
/// exceeds `u`, or `None` when `u` lands beyond the last term (the tail
/// past [`BINV_MAX_X`], or the rounding gap under 1) — the draw then
/// restarts with a fresh uniform rather than walking the far tail.
#[inline]
fn invert(terms: impl Iterator<Item = f64>, mut u: f64) -> Option<u64> {
    for (x, r) in terms.enumerate() {
        if u < r {
            return Some(x as u64);
        }
        u -= r;
    }
    None
}

/// Largest `n` (exclusive) a [`PreparedBinomial`] tabulates a row for:
/// cohorts under §5.3 churn split down to a handful of members within a
/// few epochs, and a triangular table this size (16 KiB) stays cached.
const ROW_TABLE_MAX: u64 = 64;

/// A binomial law `Binomial(·, p)` prepared for many draws at one `p`
/// and varying `n` — the shape of count-level churn, where every cohort
/// of a class draws at the branch's marginal probability.
///
/// Draw-for-draw identical to `Binomial::new(n, p).sample(rng)`: the
/// same counts, the same uniforms consumed. Preparation tabulates, for
/// every small `n` of the inversion regime, the terms BINV would step
/// through (`binv_terms` — the same recurrence, therefore the same
/// bits), so a draw is the inversion walk with neither the `ln1p`/`exp`
/// of `f(0)` nor a division per step.
///
/// # Example
///
/// ```
/// use ethpos_stats::{seeded_rng, Binomial, PreparedBinomial};
///
/// let law = PreparedBinomial::new(0.5);
/// let (mut a, mut b) = (seeded_rng(7), seeded_rng(7));
/// for n in [1, 3, 19, 4000] {
///     assert_eq!(law.sample(n, &mut a), Binomial::new(n, 0.5).sample(&mut b));
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedBinomial {
    p: f64,
    /// Row `n` — the `n + 1` BINV terms of `Binomial(n, min(p, 1 − p))`
    /// — starts at `n·(n+1)/2`, for `n` in `0..tabulated`.
    rows: Vec<f64>,
    /// Rows held: every `n` below both the BINV regime's end and
    /// [`ROW_TABLE_MAX`]; zero for the degenerate laws.
    tabulated: u64,
}

impl PreparedBinomial {
    /// Prepares the law for success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [0, 1]`.
    pub fn new(p: f64) -> Self {
        assert_probability(p);
        let mirrored = if p > 0.5 { 1.0 - p } else { p };
        let tabulated = if mirrored > 0.0 {
            (0..ROW_TABLE_MAX)
                .take_while(|&n| n as f64 * mirrored < BINV_THRESHOLD)
                .count() as u64
        } else {
            0
        };
        PreparedBinomial {
            p,
            rows: (0..tabulated)
                .flat_map(|n| binv_terms(n, mirrored))
                .collect(),
            tabulated,
        }
    }

    /// Draws one exact count of `Binomial(n, p)`.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, n: u64, rng: &mut R) -> u64 {
        // `n = 0` consumes nothing; the degenerate laws tabulate nothing.
        if n == 0 || n >= self.tabulated {
            return sample_count(n, self.p, rng);
        }
        let start = (n * (n + 1) / 2) as usize;
        let row = &self.rows[start..=start + n as usize];
        loop {
            if let Some(k) = invert(row.iter().copied(), rng.random()) {
                return if self.p > 0.5 { n - k } else { k };
            }
        }
    }
}

/// CDF inversion for small `n·p` (requires `0 < p ≤ 1/2`).
fn binv<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    loop {
        if let Some(k) = invert(binv_terms(n, p), rng.random()) {
            return k;
        }
    }
}

/// BTPE rejection for `n·p ≥ 10` (requires `p ≤ 1/2`).
///
/// Regions of the hat, left to right: exponential left tail, the
/// central triangle over the mode, the two parallelogram wedges, and
/// the exponential right tail. Candidates are squeezed against a
/// quadratic bound before the exact pmf-ratio (or Stirling-series)
/// comparison.
fn btpe<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    let nf = n as f64;
    let r = p;
    let q = 1.0 - r;
    let nrq = nf * r * q;
    let fm = nf * r + r;
    let m = fm.floor();
    let p1 = (2.195 * nrq.sqrt() - 4.6 * q).floor() + 0.5;
    let xm = m + 0.5;
    let xl = xm - p1;
    let xr = xm + p1;
    let c = 0.134 + 20.5 / (15.3 + m);
    let al = (fm - xl) / (fm - xl * r);
    let laml = al * (1.0 + 0.5 * al);
    let ar = (xr - fm) / (xr * q);
    let lamr = ar * (1.0 + 0.5 * ar);
    let p2 = p1 * (1.0 + 2.0 * c);
    let p3 = p2 + c / laml;
    let p4 = p3 + c / lamr;

    loop {
        let u: f64 = rng.random::<f64>() * p4;
        let mut v: f64 = rng.random();
        let y: f64;
        if u <= p1 {
            // Central triangle: accept immediately.
            return (xm - p1 * v + u).floor() as u64;
        } else if u <= p2 {
            // Parallelogram wedges.
            let x = xl + (u - p1) / c;
            v = v * c + 1.0 - (x - xm).abs() / p1;
            if v > 1.0 {
                continue;
            }
            y = x.floor();
        } else if u <= p3 {
            // Left exponential tail.
            y = (xl + v.ln() / laml).floor();
            if y < 0.0 {
                continue;
            }
            v *= (u - p2) * laml;
        } else {
            // Right exponential tail.
            y = (xr - v.ln() / lamr).floor();
            if y > nf {
                continue;
            }
            v *= (u - p3) * lamr;
        }

        // Acceptance test: v ≤ f(y)/f(m)?
        let k = (y - m).abs();
        if k <= 20.0 || k >= 0.5 * nrq - 1.0 {
            // Few steps from the mode (or far tail): evaluate the pmf
            // ratio by the exact recurrence.
            let s = r / q;
            let a = s * (nf + 1.0);
            let mut f = 1.0;
            if m < y {
                let mut i = m;
                while i < y {
                    i += 1.0;
                    f *= a / i - s;
                }
            } else if m > y {
                let mut i = y;
                while i < m {
                    i += 1.0;
                    f /= a / i - s;
                }
            }
            if v <= f {
                return y as u64;
            }
        } else {
            // Squeeze: a quadratic band around the normal-core log-pmf.
            let rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 1.0 / 6.0) / nrq + 0.5);
            let t = -k * k / (2.0 * nrq);
            let alv = v.ln();
            if alv < t - rho {
                return y as u64;
            }
            if alv <= t + rho {
                // Inconclusive: exact comparison via the Stirling series
                // of ln(f(y)/f(m)).
                let x1 = y + 1.0;
                let f1 = m + 1.0;
                let z = nf + 1.0 - m;
                let w = nf - y + 1.0;
                let bound = xm * (f1 / x1).ln()
                    + (nf - m + 0.5) * (z / w).ln()
                    + (y - m) * (w * r / (x1 * q)).ln()
                    + stirling_tail(f1)
                    + stirling_tail(z)
                    + stirling_tail(x1)
                    + stirling_tail(w);
                if alv <= bound {
                    return y as u64;
                }
            }
        }
    }
}

/// The Stirling-series correction `ln Γ(x) − [(x−1/2)·ln x − x +
/// ln√(2π)]`, truncated after the x⁻⁷ term — BTPE's exact-comparison
/// kernel.
fn stirling_tail(x: f64) -> f64 {
    let x2 = x * x;
    (13860.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) / x / 166320.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use crate::seedseq::SeedSequence;

    #[test]
    fn degenerate_parameters_are_exact_and_consume_no_randomness() {
        let mut rng = seeded_rng(1);
        let before: u64 = {
            let mut probe = seeded_rng(1);
            probe.random()
        };
        assert_eq!(Binomial::new(0, 0.3).sample(&mut rng), 0);
        assert_eq!(Binomial::new(17, 0.0).sample(&mut rng), 0);
        assert_eq!(Binomial::new(17, 1.0).sample(&mut rng), 17);
        // The stream was not consumed.
        assert_eq!(rng.random::<u64>(), before);
    }

    /// The prepared law is the same sampler, not a sibling: on one RNG
    /// stream it returns the same counts *and* leaves the stream in the
    /// same place as `Binomial::new(n, p).sample` — across BINV (tabulated
    /// and beyond the table), BTPE, the mirrored half-plane and the
    /// degenerate laws that consume nothing.
    #[test]
    fn prepared_law_matches_binomial_draw_for_draw() {
        let sizes = (0..=200u64).chain([1_000, 1_000_000]);
        // 0.01 keeps BINV going past the row table (n·p < 10 up to 999).
        let ps = [0.0, 0.01, 0.2, 0.5, 0.8, 1.0];
        for (pi, &p) in ps.iter().enumerate() {
            let law = PreparedBinomial::new(p);
            let mut prepared = seeded_rng(100 + pi as u64);
            let mut plain = seeded_rng(100 + pi as u64);
            for n in sizes.clone() {
                for _ in 0..3 {
                    assert_eq!(
                        law.sample(n, &mut prepared),
                        Binomial::new(n, p).sample(&mut plain),
                        "n={n} p={p}"
                    );
                }
                assert_eq!(
                    prepared.random::<u64>(),
                    plain.random::<u64>(),
                    "streams diverged after n={n} p={p}"
                );
            }
        }
        // Degenerate laws leave the stream untouched.
        let mut rng = seeded_rng(1);
        let mut probe = seeded_rng(1);
        assert_eq!(PreparedBinomial::new(0.0).sample(17, &mut rng), 0);
        assert_eq!(PreparedBinomial::new(1.0).sample(17, &mut rng), 17);
        assert_eq!(PreparedBinomial::new(0.3).sample(0, &mut rng), 0);
        assert_eq!(rng.random::<u64>(), probe.random::<u64>());
    }

    /// An RNG that replays scripted `u64`s, then a seeded stream.
    struct Scripted {
        script: Vec<u64>,
        then: rand::rngs::StdRng,
        served: usize,
    }

    impl Scripted {
        fn new(script: &[u64]) -> Self {
            Scripted {
                script: script.to_vec(),
                then: seeded_rng(3),
                served: 0,
            }
        }
    }

    impl rand::RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            self.served += 1;
            match self.script.get(self.served - 1) {
                Some(&scripted) => scripted,
                None => self.then.next_u64(),
            }
        }
    }

    /// The tabulated rows against the inversion walk they replace, draw
    /// for draw and stream position for stream position: every table row
    /// and the first size past the table, both half-planes — on seeded
    /// streams, and on scripted uniforms that start at the top of `[0, 1)`
    /// so the walk runs off the end of the row (the terms sum to a hair
    /// under 1) and both samplers must take the restart branch.
    #[test]
    fn tabulated_rows_match_the_inversion_walk_restart_included() {
        // Restarts seen on tabulated rows, per half-plane.
        let mut restarts = [0, 0];
        // `(p, rows tabulated)`: every `n < 64` with `n·min(p, 1 − p) < 10`
        // as the sampler evaluates it — `1 − 0.8` rounds to just under 0.2,
        // so that law keeps `n = 50` in the inversion regime.
        let laws = [
            (0.01, 64),
            (0.2, 50),
            (0.3, 34),
            (0.5, 20),
            (0.7, 34),
            (0.8, 51),
        ];
        for (pi, &(p, tabulated)) in laws.iter().enumerate() {
            let law = PreparedBinomial::new(p);
            assert_eq!(law.tabulated, tabulated, "p={p}");
            assert_eq!(
                law.rows.len() as u64,
                law.tabulated * (law.tabulated + 1) / 2
            );
            let mut prepared = seeded_rng(500 + pi as u64);
            let mut plain = seeded_rng(500 + pi as u64);
            for n in 0..=ROW_TABLE_MAX {
                for _ in 0..64 {
                    assert_eq!(
                        law.sample(n, &mut prepared),
                        Binomial::new(n, p).sample(&mut plain),
                        "n={n} p={p}"
                    );
                }
                assert_eq!(
                    prepared.random::<u64>(),
                    plain.random::<u64>(),
                    "streams diverged after n={n} p={p}"
                );
                // u = 1 − 2⁻⁵³, then 1 − 2⁻⁵², 1 − 3·2⁻⁵³.
                let script = [u64::MAX, u64::MAX - (1 << 11), u64::MAX - (2 << 11)];
                let mut a = Scripted::new(&script);
                let mut b = Scripted::new(&script);
                assert_eq!(
                    law.sample(n, &mut a),
                    Binomial::new(n, p).sample(&mut b),
                    "scripted n={n} p={p}"
                );
                assert_eq!(a.served, b.served, "scripted stream position n={n} p={p}");
                if n > 0 && n < law.tabulated && a.served > 1 {
                    restarts[usize::from(p > 0.5)] += 1;
                }
            }
        }
        assert!(
            restarts[0] > 0 && restarts[1] > 0,
            "the restart branch went unexercised: {restarts:?}"
        );
    }

    #[test]
    fn n_one_is_a_bernoulli() {
        let mut rng = seeded_rng(5);
        let d = Binomial::new(1, 0.3);
        let mut ones = 0u64;
        for _ in 0..20_000 {
            let k = d.sample(&mut rng);
            assert!(k <= 1);
            ones += k;
        }
        let rate = ones as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn samples_never_exceed_n() {
        let seq = SeedSequence::new(9);
        for (i, &(n, p)) in [(3u64, 0.9), (40, 0.5), (1000, 0.999), (1000, 0.001)]
            .iter()
            .enumerate()
        {
            let mut rng = seq.child_rng(i as u64);
            let d = Binomial::new(n, p);
            for _ in 0..2000 {
                assert!(d.sample(&mut rng) <= n);
            }
        }
    }

    #[test]
    fn determinism_same_seed_same_counts() {
        let d = Binomial::new(1_000_000, 0.37);
        let a: Vec<u64> = {
            let mut rng = seeded_rng(77);
            (0..64).map(|_| d.sample(&mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = seeded_rng(77);
            (0..64).map(|_| d.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    /// Moment check against the closed forms, across both sampling
    /// regimes (BINV and BTPE) and the p ↔ q mirror.
    #[test]
    fn moments_match_closed_forms_over_many_seeds() {
        let cases = [
            (50u64, 0.08),     // BINV (n·p = 4)
            (200, 0.03),       // BINV
            (200, 0.97),       // BINV after mirror
            (400, 0.5),        // BTPE
            (100_000, 0.2),    // BTPE
            (1_000_000, 0.75), // BTPE after mirror
        ];
        let seq = SeedSequence::new(42);
        for (ci, &(n, p)) in cases.iter().enumerate() {
            let d = Binomial::new(n, p);
            let draws = 30_000usize;
            let mut rng = seq.child_rng(ci as u64);
            let mut sum = 0.0f64;
            let mut sumsq = 0.0f64;
            for _ in 0..draws {
                let k = d.sample(&mut rng) as f64;
                sum += k;
                sumsq += k * k;
            }
            let mean = sum / draws as f64;
            let var = sumsq / draws as f64 - mean * mean;
            // The law's moments, `n·p` and `n·p·(1−p)`.
            let (law_mean, law_variance) = (n as f64 * p, n as f64 * p * (1.0 - p));
            // Mean of `draws` samples has sd σ/√draws; allow 5 of those.
            let mean_tol = 5.0 * law_variance.sqrt() / (draws as f64).sqrt();
            assert!(
                (mean - law_mean).abs() < mean_tol,
                "n={n} p={p}: mean {mean} vs {law_mean} (tol {mean_tol})"
            );
            assert!(
                (var / law_variance - 1.0).abs() < 0.1,
                "n={n} p={p}: var {var} vs {law_variance}"
            );
        }
    }

    /// Chi-square agreement between the count sampler and brute-force
    /// per-member Bernoulli draws at small n: both histograms must be
    /// consistent with the same binomial pmf.
    #[test]
    fn chi_square_agreement_with_per_member_bernoulli() {
        let (n, p) = (12u64, 0.35);
        let draws = 40_000usize;
        let mut count_hist = vec![0u64; n as usize + 1];
        let mut member_hist = vec![0u64; n as usize + 1];
        let mut rng_a = seeded_rng(1001);
        let mut rng_b = seeded_rng(2002);
        let d = Binomial::new(n, p);
        for _ in 0..draws {
            count_hist[d.sample(&mut rng_a) as usize] += 1;
            let brute = (0..n).filter(|_| rng_b.random_bool(p)).count();
            member_hist[brute] += 1;
        }
        // Exact pmf by the ratio recurrence.
        let mut pmf = vec![0.0f64; n as usize + 1];
        pmf[0] = (1.0 - p).powi(n as i32);
        for x in 0..n as usize {
            pmf[x + 1] = pmf[x] * ((n - x as u64) as f64 / (x + 1) as f64) * (p / (1.0 - p));
        }
        for (label, hist) in [("count", &count_hist), ("member", &member_hist)] {
            let mut chi2 = 0.0;
            let mut dof = 0u32;
            for x in 0..=n as usize {
                let expect = pmf[x] * draws as f64;
                if expect < 5.0 {
                    continue; // standard small-cell exclusion
                }
                let obs = hist[x] as f64;
                chi2 += (obs - expect) * (obs - expect) / expect;
                dof += 1;
            }
            // χ² 99.9th percentile at ~10 dof is ≈ 29.6; anything close
            // to that over a fixed seed indicates a real sampler bug.
            assert!(
                chi2 < 35.0,
                "{label} sampler: chi2 = {chi2} over {dof} cells"
            );
        }
    }
}
