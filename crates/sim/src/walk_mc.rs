//! Monte-Carlo random walks for the probabilistic bouncing attack (§5.3).
//!
//! Each honest validator is an independent walker: following the Markov
//! chain of paper Fig. 8, the bounce alternates the branch proportions,
//! so a walker is on branch A with probability `p0` at even epochs and
//! `1 − p0` at odd epochs (at the paper's `p0 = 0.5` the distinction
//! vanishes).
//! From branch A's perspective its inactivity score follows the paper's
//! random walk (+4 when absent, −1 when present, floored at 0) and its
//! stake decays by `I·s/2²⁶` per epoch, with the 32 ETH cap and ejection
//! once the balance falls below **16.75 ETH** — the censoring of paper
//! Eq. 20. The paper quotes the ejection threshold as "16 ETH", which is
//! the **effective-balance** floor; ejection actually triggers when the
//! *actual* balance drops below `EJECTION_BALANCE + hysteresis margin`
//! = 16 + (1 − 0.25) = 16.75 ETH, and that spec-accurate value is what
//! the paper's own ejection epochs (4685 / 7652) are computed from. See
//! `EJECTION_STAKE` in `ethpos_core`'s stake model and `PAPER.md`.
//!
//! The Byzantine stake follows the deterministic semi-active trajectory.
//! The estimator of paper Eq. 24 is the fraction of walkers whose stake
//! satisfies `s_H < 2β₀/(1−β₀) · s_B(t)`, which is exactly
//! `F(2β₀/(1−β₀)·s_B(t), t)` as the walker count grows.
//!
//! # The epoch kernel
//!
//! Both Monte Carlos advance a chunk of walkers with one
//! structure-of-arrays kernel, `BranchView::step`. Per epoch the
//! chunk's child RNG fills a draw buffer in walker order — one
//! `next_u64` per walker, mapped to `[0, 1)` by the very expression
//! `Rng::random_bool` compares against `p` — and one pass over
//! `scores[]` / `stakes[]` applies the scalar `step_walker` rule with
//! selects instead of branches. The coin flip is a 50 % mispredict when
//! branched on; as a select the pass vectorizes, provided the penalty
//! semantics and the side of `p` that counts as "active" are
//! compile-time constants (hence the const generics).
//!
//! There is no `ejected` flag: an ejected walker *is* `stake == 0.0`.
//! Live stakes never fall below 16.75, and a zero stake is a fixed point
//! of the update for any score (`0 − score·0/2²⁶ = +0.0`, which is again
//! below the threshold), so skipping ejected walkers — what the scalar
//! rule does — and stepping them are the same thing. Draw order, the
//! per-walker arithmetic and the merge order are those of the scalar
//! loop, so every count, sum and final stake is **bit-identical** to it
//! (the scalar loop survives in this module's tests as the oracle).
//!
//! # Parallel determinism
//!
//! Walkers are sharded into fixed chunks of [`WALKER_CHUNK`]; chunk `c`
//! draws from [`SeedSequence::child_rng`]`(c)` and the per-chunk partial
//! statistics are merged in chunk order. Chunk boundaries, chunk seeds
//! and merge order are all independent of the thread count, so the
//! result is **bit-identical** for `threads = 1` and `threads = N` (the
//! workspace-wide determinism model — see `ARCHITECTURE.md`).

use rand::rngs::StdRng;
use rand::Rng;
use serde::Serialize;

use ethpos_stats::SeedSequence;

use crate::pool::ChunkPool;

/// Number of walkers per work-unit chunk. Fixed (never derived from the
/// thread count) so that sharding cannot change results.
pub(crate) const WALKER_CHUNK: usize = 1024;

/// Walker count of chunk `chunk` out of `walkers` total: every chunk
/// holds [`WALKER_CHUNK`] walkers except a short final remainder. All
/// sharded Monte Carlos must use this (and child RNG `chunk`) so the
/// decomposition — and therefore the bit-exact result — is shared.
fn chunk_len(chunk: usize, walkers: usize) -> usize {
    ((chunk + 1) * WALKER_CHUNK).min(walkers) - chunk * WALKER_CHUNK
}

/// Fig. 8 alternation: the proportion of honest validators on branch A
/// flips between `p0` and `1 − p0` each epoch.
fn branch_a_probability(p0: f64, epoch: u64) -> f64 {
    if epoch.is_multiple_of(2) {
        p0
    } else {
        1.0 - p0
    }
}

/// Configuration for the bouncing-walk Monte Carlo.
#[derive(Debug, Clone)]
pub struct BouncingWalkConfig {
    /// Probability of an honest validator being on branch A each epoch.
    pub p0: f64,
    /// Initial Byzantine stake proportion.
    pub beta0: f64,
    /// Number of honest walkers.
    pub walkers: usize,
    /// Epoch horizon.
    pub epochs: u64,
    /// RNG seed (root of the per-chunk seed stream).
    pub seed: u64,
    /// Record every `record_every` epochs.
    pub record_every: u64,
    /// Penalty semantics: `true` = paper Eq. 2 (penalty every epoch while
    /// the score is positive), `false` = Bellatrix spec (penalty only in
    /// missed epochs). See `ChainConfig::paper_inactivity_penalties`.
    pub paper_semantics: bool,
    /// Worker threads to shard the walkers over (`0` = one per hardware
    /// thread). Does not affect results, only wall-clock time.
    pub threads: usize,
}

impl Default for BouncingWalkConfig {
    fn default() -> Self {
        BouncingWalkConfig {
            p0: 0.5,
            beta0: 0.33,
            walkers: 20_000,
            epochs: 8000,
            seed: 42,
            record_every: 10,
            paper_semantics: true,
            threads: 0,
        }
    }
}

/// One recorded epoch of the Monte Carlo.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct WalkEpochStats {
    /// Epoch.
    pub epoch: u64,
    /// Estimate of paper Eq. 24: P[β(t) > 1/3] from branch A's view.
    pub prob_exceed_third: f64,
    /// Mean honest stake (ETH) from branch A's view (ejected = 0).
    pub mean_honest_stake: f64,
    /// Byzantine (semi-active) stake (ETH).
    pub byzantine_stake: f64,
    /// Fraction of honest walkers ejected on branch A.
    pub ejected_fraction: f64,
}

/// Result of the Monte Carlo run.
#[derive(Debug, Clone, Serialize)]
pub struct BouncingWalkResult {
    /// Per-epoch statistics (thinned by `record_every`).
    pub series: Vec<WalkEpochStats>,
    /// Epoch at which the Byzantine validators were ejected, if reached.
    pub byzantine_ejected_at: Option<u64>,
    /// Final honest stakes (ETH) — the empirical distribution behind
    /// paper Fig. 9.
    pub final_stakes: Vec<f64>,
}

const LEAK_DENOM: f64 = 67_108_864.0; // 2^26
const EJECT_BELOW: f64 = 16.75; // 16 ETH effective + 0.75 ETH hysteresis
const STAKE0: f64 = 32.0;

/// Advances one (score, stake, ejected) walker by one epoch — the scalar
/// rule the Byzantine trajectories use and [`BranchView::step`] batches.
///
/// Spec order: the score updates first (+4 inactive / −1 active, floored),
/// then the inactivity penalty `I·s/2²⁶` applies with the updated score —
/// matching `process_epoch` in `ethpos-state`. Under `paper_semantics`
/// the penalty lands every epoch (paper Eq. 2); otherwise only when the
/// epoch was missed (Bellatrix `get_inactivity_penalty_deltas`).
fn step_walker(
    score: &mut f64,
    stake: &mut f64,
    ejected: &mut bool,
    active: bool,
    paper_semantics: bool,
) {
    if *ejected {
        return;
    }
    if active {
        *score = (*score - 1.0).max(0.0);
    } else {
        *score += 4.0;
    }
    if paper_semantics || !active {
        *stake -= *score * *stake / LEAK_DENOM;
    }
    if *stake < EJECT_BELOW {
        *stake = 0.0;
        *ejected = true;
    }
}

/// One branch's view of a chunk of honest walkers, structure-of-arrays.
/// `stakes[i] == 0.0` ⇔ walker `i` is ejected on this branch.
struct BranchView {
    scores: Vec<f64>,
    stakes: Vec<f64>,
}

impl BranchView {
    fn new(len: usize) -> Self {
        BranchView {
            scores: vec![0.0; len],
            stakes: vec![STAKE0; len],
        }
    }

    /// [`step_walker`] for every walker at once, branch-free: walker `i`
    /// is active iff `(draws[i] < p) == ACTIVE_BELOW`. `PAPER` and
    /// `ACTIVE_BELOW` are const so that each instantiation is a
    /// straight-line select chain the compiler vectorizes.
    fn step<const PAPER: bool, const ACTIVE_BELOW: bool>(&mut self, draws: &[f64], p: f64) {
        let walkers = self.scores.iter_mut().zip(self.stakes.iter_mut());
        for ((score, stake), &draw) in walkers.zip(draws) {
            let active = (draw < p) == ACTIVE_BELOW;
            let next = if active {
                (*score - 1.0).max(0.0)
            } else {
                *score + 4.0
            };
            *score = next;
            // Spec semantics waive the penalty in attended epochs: charge
            // score 0 there (`stake − 0·stake/2²⁶` is `stake`, bit for bit).
            let charged = if PAPER || !active { next } else { 0.0 };
            let left = *stake - charged * *stake / LEAK_DENOM;
            *stake = if left < EJECT_BELOW { 0.0 } else { left };
        }
    }
}

/// Fills `draws` with the chunk's uniforms for one epoch, in walker
/// order: `random::<f64>()` is the `(next_u64 >> 11) · 2⁻⁵³` that
/// `random_bool(p)` compares against `p`.
fn fill_draws(rng: &mut StdRng, draws: &mut [f64]) {
    for draw in draws {
        *draw = rng.random();
    }
}

/// The deterministic semi-active Byzantine walker, seen from the branch
/// it is active on at even (`active_on_even`) or at odd epochs. Calls
/// `before(epoch, stake)` ahead of each epoch's update (where the honest
/// statistics are sampled too); returns the stake at the horizon and the
/// ejection epoch, if reached.
fn byzantine_walk(
    epochs: u64,
    active_on_even: bool,
    paper_semantics: bool,
    mut before: impl FnMut(u64, f64),
) -> (f64, Option<u64>) {
    let (mut score, mut stake, mut ejected) = (0.0f64, STAKE0, false);
    let mut ejected_at = None;
    for epoch in 0..epochs {
        before(epoch, stake);
        let active = (epoch % 2 == 0) == active_on_even;
        step_walker(
            &mut score,
            &mut stake,
            &mut ejected,
            active,
            paper_semantics,
        );
        if ejected && ejected_at.is_none() {
            ejected_at = Some(epoch);
        }
    }
    (stake, ejected_at)
}

/// Per-chunk partial statistics, merged in chunk order by the caller.
struct ChunkStats {
    /// Per recorded epoch: walkers below the Eq. 24 threshold.
    below: Vec<u64>,
    /// Per recorded epoch: sum of stakes (ejected contribute 0).
    stake_sum: Vec<f64>,
    /// Per recorded epoch: ejected (zero-stake) walkers.
    ejected: Vec<u64>,
    /// Stakes at the horizon, in walker order.
    final_stakes: Vec<f64>,
}

/// Runs one chunk of walkers over the full horizon with its own child
/// RNG. `thresholds[r]` is the Eq. 24 stake threshold at recorded epoch
/// `r` (precomputed from the deterministic Byzantine trajectory).
fn run_chunk<const PAPER: bool>(
    config: &BouncingWalkConfig,
    seq: &SeedSequence,
    chunk: usize,
    thresholds: &[f64],
) -> ChunkStats {
    let len = chunk_len(chunk, config.walkers);
    let mut rng = seq.child_rng(chunk as u64);
    let mut view = BranchView::new(len);
    let mut draws = vec![0.0f64; len];
    let records = thresholds.len();
    let mut stats = ChunkStats {
        below: Vec::with_capacity(records),
        stake_sum: Vec::with_capacity(records),
        ejected: Vec::with_capacity(records),
        final_stakes: Vec::new(),
    };
    for epoch in 0..config.epochs {
        if epoch % config.record_every == 0 {
            let threshold = thresholds[stats.below.len()];
            let stakes = &view.stakes;
            stats
                .below
                .push(stakes.iter().filter(|&&s| s < threshold).count() as u64);
            stats.stake_sum.push(stakes.iter().sum::<f64>());
            stats
                .ejected
                .push(stakes.iter().filter(|&&s| s == 0.0).count() as u64);
        }
        fill_draws(&mut rng, &mut draws);
        view.step::<PAPER, true>(&draws, branch_a_probability(config.p0, epoch));
    }
    stats.final_stakes = view.stakes;
    stats
}

/// Runs the Monte Carlo and returns the per-epoch estimates.
///
/// Walkers are sharded across `config.threads` workers in fixed chunks
/// with independent [`SeedSequence`] child streams; the output is
/// bit-identical for any thread count.
///
/// # Example
///
/// ```
/// use ethpos_sim::{run_bouncing_walks, BouncingWalkConfig};
///
/// let cfg = BouncingWalkConfig {
///     walkers: 200,
///     epochs: 100,
///     record_every: 50,
///     ..BouncingWalkConfig::default()
/// };
/// let out = run_bouncing_walks(&cfg);
/// assert_eq!(out.series.len(), 2); // epochs 0 and 50
/// assert!(out.byzantine_ejected_at.is_none()); // far before epoch 7653
///
/// // Thread count changes wall-clock time, never the numbers.
/// let wide = run_bouncing_walks(&BouncingWalkConfig { threads: 8, ..cfg });
/// assert_eq!(wide.series[1].prob_exceed_third, out.series[1].prob_exceed_third);
/// ```
///
/// # Panics
///
/// Panics if `p0` or `beta0` are outside `(0, 1)`, `walkers == 0` or
/// `record_every == 0`.
pub fn run_bouncing_walks(config: &BouncingWalkConfig) -> BouncingWalkResult {
    assert!(config.p0 > 0.0 && config.p0 < 1.0, "p0 in (0,1)");
    assert!(config.beta0 > 0.0 && config.beta0 < 1.0, "beta0 in (0,1)");
    assert!(config.walkers > 0, "need walkers");
    assert!(config.record_every > 0, "record_every must be positive");

    let m = config.walkers;
    let mut byz_stakes = Vec::new();
    let (_, byz_ejected_at) = byzantine_walk(
        config.epochs,
        true,
        config.paper_semantics,
        |epoch, stake| {
            if epoch % config.record_every == 0 {
                byz_stakes.push(stake);
            }
        },
    );
    let threshold_factor = 2.0 * config.beta0 / (1.0 - config.beta0);
    let thresholds: Vec<f64> = byz_stakes.iter().map(|s| threshold_factor * s).collect();

    let seq = SeedSequence::new(config.seed);
    let chunks = m.div_ceil(WALKER_CHUNK);
    let run_chunk = if config.paper_semantics {
        run_chunk::<true>
    } else {
        run_chunk::<false>
    };
    let parts =
        ChunkPool::new(config.threads).map(chunks, |c| run_chunk(config, &seq, c, &thresholds));

    // Merge in chunk order: fixed grouping ⇒ identical floating-point
    // sums for every thread count.
    let mut series = Vec::with_capacity(thresholds.len());
    for (r, &byz_stake) in byz_stakes.iter().enumerate() {
        let below: u64 = parts.iter().map(|p| p.below[r]).sum();
        let stake_sum: f64 = parts.iter().map(|p| p.stake_sum[r]).sum();
        let eject_count: u64 = parts.iter().map(|p| p.ejected[r]).sum();
        series.push(WalkEpochStats {
            epoch: r as u64 * config.record_every,
            prob_exceed_third: below as f64 / m as f64,
            mean_honest_stake: stake_sum / m as f64,
            byzantine_stake: byz_stake,
            ejected_fraction: eject_count as f64 / m as f64,
        });
    }
    let final_stakes: Vec<f64> = parts.into_iter().flat_map(|p| p.final_stakes).collect();

    BouncingWalkResult {
        series,
        byzantine_ejected_at: byz_ejected_at,
        final_stakes,
    }
}

/// Configuration for the two-branch (anti-correlated) walk Monte Carlo.
#[derive(Debug, Clone)]
pub struct TwoBranchWalkConfig {
    /// Probability of being on branch A each even epoch.
    pub p0: f64,
    /// Initial Byzantine stake proportion.
    pub beta0: f64,
    /// Number of honest walkers.
    pub walkers: usize,
    /// Epoch horizon (breach fractions are evaluated here).
    pub epochs: u64,
    /// RNG seed (root of the per-chunk seed stream).
    pub seed: u64,
    /// Penalty semantics (see [`BouncingWalkConfig::paper_semantics`]).
    pub paper_semantics: bool,
    /// Worker threads (`0` = one per hardware thread).
    pub threads: usize,
}

impl Default for TwoBranchWalkConfig {
    fn default() -> Self {
        TwoBranchWalkConfig {
            p0: 0.5,
            beta0: 0.333,
            walkers: 20_000,
            epochs: 3000,
            seed: 11,
            paper_semantics: true,
            threads: 0,
        }
    }
}

/// Result of the two-branch walk Monte Carlo at the horizon.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct TwoBranchWalkResult {
    /// Fraction of walkers breaching the Eq. 24 threshold on branch A.
    pub single_branch_breach: f64,
    /// Fraction breaching on branch A **or** branch B (the union the
    /// paper bounds by `2·P` at the end of §5.3).
    pub either_branch_breach: f64,
    /// Byzantine semi-active stake at the horizon, per branch view.
    pub byzantine_stake: [f64; 2],
}

/// Breach counts of one walker chunk of a [`TwoBranchWalkPlan`].
#[derive(Debug, Clone, Copy)]
pub struct TwoBranchChunkCounts {
    single: u64,
    either: u64,
}

/// A two-branch walk split into its schedulable parts: the deterministic
/// Byzantine trajectories (walked once, here), [`chunks`](Self::chunks)
/// independent walker chunks, and the reduction of their counts. A
/// caller with several Monte Carlos to run — [`run_two_branch_walks`]
/// has one, a parameter sweep has one per grid point — puts all their
/// chunks on one [`ChunkPool`] task list; the result depends only on
/// the configuration, never on how the chunks were scheduled.
#[derive(Debug, Clone)]
pub struct TwoBranchWalkPlan {
    config: TwoBranchWalkConfig,
    byzantine_stake: [f64; 2],
}

impl TwoBranchWalkPlan {
    /// Validates `config` and walks the Byzantine trajectories
    /// (`config.threads` is the caller's to honour).
    ///
    /// # Panics
    ///
    /// Panics if `p0` or `beta0` are outside `(0, 1)` or `walkers == 0`.
    pub fn new(config: &TwoBranchWalkConfig) -> Self {
        assert!(config.p0 > 0.0 && config.p0 < 1.0, "p0 in (0,1)");
        assert!(config.beta0 > 0.0 && config.beta0 < 1.0, "beta0 in (0,1)");
        assert!(config.walkers > 0, "need walkers");

        // Byzantine semi-active walkers as seen by each branch: active on
        // A at even epochs, hence active on B at odd epochs.
        let (epochs, paper) = (config.epochs, config.paper_semantics);
        let byzantine_stake =
            [true, false].map(|on_even| byzantine_walk(epochs, on_even, paper, |_, _| {}).0);
        TwoBranchWalkPlan {
            config: config.clone(),
            byzantine_stake,
        }
    }

    /// Number of walker chunks (independent tasks) of this run.
    pub fn chunks(&self) -> usize {
        self.config.walkers.div_ceil(WALKER_CHUNK)
    }

    /// Runs walker chunk `chunk` (`< self.chunks()`) to the horizon.
    pub fn run_chunk(&self, chunk: usize) -> TwoBranchChunkCounts {
        if self.config.paper_semantics {
            self.run_chunk_as::<true>(chunk)
        } else {
            self.run_chunk_as::<false>(chunk)
        }
    }

    fn run_chunk_as<const PAPER: bool>(&self, chunk: usize) -> TwoBranchChunkCounts {
        let len = chunk_len(chunk, self.config.walkers);
        let mut rng = SeedSequence::new(self.config.seed).child_rng(chunk as u64);
        let mut draws = vec![0.0f64; len];
        // One draw places a walker on A or on B: being active on A means
        // being inactive on B, so the two views share the draw buffer.
        let (mut a, mut b) = (BranchView::new(len), BranchView::new(len));
        for epoch in 0..self.config.epochs {
            let p_on_a = branch_a_probability(self.config.p0, epoch);
            fill_draws(&mut rng, &mut draws);
            a.step::<PAPER, true>(&draws, p_on_a);
            b.step::<PAPER, false>(&draws, p_on_a);
        }
        let factor = 2.0 * self.config.beta0 / (1.0 - self.config.beta0);
        let [on_a, on_b] = self.byzantine_stake.map(|s| factor * s);
        let single = a.stakes.iter().filter(|&&s| s < on_a).count() as u64;
        let pairs = a.stakes.iter().zip(&b.stakes);
        let either = pairs.filter(|&(&sa, &sb)| sa < on_a || sb < on_b).count() as u64;
        TwoBranchChunkCounts { single, either }
    }

    /// Reduces the counts of all [`chunks`](Self::chunks) chunks.
    pub fn finish(&self, parts: &[TwoBranchChunkCounts]) -> TwoBranchWalkResult {
        debug_assert_eq!(parts.len(), self.chunks());
        let m = self.config.walkers as f64;
        let single: u64 = parts.iter().map(|p| p.single).sum();
        let either: u64 = parts.iter().map(|p| p.either).sum();
        TwoBranchWalkResult {
            single_branch_breach: single as f64 / m,
            either_branch_breach: either as f64 / m,
            byzantine_stake: self.byzantine_stake,
        }
    }
}

/// The two-branch refinement of §5.3, empirically: every walker is
/// tracked from **both** branches' viewpoints (being active on A means
/// being inactive on B, so the per-branch scores are anti-correlated)
/// and the breach fractions are evaluated at the horizon.
///
/// Sharded like [`run_bouncing_walks`]; bit-identical for any
/// `config.threads`.
///
/// # Example
///
/// ```
/// use ethpos_sim::{run_two_branch_walks, TwoBranchWalkConfig};
///
/// let out = run_two_branch_walks(&TwoBranchWalkConfig {
///     walkers: 500,
///     epochs: 200,
///     ..TwoBranchWalkConfig::default()
/// });
/// assert!(out.either_branch_breach >= out.single_branch_breach);
/// ```
///
/// # Panics
///
/// Panics if `p0` or `beta0` are outside `(0, 1)` or `walkers == 0`.
pub fn run_two_branch_walks(config: &TwoBranchWalkConfig) -> TwoBranchWalkResult {
    let plan = TwoBranchWalkPlan::new(config);
    let parts = ChunkPool::new(config.threads).map(plan.chunks(), |c| plan.run_chunk(c));
    plan.finish(&parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pre-kernel bouncing Monte Carlo, kept as the oracle: one
    /// `random_bool` and one [`step_walker`] call per walker per epoch,
    /// an explicit `ejected` flag per walker, chunks merged in order.
    fn oracle_bouncing_walks(config: &BouncingWalkConfig) -> BouncingWalkResult {
        let m = config.walkers;
        let mut byz_stakes = Vec::new();
        let (_, byzantine_ejected_at) = byzantine_walk(
            config.epochs,
            true,
            config.paper_semantics,
            |epoch, stake| {
                if epoch % config.record_every == 0 {
                    byz_stakes.push(stake);
                }
            },
        );
        let factor = 2.0 * config.beta0 / (1.0 - config.beta0);
        let records = byz_stakes.len();
        let (mut below, mut ejected_count) = (vec![0u64; records], vec![0u64; records]);
        let mut stake_sum = vec![Vec::new(); records];
        let mut final_stakes = Vec::new();
        let seq = SeedSequence::new(config.seed);
        for chunk in 0..m.div_ceil(WALKER_CHUNK) {
            let len = chunk_len(chunk, m);
            let mut rng = seq.child_rng(chunk as u64);
            let mut scores = vec![0.0f64; len];
            let mut stakes = vec![STAKE0; len];
            let mut ejected = vec![false; len];
            for epoch in 0..config.epochs {
                if epoch % config.record_every == 0 {
                    let r = (epoch / config.record_every) as usize;
                    let threshold = factor * byz_stakes[r];
                    below[r] += stakes.iter().filter(|&&s| s < threshold).count() as u64;
                    stake_sum[r].push(stakes.iter().sum::<f64>());
                    ejected_count[r] += ejected.iter().filter(|&&e| e).count() as u64;
                }
                let p_on_a = branch_a_probability(config.p0, epoch);
                for i in 0..len {
                    let active = rng.random_bool(p_on_a);
                    step_walker(
                        &mut scores[i],
                        &mut stakes[i],
                        &mut ejected[i],
                        active,
                        config.paper_semantics,
                    );
                }
            }
            final_stakes.extend(stakes);
        }
        let series = (0..records)
            .map(|r| WalkEpochStats {
                epoch: r as u64 * config.record_every,
                prob_exceed_third: below[r] as f64 / m as f64,
                mean_honest_stake: stake_sum[r].iter().sum::<f64>() / m as f64,
                byzantine_stake: byz_stakes[r],
                ejected_fraction: ejected_count[r] as f64 / m as f64,
            })
            .collect();
        BouncingWalkResult {
            series,
            byzantine_ejected_at,
            final_stakes,
        }
    }

    /// The pre-kernel two-branch Monte Carlo (array-of-structs walkers,
    /// both views stepped per draw), kept as the oracle.
    fn oracle_two_branch_walks(config: &TwoBranchWalkConfig) -> TwoBranchWalkResult {
        let mut byz = [(0.0f64, STAKE0, false); 2];
        for epoch in 0..config.epochs {
            for (b, (score, stake, ejected)) in byz.iter_mut().enumerate() {
                let active = (epoch % 2 == 0) == (b == 0);
                step_walker(score, stake, ejected, active, config.paper_semantics);
            }
        }
        let byzantine_stake = [byz[0].1, byz[1].1];
        let factor = 2.0 * config.beta0 / (1.0 - config.beta0);
        let thresholds = byzantine_stake.map(|s| factor * s);
        let m = config.walkers;
        let seq = SeedSequence::new(config.seed);
        let (mut single, mut either) = (0u64, 0u64);
        for chunk in 0..m.div_ceil(WALKER_CHUNK) {
            let mut rng = seq.child_rng(chunk as u64);
            let mut walkers = vec![[(0.0f64, STAKE0, false); 2]; chunk_len(chunk, m)];
            for epoch in 0..config.epochs {
                let p_on_a = branch_a_probability(config.p0, epoch);
                for w in walkers.iter_mut() {
                    let on_a = rng.random_bool(p_on_a);
                    for (b, (score, stake, ejected)) in w.iter_mut().enumerate() {
                        step_walker(
                            score,
                            stake,
                            ejected,
                            on_a == (b == 0),
                            config.paper_semantics,
                        );
                    }
                }
            }
            for w in &walkers {
                let on = [w[0].1 < thresholds[0], w[1].1 < thresholds[1]];
                single += u64::from(on[0]);
                either += u64::from(on[0] || on[1]);
            }
        }
        TwoBranchWalkResult {
            single_branch_breach: single as f64 / m as f64,
            either_branch_breach: either as f64 / m as f64,
            byzantine_stake,
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Field-for-field, bit-for-bit equality of two bouncing results.
    fn assert_same_walks(kernel: &BouncingWalkResult, oracle: &BouncingWalkResult) {
        assert_eq!(kernel.byzantine_ejected_at, oracle.byzantine_ejected_at);
        assert_eq!(bits(&kernel.final_stakes), bits(&oracle.final_stakes));
        assert_eq!(kernel.series.len(), oracle.series.len());
        for (k, o) in kernel.series.iter().zip(&oracle.series) {
            assert_eq!(k.epoch, o.epoch);
            let fields = |s: &WalkEpochStats| {
                bits(&[
                    s.prob_exceed_third,
                    s.mean_honest_stake,
                    s.byzantine_stake,
                    s.ejected_fraction,
                ])
            };
            assert_eq!(fields(k), fields(o), "epoch {}", k.epoch);
        }
    }

    fn assert_same_breaches(kernel: &TwoBranchWalkResult, oracle: &TwoBranchWalkResult) {
        let fields = |r: &TwoBranchWalkResult| {
            bits(&[
                r.single_branch_breach,
                r.either_branch_breach,
                r.byzantine_stake[0],
                r.byzantine_stake[1],
            ])
        };
        assert_eq!(fields(kernel), fields(oracle));
    }

    const P0S: [f64; 3] = [0.2, 0.5, 0.8];
    /// At β₀ = ⅓ the Eq. 24 threshold *is* the Byzantine stake, so the
    /// breach counts split the walkers even after a handful of epochs;
    /// away from it a short run only ever sees all-or-nothing counts.
    const BETA0S: [f64; 3] = [0.3, 1.0 / 3.0, 0.36];
    /// One walker, a sub-vector chunk, one short of / one past a full
    /// chunk (odd vector tails), and three chunks with a partial last.
    const WALKERS: [usize; 5] = [1, 3, 1023, 1025, 3000];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn bouncing_kernel_equals_scalar_oracle(
            p0 in 0usize..3,
            walkers in 0usize..5,
            paper_semantics in any::<bool>(),
            beta0 in 0usize..3,
            epochs in 1u64..160,
            record_every in 1u64..40,
            seed in any::<u64>(),
            threads in 1usize..4,
        ) {
            let config = BouncingWalkConfig {
                p0: P0S[p0],
                beta0: BETA0S[beta0],
                walkers: WALKERS[walkers],
                epochs,
                seed,
                record_every,
                paper_semantics,
                threads,
            };
            assert_same_walks(&run_bouncing_walks(&config), &oracle_bouncing_walks(&config));
        }

        #[test]
        fn two_branch_kernel_equals_scalar_oracle(
            p0 in 0usize..3,
            walkers in 0usize..5,
            paper_semantics in any::<bool>(),
            beta0 in 0usize..3,
            epochs in 1u64..160,
            seed in any::<u64>(),
            threads in 1usize..4,
        ) {
            let config = TwoBranchWalkConfig {
                p0: P0S[p0],
                beta0: BETA0S[beta0],
                walkers: WALKERS[walkers],
                epochs,
                seed,
                paper_semantics,
                threads,
            };
            assert_same_breaches(
                &run_two_branch_walks(&config),
                &oracle_two_branch_walks(&config),
            );
        }
    }

    #[test]
    fn kernel_equals_oracle_through_honest_ejections() {
        // Honest walkers are ejected within ±150 epochs of the Byzantine
        // ones (epoch 7610 under paper semantics at this seed, 10761 under
        // spec), so these horizons exercise the kernel's "ejected ≡ zero
        // stake, and zero is a fixed point" invariant: ejected walkers
        // keep being stepped and must stay where the scalar rule froze
        // them. Recording every epoch pins the epoch of each ejection
        // through the stake sums. The two-branch horizon stops short of
        // the Byzantine ejection, which would zero both thresholds.
        for (paper_semantics, epochs, two_branch_epochs) in
            [(true, 8000, 7600), (false, 11_300, 10_750)]
        {
            let config = BouncingWalkConfig {
                beta0: 1.0 / 3.0,
                walkers: 64,
                epochs,
                record_every: 1,
                paper_semantics,
                threads: 1,
                ..BouncingWalkConfig::default()
            };
            let kernel = run_bouncing_walks(&config);
            assert!(kernel.final_stakes.iter().all(|&s| s == 0.0));
            assert_same_walks(&kernel, &oracle_bouncing_walks(&config));

            let config = TwoBranchWalkConfig {
                beta0: 1.0 / 3.0,
                walkers: 64,
                epochs: two_branch_epochs,
                paper_semantics,
                threads: 1,
                ..TwoBranchWalkConfig::default()
            };
            let kernel = run_two_branch_walks(&config);
            // Both views matter: some walker breaches on B alone.
            assert!(kernel.either_branch_breach > kernel.single_branch_breach);
            assert_same_breaches(&kernel, &oracle_two_branch_walks(&config));
        }
    }

    #[test]
    #[should_panic(expected = "record_every must be positive")]
    fn zero_record_every_is_rejected_up_front() {
        run_bouncing_walks(&BouncingWalkConfig {
            walkers: 10,
            epochs: 10,
            record_every: 0,
            ..BouncingWalkConfig::default()
        });
    }

    #[test]
    fn beta_one_third_gives_probability_near_half() {
        // Paper: for β₀ = 1/3 the threshold is exactly the semi-active
        // stake, and since the log-normal's median tracks s_B, the
        // probability hovers around 0.5 (Fig. 10 top curve).
        let cfg = BouncingWalkConfig {
            beta0: 1.0 / 3.0,
            walkers: 4000,
            epochs: 3000,
            record_every: 100,
            ..BouncingWalkConfig::default()
        };
        let out = run_bouncing_walks(&cfg);
        let at_2000 = out
            .series
            .iter()
            .find(|s| s.epoch == 2000)
            .expect("recorded");
        assert!(
            (0.35..0.65).contains(&at_2000.prob_exceed_third),
            "P = {} at epoch 2000, expected ≈ 0.5",
            at_2000.prob_exceed_third
        );
    }

    #[test]
    fn smaller_beta_gives_smaller_probability() {
        let mk = |beta0: f64| BouncingWalkConfig {
            beta0,
            walkers: 4000,
            epochs: 2500,
            record_every: 500,
            ..BouncingWalkConfig::default()
        };
        let hi = run_bouncing_walks(&mk(0.333));
        let lo = run_bouncing_walks(&mk(0.30));
        let p_hi = hi.series.last().unwrap().prob_exceed_third;
        let p_lo = lo.series.last().unwrap().prob_exceed_third;
        assert!(
            p_hi > p_lo,
            "P(β₀=0.333) = {p_hi} must exceed P(β₀=0.30) = {p_lo}"
        );
        // Paper Fig. 10: β₀ = 0.30 stays near zero for thousands of epochs.
        assert!(p_lo < 0.05, "p_lo = {p_lo}");
    }

    #[test]
    fn byzantine_ejection_epoch_matches_semi_active_curve() {
        // Paper §5.3: semi-active Byzantine validators are ejected after
        // ≈ 7653 epochs (continuous model: 7611).
        let cfg = BouncingWalkConfig {
            walkers: 10,
            epochs: 8000,
            record_every: 1000,
            ..BouncingWalkConfig::default()
        };
        let out = run_bouncing_walks(&cfg);
        let ej = out.byzantine_ejected_at.expect("byzantine must be ejected");
        assert!(
            (7500..7800).contains(&ej),
            "byzantine ejected at {ej}, paper ≈ 7653"
        );
    }

    #[test]
    fn honest_mean_stake_matches_drift_formula() {
        // At p0 = 0.5 the score drift is 3/2 per epoch, so the mean stake
        // follows the semi-active curve 32·e^(−3t²/2²⁸) (paper §5.3).
        let cfg = BouncingWalkConfig {
            walkers: 2000,
            epochs: 5001,
            record_every: 1000,
            ..BouncingWalkConfig::default()
        };
        let out = run_bouncing_walks(&cfg);
        let at5000 = out.series.iter().find(|s| s.epoch == 5000).unwrap();
        let theory = 32.0 * (-3.0 * 5000.0f64 * 5000.0 / 2f64.powi(28)).exp();
        let rel = (at5000.mean_honest_stake - theory).abs() / theory;
        assert!(
            rel < 0.05,
            "mean {} vs theory {theory} (rel {rel})",
            at5000.mean_honest_stake
        );
    }

    #[test]
    fn spec_semantics_slows_everything_down() {
        // Under spec semantics both honest bouncers and the semi-active
        // Byzantine decay at half the exponent; at β0 = 1/3 the symmetric
        // P ≈ 1/2 survives, but stakes are higher and ejection is later.
        let mk = |paper: bool| BouncingWalkConfig {
            beta0: 1.0 / 3.0,
            walkers: 2000,
            epochs: 5001,
            record_every: 2500,
            paper_semantics: paper,
            ..BouncingWalkConfig::default()
        };
        let paper = run_bouncing_walks(&mk(true));
        let spec = run_bouncing_walks(&mk(false));
        let p_last = paper.series.last().unwrap();
        let s_last = spec.series.last().unwrap();
        assert!(
            s_last.mean_honest_stake > p_last.mean_honest_stake + 1.0,
            "spec {} vs paper {}",
            s_last.mean_honest_stake,
            p_last.mean_honest_stake
        );
        assert!(s_last.byzantine_stake > p_last.byzantine_stake);
        // the symmetric probability stays near 1/2 in both worlds
        assert!((s_last.prob_exceed_third - 0.5).abs() < 0.15);
    }

    #[test]
    fn determinism_per_seed() {
        let cfg = BouncingWalkConfig {
            walkers: 500,
            epochs: 500,
            record_every: 100,
            ..BouncingWalkConfig::default()
        };
        let a = run_bouncing_walks(&cfg);
        let b = run_bouncing_walks(&cfg);
        assert_eq!(a.series.len(), b.series.len());
        for (x, y) in a.series.iter().zip(b.series.iter()) {
            assert_eq!(x.prob_exceed_third, y.prob_exceed_third);
        }
    }

    #[test]
    fn thread_count_is_bit_invisible() {
        // The headline property of the parallel harness: every field of
        // the result — counts, floating-point means, the final stake
        // vector — is byte-identical across thread counts.
        let mk = |threads: usize| BouncingWalkConfig {
            walkers: 3000, // three chunks, one partial
            epochs: 600,
            record_every: 150,
            threads,
            ..BouncingWalkConfig::default()
        };
        let one = run_bouncing_walks(&mk(1));
        for threads in [2, 3, 8] {
            let n = run_bouncing_walks(&mk(threads));
            assert_eq!(n.byzantine_ejected_at, one.byzantine_ejected_at);
            assert_eq!(n.final_stakes, one.final_stakes, "threads {threads}");
            assert_eq!(n.series.len(), one.series.len());
            for (a, b) in n.series.iter().zip(one.series.iter()) {
                assert_eq!(a.epoch, b.epoch);
                assert_eq!(a.prob_exceed_third, b.prob_exceed_third);
                assert_eq!(a.mean_honest_stake, b.mean_honest_stake);
                assert_eq!(a.byzantine_stake, b.byzantine_stake);
                assert_eq!(a.ejected_fraction, b.ejected_fraction);
            }
        }
    }

    #[test]
    fn two_branch_thread_count_is_bit_invisible() {
        let mk = |threads: usize| TwoBranchWalkConfig {
            walkers: 2500,
            epochs: 400,
            threads,
            ..TwoBranchWalkConfig::default()
        };
        let one = run_two_branch_walks(&mk(1));
        for threads in [2, 8] {
            let n = run_two_branch_walks(&mk(threads));
            assert_eq!(n.single_branch_breach, one.single_branch_breach);
            assert_eq!(n.either_branch_breach, one.either_branch_breach);
            assert_eq!(n.byzantine_stake, one.byzantine_stake);
        }
    }

    /// FNV-1a over the bits of `xs`: one number for a whole result.
    fn bits_digest(xs: impl IntoIterator<Item = f64>) -> u64 {
        xs.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
            x.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        })
    }

    /// The bits of a small run of each Monte Carlo, pinned as constants:
    /// the debug suite and the release one (`cargo test --release -p
    /// ethpos_sim`) check the same two values, so an optimized build
    /// whose vectorized kernel rounds differently from the unoptimized
    /// one fails in one of the two. 1 025 walkers on two threads take a
    /// full chunk plus a one-walker tail; at β₀ = ⅓ the single-branch
    /// breach count splits the walkers instead of reading all-or-nothing.
    #[test]
    fn small_runs_match_their_pinned_bits_in_every_profile() {
        let bouncing = run_bouncing_walks(&BouncingWalkConfig {
            beta0: 1.0 / 3.0,
            walkers: 1025,
            epochs: 600,
            record_every: 150,
            threads: 2,
            ..BouncingWalkConfig::default()
        });
        assert_eq!(bouncing.byzantine_ejected_at, None);
        let series = bouncing.series.iter().flat_map(|s| {
            [
                s.epoch as f64,
                s.prob_exceed_third,
                s.mean_honest_stake,
                s.byzantine_stake,
                s.ejected_fraction,
            ]
        });
        let digest = bits_digest(series.chain(bouncing.final_stakes.iter().copied()));
        assert_eq!(
            digest, 0x132a_f579_554f_7d1d,
            "bouncing walks: {digest:#018x}"
        );

        let two_branch = run_two_branch_walks(&TwoBranchWalkConfig {
            beta0: 1.0 / 3.0,
            walkers: 1025,
            epochs: 600,
            threads: 2,
            ..TwoBranchWalkConfig::default()
        });
        assert!(two_branch.single_branch_breach > 0.0 && two_branch.single_branch_breach < 1.0);
        let digest = bits_digest([
            two_branch.single_branch_breach,
            two_branch.either_branch_breach,
            two_branch.byzantine_stake[0],
            two_branch.byzantine_stake[1],
        ]);
        assert_eq!(
            digest, 0xdb62_adb3_f753_806f,
            "two-branch walks: {digest:#018x}"
        );
    }

    #[test]
    fn two_branch_union_bounds() {
        // The union is at least the single-branch rate and at most its
        // double (the paper's `2·P` remark is an upper bound).
        let out = run_two_branch_walks(&TwoBranchWalkConfig {
            walkers: 5000,
            epochs: 2000,
            ..TwoBranchWalkConfig::default()
        });
        assert!(out.single_branch_breach > 0.0);
        assert!(out.either_branch_breach >= out.single_branch_breach);
        assert!(out.either_branch_breach <= 2.0 * out.single_branch_breach + 1e-12);
    }
}
