//! The retained clone-based cohort backend — the differential oracle
//! for the copy-on-write [`CohortState`](crate::CohortState).
//!
//! This module is the pre-refactor `CohortState` verbatim: one
//! `BTreeMap<(class, member state), count>` rebuilt by every epoch
//! sub-step in spec order, deep-copied on `clone()`. It is kept (not
//! deleted) so the equivalence test wall can drive three backends in
//! lockstep — [`DenseState`](crate::DenseState), the CoW
//! [`CohortState`](crate::CohortState), and this reference path — and
//! assert equal [`StateSnapshot`]s after every epoch. Any byte
//! divergence introduced by the shared-representation rewrite or its
//! fused epoch pass shows up here as a three-way mismatch with an
//! unambiguous culprit.
//!
//! Not exposed through [`BackendKind`](crate::BackendKind): simulators
//! and the CLI only ever choose between dense and cohort; the reference
//! exists for tests and cross-checks.

use std::collections::BTreeMap;

use ethpos_crypto::hash_u64;
use ethpos_types::{ChainConfig, Checkpoint, Epoch, Gwei, Root, Slot};

use crate::backend::{ClassSpec, ClassStats, MemberState, StateBackend, StateSnapshot};
use crate::participation::{
    ParticipationFlags, TIMELY_HEAD_FLAG_INDEX, TIMELY_SOURCE_FLAG_INDEX, TIMELY_TARGET_FLAG_INDEX,
};
use crate::rewards::integer_sqrt;
use crate::validator::FAR_FUTURE_EPOCH;

/// One cohort: a behaviour class plus the complete per-validator state
/// shared by every member.
type CohortKey = (u32, MemberState);

/// Clone-based cohort-compressed beacon state: `(class, state) → count`
/// groups plus the global finality bookkeeping, processed with exact
/// spec integer arithmetic, one full map rebuild per epoch sub-step.
///
/// # Example
///
/// Behaves exactly like [`CohortState`](crate::CohortState):
///
/// ```
/// use ethpos_state::backend::{ClassSpec, StateBackend};
/// use ethpos_state::{ReferenceCohortState, ParticipationFlags};
/// use ethpos_types::ChainConfig;
///
/// let config = ChainConfig::paper();
/// let classes = [
///     ClassSpec::full_stake(600_000, &config),
///     ClassSpec::full_stake(400_000, &config),
/// ];
/// let mut state = ReferenceCohortState::from_classes(config, &classes);
/// for _ in 0..100 {
///     state.mark_class(0, ParticipationFlags::all());
///     state.advance_epoch(None);
/// }
/// assert_eq!(state.num_cohorts(), 2); // deterministic schedule: no splits
/// assert!(state.is_in_inactivity_leak()); // 60% < 2/3 never justifies
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceCohortState {
    config: ChainConfig,
    slot: Slot,
    num_classes: usize,
    cohorts: BTreeMap<CohortKey, u64>,
    justification_bits: [bool; 4],
    previous_justified: Checkpoint,
    current_justified: Checkpoint,
    finalized: Checkpoint,
    /// Ring buffer of slashed effective balance per epoch.
    slashings: Vec<Gwei>,
    /// Checkpoint root at the start of each epoch (index = epoch).
    epoch_roots: Vec<Root>,
}

impl ReferenceCohortState {
    /// Number of distinct cohorts currently tracked.
    pub fn num_cohorts(&self) -> usize {
        self.cohorts.len()
    }

    /// Current slot (always an epoch start).
    pub fn slot(&self) -> Slot {
        self.slot
    }

    /// Previous epoch (genesis-floored).
    pub fn previous_epoch(&self) -> Epoch {
        self.current_epoch().prev()
    }

    /// Epochs since finalization, measured at the previous epoch (spec
    /// `get_finality_delay`).
    pub fn finality_delay(&self) -> u64 {
        self.previous_epoch() - self.finalized.epoch
    }

    /// True if the chain is in an inactivity leak.
    pub fn is_in_inactivity_leak(&self) -> bool {
        self.finality_delay() > self.config.min_epochs_to_inactivity_penalty
    }

    /// Rebuilds the cohort map by transforming every cohort's member
    /// state, merging cohorts that land on the same `(class, state)`.
    fn transform(&mut self, mut f: impl FnMut(u32, &MemberState) -> MemberState) {
        let mut next: BTreeMap<CohortKey, u64> = BTreeMap::new();
        for ((class, member), &count) in &self.cohorts {
            *next.entry((*class, f(*class, member))).or_insert(0) += count;
        }
        self.cohorts = next;
    }

    /// Sum of `count × f(member)` over all cohorts (u64, spec-width).
    fn sum_over(&self, mut f: impl FnMut(&MemberState) -> u64) -> u64 {
        self.cohorts
            .iter()
            .map(|((_, m), &count)| count * f(m))
            .sum()
    }

    /// Spec `get_total_active_balance` (increment-floored).
    fn total_active_balance_inner(&self) -> Gwei {
        let epoch = self.current_epoch();
        let total = self.sum_over(|m| {
            if m.is_active_at(epoch) {
                m.effective_balance.as_u64()
            } else {
                0
            }
        });
        Gwei::new(total).max(self.config.effective_balance_increment)
    }

    /// Spec `unslashed_participating_target_balance` for the previous or
    /// current epoch.
    fn target_balance(&self, epoch: Epoch, previous: bool) -> Gwei {
        Gwei::new(self.sum_over(|m| {
            let flags = if previous {
                m.previous_flags
            } else {
                m.current_flags
            };
            if !m.slashed && m.is_active_at(epoch) && flags.has_timely_target() {
                m.effective_balance.as_u64()
            } else {
                0
            }
        }))
    }

    // ── epoch processing, in spec order ─────────────────────────────────

    fn process_epoch(&mut self) {
        self.process_justification_and_finalization();
        self.process_inactivity_updates();
        self.process_rewards_and_penalties();
        self.process_registry_updates();
        self.process_slashings();
        self.process_effective_balance_updates();
        self.process_slashings_reset();
        self.process_participation_flag_rotation();
    }

    fn process_justification_and_finalization(&mut self) {
        let current_epoch = self.current_epoch();
        // Spec: skip the first two epochs.
        if current_epoch.as_u64() <= 1 {
            return;
        }
        let previous_epoch = self.previous_epoch();
        let total = self.total_active_balance_inner();
        let previous_target = self.target_balance(previous_epoch, true);
        let current_target = self.target_balance(current_epoch, false);
        let prev_root = self.epoch_roots[previous_epoch.as_u64() as usize];
        let curr_root = self.epoch_roots[current_epoch.as_u64() as usize];

        let old_previous_justified = self.previous_justified;
        let old_current_justified = self.current_justified;

        // Rotate: previous ← current; shift bits.
        self.previous_justified = self.current_justified;
        self.justification_bits.copy_within(0..3, 1);
        self.justification_bits[0] = false;

        if previous_target.as_u64() * 3 >= total.as_u64() * 2 {
            self.current_justified = Checkpoint::new(previous_epoch, prev_root);
            self.justification_bits[1] = true;
        }
        if current_target.as_u64() * 3 >= total.as_u64() * 2 {
            self.current_justified = Checkpoint::new(current_epoch, curr_root);
            self.justification_bits[0] = true;
        }

        // The four finalization rules.
        let bits = self.justification_bits;
        if bits[1] && bits[2] && bits[3] && old_previous_justified.epoch + 3 == current_epoch {
            self.finalized = old_previous_justified;
        }
        if bits[1] && bits[2] && old_previous_justified.epoch + 2 == current_epoch {
            self.finalized = old_previous_justified;
        }
        if bits[0] && bits[1] && bits[2] && old_current_justified.epoch + 2 == current_epoch {
            self.finalized = old_current_justified;
        }
        if bits[0] && bits[1] && old_current_justified.epoch + 1 == current_epoch {
            self.finalized = old_current_justified;
        }
    }

    fn process_inactivity_updates(&mut self) {
        if self.current_epoch() == Epoch::GENESIS {
            return;
        }
        let previous_epoch = self.previous_epoch();
        let bias = self.config.inactivity_score_bias;
        let recovery = self.config.inactivity_score_recovery_rate;
        let in_leak = self.is_in_inactivity_leak();

        self.transform(|_, m| {
            let eligible = m.is_active_at(previous_epoch)
                || (m.slashed && previous_epoch + 1 < m.withdrawable_epoch);
            if !eligible {
                return *m;
            }
            let timely = !m.slashed && m.previous_flags.has_timely_target();
            let mut score = m.inactivity_score;
            if timely {
                score -= score.min(1);
            } else {
                score += bias;
            }
            if !in_leak {
                score -= score.min(recovery);
            }
            MemberState {
                inactivity_score: score,
                ..*m
            }
        });
    }

    fn process_rewards_and_penalties(&mut self) {
        // Spec: genesis epoch has no previous epoch to settle.
        if self.current_epoch().as_u64() == 0 {
            return;
        }
        let previous_epoch = self.previous_epoch();
        let total_active = self.total_active_balance_inner().as_u64();
        let increment = self.config.effective_balance_increment.as_u64();
        let total_increments = (total_active / increment).max(1);
        let base_per_increment = {
            let factor = self.config.base_reward_factor;
            increment * factor / integer_sqrt(total_active).max(1)
        };
        let denominator = self.config.weight_denominator;
        let in_leak = self.is_in_inactivity_leak();
        let leak_denominator = self.config.inactivity_penalty_denominator();
        let paper_semantics = self.config.paper_inactivity_penalties;

        let flag_indices = [
            TIMELY_SOURCE_FLAG_INDEX,
            TIMELY_TARGET_FLAG_INDEX,
            TIMELY_HEAD_FLAG_INDEX,
        ];
        let weights = [
            self.config.timely_source_weight,
            self.config.timely_target_weight,
            self.config.timely_head_weight,
        ];

        // Participating increments per flag (unslashed, previous epoch).
        let mut participating_increments = [0u64; 3];
        for ((_, m), &count) in &self.cohorts {
            if m.slashed || !m.is_active_at(previous_epoch) {
                continue;
            }
            for (k, &flag) in flag_indices.iter().enumerate() {
                if m.previous_flags.has(flag) {
                    participating_increments[k] +=
                        count * (m.effective_balance.as_u64() / increment);
                }
            }
        }

        self.transform(|_, m| {
            let eligible = m.is_active_at(previous_epoch)
                || (m.slashed && previous_epoch + 1 < m.withdrawable_epoch);
            if !eligible {
                return *m;
            }
            let increments_i = m.effective_balance.as_u64() / increment;
            let base_reward = increments_i * base_per_increment;
            let mut reward = 0u64;
            let mut penalty = 0u64;
            for (k, &flag) in flag_indices.iter().enumerate() {
                let participated = !m.slashed && m.previous_flags.has(flag);
                if participated {
                    if !in_leak {
                        let numerator = base_reward * weights[k] * participating_increments[k];
                        reward += numerator / (total_increments * denominator);
                    }
                    // In a leak: no reward (paper §4).
                } else if flag != TIMELY_HEAD_FLAG_INDEX {
                    penalty += base_reward * weights[k] / denominator;
                }
            }
            let pays_inactivity = if paper_semantics {
                m.slashed || m.inactivity_score > 0
            } else {
                m.slashed || !m.previous_flags.has(TIMELY_TARGET_FLAG_INDEX)
            };
            if pays_inactivity {
                let penalty_numerator =
                    m.effective_balance.as_u64() as u128 * m.inactivity_score as u128;
                penalty += (penalty_numerator / leak_denominator as u128) as u64;
            }
            // Mirror dense order: increase_balance then saturating
            // decrease_balance.
            MemberState {
                balance: (m.balance + Gwei::new(reward)).saturating_sub(Gwei::new(penalty)),
                ..*m
            }
        });
    }

    fn process_registry_updates(&mut self) {
        let current_epoch = self.current_epoch();
        let ejection_balance = self.config.ejection_balance;
        let exit_epoch = current_epoch + 1;
        self.transform(|_, m| {
            if m.is_active_at(current_epoch)
                && m.effective_balance <= ejection_balance
                && m.exit_epoch == FAR_FUTURE_EPOCH
            {
                let withdrawable_epoch = if m.withdrawable_epoch == FAR_FUTURE_EPOCH {
                    exit_epoch + 256
                } else {
                    m.withdrawable_epoch
                };
                MemberState {
                    exit_epoch,
                    withdrawable_epoch,
                    ..*m
                }
            } else {
                *m
            }
        });
    }

    /// Correlation slashing penalty (spec `process_slashings`).
    fn process_slashings(&mut self) {
        let epoch = self.current_epoch();
        let vector = self.config.epochs_per_slashings_vector;
        let multiplier = self.config.proportional_slashing_multiplier;
        let increment = self.config.effective_balance_increment.as_u64();

        let total_balance = self.total_active_balance_inner().as_u64();
        let slashings_sum: u64 = self.slashings.iter().map(|g| g.as_u64()).sum();
        let adjusted = slashings_sum.saturating_mul(multiplier).min(total_balance);
        if adjusted == 0 {
            return;
        }
        self.transform(|_, m| {
            if m.slashed && epoch + vector / 2 == m.withdrawable_epoch {
                let penalty_numerator =
                    (m.effective_balance.as_u64() / increment) as u128 * adjusted as u128;
                let penalty = (penalty_numerator / total_balance as u128) as u64 * increment;
                MemberState {
                    balance: m.balance.saturating_sub(Gwei::new(penalty)),
                    ..*m
                }
            } else {
                *m
            }
        });
    }

    fn process_effective_balance_updates(&mut self) {
        let increment = self.config.effective_balance_increment;
        let hysteresis_increment = increment.integer_div(self.config.hysteresis_quotient);
        let downward =
            Gwei::new(hysteresis_increment.as_u64() * self.config.hysteresis_downward_multiplier);
        let upward =
            Gwei::new(hysteresis_increment.as_u64() * self.config.hysteresis_upward_multiplier);
        let config = self.config.clone();

        self.transform(|_, m| {
            let eff = m.effective_balance;
            if m.balance + downward < eff || eff + upward < m.balance {
                MemberState {
                    effective_balance: config.snapped_effective_balance(m.balance),
                    ..*m
                }
            } else {
                *m
            }
        });
    }

    fn process_slashings_reset(&mut self) {
        let next = self.current_epoch() + 1;
        let len = self.config.epochs_per_slashings_vector;
        let idx = (next.as_u64() % len) as usize;
        self.slashings[idx] = Gwei::ZERO;
    }

    fn process_participation_flag_rotation(&mut self) {
        self.transform(|_, m| MemberState {
            previous_flags: m.current_flags,
            current_flags: ParticipationFlags::EMPTY,
            ..*m
        });
    }
}

impl StateBackend for ReferenceCohortState {
    fn from_classes(config: ChainConfig, classes: &[ClassSpec]) -> Self {
        let total: u64 = classes.iter().map(|c| c.count).sum();
        let genesis_root = hash_u64(&[0x67_656e_6573_6973, total]); // "genesis"
        let mut cohorts = BTreeMap::new();
        for (class, spec) in classes.iter().enumerate() {
            if spec.count == 0 {
                continue;
            }
            let member = MemberState {
                balance: spec.balance,
                effective_balance: config.snapped_effective_balance(spec.balance),
                inactivity_score: 0,
                slashed: false,
                activation_epoch: Epoch::GENESIS,
                exit_epoch: FAR_FUTURE_EPOCH,
                withdrawable_epoch: FAR_FUTURE_EPOCH,
                previous_flags: ParticipationFlags::EMPTY,
                current_flags: ParticipationFlags::EMPTY,
            };
            *cohorts.entry((class as u32, member)).or_insert(0) += spec.count;
        }
        let genesis_checkpoint = Checkpoint::genesis(genesis_root);
        ReferenceCohortState {
            slashings: vec![Gwei::ZERO; config.epochs_per_slashings_vector as usize],
            config,
            slot: Slot::GENESIS,
            num_classes: classes.len(),
            cohorts,
            justification_bits: [false; 4],
            previous_justified: genesis_checkpoint,
            current_justified: genesis_checkpoint,
            finalized: genesis_checkpoint,
            epoch_roots: vec![genesis_root],
        }
    }

    fn config(&self) -> &ChainConfig {
        &self.config
    }

    fn current_epoch(&self) -> Epoch {
        self.slot.epoch(self.config.slots_per_epoch)
    }

    fn current_justified_checkpoint(&self) -> Checkpoint {
        self.current_justified
    }

    fn finalized_checkpoint(&self) -> Checkpoint {
        self.finalized
    }

    fn total_active_balance(&self) -> Gwei {
        self.total_active_balance_inner()
    }

    fn current_target_balance(&self) -> Gwei {
        self.target_balance(self.current_epoch(), false)
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn class_stats(&self, class: usize) -> ClassStats {
        let epoch = self.current_epoch();
        let mut stats = ClassStats::default();
        for ((c, m), &count) in &self.cohorts {
            if *c as usize != class {
                continue;
            }
            stats.total += count;
            if m.is_active_at(epoch) {
                stats.active += count;
                stats.active_stake += Gwei::new(count * m.effective_balance.as_u64());
            } else {
                stats.exited += count;
            }
        }
        stats
    }

    fn class_floor(&self, class: usize) -> Option<MemberState> {
        // BTreeMap order is (class, member): the first entry of the class
        // is its floor.
        self.cohorts
            .range((class as u32, MEMBER_FLOOR)..)
            .next()
            .filter(|(&(c, _), _)| c as usize == class)
            .map(|(&(_, m), _)| m)
    }

    fn mark_class(&mut self, class: usize, flags: ParticipationFlags) {
        let epoch = self.current_epoch();
        self.transform(|c, m| {
            if c as usize == class && m.is_active_at(epoch) {
                MemberState {
                    current_flags: m.current_flags.union(flags),
                    ..*m
                }
            } else {
                *m
            }
        });
    }

    fn mark_class_counted(
        &mut self,
        class: usize,
        flags: ParticipationFlags,
        sample: &mut impl FnMut(u64) -> u64,
    ) {
        let epoch = self.current_epoch();
        let mut next: BTreeMap<CohortKey, u64> = BTreeMap::new();
        for ((c, m), &count) in &self.cohorts {
            // BTreeMap iteration is sorted MemberState order — the same
            // canonical cohort order the exact backend walks, so both
            // consume identical count-draw streams (trait contract).
            if *c as usize != class || !m.is_active_at(epoch) {
                *next.entry((*c, *m)).or_insert(0) += count;
                continue;
            }
            let drawn = sample(count).min(count);
            // Split the cohort: `drawn` members get the flags, the rest
            // keep their state. Equal results re-merge via the map key.
            if drawn > 0 {
                let marked = MemberState {
                    current_flags: m.current_flags.union(flags),
                    ..*m
                };
                *next.entry((*c, marked)).or_insert(0) += drawn;
            }
            if drawn < count {
                *next.entry((*c, *m)).or_insert(0) += count - drawn;
            }
        }
        self.cohorts = next;
    }

    fn advance_epoch(&mut self, next_checkpoint_root: Option<Root>) {
        self.process_epoch();
        let spe = self.config.slots_per_epoch;
        self.slot = (self.current_epoch() + 1).start_slot(spe);
        let carried = *self.epoch_roots.last().expect("never empty");
        self.epoch_roots
            .push(next_checkpoint_root.unwrap_or(carried));
    }

    fn snapshot(&self) -> StateSnapshot {
        let mut classes: Vec<Vec<(MemberState, u64)>> = vec![Vec::new(); self.num_classes];
        for ((c, m), &count) in &self.cohorts {
            classes[*c as usize].push((*m, count));
        }
        StateSnapshot {
            slot: self.slot,
            justification_bits: self.justification_bits,
            previous_justified: self.previous_justified,
            current_justified: self.current_justified,
            finalized: self.finalized,
            slashings: self.slashings.clone(),
            classes,
        }
    }
}

/// The minimum member state under the canonical ordering (used for
/// class range scans).
const MEMBER_FLOOR: MemberState = MemberState {
    balance: Gwei::ZERO,
    effective_balance: Gwei::ZERO,
    inactivity_score: 0,
    slashed: false,
    activation_epoch: Epoch::GENESIS,
    exit_epoch: Epoch::GENESIS,
    withdrawable_epoch: Epoch::GENESIS,
    previous_flags: ParticipationFlags::EMPTY,
    current_flags: ParticipationFlags::EMPTY,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DenseState;

    fn full(count: u64) -> ClassSpec {
        ClassSpec::full_stake(count, &ChainConfig::minimal())
    }

    /// Drives a dense and a cohort backend through the same schedule and
    /// asserts equal snapshots after every epoch.
    fn assert_equivalent(
        config: ChainConfig,
        classes: &[ClassSpec],
        epochs: u64,
        schedule: impl Fn(u64, usize) -> bool,
    ) {
        let mut dense = DenseState::from_classes(config.clone(), classes);
        let mut cohort = ReferenceCohortState::from_classes(config, classes);
        assert_eq!(dense.snapshot(), cohort.snapshot(), "genesis");
        for epoch in 0..epochs {
            for class in 0..classes.len() {
                if schedule(epoch, class) {
                    dense.mark_class(class, ParticipationFlags::all());
                    cohort.mark_class(class, ParticipationFlags::all());
                }
            }
            dense.advance_epoch(None);
            cohort.advance_epoch(None);
            assert_eq!(dense.snapshot(), cohort.snapshot(), "epoch {epoch}");
        }
    }

    #[test]
    fn healthy_chain_matches_dense_and_finalizes() {
        let classes = [full(16)];
        let mut cohort = ReferenceCohortState::from_classes(ChainConfig::minimal(), &classes);
        for _ in 0..6 {
            cohort.mark_class(0, ParticipationFlags::all());
            cohort.advance_epoch(None);
        }
        assert_eq!(cohort.finalized_checkpoint().epoch, Epoch::new(4));
        assert!(!cohort.is_in_inactivity_leak());
        assert_equivalent(ChainConfig::minimal(), &classes, 8, |_, _| true);
    }

    #[test]
    fn idle_chain_leaks_identically() {
        assert_equivalent(ChainConfig::minimal(), &[full(8), full(8)], 12, |_, _| {
            false
        });
    }

    #[test]
    fn mixed_schedule_matches_dense() {
        // Class 0 always attests, class 1 every other epoch, class 2 never
        // — the Fig. 2 cohort mix, under both penalty semantics.
        for config in [ChainConfig::minimal(), ChainConfig::paper()] {
            assert_equivalent(
                config,
                &[full(1), full(1), full(8)],
                24,
                |epoch, class| match class {
                    0 => true,
                    1 => epoch % 2 == 0,
                    _ => false,
                },
            );
        }
    }

    #[test]
    fn genesis_ejection_boundary_matches_dense() {
        // 16.5 ETH snaps to a 16-ETH effective balance at genesis, which
        // is at the ejection threshold: the class exits at epoch 1.
        let low = ClassSpec {
            count: 4,
            balance: Gwei::from_eth_f64(16.5),
        };
        assert_equivalent(ChainConfig::minimal(), &[full(8), low], 6, |_, c| c == 0);
        let mut cohort =
            ReferenceCohortState::from_classes(ChainConfig::minimal(), &[full(8), low]);
        for _ in 0..3 {
            cohort.mark_class(0, ParticipationFlags::all());
            cohort.advance_epoch(None);
        }
        let stats = cohort.class_stats(1);
        assert_eq!(stats.exited, 4);
        assert_eq!(cohort.class_stats(0).exited, 0);
    }

    #[test]
    fn sampled_marking_splits_and_merges_cohorts() {
        let mut cohort = ReferenceCohortState::from_classes(ChainConfig::minimal(), &[full(10)]);
        cohort.mark_class_counted(0, ParticipationFlags::all(), &mut |_| 5);
        assert_eq!(cohort.num_cohorts(), 2); // split: 5 marked, 5 not
        let marked_stake = cohort.current_target_balance();
        assert_eq!(marked_stake, Gwei::from_eth_u64(5 * 32));
        // One epoch later the flags rotate; scores of the two halves
        // diverge, so the split persists…
        cohort.advance_epoch(None);
        assert_eq!(cohort.num_cohorts(), 2);
        // …until their states coincide again (everyone idle long enough
        // outside a leak recovers to score 0 — here both halves are again
        // distinct only through scores, so marking everyone keeps 2).
        let snap = cohort.snapshot();
        let total: u64 = snap.classes[0].iter().map(|(_, c)| c).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn class_floor_reads_smallest_member() {
        let classes = [full(4), full(2)];
        let mut cohort = ReferenceCohortState::from_classes(ChainConfig::minimal(), &classes);
        cohort.mark_class(0, ParticipationFlags::all());
        for _ in 0..6 {
            cohort.advance_epoch(None);
            cohort.mark_class(0, ParticipationFlags::all());
        }
        let active = cohort.class_floor(0).unwrap();
        let idle = cohort.class_floor(1).unwrap();
        assert!(active.balance >= idle.balance);
        assert_eq!(cohort.class_floor(2), None);
    }
}
