//! Per-epoch processing, in spec order.
//!
//! `process_epoch` runs at each epoch boundary:
//!
//! 1. justification & finalization (Casper FFG, four finalization rules);
//! 2. inactivity-score updates (paper Eq. 1);
//! 3. rewards & penalties — attestation deltas plus the **inactivity
//!    penalty** `I·s / (BIAS × QUOTIENT)` (paper Eq. 2);
//! 4. registry updates (ejection of validators whose effective balance
//!    fell to `EJECTION_BALANCE`);
//! 5. correlation slashing penalties;
//! 6. effective-balance hysteresis updates;
//! 7. slashings-ring and participation rotation.

use ethpos_types::{Checkpoint, Epoch, Gwei, ValidatorIndex};

use crate::beacon_state::BeaconState;
use crate::participation::ParticipationFlags;
use crate::validator::FAR_FUTURE_EPOCH;

impl BeaconState {
    /// Runs full epoch processing (spec `process_epoch`).
    ///
    /// Called by [`BeaconState::advance_epoch`] before the state moves
    /// to the next epoch.
    ///
    /// # Example
    ///
    /// ```
    /// use ethpos_state::BeaconState;
    /// use ethpos_types::ChainConfig;
    ///
    /// let mut state = BeaconState::genesis(ChainConfig::minimal(), 8);
    /// // Nobody attests: after 8 epochs the inactivity leak is active.
    /// for _ in 0..8 {
    ///     state.advance_epoch(None);
    /// }
    /// assert!(state.is_in_inactivity_leak());
    /// ```
    pub fn process_epoch(&mut self) {
        // Per-stage wall-clock timing into the
        // `ethpos_epoch_stage_seconds{backend="dense", stage}` histograms
        // when metrics are enabled. Dense epochs cost µs–ms, so every
        // epoch is timed (the cohort path samples instead — see
        // `CohortState::process_epoch`). Observation-only: both paths run
        // the identical spec stage sequence.
        match crate::epoch_metrics::stage_timer("dense", true) {
            Some(mut t) => {
                self.process_justification_and_finalization();
                t.stage("justification");
                self.process_inactivity_updates();
                t.stage("inactivity_leak");
                self.process_rewards_and_penalties();
                t.stage("rewards_penalties");
                self.process_registry_updates();
                t.stage("registry_ejection");
                self.process_slashings();
                t.stage("slashings");
                self.process_effective_balance_updates();
                t.stage("effective_balance");
                self.process_slashings_reset();
                t.stage("slashings_reset");
                self.process_participation_flag_rotation();
                t.stage("flag_rotation");
            }
            None => {
                self.process_justification_and_finalization();
                self.process_inactivity_updates();
                self.process_rewards_and_penalties();
                self.process_registry_updates();
                self.process_slashings();
                self.process_effective_balance_updates();
                self.process_slashings_reset();
                self.process_participation_flag_rotation();
            }
        }
    }

    /// Spec `process_justification_and_finalization`.
    ///
    /// Justifies the previous/current epoch checkpoints when ≥ ⅔ of the
    /// total active balance attested to them, then applies the four
    /// finalization rules over the justification bits.
    pub fn process_justification_and_finalization(&mut self) {
        let current_epoch = self.current_epoch();
        // Spec: skip the first two epochs.
        if current_epoch.as_u64() <= 1 {
            return;
        }
        let previous_epoch = self.previous_epoch();
        let total = self.total_active_balance();
        let previous_target = self.unslashed_participating_target_balance(previous_epoch);
        let current_target = self.unslashed_participating_target_balance(current_epoch);
        let (bits, previous_justified, current_justified, finalized, roots) =
            self.justification_state_mut();

        let old_previous_justified = *previous_justified;
        let old_current_justified = *current_justified;

        // Rotate: previous ← current; shift bits.
        *previous_justified = *current_justified;
        bits.copy_within(0..3, 1);
        bits[0] = false;

        if previous_target.as_u64() * 3 >= total.as_u64() * 2 {
            *current_justified = Checkpoint::new(previous_epoch, roots[0].resolve());
            bits[1] = true;
        }
        if current_target.as_u64() * 3 >= total.as_u64() * 2 {
            *current_justified = Checkpoint::new(current_epoch, roots[1].resolve());
            bits[0] = true;
        }

        // The four finalization rules.
        // 2nd/3rd/4th most recent epochs all justified, source 3 back.
        if bits[1] && bits[2] && bits[3] && old_previous_justified.epoch + 3 == current_epoch {
            *finalized = old_previous_justified;
        }
        // 2nd/3rd most recent justified, source 2 back.
        if bits[1] && bits[2] && old_previous_justified.epoch + 2 == current_epoch {
            *finalized = old_previous_justified;
        }
        // 1st/2nd/3rd most recent justified, source 2 back.
        if bits[0] && bits[1] && bits[2] && old_current_justified.epoch + 2 == current_epoch {
            *finalized = old_current_justified;
        }
        // 1st/2nd most recent justified, source 1 back.
        if bits[0] && bits[1] && old_current_justified.epoch + 1 == current_epoch {
            *finalized = old_current_justified;
        }
    }

    /// Spec `process_inactivity_updates` — paper Eq. 1.
    ///
    /// Active-and-timely validators recover 1 point; others gain
    /// `INACTIVITY_SCORE_BIAS` (4). Outside a leak everyone additionally
    /// recovers `INACTIVITY_SCORE_RECOVERY_RATE` (16).
    pub fn process_inactivity_updates(&mut self) {
        if self.current_epoch() == Epoch::GENESIS {
            return;
        }
        let previous_epoch = self.previous_epoch();
        let bias = self.config().inactivity_score_bias;
        let recovery = self.config().inactivity_score_recovery_rate;
        let in_leak = self.is_in_inactivity_leak();

        let eligible: Vec<(usize, bool)> = self
            .validators()
            .iter()
            .enumerate()
            .filter(|(_, v)| {
                v.is_active_at(previous_epoch)
                    || (v.slashed && previous_epoch + 1 < v.withdrawable_epoch)
            })
            .map(|(i, v)| {
                let timely = !v.slashed
                    && self
                        .previous_participation(ValidatorIndex::from(i))
                        .has_timely_target();
                (i, timely)
            })
            .collect();

        let scores = self.inactivity_scores_mut();
        for (i, timely) in eligible {
            if timely {
                scores[i] -= scores[i].min(1);
            } else {
                scores[i] += bias;
            }
            if !in_leak {
                scores[i] -= scores[i].min(recovery);
            }
        }
    }

    /// Spec `process_registry_updates`, restricted to ejections (there are
    /// no deposits or voluntary exits in the simulation).
    ///
    /// A validator whose effective balance has decayed to
    /// `EJECTION_BALANCE` (16 ETH — actual balance below 16.75 ETH) is
    /// exited at the next epoch. Exit-queue churn is intentionally not
    /// modelled (see `ARCHITECTURE.md`, "Deliberate simplifications"):
    /// the paper treats ejection as immediate.
    pub fn process_registry_updates(&mut self) {
        let current_epoch = self.current_epoch();
        let ejection_balance = self.config().ejection_balance;
        let exit_epoch = current_epoch + 1;
        for v in self.validators_mut().iter_mut() {
            if v.is_active_at(current_epoch)
                && v.effective_balance <= ejection_balance
                && v.exit_epoch == FAR_FUTURE_EPOCH
            {
                v.exit_epoch = exit_epoch;
                if v.withdrawable_epoch == FAR_FUTURE_EPOCH {
                    v.withdrawable_epoch = exit_epoch + 256;
                }
            }
        }
    }

    /// Spec `process_effective_balance_updates` (hysteresis).
    ///
    /// Effective balance follows the actual balance in 1-ETH steps, moving
    /// down when the balance drops more than 0.25 ETH below the current
    /// effective value and up when it exceeds it by more than 1.25 ETH.
    pub fn process_effective_balance_updates(&mut self) {
        let increment = self.config().effective_balance_increment;
        let hysteresis_increment = increment.integer_div(self.config().hysteresis_quotient);
        let downward =
            Gwei::new(hysteresis_increment.as_u64() * self.config().hysteresis_downward_multiplier);
        let upward =
            Gwei::new(hysteresis_increment.as_u64() * self.config().hysteresis_upward_multiplier);

        let config = self.config().clone();
        let balances: Vec<Gwei> = self.balances().to_vec();
        for (v, balance) in self.validators_mut().iter_mut().zip(balances) {
            let eff = v.effective_balance;
            if balance + downward < eff || eff + upward < balance {
                v.effective_balance = config.snapped_effective_balance(balance);
            }
        }
    }

    /// Zeroes the slashings-ring entry that will accumulate the next
    /// epoch's slashed balances (spec `process_slashings_reset`).
    pub fn process_slashings_reset(&mut self) {
        let next = self.current_epoch() + 1;
        let len = self.config().epochs_per_slashings_vector;
        let idx = (next.as_u64() % len) as usize;
        self.slashings_ring()[idx] = Gwei::ZERO;
    }

    /// Rotates participation flags (spec
    /// `process_participation_flag_updates`).
    pub fn process_participation_flag_rotation(&mut self) {
        let n = self.num_validators();
        let (previous, current) = self.participation_mut();
        std::mem::swap(previous, current);
        current.clear();
        current.resize(n, ParticipationFlags::EMPTY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::participation::TIMELY_TARGET_FLAG_INDEX;
    use ethpos_types::ChainConfig;

    fn state(n: usize) -> BeaconState {
        BeaconState::genesis(ChainConfig::minimal(), n)
    }

    /// Marks every validator as target-timely for the current epoch.
    fn mark_all_timely(s: &mut BeaconState) {
        let mut f = ParticipationFlags::EMPTY;
        f.set(TIMELY_TARGET_FLAG_INDEX);
        for i in 0..s.num_validators() {
            s.merge_current_participation(ValidatorIndex::from(i), f);
        }
    }

    /// Advances one full epoch, marking all validators timely first.
    fn run_healthy_epoch(s: &mut BeaconState) {
        mark_all_timely(s);
        s.advance_epoch(None);
    }

    #[test]
    fn healthy_chain_justifies_and_finalizes() {
        let mut s = state(16);
        // Spec skips justification while current_epoch ≤ 1.
        run_healthy_epoch(&mut s); // end-of-epoch-0 processed; now at epoch 1
        assert_eq!(s.current_justified_checkpoint().epoch, Epoch::new(0));
        run_healthy_epoch(&mut s); // end-of-epoch-1 processed; at epoch 2
        assert_eq!(s.current_justified_checkpoint().epoch, Epoch::new(0));
        run_healthy_epoch(&mut s); // end-of-epoch-2: justify epochs 1 and 2
        assert_eq!(s.current_justified_checkpoint().epoch, Epoch::new(2));
        assert_eq!(s.finalized_checkpoint().epoch, Epoch::new(0));
        run_healthy_epoch(&mut s); // end-of-epoch-3: justify 3, finalize 2
        assert_eq!(s.current_justified_checkpoint().epoch, Epoch::new(3));
        assert_eq!(s.finalized_checkpoint().epoch, Epoch::new(2));
        run_healthy_epoch(&mut s); // steady state: finality lags by one
        assert_eq!(s.current_justified_checkpoint().epoch, Epoch::new(4));
        assert_eq!(s.finalized_checkpoint().epoch, Epoch::new(3));
        assert!(!s.is_in_inactivity_leak());
    }

    #[test]
    fn no_participation_means_no_justification_and_leak_starts() {
        let mut s = state(16);
        for _ in 0..8 {
            s.advance_epoch(None);
        }
        assert_eq!(s.current_justified_checkpoint().epoch, Epoch::new(0));
        assert_eq!(s.finalized_checkpoint().epoch, Epoch::new(0));
        // previous_epoch (7) − finalized (0) > 4 ⇒ leak
        assert!(s.is_in_inactivity_leak());
    }

    #[test]
    fn justification_requires_two_thirds() {
        let mut s = state(9);
        let mut f = ParticipationFlags::EMPTY;
        f.set(TIMELY_TARGET_FLAG_INDEX);
        // Advance to epoch 3 with full participation: epoch 2 justified.
        run_healthy_epoch(&mut s);
        run_healthy_epoch(&mut s);
        run_healthy_epoch(&mut s);
        assert_eq!(s.current_justified_checkpoint().epoch, Epoch::new(2));
        // Epoch 3: only 5 of 9 participate (< 2/3) — no new justification.
        for i in 0..5u64 {
            s.merge_current_participation(ValidatorIndex::from(i), f);
        }
        s.advance_epoch(None);
        assert_eq!(s.current_justified_checkpoint().epoch, Epoch::new(2));
        // Epoch 4: exactly 6 of 9 (= 2/3) participates — justifies.
        for i in 0..6u64 {
            s.merge_current_participation(ValidatorIndex::from(i), f);
        }
        s.advance_epoch(None);
        assert_eq!(s.current_justified_checkpoint().epoch, Epoch::new(4));
    }

    #[test]
    fn inactivity_scores_grow_for_idle_validators_in_leak() {
        let mut s = state(8);
        // Reach a leak: 8 epochs without participation.
        for _ in 0..8 {
            s.advance_epoch(None);
        }
        assert!(s.is_in_inactivity_leak());
        let score = s.inactivity_score(ValidatorIndex::new(0));
        assert!(score > 0, "score should have accumulated, got {score}");
        // One more idle epoch adds exactly BIAS (4) while in leak.
        s.advance_epoch(None);
        assert_eq!(s.inactivity_score(ValidatorIndex::new(0)), score + 4);
    }

    #[test]
    fn inactivity_scores_recover_outside_leak() {
        let mut s = state(8);
        // Healthy epochs keep scores at zero.
        for _ in 0..6 {
            run_healthy_epoch(&mut s);
        }
        assert_eq!(s.inactivity_score(ValidatorIndex::new(0)), 0);
    }

    #[test]
    fn effective_balance_hysteresis_down() {
        let mut s = state(4);
        let v = ValidatorIndex::new(0);
        // drop actual balance to 31.8: within 0.25 of 32 ⇒ no change
        s.decrease_balance(v, Gwei::from_eth_f64(0.2));
        s.process_effective_balance_updates();
        assert_eq!(s.validators()[0].effective_balance, Gwei::from_eth_u64(32));
        // drop to 31.7 ⇒ 31.7 + 0.25 < 32 ⇒ snap down to 31
        s.decrease_balance(v, Gwei::from_eth_f64(0.1));
        s.process_effective_balance_updates();
        assert_eq!(s.validators()[0].effective_balance, Gwei::from_eth_u64(31));
    }

    #[test]
    fn effective_balance_is_capped_at_max() {
        let mut s = state(4);
        let v = ValidatorIndex::new(0);
        s.increase_balance(v, Gwei::from_eth_u64(10));
        s.process_effective_balance_updates();
        assert_eq!(s.validators()[0].effective_balance, Gwei::from_eth_u64(32));
    }

    #[test]
    fn ejection_exits_validator_next_epoch() {
        let mut s = state(4);
        // Put validator 0 at 16 ETH effective.
        s.validators_mut()[0].effective_balance = Gwei::from_eth_u64(16);
        let epoch = s.current_epoch();
        s.process_registry_updates();
        let v = &s.validators()[0];
        assert_eq!(v.exit_epoch, epoch + 1);
        // others untouched
        assert_eq!(s.validators()[1].exit_epoch, FAR_FUTURE_EPOCH);
    }

    #[test]
    fn ejection_is_idempotent() {
        let mut s = state(4);
        s.validators_mut()[0].effective_balance = Gwei::from_eth_u64(15);
        s.process_registry_updates();
        let first_exit = s.validators()[0].exit_epoch;
        for _ in 0..5 {
            s.advance_epoch(None);
        }
        s.process_registry_updates();
        assert_eq!(s.validators()[0].exit_epoch, first_exit);
    }

    #[test]
    fn justification_gap_delays_finalization() {
        // A skipped epoch of participation leaves a justification gap; the
        // next justified checkpoint cannot finalize its too-old source.
        let mut s = state(12);
        run_healthy_epoch(&mut s); // at epoch 1
        run_healthy_epoch(&mut s); // at epoch 2
        run_healthy_epoch(&mut s); // at epoch 3: justified (2)
        assert_eq!(s.current_justified_checkpoint().epoch, Epoch::new(2));
        // Epoch 3 passes with NO participation: nothing new justified.
        s.advance_epoch(None); // at epoch 4
        assert_eq!(s.current_justified_checkpoint().epoch, Epoch::new(2));
        assert_eq!(s.finalized_checkpoint().epoch, Epoch::new(0));
        // Epoch 4 fully participates: justify 4; the 2→4 gap prevents
        // every finalization rule from firing.
        run_healthy_epoch(&mut s); // at epoch 5
        assert_eq!(s.current_justified_checkpoint().epoch, Epoch::new(4));
        assert_eq!(s.finalized_checkpoint().epoch, Epoch::new(0));
        // Consecutive justification resumes: justify 5, finalize 4.
        run_healthy_epoch(&mut s); // at epoch 6
        assert_eq!(s.current_justified_checkpoint().epoch, Epoch::new(5));
        assert_eq!(s.finalized_checkpoint().epoch, Epoch::new(4));
    }
}
