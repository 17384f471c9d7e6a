//! The [`BeaconState`] container and its balance/registry helpers.

use serde::{Deserialize, Serialize};

use ethpos_crypto::hash_u64;
use ethpos_types::{ChainConfig, Checkpoint, Epoch, Gwei, Root, Slot, ValidatorIndex};

use crate::error::StateError;
use crate::participation::ParticipationFlags;
use crate::validator::Validator;

/// The beacon chain state: one branch's view of the registry, balances,
/// participation and finality bookkeeping.
///
/// Field layout follows the consensus spec (Altair/Bellatrix); fields that
/// play no role in the paper's analysis (randao mixes, historical
/// summaries, execution payload headers, …) are omitted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BeaconState {
    config: ChainConfig,
    slot: Slot,
    /// The validator registry.
    validators: Vec<Validator>,
    /// Actual balances in Gwei (the paper's `s_i(t)`).
    balances: Vec<Gwei>,
    /// Inactivity scores (the paper's `I_i(t)`).
    inactivity_scores: Vec<u64>,
    previous_epoch_participation: Vec<ParticipationFlags>,
    current_epoch_participation: Vec<ParticipationFlags>,
    /// Justification bits for the last four epochs (bit 0 = current).
    justification_bits: [bool; 4],
    previous_justified_checkpoint: Checkpoint,
    current_justified_checkpoint: Checkpoint,
    finalized_checkpoint: Checkpoint,
    /// Ring buffer of slashed effective balance per epoch.
    slashings: Vec<Gwei>,
    /// Latest block root at each slot (index = slot); missed slots repeat
    /// the previous root, like spec `get_block_root_at_slot`.
    block_roots: Vec<Root>,
    genesis_root: Root,
}

impl BeaconState {
    /// Creates a genesis state with `n` validators at the maximum
    /// effective balance, all active from epoch 0.
    pub fn genesis(config: ChainConfig, n: usize) -> Self {
        let balance = config.max_effective_balance;
        BeaconState::genesis_with_balances(config, &vec![balance; n])
    }

    /// Creates a genesis state with one validator per entry of `balances`,
    /// all active from epoch 0. Each effective balance follows the spec's
    /// deposit rule: the actual balance snapped down to a whole
    /// effective-balance increment, capped at the maximum.
    pub fn genesis_with_balances(config: ChainConfig, balances: &[Gwei]) -> Self {
        let n = balances.len();
        let genesis_root = hash_u64(&[0x67_656e_6573_6973, n as u64]); // "genesis"
        let validators: Vec<Validator> = balances
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let mut v = Validator::genesis(i as u64, config.max_effective_balance);
                v.effective_balance = config.snapped_effective_balance(*b);
                v
            })
            .collect();
        let balances = balances.to_vec();
        let genesis_checkpoint = Checkpoint::genesis(genesis_root);
        let slashings = vec![Gwei::ZERO; config.epochs_per_slashings_vector as usize];
        BeaconState {
            config,
            slot: Slot::GENESIS,
            validators,
            balances,
            inactivity_scores: vec![0; n],
            previous_epoch_participation: vec![ParticipationFlags::EMPTY; n],
            current_epoch_participation: vec![ParticipationFlags::EMPTY; n],
            justification_bits: [false; 4],
            previous_justified_checkpoint: genesis_checkpoint,
            current_justified_checkpoint: genesis_checkpoint,
            finalized_checkpoint: genesis_checkpoint,
            slashings,
            block_roots: vec![genesis_root],
            genesis_root,
        }
    }

    // ── accessors ────────────────────────────────────────────────────────

    /// Protocol constants in force.
    pub fn config(&self) -> &ChainConfig {
        &self.config
    }

    /// Current slot.
    pub fn slot(&self) -> Slot {
        self.slot
    }

    /// Current epoch.
    pub fn current_epoch(&self) -> Epoch {
        self.slot.epoch(self.config.slots_per_epoch)
    }

    /// Previous epoch (genesis-floored, spec `get_previous_epoch`).
    pub fn previous_epoch(&self) -> Epoch {
        self.current_epoch().prev()
    }

    /// The validator registry.
    pub fn validators(&self) -> &[Validator] {
        &self.validators
    }

    /// Number of registered validators.
    pub fn num_validators(&self) -> usize {
        self.validators.len()
    }

    /// Actual balances.
    pub fn balances(&self) -> &[Gwei] {
        &self.balances
    }

    /// Actual balance of one validator.
    pub fn balance(&self, index: ValidatorIndex) -> Gwei {
        self.balances[index.as_usize()]
    }

    /// Inactivity scores.
    pub fn inactivity_scores(&self) -> &[u64] {
        &self.inactivity_scores
    }

    /// Inactivity score of one validator.
    pub fn inactivity_score(&self, index: ValidatorIndex) -> u64 {
        self.inactivity_scores[index.as_usize()]
    }

    /// Finalized checkpoint.
    pub fn finalized_checkpoint(&self) -> Checkpoint {
        self.finalized_checkpoint
    }

    /// Current justified checkpoint.
    pub fn current_justified_checkpoint(&self) -> Checkpoint {
        self.current_justified_checkpoint
    }

    /// Previous justified checkpoint.
    pub fn previous_justified_checkpoint(&self) -> Checkpoint {
        self.previous_justified_checkpoint
    }

    /// Justification bits (bit 0 = most recent epoch).
    pub fn justification_bits(&self) -> [bool; 4] {
        self.justification_bits
    }

    /// Genesis block root.
    pub fn genesis_root(&self) -> Root {
        self.genesis_root
    }

    /// The slashings ring buffer (slashed effective balance per epoch).
    pub fn slashings(&self) -> &[Gwei] {
        &self.slashings
    }

    /// Participation flags of `index` for the previous epoch.
    pub fn previous_participation(&self, index: ValidatorIndex) -> ParticipationFlags {
        self.previous_epoch_participation[index.as_usize()]
    }

    /// Participation flags of `index` for the current epoch.
    pub fn current_participation(&self, index: ValidatorIndex) -> ParticipationFlags {
        self.current_epoch_participation[index.as_usize()]
    }

    // ── registry & balance queries ───────────────────────────────────────

    /// Indices of validators active at `epoch`.
    pub fn active_validator_indices(&self, epoch: Epoch) -> Vec<ValidatorIndex> {
        self.validators
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_active_at(epoch))
            .map(|(i, _)| ValidatorIndex::from(i))
            .collect()
    }

    /// Sum of effective balances of validators active in the current
    /// epoch, floored at one effective-balance increment (spec
    /// `get_total_active_balance`).
    pub fn total_active_balance(&self) -> Gwei {
        let epoch = self.current_epoch();
        let total: Gwei = self
            .validators
            .iter()
            .filter(|v| v.is_active_at(epoch))
            .map(|v| v.effective_balance)
            .sum();
        total.max(self.config.effective_balance_increment)
    }

    /// Sum of effective balances of **unslashed** validators whose
    /// participation flags for `epoch` (previous or current only) include
    /// the timely-target flag — the FFG voting weight behind that epoch's
    /// checkpoint.
    pub fn unslashed_participating_target_balance(&self, epoch: Epoch) -> Gwei {
        // Check the current epoch first: at genesis, current == previous.
        let flags = if epoch == self.current_epoch() {
            &self.current_epoch_participation
        } else {
            debug_assert_eq!(epoch, self.previous_epoch());
            &self.previous_epoch_participation
        };
        let total: Gwei = self
            .validators
            .iter()
            .zip(flags.iter())
            .filter(|(v, f)| !v.slashed && v.is_active_at(epoch) && f.has_timely_target())
            .map(|(v, _)| v.effective_balance)
            .sum();
        total
    }

    /// Spec `increase_balance`.
    pub fn increase_balance(&mut self, index: ValidatorIndex, delta: Gwei) {
        self.balances[index.as_usize()] += delta;
    }

    /// Spec `decrease_balance` (saturating at zero).
    pub fn decrease_balance(&mut self, index: ValidatorIndex, delta: Gwei) {
        self.balances[index.as_usize()] -= delta;
    }

    /// True if the chain is in an inactivity leak: more than
    /// `min_epochs_to_inactivity_penalty` epochs since finalization
    /// (spec `is_in_inactivity_leak`).
    pub fn is_in_inactivity_leak(&self) -> bool {
        self.finality_delay() > self.config.min_epochs_to_inactivity_penalty
    }

    /// Epochs elapsed since the last finalized epoch, measured at the
    /// previous epoch (spec `get_finality_delay`).
    pub fn finality_delay(&self) -> u64 {
        self.previous_epoch() - self.finalized_checkpoint.epoch
    }

    // ── block roots ──────────────────────────────────────────────────────

    /// Latest block root at `slot` (spec `get_block_root_at_slot`).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is in the future of this state.
    pub fn block_root_at_slot(&self, slot: Slot) -> Root {
        self.block_roots[slot.as_u64() as usize]
    }

    /// Checkpoint block root for `epoch` (spec `get_block_root`).
    pub fn block_root_at_epoch_start(&self, epoch: Epoch) -> Root {
        let slot = epoch.start_slot(self.config.slots_per_epoch);
        let idx = (slot.as_u64() as usize).min(self.block_roots.len() - 1);
        self.block_roots[idx]
    }

    /// The most recent block root known to the state.
    pub fn latest_block_root(&self) -> Root {
        *self.block_roots.last().expect("never empty")
    }

    /// Overrides the block root recorded for `slot`.
    ///
    /// Simulation hook: the cohort simulator uses this to install
    /// synthetic per-branch checkpoint roots without building full blocks.
    pub fn set_block_root(&mut self, slot: Slot, root: Root) {
        let idx = slot.as_u64() as usize;
        assert!(
            idx < self.block_roots.len(),
            "cannot set a future block root"
        );
        self.block_roots[idx] = root;
    }

    // ── participation hooks ──────────────────────────────────────────────

    /// Marks `index` with `flags` for the current epoch (merging).
    ///
    /// Simulation hook: the simulators mark participation directly
    /// instead of processing attestations.
    pub fn merge_current_participation(
        &mut self,
        index: ValidatorIndex,
        flags: ParticipationFlags,
    ) {
        let f = &mut self.current_epoch_participation[index.as_usize()];
        *f = f.union(flags);
    }

    // ── slot advancement ─────────────────────────────────────────────────

    /// Advances the state to `target`, running epoch processing at every
    /// epoch boundary crossed (spec `process_slots`).
    ///
    /// # Errors
    ///
    /// Returns [`StateError::SlotRegression`] if `target < self.slot`.
    pub fn process_slots(&mut self, target: Slot) -> Result<(), StateError> {
        if target < self.slot {
            return Err(StateError::SlotRegression {
                state_slot: self.slot,
                target,
            });
        }
        while self.slot < target {
            // End of an epoch: run epoch processing before entering the
            // first slot of the next epoch.
            if (self.slot.as_u64() + 1).is_multiple_of(self.config.slots_per_epoch) {
                self.process_epoch();
            }
            self.slot = self.slot.next();
            // Missed-slot semantics: carry the previous block root forward;
            // `set_block_root` installs a branch's checkpoint root.
            let last = self.latest_block_root();
            self.block_roots.push(last);
        }
        Ok(())
    }

    // ── crate-internal mutators used by the processing modules ──────────

    pub(crate) fn validators_mut(&mut self) -> &mut Vec<Validator> {
        &mut self.validators
    }

    pub(crate) fn inactivity_scores_mut(&mut self) -> &mut Vec<u64> {
        &mut self.inactivity_scores
    }

    pub(crate) fn participation_mut(
        &mut self,
    ) -> (&mut Vec<ParticipationFlags>, &mut Vec<ParticipationFlags>) {
        (
            &mut self.previous_epoch_participation,
            &mut self.current_epoch_participation,
        )
    }

    pub(crate) fn justification_state_mut(
        &mut self,
    ) -> (
        &mut [bool; 4],
        &mut Checkpoint,
        &mut Checkpoint,
        &mut Checkpoint,
    ) {
        (
            &mut self.justification_bits,
            &mut self.previous_justified_checkpoint,
            &mut self.current_justified_checkpoint,
            &mut self.finalized_checkpoint,
        )
    }

    pub(crate) fn slashings_ring(&mut self) -> &mut Vec<Gwei> {
        &mut self.slashings
    }

    pub(crate) fn slashings_sum(&self) -> Gwei {
        self.slashings.iter().copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(n: usize) -> BeaconState {
        BeaconState::genesis(ChainConfig::minimal(), n)
    }

    #[test]
    fn genesis_state_shape() {
        let s = state(8);
        assert_eq!(s.slot(), Slot::GENESIS);
        assert_eq!(s.current_epoch(), Epoch::GENESIS);
        assert_eq!(s.num_validators(), 8);
        assert_eq!(s.total_active_balance(), Gwei::from_eth_u64(8 * 32));
        assert_eq!(s.finalized_checkpoint().epoch, Epoch::GENESIS);
        assert!(!s.is_in_inactivity_leak());
    }

    #[test]
    fn process_slots_advances_and_fills_roots() {
        let mut s = state(4);
        s.process_slots(Slot::new(5)).unwrap();
        assert_eq!(s.slot(), Slot::new(5));
        // all roots equal genesis root (no blocks applied)
        for slot in 0..=5 {
            assert_eq!(s.block_root_at_slot(Slot::new(slot)), s.genesis_root());
        }
    }

    #[test]
    fn slot_regression_is_rejected() {
        let mut s = state(4);
        s.process_slots(Slot::new(3)).unwrap();
        assert!(matches!(
            s.process_slots(Slot::new(1)),
            Err(StateError::SlotRegression { .. })
        ));
    }

    #[test]
    fn epoch_boundary_rotates_participation() {
        let mut s = state(4);
        s.merge_current_participation(ValidatorIndex::new(2), ParticipationFlags::all());
        assert!(s
            .current_participation(ValidatorIndex::new(2))
            .has_timely_target());
        // crossing into epoch 1 rotates current → previous
        s.process_slots(Epoch::new(1).start_slot(s.config().slots_per_epoch))
            .unwrap();
        assert!(s
            .previous_participation(ValidatorIndex::new(2))
            .has_timely_target());
        assert!(s.current_participation(ValidatorIndex::new(2)).is_empty());
    }

    #[test]
    fn balance_helpers_saturate() {
        let mut s = state(2);
        let v = ValidatorIndex::new(0);
        s.decrease_balance(v, Gwei::from_eth_u64(1000));
        assert_eq!(s.balance(v), Gwei::ZERO);
        s.increase_balance(v, Gwei::from_eth_u64(1));
        assert_eq!(s.balance(v), Gwei::from_eth_u64(1));
    }

    #[test]
    fn total_active_balance_has_floor() {
        let mut s = state(1);
        // exit the only validator
        s.validators_mut()[0].exit_epoch = Epoch::GENESIS;
        assert_eq!(
            s.total_active_balance(),
            s.config().effective_balance_increment
        );
    }

    #[test]
    fn participating_target_balance_counts_only_flagged() {
        let mut s = state(4);
        let mut f = ParticipationFlags::EMPTY;
        f.set(crate::participation::TIMELY_TARGET_FLAG_INDEX);
        s.merge_current_participation(ValidatorIndex::new(0), f);
        s.merge_current_participation(ValidatorIndex::new(1), f);
        assert_eq!(
            s.unslashed_participating_target_balance(s.current_epoch()),
            Gwei::from_eth_u64(64)
        );
    }
}
