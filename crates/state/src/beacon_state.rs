//! The [`BeaconState`] container and its balance/registry helpers.

use ethpos_crypto::hash_u64;
use ethpos_types::{ChainConfig, Checkpoint, Epoch, Gwei, Slot, ValidatorIndex};

use crate::backend::RootLabel;
use crate::participation::ParticipationFlags;
use crate::validator::Validator;

/// The beacon chain state: one branch's view of the registry, balances,
/// participation and finality bookkeeping.
///
/// Field layout follows the consensus spec (Altair/Bellatrix); fields that
/// play no role in the paper's analysis (randao mixes, historical
/// summaries, execution payload headers, …) are omitted.
#[derive(Debug, Clone, PartialEq)]
pub struct BeaconState {
    config: ChainConfig,
    /// First slot of the current epoch: the state moves one whole epoch
    /// at a time ([`BeaconState::advance_epoch`]).
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
    /// Checkpoint roots at the start of the previous and the current
    /// epoch — all of the root history justification reads. A label is
    /// resolved in place when justification names it.
    epoch_roots: [RootLabel; 2],
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
            epoch_roots: [RootLabel::Root(genesis_root); 2],
        }
    }

    // ── accessors ────────────────────────────────────────────────────────

    /// Protocol constants in force.
    pub fn config(&self) -> &ChainConfig {
        &self.config
    }

    /// Current slot (always an epoch start).
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

    // ── checkpoint roots ─────────────────────────────────────────────────

    /// Checkpoint roots of the previous and the current epoch, in that
    /// order (spec `get_block_root` for the two epochs justification
    /// reads), as the labels they were given or the roots justification
    /// resolved them to. Both are the genesis root at genesis.
    pub fn epoch_roots(&self) -> [RootLabel; 2] {
        self.epoch_roots
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

    // ── epoch advancement ────────────────────────────────────────────────

    /// Runs epoch processing and moves to the first slot of the next
    /// epoch, recording `next_checkpoint_root` as that epoch's checkpoint
    /// root. `None` carries the current root forward, as an epoch of
    /// missed slots would.
    pub fn advance_epoch(&mut self, next_checkpoint_root: Option<RootLabel>) {
        self.process_epoch();
        self.slot = (self.current_epoch() + 1).start_slot(self.config.slots_per_epoch);
        let carried = self.epoch_roots[1];
        self.epoch_roots = [carried, next_checkpoint_root.unwrap_or(carried)];
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
        &mut [RootLabel; 2],
    ) {
        (
            &mut self.justification_bits,
            &mut self.previous_justified_checkpoint,
            &mut self.current_justified_checkpoint,
            &mut self.finalized_checkpoint,
            &mut self.epoch_roots,
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
    use ethpos_types::Root;

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
    fn advance_epoch_keeps_a_two_root_window() {
        let mut s = state(4);
        let genesis = s.finalized_checkpoint().root;
        assert_eq!(s.epoch_roots(), [genesis.into(); 2]);
        let spe = s.config().slots_per_epoch;
        // `Some` installs the next epoch's root.
        let r1 = Root::from_u64(1);
        s.advance_epoch(Some(r1.into()));
        assert_eq!(s.slot(), Epoch::new(1).start_slot(spe));
        assert_eq!(s.epoch_roots(), [genesis.into(), r1.into()]);
        // `None` carries the current root, not the genesis root.
        s.advance_epoch(None);
        assert_eq!(s.slot(), Epoch::new(2).start_slot(spe));
        assert_eq!(s.epoch_roots(), [r1.into(); 2]);
        let r3 = Root::from_u64(3);
        s.advance_epoch(Some(r3.into()));
        assert_eq!(s.epoch_roots(), [r1.into(), r3.into()]);

        // Justification reads the window. Everyone votes in epoch 3, so
        // its pass justifies epoch 3 under the current root …
        for i in 0..4u64 {
            s.merge_current_participation(ValidatorIndex::new(i), ParticipationFlags::all());
        }
        let r4 = Root::from_u64(4);
        s.advance_epoch(Some(r4.into()));
        let justified = Checkpoint::new(Epoch::new(3), r3);
        assert_eq!(s.current_justified_checkpoint(), justified);
        // … and the epoch-4 pass re-justifies epoch 3 from the previous
        // epoch's votes, under the previous root (r3, not the current r4).
        assert_eq!(s.epoch_roots(), [r3.into(), r4.into()]);
        s.advance_epoch(None);
        assert_eq!(s.justification_bits()[..2], [false, true]);
        assert_eq!(s.current_justified_checkpoint(), justified);
    }

    #[test]
    fn epoch_boundary_rotates_participation() {
        let mut s = state(4);
        s.merge_current_participation(ValidatorIndex::new(2), ParticipationFlags::all());
        assert!(s
            .current_participation(ValidatorIndex::new(2))
            .has_timely_target());
        // crossing into epoch 1 rotates current → previous
        s.advance_epoch(None);
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
