//! State backends: the epoch-transition surface the simulators drive.
//!
//! The paper's scenarios never address validators individually — they act
//! on **behaviour classes** (Byzantine, honest-on-branch-A, inactive, …)
//! whose members all receive the same participation flags every epoch and
//! therefore follow bit-identical integer trajectories. [`StateBackend`]
//! captures exactly that surface: genesis from class sizes, per-class
//! participation marking, one-epoch advancement, and aggregate/class
//! queries.
//!
//! Two implementations exist:
//!
//! * [`DenseState`] — wraps the reference [`BeaconState`] (one record per
//!   validator, spec-ordered epoch processing). O(n) per epoch.
//! * [`ethpos_state::CohortState`](crate::CohortState) — stores
//!   `(class, per-validator state) → count` groups and processes an epoch
//!   in O(#cohorts) with the **same integer arithmetic**, so it is exact,
//!   not an approximation. O(1)-ish per epoch for deterministic schedules.
//!
//! [`StateSnapshot`] is the equivalence oracle: both backends can render
//! their full per-validator state as sorted run-length-encoded runs per
//! class, and two backends driven by the same schedule must produce equal
//! snapshots after every epoch (enforced by the `backend_equivalence`
//! property tests).
//!
//! Checkpoint roots enter a state through
//! [`advance_epoch`](StateBackend::advance_epoch) as a [`RootLabel`]: a
//! given [`Root`], or the structural name `(branch, epoch)` of a block
//! the epoch-level engines never build. Both backends keep labels in
//! their two-epoch root window and hash one
//! ([`synthetic_branch_root`]) only when justification names it, once.

use serde::Serialize;

use ethpos_crypto::hash_u64;
use ethpos_types::{ChainConfig, Checkpoint, Epoch, Gwei, Root, Slot, ValidatorIndex};

use crate::beacon_state::BeaconState;
use crate::participation::ParticipationFlags;

/// Initial composition of one behaviour class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ClassSpec {
    /// Number of validators in the class.
    pub count: u64,
    /// Genesis actual balance of every member (the effective balance is
    /// derived by the spec's deposit snapping rule).
    pub balance: Gwei,
}

impl ClassSpec {
    /// A class of `count` validators at the 32-ETH maximum balance.
    pub fn full_stake(count: u64, config: &ChainConfig) -> Self {
        ClassSpec {
            count,
            balance: config.max_effective_balance,
        }
    }
}

/// Which state backend to run a simulation on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BackendKind {
    /// One record per validator ([`DenseState`], the reference path).
    Dense,
    /// Compressed `(class, state) → count` groups
    /// ([`crate::CohortState`]); exact, O(#cohorts) per epoch.
    Cohort,
}

impl BackendKind {
    /// Short CLI identifier (`dense` / `cohort`).
    pub fn id(&self) -> &'static str {
        match self {
            BackendKind::Dense => "dense",
            BackendKind::Cohort => "cohort",
        }
    }

    /// Parses a short identifier (the inverse of [`BackendKind::id`]).
    pub fn from_id(id: &str) -> Option<BackendKind> {
        match id {
            "dense" => Some(BackendKind::Dense),
            "cohort" => Some(BackendKind::Cohort),
            _ => None,
        }
    }
}

/// Aggregate registry statistics for one class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassStats {
    /// Registered members.
    pub total: u64,
    /// Members active at the current epoch.
    pub active: u64,
    /// Members that have exited (ejected or slashed-and-exited).
    pub exited: u64,
    /// Sum of effective balances of the active members.
    pub active_stake: Gwei,
}

/// Everything the partition engine reads off a branch between marking
/// its honest classes and the adversary's decision (see
/// [`StateBackend::observe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchObservation {
    /// [`StateBackend::class_stats`] of the observed class.
    pub class: ClassStats,
    /// Exited members of every *other* class.
    pub exited_elsewhere: u64,
    /// [`StateBackend::total_active_balance`].
    pub total_active: Gwei,
    /// [`StateBackend::current_target_balance`].
    pub current_target: Gwei,
}

/// The full per-validator state minus identity — the unit of cohort
/// compression and the entry type of [`StateSnapshot`] runs.
///
/// Field order defines the canonical sort used when snapshotting, so the
/// derived `Ord` is part of the equivalence contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct MemberState {
    /// Actual balance (the paper's `s_i(t)`).
    pub balance: Gwei,
    /// Effective balance (hysteresis-quantized).
    pub effective_balance: Gwei,
    /// Inactivity score (the paper's `I_i(t)`).
    pub inactivity_score: u64,
    /// Whether the validator has been slashed.
    pub slashed: bool,
    /// First epoch of activity.
    pub activation_epoch: Epoch,
    /// Exit epoch (`FAR_FUTURE_EPOCH` if none scheduled).
    pub exit_epoch: Epoch,
    /// Withdrawable epoch.
    pub withdrawable_epoch: Epoch,
    /// Previous-epoch participation flags.
    pub previous_flags: ParticipationFlags,
    /// Current-epoch participation flags.
    pub current_flags: ParticipationFlags,
}

impl MemberState {
    /// True if the member is in the active set at `epoch`.
    pub fn is_active_at(&self, epoch: Epoch) -> bool {
        self.activation_epoch <= epoch && epoch < self.exit_epoch
    }

    /// True if the member has exited by `epoch`.
    pub fn has_exited_by(&self, epoch: Epoch) -> bool {
        self.exit_epoch <= epoch
    }
}

/// A canonical, identity-free rendering of a backend's complete state:
/// global finality bookkeeping plus, per class, the members as sorted
/// run-length-encoded `(state, count)` runs.
///
/// Two backends driven through the same schedule are **equivalent** iff
/// their snapshots are equal after every epoch — and the serialized form
/// is the fixture format of the golden-snapshot corpus under
/// `tests/golden/`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct StateSnapshot {
    /// Current slot.
    pub slot: Slot,
    /// Justification bits (bit 0 = most recent epoch).
    pub justification_bits: [bool; 4],
    /// Previous justified checkpoint.
    pub previous_justified: Checkpoint,
    /// Current justified checkpoint.
    pub current_justified: Checkpoint,
    /// Finalized checkpoint.
    pub finalized: Checkpoint,
    /// Slashings ring buffer.
    pub slashings: Vec<Gwei>,
    /// Per class: sorted `(member state, count)` runs.
    pub classes: Vec<Vec<(MemberState, u64)>>,
}

/// Cohort-compression shape of one backend, read by the observability
/// layer (the "fragmentation floor" instrument — see ROADMAP): a
/// churned branch in a deep leak fragments toward one cohort per
/// validator, and these numbers make that drift watchable as gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fragmentation {
    /// Total cohorts across all classes.
    pub cohorts: u64,
    /// Cohorts of the most fragmented class.
    pub max_cohorts_per_class: u64,
}

/// The synthetic root of branch `branch_id`'s block at `epoch`, the
/// block an epoch-level engine never builds (see [`RootLabel::Branch`]).
pub fn synthetic_branch_root(branch_id: u64, epoch: u64) -> Root {
    hash_u64(&[0x6272_616e_6368, branch_id, epoch]) // "branch"
}

/// The checkpoint root of an epoch, as
/// [`advance_epoch`](StateBackend::advance_epoch) takes it: a root the
/// caller has, or the structural name of a branch's block.
///
/// A branch label is hashed ([`synthetic_branch_root`]) the first time
/// justification names it, and the state keeps the result in its
/// two-epoch window, so no label is hashed twice; a leaking branch
/// justifies nothing and hashes nothing. Equality compares the roots
/// the labels name, so whether a label has been resolved yet never
/// shows in a state comparison.
#[derive(Debug, Clone, Copy, Eq)]
pub enum RootLabel {
    /// A given root.
    Root(Root),
    /// Branch `id`'s block at `epoch`.
    Branch {
        /// The branch id.
        id: u64,
        /// The block's epoch.
        epoch: u64,
    },
}

impl RootLabel {
    /// The root this label names.
    pub fn root(self) -> Root {
        match self {
            RootLabel::Root(root) => root,
            RootLabel::Branch { id, epoch } => synthetic_branch_root(id, epoch),
        }
    }

    /// The root this label names, kept in place of the label so that it
    /// is hashed once.
    pub(crate) fn resolve(&mut self) -> Root {
        let root = self.root();
        *self = RootLabel::Root(root);
        root
    }
}

impl From<Root> for RootLabel {
    fn from(root: Root) -> Self {
        RootLabel::Root(root)
    }
}

impl PartialEq for RootLabel {
    fn eq(&self, other: &Self) -> bool {
        self.root() == other.root()
    }
}

/// The epoch-transition surface shared by the dense and cohort state
/// representations.
///
/// The contract is what the per-branch epoch kernel
/// (`ethpos_sim::kernel`, which every epoch-level engine composes) does
/// with a branch: mark the classes that attest this epoch (behind the
/// scenes this sets Altair participation flags on every *active*
/// member), read the adversary's view with
/// [`observe`](StateBackend::observe), then
/// [`advance_epoch`](StateBackend::advance_epoch) to run the full spec
/// epoch processing and enter the next epoch.
///
/// Backends are `Clone` so a partition `Split` can fork a branch: the
/// child branch starts from a bit-identical copy of the parent's state.
/// They are `Send` so the partition engine can advance its branches on
/// separate threads within one epoch.
pub trait StateBackend: Sized + Clone + Send {
    /// Builds a genesis state from per-class sizes and balances. Class `c`
    /// of the backend corresponds to `classes[c]`.
    fn from_classes(config: ChainConfig, classes: &[ClassSpec]) -> Self;

    /// Protocol constants in force.
    fn config(&self) -> &ChainConfig;

    /// Current epoch.
    fn current_epoch(&self) -> Epoch;

    /// Current justified checkpoint.
    fn current_justified_checkpoint(&self) -> Checkpoint;

    /// Finalized checkpoint.
    fn finalized_checkpoint(&self) -> Checkpoint;

    /// Total active effective balance (increment-floored, spec
    /// `get_total_active_balance`).
    fn total_active_balance(&self) -> Gwei;

    /// Unslashed active stake already carrying the timely-target flag for
    /// the **current** epoch — the FFG weight accumulated so far this
    /// epoch by [`mark_class`](StateBackend::mark_class) calls.
    fn current_target_balance(&self) -> Gwei;

    /// Number of behaviour classes.
    fn num_classes(&self) -> usize;

    /// Aggregate statistics of one class.
    fn class_stats(&self, class: usize) -> ClassStats;

    /// [`class_stats`](StateBackend::class_stats) of `class`, the exited
    /// members of all other classes, and the two global balances, as one
    /// read. The default composes the separate reads; a backend whose
    /// reads each walk the registry overrides it with a single walk.
    fn observe(&self, class: usize) -> BranchObservation {
        BranchObservation {
            class: self.class_stats(class),
            exited_elsewhere: (0..self.num_classes())
                .filter(|&c| c != class)
                .map(|c| self.class_stats(c).exited)
                .sum(),
            total_active: self.total_active_balance(),
            current_target: self.current_target_balance(),
        }
    }

    /// The smallest member state of `class` under the canonical
    /// [`MemberState`] ordering (`None` for an empty class). For a
    /// homogeneous class this *is* the per-member state, which is how the
    /// trajectory recorders read one representative without identity.
    fn class_floor(&self, class: usize) -> Option<MemberState>;

    /// Merges `flags` into the current-epoch participation of every
    /// **active** member of `class`.
    fn mark_class(&mut self, class: usize, flags: ParticipationFlags);

    /// Merges `flags` into a *count-sampled* subset of the active
    /// members of `class`: `sample` is called exactly once per **cohort
    /// of active members** (in backend order) with that cohort's member
    /// count `c`, and must return how many of the `c` exchangeable
    /// members get the flags (at most `c`; larger returns are clamped).
    /// Cohorts of exited members consume no draw.
    ///
    /// Members within a cohort are identical, so any choice of *which*
    /// `k` members to mark yields the same state; a count draw of
    /// `k ~ Binomial(c, p)` is therefore distributionally equivalent to
    /// `c` per-member Bernoulli(p) draws — at O(#cohorts) draws per
    /// epoch instead of O(#members). The dense backend treats every
    /// member as a singleton cohort (`sample(1)` per active member, in
    /// index order), preserving the per-validator reference semantics
    /// for differential testing. Count draws preserve each branch's
    /// marginal law but not a per-member joint coupling across branches.
    ///
    /// The canonical cohort order is sorted [`MemberState`] order. The
    /// equivalence tests hold [`CohortState`](crate::CohortState)'s churn
    /// bytes against a dense backend that groups a class's equal active
    /// members in that order and draws once per group: the same draw
    /// stream.
    ///
    /// The sampler is a type parameter so the count law inlines into the
    /// marking pass (a churned branch-epoch draws once per cohort).
    fn mark_class_counted(
        &mut self,
        class: usize,
        flags: ParticipationFlags,
        sample: &mut impl FnMut(u64) -> u64,
    );

    /// Runs full spec epoch processing and advances to the first slot of
    /// the next epoch, recording `next_checkpoint_root` as the new
    /// epoch's checkpoint root (carrying the previous root forward when
    /// `None`, like missed-slot semantics).
    ///
    /// The root is a [`RootLabel`]: an engine that builds no blocks
    /// passes [`RootLabel::Branch`], and the state hashes it only if
    /// justification names that epoch's checkpoint. Every checkpoint the
    /// state reports carries the resolved root, the same 32 bytes an
    /// eagerly hashed root would have given.
    fn advance_epoch(&mut self, next_checkpoint_root: Option<RootLabel>);

    /// Sum of **actual** balances over every member of `class` (active
    /// and exited alike) — the quantity the simulators report as a
    /// branch's final Byzantine balance. The default renders a snapshot;
    /// backends override it with a direct O(class) scan.
    fn class_balance(&self, class: usize) -> Gwei {
        Gwei::new(
            self.snapshot().classes[class]
                .iter()
                .map(|(m, count)| m.balance.as_u64() * count)
                .sum(),
        )
    }

    /// Renders the canonical equivalence snapshot.
    fn snapshot(&self) -> StateSnapshot;

    /// Number of storage chunks this backend shares with `other` (the
    /// same allocation, or for a chunk small enough to hold inline, the
    /// same contents) — nonzero only for copy-on-write representations
    /// forked from a common ancestor. Purely
    /// observational: used by fork-sharing diagnostics and the aliasing
    /// tests; the dense backend (and any other deep-copying backend)
    /// reports `0`.
    fn shared_chunks_with(&self, _other: &Self) -> usize {
        0
    }

    /// The backend's cohort-compression shape, or `None` for backends
    /// without a cohort representation (the dense path). Feeds the
    /// `ethpos_cohorts*` gauges and the fragmentation trace series, and
    /// the partition engine reads the cohort count to decide whether an
    /// epoch's branch advances are worth a thread each. That is
    /// scheduling only: the transition never reads it, so no output
    /// depends on it.
    fn fragmentation(&self) -> Option<Fragmentation> {
        None
    }
}

/// The dense reference backend: a spec-shaped [`BeaconState`] plus the
/// class layout (class `c` owns the contiguous index range
/// `bounds[c]..bounds[c + 1]`).
#[derive(Debug, Clone)]
pub struct DenseState {
    state: BeaconState,
    bounds: Vec<usize>,
}

impl DenseState {
    /// Read access to the wrapped [`BeaconState`]. Public only for the
    /// `GroupedDense` test wrapper in `tests/backend_equivalence.rs`.
    pub fn beacon_state(&self) -> &BeaconState {
        &self.state
    }

    /// The index range owned by `class`.
    pub fn class_range(&self, class: usize) -> core::ops::Range<usize> {
        self.bounds[class]..self.bounds[class + 1]
    }

    /// Per-member marking, the oracle the equivalence tests hold
    /// count-level marking against: `draw` is called once per member of
    /// `class` in index order (exited members included), and the active
    /// members whose draw returns `true` get `flags`. Public only for the
    /// `GroupedDense` test wrapper in `tests/backend_equivalence.rs`.
    pub fn mark_class_sampled(
        &mut self,
        class: usize,
        flags: ParticipationFlags,
        draw: &mut dyn FnMut() -> bool,
    ) {
        let epoch = self.state.current_epoch();
        for i in self.class_range(class) {
            let take = draw();
            if take && self.state.validators()[i].is_active_at(epoch) {
                self.state
                    .merge_current_participation(ValidatorIndex::from(i), flags);
            }
        }
    }

    fn member(&self, i: usize) -> MemberState {
        let v = &self.state.validators()[i];
        MemberState {
            balance: self.state.balances()[i],
            effective_balance: v.effective_balance,
            inactivity_score: self.state.inactivity_scores()[i],
            slashed: v.slashed,
            activation_epoch: v.activation_epoch,
            exit_epoch: v.exit_epoch,
            withdrawable_epoch: v.withdrawable_epoch,
            previous_flags: self.state.previous_participation(ValidatorIndex::from(i)),
            current_flags: self.state.current_participation(ValidatorIndex::from(i)),
        }
    }
}

impl StateBackend for DenseState {
    fn from_classes(config: ChainConfig, classes: &[ClassSpec]) -> Self {
        let mut balances = Vec::new();
        let mut bounds = vec![0usize];
        for spec in classes {
            balances.extend(std::iter::repeat_n(spec.balance, spec.count as usize));
            bounds.push(balances.len());
        }
        DenseState {
            state: BeaconState::genesis_with_balances(config, &balances),
            bounds,
        }
    }

    fn config(&self) -> &ChainConfig {
        self.state.config()
    }

    fn current_epoch(&self) -> Epoch {
        self.state.current_epoch()
    }

    fn current_justified_checkpoint(&self) -> Checkpoint {
        self.state.current_justified_checkpoint()
    }

    fn finalized_checkpoint(&self) -> Checkpoint {
        self.state.finalized_checkpoint()
    }

    fn total_active_balance(&self) -> Gwei {
        self.state.total_active_balance()
    }

    fn current_target_balance(&self) -> Gwei {
        self.state
            .unslashed_participating_target_balance(self.state.current_epoch())
    }

    fn num_classes(&self) -> usize {
        self.bounds.len() - 1
    }

    fn class_stats(&self, class: usize) -> ClassStats {
        let epoch = self.state.current_epoch();
        let mut stats = ClassStats::default();
        for i in self.class_range(class) {
            let v = &self.state.validators()[i];
            stats.total += 1;
            if v.is_active_at(epoch) {
                stats.active += 1;
                stats.active_stake += v.effective_balance;
            } else {
                stats.exited += 1;
            }
        }
        stats
    }

    fn class_floor(&self, class: usize) -> Option<MemberState> {
        self.class_range(class).map(|i| self.member(i)).min()
    }

    fn mark_class(&mut self, class: usize, flags: ParticipationFlags) {
        let epoch = self.state.current_epoch();
        for i in self.class_range(class) {
            if self.state.validators()[i].is_active_at(epoch) {
                self.state
                    .merge_current_participation(ValidatorIndex::from(i), flags);
            }
        }
    }

    fn mark_class_counted(
        &mut self,
        class: usize,
        flags: ParticipationFlags,
        sample: &mut impl FnMut(u64) -> u64,
    ) {
        let epoch = self.state.current_epoch();
        for i in self.class_range(class) {
            // Every member is a singleton cohort: one Binomial(1, p)
            // draw per active member is exactly a Bernoulli(p), which
            // keeps this the per-validator reference path.
            if self.state.validators()[i].is_active_at(epoch) && sample(1) >= 1 {
                self.state
                    .merge_current_participation(ValidatorIndex::from(i), flags);
            }
        }
    }

    fn advance_epoch(&mut self, next_checkpoint_root: Option<RootLabel>) {
        self.state.advance_epoch(next_checkpoint_root);
    }

    fn class_balance(&self, class: usize) -> Gwei {
        let balances = self.state.balances();
        Gwei::new(self.class_range(class).map(|i| balances[i].as_u64()).sum())
    }

    fn snapshot(&self) -> StateSnapshot {
        let classes = (0..self.num_classes())
            .map(|c| {
                let mut members: Vec<MemberState> =
                    self.class_range(c).map(|i| self.member(i)).collect();
                members.sort_unstable();
                let mut runs: Vec<(MemberState, u64)> = Vec::new();
                for m in members {
                    match runs.last_mut() {
                        Some((last, count)) if *last == m => *count += 1,
                        _ => runs.push((m, 1)),
                    }
                }
                runs
            })
            .collect();
        StateSnapshot {
            slot: self.state.slot(),
            justification_bits: self.state.justification_bits(),
            previous_justified: self.state.previous_justified_checkpoint(),
            current_justified: self.state.current_justified_checkpoint(),
            finalized: self.state.finalized_checkpoint(),
            slashings: self.state.slashings().to_vec(),
            classes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::participation::TIMELY_TARGET_FLAG_INDEX;

    fn flags() -> ParticipationFlags {
        let mut f = ParticipationFlags::EMPTY;
        f.set(TIMELY_TARGET_FLAG_INDEX);
        f
    }

    fn classes(sizes: &[u64]) -> Vec<ClassSpec> {
        let config = ChainConfig::minimal();
        sizes
            .iter()
            .map(|&count| ClassSpec::full_stake(count, &config))
            .collect()
    }

    #[test]
    fn dense_from_classes_matches_plain_genesis() {
        let dense = DenseState::from_classes(ChainConfig::minimal(), &classes(&[3, 5]));
        let plain = BeaconState::genesis(ChainConfig::minimal(), 8);
        assert_eq!(dense.beacon_state(), &plain);
        assert_eq!(dense.num_classes(), 2);
        assert_eq!(dense.class_range(1), 3..8);
    }

    #[test]
    fn genesis_balance_snapping_follows_deposit_rule() {
        let spec = [ClassSpec {
            count: 2,
            balance: Gwei::from_eth_f64(16.8),
        }];
        let dense = DenseState::from_classes(ChainConfig::minimal(), &spec);
        // 16.8 snaps down to 16 ETH effective.
        assert_eq!(
            dense.beacon_state().validators()[0].effective_balance,
            Gwei::from_eth_u64(16)
        );
        assert_eq!(dense.beacon_state().balances()[0], Gwei::from_eth_f64(16.8));
    }

    #[test]
    fn mark_class_sets_target_balance() {
        let mut dense = DenseState::from_classes(ChainConfig::minimal(), &classes(&[4, 4]));
        assert_eq!(dense.current_target_balance(), Gwei::ZERO);
        dense.mark_class(0, flags());
        assert_eq!(dense.current_target_balance(), Gwei::from_eth_u64(4 * 32));
        let stats = dense.class_stats(1);
        assert_eq!(stats.active, 4);
        assert_eq!(stats.active_stake, Gwei::from_eth_u64(4 * 32));
    }

    #[test]
    fn mark_class_sampled_marks_only_drawn_members() {
        let mut dense = DenseState::from_classes(ChainConfig::minimal(), &classes(&[6]));
        let mut toggle = false;
        dense.mark_class_sampled(0, flags(), &mut || {
            toggle = !toggle;
            toggle
        });
        assert_eq!(dense.current_target_balance(), Gwei::from_eth_u64(3 * 32));
    }

    #[test]
    fn mark_class_counted_treats_dense_members_as_singleton_cohorts() {
        let mut dense = DenseState::from_classes(ChainConfig::minimal(), &classes(&[6]));
        let mut calls = Vec::new();
        let mut i = 0u64;
        dense.mark_class_counted(0, flags(), &mut |count| {
            calls.push(count);
            i += 1;
            u64::from(i % 2 == 1)
        });
        // One Binomial(1, p) draw per active member, in index order.
        assert_eq!(calls, vec![1; 6]);
        assert_eq!(dense.current_target_balance(), Gwei::from_eth_u64(3 * 32));
    }

    #[test]
    fn advance_epoch_records_checkpoint_root() {
        let mut dense = DenseState::from_classes(ChainConfig::minimal(), &classes(&[4]));
        let root = Root::from_u64(77);
        dense.advance_epoch(Some(root.into()));
        assert_eq!(dense.current_epoch(), Epoch::new(1));
        assert_eq!(dense.beacon_state().epoch_roots()[1], root.into());
        // None carries the previous root forward (missed-slot semantics).
        dense.advance_epoch(None);
        assert_eq!(dense.beacon_state().epoch_roots(), [root.into(); 2]);
    }

    #[test]
    fn synthetic_branch_roots_differ_by_branch_and_epoch() {
        assert_ne!(synthetic_branch_root(0, 5), synthetic_branch_root(1, 5));
        assert_ne!(synthetic_branch_root(0, 5), synthetic_branch_root(0, 6));
    }

    #[test]
    fn snapshot_run_length_encodes_equal_members() {
        let dense = DenseState::from_classes(ChainConfig::minimal(), &classes(&[5, 2]));
        let snap = dense.snapshot();
        assert_eq!(snap.classes.len(), 2);
        assert_eq!(snap.classes[0].len(), 1); // all identical at genesis
        assert_eq!(snap.classes[0][0].1, 5);
        assert_eq!(snap.classes[1][0].1, 2);
    }

    #[test]
    fn backend_kind_ids_round_trip() {
        for kind in [BackendKind::Dense, BackendKind::Cohort] {
            assert_eq!(BackendKind::from_id(kind.id()), Some(kind));
        }
        assert_eq!(BackendKind::from_id("sparse"), None);
    }
}
