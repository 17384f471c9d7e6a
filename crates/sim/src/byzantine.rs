//! The paper's Byzantine strategies, expressed as *participation
//! schedules* over the branches of a fork.
//!
//! The coordinated adversary observes every branch (it is unaffected by
//! the partition) and decides, epoch by epoch, on which branch(es) its
//! validators attest. Originally the schedules were hard-wired to the
//! paper's two-branch partition; the partition-timeline engine
//! generalizes the observation to **k live branches**, so a schedule now
//! receives a slice of [`BranchStatus`] (one per live branch, in
//! [`BranchId`] order) and answers with a [`BranchChoice`] bit set over
//! those positions:
//!
//! | Strategy | Paper | Behaviour | Outcome |
//! |---|---|---|---|
//! | [`DualActive`] | §5.2.1 | active on **every** branch every epoch (slashable double votes) | fastest conflicting finalization |
//! | [`SemiActive`] | §5.2.2 | alternate two branches; dwell two epochs per branch once ⅔ is reachable | conflicting finalization without slashing |
//! | [`ThresholdSeeker`] | §5.2.3 | rotate forever, refuse to finalize | Byzantine proportion exceeds ⅓ |
//! | [`RoundRobin`] | beyond the paper | the k-branch generalization of semi-active: rotate over all live branches, dwell on each once **all** can reach ⅔ | conflicting finalization across > 2 branches |
//!
//! [`SemiActive`] keeps the paper's exact two-branch state machine (its
//! decisions are pinned byte-for-byte by the golden corpus);
//! [`RoundRobin`] with a dwell of 2 collapses to the same machine when
//! exactly two branches are live, which the property tests assert.

use ethpos_types::BranchId;

/// Per-branch observation handed to a strategy at each epoch: everything
/// the coordinated adversary can compute from that branch's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchStatus {
    /// Branch id.
    pub branch: BranchId,
    /// Epoch about to be attested.
    pub epoch: u64,
    /// Total active effective balance on this branch (Gwei).
    pub total_active_stake: u64,
    /// Effective balance of the honest validators that will attest this
    /// branch this epoch (Gwei).
    pub honest_active_stake: u64,
    /// Effective balance of the (non-exited) Byzantine validators on this
    /// branch (Gwei).
    pub byzantine_stake: u64,
    /// This branch's current justified epoch.
    pub justified_epoch: u64,
    /// This branch's current finalized epoch.
    pub finalized_epoch: u64,
}

impl BranchStatus {
    /// True if Byzantine participation would push this branch to the ⅔
    /// justification threshold.
    pub fn two_thirds_reachable(&self) -> bool {
        3 * (self.honest_active_stake as u128 + self.byzantine_stake as u128)
            >= 2 * self.total_active_stake as u128
    }
}

/// The set of branches the Byzantine cohort attests on in one epoch: a
/// bit per **position** of the observation slice handed to
/// [`ByzantineSchedule::participate`] (position `i` = the i-th live
/// branch in [`BranchId`] order, which for the paper's two-branch
/// scenarios is simply branch `i`).
///
/// ```
/// use ethpos_sim::BranchChoice;
///
/// let choice = BranchChoice::only(1);
/// assert!(!choice.get(0));
/// assert!(choice.get(1));
/// assert_eq!(choice, [false, true]);
/// assert!(!choice.is_double_vote());
/// assert!(BranchChoice::all(3).is_double_vote());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BranchChoice(u64);

impl BranchChoice {
    /// The largest number of simultaneously live branches a choice can
    /// address.
    pub const MAX_BRANCHES: usize = 64;

    /// Attest nowhere.
    pub const NONE: BranchChoice = BranchChoice(0);

    /// Attest only on the branch at `position`.
    ///
    /// # Panics
    ///
    /// Panics if `position ≥ 64`.
    pub fn only(position: usize) -> BranchChoice {
        assert!(position < Self::MAX_BRANCHES, "branch position {position}");
        BranchChoice(1 << position)
    }

    /// Attest on all `k` live branches.
    ///
    /// # Panics
    ///
    /// Panics if `k > 64`.
    pub fn all(k: usize) -> BranchChoice {
        assert!(k <= Self::MAX_BRANCHES, "too many branches: {k}");
        if k == Self::MAX_BRANCHES {
            BranchChoice(u64::MAX)
        } else {
            BranchChoice((1u64 << k) - 1)
        }
    }

    /// This choice with the branch at `position` added.
    pub fn with(self, position: usize) -> BranchChoice {
        assert!(position < Self::MAX_BRANCHES, "branch position {position}");
        BranchChoice(self.0 | 1 << position)
    }

    /// Whether the branch at `position` is attested.
    pub fn get(&self, position: usize) -> bool {
        position < Self::MAX_BRANCHES && self.0 >> position & 1 == 1
    }

    /// Number of branches attested.
    pub fn count(&self) -> u32 {
        self.0.count_ones()
    }

    /// True if the choice attests ≥ 2 branches in the same epoch — a
    /// slashable equivocation (§5.2.1).
    pub fn is_double_vote(&self) -> bool {
        self.count() >= 2
    }
}

impl<const N: usize> From<[bool; N]> for BranchChoice {
    fn from(bits: [bool; N]) -> Self {
        let mut mask = 0u64;
        for (i, &b) in bits.iter().enumerate() {
            if b {
                mask |= 1 << i;
            }
        }
        BranchChoice(mask)
    }
}

/// A choice equals a bool array when the first `N` positions match and
/// nothing beyond them is set — so tests read
/// `assert_eq!(choice, [true, false])`.
impl<const N: usize> PartialEq<[bool; N]> for BranchChoice {
    fn eq(&self, other: &[bool; N]) -> bool {
        *self == BranchChoice::from(*other)
    }
}

/// A Byzantine participation schedule over the live branches of a fork.
///
/// `status` holds one observation per live branch, in [`BranchId`]
/// order; the returned [`BranchChoice`] is positional over that slice.
/// The number of live branches can change between epochs when the
/// partition timeline splits or heals.
///
/// Schedules are `Send + Sync` plain data, so a simulation can run on
/// any worker thread.
pub trait ByzantineSchedule: core::fmt::Debug + Send + Sync {
    /// Decides on which of the observed branches the Byzantine validators
    /// attest at this epoch.
    fn participate(&mut self, status: &[BranchStatus]) -> BranchChoice;

    /// Does what [`participate`](ByzantineSchedule::participate) would at
    /// this epoch and, when it returns a [`Cadence`], promises its choice
    /// at every later epoch whose statuses equal these but for `epoch`:
    /// there, `participate` returns the cadence's choice and leaves the
    /// schedule as it is. `None` (the default) promises nothing and does
    /// nothing; the caller then calls `participate`.
    fn steady(&mut self, _status: &[BranchStatus]) -> Option<Cadence> {
        None
    }

    /// Strategy name for reports.
    fn name(&self) -> &'static str;
}

/// A choice that is a function of the epoch alone: what a schedule
/// decides while the statuses it reads stand still (see
/// [`ByzantineSchedule::steady`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cadence {
    /// The same choice every epoch.
    Fixed(BranchChoice),
    /// Only the branch at position `epoch % k` of `k` live branches.
    Rotate(usize),
}

impl Cadence {
    /// The choice at `epoch`.
    pub fn choice(self, epoch: u64) -> BranchChoice {
        match self {
            Cadence::Fixed(choice) => choice,
            Cadence::Rotate(k) => BranchChoice::only((epoch % k as u64) as usize),
        }
    }
}

// ─── §5.2.1: slashable dual voting ──────────────────────────────────────

/// Active on every branch every epoch — equivocating attestations, a
/// slashable offence that stays unpunished while the partition hides the
/// evidence (paper §5.2.1, Fig. 4).
#[derive(Debug, Clone, Default)]
pub struct DualActive;

impl ByzantineSchedule for DualActive {
    fn participate(&mut self, status: &[BranchStatus]) -> BranchChoice {
        BranchChoice::all(status.len())
    }

    fn steady(&mut self, status: &[BranchStatus]) -> Option<Cadence> {
        Some(Cadence::Fixed(BranchChoice::all(status.len())))
    }

    fn name(&self) -> &'static str {
        "dual-active (slashable)"
    }
}

// ─── §5.2.2: non-slashable semi-active alternation ──────────────────────

/// Phase of the [`SemiActive`] state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SemiActivePhase {
    /// Alternating between branches (active every other epoch on each).
    Alternate,
    /// Dwelling two consecutive epochs on branch 0 to finalize it.
    DwellFirst { since: u64 },
    /// Dwelling two consecutive epochs on branch 1 to finalize it.
    DwellSecond { since: u64 },
    /// Both branches finalized; keep alternating (harmless).
    Done,
}

/// Alternate between the branches each epoch (never two identical-epoch
/// votes ⇒ not slashable); once both branches can reach ⅔ with Byzantine
/// help, dwell two consecutive epochs on each to finalize them both
/// (paper §5.2.2, Fig. 5).
///
/// This is the paper's exact **two-branch** state machine; it panics when
/// observed with k ≠ 2 live branches. Use [`RoundRobin`] for k-branch
/// timelines — with a dwell of 2 it makes the same decisions whenever
/// exactly two branches are live.
#[derive(Debug, Clone)]
pub struct SemiActive {
    phase: SemiActivePhase,
}

impl SemiActive {
    /// Creates the strategy in its alternating phase.
    pub fn new() -> Self {
        SemiActive {
            phase: SemiActivePhase::Alternate,
        }
    }
}

impl Default for SemiActive {
    fn default() -> Self {
        SemiActive::new()
    }
}

impl ByzantineSchedule for SemiActive {
    fn participate(&mut self, status: &[BranchStatus]) -> BranchChoice {
        assert_eq!(
            status.len(),
            2,
            "SemiActive is the paper's two-branch machine; use RoundRobin \
             for k-branch timelines"
        );
        let e = status[0].epoch;
        match self.phase {
            SemiActivePhase::Alternate => {
                if status[0].two_thirds_reachable() && status[1].two_thirds_reachable() {
                    self.phase = SemiActivePhase::DwellFirst { since: e };
                    BranchChoice::only(0)
                } else if e.is_multiple_of(2) {
                    BranchChoice::only(0)
                } else {
                    BranchChoice::only(1)
                }
            }
            SemiActivePhase::DwellFirst { since } => {
                if e < since + 2 {
                    BranchChoice::only(0)
                } else if status[0].finalized_epoch + 2 >= since {
                    // branch 0 finalized (or will momentarily): move on
                    self.phase = SemiActivePhase::DwellSecond { since: e };
                    BranchChoice::only(1)
                } else {
                    // keep dwelling until finalization shows up
                    BranchChoice::only(0)
                }
            }
            SemiActivePhase::DwellSecond { since } => {
                if e < since + 2 {
                    BranchChoice::only(1)
                } else if status[1].finalized_epoch + 2 >= since {
                    self.phase = SemiActivePhase::Done;
                    BranchChoice::only(0)
                } else {
                    BranchChoice::only(1)
                }
            }
            SemiActivePhase::Done => {
                if e.is_multiple_of(2) {
                    BranchChoice::only(0)
                } else {
                    BranchChoice::only(1)
                }
            }
        }
    }

    fn steady(&mut self, status: &[BranchStatus]) -> Option<Cadence> {
        let alternating = match self.phase {
            SemiActivePhase::Alternate => !status.iter().all(BranchStatus::two_thirds_reachable),
            SemiActivePhase::Done => true,
            SemiActivePhase::DwellFirst { .. } | SemiActivePhase::DwellSecond { .. } => false,
        };
        (alternating && status.len() == 2).then_some(Cadence::Rotate(2))
    }

    fn name(&self) -> &'static str {
        "semi-active (non-slashable)"
    }
}

// ─── §5.2.3: exceed the one-third threshold ─────────────────────────────

/// Rotate over the live branches forever and *refuse to finalize*,
/// letting the inactivity leak drain honest validators on every branch
/// until the Byzantine stake proportion exceeds ⅓ (paper §5.2.3; with
/// two branches this is the paper's pure alternation).
///
/// The strategy records the running maximum of its stake proportion per
/// observed position so scenario drivers can report β(t).
#[derive(Debug, Clone, Default)]
pub struct ThresholdSeeker {
    /// Highest Byzantine stake proportion observed per branch position
    /// (grows to the largest number of simultaneously live branches).
    pub max_proportion: Vec<f64>,
}

impl ThresholdSeeker {
    /// Creates the strategy.
    pub fn new() -> Self {
        ThresholdSeeker::default()
    }

    /// The Byzantine stake proportion currently observable on `branch`.
    pub fn proportion(status: &BranchStatus) -> f64 {
        if status.total_active_stake == 0 {
            return 0.0;
        }
        status.byzantine_stake as f64 / status.total_active_stake as f64
    }
}

impl ByzantineSchedule for ThresholdSeeker {
    fn participate(&mut self, status: &[BranchStatus]) -> BranchChoice {
        if self.max_proportion.len() < status.len() {
            self.max_proportion.resize(status.len(), 0.0);
        }
        for (i, st) in status.iter().enumerate() {
            self.max_proportion[i] = self.max_proportion[i].max(Self::proportion(st));
        }
        let e = status[0].epoch;
        BranchChoice::only(e as usize % status.len())
    }

    fn steady(&mut self, status: &[BranchStatus]) -> Option<Cadence> {
        self.participate(status);
        Some(Cadence::Rotate(status.len()))
    }

    fn name(&self) -> &'static str {
        "threshold-seeker (β > 1/3)"
    }
}

// ─── beyond the paper: k-branch semi-active rotation ────────────────────

/// Where the [`RoundRobin`] dwell machine stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RoundRobinPhase {
    /// Rotating over the live branches, watching for ⅔ reachability.
    Rotate,
    /// Dwelling on `branch` since epoch `since`. The branch is tracked
    /// by id, not by slice position: a heal can remove a lower-id
    /// branch and shift every position, and the dwell must follow the
    /// branch it was finalizing (or restart if that branch is gone).
    Dwell { branch: BranchId, since: u64 },
    /// Every branch finalized; back to rotation for good.
    Done,
}

/// The k-branch generalization of [`SemiActive`]: rotate over the live
/// branches (`epoch % k`, never two same-epoch votes ⇒ not slashable);
/// once **all** live branches can reach ⅔ with Byzantine help, dwell
/// `dwell` consecutive epochs on each branch in position order until
/// each finalizes — conflicting finalization across every branch pair,
/// a scenario the paper's two-branch analysis cannot express.
///
/// With `dwell == 0` the rotation never stops (the k-branch
/// [`ThresholdSeeker`], minus the β bookkeeping). With `dwell == 2` and
/// exactly two live branches the machine is decision-for-decision the
/// paper's [`SemiActive`] (pinned by the validator property tests).
#[derive(Debug, Clone)]
pub struct RoundRobin {
    dwell: u8,
    phase: RoundRobinPhase,
}

impl RoundRobin {
    /// Creates the strategy; `dwell == 0` disables the finalization
    /// phase.
    pub fn new(dwell: u8) -> Self {
        RoundRobin {
            dwell,
            phase: RoundRobinPhase::Rotate,
        }
    }
}

impl ByzantineSchedule for RoundRobin {
    fn participate(&mut self, status: &[BranchStatus]) -> BranchChoice {
        let k = status.len();
        let e = status[0].epoch;
        let rotate = BranchChoice::only(e as usize % k);
        if self.dwell == 0 {
            return rotate;
        }
        // A heal can retire the dwelled branch mid-dwell: restart the
        // watch. (If the branch survived, `position` finds it wherever
        // the shrunken slice put it.)
        let position_of = |branch: BranchId| status.iter().position(|s| s.branch == branch);
        if let RoundRobinPhase::Dwell { branch, .. } = self.phase {
            if position_of(branch).is_none() {
                self.phase = RoundRobinPhase::Rotate;
            }
        }
        let dwell = u64::from(self.dwell);
        match self.phase {
            RoundRobinPhase::Rotate => {
                if status.iter().all(BranchStatus::two_thirds_reachable) {
                    self.phase = RoundRobinPhase::Dwell {
                        branch: status[0].branch,
                        since: e,
                    };
                    BranchChoice::only(0)
                } else {
                    rotate
                }
            }
            RoundRobinPhase::Dwell { branch, since } => {
                let position = position_of(branch).expect("checked live above");
                if e < since + dwell {
                    BranchChoice::only(position)
                } else if status[position].finalized_epoch + dwell >= since {
                    // this branch finalized (or will momentarily): move on
                    if position + 1 < k {
                        self.phase = RoundRobinPhase::Dwell {
                            branch: status[position + 1].branch,
                            since: e,
                        };
                        BranchChoice::only(position + 1)
                    } else {
                        self.phase = RoundRobinPhase::Done;
                        BranchChoice::only(0)
                    }
                } else {
                    // keep dwelling until finalization shows up
                    BranchChoice::only(position)
                }
            }
            RoundRobinPhase::Done => rotate,
        }
    }

    fn steady(&mut self, status: &[BranchStatus]) -> Option<Cadence> {
        let rotating = match self.phase {
            _ if self.dwell == 0 => true,
            RoundRobinPhase::Rotate => !status.iter().all(BranchStatus::two_thirds_reachable),
            RoundRobinPhase::Done => true,
            RoundRobinPhase::Dwell { .. } => false,
        };
        rotating.then_some(Cadence::Rotate(status.len()))
    }

    fn name(&self) -> &'static str {
        "round-robin (k-branch semi-active)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status(epoch: u64, honest: u64, byz: u64, total: u64) -> BranchStatus {
        BranchStatus {
            branch: BranchId::GENESIS,
            epoch,
            total_active_stake: total,
            honest_active_stake: honest,
            byzantine_stake: byz,
            justified_epoch: 0,
            finalized_epoch: 0,
        }
    }

    fn on_branch(mut st: BranchStatus, b: u32) -> BranchStatus {
        st.branch = BranchId::new(b);
        st
    }

    #[test]
    fn branch_choice_bit_algebra() {
        assert_eq!(BranchChoice::NONE.count(), 0);
        assert_eq!(BranchChoice::all(3).count(), 3);
        assert_eq!(BranchChoice::only(2), [false, false, true]);
        assert_eq!(BranchChoice::NONE.with(0).with(2).count(), 2);
        assert!(BranchChoice::from([true, true]).is_double_vote());
        assert!(!BranchChoice::from([false, true]).is_double_vote());
        // equality against arrays ignores nothing: trailing set bits fail
        assert_ne!(BranchChoice::all(3), [true, true]);
        assert_eq!(BranchChoice::all(64).count(), 64);
    }

    #[test]
    fn dual_active_is_always_on_every_branch() {
        let mut s = DualActive;
        let st = [status(0, 10, 5, 30), status(0, 15, 5, 30)];
        assert_eq!(s.participate(&st), [true, true]);
        let st3 = [
            status(1, 10, 5, 30),
            status(1, 15, 5, 30),
            status(1, 2, 5, 30),
        ];
        assert_eq!(s.participate(&st3), [true, true, true]);
    }

    #[test]
    fn two_thirds_reachable_is_exact() {
        assert!(status(0, 10, 10, 30).two_thirds_reachable()); // 20/30 = 2/3
        assert!(!status(0, 10, 9, 30).two_thirds_reachable()); // 19/30 < 2/3
    }

    #[test]
    fn semi_active_alternates_before_threshold() {
        let mut s = SemiActive::new();
        let far = [status(0, 10, 2, 100), on_branch(status(0, 10, 2, 100), 1)];
        assert_eq!(s.participate(&far), [true, false]); // epoch 0
        let mut next = far;
        next[0].epoch = 1;
        next[1].epoch = 1;
        assert_eq!(s.participate(&next), [false, true]); // epoch 1
    }

    #[test]
    fn semi_active_dwells_when_two_thirds_reachable() {
        let mut s = SemiActive::new();
        let near = |e: u64| [status(e, 50, 20, 100), on_branch(status(e, 48, 20, 100), 1)];
        // epoch 10: both reachable ⇒ dwell on branch 0 for 2 epochs
        assert_eq!(s.participate(&near(10)), [true, false]);
        assert_eq!(s.participate(&near(11)), [true, false]);
        // epoch 12: branch 0 finalized recently ⇒ dwell on branch 1
        let mut st = near(12);
        st[0].finalized_epoch = 10;
        assert_eq!(s.participate(&st), [false, true]);
        let mut st = near(13);
        st[0].finalized_epoch = 10;
        assert_eq!(s.participate(&st), [false, true]);
        let mut st = near(14);
        st[0].finalized_epoch = 10;
        st[1].finalized_epoch = 12;
        let _ = s.participate(&st);
        assert_eq!(s.phase, SemiActivePhase::Done);
    }

    #[test]
    #[should_panic(expected = "two-branch machine")]
    fn semi_active_rejects_three_branches() {
        let mut s = SemiActive::new();
        let st = [status(0, 1, 1, 3), status(0, 1, 1, 3), status(0, 1, 1, 3)];
        let _ = s.participate(&st);
    }

    #[test]
    fn threshold_seeker_never_dwells() {
        let mut s = ThresholdSeeker::new();
        for e in 0..10u64 {
            let st = [status(e, 50, 40, 100), status(e, 50, 40, 100)];
            let p = s.participate(&st);
            assert_eq!(p, [e % 2 == 0, e % 2 == 1]);
        }
        assert!(s.max_proportion[0] > 0.0);
    }

    #[test]
    fn threshold_seeker_rotates_over_k_branches() {
        let mut s = ThresholdSeeker::new();
        for e in 0..9u64 {
            let st = [
                status(e, 50, 40, 100),
                status(e, 30, 40, 100),
                status(e, 20, 40, 100),
            ];
            let p = s.participate(&st);
            assert_eq!(p.count(), 1);
            assert!(p.get(e as usize % 3));
        }
        assert_eq!(s.max_proportion.len(), 3);
    }

    #[test]
    fn round_robin_dwell_finalizes_every_branch_in_turn() {
        let mut s = RoundRobin::new(2);
        let far = |e: u64| {
            [
                status(e, 10, 2, 100),
                on_branch(status(e, 10, 2, 100), 1),
                on_branch(status(e, 10, 2, 100), 2),
            ]
        };
        // rotation phase: e % 3
        for e in 0..6u64 {
            assert_eq!(s.participate(&far(e)), BranchChoice::only(e as usize % 3));
        }
        let near = |e: u64| {
            [
                status(e, 50, 20, 100),
                on_branch(status(e, 48, 20, 100), 1),
                on_branch(status(e, 47, 20, 100), 2), // 67/100: exactly past 2/3
            ]
        };
        // all three reachable at epoch 6 ⇒ dwell branch 0
        assert_eq!(s.participate(&near(6)), [true, false, false]);
        assert_eq!(s.participate(&near(7)), [true, false, false]);
        let mut st = near(8);
        st[0].finalized_epoch = 6;
        assert_eq!(s.participate(&st), [false, true, false]);
        let mut st = near(9);
        st[0].finalized_epoch = 6;
        assert_eq!(s.participate(&st), [false, true, false]);
        let mut st = near(10);
        st[0].finalized_epoch = 6;
        st[1].finalized_epoch = 8;
        assert_eq!(s.participate(&st), [false, false, true]);
        let mut st = near(11);
        st[0].finalized_epoch = 6;
        st[1].finalized_epoch = 8;
        assert_eq!(s.participate(&st), [false, false, true]);
        let mut st = near(12);
        st[0].finalized_epoch = 6;
        st[1].finalized_epoch = 8;
        st[2].finalized_epoch = 10;
        let _ = s.participate(&st);
        assert_eq!(s.phase, RoundRobinPhase::Done);
        // done: back to rotation
        assert_eq!(s.participate(&near(13)), BranchChoice::only(13 % 3));
    }

    #[test]
    fn round_robin_survives_a_shrinking_live_set() {
        let mut s = RoundRobin::new(2);
        let near = |e: u64, k: u32| -> Vec<BranchStatus> {
            (0..k)
                .map(|b| on_branch(status(e, 50, 20, 100), b))
                .collect()
        };
        // trigger a dwell on the last of 3 branches
        let _ = s.participate(&near(0, 3));
        let mut st = near(2, 3);
        st[0].finalized_epoch = 1;
        let _ = s.participate(&st);
        let mut st = near(4, 3);
        st[0].finalized_epoch = 1;
        st[1].finalized_epoch = 3;
        let p = s.participate(&st);
        assert_eq!(p, [false, false, true]);
        // the dwelled branch (id 2) is healed away: the machine restarts
        let p = s.participate(&near(5, 2));
        assert_eq!(p.count(), 1);
        for e in 6..10u64 {
            assert_eq!(s.participate(&near(e, 2)).count(), 1);
        }
    }

    #[test]
    fn round_robin_dwell_follows_its_branch_through_a_heal() {
        // Dwelling on branch 1 of [0, 1, 2] when a heal retires branch
        // 0: the dwell must keep voting branch 1 (now at position 0),
        // not silently retarget whatever sits at its old position.
        let mut s = RoundRobin::new(2);
        let near = |e: u64, ids: &[u32]| -> Vec<BranchStatus> {
            ids.iter()
                .map(|&b| on_branch(status(e, 50, 20, 100), b))
                .collect()
        };
        // epoch 10: all reachable ⇒ dwell branch 0; epoch 12: branch 0
        // finalized ⇒ dwell moves to branch 1 (since = 12)
        let _ = s.participate(&near(10, &[0, 1, 2]));
        let _ = s.participate(&near(11, &[0, 1, 2]));
        let mut st = near(12, &[0, 1, 2]);
        st[0].finalized_epoch = 10;
        assert_eq!(s.participate(&st), [false, true, false]);
        // branch 0 heals away; branch 1 is now position 0 and must keep
        // receiving the dwell votes
        let st = near(13, &[1, 2]);
        assert_eq!(s.participate(&st), [true, false]);
        // ...and branch 2's stale finalization (11 + 2 ≥ since) must NOT
        // end branch 1's dwell — the old positional machine read it
        let mut st = near(14, &[1, 2]);
        st[1].finalized_epoch = 11; // branch 2, finalized before the heal
        assert_eq!(s.participate(&st), [true, false], "dwell must stay on 1");
    }
}
