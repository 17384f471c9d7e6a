//! Property tests for the Byzantine participation schedules:
//! replay determinism for every [`ByzantineSchedule`] implementation,
//! [`BranchStatus`] observation invariants, the structural slashability
//! guarantees of each strategy, and the k-branch [`RoundRobin`]
//! collapsing to the paper's two-branch machines.

use proptest::prelude::*;

use ethpos_sim::{
    BranchChoice, BranchStatus, ByzantineSchedule, DualActive, RoundRobin, SemiActive,
    ThresholdSeeker,
};
use ethpos_types::BranchId;

/// Decodes a raw tuple stream into a plausible per-epoch status
/// sequence: epochs strictly increasing, stakes bounded, per-branch
/// finality derived deterministically from the raw words so replays see
/// the same observations.
fn decode_statuses(raw: &[(u64, u64, u64)]) -> Vec<[BranchStatus; 2]> {
    let mut out = Vec::with_capacity(raw.len());
    for (epoch, &(a, b, c)) in raw.iter().enumerate() {
        let epoch = epoch as u64;
        let status = |branch: u32, x: u64, y: u64| {
            let total = 1 + x % 1_000_000;
            let honest = y % (total + 1);
            let byz = (x ^ y) % (total + 1);
            let justified = if c & (1 << (branch + 2)) != 0 && epoch > 0 {
                epoch - 1
            } else {
                0
            };
            BranchStatus {
                branch: BranchId::new(branch),
                epoch,
                total_active_stake: total,
                honest_active_stake: honest,
                byzantine_stake: byz,
                justified_epoch: justified,
                finalized_epoch: justified.saturating_sub(1),
            }
        };
        out.push([status(0, a, b), status(1, b.rotate_left(7), c)]);
    }
    out
}

/// Runs a schedule over the sequence and collects the decisions.
fn replay<S: ByzantineSchedule>(
    mut schedule: S,
    statuses: &[[BranchStatus; 2]],
) -> Vec<BranchChoice> {
    statuses.iter().map(|st| schedule.participate(st)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every schedule is a deterministic function of the observation
    /// stream: replaying the same statuses on a fresh instance yields
    /// the same decisions.
    #[test]
    fn schedules_are_deterministic_under_replay(
        raw in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..64),
    ) {
        let statuses = decode_statuses(&raw);
        prop_assert_eq!(
            replay(DualActive, &statuses),
            replay(DualActive, &statuses)
        );
        prop_assert_eq!(
            replay(SemiActive::new(), &statuses),
            replay(SemiActive::new(), &statuses)
        );
        prop_assert_eq!(
            replay(ThresholdSeeker::new(), &statuses),
            replay(ThresholdSeeker::new(), &statuses)
        );
        prop_assert_eq!(
            replay(RoundRobin::new(2), &statuses),
            replay(RoundRobin::new(2), &statuses)
        );
    }

    /// The k-branch round-robin collapses to the paper's two-branch
    /// machines whenever exactly two branches are live: dwell 2 is
    /// decision-for-decision [`SemiActive`], dwell 0 is the
    /// [`ThresholdSeeker`] rotation — on arbitrary observation streams.
    #[test]
    fn round_robin_collapses_to_the_paper_machines_at_k2(
        raw in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..96),
    ) {
        let statuses = decode_statuses(&raw);
        prop_assert_eq!(
            replay(RoundRobin::new(2), &statuses),
            replay(SemiActive::new(), &statuses)
        );
        prop_assert_eq!(
            replay(RoundRobin::new(0), &statuses),
            replay(ThresholdSeeker::new(), &statuses)
        );
    }

    /// `two_thirds_reachable` is consistent with the exact integer
    /// inequality and (away from the boundary) with the float ratio.
    #[test]
    fn branch_status_invariants(
        total in 0u64..2_000_000,
        honest_raw in any::<u64>(),
        byz_raw in any::<u64>(),
        epoch in any::<u64>(),
    ) {
        let honest = honest_raw % (total + 1);
        let byz = byz_raw % (total + 1);
        let st = BranchStatus {
            branch: BranchId::GENESIS,
            epoch,
            total_active_stake: total,
            honest_active_stake: honest,
            byzantine_stake: byz,
            justified_epoch: 0,
            finalized_epoch: 0,
        };
        // exact integer definition
        let reachable = 3 * (u128::from(honest) + u128::from(byz)) >= 2 * u128::from(total);
        prop_assert_eq!(st.two_thirds_reachable(), reachable);
        // float consistency away from the boundary
        let ratio = (honest + byz) as f64 / total as f64;
        if ratio > 2.0 / 3.0 + 1e-9 {
            prop_assert!(st.two_thirds_reachable());
        }
        if ratio < 2.0 / 3.0 - 1e-9 {
            prop_assert!(!st.two_thirds_reachable());
        }
        // the zero-stake degenerate branch is trivially reachable
        if total == 0 {
            prop_assert!(st.two_thirds_reachable());
        }
    }

    /// Structural slashability: `DualActive` double-votes every epoch;
    /// `SemiActive`, `ThresholdSeeker` and `RoundRobin` vote **exactly
    /// one** branch every epoch (never a same-epoch double vote ⇒ not
    /// slashable).
    #[test]
    fn slashability_structure_holds(
        raw in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..64),
    ) {
        let statuses = decode_statuses(&raw);
        for decision in replay(DualActive, &statuses) {
            prop_assert_eq!(decision, [true, true]);
            prop_assert!(decision.is_double_vote());
        }
        for schedule in [
            replay(SemiActive::new(), &statuses),
            replay(ThresholdSeeker::new(), &statuses),
            replay(RoundRobin::new(2), &statuses),
        ] {
            for (e, decision) in schedule.iter().enumerate() {
                prop_assert_eq!(decision.count(), 1, "epoch {}: voted {:?}", e, decision);
                prop_assert!(!decision.is_double_vote());
            }
        }
    }
}
