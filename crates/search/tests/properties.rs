//! Property tests for the genome executor: the paper corners of the
//! strategy space are *step-for-step* the paper implementations on
//! arbitrary observation streams, and every [`ParamSchedule`] replays
//! deterministically.

use proptest::prelude::*;

use ethpos_search::{DutyGene, Genome, ParamSchedule};
use ethpos_sim::{
    BranchChoice, BranchStatus, ByzantineSchedule, DualActive, SemiActive, ThresholdSeeker,
};
use ethpos_types::BranchId;

/// Decodes raw words into a plausible status stream (epochs increasing;
/// stakes, justification and finality derived from the words so both
/// replays observe the same thing).
fn decode_statuses(raw: &[(u64, u64, u64)]) -> Vec<[BranchStatus; 2]> {
    let mut finalized = [0u64; 2];
    let mut out = Vec::with_capacity(raw.len());
    for (epoch, &(a, b, c)) in raw.iter().enumerate() {
        let epoch = epoch as u64;
        // Finality can only advance, like in a real run.
        for (br, f) in finalized.iter_mut().enumerate() {
            if c & (1 << br) != 0 && epoch > 1 {
                *f = (*f).max(epoch - 1);
            }
        }
        let status = |branch: usize, x: u64| {
            let total = 1 + x % 1_000_000;
            BranchStatus {
                branch: BranchId::new(branch as u32),
                epoch,
                total_active_stake: total,
                honest_active_stake: (x >> 7) % (total + 1),
                byzantine_stake: (x >> 13) % (total + 1),
                justified_epoch: finalized[branch],
                finalized_epoch: finalized[branch],
            }
        };
        out.push([status(0, a), status(1, b)]);
    }
    out
}

fn replay<S: ByzantineSchedule>(
    mut schedule: S,
    statuses: &[[BranchStatus; 2]],
) -> Vec<BranchChoice> {
    statuses.iter().map(|st| schedule.participate(st)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The three paper corners of the genome space reproduce the paper
    /// implementations decision-for-decision on arbitrary streams —
    /// including through the semi-active dwell state machine.
    #[test]
    fn genome_corners_equal_paper_strategies(
        raw in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..96),
    ) {
        let statuses = decode_statuses(&raw);
        prop_assert_eq!(
            replay(ParamSchedule::new(Genome::DUAL_ACTIVE), &statuses),
            replay(DualActive, &statuses)
        );
        prop_assert_eq!(
            replay(ParamSchedule::new(Genome::THRESHOLD_SEEKER), &statuses),
            replay(ThresholdSeeker::new(), &statuses)
        );
        prop_assert_eq!(
            replay(ParamSchedule::new(Genome::SEMI_ACTIVE), &statuses),
            replay(SemiActive::new(), &statuses)
        );
    }

    /// Every genome replays deterministically, and genomes without
    /// statically overlapping duty cycles never double-vote.
    #[test]
    fn genomes_replay_deterministically(
        raw in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..64),
        p0 in 1u8..5,
        on0 in any::<u8>(),
        ph0 in any::<u8>(),
        p1 in 1u8..5,
        on1 in any::<u8>(),
        ph1 in any::<u8>(),
        dwell in 0u8..4,
    ) {
        let genome = Genome {
            duty: [
                DutyGene { period: p0, on: on0 % (p0 + 1), phase: ph0 % p0 },
                DutyGene { period: p1, on: on1 % (p1 + 1), phase: ph1 % p1 },
            ],
            dwell,
        }
        .canonical();
        let statuses = decode_statuses(&raw);
        let first = replay(ParamSchedule::new(genome), &statuses);
        prop_assert_eq!(&first, &replay(ParamSchedule::new(genome), &statuses));
        if !genome.statically_slashable() && genome.dwell == 0 {
            for (e, decision) in first.iter().enumerate() {
                prop_assert!(
                    !decision.is_double_vote(),
                    "epoch {}: double vote from {:?}",
                    e,
                    genome
                );
            }
        }
    }
}
