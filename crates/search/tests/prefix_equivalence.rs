//! Property tests: prefix-memoized evaluation is **byte-identical** to
//! from-genesis evaluation.
//!
//! [`PrefixMemo`] answers candidates three ways — stream reconstruction
//! (no simulator at all), full runs that record a pair checkpoint, and
//! checkpoint forks that skip the shared schedule prefix. Whatever path
//! a genome takes, its serialized [`Evaluation`] must equal what the
//! reference path ([`evaluate`], one full run from genesis) produces:
//! random genomes across all objectives and both backends, and — the
//! checkpoint-specific case — random genome *pairs* sharing a duty
//! schedule so the second is forked from the first's checkpoint.

use proptest::prelude::*;

use ethpos_search::{evaluate, DutyGene, EvalParams, Genome, Objective, PrefixMemo};
use ethpos_sim::ChunkPool;
use ethpos_state::{BackendKind, CohortState, DenseState};

/// Decodes one random word into a canonical genome (one byte per
/// field). Periods 1..=4 keep the 40-epoch test horizon covering
/// several cycles.
fn decode_genome(raw: u64) -> Genome {
    let b = |i: u32| (raw >> (8 * i)) as u8;
    let gene = |period: u8, on: u8, phase: u8| DutyGene {
        period: 1 + period % 4,
        on: on % 5,
        phase: phase % 4,
    };
    Genome {
        duty: [gene(b(0), b(1), b(2)), gene(b(3), b(4), b(5))],
        dwell: b(6) % 5,
    }
    .canonical()
}

fn decode_objective(raw: u8) -> Objective {
    Objective::all()[raw as usize % 3]
}

/// Serialized-evaluation equality: every scored field, byte for byte.
fn assert_memo_matches_reference(params: &EvalParams, genomes: &[Genome]) {
    let pool = ChunkPool::new(1);
    let memoized = match params.backend {
        BackendKind::Dense => PrefixMemo::<DenseState>::new(params).evaluate_batch(&pool, genomes),
        BackendKind::Cohort => {
            PrefixMemo::<CohortState>::new(params).evaluate_batch(&pool, genomes)
        }
    };
    for (genome, got) in genomes.iter().zip(&memoized) {
        let want = evaluate(params, *genome);
        assert_eq!(
            serde_json::to_string(got).unwrap(),
            serde_json::to_string(&want).unwrap(),
            "genome {} under {:?} on {:?}",
            genome.label(),
            params.objective,
            params.backend,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random genomes, random β₀ spanning the ⅔-reachability edge (so
    /// dwell feedback sometimes triggers and sometimes never does),
    /// across every objective and both backends.
    #[test]
    fn memoized_evaluation_matches_from_genesis(
        raws in proptest::collection::vec(any::<u64>(), 1..5),
        beta0_pct in 20u8..45,
        objective in any::<u8>(),
        dense in any::<bool>(),
    ) {
        let params = EvalParams {
            n: 120,
            beta0: f64::from(beta0_pct) / 100.0,
            p0: 0.5,
            epochs: 40,
            backend: if dense { BackendKind::Dense } else { BackendKind::Cohort },
            objective: decode_objective(objective),
        };
        let genomes: Vec<Genome> = raws.into_iter().map(decode_genome).collect();
        assert_memo_matches_reference(&params, &genomes);
    }

    /// The checkpoint path specifically: genome pairs sharing one duty
    /// schedule, differing only in dwell. The first dwell variant records
    /// the pair checkpoint at the trigger epoch; every later variant is
    /// forked from it — and must still score byte-identically to its own
    /// from-genesis run.
    #[test]
    fn checkpoint_forked_variants_match_from_genesis(
        raw in any::<u64>(),
        dwells in proptest::collection::vec(1u8..5, 2..5),
        objective in any::<u8>(),
    ) {
        // β₀ = ⅓ makes both branches ⅔-reachable from the start, so the
        // dwell feedback triggers for every pair with any Byzantine duty.
        let params = EvalParams {
            n: 120,
            beta0: 1.0 / 3.0,
            p0: 0.5,
            epochs: 40,
            backend: BackendKind::Cohort,
            objective: decode_objective(objective),
        };
        let base = decode_genome(raw);
        let genomes: Vec<Genome> = dwells
            .into_iter()
            .map(|dwell| Genome { duty: base.duty, dwell }.canonical())
            .collect();
        assert_memo_matches_reference(&params, &genomes);
    }

    /// Asymmetric partitions (`p0 ≠ 0.5`): the honest classes differ in
    /// size, so the memo cannot share streams across branches — the
    /// asymmetric bookkeeping must be just as exact.
    #[test]
    fn asymmetric_partitions_match_from_genesis(
        raws in proptest::collection::vec(any::<u64>(), 1..4),
        p0_pct in 20u8..46,
        objective in any::<u8>(),
    ) {
        let params = EvalParams {
            n: 120,
            beta0: 1.0 / 3.0,
            p0: f64::from(p0_pct) / 100.0,
            epochs: 40,
            backend: BackendKind::Cohort,
            objective: decode_objective(objective),
        };
        let genomes: Vec<Genome> = raws.into_iter().map(decode_genome).collect();
        assert_memo_matches_reference(&params, &genomes);
    }
}

/// One memo serving many batches (the driver's usage pattern): later
/// batches re-use streams and fork checkpoints recorded by earlier ones,
/// still matching the reference path genome for genome.
#[test]
fn multi_batch_reuse_matches_from_genesis() {
    let params = EvalParams {
        n: 120,
        beta0: 1.0 / 3.0,
        p0: 0.5,
        epochs: 40,
        backend: BackendKind::Cohort,
        objective: Objective::Conflict,
    };
    let pool = ChunkPool::new(1);
    let mut memo = PrefixMemo::<CohortState>::new(&params);
    let pair = Genome::THRESHOLD_SEEKER.duty;
    let batches: [&[Genome]; 3] = [
        &[
            Genome {
                duty: pair,
                dwell: 0,
            },
            Genome {
                duty: pair,
                dwell: 1,
            },
        ],
        &[
            Genome {
                duty: pair,
                dwell: 2,
            },
            Genome::DUAL_ACTIVE,
        ],
        &[
            Genome {
                duty: pair,
                dwell: 1,
            },
            Genome {
                duty: pair,
                dwell: 4,
            },
        ],
    ];
    for batch in batches {
        let memoized = memo.evaluate_batch(&pool, batch);
        for (genome, got) in batch.iter().zip(&memoized) {
            let want = evaluate(&params, *genome);
            assert_eq!(
                serde_json::to_string(got).unwrap(),
                serde_json::to_string(&want).unwrap(),
                "genome {}",
                genome.label()
            );
        }
    }
    let stats = memo.stats();
    assert!(
        stats.checkpoint_hits > 0,
        "later variants must fork: {stats:?}"
    );
    assert!(
        stats.reconstructed > 0,
        "dwell-free genomes must reconstruct"
    );
}
