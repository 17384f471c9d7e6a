//! Property tests for the partition-timeline algebra itself: class
//! membership is conserved across `Split`/`Heal`, no validator ever
//! sits on two live branches, and heal merges are order-insensitive.

use proptest::prelude::*;

use ethpos_sim::{CompiledTimeline, PartitionTimeline};
use ethpos_types::BranchId;

/// Builds a random-but-valid timeline from raw words: an initial 2- or
/// 3-way split, then up to two further operations (heal / re-split /
/// deepen), all at k ≤ 4.
fn decode_timeline(raw: (u8, u8, u8, u8), three_way: bool, plan: u8, e1: u64) -> PartitionTimeline {
    let weight = |x: u8| 1.0 + f64::from(x % 16);
    let b = BranchId::new;
    let (w0, w1, w2, w3) = raw;
    let first: Vec<f64> = if three_way {
        vec![weight(w0), weight(w1), weight(w2)]
    } else {
        vec![weight(w0), weight(w1)]
    };
    let t = PartitionTimeline::new().split(0, b(0), &first);
    match plan % 4 {
        1 => t
            .heal(e1, b(0), &[b(1)])
            .split(e1 + 2, b(0), &[weight(w3), weight(w0)]),
        2 => t.split(e1, b(1), &[weight(w2), weight(w3)]),
        3 if three_way => t.heal(e1, b(2), &[b(0), b(1)]),
        _ => t,
    }
}

/// Checks the two core invariants on every step of a compiled timeline:
/// the live branches' class sets (pinned + churn) partition the full
/// honest class set — nothing lost, nothing duplicated.
fn assert_partition_invariants(compiled: &CompiledTimeline, n_honest: u64) {
    let total: u64 = compiled.honest_classes().iter().sum();
    assert_eq!(total, n_honest, "class-membership conservation at genesis");
    let all_classes: Vec<usize> = (1..=compiled.honest_classes().len()).collect();
    for step in compiled.steps() {
        let plan = step.plan();
        let mut seen: Vec<usize> = Vec::new();
        for branch in plan.live_branches() {
            seen.extend(
                plan.pinned_classes(branch)
                    .expect("live branches are pinned-listed"),
            );
        }
        for group in plan.churn_groups() {
            seen.extend(group.classes.iter().copied());
            for branch in &group.branches {
                assert!(
                    plan.live_branches().contains(branch),
                    "churn branch {branch} must be live at epoch {}",
                    step.epoch()
                );
            }
        }
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        let deduped_len = {
            let mut d = sorted.clone();
            d.dedup();
            d.len()
        };
        assert_eq!(
            deduped_len,
            seen.len(),
            "a class sits on two live branches at epoch {}",
            step.epoch()
        );
        assert_eq!(
            sorted,
            all_classes,
            "classes lost or invented at epoch {}",
            step.epoch()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation and exclusivity hold on every phase of random
    /// timelines: the honest classes always sum to the honest
    /// population, and every class is assigned to exactly one live
    /// branch (or exactly one churn group).
    #[test]
    fn class_membership_is_conserved_and_exclusive(
        raw in (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
        three_way in any::<bool>(),
        plan in 0u8..4,
        e1 in 2u64..9,
        n_honest in 1u64..5000,
    ) {
        let timeline = decode_timeline(raw, three_way, plan, e1);
        let compiled = timeline.compile(n_honest).expect("valid by construction");
        assert_partition_invariants(&compiled, n_honest);
    }

    /// Churn splits conserve membership too: the churned classes cover
    /// the split population and no pinned class overlaps them.
    #[test]
    fn churn_timelines_keep_the_invariants(
        w in (any::<u8>(), any::<u8>()),
        p_cut in 1u64..99,
        n_honest in 1u64..5000,
    ) {
        let b = BranchId::new;
        let p0 = p_cut as f64 / 100.0;
        // fixed split first, then churn one side
        let timeline = PartitionTimeline::new()
            .split(0, b(0), &[p0, 1.0 - p0])
            .churn(4, b(1), &[1.0 + f64::from(w.0 % 16), 1.0 + f64::from(w.1 % 16)]);
        let compiled = timeline.compile(n_honest).expect("valid by construction");
        assert_partition_invariants(&compiled, n_honest);
        // the churn group's member count equals its class sizes
        let last = compiled.steps().last().unwrap();
        for group in last.plan().churn_groups() {
            let members: u64 = group
                .classes
                .iter()
                .map(|&c| compiled.honest_classes()[c - 1])
                .sum();
            prop_assert_eq!(members, group.members);
        }
    }

    /// Heal merges are order-insensitive: permuting the merged list —
    /// or splitting one heal into several same-epoch heals — compiles
    /// to the identical class plan.
    #[test]
    fn heal_merges_are_order_insensitive(
        raw in (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
        e1 in 2u64..9,
        n_honest in 1u64..5000,
    ) {
        let b = BranchId::new;
        let weight = |x: u8| 1.0 + f64::from(x % 16);
        let (w0, w1, w2, _) = raw;
        let base = PartitionTimeline::new().split(0, b(0), &[weight(w0), weight(w1), weight(w2)]);
        let forward = base.clone().heal(e1, b(0), &[b(1), b(2)]);
        let backward = base.clone().heal(e1, b(0), &[b(2), b(1)]);
        let stepwise = base.heal(e1, b(0), &[b(2)]).heal(e1, b(0), &[b(1)]);
        let reference = forward.compile(n_honest).expect("valid");
        let backward = backward.compile(n_honest).expect("valid");
        let stepwise = stepwise.compile(n_honest).expect("valid");
        prop_assert_eq!(reference.honest_classes(), backward.honest_classes());
        // final plans (the phase after the heal epoch) are identical
        prop_assert_eq!(
            reference.steps().last().unwrap().plan(),
            backward.steps().last().unwrap().plan()
        );
        prop_assert_eq!(
            reference.steps().last().unwrap().plan(),
            stepwise.steps().last().unwrap().plan()
        );
    }

    /// Splits realize the cumulative-rounding contract: the first share
    /// is `round(w0/Σw · m)` and the shares sum to the parent mass.
    #[test]
    fn split_masses_follow_cumulative_rounding(
        w0 in 1u8..32,
        w1 in 1u8..32,
        n_honest in 1u64..100_000,
    ) {
        let timeline = PartitionTimeline::new().split(
            0,
            BranchId::GENESIS,
            &[f64::from(w0), f64::from(w1)],
        );
        let compiled = timeline.compile(n_honest).expect("valid");
        let classes = compiled.honest_classes();
        prop_assert_eq!(classes.iter().sum::<u64>(), n_honest);
        let expected_first =
            ((f64::from(w0) / f64::from(w0 + w1)) * n_honest as f64).round() as u64;
        if expected_first > 0 && expected_first < n_honest {
            prop_assert_eq!(classes[0], expected_first);
        } else {
            // a zero-mass share leaves a single class
            prop_assert_eq!(classes.len(), 1);
        }
    }

    /// The spec syntax round-trips through parse/render on random
    /// timelines.
    #[test]
    fn spec_syntax_round_trips(
        raw in (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
        three_way in any::<bool>(),
        plan in 0u8..4,
        e1 in 2u64..9,
    ) {
        let timeline = decode_timeline(raw, three_way, plan, e1);
        let rendered = timeline.render();
        prop_assert_eq!(PartitionTimeline::parse(&rendered).expect("parses"), timeline);
    }
}
