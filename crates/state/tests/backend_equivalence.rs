//! Property tests: the cohort-compressed backend is **bit-identical** to
//! the dense reference backend.
//!
//! Random class compositions (counts, genesis balances spanning the
//! 16.75-ETH ejection edge), random per-class participation schedules and
//! both penalty-semantics configurations are driven through
//! [`DenseState`] and [`CohortState`] in lockstep, asserting equal
//! [`StateSnapshot`]s after **every** epoch — including across ejection
//! boundaries and justification/finalization flips.
//!
//! Dense is the one oracle. For count-level churn marking it is wrapped in
//! [`GroupedDense`], which draws once per group of equal members in the
//! canonical cohort order instead of once per member, so the cohort
//! backend's churn runs are held to it byte for byte, not only in law.

use proptest::prelude::*;

use ethpos_sim::{
    BranchChoice, BranchStatus, ByzantineSchedule, DualActive, PartitionConfig, PartitionSim,
    PartitionTimeline,
};
use ethpos_state::participation::{
    TIMELY_HEAD_FLAG_INDEX, TIMELY_SOURCE_FLAG_INDEX, TIMELY_TARGET_FLAG_INDEX,
};
use ethpos_state::{
    BranchObservation, ClassSpec, ClassStats, CohortState, DenseState, Fragmentation, MemberState,
    ParticipationFlags, RootLabel, StateBackend, StateSnapshot,
};
use ethpos_types::{BranchId, ChainConfig, Checkpoint, Epoch, Gwei, Root, ValidatorIndex};

/// Builds the two backends from the same class specs.
fn pair(config: &ChainConfig, classes: &[ClassSpec]) -> (DenseState, CohortState) {
    (
        DenseState::from_classes(config.clone(), classes),
        CohortState::from_classes(config.clone(), classes),
    )
}

/// Decodes one strategy draw into class specs: counts in 1..6, balances
/// in [16.0, 33.0) ETH — straddling the ejection threshold (16.75) and
/// the 32-ETH cap.
fn decode_classes(raw: &[(u64, f64)]) -> Vec<ClassSpec> {
    raw.iter()
        .map(|&(count, eth)| ClassSpec {
            count: 1 + count % 5,
            balance: Gwei::from_eth_f64(eth),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Deterministic random schedules: class `c` participates at epoch
    /// `e` iff bit `e` of its schedule word is set. Snapshots must agree
    /// after every one of the 24 epochs, under both penalty semantics.
    #[test]
    fn cohort_matches_dense_under_random_schedules(
        raw in proptest::collection::vec((0u64..1 << 16, 16.0f64..33.0), 1..4),
        schedules in proptest::collection::vec(0u64..u64::MAX, 3..4),
        paper in any::<bool>(),
    ) {
        let config = if paper { ChainConfig::paper() } else { ChainConfig::minimal() };
        let classes = decode_classes(&raw);
        let (mut dense, mut cohort) = pair(&config, &classes);
        prop_assert_eq!(dense.snapshot(), cohort.snapshot());
        for epoch in 0..24u64 {
            for (c, _) in classes.iter().enumerate() {
                if schedules[c % schedules.len()] >> (epoch % 64) & 1 == 1 {
                    dense.mark_class(c, ParticipationFlags::all());
                    cohort.mark_class(c, ParticipationFlags::all());
                }
            }
            dense.advance_epoch(None);
            cohort.advance_epoch(None);
            prop_assert_eq!(dense.snapshot(), cohort.snapshot(), "epoch {}", epoch);
        }
    }

    /// Checkpoint roots: every epoch either names a fresh root — a given
    /// one, or every third epoch a branch label — or carries the last
    /// one (`None`). Both backends keep only a two-root window,
    /// so the test keeps the whole log itself: after every epoch each
    /// backend's current-justified and finalized roots must be the log's
    /// entry at that checkpoint's epoch. Stakes 3 : 1 : 2 make the ⅔
    /// target come and go with the schedules, so justification skips
    /// epochs and finalization stalls and resumes.
    #[test]
    fn checkpoint_roots_match_the_root_logs(
        named in any::<u64>(),
        schedules in proptest::collection::vec(any::<u64>(), 3..4),
        paper in any::<bool>(),
    ) {
        let config = if paper { ChainConfig::paper() } else { ChainConfig::minimal() };
        let classes: Vec<ClassSpec> =
            [3, 1, 2].iter().map(|&count| ClassSpec::full_stake(count, &config)).collect();
        let (mut dense, mut cohort) = pair(&config, &classes);
        // The root of each epoch (index = epoch), genesis first.
        let mut roots = vec![dense.finalized_checkpoint().root];
        for epoch in 0..48u64 {
            for (c, schedule) in schedules.iter().enumerate() {
                if schedule >> epoch & 1 == 1 {
                    dense.mark_class(c, ParticipationFlags::all());
                    cohort.mark_class(c, ParticipationFlags::all());
                }
            }
            let root = (named >> epoch & 1 == 1).then(|| match epoch % 3 {
                0 => RootLabel::Branch { id: 7, epoch: epoch + 1 },
                _ => Root::from_u64(1000 + epoch).into(),
            });
            dense.advance_epoch(root);
            cohort.advance_epoch(root);
            roots.push(root.map_or(roots[epoch as usize], RootLabel::root));
            prop_assert_eq!(dense.snapshot(), cohort.snapshot(), "epoch {}", epoch);
            let checkpoints = [
                ("dense", dense.current_justified_checkpoint(), dense.finalized_checkpoint()),
                ("cohort", cohort.current_justified_checkpoint(), cohort.finalized_checkpoint()),
            ];
            for (backend, justified, finalized) in checkpoints {
                for Checkpoint { epoch: at, root } in [justified, finalized] {
                    prop_assert_eq!(root, roots[at.as_u64() as usize], "{} epoch {}", backend, epoch);
                }
            }
        }
    }

    /// Sampled (split-inducing) marking: at genesis each class is one
    /// uniform cohort, so feeding both backends the same draw sequence
    /// marks the same *number* per class — and snapshots are
    /// identity-free, so they must stay equal through the following
    /// epochs as the split halves diverge and eventually remerge.
    #[test]
    fn cohort_matches_dense_after_sampled_splits(
        raw in proptest::collection::vec((0u64..1 << 16, 16.0f64..33.0), 1..3),
        pattern in 0u64..u64::MAX,
        epochs in 4u64..16,
    ) {
        let config = ChainConfig::paper();
        let classes = decode_classes(&raw);
        let (mut dense, mut cohort) = pair(&config, &classes);
        for (c, _) in classes.iter().enumerate() {
            let mut i = 0u64;
            let mut dense_draw = || { i += 1; pattern >> (i % 64) & 1 == 1 };
            dense.mark_class_sampled(c, ParticipationFlags::all(), &mut dense_draw);
            let mut j = 0u64;
            let mut cohort_draw = || { j += 1; pattern >> (j % 64) & 1 == 1 };
            cohort.mark_class_counted(c, ParticipationFlags::all(), &mut |count| {
                (0..count).filter(|_| cohort_draw()).count() as u64
            });
        }
        for epoch in 0..epochs {
            dense.advance_epoch(None);
            cohort.advance_epoch(None);
            prop_assert_eq!(dense.snapshot(), cohort.snapshot(), "epoch {}", epoch);
        }
    }

    /// Count-level marking at genesis: each class is one uniform cohort,
    /// so one count draw of `k` on the cohort backend must equal marking
    /// the first `k` members on the dense backend — snapshots are
    /// identity-free and must stay equal as the split halves diverge.
    #[test]
    fn cohort_counted_matches_dense_first_k_marks(
        raw in proptest::collection::vec((0u64..1 << 16, 16.0f64..33.0), 1..3),
        pattern in 0u64..u64::MAX,
        epochs in 4u64..16,
    ) {
        let config = ChainConfig::paper();
        let classes = decode_classes(&raw);
        let (mut dense, mut cohort) = pair(&config, &classes);
        for (c, spec) in classes.iter().enumerate() {
            let k = (pattern >> (8 * (c % 8))) % (spec.count + 1);
            let mut i = 0u64;
            dense.mark_class_sampled(c, ParticipationFlags::all(), &mut || { i += 1; i <= k });
            cohort.mark_class_counted(c, ParticipationFlags::all(), &mut |_| k);
        }
        prop_assert_eq!(dense.snapshot(), cohort.snapshot(), "after marking");
        for epoch in 0..epochs {
            dense.advance_epoch(None);
            cohort.advance_epoch(None);
            prop_assert_eq!(dense.snapshot(), cohort.snapshot(), "epoch {}", epoch);
        }
    }

    /// β₀/p0-shaped two-class partitions (the §5.2 sim layout) with the
    /// idle side leaking to ejection at genesis-edge balances.
    #[test]
    fn partition_layouts_agree_across_ejection(
        beta0 in 0.05f64..0.45,
        p0 in 0.2f64..0.8,
        idle_eth in 16.0f64..18.0,
    ) {
        let config = ChainConfig::paper();
        let n = 30u64;
        let byz = ((beta0 * n as f64).round() as u64).max(1);
        let on_a = ((p0 * (n - byz) as f64).round() as u64).max(1);
        let classes = [
            ClassSpec::full_stake(byz, &config),
            ClassSpec::full_stake(on_a, &config),
            ClassSpec { count: (n - byz).saturating_sub(on_a).max(1), balance: Gwei::from_eth_f64(idle_eth) },
        ];
        let (mut dense, mut cohort) = pair(&config, &classes);
        for epoch in 0..32u64 {
            // Byzantine + branch-A honest attest; the low-balance idle
            // class leaks (and, below 16.75 ETH genesis balances, ejects
            // in the very first registry update).
            for c in [0usize, 1] {
                dense.mark_class(c, ParticipationFlags::all());
                cohort.mark_class(c, ParticipationFlags::all());
            }
            dense.advance_epoch(None);
            cohort.advance_epoch(None);
            prop_assert_eq!(dense.snapshot(), cohort.snapshot(), "epoch {}", epoch);
            prop_assert_eq!(dense.class_stats(2), cohort.class_stats(2));
        }
    }
}

/// A deterministic test schedule: the Byzantine choice at epoch `e`
/// over `k` branches is read off the bits of one word, so dense and
/// cohort replays observe the same adversary.
#[derive(Debug)]
struct BitSchedule(u64);

impl ByzantineSchedule for BitSchedule {
    fn participate(&mut self, status: &[BranchStatus]) -> BranchChoice {
        let e = status[0].epoch;
        let mut choice = BranchChoice::NONE;
        for position in 0..status.len() {
            if self.0 >> ((e as usize * 5 + position * 3) % 64) & 1 == 1 {
                choice = choice.with(position);
            }
        }
        choice
    }

    fn name(&self) -> &'static str {
        "bit-schedule"
    }
}

/// Builds a random-but-valid partition timeline with k ≤ 4 branches:
/// an initial 2- or 3-way split, then optionally a heal (and re-split)
/// or a further split of branch 1.
fn decode_timeline(w: (u8, u8, u8), three_way: bool, op2: u8, e1: u64) -> PartitionTimeline {
    let w = [w.0, w.1, w.2];
    let weight = |x: u8| 1.0 + f64::from(x % 16);
    let b = BranchId::new;
    let first: Vec<f64> = if three_way {
        vec![weight(w[0]), weight(w[1]), weight(w[2])]
    } else {
        vec![weight(w[0]), weight(w[1])]
    };
    let t = PartitionTimeline::new().split(0, b(0), &first);
    match op2 % 3 {
        // heal branch 1 into 0, then re-split branch 0
        1 => t
            .heal(e1, b(0), &[b(1)])
            .split(e1 + 3, b(0), &[weight(w[2]), weight(w[0])]),
        // deepen the partition (k grows to 3 or 4)
        2 => t.split(e1, b(1), &[weight(w[1]), weight(w[2])]),
        _ => t,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The partition engine is **bit-identical** across both backends
    /// on random timelines: random k ≤ 4 splits/heals, random Byzantine
    /// schedules, snapshot equality on every live branch after every
    /// epoch — including across the fork clones (the cohort backend's
    /// copy-on-write `Arc` sharing, which the dense backend's deep copies
    /// do not have) and heal retirements.
    #[test]
    fn partition_timelines_agree_across_backends(
        w in (any::<u8>(), any::<u8>(), any::<u8>()),
        three_way in any::<bool>(),
        op2 in 0u8..3,
        e1 in 3u64..8,
        schedule_word in any::<u64>(),
        n_honest in 8u64..40,
        byzantine in 0u64..12,
    ) {
        let timeline = decode_timeline(w, three_way, op2, e1);
        let config = || PartitionConfig {
            stop_on_conflict: false,
            record_every: u64::MAX,
            ..PartitionConfig::paper(
                (n_honest + byzantine) as usize,
                byzantine as usize,
                timeline.clone(),
                16,
            )
        };
        let mut dense =
            PartitionSim::<DenseState>::with_backend(config(), Box::new(BitSchedule(schedule_word)))
                .expect("valid by construction");
        let mut cohort =
            PartitionSim::<CohortState>::with_backend(config(), Box::new(BitSchedule(schedule_word)))
                .expect("valid by construction");
        loop {
            let more_dense = dense.step();
            let more_cohort = cohort.step();
            prop_assert_eq!(more_dense, more_cohort);
            prop_assert_eq!(dense.live_branches(), cohort.live_branches());
            for branch in dense.live_branches() {
                prop_assert_eq!(
                    dense.branch(branch).snapshot(),
                    cohort.branch(branch).snapshot(),
                    "cohort branch {} at epoch {}",
                    branch,
                    dense.current_epoch()
                );
            }
            if !more_dense {
                break;
            }
        }
        let dense_out = dense.finish();
        let cohort_out = cohort.finish();
        let dense_json = serde_json::to_string(&dense_out).unwrap();
        prop_assert_eq!(&dense_json, &serde_json::to_string(&cohort_out).unwrap());
    }
}

/// Mid-run ejection at the hysteresis edge: a 17-ETH idle class crosses
/// the 16.75-ETH actual-balance threshold around epoch ~700 of a leak,
/// its effective balance snaps to 16 ETH and the registry update ejects
/// it — on both backends at the same epoch, with equal snapshots
/// throughout.
#[test]
fn mid_run_ejection_is_bit_identical() {
    let config = ChainConfig::paper();
    let classes = [
        ClassSpec::full_stake(2, &config),
        ClassSpec {
            count: 8,
            balance: Gwei::from_eth_u64(17),
        },
    ];
    let (mut dense, mut cohort) = pair(&config, &classes);
    let mut ejected_at = None;
    for epoch in 0..800u64 {
        dense.mark_class(0, ParticipationFlags::all());
        cohort.mark_class(0, ParticipationFlags::all());
        dense.advance_epoch(None);
        cohort.advance_epoch(None);
        assert_eq!(dense.snapshot(), cohort.snapshot(), "epoch {epoch}");
        let stats = cohort.class_stats(1);
        if ejected_at.is_none() && stats.exited > 0 {
            // The whole cohort crosses the hysteresis edge together.
            assert_eq!(stats.exited, 8, "partial ejection at {epoch}");
            ejected_at = Some(epoch);
        }
    }
    let e = ejected_at.expect("the 17-ETH class must be ejected");
    assert!(
        (600..790).contains(&e),
        "ejected at {e}, expected ≈700 (0.25 ETH of I·s/2²⁶ decay)"
    );
}

/// [`DenseState`] with the cohort backend's count-level marking: the
/// byte oracle for churn. Dense's own `mark_class_counted` draws
/// `sample(1)` per member, which equals [`CohortState`] in law only. This
/// sorts the class's members by `(MemberState, index)` — the canonical
/// cohort order — calls `sample` once per group of equal active members,
/// and marks the first `k` of each group through
/// [`DenseState::mark_class_sampled`]. Every other method delegates, so
/// the epoch transition stays the per-validator `BeaconState`'s.
#[derive(Debug, Clone)]
struct GroupedDense(DenseState);

/// Member `i`'s full state, as [`DenseState`] snapshots it.
fn member(dense: &DenseState, i: usize) -> MemberState {
    let state = dense.beacon_state();
    let (v, index) = (&state.validators()[i], ValidatorIndex::from(i));
    MemberState {
        balance: state.balances()[i],
        effective_balance: v.effective_balance,
        inactivity_score: state.inactivity_scores()[i],
        slashed: v.slashed,
        activation_epoch: v.activation_epoch,
        exit_epoch: v.exit_epoch,
        withdrawable_epoch: v.withdrawable_epoch,
        previous_flags: state.previous_participation(index),
        current_flags: state.current_participation(index),
    }
}

impl StateBackend for GroupedDense {
    fn from_classes(config: ChainConfig, classes: &[ClassSpec]) -> Self {
        GroupedDense(DenseState::from_classes(config, classes))
    }

    fn config(&self) -> &ChainConfig {
        self.0.config()
    }

    fn current_epoch(&self) -> Epoch {
        self.0.current_epoch()
    }

    fn current_justified_checkpoint(&self) -> Checkpoint {
        self.0.current_justified_checkpoint()
    }

    fn finalized_checkpoint(&self) -> Checkpoint {
        self.0.finalized_checkpoint()
    }

    fn total_active_balance(&self) -> Gwei {
        self.0.total_active_balance()
    }

    fn current_target_balance(&self) -> Gwei {
        self.0.current_target_balance()
    }

    fn num_classes(&self) -> usize {
        self.0.num_classes()
    }

    fn class_stats(&self, class: usize) -> ClassStats {
        self.0.class_stats(class)
    }

    fn observe(&self, class: usize) -> BranchObservation {
        self.0.observe(class)
    }

    fn class_floor(&self, class: usize) -> Option<MemberState> {
        self.0.class_floor(class)
    }

    fn mark_class(&mut self, class: usize, flags: ParticipationFlags) {
        self.0.mark_class(class, flags);
    }

    fn mark_class_counted(
        &mut self,
        class: usize,
        flags: ParticipationFlags,
        sample: &mut impl FnMut(u64) -> u64,
    ) {
        let (range, epoch) = (self.0.class_range(class), self.0.current_epoch());
        let mut members: Vec<(MemberState, usize)> =
            range.clone().map(|i| (member(&self.0, i), i)).collect();
        members.sort_unstable();
        let mut marked = vec![false; range.len()];
        for group in members.chunk_by(|a, b| a.0 == b.0) {
            if !group[0].0.is_active_at(epoch) {
                continue;
            }
            let k = sample(group.len() as u64).min(group.len() as u64) as usize;
            for &(_, i) in &group[..k] {
                marked[i - range.start] = true;
            }
        }
        let mut marked = marked.into_iter();
        self.0
            .mark_class_sampled(class, flags, &mut || marked.next().unwrap_or(false));
    }

    fn advance_epoch(&mut self, next_checkpoint_root: Option<RootLabel>) {
        self.0.advance_epoch(next_checkpoint_root);
    }

    fn class_balance(&self, class: usize) -> Gwei {
        self.0.class_balance(class)
    }

    fn snapshot(&self) -> StateSnapshot {
        self.0.snapshot()
    }

    fn shared_chunks_with(&self, other: &Self) -> usize {
        self.0.shared_chunks_with(&other.0)
    }

    fn fragmentation(&self) -> Option<Fragmentation> {
        self.0.fragmentation()
    }
}

/// Feeds [`CohortState`] and [`GroupedDense`] a `Binomial(count, p)`
/// count stream off identically-seeded RNGs. Both draw once per cohort
/// in canonical order, so they must stay **byte-identical** even as
/// churn fragments the cohort structure over a leak.
///
/// Returns the largest per-class cohort count the run reached.
fn assert_counted_churn_matches_reference(classes: &[ClassSpec], epochs: u64, seed: u64) -> u64 {
    use ethpos_stats::{seeded_rng, Binomial};
    let config = ChainConfig::paper();
    let mut cohort = CohortState::from_classes(config.clone(), classes);
    let mut reference = GroupedDense::from_classes(config, classes);
    let mut rng_a = seeded_rng(seed);
    let mut rng_b = seeded_rng(seed);
    let mut peak = 0;
    for epoch in 0..epochs {
        // Class 0 pins; the others churn at p = 0.45 — under-⅔
        // participation, so the chain leaks and balances (hence cohort
        // structures) fragment path-dependently.
        cohort.mark_class(0, ParticipationFlags::all());
        reference.mark_class(0, ParticipationFlags::all());
        for class in 1..classes.len() {
            cohort.mark_class_counted(class, ParticipationFlags::all(), &mut |count| {
                Binomial::new(count, 0.45).sample(&mut rng_a)
            });
            reference.mark_class_counted(class, ParticipationFlags::all(), &mut |count| {
                Binomial::new(count, 0.45).sample(&mut rng_b)
            });
        }
        cohort.advance_epoch(None);
        reference.advance_epoch(None);
        assert_eq!(
            cohort.snapshot(),
            reference.snapshot(),
            "seed {seed} epoch {epoch}"
        );
        let frag = cohort.fragmentation().expect("cohort backend");
        peak = peak.max(frag.max_cohorts_per_class);
    }
    peak
}

#[test]
fn counted_churn_keeps_cohort_and_reference_byte_identical() {
    let config = ChainConfig::paper();
    let low = ClassSpec {
        count: 9,
        balance: Gwei::from_eth_f64(17.0),
    };
    for seed in 0..8u64 {
        let classes = [
            ClassSpec::full_stake(4, &config),
            ClassSpec::full_stake(40, &config),
            low,
        ];
        let peak = assert_counted_churn_matches_reference(&classes, 48, seed);
        assert!(peak > 3, "churn should fragment cohorts");
    }
    // Past 256 cohorts in one class the cohort backend re-sorts through
    // radix keys applied in place, where the reference comparison-sorts
    // members: 72 epochs at a size that crosses that threshold early and
    // stays across it.
    for seed in [3, 4] {
        let classes = [
            ClassSpec::full_stake(300, &config),
            ClassSpec::full_stake(1500, &config),
            low,
        ];
        let peak = assert_counted_churn_matches_reference(&classes, 72, seed);
        assert!(peak > 512, "peak {peak}: the key sort was not reached");
    }
}

/// The cohort backend *splits* a cohort sitting at the hysteresis edge
/// when a sampled participation pattern differentiates its members:
/// idle members keep accumulating inactivity penalties and are ejected
/// at 16.75 ETH, while the sampled half recovers — totals conserved,
/// every ejected member's effective balance at the 16-ETH ejection
/// threshold. Spec penalty semantics (penalties only in missed epochs)
/// make the recovery sharp; `base_reward_factor: 0` keeps the flat flag
/// penalties out of the arithmetic like the paper preset does.
#[test]
fn sampled_split_at_the_hysteresis_edge_ejects_only_the_idle_half() {
    let config = ChainConfig {
        paper_inactivity_penalties: false,
        ..ChainConfig::paper()
    };
    let classes = [
        ClassSpec::full_stake(2, &config),
        ClassSpec {
            count: 10,
            balance: Gwei::from_eth_u64(17),
        },
    ];
    let mut cohort = CohortState::from_classes(config, &classes);
    for _ in 0..800u64 {
        cohort.mark_class(0, ParticipationFlags::all());
        // Half of the 17-ETH class attests every epoch. The first sampled
        // call splits the cohort; afterwards the idle sub-cohort sorts
        // first in the canonical member order (lower balance/flags), so
        // marking draws `5..10` keeps the same half attesting — the
        // membership is sticky and only the idle sub-cohort decays
        // toward the 16.75-ETH edge.
        if cohort.class_stats(1).active == 10 {
            let mut i = 0u32;
            cohort.mark_class_counted(1, ParticipationFlags::all(), &mut |count| {
                (0..count)
                    .filter(|_| {
                        i += 1;
                        i > 5
                    })
                    .count() as u64
            });
        } else {
            // The idle sub-cohort has been ejected: keep the survivors
            // attesting.
            cohort.mark_class(1, ParticipationFlags::all());
        }
        cohort.advance_epoch(None);
    }
    let stats = cohort.class_stats(1);
    assert_eq!(stats.total, 10);
    assert_eq!(
        stats.exited, 5,
        "exactly the idle half must cross the ejection edge"
    );
    assert_eq!(stats.active, 5);
    // The split is visible as distinct cohorts within one class.
    assert!(cohort.num_cohorts() >= 3, "got {}", cohort.num_cohorts());
    // Survivors hold their full 17 ETH (always timely, spec semantics);
    // everyone ejected snapped to the 16-ETH effective ejection
    // threshold.
    let snap = cohort.snapshot();
    assert!(snap.classes[1].len() >= 2);
    for (m, _) in &snap.classes[1] {
        if m.has_exited_by(cohort.current_epoch()) {
            assert_eq!(m.effective_balance, Gwei::from_eth_u64(16));
        } else {
            assert!(m.balance > Gwei::from_eth_f64(16.75), "{:?}", m.balance);
        }
    }
}

/// A two-branch churn partition (the §5.3 bouncing regime) drives the
/// cohort backend and [`GroupedDense`] through the partition engine's
/// count-level draw path: both draw per cohort in canonical order, so
/// they consume the same `PreparedBinomial` count stream and agree byte
/// for byte, epoch by epoch and in the final report. The honest class
/// fragments past the 256-cohort key-sort threshold, so the cohort
/// backend's radix re-sort is on the checked path.
#[test]
fn churn_partition_keeps_cohort_and_reference_byte_identical() {
    let n = 600;
    let config = || PartitionConfig {
        stop_on_conflict: false,
        stop_on_finalization: false,
        record_every: u64::MAX,
        ..PartitionConfig::paper(n, n / 3, PartitionTimeline::two_branch_churn(0.5), 96)
    };
    let mut cohort = PartitionSim::<CohortState>::with_backend(config(), Box::new(DualActive))
        .expect("valid by construction");
    let mut reference = PartitionSim::<GroupedDense>::with_backend(config(), Box::new(DualActive))
        .expect("valid by construction");
    let mut peak = 0;
    loop {
        let more = cohort.step();
        assert_eq!(more, reference.step());
        for branch in cohort.live_branches() {
            let state = cohort.branch(branch);
            assert_eq!(
                state.snapshot(),
                reference.branch(branch).snapshot(),
                "branch {branch} at epoch {}",
                cohort.current_epoch()
            );
            let frag = state.fragmentation().expect("cohort backend");
            peak = peak.max(frag.max_cohorts_per_class);
        }
        if !more {
            break;
        }
    }
    assert!(peak > 256, "peak {peak}: the key sort was not reached");
    assert_eq!(
        serde_json::to_string(&cohort.finish()).unwrap(),
        serde_json::to_string(&reference.finish()).unwrap()
    );
}

fn flag_set(indices: &[u8]) -> ParticipationFlags {
    let mut flags = ParticipationFlags::EMPTY;
    for &index in indices {
        flags.set(index);
    }
    flags
}

#[test]
fn counted_marking_over_non_nested_flags_falls_back_to_canonicalize() {
    // Two cohorts equal up to `current_flags` — {target} < {source,
    // head} — marked with {head}: the unions swap order ({target,
    // head} > {source, head}), so the sort-free push order breaks and
    // the chunk must be re-canonicalized. The grouped dense reference,
    // which sorts members unconditionally, is the oracle.
    let classes = [ClassSpec::full_stake(12, &ChainConfig::minimal())];
    let mut cohort = CohortState::from_classes(ChainConfig::minimal(), &classes);
    let mut reference = GroupedDense::from_classes(ChainConfig::minimal(), &classes);
    let target = flag_set(&[TIMELY_TARGET_FLAG_INDEX]);
    let source_head = flag_set(&[TIMELY_SOURCE_FLAG_INDEX, TIMELY_HEAD_FLAG_INDEX]);
    let head = flag_set(&[TIMELY_HEAD_FLAG_INDEX]);
    // {∅: 12} → {∅: 6, target: 6} → {target: 6, source+head: 6} → split
    // both by 3 under {head}.
    let script: [(ParticipationFlags, &[u64]); 3] =
        [(target, &[6]), (source_head, &[6, 0]), (head, &[3, 3])];
    for (flags, draws) in script {
        let mut a = draws.iter().copied();
        let mut b = draws.iter().copied();
        cohort.mark_class_counted(0, flags, &mut |_| a.next().unwrap());
        reference.mark_class_counted(0, flags, &mut |_| b.next().unwrap());
    }
    let runs = &cohort.snapshot().classes[0];
    let current: Vec<_> = runs.iter().map(|(m, c)| (m.current_flags, *c)).collect();
    assert_eq!(
        current,
        vec![(target, 3), (source_head, 6), (target.union(head), 3)]
    );
    assert_eq!(cohort.snapshot(), reference.snapshot());
}
