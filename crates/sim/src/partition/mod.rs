//! The k-branch partition engine: epoch-level simulation of an
//! arbitrary partition **timeline**.
//!
//! The paper's evaluation assumes one static two-branch partition that
//! never heals. Real incidents are messier — partitions form, heal and
//! re-split, and more than two views can coexist. A
//! [`PartitionTimeline`] is a deterministic schedule of events over
//! named branches:
//!
//! * [`TimelineAction::Split`] forks a live branch into weighted child
//!   branches (the parent keeps the first weight's share of its honest
//!   population and its [`BranchId`]; every further weight becomes a
//!   fresh branch). A split with `churn: true` is the *churn hook*: the
//!   split population is re-sampled over the sibling branches **every
//!   epoch** (the §5.3 membership model), instead of being pinned.
//! * [`TimelineAction::Heal`] merges branches back into a surviving
//!   branch: the merged branches' honest validators re-join the
//!   survivor's chain (carrying the inactivity history the survivor's
//!   state recorded for them), and the merged branch states are dropped.
//!
//! [`PartitionTimeline::compile`] turns the event schedule into a
//! genesis **class plan**: the finest partition of the honest validator
//! population any event ever addresses becomes the set of behaviour
//! classes, so every class is homogeneous for the whole run and the
//! cohort-compressed backend keeps its O(#classes) epoch cost at a
//! million validators.
//!
//! [`PartitionSim`] moves one [`StateBackend`] per live branch through
//! each epoch with the per-branch [`kernel`] (the exact integer spec
//! arithmetic), hands every live branch's [`BranchStatus`] to a
//! [`ByzantineSchedule`], and watches **all** branch pairs for
//! conflicting finalization through [`SafetyMonitor`] — ancestry-aware,
//! so a branch forked after a heal only conflicts with checkpoints
//! outside its inherited prefix, and a healed branch's final checkpoints
//! keep convicting later conflicts.
//!
//! It is the only epoch-level simulator: the paper's partition scenarios
//! are the [`PartitionTimeline::two_branch`] and
//! [`PartitionTimeline::two_branch_churn`] timelines, and
//! [`PartitionOutcome::into_two_branch`] projects their outcome onto the
//! byte-pinned [`TwoBranchOutcome`] shape.

use std::collections::BTreeMap;

use crate::byzantine::{BranchStatus, ByzantineSchedule};
use ethpos_state::{BackendKind, CohortState, DenseState, RootLabel, StateBackend};
use ethpos_stats::seeded_rng;
use ethpos_types::{BranchId, ChainConfig};

use crate::kernel::{self, BranchEpochStats, BranchFold, BYZANTINE_CLASS};
use crate::monitor::SafetyMonitor;
use crate::pool::ChunkPool;

mod compile;
mod outcome;
mod timeline;

pub(crate) use compile::StepOp;
pub use compile::{ChurnPlan, CompiledStep, CompiledTimeline, MarkingPlan};
pub use outcome::{
    BranchOutcome, ChurnStats, EpochRecord, ForkStats, PartitionEpochRecord, PartitionOutcome,
    SafetyViolation, TwoBranchOutcome,
};
pub use timeline::{PartitionTimeline, TimelineAction, TimelineError, TimelineEvent};

/// Configuration of a partition-timeline run.
#[derive(Debug, Clone)]
pub struct PartitionConfig {
    /// Protocol constants (use [`ChainConfig::paper`] for paper numbers).
    pub chain: ChainConfig,
    /// Registry size.
    pub n: usize,
    /// Number of Byzantine validators (class 0).
    pub byzantine: usize,
    /// The partition timeline.
    pub timeline: PartitionTimeline,
    /// Epoch horizon.
    pub max_epochs: u64,
    /// RNG seed (consumed by churn groups only).
    pub seed: u64,
    /// Stop as soon as conflicting finalization is observed anywhere.
    pub stop_on_conflict: bool,
    /// Stop as soon as **any** branch finalizes a checkpoint beyond
    /// genesis.
    pub stop_on_finalization: bool,
    /// Record a full [`PartitionEpochRecord`] every `record_every`
    /// epochs (1 = every epoch).
    pub record_every: u64,
}

impl PartitionConfig {
    /// A paper-faithful configuration: stop on conflict, record every
    /// epoch, seed 0.
    pub fn paper(n: usize, byzantine: usize, timeline: PartitionTimeline, max_epochs: u64) -> Self {
        PartitionConfig {
            chain: ChainConfig::paper(),
            n,
            byzantine,
            timeline,
            max_epochs,
            seed: 0,
            stop_on_conflict: true,
            stop_on_finalization: false,
            record_every: 1,
        }
    }
}

/// Live cohorts, summed over the live branches, from which
/// [`PartitionSim::step`] advances its branches on separate threads
/// (when it has more than one). A dense branch counts one cohort per
/// registry member.
///
/// Measured on a 2-vCPU x86-64 container: a two-item
/// [`ChunkPool::map_mut`] (one scoped spawn and join) costs ≈ 45 µs, and
/// a fragmented churn epoch ≈ 130 ns per cohort, two thirds of it in the
/// advances. Two equal branches therefore break even near 1 000
/// cohorts; 2048 keeps a 2× margin, and compact epochs (the presets and
/// the paper's two-branch runs, a handful of cohorts) never pay a spawn.
const PARALLEL_ADVANCE_COHORTS: u64 = 2048;

#[derive(Debug, Clone, Default)]
struct BranchMeta {
    created_at_epoch: u64,
    healed_at_epoch: Option<u64>,
    fold: BranchFold,
    final_byzantine_balance_gwei: u64,
    final_finalized_epoch: u64,
}

/// The k-branch partition simulator, generic over the state backend.
///
/// Use [`ethpos_state::CohortState`] to run timelines at the paper's
/// true million-validator population sizes; [`DenseState`] is the
/// per-validator reference.
///
/// # Example
///
/// A 3-way split at β₀ = 0.45 where only branches 1 and 2 can reach ⅔:
/// conflicting finalization between them is detected even though the
/// genesis branch never finalizes — undetectable under the two-branch
/// era's hard-coded branch-0/branch-1 check.
///
/// ```
/// use ethpos_sim::{PartitionConfig, PartitionSim, PartitionTimeline};
/// use ethpos_types::BranchId;
/// use ethpos_sim::DualActive;
///
/// let timeline = PartitionTimeline::new()
///     .split(0, BranchId::GENESIS, &[0.2, 0.4, 0.4]);
/// let config = PartitionConfig::paper(400, 180, timeline, 40); // β0 = 0.45
/// let out = PartitionSim::new(config, Box::new(DualActive)).unwrap().run();
/// let v = out.violation.expect("branches 1 and 2 finalize conflicting");
/// assert_eq!((v.branch_a, v.branch_b), (BranchId::new(1), BranchId::new(2)));
/// assert_eq!(out.branches[0].first_finalization_epoch, None);
/// ```
pub struct PartitionSim<B: StateBackend = DenseState> {
    config: PartitionConfig,
    compiled: CompiledTimeline,
    schedule: Box<dyn ByzantineSchedule>,
    rng: rand::rngs::StdRng,
    branches: BTreeMap<BranchId, B>,
    monitor: SafetyMonitor,
    plan: MarkingPlan,
    step_idx: usize,
    epoch: u64,
    finished: bool,
    meta: Vec<BranchMeta>,
    outcome: PartitionOutcome,
    fork_stats: ForkStats,
    churn_stats: ChurnStats,
    scratch: StepScratch,
    pool: ChunkPool,
}

/// The working buffers of one [`PartitionSim::step`], an entry per live
/// branch each, cleared and refilled every epoch so that a step
/// allocates only on the epochs it records into the history (and, for
/// two small vectors, on those whose branches advance concurrently).
#[derive(Debug, Clone, Default)]
struct StepScratch {
    /// The adversary's view of each branch, read after honest marking.
    statuses: Vec<BranchStatus>,
    /// Exited `(honest, Byzantine)` members, from the same registry read.
    ejected: Vec<(u64, u64)>,
    stats: Vec<BranchEpochStats>,
    byzantine_active: Vec<bool>,
}

impl<B: StateBackend> core::fmt::Debug for PartitionSim<B> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PartitionSim")
            .field("n", &self.config.n)
            .field("byzantine", &self.config.byzantine)
            .field("epoch", &self.epoch)
            .field("live", &self.plan.live_branches())
            .finish_non_exhaustive()
    }
}

impl PartitionSim<DenseState> {
    /// Creates a simulator on the dense reference backend.
    ///
    /// # Errors
    ///
    /// Returns a [`TimelineError`] when the timeline does not compile.
    ///
    /// # Panics
    ///
    /// Panics if `byzantine > n` or `record_every == 0`.
    pub fn new(
        config: PartitionConfig,
        schedule: Box<dyn ByzantineSchedule>,
    ) -> Result<Self, TimelineError> {
        PartitionSim::with_backend(config, schedule)
    }
}

impl<B: StateBackend> PartitionSim<B> {
    /// Creates a simulator with the given Byzantine schedule on backend
    /// `B`.
    ///
    /// # Errors
    ///
    /// Returns a [`TimelineError`] when the timeline does not compile.
    ///
    /// # Panics
    ///
    /// Panics if `byzantine > n` or `record_every == 0`.
    pub fn with_backend(
        config: PartitionConfig,
        schedule: Box<dyn ByzantineSchedule>,
    ) -> Result<Self, TimelineError> {
        assert!(config.byzantine <= config.n, "byzantine > n");
        assert!(config.record_every > 0, "record_every must be positive");
        let n_honest = (config.n - config.byzantine) as u64;
        let compiled = config.timeline.compile(n_honest)?;
        let genesis: B = compiled.genesis(&config.chain, config.byzantine as u64);
        let genesis_root = genesis.finalized_checkpoint().root;
        Ok(PartitionSim {
            rng: seeded_rng(config.seed),
            config,
            compiled,
            schedule,
            branches: BTreeMap::from([(BranchId::GENESIS, genesis)]),
            monitor: SafetyMonitor::new(genesis_root, 1),
            plan: MarkingPlan::default(),
            step_idx: 0,
            epoch: 0,
            finished: false,
            meta: vec![BranchMeta::default()],
            outcome: PartitionOutcome::default(),
            fork_stats: ForkStats::default(),
            churn_stats: ChurnStats::default(),
            scratch: StepScratch::default(),
            pool: ChunkPool::new(1),
        })
    }

    /// Lets [`PartitionSim::step`] advance the live branches of an epoch
    /// on up to `threads` threads (`0` = one per hardware thread; the
    /// default is 1). Only epochs whose live branches hold at least a
    /// few thousand cohorts between them do so. Never changes a result:
    /// each advance depends only on its own branch, and every random
    /// draw stays on the calling thread in a fixed order.
    pub fn set_threads(&mut self, threads: usize) {
        self.pool = ChunkPool::new(threads);
    }

    /// Fork counters accumulated so far (see [`ForkStats`]).
    pub fn fork_stats(&self) -> ForkStats {
        self.fork_stats
    }

    /// Churn-draw counters accumulated so far (see [`ChurnStats`]).
    pub fn churn_stats(&self) -> ChurnStats {
        self.churn_stats
    }

    /// The current epoch (the next one [`PartitionSim::step`] will
    /// simulate).
    pub fn current_epoch(&self) -> u64 {
        self.epoch
    }

    /// The live branches, in id order (after the events of the current
    /// epoch once [`PartitionSim::step`] has run it).
    pub fn live_branches(&self) -> Vec<BranchId> {
        self.branches.keys().copied().collect()
    }

    /// Read access to a live branch state.
    ///
    /// # Panics
    ///
    /// Panics if the branch is retired or was never created.
    pub fn branch(&self, branch: BranchId) -> &B {
        self.branches
            .get(&branch)
            .unwrap_or_else(|| panic!("branch {branch} is not live"))
    }

    /// Publishes per-branch fragmentation gauges and (when tracing)
    /// cohorts-over-time counter events. Sampled every 64 epochs plus
    /// once at [`PartitionSim::finish`]; purely observational — reads
    /// backend state, never mutates it.
    fn record_fragmentation(&self) {
        let metrics = ethpos_obs::metrics_enabled();
        let tracing = ethpos_obs::trace_enabled();
        if !metrics && !tracing {
            return;
        }
        for (b, state) in &self.branches {
            let Some(frag) = state.fragmentation() else {
                continue;
            };
            let branch = b.as_u64().to_string();
            if metrics {
                let registry = ethpos_obs::global();
                let labels = [("branch", branch.as_str())];
                registry
                    .gauge(
                        "ethpos_cohorts",
                        "Live cohorts in the branch's compressed state.",
                        &labels,
                    )
                    .set(frag.cohorts as f64);
                registry
                    .gauge(
                        "ethpos_max_cohorts_per_class",
                        "Run peak of the largest per-class cohort count — \
                         the churn fragmentation floor in the making.",
                        &labels,
                    )
                    .set_max(frag.max_cohorts_per_class as f64);
            }
            if tracing {
                ethpos_obs::counter_event(
                    &format!("fragmentation branch {branch}"),
                    &[
                        ("cohorts", frag.cohorts as f64),
                        ("max_per_class", frag.max_cohorts_per_class as f64),
                    ],
                );
            }
        }
    }

    fn apply_ops(&mut self) {
        while self.step_idx < self.compiled.steps.len()
            && self.compiled.steps[self.step_idx].epoch == self.epoch
        {
            let step = self.compiled.steps[self.step_idx].clone();
            for op in &step.ops {
                match op {
                    StepOp::Fork { parent, children } => {
                        let base = self.branches.get(parent).expect("parent is live").clone();
                        let fork_checkpoint = base.finalized_checkpoint();
                        for &child in children {
                            let state = base.clone();
                            self.fork_stats.forks += 1;
                            self.fork_stats.fork_epoch_sum += self.epoch;
                            self.fork_stats.max_fork_epoch =
                                self.fork_stats.max_fork_epoch.max(self.epoch);
                            self.fork_stats.shared_chunks += base.shared_chunks_with(&state) as u64;
                            self.branches.insert(child, state);
                            let view = self.monitor.add_view(
                                parent.as_usize(),
                                self.epoch,
                                fork_checkpoint,
                            );
                            debug_assert_eq!(view, child.as_usize());
                            debug_assert_eq!(self.meta.len(), child.as_usize());
                            self.meta.push(BranchMeta {
                                created_at_epoch: self.epoch,
                                ..BranchMeta::default()
                            });
                        }
                    }
                    StepOp::Retire { merged, .. } => {
                        for &b in merged {
                            let state = self.branches.remove(&b).expect("merged branch is live");
                            let meta = &mut self.meta[b.as_usize()];
                            meta.healed_at_epoch = Some(self.epoch);
                            meta.final_finalized_epoch =
                                state.finalized_checkpoint().epoch.as_u64();
                            meta.final_byzantine_balance_gwei =
                                state.class_balance(BYZANTINE_CLASS).as_u64();
                        }
                    }
                }
            }
            self.plan = step.plan;
            self.step_idx += 1;
        }
    }

    /// Simulates the next epoch, or the quiet interval that starts there,
    /// applying any timeline events scheduled for its first epoch first.
    /// Returns `false` once the run is over — the horizon was reached or a
    /// stop condition fired.
    ///
    /// A step covers an interval when the plan churns nothing and the
    /// schedule names a [`Cadence`](crate::Cadence)
    /// ([`ByzantineSchedule::steady`]): every live branch advances through
    /// the first [event](StateBackend::advance_steady) on any branch, and
    /// the statuses are fixed until then, so the outcome is the one single
    /// epochs give.
    pub fn step(&mut self) -> bool {
        if self.finished || self.epoch >= self.config.max_epochs {
            self.finished = true;
            return false;
        }
        let mut span = ethpos_obs::span_with("sim", || format!("epoch {}", self.epoch));
        self.apply_ops();
        let epoch = self.epoch;
        // A step stops short of the next timeline op, record and horizon.
        let next_op = self.compiled.steps.get(self.step_idx);
        let next_record = (epoch / self.config.record_every + 1) * self.config.record_every;
        let bound = (next_op.map_or(u64::MAX, |step| step.epoch))
            .min(next_record)
            .min(self.config.max_epochs)
            - epoch;

        // 1. Per live branch in id order: `kernel::observe` — pinned
        //    classes whole, churned classes by per-cohort binomial count
        //    draws (a cohort of `c` exchangeable members contributes
        //    `Binomial(c, w_b/Σw)` attesters to branch `b`, at
        //    O(#cohorts) draws per epoch instead of O(#members)), then
        //    the adversary's view of the branch. The draw order is a pure
        //    function of the plan (branches in id order, churn groups in
        //    plan order, classes ascending, cohorts in the backend's
        //    canonical order), so outputs are byte-identical for any
        //    `--threads`.
        let plan = &self.plan;
        let branches = &mut self.branches;
        debug_assert!(plan.pinned.iter().map(|(b, _)| b).eq(branches.keys()));
        let rng = &mut self.rng;
        let churn_stats = &mut self.churn_stats;
        let StepScratch {
            statuses,
            ejected,
            stats,
            byzantine_active,
        } = &mut self.scratch;
        statuses.clear();
        ejected.clear();
        stats.clear();
        byzantine_active.clear();
        for ((b, pinned), churned) in plan.pinned.iter().zip(&plan.churned) {
            let state = branches.get_mut(b).expect("live branch");
            let (status, exited) =
                kernel::observe(state, *b, epoch, pinned, churned, |law, count| {
                    churn_stats.draws += 1;
                    churn_stats.members += count;
                    law.sample(count, rng)
                });
            statuses.push(status);
            ejected.push(exited);
        }

        // 2. Adversary decision over every live branch: a cadence on a
        //    churn-free plan, which lets the step leap (see above).
        let cadence = if plan.churn_groups().is_empty() {
            self.schedule.steady(statuses)
        } else {
            None
        };
        let choice = match cadence {
            Some(cadence) => cadence.choice(epoch),
            None => self.schedule.participate(statuses),
        };

        // 3a. Per live branch: `kernel::advance` — the Byzantine mark
        //     and the epoch transition under the label of the branch's
        //     own block, `(branch, epoch + 1)`. An advance reads only its own branch and
        //     what steps 1 and 2 left at its position, and draws nothing,
        //     so once the live branches are fragmented enough to pay for a
        //     thread (`heavy`) the advances run concurrently, each in its
        //     own trace span, and come back in branch-id order. The cohort
        //     count is read only when it can matter.
        let n = self.config.n as u64;
        let heavy = (self.pool.threads() > 1 || ethpos_obs::trace_enabled())
            && branches.len() > 1
            && branches
                .values()
                .map(|state| state.fragmentation().map_or(n, |f| f.cohorts))
                .sum::<u64>()
                >= PARALLEL_ADVANCE_COHORTS;
        let parallel = heavy && self.pool.threads() > 1;
        let advance = |position: usize, state: &mut B| {
            let status = &statuses[position];
            let _span = heavy.then(|| {
                ethpos_obs::span_with("sim", || format!("advance branch {}", status.branch))
            });
            let root = RootLabel::Branch {
                id: status.branch.as_u64(),
                epoch: epoch + 1,
            };
            let byzantine = choice.get(position);
            kernel::advance(state, status, ejected[position], byzantine, root)
        };
        //     A leap (no threads to gain by stepping) instead folds each
        //     branch's first epoch from the state it starts from (nothing
        //     moves before the last), then advances the branches together.
        let leap = cadence.filter(|_| bound > 1 && !parallel);
        let mut advanced = Vec::new();
        let epochs = match leap {
            Some(cadence) => {
                for (position, (b, _)) in plan.pinned.iter().enumerate() {
                    let (status, state, attests) =
                        (&statuses[position], &branches[b], choice.get(position));
                    let first = kernel::epoch_stats(status, ejected[position], attests, state);
                    self.meta[b.as_usize()].fold.push(epoch, &first, state);
                    stats.push(first);
                }
                let mut lanes: Vec<&mut B> = branches.values_mut().collect();
                let marks = |position: usize, epoch, class| {
                    plan.pinned[position].1.contains(&class)
                        || (class == BYZANTINE_CLASS && cadence.choice(epoch).get(position))
                };
                let labels = |position: usize, state: &B| {
                    let id = plan.pinned[position].0.as_u64();
                    let epoch = state.current_epoch().as_u64() + 1;
                    Some(RootLabel::Branch { id, epoch })
                };
                B::advance_steady(&mut lanes, marks, labels, bound)
            }
            None => {
                if parallel {
                    let mut lanes: Vec<&mut B> = branches.values_mut().collect();
                    advanced = self
                        .pool
                        .map_mut(&mut lanes, |position, state| advance(position, state));
                }
                1
            }
        };
        let last = epoch + epochs - 1;
        if epochs > 1 {
            span.rename(|| format!("epochs {epoch}..={last}"));
        }

        // 3b. Per live branch, in id order once every advance is done (a
        //     serial advance runs here, right before its own fold): fold
        //     the branch outcome (a leap's last epoch), and feed the safety
        //     monitor the branch's finalized checkpoint (checked against
        //     every branch pair — healed branches included). The monitor
        //     knows each branch's lineage from its fork, so it needs no
        //     block.
        for (position, (b, _)) in plan.pinned.iter().enumerate() {
            let state = branches.get_mut(b).expect("live branch");
            let stat = match (leap, advanced.get(position)) {
                (Some(cadence), _) => {
                    let byzantine = cadence.choice(last).get(position);
                    kernel::epoch_stats(&statuses[position], ejected[position], byzantine, state)
                }
                (None, Some(&done)) => done,
                (None, None) => advance(position, state),
            };
            self.meta[b.as_usize()].fold.push(last, &stat, state);
            match stats.get_mut(position) {
                Some(first) if epochs == 1 => *first = stat,
                Some(_) => {}
                None => stats.push(stat),
            }
            byzantine_active.push(choice.get(position));
            self.monitor.observe_backend(b.as_usize(), state);
        }
        self.outcome.epochs_run = last + 1;
        // A rotation names one branch an epoch, so only a fixed choice
        // double-votes, every epoch of its interval.
        self.outcome.double_vote_epochs += epochs * u64::from(choice.is_double_vote());
        if self.outcome.conflicting_finalization_epoch.is_none() {
            if let Some((a, b, ca, cb)) = self.monitor.violation() {
                self.outcome.conflicting_finalization_epoch = Some(last);
                self.outcome.violation = Some(SafetyViolation {
                    branch_a: BranchId::new(a as u32),
                    branch_b: BranchId::new(b as u32),
                    checkpoint_a: ca,
                    checkpoint_b: cb,
                });
            }
        }

        // 4. History.
        if epoch.is_multiple_of(self.config.record_every) {
            self.outcome.history.push(PartitionEpochRecord {
                epoch,
                branches: self.plan.live_branches(),
                stats: stats.clone(),
                byzantine_active: byzantine_active.clone(),
            });
        }

        // Fragmentation sample (observability only; every 64 epochs, and
        // once for a leap over a multiple of 64).
        if epoch.div_ceil(64) * 64 <= last {
            self.record_fragmentation();
        }

        // 5. Stop conditions.
        if self.config.stop_on_conflict && self.outcome.conflicting_finalization_epoch.is_some() {
            self.finished = true;
        }
        if self.config.stop_on_finalization
            && self
                .meta
                .iter()
                .any(|m| m.fold.first_finalization_epoch.is_some())
        {
            self.finished = true;
        }
        self.epoch = last + 1;
        if self.epoch >= self.config.max_epochs {
            self.finished = true;
        }
        !self.finished
    }

    /// Finalizes the run: captures the surviving branches' closing
    /// balances and returns the outcome.
    pub fn finish(mut self) -> PartitionOutcome {
        self.record_fragmentation();
        for (b, state) in &self.branches {
            let meta = &mut self.meta[b.as_usize()];
            meta.final_byzantine_balance_gwei = state.class_balance(BYZANTINE_CLASS).as_u64();
            meta.final_finalized_epoch = state.finalized_checkpoint().epoch.as_u64();
        }
        self.outcome.branches = self
            .meta
            .iter()
            .enumerate()
            .map(|(i, m)| BranchOutcome {
                branch: BranchId::new(i as u32),
                created_at_epoch: m.created_at_epoch,
                healed_at_epoch: m.healed_at_epoch,
                byzantine_exceeds_third_epoch: m.fold.byzantine_exceeds_third_epoch,
                max_byzantine_proportion: m.fold.max_byzantine_proportion,
                first_finalization_epoch: m.fold.first_finalization_epoch,
                byzantine_exit_epoch: m.fold.byzantine_exit_epoch,
                final_byzantine_balance_gwei: m.final_byzantine_balance_gwei,
                final_finalized_epoch: m.final_finalized_epoch,
            })
            .collect();
        self.outcome
    }

    /// Runs the simulation to completion.
    pub fn run(mut self) -> PartitionOutcome {
        let _span = ethpos_obs::span("sim", "partition run");
        while self.step() {}
        self.finish()
    }
}

/// Runs a timeline to its end on the chosen backend and returns the
/// outcome with the run's [`ForkStats`] and [`ChurnStats`]. The live
/// branches of an epoch advance on up to `threads` threads (see
/// [`PartitionSim::set_threads`]), which never changes a result.
///
/// # Errors
///
/// Returns a [`TimelineError`] when the timeline does not compile.
///
/// # Panics
///
/// Panics if `byzantine > n` or `record_every == 0`.
//
// `#[inline]` lets each calling crate compile the two monomorphized
// step loops itself. Compiled once in this crate instead, the 10⁶
// partition presets of the `paper_1m` benchmark workload ran ≈ 7 %
// slower on a 2-vCPU x86-64 container, from the same source.
#[inline]
pub fn run_partition(
    backend: BackendKind,
    config: PartitionConfig,
    schedule: Box<dyn ByzantineSchedule>,
    threads: usize,
) -> Result<(PartitionOutcome, ForkStats, ChurnStats), TimelineError> {
    fn to_end<B: StateBackend>(
        mut sim: PartitionSim<B>,
        threads: usize,
    ) -> (PartitionOutcome, ForkStats, ChurnStats) {
        sim.set_threads(threads);
        while sim.step() {}
        let (fork, churn) = (sim.fork_stats(), sim.churn_stats());
        (sim.finish(), fork, churn)
    }
    Ok(match backend {
        BackendKind::Dense => to_end(
            PartitionSim::<DenseState>::with_backend(config, schedule)?,
            threads,
        ),
        BackendKind::Cohort => to_end(
            PartitionSim::<CohortState>::with_backend(config, schedule)?,
            threads,
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byzantine::{BranchChoice, DualActive, RoundRobin, ThresholdSeeker};
    use ethpos_state::CohortState;
    use ethpos_state::StateSnapshot;
    use ethpos_types::Gwei;

    use super::compile::marginal_probabilities;

    fn b(i: u32) -> BranchId {
        BranchId::new(i)
    }

    #[test]
    fn parse_and_render_round_trip() {
        let spec = "split@0:0=0.5,0.5; heal@400:0<-1; churn@600:0=0.3,0.7";
        let t = PartitionTimeline::parse(spec).unwrap();
        assert_eq!(t.events.len(), 3);
        assert_eq!(t.render(), spec);
        assert_eq!(PartitionTimeline::parse(&t.render()).unwrap(), t);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "explode@0:0=1,1",
            "split@x:0=1,1",
            "split@0:0",
            "split@0:0=a,b",
            "heal@0:0",
            "heal@0:z<-1",
        ] {
            assert!(PartitionTimeline::parse(bad).is_err(), "`{bad}` parsed");
        }
        // `split@0:0=1` has a single weight: parses, fails to compile
        let t = PartitionTimeline::parse("split@0:0=1.0").unwrap();
        assert!(t.compile(10).is_err());
    }

    #[test]
    fn compile_matches_the_two_branch_layout() {
        // round(p0 · n_honest) on the genesis branch — the historical
        // two-branch class layout.
        let t = PartitionTimeline::two_branch(0.5);
        let c = t.compile(101).unwrap();
        assert_eq!(c.honest_classes(), &[51, 50]);
        assert_eq!(c.total_branches(), 2);
        let plan = c.steps()[0].plan();
        assert_eq!(plan.live_branches(), vec![b(0), b(1)]);
        assert_eq!(plan.pinned_classes(b(0)), Some(&[1usize][..]));
        assert_eq!(plan.pinned_classes(b(1)), Some(&[2usize][..]));
        assert!(plan.churn_groups().is_empty());
    }

    #[test]
    fn churn_split_keeps_one_honest_class() {
        let t = PartitionTimeline::two_branch_churn(0.5);
        let c = t.compile(200).unwrap();
        assert_eq!(c.honest_classes(), &[200]);
        let plan = c.steps()[0].plan();
        assert_eq!(plan.live_branches(), vec![b(0), b(1)]);
        assert_eq!(plan.pinned_classes(b(0)), Some(&[][..]));
        let group = &plan.churn_groups()[0];
        assert_eq!(group.branches, vec![b(0), b(1)]);
        assert_eq!(group.marginal, vec![0.5, 0.5]);
        assert_eq!(group.members, 200);
    }

    #[test]
    fn heal_then_resplit_reuses_the_population() {
        let t = PartitionTimeline::new()
            .split(0, b(0), &[0.5, 0.5])
            .heal(10, b(0), &[b(1)])
            .split(20, b(0), &[0.25, 0.75]);
        let c = t.compile(100).unwrap();
        // cuts at 50 (first split) and 25 (second) ⇒ classes 25|25|50
        assert_eq!(c.honest_classes(), &[25, 25, 50]);
        assert_eq!(c.total_branches(), 3);
        let healed = c.steps()[1].plan();
        assert_eq!(healed.live_branches(), vec![b(0)]);
        assert_eq!(healed.pinned_classes(b(0)), Some(&[1usize, 2, 3][..]));
        let resplit = c.steps()[2].plan();
        assert_eq!(resplit.live_branches(), vec![b(0), b(2)]);
        assert_eq!(resplit.pinned_classes(b(0)), Some(&[1usize][..]));
        assert_eq!(resplit.pinned_classes(b(2)), Some(&[2usize, 3][..]));
    }

    #[test]
    fn compile_rejects_inconsistent_timelines() {
        // split of a retired branch
        let t = PartitionTimeline::new()
            .split(0, b(0), &[0.5, 0.5])
            .heal(5, b(0), &[b(1)])
            .split(6, b(1), &[0.5, 0.5]);
        assert!(t.compile(100).is_err());
        // out-of-order events
        let t = PartitionTimeline::new()
            .split(10, b(0), &[0.5, 0.5])
            .heal(5, b(0), &[b(1)]);
        assert!(t.compile(100).is_err());
        // splitting a churning branch
        let t = PartitionTimeline::new()
            .churn(0, b(0), &[0.5, 0.5])
            .split(5, b(1), &[0.5, 0.5]);
        assert!(t.compile(100).is_err());
        // healing half a churn group away
        let t = PartitionTimeline::new()
            .split(0, b(0), &[0.5, 0.5])
            .churn(2, b(1), &[0.5, 0.5])
            .heal(5, b(0), &[b(1)]);
        assert!(t.compile(100).is_err());
        // ...but healing it as a whole is fine
        let t = PartitionTimeline::new()
            .split(0, b(0), &[0.5, 0.5])
            .churn(2, b(1), &[0.5, 0.5])
            .heal(5, b(0), &[b(1), b(2)]);
        assert!(t.compile(100).is_ok());
        // self-heal, empty heal, duplicate merge
        assert!(PartitionTimeline::new()
            .heal(0, b(0), &[b(0)])
            .compile(10)
            .is_err());
        assert!(PartitionTimeline::new()
            .heal(0, b(0), &[])
            .compile(10)
            .is_err());
        // bad weights
        assert!(PartitionTimeline::new()
            .split(0, b(0), &[0.5])
            .compile(10)
            .is_err());
        assert!(PartitionTimeline::new()
            .split(0, b(0), &[0.0, 0.0])
            .compile(10)
            .is_err());
        assert!(PartitionTimeline::new()
            .split(0, b(0), &[0.5, f64::NAN])
            .compile(10)
            .is_err());
    }

    #[test]
    fn marginal_probabilities_are_exact_for_the_two_branch_case() {
        for p0 in [0.1, 0.3, 0.5, 0.75, 0.9] {
            let marginal = marginal_probabilities(&[p0, 1.0 - p0]);
            assert_eq!(marginal[0], p0);
        }
        let marginal = marginal_probabilities(&[1.0, 1.0, 2.0]);
        assert!((marginal[0] - 0.25).abs() < 1e-12);
        assert!((marginal[1] - 0.25).abs() < 1e-12);
        assert!((marginal[2] - 0.5).abs() < 1e-12);
    }

    /// `record_every = 0` used to record epoch 0 alone (`is_multiple_of(0)`
    /// holds only at 0); it is rejected up front, like the walk engines do.
    #[test]
    #[should_panic(expected = "record_every must be positive")]
    fn zero_record_every_is_rejected_up_front() {
        let config = PartitionConfig {
            record_every: 0,
            ..PartitionConfig::paper(120, 40, PartitionTimeline::two_branch(0.5), 10)
        };
        let _ = PartitionSim::new(config, Box::new(DualActive));
    }

    /// A 3-way even split with no Byzantine validators: no branch can
    /// justify, all three leak.
    #[test]
    fn three_way_honest_split_stalls() {
        let timeline = PartitionTimeline::new().split(0, b(0), &[0.34, 0.33, 0.33]);
        let config = PartitionConfig {
            record_every: 50,
            ..PartitionConfig::paper(300, 0, timeline, 200)
        };
        let out = PartitionSim::new(config, Box::new(ThresholdSeeker::new()))
            .unwrap()
            .run();
        assert_eq!(out.conflicting_finalization_epoch, None);
        assert_eq!(out.branches.len(), 3);
        for branch in &out.branches {
            assert_eq!(branch.first_finalization_epoch, None);
        }
        let last = out.history.last().unwrap();
        assert_eq!(last.branches, vec![b(0), b(1), b(2)]);
        for stat in &last.stats {
            assert!(stat.active_ratio < 2.0 / 3.0);
        }
    }

    /// The cohort backend reproduces the dense run record-for-record on
    /// a timeline with a split, a heal and a re-split.
    #[test]
    fn cohort_matches_dense_through_heal_and_resplit() {
        let timeline = || {
            PartitionTimeline::new()
                .split(0, b(0), &[0.5, 0.5])
                .heal(60, b(0), &[b(1)])
                .split(90, b(0), &[0.3, 0.7])
        };
        let config = || PartitionConfig {
            stop_on_conflict: false,
            record_every: 10,
            ..PartitionConfig::paper(120, 40, timeline(), 150)
        };
        let dense = PartitionSim::<DenseState>::with_backend(config(), Box::new(DualActive))
            .unwrap()
            .run();
        let cohort = PartitionSim::<CohortState>::with_backend(config(), Box::new(DualActive))
            .unwrap()
            .run();
        assert_eq!(
            serde_json::to_string(&dense).unwrap(),
            serde_json::to_string(&cohort).unwrap()
        );
    }

    /// Attests position `p` at epoch `e` unless 3 divides `e + p`.
    #[derive(Debug, Clone)]
    struct EveryThirdOff;

    impl ByzantineSchedule for EveryThirdOff {
        fn participate(&mut self, status: &[BranchStatus]) -> BranchChoice {
            status
                .iter()
                .enumerate()
                .filter(|(p, s)| !(s.epoch + *p as u64).is_multiple_of(3))
                .fold(BranchChoice::NONE, |c, (p, _)| c.with(p))
        }

        fn name(&self) -> &'static str {
            "every-third-off"
        }
    }

    /// `step` keeps its per-branch observations in reused buffers and
    /// copies them into the history only on recorded epochs. Every
    /// recorded field is checked here against the branch states read
    /// from outside the step — through a late split (the branch count
    /// changes under the buffers), continuous finalization on branch 0
    /// and, with the ejection floor raised to 31 ETH, ejections from
    /// epoch ≈ 515 on — and a thinned history must be that same history
    /// with the unrecorded epochs dropped.
    fn assert_history_is_read_off_the_states<B: StateBackend>() {
        const EPOCHS: u64 = 560;
        let config = |record_every| PartitionConfig {
            chain: ChainConfig {
                ejection_balance: Gwei::from_eth_u64(31),
                ..ChainConfig::paper()
            },
            stop_on_conflict: false,
            record_every,
            ..PartitionConfig::paper(
                120,
                24,
                PartitionTimeline::new()
                    .split(0, b(0), &[0.75, 0.25])
                    .split(40, b(0), &[0.5, 0.5]),
                EPOCHS,
            )
        };
        let mut sim = PartitionSim::<B>::with_backend(config(1), Box::new(EveryThirdOff)).unwrap();
        let mut ejections_seen = false;
        for epoch in 0..EPOCHS {
            // What the step is about to observe: registry reads are
            // untouched by marking, and a child forked this epoch starts
            // as a copy of branch 0.
            let before: BTreeMap<BranchId, (u64, u64, u64, u64)> = sim
                .live_branches()
                .into_iter()
                .map(|id| {
                    let state = sim.branch(id);
                    let honest_exited = (1..state.num_classes())
                        .map(|c| state.class_stats(c).exited)
                        .sum();
                    let byz = state.class_stats(BYZANTINE_CLASS);
                    let total = state.total_active_balance().as_u64();
                    (
                        id,
                        (total, byz.active_stake.as_u64(), honest_exited, byz.exited),
                    )
                })
                .collect();
            sim.step();
            let record = sim.outcome.history.last().expect("every epoch recorded");
            assert_eq!(record.epoch, epoch);
            assert_eq!(record.branches, sim.live_branches());
            assert_eq!(record.branches.len(), if epoch < 40 { 2 } else { 3 });
            assert_eq!(record.stats.len(), record.branches.len());
            assert_eq!(record.byzantine_active.len(), record.branches.len());
            for (p, id) in record.branches.iter().enumerate() {
                let (total, byz_stake, honest_exited, byz_exited) =
                    before.get(id).copied().unwrap_or(before[&b(0)]);
                let stat = &record.stats[p];
                let context = format!("epoch {epoch} branch {id}");
                assert_eq!(
                    record.byzantine_active[p],
                    !(epoch + p as u64).is_multiple_of(3),
                    "{context}"
                );
                assert_eq!(stat.total_active_stake, total, "{context}");
                assert_eq!(
                    stat.byzantine_proportion,
                    byz_stake as f64 / total as f64,
                    "{context}"
                );
                assert_eq!(stat.ejected_honest as u64, honest_exited, "{context}");
                assert_eq!(stat.ejected_byzantine as u64, byz_exited, "{context}");
                let state = sim.branch(*id);
                let justified = state.current_justified_checkpoint().epoch.as_u64();
                assert_eq!(stat.justified_epoch, justified, "{context}");
                let finalized = state.finalized_checkpoint().epoch.as_u64();
                assert_eq!(stat.finalized_epoch, finalized, "{context}");
                ejections_seen |= honest_exited > 0;
            }
        }
        assert!(
            ejections_seen,
            "the run must reach the raised ejection floor"
        );
        let full = sim.finish();
        assert!(full.branches[0].final_finalized_epoch > 500);
        let render = |record: &PartitionEpochRecord| serde_json::to_string(record).unwrap();
        let thinned = PartitionSim::<B>::with_backend(config(7), Box::new(EveryThirdOff))
            .unwrap()
            .run();
        assert_eq!(
            thinned.history.iter().map(render).collect::<Vec<_>>(),
            full.history
                .iter()
                .step_by(7)
                .map(render)
                .collect::<Vec<_>>()
        );
    }

    /// Everything a run leaves behind: the outcome (as its JSON), both
    /// counters and every live branch's closing snapshot.
    type RunResult = (String, ForkStats, ChurnStats, Vec<StateSnapshot>);

    /// Runs `config` under [`EveryThirdOff`] with the branch advances on
    /// `threads` threads, checking each epoch's block roots. Also returns
    /// how many epochs surely advanced concurrently (given threads): two
    /// or more live branches holding [`PARALLEL_ADVANCE_COHORTS`] between
    /// them before the epoch's marking, which only ever splits cohorts.
    fn run_on_threads<B: StateBackend>(
        config: &PartitionConfig,
        threads: usize,
    ) -> (RunResult, u64) {
        let mut sim =
            PartitionSim::<B>::with_backend(config.clone(), Box::new(EveryThirdOff)).unwrap();
        sim.set_threads(threads);
        let mut concurrent = 0;
        loop {
            let live = sim.live_branches();
            let cohorts: u64 = live
                .iter()
                .map(|&id| {
                    let frag = sim.branch(id).fragmentation();
                    frag.map_or(config.n as u64, |f| f.cohorts)
                })
                .sum();
            concurrent += u64::from(live.len() > 1 && cohorts >= PARALLEL_ADVANCE_COHORTS);
            if !sim.step() {
                break;
            }
        }
        let snapshots = sim
            .live_branches()
            .into_iter()
            .map(|id| sim.branch(id).snapshot())
            .collect();
        let (fork, churn) = (sim.fork_stats(), sim.churn_stats());
        let outcome = serde_json::to_string(&sim.finish()).unwrap();
        ((outcome, fork, churn, snapshots), concurrent)
    }

    /// Advancing the live branches concurrently changes nothing: churned
    /// timelines past the engage threshold — an even and a three-way
    /// churn, and a split whose branch then churns while another heals
    /// away (so branch ids and positions part) — give the same outcome,
    /// counters and closing states at every thread count, on both
    /// backends.
    #[test]
    fn branch_parallel_advance_is_bit_identical() {
        fn check<B: StateBackend>(n: usize, epochs: u64) {
            let timelines = [
                PartitionTimeline::new().churn(0, b(0), &[0.5, 0.5]),
                PartitionTimeline::new().churn(0, b(0), &[0.2, 0.3, 0.5]),
                PartitionTimeline::new()
                    .split(0, b(0), &[0.2, 0.2, 0.6])
                    .churn(2, b(2), &[0.5, 0.5])
                    .heal(epochs / 2, b(0), &[b(1)]),
            ];
            for timeline in timelines {
                let spec = timeline.render();
                let config = PartitionConfig {
                    stop_on_conflict: false,
                    seed: 7,
                    ..PartitionConfig::paper(n, n / 5, timeline, epochs)
                };
                let (reference, concurrent) = run_on_threads::<B>(&config, 1);
                assert!(reference.2.draws > 0, "`{spec}` draws nothing");
                assert!(
                    concurrent >= epochs / 2,
                    "`{spec}`: only {concurrent} of {epochs} epochs past the threshold"
                );
                for threads in [2, 3, 8] {
                    let (run, _) = run_on_threads::<B>(&config, threads);
                    assert!(run == reference, "`{spec}` at {threads} threads");
                }
            }
        }
        check::<CohortState>(4000, 48);
        check::<DenseState>(1200, 48);
    }

    #[test]
    fn recorded_history_is_read_off_the_states_cohort() {
        assert_history_is_read_off_the_states::<CohortState>();
    }

    #[test]
    fn recorded_history_is_read_off_the_states_dense() {
        assert_history_is_read_off_the_states::<DenseState>();
    }

    /// Healing reunifies the honest population: after the heal the
    /// surviving branch sees the whole honest stake again.
    #[test]
    fn heal_restores_the_full_honest_stake() {
        let timeline = PartitionTimeline::new()
            .split(0, b(0), &[0.5, 0.5])
            .heal(8, b(0), &[b(1)]);
        let config = PartitionConfig {
            stop_on_conflict: false,
            ..PartitionConfig::paper(120, 0, timeline, 16)
        };
        let out = PartitionSim::new(config, Box::new(DualActive))
            .unwrap()
            .run();
        let first = out.history.first().unwrap();
        assert_eq!(first.branches.len(), 2);
        assert!(first.stats[0].active_ratio < 0.6);
        let last = out.history.last().unwrap();
        assert_eq!(last.branches, vec![b(0)]);
        // all honest validators attest branch 0 again: ratio snaps to 1
        assert!(last.stats[0].active_ratio > 0.99);
        assert_eq!(out.branches[1].healed_at_epoch, Some(8));
    }

    /// Post-heal ancestry: a branch that finalized while partitioned
    /// keeps convicting — when the survivor later finalizes its own
    /// chain, the violation names the healed branch.
    #[test]
    fn healed_branch_checkpoints_still_convict() {
        // β0 = 0.2, split 0.75/0.25: branch 0 (+byz) holds 0.6+0.2 = 0.8
        // ≥ 2/3 and finalizes immediately; branch 1 never does. Heal
        // branch 0 *into* branch 1's... — rather: merge branch 0 away so
        // the never-finalizing branch 1 survives, then let it finalize
        // alone (it has the whole population after the heal).
        let timeline =
            PartitionTimeline::new()
                .split(0, b(0), &[0.75, 0.25])
                .heal(12, b(1), &[b(0)]);
        let config = PartitionConfig {
            stop_on_conflict: true,
            ..PartitionConfig::paper(240, 48, timeline, 40)
        };
        let out = PartitionSim::new(config, Box::new(DualActive))
            .unwrap()
            .run();
        let v = out.violation.expect("survivor's chain conflicts");
        assert_eq!((v.branch_a, v.branch_b), (b(0), b(1)));
        assert!(out.branches[0].healed_at_epoch == Some(12));
        assert!(out.conflicting_finalization_epoch.unwrap() > 12);
    }

    /// The k-branch round-robin dwell finalizes the branches of an even
    /// 3-way split once the leak brings each to the ⅔ edge: each branch
    /// holds only ~22% honest stake, so the threshold arrives around the
    /// inactive-ejection epoch (≈ 4700) — far later than the two-branch
    /// ≈ 513, a regime the paper's analysis cannot express.
    #[test]
    fn three_way_round_robin_finalizes_conflicting_branches() {
        let timeline = PartitionTimeline::new().split(0, b(0), &[0.34, 0.33, 0.33]);
        let config = PartitionConfig {
            record_every: u64::MAX,
            ..PartitionConfig::paper(600, 198, timeline, 6000) // β0 = 0.33
        };
        let out = PartitionSim::<CohortState>::with_backend(config, Box::new(RoundRobin::new(2)))
            .unwrap()
            .run();
        let t = out
            .conflicting_finalization_epoch
            .expect("conflicting finalization across a branch pair");
        assert!(
            (4000..5800).contains(&t),
            "3-way conflict near the ejection epoch, got {t}"
        );
        assert!(out.violation.is_some());
    }

    /// A fresh schedule for a strategy id (`ethpos_core`'s
    /// `StrategyKind` ids).
    fn strategy(id: &str) -> Box<dyn ByzantineSchedule> {
        match id {
            "dual-active" => Box::new(DualActive),
            "semi-active" => Box::new(crate::byzantine::SemiActive::new()),
            "threshold-seeker" => Box::new(ThresholdSeeker::new()),
            "rotate" => Box::new(RoundRobin::new(0)),
            "rotate-dwell" => Box::new(RoundRobin::new(2)),
            other => panic!("unknown strategy {other}"),
        }
    }

    /// A violation as `(view_a, view_b, checkpoint_a, checkpoint_b)` and
    /// the epoch it was first seen at.
    type Seen = (
        Option<(
            usize,
            usize,
            ethpos_types::Checkpoint,
            ethpos_types::Checkpoint,
        )>,
        Option<u64>,
    );

    /// Runs `config` to its end on the cohort backend beside the
    /// hash-tree oracle, which is fed what the engine fed its monitor
    /// before the monitor read lineages: after each step, for every epoch
    /// `e` it covered, every live branch's block `(b, e + 1)` under that
    /// branch's tip, where a child inherits its parent's tip and
    /// finalized checkpoint at the fork. After every step (a leap moves
    /// no checkpoint before its last epoch), each live branch's justified
    /// root must be a block on
    /// its own chain: the branch labelled its blocks by its id, also
    /// where ids and positions part. Returns what the engine saw, then
    /// what the oracle saw.
    fn engine_and_oracle(config: PartitionConfig, schedule: &str) -> [Seen; 2] {
        use crate::monitor::tests::HashTreeMonitor;
        use ethpos_state::synthetic_branch_root;

        let mut sim = PartitionSim::<CohortState>::with_backend(config, strategy(schedule))
            .expect("timeline compiles");
        let genesis = sim.branch(BranchId::GENESIS).finalized_checkpoint();
        let mut oracle = HashTreeMonitor::new(genesis.root, 1);
        let mut tips = BTreeMap::from([(BranchId::GENESIS, genesis.root)]);
        let mut finalized = BTreeMap::from([(BranchId::GENESIS, genesis)]);
        let mut oracle_epoch = None;
        loop {
            let epoch = sim.current_epoch();
            for step in sim.compiled.steps.iter().filter(|s| s.epoch == epoch) {
                for op in &step.ops {
                    match op {
                        StepOp::Fork { parent, children } => {
                            for &child in children {
                                tips.insert(child, tips[parent]);
                                finalized.insert(child, finalized[parent]);
                                let view = oracle.add_view(finalized[parent]);
                                assert_eq!(view, child.as_usize());
                            }
                        }
                        StepOp::Retire { merged, .. } => {
                            for b in merged {
                                tips.remove(b);
                            }
                        }
                    }
                }
            }
            let more = sim.step();
            let Some(last) = sim
                .current_epoch()
                .checked_sub(1)
                .filter(|&last| last >= epoch)
            else {
                break; // the run had already ended
            };
            for (b, tip) in tips.iter_mut() {
                for e in epoch..=last {
                    let root = synthetic_branch_root(b.as_u64(), e + 1);
                    oracle.observe_block(root, *tip);
                    *tip = root;
                }
                let state = sim.branch(*b);
                let justified = state.current_justified_checkpoint().root;
                assert!(
                    oracle.is_on_chain(&justified, tip),
                    "branch {b} epoch {epoch}"
                );
                finalized.insert(*b, state.finalized_checkpoint());
                oracle.observe_finalized(b.as_usize(), state.finalized_checkpoint());
            }
            if oracle_epoch.is_none() && oracle.violation().is_some() {
                oracle_epoch = Some(last);
            }
            if !more {
                break;
            }
        }
        let out = sim.finish();
        let engine = out.violation.map(|v| {
            let (a, b) = (v.branch_a.as_usize(), v.branch_b.as_usize());
            (a, b, v.checkpoint_a, v.checkpoint_b)
        });
        [
            (engine, out.conflicting_finalization_epoch),
            (oracle.violation(), oracle_epoch),
        ]
    }

    /// The lineage monitor convicts exactly where the hash-tree oracle
    /// does — the same branch pair, both checkpoints, the same epoch —
    /// over the partition presets at n = 10⁶, the chaos corpus cases,
    /// hand-made split / heal / re-split timelines and seeded sampled
    /// ones.
    #[test]
    fn lineage_monitor_convicts_where_the_hash_tree_does() {
        let genesis = BranchId::GENESIS;
        let mut runs: Vec<(String, PartitionConfig, String)> = Vec::new();
        // The presets (`ethpos_core::partition::preset_scenarios`).
        let presets = [
            (
                PartitionTimeline::new().split(0, genesis, &[0.34, 0.33, 0.33]),
                "rotate-dwell",
                0.33,
                6000,
            ),
            (
                PartitionTimeline::new()
                    .split(0, genesis, &[0.5, 0.5])
                    .heal(300, genesis, &[b(1)])
                    .split(400, genesis, &[0.5, 0.5]),
                "dual-active",
                0.3,
                2600,
            ),
        ];
        for (timeline, schedule, beta0, epochs) in presets {
            let n = 1_000_000;
            let byzantine = (beta0 * n as f64).round() as usize;
            let config = PartitionConfig {
                record_every: u64::MAX,
                ..PartitionConfig::paper(n, byzantine, timeline, epochs)
            };
            runs.push((format!("preset {schedule}"), config, schedule.into()));
        }
        // The chaos corpus: every case and every original it was shrunk
        // from.
        let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/chaos");
        let mut fixtures: Vec<_> = std::fs::read_dir(corpus)
            .expect("chaos corpus")
            .map(|entry| entry.expect("corpus entry").path())
            .collect();
        fixtures.sort();
        for path in fixtures {
            let text = std::fs::read_to_string(&path).expect("fixture");
            let fixture: serde_json::Value = serde_json::from_str(&text).expect("fixture JSON");
            for key in ["case", "original"] {
                // A case shrunk from nothing has a null original.
                let Some(case) = fixture.get(key).filter(|case| case.get("n").is_some()) else {
                    continue;
                };
                let field = |name: &str| case.get(name).expect(name);
                let n = field("n").as_u64().unwrap() as usize;
                let beta0 = field("beta0").as_f64().unwrap();
                let timeline = PartitionTimeline::parse(field("timeline").as_str().unwrap())
                    .expect("corpus timeline");
                let config = PartitionConfig {
                    seed: field("engine_seed").as_u64().unwrap(),
                    record_every: u64::MAX,
                    ..PartitionConfig::paper(
                        n,
                        (beta0 * n as f64).round() as usize,
                        timeline,
                        field("max_epochs").as_u64().unwrap(),
                    )
                };
                let adversary = field("adversary").as_str().unwrap();
                let schedule = adversary.strip_prefix("strategy:").expect("a strategy");
                runs.push((format!("{path:?} {key}"), config, schedule.into()));
            }
        }
        // Hand-made timelines: splits, heals and re-splits, forks of
        // forks in one epoch, and a heal into a younger branch.
        let made = [
            "split@0:0=0.5,0.5; heal@300:0<-1; split@400:0=0.5,0.5",
            "split@0:0=0.4,0.6; split@0:1=0.5,0.5; heal@200:1<-2; split@260:1=0.5,0.5",
            "split@0:0=0.75,0.25; heal@12:1<-0",
            "split@5:0=0.3,0.3,0.4; heal@90:2<-0+1; split@120:2=0.5,0.5; split@121:3=0.5,0.5",
        ];
        for (i, spec) in made.into_iter().enumerate() {
            for (schedule, beta0) in [("dual-active", 0.3), ("rotate-dwell", 0.33)] {
                let timeline = PartitionTimeline::parse(spec).expect(spec);
                let config = PartitionConfig {
                    seed: i as u64,
                    record_every: u64::MAX,
                    ..PartitionConfig::paper(3000, (beta0 * 3000.0) as usize, timeline, 4000)
                };
                runs.push((format!("{spec} {schedule}"), config, schedule.into()));
            }
        }
        // Seeded sampled timelines, as the chaos campaign draws them.
        for seed in 0..16u64 {
            let mut rng = seeded_rng(seed);
            let timeline = crate::sample_timeline(&mut rng, 1024);
            let (schedule, beta0) = [
                ("dual-active", 0.4),
                ("rotate", 0.36),
                ("rotate-dwell", 0.33),
                ("threshold-seeker", 0.3),
            ][seed as usize % 4];
            let config = PartitionConfig {
                seed,
                record_every: u64::MAX,
                ..PartitionConfig::paper(2048, (beta0 * 2048.0) as usize, timeline, 1024)
            };
            runs.push((
                format!("sampled {seed} {schedule}"),
                config,
                schedule.into(),
            ));
        }
        let mut convicted = 0;
        for (name, config, schedule) in runs {
            let [engine, oracle] = engine_and_oracle(config, &schedule);
            assert_eq!(engine, oracle, "{name}");
            convicted += usize::from(engine.0.is_some());
        }
        assert!(convicted >= 8, "only {convicted} runs convicted");
    }
}
