//! Prefix-memoized candidate evaluation: fork shared work instead of
//! re-simulating it.
//!
//! Every candidate [`Genome`] of one search shares the same simulation
//! parameters and differs only in its participation schedule. Under the
//! fixed two-branch partition the two branch states evolve
//! **independently** given the per-branch participation bits (the only
//! coupling — conflict detection and the stop rules — is a pure function
//! of both branches' per-epoch observables), and a genome's bits on a
//! branch are a pure duty cycle until its dwell feedback (if any) first
//! triggers. [`PrefixMemo`] exploits both facts:
//!
//! * **Single-branch gene streams** — for each `(branch, DutyGene)` pair
//!   it keeps one lazily extended single-branch run and its per-epoch
//!   `EpochRec` observables. A dwell-free genome (or one whose dwell
//!   never triggers) is *reconstructed* from its two streams without
//!   ever building a two-branch simulator: every field of
//!   [`TwoBranchOutcome`] that [`score`](crate::objective) reads is a
//!   fold over the records, replayed in exactly the order the engine
//!   would have produced it.
//! * **Pair checkpoints** — for genomes whose dwell feedback triggers at
//!   epoch `T`, the first evaluation of a duty pair records a full
//!   [`TwoBranchSim`] clone frozen at `T` (the copy-on-write
//!   [`CohortState`](ethpos_state::CohortState) makes the clone a
//!   handful of `Arc` bumps). Every later dwell variant of the same pair
//!   forks that checkpoint — clone, [`TwoBranchSim::set_schedule`],
//!   continue — skipping the `T`-epoch shared prefix. The swap is exact:
//!   before the trigger a dwell schedule emits its pure duty cycle and
//!   its state machine sits in the initial `Free` state, identical for
//!   every dwell length, and the fixed-partition engine never draws from
//!   its RNG.
//!
//! Both paths are **byte-identical** to from-genesis evaluation (pinned
//! by this module's tests and the `prefix_equivalence` property tests):
//! the memo changes where the numbers come from, never the numbers.
//! [`SearchStats`] counts what was reconstructed, recorded and forked;
//! the CLI reports it through the separate `--stats-out` artifact so
//! frontier JSON stays byte-pinned.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use serde::Serialize;

use ethpos_sim::{ChunkPool, TwoBranchOutcome, TwoBranchSim};
use ethpos_state::attestations::synthetic_branch_root;
use ethpos_state::backend::{ClassSpec, StateBackend};
use ethpos_state::participation::{
    ParticipationFlags, TIMELY_HEAD_FLAG_INDEX, TIMELY_SOURCE_FLAG_INDEX, TIMELY_TARGET_FLAG_INDEX,
};

use crate::genome::{DutyGene, Genome, ParamSchedule};
use crate::objective::{initial_byzantine_gwei, score, sim_config, EvalParams, Evaluation};

/// Most pair checkpoints kept alive at once (FIFO eviction). Each holds
/// a full two-branch simulator clone; on the copy-on-write backend that
/// is small, but the cap bounds the worst case. Eviction order is
/// insertion order — a pure function of the evaluated genomes, so the
/// cache contents (and with them every counter) are thread-invariant.
const CHECKPOINT_CAP: usize = 256;

/// Work counters of one memoized search — the observability surface of
/// prefix memoization. Serialized into the CLI's `--stats-out` artifact
/// (never into frontier JSON, which is byte-pinned by the golden tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SearchStats {
    /// Candidate evaluations requested.
    pub evaluations: u64,
    /// Evaluations answered from gene streams alone (no two-branch
    /// simulator built at all).
    pub reconstructed: u64,
    /// Full runs that recorded a pair checkpoint on the way.
    pub checkpoint_records: u64,
    /// Evaluations forked from a pair checkpoint (the cache hits).
    pub checkpoint_hits: u64,
    /// Sum of the fork epochs over all checkpoint hits — with
    /// `checkpoint_hits`, the mean prefix length skipped per hit.
    pub fork_epoch_sum: u64,
    /// Deepest fork epoch of any checkpoint hit.
    pub max_fork_epoch: u64,
    /// Single-branch epochs simulated extending gene streams.
    pub stream_epochs: u64,
    /// Two-branch epochs simulated by recorders and forks (forks count
    /// only the epochs after their fork point).
    pub pair_epochs: u64,
}

impl SearchStats {
    /// Fraction of evaluations that never built a simulator or forked
    /// one mid-run (`0.0` when nothing was evaluated).
    pub fn memoized_fraction(&self) -> f64 {
        if self.evaluations == 0 {
            return 0.0;
        }
        (self.reconstructed + self.checkpoint_hits) as f64 / self.evaluations as f64
    }

    /// Renders the counters into `registry` — the end-of-run
    /// publication path. The struct itself stays the deterministic
    /// `--stats-out` source; the registry view is additive across runs.
    pub fn publish(&self, registry: &ethpos_obs::Registry) {
        for (name, help, value) in [
            (
                "ethpos_search_evaluations_total",
                "Candidate evaluations requested of the prefix memo.",
                self.evaluations,
            ),
            (
                "ethpos_search_reconstructed_total",
                "Evaluations answered from gene streams alone (no \
                 two-branch simulator built).",
                self.reconstructed,
            ),
            (
                "ethpos_search_checkpoint_records_total",
                "Full runs that recorded a pair checkpoint on the way.",
                self.checkpoint_records,
            ),
            (
                "ethpos_search_checkpoint_hits_total",
                "Evaluations forked from a pair checkpoint (cache hits).",
                self.checkpoint_hits,
            ),
            (
                "ethpos_search_stream_epochs_total",
                "Single-branch epochs simulated extending gene streams.",
                self.stream_epochs,
            ),
            (
                "ethpos_search_pair_epochs_total",
                "Two-branch epochs simulated by recorders and forks.",
                self.pair_epochs,
            ),
        ] {
            registry.counter(name, help, &[]).add(value);
        }
    }
}

/// Per-epoch observables of one single-branch gene stream — everything
/// outcome reconstruction and trigger detection read. `*_post` fields
/// are read after the epoch's `advance_epoch`, the rest before.
#[derive(Debug, Clone, Copy)]
struct EpochRec {
    /// Would the adversary's stake reach ⅔ on this branch this epoch
    /// (the dwell trigger input, pre-advance)?
    reachable: bool,
    /// Active Byzantine effective balance (pre-advance, Gwei).
    byz_active: u64,
    /// Total active effective balance (pre-advance, Gwei).
    total_active: u64,
    /// Had the whole Byzantine class exited after advancing?
    byz_all_exited_post: bool,
    /// Total actual Byzantine balance after advancing (Gwei).
    byz_balance_post: u64,
}

/// One memoized single-branch run: the branch state of a two-branch
/// simulation whose adversary follows `gene` on this branch, extended
/// lazily epoch by epoch.
#[derive(Debug, Clone)]
struct GeneStream<B: StateBackend> {
    branch: usize,
    gene: DutyGene,
    state: B,
    records: Vec<EpochRec>,
    /// First epoch with `finalized_post > 0`, once known.
    first_fin: Option<u64>,
}

impl<B: StateBackend> GeneStream<B> {
    fn new(branch: usize, gene: DutyGene, genesis: B) -> Self {
        GeneStream {
            branch,
            gene,
            state: genesis,
            records: Vec::new(),
            first_fin: None,
        }
    }

    /// Epochs simulated so far.
    fn len(&self) -> u64 {
        self.records.len() as u64
    }

    /// Runs epochs `len()..target`, mirroring the per-branch operations
    /// of [`ethpos_sim::PartitionSim::step`] in their exact order: mark
    /// the pinned honest class, read the adversary's observables, mark
    /// the Byzantine class if the duty cycle is on, advance under the
    /// branch's synthetic checkpoint root.
    fn extend_to(&mut self, target: u64, flags: ParticipationFlags) {
        let honest_class = 1 + self.branch;
        for e in self.len()..target {
            self.state.mark_class(honest_class, flags);
            let honest = self.state.current_target_balance().as_u64();
            let total = self.state.total_active_balance().as_u64();
            let byz_active = self.state.class_stats(0).active_stake.as_u64();
            let reachable = 3 * (honest as u128 + byz_active as u128) >= 2 * (total as u128);
            if self.gene.active(e) {
                self.state.mark_class(0, flags);
            }
            self.state
                .advance_epoch(Some(synthetic_branch_root(self.branch as u64, e + 1)));
            let finalized_post = self.state.finalized_checkpoint().epoch.as_u64();
            let byz = self.state.class_stats(0);
            self.records.push(EpochRec {
                reachable,
                byz_active,
                total_active: total,
                byz_all_exited_post: byz.total > 0 && byz.exited == byz.total,
                byz_balance_post: self.state.class_balance(0).as_u64(),
            });
            if self.first_fin.is_none() && finalized_post > 0 {
                self.first_fin = Some(e);
            }
        }
    }

    /// Extends until the first finalization epoch is known (or the
    /// horizon is reached) — enough to compute any pair's stop epoch.
    fn extend_until_fin(&mut self, max_epochs: u64, flags: ParticipationFlags) {
        while self.first_fin.is_none() && self.len() < max_epochs {
            let target = (self.len() + 64).min(max_epochs);
            self.extend_to(target, flags);
        }
    }
}

/// The stop analysis of one duty pair: where the engine's early-stop
/// rules end a pure-duty run of the pair, and what that run's outcome
/// reconstructs to.
#[derive(Debug, Clone)]
struct StopInfo {
    /// First epoch the dwell feedback would trigger (both branches
    /// ⅔-reachable), if it happens before the stop epoch
    /// (`outcome.epochs_run`).
    trigger: Option<u64>,
    /// The reconstructed pure-duty outcome (shared by the dwell-free
    /// genome of the pair and every dwell variant that never triggers).
    outcome: TwoBranchOutcome,
}

/// A two-branch simulator frozen at a dwell trigger epoch, ready to be
/// forked for any dwell variant of its duty pair.
#[derive(Debug, Clone)]
struct PairCheckpoint<B: StateBackend> {
    sim: TwoBranchSim<B>,
    trigger: u64,
}

/// How one genome of a batch gets its outcome.
enum Plan {
    /// Streams only: the outcome index into the pair's [`StopInfo`].
    Reconstruct([DutyGene; 2]),
    /// Result of `tasks[i]` in a simulator phase.
    Task(usize),
}

/// A unit of two-branch simulation work (phases D/E of a batch).
enum RunTask<B: StateBackend> {
    /// Run `genome` from genesis, cloning a checkpoint at `trigger`.
    Record {
        genome: Genome,
        pair: [DutyGene; 2],
        trigger: u64,
    },
    /// Fork `sim` (already cloned from the checkpoint cache) at
    /// `trigger` and continue under `genome`. Boxed so the task vector
    /// stays small — `Record` is a few words.
    Fork {
        genome: Genome,
        sim: Box<TwoBranchSim<B>>,
        trigger: u64,
    },
}

/// The memo: gene streams, pair stop analyses and pair checkpoints
/// accumulated over a search, plus the [`SearchStats`] counters.
///
/// One memo serves one [`EvalParams`]; the search driver feeds it every
/// batch through [`PrefixMemo::evaluate_batch`]. All cache mutation
/// happens on the calling thread in task order, so results **and**
/// counters are bit-identical for any worker-thread count.
pub struct PrefixMemo<B: StateBackend> {
    params: EvalParams,
    config: ethpos_sim::TwoBranchConfig,
    initial_gwei: u64,
    flags: ParticipationFlags,
    genesis: B,
    /// Equal-sized honest classes: both branches share `streams[0]`.
    symmetric: bool,
    streams: [BTreeMap<DutyGene, GeneStream<B>>; 2],
    duty_stops: BTreeMap<[DutyGene; 2], StopInfo>,
    checkpoints: BTreeMap<[DutyGene; 2], PairCheckpoint<B>>,
    checkpoint_order: VecDeque<[DutyGene; 2]>,
    stats: SearchStats,
}

impl<B: StateBackend> core::fmt::Debug for PrefixMemo<B> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PrefixMemo")
            .field("streams", &[self.streams[0].len(), self.streams[1].len()])
            .field("duty_stops", &self.duty_stops.len())
            .field("checkpoints", &self.checkpoints.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<B: StateBackend + Send + Sync> PrefixMemo<B> {
    /// Builds the memo for one search's parameters. The genesis state is
    /// constructed once and cloned per stream — the same class layout
    /// [`TwoBranchSim`] builds (class 0 Byzantine, classes 1 and 2 the
    /// honest halves of the fixed partition).
    ///
    /// # Panics
    ///
    /// Panics if `params.epochs == 0`.
    pub fn new(params: &EvalParams) -> Self {
        let config = sim_config(params);
        let initial_gwei = initial_byzantine_gwei(&config);
        let n_honest = (config.n - config.byzantine) as u64;
        let compiled = config
            .timeline()
            .compile(n_honest)
            .expect("the two-branch timeline always compiles");
        let classes: Vec<ClassSpec> = std::iter::once(config.byzantine as u64)
            .chain(compiled.honest_classes().iter().copied())
            .map(|count| ClassSpec::full_stake(count, &config.chain))
            .collect();
        let genesis = B::from_classes(config.chain.clone(), &classes);
        // At p0 = 0.5 the two honest classes are the same size, and a
        // gene's single-branch observables depend only on the marked
        // class *sizes* (the synthetic root's branch id never feeds back
        // into balances or finalization) — so both branches can share
        // one stream per gene, halving the stream work.
        let hc = compiled.honest_classes();
        let symmetric = hc.len() == 2 && hc[0] == hc[1];
        let mut flags = ParticipationFlags::EMPTY;
        flags.set(TIMELY_SOURCE_FLAG_INDEX);
        flags.set(TIMELY_TARGET_FLAG_INDEX);
        flags.set(TIMELY_HEAD_FLAG_INDEX);
        PrefixMemo {
            params: *params,
            config,
            initial_gwei,
            flags,
            genesis,
            symmetric,
            streams: [BTreeMap::new(), BTreeMap::new()],
            duty_stops: BTreeMap::new(),
            checkpoints: BTreeMap::new(),
            checkpoint_order: VecDeque::new(),
            stats: SearchStats::default(),
        }
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// The stream table `branch` reads (both branches share table 0 when
    /// the honest classes are the same size).
    fn slot(&self, branch: usize) -> usize {
        if self.symmetric {
            0
        } else {
            branch
        }
    }

    /// Evaluates a batch of candidates, byte-identical to calling
    /// [`crate::objective::evaluate`] on each, sharding the simulation
    /// work (stream extension, checkpoint recording, forked runs) over
    /// `pool`.
    pub fn evaluate_batch(&mut self, pool: &ChunkPool, genomes: &[Genome]) -> Vec<Evaluation> {
        self.stats.evaluations += genomes.len() as u64;

        // Phase A — extend every needed gene stream far enough to know
        // its first finalization epoch (the input of every stop rule).
        // The proportion objective never stops early, so its streams go
        // straight to the horizon.
        let full_horizon = !self.config.stop_on_conflict && !self.config.stop_on_finalization;
        let initial_target = if full_horizon {
            self.config.max_epochs
        } else {
            0
        };
        let pairs: BTreeSet<[DutyGene; 2]> = genomes.iter().map(|g| g.duty).collect();
        let needed: BTreeSet<(usize, DutyGene)> = pairs
            .iter()
            .flat_map(|p| [(self.slot(0), p[0]), (self.slot(1), p[1])])
            .collect();
        self.extend_streams(
            pool,
            needed.iter().map(|&(b, g)| (b, g, initial_target)),
            true,
        );

        // Phase B — per-pair stop analysis (cheap, sequential), noting
        // streams that must extend beyond their own finalization epoch
        // (the conflict rule runs until the *later* branch finalizes).
        let mut further: BTreeMap<(usize, DutyGene), u64> = BTreeMap::new();
        for &pair in &pairs {
            if self.duty_stops.contains_key(&pair) {
                continue;
            }
            let stop = self.pair_stop(pair);
            for (b, gene) in [(self.slot(0), pair[0]), (self.slot(1), pair[1])] {
                if self.streams[b][&gene].len() < stop {
                    let t = further.entry((b, gene)).or_insert(0);
                    *t = (*t).max(stop);
                }
            }
        }
        self.extend_streams(pool, further.iter().map(|(&(b, g), &t)| (b, g, t)), false);
        for &pair in &pairs {
            if !self.duty_stops.contains_key(&pair) {
                let info = self.analyze_pair(pair);
                self.duty_stops.insert(pair, info);
            }
        }

        // Phase C — classify each genome: reconstruct from streams, fork
        // an existing checkpoint, or run in full (recording a checkpoint
        // for the pair's later dwell variants). `pending` genomes wait
        // for a checkpoint recorded earlier in this same batch.
        let mut plans: Vec<Plan> = Vec::with_capacity(genomes.len());
        let mut tasks: Vec<RunTask<B>> = Vec::new();
        let mut pending: Vec<(usize, Genome, [DutyGene; 2], u64)> = Vec::new();
        let mut recording: BTreeSet<[DutyGene; 2]> = BTreeSet::new();
        for (gi, genome) in genomes.iter().enumerate() {
            let pair = genome.duty;
            let trigger = self.duty_stops[&pair].trigger;
            let plan = match (genome.dwell, trigger) {
                (0, _) | (_, None) => Plan::Reconstruct(pair),
                (_, Some(t)) => {
                    if let Some(cp) = self.checkpoints.get(&pair) {
                        self.stats.checkpoint_hits += 1;
                        self.stats.fork_epoch_sum += cp.trigger;
                        self.stats.max_fork_epoch = self.stats.max_fork_epoch.max(cp.trigger);
                        tasks.push(RunTask::Fork {
                            genome: *genome,
                            sim: Box::new(cp.sim.clone()),
                            trigger: cp.trigger,
                        });
                        Plan::Task(tasks.len() - 1)
                    } else if recording.insert(pair) {
                        tasks.push(RunTask::Record {
                            genome: *genome,
                            pair,
                            trigger: t,
                        });
                        Plan::Task(tasks.len() - 1)
                    } else {
                        pending.push((gi, *genome, pair, t));
                        Plan::Task(usize::MAX) // patched in phase E
                    }
                }
            };
            plans.push(plan);
        }

        // Phase D — recorders and ready forks in parallel; cache updates
        // in task order on this thread.
        let mut outcomes: Vec<Option<TwoBranchOutcome>> = Vec::new();
        {
            let config = &self.config;
            let results = pool.map(tasks.len(), |i| match &tasks[i] {
                RunTask::Record {
                    genome, trigger, ..
                } => {
                    let mut sim = TwoBranchSim::<B>::with_backend(
                        config.clone(),
                        Box::new(ParamSchedule::new(*genome)),
                    );
                    while sim.current_epoch() < *trigger && sim.step() {}
                    let checkpoint = sim.clone();
                    while sim.step() {}
                    (sim.finish(), Some(checkpoint))
                }
                RunTask::Fork { genome, sim, .. } => {
                    let mut sim = sim.clone();
                    sim.set_schedule(Box::new(ParamSchedule::new(*genome)));
                    while sim.step() {}
                    (sim.finish(), None)
                }
            });
            for (task, (outcome, checkpoint)) in tasks.iter().zip(results) {
                match task {
                    RunTask::Record { pair, trigger, .. } => {
                        self.stats.checkpoint_records += 1;
                        self.stats.pair_epochs += outcome.epochs_run;
                        self.insert_checkpoint(
                            *pair,
                            PairCheckpoint {
                                sim: checkpoint.expect("recorders return a checkpoint"),
                                trigger: *trigger,
                            },
                        );
                    }
                    RunTask::Fork { trigger, .. } => {
                        self.stats.pair_epochs += outcome.epochs_run - trigger;
                    }
                }
                outcomes.push(Some(outcome));
            }
        }

        // Phase E — forks that waited on a phase-D recorder. A pair
        // evicted from the cache within this very batch (> CHECKPOINT_CAP
        // pairs in one batch) falls back to a full run.
        if !pending.is_empty() {
            let mut forks: Vec<(usize, RunTask<B>)> = Vec::new();
            for &(gi, genome, pair, trigger) in &pending {
                let task = match self.checkpoints.get(&pair) {
                    Some(cp) => {
                        self.stats.checkpoint_hits += 1;
                        self.stats.fork_epoch_sum += cp.trigger;
                        self.stats.max_fork_epoch = self.stats.max_fork_epoch.max(cp.trigger);
                        RunTask::Fork {
                            genome,
                            sim: Box::new(cp.sim.clone()),
                            trigger: cp.trigger,
                        }
                    }
                    None => RunTask::Record {
                        genome,
                        pair,
                        trigger,
                    },
                };
                forks.push((gi, task));
            }
            let config = &self.config;
            let results = pool.map(forks.len(), |i| match &forks[i].1 {
                RunTask::Record { genome, .. } => {
                    let sim = TwoBranchSim::<B>::with_backend(
                        config.clone(),
                        Box::new(ParamSchedule::new(*genome)),
                    );
                    sim.run()
                }
                RunTask::Fork { genome, sim, .. } => {
                    let mut sim = sim.clone();
                    sim.set_schedule(Box::new(ParamSchedule::new(*genome)));
                    while sim.step() {}
                    sim.finish()
                }
            });
            for ((gi, task), outcome) in forks.iter().zip(results) {
                match task {
                    RunTask::Record { .. } => self.stats.pair_epochs += outcome.epochs_run,
                    RunTask::Fork { trigger, .. } => {
                        self.stats.pair_epochs += outcome.epochs_run - trigger;
                    }
                }
                outcomes.push(Some(outcome));
                plans[*gi] = Plan::Task(outcomes.len() - 1);
            }
        }

        // Phase F — assemble, in genome order.
        genomes
            .iter()
            .zip(&mut plans)
            .map(|(genome, plan)| {
                let owned;
                let outcome: &TwoBranchOutcome = match plan {
                    Plan::Reconstruct(pair) => {
                        self.stats.reconstructed += 1;
                        &self.duty_stops[pair].outcome
                    }
                    Plan::Task(i) => {
                        owned = outcomes[*i].take().expect("each task result used once");
                        &owned
                    }
                };
                score(&self.params, *genome, self.initial_gwei, outcome)
            })
            .collect()
    }

    /// Extends a set of streams in parallel (creating missing ones from
    /// the genesis template). `until_fin` additionally extends each
    /// stream until its first finalization epoch is known.
    fn extend_streams(
        &mut self,
        pool: &ChunkPool,
        targets: impl Iterator<Item = (usize, DutyGene, u64)>,
        until_fin: bool,
    ) {
        let max_epochs = self.config.max_epochs;
        let flags = self.flags;
        let mut work: Vec<GeneStream<B>> = Vec::new();
        let mut goals: Vec<u64> = Vec::new();
        for (b, gene, target) in targets {
            let stream = self.streams[b]
                .remove(&gene)
                .unwrap_or_else(|| GeneStream::new(b, gene, self.genesis.clone()));
            let done = stream.len() >= target && (!until_fin || stream.first_fin.is_some());
            if done || stream.len() >= max_epochs {
                self.streams[b].insert(gene, stream);
                continue;
            }
            work.push(stream);
            goals.push(target.min(max_epochs));
        }
        let extended = pool.map(work.len(), |i| {
            let mut s = work[i].clone();
            s.extend_to(goals[i], flags);
            if until_fin {
                s.extend_until_fin(max_epochs, flags);
            }
            s
        });
        for (old, s) in work.iter().zip(extended) {
            self.stats.stream_epochs += s.len() - old.len();
            self.streams[s.branch].insert(s.gene, s);
        }
    }

    /// The stop epoch of a pure-duty run of `pair` — where the engine's
    /// configured early-stop rules end it (`epochs_run`).
    fn pair_stop(&self, pair: [DutyGene; 2]) -> u64 {
        let max = self.config.max_epochs;
        let f0 = self.streams[self.slot(0)][&pair[0]].first_fin;
        let f1 = self.streams[self.slot(1)][&pair[1]].first_fin;
        if self.config.stop_on_finalization {
            match f0.iter().chain(f1.iter()).min() {
                Some(&f) => f + 1,
                None => max,
            }
        } else if self.config.stop_on_conflict {
            match (f0, f1) {
                (Some(a), Some(b)) => a.max(b) + 1,
                _ => max,
            }
        } else {
            max
        }
    }

    /// Reconstructs the pure-duty outcome and trigger epoch of `pair`
    /// from its two streams — field for field what
    /// [`TwoBranchSim::run`] computes, folded over the records.
    fn analyze_pair(&self, pair: [DutyGene; 2]) -> StopInfo {
        let stop = self.pair_stop(pair);
        let streams = [
            &self.streams[self.slot(0)][&pair[0]],
            &self.streams[self.slot(1)][&pair[1]],
        ];
        let fin = [streams[0].first_fin, streams[1].first_fin];
        debug_assert!(streams.iter().all(|s| s.len() >= stop));

        let trigger = (0..stop).find(|&e| {
            streams[0].records[e as usize].reachable && streams[1].records[e as usize].reachable
        });

        let conflicting_finalization_epoch = match (fin[0], fin[1]) {
            (Some(a), Some(b)) if a.max(b) < stop => Some(a.max(b)),
            _ => None,
        };
        let mut byzantine_exceeds_third_epoch = [None, None];
        let mut max_byzantine_proportion = [0.0f64; 2];
        let mut byzantine_exit_epoch = [None, None];
        for b in 0..2 {
            for e in 0..stop {
                let r = &streams[b].records[e as usize];
                let proportion = if r.total_active > 0 {
                    r.byz_active as f64 / r.total_active as f64
                } else {
                    0.0
                };
                max_byzantine_proportion[b] = max_byzantine_proportion[b].max(proportion);
                if byzantine_exceeds_third_epoch[b].is_none() && proportion > 1.0 / 3.0 {
                    byzantine_exceeds_third_epoch[b] = Some(e);
                }
                if byzantine_exit_epoch[b].is_none() && r.byz_all_exited_post {
                    byzantine_exit_epoch[b] = Some(e);
                }
            }
        }
        let outcome = TwoBranchOutcome {
            conflicting_finalization_epoch,
            byzantine_exceeds_third_epoch,
            max_byzantine_proportion,
            first_finalization_epoch: [fin[0].filter(|&f| f < stop), fin[1].filter(|&f| f < stop)],
            byzantine_exit_epoch,
            final_byzantine_balance_gwei: [
                streams[0].records[stop as usize - 1].byz_balance_post,
                streams[1].records[stop as usize - 1].byz_balance_post,
            ],
            double_vote_epochs: (0..stop)
                .filter(|&e| pair[0].active(e) && pair[1].active(e))
                .count() as u64,
            history: Vec::new(),
            epochs_run: stop,
        };
        StopInfo { trigger, outcome }
    }

    fn insert_checkpoint(&mut self, pair: [DutyGene; 2], checkpoint: PairCheckpoint<B>) {
        if self.checkpoints.insert(pair, checkpoint).is_none() {
            self.checkpoint_order.push_back(pair);
            if self.checkpoint_order.len() > CHECKPOINT_CAP {
                let evicted = self.checkpoint_order.pop_front().expect("non-empty");
                self.checkpoints.remove(&evicted);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{evaluate, Objective};
    use ethpos_state::{BackendKind, CohortState, DenseState};

    fn params(objective: Objective) -> EvalParams {
        EvalParams {
            n: 120,
            beta0: 1.0 / 3.0,
            p0: 0.5,
            epochs: 60,
            backend: BackendKind::Cohort,
            objective,
        }
    }

    fn assert_batch_matches_plain<B: StateBackend + Send + Sync>(
        params: &EvalParams,
        genomes: &[Genome],
    ) -> SearchStats {
        let pool = ChunkPool::new(1);
        let mut memo = PrefixMemo::<B>::new(params);
        let memoized = memo.evaluate_batch(&pool, genomes);
        for (genome, got) in genomes.iter().zip(&memoized) {
            let want = evaluate(params, *genome);
            assert_eq!(
                serde_json::to_string(got).unwrap(),
                serde_json::to_string(&want).unwrap(),
                "genome {}",
                genome.label()
            );
        }
        memo.stats()
    }

    #[test]
    fn corners_match_plain_evaluation_on_both_backends() {
        let genomes = [
            Genome::THRESHOLD_SEEKER,
            Genome::DUAL_ACTIVE,
            Genome::SEMI_ACTIVE,
        ];
        for objective in Objective::all() {
            let p = params(objective);
            let dense = assert_batch_matches_plain::<DenseState>(&p, &genomes);
            let cohort = assert_batch_matches_plain::<CohortState>(&p, &genomes);
            assert_eq!(dense, cohort, "{objective:?} counters");
        }
    }

    #[test]
    fn dwell_variants_fork_one_checkpoint() {
        // β0 = ⅓ makes ⅔ reachable immediately: every dwell variant of
        // the alternation pair triggers and the first one records the
        // pair checkpoint for the rest.
        let genomes: Vec<Genome> = (0..=4u8)
            .map(|dwell| Genome {
                duty: Genome::THRESHOLD_SEEKER.duty,
                dwell,
            })
            .collect();
        let stats =
            assert_batch_matches_plain::<CohortState>(&params(Objective::Conflict), &genomes);
        assert_eq!(stats.evaluations, 5);
        assert_eq!(stats.reconstructed, 1, "dwell 0 reconstructs");
        assert_eq!(stats.checkpoint_records, 1, "first dwell variant records");
        assert_eq!(stats.checkpoint_hits, 3, "remaining variants fork");
    }

    #[test]
    fn second_batch_hits_the_caches() {
        let pool = ChunkPool::new(1);
        let p = params(Objective::Conflict);
        let genomes = [Genome::THRESHOLD_SEEKER, Genome::SEMI_ACTIVE];
        let mut memo = PrefixMemo::<CohortState>::new(&p);
        let first = memo.evaluate_batch(&pool, &genomes);
        let streamed = memo.stats().stream_epochs;
        let second = memo.evaluate_batch(&pool, &genomes);
        assert_eq!(memo.stats().stream_epochs, streamed, "streams are reused");
        assert_eq!(memo.stats().checkpoint_records, 1);
        assert_eq!(memo.stats().checkpoint_hits, 1, "second batch forks");
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap()
            );
        }
    }

    #[test]
    fn untriggered_dwell_reuses_the_duty_reconstruction() {
        // β0 = 0.2: ⅔ is never reachable on an even split, so dwell
        // schedules never leave their duty cycles.
        let p = EvalParams {
            beta0: 0.2,
            ..params(Objective::Conflict)
        };
        let stats = assert_batch_matches_plain::<CohortState>(
            &p,
            &[Genome::THRESHOLD_SEEKER, Genome::SEMI_ACTIVE],
        );
        assert_eq!(stats.reconstructed, 2);
        assert_eq!(stats.checkpoint_records, 0);
    }

    #[test]
    fn stats_fraction_and_fork_depth_accumulate() {
        let mut stats = SearchStats::default();
        assert_eq!(stats.memoized_fraction(), 0.0);
        stats.evaluations = 8;
        stats.reconstructed = 4;
        stats.checkpoint_hits = 2;
        assert_eq!(stats.memoized_fraction(), 0.75);
    }
}
