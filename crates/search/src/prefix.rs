//! Prefix-memoized candidate evaluation: continue from shared work
//! instead of re-simulating it.
//!
//! Every candidate [`Genome`] of one search shares the same simulation
//! parameters and differs only in its participation schedule. Under the
//! fixed two-branch partition the two branch states evolve
//! **independently** given the per-branch participation bits (the only
//! coupling — conflict detection and the stop rules — is a pure function
//! of both branches' per-epoch observables), and a genome's bits on a
//! branch are a pure duty cycle until its dwell feedback (if any) first
//! triggers. [`PrefixMemo`] exploits both facts, and never builds a
//! two-branch simulator:
//!
//! * **Single-branch gene streams** — for each `(branch, DutyGene)` pair
//!   it keeps one lazily extended single-branch run, the branch's running
//!   [`BranchFold`], the per-epoch `EpochRec` observables the fold does
//!   not keep, and a snapshot of the state entering every 256th epoch
//!   (`SNAPSHOT_STRIDE`). A dwell-free genome (or one whose dwell never
//!   triggers) is *reconstructed* from its two streams: its
//!   [`TwoBranchOutcome`] is both streams' folds cut at the pair's stop
//!   epoch, plus the pair's double-vote count (`OutcomeFold`).
//! * **Pair checkpoints and continuations** — for genomes whose dwell
//!   feedback triggers at epoch `T`, the first evaluation of a duty pair
//!   rebuilds the two branch states entering `T` from its streams'
//!   snapshots (fewer than `SNAPSHOT_STRIDE` pure-duty re-steps each)
//!   and caches them. Every dwell variant of the pair *continues* from a
//!   clone of those states (a handful of `Arc` bumps on the
//!   copy-on-write [`CohortState`](ethpos_state::CohortState)) under a
//!   fresh [`ParamSchedule`], folding its epochs onto the pair's stream
//!   folds cut at `T`. The hand-over is exact: before the trigger a
//!   dwell schedule emits its pure duty cycle and its state machine sits
//!   in the initial `Free` state, identical for every dwell length, and
//!   the fixed-partition engine never draws from its RNG.
//!
//! Streams and continuations move their branches with the per-branch
//! [`kernel`] (observe → decide → advance → fold), the functions
//! [`ethpos_sim::PartitionSim::step`] composes too. What is the memo's
//! own is the snapshots, the fold cut at the trigger, and the stop
//! rules: conflict is "both branches have finalized", and the early
//! stops are the engine's. Branch checkpoints are labelled
//! `Root::from_u64(epoch + 1)` rather than with the engine's hashed
//! synthetic roots: no outcome field carries a root, and a stream
//! shared by both branches of a symmetric split never had a meaningful
//! branch id to hash.
//!
//! Both paths are **byte-identical** to from-genesis evaluation
//! ([`evaluate`](crate::objective::evaluate), one full two-branch
//! `PartitionSim` run — the independent oracle, pinned by this module's
//! tests and the `prefix_equivalence` property tests): the memo changes
//! where the numbers come from, never the numbers. [`SearchStats`]
//! counts what was reconstructed, recorded and continued; the CLI
//! reports it through the separate `--stats-out` artifact so frontier
//! JSON stays byte-pinned.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Mutex;

use serde::Serialize;

use ethpos_sim::kernel::{self, BranchEpochStats, BranchFold, BYZANTINE_CLASS};
use ethpos_sim::{ByzantineSchedule, ChunkPool, PartitionConfig, TwoBranchOutcome};
use ethpos_state::{RootLabel, StateBackend};
use ethpos_types::{BranchId, Root};

use crate::genome::{DutyGene, Genome, ParamSchedule};
use crate::objective::{initial_byzantine_gwei, score, sim_config, EvalParams, Evaluation};

/// Most pair checkpoints kept alive at once (FIFO eviction). Each holds
/// two branch states; on the copy-on-write backend that is small, but
/// the cap bounds the worst case. Eviction order is insertion order — a
/// pure function of the evaluated genomes, so the cache contents (and
/// with them every counter) are thread-invariant.
const CHECKPOINT_CAP: usize = 256;

/// A gene stream keeps the state entering every `SNAPSHOT_STRIDE`-th
/// epoch, so the state entering any epoch it has run is at most
/// `SNAPSHOT_STRIDE − 1` pure-duty re-steps away (32 snapshots over the
/// default 8192-epoch horizon).
const SNAPSHOT_STRIDE: u64 = 256;

/// Work counters of one memoized search — the observability surface of
/// prefix memoization. Serialized into the CLI's `--stats-out` artifact
/// (never into frontier JSON, which is byte-pinned by the golden tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SearchStats {
    /// Candidate evaluations requested.
    pub evaluations: u64,
    /// Evaluations answered from gene-stream records alone (no epoch
    /// simulated for the candidate itself).
    pub reconstructed: u64,
    /// Evaluations that built their pair's checkpoint (the two branch
    /// states entering the trigger epoch) before continuing from it.
    pub checkpoint_records: u64,
    /// Evaluations continued from a cached pair checkpoint (the cache
    /// hits).
    pub checkpoint_hits: u64,
    /// Sum of the trigger epochs over all checkpoint hits — with
    /// `checkpoint_hits`, the mean prefix length skipped per hit.
    pub fork_epoch_sum: u64,
    /// Deepest trigger epoch of any checkpoint hit.
    pub max_fork_epoch: u64,
    /// Single-branch epochs simulated: gene-stream extension plus the
    /// pure-duty re-steps from a stream snapshot to a trigger epoch
    /// (fewer than 256 per branch and checkpoint built).
    pub stream_epochs: u64,
    /// Two-branch epochs simulated by continuations: the epochs from the
    /// trigger on, for checkpoint records and hits alike. Nothing below
    /// a trigger is ever simulated pairwise.
    pub pair_epochs: u64,
}

/// Per-epoch observables of one stream that its running [`BranchFold`]
/// does not keep — what trigger detection and cutting the fold at any
/// epoch read.
#[derive(Debug, Clone, Copy)]
struct EpochRec {
    /// Would the adversary's stake reach ⅔ on this branch this epoch
    /// (the dwell trigger input, read before the advance)?
    reachable: bool,
    /// The fold's running maximum Byzantine proportion after this epoch.
    max_byzantine_proportion: f64,
    /// Total actual Byzantine balance after this epoch (Gwei).
    byz_balance: u64,
}

/// The memo's checkpoint root for the advance of `epoch` — the label of
/// epoch `epoch + 1`'s checkpoint.
fn label(epoch: u64) -> RootLabel {
    Root::from_u64(epoch + 1).into()
}

/// One pure-duty epoch of a single branch state — the only way a gene
/// stream's state (or a copy re-stepped from one of its snapshots)
/// moves. Returns whether ⅔ was reachable, and the epoch's stats.
fn duty_step<B: StateBackend>(
    gene: DutyGene,
    state: &mut B,
    epoch: u64,
    honest: &[usize],
) -> (bool, BranchEpochStats) {
    let (status, ejected) = kernel::observe(state, BranchId::GENESIS, epoch, honest, &[], |_, _| 0);
    let stats = kernel::advance(state, &status, ejected, gene.active(epoch), label(epoch));
    (status.two_thirds_reachable(), stats)
}

/// A pair's outcome so far: both branches' folds plus the pair-level
/// counts. Reconstruction cuts it from the two streams at the pair's
/// stop epoch; a dwell continuation starts from the cut at its trigger
/// and pushes its own epochs from there on.
#[derive(Debug, Clone, Copy)]
struct OutcomeFold {
    branches: [BranchFold; 2],
    double_vote_epochs: u64,
    epochs_run: u64,
}

impl OutcomeFold {
    fn first_fin(&self) -> [Option<u64>; 2] {
        self.branches.map(|f| f.first_finalization_epoch)
    }

    fn finish(self, final_byzantine_balance_gwei: [u64; 2]) -> TwoBranchOutcome {
        TwoBranchOutcome::from_folds(
            conflict_epoch(self.first_fin()),
            self.branches,
            final_byzantine_balance_gwei,
            self.double_vote_epochs,
            Vec::new(),
            self.epochs_run,
        )
    }
}

/// The epoch of conflicting finalization, given each branch's first
/// finalization epoch: both branches fork from genesis at epoch 0, so
/// any two checkpoints finalized beyond it conflict.
fn conflict_epoch(first_fin: [Option<u64>; 2]) -> Option<u64> {
    match first_fin {
        [Some(a), Some(b)] => Some(a.max(b)),
        _ => None,
    }
}

/// The epoch whose finalizations end a run under the engine's
/// configured early-stop rules, given each branch's first finalization
/// epoch so far (`None`: the run goes on, to the horizon if need be).
fn stop_epoch(config: &PartitionConfig, first_fin: [Option<u64>; 2]) -> Option<u64> {
    if config.stop_on_finalization {
        first_fin.into_iter().flatten().min()
    } else if config.stop_on_conflict {
        conflict_epoch(first_fin)
    } else {
        None
    }
}

/// One memoized single-branch run: the branch state of a two-branch
/// simulation whose adversary follows `gene` on this branch, extended
/// lazily epoch by epoch.
#[derive(Debug)]
struct GeneStream<B: StateBackend> {
    /// The stream table this run lives in (see [`PrefixMemo::slot`]).
    branch: usize,
    gene: DutyGene,
    /// The honest classes pinned to this branch, marked every epoch.
    honest: Vec<usize>,
    state: B,
    records: Vec<EpochRec>,
    /// The branch's fold over every epoch run so far.
    fold: BranchFold,
    /// `snapshots[k]` is the state entering epoch `k · stride`.
    snapshots: Vec<B>,
    stride: u64,
}

impl<B: StateBackend> GeneStream<B> {
    fn new(branch: usize, gene: DutyGene, honest: Vec<usize>, genesis: B, stride: u64) -> Self {
        GeneStream {
            branch,
            gene,
            honest,
            snapshots: vec![genesis.clone()],
            state: genesis,
            records: Vec::new(),
            fold: BranchFold::default(),
            stride,
        }
    }

    /// Epochs simulated so far.
    fn len(&self) -> u64 {
        self.records.len() as u64
    }

    /// Runs epochs `len()..target`.
    fn extend_to(&mut self, target: u64) {
        for e in self.len()..target {
            let (reachable, stats) = duty_step(self.gene, &mut self.state, e, &self.honest);
            self.fold.push(e, &stats, &self.state);
            self.records.push(EpochRec {
                reachable,
                max_byzantine_proportion: self.fold.max_byzantine_proportion,
                byz_balance: self.state.class_balance(BYZANTINE_CLASS).as_u64(),
            });
            if (e + 1) % self.stride == 0 {
                self.snapshots.push(self.state.clone());
            }
        }
    }

    /// Extends until the first finalization epoch is known (or the
    /// horizon is reached) — enough to compute any pair's stop epoch.
    fn extend_until_fin(&mut self, max_epochs: u64) {
        while self.fold.first_finalization_epoch.is_none() && self.len() < max_epochs {
            let target = (self.len() + 64).min(max_epochs);
            self.extend_to(target);
        }
    }

    /// The fold over the epochs below `end ≤ len()`: the first epochs
    /// from `end` on dropped, the running maximum as it stood at `end`.
    fn fold_before(&self, end: u64) -> BranchFold {
        let before = |first: Option<u64>| first.filter(|&e| e < end);
        BranchFold {
            byzantine_exceeds_third_epoch: before(self.fold.byzantine_exceeds_third_epoch),
            max_byzantine_proportion: end.checked_sub(1).map_or(0.0, |last| {
                self.records[last as usize].max_byzantine_proportion
            }),
            first_finalization_epoch: before(self.fold.first_finalization_epoch),
            byzantine_exit_epoch: before(self.fold.byzantine_exit_epoch),
        }
    }

    /// The state entering `epoch ≤ len()`: the nearest snapshot at or
    /// below it, re-stepped under the duty cycle.
    fn state_at(&self, epoch: u64) -> B {
        let from = epoch / self.stride;
        let mut state = self.snapshots[from as usize].clone();
        for e in from * self.stride..epoch {
            duty_step(self.gene, &mut state, e, &self.honest);
        }
        state
    }
}

/// The first epoch a pair's dwell feedback triggers (both branches
/// ⅔-reachable), and the pair's outcome fold over the epochs below it —
/// where every dwell variant's continuation starts.
#[derive(Debug, Clone, Copy)]
struct Trigger {
    epoch: u64,
    prefix: OutcomeFold,
}

/// The stop analysis of one duty pair: where the engine's early-stop
/// rules end a pure-duty run of the pair, and what that run's outcome
/// reconstructs to.
#[derive(Debug)]
struct StopInfo {
    /// The dwell trigger, if one comes before the stop epoch
    /// (`outcome.epochs_run`).
    trigger: Option<Trigger>,
    /// The reconstructed pure-duty outcome (shared by the dwell-free
    /// genome of the pair and every dwell variant that never triggers).
    outcome: TwoBranchOutcome,
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
    config: PartitionConfig,
    initial_gwei: u64,
    genesis: B,
    /// Per branch, the state classes the compiled plan pins to it.
    honest: [Vec<usize>; 2],
    /// Equal-sized honest classes: both branches share `streams[0]`.
    symmetric: bool,
    /// [`SNAPSHOT_STRIDE`] (tests shorten it).
    stride: u64,
    streams: [BTreeMap<DutyGene, GeneStream<B>>; 2],
    duty_stops: BTreeMap<[DutyGene; 2], StopInfo>,
    /// Per pair, the two branch states entering its trigger epoch.
    checkpoints: BTreeMap<[DutyGene; 2], [B; 2]>,
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
    /// the compiled two-branch timeline's, built once and cloned per
    /// stream.
    ///
    /// # Panics
    ///
    /// Panics if `params.epochs == 0`.
    pub fn new(params: &EvalParams) -> Self {
        let config = sim_config(params);
        let initial_gwei = initial_byzantine_gwei(&config);
        let n_honest = (config.n - config.byzantine) as u64;
        let compiled = config
            .timeline
            .compile(n_honest)
            .expect("the two-branch timeline always compiles");
        let genesis = compiled.genesis(&config.chain, config.byzantine as u64);
        // The compiler elides empty classes (a lone honest validator, or
        // none at all), so which classes a branch marks comes from the
        // compiled plan, never from the branch id.
        let plan = compiled.steps()[0].plan();
        let honest = [0, 1].map(|b| {
            plan.pinned_classes(BranchId::new(b))
                .expect("the epoch-0 split makes both branches live")
                .to_vec()
        });
        // When both branches pin classes of the same sizes (p0 = 0.5 on
        // an even honest count), a gene's single-branch observables are
        // the same on either — they depend only on the marked class
        // *sizes* — so both branches can share one stream per gene,
        // halving the stream work.
        let sizes = compiled.honest_classes();
        let pinned_sizes = |b: usize| honest[b].iter().map(|&c| sizes[c - 1]).collect::<Vec<_>>();
        let symmetric = pinned_sizes(0) == pinned_sizes(1);
        PrefixMemo {
            params: *params,
            config,
            initial_gwei,
            genesis,
            honest,
            symmetric,
            stride: SNAPSHOT_STRIDE,
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

    /// The streams standing in for the two branches of `pair`.
    fn pair_streams(&self, pair: [DutyGene; 2]) -> [&GeneStream<B>; 2] {
        [0, 1].map(|b| &self.streams[self.slot(b)][&pair[b]])
    }

    /// Evaluates a batch of candidates, byte-identical to calling
    /// [`crate::objective::evaluate`] on each, sharding the simulation
    /// work (stream extension, checkpoint building, continuations) over
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

        // Phase C — classify each genome: reconstructed from its streams,
        // or a dwell variant to continue from its pair's checkpoint;
        // note the pairs whose checkpoint is not cached, in first-use
        // order.
        let runs: Vec<usize> = (0..genomes.len())
            .filter(|&gi| genomes[gi].dwell > 0 && self.trigger(genomes[gi].duty).is_some())
            .collect();
        let mut missing: Vec<[DutyGene; 2]> = Vec::new();
        for &gi in &runs {
            let pair = genomes[gi].duty;
            if !self.checkpoints.contains_key(&pair) && !missing.contains(&pair) {
                missing.push(pair);
            }
        }

        // Phase D — build the missing checkpoints, then run every
        // continuation from a clone of its pair's, both in parallel.
        let this = &*self;
        let built = pool.map(missing.len(), |i| this.build_checkpoint(missing[i]));
        let mut fresh: BTreeMap<[DutyGene; 2], [B; 2]> =
            missing.iter().copied().zip(built).collect();
        let outcomes = pool.map(runs.len(), |i| {
            let genome = genomes[runs[i]];
            let checkpoint = fresh
                .get(&genome.duty)
                .unwrap_or_else(|| &this.checkpoints[&genome.duty]);
            this.continue_from(checkpoint.clone(), genome)
        });

        // Phase E — count the work and cache the new checkpoints, on
        // this thread in genome order: a pair's first dwell variant
        // built its checkpoint, every other one hit the cache.
        let mut outcome_of: Vec<Option<&TwoBranchOutcome>> = vec![None; genomes.len()];
        for (&gi, outcome) in runs.iter().zip(&outcomes) {
            outcome_of[gi] = Some(outcome);
            let pair = genomes[gi].duty;
            let trigger = self.trigger(pair).expect("only triggered pairs run").epoch;
            self.stats.pair_epochs += outcome.epochs_run - trigger;
            if let Some(states) = fresh.remove(&pair) {
                self.stats.checkpoint_records += 1;
                // `state_at`'s re-steps, on both branches.
                self.stats.stream_epochs += 2 * (trigger % self.stride);
                self.insert_checkpoint(pair, states);
            } else {
                self.stats.checkpoint_hits += 1;
                self.stats.fork_epoch_sum += trigger;
                self.stats.max_fork_epoch = self.stats.max_fork_epoch.max(trigger);
            }
        }

        // Phase F — score, in genome order.
        genomes
            .iter()
            .zip(outcome_of)
            .map(|(genome, outcome)| {
                let outcome = outcome.unwrap_or_else(|| {
                    self.stats.reconstructed += 1;
                    &self.duty_stops[&genome.duty].outcome
                });
                score(&self.params, *genome, self.initial_gwei, outcome)
            })
            .collect()
    }

    /// Extends a set of streams in parallel (creating missing ones from
    /// the genesis template), each moved into its task and back.
    /// `until_fin` additionally extends each stream until its first
    /// finalization epoch is known.
    fn extend_streams(
        &mut self,
        pool: &ChunkPool,
        targets: impl Iterator<Item = (usize, DutyGene, u64)>,
        until_fin: bool,
    ) {
        let max_epochs = self.config.max_epochs;
        // Each stream sits in a cell until its task takes it.
        let mut work: Vec<Mutex<Option<GeneStream<B>>>> = Vec::new();
        let mut goals: Vec<u64> = Vec::new();
        for (b, gene, target) in targets {
            let stream = self.streams[b].remove(&gene).unwrap_or_else(|| {
                let honest = self.honest[b].clone();
                GeneStream::new(b, gene, honest, self.genesis.clone(), self.stride)
            });
            let done = stream.len() >= target
                && (!until_fin || stream.fold.first_finalization_epoch.is_some());
            if done || stream.len() >= max_epochs {
                self.streams[b].insert(gene, stream);
                continue;
            }
            work.push(Mutex::new(Some(stream)));
            goals.push(target.min(max_epochs));
        }
        let extended = pool.map(work.len(), |i| {
            let mut s = work[i]
                .lock()
                .expect("no task panics holding the lock")
                .take()
                .expect("each task index runs once");
            let before = s.len();
            s.extend_to(goals[i]);
            if until_fin {
                s.extend_until_fin(max_epochs);
            }
            let grown = s.len() - before;
            (s, grown)
        });
        for (s, grown) in extended {
            self.stats.stream_epochs += grown;
            self.streams[s.branch].insert(s.gene, s);
        }
    }

    /// The stop epoch of a pure-duty run of `pair` — where the engine's
    /// configured early-stop rules end it (`epochs_run`).
    fn pair_stop(&self, pair: [DutyGene; 2]) -> u64 {
        let first_fin = self
            .pair_streams(pair)
            .map(|s| s.fold.first_finalization_epoch);
        stop_epoch(&self.config, first_fin).map_or(self.config.max_epochs, |f| f + 1)
    }

    /// Reconstructs the pure-duty outcome of `pair` from its two
    /// streams, noting the trigger epoch (and the fold below it) on the
    /// way.
    fn analyze_pair(&self, pair: [DutyGene; 2]) -> StopInfo {
        let stop = self.pair_stop(pair);
        let streams = self.pair_streams(pair);
        debug_assert!(streams.iter().all(|s| s.len() >= stop));
        let fold_before = |end: u64| OutcomeFold {
            branches: streams.map(|s| s.fold_before(end)),
            double_vote_epochs: (0..end)
                .filter(|&e| pair[0].active(e) && pair[1].active(e))
                .count() as u64,
            epochs_run: end,
        };
        let trigger = (0..stop)
            .find(|&e| streams.iter().all(|s| s.records[e as usize].reachable))
            .map(|epoch| Trigger {
                epoch,
                prefix: fold_before(epoch),
            });
        let last = stop as usize - 1;
        StopInfo {
            trigger,
            outcome: fold_before(stop).finish(streams.map(|s| s.records[last].byz_balance)),
        }
    }

    /// The dwell trigger of an analyzed `pair`.
    fn trigger(&self, pair: [DutyGene; 2]) -> Option<&Trigger> {
        self.duty_stops[&pair].trigger.as_ref()
    }

    /// The checkpoint of a triggered `pair`: the two branch states
    /// entering its trigger epoch, rebuilt from its streams' snapshots.
    fn build_checkpoint(&self, pair: [DutyGene; 2]) -> [B; 2] {
        let at = self.trigger(pair).expect("only triggered pairs run").epoch;
        self.pair_streams(pair).map(|s| s.state_at(at))
    }

    /// Continues `genome`'s pair from its checkpoint `states` under the
    /// genome's full schedule, until the engine's stop rules (or the
    /// horizon) end the run.
    fn continue_from(&self, mut states: [B; 2], genome: Genome) -> TwoBranchOutcome {
        let start = self.trigger(genome.duty).expect("only triggered pairs run");
        let honest = self.pair_streams(genome.duty).map(|s| s.honest.as_slice());
        let mut schedule = ParamSchedule::new(genome);
        let mut fold = start.prefix;
        for e in start.epoch..self.config.max_epochs {
            let seen: [_; 2] = core::array::from_fn(|b| {
                let branch = BranchId::new(b as u32);
                kernel::observe(&mut states[b], branch, e, honest[b], &[], |_, _| 0)
            });
            let choice = schedule.participate(&seen.map(|(status, _)| status));
            for (b, (status, ejected)) in seen.iter().enumerate() {
                let stats =
                    kernel::advance(&mut states[b], status, *ejected, choice.get(b), label(e));
                fold.branches[b].push(e, &stats, &states[b]);
            }
            fold.double_vote_epochs += u64::from(choice.is_double_vote());
            fold.epochs_run = e + 1;
            if stop_epoch(&self.config, fold.first_fin()).is_some() {
                break;
            }
        }
        fold.finish(
            states
                .each_ref()
                .map(|s| s.class_balance(BYZANTINE_CLASS).as_u64()),
        )
    }

    fn insert_checkpoint(&mut self, pair: [DutyGene; 2], states: [B; 2]) {
        if self.checkpoints.insert(pair, states).is_none() {
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

    /// The snapshot strides every memo ≡ `evaluate()` comparison runs
    /// at. The last two put the `late_trigger` params' trigger epoch
    /// *just after* a snapshot (one re-step) and *just before* one (the
    /// longest re-step run, from genesis); at strides 1, 2 and 7 it
    /// lands *on* a snapshot (518 = 2 · 7 · 37), at 64 and 256 six past.
    const STRIDES: [u64; 7] = [
        1,
        2,
        7,
        64,
        SNAPSHOT_STRIDE,
        LATE_TRIGGER - 1,
        LATE_TRIGGER + 1,
    ];

    impl<B: StateBackend + Send + Sync> PrefixMemo<B> {
        fn with_stride(params: &EvalParams, stride: u64) -> Self {
            PrefixMemo {
                stride,
                ..PrefixMemo::new(params)
            }
        }
    }

    /// β₀ = ⅓: ⅔ is reachable on both branches from epoch 0.
    fn params(objective: Objective) -> EvalParams {
        EvalParams {
            n: 30,
            beta0: 1.0 / 3.0,
            p0: 0.5,
            epochs: 60,
            backend: BackendKind::Cohort,
            objective,
        }
    }

    /// 16 of 50 validators Byzantine, 17 honest per branch: ⅔ becomes
    /// reachable only once the inactive half's effective balance takes
    /// its first 1-ETH step, at epoch 518 (`LATE_TRIGGER`).
    fn late_trigger(objective: Objective) -> EvalParams {
        EvalParams {
            n: 50,
            beta0: 0.32,
            epochs: 540,
            ..params(objective)
        }
    }

    const LATE_TRIGGER: u64 = 518;

    /// Feeds `batches` to one memo per stride, comparing every
    /// evaluation with the from-genesis reference, and returns the
    /// default-stride counters (all but `stream_epochs` are
    /// stride-invariant, which is asserted too).
    fn assert_batches_match_plain<B: StateBackend + Send + Sync>(
        params: &EvalParams,
        batches: &[&[Genome]],
    ) -> SearchStats {
        let pool = ChunkPool::new(1);
        let mut want: BTreeMap<Genome, String> = BTreeMap::new();
        let mut all_stats = Vec::new();
        for stride in STRIDES {
            let mut memo = PrefixMemo::<B>::with_stride(params, stride);
            for batch in batches {
                let memoized = memo.evaluate_batch(&pool, batch);
                for (genome, got) in batch.iter().zip(&memoized) {
                    let want = want.entry(*genome).or_insert_with(|| {
                        serde_json::to_string(&evaluate(params, *genome)).unwrap()
                    });
                    assert_eq!(
                        &serde_json::to_string(got).unwrap(),
                        want,
                        "genome {} at stride {stride}",
                        genome.label()
                    );
                }
            }
            all_stats.push(memo.stats());
        }
        let last = *all_stats.last().unwrap();
        for stats in all_stats {
            let same_streams = SearchStats {
                stream_epochs: last.stream_epochs,
                ..stats
            };
            assert_eq!(same_streams, last, "only re-steps depend on the stride");
        }
        last
    }

    fn assert_batch_matches_plain<B: StateBackend + Send + Sync>(
        params: &EvalParams,
        genomes: &[Genome],
    ) -> SearchStats {
        assert_batches_match_plain::<B>(params, &[genomes])
    }

    /// The dwell-free genome of `pair` and its dwell variants 1..=4.
    fn dwell_variants(duty: [DutyGene; 2]) -> Vec<Genome> {
        (0..=4u8).map(|dwell| Genome { duty, dwell }).collect()
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
            assert_batch_matches_plain::<CohortState>(&late_trigger(objective), &genomes);
        }
    }

    #[test]
    fn dwell_variants_fork_one_checkpoint() {
        // β0 = ⅓ makes ⅔ reachable immediately: every dwell variant of
        // the alternation pair triggers and the first one builds the
        // pair checkpoint for the rest.
        let genomes = dwell_variants(Genome::THRESHOLD_SEEKER.duty);
        let stats =
            assert_batch_matches_plain::<CohortState>(&params(Objective::Conflict), &genomes);
        assert_eq!(stats.evaluations, 5);
        assert_eq!(stats.reconstructed, 1, "dwell 0 reconstructs");
        assert_eq!(stats.checkpoint_records, 1, "first dwell variant builds");
        assert_eq!(stats.checkpoint_hits, 3, "remaining variants continue");
        assert_eq!(stats.fork_epoch_sum, 0, "the trigger is epoch 0");
    }

    #[test]
    fn late_trigger_variants_simulate_only_the_epochs_past_it() {
        let genomes = dwell_variants(Genome::THRESHOLD_SEEKER.duty);
        for objective in Objective::all() {
            let p = late_trigger(objective);
            let cohort = assert_batch_matches_plain::<CohortState>(&p, &genomes);
            // 518-epoch dense prefixes are slow unoptimized: one
            // objective carries the dense side.
            if objective == Objective::Conflict {
                let dense = assert_batch_matches_plain::<DenseState>(&p, &genomes);
                assert_eq!(dense, cohort, "{objective:?} counters");
            }
            assert_eq!(cohort.checkpoint_records, 1);
            assert_eq!(cohort.checkpoint_hits, 3);
            assert_eq!(cohort.fork_epoch_sum, 3 * LATE_TRIGGER);
            // Four continuations, none longer than trigger → horizon.
            assert!(cohort.pair_epochs <= 4 * (p.epochs - LATE_TRIGGER));
            assert!(cohort.pair_epochs >= 4);
        }
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
        assert_eq!(memo.stats().checkpoint_hits, 1, "second batch continues");
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap()
            );
        }
    }

    /// One memo serving several batches (the driver's usage pattern):
    /// later batches reuse streams and continue from checkpoints built
    /// by earlier ones — or wait, within one batch, for a checkpoint
    /// built by an earlier genome of it.
    #[test]
    fn multi_batch_reuse_matches_plain_evaluation() {
        let duty = Genome::THRESHOLD_SEEKER.duty;
        let variant = |dwell| Genome { duty, dwell };
        let batches: [&[Genome]; 3] = [
            &[variant(0), variant(1), variant(3)],
            &[variant(2), Genome::DUAL_ACTIVE],
            &[variant(1), variant(4)],
        ];
        let early = params(Objective::Conflict);
        let dense = assert_batches_match_plain::<DenseState>(&early, &batches);
        assert_eq!(
            dense,
            assert_batches_match_plain::<CohortState>(&early, &batches)
        );
        for objective in [Objective::Conflict, Objective::Proportion] {
            let p = late_trigger(objective);
            let stats = assert_batches_match_plain::<CohortState>(&p, &batches);
            assert_eq!(stats.checkpoint_records, 1);
            assert_eq!(stats.checkpoint_hits, 4);
            assert_eq!(stats.reconstructed, 2);
        }
    }

    /// `p0 = 0.3`: the honest classes differ in size, so each branch
    /// runs its own streams and a continuation must hand each branch
    /// the state (and the marked class) of its own stream.
    #[test]
    fn asymmetric_partition_matches_plain_evaluation() {
        let mirrored = [DutyGene::alternating(1), DutyGene::alternating(0)];
        let mut genomes = dwell_variants(Genome::THRESHOLD_SEEKER.duty);
        genomes.extend(dwell_variants(mirrored));
        genomes.extend(dwell_variants([DutyGene::ON, DutyGene::alternating(0)]));
        for objective in Objective::all() {
            // β0 = 0.6: both the 0.3 and the 0.7 side reach ⅔ at once.
            let p = EvalParams {
                p0: 0.3,
                beta0: 0.6,
                ..params(objective)
            };
            let dense = assert_batch_matches_plain::<DenseState>(&p, &genomes);
            let cohort = assert_batch_matches_plain::<CohortState>(&p, &genomes);
            assert_eq!(dense, cohort, "{objective:?} counters");
            assert_eq!(cohort.checkpoint_records, 3, "{objective:?}");
        }
    }

    /// 17 of 50 validators Byzantine, 16 honest on branch 0 and 17 on
    /// branch 1: branch 1 can reach ⅔ from genesis, branch 0 only at
    /// `LATE_TRIGGER` — so by then the two branch states have diverged,
    /// and under an always-on gene branch 1 has finalized (and the pair
    /// double-voted) *below* the trigger, which a continuation must
    /// inherit from the stream fold.
    #[test]
    fn asymmetric_late_trigger_inherits_the_prefix_fold() {
        let alternating = Genome::THRESHOLD_SEEKER.duty;
        let pairs = [
            alternating,
            [alternating[1], alternating[0]],
            [alternating[0], DutyGene::ON],
            [DutyGene::ON, DutyGene::ON],
        ];
        let genomes: Vec<Genome> = pairs.into_iter().flat_map(dwell_variants).collect();
        for objective in [Objective::Conflict, Objective::Proportion] {
            let p = EvalParams {
                beta0: 0.34,
                p0: 0.485,
                ..late_trigger(objective)
            };
            assert!(!PrefixMemo::<CohortState>::new(&p).symmetric);
            let stats = assert_batch_matches_plain::<CohortState>(&p, &genomes);
            assert_eq!(stats.checkpoint_records, 4, "{objective:?}");
            assert_eq!(stats.fork_epoch_sum, 4 * 3 * LATE_TRIGGER, "{objective:?}");
            if objective == Objective::Conflict {
                let dual_dwell = Genome {
                    duty: [DutyGene::ON, DutyGene::ON],
                    dwell: 2,
                };
                assert_batch_matches_plain::<DenseState>(&p, &[dual_dwell]);
            }
        }
    }

    /// Regression: the timeline compiler elides empty honest classes, so
    /// with one honest validator (or none) "class 1 + branch" does not
    /// exist and marking it died on an index out of bounds.
    #[test]
    fn degenerate_populations_match_plain_evaluation() {
        let mut genomes = dwell_variants(Genome::THRESHOLD_SEEKER.duty);
        genomes.push(Genome::DUAL_ACTIVE);
        for objective in Objective::all() {
            // One Byzantine and one honest validator: branch 1 is empty.
            let lone = EvalParams {
                n: 2,
                beta0: 0.3,
                ..params(objective)
            };
            // No honest validator at all: both branches are empty.
            let none = EvalParams {
                n: 12,
                beta0: 0.99,
                ..params(objective)
            };
            for p in [lone, none] {
                let dense = assert_batch_matches_plain::<DenseState>(&p, &genomes);
                let cohort = assert_batch_matches_plain::<CohortState>(&p, &genomes);
                assert_eq!(dense, cohort, "{objective:?} counters");
            }
            assert!(!PrefixMemo::<CohortState>::new(&lone).symmetric);
            assert!(PrefixMemo::<CohortState>::new(&none).symmetric);
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
        assert_eq!(stats.pair_epochs, 0);
    }

    /// `state_at(e)` is the state a stream freshly extended to `e` is
    /// in — on a snapshot, one past it, one short of the next, and at
    /// the stream's own tip.
    fn assert_state_at_matches_a_fresh_stream<B: StateBackend + Send + Sync>() {
        let memo = PrefixMemo::<B>::new(&params(Objective::Proportion));
        let gene = DutyGene {
            period: 3,
            on: 1,
            phase: 1,
        };
        let new_stream = |stride| {
            let honest = memo.honest[0].clone();
            GeneStream::new(0, gene, honest, memo.genesis.clone(), stride)
        };
        for (stride, len) in [(8u64, 20u64), (8, 24), (1, 5), (SNAPSHOT_STRIDE, 20)] {
            let mut stream = new_stream(stride);
            stream.extend_to(len);
            assert_eq!(stream.snapshots.len() as u64, len / stride + 1);
            for e in [0, 1, stride - 1, stride, len] {
                let e = e.min(len);
                let mut fresh = new_stream(stride);
                fresh.extend_to(e);
                assert_eq!(
                    stream.state_at(e).snapshot(),
                    fresh.state.snapshot(),
                    "epoch {e} at stride {stride}, length {len}"
                );
            }
        }
    }

    #[test]
    fn state_at_matches_a_fresh_stream_on_both_backends() {
        assert_state_at_matches_a_fresh_stream::<CohortState>();
        assert_state_at_matches_a_fresh_stream::<DenseState>();
    }

    #[test]
    fn late_trigger_is_at_epoch_518_and_counts_its_resteps() {
        let p = late_trigger(Objective::Conflict);
        let mut memo = PrefixMemo::<CohortState>::new(&p);
        memo.evaluate_batch(&ChunkPool::new(1), &[Genome::SEMI_ACTIVE]);
        let trigger = memo.duty_stops[&Genome::SEMI_ACTIVE.duty].trigger.unwrap();
        assert_eq!(trigger.epoch, LATE_TRIGGER);
        assert_eq!(memo.stats().checkpoint_records, 1);
        // 518 − 512 re-steps on each branch.
        let resteps = 2 * (LATE_TRIGGER % SNAPSHOT_STRIDE);
        let extended: u64 = memo.streams[0].values().map(GeneStream::len).sum();
        assert_eq!(memo.stats().stream_epochs, extended + resteps);
    }

    /// An always-on stream of the β₀ = ⅓ params: 10 honest + 10
    /// Byzantine of 30 validators reach ⅔ from genesis.
    fn finalizing_stream(memo: &PrefixMemo<CohortState>, epochs: u64) -> GeneStream<CohortState> {
        let honest = memo.honest[0].clone();
        let mut stream = GeneStream::new(0, DutyGene::ON, honest, memo.genesis.clone(), 8);
        stream.extend_to(epochs);
        stream
    }

    /// The stream's first finalization is the epoch whose *advance*
    /// finalized: the state entering it had not finalized, the state
    /// leaving it has.
    #[test]
    fn stream_fold_reads_finalization_after_the_advance() {
        let memo = PrefixMemo::<CohortState>::new(&params(Objective::Proportion));
        let stream = finalizing_stream(&memo, 16);
        let e = stream
            .fold
            .first_finalization_epoch
            .expect("⅔ from genesis");
        assert_eq!(stream.state_at(e).finalized_checkpoint().epoch.as_u64(), 0);
        assert!(stream.state_at(e + 1).finalized_checkpoint().epoch.as_u64() > 0);
    }

    /// Memo checkpoints carry the epoch label: the advance of epoch `e`
    /// is given `Root::from_u64(e + 1)`, the root of epoch `e + 1`'s
    /// checkpoint.
    #[test]
    fn stream_checkpoints_are_labelled_by_epoch() {
        let memo = PrefixMemo::<CohortState>::new(&params(Objective::Proportion));
        let state = finalizing_stream(&memo, 16).state;
        for checkpoint in [
            state.current_justified_checkpoint(),
            state.finalized_checkpoint(),
        ] {
            assert!(checkpoint.epoch.as_u64() > 0);
            assert_eq!(checkpoint.root, Root::from_u64(checkpoint.epoch.as_u64()));
        }
    }

    /// At β₀ = ⅓ exactly the dual-active Byzantine proportion sits *at*
    /// ⅓ for the whole run: that is its maximum, and it never exceeds ⅓.
    #[test]
    fn reconstruction_never_counts_a_proportion_of_exactly_a_third() {
        let mut memo = PrefixMemo::<CohortState>::new(&params(Objective::Proportion));
        memo.evaluate_batch(&ChunkPool::new(1), &[Genome::DUAL_ACTIVE]);
        let outcome = &memo.duty_stops[&Genome::DUAL_ACTIVE.duty].outcome;
        assert_eq!(outcome.epochs_run, 60);
        assert_eq!(outcome.max_byzantine_proportion, [1.0 / 3.0; 2]);
        assert_eq!(outcome.byzantine_exceeds_third_epoch, [None; 2]);
    }

    /// Without Byzantine validators the class never "exits".
    #[test]
    fn empty_byzantine_class_never_exits() {
        let p = EvalParams {
            beta0: 0.0,
            ..params(Objective::Proportion)
        };
        let memo = &mut PrefixMemo::<CohortState>::new(&p);
        let evaluations = memo.evaluate_batch(&ChunkPool::new(1), &[Genome::SEMI_ACTIVE]);
        assert_eq!(evaluations[0].byzantine_exit_epoch, [None; 2]);
    }
}
