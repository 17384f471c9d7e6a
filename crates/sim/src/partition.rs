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
//! each epoch with the per-branch [`kernel`] (the exact
//! integer spec arithmetic — `TwoBranchSim` is a thin two-branch
//! timeline over this engine), hands every live branch's
//! [`BranchStatus`] to a [`ByzantineSchedule`], and watches **all**
//! branch pairs for conflicting finalization through
//! [`SafetyMonitor`] — ancestry-aware, so a branch forked after a heal
//! only conflicts with checkpoints outside its inherited prefix, and a
//! healed branch's final checkpoints keep convicting later conflicts.

use std::collections::BTreeMap;

use serde::Serialize;

use ethpos_state::attestations::synthetic_branch_root;
use ethpos_state::backend::{ClassSpec, StateBackend};
use ethpos_state::DenseState;
use ethpos_stats::{seeded_rng, PreparedBinomial};
use ethpos_types::{BranchId, ChainConfig, Checkpoint, Root, Slot};
use ethpos_validator::{BranchStatus, ByzantineSchedule};

use crate::kernel::{self, BranchEpochStats, BranchFold, BYZANTINE_CLASS};
use crate::monitor::SafetyMonitor;

// ─── Timeline ───────────────────────────────────────────────────────────

/// One scheduled partition event.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEvent {
    /// Epoch at which the event applies (before that epoch's
    /// attestations).
    pub epoch: u64,
    /// What happens.
    pub action: TimelineAction,
}

/// A partition event over named branches.
#[derive(Debug, Clone, PartialEq)]
pub enum TimelineAction {
    /// Fork `branch` into `weights.len()` branches. `branch` keeps the
    /// share `weights[0]` of its honest population; each further weight
    /// becomes a fresh [`BranchId`] (assigned in order). With
    /// `churn: true` the population is not pinned: it is re-sampled over
    /// the sibling branches every epoch with the weights as
    /// probabilities (the §5.3 bouncing membership model).
    Split {
        /// The branch to fork (must be live).
        branch: BranchId,
        /// Relative honest-population shares, one per resulting branch.
        weights: Vec<f64>,
        /// Re-sample membership every epoch instead of pinning it.
        churn: bool,
    },
    /// Merge the `merged` branches into `survivor`: their honest
    /// validators re-join the survivor's chain and their branch states
    /// are dropped (their last finalized checkpoints stay visible to the
    /// safety monitor).
    Heal {
        /// The branch that keeps running.
        survivor: BranchId,
        /// The branches healed away (retired for good).
        merged: Vec<BranchId>,
    },
}

/// A deterministic schedule of partition events, starting from the
/// single [`BranchId::GENESIS`] branch holding the whole honest
/// population.
///
/// # Example
///
/// The paper's fixed two-branch split, healed at epoch 400, re-split
/// three ways at epoch 600:
///
/// ```
/// use ethpos_sim::PartitionTimeline;
/// use ethpos_types::BranchId;
///
/// let timeline = PartitionTimeline::new()
///     .split(0, BranchId::GENESIS, &[0.5, 0.5])
///     .heal(400, BranchId::GENESIS, &[BranchId::new(1)])
///     .split(600, BranchId::GENESIS, &[0.34, 0.33, 0.33]);
/// let compiled = timeline.compile(1000).unwrap();
/// assert_eq!(compiled.total_branches(), 4); // ids 0..4, 1 retired
/// assert_eq!(compiled.honest_classes().iter().sum::<u64>(), 1000);
/// assert_eq!(timeline, PartitionTimeline::parse(&timeline.render()).unwrap());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PartitionTimeline {
    /// The events, in non-decreasing epoch order.
    pub events: Vec<TimelineEvent>,
}

/// A timeline that cannot be compiled (unknown branch, bad weights,
/// out-of-order events, …), or a spec string that cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineError(String);

impl TimelineError {
    /// Creates an error with the given reason (scenario layers use this
    /// for validation that involves more than the timeline itself, e.g.
    /// a strategy incompatible with the branch counts).
    pub fn new(msg: impl Into<String>) -> Self {
        TimelineError(msg.into())
    }

    /// The human-readable reason.
    pub fn message(&self) -> &str {
        &self.0
    }
}

impl core::fmt::Display for TimelineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid partition timeline: {}", self.0)
    }
}

impl std::error::Error for TimelineError {}

impl PartitionTimeline {
    /// An empty timeline: one branch, no events (a single healthy view).
    pub fn new() -> Self {
        PartitionTimeline::default()
    }

    /// Appends a fixed (pinned-membership) split.
    pub fn split(mut self, epoch: u64, branch: BranchId, weights: &[f64]) -> Self {
        self.events.push(TimelineEvent {
            epoch,
            action: TimelineAction::Split {
                branch,
                weights: weights.to_vec(),
                churn: false,
            },
        });
        self
    }

    /// Appends a churn split: membership re-sampled every epoch with the
    /// weights as probabilities.
    pub fn churn(mut self, epoch: u64, branch: BranchId, weights: &[f64]) -> Self {
        self.events.push(TimelineEvent {
            epoch,
            action: TimelineAction::Split {
                branch,
                weights: weights.to_vec(),
                churn: true,
            },
        });
        self
    }

    /// Appends a heal.
    pub fn heal(mut self, epoch: u64, survivor: BranchId, merged: &[BranchId]) -> Self {
        self.events.push(TimelineEvent {
            epoch,
            action: TimelineAction::Heal {
                survivor,
                merged: merged.to_vec(),
            },
        });
        self
    }

    /// The paper's static two-branch partition: honest share `p0` stays
    /// on the genesis branch, the rest forms branch 1 at epoch 0.
    pub fn two_branch(p0: f64) -> Self {
        PartitionTimeline::new().split(0, BranchId::GENESIS, &[p0, 1.0 - p0])
    }

    /// The §5.3 membership model: every honest validator lands on the
    /// genesis branch with probability `p0`, independently every epoch.
    pub fn two_branch_churn(p0: f64) -> Self {
        PartitionTimeline::new().churn(0, BranchId::GENESIS, &[p0, 1.0 - p0])
    }

    /// Renders the timeline in the CLI spec syntax (inverse of
    /// [`PartitionTimeline::parse`]), e.g.
    /// `split@0:0=0.5,0.5; heal@400:0<-1; split@600:0=0.34,0.33,0.33`.
    pub fn render(&self) -> String {
        let parts: Vec<String> = self
            .events
            .iter()
            .map(|ev| match &ev.action {
                TimelineAction::Split {
                    branch,
                    weights,
                    churn,
                } => {
                    let kind = if *churn { "churn" } else { "split" };
                    let w: Vec<String> = weights.iter().map(|x| format!("{x}")).collect();
                    format!("{kind}@{}:{branch}={}", ev.epoch, w.join(","))
                }
                TimelineAction::Heal { survivor, merged } => {
                    let m: Vec<String> = merged.iter().map(|b| b.to_string()).collect();
                    format!("heal@{}:{survivor}<-{}", ev.epoch, m.join("+"))
                }
            })
            .collect();
        parts.join("; ")
    }

    /// Parses the CLI spec syntax: `;`-separated events, each
    /// `split@EPOCH:BRANCH=W1,W2,…`, `churn@EPOCH:BRANCH=W1,W2,…` or
    /// `heal@EPOCH:SURVIVOR<-B1+B2+…`.
    ///
    /// # Errors
    ///
    /// Returns a [`TimelineError`] describing the first malformed event.
    pub fn parse(spec: &str) -> Result<Self, TimelineError> {
        let mut timeline = PartitionTimeline::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (kind, rest) = part
                .split_once('@')
                .ok_or_else(|| TimelineError::new(format!("`{part}`: expected KIND@EPOCH:…")))?;
            let (epoch, body) = rest
                .split_once(':')
                .ok_or_else(|| TimelineError::new(format!("`{part}`: expected EPOCH:BODY")))?;
            let epoch: u64 = epoch
                .parse()
                .map_err(|_| TimelineError::new(format!("`{epoch}` is not an epoch")))?;
            let branch_id = |s: &str| -> Result<BranchId, TimelineError> {
                s.parse::<u32>()
                    .map(BranchId::new)
                    .map_err(|_| TimelineError::new(format!("`{s}` is not a branch id")))
            };
            let action = match kind {
                "split" | "churn" => {
                    let (branch, weights) = body.split_once('=').ok_or_else(|| {
                        TimelineError::new(format!("`{part}`: expected BRANCH=W1,W2,…"))
                    })?;
                    let weights: Result<Vec<f64>, TimelineError> = weights
                        .split(',')
                        .map(|w| {
                            w.trim()
                                .parse::<f64>()
                                .map_err(|_| TimelineError::new(format!("`{w}` is not a weight")))
                        })
                        .collect();
                    TimelineAction::Split {
                        branch: branch_id(branch.trim())?,
                        weights: weights?,
                        churn: kind == "churn",
                    }
                }
                "heal" => {
                    let (survivor, merged) = body.split_once("<-").ok_or_else(|| {
                        TimelineError::new(format!("`{part}`: expected SURVIVOR<-B1+B2"))
                    })?;
                    let merged: Result<Vec<BranchId>, TimelineError> =
                        merged.split('+').map(|b| branch_id(b.trim())).collect();
                    TimelineAction::Heal {
                        survivor: branch_id(survivor.trim())?,
                        merged: merged?,
                    }
                }
                other => {
                    return Err(TimelineError::new(format!(
                        "unknown event kind `{other}` (expected split, churn or heal)"
                    )));
                }
            };
            timeline.events.push(TimelineEvent { epoch, action });
        }
        Ok(timeline)
    }

    /// Compiles the timeline for a population of `n_honest` honest
    /// validators: resolves every split into member counts, derives the
    /// finest class partition any event addresses, and produces the
    /// per-phase marking plans the engine executes.
    ///
    /// # Errors
    ///
    /// Returns a [`TimelineError`] when an event addresses a retired or
    /// unknown branch, weights are malformed, events are out of epoch
    /// order, a churned branch is split again before its group heals, a
    /// heal dismembers a churn group, or more than 64 branches are
    /// created.
    pub fn compile(&self, n_honest: u64) -> Result<CompiledTimeline, TimelineError> {
        Compiler::new(n_honest).run(&self.events)
    }
}

// ─── Compilation ────────────────────────────────────────────────────────

/// Intervals of honest-population members, sorted by start.
type Intervals = Vec<(u64, u64)>;

#[derive(Debug, Clone)]
struct ChurnGroupState {
    branches: Vec<BranchId>,
    weights: Vec<f64>,
    intervals: Intervals,
}

#[derive(Debug, Clone)]
struct RawStep {
    epoch: u64,
    ops: Vec<StepOp>,
    holdings: BTreeMap<BranchId, Intervals>,
    churn: Vec<ChurnGroupState>,
}

/// A structural operation the engine applies when a step begins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOp {
    /// Clone `parent`'s state into each of `children` (a chain fork).
    Fork {
        /// The branch being split (keeps running).
        parent: BranchId,
        /// Freshly created branches, in id order.
        children: Vec<BranchId>,
    },
    /// Drop the `merged` branches; their honest classes re-join
    /// `survivor`.
    Retire {
        /// The branch that keeps running.
        survivor: BranchId,
        /// The branches healed away, in id order.
        merged: Vec<BranchId>,
    },
}

struct Compiler {
    n_honest: u64,
    holdings: BTreeMap<BranchId, Intervals>,
    churn: Vec<ChurnGroupState>,
    cuts: std::collections::BTreeSet<u64>,
    next_id: u32,
    raw: Vec<RawStep>,
}

impl Compiler {
    fn new(n_honest: u64) -> Self {
        let mut holdings = BTreeMap::new();
        holdings.insert(
            BranchId::GENESIS,
            if n_honest > 0 {
                vec![(0, n_honest)]
            } else {
                Vec::new()
            },
        );
        Compiler {
            n_honest,
            holdings,
            churn: Vec::new(),
            cuts: std::collections::BTreeSet::new(),
            next_id: 1,
            raw: Vec::new(),
        }
    }

    fn is_live(&self, b: BranchId) -> bool {
        self.holdings.contains_key(&b)
    }

    fn in_churn_group(&self, b: BranchId) -> Option<usize> {
        self.churn.iter().position(|g| g.branches.contains(&b))
    }

    fn record(&mut self, epoch: u64, ops: Vec<StepOp>) {
        match self.raw.last_mut() {
            Some(last) if last.epoch == epoch => {
                last.ops.extend(ops);
                last.holdings = self.holdings.clone();
                last.churn = self.churn.clone();
            }
            _ => self.raw.push(RawStep {
                epoch,
                ops,
                holdings: self.holdings.clone(),
                churn: self.churn.clone(),
            }),
        }
    }

    fn apply_split(
        &mut self,
        epoch: u64,
        branch: BranchId,
        weights: &[f64],
        churn: bool,
    ) -> Result<(), TimelineError> {
        if !self.is_live(branch) {
            return Err(TimelineError::new(format!(
                "split@{epoch}: branch {branch} is not live"
            )));
        }
        if self.in_churn_group(branch).is_some() {
            return Err(TimelineError::new(format!(
                "split@{epoch}: branch {branch} is churning; heal its group first"
            )));
        }
        if weights.len() < 2 {
            return Err(TimelineError::new(format!(
                "split@{epoch}: need at least two weights"
            )));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(TimelineError::new(format!(
                "split@{epoch}: weights must be finite and non-negative"
            )));
        }
        let wsum: f64 = weights.iter().sum();
        if wsum <= 0.0 {
            return Err(TimelineError::new(format!(
                "split@{epoch}: weights must not all be zero"
            )));
        }
        let intervals = self.holdings.remove(&branch).expect("checked live");
        let children: Vec<BranchId> = std::iter::once(branch)
            .chain((1..weights.len()).map(|_| {
                let id = BranchId::new(self.next_id);
                self.next_id += 1;
                id
            }))
            .collect();
        if self.next_id as usize > ethpos_validator::BranchChoice::MAX_BRANCHES {
            return Err(TimelineError::new(format!(
                "split@{epoch}: more than {} branches",
                ethpos_validator::BranchChoice::MAX_BRANCHES
            )));
        }
        if churn {
            // The population stays one (or a few) whole classes, sampled
            // over the sibling branches every epoch.
            for &c in &children {
                self.holdings.insert(c, Vec::new());
            }
            self.churn.push(ChurnGroupState {
                branches: children.clone(),
                weights: weights.to_vec(),
                intervals,
            });
        } else {
            // Pin fixed member shares: cumulative rounding so the first
            // share is exactly `round(w0/wsum · m)` — the historical
            // two-branch `round(p0 · n_honest)` layout.
            let m: u64 = intervals.iter().map(|(s, e)| e - s).sum();
            let mut masses = Vec::with_capacity(weights.len());
            let mut cum = 0.0;
            let mut prev = 0u64;
            for (i, w) in weights.iter().enumerate() {
                cum += w;
                let cut = if i + 1 == weights.len() {
                    m
                } else {
                    (((cum / wsum) * m as f64).round() as u64).min(m)
                };
                let cut = cut.max(prev);
                masses.push(cut - prev);
                prev = cut;
            }
            let slices = slice_intervals(&intervals, &masses);
            for slice in &slices {
                for &(s, e) in slice {
                    self.cuts.insert(s);
                    self.cuts.insert(e);
                }
            }
            for (&c, slice) in children.iter().zip(slices) {
                self.holdings.insert(c, slice);
            }
        }
        let new_children = children[1..].to_vec();
        self.record(
            epoch,
            vec![StepOp::Fork {
                parent: branch,
                children: new_children,
            }],
        );
        Ok(())
    }

    fn apply_heal(
        &mut self,
        epoch: u64,
        survivor: BranchId,
        merged: &[BranchId],
    ) -> Result<(), TimelineError> {
        if !self.is_live(survivor) {
            return Err(TimelineError::new(format!(
                "heal@{epoch}: survivor {survivor} is not live"
            )));
        }
        if merged.is_empty() {
            return Err(TimelineError::new(format!(
                "heal@{epoch}: nothing to merge"
            )));
        }
        let mut sorted = merged.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != merged.len() {
            return Err(TimelineError::new(format!(
                "heal@{epoch}: duplicate branch in the merge set"
            )));
        }
        if sorted.contains(&survivor) {
            return Err(TimelineError::new(format!(
                "heal@{epoch}: survivor {survivor} cannot merge into itself"
            )));
        }
        for &b in &sorted {
            if !self.is_live(b) {
                return Err(TimelineError::new(format!(
                    "heal@{epoch}: branch {b} is not live"
                )));
            }
        }
        // A churn group must heal as a whole: every sampled validator
        // needs exactly one surviving chain to land on.
        let healed_set: Vec<BranchId> = sorted
            .iter()
            .copied()
            .chain(std::iter::once(survivor))
            .collect();
        let mut absorbed: Intervals = Vec::new();
        let mut keep = Vec::new();
        for group in self.churn.drain(..) {
            let touched = group.branches.iter().any(|b| healed_set.contains(b));
            if !touched {
                keep.push(group);
            } else if group.branches.iter().all(|b| healed_set.contains(b)) {
                absorbed.extend(group.intervals);
            } else {
                return Err(TimelineError::new(format!(
                    "heal@{epoch}: a churn group must be healed as a whole \
                     (its branches are {:?})",
                    group.branches
                )));
            }
        }
        self.churn = keep;
        let mut pooled = self.holdings.remove(&survivor).expect("checked live");
        pooled.extend(absorbed);
        for &b in &sorted {
            pooled.extend(self.holdings.remove(&b).expect("checked live"));
        }
        // Canonical order + coalescing makes the merge order-insensitive.
        pooled.sort_unstable();
        let mut coalesced: Intervals = Vec::with_capacity(pooled.len());
        for (s, e) in pooled {
            match coalesced.last_mut() {
                Some((_, le)) if *le == s => *le = e,
                _ => coalesced.push((s, e)),
            }
        }
        self.holdings.insert(survivor, coalesced);
        self.record(
            epoch,
            vec![StepOp::Retire {
                survivor,
                merged: sorted,
            }],
        );
        Ok(())
    }

    fn run(mut self, events: &[TimelineEvent]) -> Result<CompiledTimeline, TimelineError> {
        // The initial phase: everything on the genesis branch.
        self.record(0, Vec::new());
        let mut last_epoch = 0u64;
        for ev in events {
            if ev.epoch < last_epoch {
                return Err(TimelineError::new(format!(
                    "event at epoch {} after epoch {last_epoch}: events must \
                     be in epoch order",
                    ev.epoch
                )));
            }
            last_epoch = ev.epoch;
            match &ev.action {
                TimelineAction::Split {
                    branch,
                    weights,
                    churn,
                } => self.apply_split(ev.epoch, *branch, weights, *churn)?,
                TimelineAction::Heal { survivor, merged } => {
                    self.apply_heal(ev.epoch, *survivor, merged)?
                }
            }
        }
        // The finest member partition: every cut any split ever made.
        let mut boundaries: Vec<u64> = self.cuts.iter().copied().collect();
        boundaries.retain(|&b| b > 0 && b < self.n_honest);
        boundaries.insert(0, 0);
        boundaries.push(self.n_honest);
        boundaries.dedup();
        let honest_classes: Vec<u64> = boundaries.windows(2).map(|w| w[1] - w[0]).collect();
        let class_of = |member: u64| -> usize {
            boundaries
                .binary_search(&member)
                .expect("interval endpoints are boundaries")
        };
        let classes_of = |intervals: &Intervals| -> Vec<usize> {
            let mut classes = Vec::new();
            for &(s, e) in intervals {
                // State class indices: +1 for the Byzantine class 0.
                classes.extend((class_of(s)..class_of(e)).map(|c| c + 1));
            }
            classes.sort_unstable();
            classes
        };
        let class_size = |state_class: usize| honest_classes[state_class - 1];
        let steps = self
            .raw
            .iter()
            .map(|raw| {
                let pinned = raw
                    .holdings
                    .iter()
                    .map(|(b, intervals)| (*b, classes_of(intervals)))
                    .collect();
                let churn = raw
                    .churn
                    .iter()
                    .map(|g| {
                        let classes = classes_of(&g.intervals);
                        let members = classes.iter().map(|&c| class_size(c)).sum();
                        ChurnPlan {
                            branches: g.branches.clone(),
                            marginal: marginal_probabilities(&g.weights),
                            classes,
                            members,
                        }
                    })
                    .collect();
                CompiledStep {
                    epoch: raw.epoch,
                    ops: raw.ops.clone(),
                    plan: MarkingPlan::new(pinned, churn),
                }
            })
            .collect();
        Ok(CompiledTimeline {
            honest_classes,
            total_branches: self.next_id,
            steps,
        })
    }
}

/// Slices an ordered interval list into consecutive chunks of the given
/// masses (which must sum to the total interval mass).
fn slice_intervals(intervals: &[(u64, u64)], masses: &[u64]) -> Vec<Intervals> {
    let mut out = Vec::with_capacity(masses.len());
    let mut iter = intervals.iter().copied();
    let mut cur = iter.next();
    for &mass in masses {
        let mut need = mass;
        let mut slice = Vec::new();
        while need > 0 {
            let (s, e) = cur.expect("masses sum to the interval total");
            let len = e - s;
            if len <= need {
                slice.push((s, e));
                need -= len;
                cur = iter.next();
            } else {
                slice.push((s, s + need));
                cur = Some((s + need, e));
                need = 0;
            }
        }
        out.push(slice);
    }
    out
}

/// Per-branch marginal membership probabilities `w_j / Σw` of a churn
/// group — the success probability of each branch's per-cohort binomial
/// count draw.
///
/// For the historical two-branch case `[p0, 1 - p0]` the first marginal
/// is exactly `p0` whenever `p0 + (1 - p0)` rounds to `1.0` (it does for
/// every representable `p0` — the rounding error of `1 - p0` is under
/// half an ulp of 1). The `min` clamp only guards pathological weight
/// magnitudes where the total could round below an individual weight.
fn marginal_probabilities(weights: &[f64]) -> Vec<f64> {
    let total: f64 = weights.iter().sum();
    weights.iter().map(|w| (w / total).min(1.0)).collect()
}

/// The compiled form of a [`PartitionTimeline`] at a concrete honest
/// population size: the genesis class layout plus one [`CompiledStep`]
/// per event epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTimeline {
    honest_classes: Vec<u64>,
    total_branches: u32,
    steps: Vec<CompiledStep>,
}

impl CompiledTimeline {
    /// Sizes of the honest leaf classes, in member order (state class
    /// `c + 1` holds `honest_classes()[c]` members).
    pub fn honest_classes(&self) -> &[u64] {
        &self.honest_classes
    }

    /// Total number of branches the timeline ever creates (ids are dense
    /// `0..total_branches`, retired ids included).
    pub fn total_branches(&self) -> u32 {
        self.total_branches
    }

    /// The steps, in epoch order (the first step is always epoch 0).
    pub fn steps(&self) -> &[CompiledStep] {
        &self.steps
    }

    /// The genesis state of this layout: the Byzantine class
    /// ([`BYZANTINE_CLASS`]) of `byzantine` members, then the honest
    /// classes, every member at full stake.
    pub fn genesis<B: StateBackend>(&self, chain: &ChainConfig, byzantine: u64) -> B {
        let classes: Vec<ClassSpec> = std::iter::once(byzantine)
            .chain(self.honest_classes.iter().copied())
            .map(|count| ClassSpec::full_stake(count, chain))
            .collect();
        B::from_classes(chain.clone(), &classes)
    }
}

/// One phase boundary: the structural ops applied when `epoch` begins
/// and the marking plan in force until the next step.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledStep {
    epoch: u64,
    ops: Vec<StepOp>,
    plan: MarkingPlan,
}

impl CompiledStep {
    /// The epoch at which this step applies.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The marking plan in force from this step on.
    pub fn plan(&self) -> &MarkingPlan {
        &self.plan
    }
}

/// Which classes attest on which live branch during one phase.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MarkingPlan {
    /// Per live branch, in [`BranchId`] order: the state class indices
    /// pinned to it (churning branches appear with their pinned classes,
    /// possibly none).
    pinned: Vec<(BranchId, Vec<usize>)>,
    /// Active churn groups, in creation order.
    churn: Vec<ChurnPlan>,
    /// `churned[i]`: the churned classes pinned branch `i` draws
    /// attesters from, in draw order (churn groups in plan order, classes
    /// ascending), each with its count law `Binomial(·, marginal[position
    /// of i in the group])`. Prepared at compile time so the per-epoch
    /// marking loop neither scans a group's branch list nor re-derives
    /// the per-`p` constants for every cohort.
    churned: Vec<Vec<(usize, PreparedBinomial)>>,
}

impl MarkingPlan {
    /// Builds a plan, preparing the (branch, churned class) count laws.
    fn new(pinned: Vec<(BranchId, Vec<usize>)>, churn: Vec<ChurnPlan>) -> Self {
        let churned = pinned
            .iter()
            .map(|(b, _)| {
                let mut classes = Vec::new();
                for g in &churn {
                    if let Some(position) = g.branches.iter().position(|x| x == b) {
                        let law = PreparedBinomial::new(g.marginal[position]);
                        classes.extend(g.classes.iter().map(|&c| (c, law.clone())));
                    }
                }
                classes
            })
            .collect();
        MarkingPlan {
            pinned,
            churn,
            churned,
        }
    }

    /// The live branches, in id order.
    pub fn live_branches(&self) -> Vec<BranchId> {
        self.pinned.iter().map(|(b, _)| *b).collect()
    }

    /// The state class indices pinned to `branch` (empty for a branch
    /// whose population churns), or `None` if the branch is not live.
    pub fn pinned_classes(&self, branch: BranchId) -> Option<&[usize]> {
        self.pinned
            .iter()
            .find(|(b, _)| *b == branch)
            .map(|(_, classes)| classes.as_slice())
    }

    /// The active churn groups.
    pub fn churn_groups(&self) -> &[ChurnPlan] {
        &self.churn
    }
}

/// One churn group: classes re-sampled over sibling branches every
/// epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnPlan {
    /// The sibling branches, in split-declaration order (parent first) —
    /// the order the weights address them.
    pub branches: Vec<BranchId>,
    /// Per-branch marginal membership probabilities `w_j / Σw`: each
    /// epoch, a cohort of `c` churned members contributes
    /// `Binomial(c, marginal[j])` attesters to branch `j` (see
    /// [`PartitionTimeline`]'s churn semantics).
    pub marginal: Vec<f64>,
    /// The state class indices of the churned population, ascending.
    pub classes: Vec<usize>,
    /// Total members across those classes (the draw-buffer size).
    pub members: u64,
}

// ─── Engine ─────────────────────────────────────────────────────────────

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

/// One recorded epoch of a partition run.
#[derive(Debug, Clone, Serialize)]
pub struct PartitionEpochRecord {
    /// Epoch number.
    pub epoch: u64,
    /// The live branches, in id order.
    pub branches: Vec<BranchId>,
    /// Stats per live branch (aligned with `branches`).
    pub stats: Vec<BranchEpochStats>,
    /// Whether the Byzantine validators attested per live branch
    /// (aligned with `branches`).
    pub byzantine_active: Vec<bool>,
}

/// A conflicting finalization observed between two branches.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SafetyViolation {
    /// The lower-id branch of the conflicting pair.
    pub branch_a: BranchId,
    /// The higher-id branch of the conflicting pair.
    pub branch_b: BranchId,
    /// `branch_a`'s finalized checkpoint at detection time.
    pub checkpoint_a: Checkpoint,
    /// `branch_b`'s finalized checkpoint at detection time.
    pub checkpoint_b: Checkpoint,
}

/// Lifetime summary of one branch.
#[derive(Debug, Clone, Serialize)]
pub struct BranchOutcome {
    /// The branch.
    pub branch: BranchId,
    /// Epoch the branch was created (0 for the genesis branch).
    pub created_at_epoch: u64,
    /// Epoch the branch was healed away, if it was.
    pub healed_at_epoch: Option<u64>,
    /// First epoch at which the Byzantine proportion exceeded ⅓ on this
    /// branch — the paper's Safety loss №2.
    pub byzantine_exceeds_third_epoch: Option<u64>,
    /// Maximum Byzantine proportion observed.
    pub max_byzantine_proportion: f64,
    /// First epoch at which the branch finalized a checkpoint beyond
    /// genesis.
    pub first_finalization_epoch: Option<u64>,
    /// First epoch at which the **whole** Byzantine class had exited on
    /// this branch.
    pub byzantine_exit_epoch: Option<u64>,
    /// Total actual balance (Gwei) held by the Byzantine class at the
    /// end of the branch's life (heal epoch, or end of run).
    pub final_byzantine_balance_gwei: u64,
    /// The branch's finalized epoch at the end of its life.
    pub final_finalized_epoch: u64,
}

impl BranchOutcome {
    /// The lifetime fold these fields were copied from.
    pub(crate) fn fold(&self) -> BranchFold {
        BranchFold {
            byzantine_exceeds_third_epoch: self.byzantine_exceeds_third_epoch,
            max_byzantine_proportion: self.max_byzantine_proportion,
            first_finalization_epoch: self.first_finalization_epoch,
            byzantine_exit_epoch: self.byzantine_exit_epoch,
        }
    }
}

/// Counters describing the fork (`Split`) activity of one run — the
/// observability surface of the copy-on-write state layer.
///
/// Deliberately **not** part of [`PartitionOutcome`]: outcome JSON is
/// byte-pinned by the golden corpus and must not grow fields. The CLI
/// reports these through the separate `--stats-out` artifact instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ForkStats {
    /// Child branches created by `Split` events (one per child).
    pub forks: u64,
    /// Sum of the epochs at which forks happened — with `forks`, this
    /// gives the mean fork depth.
    pub fork_epoch_sum: u64,
    /// Deepest epoch at which a fork happened.
    pub max_fork_epoch: u64,
    /// Storage chunks each freshly forked child physically shared with
    /// its parent at fork time, summed over forks (0 on the dense
    /// backend; positive iff copy-on-write sharing is engaged).
    pub shared_chunks: u64,
}

impl ForkStats {
    /// Accumulates another run's counters (for campaign-level totals).
    pub fn absorb(&mut self, other: &ForkStats) {
        self.forks += other.forks;
        self.fork_epoch_sum += other.fork_epoch_sum;
        self.max_fork_epoch = self.max_fork_epoch.max(other.max_fork_epoch);
        self.shared_chunks += other.shared_chunks;
    }

    /// Renders the counters into `registry` — the end-of-run
    /// publication path. The struct itself stays the deterministic
    /// `--stats-out` source; the registry view is additive across runs.
    pub fn publish(&self, registry: &ethpos_obs::Registry) {
        registry
            .counter(
                "ethpos_forks_total",
                "Child branches created by Split timeline events.",
                &[],
            )
            .add(self.forks);
        registry
            .counter(
                "ethpos_fork_epoch_sum_total",
                "Sum of the epochs at which forks happened (with \
                 ethpos_forks_total this gives the mean fork depth).",
                &[],
            )
            .add(self.fork_epoch_sum);
        registry
            .gauge(
                "ethpos_fork_max_epoch",
                "Deepest epoch at which a fork happened.",
                &[],
            )
            .set_max(self.max_fork_epoch as f64);
        registry
            .counter(
                "ethpos_fork_shared_chunks_total",
                "Storage chunks freshly forked children physically shared \
                 with their parents at fork time (copy-on-write sharing).",
                &[],
            )
            .add(self.shared_chunks);
    }
}

/// Counters describing the count-level churn sampling of one run — the
/// observability surface of the per-cohort binomial draw path.
///
/// Like [`ForkStats`], deliberately **not** part of
/// [`PartitionOutcome`]: outcome JSON is byte-pinned by the golden
/// corpus. The CLI reports these through the separate `--stats-out`
/// artifact instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ChurnStats {
    /// Binomial count draws performed: one per (branch, churn group,
    /// class, active cohort) per epoch.
    pub draws: u64,
    /// Members covered by those draws — the number of Bernoulli draws
    /// the per-validator path would have made instead, so
    /// `members / draws` is the mean cohort size the churn stage saw and
    /// `members / draws ≫ 1` is the compression win.
    pub members: u64,
}

impl ChurnStats {
    /// Accumulates another run's counters (for campaign-level totals).
    pub fn absorb(&mut self, other: &ChurnStats) {
        self.draws += other.draws;
        self.members += other.members;
    }

    /// Renders the counters into `registry` — the end-of-run
    /// publication path. The struct itself stays the deterministic
    /// `--stats-out` source; the registry view is additive across runs.
    pub fn publish(&self, registry: &ethpos_obs::Registry) {
        registry
            .counter(
                "ethpos_churn_draws_total",
                "Per-cohort binomial count draws performed by the churn \
                 marking stage.",
                &[],
            )
            .add(self.draws);
        registry
            .counter(
                "ethpos_churn_members_total",
                "Members covered by the binomial draws (the Bernoulli \
                 draws the per-validator path would have made).",
                &[],
            )
            .add(self.members);
    }
}

/// Result of a partition-timeline run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct PartitionOutcome {
    /// First epoch at which two branches held conflicting finalized
    /// checkpoints — the paper's Safety loss №1, generalized to any
    /// branch pair (ancestry-aware: checkpoints on a shared prefix do
    /// not conflict).
    pub conflicting_finalization_epoch: Option<u64>,
    /// The first conflicting pair, if any.
    pub violation: Option<SafetyViolation>,
    /// Per-branch lifetime summaries, in id order (every branch the
    /// timeline ever created).
    pub branches: Vec<BranchOutcome>,
    /// Number of epochs in which the schedule attested on ≥ 2 branches —
    /// each one is a slashable double vote (§5.2.1).
    pub double_vote_epochs: u64,
    /// Per-epoch records (thinned by `record_every`).
    pub history: Vec<PartitionEpochRecord>,
    /// Number of epochs simulated.
    pub epochs_run: u64,
}

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
/// use ethpos_validator::DualActive;
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
    tips: BTreeMap<BranchId, Root>,
    plan: MarkingPlan,
    step_idx: usize,
    epoch: u64,
    finished: bool,
    meta: Vec<BranchMeta>,
    outcome: PartitionOutcome,
    fork_stats: ForkStats,
    churn_stats: ChurnStats,
    scratch: StepScratch,
}

/// The working buffers of one [`PartitionSim::step`], an entry per live
/// branch each, cleared and refilled every epoch so that a step
/// allocates only on the epochs it records into the history.
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
    /// Panics if `byzantine > n`.
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
    /// Panics if `byzantine > n`.
    pub fn with_backend(
        config: PartitionConfig,
        schedule: Box<dyn ByzantineSchedule>,
    ) -> Result<Self, TimelineError> {
        assert!(config.byzantine <= config.n, "byzantine > n");
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
            tips: BTreeMap::from([(BranchId::GENESIS, genesis_root)]),
            plan: MarkingPlan::default(),
            step_idx: 0,
            epoch: 0,
            finished: false,
            meta: vec![BranchMeta::default()],
            outcome: PartitionOutcome::default(),
            fork_stats: ForkStats::default(),
            churn_stats: ChurnStats::default(),
            scratch: StepScratch::default(),
        })
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
                        "ethpos_cohort_classes",
                        "Exchangeability classes in the branch's state.",
                        &labels,
                    )
                    .set(frag.classes as f64);
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
                        let tip = self.tips[parent];
                        for &child in children {
                            let state = base.clone();
                            self.fork_stats.forks += 1;
                            self.fork_stats.fork_epoch_sum += self.epoch;
                            self.fork_stats.max_fork_epoch =
                                self.fork_stats.max_fork_epoch.max(self.epoch);
                            self.fork_stats.shared_chunks += base.shared_chunks_with(&state) as u64;
                            self.branches.insert(child, state);
                            self.tips.insert(child, tip);
                            let view = self.monitor.add_view(fork_checkpoint);
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
                            self.tips.remove(&b);
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

    /// Simulates one epoch (applying any timeline events scheduled for
    /// it first). Returns `false` once the run is over — the horizon was
    /// reached or a stop condition fired.
    pub fn step(&mut self) -> bool {
        if self.finished || self.epoch >= self.config.max_epochs {
            self.finished = true;
            return false;
        }
        let _span = ethpos_obs::span_with("sim", || format!("epoch {}", self.epoch));
        self.apply_ops();
        let epoch = self.epoch;

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

        // 2. Adversary decision over every live branch.
        let choice = self.schedule.participate(statuses);

        // 3. Per live branch: advance one epoch under its own synthetic
        //    checkpoint root, fold the branch outcome, and feed the safety
        //    monitor the new block and the branch's finalized checkpoint
        //    (checked against every branch pair — healed branches
        //    included).
        for (position, (b, _)) in plan.pinned.iter().enumerate() {
            let byz_on = choice.get(position);
            byzantine_active.push(byz_on);
            let state = branches.get_mut(b).expect("live branch");
            let root = synthetic_branch_root(b.as_u64(), epoch + 1);
            let stat = kernel::advance(state, &statuses[position], ejected[position], byz_on, root);
            self.meta[b.as_usize()].fold.push(epoch, &stat, state);
            stats.push(stat);
            let parent = self.tips.insert(*b, root).expect("live branch has a tip");
            let slot = Slot::new((epoch + 1) * self.config.chain.slots_per_epoch);
            self.monitor.observe_block(root, parent, slot);
            self.monitor.observe_backend(b.as_usize(), state);
        }
        self.outcome.epochs_run = epoch + 1;
        if choice.is_double_vote() {
            self.outcome.double_vote_epochs += 1;
        }
        if self.outcome.conflicting_finalization_epoch.is_none() {
            if let Some((a, b, ca, cb)) = self.monitor.violation() {
                self.outcome.conflicting_finalization_epoch = Some(epoch);
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

        // Fragmentation sample (observability only; every 64 epochs).
        if epoch.is_multiple_of(64) {
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
        self.epoch += 1;
        if self.epoch >= self.config.max_epochs {
            self.finished = true;
        }
        !self.finished
    }

    /// Finalizes the run: captures the surviving branches' closing
    /// balances and returns the outcome.
    /// Fork/churn counters are **not** published to the global registry
    /// here: campaign drivers re-run sims (chaos cross-checks, shrinker
    /// replays), so per-run publication would inflate the registry
    /// relative to the byte-pinned `--stats-out` totals. Callers that
    /// own a campaign read [`Self::fork_stats`] / [`Self::churn_stats`]
    /// before `finish` and publish exactly once per batch.
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

#[cfg(test)]
mod tests {
    use super::*;
    use ethpos_state::CohortState;
    use ethpos_types::Gwei;
    use ethpos_validator::{BranchChoice, DualActive, RoundRobin, ThresholdSeeker};

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
}
