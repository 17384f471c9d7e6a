//! Timeline compilation: the genesis class layout and the per-phase
//! marking plans [`PartitionSim`](super::PartitionSim) executes.

use std::collections::BTreeMap;

use ethpos_state::{ClassSpec, StateBackend};
use ethpos_stats::PreparedBinomial;
use ethpos_types::{BranchId, ChainConfig};

use super::timeline::{TimelineAction, TimelineError, TimelineEvent};

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
pub(crate) enum StepOp {
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

pub(super) struct Compiler {
    n_honest: u64,
    holdings: BTreeMap<BranchId, Intervals>,
    churn: Vec<ChurnGroupState>,
    cuts: std::collections::BTreeSet<u64>,
    next_id: u32,
    raw: Vec<RawStep>,
}

impl Compiler {
    pub(super) fn new(n_honest: u64) -> Self {
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
        if self.next_id as usize > crate::byzantine::BranchChoice::MAX_BRANCHES {
            return Err(TimelineError::new(format!(
                "split@{epoch}: more than {} branches",
                crate::byzantine::BranchChoice::MAX_BRANCHES
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

    pub(super) fn run(
        mut self,
        events: &[TimelineEvent],
    ) -> Result<CompiledTimeline, TimelineError> {
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
pub(super) fn marginal_probabilities(weights: &[f64]) -> Vec<f64> {
    let total: f64 = weights.iter().sum();
    weights.iter().map(|w| (w / total).min(1.0)).collect()
}

/// The compiled form of a [`PartitionTimeline`](super::PartitionTimeline) at a concrete honest
/// population size: the genesis class layout plus one [`CompiledStep`]
/// per event epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTimeline {
    honest_classes: Vec<u64>,
    total_branches: u32,
    pub(super) steps: Vec<CompiledStep>,
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
    /// ([`BYZANTINE_CLASS`](crate::kernel::BYZANTINE_CLASS)) of `byzantine` members, then the honest
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
    pub(super) epoch: u64,
    pub(super) ops: Vec<StepOp>,
    pub(super) plan: MarkingPlan,
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
    pub(super) pinned: Vec<(BranchId, Vec<usize>)>,
    /// Active churn groups, in creation order.
    churn: Vec<ChurnPlan>,
    /// `churned[i]`: the churned classes pinned branch `i` draws
    /// attesters from, in draw order (churn groups in plan order, classes
    /// ascending), each with its count law `Binomial(·, marginal[position
    /// of i in the group])`. Prepared at compile time so the per-epoch
    /// marking loop neither scans a group's branch list nor re-derives
    /// the per-`p` constants for every cohort.
    pub(super) churned: Vec<Vec<(usize, PreparedBinomial)>>,
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
    /// [`PartitionTimeline`](super::PartitionTimeline)'s churn semantics).
    pub marginal: Vec<f64>,
    /// The state class indices of the churned population, ascending.
    pub classes: Vec<usize>,
    /// Total members across those classes (the draw-buffer size).
    pub members: u64,
}
