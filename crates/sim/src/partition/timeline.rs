//! The timeline algebra: partition events over named branches, their
//! builders, and the CLI spec syntax (`parse` / `render`).

use ethpos_types::BranchId;

use super::compile::{CompiledTimeline, Compiler};

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
