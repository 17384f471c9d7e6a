//! Seed → request derivation: every input the program ever sees.
//!
//! The harness takes one `--seed`; everything else — each request's
//! `seed` field, the order of a hit round, the spelling of a hit body,
//! the never-seen seeds of a miss round — is a pure function of it,
//! computed here with the harness's own generator (never the
//! program's, so a change to the program's RNG cannot change its
//! inputs). The program receives only the JSON bodies.

use serde_json::Value;

use crate::json::text;

/// The seed the pinned digests in `expected/` were generated at. The
/// convention: develop on seed 1, confirm on seed 2.
pub const DEFAULT_SEED: u64 = 1;

/// Hits per `server_hit` round.
pub const HITS_PER_ROUND: usize = 500;
/// Of which large-document hits (the other artifacts share the rest).
pub const LARGE_HITS_PER_ROUND: usize = 50;
/// Submissions per `server_miss` round …
pub const MISSES_PER_ROUND: usize = 20;
/// … of which `experiment` submissions (the rest are `partition`).
pub const EXPERIMENT_MISSES_PER_ROUND: usize = 5;
/// Spellings generated per hit artifact.
pub const SPELLINGS_PER_ARTIFACT: usize = 4;

/// SplitMix64: the harness's own tiny generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for stream `stream` of seed `seed` (distinct streams
    /// never share a state sequence start).
    pub fn new(seed: u64, stream: u64) -> SplitMix64 {
        SplitMix64(mix(seed ^ mix(stream.wrapping_add(0x9E37_79B9_7F4A_7C15))))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Streams of the derivation, one per purpose.
mod stream {
    pub const FIELD: u64 = 1;
    pub const ORDER: u64 = 2;
    pub const SPELLING: u64 = 3;
    pub const MISS: u64 = 4;
}

/// The `seed` field of request `index` of a workload: even, below 2⁴⁸.
/// (Miss seeds are odd, so the two families can never produce the same
/// request.)
fn field_seed(seed: u64, index: u64) -> u64 {
    (SplitMix64::new(seed, stream::FIELD ^ (index << 8)).next_u64() >> 17) << 1
}

/// The `k`-th never-seen seed of a run: odd, strictly increasing in
/// `k`, below 2⁴⁸ + 2²⁵.
pub fn miss_seed(seed: u64, k: u64) -> u64 {
    let base = SplitMix64::new(seed, stream::MISS).next_u64() >> 17;
    ((base + k) << 1) | 1
}

/// One request to carry to a verified document.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Short stable name (`fig2_table2_table3`, `partition_presets`, …):
    /// the key of the op's pinned digest and of its spans.
    pub label: &'static str,
    /// The JSON body submitted.
    pub body: String,
}

/// A request as an ordered field list plus the defaults a caller may
/// spell out or omit without changing the canonical form.
#[derive(Debug, Clone)]
pub struct Template {
    label: &'static str,
    fields: Vec<(&'static str, Value)>,
    defaults: Vec<(&'static str, Value)>,
}

fn texts(items: &[&str]) -> Value {
    Value::Array(items.iter().map(|s| text(s)).collect())
}

fn render(fields: &[(&'static str, Value)]) -> String {
    let object = Value::Object(
        fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    );
    serde_json::to_string(&object).expect("request bodies are finite JSON")
}

impl Template {
    fn new(label: &'static str, fields: Vec<(&'static str, Value)>) -> Template {
        Template {
            label,
            fields,
            defaults: Vec::new(),
        }
    }

    fn with_defaults(mut self, defaults: Vec<(&'static str, Value)>) -> Template {
        self.defaults = defaults;
        self
    }

    fn relabel(mut self, label: &'static str) -> Template {
        self.label = label;
        self
    }

    /// The op with fields in declaration order and every default
    /// omitted.
    pub fn op(&self) -> Op {
        Op {
            label: self.label,
            body: render(&self.fields),
        }
    }

    /// A differently spelled body of the same request: field order
    /// shuffled, each default spelled out with probability ½.
    pub fn spelling(&self, rng: &mut SplitMix64) -> String {
        let mut fields = self.fields.clone();
        for default in &self.defaults {
            if rng.below(2) == 1 {
                fields.push(default.clone());
            }
        }
        rng.shuffle(&mut fields);
        render(&fields)
    }
}

/// `experiment [fig2, table2, table3]` at n = 10⁶, JSON — the 864 KB
/// document: deterministic timelines at spec scale.
fn paper_experiments(seed: u64) -> Template {
    Template::new(
        "fig2_table2_table3_1m",
        vec![
            ("kind", text("experiment")),
            ("experiments", texts(&["fig2", "table2", "table3"])),
            ("validators", Value::U64(1_000_000)),
            ("format", text("json")),
            ("seed", Value::U64(seed)),
        ],
    )
    .with_defaults(vec![
        ("walkers", Value::U64(20_000)),
        ("epochs", Value::U64(8000)),
        ("backend", text("cohort")),
    ])
}

/// `partition` (both presets) at n = 10⁶.
fn partition_presets(seed: u64) -> Template {
    Template::new(
        "partition_presets_1m",
        vec![
            ("kind", text("partition")),
            ("validators", Value::U64(1_000_000)),
            ("seed", Value::U64(seed)),
        ],
    )
    .with_defaults(vec![("backend", text("cohort")), ("format", text("json"))])
}

/// The 50/50 churn partition: the fragmentation floor.
fn churn_partition(seed: u64, validators: u64, epochs: u64) -> Template {
    Template::new(
        "churn_partition",
        vec![
            ("kind", text("partition")),
            ("timelines", texts(&["churn@0:0=0.5,0.5"])),
            ("beta0", Value::F64(CHURN_BETA0)),
            ("validators", Value::U64(validators)),
            ("epochs", Value::U64(epochs)),
            ("seed", Value::U64(seed)),
        ],
    )
}

fn search(label: &'static str, objective: &str, budget: u64, seed: u64) -> Template {
    Template::new(
        label,
        vec![
            ("kind", text("search")),
            ("objective", text(objective)),
            ("budget", Value::U64(budget)),
            ("seed", Value::U64(seed)),
        ],
    )
    .with_defaults(vec![
        ("validators", Value::U64(1_000_000)),
        ("p0", Value::F64(0.5)),
        ("max_period", Value::U64(3)),
        ("lambda", Value::U64(16)),
        ("backend", text("cohort")),
        ("format", text("json")),
    ])
}

/// The paper-at-spec-scale round (also what `server_miss` submits, so
/// miss − direct execute is the server's own cost).
pub fn paper_1m(seed: u64) -> Vec<Template> {
    vec![
        paper_experiments(field_seed(seed, 0)),
        partition_presets(field_seed(seed, 1)),
    ]
}

/// Validators of the `churn_leak` partition (the issue's 10⁵ cut so a
/// 10 s run holds ≥ 8 rounds; cohorts per member are unchanged).
pub const CHURN_VALIDATORS: u64 = 30_000;
/// Epoch horizon of the `churn_leak` partition.
pub const CHURN_EPOCHS: u64 = 128;
/// Byzantine share of the `churn_leak` partition. At the CLI default
/// 0.33 the membership draws of some seeds carry a branch over ⅔ and
/// the run stops on conflict at epoch ≈ 50 — a 5× cheaper request.
/// At 0.2 no branch can finalize (≈ 0.4 honest + 0.2 Byzantine), so
/// every seed simulates the full horizon.
pub const CHURN_BETA0: f64 = 0.2;

/// The fragmentation-floor round.
pub fn churn_leak(seed: u64) -> Vec<Template> {
    vec![churn_partition(
        field_seed(seed, 0),
        CHURN_VALIDATORS,
        CHURN_EPOCHS,
    )]
}

/// A half-horizon churn partition: the `churn_leak` warm-up.
pub fn churn_leak_warmup(seed: u64) -> Vec<Template> {
    // Its own label: a label whose document varies within a run is
    // never pinned.
    vec![
        churn_partition(field_seed(seed, 0), CHURN_VALIDATORS, CHURN_EPOCHS / 2)
            .relabel("churn_partition_warmup"),
    ]
}

/// The three search objectives: memo-hit path, early-stop path,
/// full-horizon path.
pub fn search_frontier(seed: u64) -> Vec<Template> {
    vec![
        search(
            "search_nsh",
            "non-slashable-horizon",
            4096,
            field_seed(seed, 0),
        ),
        search("search_conflict", "conflict", 128, field_seed(seed, 1)),
        search("search_proportion", "proportion", 64, field_seed(seed, 2)),
    ]
}

/// Walkers of the `bouncing_mc` Monte-Carlo ops (half the CLI default,
/// so a 10 s run holds ≥ 8 rounds; cost is linear in walkers).
pub const MC_WALKERS: u64 = 10_000;

/// §5.3 walk MC, the sweep grid, and the closed forms.
pub fn bouncing_mc(seed: u64) -> Vec<Template> {
    vec![
        Template::new(
            "fig10_walks",
            vec![
                ("kind", text("experiment")),
                ("experiments", texts(&["fig10"])),
                ("walkers", Value::U64(MC_WALKERS)),
                ("seed", Value::U64(field_seed(seed, 0))),
            ],
        ),
        Template::new(
            "sweep_grid",
            vec![
                ("kind", text("sweep")),
                ("walkers", Value::Array(vec![Value::U64(MC_WALKERS)])),
                ("seed", Value::U64(field_seed(seed, 1))),
            ],
        ),
        closed_forms(field_seed(seed, 2)),
    ]
}

/// Every closed-form table and figure in one request.
pub fn closed_forms(seed: u64) -> Template {
    Template::new(
        "closed_forms",
        vec![
            ("kind", text("experiment")),
            (
                "experiments",
                texts(&[
                    "table1", "table2", "table3", "fig3", "fig6", "fig7", "fig8", "fig9",
                ]),
            ),
            ("seed", Value::U64(seed)),
        ],
    )
}

/// Campaign seeds of the `chaos_campaign` round. Case cost is heavy
/// tailed (one deep churn case can cost as much as the other 63), so a
/// campaign drawn from `--seed` costs 2× more or less from one seed to
/// the next; the round therefore runs this fixed set of campaigns and
/// `--seed` only decides their order.
pub const CHAOS_CAMPAIGN_SEEDS: [u64; 4] = [1, 2, 3, 4];
/// Cases per campaign.
pub const CHAOS_BUDGET: u64 = 16;
/// Validators per case.
pub const CHAOS_VALIDATORS: u64 = 10_000;
/// Epoch cap per case.
pub const CHAOS_EPOCHS: u64 = 128;

fn chaos(label: &'static str, campaign_seed: u64) -> Template {
    Template::new(
        label,
        vec![
            ("kind", text("chaos")),
            ("budget", Value::U64(CHAOS_BUDGET)),
            ("validators", Value::U64(CHAOS_VALIDATORS)),
            ("epochs", Value::U64(CHAOS_EPOCHS)),
            ("seed", Value::U64(campaign_seed)),
        ],
    )
}

/// The chaos round: the fixed campaigns in a seed-shuffled order.
pub fn chaos_campaign(seed: u64) -> Vec<Template> {
    const LABELS: [&str; 4] = ["chaos_a", "chaos_b", "chaos_c", "chaos_d"];
    let mut campaigns: Vec<Template> = LABELS
        .iter()
        .zip(CHAOS_CAMPAIGN_SEEDS)
        .map(|(label, campaign_seed)| chaos(label, campaign_seed))
        .collect();
    SplitMix64::new(seed, stream::ORDER).shuffle(&mut campaigns);
    campaigns
}

/// The eight prefilled artifacts of `server_hit`: seven small documents
/// (≈ 0.5 KB … 50 KB, every request kind) and the 864 KB one, last.
pub fn hit_artifacts(seed: u64) -> Vec<Template> {
    let s = |i: u64| Value::U64(field_seed(seed, 16 + i));
    vec![
        partition_presets(field_seed(seed, 16)).relabel("hit_partition_json"),
        Template::new(
            "hit_partition_text",
            vec![
                ("kind", text("partition")),
                ("validators", Value::U64(1_000_000)),
                ("format", text("text")),
                ("seed", s(1)),
            ],
        )
        .with_defaults(vec![("backend", text("cohort"))]),
        Template::new(
            "hit_table2_json",
            vec![
                ("kind", text("experiment")),
                ("experiments", texts(&["table2"])),
                ("seed", s(2)),
            ],
        )
        .with_defaults(vec![
            ("walkers", Value::U64(20_000)),
            ("epochs", Value::U64(8000)),
            ("backend", text("cohort")),
            ("format", text("json")),
        ]),
        Template::new(
            "hit_table1_text",
            vec![
                ("kind", text("experiment")),
                ("experiments", texts(&["table1", "table3"])),
                ("format", text("text")),
                ("seed", s(3)),
            ],
        )
        .with_defaults(vec![("backend", text("cohort"))]),
        Template::new(
            "hit_search_small",
            vec![
                ("kind", text("search")),
                ("objective", text("conflict")),
                ("validators", Value::U64(600)),
                ("beta0", Value::F64(0.34)),
                ("epochs", Value::U64(400)),
                ("budget", Value::U64(24)),
                ("max_period", Value::U64(2)),
                ("lambda", Value::U64(8)),
                ("seed", s(4)),
            ],
        )
        .with_defaults(vec![
            ("p0", Value::F64(0.5)),
            ("backend", text("cohort")),
            ("format", text("json")),
        ]),
        Template::new(
            "hit_sweep_small",
            vec![
                ("kind", text("sweep")),
                ("walkers", Value::Array(vec![Value::U64(200)])),
                ("epochs", Value::U64(300)),
                ("seed", s(5)),
            ],
        )
        .with_defaults(vec![
            ("p0", Value::Array(vec![Value::F64(0.5)])),
            ("semantics", texts(&["paper"])),
            ("format", text("json")),
        ]),
        Template::new(
            "hit_chaos_small",
            vec![
                ("kind", text("chaos")),
                ("budget", Value::U64(4)),
                ("validators", Value::U64(2000)),
                ("epochs", Value::U64(64)),
                ("seed", s(6)),
            ],
        )
        .with_defaults(vec![("backend", text("cohort")), ("format", text("json"))]),
        paper_experiments(field_seed(seed, 23)).relabel("hit_fig2_large"),
    ]
}

/// One hit of a round: which artifact, in which spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hit {
    /// Index into [`hit_artifacts`].
    pub artifact: usize,
    /// Index into that artifact's spellings.
    pub spelling: usize,
}

/// The spellings of each hit artifact (all of one artifact canonicalize
/// to one address).
pub fn hit_spellings(seed: u64, artifacts: &[Template]) -> Vec<Vec<String>> {
    let mut rng = SplitMix64::new(seed, stream::SPELLING);
    artifacts
        .iter()
        .map(|t| {
            (0..SPELLINGS_PER_ARTIFACT)
                .map(|_| t.spelling(&mut rng))
                .collect()
        })
        .collect()
}

/// The hit list of round `round`: a fixed composition — exactly
/// [`LARGE_HITS_PER_ROUND`] hits on the last (large) artifact, the rest
/// dealt evenly over the small ones — in a seed-shuffled order, so
/// every round of every seed moves the same bytes.
pub fn hit_round(seed: u64, round: u64, artifacts: usize) -> Vec<Hit> {
    let mut rng = SplitMix64::new(seed, stream::ORDER ^ (round << 8));
    let small = artifacts - 1;
    let mut hits: Vec<Hit> = (0..HITS_PER_ROUND)
        .map(|i| Hit {
            artifact: if i < LARGE_HITS_PER_ROUND {
                small
            } else {
                (i - LARGE_HITS_PER_ROUND) % small
            },
            spelling: i % SPELLINGS_PER_ARTIFACT,
        })
        .collect();
    rng.shuffle(&mut hits);
    hits
}

/// The submissions of miss round `round` (0 is the first round of the
/// run, warm-up included): the `paper_1m` requests under never-seen
/// seeds, an experiment in every fourth slot. The first partition and
/// the first experiment of round 0 carry their own labels: at a given
/// `--seed` they are always the same two requests, so their documents
/// can be pinned.
pub fn miss_round(seed: u64, round: u64) -> Vec<Op> {
    let every = MISSES_PER_ROUND / EXPERIMENT_MISSES_PER_ROUND;
    (0..MISSES_PER_ROUND)
        .map(|i| {
            let fresh = miss_seed(seed, round * MISSES_PER_ROUND as u64 + i as u64);
            let first = round == 0 && i < every;
            if i % every == every - 1 {
                let label = if first {
                    "miss_experiment_first"
                } else {
                    "miss_experiment"
                };
                paper_experiments(fresh).relabel(label).op()
            } else {
                let label = if first && i == 0 {
                    "miss_partition_first"
                } else {
                    "miss_partition"
                };
                partition_presets(fresh).relabel(label).op()
            }
        })
        .collect()
}

/// Whether `miss_round` slot `i` is one whose served document is also
/// checked against a direct `execute` (the first partition and the
/// first experiment of every round; checking all twenty would double
/// the run).
pub fn miss_slot_is_cross_checked(i: usize) -> bool {
    let every = MISSES_PER_ROUND / EXPERIMENT_MISSES_PER_ROUND;
    i == 0 || i == every - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethpos_core::JobRequest;
    use std::collections::BTreeSet;

    fn bodies(templates: &[Template]) -> Vec<String> {
        templates.iter().map(|t| t.op().body).collect()
    }

    #[test]
    fn derivation_is_a_pure_function_of_the_seed() {
        for build in [
            paper_1m,
            churn_leak,
            churn_leak_warmup,
            search_frontier,
            bouncing_mc,
            chaos_campaign,
            hit_artifacts,
        ] {
            assert_eq!(bodies(&build(7)), bodies(&build(7)));
        }
        assert_ne!(bodies(&paper_1m(1)), bodies(&paper_1m(2)));
        assert_eq!(hit_round(3, 5, 8), hit_round(3, 5, 8));
        assert_ne!(hit_round(3, 5, 8), hit_round(3, 6, 8));
        assert_ne!(hit_round(3, 5, 8), hit_round(4, 5, 8));
        assert_eq!(miss_round(9, 2), miss_round(9, 2));
        let a = hit_artifacts(5);
        assert_eq!(hit_spellings(5, &a), hit_spellings(5, &a));
    }

    #[test]
    fn every_generated_body_is_a_valid_request() {
        for seed in [1, 2, u64::MAX] {
            for templates in [
                paper_1m(seed),
                churn_leak(seed),
                churn_leak_warmup(seed),
                search_frontier(seed),
                bouncing_mc(seed),
                chaos_campaign(seed),
                hit_artifacts(seed),
            ] {
                for body in bodies(&templates) {
                    JobRequest::parse(&body).unwrap_or_else(|e| panic!("{body}: {e}"));
                }
            }
            for op in miss_round(seed, 0) {
                JobRequest::parse(&op.body).unwrap_or_else(|e| panic!("{}: {e}", op.body));
            }
        }
    }

    #[test]
    fn spellings_differ_in_bytes_but_share_one_address() {
        let artifacts = hit_artifacts(DEFAULT_SEED);
        let spellings = hit_spellings(DEFAULT_SEED, &artifacts);
        let mut distinct = 0;
        for (template, spelled) in artifacts.iter().zip(&spellings) {
            let address = JobRequest::parse(&template.op().body)
                .expect("parses")
                .request_hash();
            for body in spelled {
                let parsed = JobRequest::parse(body).unwrap_or_else(|e| panic!("{body}: {e}"));
                assert_eq!(parsed.request_hash(), address, "{body}");
                distinct += usize::from(*body != template.op().body);
            }
        }
        assert!(distinct > artifacts.len(), "spellings must actually vary");
    }

    #[test]
    fn hit_rounds_have_a_fixed_composition() {
        for seed in [1, 2, 99] {
            let hits = hit_round(seed, 0, 8);
            assert_eq!(hits.len(), HITS_PER_ROUND);
            let large = hits.iter().filter(|h| h.artifact == 7).count();
            assert_eq!(large, LARGE_HITS_PER_ROUND);
            for artifact in 0..7 {
                let n = hits.iter().filter(|h| h.artifact == artifact).count();
                assert!((64..=65).contains(&n), "artifact {artifact}: {n}");
            }
        }
    }

    #[test]
    fn miss_addresses_never_collide_with_prefilled_or_earlier_ones() {
        for seed in [1, 2, 12345] {
            let mut seen: BTreeSet<String> = hit_artifacts(seed)
                .iter()
                .chain(&paper_1m(seed))
                .map(|t| {
                    JobRequest::parse(&t.op().body)
                        .expect("parses")
                        .request_hash()
                })
                .collect();
            let before = seen.len();
            let rounds = 40;
            for round in 0..rounds {
                let ops = miss_round(seed, round);
                let experiments = ops
                    .iter()
                    .filter(|o| o.label.starts_with("miss_experiment"))
                    .count();
                assert_eq!(experiments, EXPERIMENT_MISSES_PER_ROUND);
                for op in ops {
                    let hash = JobRequest::parse(&op.body).expect("parses").request_hash();
                    assert!(seen.insert(hash), "collision at round {round}: {}", op.body);
                }
            }
            assert_eq!(seen.len(), before + rounds as usize * MISSES_PER_ROUND);
        }
    }

    #[test]
    fn chaos_rounds_run_the_same_campaigns_in_seeded_order() {
        let sorted = |seed| {
            let mut b = bodies(&chaos_campaign(seed));
            b.sort();
            b
        };
        assert_eq!(sorted(1), sorted(2));
        assert!((1..20).any(|s| bodies(&chaos_campaign(s)) != bodies(&chaos_campaign(1))));
    }
}
