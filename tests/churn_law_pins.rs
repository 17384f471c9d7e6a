//! Byte pins for the churn laws the perf ledger does not reach.
//!
//! The ledger's `churn_leak` digest covers the 50/50 law only, so a
//! count sampler that went wrong on the mirrored half-plane (`p > ½`) or
//! on a three-way conditional chain would pass it. These fixtures pin an
//! asymmetric two-way and a three-way churn timeline at n = 20 000,
//! β₀ = 0.2, 96 epochs, seed 9 — twice each: the document the CLI and
//! the server render for the request (`<name>.json`), and, because that
//! document is a dozen summary fields, a deep pin of the run itself
//! (`<name>.run.json`: draw counters, every eighth epoch's per-branch
//! record and a digest of each branch's final cohort snapshot, which
//! depends on every count drawn along the way).
//!
//! The fixtures were generated at the commit *before* the three-pass
//! churn epoch landed; regenerate (`REGEN_GOLDEN=1 cargo test --test
//! churn_law_pins`) only for an intentional byte-contract change.

use std::path::PathBuf;

use ethpos::core::partition::StrategyKind;
use ethpos::core::JobRequest;
use ethpos::crypto::hash;
use ethpos::sim::{PartitionConfig, PartitionSim, PartitionTimeline};
use ethpos::state::{CohortState, StateBackend};

const VALIDATORS: usize = 20_000;
const BYZANTINE: usize = 4_000; // β₀ = 0.2
const EPOCHS: u64 = 96;
const SEED: u64 = 9;

/// `(fixture stem, timeline)`.
const LAWS: [(&str, &str); 2] = [
    ("churn_03_07", "churn@0:0=0.3,0.7"),
    ("churn_02_03_05", "churn@0:0=0.2,0.3,0.5"),
];

fn check_or_regen(file_name: &str, rendered: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/churn_laws")
        .join(file_name);
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, rendered).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
        return;
    }
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    assert!(
        pinned == rendered,
        "{file_name} drifted from the pinned fixture; first divergence at byte {}",
        pinned
            .bytes()
            .zip(rendered.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| pinned.len().min(rendered.len())),
    );
}

/// The request the CLI builds for `partition --timeline <spec> --beta0
/// 0.2 --validators 20000 --epochs 96 --seed 9 --format json`.
#[test]
fn rendered_documents_match_the_parent_commit() {
    for (stem, timeline) in LAWS {
        let request = JobRequest::parse(&format!(
            r#"{{"kind": "partition", "timelines": ["{timeline}"], "beta0": 0.2,
                "validators": {VALIDATORS}, "epochs": {EPOCHS}, "seed": {SEED},
                "format": "json"}}"#
        ))
        .expect("valid request");
        check_or_regen(&format!("{stem}.json"), &request.execute().document);
    }
}

/// The same runs on the engine directly, read deeper than the document
/// goes.
#[test]
fn draw_streams_and_final_states_match_the_parent_commit() {
    for (stem, timeline) in LAWS {
        let timeline = PartitionTimeline::parse(timeline).expect("timeline parses");
        let config = PartitionConfig {
            seed: SEED,
            stop_on_conflict: false,
            stop_on_finalization: false,
            record_every: 8,
            ..PartitionConfig::paper(VALIDATORS, BYZANTINE, timeline, EPOCHS)
        };
        let mut sim =
            PartitionSim::<CohortState>::with_backend(config, StrategyKind::RotateDwell.build())
                .expect("timeline compiles");
        while sim.step() {}
        let churn = sim.churn_stats();
        let states: Vec<String> = sim
            .live_branches()
            .into_iter()
            .map(|b| {
                let state = sim.branch(b);
                let snapshot = serde_json::to_string(&state.snapshot()).expect("serializable");
                format!(
                    "    {{\"branch\": {}, \"cohorts\": {}, \"snapshot_digest\": \"{}\"}}",
                    b.as_u64(),
                    state.num_cohorts(),
                    hash(snapshot.as_bytes())
                )
            })
            .collect();
        let outcome = serde_json::to_string_pretty(&sim.finish()).expect("serializable");
        let rendered = format!(
            "{{\n  \"draws\": {},\n  \"members\": {},\n  \"final_states\": [\n{}\n  ],\n  \"outcome\": {}\n}}\n",
            churn.draws,
            churn.members,
            states.join(",\n"),
            outcome.replace('\n', "\n  "),
        );
        check_or_regen(&format!("{stem}.run.json"), &rendered);
    }
}
