//! The golden-snapshot corpus: every paper scenario's outcome **and**
//! final per-validator state, pinned byte-for-byte.
//!
//! Each fixture under `tests/golden/` holds the full `TwoBranchOutcome`
//! plus both branches' run-length-encoded final `StateSnapshot`s for one
//! of the five paper scenarios. The tests re-run the scenarios and
//! compare the rendered JSON against the committed bytes — so a refactor
//! of the simulation stack (like the k-branch partition-engine rewrite
//! that produced this corpus) is proven byte-exact against pinned
//! *state*, not just summary numbers.
//!
//! After an **intentional** behaviour change, regenerate every fixture
//! set with
//!
//! ```bash
//! REGEN_GOLDEN=1 cargo test --test golden_snapshots --test chaos_corpus --test churn_law_pins
//! ```
//!
//! and review the fixture diff like any other code change.

use std::path::PathBuf;

use ethpos::core::golden;
use ethpos::core::BackendKind;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Compares `rendered` against the committed fixture, or rewrites the
/// fixture when `REGEN_GOLDEN` is set.
fn check_or_regen(file_name: &str, rendered: &str) {
    let path = golden_dir().join(file_name);
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, rendered).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
        return;
    }
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {path:?}: {e}\n(run `REGEN_GOLDEN=1 cargo test --test golden_snapshots \
             --test chaos_corpus --test churn_law_pins` to create it)"
        )
    });
    assert!(
        pinned == rendered,
        "{file_name} drifted from the pinned fixture.\n\
         If the behaviour change is intentional, regenerate with\n\
         `REGEN_GOLDEN=1 cargo test --test golden_snapshots --test chaos_corpus \
         --test churn_law_pins`\n\
         and review the diff.\n\
         first divergence at byte {}",
        pinned
            .bytes()
            .zip(rendered.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| pinned.len().min(rendered.len())),
    );
}

/// Every scenario's dense rendering matches its committed fixture
/// byte-for-byte.
#[test]
fn dense_renderings_match_the_pinned_fixtures() {
    for scenario in golden::scenarios() {
        check_or_regen(&scenario.file_name(), &scenario.render());
    }
}

/// The cohort-compressed backend renders the **same bytes** for every
/// fixed-partition scenario — outcome and final snapshots alike (the
/// churn scenario consumes its Bernoulli stream in backend order, so
/// only its dense rendering is pinned; its cohort path is covered by
/// the `backend_equivalence` property tests at the marginal-law level).
#[test]
fn cohort_renderings_match_the_pinned_fixtures() {
    for scenario in golden::scenarios() {
        if !scenario.backend_agnostic() {
            continue;
        }
        let (outcome, snapshots) = scenario.run(BackendKind::Cohort);
        check_or_regen(
            &scenario.file_name(),
            &scenario.render_from(outcome, snapshots),
        );
    }
}

/// The corpus stays in sync with the scenario registry: no stale or
/// missing fixture files.
#[test]
fn fixture_directory_matches_the_registry() {
    let mut expected: Vec<String> = golden::scenarios().iter().map(|s| s.file_name()).collect();
    expected.sort();
    let mut on_disk: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("tests/golden exists")
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".json"))
        .collect();
    on_disk.sort();
    assert_eq!(on_disk, expected, "regenerate or remove stale fixtures");
}

/// The fixtures pin the paper's headline behaviours, not just bytes:
/// spot-check the §5.2.1 conflict epoch and the §5.2.3 non-finalization
/// straight from the committed JSON.
#[test]
fn fixtures_witness_the_paper_behaviours() {
    let read = |name: &str| -> serde_json::Value {
        let raw = std::fs::read_to_string(golden_dir().join(name)).expect("fixture exists");
        serde_json::from_str(&raw).expect("valid JSON")
    };
    let conflict_of = |value: &serde_json::Value| -> Option<u64> {
        value
            .get("outcome")
            .and_then(|o| o.get("conflicting_finalization_epoch"))
            .and_then(|t| t.as_u64())
    };
    let dual = read("s521_dual_active.json");
    let conflict = conflict_of(&dual).expect("dual-active must conflict");
    assert!(
        (495..530).contains(&conflict),
        "paper: 502 for β₀ = 0.33, discrete staircase ≈ 513-519, got {conflict}"
    );
    assert_eq!(conflict_of(&read("s523_threshold_seeker.json")), None);
    assert_eq!(conflict_of(&read("s51_honest_even_split.json")), None);
    let semi_conflict =
        conflict_of(&read("s522_semi_active.json")).expect("semi-active must conflict");
    assert!(semi_conflict >= conflict, "non-slashable is never faster");
    // the bouncing fixture keeps both branches unfinalized at β₀ = 1/3
    let bouncing = read("s53_bouncing.json");
    assert_eq!(conflict_of(&bouncing), None);
    let epochs_run = bouncing
        .get("outcome")
        .and_then(|o| o.get("epochs_run"))
        .and_then(|t| t.as_u64());
    assert_eq!(epochs_run, Some(400));
}
