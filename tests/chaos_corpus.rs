//! The chaos counterexample corpus: every committed reproducer under
//! `tests/golden/chaos/` replays to its recorded classification.
//!
//! A fixture is a self-contained JSON document (see
//! [`ethpos::core::chaos::corpus`]): the minimized case in replayable
//! form, the oracle parameters it was judged under, and the verdict it
//! must keep producing. The replay test re-runs every committed file —
//! so a counterexample found (and shrunk) once by a chaos campaign is
//! guarded forever, even after the campaign itself stops sampling it.
//!
//! The committed corpus is seeded with
//! [`ethpos::core::chaos::corpus::builtin_fixtures`]: one
//! expected-attack exemplar pinned under the real oracle, plus two
//! injected-bug reproducers that exercise the full find→shrink→emit
//! path. After an **intentional** behaviour change, regenerate every
//! fixture set with
//!
//! ```bash
//! REGEN_GOLDEN=1 cargo test --test golden_snapshots --test chaos_corpus --test churn_law_pins
//! ```
//!
//! and review the fixture diff like any other code change.

use std::path::PathBuf;

use ethpos::core::chaos::corpus;

fn chaos_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("chaos")
}

/// Every committed fixture parses, replays, and reproduces its recorded
/// verdict and conflict epoch byte-for-byte from the engine of today.
#[test]
fn every_committed_fixture_replays_to_its_recorded_classification() {
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        // The sibling test is rewriting the corpus; replaying against
        // half-written files would race it.
        return;
    }
    let mut replayed = 0;
    for entry in std::fs::read_dir(chaos_dir()).expect("tests/golden/chaos exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let raw = std::fs::read_to_string(&path).unwrap();
        let fixture =
            corpus::parse_fixture(&raw).unwrap_or_else(|e| panic!("{path:?} is malformed: {e}"));
        let fresh = fixture.replay();
        assert_eq!(
            fresh.verdict, fixture.verdict,
            "{path:?}: the recorded verdict drifted"
        );
        assert_eq!(
            fresh.conflict_epoch, fixture.conflict_epoch,
            "{path:?}: the recorded conflict epoch drifted"
        );
        replayed += 1;
    }
    assert!(
        replayed >= 3,
        "corpus unexpectedly small ({replayed} fixtures)"
    );
}

/// The committed bytes match what `builtin_fixtures` renders today, and
/// the directory carries no stale or missing files — the corpus-seeding
/// code and the corpus itself cannot drift apart silently. Set
/// `REGEN_GOLDEN` to rewrite instead of compare.
#[test]
fn builtin_fixtures_match_the_committed_corpus() {
    let dir = chaos_dir();
    let builtins = corpus::builtin_fixtures();
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(&dir).unwrap();
        for (name, contents) in &builtins {
            std::fs::write(dir.join(name), contents).unwrap();
        }
        return;
    }
    for (name, rendered) in &builtins {
        let path = dir.join(name);
        let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "cannot read {path:?}: {e}\n(run `REGEN_GOLDEN=1 cargo test --test \
                 golden_snapshots --test chaos_corpus --test churn_law_pins` to create it)"
            )
        });
        assert!(
            &pinned == rendered,
            "{name} drifted from the pinned fixture.\n\
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
    let mut expected: Vec<String> = builtins.iter().map(|(n, _)| n.to_string()).collect();
    expected.sort();
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .expect("tests/golden/chaos exists")
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".json"))
        .collect();
    on_disk.sort();
    assert_eq!(on_disk, expected, "regenerate or remove stale fixtures");
}
