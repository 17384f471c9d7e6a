//! The counterexample corpus: minimized chaos reproducers as permanent
//! regression fixtures.
//!
//! Every unexpected violation the campaign finds (and shrinks) can be
//! rendered into a self-contained JSON fixture under
//! `tests/golden/chaos/` — the case in replayable form (timeline in
//! spec syntax, adversary as its label), the oracle parameters it was
//! judged under, and the classification it must keep producing. The
//! `chaos_corpus` integration test re-runs every committed fixture and
//! asserts the verdict is unchanged, so a counterexample found once is
//! guarded forever.
//!
//! Because the current engine passes its oracles (a chaos campaign
//! finds nothing to shrink), the committed corpus is seeded with
//! [`builtin_fixtures`]: two *injected-bug* reproducers (the oracle
//! deliberately tightened until a known-good behaviour counts as a
//! violation, then shrunk end-to-end — exercising the full
//! find→shrink→emit path) and one expected-attack exemplar pinned under
//! the real oracle.
//!
//! No run mode calls this module: it is `pub` for the `chaos_corpus`
//! integration test, its one caller.

use serde::{Deserialize, Serialize};
use serde_json::Value;

use ethpos_sim::PartitionTimeline;
use ethpos_state::BackendKind;

use super::{classify, run_case, shrink, Adversary, CaseRecord, ChaosCase, OracleParams};
use crate::partition::StrategyKind;

/// A fixture parsed back from disk — everything needed to re-run and
/// re-classify the case.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayFixture {
    /// Fixture name (diagnostics only).
    pub name: String,
    /// The minimized case.
    pub case: ChaosCase,
    /// Backend the verdict was recorded on.
    pub backend: BackendKind,
    /// Oracle parameters the verdict was recorded under.
    pub oracle: OracleParams,
    /// The recorded verdict the replay must reproduce.
    pub verdict: String,
    /// The recorded conflicting-finalization epoch, if any.
    pub conflict_epoch: Option<u64>,
}

impl ReplayFixture {
    /// Re-runs the case and returns the fresh classification (the
    /// replay test compares it against the recorded one).
    pub fn replay(&self) -> super::Classification {
        classify(
            &self.case,
            &run_case(&self.case, self.backend),
            &self.oracle,
        )
    }
}

/// The serialized fixture document.
#[derive(Debug, Clone, Serialize)]
struct FixtureDoc {
    name: String,
    note: String,
    backend: String,
    oracle: OracleParams,
    case: CaseRecord,
    original: Option<CaseRecord>,
    original_size: Option<u64>,
    shrunk_size: u64,
    verdict: String,
    detail: String,
    conflict_epoch: Option<u64>,
}

/// Renders a fixture document: the (shrunk) `case`, its provenance and
/// the classification it must keep producing. The case is round-tripped
/// through [`parse_fixture`]'s decoding before classification so the
/// committed bytes are guaranteed to describe the exact case that was
/// judged.
///
/// # Panics
///
/// Panics if the case does not survive its own record/parse round-trip
/// — that would make the fixture unreplayable.
pub fn render_fixture(
    name: &str,
    note: &str,
    case: &ChaosCase,
    backend: BackendKind,
    oracle: &OracleParams,
    original: Option<&ChaosCase>,
) -> String {
    let record = case.record();
    let roundtrip = case_from_record(&record).unwrap_or_else(|e| panic!("fixture {name}: {e}"));
    assert_eq!(
        &roundtrip, case,
        "fixture {name}: case record must round-trip"
    );
    let classification = classify(&roundtrip, &run_case(&roundtrip, backend), oracle);
    let doc = FixtureDoc {
        name: name.into(),
        note: note.into(),
        backend: backend.id().to_string(),
        oracle: *oracle,
        case: record,
        original: original.map(ChaosCase::record),
        original_size: original.map(ChaosCase::size),
        shrunk_size: case.size(),
        verdict: classification.verdict,
        detail: classification.detail,
        conflict_epoch: classification.conflict_epoch,
    };
    let mut json = serde_json::to_string_pretty(&doc).expect("serializable");
    json.push('\n');
    json
}

fn field<'v>(value: &'v Value, key: &str) -> Result<&'v Value, String> {
    value
        .get(key)
        .ok_or_else(|| format!("missing field `{key}`"))
}

fn str_field<'v>(value: &'v Value, key: &str) -> Result<&'v str, String> {
    field(value, key)?
        .as_str()
        .ok_or_else(|| format!("field `{key}` is not a string"))
}

/// Decodes the object under `key` (a [`CaseRecord`] or the
/// [`OracleParams`]).
fn decode<T: Deserialize>(doc: &Value, key: &str) -> Result<T, String> {
    T::from_value(field(doc, key)?).map_err(|e| e.to_string())
}

/// Decodes an in-memory [`CaseRecord`] back into a [`ChaosCase`].
fn case_from_record(record: &CaseRecord) -> Result<ChaosCase, String> {
    Ok(ChaosCase {
        index: record.index,
        timeline: PartitionTimeline::parse(&record.timeline)
            .map_err(|e| format!("bad timeline spec: {e}"))?,
        adversary: Adversary::parse(&record.adversary)
            .ok_or_else(|| format!("bad adversary label `{}`", record.adversary))?,
        beta0: record.beta0,
        n: record.n as usize,
        max_epochs: record.max_epochs,
        engine_seed: record.engine_seed,
    })
}

/// Parses a fixture document back from its committed JSON.
pub fn parse_fixture(json: &str) -> Result<ReplayFixture, String> {
    let doc: Value = serde_json::from_str(json).map_err(|e| format!("bad fixture JSON: {e}"))?;
    Ok(ReplayFixture {
        name: str_field(&doc, "name")?.to_string(),
        case: case_from_record(&decode(&doc, "case")?)?,
        backend: BackendKind::from_id(str_field(&doc, "backend")?)
            .ok_or_else(|| "bad backend id".to_string())?,
        oracle: decode(&doc, "oracle")?,
        verdict: str_field(&doc, "verdict")?.to_string(),
        conflict_epoch: match field(&doc, "conflict_epoch")? {
            v if v.is_null() => None,
            v => Some(v.as_u64().ok_or("conflict_epoch is not a u64")?),
        },
    })
}

/// Population of the built-in fixtures: small enough that replaying the
/// whole corpus stays in test-suite time, large enough that class
/// rounding is negligible.
const FIXTURE_N: usize = 8192;

/// The committed corpus: `(file name, contents)` pairs, deterministic
/// by construction (hand-built cases, fixed seeds, no sampling).
pub fn builtin_fixtures() -> Vec<(&'static str, String)> {
    vec![
        ("expected_attack_exemplar.json", expected_attack_exemplar()),
        ("shrunk_conflict_floor.json", shrunk_conflict_floor()),
        ("shrunk_liveness_grace.json", shrunk_liveness_grace()),
    ]
}

/// The paper's headline attack as a corpus exemplar: β₀ = 0.33
/// dual-active on an even split conflicts around epoch 515 — *expected*
/// under the real oracle (Eq. 9 bound ≈ 502), and the fixture pins both
/// the verdict and the conflict epoch.
fn expected_attack_exemplar() -> String {
    let case = ChaosCase {
        index: 0,
        timeline: PartitionTimeline::two_branch(0.5),
        adversary: Adversary::Strategy(StrategyKind::DualActive),
        beta0: 0.33,
        n: FIXTURE_N,
        max_epochs: 1024,
        engine_seed: 0,
    };
    render_fixture(
        "expected_attack_exemplar",
        "the Table 2 headline attack, pinned as expected-by-model under the default oracle",
        &case,
        BackendKind::Cohort,
        &OracleParams::default(),
        None,
    )
}

/// Injected bug №1: raise the structural conflict floor until the
/// headline attack counts as an unexpected safety violation, then
/// shrink. The original carries a decoy heal event and a double-length
/// horizon; the shrinker must strip both.
fn shrunk_conflict_floor() -> String {
    let oracle = OracleParams {
        min_conflict_epoch: 1 << 20,
        ..OracleParams::default()
    };
    let original = ChaosCase {
        index: 0,
        timeline: PartitionTimeline::two_branch(0.5).heal(
            2000,
            ethpos_types::BranchId::GENESIS,
            &[ethpos_types::BranchId::new(1)],
        ),
        adversary: Adversary::Strategy(StrategyKind::DualActive),
        beta0: 0.33,
        n: FIXTURE_N,
        max_epochs: 2048,
        engine_seed: 0,
    };
    let backend = BackendKind::Cohort;
    let result = shrink::shrink_case(
        &original,
        &mut |c| classify(c, &run_case(c, backend), &oracle).verdict == "unexpected-safety",
        shrink::DEFAULT_STEP_BUDGET,
    );
    assert!(
        result.case.size() < original.size(),
        "conflict-floor reproducer must shrink"
    );
    render_fixture(
        "shrunk_conflict_floor",
        "injected bug: min_conflict_epoch raised to 2^20, so the expected β₀ = 0.33 conflict \
         classifies as an unexpected safety violation; shrunk from a decoy-heal original",
        &result.case,
        backend,
        &oracle,
        Some(&original),
    )
}

/// Injected bug №2: zero liveness grace, so a healthy supermajority
/// branch that finalizes at epoch ~2 "misses" its (impossible) epoch-0
/// bound. Shrunk end-to-end from a long-horizon original.
fn shrunk_liveness_grace() -> String {
    let oracle = OracleParams {
        grace: 0.0,
        ..OracleParams::default()
    };
    let original = ChaosCase {
        index: 0,
        timeline: PartitionTimeline::two_branch(0.8),
        adversary: Adversary::Strategy(StrategyKind::DualActive),
        beta0: 0.1,
        n: FIXTURE_N,
        max_epochs: 2048,
        engine_seed: 0,
    };
    let backend = BackendKind::Cohort;
    let result = shrink::shrink_case(
        &original,
        &mut |c| classify(c, &run_case(c, backend), &oracle).verdict == "unexpected-liveness",
        shrink::DEFAULT_STEP_BUDGET,
    );
    assert!(
        result.case.size() < original.size(),
        "liveness-grace reproducer must shrink"
    );
    render_fixture(
        "shrunk_liveness_grace",
        "injected bug: liveness grace tightened to 0 epochs, so the supermajority branch's \
         normal ~2-epoch finalization latency classifies as an unexpected liveness violation",
        &result.case,
        backend,
        &oracle,
        Some(&original),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_round_trip_and_replay_to_their_recorded_verdicts() {
        for (file, contents) in builtin_fixtures() {
            let fixture = parse_fixture(&contents).unwrap_or_else(|e| panic!("{file}: {e}"));
            let fresh = fixture.replay();
            assert_eq!(fresh.verdict, fixture.verdict, "{file}");
            assert_eq!(fresh.conflict_epoch, fixture.conflict_epoch, "{file}");
        }
    }

    #[test]
    fn injected_bug_fixtures_record_a_strict_shrink() {
        for (file, contents) in builtin_fixtures() {
            let doc: Value = serde_json::from_str(&contents).unwrap();
            let shrunk_size = doc.get("shrunk_size").and_then(Value::as_u64).unwrap();
            if let Some(original_size) = doc.get("original_size").and_then(Value::as_u64) {
                assert!(
                    shrunk_size < original_size,
                    "{file}: {shrunk_size} vs {original_size}"
                );
            }
        }
    }

    #[test]
    fn parse_fixture_rejects_malformed_documents() {
        assert!(parse_fixture("not json").is_err());
        assert!(parse_fixture("{}").is_err());
        let (_, good) = &builtin_fixtures()[0];
        let broken = good.replace("\"backend\": \"cohort\"", "\"backend\": \"sparse\"");
        assert!(parse_fixture(&broken).is_err());
    }
}
