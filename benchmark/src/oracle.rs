//! The correctness oracle: every op's document is digested and an op
//! fails when
//!
//! 1. two executions of the same body in one run produce different
//!    bytes,
//! 2. a served document differs from the direct `execute` of the same
//!    body, or
//! 3. the document differs from the digest pinned for its label in
//!    `expected/<workload>.digests`.
//!
//! A speed-up that changes a byte therefore shows up as a failed op,
//! never as a win.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// Hex digest of a document (`ethpos_crypto::hash`, the same function
/// that addresses artifacts).
pub fn digest(bytes: &[u8]) -> String {
    ethpos_crypto::hash(bytes)
        .as_bytes()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Pinned digests by op label.
pub type Pins = BTreeMap<String, String>;

/// Renders a digest file: a header comment, then `label digest` lines
/// in label order.
pub fn render_pins(workload: &str, seed: u64, pins: &Pins) -> String {
    let mut out = format!(
        "# {workload}: document digests at --seed {seed}, salt {}\n\
         # Regenerate only in a benchmark PR: `run --seed {seed} --regen-digests`.\n",
        ethpos_core::ARTIFACT_SALT
    );
    for (label, hex) in pins {
        out.push_str(&format!("{label} {hex}\n"));
    }
    out
}

/// Parses a digest file (blank lines and `#` comments ignored).
///
/// # Errors
///
/// Returns the offending line when it is not `label digest`.
pub fn parse_pins(text: &str) -> Result<Pins, String> {
    let mut pins = Pins::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line.split_whitespace().collect::<Vec<_>>()[..] {
            [label, hex] if hex.len() == 64 && hex.bytes().all(|b| b.is_ascii_hexdigit()) => {
                pins.insert(label.to_string(), hex.to_string());
            }
            _ => return Err(format!("malformed digest line `{line}`")),
        }
    }
    Ok(pins)
}

/// Loads a digest file; a missing file pins nothing.
///
/// # Errors
///
/// Returns a message when the file exists but does not parse.
pub fn load_pins(path: &Path) -> Result<Pins, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse_pins(&text).map_err(|e| format!("{}: {e}", path.display())),
        Err(_) => Ok(Pins::new()),
    }
}

/// What the oracle has seen under one label.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LabelState {
    digest: String,
    /// Different documents appeared under this label (a miss label:
    /// every submission is a new request). Such labels are never
    /// pinned.
    varied: bool,
}

/// Counts attempted and failed ops and keeps the first few reasons.
#[derive(Debug, Default)]
pub struct Verifier {
    pins: Pins,
    by_body: HashMap<String, String>,
    by_label: BTreeMap<&'static str, LabelState>,
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Verifier {
    /// An oracle checking against `pins` (empty: rules 1 and 2 only).
    pub fn new(pins: Pins) -> Verifier {
        Verifier {
            pins,
            ..Verifier::default()
        }
    }

    /// Ops attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Ops failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The first few failure reasons.
    pub fn reasons(&self) -> &[String] {
        &self.reasons
    }

    fn conclude(&mut self, label: &str, problem: Option<String>) -> bool {
        self.attempted += 1;
        match problem {
            None => true,
            Some(why) => {
                self.failed += 1;
                if self.reasons.len() < 8 {
                    self.reasons.push(format!("{label}: {why}"));
                }
                false
            }
        }
    }

    /// Judges one op that produced the document digesting to `hex` for
    /// `body`. `reference` is the digest of the direct `execute` of the
    /// same body when the document was served rather than executed by
    /// the harness.
    pub fn check(
        &mut self,
        label: &'static str,
        body: &str,
        hex: String,
        reference: Option<&str>,
    ) -> bool {
        let mut problem = None;
        match self.by_body.get(body) {
            Some(earlier) if *earlier != hex => {
                problem = Some(format!(
                    "two executions of one body differ ({earlier} then {hex})"
                ));
            }
            Some(_) => {}
            None => {
                self.by_body.insert(body.to_string(), hex.clone());
            }
        }
        if let Some(direct) = reference {
            if direct != hex {
                problem = Some(format!(
                    "served document {hex} differs from direct execute {direct}"
                ));
            }
        }
        if let Some(pinned) = self.pins.get(label) {
            if *pinned != hex {
                problem = Some(format!("document {hex} differs from pinned {pinned}"));
            }
        }
        match self.by_label.get_mut(label) {
            Some(state) => state.varied |= state.digest != hex,
            None => {
                self.by_label.insert(
                    label,
                    LabelState {
                        digest: hex,
                        varied: false,
                    },
                );
            }
        }
        self.conclude(label, problem)
    }

    /// Judges one op by a precomputed verdict (a hit whose raw response
    /// bytes were compared with the response verified at warm-up; a
    /// non-2xx status; a job that ended in `error`).
    pub fn judge(&mut self, label: &'static str, verdict: Result<(), String>) -> bool {
        self.conclude(label, verdict.err())
    }

    /// The digests worth pinning: every label whose document never
    /// varied during the run.
    pub fn stable_digests(&self) -> Pins {
        self.by_label
            .iter()
            .filter(|(_, s)| !s.varied)
            .map(|(label, s)| (label.to_string(), s.digest.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_files_round_trip() {
        let mut pins = Pins::new();
        pins.insert("b_op".into(), digest(b"two"));
        pins.insert("a_op".into(), digest(b"one"));
        let text = render_pins("paper_1m", 1, &pins);
        assert!(text.starts_with("# paper_1m"));
        assert_eq!(parse_pins(&text), Ok(pins));
        assert!(parse_pins("label nothex").is_err());
        assert!(parse_pins("just-one-token").is_err());
        assert_eq!(parse_pins("\n# only comments\n"), Ok(Pins::new()));
    }

    #[test]
    fn the_three_rules_each_fail_an_op() {
        let mut pins = Pins::new();
        pins.insert("pinned".into(), digest(b"expected bytes"));
        let mut v = Verifier::new(pins);
        // Rule 3: pinned label, right then wrong bytes.
        assert!(v.check("pinned", "{\"a\":1}", digest(b"expected bytes"), None));
        assert!(!v.check("pinned", "{\"a\":2}", digest(b"other bytes"), None));
        // Rule 1: same body, different bytes.
        assert!(v.check("free", "{\"b\":1}", digest(b"doc"), None));
        assert!(v.check("free", "{\"b\":1}", digest(b"doc"), None));
        assert!(!v.check("free", "{\"b\":1}", digest(b"doc!"), None));
        // Rule 2: served differs from direct.
        let direct = digest(b"served");
        assert!(v.check("served", "{\"c\":1}", digest(b"served"), Some(&direct)));
        assert!(!v.check("served", "{\"c\":2}", digest(b"tampered"), Some(&direct)));
        // Precomputed verdicts count too.
        assert!(v.judge("status", Ok(())));
        assert!(!v.judge("status", Err("HTTP 429".into())));
        assert_eq!((v.attempted(), v.failed()), (9, 4));
        assert_eq!(v.reasons().len(), 4);
    }

    #[test]
    fn only_labels_whose_document_never_varied_are_pinned() {
        let mut v = Verifier::new(Pins::new());
        v.check("stable", "{\"x\":1}", digest(b"same"), None);
        v.check("stable", "{\"x\":1}", digest(b"same"), None);
        v.check("fresh", "{\"seed\":1}", digest(b"doc 1"), None);
        v.check("fresh", "{\"seed\":3}", digest(b"doc 3"), None);
        let pins = v.stable_digests();
        assert_eq!(pins.len(), 1);
        assert_eq!(pins.get("stable"), Some(&digest(b"same")));
        assert_eq!(v.failed(), 0);
    }
}
