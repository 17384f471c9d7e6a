//! The content-addressed artifact cache.
//!
//! Documents are deterministic (same canonical request → same bytes on
//! any machine, any thread count), so the cache never expires entries
//! and never validates them against anything: the address *is* the
//! validity proof. Version skew is handled upstream by
//! [`ethpos_core::ARTIFACT_SALT`] — a semantics bump changes every
//! address instead of mutating any entry. So the server's memo of
//! rendered hit replies is never stale — and deleting an entry on disk
//! does not evict it from a running server.
//!
//! On-disk layout, sharded by the first address byte to keep directory
//! fan-out flat:
//!
//! ```text
//! <root>/ab/abcdef….doc          the rendered document
//! <root>/ab/abcdef….stats.json   the --stats-out side channel, if any
//! ```
//!
//! Writes go through a temp file + atomic rename, with the `.doc`
//! renamed **last** as the commit point: a reader that sees the `.doc`
//! is guaranteed the stats file (written first) is already in place, so
//! a crash mid-store can leave an orphaned stats file but never a
//! half-entry that hits.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use ethpos_core::JobOutput;

/// A content-addressed store of executed-request artifacts.
#[derive(Debug, Clone)]
pub struct ArtifactCache {
    root: PathBuf,
}

/// A request hash is usable as a path component only if it looks like
/// one of ours: lowercase hex, 64 chars. Anything else (traversal
/// attempts, truncated hashes) is rejected before touching the
/// filesystem.
fn valid_hash(hash: &str) -> bool {
    hash.len() == 64
        && hash
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

impl ArtifactCache {
    /// Opens (creating if needed) a cache rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the root cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<ArtifactCache> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(ArtifactCache { root })
    }

    fn entry_paths(&self, hash: &str) -> Option<(PathBuf, PathBuf, PathBuf)> {
        if !valid_hash(hash) {
            return None;
        }
        let shard = self.root.join(&hash[..2]);
        Some((
            shard.clone(),
            shard.join(format!("{hash}.doc")),
            shard.join(format!("{hash}.stats.json")),
        ))
    }

    /// Whether an artifact is committed under `hash`.
    pub fn contains(&self, hash: &str) -> bool {
        self.entry_paths(hash)
            .is_some_and(|(_, doc, _)| doc.is_file())
    }

    /// Loads the committed document, or `None` on a miss (or an address
    /// that is not a well-formed hash).
    pub fn load_document(&self, hash: &str) -> Option<String> {
        let (_, doc, _) = self.entry_paths(hash)?;
        fs::read_to_string(doc).ok()
    }

    /// Loads the stats side channel, or `None` when the entry is absent
    /// or the request kind carries no stats.
    pub fn load_stats(&self, hash: &str) -> Option<String> {
        let (_, _, stats) = self.entry_paths(hash)?;
        fs::read_to_string(stats).ok()
    }

    /// Commits an executed request's output under `hash`, atomically.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; an invalid hash is
    /// `InvalidInput`.
    pub fn store(&self, hash: &str, output: &JobOutput) -> io::Result<()> {
        let (shard, doc, stats) = self.entry_paths(hash).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("bad hash `{hash}`"))
        })?;
        fs::create_dir_all(&shard)?;
        if let Some(stats_body) = &output.stats {
            write_atomic(&stats, stats_body)?;
        }
        // Last write: committing the entry.
        write_atomic(&doc, &output.document)
    }
}

/// Temp-file + rename. The temp name carries pid + address so two
/// processes (or a crashed predecessor) sharing the cache directory
/// cannot interleave partial writes.
fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unnamed artifact"))?;
    let tmp = path.with_file_name(format!(".{}.{file_name}.tmp", std::process::id()));
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ethpos-cache-{}-{tag}", std::process::id()))
    }

    fn hash_of(byte: u8) -> String {
        format!("{byte:02x}").repeat(32)
    }

    #[test]
    fn store_then_load_round_trips() {
        let root = temp_root("roundtrip");
        let cache = ArtifactCache::open(&root).expect("open");
        let hash = hash_of(0xab);
        assert!(!cache.contains(&hash));
        let output = JobOutput {
            document: "doc bytes\n".into(),
            stats: Some("{\"cases\": 3}\n".into()),
        };
        cache.store(&hash, &output).expect("store");
        assert!(cache.contains(&hash));
        assert_eq!(cache.load_document(&hash).as_deref(), Some("doc bytes\n"));
        assert_eq!(cache.load_stats(&hash).as_deref(), Some("{\"cases\": 3}\n"));
        // Re-opening (a restart) sees the same entry.
        let reopened = ArtifactCache::open(&root).expect("reopen");
        assert_eq!(
            reopened.load_document(&hash).as_deref(),
            Some("doc bytes\n")
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn stats_free_entries_load_no_stats() {
        let root = temp_root("nostats");
        let cache = ArtifactCache::open(&root).expect("open");
        let hash = hash_of(0xcd);
        let output = JobOutput {
            document: "only a doc\n".into(),
            stats: None,
        };
        cache.store(&hash, &output).expect("store");
        assert!(cache.contains(&hash));
        assert_eq!(cache.load_stats(&hash), None);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn malformed_addresses_never_touch_the_filesystem() {
        let root = temp_root("traversal");
        let cache = ArtifactCache::open(&root).expect("open");
        for hash in [
            "",
            "short",
            "../../../../etc/passwd",
            &hash_of(0xab)[..63],
            &format!("{}G", &hash_of(0xab)[..63]),
            &hash_of(0xab).to_uppercase(),
        ] {
            assert!(!cache.contains(hash), "{hash}");
            assert!(cache.load_document(hash).is_none(), "{hash}");
            let bad = cache.store(
                hash,
                &JobOutput {
                    document: String::new(),
                    stats: None,
                },
            );
            assert!(bad.is_err(), "{hash}");
        }
        fs::remove_dir_all(&root).ok();
    }
}
