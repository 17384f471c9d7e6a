//! Where the harness keeps its files. Everything it reads or writes
//! lives under its own directory: pinned digests and the committed
//! ledger in `expected/` and `results/`, everything a run leaves behind
//! (traces, result files, server cache directories) in the git-ignored
//! `out/`.

use std::path::{Path, PathBuf};

/// The `benchmark/` directory: the manifest directory `cargo run` and
/// `cargo test` export at run time, else (the binary started by hand)
/// the one it was built from.
pub fn harness_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// `benchmark/out/`, created on first use.
pub fn out_dir() -> PathBuf {
    let dir = harness_dir().join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// `benchmark/expected/<workload>.digests`.
pub fn digest_file(workload: &str) -> PathBuf {
    harness_dir()
        .join("expected")
        .join(format!("{workload}.digests"))
}

/// A scratch directory under `out/` that is removed when dropped —
/// server cache directories live here so a finished run leaves nothing
/// behind.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `out/<tag>-<pid>-<n>` (emptying any stale directory of
    /// the same name).
    pub fn new(tag: &str) -> ScratchDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir().join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::remove_dir_all(&path).ok();
        std::fs::create_dir_all(&path).expect("create scratch directory");
        ScratchDir { path }
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.path).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dirs_are_distinct_and_removed_on_drop() {
        let a = ScratchDir::new("selftest");
        let b = ScratchDir::new("selftest");
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir());
        let kept = a.path().to_path_buf();
        std::fs::write(kept.join("file"), "x").expect("write");
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().starts_with(harness_dir().join("out")));
    }
}
