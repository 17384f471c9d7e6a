//! What the process and the machine say about themselves: CPU time and
//! peak RSS from `/proc/self`, and the fingerprint every result file
//! carries so a reader can tell a noisy or different machine from a
//! slow build.

use std::process::Command;

use serde_json::Value;

use crate::json::object;

/// The allocator settings every measured process runs under: glibc's
/// `M_MMAP_THRESHOLD` and `M_TRIM_THRESHOLD`, fixed. Left alone, glibc
/// moves both with the largest block the process has freed so far, so
/// how much freed memory a run keeps mapped depends on its allocation
/// history: the per-round peak RSS of one `churn_leak` request then
/// reads 12–16 MiB from one seed to the next (12.5–12.8 MiB pinned).
/// The values sit where the moving defaults end up on these workloads:
/// round times and RSS are those of the default within its own noise.
/// (Pinning the mmap threshold alone leaves trimming at 128 KiB and
/// costs `server_hit` a fifth of its throughput; never trimming costs
/// `search_frontier` a quarter.) Other allocators ignore the variables.
const ALLOCATOR_PIN: [(&str, &str); 2] = [
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
    ("MALLOC_TRIM_THRESHOLD_", "4194304"),
];

/// Whether this process runs under [`ALLOCATOR_PIN`].
pub fn allocator_is_pinned() -> bool {
    ALLOCATOR_PIN
        .iter()
        .all(|(key, value)| std::env::var_os(key).is_some_and(|v| v == *value))
}

/// This binary again, to be started under [`ALLOCATOR_PIN`] with
/// `args`.
///
/// # Errors
///
/// Returns a message when the running executable cannot be located.
pub fn pinned_self<S: AsRef<std::ffi::OsStr>>(
    args: impl IntoIterator<Item = S>,
) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(args)
        .envs(ALLOCATOR_PIN)
        .stdin(std::process::Stdio::null());
    Ok(command)
}

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux
/// has reported `USER_HZ = 100` on every architecture for decades;
/// without libc there is no `sysconf` to ask.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds consumed so far by every thread of this
/// process (live or joined); `0.0` where `/proc` is unavailable.
pub fn process_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized command name: state is field 3,
    // utime/stime are fields 14/15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(utime), Some(stime)) => (utime + stime) / CLK_TCK,
        _ => 0.0,
    }
}

/// Peak resident set size (`VmHWM`) of this process in MiB; `0.0`
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's RSS high-water mark to its current RSS, so
/// the next [`peak_rss_mib`] reads the peak since this call. `false`
/// where the kernel refuses (`/proc/self/clear_refs` missing or
/// read-only); the mark then keeps covering the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// One-minute load average; `None` where `/proc` is unavailable.
pub fn load_average_1m() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Hardware threads this process may run on (at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn command_line(program: &str, args: &[&str], dir: &std::path::Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The machine/build fingerprint written into every result file.
pub fn fingerprint(seed: u64, seconds: f64) -> Value {
    let here = crate::paths::harness_dir();
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let unknown = || "unknown".to_string();
    let text = |s: String| Value::String(s);
    object([
        ("nproc", Value::U64(nproc() as u64)),
        ("cpu_model", text(cpu_model)),
        (
            "rustc",
            text(command_line("rustc", &["-V"], &here).unwrap_or_else(unknown)),
        ),
        (
            "git_revision",
            text(command_line("git", &["rev-parse", "HEAD"], &here).unwrap_or_else(unknown)),
        ),
        ("artifact_salt", text(ethpos_core::ARTIFACT_SALT.into())),
        ("seed", Value::U64(seed)),
        ("run_seconds", Value::F64(seconds)),
        ("thread_scaling_measured", Value::Bool(nproc() >= 2)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_report_a_live_process() {
        // Burn a little CPU so the tick counter cannot still read zero
        // on a fast start.
        let mut x = 0u64;
        let started = std::time::Instant::now();
        while started.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(process_cpu_seconds() > 0.0);
        assert!(peak_rss_mib() > 0.0);
        if reset_peak_rss() {
            let before = peak_rss_mib();
            let ballast = vec![1u8; 64 << 20];
            assert!(std::hint::black_box(&ballast).iter().all(|&b| b == 1));
            assert!(peak_rss_mib() >= before + 48.0);
            drop(ballast);
            assert!(reset_peak_rss());
            assert!(peak_rss_mib() < before + 48.0);
        }
        assert!(nproc() >= 1);
        assert!(load_average_1m().is_some_and(|l| l >= 0.0));
    }
}
