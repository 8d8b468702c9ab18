//! Provenance carried by every result record: the commit, the host, and
//! the process's peak memory.

use std::path::Path;

/// Worker threads the engine may use: two, or fewer on a smaller host.
pub fn engine_threads() -> usize {
    nproc().min(2)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string (first `model name` in `/proc/cpuinfo`), or
/// `"unknown"` where that file does not exist.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit the benchmark was built from, read from `.git` under `root`
/// without running git. `"unknown"` when `root` is not a git checkout (an
/// exported tree has no history to name).
pub fn git_sha(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&git.join(reference)) {
        return sha.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Starts the peak-memory window: hands memory that set-up freed back to
/// the OS, then resets the peak resident set size to the current one
/// (Linux `clear_refs` code 5), so that `VmHWM` covers only what follows.
///
/// Without the trim, memory freed by the set-up repeats (three daemons,
/// each with its own threads and allocator arenas) stays resident, and the
/// window's peak reads 110 to 175 MB from run to run depending on which
/// arenas kept it.
pub fn start_peak_rss_window() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` has no preconditions; it only returns free
        // heap memory to the OS and never touches live allocations.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
