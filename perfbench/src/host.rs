//! Facts about the host and this process, read from `/proc` and `/sys`
//! with `std::fs` only. Every reader degrades to "unknown" (or zero) off
//! Linux instead of failing the run.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::time::Duration;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (`USER_HZ`, fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// On-CPU time (user + system) of the whole process, exited threads
/// included, from `/proc/self/stat`. Resolution: one clock tick (10 ms).
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name is parenthesised and may hold spaces: count fields
    // from the closing parenthesis. `utime` and `stime` are fields 14 and
    // 15 of the line, i.e. 12 and 13 after the name.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    Duration::from_secs_f64(ticks as f64 / USER_HZ)
}

/// Peak resident set size of the process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|v| v.trim().to_string())
}

/// On-CPU nanoseconds of the calling thread, from the first field of
/// `/proc/thread-self/schedstat`. The file stays open between reads; one
/// read still costs about 2 µs, so callers sample it only around spans
/// that are long enough to hide that cost.
pub struct ThreadCpu {
    file: Option<File>,
    buf: String,
}

impl ThreadCpu {
    /// Opens the calling thread's schedstat file. Reads made from another
    /// thread would report the opening thread.
    pub fn open() -> ThreadCpu {
        ThreadCpu {
            file: File::open("/proc/thread-self/schedstat").ok(),
            buf: String::with_capacity(64),
        }
    }

    /// The thread's on-CPU nanoseconds, or `None` if unreadable.
    pub fn now(&mut self) -> Option<u64> {
        let file = self.file.as_mut()?;
        file.seek(SeekFrom::Start(0)).ok()?;
        self.buf.clear();
        file.read_to_string(&mut self.buf).ok()?;
        self.buf.split_whitespace().next()?.parse().ok()
    }
}

/// The host and build facts recorded next to every result, in print order.
pub fn facts() -> Vec<(&'static str, String)> {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc().map_or("unknown".into(), |n| n.to_string())),
        ("available_parallelism", parallelism.to_string()),
        ("cpu_model", cpu_model()),
        ("l2_cache", cache_size(2)),
        ("l3_cache", cache_size(3)),
        ("git_commit", git_commit()),
        (
            "build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
    ]
}

/// CPUs this process may run on (`Cpus_allowed_list`, what `nproc` prints).
fn nproc() -> Option<usize> {
    let list = status_field("Cpus_allowed_list:")?;
    let mut count = 0;
    for part in list.split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        count += hi.trim().parse::<usize>().ok()? + 1 - lo.trim().parse::<usize>().ok()?;
    }
    Some(count)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of cpu0's unified cache of the given level, as `/sys` states it
/// (e.g. `2048K`).
fn cache_size(level: u32) -> String {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let read = |index: &str, file: &str| {
        std::fs::read_to_string(format!("{base}/{index}/{file}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_default()
    };
    let Ok(dir) = std::fs::read_dir(base) else {
        return "unknown".into();
    };
    let mut indices: Vec<String> = dir
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("index"))
        .collect();
    indices.sort();
    indices
        .iter()
        .find(|i| read(i, "level") == level.to_string() && read(i, "type") == "Unified")
        .map_or_else(|| "unknown".into(), |i| read(i, "size"))
}

/// The checked-out commit, or "unknown" when the working directory is not
/// the root of a git checkout (the benchmark may run from an exported tree,
/// and must not read a repository above it).
fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}
