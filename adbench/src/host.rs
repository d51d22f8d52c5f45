//! Host facts and process resource readings.

use ad_util::Json;

/// Pause between the repeated set-ups of one run. Set-up takes
/// milliseconds, and on a shared host its cost swings with the host's
/// load from one tenth of a second to the next; spacing the repeats lets
/// their median sample a few seconds of host state instead of one
/// instant.
pub const SETUP_GAP: std::time::Duration = std::time::Duration::from_millis(200);

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The build profile this benchmark was compiled with.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Peak resident set (`VmHWM`) of process `pid` in MB, from `/proc`.
///
/// # Errors
///
/// The status file is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// CPU time consumed so far by the live threads of process `pid`, in ms:
/// the sum of the run times in `/proc/<pid>/task/*/schedstat` (ns
/// resolution, unlike the clock ticks of `/proc/<pid>/stat`).
///
/// # Errors
///
/// The task directory is unreadable.
pub fn tasks_cpu_ms(pid: u32) -> Result<f64, String> {
    let dir = format!("/proc/{pid}/task");
    let tasks = std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))?;
    let mut ns = 0u64;
    for task in tasks.flatten() {
        // A thread may exit between the listing and the read.
        let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) else {
            continue;
        };
        ns += stat
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
    }
    Ok(ns as f64 / 1e6)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by all threads of this process, in ms.
pub fn process_cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a valid constant; the
    // call writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Facts about the host and build that every result line carries.
pub fn facts(workload: &str, seed: u64, trace: bool) -> Vec<(String, Json)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    vec![
        ("workload".into(), Json::from(workload)),
        ("seed".into(), Json::from(seed)),
        ("trace".into(), Json::Bool(trace)),
        ("nproc".into(), Json::from(nproc())),
        ("profile".into(), Json::from(profile())),
        ("rustc".into(), Json::from(env("ADBENCH_RUSTC"))),
        ("commit".into(), Json::from(env("ADBENCH_COMMIT"))),
    ]
}
