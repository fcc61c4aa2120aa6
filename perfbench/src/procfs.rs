//! Hermetic process accounting from `/proc`, with `std::fs` only.
//!
//! * Per-thread CPU comes from `/proc/self/task/<tid>/schedstat`, whose
//!   first field is the thread's on-CPU time in nanoseconds. A running
//!   thread's figure advances at scheduler ticks and context switches, so
//!   readings are good to a few milliseconds.
//! * Whole-process CPU, including threads that already exited, comes from
//!   the `utime` and `stime` fields of `/proc/self/stat`, in clock ticks.
//! * Peak resident memory is `VmHWM` in `/proc/self/status`.

use std::collections::BTreeMap;
use std::fs;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, which
/// Linux fixes at 100 on every architecture it exposes to user space).
const USER_HZ: f64 = 100.0;

/// The process id (the main thread's task id).
pub fn process_id() -> u64 {
    u64::from(std::process::id())
}

/// On-CPU nanoseconds of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    parse_schedstat(&fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default())
        .expect("/proc/thread-self/schedstat is readable")
}

/// On-CPU nanoseconds of every live thread of this process, by task id.
pub fn task_cpu_ns() -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|n| n.parse().ok()) else {
            continue;
        };
        let text = fs::read_to_string(entry.path().join("schedstat")).unwrap_or_default();
        if let Some(ns) = parse_schedstat(&text) {
            out.insert(tid, ns);
        }
    }
    out
}

/// CPU nanoseconds that the tasks outside `exclude` spent between two
/// [`task_cpu_ns`] snapshots. A task that started in between counts from
/// zero; a task that exited in between is lost, so take both snapshots
/// while the measured threads are alive.
pub fn cpu_ns_between(
    before: &BTreeMap<u64, u64>,
    after: &BTreeMap<u64, u64>,
    exclude: &[u64],
) -> u64 {
    after
        .iter()
        .filter(|(tid, _)| !exclude.contains(tid))
        .map(|(tid, &ns)| ns.saturating_sub(before.get(tid).copied().unwrap_or(0)))
        .sum()
}

/// Whole-process CPU seconds (user + system, exited threads included),
/// at clock-tick resolution.
pub fn process_cpu_s() -> f64 {
    let text = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_stat_cpu_ticks(&text).expect("/proc/self/stat has utime and stime") as f64 / USER_HZ
}

/// CPU time the hypervisor gave to other guests, summed over every CPU,
/// seconds (the `steal` column of `/proc/stat`).
pub fn steal_s() -> f64 {
    let text = fs::read_to_string("/proc/stat").unwrap_or_default();
    parse_steal_ticks(&text).unwrap_or(0) as f64 / USER_HZ
}

/// Share of this host's CPU time stolen since `steal0` (a [`steal_s`]
/// reading) over `wall_s` seconds.
pub fn steal_ratio(steal0: f64, wall_s: f64) -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    (steal_s() - steal0) / (cpus * wall_s)
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let text = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_kib(&text).expect("/proc/self/status has VmHWM") as f64 / 1024.0
}

fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name (field
/// 2) may hold spaces, so fields are counted after its closing `)`.
fn parse_stat_cpu_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3, so utime (14) and stime (15) sit
    // at offsets 11 and 12.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// The `steal` field (the eighth value) of the aggregate `cpu` line.
fn parse_steal_ticks(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

fn parse_vm_hwm_kib(text: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The calling thread's kernel thread id.
    fn thread_id() -> u64 {
        let link = fs::read_link("/proc/thread-self").expect("/proc/thread-self is readable");
        link.file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.parse().ok())
            .expect("/proc/thread-self names a numeric task")
    }

    #[test]
    fn parses_proc_formats() {
        assert_eq!(parse_schedstat("123456 789 10\n"), Some(123_456));
        let stat = "4242 (a b) S 1 2 3 4 5 6 7 8 9 10 31 17 0 0 20 0 9";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(48));
        assert_eq!(
            parse_vm_hwm_kib("VmPeak:\t 10 kB\nVmHWM:\t    2048 kB\n"),
            Some(2048)
        );
        let stat = "cpu  90987 0 10739 262480 287 0 2272 1394 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_ticks(stat), Some(1394));
    }

    #[test]
    fn live_readings_are_sane() {
        let before = task_cpu_ns();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed() < std::time::Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        // A running task's schedstat advances at scheduler ticks and
        // context switches; sleeping forces one.
        std::thread::sleep(std::time::Duration::from_millis(2));
        let after = task_cpu_ns();
        assert!(before.contains_key(&thread_id()));
        let all = cpu_ns_between(&before, &after, &[]);
        assert!(all > 0);
        assert!(cpu_ns_between(&before, &after, &[thread_id()]) < all);
        assert!(thread_cpu_ns() > 0);
        assert!(peak_rss_mib() > 0.0);
        assert!(process_cpu_s() >= 0.0);
        assert!(x > 0);
    }
}
