//! Host and process gauges read from `/proc`: CPU per process and per
//! thread, steal time, peak RSS, plus the sender's timer slack.

use std::collections::HashMap;

/// Kernel clock ticks per second for `/proc` CPU times (USER_HZ, 100 on
/// every mainstream Linux build).
const TICK_NS: u64 = 10_000_000;

/// CPU time (user + system) of the whole process, ns. Includes threads
/// that have already exited.
pub fn process_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_cpu_ticks(&s))
        .unwrap_or(0)
        * TICK_NS
}

/// CPU time of the calling thread, ns.
pub fn thread_self_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| stat_cpu_ticks(&s))
        .unwrap_or(0)
        * TICK_NS
}

/// Parses utime + stime out of a `/proc/.../stat` line.
fn stat_cpu_ticks(stat: &str) -> Option<u64> {
    // The command name may contain spaces; fields resume after its `)`.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, i.e. 11 and
    // 12 after the state field.
    Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
}

/// CPU time per live thread: tid -> (thread name, ns).
pub type ThreadCpu = HashMap<u32, (String, u64)>;

/// Snapshot of every live thread's CPU time.
pub fn thread_cpu() -> ThreadCpu {
    let mut out = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let path = entry.path();
        let (Ok(stat), Ok(comm)) = (
            std::fs::read_to_string(path.join("stat")),
            std::fs::read_to_string(path.join("comm")),
        ) else {
            continue;
        };
        if let Some(ticks) = stat_cpu_ticks(&stat) {
            out.insert(tid, (comm.trim().to_string(), ticks * TICK_NS));
        }
    }
    out
}

/// CPU spent between two snapshots by threads whose name satisfies
/// `want`, ns. Threads born in between count from zero.
pub fn cpu_delta(before: &ThreadCpu, after: &ThreadCpu, want: impl Fn(&str) -> bool) -> u64 {
    after
        .iter()
        .filter(|(_, (name, _))| want(name))
        .map(|(tid, (name, ns))| {
            let base = before
                .get(tid)
                .filter(|(n, _)| n == name)
                .map_or(0, |(_, b)| *b);
            ns.saturating_sub(base)
        })
        .sum()
}

/// Host-wide steal time from `/proc/stat`, ns.
pub fn steal_ns() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?;
            // cpu user nice system idle iowait irq softirq steal
            line.split_whitespace().nth(8)?.parse::<u64>().ok()
        })
        .unwrap_or(0)
        * TICK_NS
}

/// Peak resident set size (VmHWM), KiB.
pub fn vm_hwm_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

extern "C" {
    fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
}

/// Sets this thread's timer slack (`PR_SET_TIMERSLACK`), so the open-loop
/// sender's sleeps end close to the due time instead of up to 50 µs late.
/// Threads spawned afterwards inherit it. Returns whether it took.
pub fn set_timer_slack_ns(ns: std::ffi::c_ulong) -> bool {
    use std::ffi::c_ulong;
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    // SAFETY: glibc's prctl reads four `unsigned long` varargs, all passed
    // here; PR_SET_TIMERSLACK only reads the integer `ns` and changes a
    // per-thread scheduler setting, so no memory is handed to the kernel.
    unsafe {
        prctl(
            PR_SET_TIMERSLACK,
            ns,
            0 as c_ulong,
            0 as c_ulong,
            0 as c_ulong,
        ) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_comm() {
        let line = "42 (a b) S 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15";
        assert_eq!(stat_cpu_ticks(line), Some(11 + 12));
    }

    #[test]
    fn own_process_reports_cpu_and_memory() {
        let t0 = process_cpu_ns();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < std::time::Duration::from_millis(50) {
            x = x.wrapping_add(std::hint::black_box(1));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() >= t0);
        assert!(vm_hwm_kib() > 0);
        assert!(!thread_cpu().is_empty());
    }
}
