//! Process probes read from `/proc/self/{stat,status,io}`.
//!
//! Every probe returns `None` when its file or field is missing; the
//! caller prints a note and reports the metric as unavailable
//! ([`UNAVAILABLE`]), never as 0 — a 0 would read as "no cost".

use std::fs;

/// What a per-layer metric reads when its probe is missing. Negative, so
/// it cannot be mistaken for a measurement.
pub const UNAVAILABLE: f64 = -1.0;

/// Kernel clock ticks per second for the `utime`/`stime` fields. Linux
/// reports them in `USER_HZ`, which is 100 on every mainstream
/// architecture; std has no `sysconf`, so the constant is stated here.
const USER_HZ: f64 = 100.0;

/// CPU time and page faults of this process so far.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuTimes {
    /// Seconds in user mode.
    pub user_s: f64,
    /// Seconds in kernel mode.
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
}

/// Parse the contents of `/proc/self/stat`. The command name (field 2)
/// may contain spaces and parentheses, so fields are counted from the
/// last `)`.
#[must_use]
pub fn parse_stat(text: &str) -> Option<CpuTimes> {
    let rest = &text[text.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); minflt is field 10, utime 14,
    // stime 15 (1-based, proc(5)).
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(CpuTimes {
        minor_faults: field(10)?,
        user_s: field(14)? as f64 / USER_HZ,
        sys_s: field(15)? as f64 / USER_HZ,
    })
}

/// CPU times of this process, or `None` where `/proc` is absent.
#[must_use]
pub fn cpu_times() -> Option<CpuTimes> {
    parse_stat(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// A `key: value kB` line of `/proc/self/status`, in MB.
#[must_use]
pub fn parse_status_mb(text: &str, key: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line[key.len()..]
        .trim_start_matches(':')
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set size (`VmHWM`) in MB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    parse_status_mb(&fs::read_to_string("/proc/self/status").ok()?, "VmHWM")
}

/// Write-side I/O counters of this process so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoCounters {
    /// Bytes passed to `write`-family calls (sockets included).
    pub wchar: u64,
    /// `write`-family system calls.
    pub syscw: u64,
    /// Bytes the process caused to be sent to the storage layer.
    pub write_bytes: u64,
}

/// Parse the contents of `/proc/self/io`.
#[must_use]
pub fn parse_io(text: &str) -> Option<IoCounters> {
    let field = |key: &str| -> Option<u64> {
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
            .trim()
            .parse()
            .ok()
    };
    Some(IoCounters {
        wchar: field("wchar")?,
        syscw: field("syscw")?,
        write_bytes: field("write_bytes")?,
    })
}

/// I/O counters of this process, or `None` where the file is absent or
/// unreadable (it needs no privilege for the process's own entry).
#[must_use]
pub fn io_counters() -> Option<IoCounters> {
    parse_io(&fs::read_to_string("/proc/self/io").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_parenthesis() {
        let line =
            "42 (a (weird) name) S 1 42 42 0 -1 4194304 1234 0 0 0 250 75 0 0 20 0 3 0 100 0 0";
        let t = parse_stat(line).expect("parses");
        assert_eq!(t.minor_faults, 1234);
        assert!((t.user_s - 2.5).abs() < 1e-12);
        assert!((t.sys_s - 0.75).abs() < 1e-12);
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_and_io_report_missing_fields_as_none() {
        let status = "Name:\tx\nVmPeak:\t  2048 kB\nVmHWM:\t    1536 kB\n";
        assert_eq!(parse_status_mb(status, "VmHWM"), Some(1.5));
        assert_eq!(parse_status_mb("Name:\tx\n", "VmHWM"), None);
        let io = "rchar: 1\nwchar: 200\nsyscr: 3\nsyscw: 4\nread_bytes: 0\nwrite_bytes: 4096\n";
        assert_eq!(
            parse_io(io),
            Some(IoCounters {
                wchar: 200,
                syscw: 4,
                write_bytes: 4096
            })
        );
        assert_eq!(parse_io("rchar: 1\nwchar: 2\n"), None);
    }

    #[test]
    fn live_probes_work_on_linux() {
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(cpu_times().is_some());
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        }
    }
}
