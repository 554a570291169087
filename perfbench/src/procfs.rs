//! Process counters from Linux `/proc`: CPU time and page faults from
//! `stat`, the resident high-water mark from `status`.

/// Clock ticks per second of the `stat` time fields. Linux reports them in
/// `USER_HZ`, which is 100 on every architecture it exposes to user space.
const TICKS_PER_S: f64 = 100.0;

/// The `stat` fields the benchmark uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcStat {
    /// Minor page faults (field 10).
    pub minflt: u64,
    /// Major page faults (field 12).
    pub majflt: u64,
    /// User-mode CPU time in ticks (field 14).
    pub utime: u64,
    /// Kernel-mode CPU time in ticks (field 15).
    pub stime: u64,
}

impl ProcStat {
    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &ProcStat) -> ProcStat {
        ProcStat {
            minflt: self.minflt.saturating_sub(earlier.minflt),
            majflt: self.majflt.saturating_sub(earlier.majflt),
            utime: self.utime.saturating_sub(earlier.utime),
            stime: self.stime.saturating_sub(earlier.stime),
        }
    }

    /// User plus kernel CPU time in seconds.
    pub fn cpu_s(&self) -> f64 {
        (self.utime + self.stime) as f64 / TICKS_PER_S
    }

    /// Kernel share of the CPU time (0 when no time was used).
    pub fn sys_frac(&self) -> f64 {
        let total = self.utime + self.stime;
        if total == 0 {
            0.0
        } else {
            self.stime as f64 / total as f64
        }
    }
}

/// Parses one `/proc/<pid>/stat` line. The command name sits in
/// parentheses and may itself hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat(text: &str) -> Option<ProcStat> {
    let rest = &text[text.rfind(')')? + 1..];
    // After the name, field 3 (state) is index 0.
    let f: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| f.get(n - 3)?.parse::<u64>().ok();
    Some(ProcStat {
        minflt: field(10)?,
        majflt: field(12)?,
        utime: field(14)?,
        stime: field(15)?,
    })
}

/// A `kB` value from a `/proc/<pid>/status` document, such as `VmHWM`.
pub fn parse_status_kb(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        if k != key {
            return None;
        }
        v.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// `stat` of process `pid`, or of this process when `None`.
pub fn read_stat(pid: Option<u32>) -> Option<ProcStat> {
    parse_stat(&std::fs::read_to_string(proc_path(pid, "stat")).ok()?)
}

/// Peak resident set (`VmHWM`) of process `pid` (this one when `None`), in
/// bytes.
pub fn peak_rss_bytes(pid: Option<u32>) -> Option<u64> {
    let text = std::fs::read_to_string(proc_path(pid, "status")).ok()?;
    parse_status_kb(&text, "VmHWM").map(|kb| kb * 1024)
}

/// Resets this process's `VmHWM` to its current resident set (`5` in
/// `/proc/self/clear_refs`, Linux 4.0 and later), so that the next read
/// gives the peak since now. False when the kernel refused.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(p) => format!("/proc/{p}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "4242 (perf bench (x)) R 1 4242 4242 0 -1 4194304 \
        1500 0 7 0 250 40 0 0 20 0 3 0 123456 1000000 2000 18446744073709551615";

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        let s = parse_stat(LINE).unwrap();
        assert_eq!(
            s,
            ProcStat {
                minflt: 1500,
                majflt: 7,
                utime: 250,
                stime: 40,
            }
        );
        assert!((s.cpu_s() - 2.9).abs() < 1e-12);
        assert!((s.sys_frac() - 40.0 / 290.0).abs() < 1e-12);
    }

    #[test]
    fn truncated_or_garbled_stat_is_rejected() {
        assert_eq!(parse_stat("4242 (x) R 1 2 3"), None);
        assert_eq!(parse_stat("no parens at all"), None);
        assert_eq!(
            parse_stat("1 (x) R 1 1 1 0 -1 0 many 0 7 0 250 40"),
            None,
            "a non-numeric fault count must not parse"
        );
    }

    #[test]
    fn deltas_saturate_and_idle_has_no_sys_share() {
        let a = ProcStat {
            minflt: 10,
            majflt: 0,
            utime: 5,
            stime: 5,
        };
        let d = a.since(&a);
        assert_eq!(d, ProcStat::default());
        assert_eq!(d.sys_frac(), 0.0);
        assert_eq!(ProcStat::default().since(&a).minflt, 0);
    }

    #[test]
    fn status_kb_lookup() {
        let status = "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t  512340 kB\nThreads:\t3\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(512_340));
        assert_eq!(parse_status_kb(status, "VmRSS"), None);
        assert_eq!(parse_status_kb(status, "Threads"), None);
    }

    #[test]
    fn own_stat_is_readable() {
        let s = read_stat(None).expect("/proc/self/stat");
        assert!(s.minflt > 0);
        assert!(peak_rss_bytes(None).unwrap() > 0);
    }

    #[test]
    fn peak_rss_reset_forgets_a_freed_peak() {
        // Touch 64 MB, free it, and check that a reset drops the peak.
        let big = vec![1u8; 64 << 20];
        assert_eq!(big.iter().map(|&b| b as usize).sum::<usize>(), 64 << 20);
        drop(big);
        let before = peak_rss_bytes(None).unwrap();
        if reset_peak_rss() {
            assert!(peak_rss_bytes(None).unwrap() + (32 << 20) < before);
        }
    }
}
