//! Reads a process's resource counters from `/proc` (Linux).

use std::path::Path;

/// One reading of a process's counters. CPU times from `stat` are in
/// clock ticks (`USER_HZ`, 100 on Linux); `schedstat` times are in
/// nanoseconds, summed over the threads alive at the reading.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcSample {
    /// User-mode CPU, clock ticks (all threads, dead ones included).
    pub utime: u64,
    /// Kernel-mode CPU, clock ticks.
    pub stime: u64,
    /// Thread count.
    pub threads: u64,
    /// Peak resident set size, KiB.
    pub hwm_kb: u64,
    /// Voluntary plus involuntary context switches.
    pub ctxsw: u64,
    /// Time on a CPU, ns (live threads).
    pub run_ns: u64,
    /// Time runnable but waiting for a CPU, ns (live threads).
    pub wait_ns: u64,
}

/// Parses `/proc/<pid>/stat`: `(utime, stime, num_threads)`. The command
/// name may hold spaces and parentheses, so fields are counted from the
/// last `)`.
pub fn parse_stat(text: &str) -> Option<(u64, u64, u64)> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `fields[0]` is field 3 (state); field k sits at index k − 3.
    let field = |k: usize| fields.get(k - 3)?.parse::<u64>().ok();
    Some((field(14)?, field(15)?, field(20)?))
}

/// Parses `/proc/<pid>/status`: `(VmHWM in KiB, context switches)`.
pub fn parse_status(text: &str) -> Option<(u64, u64)> {
    let value = |key: &str| -> Option<u64> {
        let line = text.lines().find(|l| l.starts_with(key))?;
        line[key.len()..].split_whitespace().next()?.parse().ok()
    };
    let ctxsw = value("voluntary_ctxt_switches:")? + value("nonvoluntary_ctxt_switches:")?;
    Some((value("VmHWM:")?, ctxsw))
}

/// Parses one `schedstat` line: `(run ns, wait ns)`.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut it = text.split_whitespace().map(str::parse::<u64>);
    Some((it.next()?.ok()?, it.next()?.ok()?))
}

/// Reads every counter of process `pid` (`"self"` for this process).
pub fn read(pid: &str) -> Option<ProcSample> {
    let base = Path::new("/proc").join(pid);
    let (utime, stime, threads) = parse_stat(&std::fs::read_to_string(base.join("stat")).ok()?)?;
    let (hwm_kb, ctxsw) = parse_status(&std::fs::read_to_string(base.join("status")).ok()?)?;
    let (mut run_ns, mut wait_ns) = (0, 0);
    for task in std::fs::read_dir(base.join("task")).ok()?.flatten() {
        // A thread may exit between listing and reading; skip it.
        if let Some((run, wait)) = std::fs::read_to_string(task.path().join("schedstat"))
            .ok()
            .and_then(|t| parse_schedstat(&t))
        {
            run_ns += run;
            wait_ns += wait;
        }
    }
    Some(ProcSample {
        utime,
        stime,
        threads,
        hwm_kb,
        ctxsw,
        run_ns,
        wait_ns,
    })
}

impl ProcSample {
    /// Counter growth from `earlier` to `self`; the thread count and peak
    /// RSS are levels and keep `self`'s values.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            utime: self.utime.saturating_sub(earlier.utime),
            stime: self.stime.saturating_sub(earlier.stime),
            threads: self.threads,
            hwm_kb: self.hwm_kb,
            ctxsw: self.ctxsw.saturating_sub(earlier.ctxsw),
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_counted_from_the_last_paren() {
        let line = "4242 (minsync (node) x) S 1 4242 4242 0 -1 4194560 512 0 0 0 \
                    731 42 0 0 20 0 9 0 123456 1000000 300 18446744073709551615";
        assert_eq!(parse_stat(line), Some((731, 42, 9)));
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None, "truncated");
    }

    #[test]
    fn status_reads_peak_rss_and_context_switches() {
        let text = "Name:\tminsync-node\nVmPeak:\t  90000 kB\nVmHWM:\t    5120 kB\n\
                    Threads:\t9\nvoluntary_ctxt_switches:\t1200\n\
                    nonvoluntary_ctxt_switches:\t34\n";
        assert_eq!(parse_status(text), Some((5120, 1234)));
        assert_eq!(parse_status("Name:\tx\n"), None);
    }

    #[test]
    fn schedstat_reads_run_and_wait() {
        assert_eq!(
            parse_schedstat("1234567 89012 345\n"),
            Some((1_234_567, 89_012))
        );
        assert_eq!(parse_schedstat("12"), None);
        assert_eq!(parse_schedstat("x y z"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let s = read("self").expect("/proc/self readable");
        assert!(s.threads >= 1 && s.hwm_kb > 0);
        let d = s.since(&ProcSample::default());
        assert_eq!(d.threads, s.threads);
        assert_eq!(d.run_ns, s.run_ns);
    }
}
