//! Process CPU time and peak memory read from Linux `/proc`.

use std::io;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every Linux architecture this benchmark targets).
const TICKS_PER_SEC: f64 = 100.0;

/// User and system CPU time of a whole process (all threads, live and
/// exited), in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    /// User-mode time.
    pub user_us: f64,
    /// Kernel-mode time (socket syscalls, futex waits, scheduling).
    pub sys_us: f64,
}

impl CpuTimes {
    /// Time spent between `earlier` and `self`.
    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_us: self.user_us - earlier.user_us,
            sys_us: self.sys_us - earlier.sys_us,
        }
    }

    /// User plus system time.
    pub fn total_us(self) -> f64 {
        self.user_us + self.sys_us
    }
}

/// CPU times of `pid` (`"self"` for this process).
pub fn cpu_times(pid: &str) -> io::Result<CpuTimes> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated, utime and stime being the
    // 14th and 15th fields of the line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed /proc stat line"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / TICKS_PER_SEC * 1e6)
            .ok_or_else(|| io::Error::other("missing utime/stime in /proc stat"))
    };
    // `rest` starts at field 3 (state), so utime (14) is index 11.
    Ok(CpuTimes {
        user_us: tick(11)?,
        sys_us: tick(12)?,
    })
}

/// CPU time the hypervisor took from this machine's virtual CPUs
/// (`steal` in `/proc/stat`, all CPUs), in clock ticks. It stays flat on
/// bare metal and while the host leaves the guest alone.
pub fn steal_ticks() -> io::Result<u64> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| io::Error::other("no steal field in /proc/stat"))
}

/// Peak resident set size (`VmHWM`) of `pid`, in MiB.
pub fn peak_rss_mib(pid: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_cpu_and_memory() {
        let before = cpu_times("self").unwrap();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 30 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(7));
        }
        std::hint::black_box(x);
        let spent = cpu_times("self").unwrap().since(before);
        assert!(spent.total_us() >= 0.0);
        assert!(peak_rss_mib("self").unwrap() > 0.0);
        let steal = steal_ticks().unwrap();
        assert!(steal_ticks().unwrap() >= steal);
    }
}
