//! Process-level counters read from `/proc/self` (the numbers `getrusage`
//! reports), and the one foreign call of the benchmark: CPU affinity.

/// Scheduler ticks per second in `/proc/self/stat`; fixed at 100 on Linux.
const TICKS_PER_S: f64 = 100.0;

/// Peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Cumulative CPU time and minor page faults of this process (all threads).
#[derive(Clone, Copy)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: f64,
}

impl Usage {
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
        // The command name may hold spaces; fields are counted after its
        // closing parenthesis: state is field 3, minflt 10, utime 14, stime 15.
        let after = &stat[stat.rfind(')').expect("comm field") + 1..];
        let fields: Vec<&str> = after.split_whitespace().collect();
        let field = |n: usize| -> f64 { fields[n - 3].parse().expect("numeric stat field") };
        Self {
            user_s: field(14) / TICKS_PER_S,
            sys_s: field(15) / TICKS_PER_S,
            minor_faults: field(10),
        }
    }

    /// What was used since `earlier`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
        }
    }

    /// The three `run.*` resource metrics for a phase of `units` units.
    pub fn per_unit(self, units: usize) -> [(&'static str, f64); 3] {
        let cpu_s = self.user_s + self.sys_s;
        let units = units.max(1) as f64;
        [
            ("run.minor_faults_per_unit", self.minor_faults / units),
            (
                "run.sys_cpu_share",
                if cpu_s > 0.0 { self.sys_s / cpu_s } else { 0.0 },
            ),
            ("run.cpu_ms_per_unit", cpu_s * 1e3 / units),
        ]
    }
}

/// A kernel CPU list such as `0-1` or `0,2-3`; malformed parts are skipped.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    list.trim()
        .split(',')
        .filter_map(|range| {
            let (first, last) = range.split_once('-').unwrap_or((range, range));
            Some(first.parse::<usize>().ok()?..=last.parse::<usize>().ok()?)
        })
        .flatten()
        .collect()
}

/// CPUs the calling thread may run on, ascending; empty when `/proc` does
/// not say.
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/thread-self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map_or(Vec::new(), parse_cpu_list)
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines the calling thread — and every thread and child process it
/// starts from now on — to the first CPU it may run on. Returns that CPU,
/// or `None` (and changes nothing) when `/proc` names none or the kernel
/// refuses.
pub fn confine_to_one_cpu() -> Option<usize> {
    let cpu = *allowed_cpus().first()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of the size passed, the
    // kernel only reads it, and pid 0 names the calling thread.
    let refused = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (refused == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse_as_the_kernel_prints_them() {
        assert_eq!(parse_cpu_list("\t0-1\n"), [0, 1]);
        assert_eq!(parse_cpu_list("0,2-4,7"), [0, 2, 3, 4, 7]);
        assert_eq!(parse_cpu_list("3"), [3]);
        assert_eq!(parse_cpu_list(""), [] as [usize; 0]);
    }

    #[test]
    fn a_thread_confines_itself_to_its_first_cpu() {
        // A thread of its own: the confinement must not leak into the
        // test harness.
        let (before, cpu, after) = std::thread::spawn(|| {
            let before = allowed_cpus();
            (before, confine_to_one_cpu(), allowed_cpus())
        })
        .join()
        .expect("confined thread");
        assert_eq!(cpu, before.first().copied());
        assert_eq!(after, [cpu.expect("this thread may run somewhere")]);
    }
}
