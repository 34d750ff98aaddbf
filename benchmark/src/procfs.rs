//! Process CPU time and resident set, read from `/proc/self`.
//!
//! CPU time comes from the scheduler's per-thread run time
//! (`/proc/<pid>/task/<tid>/schedstat`, nanoseconds) rather than from
//! `utime`/`stime` in `/proc/self/stat`: without `VIRT_CPU_ACCOUNTING` the
//! kernel fills those by charging each whole timer tick to whichever thread
//! the tick interrupts, which for a mostly sleeping process (the drive-bound
//! workload runs its cores at about 10 %) is a sample of a few hundred
//! ticks and moved +-20 % between identical runs.

use std::fs;
use std::io;

fn parse_error(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Nanoseconds on a CPU so far, from the first field of a `schedstat` file.
fn schedstat_ns(path: &str) -> io::Result<u64> {
    fs::read_to_string(path)?
        .split_ascii_whitespace()
        .next()
        .and_then(|ns| ns.parse().ok())
        .ok_or_else(|| parse_error("schedstat"))
}

/// CPU seconds the calling thread has run. A thread about to exit reports
/// this so its time is not lost from [`live_threads_cpu_seconds`].
pub fn this_thread_cpu_seconds() -> io::Result<f64> {
    Ok(schedstat_ns("/proc/thread-self/schedstat")? as f64 / 1e9)
}

/// CPU seconds, summed, of every thread of the process alive now. Threads
/// that have exited are not in it (the kernel keeps only the tick-sampled
/// totals for them).
pub fn live_threads_cpu_seconds() -> io::Result<f64> {
    let mut total = 0u64;
    for entry in fs::read_dir("/proc/self/task")? {
        let path = entry?.path().join("schedstat");
        // A thread may exit between the listing and the read.
        total += path
            .to_str()
            .and_then(|p| schedstat_ns(p).ok())
            .unwrap_or(0);
    }
    Ok(total as f64 / 1e9)
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kib| kib.parse::<u64>().ok())
        .ok_or_else(|| parse_error(field))?;
    Ok(kib as f64 / 1024.0)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> io::Result<f64> {
    status_mib("VmHWM")
}

/// Resident set size now (`VmRSS`) in MiB.
pub fn rss_mib() -> io::Result<f64> {
    status_mib("VmRSS")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let now = rss_mib().unwrap();
        assert!(now > 0.5 && peak_rss_mib().unwrap() >= now);
        let spun = std::thread::spawn(|| {
            let start = std::time::Instant::now();
            while start.elapsed() < std::time::Duration::from_millis(30) {
                std::hint::spin_loop();
            }
            this_thread_cpu_seconds().unwrap()
        })
        .join()
        .unwrap();
        assert!(spun > 0.02 && spun < 0.2, "a 30 ms spin ran {spun} s");
        // Other tests' threads come and go, so only this much holds here.
        assert!(live_threads_cpu_seconds().unwrap() > 0.0);
    }
}
