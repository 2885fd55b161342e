//! Busy time per thread class, read from `/proc/self/task/*/{stat,schedstat}`.
//!
//! The layers run on named threads (`replica-*`, `tnet-*`, `pump-*`), so CPU time per
//! layer can be read from outside the program. Pump threads and their sockets' I/O
//! threads end inside `run_load`, before anything can read them afterwards, so a
//! sampler thread polls during the run and keeps each thread's last reading.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// `utime`/`stime` tick length: `USER_HZ` is 100 on every Linux ABI.
const TICK_US: u64 = 10_000;

/// How often the sampler polls. A thread's CPU after its last poll is lost, at most
/// this much per thread; polling 60 threads costs about a millisecond, which the
/// measured run pays.
const POLL: Duration = Duration::from_millis(100);

/// The thread classes the budget is split into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ThreadClass {
    /// `replica-*`: decode, driver, protocol, executor, encode, enqueue.
    Replica,
    /// `tnet-reader`, `tnet-writer-*`, `tnet-accept-*`: socket I/O.
    Io,
    /// `pump-*`: the load generator.
    Pump,
    /// The benchmark's own threads.
    Other,
}

/// Classifies a thread by its `comm` name. The kernel cuts names to 15 characters, so
/// `tnet-writer-4294967297-2` reads `tnet-writer-429`; prefixes survive.
pub fn classify(comm: &str) -> ThreadClass {
    if comm.starts_with("replica-") {
        ThreadClass::Replica
    } else if comm.starts_with("tnet-") {
        ThreadClass::Io
    } else if comm.starts_with("pump-") {
        ThreadClass::Pump
    } else {
        ThreadClass::Other
    }
}

/// The thread name and `utime + stime` in microseconds from the text of a `stat` file.
/// The name in field 2 is in parentheses and may itself hold spaces and parentheses, so
/// it ends at the last `)` and the other fields are counted from there.
pub fn parse_stat(stat: &str) -> Option<(&str, u64)> {
    let (open, close) = (stat.find('(')?, stat.rfind(')')?);
    let comm = stat.get(open + 1..close)?;
    // After the name comes field 3 (state); utime and stime are fields 14 and 15.
    let mut fields = stat[close + 1..].split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((comm, (utime + stime) * TICK_US))
}

/// Time on a CPU in microseconds from the text of a `schedstat` file: its first field,
/// in nanoseconds.
pub fn parse_schedstat_us(schedstat: &str) -> Option<u64> {
    let on_cpu_ns: u64 = schedstat.split_ascii_whitespace().next()?.parse().ok()?;
    Some(on_cpu_ns / 1000)
}

/// CPU time of the whole process so far, threads that ended included.
pub fn process_cpu_us() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s).map(|(_, cpu_us)| cpu_us))
        .unwrap_or(0)
}

/// Cores this process may run on; every result that depends on threads is stamped
/// with it.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Resident set size in MB, from the `VmRSS` line of `/proc/self/status`.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_rss_kb(&status).unwrap_or(0) as f64 / 1024.0
}

fn parse_vm_rss_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// One reading of every live thread: `tid -> (comm, cpu_us)`. Threads that end between
/// the directory listing and the read are skipped.
fn read_tasks() -> BTreeMap<u64, (String, u64)> {
    let mut tasks = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return tasks;
    };
    for entry in dir.flatten() {
        let path = entry.path();
        let Some(tid) = path.file_name().and_then(|n| n.to_str()?.parse().ok()) else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(path.join("stat")) else {
            continue;
        };
        let Some((comm, ticked_us)) = parse_stat(&stat) else {
            continue;
        };
        // `stat` counts in 10 ms ticks, rounded down per thread: with a hundred threads
        // that alone loses a second. `schedstat` has the same time in nanoseconds, where
        // the kernel keeps it.
        let cpu_us = std::fs::read_to_string(path.join("schedstat"))
            .ok()
            .and_then(|s| parse_schedstat_us(&s))
            .unwrap_or(ticked_us);
        tasks.insert(tid, (comm.to_string(), cpu_us));
    }
    tasks
}

/// CPU microseconds spent between [`CpuSampler::start`] and [`CpuSampler::stop`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuSplit {
    /// `replica-*` threads.
    pub replica_us: u64,
    /// `tnet-*` threads.
    pub io_us: u64,
    /// `pump-*` threads.
    pub pump_us: u64,
    /// Everything else: the main thread and the sampler.
    pub other_us: u64,
    /// The whole process, from `/proc/self/stat`.
    pub process_us: u64,
}

impl CpuSplit {
    /// Sum over the thread classes; within a few percent of `process_us` unless threads
    /// burnt CPU between their last poll and their end.
    pub fn classes_us(&self) -> u64 {
        self.replica_us + self.io_us + self.pump_us + self.other_us
    }
}

/// Folds first and last readings per thread into per-class totals. A thread absent
/// from the baseline started after it, so all its time counts.
fn split(
    baseline: &BTreeMap<u64, (String, u64)>,
    last: &BTreeMap<u64, (String, u64)>,
    process_us: u64,
) -> CpuSplit {
    let mut out = CpuSplit {
        process_us,
        ..CpuSplit::default()
    };
    for (tid, (comm, cpu_us)) in last {
        let before = baseline.get(tid).map_or(0, |(_, us)| *us);
        let spent = cpu_us.saturating_sub(before);
        match classify(comm) {
            ThreadClass::Replica => out.replica_us += spent,
            ThreadClass::Io => out.io_us += spent,
            ThreadClass::Pump => out.pump_us += spent,
            ThreadClass::Other => out.other_us += spent,
        }
    }
    out
}

/// Polls the process's threads from a thread of its own.
pub struct CpuSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<BTreeMap<u64, (String, u64)>>,
    baseline: BTreeMap<u64, (String, u64)>,
    process_start_us: u64,
}

impl CpuSampler {
    /// Takes the baseline reading and starts polling.
    pub fn start() -> CpuSampler {
        let baseline = read_tasks();
        let process_start_us = process_cpu_us();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let mut last = baseline.clone();
        let handle = std::thread::Builder::new()
            .name("perf-sampler".to_string())
            .spawn(move || {
                while !flag.load(Ordering::Relaxed) {
                    std::thread::sleep(POLL);
                    // Keep the readings of threads that have ended since.
                    last.extend(read_tasks());
                }
                last
            })
            .expect("spawn sampler thread");
        CpuSampler {
            stop,
            handle,
            baseline,
            process_start_us,
        }
    }

    /// Stops polling and returns the time spent per class since [`CpuSampler::start`].
    pub fn stop(self) -> CpuSplit {
        self.stop.store(true, Ordering::Relaxed);
        let last = self.handle.join().expect("sampler thread");
        let process_us = process_cpu_us().saturating_sub(self.process_start_us);
        split(&self.baseline, &last, process_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (tnet-writer-429) S 1 4242 4242 0 -1 4194368 12 0 0 0 \
                        137 45 0 0 20 0 31 0 9876 123456789 456 18446744073709551615 \
                        1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn stat_parser_reads_the_name_and_utime_plus_stime() {
        assert_eq!(
            parse_stat(STAT),
            Some(("tnet-writer-429", (137 + 45) * TICK_US))
        );
    }

    #[test]
    fn stat_parser_survives_names_with_spaces_and_parentheses() {
        let stat = STAT.replace("(tnet-writer-429)", "(a b) c) d)");
        assert_eq!(parse_stat(&stat), Some(("a b) c) d", (137 + 45) * TICK_US)));
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
        assert_eq!(parse_stat(") ("), None);
    }

    #[test]
    fn schedstat_parser_reads_nanoseconds_on_cpu() {
        assert_eq!(parse_schedstat_us("403505 57125 2\n"), Some(403));
        assert_eq!(parse_schedstat_us(""), None);
        assert_eq!(parse_schedstat_us("x 1 2"), None);
    }

    #[test]
    fn truncated_thread_names_still_classify() {
        assert_eq!(classify("tnet-writer-429"), ThreadClass::Io);
        assert_eq!(classify("tnet-reader"), ThreadClass::Io);
        assert_eq!(classify("tnet-accept-429"), ThreadClass::Io);
        assert_eq!(classify("replica-12-i0"), ThreadClass::Replica);
        assert_eq!(classify("pump-2"), ThreadClass::Pump);
        assert_eq!(classify("tempo-perf"), ThreadClass::Other);
        assert_eq!(classify("perf-sampler"), ThreadClass::Other);
    }

    #[test]
    fn vm_rss_line_is_found() {
        let status = "Name:\ttempo-perf\nVmPeak:\t  999 kB\nVmRSS:\t   20480 kB\nThreads:\t9\n";
        assert_eq!(parse_vm_rss_kb(status), Some(20_480));
        assert_eq!(parse_vm_rss_kb("Name:\tx\n"), None);
    }

    #[test]
    fn split_charges_new_threads_in_full_and_old_ones_by_difference() {
        let task = |comm: &str, us: u64| (comm.to_string(), us);
        let baseline =
            BTreeMap::from([(1, task("tempo-perf", 50)), (2, task("replica-0-i0", 100))]);
        let last = BTreeMap::from([
            (1, task("tempo-perf", 80)),
            (2, task("replica-0-i0", 1_100)),
            (3, task("pump-0", 400)),
            (4, task("tnet-writer-429", 70)),
            (5, task("tnet-reader", 30)),
        ]);
        let got = split(&baseline, &last, 1_600);
        assert_eq!(
            got,
            CpuSplit {
                replica_us: 1_000,
                io_us: 100,
                pump_us: 400,
                other_us: 30,
                process_us: 1_600,
            }
        );
        assert_eq!(got.classes_us(), 1_530);
    }

    #[test]
    fn sampler_sees_a_busy_named_thread() {
        let sampler = CpuSampler::start();
        let worker = std::thread::Builder::new()
            .name("pump-7".to_string())
            .spawn(|| {
                let start = std::time::Instant::now();
                let mut x = 0u64;
                while start.elapsed() < Duration::from_millis(300) {
                    x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
                }
                // Stay alive past one more poll so the last reading is complete.
                std::thread::sleep(POLL * 3);
            })
            .expect("spawn worker");
        worker.join().expect("worker");
        let cpu = sampler.stop();
        assert!(
            cpu.pump_us >= 50_000,
            "a 300 ms spin must show as pump time, even on a busy machine: {cpu:?}"
        );
        assert!(cpu.process_us >= cpu.pump_us / 2, "{cpu:?}");
    }
}
