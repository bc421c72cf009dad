//! Process and thread counters read from `/proc` (Linux only).

use std::fs;

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Context switches (voluntary + involuntary) summed over every thread of
/// this process that is alive now.
pub fn ctx_switches() -> u64 {
    tasks()
        .iter()
        .map(|tid| {
            let path = format!("/proc/self/task/{tid}/status");
            status_field(&path, "voluntary_ctxt_switches:").unwrap_or(0)
                + status_field(&path, "nonvoluntary_ctxt_switches:").unwrap_or(0)
        })
        .sum()
}

/// CPU time in nanoseconds consumed so far by the thread named `comm`
/// (first field of its `schedstat`), or `None` when no such thread runs.
pub fn thread_cpu_ns(comm: &str) -> Option<u64> {
    tasks().into_iter().find_map(|tid| {
        let name = fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok()?;
        if name.trim_end() != comm {
            return None;
        }
        let stat = fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
        stat.split_whitespace().next()?.parse().ok()
    })
}

/// Pins every thread of this process that is alive now to one CPU, the
/// highest-numbered one it may run on; threads they spawn later inherit
/// the pin. Where the affinity cannot be read or set, the process runs
/// unpinned.
///
/// Every workload calls this once set-up is done. On the shared 2-vCPU
/// host the benchmark was sized on, work spread over both vCPUs is slowed
/// whenever either is: a wire request is handed client → connection
/// worker → engine thread and back, and which threads share a CPU changed
/// its latency by up to a fifth from run to run; the two shards of
/// `engine_bulk` and the forward passes split over threads wait for the
/// slower vCPU. On one CPU the hand-offs are plain context switches and a
/// run depends on one vCPU's neighbours only. Threads the program spawns
/// per call (shards, matrix chunks) still run, one after the other.
pub fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A glibc `cpu_set_t`: 1,024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return;
    }
    let Some(cpu) = (0..size * 8)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
    else {
        return;
    };
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    for tid in tasks() {
        let Ok(tid) = tid.parse::<i32>() else {
            continue;
        };
        // SAFETY: `one` is a readable buffer of `size` bytes.
        unsafe { sched_setaffinity(tid, size, one.as_ptr()) };
    }
}

fn tasks() -> Vec<String> {
    fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
                .collect()
        })
        .unwrap_or_default()
}

fn status_field(path: &str, key: &str) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}
