//! Peak memory of a process tree from `/proc`, signals, and `sync`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// `VmHWM` (peak resident set) of one process in KiB; `None` once it has
/// exited.
fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `pid` and every live descendant of it (its isolate workers).
fn process_tree(pid: u32) -> Vec<u32> {
    let mut parents: HashMap<u32, Vec<u32>> = HashMap::new();
    if let Ok(entries) = std::fs::read_dir("/proc") {
        for entry in entries.flatten() {
            let Some(child) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u32>().ok())
            else {
                continue;
            };
            // Field 4 of /proc/PID/stat, after the parenthesised command.
            let Ok(stat) = std::fs::read_to_string(format!("/proc/{child}/stat")) else {
                continue;
            };
            let ppid = stat
                .rsplit_once(')')
                .and_then(|(_, rest)| rest.split_whitespace().nth(1))
                .and_then(|p| p.parse::<u32>().ok());
            if let Some(ppid) = ppid {
                parents.entry(ppid).or_default().push(child);
            }
        }
    }
    let mut tree = vec![pid];
    let mut i = 0;
    while i < tree.len() {
        if let Some(children) = parents.get(&tree[i]) {
            tree.extend(children);
        }
        i += 1;
    }
    tree
}

/// Sum of the peak resident sets of `pid` and its descendants, in MiB,
/// read now.
pub fn tree_peak_rss_mb(pid: u32) -> f64 {
    let kb: u64 = process_tree(pid).into_iter().filter_map(vm_hwm_kb).sum();
    kb as f64 / 1024.0
}

/// Polls a process tree's peak resident sets while it runs, so the peak of
/// a short-lived program and its workers is caught before they exit. The
/// result is the largest sum over the processes alive at one poll, so a
/// worker that replaces a dead one is not counted twice.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: thread::JoinHandle<u64>,
}

impl RssSampler {
    pub fn start(pid: u32) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            let mut peak = 0;
            while !flag.load(Ordering::Relaxed) {
                let live: u64 = process_tree(pid).into_iter().filter_map(vm_hwm_kb).sum();
                peak = peak.max(live);
                thread::sleep(Duration::from_millis(1));
            }
            peak
        });
        RssSampler { stop, handle }
    }

    /// Stops sampling; the summed peak in MiB.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("rss sampler panicked") as f64 / 1024.0
    }
}

/// Flushes dirty pages (a fresh build's artifacts) to disk, so their
/// writeback does not land inside a measurement.
pub fn sync() {
    extern "C" {
        fn sync();
    }
    // SAFETY: sync(2) takes no arguments and cannot fail.
    unsafe { sync() }
}

/// Sends SIGTERM, which `vbadet serve` answers with a graceful drain.
pub fn terminate(pid: u32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    let pid = i32::try_from(pid).expect("pid fits in pid_t");
    // SAFETY: kill(2) takes plain integers and touches no memory of ours;
    // `pid` is a child this process spawned and has not yet reaped, so the
    // id cannot have been reused.
    unsafe {
        kill(pid, SIGTERM);
    }
}
