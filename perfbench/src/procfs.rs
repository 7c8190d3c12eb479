//! Readings from `/proc`: peak resident memory, thread counts and the
//! benchmark's child processes (the `qad` fleet).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the sampler reads the fleet's `/proc` entries.
const SAMPLE_INTERVAL: Duration = Duration::from_millis(10);

/// Reads the numeric field `key` (e.g. `VmHWM`, `Threads`) of
/// `/proc/<pid>/status`; memory fields are in KiB.
pub fn status_field(pid: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set of this process so far, in KiB.
pub fn self_peak_rss_kb() -> u64 {
    status_field("self", "VmHWM").unwrap_or(0)
}

/// `(state, parent pid)` of a process from `/proc/<pid>/stat`, or `None`
/// once the process has been reaped.
pub fn state_and_parent(pid: u32) -> Option<(char, u32)> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name is parenthesized and may itself hold spaces or
    // parentheses, so the fields start after the last ')'.
    let mut fields = text[text.rfind(')')? + 1..].split_whitespace();
    let state = fields.next()?.chars().next()?;
    let parent = fields.next()?.parse().ok()?;
    Some((state, parent))
}

/// Live (not yet reaped) children of this process, in pid order.
pub fn children() -> Vec<u32> {
    let me = std::process::id();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut pids: Vec<u32> = entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .filter(|&pid| matches!(state_and_parent(pid), Some((_, parent)) if parent == me))
        .collect();
    pids.sort_unstable();
    pids
}

/// Whether `pid` is still a running (not exited) child of this process.
/// An exited but unreaped child is a zombie (`Z`) and does not count.
pub fn is_running_child(pid: u32) -> bool {
    matches!(state_and_parent(pid), Some((state, parent))
        if parent == std::process::id() && state != 'Z' && state != 'X')
}

/// What the sampler saw while the fleet served load.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Most threads this process ran at once.
    pub self_threads_peak: u64,
    /// Peak resident set per child, in KiB (the last `VmHWM` read
    /// before it exited).
    pub child_peak_kb: BTreeMap<u32, u64>,
    /// Most threads any one child ran at once.
    pub child_threads_peak: u64,
    /// Children seen exited (zombie or gone) while sampling.
    pub child_exited: Vec<u32>,
}

/// Polls this process and the given children on a background thread
/// until [`Sampler::finish`].
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Samples>,
}

impl Sampler {
    /// Starts sampling `children` (and this process).
    pub fn start(children: Vec<u32>) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut s = Samples::default();
            loop {
                // Read once more after the stop flag so the final state
                // of every child is recorded.
                let last = flag.load(Ordering::Relaxed);
                let threads = status_field("self", "Threads").unwrap_or(0);
                s.self_threads_peak = s.self_threads_peak.max(threads);
                for &pid in &children {
                    if s.child_exited.contains(&pid) {
                        continue;
                    }
                    if !is_running_child(pid) {
                        s.child_exited.push(pid);
                        continue;
                    }
                    let key = pid.to_string();
                    if let Some(kb) = status_field(&key, "VmHWM") {
                        let peak = s.child_peak_kb.entry(pid).or_default();
                        *peak = (*peak).max(kb);
                    }
                    let threads = status_field(&key, "Threads").unwrap_or(0);
                    s.child_threads_peak = s.child_threads_peak.max(threads);
                }
                if last {
                    return s;
                }
                std::thread::sleep(SAMPLE_INTERVAL);
            }
        });
        Sampler { stop, handle }
    }

    /// Stops sampling and returns what was seen.
    ///
    /// # Panics
    /// Panics when the sampling thread panicked.
    pub fn finish(self) -> Samples {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("sampler thread panicked")
    }
}
