//! The kernel/user shared error channel ("e.g., via sysfs in linux",
//! Section 3.2.1): the OS handler publishes corrupted-data virtual
//! addresses; the ABFT layer polls them during (simplified) verification.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// One exposed error: enough for ABFT to map the corruption back to a
/// specific element of a protected structure.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorReport {
    /// Virtual address of the corrupted line.
    pub vaddr: u64,
    /// Base virtual address of the containing allocation.
    pub alloc_vaddr: u64,
    /// Element index (f64 granularity) of the corrupted line's start
    /// within the allocation.
    pub element: usize,
    /// Allocation name (as registered by `malloc_ecc`).
    pub name: String,
    /// Detection time (seconds).
    pub time_s: f64,
}

/// Clonable handle to the shared report queue.
#[derive(Debug, Clone, Default)]
pub struct SysfsChannel {
    queue: Arc<Mutex<VecDeque<ErrorReport>>>,
}

impl SysfsChannel {
    /// Create an empty channel.
    pub fn new() -> Self {
        Self::default()
    }

    /// The queue, poisoned or not: every update is one push or one drain,
    /// so a thread that panicked while holding the lock left it valid.
    fn lock(&self) -> MutexGuard<'_, VecDeque<ErrorReport>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Kernel side: publish a report.
    pub fn publish(&self, report: ErrorReport) {
        self.lock().push_back(report);
    }

    /// User side: drain all pending reports (the ABFT "simplified
    /// verification" read).
    pub fn poll(&self) -> Vec<ErrorReport> {
        self.lock().drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(e: usize) -> ErrorReport {
        ErrorReport {
            vaddr: 64 * e as u64,
            alloc_vaddr: 0,
            element: e,
            name: "m".into(),
            time_s: 0.0,
        }
    }

    #[test]
    fn publish_poll_fifo() {
        let ch = SysfsChannel::new();
        ch.publish(report(1));
        ch.publish(report(2));
        let got = ch.poll();
        assert_eq!(got.iter().map(|r| r.element).collect::<Vec<_>>(), vec![1, 2]);
        assert!(ch.poll().is_empty());
    }

    #[test]
    fn clones_share_the_queue() {
        let a = SysfsChannel::new();
        let b = a.clone();
        a.publish(report(7));
        assert_eq!(b.poll()[0].element, 7);
    }

    #[test]
    fn shared_across_threads() {
        let ch = SysfsChannel::new();
        let tx = ch.clone();
        let h = std::thread::spawn(move || {
            for i in 0..100 {
                tx.publish(report(i));
            }
        });
        h.join().unwrap();
        assert_eq!(ch.poll().len(), 100);
    }
}
