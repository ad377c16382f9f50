//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Nothing inside `crates/` is instrumented. The traced reps re-enact a
//! campaign step by step from this package, wrapping every call into a
//! layer's public function in a span (name, start, end, parent, rep).
//! Spans stay in memory and are written out once, at exit. A layer's self
//! time is its span minus the part its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has consumed, in nanoseconds (all threads).
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark supports), and
    // clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Which traced rep the span belongs to.
    pub rep: u32,
    /// Process CPU time over the span (root spans only; 0 elsewhere).
    pub cpu_ns: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
    reps: u32,
    counts: BTreeMap<&'static str, u64>,
}

/// Single-threaded span recorder (the traced reps run on one thread).
pub struct Tracer {
    t0: Instant,
    inner: RefCell<Inner>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { t0: Instant::now(), inner: RefCell::default() }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span. Spans opened by `f` become its children.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut t = self.inner.borrow_mut();
            let (parent, rep) = (t.open.last().copied(), t.rep);
            t.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, rep, cpu_ns: 0 });
            let id = t.spans.len() - 1;
            t.open.push(id);
            id
        };
        // Clocks are read innermost, so bookkeeping lands in the parent.
        let root = self.inner.borrow().spans[id].parent.is_none();
        let cpu0 = if root { process_cpu_ns() } else { 0 };
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let cpu_ns = if root { process_cpu_ns() - cpu0 } else { 0 };
        let mut t = self.inner.borrow_mut();
        t.open.pop();
        let s = &mut t.spans[id];
        (s.start_ns, s.end_ns, s.cpu_ns) = (start, end, cpu_ns);
        out
    }

    /// The root span of traced rep `rep`, which also carries the CPU clock.
    pub fn rep<R>(&self, rep: u32, f: impl FnOnce() -> R) -> R {
        {
            let mut t = self.inner.borrow_mut();
            t.reps += 1;
            t.rep = rep;
        }
        self.span("campaign.rep", f)
    }

    /// Add to a work count taken at a layer boundary (events replayed,
    /// accesses filtered, ...), so unit costs are measured where the work
    /// happens.
    pub fn count(&self, name: &'static str, n: u64) {
        *self.inner.borrow_mut().counts.entry(name).or_default() += n;
    }

    /// A work count per rep (0 for a name never counted).
    pub fn per_rep(&self, name: &str) -> f64 {
        let t = self.inner.borrow();
        t.counts.get(name).copied().unwrap_or(0) as f64 / t.reps.max(1) as f64
    }

    /// Wall seconds of each traced rep (its root span).
    pub fn rep_walls_s(&self) -> Vec<f64> {
        let t = self.inner.borrow();
        let roots = t.spans.iter().filter(|s| s.parent.is_none());
        roots.map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9).collect()
    }

    /// Process CPU seconds per wall second over the root spans.
    pub fn cpu_per_wall(&self) -> f64 {
        let t = self.inner.borrow();
        let roots = t.spans.iter().filter(|s| s.parent.is_none());
        let (cpu, wall) =
            roots.fold((0u64, 0u64), |(c, w), s| (c + s.cpu_ns, w + s.end_ns - s.start_ns));
        cpu as f64 / wall.max(1) as f64
    }

    /// Self seconds per span name, one entry per rep. A name missing
    /// from a rep counts as zero there.
    fn self_seconds_by_rep(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let t = self.inner.borrow();
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        // Reps are recorded one after another, so equal ids are adjacent.
        let mut reps: Vec<u32> = t.spans.iter().map(|s| s.rep).collect();
        reps.dedup();
        let mut by_rep: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, &kids) in t.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(kids) as f64 * 1e-9;
            let slot = reps.iter().position(|&r| r == s.rep).expect("rep of a recorded span");
            by_rep.entry(s.name).or_insert_with(|| vec![0.0; reps.len()])[slot] += own;
        }
        by_rep
    }

    /// Self seconds per span name in the fastest traced rep (every timing
    /// the benchmark reports is that of its fastest rep).
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let rep = crate::stats::fastest(&self.rep_walls_s());
        self.self_seconds_by_rep().into_iter().map(|(name, v)| (name, v[rep])).collect()
    }

    /// Self seconds per span name, summed over the reps.
    pub fn self_seconds_total(&self) -> BTreeMap<&'static str, f64> {
        let by_rep = self.self_seconds_by_rep();
        by_rep.into_iter().map(|(name, v)| (name, v.iter().sum())).collect()
    }

    /// Write every span as one JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        let t = self.inner.borrow();
        for (i, s) in t.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == t.spans.len() { "" } else { "," };
            writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"rep\": {}, \"cpu_ns\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.rep, s.cpu_ns
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let tr = Tracer::new();
        let spin = |ms: u64| {
            let t = Instant::now();
            while t.elapsed().as_millis() < ms as u128 {}
        };
        for rep in 0..3 {
            tr.rep(rep, || {
                spin(2);
                tr.span("child", || spin(6));
            });
        }
        let own = tr.self_seconds();
        assert!(own["child"] >= 0.006);
        assert!(own["campaign.rep"] >= 0.002 && own["campaign.rep"] < 0.006);
        let walls = tr.rep_walls_s();
        assert_eq!(walls.len(), 3);
        assert!(walls.iter().all(|&w| w >= 0.008));
        assert!(tr.cpu_per_wall() > 0.5, "a spinning thread is on the CPU");
    }
}
