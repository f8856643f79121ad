//! Spans recorded from the benchmark's own code around calls into the
//! program's public functions, kept in memory and written out at the end
//! of a traced run.
//!
//! A span has a name, a parent, a start and an end.  A layer's self time
//! is its spans' duration minus the part their child spans cover.  The
//! classifier walk is reached only from inside the serving front ends, so
//! [`Probe`] wraps a classifier and records a span around each batch the
//! front end hands it; the span's parent is the benchmark's span around
//! the front-end call on the same thread.

use pclass_algos::{Classifier, LookupStats};
use pclass_types::{ArenaStats, MatchResult, PacketHeader};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const ROOT: u32 = u32::MAX;

thread_local! {
    static CURRENT: Cell<u32> = const { Cell::new(ROOT) };
}

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    origin: Instant,
    on: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            on: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` when recording is on.
    pub fn record<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on.load(Ordering::Relaxed) {
            return f();
        }
        let parent = CURRENT.with(Cell::get);
        let id = {
            let mut spans = self.spans.lock().expect("span buffer poisoned");
            spans.push(Span {
                name,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            (spans.len() - 1) as u32
        };
        CURRENT.with(|c| c.set(id));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        CURRENT.with(|c| c.set(parent));
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        spans[id as usize].start_ns = start_ns;
        spans[id as usize].end_ns = end_ns;
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// Self time per span name (ns), and the summed duration of root spans.
pub fn self_times(spans: &[Span]) -> (BTreeMap<&'static str, u64>, u64) {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    let mut roots = 0u64;
    for s in spans {
        if s.parent == ROOT {
            roots += s.end_ns - s.start_ns;
        } else {
            own[s.parent as usize] -= s.end_ns - s.start_ns;
        }
    }
    let mut by_name = BTreeMap::new();
    for (s, t) in spans.iter().zip(own) {
        *by_name.entry(s.name).or_insert(0) += t;
    }
    (by_name, roots)
}

/// Writes spans as tab-separated lines: id, parent, name, start, end.
pub fn write_out(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(w, "{i}\t{parent}\t{}\t{}\t{}", s.name, s.start_ns, s.end_ns)?;
    }
    w.flush()
}

/// Shared state of every [`Probe`] of one front end.
pub struct ProbeState {
    pub rec: Recorder,
    /// Packets handed to the wrapped classifiers (cache misses, behind a
    /// hot cache).
    pub walked: AtomicU64,
}

impl ProbeState {
    pub fn new() -> Arc<ProbeState> {
        Arc::new(ProbeState {
            rec: Recorder::new(),
            walked: AtomicU64::new(0),
        })
    }
}

/// A classifier that counts and (when recording) times the batches handed
/// to the classifier it wraps.
#[derive(Clone)]
pub struct Probe<C> {
    inner: C,
    state: Arc<ProbeState>,
}

impl<C> Probe<C> {
    pub fn new(inner: C, state: &Arc<ProbeState>) -> Probe<C> {
        Probe {
            inner,
            state: Arc::clone(state),
        }
    }
}

impl<C: Classifier> Classifier for Probe<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn classify(&self, pkt: &PacketHeader) -> MatchResult {
        self.state.walked.fetch_add(1, Ordering::Relaxed);
        self.inner.classify(pkt)
    }

    fn classify_batch(&self, pkts: &[PacketHeader], out: &mut Vec<MatchResult>) {
        self.state
            .walked
            .fetch_add(pkts.len() as u64, Ordering::Relaxed);
        self.state
            .rec
            .record("walk", || self.inner.classify_batch(pkts, out));
    }

    fn classify_with_stats(&self, pkt: &PacketHeader, stats: &mut LookupStats) -> MatchResult {
        self.inner.classify_with_stats(pkt, stats)
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn worst_case_memory_accesses(&self) -> Option<u64> {
        self.inner.worst_case_memory_accesses()
    }

    fn arena_stats(&self) -> Option<ArenaStats> {
        self.inner.arena_stats()
    }
}
