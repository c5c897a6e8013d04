//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer (HTTP round-trips, daemon ticks, grid advances, compactions)
//! and by the timing wrappers it installs around the science executables.
//! Each span keeps its name, start, end, parent and the simulation or
//! request it served; every span of one simulation carries that
//! simulation's id. Nothing is written until [`write`] at the end.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub sim: Option<i64>,
    pub req: Option<u64>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_REQ: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// A process-unique request id for spans of browsing traffic.
pub fn next_req() -> u64 {
    NEXT_REQ.fetch_add(1, Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    /// The innermost open span on this thread: the parent of new spans.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Turn recording on or off (off: guards still time, nothing is kept).
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span. Always measures its duration; records a [`Span`] only
/// while tracing is enabled.
pub struct Guard {
    id: u64,
    name: &'static str,
    start: Instant,
    parent: Option<u64>,
    sim: Option<i64>,
    req: Option<u64>,
    recording: bool,
}

/// Open a span named `name` under the thread's innermost open span.
pub fn enter(name: &'static str, sim: Option<i64>) -> Guard {
    let recording = enabled();
    let (id, parent) = if recording {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().copied();
            o.push(id);
            parent
        });
        (id, parent)
    } else {
        (0, None)
    };
    Guard {
        id,
        name,
        start: Instant::now(),
        parent,
        sim,
        req: None,
        recording,
    }
}

impl Guard {
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attribute the span to a simulation learned mid-span (a submit
    /// learns its simulation id from the response).
    pub fn set_sim(&mut self, sim: i64) {
        self.sim = Some(sim);
    }

    pub fn set_req(&mut self, req: u64) {
        self.req = Some(req);
    }

    /// Close the span and return its duration.
    pub fn finish(self) -> Duration {
        let end = Instant::now();
        let took = end - self.start;
        if self.recording {
            OPEN.with(|o| {
                let mut o = o.borrow_mut();
                if o.last() == Some(&self.id) {
                    o.pop();
                }
            });
            let base = epoch();
            record(Span {
                id: self.id,
                name: self.name,
                start_ns: (self.start - base).as_nanos() as u64,
                end_ns: (end - base).as_nanos() as u64,
                parent: self.parent,
                sim: self.sim,
                req: self.req,
            });
        }
        took
    }
}

/// Record a span measured elsewhere (the daemon's own per-item tick
/// profile) as a child of `parent`.
pub fn record_child(
    name: &'static str,
    parent: u64,
    start: Instant,
    took: Duration,
    sim: Option<i64>,
) {
    if !enabled() {
        return;
    }
    let base = epoch();
    let start_ns = start.saturating_duration_since(base).as_nanos() as u64;
    record(Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        name,
        start_ns,
        end_ns: start_ns + took.as_nanos() as u64,
        parent: Some(parent),
        sim,
        req: None,
    });
}

fn record(span: Span) {
    SPANS.lock().expect("span store poisoned").push(span);
}

/// Every span recorded so far (the run's in-memory trace).
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span store poisoned").clone()
}

/// Write every recorded span as one JSON object per line.
pub fn write(path: &Path) -> std::io::Result<usize> {
    let spans = spans();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &spans {
        let line = serde_json::json!({
            "id": s.id,
            "name": s.name,
            "start_us": s.start_ns as f64 / 1e3,
            "end_us": s.end_ns as f64 / 1e3,
            "parent": s.parent,
            "sim": s.sim,
            "req": s.req,
        });
        writeln!(out, "{line}")?;
    }
    out.flush()?;
    Ok(spans.len())
}
