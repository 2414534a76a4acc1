//! Span recording for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public functions: name, layer, start, end and parent (the span open on
//! the same thread when it started). Spans are kept in memory and written
//! out when the run ends. A thread is a *lane*; a span's self time is its
//! duration minus its children's, and children on one lane never overlap,
//! so a lane's self times add up to its root spans' durations exactly. The
//! reconciliation therefore asks how much of each root stays unattributed
//! (the root's own self time) — that must stay under [`TOLERANCE`].
//!
//! When tracing is off, [`span`] is one relaxed load and returns `None`.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Largest share of a lane root's duration that may stay unattributed to
/// a named child span before the trace counts as not reconciled.
pub const TOLERANCE: f64 = 0.05;

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id (per process).
    pub id: u32,
    /// The span that was open on this lane when this one started.
    pub parent: Option<u32>,
    /// The recording thread.
    pub lane: u32,
    /// What was called.
    pub name: &'static str,
    /// The layer (module) the call belongs to.
    pub layer: &'static str,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Nanoseconds.
    pub dur_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_LANE: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static COUNTS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());

thread_local! {
    static LANE: Cell<Option<u32>> = const { Cell::new(None) };
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn lane() -> u32 {
    LANE.with(|l| {
        l.get().unwrap_or_else(|| {
            let id = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
            l.set(Some(id));
            id
        })
    })
}

/// Turns recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is recording on?
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped.
#[derive(Debug)]
pub struct Guard {
    id: u32,
    parent: Option<u32>,
    lane: u32,
    name: &'static str,
    layer: &'static str,
    start: Instant,
}

/// Opens a span on the calling thread's lane, or returns `None` when
/// tracing is off.
pub fn span(name: &'static str, layer: &'static str) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    Some(Guard {
        id,
        parent,
        lane: lane(),
        name,
        layer,
        start: Instant::now(),
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = Instant::now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.id) {
                s.pop();
            }
        });
        push(Span {
            id: self.id,
            parent: self.parent,
            lane: self.lane,
            name: self.name,
            layer: self.layer,
            start_ns: nanos(self.start.saturating_duration_since(epoch())),
            dur_ns: nanos(end - self.start),
        });
    }
}

/// Records `dur` of work done in many small pieces (too many for one span
/// each) as one child of the span currently open on this lane, ending now.
pub fn record_aggregate(name: &'static str, layer: &'static str, dur: Duration) {
    if !enabled() || dur.is_zero() {
        return;
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let end = nanos(epoch().elapsed());
    push(Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        lane: lane(),
        name,
        layer,
        start_ns: end.saturating_sub(nanos(dur)),
        dur_ns: nanos(dur),
    });
}

/// Adds `n` to the counter `name` (recorded only while tracing).
pub fn count(name: &'static str, n: u64) {
    if enabled() {
        *lock(&COUNTS).entry(name).or_insert(0) += n;
    }
}

fn push(span: Span) {
    lock(&SPANS).push(span);
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A panic elsewhere never leaves a half-written span behind: pushes
    // and increments are single operations.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Takes every span recorded so far (sorted by start) and every counter.
pub fn take() -> (Vec<Span>, BTreeMap<&'static str, u64>) {
    let mut spans = std::mem::take(&mut *lock(&SPANS));
    spans.sort_by_key(|s| (s.start_ns, s.id));
    (spans, std::mem::take(&mut *lock(&COUNTS)))
}

/// Self time of every span, by id: duration minus the durations of its
/// direct children.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut selfs: BTreeMap<u32, u64> = spans.iter().map(|s| (s.id, s.dur_ns)).collect();
    for s in spans {
        if let Some(parent) = s.parent.and_then(|p| selfs.get_mut(&p)) {
            *parent = parent.saturating_sub(s.dur_ns);
        }
    }
    selfs
}

/// Self time per layer, in nanoseconds — roots included under their own
/// layer.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let selfs = self_times(spans);
    let mut layers = BTreeMap::new();
    for s in spans {
        *layers.entry(s.layer).or_insert(0) += selfs[&s.id];
    }
    layers
}

/// Total duration of spans called `name`, in nanoseconds.
pub fn total(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns)
        .sum()
}

/// How well the named layers account for the wall: per lane, the share of
/// the root spans' duration left in the roots' own self time. Returns the
/// worst lane's share (0 when there are no spans).
pub fn unattributed_share(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let mut lanes: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        let lane = lanes.entry(s.lane).or_insert((0, 0));
        lane.0 += s.dur_ns;
        lane.1 += selfs[&s.id];
    }
    lanes
        .values()
        .filter(|(dur, _)| *dur > 0)
        .map(|&(dur, unattributed)| unattributed as f64 / dur as f64)
        .fold(0.0, f64::max)
}

/// The spans as Chrome trace-event JSON (complete events, microseconds),
/// which Perfetto and `chrome://tracing` open.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            s.name,
            s.layer,
            s.lane,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.id,
            s.parent.map_or("null".to_owned(), |p| p.to_string()),
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(
        id: u32,
        parent: Option<u32>,
        lane: u32,
        layer: &'static str,
        start: u64,
        dur: u64,
    ) -> Span {
        Span {
            id,
            parent,
            lane,
            name: layer,
            layer,
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            sp(1, None, 0, "leg", 0, 100),
            sp(2, Some(1), 0, "program", 0, 60),
            sp(3, Some(2), 0, "log", 10, 20),
            sp(4, Some(1), 0, "pool", 60, 38),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 2);
        assert_eq!(selfs[&2], 40);
        assert_eq!(selfs[&3], 20);
        let layers = self_by_layer(&spans);
        assert_eq!(
            layers.values().sum::<u64>(),
            100,
            "a lane's self times add up to its roots"
        );
        assert_eq!(layers["leg"], 2);
    }

    #[test]
    fn unattributed_share_is_the_worst_lanes_root_self_time() {
        let spans = [
            sp(1, None, 0, "leg", 0, 100),
            sp(2, Some(1), 0, "program", 0, 99),
            sp(3, None, 1, "checker", 0, 50),
            sp(4, Some(3), 1, "channel", 0, 40),
        ];
        assert!((unattributed_share(&spans) - 0.2).abs() < 1e-12);
        assert_eq!(unattributed_share(&[]), 0.0);
    }

    #[test]
    fn spans_nest_by_thread_and_record_only_while_enabled() {
        assert!(span("off", "x").is_none());
        set_enabled(true);
        {
            let _outer = span("outer", "a");
            let _inner = span("inner", "b");
            count("things", 2);
        }
        std::thread::spawn(|| drop(span("other", "c")))
            .join()
            .unwrap();
        set_enabled(false);
        let (spans, counts) = take();
        let get = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let (outer, inner, other) = (get("outer"), get("inner"), get("other"));
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(other.parent, None);
        assert_ne!(other.lane, outer.lane);
        assert!(inner.dur_ns <= outer.dur_ns);
        assert_eq!(counts["things"], 2);
        assert!(chrome_json(&spans).contains("\"name\":\"inner\""));
    }
}
