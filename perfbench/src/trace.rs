//! Spans the benchmark records around its own calls into each layer.
//!
//! A span has a layer, a name, host start/end times relative to the
//! tracer's epoch, and the id of the span that was open on the same thread
//! when it began (or an explicit parent for work handed to another
//! thread). Spans are kept in memory and written out once, at the end of
//! the repetition. A disabled tracer records nothing and reads no clock.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mempool_obs::Json;

#[derive(Debug, Clone)]
struct SpanRec {
    id: u64,
    parent: Option<u64>,
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// In-memory span recorder shared by every thread of one repetition.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
    next_id: AtomicU64,
}

/// An open span; it ends when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    open: Option<(u64, Option<u64>, &'static str, &'static str, Instant)>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span under the innermost span open on this thread.
    pub fn span(&self, layer: &'static str, name: &'static str) -> Guard<'_> {
        let parent = self.current();
        self.span_under(parent, layer, name)
    }

    /// Opens a span under an explicit parent (a span of another thread).
    pub fn span_under(
        &self,
        parent: Option<u64>,
        layer: &'static str,
        name: &'static str,
    ) -> Guard<'_> {
        if !self.on {
            return Guard {
                tracer: self,
                open: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push(id));
        Guard {
            tracer: self,
            open: Some((id, parent, layer, name, Instant::now())),
        }
    }

    /// The innermost span open on this thread.
    pub fn current(&self) -> Option<u64> {
        if !self.on {
            return None;
        }
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// Records an already finished interval under the innermost open span.
    pub fn interval(&self, layer: &'static str, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current();
        self.push(SpanRec {
            id,
            parent,
            layer,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    /// Total seconds and count of the spans called `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        let spans = self.spans.lock().expect("span list poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(secs, n), s| {
                (secs + (s.end_ns - s.start_ns) as f64 * 1e-9, n + 1)
            })
    }

    /// Every span as `{id, parent, layer, name, start_ns, end_ns}`, in
    /// start order.
    pub fn to_json(&self) -> Json {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        Json::Arr(
            spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::Int(s.id as i64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                        ),
                        ("layer", Json::str(s.layer)),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Int(s.start_ns as i64)),
                        ("end_ns", Json::Int(s.end_ns as i64)),
                    ])
                })
                .collect(),
        )
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, rec: SpanRec) {
        self.spans.lock().expect("span list poisoned").push(rec);
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some((id, parent, layer, name, start)) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&o| o == id) {
                open.remove(pos);
            }
        });
        let tracer = self.tracer;
        tracer.push(SpanRec {
            id,
            parent,
            layer,
            name,
            start_ns: tracer.ns(start),
            end_ns: tracer.ns(end),
        });
    }
}
