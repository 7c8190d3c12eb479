//! The benchmark's own span recorder.
//!
//! Every layer call the benchmark makes goes through [`Spans::time`],
//! which always measures the call's wall time and, in a traced run, also
//! keeps a span (name, start, end, causing span, repetition) in memory.
//! The spans are written out as JSON lines once the run is over, so
//! recording them costs one `Vec` push per call.

use qa_simnet::Json;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Layer call, e.g. `sim.run`.
    pub name: &'static str,
    /// Start, µs since the recorder was made.
    pub start_us: f64,
    /// End, µs since the recorder was made.
    pub end_us: f64,
    /// Index of the span open when this one started.
    pub parent: Option<usize>,
    /// Repetition (or fleet round) the span belongs to; spans of one
    /// repetition share it.
    pub rep: usize,
}

/// Span recorder; inert (timing only) unless enabled.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    rep: Cell<usize>,
    open: RefCell<Vec<usize>>,
    records: RefCell<Vec<SpanRecord>>,
}

impl Spans {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            rep: Cell::new(0),
            open: RefCell::new(Vec::new()),
            records: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags later spans with repetition `rep`.
    pub fn set_rep(&self, rep: usize) {
        self.rep.set(rep);
    }

    /// Runs `f`, returning its result and its wall time in seconds.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.enabled {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed().as_secs_f64());
        }
        let idx = {
            let mut records = self.records.borrow_mut();
            records.push(SpanRecord {
                name,
                start_us: 0.0,
                end_us: 0.0,
                parent: self.open.borrow().last().copied(),
                rep: self.rep.get(),
            });
            records.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.open.borrow_mut().pop();
        let mut records = self.records.borrow_mut();
        records[idx].start_us = (start - self.epoch).as_secs_f64() * 1e6;
        records[idx].end_us = (end - self.epoch).as_secs_f64() * 1e6;
        (out, (end - start).as_secs_f64())
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.records.borrow().len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, r) in self.records.borrow().iter().enumerate() {
            let line = Json::object([
                ("id", Json::Int(id as i64)),
                (
                    "parent",
                    r.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                ),
                ("rep", Json::Int(r.rep as i64)),
                ("name", Json::Str(r.name.to_string())),
                ("start_us", Json::Float(r.start_us)),
                ("end_us", Json::Float(r.end_us)),
            ]);
            out.push_str(&line.dump());
            out.push('\n');
        }
        out
    }
}
