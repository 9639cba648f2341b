//! The JSON Lines trace sink.
//!
//! [`JsonlRecorder`] buffers owned copies of every span in a small set
//! of mutex shards (sharded by unit id, so concurrent workers rarely
//! contend) and serializes on demand. The drain sorts by `(unit, seq)`
//! — the per-unit deterministic order — so the serialized trace does
//! not depend on which worker recorded what first.
//!
//! Two clocks:
//! * **wall** ([`JsonlRecorder::new`]) — nanoseconds since the recorder
//!   was created; the real-profiling mode.
//! * **deterministic** ([`JsonlRecorder::deterministic`]) — the calling
//!   unit's own event counter. Stamps are then a pure function of the
//!   unit's work, so a trace is byte-stable across runs and thread
//!   counts (pinned by a golden-file test).

use crate::{json, Event, Recorder, Stage, Value};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Number of buffer shards. Units hash by id, so neighbouring sweep
/// units land in different shards and workers rarely share a lock.
const SHARDS: usize = 16;

#[derive(Debug)]
enum Clock {
    Wall(Instant),
    Deterministic,
}

/// An owned field value (see [`Value`] for the borrowed form).
#[derive(Debug, Clone, PartialEq)]
pub enum OwnedValue {
    /// Unsigned counter.
    U64(u64),
    /// Signed quantity.
    I64(i64),
    /// Floating measurement.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Owned string.
    Str(String),
}

impl OwnedValue {
    fn from_value(v: &Value<'_>) -> Self {
        match *v {
            Value::U64(x) => OwnedValue::U64(x),
            Value::I64(x) => OwnedValue::I64(x),
            Value::F64(x) => OwnedValue::F64(x),
            Value::Bool(x) => OwnedValue::Bool(x),
            Value::Str(s) => OwnedValue::Str(s.to_owned()),
        }
    }

    /// The borrowed form, for [`json::write_value`].
    #[must_use]
    pub fn as_value(&self) -> Value<'_> {
        match self {
            OwnedValue::U64(x) => Value::U64(*x),
            OwnedValue::I64(x) => Value::I64(*x),
            OwnedValue::F64(x) => Value::F64(*x),
            OwnedValue::Bool(x) => Value::Bool(*x),
            OwnedValue::Str(s) => Value::Str(s),
        }
    }

    /// The string payload, if this is a string field.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            OwnedValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a u64, if it is an unsigned counter.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            OwnedValue::U64(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a bool, if it is a flag.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            OwnedValue::Bool(x) => Some(*x),
            _ => None,
        }
    }
}

/// One buffered span, owned by the recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedEvent {
    /// Trace unit id.
    pub unit: u64,
    /// Sequence number within the unit.
    pub seq: u32,
    /// Start stamp.
    pub start: u64,
    /// End stamp.
    pub end: u64,
    /// The stage that ran.
    pub stage: Stage,
    /// Payload fields, recording order.
    pub fields: Vec<(&'static str, OwnedValue)>,
}

impl OwnedEvent {
    /// Look up a field by name.
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&OwnedValue> {
        self.fields.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// The span's duration in its clock's units.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A lock-sharded, in-memory JSON Lines sink.
#[derive(Debug)]
pub struct JsonlRecorder {
    clock: Clock,
    shards: Vec<Mutex<Vec<OwnedEvent>>>,
}

impl Default for JsonlRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonlRecorder {
    /// A recorder stamping wall nanoseconds since creation.
    #[must_use]
    pub fn new() -> Self {
        Self::with_clock(Clock::Wall(Instant::now()))
    }

    /// A recorder stamping each unit's own event counter: traces are
    /// then byte-stable across runs and thread counts.
    #[must_use]
    pub fn deterministic() -> Self {
        Self::with_clock(Clock::Deterministic)
    }

    fn with_clock(clock: Clock) -> Self {
        JsonlRecorder {
            clock,
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Total spans buffered so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot every buffered span, sorted by `(unit, seq)` — the
    /// deterministic per-unit order, independent of recording
    /// interleaving.
    #[must_use]
    pub fn events(&self) -> Vec<OwnedEvent> {
        let mut all: Vec<OwnedEvent> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .iter()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_by_key(|e| (e.unit, e.seq));
        all
    }

    /// Serialize the sorted trace to JSON Lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            write_event(&mut out, &e);
            out.push('\n');
        }
        out
    }
}

impl Recorder for JsonlRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn now(&self, tick: u64) -> u64 {
        match &self.clock {
            Clock::Wall(anchor) => u64::try_from(anchor.elapsed().as_nanos()).unwrap_or(u64::MAX),
            Clock::Deterministic => tick,
        }
    }

    fn record(&self, event: &Event<'_>) {
        let owned = OwnedEvent {
            unit: event.unit,
            seq: event.seq,
            start: event.start,
            end: event.end,
            stage: event.stage,
            fields: event
                .fields
                .iter()
                .map(|(n, v)| (*n, OwnedValue::from_value(v)))
                .collect(),
        };
        let shard = (event.unit as usize) % SHARDS;
        self.shards[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(owned);
    }
}

/// Serialize one event as a single JSON object. The schema is flat:
/// the fixed keys `unit`, `seq`, `stage`, `t0`, `t1`, then the span's
/// fields inline, in recording order.
fn write_event(out: &mut String, e: &OwnedEvent) {
    use std::fmt::Write;
    let _ = write!(
        out,
        "{{\"unit\":{},\"seq\":{},\"stage\":\"{}\",\"t0\":{},\"t1\":{}",
        e.unit,
        e.seq,
        e.stage.as_str(),
        e.start,
        e.end
    );
    for (name, value) in &e.fields {
        out.push(',');
        json::write_str(out, name);
        out.push(':');
        json::write_value(out, value.as_value());
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UnitTrace;

    #[test]
    fn schema_is_flat_and_stable_under_the_deterministic_clock() {
        let rec = JsonlRecorder::deterministic();
        let mut tr = UnitTrace::new(&rec, 3);
        let t0 = tr.start();
        tr.stage(
            Stage::Compile,
            t0,
            &[
                ("unroll", Value::U64(4)),
                ("cache", Value::Str("miss")),
                ("fits", Value::Bool(true)),
                ("cpo", Value::F64(2.5)),
                ("delta", Value::I64(-3)),
            ],
        );
        assert_eq!(
            rec.to_jsonl(),
            "{\"unit\":3,\"seq\":1,\"stage\":\"compile\",\"t0\":1,\"t1\":2,\
             \"unroll\":4,\"cache\":\"miss\",\"fits\":true,\"cpo\":2.5,\"delta\":-3}\n"
        );
    }

    #[test]
    fn drain_order_is_unit_then_seq_regardless_of_recording_order() {
        let rec = JsonlRecorder::deterministic();
        // Record units out of order, as racing workers would.
        let mut b = UnitTrace::new(&rec, 17);
        let t = b.start();
        b.stage(Stage::List, t, &[]);
        let mut a = UnitTrace::new(&rec, 2);
        let t = a.start();
        a.stage(Stage::List, t, &[]);
        let t = a.start();
        a.stage(Stage::Regalloc, t, &[]);
        let events = rec.events();
        let keys: Vec<(u64, u32)> = events.iter().map(|e| (e.unit, e.seq)).collect();
        assert_eq!(keys, vec![(2, 1), (2, 2), (17, 1)]);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let rec = JsonlRecorder::deterministic();
        let mut tr = UnitTrace::new(&rec, 0);
        let t0 = tr.start();
        tr.stage(Stage::Unit, t0, &[("cpo", Value::F64(f64::NAN))]);
        assert!(rec.to_jsonl().contains("\"cpo\":null"));
    }

    #[test]
    fn strings_are_escaped() {
        let rec = JsonlRecorder::deterministic();
        let mut tr = UnitTrace::new(&rec, 0);
        let t0 = tr.start();
        tr.stage(Stage::Unit, t0, &[("why", Value::Str("a\"b\\c\nd\u{1}"))]);
        assert!(rec.to_jsonl().contains(r#""why":"a\"b\\c\nd\u0001""#));
    }

    #[test]
    fn wall_clock_stamps_are_monotonic() {
        let rec = JsonlRecorder::new();
        let mut tr = UnitTrace::new(&rec, 0);
        let t0 = tr.start();
        tr.stage(Stage::Parse, t0, &[]);
        let e = &rec.events()[0];
        assert!(e.end >= e.start);
    }

    #[test]
    fn field_lookup_and_duration() {
        let rec = JsonlRecorder::deterministic();
        let mut tr = UnitTrace::new(&rec, 0);
        let t0 = tr.start();
        tr.stage(Stage::List, t0, &[("steps", Value::U64(42))]);
        let e = &rec.events()[0];
        assert_eq!(e.field("steps").and_then(OwnedValue::as_u64), Some(42));
        assert_eq!(e.field("missing"), None);
        assert_eq!(e.duration(), 1);
    }
}
