//! Event tracing for the simulators: Chrome `trace_event` JSON output.
//!
//! A [`Trace`] records typed *span* (`ph: "X"`) and *instant* (`ph: "i"`)
//! events against the simulated clock and exports them in the Chrome
//! trace-event format, so any run can be opened in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev) and inspected visually — per-request
//! fan-out trees, hedge triggers, sensor duty cycles.
//!
//! ## Zero cost when disabled
//!
//! Every recording method begins with a single predictable branch on
//! `enabled` and returns immediately when tracing is off; a disabled trace
//! never allocates (the guard test in `xxi-bench` asserts exactly this).
//! Simulators can therefore leave trace calls in their hot loops
//! unconditionally.
//!
//! ```
//! use xxi_core::obs::Trace;
//! use xxi_core::SimTime;
//!
//! let mut tr = Trace::enabled();
//! let id = tr.begin("request", "cloud", 0, SimTime::ZERO);
//! tr.instant("hedge-fired", "cloud", 0, SimTime::from_ns(9_000));
//! tr.end(id, SimTime::from_ns(12_000));
//! let json = tr.chrome_json();
//! assert!(json.contains("\"ph\":\"X\""));
//! assert!(json.contains("\"ph\":\"i\""));
//! ```

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::report::json::Json;
use crate::time::SimTime;

/// Default cap on recorded events; beyond it new events are counted in
/// [`Trace::dropped`] instead of stored, bounding trace memory for long
/// simulations.
pub const DEFAULT_EVENT_LIMIT: usize = 1 << 20;

/// Handle to an open span returned by [`Trace::begin`].
///
/// Must be closed with [`Trace::end`]. Handles from a disabled trace are
/// inert sentinels; ending them is a no-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    const DISABLED: SpanId = SpanId(u32::MAX);
}

#[derive(Clone, Debug)]
enum Phase {
    /// Complete span: `ph: "X"` with a duration.
    Span(SimTime),
    /// Instant event: `ph: "i"`, thread scope.
    Instant,
}

#[derive(Clone, Debug)]
struct Event {
    name: &'static str,
    cat: &'static str,
    track: u64,
    ts: SimTime,
    phase: Phase,
    args: Vec<(&'static str, f64)>,
}

impl Event {
    fn to_json(&self) -> Json {
        let us = |t: SimTime| Json::Num(format!("{:.6}", t.us()));
        let (ph, extra) = match self.phase {
            Phase::Span(dur) => ("X", ("dur", us(dur))),
            Phase::Instant => ("i", ("s", Json::str("t"))),
        };
        let mut m = vec![
            ("name", Json::str(self.name)),
            ("cat", Json::str(self.cat)),
            ("ph", Json::str(ph)),
            ("ts", us(self.ts)),
            extra,
            ("pid", Json::int(0)),
            ("tid", Json::int(self.track)),
        ];
        if !self.args.is_empty() {
            let args = self.args.iter().map(|&(k, v)| (k, Json::num(v)));
            m.push(("args", Json::obj(args)));
        }
        Json::obj(m)
    }
}

#[derive(Clone, Debug)]
struct Open {
    name: &'static str,
    cat: &'static str,
    track: u64,
    start: SimTime,
    live: bool,
}

/// A recorder of span/instant events on the simulated clock.
///
/// Tracks (`tid` in the Chrome output) let concurrent activities — leaves
/// of a fan-out, mesh nodes, sensor subsystems — render on separate rows.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    enabled: bool,
    events: Vec<Event>,
    open: Vec<Open>,
    /// Events discarded after the event limit was reached.
    dropped: u64,
    limit: usize,
}

impl Trace {
    /// A disabled trace: records nothing, allocates nothing.
    pub fn disabled() -> Trace {
        Trace {
            enabled: false,
            events: Vec::new(),
            open: Vec::new(),
            dropped: 0,
            limit: DEFAULT_EVENT_LIMIT,
        }
    }

    /// An enabled trace with the default event limit.
    pub fn enabled() -> Trace {
        Trace {
            enabled: true,
            ..Trace::disabled()
        }
    }

    /// An enabled trace that stores at most `limit` events (further events
    /// are counted in [`Trace::dropped`]); tests reach the cap with it.
    #[cfg(test)]
    fn with_limit(limit: usize) -> Trace {
        Trace {
            enabled: true,
            limit,
            ..Trace::disabled()
        }
    }

    /// Whether this trace records events.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events discarded because the limit was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Capacity of the event buffer — zero for a trace that has never been
    /// enabled, which is the "disabled tracing allocates nothing"
    /// guarantee the overhead guard asserts.
    pub fn events_capacity(&self) -> usize {
        self.events.capacity()
    }

    #[inline]
    fn push(&mut self, ev: Event) {
        if self.events.len() >= self.limit {
            self.dropped += 1;
        } else {
            self.events.push(ev);
        }
    }

    /// Record an instant event at `ts` on `track`.
    #[inline]
    pub fn instant(&mut self, name: &'static str, cat: &'static str, track: u64, ts: SimTime) {
        if !self.enabled {
            return;
        }
        self.push(Event {
            name,
            cat,
            track,
            ts,
            phase: Phase::Instant,
            args: Vec::new(),
        });
    }

    /// Record an instant event with numeric arguments.
    pub fn instant_args(
        &mut self,
        name: &'static str,
        cat: &'static str,
        track: u64,
        ts: SimTime,
        args: &[(&'static str, f64)],
    ) {
        if !self.enabled {
            return;
        }
        self.push(Event {
            name,
            cat,
            track,
            ts,
            phase: Phase::Instant,
            args: args.to_vec(),
        });
    }

    /// Open a span starting at `ts`; close it with [`Trace::end`].
    #[inline]
    pub fn begin(
        &mut self,
        name: &'static str,
        cat: &'static str,
        track: u64,
        ts: SimTime,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::DISABLED;
        }
        // Reuse a dead slot if one exists to keep `open` small.
        if let Some(idx) = self.open.iter().position(|o| !o.live) {
            self.open[idx] = Open {
                name,
                cat,
                track,
                start: ts,
                live: true,
            };
            return SpanId(idx as u32);
        }
        self.open.push(Open {
            name,
            cat,
            track,
            start: ts,
            live: true,
        });
        SpanId((self.open.len() - 1) as u32)
    }

    /// Close span `id` at `ts`, emitting a complete (`ph: "X"`) event.
    #[inline]
    pub fn end(&mut self, id: SpanId, ts: SimTime) {
        self.end_args(id, ts, &[]);
    }

    /// Close span `id` at `ts` with numeric arguments attached.
    pub fn end_args(&mut self, id: SpanId, ts: SimTime, args: &[(&'static str, f64)]) {
        if !self.enabled || id == SpanId::DISABLED {
            return;
        }
        let Some(o) = self.open.get_mut(id.0 as usize) else {
            return;
        };
        if !o.live {
            return;
        }
        o.live = false;
        let (name, cat, track, start) = (o.name, o.cat, o.track, o.start);
        self.push(Event {
            name,
            cat,
            track,
            ts: start,
            phase: Phase::Span(ts.since(start)),
            args: args.to_vec(),
        });
    }

    /// Record a complete span `[start, end)` in one call.
    #[inline]
    pub fn span(
        &mut self,
        name: &'static str,
        cat: &'static str,
        track: u64,
        start: SimTime,
        end: SimTime,
    ) {
        self.span_args(name, cat, track, start, end, &[]);
    }

    /// Record a complete span with numeric arguments.
    pub fn span_args(
        &mut self,
        name: &'static str,
        cat: &'static str,
        track: u64,
        start: SimTime,
        end: SimTime,
        args: &[(&'static str, f64)],
    ) {
        if !self.enabled {
            return;
        }
        self.push(Event {
            name,
            cat,
            track,
            ts: start,
            phase: Phase::Span(end.since(start)),
            args: args.to_vec(),
        });
    }

    /// Render as Chrome `trace_event` JSON (the "JSON array format"):
    /// one object per event, `ph` either `"X"` (complete span, with `dur`)
    /// or `"i"` (instant), timestamps in microseconds. Events are written
    /// one per line as they are converted, so a full trace is never held
    /// as one [`Json`] tree.
    pub fn chrome_json(&self) -> String {
        let mut s = String::with_capacity(64 + self.events.len() * 96);
        s.push_str("[\n");
        for (i, ev) in self.events.iter().enumerate() {
            let sep = if i > 0 { ",\n" } else { "" };
            let _ = write!(s, "{sep}{}", ev.to_json());
        }
        s.push_str("\n]\n");
        s
    }

    /// Write the Chrome JSON to `path`.
    pub fn save_chrome_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.chrome_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::json;

    /// Member `key` of an event object.
    fn get<'a>(ev: &'a Json, key: &str) -> Option<&'a Json> {
        json::find(ev.as_object()?, key)
    }

    #[test]
    fn chrome_json_shape_is_valid() {
        // The acceptance-criteria shape check: an array of objects, every
        // event `ph: "X"` (with ts+dur) or `ph: "i"` (with ts), times in
        // microseconds.
        let mut tr = Trace::enabled();
        let id = tr.begin("request", "cloud", 0, SimTime::ZERO);
        for leaf in 0..3u64 {
            tr.span_args(
                "leaf",
                "cloud",
                leaf + 1,
                SimTime::from_ns(1_000),
                SimTime::from_ns((5 + leaf) * 1_000),
                &[("leaf", leaf as f64)],
            );
        }
        tr.instant("hedge-fired", "cloud", 0, SimTime::from_ns(9_000));
        tr.end(id, SimTime::from_ns(12_000));

        let json = tr.chrome_json();
        let doc = json::parse(&json)
            .unwrap_or_else(|e| panic!("trace output is not JSON ({e}):\n{json}"));
        let Some(events) = doc.as_array() else {
            panic!("trace output is not a JSON array:\n{json}");
        };
        assert_eq!(events.len(), 5);
        let mut spans = 0;
        let mut instants = 0;
        for ev in events {
            let ph = get(ev, "ph").and_then(Json::as_str).expect("ph");
            let ts = get(ev, "ts").and_then(Json::as_f64).expect("ts");
            assert!(ts >= 0.0);
            assert!(get(ev, "name").and_then(Json::as_str).is_some());
            assert!(get(ev, "pid").and_then(Json::as_f64).is_some());
            assert!(get(ev, "tid").and_then(Json::as_f64).is_some());
            match ph.as_str() {
                "X" => {
                    spans += 1;
                    let dur = get(ev, "dur").and_then(Json::as_f64).expect("dur");
                    assert!(dur >= 0.0);
                }
                "i" => instants += 1,
                other => panic!("unexpected ph {other:?}"),
            }
        }
        assert_eq!(spans, 4);
        assert_eq!(instants, 1);

        // Timestamps are microseconds: the request span runs 0 → 12 µs.
        let req = events
            .iter()
            .find(|e| get(e, "name").and_then(Json::as_str).as_deref() == Some("request"))
            .unwrap();
        assert_eq!(get(req, "ts").and_then(Json::as_f64), Some(0.0));
        assert_eq!(get(req, "dur").and_then(Json::as_f64), Some(12.0));
    }

    #[test]
    fn chrome_json_bytes_are_pinned() {
        // The exact layout: `[`, one compact event per line, `]`; times
        // with six decimals; non-finite args as null; names escaped.
        let mut tr = Trace::enabled();
        let id = tr.begin("req\"uest", "cloud", 3, SimTime::from_ns(1_500));
        tr.instant_args(
            "hedge\\fired",
            "cloud",
            0,
            SimTime::from_ns(9_000),
            &[("leaf", 2.0), ("bad", f64::INFINITY)],
        );
        tr.instant("tick", "sensor\n", 1, SimTime::ZERO);
        tr.end_args(id, SimTime::from_ns(12_345), &[("ratio", 0.1)]);
        assert_eq!(
            tr.chrome_json(),
            "[\n{\"name\":\"hedge\\\\fired\",\"cat\":\"cloud\",\"ph\":\"i\",\"ts\":9.000000,\"s\":\"t\",\"pid\":0,\"tid\":0,\"args\":{\"leaf\":2,\"bad\":null}},\n{\"name\":\"tick\",\"cat\":\"sensor\\n\",\"ph\":\"i\",\"ts\":0.000000,\"s\":\"t\",\"pid\":0,\"tid\":1},\n{\"name\":\"req\\\"uest\",\"cat\":\"cloud\",\"ph\":\"X\",\"ts\":1.500000,\"dur\":10.845000,\"pid\":0,\"tid\":3,\"args\":{\"ratio\":0.1}}\n]\n"
        );
        assert_eq!(Trace::enabled().chrome_json(), "[\n\n]\n");
    }

    #[test]
    fn disabled_trace_records_and_allocates_nothing() {
        let mut tr = Trace::disabled();
        for i in 0..10_000 {
            let id = tr.begin("s", "c", 0, SimTime::from_ns(i));
            tr.instant("x", "c", 0, SimTime::from_ns(i));
            tr.end(id, SimTime::from_ns(i + 1));
        }
        assert!(tr.is_empty());
        assert_eq!(tr.events_capacity(), 0);
        assert_eq!(tr.dropped(), 0);
    }

    #[test]
    fn event_limit_drops_not_grows() {
        let mut tr = Trace::with_limit(4);
        for i in 0..10u64 {
            tr.instant("e", "c", 0, SimTime::from_ns(i));
        }
        assert_eq!(tr.len(), 4);
        assert_eq!(tr.dropped(), 6);
    }

    #[test]
    fn names_are_escaped() {
        let mut tr = Trace::enabled();
        tr.instant("quote\"back\\slash", "c", 0, SimTime::ZERO);
        let json = tr.chrome_json();
        let doc = json::parse(&json);
        assert!(doc.is_ok(), "escaping broke JSON:\n{json}");
        let name = doc
            .unwrap()
            .as_array()
            .and_then(|evs| get(&evs[0], "name")?.as_str());
        assert_eq!(name.as_deref(), Some("quote\"back\\slash"));
    }

    #[test]
    fn span_ids_are_reusable_slots() {
        let mut tr = Trace::enabled();
        let a = tr.begin("a", "c", 0, SimTime::ZERO);
        tr.end(a, SimTime::from_ns(1));
        let b = tr.begin("b", "c", 0, SimTime::from_ns(2));
        // Slot reuse: ending `a` again must not corrupt `b`.
        tr.end(a, SimTime::from_ns(3));
        tr.end(b, SimTime::from_ns(4));
        assert_eq!(tr.len(), 2);
    }

    #[test]
    fn nonfinite_args_serialize_as_null() {
        let mut tr = Trace::enabled();
        tr.instant_args("e", "c", 0, SimTime::ZERO, &[("bad", f64::NAN)]);
        let json = tr.chrome_json();
        assert!(json::parse(&json).is_ok());
        assert!(json.contains("\"bad\":null"));
    }
}
