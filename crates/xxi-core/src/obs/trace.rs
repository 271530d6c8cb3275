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
//! tr.instant("hedge-fired", "cloud", 0, SimTime::from_us(9));
//! tr.end(id, SimTime::from_us(12));
//! let json = tr.chrome_json();
//! assert!(json.contains("\"ph\":\"X\""));
//! assert!(json.contains("\"ph\":\"i\""));
//! ```

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::report::json::escape;
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
    /// are counted in [`Trace::dropped`]).
    pub fn with_limit(limit: usize) -> Trace {
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
    /// or `"i"` (instant), timestamps in microseconds.
    pub fn chrome_json(&self) -> String {
        let mut s = String::with_capacity(64 + self.events.len() * 96);
        s.push_str("[\n");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            s.push('{');
            write!(s, "\"name\":\"{}\"", escape(ev.name)).unwrap(); // xxi-allow: panic-path -- fmt::Write to String is infallible
            write!(s, ",\"cat\":\"{}\"", escape(ev.cat)).unwrap(); // xxi-allow: panic-path -- fmt::Write to String is infallible
            match ev.phase {
                Phase::Span(dur) => {
                    write!(
                        s,
                        ",\"ph\":\"X\",\"ts\":{:.6},\"dur\":{:.6}",
                        ev.ts.us(),
                        dur.us()
                    )
                    .unwrap(); // xxi-allow: panic-path -- fmt::Write to String is infallible
                }
                Phase::Instant => {
                    // xxi-allow: panic-path -- fmt::Write to String is infallible
                    write!(s, ",\"ph\":\"i\",\"ts\":{:.6},\"s\":\"t\"", ev.ts.us()).unwrap();
                }
            }
            write!(s, ",\"pid\":0,\"tid\":{}", ev.track).unwrap(); // xxi-allow: panic-path -- fmt::Write to String is infallible
            if !ev.args.is_empty() {
                s.push_str(",\"args\":{");
                for (j, (k, v)) in ev.args.iter().enumerate() {
                    if j > 0 {
                        s.push(',');
                    }
                    if v.is_finite() {
                        write!(s, "\"{}\":{v}", escape(k)).unwrap(); // xxi-allow: panic-path -- fmt::Write to String is infallible
                    } else {
                        // JSON has no NaN/inf literals.
                        write!(s, "\"{}\":null", escape(k)).unwrap(); // xxi-allow: panic-path -- fmt::Write to String is infallible
                    }
                }
                s.push('}');
            }
            s.push('}');
        }
        s.push_str("\n]\n");
        s
    }

    /// Write the Chrome JSON to `path`.
    pub fn save_chrome_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.chrome_json())
    }

    /// A plain-text timeline, one line per event in time order — the quick
    /// look when a browser is not at hand.
    pub fn timeline(&self) -> String {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| (self.events[i].ts, i));
        let mut s = String::new();
        for i in order {
            let ev = &self.events[i];
            match ev.phase {
                Phase::Span(dur) => {
                    let _ = writeln!(
                        s,
                        "[{:>14}] {}/{} track={} dur={}",
                        ev.ts.to_string(),
                        ev.cat,
                        ev.name,
                        ev.track,
                        dur
                    );
                }
                Phase::Instant => {
                    let _ = writeln!(
                        s,
                        "[{:>14}] {}/{} track={} (instant)",
                        ev.ts.to_string(),
                        ev.cat,
                        ev.name,
                        ev.track
                    );
                }
            }
        }
        if self.dropped > 0 {
            let _ = writeln!(
                s,
                "({} events dropped past the {}-event limit)",
                self.dropped, self.limit
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal recursive-descent JSON reader, enough to validate shape:
    /// returns the parsed value or None on malformed input.
    #[derive(Debug, PartialEq)]
    enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(kvs) => kvs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
        fn as_num(&self) -> Option<f64> {
            match self {
                Json::Num(x) => Some(*x),
                _ => None,
            }
        }
        fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }
    }

    fn parse(s: &str) -> Option<Json> {
        let b = s.as_bytes();
        let mut i = 0usize;
        let v = value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i == b.len() {
            Some(v)
        } else {
            None
        }
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && (b[*i] as char).is_ascii_whitespace() {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Option<Json> {
        skip_ws(b, i);
        match *b.get(*i)? {
            b'{' => {
                *i += 1;
                let mut kvs = Vec::new();
                skip_ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return Some(Json::Obj(kvs));
                }
                loop {
                    skip_ws(b, i);
                    let Json::Str(k) = value(b, i)? else {
                        return None;
                    };
                    skip_ws(b, i);
                    if b.get(*i) != Some(&b':') {
                        return None;
                    }
                    *i += 1;
                    kvs.push((k, value(b, i)?));
                    skip_ws(b, i);
                    match b.get(*i)? {
                        b',' => *i += 1,
                        b'}' => {
                            *i += 1;
                            return Some(Json::Obj(kvs));
                        }
                        _ => return None,
                    }
                }
            }
            b'[' => {
                *i += 1;
                let mut xs = Vec::new();
                skip_ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return Some(Json::Arr(xs));
                }
                loop {
                    xs.push(value(b, i)?);
                    skip_ws(b, i);
                    match b.get(*i)? {
                        b',' => *i += 1,
                        b']' => {
                            *i += 1;
                            return Some(Json::Arr(xs));
                        }
                        _ => return None,
                    }
                }
            }
            b'"' => {
                *i += 1;
                let mut s = String::new();
                loop {
                    match *b.get(*i)? {
                        b'"' => {
                            *i += 1;
                            return Some(Json::Str(s));
                        }
                        b'\\' => {
                            *i += 1;
                            match *b.get(*i)? {
                                b'"' => s.push('"'),
                                b'\\' => s.push('\\'),
                                b'n' => s.push('\n'),
                                b'r' => s.push('\r'),
                                b't' => s.push('\t'),
                                b'u' => {
                                    let hex = std::str::from_utf8(b.get(*i + 1..*i + 5)?).ok()?;
                                    let cp = u32::from_str_radix(hex, 16).ok()?;
                                    s.push(char::from_u32(cp)?);
                                    *i += 4;
                                }
                                _ => return None,
                            }
                            *i += 1;
                        }
                        c => {
                            s.push(c as char);
                            *i += 1;
                        }
                    }
                }
            }
            b'n' => {
                *i += 4;
                Some(Json::Null)
            }
            b't' => {
                *i += 4;
                Some(Json::Bool(true))
            }
            b'f' => {
                *i += 5;
                Some(Json::Bool(false))
            }
            _ => {
                let start = *i;
                while *i < b.len()
                    && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *i += 1;
                }
                std::str::from_utf8(&b[start..*i])
                    .ok()?
                    .parse::<f64>()
                    .ok()
                    .map(Json::Num)
            }
        }
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
                SimTime::from_us(1),
                SimTime::from_us(5 + leaf),
                &[("leaf", leaf as f64)],
            );
        }
        tr.instant("hedge-fired", "cloud", 0, SimTime::from_us(9));
        tr.end(id, SimTime::from_us(12));

        let json = tr.chrome_json();
        let Some(Json::Arr(events)) = parse(&json) else {
            panic!("trace output is not a JSON array:\n{json}");
        };
        assert_eq!(events.len(), 5);
        let mut spans = 0;
        let mut instants = 0;
        for ev in &events {
            let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
            let ts = ev.get("ts").and_then(Json::as_num).expect("ts");
            assert!(ts >= 0.0);
            assert!(ev.get("name").and_then(Json::as_str).is_some());
            assert!(ev.get("pid").and_then(Json::as_num).is_some());
            assert!(ev.get("tid").and_then(Json::as_num).is_some());
            match ph {
                "X" => {
                    spans += 1;
                    let dur = ev.get("dur").and_then(Json::as_num).expect("dur");
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
            .find(|e| e.get("name").and_then(Json::as_str) == Some("request"))
            .unwrap();
        assert_eq!(req.get("ts").and_then(Json::as_num), Some(0.0));
        assert_eq!(req.get("dur").and_then(Json::as_num), Some(12.0));
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
        assert!(tr.timeline().contains("dropped"));
    }

    #[test]
    fn names_are_escaped() {
        let mut tr = Trace::enabled();
        tr.instant("quote\"back\\slash", "c", 0, SimTime::ZERO);
        let json = tr.chrome_json();
        assert!(parse(&json).is_some(), "escaping broke JSON:\n{json}");
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
    fn timeline_is_time_ordered() {
        let mut tr = Trace::enabled();
        tr.instant("late", "c", 0, SimTime::from_us(5));
        tr.instant("early", "c", 0, SimTime::from_us(1));
        let tl = tr.timeline();
        let early = tl.find("early").unwrap();
        let late = tl.find("late").unwrap();
        assert!(early < late);
    }

    #[test]
    fn nonfinite_args_serialize_as_null() {
        let mut tr = Trace::enabled();
        tr.instant_args("e", "c", 0, SimTime::ZERO, &[("bad", f64::NAN)]);
        let json = tr.chrome_json();
        assert!(parse(&json).is_some());
        assert!(json.contains("\"bad\":null"));
    }
}
