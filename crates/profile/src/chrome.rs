//! Chrome `trace_event` export.
//!
//! Renders recorded [`Span`]s in the Trace Event Format's "JSON object"
//! flavour — `{"traceEvents": [...]}` with one complete (`"ph": "X"`)
//! event per span — which loads directly in `about:tracing` and
//! [Perfetto](https://ui.perfetto.dev). [`validate`] checks a rendered
//! trace with the crate's own JSON parser: well-formed document, required
//! event fields, and monotonically non-decreasing timestamps.

use crate::json::{self, Value};
use crate::Span;
use std::cmp::Reverse;

/// Render spans as a Chrome trace JSON document.
///
/// Events are sorted by start time (ties broken by duration, longest
/// first, so enclosing spans precede their children), which makes the
/// emitted `ts` sequence monotonic — a property [`validate`] checks.
pub fn trace_json(spans: &[Span]) -> String {
    let mut ordered: Vec<&Span> = spans.iter().collect();
    ordered.sort_by_key(|&s| (s.start_us, Reverse(s.dur_us), s.name.as_str()));

    let events = ordered.iter().map(|s| {
        let mut fields = vec![
            ("name", (&s.name).into()),
            ("cat", (&s.cat).into()),
            ("ph", "X".into()),
            ("ts", s.start_us.into()),
            ("dur", s.dur_us.into()),
            ("pid", 1u32.into()),
            ("tid", s.lane.into()),
        ];
        if !s.args.is_empty() {
            let args = s.args.iter().map(|(k, v)| (k.as_str(), v.into()));
            fields.push(("args", Value::object(args)));
        }
        Value::object(fields)
    });
    Value::object([
        ("traceEvents", events.collect()),
        ("displayTimeUnit", "ms".into()),
    ])
    .to_string()
}

/// Validate a Chrome trace document: parses as JSON, has a `traceEvents`
/// array of objects each carrying `name`/`cat`/`ph`/`ts`/`dur`/`pid`/`tid`,
/// durations are non-negative, and `ts` values are monotonically
/// non-decreasing in emission order.
///
/// Returns the number of events on success.
pub fn validate(trace: &str) -> Result<usize, String> {
    let doc = json::parse(trace).map_err(|e| e.to_string())?;
    let obj = doc.as_object().ok_or("trace root must be an object")?;
    let events = obj
        .get("traceEvents")
        .ok_or("missing `traceEvents` key")?
        .as_array()
        .ok_or("`traceEvents` must be an array")?;

    let mut last_ts = f64::NEG_INFINITY;
    for (i, ev) in events.iter().enumerate() {
        let e = ev
            .as_object()
            .ok_or_else(|| format!("event {i} is not an object"))?;
        for key in ["name", "cat", "ph"] {
            if !matches!(e.get(key), Some(Value::String(_))) {
                return Err(format!("event {i}: missing string field `{key}`"));
            }
        }
        let num = |key: &str| {
            e.get(key)
                .and_then(Value::as_number)
                .ok_or_else(|| format!("event {i}: missing numeric field `{key}`"))
        };
        let (ts, dur, _pid, _tid) = (num("ts")?, num("dur")?, num("pid")?, num("tid")?);
        if dur < 0.0 {
            return Err(format!("event {i}: negative duration {dur}"));
        }
        if ts < last_ts {
            return Err(format!(
                "event {i}: timestamp {ts} precedes previous {last_ts} (not monotonic)"
            ));
        }
        last_ts = ts;
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans() -> Vec<Span> {
        vec![
            Span::new("compile", "compile", 0, 100).arg("kernel", "blur"),
            Span::new("lowering", "compile", 10, 40),
            Span::new("execute", "launch", 120, 300),
        ]
    }

    #[test]
    fn trace_round_trips_through_validation() {
        let trace = trace_json(&spans());
        assert_eq!(validate(&trace).unwrap(), 3);
    }

    #[test]
    fn empty_trace_is_valid() {
        assert_eq!(validate(&trace_json(&[])).unwrap(), 0);
    }

    #[test]
    fn events_are_emitted_in_timestamp_order() {
        // Deliberately record out of order; emission must sort.
        let mut s = spans();
        s.reverse();
        let trace = trace_json(&s);
        assert!(validate(&trace).is_ok());
        let first = trace.find("\"ts\":0").unwrap();
        let last = trace.find("\"ts\":120").unwrap();
        assert!(first < last);
    }

    #[test]
    fn validation_rejects_broken_traces() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").is_err());
        assert!(validate(r#"{"traceEvents": 3}"#).is_err());
        assert!(validate(r#"{"traceEvents": [{"name":"x"}]}"#).is_err());
        let non_monotonic = r#"{"traceEvents":[
            {"name":"a","cat":"c","ph":"X","ts":10,"dur":1,"pid":1,"tid":1},
            {"name":"b","cat":"c","ph":"X","ts":5,"dur":1,"pid":1,"tid":1}]}"#;
        assert!(validate(non_monotonic).unwrap_err().contains("monotonic"));
    }

    #[test]
    fn lanes_become_trace_tids() {
        let s = vec![
            Span::new("frame:0", "stream", 0, 10).lane(2),
            Span::new("frame:1", "stream", 5, 10).lane(3),
        ];
        let trace = trace_json(&s);
        assert!(trace.contains("\"tid\":2") && trace.contains("\"tid\":3"));
        assert_eq!(validate(&trace).unwrap(), 2);
    }

    #[test]
    fn names_with_quotes_are_escaped() {
        let s = vec![Span::new("odd \"name\"\n", "c", 0, 1)];
        let trace = trace_json(&s);
        assert!(validate(&trace).is_ok());
    }
}
