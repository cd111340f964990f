//! Span exporters: JSON-lines and chrome://tracing.
//!
//! Both formats are emitted with plain string building (the crate has
//! no dependencies) and validated structurally by
//! [`validate_chrome_trace`], which the CI smoke runs against every
//! exported trace: valid JSON, monotone `ts`, complete `"X"` events.

use crate::span::Span;

/// One JSON object per line, one line per span — the grep/jq-friendly
/// form for ad-hoc analysis.
pub fn json_lines(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        out.push_str(&format!(
            "{{\"scope\":\"{}\",\"kernel\":\"{}\",\"frame\":{},\"track\":{},\
             \"start_ns\":{},\"dur_ns\":{}}}\n",
            s.scope.name(),
            s.kernel,
            s.frame_idx,
            s.track,
            s.start_ns,
            s.dur_ns
        ));
    }
    out
}

/// A chrome://tracing / Perfetto-loadable trace of complete (`"ph":"X"`)
/// events, sorted by start time so `ts` is monotone. Timestamps are
/// microseconds per the trace-event spec.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut ordered: Vec<&Span> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.start_ns, s.track));
    let mut out = String::with_capacity(64 + ordered.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in ordered.iter().enumerate() {
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":0,\"tid\":{},\"args\":{{\"frame\":{}}}}}",
            s.kernel,
            s.scope.name(),
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.track,
            s.frame_idx
        ));
        out.push_str(if i + 1 < ordered.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

/// Summary of a structurally valid chrome trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    /// Total `"ph":"X"` events.
    pub events: usize,
    /// Events whose `name` is `"frame"` (one per completed frame span).
    pub frame_spans: usize,
}

/// Structurally validates a chrome trace: the text parses as JSON, has
/// a `traceEvents` array, every event is a complete `"X"` event with
/// numeric `ts`/`dur`, and `ts` is monotone non-decreasing. Returns a
/// summary on success. This is the CI smoke's load check — if this
/// passes, Perfetto's importer accepts the file.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceSummary, String> {
    let value = json::parse(text)?;
    let top = match &value {
        json::Value::Object(fields) => fields,
        _ => return Err("top level is not an object".into()),
    };
    let events = top
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .ok_or("missing traceEvents")?;
    let events = match events {
        json::Value::Array(items) => items,
        _ => return Err("traceEvents is not an array".into()),
    };
    let mut last_ts = f64::NEG_INFINITY;
    let mut frame_spans = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let fields = match ev {
            json::Value::Object(fields) => fields,
            _ => return Err(format!("event {i} is not an object")),
        };
        let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        match get("ph") {
            Some(json::Value::String(ph)) if ph == "X" => {}
            other => return Err(format!("event {i}: ph is {other:?}, want \"X\"")),
        }
        let ts = match get("ts") {
            Some(json::Value::Number(n)) => *n,
            _ => return Err(format!("event {i}: missing numeric ts")),
        };
        match get("dur") {
            Some(json::Value::Number(n)) if n.is_finite() && *n >= 0.0 => {}
            _ => return Err(format!("event {i}: missing numeric dur")),
        }
        if !ts.is_finite() || ts < last_ts {
            return Err(format!("event {i}: ts {ts} not monotone (prev {last_ts})"));
        }
        last_ts = ts;
        if let Some(json::Value::String(name)) = get("name") {
            if name == "frame" {
                frame_spans += 1;
            }
        }
    }
    Ok(ChromeTraceSummary {
        events: events.len(),
        frame_spans,
    })
}

/// A minimal recursive-descent JSON parser — just enough to let the
/// validator (and the CI smoke behind it) check exported traces without
/// pulling a dependency into the leaf crate.
mod json {
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Number(f64),
        String(String),
        Array(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == ch {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {pos}", ch as char))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => parse_object(b, pos),
            Some(b'[') => parse_array(b, pos),
            Some(b'"') => Ok(Value::String(parse_string(b, pos)?)),
            Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_lit(b, pos, "null", Value::Null),
            Some(_) => parse_number(b, pos),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {pos}"))
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len()
            && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        while *pos < b.len() {
            match b[*pos] {
                b'"' => {
                    *pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *pos += 1;
                    let esc = *b.get(*pos).ok_or("unterminated escape")?;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            *pos += 4;
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    });
                    *pos += 1;
                }
                _ => {
                    // Copy the run up to the next quote or backslash. Both
                    // are ASCII, so the run ends on a character boundary
                    // of the `&str` input, and each byte is checked once.
                    let run = b[*pos..]
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\')
                        .unwrap_or(b.len() - *pos);
                    let text =
                        std::str::from_utf8(&b[*pos..*pos + run]).map_err(|_| "invalid utf8")?;
                    out.push_str(text);
                    *pos += run;
                }
            }
        }
        Err("unterminated string".into())
    }

    fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {pos}")),
            }
        }
    }

    fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            fields.push((key, parse_value(b, pos)?));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanScope;

    fn spans() -> Vec<Span> {
        vec![
            Span {
                scope: SpanScope::Kernel,
                kernel: "detect_fast",
                frame_idx: 0,
                start_ns: 2_000,
                dur_ns: 1_000,
                track: 1,
            },
            Span {
                scope: SpanScope::Frame,
                kernel: "frame",
                frame_idx: 0,
                start_ns: 1_000,
                dur_ns: 5_000,
                track: 1,
            },
        ]
    }

    #[test]
    fn json_lines_one_object_per_span() {
        let text = json_lines(&spans());
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"kernel\":\"detect_fast\""));
        assert!(text.contains("\"scope\":\"frame\""));
    }

    #[test]
    fn chrome_trace_round_trips_the_validator() {
        let text = chrome_trace_json(&spans());
        let summary = validate_chrome_trace(&text).expect("valid trace");
        assert_eq!(summary.events, 2);
        assert_eq!(summary.frame_spans, 1);
    }

    #[test]
    fn chrome_trace_ts_is_monotone_even_for_unsorted_input() {
        // `spans()` is deliberately out of start order.
        let text = chrome_trace_json(&spans());
        let first_ts = text.find("\"ts\":1.000").expect("frame span first");
        let second_ts = text.find("\"ts\":2.000").expect("kernel span second");
        assert!(first_ts < second_ts);
    }

    #[test]
    fn empty_trace_is_valid() {
        let text = chrome_trace_json(&[]);
        let summary = validate_chrome_trace(&text).expect("valid trace");
        assert_eq!(summary.events, 0);
        assert_eq!(summary.frame_spans, 0);
    }

    #[test]
    fn validator_decodes_multibyte_names_and_every_escape() {
        // Multi-byte UTF-8 in exported names (two-, three- and four-byte
        // scalars) round-trips the validator.
        let mut named = spans();
        named[0].kernel = "détection_κλτ_→_🛰";
        named.push(Span {
            kernel: "frame",
            frame_idx: 1,
            start_ns: 9_000,
            ..named[1]
        });
        let summary = validate_chrome_trace(&chrome_trace_json(&named)).expect("valid trace");
        assert_eq!(summary.events, 3);
        assert_eq!(summary.frame_spans, 2);
        // Every escape the grammar has, between multi-byte runs; the
        // second name decodes to "frame" and counts as a frame span.
        let text = r#"{"traceEvents":[
            {"name":"é\"\\\/\b\f\n\r\t\u00e9\u2192ø","ph":"X","ts":1.0,"dur":1.0},
            {"name":"fr\u0061me","ph":"X","ts":2.0,"dur":1.0,"args":{"k":"🛰\n"}}]}"#;
        let summary = validate_chrome_trace(text).expect("valid trace");
        assert_eq!((summary.events, summary.frame_spans), (2, 1));
        assert_eq!(
            json::parse(r#""a\"b\\c\/d\be\ff\ng\rh\ti\u00e9j→ø""#),
            Ok(json::Value::String(
                "a\"b\\c/d\u{8}e\u{c}f\ng\rh\tiéj→ø".into()
            ))
        );
        // A string that never closes is still rejected, after a multi-byte
        // run and after an escape.
        for broken in [r#"{"traceEvents":["é→"#, r#"{"traceEvents":["a\n"#, r#""\"#] {
            let err = validate_chrome_trace(broken).unwrap_err();
            assert!(err.contains("unterminated"), "{broken}: {err}");
        }
    }

    #[test]
    fn validator_is_linear_in_the_trace() {
        // 20 000 spans, a traced benchmark run's size: validation that
        // rescanned the rest of the trace per character took minutes here.
        let spans: Vec<Span> = (0..20_000u64)
            .map(|i| {
                let (scope, kernel) = if i % 10 == 0 {
                    (SpanScope::Frame, "frame")
                } else {
                    (SpanScope::Kernel, "detect_fast")
                };
                Span {
                    scope,
                    kernel,
                    frame_idx: i / 10,
                    start_ns: 1_000 * i,
                    dur_ns: 500,
                    track: (i % 4) as u32,
                }
            })
            .collect();
        let summary = validate_chrome_trace(&chrome_trace_json(&spans)).expect("valid trace");
        assert_eq!(summary.events, 20_000);
        assert_eq!(summary.frame_spans, 2_000);
    }

    #[test]
    fn validator_rejects_broken_json_and_non_monotone_ts() {
        assert!(validate_chrome_trace("{\"traceEvents\":[").is_err());
        assert!(validate_chrome_trace("[]").is_err());
        let bad = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"X\",\"ts\":5.0,\"dur\":1.0},\
            {\"name\":\"b\",\"ph\":\"X\",\"ts\":2.0,\"dur\":1.0}]}";
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("monotone"), "{err}");
        let incomplete = "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"B\",\"ts\":1.0}]}";
        assert!(validate_chrome_trace(incomplete).is_err());
    }
}
