//! Exporters: JSONL event log, Chrome `trace_event` JSON, Prometheus text.
//!
//! Everything is hand-rolled over std (the workspace is air-gapped, so no
//! serde): a small JSON value parser backs both the JSONL round-trip and the
//! Chrome-trace validator used by the `trace-check` binary and CI.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::metrics::MetricsSnapshot;
use crate::trace::{Event, Phase, Trace};

// ---------------------------------------------------------------------------
// JSON primitives
// ---------------------------------------------------------------------------

/// Escape a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Minimal JSON value tree, sufficient for validating and reading back our
/// own exports.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per level, so the bound keeps hostile input (a request
/// line of 100 000 `[`) from overflowing the stack; no document this
/// crate or the serving protocol writes comes near it.
pub const MAX_JSON_DEPTH: usize = 128;

/// Parse a complete JSON document; trailing non-whitespace is an error,
/// as is nesting deeper than [`MAX_JSON_DEPTH`].
pub fn parse_json(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse one value whose enclosing arrays/objects number `depth`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth >= MAX_JSON_DEPTH => Err(format!(
            "nesting deeper than {MAX_JSON_DEPTH} at byte {}",
            *pos
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // surrogate pair: expect \uXXXX low surrogate next
                            if bytes.get(*pos + 1) == Some(&b'\\')
                                && bytes.get(*pos + 2) == Some(&b'u')
                            {
                                let lo = parse_hex4(bytes, *pos + 3)?;
                                *pos += 6;
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                return Err("lone high surrogate".into());
                            }
                        } else {
                            hi
                        };
                        out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                    }
                    _ => return Err(format!("invalid escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // advance over one UTF-8 scalar
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    if at + 4 > bytes.len() {
        return Err("truncated \\u escape".into());
    }
    let text = std::str::from_utf8(&bytes[at..at + 4]).map_err(|e| e.to_string())?;
    u32::from_str_radix(text, 16).map_err(|_| format!("bad \\u escape {text:?}"))
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

// ---------------------------------------------------------------------------
// JSONL
// ---------------------------------------------------------------------------

fn event_json(ev: &Event) -> String {
    let mut line = format!(
        "{{\"ts_us\":{},\"tid\":{},\"ph\":\"{}\",\"cat\":\"{}\",\"name\":\"{}\"",
        ev.ts_us,
        ev.tid,
        ev.phase.code(),
        json_escape(&ev.cat),
        json_escape(&ev.name),
    );
    if let Some(detail) = &ev.detail {
        let _ = write!(line, ",\"detail\":\"{}\"", json_escape(detail));
    }
    line.push('}');
    line
}

/// Render a trace as JSONL: one header line, then one event per line.
pub fn render_jsonl(trace: &Trace) -> String {
    let mut out = format!(
        "{{\"meta\":\"fedoo-trace\",\"version\":1,\"dropped\":{}}}\n",
        trace.dropped
    );
    for ev in &trace.events {
        out.push_str(&event_json(ev));
        out.push('\n');
    }
    out
}

/// Parse a JSONL export back into a [`Trace`]. Inverse of [`render_jsonl`].
pub fn parse_jsonl(input: &str) -> Result<Trace, String> {
    let mut trace = Trace::default();
    for (lineno, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let obj = parse_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if obj.get("meta").is_some() {
            trace.dropped = obj.get("dropped").and_then(Json::as_u64).unwrap_or(0);
            continue;
        }
        let phase = match obj.get("ph").and_then(Json::as_str) {
            Some("B") => Phase::Begin,
            Some("E") => Phase::End,
            Some("i") => Phase::Instant,
            other => return Err(format!("line {}: bad ph {:?}", lineno + 1, other)),
        };
        trace.events.push(Event {
            name: obj
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {}: missing name", lineno + 1))?
                .to_string(),
            cat: obj
                .get("cat")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            phase,
            ts_us: obj.get("ts_us").and_then(Json::as_u64).unwrap_or(0),
            tid: obj.get("tid").and_then(Json::as_u64).unwrap_or(0),
            detail: obj
                .get("detail")
                .and_then(Json::as_str)
                .map(|s| s.to_string()),
        });
    }
    Ok(trace)
}

// ---------------------------------------------------------------------------
// Chrome trace_event
// ---------------------------------------------------------------------------

/// Render a trace in Chrome `trace_event` JSON (loadable in `about:tracing`
/// / Perfetto). Timestamps are microseconds, one pid, tids as recorded.
pub fn render_chrome(trace: &Trace) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for ev in &trace.events {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}",
            json_escape(&ev.name),
            json_escape(&ev.cat),
            ev.phase.code(),
            ev.ts_us,
            ev.tid,
        );
        if ev.phase == Phase::Instant {
            out.push_str(",\"s\":\"t\"");
        }
        if let Some(detail) = &ev.detail {
            let _ = write!(out, ",\"args\":{{\"detail\":\"{}\"}}", json_escape(detail));
        }
        out.push('}');
    }
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped\":{}}}}}",
        trace.dropped
    );
    out
}

/// Summary returned by [`validate_chrome`]: event counts plus the distinct
/// categories and span names seen, for layer-coverage assertions.
#[derive(Debug, Default)]
pub struct ChromeSummary {
    pub events: usize,
    pub begins: usize,
    pub ends: usize,
    pub instants: usize,
    pub tids: BTreeSet<u64>,
    pub cats: BTreeSet<String>,
    pub names: BTreeSet<String>,
}

/// Validate a Chrome trace document: well-formed JSON, a `traceEvents`
/// array, and per-thread B/E events that pair up LIFO with matching names.
pub fn validate_chrome(input: &str) -> Result<ChromeSummary, String> {
    let doc = parse_json(input)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut summary = ChromeSummary::default();
    // Per-tid stack of open span names; B pushes, E must match the top.
    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> = Default::default();
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?
            .to_string();
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let tid = ev
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        if let Some(cat) = ev.get("cat").and_then(Json::as_str) {
            summary.cats.insert(cat.to_string());
        }
        summary.tids.insert(tid);
        summary.events += 1;
        match ph {
            "B" => {
                summary.begins += 1;
                stacks.entry(tid).or_default().push(name.clone());
            }
            "E" => {
                summary.ends += 1;
                let top = stacks.entry(tid).or_default().pop().ok_or_else(|| {
                    format!("event {i}: E {name:?} on tid {tid} with no open span")
                })?;
                if top != name {
                    return Err(format!(
                        "event {i}: E {name:?} on tid {tid} does not match open span {top:?}"
                    ));
                }
            }
            "i" | "I" => summary.instants += 1,
            "M" => {}
            other => return Err(format!("event {i}: unsupported ph {other:?}")),
        }
        summary.names.insert(name);
    }
    for (tid, stack) in stacks {
        if !stack.is_empty() {
            return Err(format!("tid {tid}: unclosed spans {stack:?}"));
        }
    }
    Ok(summary)
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

fn prom_sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Sanitize a metric name while preserving a well-formed trailing
/// `{key="value",...}` label block (the shape `obs::metrics::labeled`
/// produces). Returns the sanitized family base plus the label block
/// body, if any — a name whose brace block doesn't parse as label pairs
/// is folded to underscores wholesale, like any other illegal character.
fn prom_name(name: &str) -> (String, Option<String>) {
    let (base, labels) = crate::metrics::split_labels(name);
    if let Some(body) = labels {
        if let Some(clean) = prom_label_block(body) {
            return (prom_sanitize(base), Some(clean));
        }
    }
    (prom_sanitize(name), None)
}

fn prom_label_block(body: &str) -> Option<String> {
    let mut pairs = Vec::new();
    for pair in body.split(',') {
        let (k, v) = pair.split_once('=')?;
        let v = v.strip_prefix('"')?.strip_suffix('"')?;
        if k.is_empty() || v.contains(['"', '\\', '\n', ',']) {
            return None;
        }
        pairs.push(format!("{}=\"{v}\"", prom_sanitize(k)));
    }
    (!pairs.is_empty()).then(|| pairs.join(","))
}

/// Render a metrics snapshot in Prometheus text exposition format.
/// Histograms are exposed with cumulative `le` buckets plus `_sum`/`_count`.
/// Labeled series (`name{tenant="t"}`) keep their label block and share
/// one `# TYPE` line per family — BTreeMap order keeps a family's series
/// adjacent, so the family header is emitted when the base name changes.
pub fn render_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last_family = String::new();
    let mut series = |out: &mut String, name: &str, kind: &str, value: String| {
        let (base, labels) = prom_name(name);
        if base != last_family {
            let _ = writeln!(out, "# TYPE {base} {kind}");
            last_family = base.clone();
        }
        match labels {
            Some(l) => {
                let _ = writeln!(out, "{base}{{{l}}} {value}");
            }
            None => {
                let _ = writeln!(out, "{base} {value}");
            }
        }
    };
    for (name, value) in &snapshot.counters {
        series(&mut out, name, "counter", value.to_string());
    }
    for (name, value) in &snapshot.gauges {
        series(&mut out, name, "gauge", value.to_string());
    }
    for (name, hist) in &snapshot.histograms {
        let (base, labels) = prom_name(name);
        // A label block merges with the bucket's `le` label.
        let with = |extra: &str| match &labels {
            Some(l) if extra.is_empty() => format!("{{{l}}}"),
            Some(l) => format!("{{{l},{extra}}}"),
            None if extra.is_empty() => String::new(),
            None => format!("{{{extra}}}"),
        };
        if base != last_family {
            let _ = writeln!(out, "# TYPE {base} histogram");
            last_family = base.clone();
        }
        let mut cumulative = 0u64;
        for (le, count) in &hist.buckets {
            cumulative += count;
            let _ = writeln!(
                out,
                "{base}_bucket{} {cumulative}",
                with(&format!("le=\"{le}\""))
            );
        }
        let _ = writeln!(out, "{base}_bucket{} {}", with("le=\"+Inf\""), hist.count);
        let _ = writeln!(out, "{base}_sum{} {}", with(""), hist.sum);
        let _ = writeln!(out, "{base}_count{} {}", with(""), hist.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample_trace() -> Trace {
        let mk = |name: &str, phase: Phase, ts: u64, detail: Option<&str>| Event {
            name: name.into(),
            cat: "qp".into(),
            phase,
            ts_us: ts,
            tid: 1,
            detail: detail.map(|s| s.into()),
        };
        Trace {
            events: vec![
                mk("qp.ask", Phase::Begin, 0, None),
                mk("qp.plan", Phase::Begin, 1, Some("strategy=planned")),
                mk("qp.plan", Phase::End, 5, None),
                mk(
                    "federation.retry",
                    Phase::Instant,
                    6,
                    Some("comp=\"L1\"\nattempt 2"),
                ),
                mk("qp.ask", Phase::End, 9, None),
            ],
            dropped: 3,
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let trace = sample_trace();
        let text = render_jsonl(&trace);
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back.dropped, 3);
        assert_eq!(back.events.len(), trace.events.len());
        for (a, b) in trace.events.iter().zip(&back.events) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.cat, b.cat);
            assert_eq!(a.phase, b.phase);
            assert_eq!(a.ts_us, b.ts_us);
            assert_eq!(a.tid, b.tid);
            assert_eq!(a.detail, b.detail);
        }
    }

    #[test]
    fn parse_json_bounds_nesting_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nested(MAX_JSON_DEPTH)).is_ok());
        let err = parse_json(&nested(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        // Objects count toward the same bound as arrays.
        let objects = "{\"a\":".repeat(MAX_JSON_DEPTH + 1);
        assert!(parse_json(&objects).unwrap_err().contains("nesting deeper"));
        // Far past the bound: an error, not a stack overflow.
        assert!(parse_json(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn chrome_trace_validates() {
        let text = render_chrome(&sample_trace());
        let summary = validate_chrome(&text).unwrap();
        assert_eq!(summary.events, 5);
        assert_eq!(summary.begins, 2);
        assert_eq!(summary.ends, 2);
        assert_eq!(summary.instants, 1);
        assert!(summary.cats.contains("qp"));
        assert!(summary.names.contains("federation.retry"));
    }

    #[test]
    fn chrome_validator_rejects_mismatched_spans() {
        let bad = r#"{"traceEvents":[
            {"name":"a","cat":"t","ph":"B","ts":0,"pid":1,"tid":1},
            {"name":"b","cat":"t","ph":"E","ts":1,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome(bad).is_err());
        let unclosed = r#"{"traceEvents":[
            {"name":"a","cat":"t","ph":"B","ts":0,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome(unclosed).is_err());
        assert!(validate_chrome("{\"traceEvents\":[").is_err());
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut reg = MetricsRegistry::default();
        reg.counter_add("fedoo_qp_rows_scanned_total", 12);
        reg.gauge_set("fedoo_federation_components", 2);
        reg.histogram_record("fedoo_qp_op_rows", 3);
        reg.histogram_record("fedoo_qp_op_rows", 100);
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE fedoo_qp_rows_scanned_total counter"));
        assert!(text.contains("fedoo_qp_rows_scanned_total 12"));
        assert!(text.contains("fedoo_federation_components 2"));
        assert!(text.contains("fedoo_qp_op_rows_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("fedoo_qp_op_rows_sum 103"));
        assert!(text.contains("fedoo_qp_op_rows_count 2"));
    }

    #[test]
    fn prometheus_preserves_tenant_label_blocks() {
        use crate::metrics::labeled;
        let mut reg = MetricsRegistry::default();
        reg.counter_add(&labeled("fedoo_serve_queries_total", "tenant", "t1"), 3);
        reg.counter_add(&labeled("fedoo_serve_queries_total", "tenant", "t2"), 5);
        reg.histogram_record(&labeled("fedoo_serve_latency_us", "tenant", "t1"), 64);
        let text = render_prometheus(&reg.snapshot());
        assert!(
            text.contains("fedoo_serve_queries_total{tenant=\"t1\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("fedoo_serve_queries_total{tenant=\"t2\"} 5"),
            "{text}"
        );
        // One TYPE header per family, not per series.
        assert_eq!(
            text.matches("# TYPE fedoo_serve_queries_total counter")
                .count(),
            1,
            "{text}"
        );
        // The le label merges into the tenant block.
        assert!(
            text.contains("fedoo_serve_latency_us_bucket{tenant=\"t1\",le=\"64\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("fedoo_serve_latency_us_sum{tenant=\"t1\"} 64"),
            "{text}"
        );
        // A hostile label value cannot break the exposition grammar.
        let spiky = labeled("fedoo_serve_queries_total", "tenant", "a\"b,c\nd");
        assert_eq!(spiky, "fedoo_serve_queries_total{tenant=\"a_b_c_d\"}");
        // A brace block that is not a label list is folded to underscores.
        let mut reg = MetricsRegistry::default();
        reg.counter_add("weird{not labels}", 1);
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("weird_not_labels_ 1"), "{text}");
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let doc = r#"{"a":[1,2.5,-3e2,true,false,null],"s":"q\"\\\nA😀","o":{}}"#;
        let v = parse_json(doc).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("q\"\\\nA😀"));
        assert_eq!(v.get("a").and_then(Json::as_arr).unwrap().len(), 6);
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,2] junk").is_err());
    }
}
