//! Structured trace records: JSONL emission, Chrome trace-event export,
//! and a dependency-free schema validator.
//!
//! Records are buffered in memory during the run (appended under a mutex
//! only at scope-drain points, never per-iteration) and written at
//! [`Telemetry::finish`](super::Telemetry::finish) in a canonical order:
//! sorted by correlation ids `(test, attempt, worker)`, then record kind,
//! label, and per-scope sequence number. Timestamps vary run to run, but
//! the *structure* of the trace — which spans and events exist, with which
//! ids and logical details — is deterministic for a given campaign
//! configuration.
//!
//! All JSON here is hand-formatted: the devstubs environment ships a
//! non-functional `serde`, and telemetry must work (and be testable)
//! offline. Strings are escaped, and trace lines parsed, by the crate's one
//! dependency-free codec, [`crate::service::json`].

use super::Ids;
use crate::service::json::{self, quote, Value};
use std::fmt::Write as _;

/// Trace schema version, stamped into the leading `meta` record.
pub const TRACE_VERSION: u32 = 1;

/// One buffered trace record.
#[derive(Clone, Debug)]
pub(crate) enum TraceRecord {
    /// A timed span of one pipeline phase.
    Span {
        /// Phase name (see [`super::Phase::name`]).
        phase: &'static str,
        ids: Ids,
        /// Per-scope emission sequence, for a stable canonical order.
        seq: u64,
        /// Start, microseconds since the telemetry epoch.
        start_us: u64,
        /// Duration in microseconds.
        dur_us: u64,
        /// Extra numeric details, inlined as JSON fields.
        detail: Vec<(&'static str, u64)>,
    },
    /// A point event (retry, quarantine, spill, …).
    Event {
        name: &'static str,
        ids: Ids,
        seq: u64,
        /// Emission time, microseconds since the telemetry epoch.
        at_us: u64,
        detail: Vec<(&'static str, u64)>,
        /// String details (e.g. a failure cause), JSON-escaped on write.
        text: Vec<(&'static str, String)>,
    },
}

impl TraceRecord {
    /// Canonical sort key: ids first (absent ids order last), then spans
    /// before events, then label and per-scope sequence. Deliberately
    /// excludes every timestamp, so the order is deterministic.
    fn sort_key(&self) -> (u64, u64, u64, u8, &'static str, u64) {
        let (ids, kind, label, seq) = match self {
            TraceRecord::Span {
                phase, ids, seq, ..
            } => (ids, 0u8, *phase, *seq),
            TraceRecord::Event { name, ids, seq, .. } => (ids, 1u8, *name, *seq),
        };
        (
            ids.test.unwrap_or(u64::MAX),
            ids.attempt.map_or(u64::MAX, u64::from),
            ids.worker.map_or(u64::MAX, u64::from),
            kind,
            label,
            seq,
        )
    }

    fn write_jsonl(&self, out: &mut String) {
        match self {
            TraceRecord::Span {
                phase,
                ids,
                seq,
                start_us,
                dur_us,
                detail,
            } => {
                out.push_str(&format!("{{\"type\":\"span\",\"phase\":\"{phase}\""));
                write_ids(out, ids);
                let _ = write!(
                    out,
                    ",\"seq\":{seq},\"start_us\":{start_us},\"dur_us\":{dur_us}"
                );
                for (key, value) in detail {
                    let _ = write!(out, ",\"{key}\":{value}");
                }
                out.push_str("}\n");
            }
            TraceRecord::Event {
                name,
                ids,
                seq,
                at_us,
                detail,
                text,
            } => {
                out.push_str(&format!("{{\"type\":\"event\",\"name\":\"{name}\""));
                write_ids(out, ids);
                let _ = write!(out, ",\"seq\":{seq},\"at_us\":{at_us}");
                for (key, value) in detail {
                    let _ = write!(out, ",\"{key}\":{value}");
                }
                for (key, value) in text {
                    let _ = write!(out, ",\"{key}\":{}", quote(value));
                }
                out.push_str("}\n");
            }
        }
    }
}

fn write_ids(out: &mut String, ids: &Ids) {
    if let Some(test) = ids.test {
        let _ = write!(out, ",\"test\":{test}");
    }
    if let Some(attempt) = ids.attempt {
        let _ = write!(out, ",\"attempt\":{attempt}");
    }
    if let Some(worker) = ids.worker {
        let _ = write!(out, ",\"worker\":{worker}");
    }
}

/// Renders the buffered records as JSONL, in canonical order, preceded by
/// one `meta` record.
pub(crate) fn render_jsonl(records: &mut [TraceRecord]) -> String {
    records.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"tool\":\"mtracecheck\",\"version\":{TRACE_VERSION}}}"
    );
    for record in records {
        record.write_jsonl(&mut out);
    }
    out
}

/// Renders the buffered records in the Chrome trace-event JSON array format
/// (load via `chrome://tracing` or Perfetto). Spans become complete (`X`)
/// events on `tid` = worker; point events become instants (`i`).
pub(crate) fn render_chrome(records: &mut [TraceRecord]) -> String {
    records.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    let mut out = String::from("[");
    let mut first = true;
    for record in records.iter() {
        if !first {
            out.push(',');
        }
        first = false;
        match record {
            TraceRecord::Span {
                phase,
                ids,
                start_us,
                dur_us,
                detail,
                ..
            } => {
                let _ = write!(
                    out,
                    "\n{{\"name\":\"{phase}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{start_us},\"dur\":{dur_us},\"args\":{{",
                    ids.worker.unwrap_or(0)
                );
                write_chrome_args(&mut out, ids, detail, &[]);
                out.push_str("}}");
            }
            TraceRecord::Event {
                name,
                ids,
                at_us,
                detail,
                text,
                ..
            } => {
                let _ = write!(
                    out,
                    "\n{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":{},\"ts\":{at_us},\"args\":{{",
                    ids.worker.unwrap_or(0)
                );
                write_chrome_args(&mut out, ids, detail, text);
                out.push_str("}}");
            }
        }
    }
    out.push_str("\n]\n");
    out
}

fn write_chrome_args(
    out: &mut String,
    ids: &Ids,
    detail: &[(&'static str, u64)],
    text: &[(&'static str, String)],
) {
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
    };
    if let Some(test) = ids.test {
        sep(out);
        let _ = write!(out, "\"test\":{test}");
    }
    if let Some(attempt) = ids.attempt {
        sep(out);
        let _ = write!(out, "\"attempt\":{attempt}");
    }
    for (key, value) in detail {
        sep(out);
        let _ = write!(out, "\"{key}\":{value}");
    }
    for (key, value) in text {
        sep(out);
        let _ = write!(out, "\"{key}\":{}", quote(value));
    }
}

// ---------------------------------------------------------------------------
// Schema validation.
// ---------------------------------------------------------------------------

/// Counts of schema-valid records in a trace file.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// `meta` records (exactly one expected, first).
    pub meta: u64,
    /// `span` records.
    pub spans: u64,
    /// `event` records.
    pub events: u64,
    /// `lifecycle` records (merged job traces only).
    pub lifecycle: u64,
}

/// Validates a whole JSONL trace file against the schema written by
/// [`Telemetry::finish`](super::Telemetry::finish), or — when the `meta`
/// record carries `"layout":"job"` — against the coordinator's merged
/// job-trace schema, where spans and events are structural (no
/// timestamps) and `lifecycle` records (shard claims, lease expiries,
/// reassignments, poisonings) are interleaved.
///
/// # Errors
///
/// A human-readable description naming the first offending line.
pub fn validate_trace_text(text: &str) -> Result<TraceSummary, String> {
    let mut summary = TraceSummary::default();
    let mut job_layout = false;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = parse_record(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let kind = match record.get("type") {
            Some(Value::Str(s)) => s.clone(),
            Some(_) => return Err(format!("line {}: `type` must be a string", lineno + 1)),
            None => return Err(format!("line {}: missing `type` field", lineno + 1)),
        };
        let require_num = |name: &str| -> Result<(), String> {
            match record.get(name) {
                Some(Value::Int(_) | Value::Float(_)) => Ok(()),
                Some(_) => Err(format!("line {}: `{name}` must be a number", lineno + 1)),
                None => Err(format!(
                    "line {}: {kind} record missing `{name}`",
                    lineno + 1
                )),
            }
        };
        let require_str = |name: &str| -> Result<(), String> {
            match record.get(name) {
                Some(Value::Str(_)) => Ok(()),
                Some(_) => Err(format!("line {}: `{name}` must be a string", lineno + 1)),
                None => Err(format!(
                    "line {}: {kind} record missing `{name}`",
                    lineno + 1
                )),
            }
        };
        match kind.as_str() {
            "meta" => {
                if summary.meta > 0 || summary.spans > 0 || summary.events > 0 {
                    return Err(format!(
                        "line {}: `meta` must be the single first record",
                        lineno + 1
                    ));
                }
                require_num("version")?;
                job_layout = record.get("layout").and_then(Value::as_str) == Some("job");
                summary.meta += 1;
            }
            "span" => {
                require_str("phase")?;
                require_num("seq")?;
                if !job_layout {
                    require_num("start_us")?;
                    require_num("dur_us")?;
                }
                summary.spans += 1;
            }
            "event" => {
                require_str("name")?;
                require_num("seq")?;
                if !job_layout {
                    require_num("at_us")?;
                }
                summary.events += 1;
            }
            "lifecycle" if job_layout => {
                require_str("name")?;
                require_num("shard")?;
                require_num("attempt")?;
                summary.lifecycle += 1;
            }
            other => {
                return Err(format!(
                    "line {}: unknown record type `{other}`",
                    lineno + 1
                ))
            }
        }
    }
    if summary.meta != 1 {
        return Err("trace must open with exactly one `meta` record".to_owned());
    }
    Ok(summary)
}

/// Validates a captured `/events` stream (JSONL, one event object per
/// line, possibly concatenated across reconnects): every line needs a
/// numeric `seq` and a string `event`, sequence numbers must be strictly
/// increasing (so reconnecting with `since=<last>` never yields a
/// duplicate), and a terminal `complete` event — if present — must be
/// unique and last. Returns the number of events.
///
/// # Errors
///
/// A description naming the first offending line.
pub fn validate_events_text(text: &str) -> Result<u64, String> {
    let mut events = 0u64;
    let mut last_seq: Option<u64> = None;
    let mut complete = false;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = parse_record(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if complete {
            return Err(format!(
                "line {}: events after the terminal `complete` event",
                lineno + 1
            ));
        }
        let seq = match record.get("seq").and_then(Value::as_f64) {
            Some(n) if n >= 0.0 && n.fract() == 0.0 => n as u64,
            _ => return Err(format!("line {}: missing or non-integer `seq`", lineno + 1)),
        };
        let name = match record.get("event").and_then(Value::as_str) {
            Some(s) => s.to_owned(),
            None => return Err(format!("line {}: missing string `event`", lineno + 1)),
        };
        if let Some(last) = last_seq {
            if seq <= last {
                return Err(format!(
                    "line {}: seq {seq} does not increase past {last} (duplicate or reordered \
                     event after reconnect)",
                    lineno + 1
                ));
            }
        }
        last_seq = Some(seq);
        complete = name == "complete";
        events += 1;
    }
    Ok(events)
}

/// Validates a Prometheus-style metrics snapshot: every non-comment line
/// must be `name{labels} value` or `name value` with a numeric value.
///
/// # Errors
///
/// A description naming the first offending line.
pub fn validate_metrics_text(text: &str) -> Result<u64, String> {
    let mut samples = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: expected `name value`", lineno + 1))?;
        if value_part.parse::<f64>().is_err() {
            return Err(format!(
                "line {}: sample value `{value_part}` is not numeric",
                lineno + 1
            ));
        }
        let name = name_part.split('{').next().unwrap_or("");
        let valid_name = !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
        if !valid_name {
            return Err(format!("line {}: invalid metric name `{name}`", lineno + 1));
        }
        if name_part.contains('{') && !name_part.ends_with('}') {
            return Err(format!("line {}: unterminated label set", lineno + 1));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("metrics snapshot contains no samples".to_owned());
    }
    Ok(samples)
}

/// Parses one trace line: a single JSON object whose values are all
/// scalars (the whole trace schema). Rejects nesting, trailing garbage,
/// and malformed literals.
fn parse_record(line: &str) -> Result<Value, String> {
    let record = json::parse(line)?;
    let Value::Obj(fields) = &record else {
        return Err("expected a JSON object".to_owned());
    };
    if let Some((key, _)) = fields
        .iter()
        .find(|(_, v)| matches!(v, Value::Arr(_) | Value::Obj(_)))
    {
        return Err(format!("unsupported nested value for key `{key}`"));
    }
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(phase: &'static str, test: u64, seq: u64) -> TraceRecord {
        TraceRecord::Span {
            phase,
            ids: Ids {
                test: Some(test),
                attempt: Some(1),
                worker: None,
            },
            seq,
            start_us: 10,
            dur_us: 5,
            detail: vec![("iterations", 100)],
        }
    }

    #[test]
    fn jsonl_roundtrips_through_the_validator() {
        let mut records = vec![
            span("simulate", 1, 0),
            span("instrument", 0, 0),
            TraceRecord::Event {
                name: "retry",
                ids: Ids {
                    test: Some(1),
                    attempt: Some(1),
                    worker: None,
                },
                seq: 1,
                at_us: 42,
                detail: vec![],
                text: vec![("cause", "worker panic: \"boom\"\n".to_owned())],
            },
        ];
        let text = render_jsonl(&mut records);
        let summary = validate_trace_text(&text).expect("self-produced trace validates");
        assert_eq!(
            summary,
            TraceSummary {
                meta: 1,
                spans: 2,
                events: 1,
                lifecycle: 0
            }
        );
        // Canonical order: test 0 before test 1, spans before events.
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].contains("\"test\":0"));
        assert!(lines[2].contains("\"phase\":\"simulate\""));
        assert!(lines[3].contains("\"name\":\"retry\""));
        assert!(lines[3].contains("\\\"boom\\\"\\n"));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_trace_text("not json").is_err());
        assert!(validate_trace_text("{\"type\":\"mystery\"}").is_err());
        assert!(
            validate_trace_text("{\"type\":\"span\",\"phase\":\"x\",\"seq\":0,\"start_us\":1}")
                .is_err(),
            "span without dur_us must fail"
        );
        assert!(
            validate_trace_text(
                "{\"type\":\"meta\",\"version\":1}\n{\"type\":\"meta\",\"version\":1}"
            )
            .is_err(),
            "duplicate meta must fail"
        );
        let ok = "{\"type\":\"meta\",\"version\":1}\n\
                  {\"type\":\"event\",\"name\":\"spill\",\"seq\":0,\"at_us\":3,\"bytes\":128}";
        assert!(validate_trace_text(ok).is_ok());
        for bad in [
            "{\"type\":\"meta\",\"version\":1,\"nested\":{\"a\":1}}",
            "{\"type\":\"meta\",\"version\":1,\"list\":[1]}",
            "{\"type\":\"meta\",\"version\":1,\"flag\":tru}",
            "{\"type\":\"meta\",\"version\":1,\"none\":nil}",
            "{\"type\":\"meta\",\"version\":1} trailing",
            "[{\"type\":\"meta\",\"version\":1}]",
        ] {
            assert!(validate_trace_text(bad).is_err(), "`{bad}` must fail");
        }
    }

    #[test]
    fn chrome_export_is_a_json_array() {
        let mut records = vec![span("merge", 2, 0)];
        let text = render_chrome(&mut records);
        assert!(text.starts_with('['));
        assert!(text.trim_end().ends_with(']'));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"name\":\"merge\""));
    }

    #[test]
    fn job_layout_accepts_structural_records_and_lifecycle() {
        let text =
            "{\"type\":\"meta\",\"tool\":\"mtracecheck\",\"version\":1,\"layout\":\"job\"}\n\
                    {\"type\":\"span\",\"phase\":\"attempt\",\"test\":0,\"attempt\":1,\"seq\":0}\n\
                    {\"type\":\"lifecycle\",\"name\":\"shard_claimed\",\"shard\":0,\"attempt\":1}\n\
                    {\"type\":\"event\",\"name\":\"retry\",\"test\":1,\"seq\":0,\"cause\":\"x\"}";
        let summary = validate_trace_text(text).expect("job layout validates");
        assert_eq!(summary.spans, 1);
        assert_eq!(summary.events, 1);
        assert_eq!(summary.lifecycle, 1);
        // Lifecycle records are a job-layout extension: a plain (timed)
        // trace must still reject them, and timed spans still need timing.
        assert!(validate_trace_text(
            "{\"type\":\"meta\",\"version\":1}\n\
             {\"type\":\"lifecycle\",\"name\":\"shard_claimed\",\"shard\":0,\"attempt\":1}"
        )
        .is_err());
        assert!(validate_trace_text(
            "{\"type\":\"meta\",\"version\":1}\n\
             {\"type\":\"span\",\"phase\":\"attempt\",\"seq\":0}"
        )
        .is_err());
    }

    #[test]
    fn events_validator_enforces_monotone_sequencing() {
        let ok = "{\"seq\":1,\"job\":0,\"event\":\"submitted\"}\n\
                  {\"seq\":2,\"job\":0,\"event\":\"claimed\",\"shard\":0}\n\
                  {\"seq\":5,\"job\":0,\"event\":\"complete\"}";
        assert_eq!(validate_events_text(ok), Ok(3));
        assert_eq!(validate_events_text(""), Ok(0));
        assert!(
            validate_events_text("{\"seq\":2,\"event\":\"a\"}\n{\"seq\":2,\"event\":\"b\"}")
                .is_err(),
            "duplicate seq must fail"
        );
        assert!(
            validate_events_text("{\"seq\":3,\"event\":\"a\"}\n{\"seq\":1,\"event\":\"b\"}")
                .is_err(),
            "reordered seq must fail"
        );
        assert!(
            validate_events_text(
                "{\"seq\":1,\"event\":\"complete\"}\n{\"seq\":2,\"event\":\"claimed\"}"
            )
            .is_err(),
            "events after the terminal event must fail"
        );
        assert!(validate_events_text("{\"event\":\"a\"}").is_err());
        assert!(validate_events_text("{\"seq\":1}").is_err());
    }

    #[test]
    fn metrics_validator_accepts_prometheus_text() {
        let text = "# HELP x y\n# TYPE x histogram\nx_bucket{phase=\"a\",le=\"+Inf\"} 3\nx_sum{phase=\"a\"} 12\n";
        assert_eq!(validate_metrics_text(text), Ok(2));
        assert!(validate_metrics_text("").is_err());
        assert!(validate_metrics_text("x notanumber").is_err());
        assert!(validate_metrics_text("bad name{ 3").is_err());
    }
}
