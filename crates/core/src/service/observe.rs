//! Cross-node trace aggregation: wire form for shipped worker trace
//! records, coordinator-side lifecycle records, and the merged job-trace
//! renderers.
//!
//! A worker that executes a shard of a traced job ([`crate::service::JobSpec`]
//! with `trace` set) attaches a capture-mode [`crate::Telemetry`] handle to
//! the shard campaign, drains the buffered spans/events, and ships them —
//! size-capped — inside the `/result` envelope. The coordinator keeps the
//! records of every *accepted* result (idempotently: duplicates and stale
//! deliveries are dropped with the result itself) plus its own lifecycle
//! records (shard claims, lease expiries, reassignments, poisonings), and
//! merges them on demand into two artifacts:
//!
//! * **The canonical job trace** (`GET /jobs/{id}/trace`): JSONL in the
//!   PR-5 canonical order, but *structural* — record timestamps and worker
//!   names are deliberately omitted, because the contract is that the
//!   merged trace is byte-identical regardless of worker count, shard
//!   interleaving, or delivery order. Slot execution is deterministic
//!   (per-slot seeding), so the accepted records are the same set in every
//!   run; only wall-clock varies, and wall-clock is exactly what this
//!   artifact drops. Lifecycle records are interleaved at their shard's
//!   slot position so an abandoned attempt is visible next to the records
//!   that replaced it; fault-run comparisons strip them the same way
//!   journal diffs strip the `Footer` line.
//! * **The merged Chrome trace** (`GET /jobs/{id}/chrome-trace`): a
//!   visualization artifact that *keeps* the shipped timings — `pid` is
//!   the shard, `tid` the shard's supervised worker lane — and is not
//!   byte-pinned.
//!
//! Everything here is hand-rolled JSON over [`super::json`]: the devstubs
//! environment ships a non-functional `serde`.

use super::json::{quote, Value};
use crate::telemetry::trace::{TraceRecord, TRACE_VERSION};
use std::fmt::Write as _;

/// Rendered-size cap for one shard's shipped trace array, before the
/// records are dropped and the envelope is flagged `trace_truncated`.
/// Well under `MAX_BODY_BYTES`, so a traced result is always deliverable.
pub(crate) const MAX_SHIPPED_TRACE_BYTES: usize = 1 << 20;

/// One shipped trace record, in owned (wire) form. The worker builds
/// these from the capture buffer's [`TraceRecord`]s; the coordinator
/// decodes them back and tags each with the shard that shipped it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct WireTraceRecord {
    /// True for a span, false for a point event.
    pub span: bool,
    /// Phase name (spans) or event name (events).
    pub label: String,
    pub test: Option<u64>,
    pub attempt: Option<u64>,
    pub worker: Option<u64>,
    /// Per-scope emission sequence (canonical-order tiebreak).
    pub seq: u64,
    /// Span start / event emission time, µs since the worker's telemetry
    /// epoch. Chrome-trace only; never rendered into the canonical trace.
    pub start_us: u64,
    /// Span duration in µs (0 for events). Chrome-trace and `/metrics`
    /// ingest only.
    pub dur_us: u64,
    /// Numeric details, in emission order.
    pub num: Vec<(String, u64)>,
    /// String details, in emission order.
    pub text: Vec<(String, String)>,
    /// Shard that shipped the record; assigned on coordinator ingest.
    pub shard: u64,
}

impl WireTraceRecord {
    pub(crate) fn from_record(record: &TraceRecord) -> WireTraceRecord {
        match record {
            TraceRecord::Span {
                phase,
                ids,
                seq,
                start_us,
                dur_us,
                detail,
            } => WireTraceRecord {
                span: true,
                label: (*phase).to_owned(),
                test: ids.test,
                attempt: ids.attempt.map(u64::from),
                worker: ids.worker.map(u64::from),
                seq: *seq,
                start_us: *start_us,
                dur_us: *dur_us,
                num: detail.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
                text: Vec::new(),
                shard: 0,
            },
            TraceRecord::Event {
                name,
                ids,
                seq,
                at_us,
                detail,
                text,
            } => WireTraceRecord {
                span: false,
                label: (*name).to_owned(),
                test: ids.test,
                attempt: ids.attempt.map(u64::from),
                worker: ids.worker.map(u64::from),
                seq: *seq,
                start_us: *at_us,
                dur_us: 0,
                num: detail.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
                text: text
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), v.clone()))
                    .collect(),
                shard: 0,
            },
        }
    }

    /// Wire encoding: compact single-letter keys, ids omitted when absent.
    pub(crate) fn encode(&self) -> Value {
        let mut fields: Vec<(&str, Value)> = vec![
            ("k", Value::str(if self.span { "s" } else { "e" })),
            ("l", Value::str(self.label.clone())),
        ];
        if let Some(test) = self.test {
            fields.push(("t", Value::u64(test)));
        }
        if let Some(attempt) = self.attempt {
            fields.push(("a", Value::u64(attempt)));
        }
        if let Some(worker) = self.worker {
            fields.push(("w", Value::u64(worker)));
        }
        fields.push(("q", Value::u64(self.seq)));
        fields.push(("b", Value::u64(self.start_us)));
        fields.push(("d", Value::u64(self.dur_us)));
        if !self.num.is_empty() {
            fields.push((
                "n",
                Value::Obj(
                    self.num
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::u64(*v)))
                        .collect(),
                ),
            ));
        }
        if !self.text.is_empty() {
            fields.push((
                "x",
                Value::Obj(
                    self.text
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::str(v.clone())))
                        .collect(),
                ),
            ));
        }
        Value::obj(fields)
    }

    /// Decodes one wire record.
    ///
    /// # Errors
    ///
    /// A description naming the missing or mistyped field.
    pub(crate) fn decode(value: &Value) -> Result<WireTraceRecord, String> {
        let kind = value.req_str("k")?;
        let span = match kind {
            "s" => true,
            "e" => false,
            other => return Err(format!("trace record kind `{other}` is not `s`/`e`")),
        };
        let opt_u64 = |key: &str| -> Result<Option<u64>, String> {
            match value.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("trace record field `{key}` must be a u64")),
            }
        };
        let mut num = Vec::new();
        if let Some(Value::Obj(fields)) = value.get("n") {
            for (k, v) in fields {
                let v = v
                    .as_u64()
                    .ok_or_else(|| format!("numeric detail `{k}` must be a u64"))?;
                num.push((k.clone(), v));
            }
        }
        let mut text = Vec::new();
        if let Some(Value::Obj(fields)) = value.get("x") {
            for (k, v) in fields {
                let v = v
                    .as_str()
                    .ok_or_else(|| format!("text detail `{k}` must be a string"))?;
                text.push((k.clone(), v.to_owned()));
            }
        }
        Ok(WireTraceRecord {
            span,
            label: value.req_str("l")?.to_owned(),
            test: opt_u64("t")?,
            attempt: opt_u64("a")?,
            worker: opt_u64("w")?,
            seq: value.req_u64("q")?,
            start_us: value.req_u64("b")?,
            dur_us: value.req_u64("d")?,
            num,
            text,
            shard: 0,
        })
    }

    /// The PR-5 canonical sort key — ids, then spans before events, then
    /// label and per-scope sequence. No timestamps, by construction.
    fn sort_key(&self) -> (u64, u64, u64, u8, &str, u64) {
        (
            self.test.unwrap_or(u64::MAX),
            self.attempt.unwrap_or(u64::MAX),
            self.worker.unwrap_or(u64::MAX),
            u8::from(!self.span),
            &self.label,
            self.seq,
        )
    }

    fn write_structural(&self, out: &mut String) {
        let kind = if self.span { "span" } else { "event" };
        let tag = if self.span { "phase" } else { "name" };
        let _ = write!(out, "{{\"type\":\"{kind}\",\"{tag}\":\"{}\"", self.label);
        if let Some(test) = self.test {
            let _ = write!(out, ",\"test\":{test}");
        }
        if let Some(attempt) = self.attempt {
            let _ = write!(out, ",\"attempt\":{attempt}");
        }
        if let Some(worker) = self.worker {
            let _ = write!(out, ",\"worker\":{worker}");
        }
        let _ = write!(out, ",\"seq\":{}", self.seq);
        for (key, value) in &self.num {
            let _ = write!(out, ",\"{key}\":{value}");
        }
        for (key, value) in &self.text {
            let _ = write!(out, ",\"{key}\":{}", quote(value));
        }
        out.push_str("}\n");
    }
}

/// Converts a drained capture buffer into wire records and encodes them
/// as a JSON array value for the `/result` envelope, enforcing the
/// rendered-size cap. Returns the array and whether it was truncated
/// (records are dropped from the end — the canonical trace for that
/// shard will be incomplete, which the envelope flags loudly).
pub(crate) fn encode_shipped_trace(records: &[TraceRecord]) -> (Value, bool) {
    let mut items = Vec::with_capacity(records.len());
    let mut rendered = 0usize;
    let mut truncated = false;
    for record in records {
        let value = WireTraceRecord::from_record(record).encode();
        rendered += value.render().len() + 1;
        if rendered > MAX_SHIPPED_TRACE_BYTES {
            truncated = true;
            break;
        }
        items.push(value);
    }
    (Value::Arr(items), truncated)
}

/// A coordinator-side shard lifecycle record: claims, lease expiries,
/// reassignment failures, poisonings. `seq` is the per-shard causal
/// ordinal (the shard's state machine is serialized under the jobs lock,
/// so it is deterministic for a given failure history), which is what the
/// canonical trace sorts by.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct LifecycleRecord {
    pub name: &'static str,
    pub shard: u64,
    pub slot_start: u64,
    pub slot_end: u64,
    /// 1-based shard attempt this record belongs to.
    pub attempt: u64,
    /// Per-shard causal ordinal, 0-based.
    pub seq: u64,
    /// Failure cause, for `lease expired` / reassignment records.
    pub cause: Option<String>,
}

impl LifecycleRecord {
    fn write_jsonl(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"type\":\"lifecycle\",\"name\":\"{}\",\"shard\":{},\"slot_start\":{},\
             \"slot_end\":{},\"attempt\":{},\"seq\":{}",
            self.name, self.shard, self.slot_start, self.slot_end, self.attempt, self.seq
        );
        if let Some(cause) = &self.cause {
            let _ = write!(out, ",\"cause\":{}", quote(cause));
        }
        out.push_str("}\n");
    }

    /// State-dir persistence form (framed alongside `done`/`poisoned`
    /// records), so merged traces survive coordinator restarts.
    pub(crate) fn encode(&self, job: u64) -> Value {
        let mut fields = vec![
            ("kind", Value::str("lifecycle")),
            ("job", Value::u64(job)),
            ("name", Value::str(self.name)),
            ("shard", Value::u64(self.shard)),
            ("slot_start", Value::u64(self.slot_start)),
            ("slot_end", Value::u64(self.slot_end)),
            ("attempt", Value::u64(self.attempt)),
            ("seq", Value::u64(self.seq)),
        ];
        if let Some(cause) = &self.cause {
            fields.push(("cause", Value::str(cause.clone())));
        }
        Value::obj(fields)
    }

    /// Decodes a persisted lifecycle record. The name is re-interned to
    /// the static set this module emits; unknown names are an error (the
    /// state file is integrity-framed, so this means a version skew, not
    /// corruption).
    pub(crate) fn decode(value: &Value) -> Result<LifecycleRecord, String> {
        let name = value.req_str("name")?;
        let name = LIFECYCLE_NAMES
            .iter()
            .copied()
            .find(|n| *n == name)
            .ok_or_else(|| format!("unknown lifecycle record name `{name}`"))?;
        Ok(LifecycleRecord {
            name,
            shard: value.req_u64("shard")?,
            slot_start: value.req_u64("slot_start")?,
            slot_end: value.req_u64("slot_end")?,
            attempt: value.req_u64("attempt")?,
            seq: value.req_u64("seq")?,
            cause: value
                .get("cause")
                .and_then(Value::as_str)
                .map(str::to_owned),
        })
    }
}

/// Every lifecycle record name the coordinator emits.
pub(crate) const LIFECYCLE_NAMES: [&str; 4] = [
    "shard_claimed",
    "shard_failed",
    "shard_poisoned",
    "shard_done",
];

/// Renders the canonical (structural) merged job trace. Byte-identical
/// for a given job spec regardless of worker count or delivery order; see
/// the module docs for the argument. `records` and `lifecycle` are taken
/// by value because rendering sorts them.
pub(crate) fn render_job_trace(
    job: u64,
    tests: u64,
    shards: u64,
    mut records: Vec<WireTraceRecord>,
    mut lifecycle: Vec<LifecycleRecord>,
) -> String {
    records.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    lifecycle.sort_by_key(|l| (l.slot_start, l.shard, l.seq));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"tool\":\"mtracecheck\",\"version\":{TRACE_VERSION},\
         \"layout\":\"job\",\"job\":{job},\"tests\":{tests},\"shards\":{shards}}}"
    );
    // Interleave: a shard's lifecycle records sort at its first slot,
    // ahead of that slot's own records — a claim precedes execution, and
    // an abandoned attempt reads in sequence with the records that
    // replaced it.
    let mut life = lifecycle.iter().peekable();
    for record in &records {
        let test = record.test.unwrap_or(u64::MAX);
        while life.peek().is_some_and(|l| l.slot_start <= test) {
            life.next().expect("peeked").write_jsonl(&mut out);
        }
        record.write_structural(&mut out);
    }
    for l in life {
        l.write_jsonl(&mut out);
    }
    out
}

/// Renders the merged Chrome trace-event array from the shipped records:
/// `pid` = shard, `tid` = the record's worker lane, timings as shipped.
/// A visualization artifact — not byte-pinned across runs.
pub(crate) fn render_job_chrome(
    mut records: Vec<WireTraceRecord>,
    lifecycle: &[LifecycleRecord],
) -> String {
    records.sort_by_key(|r| (r.shard, r.start_us, r.seq));
    let mut out = String::from("[");
    let mut first = true;
    let sep = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
    };
    for record in &records {
        sep(&mut out, &mut first);
        let ph = if record.span {
            format!(
                "\"ph\":\"X\",\"ts\":{},\"dur\":{}",
                record.start_us, record.dur_us
            )
        } else {
            format!("\"ph\":\"i\",\"s\":\"g\",\"ts\":{}", record.start_us)
        };
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",{ph},\"pid\":{},\"tid\":{},\"args\":{{",
            record.label,
            record.shard,
            record.worker.unwrap_or(0)
        );
        let mut afirst = true;
        if let Some(test) = record.test {
            sep(&mut out, &mut afirst);
            let _ = write!(out, "\"test\":{test}");
        }
        if let Some(attempt) = record.attempt {
            sep(&mut out, &mut afirst);
            let _ = write!(out, "\"attempt\":{attempt}");
        }
        for (key, value) in &record.num {
            sep(&mut out, &mut afirst);
            let _ = write!(out, "\"{key}\":{value}");
        }
        for (key, value) in &record.text {
            sep(&mut out, &mut afirst);
            let _ = write!(out, "\"{key}\":{}", quote(value));
        }
        out.push_str("}}");
    }
    for l in lifecycle {
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"g\",\"ts\":0,\"pid\":{},\"tid\":0,\
             \"args\":{{\"attempt\":{}",
            l.name, l.shard, l.attempt
        );
        if let Some(cause) = &l.cause {
            let _ = write!(out, ",\"cause\":{}", quote(cause));
        }
        out.push_str("}}");
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::validate_trace_text;
    use crate::Ids;

    fn record(test: u64, seq: u64) -> WireTraceRecord {
        WireTraceRecord::from_record(&TraceRecord::Span {
            phase: "attempt",
            ids: Ids::test(test, 1),
            seq,
            start_us: 100 + test,
            dur_us: 7,
            detail: vec![("iterations", 40)],
        })
    }

    #[test]
    fn wire_records_roundtrip() {
        let original = WireTraceRecord::from_record(&TraceRecord::Event {
            name: "retry",
            ids: Ids::test(3, 2).with_worker(1),
            seq: 9,
            at_us: 555,
            detail: vec![("backoff_ms", 32)],
            text: vec![("cause", "worker panic: \"boom\"".to_owned())],
        });
        let decoded = WireTraceRecord::decode(
            &super::super::json::parse(&original.encode().render()).expect("wire json parses"),
        )
        .expect("wire record decodes");
        assert_eq!(decoded, original);
        assert!(WireTraceRecord::decode(&Value::obj(vec![("k", Value::str("z"))])).is_err());
    }

    #[test]
    fn job_trace_is_invariant_to_record_order() {
        let records = vec![record(0, 0), record(1, 0), record(2, 0)];
        let mut reversed: Vec<WireTraceRecord> = records.clone();
        reversed.reverse();
        let life = vec![LifecycleRecord {
            name: "shard_claimed",
            shard: 1,
            slot_start: 2,
            slot_end: 3,
            attempt: 1,
            seq: 0,
            cause: None,
        }];
        let a = render_job_trace(0, 3, 2, records, life.clone());
        let b = render_job_trace(0, 3, 2, reversed, life);
        assert_eq!(a, b, "delivery order must not matter");
        assert!(!a.contains("start_us"), "canonical trace is structural");
        let summary = validate_trace_text(&a).expect("job trace validates");
        assert_eq!(summary.spans, 3);
        assert_eq!(summary.lifecycle, 1);
        // The shard-1 lifecycle record lands at its slot range, between
        // the test-1 and test-2 records.
        let lines: Vec<&str> = a.lines().collect();
        assert!(lines[3].contains("shard_claimed"), "interleaved: {a}");
    }

    #[test]
    fn shipped_trace_cap_truncates() {
        let records: Vec<TraceRecord> = (0..4)
            .map(|i| TraceRecord::Event {
                name: "spill",
                ids: Ids::test(i, 1),
                seq: 0,
                at_us: 1,
                detail: vec![],
                text: vec![("cause", "x".repeat(MAX_SHIPPED_TRACE_BYTES / 3))],
            })
            .collect();
        let (value, truncated) = encode_shipped_trace(&records);
        assert!(truncated);
        assert!(value.as_arr().expect("array").len() < 4);
        let small = [TraceRecord::Event {
            name: "spill",
            ids: Ids::none(),
            seq: 0,
            at_us: 1,
            detail: vec![],
            text: vec![],
        }];
        let (value, truncated) = encode_shipped_trace(&small);
        assert!(!truncated);
        assert_eq!(value.as_arr().expect("array").len(), 1);
    }

    #[test]
    fn chrome_merge_renders_an_array() {
        let text = render_job_chrome(
            vec![record(0, 0)],
            &[LifecycleRecord {
                name: "shard_failed",
                shard: 0,
                slot_start: 0,
                slot_end: 3,
                attempt: 1,
                seq: 1,
                cause: Some("lease expired".to_owned()),
            }],
        );
        assert!(text.starts_with('['));
        assert!(text.trim_end().ends_with(']'));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("lease expired"));
    }
}
