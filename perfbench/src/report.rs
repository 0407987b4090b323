//! The result line (last line of standard output), the run report and
//! the span dump.

use std::fmt::Write as _;
use std::path::Path;

use didt_telemetry::{Json, MemoryCollector};

use crate::catalog;

/// Render `json` on one line (the program's renderer is multi-line).
#[must_use]
pub fn compact(json: &Json) -> String {
    let mut out = String::new();
    write_compact(json, &mut out);
    out
}

fn write_compact(json: &Json, out: &mut String) {
    match json {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(v) if v.is_finite() => {
            let _ = write!(out, "{v}");
        }
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => write_str(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(k, out);
                out.push(':');
                write_compact(v, out);
            }
            out.push('}');
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The result object: `correct`, `attempted`, `failed` and every
/// metric with its catalogue unit.
#[must_use]
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> Json {
    let metrics = metrics
        .iter()
        .map(|&(name, value)| {
            let unit = catalog::find(name).map_or("", |m| m.unit);
            (
                name,
                Json::obj(vec![("value", Json::num(value)), ("unit", Json::str(unit))]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// Write `json` (pretty) to `path`.
///
/// # Errors
///
/// Propagates I/O errors as text.
pub fn write(path: &Path, json: &Json) -> Result<(), String> {
    std::fs::write(path, json.render()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// The collected spans: per-name rollup with self time, plus every
/// retained record.
#[must_use]
pub fn spans_json(collector: &MemoryCollector) -> Json {
    let records = collector.records();
    // Self time: a span's duration minus its direct children's.
    let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for r in &records {
        if let Some(p) = r.parent {
            *child_ns.entry(p).or_default() += r.duration_ns;
        }
    }
    let mut self_ns: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for r in &records {
        let children = child_ns.get(&r.id).copied().unwrap_or(0);
        *self_ns.entry(r.name).or_default() += r.duration_ns.saturating_sub(children);
    }
    let rollup = collector
        .stats()
        .into_iter()
        .map(|(name, s)| {
            Json::obj(vec![
                ("name", Json::str(name)),
                ("count", Json::num(s.count as f64)),
                ("total_ms", Json::num(s.total_ns as f64 / 1e6)),
                ("max_ms", Json::num(s.max_ns as f64 / 1e6)),
                (
                    "self_ms_of_retained",
                    Json::num(self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6),
                ),
            ])
        })
        .collect();
    let recs = records
        .iter()
        .map(|r| {
            Json::Arr(vec![
                Json::str(r.name),
                Json::num(r.id as f64),
                r.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                Json::num(r.start_ns as f64),
                Json::num(r.duration_ns as f64),
            ])
        })
        .collect();
    Json::obj(vec![
        ("rollup", Json::Arr(rollup)),
        (
            "record_fields",
            Json::str("name,id,parent,start_ns,duration_ns"),
        ),
        ("records", Json::Arr(recs)),
    ])
}
