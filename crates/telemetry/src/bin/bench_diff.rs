//! `bench_diff`: compare two BENCH JSON reports with tolerance bands.
//!
//! CI runs the perf smoke job on every push, writes a fresh smoke
//! report, and diffs it against the committed full-run reference
//! (`BENCH_pr10.json`) with this tool. Two kinds of metric get two kinds
//! of band:
//!
//! * **ratio metrics** (speedup of one code path over another, measured
//!   on the same machine in the same process) transfer across hosts, so
//!   they get the tight default band (`--ratio-tolerance`, default
//!   0.5 = the candidate may lose up to half the reference ratio);
//! * **absolute rates** (cycles/s, samples/s) depend on the host the
//!   reference was captured on, so they get a loose band
//!   (`--rate-tolerance`, default 0.9 = flag only order-of-magnitude
//!   collapses) and are otherwise informational.
//!
//! Structural fields (schema, serial/parallel bit-identity, batched-
//! kernel lane-0 bit-identity) are checked exactly. A schema mismatch
//! reports *which* top-level sections differ between the two files
//! instead of a bare name comparison, and `--schema <name>` pins the
//! expected schema explicitly (both files must carry it). Exit status
//! is nonzero when any check fails, so the CI step is just
//! `bench_diff <reference> <candidate>`.
//!
//! Which structural fields and metrics apply is keyed on the schema:
//! the perf-report profile above is the default, `didt-bench-v4`
//! (the `storm_report` cluster benchmark) gets the storm profile —
//! exact checks on session bit-identity, shard-key collisions, and
//! zero lost/duplicated responses under failover, an absolute floor on
//! the per-shard cache hit ratio, and a loose rate band on storm
//! throughput — and `didt-bench-v5` (perf report with the scheduler
//! `skew_report` section) gets every perf check plus skew gates:
//! bit-identity with the serial run, and a floor on the zipf and
//! uniform sleep shapes' schedule efficiency (makespan lower bound over
//! measured wall time), looser when the candidate is a smoke run.
//! `didt-serve-bench-v1` (the `load_report` serve benchmark) gets exact
//! checks only: bit-identical replay, zero errors under throughput and
//! overload, no worker panics, and a clean deadline abort.
//!
//! A second mode, `bench_diff --manifest-fingerprint <a.json> <b.json>`,
//! compares the non-timing fingerprints of two run manifests — CI uses
//! it to assert that a forced-scalar (`DIDT_BATCH_LANES=1`) smoke run
//! and an auto-dispatch run produce identical deterministic outputs.

use didt_telemetry::{Json, RunManifest};
use std::process::ExitCode;

/// One comparison: a dotted path into both reports plus its band kind.
struct Metric {
    path: &'static [&'static str],
    kind: Kind,
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// Same-machine ratio — portable across hosts, tight band.
    Ratio,
    /// Absolute throughput — host-dependent, loose band.
    Rate,
}

/// Which check set a report gets, keyed on its schema.
#[derive(Clone, Copy, PartialEq)]
enum Profile {
    /// The batch/perf report family (`didt-bench-v1`..`v3`): kernel
    /// speedups and bit-identity flags.
    Perf,
    /// `didt-bench-v4`, the `storm_report` cluster benchmark.
    Storm,
    /// `didt-bench-v5`: every perf-profile check plus the scheduler
    /// `skew_report` section (schedule efficiency of the sleep shapes).
    Skew,
    /// `didt-serve-bench-v1`, the `load_report` serve benchmark.
    Serve,
}

/// Floor on a full-run candidate's zipf and uniform schedule
/// efficiency.
const SKEW_FULL_EFFICIENCY_FLOOR: f64 = 0.8;

/// Floor on a smoke-run candidate's zipf and uniform schedule
/// efficiency: the smoke shapes are short, so fixed sleep and spawn
/// overheads weigh more, and CI runners are shared.
const SKEW_SMOKE_EFFICIENCY_FLOOR: f64 = 0.55;

/// Candidate paths that must be exactly `true` under the storm profile.
const STORM_EXACT_TRUE: &[&[&str]] = &[
    &["sessions", "bit_identical"],
    &["warm", "bit_identical"],
    &["failover", "zero_lost"],
    &["failover", "zero_duplicated"],
];

/// Candidate paths that must be exactly `true` under the serve profile.
const SERVE_EXACT_TRUE: &[&[&str]] = &[&["replay", "bit_identical"], &["deadline", "clean_abort"]];

/// Candidate counts that must be exactly 0 under the serve profile.
const SERVE_EXACT_ZERO: &[&[&str]] = &[
    &["throughput", "errors"],
    &["overload", "errors"],
    &["overload", "worker_panics"],
];

/// Candidate counts that must be exactly 0 under the storm profile.
const STORM_EXACT_ZERO: &[&[&str]] = &[&["sharding", "collisions"]];

/// Storm-profile banded metrics (throughput is host-dependent: loose).
const STORM_METRICS: &[Metric] = &[Metric {
    path: &["sharding", "requests_per_sec"],
    kind: Kind::Rate,
}];

/// Absolute floor on the storm candidate's worst per-shard cache hit
/// ratio. Looser than `storm_report`'s own full-run gate (0.9) because
/// the CI candidate is a smoke run with a mid-storm kill.
const STORM_MIN_HIT_RATIO: f64 = 0.8;

const METRICS: &[Metric] = &[
    Metric {
        path: &["monitors", "full_conv_speedup_vs_naive"],
        kind: Kind::Ratio,
    },
    Metric {
        path: &["monitors", "biquad_speedup_vs_naive"],
        kind: Kind::Ratio,
    },
    Metric {
        path: &["monitors", "family_speedup_vs_naive"],
        kind: Kind::Ratio,
    },
    Metric {
        path: &["monitors", "full_conv_cycles_per_sec"],
        kind: Kind::Rate,
    },
    Metric {
        path: &["monitors", "biquad_cycles_per_sec"],
        kind: Kind::Rate,
    },
    Metric {
        path: &["monitors", "family_cycles_per_sec"],
        kind: Kind::Rate,
    },
    Metric {
        path: &["sim", "serial_cycles_per_sec"],
        kind: Kind::Rate,
    },
    Metric {
        path: &["batch", "best_speedup"],
        kind: Kind::Ratio,
    },
    Metric {
        path: &["batch", "estimate_sweep", "batch_windows_per_sec"],
        kind: Kind::Rate,
    },
];

fn lookup<'a>(root: &'a Json, path: &[&str]) -> Option<&'a Json> {
    let mut node = root;
    for key in path {
        node = node.get(key)?;
    }
    Some(node)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e:?}"))
}

fn usage() -> String {
    "usage: bench_diff <reference.json> <candidate.json> \
     [--ratio-tolerance F] [--rate-tolerance F] [--schema NAME]\n\
     \x20      bench_diff --manifest-fingerprint <a.json> <b.json>"
        .to_string()
}

/// The top-level object keys of one report, for schema-mismatch diffs.
fn sections(j: &Json) -> Vec<String> {
    match j {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    }
}

/// Report which top-level sections each file is missing relative to the
/// other, so a schema bump fails with an actionable diff.
fn section_diff(reference: &Json, candidate: &Json) -> String {
    let rs = sections(reference);
    let cs = sections(candidate);
    let missing: Vec<&str> = rs
        .iter()
        .filter(|k| !cs.contains(k))
        .map(String::as_str)
        .collect();
    let extra: Vec<&str> = cs
        .iter()
        .filter(|k| !rs.contains(k))
        .map(String::as_str)
        .collect();
    format!(
        "sections missing from candidate: [{}]; only in candidate: [{}]",
        missing.join(", "),
        extra.join(", ")
    )
}

/// Compare the non-timing fingerprints of two run manifests.
fn manifest_fingerprint_mode(a_path: &str, b_path: &str) -> Result<bool, String> {
    let parse = |path: &str| -> Result<RunManifest, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        RunManifest::from_json_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
    };
    let a = parse(a_path)?.non_timing_fingerprint();
    let b = parse(b_path)?.non_timing_fingerprint();
    if a == b {
        // FNV-1a digest: enough to quote in a log line without dumping
        // the whole fingerprint document.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in a.bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x1000_0000_01b3);
        }
        println!(
            "ok    non-timing fingerprints identical ({} bytes, fnv1a {h:016x})",
            a.len()
        );
        Ok(true)
    } else {
        // Quote the first differing line of each so the failure is
        // actionable straight from the CI log.
        let differing = a
            .lines()
            .zip(b.lines())
            .find(|(x, y)| x != y)
            .map(|(x, y)| format!("\n  first differing line:\n  {a_path}: {x}\n  {b_path}: {y}"))
            .unwrap_or_default();
        println!("FAIL  non-timing fingerprints differ{differing}");
        Ok(false)
    }
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<&str> = Vec::new();
    let mut ratio_tol = 0.5f64;
    let mut rate_tol = 0.9f64;
    let mut want_schema: Option<String> = None;
    let mut fingerprint_mode = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--ratio-tolerance" | "--rate-tolerance" => {
                let v: f64 = it
                    .next()
                    .ok_or_else(usage)?
                    .parse()
                    .map_err(|e| format!("bad tolerance: {e}"))?;
                if !(0.0..1.0).contains(&v) {
                    return Err("tolerance must be in [0, 1)".to_string());
                }
                if arg == "--ratio-tolerance" {
                    ratio_tol = v;
                } else {
                    rate_tol = v;
                }
            }
            "--schema" => {
                want_schema = Some(it.next().ok_or_else(usage)?.clone());
            }
            "--manifest-fingerprint" => fingerprint_mode = true,
            "--help" | "-h" => return Err(usage()),
            other => files.push(other),
        }
    }
    let [reference_path, candidate_path] = files.as_slice() else {
        return Err(usage());
    };
    if fingerprint_mode {
        return manifest_fingerprint_mode(reference_path, candidate_path);
    }
    let reference = load(reference_path)?;
    let candidate = load(candidate_path)?;

    let mut ok = true;
    let mut fail = |msg: String| {
        println!("FAIL  {msg}");
        ok = false;
    };

    // Structural checks: exact. On mismatch, say which sections differ,
    // not just which label — that is what a schema bump actually means.
    let schema = |j: &Json| j.get("schema").and_then(Json::as_str).map(str::to_string);
    match (schema(&reference), schema(&candidate), &want_schema) {
        (Some(a), Some(b), Some(w)) if a == *w && b == *w => println!("ok    schema: {a}"),
        (Some(a), Some(b), None) if a == b => println!("ok    schema: {a}"),
        (a, b, w) => {
            let expected = match w {
                Some(w) => format!(" (expected --schema {w})"),
                None => String::new(),
            };
            fail(format!(
                "schema mismatch{expected}: reference {a:?}, candidate {b:?}; {}",
                section_diff(&reference, &candidate)
            ));
        }
    }
    let profile = match want_schema
        .as_deref()
        .or_else(|| candidate.get("schema").and_then(Json::as_str))
    {
        Some("didt-bench-v4") => Profile::Storm,
        Some("didt-bench-v5") => Profile::Skew,
        Some("didt-serve-bench-v1") => Profile::Serve,
        _ => Profile::Perf,
    };

    match profile {
        Profile::Perf | Profile::Skew => {
            match lookup(&candidate, &["sweep", "serial_parallel_identical"]) {
                Some(Json::Bool(true)) => println!("ok    sweep.serial_parallel_identical: true"),
                other => fail(format!(
                    "sweep.serial_parallel_identical must be true, got {other:?}"
                )),
            }
            // Candidate-only (the pre-family reference has no `dwt`
            // section): the filter-generic engine must keep Haar within
            // timing noise of the legacy kernel it replaced.
            match lookup(&candidate, &["dwt", "within_noise"]) {
                Some(Json::Bool(true)) => println!("ok    dwt.within_noise: true"),
                other => fail(format!("dwt.within_noise must be true, got {other:?}")),
            }
            // Candidate-only: every batched kernel lane must have
            // stayed bitwise equal to the scalar path (lane 0 is the
            // contract floor; the harness verifies all lanes and
            // reports both flags).
            match lookup(&candidate, &["batch", "lane0_bit_identical"]) {
                Some(Json::Bool(true)) => println!("ok    batch.lane0_bit_identical: true"),
                other => fail(format!(
                    "batch.lane0_bit_identical must be true, got {other:?}"
                )),
            }
        }
        Profile::Storm | Profile::Serve => {
            let (exact_true, exact_zero) = if profile == Profile::Storm {
                (STORM_EXACT_TRUE, STORM_EXACT_ZERO)
            } else {
                (SERVE_EXACT_TRUE, SERVE_EXACT_ZERO)
            };
            for path in exact_true {
                let name = path.join(".");
                match lookup(&candidate, path) {
                    Some(Json::Bool(true)) => println!("ok    {name}: true"),
                    other => fail(format!("{name} must be true, got {other:?}")),
                }
            }
            for path in exact_zero {
                let name = path.join(".");
                match lookup(&candidate, path).and_then(Json::as_f64) {
                    Some(0.0) => println!("ok    {name}: 0"),
                    other => fail(format!("{name} must be 0, got {other:?}")),
                }
            }
        }
    }

    if profile == Profile::Storm {
        match lookup(&candidate, &["sharding", "min_shard_hit_ratio"]).and_then(Json::as_f64) {
            Some(r) if r >= STORM_MIN_HIT_RATIO => {
                println!(
                    "ok    sharding.min_shard_hit_ratio: {r:.4} (floor {STORM_MIN_HIT_RATIO})"
                );
            }
            other => fail(format!(
                "sharding.min_shard_hit_ratio must be >= {STORM_MIN_HIT_RATIO}, got {other:?}"
            )),
        }
    }

    if profile == Profile::Skew {
        // The runner must never change results...
        match lookup(&candidate, &["skew_report", "identical"]) {
            Some(Json::Bool(true)) => println!("ok    skew_report.identical: true"),
            other => fail(format!("skew_report.identical must be true, got {other:?}")),
        }
        // ...and must schedule the sleep shapes close to their
        // makespan lower bound.
        let floor = match candidate.get("smoke") {
            Some(Json::Bool(false)) => SKEW_FULL_EFFICIENCY_FLOOR,
            _ => SKEW_SMOKE_EFFICIENCY_FLOOR,
        };
        for key in ["zipf_efficiency", "uniform_efficiency"] {
            match lookup(&candidate, &["skew_report", key]).and_then(Json::as_f64) {
                Some(e) if e >= floor => {
                    println!("ok    skew_report.{key}: {e:.3} (floor {floor})");
                }
                other => fail(format!(
                    "skew_report.{key} must be >= {floor}, got {other:?}"
                )),
            }
        }
    }

    // Banded metric checks.
    let metrics = match profile {
        Profile::Perf | Profile::Skew => METRICS,
        Profile::Storm => STORM_METRICS,
        Profile::Serve => &[],
    };
    for metric in metrics {
        let name = metric.path.join(".");
        let (want, got) = match (
            lookup(&reference, metric.path).and_then(Json::as_f64),
            lookup(&candidate, metric.path).and_then(Json::as_f64),
        ) {
            (Some(w), Some(g)) => (w, g),
            (w, g) => {
                fail(format!(
                    "{name}: missing (reference {w:?}, candidate {g:?})"
                ));
                continue;
            }
        };
        let tolerance = match metric.kind {
            Kind::Ratio => ratio_tol,
            Kind::Rate => rate_tol,
        };
        let floor = want * (1.0 - tolerance);
        if got >= floor {
            println!("ok    {name}: {got:.3e} vs reference {want:.3e} (floor {floor:.3e})");
        } else {
            fail(format!(
                "{name}: {got:.3e} fell below {floor:.3e} \
                 (reference {want:.3e}, tolerance {tolerance})"
            ));
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => {
            println!("bench_diff: all checks passed");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            println!("bench_diff: regressions detected");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
