//! Load-generation harness for didt-serve (the 20th experiment).
//!
//! Phases:
//!
//! 1. **Replay fidelity** — a serial client replays a fixed set of
//!    `ClosedLoop` specs and every numeric field is compared *bitwise*
//!    against the batch runner's answers for the same specs on a fresh
//!    local [`SweepContext`]. This is acceptance criterion (c): the
//!    service path and the batch path are the same computation.
//! 2. **Throughput + cache** — several client threads drive a
//!    repeated-spec request mix; per-request latency lands in a
//!    telemetry histogram (p50/p95/p99 via `Histogram::quantile`), and
//!    the server's own `Stats` response yields the calibration-cache
//!    hit ratio (criterion (a): > 0.9 on a repeated mix).
//! 3. **Overload** — a deliberately tiny server (1 worker, queue depth
//!    2) is hammered by concurrent clients; overload must show up as
//!    structured `Rejected` responses with zero worker panics and zero
//!    error responses (criterion (b)).
//! 4. **Deadline** — a 1 ms deadline on a long simulation must come
//!    back as a clean `deadline_exceeded` error.
//!
//! Results go to `results/bench/load_report.json` (override with
//! `DIDT_BENCH_OUT`, which is how the committed `BENCH_pr4.json` is
//! refreshed; the schema is documented in EXPERIMENTS.md) plus a normal
//! run manifest.
//! Wall-clock numbers live only in the BENCH file, never in manifest
//! goldens.
//!
//! `--smoke` shrinks every phase for CI; `--addr HOST:PORT` points
//! phases 1–2 at an externally started server (the CI smoke job does
//! this to exercise the `serve` binary end to end) — the overload
//! phase always builds its own in-process server.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use didt_bench::{ControllerSpec, Experiment, RunParams, SweepContext, SweepPoint};
use didt_serve::{
    CharacterizeSpec, Client, ClientError, ClosedLoopSpec, DesignSpec, ErrorCode, RequestBody,
    ServeConfig, Server, Service, TraceSource,
};
use didt_telemetry::{discover_git_sha, write_bench_report, Json, MetricsRegistry};
use didt_uarch::Benchmark;

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

/// The fixed closed-loop spec set used for replay and the repeated mix.
fn replay_specs(smoke: bool) -> Vec<ClosedLoopSpec> {
    let wavelet = ControllerSpec::WaveletThreshold {
        low: 0.975,
        high: 1.025,
        hysteresis: 0.004,
        delay: 1,
    };
    let instructions = if smoke { 2_000 } else { 5_000 };
    let mut specs = Vec::new();
    for (bench, pct) in [("gzip", 150.0), ("swim", 150.0), ("gzip", 125.0)] {
        specs.push(ClosedLoopSpec {
            benchmark: bench.to_string(),
            pdn_pct: pct,
            monitor_terms: 13,
            controller: wavelet,
            instructions,
            warmup_cycles: 1_000,
            replay: None,
        });
    }
    specs.push(ClosedLoopSpec {
        benchmark: "gzip".to_string(),
        pdn_pct: 150.0,
        monitor_terms: 13,
        controller: ControllerSpec::None,
        instructions,
        warmup_cycles: 1_000,
        replay: None,
    });
    specs
}

fn spec_to_point(spec: &ClosedLoopSpec) -> (SweepPoint, RunParams) {
    (
        SweepPoint {
            benchmark: spec
                .benchmark
                .parse::<Benchmark>()
                .expect("known benchmark"),
            pdn_pct: spec.pdn_pct,
            monitor_terms: spec.monitor_terms,
            controller: spec.controller,
        },
        RunParams {
            instructions: spec.instructions,
            warmup_cycles: spec.warmup_cycles,
        },
    )
}

fn leg_bits_match(leg: &Json, want: &didt_core::control::ClosedLoopResult) -> bool {
    let u = |k: &str| leg.get(k).and_then(Json::as_f64).map(|v| v as u64);
    let bits = |k: &str| leg.get(k).and_then(Json::as_f64).map(f64::to_bits);
    u("cycles") == Some(want.cycles)
        && u("instructions") == Some(want.instructions)
        && u("low_emergencies") == Some(want.low_emergencies)
        && u("high_emergencies") == Some(want.high_emergencies)
        && u("stall_cycles") == Some(want.stall_cycles)
        && u("nop_cycles") == Some(want.nop_cycles)
        && u("false_positives") == Some(want.false_positives)
        && bits("v_min") == Some(want.v_min.to_bits())
        && bits("v_max") == Some(want.v_max.to_bits())
        && bits("mean_power") == Some(want.mean_power.to_bits())
}

struct MixCounts {
    ok: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let external_addr = arg_value("--addr");
    let mut exp = Experiment::start("load_report");
    exp.param("smoke", if smoke { 1.0 } else { 0.0 });

    // The main server: external when --addr is given, else in-process.
    let mut own_server: Option<Server> = None;
    let addr = match &external_addr {
        Some(addr) => addr.clone(),
        None => {
            let server = Server::start(ServeConfig::default(), Service::standard()?)?;
            let addr = server.local_addr().to_string();
            own_server = Some(server);
            addr
        }
    };
    println!("load_report driving {addr} (smoke: {smoke})");

    // ------------------------------------------------------------------
    // Phase 1: serial replay fidelity vs the batch runner.
    // ------------------------------------------------------------------
    let t_phase = Instant::now();
    let specs = replay_specs(smoke);
    let local = SweepContext::standard()?;
    let mut client = Client::connect(&addr)?;
    client.ping()?;
    let mut replay_identical = true;
    for spec in &specs {
        let resp = client.closed_loop(spec.clone(), None)?;
        let (point, run) = spec_to_point(spec);
        let want = local.run_point(&point, run)?;
        let ok = resp
            .get("baseline")
            .is_some_and(|leg| leg_bits_match(leg, &want.baseline))
            && resp
                .get("controlled")
                .is_some_and(|leg| leg_bits_match(leg, &want.controlled))
            && resp.get("seed_hex").and_then(Json::as_str)
                == Some(didt_telemetry::seed_to_hex(want.seed).as_str());
        if !ok {
            replay_identical = false;
            eprintln!("replay mismatch on {spec:?}");
        }
    }
    exp.subrun("replay", replay_identical, t_phase.elapsed().as_secs_f64());
    println!(
        "replay: {} specs, bit-identical: {replay_identical}",
        specs.len()
    );

    // ------------------------------------------------------------------
    // Phase 2: repeated-spec mix — throughput, latency, cache hits.
    // ------------------------------------------------------------------
    let t_phase = Instant::now();
    let threads = if smoke { 2 } else { 4 };
    let per_thread = if smoke { 16 } else { 40 };
    let counts = Arc::new(MixCounts {
        ok: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        errors: AtomicU64::new(0),
    });
    let latency = MetricsRegistry::global().histogram("load.latency_ns");
    let specs_mix = Arc::new(specs.clone());
    std::thread::scope(|scope| -> Result<(), Box<dyn std::error::Error>> {
        let mut handles = Vec::new();
        for t in 0..threads {
            let addr = addr.clone();
            let counts = Arc::clone(&counts);
            let latency = Arc::clone(&latency);
            let specs_mix = Arc::clone(&specs_mix);
            handles.push(scope.spawn(move || -> Result<(), String> {
                let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
                for i in 0..per_thread {
                    // Deterministic repeated mix: mostly closed-loop,
                    // with characterize and design sprinkled in. Every
                    // spec repeats across threads and iterations, so
                    // the server's calibration caches must hit.
                    let body = match i % 8 {
                        6 => RequestBody::Characterize(CharacterizeSpec {
                            window: 64,
                            gauss_windows: 20,
                            trace: TraceSource::Synth {
                                benchmark: "gzip".to_string(),
                                seed: 0xD1D7,
                                warmup: 500,
                                cycles: 2_048,
                            },
                            ..CharacterizeSpec::default()
                        }),
                        7 => RequestBody::Design(DesignSpec {
                            pdn_pct: 150.0,
                            window: 256,
                            terms: 13,
                            i_dev: 10.0,
                        }),
                        k => RequestBody::ClosedLoop(specs_mix[(k + t) % specs_mix.len()].clone()),
                    };
                    let t0 = Instant::now();
                    match client.call(body, None) {
                        Ok(resp) => {
                            latency.record_duration(t0.elapsed());
                            use didt_serve::ResponsePayload;
                            match resp.payload {
                                ResponsePayload::Ok { .. } => {
                                    counts.ok.fetch_add(1, Ordering::Relaxed);
                                }
                                ResponsePayload::Rejected { .. } => {
                                    counts.rejected.fetch_add(1, Ordering::Relaxed);
                                }
                                ResponsePayload::Error { .. } => {
                                    counts.errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        Err(e) => return Err(e.to_string()),
                    }
                }
                Ok(())
            }));
        }
        for h in handles {
            h.join().expect("mix thread panicked")?;
        }
        Ok(())
    })?;
    let mix_secs = t_phase.elapsed().as_secs_f64();
    let total = (threads * per_thread) as u64;
    let throughput = total as f64 / mix_secs;
    let stats = client.stats()?;
    let cache_hit_ratio = stats
        .get("cache_hit_ratio")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    exp.subrun("mix", counts.errors.load(Ordering::Relaxed) == 0, mix_secs);
    exp.param("mix_requests", total as f64);
    exp.param("mix_threads", threads as f64);
    exp.param("cache_hit_ratio", cache_hit_ratio);
    println!(
        "mix: {total} requests on {threads} threads: {throughput:.1} req/s, \
         p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms, cache hit ratio {cache_hit_ratio:.4}",
        latency.quantile(0.5) / 1e6,
        latency.quantile(0.95) / 1e6,
        latency.quantile(0.99) / 1e6,
    );

    // ------------------------------------------------------------------
    // Phase 3: overload against a deliberately tiny server.
    // ------------------------------------------------------------------
    let t_phase = Instant::now();
    let tiny = Server::start(
        ServeConfig {
            workers: 1,
            queue_depth: 2,
            ..ServeConfig::default()
        },
        Service::standard()?,
    )?;
    let tiny_addr = tiny.local_addr().to_string();
    let storm_threads = if smoke { 6 } else { 8 };
    let storm_per_thread = if smoke { 4 } else { 10 };
    let storm = Arc::new(MixCounts {
        ok: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        errors: AtomicU64::new(0),
    });
    let storm_spec = ClosedLoopSpec {
        benchmark: "gzip".to_string(),
        pdn_pct: 150.0,
        monitor_terms: 13,
        controller: ControllerSpec::WaveletThreshold {
            low: 0.975,
            high: 1.025,
            hysteresis: 0.004,
            delay: 1,
        },
        instructions: 2_000,
        warmup_cycles: 1_000,
        replay: None,
    };
    std::thread::scope(|scope| {
        for _ in 0..storm_threads {
            let addr = tiny_addr.clone();
            let storm = Arc::clone(&storm);
            let spec = storm_spec.clone();
            scope.spawn(move || {
                let Ok(mut client) = Client::connect(&addr) else {
                    storm.errors.fetch_add(1, Ordering::Relaxed);
                    return;
                };
                for _ in 0..storm_per_thread {
                    match client.call(RequestBody::ClosedLoop(spec.clone()), None) {
                        Ok(resp) => {
                            use didt_serve::ResponsePayload;
                            match resp.payload {
                                ResponsePayload::Ok { .. } => {
                                    storm.ok.fetch_add(1, Ordering::Relaxed);
                                }
                                ResponsePayload::Rejected { .. } => {
                                    storm.rejected.fetch_add(1, Ordering::Relaxed);
                                }
                                ResponsePayload::Error { .. } => {
                                    storm.errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        Err(_) => {
                            storm.errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let report = tiny.shutdown();
    let storm_ok = storm.ok.load(Ordering::Relaxed);
    let storm_rejected = storm.rejected.load(Ordering::Relaxed);
    let storm_errors = storm.errors.load(Ordering::Relaxed);
    let storm_total = (storm_threads * storm_per_thread) as u64;
    exp.subrun(
        "overload",
        storm_errors == 0 && report.worker_panics == 0,
        t_phase.elapsed().as_secs_f64(),
    );
    println!(
        "overload (1 worker, queue 2): {storm_total} requests: {storm_ok} ok, \
         {storm_rejected} rejected, {storm_errors} errors, {} worker panics",
        report.worker_panics
    );

    // ------------------------------------------------------------------
    // Phase 4: a 1 ms deadline on a long simulation aborts cleanly.
    // ------------------------------------------------------------------
    let t_phase = Instant::now();
    let deadline_spec = ClosedLoopSpec {
        benchmark: "swim".to_string(),
        pdn_pct: 150.0,
        monitor_terms: 13,
        controller: ControllerSpec::WaveletThreshold {
            low: 0.975,
            high: 1.025,
            hysteresis: 0.004,
            delay: 1,
        },
        instructions: 2_000_000,
        warmup_cycles: 10_000,
        replay: None,
    };
    let deadline_clean = match client.closed_loop(deadline_spec, Some(1)) {
        Err(ClientError::Server {
            code: ErrorCode::DeadlineExceeded,
            ..
        }) => true,
        other => {
            eprintln!("deadline probe returned {other:?}");
            false
        }
    };
    exp.subrun("deadline", deadline_clean, t_phase.elapsed().as_secs_f64());
    println!("deadline: 1 ms budget on a 2M-instruction run aborted cleanly: {deadline_clean}");

    drop(client);
    let main_report = own_server.map(Server::shutdown);

    // ------------------------------------------------------------------
    // BENCH_pr4.json + manifest + acceptance checks.
    // ------------------------------------------------------------------
    let quant = |q: f64| Json::num(latency.quantile(q));
    let bench = Json::obj(vec![
        ("schema", Json::str("didt-serve-bench-v1")),
        ("name", Json::str("load_report")),
        (
            "git_sha",
            Json::str(discover_git_sha().unwrap_or_else(|| "unknown".to_string())),
        ),
        ("smoke", Json::Bool(smoke)),
        (
            "replay",
            Json::obj(vec![
                ("specs", Json::num(specs.len() as f64)),
                ("bit_identical", Json::Bool(replay_identical)),
            ]),
        ),
        (
            "throughput",
            Json::obj(vec![
                ("requests", Json::num(total as f64)),
                ("threads", Json::num(threads as f64)),
                ("ok", Json::num(counts.ok.load(Ordering::Relaxed) as f64)),
                (
                    "rejected",
                    Json::num(counts.rejected.load(Ordering::Relaxed) as f64),
                ),
                (
                    "errors",
                    Json::num(counts.errors.load(Ordering::Relaxed) as f64),
                ),
                ("wall_secs", Json::num(mix_secs)),
                ("requests_per_sec", Json::num(throughput)),
                (
                    "latency_ns",
                    Json::obj(vec![
                        ("p50", quant(0.5)),
                        ("p95", quant(0.95)),
                        ("p99", quant(0.99)),
                        ("count", Json::num(latency.count() as f64)),
                    ]),
                ),
            ]),
        ),
        (
            "cache",
            Json::obj(vec![
                ("hit_ratio", Json::num(cache_hit_ratio)),
                (
                    "classes",
                    stats.get("cache").cloned().unwrap_or(Json::Arr(Vec::new())),
                ),
            ]),
        ),
        (
            "overload",
            Json::obj(vec![
                ("workers", Json::num(1.0)),
                ("queue_depth", Json::num(2.0)),
                ("requests", Json::num(storm_total as f64)),
                ("ok", Json::num(storm_ok as f64)),
                ("rejected", Json::num(storm_rejected as f64)),
                ("errors", Json::num(storm_errors as f64)),
                ("worker_panics", Json::num(report.worker_panics as f64)),
                (
                    "rejection_rate",
                    Json::num(storm_rejected as f64 / storm_total as f64),
                ),
            ]),
        ),
        (
            "deadline",
            Json::obj(vec![
                ("requested_ms", Json::num(1.0)),
                ("clean_abort", Json::Bool(deadline_clean)),
            ]),
        ),
    ]);
    let out_path = write_bench_report("load_report", &bench)?;
    println!("wrote {}", out_path.display());

    exp.golden("replay_bit_identical", f64::from(replay_identical));
    exp.finish()?;
    if let Some(r) = main_report {
        println!(
            "main server: {} served, {} rejected, {} panics",
            r.served, r.rejected, r.worker_panics
        );
    }

    // Acceptance criteria (ISSUE 4): (a) hit ratio, (b) structured
    // rejections with zero panics/errors, (c) bit-identical replay.
    let mut failures = Vec::new();
    if !replay_identical {
        failures.push("serial replay is not bit-identical to the batch runner".to_string());
    }
    if cache_hit_ratio <= 0.9 {
        failures.push(format!(
            "cache hit ratio {cache_hit_ratio:.4} <= 0.9 on a repeated-spec mix"
        ));
    }
    if storm_rejected == 0 {
        failures.push("overload produced no structured rejections".to_string());
    }
    if storm_errors != 0 || report.worker_panics != 0 {
        failures.push(format!(
            "overload produced {storm_errors} errors / {} panics",
            report.worker_panics
        ));
    }
    if counts.errors.load(Ordering::Relaxed) != 0 {
        failures.push("request mix produced error responses".to_string());
    }
    if !deadline_clean {
        failures.push("deadline did not abort cleanly".to_string());
    }
    if failures.is_empty() {
        println!("load_report: all acceptance checks passed");
        Ok(())
    } else {
        Err(format!("load_report failures: {failures:?}").into())
    }
}
