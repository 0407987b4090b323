//! `sweep`: the closed-loop grid — every benchmark × the six control
//! schemes at one impedance — through `SweepContext::run_sweep_timed`
//! on `ExperimentRunner::with_threads(nproc)`.
//!
//! Each round builds a fresh context, so the shared uncontrolled
//! baselines and monitor designs fill inside the timed round, as every
//! user of a sweep binary pays them. The seed only orders the grid: the
//! answers are seed-independent and are checked against committed
//! goldens (full size) or a serial `run_point` oracle (tiny size).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use didt_bench::{ExperimentRunner, PointResult, RunParams, SweepContext, SweepPoint};
use didt_core::DidtSystem;
use didt_serve::{ClosedLoopSpec, Request, RequestBody};
use didt_telemetry::{Json, MemoryCollector};
use didt_uarch::Benchmark;

use crate::check::fnv1a;
use crate::layers::{self, CalKey, LayerInputs};
use crate::rng::SplitMix64;
use crate::stats::{count_above, median, quantile};
use crate::{host, report, Outcome, RunOpts, Size};

/// Impedance of every grid point (tab02's stressed network).
pub const PDN_PCT: f64 = 150.0;
/// Wavelet monitor term budget of the grid.
pub const TERMS: usize = 13;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// Run parameters of every point.
#[must_use]
pub fn run_params(size: Size) -> RunParams {
    match size {
        Size::Full => RunParams {
            instructions: 4_000,
            warmup_cycles: 2_000,
        },
        Size::Tiny => RunParams {
            instructions: 600,
            warmup_cycles: 500,
        },
    }
}

/// The grid in the seed's order.
#[must_use]
pub fn grid(seed: u64, size: Size) -> Vec<SweepPoint> {
    let benches = match size {
        Size::Full => Benchmark::all().to_vec(),
        Size::Tiny => vec![Benchmark::Gzip, Benchmark::Mcf, Benchmark::Eon],
    };
    let mut points = Vec::new();
    for &benchmark in &benches {
        for controller in layers::grid_schemes() {
            points.push(SweepPoint {
                benchmark,
                pdn_pct: PDN_PCT,
                monitor_terms: TERMS,
                controller,
            });
        }
    }
    SplitMix64::new(seed, 1).shuffle(&mut points);
    points
}

/// Golden key of a point.
fn key(p: &SweepPoint) -> String {
    format!("{}/{}", p.benchmark.name(), p.controller.tag())
}

/// Bit-exact fingerprint of a point's answer: `Debug` prints every f64
/// as its shortest round-trip text, so equal text means equal bits.
#[must_use]
pub fn fingerprint(r: &PointResult) -> String {
    format!(
        "{:016x}",
        fnv1a(&format!("{:?}|{:?}|{}", r.baseline, r.controlled, r.seed))
    )
}

const GOLDENS: &str = include_str!("../goldens/sweep.json");

/// Expected fingerprints: committed goldens at full size, a serial
/// `run_point` oracle at tiny size.
fn expected(
    system: &DidtSystem,
    points: &[SweepPoint],
    size: Size,
) -> Result<HashMap<String, String>, String> {
    match size {
        Size::Full => {
            let json = Json::parse(GOLDENS).map_err(|e| format!("goldens: {e}"))?;
            let obj = json.get("points").ok_or("goldens: no `points`")?;
            let Json::Obj(pairs) = obj else {
                return Err("goldens: `points` is not an object".into());
            };
            Ok(pairs
                .iter()
                .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_string())))
                .collect())
        }
        Size::Tiny => oracle(system, points, size),
    }
}

/// Serial `run_point` answers on a fresh context.
///
/// # Errors
///
/// Propagates point failures.
pub fn oracle(
    system: &DidtSystem,
    points: &[SweepPoint],
    size: Size,
) -> Result<HashMap<String, String>, String> {
    let ctx = SweepContext::new(system.clone());
    points
        .iter()
        .map(|p| {
            ctx.run_point(p, run_params(size))
                .map(|r| (key(p), fingerprint(&r)))
                .map_err(|e| format!("oracle {}: {e}", key(p)))
        })
        .collect()
}

/// The goldens file for the full grid (`--write-goldens`).
///
/// # Errors
///
/// Propagates calibration and point failures.
pub fn goldens_json() -> Result<Json, String> {
    let system = DidtSystem::standard().map_err(|e| e.to_string())?;
    let points = grid(0, Size::Full);
    let mut fp: Vec<(String, String)> = oracle(&system, &points, Size::Full)?.into_iter().collect();
    fp.sort();
    let run = run_params(Size::Full);
    Ok(Json::obj(vec![
        (
            "about",
            Json::str(format!(
                "fnv1a of Debug(baseline)|Debug(controlled)|seed per point, from serial SweepContext::run_point; \
                 {} instructions, {} warmup cycles, {PDN_PCT}% impedance, K = {TERMS}",
                run.instructions, run.warmup_cycles
            )),
        ),
        (
            "points",
            Json::Obj(fp.into_iter().map(|(k, v)| (k, Json::str(v))).collect()),
        ),
    ]))
}

/// One timed round.
struct Round {
    wall: f64,
    durations_ms: Vec<f64>,
    results: Vec<PointResult>,
    hits: u64,
    requests: u64,
    wrong: u64,
}

fn round(
    system: &DidtSystem,
    runner: &ExperimentRunner,
    points: &[SweepPoint],
    run: RunParams,
    want: &HashMap<String, String>,
) -> Round {
    let _span = didt_telemetry::span("perfbench.sweep.round");
    let t0 = Instant::now();
    let ctx: Arc<SweepContext> = SweepContext::new(system.clone());
    let (results, durations) = ctx.run_sweep_timed(runner, points, run);
    let wall = t0.elapsed().as_secs_f64();
    let activity = ctx.cache_activity();
    let wrong = results
        .iter()
        .filter(|r| want.get(&key(&r.point)) != Some(&fingerprint(r)))
        .count() as u64;
    Round {
        wall,
        durations_ms: durations.iter().map(|d| d.as_secs_f64() * 1e3).collect(),
        results,
        hits: activity
            .iter()
            .map(didt_telemetry::CacheClassRecord::hits)
            .sum(),
        requests: activity.iter().map(|c| c.requests).sum(),
        wrong,
    }
}

fn rounds_for(seconds: f64, min_rounds: usize, f: &mut dyn FnMut() -> Round) -> Vec<Round> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_rounds || t0.elapsed() < Duration::from_secs_f64(seconds) {
        out.push(f());
    }
    out
}

/// Run the workload.
///
/// # Errors
///
/// Calibration and goldens failures.
#[allow(clippy::too_many_lines)]
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let run = run_params(opts.size);
    let points = grid(opts.seed, opts.size);
    let mut setup_s = Vec::new();
    let mut system = None;
    let setups = if opts.trace { 1 } else { SETUPS };
    for _ in 0..setups {
        let t0 = Instant::now();
        let sys = DidtSystem::standard().map_err(|e| e.to_string())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        system = Some(sys);
    }
    let system = system.expect("at least one set-up");
    let runner = ExperimentRunner::with_threads(opts.nproc);
    let want = expected(&system, &points, opts.size)?;
    let mut out = Outcome::default();
    let mut go = || round(&system, &runner, &points, run, &want);

    if !opts.trace {
        let rounds = rounds_for(opts.seconds, 2, &mut go);
        let walls: Vec<f64> = rounds.iter().map(|r| r.wall).collect();
        let durs: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.durations_ms.iter().copied())
            .collect();
        let rates: Vec<f64> = rounds
            .iter()
            .map(|r| points.len() as f64 / r.wall)
            .collect();
        out.attempted = (rounds.len() * points.len()) as u64;
        out.failed = rounds.iter().map(|r| r.wrong).sum();
        out.put("setup_s", median(&setup_s));
        out.put("wall_s", median(&walls));
        out.put("ops_per_s", median(&rates));
        out.put("latency_p50_ms", median(&durs));
        out.put("latency_p99_ms", quantile(&durs, 0.99));
        out.put("peak_rss_mb", host::peak_rss_mb());
        out.detail("rounds", Json::num(rounds.len() as f64));
        out.detail("points_per_round", Json::num(points.len() as f64));
        out.detail("latency_samples", Json::num(durs.len() as f64));
        out.detail(
            "samples_beyond_p99",
            Json::num(count_above(&durs, 0.99) as f64),
        );
        out.detail(
            "round_walls_s",
            Json::Arr(walls.iter().map(|&w| Json::num(w)).collect()),
        );
        out.detail(
            "setup_s_samples",
            Json::Arr(setup_s.iter().map(|&w| Json::num(w)).collect()),
        );
        return Ok(out);
    }

    // Traced run: untraced and traced quarters, alternating.
    let collector = MemoryCollector::new();
    let (untraced, traced) =
        crate::alternate(opts.seconds, &collector, |s| rounds_for(s, 1, &mut go));
    let (untraced, traced): (Vec<Round>, Vec<Round>) = (
        untraced.into_iter().flatten().collect(),
        traced.into_iter().flatten().collect(),
    );
    let guard = didt_telemetry::install_collector(collector.clone());
    let walls = |rs: &[Round]| median(&rs.iter().map(|r| r.wall).collect::<Vec<_>>());
    out.put(
        "telemetry.overhead_frac",
        walls(&traced) / walls(&untraced) - 1.0,
    );
    let untraced_durs: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.durations_ms.iter().copied())
        .collect();
    out.put("closed_loop_p50_ms", median(&untraced_durs));
    let threads = runner.threads() as f64;
    let busy: Vec<f64> = traced
        .iter()
        .map(|r| r.durations_ms.iter().sum::<f64>() / 1e3 / (threads * r.wall))
        .collect();
    let straggler: Vec<f64> = traced
        .iter()
        .map(|r| (r.wall - r.durations_ms.iter().sum::<f64>() / 1e3 / threads) * 1e3)
        .collect();
    out.put("runner.busy_frac", median(&busy));
    out.put("runner.straggler_ms", median(&straggler));
    let (hits, reqs) = traced
        .iter()
        .fold((0, 0), |(h, q), r| (h + r.hits, q + r.requests));
    out.put("runner.memo_hit_ratio", hits as f64 / reqs.max(1) as f64);
    let all = || untraced.iter().chain(&traced);
    out.attempted = (all().count() * points.len()) as u64;
    out.failed = all().map(|r| r.wrong).sum();
    out.put(
        "error_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );

    // Probes on the grid's own benchmarks at their simulated lengths.
    let last = traced.last().expect("at least one traced round");
    let mut cells: Vec<(Benchmark, u64)> = Vec::new();
    for r in &last.results {
        if !cells.iter().any(|(b, _)| *b == r.point.benchmark) {
            cells.push((r.point.benchmark, r.baseline.cycles));
        }
    }
    let warmup = run.warmup_cycles as usize;
    let mut sample = SplitMix64::new(opts.seed, 2);
    let requests: Vec<Request> = (0..if opts.size == Size::Full { 12 } else { 3 })
        .map(|i| {
            let p = sample.pick(&points);
            Request {
                id: i + 1,
                deadline_ms: None,
                body: RequestBody::ClosedLoop(ClosedLoopSpec {
                    benchmark: p.benchmark.name().to_string(),
                    pdn_pct: p.pdn_pct,
                    monitor_terms: p.monitor_terms,
                    controller: p.controller,
                    instructions: run.instructions,
                    warmup_cycles: run.warmup_cycles,
                    replay: None,
                }),
            }
        })
        .collect();
    let inputs = LayerInputs {
        system: &system,
        pdn_pct: PDN_PCT,
        uarch: cells
            .iter()
            .map(|&(b, cycles)| {
                (
                    b,
                    didt_bench::workload_seed(b, PDN_PCT),
                    warmup,
                    cycles as usize,
                )
            })
            .collect(),
        traces: Vec::new(),
        records: Vec::new(),
        requests,
        service: None,
        keys: vec![CalKey {
            family: didt_dsp::WaveletFamily::Haar,
            boundary: didt_dsp::BoundaryMode::Periodic,
            window: layers::WINDOW,
        }],
        min_s: if opts.size == Size::Full { 0.2 } else { 0.01 },
    };
    let lr = layers::probe(&inputs, &mut out)?;
    drop(guard);

    // Attribute the last traced round's point time to the legs.
    let point_ns: f64 = last.durations_ms.iter().sum::<f64>() * 1e6;
    let mut uarch_ns = 0.0;
    let mut replay_ns = 0.0;
    let mut seen = Vec::new();
    let mut scheme_extra: HashMap<&str, (f64, f64)> = HashMap::new();
    for (r, d) in last.results.iter().zip(&last.durations_ms) {
        let b = r.point.benchmark;
        let tag = r.point.controller.tag();
        let c = r.controlled.cycles as f64;
        uarch_ns += lr.uarch_ns(b) * (c + warmup as f64);
        replay_ns += lr.replay_ns(b, tag) * c;
        let e = scheme_extra.entry(tag).or_default();
        e.0 += (lr.replay_ns(b, tag) - lr.replay_ns(b, "none")) * c;
        e.1 += d * 1e6;
        if !seen.contains(&b) {
            seen.push(b);
            let bc = r.baseline.cycles as f64;
            uarch_ns += lr.uarch_ns(b) * (bc + warmup as f64);
            replay_ns += lr.replay_ns(b, "none") * bc;
        }
    }
    out.put("uarch.share", uarch_ns / point_ns);
    out.put(
        "sweep.unattributed_frac",
        1.0 - (uarch_ns + replay_ns) / point_ns,
    );
    for scheme in layers::grid_schemes() {
        let name = catalog_name(scheme.tag());
        let (extra, time) = scheme_extra
            .get(scheme.tag())
            .copied()
            .unwrap_or((0.0, 1.0));
        out.put(name, extra / time);
    }
    out.detail("layer_counts", lr.counts_json());
    out.detail(
        "rounds",
        Json::obj(vec![
            ("untraced", Json::num(untraced.len() as f64)),
            ("traced", Json::num(traced.len() as f64)),
        ]),
    );
    out.spans = Some(report::spans_json(&collector));
    Ok(out)
}

/// `control.<tag>.share` for a grid scheme tag.
fn catalog_name(tag: &str) -> &'static str {
    match tag {
        "analog-sensor" => "control.analog-sensor.share",
        "full-convolution" => "control.full-convolution.share",
        "pipeline-damping" => "control.pipeline-damping.share",
        "wavelet-convolution" => "control.wavelet-convolution.share",
        "wavelet-family" => "control.wavelet-family.share",
        _ => "control.biquad-recursive.share",
    }
}
