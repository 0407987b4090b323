//! `characterize_pipelined`: `Characterize` requests only, to an
//! in-process `Server` with `workers = nproc`, over `nproc` pipelined
//! connections. Each connection keeps a fixed window of requests in
//! flight, and window × connections exceeds `BATCH_MAX`, so the
//! admission queue never empties and same-key batches form.
//!
//! About ¾ of requests carry `Inline` traces captured from the uarch
//! during set-up (mixed lengths); the rest name `Synth` sources. They
//! spread over four calibration keys. The timed phase runs no uarch or
//! monitor code: the work is the codec, the admission queue, the batch
//! drain, the dsp transforms and the estimator.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use didt_bench::SweepContext;
use didt_dsp::{BoundaryMode, WaveletFamily};
use didt_serve::{
    CharacterizeSpec, Request, RequestBody, Response, ServeConfig, Server, Service, TraceSource,
    BATCH_MAX,
};
use didt_telemetry::MemoryCollector;
use didt_uarch::Benchmark;

use crate::check::response_matches;
use crate::layers::{self, CalKey, LayerInputs};
use crate::rng::SplitMix64;
use crate::stats::{mean, median};
use crate::wire::{Class, Conn, LoadLog, Rendered, Sample, ServeSnapshot};
use crate::{report, Outcome, RunOpts, Size};

/// Impedance of every request.
pub const PDN_PCT: f64 = 100.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Warmup cycles of captured and synthesized traces.
const WARMUP: usize = 1_000;
/// Gaussianity windows per request. The χ² study costs ~0.16 ms per
/// window, so the service default of 200 would make it 70 % of every
/// request; a small seeded budget keeps the codec, batch drain, dsp and
/// estimator layers visible beside it.
const GAUSS_WINDOWS: [usize; 3] = [16, 32, 64];

/// The four calibration keys: haar/periodic at two windows,
/// db4/symmetric and db2/periodic.
#[must_use]
pub fn keys() -> [CalKey; 4] {
    let k = |family, boundary, window| CalKey {
        family,
        boundary,
        window,
    };
    [
        k(WaveletFamily::Haar, BoundaryMode::Periodic, 256),
        k(WaveletFamily::Haar, BoundaryMode::Periodic, 128),
        k(WaveletFamily::Db4, BoundaryMode::Symmetric, 256),
        k(WaveletFamily::Db2, BoundaryMode::Periodic, 256),
    ]
}

/// A trace captured from the uarch during set-up.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// Benchmark simulated.
    pub benchmark: Benchmark,
    /// Workload seed.
    pub seed: u64,
    /// Samples kept (a multiple of 256).
    pub len: usize,
}

/// The seeded inputs: trace specs and the request pool (inline samples
/// are filled in from the captured traces at set-up).
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Traces to capture.
    pub traces: Vec<TraceSpec>,
    /// `(key index, inline trace index or None for Synth, Synth spec,
    /// Gaussianity windows)`.
    pub pool: Vec<(usize, Option<usize>, TraceSource, usize)>,
}

/// Generate the inputs for `seed`. The pool's (key, length, source,
/// Gaussianity budget) tuples are a fixed multiset, so every seed asks
/// for the same work; the seed picks the benchmarks and workload seeds
/// behind every trace and the pool's order.
#[must_use]
pub fn inputs(seed: u64, size: Size) -> Inputs {
    let mut rng = SplitMix64::new(seed, 10);
    let (lens, pool_len): (&[usize], usize) = match size {
        Size::Full => (&[2048, 3072, 4096, 5120, 5120, 6144, 7168, 8192], 64),
        Size::Tiny => (&[1024, 2048], 8),
    };
    let mut all = Benchmark::all().to_vec();
    rng.shuffle(&mut all);
    let traces: Vec<TraceSpec> = lens
        .iter()
        .zip(&all)
        .map(|(&len, &benchmark)| TraceSpec {
            benchmark,
            seed: rng.next_u64() >> 32,
            len,
        })
        .collect();
    let synth: Vec<TraceSource> = [4096, 8192]
        .iter()
        .zip(&all[traces.len()..])
        .map(|(&cycles, b)| TraceSource::Synth {
            benchmark: b.name().to_string(),
            seed: rng.next_u64() >> 32,
            warmup: WARMUP,
            cycles,
        })
        .collect();
    // Slot j: key j % 4; one in four of each key's requests synthetic;
    // inline slots walk the traces so each is used equally often.
    let mut inline_at = 0;
    let mut pool: Vec<_> = (0..pool_len)
        .map(|j| {
            let key = j % 4;
            let gauss = GAUSS_WINDOWS[(j / 4) % GAUSS_WINDOWS.len()];
            if (j / 4) % 4 == 3 {
                (key, None, synth[(j / 16) % synth.len()].clone(), gauss)
            } else {
                inline_at += 1;
                (
                    key,
                    Some(inline_at % traces.len()),
                    TraceSource::Inline(Vec::new()),
                    gauss,
                )
            }
        })
        .collect();
    rng.shuffle(&mut pool);
    Inputs { traces, pool }
}

/// Build the pool's requests around the captured traces.
#[must_use]
pub fn requests(inputs: &Inputs, captured: &[Vec<f64>]) -> Vec<Request> {
    let keys = keys();
    inputs
        .pool
        .iter()
        .enumerate()
        .map(|(i, (k, inline, source, gauss))| {
            let key = keys[*k];
            let trace = match inline {
                Some(t) => TraceSource::Inline(captured[*t].clone()),
                None => source.clone(),
            };
            Request {
                id: i as u64 + 1,
                deadline_ms: None,
                body: RequestBody::Characterize(CharacterizeSpec {
                    trace,
                    pdn_pct: PDN_PCT,
                    window: key.window,
                    family: key.family,
                    boundary: key.boundary,
                    gauss_windows: *gauss,
                    ..CharacterizeSpec::default()
                }),
            }
        })
        .collect()
}

/// Requests each connection keeps in flight.
#[must_use]
pub fn window(conns: usize) -> usize {
    BATCH_MAX / conns + 2
}

struct Stand {
    server: Server,
    service: Service,
    captured: Vec<Vec<f64>>,
}

/// One full set-up: calibrate, start the server, capture the inline
/// traces, warm every cache with one pass over the pool.
fn set_up(inputs: &Inputs, opts: &RunOpts) -> Result<(Stand, Vec<Rendered>), String> {
    let ctx = SweepContext::standard().map_err(|e| e.to_string())?;
    let service = Service::new(ctx);
    let config = ServeConfig {
        workers: opts.nproc,
        queue_depth: 64,
        ..ServeConfig::default()
    };
    let server = Server::start(config, service.clone()).map_err(|e| format!("bind: {e}"))?;
    let cfg = *service.context().system().processor();
    let captured: Vec<Vec<f64>> = inputs
        .traces
        .iter()
        .map(|t| didt_uarch::capture_trace(t.benchmark, &cfg, t.seed, WARMUP, t.len).samples)
        .collect();
    let pool: Vec<Rendered> = requests(inputs, &captured)
        .into_iter()
        .map(Rendered::new)
        .collect();
    let mut conn = Conn::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    for (i, r) in pool.iter().enumerate() {
        conn.send(r, i as u64)
            .map_err(|e| format!("warm-up send: {e}"))?;
        conn.recv().map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok((
        Stand {
            server,
            service,
            captured,
        },
        pool,
    ))
}

/// One pipelined connection: keep `window` requests in flight until
/// `end`, then drain.
#[allow(clippy::too_many_arguments)]
fn drive(
    addr: SocketAddr,
    pool: &[Rendered],
    want: &[Response],
    seed: u64,
    conn_index: u64,
    window: usize,
    start: Instant,
    end: Instant,
) -> LoadLog {
    let _span = didt_telemetry::span("perfbench.client.connection");
    let mut log = LoadLog::default();
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.attempted += 1;
            log.fail(format!("connect: {e}"));
            return log;
        }
    };
    let mut rng = SplitMix64::new(seed, 100 + conn_index);
    let mut in_flight: HashMap<u64, (usize, Instant)> = HashMap::new();
    let mut next_id = (conn_index << 40) + 1;
    let mut send =
        |conn: &mut Conn, in_flight: &mut HashMap<u64, (usize, Instant)>, log: &mut LoadLog| {
            let i = rng.below(pool.len());
            let id = next_id;
            next_id += 1;
            log.attempted += 1;
            in_flight.insert(id, (i, Instant::now()));
            if let Err(e) = conn.send(&pool[i], id) {
                log.fail(format!("send: {e}"));
                return false;
            }
            true
        };
    for _ in 0..window {
        if !send(&mut conn, &mut in_flight, &mut log) {
            return log;
        }
    }
    while !in_flight.is_empty() {
        let resp = match conn.recv() {
            Ok(r) => r,
            Err(e) => {
                for _ in 0..in_flight.len() {
                    log.fail(e.clone());
                }
                break;
            }
        };
        let now = Instant::now();
        let Some((i, sent)) = in_flight.remove(&resp.id) else {
            log.fail(format!("response for unknown id {}", resp.id));
            continue;
        };
        log.samples.push(Sample {
            done_s: (now - start).as_secs_f64(),
            latency_ms: (now - sent).as_secs_f64() * 1e3,
            class: Class::Characterize,
        });
        if !response_matches(&resp, &want[i], &[]) {
            log.fail(format!("request {i}: wrong or failed answer"));
        }
        if now < end && !send(&mut conn, &mut in_flight, &mut log) {
            break;
        }
    }
    log.bytes_out = conn.bytes_out;
    log
}

/// Drive the server from `nproc` connections for `seconds`.
fn load(
    stand: &Stand,
    pool: &[Rendered],
    want: &[Response],
    opts: &RunOpts,
    seconds: f64,
    phase: u64,
) -> LoadLog {
    let addr = stand.server.local_addr();
    let conns = opts.nproc;
    let win = window(conns);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut log = LoadLog::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns as u64)
            .map(|c| {
                s.spawn(move || {
                    drive(
                        addr,
                        pool,
                        want,
                        opts.seed ^ (phase << 32),
                        c,
                        win,
                        start,
                        end,
                    )
                })
            })
            .collect();
        for h in handles {
            log.merge(h.join().expect("load thread"));
        }
    });
    log.elapsed_s = start.elapsed().as_secs_f64();
    log
}

/// Run the workload.
///
/// # Errors
///
/// Set-up failures (calibration, bind, warm-up transport).
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let inputs = inputs(opts.seed, opts.size);
    let mut setup_s = Vec::new();
    let mut stand = None;
    for _ in 0..if opts.trace { 1 } else { SETUPS } {
        if let Some((old, _)) = stand.take() {
            let old: Stand = old;
            let _ = old.server.shutdown();
        }
        let t0 = Instant::now();
        let made = set_up(&inputs, opts)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        stand = Some(made);
    }
    let (stand, pool) = stand.expect("at least one set-up");

    // Expected answers from an independent in-process service.
    let oracle = Service::standard().map_err(|e| e.to_string())?;
    let want: Vec<Response> = pool
        .iter()
        .map(|r| oracle.handle(r.request(), None))
        .collect();

    let mut out = Outcome::default();
    let round = pool.len();
    if !opts.trace {
        let log = load(&stand, &pool, &want, opts, opts.seconds, 0);
        out.attempted = log.attempted;
        out.failed = log.failed;
        log.put_e2e(&mut out, &setup_s, round);
        let _ = stand.server.shutdown();
        return Ok(out);
    }

    let before = ServeSnapshot::take(&[&stand.service]);
    let collector = MemoryCollector::new();
    let mut phase = 0;
    let (untraced, traced) = crate::alternate(opts.seconds, &collector, |s| {
        phase += 1;
        load(&stand, &pool, &want, opts, s, phase)
    });
    let (untraced, traced) = (LoadLog::joined(untraced), LoadLog::joined(traced));
    let guard = didt_telemetry::install_collector(collector.clone());
    let delta = ServeSnapshot::take(&[&stand.service]).since(&before);
    out.attempted = untraced.attempted + traced.attempted;
    out.failed = untraced.failed + traced.failed;
    out.put(
        "error_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.put(
        "telemetry.overhead_frac",
        untraced.ops_per_s() / traced.ops_per_s() - 1.0,
    );
    out.put("characterize_p50_ms", median(&untraced.latencies(None)));
    out.put("runner.memo_hit_ratio", delta.hit_ratio());

    let lr = layers::probe(
        &LayerInputs {
            system: stand.service.context().system(),
            pdn_pct: PDN_PCT,
            uarch: inputs
                .traces
                .iter()
                .map(|t| (t.benchmark, t.seed, WARMUP, t.len))
                .collect(),
            traces: stand.captured.clone(),
            records: Vec::new(),
            requests: pool.iter().map(|r| r.request().clone()).collect(),
            service: Some(oracle),
            keys: keys().to_vec(),
            min_s: if opts.size == Size::Full { 0.2 } else { 0.01 },
        },
        &mut out,
    )?;
    drop(guard);
    let codec_ms = lr.wire_bytes_per_op * (lr.codec_ns_per_byte.0 + lr.codec_ns_per_byte.1) / 1e6;
    delta.put_serve_metrics(&mut out, mean(&traced.latencies(None)), codec_ms);
    out.detail("layer_counts", lr.counts_json());
    out.detail("untraced_load", untraced.summary());
    out.detail("traced_load", traced.summary());
    out.spans = Some(report::spans_json(&collector));
    let _ = stand.server.shutdown();
    Ok(out)
}
