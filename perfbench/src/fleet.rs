//! `fleet_mixed`: a seeded request mix through an in-process `Router`
//! in front of two single-worker `Server`s (`nproc` compute threads),
//! over `2 × nproc` connections with one request in flight each — the
//! router answers one connection's requests in order. With only `nproc`
//! connections the CPUs idle between hand-offs and throughput swung by
//! ±15 % from run to run with thread placement; twice as many keep the
//! workers busy and hold the swing to a few percent.
//!
//! The mix holds live `ClosedLoop` requests over at least eight
//! benchmark shard keys, `ClosedLoop` replays of `.dtrc` files recorded
//! during set-up, `Characterize` requests with `Recorded` and `Synth`
//! sources over several calibration keys, and streaming sessions (open,
//! chunked pushes, verdict, close). It is the only workload that runs
//! the router hop, consistent-hash placement and `.dtrc` decode, and
//! cheap requests here wait behind millisecond-scale simulations.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use didt_bench::SweepContext;
use didt_dsp::{BoundaryMode, WaveletFamily};
use didt_serve::{
    CharacterizeSpec, Client, ClosedLoopSpec, HashRing, Request, RequestBody, Response, Router,
    RouterConfig, ServeConfig, Server, Service, SessionSpec, TraceSource,
};
use didt_telemetry::{Json, MemoryCollector};
use didt_trace::{Record, RecordKind, TraceMeta};
use didt_uarch::Benchmark;

use crate::check::{response_matches, session_id};
use crate::layers::{self, CalKey, LayerInputs};
use crate::rng::SplitMix64;
use crate::stats::{mean, median};
use crate::wire::{Class, Conn, LoadLog, Rendered, Sample, ServeSnapshot};
use crate::{report, Outcome, RunOpts, Size};

/// Impedance of every request.
pub const PDN_PCT: f64 = 150.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Closed-loop warmup cycles (live and recorded).
const WARMUP: u64 = 1_000;
/// Virtual nodes per worker (the router default).
const REPLICAS: usize = 64;
/// Records per `.dtrc` recording, and its warm-in pre-roll.
const REC_CYCLES: usize = 16_384;
const PRE_ROLL: u64 = 1_024;
/// Mix weights: live closed loop, replay, characterize, session.
const WEIGHTS: [u32; 4] = [4, 2, 3, 1];

/// One unit of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Item {
    /// A one-shot request (index into the one-shot pool).
    One(usize),
    /// A session script (index into the scripts).
    Session(usize),
}

/// The seeded inputs. Paths and samples are filled in at set-up.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Benchmarks of the live `ClosedLoop` requests.
    pub live_benches: Vec<Benchmark>,
    /// Benchmarks recorded to `.dtrc` during set-up.
    pub recorded: Vec<Benchmark>,
    /// One-shot requests (paths are `{rec:N}` placeholders).
    pub one_shot: Vec<(Class, RequestBody)>,
    /// Session scripts: (capture benchmark, capture seed, chunk sizes,
    /// Gaussianity windows).
    pub sessions: Vec<(Benchmark, u64, Vec<usize>, usize)>,
    /// Per-connection item streams are drawn from this seed.
    pub seed: u64,
}

fn placeholder(i: usize) -> String {
    format!("{{rec:{i}}}")
}

/// Client connections (and load threads) for `nproc` CPUs.
#[must_use]
pub fn connections(nproc: usize) -> usize {
    2 * nproc
}

/// Simulated cycles a live `ClosedLoop` request aims for.
const LIVE_CYCLES: f64 = 16_000.0;

/// Instructions that take a benchmark about [`LIVE_CYCLES`] cycles,
/// from the cycles per instruction of `results/perf_report.txt`
/// (mcf runs ~57 per instruction, eon ~3.7). Equal-length simulations
/// keep the latency tail a property of queueing, not of which
/// benchmark sits at the 99th percentile.
#[must_use]
pub fn live_instructions(b: Benchmark) -> u64 {
    use Benchmark::*;
    let cpi = match b {
        Gzip => 4.98,
        Wupwise => 8.17,
        Swim => 21.5,
        Mgrid => 21.4,
        Applu => 18.0,
        Vpr => 7.31,
        Gcc => 19.9,
        Mesa => 4.05,
        Galgel => 17.4,
        Art => 36.1,
        Mcf => 57.0,
        Equake => 14.9,
        Crafty => 4.38,
        Facerec => 14.3,
        Ammp => 21.2,
        Lucas => 21.6,
        Fma3d => 17.3,
        Parser => 9.29,
        Sixtrack => 5.21,
        Eon => 3.65,
        Perlbmk => 6.0,
        Gap => 6.23,
        Vortex => 9.09,
        Bzip2 => 7.51,
        Twolf => 8.21,
        Apsi => 20.3,
    };
    (LIVE_CYCLES / cpi).round() as u64
}

/// Generate the inputs for `seed`. Every request's cost-setting fields
/// (benchmark and scheme of each closed loop, record lengths, keys,
/// Gaussianity budgets, chunk sizes) are fixed, so every seed asks for
/// the same work; the seed picks the recorded benchmarks, the synthetic
/// and session traces, and the mix stream.
#[must_use]
pub fn inputs(seed: u64, size: Size) -> Inputs {
    let mut rng = SplitMix64::new(seed, 20);
    let all = Benchmark::all();
    let (n_live, n_rec, n_replay, n_char, n_sessions, shrink) = match size {
        Size::Full => (26, 4, 8, 12, 3, 1),
        Size::Tiny => (8, 1, 2, 3, 1, 8),
    };
    let live_benches = all[..n_live].to_vec();
    let mut shuffled = all.to_vec();
    rng.shuffle(&mut shuffled);
    let recorded = shuffled[..n_rec].to_vec();
    let schemes: Vec<_> = layers::grid_schemes()
        .iter()
        .copied()
        .cycle()
        .take(n_live + n_replay)
        .collect();
    let closed_loop = |benchmark: Benchmark, controller, replay| ClosedLoopSpec {
        benchmark: benchmark.name().to_string(),
        pdn_pct: PDN_PCT,
        monitor_terms: 13,
        controller,
        instructions: live_instructions(benchmark) / shrink,
        warmup_cycles: WARMUP,
        replay,
    };
    let mut one_shot = Vec::new();
    for (i, &b) in live_benches.iter().enumerate() {
        one_shot.push((
            Class::ClosedLoop,
            RequestBody::ClosedLoop(closed_loop(b, schemes[i], None)),
        ));
    }
    for j in 0..n_replay {
        let r = j % n_rec;
        let spec = closed_loop(recorded[r], schemes[n_live + j], Some(placeholder(r)));
        one_shot.push((Class::ClosedLoop, RequestBody::ClosedLoop(spec)));
    }
    let keys = [
        (WaveletFamily::Haar, BoundaryMode::Periodic, 256),
        (WaveletFamily::Haar, BoundaryMode::Periodic, 128),
        (WaveletFamily::Db4, BoundaryMode::Symmetric, 256),
    ];
    for j in 0..n_char {
        let (family, boundary, window) = keys[j % keys.len()];
        let trace = if j % 2 == 0 {
            TraceSource::Recorded {
                path: placeholder((j / 2) % n_rec),
            }
        } else {
            TraceSource::Synth {
                benchmark: rng.pick(&live_benches).name().to_string(),
                seed: rng.next_u64() >> 32,
                warmup: 1_000,
                cycles: 4_096,
            }
        };
        let spec = CharacterizeSpec {
            trace,
            pdn_pct: PDN_PCT,
            window,
            family,
            boundary,
            gauss_windows: [16, 32, 64][j % 3],
            ..CharacterizeSpec::default()
        };
        one_shot.push((Class::Characterize, RequestBody::Characterize(spec)));
    }
    let sessions = (0..n_sessions)
        .map(|_| {
            (
                *rng.pick(&all),
                rng.next_u64() >> 32,
                vec![1024, 2048, 1024],
                32,
            )
        })
        .collect();
    Inputs {
        live_benches,
        recorded,
        one_shot,
        sessions,
        seed,
    }
}

/// Connection `conn`'s stream of mix items, `n` long.
#[must_use]
pub fn item_stream(inputs: &Inputs, conn: u64, n: usize) -> Vec<Item> {
    let mut rng = SplitMix64::new(inputs.seed, 200 + conn);
    let ones: Vec<Vec<usize>> = (0..3)
        .map(|k| {
            (0..inputs.one_shot.len())
                .filter(|&i| {
                    let body = &inputs.one_shot[i].1;
                    match body {
                        RequestBody::ClosedLoop(s) if s.replay.is_none() => k == 0,
                        RequestBody::ClosedLoop(_) => k == 1,
                        _ => k == 2,
                    }
                })
                .collect()
        })
        .collect();
    (0..n)
        .map(|_| loop {
            let kind = rng.weighted(&WEIGHTS);
            if kind == 3 {
                break Item::Session(rng.below(inputs.sessions.len()));
            }
            if !ones[kind].is_empty() {
                break Item::One(*rng.pick(&ones[kind]));
            }
        })
        .collect()
}

/// A session script with its samples in place.
#[derive(Debug, Clone)]
struct Script {
    spec: SessionSpec,
    chunks: Vec<Vec<f64>>,
}

impl Script {
    /// The script's requests; `session` is the id to address.
    fn requests(&self, session: u64) -> Vec<RequestBody> {
        let mut out = vec![RequestBody::SessionOpen(self.spec.clone())];
        out.extend(self.chunks.iter().map(|c| RequestBody::SessionPush {
            session,
            samples: c.clone(),
        }));
        out.push(RequestBody::SessionVerdict { session });
        out.push(RequestBody::SessionClose { session });
        out
    }
}

/// Everything the load needs: rendered one-shot requests, scripts, and
/// the expected answers.
struct Pool {
    one: Vec<Rendered>,
    class: Vec<Class>,
    scripts: Vec<Script>,
}

struct Stand {
    router: Router,
    workers: Vec<(Server, Service)>,
}

impl Stand {
    fn shutdown(self) {
        let _ = self.router.shutdown();
        for (server, _) in self.workers {
            let _ = server.shutdown();
        }
    }
}

fn body_with_paths(body: &RequestBody, paths: &[PathBuf]) -> RequestBody {
    let fill = |p: &str| -> String {
        let i: usize = p
            .trim_start_matches("{rec:")
            .trim_end_matches('}')
            .parse()
            .expect("placeholder index");
        paths[i].display().to_string()
    };
    match body {
        RequestBody::ClosedLoop(s) => RequestBody::ClosedLoop(ClosedLoopSpec {
            replay: s.replay.as_deref().map(fill),
            ..s.clone()
        }),
        RequestBody::Characterize(c) => RequestBody::Characterize(CharacterizeSpec {
            trace: match &c.trace {
                TraceSource::Recorded { path } => TraceSource::Recorded { path: fill(path) },
                other => other.clone(),
            },
            ..c.clone()
        }),
        other => other.clone(),
    }
}

/// One full set-up: calibrate two workers, start them and the router,
/// record the `.dtrc` files, capture session samples, warm every cache
/// with one pass over the pool through the router.
fn set_up(inputs: &Inputs, opts: &RunOpts, dir: &std::path::Path) -> Result<(Stand, Pool), String> {
    let mut workers = Vec::new();
    for _ in 0..2 {
        let service = Service::new(SweepContext::standard().map_err(|e| e.to_string())?);
        let config = ServeConfig {
            workers: (opts.nproc / 2).max(1),
            queue_depth: 64,
            ..ServeConfig::default()
        };
        let server = Server::start(config, service.clone()).map_err(|e| format!("bind: {e}"))?;
        workers.push((server, service));
    }
    let addrs: Vec<String> = workers
        .iter()
        .map(|(s, _)| s.local_addr().to_string())
        .collect();
    let router = Router::start(RouterConfig::new("127.0.0.1:0", addrs))
        .map_err(|e| format!("router: {e}"))?;
    let stand = Stand { router, workers };

    let sys = stand.workers[0].1.context().system().clone();
    let mut paths = Vec::new();
    for (i, &b) in inputs.recorded.iter().enumerate() {
        let seed = didt_bench::workload_seed(b, PDN_PCT);
        let records =
            didt_bench::capture_records(b, sys.processor(), seed, WARMUP as usize, REC_CYCLES);
        let mut meta = TraceMeta::new(RecordKind::Full, b.name());
        meta.seed = seed;
        meta.discarded_warmup = WARMUP;
        meta.pre_roll = PRE_ROLL;
        let path = dir.join(format!("rec{i}-{}.dtrc", b.name()));
        didt_trace::write_path(&path, &meta, &records).map_err(|e| e.to_string())?;
        paths.push(path);
    }
    let scripts: Vec<Script> = inputs
        .sessions
        .iter()
        .map(|(b, seed, chunks, gauss)| {
            let total: usize = chunks.iter().sum();
            let samples =
                didt_uarch::capture_trace(*b, sys.processor(), *seed, 1_000, total).samples;
            let mut at = 0;
            let chunks = chunks
                .iter()
                .map(|&n| {
                    at += n;
                    samples[at - n..at].to_vec()
                })
                .collect();
            Script {
                spec: SessionSpec {
                    pdn_pct: PDN_PCT,
                    gauss_windows: *gauss,
                    ..SessionSpec::default()
                },
                chunks,
            }
        })
        .collect();
    let one: Vec<Rendered> = inputs
        .one_shot
        .iter()
        .enumerate()
        .map(|(i, (_, body))| {
            Rendered::new(Request {
                id: i as u64 + 1,
                deadline_ms: None,
                body: body_with_paths(body, &paths),
            })
        })
        .collect();
    let pool = Pool {
        one,
        class: inputs.one_shot.iter().map(|(c, _)| *c).collect(),
        scripts,
    };
    let mut conn = Conn::connect(stand.router.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let mut log = LoadLog::default();
    for i in 0..pool.one.len() {
        run_item(
            &mut conn,
            &pool,
            Item::One(i),
            None,
            Instant::now(),
            &mut log,
        );
    }
    for i in 0..pool.scripts.len() {
        run_item(
            &mut conn,
            &pool,
            Item::Session(i),
            None,
            Instant::now(),
            &mut log,
        );
    }
    if log.failed > 0 {
        return Err(format!("warm-up failed: {:?}", log.failures));
    }
    Ok((stand, pool))
}

/// Expected answers: one-shot responses, and per script the responses
/// of open, pushes, verdict and close.
struct Want {
    one: Vec<Response>,
    scripts: Vec<Vec<Response>>,
}

fn oracle(pool: &Pool) -> Result<Want, String> {
    let svc = Service::standard().map_err(|e| e.to_string())?;
    let one = pool
        .one
        .iter()
        .map(|r| svc.handle(r.request(), None))
        .collect();
    let scripts = pool
        .scripts
        .iter()
        .map(|s| {
            let mut out = Vec::new();
            let open = svc.handle(
                &Request {
                    id: 1,
                    deadline_ms: None,
                    body: RequestBody::SessionOpen(s.spec.clone()),
                },
                None,
            );
            let id = session_id(&open).unwrap_or(0);
            out.push(open);
            for body in s.requests(id).into_iter().skip(1) {
                out.push(svc.handle(
                    &Request {
                        id: 1,
                        deadline_ms: None,
                        body,
                    },
                    None,
                ));
            }
            out
        })
        .collect();
    Ok(Want { one, scripts })
}

/// Run one item on `conn`, logging each request; `want` is `None`
/// during warm-up (only errors count then).
fn run_item(
    conn: &mut Conn,
    pool: &Pool,
    item: Item,
    want: Option<&Want>,
    start: Instant,
    log: &mut LoadLog,
) {
    let call = |conn: &mut Conn,
                req: &Rendered,
                class: Class,
                expect: Option<&Response>,
                log: &mut LoadLog|
     -> Option<Response> {
        log.attempted += 1;
        let sent = Instant::now();
        let id = log.attempted;
        if let Err(e) = conn.send(req, id) {
            log.fail(format!("send: {e}"));
            return None;
        }
        match conn.recv() {
            Ok(resp) => {
                let now = Instant::now();
                log.samples.push(Sample {
                    done_s: (now - start).as_secs_f64(),
                    latency_ms: (now - sent).as_secs_f64() * 1e3,
                    class,
                });
                let ok = match expect {
                    Some(w) => response_matches(&resp, w, &["session"]) && resp.id == id,
                    None => matches!(resp.payload, didt_serve::ResponsePayload::Ok { .. }),
                };
                if !ok {
                    log.fail(format!(
                        "{}: wrong or failed answer",
                        req.request().body.kind()
                    ));
                }
                Some(resp)
            }
            Err(e) => {
                log.fail(e);
                None
            }
        }
    };
    match item {
        Item::One(i) => {
            call(
                conn,
                &pool.one[i],
                pool.class[i],
                want.map(|w| &w.one[i]),
                log,
            );
        }
        Item::Session(s) => {
            let script = &pool.scripts[s];
            let expect = |k: usize| want.map(|w| &w.scripts[s][k]);
            let open = Rendered::new(Request {
                id: 0,
                deadline_ms: None,
                body: RequestBody::SessionOpen(script.spec.clone()),
            });
            let Some(resp) = call(conn, &open, Class::Characterize, expect(0), log) else {
                return;
            };
            let Some(id) = session_id(&resp) else {
                return;
            };
            for (k, body) in script.requests(id).into_iter().enumerate().skip(1) {
                let req = Rendered::new(Request {
                    id: 0,
                    deadline_ms: None,
                    body,
                });
                call(conn, &req, Class::Characterize, expect(k), log);
            }
        }
    }
}

/// Drive the router from `2 × nproc` connections for `seconds`.
fn load(
    addr: SocketAddr,
    inputs: &Inputs,
    pool: &Pool,
    want: &Want,
    opts: &RunOpts,
    seconds: f64,
    phase: u64,
) -> LoadLog {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut log = LoadLog::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections(opts.nproc) as u64)
            .map(|c| {
                s.spawn(move || {
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
                    let stream = item_stream(inputs, c + 16 * phase, 1 << 16);
                    for &item in &stream {
                        if Instant::now() >= end {
                            break;
                        }
                        run_item(&mut conn, pool, item, Some(want), start, &mut log);
                    }
                    log.bytes_out = conn.bytes_out;
                    log
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

/// Median of (via router − direct to the owning worker) over the
/// one-shot pool, interleaved, three passes.
fn hop_ms(stand: &Stand, pool: &Pool) -> Result<f64, String> {
    let ring = HashRing::new(stand.workers.len(), REPLICAS);
    let mut via = Conn::connect(stand.router.local_addr()).map_err(|e| e.to_string())?;
    let mut direct: Vec<Conn> = stand
        .workers
        .iter()
        .map(|(s, _)| Conn::connect(s.local_addr()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut diffs = Vec::new();
    let time = |conn: &mut Conn, r: &Rendered| -> Result<f64, String> {
        let t0 = Instant::now();
        conn.send(r, 1).map_err(|e| e.to_string())?;
        conn.recv()?;
        Ok(t0.elapsed().as_secs_f64() * 1e3)
    };
    for _ in 0..3 {
        for r in &pool.one {
            let Some(key) = r.request().shard_key() else {
                continue;
            };
            let w = ring.route(key);
            let a = time(&mut via, r)?;
            let b = time(&mut direct[w], r)?;
            diffs.push(a - b);
        }
    }
    Ok(median(&diffs))
}

fn worker_stats(stand: &Stand) -> Result<Vec<Json>, String> {
    stand
        .workers
        .iter()
        .map(|(s, _)| {
            Client::connect(s.local_addr())
                .map_err(|e| e.to_string())
                .and_then(|mut c| c.stats().map_err(|e| e.to_string()))
        })
        .collect()
}

fn router_counter(stand: &Stand, key: &str) -> Result<f64, String> {
    let stats = Client::connect(stand.router.local_addr())
        .map_err(|e| e.to_string())?
        .stats()
        .map_err(|e| e.to_string())?;
    Ok(stats
        .get("router")
        .and_then(|r| r.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0))
}

/// Run the workload.
///
/// # Errors
///
/// Set-up failures (calibration, bind, recording, warm-up).
#[allow(clippy::too_many_lines)]
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let inputs = inputs(opts.seed, opts.size);
    let dir = opts.out_dir.join(format!("fleet-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let result = run_in(opts, &inputs, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

#[allow(clippy::too_many_lines)]
fn run_in(opts: &RunOpts, inputs: &Inputs, dir: &std::path::Path) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut made: Option<(Stand, Pool)> = None;
    for _ in 0..if opts.trace { 1 } else { SETUPS } {
        if let Some((old, _)) = made.take() {
            old.shutdown();
        }
        let t0 = Instant::now();
        made = Some(set_up(inputs, opts, dir)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (stand, pool) = made.expect("at least one set-up");
    let want = oracle(&pool)?;
    let addr = stand.router.local_addr();
    let round = pool.one.len();
    let mut out = Outcome::default();
    if !opts.trace {
        let log = load(addr, inputs, &pool, &want, opts, opts.seconds, 0);
        out.attempted = log.attempted;
        out.failed = log.failed;
        log.put_e2e(&mut out, &setup_s, round);
        out.detail(
            "closed_loop_p50_ms",
            Json::num(median(&log.latencies(Some(Class::ClosedLoop)))),
        );
        out.detail(
            "characterize_p50_ms",
            Json::num(median(&log.latencies(Some(Class::Characterize)))),
        );
        stand.shutdown();
        return Ok(out);
    }

    let services: Vec<&Service> = stand.workers.iter().map(|(_, s)| s).collect();
    let before = ServeSnapshot::take(&services);
    let rerouted0 = router_counter(&stand, "rerouted")?;
    let rejected0 = router_counter(&stand, "rejected")?;
    let collector = MemoryCollector::new();
    let mut phase = 0;
    let (untraced, traced) = crate::alternate(opts.seconds, &collector, |s| {
        phase += 1;
        load(addr, inputs, &pool, &want, opts, s, phase)
    });
    let (untraced, traced) = (LoadLog::joined(untraced), LoadLog::joined(traced));
    let guard = didt_telemetry::install_collector(collector.clone());
    let delta = ServeSnapshot::take(&services).since(&before);
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
    out.put(
        "closed_loop_p50_ms",
        median(&untraced.latencies(Some(Class::ClosedLoop))),
    );
    out.put(
        "characterize_p50_ms",
        median(&untraced.latencies(Some(Class::Characterize))),
    );
    out.put("runner.memo_hit_ratio", delta.hit_ratio());
    let served: Vec<f64> = delta.services.iter().map(|s| s[2] as f64).collect();
    let total: f64 = served.iter().sum();
    out.put(
        "cluster.max_fill_share",
        served
            .iter()
            .fold(0.0, |m: f64, &s| m.max(s / total.max(1.0))),
    );
    out.put(
        "cluster.min_shard_hit_ratio",
        delta
            .services
            .iter()
            .map(|s| s[3] as f64 / s[4].max(1) as f64)
            .fold(f64::INFINITY, f64::min),
    );
    out.put(
        "cluster.rerouted",
        router_counter(&stand, "rerouted")? - rerouted0,
    );
    out.put(
        "cluster.rejected",
        router_counter(&stand, "rejected")? - rejected0,
    );
    let hop = {
        let _span = didt_telemetry::span("perfbench.layer.cluster");
        hop_ms(&stand, &pool)?
    };
    out.put("cluster.hop_ms_p50", hop);

    // Probes on the fleet's own inputs: live benchmarks at their
    // simulated lengths, the recordings, the one-shot requests.
    let sys = stand.workers[0].1.context().system().clone();
    let mut uarch: Vec<(Benchmark, u64, usize, usize)> = Vec::new();
    for (i, (_, body)) in inputs.one_shot.iter().enumerate() {
        if let RequestBody::ClosedLoop(s) = body {
            let b: Benchmark = s.benchmark.parse().map_err(|_| "benchmark".to_string())?;
            if s.replay.is_none() && !uarch.iter().any(|(x, ..)| *x == b) {
                let cycles = match &want.one[i].payload {
                    didt_serve::ResponsePayload::Ok { result, .. } => result
                        .get("baseline")
                        .and_then(|l| l.get("cycles"))
                        .and_then(Json::as_u64)
                        .unwrap_or(10_000),
                    _ => 10_000,
                };
                uarch.push((
                    b,
                    didt_bench::workload_seed(b, PDN_PCT),
                    WARMUP as usize,
                    cycles as usize,
                ));
            }
        }
    }
    let mut records: Vec<(Benchmark, Vec<Record>, usize)> = Vec::new();
    for (i, &b) in inputs.recorded.iter().enumerate() {
        let path = dir.join(format!("rec{i}-{}.dtrc", b.name()));
        let (meta, recs) = didt_trace::read_path(&path).map_err(|e| e.to_string())?;
        records.push((b, recs, meta.pre_roll as usize));
    }
    let mut traces: Vec<Vec<f64>> = records
        .iter()
        .map(|(_, r, pre)| r[*pre..].iter().map(|x| x.current).collect())
        .collect();
    traces.extend(pool.scripts.iter().map(|s| s.chunks.concat()));
    let lr = layers::probe(
        &LayerInputs {
            system: &sys,
            pdn_pct: PDN_PCT,
            uarch,
            traces,
            records,
            requests: pool.one.iter().map(|r| r.request().clone()).collect(),
            service: Some(Service::standard().map_err(|e| e.to_string())?),
            keys: vec![
                CalKey {
                    family: WaveletFamily::Haar,
                    boundary: BoundaryMode::Periodic,
                    window: 256,
                },
                CalKey {
                    family: WaveletFamily::Haar,
                    boundary: BoundaryMode::Periodic,
                    window: 128,
                },
                CalKey {
                    family: WaveletFamily::Db4,
                    boundary: BoundaryMode::Symmetric,
                    window: 256,
                },
            ],
            min_s: if opts.size == Size::Full { 0.2 } else { 0.01 },
        },
        &mut out,
    )?;
    drop(guard);
    let codec_ms = lr.wire_bytes_per_op * (lr.codec_ns_per_byte.0 + lr.codec_ns_per_byte.1) / 1e6;
    delta.put_serve_metrics(&mut out, mean(&traced.latencies(None)), codec_ms);
    out.detail("worker_stats_after", Json::Arr(worker_stats(&stand)?));
    out.detail("layer_counts", lr.counts_json());
    out.detail("untraced_load", untraced.summary());
    out.detail("traced_load", traced.summary());
    out.spans = Some(report::spans_json(&collector));
    stand.shutdown();
    Ok(out)
}
