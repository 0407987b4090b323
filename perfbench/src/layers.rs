//! Layer probes for traced runs: each times calls into one layer's
//! public functions on the workload's own inputs, inside a span named
//! `perfbench.layer.<layer>`. Probes change no program state the timed
//! phase reads.

use std::hint::black_box;
use std::time::Instant;

use didt_bench::{ControllerSpec, SweepContext, SweepPoint};
use didt_core::characterize::{EmergencyEstimator, GaussianityStudy, VarianceModel};
use didt_core::control::{ClosedLoop, ClosedLoopConfig, NoControl};
use didt_core::monitor::{BiquadMonitor, CycleSense, FullConvolutionMonitor, VoltageMonitor};
use didt_core::DidtSystem;
use didt_dsp::streaming::StreamingHaar;
use didt_dsp::{dwt_boundary, BoundaryMode, WaveletFamily};
use didt_serve::service::GAIN_CALIBRATION_SEED;
use didt_serve::{write_frame, FrameReader, Request, Response, Service};
use didt_telemetry::Json;
use didt_trace::{Record, RecordKind, TraceMeta, TraceReader, TraceWriter};
use didt_uarch::{Benchmark, ControlAction, Processor, WorkloadGenerator};

use crate::stats::median;
use crate::Outcome;

/// Monitor window of every monitor design (the paper's 256 cycles).
pub const WINDOW: usize = 256;

/// The grid's control schemes, in `BENCHMARK.json` order: the four
/// Table 2 schemes, the db4 family monitor and the biquad.
#[must_use]
pub fn grid_schemes() -> [ControllerSpec; 6] {
    [
        ControllerSpec::AnalogThreshold {
            low: 0.97,
            high: 1.03,
            hysteresis: 0.004,
        },
        ControllerSpec::FullConvolution {
            low: 0.97,
            high: 1.03,
            hysteresis: 0.004,
        },
        ControllerSpec::PipelineDamping {
            window: 15,
            max_delta: 6.0,
        },
        ControllerSpec::WaveletThreshold {
            low: 0.975,
            high: 1.025,
            hysteresis: 0.004,
            delay: 1,
        },
        ControllerSpec::WaveletFamilyThreshold {
            low: 0.975,
            high: 1.025,
            hysteresis: 0.004,
            delay: 1,
            family: WaveletFamily::Db4,
            boundary: BoundaryMode::Symmetric,
        },
        ControllerSpec::BiquadRecursive {
            low: 0.97,
            high: 1.03,
            hysteresis: 0.004,
            delay: 0,
        },
    ]
}

/// A calibration key of the characterize analyses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalKey {
    /// Wavelet basis.
    pub family: WaveletFamily,
    /// Boundary mode.
    pub boundary: BoundaryMode,
    /// Analysis window.
    pub window: usize,
}

/// The workload inputs a probe pass runs on.
pub struct LayerInputs<'a> {
    /// The calibrated system.
    pub system: &'a DidtSystem,
    /// PDN impedance, percent of target.
    pub pdn_pct: f64,
    /// `(benchmark, seed, warmup, cycles)` simulated by the uarch probe.
    pub uarch: Vec<(Benchmark, u64, usize, usize)>,
    /// Current traces for the pdn, monitor, dsp and characterize
    /// probes. Empty means "use the uarch probe's output".
    pub traces: Vec<Vec<f64>>,
    /// `(benchmark, records, pre-roll)` for the replay and trace-codec
    /// probes. Empty means "the uarch probe's output as current-only
    /// records".
    pub records: Vec<(Benchmark, Vec<Record>, usize)>,
    /// One-shot requests of the workload (codec and handle probes).
    pub requests: Vec<Request>,
    /// Service the handle probe calls (`None`: a fresh one).
    pub service: Option<Service>,
    /// Calibration keys of the characterize probes.
    pub keys: Vec<CalKey>,
    /// Minimum seconds per probe loop.
    pub min_s: f64,
}

/// Everything the probes measured.
#[derive(Debug, Default)]
pub struct LayerReport {
    /// uarch ns per simulated cycle, per benchmark.
    pub uarch_ns_per_cycle: Vec<(Benchmark, f64)>,
    /// Replay ns per cycle per (benchmark, scheme tag); tag `none` is
    /// the `NoControl` leg.
    pub replay_ns_per_cycle: Vec<(Benchmark, &'static str, f64)>,
    /// Counts behind the rates.
    pub counts: Vec<(&'static str, f64)>,
    /// Codec cost in ns per wire byte (decode, encode).
    pub codec_ns_per_byte: (f64, f64),
    /// Request + response bytes per operation.
    pub wire_bytes_per_op: f64,
}

impl LayerReport {
    /// uarch ns/cycle for `b`.
    #[must_use]
    pub fn uarch_ns(&self, b: Benchmark) -> f64 {
        self.uarch_ns_per_cycle
            .iter()
            .find(|(x, _)| *x == b)
            .map_or(0.0, |&(_, v)| v)
    }

    /// Replay ns/cycle for (`b`, `tag`).
    #[must_use]
    pub fn replay_ns(&self, b: Benchmark, tag: &str) -> f64 {
        self.replay_ns_per_cycle
            .iter()
            .find(|(x, t, _)| *x == b && *t == tag)
            .map_or(0.0, |&(_, _, v)| v)
    }

    /// Counts as a report object.
    #[must_use]
    pub fn counts_json(&self) -> Json {
        Json::obj(
            self.counts
                .iter()
                .map(|&(k, v)| (k, Json::num(v)))
                .collect(),
        )
    }
}

/// Repeat `f` until at least `min_s` seconds have passed (at least
/// once); returns (units summed, seconds).
fn timed(min_s: f64, mut f: impl FnMut() -> f64) -> (f64, f64) {
    let t0 = Instant::now();
    let mut units = 0.0;
    loop {
        units += f();
        let s = t0.elapsed().as_secs_f64();
        if s >= min_s {
            return (units, s);
        }
    }
}

/// Run every probe and put its metric into `out`.
///
/// # Errors
///
/// Calibration or design failures of the probe set-up.
#[allow(clippy::too_many_lines)]
pub fn probe(inputs: &LayerInputs<'_>, out: &mut Outcome) -> Result<LayerReport, String> {
    let mut rep = LayerReport::default();
    let sys = inputs.system;
    let pct = inputs.pdn_pct;
    let pdn = sys.pdn_at(pct).map_err(|e| e.to_string())?;
    let ctx = SweepContext::new(sys.clone());
    let min_s = inputs.min_s;

    // uarch: Processor::step_trace, uncontrolled.
    let mut captured = Vec::new();
    {
        let _span = didt_telemetry::span("perfbench.layer.uarch");
        let (mut cycles, mut secs) = (0.0, 0.0);
        while captured.is_empty() || secs < min_s {
            let first = captured.is_empty();
            for &(bench, seed, warmup, n) in &inputs.uarch {
                let mut trace = Vec::with_capacity(warmup + n);
                let t0 = Instant::now();
                let gen = WorkloadGenerator::new(bench.profile(), seed);
                let mut cpu = Processor::new(*sys.processor(), gen);
                cpu.step_trace((warmup + n) as u64, ControlAction::Normal, &mut trace);
                let s = t0.elapsed().as_secs_f64();
                cycles += (warmup + n) as f64;
                secs += s;
                if first {
                    rep.uarch_ns_per_cycle
                        .push((bench, s * 1e9 / (warmup + n) as f64));
                    captured.push((bench, trace.split_off(warmup), warmup));
                }
            }
        }
        out.put("uarch.mcycles_per_s", cycles / secs.max(1e-12) / 1e6);
        rep.counts.push(("uarch.cycles", cycles));
    }

    let traces: Vec<&[f64]> = if inputs.traces.is_empty() {
        captured.iter().map(|(_, t, _)| t.as_slice()).collect()
    } else {
        inputs.traces.iter().map(Vec::as_slice).collect()
    };
    let samples: f64 = traces.iter().map(|t| t.len() as f64).sum();
    rep.counts.push(("traces", traces.len() as f64));
    rep.counts.push(("trace_samples", samples));

    // pdn: VoltageSimulator::step over the captured currents.
    let mut voltages: Vec<Vec<f64>> = Vec::new();
    {
        let _span = didt_telemetry::span("perfbench.layer.pdn");
        let (steps, secs) = timed(min_s, || {
            voltages.clear();
            for t in &traces {
                let mut sim = pdn.simulator();
                voltages.push(t.iter().map(|&i| sim.step(i)).collect());
            }
            samples
        });
        out.put("pdn.msteps_per_s", steps / secs / 1e6);
    }

    // monitor: VoltageMonitor::observe over the same currents.
    {
        let design = ctx.monitor_design(pct, WINDOW).map_err(|e| e.to_string())?;
        let family = ctx
            .family_monitor_design(pct, WINDOW, WaveletFamily::Db4, BoundaryMode::Symmetric)
            .map_err(|e| e.to_string())?;
        let build = |k: usize| design.build(k, 1).map_err(|e| e.to_string());
        let mut monitors: Vec<(&'static str, Box<dyn VoltageMonitor>)> = vec![
            ("monitor.wavelet.mcycles_per_s", Box::new(build(13)?)),
            (
                "monitor.full_convolution.mcycles_per_s",
                Box::new(FullConvolutionMonitor::paper_default(&pdn)),
            ),
            (
                "monitor.family.mcycles_per_s",
                Box::new(family.build(13, 1).map_err(|e| e.to_string())?),
            ),
            (
                "monitor.biquad.mcycles_per_s",
                Box::new(BiquadMonitor::new(&pdn, 0)),
            ),
            ("monitor.wavelet_k9.mcycles_per_s", Box::new(build(9)?)),
            ("monitor.wavelet_k13.mcycles_per_s", Box::new(build(13)?)),
            ("monitor.wavelet_k20.mcycles_per_s", Box::new(build(20)?)),
        ];
        let _span = didt_telemetry::span("perfbench.layer.monitor");
        for (name, m) in &mut monitors {
            let (cycles, secs) = timed(min_s, || {
                let mut acc = 0.0;
                for (t, v) in traces.iter().zip(&voltages) {
                    for (&current, &voltage) in t.iter().zip(v) {
                        acc += m.observe(CycleSense { current, voltage });
                    }
                }
                black_box(acc);
                samples
            });
            out.put(name, cycles / secs / 1e6);
        }
    }

    // control: ClosedLoop::replay per grid scheme, and with NoControl.
    let records: Vec<(Benchmark, Vec<Record>, usize)> = if inputs.records.is_empty() {
        captured
            .iter()
            .map(|(b, t, _)| (*b, t.iter().map(|&c| Record::current_only(c)).collect(), 0))
            .collect()
    } else {
        inputs.records.clone()
    };
    {
        let _span = didt_telemetry::span("perfbench.layer.control");
        let (mut cycles, mut secs) = (0.0, 0.0);
        for (bench, recs, pre_roll) in &records {
            let harness =
                ClosedLoop::new(*sys.processor(), pdn, ClosedLoopConfig::standard(*bench));
            let n = recs.len() as f64;
            let t0 = Instant::now();
            harness
                .replay(&mut NoControl, recs, *pre_roll)
                .map_err(|e| e.to_string())?;
            rep.replay_ns_per_cycle
                .push((*bench, "none", t0.elapsed().as_secs_f64() * 1e9 / n));
            for scheme in grid_schemes() {
                let point = SweepPoint {
                    benchmark: *bench,
                    pdn_pct: pct,
                    monitor_terms: 13,
                    controller: scheme,
                };
                let mut ctl = ctx.controller(&point).map_err(|e| e.to_string())?;
                let t0 = Instant::now();
                harness
                    .replay(ctl.as_mut(), recs, *pre_roll)
                    .map_err(|e| e.to_string())?;
                let s = t0.elapsed().as_secs_f64();
                rep.replay_ns_per_cycle
                    .push((*bench, scheme.tag(), s * 1e9 / n));
                cycles += n;
                secs += s;
            }
        }
        out.put(
            "control.replay.mcycles_per_s",
            cycles / secs.max(1e-12) / 1e6,
        );
        rep.counts.push(("replay.cycles", cycles));
    }

    // characterize: cold calibration, batched estimate, Gaussianity.
    {
        let _span = didt_telemetry::span("perfbench.layer.characterize");
        let cold = SweepContext::new(sys.clone());
        let mut calib_s = 0.0;
        let mut models = Vec::new();
        for key in &inputs.keys {
            let t0 = Instant::now();
            let gains = cold
                .gain_model_family(pct, key.window, GAIN_CALIBRATION_SEED, key.family)
                .map_err(|e| e.to_string())?;
            calib_s += t0.elapsed().as_secs_f64();
            let model =
                if key.family == WaveletFamily::Haar && key.boundary == BoundaryMode::Periodic {
                    VarianceModel::new((*gains).clone())
                } else {
                    VarianceModel::with_boundary((*gains).clone(), None, key.boundary)
                };
            models.push((key.window, EmergencyEstimator::new(model, 0.95)));
        }
        out.put("characterize.calibration_s", calib_s);
        let (windows, secs) = timed(min_s, || {
            let mut w = 0;
            for (_, est) in &models {
                for t in &traces {
                    w += est.estimate_trace_batch(t).map_or(0, |r| r.1);
                }
            }
            w as f64
        });
        out.put("characterize.estimate.windows_per_s", windows / secs);
        rep.counts.push(("estimate.windows", windows));
        let study = GaussianityStudy::new(0.95, GAIN_CALIBRATION_SEED);
        let (windows, secs) = timed(min_s, || {
            let mut w = 0;
            for (window, _) in &models {
                for t in traces.iter().filter(|t| t.len() >= *window) {
                    w += study.classify(t, *window, 200).map_or(0, |r| r.tested);
                }
            }
            w as f64
        });
        out.put("characterize.gaussianity.windows_per_s", windows / secs);
        rep.counts.push(("gaussianity.windows", windows));
    }

    // dsp: streaming Haar pyramid and the generic transform.
    {
        let _span = didt_telemetry::span("perfbench.layer.dsp");
        let (n, secs) = timed(min_s, || {
            let mut coeffs = 0usize;
            for t in &traces {
                let mut pyramid = StreamingHaar::new(8).expect("8 levels");
                for &x in t.iter() {
                    coeffs += pyramid.push(x).len();
                }
                coeffs += pyramid.finish().0.len();
            }
            black_box(coeffs);
            samples
        });
        out.put("dsp.streaming_haar.msamples_per_s", n / secs / 1e6);
        let (n, secs) = timed(min_s, || {
            for t in &traces {
                black_box(dwt_boundary(t, &WaveletFamily::Db4, 8, BoundaryMode::Symmetric).ok());
            }
            samples
        });
        out.put("dsp.dwt.msamples_per_s", n / secs / 1e6);
    }

    // serve: Service::handle, then the codec on the same requests and
    // the responses it produced.
    {
        let _span = didt_telemetry::span("perfbench.layer.serve");
        let service = inputs
            .service
            .clone()
            .unwrap_or_else(|| Service::new(SweepContext::new(sys.clone())));
        let mut handle_ms = Vec::new();
        let mut responses: Vec<Response> = Vec::new();
        for req in &inputs.requests {
            let t0 = Instant::now();
            let resp = service.handle(req, None);
            handle_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            responses.push(resp);
        }
        out.put("serve.handle_ms_p50", median(&handle_ms));
        rep.counts.push(("handle.requests", handle_ms.len() as f64));

        let mut wire = Vec::new();
        let (bytes, secs) = timed(min_s, || {
            wire.clear();
            for req in &inputs.requests {
                write_frame(&mut wire, &req.to_json()).expect("in-memory write");
            }
            wire.len() as f64
        });
        out.put("serve.codec.encode_mb_per_s", bytes / secs / 1e6);
        let encode_ns_per_byte = secs * 1e9 / bytes.max(1.0);
        let (bytes, secs) = timed(min_s, || {
            let mut reader = FrameReader::new(wire.as_slice());
            for _ in &inputs.requests {
                let json = reader
                    .read_frame(didt_serve::MAX_FRAME_LEN, &mut || false)
                    .expect("own frame");
                black_box(Request::from_json(&json).expect("own request"));
            }
            wire.len() as f64
        });
        out.put("serve.codec.decode_mb_per_s", bytes / secs / 1e6);
        let mut resp_bytes = Vec::new();
        for resp in &responses {
            write_frame(&mut resp_bytes, &resp.to_json()).expect("in-memory write");
        }
        let ops = inputs.requests.len().max(1) as f64;
        out.put(
            "serve.wire_bytes_per_op",
            (wire.len() + resp_bytes.len()) as f64 / ops,
        );
        rep.counts
            .push(("codec.requests", inputs.requests.len() as f64));
        rep.counts.push(("codec.request_bytes", wire.len() as f64));
        rep.counts
            .push(("codec.response_bytes", resp_bytes.len() as f64));
        rep.codec_ns_per_byte = (secs * 1e9 / bytes.max(1.0), encode_ns_per_byte);
        rep.wire_bytes_per_op = (wire.len() + resp_bytes.len()) as f64 / ops;
    }

    // trace: the .dtrc writer and reader over the workload's records.
    {
        let _span = didt_telemetry::span("perfbench.layer.trace");
        let mut files = Vec::new();
        let total: f64 = records.iter().map(|(_, r, _)| r.len() as f64).sum();
        let (n, secs) = timed(min_s, || {
            files.clear();
            for (bench, recs, pre_roll) in &records {
                let kind = if recs.iter().any(|r| r.power != 0.0) {
                    RecordKind::Full
                } else {
                    RecordKind::Current
                };
                let mut meta = TraceMeta::new(kind, bench.name());
                meta.pre_roll = *pre_roll as u64;
                let mut w = TraceWriter::new(Vec::new(), &meta).expect("in-memory writer");
                w.extend_from_slice(recs).expect("in-memory write");
                files.push(w.finish().expect("in-memory finish"));
            }
            total
        });
        out.put("trace.encode_mrecords_per_s", n / secs / 1e6);
        let (n, secs) = timed(min_s, || {
            let mut got = 0usize;
            let mut chunk = Vec::new();
            for f in &files {
                let mut r = TraceReader::new(f.as_slice()).expect("own file");
                while r.next_chunk(&mut chunk).expect("own file") {
                    got += chunk.len();
                }
            }
            got as f64
        });
        out.put("trace.decode_mrecords_per_s", n / secs / 1e6);
        rep.counts.push(("trace.records", total));
        rep.counts
            .push(("trace.bytes", files.iter().map(|f| f.len() as f64).sum()));
    }
    Ok(rep)
}
