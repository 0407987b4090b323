//! Every metric the benchmark reports: name, unit, direction, which
//! workloads exercise it, and which end-to-end figure it should move.
//! The self-tests hold `BENCHMARK.json` to this table.

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Allowed regression as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    /// Workloads that exercise the metric; the others report 0 and say
    /// why in their run report.
    pub reported_by: &'static [&'static str],
    /// What is measured, and how.
    pub meaning: &'static str,
    /// End-to-end figures (and workloads) a change to this layer should
    /// move.
    pub moves: &'static str,
    /// Workload(s) where it should stay flat.
    pub flat_on: &'static str,
}

const ALL: &[&str] = &crate::WORKLOADS;
const SWEEP: &[&str] = &["sweep"];
const SERVE: &[&str] = &["characterize_pipelined", "fleet_mixed"];
const FLEET: &[&str] = &["fleet_mixed"];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    meaning: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        reported_by: ALL,
        meaning,
        moves: "",
        flat_on: "",
    }
}

#[allow(clippy::too_many_arguments)]
const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    reported_by: &'static [&'static str],
    meaning: &'static str,
    moves: &'static str,
    flat_on: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        reported_by,
        meaning,
        moves,
        flat_on,
    }
}

/// End-to-end metrics, reported by every untraced run. The bounds are
/// wide because the reference host (a shared 2-vCPU VM) moves wall time
/// by about ±10 % from one run to the next even for the
/// seed-independent grid; `setup_s` carries the largest.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25,
        "median of several full set-ups: calibration, server/router start, trace capture and recording, cache warm-up; oracle work excluded"),
    e2e("wall_s", "s", "lower", 0.24,
        "median wall time of one round: the whole grid (sweep) or one pool's worth of completed requests (serve workloads)"),
    e2e("ops_per_s", "1/s", "higher", 0.24,
        "grid points (sweep) or correctly answered requests per second"),
    e2e("latency_p50_ms", "ms", "lower", 0.24,
        "median per-point duration (sweep) or client-observed request latency"),
    e2e("latency_p99_ms", "ms", "lower", 0.24,
        "p99 of the same samples; the report states the sample count and how many lie beyond it"),
    e2e("peak_rss_mb", "MiB", "lower", 0.24,
        "process high-water resident set (VmHWM)"),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[Metric] = &[
    layer("runner.busy_frac", "ratio", "higher", SWEEP,
        "sum of point durations from run_sweep_timed / (threads x round wall)",
        "wall_s on sweep", "characterize_pipelined"),
    layer("runner.straggler_ms", "ms", "lower", SWEEP,
        "round wall - sum of point durations / threads",
        "wall_s on sweep", "characterize_pipelined"),
    layer("runner.memo_hit_ratio", "ratio", "higher", ALL,
        "SweepContext cache hits / requests over the traced phase (the grid's fresh contexts, or the servers' contexts)",
        "wall_s on sweep; closed_loop_p50_ms on fleet_mixed", "characterize_pipelined"),
    layer("uarch.mcycles_per_s", "Mcycles/s", "higher", ALL,
        "Processor::step_trace, uncontrolled, over each workload benchmark's cycle count",
        "wall_s on sweep; closed_loop_p50_ms on fleet_mixed", "characterize_pipelined"),
    layer("uarch.share", "ratio", "lower", SWEEP,
        "uarch leg (probe ns/cycle x simulated cycles) / point time",
        "wall_s on sweep", "characterize_pipelined"),
    layer("pdn.msteps_per_s", "Msteps/s", "higher", ALL,
        "VoltageSimulator::step over the captured currents",
        "wall_s on sweep (small)", "characterize_pipelined"),
    layer("monitor.wavelet.mcycles_per_s", "Mcycles/s", "higher", ALL,
        "VoltageMonitor::observe, wavelet monitor at the grid's K = 13, over the captured currents",
        "wall_s on sweep", "characterize_pipelined"),
    layer("monitor.full_convolution.mcycles_per_s", "Mcycles/s", "higher", ALL,
        "VoltageMonitor::observe, 512-tap full-convolution monitor",
        "wall_s on sweep", "characterize_pipelined"),
    layer("monitor.family.mcycles_per_s", "Mcycles/s", "higher", ALL,
        "VoltageMonitor::observe, db4/symmetric family monitor at K = 13",
        "wall_s on sweep", "characterize_pipelined"),
    layer("monitor.biquad.mcycles_per_s", "Mcycles/s", "higher", ALL,
        "VoltageMonitor::observe, recursive biquad monitor",
        "wall_s on sweep", "characterize_pipelined"),
    layer("monitor.wavelet_k9.mcycles_per_s", "Mcycles/s", "higher", ALL,
        "wavelet monitor at K = 9 terms (cost per retained term)",
        "none directly (the grid uses K = 13)", "characterize_pipelined"),
    layer("monitor.wavelet_k13.mcycles_per_s", "Mcycles/s", "higher", ALL,
        "wavelet monitor at K = 13 terms",
        "wall_s on sweep", "characterize_pipelined"),
    layer("monitor.wavelet_k20.mcycles_per_s", "Mcycles/s", "higher", ALL,
        "wavelet monitor at K = 20 terms",
        "none directly (the grid uses K = 13)", "characterize_pipelined"),
    layer("control.analog-sensor.share", "ratio", "lower", SWEEP,
        "(ClosedLoop::replay with the scheme - replay with NoControl) / point time; approximate, since the live loop feeds stalls back",
        "wall_s on sweep", "characterize_pipelined"),
    layer("control.full-convolution.share", "ratio", "lower", SWEEP,
        "as control.analog-sensor.share, full-convolution scheme",
        "wall_s on sweep", "characterize_pipelined"),
    layer("control.pipeline-damping.share", "ratio", "lower", SWEEP,
        "as control.analog-sensor.share, pipeline-damping scheme",
        "wall_s on sweep", "characterize_pipelined"),
    layer("control.wavelet-convolution.share", "ratio", "lower", SWEEP,
        "as control.analog-sensor.share, wavelet-convolution scheme",
        "wall_s on sweep", "characterize_pipelined"),
    layer("control.wavelet-family.share", "ratio", "lower", SWEEP,
        "as control.analog-sensor.share, db4 wavelet-family scheme",
        "wall_s on sweep", "characterize_pipelined"),
    layer("control.biquad-recursive.share", "ratio", "lower", SWEEP,
        "as control.analog-sensor.share, biquad-recursive scheme",
        "wall_s on sweep", "characterize_pipelined"),
    layer("control.replay.mcycles_per_s", "Mcycles/s", "higher", ALL,
        "ClosedLoop::replay over the workload's records, every grid scheme",
        "closed_loop_p50_ms on fleet_mixed", "characterize_pipelined"),
    layer("characterize.estimate.windows_per_s", "windows/s", "higher", ALL,
        "EmergencyEstimator::estimate_trace_batch on the workload's traces",
        "latency_p50_ms on characterize_pipelined", "sweep"),
    layer("characterize.gaussianity.windows_per_s", "windows/s", "higher", ALL,
        "GaussianityStudy::classify on the workload's traces",
        "latency_p50_ms on characterize_pipelined", "sweep"),
    layer("characterize.calibration_s", "s", "lower", ALL,
        "cold SweepContext::gain_model_family fills for the workload's calibration keys",
        "setup_s", "sweep"),
    layer("dsp.streaming_haar.msamples_per_s", "Msamples/s", "higher", ALL,
        "StreamingHaar::push over the workload's traces",
        "latency_p50_ms on characterize_pipelined", "sweep"),
    layer("dsp.dwt.msamples_per_s", "Msamples/s", "higher", ALL,
        "dwt_boundary, db4/symmetric, over the workload's traces",
        "latency_p50_ms on characterize_pipelined", "sweep"),
    layer("serve.codec.encode_mb_per_s", "MB/s", "higher", ALL,
        "Request::to_json + write_frame on the run's own requests",
        "latency_p50_ms on characterize_pipelined", "fleet_mixed (about flat)"),
    layer("serve.codec.decode_mb_per_s", "MB/s", "higher", ALL,
        "FrameReader::read_frame + Request::from_json on the same frames",
        "latency_p50_ms on characterize_pipelined", "fleet_mixed (about flat)"),
    layer("serve.wire_bytes_per_op", "B", "lower", ALL,
        "mean request + response frame bytes per operation (a count)",
        "latency_p50_ms on characterize_pipelined", "fleet_mixed (about flat)"),
    layer("serve.handle_ms_p50", "ms", "lower", ALL,
        "median in-process Service::handle time on the same requests",
        "latency_p50_ms", "-"),
    layer("serve.queue_wait_ms_p50", "ms", "lower", SERVE,
        "serve.queue_wait_ns histogram delta over the traced phase (base-2 buckets, read as an upper bound)",
        "latency_p99_ms and ops_per_s on characterize_pipelined", "sweep"),
    layer("serve.queue_wait_ms_p99", "ms", "lower", SERVE,
        "as serve.queue_wait_ms_p50, p99",
        "latency_p99_ms and ops_per_s on characterize_pipelined", "sweep"),
    layer("serve.batch.mean_fill", "ratio", "higher", SERVE,
        "Stats batch block delta: batched requests / (groups x BATCH_MAX)",
        "ops_per_s on characterize_pipelined", "sweep"),
    layer("serve.unattributed_frac", "ratio", "lower", SERVE,
        "1 - (codec + queue wait + handle) / client latency, all as means",
        "-", "-"),
    layer("cluster.hop_ms_p50", "ms", "lower", FLEET,
        "median of (via router - direct to the owning worker) for the same requests, interleaved",
        "latency_p50_ms on fleet_mixed", "characterize_pipelined"),
    layer("cluster.min_shard_hit_ratio", "ratio", "higher", FLEET,
        "lowest worker cache hit ratio over the traced phase (worker Stats deltas)",
        "closed_loop_p50_ms and latency_p99_ms on fleet_mixed", "characterize_pipelined"),
    layer("cluster.max_fill_share", "ratio", "lower", FLEET,
        "largest share of served requests on one worker (worker Stats deltas)",
        "closed_loop_p50_ms and latency_p99_ms on fleet_mixed", "characterize_pipelined"),
    layer("cluster.rerouted", "count", "lower", FLEET,
        "router Stats rerouted delta",
        "error_frac", "-"),
    layer("cluster.rejected", "count", "lower", FLEET,
        "router Stats rejected delta",
        "error_frac", "-"),
    layer("trace.decode_mrecords_per_s", "Mrecords/s", "higher", ALL,
        "TraceReader over the workload's recordings",
        "closed_loop_p50_ms and characterize_p50_ms on fleet_mixed", "sweep"),
    layer("trace.encode_mrecords_per_s", "Mrecords/s", "higher", ALL,
        "TraceWriter over the same records",
        "setup_s on fleet_mixed", "sweep"),
    layer("telemetry.overhead_frac", "ratio", "lower", ALL,
        "traced / untraced time per operation - 1, both halves of the traced run",
        "-", "-"),
    layer("sweep.unattributed_frac", "ratio", "lower", SWEEP,
        "1 - (uarch + replay legs) / point time",
        "-", "-"),
    layer("closed_loop_p50_ms", "ms", "lower", &["sweep", "fleet_mixed"],
        "median latency of closed-loop operations (grid points; live and replay ClosedLoop requests), untraced half",
        "closed_loop_p50_ms on fleet_mixed", "characterize_pipelined"),
    layer("characterize_p50_ms", "ms", "lower", SERVE,
        "median latency of Characterize and session requests, untraced half",
        "characterize_p50_ms on fleet_mixed", "sweep"),
    layer("error_frac", "ratio", "lower", ALL,
        "share of attempted operations that errored, were rejected or answered wrongly",
        "-", "-"),
];

/// Look a metric up by name in either table.
#[must_use]
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Whether `name` is a valid metric name.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}
