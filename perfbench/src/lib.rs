//! The didt-wavelets benchmark: three workloads that each run the
//! program end to end from one process, check every answer bit for bit,
//! and report end-to-end metrics (untraced runs) or a per-layer split
//! (traced runs).
//!
//! * `sweep` — a closed-loop grid (every benchmark × six control
//!   schemes) through `SweepContext::run_sweep_timed`.
//! * `characterize_pipelined` — pipelined `Characterize` requests to an
//!   in-process `Server`.
//! * `fleet_mixed` — a seeded request mix through an in-process
//!   `Router` in front of two single-worker `Server`s.
//!
//! `README.md` next to this crate documents every workload and metric;
//! [`catalog`] is the machine-readable form the self-tests hold
//! `BENCHMARK.json` to.

pub mod catalog;
pub mod characterize;
pub mod check;
pub mod fleet;
pub mod host;
pub mod layers;
pub mod report;
pub mod rng;
pub mod stats;
pub mod sweep;
pub mod wire;

use std::path::PathBuf;

/// Input scale of a run: `Full` is what the command measures; `Tiny`
/// shrinks every input so the self-tests finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's stated input sizes.
    Full,
    /// Smallest inputs that still exercise every layer.
    Tiny,
}

/// One invocation of one workload.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload seed (all inputs derive from it).
    pub seed: u64,
    /// Measured seconds of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
    /// Load threads, connections and pool widths derive from this.
    pub nproc: usize,
    /// Output directory for recordings and reports (under the
    /// benchmark's own directory).
    pub out_dir: PathBuf,
}

/// What a workload run hands back for the result line and report.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase(s).
    pub attempted: u64,
    /// Operations that errored, were rejected or answered wrongly.
    pub failed: u64,
    /// `(name, value)` for every metric of the run's kind.
    pub metrics: Vec<(&'static str, f64)>,
    /// Free-form details written to the run report.
    pub details: Vec<(String, didt_telemetry::Json)>,
    /// Per-layer metrics the workload does not exercise, with the reason
    /// (reported as 0).
    pub unavailable: Vec<(&'static str, String)>,
    /// Span rollup and records of a traced run.
    pub spans: Option<didt_telemetry::Json>,
}

impl Outcome {
    /// Record a metric value.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Record a detail for the run report.
    pub fn detail(&mut self, key: &str, value: didt_telemetry::Json) {
        self.details.push((key.to_string(), value));
    }

    /// Declare a per-layer metric this workload does not exercise.
    pub fn unavailable(&mut self, name: &'static str, why: &str) {
        self.metrics.push((name, 0.0));
        self.unavailable.push((name, why.to_string()));
    }
}

/// A seed held out of tuning: later claims are re-checked on it.
pub const HELD_OUT_SEED: u64 = 9_176_411;

/// Run `phase(seconds / 4)` four times, alternating untraced and traced
/// (a span collector installed), so host drift affects both halves
/// alike. Returns the (untraced, traced) results in order.
pub fn alternate<T>(
    seconds: f64,
    collector: &std::sync::Arc<didt_telemetry::MemoryCollector>,
    mut phase: impl FnMut(f64) -> T,
) -> (Vec<T>, Vec<T>) {
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        untraced.push(phase(seconds / 4.0));
        let guard = didt_telemetry::install_collector(collector.clone());
        traced.push(phase(seconds / 4.0));
        drop(guard);
    }
    (untraced, traced)
}

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["sweep", "characterize_pipelined", "fleet_mixed"];

/// Run one workload.
///
/// # Errors
///
/// A description of the first set-up failure (bind, calibration,
/// recording). Wrong answers are not errors: they count in
/// [`Outcome::failed`].
pub fn run_workload(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {}: {e}", opts.out_dir.display()))?;
    let mut out = match name {
        "sweep" => sweep::run(opts),
        "characterize_pipelined" => characterize::run(opts),
        "fleet_mixed" => fleet::run(opts),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {WORKLOADS:?})"
        )),
    }?;
    if opts.trace {
        for m in catalog::PER_LAYER {
            if !m.reported_by.contains(&name) {
                let layer = m.name.split('.').next().unwrap_or(m.name);
                out.unavailable(
                    m.name,
                    &format!("`{name}` does not exercise the {layer} layer"),
                );
            }
        }
    }
    Ok(out)
}
