//! `perf_report`: the repo's performance-regression harness.
//!
//! Times per-cycle monitor throughput (naive lag walk vs the
//! block-evaluated full-convolution and db4 family FIRs vs the biquad
//! recurrence), the DWT engine (filter-generic `dwt_boundary_into`
//! against the legacy Haar kernel — the generic path must stay within
//! timing noise), the cycle simulator itself (per-benchmark
//! `ClosedLoop::run` throughput, serial and 16-thread), a whole
//! closed-loop sweep (serial and parallel, checking the results stay
//! bit-identical), the batch execution layer (each lockstep 4-lane
//! kernel against a scalar loop over the same four traces, with
//! all-lane bit-identity verified), and the scheduler skew benchmark
//! (the experiment runner's claim cursor on uniform, Zipf-skewed and
//! mixed live+replay shapes — DESIGN.md §16), then writes a
//! machine-readable report to `results/bench/perf_report.json`
//! (override the path with `DIDT_BENCH_OUT`; refreshing the committed
//! `BENCH_pr10.json` reference takes an explicit
//! `DIDT_BENCH_OUT=BENCH_pr10.json`). CI runs `perf_report --smoke` on
//! every push and diffs the smoke report against the committed
//! reference with `bench_diff`; the gated metrics are the monitors'
//! speedups over the naive lag walk, the simulator's cycles/s, the
//! batched-kernel speedups, and the sleep skew shapes' schedule
//! efficiency against the makespan lower bound. The detected CPU
//! feature set rides along in both the JSON and the manifest so
//! cross-host numbers are interpretable.
//!
//! Like every experiment binary it also emits a run manifest — but all
//! wall-clock figures live only in the BENCH JSON, never in manifest
//! params or goldens, so manifest fingerprints stay timing-free.

use std::time::Instant;

use didt_bench::{
    ControllerSpec, CostClass, Experiment, ExperimentRunner, PointResult, RunParams, SchedReport,
    Sweep, SweepContext, SweepPoint, TextTable,
};
use didt_core::characterize::{EmergencyEstimator, VarianceModel};
use didt_core::control::{ClosedLoop, ClosedLoopConfig, NoControl};
use didt_core::monitor::{
    BiquadMonitor, CycleSense, FullConvolutionMonitor, HistoryRing, VoltageMonitor,
};
use didt_dsp::wavelet::Haar;
use didt_dsp::{
    cpu_features, dwt_boundary_into, dwt_into, dwt_into_batch, lag1_correlation_batch, mean_batch,
    variance_batch, BatchDecomposition, BatchDwtScratch, BoundaryMode, DwtScratch, TraceBatch,
    WaveletDecomposition, WaveletFamily, DEFAULT_LANES,
};
use didt_stats::{lag_correlation, mean, variance};
use didt_telemetry::{discover_git_sha, write_bench_report, Json};
use didt_uarch::Benchmark;

/// Serial `ClosedLoop::run` throughput of the PR 4 simulator on the
/// standard config, in cycles/s — measured with this same harness on the
/// reference machine immediately before the PR 5 fast-path rewrite. The
/// sim section reports its speedup against this pin.
const PR4_SIM_BASELINE_CYCLES_PER_SEC: f64 = 2.302e6;

/// Serial `ClosedLoop::run` throughput of the PR 5 full-run report
/// (its `sim.serial_cycles_per_sec`; README trajectory row 5), in
/// cycles/s — the event-driven kernel of PR 5 on the reference
/// machine. The sim section reports its speedup against this pin
/// alongside the PR 4 one.
const PR5_SIM_BASELINE_CYCLES_PER_SEC: f64 = 8.069e6;

/// Worker threads for the parallel leg of the sim-throughput grid.
const SIM_GRID_THREADS: usize = 16;

/// Speedup the batched kernels must show over a scalar loop on at
/// least one grid row.
const BATCH_TARGET: f64 = 3.0;

/// Fixed worker count for the scheduler skew benchmark. Oversubscribed
/// on small hosts by design: the synthetic shapes sleep, so eight
/// workers overlap on one core and the wall clock measures the
/// *schedule* (who holds which points), not raw compute.
const SKEW_WORKERS: usize = 8;

/// Floor on the sleep shapes' schedule efficiency (makespan lower
/// bound over measured wall time) on a full run; `bench_diff` holds a
/// smoke run to a looser floor.
const SKEW_EFFICIENCY_FLOOR: f64 = 0.8;

/// One shape of the scheduler skew benchmark: a point set timed on the
/// runner against its serial reference.
struct SkewRow {
    shape: &'static str,
    points: usize,
    /// Best-of-N wall time on `SKEW_WORKERS` workers.
    ms: f64,
    /// Makespan lower bound `max(max cost, Σcost / workers)` for the
    /// sleep shapes, whose costs are known; `None` for real compute.
    lower_bound_ms: Option<f64>,
    /// Results bit-identical to the serial run.
    identical: bool,
    /// The best run's scheduler observations.
    report: SchedReport,
    /// p50/p95/p99 over the best run's per-point execution times.
    latency_ns: (u64, u64, u64),
}

impl SkewRow {
    /// Lower bound over measured wall time: 1.0 is a perfect schedule.
    fn efficiency(&self) -> Option<f64> {
        self.lower_bound_ms.map(|lb| lb / self.ms)
    }
}

/// Identity cost hint for the synthetic sleep shapes.
fn sleep_cost(c: &u64) -> u64 {
    *c
}

/// Exact quantiles over a small sample of per-point durations.
fn latency_quantiles(mut ns: Vec<u64>) -> (u64, u64, u64) {
    if ns.is_empty() {
        return (0, 0, 0);
    }
    ns.sort_unstable();
    let pick = |q: f64| ns[((ns.len() - 1) as f64 * q).round() as usize];
    (pick(0.50), pick(0.95), pick(0.99))
}

/// One benchmark's simulator-throughput measurement.
struct SimRow {
    name: &'static str,
    cycles: u64,
    serial_ms: f64,
}

/// One batched-kernel grid row: the lockstep 4-lane kernel against a
/// scalar loop over the same four traces.
struct BatchRow {
    kernel: &'static str,
    /// What one unit of `work` is (for the throughput column).
    unit: &'static str,
    /// Units processed per timed pass (per lane-group of 4).
    work: f64,
    scalar_ms: f64,
    batch_ms: f64,
    /// Every lane bitwise equal to the scalar kernel on that lane.
    bit_identical: bool,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut exp = Experiment::start("perf_report");

    // ------------------------------------------------------------------
    // 1. Monitor throughput: cycles/s of the closed-loop droop paths.
    // ------------------------------------------------------------------
    let ctx = SweepContext::standard()?;
    let pdn = ctx.pdn(150.0)?;
    let taps = 512;
    let cycles: usize = if smoke { 100_000 } else { 400_000 };
    let impulse = pdn.impulse_response(taps);
    let current = |c: usize| 30.0 + 25.0 * ((c as f64) * 0.21).sin();
    // The pre-PR-3 FIR: a per-tap ring.lag walk, one estimate per cycle.
    let lag_walk_ms = |kernel: &[f64]| {
        let mut ring = HistoryRing::new(kernel.len());
        best_ms(1, || {
            let mut acc = 0.0;
            for c in 0..cycles {
                ring.push(current(c));
                let mut droop = 0.0;
                for (m, &hm) in kernel.iter().enumerate() {
                    droop += hm * ring.lag(m);
                }
                acc += pdn.vdd() - droop;
            }
            acc
        })
    };
    let monitor_ms = |mon: &mut dyn VoltageMonitor| {
        best_ms(1, || {
            let mut acc = 0.0;
            for c in 0..cycles {
                acc += mon.observe(CycleSense {
                    current: current(c),
                    voltage: 1.0,
                });
            }
            acc
        })
    };
    let naive_ms = lag_walk_ms(&impulse);
    let full_ms = monitor_ms(&mut FullConvolutionMonitor::new(&pdn, taps, 3));
    let biquad_ms = monitor_ms(&mut BiquadMonitor::new(&pdn, 3));
    // The sweep's family scheme: db4/symmetric over a 256-cycle window,
    // 13 retained terms, delay 1.
    let family_design =
        ctx.family_monitor_design(150.0, 256, WaveletFamily::Db4, BoundaryMode::Symmetric)?;
    let family_terms = 13;
    let family_kernel = family_design.kernel(family_terms)?;
    let naive_family_ms = lag_walk_ms(&family_kernel);
    let family_ms = monitor_ms(&mut family_design.build(family_terms, 1)?);
    let rate = |ms: f64| cycles as f64 / (ms / 1e3);
    let mut mt = TextTable::new(&["droop path", "taps", "cycles/s", "vs naive"]);
    for (name, taps_str, ms, base_ms) in [
        ("naive lag-walk FIR", taps.to_string(), naive_ms, naive_ms),
        (
            "block FIR (full-conv, delay 3)",
            taps.to_string(),
            full_ms,
            naive_ms,
        ),
        ("biquad recurrence", "5".to_string(), biquad_ms, naive_ms),
        (
            "naive lag-walk FIR (family kernel)",
            family_kernel.len().to_string(),
            naive_family_ms,
            naive_family_ms,
        ),
        (
            "block FIR (db4 family, K = 13, delay 1)",
            family_kernel.len().to_string(),
            family_ms,
            naive_family_ms,
        ),
    ] {
        mt.row_owned(vec![
            name.to_string(),
            taps_str,
            format!("{:.2e}", rate(ms)),
            format!("{:.1}x", base_ms / ms),
        ]);
    }
    println!("{}", mt.render());

    // ------------------------------------------------------------------
    // 2. DWT engine: the filter-generic periodic path against the
    //    legacy Haar kernel on the monitor-window hot shape. The two
    //    share `dwt_core`'s periodic arm, so the generic engine must
    //    stay within timing noise of the pre-family throughput.
    // ------------------------------------------------------------------
    let dwt_window = 256usize;
    let dwt_levels = 8usize;
    let dwt_reps: usize = if smoke { 4_000 } else { 40_000 };
    let window: Vec<f64> = (0..dwt_window)
        .map(|i| 30.0 + 25.0 * ((i as f64) * 0.21).sin())
        .collect();
    let mut scratch = DwtScratch::new();
    let mut decomp = WaveletDecomposition::empty();
    let legacy_dwt_ms = best_ms(3, || {
        let mut acc = 0.0;
        for _ in 0..dwt_reps {
            dwt_into(&window, &Haar, dwt_levels, &mut scratch, &mut decomp).expect("legacy dwt");
            acc += decomp.approximation()[0];
        }
        acc
    });
    let generic_dwt_ms = best_ms(3, || {
        let mut acc = 0.0;
        for _ in 0..dwt_reps {
            dwt_boundary_into(
                &window,
                &WaveletFamily::Haar,
                dwt_levels,
                BoundaryMode::Periodic,
                &mut scratch,
                &mut decomp,
            )
            .expect("generic dwt");
            acc += decomp.approximation()[0];
        }
        acc
    });
    // Informational: a mid-ladder family through the expansive path.
    let db3_dwt_ms = best_ms(3, || {
        let mut acc = 0.0;
        for _ in 0..dwt_reps {
            dwt_boundary_into(
                &window,
                &WaveletFamily::Db3,
                dwt_levels,
                BoundaryMode::Symmetric,
                &mut scratch,
                &mut decomp,
            )
            .expect("db3 dwt");
            acc += decomp.approximation()[0];
        }
        acc
    });
    let dwt_rate = |ms: f64| (dwt_reps * dwt_window) as f64 / (ms / 1e3);
    let dwt_ratio = generic_dwt_ms / legacy_dwt_ms;
    let dwt_within_noise = dwt_ratio <= 1.25;
    let mut dt = TextTable::new(&["transform path", "samples/s", "vs legacy haar"]);
    for (name, ms) in [
        ("legacy dwt_into (haar)", legacy_dwt_ms),
        ("generic dwt_boundary_into (haar/periodic)", generic_dwt_ms),
        ("generic dwt_boundary_into (db3/symmetric)", db3_dwt_ms),
    ] {
        dt.row_owned(vec![
            name.to_string(),
            format!("{:.2e}", dwt_rate(ms)),
            format!("{:.2}x", ms / legacy_dwt_ms),
        ]);
    }
    println!("{}", dt.render());
    println!(
        "dwt engine: generic haar/periodic at {:.2}x legacy time (within noise: {dwt_within_noise})\n",
        dwt_ratio
    );

    // ------------------------------------------------------------------
    // 3. Simulator throughput: per-benchmark `ClosedLoop::run` cycles/s,
    //    serial and on a 16-thread pool. The serial aggregate against
    //    the pinned PR 4 baseline is this PR's headline.
    // ------------------------------------------------------------------
    let sim_benchmarks: Vec<Benchmark> = if smoke {
        vec![
            Benchmark::Gzip,
            Benchmark::Gcc,
            Benchmark::Swim,
            Benchmark::Mcf,
        ]
    } else {
        Benchmark::all().to_vec()
    };
    let sim_cfg = |b: Benchmark| {
        if smoke {
            ClosedLoopConfig {
                warmup_cycles: 5_000,
                instructions: 20_000,
                ..ClosedLoopConfig::standard(b)
            }
        } else {
            ClosedLoopConfig::standard(b)
        }
    };
    let sim_pdn = ctx.pdn(150.0)?;
    let processor = *ctx.system().processor();
    let mut sim_rows: Vec<SimRow> = Vec::new();
    let mut st = TextTable::new(&["benchmark", "cycles", "serial ms", "cycles/s"]);
    for &b in &sim_benchmarks {
        let harness = ClosedLoop::new(processor, *sim_pdn, sim_cfg(b));
        let cfg = *harness.config();
        let mut cycles = 0u64;
        let serial_ms = best_ms(2, || {
            let r = harness.run(&mut NoControl).expect("baseline closed loop");
            cycles = cfg.warmup_cycles + r.cycles;
            r
        });
        st.row_owned(vec![
            b.name().to_string(),
            cycles.to_string(),
            format!("{serial_ms:.1}"),
            format!("{:.2e}", cycles as f64 / (serial_ms / 1e3)),
        ]);
        sim_rows.push(SimRow {
            name: b.name(),
            cycles,
            serial_ms,
        });
    }
    println!("{}", st.render());
    let sim_total_cycles: u64 = sim_rows.iter().map(|r| r.cycles).sum();
    let sim_serial_ms: f64 = sim_rows.iter().map(|r| r.serial_ms).sum();
    let sim_serial_rate = sim_total_cycles as f64 / (sim_serial_ms / 1e3);

    // Parallel leg: the same closed loops fanned across a fixed pool.
    // Short benchmark lists are replicated so all workers stay busy.
    let par_reps = (2 * SIM_GRID_THREADS).div_ceil(sim_benchmarks.len()).max(1);
    let jobs: Vec<Benchmark> = sim_benchmarks.repeat(par_reps);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let par_cycles = std::sync::atomic::AtomicU64::new(0);
    let tpar = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..SIM_GRID_THREADS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(&b) = jobs.get(i) else { break };
                let harness = ClosedLoop::new(processor, *sim_pdn, sim_cfg(b));
                let r = harness.run(&mut NoControl).expect("baseline closed loop");
                par_cycles.fetch_add(
                    harness.config().warmup_cycles + r.cycles,
                    std::sync::atomic::Ordering::Relaxed,
                );
            });
        }
    });
    let sim_parallel_ms = tpar.elapsed().as_secs_f64() * 1e3;
    let sim_parallel_rate =
        par_cycles.load(std::sync::atomic::Ordering::Relaxed) as f64 / (sim_parallel_ms / 1e3);
    let sim_speedup = sim_serial_rate / PR4_SIM_BASELINE_CYCLES_PER_SEC;
    println!(
        "sim throughput: serial {sim_serial_rate:.2e} cycles/s, \
         {SIM_GRID_THREADS}-thread {sim_parallel_rate:.2e} cycles/s, \
         {sim_speedup:.2}x vs PR 4 baseline ({PR4_SIM_BASELINE_CYCLES_PER_SEC:.2e})\n"
    );

    // ------------------------------------------------------------------
    // 4. Whole-sweep wall clock, serial vs parallel, results compared.
    // ------------------------------------------------------------------
    let run = if smoke {
        RunParams {
            instructions: 3_000,
            warmup_cycles: 1_000,
        }
    } else {
        RunParams {
            instructions: 20_000,
            warmup_cycles: 5_000,
        }
    };
    let sweep = Sweep::new()
        .benchmarks(&[Benchmark::Gzip, Benchmark::Swim])
        .pdn_pcts(&[150.0])
        .monitor_terms(&[13])
        .controllers(&[
            ControllerSpec::FullConvolution {
                low: 0.97,
                high: 1.03,
                hysteresis: 0.004,
            },
            ControllerSpec::WaveletThreshold {
                low: 0.975,
                high: 1.025,
                hysteresis: 0.004,
                delay: 1,
            },
            ControllerSpec::BiquadRecursive {
                low: 0.97,
                high: 1.03,
                hysteresis: 0.004,
                delay: 0,
            },
        ]);
    let points = sweep.points();
    exp.grid(&sweep);
    exp.run_params(run);

    let serial_runner = ExperimentRunner::serial();
    let t0 = Instant::now();
    let (serial_results, serial_times) =
        SweepContext::standard()?.run_sweep_timed(&serial_runner, &points, run);
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;

    let par_runner = ExperimentRunner::from_env();
    let t1 = Instant::now();
    let (par_results, _) = SweepContext::standard()?.run_sweep_timed(&par_runner, &points, run);
    let parallel_ms = t1.elapsed().as_secs_f64() * 1e3;
    let identical = serial_results == par_results;
    println!(
        "sweep ({} points): serial {:.0} ms, parallel {:.0} ms on {} threads, bit-identical: {}",
        points.len(),
        serial_ms,
        parallel_ms,
        par_runner.threads(),
        identical
    );
    exp.runner(&par_runner, false);
    exp.points(&serial_results, &serial_times);
    exp.cache(&ctx);
    // Deterministic facts only — wall clocks stay out of the manifest.
    exp.golden("sim_benchmarks", sim_rows.len() as f64);
    exp.golden("sweep_points", points.len() as f64);
    exp.golden("serial_parallel_identical", f64::from(u8::from(identical)));

    // ------------------------------------------------------------------
    // 5. Batch kernels: each lockstep 4-lane kernel against a scalar
    //    loop over the same four traces. Speedups come from SIMD lanes;
    //    every row also verifies that *all* lanes are bitwise equal to
    //    the scalar kernel.
    // ------------------------------------------------------------------
    const LANES: usize = DEFAULT_LANES;
    let features = cpu_features();
    println!("batch kernels: {LANES} lanes, cpu features: {features}");
    let mut batch_rows: Vec<BatchRow> = Vec::new();
    let lane_traces = |n: usize| -> Vec<Vec<f64>> {
        (0..LANES)
            .map(|l| {
                (0..n)
                    .map(|i| 30.0 + 25.0 * ((i as f64) * 0.21 + l as f64 * 0.7).sin())
                    .collect()
            })
            .collect()
    };

    // 5a. Periodic Haar pyramid on the monitor-window hot shape.
    {
        let traces = lane_traces(dwt_window);
        let refs: Vec<&[f64]> = traces.iter().map(Vec::as_slice).collect();
        let tb = TraceBatch::<LANES>::from_traces(&refs).expect("dwt batch");
        let reps = dwt_reps / LANES;
        let mut bscratch = BatchDwtScratch::<LANES>::new();
        let mut bdecomp = BatchDecomposition::<LANES>::empty();
        let scalar_ms = best_ms(3, || {
            let mut acc = 0.0;
            for _ in 0..reps {
                for x in &refs {
                    dwt_boundary_into(
                        x,
                        &WaveletFamily::Haar,
                        dwt_levels,
                        BoundaryMode::Periodic,
                        &mut scratch,
                        &mut decomp,
                    )
                    .expect("scalar dwt");
                    acc += decomp.approximation()[0];
                }
            }
            acc
        });
        let batch_ms = best_ms(3, || {
            let mut acc = 0.0;
            for _ in 0..reps {
                dwt_into_batch(
                    &tb,
                    &WaveletFamily::Haar,
                    dwt_levels,
                    &mut bscratch,
                    &mut bdecomp,
                )
                .expect("batch dwt");
                acc += bdecomp.approximation()[0][0];
            }
            acc
        });
        dwt_into_batch(
            &tb,
            &WaveletFamily::Haar,
            dwt_levels,
            &mut bscratch,
            &mut bdecomp,
        )
        .expect("batch dwt");
        let bit_identical = refs.iter().enumerate().all(|(l, x)| {
            dwt_boundary_into(
                x,
                &WaveletFamily::Haar,
                dwt_levels,
                BoundaryMode::Periodic,
                &mut scratch,
                &mut decomp,
            )
            .expect("scalar dwt");
            (1..=bdecomp.levels()).all(|level| {
                let want = decomp.detail(level).expect("level");
                bdecomp
                    .detail_lane(level, l)
                    .expect("level")
                    .iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            })
        });
        batch_rows.push(BatchRow {
            kernel: "dwt_haar_256x8",
            unit: "windows",
            work: (reps * LANES) as f64,
            scalar_ms,
            batch_ms,
            bit_identical,
        });
    }

    // 5b. Window moment pass (mean / variance / lag-1 correlation).
    {
        let traces = lane_traces(dwt_window);
        let refs: Vec<&[f64]> = traces.iter().map(Vec::as_slice).collect();
        let tb = TraceBatch::<LANES>::from_traces(&refs).expect("stats batch");
        let reps = dwt_reps / LANES;
        let scalar_ms = best_ms(3, || {
            let mut acc = 0.0;
            for _ in 0..reps {
                for x in &refs {
                    acc += mean(x) + variance(x) + lag_correlation(x).unwrap_or(0.0);
                }
            }
            acc
        });
        let batch_ms = best_ms(3, || {
            let mut acc = 0.0;
            for _ in 0..reps {
                let m = mean_batch(tb.columns());
                let v = variance_batch(tb.columns());
                let r = lag1_correlation_batch(tb.columns());
                for l in 0..LANES {
                    acc += m[l] + v[l] + r[l];
                }
            }
            acc
        });
        let m = mean_batch(tb.columns());
        let v = variance_batch(tb.columns());
        let r = lag1_correlation_batch(tb.columns());
        let bit_identical = refs.iter().enumerate().all(|(l, x)| {
            m[l].to_bits() == mean(x).to_bits()
                && v[l].to_bits() == variance(x).to_bits()
                && r[l].to_bits() == lag_correlation(x).unwrap_or(0.0).to_bits()
        });
        batch_rows.push(BatchRow {
            kernel: "window_stats_256",
            unit: "windows",
            work: (reps * LANES) as f64,
            scalar_ms,
            batch_ms,
            bit_identical,
        });
    }

    // 5c. The characterization sweep itself: `estimate_trace` (the PR 5
    //     scalar tiling) against `estimate_trace_batch` over a long
    //     trace — the sweep-throughput row the serve and bench hot
    //     paths actually run.
    let (est_windows, est_scalar_rate, est_batch_rate, est_speedup) = {
        let est_windows: usize = if smoke { 64 } else { 512 };
        let trace: Vec<f64> = (0..est_windows * 256)
            .map(|i| 30.0 + 25.0 * ((i as f64) * 0.21).sin() + ((i / 256) % 7) as f64)
            .collect();
        let gains = ctx.gain_model(150.0, 256, 11)?;
        let estimator = EmergencyEstimator::new(VarianceModel::new((*gains).clone()), 0.97);
        let scalar_ms = best_ms(3, || estimator.estimate_trace(&trace).expect("estimate"));
        let batch_ms = best_ms(3, || {
            estimator.estimate_trace_batch(&trace).expect("estimate")
        });
        let want = estimator.estimate_trace(&trace)?;
        let got = estimator.estimate_trace_batch(&trace)?;
        let bit_identical = want.0.to_bits() == got.0.to_bits()
            && want.1 == got.1
            && want.2.to_bits() == got.2.to_bits();
        batch_rows.push(BatchRow {
            kernel: "estimate_sweep",
            unit: "windows",
            work: est_windows as f64,
            scalar_ms,
            batch_ms,
            bit_identical,
        });
        let rate = |ms: f64| est_windows as f64 / (ms / 1e3);
        (
            est_windows,
            rate(scalar_ms),
            rate(batch_ms),
            scalar_ms / batch_ms,
        )
    };

    let mut bt = TextTable::new(&[
        "batched kernel",
        "unit/s",
        "scalar ms",
        "batch ms",
        "speedup",
        "all lanes ≡",
    ]);
    for r in &batch_rows {
        bt.row_owned(vec![
            r.kernel.to_string(),
            format!("{:.2e} {}", r.work / (r.batch_ms / 1e3), r.unit),
            format!("{:.3}", r.scalar_ms),
            format!("{:.3}", r.batch_ms),
            format!("{:.2}x", r.scalar_ms / r.batch_ms),
            r.bit_identical.to_string(),
        ]);
    }
    println!("{}", bt.render());
    let batch_bit_identical = batch_rows.iter().all(|r| r.bit_identical);
    let batch_best_speedup = batch_rows
        .iter()
        .map(|r| r.scalar_ms / r.batch_ms)
        .fold(0.0f64, f64::max);
    println!(
        "batch: best kernel speedup {batch_best_speedup:.2}x (target {BATCH_TARGET}x), \
         estimate sweep {est_speedup:.2}x ({est_scalar_rate:.2e} -> {est_batch_rate:.2e} windows/s), \
         all-lane bit-identical: {batch_bit_identical}\n"
    );

    // ------------------------------------------------------------------
    // 6. Scheduler skew benchmark: the runner's claim cursor on three
    //    shapes (DESIGN.md §16). The synthetic shapes sleep for their
    //    hinted cost, so the wall clock isolates scheduling and can be
    //    held against the makespan lower bound; the mixed shape re-runs
    //    real live + replay points and checks bit-identity only.
    // ------------------------------------------------------------------
    let mut skew_rows: Vec<SkewRow> = Vec::new();
    let mut skew_total = SchedReport::default();
    let skew_runner = ExperimentRunner::with_threads(SKEW_WORKERS);

    // A synthetic shape: run once serially for the reference results,
    // then min-of-5 on the runner. Jobs sleep for the hinted cost (µs)
    // and return a value derived only from (index, point).
    let sleep_value = |i: usize, c: u64| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ c;
    let mut run_sleep_shape = |name: &'static str, costs: &[u64], cost: CostClass<u64>| {
        let job = |i: usize, c: &u64| {
            let t0 = Instant::now();
            std::thread::sleep(std::time::Duration::from_micros(*c));
            (sleep_value(i, *c), t0.elapsed().as_nanos() as u64)
        };
        let strip = |r: &[(u64, u64)]| r.iter().map(|&(v, _)| v).collect::<Vec<u64>>();
        let serial = strip(&ExperimentRunner::serial().run_costed(costs, cost, job));
        let mut ms = f64::INFINITY;
        let mut best: (Vec<(u64, u64)>, SchedReport) = (Vec::new(), SchedReport::default());
        for _ in 0..5 {
            let t0 = Instant::now();
            let out = skew_runner.run_costed_reported(costs, cost, job);
            let elapsed = t0.elapsed().as_secs_f64() * 1e3;
            if elapsed < ms {
                ms = elapsed;
                best = out;
            }
        }
        let (results, report) = best;
        let total_us: u64 = costs.iter().sum();
        let max_us = costs.iter().copied().max().unwrap_or(0);
        let lower_bound_us = (max_us as f64).max(total_us as f64 / SKEW_WORKERS as f64);
        skew_total.absorb(&report);
        skew_rows.push(SkewRow {
            shape: name,
            points: costs.len(),
            ms,
            lower_bound_ms: Some(lower_bound_us / 1e3),
            identical: strip(&results) == serial,
            latency_ns: latency_quantiles(results.iter().map(|&(_, ns)| ns).collect()),
            report,
        });
    };

    // 6a. Uniform grid: every point costs the same, so the bound is
    //     the per-worker share of the total.
    let uniform_costs: Vec<u64> = if smoke {
        vec![250; 64]
    } else {
        vec![1_000; 128]
    };
    run_sleep_shape("uniform", &uniform_costs, CostClass::Uniform);

    // 6b. Zipf-skewed costs: the heaviest point alone bounds the
    //     makespan, so the schedule must start it first and fill the
    //     other workers with the tail around it.
    let (zipf_n, zipf_k) = if smoke {
        (32usize, 2_000u64)
    } else {
        (64, 8_000)
    };
    let zipf_costs: Vec<u64> = (0..zipf_n).map(|i| zipf_k / (i as u64 + 1)).collect();
    run_sleep_shape("zipf", &zipf_costs, CostClass::Hinted(sleep_cost));

    // 6c. Mixed live + replay sweep: real compute, ragged costs. Live
    //     points are hinted by instruction count, replay points by
    //     record count. The hints are proxies, not times, so there is
    //     no lower bound and no efficiency gate; results must stay
    //     bit-identical and the shape exercises the hint plumbing end
    //     to end.
    {
        struct MixedItem {
            point: SweepPoint,
            run: RunParams,
            records: Option<std::sync::Arc<Vec<didt_trace::Record>>>,
        }
        fn mixed_cost(it: &MixedItem) -> u64 {
            match &it.records {
                Some(r) => r.len() as u64,
                None => it.run.instructions,
            }
        }
        const PRE_ROLL: usize = 256;
        let controller = ControllerSpec::WaveletThreshold {
            low: 0.975,
            high: 1.025,
            hysteresis: 0.004,
            delay: 1,
        };
        let live_instructions: &[u64] = if smoke {
            &[1_000, 4_000]
        } else {
            &[3_000, 12_000]
        };
        let replay_cycles: &[usize] = if smoke {
            &[1_024, 4_096]
        } else {
            &[4_096, 16_384]
        };
        let mut items: Vec<MixedItem> = Vec::new();
        for rep in 0..2u64 {
            for &b in &[Benchmark::Gzip, Benchmark::Swim] {
                let point = SweepPoint {
                    benchmark: b,
                    pdn_pct: 150.0,
                    monitor_terms: 13,
                    controller,
                };
                for &instructions in live_instructions {
                    items.push(MixedItem {
                        point: point.clone(),
                        run: RunParams {
                            instructions: instructions + rep,
                            warmup_cycles: 1_000,
                        },
                        records: None,
                    });
                }
                for &cycles in replay_cycles {
                    items.push(MixedItem {
                        point: point.clone(),
                        run: RunParams {
                            instructions: 2_000,
                            warmup_cycles: 1_000,
                        },
                        records: Some(ctx.record_trace(
                            b,
                            &processor,
                            17,
                            PRE_ROLL,
                            cycles + rep as usize,
                        )),
                    });
                }
            }
        }
        let mixed_ctx = &ctx;
        let job = |_: usize, it: &MixedItem| -> (PointResult, u64) {
            let t0 = Instant::now();
            let result = match &it.records {
                Some(records) => mixed_ctx
                    .run_replay(&it.point, it.run, records, PRE_ROLL)
                    .expect("replay point"),
                None => mixed_ctx.run_point(&it.point, it.run).expect("live point"),
            };
            (result, t0.elapsed().as_nanos() as u64)
        };
        let strip =
            |r: Vec<(PointResult, u64)>| -> (Vec<PointResult>, Vec<u64>) { r.into_iter().unzip() };
        let (serial, _) = strip(ExperimentRunner::serial().run_costed(
            &items,
            CostClass::Hinted(mixed_cost),
            job,
        ));
        let mut ms = f64::INFINITY;
        let mut best = (Vec::new(), SchedReport::default());
        for _ in 0..2 {
            let t0 = Instant::now();
            let out = skew_runner.run_costed_reported(&items, CostClass::Hinted(mixed_cost), job);
            let elapsed = t0.elapsed().as_secs_f64() * 1e3;
            if elapsed < ms {
                ms = elapsed;
                best = out;
            }
        }
        let (raw, report) = best;
        let (results, ns) = strip(raw);
        skew_total.absorb(&report);
        skew_rows.push(SkewRow {
            shape: "mixed_live_replay",
            points: items.len(),
            ms,
            lower_bound_ms: None,
            identical: results == serial,
            report,
            latency_ns: latency_quantiles(ns),
        });
    }

    let mut kt = TextTable::new(&[
        "skew shape",
        "points",
        "ms",
        "bound ms",
        "efficiency",
        "identical",
    ]);
    let fmt_opt =
        |v: Option<f64>, digits: usize| v.map_or("-".to_string(), |x| format!("{x:.digits$}"));
    for r in &skew_rows {
        kt.row_owned(vec![
            r.shape.to_string(),
            r.points.to_string(),
            format!("{:.2}", r.ms),
            fmt_opt(r.lower_bound_ms, 2),
            fmt_opt(r.efficiency(), 3),
            r.identical.to_string(),
        ]);
    }
    println!("{}", kt.render());
    let skew_identical = skew_rows.iter().all(|r| r.identical);
    let uniform_efficiency = skew_rows[0].efficiency().unwrap_or(0.0);
    let zipf_efficiency = skew_rows[1].efficiency().unwrap_or(0.0);
    let skew_meets_floor =
        uniform_efficiency >= SKEW_EFFICIENCY_FLOOR && zipf_efficiency >= SKEW_EFFICIENCY_FLOOR;
    println!(
        "skew: efficiency zipf {zipf_efficiency:.3}, uniform {uniform_efficiency:.3} \
         (full-run floor {SKEW_EFFICIENCY_FLOOR}), all bit-identical: {skew_identical}\n"
    );
    exp.scheduler(&skew_total);
    exp.golden("skew_identical", f64::from(u8::from(skew_identical)));

    // ------------------------------------------------------------------
    // 7. The BENCH JSON report.
    // ------------------------------------------------------------------
    // Hardware facts are deterministic on a given host, so they may
    // live in the manifest (unlike wall clocks); the CI double-smoke
    // fingerprint check relies on them being invariant under
    // `DIDT_BATCH_LANES`.
    exp.golden("cpu_avx2", f64::from(u8::from(features.contains("avx2"))));
    exp.golden("cpu_fma", f64::from(u8::from(features.contains("fma"))));
    exp.golden(
        "batch_bit_identical",
        f64::from(u8::from(batch_bit_identical)),
    );

    let report = Json::obj(vec![
        ("schema", Json::str("didt-bench-v5")),
        ("name", Json::str("perf_report")),
        ("git_sha", discover_git_sha().map_or(Json::Null, Json::str)),
        ("smoke", Json::Bool(smoke)),
        ("cpu_features", Json::str(features)),
        (
            "monitors",
            Json::obj(vec![
                ("taps", Json::Num(taps as f64)),
                ("cycles", Json::Num(cycles as f64)),
                ("naive_lag_walk_cycles_per_sec", Json::Num(rate(naive_ms))),
                ("full_conv_cycles_per_sec", Json::Num(rate(full_ms))),
                ("biquad_cycles_per_sec", Json::Num(rate(biquad_ms))),
                ("full_conv_speedup_vs_naive", Json::Num(naive_ms / full_ms)),
                ("biquad_speedup_vs_naive", Json::Num(naive_ms / biquad_ms)),
                ("family_taps", Json::Num(family_kernel.len() as f64)),
                ("family_terms", Json::Num(family_terms as f64)),
                ("family_cycles_per_sec", Json::Num(rate(family_ms))),
                (
                    "family_speedup_vs_naive",
                    Json::Num(naive_family_ms / family_ms),
                ),
            ]),
        ),
        (
            "dwt",
            Json::obj(vec![
                ("window", Json::Num(dwt_window as f64)),
                ("levels", Json::Num(dwt_levels as f64)),
                ("reps", Json::Num(dwt_reps as f64)),
                (
                    "legacy_haar_samples_per_sec",
                    Json::Num(dwt_rate(legacy_dwt_ms)),
                ),
                (
                    "generic_haar_samples_per_sec",
                    Json::Num(dwt_rate(generic_dwt_ms)),
                ),
                (
                    "generic_db3_symmetric_samples_per_sec",
                    Json::Num(dwt_rate(db3_dwt_ms)),
                ),
                ("generic_over_legacy_time", Json::Num(dwt_ratio)),
                ("noise_budget", Json::Num(1.25)),
                ("within_noise", Json::Bool(dwt_within_noise)),
            ]),
        ),
        (
            "sim",
            Json::obj(vec![
                (
                    "benchmarks",
                    Json::Arr(
                        sim_rows
                            .iter()
                            .map(|r| {
                                Json::obj(vec![
                                    ("benchmark", Json::str(r.name)),
                                    ("cycles", Json::Num(r.cycles as f64)),
                                    ("serial_ms", Json::Num(r.serial_ms)),
                                    (
                                        "cycles_per_sec",
                                        Json::Num(r.cycles as f64 / (r.serial_ms / 1e3)),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("serial_cycles_per_sec", Json::Num(sim_serial_rate)),
                ("parallel_threads", Json::Num(SIM_GRID_THREADS as f64)),
                ("parallel_cycles_per_sec", Json::Num(sim_parallel_rate)),
                (
                    "baseline_pr4_cycles_per_sec",
                    Json::Num(PR4_SIM_BASELINE_CYCLES_PER_SEC),
                ),
                ("speedup_vs_pr4", Json::Num(sim_speedup)),
                (
                    "baseline_pr5_cycles_per_sec",
                    Json::Num(PR5_SIM_BASELINE_CYCLES_PER_SEC),
                ),
                (
                    "speedup_vs_pr5",
                    Json::Num(sim_serial_rate / PR5_SIM_BASELINE_CYCLES_PER_SEC),
                ),
                ("target", Json::Num(3.0)),
                // The pin was measured at the full standard config; the
                // reduced smoke grid only sanity-checks the machinery.
                ("meets_target", Json::Bool(!smoke && sim_speedup >= 3.0)),
            ]),
        ),
        (
            "sweep",
            Json::obj(vec![
                ("points", Json::Num(points.len() as f64)),
                ("instructions", Json::Num(run.instructions as f64)),
                ("serial_ms", Json::Num(serial_ms)),
                ("parallel_ms", Json::Num(parallel_ms)),
                ("threads", Json::Num(par_runner.threads() as f64)),
                ("serial_parallel_identical", Json::Bool(identical)),
            ]),
        ),
        (
            "batch",
            Json::obj(vec![
                ("lanes", Json::Num(LANES as f64)),
                ("cpu_features", Json::str(features)),
                (
                    "kernels",
                    Json::Arr(
                        batch_rows
                            .iter()
                            .map(|r| {
                                Json::obj(vec![
                                    ("kernel", Json::str(r.kernel)),
                                    ("unit", Json::str(r.unit)),
                                    ("scalar_ms", Json::Num(r.scalar_ms)),
                                    ("batch_ms", Json::Num(r.batch_ms)),
                                    ("units_per_sec", Json::Num(r.work / (r.batch_ms / 1e3))),
                                    ("speedup", Json::Num(r.scalar_ms / r.batch_ms)),
                                    ("bit_identical", Json::Bool(r.bit_identical)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("best_speedup", Json::Num(batch_best_speedup)),
                ("target", Json::Num(BATCH_TARGET)),
                (
                    "meets_target",
                    Json::Bool(!smoke && batch_best_speedup >= BATCH_TARGET),
                ),
                (
                    "estimate_sweep",
                    Json::obj(vec![
                        ("windows", Json::Num(est_windows as f64)),
                        ("scalar_windows_per_sec", Json::Num(est_scalar_rate)),
                        ("batch_windows_per_sec", Json::Num(est_batch_rate)),
                        ("speedup", Json::Num(est_speedup)),
                        ("improved", Json::Bool(est_speedup > 1.0)),
                    ]),
                ),
                // The issue's floor is lane 0; the implementation holds
                // the stronger all-lane contract, so this flag covers
                // lane 0 by construction.
                ("lane0_bit_identical", Json::Bool(batch_bit_identical)),
                ("all_lanes_bit_identical", Json::Bool(batch_bit_identical)),
            ]),
        ),
        (
            "skew_report",
            Json::obj(vec![
                ("workers", Json::Num(SKEW_WORKERS as f64)),
                (
                    "shapes",
                    Json::Arr(
                        skew_rows
                            .iter()
                            .map(|r| {
                                let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
                                Json::obj(vec![
                                    ("shape", Json::str(r.shape)),
                                    ("points", Json::Num(r.points as f64)),
                                    ("ms", Json::Num(r.ms)),
                                    ("lower_bound_ms", opt(r.lower_bound_ms)),
                                    ("efficiency", opt(r.efficiency())),
                                    ("bit_identical", Json::Bool(r.identical)),
                                    (
                                        "busy_fractions",
                                        Json::Arr(
                                            r.report
                                                .busy_fractions()
                                                .into_iter()
                                                .map(Json::Num)
                                                .collect(),
                                        ),
                                    ),
                                    (
                                        "latency_ns",
                                        Json::obj(vec![
                                            ("p50", Json::Num(r.latency_ns.0 as f64)),
                                            ("p95", Json::Num(r.latency_ns.1 as f64)),
                                            ("p99", Json::Num(r.latency_ns.2 as f64)),
                                        ]),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("zipf_efficiency", Json::Num(zipf_efficiency)),
                ("uniform_efficiency", Json::Num(uniform_efficiency)),
                ("efficiency_floor", Json::Num(SKEW_EFFICIENCY_FLOOR)),
                ("meets_floor", Json::Bool(!smoke && skew_meets_floor)),
                ("identical", Json::Bool(skew_identical)),
            ]),
        ),
    ]);
    let out_path = write_bench_report("perf_report", &report)?;
    println!("bench report: {}", out_path.display());
    exp.finish()?;

    if !identical {
        return Err("serial and parallel sweep results diverged".into());
    }
    if !batch_bit_identical {
        return Err("a batched kernel lane diverged bitwise from the scalar path".into());
    }
    if !skew_identical {
        return Err("a skew-benchmark run diverged bitwise from the serial run".into());
    }
    Ok(())
}

/// Best-of-`reps` wall time of `f`, in milliseconds. The result is fed
/// to `black_box` so the work is not optimized away.
fn best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}
