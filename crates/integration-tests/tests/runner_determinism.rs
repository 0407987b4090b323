//! The experiment runner's core contracts: serial and parallel sweeps
//! are bit-identical (also under adversarial cost skew and misleading
//! cost hints), results depend on point identity (never execution
//! order), shared cache entries compute exactly once under concurrency,
//! and parallel execution actually buys wall-clock time on multi-core
//! hosts. See DESIGN.md §16 for the determinism contract.

use std::sync::Arc;

use didt_bench::{
    ControllerSpec, CostClass, ExperimentRunner, MemoCache, PointResult, RunParams, Sweep,
    SweepContext, SweepPoint,
};
use didt_uarch::Benchmark;
use proptest::prelude::*;

const RUN: RunParams = RunParams {
    instructions: 3_000,
    warmup_cycles: 1_000,
};

const WAVELET: ControllerSpec = ControllerSpec::WaveletThreshold {
    low: 0.975,
    high: 1.025,
    hysteresis: 0.004,
    delay: 1,
};

fn grid() -> Vec<SweepPoint> {
    Sweep::new()
        .benchmarks(&[Benchmark::Gzip, Benchmark::Swim])
        .pdn_pcts(&[125.0, 150.0])
        .monitor_terms(&[13])
        .controllers(&[ControllerSpec::None, WAVELET])
        .points()
}

#[test]
fn serial_and_parallel_sweeps_bit_identical() {
    let points = grid();
    let serial =
        SweepContext::standard()
            .unwrap()
            .run_sweep(&ExperimentRunner::serial(), &points, RUN);
    // Fresh context per run: nothing carried over but the code path.
    for threads in [2, 4] {
        let parallel = SweepContext::standard().unwrap().run_sweep(
            &ExperimentRunner::with_threads(threads),
            &points,
            RUN,
        );
        // PointResult is all plain numbers; == is bitwise on the floats.
        assert_eq!(serial, parallel, "threads {threads}");
    }
}

#[test]
fn repeated_parallel_runs_are_identical() {
    let points = grid();
    let runner = ExperimentRunner::with_threads(4);
    let a = SweepContext::standard()
        .unwrap()
        .run_sweep(&runner, &points, RUN);
    let b = SweepContext::standard()
        .unwrap()
        .run_sweep(&runner, &points, RUN);
    assert_eq!(a, b);
}

#[test]
fn results_depend_on_point_identity_not_grid_order() {
    let mut points = grid();
    let ctx = SweepContext::standard().unwrap();
    let runner = ExperimentRunner::with_threads(3);
    let forward: Vec<PointResult> = ctx.run_sweep(&runner, &points, RUN);
    points.reverse();
    let mut backward = SweepContext::standard()
        .unwrap()
        .run_sweep(&runner, &points, RUN);
    backward.reverse();
    assert_eq!(forward, backward);
}

#[test]
fn memo_cache_computes_exactly_once_under_concurrency() {
    let cache: Arc<MemoCache<u32, Vec<f64>>> = Arc::new(MemoCache::new());
    std::thread::scope(|s| {
        for t in 0..12 {
            let cache = Arc::clone(&cache);
            s.spawn(move || {
                for i in 0..40 {
                    let key = u32::from((t + i) % 3 == 0);
                    let v = cache.get_or_compute(key, || {
                        std::thread::sleep(std::time::Duration::from_micros(300));
                        vec![f64::from(key); 8]
                    });
                    assert_eq!(v.len(), 8);
                }
            });
        }
    });
    assert_eq!(cache.len(), 2);
    assert_eq!(
        cache.computations(),
        2,
        "a key's value was computed more than once"
    );
    // Shard-summed stats stay coherent under the same interleaving:
    // every one of the 12*40 requests is accounted for, hits are the
    // non-computing remainder, and contention (however much the host
    // produced) never inflates the compute count.
    let stats = cache.stats();
    assert_eq!(stats.keys, 2);
    assert_eq!(stats.computations, 2);
    assert_eq!(stats.requests, 12 * 40);
    assert_eq!(stats.hits, 12 * 40 - 2);
    assert!(stats.contended <= stats.requests);
}

/// Compute-once must also hold when many *distinct* keys land across
/// shards at once — the sharded map must not duplicate a slot while two
/// threads race to insert it into the same shard.
#[test]
fn memo_cache_computes_exactly_once_across_shards() {
    const KEYS: u32 = 64;
    let cache: Arc<MemoCache<u32, u64>> = Arc::new(MemoCache::new());
    std::thread::scope(|s| {
        for t in 0..8u32 {
            let cache = Arc::clone(&cache);
            s.spawn(move || {
                for round in 0..4 {
                    for i in 0..KEYS {
                        // Different starting offsets per thread so shard
                        // locks are hit in conflicting orders.
                        let key = (i + t * 17 + round) % KEYS;
                        let v = cache.get_or_compute(key, || u64::from(key) * 3);
                        assert_eq!(*v, u64::from(key) * 3);
                    }
                }
            });
        }
    });
    let stats = cache.stats();
    assert_eq!(stats.keys, KEYS as usize);
    assert_eq!(
        stats.computations, KEYS as usize,
        "a key's value was computed more than once"
    );
    assert_eq!(stats.requests, 8 * 4 * KEYS as usize);
}

#[test]
fn context_artifacts_compute_once_across_workers() {
    let ctx = SweepContext::standard().unwrap();
    // Hammer the same design and PDN from many threads at once.
    let designs: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let ctx = Arc::clone(&ctx);
                s.spawn(move || ctx.monitor_design(150.0, 256).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for d in &designs[1..] {
        assert!(Arc::ptr_eq(&designs[0], d), "workers must share one design");
    }
    let stats = ctx.cache_stats();
    assert_eq!(stats.designs, 1);
    assert_eq!(stats.pdns, 1);

    // A full sweep over one (benchmark, impedance) cell with several
    // controllers must simulate the uncontrolled baseline exactly once.
    let points = Sweep::new()
        .benchmarks(&[Benchmark::Gzip])
        .pdn_pcts(&[150.0])
        .monitor_terms(&[13])
        .controllers(&[
            ControllerSpec::None,
            WAVELET,
            ControllerSpec::AnalogThreshold {
                low: 0.97,
                high: 1.03,
                hysteresis: 0.004,
            },
            ControllerSpec::PipelineDamping {
                window: 15,
                max_delta: 6.0,
            },
        ])
        .points();
    let results = ctx.run_sweep(&ExperimentRunner::with_threads(4), &points, RUN);
    assert_eq!(results.len(), 4);
    assert_eq!(
        ctx.cache_stats().baselines,
        1,
        "cell baseline must be shared"
    );
    for r in &results {
        assert_eq!(r.baseline, results[0].baseline);
    }
}

/// Wall-clock speedup from the worker pool. Meaningful only on
/// multi-core hosts, so it self-gates on available parallelism; the
/// determinism tests above cover correctness on any machine.
#[test]
fn parallel_sweep_speeds_up_on_multicore_hosts() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores < 4 {
        eprintln!("skipping speedup measurement: only {cores} core(s) available");
        return;
    }
    let run = RunParams {
        instructions: 8_000,
        warmup_cycles: 2_000,
    };
    let points = Sweep::new()
        .benchmarks(&[
            Benchmark::Gzip,
            Benchmark::Swim,
            Benchmark::Crafty,
            Benchmark::Eon,
        ])
        .pdn_pcts(&[125.0, 150.0])
        .monitor_terms(&[13])
        .controllers(&[WAVELET])
        .points();
    // Warm both contexts' caches so the measurement is pure point work.
    let serial_ctx = SweepContext::standard().unwrap();
    let parallel_ctx = SweepContext::standard().unwrap();
    let _ = serial_ctx.run_sweep(&ExperimentRunner::serial(), &points, RUN);
    let _ = parallel_ctx.run_sweep(&ExperimentRunner::serial(), &points, RUN);

    let t0 = std::time::Instant::now();
    let serial = serial_ctx.run_sweep(&ExperimentRunner::serial(), &points, run);
    let serial_time = t0.elapsed();
    let t1 = std::time::Instant::now();
    let parallel =
        parallel_ctx.run_sweep(&ExperimentRunner::with_threads(cores.min(8)), &points, run);
    let parallel_time = t1.elapsed();

    assert_eq!(serial, parallel);
    let speedup = serial_time.as_secs_f64() / parallel_time.as_secs_f64().max(1e-9);
    eprintln!(
        "sweep speedup on {cores} cores: {speedup:.2}x ({serial_time:?} -> {parallel_time:?})"
    );
    assert!(
        speedup >= 3.0,
        "expected >= 3x speedup on {cores} cores, measured {speedup:.2}x"
    );
}

/// Deterministic "compute" whose wall time scales with the cost hint:
/// a busy-loop over a splitmix-style mixer so the optimizer cannot
/// elide it and so the result depends only on `(index, point)`.
fn spin_job(index: usize, cost: u64) -> u64 {
    let mut acc = (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ cost;
    // Skewed points spin proportionally longer (bounded: cost < 2000).
    for i in 0..(cost * 17 + 3) {
        acc ^= acc >> 30;
        acc = acc.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        acc = acc.wrapping_add(i);
    }
    acc
}

fn hint(p: &u64) -> u64 {
    *p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Parallel ≡ serial for adversarial cost vectors: ragged lengths,
    /// heavy skew (costs spanning 0..2000), 1–16 workers on whatever
    /// cores the host has (oversubscription included).
    #[test]
    fn parallel_sweeps_match_serial_under_cost_skew(
        costs in prop::collection::vec(0u64..2000, 1..120),
        threads in 1usize..=16,
    ) {
        let serial = ExperimentRunner::serial()
            .run_costed(&costs, CostClass::Hinted(hint), |i, p| spin_job(i, *p));
        let parallel = ExperimentRunner::with_threads(threads)
            .run_costed(&costs, CostClass::Hinted(hint), |i, p| spin_job(i, *p));
        prop_assert_eq!(&serial, &parallel);
    }

    /// The cost hint orders claims only: a deliberately *wrong* hint
    /// (inverse of the true cost) still yields bit-identical results.
    #[test]
    fn misleading_hints_change_schedule_not_results(
        costs in prop::collection::vec(1u64..500, 1..80),
        threads in 1usize..=16,
    ) {
        fn inverse_hint(p: &u64) -> u64 {
            2000 / *p
        }
        let serial = ExperimentRunner::serial()
            .run_costed(&costs, CostClass::Uniform, |i, p| spin_job(i, *p));
        let misled = ExperimentRunner::with_threads(threads)
            .run_costed(&costs, CostClass::Hinted(inverse_hint), |i, p| spin_job(i, *p));
        prop_assert_eq!(&serial, &misled);
    }
}
