//! Host facts and environment hygiene.

use didt_telemetry::Json;

/// Environment variables that change what the program computes or how
/// it schedules work. A run refuses to start while any is set, so every
/// figure comes from the program's own defaults.
pub const FORBIDDEN_ENV: [&str; 4] = [
    "DIDT_SCHEDULER",
    "DIDT_BATCH_LANES",
    "DIDT_NUM_THREADS",
    "DIDT_CONV_CROSSOVER",
];

/// The forbidden overrides that are set, as `NAME=value`.
#[must_use]
pub fn forbidden_overrides() -> Vec<String> {
    FORBIDDEN_ENV
        .iter()
        .filter_map(|k| std::env::var(k).ok().map(|v| format!("{k}={v}")))
        .collect()
}

/// Every other `DIDT_*` or `RAYON_*` variable, recorded in the report.
#[must_use]
pub fn other_overrides() -> Vec<String> {
    std::env::vars()
        .filter(|(k, _)| {
            (k.starts_with("DIDT_") || k.starts_with("RAYON_"))
                && !FORBIDDEN_ENV.contains(&k.as_str())
        })
        .map(|(k, v)| format!("{k}={v}"))
        .collect()
}

/// Available parallelism: the load threads, connections and pool widths
/// of every workload derive from it.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// SIMD features the program's batch kernels dispatch on.
#[must_use]
pub fn cpu_features() -> Vec<&'static str> {
    let mut out = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("sse4.2") {
            out.push("sse4.2");
        }
        if std::is_x86_feature_detected!("avx") {
            out.push("avx");
        }
        if std::is_x86_feature_detected!("avx2") {
            out.push("avx2");
        }
        if std::is_x86_feature_detected!("fma") {
            out.push("fma");
        }
        if std::is_x86_feature_detected!("avx512f") {
            out.push("avx512f");
        }
    }
    out
}

/// Process high-water resident set (`VmHWM`) in MiB; 0 where `/proc` is
/// unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host facts for the run report.
#[must_use]
pub fn facts(nproc: usize) -> Json {
    let features: Vec<Json> = cpu_features().into_iter().map(Json::str).collect();
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj(vec![
        ("nproc", Json::num(nproc as f64)),
        ("cpu_model", Json::str(model)),
        ("cpu_features", Json::Arr(features)),
        (
            "git_sha",
            didt_telemetry::discover_git_sha()
                .map_or(Json::str("unavailable (not a git checkout)"), Json::str),
        ),
        (
            "batch_kernels_enabled",
            Json::Bool(didt_dsp::batch_enabled()),
        ),
        (
            "env_overrides",
            Json::Arr(other_overrides().into_iter().map(Json::str).collect()),
        ),
    ])
}

/// Keep every CPU busy for `seconds` before anything is measured. On
/// virtual machines the first second of load after an idle spell runs
/// measurably slower (vCPU wake-up, frequency ramp); spinning first
/// keeps that out of the set-up and timed phases. Runs no program code.
pub fn spin_up(nproc: usize, seconds: f64) {
    let end = std::time::Instant::now() + std::time::Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        for _ in 0..nproc {
            s.spawn(|| {
                let mut x = 0u64;
                while std::time::Instant::now() < end {
                    for i in 0..10_000u64 {
                        x = std::hint::black_box(
                            x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i),
                        );
                    }
                }
                x
            });
        }
    });
}
