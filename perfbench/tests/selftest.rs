//! Self-tests of the benchmark: metric names, `BENCHMARK.json` against
//! the catalogue, seed determinism, and a tiny run of every workload.

use std::collections::HashSet;

use didt_perfbench::{catalog, characterize, fleet, run_workload, sweep, RunOpts, Size, WORKLOADS};
use didt_telemetry::Json;

#[test]
fn metric_names_are_valid_and_unique() {
    let mut seen = HashSet::new();
    for m in catalog::END_TO_END.iter().chain(catalog::PER_LAYER) {
        assert!(catalog::valid_name(m.name), "bad metric name {}", m.name);
        assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
        assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
        for w in m.reported_by {
            assert!(
                WORKLOADS.contains(w),
                "{} names unknown workload {w}",
                m.name
            );
        }
    }
    assert!(catalog::END_TO_END
        .iter()
        .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    let setup = catalog::find("setup_s").expect("setup_s declared");
    let largest = catalog::END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(largest),
        "setup_s carries the largest bound"
    );
    assert!(!catalog::valid_name("a b"));
    assert!(!catalog::valid_name(".x"));
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let json = Json::parse(&text).expect("valid JSON");
    let arr = |k: &str| json.get(k).and_then(Json::as_arr).expect(k).to_vec();
    let names: Vec<String> = arr("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(names, WORKLOADS);
    for (key, table) in [
        ("end_to_end", catalog::END_TO_END),
        ("per_layer", catalog::PER_LAYER),
    ] {
        let got = arr(key);
        assert_eq!(got.len(), table.len(), "{key} length");
        for (g, m) in got.iter().zip(table) {
            assert_eq!(g.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(
                g.get("unit").and_then(Json::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                g.get("better").and_then(Json::as_str),
                Some(m.better),
                "{}",
                m.name
            );
            assert_eq!(g.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
        }
    }
}

#[test]
fn one_seed_gives_one_input_stream_and_another_seed_another() {
    assert_eq!(sweep::grid(7, Size::Full), sweep::grid(7, Size::Full));
    assert_ne!(sweep::grid(7, Size::Full), sweep::grid(8, Size::Full));
    assert_eq!(
        characterize::inputs(7, Size::Full),
        characterize::inputs(7, Size::Full)
    );
    assert_ne!(
        characterize::inputs(7, Size::Full),
        characterize::inputs(8, Size::Full)
    );
    let (a, b) = (fleet::inputs(7, Size::Full), fleet::inputs(8, Size::Full));
    assert_eq!(a, fleet::inputs(7, Size::Full));
    assert_ne!(a, b);
    assert_eq!(
        fleet::item_stream(&a, 0, 500),
        fleet::item_stream(&a, 0, 500)
    );
    assert_ne!(
        fleet::item_stream(&a, 0, 500),
        fleet::item_stream(&b, 0, 500)
    );
    assert_ne!(
        fleet::item_stream(&a, 0, 500),
        fleet::item_stream(&a, 1, 500)
    );
}

#[test]
fn every_seed_asks_for_the_same_work() {
    let lens = |seed| {
        let mut v: Vec<usize> = characterize::inputs(seed, Size::Full)
            .traces
            .iter()
            .map(|t| t.len)
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(lens(1), lens(2));
    let mut grid = sweep::grid(3, Size::Full);
    let mut other = sweep::grid(4, Size::Full);
    let key = |p: &didt_bench::SweepPoint| format!("{}{}", p.benchmark.name(), p.controller.tag());
    grid.sort_by_key(key);
    other.sort_by_key(key);
    assert_eq!(grid, other);
}

/// One sequential test: the traced runs install the process-global
/// span collector and read process-global counters.
#[test]
fn tiny_runs_answer_correctly_and_report_every_metric() {
    let out_dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest");
    for workload in WORKLOADS {
        for trace in [false, true] {
            let opts = RunOpts {
                seed: 11,
                seconds: 0.6,
                trace,
                size: Size::Tiny,
                nproc: didt_perfbench::host::nproc(),
                out_dir: out_dir.clone(),
            };
            let out = run_workload(workload, &opts).unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert!(out.attempted > 0, "{workload}: nothing attempted");
            assert_eq!(out.failed, 0, "{workload} trace={trace}: wrong answers");
            let names: Vec<&str> = out.metrics.iter().map(|(n, _)| *n).collect();
            let table = if trace {
                catalog::PER_LAYER
            } else {
                catalog::END_TO_END
            };
            let mut want: Vec<&str> = table.iter().map(|m| m.name).collect();
            let mut got = names.clone();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "{workload} trace={trace}: metric set");
            for (name, value) in &out.metrics {
                assert!(value.is_finite(), "{workload}: {name} = {value}");
            }
            if trace {
                let error = out
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == "error_frac")
                    .unwrap()
                    .1;
                assert_eq!(error, 0.0, "{workload}: error_frac");
                for m in catalog::PER_LAYER {
                    let declared_na = out.unavailable.iter().any(|(n, _)| *n == m.name);
                    assert_eq!(
                        declared_na,
                        !m.reported_by.contains(&workload),
                        "{workload}: {} availability disagrees with the catalogue",
                        m.name
                    );
                }
                let measured = out
                    .metrics
                    .iter()
                    .filter(|(n, v)| *v != 0.0 && !out.unavailable.iter().any(|(u, _)| u == n))
                    .count();
                assert!(
                    measured >= 20,
                    "{workload}: only {measured} layer metrics measured"
                );
                assert!(out.spans.is_some(), "{workload}: no span report");
            } else {
                for (name, value) in &out.metrics {
                    assert!(
                        *value > 0.0,
                        "{workload}: end-to-end {name} must never be 0"
                    );
                }
            }
        }
    }
}
