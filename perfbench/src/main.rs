//! Benchmark command: runs one workload and prints its result object as
//! the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Extra flags: `--write-goldens` (regenerate `goldens/sweep.json`) and
//! `--catalog` (print the metric catalogue, with what each per-layer
//! metric should move). Details and spans go to `perfbench/out/`.

use std::path::PathBuf;
use std::process::ExitCode;

use didt_perfbench::{catalog, host, report, run_workload, RunOpts, Size};
use didt_telemetry::Json;

fn arg(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn catalog_json() -> Json {
    let table = |ms: &[catalog::Metric]| {
        Json::Arr(
            ms.iter()
                .map(|m| {
                    let mut pairs = vec![
                        ("name", Json::str(m.name)),
                        ("unit", Json::str(m.unit)),
                        ("better", Json::str(m.better)),
                    ];
                    if let Some(b) = m.bound {
                        pairs.push(("bound", Json::num(b)));
                    }
                    pairs.push((
                        "reported_by",
                        Json::Arr(m.reported_by.iter().map(|w| Json::str(*w)).collect()),
                    ));
                    pairs.push(("meaning", Json::str(m.meaning)));
                    if !m.moves.is_empty() {
                        pairs.push(("moves", Json::str(m.moves)));
                        pairs.push(("flat_on", Json::str(m.flat_on)));
                    }
                    Json::obj(pairs)
                })
                .collect(),
        )
    };
    Json::obj(vec![
        ("end_to_end", table(catalog::END_TO_END)),
        ("per_layer", table(catalog::PER_LAYER)),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--catalog") {
        print!("{}", catalog_json().render());
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--write-goldens") {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("goldens/sweep.json");
        return match didt_perfbench::sweep::goldens_json().and_then(|j| report::write(&path, &j)) {
            Ok(()) => {
                eprintln!("wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(workload) = arg(&args, "--workload") else {
        eprintln!("usage: --workload NAME --seed N --seconds S --trace 0|1");
        return ExitCode::from(2);
    };
    let seed = arg(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let seconds: f64 = arg(&args, "--seconds")
        .and_then(|s| s.parse().ok())
        .unwrap_or(30.0);
    let trace = arg(&args, "--trace").is_some_and(|t| t == "1");
    let forbidden = host::forbidden_overrides();
    if !forbidden.is_empty() {
        eprintln!(
            "perfbench: refusing to run with program overrides set: {}",
            forbidden.join(", ")
        );
        return ExitCode::from(3);
    }
    let nproc = host::nproc();
    host::spin_up(nproc, 1.0);
    let opts = RunOpts {
        seed,
        seconds,
        trace,
        size: Size::Full,
        nproc,
        out_dir: out_dir(),
    };
    let outcome = match run_workload(&workload, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let metrics: Vec<(&str, f64)> = outcome.metrics.iter().map(|&(n, v)| (n, v)).collect();
    let result = report::result_json(correct, outcome.attempted, outcome.failed, &metrics);

    let tag = format!(
        "{workload}-seed{seed}-{}",
        if trace { "traced" } else { "untraced" }
    );
    let mut details = vec![
        ("workload", Json::str(workload.as_str())),
        ("seed", Json::num(seed as f64)),
        ("seconds", Json::num(seconds)),
        ("trace", Json::Bool(trace)),
        ("host", host::facts(nproc)),
        ("result", result.clone()),
        (
            "unavailable",
            Json::Obj(
                outcome
                    .unavailable
                    .iter()
                    .map(|(n, why)| ((*n).to_string(), Json::str(why.as_str())))
                    .collect(),
            ),
        ),
    ];
    details.push(("details", Json::Obj(outcome.details)));
    let report_path = opts.out_dir.join(format!("{tag}.json"));
    if let Err(e) = report::write(&report_path, &Json::obj(details)) {
        eprintln!("perfbench: {e}");
    }
    if let Some(spans) = &outcome.spans {
        let path = opts.out_dir.join(format!("{tag}.spans.json"));
        if let Err(e) = std::fs::write(&path, report::compact(spans)) {
            eprintln!("perfbench: write {}: {e}", path.display());
        }
    }
    for &(name, value) in &metrics {
        let unit = catalog::find(name).map_or("", |m| m.unit);
        eprintln!("  {name:<42} {value:>14.6} {unit}");
    }
    eprintln!(
        "  attempted {} failed {} correct {correct}; report {}",
        outcome.attempted,
        outcome.failed,
        report_path.display()
    );
    println!("{}", report::compact(&result));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
