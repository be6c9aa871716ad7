//! The benchmark's own tests: every workload at a tiny size on two
//! seeds. Every output check must pass, the traced run must reproduce the
//! untraced run's simulated metrics, and a rerun of one seed must
//! reproduce every simulated metric and exact per-layer count bit for
//! bit — the held-out-seed check later performance claims rely on.

use perfbench::record::{Record, END_TO_END, PER_LAYER};
use perfbench::{run, Opts, Size, WORKLOADS};

fn tiny(workload: &str, seed: u64, trace: bool) -> Record {
    let opts = Opts {
        seed,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
    };
    let (rec, spans) = run(workload, &opts).expect("known workload");
    assert!(rec.attempted > 0, "{workload}: nothing attempted");
    assert_eq!(rec.failed, 0, "{workload} seed {seed}: {:?}", rec.checks);
    assert_eq!(
        trace,
        !spans.spans().is_empty(),
        "{workload}: spans iff traced"
    );
    rec
}

/// Every simulated metric and exact per-layer count, by name.
fn exact(rec: &Record) -> Vec<(&'static str, f64)> {
    rec.metrics
        .iter()
        .filter(|(name, m)| m.exact || name.starts_with("sim_"))
        .map(|(&name, m)| (name, m.value))
        .collect()
}

fn sim(rec: &Record) -> Vec<(&'static str, f64)> {
    exact(rec)
        .into_iter()
        .filter(|(name, _)| name.starts_with("sim_"))
        .collect()
}

fn check_workload(workload: &str) {
    for seed in [1, 2] {
        let untraced = tiny(workload, seed, false);
        for &(name, unit) in END_TO_END {
            let m = &untraced.metrics[name];
            assert_eq!(m.unit, unit);
            assert!(m.value > 0.0, "{workload}: {name} reads {}", m.value);
            assert!(m.samples > 0, "{workload}: {name} has no samples");
        }
        let traced = tiny(workload, seed, true);
        for &(name, unit) in PER_LAYER {
            assert_eq!(traced.metrics[name].unit, unit, "{workload}: {name}");
        }
        assert!(traced.value("bench.trace_overhead") > 0.0);
        assert_eq!(
            sim(&traced),
            sim(&untraced),
            "{workload}: traced sim_* differ"
        );
        if seed == 1 {
            let again = tiny(workload, seed, true);
            assert_eq!(exact(&again), exact(&traced), "{workload}: rerun differs");
        }
    }
}

#[test]
fn serve_observed_checks_pass_and_reproduce() {
    check_workload("serve_observed");
}

#[test]
fn launch_churn_checks_pass_and_reproduce() {
    check_workload("launch_churn");
}

#[test]
fn scale_10440_checks_pass_and_reproduce() {
    check_workload("scale_10440");
}

#[test]
fn unknown_workloads_are_refused() {
    let opts = Opts {
        seed: 1,
        seconds: 0.0,
        trace: false,
        size: Size::Tiny,
    };
    assert!(run("nope", &opts).is_none());
    assert_eq!(WORKLOADS.len(), 3);
}

/// `BENCHMARK.json` declares exactly the catalogue this binary reports.
#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
    }
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} [{unit}] missing from BENCHMARK.json"
        );
    }
    let declared = json.matches("\"name\":").count();
    assert_eq!(
        declared,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
