//! Prints the regenerated data for every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p tsm-bench --bin repro            # everything
//! cargo run --release -p tsm-bench --bin repro fig16 fig17
//! ```

use tsm_bench::{attribution_bench, cosim_bench, figures, residency_bench, serving_bench};

/// Measures the canonical co-simulation workload plus the full scaling
/// curve (16 → 72 → 288 → 10,440 chips) and records the sample in
/// `BENCH_cosim.json` (current directory), the file tracked PR-to-PR for
/// the engine's perf trajectory. The blocks other sections splice into
/// that file are carried over unchanged.
fn emit_bench_cosim() -> Vec<String> {
    let mut result = cosim_bench::measure(5);
    result.scaling = cosim_bench::measure_scaling(3, usize::MAX);
    let mut out = cosim_bench::lines_for(&result);
    let existing = std::fs::read_to_string("BENCH_cosim.json").unwrap_or_default();
    let record = serving_bench::carry_spliced_blocks(&existing, &result.to_json());
    match std::fs::write("BENCH_cosim.json", record) {
        Ok(()) => out.push("wrote BENCH_cosim.json".to_string()),
        Err(e) => out.push(format!("could not write BENCH_cosim.json: {e}")),
    }
    out
}

/// Fast bench smoke for CI (`scripts/tier1.sh`): one sample of the
/// canonical workload plus the small end of the scaling curve, with the
/// same bit-identity and trace-identity assertions as the full sweep.
/// Writes nothing, so a smoke pass can never clobber the tracked record.
fn smoke_bench_cosim() -> Vec<String> {
    let mut result = cosim_bench::measure(1);
    result.scaling = cosim_bench::measure_scaling(1, 100);
    assert!(result.bit_identical, "engines diverged on smoke workload");
    for p in &result.scaling {
        assert!(p.bit_identical, "{} chips: reports diverged", p.chips);
        assert!(p.trace_identical, "{} chips: traces diverged", p.chips);
    }
    let mut out = cosim_bench::lines_for(&result);
    out.push("smoke OK (no files written)".to_string());
    out
}

/// Full serving sweep over BERT-Large: offered load × batch window with
/// certification on every launch, spliced into the `serving` block of
/// `BENCH_cosim.json` without touching the cosim fields.
fn emit_serve() -> Vec<String> {
    let result = serving_bench::measure_serving(24, 120, 7);
    assert!(
        result.reproducible,
        "serving sweep must reproduce from its seed"
    );
    let mut out = serving_bench::lines_for(&result);
    let existing = std::fs::read_to_string("BENCH_cosim.json").unwrap_or_else(|_| "{}\n".into());
    let spliced = serving_bench::splice_serving(&existing, &result.to_json());
    match std::fs::write("BENCH_cosim.json", spliced) {
        Ok(()) => out.push("spliced serving block into BENCH_cosim.json".to_string()),
        Err(e) => out.push(format!("could not write BENCH_cosim.json: {e}")),
    }
    // The serve sweep also refreshes the windowed-telemetry record (SLO
    // series per tenant plus link/chip heatmaps) and the attribution
    // record (per-stage latency breakdown plus flight-recorder capture).
    out.push(String::new());
    out.extend(emit_telemetry());
    out.push(String::new());
    out.extend(emit_attribution());
    out
}

/// Fast serving smoke for CI (`scripts/tier1.sh`): a 4-encoder model over
/// a short horizon with the same certification, backpressure, fairness,
/// and bit-reproducibility assertions as the full sweep, plus a
/// multi-model alternation that must hit the plan-residency cache.
/// Writes nothing.
fn smoke_serve() -> Vec<String> {
    let result = serving_bench::measure_serving(4, 12, 9);
    assert!(
        result.sweep.iter().all(|p| p.all_certified) && result.burst_certified,
        "every serving launch must certify"
    );
    assert!(
        result.overload.shed > 0,
        "overload must exercise backpressure"
    );
    assert!(
        result.reproducible,
        "serving sweep must reproduce from its seed"
    );
    let mut out = serving_bench::lines_for(&result);
    out.push(residency_smoke_line());
    out.push("smoke OK (no files written)".to_string());
    out
}

/// Full telemetry bench: a two-tenant serve run with windowed sampling
/// on, per-tenant SLO series, link/chip heatmaps, and the sampler's
/// measured overhead; spliced into the `telemetry` block of
/// `BENCH_cosim.json`.
fn emit_telemetry() -> Vec<String> {
    let result = serving_bench::measure_telemetry(8, 24, 7);
    assert!(
        result.reproducible,
        "telemetry must reproduce byte-for-byte from its seed"
    );
    assert!(
        result.off_identical,
        "sampling off must be bit-identical to sampling on minus telemetry"
    );
    let mut out = serving_bench::telemetry_lines(&result);
    let existing = std::fs::read_to_string("BENCH_cosim.json").unwrap_or_else(|_| "{}\n".into());
    let spliced = serving_bench::splice_telemetry(&existing, &result.to_json());
    match std::fs::write("BENCH_cosim.json", spliced) {
        Ok(()) => out.push("spliced telemetry block into BENCH_cosim.json".to_string()),
        Err(e) => out.push(format!("could not write BENCH_cosim.json: {e}")),
    }
    out
}

/// Fast telemetry smoke for CI (`scripts/tier1.sh`): asserts windowed
/// sampling is bit-reproducible from its seed and that sampling off is
/// bit-identical to the pre-feature behaviour, with link/chip heatmaps
/// and per-tenant SLO series present. Writes nothing.
fn smoke_telemetry() -> Vec<String> {
    let result = serving_bench::measure_telemetry(4, 8, 9);
    assert!(
        result.reproducible,
        "telemetry must reproduce byte-for-byte from its seed"
    );
    assert!(
        result.off_identical,
        "sampling off must be bit-identical to sampling on minus telemetry"
    );
    assert!(
        result.link_labels > 0 && result.chip_labels > 0,
        "serve heatmaps must cover links and chips"
    );
    assert!(
        !result.tenants.is_empty(),
        "per-tenant SLO series must be present"
    );
    let mut out = serving_bench::telemetry_lines(&result);
    out.push("smoke OK (no files written)".to_string());
    out
}

/// Full attribution bench: a fault-injected serve run with causal
/// latency breakdowns on every request and the flight recorder armed;
/// spliced into the `attribution` block of `BENCH_cosim.json`.
fn emit_attribution() -> Vec<String> {
    let result = attribution_bench::measure_attribution(8, 20, 7);
    assert!(
        result.sums_exact,
        "every breakdown must sum exactly to its latency"
    );
    assert!(
        result.reproducible,
        "attribution must reproduce byte-for-byte from its seed"
    );
    let mut out = attribution_bench::attribution_lines(&result);
    let existing = std::fs::read_to_string("BENCH_cosim.json").unwrap_or_else(|_| "{}\n".into());
    let spliced = serving_bench::splice_block(&existing, "attribution", &result.to_json());
    match std::fs::write("BENCH_cosim.json", spliced) {
        Ok(()) => out.push("spliced attribution block into BENCH_cosim.json".to_string()),
        Err(e) => out.push(format!("could not write BENCH_cosim.json: {e}")),
    }
    out
}

/// Fast attribution smoke for CI (`scripts/tier1.sh`): a fault-injected
/// serve over a small model, asserting the sums-to-total identity on
/// every request, byte-reproducible incident capture, and the off-is-off
/// identity for both features. Writes nothing.
fn smoke_attribution() -> Vec<String> {
    let result = attribution_bench::measure_attribution(4, 10, 9);
    assert!(
        result.sums_exact,
        "every breakdown must sum exactly to its latency"
    );
    assert!(
        result.replayed_requests > 0,
        "the fault search must surface replay cycles"
    );
    assert!(
        result.incident_kinds.iter().any(|(k, _)| k == "fault"),
        "replaying batches must fire fault incidents"
    );
    assert!(
        result.reproducible,
        "breakdowns and incidents must reproduce byte-for-byte"
    );
    assert!(
        result.off_identical,
        "attribution and the recorder off must be bit-identical"
    );
    let mut out = attribution_bench::attribution_lines(&result);
    out.push("smoke OK (no files written)".to_string());
    out
}

/// Renders every incident the fault-injected serve captured — the
/// flight recorder's bounded deviant/fault/shed/expiry/SLO snapshots —
/// in firing order. Writes nothing.
fn emit_incidents() -> Vec<String> {
    let result = attribution_bench::measure_attribution(4, 12, 9);
    assert!(
        !result.incidents.is_empty(),
        "the hostile serve must capture at least one incident"
    );
    assert!(
        result.reproducible,
        "incidents must reproduce byte-for-byte from their seed"
    );
    let mut out = attribution_bench::incident_lines(&result);
    out.push(String::new());
    out.push("no files written".to_string());
    out
}

/// Two statistical-mode models alternating through one server: the
/// revisits must come out of the plan-residency cache, not recompile.
fn residency_smoke_line() -> String {
    use tsm::compiler::graph::{Graph, OpKind};
    use tsm::core::runtime::{Runtime, SparePolicy};
    use tsm::core::serving::{Request, ServeConfig, Server};
    use tsm::core::system::System;
    use tsm::topology::TspId;
    use tsm::trace::names;

    let model = |cycles: u64| {
        move |batch: u32| {
            let mut g = Graph::new();
            g.add(
                TspId(0),
                OpKind::Compute {
                    cycles: cycles * u64::from(batch),
                },
                vec![],
            )
            .unwrap();
            g
        }
    };
    let rt = Runtime::new(System::with_nodes(4).unwrap(), SparePolicy::PerSystem);
    let mut server = Server::new(
        rt,
        ServeConfig {
            max_batch: 1,
            queue_capacity: usize::MAX,
            ..ServeConfig::default()
        },
    );
    server.add_model(model(1_000));
    server.add_model(model(2_000));
    let offered: Vec<Request> = (0..6)
        .map(|i| Request {
            at: i * 100_000,
            tenant: 0,
            model: (i % 2) as u32,
            priority: 0,
            deadline_slack: 1 << 40,
        })
        .collect();
    let report = server.serve(&offered).expect("multi-model smoke");
    let hits = report.metrics.counter(names::RES_HITS);
    assert!(
        hits >= 1,
        "alternating models must hit the residency cache (got {hits} hits)"
    );
    format!(
        "multi-model residency: 2 models x 3 rounds -> {hits} cache hits, {} misses",
        report.metrics.counter(names::RES_MISSES)
    )
}

/// Full residency bench: 3 BERT models round-robin under warm, thrash,
/// and single-entry plan budgets, plus the warm-start tier round trip;
/// spliced into the `residency` block of `BENCH_cosim.json`.
fn emit_residency() -> Vec<String> {
    let result = residency_bench::measure_residency(3, 8, 11);
    assert!(
        result.warm.hit_rate >= result.expected_warm_hit_rate,
        "warm budget must reach the (N-K)/N hit rate"
    );
    assert!(
        result.reproducible,
        "residency bench must reproduce from its seed"
    );
    let mut out = residency_bench::lines_for(&result);
    let existing = std::fs::read_to_string("BENCH_cosim.json").unwrap_or_else(|_| "{}\n".into());
    let spliced = serving_bench::splice_block(&existing, "residency", &result.to_json());
    match std::fs::write("BENCH_cosim.json", spliced) {
        Ok(()) => out.push("spliced residency block into BENCH_cosim.json".to_string()),
        Err(e) => out.push(format!("could not write BENCH_cosim.json: {e}")),
    }
    out
}

/// Fast residency smoke for CI (`scripts/tier1.sh`): 2 models × 3 rounds
/// with the same hit-rate, thrash, warm-tier, and reproducibility
/// assertions as the full bench, minus the wall-clock claims. Writes
/// nothing.
fn smoke_residency() -> Vec<String> {
    let result = residency_bench::measure_residency(2, 3, 11);
    assert!(
        (result.warm.hit_rate - result.expected_warm_hit_rate).abs() < 1e-9,
        "warm budget must hit exactly (N-K)/N"
    );
    assert_eq!(
        result.thrash.hits, 0,
        "thrash budget must evict every round"
    );
    assert_eq!(result.single.hits, 0, "single-entry budget must recompile");
    assert_eq!(
        result.warm_starts, result.models as u64,
        "every model must warm-start from the imported tier"
    );
    assert!(
        result.warm_tier_identical,
        "warm starts must be bit-identical"
    );
    assert!(
        result.reproducible,
        "residency bench must reproduce from its seed"
    );
    let mut out = residency_bench::lines_for(&result);
    out.push("smoke OK (no files written)".to_string());
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty();
    // Smoke sections are CI-only subsets of their full runs; they only
    // fire when named explicitly.
    let want = |name: &str| args.iter().any(|a| a == name) || (all && !name.ends_with("-smoke"));

    type Section<'a> = (&'a str, &'a str, Box<dyn Fn() -> Vec<String>>);
    let sections: Vec<Section> = vec![
        (
            "abstract",
            "Abstract claims",
            Box::new(figures::abstract_claims),
        ),
        (
            "fig2",
            "Fig 2 — global bandwidth profile per TSP",
            Box::new(figures::fig2),
        ),
        (
            "table2",
            "Table 2 — HAC link-latency characterization (100K iters)",
            Box::new(|| figures::table2(100_000)),
        ),
        (
            "fig7",
            "Fig 7 — HAC alignment convergence",
            Box::new(figures::fig7),
        ),
        (
            "fig9",
            "Fig 9 — push vs pull communication model",
            Box::new(figures::fig9),
        ),
        (
            "fig10",
            "Fig 10 — non-minimal routing benefit",
            Box::new(figures::fig10),
        ),
        (
            "fig11",
            "Fig 11 — wire-format efficiency",
            Box::new(figures::fig11),
        ),
        (
            "fig13",
            "Fig 13 — GEMM utilization, TSP vs A100",
            Box::new(|| figures::fig13(59)),
        ),
        (
            "fig14",
            "Fig 14 — distributed matmul scaling",
            Box::new(figures::fig14),
        ),
        (
            "fig15",
            "Fig 15 — cluster GEMM TFLOPs",
            Box::new(figures::fig15),
        ),
        (
            "fig16",
            "Fig 16 — 8-way all-reduce bandwidth",
            Box::new(figures::fig16),
        ),
        (
            "fig17",
            "Fig 17 — BERT-Large latency distribution (24,240 runs)",
            Box::new(|| figures::fig17(24_240)),
        ),
        (
            "fig18",
            "Fig 18 — BERT encoder scaling",
            Box::new(figures::fig18),
        ),
        (
            "fig19",
            "Fig 19 — Cholesky factorization",
            Box::new(figures::fig19),
        ),
        (
            "fig20",
            "Fig 20 — compiler optimization breakdown",
            Box::new(figures::fig20),
        ),
        (
            "sec56",
            "§5.6 — all-reduce pipelined latency",
            Box::new(figures::sec56),
        ),
        (
            "ablate-local-group",
            "Ablation — mesh vs torus local group",
            Box::new(tsm_bench::ablations::local_group),
        ),
        (
            "ablate-spreading",
            "Ablation — minimal vs spread routing",
            Box::new(tsm_bench::ablations::spreading),
        ),
        (
            "ablate-determinism",
            "Ablation — SSN vs dynamic routing",
            Box::new(tsm_bench::ablations::routing_determinism),
        ),
        (
            "ablate-fec",
            "Ablation — FEC vs link-layer retry",
            Box::new(tsm_bench::ablations::fec_vs_retry),
        ),
        (
            "ext-training",
            "Extension — data-parallel training weak scaling",
            Box::new(figures::ext_training),
        ),
        (
            "ext-lstm",
            "Extension — LSTM batch-1 regime",
            Box::new(figures::ext_lstm),
        ),
        (
            "bench-cosim",
            "Bench — co-simulation engine throughput + scaling curve (writes BENCH_cosim.json)",
            Box::new(emit_bench_cosim),
        ),
        (
            "bench-cosim-smoke",
            "Bench — fast co-simulation smoke (identity asserts, no files)",
            Box::new(smoke_bench_cosim),
        ),
        (
            "profile",
            "Profile — plan-vs-actual conformance of a datapath launch (writes trace_profile.trace.json)",
            Box::new(tsm_bench::profile_cli::lines),
        ),
        (
            "serve",
            "Serve — BERT tail latency vs offered load × batch window (updates the serving block of BENCH_cosim.json)",
            Box::new(emit_serve),
        ),
        (
            "serve-smoke",
            "Serve — fast serving smoke (certification + reproducibility asserts, no files)",
            Box::new(smoke_serve),
        ),
        (
            "telemetry",
            "Telemetry — windowed SLO series + utilization heatmaps (updates the telemetry block of BENCH_cosim.json)",
            Box::new(emit_telemetry),
        ),
        (
            "telemetry-smoke",
            "Telemetry — fast sampling smoke (bit-reproducibility + off-identity asserts, no files)",
            Box::new(smoke_telemetry),
        ),
        (
            "attribution",
            "Attribution — causal latency breakdown + flight recorder (updates the attribution block of BENCH_cosim.json)",
            Box::new(emit_attribution),
        ),
        (
            "attribution-smoke",
            "Attribution — fast sums-to-total + incident-reproducibility smoke (no files)",
            Box::new(smoke_attribution),
        ),
        (
            "incidents",
            "Incidents — render the flight recorder's captured incident reports (no files)",
            Box::new(emit_incidents),
        ),
        (
            "residency",
            "Residency — multi-model plan-cache thrash + warm-start tier (updates the residency block of BENCH_cosim.json)",
            Box::new(emit_residency),
        ),
        (
            "residency-smoke",
            "Residency — fast cache-thrash smoke (hit-rate + warm-tier asserts, no files)",
            Box::new(smoke_residency),
        ),
    ];

    let mut matched = false;
    for (key, title, f) in &sections {
        if want(key) {
            matched = true;
            println!("== {title} ==");
            for line in f() {
                println!("{line}");
            }
            println!();
        }
    }
    if !matched {
        eprintln!("unknown figure id; known ids:");
        for (key, title, _) in &sections {
            eprintln!("  {key:<9} {title}");
        }
        std::process::exit(1);
    }
}
