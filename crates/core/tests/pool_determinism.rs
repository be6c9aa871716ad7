//! Parallel-executor determinism contract: for ANY worker count — more
//! workers than chips, fewer workers than chips, odd widths, width changes
//! on a live executor, chip-level errors — the parallel engine's report
//! (or error) AND its trace event stream are bit-identical to the serial
//! engine's. The fan-out, the compile-time shard partition, and the
//! spine-side merge are the parallel executor; these tests are its oracle.

#![allow(dead_code)]

use std::sync::Arc;
use tsm_core::cosim::{
    compile_plan, CompiledPlan, CosimError, CosimTransfer, LinkFaultModel, PlanExecutor,
    TransferShape,
};
use tsm_isa::Vector;
use tsm_topology::{Topology, TspId};
use tsm_trace::{RingSink, TraceEvent};

use proptest::prelude::*;

type Payload = Arc<Vector>;

/// Raw generator output for one transfer: TSP picks are taken modulo the
/// topology size, `to` is offset past `from` so the endpoints differ.
type RawTransfer = (u32, u32, u8, u8, usize, u8);

fn raw_transfer() -> impl Strategy<Value = RawTransfer> {
    (0u32..24, 0u32..23, 0u8..8, 0u8..8, 1usize..=20, any::<u8>())
}

/// Materializes raw generator output against a concrete topology. SRAM
/// regions are spaced 32 offsets apart (> max vector count), so distinct
/// transfers never overlap in any chip's memory.
fn build_transfers(topo: &Topology, raw: &[RawTransfer]) -> Vec<CosimTransfer> {
    let tsps = topo.num_tsps() as u32;
    raw.iter()
        .enumerate()
        .map(|(idx, &(f, t, src_slice, dst_slice, vectors, seed))| {
            let from = f % tsps;
            let rest = t % (tsps - 1);
            let to = if rest >= from { rest + 1 } else { rest };
            CosimTransfer {
                from: TspId(from),
                to: TspId(to),
                src_slice,
                src_offset: (idx * 32) as u16,
                dst_slice,
                dst_offset: (idx * 32) as u16,
                data: (0..vectors)
                    .map(|v| {
                        Vector::from_fn(|b| (b as u8) ^ seed.wrapping_add((idx * 31 + v) as u8))
                    })
                    .collect(),
            }
        })
        .collect()
}

/// One traced run at an explicit worker count; returns the report result
/// and the canonical `(cycle, lane, seq)`-ordered event stream.
#[allow(clippy::type_complexity)]
fn traced_run_with_threads(
    plan: &CompiledPlan,
    payloads: &[Vec<Payload>],
    threads: Option<usize>,
    faults: Option<&LinkFaultModel>,
) -> (
    Result<tsm_core::cosim::CosimReport, tsm_core::cosim::CosimError>,
    Vec<TraceEvent>,
) {
    let sink = Arc::new(RingSink::new(1 << 16));
    let mut exec = PlanExecutor::new();
    exec.set_trace_sink(sink.clone());
    let report = match threads {
        // Serial entry point: the reference semantics.
        None => match faults {
            None => exec.execute_serial(plan, payloads),
            Some(f) => exec.execute_with_faults_serial(plan, payloads, f),
        },
        Some(t) => {
            exec.set_threads(t);
            match faults {
                None => exec.execute(plan, payloads),
                Some(f) => exec.execute_with_faults(plan, payloads, f),
            }
        }
    };
    assert_eq!(sink.dropped(), 0, "ring must be large enough for the run");
    (report, sink.sorted_events())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized workloads × randomized worker counts (1, even, odd,
    /// far more than any level holds): report and trace equal the serial
    /// engine's bit for bit. Random multi-transfer workloads produce
    /// uneven hop-depth levels, so worker counts both above and below the
    /// level populations are continuously exercised.
    #[test]
    fn any_worker_count_matches_serial(
        nodes in 2usize..=3,
        raw in prop::collection::vec(raw_transfer(), 1..=6),
        threads in 1usize..=33,
    ) {
        let topo = Topology::fully_connected_nodes(nodes).expect("topology builds");
        let transfers = build_transfers(&topo, &raw);
        let shapes: Vec<TransferShape> = transfers.iter().map(TransferShape::from).collect();
        let Ok(plan) = compile_plan(&topo, &shapes) else { return Ok(()) };
        let payloads: Vec<_> = transfers.iter().map(CosimTransfer::payload).collect();

        let (want, want_events) = traced_run_with_threads(&plan, &payloads, None, None);
        let (got, got_events) = traced_run_with_threads(&plan, &payloads, Some(threads), None);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(&got_events, &want_events);
        prop_assert!(!want_events.is_empty(), "instrumented run records events");
    }

    /// The same contract under datapath BER injection: corruption happens
    /// in the serial bind phase, so no worker count may perturb it.
    #[test]
    fn any_worker_count_matches_serial_under_faults(
        raw in prop::collection::vec(raw_transfer(), 1..=4),
        threads in 2usize..=9,
        ber_seed in any::<u64>(),
    ) {
        let topo = Topology::fully_connected_nodes(3).expect("topology builds");
        let transfers = build_transfers(&topo, &raw);
        let shapes: Vec<TransferShape> = transfers.iter().map(TransferShape::from).collect();
        let Ok(plan) = compile_plan(&topo, &shapes) else { return Ok(()) };
        let payloads: Vec<_> = transfers.iter().map(CosimTransfer::payload).collect();
        let faults = LinkFaultModel::uniform(1e-6, ber_seed);

        let (want, want_events) =
            traced_run_with_threads(&plan, &payloads, None, Some(&faults));
        let (got, got_events) =
            traced_run_with_threads(&plan, &payloads, Some(threads), Some(&faults));
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got_events, want_events);
    }

    /// One executor re-used across changing worker counts and repeated
    /// runs stays bit-identical throughout.
    #[test]
    fn width_changes_on_a_live_executor_stay_identical(
        raw in prop::collection::vec(raw_transfer(), 1..=4),
        widths in prop::collection::vec(1usize..=12, 2..=4),
    ) {
        let topo = Topology::fully_connected_nodes(2).expect("topology builds");
        let transfers = build_transfers(&topo, &raw);
        let shapes: Vec<TransferShape> = transfers.iter().map(TransferShape::from).collect();
        let Ok(plan) = compile_plan(&topo, &shapes) else { return Ok(()) };
        let payloads: Vec<_> = transfers.iter().map(CosimTransfer::payload).collect();

        let mut reference = PlanExecutor::new();
        let want = reference.execute_serial(&plan, &payloads);
        let mut exec = PlanExecutor::new();
        for w in widths {
            exec.set_threads(w);
            prop_assert_eq!(&exec.execute(&plan, &payloads), &want);
        }
    }
}

/// A deep (multi-hop, uneven-level) dragonfly workload, so levels of very
/// different populations are covered.
fn fixed_workload() -> (CompiledPlan, Vec<Vec<Payload>>) {
    let topo = Topology::rack_dragonfly(2).expect("topology builds");
    let raw: Vec<RawTransfer> = vec![
        (0, 140, 1, 2, 12, 0x5a),
        (77, 3, 0, 4, 7, 0x21),
        (139, 64, 3, 3, 20, 0xe7),
        (23, 23, 5, 1, 1, 0x80),
    ];
    let transfers = build_transfers(&topo, &raw);
    let shapes: Vec<TransferShape> = transfers.iter().map(TransferShape::from).collect();
    let plan = compile_plan(&topo, &shapes).unwrap();
    let payloads = transfers.iter().map(CosimTransfer::payload).collect();
    (plan, payloads)
}

/// Deterministic pin of the extremes on the fixed workload: 1 worker, a
/// few odd widths, and a width far beyond the chip count all reproduce the
/// serial report and trace exactly.
#[test]
fn fixed_workload_all_widths_identical() {
    let (plan, payloads) = fixed_workload();
    let (want, want_events) = traced_run_with_threads(&plan, &payloads, None, None);
    want.as_ref().expect("fixed workload executes");
    for threads in [1usize, 2, 3, 5, 8, 64, 1000] {
        let (got, got_events) = traced_run_with_threads(&plan, &payloads, Some(threads), None);
        assert_eq!(got, want, "report diverged at {threads} workers");
        assert_eq!(
            got_events, want_events,
            "trace diverged at {threads} workers"
        );
    }
}

/// Worker-count resolution precedence: explicit `set_threads` beats the
/// `TSM_THREADS` environment variable, which beats auto-detection;
/// malformed and zero env values fall through to auto. The only test in
/// this binary that touches the environment.
#[test]
fn thread_resolution_precedence() {
    let auto = {
        std::env::remove_var(tsm_core::cosim::exec::TSM_THREADS_ENV);
        PlanExecutor::new().resolved_threads()
    };
    assert!(auto >= 1);

    std::env::set_var(tsm_core::cosim::exec::TSM_THREADS_ENV, "7");
    let mut exec = PlanExecutor::new();
    assert_eq!(exec.resolved_threads(), 7);
    exec.set_threads(3);
    assert_eq!(exec.resolved_threads(), 3);
    exec.set_threads(0); // clamped
    assert_eq!(exec.resolved_threads(), 1);
    let exec = PlanExecutor::new();
    assert_eq!(exec.resolved_threads(), 7);

    for bad in ["0", "-4", "lots", ""] {
        std::env::set_var(tsm_core::cosim::exec::TSM_THREADS_ENV, bad);
        assert_eq!(
            exec.resolved_threads(),
            auto,
            "env value {bad:?} must fall back to auto"
        );
    }
    std::env::remove_var(tsm_core::cosim::exec::TSM_THREADS_ENV);
    assert_eq!(exec.resolved_threads(), auto);
}

/// The fan-out actually executes on its workers: a 2-worker run on a
/// many-chip level completes (the shard partition covers every chip) and
/// the executor can be dropped and rebuilt without hanging.
#[test]
fn pool_lifecycle_smoke() {
    let topo = Topology::fully_connected_nodes(3).expect("topology builds");
    let raw: Vec<RawTransfer> = (0..6)
        .map(|i| {
            (
                i * 5,
                i * 3 + 1,
                (i % 8) as u8,
                ((i + 2) % 8) as u8,
                4,
                i as u8,
            )
        })
        .collect();
    let transfers = build_transfers(&topo, &raw);
    let shapes: Vec<TransferShape> = transfers.iter().map(TransferShape::from).collect();
    let plan = compile_plan(&topo, &shapes).unwrap();
    let payloads: Vec<_> = transfers.iter().map(CosimTransfer::payload).collect();

    for _ in 0..3 {
        let mut exec = PlanExecutor::new();
        exec.set_threads(2);
        let a = exec.execute(&plan, &payloads).unwrap();
        let b = exec.execute(&plan, &payloads).unwrap();
        assert_eq!(a, b, "warm re-execution is bit-identical");
        drop(exec);
    }
}

/// A chip-level error on the parallel path. Forged emission promises on
/// two chips at different depths both fail verification: every width
/// reports the shallower chip's mismatch, with the serial engine's exact
/// event sequence. The fan-out runs deeper chips past that error, so the
/// same executor's next execute of the genuine plan must still equal the
/// reference report — reset-not-rebuild leaks nothing across the failure.
#[test]
fn chip_errors_match_serial_at_every_width() {
    let (plan, payloads) = fixed_workload();
    let reference = PlanExecutor::new()
        .execute_serial(&plan, &payloads)
        .expect("genuine plan executes");

    // The first and last emitting chips in (depth, TspId) merge order.
    let emitting = |i: &&u32| !plan.chips[**i as usize].emissions.is_empty();
    let shallow = *plan.levels.iter().flatten().find(emitting).unwrap() as usize;
    let deep = *plan.levels.iter().flatten().rev().find(emitting).unwrap() as usize;
    assert!(plan.chips[shallow].depth < plan.chips[deep].depth);
    let mut forged = plan.clone();
    for i in [shallow, deep] {
        // Bumping the last promise keeps the (cycle, port) sort intact.
        forged.chips[i].emissions.last_mut().unwrap().cycle += 1;
    }

    let traced = |exec: &mut PlanExecutor, threads: Option<usize>| {
        let sink = Arc::new(RingSink::new(1 << 16));
        exec.set_trace_sink(sink.clone());
        let got = match threads {
            None => exec.execute_serial(&forged, &payloads),
            Some(t) => {
                exec.set_threads(t);
                exec.execute(&forged, &payloads)
            }
        };
        exec.clear_trace_sink();
        assert_eq!(sink.dropped(), 0, "ring must be large enough for the run");
        (got, sink.events())
    };
    let (want, want_events) = traced(&mut PlanExecutor::new(), None);
    match &want {
        Err(CosimError::EmissionMismatch { tsp, .. }) => assert_eq!(*tsp, plan.chips[shallow].tsp),
        other => panic!("forged plan must fail emission verification: {other:?}"),
    }
    assert!(!want_events.is_empty());
    for threads in 1..=8 {
        let mut exec = PlanExecutor::new();
        let (got, got_events) = traced(&mut exec, Some(threads));
        assert_eq!(got, want, "error diverged at {threads} workers");
        assert_eq!(
            got_events, want_events,
            "trace diverged at {threads} workers"
        );
        assert_eq!(
            exec.execute(&plan, &payloads),
            Ok(reference.clone()),
            "state leaked past the failure at {threads} workers"
        );
    }
}
