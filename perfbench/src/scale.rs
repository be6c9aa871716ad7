//! `scale_10440`: warm `PlanExecutor::execute` calls on the paper's
//! full deployment, the 145-rack, 10,440-chip dragonfly (§2.2), running
//! the half-stride paired workload: TSP `i` of the first half streams two
//! vectors to one TSP of the second half. `compile_plan` runs once per
//! set-up. Host time is almost all chip execution plus worker-pool
//! dispatch; serving, residency and the observers are absent.

use crate::host::{ms_since, timed};
use crate::record::{Record, Sim};
use crate::spans::Spans;
use crate::stats::{mix, quantile};
use crate::{Opts, Size};
use std::time::Instant;
use tsm::chip::exec::Payload;
use tsm::core::cosim::{
    compile_plan, CompiledPlan, CosimError, CosimReport, CosimTransfer, LinkFaultModel,
    PlanExecutor, TransferShape,
};
use tsm::isa::vector::VECTOR_BYTES;
use tsm::isa::Vector;
use tsm::topology::{Topology, TspId};
use tsm::trace::names;

/// Uniform BER of the traced run's faulty executes: FEC corrects on
/// most, and the rare uncorrectable attempt replays with a fresh seed.
const FAULT_BER: f64 = 1e-6;
/// Attempts one faulty execute may take before it counts as failed.
const FAULT_ATTEMPTS: u64 = 8;

struct Dims {
    racks: usize,
    /// Executes the exact counts cover.
    executes: u64,
    setup_reps: usize,
}

fn dims(size: Size) -> Dims {
    match size {
        Size::Full => Dims {
            racks: 145,
            executes: 20,
            setup_reps: 5,
        },
        Size::Tiny => Dims {
            racks: 4,
            executes: 3,
            setup_reps: 1,
        },
    }
}

/// The half-stride pairing: TSP `i < N/2` streams two vectors to TSP
/// `i + N/2`, so every chip is an endpoint of exactly one transfer and
/// every flow crosses nodes. The seed picks the payload bytes. The
/// schedule, and so every simulated count, is the same for every seed:
/// the paper's network is statically scheduled.
fn paired(topo: &Topology, seed: u64) -> Vec<CosimTransfer> {
    let half = (topo.num_tsps() / 2) as u32;
    let salt = mix(seed, 1) as u8;
    (0..half)
        .map(|i| CosimTransfer {
            from: TspId(i),
            to: TspId(i + half),
            src_slice: 0,
            src_offset: 0,
            dst_slice: 2,
            dst_offset: 0,
            data: (0..2u8)
                .map(|v| {
                    Vector::from_fn(|b| {
                        (b as u8) ^ (i as u8).wrapping_mul(29).wrapping_add(v) ^ salt
                    })
                })
                .collect(),
        })
        .collect()
}

/// Estimated heap bytes of a compiled plan plus its bound payloads, by
/// the residency layer's estimate for datapath artifacts.
fn plan_bytes(plan: &CompiledPlan, payloads: &[Vec<Payload>]) -> u64 {
    use std::mem::size_of_val;
    let mut bytes = size_of_val(&plan.shapes[..])
        + size_of_val(&plan.slab[..])
        + size_of_val(&plan.arrivals[..]);
    for chip in &plan.chips {
        bytes += size_of_val(chip)
            + size_of_val(&chip.preloads[..])
            + size_of_val(&chip.deliveries[..])
            + size_of_val(&chip.emissions[..]);
    }
    for level in &plan.levels {
        bytes += size_of_val(&level[..]);
    }
    bytes += payloads
        .iter()
        .map(|p| p.len() * VECTOR_BYTES)
        .sum::<usize>();
    bytes as u64
}

/// One set-up: the topology, the compiled plan, and a warm executor.
struct Warm {
    plan: CompiledPlan,
    payloads: Vec<Vec<Payload>>,
    exec: PlanExecutor,
    reference: CosimReport,
}

/// Builds the system and compiles the plan; the compile plus first
/// execute is the cold op, pushed to `cold` in ms.
fn setup(d: &Dims, seed: u64, cold: &mut Vec<f64>, spans: &mut Spans) -> Result<Warm, CosimError> {
    let topo = Topology::rack_dragonfly(d.racks).expect("dragonfly builds");
    let transfers = paired(&topo, seed);
    let shapes: Vec<TransferShape> = transfers.iter().map(TransferShape::from).collect();
    let t0 = Instant::now();
    let plan = spans.time("plan.compile", 0, |_| compile_plan(&topo, &shapes))?;
    let payloads: Vec<Vec<Payload>> = transfers.iter().map(CosimTransfer::payload).collect();
    let mut exec = PlanExecutor::new();
    let reference = exec.execute(&plan, &payloads)?;
    cold.push(ms_since(t0));
    Ok(Warm {
        plan,
        payloads,
        exec,
        reference,
    })
}

/// Adds one execute to the simulated metrics: its latency is the last
/// chip's retire cycle, and it meets its SLO when every vector arrived
/// by the cycle the compiled schedule planned for it.
fn add_sim(sim: &mut Sim, r: &CosimReport, plan: &CompiledPlan) {
    sim.latencies
        .push(r.retire_cycles.values().copied().max().unwrap_or(0));
    sim.met += u64::from(r.arrivals.iter().zip(&plan.arrivals).all(|(a, p)| a <= p));
}

/// Runs the workload: the untraced timed phase, or the traced run.
pub fn run(opts: &Opts, rec: &mut Record, spans: &mut Spans) {
    let d = dims(opts.size);
    let mut setup_s = Vec::new();
    let mut cold = Vec::new();
    let mut kept = None;
    let reps = if opts.trace { 1 } else { d.setup_reps };
    for _ in 0..reps {
        drop(kept.take());
        let (res, ms) = timed(|| setup(&d, opts.seed, &mut cold, spans));
        setup_s.push(ms / 1e3);
        if let Err(e) = &res {
            eprintln!("scale_10440: set-up: {e}");
        }
        let ok = rec.check("setup_compiles_and_executes", res.is_ok());
        rec.op(ok);
        kept = res.ok();
    }
    let Some(mut w) = kept else {
        return;
    };
    let instructions = w.reference.instructions;
    let deliveries = w.reference.metrics.counter(names::COSIM_DELIVERIES);
    if opts.trace {
        rec.host_quantile("plan.compile_ms", &spans.durations_ms("plan.compile"), 0.5);
        rec.exact("plan.instructions", w.plan.instructions as f64, 1);
        rec.exact("plan.bytes", plan_bytes(&w.plan, &w.payloads) as f64, 1);
        rec.exact("exec.instructions", instructions as f64, 1);
        rec.exact("exec.deliveries", deliveries as f64, 1);
        // The timed phase runs on one worker (see `run.py`); the traced
        // run widens the pool to every core, so `exec.parallel_ms` and
        // `exec.pool_speedup` read the worker pool itself.
        w.exec
            .set_threads(std::thread::available_parallelism().map_or(1, |n| n.get()));
        rec.exact("exec.threads", w.exec.resolved_threads() as f64, 1);
        traced(opts, &d, &mut w, rec, spans);
        return;
    }
    rec.host_quantile("setup_s", &setup_s, 0.5);
    rec.host_quantile("cold_op_ms_p50", &cold, 0.5);

    let mut ops = Vec::new();
    let mut sim = Sim {
        offered: d.executes,
        ..Sim::default()
    };
    let start = Instant::now();
    let mut i = 0;
    while i < d.executes || start.elapsed().as_secs_f64() < opts.seconds {
        let (res, ms) = timed(|| w.exec.execute(&w.plan, &w.payloads));
        let ok = rec.check(
            "warm_execute_matches_reference",
            res.as_ref().is_ok_and(|r| *r == w.reference),
        );
        rec.op(ok);
        if let Ok(r) = res {
            ops.push(ms);
            if i < d.executes {
                add_sim(&mut sim, &r, &w.plan);
            }
        }
        i += 1;
    }
    // serial ≡ parallel, once, outside the timed phase.
    let serial = w.exec.execute_serial(&w.plan, &w.payloads);
    let ok = rec.check(
        "serial_equals_parallel",
        serial.is_ok_and(|s| s == w.reference),
    );
    rec.op(ok);

    rec.host_rate("ops_per_s", &ops);
    rec.host_quantile("op_ms_p50", &ops, 0.5);
    rec.host_quantile("warm_op_ms_p50", &ops, 0.5);
    rec.host_quantile("op_ms_p90", &ops, 0.9);
    sim.report(rec);
}

/// The traced run: per iteration a serial execute, a parallel execute
/// both untraced and inside a span (order alternating; their ratio is
/// the tracing overhead), and an execute with faults injected.
fn traced(opts: &Opts, d: &Dims, w: &mut Warm, rec: &mut Record, spans: &mut Spans) {
    let mut overhead = Vec::new();
    let mut sim = Sim {
        offered: d.executes,
        ..Sim::default()
    };
    let (mut clean, mut corrected, mut uncorrectable) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    let mut i = 0;
    while i < d.executes || start.elapsed().as_secs_f64() < opts.seconds {
        let mut ok = true;
        let mut untraced_ms = 0.0;
        let mut plain = |w: &mut Warm| {
            let t0 = Instant::now();
            let r = w.exec.execute(&w.plan, &w.payloads);
            untraced_ms = ms_since(t0);
            r
        };
        let first = (i % 2 == 1).then(|| plain(w));
        let res = spans.time("exec.parallel", i, |_| w.exec.execute(&w.plan, &w.payloads));
        let second = first.unwrap_or_else(|| plain(w));
        overhead.push(spans.last_ms("exec.parallel").unwrap_or(0.0) / untraced_ms);
        ok &= rec.check(
            "warm_execute_matches_reference",
            res.as_ref().is_ok_and(|r| *r == w.reference) && second.is_ok_and(|r| r == w.reference),
        );
        if let Ok(r) = &res {
            if i < d.executes {
                add_sim(&mut sim, r, &w.plan);
            }
        }
        let serial = spans.time("exec.serial", i, |_| {
            w.exec.execute_serial(&w.plan, &w.payloads)
        });
        ok &= rec.check(
            "serial_equals_parallel",
            serial.is_ok_and(|s| s == w.reference),
        );
        let mut recovered = false;
        for attempt in 0..FAULT_ATTEMPTS {
            let faults = LinkFaultModel::uniform(FAULT_BER, mix(opts.seed, (i << 8) | attempt));
            let r = spans.time("exec.faulty", i, |_| {
                w.exec.execute_with_faults(&w.plan, &w.payloads, &faults)
            });
            let fec = match &r {
                Ok(rep) => rep.fec(),
                Err(CosimError::Uncorrectable { fec, .. }) => *fec,
                Err(_) => break,
            };
            if i < d.executes {
                clean += fec.clean;
                corrected += fec.corrected;
                uncorrectable += fec.uncorrectable;
            }
            if let Ok(rep) = r {
                recovered = rep.dst_digests == w.reference.dst_digests;
                break;
            }
        }
        ok &= rec.check("faulty_execute_recovers_reference", recovered);
        rec.op(ok);
        i += 1;
    }
    sim.report(rec);
    let k = d.executes as usize;
    rec.exact("fec.clean", clean as f64, k);
    rec.exact("fec.corrected", corrected as f64, k);
    rec.exact("fec.uncorrectable", uncorrectable as f64, k);

    let serial = spans.durations_ms("exec.serial");
    let parallel = spans.durations_ms("exec.parallel");
    let faulty = spans.durations_ms("exec.faulty");
    rec.host_quantile("exec.serial_ms", &serial, 0.5);
    rec.host_quantile("exec.parallel_ms", &parallel, 0.5);
    let med = |v: &[f64]| quantile(v, 0.5).unwrap_or(0.0);
    rec.host(
        "exec.pool_speedup",
        med(&serial) / med(&parallel),
        serial.len().min(parallel.len()),
    );
    rec.host(
        "exec.ns_per_instr",
        med(&parallel) * 1e6 / w.reference.instructions.max(1) as f64,
        parallel.len(),
    );
    let deliveries = w.reference.metrics.counter(names::COSIM_DELIVERIES).max(1);
    rec.host(
        "fec.ns_per_delivery",
        (med(&faulty) - med(&parallel)) * 1e6 / deliveries as f64,
        faulty.len().min(parallel.len()),
    );
    rec.host_quantile("bench.trace_overhead", &overhead, 0.5);
}
