//! `launch_churn`: a closed loop of `Runtime::launch` calls over nine
//! plans — BERT with 4, 8 or 12 encoders × batch 1, 2 or 4 — on a 4-node
//! datapath runtime whose plan budget holds about half the working set.
//!
//! Model popularity is Zipf-like over a fixed rank order: each block of
//! the launch stream holds every plan its Zipf share of times, in an
//! order shuffled from the seed. The fabric is marginal: every link has a
//! uniform BER, so FEC corrects routinely and some launches replay, and
//! the cables inside node 0, where the plans first map, are failing, so
//! the first launch of a run exhausts its replays, the blame vote fails
//! node 0 over to the spare, and every resident plan recompiles. About a
//! quarter of launches compile and evict, so compile, residency policy,
//! FEC and recovery all show here; the serving loop and the observers are
//! bypassed.

use crate::host::{ms_since, timed};
use crate::record::{Record, Sim};
use crate::spans::Spans;
use crate::stages::{span, staged_launch};
use crate::stats::{mix, unit};
use crate::{Opts, Size};
use std::time::Instant;
use tsm::compiler::graph::Graph;
use tsm::compiler::schedule::CompileOptions;
use tsm::core::runtime::{ExecMode, LaunchOutcome, Runtime, RuntimeError, SparePolicy};
use tsm::core::system::System;
use tsm::topology::{LinkId, NodeId};
use tsm::trace::names;
use tsm::workloads::BertConfig;

/// Uniform bit error rate of every link: FEC corrects on most launches
/// and about one launch in a hundred replays, so with `MAX_REPLAYS` a
/// second, spare-exhausting failover is vanishingly rare. At 2e-6 with
/// the default two replays, and at 1.5e-6 with four, runs of 2,000
/// launches ran out of spares. At 1e-6 about 0.8 % of launches were
/// replayed batch-4 launches slower than any fault-free one, so the
/// simulated p99 sat on that edge and moved by a third with the seed.
const BER: f64 = 5e-7;
/// Replays before a fault counts as persistent.
const MAX_REPLAYS: u32 = 6;
/// Bit error rate of the failing cables inside node 0.
const FAILING_BER: f64 = 1e-3;
/// Encoder counts and batch sizes of the nine plans.
const ENCODERS: [usize; 3] = [4, 8, 12];
const BATCHES: [u32; 3] = [1, 2, 4];
/// Popularity rank of each plan, encoder-major. Simulated latencies take
/// a few discrete values, so the ranks keep each quantile well inside
/// one plan's share instead of on an edge that moves from seed to seed:
/// the most popular plan sits mid-way in latency (the median), and the
/// batch-4 plans are the least popular, so fewer than 1 % of launches
/// replay past the slowest plan's fault-free latency (the p99).
const RANK: [u32; 9] = [2, 4, 7, 3, 5, 8, 1, 6, 9];
/// Popularity of the rank-`r` plan is proportional to `r^-ZIPF_EXPONENT`.
/// Skewed enough that the batch-1 plans, whose warm launches cost about
/// the same, carry most launches: the host-time median then falls among
/// them rather than on the edge of a slower group.
const ZIPF_EXPONENT: f64 = 1.3;

struct Dims {
    /// Encoder rows of the plan table in use.
    rows: usize,
    /// Launches the simulated metrics and exact counts cover.
    launches: u64,
    setup_reps: usize,
}

fn dims(size: Size) -> Dims {
    match size {
        Size::Full => Dims {
            rows: 3,
            launches: 600,
            setup_reps: 5,
        },
        Size::Tiny => Dims {
            rows: 1,
            launches: 24,
            setup_reps: 1,
        },
    }
}

/// One plan of the churn set with its fault-free reference.
struct Model {
    graph: Graph,
    weight: f64,
    /// Fault-free destination digests.
    digests: Vec<u64>,
    bytes: u64,
    instructions: u64,
}

fn runtime() -> Runtime {
    Runtime::new(
        System::with_nodes(4).expect("4 nodes"),
        SparePolicy::PerSystem,
    )
    .with_exec_mode(ExecMode::Datapath)
}

/// Set-up: every plan launched once on a fault-free runtime for its
/// reference, and the churn runtime with half the working set's budget.
fn setup(d: &Dims, seed: u64) -> Result<(Vec<Model>, Runtime), RuntimeError> {
    let mut reference = runtime();
    reference.set_ber(0.0, 0.0);
    let mut models = Vec::new();
    for (row, &enc) in ENCODERS.iter().enumerate().take(d.rows) {
        for (col, &batch) in BATCHES.iter().enumerate() {
            let graph = BertConfig {
                batch: u64::from(batch),
                ..BertConfig::with_encoders(enc)
            }
            .build_pipeline_graph(4);
            let before = reference.residency().stats().resident_bytes;
            let out = reference.launch(&graph, mix(seed, models.len() as u64))?;
            models.push(Model {
                graph,
                weight: f64::from(RANK[row * BATCHES.len() + col]).powf(-ZIPF_EXPONENT),
                digests: out.dst_digests.clone(),
                bytes: reference.residency().stats().resident_bytes - before,
                instructions: out.metrics.counter(names::COSIM_INSTRUCTIONS),
            });
        }
    }
    let working_set: u64 = models.iter().map(|m| m.bytes).sum();
    let mut rt = runtime().with_plan_budget(working_set / 2);
    rt.set_ber(BER, FAILING_BER);
    rt.set_max_replays(MAX_REPLAYS);
    let failing: Vec<LinkId> = (0..rt.system().topology().links().len() as u32)
        .map(LinkId)
        .filter(|&l| {
            let link = rt.system().topology().link(l);
            link.a.node() == NodeId(0) && link.b.node() == NodeId(0)
        })
        .collect();
    for l in failing {
        rt.degrade_link(l);
    }
    Ok((models, rt))
}

/// Launches per block of the launch stream. Each block holds every plan
/// its Zipf share of times, in an order shuffled from the seed, so the
/// popularity mix is the same for every seed and only the order, and so
/// the residency behaviour, varies.
const BLOCK: usize = 32;

/// Plan indices of block `block` of the launch stream.
fn block(models: &[Model], seed: u64, block: u64) -> Vec<usize> {
    let total: f64 = models.iter().map(|m| m.weight).sum();
    let shares: Vec<f64> = models
        .iter()
        .map(|m| m.weight / total * BLOCK as f64)
        .collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    // Largest remainders take the slots left over.
    let mut by_remainder: Vec<usize> = (0..models.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        (shares[b] - shares[b].floor()).total_cmp(&(shares[a] - shares[a].floor()))
    });
    let missing = BLOCK - counts.iter().sum::<usize>();
    for &k in by_remainder.iter().take(missing) {
        counts[k] += 1;
    }
    let mut order: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(k, &c)| std::iter::repeat_n(k, c))
        .collect();
    for j in (1..order.len()).rev() {
        let r = (unit(seed, (block << 8) | j as u64) * (j + 1) as f64) as usize;
        order.swap(j, r.min(j));
    }
    order
}

fn launch_seed(seed: u64, i: u64) -> u64 {
    mix(seed, (1 << 32) + i)
}

/// Adds one launch to the simulated metrics: a launch meets its SLO when
/// it converged on its first attempt, so no fault delayed it.
fn add_sim(sim: &mut Sim, out: &LaunchOutcome) {
    sim.latencies.push(out.timeline_cycles);
    sim.met += u64::from(out.attempts() == 1);
}

fn check_launch(rec: &mut Record, model: &Model, out: &LaunchOutcome) -> bool {
    rec.check(
        "recovered_digests_match_reference",
        out.dst_digests == model.digests,
    )
}

/// Runs the workload: the untraced timed phase, or the traced run.
pub fn run(opts: &Opts, rec: &mut Record, spans: &mut Spans) {
    let d = dims(opts.size);
    let mut setup_s = Vec::new();
    let mut kept = None;
    let reps = if opts.trace { 1 } else { d.setup_reps };
    for _ in 0..reps {
        drop(kept.take());
        let (res, ms) = timed(|| setup(&d, opts.seed));
        setup_s.push(ms / 1e3);
        if let Err(e) = &res {
            eprintln!("launch_churn: set-up: {e}");
        }
        let ok = rec.check("setup_launches_succeed", res.is_ok());
        rec.op(ok);
        kept = res.ok();
    }
    let Some((models, rt)) = kept else {
        return;
    };
    if opts.trace {
        traced(opts, &d, &models, rt, rec, spans);
        return;
    }
    rec.host_quantile("setup_s", &setup_s, 0.5);
    let mut rt = rt;
    let mut sim = Sim {
        offered: d.launches,
        ..Sim::default()
    };
    let mut all = Vec::new();
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    let mut order = Vec::new();
    while i < d.launches || start.elapsed().as_secs_f64() < opts.seconds {
        if i % BLOCK as u64 == 0 {
            order = block(&models, opts.seed, i / BLOCK as u64);
        }
        let m = &models[order[(i % BLOCK as u64) as usize]];
        let (res, ms) = timed(|| rt.launch(&m.graph, launch_seed(opts.seed, i)));
        match res {
            Ok(out) => {
                let ok = check_launch(rec, m, &out);
                rec.op(ok);
                all.push(ms);
                if out.compiles() > 0 {
                    &mut cold
                } else {
                    &mut warm
                }
                .push(ms);
                if i < d.launches {
                    add_sim(&mut sim, &out);
                }
            }
            Err(e) => {
                eprintln!("launch_churn: launch {i}: {e}");
                rec.op(false);
            }
        }
        i += 1;
    }
    sim.report(rec);
    rec.host_rate("ops_per_s", &all);
    rec.host_quantile("op_ms_p50", &all, 0.5);
    rec.host_quantile("op_ms_p90", &all, 0.9);
    rec.host_quantile("cold_op_ms_p50", &cold, 0.5);
    rec.host_quantile("warm_op_ms_p50", &warm, 0.5);
}

/// Exact per-layer counts over the launch prefix.
#[derive(Default)]
struct Counts {
    launches: u64,
    attempts: u64,
    replays: u64,
    failovers: u64,
    clean: u64,
    corrected: u64,
    uncorrectable: u64,
    instructions: u64,
    deliveries: u64,
    resident_max: u64,
}

/// The traced run: the same launch stream on two identical runtimes,
/// one through `Runtime::launch` untraced and one stage by stage with a
/// span per stage (order alternating), so the two outcomes must agree
/// and their time ratio is the tracing overhead. A launch that compiles
/// also has its schedule compile timed on its own.
fn traced(
    opts: &Opts,
    d: &Dims,
    models: &[Model],
    rt_plain: Runtime,
    rec: &mut Record,
    spans: &mut Spans,
) {
    let mut rt_plain = rt_plain;
    let mut rt = match setup(d, opts.seed) {
        Ok((_, rt)) => rt,
        Err(e) => {
            eprintln!("launch_churn: set-up: {e}");
            rec.op(false);
            return;
        }
    };
    let mut sim = Sim {
        offered: d.launches,
        ..Sim::default()
    };
    let mut c = Counts::default();
    let mut overhead = Vec::new();
    let mut plan_ms = Vec::new();
    let mut ns_per_instr = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    let mut order = Vec::new();
    while i < d.launches || start.elapsed().as_secs_f64() < opts.seconds {
        if i % BLOCK as u64 == 0 {
            order = block(models, opts.seed, i / BLOCK as u64);
        }
        let m = &models[order[(i % BLOCK as u64) as usize]];
        let seed = launch_seed(opts.seed, i);
        let mut plain_ms = 0.0;
        let mut plain = |rt_plain: &mut Runtime| {
            let t0 = Instant::now();
            let r = rt_plain.launch(&m.graph, seed);
            plain_ms = ms_since(t0);
            r
        };
        let mut plain_res = None;
        if i % 2 == 1 {
            plain_res = Some(plain(&mut rt_plain));
        }
        let res = staged_launch(&mut rt, &m.graph, seed, None, spans, i);
        let staged_ms = spans.last_ms(span::LAUNCH).unwrap_or(0.0);
        let plain_res = plain_res.unwrap_or_else(|| plain(&mut rt_plain));
        let (out, compiled) = match res {
            Ok(r) => r,
            Err(e) => {
                eprintln!("launch_churn: launch {i}: {e}");
                rec.op(false);
                i += 1;
                continue;
            }
        };
        let mut ok = check_launch(rec, m, &out);
        ok &= rec.check(
            "staged_launch_equals_runtime_launch",
            plain_res.as_ref().is_ok_and(|p| *p == out),
        );
        rec.op(ok);
        overhead.push(staged_ms / plain_ms);
        if compiled {
            let system = rt.system().clone();
            let schedule = spans.time("compiler.schedule", i, |_| {
                system.compile(&m.graph, CompileOptions::default())
            });
            rec.check("schedule_compiles", schedule.is_ok());
            let compile = spans.last_ms(span::COMPILE).unwrap_or(0.0);
            plan_ms.push(compile - spans.last_ms("compiler.schedule").unwrap_or(0.0));
        }
        let instructions = out.metrics.counter(names::COSIM_INSTRUCTIONS);
        if out.attempts() == 1 && instructions > 0 {
            let ms = spans.last_ms(span::EXECUTE).unwrap_or(0.0);
            ns_per_instr.push(ms * 1e6 / instructions as f64);
        }
        if i < d.launches {
            add_sim(&mut sim, &out);
            c.launches += 1;
            c.attempts += u64::from(out.attempts());
            c.replays += u64::from(out.replays());
            c.failovers += out.failovers.len() as u64;
            let fec = out.fec_total();
            c.clean += fec.clean;
            c.corrected += fec.corrected;
            c.uncorrectable += fec.uncorrectable;
            c.instructions += instructions;
            c.deliveries += out.metrics.counter(names::COSIM_DELIVERIES);
            c.resident_max = c.resident_max.max(rt.residency().stats().resident_bytes);
            if i + 1 == d.launches {
                let s = rt.residency().stats();
                let lookups = s.hits + s.misses;
                rec.exact("residency.hits", s.hits as f64, lookups as usize);
                rec.exact("residency.misses", s.misses as f64, lookups as usize);
                rec.exact("residency.evictions", s.evictions as f64, lookups as usize);
                rec.exact(
                    "residency.hit_rate",
                    s.hits as f64 / lookups.max(1) as f64,
                    lookups as usize,
                );
            }
        }
        i += 1;
    }
    sim.report(rec);
    let n = c.launches as usize;
    let per_launch = |v: u64| v as f64 / c.launches.max(1) as f64;
    rec.exact("launch.attempts", c.attempts as f64, n);
    rec.exact("launch.replays", c.replays as f64, n);
    rec.exact("launch.failovers", c.failovers as f64, n);
    rec.exact("residency.resident_bytes_max", c.resident_max as f64, n);
    rec.exact("fec.clean", c.clean as f64, n);
    rec.exact("fec.corrected", c.corrected as f64, n);
    rec.exact("fec.uncorrectable", c.uncorrectable as f64, n);
    rec.exact("exec.instructions", per_launch(c.instructions), n);
    rec.exact("exec.deliveries", per_launch(c.deliveries), n);
    rec.exact(
        "exec.threads",
        tsm::core::PlanExecutor::new().resolved_threads() as f64,
        1,
    );
    rec.exact(
        "plan.instructions",
        models.iter().map(|m| m.instructions).sum::<u64>() as f64,
        models.len(),
    );
    rec.exact(
        "plan.bytes",
        models.iter().map(|m| m.bytes).sum::<u64>() as f64,
        models.len(),
    );

    let us = |v: Vec<f64>| v.into_iter().map(|x| x * 1e3).collect::<Vec<_>>();
    rec.host_quantile(
        "launch.admit_begin_us",
        &us(spans.durations_ms(span::ADMIT_BEGIN)),
        0.5,
    );
    rec.host_quantile("launch.reuse_us", &us(spans.durations_ms(span::REUSE)), 0.5);
    rec.host_quantile("launch.compile_ms", &spans.durations_ms(span::COMPILE), 0.5);
    rec.host_quantile("launch.execute_ms", &spans.durations_ms(span::EXECUTE), 0.5);
    rec.host_quantile("launch.recover_ms", &spans.durations_ms(span::RECOVER), 0.5);
    rec.host_quantile(
        "launch.finish_us",
        &us(spans.durations_ms(span::FINISH)),
        0.5,
    );
    rec.host_quantile(
        "compiler.schedule_ms",
        &spans.durations_ms("compiler.schedule"),
        0.5,
    );
    rec.host_quantile("plan.compile_ms", &plan_ms, 0.5);
    rec.host_quantile("exec.ns_per_instr", &ns_per_instr, 0.5);
    rec.host_quantile("bench.trace_overhead", &overhead, 0.5);
}
