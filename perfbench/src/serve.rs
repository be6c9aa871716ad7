//! `serve_observed`: BERT-Large (24 encoders, 4-stage pipeline) on a
//! 4-node datapath runtime, served by one long-lived `Server` with every
//! observer on.
//!
//! Traffic is open-loop Poisson in virtual time from two tenants: 0.5μ
//! with 8 services of deadline slack and 0.3μ with half a service, so
//! SLO misses and expiries fire. Latencies count from each request's
//! scheduled arrival. The host side is a closed loop with one client:
//! the timed phase serves short episodes back to back, each one
//! `Server::serve` call on an arrival stream derived from the seed,
//! followed by one warm launch from residency on the server's runtime
//! (timed on its own, not counted in the serve metrics). With
//! every plan resident, host time goes to the serving loop, small-scale
//! datapath execution and the four observers; compile, eviction,
//! recovery and large-scale execution are bypassed.

use crate::host::{ms_since, timed};
use crate::record::{Record, Sim};
use crate::spans::Spans;
use crate::stages::{span, staged_launch};
use crate::stats::mix;
use crate::{Opts, Size};
use std::sync::Arc;
use std::time::Instant;
use tsm::compiler::graph::Graph;
use tsm::compiler::schedule::CompileOptions;
use tsm::core::flight::FlightConfig;
use tsm::core::runtime::{ExecMode, Runtime, RuntimeError, SparePolicy};
use tsm::core::serving::{Request, RequestOutcome, ServeConfig, ServeReport, Server};
use tsm::core::system::System;
use tsm::trace::profile::profile;
use tsm::trace::{names, RingSink, TelemetryConfig, TraceSink};
use tsm::workloads::{merge_arrivals, poisson_arrivals, BertConfig};

/// Largest batch the server folds; set-up compiles every size up to it.
const MAX_BATCH: u32 = 8;
/// Arrival horizon of one episode, in batch-1 service times.
const EPISODE_SERVICES: u64 = 15;

struct Dims {
    encoders: usize,
    /// Episodes the simulated metrics and exact counts cover.
    episodes: u64,
    setup_reps: usize,
    warm_rounds: usize,
}

fn dims(size: Size) -> Dims {
    match size {
        Size::Full => Dims {
            encoders: 24,
            episodes: 400,
            setup_reps: 3,
            warm_rounds: 5,
        },
        Size::Tiny => Dims {
            encoders: 4,
            episodes: 4,
            setup_reps: 1,
            warm_rounds: 1,
        },
    }
}

/// Which observers a server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Observers {
    certify: bool,
    telemetry: bool,
    attribution: bool,
    flight: bool,
}

const ALL: Observers = Observers {
    certify: true,
    telemetry: true,
    attribution: true,
    flight: true,
};
const NONE: Observers = Observers {
    certify: false,
    telemetry: false,
    attribution: false,
    flight: false,
};
/// Each observer alone, with the per-layer metric it yields.
const ALONE: [(Observers, &str); 4] = [
    (
        Observers {
            certify: true,
            ..NONE
        },
        "observer.certify_ms_per_req",
    ),
    (
        Observers {
            telemetry: true,
            ..NONE
        },
        "observer.telemetry_ms_per_req",
    ),
    (
        Observers {
            attribution: true,
            ..NONE
        },
        "observer.attribution_ms_per_req",
    ),
    (
        Observers {
            flight: true,
            ..NONE
        },
        "observer.flight_ms_per_req",
    ),
];

fn telemetry_cfg(service: u64) -> TelemetryConfig {
    TelemetryConfig {
        window: (service / 2).max(1),
        slo_permille: 990,
    }
}

fn config(seed: u64, service: u64, obs: Observers) -> ServeConfig {
    ServeConfig {
        batch_window: service / 2,
        max_batch: MAX_BATCH as usize,
        queue_capacity: 16,
        tenant_quota: usize::MAX,
        seed: mix(seed, 0x5e),
        certify: obs.certify,
        telemetry: obs.telemetry.then(|| telemetry_cfg(service)),
        attribution: obs.attribution,
        flight: obs.flight.then_some(FlightConfig {
            trace_tail: 16,
            max_incidents: 64,
        }),
    }
}

fn bert(encoders: usize, batch: u32) -> Graph {
    BertConfig {
        batch: u64::from(batch),
        ..BertConfig::with_encoders(encoders)
    }
    .build_pipeline_graph(4)
}

fn runtime() -> Runtime {
    Runtime::new(
        System::with_nodes(4).expect("4 nodes"),
        SparePolicy::PerSystem,
    )
    .with_exec_mode(ExecMode::Datapath)
}

/// Episode `i`'s offered requests: two Poisson tenants over
/// `EPISODE_SERVICES` service times, both streams derived from `seed`.
fn episode(seed: u64, i: u64, service: u64) -> Vec<Request> {
    let horizon = service * EPISODE_SERVICES;
    let mu = 1.0 / service as f64;
    let steady = poisson_arrivals(mix(seed, 2 * i), 0.5 * mu, horizon, 0, 0, 8 * service);
    let tight = poisson_arrivals(mix(seed, 2 * i + 1), 0.3 * mu, horizon, 1, 0, service / 2);
    merge_arrivals(&[steady, tight])
        .into_iter()
        .map(|a| Request {
            at: a.at,
            tenant: a.tenant,
            model: 0,
            priority: a.priority,
            deadline_slack: a.deadline_slack,
        })
        .collect()
}

/// A runtime with every batch size's plan resident: each size is
/// launched once (a cold launch, which compiles) and then `warm_rounds`
/// more times from residency, to warm caches. Each cold launch adds one
/// sample to `cold`: its host ms per batched request, the op of this
/// workload. With `spans` enabled the cold launches run stage by stage
/// and the schedule compile is timed on its own.
fn warmed(
    d: &Dims,
    seed: u64,
    warm_rounds: usize,
    cold: &mut Vec<f64>,
    spans: &mut Spans,
) -> Result<Warmed, RuntimeError> {
    let mut rt = runtime();
    let mut service = 0;
    let mut instructions = 0;
    for b in 1..=MAX_BATCH {
        let g = bert(d.encoders, b);
        let t0 = Instant::now();
        let out = if spans.enabled() {
            let system = System::with_nodes(4).expect("4 nodes");
            spans
                .time("compiler.schedule", u64::from(b), |_| {
                    system.compile(&g, CompileOptions::default())
                })
                .map_err(|e| RuntimeError::Compile(e.to_string()))?;
            staged_launch(
                &mut rt,
                &g,
                mix(seed, 0x100 + u64::from(b)),
                None,
                spans,
                b.into(),
            )?
            .0
        } else {
            rt.launch(&g, mix(seed, 0x100 + u64::from(b)))?
        };
        cold.push(ms_since(t0) / f64::from(b));
        instructions += out.metrics.counter(names::COSIM_INSTRUCTIONS);
        if b == 1 {
            service = out.timeline_cycles;
        }
    }
    for r in 0..warm_rounds {
        for b in 1..=MAX_BATCH {
            let g = bert(d.encoders, b);
            rt.launch(&g, mix(seed, 0x200 + (r as u64) * 16 + u64::from(b)))?;
        }
    }
    Ok(Warmed {
        rt,
        service,
        instructions,
    })
}

/// A runtime with every batch size's plan resident.
struct Warmed {
    rt: Runtime,
    /// Batch-1 service time (launch timeline width), cycles.
    service: u64,
    /// Instructions of the resident plans, summed over batch sizes.
    instructions: u64,
}

fn server(d: &Dims, seed: u64, rt: Runtime, service: u64, obs: Observers) -> Server {
    let mut s = Server::new(rt, config(seed, service, obs));
    let encoders = d.encoders;
    s.add_model(move |b| bert(encoders, b));
    s
}

/// Adds one episode to the simulated metrics: a request meets its SLO
/// when it is served by its deadline.
fn add_sim(sim: &mut Sim, offered: &[Request], rep: &ServeReport) {
    sim.offered += offered.len() as u64;
    for (r, o) in offered.iter().zip(&rep.outcomes) {
        if let RequestOutcome::Served {
            completion,
            latency,
            ..
        } = *o
        {
            sim.latencies.push(latency);
            sim.met += u64::from(completion <= r.at + r.deadline_slack);
        }
    }
}

/// Exact per-layer counts over the fixed episode prefix.
#[derive(Default)]
struct Counts {
    served: u64,
    batches: u64,
    shed: u64,
    expired: u64,
    depth_max: u64,
    attempts: u64,
    replays: u64,
    failovers: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    resident_max: u64,
    clean: u64,
    corrected: u64,
    uncorrectable: u64,
    certified: u64,
    incidents: u64,
    window_wait: u64,
    queue_wait: u64,
    execute: u64,
    replay: u64,
    instructions: u64,
    deliveries: u64,
}

impl Counts {
    fn add(&mut self, rep: &ServeReport) {
        self.served += rep.served;
        self.batches += rep.batches.len() as u64;
        self.shed += rep.shed;
        self.expired += rep.expired;
        let m = &rep.metrics;
        self.depth_max = self
            .depth_max
            .max(m.gauge(names::SERVE_QUEUE_DEPTH).unwrap_or(0));
        self.hits += m.counter(names::RES_HITS);
        self.misses += m.counter(names::RES_MISSES);
        self.evictions += m.counter(names::RES_EVICTIONS);
        self.resident_max = self
            .resident_max
            .max(m.gauge(names::RES_RESIDENT_BYTES).unwrap_or(0));
        for b in &rep.batches {
            let o = &b.outcome;
            self.attempts += u64::from(o.attempts());
            self.replays += u64::from(o.replays());
            self.failovers += o.failovers.len() as u64;
            let fec = o.fec_total();
            self.clean += fec.clean;
            self.corrected += fec.corrected;
            self.uncorrectable += fec.uncorrectable;
            self.certified += u64::from(b.certified == Some(true));
            self.instructions += o.metrics.counter(names::COSIM_INSTRUCTIONS);
            self.deliveries += o.metrics.counter(names::COSIM_DELIVERIES);
        }
        self.incidents += rep.incidents.as_ref().map_or(0, |v| v.len() as u64);
        if let Some(a) = &rep.attribution {
            for b in &a.breakdowns {
                self.window_wait += b.window_wait;
                self.queue_wait += b.queue_wait;
                self.execute += b.execute;
                self.replay += b.replay;
            }
        }
    }

    fn report(&self, rec: &mut Record) {
        let n = self.batches as usize;
        let per_batch = |v: u64| v as f64 / self.batches.max(1) as f64;
        rec.exact("serving.mean_batch", per_batch(self.served), n);
        rec.exact("serving.queue_depth_max", self.depth_max as f64, n);
        rec.exact("serving.shed", self.shed as f64, n);
        rec.exact("serving.expired", self.expired as f64, n);
        rec.exact("launch.attempts", self.attempts as f64, n);
        rec.exact("launch.replays", self.replays as f64, n);
        rec.exact("launch.failovers", self.failovers as f64, n);
        let lookups = self.hits + self.misses;
        rec.exact("residency.hits", self.hits as f64, n);
        rec.exact("residency.misses", self.misses as f64, n);
        rec.exact("residency.evictions", self.evictions as f64, n);
        rec.exact(
            "residency.hit_rate",
            self.hits as f64 / lookups.max(1) as f64,
            lookups as usize,
        );
        rec.exact("residency.resident_bytes_max", self.resident_max as f64, n);
        rec.exact("exec.instructions", per_batch(self.instructions), n);
        rec.exact("exec.deliveries", per_batch(self.deliveries), n);
        rec.exact("fec.clean", self.clean as f64, n);
        rec.exact("fec.corrected", self.corrected as f64, n);
        rec.exact("fec.uncorrectable", self.uncorrectable as f64, n);
        rec.exact("profile.certified_ratio", per_batch(self.certified), n);
        rec.exact("flight.incidents", self.incidents as f64, n);
        let s = self.served as usize;
        rec.exact("attr.window_wait_cycles", self.window_wait as f64, s);
        rec.exact("attr.queue_wait_cycles", self.queue_wait as f64, s);
        rec.exact("attr.execute_cycles", self.execute as f64, s);
        rec.exact("attr.replay_cycles", self.replay as f64, s);
    }
}

/// The output checks on one all-observer serve.
fn check_serve(rec: &mut Record, offered: &[Request], rep: &ServeReport) -> bool {
    let certified = rec.check(
        "every_batch_certifies",
        rep.batches.iter().all(|b| b.certified == Some(true)),
    );
    let no_compile = rec.check(
        "timed_phase_compiles_nothing",
        rep.metrics.counter(names::RES_MISSES) == 0,
    );
    let sums = rec.check(
        "attribution_sums_exactly",
        rep.attribution.as_ref().is_some_and(|a| {
            a.breakdowns.len() as u64 == rep.served
                && a.breakdowns
                    .iter()
                    .all(|b| b.verify().is_ok() && b.total() == b.latency())
        }),
    );
    let closes = rec.check(
        "serve_accounting_closes",
        rep.offered == offered.len() as u64 && rep.served + rep.shed + rep.expired == rep.offered,
    );
    certified & no_compile & sums & closes
}

/// Runs the workload: the untraced timed phase, or the traced run.
pub fn run(opts: &Opts, rec: &mut Record, spans: &mut Spans) {
    let d = dims(opts.size);
    let mut cold = Vec::new();
    let mut setup_s = Vec::new();
    let mut kept = None;
    let reps = if opts.trace { 1 } else { d.setup_reps };
    for _ in 0..reps {
        drop(kept.take());
        let t0 = Instant::now();
        let mut untraced = Spans::new(false);
        let res = warmed(&d, opts.seed, d.warm_rounds, &mut cold, &mut untraced);
        setup_s.push(ms_since(t0) / 1e3);
        let ok = rec_ok(rec, "setup_launches_succeed", &res);
        rec.op(ok);
        kept = res.ok();
    }
    let Some(w) = kept else {
        return;
    };
    let service = w.service;
    if opts.trace {
        rec.exact(
            "plan.instructions",
            w.instructions as f64,
            MAX_BATCH as usize,
        );
        let on = server(&d, opts.seed, w.rt, service, ALL);
        traced(opts, &d, on, service, rec, spans);
        return;
    }
    let mut on = server(&d, opts.seed, w.rt, service, ALL);
    rec.host_quantile("setup_s", &setup_s, 0.5);
    rec.host_quantile("cold_op_ms_p50", &cold, 0.5);
    let graphs: Vec<Graph> = (1..=MAX_BATCH).map(|b| bert(d.encoders, b)).collect();

    let mut sim = Sim::default();
    // Per episode: host ms per served request; over all episodes: the
    // requests served and the host ms their serves took.
    let mut per_req = Vec::new();
    let (mut served, mut served_ms) = (0, 0.0);
    let mut warm = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i < d.episodes || start.elapsed().as_secs_f64() < opts.seconds {
        let offered = episode(opts.seed, i, service);
        let (res, ms) = timed(|| on.serve(&offered));
        match res {
            Ok(rep) => {
                let ok = check_serve(rec, &offered, &rep);
                rec.op(ok);
                if i < d.episodes {
                    add_sim(&mut sim, &offered, &rep);
                }
                if rep.served > 0 {
                    per_req.push(ms / rep.served as f64);
                    served += rep.served;
                    served_ms += ms;
                }
            }
            Err(e) => {
                eprintln!("serve_observed: episode {i}: {e}");
                rec.op(false);
            }
        }
        // One warm launch from residency after each episode, batch sizes
        // in turn, so warm samples span the timed phase as serves do.
        let b = (i % u64::from(MAX_BATCH)) as u32 + 1;
        let g = &graphs[b as usize - 1];
        let (res, ms) = timed(|| on.runtime_mut().launch(g, mix(mix(opts.seed, 0x300), i)));
        let ok = rec.check(
            "warm_launch_reuses_plan",
            res.as_ref().is_ok_and(|o| o.compiles() == 0),
        );
        rec.op(ok);
        if ok {
            warm.push(ms / f64::from(b));
        }
        i += 1;
    }
    sim.report(rec);
    rec.host_quantile("warm_op_ms_p50", &warm, 0.5);
    rec.host("ops_per_s", served as f64 * 1e3 / served_ms, per_req.len());
    rec.host_quantile("op_ms_p50", &per_req, 0.5);
    rec.host_quantile("op_ms_p90", &per_req, 0.9);
}

/// Tallies whether a set-up step succeeded.
fn rec_ok<T>(rec: &mut Record, name: &'static str, res: &Result<T, RuntimeError>) -> bool {
    if let Err(e) = res {
        eprintln!("{name}: {e}");
    }
    rec.check(name, res.is_ok())
}

/// Host times of one traced episode, ms.
struct EpisodeHost {
    served: u64,
    on_traced: f64,
    on_untraced: f64,
    off: f64,
    alone: [f64; 4],
    bare_launches: f64,
}

/// Two serves of one episode agree on everything except the incident
/// snapshots' residency counters and stamps, which keep counting across
/// serves of one runtime.
fn same_run(a: &ServeReport, b: &ServeReport) -> bool {
    let triggers = |r: &ServeReport| {
        r.incidents.as_ref().map(|v| {
            v.iter()
                .map(|x| (x.seq, x.cycle, x.trigger))
                .collect::<Vec<_>>()
        })
    };
    a.outcomes == b.outcomes
        && a.batches == b.batches
        && a.latency == b.latency
        && a.tenants == b.tenants
        && a.metrics == b.metrics
        && a.telemetry == b.telemetry
        && a.attribution == b.attribution
        && triggers(a) == triggers(b)
}

/// The twin runtime, warmed like the served one. Each variant server
/// wraps it in turn, and the stage-by-stage replays run on it directly.
struct Twin<'a> {
    rt: Option<Runtime>,
    d: &'a Dims,
    seed: u64,
    service: u64,
}

impl Twin<'_> {
    fn rt(&mut self) -> &mut Runtime {
        self.rt.as_mut().expect("twin runtime is not lent out")
    }

    /// Serves `offered` with observers `obs` inside a span `name`;
    /// returns the report and the span's duration in ms.
    fn serve(
        &mut self,
        obs: Observers,
        offered: &[Request],
        name: &'static str,
        i: u64,
        spans: &mut Spans,
    ) -> (Result<ServeReport, RuntimeError>, f64) {
        let rt = self.rt.take().expect("twin runtime is not lent out");
        let mut s = server(self.d, self.seed, rt, self.service, obs);
        let r = spans.time(name, i, |_| s.serve(offered));
        let mut rt = s.into_runtime();
        // A telemetry-observing server leaves sampling armed.
        rt.clear_telemetry();
        self.rt = Some(rt);
        (r, spans.last_ms(name).unwrap_or(0.0))
    }
}

/// The traced run. Every prefix episode is served as in the timed run.
/// While time remains, each episode is also served again untraced (for
/// the tracing overhead), with all observers off and with each observer
/// alone, and every batch of the all-off and all-observer serves is
/// replayed stage by stage on a twin runtime warmed the same way.
fn traced(
    opts: &Opts,
    d: &Dims,
    mut on: Server,
    service: u64,
    rec: &mut Record,
    spans: &mut Spans,
) {
    // The twin's set-up compiles run stage by stage, beside a separately
    // timed schedule compile per batch size.
    let mut cold = Vec::new();
    let twin = spans.time("setup.compile", 0, |spans| {
        warmed(d, opts.seed, 0, &mut cold, spans)
    });
    let ok = rec_ok(rec, "setup_launches_succeed", &twin);
    rec.op(ok);
    let Ok(twin) = twin else {
        return;
    };
    let plan_bytes = twin.rt.residency().stats().resident_bytes;
    let mut twin = Twin {
        rt: Some(twin.rt),
        d,
        seed: opts.seed,
        service,
    };

    let mut sim = Sim::default();
    let mut counts = Counts::default();
    let mut hosts: Vec<EpisodeHost> = Vec::new();
    let mut ns_per_instr = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i < d.episodes || start.elapsed().as_secs_f64() < opts.seconds {
        let offered = episode(opts.seed, i, service);
        let detailed = i == 0 || start.elapsed().as_secs_f64() < opts.seconds;
        let untraced_first = i % 2 == 1;
        let mut on_untraced = 0.0;
        let mut repeat = None;
        let mut serve_untraced = |on: &mut Server| {
            let t0 = Instant::now();
            let r = on.serve(&offered);
            on_untraced = ms_since(t0);
            r
        };
        if detailed && untraced_first {
            repeat = Some(serve_untraced(&mut on));
        }
        let res = spans.time("serve.all_observers", i, |_| on.serve(&offered));
        if detailed && !untraced_first {
            repeat = Some(serve_untraced(&mut on));
        }
        let on_traced = spans.last_ms("serve.all_observers").unwrap_or(0.0);
        let rep = match res {
            Ok(rep) => rep,
            Err(e) => {
                eprintln!("serve_observed: episode {i}: {e}");
                rec.op(false);
                i += 1;
                continue;
            }
        };
        let mut ok = check_serve(rec, &offered, &rep);
        if i < d.episodes {
            add_sim(&mut sim, &offered, &rep);
            counts.add(&rep);
        }
        if let Some(repeat) = repeat {
            ok &= rec.check(
                "repeat_serve_identical",
                repeat.as_ref().is_ok_and(|r| same_run(r, &rep)),
            );
            let detail = episode_detail(
                i,
                &offered,
                &rep,
                &mut twin,
                rec,
                spans,
                &mut ok,
                &mut ns_per_instr,
            );
            if let Some((off, alone, bare_launches)) = detail {
                hosts.push(EpisodeHost {
                    served: rep.served,
                    on_traced,
                    on_untraced,
                    off,
                    alone,
                    bare_launches,
                });
            }
        }
        rec.op(ok);
        i += 1;
    }
    sim.report(rec);
    counts.report(rec);
    layer_metrics(rec, spans, &hosts, plan_bytes);
    rec.host_quantile("exec.ns_per_instr", &ns_per_instr, 0.5);
}

/// Serves episode `i` on the twin once to warm it, then with observers
/// off and with each alone, and replays every batch stage by stage. Returns the off and
/// single-observer serve times and the bare replayed launch time, ms.
#[allow(clippy::too_many_arguments)]
fn episode_detail(
    i: u64,
    offered: &[Request],
    rep: &ServeReport,
    twin: &mut Twin<'_>,
    rec: &mut Record,
    spans: &mut Spans,
    ok: &mut bool,
    ns_per_instr: &mut Vec<f64>,
) -> Option<(f64, [f64; 4], f64)> {
    // The twin's plans went cold while the served runtime ran; a first,
    // unmeasured serve warms them so the timed variants start alike.
    let _ = twin.serve(NONE, offered, "serve.twin_warmup", i, spans);
    let (off_rep, off_ms) = twin.serve(NONE, offered, "serve.observers_off", i, spans);
    let Ok(off_rep) = off_rep else {
        *ok = false;
        return None;
    };
    *ok &= rec.check(
        "observers_off_change_no_outcome",
        off_rep.outcomes == rep.outcomes,
    );
    let mut alone_ms = [0.0; 4];
    for (k, &(obs, _)) in ALONE.iter().enumerate() {
        let (r, ms) = twin.serve(obs, offered, "serve.one_observer", i, spans);
        alone_ms[k] = ms;
        *ok &= rec.check(
            "observers_off_change_no_outcome",
            r.is_ok_and(|r| r.outcomes == rep.outcomes),
        );
    }
    // The all-off batches replayed bare give the launch stage costs; the
    // all-observer batches replayed with telemetry on and a scratch trace
    // give the profile join.
    let encoders = twin.d.encoders;
    let service = twin.service;
    let rt = twin.rt();
    let bare_start = spans.spans().len();
    spans.time("replay.bare", i, |spans| {
        for b in &off_rep.batches {
            let id = (i << 16) | u64::from(b.batch);
            let g = bert(encoders, b.size);
            let res = staged_launch(rt, &g, b.seed, None, spans, id);
            if let Ok((o, _)) = &res {
                let instructions = o.metrics.counter(names::COSIM_INSTRUCTIONS);
                if o.attempts() == 1 && instructions > 0 {
                    let ms = spans.last_ms(span::EXECUTE).unwrap_or(0.0);
                    ns_per_instr.push(ms * 1e6 / instructions as f64);
                }
            }
            *ok &= rec.check(
                "replay_reproduces_batch",
                res.is_ok_and(|(o, _)| o == b.outcome),
            );
        }
    });
    let bare: f64 = spans.spans()[bare_start..]
        .iter()
        .filter(|s| s.name == span::LAUNCH)
        .map(|s| s.ms())
        .sum();
    rt.set_telemetry(telemetry_cfg(service));
    spans.time("replay.certified", i, |spans| {
        for b in &rep.batches {
            let id = (i << 16) | u64::from(b.batch);
            let g = bert(encoders, b.size);
            let sink = Arc::new(RingSink::new(1 << 18));
            rt.set_trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
            let res = staged_launch(rt, &g, b.seed, Some(&sink), spans, id);
            rt.clear_trace_sink();
            let certified = spans.time("profile.join", id, |_| {
                let planned = rt.planned_timeline()?;
                profile(&planned, &sink.sorted_events(), sink.dropped())
                    .ok()
                    .map(|p| p.certified())
            });
            *ok &= rec.check(
                "replay_reproduces_batch",
                res.is_ok_and(|(o, _)| o == b.outcome) && certified == b.certified,
            );
        }
    });
    rt.clear_telemetry();
    Some((off_ms, alone_ms, bare))
}

fn layer_metrics(rec: &mut Record, spans: &Spans, hosts: &[EpisodeHost], plan_bytes: u64) {
    let per_req = |f: &dyn Fn(&EpisodeHost) -> f64| -> Vec<f64> {
        hosts
            .iter()
            .filter(|h| h.served > 0)
            .map(|h| f(h) / h.served as f64)
            .collect()
    };
    rec.host_quantile(
        "serving.self_ms_per_req",
        &per_req(&|h| h.off - h.bare_launches),
        0.5,
    );
    for (k, &(_, name)) in ALONE.iter().enumerate() {
        rec.host_quantile(name, &per_req(&|h| h.alone[k] - h.off), 0.5);
    }
    let overhead: Vec<f64> = hosts.iter().map(|h| h.on_traced / h.on_untraced).collect();
    rec.host_quantile("bench.trace_overhead", &overhead, 0.5);

    let under = |name| spans.durations_under_ms(name, "replay.bare");
    let us = |v: Vec<f64>| v.into_iter().map(|x| x * 1e3).collect::<Vec<_>>();
    rec.host_quantile("launch.admit_begin_us", &us(under(span::ADMIT_BEGIN)), 0.5);
    rec.host_quantile("launch.reuse_us", &us(under(span::REUSE)), 0.5);
    rec.host_quantile("launch.execute_ms", &under(span::EXECUTE), 0.5);
    rec.host_quantile("launch.recover_ms", &under(span::RECOVER), 0.5);
    rec.host_quantile("launch.finish_us", &us(under(span::FINISH)), 0.5);
    rec.host_quantile("profile.join_ms", &spans.durations_ms("profile.join"), 0.5);

    // Set-up compiles: launch.compile is schedule + plan compile.
    let compile = spans.durations_under_ms(span::COMPILE, "setup.compile");
    let schedule = spans.durations_ms("compiler.schedule");
    let plan: Vec<f64> = compile.iter().zip(&schedule).map(|(c, s)| c - s).collect();
    rec.host_quantile("launch.compile_ms", &compile, 0.5);
    rec.host_quantile("compiler.schedule_ms", &schedule, 0.5);
    rec.host_quantile("plan.compile_ms", &plan, 0.5);
    rec.exact("plan.bytes", plan_bytes as f64, MAX_BATCH as usize);
    rec.exact(
        "exec.threads",
        tsm::core::PlanExecutor::new().resolved_threads() as f64,
        1,
    );
}
