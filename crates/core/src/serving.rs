//! Deterministic multi-tenant serving frontend over the staged launch
//! pipeline.
//!
//! The paper's deployments run one compiled schedule thousands of times
//! under sustained traffic (§5); what matters there is tail latency under
//! open-loop load, not peak throughput. This module puts a request queue
//! in front of [`LaunchEngine`](crate::launch::LaunchEngine):
//!
//! - [`WorkQueue`] — totally ordered by `(priority, deadline,
//!   insertion_seq)`, with [`WorkQueue::try_push`] backpressure and
//!   admission control (queue capacity + per-tenant quota).
//! - [`Server`] — a virtual-time discrete-event loop: seeded, no wall
//!   clock anywhere, so a whole serving run is bit-reproducible from its
//!   config. Requests batch into launches under a configurable batch
//!   window; each batch dispatches through [`Runtime::launch_at`] at its
//!   dispatch cycle and its service time is the launch's
//!   [`LaunchOutcome::timeline_cycles`](crate::runtime::LaunchOutcome::timeline_cycles).
//! - One event stream: each serving fact is a single `Request*`/`Batch*`
//!   event on [`SERVING_LANE`] (off the chip and runtime lanes, so launch
//!   traces compare with or without a frontend), and the trace, the
//!   report's tallies and latency [`CycleHistogram`]s, the `serve.*`
//!   metrics, telemetry, attribution and the flight recorder are all
//!   folds of it.
//!
//! # Batch-window semantics
//!
//! The window opens when a request enters an *empty* queue at cycle `c`:
//! the next dispatch happens at `max(server_free_at, c + batch_window)`.
//! A dispatch pops the queue head and folds in successive same-model
//! requests (up to `max_batch`), never reordering past a
//! different-model entry — strict queue order is preserved.

use crate::flight::{FlightConfig, FlightRecorder, IncidentReport, IncidentTrigger, QueueView};
use crate::residency::{ResidencyManager, ResidencyStats};
use crate::runtime::{mix64, ExecMode, Runtime, RuntimeError, EPOCH_GAP_CYCLES};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::Arc;
use tsm_compiler::graph::Graph;
use tsm_trace::profile::profile;
use tsm_trace::telemetry::{series, Sampler, Telemetry, TelemetryConfig};
use tsm_trace::{
    names, AttributionReport, CycleHistogram, EventKind, LatencyBreakdown, Metrics, RingSink,
    RunMetrics, ShedReason, TraceSink, Tracer, SERVING_LANE,
};

/// Why admission control rejected a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The queue is at capacity.
    QueueFull,
    /// The tenant already holds its full quota of queued requests.
    TenantOverQuota,
}

/// One queue entry; ordered by `(priority, deadline, seq)`. `seq` is
/// unique, so the order is total.
#[derive(Debug, Clone)]
struct Queued<T> {
    priority: u8,
    deadline: u64,
    seq: u64,
    tenant: u32,
    item: T,
}

impl<T> Queued<T> {
    fn key(&self) -> (u8, u64, u64) {
        (self.priority, self.deadline, self.seq)
    }
}

impl<T> PartialEq for Queued<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Queued<T> {}
impl<T> PartialOrd for Queued<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Queued<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// A bounded priority queue totally ordered by
/// `(priority, deadline, insertion_seq)` — lower priority value first,
/// earlier deadline first, FIFO within ties. Admission control is
/// explicit: [`WorkQueue::try_push`] refuses (backpressure) instead of
/// growing without bound, and a per-tenant quota keeps one bursting
/// tenant from squeezing everyone else out of the queue.
#[derive(Debug, Clone)]
pub struct WorkQueue<T> {
    heap: BinaryHeap<Reverse<Queued<T>>>,
    capacity: usize,
    tenant_quota: usize,
    per_tenant: HashMap<u32, usize>,
    next_seq: u64,
}

impl<T> WorkQueue<T> {
    /// An empty queue admitting at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        WorkQueue {
            heap: BinaryHeap::new(),
            capacity,
            tenant_quota: usize::MAX,
            per_tenant: HashMap::new(),
            next_seq: 0,
        }
    }

    /// Caps any single tenant's queued entries (builder style).
    pub fn with_tenant_quota(mut self, quota: usize) -> Self {
        self.tenant_quota = quota;
        self
    }

    /// Admits an entry, or refuses with the reason. Refused entries cost
    /// nothing and leave the queue unchanged.
    pub fn try_push(
        &mut self,
        priority: u8,
        deadline: u64,
        tenant: u32,
        item: T,
    ) -> Result<(), AdmitError> {
        if self.heap.len() >= self.capacity {
            return Err(AdmitError::QueueFull);
        }
        let count = self.per_tenant.entry(tenant).or_insert(0);
        if *count >= self.tenant_quota {
            return Err(AdmitError::TenantOverQuota);
        }
        *count += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Queued {
            priority,
            deadline,
            seq,
            tenant,
            item,
        }));
        Ok(())
    }

    /// Removes and returns the least entry in the total order.
    pub fn pop(&mut self) -> Option<T> {
        let q = self.heap.pop()?.0;
        match self.per_tenant.entry(q.tenant) {
            Entry::Occupied(mut e) => {
                *e.get_mut() -= 1;
                // Remove exhausted tenants outright: a long-running server
                // must stay bounded by the tenants currently queued, not
                // by every tenant id ever seen.
                if *e.get() == 0 {
                    e.remove();
                }
            }
            Entry::Vacant(_) => unreachable!("tenant counted on push"),
        }
        Some(q.item)
    }

    /// The least entry, without removing it.
    pub fn peek(&self) -> Option<&T> {
        self.heap.peek().map(|r| &r.0.item)
    }

    /// Queued entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The admission capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Tenants with at least one queued entry — the size of the
    /// per-tenant accounting map, which [`WorkQueue::pop`] keeps bounded
    /// by removing entries that reach zero.
    pub fn tracked_tenants(&self) -> usize {
        self.per_tenant.len()
    }

    /// Occupancy against the admission bounds, as an incident captures it.
    pub(crate) fn view(&self) -> QueueView {
        QueueView {
            depth: self.len() as u64,
            capacity: self.capacity as u64,
            tracked_tenants: self.tracked_tenants() as u64,
            tenant_quota: self.tenant_quota as u64,
        }
    }
}

/// One offered inference request, in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Arrival cycle.
    pub at: u64,
    /// Tenant the request belongs to (fairness accounting key).
    pub tenant: u32,
    /// Model id, as returned by [`Server::add_model`].
    pub model: u32,
    /// Priority class; lower is more urgent.
    pub priority: u8,
    /// Cycles after arrival by which the tenant wants the answer;
    /// `deadline = at + deadline_slack` is the queue-ordering key after
    /// priority, and it is enforced at dispatch time: a request whose
    /// deadline has already passed when the dispatcher reaches it is
    /// dropped as [`RequestOutcome::Expired`] instead of being launched.
    /// (Expiry is checked in virtual time, so it is deterministic.)
    pub deadline_slack: u64,
}

/// Serving knobs. Everything is virtual cycles and seeds — a
/// [`Server::serve`] run is a pure function of `(config, offered
/// requests, runtime state)`. The `telemetry`, `attribution` and `flight`
/// observers only fold the run's serving facts: switching one off removes
/// its report field and changes nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Cycles the dispatcher waits after a request enters an empty queue
    /// before launching, hoping to batch followers. 0 = dispatch as soon
    /// as the server is free.
    pub batch_window: u64,
    /// Most requests folded into one launch.
    pub max_batch: usize,
    /// Work-queue admission capacity.
    pub queue_capacity: usize,
    /// Per-tenant cap on queued requests ([`AdmitError::TenantOverQuota`]).
    pub tenant_quota: usize,
    /// Base seed; batch `i`'s launch seed is derived from it (recorded in
    /// [`BatchRecord::seed`]).
    pub seed: u64,
    /// Certify every launch against the conformance profiler
    /// ([`tsm_trace::profile`]). Requires [`ExecMode::Datapath`]. Each
    /// launch then runs base-0 into a private scratch sink (the serving
    /// timeline keeps only the `Request*`/`Batch*` events), and
    /// [`BatchRecord::certified`] reports the verdict.
    pub certify: bool,
    /// Windowed telemetry ([`tsm_trace::telemetry`]), folded into
    /// [`ServeReport::telemetry`].
    pub telemetry: Option<TelemetryConfig>,
    /// Causal latency attribution ([`tsm_trace::attribution`]), folded
    /// into [`ServeReport::attribution`].
    pub attribution: bool,
    /// Bounded incident capture ([`crate::flight`]), folded into
    /// [`ServeReport::incidents`].
    pub flight: Option<FlightConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch_window: 0,
            max_batch: 8,
            queue_capacity: 64,
            tenant_quota: usize::MAX,
            seed: 0,
            certify: false,
            telemetry: None,
            attribution: false,
            flight: None,
        }
    }
}

/// What happened to one offered request, indexed as offered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Admission control refused it.
    Shed,
    /// Its deadline had already passed when the dispatcher reached it
    /// (in virtual time), so it was dropped unlaunched.
    Expired {
        /// The deadline that had passed.
        deadline: u64,
        /// Dispatch cycle at which the expiry was detected.
        at: u64,
    },
    /// Served in `batch`, completing at `completion` with
    /// enqueue→complete `latency` cycles.
    Served {
        /// Batch index that carried the request.
        batch: u32,
        /// Completion cycle.
        completion: u64,
        /// Enqueue→complete latency in cycles.
        latency: u64,
    },
}

/// One dispatched batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    /// Monotone batch index within the serve run.
    pub batch: u32,
    /// Model the batch ran.
    pub model: u32,
    /// Requests folded in.
    pub size: u32,
    /// Dispatch cycle.
    pub dispatch: u64,
    /// Completion cycle (`dispatch + ` the launch's timeline width).
    pub completion: u64,
    /// The launch seed used — relaunching the model graph with this seed
    /// reproduces the batch's [`LaunchOutcome`](crate::LaunchOutcome)
    /// exactly (the launch-vs-serve identity tests do).
    pub seed: u64,
    /// Execution attempts the launch consumed (1 = clean first try).
    pub attempts: u32,
    /// Conformance verdict when [`ServeConfig::certify`] was on.
    pub certified: Option<bool>,
    /// The batch's full launch record — by the engine's determinism,
    /// bit-identical to `Runtime::launch(graph, seed)` standalone (the
    /// `serve_identity` suite asserts it).
    pub outcome: crate::runtime::LaunchOutcome,
}

/// Per-tenant fairness accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant id.
    pub tenant: u32,
    /// Requests the tenant offered.
    pub offered: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed by admission control
    /// (`shed_queue_full + shed_over_quota`).
    pub shed: u64,
    /// Sheds caused by queue backpressure ([`AdmitError::QueueFull`]).
    pub shed_queue_full: u64,
    /// Sheds caused by the tenant quota
    /// ([`AdmitError::TenantOverQuota`]).
    pub shed_over_quota: u64,
    /// Requests dropped at dispatch time because their deadline had
    /// passed.
    pub expired: u64,
    /// Enqueue→complete latency distribution of the served requests.
    pub latency: CycleHistogram,
}

/// The complete, comparable record of one [`Server::serve`] run.
/// `PartialEq` compares everything — two runs of the same config over the
/// same offered load must be `==` (asserted by the reproducibility tests).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Requests offered.
    pub offered: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests dropped at dispatch time because their deadline had
    /// passed.
    pub expired: u64,
    /// Every dispatched batch, in dispatch order.
    pub batches: Vec<BatchRecord>,
    /// Per-request outcome, indexed as offered.
    pub outcomes: Vec<RequestOutcome>,
    /// Global enqueue→complete latency distribution.
    pub latency: CycleHistogram,
    /// Per-tenant accounting, ascending tenant id.
    pub tenants: Vec<TenantStats>,
    /// Cycle of the last completion (0 when nothing was served).
    pub makespan: u64,
    /// `serve.*` counters/histograms plus the deepest queue depth seen,
    /// and the run's `residency.*` delta (plan-cache hits/misses/
    /// evictions accrued by this serve run, with the resident gauges).
    pub metrics: RunMetrics,
    /// Windowed time series of the run when [`ServeConfig::telemetry`]
    /// was set: per-tenant `serve.throughput`/`serve.enqueued`/
    /// `serve.shed`/`serve.expired` counters, `serve.slo.met`/
    /// `serve.slo.missed` (a request meets its SLO when it completes by
    /// its deadline), the `serve.queue_depth` gauge, and — in
    /// non-certify runs — the launches' `link.deliveries`/
    /// `chip.busy_cycles` heatmaps merged onto the serving timeline.
    /// `None` when telemetry is off.
    pub telemetry: Option<Telemetry>,
    /// Per-request latency breakdowns plus their per-tenant/per-stage
    /// aggregation when [`ServeConfig::attribution`] was on. Every
    /// breakdown has been verified: its stage components sum exactly to
    /// the request's measured latency. `None` when attribution is off.
    pub attribution: Option<AttributionReport>,
    /// Incidents captured by the [`FlightRecorder`] when
    /// [`ServeConfig::flight`] was set, in trigger order. `None` when
    /// the recorder was off.
    pub incidents: Option<Vec<IncidentReport>>,
}

/// A model registered with the server: a builder from batch size to the
/// logical graph that serves it.
type ModelBuilder = Box<dyn Fn(u32) -> Graph>;

/// The deterministic serving frontend: a [`WorkQueue`] feeding batches
/// into one [`Runtime`].
pub struct Server {
    rt: Runtime,
    cfg: ServeConfig,
    models: Vec<ModelBuilder>,
    /// Display names for telemetry series labels, keyed by tenant id.
    /// Unnamed tenants label as `tenant{id}`.
    tenant_names: BTreeMap<u32, String>,
}

impl Server {
    /// Wraps `rt` with serving config `cfg`. Register models with
    /// [`Server::add_model`] before serving.
    pub fn new(rt: Runtime, cfg: ServeConfig) -> Self {
        Server {
            rt,
            cfg,
            models: Vec::new(),
            tenant_names: BTreeMap::new(),
        }
    }

    /// Gives tenant `id` a display name, used as the label of its
    /// telemetry series (`serve.throughput[name]`, …). Purely
    /// presentational: accounting and ordering key on the id, and names
    /// pass through the JSON/Perfetto escapers, so hostile strings are
    /// safe. Unnamed tenants label as `tenant{id}`.
    pub fn name_tenant(&mut self, id: u32, name: &str) {
        self.tenant_names.insert(id, name.to_string());
    }

    /// The telemetry label of tenant `id`.
    pub fn tenant_label(&self, id: u32) -> String {
        self.tenant_names
            .get(&id)
            .cloned()
            .unwrap_or_else(|| format!("tenant{id}"))
    }

    /// Registers a model: `builder(batch)` must return the logical graph
    /// serving a batch of that size. Returns the model id requests name.
    pub fn add_model(&mut self, builder: impl Fn(u32) -> Graph + 'static) -> u32 {
        self.models.push(Box::new(builder));
        (self.models.len() - 1) as u32
    }

    /// The serving config.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The wrapped runtime (inspection).
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// The wrapped runtime, mutable (e.g. to degrade links mid-story).
    pub fn runtime_mut(&mut self) -> &mut Runtime {
        &mut self.rt
    }

    /// Unwraps the runtime.
    pub fn into_runtime(self) -> Runtime {
        self.rt
    }

    /// Serves an offered request timeline to completion and returns the
    /// full run record. Requests are processed in arrival order (stable
    /// for equal cycles); arrivals strictly before a pending dispatch
    /// point are enqueued first, so a request can join a batch window
    /// that is still open.
    ///
    /// Pure virtual time: the same `(config, offered, runtime)` always
    /// produces the same report, bit for bit. The runtime's own telemetry
    /// setting is restored before returning, on success and error alike.
    pub fn serve(&mut self, offered: &[Request]) -> Result<ServeReport, RuntimeError> {
        let prior = self.rt.telemetry_cfg();
        // Serving telemetry arms the executor too, so each batch's launch
        // carries the link/chip heatmaps the serving sampler merges.
        if let Some(tc) = self.cfg.telemetry {
            self.rt.set_telemetry(tc);
        }
        let report = self.serve_timeline(offered);
        self.rt.clear_telemetry();
        if let Some(tc) = prior {
            self.rt.set_telemetry(tc);
        }
        report
    }

    /// The discrete-event loop behind [`Server::serve`]. Each serving fact
    /// is built once, as one [`EventKind`], and handed to [`Observers::emit`].
    fn serve_timeline(&mut self, offered: &[Request]) -> Result<ServeReport, RuntimeError> {
        if self.cfg.certify && self.rt.exec_mode() != ExecMode::Datapath {
            return Err(RuntimeError::Execution(
                "certify requires ExecMode::Datapath (statistical launches carry no delivery manifest)"
                    .into(),
            ));
        }
        // Arrival order, stable across equal cycles.
        let mut order: Vec<usize> = (0..offered.len()).collect();
        order.sort_by_key(|&i| offered[i].at);

        let user_sink = self.rt.sink.clone();
        let residency_before = self.rt.residency.stats();
        let mut tenants = BTreeMap::new();
        for r in offered {
            tenants.entry(r.tenant).or_insert_with(|| TenantLog {
                stats: TenantStats {
                    tenant: r.tenant,
                    ..TenantStats::default()
                },
                label: self.tenant_label(r.tenant),
            });
        }
        let mut obs = Observers {
            offered,
            tracer: Tracer::new(user_sink.as_deref()),
            metrics: Metrics::default(),
            tenants,
            outcomes: vec![RequestOutcome::Shed; offered.len()],
            batches: Vec::new(),
            max_depth: 0,
            window_deadline: 0,
            sampler: self.cfg.telemetry.map(Sampler::new),
            breakdowns: self.cfg.attribution.then(Vec::new),
            flight: self.cfg.flight.map(FlightRecorder::new),
        };
        // Queue entries are request ids into `offered`.
        let mut queue: WorkQueue<u32> =
            WorkQueue::new(self.cfg.queue_capacity).with_tenant_quota(self.cfg.tenant_quota);
        let mut server_free_at = 0u64;
        // Opens when a request enters an empty queue; dispatch happens at
        // `max(server_free_at, window_deadline)`.
        let mut window_deadline = 0u64;
        let mut next = 0usize; // cursor into `order`

        loop {
            let dispatch_at = if queue.is_empty() {
                None
            } else {
                Some(server_free_at.max(window_deadline))
            };
            let arrival_now = match (next < order.len(), dispatch_at) {
                (false, None) => break,
                (true, None) => true,
                (false, Some(_)) => false,
                // A request arriving strictly before the dispatch point
                // still joins the open window; at a tie the window closes
                // first.
                (true, Some(d)) => offered[order[next]].at < d,
            };

            if arrival_now {
                let r = offered[order[next]];
                let request = order[next] as u32;
                next += 1;
                let was_empty = queue.is_empty();
                let kind = match queue.try_push(r.priority, r.deadline(), r.tenant, request) {
                    Ok(()) => {
                        if was_empty {
                            window_deadline = r.at + self.cfg.batch_window;
                        }
                        EventKind::RequestEnqueue {
                            tenant: r.tenant,
                            request,
                        }
                    }
                    // Record *which* limit fired — backpressure and quota
                    // enforcement are different operator problems (grow
                    // the queue vs re-tier a tenant).
                    Err(why) => EventKind::RequestShed {
                        tenant: r.tenant,
                        request,
                        reason: match why {
                            AdmitError::QueueFull => ShedReason::QueueFull,
                            AdmitError::TenantOverQuota => ShedReason::TenantOverQuota,
                        },
                    },
                };
                obs.emit(r.at, kind, queue.view(), &self.rt.residency)?;
                continue;
            }

            // Dispatch: the head plus successive same-model followers, in
            // strict queue order, up to max_batch. Deadlines are enforced
            // here, in virtual time: a popped request whose deadline has
            // already passed expires instead of launching — its answer
            // could only arrive uselessly late, and launching it would
            // delay every live request behind it. An expired follower
            // consumes no batch slot.
            let t = dispatch_at.expect("queue nonempty");
            let mut batch: Vec<u32> = Vec::new();
            while batch.len() < self.cfg.max_batch.max(1) {
                let Some(&request) = queue.peek() else { break };
                let r = offered[request as usize];
                if batch
                    .first()
                    .is_some_and(|&head| offered[head as usize].model != r.model)
                {
                    break;
                }
                queue.pop();
                if r.deadline() < t {
                    let kind = EventKind::RequestExpired {
                        tenant: r.tenant,
                        request,
                        late: t - r.deadline(),
                    };
                    obs.emit(t, kind, queue.view(), &self.rt.residency)?;
                } else {
                    batch.push(request);
                }
            }
            let Some(&head) = batch.first() else {
                // Every queued request had expired; the next arrival (if
                // any) reopens the batch window on an empty queue.
                continue;
            };
            let model = offered[head as usize].model;
            let batch_idx = obs.batches.len() as u32;
            let size = batch.len() as u32;
            let launch_seed = mix64(self.cfg.seed, batch_idx as u64);
            let kind = EventKind::BatchBegin {
                batch: batch_idx,
                size,
            };
            obs.emit(t, kind, queue.view(), &self.rt.residency)?;
            let graph = (self.models[model as usize])(size);
            let (out, certified) = if self.cfg.certify {
                // Certified launches run base-0 into a private scratch
                // ring so the profiler's plan-vs-actual join sees exactly
                // one launch at its planned coordinates.
                let scratch = Arc::new(RingSink::new(1 << 18));
                self.rt
                    .set_trace_sink(Arc::clone(&scratch) as Arc<dyn TraceSink>);
                let out = self.rt.launch_at(&graph, launch_seed, 0);
                match &user_sink {
                    Some(s) => self.rt.set_trace_sink(Arc::clone(s)),
                    None => self.rt.clear_trace_sink(),
                }
                let out = out?;
                let planned = self
                    .rt
                    .planned_timeline()
                    .expect("datapath launch has a planned timeline");
                let certified = profile(&planned, &scratch.sorted_events(), scratch.dropped())
                    .map(|p| p.conformance.certified())
                    .unwrap_or(false);
                (out, Some(certified))
            } else {
                (self.rt.launch_at(&graph, launch_seed, t)?, None)
            };
            let completion = t + out.timeline_cycles;
            server_free_at = completion;
            let attempts = out.attempts();
            obs.launched(
                BatchRecord {
                    batch: batch_idx,
                    model,
                    size,
                    dispatch: t,
                    completion,
                    seed: launch_seed,
                    attempts,
                    certified,
                    outcome: out,
                },
                window_deadline,
            );
            for &request in &batch {
                let r = offered[request as usize];
                let kind = EventKind::RequestComplete {
                    tenant: r.tenant,
                    request,
                    latency: completion - r.at,
                };
                obs.emit(completion, kind, queue.view(), &self.rt.residency)?;
            }
            let kind = EventKind::BatchEnd {
                batch: batch_idx,
                attempts,
            };
            obs.emit(completion, kind, queue.view(), &self.rt.residency)?;
        }
        obs.finish(&self.rt.residency, &residency_before)
    }
}

impl Request {
    /// The cycle by which the tenant wants the answer.
    fn deadline(&self) -> u64 {
        self.at.saturating_add(self.deadline_slack)
    }
}

/// One tenant's accounting, with its telemetry label resolved once.
struct TenantLog {
    stats: TenantStats,
    label: String,
}

/// Everything one serve run records, folded from its single stream of
/// serving facts: the trace sink, the report's outcomes and totals, the
/// `serve.*` metrics, per-tenant stats, the telemetry sampler, latency
/// attribution and the flight recorder. Each fact reaches every observer
/// through one [`Observers::emit`] call, so no two of them can disagree
/// about what happened or when.
struct Observers<'a> {
    offered: &'a [Request],
    /// Stamps each fact's serving-lane event and records it in the
    /// caller's trace sink, if any.
    tracer: Tracer<'a>,
    metrics: Metrics,
    tenants: BTreeMap<u32, TenantLog>,
    outcomes: Vec<RequestOutcome>,
    batches: Vec<BatchRecord>,
    max_depth: u64,
    /// The batch window the current batch was dispatched under.
    window_deadline: u64,
    sampler: Option<Sampler>,
    breakdowns: Option<Vec<LatencyBreakdown>>,
    flight: Option<FlightRecorder>,
}

impl Observers<'_> {
    /// Records one serving fact at `cycle`, with the queue as it stands
    /// after the fact, in every observer. Fails only when a served
    /// request's latency breakdown does not sum to its latency.
    fn emit(
        &mut self,
        cycle: u64,
        kind: EventKind,
        queue: QueueView,
        residency: &ResidencyManager,
    ) -> Result<(), RuntimeError> {
        let event = self.tracer.stamp(cycle, SERVING_LANE, kind);
        if let Some(f) = &mut self.flight {
            f.record(event);
        }
        self.max_depth = self.max_depth.max(queue.depth);
        let fired = match kind {
            EventKind::RequestEnqueue { tenant, .. } => {
                let log = self.tenants.get_mut(&tenant).expect("an offered tenant");
                log.stats.offered += 1;
                self.metrics.inc(names::SERVE_ENQUEUED, 1);
                if let Some(s) = &mut self.sampler {
                    s.count(series::SERVE_ENQUEUED, &log.label, cycle, 1);
                    s.level(series::SERVE_QUEUE_DEPTH, "", cycle, queue.depth);
                }
                [None, None]
            }
            EventKind::RequestShed {
                tenant,
                request,
                reason,
            } => {
                let log = self.tenants.get_mut(&tenant).expect("an offered tenant");
                log.stats.offered += 1;
                log.stats.shed += 1;
                self.metrics.inc(names::SERVE_SHED, 1);
                let (by_reason, counter) = match reason {
                    ShedReason::QueueFull => {
                        (&mut log.stats.shed_queue_full, names::SERVE_SHED_QUEUE_FULL)
                    }
                    ShedReason::TenantOverQuota => {
                        (&mut log.stats.shed_over_quota, names::SERVE_SHED_QUOTA)
                    }
                };
                *by_reason += 1;
                self.metrics.inc(counter, 1);
                if let Some(s) = &mut self.sampler {
                    s.count(series::SERVE_SHED, &log.label, cycle, 1);
                }
                let shed = IncidentTrigger::Shed {
                    request,
                    tenant,
                    reason,
                };
                [Some(shed), None]
            }
            EventKind::RequestExpired {
                tenant,
                request,
                late,
            } => {
                self.outcomes[request as usize] = RequestOutcome::Expired {
                    deadline: self.offered[request as usize].deadline(),
                    at: cycle,
                };
                self.metrics.inc(names::SERVE_EXPIRED, 1);
                let log = self.tenants.get_mut(&tenant).expect("an offered tenant");
                log.stats.expired += 1;
                // An expired request is by definition an SLO miss: it was
                // never answered at all.
                if let Some(s) = &mut self.sampler {
                    s.count(series::SERVE_EXPIRED, &log.label, cycle, 1);
                    s.count(series::SLO_MISSED, &log.label, cycle, 1);
                }
                let expired = IncidentTrigger::Expired {
                    request,
                    tenant,
                    late,
                };
                [Some(expired), None]
            }
            EventKind::RequestComplete {
                tenant,
                request,
                latency,
            } => {
                let b = self.batches.last().expect("completions follow a launch");
                let r = self.offered[request as usize];
                self.outcomes[request as usize] = RequestOutcome::Served {
                    batch: b.batch,
                    completion: cycle,
                    latency,
                };
                self.metrics.inc(names::SERVE_SERVED, 1);
                self.metrics.observe_cycles(names::SERVE_LATENCY, latency);
                let log = self.tenants.get_mut(&tenant).expect("an offered tenant");
                log.stats.served += 1;
                log.stats.latency.observe(latency);
                // A served request meets its SLO when its answer arrives
                // by its deadline (virtual time, so exact).
                let missed = cycle > r.deadline();
                if let Some(s) = &mut self.sampler {
                    s.count(series::SERVE_THROUGHPUT, &log.label, cycle, 1);
                    let slo = if missed {
                        series::SLO_MISSED
                    } else {
                        series::SLO_MET
                    };
                    s.count(slo, &log.label, cycle, 1);
                }
                if let Some(bd) = &mut self.breakdowns {
                    // The causal join: the dispatch point, the window the
                    // batch waited on, and the launch's own timeline
                    // decomposition. `from_dispatch` verifies the sum
                    // identity, so every served request either carries an
                    // exact breakdown or the serve run fails loudly.
                    let out = &b.outcome;
                    let breakdown = LatencyBreakdown::from_dispatch(
                        request,
                        tenant,
                        b.batch,
                        r.at,
                        b.dispatch,
                        self.window_deadline,
                        cycle,
                        out.alignment_cycles,
                        out.span_cycles,
                        out.attempts(),
                        EPOCH_GAP_CYCLES,
                        out.compiles(),
                        out.reuses(),
                    )
                    .map_err(|e| RuntimeError::Execution(format!("attribution: {e}")))?;
                    bd.push(breakdown);
                }
                let slo_miss = missed.then(|| IncidentTrigger::SloMiss {
                    request,
                    tenant,
                    late: cycle - r.deadline(),
                });
                [slo_miss, None]
            }
            EventKind::BatchBegin { size, .. } => {
                self.metrics.inc(names::SERVE_BATCHES, 1);
                self.metrics
                    .observe_cycles(names::SERVE_BATCH_SIZE, u64::from(size));
                // Post-dispatch depth: how much work the batch left behind.
                if let Some(s) = &mut self.sampler {
                    s.level(series::SERVE_QUEUE_DEPTH, "", cycle, queue.depth);
                }
                [None, None]
            }
            EventKind::BatchEnd { batch, .. } => {
                let b = self.batches.last().expect("a batch ends after its launch");
                let out = &b.outcome;
                let faulted = !out.failovers.is_empty() || out.fec_total().uncorrectable > 0;
                [
                    (b.certified == Some(false)).then_some(IncidentTrigger::Deviant { batch }),
                    faulted.then(|| IncidentTrigger::Fault {
                        batch,
                        replays: u64::from(out.replays()),
                        failovers: out.failovers.len() as u64,
                    }),
                ]
            }
            other => unreachable!("{} is not a serving fact", other.name()),
        };
        if let Some(f) = &mut self.flight {
            for trigger in fired.into_iter().flatten() {
                f.trigger(trigger, cycle, residency, queue);
            }
        }
        Ok(())
    }

    /// Hands the observers a batch's launch before its completions are
    /// emitted: attribution and the Deviant/Fault triggers read it from
    /// the record, and the launch's link/chip heatmaps merge onto the
    /// serving timeline. Certified launches run base-0 into a scratch
    /// sink, so their window coordinates are not on this timeline — their
    /// heatmaps stay on the batch's own outcome record instead.
    fn launched(&mut self, record: BatchRecord, window_deadline: u64) {
        if let (Some(s), Some(lt), None) = (
            &mut self.sampler,
            &record.outcome.telemetry,
            record.certified,
        ) {
            s.absorb(lt);
        }
        self.window_deadline = window_deadline;
        self.batches.push(record);
    }

    /// Seals the run into its report. The run's residency behaviour is
    /// recorded as a delta over the manager's lifetime counters, so
    /// per-launch metrics stay untouched.
    fn finish(
        self,
        residency: &ResidencyManager,
        before: &ResidencyStats,
    ) -> Result<ServeReport, RuntimeError> {
        self.metrics
            .set_gauge(names::SERVE_QUEUE_DEPTH, self.max_depth);
        residency.record_delta(before, &self.metrics);
        let telemetry = self.sampler.map(Sampler::finish);
        let incidents = self.flight.map(|f| f.finish(telemetry.as_ref()));
        // Aggregation re-verifies every breakdown's sum identity.
        let attribution = self
            .breakdowns
            .map(AttributionReport::from_breakdowns)
            .transpose()
            .map_err(|e| RuntimeError::Execution(format!("attribution: {e}")))?;
        // The report's totals are folds of the per-tenant stats.
        let tenants: Vec<TenantStats> = self.tenants.into_values().map(|t| t.stats).collect();
        let mut latency = CycleHistogram::default();
        tenants.iter().for_each(|t| latency.merge(&t.latency));
        Ok(ServeReport {
            offered: self.offered.len() as u64,
            served: tenants.iter().map(|t| t.served).sum(),
            shed: tenants.iter().map(|t| t.shed).sum(),
            expired: tenants.iter().map(|t| t.expired).sum(),
            makespan: self.batches.iter().map(|b| b.completion).max().unwrap_or(0),
            batches: self.batches,
            outcomes: self.outcomes,
            latency,
            tenants,
            metrics: self.metrics.snapshot(),
            telemetry,
            attribution,
            incidents,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::SparePolicy;
    use crate::system::System;
    use tsm_compiler::graph::OpKind;
    use tsm_topology::TspId;

    #[test]
    fn queue_orders_by_priority_then_deadline_then_seq() {
        let mut q: WorkQueue<u32> = WorkQueue::new(16);
        q.try_push(1, 50, 0, 0).unwrap();
        q.try_push(0, 90, 0, 1).unwrap();
        q.try_push(0, 90, 0, 2).unwrap(); // FIFO tie with the previous
        q.try_push(0, 10, 0, 3).unwrap();
        q.try_push(2, 0, 0, 4).unwrap();
        let drained: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![3, 1, 2, 0, 4]);
    }

    #[test]
    fn queue_capacity_and_tenant_quota_refuse() {
        let mut q: WorkQueue<()> = WorkQueue::new(2).with_tenant_quota(1);
        q.try_push(0, 0, 7, ()).unwrap();
        assert_eq!(q.try_push(0, 0, 7, ()), Err(AdmitError::TenantOverQuota));
        q.try_push(0, 0, 8, ()).unwrap();
        assert_eq!(q.try_push(0, 0, 9, ()), Err(AdmitError::QueueFull));
        // popping frees both the slot and the quota
        q.pop().unwrap();
        q.try_push(0, 0, 7, ()).unwrap();
    }

    fn tiny_model(batch: u32) -> Graph {
        let mut g = Graph::new();
        // Span scales with batch so batching visibly changes service time.
        g.add(
            TspId(0),
            OpKind::Compute {
                cycles: 1_000 * batch as u64,
            },
            vec![],
        )
        .unwrap();
        g
    }

    fn server(cfg: ServeConfig) -> Server {
        let rt = Runtime::new(System::with_nodes(4).unwrap(), SparePolicy::PerSystem);
        let mut s = Server::new(rt, cfg);
        let id = s.add_model(tiny_model);
        assert_eq!(id, 0);
        s
    }

    fn req(at: u64, tenant: u32) -> Request {
        Request {
            at,
            tenant,
            model: 0,
            priority: 1,
            deadline_slack: 1_000_000,
        }
    }

    #[test]
    fn serve_batches_within_window_and_accounts_tenants() {
        let mut s = server(ServeConfig {
            batch_window: 500,
            max_batch: 8,
            ..ServeConfig::default()
        });
        // Three requests inside one window, one straggler far later.
        let offered = [req(0, 0), req(10, 1), req(20, 0), req(900_000, 1)];
        let report = s.serve(&offered).unwrap();
        assert_eq!(report.served, 4);
        assert_eq!(report.shed, 0);
        assert_eq!(report.batches.len(), 2);
        assert_eq!(report.batches[0].size, 3);
        assert_eq!(report.batches[0].dispatch, 500);
        assert_eq!(report.batches[1].size, 1);
        let t0 = &report.tenants[0];
        let t1 = &report.tenants[1];
        assert_eq!((t0.tenant, t0.offered, t0.served), (0, 2, 2));
        assert_eq!((t1.tenant, t1.offered, t1.served), (1, 2, 2));
        assert_eq!(report.latency.count, 4);
        assert_eq!(report.metrics.counter(names::SERVE_BATCHES), 2);
    }

    #[test]
    fn overload_sheds_and_reports_backpressure() {
        let mut s = server(ServeConfig {
            queue_capacity: 2,
            batch_window: 1_000_000, // hold everything in the queue
            ..ServeConfig::default()
        });
        let offered: Vec<Request> = (0..5).map(|i| req(i, 0)).collect();
        let report = s.serve(&offered).unwrap();
        assert_eq!(report.shed, 3);
        assert_eq!(report.served, 2);
        assert_eq!(report.metrics.counter(names::SERVE_SHED), 3);
        assert_eq!(
            report
                .outcomes
                .iter()
                .filter(|o| **o == RequestOutcome::Shed)
                .count(),
            3
        );
    }

    #[test]
    fn tenant_quota_protects_the_other_tenant() {
        let mut s = server(ServeConfig {
            queue_capacity: 64,
            tenant_quota: 2,
            batch_window: 1_000_000,
            ..ServeConfig::default()
        });
        // Tenant 0 bursts 6 requests at cycle 0; tenant 1 arrives later.
        let mut offered: Vec<Request> = (0..6).map(|_| req(0, 0)).collect();
        offered.push(req(5, 1));
        let report = s.serve(&offered).unwrap();
        let t0 = report.tenants.iter().find(|t| t.tenant == 0).unwrap();
        let t1 = report.tenants.iter().find(|t| t.tenant == 1).unwrap();
        assert_eq!(t0.shed, 4, "burst capped at the quota");
        assert_eq!(t1.shed, 0, "quota kept room for the quiet tenant");
    }

    #[test]
    fn pop_removes_exhausted_tenants_so_the_map_stays_bounded() {
        let mut q: WorkQueue<u32> = WorkQueue::new(4);
        // Churn many distinct tenant ids through a small queue: the
        // per-tenant map must track only tenants currently queued, not
        // every id ever seen.
        for tenant in 0..1_000u32 {
            q.try_push(0, tenant as u64, tenant, tenant).unwrap();
            if q.len() == 4 {
                q.pop().unwrap();
                q.pop().unwrap();
            }
            assert!(
                q.tracked_tenants() <= q.len(),
                "tenant map leaked: {} tracked, {} queued",
                q.tracked_tenants(),
                q.len()
            );
        }
        while q.pop().is_some() {}
        assert_eq!(q.tracked_tenants(), 0, "drained queue tracks no tenants");
    }

    #[test]
    fn shed_reasons_split_backpressure_from_quota() {
        let mut s = server(ServeConfig {
            queue_capacity: 3,
            tenant_quota: 2,
            batch_window: 1_000_000, // hold everything in the queue
            ..ServeConfig::default()
        });
        // Tenant 0 bursts four requests: 2 admitted, 2 over quota. Then
        // tenants 1 and 2 fill the last slot and hit backpressure.
        let offered = [
            req(0, 0),
            req(1, 0),
            req(2, 0),
            req(3, 0),
            req(4, 1),
            req(5, 2),
        ];
        let report = s.serve(&offered).unwrap();
        assert_eq!(report.shed, 3);
        let t0 = report.tenants.iter().find(|t| t.tenant == 0).unwrap();
        let t2 = report.tenants.iter().find(|t| t.tenant == 2).unwrap();
        assert_eq!((t0.shed_queue_full, t0.shed_over_quota), (0, 2));
        assert_eq!((t2.shed_queue_full, t2.shed_over_quota), (1, 0));
        for t in &report.tenants {
            assert_eq!(t.shed, t.shed_queue_full + t.shed_over_quota);
        }
        assert_eq!(report.metrics.counter(names::SERVE_SHED_QUOTA), 2);
        assert_eq!(report.metrics.counter(names::SERVE_SHED_QUEUE_FULL), 1);
        assert_eq!(report.metrics.counter(names::SERVE_SHED), 3);
    }

    #[test]
    fn stale_head_expires_at_dispatch_instead_of_launching() {
        let mut s = server(ServeConfig {
            batch_window: 5_000, // the head goes stale while the window is open
            ..ServeConfig::default()
        });
        let offered = [
            Request {
                deadline_slack: 100,
                ..req(0, 0)
            },
            req(10, 1), // ample slack: served
        ];
        let report = s.serve(&offered).unwrap();
        assert_eq!(report.expired, 1);
        assert_eq!(report.served, 1);
        assert_eq!(report.shed, 0);
        assert_eq!(
            report.outcomes[0],
            RequestOutcome::Expired {
                deadline: 100,
                at: 5_000
            }
        );
        assert!(matches!(report.outcomes[1], RequestOutcome::Served { .. }));
        let t0 = report.tenants.iter().find(|t| t.tenant == 0).unwrap();
        assert_eq!((t0.expired, t0.served, t0.shed), (1, 0, 0));
        assert_eq!(report.metrics.counter(names::SERVE_EXPIRED), 1);
        // Only the live request launched.
        assert_eq!(report.batches.len(), 1);
        assert_eq!(report.batches[0].size, 1);
    }

    #[test]
    fn all_expired_queue_drains_without_launching() {
        let mut s = server(ServeConfig {
            batch_window: 10_000,
            ..ServeConfig::default()
        });
        let offered = [
            Request {
                deadline_slack: 1,
                ..req(0, 0)
            },
            Request {
                deadline_slack: 2,
                ..req(5, 0)
            },
        ];
        let report = s.serve(&offered).unwrap();
        assert_eq!((report.expired, report.served), (2, 0));
        assert!(report.batches.is_empty(), "nothing launched");
        assert_eq!(report.makespan, 0);
    }

    #[test]
    fn multi_model_round_robin_hits_the_residency_layer() {
        let mut s = server(ServeConfig::default());
        let other = s.add_model(|b| {
            let mut g = Graph::new();
            g.add(
                TspId(8),
                OpKind::Compute {
                    cycles: 700 * b as u64,
                },
                vec![],
            )
            .unwrap();
            g
        });
        // A,B,A,B,A,B with spaced arrivals: 2 compiles, then 4 hits — the
        // alternation that thrashed the old single-entry cache.
        let offered: Vec<Request> = (0..6)
            .map(|i| Request {
                model: if i % 2 == 0 { 0 } else { other },
                ..req(i * 100_000, 0)
            })
            .collect();
        let report = s.serve(&offered).unwrap();
        assert_eq!(report.served, 6);
        assert_eq!(report.metrics.counter(names::RES_MISSES), 2);
        assert_eq!(report.metrics.counter(names::RES_HITS), 4);
        assert_eq!(report.metrics.counter(names::RES_EVICTIONS), 0);
        assert_eq!(report.metrics.gauge(names::RES_RESIDENT_PLANS), Some(2));
    }

    #[test]
    fn serve_is_bit_reproducible() {
        let offered: Vec<Request> = (0..7).map(|i| req(i * 100, i as u32 % 2)).collect();
        let cfg = ServeConfig {
            batch_window: 250,
            seed: 42,
            ..ServeConfig::default()
        };
        let a = server(cfg).serve(&offered).unwrap();
        let b = server(cfg).serve(&offered).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn certify_requires_datapath() {
        let mut s = server(ServeConfig {
            certify: true,
            ..ServeConfig::default()
        });
        let err = s.serve(&[req(0, 0)]).unwrap_err();
        assert!(matches!(err, RuntimeError::Execution(ref m) if m.contains("certify")));
    }

    #[test]
    fn different_models_never_share_a_batch() {
        let mut s = server(ServeConfig {
            batch_window: 1_000,
            ..ServeConfig::default()
        });
        let other = s.add_model(|b| {
            let mut g = Graph::new();
            g.add(
                TspId(8),
                OpKind::Compute {
                    cycles: 500 * b as u64,
                },
                vec![],
            )
            .unwrap();
            g
        });
        let offered = [
            req(0, 0),
            Request {
                model: other,
                ..req(1, 0)
            },
            req(2, 0),
        ];
        let report = s.serve(&offered).unwrap();
        // Queue order is FIFO here (same priority/deadline-slack shape up
        // to arrival): model 0, model 1, model 0 — no cross-model folding,
        // and no reordering past the model-1 entry.
        assert_eq!(report.batches.len(), 3);
        assert!(report.batches.iter().all(|b| b.size == 1));
    }
}
