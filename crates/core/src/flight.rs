//! Bounded, deterministic incident capture for the serving runtime.
//!
//! The paper's determinism pitch is that every execution is perfectly
//! explainable — but an explanation needs evidence, and a serving sweep
//! that sheds a request or goes Deviant leaves its evidence scattered
//! across the trace, the residency manager, and the telemetry windows.
//! The [`FlightRecorder`] is the post-mortem substrate: while a serve
//! run executes it shadows the serving-lane event stream in a bounded
//! ring, and when an incident fires — Deviant conformance, an
//! uncorrectable/failover launch, a shed, an expiry, or an SLO miss — it
//! snapshots
//!
//! - the **trace tail**: the last K serving-lane events on the stitched
//!   timeline,
//! - the **residency state**: lifetime stats plus every resident plan,
//! - the **queue state**: depth, capacity, tracked tenants, quota,
//! - and, at finish, the **telemetry windows bracketing** the incident
//!   cycle (`[w-1, w+1]`),
//!
//! into an [`IncidentReport`]. Everything is a pure function of the
//! serve run's seed: captures are bounded (`max_incidents`, overflow
//! counted, never reallocated into surprise memory growth),
//! serialization uses the in-repo `JsonWriter`/`Cursor` (byte-reproducible,
//! round-trip tested), and no wall clock is consulted anywhere.
//!
//! The recorder is one fold over the serving run's single event stream:
//! it is handed each serving-lane [`TraceEvent`] exactly as the trace
//! sink receives it, so an incident's tail is a window of the trace.

use crate::residency::{ResidencyManager, ResidencyStats, ResidentInfo};
use std::collections::VecDeque;
use tsm_trace::{
    Cursor, EventKind, JsonWriter, ShedReason, Telemetry, TimeSeries, TraceEvent, SERVING_LANE,
};

/// Capture bounds for one serve run's recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlightConfig {
    /// How many serving-lane events the trace tail keeps (last K).
    pub trace_tail: usize,
    /// How many incidents one run captures; later triggers are counted
    /// as dropped, not recorded.
    pub max_incidents: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            trace_tail: 32,
            max_incidents: 8,
        }
    }
}

/// The work queue's occupancy against its bounds at one serving fact —
/// the queue snapshot an incident captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueView {
    /// Requests queued.
    pub depth: u64,
    /// The queue's admission capacity.
    pub capacity: u64,
    /// Tenants with at least one queued request.
    pub tracked_tenants: u64,
    /// The per-tenant in-queue quota.
    pub tenant_quota: u64,
}

/// What fired an incident capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentTrigger {
    /// A certified batch diverged from its plan (Deviant conformance).
    Deviant {
        /// Serving batch index.
        batch: u32,
    },
    /// A launch needed software replays or a failover to finish.
    Fault {
        /// Serving batch index.
        batch: u32,
        /// Replay epochs the launch consumed.
        replays: u64,
        /// Failovers the launch consumed.
        failovers: u64,
    },
    /// A request was shed at admission.
    Shed {
        /// Request id.
        request: u32,
        /// Tenant id.
        tenant: u32,
        /// Why admission refused it.
        reason: ShedReason,
    },
    /// A request's deadline passed while it was still queued.
    Expired {
        /// Request id.
        request: u32,
        /// Tenant id.
        tenant: u32,
        /// Cycles past the deadline at expiry.
        late: u64,
    },
    /// A request completed after its deadline.
    SloMiss {
        /// Request id.
        request: u32,
        /// Tenant id.
        tenant: u32,
        /// Cycles past the deadline at completion.
        late: u64,
    },
}

impl IncidentTrigger {
    /// Stable serde tag for the trigger kind.
    pub fn kind(&self) -> &'static str {
        match self {
            IncidentTrigger::Deviant { .. } => "deviant",
            IncidentTrigger::Fault { .. } => "fault",
            IncidentTrigger::Shed { .. } => "shed",
            IncidentTrigger::Expired { .. } => "expired",
            IncidentTrigger::SloMiss { .. } => "slo_miss",
        }
    }
}

impl std::fmt::Display for IncidentTrigger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            IncidentTrigger::Deviant { batch } => write!(f, "batch {batch} went Deviant"),
            IncidentTrigger::Fault {
                batch,
                replays,
                failovers,
            } => write!(
                f,
                "batch {batch} needed {replays} replay(s), {failovers} failover(s)"
            ),
            IncidentTrigger::Shed {
                request,
                tenant,
                reason,
            } => {
                let why = match reason {
                    ShedReason::QueueFull => "queue full",
                    ShedReason::TenantOverQuota => "tenant over quota",
                };
                write!(f, "request {request} (tenant {tenant}) shed: {why}")
            }
            IncidentTrigger::Expired {
                request,
                tenant,
                late,
            } => write!(
                f,
                "request {request} (tenant {tenant}) expired in queue, {late} cycles late"
            ),
            IncidentTrigger::SloMiss {
                request,
                tenant,
                late,
            } => write!(
                f,
                "request {request} (tenant {tenant}) missed SLO by {late} cycles"
            ),
        }
    }
}

/// One captured incident: the trigger plus every snapshot listed in the
/// module docs. Serializes through [`IncidentReport::to_json`] /
/// [`IncidentReport::from_json`]; byte-reproducible from the serve seed.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentReport {
    /// Global trigger ordinal within the run (dropped triggers still
    /// advance it, so gaps reveal overflow).
    pub seq: u64,
    /// Virtual cycle at which the trigger fired.
    pub cycle: u64,
    /// What fired.
    pub trigger: IncidentTrigger,
    /// Last K serving-lane events before (and including) the trigger.
    pub trace_tail: Vec<TraceEvent>,
    /// Residency manager lifetime counters at trigger.
    pub residency: ResidencyStats,
    /// Every resident plan at trigger, sorted by `(graph_fp, epoch)`.
    pub resident: Vec<ResidentInfo>,
    /// Requests in the work queue at trigger.
    pub queue_depth: u64,
    /// The queue's configured capacity.
    pub queue_capacity: u64,
    /// Tenants with at least one queued request at trigger.
    pub tracked_tenants: u64,
    /// The per-tenant in-queue quota.
    pub tenant_quota: u64,
    /// The telemetry window containing the trigger cycle (when the run
    /// sampled telemetry).
    pub telemetry_window: Option<u64>,
    /// Telemetry restricted to the windows bracketing the incident
    /// (`[w-1, w+1]`), attached at [`FlightRecorder::finish`].
    pub telemetry: Option<Telemetry>,
}

impl IncidentReport {
    /// Pretty-printed JSON via the in-repo writer. Deterministic: field
    /// order is fixed and every collection is already sorted.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.field_u64("seq", self.seq);
        w.field_u64("cycle", self.cycle);
        w.key("trigger").begin_object();
        w.field_str("kind", self.trigger.kind());
        match self.trigger {
            IncidentTrigger::Deviant { batch } => {
                w.field_u64("batch", u64::from(batch));
            }
            IncidentTrigger::Fault {
                batch,
                replays,
                failovers,
            } => {
                w.field_u64("batch", u64::from(batch));
                w.field_u64("replays", replays);
                w.field_u64("failovers", failovers);
            }
            IncidentTrigger::Shed {
                request,
                tenant,
                reason,
            } => {
                w.field_u64("request", u64::from(request));
                w.field_u64("tenant", u64::from(tenant));
                w.field_str(
                    "reason",
                    match reason {
                        ShedReason::QueueFull => "queue_full",
                        ShedReason::TenantOverQuota => "tenant_over_quota",
                    },
                );
            }
            IncidentTrigger::Expired {
                request,
                tenant,
                late,
            }
            | IncidentTrigger::SloMiss {
                request,
                tenant,
                late,
            } => {
                w.field_u64("request", u64::from(request));
                w.field_u64("tenant", u64::from(tenant));
                w.field_u64("late", late);
            }
        }
        w.end_object();
        w.field_u64("queue_depth", self.queue_depth);
        w.field_u64("queue_capacity", self.queue_capacity);
        w.field_u64("tracked_tenants", self.tracked_tenants);
        w.field_u64("tenant_quota", self.tenant_quota);
        w.key("residency").begin_object();
        w.field_u64("hits", self.residency.hits);
        w.field_u64("misses", self.residency.misses);
        w.field_u64("evictions", self.residency.evictions);
        w.field_u64("stale_drops", self.residency.stale_drops);
        w.field_u64("warm_starts", self.residency.warm_starts);
        w.field_u64("resident_bytes", self.residency.resident_bytes);
        w.field_u64("resident_plans", self.residency.resident_plans);
        w.end_object();
        w.key("resident").begin_array();
        for r in &self.resident {
            w.begin_object();
            w.field_u64("graph_fp", r.graph_fp);
            w.field_u64("epoch", r.epoch);
            w.field_u64("bytes", r.bytes);
            w.field_u64("last_used", r.last_used);
            w.key("has_datapath");
            w.bool(r.has_datapath);
            w.end_object();
        }
        w.end_array();
        w.key("trace_tail").begin_array();
        for e in &self.trace_tail {
            w.raw(&e.to_json());
        }
        w.end_array();
        if let Some(tw) = self.telemetry_window {
            w.field_u64("telemetry_window", tw);
        }
        if let Some(t) = &self.telemetry {
            w.field_raw("telemetry", &t.to_json());
        }
        w.end_object();
        w.finish()
    }

    /// Parses a document produced by [`IncidentReport::to_json`].
    pub fn from_json(s: &str) -> Result<IncidentReport, String> {
        let mut c = Cursor::new(s);
        let report = Self::parse(&mut c)?;
        c.expect_end()?;
        Ok(report)
    }

    /// Parses one incident object at the cursor.
    pub fn parse(c: &mut Cursor<'_>) -> Result<IncidentReport, String> {
        let mut seq = None;
        let mut cycle = None;
        let mut trigger = None;
        let mut trace_tail = Vec::new();
        let mut residency = ResidencyStats::default();
        let mut resident = Vec::new();
        let mut queue_depth = None;
        let mut queue_capacity = None;
        let mut tracked_tenants = None;
        let mut tenant_quota = None;
        let mut telemetry_window = None;
        let mut telemetry = None;
        c.object(|c, key| match key {
            "seq" => {
                seq = Some(c.u64()?);
                Ok(())
            }
            "cycle" => {
                cycle = Some(c.u64()?);
                Ok(())
            }
            "trigger" => {
                trigger = Some(parse_trigger(c)?);
                Ok(())
            }
            "queue_depth" => {
                queue_depth = Some(c.u64()?);
                Ok(())
            }
            "queue_capacity" => {
                queue_capacity = Some(c.u64()?);
                Ok(())
            }
            "tracked_tenants" => {
                tracked_tenants = Some(c.u64()?);
                Ok(())
            }
            "tenant_quota" => {
                tenant_quota = Some(c.u64()?);
                Ok(())
            }
            "residency" => c.object(|c, key| {
                let v = c.u64()?;
                match key {
                    "hits" => residency.hits = v,
                    "misses" => residency.misses = v,
                    "evictions" => residency.evictions = v,
                    "stale_drops" => residency.stale_drops = v,
                    "warm_starts" => residency.warm_starts = v,
                    "resident_bytes" => residency.resident_bytes = v,
                    "resident_plans" => residency.resident_plans = v,
                    other => return Err(format!("unknown residency key {other:?}")),
                }
                Ok(())
            }),
            "resident" => c.array(|c| {
                let mut info = ResidentInfo {
                    graph_fp: 0,
                    epoch: 0,
                    bytes: 0,
                    last_used: 0,
                    has_datapath: false,
                };
                c.object(|c, key| {
                    match key {
                        "graph_fp" => info.graph_fp = c.u64()?,
                        "epoch" => info.epoch = c.u64()?,
                        "bytes" => info.bytes = c.u64()?,
                        "last_used" => info.last_used = c.u64()?,
                        "has_datapath" => info.has_datapath = c.bool()?,
                        other => return Err(format!("unknown resident key {other:?}")),
                    }
                    Ok(())
                })?;
                resident.push(info);
                Ok(())
            }),
            "trace_tail" => c.array(|c| {
                trace_tail.push(TraceEvent::parse(c)?);
                Ok(())
            }),
            "telemetry_window" => {
                telemetry_window = Some(c.u64()?);
                Ok(())
            }
            "telemetry" => {
                telemetry = Some(Telemetry::from_json(c.raw_value()?)?);
                Ok(())
            }
            other => Err(format!("unknown incident key {other:?}")),
        })?;
        Ok(IncidentReport {
            seq: seq.ok_or("incident missing seq")?,
            cycle: cycle.ok_or("incident missing cycle")?,
            trigger: trigger.ok_or("incident missing trigger")?,
            trace_tail,
            residency,
            resident,
            queue_depth: queue_depth.ok_or("incident missing queue_depth")?,
            queue_capacity: queue_capacity.ok_or("incident missing queue_capacity")?,
            tracked_tenants: tracked_tenants.ok_or("incident missing tracked_tenants")?,
            tenant_quota: tenant_quota.ok_or("incident missing tenant_quota")?,
            telemetry_window,
            telemetry,
        })
    }

    /// Human-readable multi-line rendering, for `repro incidents`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "incident #{} @ cycle {} [{}] — {}",
            self.seq,
            self.cycle,
            self.trigger.kind(),
            self.trigger
        );
        let _ = writeln!(
            out,
            "  queue: {}/{} requests, {} tenant(s) tracked (quota {})",
            self.queue_depth, self.queue_capacity, self.tracked_tenants, self.tenant_quota
        );
        let _ = writeln!(
            out,
            "  residency: {} plan(s) / {} B resident, {} hit(s), {} miss(es), {} eviction(s)",
            self.residency.resident_plans,
            self.residency.resident_bytes,
            self.residency.hits,
            self.residency.misses,
            self.residency.evictions
        );
        match (self.trace_tail.first(), self.trace_tail.last()) {
            (Some(first), Some(last)) => {
                let _ = writeln!(
                    out,
                    "  trace tail: {} event(s), cycles {}..={}",
                    self.trace_tail.len(),
                    first.cycle,
                    last.cycle
                );
            }
            _ => {
                let _ = writeln!(out, "  trace tail: empty");
            }
        }
        match (&self.telemetry, self.telemetry_window) {
            (Some(t), Some(w)) => {
                let _ = writeln!(
                    out,
                    "  telemetry: {} series bracketing window {} ({}..={})",
                    t.series.len(),
                    w,
                    w.saturating_sub(1),
                    w + 1
                );
            }
            _ => {
                let _ = writeln!(out, "  telemetry: not sampled");
            }
        }
        out
    }
}

fn parse_trigger(c: &mut Cursor<'_>) -> Result<IncidentTrigger, String> {
    let mut kind = None;
    let mut reason = None;
    let mut nums: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    c.object(|c, key| {
        match key {
            "kind" => kind = Some(c.string()?),
            "reason" => reason = Some(c.string()?),
            other => {
                nums.insert(other.to_string(), c.u64()?);
            }
        }
        Ok(())
    })?;
    let num = |k: &str| -> Result<u64, String> {
        nums.get(k).copied().ok_or(format!("trigger missing {k:?}"))
    };
    let num32 = |k: &str| -> Result<u32, String> {
        u32::try_from(num(k)?).map_err(|_| format!("trigger field {k:?} out of u32 range"))
    };
    match kind.as_deref() {
        Some("deviant") => Ok(IncidentTrigger::Deviant {
            batch: num32("batch")?,
        }),
        Some("fault") => Ok(IncidentTrigger::Fault {
            batch: num32("batch")?,
            replays: num("replays")?,
            failovers: num("failovers")?,
        }),
        Some("shed") => Ok(IncidentTrigger::Shed {
            request: num32("request")?,
            tenant: num32("tenant")?,
            reason: match reason.as_deref() {
                Some("queue_full") => ShedReason::QueueFull,
                Some("tenant_over_quota") => ShedReason::TenantOverQuota,
                other => return Err(format!("bad shed reason {other:?}")),
            },
        }),
        Some("expired") => Ok(IncidentTrigger::Expired {
            request: num32("request")?,
            tenant: num32("tenant")?,
            late: num("late")?,
        }),
        Some("slo_miss") => Ok(IncidentTrigger::SloMiss {
            request: num32("request")?,
            tenant: num32("tenant")?,
            late: num("late")?,
        }),
        other => Err(format!("unknown trigger kind {other:?}")),
    }
}

/// The recorder one serve run threads through its event loop. See the
/// module docs for the capture model.
#[derive(Debug)]
pub struct FlightRecorder {
    cfg: FlightConfig,
    tail: VecDeque<TraceEvent>,
    incidents: Vec<IncidentReport>,
    /// Total triggers fired, including ones dropped at capacity.
    fired: u64,
    /// Serving-lane events recorded so far.
    observed: u32,
}

impl FlightRecorder {
    /// An empty recorder with the given bounds.
    pub fn new(cfg: FlightConfig) -> Self {
        FlightRecorder {
            cfg,
            tail: VecDeque::with_capacity(cfg.trace_tail.min(1024)),
            incidents: Vec::new(),
            fired: 0,
            observed: 0,
        }
    }

    /// Appends one serving-lane event to the bounded tail, verbatim.
    pub fn record(&mut self, event: TraceEvent) {
        self.observed = self.observed.wrapping_add(1);
        if self.cfg.trace_tail == 0 {
            return;
        }
        if self.tail.len() == self.cfg.trace_tail {
            self.tail.pop_front();
        }
        self.tail.push_back(event);
    }

    /// [`FlightRecorder::record`] for a bare `(cycle, kind)` fact, stamped
    /// with the count of events recorded so far as its sequence number.
    pub fn observe(&mut self, cycle: u64, kind: EventKind) {
        self.record(TraceEvent {
            cycle,
            lane: SERVING_LANE,
            seq: self.observed,
            dur: 0,
            kind,
        });
    }

    /// Captures an incident: the trigger plus the tail/residency/queue
    /// snapshots. Beyond `max_incidents` the trigger only advances the
    /// ordinal (visible as a `seq` gap and in
    /// [`FlightRecorder::dropped`]).
    pub fn trigger(
        &mut self,
        trigger: IncidentTrigger,
        cycle: u64,
        residency: &ResidencyManager,
        queue: QueueView,
    ) {
        let seq = self.fired;
        self.fired += 1;
        if self.incidents.len() >= self.cfg.max_incidents {
            return;
        }
        self.incidents.push(IncidentReport {
            seq,
            cycle,
            trigger,
            trace_tail: self.tail.iter().copied().collect(),
            residency: residency.stats(),
            resident: residency.resident(),
            queue_depth: queue.depth,
            queue_capacity: queue.capacity,
            tracked_tenants: queue.tracked_tenants,
            tenant_quota: queue.tenant_quota,
            telemetry_window: None,
            telemetry: None,
        });
    }

    /// Incidents captured so far.
    pub fn len(&self) -> usize {
        self.incidents.len()
    }

    /// Whether nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.incidents.is_empty()
    }

    /// Triggers that fired after the capture bound was hit.
    pub fn dropped(&self) -> u64 {
        self.fired - self.incidents.len() as u64
    }

    /// Seals the run: attaches to every incident the telemetry windows
    /// bracketing its trigger cycle (`[w-1, w+1]` on the sampler's
    /// window axis) and returns the captured incidents in trigger order.
    pub fn finish(self, telemetry: Option<&Telemetry>) -> Vec<IncidentReport> {
        let mut incidents = self.incidents;
        if let Some(t) = telemetry {
            let window = t.window.max(1);
            for inc in &mut incidents {
                let w = inc.cycle / window;
                let lo = w.saturating_sub(1);
                let hi = w + 1;
                let series: Vec<TimeSeries> = t
                    .series
                    .iter()
                    .filter_map(|s| {
                        let points: Vec<(u64, u64)> = s
                            .points
                            .iter()
                            .copied()
                            .filter(|&(pw, _)| (lo..=hi).contains(&pw))
                            .collect();
                        if points.is_empty() {
                            return None;
                        }
                        let mut clipped = TimeSeries::new(&s.name, &s.label, s.kind);
                        clipped.points = points;
                        Some(clipped)
                    })
                    .collect();
                inc.telemetry_window = Some(w);
                inc.telemetry = Some(Telemetry {
                    window: t.window,
                    slo_permille: t.slo_permille,
                    series,
                });
            }
        }
        incidents
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsm_trace::{Sampler, TelemetryConfig};

    fn enqueue(request: u32) -> EventKind {
        EventKind::RequestEnqueue { tenant: 0, request }
    }

    fn shed(request: u32) -> IncidentTrigger {
        IncidentTrigger::Shed {
            request,
            tenant: 1,
            reason: ShedReason::QueueFull,
        }
    }

    #[test]
    fn tail_is_bounded_and_keeps_the_newest_events() {
        let mut f = FlightRecorder::new(FlightConfig {
            trace_tail: 3,
            max_incidents: 8,
        });
        for i in 0..5u32 {
            f.observe(100 + u64::from(i), enqueue(i));
        }
        let res = ResidencyManager::new();
        f.trigger(
            shed(9),
            500,
            &res,
            QueueView {
                depth: 2,
                capacity: 4,
                tracked_tenants: 1,
                tenant_quota: 2,
            },
        );
        let incidents = f.finish(None);
        let tail: Vec<u32> = incidents[0].trace_tail.iter().map(|e| e.seq).collect();
        assert_eq!(tail, vec![2, 3, 4], "oldest events fell off the front");
    }

    #[test]
    fn capture_is_bounded_and_overflow_is_visible() {
        let mut f = FlightRecorder::new(FlightConfig {
            trace_tail: 4,
            max_incidents: 2,
        });
        let res = ResidencyManager::new();
        for i in 0..5 {
            f.trigger(
                shed(i),
                100 + u64::from(i),
                &res,
                QueueView {
                    depth: 0,
                    capacity: 4,
                    tracked_tenants: 0,
                    tenant_quota: 2,
                },
            );
        }
        assert_eq!(f.len(), 2);
        assert_eq!(f.dropped(), 3);
        let incidents = f.finish(None);
        assert_eq!(incidents.len(), 2);
        assert_eq!(
            (incidents[0].seq, incidents[1].seq),
            (0, 1),
            "seq is the global trigger ordinal"
        );
    }

    #[test]
    fn finish_attaches_the_bracketing_telemetry_windows() {
        let mut s = Sampler::new(TelemetryConfig {
            window: 100,
            slo_permille: 990,
        });
        // Windows 0..=5 each get one count; the incident in window 3
        // must carry exactly windows 2..=4.
        for w in 0..6u64 {
            s.count("serve.throughput", "t0", w * 100, 1);
        }
        let t = s.finish();
        let mut f = FlightRecorder::new(FlightConfig::default());
        let res = ResidencyManager::new();
        f.trigger(
            shed(1),
            350,
            &res,
            QueueView {
                depth: 1,
                capacity: 4,
                tracked_tenants: 1,
                tenant_quota: 2,
            },
        );
        let incidents = f.finish(Some(&t));
        let inc = &incidents[0];
        assert_eq!(inc.telemetry_window, Some(3));
        let tel = inc.telemetry.as_ref().unwrap();
        assert_eq!(tel.window, 100);
        let pts = &tel.get("serve.throughput", "t0").unwrap().points;
        assert_eq!(pts, &vec![(2, 1), (3, 1), (4, 1)]);
    }

    #[test]
    fn incident_json_round_trips_byte_identically() {
        let mut s = Sampler::new(TelemetryConfig {
            window: 64,
            slo_permille: 990,
        });
        s.count("serve.slo.missed", "t1", 130, 2);
        let t = s.finish();
        let mut f = FlightRecorder::new(FlightConfig {
            trace_tail: 2,
            max_incidents: 4,
        });
        f.observe(100, enqueue(0));
        f.observe(120, enqueue(1));
        let res = ResidencyManager::new();
        f.trigger(
            IncidentTrigger::Fault {
                batch: 3,
                replays: 2,
                failovers: 1,
            },
            140,
            &res,
            QueueView {
                depth: 3,
                capacity: 8,
                tracked_tenants: 2,
                tenant_quota: 4,
            },
        );
        let mut incidents = f.finish(Some(&t));
        // Exercise the resident-list serde too.
        incidents[0].resident.push(ResidentInfo {
            graph_fp: 0xDEAD_BEEF,
            epoch: 1,
            bytes: 4096,
            last_used: 7,
            has_datapath: true,
        });
        let json = incidents[0].to_json();
        let back = IncidentReport::from_json(&json).expect("round trip");
        assert_eq!(back, incidents[0]);
        assert_eq!(back.to_json(), json, "re-serialization is byte-identical");
    }

    #[test]
    fn every_trigger_kind_round_trips_and_renders() {
        let res = ResidencyManager::new();
        let triggers = [
            IncidentTrigger::Deviant { batch: 2 },
            IncidentTrigger::Fault {
                batch: 0,
                replays: 5,
                failovers: 0,
            },
            IncidentTrigger::Shed {
                request: 1,
                tenant: 2,
                reason: ShedReason::TenantOverQuota,
            },
            IncidentTrigger::Expired {
                request: 3,
                tenant: 0,
                late: 44,
            },
            IncidentTrigger::SloMiss {
                request: 4,
                tenant: 1,
                late: 9,
            },
        ];
        let mut f = FlightRecorder::new(FlightConfig::default());
        for (i, &tr) in triggers.iter().enumerate() {
            f.trigger(
                tr,
                100 * (i as u64 + 1),
                &res,
                QueueView {
                    depth: 1,
                    capacity: 4,
                    tracked_tenants: 1,
                    tenant_quota: 2,
                },
            );
        }
        for inc in f.finish(None) {
            let back = IncidentReport::from_json(&inc.to_json()).expect("round trip");
            assert_eq!(back, inc);
            let rendered = inc.render();
            assert!(rendered.contains(&format!("[{}]", inc.trigger.kind())));
            assert!(rendered.contains("queue: 1/4"));
        }
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(IncidentReport::from_json("{}").is_err(), "missing fields");
        assert!(
            IncidentReport::from_json(
                "{\"seq\":0,\"cycle\":1,\"trigger\":{\"kind\":\"nope\"},\"queue_depth\":0,\
                 \"queue_capacity\":0,\"tracked_tenants\":0,\"tenant_quota\":0}"
            )
            .is_err(),
            "unknown trigger kind"
        );
        assert!(
            IncidentReport::from_json(
                "{\"seq\":0,\"cycle\":1,\"trigger\":{\"kind\":\"shed\",\"request\":1,\
                 \"tenant\":0,\"reason\":\"bogus\"},\"queue_depth\":0,\"queue_capacity\":0,\
                 \"tracked_tenants\":0,\"tenant_quota\":0}"
            )
            .is_err(),
            "bad shed reason"
        );
    }
}
