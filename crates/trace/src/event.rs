//! Structured trace events and the [`Tracer`] emission helper.

use crate::json::{Cursor, JsonWriter};
use crate::sink::TraceSink;
use crate::telemetry::Sampler;
use std::collections::BTreeMap;

/// Lane carrying runtime-level orchestration events (compile, blame,
/// failover, replay epochs). Chip lanes use the chip's `TspId` value, which
/// is always far below this sentinel.
pub const RUNTIME_LANE: u32 = u32::MAX;

/// Lane carrying serving-frontend events (request enqueue/shed/complete,
/// batch windows). Kept distinct from [`RUNTIME_LANE`] so launch-level
/// traces can be compared exactly with or without a serving frontend by
/// filtering this lane out.
pub const SERVING_LANE: u32 = u32::MAX - 1;

/// Which admission limit rejected a request. Recorded on
/// [`EventKind::RequestShed`] so traces distinguish backpressure from
/// quota enforcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ShedReason {
    /// The bounded work queue was at capacity.
    QueueFull,
    /// The request's tenant was at its in-queue quota.
    TenantOverQuota,
}

/// What happened. Identifiers are raw integers (`TspId.0`, `LinkId.0`,
/// `NodeId.0`) so this crate stays a dependency leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// One chip's execution pass: issue of its first instruction through
    /// retirement of its last.
    ChipExec {
        /// Dependency depth of the chip's slot in the transfer DAG.
        depth: u32,
        /// Instructions in the chip's compiled program.
        instructions: u32,
    },
    /// The window in which a chip's scheduled inbound deliveries land.
    Deliveries {
        /// Deliveries bound into the chip this run.
        count: u32,
    },
    /// One scheduled vector landed on its destination chip: the
    /// cycle-coordinate ground truth the conformance profiler joins
    /// against the compiled plan. Emitted only for vectors that actually
    /// arrived (an uncorrectable packet produces no `Delivery`).
    Delivery {
        /// Index of the physical link the vector crossed.
        link: u32,
        /// Index of the transfer within the executing plan.
        transfer: u32,
        /// Vector index within that transfer.
        vector: u32,
    },
    /// The window of a chip's promised C2C emissions.
    Emissions {
        /// Emissions the chip's program promises.
        count: u32,
    },
    /// FEC corrected a single-bit flip in one packet on `link`.
    LinkCorrected {
        /// Index of the physical link.
        link: u32,
        /// Bit position of the corrected flip.
        bit: u32,
    },
    /// FEC flagged a packet on `link` as uncorrectable.
    LinkUncorrectable {
        /// Index of the physical link.
        link: u32,
    },
    /// A claimed "correction" on `link` produced wrong bytes and was
    /// demoted to uncorrectable rather than delivered.
    LinkDemoted {
        /// Index of the physical link.
        link: u32,
    },
    /// A runtime launch began.
    LaunchBegin {
        /// Structural fingerprint of the logical graph.
        graph_fp: u64,
    },
    /// The hardware-alignment window preceding epoch 0 (paper §4.2).
    Align,
    /// The runtime compiled the graph for the current mapping epoch.
    Compile {
        /// Mapping epoch the plan was compiled against.
        epoch: u64,
    },
    /// The runtime reused a cached plan.
    Reuse {
        /// Mapping epoch of the reused plan.
        epoch: u64,
    },
    /// One scheduled execution window (attempt 0 is the first try; higher
    /// attempts are replays).
    ReplayEpoch {
        /// Zero-based attempt index within the launch.
        attempt: u32,
    },
    /// The health monitor's blame vote elected a faulty node.
    BlameVote {
        /// Node that won the vote.
        node: u32,
        /// Endpoint votes the winner received.
        votes: u32,
    },
    /// The runtime failed a node over to its spare.
    Failover {
        /// Node that was replaced.
        node: u32,
        /// Mapping epoch after the failover.
        epoch: u64,
    },
    /// The launch concluded (successfully).
    LaunchEnd {
        /// Total execution attempts consumed.
        attempts: u32,
    },
    /// A serving request entered the work queue.
    RequestEnqueue {
        /// Tenant the request belongs to.
        tenant: u32,
        /// Serving-frontend request id (monotone per run).
        request: u32,
    },
    /// Admission control rejected a request (queue full or tenant over
    /// quota); the request never entered the queue.
    RequestShed {
        /// Tenant the request belongs to.
        tenant: u32,
        /// Serving-frontend request id (monotone per run).
        request: u32,
        /// Which admission limit fired.
        reason: ShedReason,
    },
    /// A queued request reached the dispatcher after its deadline had
    /// already passed (in virtual time) and was dropped unlaunched.
    RequestExpired {
        /// Tenant the request belongs to.
        tenant: u32,
        /// Serving-frontend request id (monotone per run).
        request: u32,
        /// Cycles between the deadline and the dispatch that found it.
        late: u64,
    },
    /// A request's batch finished executing; `latency` is the full
    /// enqueue→complete distance in virtual cycles.
    RequestComplete {
        /// Tenant the request belongs to.
        tenant: u32,
        /// Serving-frontend request id (monotone per run).
        request: u32,
        /// Enqueue→complete latency in virtual cycles.
        latency: u64,
    },
    /// A batch of queued requests was dispatched into a launch.
    BatchBegin {
        /// Monotone batch index within the serving run.
        batch: u32,
        /// Requests folded into the batch.
        size: u32,
    },
    /// The batch's launch returned.
    BatchEnd {
        /// Monotone batch index within the serving run.
        batch: u32,
        /// Execution attempts the underlying launch consumed.
        attempts: u32,
    },
}

/// A single trace record. `cycle` is a *simulated* cycle count, never wall
/// clock; `lane` is the chip (`TspId.0`) or [`RUNTIME_LANE`]; `seq` is a
/// per-run emission counter that makes the `(cycle, lane, seq)` key unique
/// and totally ordered. `dur == 0` marks an instant event, `dur > 0` a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    /// Simulated cycle at which the event begins.
    pub cycle: u64,
    /// Chip lane (`TspId.0`) or [`RUNTIME_LANE`].
    pub lane: u32,
    /// Emission sequence number within the run.
    pub seq: u32,
    /// Span length in cycles; zero for instant events.
    pub dur: u64,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// The unique, totally ordered merge key mandated by the determinism
    /// contract: per-chip ordered buffers merge by `(cycle, chip, seq)`.
    pub fn key(&self) -> (u64, u32, u32) {
        (self.cycle, self.lane, self.seq)
    }

    /// Compact, byte-deterministic JSON object: the coordinate fields,
    /// the kind's stable name, and the kind's payload fields flattened
    /// alongside. Used by the flight recorder's incident snapshots.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::compact();
        w.begin_object()
            .field_u64("cycle", self.cycle)
            .field_u64("lane", u64::from(self.lane))
            .field_u64("seq", u64::from(self.seq))
            .field_u64("dur", self.dur)
            .field_str("kind", self.kind.name());
        match self.kind {
            EventKind::ChipExec {
                depth,
                instructions,
            } => {
                w.field_u64("depth", u64::from(depth))
                    .field_u64("instructions", u64::from(instructions));
            }
            EventKind::Deliveries { count } | EventKind::Emissions { count } => {
                w.field_u64("count", u64::from(count));
            }
            EventKind::Delivery {
                link,
                transfer,
                vector,
            } => {
                w.field_u64("link", u64::from(link))
                    .field_u64("transfer", u64::from(transfer))
                    .field_u64("vector", u64::from(vector));
            }
            EventKind::LinkCorrected { link, bit } => {
                w.field_u64("link", u64::from(link))
                    .field_u64("bit", u64::from(bit));
            }
            EventKind::LinkUncorrectable { link } | EventKind::LinkDemoted { link } => {
                w.field_u64("link", u64::from(link));
            }
            EventKind::LaunchBegin { graph_fp } => {
                w.field_u64("graph_fp", graph_fp);
            }
            EventKind::Align => {}
            EventKind::Compile { epoch } | EventKind::Reuse { epoch } => {
                w.field_u64("epoch", epoch);
            }
            EventKind::ReplayEpoch { attempt } => {
                w.field_u64("attempt", u64::from(attempt));
            }
            EventKind::BlameVote { node, votes } => {
                w.field_u64("node", u64::from(node))
                    .field_u64("votes", u64::from(votes));
            }
            EventKind::Failover { node, epoch } => {
                w.field_u64("node", u64::from(node))
                    .field_u64("epoch", epoch);
            }
            EventKind::LaunchEnd { attempts } => {
                w.field_u64("attempts", u64::from(attempts));
            }
            EventKind::RequestEnqueue { tenant, request } => {
                w.field_u64("tenant", u64::from(tenant))
                    .field_u64("request", u64::from(request));
            }
            EventKind::RequestShed {
                tenant,
                request,
                reason,
            } => {
                w.field_u64("tenant", u64::from(tenant))
                    .field_u64("request", u64::from(request))
                    .field_str(
                        "reason",
                        match reason {
                            ShedReason::QueueFull => "queue_full",
                            ShedReason::TenantOverQuota => "tenant_over_quota",
                        },
                    );
            }
            EventKind::RequestExpired {
                tenant,
                request,
                late,
            } => {
                w.field_u64("tenant", u64::from(tenant))
                    .field_u64("request", u64::from(request))
                    .field_u64("late", late);
            }
            EventKind::RequestComplete {
                tenant,
                request,
                latency,
            } => {
                w.field_u64("tenant", u64::from(tenant))
                    .field_u64("request", u64::from(request))
                    .field_u64("latency", latency);
            }
            EventKind::BatchBegin { batch, size } => {
                w.field_u64("batch", u64::from(batch))
                    .field_u64("size", u64::from(size));
            }
            EventKind::BatchEnd { batch, attempts } => {
                w.field_u64("batch", u64::from(batch))
                    .field_u64("attempts", u64::from(attempts));
            }
        }
        w.end_object();
        w.finish()
    }

    /// Parses what [`TraceEvent::to_json`] emits — the exact inverse,
    /// field-order independent.
    pub fn from_json(s: &str) -> Result<TraceEvent, String> {
        let mut c = Cursor::new(s);
        let e = Self::parse(&mut c)?;
        c.expect_end()?;
        Ok(e)
    }

    /// Parses one event object at the cursor (for embedding in larger
    /// documents).
    pub fn parse(c: &mut Cursor<'_>) -> Result<TraceEvent, String> {
        let mut nums: BTreeMap<String, u64> = BTreeMap::new();
        let mut kind_name = None;
        let mut reason = None;
        c.object(|c, key| {
            match key {
                "kind" => kind_name = Some(c.string()?),
                "reason" => reason = Some(c.string()?),
                other => {
                    nums.insert(other.to_string(), c.u64()?);
                }
            }
            Ok(())
        })?;
        let num = |k: &str| -> Result<u64, String> {
            nums.get(k).copied().ok_or(format!("missing field {k:?}"))
        };
        let num32 = |k: &str| -> Result<u32, String> {
            u32::try_from(num(k)?).map_err(|_| format!("field {k:?} out of range"))
        };
        let kind_name = kind_name.ok_or("missing event kind")?;
        let kind = match kind_name.as_str() {
            "chip.exec" => EventKind::ChipExec {
                depth: num32("depth")?,
                instructions: num32("instructions")?,
            },
            "chip.deliveries" => EventKind::Deliveries {
                count: num32("count")?,
            },
            "chip.emissions" => EventKind::Emissions {
                count: num32("count")?,
            },
            "link.delivery" => EventKind::Delivery {
                link: num32("link")?,
                transfer: num32("transfer")?,
                vector: num32("vector")?,
            },
            "link.corrected" => EventKind::LinkCorrected {
                link: num32("link")?,
                bit: num32("bit")?,
            },
            "link.uncorrectable" => EventKind::LinkUncorrectable {
                link: num32("link")?,
            },
            "link.demoted" => EventKind::LinkDemoted {
                link: num32("link")?,
            },
            "launch.begin" => EventKind::LaunchBegin {
                graph_fp: num("graph_fp")?,
            },
            "launch.align" => EventKind::Align,
            "runtime.compile" => EventKind::Compile {
                epoch: num("epoch")?,
            },
            "runtime.reuse" => EventKind::Reuse {
                epoch: num("epoch")?,
            },
            "runtime.replay_epoch" => EventKind::ReplayEpoch {
                attempt: num32("attempt")?,
            },
            "runtime.blame_vote" => EventKind::BlameVote {
                node: num32("node")?,
                votes: num32("votes")?,
            },
            "runtime.failover" => EventKind::Failover {
                node: num32("node")?,
                epoch: num("epoch")?,
            },
            "launch.end" => EventKind::LaunchEnd {
                attempts: num32("attempts")?,
            },
            "serve.enqueue" => EventKind::RequestEnqueue {
                tenant: num32("tenant")?,
                request: num32("request")?,
            },
            "serve.shed" => EventKind::RequestShed {
                tenant: num32("tenant")?,
                request: num32("request")?,
                reason: match reason.as_deref() {
                    Some("queue_full") => ShedReason::QueueFull,
                    Some("tenant_over_quota") => ShedReason::TenantOverQuota,
                    other => return Err(format!("bad shed reason {other:?}")),
                },
            },
            "serve.expired" => EventKind::RequestExpired {
                tenant: num32("tenant")?,
                request: num32("request")?,
                late: num("late")?,
            },
            "serve.complete" => EventKind::RequestComplete {
                tenant: num32("tenant")?,
                request: num32("request")?,
                latency: num("latency")?,
            },
            "serve.batch" => EventKind::BatchBegin {
                batch: num32("batch")?,
                size: num32("size")?,
            },
            "serve.batch_end" => EventKind::BatchEnd {
                batch: num32("batch")?,
                attempts: num32("attempts")?,
            },
            other => return Err(format!("unknown event kind {other:?}")),
        };
        Ok(TraceEvent {
            cycle: num("cycle")?,
            lane: num32("lane")?,
            seq: num32("seq")?,
            dur: num("dur")?,
            kind,
        })
    }
}

impl EventKind {
    /// The kind's stable dotted name, shared with the Chrome-trace
    /// exporter's event names.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::ChipExec { .. } => "chip.exec",
            EventKind::Deliveries { .. } => "chip.deliveries",
            EventKind::Emissions { .. } => "chip.emissions",
            EventKind::Delivery { .. } => "link.delivery",
            EventKind::LinkCorrected { .. } => "link.corrected",
            EventKind::LinkUncorrectable { .. } => "link.uncorrectable",
            EventKind::LinkDemoted { .. } => "link.demoted",
            EventKind::LaunchBegin { .. } => "launch.begin",
            EventKind::Align => "launch.align",
            EventKind::Compile { .. } => "runtime.compile",
            EventKind::Reuse { .. } => "runtime.reuse",
            EventKind::ReplayEpoch { .. } => "runtime.replay_epoch",
            EventKind::BlameVote { .. } => "runtime.blame_vote",
            EventKind::Failover { .. } => "runtime.failover",
            EventKind::LaunchEnd { .. } => "launch.end",
            EventKind::RequestEnqueue { .. } => "serve.enqueue",
            EventKind::RequestShed { .. } => "serve.shed",
            EventKind::RequestExpired { .. } => "serve.expired",
            EventKind::RequestComplete { .. } => "serve.complete",
            EventKind::BatchBegin { .. } => "serve.batch",
            EventKind::BatchEnd { .. } => "serve.batch_end",
        }
    }
}

/// Emission helper owned by one instrumented run: holds the optional sink
/// and telemetry [`Sampler`], the monotone sequence counter, and a cycle
/// offset that relocates the run onto a caller-chosen timeline (the
/// runtime uses this to place each replay epoch after the previous one).
///
/// Each event is built once and handed to both observers: the sink
/// records it, the sampler folds it into its heatmaps
/// ([`Sampler::observe`]). With neither attached — or only a sink that
/// reports itself disabled, as [`crate::NullSink`] does — every emission
/// is a single branch and the sequence counter never advances, so
/// instrumented code does literally nothing beyond that branch.
#[derive(Debug)]
pub struct Tracer<'a> {
    sink: Option<&'a dyn TraceSink>,
    sampler: Option<&'a mut Sampler>,
    offset: u64,
    seq: u32,
}

impl<'a> Tracer<'a> {
    /// Wraps `sink`, treating a disabled sink the same as no sink.
    pub fn new(sink: Option<&'a dyn TraceSink>) -> Self {
        Tracer {
            sink: sink.filter(|s| s.is_enabled()),
            sampler: None,
            offset: 0,
            seq: 0,
        }
    }

    /// Builder form of [`Tracer::set_offset`].
    pub fn with_offset(mut self, offset: u64) -> Self {
        self.offset = offset;
        self
    }

    /// Also feeds every emitted event to `sampler`, at its
    /// offset-adjusted cycle.
    pub fn with_sampler(mut self, sampler: Option<&'a mut Sampler>) -> Self {
        self.sampler = sampler;
        self
    }

    /// All subsequently emitted events have `offset` added to their cycle.
    pub fn set_offset(&mut self, offset: u64) {
        self.offset = offset;
    }

    /// True when emitted events reach a sink or a sampler.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some() || self.sampler.is_some()
    }

    /// Emits an instant event at `cycle` (plus the configured offset).
    #[inline]
    pub fn instant(&mut self, cycle: u64, lane: u32, kind: EventKind) {
        self.emit(cycle, 0, lane, kind);
    }

    /// Emits a span of `dur` cycles starting at `cycle`.
    #[inline]
    pub fn span(&mut self, cycle: u64, dur: u64, lane: u32, kind: EventKind) {
        self.emit(cycle, dur, lane, kind);
    }

    /// Emits an instant event and returns it. Unlike [`Tracer::instant`]
    /// the event is built, and the sequence counter advances, even with
    /// nothing attached — for callers that hand the same event to
    /// observers of their own.
    pub fn stamp(&mut self, cycle: u64, lane: u32, kind: EventKind) -> TraceEvent {
        self.record(cycle, 0, lane, kind)
    }

    #[inline]
    fn emit(&mut self, cycle: u64, dur: u64, lane: u32, kind: EventKind) {
        if self.enabled() {
            self.record(cycle, dur, lane, kind);
        }
    }

    fn record(&mut self, cycle: u64, dur: u64, lane: u32, kind: EventKind) -> TraceEvent {
        let event = TraceEvent {
            cycle: cycle + self.offset,
            lane,
            seq: self.seq,
            dur,
            kind,
        };
        self.seq = self.seq.wrapping_add(1);
        if let Some(sampler) = self.sampler.as_deref_mut() {
            sampler.observe(&event);
        }
        if let Some(sink) = self.sink {
            sink.record(event);
        }
        event
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{NullSink, RingSink};

    #[test]
    fn no_sink_is_inert_and_never_advances_seq() {
        let mut t = Tracer::new(None);
        assert!(!t.enabled());
        t.instant(5, 0, EventKind::Align);
        t.span(9, 3, 1, EventKind::Deliveries { count: 2 });
    }

    #[test]
    fn null_sink_behaves_exactly_like_no_sink() {
        let null = NullSink;
        let mut t = Tracer::new(Some(&null));
        assert!(!t.enabled());
        t.instant(5, 0, EventKind::Align);
    }

    #[test]
    fn event_json_round_trips_every_kind() {
        let kinds = [
            EventKind::ChipExec {
                depth: 2,
                instructions: 9,
            },
            EventKind::Deliveries { count: 4 },
            EventKind::Emissions { count: 5 },
            EventKind::Delivery {
                link: 1,
                transfer: 2,
                vector: 3,
            },
            EventKind::LinkCorrected { link: 6, bit: 61 },
            EventKind::LinkUncorrectable { link: 7 },
            EventKind::LinkDemoted { link: 8 },
            EventKind::LaunchBegin {
                graph_fp: u64::MAX - 1,
            },
            EventKind::Align,
            EventKind::Compile { epoch: 3 },
            EventKind::Reuse { epoch: 4 },
            EventKind::ReplayEpoch { attempt: 2 },
            EventKind::BlameVote { node: 5, votes: 3 },
            EventKind::Failover { node: 5, epoch: 6 },
            EventKind::LaunchEnd { attempts: 3 },
            EventKind::RequestEnqueue {
                tenant: 1,
                request: 2,
            },
            EventKind::RequestShed {
                tenant: 1,
                request: 2,
                reason: ShedReason::QueueFull,
            },
            EventKind::RequestShed {
                tenant: 1,
                request: 2,
                reason: ShedReason::TenantOverQuota,
            },
            EventKind::RequestExpired {
                tenant: 1,
                request: 2,
                late: 99,
            },
            EventKind::RequestComplete {
                tenant: 1,
                request: 2,
                latency: 1234,
            },
            EventKind::BatchBegin { batch: 7, size: 3 },
            EventKind::BatchEnd {
                batch: 7,
                attempts: 1,
            },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let e = TraceEvent {
                cycle: i as u64 * 1_000,
                lane: if i % 2 == 0 { i as u32 } else { SERVING_LANE },
                seq: i as u32,
                dur: (i % 3) as u64,
                kind,
            };
            let json = e.to_json();
            let back = TraceEvent::from_json(&json).expect(&json);
            assert_eq!(back, e, "{json}");
            assert_eq!(back.to_json(), json, "re-serialization is byte-identical");
        }
    }

    #[test]
    fn event_from_json_rejects_malformed_documents() {
        assert!(TraceEvent::from_json("{}").is_err(), "missing kind");
        assert!(
            TraceEvent::from_json(
                "{\"cycle\":0,\"lane\":0,\"seq\":0,\"dur\":0,\"kind\":\"no.such\"}"
            )
            .is_err(),
            "unknown kind"
        );
        assert!(
            TraceEvent::from_json(
                "{\"cycle\":0,\"lane\":0,\"seq\":0,\"dur\":0,\"kind\":\"launch.end\"}"
            )
            .is_err(),
            "missing payload field"
        );
        assert!(
            TraceEvent::from_json(
                "{\"cycle\":0,\"lane\":0,\"seq\":0,\"dur\":0,\"kind\":\"serve.shed\",\
                 \"tenant\":0,\"request\":0,\"reason\":\"because\"}"
            )
            .is_err(),
            "bad shed reason"
        );
    }

    #[test]
    fn offset_relocates_cycles_and_seq_orders_ties() {
        let ring = RingSink::new(16);
        let mut t = Tracer::new(Some(&ring)).with_offset(100);
        assert!(t.enabled());
        t.instant(5, 2, EventKind::LinkUncorrectable { link: 7 });
        t.instant(5, 2, EventKind::LinkDemoted { link: 7 });
        let ev = ring.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].cycle, 105);
        assert_eq!(ev[1].cycle, 105);
        assert!(ev[0].key() < ev[1].key(), "seq breaks the cycle tie");
    }
}
