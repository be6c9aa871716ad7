//! Execute stage of the co-simulation pipeline: binding payload vectors to
//! a [`CompiledPlan`] and running every chip exactly once.
//!
//! The executor owns the per-chip simulators and *resets* them between
//! invocations instead of rebuilding them, so the marginal cost of one
//! more execution is the chip passes themselves — no routing, scheduling,
//! lowering or stream allocation happens here. This is the runtime half of
//! the paper's compile-once / execute-many contract (§5, Fig 17).
//!
//! Every chip's inputs are bound from the plan's manifest before any chip
//! runs, so chips carry no data dependency on each other at execute time.
//! The parallel path is therefore one scoped fan-out per execution: worker
//! `w` runs the chips whose compile-time [`ChipPlan::shard`] (a hash of the
//! TSP id) lands on `w`, so the assignment depends on the plan alone, never
//! on OS scheduling. Every observable (results, traces, metrics, the first
//! error) is merged on the calling thread in ascending `(depth, TspId)`
//! order, which is what makes serial and parallel execution bit-identical.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;
use tsm_chip::exec::{ChipSim, Payload};
use tsm_fault::inject::FecStats;
use tsm_isa::packet::WirePacket;
use tsm_link::channel::Channel;
use tsm_link::fec::FecOutcome;
use tsm_link::latency::LatencyModel;
use tsm_link::meter::LinkMeter;
use tsm_topology::LinkId;
use tsm_trace::telemetry::{Sampler, Telemetry, TelemetryConfig};
use tsm_trace::{names, EventKind, Metrics, TraceSink, Tracer};

use super::plan::{ChipPlan, CompiledPlan, PlannedDelivery, VecRef};
use super::verify::{verify_destinations, verify_emissions};
use super::{CosimError, CosimReport};

/// Environment variable overriding the parallel worker count (a positive
/// integer). An explicit [`PlanExecutor::set_threads`] wins over it; an
/// unset/invalid value falls back to `available_parallelism`.
pub const TSM_THREADS_ENV: &str = "TSM_THREADS";

/// An exact, deterministic corruption: flip `bits` of the payload of
/// vector `vector` of transfer `transfer` as it crosses `link`. Fault
/// tests use these to place a single- or multi-bit error on a specific
/// hop of a specific route, independent of any RNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetedFlip {
    /// Transfer index into the plan.
    pub transfer: u32,
    /// Vector index within the transfer.
    pub vector: u32,
    /// The hop (physical link) on which the corruption strikes.
    pub link: LinkId,
    /// Zero-based payload bit positions to flip.
    pub bits: Vec<usize>,
}

/// Per-link bit-error configuration for datapath fault injection.
///
/// When a model is passed to [`PlanExecutor::execute_with_faults`], every
/// inter-chip delivery traverses a [`Channel`] for its link: bit flips are
/// sampled from the link's BER (Poisson over the 2560 payload bits),
/// applied to a copy of the payload bytes, and run through the receiver's
/// FEC decoder. Corrected payloads continue downstream — and must still
/// verify bit-for-bit against the emission/destination manifests, which is
/// the paper's "constant-latency in-situ correction" claim exercised on
/// real data. An uncorrectable error aborts the run with
/// [`CosimError::Uncorrectable`].
///
/// Every delivery's flip pattern is derived from `(seed, link, transfer,
/// vector)` alone, so the injection is independent of chip iteration
/// order, payload bytes, and parallelism — a given seed corrupts the same
/// bits of the same vectors on the same hops, every run.
#[derive(Debug, Clone, Default)]
pub struct LinkFaultModel {
    /// BER applied to every link not listed in `per_link`.
    pub base_ber: f64,
    /// Per-link BER overrides (marginal links).
    pub per_link: HashMap<LinkId, f64>,
    /// Master seed for the per-delivery error draws.
    pub seed: u64,
    /// Exact corruptions, applied instead of sampling on the deliveries
    /// they name.
    pub targeted: Vec<TargetedFlip>,
}

impl LinkFaultModel {
    /// A model with one BER across every link.
    pub fn uniform(ber: f64, seed: u64) -> Self {
        LinkFaultModel {
            base_ber: ber,
            seed,
            ..LinkFaultModel::default()
        }
    }

    /// Overrides the BER of one (marginal) link.
    pub fn with_link(mut self, link: LinkId, ber: f64) -> Self {
        self.per_link.insert(link, ber);
        self
    }

    /// A model that samples nothing and applies only the given exact flips.
    pub fn targeted_only(flips: Vec<TargetedFlip>) -> Self {
        LinkFaultModel {
            targeted: flips,
            ..LinkFaultModel::default()
        }
    }

    /// The BER `link` operates at.
    pub fn ber_for(&self, link: LinkId) -> f64 {
        self.per_link.get(&link).copied().unwrap_or(self.base_ber)
    }

    /// Every targeted bit flip aimed at delivery `(vec, link)`.
    fn targeted_bits(&self, vec: VecRef, link: LinkId) -> Vec<usize> {
        self.targeted
            .iter()
            .filter(|t| t.transfer == vec.transfer && t.vector == vec.vector && t.link == link)
            .flat_map(|t| t.bits.iter().copied())
            .collect()
    }

    /// RNG for one delivery, keyed by (seed, link, transfer, vector) so the
    /// draw does not depend on the order deliveries are bound in.
    fn delivery_rng(&self, vec: VecRef, link: LinkId) -> StdRng {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.seed;
        for w in [link.0 as u64, vec.transfer as u64, vec.vector as u64] {
            h = (h ^ w).wrapping_mul(0x100_0000_01b3);
        }
        StdRng::seed_from_u64(h)
    }
}

/// Carries one delivery's payload through its link's channel: returns the
/// payload to hand the receiving chip, the FEC outcome observed, and
/// whether a miscorrection was demoted.
///
/// `Clean` keeps the original `Arc` (the executor's pointer-equality fast
/// path); `Corrected` re-wraps the repaired bytes in a fresh `Arc`, so the
/// downstream manifest checks fall back to the byte comparison — which is
/// exactly the bit-for-bit proof the fault mode exists to provide. The
/// demoting channel APIs guarantee a surviving `Corrected` outcome carries
/// the exact transmitted bytes: a "correction" that decodes to the wrong
/// payload (possible when ≥3 flips alias a valid single-error syndrome)
/// comes back `Uncorrectable` with `demoted = true` — the engine never
/// lets a plausible-but-wrong payload continue silently.
fn transmit_delivery(
    faults: &LinkFaultModel,
    channel: &Channel,
    d: &PlannedDelivery,
    original: &Payload,
) -> (Payload, FecOutcome, bool) {
    let packet = WirePacket::data(d.vec.vector as u16, original.as_ref().clone());
    let targeted = faults.targeted_bits(d.vec, d.link);
    let (delivery, demoted) = if targeted.is_empty() {
        let mut rng = faults.delivery_rng(d.vec, d.link);
        channel.transmit_demoting(&packet, d.cycle, &mut rng)
    } else {
        channel.transmit_with_flips_demoting(&packet, d.cycle, &targeted)
    };
    match delivery.outcome {
        FecOutcome::Clean => (Arc::clone(original), FecOutcome::Clean, false),
        FecOutcome::Corrected { bit } => (
            Arc::new(delivery.packet.payload),
            FecOutcome::Corrected { bit },
            false,
        ),
        // Decoder give-up, or a demoted miscorrection. Both force a
        // replay; neither may deliver wrong bytes.
        FecOutcome::Uncorrectable => (Arc::clone(original), FecOutcome::Uncorrectable, demoted),
    }
}

/// Reusable payload-binding executor.
///
/// One `PlanExecutor` can run many plans and many payload sets; its chip
/// simulators are reset (allocations retained) at the start of every
/// execution, so no state leaks between invocations and no state is
/// rebuilt. Serial and parallel execution are bit-identical — see the
/// module docs of [`super`].
#[derive(Debug, Default)]
pub struct PlanExecutor {
    /// Per-chip simulators, aligned by index with the executing plan's
    /// chip list (grown on demand), reset and re-bound on every
    /// execution. Indexing by position instead of TSP id keeps the warm
    /// path free of hash lookups.
    sims: Vec<ChipSim>,
    /// Where trace events go; `None` (the default) costs one branch per
    /// emission point, as does an attached [`tsm_trace::NullSink`].
    sink: Option<Arc<dyn TraceSink>>,
    /// Added to every emitted event's cycle — the runtime uses this to
    /// place each replay epoch after the previous one on the launch
    /// timeline. Metrics and reports are unaffected.
    trace_offset: u64,
    /// Explicit worker-count override (the `set_threads` knob); `None`
    /// defers to `TSM_THREADS`, then to `available_parallelism`.
    threads: Option<usize>,
    /// Windowed-telemetry sampling config; `None` (the default) keeps
    /// the sampler detached and every sampling point behind one branch,
    /// so disabled telemetry is bit- and trace-identical to pre-feature
    /// builds.
    telemetry_cfg: Option<TelemetryConfig>,
    /// Samples accumulated across executions since the last
    /// [`PlanExecutor::take_telemetry`] — a launch's attempts fold into
    /// one record, mirroring how attempt metrics absorb.
    sampler: Option<Sampler>,
}

impl PlanExecutor {
    /// An executor with no chip state yet; simulators are created on first
    /// use and recycled thereafter.
    pub fn new() -> Self {
        PlanExecutor::default()
    }

    /// Routes trace events from subsequent executions into `sink`.
    pub fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Detaches the trace sink (tracing back to zero-cost disabled).
    pub fn clear_trace_sink(&mut self) {
        self.sink = None;
    }

    /// Sets the cycle offset applied to subsequently emitted events.
    pub fn set_trace_offset(&mut self, offset: u64) {
        self.trace_offset = offset;
    }

    /// Enables windowed telemetry: subsequent executions derive per-link
    /// delivery and per-chip busy-cycle heatmaps on `cfg`'s window, at
    /// absolute (offset-adjusted) launch-timeline cycles. The heatmaps
    /// are folded from the `Delivery` and `ChipExec` events the executor
    /// emits, so they agree with the trace and never feed execution.
    pub fn set_telemetry(&mut self, cfg: TelemetryConfig) {
        self.telemetry_cfg = Some(cfg);
    }

    /// Disables telemetry and discards any unsampled accumulation.
    pub fn clear_telemetry(&mut self) {
        self.telemetry_cfg = None;
        self.sampler = None;
    }

    /// The active sampling configuration, if telemetry is enabled.
    pub fn telemetry_cfg(&self) -> Option<TelemetryConfig> {
        self.telemetry_cfg
    }

    /// Drains the samples accumulated since the last take into a sealed
    /// record — `Some` (possibly empty) whenever telemetry is enabled,
    /// `None` when it is off. The launch engine calls this once per
    /// launch so each outcome carries exactly its own heatmaps.
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        let cfg = self.telemetry_cfg?;
        Some(
            self.sampler
                .take()
                .map_or_else(|| Telemetry::empty(cfg), Sampler::finish),
        )
    }

    /// Pins the parallel worker count (clamped to at least 1). Overrides
    /// the `TSM_THREADS` environment variable. Has no effect on the serial
    /// entry points.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = Some(threads.max(1));
    }

    /// The worker count a parallel execution would use right now:
    /// explicit [`PlanExecutor::set_threads`] value, else a positive
    /// integer in `TSM_THREADS`, else `available_parallelism`.
    pub fn resolved_threads(&self) -> usize {
        if let Some(t) = self.threads {
            return t;
        }
        if let Ok(v) = std::env::var(TSM_THREADS_ENV) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Binds `payloads` to `plan` and executes it, chips fanned out over
    /// [`PlanExecutor::resolved_threads`] workers.
    ///
    /// `payloads[t][v]` is vector `v` of transfer `t` and must match the
    /// plan's [`TransferShape`]s exactly.
    ///
    /// [`TransferShape`]: super::plan::TransferShape
    pub fn execute(
        &mut self,
        plan: &CompiledPlan,
        payloads: &[Vec<Payload>],
    ) -> Result<CosimReport, CosimError> {
        self.execute_impl(plan, payloads, true, None)
    }

    /// [`PlanExecutor::execute`] with all chips run on the calling thread,
    /// in ascending (depth, TspId) order. Bit-identical to the parallel
    /// path — the determinism tests and benches compare the two.
    pub fn execute_serial(
        &mut self,
        plan: &CompiledPlan,
        payloads: &[Vec<Payload>],
    ) -> Result<CosimReport, CosimError> {
        self.execute_impl(plan, payloads, false, None)
    }

    /// [`PlanExecutor::execute`] with every inter-chip delivery passed
    /// through its link's BER channel per `faults` — the datapath fault
    /// mode. Corruption happens in the (serial) bind phase, so parallel
    /// and serial execution remain bit-identical under injection.
    pub fn execute_with_faults(
        &mut self,
        plan: &CompiledPlan,
        payloads: &[Vec<Payload>],
        faults: &LinkFaultModel,
    ) -> Result<CosimReport, CosimError> {
        self.execute_impl(plan, payloads, true, Some(faults))
    }

    /// [`PlanExecutor::execute_with_faults`], all chips on the calling
    /// thread.
    pub fn execute_with_faults_serial(
        &mut self,
        plan: &CompiledPlan,
        payloads: &[Vec<Payload>],
        faults: &LinkFaultModel,
    ) -> Result<CosimReport, CosimError> {
        self.execute_impl(plan, payloads, false, Some(faults))
    }

    fn execute_impl(
        &mut self,
        plan: &CompiledPlan,
        payloads: &[Vec<Payload>],
        parallel: bool,
        faults: Option<&LinkFaultModel>,
    ) -> Result<CosimReport, CosimError> {
        // The payloads must match the shapes the plan was compiled for.
        if payloads.len() != plan.shapes.len() {
            return Err(CosimError::PayloadCount {
                expected: plan.shapes.len(),
                got: payloads.len(),
            });
        }
        for (t, (shape, data)) in plan.shapes.iter().zip(payloads).enumerate() {
            if data.len() != shape.vectors as usize {
                return Err(CosimError::PayloadShape {
                    transfer: t,
                    expected: shape.vectors as usize,
                    got: data.len(),
                });
            }
        }

        let bind = |r: &VecRef| Arc::clone(&payloads[r.transfer as usize][r.vector as usize]);

        // Per-run observability state. All emission points below sit on
        // the serial spine (this bind loop and the merge loop),
        // so the event sequence — not just the sorted set — is identical
        // between serial and parallel execution. The tracer hands each
        // event to the telemetry sampler too: the link/chip heatmaps are a
        // fold of the `Delivery` and `ChipExec` events at their absolute
        // launch-timeline cycles, and accumulate across a launch's
        // attempts until `take_telemetry` drains them.
        let threads = if parallel { self.resolved_threads() } else { 1 };
        let metrics = Metrics::default();
        if let Some(cfg) = self.telemetry_cfg {
            self.sampler.get_or_insert_with(|| Sampler::new(cfg));
        }
        let mut tracer = Tracer::new(self.sink.as_deref())
            .with_offset(self.trace_offset)
            .with_sampler(self.sampler.as_mut());

        // Reset-not-rebuild: each chip's simulator keeps its allocations
        // across invocations; preloads and deliveries bind the new
        // payloads by Arc clone (pointer copies, no byte copies). In fault
        // mode each delivery additionally crosses its link's channel here,
        // in the serial bind phase — so injection cannot perturb the
        // parallel-vs-serial determinism contract.
        if self.sims.len() < plan.chips.len() {
            self.sims.resize_with(plan.chips.len(), ChipSim::default);
        }
        let mut channels: HashMap<LinkId, Channel> = HashMap::new();
        // Earliest uncorrectable delivery in (cycle, link, transfer) order;
        // the whole bind completes first so the FEC tally covers every
        // packet of the aborted attempt.
        let mut lost: Option<(u64, LinkId, usize)> = None;
        let mut culprits: Vec<LinkId> = Vec::new();
        let mut delivered: u64 = 0;
        for (chip, sim) in plan.chips.iter().zip(&mut self.sims) {
            sim.reset();
            let lane = chip.tsp.0;
            for p in &chip.preloads {
                sim.preload(p.slice, p.offset, bind(&p.vec));
            }
            delivered += chip.deliveries.len() as u64;
            for d in &chip.deliveries {
                // Deliveries are stored sorted by (port, cycle), so each
                // port queue is fed in order — no per-delivery re-sort.
                // A vector struck uncorrectable never arrived, so it emits
                // no Delivery event — the conformance profiler sees the
                // aborted window's gap instead of a phantom arrival.
                let mut landed = true;
                let payload = match faults {
                    None => bind(&d.vec),
                    Some(fm) => {
                        let channel = channels.entry(d.link).or_insert_with(|| {
                            Channel::new(LatencyModel::fixed(0), fm.ber_for(d.link))
                        });
                        let (payload, outcome, demoted) =
                            transmit_delivery(fm, channel, d, &bind(&d.vec));
                        LinkMeter::new(&metrics, d.link.0).record(&outcome, demoted);
                        match outcome {
                            FecOutcome::Clean => {}
                            FecOutcome::Corrected { bit } => tracer.instant(
                                d.cycle,
                                lane,
                                EventKind::LinkCorrected {
                                    link: d.link.0,
                                    bit: bit as u32,
                                },
                            ),
                            FecOutcome::Uncorrectable => {
                                let kind = if demoted {
                                    EventKind::LinkDemoted { link: d.link.0 }
                                } else {
                                    EventKind::LinkUncorrectable { link: d.link.0 }
                                };
                                tracer.instant(d.cycle, lane, kind);
                                culprits.push(d.link);
                                landed = false;
                                let key = (d.cycle, d.link, d.vec.transfer as usize);
                                if lost.is_none_or(|worst| key < worst) {
                                    lost = Some(key);
                                }
                            }
                        }
                        payload
                    }
                };
                if landed {
                    // The cycle-coordinate ground truth the conformance
                    // profiler joins against the plan's delivery manifest,
                    // and the only input of the per-link heatmap — a
                    // vector struck uncorrectable occupies no cell.
                    tracer.instant(
                        d.cycle,
                        lane,
                        EventKind::Delivery {
                            link: d.link.0,
                            transfer: d.vec.transfer,
                            vector: d.vec.vector,
                        },
                    );
                }
                sim.deliver_in_order(d.port, d.cycle, payload);
            }
            if tracer.enabled() && !chip.deliveries.is_empty() {
                let first = chip.deliveries.iter().map(|d| d.cycle).min().unwrap();
                let last = chip.deliveries.iter().map(|d| d.cycle).max().unwrap();
                tracer.span(
                    first,
                    (last - first).max(1),
                    lane,
                    EventKind::Deliveries {
                        count: chip.deliveries.len() as u32,
                    },
                );
            }
        }
        if let Some((cycle, link, transfer)) = lost {
            return Err(CosimError::Uncorrectable {
                link,
                transfer,
                cycle,
                fec: FecStats::from_metrics(&metrics.snapshot()),
                culprits,
            });
        }

        // Each chip runs exactly once. The parallel path runs every chip in
        // one fan-out first (worker `w` owns the chips whose compile-time
        // shard lands on `w`, tallying into its own metrics); the serial
        // path runs each chip inline as the merge reaches it. Either way
        // the merge walks the levels in ascending (depth, TspId) order on
        // this thread, so the first error — and every trace event — is
        // identical in both modes.
        let (mut fanned, worker_metrics) = if threads > 1 {
            let (results, metrics) =
                fan_out(plan, &mut self.sims[..plan.chips.len()], payloads, threads);
            (Some(results), metrics)
        } else {
            (None, vec![Metrics::default()])
        };
        let mut retire_cycles = HashMap::new();
        for &i in plan.levels.iter().flatten() {
            let chip = &plan.chips[i as usize];
            let retire = match fanned.as_mut() {
                Some(results) => results[i as usize]
                    .take()
                    .expect("every chip runs in exactly one worker"),
                None => run_chip(
                    plan,
                    chip,
                    &mut self.sims[i as usize],
                    payloads,
                    &worker_metrics[0],
                ),
            }?;
            retire_cycles.insert(chip.tsp, retire);
            if tracer.enabled() {
                let lane = chip.tsp.0;
                let instrs = plan.program(chip);
                let start = instrs.first().map_or(0, |i| i.cycle);
                tracer.span(
                    start,
                    retire.saturating_sub(start).max(1),
                    lane,
                    EventKind::ChipExec {
                        depth: chip.depth,
                        instructions: instrs.len() as u32,
                    },
                );
                if let (Some(first), Some(last)) = (chip.emissions.first(), chip.emissions.last()) {
                    // Emissions are stored sorted by (cycle, port).
                    tracer.span(
                        first.cycle,
                        (last.cycle - first.cycle).max(1),
                        lane,
                        EventKind::Emissions {
                            count: chip.emissions.len() as u32,
                        },
                    );
                }
            }
        }

        // Verify destination SRAM contents bit-for-bit and fingerprint them.
        let dst_digests = verify_destinations(plan, payloads, &self.sims)?;

        metrics.inc(names::COSIM_INSTRUCTIONS, plan.instructions as u64);
        metrics.inc(names::COSIM_DELIVERIES, delivered);
        metrics.set_gauge(names::COSIM_CHIPS, plan.chips.len() as u64);
        // Surface trace loss so downstream consumers (the conformance
        // profiler refuses lossy traces) can see it without holding the
        // sink. Only set when nonzero: a clean instrumented run must report
        // metrics identical to a bare run.
        let trace_dropped = self.sink.as_deref().map_or(0, TraceSink::dropped);
        if trace_dropped > 0 {
            metrics.set_gauge(names::TRACE_DROPPED, trace_dropped);
        }

        // Fold the workers' tallies into the spine's snapshot in
        // worker-index order. `RunMetrics::absorb` is commutative for
        // counters and histograms (entries re-sort to canonical order), so
        // the result is independent of how the shard hash partitioned the
        // chips — which is what keeps this snapshot bit-identical between
        // serial and parallel execution. Workers never touch gauges (the
        // one absorb channel that is order-sensitive).
        let mut snapshot = metrics.snapshot();
        for wm in &worker_metrics {
            snapshot.absorb(&wm.snapshot());
        }

        Ok(CosimReport {
            retire_cycles,
            instructions: plan.instructions,
            arrivals: plan.arrivals.clone(),
            dst_digests,
            metrics: snapshot,
        })
    }
}

/// Runs every chip of `plan` once, fanned out over `threads` scoped
/// workers: worker `w` owns the chips whose `shard % threads == w`, and
/// worker 0 is the calling thread. The shard split hands each worker
/// disjoint `&mut ChipSim` borrows, so no chip is shared. Returns each
/// chip's result, indexed like `plan.chips`, and each worker's tallies in
/// worker-index order. A worker panic propagates to the caller.
fn fan_out(
    plan: &CompiledPlan,
    sims: &mut [ChipSim],
    payloads: &[Vec<Payload>],
    threads: usize,
) -> (Vec<Option<Result<u64, CosimError>>>, Vec<Metrics>) {
    let mut buckets: Vec<Vec<(usize, &mut ChipSim)>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, (chip, sim)) in plan.chips.iter().zip(sims).enumerate() {
        buckets[chip.shard as usize % threads].push((i, sim));
    }
    let run_bucket = |bucket: Vec<(usize, &mut ChipSim)>| {
        let metrics = Metrics::default();
        let results: Vec<_> = bucket
            .into_iter()
            .map(|(i, sim)| (i, run_chip(plan, &plan.chips[i], sim, payloads, &metrics)))
            .collect();
        (results, metrics)
    };
    let mut buckets = buckets.into_iter();
    let own = buckets.next().expect("at least one worker");
    let outputs = std::thread::scope(|s| {
        // Workers with no chips have nothing to run or report.
        let spawned: Vec<_> = buckets
            .filter(|b| !b.is_empty())
            .map(|b| s.spawn(move || run_bucket(b)))
            .collect();
        let mut outputs = vec![run_bucket(own)];
        for h in spawned {
            outputs.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        outputs
    });
    let mut results: Vec<_> = (0..plan.chips.len()).map(|_| None).collect();
    let mut worker_metrics = Vec::with_capacity(outputs.len());
    for (worker_results, metrics) in outputs {
        for (i, res) in worker_results {
            results[i] = Some(res);
        }
        worker_metrics.push(metrics);
    }
    (results, worker_metrics)
}

/// Runs one chip: executes its slab window, verifies its emission
/// manifest, and tallies its retire cycle into `metrics`.
///
/// This is the *entire* per-chip body, shared verbatim by the serial path
/// and the fan-out workers — the two modes differ only in which thread
/// calls it, which is exactly the determinism argument.
fn run_chip(
    plan: &CompiledPlan,
    chip: &ChipPlan,
    sim: &mut ChipSim,
    payloads: &[Vec<Payload>],
    metrics: &Metrics,
) -> Result<u64, CosimError> {
    let retire = sim
        .run_sorted(plan.program(chip))
        .map_err(|error| CosimError::Chip {
            tsp: chip.tsp,
            error,
        })?;
    verify_emissions(chip.tsp, sim, &chip.emissions, payloads)?;
    metrics.observe_cycles(names::COSIM_RETIRE_CYCLES, retire);
    Ok(retire)
}
