//! Multi-chip co-simulation: lowering a network schedule to per-TSP chip
//! programs and executing them with real vector payloads.
//!
//! This is the runtime/assembler layer of the paper's software stack
//! (Fig 12): "the scheduled program is passed to the assembler to generate
//! a machine-code binary that is then run on the TSP". Here a scheduled
//! tensor movement becomes, on each participating TSP, a static sequence
//! of `Read`/`Send`/`Receive`/`Write` instructions at exact cycles; the
//! chip executors then *verify* the schedule (no unit conflicts, every
//! RECEIVE preceded by its delivery) while the payload bytes flow through
//! end to end.
//!
//! # Compile once, execute many
//!
//! The engine is a three-stage pipeline:
//!
//! 1. **Plan** ([`plan::compile_plan`]): routing, link scheduling,
//!    lowering and stream-register allocation run once over the transfer
//!    *shapes*, producing a payload-independent, serializable
//!    [`CompiledPlan`]. Payload bytes are referenced symbolically as
//!    `(transfer, vector)` coordinates.
//! 2. **Bind + execute** ([`exec::PlanExecutor`]): each invocation binds a
//!    concrete payload set to the plan by `Arc` handle and replays it;
//!    chip simulators are reset, not rebuilt, between invocations.
//! 3. **Verify** (the private `verify` module): actual C2C emissions and
//!    destination SRAM
//!    are compared bit-for-bit against the plan's promises on every
//!    execution.
//!
//! This mirrors the paper's deployment model — one compiled schedule
//! amortized over many runs (§5, Fig 17) — and makes the amortization
//! measurable: the warm per-invocation cost is the chip passes alone.
//! [`run_transfers`] / [`run_transfers_serial`] remain as one-shot
//! wrappers that compile and execute in a single call.
//!
//! # Single-pass execution
//!
//! Because the network is statically scheduled, every delivery — the cycle
//! a vector lands on a port, and which vector it is — is known before any
//! chip runs. The driver therefore materializes all deliveries directly
//! from the schedule and executes **each chip exactly once**, in ascending
//! hop-depth order (sources first, then first-hop forwarders, …). There is
//! no fixpoint, no event loop and no re-execution: a cluster-wide run
//! costs one pass over the lowered instructions.
//!
//! The schedule's *claim* that an intermediate chip forwards the right
//! bytes at the right cycle is still verified, not assumed: after a chip
//! executes, its actual C2C emissions are compared bit-for-bit against the
//! emissions the schedule promised. A chip that emits the wrong payload,
//! at the wrong cycle, or on the wrong port fails the run with
//! [`CosimError::EmissionMismatch`] before any downstream chip's inputs
//! are trusted; destination SRAM is additionally checked bit-for-bit at
//! the end.
//!
//! # Determinism contract
//!
//! Every chip's inputs come from the materialized manifest, bound before
//! any chip runs, so chips are independent of each other at execute time
//! and hop depth only orders the merge. The parallel engine runs all chips
//! in one scoped fan-out per execution (chips map to workers by a shard
//! key fixed at plan-compile time). Parallel and serial runs are
//! **bit-identical**: every chip's execution is a pure function of its
//! program and materialized deliveries, and results are merged in
//! ascending (depth, [`TspId`]) order regardless of thread completion
//! order — the first error in that order is the one reported, in both
//! modes.

pub mod exec;
pub mod plan;
mod verify;

pub use exec::{LinkFaultModel, PlanExecutor, TargetedFlip};
pub use plan::{
    compile_plan, ChipPlan, CompiledPlan, PlannedDelivery, PlannedEmission, PlannedPreload,
    TransferShape, VecRef,
};

use std::collections::HashMap;
use std::sync::Arc;
use tsm_chip::exec::{ExecError, Payload};
use tsm_fault::inject::FecStats;
use tsm_isa::vector::MAX_STREAMS;
use tsm_isa::Vector;
use tsm_net::ssn::SsnError;
use tsm_topology::{LinkId, Topology, TopologyError, TspId};
use tsm_trace::RunMetrics;

/// One tensor movement to co-simulate: `data` travels from `from`'s SRAM
/// (slice/offset base) into `to`'s SRAM.
#[derive(Debug, Clone)]
pub struct CosimTransfer {
    /// Source TSP.
    pub from: TspId,
    /// Destination TSP.
    pub to: TspId,
    /// Source SRAM slice.
    pub src_slice: u8,
    /// Source SRAM base offset (vectors laid out contiguously).
    pub src_offset: u16,
    /// Destination SRAM slice.
    pub dst_slice: u8,
    /// Destination SRAM base offset.
    pub dst_offset: u16,
    /// The payload vectors.
    pub data: Vec<Vector>,
}

impl CosimTransfer {
    /// The payload vectors as shared handles, ready to bind to a
    /// [`CompiledPlan`] via [`PlanExecutor::execute`].
    pub fn payload(&self) -> Vec<Payload> {
        self.data.iter().map(|v| Arc::new(v.clone())).collect()
    }
}

/// Errors from co-simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum CosimError {
    /// No route between the endpoints.
    Route(TopologyError),
    /// A transfer's source and destination are the same chip — nothing
    /// crosses the network, so there is nothing to schedule. (Local SRAM
    /// moves are a chip-program concern, not a network transfer.)
    LocalTransfer {
        /// Index of the offending transfer.
        transfer: usize,
    },
    /// The network schedule failed.
    Schedule(SsnError),
    /// A chip rejected its lowered program — a lowering bug by definition.
    Chip {
        /// The offending TSP.
        tsp: TspId,
        /// The executor's verdict.
        error: ExecError,
    },
    /// A chip would need more simultaneously-live stream registers than
    /// the hardware has. The old round-robin allocator silently wrapped
    /// and corrupted data here; exhaustion is now a hard error.
    StreamExhausted {
        /// The overloaded TSP.
        tsp: TspId,
        /// First cycle of the flow that could not be assigned a register.
        cycle: u64,
    },
    /// The number of payload sets bound at execution time does not match
    /// the number of transfers the plan was compiled for.
    PayloadCount {
        /// Transfers in the plan.
        expected: usize,
        /// Payload sets supplied.
        got: usize,
    },
    /// A bound payload set has a different vector count than the shape
    /// its transfer was compiled with.
    PayloadShape {
        /// The offending transfer (index into the plan's shapes).
        transfer: usize,
        /// Vector count the plan was compiled for.
        expected: usize,
        /// Vector count supplied.
        got: usize,
    },
    /// A chip's actual C2C emissions deviated from what the schedule
    /// promised (wrong cycle, port, payload, or count).
    EmissionMismatch {
        /// The offending TSP.
        tsp: TspId,
        /// Cycle of the first divergent emission.
        cycle: u64,
        /// Port of the first divergent emission.
        port: u8,
    },
    /// A destination's SRAM did not end up with the expected payload.
    DataMismatch {
        /// The offending transfer (index into the input slice).
        transfer: usize,
        /// Vector index within the transfer.
        vector: usize,
    },
    /// A delivery crossed a link whose FEC detected a multi-bit error it
    /// could not repair. The payload never reaches the destination chip;
    /// the runtime must replay on known-good hardware (paper §4.5). The
    /// error names the earliest such delivery in (cycle, link, transfer)
    /// order, deterministically, and carries the FEC tally of the aborted
    /// attempt so the runtime's health monitor sees every packet.
    Uncorrectable {
        /// The link whose FEC gave up.
        link: LinkId,
        /// The transfer whose vector was lost (index into the plan).
        transfer: usize,
        /// Scheduled arrival cycle of the lost vector.
        cycle: u64,
        /// Link-layer tally over the whole aborted attempt.
        fec: FecStats,
        /// The link of *every* uncorrectable delivery of the attempt, with
        /// multiplicity, in bind order. Blame voting needs the full set: a
        /// single cross-node culprit implicates both endpoints equally,
        /// and only the victim's additional intra-node casualties break
        /// the tie.
        culprits: Vec<LinkId>,
    },
}

impl std::fmt::Display for CosimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CosimError::Route(e) => write!(f, "route: {e}"),
            CosimError::LocalTransfer { transfer } => {
                write!(
                    f,
                    "transfer {transfer}: source and destination are the same chip"
                )
            }
            CosimError::Schedule(e) => write!(f, "schedule: {e}"),
            CosimError::Chip { tsp, error } => write!(f, "{tsp} rejected program: {error}"),
            CosimError::StreamExhausted { tsp, cycle } => {
                write!(
                    f,
                    "{tsp} needs a {}rd live stream register at cycle {cycle}",
                    MAX_STREAMS + 1
                )
            }
            CosimError::PayloadCount { expected, got } => {
                write!(
                    f,
                    "plan compiled for {expected} transfers, {got} payload sets bound"
                )
            }
            CosimError::PayloadShape {
                transfer,
                expected,
                got,
            } => {
                write!(
                    f,
                    "transfer {transfer}: plan compiled for {expected} vectors, {got} bound"
                )
            }
            CosimError::EmissionMismatch { tsp, cycle, port } => {
                write!(
                    f,
                    "{tsp} emissions deviate from schedule at cycle {cycle}, port {port}"
                )
            }
            CosimError::DataMismatch { transfer, vector } => {
                write!(f, "transfer {transfer}, vector {vector}: payload mismatch")
            }
            CosimError::Uncorrectable {
                link,
                transfer,
                cycle,
                ..
            } => {
                write!(
                    f,
                    "uncorrectable FEC error on link {} (transfer {transfer}, cycle {cycle})",
                    link.0
                )
            }
        }
    }
}

impl std::error::Error for CosimError {}

/// Result of a co-simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct CosimReport {
    /// Cycle at which the last instruction retired, per TSP.
    pub retire_cycles: HashMap<TspId, u64>,
    /// Total instructions lowered across all chips.
    pub instructions: usize,
    /// Per-transfer scheduled arrival cycle of the last vector.
    pub arrivals: Vec<u64>,
    /// Per-transfer digest of the destination SRAM region after the run —
    /// a compact fingerprint of the delivered bytes, used by the
    /// serial-vs-parallel determinism tests.
    pub dst_digests: Vec<u64>,
    /// The run's full metrics snapshot: per-link FEC counters, delivery
    /// and instruction counts, per-chip retirement histogram. The single
    /// source of tally truth — the old standalone `fec` field is now the
    /// [`CosimReport::fec`] view over this.
    pub metrics: RunMetrics,
}

impl CosimReport {
    /// Link-layer FEC tally over every inter-chip delivery, as a view over
    /// [`CosimReport::metrics`]. All-clean in the fault-free mode; in
    /// datapath-BER mode the corrected count is the number of packets
    /// whose single-bit flip was repaired in situ without becoming visible
    /// to any downstream verification. Demoted miscorrections fold into
    /// `uncorrectable`.
    pub fn fec(&self) -> FecStats {
        FecStats::from_metrics(&self.metrics)
    }
}

/// MEM read pipeline latency (must match `Instruction::Read::min_latency`).
pub(crate) const READ_LATENCY: u64 = 5;

/// Chip SRAM slice reserved for forwarding scratch buffers.
pub(crate) const SCRATCH_SLICE: u8 = 80;

/// One-shot co-simulation: compiles the transfers into a [`CompiledPlan`]
/// and executes it once with their payloads, chips fanned out in parallel.
///
/// Callers that run the same transfer shapes repeatedly should hold on to
/// the plan ([`compile_plan`]) and a [`PlanExecutor`] instead — this
/// wrapper re-compiles on every call.
pub fn run_transfers(
    topo: &Topology,
    transfers: &[CosimTransfer],
) -> Result<CosimReport, CosimError> {
    run_transfers_impl(topo, transfers, true)
}

/// [`run_transfers`] with all chips executed on the calling thread, in
/// ascending (depth, TspId) order. Bit-identical to the parallel engine —
/// the determinism tests and benches compare the two.
pub fn run_transfers_serial(
    topo: &Topology,
    transfers: &[CosimTransfer],
) -> Result<CosimReport, CosimError> {
    run_transfers_impl(topo, transfers, false)
}

fn run_transfers_impl(
    topo: &Topology,
    transfers: &[CosimTransfer],
    parallel: bool,
) -> Result<CosimReport, CosimError> {
    let shapes: Vec<TransferShape> = transfers.iter().map(TransferShape::from).collect();
    let plan = compile_plan(topo, &shapes)?;
    let payloads: Vec<Vec<Payload>> = transfers.iter().map(CosimTransfer::payload).collect();
    let mut executor = PlanExecutor::new();
    if parallel {
        executor.execute(&plan, &payloads)
    } else {
        executor.execute_serial(&plan, &payloads)
    }
}

#[cfg(test)]
mod tests {
    use super::plan::StreamAlloc;
    use super::verify::verify_emissions;
    use super::*;
    use tsm_chip::exec::{ChipProgram, ChipSim};
    use tsm_isa::instr::Instruction;
    use tsm_isa::{Direction, StreamId};
    use tsm_net::ssn::vector_slot_cycles;

    fn payload(n: usize, seed: u8) -> Vec<Vector> {
        (0..n)
            .map(|i| Vector::from_fn(|b| (b as u8) ^ seed.wrapping_add(i as u8)))
            .collect()
    }

    #[test]
    fn single_hop_transfer_delivers_bit_exact() {
        let topo = Topology::single_node();
        let tr = CosimTransfer {
            from: TspId(0),
            to: TspId(1),
            src_slice: 0,
            src_offset: 0,
            dst_slice: 4,
            dst_offset: 100,
            data: payload(20, 7),
        };
        let report = run_transfers(&topo, &[tr]).unwrap();
        assert_eq!(report.arrivals.len(), 1);
        assert!(report.instructions >= 20 * 4);
        assert!(report.retire_cycles[&TspId(1)] >= report.arrivals[0]);
    }

    #[test]
    fn two_hop_transfer_forwards_through_intermediate() {
        // Cross-node transfer between TSPs without a direct cable: the
        // intermediate TSP's program receives and re-sends every flit.
        let topo = Topology::fully_connected_nodes(2).unwrap();
        let from = TspId(0);
        // pick a destination with no direct link to TSP 0
        let to = topo
            .tsps()
            .find(|&t| t.node() != from.node() && topo.links_between(from, t).is_empty())
            .expect("some non-adjacent cross-node TSP");
        let tr = CosimTransfer {
            from,
            to,
            src_slice: 1,
            src_offset: 0,
            dst_slice: 2,
            dst_offset: 0,
            data: payload(8, 31),
        };
        let report = run_transfers(&topo, &[tr]).unwrap();
        // three chips participated: source, forwarder, destination
        assert!(
            report.retire_cycles.len() >= 3,
            "{:?}",
            report.retire_cycles
        );
    }

    #[test]
    fn concurrent_transfers_share_the_fabric() {
        let topo = Topology::single_node();
        let transfers: Vec<CosimTransfer> = (0..4u32)
            .map(|i| CosimTransfer {
                from: TspId(i),
                to: TspId(i + 4),
                src_slice: 0,
                src_offset: 0,
                dst_slice: 1,
                dst_offset: 0,
                data: payload(10, i as u8),
            })
            .collect();
        let report = run_transfers(&topo, &transfers).unwrap();
        assert_eq!(report.arrivals.len(), 4);
    }

    #[test]
    fn cosim_is_deterministic() {
        let topo = Topology::single_node();
        let run = || {
            let tr = CosimTransfer {
                from: TspId(2),
                to: TspId(6),
                src_slice: 0,
                src_offset: 0,
                dst_slice: 0,
                dst_offset: 0,
                data: payload(32, 5),
            };
            let r = run_transfers(&topo, &[tr]).unwrap();
            (r.arrivals, r.instructions, r.dst_digests)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn arrival_matches_network_schedule_formula() {
        let topo = Topology::single_node();
        let n = 16u64;
        let tr = CosimTransfer {
            from: TspId(0),
            to: TspId(7),
            src_slice: 0,
            src_offset: 0,
            dst_slice: 0,
            dst_offset: 0,
            data: payload(n as usize, 1),
        };
        let report = run_transfers(&topo, &[tr]).unwrap();
        // schedule starts after the 5-cycle SRAM read pipeline
        assert_eq!(report.arrivals[0], 5 + n * vector_slot_cycles() + 228);
    }

    /// A same-chip transfer is a caller error reported as
    /// [`CosimError::LocalTransfer`], not a panic (the old engine hit a
    /// `debug_assert` here and corrupted state in release builds).
    #[test]
    fn same_chip_transfer_is_a_typed_error() {
        let topo = Topology::single_node();
        let good = CosimTransfer {
            from: TspId(0),
            to: TspId(1),
            src_slice: 0,
            src_offset: 0,
            dst_slice: 1,
            dst_offset: 0,
            data: payload(2, 1),
        };
        let mut local = good.clone();
        local.to = local.from;
        assert_eq!(
            run_transfers(&topo, &[good, local]),
            Err(CosimError::LocalTransfer { transfer: 1 })
        );
    }

    /// Boundary regression: on an idle fabric the first transfer injects at
    /// exactly `READ_LATENCY`, so the first SRAM read lands on cycle 0.
    /// The subtraction must not underflow (debug builds would panic).
    #[test]
    fn first_read_at_cycle_zero_does_not_underflow() {
        let topo = Topology::single_node();
        let tr = CosimTransfer {
            from: TspId(0),
            to: TspId(1),
            src_slice: 0,
            src_offset: 0,
            dst_slice: 1,
            dst_offset: 0,
            data: payload(1, 3),
        };
        let shapes = [TransferShape::from(&tr)];
        let plan = compile_plan(&topo, &shapes).unwrap();
        let src = plan.chips.iter().find(|c| c.tsp == tr.from).unwrap();
        let first_read = plan
            .program(src)
            .iter()
            .find(|ti| matches!(ti.instr, Instruction::Read { .. }))
            .expect("source program reads SRAM");
        assert_eq!(
            first_read.cycle, 0,
            "idle fabric injects at READ_LATENCY exactly"
        );
        let report = PlanExecutor::new().execute(&plan, &[tr.payload()]).unwrap();
        assert_eq!(report.arrivals.len(), 1);
    }

    /// The satellite determinism contract: a multi-node workload produces
    /// a parallel `CosimReport` (retire cycles, arrivals, instruction
    /// count) and destination SRAM bytes identical to a serial run.
    #[test]
    fn parallel_engine_is_bit_identical_to_serial() {
        // Cross-node perfect matching over direct cables: every node-0 TSP
        // streams to a distinct node-1 TSP, so both depth levels hold 8
        // independent chips — real work for the parallel engine.
        let topo = Topology::fully_connected_nodes(2).unwrap();
        let mut taken = std::collections::HashSet::new();
        let transfers: Vec<CosimTransfer> = (0..8u32)
            .map(|i| {
                let from = TspId(i);
                let to = topo
                    .tsps()
                    .find(|&t| {
                        t.node() != from.node()
                            && !taken.contains(&t)
                            && !topo.links_between(from, t).is_empty()
                    })
                    .expect("unused direct cross-node peer");
                taken.insert(to);
                CosimTransfer {
                    from,
                    to,
                    src_slice: 0,
                    src_offset: (i * 64) as u16,
                    dst_slice: 2,
                    dst_offset: (i * 64) as u16,
                    data: payload(12 + i as usize, i as u8),
                }
            })
            .collect();
        let serial = run_transfers_serial(&topo, &transfers).unwrap();
        let parallel = run_transfers(&topo, &transfers).unwrap();
        assert_eq!(serial, parallel);
        // and the parallel engine is reproducible run to run
        assert_eq!(parallel, run_transfers(&topo, &transfers).unwrap());

        // The same contract holds on the explicit plan/executor path with
        // one executor reused across modes.
        let shapes: Vec<TransferShape> = transfers.iter().map(TransferShape::from).collect();
        let plan = compile_plan(&topo, &shapes).unwrap();
        let payloads: Vec<Vec<Payload>> = transfers.iter().map(CosimTransfer::payload).collect();
        let mut executor = PlanExecutor::new();
        assert_eq!(executor.execute_serial(&plan, &payloads).unwrap(), serial);
        assert_eq!(executor.execute(&plan, &payloads).unwrap(), serial);
    }

    /// More flows than stream registers, serialized on one cable: liveness
    /// tracking recycles registers, so 40 sequential flows through one
    /// chip succeed bit-exactly (the old modulo-32 allocator would wrap
    /// onto live registers under concurrency instead of recycling dead
    /// ones).
    #[test]
    fn stream_registers_recycle_across_serialized_flows() {
        let topo = Topology::single_node();
        let transfers: Vec<CosimTransfer> = (0..40u32)
            .map(|i| CosimTransfer {
                from: TspId(0),
                to: TspId(1),
                src_slice: 0,
                src_offset: (i * 4) as u16,
                dst_slice: 1,
                dst_offset: (i * 4) as u16,
                data: payload(4, i as u8),
            })
            .collect();
        let report = run_transfers(&topo, &transfers).unwrap();
        assert_eq!(report.arrivals.len(), 40);
    }

    #[test]
    fn stream_exhaustion_is_reported_not_wrapped() {
        let mut a = StreamAlloc::new();
        for _ in 0..MAX_STREAMS {
            assert!(a.alloc(0, 100).is_some());
        }
        // a 33rd simultaneously-live flow has no register
        assert!(a.alloc(50, 60).is_none());
        // but once the live ranges end, registers recycle
        assert_eq!(a.alloc(101, 200), StreamId::new(0).ok());
    }

    /// Executing a plan with payloads that disagree with its compiled
    /// shapes is rejected before any chip runs.
    #[test]
    fn payload_shape_mismatch_is_rejected() {
        let topo = Topology::single_node();
        let tr = CosimTransfer {
            from: TspId(0),
            to: TspId(1),
            src_slice: 0,
            src_offset: 0,
            dst_slice: 1,
            dst_offset: 0,
            data: payload(4, 9),
        };
        let shapes = [TransferShape::from(&tr)];
        let plan = compile_plan(&topo, &shapes).unwrap();
        let mut executor = PlanExecutor::new();
        assert_eq!(
            executor.execute(&plan, &[]),
            Err(CosimError::PayloadCount {
                expected: 1,
                got: 0
            })
        );
        let short: Vec<Payload> = tr.payload().into_iter().take(3).collect();
        assert_eq!(
            executor.execute(&plan, &[short]),
            Err(CosimError::PayloadShape {
                transfer: 0,
                expected: 4,
                got: 3
            })
        );
        // and a matching set still executes cleanly afterwards
        assert!(executor.execute(&plan, &[tr.payload()]).is_ok());
    }

    /// A forged delivery that disagrees with the payload the schedule
    /// promised must surface as an error, not silent corruption.
    #[test]
    fn emission_verification_catches_payload_divergence() {
        let sim_emits = |v: Vector| {
            let mut sim = ChipSim::new();
            sim.preload(0, 0, v);
            let prog = ChipProgram::new()
                .at(
                    0,
                    Instruction::Read {
                        slice: 0,
                        offset: 0,
                        stream: StreamId::new(0).unwrap(),
                        dir: Direction::East,
                    },
                )
                .at(
                    10,
                    Instruction::Send {
                        port: 3,
                        stream: StreamId::new(0).unwrap(),
                    },
                );
            sim.run(&prog).unwrap();
            sim
        };
        let promise = vec![PlannedEmission {
            cycle: 10,
            port: 3,
            vec: VecRef {
                transfer: 0,
                vector: 0,
            },
        }];
        let bound: Vec<Vec<Payload>> = vec![vec![Arc::new(Vector::splat(7))]];
        assert!(verify_emissions(TspId(0), &sim_emits(Vector::splat(7)), &promise, &bound).is_ok());
        assert_eq!(
            verify_emissions(TspId(0), &sim_emits(Vector::splat(8)), &promise, &bound),
            Err(CosimError::EmissionMismatch {
                tsp: TspId(0),
                cycle: 10,
                port: 3
            })
        );
    }
}
