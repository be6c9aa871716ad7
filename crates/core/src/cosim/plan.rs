//! Compile stage of the co-simulation pipeline: lowering transfers into a
//! payload-independent, serializable [`CompiledPlan`].
//!
//! A plan captures everything the paper's compiler decides ahead of time —
//! routes, link schedules, per-chip instruction sequences, stream-register
//! assignments, and the full delivery/emission manifest — but references
//! payload bytes only *symbolically*, as `(transfer, vector)` coordinates
//! ([`VecRef`]). Binding actual vectors happens per invocation in the
//! executor, so one compile amortizes over arbitrarily many executions:
//! "the same schedule is reused across runs" (paper §5, Fig 17 runs one
//! BERT schedule 24,240 times).

use std::collections::HashMap;
use tsm_chip::exec::{ChipProgram, TimedInstruction};
use tsm_isa::instr::Instruction;
use tsm_isa::vector::MAX_STREAMS;
use tsm_isa::{Direction, StreamId};
use tsm_net::ssn::{scheduled_link_latency, vector_slot_cycles, LinkOccupancy};
use tsm_topology::route::{shortest_path, Path};
use tsm_topology::{LinkId, Topology, TspId};

use super::{CosimError, CosimTransfer, READ_LATENCY, SCRATCH_SLICE};

/// The payload-independent description of one transfer: endpoints, SRAM
/// layout, and vector count — everything the compiler needs, nothing the
/// payload bytes touch.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TransferShape {
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
    /// Number of vectors the transfer moves.
    pub vectors: u32,
}

impl From<&CosimTransfer> for TransferShape {
    fn from(tr: &CosimTransfer) -> Self {
        TransferShape {
            from: tr.from,
            to: tr.to,
            src_slice: tr.src_slice,
            src_offset: tr.src_offset,
            dst_slice: tr.dst_slice,
            dst_offset: tr.dst_offset,
            vectors: tr.data.len() as u32,
        }
    }
}

/// Symbolic reference to one payload vector: `vector` within `transfer`.
/// The executor resolves it against the payloads bound at invocation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct VecRef {
    /// Index into the plan's transfer list.
    pub transfer: u32,
    /// Vector index within that transfer.
    pub vector: u32,
}

/// A source-SRAM preload the runtime performs before execution.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PlannedPreload {
    /// SRAM slice.
    pub slice: u8,
    /// SRAM offset.
    pub offset: u16,
    /// Which payload vector lands there.
    pub vec: VecRef,
}

/// A scheduled inbound delivery: `vec` lands on `port` at `cycle`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PlannedDelivery {
    /// Local C2C port.
    pub port: u8,
    /// Arrival cycle.
    pub cycle: u64,
    /// Which payload vector arrives.
    pub vec: VecRef,
    /// The physical link the vector crossed to get here — the coordinate
    /// the fault layer uses to look up per-link BER and to blame marginal
    /// hardware when a delivery is uncorrectable.
    pub link: LinkId,
}

/// An emission the schedule promises: the chip sends `vec` out `port` at
/// `cycle`. The executor verifies actual emissions against these.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PlannedEmission {
    /// Issue cycle of the SEND.
    pub cycle: u64,
    /// Local C2C port.
    pub port: u8,
    /// Which payload vector is promised.
    pub vec: VecRef,
}

/// Everything one chip needs across every execution of the plan.
///
/// The instruction stream itself lives in the plan's contiguous
/// [`CompiledPlan::slab`]; each chip holds only its `[prog_start,
/// prog_end)` window — resolve it with [`CompiledPlan::program`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChipPlan {
    /// The chip.
    pub tsp: TspId,
    /// Hop depth (0 = pure source); results merge level by level.
    pub depth: u32,
    /// Stable shard key (FNV-1a over the TSP id), fixed at compile time.
    /// The parallel executor assigns this chip to worker
    /// `shard % workers`, so the chip→worker mapping is a pure function
    /// of the plan and the thread count — never of scheduling order.
    pub shard: u32,
    /// Start of this chip's issue-sorted instruction window in the slab.
    pub prog_start: u32,
    /// End (exclusive) of the instruction window.
    pub prog_end: u32,
    /// Source-SRAM preloads.
    pub preloads: Vec<PlannedPreload>,
    /// Inbound deliveries, sorted by (port, cycle) so the executor can
    /// feed each port queue in order.
    pub deliveries: Vec<PlannedDelivery>,
    /// Promised emissions, sorted by (cycle, port) — the canonical order
    /// emission verification compares in.
    pub emissions: Vec<PlannedEmission>,
}

/// The reusable compile artifact: per-chip manifests, one contiguous
/// instruction slab, the level structure, and scheduled arrivals.
/// Payload-independent — compile once, execute with as many different
/// payload sets as you like — and JSON-serializable, so a plan can be
/// built offline and shipped to the runtime like the paper's machine-code
/// binaries.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CompiledPlan {
    /// The transfer shapes the plan was compiled for; execution payloads
    /// must match them exactly.
    pub shapes: Vec<TransferShape>,
    /// Per-chip plans, in ascending [`TspId`] order.
    pub chips: Vec<ChipPlan>,
    /// Every chip's issue-sorted instruction stream, laid out
    /// back-to-back in chip order. One allocation for the whole plan:
    /// executing the chips walks this slab linearly instead of chasing one
    /// heap vector per chip.
    pub slab: Vec<TimedInstruction>,
    /// Hop-depth levels: indices into `chips`, each level in ascending
    /// [`TspId`] order. They fix the merge/report order of chip results,
    /// trace events and the first error; chips themselves are independent
    /// at execute time.
    pub levels: Vec<Vec<u32>>,
    /// Per-transfer scheduled arrival cycle of the last vector.
    pub arrivals: Vec<u64>,
    /// Total instructions lowered across all chips.
    pub instructions: usize,
}

/// Stable chip→shard key: FNV-1a over the little-endian TSP id, folded to
/// 32 bits. Fixed here, at compile time, so a plan pins its own sharding.
pub(super) fn shard_key(tsp: TspId) -> u32 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in tsp.0.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    (h ^ (h >> 32)) as u32
}

impl CompiledPlan {
    /// The issue-sorted instruction stream of `chip` (its window into the
    /// plan's contiguous slab).
    pub fn program<'a>(&'a self, chip: &ChipPlan) -> &'a [TimedInstruction] {
        &self.slab[chip.prog_start as usize..chip.prog_end as usize]
    }

    /// Serializes the plan as pretty-printed JSON (same conventions as
    /// `tsm-compiler::dump`: hand-rolled emitter, fixed field order,
    /// strings escaped through [`tsm_trace::escape_json`]).
    pub fn to_json(&self) -> String {
        json::emit(self)
    }

    /// Deserializes a plan previously produced by [`CompiledPlan::to_json`].
    /// Field order is not significant; unknown keys and malformed
    /// instructions are rejected with a descriptive error.
    pub fn from_json(s: &str) -> Result<Self, String> {
        json::parse(s)
    }

    /// Flattens the plan's delivery manifest into the profiler's
    /// [`tsm_trace::profile::PlannedTimeline`]: one
    /// [`tsm_trace::profile::PlannedHop`] per
    /// scheduled delivery, with its wire-occupancy window reconstructed
    /// from the schedule's timing model (a delivery at cycle `c` over a
    /// link of latency `L` occupied the wire over `[c - L - slot, c - L)`),
    /// plus each chip's planned execution window.
    ///
    /// This is the compile-time half of the plan-vs-actual join — the
    /// run-time half is the `Delivery` event stream the executor emits.
    pub fn planned_timeline(&self, topo: &Topology) -> tsm_trace::profile::PlannedTimeline {
        use tsm_trace::profile::{PlannedChip, PlannedHop, PlannedTimeline};
        let slot = vector_slot_cycles();
        let mut hops = Vec::new();
        let mut chips = Vec::with_capacity(self.chips.len());
        let mut span = self.arrivals.iter().copied().max().unwrap_or(0);
        for chip in &self.chips {
            for d in &chip.deliveries {
                let latency = scheduled_link_latency(topo, d.link);
                let wire_end = d.cycle.saturating_sub(latency);
                hops.push(PlannedHop {
                    link: d.link.0,
                    transfer: d.vec.transfer,
                    vector: d.vec.vector,
                    cycle: d.cycle,
                    wire_start: wire_end.saturating_sub(slot),
                    wire_end,
                    dest_lane: chip.tsp.0,
                });
            }
            let instrs = self.program(chip);
            let start = instrs.first().map_or(0, |i| i.cycle);
            let end = instrs.last().map_or(0, |i| i.cycle);
            span = span.max(end);
            chips.push(PlannedChip {
                lane: chip.tsp.0,
                start,
                end,
                instructions: instrs.len() as u32,
            });
        }
        hops.sort_by_key(|h| (h.link, h.wire_start, h.transfer, h.vector));
        PlannedTimeline {
            hops,
            chips,
            span,
            arrivals: self.arrivals.clone(),
        }
    }
}

/// Allocates `vectors` scratch offsets on `tsp`.
fn scratch_base(next: &mut HashMap<TspId, u16>, tsp: TspId, vectors: u16) -> u16 {
    let e = next.entry(tsp).or_insert(0);
    let base = *e;
    *e += vectors;
    base
}

/// Per-chip stream-register allocator with liveness tracking.
///
/// A flow reserves the lowest-numbered register that is dead over its
/// whole `[start, end]` live range; the register is recycled once the
/// range has passed. Exhaustion (more than [`MAX_STREAMS`] simultaneously
/// live flows through one chip) is reported to the caller instead of
/// silently aliasing a live register, which is what the old modulo-32
/// round-robin did.
#[derive(Debug, Clone)]
pub(super) struct StreamAlloc {
    /// `live_until[s]` = last cycle on which stream `s` still carries a
    /// live value, or `None` if it was never used.
    live_until: [Option<u64>; MAX_STREAMS],
}

impl StreamAlloc {
    pub(super) fn new() -> Self {
        StreamAlloc {
            live_until: [None; MAX_STREAMS],
        }
    }

    /// Reserves the lowest-numbered stream free over `[start, end]`. A
    /// stream is free only if its previous live range ended *strictly*
    /// before `start` (a same-cycle read/write handoff would be
    /// order-dependent, so it is not allowed).
    pub(super) fn alloc(&mut self, start: u64, end: u64) -> Option<StreamId> {
        debug_assert!(start <= end);
        for (s, slot) in self.live_until.iter_mut().enumerate() {
            match *slot {
                Some(until) if until >= start => continue,
                _ => {
                    *slot = Some(end);
                    return Some(StreamId::new(s as u8).expect("stream id in range"));
                }
            }
        }
        None
    }
}

fn alloc_stream(
    allocs: &mut HashMap<TspId, StreamAlloc>,
    tsp: TspId,
    start: u64,
    end: u64,
) -> Result<StreamId, CosimError> {
    allocs
        .entry(tsp)
        .or_insert_with(StreamAlloc::new)
        .alloc(start, end)
        .ok_or(CosimError::StreamExhausted { tsp, cycle: start })
}

/// Chip execution-unit occupancy — the compile-time mirror of the busy
/// model `ChipSim` enforces at run time: each instruction holds resource
/// `(unit, port)` for `[cycle, cycle + min_latency)`, where C2C
/// instructions occupy one port engine each and every other unit is a
/// single resource. Link occupancy alone cannot serialize flows that
/// cross at a *chip* (two flows on disjoint links can collide at a shared
/// forwarder's Mem unit), so [`compile_plan`] trial-schedules every
/// transfer against this table and delays its injection until the whole
/// chip-side window is free.
#[derive(Debug, Default)]
struct UnitOccupancy {
    /// Sorted, disjoint busy windows `[start, end)` per chip resource.
    busy: HashMap<(TspId, u16), Vec<(u64, u64)>>,
}

impl UnitOccupancy {
    /// Resource key for an instruction, matching the executor: C2C
    /// engines are per-port, every other unit is one resource.
    fn key(instr: &Instruction) -> u16 {
        let port = match instr {
            Instruction::Transmit { port }
            | Instruction::Receive { port, .. }
            | Instruction::Send { port, .. } => *port,
            _ => 0,
        };
        ((instr.unit().index() as u16) << 8) | u16::from(port)
    }

    /// If `[start, end)` overlaps a booked window on `tsp`'s resource,
    /// returns the end of the latest overlapping window (the cycle the
    /// caller must delay past).
    fn conflict(&self, tsp: TspId, key: u16, start: u64, end: u64) -> Option<u64> {
        let windows = self.busy.get(&(tsp, key))?;
        // Windows are sorted and disjoint, so both starts and ends are
        // ascending: skip every window ending at or before `start`, then
        // scan while windows begin before `end`.
        let i = windows.partition_point(|&(_, e)| e <= start);
        let mut busy_until = None;
        for &(s, e) in &windows[i..] {
            if s >= end {
                break;
            }
            busy_until = Some(e);
        }
        busy_until
    }

    /// Books `[start, end)` on `tsp`'s resource.
    fn reserve(&mut self, tsp: TspId, key: u16, start: u64, end: u64) {
        let windows = self.busy.entry((tsp, key)).or_default();
        let i = windows.partition_point(|&(s, _)| s < start);
        windows.insert(i, (start, end));
    }
}

/// Enumerates every chip-unit busy window the lowering in [`compile_plan`]
/// will create for a transfer whose hops start at `hop_starts`, calling
/// `f(tsp, resource, start, end)` once per planned instruction. Kept in
/// lockstep with the program-construction loops below — both walk the
/// same source Read→Send, forwarder Receive→Write→Read→Send, and
/// destination Receive→Write timing.
fn for_each_unit_window(
    topo: &Topology,
    path: &Path,
    hop_starts: &[u64],
    n: u64,
    f: &mut impl FnMut(TspId, u16, u64, u64),
) {
    let slot = vector_slot_cycles();
    let dummy = StreamId::new(0).expect("stream 0 exists");
    let read = Instruction::Read {
        slice: 0,
        offset: 0,
        stream: dummy,
        dir: Direction::East,
    };
    let mem_key = UnitOccupancy::key(&read);
    let read_lat = read.min_latency();
    let write_lat = Instruction::Write {
        slice: 0,
        offset: 0,
        stream: dummy,
    }
    .min_latency();
    let c2c_lat = Instruction::Send {
        port: 0,
        stream: dummy,
    }
    .min_latency();
    let c2c_key = |port: u8| {
        UnitOccupancy::key(&Instruction::Send {
            port,
            stream: dummy,
        })
    };

    // Source: Read -> Send per vector.
    let src = path.tsps[0];
    let send0 = hop_starts[0];
    let read0 = send0.saturating_sub(READ_LATENCY);
    let src_key = c2c_key(port_of(topo, path, 0, src));
    for v in 0..n {
        f(src, mem_key, read0 + v * slot, read0 + v * slot + read_lat);
        f(src, src_key, send0 + v * slot, send0 + v * slot + c2c_lat);
    }

    // Intermediate hops: Receive -> Write -> Read -> Send per vector.
    for h in 1..path.links.len() {
        let tsp = path.tsps[h];
        let in_key = c2c_key(port_of(topo, path, h - 1, tsp));
        let out_key = c2c_key(port_of(topo, path, h, tsp));
        let in_latency = scheduled_link_latency(topo, path.links[h - 1]);
        let arrive0 = hop_starts[h - 1] + slot + in_latency;
        let forward0 = hop_starts[h];
        let fread0 = forward0.saturating_sub(READ_LATENCY);
        for v in 0..n {
            let arrive = arrive0 + v * slot;
            let forward = forward0 + v * slot;
            f(tsp, in_key, arrive, arrive + c2c_lat);
            f(tsp, mem_key, arrive + 1, arrive + 1 + write_lat);
            f(
                tsp,
                mem_key,
                fread0 + v * slot,
                fread0 + v * slot + read_lat,
            );
            f(tsp, out_key, forward, forward + c2c_lat);
        }
    }

    // Destination: Receive -> Write per vector.
    let last = path.links.len() - 1;
    let dst = path.tsps[last + 1];
    let dst_key = c2c_key(port_of(topo, path, last, dst));
    let out_latency = scheduled_link_latency(topo, path.links[last]);
    let dst_arrive0 = hop_starts[last] + slot + out_latency;
    for v in 0..n {
        let arrive = dst_arrive0 + v * slot;
        f(dst, dst_key, arrive, arrive + c2c_lat);
        f(dst, mem_key, arrive + 1, arrive + 1 + write_lat);
    }
}

/// Compiles transfer shapes into a [`CompiledPlan`]: routes each transfer
/// onto a minimal path, reserves conflict-free link slots, lowers per-TSP
/// chip programs (pre-sorted into issue order), assigns stream registers,
/// and materializes the full symbolic delivery/emission manifest. No
/// payload bytes are consulted; the result is reusable across executions.
pub fn compile_plan(topo: &Topology, shapes: &[TransferShape]) -> Result<CompiledPlan, CosimError> {
    let slot = vector_slot_cycles();
    let mut occupancy = LinkOccupancy::new();
    let mut units = UnitOccupancy::default();
    let mut programs: HashMap<TspId, ChipProgram> = HashMap::new();
    let mut preloads: HashMap<TspId, Vec<PlannedPreload>> = HashMap::new();
    let mut deliveries: HashMap<TspId, Vec<PlannedDelivery>> = HashMap::new();
    // What the schedule promises each chip will emit.
    let mut emissions: HashMap<TspId, Vec<PlannedEmission>> = HashMap::new();
    // Hop depth of each participating chip (max position over its paths).
    let mut depth: HashMap<TspId, usize> = HashMap::new();
    // Each (from, to) route is computed once and reused across transfers.
    let mut routes: HashMap<(TspId, TspId), Path> = HashMap::new();
    let mut streams: HashMap<TspId, StreamAlloc> = HashMap::new();
    // Forwarding scratch space, bump-allocated per chip.
    let mut scratch_next: HashMap<TspId, u16> = HashMap::new();
    let mut arrivals = Vec::with_capacity(shapes.len());

    for (idx, tr) in shapes.iter().enumerate() {
        let path = match routes.entry((tr.from, tr.to)) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(shortest_path(topo, tr.from, tr.to).map_err(CosimError::Route)?)
            }
        };
        if path.links.is_empty() {
            // from == to: nothing crosses the network. The old engine hit
            // a debug assertion here; it is a caller error, reported as one.
            return Err(CosimError::LocalTransfer { transfer: idx });
        }
        let n = tr.vectors as u64;
        // Injection starts after the source's SRAM read pipeline has had
        // time to stage the first vector, and is delayed further until
        // every chip execution unit the transfer touches is free for its
        // whole window: link reservations alone cannot serialize flows
        // that cross at a chip, so each transfer is trial-scheduled
        // against the unit occupancy and retried later until its plan is
        // conflict-free at the chips as well as on the wires.
        let mut earliest = READ_LATENCY;
        let sched = loop {
            let trial = occupancy
                .plan_transfer(topo, path, n, earliest)
                .map_err(CosimError::Schedule)?;
            let mut bump = 0u64;
            if n > 0 {
                for_each_unit_window(topo, path, &trial.hop_starts, n, &mut |tsp, key, s, e| {
                    if let Some(busy_until) = units.conflict(tsp, key, s, e) {
                        bump = bump.max(busy_until - s);
                    }
                });
            }
            if bump == 0 {
                break trial;
            }
            // Monotone progress: each retry pushes the injection at least
            // one cycle past the latest conflicting window, and every
            // booked window ends at a finite cycle, so the loop terminates.
            earliest += bump;
        };
        occupancy.commit(path, &sched);
        arrivals.push(sched.last_arrival);
        if n == 0 {
            continue;
        }
        for_each_unit_window(topo, path, &sched.hop_starts, n, &mut |tsp, key, s, e| {
            units.reserve(tsp, key, s, e);
        });
        // Per-hop block starts come straight off the schedule.
        let hop_starts = &sched.hop_starts;
        debug_assert_eq!(hop_starts.len(), path.links.len());

        let vref = |v: u64| VecRef {
            transfer: idx as u32,
            vector: v as u32,
        };

        for (h, &tsp) in path.tsps.iter().enumerate() {
            let d = depth.entry(tsp).or_insert(0);
            *d = (*d).max(h);
        }

        // Preload the source SRAM with the payload.
        let src_pre = preloads.entry(tr.from).or_default();
        for v in 0..n {
            src_pre.push(PlannedPreload {
                slice: tr.src_slice,
                offset: tr.src_offset + v as u16,
                vec: vref(v),
            });
        }

        // Source program: Read -> Send per vector. The schedule is asked
        // for an injection no earlier than READ_LATENCY, so the first read
        // lands at cycle >= 0; `saturating_sub` makes the subtraction
        // well-defined even at the boundary where send0 == READ_LATENCY.
        let send0 = hop_starts[0];
        debug_assert!(
            send0 >= READ_LATENCY,
            "schedule injected before the SRAM read pipeline could stage a vector"
        );
        let read0 = send0.saturating_sub(READ_LATENCY);
        let src_stream = alloc_stream(&mut streams, tr.from, read0, send0 + (n - 1) * slot)?;
        let src_port = port_of(topo, path, 0, tr.from);
        let prog = programs.entry(tr.from).or_default();
        for v in 0..n {
            prog.push(
                read0 + v * slot,
                Instruction::Read {
                    slice: tr.src_slice,
                    offset: tr.src_offset + v as u16,
                    stream: src_stream,
                    dir: Direction::East,
                },
            );
            prog.push(
                send0 + v * slot,
                Instruction::Send {
                    port: src_port,
                    stream: src_stream,
                },
            );
        }

        // Intermediate hops: Receive -> Write -> Read -> Send. The vector
        // must be staged in local SRAM between arrival and forwarding
        // ("we use the local SRAM storage on each TSP to provide
        // intermediate buffering", §2.3) — a stream register alone would
        // be overwritten by the next arriving flit long before the
        // 398-cycle forwarding point. This staging is exactly what the
        // per-hop overhead pays for.
        for h in 1..path.links.len() {
            let tsp = path.tsps[h];
            let in_port = port_of(topo, path, h - 1, tsp);
            let out_port = port_of(topo, path, h, tsp);
            let in_latency = scheduled_link_latency(topo, path.links[h - 1]);
            let arrive0 = hop_starts[h - 1] + slot + in_latency;
            let forward0 = hop_starts[h];
            debug_assert!(
                forward0 >= READ_LATENCY,
                "forwarding hop scheduled before the SRAM read pipeline"
            );
            let fread0 = forward0.saturating_sub(READ_LATENCY);
            let in_stream = alloc_stream(&mut streams, tsp, arrive0, arrive0 + (n - 1) * slot + 1)?;
            let out_stream = alloc_stream(&mut streams, tsp, fread0, forward0 + (n - 1) * slot)?;
            let scratch = scratch_base(&mut scratch_next, tsp, n as u16);
            let prog = programs.entry(tsp).or_default();
            for v in 0..n {
                let arrive = arrive0 + v * slot;
                let forward = forward0 + v * slot;
                debug_assert!(forward > arrive + 1 + READ_LATENCY);
                prog.push(
                    arrive,
                    Instruction::Receive {
                        port: in_port,
                        stream: in_stream,
                    },
                );
                prog.push(
                    arrive + 1,
                    Instruction::Write {
                        slice: SCRATCH_SLICE,
                        offset: scratch + v as u16,
                        stream: in_stream,
                    },
                );
                prog.push(
                    fread0 + v * slot,
                    Instruction::Read {
                        slice: SCRATCH_SLICE,
                        offset: scratch + v as u16,
                        stream: out_stream,
                        dir: Direction::East,
                    },
                );
                prog.push(
                    forward,
                    Instruction::Send {
                        port: out_port,
                        stream: out_stream,
                    },
                );
            }
        }

        // Destination: Receive -> Write.
        let last = path.links.len() - 1;
        let dst_port = port_of(topo, path, last, tr.to);
        let out_latency = scheduled_link_latency(topo, path.links[last]);
        let dst_arrive0 = hop_starts[last] + slot + out_latency;
        let dst_stream = alloc_stream(
            &mut streams,
            tr.to,
            dst_arrive0,
            dst_arrive0 + (n - 1) * slot + 1,
        )?;
        let prog = programs.entry(tr.to).or_default();
        for v in 0..n {
            let arrive = dst_arrive0 + v * slot;
            prog.push(
                arrive,
                Instruction::Receive {
                    port: dst_port,
                    stream: dst_stream,
                },
            );
            prog.push(
                arrive + 1,
                Instruction::Write {
                    slice: tr.dst_slice,
                    offset: tr.dst_offset + v as u16,
                    stream: dst_stream,
                },
            );
        }

        // Materialize every delivery and every promised emission straight
        // from the schedule: the O(1) topology port index maps each
        // sending port to its (link, peer, peer port) once per hop.
        for (h, &hop_start) in hop_starts.iter().enumerate().take(path.links.len()) {
            let sender = path.tsps[h];
            let out_port = port_of(topo, path, h, sender);
            let (link, peer, peer_port) = topo
                .port_peer(sender, out_port)
                .expect("scheduled port is wired");
            debug_assert_eq!(link, path.links[h]);
            debug_assert_eq!(peer, path.tsps[h + 1]);
            let latency = scheduled_link_latency(topo, path.links[h]);
            let promised = emissions.entry(sender).or_default();
            for v in 0..n {
                promised.push(PlannedEmission {
                    cycle: hop_start + v * slot,
                    port: out_port,
                    vec: vref(v),
                });
            }
            let inbox = deliveries.entry(peer).or_default();
            for v in 0..n {
                inbox.push(PlannedDelivery {
                    port: peer_port,
                    cycle: hop_start + (v + 1) * slot + latency,
                    vec: vref(v),
                    link,
                });
            }
        }
    }

    // Assemble per-chip plans in ascending TspId order and group them into
    // hop-depth levels: a chip at depth d receives only from chips at
    // depth < d, so levels give the topological order the executor merges
    // results in.
    let mut tsps: Vec<TspId> = programs.keys().copied().collect();
    tsps.sort();
    let mut chips = Vec::with_capacity(tsps.len());
    let mut levels: Vec<Vec<u32>> = Vec::new();
    let mut slab: Vec<TimedInstruction> = Vec::new();
    let mut instructions = 0usize;
    for (i, &tsp) in tsps.iter().enumerate() {
        let d = depth[&tsp];
        if levels.len() <= d {
            levels.resize(d + 1, Vec::new());
        }
        levels[d].push(i as u32);
        let mut program = programs
            .remove(&tsp)
            .expect("program exists for listed chip");
        // Issue-sort once at compile time, then flatten into the shared
        // slab; every execution runs the window without cloning or
        // re-sorting it.
        program.sort_in_place();
        instructions += program.len();
        let prog_start = slab.len() as u32;
        slab.extend_from_slice(program.instrs());
        let prog_end = slab.len() as u32;
        let mut dels = deliveries.remove(&tsp).unwrap_or_default();
        // Stable (port, cycle) order: each port's queue is fed
        // nondecreasing, and equal keys keep transfer order — consumption
        // order is identical to the legacy per-delivery re-sort.
        dels.sort_by_key(|d| (d.port, d.cycle));
        let mut emis = emissions.remove(&tsp).unwrap_or_default();
        emis.sort_by_key(|e| (e.cycle, e.port));
        chips.push(ChipPlan {
            tsp,
            depth: d as u32,
            shard: shard_key(tsp),
            prog_start,
            prog_end,
            preloads: preloads.remove(&tsp).unwrap_or_default(),
            deliveries: dels,
            emissions: emis,
        });
    }

    Ok(CompiledPlan {
        shapes: shapes.to_vec(),
        chips,
        slab,
        levels,
        arrivals,
        instructions,
    })
}

/// The port number `tsp` uses on hop `h`'s link.
fn port_of(topo: &Topology, path: &Path, h: usize, tsp: TspId) -> u8 {
    let l = topo.link(path.links[h]);
    if l.a == tsp {
        l.a_port
    } else {
        debug_assert_eq!(l.b, tsp);
        l.b_port
    }
}

/// Hand-rolled JSON round-trip for [`CompiledPlan`] (the offline
/// toolchain stubs serde_json). Emitter and parser share the
/// [`tsm_trace::JsonWriter`] / [`tsm_trace::Cursor`] combinators, so the
/// escaping and structure rules match every other serializer in the
/// workspace.
mod json {
    use super::{
        ChipPlan, CompiledPlan, PlannedDelivery, PlannedEmission, PlannedPreload, TransferShape,
        VecRef,
    };
    use tsm_chip::exec::TimedInstruction;
    use tsm_isa::instr::{Instruction, VectorOpcode};
    use tsm_isa::{Direction, StreamId};
    use tsm_topology::{LinkId, TspId};
    use tsm_trace::{Cursor, JsonWriter};

    fn emit_vec_ref(w: &mut JsonWriter, v: &VecRef) {
        w.field_u64("transfer", v.transfer.into());
        w.field_u64("vector", v.vector.into());
    }

    fn emit_instr(w: &mut JsonWriter, ti: &TimedInstruction) {
        w.begin_object();
        w.field_u64("cycle", ti.cycle);
        match &ti.instr {
            Instruction::Sync => {
                w.field_str("op", "sync");
            }
            Instruction::Notify => {
                w.field_str("op", "notify");
            }
            Instruction::Deskew => {
                w.field_str("op", "deskew");
            }
            Instruction::RuntimeDeskew { target_cycles } => {
                w.field_str("op", "runtime_deskew");
                w.field_u64("target_cycles", *target_cycles);
            }
            Instruction::Transmit { port } => {
                w.field_str("op", "transmit");
                w.field_u64("port", (*port).into());
            }
            Instruction::Receive { port, stream } => {
                w.field_str("op", "receive");
                w.field_u64("port", (*port).into());
                w.field_u64("stream", stream.index() as u64);
            }
            Instruction::Send { port, stream } => {
                w.field_str("op", "send");
                w.field_u64("port", (*port).into());
                w.field_u64("stream", stream.index() as u64);
            }
            Instruction::Read {
                slice,
                offset,
                stream,
                dir,
            } => {
                w.field_str("op", "read");
                w.field_u64("slice", (*slice).into());
                w.field_u64("offset", (*offset).into());
                w.field_u64("stream", stream.index() as u64);
                w.field_str(
                    "dir",
                    match dir {
                        Direction::East => "east",
                        Direction::West => "west",
                    },
                );
            }
            Instruction::Write {
                slice,
                offset,
                stream,
            } => {
                w.field_str("op", "write");
                w.field_u64("slice", (*slice).into());
                w.field_u64("offset", (*offset).into());
                w.field_u64("stream", stream.index() as u64);
            }
            Instruction::InstallWeight { stream } => {
                w.field_str("op", "install_weight");
                w.field_u64("stream", stream.index() as u64);
            }
            Instruction::MatMul { input, output } => {
                w.field_str("op", "matmul");
                w.field_u64("input", input.index() as u64);
                w.field_u64("output", output.index() as u64);
            }
            Instruction::VectorOp { op, a, b, dest } => {
                w.field_str("op", "vector_op");
                w.field_str(
                    "vop",
                    match op {
                        VectorOpcode::Add => "add",
                        VectorOpcode::Sub => "sub",
                        VectorOpcode::Mul => "mul",
                        VectorOpcode::Rsqrt => "rsqrt",
                        VectorOpcode::Splat => "splat",
                    },
                );
                w.field_u64("a", a.index() as u64);
                w.field_u64("b", b.index() as u64);
                w.field_u64("dest", dest.index() as u64);
            }
            Instruction::Permute { input, output } => {
                w.field_str("op", "permute");
                w.field_u64("input", input.index() as u64);
                w.field_u64("output", output.index() as u64);
            }
            Instruction::Nop => {
                w.field_str("op", "nop");
            }
        }
        w.end_object();
    }

    pub(super) fn emit(plan: &CompiledPlan) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.key("shapes").begin_array();
        for s in &plan.shapes {
            w.begin_object();
            w.field_u64("from", s.from.0.into());
            w.field_u64("to", s.to.0.into());
            w.field_u64("src_slice", s.src_slice.into());
            w.field_u64("src_offset", s.src_offset.into());
            w.field_u64("dst_slice", s.dst_slice.into());
            w.field_u64("dst_offset", s.dst_offset.into());
            w.field_u64("vectors", s.vectors.into());
            w.end_object();
        }
        w.end_array();
        w.key("chips").begin_array();
        for c in &plan.chips {
            w.begin_object();
            w.field_u64("tsp", c.tsp.0.into());
            w.field_u64("depth", c.depth.into());
            w.field_u64("shard", c.shard.into());
            w.field_u64("prog_start", c.prog_start.into());
            w.field_u64("prog_end", c.prog_end.into());
            w.key("preloads").begin_array();
            for p in &c.preloads {
                w.begin_object();
                w.field_u64("slice", p.slice.into());
                w.field_u64("offset", p.offset.into());
                emit_vec_ref(&mut w, &p.vec);
                w.end_object();
            }
            w.end_array();
            w.key("deliveries").begin_array();
            for d in &c.deliveries {
                w.begin_object();
                w.field_u64("port", d.port.into());
                w.field_u64("cycle", d.cycle);
                emit_vec_ref(&mut w, &d.vec);
                w.field_u64("link", d.link.0.into());
                w.end_object();
            }
            w.end_array();
            w.key("emissions").begin_array();
            for e in &c.emissions {
                w.begin_object();
                w.field_u64("cycle", e.cycle);
                w.field_u64("port", e.port.into());
                emit_vec_ref(&mut w, &e.vec);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.key("slab").begin_array();
        for ti in &plan.slab {
            emit_instr(&mut w, ti);
        }
        w.end_array();
        w.key("levels").begin_array();
        for level in &plan.levels {
            w.begin_array();
            for &i in level {
                w.u64(i.into());
            }
            w.end_array();
        }
        w.end_array();
        w.key("arrivals").begin_array();
        for &a in &plan.arrivals {
            w.u64(a);
        }
        w.end_array();
        w.field_u64("instructions", plan.instructions as u64);
        w.end_object();
        w.finish()
    }

    fn stream(v: u64) -> Result<StreamId, String> {
        StreamId::new(v as u8).map_err(|_| format!("stream id {v} out of range"))
    }

    fn require(v: Option<u64>, what: &str) -> Result<u64, String> {
        v.ok_or_else(|| format!("instruction missing {what:?}"))
    }

    /// Parses one slab entry. Fields are collected order-independently,
    /// then assembled according to the `op` tag; missing required fields
    /// and unknown ops/fields are errors.
    fn parse_instr(c: &mut Cursor) -> Result<TimedInstruction, String> {
        let mut cycle = None;
        let (mut op, mut dir, mut vop) = (None, None, None);
        let mut num: [Option<u64>; 10] = [None; 10];
        const TARGET: usize = 0;
        const PORT: usize = 1;
        const STREAM: usize = 2;
        const SLICE: usize = 3;
        const OFFSET: usize = 4;
        const INPUT: usize = 5;
        const OUTPUT: usize = 6;
        const A: usize = 7;
        const B: usize = 8;
        const DEST: usize = 9;
        c.object(|c, key| {
            match key {
                "cycle" => cycle = Some(c.u64()?),
                "op" => op = Some(c.string()?),
                "dir" => dir = Some(c.string()?),
                "vop" => vop = Some(c.string()?),
                "target_cycles" => num[TARGET] = Some(c.u64()?),
                "port" => num[PORT] = Some(c.u64()?),
                "stream" => num[STREAM] = Some(c.u64()?),
                "slice" => num[SLICE] = Some(c.u64()?),
                "offset" => num[OFFSET] = Some(c.u64()?),
                "input" => num[INPUT] = Some(c.u64()?),
                "output" => num[OUTPUT] = Some(c.u64()?),
                "a" => num[A] = Some(c.u64()?),
                "b" => num[B] = Some(c.u64()?),
                "dest" => num[DEST] = Some(c.u64()?),
                other => return Err(format!("unknown instruction field {other:?}")),
            }
            Ok(())
        })?;
        let op = op.ok_or("instruction missing \"op\"")?;
        let instr = match op.as_str() {
            "sync" => Instruction::Sync,
            "notify" => Instruction::Notify,
            "deskew" => Instruction::Deskew,
            "nop" => Instruction::Nop,
            "runtime_deskew" => Instruction::RuntimeDeskew {
                target_cycles: require(num[TARGET], "target_cycles")?,
            },
            "transmit" => Instruction::Transmit {
                port: require(num[PORT], "port")? as u8,
            },
            "receive" => Instruction::Receive {
                port: require(num[PORT], "port")? as u8,
                stream: stream(require(num[STREAM], "stream")?)?,
            },
            "send" => Instruction::Send {
                port: require(num[PORT], "port")? as u8,
                stream: stream(require(num[STREAM], "stream")?)?,
            },
            "read" => Instruction::Read {
                slice: require(num[SLICE], "slice")? as u8,
                offset: require(num[OFFSET], "offset")? as u16,
                stream: stream(require(num[STREAM], "stream")?)?,
                dir: match dir.as_deref() {
                    Some("east") => Direction::East,
                    Some("west") => Direction::West,
                    other => return Err(format!("bad read direction {other:?}")),
                },
            },
            "write" => Instruction::Write {
                slice: require(num[SLICE], "slice")? as u8,
                offset: require(num[OFFSET], "offset")? as u16,
                stream: stream(require(num[STREAM], "stream")?)?,
            },
            "install_weight" => Instruction::InstallWeight {
                stream: stream(require(num[STREAM], "stream")?)?,
            },
            "matmul" => Instruction::MatMul {
                input: stream(require(num[INPUT], "input")?)?,
                output: stream(require(num[OUTPUT], "output")?)?,
            },
            "permute" => Instruction::Permute {
                input: stream(require(num[INPUT], "input")?)?,
                output: stream(require(num[OUTPUT], "output")?)?,
            },
            "vector_op" => Instruction::VectorOp {
                op: match vop.as_deref() {
                    Some("add") => VectorOpcode::Add,
                    Some("sub") => VectorOpcode::Sub,
                    Some("mul") => VectorOpcode::Mul,
                    Some("rsqrt") => VectorOpcode::Rsqrt,
                    Some("splat") => VectorOpcode::Splat,
                    other => return Err(format!("bad vector opcode {other:?}")),
                },
                a: stream(require(num[A], "a")?)?,
                b: stream(require(num[B], "b")?)?,
                dest: stream(require(num[DEST], "dest")?)?,
            },
            other => return Err(format!("unknown instruction op {other:?}")),
        };
        Ok(TimedInstruction {
            cycle: cycle.ok_or("instruction missing \"cycle\"")?,
            instr,
        })
    }

    fn parse_shape(c: &mut Cursor) -> Result<TransferShape, String> {
        let mut s = TransferShape {
            from: TspId(0),
            to: TspId(0),
            src_slice: 0,
            src_offset: 0,
            dst_slice: 0,
            dst_offset: 0,
            vectors: 0,
        };
        c.object(|c, key| {
            match key {
                "from" => s.from = TspId(c.u64()? as u32),
                "to" => s.to = TspId(c.u64()? as u32),
                "src_slice" => s.src_slice = c.u64()? as u8,
                "src_offset" => s.src_offset = c.u64()? as u16,
                "dst_slice" => s.dst_slice = c.u64()? as u8,
                "dst_offset" => s.dst_offset = c.u64()? as u16,
                "vectors" => s.vectors = c.u64()? as u32,
                other => return Err(format!("unknown shape field {other:?}")),
            }
            Ok(())
        })?;
        Ok(s)
    }

    fn parse_chip(c: &mut Cursor) -> Result<ChipPlan, String> {
        let mut chip = ChipPlan {
            tsp: TspId(0),
            depth: 0,
            shard: 0,
            prog_start: 0,
            prog_end: 0,
            preloads: Vec::new(),
            deliveries: Vec::new(),
            emissions: Vec::new(),
        };
        c.object(|c, key| {
            match key {
                "tsp" => chip.tsp = TspId(c.u64()? as u32),
                "depth" => chip.depth = c.u64()? as u32,
                "shard" => chip.shard = c.u64()? as u32,
                "prog_start" => chip.prog_start = c.u64()? as u32,
                "prog_end" => chip.prog_end = c.u64()? as u32,
                "preloads" => c.array(|c| {
                    let mut p = PlannedPreload {
                        slice: 0,
                        offset: 0,
                        vec: VecRef {
                            transfer: 0,
                            vector: 0,
                        },
                    };
                    c.object(|c, key| {
                        match key {
                            "slice" => p.slice = c.u64()? as u8,
                            "offset" => p.offset = c.u64()? as u16,
                            "transfer" => p.vec.transfer = c.u64()? as u32,
                            "vector" => p.vec.vector = c.u64()? as u32,
                            other => return Err(format!("unknown preload field {other:?}")),
                        }
                        Ok(())
                    })?;
                    chip.preloads.push(p);
                    Ok(())
                })?,
                "deliveries" => c.array(|c| {
                    let mut d = PlannedDelivery {
                        port: 0,
                        cycle: 0,
                        vec: VecRef {
                            transfer: 0,
                            vector: 0,
                        },
                        link: LinkId(0),
                    };
                    c.object(|c, key| {
                        match key {
                            "port" => d.port = c.u64()? as u8,
                            "cycle" => d.cycle = c.u64()?,
                            "transfer" => d.vec.transfer = c.u64()? as u32,
                            "vector" => d.vec.vector = c.u64()? as u32,
                            "link" => d.link = LinkId(c.u64()? as u32),
                            other => return Err(format!("unknown delivery field {other:?}")),
                        }
                        Ok(())
                    })?;
                    chip.deliveries.push(d);
                    Ok(())
                })?,
                "emissions" => c.array(|c| {
                    let mut e = PlannedEmission {
                        cycle: 0,
                        port: 0,
                        vec: VecRef {
                            transfer: 0,
                            vector: 0,
                        },
                    };
                    c.object(|c, key| {
                        match key {
                            "cycle" => e.cycle = c.u64()?,
                            "port" => e.port = c.u64()? as u8,
                            "transfer" => e.vec.transfer = c.u64()? as u32,
                            "vector" => e.vec.vector = c.u64()? as u32,
                            other => return Err(format!("unknown emission field {other:?}")),
                        }
                        Ok(())
                    })?;
                    chip.emissions.push(e);
                    Ok(())
                })?,
                other => return Err(format!("unknown chip field {other:?}")),
            }
            Ok(())
        })?;
        Ok(chip)
    }

    pub(super) fn parse(s: &str) -> Result<CompiledPlan, String> {
        let mut plan = CompiledPlan {
            shapes: Vec::new(),
            chips: Vec::new(),
            slab: Vec::new(),
            levels: Vec::new(),
            arrivals: Vec::new(),
            instructions: 0,
        };
        let mut c = Cursor::new(s);
        c.object(|c, key| match key {
            "shapes" => c.array(|c| {
                plan.shapes.push(parse_shape(c)?);
                Ok(())
            }),
            "chips" => c.array(|c| {
                plan.chips.push(parse_chip(c)?);
                Ok(())
            }),
            "slab" => c.array(|c| {
                plan.slab.push(parse_instr(c)?);
                Ok(())
            }),
            "levels" => c.array(|c| {
                let mut level = Vec::new();
                c.array(|c| {
                    level.push(c.u64()? as u32);
                    Ok(())
                })?;
                plan.levels.push(level);
                Ok(())
            }),
            "arrivals" => c.array(|c| {
                plan.arrivals.push(c.u64()?);
                Ok(())
            }),
            "instructions" => {
                plan.instructions = c.u64()? as usize;
                Ok(())
            }
            other => Err(format!("unknown plan field {other:?}")),
        })?;
        c.expect_end()?;
        for chip in &plan.chips {
            if chip.prog_start > chip.prog_end || chip.prog_end as usize > plan.slab.len() {
                return Err(format!(
                    "chip {} program window [{}, {}) exceeds slab of {}",
                    chip.tsp.0,
                    chip.prog_start,
                    chip.prog_end,
                    plan.slab.len()
                ));
            }
        }
        Ok(plan)
    }
}
