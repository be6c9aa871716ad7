//! The parallelizing compiler: partitioning, communication scheduling, and
//! cycle-exact cost estimation (paper §4, §5).
//!
//! The compiler is where every decision the paper moves out of hardware
//! lands: which TSP executes which sub-task, which links carry which
//! vectors on which cycles, whether a tensor routes minimally or spreads
//! across non-minimal paths, and when every operand arrives. Modules:
//!
//! * [`graph`] — the static computation DAG ("we express these
//!   dependencies as a DAG to explicitly schedule the communication
//!   traffic", §3),
//! * [`schedule`] — the list scheduler that places compute on device
//!   timelines and communication on the SSN link-occupancy table,
//!   producing a [`schedule::CompiledProgram`] whose span *is* the
//!   compiler's latency estimate (within 2 % of measurement in Fig 17),
//! * [`partition`] — column-wise / row-wise weight splits for distributed
//!   GEMM (§5.2, Figs 14–15),
//! * [`spread`] — the minimal/non-minimal routing decision by tensor
//!   volume (§4.3, Fig 10),
//! * [`collective`] — hierarchical all-reduce planning (§5.3, §5.6,
//!   Fig 16),
//! * [`balance`] — the FLOPs-only vs data-movement-aware optimization
//!   levels compared in Fig 20.

#![forbid(unsafe_code)]

pub mod balance;
pub mod collective;
pub mod collectives_ext;
pub mod dump;
pub mod gantt;
pub mod graph;
pub mod partition;
pub mod schedule;
pub mod spread;
pub mod tenancy;

pub use graph::{Graph, OpId, OpKind, OpNode};
pub use schedule::{CompileError, CompiledProgram};
