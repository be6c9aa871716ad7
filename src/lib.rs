//! # tsm — a software-defined tensor streaming multiprocessor
//!
//! A from-scratch Rust reproduction of *"A Software-defined Tensor
//! Streaming Multiprocessor for Large-scale Machine Learning"* (Abts et
//! al., ISCA 2022): the deterministic, compiler-scheduled scale-out system
//! built from Groq TSP processing elements and a software-scheduled
//! Dragonfly interconnect.
//!
//! The repository models the complete stack — chips, links, packaging,
//! clock synchronization, the software-scheduled network, the
//! parallelizing compiler, fault tolerance, and the paper's evaluation
//! workloads — as deterministic, cycle-resolved simulation. See
//! `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for
//! paper-vs-measured results.
//!
//! Quick start:
//!
//! ```
//! use tsm::prelude::*;
//!
//! // An 8-TSP node, fully connected by 28 C2C cables.
//! let system = System::single_node();
//!
//! // Compile a tiny two-device pipeline.
//! let mut graph = Graph::new();
//! let a = graph
//!     .add(TspId(0), OpKind::Gemm { shape: GemmShape::new(320, 320, 320), ty: ElemType::F16 }, vec![])
//!     .unwrap();
//! let t = graph
//!     .add(TspId(0), OpKind::Transfer { to: TspId(1), bytes: 204_800, allow_nonminimal: true }, vec![a])
//!     .unwrap();
//! graph.add(TspId(1), OpKind::Gemm { shape: GemmShape::new(320, 320, 320), ty: ElemType::F16 }, vec![t])
//!     .unwrap();
//!
//! let program = system.compile(&graph, CompileOptions::default()).unwrap();
//! let report = system.execute_with_graph(&program, &graph, 0);
//! assert!(report.succeeded);
//! ```

#![forbid(unsafe_code)]

pub use tsm_baseline as baseline;
pub use tsm_chip as chip;
pub use tsm_compiler as compiler;
pub use tsm_core as core;
pub use tsm_fault as fault;
pub use tsm_isa as isa;
pub use tsm_link as link;
pub use tsm_mem as mem;
pub use tsm_net as net;
pub use tsm_sync as sync;
pub use tsm_topology as topology;
pub use tsm_trace as trace;
pub use tsm_workloads as workloads;

/// The names most programs need.
pub mod prelude {
    pub use tsm_chip::mxm::GemmShape;
    pub use tsm_compiler::graph::{Graph, OpId, OpKind};
    pub use tsm_compiler::schedule::{CompileOptions, CompiledProgram, OptLevel};
    pub use tsm_core::{
        ExecMode, ExecutionReport, Request, Runtime, ServeConfig, Server, SparePolicy, System,
        SystemConfig, WorkQueue,
    };
    pub use tsm_isa::ElemType;
    pub use tsm_topology::{NodeId, RackId, Topology, TspId};
    pub use tsm_trace::{NullSink, RingSink, RunMetrics, TraceSink};
    pub use tsm_workloads::bert::BertConfig;
    pub use tsm_workloads::cholesky::CholeskyPlan;
    pub use tsm_workloads::{merge_arrivals, poisson_arrivals, poisson_arrivals_in};
}
