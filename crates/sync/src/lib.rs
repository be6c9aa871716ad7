//! Synchronization layer: maintaining determinism across a distributed
//! system of plesiochronous TSPs (paper §3).
//!
//! A multi-TSP system has no shared clock. Determinism across chips rests
//! on three mechanisms, each modelled by a module here:
//!
//! 1. [`hac`] — per-TSP **hardware-aligned counters** exchanged every 256
//!    cycles to build a global consensus time, plus the free-running
//!    **software-aligned counter** used to measure accumulated drift;
//! 2. [`align`] — **initial program alignment**: link-latency
//!    characterization by HAC reflection (paper Fig 7(a), Table 2),
//!    parent/child HAC convergence, and the DESKEW-based program launch
//!    along a spanning tree with overhead `(⌊L/period⌋+1)·h` epochs
//!    (paper §3.2, Fig 7(b));
//! 3. [`deskew`] — **runtime resynchronization** with RUNTIME_DESKEW,
//!    absorbing each TSP's accumulated SAC−HAC drift during long-running
//!    computations (paper §3.3).
//!
//! The physical substitution: real oscillators are replaced by
//! [`clock::LocalClock`] (a parts-per-million frequency offset plus the
//! link-jitter already modelled in `tsm-link`), which is precisely the
//! information the HAC protocol observes.

#![forbid(unsafe_code)]

pub mod align;
pub mod clock;
pub mod deskew;
pub mod hac;
pub mod tree;

pub use align::{characterize_link, AlignmentTrace, InitialAlignment, SpanningTree};
pub use clock::LocalClock;
pub use deskew::RuntimeDeskew;
pub use hac::{AlignedCounter, HAC_PERIOD};
pub use tree::{simulate_tree_alignment, TreeAlignmentTrace};
