//! Analytic models of the paper's comparison systems (§5.2–5.3).
//!
//! The figures compare the TSP against Nvidia hardware the authors
//! measured. We cannot run that hardware, so each comparator is rebuilt as
//! the analytic model that produces its characteristic *shape*:
//!
//! * [`a100`] — GEMM utilization with **wave quantization** (the tile/SM
//!   rounding of Nvidia's own GEMM guide \[33\]) for Fig 13, and pin
//!   bandwidth for the normalized series of Fig 16;
//! * [`nccl`] — a ring all-reduce with kernel-launch and shared-memory
//!   fence overhead, the lock-based mailbox cost the paper contrasts with
//!   barrier-free SSN (Fig 16);
//! * [`v100`] — the 432-GPU V100 cluster reference point of Herault et
//!   al. used by Fig 15's ">100× FP16 throughput" claim.

#![forbid(unsafe_code)]

pub mod a100;
pub mod nccl;
pub mod v100;
