//! A launch driven stage by stage through the public `LaunchEngine`
//! API, with a span around every stage — what `Runtime::launch` does in
//! one call, split so each stage's host time is measured from outside.

use crate::spans::Spans;
use std::sync::Arc;
use tsm::compiler::graph::Graph;
use tsm::core::launch::{ExecuteFailure, LaunchEngine};
use tsm::core::runtime::{LaunchOutcome, Runtime, RuntimeError};
use tsm::trace::{RingSink, TraceSink, Tracer};

/// Span names of the launch stages, as recorded by [`staged_launch`].
pub mod span {
    /// The whole launch.
    pub const LAUNCH: &str = "launch";
    /// `admit` + `begin`.
    pub const ADMIT_BEGIN: &str = "launch.admit_begin";
    /// `compile_or_reuse` that reused a resident plan.
    pub const REUSE: &str = "launch.reuse";
    /// `compile_or_reuse` that compiled.
    pub const COMPILE: &str = "launch.compile";
    /// `execute` (one replay episode).
    pub const EXECUTE: &str = "launch.execute";
    /// `recover` (blame vote and failover).
    pub const RECOVER: &str = "launch.recover";
    /// `finish`.
    pub const FINISH: &str = "launch.finish";
}

/// Runs one launch of `graph` with `seed` on `rt` stage by stage, exactly
/// as `Runtime::launch` sequences them, recording each stage as a child
/// span of a `launch` span tagged `id`. Runtime-lane events go to `sink`
/// when given. Returns the outcome and whether the launch compiled.
pub fn staged_launch(
    rt: &mut Runtime,
    graph: &Graph,
    seed: u64,
    sink: Option<&Arc<RingSink>>,
    spans: &mut Spans,
    id: u64,
) -> Result<(LaunchOutcome, bool), RuntimeError> {
    spans.time(span::LAUNCH, id, |spans| {
        let mut tracer = Tracer::new(sink.map(|s| s.as_ref() as &dyn TraceSink));
        let mut engine = LaunchEngine::new(rt, graph, seed);
        spans.time(span::ADMIT_BEGIN, id, |_| {
            engine.admit().map(|_| engine.begin(&mut tracer))
        })?;
        let mut compiled = false;
        loop {
            let decision = spans.time(span::REUSE, id, |_| engine.compile_or_reuse(&mut tracer))?;
            if !decision.reused {
                spans.rename_last(span::REUSE, span::COMPILE);
                compiled = true;
            }
            match spans.time(span::EXECUTE, id, |_| engine.execute(&mut tracer)) {
                Ok(success) => {
                    let out = spans.time(span::FINISH, id, |_| engine.finish(success, &mut tracer));
                    return Ok((out, compiled));
                }
                Err(ExecuteFailure::Fatal(e)) => return Err(e),
                Err(ExecuteFailure::Persistent(culprits)) => {
                    spans.time(span::RECOVER, id, |_| {
                        engine.recover(&culprits, &mut tracer)
                    })?;
                }
            }
        }
    })
}
