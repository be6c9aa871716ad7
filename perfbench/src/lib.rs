//! The repository's benchmark: three workloads run from a seed, each
//! timed from outside by calls into the public API of the layer it
//! exercises, with every output checked. See `README.md` for why each
//! workload exists and which layer metric should move which end-to-end
//! metric.

pub mod churn;
pub mod host;
pub mod record;
pub mod scale;
pub mod serve;
pub mod spans;
pub mod stages;
pub mod stats;

use record::Record;
use spans::Spans;

/// Workload sizes: the benchmark's own, or a tiny one for its tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Small enough for a unit test, same code paths.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Seconds the timed phase measures for (at least).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced timed run.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
}

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["serve_observed", "launch_churn", "scale_10440"];

/// Runs `workload` with `opts`; `None` for an unknown workload name.
pub fn run(workload: &str, opts: &Opts) -> Option<(Record, Spans)> {
    let name = *WORKLOADS.iter().find(|w| **w == workload)?;
    let mut rec = Record::new(name, opts.seed, opts.trace);
    let mut spans = Spans::new(opts.trace);
    let steal = host::Steal::start();
    match name {
        "serve_observed" => serve::run(opts, &mut rec, &mut spans),
        "launch_churn" => churn::run(opts, &mut rec, &mut spans),
        _ => scale::run(opts, &mut rec, &mut spans),
    }
    rec.host("peak_rss_mb", record::peak_rss_mb(), 1);
    rec.steal = steal.finish();
    rec.complete();
    Some((rec, spans))
}
