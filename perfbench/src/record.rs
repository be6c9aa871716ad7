//! The metric catalogue, per-run records, and their JSON forms.

use crate::host::STEAL_FLAG;
use std::collections::BTreeMap;
use tsm::trace::JsonWriter;

/// End-to-end metrics: name, unit. Every workload reports every one; see
/// `perfbench/README.md` for what an "op" is on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("cold_op_ms_p50", "ms"),
    ("warm_op_ms_p50", "ms"),
    ("sim_latency_p50_cycles", "cycles"),
    ("sim_latency_p99_cycles", "cycles"),
    ("sim_slo_attainment", "ratio"),
];

/// Per-layer metrics: name, unit. A layer a workload bypasses reads 0
/// with a sample count of 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serving.self_ms_per_req", "ms"),
    ("serving.mean_batch", "req"),
    ("serving.queue_depth_max", "req"),
    ("serving.shed", "count"),
    ("serving.expired", "count"),
    ("launch.admit_begin_us", "us"),
    ("launch.reuse_us", "us"),
    ("launch.compile_ms", "ms"),
    ("launch.execute_ms", "ms"),
    ("launch.recover_ms", "ms"),
    ("launch.finish_us", "us"),
    ("launch.attempts", "count"),
    ("launch.replays", "count"),
    ("launch.failovers", "count"),
    ("residency.hits", "count"),
    ("residency.misses", "count"),
    ("residency.evictions", "count"),
    ("residency.hit_rate", "ratio"),
    ("residency.resident_bytes_max", "bytes"),
    ("compiler.schedule_ms", "ms"),
    ("plan.compile_ms", "ms"),
    ("plan.instructions", "count"),
    ("plan.bytes", "bytes"),
    ("exec.serial_ms", "ms"),
    ("exec.parallel_ms", "ms"),
    ("exec.pool_speedup", "ratio"),
    ("exec.ns_per_instr", "ns"),
    ("exec.instructions", "count"),
    ("exec.deliveries", "count"),
    ("exec.threads", "count"),
    ("fec.clean", "count"),
    ("fec.corrected", "count"),
    ("fec.uncorrectable", "count"),
    ("fec.ns_per_delivery", "ns"),
    ("observer.certify_ms_per_req", "ms"),
    ("observer.telemetry_ms_per_req", "ms"),
    ("observer.attribution_ms_per_req", "ms"),
    ("observer.flight_ms_per_req", "ms"),
    ("profile.join_ms", "ms"),
    ("profile.certified_ratio", "ratio"),
    ("flight.incidents", "count"),
    ("attr.window_wait_cycles", "cycles"),
    ("attr.queue_wait_cycles", "cycles"),
    ("attr.execute_cycles", "cycles"),
    ("attr.replay_cycles", "cycles"),
    ("bench.trace_overhead", "ratio"),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Value as measured.
    pub value: f64,
    /// Unit, from the catalogue.
    pub unit: &'static str,
    /// Samples the value summarises (0: the layer is bypassed).
    pub samples: usize,
    /// Deterministic: the same seed reproduces it bit for bit.
    pub exact: bool,
}

/// Host and run identity stamped on every record.
#[derive(Debug, Clone)]
pub struct Identity {
    /// Cores available to the process.
    pub nproc: usize,
    /// Worker threads the executor resolves to.
    pub threads: usize,
    /// `TSM_THREADS` as set in the environment.
    pub tsm_threads: String,
    /// `rustc --version`, as passed in by `run.py`.
    pub rustc: String,
    /// Git commit of the checkout, as passed in by `run.py`.
    pub commit: String,
    /// Fingerprint of the sources the benchmark was built from.
    pub source: String,
}

impl Identity {
    /// Reads the identity of this host and process.
    pub fn current() -> Self {
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
        Identity {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads: tsm::core::PlanExecutor::new().resolved_threads(),
            tsm_threads: env("TSM_THREADS"),
            rustc: env("PERFBENCH_RUSTC"),
            commit: env("PERFBENCH_COMMIT"),
            source: env("PERFBENCH_SOURCE"),
        }
    }
}

/// Everything one benchmark run measured and checked.
#[derive(Debug, Clone)]
pub struct Record {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Metrics by name.
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Output checks: name → (passed, failed).
    pub checks: BTreeMap<&'static str, (u64, u64)>,
    /// Ops attempted: launches, serves, executes, one-off checks.
    pub attempted: u64,
    /// Ops that returned `Err` or failed a check.
    pub failed: u64,
    /// Steal time over the whole run: clock ticks, and their share of
    /// the machine's CPU time.
    pub steal: (u64, f64),
    /// Free-form notes (e.g. where the trace was written).
    pub notes: Vec<String>,
}

/// The catalogue entry (name, unit) of metric `name`.
fn catalogue(name: &str) -> (&'static str, &'static str) {
    *END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// A measured value as a JSON number, with all its digits.
fn num(v: f64) -> String {
    format!("{v}")
}

impl Record {
    /// An empty record.
    pub fn new(workload: &'static str, seed: u64, trace: bool) -> Self {
        Record {
            workload,
            seed,
            trace,
            metrics: BTreeMap::new(),
            checks: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            steal: (0, 0.0),
            notes: Vec::new(),
        }
    }

    fn put(&mut self, name: &str, value: f64, samples: usize, exact: bool) {
        let (name, unit) = catalogue(name);
        let value = if value.is_finite() {
            value
        } else {
            self.check("metrics_finite", false);
            self.op(false);
            0.0
        };
        self.metrics.insert(
            name,
            Metric {
                value,
                unit,
                samples,
                exact,
            },
        );
    }

    /// A host-time (or other measured) value over `samples` samples.
    pub fn host(&mut self, name: &str, value: f64, samples: usize) {
        self.put(name, value, samples, false);
    }

    /// The `q` quantile of host-time samples (0 with no samples).
    pub fn host_quantile(&mut self, name: &str, samples: &[f64], q: f64) {
        let v = crate::stats::quantile(samples, q).unwrap_or(0.0);
        self.put(name, v, samples.len(), false);
    }

    /// Ops per host second over op-time samples in ms.
    pub fn host_rate(&mut self, name: &str, ops_ms: &[f64]) {
        let ms: f64 = ops_ms.iter().sum();
        self.host(name, ops_ms.len() as f64 * 1e3 / ms, ops_ms.len());
    }

    /// A deterministic value over `samples` samples.
    pub fn exact(&mut self, name: &str, value: f64, samples: usize) {
        self.put(name, value, samples, true);
    }

    /// Tallies one output check; returns `ok` so checks can be combined.
    pub fn check(&mut self, name: &'static str, ok: bool) -> bool {
        let e = self.checks.entry(name).or_insert((0, 0));
        if ok {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
        ok
    }

    /// Counts one attempted op, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The value of metric `name` (panics if it was not set).
    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} not set"))
            .value
    }

    /// Fills bypassed per-layer metrics with 0 over 0 samples. An
    /// end-to-end metric an untraced run failed to measure (its set-up
    /// failed) also reads 0, and fails the run.
    pub fn complete(&mut self) {
        for &(name, unit) in PER_LAYER {
            self.metrics.entry(name).or_insert(Metric {
                value: 0.0,
                unit,
                samples: 0,
                exact: true,
            });
        }
        if !self.trace {
            let missing = END_TO_END
                .iter()
                .filter(|(name, _)| !self.metrics.contains_key(name))
                .count();
            if missing > 0 {
                self.check("end_to_end_measured", false);
                self.op(false);
                for &(name, _) in END_TO_END {
                    if !self.metrics.contains_key(name) {
                        self.put(name, 0.0, 0, false);
                    }
                }
            }
        }
    }

    /// This run's `sim_*` metrics as text stamped with the `source`
    /// fingerprint, to compare with the other mode's run of the same
    /// workload and seed. `None` when any is unmeasured, as after a
    /// failed set-up (which has already failed the run).
    pub fn sim_text(&self, source: &str) -> Option<String> {
        let mut text = format!("source {source}\n");
        for &(name, _) in END_TO_END.iter().filter(|(n, _)| n.starts_with("sim_")) {
            text.push_str(&format!("{name} {}\n", self.metrics.get(name)?.value));
        }
        Some(text)
    }

    /// The names this run reports on its last line: the end-to-end
    /// metrics untraced, the per-layer metrics traced.
    pub fn reported(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Whether the run's steal share passed [`STEAL_FLAG`].
    pub fn steal_flagged(&self) -> bool {
        self.steal.1 > STEAL_FLAG
    }

    /// The last line of the benchmark's output.
    pub fn result_line(&self) -> String {
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.key("correct")
            .bool(self.failed == 0 && self.attempted > 0);
        w.field_u64("attempted", self.attempted);
        w.field_u64("failed", self.failed);
        w.key("metrics").begin_object();
        for &(name, unit) in self.reported() {
            let v = self.metrics.get(name).map_or(0.0, |m| m.value);
            w.key(name).begin_object();
            w.field_raw("value", &num(v)).field_str("unit", unit);
            w.end_object();
        }
        w.end_object().end_object();
        w.finish()
    }

    /// Human-readable lines: every metric with unit and sample count,
    /// then the checks and the run's steal time.
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut section = |title: &str, names: &[(&str, &str)]| {
            out.push(format!("# {title}"));
            for &(name, _) in names {
                if let Some(m) = self.metrics.get(name) {
                    out.push(format!(
                        "{name:<34} {:>18} {:<7} n={}{}",
                        fmt_value(m.value),
                        m.unit,
                        m.samples,
                        if m.exact { " exact" } else { "" }
                    ));
                }
            }
        };
        section("end-to-end", END_TO_END);
        if self.trace {
            section("per-layer", PER_LAYER);
        }
        out.push("# checks".into());
        for (name, (pass, fail)) in &self.checks {
            out.push(format!("{name:<34} passed={pass} failed={fail}"));
        }
        out.push(format!(
            "# steal ticks={} share={:.4}{}",
            self.steal.0,
            self.steal.1,
            if self.steal_flagged() {
                " FLAGGED: host-time metrics of this run are suspect"
            } else {
                ""
            }
        ));
        out.extend(self.notes.iter().map(|n| format!("# {n}")));
        out
    }

    /// The full record, stamped with `id`, as JSON.
    pub fn to_json(&self, id: &Identity) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.field_str("workload", self.workload);
        w.field_u64("seed", self.seed);
        w.key("trace").bool(self.trace);
        w.key("host").begin_object();
        w.field_u64("nproc", id.nproc as u64);
        w.field_u64("threads", id.threads as u64);
        w.field_str("tsm_threads", &id.tsm_threads);
        w.field_str("rustc", &id.rustc);
        w.field_str("commit", &id.commit);
        w.field_str("source", &id.source);
        w.end_object();
        w.field_u64("attempted", self.attempted);
        w.field_u64("failed", self.failed);
        w.key("steal").begin_object();
        w.field_u64("ticks", self.steal.0);
        w.field_raw("share", &num(self.steal.1));
        w.key("flagged").bool(self.steal_flagged());
        w.end_object();
        w.key("checks").begin_object();
        for (name, (pass, fail)) in &self.checks {
            w.key(name).begin_object();
            w.field_u64("passed", *pass).field_u64("failed", *fail);
            w.end_object();
        }
        w.end_object();
        w.key("metrics").begin_object();
        for (name, m) in &self.metrics {
            w.key(name).begin_object();
            w.field_raw("value", &num(m.value));
            w.field_str("unit", m.unit);
            w.field_u64("samples", m.samples as u64);
            w.key("exact").bool(m.exact);
            w.end_object();
        }
        w.end_object().end_object();
        let mut out = w.finish();
        out.push('\n');
        out
    }
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// Simulated latencies and SLO tally over a workload's fixed prefix of
/// ops, so they repeat exactly however fast the host runs.
#[derive(Debug, Default)]
pub struct Sim {
    /// Simulated latency of each completed op, cycles.
    pub latencies: Vec<u64>,
    /// Ops that met their SLO.
    pub met: u64,
    /// Ops offered; failed, shed or expired ones count as SLO misses.
    pub offered: u64,
}

impl Sim {
    /// Records the `sim_*` metrics.
    pub fn report(&self, rec: &mut Record) {
        let n = self.latencies.len();
        let p = |q| crate::stats::nearest_rank(&self.latencies, q).unwrap_or(0) as f64;
        rec.exact("sim_latency_p50_cycles", p(0.5), n);
        rec.exact("sim_latency_p99_cycles", p(0.99), n);
        rec.exact(
            "sim_slo_attainment",
            self.met as f64 / self.offered.max(1) as f64,
            self.offered as usize,
        );
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_exactly_the_reported_metrics() {
        let mut r = Record::new("w", 1, false);
        for &(name, _) in END_TO_END {
            r.host(name, 1.5, 3);
        }
        r.op(true);
        r.complete();
        let line = r.result_line();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,"));
        for &(name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\":{{\"value\":1.5,\"unit\":\"{unit}\"}}")));
        }
        assert!(!line.contains("serving."));
    }

    #[test]
    fn an_unmeasured_end_to_end_metric_fails_the_run() {
        let mut r = Record::new("w", 1, false);
        r.op(true);
        r.complete();
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert!(r
            .result_line()
            .contains("\"setup_s\":{\"value\":0,\"unit\":\"s\"}"));
    }

    #[test]
    fn a_failed_check_fails_the_op_and_the_run() {
        let mut r = Record::new("w", 1, true);
        let ok = r.check("a", true) & r.check("b", false);
        r.op(ok);
        r.complete();
        assert_eq!((r.attempted, r.failed), (1, 1));
        assert!(r.result_line().starts_with("{\"correct\":false"));
        assert_eq!(r.checks["b"], (0, 1));
    }

    /// A traced run whose set-up failed measured no `sim_*` metric: it
    /// still reports every per-layer metric and `correct: false`, and
    /// has no simulated metrics to cross-check.
    #[test]
    fn a_traced_run_with_a_failed_setup_reports_a_failure() {
        let mut r = Record::new("w", 1, true);
        r.check("setup_launches_succeed", false);
        r.op(false);
        r.complete();
        assert_eq!(r.sim_text("abc"), None);
        let line = r.result_line();
        assert!(line.starts_with("{\"correct\":false,\"attempted\":1,\"failed\":1,"));
        for &(name, _) in PER_LAYER {
            assert!(line.contains(&format!("\"{name}\":")), "{name}");
        }
        let mut ok = Record::new("w", 1, true);
        for &(name, _) in END_TO_END {
            ok.exact(name, 2.0, 1);
        }
        let text = ok.sim_text("abc").expect("sim metrics measured");
        assert!(text.starts_with("source abc\n"));
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn the_record_escapes_its_strings() {
        let r = Record::new("w", 1, false);
        let id = Identity {
            nproc: 2,
            threads: 2,
            tsm_threads: "2".into(),
            rustc: "rustc \"1\"\n\\".into(),
            commit: "none".into(),
            source: "unset".into(),
        };
        let json = r.to_json(&id);
        assert!(json.contains(r#""rustc": "rustc \"1\"\n\\""#), "{json}");
    }
}
