//! Property coverage for the serving frontend: the `WorkQueue` really is
//! a total order over `(priority, deadline, insertion_seq)` under
//! arbitrary push/pop interleavings, serving results are independent
//! of batch width — identical per-request outcomes, only latency (and
//! batching) differs — and the serve accounting closes on seeded
//! adversarial traffic.

use proptest::prelude::*;
use std::sync::Arc;
use tsm_compiler::graph::{Graph, OpKind};
use tsm_core::flight::FlightConfig;
use tsm_core::runtime::{Runtime, SparePolicy};
use tsm_core::serving::{Request, RequestOutcome, ServeConfig, Server, TenantStats, WorkQueue};
use tsm_core::system::System;
use tsm_topology::TspId;
use tsm_trace::telemetry::{series, TelemetryConfig};
use tsm_trace::{names, CycleHistogram, RingSink};
use tsm_workloads::arrivals;

/// Reference model: a flat list of `(priority, deadline, seq)` keys; pop
/// removes the minimum. `Vec::swap_remove` + full scan — obviously
/// correct, nothing shared with the heap implementation.
#[derive(Default)]
struct ModelQueue {
    entries: Vec<(u8, u64, u64)>,
    next_seq: u64,
}

impl ModelQueue {
    fn push(&mut self, priority: u8, deadline: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push((priority, deadline, seq));
        seq
    }

    fn pop(&mut self) -> Option<u64> {
        let min = self.entries.iter().copied().min()?;
        self.entries.retain(|e| *e != min);
        Some(min.2)
    }
}

/// One compute-only model so statistical-mode launches stay cheap inside
/// the proptest loop.
fn tiny_model(batch: u32) -> Graph {
    let mut g = Graph::new();
    g.add(
        TspId(0),
        OpKind::Compute {
            cycles: 1_000 * batch as u64,
        },
        vec![],
    )
    .unwrap();
    g
}

fn server(cfg: ServeConfig) -> Server {
    let rt = Runtime::new(System::with_nodes(4).unwrap(), SparePolicy::PerSystem);
    let mut s = Server::new(rt, cfg);
    s.add_model(tiny_model);
    s
}

/// Classifies an outcome without its width-dependent fields.
fn kind(o: &RequestOutcome) -> &'static str {
    match o {
        RequestOutcome::Shed => "shed",
        RequestOutcome::Expired { .. } => "expired",
        RequestOutcome::Served { .. } => "served",
    }
}

proptest! {
    /// Under any interleaving of pushes and pops, the queue dequeues
    /// exactly the reference model's sorted-key order — i.e. the order is
    /// total (the unique `seq` breaks every tie) and matches
    /// `(priority, deadline, insertion_seq)`.
    #[test]
    fn work_queue_total_order_matches_reference_model(
        ops in proptest::collection::vec((0u8..4, 0u8..3, 0u64..4), 1..64)
    ) {
        let mut queue: WorkQueue<u64> = WorkQueue::new(usize::MAX);
        let mut model = ModelQueue::default();
        for (op, priority, deadline) in ops {
            if op == 3 {
                // Pops must agree at every point, not just at the end.
                prop_assert_eq!(queue.pop(), model.pop());
            } else {
                let seq = model.push(priority, deadline);
                queue.try_push(priority, deadline, 0, seq).unwrap();
            }
            prop_assert_eq!(queue.len(), model.entries.len());
        }
        // Drain: the tail must come out in the total order too.
        while let Some(got) = queue.pop() {
            prop_assert_eq!(Some(got), model.pop());
        }
        prop_assert_eq!(model.pop(), None);
    }

    /// Serving the same offered timeline at batch width 1 and width 8
    /// yields identical per-request outcomes (served vs shed, per-tenant
    /// tallies) — batching only moves latency around. And each width is
    /// bit-reproducible: rerunning the same config gives the same report.
    #[test]
    fn serving_outcomes_are_independent_of_batch_width(
        seed in 0u64..1_000,
        arrivals in proptest::collection::vec((0u64..50_000, 0u32..3, 0u8..2), 1..10)
    ) {
        let offered: Vec<Request> = arrivals
            .iter()
            .map(|&(at, tenant, priority)| Request {
                at,
                tenant,
                model: 0,
                priority,
                // Ample slack: dispatch times (and therefore expiry) are
                // legitimately width-dependent, so this width-independence
                // property holds for requests that never expire. Deadline
                // enforcement has its own coverage in the serving unit
                // tests.
                deadline_slack: 1 << 40,
            })
            .collect();
        let cfg = |max_batch| ServeConfig {
            batch_window: 2_000,
            max_batch,
            queue_capacity: 1 << 16, // ample: no timing-dependent shedding
            seed,
            ..ServeConfig::default()
        };

        let narrow = server(cfg(1)).serve(&offered).unwrap();
        let wide = server(cfg(8)).serve(&offered).unwrap();

        // Identical per-request outcomes, only latency differs.
        prop_assert_eq!(narrow.outcomes.len(), wide.outcomes.len());
        for (n, w) in narrow.outcomes.iter().zip(wide.outcomes.iter()) {
            prop_assert_eq!(kind(n), kind(w));
        }
        prop_assert_eq!(narrow.served, wide.served);
        prop_assert_eq!(narrow.shed, wide.shed);
        prop_assert_eq!(narrow.tenants.len(), wide.tenants.len());
        for (n, w) in narrow.tenants.iter().zip(wide.tenants.iter()) {
            prop_assert_eq!(n.tenant, w.tenant);
            prop_assert_eq!((n.offered, n.served, n.shed), (w.offered, w.served, w.shed));
        }
        // Width 1 never folds; width 8 never splits below demand.
        prop_assert!(narrow.batches.iter().all(|b| b.size == 1));
        prop_assert!(wide.batches.len() <= narrow.batches.len());
        prop_assert_eq!(
            wide.batches.iter().map(|b| u64::from(b.size)).sum::<u64>(),
            wide.served
        );

        // Bit-reproducibility of a whole serve run from its config.
        let again = server(cfg(8)).serve(&offered).unwrap();
        prop_assert_eq!(again, wide);
    }
}

/// Serve accounting closes on seeded adversarial traffic — a tight queue,
/// a tenant quota and deadlines tighter than a busy server can meet, with
/// every observer on. On every seed, each request is served, shed or
/// expired exactly once, and every view of the run (report totals,
/// per-tenant stats, `serve.*` metrics, batch records, telemetry SLO
/// series, attribution) counts the same requests.
#[test]
fn serve_accounting_closes_on_seeded_adversarial_traffic() {
    let (mut queue_full, mut over_quota, mut expired) = (0, 0, 0);
    for seed in 0..16u64 {
        let streams = [
            arrivals::poisson_arrivals(seed, 1.0 / 700.0, 60_000, 0, 1, 8_000),
            arrivals::poisson_arrivals(seed ^ 0xA5A5, 1.0 / 400.0, 60_000, 1, 0, 3_000),
            arrivals::poisson_arrivals(seed ^ 0x5A5A, 1.0 / 3_000.0, 60_000, 2, 1, 1 << 30),
        ];
        let offered: Vec<Request> = arrivals::merge(&streams)
            .into_iter()
            .map(|a| Request {
                at: a.at,
                tenant: a.tenant,
                model: 0,
                priority: a.priority,
                deadline_slack: a.deadline_slack,
            })
            .collect();
        let sink = Arc::new(RingSink::new(1 << 16));
        let rt = Runtime::new(System::with_nodes(4).unwrap(), SparePolicy::PerSystem)
            .with_trace_sink(sink);
        let cfg = ServeConfig {
            batch_window: 1_500,
            max_batch: 4,
            queue_capacity: 6,
            tenant_quota: 3,
            seed,
            telemetry: Some(TelemetryConfig {
                window: 8_192,
                slo_permille: 990,
            }),
            attribution: true,
            flight: Some(FlightConfig::default()),
            ..ServeConfig::default()
        };
        let mut server = Server::new(rt, cfg);
        server.add_model(tiny_model);
        let r = server.serve(&offered).unwrap();

        assert_eq!(r.offered, offered.len() as u64);
        assert_eq!(r.offered, r.served + r.shed + r.expired, "seed {seed}");
        let sum = |f: fn(&TenantStats) -> u64| r.tenants.iter().map(f).sum::<u64>();
        assert_eq!(sum(|t| t.offered), r.offered);
        assert_eq!(sum(|t| t.served), r.served);
        assert_eq!(sum(|t| t.shed), r.shed);
        assert_eq!(sum(|t| t.expired), r.expired);
        let mut merged = CycleHistogram::default();
        for t in &r.tenants {
            assert_eq!(t.shed_queue_full + t.shed_over_quota, t.shed);
            assert_eq!(t.latency.count, t.served);
            merged.merge(&t.latency);
        }
        assert_eq!(merged, r.latency, "seed {seed}");

        let m = &r.metrics;
        assert_eq!(m.counter(names::SERVE_ENQUEUED), r.offered - r.shed);
        assert_eq!(m.counter(names::SERVE_SHED), r.shed);
        assert_eq!(
            m.counter(names::SERVE_SHED_QUEUE_FULL),
            sum(|t| t.shed_queue_full)
        );
        assert_eq!(
            m.counter(names::SERVE_SHED_QUOTA),
            sum(|t| t.shed_over_quota)
        );
        assert_eq!(m.counter(names::SERVE_EXPIRED), r.expired);
        assert_eq!(m.counter(names::SERVE_SERVED), r.served);
        assert_eq!(m.counter(names::SERVE_BATCHES), r.batches.len() as u64);
        assert_eq!(
            r.batches.iter().map(|b| u64::from(b.size)).sum::<u64>(),
            r.served
        );

        let tel = r.telemetry.as_ref().unwrap();
        for t in &r.tenants {
            let total = |name| {
                tel.get(name, &format!("tenant{}", t.tenant))
                    .map_or(0, |s| s.total())
            };
            assert_eq!(
                total(series::SLO_MET) + total(series::SLO_MISSED),
                t.served + t.expired,
                "seed {seed} tenant {}",
                t.tenant
            );
        }
        assert_eq!(
            r.attribution.as_ref().unwrap().breakdowns.len() as u64,
            r.served
        );

        queue_full += sum(|t| t.shed_queue_full);
        over_quota += sum(|t| t.shed_over_quota);
        expired += r.expired;
    }
    // The traffic is adversarial enough to exercise every drop path.
    assert!(queue_full > 0 && over_quota > 0 && expired > 0);
}
