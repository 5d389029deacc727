//! Determinism regression tests for the arena-backed route representation
//! and the workload/campaign layer above it.
//!
//! The `PathArena` assigns ids sequentially in intern order, and intern
//! order is fixed by the deterministic event schedule — so equal seeds must
//! produce byte-identical metrics, run over run and regardless of how many
//! worker threads the experiment harness uses (each instance owns its
//! engines and arenas; threads only partition instances). These tests pin
//! that invariant: a scheduler or arena change that makes results depend on
//! intern timing or thread interleaving fails here first.
//!
//! The flap-train cases extend the same contract to scenario timelines:
//! sub-MRAI link flapping must quiesce to the never-flapped RIB, and a
//! campaign grid must merge byte-identically at any worker count.
//!
//! The golden tests at the bottom pin the `sim`-facade redesign as
//! *behavior-preserving*: the committed `InstanceMetrics` (every field,
//! f64s by bit pattern) and the smoke-campaign aggregate hash were
//! produced by the pre-redesign `drive_timeline`/`run_protocol_cell` path
//! and must keep coming out of the builder/probe path byte-identically.
//! The two aggregate hashes are read from `workload::goldens::GOLDENS`,
//! the one table every gate checks.

use stamp_repro::bgp::types::{PrefixId, RootCause};
use stamp_repro::eventsim::rng::tags;
use stamp_repro::eventsim::{rng_stream, DelayModel, SimDuration};
use stamp_repro::experiments::{run_failure_experiment, FailureConfig, FailureScenario, Protocol};
use stamp_repro::forwarding::{classify_all, ForwardingView, Outcome};
use stamp_repro::sim::{MetricsProbe, NullProbe, Probe, Sim, SimEvent, SnapshotCause};
use stamp_repro::topology::{generate, AsGraph, AsId, GenConfig, GraphBuilder, StaticRoutes};
use stamp_repro::workload::goldens::{self, GOLDEN_SEED};
use stamp_repro::workload::{
    adversarial_grid, destination_candidates, flap_train, run_campaign, run_protocol_cell,
    sample_canned, smoke_grid, CampaignCell, CampaignConfig, InstanceMetrics, NetEvent,
    PolicyRegime, RunOutcome, RunParams, Timeline, TimelineEvent, WatchdogConfig, PREFIX,
};

/// The full single-link-failure workload, run twice with identical
/// configuration: every per-instance metric of every protocol must match
/// exactly (f64 fields included — bitwise equality, not tolerance).
#[test]
fn single_link_failure_metrics_identical_across_runs() {
    let cfg = FailureConfig::tiny(0xD17E);
    let a = run_failure_experiment(&cfg, FailureScenario::SingleLink, &Protocol::ALL);
    let b = run_failure_experiment(&cfg, FailureScenario::SingleLink, &Protocol::ALL);
    for p in Protocol::ALL {
        assert_eq!(
            a.of(p).per_instance,
            b.of(p).per_instance,
            "{} diverged across identical runs",
            p.label()
        );
    }
}

/// A link flapping faster than MRAI (2 s period against a 30 s timer) must
/// still quiesce after the last flap, and the final RIB — next hop *and*
/// full selected AS path at every router — must be byte-identical to a run
/// that never flapped: the flap train ends with the link up, so any
/// residue (a stale MRAI pending, a lost withdrawal, a path-exploration
/// leftover) is a bug this test catches.
#[test]
fn sub_mrai_flap_train_quiesces_to_the_never_flapped_state() {
    let g = generate(&GenConfig::small(0xF1A9)).unwrap();
    let dest = destination_candidates(&g)[0];
    let p = g.providers(dest)[0];
    let params = RunParams {
        delay: DelayModel::fixed(SimDuration::from_millis(1)),
        mrai_base: SimDuration::from_secs(30),
        mrai_enabled: true,
        mrai_withdrawals: true,
        inject_delay: SimDuration::from_secs(1),
        ..RunParams::default()
    };
    let run = |flap: bool| -> Vec<(Option<AsId>, Option<Vec<AsId>>)> {
        let mut sim = Sim::on(&g)
            .originate(dest, PrefixId(0))
            .seed(0xF1A9)
            .params(params.clone())
            .build()
            .unwrap();
        sim.converge();
        if flap {
            let t = Timeline::from_events(
                "flap",
                flap_train(
                    dest,
                    p,
                    SimDuration::ZERO,
                    SimDuration::from_secs(2),
                    0.5,
                    5,
                ),
            );
            // `play` runs to quiescence (bounded by the phase deadline,
            // far beyond the last MRAI expiry) — termination itself is the
            // quiescence assertion.
            sim.play(&t, &mut NullProbe).unwrap();
        }
        let e = sim.bgp().expect("default protocol is BGP");
        g.ases()
            .map(|v| {
                let nh = e.router(v).next_hop(PrefixId(0));
                let path = e
                    .router(v)
                    .selection(PrefixId(0))
                    .path_id()
                    .map(|id| e.paths().as_vec(id));
                (nh, path)
            })
            .collect()
    };
    assert_eq!(run(true), run(false), "flap residue in the final RIB");
}

/// The same flap train as a campaign grid cell, run at 1 worker and at 4:
/// the merged cells and the aggregate hash must be byte-identical — worker
/// interleaving must never reach the metrics.
#[test]
fn flap_campaign_identical_across_worker_counts() {
    let g = generate(&GenConfig::small(0xF1A9)).unwrap();
    let dests: Vec<AsId> = destination_candidates(&g).into_iter().take(3).collect();
    let p = g.providers(dests[0])[0];
    let timelines = vec![Timeline::from_events(
        "flap",
        flap_train(
            dests[0],
            p,
            SimDuration::ZERO,
            SimDuration::from_secs(2),
            0.5,
            4,
        ),
    )];
    let mut cfg = CampaignConfig {
        params: RunParams {
            delay: DelayModel::fixed(SimDuration::from_millis(1)),
            mrai_base: SimDuration::from_secs(30),
            mrai_enabled: true,
            mrai_withdrawals: true,
            inject_delay: SimDuration::from_secs(1),
            observe_interval: SimDuration::from_millis(100),
            ..RunParams::default()
        },
        protocols: vec![Protocol::Bgp, Protocol::Stamp],
        seeds: vec![1, 2],
        threads: 1,
    };
    let serial = run_campaign(&g, &timelines, &dests, &cfg).unwrap();
    cfg.threads = 4;
    let parallel = run_campaign(&g, &timelines, &dests, &cfg).unwrap();
    assert_eq!(serial.hash, parallel.hash, "aggregate hash diverged");
    assert_eq!(serial.cells, parallel.cells, "cells diverged");
}

/// The same workload at `threads = 1` vs `threads = 2`: worker count must
/// not leak into the results (instances are partitioned, never shared).
#[test]
fn single_link_failure_metrics_identical_across_thread_counts() {
    let mut cfg = FailureConfig::tiny(0xD17E);
    cfg.threads = 1;
    let serial = run_failure_experiment(&cfg, FailureScenario::SingleLink, &Protocol::ALL);
    cfg.threads = 2;
    let parallel = run_failure_experiment(&cfg, FailureScenario::SingleLink, &Protocol::ALL);
    for p in Protocol::ALL {
        assert_eq!(
            serial.of(p).per_instance,
            parallel.of(p).per_instance,
            "{} diverged between threads=1 and threads=2",
            p.label()
        );
    }
}

// ---------------------------------------------------------------------
// Golden values: the sim facade is behavior-preserving
// ---------------------------------------------------------------------

/// One golden row: every `InstanceMetrics` field, the two f64s by bit
/// pattern.
type Golden = (usize, usize, usize, usize, u64, u64, u64, u64, usize);

fn golden_of(m: &InstanceMetrics) -> Golden {
    (
        m.affected,
        m.affected_loops,
        m.affected_blackholes,
        m.control_affected,
        m.updates_initial,
        m.updates_failure,
        m.convergence_delay_s.to_bits(),
        m.data_recovery_s.to_bits(),
        m.interned_paths,
    )
}

/// The canned Figure 2 / 3a / 3b workloads, all four protocols, pinned to
/// the exact metrics the pre-redesign `run_protocol_cell` (hand-rolled
/// `Engine::new` wiring, boxed per-observation views) produced on this
/// configuration. Any drift — a reordered observation, a changed RNG
/// stream, an extra snapshot — fails here field-by-field.
#[test]
fn canned_workload_metrics_match_pre_redesign_goldens() {
    #[rustfmt::skip]
    let golden: [(FailureScenario, [Golden; 4]); 3] = [
        (FailureScenario::SingleLink, [
            (75, 0, 75, 16, 439, 204, 0x3f689374bc6a7efa, 0x3f60624dd2f1a9fc, 52),
            (0, 0, 0, 10, 562, 268, 0x3f70624dd2f1a9fc, 0x0000000000000000, 198),
            (0, 0, 0, 0, 562, 291, 0x3f70624dd2f1a9fc, 0x0000000000000000, 200),
            (0, 0, 0, 0, 890, 813, 0x3f747bedb7281fda, 0x0000000000000000, 124),
        ]),
        (FailureScenario::TwoLinksDifferentAs, [
            (46, 46, 34, 31, 379, 613, 0x3f70635a426bb55b, 0x3f606466b1e5c0ba, 74),
            (46, 46, 30, 31, 497, 5586, 0x3f7cbddb9841aac5, 0x3f606466b1e5c0ba, 575),
            (46, 46, 4, 26, 497, 3303, 0x3f7cb46bacf74470, 0x3f689374bc6a7efa, 398),
            (37, 0, 37, 6, 794, 834, 0x3f747ae147ae147b, 0x3f606466b1e5c0ba, 101),
        ]),
        (FailureScenario::TwoLinksSameAs, [
            (21, 0, 21, 28, 427, 428, 0x3f70624dd2f1a9fc, 0x3f50624dd2f1a9fc, 64),
            (21, 0, 21, 28, 544, 2233, 0x3f748344c37e6f72, 0x3f50624dd2f1a9fc, 363),
            (21, 0, 21, 14, 544, 3119, 0x3f74898f605ab3ab, 0x3f50624dd2f1a9fc, 421),
            (21, 0, 21, 1, 792, 957, 0x3f747ae147ae147b, 0x3f50624dd2f1a9fc, 109),
        ]),
    ];

    let g = generate(&GenConfig::small(0x601D)).unwrap();
    let params = RunParams::fast();
    for (i, (scenario, rows)) in golden.iter().enumerate() {
        let mut rng = rng_stream(0x601D + i as u64, tags::WORKLOAD);
        let w = sample_canned(&g, *scenario, &mut rng).unwrap();
        let removed = w.timeline.removed_links(&g).unwrap();
        let reachable = StaticRoutes::compute(&g.without_links(&removed), w.dest).reachable_mask();
        for (p, want) in Protocol::ALL.iter().zip(rows) {
            let m = run_protocol_cell(
                &g,
                &params,
                &w.timeline,
                w.dest,
                &reachable,
                *p,
                0x5EED ^ i as u64,
            );
            assert_eq!(
                golden_of(&m),
                *want,
                "{:?} / {} drifted from golden",
                scenario,
                p
            );
        }
    }
}

/// `run_failure_experiment` end to end — topology, per-instance seeds,
/// canned sampling and the worker pool — pinned per instance for all four
/// scenarios and all four protocols at `FailureConfig::tiny`, at 1 worker
/// and at 3 (one per instance). Rows are `[protocol][instance]` in
/// `Protocol::ALL` order; every run must end `Converged`.
#[test]
fn failure_experiment_instances_match_goldens_at_any_worker_count() {
    #[rustfmt::skip]
    let golden: [(FailureScenario, [[Golden; 3]; 4]); 4] = [
        (FailureScenario::SingleLink, [
            [
                (0, 0, 0, 8, 597, 131, 0x3f689374bc6a7efa, 0x0000000000000000, 60),
                (0, 0, 0, 5, 367, 248, 0x3f68958d9b5e95b8, 0x0000000000000000, 50),
                (172, 167, 172, 161, 554, 1061, 0x3f747cfa26a22b39, 0x3f747ae147ae147b, 112),
            ],
            [
                (0, 0, 0, 8, 732, 228, 0x3f689374bc6a7efa, 0x0000000000000000, 231),
                (0, 0, 0, 5, 487, 334, 0x3f70635a426bb55b, 0x0000000000000000, 202),
                (170, 167, 3, 161, 693, 1482, 0x3f7894812be48a59, 0x3f689bd8383ad9f1, 427),
            ],
            [
                (0, 0, 0, 0, 732, 212, 0x3f689374bc6a7efa, 0x0000000000000000, 230),
                (0, 0, 0, 0, 487, 349, 0x3f70635a426bb55b, 0x0000000000000000, 219),
                (2, 0, 2, 2, 693, 732, 0x3f747ae147ae147b, 0x3f50624dd2f1a9fc, 245),
            ],
            [
                (82, 82, 0, 0, 776, 1292, 0x3f747bedb7281fda, 0x3f60624dd2f1a9fc, 133),
                (0, 0, 0, 0, 741, 856, 0x3f747ae147ae147b, 0x0000000000000000, 96),
                (0, 0, 0, 0, 761, 1115, 0x3f747cfa26a22b39, 0x0000000000000000, 123),
            ],
        ]),
        (FailureScenario::TwoLinksDifferentAs, [
            [
                (0, 0, 0, 33, 597, 279, 0x3f68958d9b5e95b8, 0x0000000000000000, 66),
                (4, 4, 3, 3, 458, 1360, 0x3f7cae21101b0037, 0x3f50624dd2f1a9fc, 169),
                (167, 155, 167, 155, 554, 1101, 0x3f747cfa26a22b39, 0x3f747ae147ae147b, 112),
            ],
            [
                (0, 0, 0, 33, 732, 398, 0x3f70635a426bb55b, 0x0000000000000000, 249),
                (4, 4, 3, 3, 585, 16052, 0x3f8898b2e9ccb7d4, 0x3f50624dd2f1a9fc, 1724),
                (158, 155, 3, 155, 693, 1571, 0x3f7894812be48a59, 0x3f689bd8383ad9f1, 427),
            ],
            [
                (0, 0, 0, 25, 732, 379, 0x3f70635a426bb55b, 0x0000000000000000, 245),
                (4, 4, 0, 1, 585, 1978, 0x3f847b677f6b1a2a, 0x0000000000000000, 336),
                (2, 0, 2, 2, 693, 674, 0x3f747ae147ae147b, 0x3f50667f90d9d777, 244),
            ],
            [
                (0, 0, 0, 0, 776, 1410, 0x3f789374bc6a7efa, 0x0000000000000000, 137),
                (5, 0, 5, 0, 747, 1483, 0x3f7cad14a0a0f4d8, 0x3f50624dd2f1a9fc, 199),
                (0, 0, 0, 0, 761, 1213, 0x3f747cfa26a22b39, 0x0000000000000000, 125),
            ],
        ]),
        (FailureScenario::TwoLinksSameAs, [
            [
                (82, 0, 82, 22, 507, 243, 0x3f747ae147ae147b, 0x3f70624dd2f1a9fc, 49),
                (14, 0, 14, 4, 408, 49, 0x3f606466b1e5c0ba, 0x0000000000000000, 41),
                (172, 166, 172, 161, 554, 1062, 0x3f747cfa26a22b39, 0x3f747ae147ae147b, 113),
            ],
            [
                (2, 0, 2, 10, 674, 353, 0x3f789374bc6a7efa, 0x3f70624dd2f1a9fc, 217),
                (0, 0, 0, 4, 533, 82, 0x3f68958d9b5e95b8, 0x0000000000000000, 169),
                (169, 166, 3, 161, 693, 1500, 0x3f7894812be48a59, 0x3f6899bf5946c333, 425),
            ],
            [
                (3, 0, 3, 3, 674, 348, 0x3f789374bc6a7efa, 0x3f70635a426bb55b, 208),
                (0, 0, 0, 0, 533, 89, 0x3f68958d9b5e95b8, 0x0000000000000000, 169),
                (18, 0, 18, 61, 693, 992, 0x3f747cfa26a22b39, 0x3f68958d9b5e95b8, 291),
            ],
            [
                (0, 0, 0, 0, 841, 479, 0x3f747bedb7281fda, 0x0000000000000000, 80),
                (14, 0, 14, 0, 950, 743, 0x3f78958d9b5e95b8, 0x0000000000000000, 121),
                (0, 0, 0, 0, 761, 1155, 0x3f747cfa26a22b39, 0x0000000000000000, 128),
            ],
        ]),
        (FailureScenario::NodeFailure, [
            [
                (0, 0, 0, 12, 597, 65, 0x3f60624dd2f1a9fc, 0x0000000000000000, 58),
                (0, 0, 0, 33, 367, 208, 0x3f70624dd2f1a9fc, 0x0000000000000000, 55),
                (167, 167, 44, 158, 554, 1011, 0x3f706466b1e5c0ba, 0x3f70624dd2f1a9fc, 110),
            ],
            [
                (0, 0, 0, 12, 732, 109, 0x3f60624dd2f1a9fc, 0x0000000000000000, 205),
                (0, 0, 0, 33, 487, 291, 0x3f70624dd2f1a9fc, 0x0000000000000000, 210),
                (167, 167, 0, 158, 693, 1340, 0x3f747bedb7281fda, 0x0000000000000000, 417),
            ],
            [
                (8, 0, 8, 8, 732, 103, 0x3f689374bc6a7efa, 0x0000000000000000, 204),
                (27, 0, 27, 27, 487, 254, 0x3f747ae147ae147b, 0x3f689374bc6a7efa, 199),
                (14, 0, 14, 14, 693, 704, 0x3f70635a426bb55b, 0x3f689374bc6a7efa, 240),
            ],
            [
                (114, 114, 4, 4, 776, 1331, 0x3f80624dd2f1a9fc, 0x3f70635a426bb55b, 153),
                (0, 0, 0, 3, 741, 911, 0x3f7cac083126e979, 0x0000000000000000, 120),
                (0, 0, 0, 0, 761, 1505, 0x3f747ae147ae147b, 0x0000000000000000, 157),
            ],
        ]),
    ];

    for (scenario, per_protocol) in &golden {
        for threads in [1, 3] {
            let mut cfg = FailureConfig::tiny(0x9E2);
            cfg.threads = threads;
            let rep = run_failure_experiment(&cfg, *scenario, &Protocol::ALL);
            assert_eq!(rep.n_ases, 200);
            for (p, want) in Protocol::ALL.iter().zip(per_protocol) {
                let got = &rep.of(*p).per_instance;
                assert_eq!(got.len(), want.len());
                for (i, (m, w)) in got.iter().zip(want).enumerate() {
                    assert_eq!(m.outcome, RunOutcome::Converged);
                    assert_eq!(
                        golden_of(m),
                        *w,
                        "{scenario:?} / {p} / instance {i} at {threads} workers drifted from golden"
                    );
                }
            }
        }
    }
}

/// The `campaign --smoke` grid (the CI gate), built by the same
/// `smoke_grid` constructor the binary uses, checked against its entry in
/// the golden table (the hash the pre-redesign path produced). The hash
/// folds in every metric of every cell, so this is a byte-identity check
/// over the whole grid — and sharing the constructor and the table means
/// the pinned hash always corresponds to the workload CI actually runs.
#[test]
fn smoke_campaign_hash_matches_pre_redesign_golden() {
    let (g, timelines, dests, cfg) = smoke_grid(GOLDEN_SEED);
    let rep = run_campaign(&g, &timelines, &dests, &cfg).unwrap();
    assert_eq!(rep.cells.len(), 10);
    goldens::check("smoke", rep.hash).unwrap_or_else(|e| panic!("{e}"));
}

// ---------------------------------------------------------------------
// Divergence as data: the watchdog's typed outcome in the campaign layer
// ---------------------------------------------------------------------

/// The adversarial grid, built by the same `adversarial_grid` constructor
/// the binary uses, checked against its golden-table entry. Hijacks,
/// leaks and the policy flip are timeline *data* — this pins their
/// injection order, RNG draws and per-protocol metrics in one number, at
/// any worker count.
#[test]
fn adversarial_campaign_hash_is_pinned_and_worker_independent() {
    let (g, timelines, dests, mut cfg) = adversarial_grid(GOLDEN_SEED);
    cfg.threads = 1;
    let serial = run_campaign(&g, &timelines, &dests, &cfg).unwrap();
    cfg.threads = 4;
    let parallel = run_campaign(&g, &timelines, &dests, &cfg).unwrap();
    assert_eq!(serial.hash, parallel.hash, "aggregate hash diverged");
    goldens::check("adversarial", serial.hash).unwrap_or_else(|e| panic!("{e}"));
}

/// A campaign grid whose cells *diverge*: the dispute-wheel gadget under
/// `naive-prefer-peer` with a tight watchdog. The grid must terminate (no
/// wedged worker), every BGP cell must carry a typed `Diverged` outcome,
/// and the aggregate hash — which folds in the divergence period and
/// churn — must be byte-identical run over run and across worker counts.
#[test]
fn diverging_cells_fold_into_the_aggregate_deterministically() {
    let mut b = GraphBuilder::new();
    b.preregister(4);
    b.peering(0, 1).unwrap();
    b.peering(1, 2).unwrap();
    b.peering(0, 2).unwrap();
    b.customer_of(3, 0).unwrap();
    b.customer_of(3, 1).unwrap();
    b.customer_of(3, 2).unwrap();
    let g = b.build().unwrap();

    let mut params = RunParams::fast();
    params.policy = PolicyRegime::by_name("naive-prefer-peer").unwrap();
    params.watchdog = WatchdogConfig {
        arm_after: SimDuration::from_secs(10),
        sample_every: SimDuration::from_secs(1),
        max_events: 10_000_000,
    };
    let timelines = vec![Timeline::from_events("noop", Vec::new())];
    let dests = vec![AsId(3)];
    let mut cfg = CampaignConfig {
        params,
        protocols: vec![Protocol::Bgp],
        seeds: vec![5, 6],
        threads: 1,
    };
    let serial = run_campaign(&g, &timelines, &dests, &cfg).unwrap();
    for cell in &serial.cells {
        for (p, m) in &cell.metrics {
            match m.outcome {
                RunOutcome::Diverged { period, churn } => {
                    assert!(period > SimDuration::ZERO);
                    assert!(churn > 0);
                }
                other => panic!("{} cell expected Diverged, got {other:?}", p.label()),
            }
        }
    }
    assert_eq!(serial.aggregate(0, Protocol::Bgp).diverged, 2);
    let again = run_campaign(&g, &timelines, &dests, &cfg).unwrap();
    assert_eq!(serial.hash, again.hash, "divergence hash not reproducible");
    cfg.threads = 4;
    let parallel = run_campaign(&g, &timelines, &dests, &cfg).unwrap();
    assert_eq!(
        serial.hash, parallel.hash,
        "divergence hash depends on worker count"
    );
}

// ---------------------------------------------------------------------
// Incremental measurement: the differential oracle
// ---------------------------------------------------------------------

/// Wraps [`MetricsProbe`] and checks, at every observation, the
/// incremental tracker against a from-scratch oracle: each AS's outcome
/// against a fresh `classify_all` of the same view, and the affected,
/// loop, blackhole and control-plane flags against a naive re-derivation
/// that visits every AS at every observation.
struct Oracle {
    inner: MetricsProbe,
    dest: AsId,
    reachable: Vec<bool>,
    causes: Vec<RootCause>,
    /// Selection paths at the first baseline snapshot.
    baseline: Option<Vec<Vec<Vec<AsId>>>>,
    affected: Vec<bool>,
    loops: Vec<bool>,
    holes: Vec<bool>,
    control: Vec<bool>,
    observations: usize,
}

impl Oracle {
    fn new(dest: AsId, reachable: Vec<bool>, causes: Vec<RootCause>) -> Oracle {
        let n = reachable.len();
        Oracle {
            inner: MetricsProbe::new(dest, reachable.clone(), causes.clone()),
            dest,
            reachable,
            causes,
            baseline: None,
            affected: vec![false; n],
            loops: vec![false; n],
            holes: vec![false; n],
            control: vec![false; n],
            observations: 0,
        }
    }
}

impl Probe for Oracle {
    fn on_event<V: ForwardingView + ?Sized>(&mut self, event: SimEvent<'_, V>) {
        let snapshot = match &event {
            SimEvent::Snapshot { cause, view, .. } => Some((*cause, *view)),
            _ => None,
        };
        self.inner.on_event(event);
        let Some((cause, view)) = snapshot else {
            return;
        };
        let n = view.n();
        if cause == SnapshotCause::Baseline {
            if self.baseline.is_none() {
                let paths = (0..n)
                    .map(|v| view.selection_paths(AsId::from_usize(v)))
                    .collect();
                self.baseline = Some(paths);
            }
            return;
        }
        self.observations += 1;
        let fresh = classify_all(view);
        let tracker = self.inner.tracker();
        let mut problems = false;
        for (i, &o) in fresh.iter().enumerate() {
            let v = AsId::from_usize(i);
            assert_eq!(tracker.outcome(v), o, "outcome of {v}");
            if v == self.dest || !self.reachable[i] {
                continue;
            }
            problems |= o != Outcome::Delivered;
            self.affected[i] |= o != Outcome::Delivered;
            self.loops[i] |= o == Outcome::Loop;
            self.holes[i] |= o == Outcome::Blackhole;
            let baseline = self
                .baseline
                .as_ref()
                .expect("a baseline precedes observations");
            let paths = view.selection_paths(v);
            if paths != baseline[i]
                && paths.iter().all(|p| {
                    self.causes
                        .iter()
                        .any(|c| c.invalidates_with_head(v, p.iter().copied()))
                })
            {
                self.control[i] = true;
            }
        }
        assert_eq!(tracker.last_observation_had_problems, problems);
        assert_eq!(tracker.affected(), &self.affected[..], "affected flags");
        assert_eq!(
            tracker.loop_count(),
            self.loops.iter().filter(|f| **f).count()
        );
        assert_eq!(
            tracker.blackhole_count(),
            self.holes.iter().filter(|f| **f).count()
        );
        if !self.causes.is_empty() {
            assert_eq!(
                tracker.control_affected(),
                &self.control[..],
                "control flags"
            );
        }
    }
}

/// Play `timeline` towards `dest` under every protocol, twice on one
/// session with one probe — fresh after convergence, then again after a
/// restore (which forces the classification cold) — with the oracle
/// checking every observation. Returns the number of observations checked.
fn check_against_oracle(
    g: &AsGraph,
    params: &RunParams,
    timeline: &Timeline,
    dest: AsId,
    seed: u64,
) -> usize {
    let removed = timeline.removed_links(g).unwrap();
    let reachable = StaticRoutes::compute(&g.without_links(&removed), dest).reachable_mask();
    let mut observations = 0;
    for p in Protocol::ALL {
        let mut sim = Sim::on(g)
            .protocol(p)
            .originate(dest, PREFIX)
            .seed(seed)
            .params(params.clone())
            .build()
            .unwrap();
        sim.converge();
        let ck = sim.checkpoint();
        let mut oracle = Oracle::new(dest, reachable.clone(), timeline.root_causes());
        for _ in 0..2 {
            sim.restore(&ck).unwrap();
            sim.reset_measurement();
            sim.play(timeline, &mut oracle).unwrap();
        }
        observations += oracle.observations;
    }
    observations
}

/// Every cell of the smoke and adversarial grids, plus an R-BGP escape
/// circuit broken by a non-adjacent failure, checked by the oracle at
/// every observation.
///
/// The escape case is the diamond (0 ==== 1 tier-1 peers, 2 under 0, 3
/// under 1, origin 4 under both): AS 2 loses its link to 4 and forwards
/// over its escape circuit 2 → 0 → 1 → 3 → 4; 1 ms later link 1–3 fails,
/// which breaks the circuit without touching any session of AS 2. No grid
/// cell drives that shape, and only it shows a classifier that misses a
/// liveness change on a pinned path. Every batch is observed so the 1 ms
/// window is seen.
#[test]
fn incremental_tracker_matches_a_fresh_classification_at_every_observation() {
    let mut observations = 0;
    for (g, timelines, dests, cfg) in [smoke_grid(GOLDEN_SEED), adversarial_grid(GOLDEN_SEED)] {
        for (t, timeline) in timelines.iter().enumerate() {
            for &dest in &dests {
                for &seed in &cfg.seeds {
                    let cell = CampaignCell {
                        timeline: t,
                        dest,
                        seed,
                    };
                    observations +=
                        check_against_oracle(&g, &cfg.params, timeline, dest, cell.engine_seed());
                }
            }
        }
    }
    assert!(
        observations > 1000,
        "only {observations} observations checked"
    );

    let mut b = GraphBuilder::new();
    b.preregister(5);
    b.peering(0, 1).unwrap();
    b.customer_of(2, 0).unwrap();
    b.customer_of(3, 1).unwrap();
    b.customer_of(4, 2).unwrap();
    b.customer_of(4, 3).unwrap();
    let diamond = b.build().unwrap();
    let escape = Timeline::from_events(
        "escape-circuit",
        vec![
            TimelineEvent {
                at: SimDuration::ZERO,
                ev: NetEvent::LinkDown(AsId(2), AsId(4)),
            },
            TimelineEvent {
                at: SimDuration::from_millis(1),
                ev: NetEvent::LinkDown(AsId(1), AsId(3)),
            },
        ],
    );
    let params = RunParams {
        observe_interval: SimDuration::ZERO,
        ..RunParams::paper()
    };
    assert!(check_against_oracle(&diamond, &params, &escape, AsId(4), 1) > 0);
}
