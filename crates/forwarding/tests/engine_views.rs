//! Integration tests: the per-protocol forwarding views over live engines,
//! reproducing miniature versions of the paper's Figure 2 comparison on the
//! diamond topology.
//!
//! This crate sits *below* the `stamp_workload::sim` facade (which depends
//! on it), so these are the one set of engine-driving tests that wire
//! `Engine::new` by hand — they pin the view layer's own contract; every
//! consumer above goes through `SimBuilder`.

use stamp_bgp::engine::{Engine, EngineConfig, ScenarioEvent};
use stamp_bgp::router::BgpRouter;
use stamp_bgp::types::PrefixId;
use stamp_core::{LockStrategy, StampRouter};
use stamp_eventsim::SimDuration;
use stamp_forwarding::{classify_all, BgpView, Outcome, RbgpView, StampView, TransientTracker};
use stamp_rbgp::{RbgpConfig, RbgpRouter};
use stamp_topology::{AsGraph, AsId, GraphBuilder, StaticRoutes};

const P: PrefixId = PrefixId(0);

/// The diamond:
///
/// ```text
///   0 ==== 1      tier-1 peers
///   |      |
///   2      3
///    \    /
///      4        multi-homed origin
/// ```
fn diamond() -> AsGraph {
    let mut b = GraphBuilder::new();
    b.preregister(5);
    b.peering(0, 1).unwrap();
    b.customer_of(2, 0).unwrap();
    b.customer_of(3, 1).unwrap();
    b.customer_of(4, 2).unwrap();
    b.customer_of(4, 3).unwrap();
    b.build().unwrap()
}

fn reachable_after(g: &AsGraph, dest: AsId, removed: &[stamp_topology::LinkId]) -> Vec<bool> {
    let g2 = g.without_links(removed);
    StaticRoutes::compute(&g2, dest).reachable_mask()
}

#[test]
fn bgp_view_all_delivered_after_convergence() {
    let g = diamond();
    let mut e: Engine<BgpRouter> = Engine::new(g.clone(), EngineConfig::fast(1), |v| {
        BgpRouter::new(v, if v == AsId(4) { vec![P] } else { vec![] })
    });
    e.start();
    e.run_to_quiescence(None);
    let outcomes = classify_all(&BgpView {
        engine: &e,
        prefix: P,
    });
    assert!(outcomes.iter().all(|o| *o == Outcome::Delivered));
}

#[test]
fn stamp_view_all_delivered_after_convergence() {
    let g = diamond();
    let mut e: Engine<StampRouter> = Engine::new(g.clone(), EngineConfig::fast(1), |v| {
        StampRouter::new(
            v,
            if v == AsId(4) { vec![P] } else { vec![] },
            LockStrategy::Random { seed: 1 },
        )
    });
    e.start();
    e.run_to_quiescence(None);
    let outcomes = classify_all(&StampView {
        engine: &e,
        prefix: P,
    });
    assert!(outcomes.iter().all(|o| *o == Outcome::Delivered));
}

#[test]
fn rbgp_view_all_delivered_after_convergence() {
    let g = diamond();
    let mut e: Engine<RbgpRouter> = Engine::new(g.clone(), EngineConfig::fast(1), |v| {
        RbgpRouter::new(
            v,
            if v == AsId(4) { vec![P] } else { vec![] },
            RbgpConfig::default(),
        )
    });
    e.start();
    e.run_to_quiescence(None);
    let outcomes = classify_all(&RbgpView {
        engine: &e,
        prefix: P,
    });
    assert!(outcomes.iter().all(|o| *o == Outcome::Delivered));
}

/// The miniature Figure 2: fail one of the origin's provider links under
/// realistic delays and MRAI, observe transient problems during
/// convergence, and check the paper's ordering STAMP ≤ BGP on this
/// STAMP-favourable topology.
#[test]
fn single_link_failure_stamp_not_worse_than_bgp() {
    let g = diamond();
    let dest = AsId(4);
    let failed = g.link_between(AsId(4), AsId(2)).unwrap();
    let reachable = reachable_after(&g, dest, &[failed]);

    // Plain BGP with the paper's delay/MRAI model.
    let mut bgp: Engine<BgpRouter> = Engine::new(g.clone(), EngineConfig::default(), |v| {
        BgpRouter::new(v, if v == dest { vec![P] } else { vec![] })
    });
    bgp.start();
    bgp.run_to_quiescence(None);
    let mut bgp_tracker = TransientTracker::new(dest, reachable.clone());
    bgp.inject_after(SimDuration::from_secs(5), ScenarioEvent::FailLink(failed));
    bgp.run_until_quiescent(None, |e, _t| {
        bgp_tracker.observe(&BgpView {
            engine: e,
            prefix: P,
        });
    });

    // STAMP on the identical scenario.
    let mut stamp: Engine<StampRouter> = Engine::new(g.clone(), EngineConfig::default(), |v| {
        StampRouter::new(
            v,
            if v == dest { vec![P] } else { vec![] },
            LockStrategy::Random { seed: 1 },
        )
    });
    stamp.start();
    stamp.run_to_quiescence(None);
    let mut stamp_tracker = TransientTracker::new(dest, reachable.clone());
    stamp.inject_after(SimDuration::from_secs(5), ScenarioEvent::FailLink(failed));
    stamp.run_until_quiescent(None, |e, _t| {
        stamp_tracker.observe(&StampView {
            engine: e,
            prefix: P,
        });
    });

    assert!(
        stamp_tracker.affected_count() <= bgp_tracker.affected_count(),
        "STAMP {} > BGP {}",
        stamp_tracker.affected_count(),
        bgp_tracker.affected_count()
    );
}

/// R-BGP with RCI should keep every AS connected through the failure of a
/// link when failover paths exist (the Figure 2 "R-BGP ≈ 0" bar).
#[test]
fn rbgp_rci_protects_single_link_failure() {
    let g = diamond();
    let dest = AsId(4);
    // Fail the 0–2 link: AS 0 loses its customer path but holds an
    // alternative via peer 1, and 2 keeps its customer route to 4 — the
    // interesting case is traffic from 0 and above.
    let failed = g.link_between(AsId(0), AsId(2)).unwrap();
    let reachable = reachable_after(&g, dest, &[failed]);

    let mut e: Engine<RbgpRouter> = Engine::new(g.clone(), EngineConfig::default(), |v| {
        RbgpRouter::new(
            v,
            if v == dest { vec![P] } else { vec![] },
            RbgpConfig::default(),
        )
    });
    e.start();
    e.run_to_quiescence(None);
    let mut tracker = TransientTracker::new(dest, reachable);
    e.inject_after(SimDuration::from_secs(5), ScenarioEvent::FailLink(failed));
    e.run_until_quiescent(None, |e, _t| {
        tracker.observe(&RbgpView {
            engine: e,
            prefix: P,
        });
    });
    assert_eq!(
        tracker.affected_count(),
        0,
        "R-BGP with RCI should protect the diamond"
    );
}

/// STAMP's colour switch rescues packets when the blue side dies: the AS
/// losing blue still holds a (downhill) red route and flips the packet.
#[test]
fn stamp_switch_rescues_packets_during_convergence() {
    let g = diamond();
    let dest = AsId(4);
    let mut e: Engine<StampRouter> = Engine::new(g.clone(), EngineConfig::default(), |v| {
        StampRouter::new(
            v,
            if v == dest { vec![P] } else { vec![] },
            LockStrategy::Random { seed: 1 },
        )
    });
    e.start();
    e.run_to_quiescence(None);
    let lock = e.router(dest).lock_target(P).unwrap();
    let failed = g.link_between(dest, lock).unwrap();
    let reachable = reachable_after(&g, dest, &[failed]);
    let mut tracker = TransientTracker::new(dest, reachable);
    e.inject_after(SimDuration::from_secs(5), ScenarioEvent::FailLink(failed));
    e.run_until_quiescent(None, |e, _t| {
        tracker.observe(&StampView {
            engine: e,
            prefix: P,
        });
    });
    assert_eq!(
        tracker.affected_count(),
        0,
        "the diamond gives every AS disjoint red/blue paths; no transient \
         problems expected under a single event"
    );
}

/// Node failure: the origin's lock provider dies entirely. STAMP must keep
/// at least as many ASes connected as plain BGP.
#[test]
fn node_failure_stamp_not_worse_than_bgp() {
    let g = diamond();
    let dest = AsId(4);
    let victim = AsId(2);
    let removed: Vec<_> = g
        .links()
        .iter()
        .enumerate()
        .filter(|(_, l)| l.touches(victim))
        .map(|(i, _)| stamp_topology::LinkId(i as u32))
        .collect();
    let reachable = reachable_after(&g, dest, &removed);

    let run_bgp = || {
        let mut e: Engine<BgpRouter> = Engine::new(g.clone(), EngineConfig::default(), |v| {
            BgpRouter::new(v, if v == dest { vec![P] } else { vec![] })
        });
        e.start();
        e.run_to_quiescence(None);
        let mut tr = TransientTracker::new(dest, reachable.clone());
        e.inject_after(SimDuration::from_secs(5), ScenarioEvent::FailNode(victim));
        e.run_until_quiescent(None, |e, _t| {
            tr.observe(&BgpView {
                engine: e,
                prefix: P,
            });
        });
        tr.affected_count()
    };
    let run_stamp = || {
        let mut e: Engine<StampRouter> = Engine::new(g.clone(), EngineConfig::default(), |v| {
            StampRouter::new(
                v,
                if v == dest { vec![P] } else { vec![] },
                LockStrategy::Random { seed: 1 },
            )
        });
        e.start();
        e.run_to_quiescence(None);
        let mut tr = TransientTracker::new(dest, reachable.clone());
        e.inject_after(SimDuration::from_secs(5), ScenarioEvent::FailNode(victim));
        e.run_until_quiescent(None, |e, _t| {
            tr.observe(&StampView {
                engine: e,
                prefix: P,
            });
        });
        tr.affected_count()
    };
    assert!(run_stamp() <= run_bgp());
}

/// An R-BGP escape circuit reads links far from the AS that forwards into
/// it: AS 2 loses its only route (the 2–4 link) and commits packets to
/// the failover path AS 0 advertised it, the circuit 2→0→1→3→4; a
/// millisecond later the 1–3 link dies, which breaks the circuit before
/// AS 2 hears of it (no event reaches AS 2 in between). The incremental
/// tracker must see that blackhole exactly as a fresh classification of
/// the same instant does.
#[test]
fn rbgp_escape_circuit_tracks_non_adjacent_liveness() {
    let g = diamond();
    let dest = AsId(4);
    let primary = g.link_between(AsId(2), AsId(4)).unwrap();
    let far = g.link_between(AsId(1), AsId(3)).unwrap();
    let reachable = reachable_after(&g, dest, &[primary, far]);

    let mut e: Engine<RbgpRouter> = Engine::new(g.clone(), EngineConfig::default(), |v| {
        RbgpRouter::new(
            v,
            if v == dest { vec![P] } else { vec![] },
            RbgpConfig::default(),
        )
    });
    e.start();
    e.run_to_quiescence(None);
    let mut tracker = TransientTracker::new(dest, reachable);
    e.inject_after(SimDuration::from_secs(5), ScenarioEvent::FailLink(primary));
    e.inject_after(
        SimDuration::from_secs(5) + SimDuration::from_millis(1),
        ScenarioEvent::FailLink(far),
    );
    let mut escape_drop = false;
    e.run_until_quiescent(None, |e, _t| {
        let view = RbgpView {
            engine: e,
            prefix: P,
        };
        tracker.observe(&view);
        let fresh = classify_all(&view);
        escape_drop |= fresh[2] == Outcome::Blackhole;
        for (i, o) in fresh.iter().enumerate() {
            assert_eq!(tracker.outcome(AsId::from_usize(i)), *o, "AS {i}");
        }
    });
    assert!(escape_drop, "the far failure never broke AS 2's circuit");
}
