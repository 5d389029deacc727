//! Path-vector BGP engine over the deterministic event kernel.
//!
//! This crate implements the message-level BGP model the paper simulates
//! (§6.2), structured so the two protocol variants the paper studies —
//! R-BGP (`stamp-rbgp`) and STAMP (`stamp-core`) — reuse the same machinery
//! and run on *identical* scenarios:
//!
//! * [`types`] — prefixes, process instances (STAMP's red/blue "colours"),
//!   routes, the paper's two new path attributes (`Lock`, `ET`), R-BGP's
//!   root-cause information, and update messages;
//! * [`patharena`] — hash-consed AS-path storage: every path is interned
//!   once, routes are `Copy` handles, prepend is an O(1) child intern;
//! * [`rib`] — Adj-RIB-In storage and the BGP decision process
//!   (local-pref ↓, AS-path length ↑, lowest neighbour id), with AS-path
//!   loop rejection; the local preference comes from the routing policy
//!   the engine runs under (`stamp_policy`, default `gao-rexford`:
//!   prefer-customer and the valley-free export gate);
//! * [`router`] — the [`router::RouterLogic`] trait every protocol
//!   implements, plus [`router::BgpRouter`], the unmodified-BGP baseline;
//! * [`engine`] — the event loop: FIFO sessions with U[10 ms, 20 ms]
//!   delays, peer-based MRAI of 30 s × U[0.75, 1.0] with coalescing,
//!   link/node failure injection, message counters and convergence
//!   detection.
//!
//! Omitted BGP features (deliberately, matching the paper's model): iBGP and
//! MED (each AS is one node; the paper argues centralised intra-AS routing
//! sidesteps iBGP issues), route reflection, communities, prefix
//! aggregation, and KEEPALIVE/OPEN session management (sessions exist iff
//! the underlying link is up).

#![forbid(unsafe_code)]

pub mod engine;
pub mod patharena;
pub mod rib;
pub mod router;
pub mod types;

pub use engine::{Engine, EngineConfig, RunStats, ScenarioEvent, ViewVersions};
pub use patharena::{PathArena, PathId};
pub use rib::{DecisionOutcome, RibEntry, RibIn};
pub use router::{BgpRouter, OutMsg, RouterCtx, RouterLogic};
pub use types::{
    Color, EventType, PathAttrs, PrefixId, ProcId, RootCause, Route, UpdateKind, UpdateMsg,
};

/// Conformance pin for the paper's two standing routing policies (§2.1):
/// a [`RouterCtx::new`] context — the one every router gets unless the
/// engine is configured otherwise — must keep answering with
/// prefer-customer local preference and the valley-free export gate.
#[cfg(test)]
mod policy {
    mod tests {
        use crate::router::SessionView;
        use crate::{PathArena, PrefixId, Route, RouterCtx};
        use stamp_topology::{AsGraph, AsId, GraphBuilder, Relation};

        struct AllUp;
        impl SessionView for AllUp {
            fn session_up(&self, _a: AsId, _b: AsId) -> bool {
                true
            }
        }

        /// 1 is a customer of 0.
        fn g() -> AsGraph {
            let mut b = GraphBuilder::new();
            b.preregister(2);
            b.customer_of(1, 0).unwrap();
            b.build().unwrap()
        }

        /// Local preference the default context stores for a route learned
        /// over `rel`.
        fn local_pref(rel: Relation) -> u32 {
            let g = g();
            let mut a = PathArena::new();
            let route = Route::originate(&mut a, AsId(1));
            let ctx = RouterCtx::new(AsId(0), &g, &AllUp, &mut a);
            let (_, pref) = ctx
                .import(PrefixId(0), route, rel)
                .expect("the default regime rejects nothing");
            pref
        }

        fn origin_pref() -> u32 {
            let g = g();
            let mut a = PathArena::new();
            RouterCtx::new(AsId(0), &g, &AllUp, &mut a)
                .policy
                .origin_pref()
        }

        fn export_ok(learned_from: Option<Relation>, to: Relation) -> bool {
            let g = g();
            let mut a = PathArena::new();
            let route = Route::originate(&mut a, AsId(1));
            RouterCtx::new(AsId(0), &g, &AllUp, &mut a).export_ok(learned_from, to, &route)
        }

        #[test]
        fn prefer_customer_ordering() {
            assert!(local_pref(Relation::Customer) > local_pref(Relation::Peer));
            assert!(local_pref(Relation::Peer) > local_pref(Relation::Provider));
            assert!(origin_pref() > local_pref(Relation::Customer));
        }

        #[test]
        fn valley_free_export_matrix() {
            use Relation::*;
            // Own prefix: to everyone.
            for to in [Customer, Peer, Provider] {
                assert!(export_ok(None, to));
            }
            // Customer routes: to everyone.
            for to in [Customer, Peer, Provider] {
                assert!(export_ok(Some(Customer), to));
            }
            // Peer routes: customers only.
            assert!(export_ok(Some(Peer), Customer));
            assert!(!export_ok(Some(Peer), Peer));
            assert!(!export_ok(Some(Peer), Provider));
            // Provider routes: customers only.
            assert!(export_ok(Some(Provider), Customer));
            assert!(!export_ok(Some(Provider), Peer));
            assert!(!export_ok(Some(Provider), Provider));
        }

        #[test]
        fn exact_conventional_values() {
            assert_eq!(local_pref(Relation::Customer), 300);
            assert_eq!(local_pref(Relation::Peer), 200);
            assert_eq!(local_pref(Relation::Provider), 100);
            assert_eq!(origin_pref(), 1000);
        }
    }
}
