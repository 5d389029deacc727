//! The failure experiments behind Figures 2, 3(a), 3(b) and §6.2.2.
//!
//! For each of `instances` independently sampled workloads, the four
//! protocols of the paper — BGP, R-BGP without RCI, R-BGP, STAMP — run the
//! *identical* scenario: same topology, same destination, same failed
//! links, same delay model and seeds. The workloads themselves are canned
//! timelines ([`stamp_workload::canned`]) and each instance is driven by
//! the shared cell machinery
//! ([`stamp_workload::campaign::run_protocol_cell`], a thin wrapper over
//! the `sim` facade: protocol construction is a `ProtocolSpec` registry
//! lookup, observation a `MetricsProbe`):
//!
//! 1. converge the network from cold start,
//! 2. clear measurement state (STAMP instability flags),
//! 3. play the instance's timeline (for the paper's shapes: all failures
//!    at one instant),
//! 4. observe the data plane during re-convergence (throttled to one
//!    observation per `observe_interval` of simulated time — transients
//!    shorter than the throttle can be missed, equally for all protocols),
//! 5. report the number of ASes with transient problems, message counts
//!    and convergence delay (the §6.3 metrics fall out of the same runs).
//!
//! Instances run on the workspace's one parallel runner
//! ([`stamp_workload::campaign::run_sharded`]), one task per instance.
//! They are deliberately not campaign cells: a cell re-derives its seed
//! from its grid coordinates, which would move every result, and no two
//! instances share a converged baseline a warm start could reuse.

use crate::stats;
use stamp_eventsim::rng::tags;
use stamp_eventsim::rng_stream;
use stamp_topology::gen::{generate, GenConfig};
use stamp_topology::StaticRoutes;
use stamp_workload::campaign::{run_protocol_cell, run_sharded, RunParams};
use stamp_workload::canned::sample_canned;

pub use stamp_workload::campaign::{InstanceMetrics, Protocol, PREFIX};
pub use stamp_workload::canned::FailureScenario;

/// Experiment configuration; defaults follow §6.2 where the paper is
/// explicit (delays, MRAI, 100 instances) and DESIGN.md where it is not.
#[derive(Debug, Clone)]
pub struct FailureConfig {
    /// Topology generator parameters (the RouteViews substitute).
    pub gen: GenConfig,
    /// Independent scenario instances (the paper uses 100).
    pub instances: usize,
    /// Master seed.
    pub seed: u64,
    /// Engine/measurement knobs shared by every instance (delay model,
    /// MRAI, injection guard, observation throttle, phase deadline).
    pub params: RunParams,
    /// Worker threads (0 = all available).
    pub threads: usize,
}

impl Default for FailureConfig {
    fn default() -> Self {
        FailureConfig {
            gen: GenConfig::sim_scale(0xBEEF),
            instances: 100,
            seed: 0xBEEF,
            params: RunParams::default(),
            threads: 0,
        }
    }
}

impl FailureConfig {
    /// A configuration small enough for unit/integration tests.
    pub fn tiny(seed: u64) -> FailureConfig {
        FailureConfig {
            gen: GenConfig::small(seed),
            instances: 3,
            seed,
            params: RunParams::fast(),
            threads: 0,
        }
    }
}

/// Aggregated per-protocol results.
#[derive(Debug, Clone, Default)]
pub struct ProtocolResult {
    pub per_instance: Vec<InstanceMetrics>,
}

impl ProtocolResult {
    /// Mean number of affected ASes (the bar heights of Figures 2/3).
    pub fn affected_mean(&self) -> f64 {
        stats::mean(
            &self
                .per_instance
                .iter()
                .map(|m| m.affected as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// Mean ASes that saw a transient loop.
    pub fn loops_mean(&self) -> f64 {
        stats::mean(
            &self
                .per_instance
                .iter()
                .map(|m| m.affected_loops as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// Mean ASes that saw a transient blackhole.
    pub fn blackholes_mean(&self) -> f64 {
        stats::mean(
            &self
                .per_instance
                .iter()
                .map(|m| m.affected_blackholes as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// Mean control-plane "affected in some ways" count.
    pub fn control_affected_mean(&self) -> f64 {
        stats::mean(
            &self
                .per_instance
                .iter()
                .map(|m| m.control_affected as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// Mean updates during failure re-convergence.
    pub fn updates_failure_mean(&self) -> f64 {
        stats::mean(
            &self
                .per_instance
                .iter()
                .map(|m| m.updates_failure as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// Mean updates during initial convergence.
    pub fn updates_initial_mean(&self) -> f64 {
        stats::mean(
            &self
                .per_instance
                .iter()
                .map(|m| m.updates_initial as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// Mean convergence delay in simulated seconds.
    pub fn convergence_mean_s(&self) -> f64 {
        stats::mean(
            &self
                .per_instance
                .iter()
                .map(|m| m.convergence_delay_s)
                .collect::<Vec<_>>(),
        )
    }

    /// Mean data-plane recovery delay in simulated seconds.
    pub fn data_recovery_mean_s(&self) -> f64 {
        stats::mean(
            &self
                .per_instance
                .iter()
                .map(|m| m.data_recovery_s)
                .collect::<Vec<_>>(),
        )
    }
}

/// A complete figure's worth of results.
#[derive(Debug, Clone)]
pub struct FailureReport {
    pub scenario: FailureScenario,
    pub n_ases: usize,
    pub instances: usize,
    /// `(protocol, result)` in [`Protocol::ALL`] order.
    pub results: Vec<(Protocol, ProtocolResult)>,
}

impl FailureReport {
    /// Result of one protocol.
    pub fn of(&self, p: Protocol) -> &ProtocolResult {
        &self
            .results
            .iter()
            .find(|(q, _)| *q == p)
            // simlint::allow(panic, "results holds one row per requested protocol by construction")
            .expect("protocol present")
            .1
    }
}

/// Run one instance: all requested protocols, in order, on the identical
/// workload.
fn run_instance(
    g: &stamp_topology::AsGraph,
    cfg: &FailureConfig,
    scenario: FailureScenario,
    instance: usize,
    protocols: &[Protocol],
) -> Vec<InstanceMetrics> {
    let instance_seed = cfg
        .seed
        .wrapping_add((instance as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut wl_rng = rng_stream(instance_seed, tags::WORKLOAD);
    let w = sample_canned(g, scenario, &mut wl_rng)
        // simlint::allow(panic, "the generator guarantees multi-homed hosts for every canned scenario")
        .expect("generated topologies always host the paper's scenarios");
    let removed = w
        .timeline
        .removed_links(g)
        // simlint::allow(panic, "the canned timeline was built against this same graph")
        .expect("canned timelines resolve against their own topology");
    let g_after = g.without_links(&removed);
    let reachable = StaticRoutes::compute(&g_after, w.dest).reachable_mask();

    protocols
        .iter()
        .map(|&p| {
            run_protocol_cell(
                g,
                &cfg.params,
                &w.timeline,
                w.dest,
                &reachable,
                p,
                instance_seed,
            )
        })
        .collect()
}

/// Run a full figure experiment: `instances` workloads × the protocols.
pub fn run_failure_experiment(
    cfg: &FailureConfig,
    scenario: FailureScenario,
    protocols: &[Protocol],
) -> FailureReport {
    // simlint::allow(panic, "experiment configs are validated constants")
    let g = generate(&cfg.gen).expect("valid generator config");
    let instances = run_sharded(cfg.instances, cfg.threads, |i| {
        run_instance(&g, cfg, scenario, i, protocols)
    });

    let mut results: Vec<(Protocol, ProtocolResult)> = protocols
        .iter()
        .map(|&p| (p, ProtocolResult::default()))
        .collect();
    for instance in instances {
        for ((_, row), m) in results.iter_mut().zip(instance) {
            row.per_instance.push(m);
        }
    }
    FailureReport {
        scenario,
        n_ases: g.n(),
        instances: cfg.instances,
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_experiment_runs_all_protocols() {
        let cfg = FailureConfig::tiny(7);
        let rep = run_failure_experiment(&cfg, FailureScenario::SingleLink, &Protocol::ALL);
        assert_eq!(rep.instances, 3);
        assert_eq!(rep.results.len(), 4);
        for (p, r) in &rep.results {
            assert_eq!(r.per_instance.len(), 3, "{}", p.label());
            // Every protocol eventually converges: a converged network can
            // still have seen transients, but the counts must be bounded by
            // the AS population.
            for m in &r.per_instance {
                assert!(m.affected < rep.n_ases);
                // A converged run interned at least the origination chain.
                assert!(m.interned_paths > 0, "{}", p.label());
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = FailureConfig::tiny(13);
        let a = run_failure_experiment(&cfg, FailureScenario::SingleLink, &[Protocol::Bgp]);
        let b = run_failure_experiment(&cfg, FailureScenario::SingleLink, &[Protocol::Bgp]);
        assert_eq!(
            a.of(Protocol::Bgp).per_instance,
            b.of(Protocol::Bgp).per_instance
        );
    }

    #[test]
    fn two_link_scenarios_run() {
        let cfg = FailureConfig::tiny(19);
        for s in [
            FailureScenario::TwoLinksDifferentAs,
            FailureScenario::TwoLinksSameAs,
            FailureScenario::NodeFailure,
        ] {
            let rep = run_failure_experiment(&cfg, s, &[Protocol::Bgp, Protocol::Stamp]);
            assert_eq!(rep.results.len(), 2);
        }
    }
}
