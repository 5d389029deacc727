//! Declarative scenario workloads: timelines, the `.scn` DSL and the
//! sharded campaign runner.
//!
//! The paper's evaluation is a handful of one-shot failure shapes; this
//! crate is the layer that turns "a scenario" into *data* and "an
//! experiment" into a *grid*:
//!
//! * [`timeline`] — the [`Timeline`] model (timestamped [`NetEvent`]s at
//!   offsets from an injection epoch) plus reusable generators: link flap
//!   trains, staggered multi-link failures, correlated node outages within
//!   a tier or provider cone, rolling maintenance windows and random
//!   background churn — all byte-reproducible from a seed via
//!   `rng_stream(seed, tags::TIMELINE)`;
//! * [`dsl`] — the `.scn` plain-text format with a round-trip
//!   `to_string`/`parse` guarantee, so campaigns live in files, not code;
//! * [`canned`] — the paper's Figure 2/3a/3b and §6.2.2 workloads expressed
//!   as canned one-shot timelines (the figure experiments sample through
//!   these);
//! * [`campaign`] — the `(timeline × destination × seed)` grid runner:
//!   `std::thread::scope` workers each own their engines and path arenas,
//!   results merge in grid order, and the report carries an FNV-1a
//!   aggregate hash that is byte-identical at any worker count;
//! * [`goldens`] — the grid catalogue (every pinned campaign grid's
//!   constructor) and the [`goldens::GOLDENS`] table of aggregate hashes
//!   the CI gates and the determinism tests assert;
//! * [`sim`] — the unified session facade every consumer goes through:
//!   the fluent [`sim::Sim`] builder, the per-protocol
//!   [`sim::ProtocolSpec`] registry and the typed [`sim::Probe`]
//!   observation API (structured [`sim::SimEvent`]s, statically
//!   dispatched, allocation-free snapshots).
//!
//! See DESIGN.md §8 for the model, grammar and determinism argument, and
//! §9 for the sim facade.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod canned;
pub mod dsl;
pub mod goldens;
pub mod sim;
pub mod timeline;

pub use campaign::{
    adversarial_families, populate_baselines, run_campaign, run_campaign_with_cache,
    run_protocol_cell, run_protocol_cell_warm, run_sharded, standard_families, worker_count,
    Aggregate, BaselineCache, CacheStats, CampaignCell, CampaignConfig, CampaignReport, CellResult,
    InstanceMetrics, ParseProtocolError, Protocol, RunParams, PREFIX,
};
pub use canned::{destination_candidates, sample_canned, CannedWorkload, FailureScenario};
pub use dsl::{parse_scn, ScnError, ScnErrorKind};
pub use goldens::{adversarial_grid, smoke_grid};
pub use sim::{
    MetricsProbe, NullProbe, Phase, Played, Probe, ProtocolEngine, ProtocolSpec, Sim, SimBuilder,
    SimCheckpoint, SimError, SimEvent, SnapshotCause,
};
pub use stamp_bgp::engine::{RunOutcome, WatchdogConfig};
pub use stamp_policy::PolicyRegime;
pub use timeline::{
    background_churn, choose_k, correlated_node_outage, flap_train, maintenance_windows,
    node_drain, policy_flip, prefix_hijack, prepend_hijack, provider_cone, random_attacker,
    route_leak, single_link_failure, staggered_link_failures, tier_members, NetEvent, Timeline,
    TimelineError, TimelineEvent,
};
