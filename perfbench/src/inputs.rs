//! Workload inputs, generated from the benchmark's `--seed` only: the
//! program under test receives the topologies, timelines, destinations
//! and request lines built here, never the seed itself.

use stamp_eventsim::rng::tags;
use stamp_eventsim::{derive_seed, rng_stream, Rng};
use stamp_experiments::FailureConfig;
use stamp_topology::gen::{generate, GenConfig};
use stamp_topology::{AsGraph, AsId};
use stamp_workload::{
    choose_k, destination_candidates, standard_families, CampaignConfig, Protocol, RunParams,
    Timeline,
};

/// The protocols of the campaign grids and the query daemon.
pub const PROTOCOLS: [Protocol; 3] = [Protocol::Bgp, Protocol::Rbgp, Protocol::Stamp];

/// A campaign grid: topology, timelines, destinations and configuration.
pub struct Grid {
    pub g: AsGraph,
    pub timelines: Vec<Timeline>,
    pub dests: Vec<AsId>,
    pub cfg: CampaignConfig,
}

impl Grid {
    /// `(timeline, dest, seed)` cells per pass.
    pub fn cells(&self) -> usize {
        self.timelines.len() * self.dests.len() * self.cfg.seeds.len()
    }
}

/// The `campaign` binary's default seed: it fixes the topology,
/// destinations and timelines of the campaign grid, so every workload
/// seed runs the 500-AS default grid the binary reports.
pub const CAMPAIGN_SEED: u64 = 0xCA4A16;

/// The `fig2` binary's default seed: it fixes the Figure-2 topology.
pub const FIG2_SEED: u64 = 0xF162;

/// `campaign-warm`: the `campaign` binary's default grid — a 500-AS
/// `GenConfig::small` topology, 4 destinations and the five standard
/// families drawn from the timeline stream, 2 seeds, paper parameters,
/// BGP/R-BGP/STAMP — at one worker. The workload seed picks the values of
/// the grid's seed axis (the engines' delay, MRAI and lock-choice
/// streams); the rest is the binary's own grid, so the cost of a pass
/// does not swing with the topology drawn.
pub fn warm_grid(seed: u64) -> Grid {
    let gen = GenConfig {
        n_ases: 500,
        ..GenConfig::small(CAMPAIGN_SEED)
    };
    let g = generate(&gen).expect("the generator config is valid");
    let mut rng = rng_stream(CAMPAIGN_SEED, tags::TIMELINE);
    let dests = choose_k(&mut rng, &destination_candidates(&g), 4);
    assert!(!dests.is_empty(), "no multi-homed destination");
    let timelines = standard_families(&g, &mut rng, &dests, false);
    let cfg = CampaignConfig {
        params: RunParams::paper(),
        protocols: PROTOCOLS.to_vec(),
        seeds: (0..2).map(|i| derive_seed(seed, i)).collect(),
        threads: 1,
    };
    Grid {
        g,
        timelines,
        dests,
        cfg,
    }
}

/// Instances per `paper-fig2` experiment call.
pub const FIG2_INSTANCES: usize = 24;

/// `paper-fig2`: the `fig2` binary's configuration (its default 2000-AS
/// `GenConfig::sim_scale` topology, paper parameters) at `threads`
/// workers; the workload seed and the call number draw the failure
/// instances.
pub fn fig2_config(seed: u64, call: u64, threads: usize) -> FailureConfig {
    FailureConfig {
        seed: derive_seed(derive_seed(seed, FIG2_SEED), call),
        gen: GenConfig {
            n_ases: 2000,
            ..GenConfig::sim_scale(FIG2_SEED)
        },
        instances: FIG2_INSTANCES,
        threads,
        ..FailureConfig::default()
    }
}

/// The query daemon's default configuration, mirrored so the client can
/// address its topology: seed, topology size and destination count of
/// `stamp_queryd` run without flags.
pub const QUERYD_SEED: u64 = 0xCA4A16;
pub const QUERYD_ASES: usize = 500;
pub const QUERYD_DESTS: usize = 4;

/// The default daemon's topology and destinations, derived exactly as the
/// daemon derives them.
pub fn queryd_topology() -> (AsGraph, Vec<AsId>) {
    let gen = GenConfig {
        n_ases: QUERYD_ASES,
        ..GenConfig::small(QUERYD_SEED)
    };
    let g = generate(&gen).expect("the daemon's generator config is valid");
    let mut rng = rng_stream(QUERYD_SEED, tags::TIMELINE);
    let dests = choose_k(&mut rng, &destination_candidates(&g), QUERYD_DESTS);
    (g, dests)
}

/// The three request shapes of the query mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// `SHOW ROUTE d FROM v`: a read of the resident sessions.
    Show,
    /// A single-cell `WHATIF … PROTO p DEST d`.
    WhatIf,
    /// A `WHATIF` with neither `PROTO` nor `DEST`: every served cell.
    Fanout,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Show, Class::WhatIf, Class::Fanout];

    pub fn label(self) -> &'static str {
        match self {
            Class::Show => "show",
            Class::WhatIf => "whatif",
            Class::Fanout => "fanout",
        }
    }
}

/// One request of the mix.
#[derive(Debug, Clone)]
pub struct Req {
    pub class: Class,
    pub line: String,
}

/// A seeded request mix over the daemon's topology, stratified so every
/// block of ten requests holds exactly five `SHOW ROUTE`, four single-cell
/// `WHATIF` and one fan-out `WHATIF`, in seeded order. Each `WHATIF` asks
/// about a failure next to one of the served destinations: three times
/// in four one of its provider links fails, otherwise one of its
/// providers drains. (A random link elsewhere rarely touches a served
/// destination; such queries cost a restore and nothing else, and would
/// make the class's latency bimodal.)
pub fn request_mix(g: &AsGraph, dests: &[AsId], seed: u64, n: usize) -> Vec<Req> {
    const BLOCK: [Class; 10] = [
        Class::Show,
        Class::Show,
        Class::Show,
        Class::Show,
        Class::Show,
        Class::WhatIf,
        Class::WhatIf,
        Class::WhatIf,
        Class::WhatIf,
        Class::Fanout,
    ];
    let mut rng = rng_stream(seed, 0x09EB_3AC4);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut block = BLOCK;
        rng.shuffle(&mut block);
        for class in block.into_iter().take(n - out.len()) {
            out.push(one_request(g, dests, class, &mut rng));
        }
    }
    out
}

fn one_request(g: &AsGraph, dests: &[AsId], class: Class, rng: &mut Rng) -> Req {
    let dest = *rng.choose(dests).expect("destinations are non-empty");
    if class == Class::Show {
        let from = rng.gen_range(0..g.n());
        return Req {
            class,
            line: format!("SHOW ROUTE {} FROM {from}", dest.0),
        };
    }
    let provider = *rng
        .choose(g.providers(dest))
        .expect("destinations are multi-homed");
    let shape = if rng.gen_f64() < 0.75 {
        format!("FAIL-LINK {} {}", dest.0, provider.0)
    } else {
        format!("DRAIN-NODE {}", provider.0)
    };
    let line = if class == Class::WhatIf {
        let p = *rng.choose(&PROTOCOLS).expect("protocols are non-empty");
        let token = stamp_queryd::protocol::proto_token(p);
        format!("WHATIF {shape} PROTO {token} DEST {}", dest.0)
    } else {
        format!("WHATIF {shape}")
    };
    Req { class, line }
}
