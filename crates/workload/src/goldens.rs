//! The grid catalogue and the golden table: which campaign grids are
//! pinned, how each one is built, and the aggregate hash it must produce.
//!
//! Every pinned aggregate hash of the workspace lives in [`GOLDENS`] and
//! nowhere else. The `campaign` binary asserts the table (`--smoke` its
//! `smoke` entry, `--check` every entry) and `tests/determinism.rs` reads
//! it, so re-pinning a golden is a one-line edit here that every gate
//! picks up. Each table name maps to one constructor through
//! [`GoldenGrid`], so a run over the table cannot skip an entry.

use crate::campaign::{
    adversarial_families, standard_families, CampaignConfig, Protocol, RunParams,
};
use crate::canned::destination_candidates;
use crate::timeline::{choose_k, Timeline};
use stamp_eventsim::rng::tags;
use stamp_eventsim::rng_stream;
use stamp_policy::PolicyRegime;
use stamp_topology::gen::{generate, GenConfig};
use stamp_topology::{AsGraph, AsId};
use std::fmt;

/// A campaign grid, whole: topology, timelines, destinations and config.
pub type Grid = (AsGraph, Vec<Timeline>, Vec<AsId>, CampaignConfig);

/// The seed every golden is pinned at (the `campaign` binary's default).
pub const GOLDEN_SEED: u64 = 0xCA4A16;

/// Every pinned aggregate hash, by grid name, at [`GOLDEN_SEED`]. The
/// `sweep/<regime>` entries are [`sweep_grid`] under each built-in regime.
pub const GOLDENS: [(&str, u64); 8] = [
    ("smoke", 0x288f67a39b590c8d),
    ("adversarial", 0xfd8467442b256d70),
    ("campaign", 0x21ce716a105a0ebe),
    ("campaign_2000", 0x817234e4f61711b4),
    ("sweep/gao-rexford", 0xb326703a963aa9ec),
    ("sweep/shortest-path", 0x800dbb531a835932),
    ("sweep/prefer-peer", 0x85e700ff012eef8f),
    ("sweep/long-path-tax", 0xbe4941aa876c1b61),
];

/// A grid whose aggregate hash is not the one [`GOLDENS`] pins for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenMismatch {
    /// The grid's table name.
    pub grid: String,
    /// The pinned hash, or `None` when the table has no entry by that name.
    pub expected: Option<u64>,
    /// The hash the run produced.
    pub got: u64,
}

impl fmt::Display for GoldenMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let want = self
            .expected
            .map_or("no golden pinned".into(), |h| format!("golden {h:#018x}"));
        write!(f, "grid {}: {want}, got {:#018x}", self.grid, self.got)
    }
}

/// Check a grid's aggregate hash against its [`GOLDENS`] entry.
pub fn check(grid: &str, got: u64) -> Result<(), GoldenMismatch> {
    let expected = GOLDENS.iter().find(|(name, _)| *name == grid).map(|e| e.1);
    if expected == Some(got) {
        Ok(())
    } else {
        Err(GoldenMismatch {
            grid: grid.to_string(),
            expected,
            got,
        })
    }
}

/// The grid behind each [`GOLDENS`] name.
#[derive(Debug, Clone, PartialEq)]
pub enum GoldenGrid {
    /// `smoke`: [`smoke_grid`].
    Smoke,
    /// `adversarial`: [`adversarial_grid`].
    Adversarial,
    /// `campaign`: [`campaign_grid`].
    Campaign,
    /// `campaign_2000`: [`scale_grid`].
    Scale,
    /// `sweep/<regime>`: [`sweep_grid`] under the regime.
    Sweep(PolicyRegime),
}

impl GoldenGrid {
    /// The grid a table name stands for; `None` for a name no constructor
    /// builds.
    pub fn from_name(name: &str) -> Option<GoldenGrid> {
        Some(match name {
            "smoke" => GoldenGrid::Smoke,
            "adversarial" => GoldenGrid::Adversarial,
            "campaign" => GoldenGrid::Campaign,
            "campaign_2000" => GoldenGrid::Scale,
            _ => GoldenGrid::Sweep(PolicyRegime::by_name(name.strip_prefix("sweep/")?)?),
        })
    }

    /// The grid's table name (the inverse of [`GoldenGrid::from_name`]).
    pub fn name(&self) -> String {
        match self {
            GoldenGrid::Smoke => "smoke".into(),
            GoldenGrid::Adversarial => "adversarial".into(),
            GoldenGrid::Campaign => "campaign".into(),
            GoldenGrid::Scale => "campaign_2000".into(),
            GoldenGrid::Sweep(regime) => format!("sweep/{}", regime.name),
        }
    }

    /// Build the grid at `seed`.
    pub fn build(&self, seed: u64) -> Grid {
        match self {
            GoldenGrid::Smoke => smoke_grid(seed),
            GoldenGrid::Adversarial => adversarial_grid(seed),
            GoldenGrid::Campaign => campaign_grid(seed),
            GoldenGrid::Scale => scale_grid(seed),
            GoldenGrid::Sweep(regime) => sweep_grid(seed, regime),
        }
    }
}

/// A grid of the five [`standard_families`]: a `GenConfig::small(seed)`
/// topology resized to `n_ases`, `n_dests` destinations and the families
/// drawn from `rng_stream(seed, tags::TIMELINE)`, `n_seeds` seed-axis
/// values `seed ^ (i << 17)`, BGP/R-BGP/STAMP under the default policy.
/// `smoke` picks fast params and smoke-scale families, otherwise paper
/// params. `None` when the topology offers no destination.
pub fn standard_grid(
    seed: u64,
    n_ases: usize,
    n_dests: usize,
    n_seeds: usize,
    smoke: bool,
) -> Option<Grid> {
    let g = generate(&GenConfig {
        n_ases,
        ..GenConfig::small(seed)
    })
    .ok()?;
    let mut rng = rng_stream(seed, tags::TIMELINE);
    let dests = choose_k(&mut rng, &destination_candidates(&g), n_dests);
    if dests.is_empty() {
        return None;
    }
    let timelines = standard_families(&g, &mut rng, &dests, smoke);
    let cfg = CampaignConfig {
        params: if smoke {
            RunParams::fast()
        } else {
            RunParams::paper()
        },
        protocols: vec![Protocol::Bgp, Protocol::Rbgp, Protocol::Stamp],
        seeds: (0..n_seeds as u64).map(|i| seed ^ (i << 17)).collect(),
        threads: 0,
    };
    Some((g, timelines, dests, cfg))
}

/// [`standard_grid`] for a catalogue shape that always has destinations.
fn catalogue_grid(seed: u64, n_ases: usize, n_dests: usize, n_seeds: usize, smoke: bool) -> Grid {
    standard_grid(seed, n_ases, n_dests, n_seeds, smoke)
        // simlint::allow(panic, "catalogue shapes are constant and always host multi-homed destinations")
        .expect("catalogue grids have destinations")
}

/// The `campaign --smoke` CI grid: 200 ASes, two destinations, the five
/// families at smoke scale, fast params, one seed.
pub fn smoke_grid(seed: u64) -> Grid {
    catalogue_grid(seed, GenConfig::small(seed).n_ases, 2, 1, true)
}

/// The adversarial grid: the topology, destinations and fast params of
/// [`smoke_grid`], running the four [`adversarial_families`] instead of
/// the physical-failure families.
pub fn adversarial_grid(seed: u64) -> Grid {
    let (g, _, dests, cfg) = smoke_grid(seed);
    // A salted stream: the adversarial draws must not depend on how many
    // draws the standard families consumed from the unsalted one.
    let mut rng = rng_stream(seed ^ 0xAD5E_ACA1, tags::TIMELINE);
    let timelines = adversarial_families(&g, &mut rng, &dests, true);
    (g, timelines, dests, cfg)
}

/// The `campaign` default grid: 500 ASes, four destinations, two seeds,
/// paper params.
pub fn campaign_grid(seed: u64) -> Grid {
    catalogue_grid(seed, 500, 4, 2, false)
}

/// The `campaign_2000` scale row: the same families at 2000 ASes on two
/// destinations and one seed, so it costs about as much as the 500-AS grid.
pub fn scale_grid(seed: u64) -> Grid {
    catalogue_grid(seed, 2000, 2, 1, false)
}

/// The policy-sweep slice of a grid: its first two destinations and first
/// seed, re-run under `regime` (the regime axis replaces the seed axis).
pub fn sweep_slice((g, timelines, mut dests, mut cfg): Grid, regime: &PolicyRegime) -> Grid {
    dests.truncate(2);
    cfg.seeds.truncate(1);
    cfg.params.policy = regime.clone();
    (g, timelines, dests, cfg)
}

/// The policy sweep's slice of [`campaign_grid`] under `regime`.
pub fn sweep_grid(seed: u64, regime: &PolicyRegime) -> Grid {
    sweep_slice(campaign_grid(seed), regime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_hash_names_the_grid_and_both_hashes() {
        let (name, want) = GOLDENS[0];
        assert_eq!(check(name, want), Ok(()));
        let err = check(name, want ^ 1).unwrap_err();
        assert_eq!(
            err,
            GoldenMismatch {
                grid: name.to_string(),
                expected: Some(want),
                got: want ^ 1,
            }
        );
        let text = err.to_string();
        assert!(text.contains(name), "{text}");
        assert!(text.contains(&format!("{want:#018x}")), "{text}");
        assert!(text.contains(&format!("{:#018x}", want ^ 1)), "{text}");
        // A grid the table does not pin is a mismatch too, never a pass.
        assert_eq!(check("sweep/unpinned", want).unwrap_err().expected, None);
    }

    #[test]
    fn table_names_are_unique() {
        for (i, (a, _)) in GOLDENS.iter().enumerate() {
            for (b, _) in &GOLDENS[i + 1..] {
                assert_ne!(a, b, "duplicate golden name");
            }
        }
    }

    #[test]
    fn every_table_name_maps_to_a_constructor() {
        for (name, _) in GOLDENS {
            let grid = GoldenGrid::from_name(name)
                .unwrap_or_else(|| panic!("golden {name} has no grid constructor"));
            assert_eq!(grid.name(), name);
        }
        // Every built-in regime is swept, so every one needs a golden.
        for regime in PolicyRegime::builtins() {
            let name = GoldenGrid::Sweep(regime).name();
            assert!(GOLDENS.iter().any(|(n, _)| *n == name), "{name} unpinned");
        }
        assert_eq!(GoldenGrid::from_name("sweep/no-such-regime"), None);
        assert_eq!(GoldenGrid::from_name("bogus"), None);
    }
}
