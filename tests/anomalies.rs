//! Regression pins for the two standout rows of `BENCH_campaign.json`.
//!
//! Two campaign aggregates look anomalous at first glance and are easy to
//! "fix" by accident:
//!
//! * **STAMP's 373 mean transient loops** on the 2000-AS flap-train (plain
//!   BGP: 0). STAMP's two processes re-converge independently, and during
//!   a sub-MRAI flap train the lagging colour keeps forwarding over
//!   withdrawn state — a real property of the protocol at scale, not a
//!   measurement bug.
//! * **Plain BGP's ~92 mean looping ASes** on the 500-AS maintenance
//!   drain. Rolling provider drains force path exploration through
//!   customer valleys mid-window; R-BGP and STAMP shortcut it, BGP loops.
//!
//! These tests run exactly the grid cells behind those two JSON rows
//! (the catalogue's `scale_grid` and `campaign_grid`, the same per-cell
//! seeds) and pin the aggregates bit-exactly. A scheduler, RIB or
//! measurement change that silently shifts either number fails here,
//! loudly, with the old and new values side by side — if the change is
//! intentional, re-baseline both this file and `BENCH_campaign.json` in
//! the same commit.

use stamp_repro::topology::StaticRoutes;
use stamp_repro::workload::goldens::{campaign_grid, scale_grid, GOLDEN_SEED};
use stamp_repro::workload::{run_campaign, run_protocol_cell, CampaignCell, Protocol};

/// STAMP on the 2000-AS flap train: 373 mean looping ASes across the two
/// grid cells (the `campaign_2000` scale row).
///
/// The flap train is family index 0, so running the grid with only that
/// timeline preserves every per-cell seed (`CampaignCell::engine_seed`
/// hashes the timeline *index*).
#[test]
fn stamp_flap_train_loop_anomaly_at_2000_ases() {
    let (g, timelines, dests, mut cfg) = scale_grid(GOLDEN_SEED);
    assert_eq!(timelines[0].name(), "flap-train");
    cfg.protocols = vec![Protocol::Stamp];
    cfg.threads = 1;
    let rep = run_campaign(&g, &timelines[..1], &dests, &cfg).expect("timelines resolve");
    let a = rep.aggregate(0, Protocol::Stamp);
    assert_eq!(a.cells, 2);
    assert_eq!(
        a.loops_mean, 373.0,
        "STAMP flap-train loop anomaly moved (was 373.0 mean looping ASes; \
         re-baseline BENCH_campaign.json if intentional)"
    );
    assert_eq!(
        a.affected_mean, 373.0,
        "every affected AS was affected by a loop"
    );
}

/// Plain BGP on the 500-AS maintenance drain: 91.75 mean looping ASes
/// across the eight grid cells (4 destinations × 2 seed-axis values).
///
/// The drain family is index 3, so this test recomputes each cell's seed
/// from its grid coordinates instead of slicing the timeline list (which
/// would renumber the family and change every seed).
#[test]
fn bgp_maintenance_drain_loop_anomaly_at_500_ases() {
    let (g, timelines, dests, cfg) = campaign_grid(GOLDEN_SEED);
    let tl = &timelines[3];
    assert_eq!(tl.name(), "maintenance-drain");
    let removed = tl.removed_links(&g).expect("timeline resolves");
    let g_after = g.without_links(&removed);

    let mut loops_total = 0usize;
    let mut cells = 0usize;
    for &dest in &dests {
        let reachable = StaticRoutes::compute(&g_after, dest).reachable_mask();
        for &seed in &cfg.seeds {
            let cell = CampaignCell {
                timeline: 3,
                dest,
                seed,
            };
            let m = run_protocol_cell(
                &g,
                &cfg.params,
                tl,
                dest,
                &reachable,
                Protocol::Bgp,
                cell.engine_seed(),
            );
            loops_total += m.affected_loops;
            cells += 1;
        }
    }
    assert_eq!(cells, 8);
    let loops_mean = loops_total as f64 / cells as f64;
    assert_eq!(
        loops_mean, 91.75,
        "BGP maintenance-drain loop anomaly moved (was 91.75 mean looping ASes; \
         re-baseline BENCH_campaign.json if intentional)"
    );
}
