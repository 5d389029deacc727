//! Figure benches: one per paper figure/table, at reduced scale so the
//! harness can iterate. The full-scale regenerations are the subcommands
//! of the `figures` binary (`figures fig2`, …; `figures --help` lists
//! them).
//!
//! Emits `BENCH_figures.json` (median/p95 per benchmark) at the repo root
//! (gitignored — machine-dependent); override the destination with
//! `STAMP_BENCH_FIGURES_JSON`.

use stamp_bench::harness::{Harness, JsonReport};
use stamp_experiments::{
    run_failure_experiment, run_partial_deployment, run_phi_experiment, FailureConfig,
    FailureScenario, PartialConfig, PhiExperimentConfig, Protocol,
};
use stamp_topology::GenConfig;

fn small_failure_cfg(seed: u64) -> FailureConfig {
    FailureConfig {
        gen: GenConfig {
            n_ases: 300,
            ..GenConfig::small(seed)
        },
        instances: 2,
        seed,
        threads: 1,
        ..FailureConfig::default()
    }
}

fn main() {
    let h = Harness::new().sample_size(10);
    let mut report = JsonReport::new();

    let phi_cfg = PhiExperimentConfig {
        gen: GenConfig::small(1),
        with_smart: false,
        ..PhiExperimentConfig::tiny(1)
    };
    report.bench(&h, "fig1_phi_cdf", || {
        run_phi_experiment(&phi_cfg);
    });

    let cfg = small_failure_cfg(2);
    report.bench(&h, "fig2_single_link_failure", || {
        run_failure_experiment(&cfg, FailureScenario::SingleLink, &Protocol::ALL);
    });

    let cfg = small_failure_cfg(3);
    report.bench(&h, "fig3a_two_links_different_as", || {
        run_failure_experiment(&cfg, FailureScenario::TwoLinksDifferentAs, &Protocol::ALL);
    });

    let cfg = small_failure_cfg(4);
    report.bench(&h, "fig3b_two_links_same_as", || {
        run_failure_experiment(&cfg, FailureScenario::TwoLinksSameAs, &Protocol::ALL);
    });

    let cfg = small_failure_cfg(5);
    report.bench(&h, "node_failure", || {
        run_failure_experiment(&cfg, FailureScenario::NodeFailure, &Protocol::ALL);
    });

    let partial_cfg = PartialConfig::tiny(6);
    report.bench(&h, "partial_deployment", || {
        run_partial_deployment(&partial_cfg);
    });

    // The Sec. 6.3 overhead/convergence tables fall out of the same runs as
    // Figure 2, restricted to BGP vs STAMP.
    let cfg = small_failure_cfg(7);
    report.bench(&h, "overhead_convergence_tables", || {
        run_failure_experiment(
            &cfg,
            FailureScenario::SingleLink,
            &[Protocol::Bgp, Protocol::Stamp],
        );
    });

    // Default to the repo root (cargo runs benches from the crate dir).
    let path = std::env::var("STAMP_BENCH_FIGURES_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_figures.json").into()
    });
    report.write(&path).expect("write bench report");
    println!("wrote {path}");
}
