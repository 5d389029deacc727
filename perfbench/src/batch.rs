//! The batch workloads — `campaign-warm` and `paper-fig2` — timed with
//! tracing off: repeated set-up (median reported), then whole passes
//! through the runner for the run's duration, then the output checks.

use crate::inputs::{fig2_config, warm_grid, Grid, FIG2_INSTANCES};
use crate::stats::median;
use crate::Outcome;
use stamp_experiments::{run_failure_experiment, FailureReport, FailureScenario};
use stamp_topology::gen::generate;
use stamp_workload::{
    populate_baselines, run_campaign_with_cache, BaselineCache, CampaignReport, Protocol,
};
use std::time::Instant;

/// Set-up is repeated at least this many times per run, and until
/// `SETUP_MIN_S` seconds were spent on it (at most `SETUP_MAX_REPEATS`
/// times); the median is reported. A millisecond-scale set-up thus
/// samples half a second of host state, not one burst of it.
pub const SETUP_REPEATS: usize = 3;
pub const SETUP_MIN_S: f64 = 0.5;
pub const SETUP_MAX_REPEATS: usize = 1000;

/// Fewest timed passes per run, whatever `--seconds` says.
pub const MIN_PASSES: usize = 5;

/// Run `setup` repeatedly (see `SETUP_REPEATS`); the wall times and the
/// last result.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPEATS
        || (times.iter().sum::<f64>() < SETUP_MIN_S && times.len() < SETUP_MAX_REPEATS)
    {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (times, last.expect("at least one set-up ran"))
}

/// Repeat `pass` until `seconds` have elapsed and at least `MIN_PASSES`
/// passes ran; each pass's wall time and result.
pub fn timed_passes<T>(seconds: f64, mut pass: impl FnMut() -> T) -> Vec<(f64, T)> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let r = pass();
        out.push((t0.elapsed().as_secs_f64(), r));
    }
    out
}

/// The end-to-end metrics every batch workload reports from its passes.
/// Throughput is every cell of the timed passes over their summed wall
/// time: the host's speed drifts in phases of seconds, and a median of
/// per-pass rates jumps between phases where the pooled rate averages
/// over them.
fn pass_metrics(out: &mut Outcome, setup: &[f64], passes: &[f64], cells_per_pass: usize) {
    let cells = (cells_per_pass * passes.len()) as f64;
    out.metric(
        "throughput_per_s",
        cells / passes.iter().sum::<f64>(),
        "1/s",
    );
    out.metric("latency_ms_p50", median(passes) * 1e3, "ms");
    out.metric("setup_s", median(setup), "s");
    out.note(format!(
        "{} timed passes of {cells_per_pass} cells; {} set-ups",
        passes.len(),
        setup.len()
    ));
}

/// Count every protocol cell of a campaign pass as attempted, and every
/// one that did not converge as failed (all standard families are
/// physical failures, which must converge).
fn count_cells(out: &mut Outcome, rep: &CampaignReport) {
    for c in &rep.cells {
        for (_, m) in &c.metrics {
            out.attempted += 1;
            if !m.outcome.is_converged() {
                out.failed += 1;
            }
        }
    }
}

/// One pass over `grid` at `threads` workers, warm from `cache` if given.
fn run_grid(grid: &Grid, threads: usize, cache: Option<&BaselineCache>) -> CampaignReport {
    let mut cfg = grid.cfg.clone();
    cfg.threads = threads;
    run_campaign_with_cache(&grid.g, &grid.timelines, &grid.dests, &cfg, cache)
        .expect("generated timelines resolve against their own topology")
}

/// Cross-check hashes: every timed pass agrees with the first, and so does
/// each of the `others` (label, report) passes.
fn hash_checks(out: &mut Outcome, passes: &[(f64, CampaignReport)], others: &[(&str, u64)]) {
    let h0 = passes[0].1.hash;
    let repeat_ok = passes.iter().all(|(_, r)| r.hash == h0);
    out.check("campaign hash repeats across timed passes", repeat_ok);
    for (label, h) in others {
        out.check(
            &format!("campaign hash equal: timed pass vs {label}"),
            *h == h0,
        );
    }
    out.note(format!("aggregate hash 0x{h0:016x}"));
}

/// Set-up of `campaign-warm`: the grid plus every converged baseline.
pub fn warm_setup(seed: u64) -> (Grid, BaselineCache) {
    let grid = warm_grid(seed);
    let cache = BaselineCache::new();
    populate_baselines(
        &grid.g,
        grid.timelines.len(),
        &grid.dests,
        &grid.cfg,
        &cache,
    );
    (grid, cache)
}

/// `campaign-warm`: repeated warm passes at one worker over a cache
/// populated during set-up.
pub fn campaign_warm(seed: u64, seconds: f64, nproc: usize) -> Outcome {
    let mut out = Outcome::new(1);
    let (setup, (grid, cache)) = repeat_setup(|| warm_setup(seed));
    let before = cache.stats();
    let passes = timed_passes(seconds, || run_grid(&grid, 1, Some(&cache)));
    let after = cache.stats();
    let walls: Vec<f64> = passes.iter().map(|p| p.0).collect();
    pass_metrics(&mut out, &setup, &walls, grid.cells());
    for (_, rep) in &passes {
        count_cells(&mut out, rep);
    }
    out.metric("peak_rss_mb", crate::peak_rss_mb(None), "MB");
    out.check(
        "every timed warm cell restored from the cache",
        after.misses == before.misses && after.hits > before.hits,
    );
    let hc = run_grid(&grid, nproc, None).hash;
    hash_checks(&mut out, &passes, &[("cold at nproc workers", hc)]);
    out
}

/// Count Fig-2 cells (instance × protocol) and non-converged ones.
fn count_fig2(out: &mut Outcome, rep: &FailureReport) {
    for (_, r) in &rep.results {
        for m in &r.per_instance {
            out.attempted += 1;
            if !m.outcome.is_converged() {
                out.failed += 1;
            }
        }
    }
}

/// Is every per-protocol result of two Fig-2 reports bit-identical?
fn same_fig2(a: &FailureReport, b: &FailureReport) -> bool {
    a.results.len() == b.results.len()
        && a.results.iter().zip(&b.results).all(|((p, x), (q, y))| {
            p == q
                && x.per_instance == y.per_instance
                && x.affected_mean().to_bits() == y.affected_mean().to_bits()
        })
}

/// `paper-fig2`: repeated `run_failure_experiment` calls with the `fig2`
/// binary's configuration at `nproc` workers. Call `k` draws its failure
/// instances from the `k`-th seed derived from the workload seed, so a run
/// averages over many instance sets (one set's cost swings by ±15 %).
pub fn paper_fig2(seed: u64, seconds: f64, nproc: usize) -> Outcome {
    let mut out = Outcome::new(nproc);
    let cfg_of = |k: u64| fig2_config(seed, k, nproc);
    // The experiment generates its own topology; set-up times the same
    // generation on its own.
    let gen = cfg_of(0).gen;
    let (setup, _) = repeat_setup(|| generate(&gen).expect("valid generator config"));
    let mut k = 0;
    let passes = timed_passes(seconds, || {
        k += 1;
        run_failure_experiment(&cfg_of(k - 1), FailureScenario::SingleLink, &Protocol::ALL)
    });
    let walls: Vec<f64> = passes.iter().map(|p| p.0).collect();
    pass_metrics(&mut out, &setup, &walls, FIG2_INSTANCES);
    for (_, rep) in &passes {
        count_fig2(&mut out, rep);
    }
    out.metric("peak_rss_mb", crate::peak_rss_mb(None), "MB");
    let first = &passes[0].1;
    let again = run_failure_experiment(&cfg_of(0), FailureScenario::SingleLink, &Protocol::ALL);
    out.check(
        "fig2 per-protocol results repeat exactly",
        same_fig2(first, &again),
    );
    for (p, r) in &first.results {
        out.note(format!(
            "{}: affected mean {:.3}, control mean {:.3}",
            p.label(),
            r.affected_mean(),
            r.control_affected_mean()
        ));
    }
    out
}
