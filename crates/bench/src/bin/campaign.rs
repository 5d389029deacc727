//! `campaign`: BGP vs R-BGP vs STAMP across the scenario-timeline
//! families, on sharded `(timeline × destination × seed)` grids.
//!
//! The five families exercise dynamics the paper's one-shot figures never
//! see: a sub-MRAI link flap train, staggered two-link failures, a
//! correlated tier-2 regional outage, rolling maintenance windows over
//! providers, and random background churn. Every grid runs three times —
//! cold at one worker, cold at all cores, warm from pre-converged
//! checkpoints — asserting the byte-identical aggregate hash (the
//! determinism contract of `stamp_workload::campaign`) and reporting the
//! wall-clock speedups. Results (disruption/recovery aggregates plus
//! throughput) go to `BENCH_campaign.json`.
//!
//! Without override flags the grids are the catalogue of
//! `stamp_workload::goldens`, and at the default seed every aggregate
//! hash is asserted against its `GOLDENS` entry: `--smoke` checks the
//! smoke grid (the debug-build CI gate), `--check` every pinned grid
//! without touching the JSON (the release CI gate).

#![forbid(unsafe_code)]

use stamp_bench::{parse_args, CommonArgs};
use stamp_queryd::{proto_token, serve, QueryEngine, QuerydConfig};
use stamp_topology::{AsGraph, AsId, GenConfig};
use stamp_workload::goldens::{
    self, standard_grid, sweep_slice, GoldenGrid, Grid, GOLDENS, GOLDEN_SEED,
};
use stamp_workload::{
    populate_baselines, run_campaign, run_campaign_with_cache, worker_count, BaselineCache,
    CacheStats, CampaignReport, PolicyRegime, Protocol, Timeline,
};
use std::fmt::Write as _;
use std::time::Instant;

struct GridRun {
    report: CampaignReport,
    /// The grid's protocol axis, config order.
    protocols: Vec<Protocol>,
    wall_1: f64,
    wall_n: f64,
    /// Serial wall clock with every baseline pre-converged (cells fork
    /// from checkpoints instead of converging cold).
    wall_warm_1: f64,
    /// Wall clock of the baseline-population pass itself.
    wall_populate: f64,
    /// Workers of the parallel cold pass.
    threads_n: usize,
}

/// Run the grid cold at one worker, cold at `threads` (0 = one per core),
/// then warm (every cell forked from a pre-converged baseline) —
/// asserting the byte-identical aggregate across all three. The warm-equals-cold check
/// is the campaign-scale proof that a fork carries everything a replay
/// depends on.
fn run_grid((g, timelines, dests, cfg): &Grid, threads: usize) -> GridRun {
    let threads_n = worker_count(threads);
    let mut cfg = cfg.clone();
    cfg.threads = 1;
    let t0 = Instant::now();
    let serial = run_campaign(g, timelines, dests, &cfg).expect("timelines resolve");
    let wall_1 = t0.elapsed().as_secs_f64();

    cfg.threads = threads;
    let t0 = Instant::now();
    let parallel = run_campaign(g, timelines, dests, &cfg).expect("timelines resolve");
    let wall_n = t0.elapsed().as_secs_f64();

    assert_eq!(
        serial.hash, parallel.hash,
        "campaign aggregate diverged between 1 and {threads_n} workers"
    );

    let cache = BaselineCache::new();
    let t0 = Instant::now();
    populate_baselines(g, timelines.len(), dests, &cfg, &cache);
    let wall_populate = t0.elapsed().as_secs_f64();

    cfg.threads = 1;
    let t0 = Instant::now();
    let warm = run_campaign_with_cache(g, timelines, dests, &cfg, Some(&cache))
        .expect("timelines resolve");
    let wall_warm_1 = t0.elapsed().as_secs_f64();
    assert_eq!(
        serial.hash, warm.hash,
        "warm-start aggregate diverged from cold start"
    );

    GridRun {
        report: parallel,
        protocols: cfg.protocols,
        wall_1,
        wall_n,
        wall_warm_1,
        wall_populate,
        threads_n,
    }
}

fn print_report(run: &GridRun) {
    let rep = &run.report;
    let cells = rep.cells.len();
    println!(
        "campaign: {} ASes, {} timelines × {} cells, hash 0x{:016x}",
        rep.n_ases,
        rep.timeline_names.len(),
        cells,
        rep.hash
    );
    println!(
        "{:<20} {:<18} {:>9} {:>9} {:>12} {:>12} {:>12} {:>9}",
        "timeline",
        "protocol",
        "affected",
        "loops",
        "recovery_s",
        "converge_s",
        "updates",
        "diverged"
    );
    for (t, name) in rep.timeline_names.iter().enumerate() {
        for &p in &run.protocols {
            let a = rep.aggregate(t, p);
            println!(
                "{:<20} {:<18} {:>9.2} {:>9.2} {:>12.2} {:>12.2} {:>12.1} {:>9}",
                name,
                p.label(),
                a.affected_mean,
                a.loops_mean,
                a.data_recovery_mean_s,
                a.convergence_mean_s,
                a.updates_failure_mean,
                a.diverged
            );
        }
    }
    let tp1 = cells as f64 / run.wall_1;
    let tpn = cells as f64 / run.wall_n;
    let tpw = cells as f64 / run.wall_warm_1;
    println!(
        "wall clock: {:.2} s at 1 worker ({tp1:.2} cells/s), {:.2} s at {} workers \
         ({tpn:.2} cells/s) — speedup {:.2}×",
        run.wall_1,
        run.wall_n,
        run.threads_n,
        run.wall_1 / run.wall_n
    );
    println!(
        "warm start: {:.2} s populate + {:.2} s at 1 worker ({tpw:.2} cells/s forked \
         from checkpoints) — {:.2}× cold serial, hash identical",
        run.wall_populate,
        run.wall_warm_1,
        run.wall_1 / run.wall_warm_1
    );
}

/// One `query_throughput` measurement: a resident queryd engine on the
/// default grid's topology, fed a batch of single-cell `WHATIF` lines
/// through the in-memory serving loop (the same `serve` the daemon binary
/// wires to stdin — batch mode *is* the line protocol).
struct QueryRun {
    n_ases: usize,
    baselines: usize,
    queries: usize,
    /// Wall clock of the batch (banner to BYE).
    wall_s: f64,
    /// Wall clock of engine startup (topology + every baseline converged).
    wall_s_startup: f64,
    cache: CacheStats,
}

/// Converge a resident engine on the campaign's own grid axes, then time
/// a batch of `n_queries` what-ifs (alternating FAIL-LINK / DRAIN-NODE,
/// cycling destinations, providers and protocols, every one an explicit
/// single cell with `PROTO`/`DEST`). Every query forks from a resident
/// checkpoint — the run asserts the cache never missed.
fn run_query_throughput(
    g: &AsGraph,
    dests: &[AsId],
    protocols: &[Protocol],
    seed: u64,
    n_queries: usize,
) -> QueryRun {
    let t0 = Instant::now();
    let mut cfg = QuerydConfig::new(protocols.to_vec(), dests.to_vec());
    cfg.seed = seed;
    let engine = QueryEngine::new(g.clone(), cfg).expect("baselines converge");
    let wall_s_startup = t0.elapsed().as_secs_f64();

    let mut input = String::new();
    for i in 0..n_queries {
        let d = dests[i % dests.len()];
        let p = protocols[(i / dests.len()) % protocols.len()];
        let provs = g.providers(d);
        let pr = provs[i % provs.len()];
        if i % 2 == 0 {
            let _ = writeln!(
                input,
                "WHATIF FAIL-LINK {} {} PROTO {} DEST {}",
                d.0,
                pr.0,
                proto_token(p),
                d.0
            );
        } else {
            let _ = writeln!(
                input,
                "WHATIF DRAIN-NODE {} PROTO {} DEST {}",
                pr.0,
                proto_token(p),
                d.0
            );
        }
    }

    let t0 = Instant::now();
    let mut out = Vec::new();
    serve(&engine, input.as_bytes(), &mut out).expect("in-memory serving cannot fail");
    let wall_s = t0.elapsed().as_secs_f64();

    let text = String::from_utf8(out).expect("responses are UTF-8");
    let frames = text.lines().filter(|l| *l == "END").count();
    assert_eq!(frames, n_queries + 1, "one frame per query plus BYE");
    assert!(
        !text.contains("\nERR "),
        "a benchmark query was refused:\n{text}"
    );
    let cache = engine.cache_stats();
    assert_eq!(
        (cache.hits, cache.misses),
        (n_queries as u64, 0),
        "every query must fork from a resident baseline"
    );
    QueryRun {
        n_ases: g.n(),
        baselines: dests.len() * protocols.len(),
        queries: n_queries,
        wall_s,
        wall_s_startup,
        cache,
    }
}

fn query_json(s: &mut String, key: &str, q: &QueryRun) {
    let _ = writeln!(s, "  \"{key}\": {{");
    let _ = writeln!(s, "    \"n_ases\": {},", q.n_ases);
    let _ = writeln!(s, "    \"cores\": {},", cores());
    let _ = writeln!(s, "    \"baselines\": {},", q.baselines);
    let _ = writeln!(s, "    \"queries\": {},", q.queries);
    let _ = writeln!(s, "    \"wall_s\": {:.3},", q.wall_s);
    let _ = writeln!(s, "    \"wall_s_startup\": {:.3},", q.wall_s_startup);
    let _ = writeln!(
        s,
        "    \"queries_per_s\": {:.3},",
        q.queries as f64 / q.wall_s
    );
    let _ = writeln!(s, "    \"cache_hits\": {},", q.cache.hits);
    let _ = writeln!(s, "    \"cache_misses\": {},", q.cache.misses);
    let _ = writeln!(s, "    \"cache_evictions\": {}", q.cache.evictions);
    s.push_str("  }");
}

/// One regime's slice of the policy sweep: the same grid, re-converged
/// under a different `PolicyRegime`, keyed by the regime's canonical-DSL
/// fingerprint (the value that also keys the baseline cache).
struct PolicySweepRow {
    name: String,
    cells: usize,
    fingerprint: u64,
    hash: u64,
    wall_s: f64,
    /// Grid-wide mean of affected ASes per protocol, config order.
    affected: Vec<(Protocol, f64)>,
}

impl PolicySweepRow {
    /// The row of one sweep grid's run. Distinct hashes across regimes are
    /// the evidence that the policy axis reaches every router's decision
    /// process.
    fn of(regime: &PolicyRegime, run: &GridRun) -> PolicySweepRow {
        let cells = &run.report.cells;
        let affected = run
            .protocols
            .iter()
            .map(|&p| {
                let (mut sum, mut n) = (0.0, 0usize);
                for c in cells {
                    if let Some((_, m)) = c.metrics.iter().find(|(q, _)| *q == p) {
                        sum += m.affected as f64;
                        n += 1;
                    }
                }
                (p, if n == 0 { 0.0 } else { sum / n as f64 })
            })
            .collect();
        PolicySweepRow {
            name: regime.name.clone(),
            cells: cells.len(),
            fingerprint: regime.fingerprint(),
            hash: run.report.hash,
            wall_s: run.wall_n,
            affected,
        }
    }
}

fn policy_sweep_json(s: &mut String, rows: &[PolicySweepRow]) {
    let _ = writeln!(s, "  \"policy_sweep\": {{");
    let _ = writeln!(s, "    \"cells\": {},", rows[0].cells);
    let _ = writeln!(s, "    \"cores\": {},", cores());
    s.push_str("    \"regimes\": [\n");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let affected = r
            .affected
            .iter()
            .map(|(p, a)| format!("\"{}\": {a:.3}", p.label()))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = write!(
            s,
            "      {{ \"policy\": \"{}\", \"fingerprint\": \"0x{:016x}\", \
             \"hash\": \"0x{:016x}\", \"wall_s\": {:.3}, \"affected_mean\": {{ {affected} }} }}",
            r.name, r.fingerprint, r.hash, r.wall_s
        );
    }
    s.push_str("\n    ]\n  }");
}

/// Logical CPUs of the host running the benchmark — recorded so a
/// speedup ≈ 1 row on a one-core container is legible as a machine
/// property, not a scaling regression.
fn cores() -> usize {
    worker_count(0)
}

fn json_object(s: &mut String, key: &str, run: &GridRun) {
    let rep = &run.report;
    let cells = rep.cells.len();
    let _ = writeln!(s, "  \"{key}\": {{");
    let _ = writeln!(s, "    \"n_ases\": {},", rep.n_ases);
    let _ = writeln!(s, "    \"cells\": {cells},");
    let _ = writeln!(s, "    \"hash\": \"0x{:016x}\",", rep.hash);
    let _ = writeln!(s, "    \"cores\": {},", cores());
    let _ = writeln!(s, "    \"wall_s_threads_1\": {:.3},", run.wall_1);
    let _ = writeln!(s, "    \"wall_s_threads_n\": {:.3},", run.wall_n);
    let _ = writeln!(s, "    \"wall_s_warm_1\": {:.3},", run.wall_warm_1);
    let _ = writeln!(s, "    \"wall_s_populate\": {:.3},", run.wall_populate);
    let _ = writeln!(s, "    \"threads_n\": {},", run.threads_n);
    let _ = writeln!(
        s,
        "    \"throughput_cells_per_s_1\": {:.3},",
        cells as f64 / run.wall_1
    );
    let _ = writeln!(
        s,
        "    \"throughput_cells_per_s_n\": {:.3},",
        cells as f64 / run.wall_n
    );
    let _ = writeln!(
        s,
        "    \"throughput_cells_per_s_warm_1\": {:.3},",
        cells as f64 / run.wall_warm_1
    );
    let _ = writeln!(s, "    \"speedup\": {:.3},", run.wall_1 / run.wall_n);
    let _ = writeln!(
        s,
        "    \"warm_speedup_vs_cold_1\": {:.3},",
        run.wall_1 / run.wall_warm_1
    );
    s.push_str("    \"families\": [\n");
    let mut first = true;
    for (t, name) in rep.timeline_names.iter().enumerate() {
        for &p in &run.protocols {
            let a = rep.aggregate(t, p);
            if !first {
                s.push_str(",\n");
            }
            first = false;
            let _ = write!(
                s,
                "      {{ \"timeline\": \"{name}\", \"protocol\": \"{}\", \
                 \"cells\": {}, \"affected_mean\": {:.3}, \"loops_mean\": {:.3}, \
                 \"blackholes_mean\": {:.3}, \"data_recovery_mean_s\": {:.3}, \
                 \"convergence_mean_s\": {:.3}, \"updates_failure_mean\": {:.3}, \
                 \"diverged\": {} }}",
                p.label(),
                a.cells,
                a.affected_mean,
                a.loops_mean,
                a.blackholes_mean,
                a.data_recovery_mean_s,
                a.convergence_mean_s,
                a.updates_failure_mean,
                a.diverged
            );
        }
    }
    s.push_str("\n    ]\n  }");
}

/// Write one JSON object per recorded grid (`campaign` = the primary grid;
/// `campaign_2000` = the scale row, `adversarial` the adversarial sweep,
/// `query_throughput` the resident-daemon row and `policy_sweep` one entry
/// per regime, when run).
fn write_json(
    runs: &[(String, GridRun)],
    query: Option<&QueryRun>,
    sweep: &[PolicySweepRow],
    path: &str,
) {
    let mut s = String::from("{\n");
    for (i, (key, run)) in runs.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        json_object(&mut s, key, run);
    }
    if let Some(q) = query {
        s.push_str(",\n");
        query_json(&mut s, "query_throughput", q);
    }
    if !sweep.is_empty() {
        s.push_str(",\n");
        policy_sweep_json(&mut s, sweep);
    }
    s.push_str("\n}\n");
    std::fs::write(path, s).expect("write BENCH_campaign.json");
    println!("wrote {path}");
}

/// The grid the override flags describe: [`standard_grid`] sized by
/// `--ases/--dests/--seeds`, its timelines replaced by any `--scn` files,
/// run under `--protocols` and the first `--policy` regime.
fn override_grid(args: &CommonArgs, seed: u64, regime: &PolicyRegime) -> Grid {
    let smoke = args.smoke;
    let n_ases = if smoke {
        GenConfig::small(seed).n_ases
    } else {
        args.ases.unwrap_or(500)
    };
    let n_dests = args.dests.unwrap_or(if smoke { 2 } else { 4 });
    let n_seeds = args.seeds.unwrap_or(if smoke { 1 } else { 2 });
    let Some((g, mut timelines, dests, mut cfg)) =
        standard_grid(seed, n_ases, n_dests, n_seeds, smoke)
    else {
        eprintln!(
            "campaign: no destinations (--ases {n_ases}, --dests {n_dests}) — nothing to run"
        );
        std::process::exit(2);
    };
    // Campaigns are data: `--scn` files replace the built-in families.
    if !args.scn.is_empty() {
        timelines = args
            .scn
            .iter()
            .map(|path| {
                let text =
                    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
                text.parse::<Timeline>()
                    .unwrap_or_else(|e| panic!("parse {path}: {e}"))
            })
            .collect();
    }
    if let Some(list) = &args.protocols {
        cfg.protocols = list
            .split(',')
            .map(|s| {
                s.parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                })
            })
            .collect();
    }
    cfg.params.policy = regime.clone();
    (g, timelines, dests, cfg)
}

fn main() {
    let args = parse_args(
        "campaign [--ases N] [--dests N] [--seeds N] [--seed N] [--threads N] \
         [--protocols LIST] [--policy LIST] [--scn FILE]... [--adversarial] [--smoke] \
         [--check]\n\
         Runs the scenario-timeline campaign (flap trains, staggered failures,\n\
         regional outages, maintenance drains, background churn) for BGP, R-BGP\n\
         and STAMP over (timeline × destination × seed) grids, three times each\n\
         (cold at 1 worker, cold at --threads/all, warm from checkpoints),\n\
         asserts the byte-identical aggregate hash, and writes\n\
         BENCH_campaign.json.\n\
         With no override flag (--ases, --dests, --seeds, --protocols, --scn,\n\
         a --policy other than gao-rexford) the run covers every grid of the\n\
         golden table in stamp_workload::goldens (smoke, adversarial, campaign,\n\
         campaign_2000 and the policy sweep under each built-in regime) and,\n\
         at the default --seed, exits 1 unless each hash equals its golden.\n\
         --protocols LIST: comma-separated protocols to compare (labels or\n\
         aliases: bgp, rbgp-norci, rbgp, stamp; default bgp,rbgp,stamp).\n\
         --policy LIST: comma-separated policy regimes (built-ins:\n\
         gao-rexford, shortest-path, prefer-peer, long-path-tax; default\n\
         gao-rexford). The first entry is the regime the grid runs under;\n\
         a list of several also sweeps each into a policy_sweep row.\n\
         --scn FILE (repeatable): run timelines parsed from .scn files instead\n\
         of the built-in families (see scenarios/ for samples).\n\
         --adversarial: also run the adversarial sweep (prefix hijack,\n\
         prepend hijack, route leak, policy misconfig) and record its\n\
         per-protocol blackholed/affected/diverged counts.\n\
         --smoke: the tiny fast smoke grid only (plus the adversarial grid\n\
         with --adversarial), no JSON written (the debug-build CI gate).\n\
         --check: run every grid and assertion but leave BENCH_campaign.json\n\
         untouched (the release CI golden gate).",
    );
    let seed = args.seed.unwrap_or(GOLDEN_SEED);
    let regimes: Vec<PolicyRegime> = match &args.policy {
        None => vec![PolicyRegime::gao_rexford()],
        Some(list) => list
            .split(',')
            .map(|name| {
                PolicyRegime::by_name(name.trim()).unwrap_or_else(|| {
                    let known = PolicyRegime::builtins()
                        .iter()
                        .map(|r| r.name.clone())
                        .collect::<Vec<_>>()
                        .join(", ");
                    eprintln!("unknown policy regime {name:?} (built-ins: {known})");
                    std::process::exit(2);
                })
            })
            .collect(),
    };
    // `--policy gao-rexford` is the default spelled out: it must not
    // change grid selection (the CI golden gate runs `--check` that way).
    let overridden = !args.scn.is_empty()
        || args.ases.is_some()
        || args.dests.is_some()
        || args.seeds.is_some()
        || args.protocols.is_some()
        || !(regimes.len() == 1 && regimes[0].is_default());
    // Goldens are pinned for the catalogue grids at the default seed only.
    let pinned = !overridden && seed == GOLDEN_SEED;

    // Which grids run: `--smoke` the smoke grid; otherwise, with no
    // override, every grid of the golden table, and with overrides the
    // override grid plus its sweep slice per regime when `--policy` names
    // several. `--adversarial` adds the adversarial grid.
    let mut kinds: Vec<GoldenGrid> = if args.smoke {
        vec![GoldenGrid::Smoke]
    } else if !overridden {
        GOLDENS
            .iter()
            .map(|(name, _)| GoldenGrid::from_name(name).expect("every golden names a grid"))
            .collect()
    } else {
        let mut kinds = vec![GoldenGrid::Campaign];
        if regimes.len() > 1 {
            kinds.extend(regimes.iter().cloned().map(GoldenGrid::Sweep));
        }
        kinds
    };
    if args.adversarial && !kinds.contains(&GoldenGrid::Adversarial) {
        kinds.push(GoldenGrid::Adversarial);
    }
    let custom = overridden.then(|| override_grid(&args, seed, &regimes[0]));
    let build = |kind: &GoldenGrid| match (kind, &custom) {
        (GoldenGrid::Smoke | GoldenGrid::Campaign, Some(grid)) => grid.clone(),
        (GoldenGrid::Sweep(regime), Some(grid)) => sweep_slice(grid.clone(), regime),
        _ => kind.build(seed),
    };

    let mut rows: Vec<(String, GridRun)> = Vec::new();
    let mut query_run = None;
    let mut sweep = Vec::new();
    for kind in &kinds {
        let grid = build(kind);
        let run = run_grid(&grid, args.threads);
        let name = kind.name();
        if pinned {
            if let Err(e) = goldens::check(&name, run.report.hash) {
                eprintln!("GOLDEN MISMATCH: {e}");
                std::process::exit(1);
            }
        }
        let cells = run.report.cells.len();
        match kind {
            GoldenGrid::Smoke => println!(
                "smoke campaign OK: {cells} cells, hash 0x{:016x} identical at 1 worker, \
                 {} workers and warm-start",
                run.report.hash, run.threads_n
            ),
            // The adversarial axis: hijacks, route leaks and a policy
            // misconfig as timeline events, recorded per protocol (STAMP's
            // blue process never sees the forged announcement, so its
            // blackhole column is the paper's robustness claim in one
            // number). The `diverged` count proves the watchdog folds
            // non-convergence into the aggregate instead of wedging the
            // sweep.
            GoldenGrid::Adversarial => {
                let diverged = run
                    .report
                    .cells
                    .iter()
                    .flat_map(|c| c.metrics.iter())
                    .filter(|(_, m)| !m.outcome.is_converged())
                    .count();
                println!(
                    "adversarial sweep OK: {cells} cells, {diverged} diverged, hash 0x{:016x} \
                     identical at 1 worker, {} workers and warm-start",
                    run.report.hash, run.threads_n
                );
                if !args.smoke {
                    print_report(&run);
                    rows.push((name, run));
                }
            }
            GoldenGrid::Campaign => {
                print_report(&run);
                // The resident-daemon row: converge the default grid's
                // cells once in a queryd engine, then stream a batch of
                // single-cell what-ifs through the serving loop. The bar:
                // answering a warm query must beat the warm campaign path
                // per cell (a query is one protocol measure; a campaign
                // cell runs all of them — a resident daemon that lost to
                // the batch runner would have no reason to exist).
                if !overridden {
                    let (g, _, dests, cfg) = &grid;
                    let q = run_query_throughput(g, dests, &cfg.protocols, seed, 120);
                    let rate = q.queries as f64 / q.wall_s;
                    let warm_rate = cells as f64 / run.wall_warm_1;
                    println!(
                        "query throughput: {} baselines converged in {:.2} s, then {} queries \
                         in {:.2} s ({rate:.2} queries/s vs {warm_rate:.2} warm cells/s)",
                        q.baselines, q.wall_s_startup, q.queries, q.wall_s
                    );
                    assert!(
                        rate >= warm_rate,
                        "resident queries ({rate:.2}/s) slower than the warm campaign path \
                         ({warm_rate:.2} cells/s)"
                    );
                    query_run = Some(q);
                }
                rows.push((name, run));
            }
            // The scale row: the same families at 2000 ASes, recording
            // whether per-cell throughput holds up at 4× topology size.
            GoldenGrid::Scale => {
                print_report(&run);
                rows.push((name, run));
            }
            GoldenGrid::Sweep(regime) => {
                let r = PolicySweepRow::of(regime, &run);
                println!(
                    "policy sweep {:<16} {cells} cells, fingerprint 0x{:016x} hash 0x{:016x} \
                     {:>7.2} s  affected mean: {}",
                    r.name,
                    r.fingerprint,
                    r.hash,
                    r.wall_s,
                    r.affected
                        .iter()
                        .map(|(p, a)| format!("{} {a:.2}", p.label()))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                sweep.push(r);
            }
        }
    }

    if pinned {
        let names: Vec<String> = kinds.iter().map(GoldenGrid::name).collect();
        println!("golden table OK: {}", names.join(", "));
    }
    if args.smoke {
        return;
    }
    if args.check {
        println!("check mode: BENCH_campaign.json left untouched");
        return;
    }
    write_json(&rows, query_run.as_ref(), &sweep, "BENCH_campaign.json");
}
