//! The traced run (`--trace 1`): the per-layer split.
//!
//! It drives the workload's own cells stage by stage through the public
//! API — `generate`, `StaticRoutes::compute`, `Sim::on(..).build()`,
//! `converge`, `checkpoint`, `restore`, `reset_measurement` and `play`
//! under a probe that wraps `MetricsProbe` and times each `on_event` —
//! recording a span per stage. Every cell is also run untraced through
//! the same stages ending in `Sim::measure`; the two results must be
//! equal, and the wall-time ratio is the tracing overhead.
//!
//! Every traced run also measures the query layers: the request stream
//! in process (`Request::from_str`, `QueryEngine::execute`, response
//! printing and `Response::parse`), and the real daemon over loopback
//! (client latencies, lateness, banner wait and the rate ladder). Those
//! layers run on the daemon's default configuration whatever the
//! workload, so each traced run reports the full layer table.

use crate::batch::warm_setup;
use crate::inputs::{
    fig2_config, queryd_topology, request_mix, Class, Grid, Req, CAMPAIGN_SEED, PROTOCOLS,
    QUERYD_SEED,
};
use crate::queryd::{
    check_samples, client_metrics, in_process_engine, ladder, loop_requests, open_loop, request,
    Daemon, BASE_RATE,
};
use crate::trace::{self_times, Tracer};
use crate::Outcome;
use stamp_bgp::engine::RunStats;
use stamp_eventsim::rng::tags;
use stamp_eventsim::{derive_seed, rng_stream};
use stamp_experiments::{run_failure_experiment, FailureScenario};
use stamp_forwarding::ForwardingView;
use stamp_queryd::{QueryEngine, Request, Response};
use stamp_topology::gen::{generate, GenConfig};
use stamp_topology::{AsGraph, AsId, StaticRoutes};
use stamp_workload::{
    run_campaign_with_cache, sample_canned, InstanceMetrics, MetricsProbe, Probe, Protocol,
    RunParams, Sim, SimEvent, Timeline, PREFIX,
};
use std::path::Path;
use std::time::Instant;

/// One protocol cell of a workload: a timeline played against one
/// destination's converged network.
struct Cell {
    timeline: usize,
    dest: AsId,
    proto: Protocol,
    seed: u64,
    /// Index into the run's reachability vectors.
    reach: usize,
}

/// The cells of a workload and what they run on.
struct Cells {
    g: AsGraph,
    params: RunParams,
    timelines: Vec<Timeline>,
    /// Post-timeline reachability, one vector per `(timeline, dest)`.
    reachable: Vec<Vec<bool>>,
    cells: Vec<Cell>,
    /// Static-route computations one pass of the workload makes.
    static_calls_per_pass: usize,
}

/// Wraps `MetricsProbe`, timing every `on_event`: snapshot observations
/// become `probe` spans; the other events' time is summed.
struct TimedProbe<'t> {
    inner: MetricsProbe,
    tracer: &'t mut Tracer,
    snapshots: u64,
    /// Time in snapshot observations, and in every other event.
    snapshot_ns: u64,
    other_ns: u64,
}

impl Probe for TimedProbe<'_> {
    fn on_event<V: ForwardingView + ?Sized>(&mut self, event: SimEvent<'_, V>) {
        let snapshot = matches!(event, SimEvent::Snapshot { .. });
        let start = self.tracer.now_ns();
        self.inner.on_event(event);
        let end = self.tracer.now_ns();
        if snapshot {
            self.tracer.record("probe", start, end);
            self.snapshots += 1;
            self.snapshot_ns += end - start;
        } else {
            self.other_ns += end - start;
        }
    }
}

/// Per-cell stage measurements of the traced run.
#[derive(Default, Clone, Copy)]
struct Stages {
    build_ns: u64,
    converge_ns: u64,
    checkpoint_ns: u64,
    restore_ns: u64,
    reset_ns: u64,
    play_ns: u64,
    /// Index of the `play` span, and `play`'s self time less the probe's
    /// non-snapshot events: the engine's own replay time.
    play_span: usize,
    replay_self_ns: u64,
    probe_ns: u64,
    other_ns: u64,
    snapshots: u64,
    converge_events: u64,
    replay_events: u64,
    coalesced: u64,
    announcements: u64,
    dropped: u64,
    delivered: u64,
}

fn build(cells: &Cells, c: &Cell) -> Sim {
    Sim::on(&cells.g)
        .protocol(c.proto)
        .originate(c.dest, PREFIX)
        .seed(c.seed)
        .params(cells.params.clone())
        .build()
        .expect("cell destinations are in the topology")
}

/// The untraced reference: the same stages, ending in `Sim::measure`.
fn reference(cells: &Cells, c: &Cell) -> InstanceMetrics {
    let mut sim = build(cells, c);
    sim.converge();
    let ck = sim.checkpoint();
    sim.restore(&ck).expect("same-session checkpoint");
    sim.measure(&cells.timelines[c.timeline], &cells.reachable[c.reach])
        .expect("timelines resolve against their topology")
}

fn sent(s: &RunStats) -> u64 {
    s.announcements_sent + s.withdrawals_sent
}

/// One cell, traced: one span per stage, results assembled exactly as
/// `Sim::measure` assembles them.
fn traced(cells: &Cells, c: &Cell, t: &mut Tracer) -> (InstanceMetrics, Stages) {
    let mut st = Stages::default();
    let timeline = &cells.timelines[c.timeline];
    let reachable = &cells.reachable[c.reach];
    t.enter("cell");
    let (mut sim, ns) = t.span("build", || build(cells, c));
    st.build_ns = ns;
    st.converge_ns = t.span("converge", || sim.converge()).1;
    let after_converge = sim.stats();
    let (ck, ns) = t.span("checkpoint", || sim.checkpoint());
    st.checkpoint_ns = ns;
    st.restore_ns = t
        .span("restore", || {
            sim.restore(&ck).expect("same-session checkpoint")
        })
        .1;
    st.reset_ns = t.span("reset", || sim.reset_measurement()).1;
    let sent_before = sent(&sim.stats());
    let inner = MetricsProbe::new(c.dest, reachable.clone(), timeline.root_causes());
    let play = t.enter("play");
    let mut probe = TimedProbe {
        inner,
        tracer: t,
        snapshots: 0,
        snapshot_ns: 0,
        other_ns: 0,
    };
    let played = sim
        .play(timeline, &mut probe)
        .expect("timelines resolve against their topology");
    let TimedProbe {
        inner,
        snapshots,
        snapshot_ns,
        other_ns,
        ..
    } = probe;
    t.exit();
    st.play_ns = t.spans[play].dur_ns();
    st.play_span = play;
    t.exit();
    let end = sim.stats();
    let m = InstanceMetrics {
        outcome: sim.outcome(),
        affected: inner.tracker().affected_count(),
        affected_loops: inner.tracker().loop_count(),
        affected_blackholes: inner.tracker().blackhole_count(),
        control_affected: inner.tracker().control_affected_count(),
        updates_initial: sim.updates_initial(),
        updates_failure: sent(&end) - sent_before,
        convergence_delay_s: end.last_fib_change.since(played.settle).as_secs_f64(),
        data_recovery_s: inner
            .last_problem()
            .map(|at| at.since(played.settle).as_secs_f64())
            .unwrap_or(0.0),
        interned_paths: sim.interned_paths(),
    };
    st.probe_ns = snapshot_ns + other_ns;
    st.other_ns = other_ns;
    st.snapshots = snapshots;
    st.converge_events = after_converge.events;
    st.replay_events = end.events - after_converge.events;
    st.coalesced = end.coalesced;
    st.announcements = end.announcements_sent + end.coalesced;
    st.dropped = end.dropped;
    st.delivered = end.delivered;
    (m, st)
}

/// Reachability after `timeline` towards `dest`, timed as a
/// `static_routes` span.
fn reachability(g: &AsGraph, timeline: &Timeline, dest: AsId, t: &mut Tracer) -> Vec<bool> {
    t.span("static_routes", || {
        let removed = timeline
            .removed_links(g)
            .expect("timelines resolve against their topology");
        let truth = StaticRoutes::compute(&g.without_links(&removed), dest);
        (0..g.n())
            .map(|v| truth.reachable(AsId::from_usize(v)))
            .collect()
    })
    .0
}

/// The cells of a campaign grid, with one engine seed per cell derived
/// from its coordinates.
fn grid_cells(grid: Grid, t: &mut Tracer) -> Cells {
    let mut reachable = Vec::new();
    let mut cells = Vec::new();
    for (ti, tl) in grid.timelines.iter().enumerate() {
        for &dest in &grid.dests {
            reachable.push(reachability(&grid.g, tl, dest, t));
            for &axis in &grid.cfg.seeds {
                let seed = derive_seed(axis, ((ti as u64) << 32) | dest.0 as u64);
                for &proto in &grid.cfg.protocols {
                    cells.push(Cell {
                        timeline: ti,
                        dest,
                        proto,
                        seed,
                        reach: reachable.len() - 1,
                    });
                }
            }
        }
    }
    Cells {
        static_calls_per_pass: reachable.len(),
        g: grid.g,
        params: grid.cfg.params,
        timelines: grid.timelines,
        reachable,
        cells,
    }
}

/// Figure-2 cells: one sampled single-link failure per instance, all four
/// protocols.
fn fig2_cells(seed: u64, instances: usize, g: AsGraph, t: &mut Tracer) -> Cells {
    let mut timelines = Vec::new();
    let mut reachable = Vec::new();
    let mut cells = Vec::new();
    for i in 0..instances {
        let s = derive_seed(seed, i as u64);
        let mut rng = rng_stream(s, tags::WORKLOAD);
        let w = sample_canned(&g, FailureScenario::SingleLink, &mut rng)
            .expect("generated topologies host the paper's scenarios");
        reachable.push(reachability(&g, &w.timeline, w.dest, t));
        timelines.push(w.timeline);
        for proto in Protocol::ALL {
            cells.push(Cell {
                timeline: i,
                dest: w.dest,
                proto,
                seed: s,
                reach: i,
            });
        }
    }
    Cells {
        static_calls_per_pass: instances,
        g,
        params: RunParams::paper(),
        timelines,
        reachable,
        cells,
    }
}

/// The `WHATIF` cells of a request stream, fan-outs expanded to every
/// served cell, as the daemon plays them.
fn query_cells(engine: &QueryEngine, reqs: &[Req], limit: usize, t: &mut Tracer) -> Cells {
    let g = engine.topology().clone();
    let cfg = engine.config();
    let mut params = cfg.params.clone();
    params.phase_deadline = params.phase_deadline.min(cfg.query_deadline);
    let mut timelines = Vec::new();
    let mut reachable = Vec::new();
    let mut cells = Vec::new();
    for r in reqs {
        if cells.len() >= limit {
            break;
        }
        let Ok(Request::WhatIf {
            shape, proto, dest, ..
        }) = r.line.parse::<Request>()
        else {
            continue;
        };
        let tl = engine.timeline_of(&shape);
        let dests: Vec<AsId> = dest.map(|d| vec![d]).unwrap_or_else(|| cfg.dests.clone());
        let protos: Vec<Protocol> = proto
            .map(|p| vec![p])
            .unwrap_or_else(|| cfg.protocols.clone());
        for d in dests {
            reachable.push(reachability(&g, &tl, d, t));
            for &p in &protos {
                cells.push(Cell {
                    timeline: timelines.len(),
                    dest: d,
                    proto: p,
                    seed: cfg.seed,
                    reach: reachable.len() - 1,
                });
            }
        }
        timelines.push(tl);
    }
    Cells {
        static_calls_per_pass: reachable.len(),
        g,
        params,
        timelines,
        reachable,
        cells,
    }
}

/// Drive every cell both untraced and traced (alternating which goes
/// first, so warm-up favours neither); check each pair agrees; return the
/// stages and the total untraced and traced wall times.
fn drive(cells: &Cells, t: &mut Tracer, out: &mut Outcome) -> (Vec<Stages>, f64, f64) {
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut stages = Vec::with_capacity(cells.cells.len());
    let mut mismatches = 0;
    for (i, c) in cells.cells.iter().enumerate() {
        t.set_cell(i as u32);
        let mut run_reference = || {
            let t0 = Instant::now();
            let m = reference(cells, c);
            untraced_s += t0.elapsed().as_secs_f64();
            m
        };
        let want = if i % 2 == 0 {
            Some(run_reference())
        } else {
            None
        };
        let t0 = Instant::now();
        let (got, st) = traced(cells, c, t);
        traced_s += t0.elapsed().as_secs_f64();
        let want = want.unwrap_or_else(run_reference);
        out.attempted += 1;
        if !got.outcome.is_converged() {
            out.failed += 1;
        }
        if got != want {
            mismatches += 1;
        }
        stages.push(st);
    }
    // The snapshot probes are `play`'s child spans.
    let selfs = self_times(&t.spans);
    for st in &mut stages {
        st.replay_self_ns = selfs[st.play_span].saturating_sub(st.other_ns);
    }
    out.check(
        &format!(
            "traced stages equal Sim::measure on all {} cells",
            cells.cells.len()
        ),
        mismatches == 0,
    );
    (stages, untraced_s, traced_s)
}

/// The stage split per protocol (BGP, R-BGP, STAMP), per-cell means.
fn stage_metrics(out: &mut Outcome, cells: &Cells, stages: &[Stages]) {
    for p in PROTOCOLS {
        let tag = stamp_queryd::protocol::proto_token(p);
        let st: Vec<&Stages> = cells
            .cells
            .iter()
            .zip(stages)
            .filter(|(c, _)| c.proto == p)
            .map(|(_, s)| s)
            .collect();
        let n = st.len().max(1) as f64;
        let sum = |f: fn(&Stages) -> u64| st.iter().map(|s| f(s)).sum::<u64>() as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let conv_ns = sum(|s| s.converge_ns);
        let replay_ns = sum(|s| s.replay_self_ns);
        let probe_ns = sum(|s| s.probe_ns);
        let snaps = sum(|s| s.snapshots);
        let conv_ev = sum(|s| s.converge_events);
        let replay_ev = sum(|s| s.replay_events);
        out.metric(
            &format!("sim.build_us.{tag}"),
            sum(|s| s.build_ns) / n / 1e3,
            "us",
        );
        out.metric(&format!("sim.converge_ms.{tag}"), conv_ns / n / 1e6, "ms");
        out.metric(
            &format!("sim.checkpoint_us.{tag}"),
            sum(|s| s.checkpoint_ns) / n / 1e3,
            "us",
        );
        out.metric(
            &format!("sim.restore_us.{tag}"),
            sum(|s| s.restore_ns) / n / 1e3,
            "us",
        );
        out.metric(&format!("sim.replay_ms.{tag}"), replay_ns / n / 1e6, "ms");
        out.metric(
            &format!("engine.converge_events.{tag}"),
            conv_ev / n,
            "count",
        );
        out.metric(
            &format!("engine.converge_ns_per_event.{tag}"),
            ratio(conv_ns, conv_ev),
            "ns",
        );
        out.metric(
            &format!("engine.replay_events.{tag}"),
            replay_ev / n,
            "count",
        );
        out.metric(
            &format!("engine.replay_ns_per_event.{tag}"),
            ratio(replay_ns, replay_ev),
            "ns",
        );
        out.metric(
            &format!("engine.coalesced_share.{tag}"),
            ratio(sum(|s| s.coalesced), sum(|s| s.announcements)),
            "share",
        );
        out.metric(
            &format!("engine.dropped_share.{tag}"),
            ratio(sum(|s| s.dropped), sum(|s| s.dropped + s.delivered)),
            "share",
        );
        out.metric(
            &format!("forwarding.probe_ms.{tag}"),
            probe_ns / n / 1e6,
            "ms",
        );
        out.metric(&format!("forwarding.snapshots.{tag}"), snaps / n, "count");
        out.metric(
            &format!("forwarding.us_per_snapshot.{tag}"),
            ratio(probe_ns, snaps) / 1e3,
            "us",
        );
        out.metric(
            &format!("forwarding.probe_to_replay.{tag}"),
            ratio(probe_ns, replay_ns),
            "ratio",
        );
    }
}

/// Which stages a workload's own pass runs per cell (the warm paths
/// restore instead of converging).
fn work_ns(s: &Stages, warm: bool) -> u64 {
    let base = s.build_ns + s.reset_ns + s.play_ns;
    if warm {
        base + s.restore_ns
    } else {
        base + s.converge_ns
    }
}

/// The in-process query layer over `reqs`: parse, execute, print and
/// re-parse each request under spans. Returns the total request time.
fn query_layer(out: &mut Outcome, engine: &QueryEngine, reqs: &[Req], t: &mut Tracer) -> f64 {
    let mut per_class: Vec<(Class, [u64; 4])> = Vec::with_capacity(reqs.len());
    let mut bad = 0;
    let t0 = t.now_ns();
    for (i, r) in reqs.iter().enumerate() {
        t.set_cell(i as u32);
        t.enter("request");
        let (req, parse_ns) = t.span("parse", || r.line.parse::<Request>());
        let Ok(req) = req else {
            bad += 1;
            t.exit();
            continue;
        };
        let (resp, execute_ns) = t.span("execute", || engine.execute(&req));
        let (text, format_ns) = t.span("format", || resp.to_string());
        let (back, reparse_ns) = t.span("frame_parse", || Response::parse(&text));
        t.exit();
        if back.as_ref() != Ok(&resp) || matches!(resp, Response::Error { .. }) {
            bad += 1;
        }
        let ns = [parse_ns, execute_ns, format_ns, reparse_ns];
        per_class.push((r.class, ns));
    }
    let total_s = (t.now_ns() - t0) as f64 / 1e9;
    out.attempted += reqs.len() as u64;
    out.failed += bad;
    out.check(
        "in-process query stream: every request parses, succeeds and round-trips",
        bad == 0,
    );
    for class in Class::ALL {
        let rows: Vec<&[u64; 4]> = per_class
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|(_, ns)| ns)
            .collect();
        let n = rows.len().max(1) as f64;
        let mean = |k: usize| rows.iter().map(|ns| ns[k]).sum::<u64>() as f64 / n;
        let l = class.label();
        out.metric(&format!("queryd.parse_us.{l}"), mean(0) / 1e3, "us");
        out.metric(&format!("queryd.execute_ms.{l}"), mean(1) / 1e6, "ms");
        out.metric(&format!("queryd.format_us.{l}"), mean(2) / 1e3, "us");
        out.metric(&format!("client.frame_parse_us.{l}"), mean(3) / 1e3, "us");
    }
    let c = engine.cache_stats();
    out.metric(
        "queryd.cache_hit_share",
        hit_share(c.hits, c.misses),
        "share",
    );
    total_s
}

/// Share of `(hits, misses)` that hit.
fn hit_share(hits: u64, misses: u64) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}

/// The traced run of `workload`.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    nproc: usize,
    bin: &Path,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let mut t = Tracer::new();
    let threads = if workload == "campaign-warm" {
        1
    } else {
        nproc
    };
    let mut out = Outcome::new(threads);
    let (qg, qdests) = queryd_topology();
    let reqs = request_mix(&qg, &qdests, seed, loop_requests(seconds));

    // The workload's topology generation, as a span of its own.
    let gen = match workload {
        "campaign-warm" => GenConfig {
            n_ases: 500,
            ..GenConfig::small(CAMPAIGN_SEED)
        },
        "paper-fig2" => fig2_config(seed, 0, nproc).gen,
        _ => GenConfig {
            n_ases: crate::inputs::QUERYD_ASES,
            ..GenConfig::small(QUERYD_SEED)
        },
    };
    let (g, ns) = t.span("generate", || {
        generate(&gen).expect("valid generator config")
    });
    out.metric("topology.generate_ms", ns as f64 / 1e6, "ms");

    // The workload's cells, and one untraced pass of the workload itself
    // (its wall time is the base of the busy share).
    let engine = in_process_engine();
    let (cells, pass_s, warm, cache_share) = match workload {
        "campaign-warm" => {
            let (grid, cache) = warm_setup(seed);
            let before = cache.stats();
            let t0 = Instant::now();
            run_campaign_with_cache(
                &grid.g,
                &grid.timelines,
                &grid.dests,
                &grid.cfg,
                Some(&cache),
            )
            .map_err(|e| e.to_string())?;
            let pass = t0.elapsed().as_secs_f64();
            let after = cache.stats();
            let share = hit_share(after.hits - before.hits, after.misses - before.misses);
            out.check(
                "warm pass: every cell restored from the cache",
                share == 1.0,
            );
            (grid_cells(grid, &mut t), pass, true, share)
        }
        "paper-fig2" => {
            let cfg = fig2_config(seed, 0, nproc);
            let t0 = Instant::now();
            run_failure_experiment(&cfg, FailureScenario::SingleLink, &Protocol::ALL);
            let pass = t0.elapsed().as_secs_f64();
            (
                fig2_cells(cfg.seed, cfg.instances, g, &mut t),
                pass,
                false,
                0.0,
            )
        }
        _ => (query_cells(&engine, &reqs, 120, &mut t), 0.0, true, 0.0),
    };
    let (calls, dur) = (t.count("static_routes"), t.total_ns("static_routes"));
    out.metric(
        "topology.static_routes_us",
        dur as f64 / calls.max(1) as f64 / 1e3,
        "us",
    );
    out.metric(
        "topology.static_routes_calls",
        cells.static_calls_per_pass as f64,
        "count",
    );
    let (stages, untraced_s, traced_s) = drive(&cells, &mut t, &mut out);
    stage_metrics(&mut out, &cells, &stages);
    out.metric("trace.overhead_share", traced_s / untraced_s - 1.0, "share");

    // The query layers: in process, then the daemon over loopback.
    let query_s = query_layer(&mut out, &engine, &reqs, &mut t);
    let daemon = Daemon::start(bin)?;
    let loop_t0 = Instant::now();
    let samples = open_loop(daemon.addr, &reqs, BASE_RATE, nproc);
    let loop_s = loop_t0.elapsed().as_secs_f64();
    check_samples(&mut out, &samples);
    client_metrics(&mut out, &samples);
    let (max_qps, rungs) = ladder(daemon.addr, &qg, &qdests, seed, nproc);
    out.metric("client.max_qps_at_slo", max_qps, "1/s");
    out.note(format!(
        "rate ladder: {} requests, highest rate meeting the SLO {max_qps} rps",
        rungs.len()
    ));
    let daemon_cache = request(daemon.addr, "SHOW CACHE")
        .ok()
        .and_then(|(_, f)| Response::parse(&f).ok());
    drop(daemon);

    let cell_work: f64 = stages.iter().map(|s| work_ns(s, warm) as f64).sum::<f64>() / 1e9
        + t.total_ns("static_routes") as f64 / 1e9;
    let (busy, share) = if workload == "queryd-open" {
        let share = match daemon_cache {
            Some(Response::Cache(c)) => hit_share(c.hits, c.misses),
            _ => 0.0,
        };
        (query_s / loop_s, share)
    } else {
        (cell_work / (threads as f64 * pass_s), cache_share)
    };
    out.metric("runner.busy_share", busy, "share");
    out.metric("workload.cache_hit_share", share, "share");
    out.note(format!(
        "{} cells traced ({traced_s:.2} s) and untraced ({untraced_s:.2} s); {} spans",
        cells.cells.len(),
        t.spans.len()
    ));

    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let path = out_dir.join(format!("spans-{workload}-seed{seed}.tsv"));
    std::fs::write(&path, t.dump()).map_err(|e| format!("write {}: {e}", path.display()))?;
    out.note(format!("spans written to {}", path.display()));
    Ok(out)
}
