//! The `queryd-open` workload: the real `stamp_queryd --port 0` daemon in
//! its default configuration, reached over loopback by an open-loop
//! client that opens a fresh connection per request (banner, request,
//! `QUIT`) over at most `nproc` connections at once, and by batch-mode
//! bursts pipelined on one connection.

use crate::inputs::{queryd_topology, request_mix, Class, Req, QUERYD_SEED};
use crate::openloop::{achieved_rate, due_s, kept_up, Timing};
use crate::stats::{median, percentile, samples_for_tail, tail_ok};
use crate::Outcome;
use stamp_eventsim::derive_seed;
use stamp_queryd::{QueryEngine, QuerydConfig, Request, Response, WhatIfShape};
use stamp_topology::{AsGraph, AsId, StaticRoutes};
use stamp_workload::{run_protocol_cell, Protocol, RunParams};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The offered rate of the fixed-rate open loop, requests per second.
pub const BASE_RATE: f64 = 80.0;

/// Requests in one fixed-rate loop: 80 % of the run at the base rate (the
/// batch-mode bursts take about six seconds of the rest), but at least
/// enough that the fan-out class (one request in ten) meets the tail rule
/// at its p90.
pub fn loop_requests(seconds: f64) -> usize {
    ((BASE_RATE * seconds * 0.8).ceil() as usize).max(10 * samples_for_tail(90.0))
}

/// Requests per batch-mode segment, and segments per run. The run
/// alternates open-loop and batch segments so that the batch-mode
/// throughput averages over the whole run's host state.
pub const BATCH_REQUESTS: usize = 200;
pub const SEGMENTS: usize = 10;

/// The service-level objective of the rate ladder: single-cell `WHATIF`
/// latency at the 90th percentile, from due time.
pub const SLO_WHATIF_P90_MS: f64 = 50.0;

/// A rung of the ladder counts only if the generator kept up: it sent at
/// least this share of the offered rate.
pub const KEEP_UP: f64 = 0.97;

/// Per-request socket timeout; a request that exceeds it fails.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// A running daemon. Dropping it closes stdin (the daemon's shutdown
/// signal), and kills it if it has not exited shortly after.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Threads draining the daemon's stdout and stderr; they end when the
    /// daemon does.
    drains: Vec<JoinHandle<()>>,
    pub addr: SocketAddr,
    /// The banner the daemon printed on its standard output.
    pub banner: String,
    /// Spawn until `READY` on standard output, seconds.
    pub ready_s: f64,
}

impl Daemon {
    pub fn start(bin: &Path) -> Result<Daemon, String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(["--port", "0"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let err = child.stderr.take();
        let out = child.stdout.take();
        let mut d = Daemon {
            stdin: child.stdin.take(),
            child,
            drains: Vec::new(),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            banner: String::new(),
            ready_s: 0.0,
        };
        // From here on, an error drops `d`, which stops the daemon.
        let mut err = BufReader::new(err.ok_or("no daemon stderr")?);
        let mut out = BufReader::new(out.ok_or("no daemon stdout")?);
        let mut line = String::new();
        err.read_line(&mut line).map_err(|e| e.to_string())?;
        d.addr = line
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("daemon did not report its address: {line:?}"))?;
        out.read_line(&mut d.banner).map_err(|e| e.to_string())?;
        d.ready_s = t0.elapsed().as_secs_f64();
        if !d.banner.starts_with("READY ") {
            return Err(format!("daemon banner {:?}", d.banner));
        }
        // Keep draining both pipes so the daemon never blocks on them.
        d.drains.push(std::thread::spawn(move || {
            let _ = std::io::copy(&mut out, &mut std::io::sink());
        }));
        d.drains.push(std::thread::spawn(move || {
            let _ = std::io::copy(&mut err, &mut std::io::sink());
        }));
        Ok(d)
    }

    /// The daemon's peak resident set, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        crate::peak_rss_mb(Some(self.child.id()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(5);
        while !matches!(self.child.try_wait(), Ok(Some(_))) {
            if Instant::now() >= deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        for t in self.drains.drain(..) {
            let _ = t.join();
        }
    }
}

/// One request over a fresh connection: connect, read the banner, send
/// the request and `QUIT`, read to the closing `BYE`. Returns the seconds
/// spent waiting for the banner (the accept-queue wait) and the response
/// frame.
pub fn request(addr: SocketAddr, line: &str) -> Result<(f64, String), String> {
    let t0 = Instant::now();
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut banner = String::new();
    reader
        .read_line(&mut banner)
        .map_err(|e| format!("banner: {e}"))?;
    let banner_wait = t0.elapsed().as_secs_f64();
    if !banner.starts_with("READY ") {
        return Err(format!("bad banner {banner:?}"));
    }
    (&stream)
        .write_all(format!("{line}\nQUIT\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut rest = String::new();
    reader
        .read_to_string(&mut rest)
        .map_err(|e| format!("reply: {e}"))?;
    let frame = rest
        .strip_suffix("BYE\nEND\n")
        .ok_or_else(|| format!("reply not closed by BYE: {rest:?}"))?;
    Ok((banner_wait, frame.to_string()))
}

/// One request's outcome in an open loop.
pub struct Sample {
    pub class: Class,
    pub timing: Timing,
    pub banner_wait_s: f64,
    /// The response frame, or why there is none.
    pub reply: Result<String, String>,
    /// Index into the request list.
    pub index: usize,
}

/// Run `reqs` as an open loop at `rate` over at most `conns` concurrent
/// connections. Returns the samples in request order.
pub fn open_loop(addr: SocketAddr, reqs: &[Req], rate: f64, conns: usize) -> Vec<Sample> {
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::with_capacity(reqs.len()));
    std::thread::scope(|s| {
        for _ in 0..conns.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= reqs.len() {
                    break;
                }
                let due = due_s(i, rate);
                let now = start.elapsed().as_secs_f64();
                if due > now {
                    std::thread::sleep(Duration::from_secs_f64(due - now));
                }
                let sent = start.elapsed().as_secs_f64();
                let r = request(addr, &reqs[i].line);
                let done = start.elapsed().as_secs_f64();
                let (banner_wait_s, reply) = match r {
                    Ok((b, frame)) => (b, Ok(frame)),
                    Err(e) => (0.0, Err(e)),
                };
                samples
                    .lock()
                    .expect("no client thread panicked")
                    .push(Sample {
                        class: reqs[i].class,
                        timing: Timing { due, sent, done },
                        banner_wait_s,
                        reply,
                        index: i,
                    });
            });
        }
    });
    let mut v = samples.into_inner().expect("no client thread panicked");
    v.sort_by_key(|s| s.index);
    v
}

/// Batch mode: one connection, every request of `reqs` pipelined behind
/// the banner (a writer thread sends them all, then `QUIT`), the replies
/// read as they come. Returns the response frames in order and the
/// completion rate from the first send to the last reply. The daemon is
/// never idle, so this is its serving capacity for the mix.
pub fn batch(addr: SocketAddr, reqs: &[Req]) -> Result<(Vec<String>, f64), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("banner: {e}"))?;
    let t0 = Instant::now();
    let (frames, sent) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut w = std::io::BufWriter::new(&stream);
            for r in reqs {
                w.write_all(r.line.as_bytes())?;
                w.write_all(b"\n")?;
            }
            w.write_all(b"QUIT\n")?;
            w.flush()
        });
        let mut frames = Vec::with_capacity(reqs.len() + 1);
        let mut frame = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => frame.push_str(&line),
                Err(e) => return (Err(format!("reply: {e}")), writer.join()),
            }
            if line == "END\n" {
                frames.push(std::mem::take(&mut frame));
            }
        }
        (Ok(frames), writer.join())
    });
    let wall = t0.elapsed().as_secs_f64();
    sent.map_err(|_| "batch writer panicked".to_string())?
        .map_err(|e| format!("send: {e}"))?;
    let mut frames = frames?;
    if frames.pop().as_deref() != Some("BYE\nEND\n") || frames.len() != reqs.len() {
        return Err(format!(
            "batch of {} requests answered {} frames",
            reqs.len(),
            frames.len()
        ));
    }
    Ok((frames, reqs.len() as f64 / wall))
}

/// Is a reply a well-formed, successful frame? Parses it with
/// `Response::parse`; an `ERR` frame or a `WHATIF` row that did not
/// converge is a failure.
pub fn reply_ok(reply: &Result<String, String>) -> Result<Response, String> {
    let text = reply.as_ref().map_err(Clone::clone)?;
    let resp = Response::parse(text).map_err(|e| format!("unparseable frame: {e}"))?;
    match &resp {
        Response::Error { code, message } => Err(format!("ERR {code}: {message}")),
        Response::WhatIf { rows, .. } if rows.iter().any(|r| !r.metrics.outcome.is_converged()) => {
            Err("a WHATIF row did not converge".to_string())
        }
        _ => Ok(resp),
    }
}

/// Latencies in ms (from due time) of one class.
pub fn class_latencies_ms(samples: &[Sample], class: Class) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.class == class)
        .map(|s| s.timing.latency_s() * 1e3)
        .collect()
}

/// Does a ladder rung meet the objective? The loop kept up with its rate,
/// every request succeeded, and the `WHATIF` tail stayed within the SLO.
fn meets_slo(samples: &[Sample], rate: f64) -> bool {
    let w = class_latencies_ms(samples, Class::WhatIf);
    kept_up(
        &samples.iter().map(|s| s.timing).collect::<Vec<_>>(),
        rate,
        KEEP_UP,
    ) && samples.iter().all(|s| reply_ok(&s.reply).is_ok())
        && !w.is_empty()
        && percentile(&w, 90.0) <= SLO_WHATIF_P90_MS
}

/// Offered rates of the ladder, requests per second.
pub const LADDER: [f64; 8] = [100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0, 450.0];

/// Seconds per rung of the ladder.
pub const RUNG_S: f64 = 1.0;

/// Walk the ladder upwards, `RUNG_S` seconds per rung, stopping at the
/// first rung that misses the objective. Returns the highest rate that
/// met it (0 if none did) and every sample taken.
pub fn ladder(
    addr: SocketAddr,
    g: &AsGraph,
    dests: &[AsId],
    seed: u64,
    conns: usize,
) -> (f64, Vec<Sample>) {
    let mut best = 0.0;
    let mut all = Vec::new();
    for (k, &rate) in LADDER.iter().enumerate() {
        let n = (rate * RUNG_S).ceil() as usize;
        let reqs = request_mix(g, dests, derive_seed(seed, 0x1ADD_E500 + k as u64), n);
        let samples = open_loop(addr, &reqs, rate, conns);
        let ok = meets_slo(&samples, rate);
        all.extend(samples);
        if !ok {
            break;
        }
        best = rate;
    }
    (best, all)
}

/// Recompute one single-cell `WHATIF` row in process, cold, with
/// `run_protocol_cell`, and compare it with the daemon's row.
pub fn whatif_row_matches(engine: &QueryEngine, line: &str, resp: &Response) -> bool {
    let Ok(Request::WhatIf {
        shape,
        proto: Some(p),
        dest: Some(d),
        policy: None,
    }) = line.parse::<Request>()
    else {
        return false;
    };
    let Response::WhatIf { rows, .. } = resp else {
        return false;
    };
    let [row] = rows.as_slice() else {
        return false;
    };
    cold_cell(engine, &shape, p, d) == Some(row.metrics)
}

fn cold_cell(
    engine: &QueryEngine,
    shape: &WhatIfShape,
    p: Protocol,
    d: AsId,
) -> Option<stamp_workload::InstanceMetrics> {
    let cfg: &QuerydConfig = engine.config();
    let g = engine.topology();
    let mut params: RunParams = cfg.params.clone();
    params.phase_deadline = params.phase_deadline.min(cfg.query_deadline);
    let timeline = engine.timeline_of(shape);
    let removed = timeline.removed_links(g).ok()?;
    let truth = StaticRoutes::compute(&g.without_links(&removed), d);
    let reachable: Vec<bool> = (0..g.n())
        .map(|v| truth.reachable(AsId::from_usize(v)))
        .collect();
    Some(run_protocol_cell(
        g, &params, &timeline, d, &reachable, p, cfg.seed,
    ))
}

/// An in-process engine with the daemon's default configuration.
pub fn in_process_engine() -> QueryEngine {
    let (g, dests) = queryd_topology();
    let mut cfg = QuerydConfig::new(crate::inputs::PROTOCOLS.to_vec(), dests);
    cfg.seed = QUERYD_SEED;
    cfg.params = RunParams::paper();
    QueryEngine::new(g, cfg).expect("the default daemon configuration converges")
}

/// Checks shared by every open loop: each frame parses and succeeds.
pub fn check_samples(out: &mut Outcome, samples: &[Sample]) {
    let mut bad = 0;
    for s in samples {
        out.attempted += 1;
        if let Err(e) = reply_ok(&s.reply) {
            bad += 1;
            out.failed += 1;
            if bad <= 3 {
                out.note(format!("request {:?} failed: {e}", s.class));
            }
        }
    }
    out.note(format!(
        "{} requests, {bad} failed (unparseable, ERR, DIVERGED or timed out)",
        samples.len()
    ));
}

/// Per-class p50 and tail latencies of a sample set, plus lateness and
/// banner wait, as `client.*` metrics; the tail percentile of each class
/// is the one its sample count supports under the ten-beyond rule.
pub fn client_metrics(out: &mut Outcome, samples: &[Sample]) {
    for class in Class::ALL {
        let lat = class_latencies_ms(samples, class);
        let label = class.label();
        if lat.is_empty() {
            continue;
        }
        out.metric(&format!("client.{label}_ms_p50"), median(&lat), "ms");
        let (tail, p) = class_tail(class);
        out.metric(
            &format!("client.{label}_ms_{tail}"),
            percentile(&lat, p),
            "ms",
        );
        if !tail_ok(lat.len(), p) {
            out.note(format!(
                "client.{label}_ms_{tail}: only {} samples (tail rule wants more)",
                lat.len()
            ));
        }
    }
    let late: Vec<f64> = samples.iter().map(|s| s.timing.late_s() * 1e3).collect();
    let banner: Vec<f64> = samples.iter().map(|s| s.banner_wait_s * 1e3).collect();
    out.metric("client.late_ms_p99", percentile(&late, 99.0), "ms");
    out.metric("client.banner_wait_ms_p99", percentile(&banner, 99.0), "ms");
    let timings: Vec<Timing> = samples.iter().map(|s| s.timing).collect();
    out.metric("client.qps_achieved", achieved_rate(&timings), "1/s");
}

/// The tail each class reports: `(label, percentile)`.
pub fn class_tail(class: Class) -> (&'static str, f64) {
    match class {
        Class::Show => ("p95", 95.0),
        Class::WhatIf => ("p95", 95.0),
        Class::Fanout => ("p90", 90.0),
    }
}

/// The `queryd-open` workload with tracing off.
pub fn open_workload(seed: u64, seconds: f64, nproc: usize, bin: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::new(nproc);
    // Set-up is a daemon start, repeated as the batch workloads repeat
    // theirs; the last daemon serves the run.
    let mut failed_start = None;
    let (ready, daemon) =
        crate::batch::repeat_setup(|| Daemon::start(bin).map_err(|e| failed_start = Some(e)).ok());
    if let Some(e) = failed_start {
        return Err(e);
    }
    let daemon = daemon.expect("every start succeeded");
    let (g, dests) = queryd_topology();
    // Open-loop and batch-mode segments, alternating.
    let n = loop_requests(seconds);
    let reqs = request_mix(&g, &dests, seed, n);
    let batch_reqs = request_mix(
        &g,
        &dests,
        derive_seed(seed, 0xBA7C),
        BATCH_REQUESTS * SEGMENTS,
    );
    let mut samples = Vec::with_capacity(n);
    let mut rates = Vec::with_capacity(SEGMENTS);
    let mut bad = 0;
    for k in 0..SEGMENTS {
        let (lo, hi) = (k * n / SEGMENTS, (k + 1) * n / SEGMENTS);
        for mut s in open_loop(daemon.addr, &reqs[lo..hi], BASE_RATE, nproc) {
            s.index += lo;
            samples.push(s);
        }
        let chunk = &batch_reqs[k * BATCH_REQUESTS..(k + 1) * BATCH_REQUESTS];
        let (frames, rate) = batch(daemon.addr, chunk)?;
        rates.push(rate);
        for f in frames {
            out.attempted += 1;
            if reply_ok(&Ok(f)).is_err() {
                out.failed += 1;
                bad += 1;
            }
        }
    }
    check_samples(&mut out, &samples);
    out.check("every batch-mode frame parses and succeeds", bad == 0);
    let fanout = class_latencies_ms(&samples, Class::Fanout);
    // Every burst's requests over the bursts' summed wall time (see
    // `batch::pass_metrics`).
    let burst_s: f64 = rates.iter().map(|r| BATCH_REQUESTS as f64 / r).sum();
    out.metric(
        "throughput_per_s",
        (BATCH_REQUESTS * SEGMENTS) as f64 / burst_s,
        "1/s",
    );
    out.metric("latency_ms_p50", median(&fanout), "ms");
    out.metric("setup_s", median(&ready), "s");
    out.metric("peak_rss_mb", daemon.peak_rss_mb(), "MB");
    out.note(format!(
        "{SEGMENTS} segments of an open loop at {BASE_RATE} rps ({n} requests in all) and \
         batch mode ({BATCH_REQUESTS} requests on one connection)"
    ));

    // Output checks against an in-process engine of the same configuration.
    let engine = in_process_engine();
    out.check(
        "daemon banner equals the in-process engine's",
        daemon.banner == engine.banner(),
    );
    let mut compared = 0;
    for s in samples.iter().filter(|s| s.class == Class::WhatIf).take(2) {
        if let Ok(resp) = reply_ok(&s.reply) {
            compared += 1;
            out.check(
                &format!(
                    "WHATIF row equals cold run_protocol_cell: {}",
                    reqs[s.index].line
                ),
                whatif_row_matches(&engine, &reqs[s.index].line, &resp),
            );
        }
    }
    out.check("sampled WHATIF rows were compared", compared > 0);
    match request(daemon.addr, "SHOW CACHE")
        .map(|(_, f)| f)
        .and_then(|f| Response::parse(&f).map_err(|e| e.to_string()))
    {
        Ok(Response::Cache(c)) => out.check(
            "SHOW CACHE: every query was warm",
            c.misses == 0 && c.hits > 0,
        ),
        other => out.check(
            &format!("SHOW CACHE answers a CACHE frame ({other:?})"),
            false,
        ),
    }
    Ok(out)
}
