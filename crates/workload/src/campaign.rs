//! The sharded campaign runner: a `(timeline × destination × seed)` grid
//! fanned across `std::thread::scope` workers.
//!
//! Each grid cell converges a fresh network (one [`Engine`] + `PathArena`
//! per cell per protocol, nothing shared), plays the cell's timeline, and
//! measures the paper's disruption/recovery metrics. Cells go through
//! [`run_sharded`], the workspace's one parallel runner (the failure
//! experiments use it too): workers claim indices from an atomic counter
//! and the results come back in *cell-index order no matter how the
//! threads interleave* — a campaign's aggregate (and its
//! [`CampaignReport::hash`]) is byte-identical at any worker count. That
//! is the whole determinism argument: randomness is derived per cell from
//! the cell's coordinates, never from worker identity or wall-clock.

use crate::sim::{Sim, SimCheckpoint, SimError};
use crate::timeline::{
    background_churn, choose_k, correlated_node_outage, flap_train, maintenance_windows,
    policy_flip, prefix_hijack, prepend_hijack, provider_cone, random_attacker, route_leak,
    single_link_failure, staggered_link_failures, NetEvent, Timeline, TimelineError,
};
use stamp_bgp::engine::{EngineConfig, RunOutcome, WatchdogConfig};
use stamp_bgp::types::PrefixId;
use stamp_eventsim::fxhash::FxHashMap;
use stamp_eventsim::rng::{tags, Rng};
use stamp_eventsim::{derive_seed, DelayModel, LossModel, SimDuration};
use stamp_policy::PolicyRegime;
use stamp_topology::{AsGraph, AsId, StaticRoutes};
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The prefix every run converges (one destination at a time, as in the
/// paper).
pub const PREFIX: PrefixId = PrefixId(0);

/// Protocols compared by campaigns and the figure experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Protocol {
    Bgp,
    RbgpNoRci,
    Rbgp,
    Stamp,
}

impl Protocol {
    /// All four, in the paper's bar order.
    pub const ALL: [Protocol; 4] = [
        Protocol::Bgp,
        Protocol::RbgpNoRci,
        Protocol::Rbgp,
        Protocol::Stamp,
    ];

    /// Paper's label (also the canonical [`fmt::Display`] form; round-trips
    /// through [`Protocol::from_str`]). The string lives in the protocol's
    /// registry row — one source of truth per variant.
    pub fn label(&self) -> &'static str {
        crate::sim::ProtocolSpec::of(*self).label
    }

    fn discriminant(&self) -> u64 {
        match self {
            Protocol::Bgp => 0,
            Protocol::RbgpNoRci => 1,
            Protocol::Rbgp => 2,
            Protocol::Stamp => 3,
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `pad`, not `write_str`: honour width/alignment specifiers so
        // labels line up in report tables.
        f.pad(self.label())
    }
}

/// Error of [`Protocol::from_str`]: the input matched no label or alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProtocolError {
    input: String,
}

impl fmt::Display for ParseProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown protocol {:?} (expected one of: {})",
            self.input,
            crate::sim::REGISTRY
                .iter()
                .map(|s| s.aliases[0])
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

impl std::error::Error for ParseProtocolError {}

impl FromStr for Protocol {
    type Err = ParseProtocolError;

    /// Case-insensitive parse of a paper label ("R-BGP") or a CLI alias
    /// ("rbgp") — the alias table lives in the protocol registry
    /// ([`crate::sim::REGISTRY`]), so a new protocol parses the moment it
    /// is registered.
    fn from_str(s: &str) -> Result<Protocol, ParseProtocolError> {
        let wanted = s.trim();
        for spec in &crate::sim::REGISTRY {
            if spec.label.eq_ignore_ascii_case(wanted)
                || spec.aliases.iter().any(|a| a.eq_ignore_ascii_case(wanted))
            {
                return Ok(spec.protocol);
            }
        }
        Err(ParseProtocolError {
            input: s.to_string(),
        })
    }
}

/// Per-cell measurements of one protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceMetrics {
    /// ASes with transient problems (the Figure 2/3 metric).
    pub affected: usize,
    /// ASes that saw a transient loop (subset of `affected`).
    pub affected_loops: usize,
    /// ASes that saw a transient blackhole (subset of `affected`).
    pub affected_blackholes: usize,
    /// Control-plane companion metric: ASes that adopted a selection
    /// invalidated by the event ("affected in some ways", see DESIGN.md).
    pub control_affected: usize,
    /// Updates sent during initial convergence (E7 baseline).
    pub updates_initial: u64,
    /// Updates sent while re-converging after the timeline started (E7).
    pub updates_failure: u64,
    /// Seconds of simulated time from the timeline's *last* event to the
    /// last FIB change (E8, control plane). For the paper's one-shot
    /// workloads the last event is the injection instant.
    pub convergence_delay_s: f64,
    /// Seconds from the timeline's last event to the last observation that
    /// still saw any forwarding problem (E8, data-plane recovery;
    /// 0 = never disrupted after the final event).
    pub data_recovery_s: f64,
    /// Distinct AS paths interned by the engine's `PathArena` over the
    /// whole run — deterministic (intern order is event order), so it
    /// participates in the byte-identical regression checks.
    pub interned_paths: usize,
    /// How the cell's run ended: the first non-`Converged` outcome of its
    /// phases (initial convergence, then the timeline phase). A diverging
    /// cell is a *result*, not an error — campaigns keep running and the
    /// outcome folds into the aggregate hash.
    pub outcome: RunOutcome,
}

impl InstanceMetrics {
    /// Feed every field into an FNV-1a accumulator (f64s by bit pattern),
    /// so aggregate hashes detect any metric drift.
    ///
    /// The outcome contributes bytes **only when `Diverged`** — a marker
    /// word plus the detected period and churn. Converged cells (and
    /// deadline-truncated ones, which existed before outcomes were typed
    /// and already shape the other metrics) write nothing, keeping every
    /// pre-watchdog golden hash byte-identical.
    fn fnv_into(&self, h: &mut Fnv1a) {
        h.write_u64(self.affected as u64);
        h.write_u64(self.affected_loops as u64);
        h.write_u64(self.affected_blackholes as u64);
        h.write_u64(self.control_affected as u64);
        h.write_u64(self.updates_initial);
        h.write_u64(self.updates_failure);
        h.write_u64(self.convergence_delay_s.to_bits());
        h.write_u64(self.data_recovery_s.to_bits());
        h.write_u64(self.interned_paths as u64);
        if let RunOutcome::Diverged { period, churn } = self.outcome {
            h.write_u64(0xD1FE_D1FE_D1FE_D1FE);
            h.write_u64(period.as_micros());
            h.write_u64(churn);
        }
    }
}

/// FNV-1a 64-bit (hermetic; stable across platforms and runs).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_0000_01b3);
        }
    }
}

/// Engine and measurement knobs shared by every cell of a run; defaults
/// follow §6.2 where the paper is explicit.
#[derive(Debug, Clone)]
pub struct RunParams {
    /// Message delay model (paper: U[10 ms, 20 ms]).
    pub delay: DelayModel,
    /// MRAI base (paper: 30 s × U[0.75, 1.0] per session).
    pub mrai_base: SimDuration,
    /// Disable MRAI (fast tests only).
    pub mrai_enabled: bool,
    /// Rate-limit withdrawals too (paper-era simulator behaviour).
    pub mrai_withdrawals: bool,
    /// Delay between reaching quiescence and the timeline's epoch.
    pub inject_delay: SimDuration,
    /// Data-plane observation throttle (simulated time).
    pub observe_interval: SimDuration,
    /// Safety deadline per convergence phase (simulated time).
    pub phase_deadline: SimDuration,
    /// Message loss fault injection (zero in the paper's experiments; the
    /// failover demo exposes the knob).
    pub loss: LossModel,
    /// Policy regime every router runs (default: `gao-rexford`, the
    /// paper's hardwired prefer-customer + valley-free world). Compiled to
    /// dense tables once per cell by [`RunParams::engine_config`].
    pub policy: PolicyRegime,
    /// Convergence-watchdog thresholds (oscillation detector + per-run
    /// event budget) — see `stamp_bgp::engine::WatchdogConfig`.
    pub watchdog: WatchdogConfig,
}

impl Default for RunParams {
    fn default() -> Self {
        RunParams {
            delay: DelayModel::paper_default(),
            mrai_base: SimDuration::from_secs(30),
            mrai_enabled: true,
            mrai_withdrawals: true,
            inject_delay: SimDuration::from_secs(5),
            observe_interval: SimDuration::from_millis(100),
            phase_deadline: SimDuration::from_secs(4 * 3600),
            loss: LossModel::none(),
            policy: PolicyRegime::gao_rexford(),
            watchdog: WatchdogConfig::default(),
        }
    }
}

impl RunParams {
    /// The paper's §6.2 parameters — an explicit name for
    /// [`RunParams::default`].
    pub fn paper() -> RunParams {
        RunParams::default()
    }

    /// A configuration small enough for unit/integration tests: fixed 1 ms
    /// delays, no MRAI.
    pub fn fast() -> RunParams {
        RunParams {
            delay: DelayModel::fixed(SimDuration::from_millis(1)),
            mrai_base: SimDuration::ZERO,
            mrai_enabled: false,
            mrai_withdrawals: false,
            inject_delay: SimDuration::from_secs(1),
            observe_interval: SimDuration::from_micros(1),
            phase_deadline: SimDuration::from_secs(3600),
            loss: LossModel::none(),
            policy: PolicyRegime::gao_rexford(),
            watchdog: WatchdogConfig::default(),
        }
    }

    /// Engine configuration for one cell.
    pub fn engine_config(&self, seed: u64) -> EngineConfig {
        EngineConfig {
            seed,
            delay: self.delay,
            mrai_base: self.mrai_base,
            mrai_enabled: self.mrai_enabled,
            mrai_withdrawals: self.mrai_withdrawals,
            loss: self.loss,
            policy: self
                .policy
                .compile()
                // simlint::allow(panic, "builtins and parse_pol both bound community counts; only a hand-built regime can exceed them")
                .expect("policy regime compiles"),
            watchdog: self.watchdog,
        }
    }
}

/// Run one `(timeline, dest)` cell for one protocol: converge one network,
/// play one timeline, measure (see [`Sim::measure`]). `seed` drives the
/// engine's delay/MRAI streams and STAMP's lock choices.
///
/// `reachable[v]` must hold the post-timeline reachability of each AS
/// (compute it from [`Timeline::removed_links`]). The timeline is injected
/// at an epoch `inject_delay` after initial quiescence; all offsets are
/// absolute from that epoch, and recovery metrics are measured from the
/// *last* event (the "settle point") — nothing is injected after it, so
/// anything still broken later is a transient of the protocol, not of the
/// workload.
///
/// The protocol axis is a [`ProtocolSpec`] registry lookup inside the
/// builder — no per-protocol code here; adding a protocol touches only the
/// registry.
pub fn run_protocol_cell(
    g: &AsGraph,
    params: &RunParams,
    timeline: &Timeline,
    dest: AsId,
    reachable: &[bool],
    protocol: Protocol,
    seed: u64,
) -> InstanceMetrics {
    run_protocol_cell_inner(g, params, timeline, dest, reachable, protocol, seed, None)
}

/// [`run_protocol_cell`] with a warm-start cache: if `cache` holds the
/// converged baseline for this `(protocol, dest, seed)`, the cell forks
/// from it instead of replaying convergence; otherwise the cell converges
/// cold and deposits its baseline for the next taker. Either way the
/// returned metrics are bit-identical to the cold path (the fork
/// contract, proven by `tests/warmstart.rs` and the campaign binary's
/// cold-vs-warm hash assertion).
#[allow(clippy::too_many_arguments)]
pub fn run_protocol_cell_warm(
    g: &AsGraph,
    params: &RunParams,
    timeline: &Timeline,
    dest: AsId,
    reachable: &[bool],
    protocol: Protocol,
    seed: u64,
    cache: &BaselineCache,
) -> InstanceMetrics {
    run_protocol_cell_inner(
        g,
        params,
        timeline,
        dest,
        reachable,
        protocol,
        seed,
        Some(cache),
    )
}

#[allow(clippy::too_many_arguments)]
fn run_protocol_cell_inner(
    g: &AsGraph,
    params: &RunParams,
    timeline: &Timeline,
    dest: AsId,
    reachable: &[bool],
    protocol: Protocol,
    seed: u64,
    cache: Option<&BaselineCache>,
) -> InstanceMetrics {
    let mut sim = match cache {
        Some(cache) => cache
            .get(protocol, dest, seed, params.policy.fingerprint())
            .unwrap_or_else(|| {
                cache
                    .converge(g, params, protocol, dest, seed)
                    // simlint::allow(panic, "destinations come from the campaign's own topology scan")
                    .expect("campaign destinations are in range")
            })
            .fork(params),
        None => Sim::on(g)
            .protocol(protocol)
            .originate(dest, PREFIX)
            .seed(seed)
            .params(params.clone())
            .build()
            // simlint::allow(panic, "destinations come from the campaign's own topology scan")
            .expect("campaign destinations are in range"),
    };
    sim.measure(timeline, reachable)
        // simlint::allow(panic, "timelines are generated against this same graph")
        .expect("timeline must resolve against the campaign topology")
}

/// Point-in-time occupancy and traffic counters of a [`BaselineCache`]
/// (see [`BaselineCache::stats`]). Counters are monotone over the cache's
/// lifetime; `len` is instantaneous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Configured bound (`None` = unbounded).
    pub capacity: Option<usize>,
    /// Baselines currently resident.
    pub len: usize,
    /// Lookups that found a checkpoint.
    pub hits: u64,
    /// Lookups that found nothing (the caller converges cold).
    pub misses: u64,
    /// Baselines dropped by the FIFO bound.
    pub evictions: u64,
}

type CacheKey = (Protocol, AsId, u64, u64);

struct CacheInner {
    map: FxHashMap<CacheKey, Arc<SimCheckpoint>>,
    /// Deposit order, oldest first — the FIFO eviction queue. Re-depositing
    /// an existing key replaces the checkpoint without renewing its slot.
    order: std::collections::VecDeque<CacheKey>,
    capacity: Option<usize>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Warm-start cache of converged baselines: `(protocol, dest, engine
/// seed, policy fingerprint) → the session frozen right after initial
/// convergence`. Shared
/// across workers (internally locked; baselines are handed out as
/// `Arc`s, so the lock is never held during a fork) and across grid
/// passes — the second run of the same grid converges nothing.
///
/// [`BaselineCache::new`] is unbounded; [`BaselineCache::with_capacity`]
/// bounds residency with deterministic FIFO eviction (deposit order, never
/// recency — so occupancy is a pure function of the put sequence, not of
/// lookup interleaving). Hit/miss/eviction counters are surfaced via
/// [`BaselineCache::stats`] (queryd's `SHOW CACHE`, the campaign JSON).
/// Evicting a baseline never changes results: the next taker converges
/// cold and re-deposits, and the warm path is bit-identical to cold.
///
/// Contract: one cache serves exactly one `(topology, params)` pair. The
/// key deliberately does not re-encode them (hashing a whole `AsGraph`
/// per lookup would dwarf the fork it guards); reusing a cache across
/// topologies or params is a caller bug, same as [`Sim::restore`] across
/// sessions of different shape.
pub struct BaselineCache {
    inner: Mutex<CacheInner>,
}

impl Default for BaselineCache {
    fn default() -> Self {
        BaselineCache::new()
    }
}

impl BaselineCache {
    /// An empty, unbounded cache.
    pub fn new() -> BaselineCache {
        BaselineCache::bounded(None)
    }

    /// An empty cache holding at most `capacity` baselines (clamped to at
    /// least 1), evicting the oldest deposit first.
    pub fn with_capacity(capacity: usize) -> BaselineCache {
        BaselineCache::bounded(Some(capacity.max(1)))
    }

    fn bounded(capacity: Option<usize>) -> BaselineCache {
        BaselineCache {
            inner: Mutex::new(CacheInner {
                map: FxHashMap::default(),
                order: std::collections::VecDeque::new(),
                capacity,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// Number of converged baselines held.
    pub fn len(&self) -> usize {
        // simlint::allow(panic, "poison means a sibling worker already panicked")
        self.inner.lock().unwrap().map.len()
    }

    /// True when no baseline has been deposited yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Occupancy plus lifetime hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        // simlint::allow(panic, "poison means a sibling worker already panicked")
        let inner = self.inner.lock().unwrap();
        CacheStats {
            capacity: inner.capacity,
            len: inner.map.len(),
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
        }
    }

    /// Look up the converged baseline of `(p, dest, seed, policy_fp)`,
    /// counting a hit or a miss. `policy_fp` is the regime's
    /// [`PolicyRegime::fingerprint`] — baselines converged under different
    /// regimes never alias. The baseline is shared out as an `Arc`, so
    /// the lock is released before any fork happens.
    pub fn get(
        &self,
        p: Protocol,
        dest: AsId,
        seed: u64,
        policy_fp: u64,
    ) -> Option<Arc<SimCheckpoint>> {
        // simlint::allow(panic, "poison means a sibling worker already panicked")
        let mut inner = self.inner.lock().unwrap();
        let hit = inner.map.get(&(p, dest, seed, policy_fp)).cloned();
        match hit {
            Some(_) => inner.hits += 1,
            None => inner.misses += 1,
        }
        hit
    }

    /// Converge the baseline of `(p, dest, seed)` under `params` on `g`
    /// cold, deposit it, and hand it back — the one way a baseline enters
    /// the cache. A fresh key joins the FIFO queue (and may evict the
    /// oldest deposit when bounded); re-depositing an existing key replaces
    /// the baseline without renewing its slot. Typed error when `dest` is
    /// not in `g`.
    pub fn converge(
        &self,
        g: &AsGraph,
        params: &RunParams,
        p: Protocol,
        dest: AsId,
        seed: u64,
    ) -> Result<Arc<SimCheckpoint>, SimError> {
        let mut sim = Sim::on(g)
            .protocol(p)
            .originate(dest, PREFIX)
            .seed(seed)
            .params(params.clone())
            .build()?;
        sim.converge();
        // A copy, not the session itself: convergence leaves buffers (the
        // event heap, the arena index) at their high-water capacity, and a
        // clone is compact — 870 kB against 1365 kB per 500-AS baseline.
        let ck = Arc::new(sim.checkpoint());
        let key = (p, dest, seed, params.policy.fingerprint());
        // simlint::allow(panic, "poison means a sibling worker already panicked")
        let mut inner = self.inner.lock().unwrap();
        if inner.map.insert(key, Arc::clone(&ck)).is_none() {
            inner.order.push_back(key);
            while inner.capacity.is_some_and(|cap| inner.map.len() > cap) {
                // The queue only grows on fresh inserts, so it cannot be
                // empty while the map is over capacity.
                if let Some(oldest) = inner.order.pop_front() {
                    inner.map.remove(&oldest);
                    inner.evictions += 1;
                }
            }
        }
        Ok(ck)
    }
}

/// The five built-in scenario-timeline families the `campaign` binary (and
/// the determinism regression suite) run when no `.scn` files are
/// supplied: a sub-MRAI flap train, staggered two-link failures, a
/// correlated regional outage, rolling maintenance drains and random
/// background churn.
///
/// Every draw comes from the caller's `rng`, so the whole family set is
/// byte-reproducible from a seed. Four families anchor on the campaign's
/// own destinations (their provider links and cones are what the grid's
/// cells route over, so the events actually intersect measured paths);
/// churn is mesh-global. `smoke` shrinks event counts for the CI gate.
pub fn standard_families(g: &AsGraph, rng: &mut Rng, dests: &[AsId], smoke: bool) -> Vec<Timeline> {
    let dest = |i: usize| dests[i % dests.len()];
    let s = SimDuration::from_secs;

    // 1. A provider link of the first destination flapping faster than
    //    MRAI (30 s): period 10 s, half duty.
    let fa = dest(0);
    let fb = g.providers(fa)[0];
    let flap = Timeline::from_events(
        "flap-train",
        flap_train(fa, fb, s(0), s(10), 0.5, if smoke { 3 } else { 6 }),
    );

    // 2. Staggered two-link failure: both provider links of a multi-homed
    //    destination, the second while the network is still exploring the
    //    first withdrawal (the slow-motion Figure 3b).
    let sd = dest(1);
    let sp = g.providers(sd);
    let stagger = Timeline::from_events(
        "staggered-two-link",
        staggered_link_failures(&[(sd, sp[0]), (sd, sp[1])], s(0), s(15)),
    );

    // 3. A correlated regional outage: a slice of a destination's provider
    //    cone fails as one event and recovers together two minutes later.
    let cone = provider_cone(g, dest(2));
    let region = choose_k(rng, &cone, (cone.len() / 4).clamp(1, 3));
    let outage = Timeline::from_events(
        "regional-outage",
        correlated_node_outage(&region, s(0), Some(s(120))),
    );

    // 4. Rolling maintenance: two providers of a destination drain for
    //    60 s, one at a time.
    let md = dest(3);
    let mp = g.providers(md);
    let maint = Timeline::from_events(
        "maintenance-drain",
        maintenance_windows(&[mp[0], mp[1 % mp.len()]], s(0), s(60), s(180)),
    );

    // 5. Random background churn across the whole mesh.
    let churn = Timeline::from_events(
        "background-churn",
        background_churn(g, rng, s(0), s(240), if smoke { 6 } else { 12 }, s(30)),
    );

    vec![flap, stagger, outage, maint, churn]
}

/// The adversarial control-plane families: the same shape as
/// [`standard_families`] but nothing physical ever fails — routers lie
/// instead. Which AS goes rogue is the seeded variable (drawn from `rng`);
/// what it does is the family:
///
/// 1. `origin-hijack` — a random non-destination AS originates the
///    measured prefix outright;
/// 2. `prepend-hijack` — a random AS forges the path `[attacker, victim]`
///    against the second destination (the type-2 variant that survives
///    origin validation);
/// 3. `route-leak` — a multi-homed AS re-exports its selected route to
///    every neighbor, then a provider link of the first destination fails
///    while the leak is live (leaks bite hardest under re-convergence);
/// 4. `policy-misconfig` — every router flips to `shortest-path` (a safe
///    regime — the grid must terminate), followed by the same link
///    failure, measuring how a global preference change amplifies a
///    routine outage.
pub fn adversarial_families(
    g: &AsGraph,
    rng: &mut Rng,
    dests: &[AsId],
    smoke: bool,
) -> Vec<Timeline> {
    let dest = |i: usize| dests[i % dests.len()];
    let s = SimDuration::from_secs;

    let fail_at = s(if smoke { 5 } else { 30 });

    let hijacker = random_attacker(g, rng, dest(0));
    let hijack = Timeline::from_events("origin-hijack", prefix_hijack(hijacker, s(0)));

    let prepender = random_attacker(g, rng, dest(1));
    let prepend = Timeline::from_events("prepend-hijack", prepend_hijack(prepender, dest(1), s(0)));

    // Leak from a multi-homed AS (the destination candidates are exactly
    // the multi-homed population) that is not a measured destination.
    let candidates = crate::canned::destination_candidates(g);
    let leaker = *candidates
        .iter()
        .find(|v| !dests.contains(v))
        .unwrap_or(&hijacker);
    let la = dest(0);
    let lb = g.providers(la)[0];
    let mut leak_events = route_leak(leaker, s(0));
    leak_events.extend(single_link_failure(la, lb));
    for e in &mut leak_events {
        if matches!(e.ev, NetEvent::LinkDown(..)) {
            e.at = fail_at;
        }
    }
    let leak = Timeline::from_events("route-leak", leak_events);

    let flip_idx = PolicyRegime::index_of("shortest-path")
        // simlint::allow(panic, "shortest-path is a built-in regime")
        .expect("shortest-path is a named regime");
    let mut flip_events = policy_flip(flip_idx, s(0));
    flip_events.extend(single_link_failure(la, lb));
    for e in &mut flip_events {
        if matches!(e.ev, NetEvent::LinkDown(..)) {
            e.at = fail_at;
        }
    }
    let flip = Timeline::from_events("policy-misconfig", flip_events);

    vec![hijack, prepend, leak, flip]
}

/// Campaign configuration: the seed axis of the grid plus shared knobs.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Engine/measurement knobs shared by every cell.
    pub params: RunParams,
    /// Protocols run on every cell.
    pub protocols: Vec<Protocol>,
    /// The seed axis: every `(timeline, dest)` pair runs once per seed.
    pub seeds: Vec<u64>,
    /// Worker threads (0 = all available).
    pub threads: usize,
}

/// One grid coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignCell {
    /// Index into the campaign's timeline list.
    pub timeline: usize,
    /// The destination AS converged towards.
    pub dest: AsId,
    /// The seed-axis value.
    pub seed: u64,
}

impl CampaignCell {
    /// The seed the cell's engines run under: a function of the cell's
    /// coordinates and the seed-axis value only — never of worker identity.
    pub fn engine_seed(&self) -> u64 {
        let coord = ((self.timeline as u64) << 32) | self.dest.0 as u64;
        derive_seed(derive_seed(self.seed, tags::CAMPAIGN), coord)
    }
}

/// Results of one cell: metrics per protocol, in config order.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    pub cell: CampaignCell,
    pub metrics: Vec<(Protocol, InstanceMetrics)>,
}

/// Per-`(timeline, protocol)` aggregate over all matching cells.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Aggregate {
    pub cells: usize,
    pub affected_mean: f64,
    pub loops_mean: f64,
    pub blackholes_mean: f64,
    pub updates_failure_mean: f64,
    pub convergence_mean_s: f64,
    pub data_recovery_mean_s: f64,
    /// Cells whose run did not converge (watchdog divergence or budget
    /// exhaustion) — a count, not a mean: one is already news.
    pub diverged: usize,
}

/// A complete campaign: merged cells (grid order) and the aggregate hash.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    pub n_ases: usize,
    /// Names of the campaign's timelines, grid order.
    pub timeline_names: Vec<String>,
    /// Every cell, in deterministic grid order (timeline-major, then
    /// destination, then seed) regardless of worker interleaving.
    pub cells: Vec<CellResult>,
    /// FNV-1a over every metric of every cell in merge order — two
    /// campaigns are byte-identical iff their hashes match.
    pub hash: u64,
}

impl CampaignReport {
    /// Aggregate one `(timeline, protocol)` slice of the grid.
    pub fn aggregate(&self, timeline: usize, p: Protocol) -> Aggregate {
        let mut agg = Aggregate::default();
        for c in self.cells.iter().filter(|c| c.cell.timeline == timeline) {
            if let Some((_, m)) = c.metrics.iter().find(|(q, _)| *q == p) {
                agg.cells += 1;
                agg.affected_mean += m.affected as f64;
                agg.loops_mean += m.affected_loops as f64;
                agg.blackholes_mean += m.affected_blackholes as f64;
                agg.updates_failure_mean += m.updates_failure as f64;
                agg.convergence_mean_s += m.convergence_delay_s;
                agg.data_recovery_mean_s += m.data_recovery_s;
                if !m.outcome.is_converged() {
                    agg.diverged += 1;
                }
            }
        }
        if agg.cells > 0 {
            let n = agg.cells as f64;
            agg.affected_mean /= n;
            agg.loops_mean /= n;
            agg.blackholes_mean /= n;
            agg.updates_failure_mean /= n;
            agg.convergence_mean_s /= n;
            agg.data_recovery_mean_s /= n;
        }
        agg
    }
}

/// Run a campaign: the full `timelines × dests × seeds` grid, sharded
/// across `cfg.threads` workers (0 = all cores), merged in grid order.
///
/// Fails fast (before spawning anything) if any timeline does not resolve
/// against `g`.
pub fn run_campaign(
    g: &AsGraph,
    timelines: &[Timeline],
    dests: &[AsId],
    cfg: &CampaignConfig,
) -> Result<CampaignReport, TimelineError> {
    run_campaign_with_cache(g, timelines, dests, cfg, None)
}

/// Converge every baseline of the grid into `cache` without playing any
/// timeline: afterwards a [`run_campaign_with_cache`] pass over the same
/// grid forks every cell instead of converging it. Idempotent — already
/// cached baselines are skipped.
pub fn populate_baselines(
    g: &AsGraph,
    n_timelines: usize,
    dests: &[AsId],
    cfg: &CampaignConfig,
    cache: &BaselineCache,
) {
    let fp = cfg.params.policy.fingerprint();
    for t in 0..n_timelines {
        for &dest in dests {
            for &seed in &cfg.seeds {
                let cell = CampaignCell {
                    timeline: t,
                    dest,
                    seed,
                };
                let seed = cell.engine_seed();
                for &p in &cfg.protocols {
                    if cache.get(p, dest, seed, fp).is_none() {
                        cache
                            .converge(g, &cfg.params, p, dest, seed)
                            // simlint::allow(panic, "destinations come from the campaign's own topology scan")
                            .expect("campaign destinations are in range");
                    }
                }
            }
        }
    }
}

/// The worker count `threads` asks for: itself, or one worker per
/// available core for 0. [`run_sharded`] resolves its `threads` here.
pub fn worker_count(threads: usize) -> usize {
    if threads > 0 {
        return threads;
    }
    // simlint::allow(ambient-env, "thread count only partitions work; each result depends on its index alone")
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The one parallel runner: evaluate `task(i)` for every `i` in
/// `0..tasks` across `threads` scoped workers (0 = all available cores;
/// never more workers than tasks) and return the results in index order.
///
/// Workers claim indices from an atomic counter, so a slow task never
/// holds up the queue behind it, and each result lands at its own index
/// however the threads interleave. A task must derive everything it
/// computes from its index alone; then the output is byte-identical at
/// any worker count.
pub fn run_sharded<T, F>(tasks: usize, threads: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = worker_count(threads).min(tasks.max(1));

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks {
                            break done;
                        }
                        done.push((i, task(i)));
                    }
                })
            })
            .collect();
        for w in workers {
            // simlint::allow(panic, "re-raises a worker's panic on the caller")
            for (i, r) in w.join().expect("runner worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        // simlint::allow(panic, "the atomic counter hands out every index exactly once")
        .map(|r| r.expect("every task ran"))
        .collect()
}

/// [`run_campaign`] with an optional warm-start [`BaselineCache`]: cells
/// whose converged baseline is cached fork from the checkpoint instead of
/// replaying convergence; missing baselines converge cold and are
/// deposited. The report — including its aggregate hash — is byte-
/// identical with or without a cache, at any worker count.
pub fn run_campaign_with_cache(
    g: &AsGraph,
    timelines: &[Timeline],
    dests: &[AsId],
    cfg: &CampaignConfig,
    cache: Option<&BaselineCache>,
) -> Result<CampaignReport, TimelineError> {
    // Validate the whole grid up front; workers may then expect().
    let mut removed_per_timeline = Vec::with_capacity(timelines.len());
    for t in timelines {
        t.resolve(g)?;
        removed_per_timeline.push(t.removed_links(g)?);
    }
    // Post-timeline reachability per (timeline, dest) — shared read-only.
    let reachable: Vec<Vec<Vec<bool>>> = removed_per_timeline
        .iter()
        .map(|removed| {
            let g_after = g.without_links(removed);
            dests
                .iter()
                .map(|&d| StaticRoutes::compute(&g_after, d).reachable_mask())
                .collect()
        })
        .collect();

    let mut cells = Vec::with_capacity(timelines.len() * dests.len() * cfg.seeds.len());
    for t in 0..timelines.len() {
        for (di, &dest) in dests.iter().enumerate() {
            for &seed in &cfg.seeds {
                cells.push((
                    CampaignCell {
                        timeline: t,
                        dest,
                        seed,
                    },
                    di,
                ));
            }
        }
    }

    let cells = run_sharded(cells.len(), cfg.threads, |i| {
        let (cell, di) = cells[i];
        let seed = cell.engine_seed();
        let metrics = cfg
            .protocols
            .iter()
            .map(|&p| {
                (
                    p,
                    run_protocol_cell_inner(
                        g,
                        &cfg.params,
                        &timelines[cell.timeline],
                        cell.dest,
                        &reachable[cell.timeline][di],
                        p,
                        seed,
                        cache,
                    ),
                )
            })
            .collect();
        CellResult { cell, metrics }
    });
    let mut h = Fnv1a::new();
    for c in &cells {
        h.write_u64(c.cell.timeline as u64);
        h.write_u64(c.cell.dest.0 as u64);
        h.write_u64(c.cell.seed);
        for (p, m) in &c.metrics {
            h.write_u64(p.discriminant());
            m.fnv_into(&mut h);
        }
    }
    Ok(CampaignReport {
        n_ases: g.n(),
        timeline_names: timelines.iter().map(|t| t.name().to_string()).collect(),
        cells,
        hash: h.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canned::{destination_candidates, sample_canned, FailureScenario};
    use crate::timeline::{flap_train, maintenance_windows, Timeline};
    use stamp_eventsim::{rng_stream, SimDuration};
    use stamp_topology::gen::{generate, GenConfig};

    fn grid(seed: u64) -> (AsGraph, Vec<Timeline>, Vec<AsId>) {
        let g = generate(&GenConfig::small(seed)).unwrap();
        let dests: Vec<AsId> = destination_candidates(&g).into_iter().take(2).collect();
        let d0 = dests[0];
        let p = g.providers(d0)[0];
        let timelines = vec![
            Timeline::from_events(
                "flap",
                flap_train(d0, p, SimDuration::ZERO, SimDuration::from_secs(2), 0.5, 3),
            ),
            Timeline::from_events(
                "maint",
                maintenance_windows(
                    &[p],
                    SimDuration::ZERO,
                    SimDuration::from_secs(10),
                    SimDuration::from_secs(30),
                ),
            ),
        ];
        (g, timelines, dests)
    }

    #[test]
    fn run_sharded_returns_results_in_index_order() {
        let serial = run_sharded(37, 1, |i| i * i);
        assert_eq!(serial, (0..37).map(|i| i * i).collect::<Vec<_>>());
        for threads in [0, 2, 5] {
            assert_eq!(run_sharded(37, threads, |i| i * i), serial);
        }
        // More workers than tasks: capped, same answer.
        assert_eq!(run_sharded(3, 8, |i| i + 1), vec![1, 2, 3]);
        assert!(run_sharded(0, 0, |i| i).is_empty());
    }

    #[test]
    fn campaign_is_deterministic_across_worker_counts() {
        let (g, timelines, dests) = grid(21);
        let mut cfg = CampaignConfig {
            params: RunParams::fast(),
            protocols: vec![Protocol::Bgp, Protocol::Stamp],
            seeds: vec![1, 2],
            threads: 1,
        };
        let serial = run_campaign(&g, &timelines, &dests, &cfg).unwrap();
        cfg.threads = 4;
        let parallel = run_campaign(&g, &timelines, &dests, &cfg).unwrap();
        assert_eq!(serial.hash, parallel.hash);
        assert_eq!(serial.cells, parallel.cells);
        assert_eq!(serial.cells.len(), 2 * 2 * 2);
    }

    #[test]
    fn aggregates_cover_the_grid() {
        let (g, timelines, dests) = grid(23);
        let cfg = CampaignConfig {
            params: RunParams::fast(),
            protocols: vec![Protocol::Bgp],
            seeds: vec![9],
            threads: 0,
        };
        let rep = run_campaign(&g, &timelines, &dests, &cfg).unwrap();
        for t in 0..timelines.len() {
            let agg = rep.aggregate(t, Protocol::Bgp);
            assert_eq!(agg.cells, dests.len());
            assert!(agg.affected_mean >= 0.0);
        }
        // An unknown protocol slice is empty, not a panic.
        assert_eq!(rep.aggregate(0, Protocol::Stamp).cells, 0);
    }

    #[test]
    fn canned_workload_cell_matches_protocol_expectations() {
        // A canned Figure-2 cell: a recovered network must end with zero
        // remaining problems, and STAMP must not do worse than the
        // AS-population bound.
        let g = generate(&GenConfig::small(41)).unwrap();
        let mut rng = rng_stream(3, stamp_eventsim::rng::tags::WORKLOAD);
        let w = sample_canned(&g, FailureScenario::SingleLink, &mut rng).unwrap();
        let removed = w.timeline.removed_links(&g).unwrap();
        let g_after = g.without_links(&removed);
        let reachable = StaticRoutes::compute(&g_after, w.dest).reachable_mask();
        let params = RunParams::fast();
        for p in Protocol::ALL {
            let m = run_protocol_cell(&g, &params, &w.timeline, w.dest, &reachable, p, 11);
            assert!(m.affected < g.n(), "{}", p.label());
            assert!(m.interned_paths > 0, "{}", p.label());
        }
    }
}
