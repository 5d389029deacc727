//! Exact loop/blackhole classification over a forwarding view.
//!
//! The view's `(AS, ctx)` states with their single successor form a
//! functional graph; walking it with memoisation classifies every state in
//! O(#states) total. An AS's outcome is the outcome of its start state.
//!
//! A [`ClassifyScratch`] keeps that classification across the observations
//! of one converging engine. An update re-evaluates `step`/`start_ctx`
//! only for ASes whose [`ForwardingView::versions`] key moved, invalidates
//! only the states upstream of a changed successor (through predecessor
//! lists over the compiled successors), and re-walks only the ASes whose
//! start state was invalidated: O(changed ASes + states upstream of them)
//! per observation. [`classify_all`] is simply the first (cold) update on
//! a fresh scratch.

use crate::view::{ForwardingView, Step};
use stamp_topology::AsId;

/// Fate of packets originated at an AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Packets reach the destination.
    Delivered,
    /// Packets cycle forever (transient routing loop).
    Loop,
    /// Packets are dropped (transient failure / blackhole).
    Blackhole,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    Unknown,
    OnPath,
    Done(Outcome),
}

/// Compiled-successor sentinel: the state delivers.
const DELIVER: u32 = u32::MAX;
/// Compiled-successor sentinel: the state drops.
const DROP: u32 = u32::MAX - 1;
/// Predecessor-list terminator.
const NIL: u32 = u32::MAX;
/// Version sentinel: this AS's compiled row must be rebuilt.
const NO_VERSION: u64 = u64::MAX;

/// Classification state kept across observations of one view lineage (one
/// engine and destination — versions from different engines are not
/// comparable). Owning it across ticks also means an observation loop
/// allocates nothing after the first observation.
///
/// Invariants between updates: every AS's start state is `Done`; a `Done`
/// state's successor is `Done` or a sentinel; `succ` holds each state's
/// successor as compiled at `versions`; and `pred_*` are the exact
/// predecessor lists of `succ`.
#[derive(Debug, Clone, Default)]
pub struct ClassifyScratch {
    /// The `(n, n_ctx)` shape the tables were built for.
    shape: (usize, usize),
    /// Restore epoch and liveness-change count of the last update (`None`:
    /// the next update is cold).
    epochs: Option<(u64, u64)>,
    /// Generation and length of the view's version log at the last update:
    /// the ASes that moved since are the log's entries past that length.
    log_seen: (u64, usize),
    /// Compiled successor state per `(AS, ctx)` (`DELIVER`/`DROP`
    /// sentinels, otherwise the next state's index).
    succ: Vec<u32>,
    /// Compiled start context per AS.
    starts: Vec<u8>,
    /// Local version each AS's compiled row was built at.
    versions: Vec<u64>,
    /// Intrusive doubly linked predecessor lists: `pred_head[t]` is the
    /// first state whose successor is `t`; `pred_next`/`pred_prev` chain
    /// the states sharing a successor.
    pred_head: Vec<u32>,
    pred_next: Vec<u32>,
    pred_prev: Vec<u32>,
    marks: Vec<Mark>,
    /// ASes compiled while their step read non-adjacent liveness since the
    /// liveness-change count last moved; `in_remote[a]` ⇔ `a` is listed.
    remote: Vec<AsId>,
    in_remote: Vec<bool>,
    /// ASes whose row the last update re-evaluated.
    recompiled: Vec<AsId>,
    /// ASes whose outcome the last update re-derived (may repeat).
    rechecked: Vec<AsId>,
    /// Work stack: the states whose successor the update changed, then the
    /// invalidation search over them, then each memoised walk's path.
    work: Vec<u32>,
}

/// Classify the fate of traffic from every AS towards the view's
/// destination. Index = AS id.
pub fn classify_all<V: ForwardingView + ?Sized>(view: &V) -> Vec<Outcome> {
    let mut scratch = ClassifyScratch::default();
    scratch.update(view);
    (0..view.n())
        .map(|a| scratch.outcome(AsId::from_usize(a)))
        .collect()
}

impl ClassifyScratch {
    /// Bring the classification up to date with `view`. Cold (every AS
    /// compiled and walked) on the first call, when the shape or the
    /// restore epoch changed, and always for views without versions.
    // simlint::hot
    pub fn update<V: ForwardingView + ?Sized>(&mut self, view: &V) {
        let n = view.n();
        let n_ctx = usize::from(view.n_ctx());
        assert!(
            n * n_ctx < DROP as usize,
            "state space too large for the compiled successor encoding"
        );
        self.recompiled.clear();
        self.rechecked.clear();
        self.work.clear();
        let versions = view.versions();
        let warm = self.shape == (n, n_ctx)
            && matches!((versions, self.epochs), (Some(v), Some((e, _))) if v.epoch == e);
        if !warm {
            self.reset(n, n_ctx);
            self.rechecked.extend((0..n).map(AsId::from_usize));
        }
        match versions {
            Some(v) => {
                debug_assert_eq!(v.local.len(), n);
                if self.epochs.is_some_and(|(_, r)| r != v.remote) {
                    // Liveness moved somewhere: rows that read non-adjacent
                    // sessions are stale. Recompiling may list an AS anew.
                    let stale = self.remote.len();
                    for k in 0..stale {
                        let a = self.remote[k];
                        self.in_remote[a.index()] = false;
                        self.versions[a.index()] = NO_VERSION;
                    }
                    for k in 0..stale {
                        let a = self.remote[k];
                        self.refresh(view, a, v.local[a.index()], n_ctx);
                    }
                    self.remote.drain(..stale);
                }
                let (gen, seen) = self.log_seen;
                if warm && gen == v.log_gen && seen <= v.log.len() {
                    for &a in &v.log[seen..] {
                        self.refresh(view, a, v.local[a.index()], n_ctx);
                    }
                } else {
                    for (a, &ver) in v.local.iter().enumerate() {
                        self.refresh(view, AsId::from_usize(a), ver, n_ctx);
                    }
                }
                self.log_seen = (v.log_gen, v.log.len());
                self.epochs = Some((v.epoch, v.remote));
            }
            None => {
                self.epochs = None;
                for a in 0..n {
                    self.compile(view, AsId::from_usize(a), n_ctx);
                }
            }
        }
        if warm {
            self.invalidate(n_ctx);
        }
        self.walk(n_ctx);
    }

    /// Outcome of traffic originated at `a` as of the last update.
    pub fn outcome(&self, a: AsId) -> Outcome {
        let (_, n_ctx) = self.shape;
        match self.marks[a.index() * n_ctx + usize::from(self.starts[a.index()])] {
            Mark::Done(o) => o,
            Mark::Unknown | Mark::OnPath => {
                debug_assert!(false, "start state of {a} unclassified after update");
                Outcome::Blackhole
            }
        }
    }

    /// ASes whose outcome the last update re-derived; every other AS's
    /// outcome is unchanged since the update before. Cold updates list
    /// every AS. May hold repeats.
    pub fn rechecked(&self) -> &[AsId] {
        &self.rechecked
    }

    /// ASes whose `step`/`start_ctx` the last update re-evaluated — a
    /// superset of those whose local version moved. Cold updates list
    /// every AS.
    pub fn recompiled(&self) -> &[AsId] {
        &self.recompiled
    }

    /// Drop every compiled row and classification: the next walk is cold.
    fn reset(&mut self, n: usize, n_ctx: usize) {
        let states = n * n_ctx;
        self.shape = (n, n_ctx);
        self.epochs = None;
        // A `DROP` successor is not linked into any predecessor list, so
        // empty lists and all-`DROP` rows agree.
        for (v, len, fill) in [
            (&mut self.succ, states, DROP),
            (&mut self.pred_head, states, NIL),
            (&mut self.pred_next, states, NIL),
            (&mut self.pred_prev, states, NIL),
        ] {
            v.clear();
            v.resize(len, fill);
        }
        self.starts.clear();
        self.starts.resize(n, 0);
        self.versions.clear();
        self.versions.resize(n, NO_VERSION);
        self.marks.clear();
        self.marks.resize(states, Mark::Unknown);
        self.remote.clear();
        self.in_remote.clear();
        self.in_remote.resize(n, false);
    }

    /// Recompile `a` unless its row was built at local version `ver`.
    fn refresh<V: ForwardingView + ?Sized>(&mut self, view: &V, a: AsId, ver: u64, n_ctx: usize) {
        if self.versions[a.index()] != ver {
            self.versions[a.index()] = ver;
            self.compile(view, a, n_ctx);
        }
    }

    /// Re-evaluate `a`'s start context and successors, relinking the
    /// predecessor lists of every successor that moved.
    fn compile<V: ForwardingView + ?Sized>(&mut self, view: &V, a: AsId, n_ctx: usize) {
        self.recompiled.push(a);
        let i = a.index();
        let start = view.start_ctx(a);
        if start != self.starts[i] {
            self.starts[i] = start;
            self.rechecked.push(a);
        }
        for ctx in 0..n_ctx {
            let s = i * n_ctx + ctx;
            let ctx8 = u8::try_from(ctx).unwrap_or(u8::MAX);
            let next = match view.step(a, ctx8) {
                Step::Deliver => DELIVER,
                Step::Drop => DROP,
                Step::Hop { to, ctx: nctx } => {
                    debug_assert!(nctx < view.n_ctx());
                    u32::try_from(to.index() * n_ctx + usize::from(nctx)).unwrap_or(DROP)
                }
            };
            let old = self.succ[s];
            if next == old {
                continue;
            }
            let s32 = u32::try_from(s).unwrap_or(NIL);
            if old < DROP {
                self.unlink(s32, old);
            }
            if next < DROP {
                self.link(s32, next);
            }
            self.succ[s] = next;
            self.work.push(s32);
        }
        if view.reads_remote(a) && !self.in_remote[i] {
            self.in_remote[i] = true;
            self.remote.push(a);
        }
    }

    /// Add `s` to the predecessor list of `t`.
    fn link(&mut self, s: u32, t: u32) {
        let head = self.pred_head[t as usize];
        self.pred_next[s as usize] = head;
        self.pred_prev[s as usize] = NIL;
        if head != NIL {
            self.pred_prev[head as usize] = s;
        }
        self.pred_head[t as usize] = s;
    }

    /// Remove `s` from the predecessor list of `t`.
    fn unlink(&mut self, s: u32, t: u32) {
        let (prev, next) = (self.pred_prev[s as usize], self.pred_next[s as usize]);
        if prev == NIL {
            self.pred_head[t as usize] = next;
        } else {
            self.pred_next[prev as usize] = next;
        }
        if next != NIL {
            self.pred_prev[next as usize] = prev;
        }
    }

    /// Forget the outcome of every changed state (the work stack) and of
    /// every state upstream of one; an AS whose start state is forgotten
    /// is rechecked. A search stops at `Unknown` states: by the invariant,
    /// nothing upstream of one is `Done`.
    fn invalidate(&mut self, n_ctx: usize) {
        while let Some(x) = self.work.pop() {
            let xi = x as usize;
            if self.marks[xi] == Mark::Unknown {
                continue;
            }
            self.marks[xi] = Mark::Unknown;
            let a = xi / n_ctx;
            if usize::from(self.starts[a]) == xi % n_ctx {
                self.rechecked.push(AsId::from_usize(a));
            }
            let mut p = self.pred_head[xi];
            while p != NIL {
                if self.marks[p as usize] != Mark::Unknown {
                    self.work.push(p);
                }
                p = self.pred_next[p as usize];
            }
        }
    }

    /// Classify the start state of every rechecked AS by walking the
    /// compiled functional graph, memoising every state it passes.
    fn walk(&mut self, n_ctx: usize) {
        let marks = &mut self.marks;
        let succ = &self.succ;
        for a in &self.rechecked {
            let start = a.index() * n_ctx + usize::from(self.starts[a.index()]);
            if matches!(marks[start], Mark::Done(_)) {
                continue;
            }
            let path = &mut self.work;
            path.clear();
            let mut cur = start;
            let outcome = loop {
                match marks[cur] {
                    Mark::Done(o) => break o,
                    Mark::OnPath => break Outcome::Loop,
                    Mark::Unknown => {
                        marks[cur] = Mark::OnPath;
                        path.push(u32::try_from(cur).unwrap_or(NIL));
                        match succ[cur] {
                            DELIVER => break Outcome::Delivered,
                            DROP => break Outcome::Blackhole,
                            next => cur = next as usize,
                        }
                    }
                }
            };
            // Every state on the walked path shares the outcome (it leads
            // there deterministically).
            for &s in path.iter() {
                marks[s as usize] = Mark::Done(outcome);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{StaticView, ViewVersions};
    use stamp_eventsim::check;
    use stamp_eventsim::Rng;

    fn v(next: Vec<Option<u32>>, origin: u32) -> StaticView {
        StaticView {
            next: next.into_iter().map(|o| o.map(AsId)).collect(),
            origin: AsId(origin),
        }
    }

    #[test]
    fn chain_delivers() {
        // 3 -> 2 -> 1 -> 0 (origin)
        let view = v(vec![None, Some(0), Some(1), Some(2)], 0);
        assert_eq!(classify_all(&view), vec![Outcome::Delivered; 4]);
    }

    #[test]
    fn missing_route_blackholes() {
        // 2 -> 1 -> (drop); 0 origin.
        let view = v(vec![None, None, Some(1)], 0);
        assert_eq!(
            classify_all(&view),
            vec![Outcome::Delivered, Outcome::Blackhole, Outcome::Blackhole]
        );
    }

    #[test]
    fn cycle_loops_including_feeders() {
        // 1 -> 2 -> 3 -> 1 cycle; 4 feeds into it; 0 origin isolated.
        let view = v(vec![None, Some(2), Some(3), Some(1), Some(1)], 0);
        let got = classify_all(&view);
        assert_eq!(got[0], Outcome::Delivered);
        for (i, o) in got.iter().enumerate().skip(1) {
            assert_eq!(*o, Outcome::Loop, "state {i}");
        }
    }

    #[test]
    fn self_loop_is_a_loop() {
        let view = v(vec![None, Some(1)], 0);
        assert_eq!(classify_all(&view), vec![Outcome::Delivered, Outcome::Loop]);
    }

    #[test]
    fn memoisation_consistent_across_sources() {
        // Two feeders into the same delivered chain.
        let view = v(vec![None, Some(0), Some(1), Some(1)], 0);
        assert_eq!(classify_all(&view), vec![Outcome::Delivered; 4]);
    }

    #[test]
    fn large_functional_graph_is_linear_time() {
        // A long chain: exercises the memoised walk on 100k states.
        let n = 100_000u32;
        let mut next = vec![None];
        for i in 1..n {
            next.push(Some(i - 1));
        }
        let view = v(next, 0);
        let got = classify_all(&view);
        assert!(got.iter().all(|o| *o == Outcome::Delivered));
    }

    /// A multi-context view over explicit tables, versioned like an engine
    /// (per-AS local versions, a bump log, a restore epoch and a
    /// liveness-change count) or not at all.
    struct Table {
        n_ctx: u8,
        /// Successor per `(AS, ctx)` state.
        steps: Vec<Step>,
        starts: Vec<u8>,
        /// Rows that may change with only `remote` moving.
        remote_rows: Vec<bool>,
        local: Vec<u64>,
        log: Vec<AsId>,
        log_gen: u64,
        epoch: u64,
        remote: u64,
        versioned: bool,
    }

    impl ForwardingView for Table {
        fn n(&self) -> usize {
            self.starts.len()
        }
        fn n_ctx(&self) -> u8 {
            self.n_ctx
        }
        fn start_ctx(&self, src: AsId) -> u8 {
            self.starts[src.index()]
        }
        fn step(&self, at: AsId, ctx: u8) -> Step {
            self.steps[at.index() * usize::from(self.n_ctx) + usize::from(ctx)]
        }
        fn selection_paths(&self, _v: AsId) -> Vec<Vec<AsId>> {
            Vec::new()
        }
        fn versions(&self) -> Option<ViewVersions<'_>> {
            self.versioned.then_some(ViewVersions {
                local: &self.local,
                log: &self.log,
                log_gen: self.log_gen,
                epoch: self.epoch,
                remote: self.remote,
            })
        }
        fn reads_remote(&self, at: AsId) -> bool {
            self.remote_rows[at.index()]
        }
    }

    /// A random successor, biased towards hops so that chains and cycles
    /// are common.
    fn random_step(rng: &mut Rng, n: usize, n_ctx: u8) -> Step {
        match rng.gen_range(0..10u32) {
            0 => Step::Deliver,
            1 => Step::Drop,
            _ => Step::Hop {
                to: AsId::from_usize(rng.gen_range(0..n)),
                ctx: u8::try_from(rng.gen_range(0..usize::from(n_ctx))).unwrap(),
            },
        }
    }

    impl Table {
        fn random(rng: &mut Rng, versioned: bool) -> Table {
            let n = rng.gen_range(1..40usize);
            let n_ctx = u8::try_from(rng.gen_range(1..5usize)).unwrap();
            Table {
                n_ctx,
                steps: (0..n * usize::from(n_ctx))
                    .map(|_| random_step(rng, n, n_ctx))
                    .collect(),
                starts: (0..n)
                    .map(|_| u8::try_from(rng.gen_range(0..usize::from(n_ctx))).unwrap())
                    .collect(),
                remote_rows: (0..n).map(|_| rng.gen_bool(0.2)).collect(),
                local: vec![0; n],
                log: Vec::new(),
                log_gen: 0,
                epoch: 0,
                remote: 0,
                versioned,
            }
        }

        /// Rewrite some of `a`'s row (successors, start, remote flag) and
        /// bump its local version, as a router event would.
        fn edit_local(&mut self, rng: &mut Rng, a: usize) {
            let (n, k) = (self.starts.len(), usize::from(self.n_ctx));
            for ctx in 0..k {
                if rng.gen_bool(0.6) {
                    self.steps[a * k + ctx] = random_step(rng, n, self.n_ctx);
                }
            }
            if rng.gen_bool(0.2) {
                self.starts[a] = u8::try_from(rng.gen_range(0..k)).unwrap();
            }
            if rng.gen_bool(0.2) {
                self.remote_rows[a] = !self.remote_rows[a];
            }
            self.local[a] += 1;
            self.log.push(AsId::from_usize(a));
        }

        /// Rewrite the successors of some remote-reading rows with only the
        /// liveness-change count moving, as a far link failure would.
        fn edit_remote(&mut self, rng: &mut Rng) {
            let (n, k) = (self.starts.len(), usize::from(self.n_ctx));
            for a in 0..n {
                if self.remote_rows[a] && rng.gen_bool(0.5) {
                    let ctx = rng.gen_range(0..k);
                    self.steps[a * k + ctx] = random_step(rng, n, self.n_ctx);
                }
            }
            self.remote += 1;
        }
    }

    /// Classify `view` incrementally and check every AS against a fresh
    /// cold classification; an AS whose outcome moved must be rechecked.
    fn check_against_fresh<V: ForwardingView>(
        scratch: &mut ClassifyScratch,
        before: &[Outcome],
        view: &V,
    ) -> Vec<Outcome> {
        scratch.update(view);
        let fresh = classify_all(view);
        for (i, &o) in fresh.iter().enumerate() {
            let a = AsId::from_usize(i);
            assert_eq!(scratch.outcome(a), o, "AS {i}");
            if before.get(i).is_some_and(|b| *b != o) {
                assert!(scratch.rechecked().contains(&a), "AS {i} moved unreported");
            }
        }
        fresh
    }

    #[test]
    fn incremental_updates_match_fresh_classification() {
        check::cases(300, 0x1AC2, |rng| {
            let versioned = rng.gen_bool(0.8);
            let mut t = Table::random(rng, versioned);
            let mut scratch = ClassifyScratch::default();
            let mut before = check_against_fresh(&mut scratch, &[], &t);
            for _ in 0..rng.gen_range(1..30usize) {
                let n = t.starts.len();
                for _ in 0..rng.gen_range(0..4usize) {
                    let a = rng.gen_range(0..n);
                    t.edit_local(rng, a);
                }
                if rng.gen_bool(0.3) {
                    t.edit_remote(rng);
                }
                if rng.gen_bool(0.1) {
                    // The log restarts: readers must fall back to a scan.
                    t.log.clear();
                    t.log_gen += 1;
                    let a = rng.gen_range(0..n);
                    t.edit_local(rng, a);
                }
                if rng.gen_bool(0.05) {
                    // A restore: anything may change (the shape too) and
                    // nothing is logged; only the epoch says so.
                    let (epoch, log_gen) = (t.epoch + 1, t.log_gen + 1);
                    t = Table::random(rng, versioned);
                    t.epoch = epoch;
                    t.log_gen = log_gen;
                }
                before = check_against_fresh(&mut scratch, &before, &t);
            }
        });
    }

    #[test]
    fn unversioned_static_view_edits_match_fresh_classification() {
        check::cases(200, 0x57A7, |rng| {
            let n = rng.gen_range(2..30usize);
            let mut view = StaticView {
                next: vec![None; n],
                origin: AsId(0),
            };
            let mut scratch = ClassifyScratch::default();
            let mut before = Vec::new();
            for _ in 0..rng.gen_range(1..20usize) {
                for _ in 0..rng.gen_range(1..5usize) {
                    let a = rng.gen_range(0..n);
                    view.next[a] = check::gen::option(rng, |r| AsId::from_usize(r.gen_range(0..n)));
                }
                before = check_against_fresh(&mut scratch, &before, &view);
                assert_eq!(
                    scratch.recompiled().len(),
                    n,
                    "unversioned views recompile all"
                );
            }
        });
    }
}
