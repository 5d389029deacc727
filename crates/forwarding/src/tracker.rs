//! Transient-problem accumulation across a convergence window.

use crate::trace::{ClassifyScratch, Outcome};
use crate::view::{ForwardingView, SelectionKey};
use stamp_bgp::types::RootCause;
use stamp_topology::AsId;

/// Accumulates "ASes with transient problems" over the observation points
/// of one convergence episode, per the paper's metric (Figures 2/3):
/// an AS is affected if at any instant its traffic loops or blackholes
/// *while the post-event topology still offers it a valley-free path*.
///
/// Observations are incremental: the classification scratch reports which
/// ASes' outcomes it re-derived, and only those update the flags and the
/// live loop/blackhole counts; the control pass visits only the ASes the
/// scratch recompiled.
#[derive(Debug, Clone)]
pub struct TransientTracker {
    /// The destination AS (its own fate is not counted).
    dest: AsId,
    /// Whether each AS can still reach the destination after the event
    /// (set from the static solver on the surviving topology).
    reachable: Vec<bool>,
    affected: Vec<bool>,
    affected_by_loop: Vec<bool>,
    affected_by_blackhole: Vec<bool>,
    /// Companion control-plane metric ("affected in some ways"): ASes that
    /// adopted a selection invalidated by the event (or emptied their
    /// table) at some observation instant. Empty `causes` disables it.
    causes: Vec<RootCause>,
    /// Pre-event selection paths per AS (adoption = deviation from these).
    /// Only populated for ASes the baseline view could not key — when
    /// compact keys are available the materialised paths are never needed
    /// (key inequality already proves the selection set changed).
    baseline: Vec<Vec<Vec<AsId>>>,
    /// Pre-event selection keys per AS (`None` = compare paths instead).
    baseline_keys: Vec<Option<SelectionKey>>,
    control_affected: Vec<bool>,
    /// Total observations in which at least one AS looped.
    pub observations_with_loops: u64,
    /// Total observations in which at least one AS blackholed.
    pub observations_with_blackholes: u64,
    /// Number of observation points recorded.
    pub observations: u64,
    /// Whether the most recent observation saw any loop or blackhole
    /// (harnesses use it to timestamp data-plane recovery).
    pub last_observation_had_problems: bool,
    /// Classification kept across observations: observations after the
    /// first allocate nothing.
    scratch: ClassifyScratch,
    /// Each counted AS's outcome at the last classification (`Delivered`
    /// before the first).
    outcomes: Vec<Outcome>,
    /// Counted ASes (reachable, not the destination) whose outcome at the
    /// last observation was a loop / a blackhole.
    looping: usize,
    blackholing: usize,
    /// Counted ASes found looping or blackholing by [`Self::arm`]: the
    /// next observation flags those still in that state.
    primed_bad: Vec<AsId>,
}

impl TransientTracker {
    /// Tracker for `n` ASes towards `dest`; `reachable[v]` must hold the
    /// post-event reachability of each AS.
    pub fn new(dest: AsId, reachable: Vec<bool>) -> TransientTracker {
        let n = reachable.len();
        TransientTracker {
            dest,
            reachable,
            affected: vec![false; n],
            affected_by_loop: vec![false; n],
            affected_by_blackhole: vec![false; n],
            causes: Vec::new(),
            baseline: vec![Vec::new(); n],
            baseline_keys: vec![None; n],
            control_affected: vec![false; n],
            observations_with_loops: 0,
            observations_with_blackholes: 0,
            observations: 0,
            last_observation_had_problems: false,
            scratch: ClassifyScratch::default(),
            outcomes: vec![Outcome::Delivered; n],
            looping: 0,
            blackholing: 0,
            primed_bad: Vec::new(),
        }
    }

    /// Arm the tracker at the pre-event baseline (`baseline_view`, the
    /// same engine that later observations view). Enables the control-plane
    /// companion metric — `causes` identifies the event, and selections
    /// are sampled *before* injection so only post-event adoptions count —
    /// and classifies the pre-event state, so the first observation is
    /// incremental too. Records nothing: flags and observation counts move
    /// only in [`Self::observe`].
    pub fn arm<V: ForwardingView + ?Sized>(&mut self, causes: Vec<RootCause>, baseline_view: &V) {
        for i in 0..self.baseline.len() {
            let v = AsId::from_usize(i);
            self.baseline_keys[i] = baseline_view.selection_key(v);
            if self.baseline_keys[i].is_none() {
                self.baseline[i] = baseline_view.selection_paths(v);
            }
        }
        self.causes = causes;
        // The ASes this update recompiles need no control check: their
        // selections are the baseline just sampled.
        self.scratch.update(baseline_view);
        self.absorb(false);
    }

    /// Record one observation point (typically: after every batch of
    /// simultaneous events that changed a FIB).
    // simlint::hot
    pub fn observe<V: ForwardingView + ?Sized>(&mut self, view: &V) {
        self.observations += 1;
        self.scratch.update(view);
        self.absorb(true);
        // Problems `arm` saw that nothing has changed since are still
        // problems at this instant.
        for k in 0..self.primed_bad.len() {
            let i = self.primed_bad[k].index();
            self.flag(i, self.outcomes[i]);
        }
        self.primed_bad.clear();
        if self.looping > 0 {
            self.observations_with_loops += 1;
        }
        if self.blackholing > 0 {
            self.observations_with_blackholes += 1;
        }
        self.last_observation_had_problems = self.looping > 0 || self.blackholing > 0;
        if !self.causes.is_empty() {
            self.observe_control(view);
        }
    }

    /// Fold the outcomes the last scratch update re-derived into the
    /// per-AS outcomes and live counts; flag counted ASes now looping or
    /// blackholing if this is an observation, or remember them for the
    /// next one.
    fn absorb(&mut self, observed: bool) {
        for k in 0..self.scratch.rechecked().len() {
            let a = self.scratch.rechecked()[k];
            let i = a.index();
            if a == self.dest || !self.reachable[i] {
                continue;
            }
            let now = self.scratch.outcome(a);
            let was = std::mem::replace(&mut self.outcomes[i], now);
            if was != now {
                match was {
                    Outcome::Delivered => {}
                    Outcome::Loop => self.looping -= 1,
                    Outcome::Blackhole => self.blackholing -= 1,
                }
                match now {
                    Outcome::Delivered => {}
                    Outcome::Loop => self.looping += 1,
                    Outcome::Blackhole => self.blackholing += 1,
                }
            }
            if observed {
                self.flag(i, now);
            } else if now != Outcome::Delivered {
                self.primed_bad.push(a);
            }
        }
    }

    /// Mark AS `i` affected by a loop or a blackhole (nothing for
    /// `Delivered`).
    fn flag(&mut self, i: usize, o: Outcome) {
        match o {
            Outcome::Delivered => {}
            Outcome::Loop => {
                self.affected[i] = true;
                self.affected_by_loop[i] = true;
            }
            Outcome::Blackhole => {
                self.affected[i] = true;
                self.affected_by_blackhole[i] = true;
            }
        }
    }

    /// Control-plane pass: an AS is "affected in some ways" when its
    /// selection set changed from the pre-event baseline and every selected
    /// path is invalidated by the event (or the set is empty). Only ASes
    /// the scratch recompiled can have changed selections: an unmoved
    /// version means the selection is identical to the last observation,
    /// whose verdict (not affected) still stands — causes and reachability
    /// are fixed for the tracker's lifetime.
    // simlint::hot
    fn observe_control<V: ForwardingView + ?Sized>(&mut self, view: &V) {
        for &v in self.scratch.recompiled() {
            let i = v.index();
            if v == self.dest || !self.reachable[i] || self.control_affected[i] {
                continue;
            }
            // Fast path: when both sides have compact keys, key equality is
            // path equality and no path is ever materialised. On key
            // mismatch the selection set *definitely* changed.
            let unchanged = match (view.selection_key(v), self.baseline_keys[i]) {
                (Some(k), Some(bk)) => k == bk,
                _ => view.selection_paths(v) == self.baseline[i],
            };
            if !unchanged && view.selection_invalidated(v, &self.causes) {
                self.control_affected[i] = true;
            }
        }
    }

    /// Number of ASes that experienced a transient problem so far.
    pub fn affected_count(&self) -> usize {
        self.affected.iter().filter(|a| **a).count()
    }

    /// Number of ASes that experienced a transient loop.
    pub fn loop_count(&self) -> usize {
        self.affected_by_loop.iter().filter(|a| **a).count()
    }

    /// Number of ASes that experienced a transient blackhole.
    pub fn blackhole_count(&self) -> usize {
        self.affected_by_blackhole.iter().filter(|a| **a).count()
    }

    /// Number of ASes flagged by the control-plane companion metric.
    pub fn control_affected_count(&self) -> usize {
        self.control_affected.iter().filter(|a| **a).count()
    }

    /// Per-AS affected flags.
    pub fn affected(&self) -> &[bool] {
        &self.affected
    }

    /// Per-AS control-plane companion flags.
    pub fn control_affected(&self) -> &[bool] {
        &self.control_affected
    }

    /// Fate of traffic from `v` as of the last observation (or
    /// [`Self::arm`], if none has followed it). Every AS is classified,
    /// counted or not. Panics before the first of either.
    pub fn outcome(&self, v: AsId) -> Outcome {
        self.scratch.outcome(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::StaticView;

    fn v(next: Vec<Option<u32>>, origin: u32) -> StaticView {
        StaticView {
            next: next.into_iter().map(|o| o.map(AsId)).collect(),
            origin: AsId(origin),
        }
    }

    #[test]
    fn accumulates_across_observations() {
        let mut t = TransientTracker::new(AsId(0), vec![true; 4]);
        // First instant: 3 blackholes, others fine.
        t.observe(&v(vec![None, Some(0), Some(1), None], 0));
        assert_eq!(t.affected_count(), 1);
        // Second instant: 3 recovered, 2 loops with 1.
        t.observe(&v(vec![None, Some(2), Some(1), Some(2)], 0));
        // 1 and 2 loop; 3 feeds the loop. All three affected now.
        assert_eq!(t.affected_count(), 3);
        // Recovery does not un-affect anyone.
        t.observe(&v(vec![None, Some(0), Some(1), Some(2)], 0));
        assert_eq!(t.affected_count(), 3);
        assert_eq!(t.observations, 3);
        assert_eq!(t.observations_with_loops, 1);
        assert_eq!(t.observations_with_blackholes, 1);
    }

    #[test]
    fn unreachable_ases_do_not_count() {
        // AS 2 permanently partitioned: its blackhole is not transient.
        let mut t = TransientTracker::new(AsId(0), vec![true, true, false]);
        t.observe(&v(vec![None, Some(0), None], 0));
        assert_eq!(t.affected_count(), 0);
    }

    #[test]
    fn destination_not_counted() {
        let mut t = TransientTracker::new(AsId(0), vec![true, true]);
        // Origin "blackholes" by definition in a malformed view; must not
        // count.
        t.observe(&v(vec![None, Some(0)], 0));
        assert_eq!(t.affected_count(), 0);
    }
}
