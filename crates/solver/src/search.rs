//! Branch-and-bound depth-first search over the propagated state.
//!
//! The search mirrors what a CP solver does with the models CORNET
//! generates: smallest-domain-first variable selection, cost-ordered value
//! enumeration (so the first dive is a greedy warm start), and pruning by
//! a per-variable cost lower bound. Budgets on nodes and wall-clock time
//! make discovery time measurable — the quantity §4.2 evaluates. A first
//! descent whose pace projects past the wall-clock budget is abandoned at
//! once: without a leaf there is nothing to return, so waiting out the
//! budget would only delay the same `Unknown`.

use crate::propagate::Propagation;
use crate::state::State;
use cornet_model::{Model, VarId};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cooperative cancellation handle: cloned into each racing backend, set
/// once by whoever decides the race is over. A cancelled solve keeps its
/// incumbent and reports [`Outcome::Feasible`] (or [`Outcome::Unknown`]
/// when nothing was found yet) — cancellation never loses a solution.
#[derive(Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation (idempotent).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CancelToken({})", self.is_cancelled())
    }
}

/// Shared objective upper bound for portfolio racing: backends publish the
/// cost of every *checked-feasible* solution they find, and the exact
/// search prunes branches that provably cannot beat it. Pruning is strict
/// (`lb > bound` survives only `lb ≤ bound`) so an equal-cost incumbent is
/// still reachable — that keeps the final incumbent independent of *when*
/// a competitor published its bound, which is what makes portfolio racing
/// deterministic for completed searches.
#[derive(Clone)]
pub struct SharedIncumbent(Arc<AtomicI64>);

impl SharedIncumbent {
    /// A fresh bound at +∞ (no incumbent yet).
    pub fn new() -> Self {
        SharedIncumbent(Arc::new(AtomicI64::new(i64::MAX)))
    }

    /// Publish a feasible solution's cost; keeps the minimum.
    pub fn publish(&self, cost: i64) {
        self.0.fetch_min(cost, Ordering::Relaxed);
    }

    /// Current best published cost (`i64::MAX` when none).
    pub fn bound(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for SharedIncumbent {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for SharedIncumbent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedIncumbent({})", self.bound())
    }
}

/// Warm-start hint for incremental re-solve: the previous incumbent's
/// values, mapped onto the current model's variables. Three effects,
/// all deterministic:
///
/// 1. **Incumbent seeding** — when the hint covers every variable and
///    passes `Model::check` against the *current* model, it becomes the
///    initial incumbent (and is published to the shared bound), so the
///    search only explores strictly-better branches.
/// 2. **Pinning** (`pin = true`) — hinted variables are fixed before the
///    search starts, shrinking the problem to the un-hinted delta. If
///    pinning propagates to a conflict the solver falls back to an
///    unpinned cold search, so a stale hint can never cause a spurious
///    `Infeasible`.
/// 3. **Value ordering** — un-pinned hinted variables try their hinted
///    value first, keeping the dive close to the previous plan.
///
/// A pinned solve that exhausts its restricted search space reports
/// [`Outcome::Feasible`], never `Optimal`: optimality was only proved
/// relative to the pinned subspace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WarmStartHint {
    /// Hinted value per variable, indexed like `Model::vars`. Entries
    /// equal to [`WarmStartHint::NO_HINT`] carry no hint; `0`
    /// (unscheduled) is a legitimate hinted value.
    pub values: Vec<i64>,
    /// Fix hinted variables before searching (delta-local repair).
    pub pin: bool,
}

impl WarmStartHint {
    /// Sentinel for "no hint for this variable".
    pub const NO_HINT: i64 = i64::MIN;

    /// A pinning hint covering exactly the given values.
    pub fn pinned(values: Vec<i64>) -> Self {
        WarmStartHint { values, pin: true }
    }

    /// Hint for `var`, if any.
    pub fn hint(&self, var: usize) -> Option<i64> {
        self.values
            .get(var)
            .copied()
            .filter(|&v| v != Self::NO_HINT)
    }

    /// Number of hinted variables.
    pub fn hinted(&self) -> usize {
        self.values.iter().filter(|&&v| v != Self::NO_HINT).count()
    }

    /// Does the hint assign every one of `var_count` variables?
    pub fn is_complete(&self, var_count: usize) -> bool {
        self.values.len() == var_count && self.values.iter().all(|&v| v != Self::NO_HINT)
    }
}

/// Search configuration.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Maximum number of search nodes to expand.
    pub max_nodes: u64,
    /// Wall-clock budget. A first descent whose pace projects past it
    /// stops early ([`StopReason::DiveOverrun`]).
    pub time_limit: Duration,
    /// Order branch values by objective cost (greedy warm start). When
    /// false, values are tried in ascending numeric order — the ablation
    /// baseline for the warm-start design choice.
    pub cost_value_order: bool,
    /// Stop as soon as the first solution is recorded — the greedy
    /// warm-start dive exposed as a standalone fast backend.
    pub first_solution_only: bool,
    /// Cooperative cancellation hook (portfolio racing).
    pub cancel: Option<CancelToken>,
    /// Shared-incumbent bound hook: prune against (and publish to) the
    /// best checked-feasible cost any racing backend has found.
    pub incumbent: Option<SharedIncumbent>,
    /// Warm-start hint from a previous incumbent (incremental re-solve).
    pub warm_start: Option<WarmStartHint>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_nodes: 1_000_000,
            time_limit: Duration::from_secs(30),
            cost_value_order: true,
            first_solution_only: false,
            cancel: None,
            incumbent: None,
            warm_start: None,
        }
    }
}

/// Counters describing one solve.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SearchStats {
    /// Search nodes expanded.
    pub nodes: u64,
    /// Dead ends encountered.
    pub backtracks: u64,
    /// Improving solutions found.
    pub solutions: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Time at which the final incumbent was found.
    pub time_to_best: Duration,
    /// Why the search stopped.
    pub stop: StopReason,
}

/// Why a search stopped — the detail behind [`Outcome`]: an `Unknown`
/// that gave up on a hopeless first descent reads differently from one
/// that ran out of time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StopReason {
    /// The search space was exhausted (or root propagation failed).
    #[default]
    Complete,
    /// `first_solution_only` stopped at the first recorded solution, or
    /// a constructive backend (no search) returned the one plan it
    /// builds.
    FirstSolution,
    /// The wall-clock budget ran out.
    TimeLimit,
    /// The node budget ran out.
    NodeLimit,
    /// The cancel token was set.
    Cancelled,
    /// The first descent was projected to finish past the time limit.
    DiveOverrun,
}

impl StopReason {
    /// Stable snake_case name for spans and reports.
    pub fn name(self) -> &'static str {
        match self {
            StopReason::Complete => "complete",
            StopReason::FirstSolution => "first_solution",
            StopReason::TimeLimit => "time_limit",
            StopReason::NodeLimit => "node_limit",
            StopReason::Cancelled => "cancelled",
            StopReason::DiveOverrun => "dive_overrun",
        }
    }
}

/// How the solve ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Search space exhausted; the incumbent is optimal.
    Optimal,
    /// Budget exhausted with an incumbent in hand.
    Feasible,
    /// Search space exhausted with no solution.
    Infeasible,
    /// Budget exhausted before any solution was found.
    Unknown,
}

/// A feasible assignment and its objective cost.
#[derive(Clone, Debug, PartialEq)]
pub struct Solution {
    /// Value per variable, indexed like `Model::vars`.
    pub assignment: Vec<i64>,
    /// Objective cost of the assignment.
    pub cost: i64,
}

/// Result of a solve: outcome, best solution (if any), statistics.
#[derive(Clone, Debug)]
pub struct SolveResult {
    /// Termination category.
    pub outcome: Outcome,
    /// Best solution found.
    pub best: Option<Solution>,
    /// Search counters.
    pub stats: SearchStats,
}

impl SolveResult {
    /// Borrow the best solution or panic with a readable message.
    pub fn solution(&self) -> &Solution {
        self.best.as_ref().expect("no solution found")
    }
}

struct Searcher<'a> {
    model: &'a Model,
    prop: Propagation,
    state: State,
    config: &'a SolverConfig,
    root_min: Vec<i64>,
    best: Option<Solution>,
    stats: SearchStats,
    start: Instant,
    aborted: bool,
    /// Nodes between wall-clock checks, adapted to measured node cost so
    /// the overrun past `time_limit` stays bounded in *time*, not node
    /// count: big models spend far longer per node, and a fixed
    /// 1024-node stride let a 10 s budget overrun by whole seconds.
    clock_stride: u64,
    /// Next node count at which to read the clock.
    next_clock: u64,
    /// Elapsed time at the previous clock read (stride feedback).
    last_clock: Duration,
    /// Hinted variables were pinned: exhausting the search proves
    /// optimality only of the restricted subspace, so report Feasible.
    restricted: bool,
    /// While the first descent is still going down (no solution yet, no
    /// node unwound): elapsed time and fixed-variable count when it
    /// started, the baseline of the dive-overrun projection.
    descent: Option<(Duration, usize)>,
}

/// A first descent's pace is trusted after it has used this share of the
/// wall-clock budget (see `Searcher::dive_overruns`).
const DIVE_PROBE_SHARE: u32 = 8;

impl<'a> Searcher<'a> {
    fn new(model: &'a Model, config: &'a SolverConfig) -> Self {
        let root_min: Vec<i64> = model
            .vars
            .iter()
            .enumerate()
            .map(|(i, v)| {
                (v.lo..=v.hi)
                    .map(|val| model.objective.var_cost(VarId(i as u32), val))
                    .min()
                    .unwrap_or(0)
            })
            .collect();
        Searcher {
            model,
            prop: Propagation::new(model),
            state: State::new(model),
            config,
            root_min,
            best: None,
            stats: SearchStats::default(),
            start: Instant::now(),
            aborted: false,
            clock_stride: 8,
            next_clock: 0,
            last_clock: Duration::ZERO,
            restricted: false,
            descent: None,
        }
    }

    fn stop(&mut self, reason: StopReason) -> bool {
        self.aborted = true;
        self.stats.stop = reason;
        true
    }

    /// Would the first descent, at the rate it has fixed variables so
    /// far, fix the rest only after `time_limit`? A dive that cannot
    /// reach a leaf in time can only end in a time-out with nothing, so
    /// stopping it now returns the same `Unknown` without the wait.
    ///
    /// The pace is wall time, which also counts time the thread waited
    /// for a core. It is trusted only once the descent has run for
    /// `1/DIVE_PROBE_SHARE` of the budget: a stall early in a dive of
    /// true length `D` then stops it only if it exceeds about
    /// `(time_limit - D) / DIVE_PROBE_SHARE`, not a few milliseconds.
    fn dive_overruns(&self, now: Duration) -> bool {
        let Some((t0, fixed0)) = self.descent else {
            return false;
        };
        let ran = now.saturating_sub(t0);
        if ran < self.config.time_limit / DIVE_PROBE_SHARE {
            return false;
        }
        let fixed = self.state.fixed_count();
        let progress = fixed.saturating_sub(fixed0);
        if progress == 0 {
            return false;
        }
        let unfixed = (self.state.var_count() - fixed) as f64;
        let remaining = ran.as_secs_f64() * unfixed / progress as f64;
        now.as_secs_f64() + remaining > self.config.time_limit.as_secs_f64()
    }

    fn over_budget(&mut self) -> bool {
        if self.aborted {
            return true;
        }
        if self.stats.nodes >= self.config.max_nodes {
            return self.stop(StopReason::NodeLimit);
        }
        if self
            .config
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
        {
            return self.stop(StopReason::Cancelled);
        }
        // Instant::now is not free, so read the clock on a node stride.
        // The stride adapts to the measured time between reads (target
        // ~1 ms), which bounds the budget overrun in wall-clock terms no
        // matter how expensive a single node's propagation is.
        if self.stats.nodes >= self.next_clock {
            let now = self.start.elapsed();
            let gap = now.saturating_sub(self.last_clock);
            if gap < Duration::from_micros(500) {
                self.clock_stride = (self.clock_stride * 2).min(1024);
            } else if gap > Duration::from_millis(2) {
                self.clock_stride = (self.clock_stride / 2).max(1);
            }
            self.last_clock = now;
            self.next_clock = self.stats.nodes + self.clock_stride;
            if now >= self.config.time_limit {
                return self.stop(StopReason::TimeLimit);
            }
            if self.dive_overruns(now) {
                return self.stop(StopReason::DiveOverrun);
            }
        }
        false
    }

    /// Adopt a complete, checked-feasible hint as the initial incumbent.
    fn seed_from_hint(&mut self, ws: &WarmStartHint) {
        if !ws.is_complete(self.model.var_count()) {
            return;
        }
        let in_bounds = self
            .model
            .vars
            .iter()
            .zip(&ws.values)
            .all(|(var, &v)| var.lo <= v && v <= var.hi);
        if !in_bounds || self.model.check(&ws.values).is_err() {
            return;
        }
        let cost = self.model.cost(&ws.values);
        self.best = Some(Solution {
            assignment: ws.values.clone(),
            cost,
        });
        self.stats.solutions = 1;
        self.stats.time_to_best = self.start.elapsed();
        if let Some(inc) = &self.config.incumbent {
            inc.publish(cost);
        }
    }

    /// Fix every hinted variable and propagate. On conflict the state is
    /// rolled back and the solve degrades to an unpinned cold search —
    /// deterministically, since the rollback depends only on the model
    /// and the hint.
    fn pin_hints(&mut self, ws: &WarmStartHint) {
        let mark = self.state.mark();
        self.state.clear_changed();
        let mut pinned = 0usize;
        let mut ok = true;
        for vi in 0..self.state.var_count() {
            if let Some(v) = ws.hint(vi) {
                if self.state.fix(vi, v).is_err() {
                    ok = false;
                    break;
                }
                pinned += 1;
            }
        }
        if ok {
            let seeds = self.state.take_changed();
            ok = self
                .prop
                .propagate_from(self.model, &mut self.state, &seeds)
                .is_ok();
        }
        if ok {
            self.restricted = pinned > 0;
        } else {
            self.state.undo_to(mark);
            self.state.clear_changed();
        }
    }

    /// Pick the unfixed variable with the smallest domain.
    fn pick_var(&self) -> Option<usize> {
        let mut best: Option<(u32, usize)> = None;
        for vi in 0..self.state.var_count() {
            let d = self.state.domain(vi);
            if !d.is_fixed() {
                let size = d.len();
                if best.is_none_or(|(s, _)| size < s) {
                    if size == 2 {
                        return Some(vi); // can't do better than 2
                    }
                    best = Some((size, vi));
                }
            }
        }
        best.map(|(_, vi)| vi)
    }

    fn record_solution(&mut self) {
        let assignment = self.state.assignment();
        let cost = self.model.cost(&assignment);
        if self.best.as_ref().is_none_or(|b| cost < b.cost) {
            self.best = Some(Solution { assignment, cost });
            self.stats.solutions += 1;
            self.stats.time_to_best = self.start.elapsed();
            if let Some(inc) = &self.config.incumbent {
                inc.publish(cost);
            }
            if self.config.first_solution_only {
                self.stop(StopReason::FirstSolution);
            }
        }
    }

    fn search(&mut self, lb_acc: i64) {
        self.stats.nodes += 1;
        #[cfg(test)]
        tests::stall_if_due(self.stats.nodes);
        if self.over_budget() {
            return;
        }
        let Some(var) = self.pick_var() else {
            self.record_solution();
            return;
        };
        let mut values: Vec<i64> = self.state.domain(var).iter().collect();
        if self.config.cost_value_order {
            let vid = VarId(var as u32);
            values.sort_by_key(|&v| (self.model.objective.var_cost(vid, v), v));
        }
        // Un-pinned hinted variables try their previous value first.
        if let Some(h) = self.config.warm_start.as_ref().and_then(|ws| ws.hint(var)) {
            if let Some(pos) = values.iter().position(|&v| v == h) {
                values[..=pos].rotate_right(1);
            }
        }
        let vid = VarId(var as u32);
        for v in values {
            if self.aborted {
                return;
            }
            let branch_lb = lb_acc - self.root_min[var] + self.model.objective.var_cost(vid, v);
            if self.best.as_ref().is_some_and(|b| branch_lb >= b.cost) {
                continue;
            }
            // Shared-incumbent pruning is strict (`>`), so an equal-cost
            // solution of our own stays reachable — the final incumbent
            // never depends on when a competitor published its bound.
            if self
                .config
                .incumbent
                .as_ref()
                .is_some_and(|inc| branch_lb > inc.bound())
            {
                continue;
            }
            let mark = self.state.mark();
            self.state.clear_changed();
            let feasible = self.state.fix(var, v).is_ok() && {
                let seeds = self.state.take_changed();
                self.prop
                    .propagate_from(self.model, &mut self.state, &seeds)
                    .is_ok()
            };
            if feasible {
                self.search(branch_lb);
                // A node unwound: the first descent is over.
                self.descent = None;
            } else {
                self.stats.backtracks += 1;
            }
            self.state.undo_to(mark);
            self.state.clear_changed();
        }
    }
}

/// Solve a model to optimality or until the budget runs out.
pub fn solve(model: &Model, config: &SolverConfig) -> SolveResult {
    let mut s = Searcher::new(model, config);
    let root_ok = s.prop.propagate_all(model, &mut s.state).is_ok();
    if root_ok {
        if let Some(ws) = &config.warm_start {
            s.seed_from_hint(ws);
            if ws.pin {
                s.pin_hints(ws);
            }
        }
        let root_lb: i64 = s.root_min.iter().sum::<i64>() + model.objective.constant;
        // A seeded incumbent means the dive is no longer the only way to
        // an answer, so the overrun projection stays off.
        if s.best.is_none() {
            s.descent = Some((s.start.elapsed(), s.state.fixed_count()));
        }
        s.search(root_lb);
    }
    s.stats.elapsed = s.start.elapsed();
    let outcome = match (&s.best, s.aborted, root_ok) {
        (Some(_), false, _) if s.restricted => Outcome::Feasible,
        (Some(_), false, _) => Outcome::Optimal,
        (Some(_), true, _) => Outcome::Feasible,
        (None, false, _) | (None, _, false) => Outcome::Infeasible,
        (None, true, true) => Outcome::Unknown,
    };
    // Every returned solution must satisfy the model — in release builds
    // too: handing an invalid schedule to an operations team is strictly
    // worse than crashing, and the check is one linear pass per solve.
    if let Some(best) = &s.best {
        if let Err(e) = model.check(&best.assignment) {
            panic!("solver produced an invalid solution: {e}");
        }
    }
    SolveResult {
        outcome,
        best: s.best,
        stats: s.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_model::{CmpOp, ModelBuilder};

    fn cfg() -> SolverConfig {
        SolverConfig::default()
    }

    thread_local! {
        /// `(node, pause)`: the search on this thread sleeps once when it
        /// expands that node, as a preempted solver thread would.
        static STALL: std::cell::Cell<Option<(u64, Duration)>> =
            const { std::cell::Cell::new(None) };
    }

    pub(super) fn stall_if_due(node: u64) {
        if let Some((at, pause)) = STALL.get() {
            if node == at {
                STALL.set(None);
                std::thread::sleep(pause);
            }
        }
    }

    #[test]
    fn trivial_satisfaction() {
        let mut b = ModelBuilder::new("t", 3);
        b.slot_vars("X", 2);
        let m = b.build();
        let r = solve(&m, &cfg());
        assert_eq!(r.outcome, Outcome::Optimal);
        assert!(m.check(&r.solution().assignment).is_ok());
    }

    #[test]
    fn minimizes_completion_time() {
        // 3 nodes, capacity 1 per slot: optimal is slots {1,2,3} → cost 6.
        let mut b = ModelBuilder::new("t", 5);
        let vs = b.slot_vars("X", 3);
        b.capacity("cap", vs.clone(), vec![1; 3], 1);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &[1; 3], 100);
        let m = b.build();
        let r = solve(&m, &cfg());
        assert_eq!(r.outcome, Outcome::Optimal);
        assert_eq!(r.solution().cost, 6);
        let mut slots = r.solution().assignment.clone();
        slots.sort();
        assert_eq!(slots, vec![1, 2, 3]);
    }

    #[test]
    fn infeasible_when_capacity_too_small() {
        // 3 nodes, 2 slots, capacity 1, all must schedule: impossible.
        let mut b = ModelBuilder::new("t", 2);
        let vs = b.slot_vars("X", 3);
        b.capacity("cap", vs.clone(), vec![1; 3], 1);
        b.require_scheduled(&vs);
        let m = b.build();
        let r = solve(&m, &cfg());
        assert_eq!(r.outcome, Outcome::Infeasible);
        assert!(r.best.is_none());
    }

    #[test]
    fn respects_consistency_groups() {
        let mut b = ModelBuilder::new("t", 4);
        let vs = b.slot_vars("X", 4);
        b.same_value("usid", vec![vs[0], vs[1]]);
        b.same_value("usid", vec![vs[2], vs[3]]);
        b.capacity("cap", vs.clone(), vec![1; 4], 2);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &[1; 4], 100);
        let m = b.build();
        let r = solve(&m, &cfg());
        assert_eq!(r.outcome, Outcome::Optimal);
        let a = &r.solution().assignment;
        assert_eq!(a[0], a[1]);
        assert_eq!(a[2], a[3]);
        // Optimal: both pairs in slots 1 and 2 → cost 1+1+2+2 = 6.
        assert_eq!(r.solution().cost, 6);
    }

    #[test]
    fn soft_conflicts_avoided_when_cheap() {
        // One node; slot 1 carries a conflict penalty, slot 2 is free.
        let mut b = ModelBuilder::new("t", 2);
        let vs = b.slot_vars("X", 1);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &[1], 100);
        b.conflict_penalty(vs[0], 1, 1_000);
        let m = b.build();
        let r = solve(&m, &cfg());
        assert_eq!(r.solution().assignment, vec![2]);
    }

    #[test]
    fn conflict_taken_when_only_option() {
        let mut b = ModelBuilder::new("t", 1);
        let vs = b.slot_vars("X", 1);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &[1], 100);
        b.conflict_penalty(vs[0], 1, 1_000);
        let m = b.build();
        let r = solve(&m, &cfg());
        assert_eq!(r.solution().assignment, vec![1]);
        assert_eq!(r.solution().cost, 1 + 1_000);
    }

    #[test]
    fn uniformity_splits_timezones() {
        // Two east (-5) and two west (-8) nodes; spread cap 1h; slot cap 2.
        let mut b = ModelBuilder::new("t", 4);
        let vs = b.slot_vars("X", 4);
        b.max_spread("tz", vs.clone(), &[-5.0, -5.0, -8.0, -8.0], 1.0);
        b.capacity("cap", vs.clone(), vec![1; 4], 2);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &[1; 4], 100);
        let m = b.build();
        let r = solve(&m, &cfg());
        assert_eq!(r.outcome, Outcome::Optimal);
        let a = &r.solution().assignment;
        assert_eq!(a[0], a[1]);
        assert_eq!(a[2], a[3]);
        assert_ne!(a[0], a[2], "different timezones must take different slots");
    }

    #[test]
    fn localize_keeps_groups_contiguous() {
        // Two markets of 2 nodes, capacity 1/slot: each market must occupy
        // a contiguous pair of slots.
        let mut b = ModelBuilder::new("t", 4);
        let vs = b.slot_vars("X", 4);
        b.non_interleaved("loc", vs.clone(), vec![0, 0, 1, 1]);
        b.capacity("cap", vs.clone(), vec![1; 4], 1);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &[1; 4], 100);
        let m = b.build();
        let r = solve(&m, &cfg());
        assert_eq!(r.outcome, Outcome::Optimal);
        assert!(m.check(&r.solution().assignment).is_ok());
        assert_eq!(r.solution().cost, 1 + 2 + 3 + 4);
    }

    #[test]
    fn linear_constraint_respected() {
        let mut b = ModelBuilder::new("t", 5);
        let vs = b.slot_vars("X", 2);
        b.linear("sum", vec![(1, vs[0]), (1, vs[1])], CmpOp::Ge, 8);
        b.completion_objective(&vs, &[1, 1], 100);
        let m = b.build();
        let r = solve(&m, &cfg());
        assert_eq!(r.outcome, Outcome::Optimal);
        let a = &r.solution().assignment;
        assert_eq!(a[0] + a[1], 8, "minimum sum meeting the >= 8 bound");
    }

    #[test]
    fn node_budget_caps_search() {
        let mut b = ModelBuilder::new("t", 10);
        let vs = b.slot_vars("X", 12);
        b.capacity("cap", vs.clone(), vec![1; 12], 2);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &[1; 12], 100);
        let m = b.build();
        let tight = SolverConfig {
            max_nodes: 50,
            ..Default::default()
        };
        let r = solve(&m, &tight);
        assert!(r.stats.nodes <= 51);
        assert!(matches!(r.outcome, Outcome::Feasible | Outcome::Unknown));
    }

    #[test]
    fn first_solution_only_stops_at_greedy_dive() {
        let mut b = ModelBuilder::new("t", 5);
        let vs = b.slot_vars("X", 4);
        b.capacity("cap", vs.clone(), vec![1; 4], 1);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &[1; 4], 100);
        let m = b.build();
        let greedy = SolverConfig {
            first_solution_only: true,
            ..Default::default()
        };
        let r = solve(&m, &greedy);
        assert_eq!(r.outcome, Outcome::Feasible, "stopped early by design");
        assert_eq!(r.stats.solutions, 1);
        assert!(m.check(&r.solution().assignment).is_ok());
        // The greedy dive on this staircase model is already optimal.
        assert_eq!(r.solution().cost, 1 + 2 + 3 + 4);
    }

    #[test]
    fn cancellation_keeps_incumbent() {
        // Large-ish search space with instant first solutions: cancel from
        // another thread mid-search and check the incumbent survives.
        let mut b = ModelBuilder::new("t", 8);
        let vs = b.slot_vars("X", 10);
        b.capacity("cap", vs.clone(), vec![1; 10], 2);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &[1; 10], 100);
        let m = b.build();
        let cancel = CancelToken::new();
        let cfg = SolverConfig {
            cancel: Some(cancel.clone()),
            cost_value_order: false, // slow convergence → still running
            max_nodes: u64::MAX,
            ..Default::default()
        };
        let r = std::thread::scope(|scope| {
            let h = scope.spawn(|| solve(&m, &cfg));
            std::thread::sleep(Duration::from_millis(30));
            cancel.cancel();
            h.join().expect("solver thread")
        });
        assert!(r.best.is_some(), "cancellation must not lose the incumbent");
        assert!(m.check(&r.solution().assignment).is_ok());
        assert!(matches!(r.outcome, Outcome::Feasible | Outcome::Optimal));
    }

    #[test]
    fn pre_cancelled_solve_returns_unknown() {
        let mut b = ModelBuilder::new("t", 3);
        let vs = b.slot_vars("X", 3);
        b.require_scheduled(&vs);
        let m = b.build();
        let cancel = CancelToken::new();
        cancel.cancel();
        let cfg = SolverConfig {
            cancel: Some(cancel),
            ..Default::default()
        };
        let r = solve(&m, &cfg);
        assert_eq!(r.outcome, Outcome::Unknown);
        assert!(r.best.is_none());
    }

    #[test]
    fn shared_incumbent_prunes_but_allows_equal_cost() {
        // Publish the known optimum as an external bound before solving:
        // strict pruning must still let the solver find its own equal-cost
        // solution, so the result matches the un-hooked solve exactly.
        let mut b = ModelBuilder::new("t", 5);
        let vs = b.slot_vars("X", 4);
        b.capacity("cap", vs.clone(), vec![1; 4], 1);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &[1; 4], 100);
        let m = b.build();
        let solo = solve(&m, &cfg());
        let inc = SharedIncumbent::new();
        inc.publish(solo.solution().cost);
        let hooked = SolverConfig {
            incumbent: Some(inc.clone()),
            ..Default::default()
        };
        let r = solve(&m, &hooked);
        assert_eq!(r.outcome, Outcome::Optimal);
        assert_eq!(r.solution().assignment, solo.solution().assignment);
        assert_eq!(inc.bound(), solo.solution().cost);
        assert!(
            r.stats.nodes <= solo.stats.nodes,
            "external bound may only shrink the search"
        );
    }

    #[test]
    fn warm_start_pin_returns_hint_bit_identical() {
        // Solve cold, then re-solve with the incumbent pinned: the warm
        // solve must return the exact same assignment after expanding
        // only a single search node.
        let mut b = ModelBuilder::new("t", 6);
        let vs = b.slot_vars("X", 5);
        b.capacity("cap", vs.clone(), vec![1; 5], 2);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &[1; 5], 100);
        let m = b.build();
        let cold = solve(&m, &cfg());
        assert_eq!(cold.outcome, Outcome::Optimal);
        let warm_cfg = SolverConfig {
            warm_start: Some(WarmStartHint::pinned(cold.solution().assignment.clone())),
            ..Default::default()
        };
        let warm = solve(&m, &warm_cfg);
        assert_eq!(
            warm.outcome,
            Outcome::Feasible,
            "pinned ⇒ not provably optimal"
        );
        assert_eq!(warm.solution().assignment, cold.solution().assignment);
        assert_eq!(warm.solution().cost, cold.solution().cost);
        assert_eq!(warm.stats.nodes, 1, "everything pinned: no branching");
    }

    #[test]
    fn warm_start_partial_hint_solves_delta_only() {
        // Pin 3 of 5 variables from the cold solution; the search must
        // still produce a feasible schedule extending the pinned part.
        let mut b = ModelBuilder::new("t", 6);
        let vs = b.slot_vars("X", 5);
        b.capacity("cap", vs.clone(), vec![1; 5], 2);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &[1; 5], 100);
        let m = b.build();
        let cold = solve(&m, &cfg());
        let mut hint = vec![WarmStartHint::NO_HINT; 5];
        hint[..3].copy_from_slice(&cold.solution().assignment[..3]);
        let warm_cfg = SolverConfig {
            warm_start: Some(WarmStartHint::pinned(hint.clone())),
            ..Default::default()
        };
        let warm = solve(&m, &warm_cfg);
        assert!(matches!(warm.outcome, Outcome::Feasible));
        let a = &warm.solution().assignment;
        assert_eq!(a[..3], cold.solution().assignment[..3], "pinned vars moved");
        assert!(m.check(a).is_ok());
    }

    #[test]
    fn warm_start_infeasible_hint_falls_back_to_cold() {
        // A hint that violates the capacity must not poison the solve:
        // pinning fails, the solver falls back, and the result matches
        // the cold solve.
        let mut b = ModelBuilder::new("t", 4);
        let vs = b.slot_vars("X", 3);
        b.capacity("cap", vs.clone(), vec![1; 3], 1);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &[1; 3], 100);
        let m = b.build();
        let cold = solve(&m, &cfg());
        let bad = WarmStartHint::pinned(vec![1, 1, 1]); // capacity 1: conflict
        let warm_cfg = SolverConfig {
            warm_start: Some(bad),
            ..Default::default()
        };
        let warm = solve(&m, &warm_cfg);
        assert_eq!(
            warm.outcome,
            Outcome::Optimal,
            "fallback search is unrestricted"
        );
        assert_eq!(warm.solution().cost, cold.solution().cost);
    }

    #[test]
    fn warm_start_seeds_shared_incumbent() {
        let mut b = ModelBuilder::new("t", 5);
        let vs = b.slot_vars("X", 4);
        b.capacity("cap", vs.clone(), vec![1; 4], 1);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &[1; 4], 100);
        let m = b.build();
        let cold = solve(&m, &cfg());
        let inc = SharedIncumbent::new();
        let warm_cfg = SolverConfig {
            warm_start: Some(WarmStartHint::pinned(cold.solution().assignment.clone())),
            incumbent: Some(inc.clone()),
            ..Default::default()
        };
        let warm = solve(&m, &warm_cfg);
        assert_eq!(
            inc.bound(),
            cold.solution().cost,
            "hint published to the bound"
        );
        assert_eq!(warm.solution().assignment, cold.solution().assignment);
    }

    #[test]
    fn time_budget_overrun_is_bounded() {
        // A model large enough that nodes are slow: the wall-clock stop
        // must land close to the limit, not a node-stride late.
        let n = 600;
        let mut b = ModelBuilder::new("t", (n / 2) as u32);
        let vs = b.slot_vars("X", n);
        b.capacity("cap", vs.clone(), vec![1; n], 2);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &vec![1; n], 10_000);
        let m = b.build();
        let limit = Duration::from_millis(120);
        let tight = SolverConfig {
            time_limit: limit,
            max_nodes: u64::MAX,
            ..Default::default()
        };
        let r = solve(&m, &tight);
        assert!(
            r.stats.elapsed < limit + Duration::from_millis(400),
            "elapsed {:?} overran the {:?} budget",
            r.stats.elapsed,
            limit
        );
    }

    /// `n` slot variables in 40 slots under one capacity that fits them
    /// all: a first descent fixes one variable per node and never
    /// backtracks, and variable selection scans every domain, so it
    /// costs ~n² domain reads.
    fn one_capacity_model(n: usize) -> Model {
        let mut b = ModelBuilder::new("t", 40);
        let vs = b.slot_vars("X", n);
        b.capacity("cap", vs.clone(), vec![1; n], (n / 40 + 1) as i64);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &vec![1; n], 1_000);
        b.build()
    }

    #[test]
    fn hopeless_first_dive_stops_early_with_dive_overrun() {
        // A descent through 50k variables takes many seconds in any
        // build. The search must see that from its measured pace and
        // give up once the pace is trusted (an eighth of the budget),
        // not wait the budget out.
        let n = 50_000;
        let m = one_capacity_model(n);
        let limit = Duration::from_secs(1);
        for first_solution_only in [false, true] {
            let r = solve(
                &m,
                &SolverConfig {
                    time_limit: limit,
                    max_nodes: u64::MAX,
                    first_solution_only,
                    ..Default::default()
                },
            );
            assert_eq!(r.outcome, Outcome::Unknown);
            assert!(r.best.is_none());
            assert_eq!(r.stats.stop, StopReason::DiveOverrun);
            assert!(
                r.stats.nodes < n as u64 / 25,
                "{} nodes of a {n}-variable dive",
                r.stats.nodes
            );
            assert!(
                r.stats.elapsed < limit / 2,
                "gave up after {:?} of a {limit:?} budget",
                r.stats.elapsed
            );
        }
    }

    #[test]
    fn early_stall_does_not_stop_a_dive_that_fits() {
        // A 1500-variable dive timed in this build, then rerun with six
        // times that as its budget and a pause of a quarter of the dive
        // at its second node, as a lost time slice would cause. Judged
        // from its first few nodes the dive would look hopeless; the
        // rule waits for an eighth of the budget and lets it finish.
        let m = one_capacity_model(1_500);
        let first = |time_limit| SolverConfig {
            time_limit,
            max_nodes: u64::MAX,
            first_solution_only: true,
            ..Default::default()
        };
        let free = solve(&m, &first(Duration::from_secs(3_600)));
        assert!(free.best.is_some());
        let dive = free.stats.elapsed;
        STALL.set(Some((2, dive / 4)));
        let r = solve(&m, &first(dive * 6));
        assert_eq!(STALL.get(), None, "the stall was injected");
        assert_eq!(r.stats.stop, StopReason::FirstSolution);
        assert_eq!(r.outcome, Outcome::Feasible);
        assert_eq!(r.best, free.best);
    }

    #[test]
    fn stop_reason_names_each_way_a_search_ends() {
        let mut b = ModelBuilder::new("t", 8);
        let vs = b.slot_vars("X", 10);
        b.capacity("cap", vs.clone(), vec![1; 10], 2);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &[1; 10], 100);
        let m = b.build();
        let stop = |config: SolverConfig| solve(&m, &config).stats.stop;
        assert_eq!(
            stop(SolverConfig {
                max_nodes: 5,
                ..cfg()
            }),
            StopReason::NodeLimit
        );
        assert_eq!(
            stop(SolverConfig {
                first_solution_only: true,
                ..cfg()
            }),
            StopReason::FirstSolution
        );
        let cancel = CancelToken::new();
        cancel.cancel();
        assert_eq!(
            stop(SolverConfig {
                cancel: Some(cancel),
                ..cfg()
            }),
            StopReason::Cancelled
        );
        assert_eq!(
            stop(SolverConfig {
                time_limit: Duration::ZERO,
                ..cfg()
            }),
            StopReason::TimeLimit
        );
        let mut small = ModelBuilder::new("t", 3);
        let xs = small.slot_vars("X", 2);
        small.completion_objective(&xs, &[1, 1], 100);
        let r = solve(&small.build(), &cfg());
        assert_eq!(r.stats.stop, StopReason::Complete);
        assert_eq!(StopReason::DiveOverrun.name(), "dive_overrun");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// A dive that fits its budget is never cut short: with the node
        /// budget as the only binding limit, a 10 s and a 1 h time limit
        /// give bit-identical results. Up to 80 variables, so first dives
        /// cross several clock reads (nodes 9, 25, 57). The projection
        /// itself is only consulted after an eighth of the budget;
        /// `early_stall_does_not_stop_a_dive_that_fits` exercises it.
        #[test]
        fn dive_rule_never_fires_on_a_dive_that_fits(
            n in 1usize..80,
            slots in 1u32..7,
            cap in 1i64..4,
            paired in proptest::prelude::any::<bool>(),
            required in proptest::prelude::any::<bool>(),
            max_nodes in 1u64..400,
        ) {
            let mut b = ModelBuilder::new("prop", slots);
            let vs = b.slot_vars("X", n);
            b.capacity("cap", vs.clone(), vec![1; n], cap);
            if paired && n >= 2 {
                b.same_value("pair", vec![vs[0], vs[1]]);
            }
            if required {
                b.require_scheduled(&vs);
            }
            b.completion_objective(&vs, &vec![1; n], 1_000);
            let m = b.build();
            let run = |secs| {
                let r = solve(&m, &SolverConfig {
                    max_nodes,
                    time_limit: Duration::from_secs(secs),
                    ..Default::default()
                });
                let mut stats = r.stats;
                stats.elapsed = Duration::ZERO;
                stats.time_to_best = Duration::ZERO;
                (r.outcome, r.best, stats)
            };
            let short = run(10);
            proptest::prop_assert_ne!(short.2.stop, StopReason::DiveOverrun);
            proptest::prop_assert_eq!(short, run(3_600));
        }
    }

    #[test]
    fn value_order_ablation_still_correct() {
        let mut b = ModelBuilder::new("t", 3);
        let vs = b.slot_vars("X", 3);
        b.capacity("cap", vs.clone(), vec![1; 3], 1);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &[1; 3], 100);
        let m = b.build();
        let no_warm = SolverConfig {
            cost_value_order: false,
            ..Default::default()
        };
        let r = solve(&m, &no_warm);
        assert_eq!(r.outcome, Outcome::Optimal);
        assert_eq!(r.solution().cost, 6);
    }
}
