//! Pluggable solver backends (§3.3): one intent translation, many solvers.
//!
//! The paper's planner compiles intent to MiniZinc and hands it to
//! interchangeable optimization backends (OR-Tools CP, CBC) plus the
//! Appendix C heuristic. This module is that seam for the workspace: every
//! solving strategy implements [`SolverBackend`] over the shared
//! [`Translation`] IR, and [`PortfolioBackend`] races them with cooperative
//! cancellation and shared-incumbent pruning.
//!
//! Determinism contract: a backend's *result* (assignment + outcome for a
//! completed search) must not depend on wall-clock timing. The portfolio
//! therefore
//!
//! * waits for every member (it only cancels the rest once the exact
//!   backend has *proved* optimality, in which case the exact result wins
//!   selection no matter what the others would have returned);
//! * lets only the exact backend prune against the shared incumbent — and
//!   the solver prunes strictly (`bound >` incumbent), so an equal-cost
//!   optimum is never cut and a completed exact search returns the same
//!   incumbent it would have found running solo;
//! * publishes a member's cost to the shared incumbent only after
//!   `model.check` passes, so an infeasible heuristic sketch can never
//!   prune the true optimum;
//! * picks the winner by (feasibility, model cost, fixed member order) —
//!   never by who finished first.

use crate::decompose::{reconcile, shard_translation};
use crate::heuristic::{heuristic_schedule_units, HeuristicConfig};
use crate::intent::PlanIntent;
use crate::translate::Translation;
use crate::warm::WarmStart;
use cornet_model::Model;
use cornet_obs::{ActiveSpan, SpanId, Tracer};
use cornet_solver::{
    solve, CancelToken, Outcome, SearchStats, SharedIncumbent, SolveResult, SolverConfig,
    StopReason,
};
use cornet_types::{ConflictTable, CornetError, Inventory, NodeId, Result};
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which backend the planner should use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// Exact branch & bound CP solver (proves optimality under budget).
    #[default]
    Exact,
    /// The exact solver's greedy warm-start dive, stopped at the first
    /// solution — a fast feasibility backend.
    Greedy,
    /// Algorithm 1 (Appendix C): timezone-sequenced market-permutation
    /// local search over the translation's units.
    Heuristic,
    /// Race exact, greedy and heuristic; deterministic winner.
    Portfolio,
    /// Shard the translation by timezone/market, race a portfolio per
    /// shard with apportioned capacities, then reconcile shared capacity
    /// across shards (§3.3.3 idea (b) taken past independent components).
    Sharded,
}

impl BackendChoice {
    /// Parse a CLI-facing backend name.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "exact" => Ok(BackendChoice::Exact),
            "greedy" => Ok(BackendChoice::Greedy),
            "heuristic" => Ok(BackendChoice::Heuristic),
            "portfolio" => Ok(BackendChoice::Portfolio),
            "sharded" => Ok(BackendChoice::Sharded),
            other => Err(CornetError::Parse(format!(
                "unknown backend {other:?} (expected exact|greedy|heuristic|portfolio|sharded)"
            ))),
        }
    }

    /// The CLI-facing name.
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::Exact => "exact",
            BackendChoice::Greedy => "greedy",
            BackendChoice::Heuristic => "heuristic",
            BackendChoice::Portfolio => "portfolio",
            BackendChoice::Sharded => "sharded",
        }
    }

    /// Instantiate the backend with the planner's configuration.
    pub fn instantiate(
        self,
        solver: &SolverConfig,
        heuristic: &HeuristicConfig,
    ) -> Box<dyn SolverBackend> {
        match self {
            BackendChoice::Exact => Box::new(ExactBackend {
                config: solver.clone(),
            }),
            BackendChoice::Greedy => Box::new(GreedyBackend {
                config: solver.clone(),
            }),
            BackendChoice::Heuristic => Box::new(HeuristicBackend {
                config: heuristic.clone(),
                capacity_override: None,
            }),
            BackendChoice::Portfolio => Box::new(PortfolioBackend::standard(solver, heuristic)),
            BackendChoice::Sharded => Box::new(ShardedBackend::standard(solver, heuristic)),
        }
    }
}

/// Search budget shared by all backends (the solver's node and wall-clock
/// limits, lifted out of `SolverConfig` so non-CP backends honor them too).
#[derive(Clone, Debug)]
pub struct Budget {
    /// Maximum search nodes (exact/greedy backends).
    pub max_nodes: u64,
    /// Wall-clock limit.
    pub time_limit: Duration,
}

impl Budget {
    /// Lift the budget fields out of a solver configuration.
    pub fn from_config(config: &SolverConfig) -> Self {
        Budget {
            max_nodes: config.max_nodes,
            time_limit: config.time_limit,
        }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::from_config(&SolverConfig::default())
    }
}

/// Everything a backend may consult: the shared [`Translation`] IR (model,
/// units, slots, window) plus the source intent and inventory that
/// unit-level backends like the heuristic need.
#[derive(Clone)]
pub struct SolveContext<'a> {
    /// The translated model and its decode tables.
    pub translation: &'a Translation,
    /// Node inventory (attribute lookups for the heuristic).
    pub inventory: &'a Inventory,
    /// The source intent (capacity and tolerance knobs).
    pub intent: &'a PlanIntent,
    /// Resolved conflict table.
    pub conflicts: &'a ConflictTable,
    /// Shared-incumbent hook, set by the portfolio driver. Only the exact
    /// backend prunes against it; see the module docs for why.
    pub incumbent: Option<SharedIncumbent>,
    /// Observability handle; every backend run records a `solve.<name>`
    /// span on it (noop by default).
    pub tracer: Tracer,
    /// Parent for backend spans (the planner's `plan` span, or the
    /// portfolio's own span for member runs).
    pub span_parent: Option<SpanId>,
    /// Warm-start hints from a prior plan; the exact backend seeds its
    /// incumbent and pins matched units from it.
    pub warm: Option<Arc<WarmStart>>,
}

impl<'a> SolveContext<'a> {
    /// Context over a translation with no shared incumbent.
    pub fn new(
        translation: &'a Translation,
        inventory: &'a Inventory,
        intent: &'a PlanIntent,
        conflicts: &'a ConflictTable,
    ) -> Self {
        SolveContext {
            translation,
            inventory,
            intent,
            conflicts,
            incumbent: None,
            tracer: Tracer::noop(),
            span_parent: None,
            warm: None,
        }
    }

    /// Attach a tracer; backend spans nest under `parent`.
    pub fn with_trace(mut self, tracer: Tracer, parent: Option<SpanId>) -> Self {
        self.tracer = tracer;
        self.span_parent = parent;
        self
    }

    /// Attach warm-start hints from a prior plan.
    pub fn with_warm_start(mut self, warm: Arc<WarmStart>) -> Self {
        self.warm = Some(warm);
        self
    }
}

/// Open the span every backend run records.
fn open_solve_span(ctx: &SolveContext<'_>, name: &'static str) -> ActiveSpan {
    ctx.tracer
        .span_with_parent(&format!("solve.{name}"), ctx.span_parent)
}

/// Close a backend-run span with the outcome attributes shared by every
/// backend: termination category and why the search stopped, cost,
/// feasibility, budget consumption and whether the run was cancelled
/// under it.
fn close_solve_span(
    ctx: &SolveContext<'_>,
    mut span: ActiveSpan,
    name: &'static str,
    budget: &Budget,
    cancel: &CancelToken,
    result: &BackendResult,
) {
    if !span.is_recording() {
        return;
    }
    span.attr("outcome", format!("{:?}", result.outcome));
    if let Some(cost) = result.cost {
        span.attr("cost", cost);
    }
    if let Some(run) = result.runs.first() {
        span.attr("feasible", run.feasible);
    }
    span.attr("search_nodes", result.stats.nodes);
    span.attr("stop", result.stats.stop.name());
    span.attr("budget_nodes", budget.max_nodes);
    span.attr("solutions", result.stats.solutions);
    span.attr("cancelled", cancel.is_cancelled());
    span.finish();
    ctx.tracer.incr(&format!("solves.{name}"), 1);
}

/// One backend's contribution to a (possibly racing) solve — the
/// per-backend statistics `PlanResult` records.
#[derive(Clone, Debug)]
pub struct BackendRun {
    /// Backend name (`exact`, `greedy`, `heuristic`).
    pub backend: &'static str,
    /// How the backend's search ended.
    pub outcome: Outcome,
    /// Model-objective cost of its best assignment.
    pub cost: Option<i64>,
    /// Whether the assignment passes `model.check`.
    pub feasible: bool,
    /// Search counters, including why the search stopped.
    pub stats: SearchStats,
    /// Wall-clock time this run consumed (for portfolio members, the
    /// member's full race time including cancellation latency).
    pub elapsed: Duration,
    /// Shard index when the run solved one shard of a sharded solve.
    pub shard: Option<usize>,
    /// Whether this run's assignment was selected.
    pub winner: bool,
}

/// Result of a backend solve over one translation.
#[derive(Clone, Debug)]
pub struct BackendResult {
    /// Termination category of the winning run.
    pub outcome: Outcome,
    /// Best assignment over the translation's model variables.
    pub assignment: Option<Vec<i64>>,
    /// Model-objective cost of `assignment`.
    pub cost: Option<i64>,
    /// Winning run's search counters.
    pub stats: SearchStats,
    /// Every participating backend's run, in fixed member order.
    pub runs: Vec<BackendRun>,
}

impl BackendResult {
    fn from_run(run: BackendRun, assignment: Option<Vec<i64>>) -> Self {
        BackendResult {
            outcome: run.outcome,
            assignment,
            cost: run.cost,
            stats: run.stats,
            runs: vec![run],
        }
    }
}

/// A scheduling strategy over the shared translation IR.
pub trait SolverBackend: Send + Sync {
    /// Stable backend name for stats and logs.
    fn name(&self) -> &'static str;

    /// Search for a schedule within `budget`, checking `cancel`
    /// cooperatively. Must be deterministic given the same context and an
    /// uncancelled run.
    fn solve(&self, ctx: &SolveContext<'_>, budget: &Budget, cancel: &CancelToken)
        -> BackendResult;
}

/// Run the CP solver, hopping to a dedicated big-stack thread for large
/// models: the search recurses one frame per fixed variable, so past a
/// few thousand variables the default 2 MiB thread stack overflows.
fn solve_on_sized_stack(model: &Model, config: &SolverConfig) -> SolveResult {
    const DIRECT_VARS: usize = 4096;
    let vars = model.var_count();
    if vars <= DIRECT_VARS {
        return solve(model, config);
    }
    let stack = 32 * 1024 * 1024 + vars * 1024;
    crossbeam::scope(|scope| {
        scope
            .builder()
            .name("cp-solve".into())
            .stack_size(stack)
            .spawn(|_| solve(model, config))
            .expect("spawn solver thread")
            .join()
            .expect("solver thread panicked")
    })
    .expect("solver scope failed")
}

/// The exact branch & bound CP solver.
#[derive(Clone, Debug, Default)]
pub struct ExactBackend {
    /// Base solver knobs; budget and hooks are overlaid per solve.
    pub config: SolverConfig,
}

impl SolverBackend for ExactBackend {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn solve(
        &self,
        ctx: &SolveContext<'_>,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> BackendResult {
        let span = open_solve_span(ctx, "exact");
        let config = SolverConfig {
            max_nodes: budget.max_nodes,
            time_limit: budget.time_limit,
            cancel: Some(cancel.clone()),
            incumbent: ctx.incumbent.clone(),
            // Seed the incumbent from the prior plan and pin matched
            // units so only the delta is searched.
            warm_start: ctx
                .warm
                .as_ref()
                .map(|w| w.hint())
                .or_else(|| self.config.warm_start.clone()),
            ..self.config.clone()
        };
        let r = solve_on_sized_stack(&ctx.translation.model, &config);
        let (assignment, cost) = match r.best {
            Some(sol) => (Some(sol.assignment), Some(sol.cost)),
            None => (None, None),
        };
        let feasible = assignment
            .as_ref()
            .is_some_and(|a| ctx.translation.model.check(a).is_ok());
        let result = BackendResult::from_run(
            BackendRun {
                backend: "exact",
                outcome: r.outcome,
                cost,
                feasible,
                elapsed: r.stats.elapsed,
                stats: r.stats,
                shard: None,
                winner: true,
            },
            assignment,
        );
        close_solve_span(ctx, span, "exact", budget, cancel, &result);
        result
    }
}

/// The greedy warm-start dive as a standalone fast backend: the exact
/// solver's cost-ordered first descent, stopped at the first solution.
#[derive(Clone, Debug, Default)]
pub struct GreedyBackend {
    /// Base solver knobs; budget and hooks are overlaid per solve.
    pub config: SolverConfig,
}

impl SolverBackend for GreedyBackend {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn solve(
        &self,
        ctx: &SolveContext<'_>,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> BackendResult {
        let span = open_solve_span(ctx, "greedy");
        let config = SolverConfig {
            max_nodes: budget.max_nodes,
            time_limit: budget.time_limit,
            cost_value_order: true,
            first_solution_only: true,
            cancel: Some(cancel.clone()),
            // Never prunes against the shared incumbent: a raced bound
            // could cut the dive short and make the greedy result depend
            // on timing.
            incumbent: None,
            // The dive stays cold: it is the portfolio's "what would a
            // fresh solve do" member, warm or not.
            warm_start: None,
        };
        let r = solve_on_sized_stack(&ctx.translation.model, &config);
        let outcome = match r.outcome {
            // A completed dive proves feasibility, never optimality.
            Outcome::Optimal => Outcome::Feasible,
            other => other,
        };
        let (assignment, cost) = match r.best {
            Some(sol) => (Some(sol.assignment), Some(sol.cost)),
            None => (None, None),
        };
        let feasible = assignment
            .as_ref()
            .is_some_and(|a| ctx.translation.model.check(a).is_ok());
        let result = BackendResult::from_run(
            BackendRun {
                backend: "greedy",
                outcome,
                cost,
                feasible,
                elapsed: r.stats.elapsed,
                stats: r.stats,
                shard: None,
                winner: true,
            },
            assignment,
        );
        close_solve_span(ctx, span, "greedy", budget, cancel, &result);
        result
    }
}

/// Algorithm 1 (Appendix C) over the translation's units.
#[derive(Clone, Debug, Default)]
pub struct HeuristicBackend {
    /// Heuristic knobs; `slot_capacity` is overridden by the intent's
    /// plain concurrency rule when one is declared.
    pub config: HeuristicConfig,
    /// Hard capacity override (wins over the intent's rule) — the sharded
    /// backend sets this to a shard's apportioned share of the global
    /// capacity so per-shard heuristic sketches stay globally mergeable.
    pub capacity_override: Option<i64>,
}

impl SolverBackend for HeuristicBackend {
    fn name(&self) -> &'static str {
        "heuristic"
    }

    fn solve(
        &self,
        ctx: &SolveContext<'_>,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> BackendResult {
        let started = Instant::now();
        let span = open_solve_span(ctx, "heuristic");
        if cancel.is_cancelled() {
            let result = BackendResult::from_run(
                BackendRun {
                    backend: "heuristic",
                    outcome: Outcome::Unknown,
                    cost: None,
                    feasible: false,
                    stats: SearchStats::default(),
                    elapsed: Duration::ZERO,
                    shard: None,
                    winner: true,
                },
                None,
            );
            close_solve_span(ctx, span, "heuristic", budget, cancel, &result);
            return result;
        }
        let mut config = self.config.clone();
        if let Some(cap) = ctx.intent.plain_concurrency_capacity() {
            config.slot_capacity = cap;
        }
        if let Some(cap) = self.capacity_override {
            config.slot_capacity = cap;
        }
        let units: Vec<Vec<NodeId>> = ctx
            .translation
            .units
            .iter()
            .map(|u| u.nodes.clone())
            .collect();
        let (_, placements) = heuristic_schedule_units(
            ctx.inventory,
            &units,
            ctx.conflicts,
            &ctx.translation.window,
            &config,
        );
        let model = &ctx.translation.model;
        let mut assignment = vec![0i64; model.var_count()];
        for (unit, placement) in ctx.translation.units.iter().zip(&placements) {
            if let Some(slot_idx) = placement {
                assignment[unit.var.index()] = (*slot_idx + 1) as i64;
            }
        }
        let feasible = model.check(&assignment).is_ok();
        let cost = model.cost(&assignment);
        let elapsed = started.elapsed();
        let stats = SearchStats {
            solutions: 1,
            elapsed,
            time_to_best: elapsed,
            stop: StopReason::FirstSolution,
            ..SearchStats::default()
        };
        let result = BackendResult::from_run(
            BackendRun {
                backend: "heuristic",
                // The heuristic proves nothing; a model-feasible sketch is
                // Feasible, anything else is best-effort Unknown (the
                // assignment is still returned for decoding).
                outcome: if feasible {
                    Outcome::Feasible
                } else {
                    Outcome::Unknown
                },
                cost: Some(cost),
                feasible,
                stats,
                elapsed,
                shard: None,
                winner: true,
            },
            Some(assignment),
        );
        close_solve_span(ctx, span, "heuristic", budget, cancel, &result);
        result
    }
}

/// Race several backends on threads; deterministic winner.
pub struct PortfolioBackend {
    /// Members in fixed tie-break order (earlier wins ties).
    pub members: Vec<Box<dyn SolverBackend>>,
}

impl PortfolioBackend {
    /// The standard lineup: exact, then greedy, then heuristic — exact
    /// first so a proved optimum always wins ties.
    pub fn standard(solver: &SolverConfig, heuristic: &HeuristicConfig) -> Self {
        PortfolioBackend {
            members: vec![
                Box::new(ExactBackend {
                    config: solver.clone(),
                }),
                Box::new(GreedyBackend {
                    config: solver.clone(),
                }),
                Box::new(HeuristicBackend {
                    config: heuristic.clone(),
                    capacity_override: None,
                }),
            ],
        }
    }
}

impl SolverBackend for PortfolioBackend {
    fn name(&self) -> &'static str {
        "portfolio"
    }

    fn solve(
        &self,
        ctx: &SolveContext<'_>,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> BackendResult {
        let mut span = open_solve_span(ctx, "portfolio");
        span.attr("members", self.members.len());
        let span_id = span.is_recording().then(|| span.id());
        let model = &ctx.translation.model;
        let incumbent = ctx.incumbent.clone().unwrap_or_default();
        let tokens: Vec<CancelToken> = self.members.iter().map(|_| CancelToken::new()).collect();
        // A pre-cancelled race must start cancelled (the watcher below
        // would otherwise lose the propagation race on fast models).
        if cancel.is_cancelled() {
            for t in &tokens {
                t.cancel();
            }
        }
        let done = AtomicBool::new(false);
        let mut results: Vec<Option<BackendResult>> = Vec::new();

        crossbeam::scope(|scope| {
            // Propagate an external cancellation to every member.
            let watcher = {
                let tokens = &tokens;
                let done = &done;
                scope.spawn(move |_| loop {
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    if cancel.is_cancelled() {
                        for t in tokens {
                            t.cancel();
                        }
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                })
            };
            let handles: Vec<_> = self
                .members
                .iter()
                .enumerate()
                .map(|(i, member)| {
                    let mut member_ctx = ctx.clone();
                    // Only the exact backend prunes against the shared
                    // bound (it ignores `incumbent` otherwise).
                    member_ctx.incumbent = Some(incumbent.clone());
                    // Member spans nest under the portfolio's own span.
                    member_ctx.span_parent = span_id;
                    let tokens = &tokens;
                    let incumbent = &incumbent;
                    scope.spawn(move |_| {
                        let member_started = Instant::now();
                        let mut result = member.solve(&member_ctx, budget, &tokens[i]);
                        // Per-member race time: the satellite metric
                        // `PlanResult.backend_runs[].elapsed` reports.
                        if result.runs.len() == 1 {
                            result.runs[0].elapsed = member_started.elapsed();
                        }
                        // Publish only checked-feasible costs: an
                        // infeasible sketch must never prune the optimum.
                        if let (Some(a), Some(c)) = (&result.assignment, result.cost) {
                            if model.check(a).is_ok() {
                                incumbent.publish(c);
                                member_ctx.tracer.incr("incumbent.published", 1);
                            }
                        }
                        // A proved optimum cannot be beaten and wins every
                        // tie (exact is first in member order), so the
                        // other members' answers no longer matter — stop
                        // them.
                        if result.outcome == Outcome::Optimal {
                            for (j, t) in tokens.iter().enumerate() {
                                if j != i {
                                    t.cancel();
                                }
                            }
                        }
                        result
                    })
                })
                .collect();
            results = handles.into_iter().map(|h| h.join().ok()).collect();
            done.store(true, Ordering::Release);
            let _ = watcher.join();
        })
        .expect("portfolio scope failed");

        // Deterministic winner: best (infeasibility, cost, member order).
        // Wall-clock never participates.
        let mut runs: Vec<BackendRun> = Vec::new();
        let mut winner: Option<(usize, (u8, i64, usize))> = None;
        for (i, result) in results.iter().enumerate() {
            let Some(result) = result else {
                continue;
            };
            for run in &result.runs {
                let mut run = run.clone();
                run.winner = false;
                runs.push(run);
            }
            let rank = match (&result.assignment, result.cost) {
                (Some(_), Some(cost)) => ((!result.runs[0].feasible) as u8, cost, i),
                _ => (2, i64::MAX, i),
            };
            if winner.as_ref().is_none_or(|(_, best)| rank < *best) {
                winner = Some((i, rank));
            }
        }
        // Why members stopped early: an external caller cancelling the
        // whole race, or one member proving optimality.
        let cancel_cause = if cancel.is_cancelled() {
            "external"
        } else if results
            .iter()
            .flatten()
            .any(|r| r.outcome == Outcome::Optimal)
        {
            "optimal_member"
        } else {
            "none"
        };
        span.attr("cancel_cause", cancel_cause);
        let Some((winner_idx, _)) = winner else {
            let result = BackendResult {
                outcome: Outcome::Unknown,
                assignment: None,
                cost: None,
                stats: SearchStats::default(),
                runs,
            };
            close_solve_span(ctx, span, "portfolio", budget, cancel, &result);
            return result;
        };
        let won = results[winner_idx].clone().expect("winner result present");
        let winner_name = self.members[winner_idx].name();
        for run in &mut runs {
            run.winner = run.backend == winner_name;
        }
        let result = BackendResult {
            outcome: won.outcome,
            assignment: won.assignment,
            cost: won.cost,
            stats: won.stats,
            runs,
        };
        span.attr("winner", winner_name);
        close_solve_span(ctx, span, "portfolio", budget, cancel, &result);
        result
    }
}

/// Schedule-quality rank of a full-model assignment candidate:
/// (infeasible, unscheduled units, makespan proxy, cost). Lower wins.
fn candidate_rank(model: &Model, assignment: &[i64], feasible: bool) -> (bool, usize, i64, i64) {
    let leftovers = assignment.iter().filter(|&&v| v == 0).count();
    let makespan = assignment.iter().copied().max().unwrap_or(0);
    (!feasible, leftovers, makespan, model.cost(assignment))
}

/// Sharded portfolio solving: partition the translation by timezone and
/// market, race a portfolio per shard with apportioned capacity shares,
/// merge the shard plans and reconcile shared capacity globally.
///
/// Capacity soundness is by construction: a cross-shard capacity
/// constraint is split into per-shard shares that sum exactly to the
/// original bound ([`crate::decompose::shard_translation`]), so the merged
/// assignment satisfies the global model before reconciliation even runs —
/// reconciliation only claws back slack the apportionment stranded. A
/// full-problem heuristic runs as a safety net and the final plan is the
/// better of the two under [`candidate_rank`], so the sharded backend is
/// never worse than the heuristic alone.
pub struct ShardedBackend {
    /// Solver knobs for per-shard exact/greedy members.
    pub solver: SolverConfig,
    /// Heuristic knobs for per-shard members and the safety net.
    pub heuristic: HeuristicConfig,
    /// Upper bound on shard count (small tails are folded together).
    pub max_shards: usize,
    /// Reconciliation sweep limit.
    pub max_reconcile_rounds: u64,
}

impl ShardedBackend {
    /// The standard configuration: up to 64 shards, 8 reconcile rounds.
    pub fn standard(solver: &SolverConfig, heuristic: &HeuristicConfig) -> Self {
        ShardedBackend {
            solver: solver.clone(),
            heuristic: heuristic.clone(),
            max_shards: 64,
            max_reconcile_rounds: 8,
        }
    }

    /// The per-shard member lineup: exact, greedy, and a heuristic packing
    /// against the shard's apportioned capacity share.
    fn shard_portfolio(&self, capacity_share: Option<i64>) -> PortfolioBackend {
        PortfolioBackend {
            members: vec![
                Box::new(ExactBackend {
                    config: self.solver.clone(),
                }),
                Box::new(GreedyBackend {
                    config: self.solver.clone(),
                }),
                Box::new(HeuristicBackend {
                    config: self.heuristic.clone(),
                    capacity_override: capacity_share,
                }),
            ],
        }
    }

    /// Solve with an explicit shard visiting order (testing hook: the
    /// published plan must not depend on it). `None` uses shard order.
    pub fn solve_ordered(
        &self,
        ctx: &SolveContext<'_>,
        budget: &Budget,
        cancel: &CancelToken,
        order: Option<&[usize]>,
    ) -> BackendResult {
        let started = Instant::now();
        let mut span = open_solve_span(ctx, "sharded");
        let span_id = span.is_recording().then(|| span.id());
        let model = &ctx.translation.model;

        let Some(split) = shard_translation(ctx.translation, ctx.inventory, self.max_shards) else {
            // One timezone/market, or a cross-shard constraint we cannot
            // apportion — fall back to the plain portfolio race.
            span.attr("fallback", "portfolio");
            let inner = PortfolioBackend::standard(&self.solver, &self.heuristic);
            let mut inner_ctx = ctx.clone();
            inner_ctx.span_parent = span_id.or(ctx.span_parent);
            let result = inner.solve(&inner_ctx, budget, cancel);
            close_solve_span(ctx, span, "sharded", budget, cancel, &result);
            return result;
        };
        let shards = &split.shards;
        span.attr("shards", shards.len());
        span.attr("coupled_capacity_constraints", split.coupled);
        ctx.tracer
            .incr("sharded.shards_solved", shards.len() as u64);

        // Budget slicing: shards run `waves` deep on the worker pool, and
        // the whole sharded phase targets half the budget so translation,
        // reconciliation and the safety net fit in the rest.
        let threads = rayon::current_num_threads().max(1);
        let waves = shards.len().div_ceil(threads).max(1);
        let slice = (budget.time_limit / (2 * waves as u32)).max(Duration::from_millis(50));
        let shard_budget = Budget {
            max_nodes: (budget.max_nodes / shards.len() as u64).max(10_000),
            time_limit: slice,
        };

        let order: Vec<usize> =
            order.map_or_else(|| (0..shards.len()).collect(), <[usize]>::to_vec);
        let mut indexed: Vec<(usize, BackendResult)> = order
            .par_iter()
            .map(|&si| {
                let shard = &shards[si];
                let sctx = SolveContext {
                    translation: &shard.part.translation,
                    inventory: ctx.inventory,
                    intent: ctx.intent,
                    conflicts: ctx.conflicts,
                    incumbent: None,
                    tracer: ctx.tracer.clone(),
                    span_parent: span_id,
                    warm: ctx
                        .warm
                        .as_ref()
                        .map(|w| Arc::new(w.slice(&shard.part.vars))),
                };
                let portfolio = self.shard_portfolio(shard.heuristic_cap);
                (si, portfolio.solve(&sctx, &shard_budget, cancel))
            })
            .collect();
        // Results merge in shard order whatever order solved them.
        indexed.sort_by_key(|(si, _)| *si);

        let mut assignment = vec![0i64; model.var_count()];
        // The merge builds one plan from the shards' answers.
        let mut stats = SearchStats {
            stop: StopReason::FirstSolution,
            ..SearchStats::default()
        };
        let mut runs: Vec<BackendRun> = Vec::new();
        let mut missing = 0usize;
        let mut all_optimal = true;
        for (si, result) in &indexed {
            let shard = &shards[*si];
            stats.nodes += result.stats.nodes;
            stats.backtracks += result.stats.backtracks;
            stats.solutions += result.stats.solutions;
            stats.elapsed += result.stats.elapsed;
            match &result.assignment {
                Some(sub) => {
                    for (&old, &val) in shard.part.vars.iter().zip(sub) {
                        assignment[old] = val;
                    }
                }
                None => missing += 1,
            }
            if result.outcome != Outcome::Optimal {
                all_optimal = false;
            }
            for run in &result.runs {
                let mut run = run.clone();
                run.shard = Some(*si);
                run.winner = false;
                runs.push(run);
            }
        }

        let rec = reconcile(model, &mut assignment, self.max_reconcile_rounds);
        span.attr("reconcile_rounds", rec.rounds);
        span.attr("reconcile_moves", rec.moves);
        span.attr("reconcile_feasible", rec.feasible);
        ctx.tracer.incr("sharded.reconcile_rounds", rec.rounds);
        ctx.tracer.incr("sharded.reconcile_moves", rec.moves);

        // Full-problem safety net: the merged plan must beat the plain
        // heuristic on schedule quality or it is not published.
        let net = HeuristicBackend {
            config: self.heuristic.clone(),
            capacity_override: None,
        };
        let mut net_ctx = ctx.clone();
        net_ctx.incumbent = None;
        net_ctx.span_parent = span_id.or(ctx.span_parent);
        let net_result = net.solve(&net_ctx, budget, cancel);

        let merged_rank = candidate_rank(model, &assignment, rec.feasible);
        let merged_wins = match net_result.assignment.as_deref() {
            // Merged-first tie-break: equal rank publishes the shard plan.
            Some(net_a) => merged_rank <= candidate_rank(model, net_a, net_result.runs[0].feasible),
            None => true,
        };
        span.attr("winner", if merged_wins { "sharded" } else { "heuristic" });

        let merged_outcome = if !rec.feasible {
            Outcome::Unknown
        } else if split.coupled == 0 && all_optimal && missing == 0 {
            // Independent shards each solved to proven optimality compose
            // into a global optimum.
            Outcome::Optimal
        } else {
            Outcome::Feasible
        };
        let merged_cost = model.cost(&assignment);
        runs.push(BackendRun {
            backend: "sharded",
            outcome: merged_outcome,
            cost: Some(merged_cost),
            feasible: rec.feasible,
            stats,
            elapsed: started.elapsed(),
            shard: None,
            winner: merged_wins,
        });
        for run in &net_result.runs {
            let mut run = run.clone();
            run.winner = !merged_wins;
            runs.push(run);
        }

        let result = if merged_wins {
            BackendResult {
                outcome: merged_outcome,
                assignment: Some(assignment),
                cost: Some(merged_cost),
                stats,
                runs,
            }
        } else {
            BackendResult {
                outcome: net_result.outcome,
                assignment: net_result.assignment,
                cost: net_result.cost,
                stats: net_result.stats,
                runs,
            }
        };
        close_solve_span(ctx, span, "sharded", budget, cancel, &result);
        result
    }
}

impl SolverBackend for ShardedBackend {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn solve(
        &self,
        ctx: &SolveContext<'_>,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> BackendResult {
        self.solve_ordered(ctx, budget, cancel, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::{translate, TranslateOptions};
    use cornet_types::{Attributes, Inventory, NfType, NodeId, Topology};

    fn fixture(n: usize, cap: i64) -> (PlanIntent, Inventory, Topology, Vec<NodeId>) {
        let mut inv = Inventory::new();
        for i in 0..n {
            let market = if i % 2 == 0 { "NYC" } else { "DFW" };
            let tz = if i % 2 == 0 { -5.0 } else { -6.0 };
            inv.push(
                format!("n{i}"),
                NfType::ENodeB,
                Attributes::new()
                    .with("market", market)
                    .with("utc_offset", tz),
            );
        }
        let intent = PlanIntent::from_json(&format!(
            r#"{{
            "scheduling_window": {{"start": "2020-07-01 00:00:00",
                                   "end": "2020-07-10 23:59:00",
                                   "granularity": {{"metric": "day", "value": 1}}}},
            "maintenance_window": {{"start": "0:00", "end": "6:00"}},
            "schedulable_attribute": "common_id",
            "conflict_attribute": "common_id",
            "constraints": [
                {{"name": "concurrency", "base_attribute": "common_id",
                  "operator": "<=", "granularity": {{"metric": "day", "value": 1}},
                  "default_capacity": {cap}}}
            ]
        }}"#
        ))
        .unwrap();
        let topo = Topology::with_capacity(n);
        let nodes: Vec<NodeId> = inv.ids().collect();
        (intent, inv, topo, nodes)
    }

    fn run(choice: BackendChoice, n: usize, cap: i64) -> BackendResult {
        let (intent, inv, topo, nodes) = fixture(n, cap);
        let translation =
            translate(&intent, &inv, &topo, &nodes, &TranslateOptions::default()).unwrap();
        let conflicts = intent.conflicts().unwrap();
        let ctx = SolveContext::new(&translation, &inv, &intent, &conflicts);
        let backend = choice.instantiate(&SolverConfig::default(), &HeuristicConfig::default());
        backend.solve(&ctx, &Budget::default(), &CancelToken::new())
    }

    #[test]
    fn choice_parse_round_trips() {
        for c in [
            BackendChoice::Exact,
            BackendChoice::Greedy,
            BackendChoice::Heuristic,
            BackendChoice::Portfolio,
            BackendChoice::Sharded,
        ] {
            assert_eq!(BackendChoice::parse(c.name()).unwrap(), c);
        }
        assert!(BackendChoice::parse("simplex").is_err());
    }

    #[test]
    fn exact_backend_proves_optimal() {
        let r = run(BackendChoice::Exact, 6, 2);
        assert_eq!(r.outcome, Outcome::Optimal);
        assert!(r.runs[0].feasible);
        assert_eq!(r.runs.len(), 1);
    }

    #[test]
    fn greedy_backend_is_feasible_not_optimal() {
        let r = run(BackendChoice::Greedy, 6, 2);
        assert_eq!(r.outcome, Outcome::Feasible);
        assert!(r.runs[0].feasible);
        assert_eq!(r.stats.solutions, 1, "stops at the first solution");
    }

    #[test]
    fn heuristic_backend_returns_assignment() {
        let r = run(BackendChoice::Heuristic, 6, 2);
        let a = r.assignment.expect("heuristic always proposes");
        assert_eq!(a.len(), 6);
        assert!(a.iter().all(|&v| v >= 0));
    }

    #[test]
    fn portfolio_reports_all_members_and_one_winner() {
        let r = run(BackendChoice::Portfolio, 6, 2);
        let names: Vec<_> = r.runs.iter().map(|run| run.backend).collect();
        assert_eq!(names, vec!["exact", "greedy", "heuristic"]);
        assert_eq!(r.runs.iter().filter(|run| run.winner).count(), 1);
        assert_eq!(r.outcome, Outcome::Optimal, "exact completes on 6 nodes");
        // The winning cost is the minimum over feasible members.
        let min_cost = r
            .runs
            .iter()
            .filter(|run| run.feasible)
            .filter_map(|run| run.cost)
            .min()
            .unwrap();
        assert_eq!(r.cost, Some(min_cost));
    }

    #[test]
    fn portfolio_matches_exact_on_completed_search() {
        let exact = run(BackendChoice::Exact, 8, 3);
        let portfolio = run(BackendChoice::Portfolio, 8, 3);
        assert_eq!(portfolio.assignment, exact.assignment);
        assert_eq!(portfolio.cost, exact.cost);
    }

    #[test]
    fn portfolio_reports_per_member_elapsed() {
        let r = run(BackendChoice::Portfolio, 6, 2);
        for member in &r.runs {
            assert!(
                member.elapsed > Duration::ZERO,
                "{} run must report its race time",
                member.backend
            );
        }
    }

    #[test]
    fn sharded_splits_by_market_and_merges_feasibly() {
        // Alternating NYC/DFW fixture with a plain (cross-shard)
        // concurrency rule → two shards with apportioned capacity.
        let r = run(BackendChoice::Sharded, 12, 4);
        let a = r.assignment.expect("sharded plan");
        let (intent, inv, topo, nodes) = fixture(12, 4);
        let t = translate(&intent, &inv, &topo, &nodes, &TranslateOptions::default()).unwrap();
        assert!(
            t.model.check(&a).is_ok(),
            "merged plan is globally feasible"
        );
        let shard_runs = r.runs.iter().filter(|run| run.shard.is_some()).count();
        assert!(shard_runs >= 6, "two shards × three members: {shard_runs}");
        assert!(
            r.runs.iter().any(|run| run.backend == "sharded"),
            "aggregate sharded run is reported"
        );
    }

    #[test]
    fn sharded_matches_exact_when_shards_decouple() {
        // Per-market capacity → no cross-shard constraint: shard optima
        // compose into a global optimum.
        let (mut intent, inv, topo, nodes) = fixture(8, 2);
        intent.constraints = vec![crate::intent::ConstraintRule::Concurrency {
            base_attribute: "common_id".into(),
            aggregate_attribute: Some("market".into()),
            operator: "<=".into(),
            granularity: cornet_types::Granularity::daily(),
            default_capacity: 2,
        }];
        let translation =
            translate(&intent, &inv, &topo, &nodes, &TranslateOptions::default()).unwrap();
        let conflicts = intent.conflicts().unwrap();
        let ctx = SolveContext::new(&translation, &inv, &intent, &conflicts);
        let exact = ExactBackend::default().solve(&ctx, &Budget::default(), &CancelToken::new());
        let sharded = ShardedBackend::standard(
            &SolverConfig::default(),
            &HeuristicConfig::default(),
        )
        .solve(&ctx, &Budget::default(), &CancelToken::new());
        assert_eq!(sharded.outcome, Outcome::Optimal);
        assert_eq!(sharded.cost, exact.cost);
    }

    #[test]
    fn sharded_plan_is_independent_of_shard_solve_order() {
        let (intent, inv, topo, nodes) = fixture(10, 3);
        let translation =
            translate(&intent, &inv, &topo, &nodes, &TranslateOptions::default()).unwrap();
        let conflicts = intent.conflicts().unwrap();
        let ctx = SolveContext::new(&translation, &inv, &intent, &conflicts);
        let backend =
            ShardedBackend::standard(&SolverConfig::default(), &HeuristicConfig::default());
        let fwd =
            backend.solve_ordered(&ctx, &Budget::default(), &CancelToken::new(), Some(&[0, 1]));
        let rev =
            backend.solve_ordered(&ctx, &Budget::default(), &CancelToken::new(), Some(&[1, 0]));
        assert_eq!(fwd.assignment, rev.assignment);
        assert_eq!(fwd.cost, rev.cost);
    }

    #[test]
    fn sharded_falls_back_when_unshardable() {
        // Single market/timezone → nothing to shard; the backend degrades
        // to the plain portfolio and still solves.
        let mut inv = Inventory::new();
        for i in 0..6 {
            inv.push(
                format!("n{i}"),
                NfType::ENodeB,
                Attributes::new()
                    .with("market", "NYC")
                    .with("utc_offset", -5.0),
            );
        }
        let (intent, _, topo, _) = fixture(6, 2);
        let nodes: Vec<NodeId> = inv.ids().collect();
        let translation =
            translate(&intent, &inv, &topo, &nodes, &TranslateOptions::default()).unwrap();
        let conflicts = intent.conflicts().unwrap();
        let ctx = SolveContext::new(&translation, &inv, &intent, &conflicts);
        let r = ShardedBackend::standard(&SolverConfig::default(), &HeuristicConfig::default())
            .solve(&ctx, &Budget::default(), &CancelToken::new());
        assert_eq!(r.outcome, Outcome::Optimal, "portfolio fallback completes");
        assert!(r.assignment.is_some());
    }

    #[test]
    fn warm_context_replays_prior_plan_bit_identically() {
        let (intent, inv, topo, nodes) = fixture(8, 2);
        let translation =
            translate(&intent, &inv, &topo, &nodes, &TranslateOptions::default()).unwrap();
        let conflicts = intent.conflicts().unwrap();
        let ctx = SolveContext::new(&translation, &inv, &intent, &conflicts);
        let cold = ExactBackend::default().solve(&ctx, &Budget::default(), &CancelToken::new());
        let prior = cold.assignment.clone().expect("cold plan");

        let warm = WarmStart {
            values: prior.clone(),
            delta: crate::warm::PlanDelta::default(),
        };
        let warm_ctx = ctx.clone().with_warm_start(Arc::new(warm));
        let r = ExactBackend::default().solve(&warm_ctx, &Budget::default(), &CancelToken::new());
        assert_eq!(
            r.assignment.as_ref(),
            Some(&prior),
            "pinned replay is bit-identical"
        );
        assert_eq!(r.stats.nodes, 1, "empty delta expands a single node");
        assert_eq!(r.outcome, Outcome::Feasible, "pinned search proves nothing");
    }

    #[test]
    fn sharded_publishes_heuristic_merge_when_shard_dives_are_hopeless() {
        // Two 20k-unit shards: one exact/greedy descent scans every
        // domain per node, ~n² work, many times the shard slice in any
        // build. The budget is sized from the heuristic's own run time so
        // the same test holds for debug and release builds.
        let (intent, inv, topo, nodes) = fixture(40_000, 5_000);
        let translation =
            translate(&intent, &inv, &topo, &nodes, &TranslateOptions::default()).unwrap();
        let conflicts = intent.conflicts().unwrap();
        let ctx = SolveContext::new(&translation, &inv, &intent, &conflicts);
        let heuristic = HeuristicConfig::default();
        let started = Instant::now();
        HeuristicBackend {
            config: heuristic.clone(),
            capacity_override: None,
        }
        .solve(&ctx, &Budget::default(), &CancelToken::new());
        let budget = Budget {
            time_limit: started.elapsed() * 16,
            ..Budget::default()
        };

        let backend = ShardedBackend::standard(&SolverConfig::default(), &heuristic);
        let started = Instant::now();
        let r = backend.solve(&ctx, &budget, &CancelToken::new());
        let took = started.elapsed();

        // What the shard heuristic members alone produce, merged and
        // reconciled the way the sharded backend does it.
        let split = shard_translation(&translation, &inv, backend.max_shards).expect("two shards");
        let mut merged = vec![0i64; translation.model.var_count()];
        for shard in &split.shards {
            let sctx = SolveContext::new(&shard.part.translation, &inv, &intent, &conflicts);
            let member = HeuristicBackend {
                config: heuristic.clone(),
                capacity_override: shard.heuristic_cap,
            }
            .solve(&sctx, &budget, &CancelToken::new());
            let sub = member.assignment.expect("heuristic always proposes");
            for (&old, &val) in shard.part.vars.iter().zip(&sub) {
                merged[old] = val;
            }
        }
        reconcile(
            &translation.model,
            &mut merged,
            backend.max_reconcile_rounds,
        );
        assert_eq!(r.assignment.as_ref(), Some(&merged));

        let solver_runs: Vec<_> = r
            .runs
            .iter()
            .filter(|run| run.shard.is_some() && run.backend != "heuristic")
            .collect();
        assert_eq!(solver_runs.len(), 2 * split.shards.len());
        for run in solver_runs {
            assert_eq!(run.outcome, Outcome::Unknown, "{}", run.backend);
            assert_eq!(run.stats.stop, StopReason::DiveOverrun, "{}", run.backend);
        }
        for run in r.runs.iter().filter(|run| run.backend == "heuristic") {
            assert_eq!(run.stats.stop, StopReason::FirstSolution);
        }
        // Each member gives up once an eighth of its shard slice has
        // passed, so the solve ends well inside its budget.
        assert!(
            took < budget.time_limit,
            "sharded solve took {took:?} of a {:?} budget",
            budget.time_limit
        );
    }

    #[test]
    fn pre_cancelled_portfolio_returns_unknown() {
        let (intent, inv, topo, nodes) = fixture(4, 2);
        let translation =
            translate(&intent, &inv, &topo, &nodes, &TranslateOptions::default()).unwrap();
        let conflicts = intent.conflicts().unwrap();
        let ctx = SolveContext::new(&translation, &inv, &intent, &conflicts);
        let backend = BackendChoice::Portfolio
            .instantiate(&SolverConfig::default(), &HeuristicConfig::default());
        let cancel = CancelToken::new();
        cancel.cancel();
        let r = backend.solve(&ctx, &Budget::default(), &cancel);
        assert!(
            r.assignment.is_none() || r.outcome != Outcome::Optimal,
            "a cancelled race must not claim optimality"
        );
    }
}
