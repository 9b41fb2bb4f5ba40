//! `plan_ran`: lint → plan(heuristic) → plan(sharded) over a seeded
//! ~200k-node RAN under the §4.2 intent.

use crate::oracle::check_plan;
use crate::report::{Layers, Run};
use crate::stats::median;
use crate::trace::Recorder;
use crate::{rng, Args};
use cornet_netsim::{Network, NetworkConfig};
use cornet_planner::backend::ShardedBackend;
use cornet_planner::decompose::{reconcile, shard_translation};
use cornet_planner::{
    lint, plan, translate, BackendChoice, Budget, PlanIntent, PlanOptions, SolveContext,
};
use cornet_solver::{CancelToken, Outcome as SolveOutcome, SolverConfig};
use cornet_types::{NodeId, Schedule};
use std::time::{Duration, Instant};

/// Target RAN size (eNB + gNB nodes).
pub const TARGET_NODES: usize = 200_000;
/// Daily concurrency cap as a share of the scoped nodes: nodes / 25.
pub const CAP_DIVISOR: usize = 25;
/// Scheduling window, in daily slots.
pub const WINDOW_DAYS: u32 = 60;
/// Fixed solver budget of the sharded arm.
pub const SOLVER_BUDGET: Duration = Duration::from_secs(2);
/// Network generations per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// The generated planning input.
pub struct Input {
    pub net: Network,
    pub nodes: Vec<NodeId>,
    pub intent: PlanIntent,
    pub cap: usize,
}

/// Build the network for `seed` (timed by the caller).
pub fn generate(seed: u64) -> Network {
    let cfg = NetworkConfig {
        seed: rng::Rng::new(seed, 0x9A7).next_u64(),
        ..Default::default()
    }
    .with_target_nodes(TARGET_NODES);
    Network::generate_ran(&cfg)
}

/// The §4.2 intent over `nodes` scoped nodes: a daily concurrency cap of
/// `nodes / 25` and `usid` consistency.
pub fn intent_for(nodes: usize) -> (PlanIntent, usize) {
    let cap = nodes.div_ceil(CAP_DIVISOR);
    let json = format!(
        r#"{{
        "scheduling_window": {{"start": "2020-07-01 00:00:00",
                               "end": "2020-08-29 23:59:00",
                               "granularity": {{"metric": "day", "value": 1}}}},
        "maintenance_window": {{"start": "0:00", "end": "6:00"}},
        "schedulable_attribute": "common_id",
        "conflict_attribute": "common_id",
        "constraints": [
            {{"name": "concurrency", "base_attribute": "common_id", "operator": "<=",
              "granularity": {{"metric": "day", "value": 1}}, "default_capacity": {cap}}},
            {{"name": "consistency", "attribute": "usid"}}
        ]}}"#
    );
    (
        PlanIntent::from_json(&json).expect("static intent parses"),
        cap,
    )
}

/// Hash of every generated node's name and attributes: equal seeds must
/// give byte-identical networks.
pub fn network_digest(net: &Network) -> u64 {
    let mut text = String::new();
    for rec in net.inventory.iter() {
        text.push_str(&format!("{}|{:?}|{:?};", rec.name, rec.nf_type, rec.attrs));
    }
    rng::fnv64(text.as_bytes())
}

fn options(backend: BackendChoice) -> PlanOptions {
    PlanOptions {
        solver: SolverConfig {
            time_limit: SOLVER_BUDGET,
            ..Default::default()
        },
        backend,
        ..Default::default()
    }
}

/// One arm's result as the oracle and the report need it.
struct ArmResult {
    wall_s: f64,
    schedule: Schedule,
    cost: Option<i64>,
}

fn run_arm(input: &Input, backend: BackendChoice) -> Result<ArmResult, String> {
    let started = Instant::now();
    let report = lint(&input.intent, &input.net.inventory, &input.nodes)
        .map_err(|e| format!("lint: {e}"))?;
    if !report.is_plannable() {
        return Err("lint refused the intent".into());
    }
    let result = plan(
        &input.intent,
        &input.net.inventory,
        &input.net.topology,
        &input.nodes,
        &options(backend),
    )
    .map_err(|e| format!("plan({}): {e}", backend.name()))?;
    let wall_s = started.elapsed().as_secs_f64();
    let cost = result
        .backend_runs
        .iter()
        .find(|r| r.winner)
        .or(result.backend_runs.first())
        .and_then(|r| r.cost);
    Ok(ArmResult {
        wall_s,
        schedule: result.schedule,
        cost,
    })
}

/// Generate the input `SETUP_REPS` times, checking the generator is
/// deterministic; returns the input and each generation's seconds.
fn setup(seed: u64, run: &mut Run) -> (Input, Vec<f64>) {
    let mut times = Vec::new();
    let mut digest = None;
    let mut net = None;
    for _ in 0..SETUP_REPS {
        drop(net.take());
        let t = Instant::now();
        let n = generate(seed);
        times.push(t.elapsed().as_secs_f64());
        let d = network_digest(&n);
        run.check(
            digest.is_none_or(|prev| prev == d),
            "netsim: the same seed generated different networks",
        );
        digest = Some(d);
        net = Some(n);
    }
    let net = net.expect("at least one generation");
    let nodes = net.ran_nodes();
    let (intent, cap) = intent_for(nodes.len());
    (
        Input {
            net,
            nodes,
            intent,
            cap,
        },
        times,
    )
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args) -> Run {
    let mut run = Run::default();
    let (input, setup_times) = setup(args.seed, &mut run);
    let (mut heur, mut shard, mut rounds, mut makespans, mut costs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while rounds.is_empty() || Instant::now() < deadline {
        let mut round_s = 0.0;
        for backend in [BackendChoice::Heuristic, BackendChoice::Sharded] {
            match run_arm(&input, backend) {
                Ok(arm) => {
                    run.op(check_plan(&input, &arm.schedule).err());
                    round_s += arm.wall_s;
                    if backend == BackendChoice::Heuristic {
                        heur.push(arm.wall_s);
                    } else {
                        shard.push(arm.wall_s);
                        makespans.push(arm.schedule.makespan().map_or(0, |s| s.0) as f64);
                        costs.push(arm.cost.unwrap_or(0) as f64);
                    }
                }
                Err(e) => run.op(Some(e)),
            }
        }
        rounds.push(round_s);
    }
    let m = &mut run.metrics;
    m.set_opt("setup_s", median(&setup_times), "s");
    m.set_opt("rss_peak_mb", Some(crate::report::vm_hwm_mb("self")), "MB");
    m.set_opt("reply_ms", median(&heur).map(|s| s * 1e3), "ms");
    m.set_opt("reply_slow_ms", median(&shard).map(|s| s * 1e3), "ms");
    m.set_opt("work_s", median(&rounds), "s");
    let named = &mut run.named;
    named.set_opt("plan_heuristic_s", median(&heur), "s");
    named.set_opt("plan_sharded_s", median(&shard), "s");
    named.set_opt("plan_makespan", median(&makespans), "slots");
    named.set_opt("plan_cost", median(&costs), "cost");
    named.set("plan_rounds", rounds.len() as f64, "count");
    run
}

/// The traced run: the same input through the planner's public layer
/// functions, each call timed by a benchmark span.
pub fn traced(args: &Args) -> Run {
    let mut run = Run::default();
    let mut rec = Recorder::default();
    let (input, setup_times) = setup(args.seed, &mut run);
    let mut layer = Layers::default();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut first = true;
    while first || Instant::now() < deadline {
        // An untraced pass of the same calls: the tracing-overhead base.
        let t = Instant::now();
        replay(
            &input,
            &mut Recorder::default(),
            &mut Run::default(),
            &mut Layers::default(),
        );
        untraced_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let schedules = rec.span("plan_ran", |rec| replay(&input, rec, &mut run, &mut layer));
        traced_s.push(t.elapsed().as_secs_f64());
        for schedule in schedules {
            run.op(check_plan(&input, &schedule).err());
        }
        first = false;
    }
    layer.set(
        "netsim.generate_ms",
        median(&setup_times).unwrap_or(0.0) * 1e3,
    );
    layer.finish(&rec, "plan_ran", &untraced_s, &traced_s);
    run.metrics = layer.into_metrics();
    run
}

/// Replay one lint → translate → solve(heuristic) → shard → solve(sharded)
/// → reconcile → decode round, attributing each call to its layer;
/// returns the decoded schedules for the oracle.
fn replay(input: &Input, rec: &mut Recorder, run: &mut Run, layer: &mut Layers) -> Vec<Schedule> {
    let mut schedules = Vec::new();
    let inv = &input.net.inventory;
    let conflicts = match input.intent.conflicts() {
        Ok(c) => c,
        Err(e) => {
            run.op(Some(format!("intent conflicts: {e}")));
            return schedules;
        }
    };
    let plannable = rec.span("planner.lint", |_| lint(&input.intent, inv, &input.nodes));
    if !plannable.as_ref().is_ok_and(|r| r.is_plannable()) {
        run.op(Some("lint refused the intent".into()));
        return schedules;
    }
    let translation = match rec.span("planner.translate", |_| {
        translate(
            &input.intent,
            inv,
            &input.net.topology,
            &input.nodes,
            &Default::default(),
        )
    }) {
        Ok(t) => t,
        Err(e) => {
            run.op(Some(format!("translate: {e}")));
            return schedules;
        }
    };
    let stats = translation.model.stats();
    let budget = Budget {
        time_limit: SOLVER_BUDGET,
        ..Budget::default()
    };
    for backend in [BackendChoice::Heuristic, BackendChoice::Sharded] {
        let solver = options(backend);
        let chosen = backend.instantiate(&solver.solver, &solver.heuristic);
        let ctx = SolveContext::new(&translation, inv, &input.intent, &conflicts);
        let name = format!("solve.{}", backend.name());
        let result = rec.span(&name, |_| chosen.solve(&ctx, &budget, &CancelToken::new()));
        let Some(assignment) = result.assignment else {
            run.op(Some(format!("{name}: no assignment")));
            continue;
        };
        if backend == BackendChoice::Sharded {
            // The shard cap and sweep limit the sharded backend itself uses.
            let sharded = ShardedBackend::standard(&solver.solver, &solver.heuristic);
            let split = rec.span("planner.shard", |_| {
                shard_translation(&translation, inv, sharded.max_shards)
            });
            let mut published = assignment.clone();
            rec.span("planner.reconcile", |_| {
                reconcile(
                    &translation.model,
                    &mut published,
                    sharded.max_reconcile_rounds,
                )
            });
            layer.add("planner.shards", split.map_or(1, |s| s.shards.len()) as f64);
            let members: Vec<_> = result.runs.iter().filter(|r| r.shard.is_some()).collect();
            layer.add("solve.members_run", members.len() as f64);
            layer.add(
                "solve.members_unknown",
                members
                    .iter()
                    .filter(|r| r.outcome == SolveOutcome::Unknown)
                    .count() as f64,
            );
            layer.add(
                "solve.members_feasible",
                members.iter().filter(|r| r.feasible).count() as f64,
            );
            layer.add(
                "solver.search_nodes",
                members.iter().map(|r| r.stats.nodes as f64).sum(),
            );
        }
        schedules.push(rec.span("planner.decode", |_| {
            translation.decode(&assignment, &conflicts)
        }));
    }
    layer.add("model.vars", stats.vars as f64);
    layer.add("model.constraints", stats.constraints as f64);
    schedules
}
