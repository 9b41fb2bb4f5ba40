//! Seeded input generators: MOP bundles for `daemon_campaigns` and KPI
//! sample streams for `daemon_ingest`. Everything is derived from the
//! workload seed by the benchmark's own RNG, so the same seed always
//! yields byte-identical inputs.

use crate::rng::Rng;
use cornet_types::{Attributes, Inventory, NfType, NodeId, Topology};
use cornet_verifier::{ChangeScope, Expectation, KpiQuery, VerificationRule};
use std::fmt::Write as _;

/// Tenants sharing the daemon.
pub const TENANTS: [&str; 4] = ["acme", "globex", "initech", "umbrella"];
/// Inventory sizes of small, medium and large bundles.
pub const SMALL: usize = 50;
pub const MEDIUM: usize = 500;
pub const LARGE: usize = 2000;
/// Instances of every submitted campaign scenario.
pub const SCENARIO_INSTANCES: u32 = 200;
/// Distinct (fault seed, fault rate) scenarios a run draws from.
pub const SCENARIO_POOL: usize = 8;
/// Nodes of the anchor campaign that each racing bundle claims.
const RACE_NODES: usize = 8;
/// Days of the bundles' scheduling window.
const WINDOW_DAYS: usize = 4;

/// The status a submission must get.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    Created,
    Rejected,
    Conflict,
}

impl Expect {
    pub fn status(self) -> u16 {
        match self {
            Expect::Created => 201,
            Expect::Rejected => 422,
            Expect::Conflict => 409,
        }
    }
}

/// One generated submission.
#[derive(Clone, Debug)]
pub struct Submission {
    pub tenant: &'static str,
    pub body: String,
    pub expect: Expect,
    /// Index into the run's scenario pool.
    pub scenario: usize,
    /// Inventory size.
    pub nodes: usize,
}

/// A campaign scenario: fault-storm seed and rate of the journaled
/// upgrade every accepted submission runs (default latency).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scenario {
    pub seed: u64,
    pub fault_rate_milli: u32,
}

/// The scenario pool of a run: seeded fault storms at fixed rates from
/// 5% to 15%, so every seed carries the same expected retry load.
pub fn scenario_pool(seed: u64) -> Vec<Scenario> {
    let mut rng = Rng::new(seed, 0x5CE);
    (0..SCENARIO_POOL)
        .map(|i| Scenario {
            seed: rng.below(1 << 20),
            fault_rate_milli: 50 + (100 * i / (SCENARIO_POOL - 1)) as u32,
        })
        .collect()
}

/// One round of submissions: an anchor campaign first (paused by the
/// benchmark while the round runs), then a fixed interleaving of 28 small,
/// 4 medium and 1 large clean bundle, 4 defective bundles and 3 bundles
/// racing the anchor's nodes. The seed picks tenants, names, scenarios
/// and the raced nodes.
pub fn round(seed: u64, round: usize) -> Vec<Submission> {
    let pool = scenario_pool(seed);
    let mut rng = Rng::new(seed, 0xB0D1 + round as u64);
    let prefix = |i: usize| format!("r{round}s{i}");
    let tenant = |rng: &mut Rng| TENANTS[rng.below(TENANTS.len() as u64) as usize];
    let anchor_tenant = TENANTS[round % TENANTS.len()];
    let anchor = prefix(0);
    let mut out = vec![Submission {
        tenant: anchor_tenant,
        body: clean_bundle(&anchor, SMALL, pool[0], "anchor"),
        expect: Expect::Created,
        scenario: 0,
        nodes: SMALL,
    }];
    // A fixed interleaving: where the slow bundles fall in the round
    // shapes its drain, so only their content follows the seed.
    let kinds = (0..40).map(|i| match i {
        0 => (Expect::Created, LARGE),
        10 | 30 | 39 => (Expect::Conflict, SMALL),
        _ if i % 10 == 4 => (Expect::Created, MEDIUM),
        _ if i % 10 == 7 => (Expect::Rejected, SMALL),
        _ => (Expect::Created, SMALL),
    });
    for (i, (expect, nodes)) in kinds.enumerate() {
        let scenario = rng.below(pool.len() as u64) as usize;
        let name = prefix(i + 1);
        let body = match expect {
            Expect::Created => clean_bundle(&name, nodes, pool[scenario], "rollout"),
            Expect::Rejected => defective_bundle(&name, nodes, pool[scenario]),
            Expect::Conflict => racing_bundle(&name, &anchor, pool[scenario], &mut rng),
        };
        out.push(Submission {
            tenant: tenant(&mut rng),
            body,
            expect,
            scenario,
            nodes,
        });
    }
    out
}

fn node_name(prefix: &str, i: usize) -> String {
    format!("enb-{prefix}-{i:04}")
}

fn scenario_json(s: Scenario) -> String {
    format!(
        "{{\"nodes\": {SCENARIO_INSTANCES}, \"seed\": {}, \"fault_rate_milli\": {}}}",
        s.seed, s.fault_rate_milli
    )
}

const RULES: &str = r#",
  "known_kpis": "table5",
  "rules": [{"name": "post-upgrade-scorecard",
    "kpis": [{"kpi": "scorecard_kpi_000", "expected": "improve"}, {"kpi": "level1_kpi_007"}],
    "location_attributes": ["market"], "control": "first_tier", "timescales": [1, 24], "alpha": 0.01}]"#;

const UPGRADE_WORKFLOW: &str = r#"{"name": "upgrade-with-backout",
      "inputs": {"node": "string", "software_version": "string"},
      "sequence": ["health_check", "traffic_redirect", "software_upgrade", "pre_post_comparison"],
      "backout": ["traffic_restore"]}"#;

fn intent_json(nodes: usize) -> String {
    format!(
        r#"{{"scheduling_window": {{"start": "2020-07-01 00:00:00", "end": "2020-07-0{WINDOW_DAYS} 23:59:00",
      "granularity": {{"metric": "day", "value": 1}}}},
    "maintenance_window": {{"start": "0:00", "end": "6:00"}},
    "schedulable_attribute": "common_id", "conflict_attribute": "common_id",
    "constraints": [{{"name": "concurrency", "base_attribute": "common_id", "operator": "<=",
      "granularity": {{"metric": "day", "value": 1}}, "default_capacity": {}}}]}}"#,
        nodes.div_ceil(WINDOW_DAYS)
    )
}

fn inventory_json(names: &[String]) -> String {
    let markets = ["NYC", "DFW", "SEA", "ATL"];
    let mut out = String::from("[");
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n    ");
        }
        let _ = write!(
            out,
            "{{\"name\": \"{name}\", \"nf_type\": \"enb\", \"attrs\": {{\"market\": \"{}\", \"common_id\": \"{name}\"}}}}",
            markets[i % markets.len()]
        );
    }
    out.push(']');
    out
}

/// Assignments `[[inventory index, day]]` spreading `n` nodes over the
/// window.
fn assignments(n: usize) -> String {
    let rows: Vec<String> = (0..n)
        .map(|i| format!("[{i}, {}]", i % WINDOW_DAYS + 1))
        .collect();
    format!("[{}]", rows.join(", "))
}

/// A gate-clean bundle declaring one campaign over its whole inventory.
pub fn clean_bundle(prefix: &str, nodes: usize, s: Scenario, label: &str) -> String {
    let names: Vec<String> = (0..nodes).map(|i| node_name(prefix, i)).collect();
    bundle(prefix, label, &names, &assignments(nodes), s)
}

/// A bundle that claims `RACE_NODES` of the anchor's nodes in the same
/// days with a writing workflow: clean on its own, but its blast radius
/// collides with the live anchor campaign.
fn racing_bundle(prefix: &str, anchor: &str, s: Scenario, rng: &mut Rng) -> String {
    let first = rng.below((SMALL - RACE_NODES) as u64) as usize;
    let names: Vec<String> = (first..first + RACE_NODES)
        .map(|i| node_name(anchor, i))
        .collect();
    let rows: Vec<String> = (0..RACE_NODES)
        .map(|k| format!("[{k}, {}]", (first + k) % WINDOW_DAYS + 1))
        .collect();
    let rows = format!("[{}]", rows.join(", "));
    bundle(prefix, "race", &names, &rows, s)
}

fn bundle(prefix: &str, label: &str, names: &[String], assignments: &str, s: Scenario) -> String {
    format!(
        r#"{{
  "name": "{label}-{prefix}",
  "scenario": {},
  "workflows": [{UPGRADE_WORKFLOW}],
  "inventory": {},
  "intent": {}{RULES},
  "resilience": {{"default_retry": {{"max_attempts": 3, "base_backoff_ms": 100, "multiplier": 2.0, "max_backoff_ms": 30000}},
    "deadlines_ms": {{"software_upgrade": 60000}},
    "breaker": {{"failure_threshold": 0.5, "min_samples": 2}}, "planned_instances": {}}},
  "campaigns": [{{"workflow": "upgrade-with-backout", "assignments": {assignments}}}]
}}"#,
        scenario_json(s),
        inventory_json(names),
        intent_json(names.len()),
        names.len(),
    )
}

/// A bundle the check gate refuses: an under-declared workflow, an
/// impossible verification rule, out-of-range resilience settings and
/// campaigns naming unknown workflows.
fn defective_bundle(prefix: &str, nodes: usize, s: Scenario) -> String {
    let names: Vec<String> = (0..nodes).map(|i| node_name(prefix, i)).collect();
    format!(
        r#"{{
  "name": "defective-{prefix}",
  "scenario": {},
  "workflows": [{{"name": "underfed-upgrade", "inputs": {{"node": "string"}},
    "sequence": ["health_check", "software_upgrade"]}}],
  "inventory": {},
  "known_kpis": "table5",
  "rules": [{{"name": "impossible-rule", "kpis": [{{"kpi": "not_a_real_kpi"}}],
    "location_attributes": ["galaxy"], "timescales": [1], "alpha": 1.5}}],
  "resilience": {{"retry": {{"software_upgrade": {{"max_attempts": 0}}}},
    "breaker": {{"failure_threshold": 1.5, "min_samples": 50}}, "planned_instances": {nodes}}},
  "campaigns": [{{"workflow": "vce-upgrade", "assignments": [[0, 3]]}}]
}}"#,
        scenario_json(s),
        inventory_json(&names),
    )
}

/// KPI name of the ingest session.
pub const KPI: &str = "thr";
/// Study/control pairs of the ingest session.
pub const PAIRS: usize = 200;
/// Sampling grid step, minutes.
pub const STEP_MINUTES: u64 = 60;
/// Level shift applied to study nodes from the change tick on.
pub const SHIFT: f64 = 25.0;

/// Shape of one ingest stream.
#[derive(Clone, Copy, Debug)]
pub struct StreamShape {
    /// Samples per node.
    pub ticks: u64,
    /// Lines per POST.
    pub batch: usize,
}

impl StreamShape {
    /// The change tick: study nodes shift at mid-run.
    pub fn change_tick(&self) -> u64 {
        self.ticks / 2
    }

    /// Query string of the session-creating first POST.
    pub fn params(&self) -> String {
        format!(
            "nodes={PAIRS}&kpi={KPI}&change_minute={}&step_minutes={STEP_MINUTES}",
            self.change_tick() * STEP_MINUTES
        )
    }
}

/// The session `cornetd` builds for an ingest tenant, as its `/v1/ingest`
/// documents it: `study-i` paired with `control-i` (node ids `i` and
/// `PAIRS + i`), markets round-robin, one rule on the session KPI.
pub struct Session {
    pub inventory: Inventory,
    pub topology: Topology,
    pub scope: ChangeScope,
    pub rules: Vec<VerificationRule>,
}

impl Session {
    pub fn new(shape: &StreamShape) -> Session {
        let markets = ["NYC", "DFW", "SEA"];
        let mut inventory = Inventory::new();
        for i in 0..2 * PAIRS {
            inventory.push(
                stream_node(i),
                NfType::ENodeB,
                Attributes::new().with("market", markets[i % PAIRS % markets.len()]),
            );
        }
        let study: Vec<NodeId> = (0..PAIRS as u32).map(NodeId).collect();
        let mut topology = Topology::with_capacity(2 * PAIRS);
        for &s in &study {
            topology.add_edge(s, NodeId(s.0 + PAIRS as u32));
        }
        let mut rule = VerificationRule::standard(
            "ingest",
            vec![KpiQuery::expecting(KPI, true, Expectation::Any)],
        );
        rule.location_attributes = vec!["market".into()];
        Session {
            inventory,
            topology,
            scope: ChangeScope::simultaneous(&study, shape.change_tick() * STEP_MINUTES),
            rules: vec![rule],
        }
    }
}

/// The value of `node` (0..2·PAIRS; study nodes first) at grid tick `k`.
pub fn value_at(seed: u64, node: usize, k: u64, shape: &StreamShape) -> f64 {
    let mut r = Rng::new(seed ^ (node as u64) << 32 ^ k, 0x4B1);
    let mut v = 100.0 + r.unit() * 4.0;
    if node < PAIRS && k >= shape.change_tick() {
        v += SHIFT;
    }
    v
}

/// Node name of node index `node` as the daemon's session names them.
pub fn stream_node(node: usize) -> String {
    if node < PAIRS {
        format!("study-{node}")
    } else {
        format!("control-{}", node - PAIRS)
    }
}

/// The sample feed as JSONL batches: tick-major order with about 5% of
/// samples delivered out of order (swapped a few positions later) or
/// duplicated (re-sent later with the same value).
pub fn ingest_batches(seed: u64, shape: &StreamShape) -> Vec<String> {
    let nodes = 2 * PAIRS;
    let mut order: Vec<(usize, u64)> = (0..shape.ticks)
        .flat_map(|k| (0..nodes).map(move |n| (n, k)))
        .collect();
    let mut rng = Rng::new(seed, 0x1A6E);
    let len = order.len();
    for i in 0..len {
        if rng.below(40) == 0 {
            let j = (i + 1 + rng.below(64) as usize).min(len - 1);
            order.swap(i, j);
        }
    }
    let mut lines = Vec::with_capacity(len + len / 30);
    for (i, &(n, k)) in order.iter().enumerate() {
        lines.push(sample_line(n, k, value_at(seed, n, k, shape)));
        if rng.below(40) == 0 {
            let back = rng.below(i as u64 + 1) as usize;
            let (dn, dk) = order[i - back.min(i)];
            lines.push(sample_line(dn, dk, value_at(seed, dn, dk, shape)));
        }
    }
    lines
        .chunks(shape.batch)
        .map(|c| {
            let mut body = c.join("\n");
            body.push('\n');
            body
        })
        .collect()
}

fn sample_line(node: usize, k: u64, value: f64) -> String {
    format!(
        "{{\"node\":\"{}\",\"kpi\":\"{KPI}\",\"minute\":{},\"value\":{value:?}}}",
        stream_node(node),
        k * STEP_MINUTES
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundles_are_deterministic_in_the_seed() {
        let a = round(11, 0);
        let b = round(11, 0);
        let c = round(12, 0);
        assert_eq!(a.len(), 41);
        let text = |v: &[Submission]| v.iter().map(|s| s.body.clone()).collect::<String>();
        assert_eq!(text(&a), text(&b));
        assert_ne!(text(&a), text(&c));
        assert_ne!(text(&a), text(&round(11, 1)));
    }

    #[test]
    fn the_round_mix_is_fixed_whatever_the_seed() {
        for seed in [1, 2, 3] {
            let r = round(seed, 0);
            let count =
                |e: Expect, n: usize| r.iter().filter(|s| s.expect == e && s.nodes == n).count();
            assert_eq!(count(Expect::Created, SMALL), 29);
            assert_eq!(count(Expect::Created, MEDIUM), 4);
            assert_eq!(count(Expect::Created, LARGE), 1);
            assert_eq!(count(Expect::Rejected, SMALL), 4);
            assert_eq!(count(Expect::Conflict, SMALL), 3);
        }
    }

    #[test]
    fn streams_are_deterministic_and_cover_the_grid() {
        let shape = StreamShape {
            ticks: 30,
            batch: 100,
        };
        let a = ingest_batches(5, &shape);
        assert_eq!(a, ingest_batches(5, &shape));
        assert_ne!(a, ingest_batches(6, &shape));
        let lines: Vec<&str> = a.iter().flat_map(|b| b.lines()).collect();
        let unique: std::collections::BTreeSet<&str> = lines.iter().copied().collect();
        assert_eq!(unique.len(), 2 * PAIRS * 30, "every grid cell is delivered");
        assert!(lines.len() > unique.len(), "some samples are duplicated");
    }
}
