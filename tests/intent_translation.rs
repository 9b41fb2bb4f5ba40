//! Integration test reproducing Appendix B: the full high-level JSON
//! intent of Listing 1 translated into a mathematical model (our IR plus
//! emitted MiniZinc text mirroring Listing 2), and solved. The emitted
//! text is pinned byte for byte by `tests/golden/listing1.mzn`
//! (regenerate with `UPDATE_GOLDEN=1 cargo test --test intent_translation`).

use cornet::planner::{translate, GroupStrategy, PlanIntent, TranslateOptions};
use cornet::solver::{solve, SolverConfig};
use cornet::types::{Attributes, Inventory, NfType, NodeId, Topology};

/// Listing 1, lightly reduced (same structure, smaller capacities so the
/// test network exercises every constraint).
const LISTING1: &str = r#"{
    "scheduling_window": {
        "start": "2020-07-01 00:00:00",
        "end": "2020-07-07 23:59:00",
        "granularity": {"metric": "day", "value": 1}
    },
    "maintenance_window": {"start": "0:00", "end": "6:00",
                            "granularity": "hour", "timezone": "local"},
    "excluded_periods": [
        {"start": "2020-07-01 00:00:00", "end": "2020-07-01 23:59:00"},
        {"start": "2020-07-04 00:00:00", "end": "2020-07-05 23:59:00"}
    ],
    "schedulable_attribute": "common_id",
    "conflict_attribute": "common_id",
    "frozen_elements": [
        {"common_id": "id000041"},
        {"common_id": "id000003",
         "start": "2020-07-02 00:00:00", "end": "2020-07-02 23:59:00"}
    ],
    "conflict_table": {
        "id000001": [
            {"start": "2020-07-01 00:00:00", "end": "2020-07-04 00:00:00",
             "tickets": ["CHG000005482383"]}
        ],
        "id000002": [
            {"start": "2020-07-03 00:00:00", "end": "2020-07-05 00:00:00",
             "tickets": ["CHG000005485234", "CHG000005485999"]}
        ]
    },
    "constraints": [
        {"name": "conflict_handling", "value": "minimize-conflicts"},
        {"name": "concurrency", "base_attribute": "common_id",
         "operator": "<=", "granularity": {"metric": "day", "value": 1},
         "default_capacity": 4},
        {"name": "concurrency", "base_attribute": "market",
         "operator": "<=", "granularity": {"metric": "day", "value": 1},
         "default_capacity": 2},
        {"name": "concurrency", "base_attribute": "common_id",
         "aggregate_attribute": "pool_id", "operator": "<=",
         "granularity": {"metric": "day", "value": 1},
         "default_capacity": 2},
        {"name": "uniformity", "attribute": "utc_offset", "value": 1},
        {"name": "localize", "attribute": "market"}
    ]
}"#;

/// 12 nodes over 3 markets / 2 pools / 2 timezones.
fn inventory() -> Inventory {
    let mut inv = Inventory::new();
    for i in 0..12 {
        let market = ["NYC", "CHI", "DEN"][i / 4];
        let offset = [-5.0, -6.0, -7.0][i / 4];
        inv.push(
            format!("enb-{i:03}"),
            NfType::ENodeB,
            Attributes::new()
                .with("market", market)
                .with("utc_offset", offset)
                .with("pool_id", (i % 2) as i64),
        );
    }
    inv
}

#[test]
fn listing1_translates_solves_and_emits_minizinc() {
    let intent = PlanIntent::from_json(LISTING1).expect("Listing 1 parses");
    let inv = inventory();
    let topo = Topology::with_capacity(12);
    let nodes: Vec<NodeId> = inv.ids().collect();

    let translation =
        translate(&intent, &inv, &topo, &nodes, &TranslateOptions::default()).unwrap();

    // Structure: 12 units (no consistency rule), 4 usable slots (July 2,
    // 3, 6, 7).
    assert_eq!(translation.units.len(), 12);
    assert_eq!(translation.slots.len(), 4);
    let stats = translation.model.stats();
    assert!(
        stats.by_kind["capacity"] >= 2,
        "ESA + per-pool capacities: {:?}",
        stats.by_kind
    );
    assert_eq!(
        stats.by_kind["distinct_groups"], 1,
        "market concurrency via linking"
    );
    assert_eq!(stats.by_kind["max_spread"], 1, "timezone uniformity");
    assert_eq!(stats.by_kind["non_interleaved"], 1, "market localize");

    // Emission: Listing 2 parity markers.
    let mzn = translation.model.to_minizinc();
    assert!(
        mzn.contains("COMMON_ID_SCHEDULED"),
        "variable naming matches Listing 2"
    );
    assert!(
        mzn.contains("solve minimize"),
        "minimize-conflicts objective"
    );
    assert!(mzn.contains("% concurrency"), "labeled constraint sections");
    assert!(
        mzn.lines().count() > 50,
        "these models are long (Appendix B)"
    );

    // Solve and decode.
    let result = solve(&translation.model, &SolverConfig::default());
    let conflicts = intent.conflicts().unwrap();
    let schedule = translation.decode(&result.solution().assignment, &conflicts);

    // Frozen id000041 is not in our 12-node scope; nothing frozen out.
    assert!(translation.frozen_out.is_empty());
    // id000003 must not land on July 2 (slot 2) — its frozen period.
    if let Some(slot) = schedule.assignments.get(&NodeId(3)) {
        assert_ne!(slot.0, 2, "frozen period respected");
    }
    // Uniformity: co-slotted nodes within 1 timezone of each other.
    for (a, sa) in &schedule.assignments {
        for (b, sb) in &schedule.assignments {
            if sa == sb {
                let ta = inv.attr_of(*a, "utc_offset").unwrap().as_f64().unwrap();
                let tb = inv.attr_of(*b, "utc_offset").unwrap().as_f64().unwrap();
                assert!((ta - tb).abs() <= 1.0);
            }
        }
    }
    // The model checker agrees with the solver.
    assert!(translation
        .model
        .check(&result.solution().assignment)
        .is_ok());
}

#[test]
fn listing1_minizinc_matches_golden() {
    let intent = PlanIntent::from_json(LISTING1).unwrap();
    let inv = inventory();
    let topo = Topology::with_capacity(12);
    let nodes: Vec<NodeId> = inv.ids().collect();
    let translation =
        translate(&intent, &inv, &topo, &nodes, &TranslateOptions::default()).unwrap();
    let mzn = translation.model.to_minizinc();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/listing1.mzn");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &mzn).expect("golden written");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden present (UPDATE_GOLDEN=1)");
    assert_eq!(mzn, golden, "MiniZinc emission changed");
}

#[test]
fn hybrid_strategy_changes_model_shape_but_stays_feasible() {
    let intent = PlanIntent::from_json(LISTING1).unwrap();
    let inv = inventory();
    let topo = Topology::with_capacity(12);
    let nodes: Vec<NodeId> = inv.ids().collect();

    let linking = translate(&intent, &inv, &topo, &nodes, &TranslateOptions::default()).unwrap();
    let hybrid = translate(
        &intent,
        &inv,
        &topo,
        &nodes,
        &TranslateOptions {
            strategy: GroupStrategy::HybridWeights,
            ..Default::default()
        },
    )
    .unwrap();
    // The linking strategy uses the distinct-groups global; the hybrid
    // replaces it with a weighted capacity (denser linear relaxation —
    // §3.3.2's performance-vs-expressiveness trade-off).
    assert!(linking
        .model
        .stats()
        .by_kind
        .contains_key("distinct_groups"));
    assert!(!hybrid.model.stats().by_kind.contains_key("distinct_groups"));
    assert!(hybrid.model.stats().by_kind["capacity"] > linking.model.stats().by_kind["capacity"]);
    let r = solve(&hybrid.model, &SolverConfig::default());
    assert!(r.best.is_some(), "hybrid model solves");
}

#[test]
fn zero_tolerance_variant_forbids_all_conflicts() {
    let mut intent = PlanIntent::from_json(LISTING1).unwrap();
    // Flip conflict handling to zero tolerance.
    for c in &mut intent.constraints {
        if let cornet::planner::ConstraintRule::ConflictHandling { value } = c {
            *value = cornet::planner::ConflictTolerance::Zero;
        }
    }
    let inv = inventory();
    let topo = Topology::with_capacity(12);
    let nodes: Vec<NodeId> = inv.ids().collect();
    let translation =
        translate(&intent, &inv, &topo, &nodes, &TranslateOptions::default()).unwrap();
    let result = solve(&translation.model, &SolverConfig::default());
    let schedule = translation.decode(&result.solution().assignment, &intent.conflicts().unwrap());
    assert_eq!(
        schedule.conflicts, 0,
        "zero tolerance yields a conflict-free plan"
    );
}
