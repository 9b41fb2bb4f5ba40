//! Correctness oracles, independent of the code paths they check.

use crate::gen::{value_at, Session, StreamShape, STEP_MINUTES};
use crate::plan_ran::{Input, WINDOW_DAYS};
#[cfg(test)]
use cornet_core::{
    blast::{campaign_blasts, conflicts_between, CampaignBlast},
    gate, load_bundle,
};
use cornet_stats::TimeSeries;
use cornet_types::json::{parse, JsonValue};
use cornet_types::{NodeId, Schedule};
use cornet_verifier::{verify_rules, ClosureAdapter, GoNoGo, VerificationReport};
use std::collections::HashMap;

/// Re-verify a plan: every scoped node is scheduled inside the window,
/// the daily cap holds in every granule, `usid` groups share a slot, and
/// the plan incurs no conflicts.
pub fn check_plan(input: &Input, schedule: &Schedule) -> Result<(), String> {
    if !schedule.leftovers.is_empty() {
        return Err(format!(
            "{} scoped nodes left unscheduled",
            schedule.leftovers.len()
        ));
    }
    if schedule.conflicts != 0 {
        return Err(format!("plan incurs {} conflicts", schedule.conflicts));
    }
    let mut per_slot: HashMap<u32, usize> = HashMap::new();
    let mut usid_slot: HashMap<String, u32> = HashMap::new();
    for &node in &input.nodes {
        let Some(slot) = schedule.assignments.get(&node) else {
            return Err(format!("node {node} is not scheduled"));
        };
        if slot.0 == 0 || slot.0 > WINDOW_DAYS {
            return Err(format!(
                "node {node} scheduled outside the window (slot {})",
                slot.0
            ));
        }
        *per_slot.entry(slot.0).or_insert(0) += 1;
        let usid = input
            .net
            .inventory
            .group_key_of(node, "usid")
            .ok_or_else(|| format!("node {node} has no usid"))?;
        match usid_slot.get(&usid) {
            Some(&s) if s != slot.0 => {
                return Err(format!("usid {usid} split across slots {s} and {}", slot.0))
            }
            Some(_) => {}
            None => {
                usid_slot.insert(usid, slot.0);
            }
        }
    }
    if schedule.assignments.len() != input.nodes.len() {
        return Err(format!(
            "plan assigns {} nodes, {} are in scope",
            schedule.assignments.len(),
            input.nodes.len()
        ));
    }
    if let Some((slot, n)) = per_slot.iter().find(|(_, &n)| n > input.cap) {
        return Err(format!(
            "day {slot} carries {n} nodes over the cap of {}",
            input.cap
        ));
    }
    Ok(())
}

/// The status `cornetd` must answer a submission with, modelled with the
/// program's own gate and blast functions run in-process: 400 for a body
/// that does not load, 422 when the check gate refuses it, 409 when a
/// declared campaign races (CN0601) a live one in `live`, 201 otherwise.
/// The tests hold the generator's predictions to it.
#[cfg(test)]
pub fn expected_status(body: &str, live: &[Vec<CampaignBlast>]) -> u16 {
    let Ok(bundle) = load_bundle(body) else {
        return 400;
    };
    if gate(&bundle).is_err() {
        return 422;
    }
    if !bundle.campaigns.is_empty() {
        let submitted = campaign_blasts(&bundle);
        let races = live
            .iter()
            .flat_map(|l| conflicts_between(&submitted, l))
            .any(|c| c.code == "CN0601");
        if races {
            return 409;
        }
    }
    201
}

/// The verdict fields an operator acts on, rendered identically from a
/// daemon snapshot and from a batch report.
pub fn render_verdicts(reports: &[VerificationReport]) -> String {
    let mut out = String::new();
    for r in reports {
        let decision = match r.decision {
            GoNoGo::Go => "go",
            GoNoGo::NoGo => "no-go",
        };
        out.push_str(&format!("{}:{decision}", r.rule));
        for k in &r.kpis {
            out.push_str(&format!(
                "|{}:{:?}:{:e}:{:.6}:{}",
                k.query.kpi,
                k.overall.verdict,
                k.overall.p_value,
                k.overall.relative_shift,
                k.meets_expectation
            ));
        }
        out.push(';');
    }
    out
}

/// The same fields read from a `GET /v1/ingest` body.
pub fn render_snapshot_verdicts(body: &str) -> Result<String, String> {
    let v = parse(body).map_err(|e| format!("snapshot is not JSON: {e}"))?;
    if let Some(e) = v.get("error").and_then(|e| e.as_str()) {
        return Err(format!("snapshot carries an error: {e}"));
    }
    let verdicts = v
        .get("verdicts")
        .and_then(|x| x.as_array())
        .ok_or("snapshot has no verdicts")?;
    let mut out = String::new();
    for r in verdicts {
        let s =
            |x: &JsonValue, k: &str| x.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
        out.push_str(&format!("{}:{}", s(r, "rule"), s(r, "decision")));
        for k in r.get("kpis").and_then(|x| x.as_array()).unwrap_or(&[]) {
            let n = |key: &str| k.get(key).and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
            let meets = matches!(k.get("meets_expectation"), Some(JsonValue::Bool(true)));
            out.push_str(&format!(
                "|{}:{}:{:e}:{:.6}:{meets}",
                s(k, "kpi"),
                s(k, "verdict"),
                n("p_value"),
                n("relative_shift"),
            ));
        }
        out.push(';');
    }
    Ok(out)
}

/// Batch verification of the whole de-duplicated ingest grid over the
/// daemon's session shape.
pub fn batch_verdicts(seed: u64, shape: &StreamShape) -> Result<Vec<VerificationReport>, String> {
    let session = Session::new(shape);
    let shape = *shape;
    let adapter = ClosureAdapter(move |node: NodeId, _: &str, _: Option<usize>| {
        Some(TimeSeries::new(
            0,
            STEP_MINUTES,
            (0..shape.ticks)
                .map(|k| value_at(seed, node.0 as usize, k, &shape))
                .collect(),
        ))
    });
    verify_rules(
        &adapter,
        &session.rules,
        &session.scope,
        &session.inventory,
        &session.topology,
    )
    .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{round, Expect};

    fn example(name: &str) -> String {
        let path = format!(
            "{}/../examples/check/{name}.json",
            env!("CARGO_MANIFEST_DIR")
        );
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    fn blasts(body: &str) -> Vec<CampaignBlast> {
        campaign_blasts(&load_bundle(body).expect("bundle loads"))
    }

    #[test]
    fn checked_in_examples_get_their_statuses() {
        assert_eq!(expected_status(&example("clean"), &[]), 201);
        assert_eq!(expected_status(&example("defective"), &[]), 422);
        // Its two campaigns race each other inside the bundle: the gate
        // refuses it before any live campaign is consulted.
        assert_eq!(expected_status(&example("conflict"), &[]), 422);
        // A bundle racing its own live copy is refused as interfering.
        let clean = example("clean");
        assert_eq!(expected_status(&clean, &[blasts(&clean)]), 409);
        assert_eq!(expected_status("{not json", &[]), 400);
    }

    #[test]
    fn generated_bundles_get_the_status_their_generator_predicts() {
        let subs = round(3, 0);
        let anchor = blasts(&subs[0].body);
        for s in &subs {
            let live = if s.expect == Expect::Created && std::ptr::eq(s, &subs[0]) {
                vec![]
            } else {
                vec![anchor.clone()]
            };
            assert_eq!(
                expected_status(&s.body, &live),
                s.expect.status(),
                "{:?} bundle of {} nodes",
                s.expect,
                s.nodes
            );
        }
    }
}
