//! Intent linting — the §6 "high-level intent completeness" problem.
//!
//! "For new intents, it takes some level of mathematical sophistication to
//! translate network operator's intent … and guarantee that they indeed
//! capture network operators' intent." The linter closes part of that gap
//! mechanically: before translation it checks an intent against the
//! inventory for contradictions, vacuous rules, and capacity shortfalls
//! that would otherwise surface as mysterious infeasibility or silently
//! empty schedules, and explains each finding in operator language.
//!
//! The checks are `cornet-analysis` passes emitting `CN04xx` diagnostics;
//! [`analyze_intent`] returns the full [`Report`] while [`lint`] projects
//! it onto the legacy [`LintReport`] shape (slug codes like
//! `"window-capacity-shortfall"`) for existing call sites.

use crate::intent::{ConstraintRule, PlanIntent};
use cornet_analysis::{Code, Diagnostic, Report, Severity, SourceRef};
use cornet_types::{Inventory, NodeId, Result};

/// Severity of a lint finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LintLevel {
    /// The intent cannot produce a meaningful plan.
    Error,
    /// The intent will plan, but probably not the way the operator thinks.
    Warning,
}

/// One lint finding with an operator-facing explanation.
#[derive(Clone, Debug, PartialEq)]
pub struct LintFinding {
    /// Severity.
    pub level: LintLevel,
    /// Short machine-readable code, e.g. `"capacity-below-group"`.
    pub code: String,
    /// Human explanation with concrete numbers.
    pub message: String,
}

/// Lint report for one intent over a node scope.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// Findings, errors first.
    pub findings: Vec<LintFinding>,
}

impl LintReport {
    /// True when no error-level findings exist.
    pub fn is_plannable(&self) -> bool {
        self.findings.iter().all(|f| f.level != LintLevel::Error)
    }

    /// Project an analysis [`Report`] onto the legacy slug-coded shape.
    /// The report's severity-first sort keeps errors before warnings.
    pub fn from_report(report: &Report) -> Self {
        LintReport {
            findings: report
                .iter()
                .map(|d| LintFinding {
                    level: match d.severity {
                        Severity::Error => LintLevel::Error,
                        _ => LintLevel::Warning,
                    },
                    code: legacy_slug(d.code).to_owned(),
                    message: d.message.clone(),
                })
                .collect(),
        }
    }
}

/// Legacy slug for a `CN04xx` diagnostic code (stable operator-facing
/// identifiers predating the unified code space).
pub fn legacy_slug(code: Code) -> &'static str {
    match code.0 {
        "CN0401" => "window-fully-excluded",
        "CN0402" => "window-mostly-excluded",
        "CN0403" => "empty-maintenance-window",
        "CN0404" => "non-positive-capacity",
        "CN0405" => "sub-slot-granularity",
        "CN0406" => "unknown-attribute",
        "CN0407" => "vacuous-consistency",
        "CN0408" => "non-numeric-uniformity",
        "CN0409" => "negative-uniformity-distance",
        "CN0410" => "vacuous-uniformity",
        "CN0411" => "vacuous-localize",
        "CN0412" => "window-capacity-shortfall",
        "CN0413" => "capacity-below-group",
        "CN0414" => "no-concurrency-rule",
        "CN0415" => "frozen-matches-nothing",
        "CN0416" => "cross-campaign-conflict",
        "CN0417" => "single-mega-shard",
        "CN0418" => "shard-exceeds-bound",
        other => other,
    }
}

/// Knobs for the shard-shape checks (`CN0417`/`CN0418`).
#[derive(Clone, Copy, Debug)]
pub struct LintOptions {
    /// Scope size below which a single timezone/market shard is normal
    /// and `CN0417` stays quiet.
    pub shard_scope_threshold: usize,
    /// Maximum nodes one timezone/market shard should hold before
    /// `CN0418` flags it as dominating the sharded wall-clock.
    pub max_shard_nodes: usize,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            shard_scope_threshold: 256,
            max_shard_nodes: 50_000,
        }
    }
}

/// Lint an intent against the inventory and node scope (legacy shape; see
/// [`analyze_intent`] for diagnostics with stable codes and anchors).
pub fn lint(intent: &PlanIntent, inventory: &Inventory, nodes: &[NodeId]) -> Result<LintReport> {
    Ok(LintReport::from_report(&analyze_intent(
        intent, inventory, nodes,
    )?))
}

/// Analyze an intent against the inventory and node scope, emitting
/// `CN04xx` diagnostics anchored to the offending rule.
pub fn analyze_intent(
    intent: &PlanIntent,
    inventory: &Inventory,
    nodes: &[NodeId],
) -> Result<Report> {
    analyze_intent_with(intent, inventory, nodes, &LintOptions::default())
}

/// [`analyze_intent`] with explicit shard-shape thresholds.
pub fn analyze_intent_with(
    intent: &PlanIntent,
    inventory: &Inventory,
    nodes: &[NodeId],
    options: &LintOptions,
) -> Result<Report> {
    let mut report = Report::new();
    let window = intent.window()?;
    let usable = window.usable_slots();

    // --- window sanity.
    if usable.is_empty() {
        report.push(Diagnostic::error(
            Code("CN0401"),
            SourceRef::Intent,
            "every slot of the scheduling window falls inside an excluded period",
        ));
    } else if usable.len() < window.raw_slot_count() as usize / 2 {
        report.push(Diagnostic::warning(
            Code("CN0402"),
            SourceRef::Intent,
            format!(
                "only {} of {} slots are usable after exclusions",
                usable.len(),
                window.raw_slot_count()
            ),
        ));
    }
    if window.maintenance.duration_minutes() == 0 {
        report.push(Diagnostic::error(
            Code("CN0403"),
            SourceRef::Intent,
            "the maintenance window has zero duration; no change can execute",
        ));
    }

    // --- rule-by-rule checks.
    let mut total_capacity_per_slot: Option<i64> = None;
    let mut has_capacity_rule = false;
    let mut largest_consistency_group = 0usize;
    let mut consistency_attr = String::new();

    for rule in &intent.constraints {
        match rule {
            ConstraintRule::Concurrency {
                base_attribute,
                aggregate_attribute,
                granularity,
                default_capacity,
                ..
            } => {
                let anchor = SourceRef::Rule {
                    rule: format!("concurrency[{base_attribute}]"),
                };
                has_capacity_rule = true;
                if *default_capacity <= 0 {
                    report.push(Diagnostic::error(
                        Code("CN0404"),
                        anchor.clone(),
                        format!(
                            "concurrency on '{base_attribute}' has capacity {default_capacity}; nothing can be scheduled"
                        ),
                    ));
                }
                if granularity.minutes() < window.granularity.minutes() {
                    report.push(Diagnostic::warning(
                        Code("CN0405"),
                        anchor.clone(),
                        format!(
                            "concurrency granularity ({} min) is finer than the timeslot ({} min); it will be applied per slot",
                            granularity.minutes(),
                            window.granularity.minutes()
                        ),
                    ));
                }
                let check_attr = |attr: &str, report: &mut Report| {
                    if attr != "common_id"
                        && inventory.group_by(nodes, attr).group_count() == 0
                        && !nodes.is_empty()
                    {
                        report.push(Diagnostic::error(
                            Code("CN0406"),
                            anchor.clone(),
                            format!("attribute '{attr}' is absent from every node in scope"),
                        ));
                    }
                };
                check_attr(base_attribute, &mut report);
                if let Some(agg) = aggregate_attribute {
                    check_attr(agg, &mut report);
                }
                // Estimate total per-slot throughput for the shortfall check.
                let slots_per_granule =
                    (granularity.minutes() / window.granularity.minutes()).max(1) as i64;
                // Round the per-slot throughput UP: a weekly cap of 5 over
                // daily slots still admits up to 5 in some single slot, and
                // flooring to 0 would raise false shortfall errors.
                let per_slot = if base_attribute == &intent.schedulable_attribute {
                    match aggregate_attribute {
                        Some(agg) => {
                            let groups = inventory.group_by(nodes, agg).group_count().max(1);
                            ((default_capacity + slots_per_granule - 1) / slots_per_granule)
                                * groups as i64
                        }
                        None => (default_capacity + slots_per_granule - 1) / slots_per_granule,
                    }
                } else {
                    i64::MAX // distinct-group caps don't bound node throughput directly
                };
                total_capacity_per_slot = Some(match total_capacity_per_slot {
                    Some(c) => c.min(per_slot),
                    None => per_slot,
                });
            }
            ConstraintRule::Consistency { attribute } => {
                let anchor = SourceRef::Rule {
                    rule: format!("consistency[{attribute}]"),
                };
                let groups = inventory.group_by(nodes, attribute);
                if groups.group_count() == 0 && !nodes.is_empty() {
                    report.push(Diagnostic::error(
                        Code("CN0406"),
                        anchor,
                        format!("consistency attribute '{attribute}' is absent from the scope"),
                    ));
                } else {
                    let largest = groups.members().iter().map(Vec::len).max().unwrap_or(0);
                    if largest > largest_consistency_group {
                        largest_consistency_group = largest;
                        consistency_attr = attribute.clone();
                    }
                    if groups.group_count() == nodes.len() {
                        report.push(Diagnostic::warning(
                            Code("CN0407"),
                            anchor,
                            format!(
                                "every node has a distinct '{attribute}'; the consistency rule groups nothing"
                            ),
                        ));
                    }
                }
            }
            ConstraintRule::Uniformity { attribute, value } => {
                let anchor = SourceRef::Rule {
                    rule: format!("uniformity[{attribute}]"),
                };
                // Sample evenly across the scope — node ids are often
                // sorted by geography, so a prefix sample would see one
                // timezone only.
                let stride = (nodes.len() / 64).max(1);
                let vals: Vec<f64> = nodes
                    .iter()
                    .step_by(stride)
                    .filter_map(|&n| inventory.attr_of(n, attribute).and_then(|v| v.as_f64()))
                    .collect();
                if vals.is_empty() && !nodes.is_empty() {
                    report.push(Diagnostic::error(
                        Code("CN0408"),
                        anchor,
                        format!(
                            "uniformity needs a numeric attribute; '{attribute}' is categorical or absent"
                        ),
                    ));
                } else if *value < 0.0 {
                    report.push(Diagnostic::error(
                        Code("CN0409"),
                        anchor,
                        format!("uniformity distance {value} is negative"),
                    ));
                } else if !vals.is_empty() {
                    let (lo, hi) = vals
                        .iter()
                        .fold((f64::MAX, f64::MIN), |(l, h), v| (l.min(*v), h.max(*v)));
                    if hi - lo <= *value {
                        report.push(Diagnostic::warning(
                            Code("CN0410"),
                            anchor,
                            format!(
                                "all '{attribute}' values span {:.2} ≤ allowed {value}; the rule constrains nothing",
                                hi - lo
                            ),
                        ));
                    }
                }
            }
            ConstraintRule::Localize { attribute } => {
                let anchor = SourceRef::Rule {
                    rule: format!("localize[{attribute}]"),
                };
                let groups = inventory.group_by(nodes, attribute);
                if groups.group_count() == 0 && !nodes.is_empty() {
                    report.push(Diagnostic::error(
                        Code("CN0406"),
                        anchor,
                        format!("localize attribute '{attribute}' is absent from the scope"),
                    ));
                } else if groups.group_count() <= 1 {
                    report.push(Diagnostic::warning(
                        Code("CN0411"),
                        anchor,
                        format!(
                            "scope has {} group(s) of '{attribute}'; localize needs at least two to matter",
                            groups.group_count()
                        ),
                    ));
                }
            }
            ConstraintRule::ConflictHandling { .. } | ConstraintRule::ConflictScope { .. } => {}
        }
    }

    // --- capacity shortfall: can the window even hold the scope?
    if let Some(per_slot) = total_capacity_per_slot {
        if per_slot != i64::MAX {
            let total = per_slot.saturating_mul(usable.len() as i64);
            if (nodes.len() as i64) > total {
                report.push(Diagnostic::error(
                    Code("CN0412"),
                    SourceRef::Intent,
                    format!(
                        "{} nodes in scope but the window holds at most {} ({} usable slots × {} per slot); expect leftovers",
                        nodes.len(),
                        total,
                        usable.len(),
                        per_slot
                    ),
                ));
            }
            if largest_consistency_group as i64 > per_slot {
                report.push(Diagnostic::error(
                    Code("CN0413"),
                    SourceRef::Rule {
                        rule: format!("consistency[{consistency_attr}]"),
                    },
                    format!(
                        "largest '{consistency_attr}' consistency group has {largest_consistency_group} nodes but per-slot capacity is {per_slot}; the group can never be scheduled together"
                    ),
                ));
            }
        }
    } else if !has_capacity_rule {
        report.push(Diagnostic::warning(
            Code("CN0414"),
            SourceRef::Intent,
            "no concurrency rule: the whole scope may be scheduled into a single slot",
        ));
    }

    // --- frozen elements that match nothing.
    for f in &intent.frozen_elements {
        let matches_any = nodes.iter().any(|&n| {
            f.selector.iter().all(|(key, value)| {
                inventory.group_key_of(n, key).as_deref() == Some(value.as_str())
            }) && !f.selector.is_empty()
        });
        if !matches_any {
            report.push(Diagnostic::warning(
                Code("CN0415"),
                SourceRef::Intent,
                format!("frozen element {:?} matches no node in scope", f.selector),
            ));
        }
    }

    // --- shard shape: will sharded solving actually parallelize?
    // Nodes are keyed exactly as `decompose::shard_translation` keys
    // units: timezone (milli-hours) plus market attribute.
    {
        let mut shard_sizes: std::collections::BTreeMap<(i64, String), usize> =
            std::collections::BTreeMap::new();
        for &n in nodes {
            let tz_milli = inventory
                .attr_of(n, "utc_offset")
                .and_then(|v| v.as_f64())
                .map_or(0, |tz| (tz * 1000.0).round() as i64);
            let market = inventory.group_key_of(n, "market").unwrap_or_default();
            *shard_sizes.entry((tz_milli, market)).or_insert(0) += 1;
        }
        if shard_sizes.len() == 1 && nodes.len() >= options.shard_scope_threshold {
            let (tz_milli, market) = shard_sizes.keys().next().expect("one shard");
            report.push(Diagnostic::warning(
                Code("CN0417"),
                SourceRef::Intent,
                format!(
                    "all {} nodes fall into one timezone/market shard (utc_offset {}, market {:?}); \
                     sharded solving degenerates to a single sequential solve",
                    nodes.len(),
                    *tz_milli as f64 / 1000.0,
                    market
                ),
            ));
        }
        for ((tz_milli, market), size) in &shard_sizes {
            if *size > options.max_shard_nodes {
                report.push(Diagnostic::warning(
                    Code("CN0418"),
                    SourceRef::Intent,
                    format!(
                        "timezone/market shard (utc_offset {}, market {:?}) holds {size} nodes, \
                         over the {}-node bound; this shard dominates the sharded wall-clock",
                        *tz_milli as f64 / 1000.0,
                        market,
                        options.max_shard_nodes
                    ),
                ));
            }
        }
    }

    report.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_types::{Attributes, NfType};

    fn inventory() -> Inventory {
        let mut inv = Inventory::new();
        for i in 0..8 {
            inv.push(
                format!("n{i}"),
                NfType::ENodeB,
                Attributes::new()
                    .with("market", if i < 4 { "NYC" } else { "DFW" })
                    .with("utc_offset", if i < 4 { -5.0 } else { -6.0 })
                    .with("usid", format!("U{}", i / 2)),
            );
        }
        inv
    }

    fn intent(json_constraints: &str) -> PlanIntent {
        PlanIntent::from_json(&format!(
            r#"{{
            "scheduling_window": {{"start": "2020-07-01 00:00:00",
                                   "end": "2020-07-04 23:59:00",
                                   "granularity": {{"metric": "day", "value": 1}}}},
            "maintenance_window": {{"start": "0:00", "end": "6:00"}},
            "schedulable_attribute": "common_id",
            "conflict_attribute": "common_id",
            "constraints": [{json_constraints}]
        }}"#
        ))
        .unwrap()
    }

    fn nodes() -> Vec<NodeId> {
        (0..8).map(NodeId).collect()
    }

    const CAP2: &str = r#"{"name": "concurrency", "base_attribute": "common_id",
        "operator": "<=", "granularity": {"metric": "day", "value": 1},
        "default_capacity": 2}"#;

    #[test]
    fn clean_intent_passes() {
        let it = intent(CAP2);
        let r = lint(&it, &inventory(), &nodes()).unwrap();
        assert!(r.is_plannable(), "{:?}", r.findings);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn capacity_shortfall_detected() {
        // 8 nodes, 4 slots × capacity 1 = 4 places.
        let it = intent(
            r#"{"name": "concurrency", "base_attribute": "common_id",
                "operator": "<=", "granularity": {"metric": "day", "value": 1},
                "default_capacity": 1}"#,
        );
        let r = lint(&it, &inventory(), &nodes()).unwrap();
        assert!(!r.is_plannable());
        assert!(r
            .findings
            .iter()
            .any(|f| f.code == "window-capacity-shortfall"));
        // Through the analysis API, the same finding carries its CN code.
        let report = analyze_intent(&it, &inventory(), &nodes()).unwrap();
        assert!(report.iter().any(|d| d.code == Code("CN0412")));
    }

    #[test]
    fn consistency_group_exceeding_capacity() {
        let it = intent(&format!(
            r#"{}, {{"name": "consistency", "attribute": "usid"}}"#,
            r#"{"name": "concurrency", "base_attribute": "common_id",
                "operator": "<=", "granularity": {"metric": "day", "value": 1},
                "default_capacity": 1}"#
        ));
        let r = lint(&it, &inventory(), &nodes()).unwrap();
        assert!(
            r.findings.iter().any(|f| f.code == "capacity-below-group"),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn unknown_attribute_is_error() {
        let it = intent(r#"{"name": "localize", "attribute": "region_code"}"#);
        let r = lint(&it, &inventory(), &nodes()).unwrap();
        assert!(!r.is_plannable());
        assert!(r.findings.iter().any(|f| f.code == "unknown-attribute"));
    }

    #[test]
    fn categorical_uniformity_is_error() {
        let it = intent(r#"{"name": "uniformity", "attribute": "market", "value": 1}"#);
        let r = lint(&it, &inventory(), &nodes()).unwrap();
        assert!(r
            .findings
            .iter()
            .any(|f| f.code == "non-numeric-uniformity"));
    }

    #[test]
    fn vacuous_rules_warn() {
        let it = intent(&format!(
            r#"{CAP2}, {{"name": "uniformity", "attribute": "utc_offset", "value": 10}},
               {{"name": "localize", "attribute": "nf_type"}}"#
        ));
        let r = lint(&it, &inventory(), &nodes()).unwrap();
        assert!(r.is_plannable());
        assert!(r.findings.iter().any(|f| f.code == "vacuous-uniformity"));
        assert!(r.findings.iter().any(|f| f.code == "vacuous-localize"));
    }

    #[test]
    fn fully_excluded_window_is_error() {
        let mut it = intent(CAP2);
        it.excluded_periods.push(crate::intent::PeriodSpec {
            start: "2020-07-01 00:00:00".into(),
            end: "2020-07-04 23:59:00".into(),
        });
        let r = lint(&it, &inventory(), &nodes()).unwrap();
        assert!(r.findings.iter().any(|f| f.code == "window-fully-excluded"));
    }

    #[test]
    fn frozen_matching_nothing_warns() {
        let mut it = intent(CAP2);
        it.frozen_elements.push(crate::intent::FrozenElement {
            start: None,
            end: None,
            selector: [("market".to_string(), "SEA".to_string())].into(),
        });
        let r = lint(&it, &inventory(), &nodes()).unwrap();
        assert!(r
            .findings
            .iter()
            .any(|f| f.code == "frozen-matches-nothing"));
    }

    #[test]
    fn missing_concurrency_warns() {
        let it = intent(r#"{"name": "conflict_handling", "value": "zero-tolerance"}"#);
        let r = lint(&it, &inventory(), &nodes()).unwrap();
        assert!(r.is_plannable());
        assert!(r.findings.iter().any(|f| f.code == "no-concurrency-rule"));
    }

    #[test]
    fn errors_sort_before_warnings() {
        let it = intent(&format!(
            r#"{{"name": "uniformity", "attribute": "market", "value": 1}}, {CAP2}"#
        ));
        let mut it = it;
        it.frozen_elements.push(crate::intent::FrozenElement {
            start: None,
            end: None,
            selector: [("market".to_string(), "SEA".to_string())].into(),
        });
        let r = lint(&it, &inventory(), &nodes()).unwrap();
        assert!(r.findings.len() >= 2);
        assert_eq!(r.findings[0].level, LintLevel::Error);
    }

    fn mono_market_inventory(n: usize) -> Inventory {
        let mut inv = Inventory::new();
        for i in 0..n {
            inv.push(
                format!("n{i}"),
                NfType::ENodeB,
                Attributes::new()
                    .with("market", "NYC")
                    .with("utc_offset", -5.0),
            );
        }
        inv
    }

    #[test]
    fn single_mega_shard_warns_at_scale() {
        let inv = mono_market_inventory(300);
        let nodes: Vec<NodeId> = inv.ids().collect();
        let it = intent(&CAP2.replace("\"default_capacity\": 2", "\"default_capacity\": 100"));
        let r = lint(&it, &inv, &nodes).unwrap();
        assert!(
            r.findings.iter().any(|f| f.code == "single-mega-shard"),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn small_single_market_scope_is_not_flagged() {
        let r = lint(&intent(CAP2), &mono_market_inventory(8), &nodes()).unwrap();
        assert!(!r.findings.iter().any(|f| f.code == "single-mega-shard"));
    }

    #[test]
    fn oversized_shard_warns_under_configured_bound() {
        // Two markets, one grossly larger: with a 100-node bound the big
        // shard is flagged while the scope still parallelizes.
        let mut inv = Inventory::new();
        for i in 0..160 {
            let market = if i < 150 { "NYC" } else { "DFW" };
            let tz = if i < 150 { -5.0 } else { -6.0 };
            inv.push(
                format!("n{i}"),
                NfType::ENodeB,
                Attributes::new()
                    .with("market", market)
                    .with("utc_offset", tz),
            );
        }
        let nodes: Vec<NodeId> = inv.ids().collect();
        let it = intent(&CAP2.replace("\"default_capacity\": 2", "\"default_capacity\": 100"));
        let report = analyze_intent_with(
            &it,
            &inv,
            &nodes,
            &LintOptions {
                max_shard_nodes: 100,
                ..Default::default()
            },
        )
        .unwrap();
        let flagged: Vec<_> = report.iter().filter(|d| d.code == Code("CN0418")).collect();
        assert_eq!(flagged.len(), 1, "only the 150-node shard is over bound");
        assert!(flagged[0].message.contains("150 nodes"));
    }
}
