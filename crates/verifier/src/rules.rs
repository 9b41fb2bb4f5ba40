//! Verification-rule composition (§3.5.1).
//!
//! "We enable the operations teams to create multiple verification rules
//! for each change based on their expectation and the intent of the
//! change" — e.g. a software upgrade expected to improve voice quality
//! with a minor data-throughput degradation. A rule composes KPI queries
//! (each with an expectation), the location-aggregation attributes, the
//! control-group criterion, and the timescales to test.

use crate::control::ControlSelection;

/// Expected impact of the change on a KPI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// The KPI should improve.
    Improve,
    /// A (tolerated) degradation is expected.
    Degrade,
    /// No impact expected.
    NoChange,
    /// Anything goes — monitor only.
    Any,
}

/// One KPI query inside a rule.
#[derive(Clone, Debug, PartialEq)]
pub struct KpiQuery {
    /// KPI name in the data adapter.
    pub kpi: String,
    /// Whether larger values are better (throughput: yes, drop rate: no).
    pub upward_good: bool,
    /// Expected impact of this change on the KPI.
    pub expected: Expectation,
    /// Carrier frequency confinement, if any (Fig. 2's per-carrier view).
    pub carrier: Option<usize>,
}

impl KpiQuery {
    /// Monitoring query with no expectation.
    pub fn monitor(kpi: impl Into<String>, upward_good: bool) -> Self {
        KpiQuery {
            kpi: kpi.into(),
            upward_good,
            expected: Expectation::Any,
            carrier: None,
        }
    }

    /// Query expecting a specific outcome.
    pub fn expecting(kpi: impl Into<String>, upward_good: bool, expected: Expectation) -> Self {
        KpiQuery {
            kpi: kpi.into(),
            upward_good,
            expected,
            carrier: None,
        }
    }
}

/// A composed verification rule.
#[derive(Clone, Debug, PartialEq)]
pub struct VerificationRule {
    /// Rule name, e.g. `"sw-20.1-scorecard"`.
    pub name: String,
    /// KPI queries to evaluate.
    pub kpis: Vec<KpiQuery>,
    /// Inventory attributes to aggregate impacts by (empty = one global
    /// aggregate). Fig. 13's composition of location attributes.
    pub location_attributes: Vec<String>,
    /// Control-group criterion.
    pub control: ControlSelection,
    /// Optional attribute controls must share with the study group.
    pub control_attr_filter: Option<String>,
    /// Resampling factors to test (1 = native granularity; 24 = daily
    /// over hourly data). Multiple timescales catch both massive fast
    /// degradations and subtle slow ones (§3.5).
    pub timescales: Vec<usize>,
    /// Significance level for the rank test.
    pub alpha: f64,
    /// Practical-significance floor (fraction of the predicted level);
    /// shifts smaller than this report as no-impact. Operations teams tune
    /// this per rule — a scorecard KPI may care about 1%, an FFA gate
    /// about 5%.
    pub min_relative_shift: f64,
}

/// Serde default matching [`crate::analysis::AnalysisOptions`].
fn default_min_relative_shift() -> f64 {
    0.01
}

impl VerificationRule {
    /// A sensible default rule over a KPI list: first-tier control group,
    /// native + daily timescales, α = 0.01.
    pub fn standard(name: impl Into<String>, kpis: Vec<KpiQuery>) -> Self {
        VerificationRule {
            name: name.into(),
            kpis,
            location_attributes: Vec::new(),
            control: ControlSelection::FirstTier,
            control_attr_filter: None,
            timescales: vec![1, 24],
            alpha: 0.01,
            min_relative_shift: default_min_relative_shift(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_rule_defaults() {
        let r = VerificationRule::standard(
            "upgrade-check",
            vec![KpiQuery::expecting(
                "voice_quality",
                true,
                Expectation::Improve,
            )],
        );
        assert_eq!(r.control, ControlSelection::FirstTier);
        assert_eq!(r.timescales, vec![1, 24]);
        assert!(r.alpha < 0.05);
    }

    #[test]
    fn mixed_expectations_compose() {
        // §3.5: "a software upgrade can result in an expected improvement
        // in voice call quality but a very minor degradation to data
        // throughput".
        let r = VerificationRule::standard(
            "sw-upgrade",
            vec![
                KpiQuery::expecting("voice_quality", true, Expectation::Improve),
                KpiQuery::expecting("data_throughput", true, Expectation::Degrade),
                KpiQuery::monitor("latency", false),
            ],
        );
        assert_eq!(r.kpis.len(), 3);
        assert_eq!(r.kpis[1].expected, Expectation::Degrade);
    }
}
