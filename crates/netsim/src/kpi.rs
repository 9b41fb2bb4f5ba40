//! KPI synthesis and the KPI catalog.
//!
//! The verifier needs time-series with *known* ground truth: §4.3 asks
//! operations teams to label 60 impacts and checks the verifier finds all
//! of them. Here the labels come for free — impacts are injected into the
//! synthesized series ([`InjectedImpact`]), so accuracy experiments can be
//! scored exactly.
//!
//! The catalog side reproduces Table 5's KPI inventory: 349 KPI equations
//! in four groups (scorecard, level-1..3) spread over 48 database tables
//! with no-join / 2-way / 3-way join structure.

use crate::rng::{normal, seeded};
use cornet_stats::TimeSeries;
use cornet_types::NodeId;
use rand::Rng;

/// Shape of an injected ground-truth impact.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ImpactKind {
    /// Sudden persistent level change by `magnitude` × baseline
    /// (positive = improvement for upward-good KPIs).
    LevelShift,
    /// Gradual drift reaching `magnitude` × baseline at series end.
    Ramp,
    /// Transient spike lasting one day then reverting.
    TransientSpike,
}

/// One ground-truth impact injected into the synthesized KPI feed.
#[derive(Clone, Debug, PartialEq)]
pub struct InjectedImpact {
    /// Node the change landed on.
    pub node: NodeId,
    /// KPI name the impact affects.
    pub kpi: String,
    /// Carrier frequency index the impact is confined to, if any
    /// (Fig. 2's per-carrier level changes).
    pub carrier: Option<usize>,
    /// Minute the change executed.
    pub at_minute: u64,
    /// Impact shape.
    pub kind: ImpactKind,
    /// Relative magnitude (fraction of baseline, signed).
    pub magnitude: f64,
}

/// Deterministic KPI time-series synthesizer.
#[derive(Clone, Debug, PartialEq)]
pub struct KpiGenerator {
    /// Master seed; sub-streams derive from (seed, node, kpi, carrier).
    pub seed: u64,
    /// First sample timestamp (minutes since epoch).
    pub start_minute: u64,
    /// Sampling period in minutes (e.g. 60 for hourly KPIs).
    pub step_minutes: u64,
    /// Relative noise level (fraction of baseline).
    pub noise: f64,
}

impl Default for KpiGenerator {
    fn default() -> Self {
        KpiGenerator {
            seed: 1,
            start_minute: 0,
            step_minutes: 60,
            noise: 0.03,
        }
    }
}

/// FNV mix of the identifying tuple into a sub-seed.
fn sub_seed(seed: u64, node: NodeId, kpi: &str, carrier: Option<usize>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    let mut feed = |b: u64| {
        h ^= b;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    feed(node.0 as u64);
    for byte in kpi.bytes() {
        feed(byte as u64);
    }
    feed(carrier.map_or(u64::MAX, |c| c as u64));
    h
}

impl KpiGenerator {
    /// Baseline level for a (node, kpi, carrier) stream.
    ///
    /// Carrier index raises throughput-style baselines (Fig. 2: CF-5 beats
    /// CF-1); node identity adds site-to-site diversity (urban vs rural).
    pub fn baseline(&self, node: NodeId, kpi: &str, carrier: Option<usize>) -> f64 {
        let mut rng = seeded(sub_seed(self.seed, node, kpi, carrier));
        let site_factor = rng.random_range(0.7..1.3);
        let carrier_factor = carrier.map_or(1.0, |c| 1.0 + 0.35 * c as f64);
        100.0 * site_factor * carrier_factor
    }

    /// Synthesize `len` samples for one (node, kpi, carrier) stream with
    /// the given injected impacts applied.
    pub fn series(
        &self,
        node: NodeId,
        kpi: &str,
        carrier: Option<usize>,
        len: usize,
        impacts: &[InjectedImpact],
    ) -> TimeSeries {
        let mut rng = seeded(sub_seed(self.seed, node, kpi, carrier).wrapping_add(1));
        let base = self.baseline(node, kpi, carrier);
        let relevant: Vec<&InjectedImpact> = impacts
            .iter()
            .filter(|i| {
                i.node == node && i.kpi == kpi && (i.carrier.is_none() || i.carrier == carrier)
            })
            .collect();
        let mut values = Vec::with_capacity(len);
        for k in 0..len {
            let minute = self.start_minute + k as u64 * self.step_minutes;
            // Diurnal seasonality: busy-hour bump, ±8% of baseline.
            let phase = (minute % 1440) as f64 / 1440.0 * std::f64::consts::TAU;
            let mut v = base * (1.0 + 0.08 * phase.sin());
            for imp in &relevant {
                if minute < imp.at_minute {
                    continue;
                }
                match imp.kind {
                    ImpactKind::LevelShift => v += base * imp.magnitude,
                    ImpactKind::Ramp => {
                        let end = self.start_minute + len as u64 * self.step_minutes;
                        let span = (end - imp.at_minute).max(1) as f64;
                        let progress = (minute - imp.at_minute) as f64 / span;
                        v += base * imp.magnitude * progress;
                    }
                    ImpactKind::TransientSpike => {
                        if minute < imp.at_minute + 1440 {
                            v += base * imp.magnitude;
                        }
                    }
                }
            }
            v += normal(&mut rng, 0.0, base * self.noise);
            values.push(v.max(0.0));
        }
        TimeSeries::new(self.start_minute, self.step_minutes, values)
    }
}

/// A KPI equation definition in the catalog.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KpiDef {
    /// KPI name, e.g. `"L1_voice_drop_rate_017"`.
    pub name: String,
    /// Group (Table 5 row): `"scorecard"`, `"level1"`, `"level2"`, `"level3"`.
    pub group: String,
    /// Synthetic counter equation, e.g. `"ctr_a / (ctr_a + ctr_b)"`.
    pub equation: String,
    /// Source table index within the catalog.
    pub table: usize,
}

/// A source table and how many joins computing from it requires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KpiTable {
    /// Table index.
    pub index: usize,
    /// Owning group.
    pub group: String,
    /// Number of joined tables: 1 = no join, 2 = 2-way, 3 = 3-way.
    pub join_width: usize,
}

/// The Table 5 KPI catalog: groups, equations, tables, join structure.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KpiCatalog {
    /// All KPI definitions.
    pub kpis: Vec<KpiDef>,
    /// All source tables.
    pub tables: Vec<KpiTable>,
}

impl KpiCatalog {
    /// Build the catalog with exactly Table 5's shape:
    ///
    /// | group     | KPIs | tables | no-join | 2-way | 3-way |
    /// |-----------|------|--------|---------|-------|-------|
    /// | scorecard |    9 |      6 |       6 |     0 |     0 |
    /// | level1    |   58 |     17 |      14 |     3 |     0 |
    /// | level2    |  123 |     14 |      10 |     3 |     1 |
    /// | level3    |  159 |     17 |      16 |     1 |     0 |
    /// | **all**   |  349 | **48** |      40 |     7 |     1 |
    ///
    /// Note the "All" row counts *distinct* tables: the per-group rows sum
    /// to 54, so six tables are shared across groups. We model that by
    /// pointing the scorecard's nine headline KPIs at six of level-1's
    /// no-join tables — scorecards are summaries of level-1 detail.
    pub fn table5() -> Self {
        // Distinct tables, owned by the three detail levels (48 total).
        let owned: [(&str, &[usize]); 3] = [
            (
                "level1",
                &[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2],
            ),
            ("level2", &[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3]),
            (
                "level3",
                &[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2],
            ),
        ];
        let mut cat = KpiCatalog::default();
        let mut table_idx = 0;
        let mut first_of = std::collections::BTreeMap::new();
        let mut count_of = std::collections::BTreeMap::new();
        for (group, joins) in owned {
            first_of.insert(group, table_idx);
            count_of.insert(group, joins.len());
            for &w in joins {
                cat.tables.push(KpiTable {
                    index: table_idx,
                    group: group.to_owned(),
                    join_width: w,
                });
                table_idx += 1;
            }
        }
        let kpi_counts = [
            ("scorecard", 9usize),
            ("level1", 58),
            ("level2", 123),
            ("level3", 159),
        ];
        for (group, kpi_count) in kpi_counts {
            // Scorecard KPIs reference level-1's first six (no-join) tables.
            let (first, cycle) = if group == "scorecard" {
                (first_of["level1"], 6)
            } else {
                (first_of[group], count_of[group])
            };
            for k in 0..kpi_count {
                cat.kpis.push(KpiDef {
                    name: format!("{group}_kpi_{k:03}"),
                    group: group.to_owned(),
                    equation: format!("100 * ctr_{k}_num / max(ctr_{k}_den, 1)"),
                    table: first + k % cycle,
                });
            }
        }
        cat
    }

    /// Distinct tables referenced by one KPI group — Table 5's per-row
    /// "Tables" column (scorecard reaches into level-1's tables).
    pub fn group_tables(&self, group: &str) -> Vec<&KpiTable> {
        self.tables_for(&self.group(group))
    }

    /// KPIs of one group.
    pub fn group(&self, group: &str) -> Vec<&KpiDef> {
        self.kpis.iter().filter(|k| k.group == group).collect()
    }

    /// Distinct tables reached by a set of KPIs, with join widths — the
    /// workload determinant of Fig. 10's verification-time experiment.
    pub fn tables_for<'a>(&'a self, kpis: &[&'a KpiDef]) -> Vec<&'a KpiTable> {
        let mut idx: Vec<usize> = kpis.iter().map(|k| k.table).collect();
        idx.sort_unstable();
        idx.dedup();
        idx.iter().map(|i| &self.tables[*i]).collect()
    }

    /// Total join work units for a KPI set: Σ join_width over its tables.
    pub fn join_work(&self, kpis: &[&KpiDef]) -> usize {
        self.tables_for(kpis).iter().map(|t| t.join_width).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_is_deterministic() {
        let g = KpiGenerator::default();
        let a = g.series(NodeId(3), "throughput", Some(2), 100, &[]);
        let b = g.series(NodeId(3), "throughput", Some(2), 100, &[]);
        assert_eq!(a, b);
        let c = g.series(NodeId(4), "throughput", Some(2), 100, &[]);
        assert_ne!(a.values, c.values, "different nodes differ");
    }

    #[test]
    fn carrier_frequencies_order_throughput() {
        // Fig. 2: higher carriers → better throughput.
        let g = KpiGenerator::default();
        let mean = |c: usize| {
            let s = g.series(NodeId(1), "dl_throughput", Some(c), 200, &[]);
            s.values.iter().sum::<f64>() / s.values.len() as f64
        };
        assert!(mean(4) > mean(0) * 1.5, "CF-5 should clearly beat CF-1");
    }

    #[test]
    fn level_shift_lands_at_change_time() {
        let g = KpiGenerator {
            noise: 0.01,
            ..Default::default()
        };
        let imp = InjectedImpact {
            node: NodeId(1),
            kpi: "drop_rate".to_string(),
            carrier: None,
            at_minute: 60 * 100,
            kind: ImpactKind::LevelShift,
            magnitude: 0.5,
        };
        let s = g.series(NodeId(1), "drop_rate", None, 200, &[imp]);
        let pre: f64 = s.values[..100].iter().sum::<f64>() / 100.0;
        let post: f64 = s.values[100..].iter().sum::<f64>() / 100.0;
        assert!(post > pre * 1.3, "pre {pre} post {post}");
    }

    #[test]
    fn carrier_confined_impact_spares_other_carriers() {
        let g = KpiGenerator {
            noise: 0.01,
            ..Default::default()
        };
        let imp = InjectedImpact {
            node: NodeId(2),
            kpi: "thr".into(),
            carrier: Some(2),
            at_minute: 60 * 50,
            kind: ImpactKind::LevelShift,
            magnitude: -0.4,
        };
        let hit = g.series(NodeId(2), "thr", Some(2), 100, std::slice::from_ref(&imp));
        let spared = g.series(NodeId(2), "thr", Some(1), 100, std::slice::from_ref(&imp));
        let drop = |s: &TimeSeries| {
            s.values[60..].iter().sum::<f64>() / s.values[..40].iter().sum::<f64>()
        };
        assert!(drop(&hit) < 0.9);
        assert!(drop(&spared) > 0.9);
    }

    #[test]
    fn ramp_grows_over_time() {
        let g = KpiGenerator {
            noise: 0.0,
            ..Default::default()
        };
        let imp = InjectedImpact {
            node: NodeId(1),
            kpi: "mem".into(),
            carrier: None,
            at_minute: 0,
            kind: ImpactKind::Ramp,
            magnitude: 1.0,
        };
        let s = g.series(NodeId(1), "mem", None, 100, &[imp]);
        assert!(s.values[90] > s.values[10] * 1.3);
    }

    #[test]
    fn transient_spike_reverts() {
        let g = KpiGenerator {
            noise: 0.0,
            ..Default::default()
        };
        let imp = InjectedImpact {
            node: NodeId(1),
            kpi: "alarms".into(),
            carrier: None,
            at_minute: 60 * 24, // day 2
            kind: ImpactKind::TransientSpike,
            magnitude: 2.0,
        };
        let s = g.series(NodeId(1), "alarms", None, 24 * 4, &[imp]); // 4 days hourly
        let day = |d: usize| s.values[d * 24..(d + 1) * 24].iter().sum::<f64>() / 24.0;
        assert!(day(1) > day(0) * 2.0, "spike day");
        assert!(day(3) < day(0) * 1.3, "reverted");
    }

    #[test]
    fn catalog_matches_table5_exactly() {
        let cat = KpiCatalog::table5();
        assert_eq!(cat.kpis.len(), 349);
        assert_eq!(cat.tables.len(), 48);
        let count = |g: &str| cat.group(g).len();
        assert_eq!(count("scorecard"), 9);
        assert_eq!(count("level1"), 58);
        assert_eq!(count("level2"), 123);
        assert_eq!(count("level3"), 159);
        // Per-row "Tables" column counts tables the group *references*.
        let joins = |g: &str, w: usize| {
            cat.group_tables(g)
                .iter()
                .filter(|t| t.join_width == w)
                .count()
        };
        assert_eq!(
            (
                joins("scorecard", 1),
                joins("scorecard", 2),
                joins("scorecard", 3)
            ),
            (6, 0, 0)
        );
        assert_eq!(
            (joins("level1", 1), joins("level1", 2), joins("level1", 3)),
            (14, 3, 0)
        );
        assert_eq!(
            (joins("level2", 1), joins("level2", 2), joins("level2", 3)),
            (10, 3, 1)
        );
        assert_eq!(
            (joins("level3", 1), joins("level3", 2), joins("level3", 3)),
            (16, 1, 0)
        );
        // The "All" row: 48 distinct tables = 40 no-join + 7 two-way + 1 three-way.
        let all = |w: usize| cat.tables.iter().filter(|t| t.join_width == w).count();
        assert_eq!((all(1), all(2), all(3)), (40, 7, 1));
        // Sharing: per-row sums exceed the distinct total by the 6 shared
        // scorecard/level-1 tables (54 vs 48).
        let row_sum: usize = ["scorecard", "level1", "level2", "level3"]
            .iter()
            .map(|g| cat.group_tables(g).len())
            .sum();
        assert_eq!(row_sum, 54);
    }

    #[test]
    fn join_work_scales_with_group_depth() {
        let cat = KpiCatalog::table5();
        let sc = cat.group("scorecard");
        let l2 = cat.group("level2");
        assert!(cat.join_work(&l2) > cat.join_work(&sc));
    }
}
