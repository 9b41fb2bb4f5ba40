//! Change-log generation and staggered roll-out curves.
//!
//! Reproduces the operational-data shapes of §2.2 and §5:
//!
//! * Table 1 — change-type mix (65.8% config changes, 24.7% software
//!   upgrades, …), per-node durations, network-wide roll-out times;
//! * Fig. 1 / Fig. 5 — staggered deployment: a small FFA, a cautious
//!   crawl/walk assessment phase, then a network-wide run phase whose tail
//!   depends on whether a conflict-aware planner (CORNET) placed the
//!   stragglers early;
//! * Table 6 — duration averages/deviations with and without CORNET's
//!   short-reservation policy for site work.

use crate::rng::{normal, seeded, weighted_pick};
use cornet_types::{ChangeTicket, ChangeType, NodeId, SimTime};
use rand::Rng;

/// Per-change-type parameters of the generator (Table 1 row).
///
/// Durations are a body + rare-heavy-tail mixture: most activities take
/// around `body_mean` windows, but with probability `tail_weight` a
/// blanket reservation multiplies the body by `tail_mult` — the pattern
/// behind construction work's enormous variance in Table 6 (σ 36.9 on a
/// mean of 4.1 without CORNET's short-reservation policy).
#[derive(Clone, Debug, PartialEq)]
pub struct ChangeTypeProfile {
    /// Change category.
    pub change_type: ChangeType,
    /// Share of all change activities (Table 1 column 1).
    pub share: f64,
    /// Typical (body) duration per node in maintenance windows.
    pub body_mean: f64,
    /// Probability of a long blanket reservation.
    pub tail_weight: f64,
    /// Multiplier range applied to the body on a tail draw.
    pub tail_mult: (f64, f64),
}

/// Generator configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ChangeLogConfig {
    /// RNG seed.
    pub seed: u64,
    /// Whether CORNET's reservation policy is active (Table 6 comparison).
    pub with_cornet: bool,
    /// Profiles per change type.
    pub profiles: Vec<ChangeTypeProfile>,
}

impl ChangeLogConfig {
    /// Table 1 mix with the given reservation policy. The mixture
    /// parameters are calibrated so realized moments land near the paper's
    /// Table 6 columns (means ~1.3–4.1, construction σ ~19 with CORNET vs
    /// ~37 without).
    pub fn table1(seed: u64, with_cornet: bool) -> Self {
        #[allow(clippy::type_complexity)]
        let t = |ct, share, body: f64, cornet: (f64, (f64, f64)), manual: (f64, (f64, f64))| {
            let (tail_weight, tail_mult) = if with_cornet { cornet } else { manual };
            ChangeTypeProfile {
                change_type: ct,
                share,
                body_mean: body,
                tail_weight,
                tail_mult,
            }
        };
        ChangeLogConfig {
            seed,
            with_cornet,
            profiles: vec![
                t(
                    ChangeType::SoftwareUpgrade,
                    24.67,
                    1.5,
                    (0.020, (5.0, 25.0)),
                    (0.025, (5.0, 25.0)),
                ),
                t(
                    ChangeType::ConfigChange,
                    65.82,
                    1.05,
                    (0.015, (5.0, 25.0)),
                    (0.022, (5.0, 25.0)),
                ),
                t(
                    ChangeType::NodeRetuning,
                    1.14,
                    2.5,
                    (0.020, (8.0, 22.0)),
                    (0.025, (10.0, 25.0)),
                ),
                t(
                    ChangeType::ConstructionWork,
                    8.37,
                    2.6,
                    (0.010, (16.0, 76.0)),
                    (0.004, (40.0, 240.0)),
                ),
            ],
        }
    }
}

/// Generate `n_activities` change tickets across `n_nodes` nodes over a
/// three-year window starting at `start`.
pub fn generate_change_log(
    config: &ChangeLogConfig,
    n_nodes: usize,
    n_activities: usize,
    start: SimTime,
) -> Vec<ChangeTicket> {
    assert!(n_nodes > 0, "need at least one node");
    let mut rng = seeded(config.seed);
    let weights: Vec<f64> = config.profiles.iter().map(|p| p.share).collect();
    let mut log = Vec::with_capacity(n_activities);
    for i in 0..n_activities {
        let p = &config.profiles[weighted_pick(&mut rng, &weights)];
        let body = normal(&mut rng, p.body_mean, p.body_mean * 0.3).max(0.1);
        let duration = if rng.random_bool(p.tail_weight.clamp(0.0, 1.0)) {
            body * rng.random_range(p.tail_mult.0..p.tail_mult.1)
        } else {
            body
        }
        .round()
        .max(1.0);
        let day: u64 = rng.random_range(0..3 * 365);
        log.push(ChangeTicket {
            ticket: format!("CHG{i:012}"),
            node: NodeId(rng.random_range(0..n_nodes as u32)),
            change_type: p.change_type,
            start: start.plus_days(day),
            duration_windows: duration as u32,
        });
    }
    log
}

/// Aggregate duration statistics per change type (Table 1 / Table 6 rows).
#[derive(Clone, Debug, PartialEq)]
pub struct ChangeMixRow {
    /// Change category.
    pub change_type: ChangeType,
    /// Fraction of all activities, in percent.
    pub share_pct: f64,
    /// Mean duration per node in maintenance windows.
    pub avg_duration: f64,
    /// Standard deviation of the duration.
    pub std_duration: f64,
}

/// Compute the change-mix table from a log.
pub fn change_mix(log: &[ChangeTicket]) -> Vec<ChangeMixRow> {
    ChangeType::ALL
        .iter()
        .map(|&ct| {
            let durations: Vec<f64> = log
                .iter()
                .filter(|t| t.change_type == ct)
                .map(|t| t.duration_windows as f64)
                .collect();
            let avg = if durations.is_empty() {
                0.0
            } else {
                cornet_stats::mean(&durations)
            };
            let sd = cornet_stats::std_dev(&durations);
            ChangeMixRow {
                change_type: ct,
                share_pct: 100.0 * durations.len() as f64 / log.len().max(1) as f64,
                avg_duration: avg,
                std_duration: if sd.is_nan() { 0.0 } else { sd },
            }
        })
        .collect()
}

/// Which planner shaped a network-wide roll-out (Fig. 5 comparison).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RolloutPlanner {
    /// CORNET's conflict-free global plan: compact run phase, short tail
    /// (stragglers were placed early by the global view).
    Cornet,
    /// Manual batch planning: slower ramp and a long straggler tail.
    Manual,
}

/// Staggered roll-out shape parameters (Fig. 1's phases).
#[derive(Clone, Debug, PartialEq)]
pub struct RolloutConfig {
    /// RNG seed.
    pub seed: u64,
    /// Nodes changed during the First Field Application.
    pub ffa_nodes: usize,
    /// Slots spent on the FFA plus its impact assessment.
    pub ffa_slots: usize,
    /// Slots of cautious crawl/walk ramping after certification.
    pub crawl_slots: usize,
    /// Peak nodes per slot in the run phase.
    pub run_rate: usize,
}

impl Default for RolloutConfig {
    fn default() -> Self {
        RolloutConfig {
            seed: 1,
            ffa_nodes: 150,
            ffa_slots: 8,
            crawl_slots: 6,
            run_rate: 1200,
        }
    }
}

/// Cumulative fraction of nodes upgraded per slot for a network-wide
/// roll-out of `total` nodes.
pub fn rollout_curve(config: &RolloutConfig, planner: RolloutPlanner, total: usize) -> Vec<f64> {
    assert!(total > 0);
    let mut rng = seeded(config.seed);
    let mut done = 0usize;
    let mut curve = Vec::new();

    // FFA: a trickle of nodes while impact is assessed.
    let ffa_total = config.ffa_nodes.min(total);
    for s in 0..config.ffa_slots {
        done = (ffa_total * (s + 1)) / config.ffa_slots;
        curve.push(done as f64 / total as f64);
    }
    // Crawl/walk: ramp from ~5% to 100% of the run rate.
    for s in 0..config.crawl_slots {
        let rate = config.run_rate * (s + 1) / (config.crawl_slots + 1) / 2;
        done = (done + rate.max(1)).min(total);
        curve.push(done as f64 / total as f64);
    }
    // Run phase.
    match planner {
        RolloutPlanner::Cornet => {
            // Global conflict-free plan: full rate until everything is done.
            while done < total {
                done = (done + config.run_rate).min(total);
                curve.push(done as f64 / total as f64);
            }
        }
        RolloutPlanner::Manual => {
            // Batch planning reaches ~93% then crawls through stragglers
            // blocked on conflicts the manual process discovers late.
            let bulk = total * 93 / 100;
            while done < bulk {
                let jitter = rng.random_range(0.6..0.95);
                done = (done + ((config.run_rate as f64 * jitter) as usize).max(1)).min(bulk);
                curve.push(done as f64 / total as f64);
            }
            while done < total {
                let tail_rate = (config.run_rate / 20).max(1);
                done = (done + tail_rate).min(total);
                curve.push(done as f64 / total as f64);
            }
        }
    }
    curve
}

/// Average network-wide roll-out windows implied by a curve — Table 1's
/// third column (slots until 100%).
pub fn rollout_windows(curve: &[f64]) -> usize {
    curve
        .iter()
        .position(|f| *f >= 1.0)
        .map_or(curve.len(), |p| p + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start() -> SimTime {
        SimTime::from_ymd_hm(2018, 1, 1, 0, 0)
    }

    #[test]
    fn change_mix_matches_table1_shares() {
        let cfg = ChangeLogConfig::table1(42, true);
        let log = generate_change_log(&cfg, 60_000, 50_000, start());
        let mix = change_mix(&log);
        let share = |ct: ChangeType| mix.iter().find(|r| r.change_type == ct).unwrap().share_pct;
        assert!((share(ChangeType::ConfigChange) - 65.82).abs() < 2.0);
        assert!((share(ChangeType::SoftwareUpgrade) - 24.67).abs() < 2.0);
        assert!((share(ChangeType::NodeRetuning) - 1.14).abs() < 0.5);
        assert!((share(ChangeType::ConstructionWork) - 8.37).abs() < 1.0);
    }

    #[test]
    fn durations_order_like_table1() {
        let cfg = ChangeLogConfig::table1(7, true);
        let log = generate_change_log(&cfg, 60_000, 50_000, start());
        let mix = change_mix(&log);
        let avg = |ct: ChangeType| {
            mix.iter()
                .find(|r| r.change_type == ct)
                .unwrap()
                .avg_duration
        };
        assert!(avg(ChangeType::NodeRetuning) > avg(ChangeType::SoftwareUpgrade));
        assert!(avg(ChangeType::ConstructionWork) > avg(ChangeType::ConfigChange));
    }

    #[test]
    fn cornet_policy_shrinks_construction_variance() {
        // Table 6: σ(construction) 19.09 with CORNET vs 36.91 without.
        let with = generate_change_log(&ChangeLogConfig::table1(3, true), 10_000, 120_000, start());
        let without =
            generate_change_log(&ChangeLogConfig::table1(3, false), 10_000, 120_000, start());
        let sd = |log: &[ChangeTicket]| {
            change_mix(log)
                .iter()
                .find(|r| r.change_type == ChangeType::ConstructionWork)
                .unwrap()
                .std_duration
        };
        assert!(
            sd(&with) < sd(&without) * 0.8,
            "with={} without={}",
            sd(&with),
            sd(&without)
        );
    }

    #[test]
    fn rollout_curve_is_monotone_and_completes() {
        let cfg = RolloutConfig::default();
        for planner in [RolloutPlanner::Cornet, RolloutPlanner::Manual] {
            let curve = rollout_curve(&cfg, planner, 60_000);
            assert!(curve.windows(2).all(|w| w[1] >= w[0] - 1e-12), "monotone");
            assert!((curve.last().unwrap() - 1.0).abs() < 1e-12, "reaches 100%");
        }
    }

    #[test]
    fn cornet_rollout_is_faster_with_shorter_tail() {
        let cfg = RolloutConfig::default();
        let cornet = rollout_curve(&cfg, RolloutPlanner::Cornet, 60_000);
        let manual = rollout_curve(&cfg, RolloutPlanner::Manual, 60_000);
        assert!(
            rollout_windows(&cornet) < rollout_windows(&manual),
            "cornet {} vs manual {}",
            rollout_windows(&cornet),
            rollout_windows(&manual)
        );
        // Tail: slots spent above 93% completion.
        let tail = |c: &[f64]| c.iter().filter(|f| **f >= 0.93 && **f < 1.0).count();
        assert!(
            tail(&cornet) * 3 < tail(&manual),
            "manual tail should dominate"
        );
    }

    #[test]
    fn software_upgrade_rollout_near_table1_scale() {
        // Table 1: 60K+ nodes in ~63 maintenance windows.
        let cfg = RolloutConfig {
            run_rate: 1200,
            ..Default::default()
        };
        let curve = rollout_curve(&cfg, RolloutPlanner::Cornet, 60_000);
        let w = rollout_windows(&curve);
        assert!((40..=90).contains(&w), "got {w} windows");
    }

    #[test]
    fn log_nodes_stay_in_range() {
        let cfg = ChangeLogConfig::table1(1, true);
        let log = generate_change_log(&cfg, 100, 1_000, start());
        assert!(log.iter().all(|t| t.node.0 < 100));
        assert!(log.iter().all(|t| t.duration_windows >= 1));
    }
}
