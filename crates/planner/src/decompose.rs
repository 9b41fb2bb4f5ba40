//! Independent sub-problem decomposition (§3.3.3 idea (b)).
//!
//! "We divide the changes into sets that have no dependencies with respect
//! to constraints. Then, we can solve in parallel and combine their
//! solutions." We compute connected components of the variable–constraint
//! graph; each component becomes a standalone sub-model solved on its own
//! thread (crossbeam scoped threads), and the assignments merge back.
//!
//! Decomposition helps exactly when the intent's coupling constraints are
//! per-group (e.g. concurrency per EMS or per pool) — a global capacity or
//! a localize rule connects everything into one component, and the paper's
//! answer to that case is the timezone-sequenced heuristic instead.

use crate::translate::{Translation, Unit};
use cornet_model::{Constraint, GranuleTable, Model, VarId};
use cornet_solver::{solve, Outcome, SearchStats, SolverConfig};
use cornet_types::{AttrValue, Inventory};
use std::collections::BTreeMap;

/// Union–find over variable indices.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        // Iterative with path halving: wide constraints build long parent
        // chains, and a recursive find would both be O(n) and risk stack
        // overflow at 100K-variable models.
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Connected components of the variable–constraint graph, each sorted.
pub fn var_components(model: &Model) -> Vec<Vec<usize>> {
    let n = model.var_count();
    let mut dsu = Dsu::new(n);
    for c in &model.constraints {
        let vars = c.vars();
        for pair in vars.windows(2) {
            dsu.union(pair[0].index(), pair[1].index());
        }
    }
    let mut by_root: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for v in 0..n {
        let root = dsu.find(v);
        by_root.entry(root).or_default().push(v);
    }
    by_root.into_values().collect()
}

/// Extract the sub-model induced by `vars` (which must be closed under
/// constraint adjacency, i.e. a union of components).
fn sub_model(model: &Model, vars: &[usize]) -> Model {
    induced_model(model, vars, format!("{}#sub", model.name), None)
}

/// A decomposed piece of a translation: the original variable indices it
/// covers plus a standalone sub-translation any backend can solve.
pub struct TranslationPart {
    /// Original model variable indices, ascending; position `i` in the
    /// sub-translation corresponds to `vars[i]` in the parent.
    pub vars: Vec<usize>,
    /// The standalone sub-problem.
    pub translation: Translation,
}

/// Split a translation into independent sub-translations — the §3.3.3
/// decomposition as a backend-agnostic pre-pass. Each part carries its own
/// model *and* its own unit table, so unit-level backends (the Algorithm 1
/// heuristic) decompose exactly like the exact solver. Returns one part
/// when the constraint graph is connected.
pub fn split_translation(t: &Translation) -> Vec<TranslationPart> {
    let comps = var_components(&t.model);
    comps
        .into_iter()
        .map(|vars| {
            let model = sub_model(&t.model, &vars);
            let units: Vec<Unit> = vars
                .iter()
                .enumerate()
                .map(|(new_idx, &old)| Unit {
                    nodes: t.units[old].nodes.clone(),
                    var: VarId(new_idx as u32),
                })
                .collect();
            TranslationPart {
                vars,
                translation: Translation {
                    model,
                    units,
                    slots: t.slots.clone(),
                    window: t.window.clone(),
                    // Whole-window freezes stay with the parent; parts only
                    // schedule live units.
                    frozen_out: Vec::new(),
                },
            }
        })
        .collect()
}

/// A shard's identity: the timezone offset (milli-hours, so `f64`
/// offsets order and compare exactly) and market of its units.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ShardKey {
    /// UTC offset of the shard's timezone, in milli-hours.
    pub tz_milli: i64,
    /// Market attribute value (empty when the inventory has none).
    pub market: String,
}

/// One timezone/market shard of a translation.
pub struct TranslationShard {
    /// Which timezone/market this shard covers.
    pub key: ShardKey,
    /// The standalone sub-problem (same shape as a decomposition part).
    pub part: TranslationPart,
    /// This shard's apportioned share of the plain concurrency capacity,
    /// if a cross-shard capacity constraint was cut — the slot capacity
    /// a per-shard heuristic member should pack against.
    pub heuristic_cap: Option<i64>,
}

/// Result of sharding a translation by timezone/market.
pub struct ShardSplit {
    /// Shards in deterministic `ShardKey` order.
    pub shards: Vec<TranslationShard>,
    /// Number of capacity constraints that span shards and were
    /// apportioned; `0` means the shards were already independent and a
    /// merged optimal is globally optimal.
    pub coupled: usize,
}

/// Apportioned shares of each cross-shard capacity constraint, keyed by
/// constraint index: per shard, the default-capacity share plus the
/// share of every granule-specific cap.
type CapShares = BTreeMap<usize, Vec<(i64, BTreeMap<i64, i64>)>>;

/// Proportionally split `total` across `weights`, flooring each share and
/// handing the remainder to the largest weights first (ties: lower
/// index). Shares always sum to exactly `total`, so per-granule shard
/// loads can never add up past the original capacity.
fn apportion(total: i64, weights: &[i64]) -> Vec<i64> {
    let w_sum: i64 = weights.iter().sum();
    if w_sum <= 0 {
        return vec![0; weights.len()];
    }
    let mut shares: Vec<i64> = weights
        .iter()
        .map(|&w| ((total as i128 * w as i128) / w_sum as i128) as i64)
        .collect();
    let mut rem = total - shares.iter().sum::<i64>();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(weights[i]), i));
    let mut k = 0;
    while rem > 0 && !order.is_empty() {
        shares[order[k % order.len()]] += 1;
        rem -= 1;
        k += 1;
    }
    shares
}

/// Shard a translation by the (timezone, market) of each unit's nodes.
///
/// Unlike [`split_translation`], this cuts *through* cross-shard capacity
/// constraints: each shard receives a proportional share of the original
/// capacity (largest-remainder apportionment, so Σ shard caps ≤ original
/// cap per granule — a merged assignment satisfies the global constraint
/// by construction, and [`reconcile`] then claws back the slack the
/// apportionment stranded). Constraints that couple shards any other way
/// (consistency, uniformity, localize, distinct-groups, linear) cannot be
/// cut soundly, so their presence — or fewer than two distinct keys —
/// makes this return `None` and the caller falls back to unsharded
/// solving (the CN0417 lint flags both situations).
pub fn shard_translation(
    t: &Translation,
    inventory: &Inventory,
    max_shards: usize,
) -> Option<ShardSplit> {
    let n = t.model.var_count();
    if n == 0 || max_shards < 2 {
        return None;
    }
    // Key every unit by its first node; ESA grouping and consistency
    // contraction only merge co-located nodes, so one representative is
    // enough.
    let mut groups: BTreeMap<ShardKey, Vec<usize>> = BTreeMap::new();
    for (var, u) in t.units.iter().enumerate() {
        let attrs = u
            .nodes
            .first()
            .and_then(|&n| inventory.get(n))
            .map(|r| &r.attrs);
        let tz_milli = attrs
            .and_then(|a| a.get("utc_offset"))
            .and_then(AttrValue::as_f64)
            .map(|o| (o * 1000.0).round() as i64)
            .unwrap_or(0);
        let market = attrs
            .and_then(|a| a.group_key("market"))
            .unwrap_or_default();
        groups
            .entry(ShardKey { tz_milli, market })
            .or_default()
            .push(var);
    }
    if groups.len() < 2 {
        return None;
    }
    // Cap the shard count: keep the largest groups, fold the tail into
    // the biggest of the kept shards (deterministic: size desc, key asc).
    let mut ordered: Vec<(ShardKey, Vec<usize>)> = groups.into_iter().collect();
    ordered.sort_by(|a, b| (b.1.len(), &a.0).cmp(&(a.1.len(), &b.0)));
    while ordered.len() > max_shards {
        let (_, tail) = ordered.pop().expect("non-empty");
        ordered[0].1.extend(tail);
    }
    ordered.sort_by(|a, b| a.0.cmp(&b.0));
    for (_, vars) in ordered.iter_mut() {
        vars.sort_unstable();
    }

    // shard_of[var] = shard index.
    let mut shard_of = vec![0usize; n];
    for (si, (_, vars)) in ordered.iter().enumerate() {
        for &v in vars {
            shard_of[v] = si;
        }
    }
    // Classify constraints: fully-local ones copy through; cross-shard
    // capacity gets apportioned; anything else crossing shards refuses.
    let mut cap_shares: CapShares = BTreeMap::new();
    for (ci, c) in t.model.constraints.iter().enumerate() {
        let cvars = c.vars();
        let Some(first) = cvars.first() else { continue };
        let home = shard_of[first.index()];
        if cvars.iter().all(|v| shard_of[v.index()] == home) {
            continue;
        }
        let Constraint::Capacity {
            vars,
            weights,
            default_cap,
            slot_caps,
            ..
        } = c
        else {
            return None; // non-capacity coupling: sharding is unsound
        };
        let mut shard_weight = vec![0i64; ordered.len()];
        for (v, w) in vars.iter().zip(weights) {
            shard_weight[shard_of[v.index()]] += *w.max(&1);
        }
        let default_shares = apportion(*default_cap, &shard_weight);
        let mut slot_shares: Vec<BTreeMap<i64, i64>> = vec![BTreeMap::new(); ordered.len()];
        for (&granule, &cap) in slot_caps {
            for (si, share) in apportion(cap, &shard_weight).into_iter().enumerate() {
                slot_shares[si].insert(granule, share);
            }
        }
        cap_shares.insert(ci, default_shares.into_iter().zip(slot_shares).collect());
    }
    let coupled = cap_shares.len();

    let shards: Vec<TranslationShard> = ordered
        .into_iter()
        .enumerate()
        .map(|(si, (key, vars))| {
            let name = format!("{}#shard{si}", t.model.name);
            let model = induced_model(&t.model, &vars, name, Some((si, &cap_shares)));
            let heuristic_cap = cap_shares
                .iter()
                .filter(|(&ci, _)| {
                    t.model.constraints[ci]
                        .vars()
                        .iter()
                        .any(|v| shard_of[v.index()] == si)
                })
                .map(|(_, shares)| shares[si].0)
                .min();
            let units: Vec<Unit> = vars
                .iter()
                .enumerate()
                .map(|(new_idx, &old)| Unit {
                    nodes: t.units[old].nodes.clone(),
                    var: VarId(new_idx as u32),
                })
                .collect();
            TranslationShard {
                key,
                part: TranslationPart {
                    vars,
                    translation: Translation {
                        model,
                        units,
                        slots: t.slots.clone(),
                        window: t.window.clone(),
                        frozen_out: Vec::new(),
                    },
                },
                heuristic_cap,
            }
        })
        .collect();
    Some(ShardSplit { shards, coupled })
}

/// The sub-model over `vars`, renumbered so `vars[i]` becomes variable
/// `i`: constraints whose first variable is in `vars` are copied. With
/// `shares = Some((shard, cap_shares))`, each cross-shard capacity
/// constraint instead keeps the member subset present in `vars` and the
/// shard's apportioned capacity share.
fn induced_model(
    model: &Model,
    vars: &[usize],
    name: String,
    shares: Option<(usize, &CapShares)>,
) -> Model {
    let mut remap = vec![usize::MAX; model.var_count()];
    let mut sub = Model::new(name);
    for (new_idx, &old) in vars.iter().enumerate() {
        remap[old] = new_idx;
        let v = &model.vars[old];
        sub.add_var(v.name.clone(), v.lo, v.hi);
    }
    let map_var = |v: VarId| VarId(remap[v.index()] as u32);
    for (ci, c) in model.constraints.iter().enumerate() {
        if let Some((shard_idx, Some(share))) = shares.map(|(si, cs)| (si, cs.get(&ci))) {
            let Constraint::Capacity {
                label,
                vars: cvars,
                weights,
                block,
                value_granules,
                ..
            } = c
            else {
                unreachable!("only capacity constraints are apportioned");
            };
            let mut sub_vars = Vec::new();
            let mut sub_weights = Vec::new();
            for (v, w) in cvars.iter().zip(weights) {
                if remap[v.index()] != usize::MAX {
                    sub_vars.push(map_var(*v));
                    sub_weights.push(*w);
                }
            }
            if sub_vars.is_empty() {
                continue;
            }
            let (default_cap, slot_caps) = &share[shard_idx];
            sub.add_constraint(Constraint::Capacity {
                label: format!("{label}#shard{shard_idx}"),
                vars: sub_vars,
                weights: sub_weights,
                default_cap: *default_cap,
                slot_caps: slot_caps.clone(),
                block: *block,
                value_granules: value_granules.clone(),
            });
            continue;
        }
        let cvars = c.vars();
        let Some(first) = cvars.first() else { continue };
        if remap[first.index()] == usize::MAX {
            continue;
        }
        let mut c2 = c.clone();
        match &mut c2 {
            Constraint::Capacity { vars, .. }
            | Constraint::DistinctGroups { vars, .. }
            | Constraint::SameValue { vars, .. }
            | Constraint::MaxSpread { vars, .. }
            | Constraint::NonInterleaved { vars, .. } => {
                for v in vars.iter_mut() {
                    *v = map_var(*v);
                }
            }
            Constraint::ForbiddenValue { var, .. } => *var = map_var(*var),
            Constraint::Linear { terms, .. } => {
                for t in terms.iter_mut() {
                    t.var = map_var(t.var);
                }
            }
        }
        sub.add_constraint(c2);
    }
    sub.objective = model.objective.restrict(vars);
    sub
}

/// Counters from a cross-shard reconciliation pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReconcileOutcome {
    /// Improvement rounds executed (last one makes no move).
    pub rounds: u64,
    /// Variable moves applied.
    pub moves: u64,
    /// Does the final assignment pass the *full* model check?
    pub feasible: bool,
}

/// Cross-shard capacity reconciliation: verify a merged shard assignment
/// against the full original model and claw back the slack that
/// proportional apportionment stranded.
///
/// The repair loop deterministically sweeps variables in ascending index
/// order and moves one to a cheaper value (earlier slot, or from
/// unscheduled into a slot) whenever every capacity constraint it
/// belongs to has room in the target granule and no forbidden value or
/// non-capacity constraint is involved. Loads are tracked incrementally
/// per (constraint, granule), so each accepted move keeps the invariant
/// "all capacity constraints satisfied" — the final full-model check is
/// the proof, not a hope.
pub fn reconcile(model: &Model, assignment: &mut [i64], max_rounds: u64) -> ReconcileOutcome {
    let n = model.var_count();
    // A variable is movable only if capacity and forbidden-value
    // constraints are the whole story for it.
    let mut locked = vec![false; n];
    let mut forbidden: Vec<Vec<i64>> = vec![Vec::new(); n];
    // Per variable: (capacity index into `caps`, weight).
    let mut members: Vec<Vec<(usize, i64)>> = vec![Vec::new(); n];
    // Per capacity constraint: its granule table and the current load of
    // every granule.
    let mut caps: Vec<(GranuleTable, Vec<i64>)> = Vec::new();
    for c in &model.constraints {
        match c {
            Constraint::Capacity { vars, weights, .. } => {
                let max_value = vars
                    .iter()
                    .map(|v| model.vars[v.index()].hi.max(assignment[v.index()]))
                    .max()
                    .unwrap_or(0);
                let table = c.granule_table(max_value).expect("capacity");
                let load = vec![0; table.caps().len()];
                for (v, w) in vars.iter().zip(weights) {
                    members[v.index()].push((caps.len(), *w));
                }
                caps.push((table, load));
            }
            Constraint::ForbiddenValue { var, value, .. } => {
                forbidden[var.index()].push(*value);
            }
            _ => {
                for v in c.vars() {
                    locked[v.index()] = true;
                }
            }
        }
    }
    for (vi, &val) in assignment.iter().enumerate() {
        if val > 0 {
            for &(k, w) in &members[vi] {
                let (table, load) = &mut caps[k];
                load[table.granule(val)] += w;
            }
        }
    }
    let mut out = ReconcileOutcome::default();
    while out.rounds < max_rounds {
        out.rounds += 1;
        let mut moved = false;
        for vi in 0..n {
            if locked[vi] {
                continue;
            }
            let cur = assignment[vi];
            let vid = VarId(vi as u32);
            let var = &model.vars[vi];
            let cur_cost = model.objective.var_cost(vid, cur);
            let banned = &forbidden[vi];
            let mut best: Option<(i64, i64)> = None; // (cost, value)
            for v in var.lo..=var.hi {
                if v == cur || banned.contains(&v) {
                    continue;
                }
                let cost = model.objective.var_cost(vid, v);
                if cost >= cur_cost || best.is_some_and(|(bc, bv)| (cost, v) >= (bc, bv)) {
                    continue;
                }
                let fits = v <= 0
                    || members[vi].iter().all(|&(k, w)| {
                        let (table, load) = &caps[k];
                        let g = table.granule(v);
                        let mut l = load[g];
                        if cur > 0 && table.granule(cur) == g {
                            l -= w;
                        }
                        l + w <= table.cap(g)
                    });
                if fits {
                    best = Some((cost, v));
                }
            }
            if let Some((_, v)) = best {
                for &(k, w) in &members[vi] {
                    let (table, load) = &mut caps[k];
                    if cur > 0 {
                        load[table.granule(cur)] -= w;
                    }
                    if v > 0 {
                        load[table.granule(v)] += w;
                    }
                }
                assignment[vi] = v;
                out.moves += 1;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    out.feasible = model.check(assignment).is_ok();
    out
}

/// Solve a model by components, in parallel. Returns the merged outcome,
/// assignment, summed stats, and component count. Infeasible components
/// leave their variables at 0 (unscheduled) and degrade the outcome.
pub fn solve_components(
    model: &Model,
    config: &SolverConfig,
) -> (Outcome, Vec<i64>, SearchStats, usize) {
    let comps = var_components(model);
    if comps.len() <= 1 {
        let r = solve(model, config);
        return match r.best {
            Some(sol) => (r.outcome, sol.assignment, r.stats, 1),
            None => (r.outcome, vec![0; model.var_count()], r.stats, 1),
        };
    }
    let subs: Vec<Model> = comps.iter().map(|c| sub_model(model, c)).collect();
    let mut results: Vec<Option<cornet_solver::SolveResult>> = Vec::new();
    crossbeam::scope(|scope| {
        let handles: Vec<_> = subs
            .iter()
            .map(|m| scope.spawn(move |_| solve(m, config)))
            .collect();
        results = handles
            .into_iter()
            .map(|h| Some(h.join().expect("solver panicked")))
            .collect();
    })
    .expect("crossbeam scope failed");

    let mut assignment = vec![0i64; model.var_count()];
    let mut stats = SearchStats::default();
    let mut outcome = Outcome::Optimal;
    for (comp, result) in comps.iter().zip(results) {
        let r = result.expect("result present");
        stats.nodes += r.stats.nodes;
        stats.backtracks += r.stats.backtracks;
        stats.solutions += r.stats.solutions;
        stats.elapsed += r.stats.elapsed;
        match (&r.best, r.outcome) {
            (Some(sol), oc) => {
                for (&old, &val) in comp.iter().zip(&sol.assignment) {
                    assignment[old] = val;
                }
                if oc != Outcome::Optimal && outcome == Outcome::Optimal {
                    outcome = Outcome::Feasible;
                }
            }
            (None, _) => outcome = Outcome::Feasible,
        }
    }
    (outcome, assignment, stats, comps.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_model::ModelBuilder;
    use proptest::prelude::*;

    fn two_component_model() -> Model {
        let mut b = ModelBuilder::new("t", 4);
        let vs = b.slot_vars("X", 4);
        b.capacity("capA", vs[..2].to_vec(), vec![1, 1], 1);
        b.capacity("capB", vs[2..].to_vec(), vec![1, 1], 1);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &[1; 4], 100);
        b.build()
    }

    #[test]
    fn components_found() {
        let m = two_component_model();
        let comps = var_components(&m);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1]);
        assert_eq!(comps[1], vec![2, 3]);
    }

    #[test]
    fn global_constraint_is_one_component() {
        let mut b = ModelBuilder::new("t", 4);
        let vs = b.slot_vars("X", 4);
        b.capacity("global", vs.clone(), vec![1; 4], 2);
        let m = b.build();
        assert_eq!(var_components(&m).len(), 1);
    }

    #[test]
    fn parallel_solve_matches_monolithic() {
        let m = two_component_model();
        let cfg = SolverConfig::default();
        let mono = solve(&m, &cfg);
        let (outcome, assignment, _, n) = solve_components(&m, &cfg);
        assert_eq!(n, 2);
        assert_eq!(outcome, Outcome::Optimal);
        assert!(m.check(&assignment).is_ok());
        assert_eq!(m.cost(&assignment), mono.solution().cost);
    }

    #[test]
    fn unconstrained_vars_form_singletons() {
        let mut b = ModelBuilder::new("t", 2);
        b.slot_vars("X", 3);
        let m = b.build();
        assert_eq!(var_components(&m).len(), 3);
        let (outcome, assignment, _, n) = solve_components(&m, &SolverConfig::default());
        assert_eq!(n, 3);
        assert_eq!(outcome, Outcome::Optimal);
        assert_eq!(assignment.len(), 3);
    }

    #[test]
    fn apportion_sums_to_total_and_favors_weight() {
        let shares = apportion(10, &[5, 3, 1]);
        assert_eq!(shares.iter().sum::<i64>(), 10);
        assert!(shares[0] >= shares[1] && shares[1] >= shares[2]);
        // Remainders go to the largest weights first, deterministically.
        assert_eq!(apportion(7, &[2, 2, 2]), vec![3, 2, 2]);
        assert_eq!(apportion(0, &[4, 4]), vec![0, 0]);
        assert_eq!(apportion(5, &[0, 0]), vec![0, 0]);
    }

    #[test]
    fn reconcile_claws_back_stranded_slack() {
        // Capacity 2/slot; a wasteful merged assignment with one leftover
        // must repack into the earliest slots and schedule the leftover.
        let mut b = ModelBuilder::new("t", 4);
        let vs = b.slot_vars("X", 4);
        b.capacity("cap", vs.clone(), vec![1; 4], 2);
        b.completion_objective(&vs, &[1; 4], 100);
        let m = b.build();
        let mut a = vec![1, 2, 3, 0];
        let out = reconcile(&m, &mut a, 8);
        assert!(out.feasible);
        assert_eq!(a, vec![1, 1, 2, 2]);
        assert_eq!(out.moves, 3);
    }

    #[test]
    fn reconcile_respects_forbidden_and_locked_vars() {
        let mut b = ModelBuilder::new("t", 3);
        let vs = b.slot_vars("X", 3);
        b.capacity("cap", vs.clone(), vec![1; 3], 2);
        b.same_value("pair", vec![vs[1], vs[2]]);
        b.forbid("excl", vs[0], 1);
        b.completion_objective(&vs, &[1; 3], 100);
        let m = b.build();
        let mut a = vec![2, 3, 3];
        let out = reconcile(&m, &mut a, 8);
        assert!(out.feasible);
        assert_eq!(a[0], 2, "slot 1 is forbidden for var 0");
        assert_eq!((a[1], a[2]), (3, 3), "same-value members must not move");
    }

    #[test]
    fn reconcile_never_breaks_capacity() {
        let mut b = ModelBuilder::new("t", 2);
        let vs = b.slot_vars("X", 4);
        b.capacity("cap", vs.clone(), vec![1; 4], 2);
        b.completion_objective(&vs, &[1; 4], 100);
        let m = b.build();
        let mut a = vec![1, 1, 2, 0]; // slot 2 has room for exactly one more
        let out = reconcile(&m, &mut a, 8);
        assert!(out.feasible);
        assert!(m.check(&a).is_ok());
        assert_eq!(a, vec![1, 1, 2, 2]);
    }

    /// `reconcile` as it stood before the dense granule tables: loads in
    /// a tree per constraint, caps looked up per candidate. Kept as the
    /// reference the dense rewrite must match exactly.
    fn reference_reconcile(
        model: &Model,
        assignment: &mut [i64],
        max_rounds: u64,
    ) -> ReconcileOutcome {
        let granule = |c: &Constraint, value: i64| match c {
            Constraint::Capacity {
                block,
                value_granules,
                ..
            } => match value_granules {
                Some(vg) => vg[(value - 1) as usize],
                None => (value - 1) / (*block).max(1),
            },
            _ => unreachable!("capacity member"),
        };
        let cap_of = |c: &Constraint, g: i64| match c {
            Constraint::Capacity {
                default_cap,
                slot_caps,
                ..
            } => slot_caps.get(&g).copied().unwrap_or(*default_cap),
            _ => unreachable!("capacity member"),
        };
        let n = model.var_count();
        let mut locked = vec![false; n];
        let mut forbidden: BTreeMap<usize, Vec<i64>> = BTreeMap::new();
        let mut members: Vec<Vec<(usize, i64)>> = vec![Vec::new(); n];
        for (ci, c) in model.constraints.iter().enumerate() {
            match c {
                Constraint::Capacity { vars, weights, .. } => {
                    for (v, w) in vars.iter().zip(weights) {
                        members[v.index()].push((ci, *w));
                    }
                }
                Constraint::ForbiddenValue { var, value, .. } => {
                    forbidden.entry(var.index()).or_default().push(*value);
                }
                _ => {
                    for v in c.vars() {
                        locked[v.index()] = true;
                    }
                }
            }
        }
        let mut loads: BTreeMap<usize, BTreeMap<i64, i64>> = BTreeMap::new();
        for (vi, &val) in assignment.iter().enumerate() {
            if val > 0 {
                for &(ci, w) in &members[vi] {
                    let g = granule(&model.constraints[ci], val);
                    *loads.entry(ci).or_default().entry(g).or_default() += w;
                }
            }
        }
        let mut out = ReconcileOutcome::default();
        while out.rounds < max_rounds {
            out.rounds += 1;
            let mut moved = false;
            for vi in 0..n {
                if locked[vi] {
                    continue;
                }
                let cur = assignment[vi];
                let vid = VarId(vi as u32);
                let var = &model.vars[vi];
                let cur_cost = model.objective.var_cost(vid, cur);
                let none: Vec<i64> = Vec::new();
                let banned = forbidden.get(&vi).unwrap_or(&none);
                let mut best: Option<(i64, i64)> = None;
                for v in var.lo..=var.hi {
                    if v == cur || banned.contains(&v) {
                        continue;
                    }
                    let cost = model.objective.var_cost(vid, v);
                    if cost >= cur_cost || best.is_some_and(|(bc, bv)| (cost, v) >= (bc, bv)) {
                        continue;
                    }
                    let fits = v <= 0
                        || members[vi].iter().all(|&(ci, w)| {
                            let c = &model.constraints[ci];
                            let g = granule(c, v);
                            let mut load =
                                loads.get(&ci).and_then(|m| m.get(&g)).copied().unwrap_or(0);
                            if cur > 0 && granule(c, cur) == g {
                                load -= w;
                            }
                            load + w <= cap_of(c, g)
                        });
                    if fits {
                        best = Some((cost, v));
                    }
                }
                if let Some((_, v)) = best {
                    for &(ci, w) in &members[vi] {
                        let c = &model.constraints[ci];
                        if cur > 0 {
                            *loads
                                .entry(ci)
                                .or_default()
                                .entry(granule(c, cur))
                                .or_default() -= w;
                        }
                        if v > 0 {
                            *loads
                                .entry(ci)
                                .or_default()
                                .entry(granule(c, v))
                                .or_default() += w;
                        }
                    }
                    assignment[vi] = v;
                    out.moves += 1;
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
        out.feasible = model.check(assignment).is_ok();
        out
    }

    /// Uniform draws off a splitmix64 stream seeded by the case.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// A value in `lo..hi`.
        fn range(&mut self, lo: i64, hi: i64) -> i64 {
            lo + (self.next() % (hi - lo) as u64) as i64
        }

        fn coin(&mut self) -> bool {
            self.next() & 1 == 1
        }
    }

    /// A random reconcile input: variables with random lower bounds,
    /// one to three capacity constraints over random member subsets
    /// (blocks, overrides, explicit granule maps), forbidden values, an
    /// optional same-value pair, completion costs with conflict penalties,
    /// a starting assignment inside the domains and a round budget.
    fn reconcile_case(d: &mut Draw) -> (Model, Vec<i64>, u64) {
        let slots = d.range(1, 7);
        let n = d.range(1, 9) as usize;
        let mut m = Model::new("eq");
        let mut assignment = Vec::new();
        for i in 0..n {
            let lo = d.range(0, 2);
            let v = m.add_var(format!("x{i}"), lo, slots);
            assignment.push(d.range(lo, slots + 1));
            let weight = d.range(1, 4);
            m.objective.add_slope(v, weight);
            m.objective.add_value_cost(v, 0, weight * 100);
        }
        for ci in 0..d.range(1, 4) {
            let (mut vars, mut weights) = (Vec::new(), Vec::new());
            for i in 0..n {
                if d.coin() {
                    vars.push(VarId(i as u32));
                    weights.push(d.range(0, 3));
                }
            }
            m.add_constraint(Constraint::Capacity {
                label: format!("cap{ci}"),
                vars,
                weights,
                default_cap: d.range(0, 4),
                slot_caps: (0..d.range(0, 3))
                    .map(|_| (d.range(0, 5), d.range(0, 4)))
                    .collect(),
                block: d.range(1, 3),
                value_granules: d
                    .coin()
                    .then(|| (0..slots).map(|_| d.range(0, 4)).collect()),
            });
        }
        let var = |d: &mut Draw| VarId(d.range(0, n as i64) as u32);
        for _ in 0..d.range(0, 4) {
            let (v, value) = (var(d), d.range(0, slots + 1));
            m.add_constraint(Constraint::forbidden_value("f", v, value));
        }
        for _ in 0..d.range(0, 6) {
            let (v, value, cost) = (var(d), d.range(0, slots + 1), d.range(1, 200));
            m.objective.add_value_cost(v, value, cost);
        }
        if d.coin() {
            let pair = vec![var(d), var(d)];
            m.add_constraint(Constraint::SameValue {
                label: "pair".into(),
                vars: pair,
            });
        }
        let rounds = d.range(1, 6) as u64;
        (m, assignment, rounds)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The dense reconcile makes exactly the reference's moves and
        /// reports the same outcome, whatever the starting assignment.
        #[test]
        fn reconcile_matches_reference(seed in any::<u64>()) {
            let (model, start, rounds) = reconcile_case(&mut Draw(seed));
            let mut got = start.clone();
            let mut want = start;
            let got_out = reconcile(&model, &mut got, rounds);
            let want_out = reference_reconcile(&model, &mut want, rounds);
            prop_assert_eq!(got, want);
            prop_assert_eq!(got_out, want_out);
        }
    }

    #[test]
    fn infeasible_component_degrades_gracefully() {
        let mut b = ModelBuilder::new("t", 1);
        let vs = b.slot_vars("X", 3);
        // Component A: 2 vars, 1 slot, cap 1, both must schedule → infeasible.
        b.capacity("capA", vs[..2].to_vec(), vec![1, 1], 1);
        b.require_scheduled(&vs[..2]);
        // Component B: fine.
        b.capacity("capB", vs[2..].to_vec(), vec![1], 1);
        let m = b.build();
        let (outcome, assignment, _, n) = solve_components(&m, &SolverConfig::default());
        assert_eq!(n, 2);
        assert_eq!(outcome, Outcome::Feasible, "degraded, not crashed");
        assert_eq!(assignment.len(), 3);
    }
}
