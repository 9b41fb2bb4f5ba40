//! Constraint propagators and the fixpoint engine.
//!
//! Each constraint family from `cornet-model` gets a filtering routine that
//! removes values which can no longer participate in any solution extending
//! the current partial assignment. The engine runs propagators to a
//! fixpoint using a worklist keyed on changed variables.

use crate::state::{Conflict, State};
use cornet_model::{CmpOp, Constraint, Model};

/// Precomputed propagation structure for one model.
pub struct Propagation {
    /// var index → constraint indices watching it.
    watchers: Vec<Vec<u32>>,
    n_constraints: usize,
}

impl Propagation {
    /// Build watcher lists from the model.
    pub fn new(model: &Model) -> Self {
        let mut watchers = vec![Vec::new(); model.var_count()];
        for (ci, c) in model.constraints.iter().enumerate() {
            for v in c.vars() {
                let list = &mut watchers[v.index()];
                if list.last() != Some(&(ci as u32)) {
                    list.push(ci as u32);
                }
            }
        }
        Propagation {
            watchers,
            n_constraints: model.constraints.len(),
        }
    }

    /// Run all propagators to fixpoint. On entry every constraint is
    /// scheduled; afterwards only constraints watching changed variables
    /// re-run. Returns `Err(Conflict)` when any domain wipes out.
    pub fn propagate_all(&self, model: &Model, state: &mut State) -> Result<(), Conflict> {
        let mut queued = vec![true; self.n_constraints];
        let mut queue: Vec<u32> = (0..self.n_constraints as u32).collect();
        self.fixpoint(model, state, &mut queue, &mut queued)
    }

    /// Run propagators to fixpoint starting from the constraints watching
    /// `seed_vars` (used after branching on a single variable).
    pub fn propagate_from(
        &self,
        model: &Model,
        state: &mut State,
        seed_vars: &[u32],
    ) -> Result<(), Conflict> {
        let mut queued = vec![false; self.n_constraints];
        let mut queue = Vec::new();
        for &v in seed_vars {
            for &ci in &self.watchers[v as usize] {
                if !queued[ci as usize] {
                    queued[ci as usize] = true;
                    queue.push(ci);
                }
            }
        }
        self.fixpoint(model, state, &mut queue, &mut queued)
    }

    fn fixpoint(
        &self,
        model: &Model,
        state: &mut State,
        queue: &mut Vec<u32>,
        queued: &mut [bool],
    ) -> Result<(), Conflict> {
        state.clear_changed();
        while let Some(ci) = queue.pop() {
            queued[ci as usize] = false;
            let result = propagate_one(&model.constraints[ci as usize], state);
            // Requeue watchers of changed vars whether or not we conflicted,
            // so the caller's state bookkeeping stays consistent.
            for v in state.take_changed() {
                for &watcher in &self.watchers[v as usize] {
                    if !queued[watcher as usize] {
                        queued[watcher as usize] = true;
                        queue.push(watcher);
                    }
                }
            }
            result?;
        }
        Ok(())
    }
}

/// Interval conflict predicate shared with the NonInterleaved checker:
/// sorted by `(lo, hi)`, the later interval must not start strictly inside
/// the earlier one.
fn intervals_conflict(a: (i64, i64), b: (i64, i64)) -> bool {
    let (first, second) = if a <= b { (a, b) } else { (b, a) };
    second.0 < first.1
}

/// Run one constraint's filtering against the current state.
fn propagate_one(c: &Constraint, state: &mut State) -> Result<(), Conflict> {
    match c {
        Constraint::Capacity { vars, weights, .. } => {
            let max_slot = vars
                .iter()
                .filter_map(|v| state.domain(v.index()).max())
                .max()
                .unwrap_or(0);
            if max_slot < 1 {
                return Ok(());
            }
            let table = c.granule_table(max_slot).expect("capacity");
            // Remaining room per granule after the fixed members' load.
            let mut room = table.caps().to_vec();
            for (v, w) in vars.iter().zip(weights) {
                if let Some(val) = state.domain(v.index()).fixed_value() {
                    if val > 0 {
                        room[table.granule(val)] -= w;
                    }
                }
            }
            let Some(&min_room) = room.iter().min() else {
                return Ok(());
            };
            if min_room < 0 {
                return Err(Conflict);
            }
            let mut doomed = Vec::new();
            for (v, &w) in vars.iter().zip(weights) {
                let vi = v.index();
                // A weight that fits in every granule loses no value.
                if w <= min_room || state.domain(vi).is_fixed() {
                    continue;
                }
                doomed.clear();
                doomed.extend(
                    state
                        .domain(vi)
                        .iter()
                        .filter(|&val| val > 0 && w > room[table.granule(val)]),
                );
                for &val in &doomed {
                    state.remove(vi, val)?;
                }
            }
            Ok(())
        }
        Constraint::DistinctGroups {
            vars,
            group_of,
            cap,
            ..
        } => {
            use std::collections::BTreeMap;
            use std::collections::BTreeSet;
            let mut groups_at: BTreeMap<i64, BTreeSet<usize>> = BTreeMap::new();
            for (v, g) in vars.iter().zip(group_of) {
                if let Some(val) = state.domain(v.index()).fixed_value() {
                    if val > 0 {
                        groups_at.entry(val).or_default().insert(*g);
                    }
                }
            }
            for (slot, gs) in &groups_at {
                if gs.len() as i64 > *cap {
                    return Err(Conflict);
                }
                if gs.len() as i64 == *cap {
                    // Slot is saturated: vars from other groups must avoid it.
                    for (v, g) in vars.iter().zip(group_of) {
                        let vi = v.index();
                        if !gs.contains(g) && state.domain(vi).contains(*slot) {
                            if state.domain(vi).is_fixed() {
                                return Err(Conflict);
                            }
                            state.remove(vi, *slot)?;
                        }
                    }
                }
            }
            Ok(())
        }
        Constraint::SameValue { vars, .. } => {
            if vars.len() < 2 {
                return Ok(());
            }
            // Intersect all member domains.
            let keep: Vec<i64> = state
                .domain(vars[0].index())
                .iter()
                .filter(|&val| vars.iter().all(|v| state.domain(v.index()).contains(val)))
                .collect();
            if keep.is_empty() {
                return Err(Conflict);
            }
            for v in vars {
                let vi = v.index();
                let extra: Vec<i64> = state
                    .domain(vi)
                    .iter()
                    .filter(|val| keep.binary_search(val).is_err())
                    .collect();
                for val in extra {
                    state.remove(vi, val)?;
                }
            }
            Ok(())
        }
        Constraint::MaxSpread {
            vars,
            metric_milli,
            max_distance_milli,
            ..
        } => {
            use std::collections::BTreeMap;
            let mut range: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
            for (v, m) in vars.iter().zip(metric_milli) {
                if let Some(val) = state.domain(v.index()).fixed_value() {
                    if val > 0 {
                        let e = range.entry(val).or_insert((*m, *m));
                        e.0 = e.0.min(*m);
                        e.1 = e.1.max(*m);
                    }
                }
            }
            for (lo, hi) in range.values() {
                if hi - lo > *max_distance_milli {
                    return Err(Conflict);
                }
            }
            for (v, m) in vars.iter().zip(metric_milli) {
                let vi = v.index();
                if state.domain(vi).is_fixed() {
                    continue;
                }
                let to_remove: Vec<i64> = state
                    .domain(vi)
                    .iter()
                    .filter(|&val| {
                        val > 0
                            && range
                                .get(&val)
                                .is_some_and(|(lo, hi)| hi.max(m) - lo.min(m) > *max_distance_milli)
                    })
                    .collect();
                for val in to_remove {
                    state.remove(vi, val)?;
                }
            }
            Ok(())
        }
        Constraint::NonInterleaved { vars, group_of, .. } => {
            let n_groups = group_of.iter().copied().max().map_or(0, |g| g + 1);
            let mut intervals = vec![(i64::MAX, i64::MIN); n_groups];
            for (v, g) in vars.iter().zip(group_of) {
                if let Some(val) = state.domain(v.index()).fixed_value() {
                    if val > 0 {
                        intervals[*g].0 = intervals[*g].0.min(val);
                        intervals[*g].1 = intervals[*g].1.max(val);
                    }
                }
            }
            let used: Vec<(usize, (i64, i64))> = intervals
                .iter()
                .enumerate()
                .filter(|(_, (lo, _))| *lo != i64::MAX)
                .map(|(g, iv)| (g, *iv))
                .collect();
            for i in 0..used.len() {
                for j in (i + 1)..used.len() {
                    if intervals_conflict(used[i].1, used[j].1) {
                        return Err(Conflict);
                    }
                }
            }
            // Filter unfixed vars: a candidate value must keep the var's
            // group interval conflict-free with every other group.
            for (v, g) in vars.iter().zip(group_of) {
                let vi = v.index();
                if state.domain(vi).is_fixed() {
                    continue;
                }
                let own = intervals[*g];
                let to_remove: Vec<i64> = state
                    .domain(vi)
                    .iter()
                    .filter(|&val| {
                        if val == 0 {
                            return false;
                        }
                        let new_iv = if own.0 == i64::MAX {
                            (val, val)
                        } else {
                            (own.0.min(val), own.1.max(val))
                        };
                        used.iter()
                            .any(|(og, oiv)| *og != *g && intervals_conflict(new_iv, *oiv))
                    })
                    .collect();
                for val in to_remove {
                    state.remove(vi, val)?;
                }
            }
            Ok(())
        }
        Constraint::ForbiddenValue { var, value, .. } => {
            let vi = var.index();
            if state.domain(vi).contains(*value) {
                state.remove(vi, *value)?;
            }
            Ok(())
        }
        Constraint::Linear {
            terms, cmp, rhs, ..
        } => {
            // Value-level bounds filtering on Σ coeff·x ⋈ rhs.
            fn min_contrib(state: &State, coeff: i64, vi: usize) -> i64 {
                let d = state.domain(vi);
                if coeff >= 0 {
                    coeff * d.min().unwrap_or(0)
                } else {
                    coeff * d.max().unwrap_or(0)
                }
            }
            fn max_contrib(state: &State, coeff: i64, vi: usize) -> i64 {
                let d = state.domain(vi);
                if coeff >= 0 {
                    coeff * d.max().unwrap_or(0)
                } else {
                    coeff * d.min().unwrap_or(0)
                }
            }
            let min_act: i64 = terms
                .iter()
                .map(|t| min_contrib(state, t.coeff, t.var.index()))
                .sum();
            let max_act: i64 = terms
                .iter()
                .map(|t| max_contrib(state, t.coeff, t.var.index()))
                .sum();
            let check_le = matches!(cmp, CmpOp::Le | CmpOp::Eq);
            let check_ge = matches!(cmp, CmpOp::Ge | CmpOp::Eq);
            if check_le && min_act > *rhs {
                return Err(Conflict);
            }
            if check_ge && max_act < *rhs {
                return Err(Conflict);
            }
            for t in terms {
                let vi = t.var.index();
                if state.domain(vi).is_fixed() {
                    continue;
                }
                let own_min = min_contrib(state, t.coeff, vi);
                let own_max = max_contrib(state, t.coeff, vi);
                let to_remove: Vec<i64> = state
                    .domain(vi)
                    .iter()
                    .filter(|&val| {
                        let contrib = t.coeff * val;
                        (check_le && min_act - own_min + contrib > *rhs)
                            || (check_ge && max_act - own_max + contrib < *rhs)
                    })
                    .collect();
                for val in to_remove {
                    state.remove(vi, val)?;
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_model::ModelBuilder;
    use proptest::prelude::*;

    #[test]
    fn capacity_filters_saturated_slots() {
        let mut b = ModelBuilder::new("t", 2);
        let vs = b.slot_vars("X", 3);
        b.capacity("cap", vs.clone(), vec![1, 1, 1], 1);
        let m = b.build();
        let mut s = State::new(&m);
        s.fix(0, 1).unwrap();
        let p = Propagation::new(&m);
        p.propagate_all(&m, &mut s).unwrap();
        assert!(!s.domain(1).contains(1), "slot 1 is full");
        assert!(s.domain(1).contains(2));
    }

    #[test]
    fn capacity_overload_conflicts() {
        let mut b = ModelBuilder::new("t", 2);
        let vs = b.slot_vars("X", 2);
        b.capacity("cap", vs, vec![2, 2], 3);
        let m = b.build();
        let mut s = State::new(&m);
        s.fix(0, 1).unwrap();
        s.fix(1, 1).unwrap();
        let p = Propagation::new(&m);
        assert!(p.propagate_all(&m, &mut s).is_err());
    }

    #[test]
    fn same_value_intersects() {
        let mut b = ModelBuilder::new("t", 5);
        let vs = b.slot_vars("X", 2);
        b.same_value("cons", vs.clone());
        let m = b.build();
        let mut s = State::new(&m);
        s.remove(0, 1).unwrap();
        s.remove(0, 2).unwrap();
        s.remove(1, 4).unwrap();
        let p = Propagation::new(&m);
        p.propagate_all(&m, &mut s).unwrap();
        // Intersection is {0, 3, 5}.
        for vi in 0..2 {
            let vals: Vec<i64> = s.domain(vi).iter().collect();
            assert_eq!(vals, vec![0, 3, 5]);
        }
    }

    #[test]
    fn distinct_groups_filters() {
        let mut b = ModelBuilder::new("t", 2);
        let vs = b.slot_vars("X", 3);
        b.distinct_groups("mkt", vs.clone(), vec![0, 1, 2], 2);
        let m = b.build();
        let mut s = State::new(&m);
        s.fix(0, 1).unwrap();
        s.fix(1, 1).unwrap();
        let p = Propagation::new(&m);
        p.propagate_all(&m, &mut s).unwrap();
        assert!(!s.domain(2).contains(1), "two groups already in slot 1");
        assert!(s.domain(2).contains(2));
    }

    #[test]
    fn max_spread_filters_far_zones() {
        let mut b = ModelBuilder::new("t", 2);
        let vs = b.slot_vars("X", 2);
        b.max_spread("tz", vs.clone(), &[-5.0, -8.0], 1.0);
        let m = b.build();
        let mut s = State::new(&m);
        s.fix(0, 1).unwrap();
        let p = Propagation::new(&m);
        p.propagate_all(&m, &mut s).unwrap();
        assert!(!s.domain(1).contains(1));
        assert!(s.domain(1).contains(2));
    }

    #[test]
    fn non_interleaved_filters_inner_slots() {
        let mut b = ModelBuilder::new("t", 5);
        let vs = b.slot_vars("X", 3);
        b.non_interleaved("loc", vs.clone(), vec![0, 0, 1]);
        let m = b.build();
        let mut s = State::new(&m);
        s.fix(0, 1).unwrap();
        s.fix(1, 4).unwrap();
        let p = Propagation::new(&m);
        p.propagate_all(&m, &mut s).unwrap();
        let vals: Vec<i64> = s.domain(2).iter().collect();
        // Slots 2 and 3 are strictly inside [1,4]; slots 1 and 4 are
        // boundary slots and remain allowed (the heuristic packs group
        // tails into leftover boundary capacity).
        assert_eq!(vals, vec![0, 1, 4, 5]);
    }

    #[test]
    fn linear_bounds_filter() {
        let mut b = ModelBuilder::new("t", 5);
        let vs = b.slot_vars("X", 2);
        b.linear(
            "lin",
            vec![(1, vs[0]), (1, vs[1])],
            cornet_model::CmpOp::Le,
            3,
        );
        let m = b.build();
        let mut s = State::new(&m);
        s.fix(0, 3).unwrap();
        let p = Propagation::new(&m);
        p.propagate_all(&m, &mut s).unwrap();
        assert_eq!(s.domain(1).max(), Some(0));
    }

    #[test]
    fn forbidden_value_removed_at_root() {
        let mut b = ModelBuilder::new("t", 3);
        let vs = b.slot_vars("X", 1);
        b.forbid("frozen", vs[0], 2);
        let m = b.build();
        let mut s = State::new(&m);
        let p = Propagation::new(&m);
        p.propagate_all(&m, &mut s).unwrap();
        assert!(!s.domain(0).contains(2));
    }

    #[test]
    fn capacity_skips_weights_that_fit_everywhere() {
        // Cap 3 with one fixed unit member: room 2 in slot 1, so the
        // weight-2 member keeps slot 1 and the weight-3 member loses it.
        let mut b = ModelBuilder::new("t", 2);
        let vs = b.slot_vars("X", 3);
        b.capacity("cap", vs, vec![1, 2, 3], 3);
        let m = b.build();
        let mut s = State::new(&m);
        s.fix(0, 1).unwrap();
        Propagation::new(&m).propagate_all(&m, &mut s).unwrap();
        assert!(s.domain(1).contains(1));
        assert!(!s.domain(2).contains(1));
        assert!(s.domain(2).contains(2));
    }

    /// The capacity filter as it stood before the dense granule tables:
    /// per-candidate tree lookups of the granule caps. Kept as the
    /// reference the table-driven propagator must match exactly.
    fn reference_capacity(c: &Constraint, state: &mut State) -> Result<(), Conflict> {
        let Constraint::Capacity {
            vars,
            weights,
            default_cap,
            slot_caps,
            block,
            value_granules,
            ..
        } = c
        else {
            unreachable!("capacity only");
        };
        let block = (*block).max(1);
        let max_slot = vars
            .iter()
            .filter_map(|v| state.domain(v.index()).max())
            .max()
            .unwrap_or(0);
        if max_slot < 1 {
            return Ok(());
        }
        let granule_of = |val: i64| -> i64 {
            match value_granules {
                Some(vg) => vg[(val - 1) as usize],
                None => (val - 1) / block,
            }
        };
        let n_granules = (1..=max_slot).map(granule_of).max().unwrap_or(0) as usize + 1;
        let mut load = vec![0i64; n_granules];
        for (v, w) in vars.iter().zip(weights) {
            if let Some(val) = state.domain(v.index()).fixed_value() {
                if val > 0 {
                    load[granule_of(val) as usize] += w;
                }
            }
        }
        let cap_of = |granule: i64| slot_caps.get(&granule).copied().unwrap_or(*default_cap);
        for (granule, l) in load.iter().enumerate() {
            if *l > cap_of(granule as i64) {
                return Err(Conflict);
            }
        }
        for (v, w) in vars.iter().zip(weights) {
            let vi = v.index();
            if state.domain(vi).is_fixed() {
                continue;
            }
            let to_remove: Vec<i64> = state
                .domain(vi)
                .iter()
                .filter(|&val| {
                    val > 0 && {
                        let g = granule_of(val);
                        load[g as usize] + w > cap_of(g)
                    }
                })
                .collect();
            for val in to_remove {
                state.remove(vi, val)?;
            }
        }
        Ok(())
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

    /// A capacity constraint over `n` slot variables `0..=slots`: random
    /// weights, default cap, granule overrides and block, sometimes an
    /// explicit value→granule map. Weights and caps may be negative.
    fn capacity_case(d: &mut Draw) -> (Model, Constraint) {
        let slots = d.range(1, 10);
        let n = d.range(1, 8) as u32;
        let slot_caps = (0..d.range(0, 4))
            .map(|_| (d.range(0, 6), d.range(-1, 7)))
            .collect();
        let c = Constraint::Capacity {
            label: "cap".into(),
            vars: (0..n).map(cornet_model::VarId).collect(),
            weights: (0..n).map(|_| d.range(-1, 5)).collect(),
            default_cap: d.range(-1, 7),
            slot_caps,
            block: d.range(1, 4),
            value_granules: d
                .coin()
                .then(|| (0..slots).map(|_| d.range(0, 5)).collect()),
        };
        let mut m = Model::new("eq");
        for i in 0..n {
            m.add_var(format!("x{i}"), 0, slots);
        }
        m.add_constraint(c.clone());
        (m, c)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// From any partial assignment the dense capacity filter leaves
        /// exactly the domains the reference leaves, or both conflict.
        #[test]
        fn capacity_filter_matches_reference(seed in any::<u64>()) {
            let mut d = Draw(seed);
            let (m, c) = capacity_case(&mut d);
            let (n, slots) = (m.var_count(), m.vars[0].hi);
            let mut s = State::new(&m);
            for _ in 0..d.range(0, 12) {
                let var = d.range(0, n as i64) as usize;
                let value = d.range(0, slots + 1);
                if d.coin() {
                    if s.domain(var).contains(value) {
                        s.fix(var, value).unwrap();
                    }
                } else if s.domain(var).len() > 1 {
                    s.remove(var, value).unwrap();
                }
            }
            let mut expected = s.clone();
            let want = reference_capacity(&c, &mut expected);
            let got = propagate_one(&c, &mut s);
            prop_assert_eq!(got, want);
            if want.is_ok() {
                for vi in 0..n {
                    prop_assert_eq!(s.domain(vi), expected.domain(vi));
                }
            }
        }
    }

    #[test]
    fn interval_conflict_predicate() {
        assert!(intervals_conflict((1, 3), (2, 4)));
        assert!(!intervals_conflict((1, 3), (3, 5)));
        assert!(intervals_conflict((1, 3), (2, 2)), "point strictly inside");
        assert!(!intervals_conflict((1, 1), (1, 3)), "shared start boundary");
        assert!(!intervals_conflict((5, 6), (1, 3)));
    }
}
