//! Minimization objective as per-variable cost tables.
//!
//! Listing 2's objective is `BIGM · conflicts − Σ (T−t+1) · scheduled`,
//! i.e. every (variable, value) pair carries a cost: conflicting slots cost
//! `BIGM`, later slots cost more than earlier ones, and staying unscheduled
//! costs most of all. A per-variable cost of `slope · value + table[value]`
//! expresses all of these exactly while keeping the solver's lower-bound
//! computation trivial (sum of per-variable domain minima).
//!
//! Layout: one [`VarCost`] per variable index, each holding its slope and a
//! short value-sorted row of `(value, cost)` overrides. The solver asks for
//! `var_cost` inside its innermost loops, so a lookup is one index plus a
//! scan of a row that is typically one or two entries long.

use crate::VarId;

/// Cost contribution of one variable: `slope · value + table[value]`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VarCost {
    /// Linear coefficient on the assigned value (completion-time pressure:
    /// later slots cost more). Usually the node weight.
    pub slope: i64,
    /// Additive cost overrides for specific values (conflict penalties at
    /// busy slots, the unscheduled penalty at value 0): `(value, cost)`,
    /// sorted by value, one entry per value.
    table: Vec<(i64, i64)>,
}

impl VarCost {
    /// Cost of assigning `value` to this variable.
    #[inline]
    pub fn cost_of(&self, value: i64) -> i64 {
        let extra = self.table.iter().find(|&&(v, _)| v == value);
        self.slope * value + extra.map_or(0, |&(_, c)| c)
    }

    /// The value-specific overrides, ascending by value.
    pub fn overrides(&self) -> &[(i64, i64)] {
        &self.table
    }

    fn is_zero(&self) -> bool {
        self.slope == 0 && self.table.iter().all(|&(_, c)| c == 0)
    }
}

/// Total minimization objective.
#[derive(Clone, Debug, Default)]
pub struct Objective {
    /// Per-variable costs indexed by variable; grows on demand, and a
    /// variable past the end costs nothing.
    terms: Vec<VarCost>,
    /// Constant offset (keeps emitted objectives comparable to the paper's).
    pub constant: i64,
}

impl Objective {
    /// True when no variable carries a cost (pure satisfaction problem).
    pub fn is_trivial(&self) -> bool {
        self.constant == 0 && self.terms.iter().all(VarCost::is_zero)
    }

    fn term_mut(&mut self, var: VarId) -> &mut VarCost {
        let i = var.index();
        if i >= self.terms.len() {
            self.terms.resize_with(i + 1, VarCost::default);
        }
        &mut self.terms[i]
    }

    /// Add `slope · value` pressure to a variable (accumulates).
    pub fn add_slope(&mut self, var: VarId, slope: i64) {
        self.term_mut(var).slope += slope;
    }

    /// Add a one-off cost for a specific value of a variable (accumulates).
    pub fn add_value_cost(&mut self, var: VarId, value: i64, cost: i64) {
        let row = &mut self.term_mut(var).table;
        match row.binary_search_by_key(&value, |&(v, _)| v) {
            Ok(i) => row[i].1 += cost,
            Err(i) => row.insert(i, (value, cost)),
        }
    }

    /// Cost of one variable taking one value.
    #[inline]
    pub fn var_cost(&self, var: VarId, value: i64) -> i64 {
        self.terms.get(var.index()).map_or(0, |c| c.cost_of(value))
    }

    /// Per-variable costs in variable order, up to the last variable that
    /// was given a cost.
    pub fn terms(&self) -> impl Iterator<Item = (VarId, &VarCost)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, c)| (VarId(i as u32), c))
    }

    /// The objective restricted to the variables `vars` and renumbered so
    /// that `vars[i]` becomes variable `i` — the cost side of extracting a
    /// sub-model. The constant stays with the full objective.
    pub fn restrict(&self, vars: &[usize]) -> Objective {
        Objective {
            terms: vars
                .iter()
                .map(|&old| self.terms.get(old).cloned().unwrap_or_default())
                .collect(),
            constant: 0,
        }
    }

    /// Total cost of a full assignment.
    pub fn cost(&self, assignment: &[i64]) -> i64 {
        self.constant
            + self
                .terms
                .iter()
                .enumerate()
                .map(|(i, c)| c.cost_of(assignment[i]))
                .sum::<i64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn var_cost_composition() {
        let mut o = Objective::default();
        o.add_slope(VarId(0), 2);
        o.add_value_cost(VarId(0), 3, 100);
        assert_eq!(o.var_cost(VarId(0), 1), 2);
        assert_eq!(o.var_cost(VarId(0), 3), 106);
        assert_eq!(o.var_cost(VarId(1), 5), 0, "unknown var costs nothing");
    }

    #[test]
    fn total_cost() {
        let mut o = Objective {
            constant: 10,
            ..Default::default()
        };
        o.add_slope(VarId(0), 1);
        o.add_slope(VarId(1), 1);
        o.add_value_cost(VarId(1), 0, 1000); // unscheduled penalty
        assert_eq!(o.cost(&[2, 3]), 10 + 2 + 3);
        assert_eq!(o.cost(&[2, 0]), 10 + 2 + 1000);
    }

    #[test]
    fn accumulation() {
        let mut o = Objective::default();
        o.add_value_cost(VarId(0), 1, 5);
        o.add_value_cost(VarId(0), 1, 7);
        assert_eq!(o.var_cost(VarId(0), 1), 12);
        o.add_slope(VarId(0), 1);
        o.add_slope(VarId(0), 2);
        assert_eq!(o.var_cost(VarId(0), 1), 15);
    }

    #[test]
    fn trivial_detection() {
        let mut o = Objective::default();
        assert!(o.is_trivial());
        o.add_slope(VarId(2), 0);
        assert!(o.is_trivial(), "a zero term costs nothing");
        o.add_slope(VarId(0), 1);
        assert!(!o.is_trivial());
    }

    #[test]
    fn restrict_renumbers_and_drops_the_constant() {
        let mut o = Objective {
            constant: 7,
            ..Default::default()
        };
        o.add_slope(VarId(1), 3);
        o.add_value_cost(VarId(3), 2, 50);
        let sub = o.restrict(&[3, 1, 9]);
        assert_eq!(sub.var_cost(VarId(0), 2), 50);
        assert_eq!(sub.var_cost(VarId(1), 2), 6);
        assert_eq!(sub.var_cost(VarId(2), 2), 0, "var 9 had no cost");
        assert_eq!(sub.constant, 0);
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

    proptest! {
        /// The flat layout prices every (variable, value) exactly like a
        /// tree of per-variable value maps built from the same calls.
        #[test]
        fn matches_tree_reference(seed in any::<u64>(), steps in 0usize..60) {
            let mut d = Draw(seed);
            let mut o = Objective::default();
            let mut reference: BTreeMap<u32, (i64, BTreeMap<i64, i64>)> = BTreeMap::new();
            for _ in 0..steps {
                let (var, value, amount) = (d.range(0, 12) as u32, d.range(-2, 14), d.range(-50, 50));
                let entry = reference.entry(var).or_default();
                if d.coin() {
                    o.add_slope(VarId(var), amount);
                    entry.0 += amount;
                } else {
                    o.add_value_cost(VarId(var), value, amount);
                    *entry.1.entry(value).or_default() += amount;
                }
            }
            for var in 0..14u32 {
                for value in -3i64..16 {
                    let expected = reference.get(&var).map_or(0, |(slope, table)| {
                        slope * value + table.get(&value).copied().unwrap_or(0)
                    });
                    prop_assert_eq!(o.var_cost(VarId(var), value), expected);
                }
            }
            let vars: Vec<usize> = (0..14).rev().collect();
            let sub = o.restrict(&vars);
            for (new, &old) in vars.iter().enumerate() {
                for value in -3i64..16 {
                    prop_assert_eq!(
                        sub.var_cost(VarId(new as u32), value),
                        o.var_cost(VarId(old as u32), value)
                    );
                }
            }
        }
    }
}
