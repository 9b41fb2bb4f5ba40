//! Trail-based search state: variable domains with O(1) undo.
//!
//! Every value removal is recorded on a trail; backtracking re-inserts
//! removed values down to a saved mark. This keeps per-node memory at the
//! size of the actual domain changes instead of snapshotting all domains.

use crate::domain::BitDomain;
use cornet_model::Model;

/// Signalled when a domain wipes out — the current branch is dead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conflict;

/// Mutable search state over a model's variables.
#[derive(Clone, Debug)]
pub struct State {
    domains: Vec<BitDomain>,
    trail: Vec<(u32, i64)>,
    /// Variables whose domains changed since the engine last drained them.
    changed: Vec<u32>,
    /// Number of fixed (single-value) domains, kept in step with every
    /// removal and undo so progress reads cost O(1).
    fixed: usize,
}

impl State {
    /// Initial state with full domains from the model.
    pub fn new(model: &Model) -> Self {
        let max_value = model.vars.iter().map(|v| v.hi).max().unwrap_or(0);
        let domains: Vec<BitDomain> = model
            .vars
            .iter()
            .map(|v| BitDomain::new(v.lo, v.hi, max_value))
            .collect();
        let fixed = domains.iter().filter(|d| d.is_fixed()).count();
        State {
            domains,
            trail: Vec::new(),
            changed: Vec::new(),
            fixed,
        }
    }

    /// Borrow a variable's domain.
    #[inline]
    pub fn domain(&self, var: usize) -> &BitDomain {
        &self.domains[var]
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.domains.len()
    }

    /// Remove `value` from `var`'s domain. `Err(Conflict)` when the domain
    /// empties. Removals of absent values are no-ops.
    pub fn remove(&mut self, var: usize, value: i64) -> Result<(), Conflict> {
        if self.domains[var].remove(value) {
            self.trail.push((var as u32, value));
            self.changed.push(var as u32);
            match self.domains[var].len() {
                1 => self.fixed += 1,
                0 => {
                    self.fixed -= 1;
                    return Err(Conflict);
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Fix `var` to `value`, removing every other value.
    pub fn fix(&mut self, var: usize, value: i64) -> Result<(), Conflict> {
        if !self.domains[var].contains(value) {
            // Empty the domain deliberately so callers see a conflict; the
            // trail keeps the removals reversible.
            let others: Vec<i64> = self.domains[var].iter().collect();
            for v in others {
                let _ = self.remove(var, v);
            }
            return Err(Conflict);
        }
        let others: Vec<i64> = self.domains[var].iter().filter(|&v| v != value).collect();
        for v in others {
            self.remove(var, v)?;
        }
        Ok(())
    }

    /// Save a trail mark for later undo.
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Undo all removals past `mark`.
    pub fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let (var, value) = self.trail.pop().expect("trail underflow");
            let d = &mut self.domains[var as usize];
            d.insert(value);
            match d.len() {
                1 => self.fixed += 1,
                2 => self.fixed -= 1,
                _ => {}
            }
        }
    }

    /// Drain the changed-variable buffer (may contain duplicates).
    pub fn take_changed(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.changed)
    }

    /// Discard pending change notifications (after a backtrack).
    pub fn clear_changed(&mut self) {
        self.changed.clear();
    }

    /// Number of variables whose domain holds exactly one value.
    pub fn fixed_count(&self) -> usize {
        self.fixed
    }

    /// True when every variable is fixed.
    pub fn all_fixed(&self) -> bool {
        self.fixed == self.domains.len()
    }

    /// Extract the assignment; panics unless all variables are fixed.
    pub fn assignment(&self) -> Vec<i64> {
        self.domains
            .iter()
            .map(|d| {
                d.fixed_value()
                    .expect("assignment requested on unfixed state")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_model::Model;

    fn model2() -> Model {
        let mut m = Model::new("t");
        m.add_var("a", 0, 3);
        m.add_var("b", 1, 2);
        m
    }

    #[test]
    fn remove_and_undo() {
        let m = model2();
        let mut s = State::new(&m);
        let mark = s.mark();
        s.remove(0, 1).unwrap();
        s.remove(0, 2).unwrap();
        assert_eq!(s.domain(0).len(), 2);
        s.undo_to(mark);
        assert_eq!(s.domain(0).len(), 4);
    }

    #[test]
    fn conflict_on_wipeout() {
        let m = model2();
        let mut s = State::new(&m);
        s.remove(1, 1).unwrap();
        assert_eq!(s.remove(1, 2), Err(Conflict));
    }

    #[test]
    fn fix_leaves_single_value() {
        let m = model2();
        let mut s = State::new(&m);
        s.fix(0, 2).unwrap();
        assert_eq!(s.domain(0).fixed_value(), Some(2));
        assert!(!s.all_fixed(), "b still has two values");
        s.fix(1, 1).unwrap();
        assert!(s.all_fixed());
        assert_eq!(s.assignment(), vec![2, 1]);
    }

    #[test]
    fn fixed_count_follows_removals_wipeouts_and_undo() {
        let m = model2();
        let mut s = State::new(&m);
        assert_eq!(s.fixed_count(), 0);
        let mark = s.mark();
        s.fix(0, 2).unwrap();
        assert_eq!(s.fixed_count(), 1);
        s.remove(1, 2).unwrap();
        assert_eq!(s.fixed_count(), 2);
        assert_eq!(s.remove(1, 1), Err(Conflict), "wipeout unfixes b");
        assert_eq!(s.fixed_count(), 1);
        s.undo_to(mark);
        assert_eq!(s.fixed_count(), 0);
        let recount = (0..s.var_count())
            .filter(|&v| s.domain(v).is_fixed())
            .count();
        assert_eq!(s.fixed_count(), recount);
    }

    #[test]
    fn fix_to_absent_value_conflicts_and_is_reversible() {
        let m = model2();
        let mut s = State::new(&m);
        let mark = s.mark();
        assert_eq!(s.fix(1, 9), Err(Conflict));
        assert!(s.domain(1).is_empty());
        s.undo_to(mark);
        assert_eq!(s.domain(1).len(), 2);
    }

    #[test]
    fn changed_tracking() {
        let m = model2();
        let mut s = State::new(&m);
        s.remove(0, 0).unwrap();
        s.remove(1, 1).unwrap();
        let ch = s.take_changed();
        assert_eq!(ch, vec![0, 1]);
        assert!(s.take_changed().is_empty());
    }
}
