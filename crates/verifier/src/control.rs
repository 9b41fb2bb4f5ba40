//! Control-group derivation (§3.5.1, Fig. 14).
//!
//! "We incorporate the network topology and inventory information to
//! automatically derive the control group (e.g., first-hop neighbors with
//! the same hardware version as the study group)." A control node must
//! not itself be part of the change scope.

use cornet_types::{Inventory, NodeId, Topology};
use std::collections::BTreeSet;

/// Control-group selection criterion (the Fig. 14 menu).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ControlSelection {
    /// All 1-hop neighbors of study nodes.
    FirstTier,
    /// All nodes exactly 2 hops away.
    SecondTier,
    /// 2-hop ring minus the 1-hop ring.
    SecondMinusFirst,
    /// Unchanged nodes sharing an attribute value with the study group
    /// (e.g. same market or same hardware version).
    SameAttribute(String),
    /// Explicit node list.
    Explicit(Vec<NodeId>),
}

/// Derive the control group for a study set.
///
/// The result excludes every study node and is sorted/deduplicated. An
/// optional `require_attr` post-filter keeps only controls sharing that
/// attribute value with at least one study node (the paper's "first-hop
/// neighbors with the same hardware version" example).
pub fn derive_control_group(
    selection: &ControlSelection,
    study: &[NodeId],
    topology: &Topology,
    inventory: &Inventory,
    require_attr: Option<&str>,
) -> Vec<NodeId> {
    let study_set: BTreeSet<NodeId> = study.iter().copied().collect();
    let mut candidates: BTreeSet<NodeId> = match selection {
        ControlSelection::FirstTier => study.iter().flat_map(|&n| topology.ring(n, 1)).collect(),
        ControlSelection::SecondTier => study.iter().flat_map(|&n| topology.ring(n, 2)).collect(),
        ControlSelection::SecondMinusFirst => {
            let first: BTreeSet<NodeId> = study.iter().flat_map(|&n| topology.ring(n, 1)).collect();
            study
                .iter()
                .flat_map(|&n| topology.ring(n, 2))
                .filter(|n| !first.contains(n))
                .collect()
        }
        ControlSelection::SameAttribute(attr) => {
            let study_values: BTreeSet<String> = study
                .iter()
                .filter_map(|&n| inventory.group_key_of(n, attr))
                .collect();
            inventory
                .ids()
                .filter(|&n| {
                    inventory
                        .group_key_of(n, attr)
                        .is_some_and(|v| study_values.contains(&v))
                })
                .collect()
        }
        ControlSelection::Explicit(nodes) => nodes.iter().copied().collect(),
    };
    candidates.retain(|n| !study_set.contains(n));
    if let Some(attr) = require_attr {
        let study_values: BTreeSet<String> = study
            .iter()
            .filter_map(|&n| inventory.group_key_of(n, attr))
            .collect();
        candidates.retain(|&n| {
            inventory
                .group_key_of(n, attr)
                .is_some_and(|v| study_values.contains(&v))
        });
    }
    candidates.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_types::{Attributes, NfType};

    /// Path topology 0-1-2-3-4 with alternating hardware versions.
    fn fixture() -> (Inventory, Topology) {
        let mut inv = Inventory::new();
        for i in 0..5 {
            inv.push(
                format!("n{i}"),
                NfType::ENodeB,
                Attributes::new()
                    .with("hw_version", if i % 2 == 0 { "HW-A" } else { "HW-B" })
                    .with("market", "NYC"),
            );
        }
        let mut topo = Topology::with_capacity(5);
        for i in 0..4u32 {
            topo.add_edge(NodeId(i), NodeId(i + 1));
        }
        (inv, topo)
    }

    #[test]
    fn first_tier_excludes_study() {
        let (inv, topo) = fixture();
        let c = derive_control_group(
            &ControlSelection::FirstTier,
            &[NodeId(1), NodeId(2)],
            &topo,
            &inv,
            None,
        );
        // Neighbors of {1,2} = {0,1,2,3} minus study = {0,3}.
        assert_eq!(c, vec![NodeId(0), NodeId(3)]);
    }

    #[test]
    fn second_minus_first() {
        let (inv, topo) = fixture();
        let c = derive_control_group(
            &ControlSelection::SecondMinusFirst,
            &[NodeId(0)],
            &topo,
            &inv,
            None,
        );
        assert_eq!(c, vec![NodeId(2)], "2 hops from 0, not 1 hop");
    }

    #[test]
    fn same_attribute_matches_values() {
        let (inv, topo) = fixture();
        let c = derive_control_group(
            &ControlSelection::SameAttribute("hw_version".into()),
            &[NodeId(0)], // HW-A
            &topo,
            &inv,
            None,
        );
        assert_eq!(c, vec![NodeId(2), NodeId(4)], "other HW-A nodes");
    }

    #[test]
    fn hardware_filter_on_neighbors() {
        let (inv, topo) = fixture();
        // 1st-tier neighbors of node 1 (HW-B): {0 (A), 2 (A)}; require
        // same hw as the study group → none qualify.
        let c = derive_control_group(
            &ControlSelection::FirstTier,
            &[NodeId(1)],
            &topo,
            &inv,
            Some("hw_version"),
        );
        assert!(c.is_empty());
        // Study {0} (HW-A): 1st tier {1 (B)} → filtered out too.
        let c2 = derive_control_group(
            &ControlSelection::FirstTier,
            &[NodeId(0)],
            &topo,
            &inv,
            Some("hw_version"),
        );
        assert!(c2.is_empty());
        // Study {0, 1}: both hw versions present → neighbors {2} qualifies.
        let c3 = derive_control_group(
            &ControlSelection::FirstTier,
            &[NodeId(0), NodeId(1)],
            &topo,
            &inv,
            Some("hw_version"),
        );
        assert_eq!(c3, vec![NodeId(2)]);
    }

    #[test]
    fn explicit_selection_still_excludes_study() {
        let (inv, topo) = fixture();
        let c = derive_control_group(
            &ControlSelection::Explicit(vec![NodeId(1), NodeId(2)]),
            &[NodeId(1)],
            &topo,
            &inv,
            None,
        );
        assert_eq!(c, vec![NodeId(2)]);
    }
}
