//! The workflow graph structure.
//!
//! "The building blocks serve as the nodes and the connections between
//! pairs of blocks serve as the edges of the graph" (§3.2). Decisions are
//! exclusive gateways branching on a boolean variable in the workflow's
//! global state; variables flow between blocks through that state.

use cornet_types::json::JsonValue;
use cornet_types::{CornetError, ParamType, Result};

/// Node handle inside one workflow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Vector index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a workflow node does.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// Entry point (exactly one per workflow).
    Start,
    /// Terminal point (at least one per workflow).
    End,
    /// Execute a building block from the catalog.
    Task {
        /// Catalog block name.
        block: String,
    },
    /// Exclusive gateway branching on a boolean global-state variable.
    Decision {
        /// Variable consulted for the branch.
        variable: String,
    },
}

/// One node of the workflow graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkflowNode {
    /// Handle of the node.
    pub id: NodeId,
    /// Display label (defaults to the block name for tasks).
    pub label: String,
    /// Node behaviour.
    pub kind: NodeKind,
}

/// Directed edge; decision out-edges carry a boolean guard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkflowEdge {
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// Guard: `Some(true)` = "yes" branch, `Some(false)` = "no" branch,
    /// `None` = unconditional.
    pub guard: Option<bool>,
}

/// Declared parameter of the workflow itself (its start inputs / end
/// outputs), e.g. Fig. 4's `(node, software_version) → status`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkflowParam {
    /// Parameter name in the global state.
    pub name: String,
    /// Parameter type.
    pub ty: ParamType,
}

/// A change workflow (the paper's MOP as a graph).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Workflow {
    /// Workflow name, e.g. `"software_upgrade_v2"`.
    pub name: String,
    /// Nodes in insertion order; `NodeId` indexes this vector.
    pub nodes: Vec<WorkflowNode>,
    /// Directed edges.
    pub edges: Vec<WorkflowEdge>,
    /// Input parameters the dispatcher must supply.
    pub inputs: Vec<WorkflowParam>,
    /// Output parameters the workflow promises to produce.
    pub outputs: Vec<WorkflowParam>,
    /// Optional backout subgraph — the paper's MOPs carry explicit
    /// backout steps. On a permanent block failure the engine executes
    /// this workflow over the instance's current global state and reports
    /// the instance as rolled back when it completes.
    pub backout: Option<Box<Workflow>>,
}

impl Workflow {
    /// Empty workflow with a name.
    pub fn new(name: impl Into<String>) -> Self {
        Workflow {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Append a node.
    pub fn add_node(&mut self, label: impl Into<String>, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(WorkflowNode {
            id,
            label: label.into(),
            kind,
        });
        id
    }

    /// Append an edge.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, guard: Option<bool>) {
        self.edges.push(WorkflowEdge { from, to, guard });
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &WorkflowNode {
        &self.nodes[id.index()]
    }

    /// The unique start node, if the workflow has exactly one.
    pub fn start(&self) -> Option<NodeId> {
        let mut starts = self.nodes.iter().filter(|n| n.kind == NodeKind::Start);
        match (starts.next(), starts.next()) {
            (Some(s), None) => Some(s.id),
            _ => None,
        }
    }

    /// Outgoing edges of a node.
    pub fn out_edges(&self, id: NodeId) -> impl Iterator<Item = &WorkflowEdge> {
        self.edges.iter().filter(move |e| e.from == id)
    }

    /// Incoming edges of a node.
    pub fn in_edges(&self, id: NodeId) -> impl Iterator<Item = &WorkflowEdge> {
        self.edges.iter().filter(move |e| e.to == id)
    }

    /// Names of catalog blocks used by the workflow, in node order.
    pub fn blocks(&self) -> Vec<&str> {
        self.nodes
            .iter()
            .filter_map(|n| match &n.kind {
                NodeKind::Task { block } => Some(block.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Designate the backout subgraph executed on permanent failure.
    pub fn set_backout(&mut self, backout: Workflow) {
        self.backout = Some(Box::new(backout));
    }

    /// The workflow as JSON — the WAR payload format. Nodes are
    /// `{"id", "label", "kind"}` with `kind` one of `"start"`, `"end"`,
    /// `"task"` (plus `"block"`) or `"decision"` (plus `"variable"`);
    /// edges are `{"from", "to", "guard"}` with a `null` guard when
    /// unconditional; parameters are `{"name", "type"}`. `backout` is
    /// present only when the workflow has one.
    pub fn to_json_value(&self) -> JsonValue {
        let obj = |fields: Vec<(&str, JsonValue)>| {
            JsonValue::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
        };
        let text = |s: &str| JsonValue::String(s.to_owned());
        let id = |n: NodeId| JsonValue::Number(n.0 as f64);
        let params = |ps: &[WorkflowParam]| {
            let items = ps
                .iter()
                .map(|p| obj(vec![("name", text(&p.name)), ("type", text(p.ty.name()))]));
            JsonValue::Array(items.collect())
        };
        let nodes = self.nodes.iter().map(|n| {
            let (kind, arg) = match &n.kind {
                NodeKind::Start => ("start", None),
                NodeKind::End => ("end", None),
                NodeKind::Task { block } => ("task", Some(("block", block))),
                NodeKind::Decision { variable } => ("decision", Some(("variable", variable))),
            };
            let mut fields = vec![
                ("id", id(n.id)),
                ("label", text(&n.label)),
                ("kind", text(kind)),
            ];
            fields.extend(arg.map(|(k, v)| (k, text(v))));
            obj(fields)
        });
        let edges = self.edges.iter().map(|e| {
            let guard = e.guard.map_or(JsonValue::Null, JsonValue::Bool);
            obj(vec![
                ("from", id(e.from)),
                ("to", id(e.to)),
                ("guard", guard),
            ])
        });
        let mut fields = vec![
            ("name", text(&self.name)),
            ("nodes", JsonValue::Array(nodes.collect())),
            ("edges", JsonValue::Array(edges.collect())),
            ("inputs", params(&self.inputs)),
            ("outputs", params(&self.outputs)),
        ];
        fields.extend(
            self.backout
                .as_ref()
                .map(|b| ("backout", b.to_json_value())),
        );
        obj(fields)
    }

    /// Decode a workflow from its [`Workflow::to_json_value`] form.
    pub fn from_json_value(value: &JsonValue) -> Result<Workflow> {
        let text = |v: &JsonValue, key: &str| v.field(key, |x| x.as_str().map(str::to_owned));
        let id = |v: &JsonValue, key: &str| {
            v.field(key, |x| {
                x.as_f64()
                    .filter(|n| n.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(n))
                    .map(|n| NodeId(n as u32))
            })
        };
        let params = |key: &str| -> Result<Vec<WorkflowParam>> {
            let items = value.field(key, JsonValue::as_array)?;
            items
                .iter()
                .map(|p| {
                    Ok(WorkflowParam {
                        name: text(p, "name")?,
                        ty: p.field("type", |x| x.as_str().and_then(ParamType::from_name))?,
                    })
                })
                .collect()
        };
        let nodes = value.field("nodes", JsonValue::as_array)?.iter().map(|n| {
            let kind = match text(n, "kind")?.as_str() {
                "start" => NodeKind::Start,
                "end" => NodeKind::End,
                "task" => NodeKind::Task {
                    block: text(n, "block")?,
                },
                "decision" => NodeKind::Decision {
                    variable: text(n, "variable")?,
                },
                other => return Err(CornetError::Parse(format!("unknown node kind {other:?}"))),
            };
            Ok(WorkflowNode {
                id: id(n, "id")?,
                label: text(n, "label")?,
                kind,
            })
        });
        let edges = value.field("edges", JsonValue::as_array)?.iter().map(|e| {
            Ok(WorkflowEdge {
                from: id(e, "from")?,
                to: id(e, "to")?,
                guard: e.field("guard", |g| match g {
                    JsonValue::Null => Some(None),
                    g => g.as_bool().map(Some),
                })?,
            })
        });
        Ok(Workflow {
            name: text(value, "name")?,
            nodes: nodes.collect::<Result<_>>()?,
            edges: edges.collect::<Result<_>>()?,
            inputs: params("inputs")?,
            outputs: params("outputs")?,
            backout: value
                .get("backout")
                .map(|b| Workflow::from_json_value(b).map(Box::new))
                .transpose()?,
        })
    }

    /// Nodes reachable from the start by BFS (guards ignored).
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let Some(start) = self.start() else {
            return seen;
        };
        let mut queue = std::collections::VecDeque::from([start]);
        seen[start.index()] = true;
        while let Some(cur) = queue.pop_front() {
            for e in self.out_edges(cur) {
                if !seen[e.to.index()] {
                    seen[e.to.index()] = true;
                    queue.push_back(e.to);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_graph() {
        let mut wf = Workflow::new("t");
        let s = wf.add_node("start", NodeKind::Start);
        let t = wf.add_node(
            "hc",
            NodeKind::Task {
                block: "health_check".into(),
            },
        );
        let e = wf.add_node("end", NodeKind::End);
        wf.add_edge(s, t, None);
        wf.add_edge(t, e, None);
        assert_eq!(wf.start(), Some(s));
        assert_eq!(wf.out_edges(t).count(), 1);
        assert_eq!(wf.in_edges(t).count(), 1);
        assert_eq!(wf.blocks(), vec!["health_check"]);
    }

    #[test]
    fn two_starts_is_ambiguous() {
        let mut wf = Workflow::new("t");
        wf.add_node("s1", NodeKind::Start);
        wf.add_node("s2", NodeKind::Start);
        assert_eq!(wf.start(), None);
    }

    #[test]
    fn reachability_skips_orphans() {
        let mut wf = Workflow::new("t");
        let s = wf.add_node("start", NodeKind::Start);
        let a = wf.add_node("a", NodeKind::Task { block: "x".into() });
        let orphan = wf.add_node("zombie", NodeKind::Task { block: "y".into() });
        let e = wf.add_node("end", NodeKind::End);
        wf.add_edge(s, a, None);
        wf.add_edge(a, e, None);
        let r = wf.reachable();
        assert!(r[s.index()] && r[a.index()] && r[e.index()]);
        assert!(!r[orphan.index()]);
    }

    #[test]
    fn json_round_trip() {
        use cornet_types::json::{parse, to_canonical};
        let cat = cornet_catalog::builtin_catalog();
        let mut wf = crate::builtin::software_upgrade_workflow(&cat);
        let decode = |wf: &Workflow| {
            Workflow::from_json_value(&parse(&to_canonical(&wf.to_json_value())).unwrap())
        };
        assert_eq!(decode(&wf).unwrap(), wf);
        wf.set_backout(crate::builtin::config_change_workflow(&cat));
        assert_eq!(decode(&wf).unwrap(), wf);
    }
}
