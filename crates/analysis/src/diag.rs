//! The shared diagnostics model.
//!
//! Every static check in the workspace reports through one vocabulary: a
//! [`Diagnostic`] carries a stable machine [`Code`], a [`Severity`], a
//! [`SourceRef`] anchoring the finding to the offending artifact element,
//! an operator-facing message, and an optional fix hint. A [`Report`]
//! aggregates diagnostics across passes and renders them as terminal text
//! or JSON lines (one object per diagnostic — greppable, diffable, and
//! reusable as a [`crate::Baseline`]).

use cornet_types::json::write_str;
use std::fmt;

/// Stable machine-readable diagnostic code, e.g. `CN0102`.
///
/// Ranges are allocated per concern: `CN01xx` structural, `CN02xx`
/// dataflow, `CN03xx` resilience, `CN04xx` planning, `CN05xx`
/// verification, `CN06xx` interference. Codes never change meaning once
/// released; retired codes are not reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Code(pub &'static str);

impl Code {
    /// The concern family the code belongs to.
    pub fn category(self) -> &'static str {
        match self.0.get(..4) {
            Some("CN01") => "structural",
            Some("CN02") => "dataflow",
            Some("CN03") => "resilience",
            Some("CN04") => "planning",
            Some("CN05") => "verification",
            Some("CN06") => "interference",
            _ => "other",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// How severe a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The artifact must not be deployed; `cornet check` exits non-zero.
    Error,
    /// Deployable, but probably not what the operator intends.
    Warning,
    /// Informational observation.
    Info,
}

impl Severity {
    /// Lowercase label used in renderings.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }
}

/// Where in the analyzed artifacts a diagnostic points.
///
/// Rendering is stable: messages built from a `SourceRef` never include
/// `Debug` noise, so operators (and baselines) can rely on the text.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SourceRef {
    /// No specific anchor (whole-bundle findings).
    Global,
    /// The plan intent document.
    Intent,
    /// One workflow graph.
    Workflow {
        /// Workflow name.
        workflow: String,
    },
    /// A node of a workflow graph, identified by its display label.
    Node {
        /// Owning workflow.
        workflow: String,
        /// Node label.
        node: String,
    },
    /// An edge of a workflow graph, by endpoint node indices.
    Edge {
        /// Owning workflow.
        workflow: String,
        /// Source node index.
        from: u32,
        /// Target node index.
        to: u32,
    },
    /// A named parameter within a scope (block input, workflow output…).
    Param {
        /// Owning scope (block or workflow label).
        scope: String,
        /// Parameter name.
        param: String,
    },
    /// A catalog building block (or its resilience policy).
    Block {
        /// Block name.
        block: String,
    },
    /// A verification or constraint rule.
    Rule {
        /// Rule name.
        rule: String,
    },
    /// An inventory node target, optionally pinned to a plan wave.
    Target {
        /// Inventory node id.
        node: u32,
        /// Scheduled timeslot, when relevant.
        slot: Option<u32>,
    },
}

impl fmt::Display for SourceRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceRef::Global => f.write_str("-"),
            SourceRef::Intent => f.write_str("intent"),
            SourceRef::Workflow { workflow } => write!(f, "workflow '{workflow}'"),
            SourceRef::Node { workflow, node } => {
                write!(f, "workflow '{workflow}' node '{node}'")
            }
            SourceRef::Edge { workflow, from, to } => {
                write!(f, "workflow '{workflow}' edge {from}->{to}")
            }
            SourceRef::Param { scope, param } => write!(f, "param '{param}' of '{scope}'"),
            SourceRef::Block { block } => write!(f, "block '{block}'"),
            SourceRef::Rule { rule } => write!(f, "rule '{rule}'"),
            SourceRef::Target { node, slot: None } => write!(f, "node #{node}"),
            SourceRef::Target {
                node,
                slot: Some(s),
            } => write!(f, "node #{node} @ slot {s}"),
        }
    }
}

/// One finding of one analysis pass.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Stable machine code.
    pub code: Code,
    /// Severity.
    pub severity: Severity,
    /// Anchor in the analyzed artifacts.
    pub source: SourceRef,
    /// Operator-facing explanation with concrete names and numbers.
    pub message: String,
    /// Optional actionable fix hint.
    pub hint: Option<String>,
    /// Name of the pass that produced the finding (stamped by the
    /// [`crate::Driver`]; empty for directly constructed diagnostics).
    pub pass: String,
}

impl Diagnostic {
    /// Construct a diagnostic.
    pub fn new(
        code: Code,
        severity: Severity,
        source: SourceRef,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            source,
            message: message.into(),
            hint: None,
            pass: String::new(),
        }
    }

    /// Error-severity constructor.
    pub fn error(code: Code, source: SourceRef, message: impl Into<String>) -> Self {
        Self::new(code, Severity::Error, source, message)
    }

    /// Warning-severity constructor.
    pub fn warning(code: Code, source: SourceRef, message: impl Into<String>) -> Self {
        Self::new(code, Severity::Warning, source, message)
    }

    /// Info-severity constructor.
    pub fn info(code: Code, source: SourceRef, message: impl Into<String>) -> Self {
        Self::new(code, Severity::Info, source, message)
    }

    /// Attach a fix hint.
    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }

    /// One-line terminal rendering:
    /// `error[CN0101] workflow 'x' edge 0->9: message (help: hint)`.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}[{}] {}: {}",
            self.severity.label(),
            self.code,
            self.source,
            self.message
        );
        if let Some(hint) = &self.hint {
            out.push_str(&format!(" (help: {hint})"));
        }
        out
    }

    /// One-line JSON object rendering.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"code\":");
        write_str(&mut out, self.code.0);
        out.push_str(",\"severity\":");
        write_str(&mut out, self.severity.label());
        out.push_str(",\"category\":");
        write_str(&mut out, self.code.category());
        out.push_str(",\"where\":");
        write_str(&mut out, &self.source.to_string());
        out.push_str(",\"message\":");
        write_str(&mut out, &self.message);
        if let Some(hint) = &self.hint {
            out.push_str(",\"hint\":");
            write_str(&mut out, hint);
        }
        if !self.pass.is_empty() {
            out.push_str(",\"pass\":");
            write_str(&mut out, &self.pass);
        }
        out.push('}');
        out
    }

    /// Identity used for baseline matching: code + anchor. Deliberately
    /// message-independent, so accepted baselines survive message
    /// rewording between releases; multiple identical (code, anchor)
    /// findings are told apart by count in [`crate::Baseline`].
    pub fn fingerprint(&self) -> String {
        format!("{}\u{1}{}", self.code, self.source)
    }
}

/// Aggregated findings of one analysis run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// All diagnostics, in emission order until [`Report::sort`].
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Append all diagnostics of another report.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Iterate diagnostics.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter()
    }

    /// Diagnostics of one severity.
    pub fn with_severity(&self, s: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.severity == s)
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.with_severity(Severity::Error).count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.with_severity(Severity::Warning).count()
    }

    /// Whether any error-severity diagnostic is present.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Whether the report is empty.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Gate decision: `true` when the artifact may proceed. Errors always
    /// block; warnings block under `deny_warnings`.
    pub fn passes_gate(&self, deny_warnings: bool) -> bool {
        !(self.has_errors() || deny_warnings && self.warning_count() > 0)
    }

    /// Deterministic order: severity, then code, then anchor, then text.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (a.severity, a.code, &a.source, &a.message)
                .cmp(&(b.severity, b.code, &b.source, &b.message))
        });
    }

    /// Human-readable multi-line rendering with a summary footer.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} total\n",
            self.error_count(),
            self.warning_count(),
            self.diagnostics.len()
        ));
        out
    }

    /// JSON-lines rendering: one object per diagnostic, newline-separated.
    /// The output doubles as a [`crate::Baseline`] file.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render_json());
            out.push('\n');
        }
        out
    }

    /// SARIF 2.1.0 rendering (one run, logical locations), for code-review
    /// tooling that ingests the standard static-analysis interchange
    /// format. Like every other wire rendering here it is hand-rolled and
    /// bit-stable: same report in, same bytes out.
    pub fn render_sarif(&self) -> String {
        let mut out = String::from(
            "{\"version\":\"2.1.0\",\"$schema\":\
             \"https://json.schemastore.org/sarif-2.1.0.json\",\
             \"runs\":[{\"tool\":{\"driver\":{\"name\":\"cornet\",\
             \"informationUri\":\"https://example.invalid/cornet\",\"rules\":[",
        );
        let mut rules: Vec<&Code> = Vec::new();
        for d in &self.diagnostics {
            if !rules.contains(&&d.code) {
                rules.push(&d.code);
            }
        }
        for (i, code) in rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"id\":");
            write_str(&mut out, code.0);
            out.push_str(",\"shortDescription\":{\"text\":");
            write_str(&mut out, code.category());
            out.push_str("}}");
        }
        out.push_str("]}},\"results\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"ruleId\":");
            write_str(&mut out, d.code.0);
            out.push_str(",\"level\":");
            write_str(
                &mut out,
                match d.severity {
                    Severity::Error => "error",
                    Severity::Warning => "warning",
                    Severity::Info => "note",
                },
            );
            out.push_str(",\"message\":{\"text\":");
            let text = match &d.hint {
                Some(hint) => format!("{} (help: {hint})", d.message),
                None => d.message.clone(),
            };
            write_str(&mut out, &text);
            out.push_str(
                "},\"locations\":[{\"logicalLocations\":[{\
                          \"fullyQualifiedName\":",
            );
            write_str(&mut out, &d.source.to_string());
            out.push_str("}]}]");
            if !d.pass.is_empty() {
                out.push_str(",\"properties\":{\"pass\":");
                write_str(&mut out, &d.pass);
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}]}");
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic::error(
            Code("CN0101"),
            SourceRef::Edge {
                workflow: "fig4".into(),
                from: 0,
                to: 999,
            },
            "edge references unknown node 999",
        )
        .with_hint("remove the edge or add the node")
    }

    #[test]
    fn render_is_stable_and_readable() {
        assert_eq!(
            sample().render(),
            "error[CN0101] workflow 'fig4' edge 0->999: edge references unknown node 999 \
             (help: remove the edge or add the node)"
        );
    }

    #[test]
    fn json_rendering_escapes() {
        let d = Diagnostic::warning(
            Code("CN0206"),
            SourceRef::Param {
                scope: "roll_back".into(),
                param: "previous\"version".into(),
            },
            "line1\nline2",
        );
        let json = d.render_json();
        assert!(json.contains(r#""message":"line1\nline2""#), "{json}");
        assert!(json.contains(r#"previous\"version"#), "{json}");
        assert!(json.contains(r#""category":"dataflow""#), "{json}");
    }

    #[test]
    fn categories_follow_code_ranges() {
        assert_eq!(Code("CN0101").category(), "structural");
        assert_eq!(Code("CN0207").category(), "dataflow");
        assert_eq!(Code("CN0301").category(), "resilience");
        assert_eq!(Code("CN0416").category(), "planning");
        assert_eq!(Code("CN0502").category(), "verification");
        assert_eq!(Code("CN0601").category(), "interference");
        assert_eq!(Code("XX").category(), "other");
    }

    #[test]
    fn report_counts_and_gate() {
        let mut r = Report::new();
        assert!(r.passes_gate(true));
        r.push(Diagnostic::warning(Code("CN0205"), SourceRef::Global, "w"));
        assert!(r.passes_gate(false));
        assert!(!r.passes_gate(true));
        r.push(sample());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(!r.passes_gate(false));
    }

    #[test]
    fn sort_orders_errors_first_then_code() {
        let mut r = Report::new();
        r.push(Diagnostic::warning(Code("CN0205"), SourceRef::Global, "w"));
        r.push(Diagnostic::error(Code("CN0202"), SourceRef::Global, "b"));
        r.push(Diagnostic::error(Code("CN0101"), SourceRef::Global, "a"));
        r.sort();
        let codes: Vec<&str> = r.iter().map(|d| d.code.0).collect();
        assert_eq!(codes, vec!["CN0101", "CN0202", "CN0205"]);
    }

    #[test]
    fn sarif_rendering_parses_with_rules_results_and_levels() {
        let mut r = Report::new();
        r.push(sample());
        r.push(Diagnostic::info(
            Code("CN0605"),
            SourceRef::Global,
            "conservative assumption",
        ));
        let sarif = r.render_sarif();
        let v = cornet_types::json::parse(&sarif).unwrap();
        assert_eq!(v.get("version").unwrap().as_str(), Some("2.1.0"));
        let run = &v.get("runs").unwrap().as_array().unwrap()[0];
        let rules = run
            .get("tool")
            .unwrap()
            .get("driver")
            .unwrap()
            .get("rules")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].get("id").unwrap().as_str(), Some("CN0101"));
        let results = run.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].get("level").unwrap().as_str(), Some("error"));
        assert_eq!(results[1].get("level").unwrap().as_str(), Some("note"));
        let msg = results[0].get("message").unwrap().get("text").unwrap();
        assert!(msg.as_str().unwrap().contains("help:"), "{sarif}");
        // Bit-stable: rendering twice yields identical bytes.
        assert_eq!(sarif, r.render_sarif());
    }

    #[test]
    fn fingerprint_ignores_the_message() {
        let a = Diagnostic::error(Code("CN0601"), SourceRef::Global, "one wording");
        let b = Diagnostic::error(Code("CN0601"), SourceRef::Global, "another wording");
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = Diagnostic::error(Code("CN0602"), SourceRef::Global, "one wording");
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn jsonl_round_trips_through_the_reader() {
        let mut r = Report::new();
        r.push(sample());
        let line = r.render_jsonl();
        let v = cornet_types::json::parse(line.trim()).unwrap();
        assert_eq!(v.get("code").unwrap().as_str(), Some("CN0101"));
        assert_eq!(
            v.get("where").unwrap().as_str(),
            Some("workflow 'fig4' edge 0->999")
        );
    }
}
