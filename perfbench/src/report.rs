//! Run outcome accounting, metric tables and the result line.

use crate::trace::Recorder;
use std::collections::BTreeMap;

/// An ordered table of named metrics with units.
#[derive(Default)]
pub struct Metrics {
    rows: Vec<(String, f64, String)>,
    missing: Vec<String>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        self.rows.push((name.to_string(), value, unit.to_string()));
    }

    /// Set a metric that may not have been measured; an unmeasured one
    /// makes the run incorrect.
    pub fn set_opt(&mut self, name: &str, value: Option<f64>, unit: &str) {
        match value {
            Some(v) if v.is_finite() => self.set(name, v, unit),
            _ => self.missing.push(name.to_string()),
        }
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .rows
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Everything one run produced.
#[derive(Default)]
pub struct Run {
    /// The metrics of the result line (end-to-end or per-layer).
    pub metrics: Metrics,
    /// The workload's own metrics (`plan_sharded_s`, `submit_p95_ms`, …),
    /// printed as human-readable lines before the result line.
    pub named: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Failures of checks that are not operations (determinism, setup).
    pub errors: Vec<String>,
}

impl Run {
    /// Count one attempted operation; `Some(reason)` marks it failed.
    pub fn op(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(reason) = failure {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(reason);
            }
        }
    }

    /// A correctness check that is not an operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.errors.push(what.to_string());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.errors.is_empty()
            && self.metrics.missing.is_empty()
            && self.named.missing.is_empty()
            && self.attempted > 0
    }

    /// Print the human-readable lines, then the result line.
    pub fn print(&self, workload: &str) {
        for e in &self.errors {
            eprintln!("perfbench: {workload}: {e}");
        }
        for m in self.metrics.missing.iter().chain(&self.named.missing) {
            eprintln!("perfbench: {workload}: {m} was not measured");
        }
        let frac = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "{workload}: attempted {} succeeded {} failed {} (ops_failed_frac {frac})",
            self.attempted,
            self.attempted - self.failed,
            self.failed
        );
        for (n, v, u) in self.named.rows.iter().chain(&self.metrics.rows) {
            println!("{workload}: {n} = {} {u}", num(*v));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            if self.attempted == 0 { 1 } else { self.failed },
            self.metrics.json()
        );
    }
}

/// Peak resident set size (VmHWM) of `/proc/<pid>`, in MiB.
pub fn vm_hwm_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) this process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Every per-layer metric with its unit. Each traced run reports all of
/// them; a layer the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netsim.generate_ms", "ms"),
    ("planner.lint_ms", "ms"),
    ("planner.translate_ms", "ms"),
    ("model.vars", "count"),
    ("model.constraints", "count"),
    ("planner.shard_ms", "ms"),
    ("planner.shards", "count"),
    ("planner.reconcile_ms", "ms"),
    ("planner.decode_ms", "ms"),
    ("solve.heuristic_ms", "ms"),
    ("solve.sharded_ms", "ms"),
    ("solve.members_run", "count"),
    ("solve.members_unknown", "count"),
    ("solve.member_useful_ratio", "ratio"),
    ("solver.search_nodes", "count"),
    ("json.parse_ms", "ms"),
    ("json.bytes", "bytes"),
    ("json.parse_mb_per_s", "MB/s"),
    ("check.load_bundle_ms", "ms"),
    ("check.pass.workflow_ms", "ms"),
    ("check.pass.intent-lint_ms", "ms"),
    ("check.pass.campaigns_ms", "ms"),
    ("check.pass.resilience_ms", "ms"),
    ("check.pass.rules_ms", "ms"),
    ("check.pass.interference_ms", "ms"),
    ("check.diagnostics", "count"),
    ("blast.campaign_blasts_ms", "ms"),
    ("blast.conflicts_between_ms", "ms"),
    ("blast.live_campaigns", "count"),
    ("blast.conflicts", "count"),
    ("http.requests", "count"),
    ("http.errors", "count"),
    ("http.overhead_ms", "ms"),
    ("manager.submit_ms", "ms"),
    ("manager.admission_wait_ms", "ms"),
    ("manager.accepted", "count"),
    ("manager.rejected", "count"),
    ("manager.interfering", "count"),
    ("dispatch.campaign_ms", "ms"),
    ("dispatch.drain_ms", "ms"),
    ("dispatch.blocks", "count"),
    ("dispatch.attempts", "count"),
    ("dispatch.retry_ratio", "ratio"),
    ("journal.appends", "count"),
    ("journal.bytes", "bytes"),
    ("journal.fsyncs", "count"),
    ("journal.append_ms", "ms"),
    ("stream.ingest_ms", "ms"),
    ("stream.samples", "count"),
    ("stream.shed", "count"),
    ("stream.rejected", "count"),
    ("stream.detections", "count"),
    ("stream.poll_verdicts_ms", "ms"),
    ("stream.verdict_recompute_ratio", "ratio"),
    ("client.busy_frac", "frac"),
    ("client.lag_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer accumulator of a traced run. Summed values are reported
/// per round of the run; `set` values are reported as they are.
#[derive(Default)]
pub struct Layers {
    sums: BTreeMap<String, f64>,
    fixed: BTreeMap<String, f64>,
    rounds: usize,
}

impl Layers {
    pub fn add(&mut self, name: &str, v: f64) {
        *self.sums.entry(name.to_string()).or_insert(0.0) += v;
    }

    pub fn set(&mut self, name: &str, v: f64) {
        self.fixed.insert(name.to_string(), v);
    }

    /// Fold the recorder's spans in: the self time of every span named
    /// `layer` becomes `<layer>_ms`, the self time of the `root` spans
    /// becomes `unattributed_ms`, and the median traced vs untraced pass
    /// times give the tracing overhead.
    pub fn finish(&mut self, rec: &Recorder, root: &str, untraced_s: &[f64], traced_s: &[f64]) {
        self.rounds = rec.count(root).max(1);
        for (name, ms) in rec.self_ms() {
            let key = if name == root {
                "unattributed_ms".to_string()
            } else {
                format!("{name}_ms")
            };
            self.add(&key, ms);
        }
        if let (Some(u), Some(t)) = (
            crate::stats::median(untraced_s),
            crate::stats::median(traced_s),
        ) {
            self.set("trace.overhead_pct", (t - u) / u * 100.0);
        }
    }

    pub fn into_metrics(self) -> Metrics {
        let sum = |n: &str| self.sums.get(n).copied().unwrap_or(0.0);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let mut m = Metrics::default();
        for (name, unit) in PER_LAYER {
            let v = match *name {
                "solve.member_useful_ratio" => {
                    ratio(sum("solve.members_feasible"), sum("solve.members_run"))
                }
                "json.parse_mb_per_s" => ratio(sum("json.bytes") / 1e6, sum("json.parse_ms") / 1e3),
                "blast.live_campaigns" => ratio(sum("blast.live_sum"), sum("blast.checks")),
                "dispatch.retry_ratio" => ratio(sum("dispatch.attempts"), sum("dispatch.blocks")),
                "stream.verdict_recompute_ratio" => {
                    ratio(sum("stream.recomputes"), sum("stream.polls"))
                }
                _ => match self.fixed.get(*name) {
                    Some(v) => *v,
                    None => sum(name) / self.rounds.max(1) as f64,
                },
            };
            m.set(name, v, unit);
        }
        m
    }
}
