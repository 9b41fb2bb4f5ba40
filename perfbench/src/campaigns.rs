//! `daemon_campaigns`: four tenants submit seeded MOP bundles to a real
//! `cornetd` over HTTP in a closed loop; a second connection polls every
//! accepted campaign to a terminal phase.
//!
//! The run is a sequence of rounds. Each round submits an anchor
//! campaign and pauses it, then a fixed interleaving of clean (201),
//! defective (422) and anchor-racing (409) bundles, then resumes the
//! anchor and waits until every campaign of the round is terminal.

use crate::daemon::{Daemon, RUN_DIR};
use crate::gen::{self, Expect, Scenario, Submission};
use crate::http::{self, Reply};
use crate::report::{cpu_seconds, Layers, Run};
use crate::stats::{median, p95, percentile};
use crate::trace::Recorder;
use crate::Args;
use cornet_analysis::Report;
use cornet_core::blast::{analyze_interference, campaign_blasts, conflicts_between, CampaignBlast};
use cornet_core::load_bundle;
use cornet_daemon::{
    report_fingerprint, CampaignManager, JournalScenario, ManagerConfig, SubmitOutcome,
};
use cornet_obs::Tracer;
use cornet_orchestrator::Dispatcher;
use cornet_types::json::{parse, JsonValue};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Extra daemon starts per run, besides one per round; `setup_s` is the
/// median spawn-to-listening time over all of them.
pub const SETUP_REPS: usize = 5;
/// Interval at which the poller re-reads a campaign that is not terminal.
pub const POLL_INTERVAL: Duration = Duration::from_millis(10);
/// Rounds needed for at least 200 submissions (a p95).
pub const MIN_ROUNDS: usize = 5;
/// How long a round may take to drain before its campaigns count failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(120);

/// An accepted campaign handed to the poller.
struct Accepted {
    id: String,
    tenant: &'static str,
    scenario: usize,
    accepted_at: Instant,
    anchor: bool,
}

/// The poller's verdict on one campaign.
struct Terminal {
    scenario: usize,
    at: Instant,
    latency_s: f64,
    anchor: bool,
    /// Hex fingerprint of a completed campaign, or the failure.
    result: Result<String, String>,
}

/// What the HTTP pass measured.
#[derive(Default)]
struct Pass {
    submit_ms: Vec<f64>,
    campaign_s: Vec<f64>,
    drain_s: Vec<f64>,
    rounds: usize,
    requests: u64,
    errors: u64,
    lag_ms: Vec<f64>,
    busy_frac: f64,
    /// Peak RSS of each round's daemon.
    rss_mb: Vec<f64>,
    /// Fingerprint per completed campaign, checked after the pass.
    fingerprints: Vec<(usize, String)>,
}

fn submit(addr: SocketAddr, s: &Submission) -> Result<(Reply, f64), String> {
    let t = Instant::now();
    let reply = http::request(addr, "POST", "/v1/campaigns", Some(s.tenant), &s.body)?;
    Ok((reply, t.elapsed().as_secs_f64() * 1e3))
}

fn field<'a>(v: &'a JsonValue, key: &str) -> Option<&'a str> {
    v.get(key).and_then(JsonValue::as_str)
}

/// The poller: walk accepted campaigns in order, re-reading the oldest
/// one every `POLL_INTERVAL` until it is terminal.
fn poll(
    addr: SocketAddr,
    rx: mpsc::Receiver<Accepted>,
    tx: mpsc::Sender<Terminal>,
) -> (u64, u64, Vec<f64>) {
    let (mut requests, mut errors, mut lag_ms) = (0u64, 0u64, Vec::new());
    for c in rx {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        let path = format!("/v1/campaigns/{}", c.id);
        let result = loop {
            let due = Instant::now();
            requests += 1;
            let reply = http::request(addr, "GET", &path, Some(c.tenant), "");
            let snap = match reply {
                Ok(r) if r.status == 200 => parse(&r.body).map_err(|e| e.to_string()),
                Ok(r) => Err(format!("GET {path} answered {}", r.status)),
                Err(e) => Err(e),
            };
            let snap = match snap {
                Ok(s) => s,
                Err(e) => {
                    errors += 1;
                    break Err(e);
                }
            };
            match field(&snap, "phase") {
                Some("completed") => {
                    break snap
                        .get("outcome")
                        .and_then(|o| field(o, "fingerprint"))
                        .map(str::to_string)
                        .ok_or_else(|| format!("{} completed without a fingerprint", c.id))
                }
                Some(p @ ("failed" | "cancelled")) => {
                    break Err(format!("campaign {} ended {p}", c.id))
                }
                _ if Instant::now() > deadline => {
                    break Err(format!("campaign {} did not finish", c.id))
                }
                _ => {}
            }
            std::thread::sleep(POLL_INTERVAL);
            lag_ms.push(
                (due.elapsed().as_secs_f64() * 1e3 - POLL_INTERVAL.as_secs_f64() * 1e3).max(0.0),
            );
        };
        let at = Instant::now();
        let sent = tx.send(Terminal {
            scenario: c.scenario,
            at,
            latency_s: at.duration_since(c.accepted_at).as_secs_f64(),
            anchor: c.anchor,
            result,
        });
        if sent.is_err() {
            break;
        }
    }
    (requests, errors, lag_ms)
}

/// One HTTP pass: rounds until `seconds` have passed (and at least
/// `min_rounds` ran), each on a fresh daemon started from `bin`.
fn drive(
    bin: &Path,
    seed: u64,
    seconds: u64,
    min_rounds: usize,
    setup: &mut Vec<f64>,
    run: &mut Run,
) -> Pass {
    let mut pass = Pass::default();
    let cpu0 = cpu_seconds();
    let started = Instant::now();
    let deadline = started + Duration::from_secs(seconds);
    while pass.rounds < min_rounds || Instant::now() < deadline {
        let mut daemon = match Daemon::start_fresh(bin, setup) {
            Ok(d) => d,
            Err(e) => {
                run.check(false, &e);
                break;
            }
        };
        drive_round(&mut daemon, seed, &mut pass, run);
        pass.rss_mb.push(daemon.rss_peak_mb());
        if let Err(e) = daemon.stop() {
            run.check(false, &e);
        }
        if !run.correct() {
            break;
        }
    }
    pass.busy_frac = (cpu_seconds() - cpu0) / started.elapsed().as_secs_f64();
    pass
}

/// Submit round `pass.rounds` and wait until all of its accepted
/// campaigns are terminal.
fn drive_round(daemon: &mut Daemon, seed: u64, pass: &mut Pass, run: &mut Run) {
    let addr = daemon.addr;
    let (acc_tx, acc_rx) = mpsc::channel::<Accepted>();
    let (term_tx, term_rx) = mpsc::channel::<Terminal>();
    let poller = std::thread::spawn(move || poll(addr, acc_rx, term_tx));
    let subs = gen::round(seed, pass.rounds);
    let round_start = Instant::now();
    let mut accepted = 0usize;
    let mut anchor: Option<Accepted> = None;
    for (i, s) in subs.iter().enumerate() {
        pass.requests += 1;
        let (reply, ms) = match submit(addr, s) {
            Ok(r) => r,
            Err(e) => {
                pass.errors += 1;
                run.op(Some(e));
                continue;
            }
        };
        pass.submit_ms.push(ms);
        if reply.status != s.expect.status() {
            run.op(Some(format!(
                "{:?} bundle of {} nodes answered {} (want {})",
                s.expect,
                s.nodes,
                reply.status,
                s.expect.status()
            )));
            continue;
        }
        run.op(None);
        if s.expect != Expect::Created {
            continue;
        }
        let Some(id) = parse(&reply.body)
            .ok()
            .and_then(|v| field(&v, "id").map(str::to_string))
        else {
            run.op(Some("201 without a campaign id".into()));
            continue;
        };
        let c = Accepted {
            id,
            tenant: s.tenant,
            scenario: s.scenario,
            accepted_at: Instant::now(),
            anchor: i == 0,
        };
        accepted += 1;
        if i == 0 {
            // Keep the anchor live (and its blast radius in force) while
            // the round's racing bundles arrive.
            pass.requests += 1;
            let path = format!("/v1/campaigns/{}/pause", c.id);
            run.op(status_is(
                http::request(addr, "POST", &path, Some(c.tenant), ""),
                200,
                &path,
            ));
            anchor = Some(c);
        } else if acc_tx.send(c).is_err() {
            run.op(Some("poller stopped".into()));
        }
    }
    if let Some(c) = anchor {
        pass.requests += 1;
        let path = format!("/v1/campaigns/{}/resume", c.id);
        run.op(status_is(
            http::request(addr, "POST", &path, Some(c.tenant), ""),
            200,
            &path,
        ));
        let _ = acc_tx.send(c);
    }
    drop(acc_tx);
    let mut last = round_start;
    for _ in 0..accepted {
        match term_rx.recv_timeout(DRAIN_TIMEOUT) {
            Ok(t) => {
                last = last.max(t.at);
                if !t.anchor {
                    pass.campaign_s.push(t.latency_s);
                }
                match t.result {
                    Ok(fp) => pass.fingerprints.push((t.scenario, fp)),
                    Err(e) => run.op(Some(e)),
                }
            }
            Err(_) => {
                run.op(Some("a round did not drain".into()));
                break;
            }
        }
    }
    pass.drain_s
        .push(last.duration_since(round_start).as_secs_f64());
    pass.rounds += 1;
    let (requests, errors, lag_ms) = poller.join().unwrap_or_default();
    pass.requests += requests;
    pass.errors += errors;
    pass.lag_ms.extend(lag_ms);
    if !daemon.alive() {
        run.op(Some("cornetd exited".into()));
    }
}

fn status_is(reply: Result<Reply, String>, want: u16, what: &str) -> Option<String> {
    match reply {
        Ok(r) if r.status == want => None,
        Ok(r) => Some(format!("{what} answered {} (want {want})", r.status)),
        Err(e) => Some(e),
    }
}

/// The fingerprint the scenario's campaign must end with, from an
/// in-process dispatcher run without the daemon.
fn expected_fingerprint(s: Scenario) -> Result<String, String> {
    let scenario = JournalScenario {
        seed: s.seed,
        nodes: gen::SCENARIO_INSTANCES,
        fault_rate_milli: s.fault_rate_milli,
        ..Default::default()
    };
    let d = Dispatcher::new(
        scenario.war()?,
        scenario.registry(None, None),
        scenario.concurrency,
    )
    .map_err(|e| e.to_string())?;
    let (report, _) = d
        .run_with_breaker(
            &scenario.schedule(),
            JournalScenario::inputs,
            &scenario.breaker(),
        )
        .map_err(|e| e.to_string())?;
    Ok(format!("{:016x}", report_fingerprint(&report)))
}

/// Check every completed campaign's fingerprint against its scenario.
fn check_fingerprints(seed: u64, got: &[(usize, String)], run: &mut Run) {
    let pool = gen::scenario_pool(seed);
    let mut expected: BTreeMap<usize, Result<String, String>> = BTreeMap::new();
    for (scenario, fp) in got {
        let want = expected
            .entry(*scenario)
            .or_insert_with(|| expected_fingerprint(pool[*scenario]));
        run.op(match want {
            Ok(w) if w == fp => None,
            Ok(w) => Some(format!("fingerprint {fp} differs from the in-process {w}")),
            Err(e) => Some(format!("in-process scenario: {e}")),
        });
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args) -> Run {
    let mut run = Run::default();
    let bodies = |r: Vec<Submission>| r.into_iter().map(|s| s.body).collect::<Vec<_>>();
    run.check(
        bodies(gen::round(args.seed, 0)) == bodies(gen::round(args.seed, 0)),
        "the same seed generated different bundles",
    );
    let mut setup = Vec::new();
    if let Err(e) = Daemon::warm_up(&args.cornetd, SETUP_REPS, &mut setup) {
        run.check(false, &e);
        return run;
    }
    let pass = drive(
        &args.cornetd,
        args.seed,
        args.seconds,
        MIN_ROUNDS,
        &mut setup,
        &mut run,
    );
    check_fingerprints(args.seed, &pass.fingerprints, &mut run);
    let submit_p95 = p95(&pass.submit_ms).map_err(|e| run.check(false, &e)).ok();
    let m = &mut run.metrics;
    m.set_opt("setup_s", median(&setup), "s");
    m.set_opt("rss_peak_mb", median(&pass.rss_mb), "MB");
    m.set_opt("reply_ms", percentile(&pass.submit_ms, 50.0), "ms");
    m.set_opt("reply_slow_ms", submit_p95, "ms");
    m.set_opt("work_s", median(&pass.drain_s), "s");
    let named = &mut run.named;
    named.set_opt("submit_p50_ms", percentile(&pass.submit_ms, 50.0), "ms");
    named.set_opt("submit_p95_ms", submit_p95, "ms");
    named.set_opt("campaign_p50_s", percentile(&pass.campaign_s, 50.0), "s");
    named.set_opt("campaign_drain_s", median(&pass.drain_s), "s");
    named.set("submissions", pass.submit_ms.len() as f64, "count");
    named.set("rounds", pass.rounds as f64, "count");
    run
}

/// The traced run: one HTTP pass for the HTTP and client layers, then
/// the same rounds replayed in-process, untraced and traced, through the
/// check, blast, manager, dispatcher and journal layers.
pub fn traced(args: &Args) -> Run {
    let mut run = Run::default();
    let mut layer = Layers::default();
    let pass = drive(
        &args.cornetd,
        args.seed,
        args.seconds.div_ceil(3),
        1,
        &mut Vec::new(),
        &mut run,
    );
    let t = Instant::now();
    replay(
        args.seed,
        pass.rounds,
        None,
        &mut Run::default(),
        &mut Layers::default(),
    );
    let untraced_s = t.elapsed().as_secs_f64();
    let mut rec = Recorder::default();
    let t = Instant::now();
    let inproc_submit_ms = replay(args.seed, pass.rounds, Some(&mut rec), &mut run, &mut layer);
    let traced_s = t.elapsed().as_secs_f64();
    layer.finish(&rec, "daemon_campaigns", &[untraced_s], &[traced_s]);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    layer.set(
        "http.overhead_ms",
        mean(&pass.submit_ms) - mean(&inproc_submit_ms),
    );
    layer.add("http.requests", pass.requests as f64);
    layer.add("http.errors", pass.errors as f64);
    layer.set("client.busy_frac", pass.busy_frac);
    layer.set("client.lag_ms", median(&pass.lag_ms).unwrap_or(0.0));
    run.metrics = layer.into_metrics();
    run
}

/// Replay `rounds` rounds in-process against a fresh `CampaignManager`.
/// With a recorder, each layer call is a span and the manager runs with a
/// collecting tracer; returns each in-process submit's milliseconds.
fn replay(
    seed: u64,
    rounds: usize,
    mut rec: Option<&mut Recorder>,
    run: &mut Run,
    layer: &mut Layers,
) -> Vec<f64> {
    let tracer = if rec.is_some() {
        Tracer::wall()
    } else {
        Tracer::noop()
    };
    let dir = Path::new(RUN_DIR).join(format!("replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let manager = match CampaignManager::start(ManagerConfig {
        state_dir: dir.clone(),
        tracer: tracer.clone(),
        ..Default::default()
    }) {
        Ok(m) => m,
        Err(e) => {
            run.check(false, &format!("in-process manager: {e}"));
            return Vec::new();
        }
    };
    let mut submit_ms = Vec::new();
    let mut accepted_ns: BTreeMap<String, u64> = BTreeMap::new();
    let mut discard = Recorder::default();
    for r in 0..rounds {
        let rec: &mut Recorder = match rec.as_deref_mut() {
            Some(rec) => rec,
            None => &mut discard,
        };
        rec.span("daemon_campaigns", |rec| {
            let mut live: Vec<Vec<CampaignBlast>> = Vec::new();
            let mut ids = Vec::new();
            let mut anchor = None;
            for (i, s) in gen::round(seed, r).iter().enumerate() {
                let blasts = replay_layers(rec, &s.body, &live, layer);
                let t = Instant::now();
                let outcome = rec.span("manager.submit", |_| manager.submit(s.tenant, &s.body));
                submit_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let got = match &outcome {
                    Ok(SubmitOutcome::Accepted { id, .. }) => {
                        accepted_ns.insert(id.clone(), tracer.now_ns());
                        ids.push((s.tenant, id.clone()));
                        if i == 0 {
                            let _ = manager.pause(s.tenant, id);
                            anchor = Some((s.tenant, id.clone()));
                        }
                        // Every campaign accepted this round counts as
                        // live: most are still queued behind the
                        // concurrent-campaign limit.
                        live.extend(blasts);
                        Expect::Created
                    }
                    Ok(SubmitOutcome::Rejected { .. }) => Expect::Rejected,
                    Ok(SubmitOutcome::Interfering { .. }) => Expect::Conflict,
                    Err(_) => {
                        run.op(Some(format!(
                            "in-process submit of a {:?} bundle failed",
                            s.expect
                        )));
                        continue;
                    }
                };
                run.op((got != s.expect)
                    .then(|| format!("in-process {:?} bundle came back {got:?}", s.expect)));
            }
            if let Some((tenant, id)) = anchor {
                let _ = manager.resume(tenant, &id);
            }
            rec.span("dispatch.drain", |_| {
                let deadline = Instant::now() + DRAIN_TIMEOUT;
                for (tenant, id) in &ids {
                    while manager
                        .snapshot(tenant, id)
                        .is_ok_and(|s| !s.phase.is_terminal())
                        && Instant::now() < deadline
                    {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            });
        });
    }
    manager.begin_shutdown();
    manager.drain(Duration::from_secs(60));
    let trace = tracer.snapshot();
    let counter = |n: &str| trace.metrics.counter(n) as f64;
    let sum_counters = |suffix: &str| -> f64 {
        trace
            .metrics
            .counters
            .iter()
            .filter(|(k, _)| k.ends_with(suffix))
            .map(|(_, v)| *v as f64)
            .sum()
    };
    let dispatch: Vec<f64> = trace
        .spans_named("dispatch")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    layer.set("dispatch.campaign_ms", median(&dispatch).unwrap_or(0.0));
    let waits: Vec<f64> = trace
        .spans_named("campaign")
        .filter_map(|s| {
            let id = s.attr("campaign")?.to_string();
            let at = *accepted_ns.get(&id)?;
            Some(s.start_ns.saturating_sub(at) as f64 / 1e6)
        })
        .collect();
    layer.set("manager.admission_wait_ms", median(&waits).unwrap_or(0.0));
    let blocks: f64 = trace
        .metrics
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("blocks.") && k.as_str() != "blocks.retry_attempts")
        .map(|(_, v)| *v as f64)
        .sum();
    layer.add("dispatch.blocks", blocks);
    layer.add(
        "dispatch.attempts",
        blocks + counter("blocks.retry_attempts"),
    );
    let appends: Vec<f64> = trace
        .spans_named("journal.append")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    layer.add("journal.appends", appends.len() as f64);
    layer.add("journal.append_ms", appends.iter().sum());
    layer.add("journal.bytes", counter("journal.bytes_written"));
    layer.add("journal.fsyncs", counter("journal.fsyncs"));
    layer.add("manager.accepted", sum_counters(".submitted"));
    layer.add("manager.rejected", sum_counters(".rejected"));
    layer.add("manager.interfering", sum_counters(".interfering"));
    drop(manager);
    let _ = std::fs::remove_dir_all(&dir);
    submit_ms
}

/// The layers `CampaignManager::submit` runs, called one by one through
/// their public functions: JSON parse, bundle load, each check pass, and
/// the blast gate against the live campaigns. Returns the bundle's blast
/// radii when it passed the check gate.
fn replay_layers(
    rec: &mut Recorder,
    body: &str,
    live: &[Vec<CampaignBlast>],
    layer: &mut Layers,
) -> Option<Vec<CampaignBlast>> {
    layer.add("json.bytes", body.len() as f64);
    let _ = rec.span("json.parse", |_| parse(body));
    let b = rec.span("check.load_bundle", |_| load_bundle(body)).ok()?;
    let mut report = Report::new();
    rec.span("check.pass.workflow", |_| {
        for wf in &b.workflows {
            report.merge(cornet_workflow::analyze(wf, &b.catalog));
        }
    });
    rec.span("check.pass.intent-lint", |_| {
        if let Some(intent) = &b.intent {
            if let Ok(r) = cornet_planner::analyze_intent(intent, &b.inventory, &b.scope) {
                report.merge(r);
            }
        }
    });
    rec.span("check.pass.campaigns", |_| {
        cornet_planner::analyze_campaigns(&b.campaigns, b.intent.as_ref(), &mut report)
    });
    rec.span("check.pass.interference", |_| {
        analyze_interference(&b, &mut report)
    });
    rec.span("check.pass.resilience", |_| {
        if let Some(spec) = &b.resilience {
            cornet_orchestrator::analyze_resilience(spec, &mut report);
        }
        for wf in &b.workflows {
            cornet_orchestrator::analyze_replay_safety(wf, &b.catalog, &mut report);
        }
    });
    rec.span("check.pass.rules", |_| {
        cornet_verifier::analyze_rules(&b.rules, &b.inventory, b.known_kpis.as_deref(), &mut report)
    });
    layer.add("check.diagnostics", report.iter().count() as f64);
    if report.has_errors() || b.campaigns.is_empty() {
        return None;
    }
    let blasts = rec.span("blast.campaign_blasts", |_| campaign_blasts(&b));
    let conflicts = rec.span("blast.conflicts_between", |_| {
        live.iter()
            .map(|l| conflicts_between(&blasts, l).len())
            .sum::<usize>()
    });
    layer.add("blast.checks", 1.0);
    layer.add("blast.live_sum", live.len() as f64);
    layer.add("blast.conflicts", conflicts as f64);
    Some(blasts)
}
