//! `daemon_ingest`: one tenant streams a seeded KPI feed into a real
//! `cornetd`'s `/v1/ingest` over one connection in a closed loop, while a
//! second connection reads the verdicts after every posted batch.

use crate::daemon::Daemon;
use crate::gen::{self, StreamShape};
use crate::http;
use crate::oracle::{batch_verdicts, render_snapshot_verdicts, render_verdicts};
use crate::report::{cpu_seconds, Layers, Run};
use crate::stats::{median, p95, percentile};
use crate::trace::Recorder;
use crate::Args;
use cornet_obs::Tracer;
use cornet_types::json::parse;
use cornet_types::NodeId;
use cornet_verifier::{StreamConfig, StreamSample, StreamingVerifier};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The feed: samples per node and lines per POST.
pub const SHAPE: StreamShape = StreamShape {
    ticks: 500,
    batch: 2000,
};
/// The ingesting tenant.
const TENANT: &str = "acme";
/// Extra daemon starts per run, besides one per session; `setup_s` is
/// the median spawn-to-listening time over all of them.
pub const SETUP_REPS: usize = 5;
/// Fewest sessions a run measures.
pub const MIN_SESSIONS: usize = 3;

/// What the HTTP pass measured.
#[derive(Default)]
struct Pass {
    post_ms: Vec<f64>,
    verdict_ms: Vec<f64>,
    lines: usize,
    ingest_s: f64,
    requests: u64,
    errors: u64,
    lag_ms: Vec<f64>,
    busy_frac: f64,
    rss_mb: f64,
}

/// Read verdicts once after each batch but the last has landed;
/// `landed` holds each posted batch's completion time.
fn read_verdicts(addr: SocketAddr, landed: Arc<Mutex<Vec<Instant>>>, total: usize) -> Reads {
    let mut reads = Reads::default();
    for target in 0..total - 1 {
        let due = loop {
            if let Some(&t) = landed.lock().unwrap_or_else(|e| e.into_inner()).get(target) {
                break t;
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        let t = Instant::now();
        reads
            .lag_ms
            .push(t.saturating_duration_since(due).as_secs_f64() * 1e3);
        match http::request(addr, "GET", "/v1/ingest", Some(TENANT), "") {
            Ok(r) if r.status == 200 => reads.ms.push(t.elapsed().as_secs_f64() * 1e3),
            Ok(r) => reads
                .failures
                .push(format!("GET /v1/ingest answered {}", r.status)),
            Err(e) => reads.failures.push(e),
        }
    }
    reads
}

/// What the verdict reader saw.
#[derive(Default)]
struct Reads {
    ms: Vec<f64>,
    lag_ms: Vec<f64>,
    failures: Vec<String>,
}

/// POST the whole feed, reading verdicts beside it; then check the final
/// verdicts against batch verification.
fn drive(daemon: &mut Daemon, batches: &[String], want: &str, run: &mut Run) -> Pass {
    let addr = daemon.addr;
    let mut pass = Pass::default();
    let landed = Arc::new(Mutex::new(Vec::new()));
    let mut reader = None;
    let cpu0 = cpu_seconds();
    let started = Instant::now();
    for (i, body) in batches.iter().enumerate() {
        let path = if i == 0 {
            format!("/v1/ingest?{}", SHAPE.params())
        } else {
            "/v1/ingest".to_string()
        };
        let lines = body.lines().count();
        pass.lines += lines;
        pass.requests += 1;
        let t = Instant::now();
        let reply = http::request(addr, "POST", &path, Some(TENANT), body);
        pass.post_ms.push(t.elapsed().as_secs_f64() * 1e3);
        landed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Instant::now());
        run.op(match reply {
            Ok(r) if r.status == 200 => check_receipt(&r.body, lines),
            Ok(r) => Some(format!("POST /v1/ingest answered {}", r.status)),
            Err(e) => {
                pass.errors += 1;
                Some(e)
            }
        });
        if i == 0 {
            // The session exists once the first batch is in.
            let (landed, total) = (landed.clone(), batches.len());
            reader = Some(std::thread::spawn(move || {
                read_verdicts(addr, landed, total)
            }));
        }
    }
    pass.ingest_s = started.elapsed().as_secs_f64();
    let reads = reader
        .map(|r| r.join().unwrap_or_default())
        .unwrap_or_default();
    pass.requests += (reads.ms.len() + reads.failures.len()) as u64;
    pass.errors += reads.failures.len() as u64;
    for _ in &reads.ms {
        run.op(None);
    }
    for f in reads.failures {
        run.op(Some(f));
    }
    pass.verdict_ms = reads.ms;
    pass.lag_ms = reads.lag_ms;
    pass.busy_frac = (cpu_seconds() - cpu0) / started.elapsed().as_secs_f64();
    pass.requests += 1;
    let last = http::request(addr, "GET", "/v1/ingest", Some(TENANT), "");
    run.op(match last {
        Ok(r) if r.status == 200 => check_verdicts(&r.body, want),
        Ok(r) => Some(format!("final GET /v1/ingest answered {}", r.status)),
        Err(e) => Some(e),
    });
    pass.rss_mb = daemon.rss_peak_mb();
    if !daemon.alive() {
        run.op(Some("cornetd exited".into()));
    }
    pass
}

/// Every line of a batch must be accepted: none rejected, none shed.
fn check_receipt(body: &str, lines: usize) -> Option<String> {
    let Ok(v) = parse(body) else {
        return Some(format!("ingest receipt is not JSON: {body}"));
    };
    let n = |k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap_or(-1.0) as i64;
    (n("accepted") != lines as i64 || n("rejected") != 0 || n("shed") != 0)
        .then(|| format!("ingest receipt {body} for {lines} lines"))
}

/// The final verdicts must equal batch verification over the
/// de-duplicated grid (`want`), and the decision must be go.
fn check_verdicts(body: &str, want: &str) -> Option<String> {
    let got = match render_snapshot_verdicts(body) {
        Ok(g) => g,
        Err(e) => return Some(e),
    };
    if got != want {
        return Some(format!("streamed verdicts {got} differ from batch {want}"));
    }
    (!got.contains(":go")).then(|| format!("decision is not go: {got}"))
}

/// The seeded feed and the verdicts it must end with.
fn feed(seed: u64, run: &mut Run) -> (Vec<String>, String) {
    let batches = gen::ingest_batches(seed, &SHAPE);
    run.check(
        batches == gen::ingest_batches(seed, &SHAPE),
        "the same seed generated different feeds",
    );
    let want = batch_verdicts(seed, &SHAPE).map(|r| render_verdicts(&r));
    let want = want.unwrap_or_else(|e| {
        run.check(false, &format!("batch verification failed: {e}"));
        String::new()
    });
    (batches, want)
}

/// One session on a fresh daemon.
fn session_pass(
    bin: &Path,
    batches: &[String],
    want: &str,
    setup: &mut Vec<f64>,
    run: &mut Run,
) -> Option<Pass> {
    let mut daemon = Daemon::start_fresh(bin, setup)
        .map_err(|e| run.check(false, &e))
        .ok()?;
    let pass = drive(&mut daemon, batches, want, run);
    if let Err(e) = daemon.stop() {
        run.check(false, &e);
    }
    Some(pass)
}

/// The untraced run: end-to-end metrics. Sessions repeat, each on a
/// fresh daemon, until `--seconds` have passed and at least
/// `MIN_SESSIONS` ran.
pub fn run(args: &Args) -> Run {
    let mut run = Run::default();
    let (batches, want) = feed(args.seed, &mut run);
    let mut setup = Vec::new();
    if let Err(e) = Daemon::warm_up(&args.cornetd, SETUP_REPS, &mut setup) {
        run.check(false, &e);
        return run;
    }
    let mut passes = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while passes.len() < MIN_SESSIONS || Instant::now() < deadline {
        match session_pass(&args.cornetd, &batches, &want, &mut setup, &mut run) {
            Some(p) if run.correct() => passes.push(p),
            _ => break,
        }
    }
    let pooled =
        |f: fn(&Pass) -> &Vec<f64>| passes.iter().flat_map(f).copied().collect::<Vec<f64>>();
    let verdict_ms = pooled(|p| &p.verdict_ms);
    let post_ms = pooled(|p| &p.post_ms);
    let ingest_s = median(&passes.iter().map(|p| p.ingest_s).collect::<Vec<_>>());
    let verdict_p95 = p95(&verdict_ms).map_err(|e| run.check(false, &e)).ok();
    let post_p95 = p95(&post_ms).map_err(|e| run.check(false, &e)).ok();
    let lines = passes.first().map_or(0, |p| p.lines) as f64;
    let m = &mut run.metrics;
    m.set_opt("setup_s", median(&setup), "s");
    m.set_opt(
        "rss_peak_mb",
        median(&passes.iter().map(|p| p.rss_mb).collect::<Vec<_>>()),
        "MB",
    );
    m.set_opt("reply_ms", percentile(&verdict_ms, 50.0), "ms");
    m.set_opt("reply_slow_ms", verdict_p95, "ms");
    m.set_opt("work_s", ingest_s, "s");
    let named = &mut run.named;
    named.set_opt("ingest_samples_per_s", ingest_s.map(|s| lines / s), "1/s");
    named.set_opt("ingest_post_p95_ms", post_p95, "ms");
    named.set_opt("verdict_p50_ms", percentile(&verdict_ms, 50.0), "ms");
    named.set_opt("verdict_p95_ms", verdict_p95, "ms");
    named.set("verdict_reads", verdict_ms.len() as f64, "count");
    named.set("sessions", passes.len() as f64, "count");
    named.set("samples_per_session", lines, "count");
    run
}

/// The traced run: one HTTP session for the HTTP and client layers, then
/// the feed replayed in-process, untraced and traced, through per-line
/// JSON parsing, the streaming verifier's ingest and its verdict polls.
pub fn traced(args: &Args) -> Run {
    let mut run = Run::default();
    let mut layer = Layers::default();
    let (batches, want) = feed(args.seed, &mut run);
    let Some(pass) = session_pass(&args.cornetd, &batches, &want, &mut Vec::new(), &mut run) else {
        return run;
    };
    // Poll in-process as often, per batch, as the HTTP reader did.
    let every = (batches.len() / pass.verdict_ms.len().max(1)).max(1);
    let t = Instant::now();
    replay(
        &batches,
        every,
        None,
        &mut Run::default(),
        &mut Layers::default(),
    );
    let untraced_s = t.elapsed().as_secs_f64();
    let mut rec = Recorder::default();
    let t = Instant::now();
    rec.span("daemon_ingest", |rec| {
        replay(&batches, every, Some(rec), &mut run, &mut layer)
    });
    let traced_s = t.elapsed().as_secs_f64();
    layer.finish(&rec, "daemon_ingest", &[untraced_s], &[traced_s]);
    let http_ms: f64 = pass.post_ms.iter().chain(&pass.verdict_ms).sum();
    let inproc_ms = rec.total_ms("json.parse")
        + rec.total_ms("stream.ingest")
        + rec.total_ms("stream.poll_verdicts");
    layer.set(
        "http.overhead_ms",
        (http_ms - inproc_ms) / (pass.post_ms.len() + pass.verdict_ms.len()).max(1) as f64,
    );
    layer.add("http.requests", pass.requests as f64);
    layer.add("http.errors", pass.errors as f64);
    layer.set("client.busy_frac", pass.busy_frac);
    layer.set("client.lag_ms", median(&pass.lag_ms).unwrap_or(0.0));
    run.metrics = layer.into_metrics();
    run
}

/// Replay the feed in-process; with a recorder, time each layer call.
fn replay(
    batches: &[String],
    poll_every: usize,
    rec: Option<&mut Recorder>,
    run: &mut Run,
    layer: &mut Layers,
) {
    let tracer = if rec.is_some() {
        Tracer::wall()
    } else {
        Tracer::noop()
    };
    let mut discard = Recorder::default();
    let rec = rec.unwrap_or(&mut discard);
    let session = gen::Session::new(&SHAPE);
    let names: HashMap<String, NodeId> = session
        .inventory
        .iter()
        .map(|r| (r.name.clone(), r.id))
        .collect();
    let engine = StreamingVerifier::new(
        session.rules,
        session.scope,
        session.inventory,
        session.topology,
        StreamConfig {
            step_minutes: gen::STEP_MINUTES,
            ..StreamConfig::default()
        },
        tracer.clone(),
    );
    let mut polls = 0usize;
    for (i, body) in batches.iter().enumerate() {
        layer.add("json.bytes", body.len() as f64);
        let samples: Vec<StreamSample> = rec.span("json.parse", |_| {
            body.lines()
                .filter_map(|line| {
                    let v = parse(line).ok()?;
                    Some(StreamSample {
                        node: *names.get(v.get("node")?.as_str()?)?,
                        kpi: v.get("kpi")?.as_str()?.to_string(),
                        carrier: None,
                        minute: v.get("minute")?.as_f64()? as u64,
                        value: v.get("value")?.as_f64()?,
                    })
                })
                .collect()
        });
        rec.span("stream.ingest", |_| {
            for s in samples {
                engine.offer(s);
            }
            engine.pump();
        });
        if (i + 1) % poll_every == 0 {
            polls += 1;
            let _ = rec.span("stream.poll_verdicts", |_| engine.poll_verdicts());
        }
    }
    polls += 1;
    let last = rec.span("stream.poll_verdicts", |_| engine.poll_verdicts());
    run.op(last.err().map(|e| format!("in-process verdicts: {e}")));
    let trace = tracer.snapshot();
    let counter = |n: &str| trace.metrics.counter(n) as f64;
    layer.add("stream.samples", counter("stream.samples_processed"));
    layer.add("stream.rejected", counter("stream.samples_rejected"));
    layer.add("stream.shed", counter("stream.samples_shed"));
    layer.add("stream.detections", counter("stream.detections"));
    layer.add("stream.polls", polls as f64);
    layer.add(
        "stream.recomputes",
        trace.spans_named("stream.poll_verdicts").count() as f64,
    );
}
