//! Campaign lifecycle events and their JSON wire form.
//!
//! The journal stores primitive records — status labels as strings, nodes
//! and slots as integers, global state as a type-tagged value tree — so
//! the log can be decoded without any orchestrator types in scope. The
//! orchestrator owns the translation to and from its richer structures.
//!
//! Events render their own JSON (strings escaped by
//! `cornet_types::json::escape`) and decode through
//! `cornet_types::json::parse`. Numbers that must survive the reader's f64 representation exactly
//! (i64 params, durations in nanoseconds) are carried as strings; the
//! tagged parameter encoding (`{"i":"42"}` vs `{"f":"42"}`) keeps int and
//! float values distinct where untagged JSON could not.

use cornet_types::json::{self, parse, JsonValue};
use cornet_types::{CornetError, ParamValue, Result};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Global state snapshot as stored in the journal — identical in shape to
/// the orchestrator's `GlobalState`.
pub type StateMap = BTreeMap<String, ParamValue>;

/// One block execution, exactly as the engine logged it, plus the full
/// post-block state snapshot that makes kill-safe replay possible.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockRecord {
    /// Target node (the schedule's `NodeId`).
    pub node: u32,
    /// Timeslot the instance runs in.
    pub slot: u32,
    /// Building-block name.
    pub block: String,
    /// Outcome label: `success`, `failed`, `timed_out`, or `recovered`.
    pub status: String,
    /// Executor invocations consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Total execution time across attempts, in nanoseconds.
    pub duration_ns: u64,
    /// Total backoff waited between attempts, in nanoseconds.
    pub backoff_ns: u64,
    /// Terminal error message, for failed/timed-out blocks.
    pub error: Option<String>,
    /// True when this block ran inside a backout flow.
    pub backout: bool,
    /// Global state immediately after the block (mutations applied even
    /// when the block failed — executors mutate before erroring).
    pub state: StateMap,
}

/// Recovery statistics from opening an existing journal.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Recovery {
    /// Records decoded successfully.
    pub events: usize,
    /// Byte length of the valid prefix kept.
    pub valid_len: u64,
    /// Bytes discarded past the valid prefix (torn tail).
    pub dropped_bytes: u64,
    /// True when any bytes were discarded.
    pub torn: bool,
}

/// One campaign lifecycle event.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalEvent {
    /// A fresh campaign began: identifying metadata, the full schedule as
    /// `(node, slot)` assignments, and the dispatcher concurrency.
    CampaignOpened {
        /// Free-form campaign metadata (seed, fault plan, workflow name…).
        meta: BTreeMap<String, String>,
        /// Schedule assignments as `(node, slot)` pairs.
        assignments: Vec<(u32, u32)>,
        /// Dispatcher concurrency of the original run.
        concurrency: u32,
    },
    /// A crashed campaign was reopened for resume (marker only — replay
    /// derives everything from the surviving records).
    CampaignResumed {
        /// Metadata echoed from the recovered campaign.
        meta: BTreeMap<String, String>,
    },
    /// An instance entered the admission pool.
    InstanceAdmitted {
        /// Target node.
        node: u32,
        /// Timeslot.
        slot: u32,
    },
    /// A block finished (any outcome) — the write-ahead unit of replay.
    BlockCompleted(BlockRecord),
    /// An instance reached a terminal status.
    InstanceFinished {
        /// Target node.
        node: u32,
        /// Timeslot.
        slot: u32,
        /// Status label: `completed`, `failed`, or `rolled_back`.
        status: String,
        /// Failing block (for `failed`/`rolled_back`) or detail message.
        detail: Option<String>,
    },
    /// The circuit breaker tripped and halted admission.
    BreakerTripped {
        /// Block whose fall-out crossed the threshold.
        block: String,
        /// Observed failure rate at the trip.
        failure_rate: f64,
        /// Instances sampled when the trip fired.
        samples: u64,
    },
    /// The campaign ran to completion (or to a breaker halt) and the
    /// report was handed back — nothing left to resume.
    CampaignClosed,
}

impl JournalEvent {
    /// Short machine name of the event kind (the `ev` field).
    pub fn kind(&self) -> &'static str {
        match self {
            JournalEvent::CampaignOpened { .. } => "campaign_opened",
            JournalEvent::CampaignResumed { .. } => "campaign_resumed",
            JournalEvent::InstanceAdmitted { .. } => "instance_admitted",
            JournalEvent::BlockCompleted(_) => "block_completed",
            JournalEvent::InstanceFinished { .. } => "instance_finished",
            JournalEvent::BreakerTripped { .. } => "breaker_tripped",
            JournalEvent::CampaignClosed => "campaign_closed",
        }
    }

    /// Render the event as a single JSON document (one journal payload).
    pub fn encode(&self) -> String {
        let mut s = String::with_capacity(64);
        let _ = write!(s, "{{\"ev\":\"{}\"", self.kind());
        match self {
            JournalEvent::CampaignOpened {
                meta,
                assignments,
                concurrency,
            } => {
                s.push_str(",\"meta\":");
                encode_string_map(&mut s, meta);
                s.push_str(",\"assignments\":[");
                for (i, (node, slot)) in assignments.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "[{node},{slot}]");
                }
                let _ = write!(s, "],\"concurrency\":{concurrency}");
            }
            JournalEvent::CampaignResumed { meta } => {
                s.push_str(",\"meta\":");
                encode_string_map(&mut s, meta);
            }
            JournalEvent::InstanceAdmitted { node, slot } => {
                let _ = write!(s, ",\"node\":{node},\"slot\":{slot}");
            }
            JournalEvent::BlockCompleted(r) => {
                let _ = write!(
                    s,
                    ",\"node\":{},\"slot\":{},\"block\":\"{}\",\"status\":\"{}\",\
                     \"attempts\":{},\"duration_ns\":\"{}\",\"backoff_ns\":\"{}\"",
                    r.node,
                    r.slot,
                    json::escape(&r.block),
                    json::escape(&r.status),
                    r.attempts,
                    r.duration_ns,
                    r.backoff_ns,
                );
                if let Some(err) = &r.error {
                    let _ = write!(s, ",\"error\":\"{}\"", json::escape(err));
                }
                if r.backout {
                    s.push_str(",\"backout\":true");
                }
                s.push_str(",\"state\":");
                encode_state(&mut s, &r.state);
            }
            JournalEvent::InstanceFinished {
                node,
                slot,
                status,
                detail,
            } => {
                let _ = write!(
                    s,
                    ",\"node\":{node},\"slot\":{slot},\"status\":\"{}\"",
                    json::escape(status)
                );
                if let Some(d) = detail {
                    let _ = write!(s, ",\"detail\":\"{}\"", json::escape(d));
                }
            }
            JournalEvent::BreakerTripped {
                block,
                failure_rate,
                samples,
            } => {
                let _ = write!(
                    s,
                    ",\"block\":\"{}\",\"failure_rate\":\"{failure_rate}\",\"samples\":{samples}",
                    json::escape(block)
                );
            }
            JournalEvent::CampaignClosed => {}
        }
        s.push('}');
        s
    }

    /// Decode one journal payload back into an event.
    pub fn decode(payload: &str) -> Result<JournalEvent> {
        let v = parse(payload)?;
        let kind = req_str(&v, "ev")?;
        match kind {
            "campaign_opened" => {
                let assignments = v
                    .get("assignments")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| bad("campaign_opened without assignments"))?
                    .iter()
                    .map(|pair| {
                        let pair = pair.as_array().unwrap_or_default();
                        match (pair.first(), pair.get(1)) {
                            (Some(n), Some(s)) => Ok((num_u32(n)?, num_u32(s)?)),
                            _ => Err(bad("malformed schedule assignment")),
                        }
                    })
                    .collect::<Result<_>>()?;
                Ok(JournalEvent::CampaignOpened {
                    meta: decode_string_map(&v)?,
                    assignments,
                    concurrency: req_u32(&v, "concurrency")?,
                })
            }
            "campaign_resumed" => Ok(JournalEvent::CampaignResumed {
                meta: decode_string_map(&v)?,
            }),
            "instance_admitted" => Ok(JournalEvent::InstanceAdmitted {
                node: req_u32(&v, "node")?,
                slot: req_u32(&v, "slot")?,
            }),
            "block_completed" => Ok(JournalEvent::BlockCompleted(BlockRecord {
                node: req_u32(&v, "node")?,
                slot: req_u32(&v, "slot")?,
                block: req_str(&v, "block")?.to_owned(),
                status: req_str(&v, "status")?.to_owned(),
                attempts: req_u32(&v, "attempts")?,
                duration_ns: req_ns(&v, "duration_ns")?,
                backoff_ns: req_ns(&v, "backoff_ns")?,
                error: opt_str(&v, "error"),
                backout: matches!(v.get("backout"), Some(JsonValue::Bool(true))),
                state: decode_state(v.get("state").ok_or_else(|| bad("block without state"))?)?,
            })),
            "instance_finished" => Ok(JournalEvent::InstanceFinished {
                node: req_u32(&v, "node")?,
                slot: req_u32(&v, "slot")?,
                status: req_str(&v, "status")?.to_owned(),
                detail: opt_str(&v, "detail"),
            }),
            "breaker_tripped" => Ok(JournalEvent::BreakerTripped {
                block: req_str(&v, "block")?.to_owned(),
                failure_rate: req_str(&v, "failure_rate")?
                    .parse()
                    .map_err(|_| bad("malformed failure_rate"))?,
                samples: req_str_or_num_u64(&v, "samples")?,
            }),
            "campaign_closed" => Ok(JournalEvent::CampaignClosed),
            other => Err(bad(&format!("unknown event kind '{other}'"))),
        }
    }
}

fn bad(msg: &str) -> CornetError {
    CornetError::DataIntegrity(format!("journal event: {msg}"))
}

fn req_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| bad(&format!("missing string field '{key}'")))
}

fn opt_str(v: &JsonValue, key: &str) -> Option<String> {
    v.get(key).and_then(JsonValue::as_str).map(str::to_owned)
}

fn num_u32(v: &JsonValue) -> Result<u32> {
    let n = v.as_f64().ok_or_else(|| bad("expected a number"))?;
    if n.fract() != 0.0 || !(0.0..=f64::from(u32::MAX)).contains(&n) {
        return Err(bad(&format!("number {n} is not a u32")));
    }
    Ok(n as u32)
}

fn req_u32(v: &JsonValue, key: &str) -> Result<u32> {
    num_u32(
        v.get(key)
            .ok_or_else(|| bad(&format!("missing field '{key}'")))?,
    )
}

/// Nanosecond counters are written as strings for exact round-tripping.
fn req_ns(v: &JsonValue, key: &str) -> Result<u64> {
    req_str(v, key)?
        .parse()
        .map_err(|_| bad(&format!("malformed nanosecond field '{key}'")))
}

fn req_str_or_num_u64(v: &JsonValue, key: &str) -> Result<u64> {
    let v = v
        .get(key)
        .ok_or_else(|| bad(&format!("missing field '{key}'")))?;
    if let Some(s) = v.as_str() {
        return s.parse().map_err(|_| bad("malformed u64"));
    }
    num_u32(v).map(u64::from)
}

fn encode_string_map(s: &mut String, map: &BTreeMap<String, String>) {
    s.push('{');
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\":\"{}\"", json::escape(k), json::escape(v));
    }
    s.push('}');
}

fn decode_string_map(v: &JsonValue) -> Result<BTreeMap<String, String>> {
    let entries = v
        .get("meta")
        .and_then(JsonValue::entries)
        .ok_or_else(|| bad("missing meta object"))?;
    entries
        .iter()
        .map(|(k, v)| {
            v.as_str()
                .map(|s| (k.clone(), s.to_owned()))
                .ok_or_else(|| bad("meta values must be strings"))
        })
        .collect()
}

fn encode_state(s: &mut String, state: &StateMap) {
    s.push('{');
    for (i, (k, v)) in state.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\":", json::escape(k));
        encode_param(s, v);
    }
    s.push('}');
}

/// Type-tagged parameter encoding. Int and float payloads are carried as
/// strings so `i64` precision and non-finite floats (`NaN`, `inf`) survive
/// the reader's f64-only number representation.
fn encode_param(s: &mut String, v: &ParamValue) {
    match v {
        ParamValue::Str(x) => {
            let _ = write!(s, "{{\"s\":\"{}\"}}", json::escape(x));
        }
        ParamValue::Int(x) => {
            let _ = write!(s, "{{\"i\":\"{x}\"}}");
        }
        ParamValue::Float(x) => {
            let _ = write!(s, "{{\"f\":\"{x}\"}}");
        }
        ParamValue::Bool(x) => {
            let _ = write!(s, "{{\"b\":{x}}}");
        }
        ParamValue::List(items) => {
            s.push_str("{\"l\":[");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                encode_param(s, item);
            }
            s.push_str("]}");
        }
        ParamValue::Map(map) => {
            s.push_str("{\"m\":");
            encode_state(s, map);
            s.push('}');
        }
    }
}

fn decode_state(v: &JsonValue) -> Result<StateMap> {
    let entries = v.entries().ok_or_else(|| bad("state must be an object"))?;
    entries
        .iter()
        .map(|(k, v)| Ok((k.clone(), decode_param(v)?)))
        .collect()
}

fn decode_param(v: &JsonValue) -> Result<ParamValue> {
    let entries = v
        .entries()
        .ok_or_else(|| bad("parameter must be a tagged object"))?;
    let [(tag, inner)] = entries else {
        return Err(bad("parameter must have exactly one tag"));
    };
    match tag.as_str() {
        "s" => Ok(ParamValue::Str(
            inner
                .as_str()
                .ok_or_else(|| bad("'s' tag holds a string"))?
                .to_owned(),
        )),
        "i" => inner
            .as_str()
            .and_then(|s| s.parse().ok())
            .map(ParamValue::Int)
            .ok_or_else(|| bad("'i' tag holds a stringified i64")),
        "f" => inner
            .as_str()
            .and_then(|s| s.parse().ok())
            .map(ParamValue::Float)
            .ok_or_else(|| bad("'f' tag holds a stringified f64")),
        "b" => match inner {
            JsonValue::Bool(b) => Ok(ParamValue::Bool(*b)),
            _ => Err(bad("'b' tag holds a boolean")),
        },
        "l" => inner
            .as_array()
            .ok_or_else(|| bad("'l' tag holds an array"))?
            .iter()
            .map(decode_param)
            .collect::<Result<_>>()
            .map(ParamValue::List),
        "m" => decode_state(inner).map(ParamValue::Map),
        other => Err(bad(&format!("unknown parameter tag '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(ev: JournalEvent) {
        let enc = ev.encode();
        let back = JournalEvent::decode(&enc).unwrap_or_else(|e| panic!("{e}: {enc}"));
        assert_eq!(back, ev, "wire form: {enc}");
    }

    #[test]
    fn every_event_kind_round_trips() {
        let mut meta = BTreeMap::new();
        meta.insert("seed".into(), "42".into());
        meta.insert("plan \"x\"\n".into(), "with\tescapes".into());
        round_trip(JournalEvent::CampaignOpened {
            meta: meta.clone(),
            assignments: vec![(0, 1), (7, 2), (u32::MAX, 5)],
            concurrency: 4,
        });
        round_trip(JournalEvent::CampaignResumed { meta });
        round_trip(JournalEvent::InstanceAdmitted { node: 3, slot: 1 });
        round_trip(JournalEvent::InstanceFinished {
            node: 3,
            slot: 1,
            status: "rolled_back".into(),
            detail: Some("software_upgrade".into()),
        });
        round_trip(JournalEvent::InstanceFinished {
            node: 4,
            slot: 1,
            status: "completed".into(),
            detail: None,
        });
        round_trip(JournalEvent::BreakerTripped {
            block: "software_upgrade".into(),
            failure_rate: 0.8333333333333334,
            samples: 6,
        });
        round_trip(JournalEvent::CampaignClosed);
    }

    #[test]
    fn block_record_round_trips_with_full_state() {
        let mut state = StateMap::new();
        state.insert("node".into(), ParamValue::from("enb-1"));
        state.insert("count".into(), ParamValue::Int(i64::MIN));
        state.insert("big".into(), ParamValue::Int(i64::MAX));
        state.insert("rate".into(), ParamValue::Float(0.1 + 0.2));
        state.insert("nan".into(), ParamValue::Float(f64::NAN));
        state.insert("inf".into(), ParamValue::Float(f64::NEG_INFINITY));
        state.insert("ok".into(), ParamValue::Bool(true));
        state.insert(
            "list".into(),
            ParamValue::List(vec![ParamValue::Int(1), ParamValue::from("x")]),
        );
        let mut inner = StateMap::new();
        inner.insert("k".into(), ParamValue::from("v"));
        state.insert("map".into(), ParamValue::Map(inner));

        let ev = JournalEvent::BlockCompleted(BlockRecord {
            node: 12,
            slot: 2,
            block: "software_upgrade".into(),
            status: "recovered".into(),
            attempts: 3,
            duration_ns: u64::MAX,
            backoff_ns: 1_500_000_000,
            error: Some("injected fault: \"quoted\"".into()),
            backout: true,
            state,
        });
        // NaN breaks PartialEq, so compare the double round-trip wire form.
        let enc = ev.encode();
        let back = JournalEvent::decode(&enc).unwrap();
        assert_eq!(back.encode(), enc);
        let JournalEvent::BlockCompleted(r) = back else {
            panic!("kind changed");
        };
        assert_eq!(r.state["count"], ParamValue::Int(i64::MIN));
        assert_eq!(r.state["big"], ParamValue::Int(i64::MAX));
        assert_eq!(r.state["rate"], ParamValue::Float(0.1 + 0.2));
        assert!(matches!(r.state["nan"], ParamValue::Float(f) if f.is_nan()));
        assert_eq!(r.duration_ns, u64::MAX);
        assert!(r.backout);
    }

    #[test]
    fn int_and_float_stay_distinct() {
        let mut state = StateMap::new();
        state.insert("i".into(), ParamValue::Int(2));
        state.insert("f".into(), ParamValue::Float(2.0));
        let ev = JournalEvent::BlockCompleted(BlockRecord {
            node: 0,
            slot: 1,
            block: "b".into(),
            status: "success".into(),
            attempts: 1,
            duration_ns: 0,
            backoff_ns: 0,
            error: None,
            backout: false,
            state,
        });
        let JournalEvent::BlockCompleted(r) = JournalEvent::decode(&ev.encode()).unwrap() else {
            panic!()
        };
        assert_eq!(r.state["i"], ParamValue::Int(2));
        assert_eq!(r.state["f"], ParamValue::Float(2.0));
    }

    #[test]
    fn garbage_payloads_are_typed_errors() {
        for bad in [
            "not json",
            "{}",
            r#"{"ev":"wat"}"#,
            r#"{"ev":"instance_admitted","node":"x","slot":1}"#,
            r#"{"ev":"block_completed","node":1,"slot":1}"#,
        ] {
            assert!(
                matches!(
                    JournalEvent::decode(bad),
                    Err(CornetError::DataIntegrity(_) | CornetError::Parse(_))
                ),
                "payload {bad:?} must fail to decode"
            );
        }
    }
}
