//! The line/JSON wire protocol.
//!
//! One request per line, one JSON object per request, one JSON response
//! line per request. Success responses carry `"ok":true`; refusals and
//! failures carry `"ok":false` and a stable `"error"` label
//! (`bad_request`, `overloaded`, `quarantined`, `shutting_down`,
//! `unknown_job`), so clients can branch without parsing prose.
//!
//! Commands:
//!
//! | cmd        | request fields                                   | response |
//! |------------|--------------------------------------------------|----------|
//! | `ping`     | —                                                | `pong`   |
//! | `submit`   | `job` (spec object), `deadline_ms?`, `max_retries?` | `id` |
//! | `status`   | `id`                                             | `state`, `attempts`, `error_kind?` |
//! | `result`   | `id`                                             | `state`, `payload?` / `error_kind`,`error` |
//! | `cancel`   | `id`                                             | `cancelled` |
//! | `stats`    | —                                                | ops counters object |
//! | `metrics`  | `format?` (`"prom"` for text exposition)         | metrics-registry object, or `metrics` text |
//! | `trace-job`| `id`                                             | `spans` (JSONL span tree for the job) |
//! | `quantiles`| —                                                | `quantiles` (per-stage latency summaries) |
//! | `postmortem` | —                                              | `count`, `dump?` (latest flight-recorder dump) |
//! | `shutdown` | —                                                | `draining` (then the server drains and exits) |
//!
//! `trace-job`, `quantiles`, and `postmortem` are observability
//! commands.

use crate::engine::{Engine, SubmitError};
use crate::job::JobSpec;
use crate::json::{self, Json};

fn err_response(label: &str, detail: &str) -> String {
    let mut out = String::from("{\"ok\":false");
    json::push_key(&mut out, false, "error");
    json::push_str(&mut out, label);
    if !detail.is_empty() {
        json::push_key(&mut out, false, "detail");
        json::push_str(&mut out, detail);
    }
    out.push('}');
    out
}

/// Handle one request line, producing one response line (no trailing
/// newline). Never panics; malformed input becomes `bad_request`.
pub fn handle_line(engine: &Engine, line: &str) -> String {
    let line = line.trim();
    if line.is_empty() {
        return err_response("bad_request", "empty request");
    }
    let v = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return err_response("bad_request", &format!("unparseable request: {e}")),
    };
    let Some(cmd) = v.get("cmd").and_then(Json::as_str) else {
        return err_response("bad_request", "missing \"cmd\"");
    };
    match cmd {
        "ping" => "{\"ok\":true,\"pong\":true}".to_owned(),
        "submit" => {
            let Some(job_v) = v.get("job") else {
                return err_response("bad_request", "submit needs a \"job\" object");
            };
            let spec = match JobSpec::from_json(job_v) {
                Ok(s) => s,
                Err(e) => return err_response("bad_request", &e),
            };
            let deadline_ms = v.get("deadline_ms").and_then(Json::as_u64);
            let max_retries = v.get("max_retries").and_then(Json::as_u32);
            match engine.submit(spec, deadline_ms, max_retries) {
                Ok(id) => {
                    let mut out = String::from("{\"ok\":true");
                    json::push_key(&mut out, false, "id");
                    json::push_u64(&mut out, id);
                    out.push('}');
                    out
                }
                Err(SubmitError::Overloaded { depth }) => {
                    let mut out = String::from("{\"ok\":false,\"error\":\"overloaded\"");
                    json::push_key(&mut out, false, "queue_depth");
                    json::push_u64(&mut out, depth as u64);
                    out.push('}');
                    out
                }
                Err(SubmitError::Quarantined { failures }) => {
                    let mut out = String::from("{\"ok\":false,\"error\":\"quarantined\"");
                    json::push_key(&mut out, false, "failures");
                    json::push_u64(&mut out, failures as u64);
                    out.push('}');
                    out
                }
                Err(SubmitError::ShuttingDown) => err_response("shutting_down", ""),
            }
        }
        "status" | "result" => {
            let Some(id) = v.get("id").and_then(Json::as_u64) else {
                return err_response("bad_request", "missing \"id\"");
            };
            let Some(st) = engine.status(id) else {
                return err_response("unknown_job", "");
            };
            let mut out = String::from("{\"ok\":true");
            json::push_key(&mut out, false, "id");
            json::push_u64(&mut out, id);
            json::push_key(&mut out, false, "state");
            json::push_str(&mut out, st.state.label());
            json::push_key(&mut out, false, "attempts");
            json::push_u64(&mut out, st.attempts as u64);
            if st.recovered {
                out.push_str(",\"recovered\":true");
            }
            if let Some(kind) = &st.error_kind {
                json::push_key(&mut out, false, "error_kind");
                json::push_str(&mut out, kind);
            }
            if let Some(msg) = &st.error {
                json::push_key(&mut out, false, "error");
                json::push_str(&mut out, msg);
            }
            if cmd == "result" {
                if let Some(payload) = &st.payload {
                    json::push_key(&mut out, false, "payload");
                    json::push_str(&mut out, payload);
                }
            }
            out.push('}');
            out
        }
        "cancel" => {
            let Some(id) = v.get("id").and_then(Json::as_u64) else {
                return err_response("bad_request", "missing \"id\"");
            };
            let cancelled = engine.cancel(id);
            let mut out = String::from("{\"ok\":true,\"cancelled\":");
            out.push_str(if cancelled { "true}" } else { "false}" });
            out
        }
        "stats" => {
            let mut out = String::from("{\"ok\":true,\"stats\":");
            out.push_str(&engine.stats_json());
            out.push('}');
            out
        }
        "metrics" => {
            if v.get("format").and_then(Json::as_str) == Some("prom") {
                let mut out = String::from("{\"ok\":true,\"format\":\"prom\"");
                json::push_key(&mut out, false, "metrics");
                json::push_str(&mut out, &engine.metrics_prometheus());
                out.push('}');
                return out;
            }
            let mut out = String::from("{\"ok\":true,\"metrics\":");
            out.push_str(&engine.metrics_json());
            out.push('}');
            out
        }
        "trace-job" => {
            let Some(id) = v.get("id").and_then(Json::as_u64) else {
                return err_response("bad_request", "missing \"id\"");
            };
            let Some(spans) = engine.job_spans(id) else {
                return err_response("unknown_job", "");
            };
            let mut out = String::from("{\"ok\":true");
            json::push_key(&mut out, false, "id");
            json::push_u64(&mut out, id);
            json::push_key(&mut out, false, "spans");
            json::push_str(&mut out, &spans);
            out.push('}');
            out
        }
        "quantiles" => {
            let mut out = String::from("{\"ok\":true,\"quantiles\":");
            out.push_str(&engine.quantiles_json());
            out.push('}');
            out
        }
        "postmortem" => {
            let mut out = String::from("{\"ok\":true");
            json::push_key(&mut out, false, "count");
            json::push_u64(&mut out, engine.postmortem_count());
            if let Some(dump) = engine.last_postmortem() {
                json::push_key(&mut out, false, "dump");
                json::push_str(&mut out, &dump);
            }
            out.push('}');
            out
        }
        "shutdown" => {
            engine.request_shutdown();
            "{\"ok\":true,\"draining\":true}".to_owned()
        }
        other => err_response("bad_request", &format!("unknown cmd {other:?}")),
    }
}
