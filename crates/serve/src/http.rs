//! The serving HTTP surface, wired into the `ttg-obs` server.
//!
//! [`serve_routes`] builds a complete [`HttpRoutes`] for an engine:
//! the built-in observability routes read the resident runtime, and a
//! dynamic route adds the serving API:
//!
//! | route                 | method | body / response                       |
//! |-----------------------|--------|---------------------------------------|
//! | `/submit`             | POST   | `{"tenant","template","input"?}` → `{"id"}` |
//! | `/poll/<id>`          | GET    | `{"id","status","error"?}`            |
//! | `/result/<id>`        | GET    | `{"id","status","results":[...]}` (202 while running, 410 after eviction) |
//! | `/tenants.json`       | GET    | per-tenant counters + engine state    |
//! | `/instance/<id>/trace.json` | GET | SLO verdict + queue/execute/wire breakdown + span tree |
//! | `/slow.json`          | GET    | tail-sampled traces of SLO-breaching / failed instances |
//! | `/healthz`            | GET    | engine-aware: `draining` + `abandoned` ids + per-tenant `load` (queued/inflight), 503 once instances were abandoned; `degraded`/`recovering_peers`/`quarantined_instances` stay 200 while a peer's rejoin is pending |
//!
//! Error responses are `{"error": "<message>"}` with the status from
//! [`ServeError::http_status`].

use crate::{ServeEngine, ServeError};
use serde_json::Value;
use std::sync::Arc;
use ttg_obs::{HealthVerdict, HttpRequest, HttpResponse, HttpRoutes};

fn error_response(err: &ServeError) -> HttpResponse {
    let body = Value::Object(vec![("error".to_string(), Value::String(err.to_string()))]);
    HttpResponse::json(err.http_status(), serde_json::to_string(&body).unwrap())
}

fn submit(engine: &ServeEngine, req: &HttpRequest) -> HttpResponse {
    let parsed: Result<Value, _> = match req.body_str() {
        Some(s) if !s.trim().is_empty() => serde_json::from_str(s),
        _ => {
            return error_response(&ServeError::InvalidRequest(
                "empty body; expected a JSON object".to_string(),
            ))
        }
    };
    let body = match parsed {
        Ok(v) => v,
        Err(e) => return error_response(&ServeError::InvalidRequest(format!("bad JSON: {e:?}"))),
    };
    let tenant = match body.get("tenant").and_then(Value::as_str) {
        Some(t) if !t.is_empty() => t.to_string(),
        _ => {
            return error_response(&ServeError::InvalidRequest(
                "missing string field 'tenant'".to_string(),
            ))
        }
    };
    let template = match body.get("template").and_then(Value::as_str) {
        Some(t) => t.to_string(),
        None => {
            return error_response(&ServeError::InvalidRequest(
                "missing string field 'template'".to_string(),
            ))
        }
    };
    let input = body.get("input").cloned().unwrap_or(Value::Null);
    match engine.submit(&tenant, &template, input) {
        Ok(id) => HttpResponse::json(
            200,
            serde_json::to_string(&Value::Object(vec![("id".to_string(), Value::UInt(id))]))
                .unwrap(),
        ),
        Err(e) => error_response(&e),
    }
}

fn parse_id(path: &str, prefix: &str) -> Option<u64> {
    path.strip_prefix(prefix)?.parse().ok()
}

/// `/instance/<id>/trace.json` → `<id>`.
fn parse_trace_id(path: &str) -> Option<u64> {
    path.strip_prefix("/instance/")?
        .strip_suffix("/trace.json")?
        .parse()
        .ok()
}

fn trace(engine: &ServeEngine, id: u64) -> HttpResponse {
    match engine.trace_json(id) {
        Ok(tree) => HttpResponse::json(200, serde_json::to_string(&tree).unwrap()),
        Err(e) => error_response(&e),
    }
}

fn poll(engine: &ServeEngine, id: u64) -> HttpResponse {
    match engine.poll(id) {
        Ok(status) => {
            let mut fields = vec![
                ("id".to_string(), Value::UInt(id)),
                (
                    "status".to_string(),
                    Value::String(status.wire_name().to_string()),
                ),
            ];
            if let Ok((tenant, template)) = engine.instance_info(id) {
                fields.push(("tenant".to_string(), Value::String(tenant)));
                fields.push(("template".to_string(), Value::String(template)));
            }
            if let crate::InstanceStatus::Failed(msg) = &status {
                fields.push(("error".to_string(), Value::String(msg.clone())));
            }
            HttpResponse::json(200, serde_json::to_string(&Value::Object(fields)).unwrap())
        }
        Err(e) => error_response(&e),
    }
}

fn result(engine: &ServeEngine, id: u64) -> HttpResponse {
    match engine.result(id) {
        Ok(view) => {
            let results = Value::Array(
                view.results
                    .into_iter()
                    .map(|(name, value)| {
                        Value::Object(vec![
                            ("name".to_string(), Value::String(name)),
                            ("value".to_string(), value),
                        ])
                    })
                    .collect(),
            );
            let mut fields = vec![
                ("id".to_string(), Value::UInt(id)),
                (
                    "status".to_string(),
                    Value::String(view.status.wire_name().to_string()),
                ),
                ("results".to_string(), results),
            ];
            if let crate::InstanceStatus::Failed(msg) = &view.status {
                fields.push(("error".to_string(), Value::String(msg.clone())));
            }
            HttpResponse::json(200, serde_json::to_string(&Value::Object(fields)).unwrap())
        }
        Err(e) => error_response(&e),
    }
}

/// Builds the complete route table for `engine`: serving API (dynamic)
/// plus the built-in observability routes reading the resident runtime
/// — pass straight to [`ttg_obs::ObsHttpServer::serve`].
pub fn serve_routes(engine: Arc<ServeEngine>) -> HttpRoutes {
    let dyn_engine = Arc::clone(&engine);
    let prom_engine = Arc::clone(&engine);
    let json_engine = Arc::clone(&engine);
    let trace_engine = Arc::clone(&engine);
    let health_engine = Arc::clone(&engine);
    HttpRoutes {
        metrics_prometheus: Box::new(move || {
            let mut snap = ttg_obs::runtime_metrics(prom_engine.runtime());
            prom_engine.metrics_into(&mut snap);
            snap.to_prometheus("ttg")
        }),
        metrics_json: Box::new(move || {
            let mut snap = ttg_obs::runtime_metrics(json_engine.runtime());
            json_engine.metrics_into(&mut snap);
            snap.to_json()
        }),
        timeseries_json: Box::new(|| "{\"points\":[]}".to_string()),
        trace_json: Box::new(move || {
            let rt = trace_engine.runtime();
            let base = rt.trace_wall_anchor_ns().unwrap_or(0);
            ttg_obs::runtime_trace(rt, &rt.peek_events(), base)
                .unwrap_or_else(|| "{\"traceEvents\":[]}".to_string())
        }),
        healthz: Box::new(move || {
            let rt_health = health_engine.runtime().health();
            let draining = health_engine.is_draining();
            let abandoned = health_engine.abandoned();
            let healthy = rt_health.healthy && abandoned.is_empty();
            let body = Value::Object(vec![
                (
                    "status".to_string(),
                    Value::String(
                        if !healthy {
                            "unhealthy"
                        } else if draining {
                            "draining"
                        } else if rt_health.degraded {
                            // Degraded is still 200: a peer is inside
                            // its recovery window (or instances sit
                            // quarantined), and the rank expects to
                            // heal on its own — an orchestrator must
                            // not kill it for that.
                            "degraded"
                        } else {
                            "ok"
                        }
                        .to_string(),
                    ),
                ),
                ("runtime_ok".to_string(), Value::Bool(rt_health.healthy)),
                ("degraded".to_string(), Value::Bool(rt_health.degraded)),
                (
                    "recovering_peers".to_string(),
                    Value::Array(
                        rt_health
                            .recovering_peers
                            .iter()
                            .map(|&r| Value::UInt(r as u64))
                            .collect(),
                    ),
                ),
                (
                    "quarantined_instances".to_string(),
                    Value::UInt(rt_health.quarantined_instances),
                ),
                ("draining".to_string(), Value::Bool(draining)),
                (
                    "abandoned".to_string(),
                    Value::Array(abandoned.into_iter().map(Value::UInt).collect()),
                ),
                (
                    "load".to_string(),
                    Value::Object(
                        health_engine
                            .tenant_load()
                            .into_iter()
                            .map(|(tenant, queued, inflight)| {
                                (
                                    tenant,
                                    Value::Object(vec![
                                        ("queued".to_string(), Value::UInt(queued as u64)),
                                        ("inflight".to_string(), Value::UInt(inflight as u64)),
                                    ]),
                                )
                            })
                            .collect(),
                    ),
                ),
            ]);
            HealthVerdict {
                healthy,
                body: serde_json::to_string(&body).unwrap(),
            }
        }),
        dynamic: Some(Box::new(move |req: &HttpRequest| {
            match (req.method.as_str(), req.path.as_str()) {
                ("POST", "/submit") => Some(submit(&dyn_engine, req)),
                ("GET", "/tenants.json") => Some(HttpResponse::json(
                    200,
                    serde_json::to_string(&dyn_engine.tenants_json()).unwrap(),
                )),
                ("GET", "/slow.json") => Some(HttpResponse::json(
                    200,
                    serde_json::to_string(&dyn_engine.slow_json()).unwrap(),
                )),
                ("GET", path) => {
                    if let Some(id) = parse_id(path, "/poll/") {
                        Some(poll(&dyn_engine, id))
                    } else if let Some(id) = parse_id(path, "/result/") {
                        Some(result(&dyn_engine, id))
                    } else {
                        parse_trace_id(path).map(|id| trace(&dyn_engine, id))
                    }
                }
                _ => None,
            }
        })),
    }
}
