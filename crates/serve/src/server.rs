//! The multi-tenant query server: generations + engines + admission.
//!
//! A [`Server`] owns the federation's [`GenerationStore`] and builds one
//! `Arc<QueryEngine>` per generation on demand. Readers pin the current
//! generation and run against its engine — lock-free with respect to
//! writers, which clone-and-install the next generation through
//! [`GenerationStore::mutate`]. The last few generations' engines stay
//! cached so readers that pinned just before an install still hit a
//! warm engine. Every engine is a [`QueryEngine::successor`] of the
//! first, so the whole lineage shares one planning context (closure
//! cache, program summary), result cache and reference-evaluator state:
//! an install re-derives no program analysis and copies no
//! materialization. A query the result cache holds is answered by a
//! lookup, without planning; its `plan_us` is 0 and the slow log and
//! `serve.request.done` carry the fingerprint of the plan that filled
//! the entry.
//!
//! All request handling goes through [`Server::handle`] (or
//! [`Server::handle_line`] for raw JSONL), which is `&self` — the
//! serving loop and the bench driver call it from many threads on one
//! `Arc<Server>`.

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::protocol::{error_response, parse_envelope, ErrorCode, Request};
use crate::slowlog::{SlowLog, SlowLogConfig, SlowRecord};
use crate::tenant::{QueryPhases, TenantRegistry, TenantSloSnapshot, TenantTotals};
use federation::fsm::{Fsm, GlobalSchema, IntegrationStrategy};
use federation::mapping::MetaRegistry;
use federation::{FaultPlan, Generation, GenerationStore, RetryPolicy};
use obs::report as span_names;
use oo_model::{InstanceStore, Schema};
use qp::{json_string, value_json, QpError, QueryAnswer, QueryEngine};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Server construction knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    pub admission: AdmissionConfig,
    /// Generations whose engines stay cached (≥ 1). Readers pinned to an
    /// evicted generation transparently rebuild its engine.
    pub engine_cache: usize,
    /// Slow-query log threshold and buffer bound (off by default).
    pub slow_log: SlowLogConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            admission: AdmissionConfig::default(),
            engine_cache: 2,
            slow_log: SlowLogConfig::default(),
        }
    }
}

/// One handled request: the response line plus what the session loop
/// needs to know about it.
#[derive(Debug, Clone)]
pub struct Handled {
    pub response: String,
    pub shed: bool,
    pub shutdown: bool,
}

impl Handled {
    fn reply(response: String) -> Self {
        Handled {
            response,
            shed: false,
            shutdown: false,
        }
    }
}

pub struct Server {
    gens: GenerationStore,
    /// `(generation number, engine)`, most recent last. Never empty: it
    /// starts with generation 0's engine, and every later engine is a
    /// successor of a cached one.
    engines: Mutex<Vec<(u64, Arc<QueryEngine>)>>,
    fault: Mutex<Option<(FaultPlan, RetryPolicy)>>,
    admission: AdmissionController,
    tenants: TenantRegistry,
    slow_log: SlowLog,
    /// Next server-assigned request id (`r1`, `r2`, …) for requests that
    /// didn't bring their own.
    next_id: AtomicU64,
    cfg: ServeConfig,
}

impl Server {
    /// Build a server over explicit federation parts (the CLI path).
    pub fn new(
        global: GlobalSchema,
        components: Vec<(Schema, InstanceStore)>,
        meta: MetaRegistry,
        cfg: ServeConfig,
    ) -> Self {
        let gens = GenerationStore::new(components);
        let mut engine = QueryEngine::from_parts_arc(global, gens.pin().components(), meta);
        // One result cache for the whole lineage. Entries carry their
        // component footprint + version vector, so answers survive
        // installs that never touch the components a plan reads.
        engine.set_shared_result_cache(Arc::new(qp::SharedResultCache::new(
            256,
            qp::DEFAULT_SHARDS,
        )));
        Server {
            gens,
            engines: Mutex::new(vec![(0, Arc::new(engine))]),
            fault: Mutex::new(None),
            admission: AdmissionController::new(cfg.admission),
            tenants: TenantRegistry::new(),
            slow_log: SlowLog::new(cfg.slow_log),
            next_id: AtomicU64::new(1),
            cfg,
        }
    }

    /// Integrate an FSM's components and serve the result — the
    /// serving-layer analogue of `QueryEngine::connect`.
    pub fn connect(fsm: &Fsm, strategy: IntegrationStrategy, cfg: ServeConfig) -> qp::Result<Self> {
        let global = fsm.integrate(strategy)?;
        let components: Vec<(Schema, InstanceStore)> = fsm
            .components()
            .iter()
            .map(|c| (c.schema.clone(), c.store.clone()))
            .collect();
        Ok(Server::new(global, components, fsm.meta.clone(), cfg))
    }

    /// Install a fault plan on every engine — cached ones immediately,
    /// future generations' as they are built.
    pub fn set_fault_plan(&self, plan: FaultPlan, policy: RetryPolicy) {
        for (_, engine) in self.engines.lock().unwrap().iter() {
            engine.apply_fault_plan(plan.clone(), policy);
        }
        *self.fault.lock().unwrap() = Some((plan, policy));
    }

    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    pub fn tenants(&self) -> &TenantRegistry {
        &self.tenants
    }

    pub fn slow_log(&self) -> &SlowLog {
        &self.slow_log
    }

    /// The current generation number (mutations advance it).
    pub fn generation(&self) -> u64 {
        self.gens.current_number()
    }

    /// Pin the current generation and return its engine. The pair stays
    /// coherent even if a writer installs meanwhile — the engine answers
    /// for exactly the pinned snapshot.
    pub fn pinned_engine(&self) -> (Arc<Generation>, Arc<QueryEngine>) {
        let gen = self.gens.pin();
        let engine = self.engine_for(&gen);
        (gen, engine)
    }

    fn engine_for(&self, gen: &Generation) -> Arc<QueryEngine> {
        let mut engines = self.engines.lock().unwrap();
        if let Some((_, e)) = engines.iter().find(|(n, _)| *n == gen.number()) {
            return Arc::clone(e);
        }
        // Any cached engine serves as the predecessor: they all share the
        // same lineage state.
        let (_, prev) = engines.last().expect("engine cache is never empty");
        let engine = prev.successor(gen.components());
        if let Some((plan, policy)) = self.fault.lock().unwrap().as_ref() {
            engine.apply_fault_plan(plan.clone(), *policy);
        }
        let engine = Arc::new(engine);
        engines.push((gen.number(), Arc::clone(&engine)));
        let excess = engines.len().saturating_sub(self.cfg.engine_cache.max(1));
        let evicted: Vec<_> = engines.drain(..excess).collect();
        // An evicted engine may hold the last reference to its
        // generation; free that after unlocking, not under the lock
        // every reader's pin takes.
        drop(engines);
        drop(evicted);
        engine
    }

    /// The next server-assigned request id.
    fn fresh_id(&self) -> String {
        format!("r{}", self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Handle one raw JSONL line. A client-supplied `"id"` becomes the
    /// request id; otherwise the server assigns a sequential one. Even
    /// unparseable lines get an id, so every response carries one.
    pub fn handle_line(&self, line: &str) -> Handled {
        let parsed = {
            let _span = obs::span!("serve.parse", "serve");
            parse_envelope(line)
        };
        match parsed {
            Ok(env) => {
                let rid = env.id.unwrap_or_else(|| self.fresh_id());
                self.handle_request(&rid, env.req)
            }
            Err(e) => {
                let rid = self.fresh_id();
                Handled::reply(error_response(&rid, None, ErrorCode::Parse, &e))
            }
        }
    }

    /// Answer a line that cannot be a request (too long, not UTF-8) with a
    /// `parse` error under a fresh server-assigned id.
    pub fn parse_error(&self, message: &str) -> Handled {
        Handled::reply(error_response(
            &self.fresh_id(),
            None,
            ErrorCode::Parse,
            message,
        ))
    }

    /// Handle one parsed request under a fresh server-assigned id.
    pub fn handle(&self, req: Request) -> Handled {
        let rid = self.fresh_id();
        self.handle_request(&rid, req)
    }

    /// Handle one parsed request under an explicit request id. The whole
    /// handling window lives inside a `serve.request` span whose detail
    /// carries the id — `fedoo obs report` joins response lines to their
    /// span trees through it.
    pub fn handle_request(&self, rid: &str, req: Request) -> Handled {
        let _span = obs::span!(
            span_names::REQUEST_SPAN,
            "serve",
            "id={rid} tenant={} op={}",
            req.tenant().unwrap_or("-"),
            op_name(&req)
        );
        match req {
            Request::Query {
                tenant,
                text,
                strategy,
            } => self.handle_query(rid, &tenant, &text, strategy),
            Request::Explain { tenant, text } => self.handle_explain(rid, &tenant, &text),
            Request::Mutate {
                tenant,
                component,
                class,
                set,
            } => self.handle_mutate(rid, &tenant, component, &class, set),
            Request::Stats { tenant } => Handled::reply(self.render_stats(rid, tenant.as_deref())),
            Request::Health => Handled::reply(self.render_health(rid)),
            Request::Ping => Handled::reply(format!(
                "{{\"ok\":true,\"request_id\":{},\"op\":\"ping\",\"generation\":{}}}",
                json_string(rid),
                self.generation()
            )),
            Request::Hold { tenant, slots } => {
                let held = self.admission.hold(&tenant, slots);
                Handled::reply(format!(
                    "{{\"ok\":true,\"request_id\":{},\"op\":\"hold\",\"tenant\":{},\"held\":{held}}}",
                    json_string(rid),
                    json_string(&tenant)
                ))
            }
            Request::Release { tenant } => {
                let released = self.admission.release(&tenant);
                Handled::reply(format!(
                    "{{\"ok\":true,\"request_id\":{},\"op\":\"release\",\"tenant\":{},\"released\":{released}}}",
                    json_string(rid),
                    json_string(&tenant)
                ))
            }
            Request::Shutdown => Handled {
                response: format!(
                    "{{\"ok\":true,\"request_id\":{},\"op\":\"shutdown\"}}",
                    json_string(rid)
                ),
                shed: false,
                shutdown: true,
            },
        }
    }

    fn handle_query(
        &self,
        rid: &str,
        tenant: &str,
        text: &str,
        strategy: qp::QueryStrategy,
    ) -> Handled {
        let start = Instant::now();
        let slot = {
            let _queue = obs::span!(span_names::PHASE_QUEUE, "serve", "tenant={tenant}");
            self.admission.admit(tenant)
        };
        let queue_us = start.elapsed().as_micros() as u64;
        let Some(_slot) = slot else {
            self.tenants.record_shed(tenant);
            return Handled {
                response: error_response(
                    rid,
                    Some("query"),
                    ErrorCode::Shed,
                    &format!("tenant `{tenant}` is at its in-flight bound and the queue is full"),
                ),
                shed: true,
                shutdown: false,
            };
        };
        let (gen, engine) = {
            // First pin of a generation builds the engine (including its
            // planner-diagnostics pass) — a named phase, not `other`.
            let _pin = obs::span!(span_names::PHASE_PIN, "serve", "tenant={tenant}");
            self.pinned_engine()
        };
        let result = engine.ask_text(text, strategy);
        match result {
            Ok(answer) => {
                let rows = answer.rows.len() as u64;
                let degraded = !answer.completeness.is_complete();
                // The respond phase covers rendering plus the per-request
                // bookkeeping (tenant accounting, done-instant, slow-log
                // append), so request wall time stays attributed.
                let _respond = obs::span!(span_names::PHASE_RESPOND, "serve");
                let response = render_answer(rid, &answer, gen.number());
                let phases = QueryPhases {
                    queue_us,
                    plan_us: answer.stats.plan_micros,
                    cache_us: answer.stats.cache_micros,
                    exec_us: answer.stats.exec_micros,
                    total_us: start.elapsed().as_micros() as u64,
                };
                self.tenants
                    .record_query(tenant, &answer.stats, rows, degraded, phases);
                obs::instant!(
                    span_names::DONE_INSTANT,
                    "serve",
                    "id={rid} fp={} rows={rows} cache={} degraded={}",
                    answer.plan_fp,
                    if answer.from_cache { "hit" } else { "miss" },
                    u8::from(degraded)
                );
                if self.slow_log.qualifies(phases.total_us) {
                    self.slow_log.record(&SlowRecord {
                        request_id: rid.to_string(),
                        tenant: tenant.to_string(),
                        generation: gen.number(),
                        fp: answer.plan_fp.clone(),
                        rows,
                        phases,
                        degraded,
                        from_cache: answer.from_cache,
                        footprint_save: answer.stats.footprint_saves > 0,
                    });
                }
                // Releasing the pinned snapshot may free the last copy of
                // a partition: bookkeeping of this request too.
                drop((answer, gen, engine));
                Handled::reply(response)
            }
            Err(e) => {
                self.tenants.record_error(tenant);
                let (code, msg) = classify(&e);
                Handled::reply(error_response(rid, Some("query"), code, &msg))
            }
        }
    }

    fn handle_explain(&self, rid: &str, tenant: &str, text: &str) -> Handled {
        let (gen, engine) = self.pinned_engine();
        match engine.explain(text) {
            Ok(plan) => Handled::reply(format!(
                "{{\"ok\":true,\"request_id\":{},\"op\":\"explain\",\"generation\":{},\"plan\":{}}}",
                json_string(rid),
                gen.number(),
                plan.render_json()
            )),
            Err(e) => {
                self.tenants.record_error(tenant);
                let (code, msg) = classify(&e);
                Handled::reply(error_response(rid, Some("explain"), code, &msg))
            }
        }
    }

    fn handle_mutate(
        &self,
        rid: &str,
        tenant: &str,
        component: usize,
        class: &str,
        set: Vec<(String, oo_model::Value)>,
    ) -> Handled {
        let result = self
            .gens
            .mutate(|components| match components.get_mut(component) {
                None => Err(format!(
                    "component index {component} out of range (federation has {})",
                    components.len()
                )),
                Some((schema, store)) => store
                    .create(schema, class, |mut o| {
                        for (k, v) in &set {
                            o = o.with_attr(k.clone(), v.clone());
                        }
                        o
                    })
                    .map_err(|e| e.to_string()),
            });
        match result {
            (Ok(oid), generation) => {
                self.tenants.record_mutation(tenant);
                if obs::enabled() {
                    obs::gauge_set("fedoo_serve_generation", generation as i64);
                }
                Handled::reply(format!(
                    "{{\"ok\":true,\"request_id\":{},\"op\":\"mutate\",\"generation\":{generation},\"oid\":{}}}",
                    json_string(rid),
                    json_string(&oid.to_string())
                ))
            }
            (Err(msg), _) => {
                self.tenants.record_error(tenant);
                Handled::reply(error_response(
                    rid,
                    Some("mutate"),
                    ErrorCode::Internal,
                    &msg,
                ))
            }
        }
    }

    fn render_stats(&self, rid: &str, tenant: Option<&str>) -> String {
        let adm = self.admission.snapshot();
        let totals: BTreeMap<String, TenantTotals> = match tenant {
            Some(t) => [(t.to_string(), self.tenants.tenant(t))].into(),
            None => self.tenants.snapshot(),
        };
        let mut out = format!(
            "{{\"ok\":true,\"request_id\":{},\"op\":\"stats\",\"generation\":{},\"admission\":{{\"admitted\":{},\"sheds\":{},\"queued\":{},\"inflight\":{{",
            json_string(rid),
            self.generation(),
            adm.admitted,
            adm.sheds,
            adm.queued,
        );
        for (i, (name, n)) in adm.inflight.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{n}", json_string(name)));
        }
        out.push_str("}},\"tenants\":{");
        for (i, (name, t)) in totals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let slo = self.tenants.slo(name);
            out.push_str(&format!(
                "{}:{{\"queries\":{},\"rows\":{},\"cache_hits\":{},\"degraded\":{},\"shed\":{},\"errors\":{},\"mutations\":{},\"micros\":{},\"slo\":{}}}",
                json_string(name),
                t.queries,
                t.rows,
                t.cache_hits,
                t.degraded,
                t.shed,
                t.errors,
                t.mutations,
                t.micros,
                render_slo(&slo),
            ));
        }
        out.push_str("}}");
        out
    }

    fn render_health(&self, rid: &str) -> String {
        let (gen, engine) = self.pinned_engine();
        let mut out = format!(
            "{{\"ok\":true,\"request_id\":{},\"op\":\"health\",\"generation\":{},\"components\":[",
            json_string(rid),
            gen.number()
        );
        let health = engine.fault_health();
        if health.is_empty() {
            // No fault session: every component is trivially healthy.
            for (i, (schema, _)) in gen.components().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"component\":{},\"state\":\"closed\"}}",
                    json_string(&schema.name.0)
                ));
            }
        } else {
            for (i, h) in health.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"component\":{},\"state\":{},\"trips\":{},\"retries\":{}}}",
                    json_string(&h.component),
                    json_string(&h.state.to_string()),
                    h.trips,
                    h.retries,
                ));
            }
        }
        out.push_str("]}");
        out
    }
}

fn op_name(req: &Request) -> &'static str {
    match req {
        Request::Query { .. } => "query",
        Request::Explain { .. } => "explain",
        Request::Mutate { .. } => "mutate",
        Request::Stats { .. } => "stats",
        Request::Health => "health",
        Request::Ping => "ping",
        Request::Hold { .. } => "hold",
        Request::Release { .. } => "release",
        Request::Shutdown => "shutdown",
    }
}

/// Render one tenant's SLO quantiles: per phase, the p50/p95/p99 bucket
/// upper bounds in microseconds (log₂ resolution — see
/// `HistogramSnapshot::quantile`).
fn render_slo(slo: &TenantSloSnapshot) -> String {
    let phase = |name: &str, h: &obs::HistogramSnapshot| {
        format!(
            "{}:{{\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
            json_string(name),
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99),
        )
    };
    format!(
        "{{{},{},{},{}}}",
        phase("queue", &slo.queue),
        phase("plan", &slo.plan),
        phase("execute", &slo.execute),
        phase("total", &slo.total),
    )
}

fn classify(e: &QpError) -> (ErrorCode, String) {
    match e {
        QpError::Parse(p) => (ErrorCode::Parse, p.to_string()),
        QpError::Rejected(r) => (ErrorCode::Rejected, r.to_string()),
        QpError::Unavailable(m) => (ErrorCode::Unavailable, m.to_string()),
        QpError::Plan(m) => (ErrorCode::Internal, m.to_string()),
        QpError::Fed(f) => (ErrorCode::Internal, f.to_string()),
    }
}

fn render_answer(rid: &str, answer: &QueryAnswer, generation: u64) -> String {
    let mut out = format!(
        "{{\"ok\":true,\"request_id\":{},\"op\":\"query\",\"generation\":{generation},\"vars\":[{}],\"rows\":[",
        json_string(rid),
        answer
            .vars
            .iter()
            .map(|v| json_string(v))
            .collect::<Vec<_>>()
            .join(",")
    );
    for (i, row) in answer.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&value_json(v));
        }
        out.push(']');
    }
    out.push_str(&format!(
        "],\"count\":{},\"from_cache\":{},\"complete\":{}",
        answer.rows.len(),
        answer.from_cache,
        answer.completeness.is_complete(),
    ));
    if !answer.completeness.is_complete() {
        out.push_str(&format!(
            ",\"missing_components\":[{}],\"affected_classes\":[{}]",
            answer
                .completeness
                .missing_components
                .iter()
                .map(|s| json_string(s))
                .collect::<Vec<_>>()
                .join(","),
            answer
                .completeness
                .affected_classes
                .iter()
                .map(|s| json_string(s))
                .collect::<Vec<_>>()
                .join(","),
        ));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{library_server, merged_class};

    fn query_line(tenant: &str, class: &str) -> String {
        format!(
            "{{\"op\":\"query\",\"tenant\":{},\"q\":\"?- <X: {class} | title: T>.\"}}",
            json_string(tenant)
        )
    }

    #[test]
    fn query_mutate_query_sees_new_generation() {
        let server = library_server(ServeConfig::default());
        let g = merged_class(&server);
        let before = server.handle_line(&query_line("t1", &g));
        assert!(
            before.response.contains("\"generation\":0"),
            "{}",
            before.response
        );
        assert!(
            before.response.contains("\"count\":3"),
            "{}",
            before.response
        );
        let m = server.handle_line(
            "{\"op\":\"mutate\",\"tenant\":\"t1\",\"component\":0,\"class\":\"book\",\
             \"set\":{\"title\":\"Proofs\",\"year\":2001}}",
        );
        assert!(m.response.contains("\"ok\":true"), "{}", m.response);
        assert!(m.response.contains("\"generation\":1"), "{}", m.response);
        let after = server.handle_line(&query_line("t1", &g));
        assert!(
            after.response.contains("\"generation\":1"),
            "{}",
            after.response
        );
        assert!(after.response.contains("\"count\":4"), "{}", after.response);
        assert!(after.response.contains("Proofs"), "{}", after.response);
    }

    #[test]
    fn pinned_engine_is_isolated_from_later_installs() {
        let server = library_server(ServeConfig::default());
        let g = merged_class(&server);
        let text = format!("?- <X: {g} | title: T>.");
        let (gen0, engine0) = server.pinned_engine();
        server.handle_line(
            "{\"op\":\"mutate\",\"component\":0,\"class\":\"book\",\"set\":{\"title\":\"New\"}}",
        );
        // The old pin answers with the old extent; the new one sees the write.
        let old = engine0.ask_text(&text, qp::QueryStrategy::Planned).unwrap();
        assert_eq!(old.rows.len(), 3);
        assert_eq!(gen0.number(), 0);
        let (gen1, engine1) = server.pinned_engine();
        assert_eq!(gen1.number(), 1);
        let new = engine1.ask_text(&text, qp::QueryStrategy::Planned).unwrap();
        assert_eq!(new.rows.len(), 4);
    }

    #[test]
    fn engines_share_closure_cache_and_summary_across_generations() {
        let server = library_server(ServeConfig::default());
        let (_, e0) = server.pinned_engine();
        server.handle_line(
            "{\"op\":\"mutate\",\"component\":0,\"class\":\"book\",\"set\":{\"title\":\"New\"}}",
        );
        let (_, e1) = server.pinned_engine();
        assert!(
            Arc::ptr_eq(&e0.summary(), &e1.summary()),
            "summary is shared"
        );
        assert!(Arc::ptr_eq(&e0.closure_cache(), &e1.closure_cache()));
    }

    #[test]
    fn bad_requests_map_to_protocol_codes() {
        let server = library_server(ServeConfig::default());
        let r = server.handle_line("nonsense").response;
        assert!(r.contains("\"code\":\"parse\""), "{r}");
        // An unknown attribute on a real class is a deny diagnostic.
        let g = merged_class(&server);
        let r = server
            .handle_line(&format!(
                "{{\"op\":\"query\",\"q\":\"?- <X: {g} | pages: P>.\"}}"
            ))
            .response;
        assert!(r.contains("\"code\":\"rejected\""), "{r}");
        let r = server
            .handle_line("{\"op\":\"mutate\",\"component\":9,\"class\":\"c\"}")
            .response;
        assert!(r.contains("\"code\":\"internal\""), "{r}");
        assert!(r.contains("out of range"), "{r}");
        // The unparseable line has no attributable tenant; the other two
        // failures land on the default tenant.
        assert_eq!(server.tenants().tenant("default").errors, 2);
    }

    #[test]
    fn deeply_nested_line_is_a_parse_error() {
        let server = library_server(ServeConfig::default());
        let r = server.handle_line(&"[".repeat(100_000)).response;
        assert!(r.contains("\"code\":\"parse\""), "{r}");
        assert!(r.contains("nesting deeper"), "{r}");
        // The server keeps serving after the hostile line.
        let r = server.handle_line("{\"op\":\"ping\"}").response;
        assert!(r.contains("\"ok\":true"), "{r}");
    }

    #[test]
    fn stats_and_health_render_state() {
        // Zero queue depth: a saturated tenant sheds instead of queueing
        // (queueing would block this single-threaded test forever).
        let server = library_server(ServeConfig {
            admission: AdmissionConfig {
                max_inflight_per_tenant: 4,
                max_queue: 0,
            },
            ..ServeConfig::default()
        });
        let g = merged_class(&server);
        server.handle_line(&query_line("t1", &g));
        server.handle_line("{\"op\":\"hold\",\"tenant\":\"t2\",\"slots\":4}");
        let shed = server.handle_line(&query_line("t2", &g));
        assert!(shed.shed);
        let stats = server.handle_line("{\"op\":\"stats\"}").response;
        assert!(stats.contains("\"t1\":{\"queries\":1"), "{stats}");
        assert!(stats.contains("\"sheds\":1"), "{stats}");
        let t2 = server
            .handle_line("{\"op\":\"stats\",\"tenant\":\"t2\"}")
            .response;
        assert!(t2.contains("\"shed\":1"), "{t2}");
        assert!(!t2.contains("\"t1\""), "{t2}");
        let health = server.handle_line("{\"op\":\"health\"}").response;
        assert!(health.contains("\"component\":\"S1\""), "{health}");
        assert!(health.contains("\"state\":\"closed\""), "{health}");
    }

    #[test]
    fn responses_echo_client_or_server_request_ids() {
        let server = library_server(ServeConfig::default());
        let r = server
            .handle_line("{\"op\":\"ping\",\"id\":\"my-req\"}")
            .response;
        assert!(r.contains("\"request_id\":\"my-req\""), "{r}");
        // No id → server-assigned sequential ids, including for lines
        // that never parse (the client still needs something to log).
        let r = server.handle_line("{\"op\":\"ping\"}").response;
        assert!(r.contains("\"request_id\":\"r1\""), "{r}");
        let r = server.handle_line("garbage").response;
        assert!(r.contains("\"request_id\":\"r2\""), "{r}");
        // Hostile ids are echoed in sanitized form.
        let r = server
            .handle_line("{\"op\":\"ping\",\"id\":\"a b\"}")
            .response;
        assert!(r.contains("\"request_id\":\"a_b\""), "{r}");
    }

    #[test]
    fn slow_log_threshold_zero_records_every_query() {
        let server = library_server(ServeConfig {
            slow_log: crate::slowlog::SlowLogConfig {
                threshold_us: Some(0),
                capacity: 8,
            },
            ..ServeConfig::default()
        });
        let g = merged_class(&server);
        server.handle_line(&format!(
            "{{\"op\":\"query\",\"tenant\":\"t1\",\"id\":\"q1\",\"q\":\"?- <X: {g} | title: T>.\"}}",
        ));
        server.handle_line(&query_line("t1", &g));
        // Sheds and non-queries never reach the log.
        server.handle_line("{\"op\":\"ping\"}");
        let (lines, dropped) = server.slow_log().drain();
        assert_eq!((lines.len(), dropped), (2, 0));
        assert!(lines[0].contains("\"request_id\":\"q1\""), "{}", lines[0]);
        assert!(lines[0].contains("\"from_cache\":false"), "{}", lines[0]);
        assert!(lines[1].contains("\"from_cache\":true"), "{}", lines[1]);
        // Same plan ⇒ same fingerprint in both records.
        let fp = |line: &str| {
            let at = line.find("\"fp\":\"").unwrap() + 6;
            line[at..at + 16].to_string()
        };
        assert_eq!(fp(&lines[0]), fp(&lines[1]));
        assert!(lines[0].contains("\"total_us\":"), "{}", lines[0]);
    }

    #[test]
    fn request_span_tree_joins_response_by_id() {
        let _guard = obs::test_guard();
        obs::install(obs::TimeSource::monotonic());
        // The sink records every thread, and sibling tests in this binary
        // keep serving requests without the guard: mark this thread so the
        // analysis sees only its own events.
        obs::instant!("test.thread", "test");
        let server = library_server(ServeConfig::default());
        let g = merged_class(&server);
        let resp = server
            .handle_line(&format!(
                "{{\"op\":\"query\",\"tenant\":\"t1\",\"id\":\"q9\",\"q\":\"?- <X: {g} | title: T>.\"}}",
            ))
            .response;
        assert!(resp.contains("\"request_id\":\"q9\""), "{resp}");
        let mut trace = obs::uninstall().unwrap().trace;
        let tid = trace
            .events
            .iter()
            .find(|e| e.name == "test.thread")
            .expect("thread marker recorded")
            .tid;
        trace.events.retain(|e| e.tid == tid);
        let report = obs::report::analyze(&trace);
        assert_eq!(report.requests.len(), 1, "one serve.request root");
        let r = &report.requests[0];
        assert_eq!(
            (r.id.as_str(), r.tenant.as_str(), r.op.as_str()),
            ("q9", "t1", "query")
        );
        assert_eq!(r.rows, 3);
        assert!(!r.cache_hit && !r.degraded);
        assert!(r.fp.is_some(), "done instant carried the fingerprint");
        // Phase spans nest under the request: plan + execute observed.
        assert!(r.phases.plan > 0 || r.phases.execute > 0 || r.total_us == 0);
    }

    #[test]
    fn fault_plan_degrades_answers_subset_soundly() {
        let server = library_server(ServeConfig::default());
        let g = merged_class(&server);
        let plan = FaultPlan::parse("S2 error").unwrap();
        server.set_fault_plan(plan, RetryPolicy::default());
        let r = server.handle_line(&query_line("t1", &g)).response;
        assert!(r.contains("\"complete\":false"), "{r}");
        assert!(r.contains("\"missing_components\":[\"S2\"]"), "{r}");
        // S1's two books still answer — a subset of the full three rows.
        assert!(r.contains("\"count\":2"), "{r}");
        assert_eq!(server.tenants().tenant("t1").degraded, 1);
    }
}
