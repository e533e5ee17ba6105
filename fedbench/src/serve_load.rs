//! The serve workloads: closed-loop clients against one `serve::Server`.
//!
//! Each client is a sequential tenant session: it sends a request, waits
//! for the reply and only then sends the next one. A run is a sequence of
//! phases; in each phase every client sends `batch` requests. Only the
//! phases are timed. Between phases the benchmark checks every response
//! of the phase against the oracle, so the responses it holds stay few.

use crate::library::{self, Ack, Kind, Library, Model, Req, Traffic, WriteLog};
use crate::stats;
use serve::{ServeConfig, Server};
use std::time::{Duration, Instant};

/// How a serve workload is made up.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub write_share: f64,
    pub saturate_share: f64,
    /// Requests per client per phase, sized so that a phase lasts about
    /// half a second: long against the idle tail of the client that
    /// finishes first, short enough that a phase's responses stay few.
    pub batch: usize,
}

pub const SERVE_READ: ServeSpec = ServeSpec {
    write_share: 0.0,
    saturate_share: 0.0,
    batch: 200,
};

pub const SERVE_WRITE: ServeSpec = ServeSpec {
    write_share: 0.5,
    saturate_share: 0.75,
    batch: 40,
};

/// Closed-loop clients: two, or fewer on a machine with fewer cores.
pub fn clients() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

pub fn tenant(client: usize) -> String {
    format!("c{client}")
}

/// Build the server over a generated library.
pub fn connect(lib: &Library) -> Server {
    Server::new(
        lib.global.clone(),
        lib.components.clone(),
        lib.meta.clone(),
        ServeConfig::default(),
    )
}

/// Untimed warm-up, the last step of set-up. One fixed request per
/// template builds generation 0's engine, its extent statistics, program
/// summary and (for a workload that uses it) the saturate state. Then
/// every client sends one phase of the workload's read traffic, from a
/// stream of its own and as tenants of their own, so the lane starts with
/// a warm cache. Every response is checked.
pub fn warm_up(server: &Server, model: &Model, spec: &ServeSpec, seed: u64) -> Result<(), String> {
    let log = WriteLog::default();
    let mut fixed = vec![
        Req::Point { book: 0 },
        Req::Member { member: 0 },
        Req::Scan {
            lo: library::FIRST_YEAR,
            hi: library::FIRST_YEAR,
        },
        Req::Derived {
            member: 0,
            goal: library::Goal::Tier2,
            saturate: false,
        },
    ];
    if spec.saturate_share > 0.0 {
        fixed.push(Req::Derived {
            member: 0,
            goal: library::Goal::Rec,
            saturate: true,
        });
    }
    let tenants: Vec<String> = (0..clients()).map(|c| format!("warm{c}")).collect();
    let plans: Vec<Vec<Req>> = (0..tenants.len())
        .map(|c| {
            let mut t = Traffic::new(seed ^ WARM_STREAM, c, 0.0, spec.saturate_share);
            (0..spec.batch).map(|_| t.next_req()).collect()
        })
        .collect();
    let mut sent = send(server, vec![fixed], &tenants[..1]);
    sent.extend(send(server, plans, &tenants));
    for s in sent.iter().flatten() {
        library::check_query(model, &log, &s.req, &s.response)?;
    }
    Ok(())
}

/// Mixed into the seed for the warm-up's traffic.
const WARM_STREAM: u64 = 0x5eed_3a11;

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: Kind,
    pub from_cache: bool,
    /// Generation the response was answered at (0 for writes).
    pub generation: u64,
    pub micros: f64,
}

/// What one lane of timed phases produced.
#[derive(Debug, Default)]
pub struct LaneResult {
    pub samples: Vec<Sample>,
    pub timed: Duration,
    pub failed: u64,
    /// First wrong answer or broken invariant, if any.
    pub error: Option<String>,
}

impl LaneResult {
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64 + self.failed
    }

    pub fn ops_per_s(&self) -> f64 {
        self.attempted() as f64 / self.timed.as_secs_f64()
    }

    pub fn p(&self, q: f64, filter: impl Fn(&Sample) -> bool) -> f64 {
        stats::quantile(
            self.samples
                .iter()
                .filter(|s| filter(s))
                .map(|s| s.micros)
                .collect(),
            q,
        )
    }

    fn fail(&mut self, msg: String) {
        if self.error.is_none() {
            self.error = Some(msg);
        }
    }
}

struct Sent {
    req: Req,
    response: String,
    elapsed: Duration,
}

/// One phase: client `c` sends `plans[c]` as tenant `tenants[c]`, each
/// client on a thread of its own, waiting for every reply.
fn send(server: &Server, plans: Vec<Vec<Req>>, tenants: &[String]) -> Vec<Vec<Sent>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .into_iter()
            .zip(tenants)
            .map(|(reqs, tenant)| {
                scope.spawn(move || {
                    reqs.into_iter()
                        .map(|req| {
                            let line = req.line(tenant);
                            let t = Instant::now();
                            let handled = server.handle_line(&line);
                            let elapsed = t.elapsed();
                            Sent {
                                req,
                                response: handled.response,
                                elapsed,
                            }
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Run timed phases until `seconds` of timed work have passed, checking
/// each phase's responses in between. `between_phases` runs after each
/// phase, outside the clock (the traced lane drains the trace there).
pub fn run_lane(
    server: &Server,
    model: &Model,
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    between_phases: &mut dyn FnMut(),
) -> LaneResult {
    let n = clients();
    let mut traffic: Vec<Traffic> = (0..n)
        .map(|c| Traffic::new(seed, c, spec.write_share, spec.saturate_share))
        .collect();
    let tenants: Vec<String> = (0..n).map(tenant).collect();
    let mut log = WriteLog::default();
    let mut out = LaneResult::default();
    let (mut queries, mut writes) = (vec![0u64; n], vec![0u64; n]);
    while out.timed.as_secs_f64() < seconds {
        // Requests are generated before the clock starts.
        let plans: Vec<Vec<Req>> = traffic
            .iter_mut()
            .map(|t| (0..spec.batch).map(|_| t.next_req()).collect())
            .collect();
        let start = Instant::now();
        let sent = send(server, plans, &tenants);
        out.timed += start.elapsed();
        between_phases();
        // Writes first: a read may see a write another client made in
        // the same phase.
        for (c, batch) in sent.iter().enumerate() {
            for s in batch.iter().filter(|s| s.req.kind() == Kind::Write) {
                match library::check_ack(&s.response) {
                    Ok(generation) => {
                        writes[c] += 1;
                        log.add(&Ack {
                            generation,
                            req: s.req.clone(),
                        });
                        out.samples.push(Sample {
                            kind: Kind::Write,
                            from_cache: false,
                            generation: 0,
                            micros: s.elapsed.as_secs_f64() * 1e6,
                        });
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.fail(e);
                    }
                }
            }
        }
        for (c, batch) in sent.iter().enumerate() {
            for s in batch.iter().filter(|s| s.req.kind() != Kind::Write) {
                if s.response.starts_with("{\"ok\":false") {
                    out.failed += 1;
                    out.fail(format!("query failed: {:?} -> {}", s.req, s.response));
                    continue;
                }
                queries[c] += 1;
                match library::check_query(model, &log, &s.req, &s.response) {
                    Ok(checked) => out.samples.push(Sample {
                        kind: s.req.kind(),
                        from_cache: checked.from_cache,
                        generation: checked.generation,
                        micros: s.elapsed.as_secs_f64() * 1e6,
                    }),
                    Err(e) => out.fail(e),
                }
            }
        }
    }
    if let Err(e) = log.check_generations() {
        out.fail(e);
    }
    if let Err(e) = check_stats(server, &tenants, &queries, &writes) {
        out.fail(e);
    }
    out
}

/// The server's own per-tenant counts must equal the clients' counts.
fn check_stats(
    server: &Server,
    tenants: &[String],
    queries: &[u64],
    writes: &[u64],
) -> Result<(), String> {
    let response = server.handle_line("{\"op\":\"stats\"}").response;
    let v = obs::export::parse_json(&response)?;
    let all = v
        .get("tenants")
        .ok_or_else(|| format!("stats without tenants: {response}"))?;
    for (i, t) in tenants.iter().enumerate() {
        let field = |name: &str| {
            all.get(t)
                .and_then(|x| x.get(name))
                .and_then(obs::export::Json::as_u64)
                .unwrap_or(0)
        };
        if field("queries") != queries[i] || field("mutations") != writes[i] {
            return Err(format!(
                "stats for {t}: queries {} mutations {}, clients counted {} and {}",
                field("queries"),
                field("mutations"),
                queries[i],
                writes[i]
            ));
        }
    }
    Ok(())
}
