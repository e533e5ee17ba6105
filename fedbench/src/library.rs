//! The serve workloads' inputs: a library federation, the request
//! templates over it, and the oracle that checks every response.
//!
//! Two components, `L1` (`book`, `member`) and `L2` (`publication`,
//! `author`), integrated under `book ≡ publication` and
//! `member ∩ author`. Every even member is paired with the author of the
//! same key, which populates the ∩ virtual class `member_author`. On top
//! of the integrated program sit rule chains over that class: a linear
//! chain `tier1 ⇐ member_author ∧ author`, `tier2 ⇐ tier1 ∧ author`, and
//! a recursive cycle `rec ⇐ member_author`, `rec ⇐ recb`,
//! `recb ⇐ rec ∧ author`.
//!
//! The oracle is computed from this file's own generator: a response at
//! generation `g` must hold the base objects plus every write that was
//! acknowledged with a generation `≤ g`.

use crate::rng::{Rng, Zipf};
use fedoo::federation::fsm::GlobalSchema;
use fedoo::model::ClassName;
use fedoo::prelude::*;
use obs::export::{parse_json, Json};
use std::collections::BTreeMap;

/// Books per federation, split evenly between `L1.book` and
/// `L2.publication`.
pub const BOOKS: usize = 2400;
/// Members in `L1`; every even one is also an author in `L2`.
pub const MEMBERS: usize = 600;
/// Publication years span `FIRST_YEAR .. FIRST_YEAR + YEARS`.
pub const FIRST_YEAR: i64 = 1900;
pub const YEARS: i64 = 120;
/// Widest scan, in years beyond its lower bound.
pub const SCAN_WIDTH: i64 = 4;
/// Zipf skew of every template's parameter: the skew of the repository's
/// own serve traffic model (`crates/bench/src/traffic.rs`).
pub const ZIPF_S: f64 = 1.1;
/// Distinct query texts per read template. At `ZIPF_S` a key space of
/// thousands leaves every template's hit ratio in the 256-entry result
/// cache near one half, where its median jumps between the hit and the
/// miss mode; with these 920 texts (3.6 times the cache) each template
/// hits about three times in four.
pub const POINT_KEYS: usize = 600;
pub const MEMBER_KEYS: usize = 100;
pub const SCAN_KEYS: usize = 120;
pub const GOAL_KEYS: usize = 100;

/// The generated federation plus what the oracle needs to know about it.
pub struct Library {
    pub global: GlobalSchema,
    pub components: Vec<(Schema, InstanceStore)>,
    pub meta: MetaRegistry,
    pub model: Model,
}

/// The base data as the oracle sees it.
#[derive(Debug, Clone)]
pub struct Model {
    /// `(title, year)` of book `i`; title `b{i}`.
    pub books: Vec<(String, i64)>,
    /// Fines of member `j`; key `ssn{j}`.
    pub fines: Vec<i64>,
    /// Base titles per year offset.
    by_year: Vec<Vec<String>>,
}

impl Model {
    fn new(books: Vec<(String, i64)>, fines: Vec<i64>) -> Self {
        let mut by_year = vec![Vec::new(); YEARS as usize];
        for (t, y) in &books {
            by_year[(y - FIRST_YEAR) as usize].push(t.clone());
        }
        Model {
            books,
            fines,
            by_year,
        }
    }
}

fn oterm(var: &str, class: &str) -> Literal {
    Literal::oterm(OTermPat::new(Term::var(var), class))
}

/// Generate the federation for `seed`: book years and member fines vary
/// with the seed; sizes and keys do not.
pub fn generate(seed: u64) -> Library {
    let mut rng = Rng::derive(seed, 0x11b);
    let s1 = SchemaBuilder::new("L1")
        .class("book", |c| {
            c.attr("title", AttrType::Str).attr("year", AttrType::Int)
        })
        .class("member", |c| {
            c.attr("mssn", AttrType::Str).attr("fines", AttrType::Int)
        })
        .build()
        .expect("L1 schema is valid");
    let s2 = SchemaBuilder::new("L2")
        .class("publication", |c| {
            c.attr("ptitle", AttrType::Str).attr("pyear", AttrType::Int)
        })
        .class("author", |c| {
            c.attr("assn", AttrType::Str)
                .attr("royalties", AttrType::Int)
        })
        .build()
        .expect("L2 schema is valid");
    let mut st1 = InstanceStore::new();
    let mut st2 = InstanceStore::new();
    let mut books = Vec::with_capacity(BOOKS);
    let mut all_fines = Vec::with_capacity(MEMBERS);
    for i in 0..BOOKS {
        let title = format!("b{i}");
        let year = FIRST_YEAR + rng.below(YEARS as usize) as i64;
        if i % 2 == 0 {
            st1.create(&s1, "book", |o| {
                o.with_attr("title", title.clone()).with_attr("year", year)
            })
        } else {
            st2.create(&s2, "publication", |o| {
                o.with_attr("ptitle", title.clone())
                    .with_attr("pyear", year)
            })
        }
        .expect("generated book is valid");
        books.push((title, year));
    }
    for j in 0..MEMBERS {
        let fines = rng.below(50) as i64;
        st1.create(&s1, "member", |o| {
            o.with_attr("mssn", format!("ssn{j}"))
                .with_attr("fines", fines)
        })
        .expect("generated member is valid");
        all_fines.push(fines);
        if j % 2 == 0 {
            st2.create(&s2, "author", |o| {
                o.with_attr("assn", format!("ssn{j}"))
                    .with_attr("royalties", (j * 10) as i64)
            })
            .expect("generated author is valid");
        }
    }
    let mut fsm = Fsm::new();
    fsm.register(Agent::object_oriented("a1", s1, st1), "L1")
        .expect("L1 registers");
    fsm.register(Agent::object_oriented("a2", s2, st2), "L2")
        .expect("L2 registers");
    fsm.add_assertions_text(
        "assert L1.book == L2.publication {\n\
             attr L1.book.title == L2.publication.ptitle;\n\
             attr L1.book.year == L2.publication.pyear;\n\
         }\n\
         assert L1.member & L2.author {\n\
             attr L1.member.mssn == L2.author.assn;\n\
         }",
    )
    .expect("assertions parse");
    let pairs: Vec<(Oid, Oid)> = {
        let c = fsm.components();
        let mut pairing = fedoo::federation::ObjectPairing::new();
        pairing.pair_by_key(
            c[0].store
                .extent(&c[0].schema, &ClassName::new("member"))
                .iter()
                .copied(),
            "mssn",
            c[1].store
                .extent(&c[1].schema, &ClassName::new("author"))
                .iter()
                .copied(),
            "assn",
        );
        pairing.pairs().cloned().collect()
    };
    for (a, b) in pairs {
        fsm.meta.pairing.pair(a, b);
    }
    let mut global = fsm
        .integrate(IntegrationStrategy::Accumulation)
        .expect("library federation integrates");
    let inter = "member_author";
    let rules = [
        ("tier1", vec![oterm("X", inter), oterm("X", "author")]),
        ("tier2", vec![oterm("X", "tier1"), oterm("X", "author")]),
        ("rec", vec![oterm("X", inter)]),
        ("rec", vec![oterm("X", "recb")]),
        ("recb", vec![oterm("X", "rec"), oterm("X", "author")]),
    ];
    for (head, body) in rules {
        global.rules.push(Rule::new(oterm("X", head), body));
    }
    let components = fsm
        .components()
        .iter()
        .map(|c| (c.schema.clone(), c.store.clone()))
        .collect();
    Library {
        global,
        components,
        meta: fsm.meta.clone(),
        model: Model::new(books, all_fines),
    }
}

/// The derived goal a derived read asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Goal {
    Tier2,
    Rec,
}

/// Where a write goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// `L1.book`: visible in the merged `book` class.
    Book,
    /// `L2.publication`: visible in the merged `book` class.
    Publication,
    /// `L1.member` with a fresh key: changes base facts only.
    Member,
    /// `L2.author` with a fresh key: changes base facts only.
    Author,
}

/// One request a client sends.
#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    /// Title lookup of base book `i`.
    Point { book: usize },
    /// Key lookup of base member `ssn{member}`: a template over `L1`
    /// alone, so a write to `L2` leaves its cached answers valid.
    Member { member: usize },
    /// Books with `lo ≤ year ≤ hi`.
    Scan { lo: i64, hi: i64 },
    /// Member `ssn{member}` in the derived `goal`.
    Derived {
        member: usize,
        goal: Goal,
        saturate: bool,
    },
    Write {
        kind: WriteKind,
        key: String,
        year: i64,
    },
}

/// Request kinds, in the order the metrics list them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Point,
    Scan,
    Derived,
    Write,
}

impl Req {
    pub fn kind(&self) -> Kind {
        match self {
            Req::Point { .. } | Req::Member { .. } => Kind::Point,
            Req::Scan { .. } => Kind::Scan,
            Req::Derived { .. } => Kind::Derived,
            Req::Write { .. } => Kind::Write,
        }
    }

    /// The JSONL request line for tenant `tenant`.
    pub fn line(&self, tenant: &str) -> String {
        let query = |q: String, saturate: bool| {
            let strategy = if saturate {
                ",\"strategy\":\"saturate\""
            } else {
                ""
            };
            format!("{{\"op\":\"query\",\"tenant\":\"{tenant}\",\"q\":\"{q}\"{strategy}}}")
        };
        match self {
            Req::Point { book } => query(
                format!("?- <X: book | title: T, year: Y>, T = \\\"b{book}\\\"."),
                false,
            ),
            Req::Member { member } => query(
                format!("?- <X: member | mssn: M, fines: F>, M = \\\"ssn{member}\\\"."),
                false,
            ),
            Req::Scan { lo, hi } => query(
                format!("?- <X: book | title: T, year: Y>, Y >= {lo}, Y <= {hi}."),
                false,
            ),
            Req::Derived {
                member,
                goal,
                saturate,
            } => {
                let g = match goal {
                    Goal::Tier2 => "tier2",
                    Goal::Rec => "rec",
                };
                query(
                    format!("?- <X: member | mssn: M>, M = \\\"ssn{member}\\\", <X: {g}>."),
                    *saturate,
                )
            }
            Req::Write { kind, key, year } => {
                let (component, class, set) = match kind {
                    WriteKind::Book => (0, "book", format!("\"title\":\"{key}\",\"year\":{year}")),
                    WriteKind::Publication => (
                        1,
                        "publication",
                        format!("\"ptitle\":\"{key}\",\"pyear\":{year}"),
                    ),
                    WriteKind::Member => {
                        (0, "member", format!("\"mssn\":\"{key}\",\"fines\":{year}"))
                    }
                    WriteKind::Author => (
                        1,
                        "author",
                        format!("\"assn\":\"{key}\",\"royalties\":{year}"),
                    ),
                };
                format!(
                    "{{\"op\":\"mutate\",\"tenant\":\"{tenant}\",\"component\":{component},\
                     \"class\":\"{class}\",\"set\":{{{set}}}}}"
                )
            }
        }
    }
}

/// One client's request stream.
pub struct Traffic {
    rng: Rng,
    client: usize,
    write_share: f64,
    saturate_share: f64,
    book_z: Zipf,
    scan_z: Zipf,
    member_z: Zipf,
    goal_z: Zipf,
    writes: usize,
}

impl Traffic {
    /// `write_share` of the requests are writes; `saturate_share` of the
    /// derived reads use the saturate strategy. The read mix is that of
    /// `crates/bench/src/traffic.rs`: 60% point lookups (five in six of a
    /// book, one in six of a member), 30% scans and 10% derived goals.
    pub fn new(seed: u64, client: usize, write_share: f64, saturate_share: f64) -> Self {
        Traffic {
            rng: Rng::derive(seed, 1 + client as u64),
            client,
            write_share,
            saturate_share,
            book_z: Zipf::new(POINT_KEYS, ZIPF_S),
            scan_z: Zipf::new(SCAN_KEYS, ZIPF_S),
            member_z: Zipf::new(MEMBER_KEYS, ZIPF_S),
            goal_z: Zipf::new(GOAL_KEYS, ZIPF_S),
            writes: 0,
        }
    }

    pub fn next_req(&mut self) -> Req {
        let rng = &mut self.rng;
        if rng.unit() < self.write_share {
            self.writes += 1;
            let kind = match rng.below(4) {
                0 => WriteKind::Book,
                1 => WriteKind::Publication,
                2 => WriteKind::Member,
                _ => WriteKind::Author,
            };
            let prefix = match kind {
                WriteKind::Book | WriteKind::Publication => "w",
                WriteKind::Member => "wm",
                WriteKind::Author => "wa",
            };
            return Req::Write {
                kind,
                key: format!("{prefix}{}_{}", self.client, self.writes),
                year: FIRST_YEAR + rng.below(YEARS as usize) as i64,
            };
        }
        let roll = rng.below(20);
        // Ranks are scattered over the template's whole parameter space, so
        // the keys are not all neighbours (nor the scans all the same years).
        match roll {
            0..=9 => Req::Point {
                book: scatter(self.book_z.sample(rng), BOOKS),
            },
            10..=11 => Req::Member {
                member: scatter(self.member_z.sample(rng), MEMBERS),
            },
            12..=17 => {
                let r = scatter(self.scan_z.sample(rng), (YEARS * (SCAN_WIDTH + 1)) as usize);
                let lo = FIRST_YEAR + (r as i64 % YEARS);
                Req::Scan {
                    lo,
                    hi: lo + r as i64 / YEARS,
                }
            }
            _ => {
                let r = scatter(self.goal_z.sample(rng), 2 * MEMBERS);
                Req::Derived {
                    member: r % MEMBERS,
                    goal: if r < MEMBERS { Goal::Tier2 } else { Goal::Rec },
                    saturate: rng.unit() < self.saturate_share,
                }
            }
        }
    }
}

/// A fixed permutation of `0..n` (multiplication by a unit mod `n`).
fn scatter(rank: usize, n: usize) -> usize {
    let mut m = 7919 % n;
    while gcd(m, n) != 1 {
        m += 1;
    }
    (rank * m + 13) % n
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A write the server acknowledged.
#[derive(Debug, Clone)]
pub struct Ack {
    pub generation: u64,
    pub req: Req,
}

/// The acknowledged writes of a whole run, by generation, for the oracle.
#[derive(Debug, Default)]
pub struct WriteLog {
    /// Per year offset: `(generation, title)` of written books.
    books_by_year: BTreeMap<i64, Vec<(u64, String)>>,
    pub generations: Vec<u64>,
}

impl WriteLog {
    pub fn add(&mut self, ack: &Ack) {
        self.generations.push(ack.generation);
        if let Req::Write {
            kind: WriteKind::Book | WriteKind::Publication,
            key,
            year,
        } = &ack.req
        {
            self.books_by_year
                .entry(*year)
                .or_default()
                .push((ack.generation, key.clone()));
        }
    }

    /// Acknowledged generations must be exactly `1..=W`, each once.
    pub fn check_generations(&self) -> Result<(), String> {
        let mut g = self.generations.clone();
        g.sort_unstable();
        for (i, n) in g.iter().enumerate() {
            if *n != i as u64 + 1 {
                return Err(format!(
                    "write acknowledgements are not 1..={}: position {i} holds {n}",
                    g.len()
                ));
            }
        }
        Ok(())
    }
}

/// What a checked response reported, for the metrics.
#[derive(Debug, Clone, Copy)]
pub struct Checked {
    pub generation: u64,
    pub from_cache: bool,
}

fn as_bool(v: &Json) -> Option<bool> {
    match v {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

fn as_i64(v: &Json) -> Option<i64> {
    match v {
        Json::Num(n) if n.fract() == 0.0 => Some(*n as i64),
        _ => None,
    }
}

/// Parse a mutate acknowledgement.
pub fn check_ack(response: &str) -> Result<u64, String> {
    let v = parse_json(response)?;
    if v.get("ok").and_then(as_bool) != Some(true)
        || v.get("op").and_then(Json::as_str) != Some("mutate")
    {
        return Err(format!("mutate failed: {response}"));
    }
    v.get("generation")
        .and_then(Json::as_u64)
        .filter(|g| *g > 0)
        .ok_or_else(|| format!("mutate without a generation: {response}"))
}

/// Check a query response against the oracle: it is `ok` and `complete`,
/// and its rows equal the expected answer at its generation.
pub fn check_query(
    model: &Model,
    log: &WriteLog,
    req: &Req,
    response: &str,
) -> Result<Checked, String> {
    let v = parse_json(response)?;
    let fail = |what: &str| Err(format!("{what}: {req:?} -> {response}"));
    if v.get("ok").and_then(as_bool) != Some(true) {
        return fail("not ok");
    }
    if v.get("complete").and_then(as_bool) != Some(true) {
        return fail("incomplete answer");
    }
    let Some(generation) = v.get("generation").and_then(Json::as_u64) else {
        return fail("no generation");
    };
    let from_cache = v.get("from_cache").and_then(as_bool).unwrap_or(false);
    let rows = v.get("rows").and_then(Json::as_arr).unwrap_or(&[]);
    let vars: Vec<&str> = v
        .get("vars")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_str)
        .collect();
    // Every row starts with the object identifier `X`, which the oracle
    // does not predict; the remaining columns carry unique keys.
    let mut got: Vec<String> = Vec::with_capacity(rows.len());
    for row in rows {
        let cells = row.as_arr().unwrap_or(&[]);
        if cells.len() != vars.len()
            || !cells
                .first()
                .and_then(Json::as_str)
                .is_some_and(|x| x.starts_with('@'))
        {
            return fail("malformed row");
        }
        let rest: Vec<String> = cells[1..]
            .iter()
            .map(|c| match c {
                Json::Str(s) => s.clone(),
                other => as_i64(other).map(|n| n.to_string()).unwrap_or_default(),
            })
            .collect();
        got.push(rest.join("|"));
    }
    got.sort_unstable();
    let mut want = expected(model, log, req, generation);
    want.sort_unstable();
    if got != want {
        return fail(&format!(
            "rows differ at generation {generation} (got {}, want {})",
            got.len(),
            want.len()
        ));
    }
    Ok(Checked {
        generation,
        from_cache,
    })
}

/// The oracle: expected rows (without `X`) of `req` at `generation`.
pub fn expected(model: &Model, log: &WriteLog, req: &Req, generation: u64) -> Vec<String> {
    match req {
        Req::Point { book } => {
            let (t, y) = &model.books[*book];
            vec![format!("{t}|{y}")]
        }
        Req::Member { member } => vec![format!("ssn{member}|{}", model.fines[*member])],
        Req::Scan { lo, hi } => {
            let mut out = Vec::new();
            for y in *lo..=(*hi).min(FIRST_YEAR + YEARS - 1) {
                for t in &model.by_year[(y - FIRST_YEAR) as usize] {
                    out.push(format!("{t}|{y}"));
                }
                for (g, t) in log.books_by_year.get(&y).map(Vec::as_slice).unwrap_or(&[]) {
                    if *g <= generation {
                        out.push(format!("{t}|{y}"));
                    }
                }
            }
            out
        }
        // Only base members are ever queried; every even one is paired,
        // and the chains `tier2` and `rec` hold exactly the pairs.
        Req::Derived { member, .. } if member % 2 == 0 => vec![format!("ssn{member}")],
        Req::Derived { .. } => Vec::new(),
        Req::Write { .. } => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_model() -> Model {
        Model::new(
            vec![
                ("b0".into(), 1950),
                ("b1".into(), 1951),
                ("b2".into(), 1950),
            ],
            vec![7],
        )
    }

    fn log_with_write(generation: u64) -> WriteLog {
        let mut log = WriteLog::default();
        log.add(&Ack {
            generation,
            req: Req::Write {
                kind: WriteKind::Publication,
                key: "w0_1".into(),
                year: 1950,
            },
        });
        log
    }

    const SCAN: Req = Req::Scan { lo: 1950, hi: 1950 };

    fn scan_response(generation: u64, titles: &[&str]) -> String {
        let rows: Vec<String> = titles
            .iter()
            .enumerate()
            .map(|(i, t)| format!("[\"@book.{i}\",\"{t}\",1950]"))
            .collect();
        format!(
            "{{\"ok\":true,\"request_id\":\"r1\",\"op\":\"query\",\"generation\":{generation},\
             \"vars\":[\"X\",\"T\",\"Y\"],\"rows\":[{}],\"count\":{},\"from_cache\":false,\
             \"complete\":true}}",
            rows.join(","),
            titles.len()
        )
    }

    #[test]
    fn correct_answers_pass() {
        let (model, log) = (small_model(), log_with_write(1));
        check_query(&model, &log, &SCAN, &scan_response(0, &["b0", "b2"])).unwrap();
        check_query(
            &model,
            &log,
            &SCAN,
            &scan_response(1, &["b2", "w0_1", "b0"]),
        )
        .unwrap();
    }

    #[test]
    fn dropped_row_fails() {
        let (model, log) = (small_model(), log_with_write(1));
        assert!(check_query(&model, &log, &SCAN, &scan_response(1, &["b0", "w0_1"])).is_err());
    }

    #[test]
    fn wrong_generation_fails() {
        let (model, log) = (small_model(), log_with_write(1));
        // The write is missing although the answer claims generation 1…
        assert!(check_query(&model, &log, &SCAN, &scan_response(1, &["b0", "b2"])).is_err());
        // …or present although the answer claims generation 0.
        assert!(check_query(
            &model,
            &log,
            &SCAN,
            &scan_response(0, &["b0", "b2", "w0_1"])
        )
        .is_err());
    }

    #[test]
    fn incomplete_or_failed_answers_fail() {
        let (model, log) = (small_model(), WriteLog::default());
        let partial =
            scan_response(0, &["b0", "b2"]).replace("\"complete\":true", "\"complete\":false");
        assert!(check_query(&model, &log, &SCAN, &partial).is_err());
        let err = "{\"ok\":false,\"request_id\":\"r1\",\"error\":{\"code\":\"parse\"}}";
        assert!(check_query(&model, &log, &SCAN, err).is_err());
    }

    #[test]
    fn acknowledgements_must_be_one_to_w() {
        let mut log = log_with_write(1);
        log.add(&Ack {
            generation: 2,
            req: Req::Write {
                kind: WriteKind::Member,
                key: "wm1_1".into(),
                year: 1900,
            },
        });
        log.check_generations().unwrap();
        log.add(&Ack {
            generation: 2,
            req: Req::Write {
                kind: WriteKind::Author,
                key: "wa1_2".into(),
                year: 1900,
            },
        });
        assert!(log.check_generations().is_err());
    }

    #[test]
    fn traffic_is_a_function_of_the_seed() {
        let a: Vec<Req> = {
            let mut t = Traffic::new(5, 0, 0.5, 0.75);
            (0..50).map(|_| t.next_req()).collect()
        };
        let mut t = Traffic::new(5, 0, 0.5, 0.75);
        let b: Vec<Req> = (0..50).map(|_| t.next_req()).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|r| r.kind() == Kind::Write));
    }
}
