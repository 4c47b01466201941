//! The three workloads and the phases every run goes through.
//!
//! 1. **Setup**, repeated: generate the tables from the seed, sign them,
//!    create their stores and start serving (`setup_s` is the median).
//! 2. **Segments** of timed reads; in `churn` an open-loop owner thread
//!    publishes update batches beside one reader. After each segment,
//!    `select_cold` and `sql_hot` run a share of a closed-loop update
//!    probe, and then the server restarts from its stores (timed until
//!    the first verified answer). A traced run traces every other request.
//! 3. **Counts**: the first answers of the seeded stream, replayed one at
//!    a time on the idle server, give the byte, hash and signature counts.
//! 4. **Replays** (traced runs only): publisher, plan and planner calls
//!    replayed in-process over the recorded requests.
//!
//! Every answer is verified against the owner certificate; known-answer
//! checks compare it with values computed here from the owner's tables.

use crate::gen::{self, BatchShape, Expected, RangeStream, Statement};
use crate::stats::{self, Json, FAILED};
use crate::trace::Trace;
use adp_core::errors::VerifyError;
use adp_core::join::verify_pkfk_join;
use adp_core::plan::{compute_plan_answer, encode_plan_answer, verify_plan, PlanAnswer, SqlRows};
use adp_core::prelude::*;
use adp_core::{delta, wire};
use adp_relation::{KeyRange, Record, SelectQuery};
use adp_server::{
    RemoteError, RemoteSubscriber, RemoteVerifier, Server, ServerConfig, ServerHandle, SqlSession,
};
use adp_store::{Store, LOG_FILE, SNAPSHOT_FILE};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Owner update batches per second in `churn` (open loop).
pub const CHURN_RATE: f64 = 8.0;
/// Answers replayed one at a time for the deterministic count cells.
pub const COUNT_QUERIES: usize = 256;
/// Recorded requests per reader replayed in-process in a traced run.
pub const REPLAY_CAP: usize = 1_000;
/// Client-side spans of a traced request must sum (median) to the
/// untraced requests' `latency_p50_us` within this share, or the traced
/// run fails.
pub const RECONCILE_TOLERANCE: f64 = 0.25;
/// Client socket timeout; a failed request counts as missing it.
pub const REQUEST_LIMIT: Duration = Duration::from_secs(10);

/// The fixed server configuration every run uses (recorded with results).
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        cache_capacity: 1024,
        shards: 1,
        ..ServerConfig::default()
    }
}

/// The store's flush policy, recorded with results.
pub const FLUSH_POLICY: &str = "fsync per log record; snapshot written atomically at create";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SelectCold,
    SqlHot,
    Churn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "select_cold" => Some(Workload::SelectCold),
            "sql_hot" => Some(Workload::SqlHot),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SelectCold => "select_cold",
            Workload::SqlHot => "sql_hot",
            Workload::Churn => "churn",
        }
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed read window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory the stores are created in (emptied by the run).
    pub data_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub spans_out: Option<PathBuf>,
    /// Mounts a tampering hook on the server (the correctness gate's own
    /// test: every answer must then fail verification).
    pub tamper: bool,
    pub setup_repeats: usize,
    /// Read segments, each followed by a timed restart.
    pub segments: usize,
    /// Closed-loop update batches, spread over the segments (not in
    /// `churn`, whose batches run beside its reader).
    pub probe_batches: usize,
    pub warmup: Duration,
}

impl Config {
    pub fn new(
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
        data_dir: PathBuf,
    ) -> Self {
        Config {
            workload,
            seed,
            seconds,
            trace,
            data_dir,
            spans_out: None,
            tamper: false,
            setup_repeats: 3,
            segments: 3,
            probe_batches: 100,
            warmup: Duration::from_secs(1),
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of a run.
pub struct Report {
    /// Every answer verified, every known-answer check matched.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
    /// Sample counts, count cells, configuration: written with the result.
    pub detail: Json,
}

/// Runs one workload end to end.
pub fn run(cfg: &Config) -> Report {
    let mut run = Run::new(cfg);
    if let Err(e) = run.execute() {
        run.problems.push(e);
    }
    let _ = std::fs::remove_dir_all(&cfg.data_dir);
    run.report()
}

// ---------------------------------------------------------------------------
// Deployment
// ---------------------------------------------------------------------------

/// A published table: the owner's copy plus what clients trust.
struct Published {
    id: u32,
    st: SignedTable,
    cert: Certificate,
    dir: PathBuf,
}

fn generate(workload: Workload, seed: u64) -> Vec<(u32, adp_relation::Table, Domain)> {
    match workload {
        Workload::SelectCold | Workload::Churn => {
            let (t, d) = gen::bench_table(seed);
            vec![(0, t, d)]
        }
        Workload::SqlHot => {
            let ((emp, ed), (dept, dd)) = gen::sql_tables(seed);
            vec![(0, emp, ed), (1, dept, dd)]
        }
    }
}

/// Drops the last row of every answer without fixing its proof.
fn mount_tamper(server: &mut Server) {
    server.set_tamper(|_, _, mut rows, vo| {
        rows.pop();
        (rows, vo)
    });
    server.set_tamper_planned(|_, answer| match answer {
        PlanAnswer::Select { mut rows, vo } => {
            rows.pop();
            PlanAnswer::Select { rows, vo }
        }
        PlanAnswer::Join { mut result, vo } => {
            result.outer_rows.pop();
            PlanAnswer::Join { result, vo }
        }
    });
}

fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn connect_select(addr: SocketAddr, cert: &Certificate, id: u32) -> Result<RemoteVerifier, String> {
    let mut v = RemoteVerifier::connect(addr, cert.clone(), id).map_err(err("connect"))?;
    v.client_mut()
        .set_timeout(Some(REQUEST_LIMIT))
        .map_err(err("socket timeout"))?;
    Ok(v)
}

fn connect_sql(addr: SocketAddr, tables: &[Published]) -> Result<SqlSession, String> {
    let mut s = SqlSession::connect(addr).map_err(err("connect"))?;
    s.client_mut()
        .set_timeout(Some(REQUEST_LIMIT))
        .map_err(err("socket timeout"))?;
    for t in tables {
        s.add_table(t.id, t.cert.clone(), t.st.len() as u64);
    }
    s.declare_fk("emp", "dept");
    Ok(s)
}

fn same_rows(got: impl Iterator<Item = Record>, st: &SignedTable) -> bool {
    got.eq(st.table().rows().iter().map(|r| r.record.clone()))
}

// ---------------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------------

enum Outcome {
    Verified,
    /// Verified, but not the answer the generated tables imply.
    Mismatch(String),
    /// Verification rejected the answer.
    Rejected(String),
    /// Transport or server error.
    Failed(String),
}

fn classify(e: RemoteError) -> Outcome {
    match e {
        RemoteError::Verify(v) => Outcome::Rejected(format!("verification failed: {v}")),
        e => Outcome::Failed(e.to_string()),
    }
}

fn rejected(e: VerifyError) -> Outcome {
    Outcome::Rejected(format!("verification failed: {e}"))
}

fn check_sql(stmt: &Statement, out: &SqlRows) -> Outcome {
    let ok = match &stmt.expected {
        Expected::Rows(n) | Expected::Pairs(n) => out.rows.len() == *n,
        Expected::Agg(v) => out.aggregate.as_ref().map(|(_, a)| a) == Some(v),
    };
    if ok {
        Outcome::Verified
    } else {
        Outcome::Mismatch(format!("{}: expected {:?}", stmt.sql, stmt.expected))
    }
}

/// A reader's connection plus its request stream. The stream outlives
/// reconnects, so a restart never replays requests already sent.
enum Client {
    Select {
        v: RemoteVerifier,
        stream: RangeStream,
        /// Keys of the owner's table when the answers are known (the
        /// table does not change while this reader runs).
        keys: Option<Arc<Vec<i64>>>,
    },
    Sql {
        s: SqlSession,
        stmts: Arc<Vec<Statement>>,
        rng: StdRng,
        certs: HashMap<u32, Certificate>,
    },
}

/// What a reader sent in a traced request (for in-process replays).
enum Sent {
    Select(SelectQuery),
    Sql(usize),
}

impl Client {
    fn next(&mut self) -> Sent {
        match self {
            Client::Select { stream, .. } => Sent::Select(stream.next_query()),
            Client::Sql { stmts, rng, .. } => {
                use rand::Rng;
                Sent::Sql(rng.gen_range(0..stmts.len()))
            }
        }
    }

    /// Sends one request and verifies the answer. Traced, the call is
    /// split into its public pieces, each in its own span.
    fn request(&mut self, sent: &Sent, tr: &mut Trace, req: u64) -> Outcome {
        let root = tr.open("request", req, None);
        let out = match (self, sent) {
            (Client::Select { v, keys, .. }, Sent::Select(q)) => {
                let expected = keys.as_deref().map(|k| expected_rows(k, q));
                select_request(v, q, expected, tr, req, root)
            }
            (
                Client::Sql {
                    s, stmts, certs, ..
                },
                Sent::Sql(i),
            ) => sql_request(s, &stmts[*i], certs, tr, req, root),
            _ => unreachable!("request kind matches its client"),
        };
        tr.close(root);
        out
    }
}

fn expected_rows(keys: &[i64], q: &SelectQuery) -> usize {
    match (q.range.lo, q.range.hi) {
        (Bound::Included(lo), Bound::Included(hi)) => gen::rows_in(keys, lo, hi),
        _ => unreachable!("the stream sends closed ranges"),
    }
}

fn count_check(got: usize, expected: Option<usize>, q: &SelectQuery) -> Outcome {
    match expected {
        Some(n) if n != got => {
            Outcome::Mismatch(format!("{:?}: {got} rows, expected {n}", q.range))
        }
        _ => Outcome::Verified,
    }
}

fn select_request(
    v: &mut RemoteVerifier,
    q: &SelectQuery,
    expected: Option<usize>,
    tr: &mut Trace,
    req: u64,
    root: Option<usize>,
) -> Outcome {
    if !tr.enabled() {
        return match v.select(q) {
            Ok(r) => count_check(r.rows.len(), expected, q),
            Err(e) => classify(e),
        };
    }
    let raw = tr.span("server.roundtrip", req, root, || {
        v.client_mut().query_raw(0, q)
    });
    let (rb, vb) = match raw {
        Ok(x) => x,
        Err(e) => return classify(e),
    };
    let decoded = tr.span("client.decode", req, root, || {
        Some((wire::decode_records(&rb).ok()?, wire::decode_vo(&vb).ok()?))
    });
    let Some((rows, vo)) = decoded else {
        return Outcome::Rejected("malformed answer bytes".into());
    };
    let cert = v.certificate();
    match tr.span("client.verify", req, root, || {
        verify_select(cert, q, &rows, &vo)
    }) {
        Ok(_) => count_check(rows.len(), expected, q),
        Err(e) => rejected(e),
    }
}

fn sql_request(
    s: &mut SqlSession,
    stmt: &Statement,
    certs: &HashMap<u32, Certificate>,
    tr: &mut Trace,
    req: u64,
    root: Option<usize>,
) -> Outcome {
    if !tr.enabled() {
        return match s.query_sql(&stmt.sql) {
            Ok(out) => check_sql(stmt, &out.output),
            Err(e) => classify(e),
        };
    }
    let planned = match tr.span("client.plan", req, root, || s.plan(&stmt.sql)) {
        Ok(p) => p,
        Err(e) => return classify(e),
    };
    let plan = &planned.chosen;
    let raw = tr.span("server.roundtrip", req, root, || {
        s.client_mut().query_planned_raw(&plan.wire)
    });
    let (rb, vb) = match raw {
        Ok(x) => x,
        Err(e) => return classify(e),
    };
    match &plan.wire {
        WirePlan::Select { table_id, query } => {
            let decoded = tr.span("client.decode", req, root, || {
                Some((wire::decode_records(&rb).ok()?, wire::decode_vo(&vb).ok()?))
            });
            let Some((rows, vo)) = decoded else {
                return Outcome::Rejected("malformed answer bytes".into());
            };
            let Some(cert) = certs.get(table_id) else {
                return Outcome::Failed(format!("plan names unknown table {table_id}"));
            };
            if let Err(e) = tr.span("client.verify", req, root, || {
                verify_select(cert, query, &rows, &vo)
            }) {
                return rejected(e);
            }
            match tr.span("client.finish", req, root, || plan.finish(rows)) {
                Ok(out) => check_sql(stmt, &out),
                Err(e) => Outcome::Failed(e.to_string()),
            }
        }
        WirePlan::PkFkJoin {
            fk_table,
            pk_table,
            fk_range,
            fk_projection,
            pk_projection,
        } => {
            let decoded = tr.span("client.decode", req, root, || {
                Some((
                    wire::decode_join_result(&rb).ok()?,
                    wire::decode_join_vo(&vb).ok()?,
                ))
            });
            let Some((result, vo)) = decoded else {
                return Outcome::Rejected("malformed answer bytes".into());
            };
            let (Some(fk), Some(pk)) = (certs.get(fk_table), certs.get(pk_table)) else {
                return Outcome::Failed("plan names an unknown table".into());
            };
            let verified = tr.span("client.verify", req, root, || {
                verify_pkfk_join(
                    fk,
                    pk,
                    *fk_range,
                    fk_projection,
                    pk_projection,
                    &result,
                    &vo,
                )
            });
            match verified {
                Err(e) => rejected(e),
                Ok(report) if Expected::Pairs(report.pairs) == stmt.expected => Outcome::Verified,
                Ok(report) => Outcome::Mismatch(format!(
                    "{}: {} pairs, expected {:?}",
                    stmt.sql, report.pairs, stmt.expected
                )),
            }
        }
    }
}

/// One reader's share of one segment.
struct ReaderResult {
    /// Latency per untraced request, [`FAILED`] for failures.
    lat_us: Vec<f64>,
    /// Latency per traced request.
    traced_lat_us: Vec<f64>,
    ok: u64,
    failed: u64,
    trace: Trace,
    sent: Vec<Sent>,
    problems: Vec<String>,
}

/// Sends requests back to back (closed loop) until `end`. With `trace`,
/// every other request is traced, so traced and untraced requests share
/// the same moments of a host whose speed drifts.
fn reader_loop(
    client: &mut Client,
    end: Instant,
    trace: bool,
    req_base: u64,
    origin: Instant,
) -> ReaderResult {
    let mut out = ReaderResult {
        lat_us: Vec::new(),
        traced_lat_us: Vec::new(),
        ok: 0,
        failed: 0,
        trace: Trace::new(false, origin),
        sent: Vec::new(),
        problems: Vec::new(),
    };
    let mut seq = 0;
    while Instant::now() < end {
        let sent = client.next();
        seq += 1;
        let traced = trace && seq % 2 == 0;
        out.trace.set_enabled(traced);
        let start = Instant::now();
        let outcome = client.request(&sent, &mut out.trace, req_base | seq);
        let us = start.elapsed().as_secs_f64() * 1e6;
        let lat = if traced {
            &mut out.traced_lat_us
        } else {
            &mut out.lat_us
        };
        match outcome {
            Outcome::Verified => {
                out.ok += 1;
                lat.push(us);
            }
            Outcome::Mismatch(m) | Outcome::Rejected(m) | Outcome::Failed(m) => {
                out.failed += 1;
                lat.push(FAILED);
                if out.problems.len() < 8 {
                    out.problems.push(m);
                }
            }
        }
        if traced && out.sent.len() < REPLAY_CAP {
            out.sent.push(sent);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

enum Schedule {
    /// Batch `b` is due at `start + b / rate`.
    Open { start: Instant, rate: f64 },
    /// Each batch is due when the previous one is verified.
    Closed,
}

#[derive(Default)]
struct WriterStats {
    update_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    sigs: Vec<f64>,
    delta_bytes: Vec<f64>,
    log_bytes: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// The owner's update stream: its generator state persists across
/// segments and restarts.
struct Writer {
    shape: BatchShape,
    rng: StdRng,
    next_id: i64,
    batches: u64,
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// One round of owner updates against a served table.
struct UpdateRound<'a> {
    owner: &'a Owner,
    handle: &'a ServerHandle,
    table: &'a mut Published,
    sub: &'a mut RemoteSubscriber,
    /// Replays delta construction for each batch (traced runs).
    replay_delta: bool,
}

impl UpdateRound<'_> {
    /// Publishes `count` batches; each is timed from its due time to the
    /// subscriber holding its verified delta.
    fn run(
        &mut self,
        w: &mut Writer,
        count: usize,
        schedule: Schedule,
        tr: &mut Trace,
    ) -> WriterStats {
        let mut ws = WriterStats::default();
        let log = self.table.dir.join(LOG_FILE);
        let (lo, hi) = (
            self.table.st.domain().key_min(),
            self.table.st.domain().key_max(),
        );
        for b in 0..count {
            let ops = gen::gen_batch(&self.table.st, w.shape, &mut w.rng, &mut w.next_id);
            let due = match schedule {
                Schedule::Open { start, rate } => start + Duration::from_secs_f64(b as f64 / rate),
                Schedule::Closed => Instant::now(),
            };
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            ws.lag_ms
                .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            ws.attempted += 1;
            w.batches += 1;
            let req = 1 << 62 | w.batches;
            let root = tr.open("update", req, None);
            let result = self.one_batch(ops, &log, tr, req, root, &mut ws);
            tr.close(root);
            match result {
                Ok(resigned) => {
                    ws.update_ms.push(due.elapsed().as_secs_f64() * 1e3);
                    if self.replay_delta {
                        let st = &self.table.st;
                        let _ = tr.span("delta.build", req, None, || {
                            let intervals = delta::dirty_intervals(st, &resigned);
                            delta::build_delta_pieces(st, &intervals, lo, hi)
                        });
                    }
                }
                Err(e) => {
                    ws.failed += 1;
                    ws.update_ms.push(FAILED);
                    if ws.problems.len() < 8 {
                        ws.problems.push(e);
                    }
                }
            }
        }
        ws
    }

    fn one_batch(
        &mut self,
        ops: Vec<Mutation>,
        log: &Path,
        tr: &mut Trace,
        req: u64,
        root: Option<usize>,
        ws: &mut WriterStats,
    ) -> Result<Vec<(u32, adp_crypto::Signature)>, String> {
        let (owner, st) = (self.owner, &mut self.table.st);
        let report = tr
            .span("owner.apply_batch", req, root, || {
                owner.apply_batch(st, ops)
            })
            .map_err(err("owner.apply_batch"))?;
        ws.sigs.push(report.signatures_recomputed as f64);
        let log_before = file_len(log);
        let (handle, id) = (self.handle, self.table.id);
        let epoch = tr
            .span("server.apply_update", req, root, || {
                handle.apply_update(id, &report.ops, &report.resigned)
            })
            .map_err(err("apply_update"))?;
        ws.log_bytes.push((file_len(log) - log_before) as f64);
        let sub = &mut *self.sub;
        let before = sub.stats();
        tr.span("sub.wait", req, root, || {
            while sub.epoch() < epoch {
                match sub.poll_delta(REQUEST_LIMIT) {
                    Ok(Some(_)) => {}
                    Ok(None) => return Err(format!("no delta for epoch {epoch}")),
                    Err(e) => return Err(format!("subscriber: {e}")),
                }
            }
            Ok(())
        })?;
        let after = sub.stats();
        ws.delta_bytes.push(
            ((after.result_bytes + after.vo_bytes) - (before.result_bytes + before.vo_bytes))
                as f64,
        );
        Ok(report.resigned)
    }
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

/// Deterministic per-answer counts over the first answers of the stream.
#[derive(Default)]
struct Counts {
    answers: u64,
    rows: u64,
    result_bytes: u64,
    vo_bytes: u64,
    hash_ops: u64,
    sigs: u64,
}

struct Run<'c> {
    cfg: &'c Config,
    owner: &'static Owner,
    origin: Instant,
    /// Main-thread and writer spans: setup, updates, replays, restarts.
    trace: Trace,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    setup_s: Vec<f64>,
    restart_s: Vec<f64>,
    readers: Vec<ReaderResult>,
    /// Seconds of timed reads.
    window_secs: f64,
    /// VO-cache hits and misses during the timed reads.
    cache: (u64, u64),
    writer: WriterStats,
    counts: Counts,
}

impl<'c> Run<'c> {
    fn new(cfg: &'c Config) -> Self {
        let origin = Instant::now();
        Run {
            cfg,
            owner: adp_bench::bench_owner(),
            origin,
            trace: Trace::new(true, origin),
            problems: Vec::new(),
            attempted: 0,
            failed: 0,
            setup_s: Vec::new(),
            restart_s: Vec::new(),
            readers: Vec::new(),
            window_secs: 0.0,
            cache: (0, 0),
            writer: WriterStats::default(),
            counts: Counts::default(),
        }
    }

    /// Generates, signs, creates the stores and starts serving.
    fn setup(&mut self, round: usize) -> Result<(ServerHandle, Vec<Published>), String> {
        let start = Instant::now();
        let mut server = Server::new(server_config());
        let mut tables = Vec::new();
        for (id, table, domain) in generate(self.cfg.workload, self.cfg.seed) {
            let owner = self.owner;
            let st = self
                .trace
                .span("owner.sign_table", round as u64, None, || {
                    owner.sign_table(table, domain, SchemeConfig::default())
                })
                .map_err(err("sign_table"))?;
            let cert = owner.certificate(&st);
            let dir = self.cfg.data_dir.join(format!("setup{round}-table{id}"));
            std::fs::create_dir_all(&dir).map_err(err("data dir"))?;
            let store = self
                .trace
                .span("store.create", round as u64, None, || {
                    Store::create(&dir, st.clone())
                })
                .map_err(err("Store::create"))?;
            server.add_store(id, store);
            tables.push(Published { id, st, cert, dir });
        }
        if self.cfg.tamper {
            mount_tamper(&mut server);
        }
        let handle = server.serve("127.0.0.1:0").map_err(err("serve"))?;
        self.setup_s.push(start.elapsed().as_secs_f64());
        Ok((handle, tables))
    }

    /// The readers' known answers, from the owner's current tables:
    /// `sql_hot`'s statements, and `select_cold`'s keys (`churn` reads a
    /// table that changes under the reader, so only verification applies).
    fn known(&self, tables: &[Published]) -> (Arc<Vec<Statement>>, Option<Arc<Vec<i64>>>) {
        match self.cfg.workload {
            Workload::SqlHot => (
                Arc::new(gen::sql_statements(self.cfg.seed, tables[0].st.table())),
                None,
            ),
            Workload::SelectCold => (Arc::default(), Some(Arc::new(gen::keys_of(&tables[0].st)))),
            Workload::Churn => (Arc::default(), None),
        }
    }

    fn clients(&self, addr: SocketAddr, tables: &[Published]) -> Result<Vec<Client>, String> {
        let n = match self.cfg.workload {
            Workload::Churn => 1,
            _ => 2,
        };
        let (stmts, keys) = self.known(tables);
        (0..n as u64)
            .map(|lane| {
                Ok(match self.cfg.workload {
                    Workload::SqlHot => Client::Sql {
                        s: connect_sql(addr, tables)?,
                        stmts: Arc::clone(&stmts),
                        rng: StdRng::seed_from_u64(gen::sub_seed(self.cfg.seed, 10 + lane)),
                        certs: tables.iter().map(|t| (t.id, t.cert.clone())).collect(),
                    },
                    _ => Client::Select {
                        v: connect_select(addr, &tables[0].cert, 0)?,
                        stream: RangeStream::new(self.cfg.seed, 10 + lane, tables[0].st.domain()),
                        keys: keys.clone(),
                    },
                })
            })
            .collect()
    }

    /// Points the readers at a restarted server and refreshes their known
    /// answers; their request streams continue where they were.
    fn reconnect(
        &self,
        clients: &mut [Client],
        addr: SocketAddr,
        tables: &[Published],
    ) -> Result<(), String> {
        let (stmts, keys) = self.known(tables);
        for c in clients {
            match c {
                Client::Select { v, keys: k, .. } => {
                    *v = connect_select(addr, &tables[0].cert, 0)?;
                    k.clone_from(&keys);
                }
                Client::Sql { s, stmts: st, .. } => {
                    *s = connect_sql(addr, tables)?;
                    *st = Arc::clone(&stmts);
                }
            }
        }
        Ok(())
    }

    /// Sends every fixed statement once, so the segment starts with a
    /// warm VO cache (untimed).
    fn prime(&mut self, clients: &mut [Client]) {
        let Some(c) = clients.first_mut() else { return };
        let n = match c {
            Client::Sql { stmts, .. } => stmts.len(),
            Client::Select { .. } => 0,
        };
        for i in 0..n {
            let mut off = Trace::new(false, self.origin);
            if let Outcome::Mismatch(m) | Outcome::Rejected(m) | Outcome::Failed(m) =
                c.request(&Sent::Sql(i), &mut off, 0)
            {
                self.problems.push(format!("warm-up: {m}"));
            }
        }
    }

    fn execute(&mut self) -> Result<(), String> {
        let cfg = self.cfg;
        let _ = std::fs::remove_dir_all(&cfg.data_dir);
        std::fs::create_dir_all(&cfg.data_dir).map_err(err("data dir"))?;
        self.owner.public_key().precompute();

        let mut deployment = None;
        for round in 0..cfg.setup_repeats.max(1) {
            // The previous round's server is shut down first, untimed.
            if let Some((handle, tables)) = deployment.take() {
                drop_deployment(handle, tables);
            }
            deployment = Some(self.setup(round)?);
        }
        let (mut handle, mut tables) = deployment.expect("at least one setup round");
        let mut clients = self.clients(handle.addr(), &tables)?;
        let mut writer = Writer {
            shape: match cfg.workload {
                Workload::SqlHot => BatchShape::Emp,
                _ => BatchShape::Bench,
            },
            rng: StdRng::seed_from_u64(gen::sub_seed(cfg.seed, 300)),
            next_id: 1 << 40,
            batches: 0,
        };

        self.prime(&mut clients);
        let until = Instant::now() + cfg.warmup;
        let origin = self.origin;
        let warm: Vec<ReaderResult> = std::thread::scope(|s| {
            let hs: Vec<_> = clients
                .iter_mut()
                .map(|c| s.spawn(move || reader_loop(c, until, false, 0, origin)))
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("warm-up thread"))
                .collect()
        });
        self.problems.extend(
            warm.into_iter()
                .flat_map(|r| r.problems)
                .map(|m| format!("warm-up: {m}")),
        );

        // The timed window runs in segments. Between two segments the
        // server restarts (timed), and outside `churn` a share of the
        // closed-loop update probe runs. Spreading the restarts and the
        // probe over the whole run keeps their medians steady on a host
        // whose speed drifts.
        let segments = cfg.segments.max(1);
        let seg_len = Duration::from_secs_f64(cfg.seconds / segments as f64);
        for seg in 0..segments {
            self.segment(
                seg,
                seg_len,
                &handle,
                &mut clients,
                &mut tables,
                &mut writer,
            )?;
            if cfg.workload != Workload::Churn {
                let share =
                    cfg.probe_batches / segments + usize::from(seg < cfg.probe_batches % segments);
                self.probe(share, &handle, &mut tables, &mut writer)?;
            }
            handle.shutdown();
            handle = self.restart(seg, &tables)?;
            self.reconnect(&mut clients, handle.addr(), &tables)?;
        }

        self.count_phase(handle.addr(), &tables)?;
        if cfg.trace {
            self.replays(handle.addr(), &tables)?;
        }
        drop(clients);
        handle.shutdown();
        Ok(())
    }

    /// One segment of timed reads (plus the open-loop writer in `churn`).
    #[allow(clippy::too_many_arguments)]
    fn segment(
        &mut self,
        seg: usize,
        len: Duration,
        handle: &ServerHandle,
        clients: &mut [Client],
        tables: &mut [Published],
        writer: &mut Writer,
    ) -> Result<(), String> {
        let cfg = self.cfg;
        self.prime(clients);
        let mut sub = match cfg.workload {
            Workload::Churn => Some(subscribe(handle, &tables[0])?),
            _ => None,
        };
        let before = handle.stats();
        let origin = self.origin;
        let owner = self.owner;
        let batches = (CHURN_RATE * len.as_secs_f64()).round() as usize;
        let mut wtrace = Trace::new(true, origin);
        let start = Instant::now();
        let end = start + len;
        let (readers, ws) = std::thread::scope(|s| {
            let w = sub.as_mut().map(|sub| {
                let table = &mut tables[0];
                let (writer, wtrace) = (&mut *writer, &mut wtrace);
                s.spawn(move || {
                    UpdateRound {
                        owner,
                        handle,
                        table,
                        sub,
                        replay_delta: cfg.trace,
                    }
                    .run(
                        writer,
                        batches,
                        Schedule::Open {
                            start,
                            rate: CHURN_RATE,
                        },
                        wtrace,
                    )
                })
            });
            let hs: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(lane, c)| {
                    let base = (seg as u64) << 48 | (lane as u64 + 1) << 40;
                    s.spawn(move || reader_loop(c, end, cfg.trace, base, origin))
                })
                .collect();
            let readers: Vec<ReaderResult> = hs
                .into_iter()
                .map(|h| h.join().expect("reader thread"))
                .collect();
            (readers, w.map(|w| w.join().expect("writer thread")))
        });
        let after = handle.stats();
        self.window_secs += start.elapsed().min(len).as_secs_f64();
        self.cache.0 += after.cache_hits - before.cache_hits;
        self.cache.1 += after.cache_misses - before.cache_misses;
        for r in &readers {
            self.attempted += r.ok + r.failed;
            self.failed += r.failed;
            self.problems.extend(r.problems.iter().cloned());
        }
        self.readers.extend(readers);
        self.trace.absorb(wtrace);
        if let (Some(ws), Some(sub)) = (ws, sub.as_ref()) {
            if !same_rows(sub.rows().cloned(), &tables[0].st) {
                self.problems
                    .push("churn: subscriber mirror differs from the owner's table".into());
            }
            self.take_writer(ws);
        }
        Ok(())
    }

    /// A share of the closed-loop update probe on an otherwise idle server.
    fn probe(
        &mut self,
        count: usize,
        handle: &ServerHandle,
        tables: &mut [Published],
        writer: &mut Writer,
    ) -> Result<(), String> {
        let mut sub = subscribe(handle, &tables[0])?;
        let mut tr = Trace::new(true, self.origin);
        let ws = UpdateRound {
            owner: self.owner,
            handle,
            table: &mut tables[0],
            sub: &mut sub,
            replay_delta: self.cfg.trace,
        }
        .run(writer, count, Schedule::Closed, &mut tr);
        self.trace.absorb(tr);
        if !same_rows(sub.rows().cloned(), &tables[0].st) {
            self.problems
                .push("update probe: subscriber mirror differs from the owner's table".into());
        }
        self.take_writer(ws);
        Ok(())
    }

    fn take_writer(&mut self, ws: WriterStats) {
        self.attempted += ws.attempted;
        self.failed += ws.failed;
        self.problems.extend(ws.problems.iter().cloned());
        let w = &mut self.writer;
        w.update_ms.extend(ws.update_ms);
        w.lag_ms.extend(ws.lag_ms);
        w.sigs.extend(ws.sigs);
        w.delta_bytes.extend(ws.delta_bytes);
        w.log_bytes.extend(ws.log_bytes);
    }

    /// Replays the first `COUNT_QUERIES` answers of the seeded stream one
    /// at a time on the idle server: bytes, hash operations and
    /// signatures per answer repeat exactly for a seed.
    fn count_phase(&mut self, addr: SocketAddr, tables: &[Published]) -> Result<(), String> {
        let c = &mut self.counts;
        let mut outcomes = Vec::new();
        match self.cfg.workload {
            Workload::SqlHot => {
                let mut s = connect_sql(addr, tables)?;
                let certs: HashMap<u32, &Certificate> =
                    tables.iter().map(|t| (t.id, &t.cert)).collect();
                for stmt in gen::sql_statements(self.cfg.seed, tables[0].st.table()) {
                    let planned = s.plan(&stmt.sql).map_err(err("plan"))?;
                    let (rb, vb) = match s.client_mut().query_planned_raw(&planned.chosen.wire) {
                        Ok(x) => x,
                        Err(e) => {
                            outcomes.push(classify(e));
                            continue;
                        }
                    };
                    let before = adp_crypto::hash_ops();
                    let verified =
                        verify_plan(&planned.chosen.wire, |id| certs.get(&id).copied(), &rb, &vb);
                    let hashes = adp_crypto::hash_ops() - before;
                    match verified {
                        Ok(v) => {
                            c.answers += 1;
                            c.rows += v.rows_verified as u64;
                            c.result_bytes += rb.len() as u64;
                            c.vo_bytes += vb.len() as u64;
                            c.hash_ops += hashes;
                            c.sigs += v.signatures_verified as u64;
                            outcomes.push(match planned.chosen.finish(v.rows) {
                                Ok(out) => check_sql(&stmt, &out),
                                Err(e) => Outcome::Failed(e.to_string()),
                            });
                        }
                        Err(e) => outcomes.push(rejected(e)),
                    }
                }
            }
            _ => {
                let mut v = connect_select(addr, &tables[0].cert, 0)?;
                let mut stream = RangeStream::new(self.cfg.seed, 0, tables[0].st.domain());
                let keys = gen::keys_of(&tables[0].st);
                for _ in 0..COUNT_QUERIES {
                    let q = stream.next_query();
                    let before = v.stats();
                    match v.select(&q) {
                        Ok(r) => {
                            let after = v.stats();
                            c.answers += 1;
                            c.rows += r.report.matched as u64;
                            c.result_bytes += r.result_bytes as u64;
                            c.vo_bytes += r.vo_bytes as u64;
                            c.hash_ops += after.hash_ops - before.hash_ops;
                            c.sigs += r.report.signatures_verified as u64;
                            outcomes.push(count_check(
                                r.rows.len(),
                                Some(expected_rows(&keys, &q)),
                                &q,
                            ));
                        }
                        Err(e) => outcomes.push(classify(e)),
                    }
                }
            }
        }
        for o in outcomes {
            self.attempted += 1;
            if let Outcome::Mismatch(m) | Outcome::Rejected(m) | Outcome::Failed(m) = o {
                self.failed += 1;
                self.problems.push(format!("count phase: {m}"));
            }
        }
        Ok(())
    }

    /// Traced runs: replays the recorded request stream in-process
    /// through the server-side kernels, and plans select workloads'
    /// requests as the equivalent SQL.
    fn replays(&mut self, addr: SocketAddr, tables: &[Published]) -> Result<(), String> {
        let resolve = |id: u32| tables.iter().find(|t| t.id == id).map(|t| &t.st);
        let mut plans: Vec<WirePlan> = Vec::new();
        let mut selects: Vec<(u32, SelectQuery)> = Vec::new();
        let mut sqls: Vec<String> = Vec::new();
        let s = connect_sql(addr, tables)?;
        match self.cfg.workload {
            Workload::SqlHot => {
                for stmt in gen::sql_statements(self.cfg.seed, tables[0].st.table()) {
                    let planned = s.plan(&stmt.sql).map_err(err("plan"))?;
                    if let WirePlan::Select { table_id, query } = &planned.chosen.wire {
                        selects.push((*table_id, query.clone()));
                    }
                    plans.push(planned.chosen.wire);
                }
            }
            _ => {
                let cert = &tables[0].cert;
                let key = &cert.schema.columns()[cert.schema.key_index()].name;
                for sent in self.readers.iter().flat_map(|r| &r.sent) {
                    let Sent::Select(q) = sent else { continue };
                    selects.push((0, q.clone()));
                    plans.push(WirePlan::Select {
                        table_id: 0,
                        query: q.clone(),
                    });
                    if let (Bound::Included(lo), Bound::Included(hi)) = (q.range.lo, q.range.hi) {
                        sqls.push(format!(
                            "SELECT * FROM {} WHERE {key} BETWEEN {lo} AND {hi}",
                            cert.table_name
                        ));
                    }
                }
            }
        }
        let tr = &mut self.trace;
        for (i, (id, q)) in selects.iter().enumerate() {
            let Some(st) = resolve(*id) else { continue };
            let req = 2 << 60 | i as u64;
            let answer = tr.span("publisher.answer", req, None, || {
                Publisher::new(st).answer_select(q)
            });
            if let Ok((rows, vo)) = answer {
                tr.span("publisher.encode", req, None, || {
                    (wire::encode_records(&rows), wire::encode_vo(&vo))
                });
            }
        }
        for (i, plan) in plans.iter().enumerate() {
            let _ = tr.span("plan.answer", 3 << 60 | i as u64, None, || {
                compute_plan_answer(plan, resolve).map(|a| encode_plan_answer(&a))
            });
        }
        for (i, sql) in sqls.iter().enumerate() {
            if tr
                .span("client.plan", 4 << 60 | i as u64, None, || s.plan(sql))
                .is_err()
            {
                self.problems.push(format!("planner rejected {sql}"));
            }
        }
        Ok(())
    }

    /// Reopens every store and serves it again; timed until the first
    /// verified answer. Each restarted table must then match the owner's.
    /// The first traced restart also times snapshot decode and log replay
    /// apart.
    fn restart(&mut self, round: usize, tables: &[Published]) -> Result<ServerHandle, String> {
        if self.cfg.trace && round == 0 {
            self.decompose_open(tables)?;
        }
        let start = Instant::now();
        let mut server = Server::new(server_config());
        for t in tables {
            let dir = &t.dir;
            let store = open_retrying(|| {
                self.trace
                    .span("store.open", round as u64, None, || Store::open(dir))
            })?;
            if !self
                .trace
                .span("store.audit", round as u64, None, || store.audit())
            {
                self.problems
                    .push(format!("restart: table {} fails its audit", t.id));
            }
            server.add_store(t.id, store);
        }
        if self.cfg.tamper {
            mount_tamper(&mut server);
        }
        let handle = server.serve("127.0.0.1:0").map_err(err("serve"))?;
        let addr = handle.addr();
        self.attempted += 1;
        let first = match self.cfg.workload {
            Workload::SqlHot => {
                let mut s = connect_sql(addr, tables)?;
                let stmt = gen::sql_statements(self.cfg.seed, tables[0].st.table()).swap_remove(0);
                s.query_sql(&stmt.sql)
                    .map(|out| check_sql(&stmt, &out.output))
            }
            _ => {
                let mut v = connect_select(addr, &tables[0].cert, 0)?;
                let q = RangeStream::new(self.cfg.seed, 0, tables[0].st.domain()).next_query();
                let n = expected_rows(&gen::keys_of(&tables[0].st), &q);
                v.select(&q).map(|r| count_check(r.rows.len(), Some(n), &q))
            }
        };
        match first {
            Ok(Outcome::Verified) => self.restart_s.push(start.elapsed().as_secs_f64()),
            Ok(Outcome::Mismatch(m) | Outcome::Rejected(m) | Outcome::Failed(m)) => {
                self.failed += 1;
                self.problems.push(format!("restart: first answer: {m}"));
            }
            Err(e) => {
                self.failed += 1;
                self.problems.push(format!("restart: first answer: {e}"));
            }
        }
        for t in tables {
            let mut v = connect_select(addr, &t.cert, t.id)?;
            match v.select(&SelectQuery::range(KeyRange::all())) {
                Ok(r) if same_rows(r.rows.iter().cloned(), &t.st) => {}
                Ok(_) => self
                    .problems
                    .push(format!("restart: table {} differs from the owner's", t.id)),
                Err(e) => self
                    .problems
                    .push(format!("restart: full range of table {}: {e}", t.id)),
            }
        }
        Ok(handle)
    }

    /// Times snapshot decode and log replay apart (the table is cloned
    /// outside the replay span, so the span holds only the replay).
    fn decompose_open(&mut self, tables: &[Published]) -> Result<(), String> {
        for t in tables {
            let snap = std::fs::read(t.dir.join(SNAPSHOT_FILE)).map_err(err("read snapshot"))?;
            let (table, _) = self
                .trace
                .span("store.decode_snapshot", 0, None, || {
                    adp_store::format::decode_snapshot(&snap)
                })
                .map_err(err("decode_snapshot"))?;
            let log = std::fs::read(t.dir.join(LOG_FILE)).map_err(err("read log"))?;
            let body = adp_store::log::check_log_header(&log).map_err(err("log header"))?;
            let records = adp_store::log::decode_records(body).map_err(err("log records"))?;
            let mut replayed = table.clone();
            self.trace
                .span("store.replay", 0, None, || {
                    records
                        .iter()
                        .try_for_each(|r| replayed.replay_batch(&r.ops, &r.resigned))
                })
                .map_err(err("replay"))?;
        }
        Ok(())
    }

    // -----------------------------------------------------------------------
    // Metrics
    // -----------------------------------------------------------------------

    fn report(mut self) -> Report {
        let lat: Vec<f64> = self
            .readers
            .iter()
            .flat_map(|r| r.lat_us.iter().copied())
            .collect();
        let ok: u64 = self.readers.iter().map(|r| r.ok).sum();
        let qps = ok as f64 / self.window_secs;
        let limit_us = REQUEST_LIMIT.as_secs_f64() * 1e6;
        let limit_ms = limit_us / 1e3;
        let pct = |s: &[f64], p: f64, limit: f64| {
            stats::percentile(s, p).map_or(f64::NAN, |v| v.min(limit))
        };
        let p50 = pct(&lat, 50.0, limit_us);
        let upd = &self.writer.update_ms;
        let c = &self.counts;
        let med = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);

        let cfg = self.cfg;
        let sc = server_config();
        let mut server = Json::new();
        server
            .int("workers", sc.workers as u64)
            .int("cache_capacity", sc.cache_capacity as u64)
            .int("shards", sc.shards as u64)
            .num("frame_timeout_s", sc.frame_timeout.as_secs_f64())
            .num(
                "idle_timeout_s",
                sc.idle_timeout.map_or(f64::NAN, |d| d.as_secs_f64()),
            )
            .int("write_queue_limit", sc.write_queue_limit as u64)
            .int("max_push_bytes", sc.max_push_bytes as u64);
        let mut samples = Json::new();
        samples
            .int("reads", lat.len() as u64)
            .int("reads_beyond_p90", stats::beyond(&lat, 90.0) as u64)
            .int("updates", upd.len() as u64)
            .int("updates_beyond_p90", stats::beyond(upd, 90.0) as u64)
            .int("setups", self.setup_s.len() as u64)
            .int("restarts", self.restart_s.len() as u64);
        let mut counts = Json::new();
        counts
            .int("answers", c.answers)
            .int("rows", c.rows)
            .int("result_bytes", c.result_bytes)
            .int("vo_bytes", c.vo_bytes)
            .int("hash_ops", c.hash_ops)
            .int("sigs_verified", c.sigs)
            .num("batch_sigs", self.writer.sigs.iter().sum())
            .num("batch_log_bytes", self.writer.log_bytes.iter().sum())
            .num("batch_delta_bytes", self.writer.delta_bytes.iter().sum());
        let mut detail = Json::new();
        detail
            .str("workload", cfg.workload.name())
            .int("seed", cfg.seed)
            .num("seconds", cfg.seconds)
            .int("segments", cfg.segments as u64)
            .boolean("trace", cfg.trace)
            .obj("server_config", &server)
            .str("flush_policy", FLUSH_POLICY)
            .int(
                "available_parallelism",
                std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            )
            .obj("samples", &samples)
            .obj("counts", &counts)
            .num("latency_limit_us", limit_us)
            .num("latency_p99_us_ungated", pct(&lat, 99.0, limit_us));

        let metrics = if cfg.trace {
            self.layer_metrics(p50, &mut detail)
        } else {
            let m = |name, value, unit| Metric { name, value, unit };
            vec![
                m("setup_s", med(&self.setup_s), "s"),
                m("qps", qps, "1/s"),
                m("latency_p50_us", p50, "us"),
                m("latency_p90_us", pct(&lat, 90.0, limit_us), "us"),
                m(
                    "verified_ratio",
                    1.0 - self.failed as f64 / self.attempted.max(1) as f64,
                    "ratio",
                ),
                m(
                    "wire_bytes_per_row",
                    (c.result_bytes + c.vo_bytes) as f64 / c.rows.max(1) as f64,
                    "B/row",
                ),
                m(
                    "peak_rss_mb",
                    stats::peak_rss_mb().unwrap_or(f64::NAN),
                    "MB",
                ),
                m("update_p50_ms", pct(upd, 50.0, limit_ms), "ms"),
                m("update_p90_ms", pct(upd, 90.0, limit_ms), "ms"),
                m("restart_s", med(&self.restart_s), "s"),
            ]
        };
        let spans_written = match (&cfg.spans_out, cfg.trace) {
            (Some(path), true) => {
                let mut all = std::mem::replace(&mut self.trace, Trace::new(false, self.origin));
                for r in &mut self.readers {
                    all.absorb(std::mem::replace(
                        &mut r.trace,
                        Trace::new(false, self.origin),
                    ));
                }
                match all.write_csv(path) {
                    Ok(()) => true,
                    Err(e) => {
                        self.problems.push(format!("write spans: {e}"));
                        false
                    }
                }
            }
            _ => false,
        };
        detail.boolean("spans_written", spans_written);
        for m in &metrics {
            if !m.value.is_finite() {
                self.problems
                    .push(format!("metric {} was not measured", m.name));
            }
        }
        let mut problems = Json::new();
        for (i, p) in self.problems.iter().take(20).enumerate() {
            problems.str(&i.to_string(), p);
        }
        detail.obj("problems", &problems);
        Report {
            correct: self.problems.is_empty(),
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            problems: self.problems,
            detail,
        }
    }

    fn layer_metrics(&mut self, p50_untraced: f64, detail: &mut Json) -> Vec<Metric> {
        let med = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
        let mean = |v: &[f64]| stats::mean(v).unwrap_or(f64::NAN);
        // In a closed loop each client's qps is 1 / its mean latency, so
        // the tracing overhead in qps is the ratio of the mean latencies of
        // the untraced and traced requests.
        let mean_of = |f: fn(&ReaderResult) -> &Vec<f64>| {
            let v: Vec<f64> = self
                .readers
                .iter()
                .flat_map(|r| f(r).iter().copied().filter(|x| x.is_finite()))
                .collect();
            mean(&v)
        };
        let (untraced_us, traced_us) = (mean_of(|r| &r.lat_us), mean_of(|r| &r.traced_lat_us));

        // Self times of the readers' spans, and each request's client-side
        // total (the sum of its child spans).
        let mut by = self.trace.self_us_by_name();
        let mut per_request = Vec::new();
        for r in &self.readers {
            for (name, v) in r.trace.self_us_by_name() {
                by.entry(name).or_default().extend(v);
            }
            let mut child_sum = vec![0u64; r.trace.spans().len()];
            for s in r.trace.spans() {
                if let Some(p) = s.parent {
                    child_sum[p] += s.dur_ns();
                }
            }
            per_request.extend(
                r.trace
                    .spans()
                    .iter()
                    .zip(child_sum)
                    .filter(|(s, _)| s.parent.is_none())
                    .map(|(_, sum)| sum as f64 / 1e3),
            );
        }
        let span = |name: &str| {
            by.get(name)
                .map_or(f64::NAN, |v| med(&v.values().copied().collect::<Vec<_>>()))
        };
        let reconcile = med(&per_request) / p50_untraced;
        if (reconcile - 1.0).abs() > RECONCILE_TOLERANCE {
            self.problems.push(format!(
                "client spans sum to {reconcile:.3}x the untraced latency_p50_us \
                 (tolerance {RECONCILE_TOLERANCE})"
            ));
        }
        detail
            .num("reconcile_tolerance", RECONCILE_TOLERANCE)
            .num("mean_latency_untraced_us", untraced_us)
            .num("mean_latency_traced_us", traced_us);

        let (hits, misses) = self.cache;
        let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
        let roundtrip = span("server.roundtrip");
        let miss_cost = match self.cfg.workload {
            Workload::SqlHot => span("plan.answer"),
            _ => span("publisher.answer") + span("publisher.encode"),
        };
        let c = &self.counts;
        let per_answer = |v: u64| v as f64 / c.answers.max(1) as f64;
        let w = &self.writer;
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("client.verify_us", span("client.verify"), "us"),
            m("client.decode_us", span("client.decode"), "us"),
            m("client.plan_us", span("client.plan"), "us"),
            m(
                "client.hash_ops_per_answer",
                per_answer(c.hash_ops),
                "count",
            ),
            m(
                "client.sigs_verified_per_answer",
                per_answer(c.sigs),
                "count",
            ),
            m("server.roundtrip_us", roundtrip, "us"),
            m(
                "server.overhead_us",
                roundtrip - (1.0 - hit_ratio) * miss_cost,
                "us",
            ),
            m("server.cache_hit_ratio", hit_ratio, "ratio"),
            m("publisher.answer_us", span("publisher.answer"), "us"),
            m("publisher.encode_us", span("publisher.encode"), "us"),
            m("plan.answer_us", span("plan.answer"), "us"),
            m("wire.vo_bytes_per_answer", per_answer(c.vo_bytes), "count"),
            m(
                "wire.result_bytes_per_answer",
                per_answer(c.result_bytes),
                "count",
            ),
            m("owner.sign_table_s", span("owner.sign_table") / 1e6, "s"),
            m(
                "owner.apply_batch_ms",
                span("owner.apply_batch") / 1e3,
                "ms",
            ),
            m("owner.sigs_per_batch", mean(&w.sigs), "count"),
            m("owner.schedule_lag_ms", med(&w.lag_ms), "ms"),
            m(
                "server.apply_update_ms",
                span("server.apply_update") / 1e3,
                "ms",
            ),
            m("delta.build_us", span("delta.build"), "us"),
            m("sub.wait_ms", span("sub.wait") / 1e3, "ms"),
            m("sub.delta_bytes_per_batch", mean(&w.delta_bytes), "count"),
            m("store.log_bytes_per_batch", mean(&w.log_bytes), "count"),
            m(
                "store.decode_snapshot_s",
                span("store.decode_snapshot") / 1e6,
                "s",
            ),
            m("store.replay_ms", span("store.replay") / 1e3, "ms"),
            m("store.open_s", span("store.open") / 1e6, "s"),
            m("store.audit_s", span("store.audit") / 1e6, "s"),
            m(
                "trace.overhead_pct",
                (1.0 - untraced_us / traced_us) * 100.0,
                "%",
            ),
            m("trace.reconcile_ratio", reconcile, "ratio"),
        ]
    }
}

fn subscribe(handle: &ServerHandle, table: &Published) -> Result<RemoteSubscriber, String> {
    RemoteSubscriber::subscribe(
        handle.addr(),
        table.cert.clone(),
        table.id,
        1,
        KeyRange::all(),
    )
    .map_err(err("subscribe"))
}

/// Shuts a setup round's server down and removes its stores.
fn drop_deployment(handle: ServerHandle, tables: Vec<Published>) {
    handle.shutdown();
    for t in tables {
        let _ = std::fs::remove_dir_all(&t.dir);
    }
}

/// `Store::open`, retried briefly while the previous server releases the
/// directory's writer lock.
fn open_retrying(
    mut open: impl FnMut() -> Result<Store, adp_store::StoreError>,
) -> Result<Store, String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match open() {
            Ok(s) => return Ok(s),
            Err(adp_store::StoreError::Locked { .. }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(format!("Store::open: {e}")),
        }
    }
}
