//! The closed loop: one thread per connection, each sending its next
//! statement only after the previous reply arrived.

use crate::deploy::{stored_name, TENANT, TOKEN};
use crate::gen::{Class, Data, Expect, Stmt, Workload};
use crate::oracle::{LogChecker, RowLog, Rows, StaticOracle};
use crate::traced::{Span, Tracer};
use encdbdb::server::ServerFilter;
use encdbdb::{DbaasServer, MetricsReport, NetClient, ReaderSession};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One completed statement.
#[derive(Debug, Clone)]
pub struct Record {
    /// Statement class.
    pub class: Class,
    /// Statement shape.
    pub shape: &'static str,
    /// `NetClient::execute` latency in µs.
    pub us: f64,
    /// Whether this statement was a traced one (its layers were also
    /// called one by one, before or after it).
    pub traced: bool,
    /// Whether a compaction merge overlapped the statement.
    pub during_merge: bool,
    /// Rows the statement inserted, once acknowledged.
    pub ingested: u64,
}

/// A read of `ingest_mixed`, checked after the run.
#[derive(Debug)]
struct PendingRead {
    index: usize,
    rows: Rows,
    first: u64,
    last: u64,
}

/// What one connection did.
#[derive(Debug, Default)]
pub struct ConnOut {
    /// Completed statements.
    pub records: Vec<Record>,
    /// Statements attempted.
    pub attempted: u64,
    /// Statements that errored, were refused, or failed the oracle.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Rows acknowledged by `INSERT`.
    pub rows_ingested: u64,
    /// Spans of traced statements.
    pub spans: Vec<Span>,
    pending: Vec<PendingRead>,
    log: Option<RowLog>,
}

impl ConnOut {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }
}

/// What the run shares between its connections.
pub struct Ctx<'a> {
    /// Generated inputs.
    pub data: &'a Data,
    /// Server address.
    pub addr: SocketAddr,
    /// Server handle (merge state, counter snapshots), when the server
    /// runs in this process.
    pub server: Option<&'a DbaasServer>,
    /// Oracle for the OLAP tables.
    pub oracle: Option<StaticOracle>,
    /// Traced-run decomposition, if tracing.
    pub tracer: Option<&'a Tracer>,
    /// Writes sent (ingest version bookkeeping).
    sent: AtomicU64,
    /// Writes acknowledged and applied to the row log.
    acked: AtomicU64,
}

impl<'a> Ctx<'a> {
    /// Sets up the shared state of a run.
    pub fn new(
        data: &'a Data,
        addr: SocketAddr,
        server: Option<&'a DbaasServer>,
        tracer: Option<&'a Tracer>,
    ) -> Self {
        Ctx {
            data,
            addr,
            server,
            oracle: (data.workload != Workload::IngestMixed)
                .then(|| StaticOracle::new(&data.tables[0])),
            tracer,
            sent: AtomicU64::new(0),
            acked: AtomicU64::new(0),
        }
    }

    fn merge_state(&self) -> (bool, u64) {
        let Some(server) = self.server else {
            return (false, 0);
        };
        let t = stored_name(self.data.tables[0].name);
        (
            server.merge_in_flight(&t).unwrap_or(false),
            server.epoch(&t).unwrap_or(0),
        )
    }
}

/// Rewrites the client-visible table name to the stored one, as the net
/// server's namespacing does, for the in-process pairing.
fn qualify(st: &Stmt, data: &Data) -> String {
    let name = data.tables[st.table].name;
    let stored = stored_name(name);
    let mut out = st.sql.clone();
    for kw in ["FROM", "INTO"] {
        let pat = format!("{kw} {name} ");
        if let Some(at) = out.find(&pat) {
            out.replace_range(at..at + pat.len(), &format!("{kw} {stored} "));
            break;
        }
    }
    out
}

fn affected(rows: &Rows) -> Option<usize> {
    match rows.as_slice() {
        [row] if row.len() == 1 => std::str::from_utf8(&row[0]).ok()?.parse().ok(),
        _ => None,
    }
}

/// Sub-windows a traced run is split into. It traces every statement
/// sent in the odd ones and none in the even ones, which give the
/// untraced baseline and the untraced counter deltas.
pub const SUB_WINDOWS: usize = 6;

/// Whether a statement sent `at_s` seconds into a traced run of
/// `seconds` is traced.
fn in_traced_window(at_s: f64, seconds: f64) -> bool {
    let i = (at_s / (seconds / SUB_WINDOWS as f64)) as usize;
    i % 2 == 1
}

/// Sends `st` over the wire and records its latency.
fn over_wire(
    ctx: &Ctx,
    client: &mut NetClient,
    st: &Stmt,
    stmt_id: u64,
    traced: bool,
    out: &mut ConnOut,
) -> Result<Rows, String> {
    // Merge overlap feeds only a per-layer metric, so untraced runs skip
    // the probe.
    let probe = ctx.data.workload == Workload::IngestMixed && ctx.tracer.is_some();
    let merge0 = if probe { ctx.merge_state() } else { (false, 0) };
    let t0 = Instant::now();
    let r = client.execute(&st.sql);
    let dur = t0.elapsed();
    let merge1 = if probe { ctx.merge_state() } else { (false, 0) };
    out.records.push(Record {
        class: st.class,
        shape: st.shape,
        us: dur.as_secs_f64() * 1e6,
        traced,
        during_merge: merge0.0 || merge1.0 || merge0.1 != merge1.1,
        ingested: 0,
    });
    if let Some(tracer) = ctx.tracer.filter(|_| traced) {
        out.spans
            .push(tracer.e2e_span(t0, dur.as_nanos() as u64, st.class, stmt_id));
    }
    r.map(|q| q.rows).map_err(|e| e.to_string())
}

/// A traced read runs three ways: over the wire (step 0), decomposed
/// layer by layer (step 1), and in process (step 2). Every run after the
/// first finds the value cache warmed by the earlier ones, so the step
/// that runs first rotates from one traced read to the next, and each
/// path runs first, second and third equally often.
const READ_STEPS: usize = 3;

/// Step 1 or 2 of a traced read. The decomposed result is checked
/// against the oracle too, on static tables; its first filter is
/// returned for the twin search.
#[allow(clippy::too_many_arguments)]
fn traced_step(
    ctx: &Ctx,
    tracer: &Tracer,
    step: usize,
    st: &Stmt,
    stmt_id: u64,
    reader: Option<&mut ReaderSession>,
    rng: &mut StdRng,
    spans: &mut Vec<Span>,
) -> Result<Option<ServerFilter>, String> {
    if step == 1 {
        let (rows, filter) = tracer.decomposed(&st.sql, st.class, stmt_id, rng, spans)?;
        if let Some(oracle) = &ctx.oracle {
            oracle.check(&st.expect, &rows)?;
        }
        return Ok(filter);
    }
    let reader = reader.ok_or("no in-process session")?;
    tracer.in_process(reader, &qualify(st, ctx.data), st.class, stmt_id, spans)?;
    Ok(None)
}

/// Runs connection `conn` for `seconds` from `start`.
fn connection(
    ctx: &Ctx,
    conn: usize,
    start: Instant,
    seconds: f64,
    mut reader: Option<&mut ReaderSession>,
    seed: u64,
) -> ConnOut {
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut out = ConnOut::default();
    let data = ctx.data;
    let ingest = data.workload == Workload::IngestMixed;
    if ingest && conn == 0 {
        out.log = Some(RowLog::new(&data.tables[0]));
    }
    let mut client = match NetClient::connect(ctx.addr, TENANT, TOKEN) {
        Ok(c) => c,
        Err(e) => {
            out.attempted = 1;
            out.fail(format!("connect: {e}"));
            return out;
        }
    };
    let mut rng = StdRng::seed_from_u64(seed ^ (0xE1C0 + conn as u64));
    let stream = &data.streams[conn];
    let mut i = 0usize;
    let mut traced_reads = 0usize;
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let index = i % stream.len();
        let st = &stream[index];
        let stmt_id = ((conn as u64) << 32) | i as u64;
        let traced = ctx.tracer.is_some()
            && in_traced_window(now.duration_since(start).as_secs_f64(), seconds);
        i += 1;
        out.attempted += 1;
        let is_write = st.class == Class::Write;
        let first = ctx.acked.load(Ordering::SeqCst);
        if ingest && is_write {
            let log = out.log.as_ref().expect("the writer owns the row log");
            ctx.sent.store(log.version() + 1, Ordering::SeqCst);
        }

        let result: Result<Rows, String> = match ctx.tracer {
            Some(tracer) if traced && is_write => tracer
                .decomposed(&st.sql, st.class, stmt_id, &mut rng, &mut out.spans)
                .map(|(rows, _)| rows),
            Some(tracer) if traced => {
                let first_step = traced_reads % READ_STEPS;
                traced_reads += 1;
                let mut wire = Err("not sent".to_string());
                let mut filter = None;
                for k in 0..READ_STEPS {
                    let step = (first_step + k) % READ_STEPS;
                    if step == 0 {
                        wire = over_wire(ctx, &mut client, st, stmt_id, true, &mut out);
                        continue;
                    }
                    let r = traced_step(
                        ctx,
                        tracer,
                        step,
                        st,
                        stmt_id,
                        reader.as_deref_mut(),
                        &mut rng,
                        &mut out.spans,
                    );
                    match r {
                        Ok(f) => filter = filter.or(f),
                        Err(e) => out.fail(format!("traced {}: {e}", st.shape)),
                    }
                }
                if let Some(f) = filter {
                    let table = &data.tables[0];
                    let r = tracer.twin_search(&f, table, st.class, stmt_id, &mut out.spans);
                    if let Err(e) = r {
                        out.fail(format!("traced {}: {e}", st.shape));
                    }
                }
                wire
            }
            _ => over_wire(ctx, &mut client, st, stmt_id, false, &mut out),
        };
        let rows = match result {
            Ok(rows) => rows,
            Err(e) => {
                out.fail(format!("{}: {e}", st.shape));
                continue;
            }
        };
        match &st.expect {
            Expect::Insert { .. } | Expect::Delete { .. } => {
                let want = match out.log.as_mut() {
                    Some(log) => {
                        let n = log.apply(&st.expect);
                        ctx.acked.store(log.version(), Ordering::SeqCst);
                        n
                    }
                    None => match &st.expect {
                        Expect::Insert { rows } => rows.len(),
                        _ => unreachable!("OLAP workloads only insert"),
                    },
                };
                match affected(&rows) {
                    Some(n) if n == want => {
                        if matches!(st.expect, Expect::Insert { .. }) {
                            out.rows_ingested += n as u64;
                            if let Some(r) = out.records.last_mut().filter(|_| !traced) {
                                r.ingested = n as u64;
                            }
                        }
                    }
                    got => out.fail(format!("{}: affected {got:?}, want {want}", st.shape)),
                }
            }
            expect => match &ctx.oracle {
                Some(oracle) => {
                    if let Err(e) = oracle.check(expect, &rows) {
                        out.fail(format!("{}: {e}", st.shape));
                    }
                }
                None => out.pending.push(PendingRead {
                    index,
                    rows,
                    first,
                    last: ctx.sent.load(Ordering::SeqCst),
                }),
            },
        }
    }
    client.close();
    out
}

/// The result of a run's measured window.
#[derive(Debug)]
pub struct LoopResult {
    /// Each connection's records etc.
    pub conns: Vec<ConnOut>,
    /// Length of the window in seconds: from the start until the last
    /// connection's last reply.
    pub window_s: f64,
    /// The row log of `ingest_mixed`, frozen after the run.
    pub checker: Option<LogChecker>,
    /// On a traced run, the server's metrics at the start, at each
    /// sub-window boundary and at the end.
    pub snapshots: Vec<MetricsReport>,
}

/// Drives the connections for `seconds` and checks deferred reads.
/// `readers` holds the in-process sessions a traced run pairs reads
/// with; an untraced run passes none.
pub fn run_loop(ctx: &Ctx, readers: &mut [ReaderSession], seconds: f64, seed: u64) -> LoopResult {
    let snapshot = || {
        ctx.server
            .filter(|_| ctx.tracer.is_some())
            .map(|s| s.obs().metrics_report())
    };
    let mut snapshots: Vec<MetricsReport> = snapshot().into_iter().collect();
    let start = Instant::now();
    let n = ctx.data.streams.len();
    let (mut conns, window_s) = std::thread::scope(|s| {
        let mut readers = readers.iter_mut();
        let handles: Vec<_> = (0..n)
            .map(|conn| {
                let reader = readers.next();
                s.spawn(move || connection(ctx, conn, start, seconds, reader, seed))
            })
            .collect();
        if !snapshots.is_empty() {
            for k in 1..SUB_WINDOWS {
                let at = start + Duration::from_secs_f64(seconds * k as f64 / SUB_WINDOWS as f64);
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                snapshots.extend(snapshot());
            }
        }
        let conns: Vec<ConnOut> = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect();
        (conns, start.elapsed().as_secs_f64())
    });
    snapshots.extend(snapshot());
    let checker = conns[0].log.take().map(RowLog::into_checker);
    if let Some(checker) = &checker {
        for (stream, conn) in ctx.data.streams.iter().zip(conns.iter_mut()) {
            for p in std::mem::take(&mut conn.pending) {
                let st = &stream[p.index];
                if let Err(e) = checker.check(&st.expect, &p.rows, p.first, p.last) {
                    conn.fail(format!("{}: {e}", st.shape));
                }
            }
        }
    }
    LoopResult {
        conns,
        window_s,
        checker,
        snapshots,
    }
}
