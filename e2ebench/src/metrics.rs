//! Turns a run's records, spans and counters into the reported metrics.

use crate::gen::Class;
use crate::json::{array, Obj};
use crate::run::{LoopResult, Record};
use crate::stats::{median, percentile, rate, ratio};
use crate::traced::Span;
use encdbdb::MetricsReport;
use std::collections::BTreeMap;

/// Metrics in report order: name → (value, unit).
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Renders `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_obj(&self) -> Obj {
        let mut o = Obj::new();
        for (name, value, unit) in &self.0 {
            let mut m = Obj::new();
            m.num("value", *value).str("unit", unit);
            o.obj(name, m);
        }
        o
    }
}

/// Counter deltas from a traced run's metrics snapshots, taken at the
/// start, at each sub-window boundary and at the end.
struct Counters<'a>(&'a [MetricsReport]);

impl Counters<'_> {
    fn step(&self, k: usize, name: &str) -> f64 {
        match (self.0.get(k), self.0.get(k + 1)) {
            (Some(a), Some(b)) => (b.counter(name) - a.counter(name)) as f64,
            _ => 0.0,
        }
    }

    /// Over the whole window.
    fn delta(&self, name: &str) -> f64 {
        (0..self.0.len()).map(|k| self.step(k, name)).sum()
    }

    /// Over the untraced (even) sub-windows only, where every statement
    /// ran once, over the wire.
    fn untraced(&self, name: &str) -> f64 {
        (0..self.0.len())
            .step_by(2)
            .map(|k| self.step(k, name))
            .sum()
    }
}

fn latencies<'a>(records: impl Iterator<Item = &'a Record>, class: Class) -> Vec<f64> {
    records.filter(|r| r.class == class).map(|r| r.us).collect()
}

fn all_records(res: &LoopResult) -> impl Iterator<Item = &Record> + Clone {
    res.conns.iter().flat_map(|c| c.records.iter())
}

/// Resource figures measured around the run.
pub struct Resources {
    /// Median set-up time in seconds.
    pub setup_s: f64,
    /// Column storage over plaintext bytes of the workload's table.
    pub bytes_per_plain_byte: f64,
    /// Peak resident set in MiB.
    pub rss_peak_mib: f64,
}

/// The end-to-end metrics of an untraced run. Percentiles and rates are
/// taken over the whole window. `ingest_mixed` runs through five or six
/// merge cycles in a window, each a ramp of read latency followed by a
/// stall; over the whole window every figure holds all of them, where a
/// median of per-stretch figures swung with how the stretches happened
/// to cut the cycles (spreads of 0.29 against 0.09 over five seeds).
pub fn end_to_end(res: &LoopResult, r: &Resources) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", r.setup_s, "s");
    let recs = || all_records(res).filter(|r| !r.traced);
    for class in Class::ALL {
        let lat = latencies(recs(), class);
        m.put(
            format!("{}_p50_us", class.name()),
            percentile(&lat, 50.0).unwrap_or(0.0),
            "us",
        );
        // No write p95: it sat on the edge between writes that do and do
        // not wait on a merge or on the other connection, and moved by
        // 0.35-0.8 of its median between seeds.
        if class != Class::Write {
            m.put(
                format!("{}_p95_us", class.name()),
                percentile(&lat, 95.0).unwrap_or(0.0),
                "us",
            );
        }
    }
    let reads = recs().filter(|r| r.class != Class::Write).count();
    m.put("reads_per_s", rate(reads as u64, res.window_s), "1/s");
    let ingested = recs().map(|r| r.ingested).sum();
    m.put("rows_ingested_per_s", rate(ingested, res.window_s), "1/s");
    m.put("bytes_per_plain_byte", r.bytes_per_plain_byte, "ratio");
    m.put("rss_peak_mib", r.rss_peak_mib, "MiB");
    m
}

/// Untraced latencies by statement shape, for the human summary.
pub fn by_shape(res: &LoopResult) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in all_records(res).filter(|r| !r.traced) {
        by.entry(r.shape).or_default().push(r.us);
    }
    by
}

/// Spans of one statement, by layer name.
type StmtSpans<'a> = BTreeMap<&'static str, &'a Span>;

/// The layers a statement's end-to-end time is broken into.
const LAYERS: [&str; 5] = [
    "sql.parse",
    "proxy.encrypt",
    "server.exec",
    "proxy.decrypt",
    "net.overhead",
];

/// The traced run's per-layer metrics plus a breakdown report.
pub struct Traced {
    /// Per-layer metrics.
    pub metrics: Metrics,
    /// Per-class, per-layer medians and the unattributed gap, as JSON.
    pub breakdown: Obj,
}

/// Inputs of the traced-run metrics beyond the loop result.
pub struct TraceInputs {
    /// Growth of the storage directory in bytes.
    pub disk_growth: f64,
    /// PAE encrypt / decrypt ns per value.
    pub pae_ns: (f64, f64),
    /// Higher trusted-heap peak of the query and merge enclaves, in KiB.
    pub heap_peak_kib: f64,
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

/// Computes the per-layer metrics of a traced run.
pub fn traced(res: &LoopResult, inp: &TraceInputs) -> Traced {
    let counters = Counters(&res.snapshots);
    let spans: Vec<&Span> = res.conns.iter().flat_map(|c| c.spans.iter()).collect();
    let mut stmts: BTreeMap<u64, (Class, StmtSpans)> = BTreeMap::new();
    let mut searches: Vec<&Span> = Vec::new();
    let mut scans: Vec<&Span> = Vec::new();
    for s in &spans {
        match s.name {
            "enclave.search" => searches.push(s),
            "avscan" => scans.push(s),
            _ => {}
        }
        stmts
            .entry(s.stmt)
            .or_insert_with(|| (s.class, BTreeMap::new()))
            .1
            .insert(s.name, s);
    }
    let us = |s: &Span| s.dur_ns as f64 / 1e3;
    // Per-class samples of each layer, with net.overhead and server.self
    // derived per statement.
    let mut layer: BTreeMap<(Class, &'static str), Vec<f64>> = BTreeMap::new();
    for (class, by) in stmts.values() {
        for (name, s) in by {
            layer.entry((*class, name)).or_default().push(us(s));
        }
        if let (Some(e2e), Some(inproc)) = (by.get("net.client"), by.get("session.exec")) {
            layer
                .entry((*class, "net.overhead"))
                .or_default()
                .push(us(e2e) - us(inproc));
        }
        if let Some(exec) = by.get("server.exec") {
            let inner: f64 = ["enclave.search", "avscan"]
                .iter()
                .filter_map(|n| by.get(n))
                .map(|s| us(s))
                .sum();
            if by.contains_key("avscan") {
                layer
                    .entry((*class, "server.self"))
                    .or_default()
                    .push(us(exec) - inner);
            }
        }
    }
    let lmed = |class: Class, name: &str| layer.get(&(class, name)).map(|v| med(v));

    let recs = || all_records(res);
    let reads_untraced: Vec<f64> = recs()
        .filter(|r| !r.traced && r.class != Class::Write)
        .map(|r| r.us)
        .collect();
    let reads_traced: Vec<f64> = recs()
        .filter(|r| r.traced && r.class != Class::Write)
        .map(|r| r.us)
        .collect();

    let mut m = Metrics::default();
    let reads_over_net: Vec<f64> = stmts
        .values()
        .filter_map(|(_, by)| by.get("net.client").zip(by.get("session.exec")))
        .map(|(e, i)| us(e) - us(i))
        .collect();
    m.put("net.overhead_us", med(&reads_over_net), "us");
    // Counter ratios come from the untraced sub-windows, where each
    // statement ran once and over the wire.
    let untraced_n = recs().filter(|r| !r.traced).count() as f64;
    let untraced_writes = recs()
        .filter(|r| !r.traced && r.class == Class::Write)
        .count() as f64;
    m.put(
        "net.bytes_per_read",
        ratio(
            counters.untraced("net_bytes_out_total"),
            untraced_n - untraced_writes,
        ),
        "bytes",
    );
    m.put(
        "net.busy_replies",
        counters.delta("net_busy_replies_total"),
        "count",
    );
    let mut breakdown = Obj::new();
    for class in Class::ALL {
        let c = class.name();
        m.put(
            format!("sql.parse_us.{c}"),
            lmed(class, "sql.parse").unwrap_or(0.0),
            "us",
        );
        m.put(
            format!("proxy.encrypt_us.{c}"),
            lmed(class, "proxy.encrypt").unwrap_or(0.0),
            "us",
        );
        m.put(
            format!("server.exec_us.{c}"),
            lmed(class, "server.exec").unwrap_or(0.0),
            "us",
        );
        if class != Class::Write {
            m.put(
                format!("server.self_us.{c}"),
                lmed(class, "server.self").unwrap_or(0.0),
                "us",
            );
            m.put(
                format!("proxy.decrypt_us.{c}"),
                lmed(class, "proxy.decrypt").unwrap_or(0.0),
                "us",
            );
            let cells: Vec<f64> = stmts
                .values()
                .filter(|(k, _)| *k == class)
                .filter_map(|(_, by)| by.get("proxy.decrypt"))
                .map(|s| s.arg as f64)
                .collect();
            m.put(format!("proxy.cells_decrypted.{c}"), med(&cells), "count");
        }
        // The end-to-end median the layers are subtracted from: traced
        // NetClient reads, or the untraced writes (a traced write takes
        // the decomposed path instead of the wire).
        let e2e: Vec<f64> = recs()
            .filter(|r| r.class == class && (r.traced == (class != Class::Write)))
            .map(|r| r.us)
            .collect();
        let e2e_med = med(&e2e);
        let mut layers = Obj::new();
        let mut sum = 0.0;
        for name in LAYERS {
            match lmed(class, name) {
                Some(v) => {
                    sum += v;
                    layers.num(name, v);
                }
                None => {
                    layers.str(name, "not separated");
                }
            }
        }
        for name in ["server.self", "enclave.search", "avscan", "session.exec"] {
            if let Some(v) = lmed(class, name) {
                layers.num(&format!("({name})"), v);
            }
        }
        let gap = e2e_med - sum;
        m.put(format!("gap_us.{c}"), gap, "us");
        let mut b = Obj::new();
        b.num("e2e_median_us", e2e_med)
            .num("statements", e2e.len() as f64)
            .obj("layer_median_self_us", layers)
            .num("unattributed_us", gap)
            .num("unattributed_frac", ratio(gap, e2e_med));
        breakdown.obj(c, b);
    }
    m.put(
        "sched.calls_per_batch",
        ratio(
            counters.untraced("batched_calls_total"),
            counters.untraced("ecall_batches_total"),
        ),
        "ratio",
    );
    let search_us: Vec<f64> = searches.iter().map(|s| us(s)).collect();
    m.put("enclave.search_us", med(&search_us), "us");
    let mut per_kind: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in &searches {
        if let Some(k) = s.kind {
            per_kind.entry(k.to_string()).or_default().push(us(s));
        }
    }
    let mut kinds = Obj::new();
    for (k, v) in &per_kind {
        kinds.num(&format!("{k}_search_us"), med(v));
    }
    breakdown.obj("enclave_search_by_kind", kinds);
    let loads: f64 = searches.iter().map(|s| s.arg as f64).sum();
    m.put(
        "enclave.loads_per_search",
        ratio(loads, searches.len() as f64),
        "count",
    );
    let hits = counters.untraced("value_cache_hits_total");
    let misses = counters.untraced("value_cache_misses_total");
    m.put(
        "enclave.cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    m.put(
        "enclave.ecalls_per_stmt",
        ratio(counters.untraced("ecalls_total"), untraced_n),
        "count",
    );
    let scan_us: Vec<f64> = scans.iter().map(|s| us(s)).collect();
    m.put("avscan.us", med(&scan_us), "us");
    let rows: f64 = scans.iter().map(|s| s.arg as f64).sum();
    m.put(
        "avscan.rows_per_result",
        ratio(rows, scans.len() as f64),
        "count",
    );
    // A per-layer figure rather than an end-to-end one: the merge enclave
    // rebuilds a whole column, so its peak steps with the rows a run
    // happened to merge (144 vs 192 KiB on olap_unsorted between two sets
    // of the same seeds).
    m.put("enclave.heap_peak_kib", inp.heap_peak_kib, "KiB");
    m.put("crypto.pae_encrypt_ns", inp.pae_ns.0, "ns");
    m.put("crypto.pae_decrypt_ns", inp.pae_ns.1, "ns");
    m.put(
        "wal.fsyncs_per_write",
        ratio(counters.untraced("wal_fsyncs_total"), untraced_writes),
        "count",
    );
    let ingested: u64 = res.conns.iter().map(|c| c.rows_ingested).sum();
    m.put(
        "wal.disk_bytes_per_row",
        ratio(inp.disk_growth, ingested as f64),
        "bytes",
    );
    m.put(
        "compaction.merges",
        counters.delta("compactions_completed_total"),
        "count",
    );
    let during: Vec<f64> = recs()
        .filter(|r| r.during_merge && r.class != Class::Write)
        .map(|r| r.us)
        .collect();
    m.put(
        "compaction.read_p95_during_merge_us",
        percentile(&during, 95.0).unwrap_or(0.0),
        "us",
    );
    let base = med(&reads_untraced);
    m.put(
        "trace.overhead_frac",
        ratio(med(&reads_traced) - base, base),
        "ratio",
    );
    Traced {
        metrics: m,
        breakdown,
    }
}

/// The spans as Chrome-trace JSON (load into Perfetto).
pub fn chrome_trace(res: &LoopResult) -> String {
    let events: Vec<String> = res
        .conns
        .iter()
        .flat_map(|c| c.spans.iter())
        .map(|s| {
            let mut args = Obj::new();
            args.num("stmt", s.stmt as f64).num("arg", s.arg as f64);
            if let Some(k) = s.kind {
                args.str("kind", &k.to_string());
            }
            let mut e = Obj::new();
            e.str("name", s.name)
                .str("cat", s.class.name())
                .str("ph", "X")
                .num("ts", s.start_ns as f64 / 1e3)
                .num("dur", s.dur_ns as f64 / 1e3)
                .num("pid", 1.0)
                .num("tid", (s.stmt >> 32) as f64)
                .obj("args", args);
            e.render()
        })
        .collect();
    let mut o = Obj::new();
    o.raw("traceEvents", array(&events));
    o.render()
}
