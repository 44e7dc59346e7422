//! The traced run's per-layer decomposition.
//!
//! For a traced statement the benchmark calls each layer's public
//! function itself, in the order the deployed path does, and records a
//! span around every call: `sql::parse`, the proxy's encrypt step (rebuilt
//! from the public `encdict`/`crypto` functions with keys derived from
//! `SK_DB`), `DbaasServer::execute_query`, and `decrypt_column_value` over
//! the result cells. Beside that sequence it times `DictEnclave::search`
//! and `avsearch::search` on twin dictionaries built from the same
//! generated columns, and pairs `NetClient::execute` with
//! `ReaderSession::execute` on reads. No span is recorded inside the
//! program; spans stay in memory until the run ends.

use crate::deploy::stored_name;
use crate::gen::{Class, Data, TableData};
use crate::oracle::Rows;
use colstore::column::Column;
use colstore::dictionary::AttributeVector;
use encdbdb::exec::plan::{compile_select, SelectPlan};
use encdbdb::server::{CellValue, ServerFilter};
use encdbdb::sql::{parse, Filter, Statement};
use encdbdb::{
    DbaasServer, DictChoice, Proxy, QueryOutcome, ReaderSession, ServerQuery, TableSchema,
};
use encdbdb_crypto::hkdf::derive_column_key;
use encdbdb_crypto::{Key128, Pae};
use encdict::aggregate::{AggFunc, OutputItem};
use encdict::avsearch::{self, Parallelism, SetSearchStrategy};
use encdict::build::{build_encrypted, build_plain, BuildParams};
use encdict::enclave_ops::{decrypt_column_value, encrypt_value_for_column};
use encdict::plain::search_plain;
use encdict::{DictEnclave, EdKind, EncryptedDictionary, EncryptedRange, PlainDictionary};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Spans of one statement share `stmt`.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `server.exec`.
    pub name: &'static str,
    /// Class of the statement the span belongs to.
    pub class: Class,
    /// Statement id: connection in the high bits, position in the low.
    pub stmt: u64,
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// A count attached to the span (cells, rows, loads), or 0.
    pub arg: u64,
    /// The dictionary kind searched, for `enclave.search` spans.
    pub kind: Option<EdKind>,
}

/// A twin of one filter column: the dictionary and attribute vector the
/// data owner's build produces from the same generated column.
enum TwinDict {
    Encrypted(EncryptedDictionary, EdKind),
    Plain(PlainDictionary),
}

struct Twin {
    dict: TwinDict,
    av: AttributeVector,
}

/// Calls into each layer for traced statements.
pub struct Tracer {
    server: DbaasServer,
    master: Key128,
    twins: Vec<Twin>,
    twin_enclave: Mutex<DictEnclave>,
    epoch: Instant,
}

/// How to decrypt the cells of a result, column by column.
type CellKeys = Vec<Option<Pae>>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Tracer {
    /// Builds the twins of table 0's columns.
    pub fn new(data: &Data, server: DbaasServer, master: Key128, seed: u64) -> Tracer {
        let t: &TableData = &data.tables[0];
        let table = stored_name(t.name);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7A1);
        let twins = (0..t.cols.len())
            .map(|c| {
                let mut col = Column::new(t.cols[c], t.widths[c]);
                for row in &t.rows {
                    col.push(&row[c]).expect("twin values fit their width");
                }
                let params = BuildParams {
                    table_name: table.clone(),
                    col_name: t.cols[c].to_string(),
                    bs_max: encdbdb::schema::DEFAULT_BS_MAX,
                };
                match t.kinds[c] {
                    Some(kind) => {
                        let sk = derive_column_key(&master, &table, t.cols[c]);
                        let (dict, av) = build_encrypted(&col, kind, &params, &sk, &mut rng)
                            .expect("twin build");
                        Twin {
                            dict: TwinDict::Encrypted(dict, kind),
                            av,
                        }
                    }
                    None => {
                        let (dict, av) =
                            build_plain(&col, EdKind::Ed1, &params, &mut rng).expect("twin build");
                        Twin {
                            dict: TwinDict::Plain(dict),
                            av,
                        }
                    }
                }
            })
            .collect();
        let mut enclave = DictEnclave::with_seed(seed ^ 0x7A2);
        enclave.provision_direct(master.clone());
        Tracer {
            server,
            master,
            twins,
            twin_enclave: Mutex::new(enclave),
            epoch: Instant::now(),
        }
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn pae(&self, table: &str, col: &str) -> Pae {
        Pae::new(&derive_column_key(&self.master, table, col))
    }

    /// The proxy's filter step: plaintext ranges per column, encrypted
    /// under the column key for encrypted columns.
    fn filters(
        &self,
        schema: &TableSchema,
        table: &str,
        filter: Option<&Filter>,
        rng: &mut StdRng,
    ) -> Result<Vec<ServerFilter>, String> {
        let Some(filter) = filter else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        for (col, ranges) in Proxy::filter_to_ranges(filter).map_err(err)? {
            let (_, spec) = schema
                .column(&col.column)
                .ok_or_else(|| format!("no column {}", col.column))?;
            out.push(match spec.choice {
                DictChoice::Encrypted(_) => {
                    let pae = self.pae(table, &spec.name);
                    ServerFilter::Encrypted {
                        column: spec.name.clone(),
                        ranges: ranges
                            .iter()
                            .map(|r| EncryptedRange::encrypt(&pae, rng, r))
                            .collect(),
                    }
                }
                DictChoice::Plain => ServerFilter::Plain {
                    column: spec.name.clone(),
                    ranges,
                },
            });
        }
        Ok(out)
    }

    fn column_key(
        &self,
        schema: &TableSchema,
        table: &str,
        col: &str,
    ) -> Result<Option<Pae>, String> {
        let (_, spec) = schema
            .column(col)
            .ok_or_else(|| format!("no column {col}"))?;
        Ok(match spec.choice {
            DictChoice::Encrypted(_) => Some(self.pae(table, col)),
            DictChoice::Plain => None,
        })
    }

    /// The proxy's encrypt step: plan, key derivation and encryption of
    /// range bounds or insert values.
    fn encrypt(
        &self,
        stmt: Statement,
        rng: &mut StdRng,
    ) -> Result<(ServerQuery, CellKeys), String> {
        match stmt {
            Statement::Select {
                distinct,
                items,
                table,
                filter,
                group_by,
                order_by,
                limit,
                ..
            } => {
                let table = stored_name(&table);
                let schema = self.server.schema(&table).map_err(err)?;
                let plan = compile_select(&schema, distinct, &items, &group_by, &order_by, limit)
                    .map_err(err)?;
                let filters = self.filters(&schema, &table, filter.as_ref(), rng)?;
                match plan {
                    SelectPlan::Rows { columns, .. } => {
                        let keys = columns
                            .iter()
                            .map(|c| self.column_key(&schema, &table, c))
                            .collect::<Result<_, _>>()?;
                        Ok((
                            ServerQuery::Select {
                                table,
                                columns,
                                filters,
                                scope: None,
                            },
                            keys,
                        ))
                    }
                    SelectPlan::Aggregate(plan) => {
                        let mut keys = Vec::with_capacity(plan.items.len());
                        for item in &plan.items {
                            let source = match item {
                                OutputItem::Group(i) => Some(plan.group_cols[*i].as_str()),
                                OutputItem::Agg(j) => {
                                    let agg = &plan.aggregates[*j];
                                    match agg.func {
                                        AggFunc::Count => None,
                                        _ => agg.column.as_deref(),
                                    }
                                }
                            };
                            keys.push(match source {
                                Some(c) => self.column_key(&schema, &table, c)?,
                                None => None,
                            });
                        }
                        Ok((
                            ServerQuery::Aggregate {
                                table,
                                plan,
                                filters,
                                scope: None,
                            },
                            keys,
                        ))
                    }
                }
            }
            Statement::Insert { table, rows } => {
                let table = stored_name(&table);
                let schema = self.server.schema(&table).map_err(err)?;
                let keys: Vec<Option<Pae>> = schema
                    .columns
                    .iter()
                    .map(|c| self.column_key(&schema, &table, &c.name))
                    .collect::<Result<_, _>>()?;
                let rows = rows
                    .into_iter()
                    .map(|row| {
                        row.into_iter()
                            .zip(&keys)
                            .map(|(v, key)| match key {
                                Some(pae) => CellValue::Encrypted(
                                    encrypt_value_for_column(pae, rng, &v).into_bytes(),
                                ),
                                None => CellValue::Plain(v),
                            })
                            .collect()
                    })
                    .collect();
                Ok((
                    ServerQuery::Insert {
                        table,
                        rows,
                        partition_ids: None,
                    },
                    Vec::new(),
                ))
            }
            Statement::Delete { table, filter } => {
                let table = stored_name(&table);
                let schema = self.server.schema(&table).map_err(err)?;
                let filters = self.filters(&schema, &table, filter.as_ref(), rng)?;
                Ok((
                    ServerQuery::Delete {
                        table,
                        filters,
                        scope: None,
                    },
                    Vec::new(),
                ))
            }
            Statement::CreateTable { .. } => Err("the benchmark issues no DDL".to_string()),
        }
    }

    /// Runs one statement through parse → encrypt → execute → decrypt,
    /// recording a span per layer, and returns the decrypted rows (for
    /// writes, the affected count as one cell).
    pub fn decomposed(
        &self,
        sql: &str,
        class: Class,
        stmt_id: u64,
        rng: &mut StdRng,
        spans: &mut Vec<Span>,
    ) -> Result<(Rows, Option<ServerFilter>), String> {
        let mut span = |name: &'static str, t0: Instant, arg: u64| {
            spans.push(Span {
                name,
                class,
                stmt: stmt_id,
                start_ns: self.ns_since_epoch(t0),
                dur_ns: t0.elapsed().as_nanos() as u64,
                arg,
                kind: None,
            })
        };
        let t0 = Instant::now();
        let stmt = parse(sql).map_err(err)?;
        span("sql.parse", t0, 0);

        let t0 = Instant::now();
        let (query, keys) = self.encrypt(stmt, rng)?;
        span("proxy.encrypt", t0, 0);
        let first_filter = match &query {
            ServerQuery::Select { filters, .. }
            | ServerQuery::Aggregate { filters, .. }
            | ServerQuery::Delete { filters, .. } => filters.first().cloned(),
            _ => None,
        };

        let t0 = Instant::now();
        let outcome = self.server.execute_query(query).map_err(err)?;
        span("server.exec", t0, 0);

        match outcome {
            QueryOutcome::Affected(n) => Ok((vec![vec![n.to_string().into_bytes()]], None)),
            QueryOutcome::Rows(resp) => {
                let t0 = Instant::now();
                let mut cells = 0u64;
                let mut rows = Vec::with_capacity(resp.rows.len());
                for row in resp.rows {
                    let mut out = Vec::with_capacity(row.len());
                    for (cell, key) in row.into_iter().zip(&keys) {
                        out.push(match (cell, key) {
                            (CellValue::Encrypted(ct), Some(pae)) => {
                                cells += 1;
                                decrypt_column_value(pae, &ct).map_err(err)?
                            }
                            (CellValue::Plain(v), None) => v,
                            _ => return Err("cell protection mismatch".to_string()),
                        });
                    }
                    rows.push(out);
                }
                span("proxy.decrypt", t0, cells);
                Ok((rows, first_filter))
            }
        }
    }

    /// Times `ReaderSession::execute` for the same read, the in-process
    /// half of the `net.overhead_us` pair.
    pub fn in_process(
        &self,
        reader: &mut ReaderSession,
        qualified_sql: &str,
        class: Class,
        stmt_id: u64,
        spans: &mut Vec<Span>,
    ) -> Result<u64, String> {
        let t0 = Instant::now();
        reader.execute(qualified_sql).map_err(err)?;
        let dur = t0.elapsed().as_nanos() as u64;
        spans.push(Span {
            name: "session.exec",
            class,
            stmt: stmt_id,
            start_ns: self.ns_since_epoch(t0),
            dur_ns: dur,
            arg: 0,
            kind: None,
        });
        Ok(dur)
    }

    /// Times the dictionary search and attribute-vector scan of `filter`
    /// on the twin of its column.
    pub fn twin_search(
        &self,
        filter: &ServerFilter,
        table: &TableData,
        class: Class,
        stmt_id: u64,
        spans: &mut Vec<Span>,
    ) -> Result<(), String> {
        let (col, range_plain, range_enc) = match filter {
            ServerFilter::Encrypted { column, ranges } => (column, None, ranges.first()),
            ServerFilter::Plain { column, ranges } => (column, ranges.first(), None),
        };
        let c = table
            .cols
            .iter()
            .position(|n| n == col)
            .ok_or_else(|| format!("no twin for {col}"))?;
        let twin = &self.twins[c];
        let (result, dict_len) = match (&twin.dict, range_enc, range_plain) {
            (TwinDict::Encrypted(dict, kind), Some(range), _) => {
                let mut enclave = self.twin_enclave.lock().expect("twin enclave lock");
                let before = enclave.enclave().counters().untrusted_loads;
                let t0 = Instant::now();
                let result = enclave.search(dict, range).map_err(err)?;
                let dur = t0.elapsed().as_nanos() as u64;
                let loads = enclave.enclave().counters().untrusted_loads - before;
                drop(enclave);
                spans.push(Span {
                    name: "enclave.search",
                    class,
                    stmt: stmt_id,
                    start_ns: self.ns_since_epoch(t0),
                    dur_ns: dur,
                    arg: loads,
                    kind: Some(*kind),
                });
                (result, dict.len())
            }
            (TwinDict::Plain(dict), _, Some(range)) => {
                (search_plain(dict, range).map_err(err)?, dict.len())
            }
            _ => return Err("twin and filter protection differ".to_string()),
        };
        let t0 = Instant::now();
        let rids = avsearch::search(
            &twin.av,
            &result,
            dict_len,
            SetSearchStrategy::PaperLinear,
            Parallelism::Serial,
        );
        spans.push(Span {
            name: "avscan",
            class,
            stmt: stmt_id,
            start_ns: self.ns_since_epoch(t0),
            dur_ns: t0.elapsed().as_nanos() as u64,
            arg: rids.len() as u64,
            kind: None,
        });
        Ok(())
    }

    /// Records an end-to-end `NetClient::execute` span.
    pub fn e2e_span(&self, t0: Instant, dur_ns: u64, class: Class, stmt_id: u64) -> Span {
        Span {
            name: "net.client",
            class,
            stmt: stmt_id,
            start_ns: self.ns_since_epoch(t0),
            dur_ns,
            arg: 0,
            kind: None,
        }
    }
}

/// Median ns per operation of PAE encryption and decryption of values of
/// `width` bytes, over `batches` batches of `per_batch` values.
pub fn pae_costs(master: &Key128, width: usize) -> (f64, f64) {
    const BATCHES: usize = 21;
    const PER_BATCH: usize = 400;
    let pae = Pae::new(&derive_column_key(master, "crypto", "probe"));
    let mut rng = StdRng::seed_from_u64(width as u64);
    let value = vec![b'm'; width];
    let mut enc = Vec::with_capacity(BATCHES);
    let mut dec = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        let cts: Vec<_> = (0..PER_BATCH)
            .map(|_| encrypt_value_for_column(&pae, &mut rng, std::hint::black_box(&value)))
            .collect();
        enc.push(t0.elapsed().as_nanos() as f64 / PER_BATCH as f64);
        let t0 = Instant::now();
        for ct in &cts {
            std::hint::black_box(
                decrypt_column_value(&pae, std::hint::black_box(ct.as_bytes())).expect("decrypt"),
            );
        }
        dec.push(t0.elapsed().as_nanos() as f64 / PER_BATCH as f64);
    }
    (
        crate::stats::median(&enc).unwrap_or(0.0),
        crate::stats::median(&dec).unwrap_or(0.0),
    )
}
