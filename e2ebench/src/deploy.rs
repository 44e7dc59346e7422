//! Deploys a workload's tables behind a `NetServer` on a loopback port.

use crate::gen::{Data, TableData};
use colstore::column::Column;
use colstore::table::Table;
use encdbdb::net::tenant_table_name;
use encdbdb::{
    ColumnSpec, DbError, DbaasServer, DictChoice, NetClient, NetServer, NetServerConfig,
    NetServerHandle, ReaderSession, Session, TableSchema, TenantSpec,
};
use encdbdb_crypto::Key128;
use encdict::EdKind;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::time::Instant;

/// The tenant every connection authenticates as.
pub const TENANT: &str = "bench";
/// The tenant's token.
pub const TOKEN: &str = "bench-token";

/// The name the server stores a client-visible table under.
pub fn stored_name(table: &str) -> String {
    tenant_table_name(TENANT, table)
}

/// A running deployment.
#[derive(Debug)]
pub struct Deployment {
    /// The network front end.
    pub handle: NetServerHandle,
    /// A handle on the server behind it (metrics, storage accounting, and
    /// the traced run's direct calls).
    pub server: DbaasServer,
    /// `SK_DB`, which the traced run rebuilds the proxy's keys from.
    pub master_key: Key128,
    /// One in-process session per connection, for the traced run's
    /// `ReaderSession::execute` pairing.
    pub readers: Vec<ReaderSession>,
}

/// How the owner brings one table into a fresh deployment.
enum Load {
    /// Encrypt and deploy these rows.
    Rows(Table, TableSchema),
    /// Create the table empty with this statement.
    Create(String),
}

/// The owner's plaintext tables with their schemas, built before the
/// set-up clock starts.
pub struct OwnerTables(Vec<Load>);

/// A table's name and columns: `(name, kind, width)`, `None` for PLAIN.
struct Shape<'a> {
    name: &'a str,
    cols: Vec<(&'a str, Option<EdKind>, usize)>,
}

impl<'a> Shape<'a> {
    fn of(t: &'a TableData) -> Self {
        Shape {
            name: t.name,
            cols: (0..t.cols.len())
                .map(|c| (t.cols[c], t.kinds[c], t.widths[c]))
                .collect(),
        }
    }

    fn schema(&self) -> TableSchema {
        let specs = self
            .cols
            .iter()
            .map(|(name, kind, width)| {
                let choice = match kind {
                    Some(k) => DictChoice::Encrypted(*k),
                    None => DictChoice::Plain,
                };
                ColumnSpec::new(*name, choice, *width)
            })
            .collect();
        TableSchema::new(stored_name(self.name), specs)
    }

    fn create_sql(&self) -> String {
        let cols: Vec<String> = self
            .cols
            .iter()
            .map(|(name, kind, width)| match kind {
                Some(k) => format!("{name} {k}({width})"),
                None => format!("{name} PLAIN({width})"),
            })
            .collect();
        format!(
            "CREATE TABLE {} ({})",
            stored_name(self.name),
            cols.join(", ")
        )
    }

    /// The owner's load of this table, whose columns `column(c)` builds.
    fn load(
        &self,
        rows: usize,
        mut column: impl FnMut(usize, &str, usize) -> std::io::Result<Column>,
    ) -> std::io::Result<Load> {
        if rows == 0 {
            return Ok(Load::Create(self.create_sql()));
        }
        let mut table = Table::new(stored_name(self.name));
        for (c, (name, _, width)) in self.cols.iter().enumerate() {
            table
                .add_column(column(c, name, *width)?)
                .map_err(invalid)?;
        }
        Ok(Load::Rows(table, self.schema()))
    }
}

fn invalid(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

fn column_of(t: &TableData, c: usize, name: &str, width: usize) -> std::io::Result<Column> {
    let mut col = Column::new(name, width);
    for row in &t.rows {
        col.push(&row[c]).map_err(invalid)?;
    }
    Ok(col)
}

/// Converts the generated tables into the owner's column tables.
pub fn owner_tables(data: &Data) -> OwnerTables {
    OwnerTables(
        data.tables
            .iter()
            .map(|t| {
                Shape::of(t)
                    .load(t.rows.len(), |c, name, width| column_of(t, c, name, width))
                    .expect("twin values fit their width")
            })
            .collect(),
    )
}

fn put_bytes(w: &mut impl Write, b: &[u8]) -> std::io::Result<()> {
    let len = u8::try_from(b.len()).map_err(invalid)?;
    w.write_all(&[len])?;
    w.write_all(b)
}

fn put_u32(w: &mut impl Write, v: usize) -> std::io::Result<()> {
    w.write_all(&u32::try_from(v).map_err(invalid)?.to_le_bytes())
}

fn get_bytes(r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 1];
    r.read_exact(&mut len)?;
    let mut b = vec![0u8; len[0] as usize];
    r.read_exact(&mut b)?;
    Ok(b)
}

fn get_u32(r: &mut impl Read) -> std::io::Result<usize> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b) as usize)
}

fn get_str(r: &mut impl Read) -> std::io::Result<String> {
    String::from_utf8(get_bytes(r)?).map_err(invalid)
}

/// Writes the generated tables to `path`, column by column, for a server
/// process to load: per table its name, column count, row count, and per
/// column its name, kind (`PLAIN` or an ED name), width and values, each
/// string length-prefixed.
pub fn write_tables(data: &Data, path: &Path) -> std::io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    put_u32(&mut w, data.tables.len())?;
    for t in &data.tables {
        put_bytes(&mut w, t.name.as_bytes())?;
        put_u32(&mut w, t.cols.len())?;
        put_u32(&mut w, t.rows.len())?;
        for c in 0..t.cols.len() {
            put_bytes(&mut w, t.cols[c].as_bytes())?;
            let kind = t.kinds[c].map_or("PLAIN".to_string(), |k| k.to_string());
            put_bytes(&mut w, kind.as_bytes())?;
            put_u32(&mut w, t.widths[c])?;
            for row in &t.rows {
                put_bytes(&mut w, &row[c])?;
            }
        }
    }
    w.flush()
}

/// Reads tables written by [`write_tables`] straight into the owner's
/// columns, without holding the rows any other way.
pub fn read_tables(path: &Path) -> std::io::Result<OwnerTables> {
    let mut r = BufReader::new(std::fs::File::open(path)?);
    let tables = get_u32(&mut r)?;
    let mut loads = Vec::with_capacity(tables);
    for _ in 0..tables {
        let name = get_str(&mut r)?;
        let ncols = get_u32(&mut r)?;
        let rows = get_u32(&mut r)?;
        let mut cols = Vec::with_capacity(ncols);
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let col = get_str(&mut r)?;
            let kind = get_str(&mut r)?;
            let kind = match kind.as_str() {
                "PLAIN" => None,
                k => Some(
                    EdKind::ALL
                        .into_iter()
                        .find(|e| e.to_string() == k)
                        .ok_or_else(|| invalid(format!("unknown kind {k}")))?,
                ),
            };
            let width = get_u32(&mut r)?;
            let mut column = Column::new(col.as_str(), width);
            for _ in 0..rows {
                column.push(&get_bytes(&mut r)?).map_err(invalid)?;
            }
            cols.push((col, kind, width));
            columns.push(Some(column));
        }
        let shape = Shape {
            name: &name,
            cols: cols.iter().map(|(n, k, w)| (n.as_str(), *k, *w)).collect(),
        };
        loads.push(shape.load(rows, |c, _, _| {
            Ok(columns[c].take().expect("each column is taken once"))
        })?);
    }
    Ok(OwnerTables(loads))
}

/// Deploys the workload and returns it with its set-up time in seconds:
/// from `Session::with_seed` through the owner's loads and
/// `NetServer::start` until a client has connected and authenticated.
pub fn deploy(
    tables: &OwnerTables,
    seed: u64,
    wal_dir: Option<&Path>,
    readers: usize,
) -> Result<(Deployment, f64), DbError> {
    let t0 = Instant::now();
    let mut session = match wal_dir {
        Some(dir) => Session::with_seed_durable(seed, dir)?,
        None => Session::with_seed(seed)?,
    };
    for load in &tables.0 {
        match load {
            Load::Rows(table, schema) => session.load_table(table, schema.clone())?,
            Load::Create(sql) => {
                session.execute(sql)?;
            }
        }
    }
    let server = session.server().clone();
    let master_key = session.master_key();
    let readers = (0..readers as u64)
        .map(|i| session.reader(seed ^ (0x5EAD_0001 + i)))
        .collect();
    let handle = NetServer::start(
        session,
        vec![TenantSpec::new(TENANT, TOKEN)],
        NetServerConfig::default(),
    )?;
    NetClient::connect(handle.addr(), TENANT, TOKEN)?.close();
    let setup = t0.elapsed().as_secs_f64();
    Ok((
        Deployment {
            handle,
            server,
            master_key,
            readers,
        },
        setup,
    ))
}
