//! Seeded inputs: the twin columns and the per-connection statement
//! streams of each workload.
//!
//! Everything here is a pure function of the workload and the seed, so
//! the same seed yields byte-identical tables and SQL. The program under
//! test only ever sees the generated SQL and tables.

use encdict::EdKind;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use workload::spec::{generate, ColumnSpec as TwinSpec};

/// Rows in each 20-row `INSERT`.
pub const INSERT_ROWS: usize = 20;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sorted/rotated dictionaries (ED1, ED5) next to a PLAIN baseline.
    OlapSorted,
    /// Unsorted dictionaries (ED9, ED6) whose search is a linear decrypt.
    OlapUnsorted,
    /// Durable ingest with background compaction and a concurrent reader.
    IngestMixed,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "olap_sorted" => Some(Workload::OlapSorted),
            "olap_unsorted" => Some(Workload::OlapUnsorted),
            "ingest_mixed" => Some(Workload::IngestMixed),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OlapSorted => "olap_sorted",
            Workload::OlapUnsorted => "olap_unsorted",
            Workload::IngestMixed => "ingest_mixed",
        }
    }
}

/// Statement class, the unit the latency metrics are reported in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// Row-returning `SELECT`.
    Select,
    /// `COUNT` / `MAX` / `GROUP BY`.
    Agg,
    /// `INSERT` / `DELETE`.
    Write,
}

impl Class {
    /// All classes, in report order.
    pub const ALL: [Class; 3] = [Class::Select, Class::Agg, Class::Write];

    /// Metric-name stem.
    pub fn name(self) -> &'static str {
        match self {
            Class::Select => "select",
            Class::Agg => "agg",
            Class::Write => "write",
        }
    }
}

/// A closed range predicate `col BETWEEN lo AND hi`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pred {
    /// Filtered column (index into the table's columns).
    pub col: usize,
    /// Inclusive lower bound.
    pub lo: Vec<u8>,
    /// Inclusive upper bound.
    pub hi: Vec<u8>,
}

/// What a statement does, in terms the plaintext oracle can evaluate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// `SELECT <col> ... WHERE pred`: the multiset of `col` over the
    /// matching rows.
    Rows { pred: Pred, project: usize },
    /// `SELECT COUNT(*) ... WHERE pred`.
    Count { pred: Pred },
    /// `SELECT MAX(<col>) ... WHERE pred`.
    Max { pred: Pred, col: usize },
    /// `SELECT <group>, COUNT(*) ... WHERE pred GROUP BY <group>`.
    GroupCount { pred: Pred, group: usize },
    /// `INSERT` of these rows.
    Insert { rows: Vec<Vec<Vec<u8>>> },
    /// `DELETE ... WHERE pred`.
    Delete { pred: Pred },
}

/// One generated statement.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// SQL text as sent to the server.
    pub sql: String,
    /// Latency class.
    pub class: Class,
    /// Table the statement targets (index into [`Data::tables`]).
    pub table: usize,
    /// Short label of the statement shape, for per-shape medians.
    pub shape: &'static str,
    /// What the oracle expects.
    pub expect: Expect,
}

/// A generated plaintext table.
#[derive(Debug, Clone)]
pub struct TableData {
    /// Client-visible table name.
    pub name: &'static str,
    /// Column names.
    pub cols: Vec<&'static str>,
    /// Dictionary kind of each column; `None` is PLAIN.
    pub kinds: Vec<Option<EdKind>>,
    /// Fixed value width of each column.
    pub widths: Vec<usize>,
    /// Rows, one value per column.
    pub rows: Vec<Vec<Vec<u8>>>,
}

impl TableData {
    /// Plaintext bytes of `rows` rows of this table.
    pub fn plain_bytes_per_row(&self) -> usize {
        self.widths.iter().sum()
    }
}

/// Everything a workload run needs, generated from the seed.
#[derive(Debug)]
pub struct Data {
    /// The workload.
    pub workload: Workload,
    /// Tables loaded by the data owner before the server starts. Table 0
    /// is the workload's own table; the OLAP workloads add the staging
    /// table their writes go to as table 1.
    pub tables: Vec<TableData>,
    /// The statement stream of each connection.
    pub streams: Vec<Vec<Stmt>>,
}

fn twin(spec: TwinSpec, rows: usize, rng: &mut StdRng) -> Vec<Vec<u8>> {
    let col = generate(&spec.scaled(rows), rng);
    col.iter().map(<[u8]>::to_vec).collect()
}

fn sorted_uniques(values: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut u = values.to_vec();
    u.sort_unstable();
    u.dedup();
    u
}

/// Draws indices so that every block of `weights.iter().sum()` draws
/// holds index `i` exactly `weights[i]` times, in seeded random order.
/// Compared with independent draws, every stretch of a stream then has
/// nearly the same mix, so runs of the same length do the same work.
struct Deck {
    weights: Vec<u32>,
    block: Vec<usize>,
}

impl Deck {
    fn new(weights: &[u32]) -> Self {
        Deck {
            weights: weights.to_vec(),
            block: Vec::new(),
        }
    }

    fn draw(&mut self, rng: &mut StdRng) -> usize {
        if self.block.is_empty() {
            for (i, w) in self.weights.iter().enumerate() {
                self.block.extend(std::iter::repeat_n(i, *w as usize));
            }
            self.block.shuffle(rng);
        }
        self.block.pop().expect("weights sum to more than 0")
    }
}

/// Ranges of `rs` consecutive unique values (paper §6.3), cycling
/// through every start position in seeded random order.
struct Ranges<'a> {
    uniques: &'a [Vec<u8>],
    rs: usize,
    starts: Deck,
}

impl<'a> Ranges<'a> {
    fn new(uniques: &'a [Vec<u8>], rs: usize) -> Self {
        let rs = rs.clamp(1, uniques.len());
        Ranges {
            uniques,
            rs,
            starts: Deck::new(&vec![1; uniques.len() - rs + 1]),
        }
    }

    fn draw(&mut self, rng: &mut StdRng) -> (Vec<u8>, Vec<u8>) {
        let i = self.starts.draw(rng);
        (
            self.uniques[i].clone(),
            self.uniques[i + self.rs - 1].clone(),
        )
    }
}

fn s(v: &[u8]) -> &str {
    std::str::from_utf8(v).expect("twin values are ASCII")
}

/// The insert pool: rows drawn from the same twins as the preload, which
/// `INSERT`s take 20 at a time.
struct Pool {
    rows: Vec<Vec<Vec<u8>>>,
    next: usize,
}

impl Pool {
    fn take(&mut self, n: usize) -> Vec<Vec<Vec<u8>>> {
        (0..n)
            .map(|_| {
                let r = self.rows[self.next % self.rows.len()].clone();
                self.next += 1;
                r
            })
            .collect()
    }
}

fn insert_stmt(table: &TableData, t: usize, rows: Vec<Vec<Vec<u8>>>) -> Stmt {
    let values: Vec<String> = rows
        .iter()
        .map(|r| {
            let cells: Vec<String> = r.iter().map(|v| format!("'{}'", s(v))).collect();
            format!("({})", cells.join(", "))
        })
        .collect();
    Stmt {
        sql: format!("INSERT INTO {} VALUES {}", table.name, values.join(", ")),
        class: Class::Write,
        table: t,
        shape: "insert",
        expect: Expect::Insert { rows },
    }
}

fn between(table: &TableData, col: usize, lo: Vec<u8>, hi: Vec<u8>) -> (String, Pred) {
    (
        format!("{} BETWEEN '{}' AND '{}'", table.cols[col], s(&lo), s(&hi)),
        Pred { col, lo, hi },
    )
}

fn select(table: &TableData, col: usize, lo: Vec<u8>, hi: Vec<u8>, shape: &'static str) -> Stmt {
    let (w, pred) = between(table, col, lo, hi);
    Stmt {
        sql: format!("SELECT {} FROM {} WHERE {w}", table.cols[col], table.name),
        class: Class::Select,
        table: 0,
        shape,
        expect: Expect::Rows { pred, project: col },
    }
}

fn count(table: &TableData, col: usize, lo: Vec<u8>, hi: Vec<u8>, shape: &'static str) -> Stmt {
    let (w, pred) = between(table, col, lo, hi);
    Stmt {
        sql: format!("SELECT COUNT(*) FROM {} WHERE {w}", table.name),
        class: Class::Agg,
        table: 0,
        shape,
        expect: Expect::Count { pred },
    }
}

/// The staging table the OLAP workloads' writes append to: the shape of
/// `ingest_mixed`'s table, kept apart from the table the reads measure.
fn staging(pool_rows: Vec<Vec<Vec<u8>>>) -> TableData {
    TableData {
        name: "s",
        cols: vec!["k", "v"],
        kinds: vec![Some(EdKind::Ed5), Some(EdKind::Ed1)],
        widths: vec![10, 12],
        rows: pool_rows,
    }
}

fn zip_rows(cols: &[Vec<Vec<u8>>]) -> Vec<Vec<Vec<u8>>> {
    (0..cols[0].len())
        .map(|i| cols.iter().map(|c| c[i].clone()).collect())
        .collect()
}

/// Statements per connection; a run that exhausts a stream wraps around.
fn stream_len(w: Workload) -> usize {
    match w {
        Workload::OlapSorted => 60_000,
        Workload::OlapUnsorted => 8_000,
        Workload::IngestMixed => 60_000,
    }
}

/// Generates the tables and statement streams of `w` from `seed`.
pub fn generate_data(w: Workload, seed: u64) -> Data {
    let mut rng = StdRng::seed_from_u64(seed);
    match w {
        Workload::OlapSorted => olap_sorted(seed, &mut rng),
        Workload::OlapUnsorted => olap_unsorted(seed, &mut rng),
        Workload::IngestMixed => ingest_mixed(seed, &mut rng),
    }
}

/// Rows of the insert pool generated beside each workload's data.
const POOL_ROWS: usize = 100_000;

fn insert_pool(rng: &mut StdRng) -> Vec<Vec<Vec<u8>>> {
    let k = twin(TwinSpec::c2_full(), POOL_ROWS, rng);
    let v = twin(TwinSpec::c1_full(), POOL_ROWS, rng);
    zip_rows(&[k, v])
}

fn olap_sorted(seed: u64, rng: &mut StdRng) -> Data {
    const ROWS: usize = 200_000;
    let a = twin(TwinSpec::c1_full(), ROWS, rng);
    let b = twin(TwinSpec::c2_full(), ROWS, rng);
    let ua = sorted_uniques(&a);
    let ub = sorted_uniques(&b);
    let w = TableData {
        name: "w",
        cols: vec!["a", "b", "p"],
        kinds: vec![Some(EdKind::Ed1), Some(EdKind::Ed5), None],
        widths: vec![12, 10, 10],
        rows: zip_rows(&[a, b.clone(), b]),
    };
    let s = staging(insert_pool(rng));
    let streams = [0u64, 1].map(|conn| {
        let mut rng = StdRng::seed_from_u64(seed ^ (0xC0FFEE + conn));
        let mut pool = Pool {
            rows: s.rows.clone(),
            next: conn as usize * (POOL_ROWS / 2),
        };
        let (mut a2, mut a100) = (Ranges::new(&ua, 2), Ranges::new(&ua, 100));
        let (mut b2, mut p2) = (Ranges::new(&ub, 2), Ranges::new(&ub, 2));
        let (mut b100, mut p100) = (Ranges::new(&ub, 100), Ranges::new(&ub, 100));
        let (mut count_a, mut max_b, mut group_a) = (
            Ranges::new(&ua, 100),
            Ranges::new(&ub, 2),
            Ranges::new(&ua, 100),
        );
        // Per 100 statements: 60 selects, 34 aggregates, 6 staging
        // inserts. The weights put each class's p50 and p95 inside one
        // shape's band rather than on the edge between two.
        let mut shapes = Deck::new(&[12, 15, 21, 12, 6, 14, 6, 4, 4, 6]);
        (0..stream_len(Workload::OlapSorted))
            .map(|_| match shapes.draw(&mut rng) {
                0 => {
                    let (lo, hi) = a2.draw(&mut rng);
                    select(&w, 0, lo, hi, "select_a_rs2")
                }
                1 => {
                    let (lo, hi) = a100.draw(&mut rng);
                    select(&w, 0, lo, hi, "select_a_rs100")
                }
                2 => {
                    let (lo, hi) = b2.draw(&mut rng);
                    select(&w, 1, lo, hi, "select_b_rs2")
                }
                3 => {
                    let (lo, hi) = p2.draw(&mut rng);
                    select(&w, 2, lo, hi, "select_p_rs2")
                }
                4 => {
                    let (lo, hi) = count_a.draw(&mut rng);
                    count(&w, 0, lo, hi, "count_a_rs100")
                }
                // RS=100 on the 245-unique b/p twins matches ~40% of the
                // table, so it runs as COUNT(*) rather than as a select.
                5 => {
                    let (lo, hi) = b100.draw(&mut rng);
                    count(&w, 1, lo, hi, "count_b_rs100")
                }
                6 => {
                    let (lo, hi) = p100.draw(&mut rng);
                    count(&w, 2, lo, hi, "count_p_rs100")
                }
                7 => {
                    let (lo, hi) = max_b.draw(&mut rng);
                    let (cond, pred) = between(&w, 1, lo, hi);
                    Stmt {
                        sql: format!("SELECT MAX(a) FROM w WHERE {cond}"),
                        class: Class::Agg,
                        table: 0,
                        shape: "max_a_by_b_rs2",
                        expect: Expect::Max { pred, col: 0 },
                    }
                }
                8 => {
                    let (lo, hi) = group_a.draw(&mut rng);
                    let (cond, pred) = between(&w, 0, lo, hi);
                    Stmt {
                        sql: format!("SELECT b, COUNT(*) FROM w WHERE {cond} GROUP BY b"),
                        class: Class::Agg,
                        table: 0,
                        shape: "group_b_by_a_rs100",
                        expect: Expect::GroupCount { pred, group: 1 },
                    }
                }
                _ => insert_stmt(&s, 1, pool.take(INSERT_ROWS)),
            })
            .collect()
    });
    Data {
        workload: Workload::OlapSorted,
        tables: vec![w, empty(s)],
        streams: streams.to_vec(),
    }
}

/// The staging table starts empty; its pool rows only feed the inserts.
fn empty(mut t: TableData) -> TableData {
    t.rows.clear();
    t
}

fn olap_unsorted(seed: u64, rng: &mut StdRng) -> Data {
    const ROWS: usize = 20_000;
    let c = twin(TwinSpec::c2_full(), ROWS, rng);
    let uc = sorted_uniques(&c);
    let u = TableData {
        name: "u",
        cols: vec!["c9", "c6"],
        kinds: vec![Some(EdKind::Ed9), Some(EdKind::Ed6)],
        widths: vec![10, 10],
        rows: zip_rows(&[c.clone(), c]),
    };
    let s = staging(insert_pool(rng));
    // One connection: with two, each ~30 ms ED9 search queues behind the
    // other connection's on the one enclave, and the p50 swung by ±15%
    // between 5-second stretches of one run.
    let stream = {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        let mut pool = Pool {
            rows: s.rows.clone(),
            next: 0,
        };
        let (mut c9, mut c6, mut sel9, mut sel6) = (
            Ranges::new(&uc, 2),
            Ranges::new(&uc, 2),
            Ranges::new(&uc, 2),
            Ranges::new(&uc, 2),
        );
        // Per 16 statements: 6 ED9 and 4 ED6 counts, 3 ED9 and 2 ED6
        // selects, and 1 staging insert. An ED9 statement runs at ~20 ms
        // or, in stretches where the host gives its core less, at ~32 ms,
        // and the share of slow stretches moves from run to run. With ED9
        // alone (or nearly) in a class the p50 jumped between the two
        // (spread 0.33 over ten seeds); with the faster ED6 statements
        // (4-8 ms) taking 40% of each read class, the p50 is the ED9
        // statements' 17th percentile and stays on the fast mode unless
        // more than 83% of a run is slow. One insert in 16 grows the
        // staging table by ~2k rows a run, below its merge threshold, so
        // the server's peak RSS does not step with a merge.
        let mut shapes = Deck::new(&[6, 4, 3, 2, 1]);
        (0..stream_len(Workload::OlapUnsorted))
            .map(|_| match shapes.draw(&mut rng) {
                0 => {
                    let (lo, hi) = c9.draw(&mut rng);
                    count(&u, 0, lo, hi, "count_c9_rs2")
                }
                1 => {
                    let (lo, hi) = c6.draw(&mut rng);
                    count(&u, 1, lo, hi, "count_c6_rs2")
                }
                2 => {
                    let (lo, hi) = sel9.draw(&mut rng);
                    select(&u, 0, lo, hi, "select_c9_rs2")
                }
                3 => {
                    let (lo, hi) = sel6.draw(&mut rng);
                    select(&u, 1, lo, hi, "select_c6_rs2")
                }
                _ => insert_stmt(&s, 1, pool.take(INSERT_ROWS)),
            })
            .collect()
    };
    Data {
        workload: Workload::OlapUnsorted,
        tables: vec![u, empty(s)],
        streams: vec![stream],
    }
}

fn ingest_mixed(seed: u64, rng: &mut StdRng) -> Data {
    const PRELOAD: usize = 50_000;
    // Preload and insert pool come from one twin generation, so inserted
    // rows share the preload's value distribution.
    let k = twin(TwinSpec::c2_full(), PRELOAD + POOL_ROWS, rng);
    let v = twin(TwinSpec::c1_full(), PRELOAD + POOL_ROWS, rng);
    let all = zip_rows(&[k, v]);
    let uv = sorted_uniques(&all.iter().map(|r| r[1].clone()).collect::<Vec<_>>());
    let r = TableData {
        name: "r",
        cols: vec!["k", "v"],
        kinds: vec![Some(EdKind::Ed5), Some(EdKind::Ed1)],
        widths: vec![10, 12],
        rows: all[..PRELOAD].to_vec(),
    };
    let mut pool = Pool {
        rows: all[PRELOAD..].to_vec(),
        next: 0,
    };
    // One connection: with a writer and a reader on two, every Reencrypt
    // ECALL of an insert queued behind the reader's delta-store scans on
    // the one enclave, and the write p50 moved between 2.2 and 5.2 ms
    // from run to run. Per 42 statements: 9 inserts and 3 range deletes
    // on v; 11 RS=2 and 8 RS=100 selects on v; 11 counts over RS=2 on v.
    // Counts over k's ED5 delta store slowed by ~3 us per delta row, so
    // their latency swept from 0.5 to 10 ms between two merges and the
    // p50 fell wherever the sweep happened to stand.
    //
    // The deletes keep the table near its preload size. A delete of
    // `del_rs` consecutive v uniques removes del_rs * live / |uv| rows on
    // average, so at `live` = PRELOAD the 3 deletes remove the 180 rows
    // the 9 inserts add, and a larger table loses more. With a table that
    // grew instead, each merge took longer than the last, the delta
    // stores grew with it, and reads slowed through the run by as much
    // as the host was fast.
    const INSERTS: u32 = 9;
    const DELETES: u32 = 3;
    let del_rs = (INSERTS as usize * INSERT_ROWS * uv.len()).div_ceil(DELETES as usize * PRELOAD);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    let (mut deletes, mut v2, mut v100, mut count_v2) = (
        Ranges::new(&uv, del_rs),
        Ranges::new(&uv, 2),
        Ranges::new(&uv, 100),
        Ranges::new(&uv, 2),
    );
    let mut shapes = Deck::new(&[INSERTS, DELETES, 11, 8, 11]);
    let stream: Vec<Stmt> = (0..stream_len(Workload::IngestMixed))
        .map(|_| match shapes.draw(&mut rng) {
            0 => insert_stmt(&r, 0, pool.take(INSERT_ROWS)),
            1 => {
                let (lo, hi) = deletes.draw(&mut rng);
                let (cond, pred) = between(&r, 1, lo, hi);
                Stmt {
                    sql: format!("DELETE FROM r WHERE {cond}"),
                    class: Class::Write,
                    table: 0,
                    shape: "delete_v",
                    expect: Expect::Delete { pred },
                }
            }
            2 => {
                let (lo, hi) = v2.draw(&mut rng);
                select(&r, 1, lo, hi, "select_v_rs2")
            }
            3 => {
                let (lo, hi) = v100.draw(&mut rng);
                select(&r, 1, lo, hi, "select_v_rs100")
            }
            _ => {
                let (lo, hi) = count_v2.draw(&mut rng);
                count(&r, 1, lo, hi, "count_v_rs2")
            }
        })
        .collect();
    Data {
        workload: Workload::IngestMixed,
        tables: vec![r],
        streams: vec![stream],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Capacity of the enclave's decrypted-value cache, which the
    /// workload sizes are stated against.
    const VALUE_CACHE_ENTRIES: usize = 8192;

    fn digest(d: &Data) -> Vec<u8> {
        let mut out = Vec::new();
        for t in &d.tables {
            for r in &t.rows {
                for v in r {
                    out.extend_from_slice(v);
                }
            }
        }
        for s in &d.streams {
            for st in s {
                out.extend_from_slice(st.sql.as_bytes());
                out.push(b'\n');
            }
        }
        out
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in [
            Workload::OlapSorted,
            Workload::OlapUnsorted,
            Workload::IngestMixed,
        ] {
            let a = digest(&generate_data(w, 7));
            let b = digest(&generate_data(w, 7));
            let c = digest(&generate_data(w, 8));
            assert!(a == b, "{w:?}: same seed must give identical inputs");
            assert!(a != c, "{w:?}: another seed must give other inputs");
        }
    }

    #[test]
    fn deck_blocks_hold_the_exact_mix() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut deck = Deck::new(&[3, 1, 2]);
        for _ in 0..4 {
            let mut counts = [0; 3];
            for _ in 0..6 {
                counts[deck.draw(&mut rng)] += 1;
            }
            assert_eq!(counts, [3, 1, 2]);
        }
    }

    #[test]
    fn twins_have_the_stated_shapes() {
        let d = generate_data(Workload::OlapSorted, 1);
        let w = &d.tables[0];
        let uniques = |c: usize| {
            let mut v: Vec<&Vec<u8>> = w.rows.iter().map(|r| &r[c]).collect();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        assert_eq!(w.rows.len(), 200_000);
        assert!(
            uniques(0) > 16 * VALUE_CACHE_ENTRIES - 4_000,
            "a ≈ 16× the cache"
        );
        assert_eq!(uniques(1), 245);
        assert!(
            w.rows.iter().all(|r| r[1] == r[2]),
            "p is b's plaintext twin"
        );
    }

    #[test]
    fn ingest_deletes_keep_the_table_near_its_preload() {
        let d = generate_data(Workload::IngestMixed, 4);
        let preload = d.tables[0].rows.len();
        let mut log = crate::oracle::RowLog::new(&d.tables[0]);
        // ~20k statements: more than a 30-second run sends.
        for st in d.streams[0].iter().take(20_000) {
            if st.class == Class::Write {
                log.apply(&st.expect);
            }
        }
        let live = log.into_checker().live_count();
        let drift = live.abs_diff(preload) as f64 / preload as f64;
        assert!(drift < 0.1, "{live} live rows after a preload of {preload}");
    }

    #[test]
    fn insert_sql_carries_every_row() {
        let d = generate_data(Workload::IngestMixed, 3);
        let st = d.streams[0]
            .iter()
            .find(|s| s.shape == "insert")
            .expect("an insert");
        let Expect::Insert { rows } = &st.expect else {
            panic!("insert expectation")
        };
        assert_eq!(rows.len(), INSERT_ROWS);
        assert_eq!(st.sql.matches("), (").count(), INSERT_ROWS - 1);
    }
}
