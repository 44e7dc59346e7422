//! The plaintext oracle: every read's result is checked against a model
//! of the generated data.
//!
//! * [`StaticOracle`] covers tables no statement writes to. Each column
//!   keeps its row ids sorted by value, so the rows a range predicate
//!   matches are one contiguous slice and a check costs time in the size
//!   of the result, not of the table.
//! * [`RowLog`] covers the table `ingest_mixed` writes to. Every row
//!   carries the write version that inserted it and the one that deleted
//!   it, so the table can be evaluated at any version. A read may see any
//!   version between the last write acknowledged when it was issued and
//!   the last write sent when its reply arrived (one version when the
//!   same connection sends both).

use crate::gen::{Expect, Pred, TableData};
use std::collections::BTreeMap;

/// A decoded result: rows of plaintext cells.
pub type Rows = Vec<Vec<Vec<u8>>>;

fn parse_count(cell: &[u8]) -> Result<u64, String> {
    std::str::from_utf8(cell)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            format!(
                "count cell {:?} is not a number",
                String::from_utf8_lossy(cell)
            )
        })
}

fn single_cell(rows: &Rows) -> Result<&[u8], String> {
    match rows.as_slice() {
        [row] if row.len() == 1 => Ok(&row[0]),
        _ => Err(format!("expected one cell, got {} rows", rows.len())),
    }
}

/// Sorted first-column values of a row-returning result.
fn sorted_column(rows: &Rows) -> Result<Vec<&[u8]>, String> {
    let mut got = Vec::with_capacity(rows.len());
    for row in rows {
        if row.len() != 1 {
            return Err(format!("expected one column, got {}", row.len()));
        }
        got.push(row[0].as_slice());
    }
    got.sort_unstable();
    Ok(got)
}

/// Checks `rows` against the matching rows `matching` (row values).
fn check_against<'a>(
    expect: &Expect,
    rows: &Rows,
    matching: impl Iterator<Item = &'a [Vec<u8>]> + Clone,
) -> Result<(), String> {
    match expect {
        Expect::Rows { project, .. } => {
            let got = sorted_column(rows)?;
            let mut want: Vec<&[u8]> = matching.map(|r| r[*project].as_slice()).collect();
            want.sort_unstable();
            if got != want {
                return Err(format!(
                    "row multiset differs: got {} rows, want {}",
                    got.len(),
                    want.len()
                ));
            }
        }
        Expect::Count { .. } => {
            let got = parse_count(single_cell(rows)?)?;
            let want = matching.count() as u64;
            if got != want {
                return Err(format!("COUNT(*) = {got}, want {want}"));
            }
        }
        Expect::Max { col, .. } => {
            let want = matching.map(|r| r[*col].as_slice()).max();
            match want {
                Some(want) => {
                    let got = single_cell(rows)?;
                    if got != want {
                        return Err("MAX differs".to_string());
                    }
                }
                None if rows.iter().all(|r| r.iter().all(Vec::is_empty)) => {}
                None => return Err("MAX over no rows returned a value".to_string()),
            }
        }
        Expect::GroupCount { group, .. } => {
            let mut want: BTreeMap<&[u8], u64> = BTreeMap::new();
            for r in matching {
                *want.entry(r[*group].as_slice()).or_default() += 1;
            }
            let mut got: BTreeMap<&[u8], u64> = BTreeMap::new();
            for row in rows {
                if row.len() != 2 {
                    return Err(format!("expected (group, count), got {} cells", row.len()));
                }
                if got.insert(&row[0], parse_count(&row[1])?).is_some() {
                    return Err("group repeated".to_string());
                }
            }
            if got != want {
                return Err(format!("{} groups, want {}", got.len(), want.len()));
            }
        }
        Expect::Insert { .. } | Expect::Delete { .. } => {
            return Err("writes are checked by the row log".to_string())
        }
    }
    Ok(())
}

fn pred_of(expect: &Expect) -> &Pred {
    match expect {
        Expect::Rows { pred, .. }
        | Expect::Count { pred }
        | Expect::Max { pred, .. }
        | Expect::GroupCount { pred, .. }
        | Expect::Delete { pred } => pred,
        Expect::Insert { .. } => unreachable!("inserts have no predicate"),
    }
}

/// Row ids sorted by the value of each column.
fn sorted_ids(rows: &[Vec<Vec<u8>>], cols: usize) -> Vec<Vec<u32>> {
    (0..cols)
        .map(|c| {
            let mut ids: Vec<u32> = (0..rows.len() as u32).collect();
            ids.sort_unstable_by(|&x, &y| rows[x as usize][c].cmp(&rows[y as usize][c]));
            ids
        })
        .collect()
}

/// The ids of the rows matching `pred`, as a slice of `ids`.
fn matching_ids<'a>(rows: &[Vec<Vec<u8>>], ids: &'a [u32], pred: &Pred) -> &'a [u32] {
    let v = |id: &u32| rows[*id as usize][pred.col].as_slice();
    let lo = ids.partition_point(|id| v(id) < pred.lo.as_slice());
    let hi = ids.partition_point(|id| v(id) <= pred.hi.as_slice());
    &ids[lo..hi.max(lo)]
}

/// Oracle for a table that is never written.
#[derive(Debug)]
pub struct StaticOracle {
    rows: Vec<Vec<Vec<u8>>>,
    by_col: Vec<Vec<u32>>,
}

impl StaticOracle {
    /// Indexes `table`.
    pub fn new(table: &TableData) -> Self {
        StaticOracle {
            by_col: sorted_ids(&table.rows, table.cols.len()),
            rows: table.rows.clone(),
        }
    }

    /// Checks one read result.
    pub fn check(&self, expect: &Expect, rows: &Rows) -> Result<(), String> {
        let pred = pred_of(expect);
        let ids = matching_ids(&self.rows, &self.by_col[pred.col], pred);
        check_against(
            expect,
            rows,
            ids.iter().map(|&id| self.rows[id as usize].as_slice()),
        )
    }
}

/// Version at which a row is not (yet) deleted.
const ALIVE: u64 = u64::MAX;

/// The write history of the `ingest_mixed` table: every row with the
/// write version that inserted and the one that deleted it. The preload
/// is version 0; write `i` (1-based, in the writer's order) creates
/// version `i`.
#[derive(Debug)]
pub struct RowLog {
    rows: Vec<Vec<Vec<u8>>>,
    inserted: Vec<u64>,
    deleted: Vec<u64>,
    /// Live row ids by `v`-column value, for deletes.
    by_value: Vec<BTreeMap<Vec<u8>, Vec<u32>>>,
    version: u64,
}

impl RowLog {
    /// Starts the log from the preloaded rows.
    pub fn new(preload: &TableData) -> Self {
        let mut log = RowLog {
            rows: Vec::new(),
            inserted: Vec::new(),
            deleted: Vec::new(),
            by_value: vec![BTreeMap::new(); preload.cols.len()],
            version: 0,
        };
        log.append(&preload.rows);
        log
    }

    fn append(&mut self, rows: &[Vec<Vec<u8>>]) {
        for row in rows {
            let id = self.rows.len() as u32;
            for (c, v) in row.iter().enumerate() {
                self.by_value[c].entry(v.clone()).or_default().push(id);
            }
            self.rows.push(row.clone());
            self.inserted.push(self.version);
            self.deleted.push(ALIVE);
        }
    }

    /// The current version (number of applied writes).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Applies the next write and returns the affected row count the
    /// server must report for it.
    pub fn apply(&mut self, expect: &Expect) -> usize {
        self.version += 1;
        match expect {
            Expect::Insert { rows } => {
                self.append(rows);
                rows.len()
            }
            Expect::Delete { pred } => {
                let mut n = 0;
                let index = &mut self.by_value[pred.col];
                let hits: Vec<Vec<u8>> = index
                    .range(pred.lo.clone()..=pred.hi.clone())
                    .map(|(k, _)| k.clone())
                    .collect();
                for key in hits {
                    for id in index.remove(&key).unwrap_or_default() {
                        if self.deleted[id as usize] == ALIVE {
                            self.deleted[id as usize] = self.version;
                            n += 1;
                        }
                    }
                }
                n
            }
            _ => unreachable!("only writes change the log"),
        }
    }

    /// Freezes the log into a checker for the reads recorded beside it.
    pub fn into_checker(self) -> LogChecker {
        let cols = self.by_value.len();
        LogChecker {
            by_col: sorted_ids(&self.rows, cols),
            rows: self.rows,
            inserted: self.inserted,
            deleted: self.deleted,
            version: self.version,
        }
    }
}

/// A frozen [`RowLog`] that checks reads against the versions they may
/// have seen.
#[derive(Debug)]
pub struct LogChecker {
    rows: Vec<Vec<Vec<u8>>>,
    inserted: Vec<u64>,
    deleted: Vec<u64>,
    by_col: Vec<Vec<u32>>,
    version: u64,
}

impl LogChecker {
    fn live_at(&self, id: u32, version: u64) -> bool {
        let id = id as usize;
        self.inserted[id] <= version && version < self.deleted[id]
    }

    /// Checks a read that may have seen any version in `first..=last`.
    /// A count must lie between the lowest and highest count over those
    /// versions; any other result must equal the result at one of them.
    pub fn check(&self, expect: &Expect, rows: &Rows, first: u64, last: u64) -> Result<(), String> {
        let last = last.max(first);
        let pred = pred_of(expect);
        let ids = matching_ids(&self.rows, &self.by_col[pred.col], pred);
        if let Expect::Count { .. } = expect {
            let got = parse_count(single_cell(rows)?)?;
            let (mut lo, mut hi) = (u64::MAX, 0);
            for v in first..=last {
                let n = ids.iter().filter(|&&id| self.live_at(id, v)).count() as u64;
                lo = lo.min(n);
                hi = hi.max(n);
            }
            return if (lo..=hi).contains(&got) {
                Ok(())
            } else {
                Err(format!(
                    "COUNT(*) = {got}, outside [{lo}, {hi}] over versions {first}..={last}"
                ))
            };
        }
        let mut last_err = String::new();
        for v in first..=last {
            let live = ids
                .iter()
                .filter(move |&&id| self.live_at(id, v))
                .map(|&id| self.rows[id as usize].as_slice());
            match check_against(expect, rows, live) {
                Ok(()) => return Ok(()),
                Err(e) => last_err = e,
            }
        }
        Err(format!("{last_err} (at every version {first}..={last})"))
    }

    /// Checks the final table (after every write and background merge)
    /// against `COUNT(*)` and the per-group counts of column `group`.
    pub fn check_final(&self, total: &Rows, groups: &Rows, group: usize) -> Result<(), String> {
        let all = Pred {
            col: group,
            lo: Vec::new(),
            hi: vec![0xFF; 64],
        };
        check_against(
            &Expect::Count { pred: all.clone() },
            total,
            self.live_rows(),
        )?;
        check_against(
            &Expect::GroupCount { pred: all, group },
            groups,
            self.live_rows(),
        )
    }

    fn live_rows(&self) -> impl Iterator<Item = &[Vec<u8>]> + Clone {
        let v = self.version;
        (0..self.rows.len() as u32)
            .filter(move |&id| self.live_at(id, v))
            .map(|id| self.rows[id as usize].as_slice())
    }

    /// Live rows at the last version.
    pub fn live_count(&self) -> usize {
        self.live_rows().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> TableData {
        let rows = [("aa", "x"), ("ab", "y"), ("ab", "x"), ("ba", "z")]
            .iter()
            .map(|(k, v)| vec![k.as_bytes().to_vec(), v.as_bytes().to_vec()])
            .collect();
        TableData {
            name: "t",
            cols: vec!["k", "v"],
            kinds: vec![None, None],
            widths: vec![2, 1],
            rows,
        }
    }

    fn pred(col: usize, lo: &str, hi: &str) -> Pred {
        Pred {
            col,
            lo: lo.as_bytes().to_vec(),
            hi: hi.as_bytes().to_vec(),
        }
    }

    fn cells(v: &[&[&str]]) -> Rows {
        v.iter()
            .map(|r| r.iter().map(|c| c.as_bytes().to_vec()).collect())
            .collect()
    }

    #[test]
    fn static_oracle_accepts_right_and_rejects_injected_wrong_row() {
        let o = StaticOracle::new(&table());
        let e = Expect::Rows {
            pred: pred(0, "ab", "az"),
            project: 0,
        };
        assert!(o.check(&e, &cells(&[&["ab"], &["ab"]])).is_ok());
        // A wrong row, a missing row and an extra row are all rejected.
        assert!(o.check(&e, &cells(&[&["ab"], &["aa"]])).is_err());
        assert!(o.check(&e, &cells(&[&["ab"]])).is_err());
        assert!(o.check(&e, &cells(&[&["ab"], &["ab"], &["ab"]])).is_err());
        let c = Expect::Count {
            pred: pred(1, "x", "y"),
        };
        assert!(o.check(&c, &cells(&[&["3"]])).is_ok());
        assert!(o.check(&c, &cells(&[&["4"]])).is_err());
        let g = Expect::GroupCount {
            pred: pred(1, "x", "x"),
            group: 0,
        };
        assert!(o.check(&g, &cells(&[&["ab", "1"], &["aa", "1"]])).is_ok());
        assert!(o.check(&g, &cells(&[&["ab", "2"]])).is_err());
        let m = Expect::Max {
            pred: pred(1, "x", "y"),
            col: 0,
        };
        assert!(o.check(&m, &cells(&[&["ab"]])).is_ok());
        assert!(o.check(&m, &cells(&[&["ba"]])).is_err());
    }

    #[test]
    fn row_log_checks_reads_against_their_version_window() {
        let mut log = RowLog::new(&table());
        let ins = Expect::Insert {
            rows: cells(&[&["ab", "w"]]),
        };
        assert_eq!(log.apply(&ins), 1); // version 1
        assert_eq!(
            log.apply(&Expect::Delete {
                pred: pred(1, "x", "x")
            }),
            2
        ); // version 2 deletes both 'x' rows
        let chk = log.into_checker();
        let count = Expect::Count {
            pred: pred(0, "ab", "ab"),
        };
        // Version 0: 2 rows; 1: 3 rows; 2: 2 rows.
        assert!(chk.check(&count, &cells(&[&["3"]]), 1, 1).is_ok());
        assert!(chk.check(&count, &cells(&[&["2"]]), 1, 1).is_err());
        assert!(chk.check(&count, &cells(&[&["2"]]), 0, 2).is_ok());
        assert!(chk.check(&count, &cells(&[&["4"]]), 0, 2).is_err());
        let rows = Expect::Rows {
            pred: pred(1, "w", "x"),
            project: 1,
        };
        assert!(chk
            .check(&rows, &cells(&[&["w"], &["x"], &["x"]]), 1, 2)
            .is_ok());
        assert!(chk.check(&rows, &cells(&[&["w"]]), 1, 2).is_ok());
        assert!(chk.check(&rows, &cells(&[&["w"], &["x"]]), 1, 2).is_err());
        // An injected wrong row matches no version of the window.
        assert!(chk.check(&rows, &cells(&[&["w"], &["y"]]), 1, 2).is_err());
        assert_eq!(chk.live_count(), 3);
        assert!(chk
            .check_final(&cells(&[&["3"]]), &cells(&[&["ab", "2"], &["ba", "1"]]), 0)
            .is_ok());
        assert!(chk
            .check_final(&cells(&[&["3"]]), &cells(&[&["ab", "3"]]), 0)
            .is_err());
    }
}
