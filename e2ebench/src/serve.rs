//! The untraced run's server processes.
//!
//! An untraced run deploys the workload in child processes of the same
//! binary (`e2ebench serve ...`), so that the peak RSS it reports is the
//! server's own rather than that of the benchmark's generated data,
//! oracle and statement streams, and so that every set-up starts from a
//! fresh process, as a deployment does. The parent writes the generated
//! tables to a file in the run's scratch directory; each child loads
//! them into the owner's columns and sets up once. A `probe` child then
//! shuts down and exits; the last, `keep` child serves on its loopback
//! port and answers line commands on its standard input:
//!
//! ```text
//! child:  ready <addr> <setup_s>
//! parent: drain      child: drained          (drain_background_work)
//! parent: finish     child: done <storage bytes> <peak RSS MiB>
//! ```
//!
//! `finish` merges the workload's table first when it is durable, so
//! storage is measured on the merged main store, then shuts down.

use crate::deploy::{deploy, read_tables, stored_name, Deployment};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn vm_hwm_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Set-ups per untraced run: at least 7 and at most 41, until they took
/// 3 s in all, so a fast set-up is sampled more often. `setup_s` is
/// their median.
const MIN_SETUPS: usize = 7;
const MAX_SETUPS: usize = 41;
const SETUP_BUDGET_S: f64 = 3.0;

/// Whether the next set-up, after those timed in `times`, is the last.
fn last_setup(times: &[f64]) -> bool {
    let n = times.len() + 1;
    n >= MAX_SETUPS || (n >= MIN_SETUPS && times.iter().sum::<f64>() >= SETUP_BUDGET_S)
}

/// What the server process reports when it finishes.
pub struct Finish {
    /// `column_storage_size` summed over the workload table's columns.
    pub storage: usize,
    /// The server process's peak RSS in MiB.
    pub rss_peak_mib: f64,
}

/// The workload table's name and columns, which the server process
/// measures storage over.
pub struct MainTable<'a> {
    /// Client-visible name.
    pub name: &'a str,
    /// Column names.
    pub cols: &'a [&'a str],
}

/// A running server process.
pub struct ServerProcess {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    /// The address it serves on.
    pub addr: SocketAddr,
    /// Each set-up's time in seconds, this process's last.
    pub setups: Vec<f64>,
}

impl ServerProcess {
    /// Sets the workload up from `tables` in one fresh process after
    /// another, and returns the last one, serving. A durable deployment
    /// gets a fresh storage directory under `wal_root` each time.
    pub fn start(
        tables: &Path,
        main: &MainTable,
        seed: u64,
        wal_root: Option<&Path>,
    ) -> Result<ServerProcess, String> {
        let mut setups = Vec::new();
        loop {
            let keep = last_setup(&setups);
            let wal = wal_root.map(|w| w.join(format!("wal-{}", setups.len())));
            let mut p = Self::spawn(tables, main, seed, wal.as_deref(), keep)?;
            setups.append(&mut p.setups);
            if keep {
                p.setups = setups;
                return Ok(p);
            }
            let status = p.child.wait().map_err(|e| e.to_string())?;
            if !status.success() {
                return Err(format!("server process: {status}"));
            }
            if let Some(dir) = &wal {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }

    fn spawn(
        tables: &Path,
        main: &MainTable,
        seed: u64,
        wal: Option<&Path>,
        keep: bool,
    ) -> Result<ServerProcess, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve").arg(tables).args([
            main.name,
            &main.cols.join(","),
            &seed.to_string(),
            if keep { "keep" } else { "probe" },
        ]);
        if let Some(w) = wal {
            cmd.arg(w);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("server process: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut p = ServerProcess {
            child,
            stdin,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setups: Vec::new(),
        };
        let line = p.reply()?;
        let mut parts = line.split_whitespace();
        let ready = parts.next() == Some("ready");
        let addr = parts.next().and_then(|a| a.parse().ok());
        let setup = parts.next().and_then(|s| s.parse().ok());
        match (ready, addr, setup) {
            (true, Some(addr), Some(setup)) => {
                p.addr = addr;
                p.setups.push(setup);
                Ok(p)
            }
            _ => Err(format!("server process: unexpected {line:?}")),
        }
    }

    fn reply(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("server process exited".to_string()),
            Ok(_) => Ok(line.trim().to_string()),
            Err(e) => Err(format!("server process: {e}")),
        }
    }

    fn request(&mut self, cmd: &str) -> Result<String, String> {
        writeln!(self.stdin, "{cmd}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("server process: {e}"))?;
        self.reply()
    }

    /// Waits until every background merge has finished.
    pub fn drain(&mut self) -> Result<(), String> {
        match self.request("drain")?.as_str() {
            "drained" => Ok(()),
            other => Err(format!("server process: unexpected {other:?}")),
        }
    }

    /// Measures storage, shuts the server down and waits for the process.
    pub fn finish(mut self) -> Result<Finish, String> {
        let line = self.request("finish")?;
        let mut parts = line.split_whitespace();
        let done = parts.next() == Some("done");
        let storage = parts.next().and_then(|s| s.parse().ok());
        let rss = parts.next().and_then(|s| s.parse().ok());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        match (done, storage, rss) {
            (true, Some(storage), Some(rss_peak_mib)) if status.success() => Ok(Finish {
                storage,
                rss_peak_mib,
            }),
            _ => Err(format!("server process: {line:?}, {status}")),
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        // After the process has exited both calls are no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The server process's main: `serve <tables> <table> <cols> <seed>
/// probe|keep [<wal dir>]`.
pub fn serve(args: &[String]) -> Result<(), String> {
    let [tables, table, cols, seed, mode, rest @ ..] = args else {
        return Err("serve <tables> <table> <cols> <seed> probe|keep [<wal dir>]".to_string());
    };
    let seed: u64 = seed.parse().map_err(|_| "bad seed")?;
    let wal = rest.first().map(Path::new);
    let owner = read_tables(Path::new(tables)).map_err(|e| format!("{tables}: {e}"))?;
    let (dep, setup) = deploy(&owner, seed, wal, 0).map_err(|e| e.to_string())?;
    drop(owner);
    let mut out = std::io::stdout().lock();
    let mut say = |line: String| {
        writeln!(out, "{line}")
            .and_then(|()| out.flush())
            .map_err(|e| e.to_string())
    };
    say(format!("ready {} {setup}", dep.handle.addr()))?;
    if mode == "probe" {
        drop(dep.handle.shutdown().map_err(|e| e.to_string())?);
        return Ok(());
    }
    let stored = stored_name(table);
    for line in std::io::stdin().lock().lines() {
        match line.map_err(|e| e.to_string())?.trim() {
            "drain" => {
                dep.server
                    .drain_background_work()
                    .map_err(|e| e.to_string())?;
                say("drained".to_string())?;
            }
            "finish" => {
                let storage = finish(dep, &stored, cols, wal.is_some())?;
                return say(format!("done {storage} {}", vm_hwm_mib()));
            }
            other => return Err(format!("unknown command {other:?}")),
        }
    }
    Err("the benchmark closed the command pipe".to_string())
}

fn finish(dep: Deployment, stored: &str, cols: &str, merge: bool) -> Result<usize, String> {
    if merge {
        dep.server.merge_table(stored).map_err(|e| e.to_string())?;
    }
    let storage = cols
        .split(',')
        .map(|c| dep.server.column_storage_size(stored, c).unwrap_or(0))
        .sum();
    drop(dep.handle.shutdown().map_err(|e| e.to_string())?);
    Ok(storage)
}
