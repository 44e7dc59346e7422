//! The env block: what a run's numbers depend on besides the code.
//! Runs whose env blocks differ are not compared.

use crate::json::Obj;
use std::path::Path;
use std::process::Command;

fn cpu_info() -> (String, Vec<(&'static str, bool)>) {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        info.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_default()
    };
    let model = field("model name");
    let flags = field("flags");
    let has = |f: &str| flags.split_whitespace().any(|x| x == f);
    (
        model,
        ["aes", "pclmulqdq", "avx2", "vaes"]
            .into_iter()
            .map(|f| (f, has(f)))
            .collect(),
    )
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut parts = line.split_whitespace();
        let (Some(_dev), Some(mnt), Some(fs)) = (parts.next(), parts.next(), parts.next()) else {
            continue;
        };
        if path.starts_with(mnt) && best.as_ref().is_none_or(|(len, _)| mnt.len() > *len) {
            best = Some((mnt.len(), fs.to_string()));
        }
    }
    best.map(|(_, fs)| fs).unwrap_or_else(|| "unknown".into())
}

/// The fields of a run's env block.
pub struct EnvInputs<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Simulated ECALL transition cost.
    pub transition_ns: &'a str,
    /// Durability policy, or `None` for in-memory deployments.
    pub durability: Option<String>,
    /// Directory holding the WAL, if durable.
    pub wal_dir: Option<&'a Path>,
    /// Row counts of the loaded tables.
    pub rows: Vec<(&'a str, usize)>,
}

/// Builds the env block.
pub fn env_block(inp: &EnvInputs) -> Obj {
    let (model, flags) = cpu_info();
    let mut cpu_flags = Obj::new();
    for (f, on) in flags {
        cpu_flags.bool(f, on);
    }
    let mut rows = Obj::new();
    for (t, n) in &inp.rows {
        rows.num(t, *n as f64);
    }
    let mut o = Obj::new();
    o.str("workload", inp.workload);
    o.num("seed", inp.seed as f64);
    o.num("seconds", inp.seconds);
    o.num(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()) as f64,
    );
    o.str("cpu_model", &model);
    o.obj("cpu_flags", cpu_flags);
    o.str(
        "rustc",
        &command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
    );
    o.str(
        "git_commit",
        &command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into()),
    );
    if let Some(status) = command_line("git", &["status", "--porcelain"]) {
        o.bool("git_dirty", !status.is_empty());
    }
    o.str("ENCDBDB_SIM_TRANSITION_NS", inp.transition_ns);
    o.str(
        "durability",
        inp.durability.as_deref().unwrap_or("none (in memory)"),
    );
    o.str(
        "wal_fs_type",
        &inp.wal_dir.map(fs_type).unwrap_or_else(|| "n/a".into()),
    );
    o.obj("rows", rows);
    o
}
