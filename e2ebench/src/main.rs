//! One end-to-end benchmark of the deployed EncDBDB path.
//!
//! Deploys the workload behind a `NetServer` on a loopback port (in a
//! child process, see `serve`), drives its seeded statement streams
//! through `NetClient` connections as closed loops for `--seconds`,
//! checks every result against a plaintext oracle and prints the metrics
//! as the last line of standard output. `--trace 1` serves in process,
//! runs the same stream with the statements of every other sixth of the
//! window broken down by layer, and prints the per-layer metrics
//! instead. See `e2ebench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload olap_sorted --seed 1 --seconds 20 --trace 0
//! ```

mod deploy;
mod env;
mod gen;
mod json;
mod metrics;
mod oracle;
mod run;
mod serve;
mod stats;
mod traced;

use crate::deploy::{deploy, owner_tables, stored_name, write_tables, Deployment};
use crate::gen::{generate_data, Workload};
use crate::json::Obj;
use crate::metrics::{Resources, TraceInputs};
use crate::run::{run_loop, Ctx};
use crate::serve::{vm_hwm_mib, Finish, MainTable, ServerProcess};
use encdbdb::{DurabilityPolicy, NetClient};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Simulated cost of one enclave transition, ≈8.6k cycles (HotCalls,
/// Weisse et al., ISCA 2017), so ECALL counts cost wall time as on SGX.
const TRANSITION_NS: &str = "4000";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn dir_size(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_size(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Removes the run's scratch directory when the run ends, however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Fails, harmlessly, while another run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    // Before anything can make an ECALL: the simulator reads this once.
    std::env::set_var("ENCDBDB_SIM_TRANSITION_NS", TRANSITION_NS);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        return match serve::serve(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("e2ebench serve: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Where the workload is served.
enum Server {
    /// In this process: the traced run calls the layers directly.
    InProcess(Deployment),
    /// In a child process: the untraced run's RSS is the server's own.
    Process(ServerProcess),
}

fn bench(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let data = generate_data(w, args.seed);
    let durable = w == Workload::IngestMixed;
    let work = WorkDir(
        std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(".bench_work")
            .join(format!("{}-{}", w.name(), std::process::id())),
    );
    std::fs::create_dir_all(&work.0).map_err(|e| format!("{}: {e}", work.0.display()))?;
    let wal_root = durable.then_some(work.0.as_path());
    let main_table = &data.tables[0];
    let stored = stored_name(main_table.name);

    // The traced run needs only one set-up: it reports no setup_s.
    let (mut server, setups) = if args.trace {
        let owner = owner_tables(&data);
        let (dep, setup) = deploy(&owner, args.seed, wal_root, 2).map_err(|e| e.to_string())?;
        (Server::InProcess(dep), vec![setup])
    } else {
        let tables = work.0.join("tables.bin");
        write_tables(&data, &tables).map_err(|e| format!("{}: {e}", tables.display()))?;
        let main = MainTable {
            name: main_table.name,
            cols: &main_table.cols,
        };
        let p = ServerProcess::start(&tables, &main, args.seed, wal_root)?;
        let setups = p.setups.clone();
        (Server::Process(p), setups)
    };
    let setup_s = stats::median(&setups).unwrap_or(0.0);

    let env = env::env_block(&env::EnvInputs {
        workload: w.name(),
        seed: args.seed,
        seconds: args.seconds,
        transition_ns: TRANSITION_NS,
        durability: durable.then(|| format!("{:?}", DurabilityPolicy::default())),
        wal_dir: wal_root,
        rows: data.tables.iter().map(|t| (t.name, t.rows.len())).collect(),
    });
    let mut env_line = Obj::new();
    env_line.obj("env", env.clone());
    println!("{}", env_line.render());

    let (addr, in_process) = match &mut server {
        Server::InProcess(dep) => (dep.handle.addr(), Some(dep)),
        Server::Process(p) => (p.addr, None),
    };
    let tracer = in_process.as_ref().map(|dep| {
        traced::Tracer::new(&data, dep.server.clone(), dep.master_key.clone(), args.seed)
    });
    let disk0 = wal_root.map_or(0, dir_size);
    let (mut res, probes) = {
        let (dep_server, readers, master_key) = match in_process {
            Some(dep) => (
                Some(&dep.server),
                dep.readers.as_mut_slice(),
                Some(&dep.master_key),
            ),
            None => (None, &mut [][..], None),
        };
        let ctx = Ctx::new(&data, addr, dep_server, tracer.as_ref());
        let res = run_loop(&ctx, readers, args.seconds, args.seed);
        // The traced run's probes beside the window: the enclaves' heap
        // peaks and the PAE cost per value.
        let probes = dep_server.zip(master_key).map(|(s, key)| {
            let q = s.enclave().enclave().trusted_heap_peak();
            let m = s.merge_enclave().enclave().trusted_heap_peak();
            (
                q.max(m) as f64 / 1024.0,
                traced::pae_costs(key, crypto_width(w)),
            )
        });
        (res, probes)
    };
    let disk1 = wal_root.map_or(0, dir_size);

    // Final check on ingest: after every background merge, the table must
    // match the model exactly.
    let mut live_rows = main_table.rows.len();
    if let Some(checker) = &res.checker {
        match &mut server {
            Server::InProcess(dep) => dep
                .server
                .drain_background_work()
                .map_err(|e| e.to_string())?,
            Server::Process(p) => p.drain()?,
        }
        let mut c =
            NetClient::connect(addr, deploy::TENANT, deploy::TOKEN).map_err(|e| e.to_string())?;
        let t = main_table.name;
        let total = c.execute(&format!("SELECT COUNT(*) FROM {t}"));
        let groups = c.execute(&format!("SELECT k, COUNT(*) FROM {t} GROUP BY k"));
        c.close();
        let verdict = match (total, groups) {
            (Ok(total), Ok(groups)) => checker.check_final(&total.rows, &groups.rows, 0),
            (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
        };
        res.conns[0].attempted += 1;
        if let Err(e) = verdict {
            res.conns[0].failed += 1;
            res.conns[0].errors.push(format!("final check: {e}"));
        }
        live_rows = checker.live_count();
    }
    // Storage is measured on the merged main store, as in Table 6, not at
    // whatever point of a merge cycle the window closed.
    let finish = match server {
        Server::InProcess(dep) => {
            if durable {
                dep.server.merge_table(&stored).map_err(|e| e.to_string())?;
            }
            let storage = main_table
                .cols
                .iter()
                .map(|c| dep.server.column_storage_size(&stored, c).unwrap_or(0))
                .sum();
            drop(dep.handle.shutdown().map_err(|e| e.to_string())?);
            Finish {
                storage,
                rss_peak_mib: vm_hwm_mib(),
            }
        }
        Server::Process(p) => p.finish()?,
    };
    let resources = Resources {
        setup_s,
        bytes_per_plain_byte: finish.storage as f64
            / (live_rows * main_table.plain_bytes_per_row()).max(1) as f64,
        rss_peak_mib: finish.rss_peak_mib,
    };

    let attempted: u64 = res.conns.iter().map(|c| c.attempted).sum();
    let failed: u64 = res.conns.iter().map(|c| c.failed).sum();
    for e in res.conns.iter().flat_map(|c| c.errors.iter()) {
        eprintln!("e2ebench: failure: {e}");
    }

    let e2e = metrics::end_to_end(&res, &resources);
    let shapes = metrics::by_shape(&res);
    let mut summary = Obj::new();
    for (shape, lat) in &shapes {
        let mut o = Obj::new();
        o.num("n", lat.len() as f64);
        for p in [10.0, 50.0, 90.0] {
            o.num(
                &format!("p{p}_us"),
                stats::percentile(lat, p).unwrap_or(0.0),
            );
        }
        summary.obj(shape, o);
    }
    let med = |shape: &str| shapes.get(shape).and_then(|v| stats::median(v));
    if let (Some(b), Some(p)) = (med("select_b_rs2"), med("select_p_rs2")) {
        summary.num("ed5_over_plain_select_rs2", b / p);
    }
    summary.num("failed_frac", stats::ratio(failed as f64, attempted as f64));
    summary.num("window_s", res.window_s);
    summary.raw(
        "setups_s",
        json::array(&setups.iter().map(f64::to_string).collect::<Vec<_>>()),
    );
    summary.obj("end_to_end", e2e.to_obj());

    let out_metrics = if let Some((heap_peak_kib, pae_ns)) = probes {
        let t = metrics::traced(
            &res,
            &TraceInputs {
                disk_growth: disk1 as f64 - disk0 as f64,
                pae_ns,
                heap_peak_kib,
            },
        );
        let out_dir = Path::new("e2ebench").join("out");
        let _ = std::fs::create_dir_all(&out_dir);
        let stem = format!("{}-seed{}", w.name(), args.seed);
        let mut report = Obj::new();
        report
            .obj("env", env)
            .obj("breakdown", t.breakdown)
            .obj("per_layer", t.metrics.to_obj())
            .obj("summary", summary);
        let report = report.render();
        eprintln!("e2ebench: breakdown {report}");
        let _ = std::fs::write(out_dir.join(format!("{stem}-breakdown.json")), &report);
        let _ = std::fs::write(
            out_dir.join(format!("{stem}-trace.json")),
            metrics::chrome_trace(&res),
        );
        t.metrics
    } else {
        eprintln!("e2ebench: summary {}", summary.render());
        e2e
    };
    drop(work);

    let mut result = Obj::new();
    result
        .bool("correct", failed == 0)
        .num("attempted", attempted as f64)
        .num("failed", failed as f64)
        .obj("metrics", out_metrics.to_obj());
    println!("{}", result.render());
    Ok(())
}

/// Value width the crypto probe uses: the width of the column whose
/// cells each workload decrypts most.
fn crypto_width(w: Workload) -> usize {
    match w {
        Workload::OlapSorted | Workload::OlapUnsorted => 10,
        Workload::IngestMixed => 12,
    }
}
