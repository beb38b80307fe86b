//! The `serve-warm` workload: a `csmt-serve` daemon over a store that
//! already holds every result of a seeded request set, driven by a closed
//! loop of client connections. Nothing is simulated while it is timed,
//! so it bypasses every simulator optimisation and isolates accept,
//! engine, journal, protocol, figure compute and render costs.

use crate::check::{self, Tally};
use crate::inputs::{self, Rng};
use crate::span::Recorder;
use crate::{os, Ctx, Run};
use csmt_core::SimResult;
use csmt_experiments::figures::run_named_all;
use csmt_experiments::proto::{read_response, write_line, JobEvent, Request, Response, ServeStats};
use csmt_experiments::report::Table;
use csmt_experiments::runner::ExpOptions;
use csmt_experiments::spec::JobSpec;
use csmt_experiments::Sweeps;
use csmt_store::{EventKind, Journal, Lookup, ResultStore, StoreKey};
use std::collections::{BTreeMap, HashMap};
use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Commit target and warm-up of every served artifact: small enough that
/// the summary's ~2 800 runs pre-fill in a few seconds.
pub const TARGET: u64 = 400;
pub const WARMUP: u64 = 100;

/// One request in this many asks for the whole-paper artifact, whose
/// requests carry the most server-side work. They are five times more
/// numerous than the 1% beyond the reported tail (p99), so the tail sits
/// among them rather than among the few requests host scheduling delayed.
const FIGURE_EVERY: usize = 20;

/// Upper end of a client's think time before each request. A client that
/// resent at once would lock onto the daemon's 10 ms accept poll: it
/// would find the daemon asleep and be accepted at the next tick, so a
/// request would take one poll period whatever the server-side work
/// cost. Thinking for a seeded random part of a period spreads arrivals
/// over it, as independent users would, so server-side costs show in the
/// latency.
const THINK_MAX: Duration = Duration::from_millis(10);

/// Longest any single daemon reply may take before the run fails.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `csmt-serve`; killed and reaped when dropped.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Start the daemon over `store` and wait until its socket accepts.
    pub fn start(bin: &Path, store: &Path, socket: &Path, jobs: usize) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        let child = Command::new(bin)
            .arg("--socket")
            .arg(socket)
            .arg("--store")
            .arg(store)
            .args(["--jobs", &jobs.to_string(), "--quiet"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut d = Daemon {
            child,
            socket: socket.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while UnixStream::connect(socket).is_err() {
            if let Ok(Some(status)) = d.child.try_wait() {
                return Err(format!("csmt-serve exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("csmt-serve did not open its socket within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(d)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn call(&self, req: &Request) -> Result<Response, String> {
        let (mut reader, mut writer) = connect(&self.socket)?;
        write_line(&mut writer, req).map_err(|e| e.to_string())?;
        read_response(&mut reader)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "daemon closed the connection".to_string())
    }

    pub fn stats(&self) -> Result<ServeStats, String> {
        match self.call(&Request::Stats)? {
            Response::Stats { stats } => Ok(stats),
            other => Err(format!("unexpected reply to Stats: {other:?}")),
        }
    }

    /// Ask the daemon to drain and exit, and wait for it.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = self.call(&Request::Shutdown);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("csmt-serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    return Err(format!(
                        "csmt-serve did not exit after Shutdown ({reply:?})"
                    ))
                }
            }
        }
        match reply {
            Ok(Response::ShuttingDown) => Ok(()),
            other => Err(format!("unexpected reply to Shutdown: {other:?}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn connect(socket: &Path) -> Result<(BufReader<UnixStream>, UnixStream), String> {
    let s = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let w = s.try_clone().map_err(|e| e.to_string())?;
    Ok((BufReader::new(s), w))
}

/// What one request returned.
pub struct Reply {
    pub tables: Vec<(String, String)>,
    pub attached: bool,
}

/// One client round trip on a fresh connection, as `csmt-experiments
/// client` makes it: submit, stream the job's events, render the tables.
/// Records `serve.request` with its `serve.submit` (connect included),
/// `serve.events` and `serve.client_render` children.
pub fn round_trip(
    socket: &Path,
    spec: &JobSpec,
    rec: &Recorder,
    request: u64,
) -> Result<Reply, String> {
    let t0 = Instant::now();
    let (mut reader, mut writer) = connect(socket)?;
    let io = |e: std::io::Error| e.to_string();
    write_line(&mut writer, &Request::Submit { spec: spec.clone() }).map_err(io)?;
    let (job, attached) = match read_response(&mut reader).map_err(io)? {
        Some(Response::Submitted { job, attached }) => (job, attached),
        Some(Response::Rejected { reason, .. }) => return Err(format!("rejected: {reason}")),
        other => return Err(format!("unexpected reply to Submit: {other:?}")),
    };
    let t1 = Instant::now();
    write_line(&mut writer, &Request::Events { job }).map_err(io)?;
    let mut tables = Vec::new();
    loop {
        match read_response(&mut reader).map_err(io)? {
            Some(Response::Event { event, .. }) => match event {
                JobEvent::ArtifactDone { name, table_json } => tables.push((name, table_json)),
                JobEvent::Finished { state } if state == "done" => break,
                JobEvent::Finished { state } => return Err(format!("job {job} ended {state}")),
                _ => {}
            },
            other => return Err(format!("unexpected reply to Events: {other:?}")),
        }
    }
    let t2 = Instant::now();
    for (name, json) in &tables {
        let table = Table::from_json(json).map_err(|e| format!("bad table {name}: {e}"))?;
        std::hint::black_box(table.render());
    }
    let t3 = Instant::now();
    let root = rec.record("serve.request", None, request, t0, t3);
    rec.record("serve.submit", Some(root), request, t0, t1);
    rec.record("serve.events", Some(root), request, t1, t2);
    rec.record("serve.client_render", Some(root), request, t2, t3);
    Ok(Reply { tables, attached })
}

/// Client-side counters of a closed loop.
#[derive(Default)]
pub struct Load {
    pub tally: Tally,
    pub latencies_ms: Vec<f64>,
    pub attached: u64,
    pub rejected: u64,
    /// Completed requests per artifact index.
    pub served: HashMap<usize, u64>,
}

/// Closed loop: `clients` connections each send the next request of
/// `sequence` once the previous one completed and the client thought for
/// a seeded random time below [`THINK_MAX`], until `deadline`. A
/// request's latency runs from its connect, so think time is not in it.
/// Every reply is checked against `expected`.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    socket: &Path,
    specs: &[JobSpec],
    expected: &[Vec<(String, String)>],
    sequence: &[usize],
    clients: usize,
    seed: u64,
    deadline: Instant,
    rec: &Recorder,
) -> Load {
    let next = AtomicUsize::new(0);
    let total = Mutex::new(Load::default());
    std::thread::scope(|s| {
        for c in 0..clients {
            let (next, total) = (&next, &total);
            s.spawn(move || {
                let mut think = Rng::new(seed.wrapping_add(0x7417_c0de * (c as u64 + 1)));
                let think_us = THINK_MAX.as_micros() as usize;
                let mut mine = Load::default();
                loop {
                    std::thread::sleep(Duration::from_micros(think.below(think_us) as u64));
                    if Instant::now() >= deadline {
                        break;
                    }
                    let n = next.fetch_add(1, Ordering::Relaxed);
                    let a = sequence[n % sequence.len()];
                    let artifact = &specs[a].artifacts[0];
                    mine.tally.attempt(1);
                    let t = Instant::now();
                    match round_trip(socket, &specs[a], rec, n as u64) {
                        Ok(reply) => {
                            mine.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                            mine.attached += reply.attached as u64;
                            *mine.served.entry(a).or_insert(0) += 1;
                            if let Err(e) = check::tables(artifact, &expected[a], &reply.tables) {
                                mine.tally.fail(e);
                            }
                        }
                        Err(e) => {
                            mine.rejected += e.starts_with("rejected") as u64;
                            mine.tally.fail(format!("{artifact}: {e}"));
                        }
                    }
                }
                let mut t = total.lock().expect("client totals poisoned");
                t.tally.absorb(mine.tally);
                t.latencies_ms.extend(mine.latencies_ms);
                t.attached += mine.attached;
                t.rejected += mine.rejected;
                for (a, n) in mine.served {
                    *t.served.entry(a).or_insert(0) += n;
                }
            });
        }
    });
    total.into_inner().expect("client totals poisoned")
}

/// Per-layer facts only the serve path has.
pub struct ServeInfo {
    pub attached: u64,
    pub rejected: u64,
}

/// Unix socket paths are limited to ~100 bytes, so the socket lives at a
/// short path relative to the checkout root, the benchmark's working
/// directory.
pub fn socket_path(ctx: &Ctx, tag: &str) -> PathBuf {
    let dir = ctx.fresh_dir(tag);
    let rel = dir
        .strip_prefix(&ctx.root)
        .map(Path::to_path_buf)
        .unwrap_or(dir);
    rel.join("d.sock")
}

/// A run's identity in the journal: label, IQ scheme, RF scheme, config.
type RunId = (String, String, String, String);

/// Render `artifact` on a fresh `Sweeps` over the store in `dir`, which
/// simulates and stores whatever the store lacks. Returns the tables as
/// JSON and every run the render read, as its own journal entries name
/// them.
fn prefill(opts: ExpOptions, dir: &Path, artifact: &str) -> (Vec<(String, String)>, Vec<RunId>) {
    let sweeps = Sweeps::with_store(opts, dir).expect("opening the serve store");
    let tables = run_named_all(artifact, &sweeps)
        .expect("seeded artifacts are known")
        .into_iter()
        .map(|(name, t)| (name, t.to_json()))
        .collect();
    let journal = sweeps.journal().expect("store-backed sweeps journal");
    let mut runs: Vec<RunId> = Journal::read(journal.path())
        .into_iter()
        .filter(|e| e.run_id == journal.run_id())
        .filter_map(|e| match e.kind {
            EventKind::CacheHit { job } | EventKind::CacheMiss { job } => {
                Some((job.label, job.iq, job.rf, job.cfg))
            }
            _ => None,
        })
        .collect();
    runs.sort();
    runs.dedup();
    (tables, runs)
}

/// The key material of a store record: its payload line's `key`.
#[derive(serde::Deserialize)]
struct RecordKey {
    key: StoreKey,
}

/// Every result in the store in `dir`, read back through the store's
/// verified lookup and indexed by the journal identity of its run.
fn stored_results(dir: &Path) -> BTreeMap<RunId, (StoreKey, SimResult)> {
    let store = ResultStore::open(dir).expect("opening the serve store");
    let records = std::fs::read_dir(dir.join("records")).expect("listing the store's records");
    let mut out = BTreeMap::new();
    for entry in records {
        let path = entry.expect("listing the store's records").path();
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        let payload = text.lines().nth(1).unwrap_or("");
        let RecordKey { key } = serde_json::from_str(payload)
            .unwrap_or_else(|e| panic!("bad record {}: {e}", path.display()));
        let Lookup::Hit(result) = store.get(&key) else {
            panic!("the store does not serve its own record {}", path.display());
        };
        let id = (
            key.label.clone(),
            key.iq.clone(),
            key.rf.clone(),
            key.cfg.clone(),
        );
        out.insert(id, (key, result));
    }
    out
}

pub fn serve_warm(ctx: &Ctx, rec: &Recorder) -> Run {
    let opts = ExpOptions {
        commit_target: TARGET,
        warmup: WARMUP,
        jobs: ctx.jobs,
        verbose: false,
        ..ExpOptions::default()
    };
    let reqs = inputs::requests(&mut Rng::new(ctx.seed), 2, FIGURE_EVERY, 4096);
    let bundle = inputs::bundle(&mut Rng::new(ctx.seed ^ 0x5e7e));
    ctx.write_inputs(&inputs::describe(
        &reqs.workloads,
        &[format!(
            "requests {}",
            reqs.sequence
                .iter()
                .map(|&i| reqs.artifacts[i].as_str())
                .collect::<Vec<_>>()
                .join(" ")
        )],
    ));

    // Pre-fill: render every artifact in process into the daemon's store.
    // The renders are the reference every streamed table must match, and
    // each records the runs its artifact reads.
    let store_dir = ctx.fresh_dir("serve-warm-store");
    let (expected, reads): (Vec<_>, Vec<_>) = reqs
        .artifacts
        .iter()
        .map(|a| prefill(opts, &store_dir, a))
        .unzip();
    let specs: Vec<JobSpec> = reqs
        .artifacts
        .iter()
        .map(|a| JobSpec::new(vec![a.clone()], &opts))
        .collect();

    // Set-up, three times: start the daemon and serve each distinct
    // request once, so the timed loop meets a warm daemon.
    let mut tally = Tally::default();
    let mut set_up_once = |i: usize| -> Daemon {
        let socket = socket_path(ctx, &format!("serve-warm-sock-{i}"));
        let d = Daemon::start(&ctx.serve_bin, &store_dir, &socket, ctx.jobs)
            .unwrap_or_else(|e| panic!("{e}"));
        for (a, spec) in specs.iter().enumerate() {
            tally.attempt(1);
            match round_trip(&socket, spec, &Recorder::new(false), 0) {
                Ok(r) => {
                    if let Err(e) = check::tables(&reqs.artifacts[a], &expected[a], &r.tables) {
                        tally.fail(e);
                    }
                }
                Err(e) => tally.fail(format!("warm-up {}: {e}", reqs.artifacts[a])),
            }
        }
        d
    };
    let mut setup_s = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for i in 0..3 {
        if let Some(prev) = daemon.take() {
            prev.shutdown().unwrap_or_else(|e| panic!("{e}"));
        }
        let t = Instant::now();
        daemon = Some(set_up_once(i));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("the last set-up's daemon");
    let socket = daemon.socket.clone();

    let t0 = Instant::now();
    let load = closed_loop(
        &socket,
        &specs,
        &expected,
        &reqs.sequence,
        ctx.jobs,
        ctx.seed,
        t0 + Duration::from_secs(ctx.seconds),
        rec,
    );
    let wall_s = t0.elapsed().as_secs_f64();
    let peak_rss_mb =
        os::peak_rss_mb(&daemon.pid().to_string()).expect("reading the daemon's peak RSS");
    let stats = daemon
        .stats()
        .unwrap_or_else(|e| panic!("daemon stats: {e}"));
    daemon.shutdown().unwrap_or_else(|e| panic!("{e}"));

    tally.absorb(load.tally);
    tally.fail_n(stats.jobs_failed, "daemon job failed");
    tally.fail_n(stats.store_quarantined, "store record quarantined");
    if stats.sims_completed > 0 {
        tally.fail(format!(
            "the daemon simulated {} runs; the pre-filled store should have served them",
            stats.sims_completed
        ));
    }

    // What each artifact delivers: the simulated cycles and commit-horizon
    // uops of the runs its pre-fill read, counted once per completed
    // request.
    let stored = stored_results(&store_dir);
    let (mut sim_cycles, mut horizon_uops) = (0u64, 0u64);
    for (a, runs) in reads.iter().enumerate() {
        let n = load.served.get(&a).copied().unwrap_or(0);
        for id in runs {
            let (_, r) = stored
                .get(id)
                .unwrap_or_else(|| panic!("no stored result for {id:?}"));
            sim_cycles += n * r.stats.cycles;
            horizon_uops += n * TARGET * r.num_threads as u64;
        }
    }
    // Every record in the store was written by a pre-fill that read it.
    let delivered = stored.into_values().collect();
    let sweeps = Sweeps::with_store(opts, &store_dir).expect("opening the serve store");
    Run {
        tally,
        setup_s,
        wall_s,
        ops: load.latencies_ms.len() as u64,
        latencies_ms: load.latencies_ms,
        sim_cycles,
        horizon_uops,
        peak_rss_mb,
        exec: csmt_store::ExecCounters {
            workers: stats.exec_workers,
            executed: stats.exec_executed,
            steals: stats.exec_steals,
        },
        workloads: reqs.workloads,
        bundle,
        artifacts: reqs.artifacts,
        delivered,
        opts,
        sweeps,
        store_dir,
        serve: Some(ServeInfo {
            attached: load.attached,
            rejected: load.rejected,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmt_trace::suite::suite;

    #[test]
    fn a_prefill_accounts_for_exactly_the_runs_its_artifact_read() {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work/test-prefill");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ExpOptions {
            commit_target: 300,
            warmup: 100,
            jobs: 1,
            verbose: false,
            ..ExpOptions::default()
        };
        let w = suite()[0].name.clone();
        let artifact = format!("detail:{w}");
        let (tables, cold) = prefill(opts, &dir, &artifact);
        assert!(!tables.is_empty() && !cold.is_empty());
        // Warm, the same render reads the same runs, now from the store.
        let (again, warm) = prefill(opts, &dir, &artifact);
        assert_eq!((&tables, &cold), (&again, &warm));
        // The store holds exactly those runs, and serves each of them.
        let stored = stored_results(&dir);
        assert_eq!(stored.len(), cold.len());
        for id in &cold {
            let (key, r) = &stored[id];
            assert_eq!(key.label, w);
            assert_eq!(r.commit_target, 300);
            assert!(r.stats.cycles > 0);
        }
        std::fs::remove_dir_all(&dir).expect("removing the test store");
    }
}
