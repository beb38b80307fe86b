//! Per-layer measurements of the traced run. Each one times calls into a
//! crate's public functions from here, on the workload's own inputs: the
//! components inside the cycle loop (`trace`, `mem`, `frontend`,
//! `backend`) are fed the workload's decoded uop stream, the `core`,
//! `store` and `experiments` layers are called with the workload's traces,
//! results and artifacts, and the `serve` layer is read from client-side
//! spans of daemon round trips. Simulated statistics are exact counts
//! taken from the results the workload delivered, which the simulator
//! measures after its cache warm-up and measurement warm-up.

use crate::serve::{round_trip, socket_path, Daemon};
use crate::span::{self, Recorder};
use crate::sweep::{detail_grid, SAMPLE};
use crate::{Ctx, Run};
use csmt_backend::IssueQueue;
use csmt_core::{Checkpoint, Simulator};
use csmt_experiments::figures::run_named_all;
use csmt_experiments::proto::{read_response, write_line, JobEvent, Response};
use csmt_experiments::runner::{CfgKind, ExpOptions};
use csmt_experiments::sample::sampled_run;
use csmt_experiments::spec::JobSpec;
use csmt_frontend::{Gshare, TraceCache};
use csmt_mem::MemHierarchy;
use csmt_store::{ArtifactStore, EventKind, JobDesc, Journal, Lookup, ResultStore};
use csmt_trace::suite::{TraceSpec, Workload};
use csmt_trace::{SharedStream, StreamReader, ThreadTrace};
use csmt_types::{MachineConfig, MicroOp, OpClass, RegFileSchemeKind, SchemeKind, ThreadId};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Uops replayed per trace: one default-target run's warm-up plus
/// measured window.
fn replay_uops() -> usize {
    let d = ExpOptions::default();
    (d.warmup + d.commit_target) as usize
}

/// Cycles each `Simulator::step` loop is timed for, after a warm-up.
const STEP_WARM: u64 = 2_000;
const STEP_CYCLES: u64 = 20_000;

/// Results replayed into a scratch result store.
const STORE_REPLAYS: usize = 64;

/// Round trips of the serve probe on workloads that do not time the
/// daemon themselves.
const SERVE_PROBES: usize = 30;

/// `n` ns per `count` operations, or 0 when nothing ran.
fn per(ns: u128, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        ns as f64 / count as f64
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, u128) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos())
}

/// The first workload of each kind: enough to cover ILP, MEM and MIX
/// behaviour without replaying every selected pair.
fn one_per_kind(ws: &[Workload]) -> Vec<&Workload> {
    let mut out: Vec<&Workload> = Vec::new();
    for w in ws {
        if !out.iter().any(|o| o.kind == w.kind) {
            out.push(w);
        }
    }
    out
}

/// Decoded uops of `spec`, as the simulator's private trace source
/// delivers them.
fn decoded(spec: &TraceSpec, n: usize) -> Vec<MicroOp> {
    let mut t = ThreadTrace::from_profile(&spec.profile, spec.seed);
    (0..n).map(|_| t.next_uop()).collect()
}

/// Both threads' uops interleaved one by one, as fetch alternates them.
fn interleave(threads: &[Vec<MicroOp>]) -> Vec<(ThreadId, &MicroOp)> {
    let n = threads.iter().map(Vec::len).max().unwrap_or(0);
    (0..n)
        .flat_map(|i| {
            threads
                .iter()
                .enumerate()
                .filter_map(move |(t, v)| v.get(i).map(|u| (ThreadId(t as u8), u)))
        })
        .collect()
}

fn trace_layer(ws: &[&Workload], rec: &Recorder, root: u64, out: &mut Vec<Metric>) {
    let n = replay_uops();
    let specs: Vec<&TraceSpec> = ws.iter().flat_map(|w| w.traces.iter()).collect();
    let (_, decode_ns) = rec.span("trace.decode", Some(root), 0, |_| {
        timed(|| {
            for s in &specs {
                let mut t = ThreadTrace::from_profile(&s.profile, s.seed);
                for _ in 0..n {
                    black_box(t.next_uop());
                }
            }
        })
    });
    // A fresh stream publishes exactly one chunk for its first uop.
    let chunk = {
        let s = Arc::new(SharedStream::new(&specs[0].profile, specs[0].seed));
        StreamReader::new(s.clone()).next_uop();
        s.published()
    };
    let ((_, live), stream_ns) = rec.span("trace.stream", Some(root), 0, |_| {
        timed(|| {
            let mut live = 0;
            for s in &specs {
                let stream = Arc::new(SharedStream::new(&s.profile, s.seed));
                let mut r = StreamReader::new(stream.clone());
                for _ in 0..n {
                    black_box(r.next_uop());
                }
                live += stream.published() / chunk;
            }
            ((), live)
        })
    });
    let total = n * specs.len();
    out.push((
        "trace.decode_ns_per_uop".into(),
        per(decode_ns, total),
        "ns",
    ));
    out.push((
        "trace.stream_ns_per_uop".into(),
        per(stream_ns, total),
        "ns",
    ));
    out.push(("trace.stream_chunks_live".into(), live as f64, "count"));
}

/// Checkpoint capture, verify and restore for the sampled workload's
/// plan, on one pair of each kind. Returns the captured checkpoints'
/// JSON for the artifact-store replay.
fn checkpoint_layer(
    ws: &[&Workload],
    rec: &Recorder,
    root: u64,
    out: &mut Vec<Metric>,
) -> Vec<String> {
    let horizon = crate::sweep::HORIZON_X * ExpOptions::default().commit_target;
    let offsets: Vec<u64> = (0..SAMPLE.intervals)
        .map(|i| SAMPLE.offset(i, horizon))
        .collect();
    let last = *offsets.last().expect("at least one interval");
    let cfg = MachineConfig::iq_study(32);
    let (mut capture_ns, mut ff_uops, mut verify_ns, mut restore_ns, mut restores) =
        (0, 0, 0, 0, 0);
    let mut payloads = Vec::new();
    let mut verified = 0;
    for w in ws {
        let (ckpts, ns) = rec.span("core.checkpoint_capture", Some(root), 0, |_| {
            timed(|| Checkpoint::capture_many(&w.traces, &offsets))
        });
        capture_ns += ns;
        ff_uops += last as usize * w.traces.len();
        for ck in &ckpts {
            let (ok, ns) = timed(|| ck.verify());
            ok.expect("a freshly captured checkpoint verifies");
            verify_ns += ns;
            verified += 1;
            payloads.push(serde_json::to_string(ck).expect("checkpoint serializes"));
        }
        for ck in ckpts.iter().skip(1).step_by(4) {
            let (sim, ns) = rec.span("core.restore", Some(root), 0, |_| {
                timed(|| {
                    Simulator::from_checkpoint(
                        cfg.clone(),
                        SchemeKind::Cssp,
                        RegFileSchemeKind::Shared,
                        ck,
                    )
                })
            });
            black_box(sim.expect("a verified checkpoint restores"));
            restore_ns += ns;
            restores += 1;
        }
    }
    out.push((
        "trace.fastforward_ns_per_uop".into(),
        per(capture_ns, ff_uops),
        "ns",
    ));
    out.push((
        "core.checkpoint_capture_ms".into(),
        per(capture_ns, ws.len()) / 1e6,
        "ms",
    ));
    out.push((
        "core.checkpoint_verify_us".into(),
        per(verify_ns, verified) / 1e3,
        "us",
    ));
    out.push((
        "core.restore_us".into(),
        per(restore_ns, restores) / 1e3,
        "us",
    ));
    payloads
}

fn component_layers(ws: &[&Workload], rec: &Recorder, root: u64, out: &mut Vec<Metric>) {
    let n = replay_uops();
    let cfg = MachineConfig::iq_study(32);
    let (mut mem_ns, mut accesses, mut bp_ns, mut branches, mut tc_ns, mut lookups) =
        (0, 0, 0, 0, 0, 0);
    let (mut iq_ns, mut visited) = (0, 0);
    for w in ws {
        let threads: Vec<Vec<MicroOp>> = w.traces.iter().map(|s| decoded(s, n)).collect();
        let uops = interleave(&threads);
        let ((), ns) = rec.span("mem.replay", Some(root), 0, |_| {
            timed(|| {
                let mut mem = MemHierarchy::new(&cfg);
                for (now, (_, u)) in uops.iter().enumerate() {
                    if let Some(m) = u.mem {
                        let r = match u.class {
                            OpClass::Store => mem.store(now as u64, m.addr),
                            _ => mem.load(now as u64, m.addr),
                        };
                        black_box(r);
                    }
                }
            })
        });
        mem_ns += ns;
        accesses += uops.iter().filter(|(_, u)| u.mem.is_some()).count();
        let ((), ns) = rec.span("frontend.gshare", Some(root), 0, |_| {
            timed(|| {
                let mut bp = Gshare::new(cfg.gshare_entries);
                for (t, u) in &uops {
                    if let Some(b) = u.branch {
                        black_box(bp.update(*t, u.pc, b.taken));
                    }
                }
            })
        });
        bp_ns += ns;
        branches += uops.iter().filter(|(_, u)| u.branch.is_some()).count();
        let ((), ns) = rec.span("frontend.trace_cache", Some(root), 0, |_| {
            timed(|| {
                let mut tc = TraceCache::new(&cfg);
                let mut at: Vec<(u32, u32)> = vec![(u32::MAX, 0); threads.len()];
                for (t, u) in &uops {
                    let pos = &mut at[t.idx()];
                    *pos = if pos.0 == u.code_block {
                        (pos.0, pos.1 + 1)
                    } else {
                        (u.code_block, 0)
                    };
                    black_box(tc.lookup(*t, u.code_block, pos.1, u.is_mrom));
                }
            })
        });
        tc_ns += ns;
        lookups += uops.len();
        for cap in [32usize, 64] {
            let (n, ns) = rec.span("backend.iq_scan", Some(root), 0, |_| iq_replay(cap, &uops));
            visited += n;
            iq_ns += ns;
        }
    }
    out.push(("mem.access_ns".into(), per(mem_ns, accesses), "ns"));
    out.push((
        "frontend.gshare_ns_per_branch".into(),
        per(bp_ns, branches),
        "ns",
    ));
    out.push(("frontend.tc_lookup_ns".into(), per(tc_ns, lookups), "ns"));
    out.push((
        "backend.iq_scan_ns_per_entry".into(),
        per(iq_ns, visited),
        "ns",
    ));
}

/// Fill an issue queue of `cap` entries from `uops` and drain it with
/// `scan_issue`, each entry waiting a few scans that depend on its class
/// (loads and long ops wait longer), the way issue select finds some
/// entries ready and parks the rest. Returns the entries visited and the
/// nanoseconds spent in `scan_issue`.
fn iq_replay(cap: usize, uops: &[(ThreadId, &MicroOp)]) -> (usize, u128) {
    let mut iq = IssueQueue::new(cap);
    let (mut visited, mut scan_ns) = (0, 0);
    let mut next = 0;
    while next < uops.len() || !iq.is_empty() {
        while next < uops.len() && !iq.is_full() {
            let (t, u) = uops[next];
            let wait = match u.class {
                OpClass::Load | OpClass::FpDiv => 4,
                OpClass::IntMul | OpClass::FpSimd => 2,
                _ => (u.pc >> 4) & 1,
            };
            iq.insert_with_meta(next as u32, t, wait);
            next += 1;
        }
        visited += iq.len();
        let (taken, ns) = timed(|| {
            iq.scan_issue(|_, wait| {
                if *wait == 0 {
                    true
                } else {
                    *wait -= 1;
                    false
                }
            })
        });
        black_box(taken);
        scan_ns += ns;
    }
    (visited, scan_ns)
}

/// The configuration families the sweeps step through.
fn families(
    w: &Workload,
    bundle: &[TraceSpec],
    shape: (usize, usize),
) -> Vec<(
    &'static str,
    CfgKind,
    SchemeKind,
    RegFileSchemeKind,
    Vec<TraceSpec>,
)> {
    let pair = w.traces.to_vec();
    vec![
        (
            "iq_study",
            CfgKind::IqStudy { iq: 32 },
            SchemeKind::Cssp,
            RegFileSchemeKind::Shared,
            pair.clone(),
        ),
        (
            "rf_study",
            CfgKind::RfStudy { regs: 64 },
            SchemeKind::Cssp,
            RegFileSchemeKind::Cdprf,
            pair.clone(),
        ),
        (
            "pair96",
            CfgKind::RfStudy {
                regs: csmt_experiments::figures::figpair::PAIR_REGS,
            },
            SchemeKind::Caiq,
            RegFileSchemeKind::Carf,
            pair,
        ),
        (
            "scaled",
            CfgKind::ScaledIq {
                threads: shape.0,
                clusters: shape.1,
                iq: 32,
            },
            SchemeKind::Cssp,
            RegFileSchemeKind::Shared,
            bundle.to_vec(),
        ),
    ]
}

fn core_layer(run: &Run, ws: &[&Workload], rec: &Recorder, root: u64, out: &mut Vec<Metric>) {
    let mut step: Vec<(&'static str, u128, u64)> = Vec::new();
    let (mut new_ns, mut builds) = (0, 0);
    for w in ws {
        for (name, cfg, iq, rf, traces) in families(w, &run.bundle.0.traces, run.bundle.1) {
            let (mut sim, ns) = rec.span("core.new", Some(root), 0, |_| {
                timed(|| Simulator::new(cfg.build(), iq, rf, &traces))
            });
            new_ns += ns;
            builds += 1;
            for _ in 0..STEP_WARM {
                sim.step();
            }
            let ((), ns) = rec.span(&format!("core.step.{name}"), Some(root), 0, |_| {
                timed(|| {
                    for _ in 0..STEP_CYCLES {
                        sim.step();
                    }
                })
            });
            black_box(sim.committed_total());
            match step.iter_mut().find(|(n, _, _)| *n == name) {
                Some(e) => {
                    e.1 += ns;
                    e.2 += STEP_CYCLES;
                }
                None => step.push((name, ns, STEP_CYCLES)),
            }
        }
    }
    for (name, ns, cycles) in step {
        out.push((
            format!("core.step_ns_per_cycle.{name}"),
            per(ns, cycles as usize),
            "ns",
        ));
    }
    out.push(("core.new_us".into(), per(new_ns, builds) / 1e3, "us"));

    // Exact simulated statistics of every result the workload delivered.
    let rs: Vec<_> = run.delivered.iter().map(|(_, r)| r).collect();
    let sum = |f: &dyn Fn(&csmt_core::SimResult) -> u64| rs.iter().map(|r| f(r)).sum::<u64>();
    let cycles = sum(&|r| r.stats.cycles);
    let uops = sum(&|r| r.stats.committed.iter().sum());
    let kuops = uops as f64 / 1e3;
    let mean = |f: &dyn Fn(&csmt_core::SimResult) -> f64| {
        rs.iter().map(|r| f(r)).sum::<f64>() / rs.len() as f64
    };
    out.push(("core.sim_cycles".into(), cycles as f64, "count"));
    out.push(("core.uops_committed".into(), uops as f64, "count"));
    out.push(("core.ipc".into(), uops as f64 / cycles as f64, "uops/cycle"));
    out.push((
        "mem.l1_miss_ratio".into(),
        mean(&|r| r.stats.l1_miss_ratio),
        "ratio",
    ));
    out.push((
        "mem.l2_miss_ratio".into(),
        mean(&|r| r.stats.l2_miss_ratio),
        "ratio",
    ));
    out.push((
        "frontend.mispredict_ratio".into(),
        sum(&|r| r.stats.mispredicts) as f64 / sum(&|r| r.stats.branches) as f64,
        "ratio",
    ));
    out.push((
        "backend.iq_stalls_per_kuop".into(),
        sum(&|r| r.stats.iq_stall_events) as f64 / kuops,
        "1/kuop",
    ));
    out.push((
        "backend.rf_blocked_per_kuop".into(),
        sum(&|r| r.stats.rf_blocked.iter().sum()) as f64 / kuops,
        "1/kuop",
    ));
    out.push((
        "backend.copies_per_kuop".into(),
        sum(&|r| r.stats.copies_retired) as f64 / kuops,
        "1/kuop",
    ));
}

fn store_layer(
    ctx: &Ctx,
    run: &Run,
    checkpoints: &[String],
    rec: &Recorder,
    root: u64,
    out: &mut Vec<Metric>,
) {
    let store =
        ResultStore::open(ctx.fresh_dir("probe-results")).expect("opening a scratch result store");
    let replays: Vec<_> = run.delivered.iter().take(STORE_REPLAYS).collect();
    let (mut put_ns, mut get_ns) = (0, 0);
    for (k, r) in &replays {
        let (ok, ns) = rec.span("store.put", Some(root), 0, |_| timed(|| store.put(k, r)));
        ok.expect("scratch store write");
        put_ns += ns;
    }
    for (k, _) in &replays {
        let (hit, ns) = rec.span("store.get", Some(root), 0, |_| timed(|| store.get(k)));
        assert!(
            matches!(hit, Lookup::Hit(_)),
            "a record just written must be served"
        );
        get_ns += ns;
    }
    out.push((
        "store.put_ms".into(),
        per(put_ns, replays.len()) / 1e6,
        "ms",
    ));
    out.push((
        "store.get_us".into(),
        per(get_ns, replays.len()) / 1e3,
        "us",
    ));

    let arts = ArtifactStore::open(ctx.fresh_dir("probe-artifacts"))
        .expect("opening a scratch artifact store");
    let (mut aput_ns, mut aget_ns) = (0, 0);
    for (i, payload) in checkpoints.iter().enumerate() {
        let key = format!("{{\"replay\":{i}}}");
        let (ok, ns) = rec.span("store.artifact_put", Some(root), 0, |_| {
            timed(|| arts.put_record("checkpoint", &key, payload))
        });
        ok.expect("scratch artifact write");
        aput_ns += ns;
        let (got, ns) = rec.span("store.artifact_get", Some(root), 0, |_| {
            timed(|| arts.get_record("checkpoint", &key))
        });
        assert!(
            got.as_deref() == Some(payload.as_str()),
            "artifact record round trip"
        );
        aget_ns += ns;
    }
    out.push((
        "store.artifact_put_ms".into(),
        per(aput_ns, checkpoints.len()) / 1e6,
        "ms",
    ));
    out.push((
        "store.artifact_get_us".into(),
        per(aget_ns, checkpoints.len()) / 1e3,
        "us",
    ));

    let journal = Journal::open(ctx.fresh_dir("probe-journal")).expect("opening a scratch journal");
    let ((), ns) = rec.span("store.journal_log", Some(root), 0, |_| {
        timed(|| {
            for (k, _) in &replays {
                journal.log(EventKind::CacheHit {
                    job: JobDesc {
                        label: k.label.clone(),
                        iq: k.iq.clone(),
                        rf: k.rf.clone(),
                        cfg: k.cfg.clone(),
                    },
                });
            }
        })
    });
    out.push((
        "store.journal_log_us".into(),
        per(ns, replays.len()) / 1e3,
        "us",
    ));
    out.push(("store.exec_jobs".into(), run.exec.executed as f64, "count"));
    out.push(("store.exec_steals".into(), run.exec.steals as f64, "count"));
}

fn experiments_layer(
    ctx: &Ctx,
    run: &Run,
    w: &Workload,
    rec: &Recorder,
    root: u64,
    out: &mut Vec<Metric>,
) {
    // The sampled `detail:` grid of one workload against an empty
    // artifact store: the first scheme captures, the rest read.
    let horizon = crate::sweep::HORIZON_X * ExpOptions::default().commit_target;
    let d = ExpOptions::default();
    let arts = ArtifactStore::open(ctx.fresh_dir("probe-sampled"))
        .expect("opening a scratch artifact store");
    let grid = detail_grid();
    let ((), ns) = rec.span("experiments.sampled_run", Some(root), 0, |_| {
        timed(|| {
            for &(iq, rf, cfg) in &grid {
                black_box(sampled_run(
                    &cfg.build(),
                    iq,
                    rf,
                    &w.traces,
                    SAMPLE,
                    horizon,
                    d.max_cycles,
                    false,
                    None,
                    Some(&arts),
                ));
            }
        })
    });
    let c = arts.counters();
    out.push((
        "experiments.sampled_run_ms".into(),
        per(ns, grid.len()) / 1e6,
        "ms",
    ));
    out.push((
        "store.checkpoint_hit_ratio".into(),
        c.hits as f64 / (c.hits + c.misses).max(1) as f64,
        "ratio",
    ));

    // Figure compute, JSON, render and wire lines for the workload's own
    // artifacts, on its sweep store once every run they need is in it.
    for a in &run.artifacts {
        run_named_all(a, &run.sweeps).expect("known artifact");
    }
    let (mut fig_ns, mut json_ns, mut render_ns, mut proto_ns, mut tables) = (0, 0, 0, 0, 0);
    for a in &run.artifacts {
        let (rendered, ns) = rec.span("experiments.figure", Some(root), 0, |_| {
            timed(|| run_named_all(a, &run.sweeps).expect("known artifact"))
        });
        fig_ns += ns;
        for (name, table) in rendered {
            let (json, ns) = timed(|| table.to_json());
            json_ns += ns;
            let (text, ns) = timed(|| table.render());
            black_box(text);
            render_ns += ns;
            let line = Response::Event {
                job: 1,
                event: JobEvent::ArtifactDone {
                    name,
                    table_json: json,
                },
            };
            let (back, ns) = rec.span("experiments.proto", Some(root), 0, |_| {
                timed(|| {
                    let mut buf = Vec::new();
                    write_line(&mut buf, &line).expect("writing to memory");
                    read_response(&mut std::io::Cursor::new(buf)).expect("reading from memory")
                })
            });
            assert!(back.as_ref() == Some(&line), "protocol line round trip");
            proto_ns += ns;
            tables += 1;
        }
    }
    out.push((
        "experiments.figure_ms".into(),
        per(fig_ns, run.artifacts.len()) / 1e6,
        "ms",
    ));
    out.push((
        "experiments.table_json_us".into(),
        per(json_ns, tables) / 1e3,
        "us",
    ));
    out.push((
        "experiments.render_us".into(),
        per(render_ns, tables) / 1e3,
        "us",
    ));
    out.push((
        "experiments.proto_us_per_line".into(),
        per(proto_ns, tables) / 1e3,
        "us",
    ));
}

/// Round trips against a daemon over the workload's own (warm) store, for
/// the workloads whose timed phase has no daemon.
fn serve_probe(ctx: &Ctx, run: &Run, rec: &Recorder) -> (u64, u64, u64) {
    let socket = socket_path(ctx, "probe-serve");
    let daemon = Daemon::start(&ctx.serve_bin, &run.store_dir, &socket, ctx.jobs)
        .unwrap_or_else(|e| panic!("{e}"));
    let specs: Vec<JobSpec> = run
        .artifacts
        .iter()
        .map(|a| JobSpec::new(vec![a.clone()], &run.opts))
        .collect();
    let (mut attached, mut rejected) = (0, 0);
    for i in 0..SERVE_PROBES {
        match round_trip(&socket, &specs[i % specs.len()], rec, i as u64) {
            Ok(r) => attached += r.attached as u64,
            Err(e) if e.starts_with("rejected") => rejected += 1,
            Err(e) => panic!("serve probe: {e}"),
        }
    }
    daemon.shutdown().unwrap_or_else(|e| panic!("{e}"));
    (SERVE_PROBES as u64, attached, rejected)
}

/// Every per-layer metric of `run` except the tracing overhead, which
/// needs the untraced run too.
pub fn measure(ctx: &Ctx, run: &Run, rec: &Recorder) -> Vec<Metric> {
    let mut out = Vec::new();
    let ws = one_per_kind(&run.workloads);
    rec.span("bench.probe", None, 0, |root| {
        trace_layer(&ws, rec, root, &mut out);
        let checkpoints = checkpoint_layer(&ws, rec, root, &mut out);
        component_layers(&ws, rec, root, &mut out);
        core_layer(run, &ws, rec, root, &mut out);
        store_layer(ctx, run, &checkpoints, rec, root, &mut out);
        experiments_layer(ctx, run, ws[0], rec, root, &mut out);
    });
    let (requests, attached, rejected) = match &run.serve {
        Some(s) => (run.ops, s.attached, s.rejected),
        None => serve_probe(ctx, run, rec),
    };
    let spans = rec.spans();
    for (metric, name) in [
        ("serve.submit_ms", "serve.submit"),
        ("serve.events_ms", "serve.events"),
        ("serve.client_render_ms", "serve.client_render"),
    ] {
        out.push((metric.into(), span::mean_ms(&spans, name), "ms"));
    }
    out.push((
        "serve.attached_ratio".into(),
        attached as f64 / requests.max(1) as f64,
        "ratio",
    ));
    out.push(("serve.rejected".into(), rejected as f64, "count"));
    let own = span::layer_self_ns(&spans);
    for layer in [
        "bench",
        "trace",
        "core",
        "mem",
        "frontend",
        "backend",
        "store",
        "experiments",
        "serve",
    ] {
        let ns = own.get(layer).copied().unwrap_or(0);
        out.push((format!("{layer}.self_ms"), ns as f64 / 1e6, "ms"));
    }
    out
}
