//! The two cold-sweep workloads, both through store-backed `Sweeps`
//! without `--batch`.
//!
//! * `sweep-cold`: seeded Table-2 workloads through the Figure 2, Figure 6
//!   and figPair grids plus a figN minority of 4-thread bundles, at the
//!   CLI's default commit target and warm-up. Almost all of its time is
//!   the cycle loop; every result is also written to the store.
//! * `sample-long`: `detail:` artifacts of seeded workloads under
//!   `--sample intervals=8,warmup=1500,detail=800` over a horizon ten
//!   times the default target, into an empty store, on one worker.
//!   Checkpoint capture, checkpoint store reads and restores dominate; the
//!   cycle loop is a minority.

use crate::check::{self, Tally};
use crate::inputs::{self, Rng};
use crate::span::Recorder;
use crate::{os, Ctx, Run};
use csmt_core::{SimResult, Simulator};
use csmt_experiments::figures::{fig2, fig6, fign, figpair, run_named_all};
use csmt_experiments::runner::{CfgKind, ExpOptions, RunKey};
use csmt_experiments::Sweeps;
use csmt_store::{EventKind, Journal, StoreKey, SCHEMA_VERSION};
use csmt_trace::suite::{Bundle, TraceSpec, Workload};
use csmt_types::{RegFileSchemeKind, SampleSpec, SchemeKind};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

type Grid = Vec<(SchemeKind, RegFileSchemeKind, CfgKind)>;

/// The scaled shape of `sweep-cold`'s figN slice: 4 threads × 2 clusters.
const FIGN_SHAPE: (usize, usize) = fign::SHAPES[0];

/// Set-ups per sweep run; the reported set-up time is their median.
const SETUPS: usize = 5;

/// The sampling plan of `sample-long`.
pub const SAMPLE: SampleSpec = SampleSpec {
    intervals: 8,
    warmup: 1500,
    detail: 800,
};

/// `sample-long`'s horizon, as a multiple of the default commit target.
pub const HORIZON_X: u64 = 10;

fn fig2_grid() -> Grid {
    fig2::combos()
        .into_iter()
        .map(|(s, iq)| (s, RegFileSchemeKind::Shared, CfgKind::IqStudy { iq }))
        .collect()
}

fn fig6_grid() -> Grid {
    fig6::combos()
        .into_iter()
        .map(|(rf, regs)| (SchemeKind::Cssp, rf, CfgKind::RfStudy { regs }))
        .collect()
}

fn figpair_grid() -> Grid {
    figpair::combos()
        .into_iter()
        .map(|(_, s, rf)| {
            (
                s,
                rf,
                CfgKind::RfStudy {
                    regs: figpair::PAIR_REGS,
                },
            )
        })
        .collect()
}

/// `sweep-cold`'s figN points on one scaled shape: CSSP on the IQ study
/// and CDPRF on the RF study, plus the configuration the bundles'
/// single-thread fairness baselines run on.
fn fign_points((threads, clusters): (usize, usize)) -> (Grid, CfgKind) {
    let iq = CfgKind::ScaledIq {
        threads,
        clusters,
        iq: fign::IQ,
    };
    let rf = CfgKind::ScaledRf {
        threads,
        clusters,
        regs: fign::REGS,
    };
    let points = vec![
        (SchemeKind::Cssp, RegFileSchemeKind::Shared, iq),
        (SchemeKind::Cssp, RegFileSchemeKind::Cdprf, rf),
    ];
    (points, rf)
}

/// The `detail:` grid: the seven IQ schemes on the 32-entry IQ machine.
pub fn detail_grid() -> Grid {
    SchemeKind::all()
        .into_iter()
        .map(|s| (s, RegFileSchemeKind::Shared, CfgKind::IqStudy { iq: 32 }))
        .collect()
}

/// Jobs of `workloads` × `grid`, each with the traces it runs.
fn smt_jobs(workloads: &[Workload], grid: &Grid) -> Vec<(RunKey, Vec<TraceSpec>)> {
    workloads
        .iter()
        .flat_map(|w| {
            grid.iter()
                .map(move |&(s, rf, c)| (Sweeps::smt_key(w, s, rf, c), w.traces.to_vec()))
        })
        .collect()
}

/// Build every job's simulator once, as the sweep is about to: a job
/// whose machine or traces cannot be built fails here, before the timed
/// phase, and work moved into simulator construction shows in set-up.
fn build_simulators(jobs: &[(RunKey, Vec<TraceSpec>)]) {
    for (k, traces) in jobs {
        black_box(Simulator::new(k.cfg.build(), k.iq, k.rf, traces));
    }
}

/// One `Sweeps` call: a cross product of workloads and grid points, or
/// of 4-thread bundles and figN grid points plus the bundles'
/// single-thread fairness baselines.
enum Call {
    Smt(Vec<Workload>, Grid),
    Bundles(Vec<Bundle>, Grid, CfgKind),
}

impl Call {
    /// Every job of the call with the traces it runs.
    fn jobs(&self) -> Vec<(RunKey, Vec<TraceSpec>)> {
        match self {
            Call::Smt(ws, grid) => smt_jobs(ws, grid),
            Call::Bundles(bs, grid, single) => bs
                .iter()
                .flat_map(|b| {
                    let runs = grid.iter().map(move |&(s, rf, c)| {
                        (Sweeps::bundle_key(b, s, rf, c), b.traces.clone())
                    });
                    runs.chain(
                        b.traces
                            .iter()
                            .map(move |t| (Sweeps::single_key(t, *single), vec![t.clone()])),
                    )
                })
                .collect(),
        }
    }

    fn keys(&self) -> Vec<RunKey> {
        self.jobs().into_iter().map(|(k, _)| k).collect()
    }

    fn run(&self, sweeps: &Sweeps) {
        match self {
            Call::Smt(ws, grid) => sweeps.smt_batch(ws, grid),
            Call::Bundles(bs, grid, single) => {
                sweeps.bundle_batch(bs, grid);
                sweeps.bundle_single_batch(bs, *single);
            }
        }
    }
}

/// `sweep-cold`'s calls. Every point of the Figure 2, Figure 6 and figPair
/// grids runs `per_kind` seeded workloads of each kind, drawn afresh for
/// each point: many independent draws keep a run's cost close to the
/// suite average whatever the seed. The figN minority runs all six
/// 4-thread bundles on the 4×2 shape with CSSP on the IQ study and CDPRF
/// on the RF study, plus their fairness baselines.
fn sweep_plan(seed: u64, per_kind: usize) -> (Vec<(String, Call)>, String) {
    let mut rng = Rng::new(seed);
    let all = csmt_trace::suite::suite();
    let mut calls = Vec::new();
    for (fig, grid) in [
        ("fig2", fig2_grid()),
        ("fig6", fig6_grid()),
        ("figPair", figpair_grid()),
    ] {
        for point in grid {
            let ws = inputs::stratified(&mut rng, &all, per_kind);
            let label = format!(
                "{fig} {}/{}/{}",
                point.0.name(),
                point.1.name(),
                point.2.label()
            );
            calls.push((label, Call::Smt(ws, vec![point])));
        }
    }
    // The figN minority is the same for every seed. Its few long 4-thread
    // jobs sit at the latency tail, where a seeded shape or point would move
    // the tail by itself.
    let (points, single) = fign_points(FIGN_SHAPE);
    let label = format!("figN {}x{}", FIGN_SHAPE.0, FIGN_SHAPE.1);
    calls.push((
        label,
        Call::Bundles(csmt_trace::suite::bundles(4), points, single),
    ));

    let mut described = String::new();
    for (label, call) in &calls {
        described.push_str(label);
        for k in call.keys() {
            described.push_str(&format!(" {}", k.label));
        }
        described.push('\n');
    }
    (calls, described)
}

/// Set up `times` times and keep the last; returns it with every set-up
/// time in seconds. Each earlier set-up is torn down by `discard`,
/// untimed, before the next begins, so every set-up starts from the
/// same state.
fn set_up<T>(
    times: usize,
    mut once: impl FnMut(usize) -> T,
    mut discard: impl FnMut(T),
) -> (T, Vec<f64>) {
    let mut secs = Vec::new();
    let mut last = None;
    for i in 0..times {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        let t = Instant::now();
        last = Some(once(i));
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), secs)
}

/// Per-job simulation wall times this `Sweeps` journaled, in ms.
fn job_latencies_ms(sweeps: &Sweeps) -> Vec<f64> {
    let journal = sweeps.journal().expect("store-backed sweeps journal");
    Journal::read(journal.path())
        .into_iter()
        .filter(|e| e.run_id == journal.run_id())
        .filter_map(|e| match e.kind {
            EventKind::JobOk { wall_ms, .. } => Some(wall_ms as f64),
            _ => None,
        })
        .collect()
}

/// Failed jobs and quarantined records the sweep layer counted.
fn count_layer_failures(sweeps: &Sweeps, tally: &mut Tally) {
    let c = sweeps.counters();
    tally.fail_n(c.orch.failures, "simulation job failed permanently");
    if let Some(s) = c.store {
        tally.fail_n(s.quarantined, "store record quarantined");
    }
}

fn drop_store((sweeps, dir): (Sweeps, PathBuf)) {
    drop(sweeps);
    let _ = std::fs::remove_dir_all(dir);
}

fn store_sweeps(ctx: &Ctx, opts: ExpOptions, tag: &str) -> (Sweeps, PathBuf) {
    let dir = ctx.fresh_dir(tag);
    let sweeps = Sweeps::with_store(opts, &dir)
        .unwrap_or_else(|e| panic!("cannot open a store in {}: {e}", dir.display()));
    (sweeps, dir)
}

pub fn sweep_cold(ctx: &Ctx, rec: &Recorder) -> Run {
    let opts = ExpOptions {
        jobs: ctx.jobs,
        verbose: false,
        ..ExpOptions::default()
    };
    let per_kind = (ctx.seconds as usize / 6).max(1);
    let (((calls, described), (sweeps, dir)), setup_s) = set_up(
        SETUPS,
        |i| {
            let plan = sweep_plan(ctx.seed, per_kind);
            for (_, call) in &plan.0 {
                build_simulators(&call.jobs());
            }
            (plan, store_sweeps(ctx, opts, &format!("sweep-cold-{i}")))
        },
        |(_, store)| drop_store(store),
    );
    ctx.write_inputs(&described);

    let t0 = Instant::now();
    rec.span("bench.sweep", None, 0, |root| {
        for (req, (_, call)) in calls.iter().enumerate() {
            let name = match call {
                Call::Smt(..) => "experiments.smt_batch",
                Call::Bundles(..) => "experiments.bundle_batch",
            };
            rec.span(name, Some(root), req as u64, |_| call.run(&sweeps));
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let peak_rss_mb = os::peak_rss_mb("self").expect("reading this process's peak RSS");

    let mut tally = Tally::default();
    let mut delivered = Vec::new();
    for key in calls.iter().flat_map(|(_, c)| c.keys()) {
        tally.attempt(1);
        let r = sweeps.get(&key);
        if let Err(e) = check::full_run(&key_name(&key), &r, opts.commit_target) {
            tally.fail(e);
        }
        delivered.push((store_key(&key, &opts), r));
    }
    count_layer_failures(&sweeps, &mut tally);
    let horizon_uops = delivered
        .iter()
        .map(|(_, r)| opts.commit_target * r.num_threads as u64)
        .sum();
    let mut workloads: Vec<Workload> = Vec::new();
    for (_, call) in &calls {
        if let Call::Smt(ws, _) = call {
            for w in ws {
                if !workloads.iter().any(|x| x.name == w.name) {
                    workloads.push(w.clone());
                }
            }
        }
    }
    let bundle = (csmt_trace::suite::bundles(4).remove(0), FIGN_SHAPE);
    // The probes render one `detail:` artifact per kind; the traced run
    // simulates their missing runs before timing them.
    let artifacts = inputs::KINDS
        .iter()
        .filter_map(|k| workloads.iter().find(|w| w.kind == *k))
        .map(|w| format!("detail:{}", w.name))
        .collect();
    Run {
        tally,
        setup_s,
        wall_s,
        ops: delivered.len() as u64,
        latencies_ms: job_latencies_ms(&sweeps),
        sim_cycles: sum_cycles(&delivered),
        horizon_uops,
        peak_rss_mb,
        exec: sweeps.counters().exec,
        workloads,
        bundle,
        artifacts,
        delivered,
        opts,
        sweeps,
        store_dir: dir,
        serve: None,
    }
}

pub fn sample_long(ctx: &Ctx, rec: &Recorder) -> Run {
    // One worker (`--jobs 1`), so each workload's first scheme captures
    // the checkpoints and the other six read them from the store. Two
    // workers start two schemes of a workload together, both capture, and
    // how many lookups hit then depends on timing, which moved throughput
    // and peak RSS between runs of the same inputs.
    let opts = ExpOptions {
        commit_target: HORIZON_X * ExpOptions::default().commit_target,
        jobs: 1,
        verbose: false,
        sample: Some(SAMPLE),
        ..ExpOptions::default()
    };
    let per_kind = (ctx.seconds as usize / 3).max(1);
    let ((inputs, (sweeps, dir)), setup_s) = set_up(
        SETUPS,
        |i| {
            let mut rng = Rng::new(ctx.seed);
            let workloads = inputs::stratified(&mut rng, &csmt_trace::suite::suite(), per_kind);
            let bundle = inputs::bundle(&mut rng);
            let described = inputs::describe(&workloads, &[]);
            build_simulators(&smt_jobs(&workloads, &detail_grid()));
            (
                (workloads, bundle, described),
                store_sweeps(ctx, opts, &format!("sample-long-{i}")),
            )
        },
        |(_, store)| drop_store(store),
    );
    let (workloads, bundle, described) = inputs;
    ctx.write_inputs(&described);
    let artifacts: Vec<String> = workloads
        .iter()
        .map(|w| format!("detail:{}", w.name))
        .collect();

    let mut tally = Tally::default();
    let t0 = Instant::now();
    // Rows rendered per artifact: a `detail:` table has one per scheme.
    let rendered: Vec<usize> = rec.span("bench.sweep", None, 0, |root| {
        artifacts
            .iter()
            .enumerate()
            .map(|(req, name)| {
                rec.span("experiments.run_named_all", Some(root), req as u64, |_| {
                    run_named_all(name, &sweeps)
                        .map_or(0, |t| t.iter().map(|(_, t)| t.rows.len()).sum())
                })
            })
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let peak_rss_mb = os::peak_rss_mb("self").expect("reading this process's peak RSS");

    let schemes = detail_grid().len();
    for (name, n) in artifacts.iter().zip(&rendered) {
        if *n != schemes {
            tally.fail(format!(
                "{name}: rendered {n} rows, expected one per scheme ({schemes})"
            ));
        }
    }
    let keys: Vec<RunKey> = smt_jobs(&workloads, &detail_grid())
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    let mut delivered = Vec::new();
    for key in &keys {
        tally.attempt(1);
        let sidecar = sweeps.get_ci(key);
        if let Err(e) = check::sampled_run(
            &key_name(key),
            sidecar.as_ref(),
            SAMPLE.intervals,
            SAMPLE.detail,
        ) {
            tally.fail(e);
        }
        delivered.push((store_key(key, &opts), sweeps.get(key)));
    }
    count_layer_failures(&sweeps, &mut tally);
    let horizon_uops = delivered
        .iter()
        .map(|(_, r)| opts.commit_target * r.num_threads as u64)
        .sum();
    Run {
        tally,
        setup_s,
        wall_s,
        ops: keys.len() as u64,
        latencies_ms: job_latencies_ms(&sweeps),
        sim_cycles: sum_cycles(&delivered),
        horizon_uops,
        peak_rss_mb,
        exec: sweeps.counters().exec,
        workloads,
        bundle,
        artifacts,
        delivered,
        opts,
        sweeps,
        store_dir: dir,
        serve: None,
    }
}

pub fn sum_cycles(results: &[(StoreKey, SimResult)]) -> u64 {
    results.iter().map(|(_, r)| r.stats.cycles).sum()
}

/// The store's identity of a run under `opts`, as `Sweeps` writes it.
fn store_key(key: &RunKey, opts: &ExpOptions) -> StoreKey {
    StoreKey {
        schema: SCHEMA_VERSION,
        label: key.label.clone(),
        iq: key.iq.name().to_string(),
        rf: key.rf.name().to_string(),
        cfg: key.cfg.label(),
        config: key.cfg.build(),
        commit_target: opts.commit_target,
        warmup: opts.warmup,
        max_cycles: opts.max_cycles,
        sample: opts.sample,
    }
}

pub fn key_name(k: &RunKey) -> String {
    format!(
        "{}/{}+{}/{}",
        k.label,
        k.iq.name(),
        k.rf.name(),
        k.cfg.label()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sweep_plan_is_a_pure_function_of_the_seed() {
        let (calls, text) = sweep_plan(11, 2);
        assert_eq!(text.as_bytes(), sweep_plan(11, 2).1.as_bytes());
        assert_ne!(text, sweep_plan(12, 2).1);
        // 23 grid points, each with two workloads of each kind, then figN:
        // six bundles at two points plus four baselines per bundle.
        assert_eq!(calls.len(), 24);
        let keys: Vec<usize> = calls.iter().map(|(_, c)| c.keys().len()).collect();
        assert!(keys[..23].iter().all(|&n| n == 6), "{keys:?}");
        assert_eq!(keys[23], 6 * 2 + 6 * 4);
        for (_, call) in &calls[..23] {
            let Call::Smt(ws, _) = call else {
                panic!("grid calls come first")
            };
            for (i, kind) in inputs::KINDS.iter().enumerate() {
                assert!(ws[2 * i..2 * i + 2].iter().all(|w| w.kind == *kind));
            }
        }
    }
}
