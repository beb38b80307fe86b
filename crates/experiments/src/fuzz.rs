//! `csmt-experiments fuzz` — randomized scheme-fuzzing harness.
//!
//! Each case is a seeded random draw of a [`MachineConfig`] (within
//! [`MachineConfig::validate`]'s envelope), an IQ scheme × RF scheme
//! combination, and a trace pair (a suite workload, optionally reseeded).
//! The case runs short with the full invariant suite and the differential
//! in-order oracle armed (`csmt_core::check`); any violation panics, is
//! caught here, and the failing case is **shrunk** — commit target
//! bisected down, then config fields greedily reverted to the baseline —
//! until a minimal one-line repro remains. Repros are printed and written
//! as JSON under `results/fuzz/`, replayable with `fuzz --repro <file>`.
//!
//! Everything is a pure function of `(master seed, case index)`: the same
//! invocation produces byte-identical output and artifacts at any
//! `--jobs` count (the executor returns results in case order).

use csmt_core::{Checkpoint, Simulator};
use csmt_store::Executor;
use csmt_trace::stream::SharedStream;
use csmt_trace::suite::{suite, TraceSpec};
use csmt_types::{MachineConfig, Prng, RegFileSchemeKind, SchemeKind};
use serde::{Deserialize, Serialize};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

/// Master seed used when `--seed` is not given. Arbitrary but fixed, so
/// CI and local runs exercise the same corpus by default.
pub const DEFAULT_MASTER_SEED: u64 = 0xC5F7_F022_0001_CAB5;

/// Default corpus size for a bare `fuzz` invocation.
pub const DEFAULT_SEEDS: usize = 50;

/// Commit target floor the shrinker will not bisect below.
const MIN_TARGET: u64 = 50;

/// One fuzz case: everything needed to reproduce a run, self-contained.
/// Schemes are stored by name so the JSON repro files stay readable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzCase {
    /// Index of this case in its corpus.
    pub index: u64,
    /// Master seed the corpus was drawn from.
    pub master_seed: u64,
    /// IQ scheme name (`SchemeKind::name`).
    pub iq: String,
    /// RF scheme name (`RegFileSchemeKind::name`).
    pub rf: String,
    /// Committed uops per thread before the run stops.
    pub commit_target: u64,
    /// Hard cycle cap; hitting it counts as a forward-progress failure.
    pub max_cycles: u64,
    /// Workload label the traces were drawn from (informational).
    pub workload: String,
    pub traces: Vec<TraceSpec>,
    pub config: MachineConfig,
    /// Checkpoint split: when nonzero the case fast-forwards every
    /// thread to this architectural commit offset (capturing and
    /// restoring a [`csmt_core::Checkpoint`]) and runs detailed from
    /// there — fuzzing the restore boundary across the whole config
    /// envelope, with the oracle armed at the offset.
    pub ff_split: u64,
}

/// Fuzz invocation options.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Number of cases.
    pub seeds: usize,
    /// Master seed.
    pub master: u64,
    /// Worker threads (0 = `min(cores, 8)`, 1 = serial).
    pub jobs: usize,
    /// Arm the invariant suite + differential oracle. Off, only panics
    /// and forward-progress failures are caught.
    pub validate: bool,
    /// Run every case through the batched front end (`--batch`): traces
    /// feed the simulator via [`SharedStream`] readers exactly as a
    /// `--batch` sweep would, so the validators and the oracle exercise
    /// the shared-stream path against the SoA arenas.
    pub batch: bool,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seeds: DEFAULT_SEEDS,
            master: DEFAULT_MASTER_SEED,
            jobs: 0,
            validate: true,
            batch: false,
        }
    }
}

/// Outcome of a fuzz run: shrunk failing cases with their messages.
#[derive(Debug)]
pub struct FuzzReport {
    pub cases: usize,
    pub failures: Vec<(FuzzCase, String)>,
}

fn parse_iq(name: &str) -> Result<SchemeKind, String> {
    SchemeKind::extended()
        .into_iter()
        .find(|s| s.name() == name)
        .ok_or_else(|| format!("unknown IQ scheme '{name}'"))
}

fn parse_rf(name: &str) -> Result<RegFileSchemeKind, String> {
    RegFileSchemeKind::extended()
        .into_iter()
        .find(|s| s.name() == name)
        .ok_or_else(|| format!("unknown RF scheme '{name}'"))
}

/// Draw a random configuration inside the validated envelope. Resource
/// sizes (the schemes' whole subject matter) are always randomized;
/// rarer structural switches flip with moderate probability so a typical
/// case differs from the baseline in a readable handful of fields.
fn random_config(rng: &mut Prng) -> MachineConfig {
    let mut c = MachineConfig::baseline();
    // Machine shape: half the corpus stays on the paper's 2×2; the other
    // half draws any supported (threads, clusters) shape.
    if rng.chance(0.5) {
        c.num_threads = (1 + rng.below(csmt_types::MAX_THREADS as u64)) as usize;
        c.num_clusters = (1 + rng.below(csmt_types::MAX_CLUSTERS as u64)) as usize;
    }
    // Partitioned resources under study (floors scale with the shape).
    let iq_floor = 4u64.max(2 * c.num_threads as u64);
    c.iq_per_cluster = (iq_floor + rng.below(45)) as usize;
    c.rob_per_thread = (24 + rng.below(137)) as usize; // 24..=160
    if rng.chance(0.2) {
        c.unbounded_rob = true;
    }
    if rng.chance(0.2) {
        c.unbounded_regs = true;
    } else {
        // validate() floor: every thread's full architected context per
        // cluster (below that, rename can wedge — found by this very
        // fuzzer at the 2-thread shape).
        let floor = (c.num_threads * csmt_types::NUM_LOG_REGS) as u64;
        c.int_regs_per_cluster = (floor + rng.below(97)) as usize;
        c.fp_regs_per_cluster = (floor + rng.below(97)) as usize;
    }
    c.mob_entries = (16 + rng.below(145)) as usize;
    c.num_links = (1 + rng.below(4)) as usize;
    c.link_latency = 1 + rng.below(4);
    // Pipeline shape.
    c.fetch_width = (1 + rng.below(8)) as usize;
    c.rename_width = (1 + rng.below(8)) as usize;
    c.commit_width = (1 + rng.below(8)) as usize;
    c.fetch_queue_entries = (8 + rng.below(57)) as usize;
    c.mispredict_penalty = 5 + rng.below(16);
    // Memory hierarchy (sizes kept divisible by line × assoc).
    c.l1_line = 32usize << rng.below(3); // 32/64/128
    c.l1_assoc = 1usize << rng.below(3); // 1/2/4
    c.l1_size = c.l1_line * c.l1_assoc * (32usize << rng.below(4)); // 32..256 sets
    c.l2_assoc = 1usize << (2 + rng.below(2)); // 4/8
    c.l2_size = c.l1_line * c.l2_assoc * (256usize << rng.below(3));
    c.l1_latency = 1 + rng.below(3);
    c.l2_latency = 6 + rng.below(15);
    c.mem_latency = 40 + rng.below(161);
    c.l2_buses = (1 + rng.below(3)) as usize;
    c.l1_read_ports = (1 + rng.below(3)) as usize;
    c.l1_write_ports = (1 + rng.below(3)) as usize;
    c.prefetcher = ["none", "next-line", "stride"][rng.below(3) as usize].to_string();
    c.victim_lines = rng.below(9) as usize;
    // Scheme knobs.
    c.steer_imbalance_threshold = (1 + rng.below(12)) as usize;
    c.cdprf_interval = 1u64 << (9 + rng.below(6)); // 512..=16384
                                                   // Feedback knobs of the counter-adaptive family. Short epochs relative
                                                   // to fuzz targets so CAIQ/CARF cases actually adapt mid-run; a slice
                                                   // of the corpus draws epoch 0 (feedback off — the static-parent path).
    c.adaptive_epoch = [0u64, 64, 128, 256, 512, 1024][rng.below(6) as usize];
    c.adaptive_hysteresis = rng.below(9); // 0..=8
    c.adaptive_step = (1 + rng.below(4)) as usize; // 1..=4
    c.symmetric_sched = rng.chance(0.5);
    c.validate().expect("generated config escapes the envelope");
    c
}

/// Generate case `index` of the corpus seeded by `master`. Pure: the same
/// `(master, index)` always yields the same case.
pub fn generate_case(master: u64, index: u64) -> FuzzCase {
    let mut rng = Prng::derive(master, index);
    let iq = SchemeKind::extended()[rng.below(8) as usize];
    let rf = RegFileSchemeKind::extended()[rng.below(5) as usize];
    let config = random_config(&mut rng);
    let workloads = suite();
    let w = &workloads[rng.below(workloads.len() as u64) as usize];
    // One trace per hardware thread: the workload's pair, cycled and
    // reseeded past two so every context runs a distinct program.
    let mut traces: Vec<TraceSpec> = (0..config.num_threads)
        .map(|t| {
            let mut spec = w.traces[t % 2].clone();
            if t >= 2 {
                spec.seed = spec
                    .seed
                    .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64));
            }
            spec
        })
        .collect();
    // Half the corpus leaves the suite's programs alone; the other half
    // reseeds the generators, exploring programs no figure runs.
    if rng.chance(0.5) {
        for t in &mut traces {
            t.seed = rng.next_u64();
        }
    }
    // A third of the corpus starts from a checkpoint instead of cold:
    // fast-forward to a random split, then run detailed. This is the
    // only path that exercises `from_checkpoint` against arbitrary
    // machine shapes, scheme pairs and reseeded programs.
    let ff_split = if rng.chance(1.0 / 3.0) {
        100 + rng.below(2_901) // 100..=3000
    } else {
        0
    };
    FuzzCase {
        index,
        master_seed: master,
        iq: iq.name().to_string(),
        rf: rf.name().to_string(),
        commit_target: 400 + rng.below(1201), // 400..=1600
        max_cycles: 4_000_000,
        workload: w.name.clone(),
        traces,
        config,
        ff_split,
    }
}

/// Extract a printable message from a caught panic payload.
fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one case. `Err` carries the one-line failure message: a validator
/// violation (panicked via fail-fast), any other panic, or a
/// forward-progress failure (cycle cap hit before the commit target).
/// `batch` routes the traces through [`SharedStream`] readers (a batch
/// of one), the exact front end a `--batch` sweep uses.
pub fn run_case_in(case: &FuzzCase, validate: bool, batch: bool) -> Result<(), String> {
    case.config.validate().map_err(|e| format!("config: {e}"))?;
    let iq = parse_iq(&case.iq)?;
    let rf = parse_rf(&case.rf)?;
    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let ckpt = (case.ff_split > 0).then(|| Checkpoint::capture(&case.traces, case.ff_split));
        let mut sim = if batch {
            let shared: Vec<Arc<SharedStream>> = case
                .traces
                .iter()
                .map(|t| Arc::new(SharedStream::new(&t.profile, t.seed)))
                .collect();
            match &ckpt {
                Some(ck) => {
                    let ck = ck
                        .clone()
                        .into_verified()
                        .expect("captured checkpoint verifies");
                    Simulator::from_checkpoint_batched(case.config.clone(), iq, rf, &ck, &shared)
                }
                None => Simulator::new_batched(case.config.clone(), iq, rf, &case.traces, &shared),
            }
        } else {
            match &ckpt {
                Some(ck) => Simulator::from_checkpoint(case.config.clone(), iq, rf, ck)
                    .expect("checkpoint restore"),
                None => Simulator::new(case.config.clone(), iq, rf, &case.traces),
            }
        };
        if validate {
            // Standard invariant suite + the differential in-order
            // oracle, fail-fast: the first violation panics.
            sim.enable_oracle();
        } else {
            // Uniform behaviour across debug (checker default-on) and
            // release builds: plain execution, crash-only detection.
            sim.disable_validation();
        }
        sim.run(case.commit_target, case.max_cycles)
    }));
    let res = caught.map_err(panic_text)?;
    // Only threads with a trace behind them commit; stats lanes past
    // `traces.len()` belong to idle contexts and stay zero by design.
    for (t, &committed) in res
        .stats
        .committed
        .iter()
        .take(case.traces.len())
        .enumerate()
    {
        if committed < case.commit_target {
            return Err(format!(
                "forward progress: thread {t} committed {committed}/{} \
                 within {} cycles",
                case.commit_target, case.max_cycles
            ));
        }
    }
    Ok(())
}

/// [`run_case_in`] on the direct (non-batched) front end.
pub fn run_case(case: &FuzzCase, validate: bool) -> Result<(), String> {
    run_case_in(case, validate, false)
}

/// One named reversion toward the baseline config, tried greedily by the
/// shrinker. Grouped by subsystem so a minimal repro reads as "these
/// knobs matter".
type Revert = fn(&mut MachineConfig, &MachineConfig);
const REVERTS: &[(&str, Revert)] = &[
    // Tried first: a repro that survives with feedback back at the
    // defaults is not about the adaptive machinery, and the adaptive
    // knobs must drop out of a minimal case before anything trace- or
    // resource-shaped is touched.
    ("adaptive-knobs", |c, b| {
        c.adaptive_epoch = b.adaptive_epoch;
        c.adaptive_hysteresis = b.adaptive_hysteresis;
        c.adaptive_step = b.adaptive_step;
    }),
    ("caches", |c, b| {
        c.l1_size = b.l1_size;
        c.l1_assoc = b.l1_assoc;
        c.l1_line = b.l1_line;
        c.l1_latency = b.l1_latency;
        c.l2_size = b.l2_size;
        c.l2_assoc = b.l2_assoc;
        c.l2_latency = b.l2_latency;
        c.l2_buses = b.l2_buses;
        c.mem_latency = b.mem_latency;
        c.prefetcher = b.prefetcher.clone();
        c.victim_lines = b.victim_lines;
        c.l1_read_ports = b.l1_read_ports;
        c.l1_write_ports = b.l1_write_ports;
    }),
    ("widths", |c, b| {
        c.fetch_width = b.fetch_width;
        c.rename_width = b.rename_width;
        c.commit_width = b.commit_width;
        c.fetch_queue_entries = b.fetch_queue_entries;
        c.mispredict_penalty = b.mispredict_penalty;
    }),
    ("links", |c, b| {
        c.num_links = b.num_links;
        c.link_latency = b.link_latency;
    }),
    ("rob-mob", |c, b| {
        c.rob_per_thread = b.rob_per_thread;
        c.unbounded_rob = b.unbounded_rob;
        c.mob_entries = b.mob_entries;
    }),
    ("regs", |c, b| {
        c.int_regs_per_cluster = b.int_regs_per_cluster;
        c.fp_regs_per_cluster = b.fp_regs_per_cluster;
        c.unbounded_regs = b.unbounded_regs;
    }),
    ("scheme-knobs", |c, b| {
        c.steer_imbalance_threshold = b.steer_imbalance_threshold;
        c.cdprf_interval = b.cdprf_interval;
        c.symmetric_sched = b.symmetric_sched;
    }),
    ("iq-size", |c, b| {
        c.iq_per_cluster = b.iq_per_cluster;
    }),
];

/// Shrink a failing case: bisect the commit target down, shrink the
/// machine shape (fewer threads — truncating the trace list — then fewer
/// clusters), then greedily revert config field groups to the baseline,
/// keeping each step only if the case still fails. Deterministic; leaves
/// the schemes and surviving traces alone (they are the subject of the
/// repro).
pub fn shrink(case: &FuzzCase, validate: bool, batch: bool) -> FuzzCase {
    let fails = |c: &FuzzCase| run_case_in(c, validate, batch).is_err();
    let mut best = case.clone();
    loop {
        let half = best.commit_target / 2;
        if half < MIN_TARGET {
            break;
        }
        let mut c = best.clone();
        c.commit_target = half;
        if fails(&c) {
            best = c;
        } else {
            break;
        }
    }
    // Checkpoint split: a cold start is the simplest repro, so try
    // dropping the split entirely first; if the failure needs *a* split,
    // bisect it down instead (any nonzero split exercises the boundary).
    if best.ff_split > 0 {
        let mut c = best.clone();
        c.ff_split = 0;
        if fails(&c) {
            best = c;
        } else {
            while best.ff_split > 100 {
                let mut c = best.clone();
                c.ff_split /= 2;
                if fails(&c) {
                    best = c;
                } else {
                    break;
                }
            }
        }
    }
    while best.config.num_threads > 1 {
        let mut c = best.clone();
        c.config.num_threads -= 1;
        c.traces.truncate(c.config.num_threads);
        if c.config.validate().is_ok() && fails(&c) {
            best = c;
        } else {
            break;
        }
    }
    while best.config.num_clusters > 1 {
        let mut c = best.clone();
        c.config.num_clusters -= 1;
        if c.config.validate().is_ok() && fails(&c) {
            best = c;
        } else {
            break;
        }
    }
    let base = MachineConfig::baseline();
    for (_, revert) in REVERTS {
        let mut c = best.clone();
        revert(&mut c.config, &base);
        if c.config == best.config {
            continue;
        }
        if c.config.validate().is_ok() && fails(&c) {
            best = c;
        }
    }
    best
}

/// The config as a one-line diff against the baseline ("iq_per_cluster=4
/// num_links=1"); empty string when identical.
pub fn config_diff(c: &MachineConfig) -> String {
    let b = MachineConfig::baseline();
    let mut parts: Vec<String> = Vec::new();
    macro_rules! d {
        ($f:ident) => {
            if c.$f != b.$f {
                parts.push(format!(concat!(stringify!($f), "={:?}"), c.$f));
            }
        };
    }
    d!(num_threads);
    d!(num_clusters);
    d!(fetch_width);
    d!(rename_width);
    d!(commit_width);
    d!(mispredict_penalty);
    d!(fetch_queue_entries);
    d!(rob_per_thread);
    d!(iq_per_cluster);
    d!(int_regs_per_cluster);
    d!(fp_regs_per_cluster);
    d!(unbounded_regs);
    d!(unbounded_rob);
    d!(mob_entries);
    d!(num_links);
    d!(link_latency);
    d!(l1_size);
    d!(l1_assoc);
    d!(l1_line);
    d!(l1_latency);
    d!(l1_read_ports);
    d!(l1_write_ports);
    d!(l2_size);
    d!(l2_assoc);
    d!(l2_latency);
    d!(l2_buses);
    d!(mem_latency);
    d!(prefetcher);
    d!(victim_lines);
    d!(steer_imbalance_threshold);
    d!(cdprf_interval);
    d!(adaptive_epoch);
    d!(adaptive_hysteresis);
    d!(adaptive_step);
    d!(symmetric_sched);
    parts.join(" ")
}

/// One-line human description of a (typically shrunk) case.
pub fn describe(case: &FuzzCase) -> String {
    let diff = config_diff(&case.config);
    let cfg = if diff.is_empty() {
        "baseline".to_string()
    } else {
        diff
    };
    let ff = if case.ff_split > 0 {
        format!(" ff={}", case.ff_split)
    } else {
        String::new()
    };
    format!(
        "case #{} seed=0x{:016x} iq={} rf={} workload={} seeds=[0x{:x},0x{:x}] \
         target={}{ff} cfg: {cfg}",
        case.index,
        case.master_seed,
        case.iq,
        case.rf,
        case.workload,
        case.traces[0].seed,
        case.traces.get(1).map(|t| t.seed).unwrap_or(0),
        case.commit_target,
    )
}

/// Run the corpus. Failing cases are shrunk serially (in case order), so
/// the report — and everything printed or written from it — is identical
/// at any `--jobs` count.
pub fn fuzz(opts: &FuzzOptions) -> FuzzReport {
    let exec = Executor::new(opts.jobs);
    let indices: Vec<u64> = (0..opts.seeds as u64).collect();
    // Fail-fast validators panic; silence the default hook so a corpus
    // with failures doesn't spray backtraces (the shrinker re-runs the
    // failing case dozens of times).
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcomes = exec.run(&indices, |_, &i| {
        let case = generate_case(opts.master, i);
        run_case_in(&case, opts.validate, opts.batch)
            .err()
            .map(|e| (case, e))
    });
    let failures: Vec<(FuzzCase, String)> = outcomes
        .into_iter()
        .flatten()
        .map(|(case, err)| {
            let shrunk = shrink(&case, opts.validate, opts.batch);
            let msg = run_case_in(&shrunk, opts.validate, opts.batch)
                .err()
                .unwrap_or(err);
            (shrunk, msg)
        })
        .collect();
    std::panic::set_hook(prev);
    FuzzReport {
        cases: opts.seeds,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_generation_is_deterministic_and_valid() {
        for i in 0..40 {
            let a = generate_case(DEFAULT_MASTER_SEED, i);
            let b = generate_case(DEFAULT_MASTER_SEED, i);
            assert_eq!(a, b, "case {i} not a pure function of (master, index)");
            a.config.validate().unwrap();
            parse_iq(&a.iq).unwrap();
            parse_rf(&a.rf).unwrap();
            assert_eq!(a.traces.len(), a.config.num_threads);
        }
        // Different indices explore different configs.
        let a = generate_case(DEFAULT_MASTER_SEED, 0);
        let b = generate_case(DEFAULT_MASTER_SEED, 1);
        assert_ne!(a.config, b.config);
    }

    #[test]
    fn corpus_explores_scaled_shapes() {
        let mut shapes = std::collections::HashSet::new();
        for i in 0..60 {
            let c = generate_case(DEFAULT_MASTER_SEED, i).config;
            shapes.insert((c.num_threads, c.num_clusters));
        }
        assert!(
            shapes.contains(&(2, 2)),
            "the paper's shape must stay covered"
        );
        assert!(
            shapes.iter().any(|&(n, _)| n > 2) && shapes.iter().any(|&(_, m)| m > 2),
            "corpus never leaves 2x2: {shapes:?}"
        );
        assert!(
            shapes.iter().any(|&(n, m)| n == 1 || m == 1),
            "degenerate shapes covered"
        );
    }

    #[test]
    fn small_corpus_passes_with_validators_armed() {
        let report = fuzz(&FuzzOptions {
            seeds: 4,
            jobs: 1,
            ..Default::default()
        });
        assert_eq!(report.cases, 4);
        if let Some((case, msg)) = report.failures.first() {
            panic!("{}\n  {msg}", describe(case));
        }
    }

    #[test]
    fn batched_front_end_passes_validators() {
        let report = fuzz(&FuzzOptions {
            seeds: 3,
            jobs: 1,
            batch: true,
            ..Default::default()
        });
        assert_eq!(report.cases, 3);
        if let Some((case, msg)) = report.failures.first() {
            panic!("batched: {}\n  {msg}", describe(case));
        }
    }

    #[test]
    fn forward_progress_cap_is_reported_not_hung() {
        let mut case = generate_case(DEFAULT_MASTER_SEED, 0);
        case.max_cycles = 10; // impossible
        let err = run_case(&case, false).unwrap_err();
        assert!(err.contains("forward progress"), "{err}");
    }

    #[test]
    fn shrinker_reverts_irrelevant_fields_and_shrinks_shape() {
        // A case that always "fails" (impossible cycle cap) shrinks to
        // the minimum: every shape reduction and field reversion keeps
        // failing, so all are kept — 1 thread × 1 cluster, one trace,
        // everything else back at the baseline.
        let mut case = generate_case(DEFAULT_MASTER_SEED, 2);
        case.max_cycles = 1;
        let shrunk = shrink(&case, false, false);
        let mut expected = MachineConfig::baseline();
        expected.num_threads = 1;
        expected.num_clusters = 1;
        assert_eq!(shrunk.config, expected);
        assert_eq!(shrunk.traces.len(), 1);
        assert!(shrunk.commit_target < case.commit_target);
        assert_eq!(shrunk.ff_split, 0, "always-failing case keeps a split");
        assert_eq!(config_diff(&shrunk.config), "num_threads=1 num_clusters=1");
    }

    #[test]
    fn corpus_draws_the_adaptive_schemes() {
        let mut caiq = 0;
        let mut carf = 0;
        let mut adapting = 0;
        for i in 0..60 {
            let c = generate_case(DEFAULT_MASTER_SEED, i);
            let is_caiq = c.iq == SchemeKind::Caiq.name();
            let is_carf = c.rf == RegFileSchemeKind::Carf.name();
            caiq += is_caiq as usize;
            carf += is_carf as usize;
            if (is_caiq || is_carf) && c.config.adaptive_epoch > 0 {
                adapting += 1;
            }
        }
        assert!(caiq >= 3, "only {caiq}/60 cases draw CAIQ");
        assert!(carf >= 3, "only {carf}/60 cases draw CARF");
        assert!(
            adapting >= 3,
            "only {adapting}/60 adaptive cases have feedback enabled"
        );
    }

    #[test]
    fn corpus_covers_checkpointed_and_cold_starts() {
        let mut split = 0;
        let mut cold = 0;
        for i in 0..60 {
            let c = generate_case(DEFAULT_MASTER_SEED, i);
            if c.ff_split > 0 {
                split += 1;
            } else {
                cold += 1;
            }
        }
        assert!(split >= 10, "only {split}/60 cases start from a checkpoint");
        assert!(cold >= 10, "only {cold}/60 cases start cold");
    }

    #[test]
    fn checkpointed_case_passes_validators_on_both_front_ends() {
        let mut case = generate_case(DEFAULT_MASTER_SEED, 0);
        case.ff_split = 700;
        case.commit_target = 400;
        run_case_in(&case, true, false).unwrap();
        run_case_in(&case, true, true).unwrap();
    }

    #[test]
    fn repro_roundtrips_through_json() {
        let case = generate_case(DEFAULT_MASTER_SEED, 3);
        let json = serde_json::to_string(&case).unwrap();
        let back: FuzzCase = serde_json::from_str(&json).unwrap();
        assert_eq!(case, back);
    }
}
