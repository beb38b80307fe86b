//! The repository's benchmark: three workloads measured end to end, and
//! a traced run that splits them by layer.
//!
//! ```text
//! perfbench --workload sweep-cold|sample-long|serve-warm --seed N
//!           --seconds S --trace 0|1 --serve-bin PATH --work-dir DIR
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload untraced and then traced, and prints the per-layer metrics
//! plus the tracing overhead. Human-readable lines come first; the last
//! line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is 0 only when every output
//! check passed. `run.py` builds this binary and the daemon, then runs it.

mod check;
mod inputs;
mod layers;
mod os;
mod serve;
mod span;
mod stats;
mod sweep;

use check::Tally;
use csmt_core::SimResult;
use csmt_experiments::runner::ExpOptions;
use csmt_experiments::Sweeps;
use csmt_store::{ExecCounters, StoreKey};
use csmt_trace::suite::{Bundle, Workload};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The workloads, each with the reason it is in the benchmark.
const WORKLOADS: [(&str, &str); 3] = [
    (
        "sweep-cold",
        "a scaled-down cold `all`: almost all time is the cycle loop",
    ),
    (
        "sample-long",
        "checkpoint capture, store reads and restores dominate; the cycle loop is a minority",
    ),
    (
        "serve-warm",
        "nothing simulated: the bypass for simulator changes, isolating the serve stack",
    ),
];

/// What one invocation was asked to do, and where it may write.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub jobs: usize,
    /// The checkout root (the working directory).
    pub root: PathBuf,
    /// Scratch space for stores, sockets, inputs and spans.
    pub work: PathBuf,
    pub serve_bin: PathBuf,
    dirs: AtomicUsize,
}

impl Ctx {
    /// A new empty directory under the scratch space.
    pub fn fresh_dir(&self, tag: &str) -> PathBuf {
        let n = self.dirs.fetch_add(1, Ordering::Relaxed);
        let dir = self.work.join(format!("{tag}-{n}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        dir
    }

    /// Keep the generated inputs next to the results, and print their
    /// fingerprint so two runs can be compared at a glance.
    pub fn write_inputs(&self, text: &str) {
        let path = self.work.join("inputs.txt");
        std::fs::write(&path, text)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!(
            "inputs: {:016x} ({})",
            csmt_store::fnv1a(text.as_bytes()),
            path.display()
        );
    }
}

/// Everything a workload run measured and produced.
pub struct Run {
    pub tally: Tally,
    /// Every set-up of the run, in seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of the measured phase.
    pub wall_s: f64,
    /// Operations completed in it: simulation jobs or client requests.
    pub ops: u64,
    pub latencies_ms: Vec<f64>,
    /// Simulated cycles and commit-horizon uops of the results delivered.
    pub sim_cycles: u64,
    pub horizon_uops: u64,
    pub peak_rss_mb: f64,
    pub exec: ExecCounters,
    pub workloads: Vec<Workload>,
    pub bundle: (Bundle, (usize, usize)),
    /// Artifacts the workload's results render.
    pub artifacts: Vec<String>,
    /// Every distinct result the workload delivered.
    pub delivered: Vec<(StoreKey, SimResult)>,
    pub opts: ExpOptions,
    /// A `Sweeps` over the workload's store, which holds `delivered`.
    pub sweeps: Sweeps,
    pub store_dir: PathBuf,
    pub serve: Option<serve::ServeInfo>,
}

fn run_workload(ctx: &Ctx, rec: &span::Recorder) -> Run {
    match ctx.workload.as_str() {
        "sweep-cold" => sweep::sweep_cold(ctx, rec),
        "sample-long" => sweep::sample_long(ctx, rec),
        "serve-warm" => serve::serve_warm(ctx, rec),
        other => unreachable!("workload {other} was validated"),
    }
}

/// The bounded end-to-end metrics. Three more figures are printed but not
/// bounded: the error rate, which is 0 on a healthy run and travels as
/// `failed / attempted`; the simulated-cycle rate, which on the sampled and
/// served workloads follows the seeded workloads' IPC more than the host's
/// speed; and the latency tail, which host jitter moved by a third between
/// runs of `serve-warm`. The traced run reports the last two as layer
/// metrics.
fn end_to_end(run: &Run) -> Vec<layers::Metric> {
    let lat = stats::summarize(&run.latencies_ms);
    let setup = stats::summarize(&run.setup_s);
    println!(
        "latency: {} samples, median {:.3} ms, tail {} = {:.3} ms",
        lat.n,
        lat.p50,
        tail_name(&lat),
        lat.tail
    );
    println!(
        "set-up: {} times, median {:.6} s, max {:.6} s",
        setup.n,
        setup.p50,
        run.setup_s.iter().cloned().fold(0.0, f64::max)
    );
    println!(
        "{:<34} {:>18.6} 1/s (not bounded)",
        "sim_cycles_per_s",
        sim_cycles_per_s(run)
    );
    println!(
        "{:<34} {:>18.6} ms (not bounded; {})",
        "latency_p99_ms",
        lat.tail,
        tail_name(&lat)
    );
    vec![
        ("setup_s".into(), setup.p50, "s"),
        (
            "sampled_uops_per_s".into(),
            run.horizon_uops as f64 / run.wall_s,
            "1/s",
        ),
        ("requests_per_s".into(), run.ops as f64 / run.wall_s, "1/s"),
        ("latency_p50_ms".into(), lat.p50, "ms"),
        ("peak_rss_mb".into(), run.peak_rss_mb, "MB"),
    ]
}

/// Which percentile the reported tail is.
fn tail_name(s: &stats::Summary) -> String {
    s.tail_pct
        .map_or("max (fewer than 11 samples)".to_string(), |p| {
            format!("p{p}")
        })
}

fn sim_cycles_per_s(run: &Run) -> f64 {
    run.sim_cycles as f64 / run.wall_s
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn report(tally: &Tally, metrics: &[layers::Metric]) -> String {
    for (name, value, unit) in metrics {
        println!("{name:<34} {value:>18.6} {unit}");
    }
    println!(
        "{:<34} {:>18.6} ratio ({} failed of {} attempted)",
        "error_rate",
        tally.error_rate(),
        tally.failed,
        tally.attempted
    );
    for note in &tally.notes {
        println!("FAILED: {note}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                json_escape(n),
                json_escape(u)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\n\nusage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 \
         --serve-bin PATH --work-dir DIR",
        WORKLOADS.map(|(n, _)| n).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (Ctx, bool) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> String {
        let i = args
            .iter()
            .position(|a| a == flag)
            .unwrap_or_else(|| usage(&format!("{flag} is required")));
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    let workload = get("--workload");
    if !WORKLOADS.iter().any(|(n, _)| *n == workload) {
        usage(&format!("unknown workload {workload}"));
    }
    let num = |flag: &str, v: String| {
        v.parse::<u64>()
            .unwrap_or_else(|_| usage(&format!("{flag} needs a whole number")))
    };
    let seed = num("--seed", get("--seed"));
    let seconds = num("--seconds", get("--seconds"));
    if seconds == 0 {
        usage("--seconds must be positive");
    }
    let trace = match get("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage("--trace takes 0 or 1"),
    };
    let serve_bin = PathBuf::from(get("--serve-bin"));
    let work = PathBuf::from(get("--work-dir"));
    let root =
        std::env::current_dir().unwrap_or_else(|e| usage(&format!("no working directory: {e}")));
    std::fs::create_dir_all(&work)
        .unwrap_or_else(|e| usage(&format!("cannot create {}: {e}", work.display())));
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        jobs: os::nproc().min(8),
        root,
        work,
        serve_bin,
        dirs: AtomicUsize::new(0),
    };
    (ctx, trace)
}

fn main() {
    let (ctx, trace) = parse_args();
    let why = WORKLOADS
        .iter()
        .find(|(n, _)| *n == ctx.workload)
        .map_or("", |w| w.1);
    println!(
        "workload {} (seed {}, {} s, up to {} workers/clients): {why}",
        ctx.workload, ctx.seed, ctx.seconds, ctx.jobs
    );
    let (tally, metrics) = if trace {
        let plain = run_workload(&ctx, &span::Recorder::new(false));
        let plain_cycles_per_s = sim_cycles_per_s(&plain);
        let plain_tail_ms = stats::summarize(&plain.latencies_ms).tail;
        drop(plain.sweeps);
        let rec = span::Recorder::new(true);
        let run = run_workload(&ctx, &rec);
        let mut metrics = layers::measure(&ctx, &run, &rec);
        let per_op = |wall: f64, ops: u64| wall / ops.max(1) as f64;
        let overhead = per_op(run.wall_s, run.ops) / per_op(plain.wall_s, plain.ops) - 1.0;
        println!(
            "tracing overhead: {:+.2}% per operation (untraced {:.3} s / {} ops, traced {:.3} s / {} ops)",
            overhead * 100.0,
            plain.wall_s,
            plain.ops,
            run.wall_s,
            run.ops
        );
        metrics.push(("bench.tracing_overhead_pct".into(), overhead * 100.0, "%"));
        metrics.push(("core.sim_cycles_per_s".into(), plain_cycles_per_s, "1/s"));
        metrics.push(("bench.latency_p99_ms".into(), plain_tail_ms, "ms"));
        let spans = rec.spans();
        let path = ctx.work.join("spans.jsonl");
        std::fs::write(&path, span::to_jsonl(&spans))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("spans: {} written to {}", spans.len(), path.display());
        let mut tally = plain.tally;
        tally.absorb(run.tally);
        (tally, metrics)
    } else {
        let run = run_workload(&ctx, &span::Recorder::new(false));
        let metrics = end_to_end(&run);
        (run.tally, metrics)
    };
    let line = report(&tally, &metrics);
    println!("{line}");
    if !tally.correct() {
        std::process::exit(1);
    }
}
