//! Seeded workload inputs. Everything the benchmark feeds the program is
//! a pure function of the workload seed: which Table-2 workloads run
//! (stratified so every seed takes the same number of ILP, MEM and MIX
//! pairs), which 4-thread bundle and shape ride along, and the serve
//! request sequence.

use csmt_trace::suite::{bundles, suite, Bundle, Workload, WorkloadKind};

/// SplitMix64: tiny, seedable and stable across platforms.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_c1a5_7e2e_d5b7)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

pub const KINDS: [WorkloadKind; 3] = [WorkloadKind::Ilp, WorkloadKind::Mem, WorkloadKind::Mix];

/// `per_kind` distinct suite workloads of each kind, ILP first, then MEM,
/// then MIX.
pub fn stratified(rng: &mut Rng, all: &[Workload], per_kind: usize) -> Vec<Workload> {
    let mut out = Vec::new();
    for kind in KINDS {
        let mut pool: Vec<&Workload> = all.iter().filter(|w| w.kind == kind).collect();
        assert!(
            per_kind <= pool.len(),
            "only {} {kind} workloads",
            pool.len()
        );
        rng.shuffle(&mut pool);
        out.extend(pool.into_iter().take(per_kind).cloned());
    }
    out
}

/// One 4-thread bundle and the scaled shape `(threads, clusters)` it runs on.
pub fn bundle(rng: &mut Rng) -> (Bundle, (usize, usize)) {
    let mut bs = bundles(4);
    let b = bs.swap_remove(rng.below(bs.len()));
    let shapes = csmt_experiments::figures::fign::SHAPES;
    (b, shapes[rng.below(shapes.len())])
}

/// Every sweep's inputs, written out so a run can be inspected and two
/// runs compared byte for byte.
pub fn describe(workloads: &[Workload], extra: &[String]) -> String {
    let mut out = String::new();
    for w in workloads {
        out.push_str(&format!("workload {} {}\n", w.name, w.kind));
        for t in &w.traces {
            out.push_str(&format!("  trace {} seed={}\n", t.profile.name, t.seed));
        }
    }
    for e in extra {
        out.push_str(e);
        out.push('\n');
    }
    out
}

/// The serve workload's request set and the order clients send it in:
/// `detail:` artifacts of `per_kind` workloads of each kind plus the
/// whole-paper `summary` artifact (Figures 2, 9 and 10 behind one table).
/// The summary is every `figure_every`-th request, so its share does not
/// depend on the seed; the seed orders the rest.
pub struct Requests {
    pub workloads: Vec<Workload>,
    pub artifacts: Vec<String>,
    /// Indices into `artifacts`, cycled through by the clients.
    pub sequence: Vec<usize>,
}

pub const SERVE_FIGURE: &str = "summary";

pub fn requests(rng: &mut Rng, per_kind: usize, figure_every: usize, len: usize) -> Requests {
    let workloads = stratified(rng, &suite(), per_kind);
    let mut artifacts: Vec<String> = workloads
        .iter()
        .map(|w| format!("detail:{}", w.name))
        .collect();
    artifacts.push(SERVE_FIGURE.to_string());
    let fig = artifacts.len() - 1;
    let sequence = (0..len)
        .map(|i| {
            if i % figure_every == 0 {
                fig
            } else {
                rng.below(fig)
            }
        })
        .collect();
    Requests {
        workloads,
        artifacts,
        sequence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep_inputs(seed: u64) -> String {
        let mut rng = Rng::new(seed);
        let ws = stratified(&mut rng, &suite(), 2);
        let (b, (t, c)) = bundle(&mut rng);
        describe(&ws, &[format!("bundle {} {t}x{c}", b.name)])
    }

    fn serve_inputs(seed: u64) -> (Vec<String>, Vec<usize>) {
        let r = requests(&mut Rng::new(seed), 2, 8, 512);
        (r.artifacts, r.sequence)
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(sweep_inputs(7).as_bytes(), sweep_inputs(7).as_bytes());
        assert_eq!(serve_inputs(7), serve_inputs(7));
        assert_ne!(sweep_inputs(7), sweep_inputs(8));
        assert_ne!(serve_inputs(7), serve_inputs(8));
    }

    #[test]
    fn selection_is_stratified_and_distinct() {
        for seed in 0..20 {
            let ws = stratified(&mut Rng::new(seed), &suite(), 3);
            for (i, kind) in KINDS.iter().enumerate() {
                assert!(
                    ws[i * 3..i * 3 + 3].iter().all(|w| w.kind == *kind),
                    "seed {seed}"
                );
            }
            let mut names: Vec<&str> = ws.iter().map(|w| w.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), 9, "seed {seed}: duplicate workload");
        }
    }

    #[test]
    fn request_mix_holds_the_figure_as_a_minority() {
        let r = requests(&mut Rng::new(3), 2, 8, 4000);
        assert_eq!(r.artifacts.len(), 7);
        assert_eq!(r.artifacts[6], SERVE_FIGURE);
        let figs = r.sequence.iter().filter(|&&i| i == 6).count();
        assert_eq!(figs, 500, "one figure request in eight");
        assert!(
            (0..6).all(|i| r.sequence.contains(&i)),
            "every detail artifact is requested"
        );
    }
}
