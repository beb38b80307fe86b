//! Output checks and failure accounting. Every operation a workload
//! attempts goes through a [`Tally`]; anything that fails — a job, a
//! request, a quarantined record or an output check — is counted once
//! against it, so `failed / attempted` is the run's error rate.

use csmt_core::SimResult;
use csmt_experiments::SampleStats;

/// Failure descriptions kept for the report; the count keeps going.
const MAX_NOTES: usize = 8;

#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the human-readable report.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one failure.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(what);
        }
    }

    /// Count `n` failures of one kind (e.g. failed jobs reported by a counter).
    pub fn fail_n(&mut self, n: u64, what: &str) {
        for _ in 0..n {
            self.fail(what.to_string());
        }
    }

    /// Add another tally's operations and failures to this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(MAX_NOTES);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A full run must bring every thread to its commit target.
pub fn full_run(label: &str, r: &SimResult, target: u64) -> Result<(), String> {
    let short: Vec<usize> = (0..r.num_threads)
        .filter(|&t| {
            r.stats.committed.get(t).copied().unwrap_or(0) < target
                || r.stats.finish_cycle.get(t).copied().unwrap_or(0) == 0
        })
        .collect();
    if r.num_threads == 0 || !short.is_empty() {
        return Err(format!(
            "{label}: threads {short:?} missed the {target}-uop commit target"
        ));
    }
    Ok(())
}

/// A sampled estimate must carry its sidecar with one window per
/// interval, and every window must commit its detail target on every
/// thread.
pub fn sampled_run(
    label: &str,
    sidecar: Option<&SampleStats>,
    intervals: u64,
    detail: u64,
) -> Result<(), String> {
    let stats = sidecar.ok_or_else(|| format!("{label}: estimate has no CI sidecar"))?;
    if stats.runs.len() as u64 != intervals {
        return Err(format!(
            "{label}: {} windows, expected {intervals}",
            stats.runs.len()
        ));
    }
    for (i, w) in stats.runs.iter().enumerate() {
        full_run(&format!("{label} window {i}"), w, detail)?;
    }
    Ok(())
}

/// Streamed tables must be byte-identical, name and JSON, to the
/// in-process render of the same artifact.
pub fn tables(
    artifact: &str,
    expected: &[(String, String)],
    got: &[(String, String)],
) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let names = |v: &[(String, String)]| v.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    Err(format!(
        "{artifact}: streamed tables {:?} differ from the in-process render {:?}",
        names(got),
        names(expected)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmt_experiments::runner::{fault_injection, CfgKind, ExpOptions};
    use csmt_experiments::Sweeps;
    use csmt_trace::suite::suite;
    use csmt_types::{RegFileSchemeKind, SampleSpec, SchemeKind};

    fn opts() -> ExpOptions {
        ExpOptions {
            commit_target: 300,
            warmup: 100,
            max_cycles: 1_000_000,
            jobs: 1,
            verbose: false,
            ..ExpOptions::default()
        }
    }

    #[test]
    fn a_tampered_table_is_caught_and_counted() {
        let expected = vec![(
            "detail:x".to_string(),
            "{\"title\":\"t\",\"rows\":[1.5]}".to_string(),
        )];
        assert!(tables("detail:x", &expected, &expected.clone()).is_ok());
        let mut tampered = expected.clone();
        tampered[0].1 = tampered[0].1.replace("1.5", "1.6");
        let mut renamed = expected.clone();
        renamed[0].0 = "detail:y".into();
        let mut tally = Tally::default();
        for got in [&expected, &tampered, &renamed, &Vec::new()] {
            tally.attempt(1);
            if let Err(e) = tables("detail:x", &expected, got) {
                tally.fail(e);
            }
        }
        assert_eq!((tally.attempted, tally.failed), (4, 3));
        assert!(!tally.correct());
        assert_eq!(tally.error_rate(), 0.75);
    }

    #[test]
    fn a_failed_job_is_caught_and_counted() {
        // A job whose every attempt panics is recorded by the sweep layer
        // as an all-zero placeholder plus one orchestrator failure; both
        // must surface in the tally.
        let ws: Vec<_> = suite().into_iter().skip(57).take(2).collect();
        let grid = [(
            SchemeKind::Icount,
            RegFileSchemeKind::Shared,
            CfgKind::IqStudy { iq: 32 },
        )];
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        fault_injection::arm(&ws[0].name, u32::MAX);
        let sweeps = Sweeps::new(opts());
        sweeps.smt_batch(&ws, &grid);
        fault_injection::disarm();
        std::panic::set_hook(hook);

        let mut tally = Tally::default();
        for w in &ws {
            tally.attempt(1);
            let key = Sweeps::smt_key(w, grid[0].0, grid[0].1, grid[0].2);
            if let Err(e) = full_run(&w.name, &sweeps.get(&key), opts().commit_target) {
                tally.fail(e);
            }
        }
        tally.fail_n(sweeps.counters().orch.failures, "job failed permanently");
        assert_eq!(tally.attempted, 2);
        assert_eq!(
            tally.failed, 2,
            "the zeroed result and the orchestrator failure: {:?}",
            tally.notes
        );
        assert!(tally.notes[0].contains(&ws[0].name));
    }

    #[test]
    fn sampled_estimates_need_every_window() {
        let spec = SampleSpec {
            intervals: 2,
            warmup: 50,
            detail: 200,
        };
        let sweeps = Sweeps::new(ExpOptions {
            commit_target: 2_000,
            sample: Some(spec),
            ..opts()
        });
        let w = suite().swap_remove(3);
        let grid = [(
            SchemeKind::Cssp,
            RegFileSchemeKind::Shared,
            CfgKind::IqStudy { iq: 32 },
        )];
        sweeps.smt_batch(std::slice::from_ref(&w), &grid);
        let key = Sweeps::smt_key(&w, grid[0].0, grid[0].1, grid[0].2);
        let ci = sweeps.get_ci(&key);
        assert!(sampled_run("ok", ci.as_ref(), 2, 200).is_ok());
        assert!(sampled_run("missing", None, 2, 200).is_err());
        assert!(sampled_run("short", ci.as_ref(), 3, 200).is_err());
        assert!(sampled_run("target", ci.as_ref(), 2, 10_000).is_err());
    }
}
