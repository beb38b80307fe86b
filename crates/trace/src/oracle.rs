//! In-order architectural oracle.
//!
//! A [`ThreadOracle`] replays a thread's program the way a trivially
//! correct single-issue machine would — straight through the generator,
//! no speculation, no clustering — and checks the simulator's committed
//! micro-op stream against it. Because traces are a pure function of
//! `(profile, seed)`, the oracle reconstructs the exact correct-path
//! stream from the same spec the simulator was built from.
//!
//! The contract it enforces, per thread:
//!
//! * every committed non-copy uop is the *next* uop of the program — same
//!   pc, same class, in program order, with nothing skipped or duplicated
//!   (squashed correct-path uops must be refetched and re-committed in
//!   place; wrong-path uops must never commit);
//! * sequence numbers strictly increase in commit order (they are not
//!   contiguous: replayed uops are renumbered and copies consume numbers).

use crate::gen::ThreadTrace;
use crate::profile::TraceProfile;
use crate::suite::TraceSpec;
use csmt_types::OpClass;
use std::collections::HashMap;

/// Cache lines are recorded at this granularity during fast-forward.
const WARM_LINE: u64 = 64;

/// Most-recently-touched lines kept per thread in a checkpoint. Bounds
/// the artifact size; the restore-side warm budget (a slice of the L2)
/// is far smaller anyway.
const MAX_WARM_LINES: usize = 4096;

/// Memory lines touched during an architectural fast-forward, with
/// recency. A checkpoint stores the most recently touched lines so the
/// resumed simulator can pre-warm its memory hierarchy the way the
/// skipped execution would have left it.
#[derive(Debug, Default)]
pub struct WarmFootprint {
    /// line base address → last-touch tick.
    lines: HashMap<u64, u64>,
    tick: u64,
}

impl WarmFootprint {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an access of `size` bytes at `addr`.
    pub fn touch(&mut self, addr: u64, size: u64) {
        let first = addr & !(WARM_LINE - 1);
        let last = (addr + size.max(1) - 1) & !(WARM_LINE - 1);
        let mut line = first;
        loop {
            self.lines.insert(line, self.tick);
            self.tick += 1;
            if line >= last {
                break;
            }
            line += WARM_LINE;
        }
        // Keep the map bounded: when it doubles past the cap, drop the
        // oldest half. Eviction order is deterministic (ticks are unique).
        if self.lines.len() > 2 * MAX_WARM_LINES {
            let mut ticks: Vec<u64> = self.lines.values().copied().collect();
            ticks.sort_unstable();
            let cutoff = ticks[ticks.len() - MAX_WARM_LINES];
            self.lines.retain(|_, &mut t| t >= cutoff);
        }
    }

    /// The most recently touched line addresses, capped at
    /// [`MAX_WARM_LINES`], ordered oldest-touched first so warming them
    /// in order leaves the most recent lines most-recently-used.
    pub fn recent_lines(&self) -> Vec<u64> {
        let mut by_tick: Vec<(u64, u64)> = self.lines.iter().map(|(&l, &t)| (t, l)).collect();
        by_tick.sort_unstable();
        // Collected from a borrowed slice, so the result gets an allocation
        // of its own length: collecting `by_tick` by value would keep its
        // buffer for the lifetime of the checkpoint (capacity 16 276 for
        // 4 096 kept lines on the suite).
        let oldest_kept = by_tick.len().saturating_sub(MAX_WARM_LINES);
        by_tick[oldest_kept..].iter().map(|&(_, l)| l).collect()
    }
}

/// A divergence between the simulator's committed stream and the oracle's
/// architectural replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleDivergence {
    /// Index in the thread's committed non-copy stream (0-based).
    pub index: u64,
    /// What the architectural replay expected.
    pub expected_pc: u64,
    pub expected_class: OpClass,
    /// What the simulator committed.
    pub got_pc: u64,
    pub got_class: OpClass,
    /// Human-readable description (also covers seq-order violations).
    pub detail: String,
}

impl std::fmt::Display for OracleDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "commit #{}: {}", self.index, self.detail)
    }
}

/// In-order replay of one thread's program.
pub struct ThreadOracle {
    trace: ThreadTrace,
    /// Committed non-copy uops cross-checked so far.
    position: u64,
    /// Last committed sequence number (copies included).
    last_seq: Option<u64>,
}

impl ThreadOracle {
    pub fn new(profile: &TraceProfile, seed: u64) -> Self {
        ThreadOracle {
            trace: ThreadTrace::from_profile(profile, seed),
            position: 0,
            last_seq: None,
        }
    }

    pub fn from_spec(spec: &TraceSpec) -> Self {
        Self::new(&spec.profile, spec.seed)
    }

    /// Committed non-copy uops cross-checked so far.
    pub fn committed(&self) -> u64 {
        self.position
    }

    /// The replay cursor: after [`ThreadOracle::fast_forward`] to an
    /// offset, it stands exactly where a detailed simulator's generator
    /// must resume.
    pub fn trace(&self) -> &ThreadTrace {
        &self.trace
    }

    /// Architecturally fast-forward `n` uops: replay the program in
    /// order without checking anything, recording touched memory lines
    /// into `footprint`. Afterwards the oracle expects commit `n` as the
    /// next uop — exactly the state a detailed simulator reaches after
    /// committing `n` uops of this thread.
    pub fn fast_forward(&mut self, n: u64, footprint: &mut WarmFootprint) {
        for _ in 0..n {
            let u = self.trace.next_uop();
            if let Some(m) = u.mem {
                footprint.touch(m.addr, m.size as u64);
            }
            self.position += 1;
        }
    }

    /// Check that sequence numbers strictly increase in commit order.
    /// Called for *every* committed uop, copies included (copies are
    /// numbered in the same per-thread space as the uops they feed).
    pub fn expect_seq(&mut self, seq: u64) -> Result<(), OracleDivergence> {
        if let Some(prev) = self.last_seq {
            if seq <= prev {
                return Err(self.divergence(format!(
                    "sequence numbers not strictly increasing: {seq} after {prev}"
                )));
            }
        }
        self.last_seq = Some(seq);
        Ok(())
    }

    /// Check the next committed non-copy uop against the replay.
    pub fn expect_next(&mut self, pc: u64, class: OpClass) -> Result<(), OracleDivergence> {
        let want = self.trace.next_uop();
        if want.pc != pc || want.class != class {
            let d = OracleDivergence {
                index: self.position,
                expected_pc: want.pc,
                expected_class: want.class,
                got_pc: pc,
                got_class: class,
                detail: format!(
                    "expected {:?}@{:#x}, simulator committed {:?}@{:#x}",
                    want.class, want.pc, class, pc
                ),
            };
            return Err(d);
        }
        self.position += 1;
        Ok(())
    }

    fn divergence(&self, detail: String) -> OracleDivergence {
        // pc/class fields are not meaningful for ordering violations;
        // `Copy` never appears in a trace, making the filler unambiguous.
        OracleDivergence {
            index: self.position,
            expected_pc: 0,
            expected_class: OpClass::Copy,
            got_pc: 0,
            got_class: OpClass::Copy,
            detail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;

    #[test]
    fn replay_matches_itself() {
        let spec = &suite::suite()[0].traces[0];
        let mut a = ThreadOracle::from_spec(spec);
        let mut b = ThreadTrace::from_profile(&spec.profile, spec.seed);
        for i in 0..5_000 {
            let u = b.next_uop();
            a.expect_seq(i).unwrap();
            a.expect_next(u.pc, u.class).unwrap();
        }
        assert_eq!(a.committed(), 5_000);
    }

    #[test]
    fn detects_skipped_uop() {
        let spec = &suite::suite()[0].traces[0];
        let mut oracle = ThreadOracle::from_spec(spec);
        let mut stream = ThreadTrace::from_profile(&spec.profile, spec.seed);
        let _skipped = stream.next_uop();
        let second = stream.next_uop();
        // First uop never committed → a divergence as soon as the stream
        // continues (same program, shifted by one).
        let mut diverged = false;
        let mut u = second;
        for _ in 0..64 {
            if oracle.expect_next(u.pc, u.class).is_err() {
                diverged = true;
                break;
            }
            u = stream.next_uop();
        }
        assert!(diverged, "skipping a uop must eventually diverge");
    }

    #[test]
    fn fast_forward_lands_exactly_at_offset() {
        let spec = &suite::suite()[0].traces[0];
        let mut ff = ThreadOracle::from_spec(spec);
        let mut fp = WarmFootprint::new();
        ff.fast_forward(1234, &mut fp);
        assert_eq!(ff.committed(), 1234);
        // The fast-forwarded oracle continues exactly where a straight
        // replay is at uop 1234.
        let mut straight = ThreadTrace::from_profile(&spec.profile, spec.seed);
        for _ in 0..1234 {
            straight.next_uop();
        }
        for _ in 0..500 {
            let u = straight.next_uop();
            ff.expect_next(u.pc, u.class).unwrap();
        }
    }

    #[test]
    fn warm_footprint_is_bounded_and_recency_ordered() {
        let spec = &suite::suite()[0].traces[1]; // mem-bound: large footprint
        let mut ff = ThreadOracle::from_spec(spec);
        let mut fp = WarmFootprint::new();
        ff.fast_forward(200_000, &mut fp);
        let lines = fp.recent_lines();
        assert!(!lines.is_empty());
        assert!(lines.len() <= 4096, "footprint capped, got {}", lines.len());
        // Deterministic: same replay, same lines in the same order.
        let mut ff2 = ThreadOracle::from_spec(spec);
        let mut fp2 = WarmFootprint::new();
        ff2.fast_forward(200_000, &mut fp2);
        assert_eq!(lines, fp2.recent_lines());
    }

    #[test]
    fn detects_seq_regression() {
        let spec = &suite::suite()[0].traces[0];
        let mut oracle = ThreadOracle::from_spec(spec);
        oracle.expect_seq(10).unwrap();
        assert!(oracle.expect_seq(10).is_err(), "equal seq repeats");
        let mut oracle = ThreadOracle::from_spec(spec);
        oracle.expect_seq(10).unwrap();
        assert!(oracle.expect_seq(3).is_err(), "seq went backwards");
    }
}
