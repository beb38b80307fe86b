//! Architectural checkpoints: fast-forward a trace to a commit offset and
//! resume detailed simulation from there.
//!
//! A [`Checkpoint`] captures the *architectural* state of a machine after
//! each thread has committed exactly `offset` correct-path uops: the trace
//! specs (from which the architected register values and the fetch stream
//! are pure functions), the per-thread fetch-stream cursor (`offset`
//! itself — squashed correct-path uops are refetched from the replay
//! buffer, never by rewinding the source, so the source position after K
//! commits is exactly K), and a bounded summary of the memory lines the
//! skipped execution touched most recently (to pre-warm the hierarchy).
//!
//! What it deliberately does **not** capture is microarchitectural state:
//! cache tags, predictor tables, queue occupancies. Those are
//! reconstructed by the detailed warm-up window that sampled simulation
//! runs before each measured interval (see DESIGN.md, "Checkpointing").
//! The contract is therefore two-sided:
//!
//! * resuming from the *same checkpoint* is bit-exact — two simulators
//!   restored from equal checkpoints execute identically, byte for byte,
//!   whether the checkpoint came from memory or from a store round trip;
//! * the resumed commit stream is *architecturally* identical to a
//!   detailed run from zero: commit index K+i retires the same (pc,
//!   class) for every i, proven by the armed oracle and the boundary
//!   property tests.
//!
//! Capture replays the program with the in-order [`ThreadOracle`] — the
//! same engine that cross-checks detailed commits — so the fast-forward
//! path and the validation path cannot drift apart. The same replay can
//! keep the oracle's trace cursor at every offset: a [`RestorePoint`]
//! (verified checkpoint plus cursors) restores any number of machines
//! without hashing the record or walking the trace again.

use csmt_trace::suite::TraceSpec;
use csmt_trace::{ThreadOracle, ThreadTrace, TraceSnapshot, WarmFootprint};
use serde::{Deserialize, Serialize};

/// Bump when the checkpoint layout changes incompatibly.
pub const CHECKPOINT_SCHEMA: u32 = 1;

/// One thread's slice of a checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadCheckpoint {
    /// The trace this thread replays (architected state and stream are
    /// pure functions of it).
    pub spec: TraceSpec,
    /// Architectural commit offset: correct-path uops committed before
    /// the resume point.
    pub offset: u64,
    /// Most recently touched 64-byte line addresses during the skipped
    /// region, oldest first, bounded (see [`WarmFootprint`]).
    pub warm_lines: Vec<u64>,
}

/// A resumable architectural checkpoint for one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    pub schema: u32,
    pub threads: Vec<ThreadCheckpoint>,
    /// FNV-1a over the JSON serialization of this record with
    /// `checksum` zeroed; [`Checkpoint::verify`] recomputes it.
    pub checksum: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Checkpoint {
    /// Capture a checkpoint with every thread fast-forwarded to the same
    /// commit `offset`.
    pub fn capture(specs: &[TraceSpec], offset: u64) -> Checkpoint {
        Self::capture_many(specs, &[offset])
            .pop()
            .expect("one offset in, one checkpoint out")
    }

    /// Capture checkpoints at several commit offsets in **one** forward
    /// replay pass per thread (offsets must be non-decreasing): the
    /// oracle advances monotonically and the warm footprint is
    /// snapshotted at each offset. This is what makes sampled simulation
    /// cheap — N interval checkpoints cost one replay to the last
    /// offset, not N replays.
    pub fn capture_many(specs: &[TraceSpec], offsets: &[u64]) -> Vec<Checkpoint> {
        VerifiedCheckpoint::capture_many(specs, offsets)
            .into_iter()
            .map(|ck| ck.0)
            .collect()
    }

    /// This checkpoint as a [`VerifiedCheckpoint`], if [`Checkpoint::verify`]
    /// passes.
    pub fn into_verified(self) -> Result<VerifiedCheckpoint, String> {
        self.verify()?;
        Ok(VerifiedCheckpoint(self))
    }

    fn sealed(threads: Vec<ThreadCheckpoint>) -> Checkpoint {
        let mut c = Checkpoint {
            schema: CHECKPOINT_SCHEMA,
            threads,
            checksum: 0,
        };
        c.checksum = c.content_hash();
        c
    }

    /// The checksum this record *should* carry: FNV-1a over its JSON
    /// form with the checksum field zeroed.
    pub fn content_hash(&self) -> u64 {
        let unsealed = Checkpoint {
            checksum: 0,
            ..self.clone()
        };
        let json = serde_json::to_string(&unsealed).expect("checkpoint serializes");
        fnv1a(json.as_bytes())
    }

    /// The trace specs of every thread, in thread order.
    pub fn specs(&self) -> Vec<TraceSpec> {
        self.threads.iter().map(|t| t.spec.clone()).collect()
    }

    /// Integrity check: schema, non-emptiness, checksum. A checkpoint
    /// that fails here must be treated as corrupt and never resumed.
    pub fn verify(&self) -> Result<(), String> {
        if self.schema != CHECKPOINT_SCHEMA {
            return Err(format!(
                "checkpoint schema {} != supported {CHECKPOINT_SCHEMA}",
                self.schema
            ));
        }
        if self.threads.is_empty() {
            return Err("checkpoint has no threads".into());
        }
        let want = self.content_hash();
        if self.checksum != want {
            return Err(format!(
                "checkpoint checksum mismatch: stored {:016x}, computed {:016x}",
                self.checksum, want
            ));
        }
        Ok(())
    }
}

/// The one capture replay behind [`Checkpoint::capture_many`] and
/// [`RestorePoint::capture`]: walks each thread's oracle forward through
/// `offsets` (non-decreasing) once, sealing one checkpoint per offset and
/// handing `at_offset` the oracle's trace cursor there.
fn replay<T>(
    specs: &[TraceSpec],
    offsets: &[u64],
    mut at_offset: impl FnMut(&ThreadTrace) -> T,
) -> Vec<(VerifiedCheckpoint, Vec<T>)> {
    assert!(!specs.is_empty(), "checkpoint needs at least one thread");
    assert!(
        offsets.windows(2).all(|w| w[0] <= w[1]),
        "capture_many offsets must be non-decreasing"
    );
    // thread -> offset index -> (warm-line snapshot, cursor value).
    let mut per_thread: Vec<_> = specs
        .iter()
        .map(|spec| {
            let mut oracle = ThreadOracle::from_spec(spec);
            let mut fp = WarmFootprint::new();
            offsets
                .iter()
                .map(|&off| {
                    oracle.fast_forward(off - oracle.committed(), &mut fp);
                    (fp.recent_lines(), at_offset(oracle.trace()))
                })
                .collect::<Vec<_>>()
                .into_iter()
        })
        .collect();
    offsets
        .iter()
        .map(|&offset| {
            let (threads, cursors) = specs
                .iter()
                .zip(&mut per_thread)
                .map(|(spec, snaps)| {
                    let (warm_lines, cursor) = snaps.next().expect("one snapshot per offset");
                    let thread = ThreadCheckpoint {
                        spec: spec.clone(),
                        offset,
                        warm_lines,
                    };
                    (thread, cursor)
                })
                .unzip();
            (VerifiedCheckpoint(Checkpoint::sealed(threads)), cursors)
        })
        .collect()
}

/// A [`Checkpoint`] whose integrity check has passed: built only by
/// [`Checkpoint::into_verified`] or by a capture, so a restore from it
/// need not serialize and hash the record again.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifiedCheckpoint(Checkpoint);

impl VerifiedCheckpoint {
    /// [`Checkpoint::capture_many`], keeping the proof of integrity a
    /// capture carries by construction.
    pub fn capture_many(specs: &[TraceSpec], offsets: &[u64]) -> Vec<VerifiedCheckpoint> {
        replay(specs, offsets, |_| ())
            .into_iter()
            .map(|(ck, _)| ck)
            .collect()
    }
}

impl std::ops::Deref for VerifiedCheckpoint {
    type Target = Checkpoint;

    fn deref(&self) -> &Checkpoint {
        &self.0
    }
}

/// Everything a detailed restore at one checkpoint needs, built once and
/// restorable any number of times ([`Simulator::from_restore_point`]):
/// the verified checkpoint plus each thread's generator cursor at its
/// offset, kept as compact [`TraceSnapshot`]s.
///
/// [`Simulator::from_restore_point`]: crate::Simulator::from_restore_point
#[derive(Clone)]
pub struct RestorePoint {
    checkpoint: VerifiedCheckpoint,
    cursors: Vec<TraceSnapshot>,
}

impl RestorePoint {
    /// Capture the checkpoints at `offsets` (non-decreasing) together
    /// with their cursors, in the single replay pass of
    /// [`Checkpoint::capture_many`]: the oracle's cursor at each offset
    /// is the restore cursor, so nothing walks the trace a second time.
    pub fn capture(specs: &[TraceSpec], offsets: &[u64]) -> Vec<RestorePoint> {
        replay(specs, offsets, ThreadTrace::snapshot)
            .into_iter()
            .map(|(checkpoint, cursors)| RestorePoint {
                checkpoint,
                cursors,
            })
            .collect()
    }

    /// Restore points for checkpoints obtained elsewhere (an artifact
    /// store): one generator cursor per thread walks forward from
    /// checkpoint to checkpoint, so checkpoints in non-decreasing offset
    /// order generate each trace's prefix once. A cursor already past
    /// the next offset, or one for another trace, starts over from uop 0.
    pub fn walk(checkpoints: Vec<VerifiedCheckpoint>) -> Vec<RestorePoint> {
        let mut walkers: Vec<ThreadTrace> = Vec::new();
        checkpoints
            .into_iter()
            .map(|checkpoint| {
                let same_traces = walkers.len() == checkpoint.threads.len()
                    && walkers
                        .iter()
                        .zip(&checkpoint.threads)
                        .all(|(w, t)| w.matches(&t.spec));
                if !same_traces {
                    walkers = checkpoint
                        .threads
                        .iter()
                        .map(|t| ThreadTrace::from_profile(&t.spec.profile, t.spec.seed))
                        .collect();
                }
                let cursors = walkers
                    .iter_mut()
                    .zip(&checkpoint.threads)
                    .map(|(w, t)| {
                        w.seek_to(t.offset);
                        w.snapshot()
                    })
                    .collect();
                RestorePoint {
                    checkpoint,
                    cursors,
                }
            })
            .collect()
    }

    pub fn checkpoint(&self) -> &VerifiedCheckpoint {
        &self.checkpoint
    }

    /// Each thread's generator cursor, positioned at its offset.
    pub fn cursors(&self) -> &[TraceSnapshot] {
        &self.cursors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmt_trace::suite;

    fn specs() -> Vec<TraceSpec> {
        suite::suite()[0].traces.to_vec()
    }

    #[test]
    fn capture_is_deterministic_and_verifies() {
        let a = Checkpoint::capture(&specs(), 3_000);
        let b = Checkpoint::capture(&specs(), 3_000);
        assert_eq!(a, b);
        a.verify().unwrap();
        assert_eq!(a.threads.len(), 2);
        assert!(a.threads.iter().all(|t| t.offset == 3_000));
        assert!(a.threads.iter().all(|t| !t.warm_lines.is_empty()));
    }

    #[test]
    fn capture_many_matches_individual_captures() {
        let offsets = [1_000, 4_000, 9_000];
        let many = Checkpoint::capture_many(&specs(), &offsets);
        for (ck, &off) in many.iter().zip(&offsets) {
            assert_eq!(ck, &Checkpoint::capture(&specs(), off), "offset {off}");
        }
    }

    #[test]
    fn tampering_fails_verification() {
        let mut ck = Checkpoint::capture(&specs(), 2_000);
        ck.threads[0].offset += 1;
        assert!(ck.verify().is_err(), "offset tamper must be caught");
        let mut ck = Checkpoint::capture(&specs(), 2_000);
        ck.threads[1].warm_lines.push(0xdead_beef);
        assert!(ck.verify().is_err(), "warm-line tamper must be caught");
        let mut ck = Checkpoint::capture(&specs(), 2_000);
        ck.checksum ^= 1;
        assert!(ck.verify().is_err(), "checksum flip must be caught");
    }

    #[test]
    fn json_round_trip_preserves_verification() {
        let ck = Checkpoint::capture(&specs(), 5_000);
        let json = serde_json::to_string(&ck).unwrap();
        let back: Checkpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ck);
        back.verify().unwrap();
    }

    #[test]
    fn restore_is_bit_exact_and_oracle_clean() {
        use crate::Simulator;
        use csmt_types::{MachineConfig, RegFileSchemeKind, SchemeKind};
        let ck = Checkpoint::capture(&specs(), 2_000);
        let run = |ck: &Checkpoint| {
            let mut sim = Simulator::from_checkpoint(
                MachineConfig::baseline(),
                SchemeKind::Cssp,
                RegFileSchemeKind::Shared,
                ck,
            )
            .unwrap();
            // Validators + oracle armed at the offset: every detailed
            // commit past the fast-forward must match the replay.
            sim.enable_oracle();
            sim.run_with_warmup(200, 800, 1_000_000)
        };
        let a = run(&ck);
        let b = run(&ck);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "two restores from the same checkpoint must be bit-exact"
        );
        assert!(a.throughput() > 0.0);

        // A corrupt checkpoint is refused, not silently resumed.
        let mut bad = ck.clone();
        bad.threads[0].offset += 1;
        assert!(Simulator::from_checkpoint(
            MachineConfig::baseline(),
            SchemeKind::Cssp,
            RegFileSchemeKind::Shared,
            &bad,
        )
        .is_err());
    }

    #[test]
    fn offset_zero_is_a_valid_cold_start() {
        let ck = Checkpoint::capture(&specs(), 0);
        ck.verify().unwrap();
        assert!(ck.threads.iter().all(|t| t.warm_lines.is_empty()));
    }
}
