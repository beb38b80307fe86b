//! Shared immutable uop streams for batched multi-config sweeps.
//!
//! A sweep varies only back-end resource-assignment parameters over the
//! same trace pairs, yet the per-config simulator re-synthesizes the
//! program and re-generates the uop stream for every config point. The
//! stream is a pure function of `(profile, seed)` (see the crate docs),
//! so all config points sharing a trace can read one decoded stream.
//!
//! [`SharedStream`] owns the generator and publishes the stream as a
//! list of immutable fixed-size chunks; [`StreamReader`] is a per-config
//! cursor over those chunks. Extension is demand-driven: whichever
//! reader first runs off the published tail locks the generator and
//! appends the next chunk. Because generation is deterministic and
//! strictly append-only, the published prefix is identical no matter
//! which readers trigger extension in which order — a reader at
//! position `n` always sees the same uop a private generator would have
//! produced as its `n`-th.
//!
//! Wrong-path injection is *not* shared: it depends on machine state
//! (which branches mispredict, how long recovery takes), so every
//! simulator keeps its private [`crate::WrongPathSource`].

use crate::gen::ThreadTrace;
use crate::profile::TraceProfile;
use crate::program::Program;
use csmt_types::MicroOp;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Uops per published chunk. Large enough that steady-state reading is
/// a bounds check and an array index; small enough that a short run
/// does not generate far past what it consumes.
const CHUNK: usize = 4096;

/// One thread trace decoded once and shared, read-only, by every
/// simulator in a batch.
pub struct SharedStream {
    /// The synthesized program (cache warm-up and architected-state
    /// setup read it), shared with the generator.
    program: Arc<Program>,
    seed: u64,
    /// The generator producing the not-yet-published tail.
    tail: Mutex<ThreadTrace>,
    /// Published prefix, in order. Chunks are append-only and immutable
    /// once pushed.
    chunks: RwLock<Vec<Arc<Vec<MicroOp>>>>,
}

/// Ignore lock poisoning: a panicking simulator thread (e.g. a failed
/// validator in a fuzz worker) never leaves the stream in a partial
/// state — chunks are pushed fully built — so the data is still good.
fn lock_tail(m: &Mutex<ThreadTrace>) -> MutexGuard<'_, ThreadTrace> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl SharedStream {
    /// Decode `(profile, seed)` once. This is the expensive front-end
    /// work a batch amortizes: program synthesis plus stream generation.
    pub fn new(profile: &TraceProfile, seed: u64) -> Self {
        let tail = ThreadTrace::new(Program::synthesize(profile, seed), seed);
        SharedStream {
            program: tail.program().clone(),
            tail: Mutex::new(tail),
            seed,
            chunks: RwLock::new(Vec::new()),
        }
    }

    pub fn program(&self) -> &Program {
        &self.program
    }

    pub fn profile(&self) -> &TraceProfile {
        &self.program.profile
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of uops published so far (tests / diagnostics).
    pub fn published(&self) -> usize {
        self.chunks.read().unwrap_or_else(|e| e.into_inner()).len() * CHUNK
    }

    /// Chunk `idx`, generating forward as needed.
    fn chunk(&self, idx: usize) -> Arc<Vec<MicroOp>> {
        if let Some(c) = self
            .chunks
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(idx)
        {
            return c.clone();
        }
        // Extend under the generator lock. Another reader may have
        // published the chunk between our read miss and acquiring the
        // lock, so re-check each iteration.
        let mut tail = lock_tail(&self.tail);
        loop {
            {
                let chunks = self.chunks.read().unwrap_or_else(|e| e.into_inner());
                if let Some(c) = chunks.get(idx) {
                    return c.clone();
                }
            }
            let mut v = Vec::with_capacity(CHUNK);
            for _ in 0..CHUNK {
                v.push(tail.next_uop());
            }
            self.chunks
                .write()
                .unwrap_or_else(|e| e.into_inner())
                .push(Arc::new(v));
        }
    }
}

impl std::fmt::Debug for SharedStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedStream")
            .field("profile", &self.profile().name)
            .field("seed", &self.seed)
            .field("published_uops", &self.published())
            .finish()
    }
}

/// A private cursor over a [`SharedStream`]: one per simulator thread
/// context. Reading is lock-free in the steady state (the current chunk
/// is cached); only crossing into an unpublished chunk takes the
/// stream's locks.
pub struct StreamReader {
    stream: Arc<SharedStream>,
    /// Absolute position in the stream (uops consumed so far).
    pos: usize,
    cur: Option<(usize, Arc<Vec<MicroOp>>)>,
}

impl StreamReader {
    pub fn new(stream: Arc<SharedStream>) -> Self {
        StreamReader {
            stream,
            pos: 0,
            cur: None,
        }
    }

    pub fn profile(&self) -> &TraceProfile {
        self.stream.profile()
    }

    pub fn program(&self) -> &Program {
        self.stream.program()
    }

    /// Uops consumed so far.
    pub fn emitted(&self) -> u64 {
        self.pos as u64
    }

    /// Jump to absolute position `pos` in the stream: the next
    /// [`StreamReader::next_uop`] returns the uop a private generator
    /// would produce as its `pos`-th. Chunks up to `pos` are generated
    /// on demand (once per stream, shared by every reader), so seeking
    /// far ahead costs one generation pass that later readers and
    /// intervals reuse.
    pub fn seek(&mut self, pos: u64) {
        self.pos = pos as usize;
        self.cur = None;
    }

    /// Next correct-path uop — the exact uop a private
    /// [`ThreadTrace`] built from the same `(profile, seed)` would
    /// produce at this position.
    #[inline]
    pub fn next_uop(&mut self) -> MicroOp {
        let idx = self.pos / CHUNK;
        let off = self.pos % CHUNK;
        if self.cur.as_ref().map(|c| c.0) != Some(idx) {
            self.cur = Some((idx, self.stream.chunk(idx)));
        }
        self.pos += 1;
        self.cur.as_ref().unwrap().1[off]
    }
}

impl std::fmt::Debug for StreamReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamReader")
            .field("profile", &self.profile().name)
            .field("pos", &self.pos)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;

    #[test]
    fn shared_stream_matches_private_generator() {
        let w = &suite()[0];
        for spec in &w.traces {
            let shared = Arc::new(SharedStream::new(&spec.profile, spec.seed));
            let mut private = ThreadTrace::from_profile(&spec.profile, spec.seed);
            let mut reader = StreamReader::new(shared.clone());
            // Cross several chunk boundaries.
            for i in 0..3 * CHUNK + 17 {
                assert_eq!(
                    reader.next_uop(),
                    private.next_uop(),
                    "divergence at uop {i} of {}",
                    spec.profile.name
                );
            }
        }
    }

    #[test]
    fn seek_matches_a_skipped_private_generator() {
        let w = &suite()[0];
        let spec = &w.traces[0];
        let shared = Arc::new(SharedStream::new(&spec.profile, spec.seed));
        let mut reader = StreamReader::new(shared.clone());
        // Jump across a chunk boundary without reading the prefix.
        let skip = CHUNK as u64 + 321;
        reader.seek(skip);
        assert_eq!(reader.emitted(), skip);
        let mut private = ThreadTrace::from_profile(&spec.profile, spec.seed);
        for _ in 0..skip {
            private.next_uop();
        }
        for i in 0..CHUNK + 50 {
            assert_eq!(reader.next_uop(), private.next_uop(), "uop {i} after seek");
        }
        // Seeking backwards replays the published prefix.
        reader.seek(0);
        let mut fresh = ThreadTrace::from_profile(&spec.profile, spec.seed);
        for i in 0..100 {
            assert_eq!(reader.next_uop(), fresh.next_uop(), "uop {i} after rewind");
        }
    }

    #[test]
    fn interleaved_readers_see_the_same_stream() {
        let w = &suite()[1];
        let spec = &w.traces[0];
        let shared = Arc::new(SharedStream::new(&spec.profile, spec.seed));
        let mut a = StreamReader::new(shared.clone());
        let mut b = StreamReader::new(shared.clone());
        // Reader `a` races ahead (forcing extension), `b` lags; both see
        // the identical prefix.
        let lead: Vec<MicroOp> = (0..CHUNK + 100).map(|_| a.next_uop()).collect();
        let lag: Vec<MicroOp> = (0..CHUNK + 100).map(|_| b.next_uop()).collect();
        assert_eq!(lead, lag);
    }
}
