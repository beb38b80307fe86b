//! Issue (wakeup/select, ports) and execution completion (FUs, links,
//! memory, branch resolution).

use super::{
    meta_class, Simulator, UopState, META_HINT_CAP, META_HINT_HARD, META_HINT_SHIFT, META_LOW_MASK,
};
use csmt_backend::PortScheduler;
use csmt_mem::LoadCheck;
use csmt_types::{ImbalanceKind, OpClass, ThreadId, MAX_CLUSTERS};

impl Simulator {
    /// Issue stage: per cluster, scan the issue queue oldest-first, claim
    /// ports for ready uops, and record Figure-5 imbalance events for ready
    /// uops that found no port. The ready scan runs entirely on the
    /// queue's packed metadata (class + source registers); the uop slab is
    /// only touched for the uops that actually issue.
    pub(crate) fn issue(&mut self) {
        let now = self.now;
        let mut ports: [PortScheduler; MAX_CLUSTERS] =
            std::array::from_fn(|_| PortScheduler::new());
        // Ready-but-portless uop kinds per cluster.
        let mut failed: [[bool; ImbalanceKind::COUNT]; MAX_CLUSTERS] =
            [[false; ImbalanceKind::COUNT]; MAX_CLUSTERS];
        let mut issued_any = false;
        let mut to_issue = std::mem::take(&mut self.issue_buf);

        // Clusters are scanned in orientation order: shared resources
        // booked during issue (inter-cluster links) then go to mirrored
        // clusters under a mirrored workload.
        let num_clusters = self.cfg.num_clusters;
        // Wrap-around increment instead of a per-iteration `% num_clusters`:
        // the divisor is a runtime value, so the modulo is a real division
        // in the hottest loop of the simulator.
        let mut cnext = (self.orient as usize) % num_clusters;
        for _ in 0..num_clusters {
            let c = cnext;
            cnext += 1;
            if cnext == num_clusters {
                cnext = 0;
            }
            // While `now` is below the earliest timed hint seen by the
            // previous scan, and nothing was inserted (resets the bound to
            // 0) or woken (sets the dirty flag), no entry can be ready:
            // skip the cluster without touching its queue at all.
            let dirty = std::mem::take(&mut self.scoreboard.scan_dirty[c]);
            if !dirty && self.iq_next_scan[c] > now {
                continue;
            }
            let mut next_scan = u64::MAX;
            to_issue.clear();
            // Split borrows: readiness tables are read while the park/
            // rewake structures are written, all per cluster.
            let super::Scoreboard {
                ready,
                waiters,
                rewake,
                ..
            } = &mut self.scoreboard;
            let sb = &ready[c];
            let rw = &mut rewake[c];
            // Earliest cycle a packed source slot (see `pack_iq_meta`) can
            // be ready: 0 for absent sources, the scoreboard cycle for
            // written-back or scheduled values, `u64::MAX` for values whose
            // producer has not scheduled its wakeup yet.
            let slot_bound = |slot: u64| -> u64 {
                if slot & 1 == 0 {
                    return 0;
                }
                sb[(slot as usize >> 1) & 1]
                    .get((slot >> 2) as usize & 0xffff)
                    .copied()
                    .unwrap_or(u64::MAX)
            };
            let wt = &mut waiters[c];
            let cluster_ports = &mut ports[c];
            let cluster_failed = &mut failed[c];
            let slab = &self.slab;
            // Fused select-and-compact: one pass both picks the issuing
            // uops and closes the holes they leave, instead of a scan
            // followed by a `remove_in_order` compaction pass.
            self.iqs[c].scan_issue(|id, meta_ref| {
                let meta = *meta_ref;
                // Cached wakeup hint in the spare upper bits (see
                // `META_HINT_HARD`). Source ready-cycles never move
                // *earlier* while a consumer waits in the queue, so a
                // future hint of either kind skips the entry without
                // touching the scoreboard; a hard hint additionally records
                // the exact ready cycle, so an entry past a hard hint goes
                // straight to port selection — the steady-state scan reads
                // nothing but the meta word (plus one rewake-bitmap word
                // for parked entries).
                let cyc = (meta >> META_HINT_SHIFT) & META_HINT_CAP;
                if meta & META_HINT_HARD == 0 && cyc == META_HINT_CAP {
                    // Parked: a producer has not scheduled its wakeup.
                    // Stay parked until `set_ready_at` flags this id.
                    let w = id as usize >> 6;
                    let bit = 1u64 << (id & 63);
                    match rw.get_mut(w) {
                        Some(word) if *word & bit != 0 => *word &= !bit,
                        _ => return false,
                    }
                } else if cyc > now {
                    next_scan = next_scan.min(cyc);
                    return false;
                }
                if meta & META_HINT_HARD == 0 {
                    // Fresh entry, woken parked entry, or expired saturated
                    // hint: derive the readiness bound from the scoreboard.
                    debug_assert_eq!(slab.state(id), UopState::InIq);
                    // Stores issue on their *address* operand alone (split
                    // store-address/store-data, as the P4-era decomposition
                    // the front-end models would produce): the data operand
                    // is awaited during execution, so younger loads are not
                    // serialized behind the store's data chain.
                    let s0 = (meta >> 8) & 0x3_ffff;
                    let s1 = if meta_class(meta) == OpClass::Store {
                        0
                    } else {
                        meta >> 26
                    };
                    let (b0, b1) = (slot_bound(s0), slot_bound(s1));
                    let raw = b0.max(b1);
                    if raw == u64::MAX {
                        // Park on the first still-pending source; when it
                        // wakes, re-derive (and possibly park on the other).
                        let slot = if b0 == u64::MAX { s0 } else { s1 };
                        let per_phys = &mut wt[(slot as usize >> 1) & 1];
                        let p = (slot >> 2) as usize & 0xffff;
                        if per_phys.len() <= p {
                            per_phys.resize_with(p + 1, Vec::new);
                        }
                        per_phys[p].push(id);
                        *meta_ref = (meta & META_LOW_MASK) | (META_HINT_CAP << META_HINT_SHIFT);
                        return false;
                    }
                    // `max(1)` keeps a computed hint distinguishable from
                    // the fresh-entry 0 (entries are first scanned the
                    // cycle after dispatch, so `now >= 1` whenever it
                    // matters); finite bounds past the hint width saturate
                    // one below the parked marker and are re-derived once
                    // `now` catches up. Readiness is decided on the
                    // unsaturated bound: once `now` passes the hint width,
                    // a saturated hint is never in the future.
                    let (hard, bound) = if raw >= META_HINT_CAP {
                        (0, META_HINT_CAP - 1)
                    } else {
                        (META_HINT_HARD, raw.max(1))
                    };
                    *meta_ref = (meta & META_LOW_MASK) | hard | (bound << META_HINT_SHIFT);
                    if raw > now {
                        next_scan = next_scan.min(raw);
                        return false;
                    }
                }
                let class = meta_class(meta);
                if let Some(port) = cluster_ports.claim(class) {
                    to_issue.push((id, port));
                    true
                } else {
                    // Ready but portless: retry next cycle.
                    next_scan = next_scan.min(now + 1);
                    cluster_failed[class.imbalance_kind().idx()] = true;
                    false
                }
            });
            self.iq_next_scan[c] = next_scan;
            for &(id, port) in &to_issue {
                self.start_execution(id);
                self.stats.issued[c] += 1;
                self.stats.issued_by_port[c][port] += 1;
                issued_any = true;
                if self.event_log.is_some() {
                    let t = self.slab.thread(id);
                    let seq = self.slab.seq(id);
                    if let Some(log) = self.event_log.as_mut() {
                        log.on_issue(t, seq, self.now);
                    }
                }
                self.check_event(|ck, sim| ck.on_issue(sim, id));
            }
        }
        self.issue_buf = to_issue;
        if issued_any {
            self.stats.cycles_with_issue += 1;
        }
        // Figure-5 accounting: for each kind that failed in some cluster,
        // did *another* cluster still have a compatible free port?
        for c in 0..num_clusters {
            for kind in ImbalanceKind::all() {
                if !failed[c][kind.idx()] {
                    continue;
                }
                let probe = match kind {
                    ImbalanceKind::Int => OpClass::Int,
                    ImbalanceKind::FpSimd => OpClass::FpSimd,
                    ImbalanceKind::Mem => OpClass::Load,
                };
                let elsewhere = (0..num_clusters).any(|o| o != c && ports[o].free_for(probe) > 0);
                self.stats.imbalance[kind.idx()][usize::from(elsewhere)] += 1;
            }
        }
    }

    /// Transition a uop from the issue queue into execution and schedule
    /// its completion / value broadcast.
    fn start_execution(&mut self, id: u32) {
        let now = self.now;
        let class = self.slab.class(id);
        let dest = self.slab.payload(id).dest;
        let lat = self.cfg.latency(class);
        let done_at = match class {
            OpClass::Copy => {
                // Read in the producer cluster, traverse a link, write in
                // the consumer cluster.
                let d = dest.expect("copy without destination");
                let arrive = self.links.book(now + lat);
                self.scoreboard
                    .set_ready_at(d.cluster, d.class, d.phys, arrive);
                arrive
            }
            OpClass::Load | OpClass::Store => {
                // AGU first; the memory side happens in
                // `complete_execution` once the address is known.
                now + lat
            }
            _ => {
                if let Some(d) = dest {
                    self.scoreboard
                        .set_ready_at(d.cluster, d.class, d.phys, now + lat);
                }
                now + lat
            }
        };
        self.slab.set_state(id, UopState::Executing);
        self.slab.set_exec_done_at(id, done_at);
        self.slab.set_addr_set(id, false);
        self.executing.push(id, done_at);
    }

    /// Completion stage: repeatedly pick the first executing uop (in list
    /// position order) whose time has come. Handlers may squash other
    /// in-flight uops (branch resolution, Flush+), which reshuffles the
    /// executing list — the scan restarts from the front whenever that
    /// happens (generation change). Otherwise a handler only touches its
    /// own position (removal or a deadline pushed past `now`), and since
    /// no handler ever *lowers* another entry's deadline, entries already
    /// scanned past cannot become due — so the scan position is kept,
    /// matching the historical rescan-from-start semantics at O(n) instead
    /// of O(n·completions). Every handler either removes the uop or pushes
    /// its deadline past `now`, so the loop terminates.
    pub(crate) fn complete_execution(&mut self) {
        let now = self.now;
        if self.executing.min_due() > now {
            return;
        }
        let mut pos = 0;
        while let Some(p) = self.executing.next_due_from(pos, now) {
            pos = p;
            let id = self.executing.id_at(pos);
            let generation = self.executing.generation();
            let class = self.slab.class(id);
            let addr_set = self.slab.addr_set(id);
            match class {
                OpClass::Load if !addr_set => {
                    // Address phase: stays in the executing list with a
                    // later deadline (retry, forward or cache latency).
                    self.load_address_phase(id, pos);
                }
                OpClass::Store if !addr_set => {
                    // Address half: resolve the address in the MOB so
                    // younger loads can disambiguate immediately.
                    let (mob, mem) = {
                        let p = self.slab.payload(id);
                        (p.mob, p.uop.mem)
                    };
                    let m = mem.expect("store without address");
                    let idx = mob.expect("store without MOB entry");
                    self.mob.set_addr(idx, m.addr, m.size);
                    self.slab.set_addr_set(id, true);
                    self.try_finish_store(id, pos);
                }
                OpClass::Store => {
                    // Data half: complete once the data operand is ready.
                    self.try_finish_store(id, pos);
                }
                _ => {
                    self.executing.swap_remove(pos);
                    self.finish_uop(id);
                }
            }
            if self.executing.generation() != generation {
                // A squash reshuffled the list; restart from the front.
                pos = 0;
            }
        }
        self.executing.recompute_min();
    }

    /// Store data half: mark the store's data forwardable and complete it
    /// once the data operand is ready; otherwise retry next cycle.
    fn try_finish_store(&mut self, id: u32, pos: usize) {
        let now = self.now;
        let cluster = self.slab.cluster(id);
        let (data_src, mob) = {
            let p = self.slab.payload(id);
            (p.srcs[1], p.mob)
        };
        let data_ready =
            data_src.is_none_or(|s| self.scoreboard.is_ready(cluster, s.class, s.phys, now));
        if data_ready {
            self.mob
                .set_store_data_ready(mob.expect("store without MOB entry"));
            self.executing.swap_remove(pos);
            self.finish_uop(id);
        } else {
            self.slab.set_exec_done_at(id, now + 1);
            self.executing.set_due(pos, now + 1);
        }
    }

    /// Load address phase: register the address with the MOB and decide
    /// between forwarding, waiting, or going to the cache. The uop always
    /// remains in the executing list with a deadline after `now`.
    fn load_address_phase(&mut self, id: u32, pos: usize) {
        let now = self.now;
        let (mob, mem, dest) = {
            let p = self.slab.payload(id);
            (p.mob, p.uop.mem, p.dest)
        };
        let thread = self.slab.thread(id);
        let wrong_path = self.slab.wrong_path(id);
        let seq = self.slab.seq(id);
        let m = mem.expect("load without address");
        let idx = mob.expect("load without MOB entry");
        self.mob.set_addr(idx, m.addr, m.size);
        match self.mob.check_load(idx) {
            LoadCheck::WaitOlderStore => {
                // Address stays registered; retry next cycle.
                self.slab.set_exec_done_at(id, now + 1);
                self.executing.set_due(pos, now + 1);
            }
            LoadCheck::Forward => {
                let ready = now + 1;
                if let Some(d) = dest {
                    self.scoreboard
                        .set_ready_at(d.cluster, d.class, d.phys, ready);
                }
                self.slab.set_addr_set(id, true);
                self.slab.set_exec_done_at(id, ready);
                self.executing.set_due(pos, ready);
            }
            LoadCheck::Cache => {
                let r = self.mem.load(now, m.addr);
                let ready = now + r.latency.max(1);
                if let Some(d) = dest {
                    self.scoreboard
                        .set_ready_at(d.cluster, d.class, d.phys, ready);
                }
                self.slab.set_addr_set(id, true);
                self.slab.set_exec_done_at(id, ready);
                // Mirror the deadline *before* any flush below reshuffles
                // the list (`pos` is only valid until then).
                self.executing.set_due(pos, ready);
                if r.l2_miss && !wrong_path {
                    self.note_l2_miss(id, thread, seq, now, ready);
                }
            }
        }
    }

    /// Record an outstanding L2 miss and let the scheme react (Flush+).
    fn note_l2_miss(&mut self, id: u32, t: ThreadId, load_seq: u64, started: u64, ready: u64) {
        self.stats.l2_misses[t.idx()] += 1;
        self.threads[t.idx()].l2_misses.push(super::L2Miss {
            uop: id,
            started,
            ready_at: ready,
        });
        self.slab.set_l2_outstanding(id, true);
        let view = self.sched_view();
        if self.iq_scheme.should_flush_on_l2_miss(t, &view) {
            self.flush_thread(t, load_seq, ready);
        }
    }

    /// Final completion bookkeeping common to all classes.
    fn finish_uop(&mut self, id: u32) {
        let now = self.now;
        let mispredicted = self.slab.mispredicted(id);
        let wrong_path = self.slab.wrong_path(id);
        let thread = self.slab.thread(id);
        if self.slab.l2_outstanding(id) {
            // The miss data arrived with this completion.
            let th = &mut self.threads[thread.idx()];
            th.l2_misses.retain(|mm| mm.uop != id);
            self.slab.set_l2_outstanding(id, false);
        }
        self.slab.set_state(id, UopState::Done);
        if self.event_log.is_some() {
            let seq = self.slab.seq(id);
            if let Some(log) = self.event_log.as_mut() {
                log.on_complete(thread, seq, now);
            }
        }
        self.check_event(|ck, sim| ck.on_complete(sim, id));
        if mispredicted && !wrong_path {
            self.resolve_mispredict(thread, id, now);
        }
    }

    /// A mispredicted branch resolved: squash its wrong path and redirect
    /// fetch after the misprediction-pipeline penalty (Table 1: 14 cycles).
    fn resolve_mispredict(&mut self, t: ThreadId, branch_id: u32, now: u64) {
        let seq = self.slab.seq(branch_id);
        self.squash_younger(t, seq);
        let th = &mut self.threads[t.idx()];
        // Everything in the fetch queue is wrong-path by construction.
        th.fetchq.clear();
        debug_assert_eq!(th.unresolved_mispredict, Some(branch_id));
        th.unresolved_mispredict = None;
        th.wrong_path_mode = false;
        th.fetch_resume_at = th.fetch_resume_at.max(now + self.cfg.mispredict_penalty);
        // The branch's code block will be refetched at a new position;
        // reset chunk tracking.
        th.cur_block = u32::MAX;
    }
}
