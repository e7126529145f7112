//! The HART index: Algorithms 1 (insertion), 3 (update), 4 (search),
//! 5 (deletion) and 7 (recovery), over the EPallocator substrate.

use crate::config::HartConfig;
use crate::dir::{Directory, RawBucketRead, Shard};
use crate::resolver::PmResolver;
use hart_art::RawRead;
use hart_epalloc::{
    leaf_read_key, leaf_read_pvalue, leaf_read_val_len, leaf_write_key, leaf_write_pvalue,
    persist_leaf_key, persist_leaf_pvalue, AllocStats, EPallocator, ObjClass, LEAF_SIZE,
    OBJS_PER_CHUNK,
};
use hart_kv::{
    Error, InlineKey, Key, MemoryStats, PersistentIndex, Result, Value, MAX_KEY_LEN, MAX_VALUE_LEN,
};
use hart_pm::{PmPtr, PmStatsSnapshot, PmemPool};
use std::ptr;
use std::sync::Arc;

/// A concurrent Hash-Assisted Radix Tree over an emulated PM pool.
///
/// See the crate docs for the architecture. Construction:
/// * [`Hart::create`] formats a fresh pool;
/// * [`Hart::recover`] rebuilds the DRAM hash directory and ART internal
///   nodes from the PM leaf chunks after a crash or restart (Algorithm 7).
pub struct Hart {
    alloc: EPallocator,
    cfg: HartConfig,
    dir: Directory,
    /// Observability recorder shared with the directory and the allocator;
    /// inert when `cfg.observability` is off (see `HartConfig`).
    obs: hart_obs::Recorder,
}

impl Hart {
    /// Create a HART over a freshly formatted pool.
    pub fn create(pool: Arc<PmemPool>, cfg: HartConfig) -> Result<Hart> {
        cfg.validate()?;
        let obs = hart_obs::Recorder::with_enabled(cfg.observability);
        let mut dir = Directory::new(
            cfg.initial_buckets,
            cfg.resize_threshold,
            cfg.optimistic_reads,
        );
        dir.set_recorder(obs.clone());
        Ok(Hart {
            alloc: EPallocator::create(pool).with_recorder(obs.clone()),
            cfg,
            dir,
            obs,
        })
    }

    /// Algorithm 7: open an existing pool, replay the allocator's
    /// micro-logs, then rebuild the hash directory and every ART by
    /// traversing the leaf memory chunks. "Recovering a HART is much faster
    /// than building a new HART from scratch because the leaf nodes and
    /// values are already on PM."
    pub fn recover(pool: Arc<PmemPool>, cfg: HartConfig) -> Result<Hart> {
        cfg.validate()?;
        let obs = hart_obs::Recorder::with_enabled(cfg.observability);
        let alloc = EPallocator::open(pool)?.with_recorder(obs.clone());
        let mut dir = Directory::new(
            cfg.initial_buckets,
            cfg.resize_threshold,
            cfg.optimistic_reads,
        );
        dir.set_recorder(obs.clone());
        let hart = Hart {
            alloc,
            cfg,
            dir,
            obs,
        };
        let mut leaves = Vec::new();
        hart.alloc.for_each_live(ObjClass::Leaf, |p| leaves.push(p));
        for leaf in leaves {
            // A live leaf whose value bit is unset is a deletion that
            // crashed between its two retire steps — `recover_one_leaf`
            // completes it instead of reattaching (see `remove`).
            hart.recover_one_leaf(leaf)?;
        }
        Ok(hart)
    }

    /// Parallel variant of [`Hart::recover`] — an extension beyond the
    /// paper (DESIGN.md §6). Leaf reattachment is embarrassingly parallel
    /// under the existing per-ART write locks. The live-leaf list is
    /// striped round-robin by index: leaves allocated together sit in the
    /// same chunk and tend to share hot shards, so contiguous partitioning
    /// would serialize workers on the same shard write locks while striping
    /// spreads each chunk's leaves across all of them. A shared abort flag
    /// stops every worker promptly once any leaf fails to reattach, instead
    /// of letting the survivors finish a full rebuild whose result is
    /// already doomed. Log replay and the stale-leaf scrub still run
    /// single-threaded inside `EPallocator::open` before any worker starts.
    pub fn recover_parallel(pool: Arc<PmemPool>, cfg: HartConfig, threads: usize) -> Result<Hart> {
        cfg.validate()?;
        let threads = threads.max(1);
        let obs = hart_obs::Recorder::with_enabled(cfg.observability);
        let alloc = EPallocator::open(pool)?.with_recorder(obs.clone());
        let mut dir = Directory::new(
            cfg.initial_buckets,
            cfg.resize_threshold,
            cfg.optimistic_reads,
        );
        dir.set_recorder(obs.clone());
        let hart = Hart {
            alloc,
            cfg,
            dir,
            obs,
        };
        let mut leaves = Vec::new();
        hart.alloc.for_each_live(ObjClass::Leaf, |p| leaves.push(p));
        // Keep the failure at the lowest live-leaf index, not whichever
        // worker wins the mutex race: leaf order is pool order, so the
        // reported corruption is deterministic and fsck-able regardless of
        // thread interleaving (each worker fails at most once, at the
        // earliest bad leaf of its own stripe).
        let first_err = parking_lot::Mutex::new(None::<(usize, Error)>);
        let abort = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for w in 0..threads {
                let hart = &hart;
                let leaves = &leaves;
                let first_err = &first_err;
                let abort = &abort;
                s.spawn(move || {
                    for (idx, &leaf) in leaves.iter().enumerate().skip(w).step_by(threads) {
                        if abort.load(std::sync::atomic::Ordering::Relaxed) {
                            return;
                        }
                        if let Err(e) = hart.recover_one_leaf(leaf) {
                            note_recovery_err(first_err, idx, e);
                            abort.store(true, std::sync::atomic::Ordering::Relaxed);
                            return;
                        }
                    }
                });
            }
        });
        if let Some((_, e)) = first_err.into_inner() {
            return Err(e);
        }
        Ok(hart)
    }

    /// Recovery step for one live leaf: complete a crashed deletion or
    /// reattach it into the DRAM structures.
    fn recover_one_leaf(&self, leaf: PmPtr) -> Result<()> {
        let pool = self.pool();
        let pv = leaf_read_pvalue(pool, leaf);
        let vclass = ObjClass::for_value_len(leaf_read_val_len(pool, leaf));
        if pv.is_null() || !self.alloc.is_live(pv, vclass) {
            self.alloc.retire_leaf(leaf);
            if !pv.is_null() {
                self.alloc.recycle_containing(pv, vclass);
            }
            self.alloc.recycle_containing(leaf, ObjClass::Leaf);
            return Ok(());
        }
        self.reattach_leaf(leaf)
    }

    /// `Insert2HART` (Algorithm 7 line 6): link an existing PM leaf back
    /// into the DRAM structures.
    fn reattach_leaf(&self, leaf: PmPtr) -> Result<()> {
        let full = leaf_read_key(self.pool(), leaf);
        if full.is_empty() {
            return Err(Error::Corrupted("live leaf with empty key"));
        }
        let (hk, ak) = split_inline(&full, self.cfg.hash_key_len);
        let shard = self.dir.get_or_insert(hk);
        let mut g = shard.write_observed(&self.obs);
        let r = self.resolver();
        if g.art.insert(&r, ak, leaf).is_some() {
            return Err(Error::Corrupted("duplicate live key in leaf chunks"));
        }
        Ok(())
    }

    #[inline]
    fn pool(&self) -> &PmemPool {
        self.alloc.pool()
    }

    #[inline]
    fn resolver(&self) -> PmResolver<'_> {
        PmResolver {
            pool: self.pool(),
            kh: self.cfg.hash_key_len,
        }
    }

    /// The pool this index lives in.
    pub fn pm_pool(&self) -> &Arc<PmemPool> {
        self.alloc.pool()
    }

    /// Allocator statistics (chunks / live objects per class).
    pub fn alloc_stats(&self) -> AllocStats {
        self.alloc.stats()
    }

    /// PM event counters.
    pub fn pm_stats(&self) -> PmStatsSnapshot {
        self.pool().stats().snapshot()
    }

    /// Number of ARTs currently linked in the hash directory — the paper's
    /// bound on concurrent writers.
    pub fn art_count(&self) -> usize {
        self.dir.shard_count()
    }

    /// Buckets currently in the hash directory. Starts at
    /// `HartConfig::initial_buckets` and doubles as the load factor crosses
    /// `HartConfig::resize_threshold` (DESIGN.md §Resizing).
    pub fn hash_bucket_count(&self) -> usize {
        self.dir.bucket_count()
    }

    /// Completed directory grow operations since creation/recovery.
    pub fn hash_resize_count(&self) -> u64 {
        self.dir.grow_count()
    }

    /// True while an old bucket array is still draining after a grow.
    pub fn hash_migration_in_progress(&self) -> bool {
        self.dir.migration_in_progress()
    }

    /// Configuration in effect.
    pub fn config(&self) -> HartConfig {
        self.cfg
    }

    /// Point-in-time export of the observability layer (DESIGN.md
    /// §Observability): exact op counts with sampled latency quantiles,
    /// optimistic-read health, shard lock contention, directory resizing,
    /// EBR backlog, allocator occupancy and the folded-in PM device-model
    /// counters. Zero-valued with `enabled: false` when the
    /// `HartConfig::observability` kill-switch is off.
    pub fn obs_snapshot(&self) -> hart_obs::ObsSnapshot {
        let mut s = hart_obs::ObsSnapshot::default();
        if !self.obs.is_enabled() {
            return s;
        }
        self.obs.fill_snapshot(&mut s);
        s.dir.migration_in_progress = self.hash_migration_in_progress();
        s.dir.buckets = self.hash_bucket_count() as u64;
        s.dir.shards = self.art_count() as u64;
        s.ebr.pending_garbage = hart_ebr::pending_garbage() as u64;
        let a = self.alloc.stats();
        let class = |c: ObjClass| {
            let i = c.idx();
            let cap = a.chunks[i] as u64 * OBJS_PER_CHUNK;
            hart_obs::AllocClassStats {
                live: a.live[i],
                chunks: a.chunks[i] as u64,
                slots_per_chunk: OBJS_PER_CHUNK,
                occupancy: if cap == 0 {
                    0.0
                } else {
                    a.live[i] as f64 / cap as f64
                },
            }
        };
        s.alloc.leaf = class(ObjClass::Leaf);
        s.alloc.value8 = class(ObjClass::Value8);
        s.alloc.value16 = class(ObjClass::Value16);
        let p = self.pm_stats();
        s.pm = hart_obs::PmSection {
            persist_calls: p.persist_calls,
            lines_flushed: p.lines_flushed,
            fences: p.fences,
            read_lines: p.read_lines,
            read_misses: p.read_misses,
            raw_allocs: p.raw_allocs,
            raw_frees: p.raw_frees,
            bytes_in_use: p.bytes_in_use,
            bytes_peak: p.bytes_peak,
            write_extra_ns: p.write_extra_ns,
            read_extra_ns: p.read_extra_ns,
            alloc_extra_ns: p.alloc_extra_ns,
        };
        // Pool-level group-commit truth; a hosting server overlays batch
        // occupancy and admission counters before exporting.
        s.group.enabled = self.cfg.group_commit;
        s.group.persists_deferred = p.persists_deferred;
        s.group.flushes = p.group_flushes;
        s
    }

    /// The underlying EPallocator — exposed so failure-injection tests and
    /// examples can stage torn operations at exact persist points.
    pub fn epallocator(&self) -> &EPallocator {
        &self.alloc
    }

    /// The PM leaf currently backing `key`, if any. Diagnostic/failure-
    /// injection helper; takes the shard's read lock.
    pub fn leaf_of(&self, key: &Key) -> Option<PmPtr> {
        let (hk, ak) = key.split(self.cfg.hash_key_len);
        let shard = self.dir.get(hk)?;
        let g = shard.read();
        if g.dead {
            return None;
        }
        g.art.search(&self.resolver(), ak).copied()
    }

    // ------------------------------------------------------------- updates

    /// Algorithm 3: logged out-of-place value update of an existing leaf.
    /// Caller holds the shard's write lock.
    fn update_leaf(&self, leaf: PmPtr, value: &Value) -> Result<()> {
        let pool = self.pool();
        let old_v = leaf_read_pvalue(pool, leaf);
        debug_assert!(!old_v.is_null(), "live leaf must own a value");
        let old_class = ObjClass::for_value_len(leaf_read_val_len(pool, leaf));
        let new_class = ObjClass::for_value_len(value.len());

        let ulog = self.alloc.acquire_ulog(); // line 1
        ulog.record_leaf(leaf); // line 2
        ulog.record_old(old_v); // line 3
        let new_v = match self.alloc.alloc(new_class) {
            // line 4
            Ok(p) => p,
            Err(e) => {
                ulog.finish();
                return Err(e);
            }
        };
        pool.write_bytes(new_v, value.as_slice()); // line 5
        pool.persist(new_v, value.len().max(1));
        ulog.record_new(new_v, value.len(), new_class, old_class); // line 6
        self.alloc.commit(new_v, new_class); // line 7
        leaf_write_pvalue(pool, leaf, new_v, value.len()); // line 8
        persist_leaf_pvalue(pool, leaf);
        self.alloc.retire(old_v, old_class); // line 9
        self.alloc.recycle_containing(old_v, old_class); // line 10
        ulog.finish(); // line 11
        Ok(())
    }

    /// Multi-get — the paper's range-query implementation for the ART-based
    /// trees ("simply implemented by calling a search function for each
    /// key", §IV-D).
    pub fn multi_get(&self, keys: &[Key]) -> Result<Vec<Option<Value>>> {
        keys.iter().map(|k| self.search(k)).collect()
    }

    /// Ordered full-key scan over `[start, end]` — an extension beyond the
    /// paper (see DESIGN.md): shards are visited in hash-key order, each
    /// ART in ART-key order, yielding globally sorted results.
    ///
    /// With `optimistic_reads` on, each shard is first scanned lock-free
    /// under its epoch counter; a shard whose writers keep invalidating the
    /// snapshot falls back to its read lock individually.
    pub fn ordered_range(&self, start: &Key, end: &Key) -> Result<Vec<(Key, Value)>> {
        self.ordered_scan(start, end, usize::MAX)
    }

    /// Ordered scan bounded at `limit` records — the YCSB-E primitive.
    ///
    /// The directory-level merge degenerates to ordered concatenation: the
    /// `k_h` prefix split gives shards non-overlapping key regions (the
    /// shard for hash key "AB" holds exactly the keys that start "AB", and
    /// "A" sorts before every "AB…"), so visiting shards in sorted hash-key
    /// order yields globally sorted output with no heap. The limit then
    /// becomes a shard-granular early stop: each visited shard is collected
    /// whole (shards are small by construction — one `k_h` region), and no
    /// further shard is touched once `limit` rows are in hand.
    ///
    /// Concurrency: same guarantees as [`Hart::ordered_range`] — every
    /// per-shard batch is seqlock-validated before being published, and the
    /// `Arc`s in the cached shard list keep every visited shard mapped
    /// across an online resize, so a racing grow/drain can cost retries
    /// but never torn, duplicated, or dropped keys.
    ///
    /// The shard list comes from the directory's generation-stamped scan
    /// cache ([`Directory::shards_sorted_cached`]): steady state pays no
    /// bucket walk, and a binary search on the sorted hash keys skips
    /// every shard whose region ends below `start`.
    pub fn ordered_scan(&self, start: &Key, end: &Key, limit: usize) -> Result<Vec<(Key, Value)>> {
        let mut out = Vec::new();
        if start > end || limit == 0 {
            return Ok(out);
        }
        let s = start.as_slice();
        let e = end.as_slice();
        let hi_buf = [0xFFu8; MAX_KEY_LEN];
        let kh = self.cfg.hash_key_len;
        let shards = self.dir.shards_sorted_cached();
        // First shard whose region can reach `start`. A full-length hash
        // key owns the prefix region [hk, hk·0xFF…]; a shorter one is a
        // whole key and owns the singleton {hk}. Both maxima are monotone
        // in hash-key order, so the predicate partitions the sorted list.
        let from = shards.partition_point(|(hk, _)| {
            let hk = hk.as_slice();
            if hk.len() < kh {
                hk < s
            } else {
                let m = hk.len().min(s.len());
                hk[..m] < s[..m]
            }
        });
        for (hk, shard) in &shards[from..] {
            if out.len() >= limit {
                break;
            }
            if hk.as_slice() > e {
                // The region minimum is the hash key itself, so this and
                // every later shard lie wholly past `end`.
                break;
            }
            let Some((ak_lo, ak_hi)) = shard_ak_bounds(hk.as_slice(), s, e, &hi_buf) else {
                continue;
            };
            if self.cfg.optimistic_reads {
                // SAFETY: the `Arc` in the cached list keeps `shard` alive
                // for the whole call; the callee re-validates every read
                // against the shard seqlock.
                unsafe {
                    self.range_shard_optimistic(Arc::as_ptr(shard), s, e, ak_lo, ak_hi, &mut out)?
                };
            } else {
                self.range_shard_locked(shard, s, e, ak_lo, ak_hi, &mut out)?;
            }
        }
        out.truncate(limit);
        Ok(out)
    }

    /// Read-locked range collection over one shard.
    fn range_shard_locked(
        &self,
        shard: &Shard,
        s: &[u8],
        e: &[u8],
        ak_lo: &[u8],
        ak_hi: &[u8],
        out: &mut Vec<(Key, Value)>,
    ) -> Result<()> {
        let r = self.resolver();
        let g = shard.read();
        if g.dead {
            return Ok(());
        }
        let mut leaves = Vec::new();
        g.art
            .for_each_in_range(&r, ak_lo, ak_hi, |&leaf| leaves.push(leaf));
        for leaf in leaves {
            let (k, v) = self.load_record(leaf)?;
            let ks = k.as_slice();
            if ks >= s && ks <= e {
                out.push((k, v));
            }
        }
        Ok(())
    }

    /// Optimistic range collection over one shard: snapshot the version,
    /// traverse raw, load every record, then validate once more before
    /// publishing the rows. Falls back to [`Hart::range_shard_locked`] when
    /// the retry budget runs out.
    ///
    /// # Safety
    /// The caller must keep `shard` alive for the whole call (the scan
    /// path holds the `Arc` from the cached shard list).
    unsafe fn range_shard_optimistic(
        &self,
        shard: *const Shard,
        s: &[u8],
        e: &[u8],
        ak_lo: &[u8],
        ak_hi: &[u8],
        out: &mut Vec<(Key, Value)>,
    ) -> Result<()> {
        let shard = &*shard;
        let r = self.resolver();
        // Scratch buffers live outside the retry loop: an optimistic read
        // section must not allocate (pmlint R8), and reusing the capacity
        // across attempts keeps a contended retry from churning the heap.
        let mut leaves = Vec::new();
        let mut rows: Vec<(Key, Value)> = Vec::new();
        'attempt: for attempt in 0..self.cfg.optimistic_retry_limit {
            if attempt > 0 {
                self.obs.add(hart_obs::Event::OptimisticRetry, 1);
            }
            leaves.clear();
            rows.clear();
            let v0 = shard.version();
            if v0 % 2 == 1 {
                continue; // write section open right now
            }
            let validate = || shard.validate(v0);
            let inner = shard.inner_ptr();
            let dead = ptr::read_volatile(ptr::addr_of!((*inner).dead));
            if !validate() {
                continue;
            }
            if dead {
                return Ok(()); // unlinked shards are empty by invariant
            }
            let art = ptr::addr_of!((*inner).art);
            if !hart_art::range_collect_raw(art, &r, ak_lo, ak_hi, &validate, &mut leaves) {
                continue;
            }
            // The leaf set is a committed snapshot; now copy the records
            // out of PM and re-validate so a concurrent update/remove that
            // recycled a value chunk mid-copy discards the whole batch.
            rows.reserve(leaves.len());
            for &leaf in &leaves {
                match self.load_record(leaf) {
                    Ok((k, v)) => {
                        let ks = k.as_slice();
                        if ks >= s && ks <= e {
                            rows.push((k, v));
                        }
                    }
                    Err(err) => {
                        if validate() {
                            return Err(err); // stable snapshot: real corruption
                        }
                        continue 'attempt;
                    }
                }
            }
            if !validate() {
                continue;
            }
            out.append(&mut rows);
            return Ok(());
        }
        self.obs.add(hart_obs::Event::LockFallback, 1);
        self.range_shard_locked(shard, s, e, ak_lo, ak_hi, out)
    }

    fn load_record(&self, leaf: PmPtr) -> Result<(Key, Value)> {
        let pool = self.pool();
        let full = leaf_read_key(pool, leaf);
        let key = Key::new(full.as_slice()).map_err(|_| Error::Corrupted("bad key in leaf"))?;
        let v = self.load_value(leaf)?;
        Ok((key, v))
    }

    /// Algorithm 4 as published: hash probe + ART search under the shard's
    /// read lock.
    fn search_locked(&self, hk: &[u8], ak: &[u8]) -> Result<Option<Value>> {
        let Some(shard) = self.dir.get(hk) else {
            return Ok(None); // lines 3–4
        };
        let g = shard.read();
        if g.dead {
            // Shard was concurrently emptied and unlinked: the key is gone.
            return Ok(None);
        }
        let r = self.resolver();
        let Some(&leaf) = g.art.search(&r, ak) else {
            return Ok(None); // lines 6–7
        };
        // Lines 9–12: validate the leaf bit, then return the value.
        if !self.alloc.is_live(leaf, ObjClass::Leaf) {
            return Ok(None);
        }
        Ok(Some(self.load_value(leaf)?))
    }

    /// Version-validated lock-free search (DESIGN.md §Concurrency).
    ///
    /// Returns `None` when the caller must fall back to
    /// [`Hart::search_locked`]: either no EBR reader slot was free, or
    /// `optimistic_retry_limit` attempts were invalidated by writers.
    /// Every returned `Some(_)` is a *validated* result: the shard version
    /// was even and unchanged across everything the answer depends on, so
    /// the result equals what the locked path would have produced at that
    /// instant.
    /// `retries` is bumped once per re-attempt after a failed validation
    /// (observability; the caller feeds it to the recorder).
    fn search_optimistic(
        &self,
        hk: &[u8],
        ak: &[u8],
        retries: &mut u64,
    ) -> Option<Result<Option<Value>>> {
        let _pin = hart_ebr::pin()?;
        let r = self.resolver();
        for attempt in 0..self.cfg.optimistic_retry_limit {
            if attempt > 0 {
                *retries += 1;
            }
            // Lock-free hash probe (Algorithm 4 line 2).
            // SAFETY: `_pin` (held for the whole function) keeps the probed
            // directory tables and any shard pointer they return alive.
            let shard = match unsafe { self.dir.get_raw(hk) } {
                // SAFETY: same pin — the shard box is not freed while
                // pinned, and `&*p` only outlives this loop iteration.
                RawBucketRead::Found(p) => unsafe { &*p },
                RawBucketRead::Absent => return Some(Ok(None)),
                RawBucketRead::Retry => continue,
            };
            let v0 = shard.version();
            if v0 % 2 == 1 {
                continue; // a write section is open right now
            }
            let validate = || shard.validate(v0);
            let inner = shard.inner_ptr();
            // The dead flag only flips inside a write section, so a
            // validated observation is committed state. A committed `dead`
            // means the shard was empty when unlinked — reporting the key
            // absent is linearizable at that unlink.
            // SAFETY: `inner` points into the pinned shard; the volatile
            // read tolerates concurrent writes, and `validate()` below
            // rejects any torn observation.
            let dead = unsafe { ptr::read_volatile(ptr::addr_of!((*inner).dead)) };
            if !validate() {
                continue;
            }
            if dead {
                return Some(Ok(None));
            }
            // Raw ART descent (Algorithm 4 lines 6–7), copy-then-validate
            // at every step.
            // SAFETY: `inner` stays valid under the pin; `addr_of!` takes
            // the field address without creating a reference.
            let art = unsafe { ptr::addr_of!((*inner).art) };
            // SAFETY: raw descent copies then validates every node against
            // the shard seqlock, so freed-and-reused memory is never
            // trusted; the pin keeps the memory itself mapped.
            let leaf = match unsafe { hart_art::search_raw(art, &r, ak, &validate) } {
                RawRead::Found(leaf) => leaf,
                RawRead::NotFound => return Some(Ok(None)),
                RawRead::Retry => continue,
            };
            // Lines 9–12: leaf bit, then the value bytes. Both can change
            // only under this shard's write section, so one more validation
            // after the copy makes the whole read atomic.
            if !self.alloc.is_live(leaf, ObjClass::Leaf) {
                if validate() {
                    return Some(Ok(None));
                }
                continue;
            }
            match self.load_value(leaf) {
                Ok(v) => {
                    if validate() {
                        return Some(Ok(Some(v)));
                    }
                    // A writer may have retired and recycled the value
                    // chunk mid-copy; the bytes are untrusted. Retry.
                }
                Err(e) => {
                    if validate() {
                        return Some(Err(e)); // stable snapshot: real corruption
                    }
                }
            }
        }
        None // retry budget exhausted — take the read lock
    }

    fn load_value(&self, leaf: PmPtr) -> Result<Value> {
        let pool = self.pool();
        let pv = leaf_read_pvalue(pool, leaf);
        if pv.is_null() {
            return Err(Error::Corrupted("live leaf without value"));
        }
        let len = leaf_read_val_len(pool, leaf).min(MAX_VALUE_LEN);
        let mut buf = [0u8; MAX_VALUE_LEN];
        pool.read_bytes(pv, &mut buf[..len.max(1)]);
        Ok(Value::new(&buf[..len]).expect("len bounded"))
    }

    /// Structural self-check for tests: every leaf reachable from the DRAM
    /// structures has its persistent bit set, every committed leaf is
    /// reachable, and per-ART invariants hold.
    pub fn check_consistency(&self) -> std::result::Result<(), String> {
        let r = self.resolver();
        let mut reachable = self.dir.all_leaves(&r);
        reachable.sort_unstable();
        let n = reachable.len();
        reachable.dedup();
        if reachable.len() != n {
            return Err("duplicate leaf pointer in DRAM structures".into());
        }
        for &leaf in &reachable {
            if !self.alloc.is_live(leaf, ObjClass::Leaf) {
                return Err(format!("reachable leaf {leaf:?} has no persistent bit"));
            }
            let pv = leaf_read_pvalue(self.pool(), leaf);
            if pv.is_null() {
                return Err(format!("reachable leaf {leaf:?} has null p_value"));
            }
            let vclass = ObjClass::for_value_len(leaf_read_val_len(self.pool(), leaf));
            if !self.alloc.is_live(pv, vclass) {
                return Err(format!("value of leaf {leaf:?} has no persistent bit"));
            }
        }
        let mut committed = Vec::new();
        self.alloc
            .for_each_live(ObjClass::Leaf, |p| committed.push(p));
        committed.sort_unstable();
        if committed != reachable {
            return Err(format!(
                "committed leaves ({}) != reachable leaves ({})",
                committed.len(),
                reachable.len()
            ));
        }
        for (_, shard) in self.dir.shards_sorted() {
            let g = shard.read();
            g.art.check_invariants(&r)?;
        }
        Ok(())
    }

    // ------------------------------------------------- operation bodies
    //
    // The `PersistentIndex` methods below are thin timed wrappers (one
    // sampled clock pair per `hart_obs::SAMPLE_EVERY` calls) around these.

    /// Algorithm 1.
    fn insert_impl(&self, key: &Key, value: &Value) -> Result<()> {
        let (hk, ak) = key.split(self.cfg.hash_key_len); // line 1
        loop {
            let shard = self.dir.get_or_insert(hk); // lines 2–5
            let mut g = shard.write_observed(&self.obs);
            if g.dead {
                continue; // raced shard removal; retry against a live shard
            }
            let r = self.resolver();
            let existing = g.art.search(&r, ak).copied(); // line 6
            if let Some(leaf) = existing {
                return self.update_leaf(leaf, value); // lines 7–8
            }
            // Lines 10–11: allocate leaf + value space.
            let pool = self.pool();
            let leaf = self.alloc.alloc(ObjClass::Leaf)?;
            let vclass = ObjClass::for_value_len(value.len());
            let vptr = match self.alloc.alloc(vclass) {
                Ok(p) => p,
                Err(e) => {
                    self.alloc.abort(leaf, ObjClass::Leaf);
                    return Err(e);
                }
            };
            // Line 12: value = V; persistent(value).
            pool.write_bytes(vptr, value.as_slice());
            pool.persist(vptr, value.len().max(1));
            // Line 13: leaf.p_value = &value; persistent(leaf.p_value).
            leaf_write_pvalue(pool, leaf, vptr, value.len());
            persist_leaf_pvalue(pool, leaf);
            // Line 14: set and persist the value bit.
            self.alloc.commit(vptr, vclass);
            // Lines 15–16: key and key length.
            leaf_write_key(pool, leaf, key);
            persist_leaf_key(pool, leaf);
            // Line 17: Insert2Tree — DRAM only, no persistence needed.
            let replaced = g.art.insert(&r, ak, leaf);
            debug_assert!(replaced.is_none(), "searched above");
            if self.cfg.persist_internal_nodes {
                // Ablation: as if the touched inner node (and an eventual
                // expansion) had to be flushed, WOART-style.
                pool.charge_synthetic_persist(2);
            }
            // Line 18: set and persist the leaf bit. Publish point: the
            // leaf image and the value it points at must both be durable
            // first (pm-check asserts this; no-op otherwise).
            pool.check_durable(leaf, LEAF_SIZE);
            pool.check_durable(vptr, value.len().max(1));
            self.alloc.commit(leaf, ObjClass::Leaf);
            return Ok(());
        }
    }

    /// Algorithm 4, with the lock-free fast path of DESIGN.md
    /// §Concurrency in front when `optimistic_reads` is on.
    fn search_impl(&self, key: &Key) -> Result<Option<Value>> {
        let (hk, ak) = key.split(self.cfg.hash_key_len); // line 1
        if self.cfg.optimistic_reads {
            let mut retries = 0u64;
            let res = self.search_optimistic(hk, ak, &mut retries);
            self.obs.add(hart_obs::Event::OptimisticRetry, retries);
            if let Some(res) = res {
                return res;
            }
            self.obs.add(hart_obs::Event::LockFallback, 1);
        }
        self.search_locked(hk, ak)
    }

    /// Algorithm 3 entry point.
    fn update_impl(&self, key: &Key, value: &Value) -> Result<bool> {
        let (hk, ak) = key.split(self.cfg.hash_key_len);
        let Some(shard) = self.dir.get(hk) else {
            return Ok(false);
        };
        let g = shard.write_observed(&self.obs);
        if g.dead {
            return Ok(false);
        }
        let r = self.resolver();
        let Some(&leaf) = g.art.search(&r, ak) else {
            return Ok(false);
        };
        self.update_leaf(leaf, value)?;
        Ok(true)
    }

    /// Algorithm 5.
    fn remove_impl(&self, key: &Key) -> Result<bool> {
        let (hk, ak) = key.split(self.cfg.hash_key_len); // line 1
        let Some(shard) = self.dir.get(hk) else {
            return Ok(false); // lines 3–4
        };
        let mut g = shard.write_observed(&self.obs);
        if g.dead {
            return Ok(false);
        }
        let r = self.resolver();
        // Lines 5–9: locate and unlink from the (DRAM) tree.
        let Some(leaf) = g.art.remove(&r, ak) else {
            return Ok(false);
        };
        let pool = self.pool();
        if self.cfg.persist_internal_nodes {
            // Ablation: inner-node shrink/collapse would need flushing too.
            pool.charge_synthetic_persist(2);
        }
        let pv = leaf_read_pvalue(pool, leaf); // line 10
        let vclass = ObjClass::for_value_len(leaf_read_val_len(pool, leaf));
        // Lines 11–12, reordered (see crate docs): the value bit is reset
        // first, then the leaf is retired with its p_value nulled under
        // the leaf-class lock so the slot can never be reallocated while
        // still pointing at the value. A crash in between leaves a live
        // leaf with an unset value bit, which recovery completes as a
        // deletion.
        self.alloc.retire(pv, vclass);
        self.alloc.retire_leaf(leaf);
        // Lines 13–14: try to reclaim both chunks.
        self.alloc.recycle_containing(pv, vclass);
        self.alloc.recycle_containing(leaf, ObjClass::Leaf);
        // Lines 15–16: free the ART if it became empty.
        let now_empty = g.art.is_empty();
        drop(g);
        if now_empty {
            self.dir.remove_if_empty(hk);
        }
        Ok(true)
    }
}

/// Record a parallel-recovery failure, keeping the one at the lowest
/// live-leaf index across all workers. Pool walk order is stable, so of
/// the failures the racing workers *observe*, the earliest-in-pool one is
/// reported no matter which worker reaches the mutex first.
fn note_recovery_err(slot: &parking_lot::Mutex<Option<(usize, Error)>>, idx: usize, e: Error) {
    let mut s = slot.lock();
    if s.as_ref().is_none_or(|(prev, _)| idx < *prev) {
        *s = Some((idx, e));
    }
}

/// Split an inline key into hash key / ART key slices.
#[inline]
fn split_inline(full: &InlineKey, kh: usize) -> (&[u8], &[u8]) {
    let s = full.as_slice();
    let cut = kh.min(s.len());
    (&s[..cut], &s[cut..])
}

/// Translate full-key range bounds `[s, e]` into ART-key bounds for the
/// shard with hash key `hks`, or `None` if the shard's key region misses
/// the range entirely.
#[inline]
fn shard_ak_bounds<'a>(
    hks: &[u8],
    s: &'a [u8],
    e: &'a [u8],
    hi_buf: &'a [u8; MAX_KEY_LEN],
) -> Option<(&'a [u8], &'a [u8])> {
    // Prune shards whose key region [hks, hks⋅0xff…] misses [s, e].
    if region_before(hks, s) || region_after(hks, e) {
        return None;
    }
    let ak_lo: &[u8] = if s.len() > hks.len() && s.starts_with(hks) {
        &s[hks.len()..]
    } else {
        b""
    };
    let ak_hi: &[u8] = if e.len() > hks.len() && e.starts_with(hks) {
        &e[hks.len()..]
    } else {
        hi_buf
    };
    Some((ak_lo, ak_hi))
}

/// Every key with prefix `region` is < `start`.
#[inline]
fn region_before(region: &[u8], start: &[u8]) -> bool {
    let m = region.len().min(start.len());
    region[..m] < start[..m]
}

/// Every key with prefix `region` is > `end`.
#[inline]
fn region_after(region: &[u8], end: &[u8]) -> bool {
    let m = region.len().min(end.len());
    if region[..m] != end[..m] {
        region[..m] > end[..m]
    } else {
        region.len() > end.len()
    }
}

impl hart_obs::Observable for Hart {
    fn obs_snapshot(&self) -> hart_obs::ObsSnapshot {
        Hart::obs_snapshot(self)
    }
}

impl PersistentIndex for Hart {
    /// Algorithm 1.
    fn insert(&self, key: &Key, value: &Value) -> Result<()> {
        let t0 = self.obs.op_timer();
        let res = self.insert_impl(key, value);
        self.obs.record_op(hart_obs::Op::Insert, t0);
        res
    }

    /// Algorithm 4, with the lock-free fast path of DESIGN.md
    /// §Concurrency in front when `optimistic_reads` is on.
    fn search(&self, key: &Key) -> Result<Option<Value>> {
        let t0 = self.obs.op_timer();
        let res = self.search_impl(key);
        self.obs.record_op(hart_obs::Op::Search, t0);
        res
    }

    fn update(&self, key: &Key, value: &Value) -> Result<bool> {
        let t0 = self.obs.op_timer();
        let res = self.update_impl(key, value);
        self.obs.record_op(hart_obs::Op::Update, t0);
        res
    }

    /// Algorithm 5.
    fn remove(&self, key: &Key) -> Result<bool> {
        let t0 = self.obs.op_timer();
        let res = self.remove_impl(key);
        self.obs.record_op(hart_obs::Op::Remove, t0);
        res
    }

    fn len(&self) -> usize {
        self.alloc.live_count(ObjClass::Leaf) as usize
    }

    fn memory_stats(&self) -> MemoryStats {
        MemoryStats {
            dram_bytes: self.dir.memory_bytes() + std::mem::size_of::<Self>(),
            pm_bytes: self.pool().stats().snapshot().bytes_in_use as usize,
        }
    }

    fn range(&self, start: &Key, end: &Key) -> Result<Vec<(Key, Value)>> {
        self.ordered_range(start, end)
    }

    fn scan(&self, start: &Key, end: &Key, limit: usize) -> Result<Vec<(Key, Value)>> {
        let t0 = self.obs.op_timer();
        let res = self.ordered_scan(start, end, limit);
        match &res {
            Ok(rows) => {
                let truncated = limit > 0 && rows.len() == limit;
                self.obs.record_scan(rows.len() as u64, truncated, t0);
            }
            Err(_) => self.obs.record_scan(0, false, t0),
        }
        res
    }

    fn name(&self) -> &'static str {
        "HART"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hart_pm::PoolConfig;

    fn fresh() -> Hart {
        Hart::create(
            Arc::new(PmemPool::new(PoolConfig::test_small())),
            HartConfig::default(),
        )
        .unwrap()
    }

    fn crashy() -> Hart {
        Hart::create(
            Arc::new(PmemPool::new(PoolConfig::test_crash())),
            HartConfig::default(),
        )
        .unwrap()
    }

    fn k(s: &str) -> Key {
        Key::from_str(s).unwrap()
    }

    fn v(n: u64) -> Value {
        Value::from_u64(n)
    }

    #[test]
    fn insert_search_roundtrip() {
        let h = fresh();
        h.insert(&k("AABF"), &v(42)).unwrap();
        assert_eq!(h.search(&k("AABF")).unwrap().unwrap().as_u64(), 42);
        assert_eq!(h.search(&k("AABX")).unwrap(), None);
        assert_eq!(h.search(&k("ZZ")).unwrap(), None);
        assert_eq!(h.len(), 1);
        h.check_consistency().unwrap();
    }

    #[test]
    fn insert_is_upsert() {
        let h = fresh();
        h.insert(&k("key"), &v(1)).unwrap();
        h.insert(&k("key"), &v(2)).unwrap();
        assert_eq!(h.len(), 1);
        assert_eq!(h.search(&k("key")).unwrap().unwrap().as_u64(), 2);
        h.check_consistency().unwrap();
    }

    #[test]
    fn short_keys_below_hash_prefix() {
        let h = fresh();
        h.insert(&k("A"), &v(1)).unwrap();
        h.insert(&k("AB"), &v(2)).unwrap();
        h.insert(&k("ABC"), &v(3)).unwrap();
        assert_eq!(h.search(&k("A")).unwrap().unwrap().as_u64(), 1);
        assert_eq!(h.search(&k("AB")).unwrap().unwrap().as_u64(), 2);
        assert_eq!(h.search(&k("ABC")).unwrap().unwrap().as_u64(), 3);
        assert_eq!(h.len(), 3);
        h.check_consistency().unwrap();
    }

    #[test]
    fn update_existing_and_missing() {
        let h = fresh();
        h.insert(&k("alpha"), &v(1)).unwrap();
        assert!(h.update(&k("alpha"), &v(9)).unwrap());
        assert_eq!(h.search(&k("alpha")).unwrap().unwrap().as_u64(), 9);
        assert!(!h.update(&k("beta"), &v(5)).unwrap());
        assert_eq!(h.search(&k("beta")).unwrap(), None);
        h.check_consistency().unwrap();
    }

    #[test]
    fn update_switches_value_class() {
        let h = fresh();
        h.insert(&k("key"), &Value::new(b"short").unwrap()).unwrap();
        assert!(h
            .update(&k("key"), &Value::new(b"a-sixteen-byte-v").unwrap())
            .unwrap());
        assert_eq!(
            h.search(&k("key")).unwrap().unwrap().as_slice(),
            b"a-sixteen-byte-v"
        );
        assert!(h.update(&k("key"), &Value::new(b"tiny").unwrap()).unwrap());
        assert_eq!(h.search(&k("key")).unwrap().unwrap().as_slice(), b"tiny");
        h.check_consistency().unwrap();
        let s = h.alloc_stats();
        assert_eq!(
            s.live,
            [1, 1, 0],
            "one leaf, one 8-byte value, no 16-byte leftovers"
        );
    }

    #[test]
    fn remove_roundtrip() {
        let h = fresh();
        h.insert(&k("AAx"), &v(1)).unwrap();
        h.insert(&k("AAy"), &v(2)).unwrap();
        assert!(h.remove(&k("AAx")).unwrap());
        assert!(!h.remove(&k("AAx")).unwrap());
        assert_eq!(h.search(&k("AAx")).unwrap(), None);
        assert_eq!(h.search(&k("AAy")).unwrap().unwrap().as_u64(), 2);
        assert_eq!(h.len(), 1);
        h.check_consistency().unwrap();
    }

    #[test]
    fn empty_art_is_freed() {
        let h = fresh();
        h.insert(&k("QQonly"), &v(7)).unwrap();
        assert_eq!(h.art_count(), 1);
        assert!(h.remove(&k("QQonly")).unwrap());
        assert_eq!(h.art_count(), 0, "Algorithm 5 lines 15-16: empty ART freed");
        // Reinsertion after removal works.
        h.insert(&k("QQonly"), &v(8)).unwrap();
        assert_eq!(h.search(&k("QQonly")).unwrap().unwrap().as_u64(), 8);
    }

    #[test]
    fn removing_everything_reclaims_pm() {
        let h = fresh();
        for i in 0..500 {
            h.insert(&k(&format!("K{i:04}")), &v(i)).unwrap();
        }
        let mid = h.alloc_stats();
        assert!(mid.chunks[0] > 0);
        for i in 0..500 {
            assert!(h.remove(&k(&format!("K{i:04}"))).unwrap());
        }
        let end = h.alloc_stats();
        assert_eq!(end.live, [0, 0, 0]);
        assert_eq!(end.chunks, [0, 0, 0], "empty chunks must all be recycled");
        assert_eq!(h.len(), 0);
    }

    #[test]
    fn thousands_of_records() {
        let h = fresh();
        for i in 0..5000u64 {
            h.insert(&Key::from_u64_base62(i * 37 % 5000, 8), &v(i))
                .unwrap();
        }
        assert_eq!(h.len(), 5000);
        h.check_consistency().unwrap();
        for i in 0..5000u64 {
            let key = Key::from_u64_base62(i, 8);
            assert!(h.search(&key).unwrap().is_some(), "missing {key}");
        }
    }

    #[test]
    fn multi_get_matches_search() {
        let h = fresh();
        h.insert(&k("AAa"), &v(1)).unwrap();
        h.insert(&k("AAb"), &v(2)).unwrap();
        let keys = [k("AAa"), k("zzz"), k("AAb")];
        let got = h.multi_get(&keys).unwrap();
        assert_eq!(got[0].unwrap().as_u64(), 1);
        assert_eq!(got[1], None);
        assert_eq!(got[2].unwrap().as_u64(), 2);
    }

    #[test]
    fn ordered_range_spans_shards() {
        let h = fresh();
        // Keys across multiple hash prefixes.
        for key in ["AAa", "AAb", "ABa", "ACz", "BAa", "Az"] {
            h.insert(&k(key), &v(key.len() as u64)).unwrap();
        }
        let got: Vec<String> = h
            .range(&k("AAb"), &k("B"))
            .unwrap()
            .into_iter()
            .map(|(key, _)| key.to_string())
            .collect();
        assert_eq!(got, vec!["AAb", "ABa", "ACz", "Az"]);
        // Full range, ordered.
        let all: Vec<String> = h
            .range(&k("A"), &k("zzzz"))
            .unwrap()
            .into_iter()
            .map(|(key, _)| key.to_string())
            .collect();
        assert_eq!(all, vec!["AAa", "AAb", "ABa", "ACz", "Az", "BAa"]);
    }

    #[test]
    fn recover_rebuilds_everything() {
        let pool = Arc::new(PmemPool::new(PoolConfig::test_small()));
        let h = Hart::create(Arc::clone(&pool), HartConfig::default()).unwrap();
        for i in 0..1000u64 {
            h.insert(&Key::from_u64_base62(i, 6), &v(i)).unwrap();
        }
        h.remove(&Key::from_u64_base62(500, 6)).unwrap();
        let arts_before = h.art_count();
        drop(h);

        let r = Hart::recover(pool, HartConfig::default()).unwrap();
        assert_eq!(r.len(), 999);
        assert_eq!(r.art_count(), arts_before);
        r.check_consistency().unwrap();
        for i in 0..1000u64 {
            let got = r.search(&Key::from_u64_base62(i, 6)).unwrap();
            if i == 500 {
                assert_eq!(got, None);
            } else {
                assert_eq!(got.unwrap().as_u64(), i);
            }
        }
    }

    #[test]
    fn crash_before_leaf_bit_loses_only_that_insert() {
        let h = crashy();
        let pool = Arc::clone(h.pm_pool());
        h.insert(&k("AAkeep"), &v(1)).unwrap();
        // Start an insert and crash it between value commit and leaf commit
        // by replicating Algorithm 1 up to line 16 manually.
        let leaf = h.alloc.alloc(ObjClass::Leaf).unwrap();
        let vptr = h.alloc.alloc(ObjClass::Value8).unwrap();
        pool.write(vptr, &99u64);
        pool.persist_val::<u64>(vptr);
        leaf_write_pvalue(&pool, leaf, vptr, 8);
        persist_leaf_pvalue(&pool, leaf);
        h.alloc.commit(vptr, ObjClass::Value8);
        leaf_write_key(&pool, leaf, &k("AAlost"));
        persist_leaf_key(&pool, leaf);
        // crash before line 18 (leaf bit)
        drop(h);
        pool.simulate_crash();

        let r = Hart::recover(Arc::clone(&pool), HartConfig::default()).unwrap();
        assert_eq!(r.len(), 1, "only the committed record survives");
        assert_eq!(r.search(&k("AAkeep")).unwrap().unwrap().as_u64(), 1);
        assert_eq!(r.search(&k("AAlost")).unwrap(), None);
        // No persistent leak: the orphaned value was scrubbed.
        let s = r.alloc_stats();
        assert_eq!(s.live, [1, 1, 0]);
        r.check_consistency().unwrap();
    }

    #[test]
    fn crash_during_update_recovers_consistently() {
        // Crash right after the update log records all three pointers and
        // the new value bit is set, but before the leaf pointer swings:
        // recovery must resume from line 7 and complete the update.
        let h = crashy();
        let pool = Arc::clone(h.pm_pool());
        h.insert(&k("AAkey"), &v(1)).unwrap();
        let key = k("AAkey");
        let (hk, ak) = key.split(2);
        let shard = h.dir.get(hk).unwrap();
        let leaf = *shard.read().art.search(&h.resolver(), ak).unwrap();
        let old_v = leaf_read_pvalue(&pool, leaf);

        let ulog = h.alloc.acquire_ulog();
        ulog.record_leaf(leaf);
        ulog.record_old(old_v);
        let new_v = h.alloc.alloc(ObjClass::Value8).unwrap();
        pool.write(new_v, &2u64);
        pool.persist_val::<u64>(new_v);
        ulog.record_new(new_v, 8, ObjClass::Value8, ObjClass::Value8);
        h.alloc.commit(new_v, ObjClass::Value8);
        std::mem::forget(ulog); // leave the log record in PM
        drop(h);
        pool.simulate_crash();

        let r = Hart::recover(Arc::clone(&pool), HartConfig::default()).unwrap();
        assert_eq!(
            r.search(&k("AAkey")).unwrap().unwrap().as_u64(),
            2,
            "recovery must roll the update forward"
        );
        let s = r.alloc_stats();
        assert_eq!(s.live, [1, 1, 0], "old value must be reclaimed");
        r.check_consistency().unwrap();
    }

    #[test]
    fn crash_early_update_rolls_back() {
        // Crash after recording PLeaf/POldV but before PNewV: the old value
        // stays current (paper: "the failure recovery process simply resets
        // the update log").
        let h = crashy();
        let pool = Arc::clone(h.pm_pool());
        h.insert(&k("AAkey"), &v(7)).unwrap();
        let key = k("AAkey");
        let (hk, ak) = key.split(2);
        let shard = h.dir.get(hk).unwrap();
        let leaf = *shard.read().art.search(&h.resolver(), ak).unwrap();
        let old_v = leaf_read_pvalue(&pool, leaf);
        let ulog = h.alloc.acquire_ulog();
        ulog.record_leaf(leaf);
        ulog.record_old(old_v);
        std::mem::forget(ulog);
        drop(h);
        pool.simulate_crash();

        let r = Hart::recover(pool, HartConfig::default()).unwrap();
        assert_eq!(r.search(&k("AAkey")).unwrap().unwrap().as_u64(), 7);
        r.check_consistency().unwrap();
    }

    #[test]
    fn concurrent_writers_on_distinct_arts() {
        let h = Arc::new(fresh());
        let mut handles = Vec::new();
        for t in 0..8u8 {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                // Distinct 2-byte prefixes → distinct ARTs → fully parallel.
                let prefix = format!("{}{}", (b'A' + t) as char, (b'a' + t) as char);
                for i in 0..500u64 {
                    let key = Key::from_str(&format!("{prefix}{i:04}")).unwrap();
                    h.insert(&key, &Value::from_u64(i)).unwrap();
                }
            }));
        }
        for hd in handles {
            hd.join().unwrap();
        }
        assert_eq!(h.len(), 4000);
        assert_eq!(h.art_count(), 8);
        h.check_consistency().unwrap();
    }

    #[test]
    fn concurrent_mixed_ops_same_art() {
        let h = Arc::new(fresh());
        for i in 0..200u64 {
            h.insert(&Key::from_str(&format!("XX{i:04}")).unwrap(), &v(i))
                .unwrap();
        }
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let key = Key::from_str(&format!("XX{i:04}")).unwrap();
                    match (i + t) % 3 {
                        0 => {
                            let _ = h.search(&key).unwrap();
                        }
                        1 => {
                            let _ = h.update(&key, &Value::from_u64(i * t)).unwrap();
                        }
                        _ => {
                            h.insert(&key, &Value::from_u64(i)).unwrap();
                        }
                    }
                }
            }));
        }
        for hd in handles {
            hd.join().unwrap();
        }
        assert_eq!(h.len(), 200);
        h.check_consistency().unwrap();
    }

    #[test]
    fn memory_stats_split_dram_pm() {
        let h = fresh();
        for i in 0..1000u64 {
            h.insert(&Key::from_u64_base62(i, 8), &v(i)).unwrap();
        }
        let m = h.memory_stats();
        assert!(m.dram_bytes > 0, "hash table + ART nodes live in DRAM");
        assert!(m.pm_bytes > 1000 * 40, "leaves + values live in PM");
    }

    #[test]
    fn zero_hash_key_len_degenerates_to_single_art() {
        let h = Hart::create(
            Arc::new(PmemPool::new(PoolConfig::test_small())),
            HartConfig::with_hash_key_len(0),
        )
        .unwrap();
        for key in ["alpha", "beta", "gamma"] {
            h.insert(&k(key), &v(key.len() as u64)).unwrap();
        }
        assert_eq!(h.art_count(), 1);
        assert_eq!(h.search(&k("beta")).unwrap().unwrap().as_u64(), 4);
        h.check_consistency().unwrap();
    }

    #[test]
    fn values_of_both_classes() {
        let h = fresh();
        h.insert(&k("short"), &Value::new(b"12345678").unwrap())
            .unwrap();
        h.insert(&k("long"), &Value::new(b"0123456789abcdef").unwrap())
            .unwrap();
        h.insert(&k("empty"), &Value::new(b"").unwrap()).unwrap();
        assert_eq!(
            h.search(&k("short")).unwrap().unwrap().as_slice(),
            b"12345678"
        );
        assert_eq!(
            h.search(&k("long")).unwrap().unwrap().as_slice(),
            b"0123456789abcdef"
        );
        assert_eq!(h.search(&k("empty")).unwrap().unwrap().as_slice(), b"");
        let s = h.alloc_stats();
        assert_eq!(s.live, [3, 2, 1]);
    }
}

#[cfg(test)]
mod parallel_recovery_tests {
    use super::*;
    use hart_pm::PoolConfig;

    #[test]
    fn parallel_recovery_equals_sequential() {
        let pool = Arc::new(PmemPool::new(PoolConfig {
            size_bytes: 64 << 20,
            ..PoolConfig::test_small()
        }));
        {
            let h = Hart::create(Arc::clone(&pool), HartConfig::default()).unwrap();
            for i in 0..20_000u64 {
                h.insert(&Key::from_u64_base62(i * 7, 8), &Value::from_u64(i))
                    .unwrap();
            }
            for i in 0..20_000u64 {
                if i % 9 == 0 {
                    h.remove(&Key::from_u64_base62(i * 7, 8)).unwrap();
                }
            }
        }
        let par = Hart::recover_parallel(Arc::clone(&pool), HartConfig::default(), 4).unwrap();
        par.check_consistency().unwrap();
        assert_eq!(par.len(), 20_000 - 20_000usize.div_ceil(9));
        for i in (0..20_000u64).step_by(37) {
            let got = par.search(&Key::from_u64_base62(i * 7, 8)).unwrap();
            if i % 9 == 0 {
                assert_eq!(got, None, "key {i}");
            } else {
                assert_eq!(got.unwrap().as_u64(), i, "key {i}");
            }
        }
    }

    /// The error-selection policy itself, order-independent: whatever
    /// order racing workers report failures in, the lowest leaf index
    /// wins. This is the deterministic-diagnostics fix — previously
    /// `get_or_insert` kept whichever error locked the mutex first.
    #[test]
    fn recovery_err_selection_keeps_lowest_index() {
        let reports = [
            (
                4_000usize,
                Error::Corrupted("duplicate live key in leaf chunks"),
            ),
            (2, Error::Corrupted("live leaf with empty key")),
            (9, Error::Corrupted("duplicate live key in leaf chunks")),
            (2_000, Error::Corrupted("bad key in leaf")),
        ];
        // Feed every permutation-ish rotation; the winner never changes.
        for rot in 0..reports.len() {
            let slot = parking_lot::Mutex::new(None);
            for i in 0..reports.len() {
                let (idx, e) = reports[(i + rot) % reports.len()].clone();
                super::note_recovery_err(&slot, idx, e);
            }
            let (idx, err) = slot.into_inner().unwrap();
            assert_eq!(idx, 2);
            assert!(
                matches!(err, Error::Corrupted("live leaf with empty key")),
                "rotation {rot} kept {err:?}"
            );
        }
    }

    /// A corrupted leaf must fail recovery in every mode — and the
    /// parallel workers must stop promptly on the shared abort flag
    /// instead of completing a full rebuild whose result is discarded.
    #[test]
    fn parallel_recovery_aborts_on_corruption() {
        let records = 8_000u64;
        // PM reads are only metered when PM read latency exceeds DRAM, and
        // the read counter is how we observe how far the rebuild got.
        let build = |corrupt: bool| {
            let pool = Arc::new(PmemPool::new(PoolConfig {
                size_bytes: 64 << 20,
                latency: hart_pm::LatencyConfig::c300_300(),
                time_mode: hart_pm::TimeMode::Inject,
                ..PoolConfig::test_small()
            }));
            {
                let h = Hart::create(Arc::clone(&pool), HartConfig::default()).unwrap();
                // A committed leaf owning a committed value but with no key
                // bytes ever written.
                let plant_bad_leaf = || {
                    let a = h.epallocator();
                    let val = a.alloc(ObjClass::Value8).unwrap();
                    a.commit(val, ObjClass::Value8);
                    let leaf = a.alloc(ObjClass::Leaf).unwrap();
                    leaf_write_pvalue(pool.as_ref(), leaf, val, 8);
                    persist_leaf_pvalue(pool.as_ref(), leaf);
                    a.commit(leaf, ObjClass::Leaf);
                };
                // A committed leaf carrying a key some earlier leaf already
                // owns: reattachment reports "duplicate live key".
                let plant_dup_leaf = |key: &Key| {
                    let a = h.epallocator();
                    let val = a.alloc(ObjClass::Value8).unwrap();
                    a.commit(val, ObjClass::Value8);
                    let leaf = a.alloc(ObjClass::Leaf).unwrap();
                    leaf_write_key(pool.as_ref(), leaf, key);
                    persist_leaf_key(pool.as_ref(), leaf);
                    leaf_write_pvalue(pool.as_ref(), leaf, val, 8);
                    persist_leaf_pvalue(pool.as_ref(), leaf);
                    a.commit(leaf, ObjClass::Leaf);
                };
                if corrupt {
                    // Four consecutive bad leaves — one per 4-thread stripe
                    // residue — at BOTH ends of the allocation sequence:
                    // whichever end of the chunk list `for_each_live` walks
                    // first, every worker trips over a bad leaf within its
                    // first few stripe elements, independent of how a
                    // single-core scheduler orders the worker threads.
                    for _ in 0..4 {
                        plant_bad_leaf();
                    }
                }
                for i in 0..records / 2 {
                    h.insert(&Key::from_u64_base62(i, 8), &Value::from_u64(i))
                        .unwrap();
                }
                if corrupt {
                    // A second corruption *type* mid-pool: duplicates of a
                    // preloaded key. Whichever way the pool is walked these
                    // sit at higher leaf indices than one of the empty-key
                    // clusters, so lowest-index error selection must always
                    // report the empty-key corruption, never this one.
                    for _ in 0..4 {
                        plant_dup_leaf(&Key::from_u64_base62(0, 8));
                    }
                }
                for i in records / 2..records {
                    h.insert(&Key::from_u64_base62(i, 8), &Value::from_u64(i))
                        .unwrap();
                }
                if corrupt {
                    for _ in 0..4 {
                        plant_bad_leaf();
                    }
                }
            }
            pool
        };

        let clean = build(false);
        let before = clean.stats().snapshot().read_lines;
        Hart::recover_parallel(Arc::clone(&clean), HartConfig::default(), 4).unwrap();
        let full_reads = clean.stats().snapshot().read_lines - before;

        let bad = build(true);
        // `EPallocator::open` scrubs every leaf before any worker starts;
        // meter it alone so the assertion sees only reattachment reads.
        let before = bad.stats().snapshot().read_lines;
        drop(EPallocator::open(Arc::clone(&bad)).unwrap());
        let open_reads = bad.stats().snapshot().read_lines - before;

        let before = bad.stats().snapshot().read_lines;
        let err = match Hart::recover_parallel(Arc::clone(&bad), HartConfig::default(), 4) {
            Ok(_) => panic!("corrupted pool recovered"),
            Err(e) => e,
        };
        // Lowest-index error selection: the empty-key cluster at the walk
        // front must always be the reported corruption — never the
        // duplicate-key cluster mid-pool, regardless of which worker wins
        // the race to the error mutex.
        assert!(
            matches!(err, Error::Corrupted("live leaf with empty key")),
            "expected the lowest-index corruption, got {err:?}"
        );
        let aborted_reattach = (bad.stats().snapshot().read_lines - before) - open_reads;
        let full_reattach = full_reads.saturating_sub(open_reads);
        assert!(
            aborted_reattach < full_reattach / 4,
            "workers kept rebuilding after the first corrupted leaf: \
             {aborted_reattach} reattachment PM line reads vs {full_reattach} for a full rebuild"
        );

        // The sequential path reports the same corruption.
        let err = match Hart::recover(bad, HartConfig::default()) {
            Ok(_) => panic!("corrupted pool recovered"),
            Err(e) => e,
        };
        assert!(
            matches!(err, Error::Corrupted("live leaf with empty key")),
            "{err:?}"
        );
    }

    #[test]
    fn parallel_recovery_after_crash() {
        let pool = Arc::new(PmemPool::new(PoolConfig {
            size_bytes: 32 << 20,
            crash_sim: true,
            ..PoolConfig::test_small()
        }));
        {
            let h = Hart::create(Arc::clone(&pool), HartConfig::default()).unwrap();
            for i in 0..2000u64 {
                h.insert(&Key::from_u64_base62(i, 8), &Value::from_u64(i))
                    .unwrap();
            }
            pool.arm_persist_fuse(3); // die mid-insert
            h.insert(&Key::from_u64_base62(9999, 8), &Value::from_u64(1))
                .unwrap();
        }
        pool.simulate_crash();
        let par = Hart::recover_parallel(Arc::clone(&pool), HartConfig::default(), 3).unwrap();
        par.check_consistency().unwrap();
        assert!(par.len() == 2000 || par.len() == 2001);
        let s = par.alloc_stats();
        assert_eq!(s.live[1] + s.live[2], s.live[0], "no leaks");
    }
}
