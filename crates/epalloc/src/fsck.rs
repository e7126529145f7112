//! `fsck`-style deep verification of an EPallocator PM image.
//!
//! Run after `open()` (so micro-logs are already replayed) to validate
//! every persistent structure the paper's design relies on:
//!
//! * chunk lists are acyclic, aligned and in-bounds;
//! * the volatile predecessor index matches the persisted lists (same
//!   chunks, same predecessors, same counts);
//! * each chunk header is internally consistent (full indicator matches
//!   the bitmap; the next-free hint points at a free slot);
//! * every live leaf holds a valid key, and its `p_value` points at a
//!   properly aligned, *committed* value object;
//! * no two live leaves share a value object (ownership is unique);
//! * every committed value object is owned by exactly one live leaf
//!   (no persistent leaks — the paper's §III-A.6 guarantee).

use crate::chunk::{ChunkHeader, Geometry, ObjClass, OBJS_PER_CHUNK};
use crate::epalloc::EPallocator;
use crate::leaf::{leaf_read_key, leaf_read_pvalue, leaf_read_val_len};
use hart_kv::MAX_KEY_LEN;
use hart_pm::PmPtr;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Outcome of a verification pass.
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Chunks per class.
    pub chunks: [usize; 3],
    /// Committed objects per class.
    pub live: [u64; 3],
    /// Value objects owned by a live leaf.
    pub owned_values: u64,
    /// Every problem found (empty = healthy image).
    pub errors: Vec<String>,
}

impl FsckReport {
    /// True when no problems were found.
    pub fn is_healthy(&self) -> bool {
        self.errors.is_empty()
    }
}

impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chunks: leaf={} v8={} v16={}",
            self.chunks[0], self.chunks[1], self.chunks[2]
        )?;
        writeln!(
            f,
            "live objects: leaf={} v8={} v16={} (values owned: {})",
            self.live[0], self.live[1], self.live[2], self.owned_values
        )?;
        if self.is_healthy() {
            write!(f, "image healthy ✓")
        } else {
            writeln!(f, "{} problem(s):", self.errors.len())?;
            for e in &self.errors {
                writeln!(f, "  - {e}")?;
            }
            Ok(())
        }
    }
}

impl EPallocator {
    /// Deep-verify the persistent image. Read-only; safe on a live
    /// allocator only when no writers are active.
    pub fn verify(&self) -> FsckReport {
        let mut rep = FsckReport::default();
        let pool = self.pool();
        let cap = pool.capacity() as u64;

        // Pass 1: chunk lists per class.
        let mut live_objects: [Vec<PmPtr>; 3] = Default::default();
        for class in ObjClass::ALL {
            let geo = Geometry::of(class);
            let mut seen: HashSet<u64> = HashSet::new();
            self.for_each_chunk(class, |chunk, hdr| {
                rep.chunks[class.idx()] += 1;
                if !seen.insert(chunk.offset()) {
                    rep.errors
                        .push(format!("{class:?}: cycle at chunk {chunk:?}"));
                }
                if chunk.offset() % geo.align != 0 {
                    rep.errors
                        .push(format!("{class:?}: misaligned chunk {chunk:?}"));
                }
                if chunk.offset() + geo.chunk_bytes as u64 > cap {
                    rep.errors
                        .push(format!("{class:?}: chunk {chunk:?} out of bounds"));
                }
                check_header(class, chunk, hdr, &mut rep);
                let mut bits = hdr.bitmap();
                while bits != 0 {
                    let idx = bits.trailing_zeros() as u64;
                    bits &= bits - 1;
                    live_objects[class.idx()].push(geo.obj_ptr(chunk, idx));
                }
            });
            // Guard against unbounded/corrupt lists.
            if rep.chunks[class.idx()] > (cap / geo.align.max(1)) as usize + 1 {
                rep.errors
                    .push(format!("{class:?}: chunk list longer than the pool allows"));
            }
            rep.live[class.idx()] = live_objects[class.idx()].len() as u64;
        }
        rep.errors.extend(self.verify_chunk_index());

        // Pass 2: leaf contents + value ownership.
        let mut value_owner: HashMap<u64, PmPtr> = HashMap::new();
        for &leaf in &live_objects[ObjClass::Leaf.idx()] {
            let key = leaf_read_key(pool, leaf);
            if key.is_empty() || key.len() > MAX_KEY_LEN {
                rep.errors
                    .push(format!("leaf {leaf:?}: invalid key length {}", key.len()));
            }
            if key.as_slice().contains(&0) {
                rep.errors
                    .push(format!("leaf {leaf:?}: NUL byte inside key"));
            }
            let pv = leaf_read_pvalue(pool, leaf);
            if pv.is_null() {
                rep.errors
                    .push(format!("leaf {leaf:?}: live leaf with null p_value"));
                continue;
            }
            let vlen = leaf_read_val_len(pool, leaf);
            if vlen > 16 {
                rep.errors
                    .push(format!("leaf {leaf:?}: value length {vlen} out of range"));
            }
            let vclass = ObjClass::for_value_len(vlen);
            let vgeo = Geometry::of(vclass);
            if pv.offset() + vgeo.obj_size > cap {
                rep.errors
                    .push(format!("leaf {leaf:?}: p_value {pv:?} out of bounds"));
                continue;
            }
            let (vchunk, _) = vgeo.locate(pv);
            let delta = pv.offset() - vchunk.offset();
            if delta < 16 || !(delta - 16).is_multiple_of(vgeo.obj_size) {
                rep.errors.push(format!(
                    "leaf {leaf:?}: p_value {pv:?} not at a {vclass:?} object boundary"
                ));
                continue;
            }
            if !self.is_live(pv, vclass) {
                rep.errors
                    .push(format!("leaf {leaf:?}: value {pv:?} has no committed bit"));
            }
            if let Some(prev) = value_owner.insert(pv.offset(), leaf) {
                rep.errors.push(format!(
                    "value {pv:?} owned by two leaves: {prev:?} and {leaf:?}"
                ));
            }
        }
        rep.owned_values = value_owner.len() as u64;

        // Pass 3: leak check — every committed value must be owned.
        for class in [ObjClass::Value8, ObjClass::Value16] {
            for &v in &live_objects[class.idx()] {
                if !value_owner.contains_key(&v.offset()) {
                    rep.errors
                        .push(format!("{class:?} object {v:?} is leaked (no owner)"));
                }
            }
        }
        rep
    }
}

fn check_header(class: ObjClass, chunk: PmPtr, hdr: ChunkHeader, rep: &mut FsckReport) {
    let full = hdr.popcount() as u64 == OBJS_PER_CHUNK;
    if full != hdr.is_full() {
        rep.errors.push(format!(
            "{class:?} chunk {chunk:?}: full indicator {} but {} objects used",
            hdr.is_full(),
            hdr.popcount()
        ));
    }
    if !full {
        let hint = hdr.next_free_hint();
        if hint >= OBJS_PER_CHUNK || hdr.is_set(hint) {
            rep.errors.push(format!(
                "{class:?} chunk {chunk:?}: next-free hint {hint} points at a used slot"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaf::{leaf_write_key, leaf_write_pvalue, persist_leaf_key, persist_leaf_pvalue};
    use hart_kv::Key;
    use hart_pm::{PmemPool, PoolConfig};
    use std::sync::Arc;

    fn setup() -> (Arc<PmemPool>, EPallocator) {
        let pool = Arc::new(PmemPool::new(PoolConfig::test_small()));
        let alloc = EPallocator::create(Arc::clone(&pool));
        (pool, alloc)
    }

    fn make_record(pool: &PmemPool, alloc: &EPallocator, key: &str, v: u64) -> PmPtr {
        let leaf = alloc.alloc(ObjClass::Leaf).unwrap();
        let val = alloc.alloc(ObjClass::Value8).unwrap();
        pool.write(val, &v);
        pool.persist_val::<u64>(val);
        leaf_write_pvalue(pool, leaf, val, 8);
        persist_leaf_pvalue(pool, leaf);
        alloc.commit(val, ObjClass::Value8);
        leaf_write_key(pool, leaf, &Key::from_str(key).unwrap());
        persist_leaf_key(pool, leaf);
        alloc.commit(leaf, ObjClass::Leaf);
        leaf
    }

    #[test]
    fn healthy_image_verifies() {
        let (pool, alloc) = setup();
        for i in 0..100 {
            make_record(&pool, &alloc, &format!("key{i:03}"), i);
        }
        let rep = alloc.verify();
        assert!(rep.is_healthy(), "{rep}");
        assert_eq!(rep.live[0], 100);
        assert_eq!(rep.owned_values, 100);
        assert!(rep.to_string().contains("healthy"));
    }

    #[test]
    fn empty_allocator_is_healthy() {
        let (_pool, alloc) = setup();
        let rep = alloc.verify();
        assert!(rep.is_healthy());
        assert_eq!(rep.chunks, [0, 0, 0]);
    }

    #[test]
    fn detects_leaked_value() {
        let (pool, alloc) = setup();
        make_record(&pool, &alloc, "good", 1);
        // A committed value that no leaf owns.
        let orphan = alloc.alloc(ObjClass::Value8).unwrap();
        pool.write(orphan, &9u64);
        pool.persist_val::<u64>(orphan);
        alloc.commit(orphan, ObjClass::Value8);
        let rep = alloc.verify();
        assert!(!rep.is_healthy());
        assert!(rep.errors.iter().any(|e| e.contains("leaked")), "{rep}");
    }

    #[test]
    fn detects_null_pvalue_on_live_leaf() {
        let (pool, alloc) = setup();
        let leaf = alloc.alloc(ObjClass::Leaf).unwrap();
        leaf_write_key(&pool, leaf, &Key::from_str("bad").unwrap());
        persist_leaf_key(&pool, leaf);
        alloc.commit(leaf, ObjClass::Leaf); // committed without a value
        let rep = alloc.verify();
        assert!(
            rep.errors.iter().any(|e| e.contains("null p_value")),
            "{rep}"
        );
    }

    #[test]
    fn detects_shared_value() {
        let (pool, alloc) = setup();
        let l1 = make_record(&pool, &alloc, "one", 1);
        let l2 = make_record(&pool, &alloc, "two", 2);
        // Corrupt: point leaf 2 at leaf 1's value.
        let pv1 = leaf_read_pvalue(&pool, l1);
        leaf_write_pvalue(&pool, l2, pv1, 8);
        persist_leaf_pvalue(&pool, l2);
        let rep = alloc.verify();
        assert!(rep.errors.iter().any(|e| e.contains("two leaves")), "{rep}");
        // The abandoned value of leaf 2 is now leaked too.
        assert!(rep.errors.iter().any(|e| e.contains("leaked")), "{rep}");
    }

    #[test]
    fn detects_index_out_of_step_with_list() {
        let (pool, alloc) = setup();
        // Two leaf chunks: head -> newer -> older.
        let leaves: Vec<PmPtr> = (0..=OBJS_PER_CHUNK)
            .map(|i| make_record(&pool, &alloc, &format!("k{i:03}"), i))
            .collect();
        assert!(alloc.verify().is_healthy());
        // Cut the older chunk off the persisted list behind the index's back.
        let geo = Geometry::of(ObjClass::Leaf);
        let (newer, _) = geo.locate(leaves[OBJS_PER_CHUNK as usize]);
        geo.set_pnext(&pool, newer, PmPtr::NULL);
        let rep = alloc.verify();
        assert!(
            rep.errors
                .iter()
                .any(|e| e.contains("index holds 2 chunks, list links 1")),
            "{rep}"
        );
    }

    #[test]
    fn detects_corrupt_header() {
        let (pool, alloc) = setup();
        let leaf = make_record(&pool, &alloc, "x", 1);
        let geo = Geometry::of(ObjClass::Leaf);
        let (chunk, _) = geo.locate(leaf);
        // Flip the full indicator on a non-full chunk.
        let hdr = ChunkHeader::load(&pool, chunk);
        pool.write(chunk, &(hdr.0 | (0b01 << 62)));
        pool.persist(chunk, 8);
        let rep = alloc.verify();
        assert!(
            rep.errors.iter().any(|e| e.contains("full indicator")),
            "{rep}"
        );
    }
}
