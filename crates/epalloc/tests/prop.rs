//! Property-based tests for EPallocator: no double hand-outs, exact live
//! accounting, chunk reclamation, a predecessor index that always matches
//! the persisted chunk lists, and crash-at-any-point leak freedom.

use hart_epalloc::{EPallocator, ObjClass, OBJS_PER_CHUNK};
use hart_pm::{PmPtr, PmemPool, PoolConfig};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

#[derive(Clone, Copy, Debug)]
enum Op {
    Alloc(u8),  // class index 0..3
    Commit(u8), // commit the i-th oldest reserved object (mod live)
    Abort(u8),
    Retire(u8),  // retire the i-th oldest committed object
    Recycle(u8), // try recycling the chunk of a committed and a retired object
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..3).prop_map(Op::Alloc),
        any::<u8>().prop_map(Op::Commit),
        any::<u8>().prop_map(Op::Abort),
        any::<u8>().prop_map(Op::Retire),
        any::<u8>().prop_map(Op::Recycle),
    ]
}

fn pool() -> Arc<PmemPool> {
    Arc::new(PmemPool::new(PoolConfig {
        alloc_overhead_ns: 0,
        ..PoolConfig::test_small()
    }))
}

fn crash_pool() -> Arc<PmemPool> {
    Arc::new(PmemPool::new(PoolConfig {
        alloc_overhead_ns: 0,
        ..PoolConfig::test_crash()
    }))
}

fn chunk_of(p: PmPtr, ci: usize) -> PmPtr {
    ObjClass::from_idx(ci).geometry().locate(p).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn alloc_state_machine(ops in vec(arb_op(), 1..300)) {
        let pm = crash_pool();
        let alloc = EPallocator::create(Arc::clone(&pm));
        // Model: reserved, committed and retired object sets per class.
        let mut reserved: [Vec<PmPtr>; 3] = Default::default();
        let mut committed: [Vec<PmPtr>; 3] = Default::default();
        let mut retired: [Vec<PmPtr>; 3] = Default::default();

        for op in ops {
            match op {
                Op::Alloc(ci) => {
                    let class = ObjClass::from_idx(ci as usize);
                    let p = alloc.alloc(class).unwrap();
                    // Never hand out something already outstanding.
                    prop_assert!(!reserved[ci as usize].contains(&p), "double reserve");
                    prop_assert!(!committed[ci as usize].contains(&p), "reserve of live");
                    reserved[ci as usize].push(p);
                }
                Op::Commit(sel) => {
                    let ci = (sel % 3) as usize;
                    if !reserved[ci].is_empty() {
                        let p = reserved[ci].remove(sel as usize % reserved[ci].len());
                        alloc.commit(p, ObjClass::from_idx(ci));
                        committed[ci].push(p);
                    }
                }
                Op::Abort(sel) => {
                    let ci = (sel % 3) as usize;
                    if !reserved[ci].is_empty() {
                        let p = reserved[ci].remove(sel as usize % reserved[ci].len());
                        alloc.abort(p, ObjClass::from_idx(ci));
                    }
                }
                Op::Retire(sel) => {
                    let ci = (sel % 3) as usize;
                    if !committed[ci].is_empty() {
                        let p = committed[ci].remove(sel as usize % committed[ci].len());
                        alloc.retire(p, ObjClass::from_idx(ci));
                        retired[ci].push(p);
                    }
                }
                Op::Recycle(sel) => {
                    let ci = (sel % 3) as usize;
                    if !committed[ci].is_empty() {
                        let p = committed[ci][sel as usize % committed[ci].len()];
                        // Must refuse: the chunk holds a committed object.
                        prop_assert!(!alloc.recycle_containing(p, ObjClass::from_idx(ci)));
                    }
                    if !retired[ci].is_empty() {
                        let p = retired[ci][sel as usize % retired[ci].len()];
                        let chunk = chunk_of(p, ci);
                        let busy = reserved[ci].iter().chain(&committed[ci])
                            .any(|&q| chunk_of(q, ci) == chunk);
                        let recycled = alloc.recycle_containing(p, ObjClass::from_idx(ci));
                        // Reclaimed exactly when nothing in the chunk is
                        // outstanding (the chunk may sit anywhere in the list).
                        prop_assert_eq!(recycled, !busy);
                        if recycled {
                            retired[ci].retain(|&q| chunk_of(q, ci) != chunk);
                        }
                    }
                }
            }
            let errors = alloc.verify_chunk_index();
            prop_assert!(errors.is_empty(), "after {:?}: {:?}", op, errors);
            // Live accounting matches the model exactly.
            for (ci, objs) in committed.iter().enumerate() {
                prop_assert_eq!(
                    alloc.live_count(ObjClass::from_idx(ci)),
                    objs.len() as u64,
                    "class {} live count", ci
                );
            }
        }
        // Enumeration agrees with the model.
        for (ci, objs) in committed.iter().enumerate() {
            let mut listed = Vec::new();
            alloc.for_each_live(ObjClass::from_idx(ci), |p| listed.push(p));
            let listed: BTreeSet<PmPtr> = listed.into_iter().collect();
            let expect: BTreeSet<PmPtr> = objs.iter().copied().collect();
            prop_assert_eq!(listed, expect);
        }
        // A crash drops the index and reservations; open rebuilds the index
        // from the persisted lists, and recycles through it keep it in step.
        let chunks = alloc.stats().chunks;
        drop(alloc);
        pm.simulate_crash();
        let re = EPallocator::open(pm).unwrap();
        let errors = re.verify_chunk_index();
        prop_assert!(errors.is_empty(), "after open: {:?}", errors);
        prop_assert_eq!(re.stats().chunks, chunks);
        for (ci, objs) in committed.iter().enumerate() {
            let class = ObjClass::from_idx(ci);
            prop_assert_eq!(re.live_count(class), objs.len() as u64);
            for &p in objs {
                re.retire(p, class);
            }
            for &p in objs {
                re.recycle_containing(p, class);
            }
        }
        let errors = re.verify_chunk_index();
        prop_assert!(errors.is_empty(), "after draining: {:?}", errors);
    }

    #[test]
    fn full_lifecycle_reclaims_all_chunks(
        n in 1usize..200,
        class_sel in 0u8..3,
    ) {
        let class = ObjClass::from_idx(class_sel as usize);
        let alloc = EPallocator::create(pool());
        let mut objs = Vec::new();
        for _ in 0..n {
            let p = alloc.alloc(class).unwrap();
            alloc.commit(p, class);
            objs.push(p);
        }
        let expected_chunks = n.div_ceil(OBJS_PER_CHUNK as usize);
        prop_assert_eq!(alloc.stats().chunks[class.idx()], expected_chunks);
        for p in &objs {
            alloc.retire(*p, class);
        }
        for p in &objs {
            alloc.recycle_containing(*p, class);
        }
        prop_assert_eq!(alloc.stats().chunks[class.idx()], 0);
        prop_assert_eq!(alloc.live_count(class), 0);
    }

    #[test]
    fn crash_preserves_exactly_the_committed(
        commit_mask in vec(any::<bool>(), 1..150),
    ) {
        let pm = Arc::new(PmemPool::new(PoolConfig {
            alloc_overhead_ns: 0,
            ..PoolConfig::test_crash()
        }));
        let alloc = EPallocator::create(Arc::clone(&pm));
        let mut expected = BTreeSet::new();
        for commit in &commit_mask {
            let p = alloc.alloc(ObjClass::Value16).unwrap();
            if *commit {
                alloc.commit(p, ObjClass::Value16);
                expected.insert(p);
            }
            // Uncommitted reservations simply evaporate at the crash.
        }
        drop(alloc);
        pm.simulate_crash();
        let re = EPallocator::open(pm).unwrap();
        let mut live = BTreeSet::new();
        re.for_each_live(ObjClass::Value16, |p| { live.insert(p); });
        prop_assert_eq!(live, expected);
    }
}
