//! Delete cost does not grow with the number of keys.
//!
//! Deleting keys oldest-first empties chunks at the tail of each class's
//! chunk list. EPRecycle (Algorithm 6) must unlink every such chunk; with
//! the allocator's predecessor index that is O(1), where a walk from the
//! list head would read one PM line per chunk in front of it. PM lines
//! read per delete are a deterministic count, so the check compares them
//! exactly across a 10× change in size.

use hart_suite::{
    Hart, HartConfig, Key, LatencyConfig, PersistentIndex, PmemPool, PoolConfig, TimeMode,
};
use std::sync::Arc;

/// PM lines read per delete after loading `n` keys and deleting them in
/// insertion order.
fn read_lines_per_delete(n: u64) -> f64 {
    let pool = Arc::new(PmemPool::new(PoolConfig {
        size_bytes: 32 << 20,
        // PM reads are charged (and counted) only when PM reads are slower
        // than DRAM; `Model` accounts the latency without spinning.
        latency: LatencyConfig::default(),
        time_mode: TimeMode::Model,
        alloc_overhead_ns: 0,
        ..PoolConfig::default()
    }));
    let h = Hart::create(pool, HartConfig::default()).unwrap();
    let key = |i: u64| Key::from_u64_base62(i, 6);
    for i in 0..n {
        h.insert(&key(i), &hart_suite::Value::from_u64(i)).unwrap();
    }
    let before = h.pm_stats().read_lines;
    for i in 0..n {
        assert!(h.remove(&key(i)).unwrap(), "key {i}");
    }
    assert_eq!(h.len(), 0);
    (h.pm_stats().read_lines - before) as f64 / n as f64
}

#[test]
fn delete_read_lines_do_not_grow_with_size() {
    let small = read_lines_per_delete(5_600);
    let large = read_lines_per_delete(56_000);
    let ratio = large.max(small) / large.min(small);
    assert!(
        ratio <= 1.25,
        "PM lines read per delete: {small:.2} at 5 600 keys, {large:.2} at 56 000 keys \
         (ratio {ratio:.2} > 1.25)"
    );
}
