//! Stress battery for online hash-directory resizing (DESIGN.md
//! §Resizing).
//!
//! The directory starts tiny (8 buckets) with the most aggressive load
//! threshold (1 entry per bucket), so a key set spanning 128 hash prefixes
//! forces several doublings — with optimistic readers, range scans and
//! removals in flight while the bucket arrays are swapped and drained.
//! Values use the mirrored 16-byte encoding of `optimistic_reads.rs`, so
//! any read assembled from a torn bucket probe or a recycled table fails
//! structurally.
//!
//! Iteration counts scale with the `HART_STRESS_MULT` env var (the nightly
//! CI stress job sets 4).

use hart_suite::{Hart, HartConfig, Key, PersistentIndex, PmemPool, PoolConfig, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn build(cfg: HartConfig) -> Arc<Hart> {
    let pool = Arc::new(PmemPool::new(PoolConfig {
        size_bytes: 128 << 20,
        alloc_overhead_ns: 0,
        ..PoolConfig::test_small()
    }));
    Arc::new(Hart::create(pool, cfg).unwrap())
}

fn stress_mult() -> u64 {
    std::env::var("HART_STRESS_MULT")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// Tiny deterministic PRNG so each thread gets an independent, repeatable
/// op stream.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// 128 two-byte hash prefixes ("AA".."EX" under the default `k_h = 2`),
/// 4 keys each: enough shards that a directory born with 8 buckets must
/// double at least four times to get back under load factor 1.
const N_PREFIXES: u64 = 128;
const KEYS_PER_PREFIX: u64 = 4;
const N_KEYS: u64 = N_PREFIXES * KEYS_PER_PREFIX;

fn key_of(kid: u64) -> Key {
    let p = kid / KEYS_PER_PREFIX;
    let a = (b'A' + (p / 26) as u8) as char;
    let b = (b'A' + (p % 26) as u8) as char;
    Key::from_str(&format!("{a}{b}{:03}", kid % KEYS_PER_PREFIX)).unwrap()
}

/// 16-byte value: the 8-byte payload mirrored (see `optimistic_reads.rs`).
fn value_of(x: u64) -> Value {
    let mut b = [0u8; 16];
    b[..8].copy_from_slice(&x.to_le_bytes());
    b[8..].copy_from_slice(&x.to_le_bytes());
    Value::new(&b).unwrap()
}

fn decode(v: &Value) -> Option<u64> {
    let s = v.as_slice();
    if s.len() != 16 || s[..8] != s[8..] {
        return None;
    }
    Some(u64::from_le_bytes(s[..8].try_into().unwrap()))
}

fn aggressive() -> HartConfig {
    HartConfig {
        initial_buckets: 8,
        resize_threshold: 1,
        ..HartConfig::default()
    }
}

/// Tentpole stress: writers churn 512 keys (inserts, updates, removes)
/// through a directory that has to double repeatedly, while readers do
/// lock-free point lookups and ordered range scans. Every value any
/// reader sees must decode cleanly — a probe that caught a half-installed
/// bucket array or a recycled entry table would fail the mirror check.
#[test]
fn growth_stress_with_concurrent_readers() {
    let h = build(aggressive());
    // Preload half the keys: all 128 prefixes exist up front, so several
    // grows fire before the stress even starts and the rest of the test
    // runs against a directory with live migration traffic.
    for kid in (0..N_KEYS).step_by(2) {
        h.insert(&key_of(kid), &value_of(kid)).unwrap();
    }
    assert!(
        h.hash_resize_count() >= 3,
        "preload alone should force several doublings"
    );
    let iters = 2_000 * stress_mult();
    let done = AtomicBool::new(false);
    let torn = AtomicU64::new(0);
    let hits = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let h = Arc::clone(&h);
            let (done, torn, hits) = (&done, &torn, &hits);
            s.spawn(move || {
                let mut rng = XorShift(0xFEED_FACE ^ (t + 1));
                while !done.load(Ordering::Relaxed) {
                    if rng.next().is_multiple_of(8) {
                        // Ordered scan across many shards mid-migration.
                        let lo = key_of((rng.next() % N_KEYS) & !(KEYS_PER_PREFIX - 1));
                        let hi = key_of(N_KEYS - 1);
                        for (_, v) in h.ordered_range(&lo, &hi).unwrap() {
                            hits.fetch_add(1, Ordering::Relaxed);
                            if decode(&v).is_none() {
                                torn.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    } else {
                        let kid = rng.next() % N_KEYS;
                        if let Some(v) = h.search(&key_of(kid)).unwrap() {
                            hits.fetch_add(1, Ordering::Relaxed);
                            if decode(&v).is_none() {
                                torn.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    let mut rng = XorShift(0xB16_B00B5 ^ (t + 1));
                    for seq in 0..iters {
                        let kid = rng.next() % N_KEYS;
                        let key = key_of(kid);
                        match rng.next() % 4 {
                            // 2/4 insert-or-update, 1/4 remove, 1/4 read.
                            0 | 1 => {
                                h.insert(&key, &value_of((t << 48) | seq)).unwrap();
                            }
                            2 => {
                                let _ = h.remove(&key).unwrap();
                            }
                            _ => {
                                let _ = h.search(&key).unwrap();
                            }
                        }
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
    });
    assert_eq!(
        torn.load(Ordering::Relaxed),
        0,
        "reads must never tear during resizing"
    );
    assert!(
        hits.load(Ordering::Relaxed) > 0,
        "readers must observe data"
    );
    assert!(
        h.hash_resize_count() >= 3,
        "got {} grows",
        h.hash_resize_count()
    );
    assert!(
        h.hash_bucket_count() > 8,
        "directory never left its initial size"
    );
    h.check_consistency().unwrap();
    // Deterministic readback: overwrite everything, then every key must be
    // present with the new value through both lookup paths.
    for kid in 0..N_KEYS {
        h.insert(&key_of(kid), &value_of(kid)).unwrap();
    }
    assert_eq!(h.len(), N_KEYS as usize);
    for kid in 0..N_KEYS {
        let v = h
            .search(&key_of(kid))
            .unwrap()
            .expect("present after stress");
        assert_eq!(decode(&v), Some(kid));
    }
    assert_eq!(
        h.ordered_range(&key_of(0), &key_of(N_KEYS - 1))
            .unwrap()
            .len(),
        N_KEYS as usize
    );
}

/// Kill-switch equivalence: a fixed directory (`resize_threshold = 0`)
/// and the aggressive resizing config must be observationally identical
/// under the same deterministic op sequence — resizing is a performance
/// feature, never a semantic one. Three fixed directories stand in: the
/// default 4096-bucket one, and a 2-bucket one — 128 prefixes in two
/// chains of about 64 hash keys each, so every probe walks a long chain —
/// under both optimistic and locked reads (the resizing tree uses the
/// same read path as its fixed twin).
#[test]
fn kill_switch_matches_resizing_directory() {
    let two_buckets = HartConfig {
        initial_buckets: 2,
        resize_threshold: 0,
        ..HartConfig::default()
    };
    let locked = |c: HartConfig| HartConfig {
        optimistic_reads: false,
        ..c
    };
    let cases = [
        (HartConfig::with_fixed_directory(), aggressive()),
        (two_buckets, aggressive()),
        (locked(two_buckets), locked(aggressive())),
    ];
    for (fixed_cfg, resizing_cfg) in cases {
        let case = format!(
            "{} fixed buckets, optimistic reads {}",
            fixed_cfg.initial_buckets, fixed_cfg.optimistic_reads
        );
        let fixed = build(fixed_cfg);
        let resizing = build(resizing_cfg);
        let mut rng = XorShift(0x5EED_CAFE);
        for seq in 0..6_000 * stress_mult() {
            let kid = rng.next() % N_KEYS;
            let key = key_of(kid);
            match rng.next() % 4 {
                0 | 1 => {
                    let x = (kid << 32) | seq;
                    fixed.insert(&key, &value_of(x)).unwrap();
                    resizing.insert(&key, &value_of(x)).unwrap();
                }
                2 => {
                    assert_eq!(
                        fixed.remove(&key).unwrap(),
                        resizing.remove(&key).unwrap(),
                        "{case}: remove #{seq}"
                    );
                }
                _ => {
                    assert_eq!(
                        fixed.search(&key).unwrap(),
                        resizing.search(&key).unwrap(),
                        "{case}: search #{seq}"
                    );
                }
            }
        }
        assert_eq!(fixed.hash_resize_count(), 0, "{case}");
        assert_eq!(
            fixed.hash_bucket_count(),
            fixed_cfg.initial_buckets,
            "{case}"
        );
        assert!(resizing.hash_resize_count() >= 3, "{case}");
        assert_eq!(fixed.len(), resizing.len(), "{case}");
        assert_eq!(fixed.art_count(), resizing.art_count(), "{case}");
        for kid in 0..N_KEYS {
            let key = key_of(kid);
            assert_eq!(
                fixed.search(&key).unwrap(),
                resizing.search(&key).unwrap(),
                "{case}: final readback of key {kid}"
            );
        }
        let lo = key_of(0);
        let hi = key_of(N_KEYS - 1);
        assert_eq!(
            fixed.ordered_range(&lo, &hi).unwrap(),
            resizing.ordered_range(&lo, &hi).unwrap(),
            "{case}"
        );
        fixed.check_consistency().unwrap();
        resizing.check_consistency().unwrap();
    }
}

/// Recovery rebuilds the directory through the same resizing machinery:
/// reopening a pool under an aggressive config must re-grow the directory
/// and land on identical contents.
#[test]
fn recovery_regrows_directory() {
    let pool = Arc::new(PmemPool::new(PoolConfig {
        size_bytes: 128 << 20,
        alloc_overhead_ns: 0,
        ..PoolConfig::test_small()
    }));
    {
        let h = Hart::create(Arc::clone(&pool), aggressive()).unwrap();
        for kid in 0..N_KEYS {
            h.insert(&key_of(kid), &value_of(kid)).unwrap();
        }
        assert!(h.hash_resize_count() >= 3);
    }
    let h = Hart::recover(pool, aggressive()).unwrap();
    assert_eq!(h.len(), N_KEYS as usize);
    assert!(
        h.hash_resize_count() >= 3,
        "recovery reinsertion must re-trigger growth"
    );
    assert!(h.hash_bucket_count() > 8);
    for kid in 0..N_KEYS {
        let v = h
            .search(&key_of(kid))
            .unwrap()
            .expect("present after recovery");
        assert_eq!(decode(&v), Some(kid));
    }
    h.check_consistency().unwrap();
}

/// Chain-trigger coverage: with a load threshold of 20 entries per
/// bucket, every table generation chains past `CHAIN_LIMIT` before the
/// load trigger can fire, so the doublings are driven by the chain
/// trigger — and each must drain the long home chains without losing a
/// key. Probes run against the key just inserted and an older one, so
/// they also hit half-drained tables.
#[test]
fn chain_triggered_doublings_lose_no_key() {
    let h = build(HartConfig {
        initial_buckets: 2,
        resize_threshold: 20,
        ..HartConfig::default()
    });
    for kid in 0..N_KEYS {
        h.insert(&key_of(kid), &value_of(kid)).unwrap();
        // Reads never drain, so this probe may run while the
        // chain-triggered grow is still migrating.
        assert!(h.search(&key_of(kid)).unwrap().is_some(), "lost key {kid}");
        let back = key_of(kid / 2);
        assert!(h.search(&back).unwrap().is_some(), "lost key {}", kid / 2);
    }
    // Pigeonhole floor, independent of the random hash seed: 128 shards
    // force a 17-chain (and hence a chain-triggered grow) at both 2 and 4
    // buckets, since 128 > 16 * 4. Further doublings depend on seed
    // balance, so only two are guaranteed.
    assert!(h.hash_resize_count() >= 2, "battery must force doublings");
    for kid in 0..N_KEYS {
        let v = h.search(&key_of(kid)).unwrap().expect("present at end");
        assert_eq!(decode(&v), Some(kid));
    }
    h.check_consistency().unwrap();
}

/// Targeted regression for the disciplines pmlint R10 (`guarded-by`) now
/// enforces statically on `dir.rs`: old-table retirement — the
/// `old.store(null)` publish in `finish_migration` — happens under the
/// resize lock exactly once, no matter how many readers race through
/// `try_finish` against writers draining via `help_migrate`. A double
/// retirement would free the old bucket array twice (UB, typically a
/// crash or torn values); a missed one would pin `migration_in_progress`
/// forever. Each wave forces fresh doublings while four reader threads
/// hammer the finish path mid-drain, then drives writer traffic until
/// the drain completes and the full key space reads back intact.
#[test]
fn concurrent_helpers_retire_old_tables_exactly_once() {
    let h = build(aggressive());
    let waves = 8u64;
    let per_wave = N_KEYS / waves;
    let torn = AtomicU64::new(0);
    for wave in 0..waves {
        let lo = wave * per_wave;
        let hi = lo + per_wave;
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let (stop, torn) = (&stop, &torn);
            for t in 0..4u64 {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    // Readers race `try_finish` against the drain: every
                    // lookup that sees a fully-drained old table attempts
                    // the retirement itself.
                    let mut rng = XorShift(0xDEAD_0001 ^ (wave << 8) ^ (t + 1));
                    while !stop.load(Ordering::Relaxed) {
                        let kid = rng.next() % hi.max(1);
                        if let Some(v) = h.search(&key_of(kid)).unwrap() {
                            if decode(&v).is_none() {
                                torn.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
            for kid in lo..hi {
                h.insert(&key_of(kid), &value_of(kid)).unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });
        // Drive writer traffic (updates help-migrate on every call) until
        // the old array drains and some operation retires it. Bounded so a
        // lost retirement fails loudly instead of hanging the suite.
        let mut spins = 0u64;
        while h.hash_migration_in_progress() {
            let kid = spins % hi.max(1);
            h.insert(&key_of(kid), &value_of(kid)).unwrap();
            spins += 1;
            assert!(
                spins < 1_000_000,
                "migration never finished after wave {wave}: a drained old \
                 table was not retired"
            );
        }
        h.check_consistency().unwrap();
    }
    assert_eq!(
        torn.load(Ordering::Relaxed),
        0,
        "reads tore while racing old-table retirement"
    );
    assert!(
        h.hash_resize_count() >= 3,
        "waves must force doublings, got {}",
        h.hash_resize_count()
    );
    for kid in 0..N_KEYS {
        let v = h.search(&key_of(kid)).unwrap().expect("present at end");
        assert_eq!(decode(&v), Some(kid));
    }
}
