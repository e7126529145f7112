//! The two single-threaded engine workloads: `engine-phases` (the paper's
//! §IV-B insert/search/update/delete order plus recovery) and
//! `engine-scan` (YCSB-E over a 1M-key tree). Both call `Hart` directly
//! and so bypass the server, TCP and group commit.

use crate::report::Metrics;
use crate::trace::{ObsCounts, OpKind, Tracer};
use crate::verify::{check_scan, check_search, check_true, Verifier};
use crate::{
    footprint, max_key, median, pool_config, report_p50s, report_p99s, set_up, updated_value,
    OpTimer, Outcome, RunArgs,
};
use hart::{Hart, HartConfig, PersistentIndex, PmemPool};
use hart_kv::{Key, Value};
use hart_workloads::{random, value_for, ZipfSampler, SCAN_LEN_MAX};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Every 64th scan is compared row by row with a `BTreeMap` oracle.
const ORACLE_EVERY: u64 = 64;
/// YCSB-E: 5% inserts, the rest scans.
const SCAN_INSERT_PCT: u32 = 5;
/// Fresh keys reserved for YCSB-E's inserts, per second of `--seconds`:
/// enough for 200k ops/s at the 5% insert share, 90x HEAD's rate on 1M keys.
const YCSB_E_INSERTS_PER_S: f64 = 10_000.0;
/// YCSB's default Zipfian constant.
const ZIPF_THETA: f64 = 0.99;
/// YCSB-E segments of `engine-scan`, each followed by a round of probes.
const PROBE_ROUNDS: usize = 10;
/// Recoveries per run; `recover_s` is their median.
pub const RECOVERIES: usize = 3;
/// Deletes between EBR backlog samples in a traced run.
const GARBAGE_SAMPLE_EVERY: usize = 1024;

/// What the verifier expects a search of a loaded key to return.
pub type Expect = fn(&Key) -> Value;

/// A phase in progress: its start, and in traced runs the counters at
/// its start.
struct Phase {
    start: Instant,
    obs: Option<ObsCounts>,
    id: u32,
}

impl Phase {
    fn begin(t: &mut OpTimer, hart: &Hart) -> Phase {
        t.last_done = None;
        let start = Instant::now();
        let obs = t.traced().then(|| ObsCounts::of(&hart.obs_snapshot()));
        let id = match t.tracer.as_mut() {
            Some(tr) => {
                // The snapshot falls inside the phase: tracer time.
                tr.charge_self(start.elapsed().as_nanos() as u64);
                tr.next_phase_id()
            }
            None => 0,
        };
        Phase { start, obs, id }
    }

    /// Close the phase; in traced runs, charge its allocator work and the
    /// engine's sampled latencies to the op kinds that ran in it. Allocator
    /// work goes to `writer`, the phase's one timed writing op kind.
    fn end(self, t: &mut OpTimer, hart: &Hart, name: &'static str, writer: Option<OpKind>) {
        let end = Instant::now();
        if let (Some(before), Some(tracer)) = (self.obs, t.tracer.as_mut()) {
            let d = ObsCounts::of(&hart.obs_snapshot()).minus(&before);
            tracer.phase(name, self.start, end);
            if let Some(w) = writer {
                let w = &mut t.layers.kinds[w.idx()];
                w.allocs += d.allocs;
                w.retires += d.retires;
                w.ulog += d.ulog;
            }
            for kind in OpKind::ALL {
                let e = &mut t.layers.kinds[kind.idx()].engine;
                e.0 += d.sampled[kind.idx()].0;
                e.1 += d.sampled[kind.idx()].1;
            }
            t.layers.optimistic_retries += d.optimistic_retries;
            t.layers.lock_fallbacks += d.lock_fallbacks;
            t.layers.write_wait_ns += d.write_wait_ns;
            t.layers.scan_truncated += d.scan_truncated;
            t.layers.traced_wall_ns += (end - self.start).as_nanos() as u64;
        }
    }
}

fn new_pool(keys: usize) -> Arc<PmemPool> {
    Arc::new(PmemPool::new(pool_config(keys)))
}

/// `recover_parallel` the pool `RECOVERIES` times.
fn recover(
    t: &mut OpTimer,
    pool: &Arc<PmemPool>,
    a: &RunArgs,
    want: usize,
    v: &mut Verifier,
) -> (Hart, f64) {
    crate::recover(
        pool,
        HartConfig::default(),
        a,
        RECOVERIES,
        want,
        t.tracer.as_mut(),
        &mut t.layers,
        v,
    )
}

/// One scan of at most `len` rows from `start` to the largest key,
/// checked; row by row against `oracle` when `check_oracle`.
#[allow(clippy::too_many_arguments)]
fn scan_op(
    t: &mut OpTimer,
    hart: &Hart,
    parent: u32,
    start: &Key,
    len: usize,
    oracle: &BTreeMap<Key, Value>,
    check_oracle: bool,
    v: &mut Verifier,
) -> Instant {
    let end = max_key();
    let (rows, done) = t.op(OpKind::Scan, parent, || hart.scan(start, &end, len));
    match rows {
        Ok(rows) => {
            if t.traced() {
                t.layers.scans += 1;
                t.layers.scan_rows += rows.len() as u64;
            }
            v.check(check_scan(
                &rows,
                start,
                &end,
                len,
                check_oracle.then_some(oracle),
            ));
        }
        Err(e) => v.check(Err(format!("scan from {start:?}: {e:?}"))),
    }
    done
}

/// Traced runs: fold the EBR backlog into its peak, charging the snapshot
/// to the tracer.
fn sample_garbage(t: &mut OpTimer, hart: &Hart) {
    let a = Instant::now();
    let g = hart.obs_snapshot().ebr.pending_garbage;
    t.layers.pending_garbage_peak = t.layers.pending_garbage_peak.max(g);
    if let Some(tr) = t.tracer.as_mut() {
        tr.charge_self(a.elapsed().as_nanos() as u64);
    }
}

/// Client-side mean minus the engine's own sampled mean, per op kind.
fn self_times(t: &mut OpTimer) {
    for kind in OpKind::ALL {
        let k = t.layers.kinds[kind.idx()];
        let (n, total) = k.engine;
        if k.ops > 0 && n > 0 {
            t.layers.self_us[kind.idx()] = (k.outside_ns / k.ops as f64 - total / n as f64) / 1e3;
        }
    }
}

/// Close a run: per-layer metrics (traced runs) and the outcome.
fn finish(
    mut t: OpTimer,
    e2e: Metrics,
    v: Verifier,
    facts: Vec<(&'static str, String)>,
) -> Outcome {
    let layer = match t.tracer.as_ref().map(|tr| (tr.span_count(), tr.self_ns())) {
        Some((spans, tracer_ns)) => {
            self_times(&mut t);
            t.layers.spans = spans as u64;
            t.layers.tracer_ns = tracer_ns;
            if !t.gaps.is_empty() {
                t.layers.late_us_p99 = t.gaps.quantile_ns(0.99) as f64 / 1e3;
            }
            let mut layer = crate::layer_metrics(&t.layers, v.fail_ratio());
            report_p99s(&t.lat, &mut layer);
            layer
        }
        None => Metrics::default(),
    };
    Outcome {
        e2e,
        layer,
        verifier: v,
        facts,
        tracer: t.tracer,
    }
}

/// `engine-phases`: load every key, recover the pool, then search,
/// update, scan (a short probe) and delete every key, each op timed on its
/// own, on one thread.
pub fn phases(a: &RunArgs, expect: Expect) -> Outcome {
    let n = a.keys;
    let t0 = Instant::now();
    let ((keys, pool, hart), setup_s) = set_up(|| {
        let keys = random(n, a.seed);
        let pool = new_pool(n);
        let hart = Hart::create(Arc::clone(&pool), HartConfig::default()).expect("create");
        (keys, pool, hart)
    });
    let mut e2e = Metrics::default();
    e2e.set("setup_s", setup_s, "s");
    let mut facts = vec![("keys", n.to_string())];
    let mut v = Verifier::default();
    let mut t = OpTimer::new(Arc::clone(&pool), a.trace.then(|| Tracer::new(t0)));

    let p = Phase::begin(&mut t, &hart);
    for k in &keys {
        let (r, _) = t.op(OpKind::Insert, p.id, || hart.insert(k, &value_for(k)));
        v.check(r.map_err(|e| format!("insert {k:?}: {e:?}")));
    }
    p.end(&mut t, &hart, "load", Some(OpKind::Insert));
    footprint(&hart, n, &mut e2e, &mut facts);
    if t.traced() {
        t.layers.leaf_occupancy = hart.obs_snapshot().alloc.leaf.occupancy;
    }
    drop(hart);

    let (hart, recover_s) = recover(&mut t, &pool, a, n, &mut v);
    t.layers.after_recovery = Some(OpKind::Search);

    let p = Phase::begin(&mut t, &hart);
    for k in &keys {
        let (r, _) = t.op(OpKind::Search, p.id, || hart.search(k));
        v.check(check_search(k, r, expect(k)));
    }
    if t.traced() {
        t.layers.gets += n as u64;
    }
    p.end(&mut t, &hart, "search", Some(OpKind::Search));

    let p = Phase::begin(&mut t, &hart);
    for k in &keys {
        let (r, _) = t.op(OpKind::Update, p.id, || hart.update(k, &updated_value(k)));
        v.check(check_true("update", k, r));
    }
    if t.traced() {
        t.layers.puts += n as u64;
    }
    p.end(&mut t, &hart, "update", Some(OpKind::Update));

    // Scan probe over the updated tree; starts uniform over the keys.
    let oracle: BTreeMap<Key, Value> = keys.iter().map(|k| (*k, updated_value(k))).collect();
    let mut rng = StdRng::seed_from_u64(a.seed ^ 0x5CA7);
    let scans = a.probe_ops() / 4;
    let p = Phase::begin(&mut t, &hart);
    for i in 0..scans as u64 {
        let start = keys[rng.gen_range(0..n)];
        let len = rng.gen_range(1..=SCAN_LEN_MAX) as usize;
        scan_op(
            &mut t,
            &hart,
            p.id,
            &start,
            len,
            &oracle,
            i % ORACLE_EVERY == 0,
            &mut v,
        );
    }
    p.end(&mut t, &hart, "scan", Some(OpKind::Scan));
    drop(oracle);

    let p = Phase::begin(&mut t, &hart);
    for (i, k) in keys.iter().enumerate() {
        let (r, _) = t.op(OpKind::Delete, p.id, || hart.remove(k));
        v.check(check_true("delete", k, r));
        if t.traced() && i % GARBAGE_SAMPLE_EVERY == 0 {
            sample_garbage(&mut t, &hart);
        }
    }
    p.end(&mut t, &hart, "delete", Some(OpKind::Delete));
    let len = hart.len();
    v.expect(len == 0, || format!("{len} keys left after deleting all"));

    e2e.set("recover_s", recover_s, "s");
    report_p50s(&t.lat, &mut e2e);
    // All ops over their op time, each kind's time per op taken as the
    // median of its slice means.
    let ops: usize = t.lat.iter().map(|l| l.len()).sum();
    let ns: f64 = t
        .lat
        .iter()
        .map(|l| l.len() as f64 * l.sliced_mean_ns())
        .sum();
    e2e.set("ops_per_s", ops as f64 * 1e9 / ns, "1/s");
    finish(t, e2e, v, facts)
}

/// `engine-scan`: preload the keys, recover, then run YCSB-E (95% scans
/// from Zipfian starts, 5% inserts) for `seconds` in segments, each
/// followed by a round of insert, search, update and delete probes on
/// uniformly chosen keys.
pub fn scan(a: &RunArgs, expect: Expect) -> Outcome {
    let n = a.keys;
    // Fresh keys: the insert probes' first, then YCSB-E's. Running out is
    // a failure, never a silent change of the mix.
    let ycsb_reserve = (a.seconds * YCSB_E_INSERTS_PER_S).ceil() as usize;
    let reserve = a.probe_ops() + ycsb_reserve;
    let t0 = Instant::now();
    let ((keys, pool), setup_s) = set_up(|| {
        let keys = random(n + reserve, a.seed);
        let pool = new_pool(n + reserve);
        let hart = Hart::create(Arc::clone(&pool), HartConfig::default()).expect("create");
        for k in &keys[..n] {
            hart.insert(k, &value_for(k)).expect("preload insert");
        }
        (keys, pool)
    });
    let preload_end = Instant::now();
    let mut e2e = Metrics::default();
    e2e.set("setup_s", setup_s, "s");
    let mut facts = vec![("keys", n.to_string())];
    let mut v = Verifier::default();
    let mut t = OpTimer::new(Arc::clone(&pool), a.trace.then(|| Tracer::new(t0)));
    // YCSB-E runs for a time, not an op count, so the ops (and the tree
    // the probes see) differ from run to run: no per-op count is exact.
    t.layers.exact = false;
    if let Some(tr) = t.tracer.as_mut() {
        tr.phase("preload", t0, preload_end);
    }

    let (hart, recover_s) = recover(&mut t, &pool, a, n, &mut v);
    footprint(&hart, n, &mut e2e, &mut facts);
    if t.traced() {
        t.layers.leaf_occupancy = hart.obs_snapshot().alloc.leaf.occupancy;
    }

    let mut oracle: BTreeMap<Key, Value> = keys[..n].iter().map(|k| (*k, expect(k))).collect();
    let zipf = ZipfSampler::new(n, ZIPF_THETA);
    let mut rng = StdRng::seed_from_u64(a.seed ^ 0xE5CA);
    // Distinct, uniformly chosen preloaded keys: each is searched, then
    // updated, then deleted by the probes.
    let probe = distinct_indices(&mut rng, n, a.probe_ops());
    let mut probe_fresh = keys[n..n + probe.len()].iter();
    let mut fresh = keys[n + probe.len()..].iter();
    let chunk = probe.len().div_ceil(PROBE_ROUNDS);
    let segment = std::time::Duration::from_secs_f64(a.seconds / PROBE_ROUNDS as f64);
    let (mut inserted, mut scans, mut ycsb_ops) = (0usize, 0u64, 0u64);
    let mut rates = Vec::with_capacity(PROBE_ROUNDS);
    // YCSB-E runs in `PROBE_ROUNDS` equal segments with a round of probes
    // after each, so probe samples spread over the whole run like the
    // YCSB-E ones; each segment's op rate is one throughput sample.
    for round in probe.chunks(chunk) {
        let p = Phase::begin(&mut t, &hart);
        let deadline = p.start + segment;
        let (mut now, mut ops) = (p.start, 0u64);
        while now < deadline {
            now = if rng.gen_range(0..100u32) < SCAN_INSERT_PCT {
                let Some(k) = fresh.next() else {
                    v.check(Err(format!("YCSB-E used all {ycsb_reserve} fresh keys")));
                    break;
                };
                // Not an insert sample: YCSB-E's sparse, cache-cold inserts
                // mixed with the probe's would make slices unlike each
                // other. They count in the op rate.
                let val = value_for(k);
                let (r, done) = t.call(OpKind::Insert, p.id, || hart.insert(k, &val));
                v.check(r.map_err(|e| format!("insert {k:?}: {e:?}")));
                oracle.insert(*k, val);
                inserted += 1;
                done
            } else {
                let start = keys[zipf.sample(&mut rng)];
                let len = rng.gen_range(1..=SCAN_LEN_MAX) as usize;
                scans += 1;
                let check = scans % ORACLE_EVERY == 0;
                scan_op(&mut t, &hart, p.id, &start, len, &oracle, check, &mut v)
            };
            ops += 1;
        }
        rates.push(ops as f64 / (now - p.start).as_secs_f64());
        ycsb_ops += ops;
        p.end(&mut t, &hart, "ycsb-e", None);

        let p = Phase::begin(&mut t, &hart);
        for k in probe_fresh.by_ref().take(round.len()) {
            let val = value_for(k);
            let (r, _) = t.op(OpKind::Insert, p.id, || hart.insert(k, &val));
            v.check(r.map_err(|e| format!("insert {k:?}: {e:?}")));
            oracle.insert(*k, val);
            inserted += 1;
        }
        p.end(&mut t, &hart, "insert", Some(OpKind::Insert));
        let p = Phase::begin(&mut t, &hart);
        for k in round.iter().map(|&i| &keys[i]) {
            let (r, _) = t.op(OpKind::Search, p.id, || hart.search(k));
            v.check(check_search(k, r, oracle[k]));
        }
        p.end(&mut t, &hart, "search", Some(OpKind::Search));
        let p = Phase::begin(&mut t, &hart);
        for k in round.iter().map(|&i| &keys[i]) {
            let val = updated_value(k);
            let (r, _) = t.op(OpKind::Update, p.id, || hart.update(k, &val));
            v.check(check_true("update", k, r));
            oracle.insert(*k, val);
        }
        p.end(&mut t, &hart, "update", Some(OpKind::Update));
        let p = Phase::begin(&mut t, &hart);
        for (j, k) in round.iter().map(|&i| &keys[i]).enumerate() {
            let (r, _) = t.op(OpKind::Delete, p.id, || hart.remove(k));
            v.check(check_true("delete", k, r));
            oracle.remove(k);
            if t.traced() && j % GARBAGE_SAMPLE_EVERY == 0 {
                sample_garbage(&mut t, &hart);
            }
        }
        p.end(&mut t, &hart, "delete", Some(OpKind::Delete));
    }
    if t.traced() {
        t.layers.gets += probe.len() as u64;
        t.layers.puts += probe.len() as u64;
    }
    facts.push(("ycsb_e_ops", ycsb_ops.to_string()));
    let (len, want) = (hart.len(), n + inserted - probe.len());
    v.expect(len == want, || format!("final len {len}, want {want}"));

    e2e.set("recover_s", recover_s, "s");
    report_p50s(&t.lat, &mut e2e);
    // Throughput is YCSB-E's alone; the probes are there for latencies.
    e2e.set("ops_per_s", median(rates), "1/s");
    finish(t, e2e, v, facts)
}

/// `k` distinct indices in `0..n`, in draw order.
fn distinct_indices(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    let k = k.min(n);
    let mut seen = HashSet::with_capacity(k);
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let i = rng.gen_range(0..n);
        if seen.insert(i) {
            out.push(i);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    fn small(w: Workload) -> RunArgs {
        RunArgs {
            seconds: 0.2,
            keys: 3000,
            ..RunArgs::new(w, 5)
        }
    }

    /// A corrupted expected value must surface as a failed item.
    #[test]
    fn corrupted_expectation_is_reported() {
        fn corrupt(k: &Key) -> Value {
            Value::from_u64(value_for(k).as_u64() ^ 1)
        }
        for out in [
            phases(&small(Workload::EnginePhases), corrupt),
            scan(&small(Workload::EngineScan), corrupt),
        ] {
            assert!(!out.verifier.correct());
            assert!(out.verifier.failed() > 0);
            assert!(out.verifier.fail_ratio() > 0.0);
        }
    }

    #[test]
    fn true_expectation_passes() {
        let out = phases(&small(Workload::EnginePhases), value_for);
        assert!(out.verifier.correct(), "{:?}", out.verifier.messages());
        assert_eq!(out.verifier.failed(), 0);
    }
}
