//! The HART benchmark: three single-process workloads against the public
//! APIs of `hart`, `hart-pm` and `hart-server`, one set of end-to-end
//! metrics, and a separately traced run for the per-layer metrics.
//! See `README.md` in this directory for the workloads, the metrics and
//! the predictions they are meant to test.

pub mod engine;
pub mod host;
pub mod report;
pub mod server;
pub mod trace;
pub mod verify;

use hart::{Hart, HartConfig, PersistentIndex};
use hart_kv::{Key, Value};
use hart_pm::{CacheConfig, PmemPool, PoolConfig};
pub use report::median;
use report::{Metrics, Samples};
use std::sync::Arc;
use std::time::Instant;
use trace::{OpKind, PmCounts, Tracer};
use verify::Verifier;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    EnginePhases,
    EngineScan,
    ServerYcsbA,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::EnginePhases,
        Workload::EngineScan,
        Workload::ServerYcsbA,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EnginePhases => "engine-phases",
            Workload::EngineScan => "engine-scan",
            Workload::ServerYcsbA => "server-ycsb-a",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Parameters of one run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Length of each time-bounded phase budget (see each workload).
    pub seconds: f64,
    pub trace: bool,
    /// Keys loaded by the two engine workloads; the server preloads a
    /// tenth of them (see [`RunArgs::server_keys`]).
    pub keys: usize,
    /// Threads for `recover_parallel` and client connections.
    pub threads: usize,
}

impl RunArgs {
    pub fn new(workload: Workload, seed: u64) -> RunArgs {
        RunArgs {
            workload,
            seed,
            seconds: 10.0,
            trace: false,
            keys: 1_000_000,
            threads: host::nproc(),
        }
    }

    /// Keys preloaded under the server: few enough that their PM fits the
    /// simulated cache.
    pub fn server_keys(&self) -> usize {
        self.keys / 10
    }

    /// Ops per single-op probe phase: 2% of the engine keys, at most 20k.
    pub fn probe_ops(&self) -> usize {
        (self.keys / 50).clamp(1, 20_000)
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub e2e: Metrics,
    /// Per-layer metrics; filled by traced runs only.
    pub layer: Metrics,
    pub verifier: Verifier,
    /// Run facts for the result file: key counts, PM size vs cache.
    pub facts: Vec<(&'static str, String)>,
    pub tracer: Option<Tracer>,
}

/// PM pool sized like the figure harness: 384 B a key plus 32 MiB.
pub fn pool_config(keys: usize) -> PoolConfig {
    PoolConfig {
        size_bytes: keys.saturating_mul(384).saturating_add(32 << 20),
        ..PoolConfig::default()
    }
}

/// Simulated CPU cache size the PM read charging models.
pub fn cache_bytes() -> usize {
    CacheConfig::default().capacity_bytes
}

/// The largest valid key; scans run from a start key to here.
pub fn max_key() -> Key {
    Key::new(&[0xFF; hart_kv::MAX_KEY_LEN]).expect("0xFF bytes form a valid key")
}

/// The value an update writes: distinct from the loaded `value_for(key)`.
pub fn updated_value(key: &Key) -> Value {
    Value::from_u64(!hart_workloads::value_for(key).as_u64())
}

/// PM and DRAM footprint after the load, and the run's size facts.
pub fn footprint(
    hart: &Hart,
    keys: usize,
    e2e: &mut Metrics,
    facts: &mut Vec<(&'static str, String)>,
) {
    let mem = hart.memory_stats();
    let pm = mem.pm_bytes as f64 / keys as f64;
    let dram = mem.dram_bytes as f64 / keys as f64;
    e2e.set_count("pm_bytes_per_key", pm, "B", true);
    e2e.set_count("dram_bytes_per_key", dram, "B", true);
    facts.push(("pm_bytes", mem.pm_bytes.to_string()));
    facts.push((
        "pm_bytes_over_cache",
        format!("{:.3}", mem.pm_bytes as f64 / cache_bytes() as f64),
    ));
}

/// Set-ups per run; `setup_s` is the median of their times.
pub const SETUPS: usize = 3;

/// Set up `SETUPS` times, keep the last, and return it with the median
/// set-up time in seconds.
pub fn set_up<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(times))
}

/// Recover `pool` with `a.threads` workers `times` times, checking the key
/// count each time; keep the last tree and return it with the median time
/// in seconds. Traced runs record each recovery's span and the last one's
/// PM counts.
#[allow(clippy::too_many_arguments)]
pub fn recover(
    pool: &Arc<PmemPool>,
    cfg: HartConfig,
    a: &RunArgs,
    times: usize,
    want: usize,
    mut tracer: Option<&mut Tracer>,
    layers: &mut Layers,
    v: &mut Verifier,
) -> (Hart, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let before = PmCounts::of(&pool.stats().snapshot());
        let start = Instant::now();
        let hart =
            Hart::recover_parallel(Arc::clone(pool), cfg, a.threads).expect("recover_parallel");
        let end = Instant::now();
        secs.push((end - start).as_secs_f64());
        let len = hart.len();
        v.expect(len == want, || format!("recovered len {len}, want {want}"));
        if let Some(tr) = tracer.as_deref_mut() {
            tr.phase("recover_parallel", start, end);
            layers.recover_keys = want as u64;
            layers.recover_pm = PmCounts::of(&pool.stats().snapshot()).minus(&before);
            layers.recover_wall_ns = (end - start).as_nanos() as f64;
            layers.recover_threads = a.threads;
            layers.traced_wall_ns += (end - start).as_nanos() as u64;
        }
        last = Some(hart);
    }
    (last.expect("at least one recovery"), median(secs))
}

/// Every op kind's p50: end-to-end metrics.
pub fn report_p50s(lat: &[Samples; 5], m: &mut Metrics) {
    for kind in OpKind::ALL {
        lat[kind.idx()].report(m, kind.name(), 50);
    }
}

/// Every op kind's p99: per-layer metrics, because no p99 repeated within
/// a tenth across ten seeds on every workload (host speed swings move
/// tails most).
pub fn report_p99s(lat: &[Samples; 5], m: &mut Metrics) {
    for kind in OpKind::ALL {
        lat[kind.idx()].report(m, kind.name(), 99);
    }
}

/// Per-op-kind accounting for the per-layer metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct KindLayers {
    /// Ops whose PM counts were taken.
    pub ops: u64,
    pub pm: PmCounts,
    pub allocs: u64,
    pub retires: u64,
    pub ulog: u64,
    /// Summed caller-side latency of those ops, ns.
    pub outside_ns: f64,
    /// The engine's own sampled latency: (samples, summed ns).
    pub engine: (u64, f64),
}

/// Everything the per-layer metrics are computed from.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub kinds: [KindLayers; 5],
    /// PM counts are reproducible for a seed (fixed-work, single-threaded).
    pub exact: bool,
    /// Op kind of the first phase after `recover_parallel`, if timed.
    pub after_recovery: Option<OpKind>,
    pub recover_keys: u64,
    pub recover_pm: PmCounts,
    pub recover_wall_ns: f64,
    pub recover_threads: usize,
    pub leaf_occupancy: f64,
    pub pending_garbage_peak: u64,
    pub scans: u64,
    pub scan_rows: u64,
    pub scan_truncated: u64,
    /// Point reads and writes of the read/write-mix phase(s).
    pub gets: u64,
    pub puts: u64,
    pub optimistic_retries: u64,
    pub lock_fallbacks: u64,
    pub write_wait_ns: u64,
    pub group_flushes: u64,
    pub group_ops: u64,
    pub persists_deferred: u64,
    /// Client mean latency minus the engine's sampled mean, per op, us.
    pub self_us: [f64; 5],
    pub busy_rejections: u64,
    pub inflight_peak: u64,
    pub late_us_p99: f64,
    /// Open-loop GET p50, GET p99, PUT p50, PUT p99, us.
    pub open_us: [f64; 4],
    pub spans: u64,
    pub tracer_ns: u64,
    pub traced_wall_ns: u64,
}

fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// The per-layer metric set, identical in name and order on every
/// workload. A metric whose layer the workload bypasses reads 0.
pub fn layer_metrics(l: &Layers, fail_ratio: f64) -> Metrics {
    let mut m = Metrics::default();
    for kind in OpKind::ALL {
        let k = &l.kinds[kind.idx()];
        let (op, n) = (kind.name(), k.ops);
        // The first phase after the multi-threaded recovery starts from a
        // cache-model state that depends on how its threads interleaved.
        let misses_exact = l.exact && l.after_recovery != Some(kind);
        let counts = [
            ("pm.persists", "", k.pm.persists, "1/op", l.exact),
            ("pm.lines_flushed", "", k.pm.lines_flushed, "1/op", l.exact),
            ("pm.read_lines", "", k.pm.read_lines, "1/op", l.exact),
            ("pm.read_misses", "", k.pm.read_misses, "1/op", misses_exact),
            ("pm.busy_ns", "", k.pm.busy_ns(), "ns/op", misses_exact),
            ("pm.busy_ns", ".write", k.pm.write_ns, "ns/op", l.exact),
            ("pm.busy_ns", ".read", k.pm.read_ns, "ns/op", misses_exact),
            ("pm.busy_ns", ".alloc", k.pm.alloc_ns, "ns/op", l.exact),
        ];
        for (pre, suf, v, unit, exact) in counts {
            m.set_count(format!("{pre}.{op}{suf}"), per(v as f64, n), unit, exact);
        }
        let dram = per(k.outside_ns, n) - per(k.pm.busy_ns() as f64, n);
        m.set(format!("hart.dram_ns.{op}"), dram, "ns/op");
        for (pre, v) in [
            ("epalloc.allocs", k.allocs),
            ("epalloc.retires", k.retires),
            ("epalloc.ulog", k.ulog),
        ] {
            m.set_count(format!("{pre}.{op}"), per(v as f64, n), "1/op", l.exact);
        }
        m.set(format!("server.self_us.{op}"), l.self_us[kind.idx()], "us");
    }
    m.set_count("epalloc.leaf_occupancy", l.leaf_occupancy, "ratio", l.exact);
    let rk = l.recover_keys;
    m.set(
        "pm.read_lines.recover",
        per(l.recover_pm.read_lines as f64, rk),
        "1/key",
    );
    m.set(
        "pm.busy_ns.recover",
        per(l.recover_pm.busy_ns() as f64, rk),
        "ns/key",
    );
    m.set(
        "hart.dram_ns.recover",
        per(
            l.recover_wall_ns * l.recover_threads as f64 - l.recover_pm.busy_ns() as f64,
            rk,
        ),
        "ns/key",
    );
    m.set(
        "ebr.pending_garbage.delete",
        l.pending_garbage_peak as f64,
        "count",
    );
    m.set(
        "hart.scan.rows",
        per(l.scan_rows as f64, l.scans),
        "rows/scan",
    );
    let scan_lines = l.kinds[OpKind::Scan.idx()].pm.read_lines as f64;
    m.set(
        "pm.read_lines.per_row",
        per(scan_lines, l.scan_rows),
        "1/row",
    );
    m.set(
        "hart.scan.truncated",
        per(l.scan_truncated as f64, l.scans),
        "ratio",
    );
    m.set(
        "hart.reads.lock_fallback_ratio",
        per(l.lock_fallbacks as f64, l.gets),
        "ratio",
    );
    m.set(
        "hart.reads.optimistic_retries_per_get",
        per(l.optimistic_retries as f64, l.gets),
        "1/op",
    );
    m.set(
        "hart.locks.shard_write_wait_ns_per_put",
        per(l.write_wait_ns as f64, l.puts),
        "ns/op",
    );
    m.set(
        "group.flushes_per_put",
        per(l.group_flushes as f64, l.puts),
        "1/op",
    );
    m.set(
        "group.occupancy_mean",
        per(l.group_ops as f64, l.group_flushes),
        "ops",
    );
    m.set(
        "group.persists_deferred_per_put",
        per(l.persists_deferred as f64, l.puts),
        "1/op",
    );
    m.set("server.busy_rejections", l.busy_rejections as f64, "count");
    m.set("server.inflight_peak", l.inflight_peak as f64, "count");
    m.set("client.late_us_p99", l.late_us_p99, "us");
    for (i, name) in ["search_p50", "search_p99", "update_p50", "update_p99"]
        .iter()
        .enumerate()
    {
        m.set(format!("client.open.{name}_us"), l.open_us[i], "us");
    }
    m.set("fail_ratio", fail_ratio, "ratio");
    m.set("trace.spans", l.spans as f64, "count");
    let traced = l.traced_wall_ns.saturating_sub(l.tracer_ns);
    m.set(
        "trace.overhead_pct",
        100.0 * per(l.tracer_ns as f64, traced.max(1)),
        "%",
    );
    m
}

/// Times single ops from outside, and in traced runs also records their
/// span and their PM counts.
pub struct OpTimer {
    pool: Arc<PmemPool>,
    pub lat: [Samples; 5],
    pub tracer: Option<Tracer>,
    pub layers: Layers,
    /// Traced runs: how long after one op returned the next was issued.
    /// A closed loop has no send schedule, so this gap is its lateness.
    pub gaps: Samples,
    pub last_done: Option<Instant>,
}

impl OpTimer {
    pub fn new(pool: Arc<PmemPool>, tracer: Option<Tracer>) -> OpTimer {
        OpTimer {
            pool,
            lat: Default::default(),
            tracer,
            layers: Layers {
                exact: true,
                ..Layers::default()
            },
            gaps: Samples::default(),
            last_done: None,
        }
    }

    /// Run `f` as one op of `kind` inside phase `parent`; returns its
    /// result and the time it ended.
    #[inline]
    pub fn op<R>(&mut self, kind: OpKind, parent: u32, f: impl FnOnce() -> R) -> (R, Instant) {
        let Some(t) = self.tracer.as_mut() else {
            let a = Instant::now();
            let r = std::hint::black_box(f());
            let b = Instant::now();
            self.lat[kind.idx()].push((b - a).as_nanos() as u64);
            return (r, b);
        };
        let pre = Instant::now();
        let before = PmCounts::of(&self.pool.stats().snapshot());
        let a = Instant::now();
        let r = std::hint::black_box(f());
        let b = Instant::now();
        let ns = (b - a).as_nanos() as u64;
        self.lat[kind.idx()].push(ns);
        let d = PmCounts::of(&self.pool.stats().snapshot()).minus(&before);
        if let Some(prev) = self.last_done {
            self.gaps.push((a - prev).as_nanos() as u64);
        }
        let k = &mut self.layers.kinds[kind.idx()];
        k.ops += 1;
        k.pm.add(&d);
        k.outside_ns += ns as f64;
        t.op(kind, parent, 0, a, b);
        let done = Instant::now();
        t.charge_self(((a - pre) + (done - b)).as_nanos() as u64);
        self.last_done = Some(done);
        (r, done)
    }

    /// Run `f` as an untimed op of `kind`: traced runs record its span,
    /// but it adds no latency sample and no per-op PM counts.
    pub fn call<R>(&mut self, kind: OpKind, parent: u32, f: impl FnOnce() -> R) -> (R, Instant) {
        let a = Instant::now();
        let r = f();
        let b = Instant::now();
        if let Some(t) = self.tracer.as_mut() {
            t.op(kind, parent, 0, a, b);
            t.charge_self(b.elapsed().as_nanos() as u64);
            self.last_done = Some(b);
        }
        (r, b)
    }

    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }
}
