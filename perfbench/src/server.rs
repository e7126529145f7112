//! `server-ycsb-a`: YCSB-A (50% GET, 50% PUT of existing keys, Zipfian
//! keys) over TCP against `hart_server` with group commit, from two
//! client connections with one generator thread each. The only workload
//! that crosses the wire protocol, the reader → worker → committer →
//! writer hops, the group committer and concurrent shard access.
//!
//! Phases: an open loop at a fixed offered rate (latency), a closed loop
//! with a fixed pipeline window (throughput), single-op probes (insert,
//! scan, delete latency; per-op PM counts), then shutdown and recovery of
//! the pool, which must equal the acknowledged state.

use crate::report::{Metrics, Samples};
use crate::trace::{ObsCounts, OpKind, Tracer};
use crate::verify::{check_scan, Verifier};
use crate::{max_key, median, pool_config, KindLayers, Layers, Outcome, RunArgs};
use hart::{Hart, HartConfig, PersistentIndex, PmemPool};
use hart_kv::{Key, Value};
use hart_server::client::Client;
use hart_server::proto::{parse_scan_payload, Request, Response, ST_OK};
use hart_server::{ServerConfig, ServerHandle};
use hart_workloads::{random, value_for, ZipfSampler, SCAN_LEN_MAX};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rate of the open-loop phase, all connections together. Fixed:
/// about half the rate the closed loop saturates at on a 2-CPU host.
pub const OPEN_LOOP_OPS_PER_S: f64 = 40_000.0;
/// Requests in flight per connection in the closed-loop phase.
pub const WINDOW: usize = 16;
/// GET share of the YCSB-A mix, in percent.
const GET_PCT: u32 = 50;
const ZIPF_THETA: f64 = 0.99;
/// Every 64th scan is compared row by row with a `BTreeMap` oracle.
const ORACLE_EVERY: usize = 64;
/// Recoveries after shutdown; `recover_s` is their median.
const RECOVERIES: usize = 25;
/// Rounds of open loop, closed loop and probes; spreading each kind of
/// sample over the whole run keeps one slow second of the host from
/// deciding a figure. `ops_per_s` is the median of the closed loops' rates.
const ROUNDS: usize = 10;
/// How long to wait for outstanding replies after a phase ends.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// Value a PUT of version `ver >= 1` writes to key number `idx`.
fn put_value(idx: usize, ver: u32) -> Value {
    Value::from_u64(((ver as u64) << 32) | idx as u64)
}

/// Version a stored value encodes: 0 for the preloaded `value_for`.
fn version_of(key: &Key, idx: usize, bytes: &[u8]) -> Option<u32> {
    if bytes == value_for(key).as_slice() {
        return Some(0);
    }
    let v = u64::from_le_bytes(bytes.try_into().ok()?);
    let expect_bytes = Value::from_u64(v);
    (expect_bytes.as_slice() == bytes && (v & 0xFFFF_FFFF) as usize == idx)
        .then_some((v >> 32) as u32)
}

/// Expected value of key `idx` at version `ver`.
fn value_at(key: &Key, idx: usize, ver: u32) -> Value {
    if ver == 0 {
        value_for(key)
    } else {
        put_value(idx, ver)
    }
}

/// One connection's key partition and what it has written.
struct Part {
    /// Global indices of the preloaded keys this connection owns.
    idx: Vec<usize>,
    /// Per global index (sparse): highest acknowledged / sent version.
    acked: Vec<u32>,
    sent: Vec<u32>,
    /// Fresh keys this connection inserts (and deletes) in the probes.
    fresh: Vec<Key>,
    zipf: ZipfSampler,
}

/// What a request was, for matching its reply.
#[derive(Clone, Copy)]
enum Pending {
    Get { idx: usize, lo: u32, hi: u32 },
    Put { idx: usize, ver: u32 },
}

/// One connection's view of a phase.
struct Conn<'a> {
    client: Client,
    part: &'a mut Part,
    keys: &'a [Key],
    rng: StdRng,
    conn_no: u32,
    v: Verifier,
    tracer: Option<Tracer>,
}

/// Per-connection results of a phase.
#[derive(Default)]
struct PhaseLat {
    lat: [Samples; 5],
    /// From the actual send (not the schedule), summed, per kind.
    sent_ns: [f64; 5],
    late: Samples,
    /// Closed loop: completions before the phase's end time.
    in_window: u64,
    done: u64,
    rows: u64,
    scans: u64,
}

impl Conn<'_> {
    /// A Zipfian key of this partition, by global index.
    fn zipf_key(&mut self) -> usize {
        self.part.idx[self.part.zipf.sample(&mut self.rng)]
    }

    fn get(&self, idx: usize) -> (Request, Pending, OpKind) {
        let key = self.keys[idx].as_slice().to_vec();
        let p = Pending::Get {
            idx,
            lo: self.part.acked[idx],
            hi: self.part.sent[idx],
        };
        (Request::Get { key }, p, OpKind::Search)
    }

    fn put(&mut self, idx: usize) -> (Request, Pending, OpKind) {
        let key = self.keys[idx].as_slice().to_vec();
        let ver = self.part.sent[idx] + 1;
        self.part.sent[idx] = ver;
        let value = put_value(idx, ver).as_slice().to_vec();
        let p = Pending::Put { idx, ver };
        (Request::Put { key, value }, p, OpKind::Update)
    }

    /// A YCSB-A request: GET or PUT of a Zipfian key of this partition.
    fn draw(&mut self) -> (Request, Pending, OpKind) {
        let idx = self.zipf_key();
        if self.rng.gen_range(0..100) < GET_PCT {
            self.get(idx)
        } else {
            self.put(idx)
        }
    }

    /// Check a GET/PUT reply against what was sent.
    fn settle(&mut self, p: Pending, r: &Response) {
        let ok = r.status == ST_OK;
        match p {
            Pending::Get { idx, lo, hi } => {
                let key = &self.keys[idx];
                let got = ok
                    .then(|| r.payload.split_first())
                    .flatten()
                    .filter(|(n, rest)| **n as usize == rest.len())
                    .and_then(|(_, v)| version_of(key, idx, v));
                self.v.expect(got.is_some_and(|g| lo <= g && g <= hi), || {
                    format!(
                        "GET {key:?}: status {} version {got:?}, want {lo}..={hi}",
                        r.status
                    )
                });
            }
            Pending::Put { idx, ver } => {
                if ok {
                    let a = &mut self.part.acked[idx];
                    *a = (*a).max(ver);
                }
                let key = &self.keys[idx];
                self.v
                    .expect(ok, || format!("PUT {key:?}: status {}", r.status));
            }
        }
    }

    fn span(&mut self, kind: OpKind, id: u64, start: Instant, end: Instant) {
        if let Some(t) = self.tracer.as_mut() {
            let req = (self.conn_no << 28) | (id as u32 & 0x0FFF_FFFF);
            t.op(kind, 0, req, start, end);
            t.charge_self(end.elapsed().as_nanos() as u64);
        }
    }

    /// Open loop: request `i` is due at `start + i / rate`; latency runs
    /// from the due time, so a stalled generator is charged for it.
    /// Between sends the thread sleeps in `ppoll` until a reply arrives or
    /// the next request is due, so it neither spins nor sends late.
    fn open_loop(&mut self, rate: f64, dur: Duration) -> io::Result<PhaseLat> {
        sys::fine_timer_slack();
        let mut out = PhaseLat::default();
        let interval = Duration::from_secs_f64(1.0 / rate);
        let mut pending: BTreeMap<u64, (Pending, OpKind, Instant, Instant)> = BTreeMap::new();
        let start = Instant::now();
        let end = start + dur;
        let mut due = start;
        loop {
            while sys::wait_readable(self.client.stream(), Duration::ZERO)? {
                let r = self.client.recv()?;
                let at = Instant::now();
                let Some((p, kind, due_at, sent_at)) = pending.remove(&r.req_id) else {
                    self.v
                        .expect(false, || format!("unexpected reply id {}", r.req_id));
                    continue;
                };
                self.settle(p, &r);
                out.lat[kind.idx()].push((at - due_at).as_nanos() as u64);
                out.sent_ns[kind.idx()] += (at - sent_at).as_nanos() as f64;
                out.done += 1;
                self.span(kind, r.req_id, sent_at, at);
            }
            let now = Instant::now();
            if due < end && now >= due {
                let (req, p, kind) = self.draw();
                let sent_at = Instant::now();
                let id = self.client.send(&req)?;
                out.late.push((sent_at - due).as_nanos() as u64);
                pending.insert(id, (p, kind, due, sent_at));
                due += interval;
                continue;
            }
            if due >= end && pending.is_empty() {
                break;
            }
            if now > end + DRAIN_TIMEOUT {
                let missing = pending.len();
                self.v
                    .expect(false, || format!("{missing} open-loop replies missing"));
                break;
            }
            let wait = if due < end {
                due - now
            } else {
                Duration::from_millis(10)
            };
            sys::wait_readable(self.client.stream(), wait)?;
        }
        Ok(out)
    }

    /// Closed loop: keep `window` requests in flight for `dur`.
    fn closed_loop(&mut self, window: usize, dur: Duration) -> io::Result<PhaseLat> {
        let mut out = PhaseLat::default();
        let mut pending: BTreeMap<u64, (Pending, OpKind, Instant)> = BTreeMap::new();
        let end = Instant::now() + dur;
        loop {
            while pending.len() < window && Instant::now() < end {
                let (req, p, kind) = self.draw();
                let at = Instant::now();
                let id = self.client.send(&req)?;
                pending.insert(id, (p, kind, at));
            }
            if pending.is_empty() {
                break;
            }
            let r = self.client.recv()?;
            let at = Instant::now();
            match pending.remove(&r.req_id) {
                Some((p, kind, sent_at)) => {
                    self.settle(p, &r);
                    out.lat[kind.idx()].push((at - sent_at).as_nanos() as u64);
                    out.done += 1;
                    out.in_window += u64::from(at < end);
                    self.span(kind, r.req_id, sent_at, at);
                }
                None => self
                    .v
                    .expect(false, || format!("unexpected reply id {}", r.req_id)),
            }
        }
        Ok(out)
    }

    /// One request at a time, timed from send to reply.
    fn call(&mut self, kind: OpKind, req: &Request, out: &mut PhaseLat) -> io::Result<Response> {
        let a = Instant::now();
        let id = self.client.send(req)?;
        let r = self.client.recv()?;
        let b = Instant::now();
        if r.req_id != id {
            self.v
                .expect(false, || format!("reply id {} for request {id}", r.req_id));
        }
        out.lat[kind.idx()].push((b - a).as_nanos() as u64);
        out.sent_ns[kind.idx()] += (b - a).as_nanos() as f64;
        out.done += 1;
        self.span(kind, id, a, b);
        Ok(r)
    }

    /// A probe of `n` single ops of one kind; inserts and deletes use the
    /// fresh keys from index `first` on.
    fn probe(
        &mut self,
        kind: OpKind,
        first: usize,
        n: usize,
        oracle: Option<&BTreeMap<Key, Value>>,
    ) -> io::Result<PhaseLat> {
        let mut out = PhaseLat::default();
        for i in 0..n {
            match kind {
                OpKind::Search | OpKind::Update => {
                    let idx = self.zipf_key();
                    let (req, p, _) = if kind == OpKind::Search {
                        self.get(idx)
                    } else {
                        self.put(idx)
                    };
                    let r = self.call(kind, &req, &mut out)?;
                    self.settle(p, &r);
                }
                OpKind::Insert | OpKind::Delete => {
                    let key = self.part.fresh[first + i];
                    let k = key.as_slice().to_vec();
                    let req = if kind == OpKind::Insert {
                        let value = value_for(&key).as_slice().to_vec();
                        Request::Put { key: k, value }
                    } else {
                        Request::Del { key: k }
                    };
                    let r = self.call(kind, &req, &mut out)?;
                    self.v.expect(r.status == ST_OK, || {
                        format!("{} {key:?}: status {}", kind.name(), r.status)
                    });
                }
                OpKind::Scan => {
                    let idx = self.part.idx[self.rng.gen_range(0..self.part.idx.len())];
                    let start = self.keys[idx];
                    let end = max_key();
                    let limit = self.rng.gen_range(1..=SCAN_LEN_MAX);
                    let req = Request::Scan {
                        start: start.as_slice().to_vec(),
                        end: end.as_slice().to_vec(),
                        limit,
                    };
                    let r = self.call(kind, &req, &mut out)?;
                    let rows = (r.status == ST_OK)
                        .then(|| parse_scan_payload(&r.payload).ok())
                        .flatten()
                        .and_then(|rows| {
                            rows.into_iter()
                                .map(|(k, v)| Some((Key::new(&k).ok()?, Value::new(&v).ok()?)))
                                .collect::<Option<Vec<_>>>()
                        });
                    match rows {
                        Some(rows) => {
                            out.scans += 1;
                            out.rows += rows.len() as u64;
                            let o = oracle.filter(|_| i % ORACLE_EVERY == 0);
                            self.v
                                .check(check_scan(&rows, &start, &end, limit as usize, o));
                        }
                        None => self
                            .v
                            .expect(false, || format!("SCAN {start:?}: status {}", r.status)),
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Run `f` on every client, at once on one thread each when `together`,
/// else one client after the other; merge results.
fn on_all<F>(clients: &mut [Conn<'_>], together: bool, f: F) -> io::Result<PhaseLat>
where
    F: Fn(&mut Conn<'_>) -> io::Result<PhaseLat> + Sync,
{
    let results: Vec<io::Result<PhaseLat>> = if together {
        std::thread::scope(|s| {
            let hs: Vec<_> = clients.iter_mut().map(|c| s.spawn(|| f(c))).collect();
            hs.into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    } else {
        clients.iter_mut().map(&f).collect()
    };
    let mut all = PhaseLat::default();
    for r in results {
        all.absorb(r?);
    }
    Ok(all)
}

impl PhaseLat {
    fn absorb(&mut self, r: PhaseLat) {
        for (a, b) in self.lat.iter_mut().zip(r.lat) {
            a.extend(b);
        }
        for (a, b) in self.sent_ns.iter_mut().zip(r.sent_ns) {
            *a += b;
        }
        self.late.extend(r.late);
        self.in_window += r.in_window;
        self.done += r.done;
        self.rows += r.rows;
        self.scans += r.scans;
    }
}

/// The engine's configuration under the server: group commit on.
fn hart_config() -> HartConfig {
    HartConfig {
        group_commit: true,
        ..HartConfig::default()
    }
}

/// Set-up products kept from the last set-up.
struct Setup {
    keys: Vec<Key>,
    pool: Arc<PmemPool>,
    hart: Arc<Hart>,
    server: ServerHandle,
}

fn set_up(a: &RunArgs, reserve: usize) -> Setup {
    let n = a.server_keys();
    let keys = random(n + reserve, a.seed);
    let pool = Arc::new(PmemPool::new(pool_config(n + reserve)));
    let hart = Arc::new(Hart::create(Arc::clone(&pool), hart_config()).expect("create"));
    for k in &keys[..n] {
        hart.insert(k, &value_for(k)).expect("preload insert");
    }
    let server = hart_server::start(
        Arc::clone(&hart),
        ServerConfig {
            group_commit: true,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    Setup {
        keys,
        pool,
        hart,
        server,
    }
}

/// Counters at a phase boundary, from the server's snapshot.
fn counts(server: &ServerHandle) -> ObsCounts {
    ObsCounts::of(&server.obs_snapshot())
}

pub fn run(a: &RunArgs) -> Outcome {
    match run_inner(a) {
        Ok(o) => o,
        Err(e) => {
            let mut v = Verifier::default();
            v.check(Err(format!("client i/o error: {e}")));
            Outcome {
                e2e: Metrics::default(),
                layer: Metrics::default(),
                verifier: v,
                facts: Vec::new(),
                tracer: None,
            }
        }
    }
}

fn run_inner(a: &RunArgs) -> io::Result<Outcome> {
    let n = a.server_keys();
    let conns = a.threads.max(1);
    let per_round = (a.probe_ops() / 4 / conns).div_ceil(ROUNDS);
    let reserve = per_round * ROUNDS * conns;
    let t0 = Instant::now();

    let (setup, setup_s) = crate::set_up(|| set_up(a, reserve));
    let Setup {
        keys,
        pool,
        hart,
        server,
    } = setup;
    let mut e2e = Metrics::default();
    e2e.set("setup_s", setup_s, "s");
    let mut tracer = a.trace.then(|| Tracer::new(t0));
    if let Some(tr) = tracer.as_mut() {
        tr.phase("preload", t0, Instant::now());
    }
    let mut facts = vec![("keys", n.to_string())];
    crate::footprint(&hart, n, &mut e2e, &mut facts);
    facts.extend([
        ("connections", conns.to_string()),
        ("open_loop_ops_per_s", OPEN_LOOP_OPS_PER_S.to_string()),
        ("window", WINDOW.to_string()),
    ]);
    let mut layers = Layers {
        leaf_occupancy: hart.obs_snapshot().alloc.leaf.occupancy,
        ..Layers::default()
    };
    drop(hart);

    let mut parts: Vec<Part> = (0..conns)
        .map(|c| {
            let idx: Vec<usize> = (c..n).step_by(conns).collect();
            Part {
                zipf: ZipfSampler::new(idx.len(), ZIPF_THETA),
                idx,
                acked: vec![0; n],
                sent: vec![0; n],
                fresh: keys[n..].iter().skip(c).step_by(conns).copied().collect(),
            }
        })
        .collect();
    let addr = server.local_addr();
    let mut clients = Vec::with_capacity(conns);
    for (c, part) in parts.iter_mut().enumerate() {
        clients.push(Conn {
            client: Client::connect(addr)?,
            part,
            keys: &keys,
            rng: StdRng::seed_from_u64(a.seed ^ (0xA11CE + c as u64)),
            conn_no: c as u32,
            v: Verifier::default(),
            tracer: a.trace.then(|| Tracer::new(t0)),
        });
    }

    // Run one phase on the clients; trace it as `name`.
    let phase = |clients: &mut [Conn<'_>],
                 tracer: &mut Option<Tracer>,
                 name: &'static str,
                 together: bool,
                 f: &(dyn Fn(&mut Conn<'_>) -> io::Result<PhaseLat> + Sync)|
     -> io::Result<(PhaseLat, ObsCounts)> {
        let before = counts(&server);
        let start = Instant::now();
        let out = on_all(clients, together, f)?;
        let end = Instant::now();
        let d = counts(&server).minus(&before);
        if let Some(tr) = tracer.as_mut() {
            let id = tr.phase(name, start, end);
            for c in clients.iter_mut() {
                if let Some(ct) = c.tracer.take() {
                    tr.absorb_ops(ct, id);
                }
                c.tracer = Some(Tracer::new(t0));
            }
        }
        Ok((out, d))
    };

    let seg = Duration::from_secs_f64(a.seconds / 2.0 / ROUNDS as f64);
    let rate = OPEN_LOOP_OPS_PER_S / conns as f64;
    let (mut open, mut closed) = (PhaseLat::default(), PhaseLat::default());
    let (mut open_d, mut closed_d) = (ObsCounts::default(), ObsCounts::default());
    let mut probes: [(PhaseLat, ObsCounts); 5] = Default::default();
    let mut rates = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let (out, d) = phase(&mut clients, &mut tracer, "open-loop", true, &|c| {
            c.open_loop(rate, seg)
        })?;
        open.absorb(out);
        open_d.add(&d);
        let (out, d) = phase(&mut clients, &mut tracer, "closed-loop", true, &|c| {
            c.closed_loop(WINDOW, seg)
        })?;
        rates.push(out.in_window as f64 / seg.as_secs_f64());
        closed.absorb(out);
        closed_d.add(&d);

        let first = round * per_round;
        let mut probe = |clients: &mut [Conn<'_>],
                         tracer: &mut Option<Tracer>,
                         kind: OpKind,
                         oracle: Option<&BTreeMap<Key, Value>>|
         -> io::Result<()> {
            let (out, d) = phase(clients, tracer, kind.name(), false, &|c| {
                c.probe(kind, first, per_round, oracle)
            })?;
            let p = &mut probes[kind.idx()];
            p.0.absorb(out);
            p.1.add(&d);
            Ok(())
        };
        for kind in [OpKind::Search, OpKind::Update, OpKind::Insert] {
            probe(&mut clients, &mut tracer, kind, None)?;
        }
        // Between the insert and delete probes nothing writes: build the
        // oracle of the acknowledged state and scan against it.
        let mut oracle: BTreeMap<Key, Value> = BTreeMap::new();
        for c in clients.iter() {
            for &i in &c.part.idx {
                oracle.insert(keys[i], value_at(&keys[i], i, c.part.acked[i]));
            }
            for k in &c.part.fresh[first..first + per_round] {
                oracle.insert(*k, value_for(k));
            }
        }
        probe(&mut clients, &mut tracer, OpKind::Scan, Some(&oracle))?;
        probe(&mut clients, &mut tracer, OpKind::Delete, None)?;
        let g = server.obs_snapshot().ebr.pending_garbage;
        layers.pending_garbage_peak = layers.pending_garbage_peak.max(g);
    }

    let mut v = Verifier::default();
    let final_snap = server.obs_snapshot();
    for c in clients {
        v.absorb(c.v);
    }
    server.shutdown();

    // Recover the pool: it must hold exactly the acknowledged state.
    let (hart, recover_s) = crate::recover(
        &pool,
        hart_config(),
        a,
        RECOVERIES,
        n,
        tracer.as_mut(),
        &mut layers,
        &mut v,
    );
    for part in &parts {
        for &i in &part.idx {
            let want = value_at(&keys[i], i, part.acked[i]);
            let got = hart.search(&keys[i]);
            v.check(crate::verify::check_search(&keys[i], got, want));
        }
    }

    // End-to-end latency of every op comes from the probes (one request in
    // flight); the open loop's swings with the host's load far more than
    // any bound could absorb, so its latencies are per-layer metrics.
    let mut lat: [Samples; 5] = Default::default();
    for kind in OpKind::ALL {
        lat[kind.idx()] = std::mem::take(&mut probes[kind.idx()].0.lat[kind.idx()]);
    }
    crate::report_p50s(&lat, &mut e2e);
    e2e.set("recover_s", recover_s, "s");
    e2e.set("ops_per_s", median(rates), "1/s");
    facts.push(("open_loop_ops", open.done.to_string()));
    facts.push(("closed_loop_ops", closed.done.to_string()));

    // Per-layer metrics.
    let layer = match tracer.as_ref() {
        None => Metrics::default(),
        Some(tr) => {
            for kind in OpKind::ALL {
                let (out, d) = &probes[kind.idx()];
                let ops = out.done;
                let (en, etotal) = d.sampled[kind.idx()];
                let engine_mean = if en == 0 { 0.0 } else { etotal / en as f64 };
                layers.kinds[kind.idx()] = KindLayers {
                    ops,
                    pm: d.pm,
                    allocs: d.allocs,
                    retires: d.retires,
                    ulog: d.ulog,
                    // The server hides the engine call from the client; its
                    // own sampled mean stands in for the outside time.
                    outside_ns: engine_mean * ops as f64,
                    engine: (en, etotal),
                };
                if matches!(kind, OpKind::Insert | OpKind::Delete | OpKind::Scan) && ops > 0 {
                    layers.self_us[kind.idx()] =
                        (out.sent_ns[kind.idx()] / ops as f64 - engine_mean) / 1e3;
                }
                if kind == OpKind::Scan {
                    layers.scans = out.scans;
                    layers.scan_rows = out.rows;
                    layers.scan_truncated = d.scan_truncated;
                }
            }
            for kind in [OpKind::Search, OpKind::Update] {
                let cnt = open.lat[kind.idx()].len() as f64;
                let engine = open_d.sampled_mean_ns(kind);
                if cnt > 0.0 {
                    layers.self_us[kind.idx()] = (open.sent_ns[kind.idx()] / cnt - engine) / 1e3;
                }
            }
            let mix = [open_d, closed_d];
            let gets = (open.lat[OpKind::Search.idx()].len()
                + closed.lat[OpKind::Search.idx()].len()) as u64;
            let puts = (open.lat[OpKind::Update.idx()].len()
                + closed.lat[OpKind::Update.idx()].len()) as u64;
            layers.gets = gets;
            layers.puts = puts;
            for d in mix {
                layers.optimistic_retries += d.optimistic_retries;
                layers.lock_fallbacks += d.lock_fallbacks;
                layers.write_wait_ns += d.write_wait_ns;
                layers.group_flushes += d.group_flushes;
                layers.group_ops += d.group_ops;
                layers.persists_deferred += d.persists_deferred;
            }
            layers.busy_rejections = final_snap.server.busy_rejections;
            layers.inflight_peak = final_snap.server.inflight_peak;
            layers.late_us_p99 = open.late.quantile_ns(0.99) as f64 / 1e3;
            for (i, kind) in [OpKind::Search, OpKind::Update].into_iter().enumerate() {
                let lat = &open.lat[kind.idx()];
                layers.open_us[2 * i] = lat.sliced_quantile_ns(0.50) / 1e3;
                layers.open_us[2 * i + 1] = lat.sliced_quantile_ns(0.99) / 1e3;
            }
            layers.spans = tr.span_count() as u64;
            layers.tracer_ns = tr.self_ns();
            layers.traced_wall_ns = tr
                .phases()
                .iter()
                .filter(|p| p.name != "preload")
                .map(|p| p.end_ns - p.start_ns)
                .sum();
            let mut layer = crate::layer_metrics(&layers, v.fail_ratio());
            crate::report_p99s(&lat, &mut layer);
            layer
        }
    };
    facts.push((
        "busy_rejections",
        final_snap.server.busy_rejections.to_string(),
    ));
    Ok(Outcome {
        e2e,
        layer,
        verifier: v,
        facts,
        tracer,
    })
}

/// The two Linux calls the open loop needs and `std` does not wrap.
mod sys {
    use std::io;
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const POLLIN: i16 = 1;
    const PR_SET_TIMERSLACK: i32 = 29;

    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
        fn prctl(option: i32, ...) -> i32;
    }

    /// Let this thread's timed waits end within a microsecond or so of
    /// their deadline instead of the default 50 us slack.
    pub fn fine_timer_slack() {
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and only
        // changes the calling thread's timer slack; no memory is passed.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1u64);
        }
    }

    /// Wait until `s` is readable (or closed) or `timeout` passes; true
    /// when it is.
    pub fn wait_readable(s: &TcpStream, timeout: Duration) -> io::Result<bool> {
        let mut fd = PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let ts = Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: timeout.subsec_nanos() as i64,
        };
        // SAFETY: `fd` and `ts` are live, properly laid out `struct pollfd`
        // and `struct timespec` values for the duration of the call, nfds
        // is 1, and a null sigmask leaves the signal mask unchanged.
        let r = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
        if r < 0 {
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        Ok(r > 0)
    }
}
