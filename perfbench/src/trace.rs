//! The traced run's instruments, all outside the program: spans around
//! each call into a layer's public function, and counter snapshots read
//! from what the layers already export (`PmemPool::stats()`,
//! `Hart::obs_snapshot()`, `ServerHandle::obs_snapshot()`).

use hart_obs::ObsSnapshot;
use hart_pm::PmStatsSnapshot;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Operation kinds, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Insert,
    Search,
    Update,
    Delete,
    Scan,
}

impl OpKind {
    pub const ALL: [OpKind; 5] = [
        OpKind::Insert,
        OpKind::Search,
        OpKind::Update,
        OpKind::Delete,
        OpKind::Scan,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Insert => "insert",
            OpKind::Search => "search",
            OpKind::Update => "update",
            OpKind::Delete => "delete",
            OpKind::Scan => "scan",
        }
    }

    pub fn idx(self) -> usize {
        self as usize
    }
}

/// A phase: preload, recovery, one op phase, or a server phase.
#[derive(Clone, Debug)]
pub struct PhaseSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One call into a layer. 24 bytes, so a million-key run fits in memory.
#[derive(Clone, Copy, Debug)]
struct OpSpan {
    start_ns: u64,
    dur_ns: u32,
    /// Request id (server: connection in the top 4 bits, sequence below).
    req: u32,
    /// Index of the enclosing [`PhaseSpan`].
    parent: u32,
    kind: u16,
}

/// Spans kept in memory and written out when the run ends.
pub struct Tracer {
    t0: Instant,
    phases: Vec<PhaseSpan>,
    ops: Vec<OpSpan>,
    /// Time spent inside the tracer's own bookkeeping.
    self_ns: u64,
}

impl Tracer {
    pub fn new(t0: Instant) -> Tracer {
        Tracer {
            t0,
            phases: Vec::new(),
            ops: Vec::new(),
            self_ns: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Record a finished phase; returns its id, the parent of its ops.
    pub fn phase(&mut self, name: &'static str, start: Instant, end: Instant) -> u32 {
        let span = PhaseSpan {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.phases.push(span);
        (self.phases.len() - 1) as u32
    }

    /// Id the next [`Tracer::phase`] call will return, for ops recorded
    /// while the phase is still open.
    pub fn next_phase_id(&self) -> u32 {
        self.phases.len() as u32
    }

    /// Record one op span.
    #[inline]
    pub fn op(&mut self, kind: OpKind, parent: u32, req: u32, start: Instant, end: Instant) {
        let start_ns = self.ns(start);
        let dur_ns = end
            .saturating_duration_since(start)
            .as_nanos()
            .min(u32::MAX as u128) as u32;
        self.ops.push(OpSpan {
            start_ns,
            dur_ns,
            req,
            parent,
            kind: kind as u16,
        });
    }

    /// Charge bookkeeping time measured by the caller.
    #[inline]
    pub fn charge_self(&mut self, ns: u64) {
        self.self_ns += ns;
    }

    pub fn self_ns(&self) -> u64 {
        self.self_ns
    }

    pub fn span_count(&self) -> usize {
        self.phases.len() + self.ops.len()
    }

    pub fn phases(&self) -> &[PhaseSpan] {
        &self.phases
    }

    /// Append another tracer's spans (a client thread's), re-parented
    /// onto `parent` and re-based onto this tracer's clock.
    pub fn absorb_ops(&mut self, other: Tracer, parent: u32) {
        let shift = other.t0.saturating_duration_since(self.t0).as_nanos() as u64;
        self.self_ns += other.self_ns;
        self.ops.extend(other.ops.into_iter().map(|mut s| {
            s.start_ns += shift;
            s.parent = parent;
            s
        }));
    }

    /// Write the op spans as fixed 24-byte little-endian records
    /// (`start_ns u64, dur_ns u32, req u32, parent u32, kind u16, pad u16`;
    /// `kind` indexes insert/search/update/delete/scan, `parent` indexes
    /// the phases listed in the result file).
    pub fn write_ops(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.ops {
            let mut rec = [0u8; 24];
            rec[0..8].copy_from_slice(&s.start_ns.to_le_bytes());
            rec[8..12].copy_from_slice(&s.dur_ns.to_le_bytes());
            rec[12..16].copy_from_slice(&s.req.to_le_bytes());
            rec[16..20].copy_from_slice(&s.parent.to_le_bytes());
            rec[20..22].copy_from_slice(&s.kind.to_le_bytes());
            w.write_all(&rec)?;
        }
        w.flush()
    }
}

/// PM event counts from `PmemPool::stats()`, cheap enough to read per op.
#[derive(Clone, Copy, Debug, Default)]
pub struct PmCounts {
    pub persists: u64,
    pub lines_flushed: u64,
    pub read_lines: u64,
    pub read_misses: u64,
    pub write_ns: u64,
    pub read_ns: u64,
    pub alloc_ns: u64,
}

impl PmCounts {
    pub fn of(s: &PmStatsSnapshot) -> PmCounts {
        PmCounts {
            persists: s.persist_calls,
            lines_flushed: s.lines_flushed,
            read_lines: s.read_lines,
            read_misses: s.read_misses,
            write_ns: s.write_extra_ns,
            read_ns: s.read_extra_ns,
            alloc_ns: s.alloc_extra_ns,
        }
    }

    fn zip(&self, o: &PmCounts, f: impl Fn(u64, u64) -> u64) -> PmCounts {
        PmCounts {
            persists: f(self.persists, o.persists),
            lines_flushed: f(self.lines_flushed, o.lines_flushed),
            read_lines: f(self.read_lines, o.read_lines),
            read_misses: f(self.read_misses, o.read_misses),
            write_ns: f(self.write_ns, o.write_ns),
            read_ns: f(self.read_ns, o.read_ns),
            alloc_ns: f(self.alloc_ns, o.alloc_ns),
        }
    }

    pub fn minus(&self, e: &PmCounts) -> PmCounts {
        self.zip(e, |a, b| a - b)
    }

    pub fn add(&mut self, d: &PmCounts) {
        *self = self.zip(d, |a, b| a + b);
    }

    pub fn busy_ns(&self) -> u64 {
        self.write_ns + self.read_ns + self.alloc_ns
    }
}

/// Counters read from an [`ObsSnapshot`] at a phase boundary.
#[derive(Clone, Copy, Debug, Default)]
pub struct ObsCounts {
    pub pm: PmCounts,
    pub persists_deferred: u64,
    pub allocs: u64,
    pub retires: u64,
    pub ulog: u64,
    pub optimistic_retries: u64,
    pub lock_fallbacks: u64,
    pub write_wait_ns: u64,
    pub scan_truncated: u64,
    pub group_flushes: u64,
    pub group_ops: u64,
    /// Per [`OpKind`]: the engine's own sampled latency (samples, total ns).
    pub sampled: [(u64, f64); 5],
}

impl ObsCounts {
    pub fn of(s: &ObsSnapshot) -> ObsCounts {
        let o = &s.ops;
        let sampled = |st: &hart_obs::OpStats| (st.samples, st.mean_ns * st.samples as f64);
        ObsCounts {
            pm: PmCounts {
                persists: s.pm.persist_calls,
                lines_flushed: s.pm.lines_flushed,
                read_lines: s.pm.read_lines,
                read_misses: s.pm.read_misses,
                write_ns: s.pm.write_extra_ns,
                read_ns: s.pm.read_extra_ns,
                alloc_ns: s.pm.alloc_extra_ns,
            },
            persists_deferred: s.group.persists_deferred,
            allocs: s.alloc.allocs,
            retires: s.alloc.retires,
            ulog: s.alloc.ulog_acquisitions,
            optimistic_retries: s.reads.optimistic_retries,
            lock_fallbacks: s.reads.lock_fallbacks,
            write_wait_ns: s.locks.shard_write_wait_ns,
            scan_truncated: s.scan.truncated,
            group_flushes: s.group.flushes,
            group_ops: s.group.ops_committed,
            sampled: [
                sampled(&o.insert),
                sampled(&o.search),
                sampled(&o.update),
                sampled(&o.remove),
                sampled(&o.scan),
            ],
        }
    }

    fn zip(
        &self,
        o: &ObsCounts,
        f: impl Fn(u64, u64) -> u64,
        g: impl Fn(f64, f64) -> f64,
    ) -> ObsCounts {
        let mut sampled = self.sampled;
        for (d, b) in sampled.iter_mut().zip(&o.sampled) {
            *d = (f(d.0, b.0), g(d.1, b.1));
        }
        ObsCounts {
            pm: self.pm.zip(&o.pm, &f),
            persists_deferred: f(self.persists_deferred, o.persists_deferred),
            allocs: f(self.allocs, o.allocs),
            retires: f(self.retires, o.retires),
            ulog: f(self.ulog, o.ulog),
            optimistic_retries: f(self.optimistic_retries, o.optimistic_retries),
            lock_fallbacks: f(self.lock_fallbacks, o.lock_fallbacks),
            write_wait_ns: f(self.write_wait_ns, o.write_wait_ns),
            scan_truncated: f(self.scan_truncated, o.scan_truncated),
            group_flushes: f(self.group_flushes, o.group_flushes),
            group_ops: f(self.group_ops, o.group_ops),
            sampled,
        }
    }

    pub fn minus(&self, e: &ObsCounts) -> ObsCounts {
        self.zip(e, |a, b| a - b, |a, b| a - b)
    }

    pub fn add(&mut self, d: &ObsCounts) {
        *self = self.zip(d, |a, b| a + b, |a, b| a + b);
    }

    /// The engine's own sampled mean latency of `kind`, in ns.
    pub fn sampled_mean_ns(&self, kind: OpKind) -> f64 {
        let (n, total) = self.sampled[kind.idx()];
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }
}
