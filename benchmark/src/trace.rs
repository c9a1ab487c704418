//! Spans recorded from the benchmark's own code, around each call into a
//! layer's public functions.
//!
//! One `Tracer` per thread, a buffer allocated before the window starts,
//! nothing shared and nothing written until the run is over. A tracer
//! that is off costs one branch per call, which is why the untraced
//! windows can run the same driver code.

use std::collections::BTreeMap;
use std::time::Instant;

/// `parent` value of a root span, and the id handed out while tracing is
/// off or the buffer is full.
pub const NO_SPAN: u32 = u32::MAX;

/// Spans kept per thread; later ones are counted and dropped.
const CAPACITY: usize = 1 << 18;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op_id: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn off() -> Self {
        Self {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// A recording tracer; all tracers of a run share `epoch` so their
    /// spans sit on one time axis.
    pub fn on(epoch: Instant) -> Self {
        Self {
            on: true,
            epoch,
            spans: Vec::with_capacity(CAPACITY),
            dropped: 0,
        }
    }

    pub fn new(on: bool, epoch: Instant) -> Self {
        if on {
            Self::on(epoch)
        } else {
            Self::off()
        }
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: u32, op_id: u64) -> u32 {
        if !self.on {
            return NO_SPAN;
        }
        if self.spans.len() == CAPACITY {
            self.dropped += 1;
            return NO_SPAN;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as u32
    }

    #[inline]
    pub fn end(&mut self, id: u32) {
        if id != NO_SPAN {
            self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Times `f` as one span.
    #[inline]
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        op_id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, op_id);
        let r = f();
        self.end(id);
        r
    }
}

/// The spans of every thread on one list, parents re-based.
#[derive(Default)]
pub struct TraceLog {
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl TraceLog {
    pub fn absorb(&mut self, t: Tracer) {
        self.append(TraceLog {
            spans: t.spans,
            dropped: t.dropped,
        });
    }

    /// Adds `other`'s spans after this log's, parents re-based.
    pub fn append(&mut self, other: TraceLog) {
        let base = self.spans.len() as u32;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_SPAN {
                s.parent += base;
            }
            s
        }));
    }

    /// Per span name: count, total time, and self time (duration minus
    /// the part its direct children cover), in nanoseconds.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_SPAN {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(*covered);
        }
        out
    }

    /// Mean duration of the spans called `name`, in nanoseconds.
    pub fn mean_ns(&self, name: &str) -> Option<f64> {
        let (mut n, mut total) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.name == name) {
            n += 1;
            total += s.end_ns - s.start_ns;
        }
        (n > 0).then(|| total as f64 / n as f64)
    }
}
