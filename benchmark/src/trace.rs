//! The span recorder and the counting allocator.
//!
//! Spans are recorded from the benchmark's own files, around the calls it
//! makes into a layer's public functions: name, start, end, the span that
//! caused it, and the id of the operation it belongs to. They are kept in
//! memory and written out once, when the run ends. A layer's **self time**
//! is its span's duration minus the part of that interval its child spans
//! cover.
//!
//! A disabled recorder costs one branch per call site, and the allocator
//! one thread-local load per allocation, so untraced runs pay nothing
//! that shows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

// Per thread, so a recorder only ever sees its own thread's allocations
// (the benchmark is single-threaded; `cargo test` is not). Const-initialised
// `Cell`s of plain integers need no lazy set-up and no destructor, which is
// what makes them safe to touch from inside the allocator.
thread_local! {
    /// Allocation calls (`alloc` + `realloc`) seen while counting was on.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Whether allocation calls are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

#[inline]
fn count_one() {
    if COUNTING.get() {
        ALLOCS.set(ALLOCS.get() + 1);
    }
}

/// The system allocator plus a gated call counter.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr`/`layout` describe a live block of this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `<crate>.<module>.<function>` of the call the span surrounds.
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one; `u32::MAX` for a root.
    pub parent: u32,
    /// The operation (packet burst, slice, control op) the span belongs to.
    pub op: u32,
}

impl Span {
    /// Wall duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Open(u32);

const OFF: Open = Open(u32::MAX);
const ROOT: u32 = u32::MAX;

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// The in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Innermost open span (the parent of the next `begin`).
    current: u32,
    allocs: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A disabled recorder.
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            current: ROOT,
            allocs: 0,
        }
    }

    /// Turns recording (spans and allocation counting) on or off. Call
    /// only between operations, with no span open.
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert_eq!(self.current, ROOT, "toggled with a span open");
        if self.on && !on {
            COUNTING.set(false);
            self.allocs += ALLOCS.replace(0);
        }
        if on && !self.on {
            ALLOCS.set(0);
            COUNTING.set(true);
        }
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` for operation `op`, child of the
    /// innermost open span.
    #[inline]
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.on {
            return OFF;
        }
        // The recorder's own growth must not be billed to the layer.
        COUNTING.set(false);
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.current,
            op: op as u32,
        });
        COUNTING.set(true);
        self.current = idx;
        let now = self.now_ns();
        self.spans[idx as usize].start_ns = now;
        Open(idx)
    }

    /// Closes a span opened with [`Tracer::begin`].
    #[inline]
    pub fn end(&mut self, open: Open) {
        if open == OFF {
            return;
        }
        let now = self.now_ns();
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = now;
        self.current = span.parent;
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Allocation calls counted while recording was on (the recorder's
    /// own excluded).
    pub fn allocs(&self) -> u64 {
        self.allocs + if self.on { ALLOCS.get() } else { 0 }
    }
}

/// Read-only view of a finished recording: per-name totals, computed
/// once.
#[derive(Debug)]
pub struct Ledger<'a> {
    tracer: &'a Tracer,
    totals: BTreeMap<&'static str, NameTotals>,
}

impl<'a> Ledger<'a> {
    /// Summarises the spans of `tracer`.
    pub fn new(tracer: &'a Tracer) -> Ledger<'a> {
        Ledger {
            tracer,
            totals: totals_of(tracer.spans()),
        }
    }

    /// Totals of the spans named `name` (zeros when never recorded).
    pub fn of(&self, name: &str) -> NameTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Every name with its totals.
    pub fn totals(&self) -> &BTreeMap<&'static str, NameTotals> {
        &self.totals
    }

    /// Total ns under `name` per `denominator` units of work.
    pub fn ns_per(&self, name: &str, denominator: u64) -> f64 {
        ratio(self.of(name).total_ns, denominator)
    }

    /// Mean duration of one `name` span.
    pub fn ns_mean(&self, name: &str) -> f64 {
        let t = self.of(name);
        ratio(t.total_ns, t.count)
    }

    /// Durations of every `name` span.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let spans = self.tracer.spans().iter();
        spans
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-name totals of `spans`; self time = duration − Σ direct children
/// (children never overlap: the recorder is single-threaded and nested).
pub fn totals_of(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(child_ns[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // op [0,100) ── txn [10,60) ── wal [20,30), wal [40,55)
        //            └─ tick [70,90)
        let spans = [
            span("op", 0, 100, ROOT),
            span("txn", 10, 60, 0),
            span("wal", 20, 30, 1),
            span("wal", 40, 55, 1),
            span("tick", 70, 90, 0),
        ];
        let t = totals_of(&spans);
        assert_eq!(t["op"].total_ns, 100);
        assert_eq!(t["op"].self_ns, 100 - 50 - 20);
        assert_eq!(t["txn"].self_ns, 50 - 10 - 15);
        assert_eq!(
            t["wal"],
            NameTotals {
                count: 2,
                total_ns: 25,
                self_ns: 25
            }
        );
        assert_eq!(t["tick"].self_ns, 20);
        // Self times partition the root's duration.
        let sum: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn recorder_nests_by_call_order_and_is_free_when_off() {
        let mut tr = Tracer::new();
        let off = tr.begin("ignored", 0);
        tr.end(off);
        assert!(tr.spans().is_empty());

        tr.set_enabled(true);
        let op = tr.begin("op", 7);
        let inner = tr.begin("inner", 7);
        std::hint::black_box(1 + 1);
        tr.end(inner);
        tr.end(op);
        tr.set_enabled(false);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("op", ROOT, 7));
        assert_eq!((s[1].name, s[1].parent), ("inner", 0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn allocations_are_counted_only_while_recording() {
        let mut tr = Tracer::new();
        let v: Vec<u64> = Vec::with_capacity(64);
        std::hint::black_box(&v);
        assert_eq!(tr.allocs(), 0);
        tr.set_enabled(true);
        let open = tr.begin("alloc", 0);
        let w: Vec<u64> = Vec::with_capacity(128);
        std::hint::black_box(&w);
        tr.end(open);
        tr.set_enabled(false);
        assert!(tr.allocs() >= 1);
    }
}
