//! Workspace-wide observability: a dependency-free span tracer, metrics
//! registry, and trace-event switchboard.
//!
//! Every hot layer of the GDSII-Guard flow (routing, placement, STA,
//! NSGA-II, the evaluation pipeline) reports through this one crate
//! instead of per-crate debug flags and one-off stats structs. Three
//! independent facilities:
//!
//! - **Spans** — [`span`] wraps a phase in monotonic wall timing and
//!   aggregates `(count, total_nanos)` per dotted call path
//!   (`"eval.incremental/route.phase_b"`). Nesting is tracked per thread;
//!   aggregation is process-global and thread-safe, so spans recorded
//!   from rayon workers and evaluation threads merge losslessly.
//! - **Metrics** — [`counter`], [`gauge`], and [`histogram`] hand out
//!   cheap atomic-backed handles registered by name
//!   (`"rrr.rounds"`, `"maze.pops"`, `"eval.cache_hits"`). Histograms
//!   use fixed power-of-two log-bucketing.
//! - **Trace events** — [`trace`] replaces the retired `GG_ROUTE_DEBUG` /
//!   `GG_LDA_DEBUG` eprintln paths: each event carries a [`Topic`], and
//!   topics are switched on either programmatically ([`enable`]) or with
//!   the single documented `GG_TRACE=route,lda,…` environment variable.
//!
//! Spans and metrics are **off by default** and gated by one process-wide
//! atomic ([`set_enabled`]): when disabled, a counter bump is a single
//! relaxed load and a span is two monotonic clock reads — unmeasurable on
//! the paths this crate instruments. [`snapshot`] drains an immutable
//! [`MetricsSnapshot`] that renders as a human tree ([`MetricsSnapshot::render`])
//! or machine-readable JSON ([`MetricsSnapshot::to_json`]).
//!
//! # Examples
//!
//! ```
//! obs::set_enabled(true);
//! let hits = obs::counter("doc.cache_hits");
//! let total = obs::span("doc.phase", |_| {
//!     hits.incr();
//!     2 + 2
//! });
//! assert_eq!(total, 4);
//! let snap = obs::snapshot();
//! assert!(snap.counter("doc.cache_hits") >= 1);
//! assert!(snap.span_count("doc.phase") >= 1);
//! obs::set_enabled(false);
//! obs::reset();
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, PoisonError};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Master enable switch (spans + metrics)
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns span timing and metric recording on or off process-wide.
///
/// Off (the default), instrumented code pays one relaxed atomic load per
/// metric touch; no allocation, locking, or clock read happens beyond the
/// two monotonic reads a [`span`] always performs for its handle.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span timing and metric recording are on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Trace topics (the GG_TRACE switchboard)
// ---------------------------------------------------------------------------

/// A trace-event category, replacing the per-crate debug env vars.
///
/// `route` carries the rip-up-and-reroute round trace that used to hide
/// behind `GG_ROUTE_DEBUG`; `lda` carries the LDA/ECO-placement phase
/// timings that used to hide behind `GG_LDA_DEBUG`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topic {
    /// Routing: per-round rip-up-and-reroute records.
    Route,
    /// LDA operator and its ECO placement phases.
    Lda,
    /// Static timing analysis.
    Sta,
    /// NSGA-II exploration.
    Nsga2,
    /// Benchmark harnesses.
    Bench,
}

impl Topic {
    /// Every topic, in display order.
    pub const ALL: [Topic; 5] = [
        Topic::Route,
        Topic::Lda,
        Topic::Sta,
        Topic::Nsga2,
        Topic::Bench,
    ];

    /// The topic's `GG_TRACE` name.
    pub fn name(self) -> &'static str {
        match self {
            Topic::Route => "route",
            Topic::Lda => "lda",
            Topic::Sta => "sta",
            Topic::Nsga2 => "nsga2",
            Topic::Bench => "bench",
        }
    }

    /// Parses a `GG_TRACE` topic name.
    pub fn from_name(s: &str) -> Option<Topic> {
        Topic::ALL
            .into_iter()
            .find(|t| t.name().eq_ignore_ascii_case(s))
    }

    fn bit(self) -> u32 {
        1 << self as u32
    }
}

static TRACE_TOPICS: AtomicU32 = AtomicU32::new(0);
static TRACE_ENV_INIT: Once = Once::new();

/// Folds the `GG_TRACE` environment variable (comma-separated topic
/// names, or `all`) into the active topic set, once per process. Called
/// lazily from [`trace_enabled`]; unknown names are diagnosed, not fatal.
fn init_trace_from_env() {
    TRACE_ENV_INIT.call_once(|| {
        let Some(raw) = std::env::var_os("GG_TRACE") else {
            return;
        };
        let raw = raw.to_string_lossy();
        let mut bits = 0u32;
        for part in raw.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            if part.eq_ignore_ascii_case("all") {
                bits = u32::MAX;
            } else if let Some(t) = Topic::from_name(part) {
                bits |= t.bit();
            } else {
                diag(format_args!(
                    "obs: unknown GG_TRACE topic '{part}' (known: route, lda, sta, nsga2, bench, all)"
                ));
            }
        }
        TRACE_TOPICS.fetch_or(bits, Ordering::Relaxed);
    });
}

/// Programmatically switches a trace topic on (the code-level equivalent
/// of listing it in `GG_TRACE`).
pub fn enable(topic: Topic) {
    init_trace_from_env();
    TRACE_TOPICS.fetch_or(topic.bit(), Ordering::Relaxed);
}

/// Switches a trace topic off.
pub fn disable(topic: Topic) {
    init_trace_from_env();
    TRACE_TOPICS.fetch_and(!topic.bit(), Ordering::Relaxed);
}

/// Whether events of `topic` are currently emitted.
#[inline]
pub fn trace_enabled(topic: Topic) -> bool {
    init_trace_from_env();
    TRACE_TOPICS.load(Ordering::Relaxed) & topic.bit() != 0
}

/// Emits one trace event on `topic`. The message closure only runs (and
/// only allocates) when the topic is enabled.
pub fn trace(topic: Topic, msg: impl FnOnce() -> String) {
    if trace_enabled(topic) {
        eprintln!("[{}] {}", topic.name(), msg());
    }
}

/// Unconditional diagnostic line on the observability sink (stderr).
///
/// This is the one blessed way user-facing tools in this workspace write
/// diagnostics, so every byte of non-result output flows through a single
/// redirectable seam. Prefer [`trace`] for anything gated by a topic.
pub fn diag(args: std::fmt::Arguments<'_>) {
    eprintln!("{args}");
}

/// [`diag`] with `format!`-style arguments.
#[macro_export]
macro_rules! diagln {
    ($($t:tt)*) => { $crate::diag(format_args!($($t)*)) };
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Number of log buckets a [`Histogram`] carries. Bucket 0 counts zero
/// values; bucket `k ≥ 1` counts values in `[2^(k-1), 2^k)`; the last
/// bucket absorbs everything larger.
pub const HIST_BUCKETS: usize = 32;

#[derive(Debug)]
struct HistCells {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl HistCells {
    fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            sum: AtomicU64::new(0),
        }
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct SpanAgg {
    count: u64,
    total_nanos: u64,
}

#[derive(Debug)]
struct Registry {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicU64>>,
    histograms: BTreeMap<String, Arc<HistCells>>,
    spans: BTreeMap<String, SpanAgg>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    counters: BTreeMap::new(),
    gauges: BTreeMap::new(),
    histograms: BTreeMap::new(),
    spans: BTreeMap::new(),
});

/// Registry access is panic-robust: a thread that panicked inside a span
/// poisons nothing of consequence (aggregation is monotone counters), so
/// the poison flag is deliberately cleared instead of propagated.
fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A named monotone counter. Cloning shares the underlying cell; updates
/// from any number of threads are lossless.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` when recording is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one when recording is enabled.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named last-value gauge holding an `f64`.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Stores `v` when recording is enabled.
    #[inline]
    pub fn set(&self, v: f64) {
        if enabled() {
            self.0.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A named histogram with fixed power-of-two log-bucketing
/// (see [`HIST_BUCKETS`]).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistCells>);

/// The log bucket of a value (shared by recording and snapshotting).
fn bucket_of(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Exclusive upper bound of bucket `k` (`u64::MAX` for the overflow
/// bucket).
fn bucket_bound(k: usize) -> u64 {
    if k + 1 >= HIST_BUCKETS {
        u64::MAX
    } else {
        1u64 << k
    }
}

impl Histogram {
    /// Records one observation when recording is enabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
            self.0.sum.fetch_add(v, Ordering::Relaxed);
        }
    }
}

/// Returns the shared counter registered under `name`, creating it on
/// first use. Call once per site and keep the handle (a `OnceLock` at the
/// call site): the lookup takes the registry lock, the handle never does.
pub fn counter(name: &str) -> Counter {
    let mut reg = registry();
    Counter(Arc::clone(
        reg.counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0))),
    ))
}

/// Returns the shared gauge registered under `name` (see [`counter`] for
/// the handle-caching contract).
pub fn gauge(name: &str) -> Gauge {
    let mut reg = registry();
    Gauge(Arc::clone(
        reg.gauges
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0))),
    ))
}

/// Returns the shared histogram registered under `name` (see [`counter`]
/// for the handle-caching contract).
pub fn histogram(name: &str) -> Histogram {
    let mut reg = registry();
    Histogram(Arc::clone(
        reg.histograms
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistCells::new())),
    ))
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

thread_local! {
    /// The current thread's open-span name stack. Worker threads start
    /// with an empty stack, so spans opened inside a thread pool
    /// aggregate under their own root path — by design: the cross-thread
    /// parent is not observable without paying for context passing on
    /// every hot call.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Timing handle passed to a [`span`] body; valid whether or not
/// recording is enabled, so trace messages can report wall time
/// unconditionally.
#[derive(Debug)]
pub struct SpanHandle {
    t0: Instant,
}

impl SpanHandle {
    /// Wall time since the span opened.
    pub fn elapsed(&self) -> Duration {
        self.t0.elapsed()
    }
}

/// Pops the stack and aggregates on drop, so a panicking span body
/// (proptest shrinking, assertion failures under test) cannot corrupt
/// the per-thread nesting.
struct SpanGuard {
    t0: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let total_nanos = self.t0.elapsed().as_nanos() as u64;
        let path = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = stack.join("/");
            stack.pop();
            path
        });
        let mut reg = registry();
        let agg = reg.spans.entry(path).or_default();
        agg.count += 1;
        agg.total_nanos += total_nanos;
    }
}

/// Runs `f` inside a named span.
///
/// When recording is enabled the span pushes `name` onto the calling
/// thread's stack, times the body on the monotonic clock, and merges
/// `(count, total_nanos)` into the process-wide aggregate under the full
/// `/`-joined path. Disabled, it degenerates to calling `f` directly.
/// Aggregation happens in a drop guard, so nesting stays well-formed even
/// if `f` panics.
pub fn span<R>(name: &'static str, f: impl FnOnce(&SpanHandle) -> R) -> R {
    let handle = SpanHandle { t0: Instant::now() };
    if !enabled() {
        return f(&handle);
    }
    SPAN_STACK.with(|s| s.borrow_mut().push(name));
    let _guard = SpanGuard { t0: handle.t0 };
    f(&handle)
}

/// Number of spans currently open on this thread (0 outside any span);
/// test hook for nesting well-formedness.
pub fn current_span_depth() -> usize {
    SPAN_STACK.with(|s| s.borrow().len())
}

// ---------------------------------------------------------------------------
// Snapshot, reset, rendering, JSON export
// ---------------------------------------------------------------------------

/// Point-in-time copy of one histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// `(exclusive upper bound, count)` per non-empty bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
}

/// Point-in-time aggregate of one span path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Full `/`-joined call path (`"eval.incremental/route.phase_b"`).
    pub path: String,
    /// Completed executions.
    pub count: u64,
    /// Summed wall time in nanoseconds.
    pub total_nanos: u64,
}

/// An immutable copy of the whole registry, ready to render or export.
/// Zero-valued counters/gauges and empty histograms are omitted, so a
/// fully disabled run snapshots as empty.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` per non-zero counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per non-zero gauge, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// Non-empty histograms, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
    /// Every recorded span path, path-sorted.
    pub spans: Vec<SpanSnapshot>,
}

/// Copies the current registry state out (recording continues unchanged).
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let counters = reg
        .counters
        .iter()
        .map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed)))
        .filter(|&(_, v)| v != 0)
        .collect();
    let gauges = reg
        .gauges
        .iter()
        .map(|(n, g)| (n.clone(), f64::from_bits(g.load(Ordering::Relaxed))))
        .filter(|&(_, v)| v != 0.0)
        .collect();
    let histograms = reg
        .histograms
        .iter()
        .filter_map(|(n, h)| {
            let buckets: Vec<(u64, u64)> = h
                .buckets
                .iter()
                .enumerate()
                .map(|(k, b)| (bucket_bound(k), b.load(Ordering::Relaxed)))
                .filter(|&(_, c)| c != 0)
                .collect();
            let count: u64 = buckets.iter().map(|&(_, c)| c).sum();
            (count != 0).then(|| HistogramSnapshot {
                name: n.clone(),
                count,
                sum: h.sum.load(Ordering::Relaxed),
                buckets,
            })
        })
        .collect();
    let spans = reg
        .spans
        .iter()
        .map(|(p, a)| SpanSnapshot {
            path: p.clone(),
            count: a.count,
            total_nanos: a.total_nanos,
        })
        .collect();
    MetricsSnapshot {
        counters,
        gauges,
        histograms,
        spans,
    }
}

/// Zeroes every counter, gauge, and histogram and clears the span
/// aggregates. Handles held by call sites stay valid (the cells are
/// zeroed in place, never replaced), so benchmark harnesses can bracket
/// a measured region with `reset()` … `snapshot()`.
pub fn reset() {
    let mut reg = registry();
    for c in reg.counters.values() {
        c.store(0, Ordering::Relaxed);
    }
    for g in reg.gauges.values() {
        g.store(0, Ordering::Relaxed);
    }
    for h in reg.histograms.values() {
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
        h.sum.store(0, Ordering::Relaxed);
    }
    reg.spans.clear();
}

/// The process high-water resident set in bytes, from
/// `/proc/self/status` (`VmHWM`); 0 where procfs is unavailable. The
/// kernel counter is monotone for the process lifetime, so successive
/// readings are cumulative peaks.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Formats nanoseconds as a compact human duration.
fn fmt_nanos(n: u64) -> String {
    let s = n as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

impl MetricsSnapshot {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Value of a gauge, when recorded.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Whether a span path's *leaf* name matches `leaf` — span call paths
    /// vary with the caller (`"eval.incremental/route.phase_b"` vs
    /// `"route.phase_b"`), so per-phase queries aggregate by leaf.
    fn leaf_matches(path: &str, leaf: &str) -> bool {
        path.rsplit('/').next() == Some(leaf)
    }

    /// Total executions of the span named `leaf`, summed over every call
    /// path it appears in.
    pub fn span_count(&self, leaf: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| Self::leaf_matches(&s.path, leaf))
            .map(|s| s.count)
            .sum()
    }

    /// Total wall nanoseconds of the span named `leaf`, summed over every
    /// call path it appears in. Summed across threads, so with parallel
    /// callers this can exceed elapsed time.
    pub fn span_total_nanos(&self, leaf: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| Self::leaf_matches(&s.path, leaf))
            .map(|s| s.total_nanos)
            .sum()
    }

    /// Renders the human `--verbose` tree: spans indented by call depth,
    /// then counters, gauges, and histograms.
    pub fn render(&self) -> String {
        let mut out = String::from("telemetry\n");
        if !self.spans.is_empty() {
            out.push_str("  spans (count, total, mean)\n");
            for s in &self.spans {
                let depth = s.path.matches('/').count();
                let leaf = s.path.rsplit('/').next().unwrap_or(&s.path);
                let mean = s.total_nanos / s.count.max(1);
                out.push_str(&format!(
                    "  {:indent$}{leaf:<w$} {:>8}  {:>10}  {:>10}\n",
                    "",
                    s.count,
                    fmt_nanos(s.total_nanos),
                    fmt_nanos(mean),
                    indent = 2 + 2 * depth,
                    w = 36usize.saturating_sub(2 * depth),
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("  counters\n");
            for (n, v) in &self.counters {
                out.push_str(&format!("    {n:<38} {v:>10}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("  gauges\n");
            for (n, v) in &self.gauges {
                out.push_str(&format!("    {n:<38} {v:>10}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("  histograms\n");
            for h in &self.histograms {
                out.push_str(&format!(
                    "    {:<38} count {} sum {}\n      buckets:",
                    h.name, h.count, h.sum
                ));
                for &(bound, c) in &h.buckets {
                    if bound == u64::MAX {
                        out.push_str(&format!(" inf:{c}"));
                    } else {
                        out.push_str(&format!(" <{bound}:{c}"));
                    }
                }
                out.push('\n');
            }
        }
        out
    }

    /// Serializes the snapshot as a self-contained JSON object (the
    /// machine-readable export merged into `BENCH_explore.json`).
    pub fn to_json(&self) -> String {
        fn esc(s: &str, out: &mut String) {
            out.push('"');
            for ch in s.chars() {
                match ch {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        fn finite(v: f64) -> f64 {
            if v.is_finite() {
                v
            } else {
                0.0
            }
        }
        let mut out = String::from("{\"counters\":{");
        for (i, (n, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            esc(n, &mut out);
            out.push_str(&format!(":{v}"));
        }
        out.push_str("},\"gauges\":{");
        for (i, (n, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            esc(n, &mut out);
            out.push_str(&format!(":{:?}", finite(*v)));
        }
        out.push_str("},\"histograms\":{");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            esc(&h.name, &mut out);
            out.push_str(&format!(
                ":{{\"count\":{},\"sum\":{},\"buckets\":[",
                h.count, h.sum
            ));
            for (j, &(bound, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{bound},{c}]"));
            }
            out.push_str("]}");
        }
        out.push_str("},\"spans\":{");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            esc(&s.path, &mut out);
            out.push_str(&format!(
                ":{{\"count\":{},\"total_nanos\":{}}}",
                s.count, s.total_nanos
            ));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry and the enabled flag are process-global; tests that
    /// flip them are serialized on this lock (and reset on entry).
    pub(crate) fn exclusive() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        let g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_enabled(false);
        reset();
        g
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = exclusive();
        let c = counter("t.disabled");
        let h = histogram("t.disabled_h");
        let ga = gauge("t.disabled_g");
        span("t.disabled_span", |_| {
            c.add(5);
            h.record(9);
            ga.set(1.5);
        });
        assert!(snapshot().is_empty());
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counters_gauges_histograms_round_through_snapshot() {
        let _g = exclusive();
        set_enabled(true);
        let c = counter("t.counter");
        c.add(3);
        c.incr();
        gauge("t.gauge").set(2.25);
        let h = histogram("t.hist");
        for v in [0u64, 1, 1, 2, 3, 100, u64::MAX] {
            h.record(v);
        }
        let snap = snapshot();
        assert_eq!(snap.counter("t.counter"), 4);
        assert_eq!(snap.gauge("t.gauge"), Some(2.25));
        let hs = snap.histograms.iter().find(|h| h.name == "t.hist").unwrap();
        assert_eq!(hs.count, 7);
        assert_eq!(hs.sum, 107u64.wrapping_add(u64::MAX));
        // Bucket bounds: 0 lands below 1; 1 lands below 2; 2..3 below 4.
        assert_eq!(hs.buckets.iter().find(|b| b.0 == 1).map(|b| b.1), Some(1));
        assert_eq!(hs.buckets.iter().find(|b| b.0 == 2).map(|b| b.1), Some(2));
        assert_eq!(hs.buckets.iter().find(|b| b.0 == 4).map(|b| b.1), Some(2));
        assert_eq!(hs.buckets.last().map(|b| b.0), Some(u64::MAX));
        set_enabled(false);
    }

    #[test]
    fn bucket_of_is_monotone_and_bounded() {
        let mut last = 0;
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1 << 20, 1 << 40, u64::MAX] {
            let b = bucket_of(v);
            assert!(b >= last, "bucket_of must be monotone");
            assert!(b < HIST_BUCKETS);
            if b + 1 < HIST_BUCKETS {
                assert!(v < bucket_bound(b), "{v} must fall under its bound");
            }
            last = b;
        }
    }

    #[test]
    fn spans_nest_by_thread_and_aggregate_by_path() {
        let _g = exclusive();
        set_enabled(true);
        span("outer", |_| {
            assert_eq!(current_span_depth(), 1);
            span("inner", |_| assert_eq!(current_span_depth(), 2));
            span("inner", |_| ());
        });
        span("outer", |_| ());
        assert_eq!(current_span_depth(), 0);
        let snap = snapshot();
        let by_path = |p: &str| snap.spans.iter().find(|s| s.path == p).map(|s| s.count);
        assert_eq!(by_path("outer"), Some(2));
        assert_eq!(by_path("outer/inner"), Some(2));
        assert_eq!(snap.span_count("inner"), 2);
        assert!(snap.span_total_nanos("outer") >= snap.span_total_nanos("inner"));
        set_enabled(false);
    }

    #[test]
    fn span_stack_survives_panicking_bodies() {
        let _g = exclusive();
        set_enabled(true);
        let r = std::panic::catch_unwind(|| span("panicky", |_| span("deep", |_| panic!("boom"))));
        assert!(r.is_err());
        assert_eq!(current_span_depth(), 0, "guard must unwind the stack");
        let snap = snapshot();
        assert_eq!(snap.span_count("deep"), 1);
        assert_eq!(snap.span_count("panicky"), 1);
        set_enabled(false);
    }

    #[test]
    fn reset_zeroes_in_place_and_keeps_handles_live() {
        let _g = exclusive();
        set_enabled(true);
        let c = counter("t.reset");
        c.add(7);
        span("t.reset_span", |_| ());
        reset();
        assert!(snapshot().is_empty());
        c.add(2);
        assert_eq!(snapshot().counter("t.reset"), 2);
        set_enabled(false);
    }

    #[test]
    fn trace_topics_parse_and_toggle() {
        assert_eq!(Topic::from_name("route"), Some(Topic::Route));
        assert_eq!(Topic::from_name("LDA"), Some(Topic::Lda));
        assert_eq!(Topic::from_name("bogus"), None);
        for t in Topic::ALL {
            assert_eq!(Topic::from_name(t.name()), Some(t));
        }
        enable(Topic::Bench);
        assert!(trace_enabled(Topic::Bench));
        disable(Topic::Bench);
        assert!(!trace_enabled(Topic::Bench));
    }

    #[test]
    fn render_and_json_cover_every_section() {
        let _g = exclusive();
        set_enabled(true);
        counter("t.render_c").add(1);
        gauge("t.render_g").set(0.5);
        histogram("t.render_h").record(3);
        span("t.render_outer", |_| span("t.render_inner", |_| ()));
        let snap = snapshot();
        let tree = snap.render();
        for needle in ["t.render_c", "t.render_g", "t.render_h", "t.render_inner"] {
            assert!(tree.contains(needle), "render misses {needle}:\n{tree}");
        }
        let json = snap.to_json();
        assert!(json.contains("\"t.render_outer/t.render_inner\""));
        assert!(json.contains("\"counters\""));
        set_enabled(false);
    }
}
