//! # gr-trace — deterministic tracing & metrics for the reduction pipeline
//!
//! A zero-dependency event layer the detection pipeline (solver, prefix
//! cache, outliner) and the speculative runtime record into. Two properties
//! drive the design:
//!
//! 1. **Determinism.** Events are keyed by *logical* sequence numbers
//!    (per-worker emission order), never wall time. Two runs of the same
//!    program produce the same stream; counters aggregate to the same
//!    totals. This is what lets CI gate scheduler behaviour on counters
//!    instead of timings on single-CPU containers.
//! 2. **Zero cost when off.** Recording is guarded by one thread-local
//!    read; with the `off` cargo feature the guard becomes a constant
//!    `false` and every instrumented call site is dead-code-eliminated.
//!
//! ## Sessions
//!
//! Recording happens inside a *session*, started with [`start`] and closed
//! with [`TraceGuard::finish`], which returns the collected [`Trace`].
//! A session belongs to the thread that opens it: [`start`] binds the
//! calling thread as worker 0 and never blocks, so sessions on different
//! threads are independent, and a `start` on a thread that is already
//! recording shadows the outer session until its guard drops. A thread
//! records only while it is bound, into a buffer only it touches, so the
//! hot path takes no lock.
//!
//! Work the owner hands to other threads joins its session explicitly:
//! the owner takes one [`worker`] slot per thread or job it hands off, on
//! its own thread, and the thread doing that work binds it with
//! [`Worker::bind`]. Worker ordinals follow the order the slots were
//! taken. A thread that was never given a slot records nothing, so a trace
//! holds exactly the work its owner asked for.
//!
//! ## Recording API
//!
//! - [`span`] / [`span_with`] — RAII begin/end pair, nests in the stream
//! - [`instant`] — a single point event with arguments
//! - [`counter`] / [`counter_keyed`] — summed per worker, merged at finish
//! - [`counter_max`] — high-water mark (e.g. backtrack depth)
//! - [`histogram`] / [`histogram_keyed`] — log2-bucketed value
//!   distributions ([`Histogram`]), merged bucket-wise at finish
//!
//! Un-keyed [`counter`] deltas are additionally *attributed* to the span
//! path open on the recording worker at the moment of the call (e.g.
//! `detect;idiom;solve`), so a session can be folded into a hierarchical
//! self/total cost tree after the fact — see [`profile::Attribution`].
//!
//! ## Sinks
//!
//! - [`Trace::chrome_json`] — Chrome trace-event format (`chrome://tracing`
//!   or Perfetto); `ts` is the logical sequence number, `tid` the worker
//!   ordinal. Worker lanes carry `thread_name` metadata and keyed counters
//!   render their keys as proper argument objects.
//! - [`Trace::snapshot`] — a [`MetricsSnapshot`]: the merged counter map
//!   with a byte-deterministic JSON rendering, folded into
//!   `BENCH_detection.json` by the bench harness.
//! - [`profile`] — post-hoc span cost attribution (collapsed-stack /
//!   flamegraph text, self/total trees).

pub mod json;
pub mod profile;

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Argument value attached to an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgVal {
    /// Integer argument.
    Int(i64),
    /// String argument (e.g. a spec or function name).
    Str(String),
}

impl From<i64> for ArgVal {
    fn from(v: i64) -> ArgVal {
        ArgVal::Int(v)
    }
}

impl From<usize> for ArgVal {
    fn from(v: usize) -> ArgVal {
        ArgVal::Int(v as i64)
    }
}

impl From<&str> for ArgVal {
    fn from(v: &str) -> ArgVal {
        ArgVal::Str(v.to_string())
    }
}

impl From<String> for ArgVal {
    fn from(v: String) -> ArgVal {
        ArgVal::Str(v)
    }
}

/// Phase of an event, mirroring the Chrome trace-event `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span begin (`"B"`).
    Begin,
    /// Span end (`"E"`).
    End,
    /// Instantaneous event (`"i"`).
    Instant,
}

impl Phase {
    fn chrome(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
        }
    }
}

/// One recorded event. `seq` is the logical timestamp: the 1-based emission
/// index *within* the worker's stream, so (worker, seq) totally orders the
/// trace deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Static event name (e.g. `"solve"`, `"outline.refusal"`).
    pub name: &'static str,
    /// Begin/End/Instant.
    pub phase: Phase,
    /// Worker ordinal: 0 is the session opener; other workers count up in
    /// the order their [`worker`] slots were taken.
    pub worker: u32,
    /// 1-based per-worker emission index; the logical timestamp.
    pub seq: u64,
    /// Event arguments, in emission order.
    pub args: Vec<(&'static str, ArgVal)>,
}

impl Event {
    /// The string value of argument `name`, if present and a string.
    #[must_use]
    pub fn arg_str(&self, name: &str) -> Option<&str> {
        self.args.iter().find_map(|(k, v)| match v {
            ArgVal::Str(s) if *k == name => Some(s.as_str()),
            _ => None,
        })
    }

    /// The integer value of argument `name`, if present and an integer.
    #[must_use]
    pub fn arg_int(&self, name: &str) -> Option<i64> {
        self.args.iter().find_map(|(k, v)| match v {
            ArgVal::Int(n) if *k == name => Some(*n),
            _ => None,
        })
    }
}

/// A log2-bucketed value distribution with a byte-deterministic merge.
///
/// Bucket 0 holds values `<= 0`; bucket `k >= 1` holds values in
/// `[2^(k-1), 2^k)`. Buckets are stored densely up to the highest one ever
/// hit, so two histograms over the same samples — regardless of how the
/// samples were split across workers — merge to identical structs and
/// render to identical bytes. Recorded via [`histogram`] /
/// [`histogram_keyed`]; merged across worker buffers at
/// [`TraceGuard::finish`] into [`Trace::histograms`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: i64,
    /// Smallest recorded value (`i64::MAX` while empty).
    pub min: i64,
    /// Largest recorded value (`i64::MIN` while empty).
    pub max: i64,
    /// Dense bucket counts, index 0 up to the highest non-empty bucket.
    pub buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram (no samples, no buckets).
    #[must_use]
    pub fn new() -> Histogram {
        Histogram { count: 0, sum: 0, min: i64::MAX, max: i64::MIN, buckets: Vec::new() }
    }

    /// The bucket index for `value`: 0 for `value <= 0`, else
    /// `1 + floor(log2(value))`.
    #[must_use]
    pub fn bucket_index(value: i64) -> usize {
        if value <= 0 {
            0
        } else {
            64 - (value as u64).leading_zeros() as usize
        }
    }

    /// The inclusive lower bound of bucket `index` (0 for bucket 0, else
    /// `2^(index-1)`).
    #[must_use]
    pub fn bucket_floor(index: usize) -> i64 {
        if index == 0 {
            0
        } else {
            1i64 << (index - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: i64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let idx = Histogram::bucket_index(value);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
    }

    /// Merges `other` into `self` bucket-wise. Order-independent: merging
    /// any partition of the same samples yields the same histogram.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, b) in other.buckets.iter().enumerate() {
            self.buckets[i] += b;
        }
    }

    /// Renders the histogram as a one-line JSON object
    /// (`{"count":..,"sum":..,"min":..,"max":..,"buckets":[..]}`).
    /// Byte-deterministic; empty histograms render min/max as 0.
    #[must_use]
    pub fn render_json(&self) -> String {
        let (mn, mx) = if self.count == 0 { (0, 0) } else { (self.min, self.max) };
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
            self.count, self.sum, mn, mx
        );
        for (i, b) in self.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{b}");
        }
        out.push_str("]}");
        out
    }
}

/// Per-worker span-path state for counter attribution. `path` is the
/// `';'`-joined names of the spans currently open on this worker; `marks`
/// remembers the path length before each push so End truncates exactly.
#[derive(Default)]
struct AttrState {
    path: String,
    marks: Vec<usize>,
    deltas: BTreeMap<String, BTreeMap<&'static str, i64>>,
}

/// Everything one worker recorded. Only its own thread writes it; it
/// joins the session when that thread unbinds.
#[derive(Default)]
struct WorkerBuf {
    worker: u32,
    events: Vec<Event>,
    sums: BTreeMap<String, i64>,
    maxes: BTreeMap<String, i64>,
    hists: BTreeMap<String, Histogram>,
    attr: AttrState,
}

impl WorkerBuf {
    fn emit(&mut self, name: &'static str, phase: Phase, args: Vec<(&'static str, ArgVal)>) {
        let seq = self.events.len() as u64 + 1;
        self.events.push(Event { name, phase, worker: self.worker, seq, args });
    }
}

/// One session's worker buffers, indexed by ordinal. A slot stays `None`
/// while its worker is bound, and for good if it never binds.
#[derive(Default)]
struct Session {
    slots: Mutex<Vec<Option<WorkerBuf>>>,
}

impl Session {
    /// Locks the slots. Every update is one push, store or take, so a lock
    /// poisoned by a panicking holder still guards valid data.
    fn lock(&self) -> MutexGuard<'_, Vec<Option<WorkerBuf>>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes the next worker slot and returns its ordinal.
    fn take_slot(&self) -> u32 {
        let mut slots = self.lock();
        slots.push(None);
        u32::try_from(slots.len() - 1).expect("fewer than 2^32 workers per session")
    }
}

/// A thread's binding: the session it records into and its own buffer.
struct Recorder {
    session: Arc<Session>,
    buf: WorkerBuf,
}

thread_local! {
    /// The calling thread's binding; `None` while it records nothing.
    static BOUND: RefCell<Option<Recorder>> = const { RefCell::new(None) };
    /// Whether `BOUND` holds a binding. A plain flag, so the check every
    /// instrumented call site makes stays one thread-local load.
    static RECORDING: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is recording into a trace session. One
/// thread-local read; a constant `false` under the `off` feature.
/// Instrumented code may use this to skip argument construction entirely.
#[inline]
pub fn enabled() -> bool {
    if cfg!(feature = "off") {
        return false;
    }
    RECORDING.get()
}

/// Runs `f` on the calling thread's buffer and reports whether it ran:
/// a thread that records nothing skips it.
#[inline]
fn record(f: impl FnOnce(&mut WorkerBuf)) -> bool {
    if !enabled() {
        return false;
    }
    BOUND.with_borrow_mut(|bound| bound.as_mut().map(|rec| f(&mut rec.buf)).is_some())
}

/// Binds `rec` (or nothing) to the calling thread and returns the binding
/// it replaces.
fn rebind(rec: Option<Recorder>) -> Option<Recorder> {
    RECORDING.set(rec.is_some());
    BOUND.with(|b| b.replace(rec))
}

/// Keeps the calling thread bound to a session as one worker. Dropping
/// it hands the thread's records to the session and restores the binding
/// it shadowed; guards on one thread drop in reverse order of creation,
/// as lexical scopes do. `!Send`, because it unbinds the thread it drops
/// on. Obtained from [`Worker::bind`] (and held by every [`TraceGuard`]).
#[must_use = "the thread records only while the guard lives"]
pub struct WorkerGuard {
    outer: Option<Recorder>,
    _not_send: PhantomData<*const ()>,
}

impl WorkerGuard {
    fn bind(session: Arc<Session>, worker: u32) -> WorkerGuard {
        let rec = Recorder { session, buf: WorkerBuf { worker, ..WorkerBuf::default() } };
        WorkerGuard { outer: rebind(Some(rec)), _not_send: PhantomData }
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        if let Some(rec) = rebind(self.outer.take()) {
            let slot = rec.buf.worker as usize;
            rec.session.lock()[slot] = Some(rec.buf);
        }
    }
}

/// A worker slot in a session, taken by [`worker`] for one thread or job
/// the caller is about to hand work to.
pub struct Worker {
    session: Arc<Session>,
    worker: u32,
}

impl Worker {
    /// Binds the calling thread, the one doing the handed-off work, to the
    /// slot's session, under the slot's ordinal, until the returned guard
    /// drops.
    pub fn bind(self) -> WorkerGuard {
        WorkerGuard::bind(self.session, self.worker)
    }
}

/// Takes one worker slot in the calling thread's session, for work it is
/// about to hand to another thread: take it on the handing thread, in
/// hand-off order, and [`Worker::bind`] it on the thread doing the work.
/// `None` when the caller records nothing (and always under the `off`
/// feature).
#[must_use]
pub fn worker() -> Option<Worker> {
    if cfg!(feature = "off") {
        return None;
    }
    BOUND.with_borrow(|bound| {
        bound.as_ref().map(|rec| Worker {
            worker: rec.session.take_slot(),
            session: Arc::clone(&rec.session),
        })
    })
}

/// Handle on the trace session opened by [`start`]. Dropping it (or
/// calling [`TraceGuard::finish`]) stops recording on the opening thread
/// and restores any session it shadowed; only `finish` yields the
/// collected [`Trace`]. `!Send`: the opener keeps it.
///
/// ```compile_fail
/// fn send<T: Send>() {}
/// send::<gr_trace::TraceGuard>();
/// ```
#[must_use = "recording stops when the guard drops"]
pub struct TraceGuard {
    /// The session and the opener's binding; `None` under `off`.
    open: Option<(Arc<Session>, WorkerGuard)>,
}

impl TraceGuard {
    /// Stops recording and returns the collected trace: events sorted by
    /// (worker, seq), counters merged across workers (sums added,
    /// high-water marks maxed). Workers that are still bound are left out.
    pub fn finish(self) -> Trace {
        let Some((session, opener)) = self.open else {
            return Trace::empty();
        };
        drop(opener);
        let slots = std::mem::take(&mut *session.lock());
        collect(slots.into_iter().flatten())
    }
}

/// Starts a trace session owned by the calling thread, which becomes its
/// worker 0. Never blocks: sessions on other threads are independent, and
/// one already recording on this thread is shadowed until the returned
/// guard drops.
pub fn start() -> TraceGuard {
    if cfg!(feature = "off") {
        return TraceGuard { open: None };
    }
    let session = Arc::new(Session::default());
    let opener = WorkerGuard::bind(Arc::clone(&session), session.take_slot());
    TraceGuard { open: Some((session, opener)) }
}

/// Merges worker buffers into a [`Trace`]: events sorted by (worker, seq),
/// sums added, high-water marks maxed, histograms bucket-merged, span-path
/// counter attributions summed per (path, counter).
fn collect(buffers: impl Iterator<Item = WorkerBuf>) -> Trace {
    let mut trace = Trace::empty();
    let mut maxes: BTreeMap<String, i64> = BTreeMap::new();
    for buf in buffers {
        trace.events.extend(buf.events);
        for (k, v) in buf.sums {
            *trace.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in buf.maxes {
            let e = maxes.entry(k).or_insert(i64::MIN);
            *e = (*e).max(v);
        }
        for (k, h) in &buf.hists {
            trace.histograms.entry(k.clone()).or_default().merge(h);
        }
        for (path, per) in buf.attr.deltas {
            let slot = trace.attributed.entry(path).or_default();
            for (c, v) in per {
                *slot.entry(c.to_string()).or_insert(0) += v;
            }
        }
    }
    trace.events.sort_by_key(|e| (e.worker, e.seq));
    for (k, v) in maxes {
        let e = trace.counters.entry(k).or_insert(i64::MIN);
        *e = (*e).max(v);
    }
    trace
}

/// RAII span: emits a Begin event on creation (when recording) and the
/// matching End event on drop. Obtain via [`span`] or [`span_with`].
pub struct Span {
    name: Option<&'static str>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            record(|buf| {
                buf.emit(name, Phase::End, Vec::new());
                if let Some(mark) = buf.attr.marks.pop() {
                    buf.attr.path.truncate(mark);
                }
            });
        }
    }
}

/// Opens a span with no arguments. A no-op handle when not recording.
#[must_use]
pub fn span(name: &'static str) -> Span {
    span_with(name, Vec::new())
}

/// Opens a span with arguments on the Begin event.
#[must_use]
pub fn span_with(name: &'static str, args: Vec<(&'static str, ArgVal)>) -> Span {
    let recorded = record(|buf| {
        buf.emit(name, Phase::Begin, args);
        let attr = &mut buf.attr;
        attr.marks.push(attr.path.len());
        if !attr.path.is_empty() {
            attr.path.push(';');
        }
        attr.path.push_str(name);
    });
    Span { name: recorded.then_some(name) }
}

/// Emits an instantaneous event with arguments.
pub fn instant(name: &'static str, args: Vec<(&'static str, ArgVal)>) {
    record(|buf| buf.emit(name, Phase::Instant, args));
}

/// Adds `delta` to the summed counter `name` on the current worker.
/// Totals are merged across workers at [`TraceGuard::finish`]. The delta
/// is also attributed to the worker's currently-open span path (see
/// [`Trace::attributed`]), so attribution totals reconcile exactly with
/// the flat counter by construction.
pub fn counter(name: &'static str, delta: i64) {
    record(|buf| {
        *buf.sums.entry(name.to_string()).or_insert(0) += delta;
        let state = &mut buf.attr;
        if !state.deltas.contains_key(state.path.as_str()) {
            state.deltas.insert(state.path.clone(), BTreeMap::new());
        }
        let per = state.deltas.get_mut(state.path.as_str()).expect("path slot just ensured");
        *per.entry(name).or_insert(0) += delta;
    });
}

/// Adds `delta` to the keyed counter `name{key}` — e.g.
/// `counter_keyed("solver.prunes", "Dominates", 1)` records under
/// `solver.prunes{Dominates}`.
pub fn counter_keyed(name: &'static str, key: &str, delta: i64) {
    record(|buf| *buf.sums.entry(format!("{name}{{{key}}}")).or_insert(0) += delta);
}

/// Raises the high-water-mark counter `name` to at least `value` (merged
/// across workers by max).
pub fn counter_max(name: &'static str, value: i64) {
    record(|buf| {
        let e = buf.maxes.entry(name.to_string()).or_insert(i64::MIN);
        *e = (*e).max(value);
    });
}

/// Records one sample into the log2-bucketed histogram `name` on the
/// current worker. Histograms are merged bucket-wise across workers at
/// [`TraceGuard::finish`], so the merged result is byte-deterministic for
/// a deterministic sample multiset regardless of worker interleaving.
pub fn histogram(name: &'static str, value: i64) {
    record(|buf| buf.hists.entry(name.to_string()).or_default().record(value));
}

/// Records one sample into the keyed histogram `name{key}` — e.g.
/// `histogram_keyed("runtime.hit_pos", "find_first", 3000)` records under
/// `runtime.hit_pos{find_first}`.
pub fn histogram_keyed(name: &'static str, key: &str, value: i64) {
    record(|buf| buf.hists.entry(format!("{name}{{{key}}}")).or_default().record(value));
}

/// The result of a trace session: the ordered event stream plus the merged
/// counter map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// All events, sorted by (worker, seq).
    pub events: Vec<Event>,
    /// Merged counters: summed counters added across workers, high-water
    /// marks maxed. Keyed counters appear as `name{key}`.
    pub counters: BTreeMap<String, i64>,
    /// Merged histograms, keyed like counters (`name` or `name{key}`).
    pub histograms: BTreeMap<String, Histogram>,
    /// Span-path attribution of un-keyed counter deltas: outer key is the
    /// `';'`-joined span path open at record time (`""` = outside any
    /// span), inner map is counter name → summed delta. For every counter,
    /// the inner values sum to the flat total in [`Trace::counters`].
    pub attributed: BTreeMap<String, BTreeMap<String, i64>>,
}

impl Trace {
    /// An empty trace (what a session under the `off` feature yields).
    #[must_use]
    pub fn empty() -> Trace {
        Trace {
            events: Vec::new(),
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            attributed: BTreeMap::new(),
        }
    }

    /// The merged histogram `name`, if any samples were recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }
    /// The merged value of counter `name` (0 if never recorded).
    #[must_use]
    pub fn counter(&self, name: &str) -> i64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All events with the given name, in stream order.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| e.name == name)
    }

    /// Counters whose key starts with `prefix`, in key order.
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, i64)> + 'a {
        self.counters
            .iter()
            .filter(move |(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_str(), *v))
    }

    /// The counter map as a standalone, byte-deterministic snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot { counters: self.counters.clone() }
    }

    /// Renders the trace in Chrome trace-event format. `ts` is the logical
    /// per-worker sequence number, `tid` the worker ordinal, `pid` always 1.
    /// The stream opens with `"M"` metadata events (`process_name`, one
    /// `thread_name` per worker lane) so Perfetto labels the lanes. Merged
    /// counters are appended as `"C"` (counter) events after the last
    /// span; keyed counters (`name{key}`) are grouped per base name into
    /// one counter event whose args object maps each key to its value.
    /// The output is deterministic for a deterministic stream.
    #[must_use]
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut max_seq = 0u64;
        // Metadata: label the process and every worker lane.
        let mut workers: Vec<u32> = self.events.iter().map(|e| e.worker).collect();
        workers.sort_unstable();
        workers.dedup();
        if workers.is_empty() {
            workers.push(0);
        }
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"greduce\"}}",
        );
        let mut first = false;
        for w in &workers {
            let label =
                if *w == 0 { format!("worker-{w} (opener)") } else { format!("worker-{w}") };
            let _ = write!(
                out,
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":{}}}}}",
                w,
                json_str(&label)
            );
        }
        for ev in &self.events {
            if !first {
                out.push(',');
            }
            first = false;
            max_seq = max_seq.max(ev.seq);
            let _ = write!(
                out,
                "{{\"name\":{},\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}",
                json_str(ev.name),
                ev.phase.chrome(),
                ev.seq,
                ev.worker
            );
            if ev.phase == Phase::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            if !ev.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (k, v)) in ev.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}:", json_str(k));
                    match v {
                        ArgVal::Int(n) => {
                            let _ = write!(out, "{n}");
                        }
                        ArgVal::Str(s) => out.push_str(&json_str(s)),
                    }
                }
                out.push('}');
            }
            out.push('}');
        }
        // Counter events: plain counters as {"value": v}; keyed counters
        // grouped per base name so each key becomes a series in one track.
        let mut plain: Vec<(&str, i64)> = Vec::new();
        let mut keyed: BTreeMap<&str, Vec<(&str, i64)>> = BTreeMap::new();
        for (name, value) in &self.counters {
            match name.find('{') {
                Some(open) if name.ends_with('}') => {
                    let base = &name[..open];
                    let key = &name[open + 1..name.len() - 1];
                    keyed.entry(base).or_default().push((key, *value));
                }
                _ => plain.push((name, *value)),
            }
        }
        let mut ts = max_seq + 1;
        for (name, value) in plain {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":{},\"ph\":\"C\",\"ts\":{},\"pid\":1,\"tid\":0,\"args\":{{\"value\":{}}}}}",
                json_str(name),
                ts,
                value
            );
            ts += 1;
        }
        for (base, entries) in keyed {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":{},\"ph\":\"C\",\"ts\":{},\"pid\":1,\"tid\":0,\"args\":{{",
                json_str(base),
                ts
            );
            for (i, (key, value)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", json_str(key), value);
            }
            out.push_str("}}");
            ts += 1;
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

/// A point-in-time counter snapshot with a byte-deterministic JSON
/// rendering: the bench harness folds one into `BENCH_detection.json` so
/// scheduler counters are CI-gated alongside solver steps.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Merged counters, keyed as in [`Trace::counters`].
    pub counters: BTreeMap<String, i64>,
}

impl MetricsSnapshot {
    /// The value of counter `name` (0 if absent).
    #[must_use]
    pub fn get(&self, name: &str) -> i64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Renders the snapshot as JSON. Keys are emitted in `BTreeMap` order,
    /// so two equal snapshots render byte-identically.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"gr-trace/metrics/v1\",\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: {}", json_str(k), v);
        }
        if !self.counters.is_empty() {
            out.push('\n');
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// Escapes `s` as a JSON string literal (with surrounding quotes).
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(all(test, feature = "off"))]
mod off_tests {
    use super::*;

    #[test]
    fn everything_is_compiled_away() {
        assert!(!enabled());
        let guard = start();
        assert!(!enabled());
        counter("x", 1);
        counter_keyed("x", "k", 1);
        counter_max("x.max", 9);
        histogram("h", 3);
        histogram_keyed("h", "k", 3);
        instant("i", Vec::new());
        let _s = span("s");
        assert!(worker().is_none());
        let t = guard.finish();
        assert!(t.events.is_empty());
        assert!(t.counters.is_empty());
        assert!(t.histograms.is_empty());
        assert!(t.attributed.is_empty());
    }
}

#[cfg(all(test, not(feature = "off")))]
mod tests {
    use super::*;

    /// Minimal structural JSON check: balanced braces/brackets outside
    /// string literals, ending at depth zero.
    fn assert_structurally_valid_json(s: &str) {
        let mut depth = 0i64;
        let mut in_str = false;
        let mut escape = false;
        for c in s.chars() {
            if in_str {
                if escape {
                    escape = false;
                } else if c == '\\' {
                    escape = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    assert!(depth >= 0, "unbalanced close in {s}");
                }
                _ => {}
            }
        }
        assert!(!in_str, "unterminated string in {s}");
        assert_eq!(depth, 0, "unbalanced JSON: {s}");
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        assert!(!enabled());
        counter("noop", 1);
        counter_keyed("noop", "k", 1);
        counter_max("noop.max", 5);
        instant("noop.i", vec![("v", ArgVal::Int(1))]);
        let _s = span("noop.span");
    }

    #[test]
    fn session_collects_spans_counters_and_args() {
        let guard = start();
        {
            let _outer = span_with("detect", vec![("function", ArgVal::from("f"))]);
            {
                let _inner = span("solve");
                counter("solver.steps", 3);
                counter("solver.steps", 4);
                counter_keyed("solver.prunes", "Dominates", 2);
                counter_max("solver.max_depth", 2);
                counter_max("solver.max_depth", 5);
                counter_max("solver.max_depth", 3);
            }
            instant("outline.refusal", vec![("reason", ArgVal::from("MixedLoops"))]);
        }
        let trace = guard.finish();
        assert!(!enabled());
        assert_eq!(trace.counter("solver.steps"), 7);
        assert_eq!(trace.counter("solver.prunes{Dominates}"), 2);
        assert_eq!(trace.counter("solver.max_depth"), 5);
        let names: Vec<_> = trace.events.iter().map(|e| (e.name, e.phase)).collect();
        assert_eq!(
            names,
            vec![
                ("detect", Phase::Begin),
                ("solve", Phase::Begin),
                ("solve", Phase::End),
                ("outline.refusal", Phase::Instant),
                ("detect", Phase::End),
            ]
        );
        assert_eq!(trace.events[0].args, vec![("function", ArgVal::Str("f".into()))]);
    }

    #[test]
    fn workers_get_stable_ordinals_and_merged_counters() {
        let guard = start();
        counter("c", 1);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let slot = worker();
                s.spawn(move || {
                    let _bound = slot.map(Worker::bind);
                    counter("c", 10);
                    instant("worker.tick", Vec::new());
                });
            }
        });
        let trace = guard.finish();
        assert_eq!(trace.counter("c"), 41);
        let ticks: Vec<u32> = trace.events_named("worker.tick").map(|e| e.worker).collect();
        assert_eq!(ticks, vec![1, 2, 3, 4], "spawned threads get ordinals 1..=4");
        // Events are sorted by (worker, seq).
        let order: Vec<(u32, u64)> = trace.events.iter().map(|e| (e.worker, e.seq)).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
    }

    #[test]
    fn ordinals_follow_the_order_slots_were_taken() {
        // Threads start in reverse slot order; each records its slot index,
        // so the lane a tick lands on shows which slot the thread bound.
        let guard = start();
        let mut slots: Vec<(usize, Worker)> =
            (0..4).map(|i| (i, worker().expect("recording"))).collect();
        while let Some((i, slot)) = slots.pop() {
            std::thread::scope(|s| {
                s.spawn(move || {
                    let _bound = slot.bind();
                    instant("worker.tick", vec![("slot", i.into())]);
                });
            });
        }
        let trace = guard.finish();
        let ticks: Vec<(u32, Option<i64>)> = trace
            .events_named("worker.tick")
            .map(|e| (e.worker, e.arg_int("slot")))
            .collect();
        assert_eq!(ticks, vec![(1, Some(0)), (2, Some(1)), (3, Some(2)), (4, Some(3))]);
    }

    #[test]
    fn a_thread_without_a_slot_records_nothing() {
        let guard = start();
        counter("c", 1);
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!enabled(), "spawning does not bind");
                counter("c", 10);
                instant("stray", Vec::new());
            });
        });
        let trace = guard.finish();
        assert_eq!(trace.counter("c"), 1);
        assert_eq!(trace.events_named("stray").count(), 0);
    }

    #[test]
    fn a_nested_session_shadows_the_outer_one() {
        let outer = start();
        counter("a", 1);
        let inner = start();
        counter("b", 2);
        let slot = worker().expect("recording");
        std::thread::scope(|s| {
            s.spawn(move || {
                let _bound = slot.bind();
                counter("b", 20);
            });
        });
        let inner = inner.finish();
        assert!(enabled(), "the outer session records again");
        counter("c", 3);
        let outer = outer.finish();
        assert!(!enabled());
        assert_eq!((inner.counter("a"), inner.counter("b"), inner.counter("c")), (0, 22, 0));
        assert_eq!((outer.counter("a"), outer.counter("b"), outer.counter("c")), (1, 0, 3));
    }

    #[test]
    fn sessions_on_different_threads_are_independent() {
        // Both sessions are open at once; neither sees the other's work.
        let barrier = std::sync::Barrier::new(2);
        let traces: Vec<Trace> = std::thread::scope(|s| {
            let handles: Vec<_> = [3i64, 5]
                .into_iter()
                .map(|n| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        let guard = start();
                        barrier.wait();
                        for _ in 0..n {
                            counter("x", 1);
                        }
                        barrier.wait();
                        guard.finish()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        assert_eq!(traces[0].counter("x"), 3);
        assert_eq!(traces[1].counter("x"), 5);
    }

    #[test]
    fn sessions_are_isolated() {
        let g1 = start();
        counter("x", 5);
        let t1 = g1.finish();
        let g2 = start();
        counter("x", 7);
        let t2 = g2.finish();
        assert_eq!(t1.counter("x"), 5);
        assert_eq!(t2.counter("x"), 7);
    }

    #[test]
    fn chrome_json_and_snapshot_are_deterministic_and_valid() {
        let run = || {
            let guard = start();
            let _sp = span_with("solve", vec![("spec", ArgVal::from("histogram"))]);
            counter("solver.steps", 12);
            counter_keyed("prefix_cache.hits", "histogram-reduction::prefix", 3);
            drop(_sp);
            guard.finish()
        };
        let a = run();
        let b = run();
        assert_eq!(a.chrome_json(), b.chrome_json());
        assert_eq!(a.snapshot().render_json(), b.snapshot().render_json());
        assert_structurally_valid_json(&a.chrome_json());
        assert_structurally_valid_json(&a.snapshot().render_json());
        assert!(a.chrome_json().contains("\"traceEvents\""));
        assert!(a.chrome_json().contains("\"ph\":\"C\""));
        assert!(a.snapshot().render_json().contains("gr-trace/metrics/v1"));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_index(-5), 0);
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(i64::MAX), 63);
        assert_eq!(Histogram::bucket_floor(0), 0);
        assert_eq!(Histogram::bucket_floor(1), 1);
        assert_eq!(Histogram::bucket_floor(11), 1024);
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 110);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 100);
        assert_eq!(h.buckets, vec![1, 1, 2, 1, 0, 0, 0, 1]);
        assert_eq!(
            h.render_json(),
            "{\"count\":6,\"sum\":110,\"min\":0,\"max\":100,\"buckets\":[1,1,2,1,0,0,0,1]}"
        );
    }

    #[test]
    fn histogram_merge_is_partition_independent() {
        let samples = [5i64, 1, 17, 0, 64, 3, 3, 900, 2];
        let mut whole = Histogram::new();
        for v in samples {
            whole.record(v);
        }
        for split in 0..=samples.len() {
            let mut a = Histogram::new();
            let mut b = Histogram::new();
            for v in &samples[..split] {
                a.record(*v);
            }
            for v in &samples[split..] {
                b.record(*v);
            }
            a.merge(&b);
            assert_eq!(a, whole, "split at {split}");
            assert_eq!(a.render_json(), whole.render_json());
        }
        // Merging an empty histogram is the identity.
        let before = whole.clone();
        whole.merge(&Histogram::new());
        assert_eq!(whole, before);
    }

    #[test]
    fn histograms_merge_across_workers_deterministically() {
        let run = || {
            let guard = start();
            histogram("h", 7);
            histogram_keyed("h.by", "site", 2);
            std::thread::scope(|s| {
                for t in 0..4 {
                    let slot = worker();
                    s.spawn(move || {
                        let _bound = slot.map(Worker::bind);
                        histogram("h", t * 10);
                        histogram_keyed("h.by", "site", t);
                    });
                }
            });
            guard.finish()
        };
        let a = run();
        let b = run();
        assert_eq!(a.histograms, b.histograms);
        let h = a.histogram("h").expect("recorded");
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 7 + 10 + 20 + 30);
        let by = a.histogram("h.by{site}").expect("keyed recorded");
        assert_eq!(by.count, 5);
        assert_eq!(
            by.render_json(),
            b.histogram("h.by{site}").expect("keyed recorded").render_json()
        );
    }

    #[test]
    fn counters_attribute_to_the_open_span_path() {
        let guard = start();
        counter("solver.steps", 1); // root, before any span
        {
            let _d = span("detect");
            counter("solver.steps", 10);
            {
                let _s = span("solve");
                counter("solver.steps", 100);
            }
            {
                let _e = span("extend");
                counter("solver.steps", 1000);
                counter("other", 5);
            }
            counter("solver.steps", 10000); // back at detect after children
        }
        counter("solver.steps", 100000); // root again
        let trace = guard.finish();
        assert_eq!(trace.counter("solver.steps"), 111111);
        let at = |path: &str| trace.attributed.get(path).and_then(|m| m.get("solver.steps"));
        assert_eq!(at(""), Some(&100001));
        assert_eq!(at("detect"), Some(&10010));
        assert_eq!(at("detect;solve"), Some(&100));
        assert_eq!(at("detect;extend"), Some(&1000));
        assert_eq!(trace.attributed["detect;extend"]["other"], 5);
        // Attribution reconciles exactly with the flat counter.
        let total: i64 = trace.attributed.values().filter_map(|m| m.get("solver.steps")).sum();
        assert_eq!(total, trace.counter("solver.steps"));
    }

    #[test]
    fn chrome_json_labels_lanes_and_groups_keyed_counters() {
        let guard = start();
        {
            let _s = span("solve");
            counter("solver.steps", 2);
            counter_keyed("solver.prunes", "Dominates", 3);
            counter_keyed("solver.prunes", "ReadsBefore", 4);
        }
        let slot = worker();
        std::thread::scope(|s| {
            s.spawn(move || {
                let _bound = slot.map(Worker::bind);
                instant("worker.tick", Vec::new());
            });
        });
        let trace = guard.finish();
        let json = trace.chrome_json();
        assert_structurally_valid_json(&json);
        assert!(json.contains("\"name\":\"process_name\",\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0"));
        assert!(json.contains("\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1"));
        assert!(json.contains("worker-0 (opener)"));
        // Keyed counters render as one C event with per-key args, not as
        // literal "name{key}" counter names.
        assert!(json.contains(
            "\"name\":\"solver.prunes\",\"ph\":\"C\",\"ts\":4,\"pid\":1,\"tid\":0,\"args\":{\"Dominates\":3,\"ReadsBefore\":4}"
        ));
        assert!(!json.contains("solver.prunes{"));
    }

    #[test]
    fn json_str_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn guard_drop_without_finish_stops_recording() {
        let guard = start();
        assert!(enabled());
        drop(guard);
        assert!(!enabled());
        counter("dead", 1);
        // A fresh session must not see leftovers from the dropped one.
        let g = start();
        let t = g.finish();
        assert_eq!(t.counter("dead"), 0);
    }
}
