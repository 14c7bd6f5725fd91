//! The persistent cross-run detection cache (`gr-cache/v2`).
//!
//! Maps a structural function fingerprint
//! ([`gr_core::fingerprint::function_fingerprint`]) to the function's
//! complete [`DetectionReport`], so re-submitting an unchanged function
//! costs **zero solver steps** — the serving-scale analogue of the
//! per-function [`PrefixCache`](gr_core::detect::PrefixCache), which
//! amortizes the prefix solve across idioms within one run.
//!
//! Persistence follows the discipline of every persisted format (see
//! `docs/formats.md`): a versioned schema tag, a hand-rendered
//! byte-deterministic JSON layout, and a reader that rejects anything
//! malformed rather than guessing. A rejected file is *poison*:
//! [`ReportCache::load`] degrades to an empty cache (every function
//! re-solves — slower, never wrong) and reports the discard as a `GR006`
//! ledger entry.
//!
//! The file is a journal. A header line names the cache and key schemas;
//! every later line is one record: a *store* carrying an entry's line, or
//! a *touch* naming the fingerprint a hit moved to the most-recent end.
//! [`ReportCache::persist`] appends only the records made since the
//! previous persist, so its cost follows what a request stored or
//! touched, not the size of the cache. The records are queued as
//! fingerprints and rendered at persist time from the entries' lines,
//! which are made once, when an entry is stored or replayed. Loading
//! replays the records through the same store and touch code. A
//! *compaction* rewrites the file as the live entries' store records,
//! least-recently-used first — the bytes [`ReportCache::render`] returns
//! — by writing `<path>.tmp` and renaming it over the file.
//!
//! A cache file has one writer. There is no fsync: the journal survives a
//! killed process, not power loss. A kill mid-append leaves a *torn
//! tail*, a last line without its `\n`, which load drops and counts; it
//! is never a `GR006`.
//!
//! Three invariants keep cached results sound:
//!
//! 1. Only [`DetectionStatus::Complete`] reports with no truncated
//!    idioms are stored. A complete report is budget-independent (it
//!    equals the unbudgeted answer), so serving it under any later
//!    budget is exact; a degraded report is an under-approximation that
//!    a bigger budget could improve, so it must re-solve.
//! 2. Entries store no function names: alpha-renamed twins share one
//!    fingerprint and one entry, and the report is re-labelled with the
//!    submitted function's name on every hit.
//! 3. Eviction is LRU over a logical touch clock (no wall time anywhere).
//!    The recency order is one ordered map keyed by `(touch, fp)` that
//!    holds each entry's line, so the fingerprint breaks clock ties:
//!    eviction pops its first element and the render walks it, copying
//!    the lines in order. Cache files are therefore byte-for-byte
//!    reproducible across machines and runs.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;

use gr_core::detect::{DetectionReport, DetectionStatus};
use gr_core::fingerprint::FINGERPRINT_SCHEMA;
use gr_core::report::{Reduction, ReductionKind, ReductionOp};
use gr_core::GrError;
use gr_ir::{BlockId, CmpPred, ValueId};
use gr_trace::json::{lookup, JsonVal};
use gr_trace::json_str;

/// Schema tag of the file's header line; the reader rejects anything else.
pub const CACHE_SCHEMA: &str = "gr-cache/v2";

/// Default capacity (entries) of a [`ReportCache`].
pub const DEFAULT_CAPACITY: usize = 1 << 16;

fn pred_name(p: CmpPred) -> &'static str {
    match p {
        CmpPred::Eq => "eq",
        CmpPred::Ne => "ne",
        CmpPred::Lt => "lt",
        CmpPred::Le => "le",
        CmpPred::Gt => "gt",
        CmpPred::Ge => "ge",
    }
}

fn pred_from_name(s: &str) -> Option<CmpPred> {
    Some(match s {
        "eq" => CmpPred::Eq,
        "ne" => CmpPred::Ne,
        "lt" => CmpPred::Lt,
        "le" => CmpPred::Le,
        "gt" => CmpPred::Gt,
        "ge" => CmpPred::Ge,
        _ => return None,
    })
}

/// The file's first line.
fn header() -> String {
    format!(
        "{{\"schema\": {}, \"keys\": {}}}\n",
        json_str(CACHE_SCHEMA),
        json_str(FINGERPRINT_SCHEMA)
    )
}

fn push_store(out: &mut String, line: &str) {
    out.push_str("{\"store\": ");
    out.push_str(line);
    out.push_str("}\n");
}

fn push_touch(out: &mut String, fp: u64) {
    let _ = writeln!(out, "{{\"touch\": \"{fp:016x}\"}}");
}

/// The body of the store record of `fp`, whose cold solve spent
/// `solved_steps` (reporting only; a hit spends zero). It is made once,
/// when the entry is created, and depends only on these inputs — never on
/// the touch clock — so a persist or a render only copies stored lines.
fn entry_line(fp: u64, solved_steps: usize, reductions: &[Reduction]) -> Box<str> {
    let mut line = String::new();
    let _ = write!(line, "{{\"fp\": \"{fp:016x}\", \"steps\": {solved_steps}, ");
    line.push_str("\"reductions\": [");
    for (j, r) in reductions.iter().enumerate() {
        if j > 0 {
            line.push_str(", ");
        }
        render_reduction(&mut line, r);
    }
    line.push_str("]}");
    line.into_boxed_str()
}

struct CachedEntry {
    /// Reductions with `function` left empty; re-labelled on hit.
    reductions: Vec<Reduction>,
    /// LRU recency: larger = more recently used. The entry's key in
    /// `ReportCache::order` is `(touch, fp)`.
    touch: u64,
}

/// A record made since the last persist, kept as its fingerprint only:
/// the store record's line is the live entry's own, copied at persist
/// time.
enum Record {
    Store(u64),
    Touch(u64),
}

/// What the next persist must write to bring the file up to date.
struct Journal {
    /// No append can bring the file up to date: it was missing, poisoned
    /// or torn at load, or a write failed. The next persist writes a
    /// compaction, and until then nothing is queued.
    compact: bool,
    /// Records made since the last persist, in order.
    pending: Vec<Record>,
    /// Size of the last compaction, in bytes.
    compacted: u64,
    /// Bytes appended since the last compaction.
    appended: u64,
}

/// The in-memory face of the persistent cache. See the module docs for
/// the file layout and the soundness invariants.
pub struct ReportCache {
    entries: HashMap<u64, CachedEntry>,
    /// Every entry's line under its `(touch, fp)`, least-recently-used
    /// first: the LRU order, which a compaction copies as it walks it.
    order: BTreeMap<(u64, u64), Box<str>>,
    capacity: usize,
    clock: u64,
    journal: Journal,
}

impl ReportCache {
    /// An empty cache evicting beyond `capacity` entries (minimum 1). Its
    /// first persist writes a compaction.
    #[must_use]
    pub fn new(capacity: usize) -> ReportCache {
        ReportCache {
            entries: HashMap::new(),
            order: BTreeMap::new(),
            capacity: capacity.max(1),
            clock: 0,
            journal: Journal { compact: true, pending: Vec::new(), compacted: 0, appended: 0 },
        }
    }

    /// Loads `path`, degrading to an empty cache on any corruption.
    ///
    /// A missing file is a normal cold start (`None` error). An
    /// unreadable or corrupt file is poison: the returned `GR006` has
    /// already been [`GrError::emit`]ted (one `error{GR006}` ledger entry
    /// plus a `cache.persistent.poisoned` counter) and the cache starts
    /// empty — affected functions re-solve, results are never derived
    /// from the corrupt artifact. Loading never writes; the first persist
    /// after a missing, poisoned or torn file writes a compaction.
    #[must_use]
    pub fn load(path: &Path, capacity: usize) -> (ReportCache, Option<GrError>) {
        let poison = |detail: String| {
            let err = GrError::CacheCorrupt { path: path.display().to_string(), detail };
            err.emit();
            if gr_trace::enabled() {
                gr_trace::counter("cache.persistent.poisoned", 1);
            }
            (ReportCache::new(capacity), Some(err))
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return (ReportCache::new(capacity), None);
            }
            Err(e) => return poison(format!("unreadable: {e}")),
        };
        match ReportCache::parse(&text, capacity) {
            Some(cache) => (cache, None),
            None => poison("malformed or wrong-schema gr-cache artifact".into()),
        }
    }

    /// Replays the bytes of a `gr-cache/v2` file. `None` on corruption: a
    /// missing or wrong header (another cache or key schema), or a
    /// complete line that is not a well-formed store or touch record. A
    /// last line without its `\n` is a torn tail: it is dropped and
    /// counted (`cache.persistent.torn_tails`), and the next persist
    /// compacts it away. A touch of an absent fingerprint is a no-op.
    ///
    /// Every record is applied before the capacity rule, which then
    /// evicts least-recently-used entries once; so a file reloaded at a
    /// smaller capacity keeps exactly the most-recent tail of its
    /// writer's cache, even where a touch names an entry that a smaller
    /// cache would have evicted earlier in the replay.
    #[must_use]
    pub fn parse(text: &str, capacity: usize) -> Option<ReportCache> {
        let (complete, torn) = match text.rfind('\n') {
            Some(end) => text.split_at(end + 1),
            None => ("", text),
        };
        let mut lines = complete.split_terminator('\n');
        if lines.next()? != header().trim_end() {
            return None;
        }
        let mut cache = ReportCache::new(usize::MAX);
        for line in lines {
            let record = JsonVal::parse(line)?;
            match record.as_obj()? {
                [(kind, body)] if kind == "store" => {
                    let (fp, reductions, line) = parse_entry(body)?;
                    cache.insert(fp, reductions, line);
                }
                [(kind, fp)] if kind == "touch" => {
                    cache.touch(parse_fp(fp)?);
                }
                _ => return None,
            }
        }
        cache.capacity = capacity.max(1);
        while cache.entries.len() > cache.capacity {
            cache.pop_lru();
        }
        let compacted = cache.compaction_len();
        cache.journal = Journal {
            compact: !torn.is_empty(),
            pending: Vec::new(),
            compacted,
            appended: (complete.len() as u64).saturating_sub(compacted),
        };
        if !torn.is_empty() && gr_trace::enabled() {
            gr_trace::counter("cache.persistent.torn_tails", 1);
        }
        Some(cache)
    }

    /// The compaction: the header line, then one store record per entry,
    /// least-recently-used first. Rendering the same logical cache state
    /// always yields the same bytes.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.compaction_len() as usize);
        out.push_str(&header());
        for line in self.order.values() {
            push_store(&mut out, line);
        }
        out
    }

    /// Length in bytes of [`ReportCache::render`].
    fn compaction_len(&self) -> u64 {
        let records: usize =
            self.order.values().map(|line| "{\"store\": }\n".len() + line.len()).sum();
        (header().len() + records) as u64
    }

    /// Brings the file at `path` up to date with the live cache.
    ///
    /// Appends the records made since the previous persist, and writes
    /// nothing when there are none. It writes a compaction instead when
    /// the file was missing, poisoned or torn at load, when an append
    /// fails, and when the append would take the bytes appended since the
    /// last compaction past that compaction's size, which keeps the file
    /// under twice that size. A compaction goes to `<path>.tmp` in the
    /// same directory, creating it, and is renamed over `path`; if it
    /// fails, the error surfaces and the next persist compacts again.
    pub fn persist(&mut self, path: &Path) -> io::Result<()> {
        if !self.journal.compact {
            let mut records = String::new();
            for record in self.journal.pending.drain(..) {
                // An entry evicted since its record was made is absent
                // from the live cache, and replay needs no record of it.
                match record {
                    Record::Store(fp) => {
                        if let Some(e) = self.entries.get(&fp) {
                            push_store(&mut records, &self.order[&(e.touch, fp)]);
                        }
                    }
                    Record::Touch(fp) => {
                        if self.entries.contains_key(&fp) {
                            push_touch(&mut records, fp);
                        }
                    }
                }
            }
            if records.is_empty() {
                return Ok(());
            }
            let appended = self.journal.appended + records.len() as u64;
            if appended <= self.journal.compacted && append(path, &records).is_ok() {
                self.journal.appended = appended;
                if gr_trace::enabled() {
                    gr_trace::counter("cache.persistent.appended_bytes", records.len() as i64);
                }
                return Ok(());
            }
        }
        self.journal.compact = true;
        let bytes = self.render();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        self.journal.compact = false;
        self.journal.compacted = bytes.len() as u64;
        self.journal.appended = 0;
        if gr_trace::enabled() {
            gr_trace::counter("cache.persistent.compactions", 1);
        }
        Ok(())
    }

    /// Queues `record` for the next persist, unless that persist compacts
    /// anyway.
    fn queue(&mut self, record: Record) {
        if !self.journal.compact {
            self.journal.pending.push(record);
        }
    }

    /// Makes an entry for `fp` the most recent, replacing any entry under
    /// `fp`.
    fn insert(&mut self, fp: u64, reductions: Vec<Reduction>, line: Box<str>) {
        self.clock += 1;
        if let Some(old) = self.entries.insert(fp, CachedEntry { reductions, touch: self.clock }) {
            self.order.remove(&(old.touch, fp));
        }
        self.order.insert((self.clock, fp), line);
    }

    /// Makes `fp`'s entry the most recent; `false` if there is none.
    fn touch(&mut self, fp: u64) -> bool {
        let Some(e) = self.entries.get_mut(&fp) else { return false };
        let line = self.order.remove(&(e.touch, fp)).expect("every entry is ordered");
        self.clock += 1;
        e.touch = self.clock;
        self.order.insert((self.clock, fp), line);
        true
    }

    /// Removes the least-recently-used entry of a non-empty cache.
    fn pop_lru(&mut self) {
        let ((_, fp), _) = self.order.pop_first().expect("a non-empty cache has an LRU entry");
        self.entries.remove(&fp);
    }

    /// Serves a cached report for fingerprint `fp`, re-labelled as
    /// `function`. `steps_used` is 0 — a hit spends no solver steps.
    pub fn hit(&mut self, fp: u64, function: &str) -> Option<DetectionReport> {
        if !self.touch(fp) {
            return None;
        }
        self.queue(Record::Touch(fp));
        let mut reductions = self.entries[&fp].reductions.clone();
        for r in &mut reductions {
            r.function = function.to_string();
        }
        if gr_trace::enabled() {
            gr_trace::counter("cache.persistent.hits", 1);
        }
        Some(DetectionReport {
            function: function.to_string(),
            reductions,
            status: DetectionStatus::Complete,
            steps_used: 0,
            truncated_idioms: Vec::new(),
        })
    }

    /// Whether `fp` is cached (no LRU touch, no re-label).
    #[must_use]
    pub fn contains(&self, fp: u64) -> bool {
        self.entries.contains_key(&fp)
    }

    /// Stores a report under `fp`. Degraded or truncated reports are
    /// refused (invariant 1 in the module docs) — they would serve an
    /// under-approximation forever. Returns whether the report was
    /// stored; storing over a full cache evicts the least-recently-used
    /// entry.
    pub fn store(&mut self, fp: u64, report: &DetectionReport) -> bool {
        if report.status.is_degraded() || !report.truncated_idioms.is_empty() {
            return false;
        }
        let mut reductions = report.reductions.clone();
        for r in &mut reductions {
            r.function = String::new();
        }
        let line = entry_line(fp, report.steps_used, &reductions);
        self.insert(fp, reductions, line);
        if self.entries.len() > self.capacity {
            self.pop_lru();
            if gr_trace::enabled() {
                gr_trace::counter("cache.persistent.evictions", 1);
            }
        }
        self.queue(Record::Store(fp));
        if gr_trace::enabled() {
            gr_trace::counter("cache.persistent.stores", 1);
        }
        true
    }

    /// Entries currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Appends `records` to the existing file at `path`.
fn append(path: &Path, records: &str) -> io::Result<()> {
    std::fs::OpenOptions::new()
        .append(true)
        .open(path)?
        .write_all(records.as_bytes())
}

fn parse_fp(v: &JsonVal) -> Option<u64> {
    u64::from_str_radix(v.as_str()?, 16).ok()
}

/// A store record's body: the fingerprint, the reductions and the line
/// they render to.
fn parse_entry(v: &JsonVal) -> Option<(u64, Vec<Reduction>, Box<str>)> {
    let e = v.as_obj()?;
    let fp = parse_fp(lookup(e, "fp")?)?;
    let solved_steps = usize::try_from(lookup(e, "steps")?.as_int()?).ok()?;
    let mut reductions = Vec::new();
    for r in lookup(e, "reductions")?.as_arr()? {
        reductions.push(parse_reduction(r)?);
    }
    let line = entry_line(fp, solved_steps, &reductions);
    Some((fp, reductions, line))
}

fn render_reduction(out: &mut String, r: &Reduction) {
    let object = r.object.map_or(-1, |v| i64::from(v.0));
    let pred = r.arg_pred.map_or("-", pred_name);
    let _ = write!(
        out,
        "{{\"kind\": {}, \"op\": {}, \"header\": {}, \"depth\": {}, \"anchor\": {}, \
         \"object\": {}, \"affine\": {}, \"pred\": {}, \"bindings\": [",
        json_str(&r.kind.to_string()),
        json_str(&r.op.to_string()),
        r.header.0,
        r.depth,
        r.anchor.0,
        object,
        i32::from(r.affine),
        json_str(pred),
    );
    for (i, (label, v)) in r.bindings.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "[{}, {}]", json_str(label), v.0);
    }
    out.push_str("]}");
}

fn parse_reduction(v: &JsonVal) -> Option<Reduction> {
    let o = v.as_obj()?;
    let kind = ReductionKind::from_name(lookup(o, "kind")?.as_str()?)?;
    let op = ReductionOp::from_name(lookup(o, "op")?.as_str()?)?;
    let header = BlockId(u32::try_from(lookup(o, "header")?.as_int()?).ok()?);
    let depth = u32::try_from(lookup(o, "depth")?.as_int()?).ok()?;
    let anchor = ValueId(u32::try_from(lookup(o, "anchor")?.as_int()?).ok()?);
    let object = match lookup(o, "object")?.as_int()? {
        -1 => None,
        v => Some(ValueId(u32::try_from(v).ok()?)),
    };
    let affine = match lookup(o, "affine")?.as_int()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let arg_pred = match lookup(o, "pred")?.as_str()? {
        "-" => None,
        p => Some(pred_from_name(p)?),
    };
    let mut bindings = Vec::new();
    for b in lookup(o, "bindings")?.as_arr()? {
        let pair = b.as_arr()?;
        if pair.len() != 2 {
            return None;
        }
        let label = pair[0].as_str()?.to_string();
        let value = ValueId(u32::try_from(pair[1].as_int()?).ok()?);
        bindings.push((label, value));
    }
    Some(Reduction {
        function: String::new(),
        kind,
        op,
        header,
        depth,
        anchor,
        object,
        affine,
        arg_pred,
        bindings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Seek as _, SeekFrom};
    use std::path::PathBuf;

    /// A fresh directory for one test's cache files, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(name: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!("gr-cache-{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn file(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// The bytes of the file at `path` from offset `from` on.
    fn tail(path: &Path, from: u64) -> String {
        let mut f = std::fs::File::open(path).unwrap();
        f.seek(SeekFrom::Start(from)).unwrap();
        let mut out = String::new();
        f.read_to_string(&mut out).unwrap();
        out
    }

    /// The field-by-field renderer that the stored lines replaced, kept as
    /// the oracle of the differential test: it formats every field of every
    /// entry on each call. `entries` are `(fp, steps, reductions)`,
    /// least-recently-used first.
    fn render_fields(entries: &[(u64, usize, Vec<Reduction>)]) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"schema\": {}, \"keys\": {}}}",
            json_str(CACHE_SCHEMA),
            json_str(FINGERPRINT_SCHEMA)
        );
        for (fp, steps, reductions) in entries {
            let _ = write!(out, "{{\"store\": {{\"fp\": \"{fp:016x}\", \"steps\": {steps}, ");
            out.push_str("\"reductions\": [");
            for (j, r) in reductions.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                render_reduction(&mut out, r);
            }
            out.push_str("]}}\n");
        }
        out
    }

    /// xorshift64*: the differential test's seeded operation stream.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len() as u64) as usize]
        }
    }

    /// A random complete report: every reduction field varies, and the
    /// binding labels include characters the render must JSON-escape.
    fn random_report(rng: &mut Rng) -> DetectionReport {
        const LABELS: &[&str] =
            &["acc", "header", "q\"uote", "back\\slash", "new\nline", "tab\t", "ctl\u{1}", "λü"];
        let value = |rng: &mut Rng| ValueId(rng.below(1 << 20) as u32);
        let reductions = (0..rng.below(4))
            .map(|_| Reduction {
                function: "f".into(),
                kind: rng.pick(&[
                    ReductionKind::Scalar,
                    ReductionKind::Histogram,
                    ReductionKind::Scan,
                    ReductionKind::ArgMin,
                    ReductionKind::FindFirst,
                ]),
                op: rng.pick(&[ReductionOp::Add, ReductionOp::Mul, ReductionOp::Min]),
                header: BlockId(rng.below(64) as u32),
                depth: rng.below(4) as u32,
                anchor: value(rng),
                object: rng.pick(&[None, Some(())]).map(|()| value(rng)),
                affine: rng.below(2) == 1,
                arg_pred: rng.pick(&[None, Some(CmpPred::Lt), Some(CmpPred::Ge)]),
                bindings: (0..rng.below(4))
                    .map(|_| (rng.pick(LABELS).into(), value(rng)))
                    .collect(),
            })
            .collect();
        DetectionReport {
            function: "f".into(),
            reductions,
            status: DetectionStatus::Complete,
            steps_used: rng.below(1 << 40) as usize,
            truncated_idioms: Vec::new(),
        }
    }

    #[test]
    fn render_matches_the_field_by_field_oracle_over_a_seeded_run() {
        let mut capacity = 24;
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        // More fingerprints than the capacity, so stores evict, re-store
        // evicted keys and overwrite live ones; small ones test the padding.
        let fps: Vec<u64> = (0..3 * capacity as u64)
            .map(|i| if i % 4 == 0 { i } else { rng.below(u64::MAX) })
            .collect();
        let dir = TempDir::new("oracle");
        let path = dir.file("gr-cache.json");
        let mut cache = ReportCache::new(capacity);
        // The reference LRU: `(fp, steps, blanked reductions)`,
        // least-recently-used first.
        let mut model: Vec<(u64, usize, Vec<Reduction>)> = Vec::new();
        let (mut evictions, mut hits, mut reloads) = (0, 0, 0);
        for op in 0..6000 {
            let fp = rng.pick(&fps);
            let at = model.iter().position(|e| e.0 == fp);
            if rng.below(2) == 0 {
                let mut report = random_report(&mut rng);
                if rng.below(8) == 0 {
                    report.status = DetectionStatus::Degraded { budget: 9, steps_used: 9 };
                }
                let stored = cache.store(fp, &report);
                assert_eq!(stored, !report.status.is_degraded());
                if stored {
                    if let Some(i) = at {
                        model.remove(i);
                    }
                    let mut reductions = report.reductions;
                    reductions.iter_mut().for_each(|r| r.function.clear());
                    model.push((fp, report.steps_used, reductions));
                    if model.len() > capacity {
                        model.remove(0);
                        evictions += 1;
                    }
                }
            } else {
                let served = cache.hit(fp, "");
                assert_eq!(served.is_some(), at.is_some());
                if let Some(i) = at {
                    let entry = model.remove(i);
                    assert_eq!(
                        format!("{:?}", served.unwrap().reductions),
                        format!("{:?}", entry.2)
                    );
                    model.push(entry);
                    hits += 1;
                }
            }
            assert_eq!(cache.render(), render_fields(&model), "op {op}");
            if op % 7 == 6 {
                // Replay equals live: the journal reloads into a fresh
                // cache that renders (compacts to) the live cache's bytes.
                cache.persist(&path).unwrap();
                let (reloaded, poison) = ReportCache::load(&path, capacity);
                assert!(poison.is_none(), "op {op}: {poison:?}");
                assert_eq!(reloaded.render(), cache.render(), "op {op}: replay ≠ live");
                // A smaller cache keeps exactly the most-recent tail.
                let small = capacity / 3;
                let (trimmed, _) = ReportCache::load(&path, small);
                assert_eq!(
                    trimmed.render(),
                    render_fields(&model[model.len().saturating_sub(small)..]),
                    "op {op}: reload at capacity {small}"
                );
                reloads += 1;
                // Now and then the reloaded cache takes over and goes on
                // appending to the same file, as a restarted server does.
                if op % 91 == 90 {
                    cache = reloaded;
                }
            }
            if op == 3000 {
                // Restart at a smaller capacity and keep serving: the new
                // cache holds the most-recent tail and continues the file.
                capacity = 16;
                cache.persist(&path).unwrap();
                cache = ReportCache::load(&path, capacity).0;
                model.drain(..model.len().saturating_sub(capacity));
                assert_eq!(cache.render(), render_fields(&model), "restart at capacity 16");
            }
        }
        assert!(evictions > 100 && hits > 100, "{evictions} evictions, {hits} hits");
        assert!(reloads > 800, "{reloads} reloads");
    }

    #[test]
    fn render_keeps_the_gr_cache_v2_layout() {
        let header = "{\"schema\": \"gr-cache/v2\", \"keys\": \"gr-fp/v2\"}\n";
        let mut c = ReportCache::new(4);
        assert_eq!(c.render(), header);
        let mut r = report("f", 1, 19);
        r.reductions[0].bindings[0].0 = "q\"t\n".into();
        c.store(0xd635_76cc_d640_dd13, &r);
        c.store(1, &report("g", 0, 0));
        let expected = format!(
            "{header}{{\"store\": {{\"fp\": \"d63576ccd640dd13\", \"steps\": 19, \"reductions\": [\
             {{\"kind\": \"histogram\", \"op\": \"+\", \"header\": 2, \"depth\": 1, \
             \"anchor\": 17, \"object\": 3, \"affine\": 1, \"pred\": \"lt\", \
             \"bindings\": [[\"q\\\"t\\n\", 5], [\"acc\", 9]]}}]}}}}\n\
             {{\"store\": {{\"fp\": \"0000000000000001\", \"steps\": 0, \"reductions\": []}}}}\n"
        );
        assert_eq!(c.render(), expected);
        // The first persist compacts; later ones append store and touch
        // records, in the order they were made.
        let dir = TempDir::new("layout");
        let path = dir.file("gr-cache.json");
        c.persist(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expected);
        c.hit(0xd635_76cc_d640_dd13, "f");
        c.store(0x2a, &report("h", 0, 5));
        c.persist(&path).unwrap();
        assert_eq!(
            tail(&path, expected.len() as u64),
            "{\"touch\": \"d63576ccd640dd13\"}\n\
             {\"store\": {\"fp\": \"000000000000002a\", \"steps\": 5, \"reductions\": []}}\n"
        );
    }

    fn report(function: &str, n_reductions: usize, steps: usize) -> DetectionReport {
        let reductions = (0..n_reductions)
            .map(|i| Reduction {
                function: function.to_string(),
                kind: ReductionKind::Histogram,
                op: ReductionOp::Add,
                header: BlockId(2),
                depth: 1,
                anchor: ValueId(17 + u32::try_from(i).unwrap()),
                object: Some(ValueId(3)),
                affine: i % 2 == 0,
                arg_pred: Some(CmpPred::Lt),
                bindings: vec![("loop".into(), ValueId(5)), ("acc".into(), ValueId(9))],
            })
            .collect();
        DetectionReport {
            function: function.to_string(),
            reductions,
            status: DetectionStatus::Complete,
            steps_used: steps,
            truncated_idioms: Vec::new(),
        }
    }

    #[test]
    fn each_persist_appends_exactly_the_records_its_request_made() {
        let dir = TempDir::new("growth");
        // A store record's bytes: a one-entry compaction minus its header.
        let store_record = |fp: u64, r: &DetectionReport| {
            let mut one = ReportCache::new(1);
            one.store(fp, r);
            one.render()[header().len()..].to_string()
        };
        let mut growth = Vec::new();
        for held in [2048u64, 65536] {
            let path = dir.file(&format!("{held}.json"));
            let mut c = ReportCache::new(held as usize);
            for fp in 0..held {
                c.store(fp, &report("f", 0, 1));
            }
            c.persist(&path).unwrap();
            let mut len = std::fs::metadata(&path).unwrap().len();
            let mut per_request = Vec::new();
            for req in 0..8u64 {
                // Two stores of new functions, six hits on held ones (the
                // two stores evict the two oldest, never a touched one).
                let mut expected = String::new();
                for k in 0..2 {
                    let (fp, r) = (held + 2 * req + k, report("g", (req % 3) as usize, 7));
                    assert!(c.store(fp, &r));
                    expected.push_str(&store_record(fp, &r));
                }
                for k in 0..6 {
                    let fp = 1024 + 6 * req + k;
                    assert!(c.hit(fp, "h").is_some());
                    let _ = writeln!(expected, "{{\"touch\": \"{fp:016x}\"}}");
                }
                c.persist(&path).unwrap();
                assert_eq!(tail(&path, len), expected, "{held} entries, request {req}");
                per_request.push(expected.len());
                len += expected.len() as u64;
                // Nothing new: nothing written.
                c.persist(&path).unwrap();
                assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
            }
            assert_eq!(ReportCache::load(&path, held as usize).0.render(), c.render());
            growth.push(per_request);
        }
        assert_eq!(growth[0], growth[1], "a persist's bytes follow its request, not the cache");
    }

    #[test]
    fn the_journal_compacts_once_appends_outgrow_the_last_compaction() {
        let dir = TempDir::new("ratio");
        let path = dir.file("gr-cache.json");
        let mut c = ReportCache::new(4);
        for fp in 0..4 {
            c.store(fp, &report("f", 1, 1));
        }
        c.persist(&path).unwrap();
        let compacted = std::fs::metadata(&path).unwrap().len();
        let mut compactions = 0;
        for round in 0..200u64 {
            c.hit(round % 4, "f");
            let before = std::fs::metadata(&path).unwrap().len();
            c.persist(&path).unwrap();
            let after = std::fs::metadata(&path).unwrap().len();
            assert!(after <= 2 * compacted, "round {round}: {after} > 2 × {compacted}");
            if after < before {
                compactions += 1;
                assert_eq!(std::fs::read_to_string(&path).unwrap(), c.render());
            }
        }
        assert!(compactions > 2, "{compactions} compactions");
    }

    #[test]
    fn render_parse_round_trip_is_byte_identical() {
        let mut c = ReportCache::new(8);
        assert!(c.store(0xdead_beef, &report("f", 2, 42)));
        assert!(c.store(1, &report("g", 0, 7)));
        let bytes = c.render();
        let reloaded = ReportCache::parse(&bytes, 8).unwrap();
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.render(), bytes, "reload must re-render identically");
    }

    #[test]
    fn hit_relabels_and_spends_zero_steps() {
        let mut c = ReportCache::new(8);
        c.store(9, &report("original", 1, 42));
        let served = c.hit(9, "renamed_twin").unwrap();
        assert_eq!(served.function, "renamed_twin");
        assert_eq!(served.reductions[0].function, "renamed_twin");
        assert_eq!(served.steps_used, 0, "a warm hit costs no solver steps");
        assert_eq!(served.status, DetectionStatus::Complete);
        assert!(c.hit(10, "missing").is_none());
    }

    #[test]
    fn degraded_reports_are_refused() {
        let mut c = ReportCache::new(8);
        let mut r = report("f", 1, 100);
        r.status = DetectionStatus::Degraded { budget: 100, steps_used: 100 };
        assert!(!c.store(5, &r), "degraded reports must never be cached");
        let mut t = report("g", 1, 100);
        t.truncated_idioms = vec!["scalar-reduction"];
        assert!(!c.store(6, &t), "truncated reports must never be cached");
        assert!(c.is_empty());
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut c = ReportCache::new(2);
        c.store(1, &report("a", 0, 1));
        c.store(2, &report("b", 0, 1));
        c.hit(1, "a"); // 2 is now coldest
        c.store(3, &report("c", 0, 1));
        assert!(c.contains(1) && c.contains(3) && !c.contains(2));
        assert_eq!(c.len(), 2);
    }

    /// Collapses every entry's touch clock onto `clock`.
    fn tie_clocks(c: &mut ReportCache, clock: u64) {
        for e in c.entries.values_mut() {
            e.touch = clock;
        }
        c.order = std::mem::take(&mut c.order)
            .into_iter()
            .map(|((_, fp), line)| ((clock, fp), line))
            .collect();
        c.clock = clock;
    }

    #[test]
    fn tied_touch_clocks_evict_and_render_deterministically() {
        // No public path produces two equal touch clocks, but the eviction
        // and render orders must stay canonical if one ever does (a future
        // cache merge, a schema migration). Force a tie directly and
        // round-trip a full cache through repeated evictions: the victim
        // is always the smallest tied fingerprint and every render of the
        // same logical state is byte-identical.
        let build = || {
            let mut c = ReportCache::new(3);
            for fp in [0x30u64, 0x10, 0x20] {
                c.store(fp, &report("f", 1, 2));
            }
            tie_clocks(&mut c, 7);
            c
        };
        let mut evolved = build().render();
        for round in 0..4u64 {
            // Same logical state ⇒ same bytes.
            assert_eq!(build().render(), build().render());
            // Evict: the smallest tied fingerprint must lose each round.
            let mut c = ReportCache::parse(&evolved, 3).unwrap();
            let survivors: Vec<u64> = {
                let mut fps: Vec<u64> = c.entries.keys().copied().collect();
                fps.sort_unstable();
                fps
            };
            tie_clocks(&mut c, 1);
            let fresh = 0x100 + round;
            assert!(c.store(fresh, &report("g", 1, 3)));
            assert!(!c.contains(survivors[0]), "smallest tied fingerprint is the victim");
            assert!(c.contains(fresh));
            assert_eq!(c.len(), 3);
            // Round-trip the evolved cache: reload re-renders the same
            // bytes, so the artifact is stable across repeated evictions.
            evolved = c.render();
            let reloaded = ReportCache::parse(&evolved, 3).unwrap();
            assert_eq!(reloaded.render(), evolved, "round {round} render must round-trip");
        }
    }

    #[test]
    fn wrong_schema_and_garbage_are_rejected() {
        let head = header();
        let v1 = "{\n  \"schema\": \"gr-cache/v1\",\n  \"entries\": []\n}\n";
        assert!(ReportCache::parse(v1, 4).is_none(), "a gr-cache/v1 file is another schema");
        let old_keys = "{\"schema\": \"gr-cache/v2\", \"keys\": \"gr-fp/v1\"}\n";
        assert!(ReportCache::parse(old_keys, 4).is_none(), "entries keyed by gr-fp/v1");
        assert!(ReportCache::parse("", 4).is_none(), "no header");
        assert!(ReportCache::parse("not json\n", 4).is_none());
        assert!(ReportCache::parse(&head, 4).is_some_and(|c| c.is_empty()));
        let store = "{\"store\": {\"fp\": \"01\", \"steps\": 1, \"reductions\": []}}\n";
        for bad in [
            "{\"evict\": \"01\"}\n",
            "{\"touch\": \"01\", \"store\": \"01\"}\n",
            "{\"touch\": \"xyz\"}\n",
            "{\"store\": {\"fp\": \"01\", \"steps\": -1, \"reductions\": []}}\n",
            "\n",
        ] {
            let text = format!("{head}{store}{bad}{store}");
            assert!(ReportCache::parse(&text, 4).is_none(), "complete line {bad:?} is corrupt");
        }
        // A re-store replaces the entry, and a touch of an absent
        // fingerprint changes nothing.
        let restore = "{\"store\": {\"fp\": \"01\", \"steps\": 2, \"reductions\": []}}\n";
        let text = format!("{head}{store}{{\"touch\": \"02\"}}\n{restore}");
        let c = ReportCache::parse(&text, 4).unwrap();
        assert_eq!(
            c.render(),
            format!("{head}{}", restore.replace("\"01\"", "\"0000000000000001\""))
        );
    }

    #[test]
    fn load_missing_file_is_a_clean_cold_start() {
        let dir = std::env::temp_dir().join("gr-cache-test-missing");
        let (c, err) = ReportCache::load(&dir.join("nope.json"), 4);
        assert!(c.is_empty());
        assert!(err.is_none(), "a missing file is not corruption");
    }

    #[test]
    fn a_torn_tail_is_dropped_without_gr006_and_compacted_away() {
        let dir = TempDir::new("torn");
        let path = dir.file("gr-cache.json");
        let mut c = ReportCache::new(8);
        c.store(1, &report("f", 1, 2));
        c.persist(&path).unwrap();
        let compaction = std::fs::read_to_string(&path).unwrap();
        c.store(2, &report("g", 1, 2));
        c.persist(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in [1, 5, 40] {
            // A kill mid-append leaves the last record without its `\n`.
            std::fs::write(&path, &full[..full.len() - cut]).unwrap();
            let guard = gr_trace::start();
            let (mut reloaded, err) = ReportCache::load(&path, 8);
            let trace = guard.finish();
            assert!(err.is_none(), "a torn tail is not corruption");
            assert_eq!(trace.counter("cache.persistent.torn_tails"), 1);
            assert_eq!(trace.counter("error{GR006}"), 0);
            assert!(reloaded.contains(1) && !reloaded.contains(2));
            // The next persist compacts, to the bytes the same logical
            // state compacted to before.
            let guard = gr_trace::start();
            reloaded.persist(&path).unwrap();
            assert_eq!(guard.finish().counter("cache.persistent.compactions"), 1);
            assert_eq!(std::fs::read_to_string(&path).unwrap(), compaction, "cut {cut}");
        }
    }

    #[test]
    fn poisoned_file_degrades_with_gr006() {
        let dir = TempDir::new("poison");
        let path = dir.file("gr-cache.json");
        let mut c = ReportCache::new(4);
        c.store(1, &report("f", 1, 2));
        c.persist(&path).unwrap();
        c.hit(1, "f");
        c.store(2, &report("g", 0, 2));
        c.persist(&path).unwrap();
        // Flip a byte inside an earlier, complete record.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = header().len() + 3;
        bytes[at] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let guard = gr_trace::start();
        let (mut c, err) = ReportCache::load(&path, 4);
        let trace = guard.finish();
        assert!(c.is_empty(), "poison degrades to an empty cache");
        assert!(c.hit(1, "f").is_none(), "a poisoned file serves no hits");
        let err = err.expect("corruption must surface a ledger entry");
        assert_eq!(err.code(), "GR006");
        assert_eq!(err.phase().as_str(), "serve");
        assert_eq!(trace.counter("error{GR006}"), 1);
        assert_eq!(trace.counter("cache.persistent.poisoned"), 1);
        // Load never writes; the first persist rewrites the file whole.
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        c.persist(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), header());
        assert!(ReportCache::load(&path, 4).1.is_none());
    }

    #[test]
    fn capacity_trim_on_parse_keeps_the_most_recent_tail() {
        let mut c = ReportCache::new(8);
        for fp in 1..=4u64 {
            c.store(fp, &report("f", 0, 1));
        }
        let reloaded = ReportCache::parse(&c.render(), 2).unwrap();
        assert_eq!(reloaded.len(), 2);
        assert!(reloaded.contains(3) && reloaded.contains(4), "the LRU head is trimmed");
        // A touch of an entry that a one-entry cache would have evicted
        // mid-replay still counts: the tail is the writer's.
        let dir = TempDir::new("trim");
        let path = dir.file("gr-cache.json");
        let mut c = ReportCache::new(8);
        for fp in 10..14u64 {
            c.store(fp, &report("f", 0, 1));
        }
        c.persist(&path).unwrap();
        let compacted = std::fs::metadata(&path).unwrap().len();
        c.store(1, &report("f", 0, 1));
        c.store(2, &report("f", 0, 1));
        c.hit(1, "f");
        c.persist(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text[compacted as usize..].ends_with("{\"touch\": \"0000000000000001\"}\n"));
        let (tail, _) = ReportCache::load(&path, 1);
        assert!(tail.contains(1) && tail.len() == 1, "the most recent entry is 1");
    }
}
