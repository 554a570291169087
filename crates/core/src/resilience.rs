//! Resilient execution: checkpoint/resume and cooperative cancellation
//! (DESIGN.md §11); faults to exercise them come from [`crate::chaos`].
//!
//! Long color-coding runs are a sequence of independent iterations, which
//! makes them naturally restartable: the complete run state between waves
//! is the per-iteration estimate series (plus the seed that deterministically
//! regenerates every future coloring). [`Checkpoint`] serializes exactly
//! that to a versioned `fascia-ckpt/1` JSON file after each wave, and
//! resuming replays the series into a fresh [`Welford`] stream — push
//! order is identical to the uninterrupted run, so a resumed
//! `FixedIterations` run reproduces the uninterrupted result *bit for
//! bit* (Rust's `f64` `Display` is shortest-roundtrip, so the JSON text
//! recovers every bit).
//!
//! [`CancelToken`] provides cooperative cancellation: an atomic flag plus
//! an optional deadline, checked at wave barriers and every
//! [`POLL_INTERVAL`] vertices inside the per-vertex DP loops. A cancelled
//! wave is discarded whole — the surviving series is always a contiguous
//! prefix of iterations `0..n`, which is what keeps resume exact.

use crate::stats::{StopRule, Welford};
use fascia_obs::json::{write_f64, ObjectWriter};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema tag of the checkpoint file format.
pub const CHECKPOINT_SCHEMA: &str = "fascia-ckpt/1";

/// How many vertices the inner per-vertex loops process between
/// cancellation polls. A power of two so the check compiles to a mask.
pub const POLL_INTERVAL: usize = 1024;

/// Why a counting run stopped (carried on `CountResult::stop_cause`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// The stop rule's budget was exhausted normally.
    Completed,
    /// An adaptive rule declared convergence before its budget.
    Converged,
    /// A [`CancelToken`] was cancelled (e.g. Ctrl-C).
    Cancelled,
    /// The token's deadline passed.
    DeadlineExceeded,
}

impl StopCause {
    /// Whether the run ended early with a partial (but valid) estimate.
    pub fn is_partial(&self) -> bool {
        matches!(self, StopCause::Cancelled | StopCause::DeadlineExceeded)
    }

    /// Stable lower-case name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            StopCause::Completed => "completed",
            StopCause::Converged => "converged",
            StopCause::Cancelled => "cancelled",
            StopCause::DeadlineExceeded => "deadline-exceeded",
        }
    }
}

#[derive(Debug)]
struct CancelInner {
    flag: AtomicBool,
    external: Option<&'static AtomicBool>,
    deadline: Option<Instant>,
}

/// Cooperative cancellation handle shared between the caller and a run.
///
/// Cloning shares the same underlying flag. The engine polls
/// [`CancelToken::is_cancelled`] at wave barriers and (cheaply, every
/// [`POLL_INTERVAL`] vertices) inside the per-vertex DP loops, so
/// cancellation latency is bounded even mid-iteration on large graphs.
///
/// ```
/// use fascia_core::resilience::CancelToken;
///
/// let token = CancelToken::new();
/// let engine_side = token.clone();
/// assert!(!engine_side.is_cancelled());
/// token.cancel();
/// assert!(engine_side.is_cancelled());
/// ```
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                external: None,
                deadline: None,
            }),
        }
    }

    /// Adds a deadline `after` from now. Builder-style; call before the
    /// token is cloned/shared.
    pub fn deadline(self, after: Duration) -> Self {
        self.rebuild(Some(Instant::now() + after), self.inner.external)
    }

    /// Watches an external flag (e.g. one set by a process signal
    /// handler) in addition to the token's own. Builder-style; call
    /// before the token is cloned/shared.
    pub fn external_flag(self, flag: &'static AtomicBool) -> Self {
        self.rebuild(self.inner.deadline, Some(flag))
    }

    fn rebuild(&self, deadline: Option<Instant>, external: Option<&'static AtomicBool>) -> Self {
        Self {
            inner: Arc::new(CancelInner {
                flag: AtomicBool::new(self.inner.flag.load(Ordering::Relaxed)),
                external,
                deadline,
            }),
        }
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the run should stop: explicit cancel, external flag, or
    /// deadline passed.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.flag.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(f) = self.inner.external {
            if f.load(Ordering::Relaxed) {
                return true;
            }
        }
        match self.inner.deadline {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }

    /// The stop cause if cancelled (`None` while still running). An
    /// explicit cancel wins over a deadline that also passed.
    pub fn cause(&self) -> Option<StopCause> {
        let explicit = self.inner.flag.load(Ordering::Relaxed)
            || self
                .inner
                .external
                .is_some_and(|f| f.load(Ordering::Relaxed));
        if explicit {
            return Some(StopCause::Cancelled);
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => Some(StopCause::DeadlineExceeded),
            _ => None,
        }
    }
}

/// Where (and how often) the engine writes checkpoints during a run.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Checkpoint file path; written atomically (temp file + rename)
    /// after qualifying waves, and once more when the run ends.
    pub path: PathBuf,
    /// Write after every `every_waves`-th wave barrier (1 = every wave).
    /// Raising this trades crash-recovery granularity for fewer writes on
    /// runs with very cheap iterations.
    pub every_waves: usize,
    /// Fsync the file and its containing directory on every flush
    /// ([`atomic_write_durable`]), so a crash *immediately after* a
    /// checkpoint cannot lose it on real filesystems. Off by default —
    /// interactive CLI runs prefer cheap waves — and on for service jobs,
    /// whose crash-recovery contract depends on the last flush surviving.
    pub durable: bool,
}

impl CheckpointConfig {
    /// Checkpoints to `path` after every wave.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            every_waves: 1,
            durable: false,
        }
    }

    /// Builder: fsync file + directory on every flush (service paths).
    pub fn durable(mut self) -> Self {
        self.durable = true;
        self
    }
}

/// Errors loading or saving a [`Checkpoint`].
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file is not well-formed JSON; `offset` is the byte position.
    Parse {
        /// Byte offset of the failure.
        offset: usize,
        /// What the parser expected.
        msg: &'static str,
    },
    /// The file is JSON but not a `fascia-ckpt/1` document (payload is
    /// the schema string found, empty when absent).
    Schema(String),
    /// Well-formed `fascia-ckpt/1` JSON whose content is inconsistent
    /// (missing field, wrong type, or failed integrity check).
    Invalid(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io: {e}"),
            CheckpointError::Parse { offset, msg } => {
                write!(f, "checkpoint parse error at byte {offset}: {msg}")
            }
            CheckpointError::Schema(s) if s.is_empty() => {
                write!(f, "not a {CHECKPOINT_SCHEMA} file (no schema field)")
            }
            CheckpointError::Schema(s) => {
                write!(
                    f,
                    "unsupported checkpoint schema {s:?} (want {CHECKPOINT_SCHEMA})"
                )
            }
            CheckpointError::Invalid(why) => write!(f, "invalid checkpoint: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A run's complete restartable state between waves.
///
/// Everything a resumed run needs is here: the seed (every iteration `i`
/// derives its coloring from `iteration_seed(seed, i)`, so future
/// colorings regenerate deterministically), the configuration fingerprint
/// that must match on resume (colors, template size, graph shape, stop
/// rule), and the scaled per-iteration estimate series completed so far.
///
/// ```
/// use fascia_core::resilience::Checkpoint;
/// use fascia_core::stats::StopRule;
///
/// let ck = Checkpoint {
///     seed: 7,
///     colors: 5,
///     template_size: 5,
///     graph_vertices: 100,
///     graph_edges: 250,
///     rule: StopRule::FixedIterations(50),
///     per_iteration: vec![1.5, 2.25, 0.0],
///     peak_table_bytes: 4096,
/// };
/// let back = Checkpoint::from_json(&ck.to_json()).unwrap();
/// assert_eq!(back, ck); // f64 Display round-trips bitwise
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Base RNG seed of the run being checkpointed.
    pub seed: u64,
    /// Number of colors `k`.
    pub colors: usize,
    /// Template vertex count.
    pub template_size: usize,
    /// Graph vertex count (resume-mismatch guard).
    pub graph_vertices: usize,
    /// Graph edge count (resume-mismatch guard).
    pub graph_edges: usize,
    /// The run's *target* stop rule (not the completed count), so a run
    /// killed at iteration `j < n` resumes toward the original `n`.
    pub rule: StopRule,
    /// Scaled per-iteration estimates completed so far (iterations
    /// `0..len`, a contiguous prefix by construction).
    pub per_iteration: Vec<f64>,
    /// Peak DP-table bytes observed so far (carried through resume so the
    /// final report covers the whole logical run).
    pub peak_table_bytes: usize,
}

impl Checkpoint {
    /// Iterations completed (the resume cursor).
    pub fn iterations_done(&self) -> usize {
        self.per_iteration.len()
    }

    /// The streaming [`Welford`] state implied by the series: replaying
    /// pushes in order is bitwise-identical to the uninterrupted stream,
    /// so this both *is* the serialized estimator state and serves as the
    /// file's integrity check.
    pub fn welford(&self) -> Welford {
        let mut w = Welford::new();
        for &x in &self.per_iteration {
            w.push(x);
        }
        w
    }

    /// Serializes to `fascia-ckpt/1` JSON.
    pub fn to_json(&self) -> String {
        let mut series = String::from("[");
        for (i, &x) in self.per_iteration.iter().enumerate() {
            if i > 0 {
                series.push(',');
            }
            write_f64(&mut series, x);
        }
        series.push(']');
        let rule = match self.rule {
            StopRule::FixedIterations(n) => {
                let mut o = ObjectWriter::new();
                o.field_str("kind", "fixed").field_u64("iters", n as u64);
                o.finish()
            }
            StopRule::RelativeError {
                epsilon,
                delta,
                min_iters,
                max_iters,
            } => {
                let mut o = ObjectWriter::new();
                o.field_str("kind", "relative_error")
                    .field_f64("epsilon", epsilon)
                    .field_f64("delta", delta)
                    .field_u64("min_iters", min_iters as u64)
                    .field_u64("max_iters", max_iters as u64);
                o.finish()
            }
        };
        let w = self.welford();
        let mut welford = String::new();
        let _ = write!(welford, "{{\"n\":{}", w.count());
        welford.push_str(",\"mean\":");
        write_f64(&mut welford, w.mean());
        welford.push_str(",\"m2\":");
        write_f64(&mut welford, w.m2());
        welford.push('}');

        let mut o = ObjectWriter::new();
        o.field_str("schema", CHECKPOINT_SCHEMA)
            .field_u64("seed", self.seed)
            .field_u64("colors", self.colors as u64)
            .field_u64("template_size", self.template_size as u64)
            .field_u64("graph_vertices", self.graph_vertices as u64)
            .field_u64("graph_edges", self.graph_edges as u64)
            .field_raw("rule", &rule)
            .field_u64("iterations_done", self.per_iteration.len() as u64)
            .field_raw("per_iteration", &series)
            .field_u64("peak_table_bytes", self.peak_table_bytes as u64)
            .field_raw("welford", &welford);
        o.finish()
    }

    /// Parses and validates `fascia-ckpt/1` JSON. Rejects malformed JSON,
    /// wrong schemas, missing/mistyped fields, non-finite estimates, and
    /// internally inconsistent state (cursor or Welford snapshot
    /// disagreeing with the series, series longer than the rule's budget)
    /// — always with a typed error, never a panic.
    pub fn from_json(text: &str) -> Result<Self, CheckpointError> {
        let v = Json::parse(text)?;
        let obj = v.as_obj().ok_or(CheckpointError::Invalid(
            "top-level value must be an object",
        ))?;
        let schema = match Json::get(obj, "schema").and_then(Json::as_str) {
            Some(s) => s,
            None => return Err(CheckpointError::Schema(String::new())),
        };
        if schema != CHECKPOINT_SCHEMA {
            return Err(CheckpointError::Schema(schema.to_string()));
        }
        let get_u64 = |key: &'static str| -> Result<u64, CheckpointError> {
            Json::get(obj, key)
                .and_then(Json::as_u64)
                .ok_or(CheckpointError::Invalid(key))
        };
        let rule_obj = Json::get(obj, "rule")
            .and_then(Json::as_obj)
            .ok_or(CheckpointError::Invalid("rule"))?;
        let rule_field = |key: &'static str| -> Result<&Json, CheckpointError> {
            Json::get(rule_obj, key).ok_or(CheckpointError::Invalid("rule parameters"))
        };
        let rule = match Json::get(rule_obj, "kind").and_then(Json::as_str) {
            Some("fixed") => StopRule::FixedIterations(
                rule_field("iters")?
                    .as_u64()
                    .ok_or(CheckpointError::Invalid("rule.iters"))? as usize,
            ),
            Some("relative_error") => StopRule::RelativeError {
                epsilon: rule_field("epsilon")?
                    .as_f64()
                    .ok_or(CheckpointError::Invalid("rule.epsilon"))?,
                delta: rule_field("delta")?
                    .as_f64()
                    .ok_or(CheckpointError::Invalid("rule.delta"))?,
                min_iters: rule_field("min_iters")?
                    .as_u64()
                    .ok_or(CheckpointError::Invalid("rule.min_iters"))?
                    as usize,
                max_iters: rule_field("max_iters")?
                    .as_u64()
                    .ok_or(CheckpointError::Invalid("rule.max_iters"))?
                    as usize,
            },
            _ => return Err(CheckpointError::Invalid("rule.kind")),
        };
        rule.validate().map_err(CheckpointError::Invalid)?;
        let series_json = Json::get(obj, "per_iteration")
            .and_then(Json::as_arr)
            .ok_or(CheckpointError::Invalid("per_iteration"))?;
        let mut per_iteration = Vec::with_capacity(series_json.len());
        for x in series_json {
            let x = x
                .as_f64()
                .filter(|x| x.is_finite())
                .ok_or(CheckpointError::Invalid(
                    "per_iteration entries must be finite numbers",
                ))?;
            per_iteration.push(x);
        }
        if per_iteration.len() > rule.budget() {
            return Err(CheckpointError::Invalid(
                "series exceeds the stop rule's iteration budget",
            ));
        }
        let done = get_u64("iterations_done")? as usize;
        if done != per_iteration.len() {
            return Err(CheckpointError::Invalid(
                "iterations_done disagrees with the series length",
            ));
        }
        let ck = Checkpoint {
            seed: get_u64("seed")?,
            colors: get_u64("colors")? as usize,
            template_size: get_u64("template_size")? as usize,
            graph_vertices: get_u64("graph_vertices")? as usize,
            graph_edges: get_u64("graph_edges")? as usize,
            rule,
            per_iteration,
            peak_table_bytes: get_u64("peak_table_bytes")? as usize,
        };
        // Integrity: the stored Welford snapshot must equal the replayed
        // one bit for bit (both derive from the same push sequence).
        let welford_obj = Json::get(obj, "welford")
            .and_then(Json::as_obj)
            .ok_or(CheckpointError::Invalid("welford"))?;
        let w = ck.welford();
        let n = Json::get(welford_obj, "n").and_then(Json::as_u64);
        let mean = Json::get(welford_obj, "mean").and_then(Json::as_f64);
        let m2 = Json::get(welford_obj, "m2").and_then(Json::as_f64);
        if n != Some(w.count() as u64) || mean != Some(w.mean()) || m2 != Some(w.m2()) {
            return Err(CheckpointError::Invalid(
                "welford snapshot disagrees with the series",
            ));
        }
        Ok(ck)
    }

    /// Writes atomically: a sibling temp file is renamed over `path`, so
    /// a crash mid-write never leaves a truncated checkpoint behind.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        self.save_opts(path, false)
    }

    /// [`Checkpoint::save`] with an explicit durability choice: `durable`
    /// routes through [`atomic_write_durable`] (file + directory fsync),
    /// the write discipline of the service path.
    pub fn save_opts(&self, path: &Path, durable: bool) -> Result<(), CheckpointError> {
        if path.file_name().is_none() {
            return Err(CheckpointError::Invalid(
                "checkpoint path needs a file name",
            ));
        }
        if durable {
            atomic_write_durable(path, &self.to_json())?;
        } else {
            atomic_write(path, &self.to_json())?;
        }
        Ok(())
    }

    /// Reads and validates a checkpoint file.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text)
    }
}

/// Writes `contents` to `path` atomically: a sibling `.tmp` file is
/// written first and renamed over the destination, so readers never see a
/// torn or truncated document. Shared by checkpoint saves, trace export,
/// and the heartbeat writer. On any failure the temp file is removed —
/// a failed save must not litter the run directory with stale `.tmp`
/// siblings that a later `fascia report` scan would trip over.
pub fn atomic_write(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = tmp_sibling(path);
    let result = std::fs::write(&tmp, contents).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// [`atomic_write`] hardened for crash durability: the temp file is
/// fsynced before the rename, and the containing directory is fsynced
/// after it. Plain `rename` only orders the *names*; on real filesystems
/// a power loss right after [`atomic_write`] returns can roll the
/// directory back to the old entry (or, with the data unflushed, expose a
/// new name pointing at zero-length data). Service-path writers —
/// checkpoints a restart must recover from, job result documents —
/// cannot afford either, so they pay the two extra fsyncs.
pub fn atomic_write_durable(path: &Path, contents: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let tmp = tmp_sibling(path);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        fsync_parent_dir(path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Fsyncs the directory containing `path`, persisting the rename that
/// just landed in it. On platforms where directories cannot be opened
/// for syncing this is a no-op (the rename's atomicity still holds; only
/// the durability-across-power-loss guarantee is platform-limited).
#[cfg(unix)]
fn fsync_parent_dir(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    std::fs::File::open(parent)?.sync_all()
}

#[cfg(not(unix))]
fn fsync_parent_dir(_path: &Path) -> std::io::Result<()> {
    Ok(())
}

/// The sibling temp path `atomic_write` stages through (`<path>.tmp`).
/// Exposed so cleanup paths (clean exit, interrupt) can remove a stale
/// temp file left by a process that died mid-write.
pub fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut tmp_name = path
        .file_name()
        .unwrap_or_else(|| std::ffi::OsStr::new("out"))
        .to_os_string();
    tmp_name.push(".tmp");
    path.with_file_name(tmp_name)
}

/// A parsed JSON value — the read half of `fascia-obs`'s write-only JSON
/// layer. Originally private to checkpoint loading; public so the CLI and
/// CI gates can validate the documents this crate emits (checkpoints,
/// traces, heartbeats) with the same depth-capped parser that guards
/// resume. Integer-valued tokens keep full `u64` precision (seeds and
/// cursors must not round-trip through `f64`).
#[derive(Debug)]
pub enum Json {
    Null,
    // The checkpoint schema has no boolean fields, but the parser accepts
    // the full JSON grammar so adversarial inputs fail for the right
    // reason (wrong type, not parse error).
    #[allow(dead_code)]
    Bool(bool),
    UInt(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

const MAX_JSON_DEPTH: usize = 32;

impl Json {
    /// Parses a complete JSON document (depth-capped, full `u64`
    /// precision for integer tokens).
    pub fn parse(text: &str) -> Result<Json, CheckpointError> {
        let mut p = JsonParser {
            b: text.as_bytes(),
            pos: 0,
        };
        let v = p.value(MAX_JSON_DEPTH)?;
        p.skip_ws();
        if p.pos != p.b.len() {
            return Err(p.err("trailing data after the JSON value"));
        }
        Ok(v)
    }

    /// Looks up `key` in a parsed object's field list.
    pub fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
        obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The object's fields, if this value is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// The array's elements, if this value is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The string value, if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The exact integer value, if this value is a non-negative integer token.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(n) => Some(n),
            _ => None,
        }
    }

    /// The numeric value (integers widen), if this value is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(n) => Some(n as f64),
            Json::Num(x) => Some(x),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn err(&self, msg: &'static str) -> CheckpointError {
        CheckpointError::Parse {
            offset: self.pos,
            msg,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.pos) {
            if matches!(c, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, c: u8, msg: &'static str) -> Result<(), CheckpointError> {
        if self.b.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, CheckpointError> {
        if depth == 0 {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.b.get(self.pos) {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &[u8], v: Json) -> Result<Json, CheckpointError> {
        if self.b[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("malformed literal"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, CheckpointError> {
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.b.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            let val = self.value(depth - 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, CheckpointError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.b.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth - 1)?);
            self.skip_ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, CheckpointError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let Some(&c) = self.b.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&e) = self.b.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| self.err("\\u escape is not a scalar value"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                c if c < 0x20 => return Err(self.err("raw control character in string")),
                _ => {
                    // Re-sync to the char boundary for multi-byte UTF-8.
                    let start = self.pos - 1;
                    let width = utf8_width(c);
                    let end = start + width;
                    let chunk = self
                        .b
                        .get(start..end)
                        .and_then(|s| std::str::from_utf8(s).ok())
                        .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, CheckpointError> {
        let start = self.pos;
        if self.b.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(&c) = self.b.get(self.pos) {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let token = std::str::from_utf8(&self.b[start..self.pos])
            .map_err(|_| self.err("malformed number"))?;
        if integral && !token.starts_with('-') {
            if let Ok(n) = token.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        match token.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => Err(self.err("malformed number")),
        }
    }
}

/// Byte width of a UTF-8 sequence from its first byte (caller validates
/// the full sequence afterwards).
fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            seed: 0xDEAD_BEEF_0123_4567,
            colors: 5,
            template_size: 5,
            graph_vertices: 1000,
            graph_edges: 2500,
            rule: StopRule::FixedIterations(100),
            per_iteration: vec![1.0 / 3.0, 1e17, 0.0, 7.25, f64::MIN_POSITIVE],
            peak_table_bytes: 123_456,
        }
    }

    #[test]
    fn json_roundtrip_is_bitwise() {
        let ck = sample();
        let back = Checkpoint::from_json(&ck.to_json()).unwrap();
        assert_eq!(back, ck);
        for (a, b) in ck.per_iteration.iter().zip(&back.per_iteration) {
            assert_eq!(a.to_bits(), b.to_bits(), "f64 bits must survive JSON");
        }
    }

    #[test]
    fn adaptive_rule_roundtrips() {
        let mut ck = sample();
        ck.rule = StopRule::RelativeError {
            epsilon: 0.05,
            delta: 0.01,
            min_iters: 8,
            max_iters: 5000,
        };
        assert_eq!(Checkpoint::from_json(&ck.to_json()).unwrap(), ck);
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("fascia-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ckpt");
        let ck = sample();
        ck.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
        // The staging file was renamed over the destination, not left behind.
        assert!(!tmp_sibling(&path).exists(), "no .tmp after a clean save");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn durable_write_lands_and_cleans_up_like_the_plain_one() {
        let dir = std::env::temp_dir().join(format!("fascia-awd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("durable.json");
        atomic_write_durable(&path, "{\"ok\":1}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ok\":1}");
        assert!(!tmp_sibling(&path).exists());
        // Failure path (rename blocked by a directory) removes the temp.
        let blocked = dir.join("blocked");
        std::fs::create_dir_all(&blocked).unwrap();
        assert!(atomic_write_durable(&blocked, "{}").is_err());
        assert!(!tmp_sibling(&blocked).exists());
        // Durable checkpoint saves round-trip identically to plain ones.
        let ck = sample();
        let dp = dir.join("durable.ckpt");
        ck.save_opts(&dp, true).unwrap();
        assert_eq!(Checkpoint::load(&dp).unwrap(), ck);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tmp_sibling_appends_to_the_file_name() {
        let p = Path::new("/runs/out/hb.json");
        assert_eq!(tmp_sibling(p), Path::new("/runs/out/hb.json.tmp"));
    }

    #[test]
    fn failed_atomic_write_removes_its_temp_file() {
        let dir = std::env::temp_dir().join(format!("fascia-aw-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // The destination is a directory, so the write succeeds but the
        // rename over it fails — exactly the window that used to leak a
        // stale `.tmp` sibling into the run directory.
        let dest = dir.join("blocked");
        std::fs::create_dir_all(&dest).unwrap();
        assert!(atomic_write(&dest, "{}").is_err());
        assert!(
            !tmp_sibling(&dest).exists(),
            "a failed save must clean up its staging file"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_malformed_inputs_with_typed_errors() {
        let deep = "[".repeat(100_000);
        let cases: &[&str] = &[
            "",
            "not json",
            "{",
            "[1,2,3]",
            "{\"schema\":\"fascia-ckpt/1\"}",
            "{\"schema\":\"fascia-ckpt/2\"}",
            "{\"schema\":17}",
            "null",
            "{\"schema\":\"fascia-ckpt/1\",\"seed\":-3}",
            &deep,
        ];
        for c in cases {
            assert!(
                Checkpoint::from_json(c).is_err(),
                "should reject {:?}…",
                &c[..c.len().min(40)]
            );
        }
    }

    #[test]
    fn rejects_inconsistent_state() {
        // Well-scaled series: a tampered entry must actually move the
        // Welford moments (the `sample()` series contains 1e17, which
        // would absorb a 0.25 change below f64 resolution).
        let ck = Checkpoint {
            per_iteration: vec![1.5, 7.25, 3.125],
            ..sample()
        };
        // Tamper with one estimate: the Welford snapshot no longer matches.
        let json = ck.to_json().replace("7.25", "7.5");
        assert!(matches!(
            Checkpoint::from_json(&json),
            Err(CheckpointError::Invalid(_))
        ));
        // Cursor disagreeing with the series.
        let json = sample()
            .to_json()
            .replace("\"iterations_done\":5", "\"iterations_done\":4");
        assert!(Checkpoint::from_json(&json).is_err());
        // Series longer than the rule's budget.
        let mut over = sample();
        over.rule = StopRule::FixedIterations(2);
        assert!(Checkpoint::from_json(&over.to_json()).is_err());
    }

    #[test]
    fn non_finite_estimates_rejected() {
        let mut ck = sample();
        ck.per_iteration = vec![f64::NAN];
        // write_f64 renders NaN as null; the loader must refuse it.
        assert!(Checkpoint::from_json(&ck.to_json()).is_err());
    }

    #[test]
    fn token_cancel_and_clone_share_state() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!u.is_cancelled());
        assert_eq!(t.cause(), None);
        t.cancel();
        assert!(u.is_cancelled());
        assert_eq!(u.cause(), Some(StopCause::Cancelled));
    }

    #[test]
    fn token_deadline_expires() {
        let t = CancelToken::new().deadline(Duration::from_secs(0));
        assert!(t.is_cancelled());
        assert_eq!(t.cause(), Some(StopCause::DeadlineExceeded));
        let far = CancelToken::new().deadline(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
        // Explicit cancel wins over a pending deadline.
        far.cancel();
        assert_eq!(far.cause(), Some(StopCause::Cancelled));
    }

    #[test]
    fn token_external_flag() {
        static FLAG: AtomicBool = AtomicBool::new(false);
        let t = CancelToken::new().external_flag(&FLAG);
        assert!(!t.is_cancelled());
        FLAG.store(true, Ordering::Relaxed);
        assert!(t.is_cancelled());
        assert_eq!(t.cause(), Some(StopCause::Cancelled));
        FLAG.store(false, Ordering::Relaxed);
    }

    #[test]
    fn stop_cause_names() {
        assert!(!StopCause::Completed.is_partial());
        assert!(!StopCause::Converged.is_partial());
        assert!(StopCause::Cancelled.is_partial());
        assert!(StopCause::DeadlineExceeded.is_partial());
        assert_eq!(StopCause::DeadlineExceeded.name(), "deadline-exceeded");
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = Json::parse(r#"{"k":"a\"b\\c\ndAé"}"#).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(Json::get(obj, "k").unwrap().as_str(), Some("a\"b\\c\ndAé"));
    }

    #[test]
    fn parser_keeps_u64_precision() {
        let v = Json::parse(&format!("{{\"s\":{}}}", u64::MAX)).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(Json::get(obj, "s").unwrap().as_u64(), Some(u64::MAX));
    }
}
