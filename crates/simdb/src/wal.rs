//! Durability: JSON-lines write-ahead log and full snapshots.
//!
//! The central database is the only channel between AMP's portal and the
//! GridAMP daemon, so losing it loses all workflow state. The `Wal` appends
//! each committed mutation as one JSON line; `Snapshot` serializes the whole
//! database. Recovery = load latest snapshot, then replay the WAL suffix.

use crate::db::{Database, LogOp};
use crate::error::DbError;
use crate::table::{RowChunk, Table};
use crate::value::Value;
use serde::Deserialize;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};

/// The table a logged op targets (per-table WAL coverage accounting).
pub(crate) fn op_table(op: &LogOp) -> &str {
    match op {
        LogOp::CreateTable { schema } => &schema.name,
        LogOp::Insert { table, .. } | LogOp::Update { table, .. } | LogOp::Delete { table, .. } => {
            table
        }
    }
}

// Byte-exact JSON encoders shared by the WAL and the snapshot writer. The
// generic serde path builds an intermediate content tree per value; these
// write the identical JSON straight into the output buffer.
// `encoder_matches_serde` and `snapshot_writer_matches_serde_layout` pin
// byte equality against `serde_json`.

fn encode_str(buf: &mut Vec<u8>, s: &str) {
    buf.push(b'"');
    let bytes = s.as_bytes();
    let mut run = 0; // start of the current passthrough run
    for (i, &b) in bytes.iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue; // plain byte (incl. UTF-8 continuation): copied in bulk
        }
        buf.extend_from_slice(&bytes[run..i]);
        run = i + 1;
        match b {
            b'"' => buf.extend_from_slice(b"\\\""),
            b'\\' => buf.extend_from_slice(b"\\\\"),
            b'\n' => buf.extend_from_slice(b"\\n"),
            b'\t' => buf.extend_from_slice(b"\\t"),
            b'\r' => buf.extend_from_slice(b"\\r"),
            0x8 => buf.extend_from_slice(b"\\b"),
            0xc => buf.extend_from_slice(b"\\f"),
            c => buf.extend_from_slice(format!("\\u{:04x}", c as u32).as_bytes()),
        }
    }
    buf.extend_from_slice(&bytes[run..]);
    buf.push(b'"');
}

fn encode_i64(buf: &mut Vec<u8>, v: i64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    let neg = v < 0;
    let mut v = (v as i128).unsigned_abs();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    if neg {
        buf.push(b'-');
    }
    buf.extend_from_slice(&digits[i..]);
}

fn encode_f64(buf: &mut Vec<u8>, v: f64) {
    if !v.is_finite() {
        buf.extend_from_slice(b"null");
        return;
    }
    let s = format!("{v}");
    buf.extend_from_slice(s.as_bytes());
    if !s.contains('.') && !s.contains('e') {
        buf.extend_from_slice(b".0");
    }
}

fn encode_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.extend_from_slice(b"\"Null\""),
        Value::Bool(true) => buf.extend_from_slice(b"{\"Bool\":true}"),
        Value::Bool(false) => buf.extend_from_slice(b"{\"Bool\":false}"),
        Value::Int(i) => {
            buf.extend_from_slice(b"{\"Int\":");
            encode_i64(buf, *i);
            buf.push(b'}');
        }
        Value::Float(f) => {
            buf.extend_from_slice(b"{\"Float\":");
            encode_f64(buf, *f);
            buf.push(b'}');
        }
        Value::Timestamp(t) => {
            buf.extend_from_slice(b"{\"Timestamp\":");
            encode_i64(buf, *t);
            buf.push(b'}');
        }
        Value::Text(s) => {
            buf.extend_from_slice(b"{\"Text\":");
            encode_str(buf, s);
            buf.push(b'}');
        }
    }
}

/// A row as a JSON array of its cells.
fn encode_row(buf: &mut Vec<u8>, row: &[Value]) {
    buf.push(b'[');
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            buf.push(b',');
        }
        encode_value(buf, v);
    }
    buf.push(b']');
}

/// Fast encoder for the hot `LogOp` variants. `CreateTable` (cold: DDL
/// only) falls back to serde.
fn encode_op(buf: &mut Vec<u8>, op: &LogOp) -> Result<(), DbError> {
    fn encode_header(buf: &mut Vec<u8>, variant: &str, table: &str, id: i64) {
        buf.push(b'{');
        encode_str(buf, variant);
        buf.extend_from_slice(b":{\"table\":");
        encode_str(buf, table);
        buf.extend_from_slice(b",\"id\":");
        encode_i64(buf, id);
    }
    fn encode_row_op(buf: &mut Vec<u8>, variant: &str, table: &str, id: i64, row: &[Value]) {
        encode_header(buf, variant, table, id);
        buf.extend_from_slice(b",\"row\":");
        encode_row(buf, row);
        buf.extend_from_slice(b"}}");
    }
    match op {
        LogOp::Insert { table, id, row } => encode_row_op(buf, "Insert", table, *id, row),
        LogOp::Update { table, id, row } => encode_row_op(buf, "Update", table, *id, row),
        LogOp::Delete { table, id } => {
            encode_header(buf, "Delete", table, *id);
            buf.extend_from_slice(b"}}");
        }
        LogOp::CreateTable { .. } => {
            let body =
                serde_json::to_string(op).map_err(|e| DbError::Io(format!("wal encode: {e}")))?;
            buf.extend_from_slice(body.as_bytes());
        }
    }
    Ok(())
}

/// The `seq` and table name of one WAL line, read from its fixed prefix
/// without decoding the op: `{"seq":N,"op":{"<Variant>":{"table":"<name>"`
/// for row ops, `{"seq":N,"op":{"CreateTable":{"schema":{"name":"<name>"`
/// for DDL. `None` if the prefix does not have that shape.
fn scan_header(line: &[u8]) -> Option<(u64, Cow<'_, str>)> {
    let rest = line.strip_prefix(b"{\"seq\":")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    let seq = std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()?;
    let rest = rest[digits..].strip_prefix(b",\"op\":{\"")?;
    let name = match rest.strip_prefix(b"CreateTable\":{\"schema\":{\"name\":") {
        Some(name) => name,
        None => [&b"Insert"[..], b"Update", b"Delete"]
            .iter()
            .find_map(|v| rest.strip_prefix(*v))?
            .strip_prefix(b"\":{\"table\":")?,
    };
    Some((seq, scan_str(name)?))
}

/// Decode the JSON string literal at the start of `s`, borrowing when it
/// holds no escapes. An escaped literal is rare (a table name with `"`,
/// `\` or a control character) and is handed to `serde_json` whole.
fn scan_str(s: &[u8]) -> Option<Cow<'_, str>> {
    let body = s.strip_prefix(b"\"")?;
    let end = body.iter().position(|&b| b == b'"' || b == b'\\')?;
    if body[end] == b'"' {
        return std::str::from_utf8(&body[..end]).ok().map(Cow::Borrowed);
    }
    // The closing quote is the first `"` not consumed by an escape.
    let mut i = end;
    while body.get(i)? != &b'"' {
        i += if body[i] == b'\\' { 2 } else { 1 };
    }
    serde_json::from_slice::<String>(&s[..i + 2])
        .ok()
        .map(Cow::Owned)
}

/// One WAL record: a monotonically increasing sequence number plus the op.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct WalRecord {
    pub seq: u64,
    pub op: LogOp,
}

/// An append-only write-ahead log backed by a file, with **cross-writer
/// group commit**.
///
/// A commit has three phases: (1) serialize the ops to JSON — the expensive
/// part — entirely outside any lock; (2) take the cheap `queue` lock just
/// long enough to claim sequence numbers and splice the pre-encoded lines
/// into the shared in-memory buffer; (3) make the batch durable through the
/// leader/follower protocol in [`Self::sync_to`]. Phase 3 is the group
/// commit: at most one thread — the *leader* — is elected per flush window
/// under the `commit` mutex; it drains *everything* buffered so far
/// (including lines from writers that arrived while the previous flush was
/// in flight) with a single write + flush + optional `fdatasync`, while
/// every other committer parks on the condvar instead of convoying on a
/// file lock. When the leader publishes the new durable watermark, covered
/// followers return without ever touching the file; uncovered ones elect
/// the next leader. N concurrent daemon writer threads therefore share one
/// durability syscall per window instead of paying one each.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    queue: Mutex<WalQueue>,
    /// Group-commit control block: leader election, follower parking, and
    /// the durable watermark. Never held across file I/O.
    commit: Mutex<CommitState>,
    commit_cond: Condvar,
    /// The file writer. Only the elected leader (`CommitState::flushing`)
    /// and truncation — which first waits out any in-flight flush — touch
    /// it, so this lock is uncontended in steady state.
    file: Mutex<WalFile>,
    /// When set, every group-commit flush is followed by `fdatasync`, so
    /// a commit survives power loss, not just process death. Off by
    /// default (the historical behavior); the fsync is amortized across
    /// the whole batch the group-commit leader drains.
    fsync: std::sync::atomic::AtomicBool,
}

#[derive(Debug)]
struct WalQueue {
    next_seq: u64,
    /// Encoded-but-unflushed records, in sequence order.
    buf: Vec<u8>,
    /// Records currently in `buf` (group-commit batch-size metric).
    pending: usize,
}

#[derive(Debug)]
struct CommitState {
    /// A leader is mid-flush. Guards the file writer by protocol: only the
    /// thread that flipped this true may take the `file` lock for a flush.
    flushing: bool,
    /// Writer threads parked on the condvar waiting for a leader's flush
    /// to cover their records.
    waiters: usize,
    /// Highest sequence number known durable in the file.
    flushed_seq: Option<u64>,
    /// A failed flush may have lost buffered records; the log is unusable.
    failed: Option<String>,
}

#[derive(Debug)]
struct WalFile {
    writer: BufWriter<File>,
}

impl Wal {
    /// Open (or create) a WAL file, continuing after any existing records.
    /// Streams the file to find the tail record — only the last line is
    /// actually parsed, so reopening a long log costs one pass of IO, not
    /// a full JSON decode of every record.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, DbError> {
        let path = path.as_ref().to_path_buf();
        let next_seq = if path.exists() {
            let f = File::open(&path)?;
            let mut last_line: Option<(usize, String)> = None;
            for (lineno, line) in BufReader::new(f).lines().enumerate() {
                let line = line?;
                if !line.trim().is_empty() {
                    last_line = Some((lineno, line));
                }
            }
            match last_line {
                Some((lineno, line)) => {
                    let rec: WalRecord = serde_json::from_str(&line)
                        .map_err(|e| DbError::Corrupt(format!("wal line {}: {e}", lineno + 1)))?;
                    rec.seq + 1
                }
                None => 0,
            }
        } else {
            0
        };
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Wal {
            path,
            queue: Mutex::new(WalQueue {
                next_seq,
                buf: Vec::new(),
                pending: 0,
            }),
            commit: Mutex::new(CommitState {
                flushing: false,
                waiters: 0,
                flushed_seq: next_seq.checked_sub(1),
                failed: None,
            }),
            commit_cond: Condvar::new(),
            file: Mutex::new(WalFile {
                writer: BufWriter::new(file),
            }),
            fsync: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Number the next record after `seq` if the log itself ends earlier
    /// (an empty log after a compaction; the snapshot knows the higher
    /// watermark).
    pub(crate) fn continue_after(&self, seq: u64) {
        let mut st = self.commit.lock().expect("wal commit lock");
        let mut q = self.queue.lock().expect("wal queue lock");
        if q.next_seq <= seq {
            q.next_seq = seq + 1;
            st.flushed_seq = Some(seq);
        }
    }

    /// Enable or disable per-commit `fdatasync` (see the `fsync` field).
    pub fn set_fsync(&self, on: bool) {
        self.fsync.store(on, std::sync::atomic::Ordering::Relaxed);
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Highest sequence number assigned so far, or `None` if no record was
    /// ever appended. Tracked in memory so snapshot/checkpoint never has to
    /// re-read the log to learn where it ends.
    pub fn last_seq(&self) -> Option<u64> {
        self.queue
            .lock()
            .expect("wal queue lock")
            .next_seq
            .checked_sub(1)
    }

    /// Append ops and make them durable (group commit). Returns the
    /// sequence number of the last record.
    pub fn append(&self, ops: &[LogOp]) -> Result<u64, DbError> {
        match self.enqueue(ops)? {
            Some(last) => {
                self.sync_to(last)?;
                Ok(last)
            }
            None => Ok(self.queue.lock().expect("wal queue lock").next_seq),
        }
    }

    /// Claim sequence numbers for `ops` and buffer the encoded records
    /// (phases 1–2 of a commit; no durability yet). Returns the last
    /// claimed sequence number, or `None` for an empty batch.
    ///
    /// The sharded engine calls this while still holding the table (or
    /// catalog) write guards covering the ops, so sequence order always
    /// matches apply order — replay cannot reorder ops on the same table.
    /// The flush ([`Self::sync_to`]) happens after the guards are
    /// released, where it group-commits with other tables' writers.
    pub fn enqueue(&self, ops: &[LogOp]) -> Result<Option<u64>, DbError> {
        // Phase 1: serialize before the queue lock (no serde tree).
        let mut encoded = Vec::with_capacity(ops.len());
        for op in ops {
            let mut body = Vec::with_capacity(160);
            encode_op(&mut body, op)?;
            encoded.push(body);
        }
        if encoded.is_empty() {
            return Ok(None);
        }

        // Phase 2: claim sequence numbers and buffer the finished lines.
        let mut q = self.queue.lock().expect("wal queue lock");
        for body in &encoded {
            // `WalRecord` serializes as {"seq":N,"op":{...}} in field
            // order; emit the identical bytes by splicing the
            // pre-encoded op body around the freshly claimed seq.
            let seq = q.next_seq;
            q.buf.extend_from_slice(b"{\"seq\":");
            q.buf.extend_from_slice(seq.to_string().as_bytes());
            q.buf.extend_from_slice(b",\"op\":");
            q.buf.extend_from_slice(body);
            q.buf.extend_from_slice(b"}\n");
            q.next_seq += 1;
            q.pending += 1;
        }
        Ok(Some(q.next_seq - 1))
    }

    /// Ensure every record with `seq <= target` is durable (phase 3: group
    /// commit, leader/follower).
    ///
    /// One thread per flush window is elected leader under the `commit`
    /// mutex; it drains the whole shared buffer and pays one write + flush
    /// (+ one `fdatasync` when durability is on) on behalf of every writer
    /// whose records it covers. Followers park on the condvar — holding no
    /// lock the leader needs — and return as soon as the published durable
    /// watermark reaches their target. Followers that enqueued *during* the
    /// in-flight flush elect the next window's leader on wake-up.
    ///
    /// Invariant: any thread counted in `waiters` when a leader is elected
    /// enqueued its records before parking, so the leader's drain always
    /// covers it (enqueue happens-before park happens-before drain). That
    /// count feeds the `simdb_group_commit_writers` histogram: 1 means the
    /// leader flushed alone; N means one fsync made N writers durable.
    pub fn sync_to(&self, target: u64) -> Result<(), DbError> {
        let mut st = self.commit.lock().expect("wal commit lock");
        loop {
            if let Some(e) = &st.failed {
                return Err(DbError::Io(format!("wal unusable after failed flush: {e}")));
            }
            if st.flushed_seq.is_some_and(|s| s >= target) {
                return Ok(()); // a leader's flush already covered us
            }
            if !st.flushing {
                break; // elected: this thread leads the next flush window
            }
            st.waiters += 1;
            st = self.commit_cond.wait(st).expect("wal commit lock");
            st.waiters -= 1;
        }
        st.flushing = true;
        // Everyone parked right now enqueued before parking, so the drain
        // below makes them durable too (see the invariant above).
        let covered_writers = 1 + st.waiters as u64;
        drop(st);

        let (chunk, upto, batch) = {
            let mut q = self.queue.lock().expect("wal queue lock");
            (
                std::mem::take(&mut q.buf),
                q.next_seq - 1,
                std::mem::take(&mut q.pending),
            )
        };
        let res = {
            let mut file = self.file.lock().expect("wal file lock");
            file.writer
                .write_all(&chunk)
                .and_then(|_| file.writer.flush())
                .and_then(|_| {
                    if self.fsync.load(std::sync::atomic::Ordering::Relaxed) {
                        file.writer.get_ref().sync_data()
                    } else {
                        Ok(())
                    }
                })
        };

        let mut st = self.commit.lock().expect("wal commit lock");
        st.flushing = false;
        let out = match res {
            Ok(()) => {
                st.flushed_seq = Some(upto);
                let m = crate::obs::metrics();
                m.wal_fsyncs.inc();
                if batch > 0 {
                    m.wal_batch.observe(batch as u64);
                }
                m.group_commit_writers.observe(covered_writers);
                Ok(())
            }
            Err(e) => {
                st.failed = Some(e.to_string());
                Err(e.into())
            }
        };
        drop(st);
        self.commit_cond.notify_all();
        out
    }

    /// Truncate the log file (after a covering snapshot). The sequence
    /// counter keeps increasing, so records appended later still sort
    /// strictly after the snapshot's covered sequence number. Any
    /// buffered-but-unflushed lines are discarded — the covering snapshot
    /// already contains their effects.
    pub fn truncate(&self) -> Result<(), DbError> {
        // Wait out any in-flight leader, then hold the commit lock across
        // the rewrite so no new leader can race the writer swap.
        let mut st = self.wait_no_flush();
        let mut file = self.file.lock().expect("wal file lock");
        {
            let mut q = self.queue.lock().expect("wal queue lock");
            q.buf.clear();
            q.pending = 0;
            st.flushed_seq = q.next_seq.checked_sub(1);
        }
        file.writer = BufWriter::new(File::create(&self.path)?);
        st.failed = None;
        Ok(())
    }

    /// Block until no flush is in flight, returning the commit-state guard.
    /// While the caller holds it, no leader can be elected.
    fn wait_no_flush(&self) -> std::sync::MutexGuard<'_, CommitState> {
        let mut st = self.commit.lock().expect("wal commit lock");
        while st.flushing {
            st = self.commit_cond.wait(st).expect("wal commit lock");
        }
        st
    }

    /// Compaction truncation: drop every record whose effects the covering
    /// snapshot already contains *per table* — a record survives unless
    /// `applied[table] >= seq`. The log is scanned, not decoded: each
    /// line's seq and table come from its fixed prefix ([`scan_header`]),
    /// covered lines are dropped unread and survivors are copied verbatim.
    /// Sequence numbers must still be strictly increasing, and a line
    /// whose prefix does not parse is [`DbError::Corrupt`]. Unlike
    /// [`Self::truncate`], this is safe
    /// while writers are running: an in-flight op that claimed a sequence
    /// number but was not yet published when the snapshot's versions were
    /// pinned has `seq > applied[table]` (claims and publications of one
    /// table are serialized by its write guard), so it is preserved.
    pub(crate) fn truncate_keeping(&self, applied: &BTreeMap<String, u64>) -> Result<(), DbError> {
        let mut st = self.wait_no_flush();
        if let Some(e) = &st.failed {
            return Err(DbError::Io(format!("wal unusable after failed flush: {e}")));
        }
        let mut file = self.file.lock().expect("wal file lock");
        // Flush whatever is buffered so the rewrite below sees every
        // claimed record. Lines enqueued after this point have sequence
        // numbers above anything the snapshot covers and simply flush to
        // the rewritten file later.
        let (chunk, upto) = {
            let mut q = self.queue.lock().expect("wal queue lock");
            q.pending = 0;
            (std::mem::take(&mut q.buf), q.next_seq.checked_sub(1))
        };
        if !chunk.is_empty() {
            if let Err(e) = file
                .writer
                .write_all(&chunk)
                .and_then(|_| file.writer.flush())
            {
                st.failed = Some(e.to_string());
                return Err(e.into());
            }
        } else {
            file.writer.flush()?;
        }
        // Every seq <= upto is now either durable in the file or about to
        // be dropped as snapshot-covered; either way it needs no re-flush.
        st.flushed_seq = upto;

        let data = std::fs::read(&self.path)?;
        let mut out = Vec::new();
        let mut prev: Option<u64> = None;
        for (lineno, line) in data.split(|&b| b == b'\n').enumerate() {
            if line.iter().all(u8::is_ascii_whitespace) {
                continue;
            }
            let (seq, table) = scan_header(line).ok_or_else(|| {
                DbError::Corrupt(format!("wal line {}: unreadable record prefix", lineno + 1))
            })?;
            if let Some(p) = prev.filter(|&p| seq <= p) {
                return Err(DbError::Corrupt(format!(
                    "wal sequence regression: {p} then {seq}"
                )));
            }
            prev = Some(seq);
            if applied.get(table.as_ref()).is_none_or(|&s| s < seq) {
                out.extend_from_slice(line);
                out.push(b'\n');
            }
        }
        let tmp = self.path.with_extension("wal.tmp");
        std::fs::write(&tmp, &out)?;
        std::fs::rename(&tmp, &self.path)?;
        file.writer = BufWriter::new(OpenOptions::new().append(true).open(&self.path)?);
        Ok(())
    }

    /// Read all records from a WAL file.
    pub fn read_records(path: impl AsRef<Path>) -> Result<Vec<WalRecord>, DbError> {
        let f = File::open(path.as_ref())?;
        let mut out = Vec::new();
        for (lineno, line) in BufReader::new(f).lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let rec: WalRecord = serde_json::from_str(&line)
                .map_err(|e| DbError::Corrupt(format!("wal line {}: {e}", lineno + 1)))?;
            out.push(rec);
        }
        // Sequence numbers must be strictly increasing.
        for w in out.windows(2) {
            if w[1].seq <= w[0].seq {
                return Err(DbError::Corrupt(format!(
                    "wal sequence regression: {} then {}",
                    w[0].seq, w[1].seq
                )));
            }
        }
        Ok(out)
    }

    /// Replay records into a database, skipping those already covered:
    /// globally (`seq <= after`) or per table (the database's recorded
    /// per-table WAL coverage — seeded by [`Snapshot::load`] — already
    /// includes the record). Refreshes the per-table coverage as it goes.
    pub fn replay_into(
        db: &mut Database,
        records: &[WalRecord],
        after: Option<u64>,
    ) -> Result<usize, DbError> {
        let mut applied = 0;
        for rec in records {
            if let Some(a) = after {
                if rec.seq <= a {
                    continue;
                }
            }
            let table = op_table(&rec.op).to_string();
            if db.applied_seq(&table).is_some_and(|s| s >= rec.seq) {
                continue;
            }
            db.apply_log_op(&rec.op)?;
            db.note_applied(&table, rec.seq);
            applied += 1;
        }
        Ok(applied)
    }
}

/// Full database snapshots.
pub struct Snapshot;

/// A snapshot file as loaded: database state, the WAL sequence number it
/// covers globally, and the per-table coverage (the highest WAL seq whose
/// effects each table's saved state includes). On disk it is
/// `{"covered_seq":…,"applied_seqs":{…},"database":{"tables":{…}}}`,
/// written by [`Snapshot::write`].
struct SnapshotFile {
    covered_seq: Option<u64>,
    applied_seqs: BTreeMap<String, u64>,
    database: Database,
}

impl Deserialize for SnapshotFile {
    fn from_content(c: &serde::Content) -> Result<Self, serde::DeError> {
        let m = c
            .as_map()
            .ok_or_else(|| serde::DeError::custom("snapshot: expected map"))?;
        Ok(SnapshotFile {
            covered_seq: serde::de_field(m, "covered_seq")?,
            applied_seqs: serde::de_field(m, "applied_seqs")?,
            database: serde::de_field(m, "database")?,
        })
    }
}

/// Encoded snapshot fragments of row chunks, keyed by chunk address, so a
/// checkpoint re-encodes only the chunks written since the last one.
///
/// Soundness: each entry holds a strong reference to its chunk. A chunk
/// with a second strong reference is never mutated in place — every
/// write reaches a chunk through `Arc::make_mut`, which copies a shared
/// chunk — and its allocation cannot be freed, so its address cannot be
/// reused, while the entry holds it. Equal addresses therefore mean equal
/// entries, and equal entries mean equal bytes.
///
/// [`Snapshot::write`] rebuilds the cache from the chunks of the cut it
/// writes, so a superseded chunk is released at the next checkpoint and
/// the cache holds about one snapshot's worth of encoded rows.
#[derive(Default)]
pub(crate) struct ChunkCache {
    entries: HashMap<usize, (Arc<RowChunk>, Box<[u8]>)>,
}

impl Snapshot {
    /// Write the database (and the WAL seq it includes) to a file.
    pub fn save(
        db: &Database,
        covered_seq: Option<u64>,
        path: impl AsRef<Path>,
    ) -> Result<(), DbError> {
        // Single-threaded engine: everything is applied, so the global
        // coverage is also every table's coverage.
        let applied = match covered_seq {
            Some(cov) => db.table_names().map(|t| (t.to_string(), cov)).collect(),
            None => BTreeMap::new(),
        };
        let mut cache = ChunkCache::default();
        Self::write(db.tables(), covered_seq, &applied, &mut cache, path)
    }

    /// The snapshot writer: streams the file straight from table storage,
    /// byte-identical to a serde encode of the same state through
    /// [`crate::table::TableSer`]. Each row chunk is encoded once and its
    /// bytes kept in `cache`; a chunk still in the cache from the previous
    /// write costs one buffer copy. Counts encoded and reused chunks in
    /// `simdb_snapshot_chunks_{encoded,reused}_total`.
    pub(crate) fn write<'a>(
        tables: impl IntoIterator<Item = (&'a str, &'a Table)>,
        covered_seq: Option<u64>,
        applied_seqs: &BTreeMap<String, u64>,
        cache: &mut ChunkCache,
        path: impl AsRef<Path>,
    ) -> Result<(), DbError> {
        let mut fresh = HashMap::with_capacity(cache.entries.len());
        let (mut encoded, mut reused) = (0, 0);
        Self::write_atomic(path, |out| {
            let mut buf = Vec::with_capacity(4096);
            let mut chunk_buf = Vec::new();
            buf.extend_from_slice(b"{\"covered_seq\":");
            match covered_seq {
                Some(seq) => buf.extend_from_slice(seq.to_string().as_bytes()),
                None => buf.extend_from_slice(b"null"),
            }
            buf.extend_from_slice(b",\"applied_seqs\":{");
            for (i, (name, seq)) in applied_seqs.iter().enumerate() {
                if i > 0 {
                    buf.push(b',');
                }
                encode_str(&mut buf, name);
                buf.push(b':');
                buf.extend_from_slice(seq.to_string().as_bytes());
            }
            buf.extend_from_slice(b"},\"database\":{\"tables\":{");
            for (i, (name, table)) in tables.into_iter().enumerate() {
                if i > 0 {
                    buf.push(b',');
                }
                encode_str(&mut buf, name);
                buf.extend_from_slice(b":{\"schema\":");
                let schema = serde_json::to_vec(&table.schema)
                    .map_err(|e| std::io::Error::other(format!("snapshot encode: {e}")))?;
                buf.extend_from_slice(&schema);
                buf.extend_from_slice(b",\"rows\":{");
                out.write_all(&buf)?;
                buf.clear();
                for (n, chunk) in table.rows.chunks().enumerate() {
                    let key = Arc::as_ptr(chunk) as usize;
                    let entry = match cache.entries.remove(&key) {
                        Some(entry) => {
                            reused += 1;
                            entry
                        }
                        None => {
                            encoded += 1;
                            chunk_buf.clear();
                            encode_chunk(&mut chunk_buf, chunk);
                            (Arc::clone(chunk), chunk_buf.as_slice().into())
                        }
                    };
                    if n > 0 {
                        out.write_all(b",")?;
                    }
                    out.write_all(&entry.1)?;
                    fresh.insert(key, entry);
                }
                buf.extend_from_slice(b"},\"next_id\":");
                encode_i64(&mut buf, table.next_id);
                buf.push(b'}');
            }
            buf.extend_from_slice(b"}}}");
            out.write_all(&buf)
        })?;
        cache.entries = fresh;
        let m = crate::obs::metrics();
        m.snapshot_chunks_encoded.add(encoded);
        m.snapshot_chunks_reused.add(reused);
        Ok(())
    }

    /// Write-then-rename for atomicity. Snapshots run to megabytes, so the
    /// stream is buffered a MiB at a time (a handful of write calls).
    fn write_atomic(
        path: impl AsRef<Path>,
        write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
    ) -> Result<(), DbError> {
        let tmp = path.as_ref().with_extension("tmp");
        let mut out = BufWriter::with_capacity(1 << 20, File::create(&tmp)?);
        write(&mut out)?;
        out.flush()?;
        drop(out);
        std::fs::rename(&tmp, path.as_ref())?;
        Ok(())
    }

    /// Load a snapshot; returns the database (indexes rebuilt, per-table
    /// WAL coverage seeded from the recorded map) and the WAL seq it
    /// covers globally.
    pub fn load(path: impl AsRef<Path>) -> Result<(Database, Option<u64>), DbError> {
        let data = std::fs::read(path.as_ref())?;
        let file: SnapshotFile = serde_json::from_slice(&data)
            .map_err(|e| DbError::Corrupt(format!("snapshot decode: {e}")))?;
        let mut db = file.database;
        db.rebuild_indexes()?;
        db.set_applied_seqs(file.applied_seqs);
        Ok((db, file.covered_seq))
    }
}

/// One row chunk's entries of a snapshot's `rows` map: `"id":[cells],…`.
fn encode_chunk(buf: &mut Vec<u8>, chunk: &RowChunk) {
    for (i, (id, row)) in chunk.iter().enumerate() {
        if i > 0 {
            buf.push(b',');
        }
        buf.push(b'"');
        encode_i64(buf, *id);
        buf.extend_from_slice(b"\":");
        encode_row(buf, row);
    }
}

/// Recover a database from `snapshot` (if present) + `wal` (if present).
/// Replay filtering is per table: the snapshot's recorded coverage decides,
/// table by table, which records are already included (see
/// [`Wal::truncate_keeping`] for why a global threshold would be unsound
/// once compaction runs concurrently with writers).
pub fn recover(snapshot: Option<&Path>, wal: Option<&Path>) -> Result<Database, DbError> {
    let (mut db, _covered) = match snapshot {
        Some(p) if p.exists() => Snapshot::load(p)?,
        _ => (Database::new(), None),
    };
    if let Some(w) = wal {
        if w.exists() {
            let records = Wal::read_records(w)?;
            Wal::replay_into(&mut db, &records, None)?;
        }
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, TableSchema};
    use crate::value::{Value, ValueType};

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("simdb_wal_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn seed_ops(db: &mut Database) -> Vec<LogOp> {
        let mut ops = Vec::new();
        ops.push(
            db.create_table(TableSchema::new(
                "t",
                vec![Column::new("v", ValueType::Int)],
            ))
            .unwrap(),
        );
        for i in 0..5 {
            let (_, op) = db.insert("t", &[("v", Value::Int(i))]).unwrap();
            ops.push(op);
        }
        ops
    }

    /// A serde encode of a whole snapshot file through `TableSer`, the
    /// layout the direct writer must reproduce byte for byte.
    fn serde_snapshot(
        db: &Database,
        covered: Option<u64>,
        applied: &BTreeMap<String, u64>,
    ) -> Vec<u8> {
        #[derive(serde::Serialize)]
        struct FileSer {
            covered_seq: Option<u64>,
            applied_seqs: BTreeMap<String, u64>,
            database: DatabaseSer,
        }
        #[derive(serde::Serialize)]
        struct DatabaseSer {
            tables: BTreeMap<String, crate::table::TableSer>,
        }
        let tables = db
            .tables()
            .map(|(name, t)| {
                let ser = crate::table::TableSer {
                    schema: t.schema.clone(),
                    rows: t.iter().map(|(id, r)| (id, r.clone())).collect(),
                    next_id: t.next_id,
                };
                (name.to_string(), ser)
            })
            .collect();
        serde_json::to_vec(&FileSer {
            covered_seq: covered,
            applied_seqs: applied.clone(),
            database: DatabaseSer { tables },
        })
        .unwrap()
    }

    #[test]
    fn snapshot_writer_matches_serde_layout() {
        let mut db = Database::new();
        seed_ops(&mut db);
        for name in ["empty", "quo\"te\\ ünï"] {
            db.create_table(TableSchema::new(
                name,
                vec![
                    Column::new("s", ValueType::Text),
                    Column::new("f", ValueType::Float),
                ],
            ))
            .unwrap();
        }
        // Several chunks, a deletion hole, and cells that need escaping.
        let wide = "quo\"te\\ ünï";
        for i in 0..600 {
            let text = format!("r{i} \"q\" \\ \n ∑ 🌀");
            let cells = [
                ("s", Value::Text(text)),
                ("f", Value::Float(i as f64 / 8.0)),
            ];
            db.insert(wide, &cells).unwrap();
        }
        db.delete(wide, 300).unwrap();
        let applied: BTreeMap<String, u64> = [("t".to_string(), 7u64), (wide.to_string(), 9)]
            .into_iter()
            .collect();
        let dir = tmpdir("writer");
        let path = dir.join("snap.json");
        let mut cache = ChunkCache::default();
        for covered in [Some(9), None] {
            Snapshot::write(db.tables(), covered, &applied, &mut cache, &path).unwrap();
            assert_eq!(
                std::fs::read(&path).unwrap(),
                serde_snapshot(&db, covered, &applied),
                "direct snapshot writer diverged from the serde layout"
            );
        }

        // A point update re-encodes exactly the one chunk it replaced.
        let before: std::collections::HashSet<usize> = cache.entries.keys().copied().collect();
        db.update(wide, 5, &[("f", Value::Float(-1.5))]).unwrap();
        Snapshot::write(db.tables(), Some(10), &applied, &mut cache, &path).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            serde_snapshot(&db, Some(10), &applied)
        );
        let after: std::collections::HashSet<usize> = cache.entries.keys().copied().collect();
        assert_eq!(before.len(), after.len());
        assert_eq!(after.difference(&before).count(), 1);

        // And the file loads through the normal loader.
        let (loaded, cov) = Snapshot::load(&path).unwrap();
        assert_eq!(cov, Some(10));
        assert_eq!(loaded.count("t", &crate::query::Query::new()).unwrap(), 5);
        assert_eq!(
            loaded.count(wide, &crate::query::Query::new()).unwrap(),
            599
        );
        assert_eq!(
            loaded.count("empty", &crate::query::Query::new()).unwrap(),
            0
        );
    }

    #[test]
    fn snapshot_without_applied_seqs_is_corrupt() {
        let dir = tmpdir("legacy");
        let path = dir.join("snap.json");
        std::fs::write(&path, r#"{"covered_seq":3,"database":{"tables":{}}}"#).unwrap();
        assert!(matches!(Snapshot::load(&path), Err(DbError::Corrupt(_))));
    }

    /// The WAL file's lines.
    fn lines(path: &Path) -> Vec<String> {
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn header_scan_reads_seq_and_unescaped_table() {
        let names = [
            "plain",
            "quo\"te",
            "back\\slash",
            "ünï 日本 🌀",
            "ctl\n\t\u{1}",
        ];
        let mut ops = Vec::new();
        for name in names {
            let schema = TableSchema::new(name, vec![Column::new("v", ValueType::Int)]);
            ops.push(LogOp::CreateTable { schema });
        }
        for (i, name) in names.iter().enumerate() {
            let table = name.to_string();
            let row = vec![Value::Text("\"table\":\"decoy\"".into())];
            ops.push(LogOp::Insert {
                table: table.clone(),
                id: 1,
                row: row.clone(),
            });
            ops.push(LogOp::Update {
                table: table.clone(),
                id: 1,
                row,
            });
            ops.push(LogOp::Delete {
                table,
                id: i as i64,
            });
        }
        for (seq, op) in ops.iter().enumerate() {
            let mut body = Vec::new();
            encode_op(&mut body, op).unwrap();
            let line = format!(
                "{{\"seq\":{seq},\"op\":{}}}",
                String::from_utf8(body).unwrap()
            );
            let (got_seq, table) = scan_header(line.as_bytes()).expect("prefix parses");
            assert_eq!(
                (got_seq, table.as_ref()),
                (seq as u64, op_table(op)),
                "{line}"
            );
        }
        // Escapes the encoder never emits still decode as JSON defines them.
        let line = br#"{"seq":7,"op":{"Delete":{"table":"a\/\u00e9\ud83c\udf00\"","id":1}}}"#;
        let (seq, table) = scan_header(line).unwrap();
        assert_eq!((seq, table.as_ref()), (7, "a/é🌀\""));
    }

    #[test]
    fn truncation_keeps_uncovered_lines_verbatim() {
        let dir = tmpdir("scan_keep");
        let wal_path = dir.join("db.wal");
        let names = [
            "plain",
            "quo\"te",
            "back\\slash",
            "ünï 日本 🌀",
            "never-covered",
        ];
        let mut ops = Vec::new();
        for name in names {
            let schema = TableSchema::new(name, vec![Column::new("v", ValueType::Int)]);
            ops.push(LogOp::CreateTable { schema });
        }
        for i in 0..40 {
            let table = names[i % names.len()].to_string();
            let row = vec![Value::Int(i as i64)];
            ops.push(match i % 3 {
                0 => LogOp::Insert {
                    table,
                    id: i as i64,
                    row,
                },
                1 => LogOp::Update {
                    table,
                    id: i as i64,
                    row,
                },
                _ => LogOp::Delete {
                    table,
                    id: i as i64,
                },
            });
        }
        let wal = Wal::open(&wal_path).unwrap();
        wal.append(&ops).unwrap();
        let before = lines(&wal_path);
        // Each covered table's watermark is the seq of one of its own
        // records, so the boundary record (`applied == seq`) is exercised.
        let applied: BTreeMap<String, u64> = names[..4]
            .iter()
            .enumerate()
            .map(|(k, name)| {
                let mut seqs =
                    (0..ops.len() as u64).filter(|&s| op_table(&ops[s as usize]) == *name);
                (name.to_string(), seqs.nth(k + 1).unwrap())
            })
            .collect();
        wal.truncate_keeping(&applied).unwrap();
        // Survivors are exactly the records with `applied[table] < seq`,
        // byte for byte (a fresh log's seq is its line number).
        let expect: Vec<String> = before
            .iter()
            .zip(&ops)
            .enumerate()
            .filter(|(seq, (_, op))| applied.get(op_table(op)).is_none_or(|&s| s < *seq as u64))
            .map(|(_, (line, _))| line.clone())
            .collect();
        assert!(!expect.is_empty() && expect.len() < before.len());
        assert_eq!(lines(&wal_path), expect);
        // The log stays appendable and decodable after the rewrite.
        let seq = wal
            .append(&[LogOp::Delete {
                table: "plain".into(),
                id: 1,
            }])
            .unwrap();
        assert_eq!(seq, ops.len() as u64);
        assert_eq!(
            Wal::read_records(&wal_path).unwrap().len(),
            expect.len() + 1
        );
    }

    #[test]
    fn truncation_rejects_regressions_and_unreadable_prefixes() {
        let dir = tmpdir("scan_corrupt");
        let wal_path = dir.join("db.wal");
        let valid = |seq: u64| {
            let op = LogOp::Delete {
                table: "t".into(),
                id: 1,
            };
            serde_json::to_string(&WalRecord { seq, op }).unwrap()
        };
        let regression = format!("{}\n{}\n{}\n", valid(3), valid(5), valid(5));
        let cases = [
            regression,
            format!("{}\n", r#"{"seq":1,"op":{"Upsert":{"table":"t","id":1}}}"#),
            format!("{}\n", r#"{"op":{"Delete":{"table":"t","id":1}},"seq":1}"#),
            format!("{}\n", r#"{"seq":-1,"op":{"Delete":{"table":"t","id":1}}}"#),
            format!(
                "{}\n",
                r#"{"seq":1,"op":{"Delete":{"table":"t\q","id":1}}}"#
            ),
            format!("{}\n", r#"{"seq":1,"op":{"Delete":{"table":"unterminated"#),
            "not json\n".to_string(),
        ];
        for case in cases {
            // A valid last line, so `Wal::open` (which decodes only the
            // tail record) succeeds and truncation meets the bad line.
            std::fs::write(&wal_path, format!("{case}{}\n", valid(9))).unwrap();
            let wal = Wal::open(&wal_path).unwrap();
            let res = wal.truncate_keeping(&BTreeMap::new());
            assert!(
                matches!(res, Err(DbError::Corrupt(_))),
                "{case:?} gave {res:?}"
            );
        }
    }

    #[test]
    fn encoder_matches_serde() {
        let ops = vec![
            LogOp::Insert {
                table: "obs".into(),
                id: i64::MAX,
                row: vec![
                    Value::Null,
                    Value::Bool(true),
                    Value::Bool(false),
                    Value::Int(0),
                    Value::Int(i64::MIN),
                    Value::Float(1.5),
                    Value::Float(-0.0),
                    Value::Float(3.0),
                    Value::Float(0.1),
                    Value::Float(1e300),
                    Value::Float(f64::NAN),
                    Value::Float(f64::INFINITY),
                    Value::Timestamp(-123456789),
                    Value::Text(String::new()),
                    Value::Text("plain".into()),
                    Value::Text("quo\"te back\\slash\nnew\tline\r\u{8}\u{c}\u{1}".into()),
                    Value::Text("unicode: ∑ßé日本語🌀".into()),
                ],
            },
            LogOp::Update {
                table: "a\"b".into(),
                id: -7,
                row: vec![],
            },
            LogOp::Delete {
                table: "t".into(),
                id: 42,
            },
            LogOp::CreateTable {
                schema: TableSchema::new(
                    "x",
                    vec![Column::new("a", ValueType::Int).not_null().indexed()],
                ),
            },
        ];
        for op in &ops {
            let mut fast = Vec::new();
            encode_op(&mut fast, op).unwrap();
            let via_serde = serde_json::to_string(op).unwrap();
            assert_eq!(
                String::from_utf8(fast).unwrap(),
                via_serde,
                "encoder diverged for {op:?}"
            );
        }
    }

    #[test]
    fn wal_roundtrip() {
        let dir = tmpdir("rt");
        let wal_path = dir.join("db.wal");
        let mut db = Database::new();
        let ops = seed_ops(&mut db);
        let wal = Wal::open(&wal_path).unwrap();
        wal.append(&ops).unwrap();

        let recovered = recover(None, Some(&wal_path)).unwrap();
        assert_eq!(recovered.table("t").unwrap().len(), 5);
    }

    #[test]
    fn wal_reopen_continues_sequence() {
        let dir = tmpdir("seq");
        let wal_path = dir.join("db.wal");
        let mut db = Database::new();
        let ops = seed_ops(&mut db);
        {
            let wal = Wal::open(&wal_path).unwrap();
            assert_eq!(wal.append(&ops).unwrap(), (ops.len() - 1) as u64);
        }
        let wal = Wal::open(&wal_path).unwrap();
        let (_, op) = db.insert("t", &[("v", Value::Int(9))]).unwrap();
        let seq = wal.append(std::slice::from_ref(&op)).unwrap();
        assert_eq!(seq, ops.len() as u64);
        let recs = Wal::read_records(&wal_path).unwrap();
        assert_eq!(recs.len(), ops.len() + 1);
    }

    #[test]
    fn snapshot_plus_wal_suffix() {
        let dir = tmpdir("snap");
        let wal_path = dir.join("db.wal");
        let snap_path = dir.join("db.snap");
        let wal = Wal::open(&wal_path).unwrap();

        let mut db = Database::new();
        let ops = seed_ops(&mut db);
        let last = wal.append(&ops).unwrap();
        Snapshot::save(&db, Some(last), &snap_path).unwrap();

        // post-snapshot activity
        let (_, op1) = db.insert("t", &[("v", Value::Int(100))]).unwrap();
        let rows = db.select("t", &crate::query::Query::new()).unwrap();
        let dels = db.delete("t", rows[0].0).unwrap();
        let mut tail = vec![op1];
        tail.extend(dels);
        wal.append(&tail).unwrap();

        let recovered = recover(Some(&snap_path), Some(&wal_path)).unwrap();
        assert_eq!(recovered.table("t").unwrap().len(), 5);
        let vals: Vec<i64> = recovered
            .select("t", &crate::query::Query::new())
            .unwrap()
            .iter()
            .map(|(_, r)| r[0].as_int().unwrap())
            .collect();
        assert!(vals.contains(&100));
        assert!(!vals.contains(&0));
    }

    #[test]
    fn corrupt_wal_detected() {
        let dir = tmpdir("corrupt");
        let wal_path = dir.join("db.wal");
        std::fs::write(&wal_path, "not json\n").unwrap();
        assert!(matches!(
            Wal::read_records(&wal_path),
            Err(DbError::Corrupt(_))
        ));
    }

    #[test]
    fn sequence_regression_detected() {
        let dir = tmpdir("reg");
        let wal_path = dir.join("db.wal");
        let op = LogOp::Delete {
            table: "t".into(),
            id: 1,
        };
        let a = serde_json::to_string(&WalRecord {
            seq: 5,
            op: op.clone(),
        })
        .unwrap();
        let b = serde_json::to_string(&WalRecord { seq: 5, op }).unwrap();
        std::fs::write(&wal_path, format!("{a}\n{b}\n")).unwrap();
        assert!(matches!(
            Wal::read_records(&wal_path),
            Err(DbError::Corrupt(_))
        ));
    }

    #[test]
    fn snapshot_restores_indexes() {
        let dir = tmpdir("idx");
        let snap_path = dir.join("db.snap");
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "t",
            vec![Column::new("name", ValueType::Text).unique()],
        ))
        .unwrap();
        db.insert("t", &[("name", "a".into())]).unwrap();
        Snapshot::save(&db, None, &snap_path).unwrap();
        let (mut loaded, _) = Snapshot::load(&snap_path).unwrap();
        // unique index must be live after load
        assert!(loaded.insert("t", &[("name", "a".into())]).is_err());
        assert!(loaded.insert("t", &[("name", "b".into())]).is_ok());
    }
}
