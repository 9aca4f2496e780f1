//! Per-partition redo write-ahead log (DESIGN.md §15).
//!
//! Durability for the memory-only store: each engine appends the write-sets
//! the commit path already collects to an append-only log, batching fsyncs
//! the same way the runtime already batches sends (group commit). The
//! fsync itself runs on a syncer thread each [`Wal`] owns, so the engine
//! turn that reaches a group-commit point only writes; a flush waits for
//! the syncer (see [`Wal::flush`]). The format
//! is dependency-free: length-prefixed binary frames, each carrying a CRC32
//! over its payload so a torn tail — the normal state of a log after a
//! crash — is detected and truncated on open rather than misparsed.
//!
//! Five record kinds cover the protocols' commit paths:
//!
//! * [`WalRecord::Redo`] — participant-side, appended when a committed
//!   write-set is applied to the store. Carries the per-record version each
//!   write installed so the monotone version chain the serializability
//!   checker relies on (DESIGN.md §14) survives recovery.
//! * [`WalRecord::Decide`] — coordinator-side, appended at the commit
//!   decision point *before* the commit messages are sent. Carries the full
//!   write-set with rows and target partitions so recovery can repair
//!   participants that crashed between decision and apply. For Chiller
//!   two-region transactions the decision is delegated: a `Decide` with
//!   `pending_inner = Some(host)` is provisional, and the transaction's fate
//!   is settled by whether the inner host's log contains an
//!   [`WalRecord::InnerCommit`] for it.
//! * [`WalRecord::InnerCommit`] — the inner host's unilateral commit marker
//!   (§3.3: if the inner region commits, the outer region commits
//!   unconditionally), appended atomically with the inner redo.
//! * [`WalRecord::Ack`] — the coordinator acknowledged the commit to the
//!   client (metrics/latency recorded). A `Decide` without an `Ack` is an
//!   in-doubt transaction that recovery must resolve.
//! * [`WalRecord::Abort`] — the coordinator gave up an attempt that had
//!   already logged a provisional `Decide`. Closes the transaction so
//!   recovery does not re-examine it.
//!
//! The frame layout is `[u32 len][u32 crc32][payload]`, little-endian. A
//! record is valid iff the frame is complete, the CRC matches, and the
//! payload decodes with nothing left over; the log's valid prefix ends at
//! the first record that is not. [`WalReader`] walks that prefix one frame
//! at a time through a bounded buffer, which is how both [`Wal::open`] and
//! recovery read a log: neither ever holds a decoded log in memory.

use crate::store::PartitionStore;
use chiller_common::ids::{PartitionId, RecordId, TableId, TxnId};
use chiller_common::value::{Row, Value};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

/// Default number of commit-decision records batched per group-commit
/// point. Override with `CHILLER_FSYNC_BATCH` (or the cluster builder's
/// `fsync_batch`); `1` degenerates to a waited-for fsync per commit.
pub const DEFAULT_FSYNC_BATCH: u64 = 64;

/// Upper bound on a single frame's payload, so a corrupt length prefix in
/// a torn tail cannot drive a multi-gigabyte allocation on open.
const MAX_FRAME_LEN: u32 = 1 << 28;

// ---------------------------------------------------------------------------
// CRC32 (IEEE, reflected) — slicing-by-8, dependency-free
// ---------------------------------------------------------------------------

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte table, and
/// `CRC_TABLES[k][b]` is byte `b`'s contribution after `k` more zero
/// bytes, so eight input bytes fold in with eight independent lookups.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                (c >> 1) ^ 0xEDB8_8320
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Record types
// ---------------------------------------------------------------------------

/// The store mutation a redo write replays. Mirrors the commit path's
/// `WriteKind` without depending on the message layer (storage sits below
/// it in the crate graph).
#[derive(Debug, Clone, PartialEq)]
pub enum RedoOp {
    /// Overwrite (or create) the record with this row.
    Put(Row),
    /// Insert a fresh record with this row.
    Insert(Row),
    /// Delete the record (a tombstone is itself a versioned write).
    Delete,
}

/// One applied write: record, the per-record version the apply installed,
/// and the mutation itself.
#[derive(Debug, Clone, PartialEq)]
pub struct RedoWrite {
    /// Record written.
    pub record: RecordId,
    /// Per-record version this write installed (see
    /// `PartitionStore::record_version`). `0` in [`WalRecord::Decide`]
    /// records, where the apply has not happened yet.
    pub version: u64,
    /// The mutation.
    pub op: RedoOp,
}

/// One write in a coordinator's decision record: where it goes plus the
/// mutation (versions are assigned at apply time, not decision time).
#[derive(Debug, Clone, PartialEq)]
pub struct DecideWrite {
    /// Partition the write targets.
    pub partition: PartitionId,
    /// Record written.
    pub record: RecordId,
    /// The mutation.
    pub op: RedoOp,
}

/// One durable log record. See the module docs for the roles.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Participant applied `writes` for committed transaction `txn`.
    Redo {
        /// Committed transaction.
        txn: TxnId,
        /// Applied writes with installed versions, in apply order.
        writes: Vec<RedoWrite>,
    },
    /// Coordinator decided to commit `txn` (logged before the commit
    /// messages leave the node).
    Decide {
        /// Deciding transaction.
        txn: TxnId,
        /// Stored-procedure name, for per-proc recovery accounting.
        proc: String,
        /// `Some(host)` while the decision is delegated to an inner host
        /// (Chiller two-region): the transaction committed iff that host's
        /// log carries an [`WalRecord::InnerCommit`] for it.
        pending_inner: Option<PartitionId>,
        /// The decided write-set with rows and target partitions.
        writes: Vec<DecideWrite>,
    },
    /// Inner host committed `txn` unilaterally (§3.3).
    InnerCommit {
        /// Transaction whose inner region committed.
        txn: TxnId,
    },
    /// Coordinator acknowledged `txn`'s commit (counted in metrics).
    Ack {
        /// Acknowledged transaction.
        txn: TxnId,
    },
    /// Coordinator aborted an attempt after logging a provisional
    /// `Decide` for it. Not a commit mark: losing it to a crash only means
    /// recovery resolves the provisional decision the long way.
    Abort {
        /// Aborted transaction.
        txn: TxnId,
    },
}

impl WalRecord {
    /// The transaction this record is about.
    pub fn txn(&self) -> TxnId {
        match self {
            WalRecord::Redo { txn, .. }
            | WalRecord::Decide { txn, .. }
            | WalRecord::InnerCommit { txn }
            | WalRecord::Ack { txn }
            | WalRecord::Abort { txn } => *txn,
        }
    }

    /// Whether this record marks a commit decision — the unit group commit
    /// batches fsyncs over.
    pub fn is_commit_mark(&self) -> bool {
        matches!(
            self,
            WalRecord::Decide { .. } | WalRecord::InnerCommit { .. }
        )
    }
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::I64(i) => {
            buf.push(0);
            put_u64(buf, *i as u64);
        }
        Value::F64(f) => {
            buf.push(1);
            put_u64(buf, f.to_bits());
        }
        Value::Str(s) => {
            buf.push(2);
            put_str(buf, s);
        }
        Value::Null => buf.push(3),
    }
}

fn put_row(buf: &mut Vec<u8>, row: &Row) {
    put_u32(buf, row.len() as u32);
    for v in row {
        put_value(buf, v);
    }
}

fn put_record_id(buf: &mut Vec<u8>, rid: RecordId) {
    put_u16(buf, rid.table.0);
    put_u64(buf, rid.key);
}

fn put_op(buf: &mut Vec<u8>, op: &RedoOp) {
    match op {
        RedoOp::Put(row) => {
            buf.push(0);
            put_row(buf, row);
        }
        RedoOp::Insert(row) => {
            buf.push(1);
            put_row(buf, row);
        }
        RedoOp::Delete => buf.push(2),
    }
}

/// Cursor over an immutable byte slice; every getter fails (returns
/// `None`) on underrun instead of panicking, so a corrupt payload that
/// slipped past the CRC still cannot take the process down.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.data.len() - self.pos < n {
            return None;
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_le_bytes([s[0], s[1]]))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    fn str(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn value(&mut self) -> Option<Value> {
        Some(match self.u8()? {
            0 => Value::I64(self.u64()? as i64),
            1 => Value::F64(f64::from_bits(self.u64()?)),
            2 => Value::Str(self.str()?),
            3 => Value::Null,
            _ => return None,
        })
    }

    fn row(&mut self) -> Option<Row> {
        let n = self.u32()? as usize;
        // Bound the pre-allocation by what the payload could possibly hold
        // (each value is at least one tag byte).
        if n > self.data.len() - self.pos {
            return None;
        }
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(self.value()?);
        }
        Some(row)
    }

    fn record_id(&mut self) -> Option<RecordId> {
        let table = TableId(self.u16()?);
        let key = self.u64()?;
        Some(RecordId { table, key })
    }

    fn op(&mut self) -> Option<RedoOp> {
        Some(match self.u8()? {
            0 => RedoOp::Put(self.row()?),
            1 => RedoOp::Insert(self.row()?),
            2 => RedoOp::Delete,
            _ => return None,
        })
    }

    fn done(&self) -> bool {
        self.pos == self.data.len()
    }
}

/// Encode one record's payload (no framing).
fn encode_payload(rec: &WalRecord, buf: &mut Vec<u8>) {
    match rec {
        WalRecord::Redo { txn, writes } => {
            buf.push(1);
            put_u64(buf, txn.0);
            put_u32(buf, writes.len() as u32);
            for w in writes {
                put_record_id(buf, w.record);
                put_u64(buf, w.version);
                put_op(buf, &w.op);
            }
        }
        WalRecord::Decide {
            txn,
            proc,
            pending_inner,
            writes,
        } => {
            buf.push(2);
            put_u64(buf, txn.0);
            put_str(buf, proc);
            match pending_inner {
                Some(p) => {
                    buf.push(1);
                    put_u32(buf, p.0);
                }
                None => buf.push(0),
            }
            put_u32(buf, writes.len() as u32);
            for w in writes {
                put_u32(buf, w.partition.0);
                put_record_id(buf, w.record);
                put_op(buf, &w.op);
            }
        }
        WalRecord::InnerCommit { txn } => {
            buf.push(3);
            put_u64(buf, txn.0);
        }
        WalRecord::Ack { txn } => {
            buf.push(4);
            put_u64(buf, txn.0);
        }
        WalRecord::Abort { txn } => {
            buf.push(5);
            put_u64(buf, txn.0);
        }
    }
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut c = Cursor::new(payload);
    let rec = match c.u8()? {
        1 => {
            let txn = TxnId(c.u64()?);
            let n = c.u32()? as usize;
            let mut writes = Vec::new();
            for _ in 0..n {
                let record = c.record_id()?;
                let version = c.u64()?;
                let op = c.op()?;
                writes.push(RedoWrite {
                    record,
                    version,
                    op,
                });
            }
            WalRecord::Redo { txn, writes }
        }
        2 => {
            let txn = TxnId(c.u64()?);
            let proc = c.str()?;
            let pending_inner = match c.u8()? {
                0 => None,
                1 => Some(PartitionId(c.u32()?)),
                _ => return None,
            };
            let n = c.u32()? as usize;
            let mut writes = Vec::new();
            for _ in 0..n {
                let partition = PartitionId(c.u32()?);
                let record = c.record_id()?;
                let op = c.op()?;
                writes.push(DecideWrite {
                    partition,
                    record,
                    op,
                });
            }
            WalRecord::Decide {
                txn,
                proc,
                pending_inner,
                writes,
            }
        }
        3 => WalRecord::InnerCommit {
            txn: TxnId(c.u64()?),
        },
        4 => WalRecord::Ack {
            txn: TxnId(c.u64()?),
        },
        5 => WalRecord::Abort {
            txn: TxnId(c.u64()?),
        },
        _ => return None,
    };
    // A record is only valid if the payload is fully consumed — trailing
    // garbage means the frame did not come from this encoder.
    if c.done() {
        Some(rec)
    } else {
        None
    }
}

/// Bytes of frame header: `[u32 len][u32 crc32]`.
const FRAME_HEADER: usize = 8;

/// Encode one framed record (`[len][crc][payload]`) onto `buf`. The
/// payload is encoded in place behind a reserved header, which is then
/// back-filled, so an append allocates nothing beyond `buf`'s own growth.
pub fn encode_record(rec: &WalRecord, buf: &mut Vec<u8>) {
    let start = buf.len();
    buf.extend_from_slice(&[0; FRAME_HEADER]);
    encode_payload(rec, buf);
    let payload = start + FRAME_HEADER;
    let len = (buf.len() - payload) as u32;
    let crc = crc32(&buf[payload..]);
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    buf[start + 4..payload].copy_from_slice(&crc.to_le_bytes());
}

/// Split a frame header into payload length and CRC; `None` when the
/// length is beyond what any encoder writes.
fn frame_header(header: &[u8]) -> Option<(usize, u32)> {
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    (len <= MAX_FRAME_LEN).then_some((len as usize, crc))
}

/// Decode a payload whose frame claimed checksum `crc`.
fn decode_checked(payload: &[u8], crc: u32) -> Option<WalRecord> {
    if crc32(payload) != crc {
        return None;
    }
    decode_payload(payload)
}

/// Decode a stream of framed records, stopping at the first frame that is
/// incomplete, fails its CRC, or does not decode. Returns the records of
/// the valid prefix and the prefix's byte length — the torn-tail
/// truncation point.
pub fn decode_stream(data: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while data.len() - pos >= FRAME_HEADER {
        let Some((len, crc)) = frame_header(&data[pos..]) else {
            break;
        };
        let payload = pos + FRAME_HEADER;
        if data.len() - payload < len {
            break;
        }
        match decode_checked(&data[payload..payload + len], crc) {
            Some(rec) => records.push(rec),
            None => break,
        }
        pos = payload + len;
    }
    (records, pos)
}

// ---------------------------------------------------------------------------
// Streaming reader
// ---------------------------------------------------------------------------

/// Bytes asked of the source per read.
const READ_CHUNK: usize = 64 << 10;

/// Walks a log's valid prefix one record at a time — the streaming
/// counterpart of [`decode_stream`], with the same stopping rule and the
/// same prefix length. Memory is one buffer of at most a frame
/// (`MAX_FRAME_LEN` + header) plus one read chunk, however long the log.
pub struct WalReader<R> {
    src: R,
    /// Bytes of the source this reader may consume, from its start.
    limit: u64,
    /// Source offset of the next byte to read into `buf`.
    fetched: u64,
    buf: Vec<u8>,
    /// Unconsumed bytes are `buf[head..tail]`.
    head: usize,
    tail: usize,
    chunk: usize,
    /// Offset of the next frame; once `done`, the valid prefix length.
    pos: u64,
    done: bool,
}

impl WalReader<File> {
    /// Read the log at `path`, of which the first `len` bytes are in use.
    pub fn open(path: &Path, len: u64) -> io::Result<Self> {
        Ok(WalReader::new(File::open(path)?, len))
    }
}

impl<R: Read> WalReader<R> {
    /// Read at most `len` bytes of `src`, which must be positioned at the
    /// log's first byte.
    pub fn new(src: R, len: u64) -> Self {
        Self::with_chunk(src, len, READ_CHUNK)
    }

    /// [`Self::new`] with an explicit read size (the result never depends
    /// on it; the property suite checks that with sizes down to 1).
    pub fn with_chunk(src: R, len: u64, chunk: usize) -> Self {
        WalReader {
            src,
            limit: len,
            fetched: 0,
            buf: Vec::new(),
            head: 0,
            tail: 0,
            chunk: chunk.max(1),
            pos: 0,
            done: false,
        }
    }

    /// Offset of the next frame. After [`Self::next_record`] has returned
    /// `None` this is the length of the valid prefix.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// The next record of the valid prefix, or `None` at its end: the
    /// byte bound, or the first frame that is incomplete, fails its CRC,
    /// or does not decode. `None` is sticky.
    pub fn next_record(&mut self) -> io::Result<Option<WalRecord>> {
        if self.done {
            return Ok(None);
        }
        let rec = self.read_frame()?;
        self.done = rec.is_none();
        Ok(rec)
    }

    fn read_frame(&mut self) -> io::Result<Option<WalRecord>> {
        if !self.fill(FRAME_HEADER)? {
            return Ok(None);
        }
        let Some((len, crc)) = frame_header(&self.buf[self.head..]) else {
            return Ok(None);
        };
        let frame = FRAME_HEADER + len;
        if !self.fill(frame)? {
            return Ok(None);
        }
        let payload = &self.buf[self.head + FRAME_HEADER..self.head + frame];
        let rec = decode_checked(payload, crc);
        if rec.is_some() {
            self.head += frame;
            self.pos += frame as u64;
        }
        Ok(rec)
    }

    /// Buffer at least `need` unconsumed bytes; `false` when the source
    /// (or the byte bound) ends first.
    fn fill(&mut self, need: usize) -> io::Result<bool> {
        while self.tail - self.head < need {
            let room = (self.limit - self.fetched).min(self.chunk as u64) as usize;
            if room == 0 {
                return Ok(false);
            }
            if self.head > 0 {
                self.buf.copy_within(self.head..self.tail, 0);
                self.tail -= self.head;
                self.head = 0;
            }
            // Grown by what is about to arrive, never by what a header
            // claims: a corrupt length in a torn tail allocates nothing.
            if self.buf.len() < self.tail + room {
                self.buf.reserve_exact(self.tail + room - self.buf.len());
                self.buf.resize(self.tail + room, 0);
            }
            match self.src.read(&mut self.buf[self.tail..self.tail + room]) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.tail += n;
                    self.fetched += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

impl<R: Read + Seek> WalReader<R> {
    /// Decode the single frame at `offset` (a position an earlier scan
    /// reported). Repositions the reader there; `None` if no valid frame
    /// starts at that offset.
    pub fn record_at(&mut self, offset: u64) -> io::Result<Option<WalRecord>> {
        self.src.seek(SeekFrom::Start(offset))?;
        self.fetched = offset;
        self.pos = offset;
        self.head = 0;
        self.tail = 0;
        self.read_frame()
    }
}

// ---------------------------------------------------------------------------
// Log writer (group commit)
// ---------------------------------------------------------------------------

/// Counters a [`Wal`] accumulates; the engine folds them into the run's
/// telemetry so fsync amortization is observable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (all kinds).
    pub records_appended: u64,
    /// Bytes appended (framing included).
    pub bytes_appended: u64,
    /// Buffered-write flushes that reached the file.
    pub flushes: u64,
    /// Group-commit points: syncs requested of the syncer, one per full
    /// batch of commit marks and one per [`Wal::flush`] with unsynced bytes.
    pub fsyncs: u64,
    /// `sync_data` calls the syncer actually made. At most `fsyncs`:
    /// requests that arrive while a sync runs are covered by the next one,
    /// so the count depends on thread timing, even under the simulator.
    /// Refreshed whenever the owner meets the syncer; exact after a flush.
    pub sync_calls: u64,
    /// Valid records recovered on open.
    pub recovered_records: u64,
    /// Torn-tail bytes dropped on open.
    pub torn_bytes_dropped: u64,
}

/// What a [`Wal`] and its syncer thread share, under one mutex.
#[derive(Default)]
struct SyncState {
    /// Group-commit points requested so far.
    requested: u64,
    /// The `requested` value the last completed sync covered.
    synced: u64,
    /// `sync_data` calls made.
    calls: u64,
    /// Set on drop: finish the pending sync, then exit.
    stop: bool,
    /// The first failed sync; the owner panics on it at its next call.
    err: Option<io::Error>,
}

struct Syncer {
    state: Arc<(Mutex<SyncState>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

/// Lock `m`, ignoring poison: no critical section here can leave the
/// state half-updated.
fn lock(m: &Mutex<SyncState>) -> MutexGuard<'_, SyncState> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The syncer's loop: sync once per wake-up for everything requested so
/// far, so a burst of requests costs one `sync_data`, and exit on `stop`
/// once nothing is pending.
fn sync_loop(file: File, state: Arc<(Mutex<SyncState>, Condvar)>) {
    let (m, cv) = &*state;
    let mut st = lock(m);
    loop {
        if st.requested > st.synced && st.err.is_none() {
            let target = st.requested;
            drop(st);
            let res = file.sync_data();
            st = lock(m);
            st.calls += 1;
            match res {
                Ok(()) => st.synced = target,
                Err(e) => st.err = Some(e),
            }
            cv.notify_all();
        } else if st.stop {
            return;
        } else {
            st = cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Append-only per-engine redo log with group commit: appends buffer in
/// memory, and when the buffered commit marks reach the batch size the
/// log writes them to the file and asks its syncer thread for an fsync
/// without waiting for it (at batch 1 it waits: every commit mark is
/// durable before the next, as with a synchronous commit). The syncer is spawned at the log's first
/// group-commit point, so a log that is only scanned never starts one.
/// [`Self::flush`] — the control plane's pause points — waits for the
/// sync, so a paused log is a durable one.
///
/// Write and fsync errors panic: a durability subsystem that cannot write
/// its log has no useful degraded mode. A failed fsync surfaces on the
/// owner's next group-commit point, flush or truncate.
pub struct Wal {
    file: File,
    path: PathBuf,
    buf: Vec<u8>,
    pending_commit_marks: u64,
    fsync_batch: u64,
    /// Bytes written to the file since the last sync request.
    unsynced: bool,
    syncer: Option<Syncer>,
    /// Counters (fsyncs, bytes, recovery) for telemetry.
    pub stats: WalStats,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("buffered", &self.buf.len())
            .field("fsync_batch", &self.fsync_batch)
            .finish()
    }
}

impl Wal {
    /// Open (or create) the log at `path`, scan its valid prefix, truncate
    /// any torn tail, and return the writer positioned at the end plus the
    /// valid prefix's length in bytes. The scan streams: the records
    /// themselves are for a [`WalReader`] over that length to fetch.
    pub fn open(path: &Path, fsync_batch: u64) -> io::Result<(Wal, u64)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let file_len = file.metadata()?.len();
        let mut reader = WalReader::new(&mut file, file_len);
        let mut stats = WalStats::default();
        while reader.next_record()?.is_some() {
            stats.recovered_records += 1;
        }
        let valid_len = reader.position();
        if valid_len < file_len {
            stats.torn_bytes_dropped = file_len - valid_len;
            file.set_len(valid_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid_len))?;
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                buf: Vec::new(),
                pending_commit_marks: 0,
                fsync_batch: fsync_batch.max(1),
                unsynced: false,
                syncer: None,
                stats,
            },
            valid_len,
        ))
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record. When the buffered commit marks reach the batch
    /// size, the bytes go to the file and the syncer is asked for an
    /// fsync; the append does not wait for it, except at batch 1, where
    /// it flushes so every commit mark is durable before the next.
    pub fn append(&mut self, rec: &WalRecord) {
        let before = self.buf.len();
        encode_record(rec, &mut self.buf);
        self.stats.records_appended += 1;
        self.stats.bytes_appended += (self.buf.len() - before) as u64;
        if rec.is_commit_mark() {
            self.pending_commit_marks += 1;
            if self.fsync_batch == 1 {
                self.flush();
            } else if self.pending_commit_marks >= self.fsync_batch {
                self.write_through();
                self.request_sync();
            }
        }
    }

    /// Bytes buffered but not yet on disk.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Push buffered bytes into the OS file **without** forcing them to
    /// disk. The batch-boundary valve for group commit: bounds the
    /// in-memory buffer at every engine batch without spending the fsync
    /// the commit-mark counter is amortizing. Commit marks written this
    /// way stay pending until the next group-commit point or
    /// [`Self::flush`].
    pub fn write_through(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        self.file
            .write_all(&self.buf)
            .unwrap_or_else(|e| panic!("wal write to {} failed: {e}", self.path.display()));
        self.buf.clear();
        self.unsynced = true;
        self.stats.flushes += 1;
    }

    /// Write everything buffered and wait until it is on disk, including
    /// a sync an earlier group-commit point left in flight. Returns at
    /// once when nothing was written since the last completed sync.
    pub fn flush(&mut self) {
        self.write_through();
        if self.unsynced {
            self.request_sync();
        }
        self.wait_synced();
    }

    /// Discard the log's contents (after a checkpoint made them redundant).
    /// Pending buffered records are dropped too — the caller checkpoints
    /// state that already includes them.
    pub fn truncate(&mut self) {
        self.buf.clear();
        self.pending_commit_marks = 0;
        self.unsynced = false;
        self.wait_synced();
        self.file
            .set_len(0)
            .unwrap_or_else(|e| panic!("wal truncate of {} failed: {e}", self.path.display()));
        self.file
            .seek(SeekFrom::Start(0))
            .expect("wal seek after truncate");
        self.file
            .sync_data()
            .unwrap_or_else(|e| panic!("wal fsync of {} failed: {e}", self.path.display()));
    }

    /// A group-commit point: ask the syncer (spawning it on first use) to
    /// fsync everything written so far.
    fn request_sync(&mut self) {
        self.pending_commit_marks = 0;
        self.unsynced = false;
        self.stats.fsyncs += 1;
        let syncer = match &mut self.syncer {
            Some(s) => s,
            None => self.syncer.insert(Syncer::spawn(&self.file, &self.path)),
        };
        let (m, cv) = &*syncer.state;
        let mut st = lock(m);
        st.requested += 1;
        cv.notify_all();
        check(st, &mut self.stats, &self.path);
    }

    /// Block until every requested sync has completed.
    fn wait_synced(&mut self) {
        let Some(syncer) = &self.syncer else {
            return;
        };
        let (m, cv) = &*syncer.state;
        let st = cv
            .wait_while(lock(m), |st| st.synced < st.requested && st.err.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        check(st, &mut self.stats, &self.path);
    }
}

/// Refresh `sync_calls` and panic on a stored fsync failure (after
/// releasing the lock, so the syncer and `Drop` can still take it).
fn check(st: MutexGuard<'_, SyncState>, stats: &mut WalStats, path: &Path) {
    stats.sync_calls = st.calls;
    let err = st.err.as_ref().map(ToString::to_string);
    drop(st);
    if let Some(e) = err {
        panic!("wal fsync of {} failed: {e}", path.display());
    }
}

impl Syncer {
    fn spawn(file: &File, path: &Path) -> Syncer {
        let file = file
            .try_clone()
            .unwrap_or_else(|e| panic!("wal syncer for {}: {e}", path.display()));
        let state = Arc::new((Mutex::new(SyncState::default()), Condvar::new()));
        let shared = Arc::clone(&state);
        let thread = thread::Builder::new()
            .name("wal-syncer".into())
            .spawn(move || sync_loop(file, shared))
            .unwrap_or_else(|e| panic!("wal syncer for {}: {e}", path.display()));
        Syncer {
            state,
            thread: Some(thread),
        }
    }
}

impl Drop for Syncer {
    /// Let the syncer finish the sync in flight, then join it.
    fn drop(&mut self) {
        let (m, cv) = &*self.state;
        lock(m).stop = true;
        cv.notify_all();
        if let Some(t) = self.thread.take() {
            // A panic there was already reported by the panic hook, and a
            // drop must not raise a second one.
            let _ = t.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// A full snapshot of one partition's durable state: every row plus the
/// complete per-record version map — including tombstone versions for
/// deleted records, so a post-recovery re-insert continues the version
/// chain instead of duplicating an already-installed version.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StoreSnapshot {
    /// Per-table rows and version maps.
    pub tables: Vec<TableSnapshot>,
}

/// One table's rows and record versions in a [`StoreSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct TableSnapshot {
    /// Table captured.
    pub table: TableId,
    /// `(key, row)` pairs.
    pub rows: Vec<(u64, Row)>,
    /// Complete `(key, record_version)` map, tombstones included.
    pub versions: Vec<(u64, u64)>,
}

fn encode_snapshot(snap: &StoreSnapshot, buf: &mut Vec<u8>) {
    put_u32(buf, snap.tables.len() as u32);
    for t in &snap.tables {
        put_u16(buf, t.table.0);
        put_u32(buf, t.rows.len() as u32);
        for (k, row) in &t.rows {
            put_u64(buf, *k);
            put_row(buf, row);
        }
        put_u32(buf, t.versions.len() as u32);
        for (k, v) in &t.versions {
            put_u64(buf, *k);
            put_u64(buf, *v);
        }
    }
}

fn decode_snapshot(payload: &[u8]) -> Option<StoreSnapshot> {
    let mut c = Cursor::new(payload);
    let nt = c.u32()? as usize;
    let mut tables = Vec::new();
    for _ in 0..nt {
        let table = TableId(c.u16()?);
        let nr = c.u32()? as usize;
        let mut rows = Vec::new();
        for _ in 0..nr {
            let k = c.u64()?;
            let row = c.row()?;
            rows.push((k, row));
        }
        let nv = c.u32()? as usize;
        let mut versions = Vec::new();
        for _ in 0..nv {
            let k = c.u64()?;
            let v = c.u64()?;
            versions.push((k, v));
        }
        tables.push(TableSnapshot {
            table,
            rows,
            versions,
        });
    }
    if c.done() {
        Some(StoreSnapshot { tables })
    } else {
        None
    }
}

/// Write `store`'s snapshot to `path` atomically: encode + CRC-frame into
/// `path.tmp`, fsync, rename over `path`, fsync the directory. A crash at
/// any point leaves either the old checkpoint or the new one, never a
/// partial file.
pub fn write_checkpoint(path: &Path, store: &PartitionStore) -> std::io::Result<()> {
    let snap = store.snapshot();
    let mut payload = Vec::new();
    encode_snapshot(&snap, &mut payload);
    let mut framed = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut framed, payload.len() as u32);
    put_u32(&mut framed, crc32(&payload));
    framed.extend_from_slice(&payload);

    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&framed)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        // Make the rename durable; some filesystems do not support
        // fsyncing directories, so failures are tolerated.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Read the checkpoint at `path`. Returns `None` when the file is absent
/// or does not validate (a checkpoint is written atomically, so an invalid
/// file means "no checkpoint", not "torn checkpoint").
pub fn read_checkpoint(path: &Path) -> Option<StoreSnapshot> {
    let data = std::fs::read(path).ok()?;
    if data.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes([data[0], data[1], data[2], data[3]]) as usize;
    let crc = u32::from_le_bytes([data[4], data[5], data[6], data[7]]);
    if data.len() - 8 != len {
        return None;
    }
    let payload = &data[8..];
    if crc32(payload) != crc {
        return None;
    }
    decode_snapshot(payload)
}

#[cfg(test)]
#[path = "../tests/gen/mod.rs"]
mod gen;

#[cfg(test)]
mod tests {
    use super::*;
    use chiller_common::ids::NodeId;
    use proptest::prelude::*;

    fn txn(seq: u64) -> TxnId {
        TxnId::new(NodeId(1), seq)
    }

    fn rid(k: u64) -> RecordId {
        RecordId::new(TableId(3), k)
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Decide {
                txn: txn(1),
                proc: "transfer".to_string(),
                pending_inner: Some(PartitionId(2)),
                writes: vec![
                    DecideWrite {
                        partition: PartitionId(0),
                        record: rid(7),
                        op: RedoOp::Put(vec![Value::I64(-5), Value::F64(1.25)]),
                    },
                    DecideWrite {
                        partition: PartitionId(2),
                        record: rid(9),
                        op: RedoOp::Delete,
                    },
                ],
            },
            WalRecord::InnerCommit { txn: txn(1) },
            WalRecord::Redo {
                txn: txn(1),
                writes: vec![RedoWrite {
                    record: rid(7),
                    version: 42,
                    op: RedoOp::Insert(vec![Value::Str("déjà".into()), Value::Null]),
                }],
            },
            WalRecord::Ack { txn: txn(1) },
            WalRecord::Abort { txn: txn(2) },
        ]
    }

    /// Everything a reader over `path` yields.
    fn read_all(path: &Path, len: u64) -> Vec<WalRecord> {
        let mut reader = WalReader::open(path, len).unwrap();
        std::iter::from_fn(|| reader.next_record().unwrap()).collect()
    }

    /// The encoder before it wrote in place: payload into a fresh buffer,
    /// then header and payload copied out.
    fn encode_record_copying(rec: &WalRecord, buf: &mut Vec<u8>) {
        let mut payload = Vec::new();
        encode_payload(rec, &mut payload);
        put_u32(buf, payload.len() as u32);
        put_u32(buf, crc32(&payload));
        buf.extend_from_slice(&payload);
    }

    proptest! {
        /// Encoding in place changed no byte of the format, wherever in
        /// the append buffer a frame lands.
        #[test]
        fn in_place_encoding_is_byte_identical(
            records in prop::collection::vec(super::gen::wal_record_strategy(), 1..20),
        ) {
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for rec in &records {
                encode_record(rec, &mut got);
                encode_record_copying(rec, &mut want);
                prop_assert_eq!(&got, &want);
            }
        }
    }

    /// Bit-at-a-time CRC-32, the definition the tables are derived from.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    proptest! {
        /// Slicing-by-8 agrees with the bitwise definition at every length
        /// and at every start offset within an 8-byte word.
        #[test]
        fn crc32_matches_bitwise_reference(
            offset in 0usize..8,
            data in prop::collection::vec(any::<u8>(), 0..=600),
        ) {
            let mut buf = vec![0xA5; offset];
            buf.extend_from_slice(&data);
            prop_assert_eq!(crc32(&buf[offset..]), crc32_bitwise(&data));
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn codec_roundtrips_every_record_kind() {
        let recs = sample_records();
        let mut buf = Vec::new();
        for r in &recs {
            encode_record(r, &mut buf);
        }
        let (decoded, len) = decode_stream(&buf);
        assert_eq!(decoded, recs);
        assert_eq!(len, buf.len());
    }

    #[test]
    fn torn_tail_recovers_longest_valid_prefix() {
        let recs = sample_records();
        let mut buf = Vec::new();
        let mut offsets = vec![0usize];
        for r in &recs {
            encode_record(r, &mut buf);
            offsets.push(buf.len());
        }
        // Truncating at every byte offset must recover exactly the records
        // whose frames fit, and never panic.
        for cut in 0..=buf.len() {
            let (decoded, len) = decode_stream(&buf[..cut]);
            let whole = offsets.iter().filter(|&&o| o <= cut).count() - 1;
            assert_eq!(decoded.len(), whole, "cut at {cut}");
            assert_eq!(len, offsets[whole], "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_byte_stops_the_scan() {
        let recs = sample_records();
        let mut buf = Vec::new();
        for r in &recs {
            encode_record(r, &mut buf);
        }
        // Flip a byte in the last record's payload: earlier records still
        // decode, the corrupt one is dropped.
        let n = buf.len();
        buf[n - 1] ^= 0xFF;
        let (decoded, _) = decode_stream(&buf);
        assert_eq!(decoded.len(), recs.len() - 1);
    }

    #[test]
    fn wal_open_append_reopen_roundtrips() {
        let dir = std::env::temp_dir().join(format!("chiller-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.wal");
        let _ = std::fs::remove_file(&path);

        let recs = sample_records();
        {
            let (mut wal, recovered) = Wal::open(&path, 1).unwrap();
            assert_eq!(recovered, 0);
            for r in &recs {
                wal.append(r);
            }
            wal.flush();
            assert!(wal.stats.fsyncs >= 1);
        }
        let (wal, recovered) = Wal::open(&path, 1).unwrap();
        assert_eq!(read_all(&path, recovered), recs);
        assert_eq!(wal.stats.recovered_records, recs.len() as u64);
        assert_eq!(wal.stats.torn_bytes_dropped, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wal_open_truncates_torn_tail() {
        let dir = std::env::temp_dir().join(format!("chiller-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.wal");
        let _ = std::fs::remove_file(&path);

        let recs = sample_records();
        let mut buf = Vec::new();
        for r in &recs {
            encode_record(r, &mut buf);
        }
        // Simulate a torn write: drop the last 3 bytes.
        std::fs::write(&path, &buf[..buf.len() - 3]).unwrap();
        let (wal, recovered) = Wal::open(&path, 4).unwrap();
        assert_eq!(wal.stats.recovered_records, recs.len() as u64 - 1);
        assert!(wal.stats.torn_bytes_dropped > 0);
        drop(wal);
        // The tail was truncated on disk, so a second open sees a clean log.
        let (wal2, recovered2) = Wal::open(&path, 4).unwrap();
        assert_eq!(recovered2, recovered);
        assert_eq!(read_all(&path, recovered2), recs[..recs.len() - 1]);
        assert_eq!(wal2.stats.torn_bytes_dropped, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        let dir = std::env::temp_dir().join(format!("chiller-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("group.wal");
        let _ = std::fs::remove_file(&path);

        let (mut wal, _) = Wal::open(&path, 4).unwrap();
        for seq in 0..8 {
            wal.append(&WalRecord::Decide {
                txn: txn(seq),
                proc: "p".into(),
                pending_inner: None,
                writes: vec![],
            });
            // Redo/Ack records never trigger an fsync by themselves.
            wal.append(&WalRecord::Ack { txn: txn(seq) });
        }
        // 8 commit marks at batch 4 → exactly 2 fsyncs; the trailing Ack
        // (appended after the second batch filled) stays buffered until
        // the owner's next batch-boundary flush.
        assert_eq!(wal.stats.fsyncs, 2);
        assert!(wal.buffered() > 0);
        wal.flush();
        assert_eq!(wal.stats.fsyncs, 3);
        assert_eq!(wal.buffered(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncate_empties_the_log() {
        let dir = std::env::temp_dir().join(format!("chiller-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trunc.wal");
        let _ = std::fs::remove_file(&path);

        let (mut wal, _) = Wal::open(&path, 1).unwrap();
        wal.append(&WalRecord::Ack { txn: txn(1) });
        wal.flush();
        wal.truncate();
        drop(wal);
        let (_, recovered) = Wal::open(&path, 1).unwrap();
        assert_eq!(recovered, 0);
        std::fs::remove_file(&path).unwrap();
    }

    fn decide(seq: u64) -> WalRecord {
        WalRecord::Decide {
            txn: txn(seq),
            proc: "p".into(),
            pending_inner: None,
            writes: vec![],
        }
    }

    #[test]
    fn flush_waits_for_the_syncer() {
        let dir = std::env::temp_dir().join(format!("chiller-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("syncer.wal");
        let _ = std::fs::remove_file(&path);

        let (mut wal, _) = Wal::open(&path, 2).unwrap();
        for seq in 0..10 {
            wal.append(&decide(seq));
        }
        // Five group-commit points were requested, none waited for.
        assert_eq!(wal.stats.fsyncs, 5);
        wal.flush();
        let st = lock(&wal.syncer.as_ref().unwrap().state.0);
        assert_eq!(st.synced, st.requested);
        assert_eq!(st.requested, wal.stats.fsyncs);
        assert_eq!(st.calls, wal.stats.sync_calls);
        assert!(0 < st.calls && st.calls <= wal.stats.fsyncs);
        drop(st);
        // Nothing new since: a second flush requests nothing.
        wal.flush();
        assert_eq!(wal.stats.fsyncs, 5);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn drop_joins_the_syncer() {
        let dir = std::env::temp_dir().join(format!("chiller-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("drop.wal");
        let _ = std::fs::remove_file(&path);

        let recs: Vec<WalRecord> = (0..32).map(decide).collect();
        let (mut wal, _) = Wal::open(&path, 2).unwrap();
        for r in &recs {
            wal.append(r);
        }
        // Every second append requested a sync; the last may still be
        // running.
        let state = Arc::clone(&wal.syncer.as_ref().unwrap().state);
        let fsyncs = wal.stats.fsyncs;
        drop(wal);
        // The thread has exited (its handle on the state is gone) after
        // finishing every requested sync.
        assert_eq!(Arc::strong_count(&state), 1);
        let st = lock(&state.0);
        assert_eq!((st.requested, st.synced), (fsyncs, fsyncs));
        assert!(0 < st.calls && st.calls <= fsyncs);
        drop(st);
        let (_, len) = Wal::open(&path, 2).unwrap();
        assert_eq!(read_all(&path, len), recs);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batch_one_is_durable_before_the_next_append() {
        let dir = std::env::temp_dir().join(format!("chiller-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sync-commit.wal");
        let _ = std::fs::remove_file(&path);

        let (mut wal, _) = Wal::open(&path, 1).unwrap();
        for seq in 0..4 {
            wal.append(&decide(seq));
            // No flush: the append itself waited for its sync.
            let st = lock(&wal.syncer.as_ref().unwrap().state.0);
            assert_eq!((st.requested, st.synced), (seq + 1, seq + 1));
        }
        assert_eq!(wal.stats.fsyncs, 4);
        assert_eq!(wal.buffered(), 0);
        drop(wal);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[should_panic(expected = "wal fsync of /dev/null failed")]
    fn syncer_failure_is_loud() {
        // fsync of a character device fails (EINVAL); the syncer stores
        // the error and the owner's flush raises it.
        let (mut wal, _) = Wal::open(Path::new("/dev/null"), 1).unwrap();
        wal.append(&decide(1));
        wal.flush();
    }

    #[test]
    fn syncer_starts_at_the_first_group_commit_point() {
        let dir = std::env::temp_dir().join(format!("chiller-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lazy.wal");
        let _ = std::fs::remove_file(&path);

        let (mut wal, _) = Wal::open(&path, 4).unwrap();
        wal.append(&WalRecord::Ack { txn: txn(1) });
        wal.append(&decide(2));
        wal.write_through();
        assert!(wal.syncer.is_none());
        wal.flush();
        assert!(wal.syncer.is_some());
        drop(wal);
        let (wal, _) = Wal::open(&path, 4).unwrap();
        assert!(wal.syncer.is_none());
        std::fs::remove_file(&path).unwrap();
    }
}
