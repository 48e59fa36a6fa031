//! Durable serving state: versioned checkpoints + an observation WAL.
//!
//! The serve layer's writer owns the only mutable model, so crash safety
//! reduces to persisting the *inputs* of that single writer:
//!
//! - A **checkpoint** captures everything [`hypermine_core::AssociationModel::build`]
//!   needs to reproduce the model bit-identically — the windowed
//!   [`Database`], every [`ModelConfig`] field a build reads, and the
//!   epoch stamp — in a
//!   versioned binary file sealed by an FNV-1a checksum (the same
//!   function, same constants, as [`crate::ModelSnapshot`]'s content
//!   digest). The mined hypergraph, serving indexes, and incremental
//!   state are deliberately **not** persisted: `build` is a pure function
//!   of `(db, config)` and the engine's `advance`/`advance_batch`/
//!   `retire_oldest` are property-tested bit-identical to batch rebuilds,
//!   so recovery recomputes them instead of trusting bytes on disk.
//! - A **write-ahead log** (actually a commit log: records are appended
//!   *after* the model accepts a mutation, so rejected records never
//!   replay) holds the observations applied since the checkpoint as
//!   length-prefixed, per-record-checksummed [`WalRecord`]s. Segments
//!   rotate at a configurable byte budget; every rotation writes a fresh
//!   checkpoint first (via a temp file + atomic rename), so recovery only
//!   ever replays the newest segment.
//!
//! [`recover`] loads the newest checkpoint and **folds** the paired
//! segment's records into its window instead of running them through
//! the model: each advanced row retires the oldest observation and
//! appends itself, each `Retire` retires the oldest. The folded window
//! is therefore the suffix of (checkpoint rows ++ logged rows) that
//! follows every retirement, at the checkpoint's epoch plus one per
//! row and per `Retire`. One [`AssociationModel::restore`] over it
//! yields the writer's model, because the engine's slides are
//! bit-identical to batch rebuilds of the slid window; recovery costs
//! one build however long the tail. Each record is checked against the
//! window folded so far with the live model's own rules
//! ([`WindowShape`]), so a record the model would have rejected fails
//! recovery as [`RecoverError::Replay`]. A **truncated final record** —
//! the torn write of a crash mid-append — is tolerated and discarded;
//! recovery then reflects the last fully durable record. So is a segment
//! shorter than its 16-byte header, the crash between creating a segment
//! and writing its header: it holds no records, and recovery restores
//! the checkpoint. Any other
//! malformed byte (a checksum mismatch, a corrupt header, garbage
//! mid-log) is a hard [`RecoverError`]: silently skipping it would
//! serve a model that disagrees with what was acknowledged before the
//! crash. Every recovery times its three phases ([`RecoverPhase`]).
//!
//! Durability granularity: each append is `write_all`'d to the segment
//! file immediately (no userspace buffering), so state survives *process*
//! crashes as soon as `append` returns; `File::sync_all` runs on rotation
//! and shutdown, so power-loss durability is at segment granularity.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use hypermine_core::{
    AdvanceError, AssociationModel, CountStrategy, ModelConfig, Phase, PhaseLaps, PhaseTimer,
    SimdPolicy, WindowShape,
};
use hypermine_data::{Database, Value};

#[cfg(feature = "fault-injection")]
use crate::faults::{FaultPlan, IoFault};

/// Checkpoint file header; the trailing byte is the format version.
/// Version 2 dropped version 1's `strategy` and `kernel_cap` bytes, so a
/// version-1 checkpoint fails recovery on this header.
const CKPT_MAGIC: &[u8; 8] = b"HMCKPT\x00\x02";
/// WAL segment file header; the trailing byte is the format version.
const WAL_MAGIC: &[u8; 8] = b"HMWAL\x00\x00\x01";
/// Upper bound on one record's payload; anything larger mid-log is
/// treated as corruption rather than an allocation request.
const MAX_RECORD_BYTES: u32 = 1 << 26;
/// Default segment rotation budget (see [`WalStore::create`]).
pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

/// One observation-stream record: what a [`crate::ServeHost`]'s queue
/// carries to its writer, and what a durable host logs once the record
/// has applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// One observation appended, oldest retired (window slides by one).
    Advance(Vec<Value>),
    /// Several observations applied as one batch (one publish).
    AdvanceBatch(Vec<Vec<Value>>),
    /// Window contracted from the old end (calendar gap).
    Retire,
}

const TAG_ADVANCE: u8 = 1;
const TAG_BATCH: u8 = 2;
const TAG_RETIRE: u8 = 3;

/// Why [`recover`] refused to produce a model.
#[derive(Debug)]
pub enum RecoverError {
    /// The directory has no readable checkpoint to start from.
    NoCheckpoint(PathBuf),
    /// Filesystem error while reading the store.
    Io(io::Error),
    /// A file's bytes are malformed beyond the tolerated torn tail:
    /// bad magic, a failed checksum, an impossible length, or trailing
    /// garbage mid-log.
    Corrupt {
        /// The offending file.
        file: PathBuf,
        /// Byte offset of the malformed structure.
        offset: u64,
        /// What was wrong there.
        what: String,
    },
    /// The checkpoint or a replayed record was structurally valid but the
    /// model rejected it — the store and the engine disagree, which only
    /// happens when the log is forged or the format drifted.
    Replay(String),
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::NoCheckpoint(dir) => {
                write!(f, "no checkpoint found under {}", dir.display())
            }
            RecoverError::Io(e) => write!(f, "i/o error reading the store: {e}"),
            RecoverError::Corrupt { file, offset, what } => write!(
                f,
                "corrupt store file {} at byte {offset}: {what}",
                file.display()
            ),
            RecoverError::Replay(what) => write!(f, "replay rejected by the model: {what}"),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<io::Error> for RecoverError {
    fn from(e: io::Error) -> Self {
        RecoverError::Io(e)
    }
}

/// The stages of [`recover`], in the order they run. Every recovery
/// times each one ([`RecoveryInfo::phases`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverPhase {
    /// Finding the newest checkpoint, reading it, verifying its checksum
    /// and decoding it, then reading the paired segment.
    Read,
    /// Decoding the segment's records and folding them into the
    /// checkpoint's window.
    Replay,
    /// The one [`AssociationModel::restore`] over the folded window.
    Build,
}

impl Phase for RecoverPhase {
    const ALL: &'static [Self] = &[
        RecoverPhase::Read,
        RecoverPhase::Replay,
        RecoverPhase::Build,
    ];

    fn index(self) -> usize {
        self as usize
    }

    fn name(self) -> &'static str {
        match self {
            RecoverPhase::Read => "read",
            RecoverPhase::Replay => "replay",
            RecoverPhase::Build => "build",
        }
    }
}

/// Per-stage wall time of one [`recover`].
pub type RecoverLaps = PhaseLaps<RecoverPhase, 3>;

/// What [`recover`] did, alongside the rebuilt model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Segment sequence number the recovery was based on.
    pub seq: u64,
    /// Epoch stamped in the checkpoint (before WAL replay).
    pub checkpoint_epoch: u64,
    /// WAL records replayed on top of the checkpoint.
    pub replayed: u64,
    /// Epoch of the recovered model (checkpoint + replay).
    pub epoch: u64,
    /// Whether a torn write was tolerated: a truncated final record
    /// discarded, or a segment shorter than its header read as empty.
    pub torn_tail: bool,
    /// How long each stage of the recovery took. Machine-dependent, so
    /// it takes no part in any model comparison.
    pub phases: RecoverLaps,
}

/// The writer-side handle: appends records to the live segment and
/// rotates — checkpoint first, then a fresh segment — once the byte
/// budget is exceeded.
#[derive(Debug)]
pub struct WalStore {
    dir: PathBuf,
    segment_bytes: u64,
    seq: u64,
    file: File,
    segment_len: u64,
    records: u64,
    #[cfg(feature = "fault-injection")]
    faults: Option<FaultPlan>,
}

impl WalStore {
    /// Starts a fresh store under `dir` (created if missing): writes
    /// checkpoint 0 for `model` and opens segment 0. Refuses a directory
    /// that already contains store files — recover from those instead of
    /// silently shadowing them.
    ///
    /// `segment_bytes` is the rotation budget; `0` means
    /// [`DEFAULT_SEGMENT_BYTES`].
    pub fn create(
        dir: &Path,
        segment_bytes: u64,
        model: &AssociationModel,
    ) -> io::Result<WalStore> {
        fs::create_dir_all(dir)?;
        if max_checkpoint_seq(dir)?.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "{} already holds a durable store; recover from it or point at an empty dir",
                    dir.display()
                ),
            ));
        }
        Self::start_at(dir, segment_bytes, model, 0)
    }

    /// Continues a recovered store: writes a fresh checkpoint for the
    /// recovered `model` at `seq` (one past the recovered segment) and
    /// opens the paired segment. The pre-crash files stay untouched.
    pub fn continue_from(
        dir: &Path,
        segment_bytes: u64,
        model: &AssociationModel,
        seq: u64,
    ) -> io::Result<WalStore> {
        Self::start_at(dir, segment_bytes, model, seq)
    }

    fn start_at(
        dir: &Path,
        segment_bytes: u64,
        model: &AssociationModel,
        seq: u64,
    ) -> io::Result<WalStore> {
        let segment_bytes = if segment_bytes == 0 {
            DEFAULT_SEGMENT_BYTES
        } else {
            segment_bytes
        };
        write_checkpoint(dir, seq, model)?;
        let path = segment_path(dir, seq);
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let mut header = Vec::with_capacity(16);
        header.extend_from_slice(WAL_MAGIC);
        push_u64(&mut header, seq);
        file.write_all(&header)?;
        Ok(WalStore {
            dir: dir.to_path_buf(),
            segment_bytes,
            seq,
            file,
            segment_len: header.len() as u64,
            records: 0,
            #[cfg(feature = "fault-injection")]
            faults: None,
        })
    }

    /// Attaches a deterministic fault plan: subsequent appends consult it
    /// by record index and fail (or tear) where the plan says to.
    #[cfg(feature = "fault-injection")]
    pub fn with_faults(mut self, plan: FaultPlan) -> WalStore {
        self.faults = Some(plan);
        self
    }

    /// Appends one record and pushes it to the OS before returning.
    ///
    /// On error nothing is logically appended — recovery discards a
    /// partial tail — but the store must not be appended to afterwards
    /// (a later record after a hole would replay out of order), so hosts
    /// freeze durability on the first failed append.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        let bytes = encode_record(record);
        #[cfg(feature = "fault-injection")]
        if let Some(fault) = self.faults.as_ref().and_then(|p| p.io_fault(self.records)) {
            match fault {
                IoFault::Error => {
                    return Err(io::Error::other(format!(
                        "injected i/o error at record {}",
                        self.records
                    )));
                }
                IoFault::Torn => {
                    // A crash mid-`write_all`: a strict prefix of the
                    // record reaches the disk.
                    let cut = (bytes.len() / 2).max(1);
                    self.file.write_all(&bytes[..cut])?;
                    self.segment_len += cut as u64;
                    return Err(io::Error::other(format!(
                        "injected torn write at record {} ({cut} of {} bytes)",
                        self.records,
                        bytes.len()
                    )));
                }
            }
        }
        self.file.write_all(&bytes)?;
        self.segment_len += bytes.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// Rotates — fresh checkpoint for `model`, fresh segment — if the
    /// live segment exceeded the byte budget. Returns whether it did.
    pub fn maybe_rotate(&mut self, model: &AssociationModel) -> io::Result<bool> {
        if self.segment_len < self.segment_bytes {
            return Ok(false);
        }
        self.file.sync_all()?;
        let next = Self::start_at(&self.dir, self.segment_bytes, model, self.seq + 1)?;
        let records = self.records;
        *self = next;
        self.records = records;
        Ok(true)
    }

    /// Fsyncs the live segment (power-loss durability up to here).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The live segment's sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Records appended through this handle (across rotations).
    pub fn records(&self) -> u64 {
        self.records
    }
}

impl Drop for WalStore {
    fn drop(&mut self) {
        let _ = self.file.sync_all();
    }
}

/// Rebuilds the model a crashed writer would have held: the newest
/// checkpoint's window with the paired WAL segment's records folded in,
/// restored once. See the module docs for the fold and the exact
/// tolerance/corruption contract.
pub fn recover(dir: &Path) -> Result<(AssociationModel, RecoveryInfo), RecoverError> {
    let mut timer = PhaseTimer::start();
    let seq =
        max_checkpoint_seq(dir)?.ok_or_else(|| RecoverError::NoCheckpoint(dir.to_path_buf()))?;
    let ckpt_path = checkpoint_path(dir, seq);
    let bytes = fs::read(&ckpt_path)?;
    let (db, cfg, checkpoint_epoch) = decode_checkpoint(&bytes, &ckpt_path)?;
    let seg_path = segment_path(dir, seq);
    // A missing segment is the crash window between the checkpoint rename
    // and the segment create during rotation: zero records were lost.
    let segment = if seg_path.exists() {
        Some(fs::read(&seg_path)?)
    } else {
        None
    };
    timer.lap(RecoverPhase::Read);

    let mut fold = WindowFold::new(db);
    let mut replayed = 0u64;
    let mut torn_tail = false;
    if let Some(bytes) = &segment {
        let mut tail = TailReader::new(bytes, &seg_path)?;
        if let Some(header_seq) = tail.seq.filter(|&s| s != seq) {
            return Err(corrupt(
                &seg_path,
                8,
                format!("segment header seq {header_seq} does not match filename seq {seq}"),
            ));
        }
        while let Some(record) = tail.next_record()? {
            fold.apply(&record)
                .map_err(|e| RecoverError::Replay(format!("record {replayed}: {e}")))?;
            replayed += 1;
        }
        torn_tail = tail.torn_tail;
    }
    let epoch = checkpoint_epoch + fold.retired as u64;
    let window = fold.into_window();
    timer.lap(RecoverPhase::Replay);

    let model = AssociationModel::restore(&window, &cfg, epoch)
        .map_err(|e| RecoverError::Replay(format!("restoring the folded window failed: {e}")))?;
    timer.lap(RecoverPhase::Build);
    Ok((
        model,
        RecoveryInfo {
            seq,
            checkpoint_epoch,
            replayed,
            epoch,
            torn_tail,
            phases: timer.finish(),
        },
    ))
}

/// A checkpoint's window with logged records folded in, without running
/// them through a model: every advanced row retires the oldest
/// observation and appends itself, every `Retire` retires the oldest.
/// Since the window is first-in first-out, the result is the suffix of
/// (checkpoint rows ++ logged rows) that follows the `retired` oldest,
/// so the fold only appends rows and counts retirements.
struct WindowFold {
    /// The checkpoint's window, which the fold starts from.
    checkpoint: Database,
    /// The window's shape after the records folded so far.
    shape: WindowShape,
    /// Every logged row in log order, row-major.
    rows: Vec<Value>,
    /// Observations retired so far: one per advanced row and one per
    /// `Retire`, which is also the epochs the records advanced.
    retired: usize,
}

impl WindowFold {
    fn new(checkpoint: Database) -> Self {
        WindowFold {
            shape: WindowShape::of(&checkpoint),
            checkpoint,
            rows: Vec::new(),
            retired: 0,
        }
    }

    /// Folds in one record, or rejects it as the live model would have.
    fn apply(&mut self, record: &WalRecord) -> Result<(), AdvanceError> {
        let rows = match record {
            WalRecord::Advance(row) => std::slice::from_ref(row),
            WalRecord::AdvanceBatch(rows) => rows.as_slice(),
            WalRecord::Retire => {
                self.shape.check_retire()?;
                self.shape.obs -= 1;
                self.retired += 1;
                return Ok(());
            }
        };
        self.shape.check_advance(rows)?;
        for row in rows {
            self.rows.extend_from_slice(row);
        }
        self.retired += rows.len();
        Ok(())
    }

    /// The folded window.
    fn into_window(self) -> Database {
        let checkpoint = self.checkpoint;
        if self.retired == 0 {
            // Nothing moved the window (no records, or empty batches).
            return checkpoint;
        }
        let n = self.shape.attrs;
        let held = checkpoint.num_obs();
        let first_logged = self.retired.saturating_sub(held) * n;
        let columns = checkpoint
            .attrs()
            .map(|a| {
                let kept = &checkpoint.column(a)[self.retired.min(held)..];
                let logged = self.rows.get(first_logged + a.index()..).unwrap_or(&[]);
                kept.iter()
                    .chain(logged.iter().step_by(n))
                    .copied()
                    .collect()
            })
            .collect();
        Database::from_columns(checkpoint.attr_names().to_vec(), checkpoint.k(), columns)
            .expect("the fold checked every row against the window's shape")
    }
}

/// Sequential record reader over one segment's bytes, with the torn-tail
/// tolerance baked into `next_record`.
struct TailReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    path: &'a Path,
    /// The header's sequence number; `None` when the header itself is
    /// torn.
    seq: Option<u64>,
    torn_tail: bool,
}

impl<'a> TailReader<'a> {
    fn new(bytes: &'a [u8], path: &'a Path) -> Result<Self, RecoverError> {
        if bytes.len() < 16 {
            // Even the header is incomplete: the crash hit segment
            // creation itself; no records can have been acknowledged, so
            // the reader holds none.
            return Ok(TailReader {
                bytes: &[],
                pos: 0,
                path,
                seq: None,
                torn_tail: true,
            });
        }
        if &bytes[..8] != WAL_MAGIC {
            return Err(corrupt(path, 0, "bad WAL magic".into()));
        }
        Ok(TailReader {
            bytes,
            pos: 16,
            path,
            seq: Some(read_u64(bytes, 8)),
            torn_tail: false,
        })
    }

    /// `Ok(None)` on a clean end *or* a tolerated torn tail (flagged);
    /// `Err` on anything malformed before the end.
    fn next_record(&mut self) -> Result<Option<WalRecord>, RecoverError> {
        let remaining = self.bytes.len() - self.pos;
        if remaining == 0 {
            return Ok(None);
        }
        if remaining < 4 {
            self.torn_tail = true;
            return Ok(None);
        }
        let len = read_u32(self.bytes, self.pos);
        if len == 0 || len > MAX_RECORD_BYTES {
            return Err(corrupt(
                self.path,
                self.pos as u64,
                format!("impossible record length {len}"),
            ));
        }
        let total = 4 + len as usize + 8;
        if remaining < total {
            // The record's declared extent runs past the file: the torn
            // final write of a crash mid-append.
            self.torn_tail = true;
            return Ok(None);
        }
        let payload = &self.bytes[self.pos + 4..self.pos + 4 + len as usize];
        let stored = read_u64(self.bytes, self.pos + 4 + len as usize);
        let computed = fnv_bytes(payload);
        if stored != computed {
            return Err(corrupt(
                self.path,
                self.pos as u64,
                format!(
                    "record checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
                ),
            ));
        }
        let record = decode_payload(payload).ok_or_else(|| {
            corrupt(
                self.path,
                self.pos as u64,
                "malformed record payload".into(),
            )
        })?;
        self.pos += total;
        Ok(Some(record))
    }
}

// ---------------------------------------------------------------------------
// Checkpoint encode / decode
// ---------------------------------------------------------------------------

fn write_checkpoint(dir: &Path, seq: u64, model: &AssociationModel) -> io::Result<()> {
    let bytes = encode_checkpoint(model);
    // Temp-write + rename so a checkpoint either exists whole or not at
    // all; a crash mid-rotation can never leave a torn checkpoint under
    // the final name.
    let tmp = dir.join(format!("checkpoint-{seq:08}.tmp"));
    let path = checkpoint_path(dir, seq);
    let mut file = File::create(&tmp)?;
    file.write_all(&bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, &path)?;
    Ok(())
}

fn encode_checkpoint(model: &AssociationModel) -> Vec<u8> {
    let db = model.database();
    let cfg = model.config();
    let mut out = Vec::with_capacity(64 + db.num_attrs() * (16 + db.num_obs()));
    out.extend_from_slice(CKPT_MAGIC);
    push_u64(&mut out, model.epoch());
    // Config — every field a build reads, so a recovered build resolves
    // its SIMD policy and tensor budget exactly as the pre-crash writer
    // did. The inert `strategy` is not stored; no build reads it.
    push_u64(&mut out, cfg.gamma_edge.to_bits());
    push_u64(&mut out, cfg.gamma_hyper.to_bits());
    out.push(cfg.with_hyperedges as u8);
    push_u64(&mut out, cfg.threads as u64);
    out.push(match cfg.simd {
        SimdPolicy::Auto => 0,
        SimdPolicy::ForceScalar => 1,
    });
    match cfg.triple_tensor_max_bytes {
        None => {
            out.push(0);
            push_u64(&mut out, 0);
        }
        Some(b) => {
            out.push(1);
            push_u64(&mut out, b as u64);
        }
    }
    // Database — names, k, and raw value columns; `Database::from_columns`
    // re-validates every byte on the way back in.
    out.push(db.k());
    push_u64(&mut out, db.num_attrs() as u64);
    push_u64(&mut out, db.num_obs() as u64);
    for name in db.attr_names() {
        push_u64(&mut out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
    }
    for a in db.attrs() {
        out.extend_from_slice(db.column(a));
    }
    let checksum = fnv_bytes(&out);
    push_u64(&mut out, checksum);
    out
}

fn decode_checkpoint(
    bytes: &[u8],
    path: &Path,
) -> Result<(Database, ModelConfig, u64), RecoverError> {
    if bytes.len() < CKPT_MAGIC.len() + 8 {
        return Err(corrupt(
            path,
            0,
            "checkpoint shorter than its header".into(),
        ));
    }
    if &bytes[..8] != CKPT_MAGIC {
        return Err(corrupt(path, 0, "bad checkpoint magic".into()));
    }
    let body = &bytes[..bytes.len() - 8];
    let stored = read_u64(bytes, bytes.len() - 8);
    let computed = fnv_bytes(body);
    if stored != computed {
        return Err(corrupt(
            path,
            (bytes.len() - 8) as u64,
            format!(
                "checkpoint checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
        ));
    }
    let mut c = Cursor {
        bytes: body,
        pos: 8,
    };
    let fail = |c: &Cursor<'_>, what: &str| corrupt(path, c.pos as u64, what.into());

    let epoch = c.u64().ok_or_else(|| fail(&c, "truncated epoch"))?;
    let gamma_edge = f64::from_bits(c.u64().ok_or_else(|| fail(&c, "truncated gamma_edge"))?);
    let gamma_hyper = f64::from_bits(c.u64().ok_or_else(|| fail(&c, "truncated gamma_hyper"))?);
    let with_hyperedges = c
        .u8()
        .ok_or_else(|| fail(&c, "truncated with_hyperedges"))?
        != 0;
    let threads = c.u64().ok_or_else(|| fail(&c, "truncated threads"))? as usize;
    let simd = match c.u8().ok_or_else(|| fail(&c, "truncated simd"))? {
        0 => SimdPolicy::Auto,
        1 => SimdPolicy::ForceScalar,
        _ => return Err(fail(&c, "unknown simd tag")),
    };
    let tensor_tag = c
        .u8()
        .ok_or_else(|| fail(&c, "truncated tensor budget tag"))?;
    let tensor_bytes = c.u64().ok_or_else(|| fail(&c, "truncated tensor budget"))?;
    let triple_tensor_max_bytes = match tensor_tag {
        0 => None,
        1 => Some(tensor_bytes as usize),
        _ => return Err(fail(&c, "unknown tensor budget tag")),
    };

    let k = c.u8().ok_or_else(|| fail(&c, "truncated k"))?;
    let num_attrs = c.u64().ok_or_else(|| fail(&c, "truncated attr count"))? as usize;
    let num_obs = c.u64().ok_or_else(|| fail(&c, "truncated obs count"))? as usize;
    if num_attrs > (u32::MAX as usize) || num_obs > MAX_RECORD_BYTES as usize {
        return Err(fail(&c, "impossible database dimensions"));
    }
    let mut names = Vec::with_capacity(num_attrs);
    for _ in 0..num_attrs {
        let len = c.u64().ok_or_else(|| fail(&c, "truncated name length"))? as usize;
        let raw = c.take(len).ok_or_else(|| fail(&c, "truncated name"))?;
        let name = std::str::from_utf8(raw).map_err(|_| fail(&c, "name is not UTF-8"))?;
        names.push(name.to_string());
    }
    let mut columns = Vec::with_capacity(num_attrs);
    for _ in 0..num_attrs {
        let col = c
            .take(num_obs)
            .ok_or_else(|| fail(&c, "truncated column"))?;
        columns.push(col.to_vec());
    }
    if c.pos != body.len() {
        return Err(fail(&c, "trailing bytes after the database"));
    }

    let db = Database::from_columns(names, k, columns)
        .map_err(|e| RecoverError::Replay(format!("checkpoint database rejected: {e:?}")))?;
    let cfg = ModelConfig {
        gamma_edge,
        gamma_hyper,
        with_hyperedges,
        threads,
        strategy: CountStrategy::default(),
        simd,
        triple_tensor_max_bytes,
    };
    Ok((db, cfg, epoch))
}

// ---------------------------------------------------------------------------
// Record encode / decode
// ---------------------------------------------------------------------------

fn encode_record(record: &WalRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(16);
    match record {
        WalRecord::Advance(row) => {
            payload.push(TAG_ADVANCE);
            push_u32(&mut payload, row.len() as u32);
            payload.extend_from_slice(row);
        }
        WalRecord::AdvanceBatch(rows) => {
            payload.push(TAG_BATCH);
            push_u32(&mut payload, rows.len() as u32);
            let width = rows.first().map_or(0, Vec::len);
            push_u32(&mut payload, width as u32);
            for row in rows {
                // Ragged batches never reach the log (the model rejects
                // them before the append), but keep decode unambiguous.
                debug_assert_eq!(row.len(), width);
                payload.extend_from_slice(row);
            }
        }
        WalRecord::Retire => payload.push(TAG_RETIRE),
    }
    let mut out = Vec::with_capacity(payload.len() + 12);
    push_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(&payload);
    push_u64(&mut out, fnv_bytes(&payload));
    out
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut c = Cursor {
        bytes: payload,
        pos: 0,
    };
    let record = match c.u8()? {
        TAG_ADVANCE => {
            let n = c.u32()? as usize;
            WalRecord::Advance(c.take(n)?.to_vec())
        }
        TAG_BATCH => {
            let rows = c.u32()? as usize;
            let width = c.u32()? as usize;
            let mut batch = Vec::with_capacity(rows);
            for _ in 0..rows {
                batch.push(c.take(width)?.to_vec());
            }
            WalRecord::AdvanceBatch(batch)
        }
        TAG_RETIRE => WalRecord::Retire,
        _ => return None,
    };
    (c.pos == payload.len()).then_some(record)
}

// ---------------------------------------------------------------------------
// Plumbing
// ---------------------------------------------------------------------------

fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("checkpoint-{seq:08}.bin"))
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.log"))
}

fn max_checkpoint_seq(dir: &Path) -> io::Result<Option<u64>> {
    let mut max = None;
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(seq) = name
            .strip_prefix("checkpoint-")
            .and_then(|rest| rest.strip_suffix(".bin"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        max = Some(max.map_or(seq, |m: u64| m.max(seq)));
    }
    Ok(max)
}

fn corrupt(path: &Path, offset: u64, what: String) -> RecoverError {
    RecoverError::Corrupt {
        file: path.to_path_buf(),
        offset,
        what,
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn u32(&mut self) -> Option<u32> {
        let raw = self.take(4)?;
        Some(u32::from_le_bytes(raw.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        let raw = self.take(8)?;
        Some(u64::from_le_bytes(raw.try_into().unwrap()))
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }
}

fn push_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn read_u32(bytes: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap())
}

fn read_u64(bytes: &[u8], pos: usize) -> u64 {
    u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap())
}

/// FNV-1a over a byte slice — the same constants and byte order as the
/// snapshot digest's `Fnv` (which hashes u64s through their LE bytes), so
/// the store and the serving layer share one checksum function.
fn fnv_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypermine_core::ModelConfig;

    fn fixture(window: usize) -> (Database, AssociationModel) {
        let x: Vec<Value> = (0..300).map(|i| (i % 3 + 1) as Value).collect();
        let y: Vec<Value> = (0..300).map(|i| ((i / 5) % 3 + 1) as Value).collect();
        let z: Vec<Value> = (0..300).map(|i| ((i / 7) % 3 + 1) as Value).collect();
        let d = Database::from_columns(vec!["x".into(), "y".into(), "z".into()], 3, vec![x, y, z])
            .unwrap();
        let model =
            AssociationModel::build(&d.slice_obs(0..window), &ModelConfig::default()).unwrap();
        (d, model)
    }

    fn row_at(d: &Database, o: usize) -> Vec<Value> {
        d.attrs().map(|a| d.value(a, o)).collect()
    }

    fn digest(model: &AssociationModel) -> u64 {
        crate::ModelSnapshot::build(model, &crate::SnapshotSpec::default()).digest()
    }

    /// Applies `record` to the live `model` as the host's writer does,
    /// then logs it.
    fn apply_and_log(model: &mut AssociationModel, store: &mut WalStore, record: WalRecord) {
        match &record {
            WalRecord::Advance(row) => model.advance(row).unwrap(),
            WalRecord::AdvanceBatch(rows) => model.advance_batch(rows).unwrap(),
            WalRecord::Retire => model.retire_oldest().unwrap(),
        }
        store.append(&record).unwrap();
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hypermine-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpoint_roundtrips_database_config_and_epoch() {
        let (d, _) = fixture(100);
        // Every stored field off its default, so each is shown to
        // round-trip rather than to decode back to the default.
        let stored = ModelConfig {
            gamma_edge: 1.2,
            gamma_hyper: 1.1,
            with_hyperedges: false,
            threads: 3,
            simd: SimdPolicy::ForceScalar,
            triple_tensor_max_bytes: Some(12_345),
            ..ModelConfig::default()
        };
        let mut model = AssociationModel::build(&d.slice_obs(0..100), &stored).unwrap();
        model.advance(&row_at(&d, 100)).unwrap();
        let bytes = encode_checkpoint(&model);
        let (db, cfg, epoch) =
            decode_checkpoint(&bytes, Path::new("test.ckpt")).expect("roundtrip");
        assert_eq!(epoch, 1);
        assert_eq!(cfg, stored);
        assert_eq!(db.num_obs(), model.database().num_obs());
        assert_eq!(db.attr_names(), model.database().attr_names());
        for a in db.attrs() {
            assert_eq!(db.column(a), model.database().column(a));
        }
    }

    #[test]
    fn checkpoint_detects_a_flipped_byte() {
        let (_, model) = fixture(100);
        let mut bytes = encode_checkpoint(&model);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = decode_checkpoint(&bytes, Path::new("test.ckpt")).unwrap_err();
        assert!(matches!(err, RecoverError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn a_version_1_checkpoint_fails_recovery_as_corrupt() {
        let (_, model) = fixture(100);
        let dir = tmp_dir("v1-magic");
        drop(WalStore::create(&dir, 0, &model).unwrap());
        let path = checkpoint_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        bytes[..8].copy_from_slice(b"HMCKPT\x00\x01");
        fs::write(&path, &bytes).unwrap();
        let err = recover(&dir).unwrap_err();
        assert!(
            matches!(&err, RecoverError::Corrupt { offset: 0, what, .. } if what.contains("magic")),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_codec_roundtrips_every_variant() {
        let records = [
            WalRecord::Advance(vec![1, 2, 3]),
            WalRecord::AdvanceBatch(vec![vec![1, 1, 1], vec![2, 3, 1]]),
            WalRecord::Retire,
        ];
        for rec in &records {
            let bytes = encode_record(rec);
            let len = read_u32(&bytes, 0) as usize;
            let payload = &bytes[4..4 + len];
            assert_eq!(read_u64(&bytes, 4 + len), fnv_bytes(payload));
            assert_eq!(decode_payload(payload).as_ref(), Some(rec));
        }
    }

    #[test]
    fn recover_replays_checkpoint_plus_tail_bit_identically() {
        let (d, mut model) = fixture(100);
        let dir = tmp_dir("replay");
        let mut store = WalStore::create(&dir, 0, &model).unwrap();
        for o in 100..110 {
            model.advance(&row_at(&d, o)).unwrap();
            store.append(&WalRecord::Advance(row_at(&d, o))).unwrap();
        }
        model
            .advance_batch(&[row_at(&d, 110), row_at(&d, 111)])
            .unwrap();
        store
            .append(&WalRecord::AdvanceBatch(vec![
                row_at(&d, 110),
                row_at(&d, 111),
            ]))
            .unwrap();
        model.retire_oldest().unwrap();
        store.append(&WalRecord::Retire).unwrap();
        // A second run after the retire: singles, then a batch.
        for o in 112..116 {
            model.advance(&row_at(&d, o)).unwrap();
            store.append(&WalRecord::Advance(row_at(&d, o))).unwrap();
        }
        model
            .advance_batch(&[row_at(&d, 116), row_at(&d, 117)])
            .unwrap();
        store
            .append(&WalRecord::AdvanceBatch(vec![
                row_at(&d, 116),
                row_at(&d, 117),
            ]))
            .unwrap();
        drop(store);

        let (recovered, info) = recover(&dir).expect("recover");
        assert_eq!(info.seq, 0);
        assert_eq!(info.checkpoint_epoch, 0);
        assert_eq!(info.replayed, 17, "one per record, not per batch");
        assert!(!info.torn_tail);
        assert_eq!(recovered.epoch(), model.epoch());
        assert_eq!(info.epoch, model.epoch());
        let (live, back) = (model.hypergraph(), recovered.hypergraph());
        assert_eq!(back.num_edges(), live.num_edges());
        for (id, e) in live.edges() {
            let r = back.edge(id);
            assert_eq!((r.tail(), r.head()), (e.tail(), e.head()), "edge {id}");
            assert_eq!(r.weight().to_bits(), e.weight().to_bits(), "ACV of {id}");
        }
        let a = crate::ModelSnapshot::build(&recovered, &crate::SnapshotSpec::default());
        let b = crate::ModelSnapshot::build(&model, &crate::SnapshotSpec::default());
        assert_eq!(a.digest(), b.digest());
        let _ = fs::remove_dir_all(&dir);

        // A wrong-arity row in the middle of the log fails recovery.
        let (_, fresh) = fixture(100);
        let dir = tmp_dir("replay-bad-run");
        let mut store = WalStore::create(&dir, 0, &fresh).unwrap();
        store.append(&WalRecord::Advance(row_at(&d, 100))).unwrap();
        store.append(&WalRecord::Advance(vec![1, 2])).unwrap();
        store.append(&WalRecord::Advance(row_at(&d, 101))).unwrap();
        drop(store);
        let err = recover(&dir).unwrap_err();
        assert!(matches!(err, RecoverError::Replay(_)), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_the_live_model_rejects_fail_recovery_as_replay() {
        let (d, _) = fixture(100);
        let advance = || WalRecord::Advance(row_at(&d, 100));
        // (tag, checkpoint window, a valid record logged first, the
        // forged record): each forged record is checked against the
        // window the valid one folded to.
        let cases = [
            (
                "zero-value",
                100,
                Some(advance()),
                WalRecord::Advance(vec![1, 0, 2]),
            ),
            (
                "above-k",
                100,
                Some(advance()),
                WalRecord::Advance(vec![1, 4, 2]),
            ),
            (
                "narrow-batch",
                100,
                Some(advance()),
                WalRecord::AdvanceBatch(vec![vec![1, 2], vec![2, 1]]),
            ),
            (
                "bad-batch-row",
                100,
                Some(advance()),
                WalRecord::AdvanceBatch(vec![row_at(&d, 101), vec![3, 1, 5]]),
            ),
            ("retire-last", 1, None, WalRecord::Retire),
            (
                "retire-folded-last",
                2,
                Some(WalRecord::Retire),
                WalRecord::Retire,
            ),
            ("advance-empty", 0, None, advance()),
        ];
        for (tag, window, valid, forged) in cases {
            let (_, mut model) = fixture(window);
            let dir = tmp_dir(&format!("forged-{tag}"));
            let mut store = WalStore::create(&dir, 0, &model).unwrap();
            if let Some(valid) = valid {
                apply_and_log(&mut model, &mut store, valid);
            }
            store.append(&forged).unwrap();
            drop(store);
            let live = match &forged {
                WalRecord::Advance(row) => model.advance(row),
                WalRecord::AdvanceBatch(rows) => model.advance_batch(rows),
                WalRecord::Retire => model.retire_oldest(),
            }
            .expect_err(tag)
            .to_string();
            match recover(&dir) {
                Err(RecoverError::Replay(what)) => {
                    assert!(what.ends_with(&live), "{tag}: {what} vs {live}")
                }
                other => panic!("{tag}: expected a replay error, got {other:?}"),
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn an_empty_batch_folds_to_the_live_epoch_and_digest() {
        for window in [100, 0] {
            let (d, mut model) = fixture(window);
            let dir = tmp_dir(&format!("empty-batch-{window}"));
            let mut store = WalStore::create(&dir, 0, &model).unwrap();
            apply_and_log(&mut model, &mut store, WalRecord::AdvanceBatch(Vec::new()));
            if window > 0 {
                apply_and_log(&mut model, &mut store, WalRecord::Advance(row_at(&d, 100)));
                apply_and_log(&mut model, &mut store, WalRecord::AdvanceBatch(Vec::new()));
            }
            drop(store);
            let (recovered, info) = recover(&dir).expect("recover");
            assert_eq!(info.replayed, if window > 0 { 3 } else { 1 });
            assert_eq!(recovered.epoch(), model.epoch(), "window {window}");
            assert_eq!(info.epoch, model.epoch());
            assert_eq!(digest(&recovered), digest(&model), "window {window}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_recovered_model_builds_its_state_on_the_first_advance() {
        let (d, mut model) = fixture(100);
        let dir = tmp_dir("first-advance");
        let mut store = WalStore::create(&dir, 0, &model).unwrap();
        for o in 100..104 {
            apply_and_log(&mut model, &mut store, WalRecord::Advance(row_at(&d, o)));
        }
        apply_and_log(&mut model, &mut store, WalRecord::Retire);
        drop(store);
        let (mut recovered, info) = recover(&dir).expect("recover");
        assert!(recovered.incremental_stats().is_none());
        assert_eq!(info.phases.iter().count(), 3);
        assert_eq!(digest(&recovered), digest(&model));
        // Both models go on from here: singles, then a batch.
        for o in 104..107 {
            model.advance(&row_at(&d, o)).unwrap();
            recovered.advance(&row_at(&d, o)).unwrap();
            assert_eq!(digest(&recovered), digest(&model), "after obs {o}");
        }
        assert!(recovered.incremental_stats().is_some());
        let batch: Vec<Vec<Value>> = (107..112).map(|o| row_at(&d, o)).collect();
        model.advance_batch(&batch).unwrap();
        recovered.advance_batch(&batch).unwrap();
        assert_eq!(recovered.epoch(), model.epoch());
        assert_eq!(digest(&recovered), digest(&model));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_long_mixed_tail_across_a_rotation_recovers_to_the_writer() {
        let (d, mut model) = fixture(100);
        let dir = tmp_dir("long-tail");
        // A one-byte budget: the one `maybe_rotate` call below rotates.
        let mut store = WalStore::create(&dir, 1, &model).unwrap();
        let mut next = 100usize;
        let mut row = || {
            next += 1;
            row_at(&d, next % d.num_obs())
        };
        let mut records = 0usize;
        let mut log = |model: &mut AssociationModel, store: &mut WalStore, i: usize| {
            let record = match i % 10 {
                3 => WalRecord::AdvanceBatch((0..1 + i % 4).map(|_| row()).collect()),
                // One retire per 40 records: the window shrinks from 100
                // to 67 observations over the stream.
                7 if i % 40 == 7 => WalRecord::Retire,
                _ => WalRecord::Advance(row()),
            };
            apply_and_log(model, store, record);
        };
        for i in 0..300 {
            log(&mut model, &mut store, i);
            records += 1;
        }
        assert!(store.maybe_rotate(&model).unwrap());
        for i in 300..1_320 {
            log(&mut model, &mut store, i);
            records += 1;
        }
        drop(store);
        let (recovered, info) = recover(&dir).expect("recover");
        assert_eq!(info.seq, 1);
        assert_eq!(info.replayed, 1_020);
        assert_eq!(records, 1_320);
        assert_eq!(recovered.database().num_obs(), 67);
        assert_eq!(info.epoch, model.epoch());
        assert_eq!(recovered.epoch(), model.epoch());
        assert_eq!(digest(&recovered), digest(&model));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_record_is_discarded_but_mid_log_corruption_is_fatal() {
        let (d, mut model) = fixture(100);
        let dir = tmp_dir("torn");
        let mut store = WalStore::create(&dir, 0, &model).unwrap();
        for o in 100..105 {
            model.advance(&row_at(&d, o)).unwrap();
            store.append(&WalRecord::Advance(row_at(&d, o))).unwrap();
        }
        drop(store);

        // Torn tail: chop bytes off the final record.
        let seg = segment_path(&dir, 0);
        let full = fs::read(&seg).unwrap();
        fs::write(&seg, &full[..full.len() - 5]).unwrap();
        let (recovered, info) = recover(&dir).expect("torn tail tolerated");
        assert!(info.torn_tail);
        assert_eq!(info.replayed, 4);
        assert_eq!(recovered.epoch(), 4);

        // Mid-log corruption: flip a byte inside an earlier record.
        let mut broken = full.clone();
        broken[20] ^= 0x01;
        fs::write(&seg, &broken).unwrap();
        let err = recover(&dir).unwrap_err();
        assert!(matches!(err, RecoverError::Corrupt { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_segment_header_recovers_the_checkpoint_and_serving_continues() {
        let (d, model) = fixture(100);
        for rotated in [false, true] {
            for cut in [0usize, 7, 15] {
                let tag = format!("torn-header-{rotated}-{cut}");
                let dir = tmp_dir(&tag);
                let mut live = model.clone();
                // A one-byte budget: `maybe_rotate` rotates after a record.
                let mut store = WalStore::create(&dir, 1, &live).unwrap();
                if rotated {
                    apply_and_log(&mut live, &mut store, WalRecord::Advance(row_at(&d, 100)));
                    assert!(store.maybe_rotate(&live).unwrap());
                }
                let seq = store.seq();
                drop(store);
                // The crash between creating the live segment and writing
                // its header.
                let seg = segment_path(&dir, seq);
                let header = fs::read(&seg).unwrap();
                assert_eq!(header.len(), 16, "{tag}: a fresh segment is its header");
                fs::write(&seg, &header[..cut]).unwrap();
                let (recovered, info) = recover(&dir).expect("a torn header is tolerated");
                assert_eq!(info.seq, seq, "{tag}");
                assert_eq!(info.checkpoint_epoch, live.epoch(), "{tag}");
                assert_eq!(info.epoch, live.epoch(), "{tag}");
                assert_eq!(info.replayed, 0, "{tag}");
                assert!(info.torn_tail, "{tag}");
                assert_eq!(recovered.epoch(), live.epoch(), "{tag}");
                assert_eq!(digest(&recovered), digest(&live), "{tag}");

                // A host recovered from that state serves the checkpoint
                // and goes on logging.
                let (host, info) = crate::ServeHost::recover(
                    &dir,
                    crate::SnapshotSpec::default(),
                    crate::HostOptions::queue(4),
                )
                .expect("the host recovers");
                assert!(info.torn_tail && info.replayed == 0, "{tag}");
                assert_eq!(host.reader().load().digest(), digest(&live), "{tag}");
                assert!(host.advance(row_at(&d, 101)));
                let stats = host.shutdown();
                assert_eq!((stats.published, stats.wal_records), (1, 1), "{tag}");
                live.advance(&row_at(&d, 101)).unwrap();
                let (again, info) = recover(&dir).expect("recover the continued store");
                assert_eq!((info.seq, info.replayed), (seq + 1, 1), "{tag}");
                assert!(!info.torn_tail, "{tag}");
                assert_eq!(digest(&again), digest(&live), "{tag}");
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn rotation_writes_a_checkpoint_and_recovery_uses_the_newest() {
        let (d, mut model) = fixture(100);
        let dir = tmp_dir("rotate");
        // Tiny budget: every append crosses it, so every record rotates.
        let mut store = WalStore::create(&dir, 1, &model).unwrap();
        let mut rotations = 0;
        for o in 100..106 {
            model.advance(&row_at(&d, o)).unwrap();
            store.append(&WalRecord::Advance(row_at(&d, o))).unwrap();
            if store.maybe_rotate(&model).unwrap() {
                rotations += 1;
            }
        }
        assert_eq!(rotations, 6);
        assert_eq!(store.seq(), 6);
        drop(store);
        let (recovered, info) = recover(&dir).expect("recover");
        assert_eq!(info.seq, 6);
        assert_eq!(info.checkpoint_epoch, 6);
        assert_eq!(info.replayed, 0);
        assert_eq!(recovered.epoch(), model.epoch());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_a_dir_that_already_holds_a_store() {
        let (_, model) = fixture(100);
        let dir = tmp_dir("refuse");
        let store = WalStore::create(&dir, 0, &model).unwrap();
        drop(store);
        let err = WalStore::create(&dir, 0, &model).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_on_an_empty_or_missing_dir_reports_no_checkpoint() {
        let dir = tmp_dir("empty");
        assert!(matches!(
            recover(&dir).unwrap_err(),
            RecoverError::NoCheckpoint(_)
        ));
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            recover(&dir).unwrap_err(),
            RecoverError::NoCheckpoint(_)
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
