//! Durable streaming state: versioned checkpoints plus an edge WAL.
//!
//! A saved artifact ([`crate::persist`]) restores an engine as it was at
//! save time; everything a serving deployment accumulates after that —
//! per-node rings, augmenter/tracker state, the stream clock, the online
//! replay buffer, ingest counters — would be lost to a crash. This module
//! makes that state durable, so a `kill -9` mid-ingest restarts in
//! O(state + WAL tail) with the same bit-exact guarantees. The witness and
//! ring files use the artifact's section encoders.
//!
//! # Layout
//!
//! A checkpoint directory holds numbered **epochs**. Epoch `e` consists of
//!
//! * `model.<e>.bin` — the model weights as a weights-only artifact
//!   ([`crate::persist`] format, including the `SAVEDOPT` optimizer
//!   section); one file at every shard count, since shards share weights;
//! * `witness.<e>.bin` — the **global witness snapshot** (magic `SPLASHG`):
//!   the augmenter/tracker state, ring capacity, and stream clock. These
//!   are global functions of the edge stream (there is exactly one writer),
//!   so they are written once per checkpoint regardless of shard count;
//! * `state.<e>.bin.shard<i>` — one **ring partition per shard** (magic
//!   `SPLASHD`): just that shard's per-node rings;
//! * `state.<e>.bin` — the state **manifest** (magic `SPLASHX`): the
//!   witness file's name + FNV-1a checksum, per-shard file names +
//!   checksums, the durable service counters, the optional online replay
//!   buffer, and a whole-file checksum;
//! * `wal.<e>.log` — the **append-only edge WAL** (magic `SPLASHW`):
//!   everything applied since the snapshot, as length-prefixed,
//!   per-record-checksummed entries, group-committed once per accepted
//!   request from the server's single engine thread.
//!
//! A tiny `CURRENT` file (magic `SPLASHC`) names the committed epoch. It
//! is rewritten via write-temp + atomic rename **last**, after every file
//! of the new epoch is complete — so a crash at *any* byte leaves
//! `CURRENT` pointing at a complete epoch. Recovery reads `CURRENT`, loads
//! that epoch's model + state, replays its WAL (truncating a torn tail at
//! the last valid record), and deletes the orphans of uncommitted epochs.
//!
//! # Durability scope
//!
//! Appends and snapshots are flushed to the OS but **not fsynced**: the
//! unit of failure is the *process* (`kill -9`, panic, OOM-kill), not the
//! machine. Power-loss durability would add an `fsync` per group commit
//! without changing any format below.
//!
//! # Fault injection
//!
//! Every byte headed for a checkpoint directory flows through a
//! [`DurableWriter`], and every file operation consults a shared
//! [`FaultPlan`]. A test harness arms the plan with "kill the `n`-th
//! operation after `b` bytes" (or "before its rename") and gets back
//! exactly the on-disk prefix a real crash at that point would leave. The
//! crash-recovery suite (`tests/durable.rs`) drives this over every
//! operation of the checkpoint sequence and every byte of a WAL append,
//! proving restart bit-identity at shard counts 1 and 3.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use ctdg::{Label, PropertyQuery, TemporalEdge};
use datasets::Task;

use crate::capture::CapturedQuery;
use crate::error::SplashError;
use crate::persist::{
    self, bad, corrupt_or_io, fnv1a, get_f32, get_f64, get_u32, get_u64, get_u8, put_f32,
    put_f64, put_u32, put_u64, put_u8, read_neighbor, sane_dim, write_neighbor, SavedModel,
};
use crate::stream::{RingState, WitnessSnapshot};

/// Magic of the state manifest (witness + per-shard checksums + service
/// sections).
const STATE_MANIFEST_MAGIC: &[u8; 8] = b"SPLASHX\x01";
/// Format revision of the state manifest (v2 adds the witness entry).
const STATE_MANIFEST_VERSION: u32 = 2;
/// Magic of the write-ahead log.
const WAL_MAGIC: &[u8; 8] = b"SPLASHW\x01";
/// Format revision of the WAL.
const WAL_VERSION: u32 = 1;
/// Magic of the `CURRENT` epoch pointer.
const CURRENT_MAGIC: &[u8; 8] = b"SPLASHC\x01";
/// Format revision of the `CURRENT` pointer.
const CURRENT_VERSION: u32 = 1;

/// WAL record tag: a chronologically ordered edge batch.
const WAL_EDGES: u8 = 1;
/// WAL record tag: a batch of ground-truth label observations.
const WAL_LABELS: u8 = 2;
/// WAL record tag: an explicit fine-tune (+publish) request.
const WAL_FINE_TUNE: u8 = 3;
/// WAL record tag: an explicit weight publish.
const WAL_PUBLISH: u8 = 4;

/// Upper bound on a single WAL record's payload (1 GiB). A length prefix
/// beyond this is garbage: mid-file it is corruption, at the tail it is a
/// torn write.
const MAX_WAL_RECORD: u64 = 1 << 30;

/// The name of the committed-epoch pointer file.
const CURRENT_FILE: &str = "CURRENT";

// ---------------------------------------------------------------------------
// Fault injection.

/// What a planned fault does when its target operation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    /// Stop the operation's file write after exactly this many bytes and
    /// fail — a torn write, as a `kill -9` mid-`write(2)` would leave.
    WriteAt(u64),
    /// Let the temp file be written fully, then fail instead of renaming —
    /// a crash between the data write and the atomic publish.
    BeforeRename,
}

#[derive(Debug, Default)]
struct FaultPlanInner {
    /// Index (since arming) of the operation to kill, and how.
    target: Option<(u64, FaultKind)>,
    /// Operations issued since the last arm/reset.
    next_index: u64,
    /// Whether the planned fault has fired.
    fired: bool,
    /// When recording, every *completed* operation's label and byte count.
    recording: bool,
    trace: Vec<(String, u64)>,
}

/// A programmable crash point, shared between a test harness and the
/// durable layer.
///
/// The durable layer numbers every file operation it performs (temp-file
/// writes, renames, WAL appends) from the moment the plan is armed. The
/// harness first runs with [`FaultPlan::record_trace`] to enumerate the
/// operations and their sizes, then arms "kill operation `n` at byte `b`"
/// ([`FaultPlan::arm_write`]) or "kill operation `n` before its rename"
/// ([`FaultPlan::arm_rename`]) and replays the workload. The injected
/// failure surfaces as [`SplashError::Io`]; the bytes on disk are exactly
/// what a real crash at that point would leave, and the harness recovers
/// from them without any cleanup.
///
/// Cloning shares the plan (it is `Arc`-backed); the default plan never
/// fires and adds one uncontended mutex lock per *file* operation — noise
/// next to the I/O itself.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Arc<Mutex<FaultPlanInner>>,
}

impl FaultPlan {
    /// A plan with no fault armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the plan: the `op`-th durable file operation from now fails
    /// after writing exactly `offset` bytes.
    pub fn arm_write(&self, op: u64, offset: u64) {
        let mut g = self.inner.lock().expect("fault plan poisoned");
        g.target = Some((op, FaultKind::WriteAt(offset)));
        g.next_index = 0;
        g.fired = false;
    }

    /// Arms the plan: the `op`-th durable file operation from now writes
    /// its bytes fully but dies before its atomic rename (for append-only
    /// WAL writes, where no rename exists, the crash lands right after the
    /// append instead).
    pub fn arm_rename(&self, op: u64) {
        let mut g = self.inner.lock().expect("fault plan poisoned");
        g.target = Some((op, FaultKind::BeforeRename));
        g.next_index = 0;
        g.fired = false;
    }

    /// Disarms any planned fault and resets the operation counter.
    pub fn disarm(&self) {
        let mut g = self.inner.lock().expect("fault plan poisoned");
        g.target = None;
        g.next_index = 0;
        g.fired = false;
    }

    /// Whether the armed fault has fired.
    pub fn fired(&self) -> bool {
        self.inner.lock().expect("fault plan poisoned").fired
    }

    /// Starts recording completed operations (label + bytes written),
    /// resetting the operation counter and any previous trace.
    pub fn record_trace(&self) {
        let mut g = self.inner.lock().expect("fault plan poisoned");
        g.recording = true;
        g.trace.clear();
        g.next_index = 0;
        g.fired = false;
        g.target = None;
    }

    /// Stops recording and returns the trace of completed operations.
    pub fn take_trace(&self) -> Vec<(String, u64)> {
        let mut g = self.inner.lock().expect("fault plan poisoned");
        g.recording = false;
        std::mem::take(&mut g.trace)
    }

    /// Claims the next operation index; returns the fault to inject into
    /// this operation, if it is the armed target.
    fn next(&self) -> Option<FaultKind> {
        let mut g = self.inner.lock().expect("fault plan poisoned");
        let idx = g.next_index;
        g.next_index += 1;
        match g.target {
            Some((t, kind)) if t == idx && !g.fired => {
                g.fired = true;
                Some(kind)
            }
            _ => None,
        }
    }

    /// Records a completed operation (when tracing).
    fn complete(&self, label: &str, bytes: u64) {
        let mut g = self.inner.lock().expect("fault plan poisoned");
        if g.recording {
            g.trace.push((label.to_string(), bytes));
        }
    }
}

/// The injected-crash error every fired fault surfaces as.
fn injected() -> io::Error {
    io::Error::other("injected crash (durable fault plan)")
}

/// An [`io::Write`] adapter that simulates `kill -9` at a programmed byte
/// offset: bytes strictly before the offset are written through to the
/// inner writer, the write that reaches the offset is truncated exactly
/// there, and the call fails with the injected-crash error. Without a
/// programmed offset it is a transparent pass-through.
///
/// This is the seam every durable byte flows through — checkpoint files,
/// manifests, WAL appends, the `CURRENT` pointer — so a crash can be
/// injected at *any* byte of *any* durable write.
#[derive(Debug)]
pub struct DurableWriter<W: Write> {
    inner: W,
    written: u64,
    fail_at: Option<u64>,
}

impl<W: Write> DurableWriter<W> {
    /// A transparent pass-through writer (no fault).
    pub fn new(inner: W) -> Self {
        Self { inner, written: 0, fail_at: None }
    }

    /// A writer that dies after exactly `fail_at` bytes.
    pub fn with_fault(inner: W, fail_at: u64) -> Self {
        Self { inner, written: 0, fail_at: Some(fail_at) }
    }

    /// Total bytes written through so far.
    pub fn written(&self) -> u64 {
        self.written
    }
}

impl<W: Write> Write for DurableWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(limit) = self.fail_at {
            let remaining = limit.saturating_sub(self.written);
            if (buf.len() as u64) > remaining {
                // Write the surviving prefix, then die: a torn write.
                let keep = remaining as usize;
                if keep > 0 {
                    self.inner.write_all(&buf[..keep])?;
                    self.written += keep as u64;
                }
                self.inner.flush()?;
                return Err(injected());
            }
        }
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

// ---------------------------------------------------------------------------
// Configuration and reports.

/// How often and where a durable model checkpoints.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// The checkpoint directory (created if absent).
    pub dir: PathBuf,
    /// Snapshot after this many WAL records have accumulated (a record is
    /// one group-committed request, not one edge). Must be positive.
    pub checkpoint_every: u64,
    /// Crash-injection plan; the default never fires.
    pub faults: FaultPlan,
}

impl DurabilityConfig {
    /// A config checkpointing `dir` every 256 WAL records.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), checkpoint_every: 256, faults: FaultPlan::default() }
    }

    /// Sets the WAL-records-per-checkpoint threshold.
    pub fn checkpoint_every(mut self, records: u64) -> Self {
        self.checkpoint_every = records;
        self
    }

    /// Installs a crash-injection plan (test harnesses only).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Validates the config.
    pub fn validate(&self) -> Result<(), SplashError> {
        if self.checkpoint_every == 0 {
            return Err(SplashError::InvalidConfig {
                what: "checkpoint_every must be positive".into(),
            });
        }
        Ok(())
    }
}

/// Summary of a completed recovery, returned by
/// [`crate::SplashService::make_durable`] when it restored from disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// The committed epoch that was restored.
    pub epoch: u64,
    /// Shard count the snapshot was written at (restore may differ).
    pub snapshot_shards: usize,
    /// WAL records replayed on top of the snapshot.
    pub wal_records_replayed: u64,
    /// Edges contained in the replayed records.
    pub wal_edges_replayed: u64,
    /// Whether a torn WAL tail was truncated at the last valid record.
    pub wal_tail_truncated: bool,
}

/// Durable counters restored with a checkpoint (the slice of
/// [`crate::ServiceStats`] that describes *stream state* rather than
/// process lifetime — request/latency counters deliberately reset on
/// restart).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct PersistedCounters {
    pub edges_ingested: u64,
    pub edges_dropped: u64,
    pub labels_buffered: u64,
    pub labels_dropped: u64,
    pub fine_tunes: u64,
    pub fine_tune_steps: u64,
    pub publishes: u64,
}

/// The online trainer's replay-buffer state, persisted verbatim (storage
/// order + ring cursors) so a restored trainer fine-tunes bit-identically
/// to one that never restarted.
#[derive(Debug, Clone)]
pub(crate) struct TrainerState {
    /// The task whose loss the trainer optimizes (recovery has no dataset
    /// to read it from).
    pub task: Task,
    /// Ring storage in *storage* order (not insertion order).
    pub buffer: Vec<CapturedQuery>,
    /// Index of the oldest example.
    pub head: usize,
    /// Number of live examples.
    pub filled: usize,
    /// The ring capacity the cursors are valid against.
    pub capacity: usize,
    /// Lifetime labels absorbed.
    pub labels_seen: u64,
    /// Lifetime fine-tune invocations.
    pub tunes: u64,
    /// Labels absorbed since the last auto-tune.
    pub since_tune: usize,
}

/// One entry of a WAL, decoded: the request to re-apply on replay.
///
/// Records carry the *original* accepted request plus the effective
/// policy, so replay routes through exactly the code path the live
/// request took — drops, auto-tunes, counter increments and all.
#[derive(Debug, Clone)]
pub(crate) enum WalEntry {
    /// A chronologically ordered edge batch.
    Edges {
        /// The batch as the accepted request carried it.
        edges: Vec<TemporalEdge>,
        /// Whether the request ran under the drop-late policy.
        drop_late: bool,
    },
    /// A batch of ground-truth label observations.
    Labels(Vec<PropertyQuery>),
    /// An explicit fine-tune (+publish) request.
    FineTune,
    /// An explicit weight publish.
    Publish,
}

/// A borrowed WAL record, encoded at append time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WalRecord<'a> {
    /// One accepted ingest request.
    Edges {
        /// The batch as the request carried it.
        edges: &'a [TemporalEdge],
        /// Whether the request ran under the drop-late policy.
        drop_late: bool,
    },
    /// The observations of one label request.
    Labels(&'a [PropertyQuery]),
    /// An explicit fine-tune (+publish) request.
    FineTune,
    /// An explicit weight publish.
    Publish,
}

/// Everything one checkpoint persists, assembled by the service.
#[derive(Debug)]
pub(crate) struct CheckpointData {
    /// The serialized model artifact (stored once; shards share weights).
    pub model_bytes: Vec<u8>,
    /// The global witness snapshot (augmenter, ring capacity, clock) —
    /// one per checkpoint regardless of shard count.
    pub witness: WitnessSnapshot,
    /// Per-shard ring partitions (length = shard count, ≥ 1).
    pub ring_shards: Vec<Vec<RingState>>,
    /// Durable service counters.
    pub counters: PersistedCounters,
    /// The online replay buffer, when the trainer persists it.
    pub trainer: Option<TrainerState>,
}

/// Everything recovery restored from the committed epoch, before replay.
#[derive(Debug)]
pub(crate) struct RecoveredCheckpoint {
    /// The restored model (weights, config, optional optimizer state).
    pub saved: SavedModel,
    /// The global witness snapshot, as written.
    pub witness: WitnessSnapshot,
    /// Per-shard ring partitions, as written.
    pub ring_shards: Vec<Vec<RingState>>,
    /// Durable service counters at snapshot time.
    pub counters: PersistedCounters,
    /// The persisted replay buffer, if any.
    pub trainer: Option<TrainerState>,
    /// Decoded WAL entries to re-apply, in append order.
    pub entries: Vec<WalEntry>,
    /// Recovery summary (epoch, replay counts, truncation).
    pub report: RecoveryReport,
}

// ---------------------------------------------------------------------------
// The log.

/// The per-model durable log: the open WAL of the committed epoch plus the
/// bookkeeping to rotate it at the next checkpoint. Owned by the service's
/// model entry; all writes happen on the single engine thread.
#[derive(Debug)]
pub(crate) struct DurableLog {
    dir: PathBuf,
    checkpoint_every: u64,
    faults: FaultPlan,
    epoch: u64,
    wal: File,
    wal_records: u64,
    /// Scratch for [`DurableLog::append`]: the encoded payload and the
    /// framed record. Warmed up by the first appends, then reused — the
    /// steady-state WAL path stays off the allocator.
    payload_buf: Vec<u8>,
    rec_buf: Vec<u8>,
}

impl DurableLog {
    /// Creates a fresh log in `cfg.dir`: writes `data` as the epoch-0
    /// checkpoint (committing it via `CURRENT`) and opens its empty WAL.
    pub(crate) fn create(
        cfg: &DurabilityConfig,
        data: CheckpointData,
    ) -> Result<Self, SplashError> {
        cfg.validate()?;
        fs::create_dir_all(&cfg.dir)?;
        let wal = write_checkpoint(&cfg.dir, &cfg.faults, 0, &data)?;
        gc_epochs(&cfg.dir, 0);
        Ok(Self {
            dir: cfg.dir.clone(),
            checkpoint_every: cfg.checkpoint_every,
            faults: cfg.faults.clone(),
            epoch: 0,
            wal,
            wal_records: 0,
            payload_buf: Vec::new(),
            rec_buf: Vec::new(),
        })
    }

    /// Opens an existing log: reads `CURRENT`, loads the committed epoch's
    /// model + state, decodes its WAL (truncating a torn tail), removes
    /// uncommitted orphans, and returns the log positioned to append.
    pub(crate) fn recover(
        cfg: &DurabilityConfig,
    ) -> Result<(Self, RecoveredCheckpoint), SplashError> {
        cfg.validate()?;
        let epoch = read_current(&cfg.dir)?;

        let model_path = cfg.dir.join(format!("model.{epoch}.bin"));
        require_checkpoint_file(&model_path, epoch)?;
        let saved = persist::load_model(&model_path)?;

        let state_path = cfg.dir.join(format!("state.{epoch}.bin"));
        require_checkpoint_file(&state_path, epoch)?;
        let (witness_file, shard_files, counters, trainer) =
            read_state_manifest(&state_path)?;
        let dir = state_path.parent().unwrap_or_else(|| Path::new("."));
        let read_verified = |name: &str, checksum: u64| -> Result<Vec<u8>, SplashError> {
            let path = dir.join(name);
            require_checkpoint_file(&path, epoch)?;
            let bytes = fs::read(&path)?;
            if fnv1a(&bytes) != checksum {
                return Err(SplashError::CorruptModel {
                    what: format!("state file {name:?} does not match its manifest checksum"),
                });
            }
            Ok(bytes)
        };
        let witness_bytes = read_verified(&witness_file.0, witness_file.1)?;
        let witness = persist::read_witness(&mut witness_bytes.as_slice())?;
        let mut ring_shards = Vec::with_capacity(shard_files.len());
        for (name, checksum) in &shard_files {
            let bytes = read_verified(name, *checksum)?;
            ring_shards.push(persist::read_rings(&mut bytes.as_slice(), witness.k)?);
        }

        let wal_path = cfg.dir.join(format!("wal.{epoch}.log"));
        require_checkpoint_file(&wal_path, epoch)?;
        let scan = read_wal(&wal_path, epoch)?;
        if scan.truncated {
            // Torn tail: cut the file back to its last valid record so the
            // next append starts at a clean boundary.
            OpenOptions::new().write(true).open(&wal_path)?.set_len(scan.valid_len)?;
        }
        let wal = OpenOptions::new().append(true).open(&wal_path)?;

        gc_epochs(&cfg.dir, epoch);

        let report = RecoveryReport {
            epoch,
            snapshot_shards: ring_shards.len(),
            wal_records_replayed: scan.entries.len() as u64,
            wal_edges_replayed: scan
                .entries
                .iter()
                .map(|e| match e {
                    WalEntry::Edges { edges, .. } => edges.len() as u64,
                    _ => 0,
                })
                .sum(),
            wal_tail_truncated: scan.truncated,
        };
        let recovered = RecoveredCheckpoint {
            saved,
            witness,
            ring_shards,
            counters,
            trainer,
            entries: scan.entries,
            report,
        };
        let log = Self {
            dir: cfg.dir.clone(),
            checkpoint_every: cfg.checkpoint_every,
            faults: cfg.faults.clone(),
            epoch,
            wal,
            wal_records: report.wal_records_replayed,
            payload_buf: Vec::new(),
            rec_buf: Vec::new(),
        };
        Ok((log, recovered))
    }

    /// Whether a committed checkpoint exists in `dir` (i.e. recovery has
    /// something to restore from).
    pub(crate) fn exists(dir: &Path) -> bool {
        dir.join(CURRENT_FILE).exists()
    }

    /// Appends one record, group-committed: a single `write(2)` carries
    /// the length prefix, payload, and checksum, so a crash leaves either
    /// a fully valid record or a torn tail recovery truncates away.
    pub(crate) fn append(&mut self, record: WalRecord<'_>) -> Result<(), SplashError> {
        encode_wal_payload_into(&mut self.payload_buf, record).map_err(SplashError::Io)?;
        let payload = &self.payload_buf;
        if payload.len() as u64 > MAX_WAL_RECORD {
            return Err(SplashError::InvalidConfig {
                what: format!("WAL record of {} bytes exceeds the format limit", payload.len()),
            });
        }
        let rec = &mut self.rec_buf;
        rec.clear();
        rec.reserve(payload.len() + 12);
        put_u32(rec, payload.len() as u32).map_err(SplashError::Io)?;
        rec.extend_from_slice(payload);
        put_u64(rec, fnv1a(payload)).map_err(SplashError::Io)?;

        let fault = self.faults.next();
        let mut w = match fault {
            Some(FaultKind::WriteAt(off)) => DurableWriter::with_fault(&mut self.wal, off),
            _ => DurableWriter::new(&mut self.wal),
        };
        w.write_all(rec).map_err(SplashError::Io)?;
        w.flush().map_err(SplashError::Io)?;
        if matches!(fault, Some(FaultKind::BeforeRename)) {
            // No rename in an append; the crash lands right after the
            // bytes hit the file — the record is durable, the in-memory
            // acknowledgement is not.
            return Err(SplashError::Io(injected()));
        }
        self.faults.complete("wal.append", rec.len() as u64);
        self.wal_records += 1;
        Ok(())
    }

    /// Whether the WAL has grown past the checkpoint threshold.
    pub(crate) fn should_checkpoint(&self) -> bool {
        self.wal_records >= self.checkpoint_every
    }

    /// Writes `data` as epoch `current + 1`, commits it via `CURRENT`,
    /// garbage-collects the previous epoch, and rotates the WAL. On error
    /// the log still appends to the *old* epoch's WAL — the old checkpoint
    /// remains committed and fully consistent.
    pub(crate) fn checkpoint(&mut self, data: CheckpointData) -> Result<(), SplashError> {
        let next = self.epoch + 1;
        let wal = write_checkpoint(&self.dir, &self.faults, next, &data)?;
        self.epoch = next;
        self.wal = wal;
        self.wal_records = 0;
        gc_epochs(&self.dir, next);
        Ok(())
    }

    /// The committed epoch this log appends to.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// Errors a missing file of a *committed* epoch as corruption (the commit
/// protocol guarantees every file exists before `CURRENT` names the
/// epoch).
fn require_checkpoint_file(path: &Path, epoch: u64) -> Result<(), SplashError> {
    if !path.exists() {
        return Err(SplashError::CorruptModel {
            what: format!(
                "committed epoch {epoch} is missing {:?}",
                path.file_name().unwrap_or_default()
            ),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Checkpoint writing.

/// The file name of ring partition `index` of state manifest `path`
/// (`<manifest-name>.shard<index>` in the same directory).
fn shard_file_path(path: &Path, index: usize) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "state".into());
    path.with_file_name(format!("{name}.shard{index}"))
}

/// `<path>.tmp`, in the same directory (so the rename is atomic).
fn tmp_path(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "durable".into());
    path.with_file_name(format!("{name}.tmp"))
}

/// Writes `bytes` to `path` crash-safely: through the fault seam into
/// `<path>.tmp`, then an atomic rename. One durable operation in
/// fault-plan terms.
fn write_file_atomic(
    plan: &FaultPlan,
    label: &str,
    path: &Path,
    bytes: &[u8],
) -> Result<(), SplashError> {
    let fault = plan.next();
    let tmp = tmp_path(path);
    let file = File::create(&tmp)?;
    let mut w = match fault {
        Some(FaultKind::WriteAt(off)) => DurableWriter::with_fault(file, off),
        _ => DurableWriter::new(file),
    };
    w.write_all(bytes).map_err(SplashError::Io)?;
    w.flush().map_err(SplashError::Io)?;
    drop(w);
    if matches!(fault, Some(FaultKind::BeforeRename)) {
        return Err(SplashError::Io(injected()));
    }
    fs::rename(&tmp, path)?;
    plan.complete(label, bytes.len() as u64);
    Ok(())
}

/// Writes every file of epoch `epoch` and commits it by renaming
/// `CURRENT` last. Returns the open (empty) WAL of the new epoch.
fn write_checkpoint(
    dir: &Path,
    faults: &FaultPlan,
    epoch: u64,
    data: &CheckpointData,
) -> Result<File, SplashError> {
    let shards = data.ring_shards.len();
    if shards == 0 {
        return Err(SplashError::InvalidConfig {
            what: "a checkpoint needs at least one shard state".into(),
        });
    }

    // 1. Model weights: a weights-only artifact (the persist format,
    //    `SAVEDOPT` included), one file at every shard count — shards
    //    share weights.
    let model_path = dir.join(format!("model.{epoch}.bin"));
    write_file_atomic(faults, "model", &model_path, &data.model_bytes)?;

    // 2. The global witness snapshot — one file regardless of shard count.
    let witness_path = dir.join(format!("witness.{epoch}.bin"));
    let mut witness_bytes = Vec::new();
    persist::write_witness(&mut witness_bytes, &data.witness).map_err(SplashError::Io)?;
    write_file_atomic(faults, "witness", &witness_path, &witness_bytes)?;
    let witness_file = (
        witness_path
            .file_name()
            .expect("witness path always has a file name")
            .to_string_lossy()
            .into_owned(),
        fnv1a(&witness_bytes),
    );

    // 3. Per-shard ring partitions.
    let state_path = dir.join(format!("state.{epoch}.bin"));
    let mut shard_files = Vec::with_capacity(shards);
    for (i, rings) in data.ring_shards.iter().enumerate() {
        let mut bytes = Vec::new();
        persist::write_rings(&mut bytes, rings, i, shards).map_err(SplashError::Io)?;
        let shard_path = shard_file_path(&state_path, i);
        write_file_atomic(faults, &format!("state.shard{i}"), &shard_path, &bytes)?;
        let name = shard_path
            .file_name()
            .expect("shard_file_path always has a file name")
            .to_string_lossy()
            .into_owned();
        shard_files.push((name, fnv1a(&bytes)));
    }

    // 4. State manifest (witness + shard checksums + counters + replay
    //    buffer).
    let manifest = state_manifest_bytes(
        &witness_file,
        &shard_files,
        &data.counters,
        data.trainer.as_ref(),
    )
    .map_err(SplashError::Io)?;
    write_file_atomic(faults, "state.manifest", &state_path, &manifest)?;

    // 5. The new epoch's WAL, header only. Append-only, so no temp+rename:
    //    a crash here leaves a torn orphan `CURRENT` never points at.
    let wal_path = dir.join(format!("wal.{epoch}.log"));
    let mut header = Vec::with_capacity(20);
    header.extend_from_slice(WAL_MAGIC);
    put_u32(&mut header, WAL_VERSION).map_err(SplashError::Io)?;
    put_u64(&mut header, epoch).map_err(SplashError::Io)?;
    let fault = faults.next();
    let file = File::create(&wal_path)?;
    let mut w = match fault {
        Some(FaultKind::WriteAt(off)) => DurableWriter::with_fault(file, off),
        _ => DurableWriter::new(file),
    };
    w.write_all(&header).map_err(SplashError::Io)?;
    w.flush().map_err(SplashError::Io)?;
    let DurableWriter { inner: wal, .. } = w;
    if matches!(fault, Some(FaultKind::BeforeRename)) {
        return Err(SplashError::Io(injected()));
    }
    faults.complete("wal.create", header.len() as u64);

    // 6. Commit: CURRENT now names the complete epoch.
    let mut current = Vec::with_capacity(28);
    current.extend_from_slice(CURRENT_MAGIC);
    put_u32(&mut current, CURRENT_VERSION).map_err(SplashError::Io)?;
    put_u64(&mut current, epoch).map_err(SplashError::Io)?;
    put_u64(&mut current, fnv1a(&epoch.to_le_bytes())).map_err(SplashError::Io)?;
    write_file_atomic(faults, "current", &dir.join(CURRENT_FILE), &current)?;

    Ok(wal)
}

/// Reads and validates the `CURRENT` pointer; a missing file is
/// [`SplashError::CheckpointMissing`] (nothing committed yet).
fn read_current(dir: &Path) -> Result<u64, SplashError> {
    let path = dir.join(CURRENT_FILE);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Err(SplashError::CheckpointMissing { dir: dir.display().to_string() });
        }
        Err(e) => return Err(SplashError::Io(e)),
    };
    if bytes.len() < 12 || &bytes[..8] != CURRENT_MAGIC {
        return Err(SplashError::CorruptModel {
            what: "CURRENT is not a SPLASH epoch pointer (bad magic)".into(),
        });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("length checked"));
    if version != CURRENT_VERSION {
        return Err(SplashError::PersistVersionMismatch {
            found: version,
            supported: CURRENT_VERSION,
        });
    }
    if bytes.len() != 28 {
        return Err(SplashError::CorruptModel { what: "CURRENT has the wrong length".into() });
    }
    let epoch = u64::from_le_bytes(bytes[12..20].try_into().expect("length checked"));
    let checksum = u64::from_le_bytes(bytes[20..28].try_into().expect("length checked"));
    if checksum != fnv1a(&epoch.to_le_bytes()) {
        return Err(SplashError::CorruptModel { what: "CURRENT fails its checksum".into() });
    }
    Ok(epoch)
}

/// Best-effort removal of every durable file that does not belong to
/// `keep_epoch`: uncommitted orphans from a crashed checkpoint, the
/// previous epoch after a successful one, and stray `.tmp` files. Only
/// files matching this module's naming are touched.
fn gc_epochs(dir: &Path, keep_epoch: u64) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name == CURRENT_FILE {
            continue;
        }
        let doomed = match durable_file_epoch(&name) {
            Some(epoch) => epoch != keep_epoch,
            None => name.ends_with(".tmp") && durable_file_epoch(name.trim_end_matches(".tmp")).is_some()
                || name == format!("{CURRENT_FILE}.tmp"),
        };
        if doomed {
            let _ = fs::remove_file(entry.path());
        }
    }
}

/// Parses the epoch out of a durable file name (`model.<e>.bin[.shardN]`,
/// `witness.<e>.bin`, `state.<e>.bin[.shardN]`, `wal.<e>.log`); `None` for
/// anything else.
fn durable_file_epoch(name: &str) -> Option<u64> {
    let rest = name
        .strip_prefix("model.")
        .or_else(|| name.strip_prefix("witness."))
        .or_else(|| name.strip_prefix("state."))
        .or_else(|| name.strip_prefix("wal."))?;
    let (epoch, suffix) = rest.split_once('.')?;
    let epoch: u64 = epoch.parse().ok()?;
    let valid = suffix == "bin"
        || suffix == "log"
        || (suffix.starts_with("bin.shard")
            && suffix["bin.shard".len()..].parse::<u64>().is_ok());
    valid.then_some(epoch)
}

// ---------------------------------------------------------------------------
// State manifest encoding (checksums + counters + replay buffer).

fn write_label<W: Write>(w: &mut W, label: &Label) -> io::Result<()> {
    match label {
        Label::Class(c) => {
            put_u8(w, 0)?;
            put_u64(w, *c as u64)?;
        }
        Label::Affinity(a) => {
            put_u8(w, 1)?;
            put_u64(w, a.len() as u64)?;
            for &x in a.iter() {
                put_f32(w, x)?;
            }
        }
    }
    Ok(())
}

fn read_label<R: Read>(r: &mut R) -> io::Result<Label> {
    match get_u8(r)? {
        0 => Ok(Label::Class(get_u64(r)? as usize)),
        1 => {
            let n = sane_dim("affinity width", get_u64(r)?)?;
            let mut a = vec![0.0f32; n];
            for x in &mut a {
                *x = get_f32(r)?;
            }
            Ok(Label::Affinity(a.into_boxed_slice()))
        }
        t => Err(bad(format!("unknown label tag {t}"))),
    }
}

fn write_captured_query<W: Write>(w: &mut W, q: &CapturedQuery) -> io::Result<()> {
    put_u32(w, q.node)?;
    put_f64(w, q.time)?;
    put_u64(w, q.target_feat.len() as u64)?;
    for &x in &q.target_feat {
        put_f32(w, x)?;
    }
    put_u64(w, q.neighbors.len() as u64)?;
    for n in &q.neighbors {
        write_neighbor(w, n)?;
    }
    write_label(w, &q.label)
}

fn read_captured_query<R: Read>(r: &mut R) -> io::Result<CapturedQuery> {
    let node = get_u32(r)?;
    let time = get_f64(r)?;
    let feat_len = sane_dim("captured-query feature width", get_u64(r)?)?;
    let mut target_feat = vec![0.0f32; feat_len];
    for x in &mut target_feat {
        *x = get_f32(r)?;
    }
    let n_len = sane_dim("captured-query neighbor count", get_u64(r)?)?;
    let mut neighbors = Vec::with_capacity(n_len);
    for _ in 0..n_len {
        neighbors.push(read_neighbor(r)?);
    }
    let label = read_label(r)?;
    Ok(CapturedQuery { node, time, target_feat, neighbors, label })
}

/// Serializes the state manifest, ending with a whole-file FNV-1a
/// checksum so a damaged counters/buffer section loads as a typed error.
/// The witness file's entry comes first, then the per-shard ring files.
fn state_manifest_bytes(
    witness_file: &(String, u64),
    shard_files: &[(String, u64)],
    counters: &PersistedCounters,
    trainer: Option<&TrainerState>,
) -> io::Result<Vec<u8>> {
    let mut w = Vec::new();
    w.extend_from_slice(STATE_MANIFEST_MAGIC);
    put_u32(&mut w, STATE_MANIFEST_VERSION)?;
    put_u64(&mut w, witness_file.0.len() as u64)?;
    w.extend_from_slice(witness_file.0.as_bytes());
    put_u64(&mut w, witness_file.1)?;
    put_u64(&mut w, shard_files.len() as u64)?;
    for (name, checksum) in shard_files {
        put_u64(&mut w, name.len() as u64)?;
        w.extend_from_slice(name.as_bytes());
        put_u64(&mut w, *checksum)?;
    }
    for v in [
        counters.edges_ingested,
        counters.edges_dropped,
        counters.labels_buffered,
        counters.labels_dropped,
        counters.fine_tunes,
        counters.fine_tune_steps,
        counters.publishes,
    ] {
        put_u64(&mut w, v)?;
    }
    match trainer {
        None => put_u8(&mut w, 0)?,
        Some(t) => {
            put_u8(&mut w, 1)?;
            put_u8(
                &mut w,
                match t.task {
                    Task::Anomaly => 0,
                    Task::Classification => 1,
                    Task::Affinity => 2,
                },
            )?;
            put_u64(&mut w, t.capacity as u64)?;
            put_u64(&mut w, t.head as u64)?;
            put_u64(&mut w, t.filled as u64)?;
            put_u64(&mut w, t.labels_seen)?;
            put_u64(&mut w, t.tunes)?;
            put_u64(&mut w, t.since_tune as u64)?;
            put_u64(&mut w, t.buffer.len() as u64)?;
            for q in &t.buffer {
                write_captured_query(&mut w, q)?;
            }
        }
    }
    let checksum = fnv1a(&w);
    put_u64(&mut w, checksum)?;
    Ok(w)
}

/// Reads the state manifest: the witness file + checksum, shard files +
/// checksums, the durable counters, and the optional replay buffer.
#[allow(clippy::type_complexity)]
fn read_state_manifest(
    path: &Path,
) -> Result<
    ((String, u64), Vec<(String, u64)>, PersistedCounters, Option<TrainerState>),
    SplashError,
> {
    let bytes = fs::read(path)?;
    if bytes.len() < 20 || &bytes[..8] != STATE_MANIFEST_MAGIC {
        return Err(SplashError::CorruptModel {
            what: "not a SPLASH state manifest (bad magic)".into(),
        });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("length checked"));
    if version != STATE_MANIFEST_VERSION {
        return Err(SplashError::PersistVersionMismatch {
            found: version,
            supported: STATE_MANIFEST_VERSION,
        });
    }
    let body_len = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[body_len..].try_into().expect("length checked"));
    if fnv1a(&bytes[..body_len]) != stored {
        return Err(SplashError::CorruptModel {
            what: "state manifest fails its checksum".into(),
        });
    }
    let mut r = &bytes[12..body_len];
    let r = &mut r;
    read_state_manifest_body(r).map_err(corrupt_or_io)
}

#[allow(clippy::type_complexity)]
fn read_state_manifest_body<R: Read>(
    r: &mut R,
) -> io::Result<((String, u64), Vec<(String, u64)>, PersistedCounters, Option<TrainerState>)> {
    let read_entry = |r: &mut R, what: &str| -> io::Result<(String, u64)> {
        let len = get_u64(r)? as usize;
        if len == 0 || len > 4096 {
            return Err(bad(format!("impossible {what} file-name length {len}")));
        }
        let mut name = vec![0u8; len];
        r.read_exact(&mut name)?;
        let name = String::from_utf8(name)
            .map_err(|_| bad(format!("{what} file name is not UTF-8")))?;
        Ok((name, get_u64(r)?))
    };
    let witness = read_entry(r, "witness")?;
    let shards = get_u64(r)?;
    if shards == 0 || shards > 1 << 20 {
        return Err(bad(format!("impossible shard count {shards}")));
    }
    let mut files = Vec::with_capacity(shards as usize);
    for _ in 0..shards {
        files.push(read_entry(r, "state")?);
    }
    let counters = PersistedCounters {
        edges_ingested: get_u64(r)?,
        edges_dropped: get_u64(r)?,
        labels_buffered: get_u64(r)?,
        labels_dropped: get_u64(r)?,
        fine_tunes: get_u64(r)?,
        fine_tune_steps: get_u64(r)?,
        publishes: get_u64(r)?,
    };
    let trainer = match get_u8(r)? {
        0 => None,
        1 => {
            let task = match get_u8(r)? {
                0 => Task::Anomaly,
                1 => Task::Classification,
                2 => Task::Affinity,
                t => return Err(bad(format!("unknown trainer task tag {t}"))),
            };
            let capacity = sane_dim("replay-buffer capacity", get_u64(r)?)?;
            let head = get_u64(r)? as usize;
            let filled = get_u64(r)? as usize;
            let labels_seen = get_u64(r)?;
            let tunes = get_u64(r)?;
            let since_tune = get_u64(r)? as usize;
            let len = sane_dim("replay-buffer length", get_u64(r)?)?;
            if len > capacity || filled > len || head >= len.max(1) {
                return Err(bad(format!(
                    "replay buffer is inconsistent ({len} stored, head {head}, \
                     filled {filled}, capacity {capacity})"
                )));
            }
            let mut buffer = Vec::with_capacity(len);
            for _ in 0..len {
                buffer.push(read_captured_query(r)?);
            }
            Some(TrainerState {
                task,
                buffer,
                head,
                filled,
                capacity,
                labels_seen,
                tunes,
                since_tune,
            })
        }
        t => return Err(bad(format!("unknown trainer-section tag {t}"))),
    };
    Ok((witness, files, counters, trainer))
}

// ---------------------------------------------------------------------------
// WAL encoding and replay.

/// Encodes `record` into `w` (cleared first). Taking the buffer from the
/// caller lets [`DurableLog::append`] reuse one scratch vector across
/// appends — the steady-state WAL path performs zero heap allocations
/// after warm-up (pinned in `crates/splash/tests/alloc.rs`).
fn encode_wal_payload_into(mut w: &mut Vec<u8>, record: WalRecord<'_>) -> io::Result<()> {
    w.clear();
    match record {
        WalRecord::Edges { edges, drop_late } => {
            put_u8(&mut w, WAL_EDGES)?;
            put_u8(&mut w, drop_late as u8)?;
            put_u64(&mut w, edges.len() as u64)?;
            for e in edges {
                put_u32(&mut w, e.src)?;
                put_u32(&mut w, e.dst)?;
                put_f64(&mut w, e.time)?;
                put_f32(&mut w, e.weight)?;
                put_u64(&mut w, e.feat.len() as u64)?;
                for &x in e.feat.iter() {
                    put_f32(&mut w, x)?;
                }
            }
        }
        WalRecord::Labels(queries) => {
            put_u8(&mut w, WAL_LABELS)?;
            put_u64(&mut w, queries.len() as u64)?;
            for q in queries {
                put_u32(&mut w, q.node)?;
                put_f64(&mut w, q.time)?;
                write_label(&mut w, &q.label)?;
            }
        }
        WalRecord::FineTune => put_u8(&mut w, WAL_FINE_TUNE)?,
        WalRecord::Publish => put_u8(&mut w, WAL_PUBLISH)?,
    }
    Ok(())
}

fn decode_wal_payload(payload: &[u8]) -> io::Result<WalEntry> {
    let mut r = payload;
    let r = &mut r;
    let entry = match get_u8(r)? {
        WAL_EDGES => {
            let drop_late = match get_u8(r)? {
                0 => false,
                1 => true,
                t => return Err(bad(format!("edge-record policy flag is {t}, not 0/1"))),
            };
            let count = get_u64(r)?;
            if count > MAX_WAL_RECORD {
                return Err(bad(format!("impossible edge count {count}")));
            }
            let mut edges = Vec::with_capacity(count.min(1 << 20) as usize);
            for _ in 0..count {
                let src = get_u32(r)?;
                let dst = get_u32(r)?;
                let time = get_f64(r)?;
                let weight = get_f32(r)?;
                let feat_len = sane_dim("edge feature width", get_u64(r)?)?;
                let mut feat = vec![0.0f32; feat_len];
                for x in &mut feat {
                    *x = get_f32(r)?;
                }
                edges.push(TemporalEdge {
                    src,
                    dst,
                    feat: feat.into_boxed_slice(),
                    weight,
                    time,
                });
            }
            WalEntry::Edges { edges, drop_late }
        }
        WAL_LABELS => {
            let count = get_u64(r)?;
            if count > MAX_WAL_RECORD {
                return Err(bad(format!("impossible label count {count}")));
            }
            let mut queries = Vec::with_capacity(count.min(1 << 20) as usize);
            for _ in 0..count {
                let node = get_u32(r)?;
                let time = get_f64(r)?;
                let label = read_label(r)?;
                queries.push(PropertyQuery { node, time, label });
            }
            WalEntry::Labels(queries)
        }
        WAL_FINE_TUNE => WalEntry::FineTune,
        WAL_PUBLISH => WalEntry::Publish,
        t => return Err(bad(format!("unknown WAL record tag {t}"))),
    };
    let mut rest = [0u8; 1];
    match r.read(&mut rest)? {
        0 => Ok(entry),
        _ => Err(bad("WAL record carries trailing bytes".to_string())),
    }
}

/// The result of scanning a WAL file.
struct WalScan {
    entries: Vec<WalEntry>,
    /// File length up to and including the last valid record.
    valid_len: u64,
    /// Whether trailing bytes past `valid_len` were found (a torn tail).
    truncated: bool,
}

/// Scans a WAL: header, then records until the file ends cleanly, a torn
/// tail is found (truncation point), or mid-file damage surfaces
/// ([`SplashError::WalCorrupt`]).
fn read_wal(path: &Path, expect_epoch: u64) -> Result<WalScan, SplashError> {
    let bytes = fs::read(path)?;
    if bytes.len() < 20 || &bytes[..8] != WAL_MAGIC {
        return Err(SplashError::WalCorrupt {
            what: format!("{:?} is not a SPLASH WAL (bad or torn header)", path.file_name()),
        });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("length checked"));
    if version != WAL_VERSION {
        return Err(SplashError::PersistVersionMismatch {
            found: version,
            supported: WAL_VERSION,
        });
    }
    let epoch = u64::from_le_bytes(bytes[12..20].try_into().expect("length checked"));
    if epoch != expect_epoch {
        return Err(SplashError::WalCorrupt {
            what: format!("WAL header claims epoch {epoch}, CURRENT names {expect_epoch}"),
        });
    }

    let mut entries = Vec::new();
    let mut pos = 20usize;
    loop {
        if pos == bytes.len() {
            // Clean end at a record boundary.
            return Ok(WalScan { entries, valid_len: pos as u64, truncated: false });
        }
        if bytes.len() - pos < 4 {
            // Torn length prefix.
            return Ok(WalScan { entries, valid_len: pos as u64, truncated: true });
        }
        let len =
            u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("length checked")) as u64;
        let remaining = (bytes.len() - pos - 4) as u64;
        if len > MAX_WAL_RECORD {
            if remaining < len {
                // Garbage length at the tail: a torn write.
                return Ok(WalScan { entries, valid_len: pos as u64, truncated: true });
            }
            return Err(SplashError::WalCorrupt {
                what: format!("record {} claims an impossible {len}-byte payload", entries.len()),
            });
        }
        if remaining < len + 8 {
            // Payload or checksum cut short: a torn write.
            return Ok(WalScan { entries, valid_len: pos as u64, truncated: true });
        }
        let payload = &bytes[pos + 4..pos + 4 + len as usize];
        let stored = u64::from_le_bytes(
            bytes[pos + 4 + len as usize..pos + 12 + len as usize]
                .try_into()
                .expect("length checked"),
        );
        if fnv1a(payload) != stored {
            // A complete record with a bad checksum is damage, not a torn
            // tail — unless it is the *last* record, where a torn write
            // that happened to leave the right byte count is
            // indistinguishable from a flip; both resolve by truncation.
            if pos + 12 + len as usize == bytes.len() {
                return Ok(WalScan { entries, valid_len: pos as u64, truncated: true });
            }
            return Err(SplashError::WalCorrupt {
                what: format!("record {} fails its checksum", entries.len()),
            });
        }
        let entry = decode_wal_payload(payload).map_err(|e| SplashError::WalCorrupt {
            what: format!("record {} is undecodable: {e}", entries.len()),
        })?;
        entries.push(entry);
        pos += 12 + len as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("splash-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn durable_writer_truncates_at_the_programmed_offset() {
        let mut sink = Vec::new();
        {
            let mut w = DurableWriter::with_fault(&mut sink, 5);
            w.write_all(b"abc").unwrap();
            let err = w.write_all(b"defgh").unwrap_err();
            assert!(err.to_string().contains("injected"));
        }
        assert_eq!(sink, b"abcde");
    }

    #[test]
    fn durable_writer_passes_through_without_a_fault() {
        let mut sink = Vec::new();
        {
            let mut w = DurableWriter::new(&mut sink);
            w.write_all(b"hello").unwrap();
            assert_eq!(w.written(), 5);
        }
        assert_eq!(sink, b"hello");
    }

    #[test]
    fn fault_plan_targets_the_nth_operation() {
        let plan = FaultPlan::new();
        plan.arm_write(2, 7);
        assert_eq!(plan.next(), None);
        assert_eq!(plan.next(), None);
        assert_eq!(plan.next(), Some(FaultKind::WriteAt(7)));
        assert!(plan.fired());
        // Fires once.
        assert_eq!(plan.next(), None);
    }

    #[test]
    fn current_pointer_round_trips_and_rejects_damage() {
        let dir = tmp_dir("current");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(CURRENT_MAGIC);
        put_u32(&mut bytes, CURRENT_VERSION).unwrap();
        put_u64(&mut bytes, 42).unwrap();
        put_u64(&mut bytes, fnv1a(&42u64.to_le_bytes())).unwrap();
        fs::write(dir.join(CURRENT_FILE), &bytes).unwrap();
        assert_eq!(read_current(&dir).unwrap(), 42);

        // Flip a byte of the epoch: checksum mismatch.
        let mut damaged = bytes.clone();
        damaged[13] ^= 0xFF;
        fs::write(dir.join(CURRENT_FILE), &damaged).unwrap();
        assert!(matches!(read_current(&dir), Err(SplashError::CorruptModel { .. })));

        // Missing: typed as CheckpointMissing.
        fs::remove_file(dir.join(CURRENT_FILE)).unwrap();
        assert!(matches!(read_current(&dir), Err(SplashError::CheckpointMissing { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_records_round_trip() {
        let dir = tmp_dir("walrt");
        let path = dir.join("wal.0.log");
        let mut header = Vec::new();
        header.extend_from_slice(WAL_MAGIC);
        put_u32(&mut header, WAL_VERSION).unwrap();
        put_u64(&mut header, 0).unwrap();
        fs::write(&path, &header).unwrap();
        let mut log = DurableLog {
            dir: dir.clone(),
            checkpoint_every: 100,
            faults: FaultPlan::new(),
            epoch: 0,
            wal: OpenOptions::new().append(true).open(&path).unwrap(),
            wal_records: 0,
            payload_buf: Vec::new(),
            rec_buf: Vec::new(),
        };
        let edges = vec![
            TemporalEdge::plain(1, 2, 10.0),
            TemporalEdge { src: 3, dst: 4, feat: vec![0.5, -0.5].into(), weight: 2.0, time: 11.0 },
        ];
        log.append(WalRecord::Edges { edges: &edges, drop_late: true }).unwrap();
        let labels = vec![PropertyQuery { node: 7, time: 12.0, label: Label::Class(3) }];
        log.append(WalRecord::Labels(&labels)).unwrap();
        log.append(WalRecord::FineTune).unwrap();
        log.append(WalRecord::Publish).unwrap();
        assert_eq!(log.wal_records, 4);
        drop(log);

        let scan = read_wal(&path, 0).unwrap();
        assert!(!scan.truncated);
        assert_eq!(scan.entries.len(), 4);
        match &scan.entries[0] {
            WalEntry::Edges { edges: got, drop_late } => {
                assert!(drop_late);
                assert_eq!(got.len(), 2);
                assert_eq!(got[1].feat.as_ref(), &[0.5, -0.5]);
                assert_eq!(got[1].weight, 2.0);
            }
            other => panic!("expected edges, got {other:?}"),
        }
        match &scan.entries[1] {
            WalEntry::Labels(got) => assert!(matches!(got[0].label, Label::Class(3))),
            other => panic!("expected labels, got {other:?}"),
        }
        assert!(matches!(scan.entries[2], WalEntry::FineTune));
        assert!(matches!(scan.entries[3], WalEntry::Publish));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_wal_tail_is_truncated_not_fatal() {
        let dir = tmp_dir("waltorn");
        let path = dir.join("wal.0.log");
        let mut header = Vec::new();
        header.extend_from_slice(WAL_MAGIC);
        put_u32(&mut header, WAL_VERSION).unwrap();
        put_u64(&mut header, 0).unwrap();
        fs::write(&path, &header).unwrap();
        let mut log = DurableLog {
            dir: dir.clone(),
            checkpoint_every: 100,
            faults: FaultPlan::new(),
            epoch: 0,
            wal: OpenOptions::new().append(true).open(&path).unwrap(),
            wal_records: 0,
            payload_buf: Vec::new(),
            rec_buf: Vec::new(),
        };
        let edges = vec![TemporalEdge::plain(1, 2, 10.0)];
        log.append(WalRecord::Edges { edges: &edges, drop_late: false }).unwrap();
        drop(log);
        let full = fs::read(&path).unwrap();
        let valid_len = full.len() as u64;

        // Every strict prefix past the header parses as a torn tail that
        // truncates back to the header (no complete record survives).
        for cut in (21..full.len()).rev() {
            fs::write(&path, &full[..cut]).unwrap();
            let scan = read_wal(&path, 0).unwrap();
            assert!((cut as u64) < valid_len);
            assert!(scan.truncated, "cut {cut} should be a torn tail");
            assert_eq!(scan.entries.len(), 0);
            assert_eq!(scan.valid_len, 20);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn midfile_wal_damage_is_typed_corruption() {
        let dir = tmp_dir("walflip");
        let path = dir.join("wal.0.log");
        let mut header = Vec::new();
        header.extend_from_slice(WAL_MAGIC);
        put_u32(&mut header, WAL_VERSION).unwrap();
        put_u64(&mut header, 0).unwrap();
        fs::write(&path, &header).unwrap();
        let mut log = DurableLog {
            dir: dir.clone(),
            checkpoint_every: 100,
            faults: FaultPlan::new(),
            epoch: 0,
            wal: OpenOptions::new().append(true).open(&path).unwrap(),
            wal_records: 0,
            payload_buf: Vec::new(),
            rec_buf: Vec::new(),
        };
        log.append(WalRecord::Edges { edges: &[TemporalEdge::plain(1, 2, 10.0)], drop_late: false })
            .unwrap();
        log.append(WalRecord::Edges { edges: &[TemporalEdge::plain(2, 3, 11.0)], drop_late: false })
            .unwrap();
        drop(log);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload byte of the *first* record: complete record, bad
        // checksum, not the tail → WalCorrupt.
        bytes[26] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_wal(&path, 0), Err(SplashError::WalCorrupt { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_file_names_parse() {
        assert_eq!(durable_file_epoch("model.3.bin"), Some(3));
        assert_eq!(durable_file_epoch("model.3.bin.shard1"), Some(3));
        assert_eq!(durable_file_epoch("witness.7.bin"), Some(7));
        assert_eq!(durable_file_epoch("witness.x.bin"), None);
        assert_eq!(durable_file_epoch("state.12.bin"), Some(12));
        assert_eq!(durable_file_epoch("wal.0.log"), Some(0));
        assert_eq!(durable_file_epoch("CURRENT"), None);
        assert_eq!(durable_file_epoch("model.x.bin"), None);
        assert_eq!(durable_file_epoch("notes.txt"), None);
        assert_eq!(durable_file_epoch("model.3.bin.tmp"), None);
    }
}
