//! Crash-injection durability harness: the PR-7 acceptance matrix.
//!
//! The load-bearing test family is `crash_at_every_traced_operation…`: a
//! durable deployment is killed — via the [`FaultPlan`] seam — at every
//! traced durable file operation (snapshot temp-file writes, their
//! renames, WAL appends, the `CURRENT` commit), at several byte offsets
//! per operation, and restarted. For **every** crash point, the restarted
//! process must end bit-identical (probe logits *and* streamed metric) to
//! a process that never crashed, at shard counts 1 and 3. A companion
//! test walks **every byte** of one WAL append record.
//!
//! The recovery contract per crash: the restored state equals the
//! never-crashed run after either `acked` or `acked + 1` requests, where
//! `acked` counts acknowledged requests — the `+ 1` case is a record that
//! became durable right before the crash (e.g. the append succeeded and
//! the threshold snapshot died), which a real client would retry or
//! reconcile. The harness detects the resume point from the persisted
//! counters, replays the remaining requests, and compares the end state.
//!
//! Alongside: WAL byte-flip/truncation fuzzing (typed error or clean
//! prefix, never a panic), the `CheckpointPolicy` contract for unflushed
//! replay buffers, and a proptest that snapshot→restore at a random cut
//! equals the never-snapshotted run.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use ctdg::{Label, PropertyQuery, TemporalEdge};
use datasets::{synthetic_shift, Dataset};
use proptest::prelude::*;
use splash::{
    seen_end_time, truncate_to_available, CheckpointPolicy, DurabilityConfig, FaultPlan,
    FeatureProcess, FineTunePolicy, IngestRequest, OnlineConfig, PredictRequest, SplashConfig,
    SplashError, SplashService, SEEN_FRAC,
};

const MODEL: &str = "live";
const NODES: u32 = 40;
/// Small threshold so the op sequence crosses several automatic
/// (WAL-rotation) checkpoints — their writes are crash points too.
const EVERY: u64 = 2;

/// One mutating request of the scripted deployment. The script is fixed
/// data so the clean run, every crash trial, and the reference replay all
/// issue byte-identical requests.
#[derive(Clone)]
enum Op {
    Ingest(Vec<TemporalEdge>),
    Labels(Vec<PropertyQuery>),
    FineTune,
    Publish,
}

struct Fixture {
    dataset: Dataset,
    cfg: SplashConfig,
    ops: Vec<Op>,
    /// Strictly after every edge, so probes are valid at any op prefix.
    probe_time: f64,
}

fn labels_at(t0: f64, n: usize) -> Vec<PropertyQuery> {
    (0..n)
        .map(|i| PropertyQuery {
            node: (i as u32 * 7) % NODES,
            time: t0 + i as f64 * 0.25,
            label: Label::Class(i % 2),
        })
        .collect()
}

fn fixture() -> Fixture {
    let dataset = truncate_to_available(&synthetic_shift(NODES, 6), 0.5);
    let mut cfg = SplashConfig::tiny();
    cfg.epochs = 2;
    let t_seen = seen_end_time(&dataset, SEEN_FRAC);
    let prefix = dataset.stream.prefix_len_at(t_seen);
    let tail = &dataset.stream.edges()[prefix..];
    assert!(tail.len() > 40, "fixture too small");
    let third = tail.len() / 3;
    let (a, b, c) = (&tail[..third], &tail[third..2 * third], &tail[2 * third..]);
    let t_a = a.last().expect("non-empty").time;
    let t_b = b.last().expect("non-empty").time;
    let probe_time = tail.last().expect("non-empty").time + 100.0;
    let ops = vec![
        Op::Ingest(a.to_vec()),
        Op::Labels(labels_at(t_a, 24)),
        Op::FineTune,
        Op::Ingest(b.to_vec()),
        Op::Labels(labels_at(t_b, 10)),
        Op::Publish,
        Op::Ingest(c.to_vec()),
    ];
    Fixture { dataset, cfg, ops, probe_time }
}

fn online_cfg() -> OnlineConfig {
    OnlineConfig {
        policy: FineTunePolicy::Manual,
        buffer_capacity: 64,
        batch_size: 16,
        steps_per_tune: 5,
        lr: 5e-3,
    }
}

fn build_service(cfg: &SplashConfig, shards: usize, online: bool) -> SplashService {
    let mut builder = SplashService::builder(*cfg).shards(shards);
    if online {
        builder = builder.online(online_cfg());
    }
    builder.build().unwrap()
}

/// One trained artifact shared by every trial: training is deterministic
/// and by far the most expensive step, so the crash matrix only pays for
/// load + serve per trial.
fn model_file() -> &'static Path {
    static FILE: OnceLock<PathBuf> = OnceLock::new();
    FILE.get_or_init(|| {
        let fx = fixture();
        let mut service = build_service(&fx.cfg, 1, true);
        service
            .train_model_with_process(MODEL, &fx.dataset, FeatureProcess::Random)
            .unwrap();
        let path = std::env::temp_dir()
            .join(format!("splash-durable-model-{}.bin", std::process::id()));
        service.save_model(MODEL, &path).unwrap();
        path
    })
}

fn loaded_service(fx: &Fixture, shards: usize, online: bool) -> SplashService {
    let mut service = build_service(&fx.cfg, shards, online);
    service.load_model(MODEL, model_file(), &fx.dataset).unwrap();
    service
}

fn apply_op(service: &mut SplashService, op: &Op) -> Result<(), SplashError> {
    match op {
        Op::Ingest(edges) => service.ingest(MODEL, IngestRequest::new(edges)).map(|_| ()),
        Op::Labels(labels) => service.observe_labels(MODEL, labels).map(|_| ()),
        Op::FineTune => service.fine_tune(MODEL).map(|_| ()),
        Op::Publish => service.publish(MODEL).map(|_| ()),
    }
}

/// The durable slice of the service counters — exactly what a checkpoint
/// persists, and (because every op strictly grows it) a fingerprint of
/// how many ops a recovered state contains.
fn persisted_counters(service: &SplashService) -> [u64; 7] {
    let s = service.stats();
    [
        s.edges_ingested,
        s.edges_dropped,
        s.labels_buffered,
        s.labels_dropped,
        s.fine_tunes,
        s.fine_tune_steps,
        s.publishes,
    ]
}

fn probe(service: &mut SplashService, t: f64) -> Vec<f32> {
    let mut logits = Vec::new();
    for i in 0..12u32 {
        let resp = service
            .predict(MODEL, PredictRequest::new((i * 3) % NODES, t + i as f64))
            .unwrap();
        assert!(resp.logits.iter().all(|v| v.is_finite()));
        logits.extend(resp.logits);
    }
    logits
}

/// The streamed evaluation metric over the probe set (the quantity the
/// operator actually reads), computed from the probe logits.
fn probe_metric(dataset: &Dataset, logits: &[f32]) -> f64 {
    let labels: Vec<Label> = (0..12).map(|i| Label::Class(i % 2)).collect();
    let refs: Vec<&Label> = labels.iter().collect();
    let out_dim = logits.len() / refs.len();
    splash::task::evaluate(
        dataset.task,
        &nn::Matrix::from_vec(refs.len(), out_dim, logits.to_vec()),
        &refs,
    )
}

/// The never-crashed run: counters after every op prefix (the resume
/// fingerprints) plus the end-state probe.
struct Reference {
    counters: Vec<[u64; 7]>,
    logits: Vec<f32>,
    metric: f64,
}

fn reference(fx: &Fixture, shards: usize, online: bool) -> Reference {
    let mut service = loaded_service(fx, shards, online);
    let mut counters = vec![persisted_counters(&service)];
    for op in &fx.ops {
        apply_op(&mut service, op).unwrap();
        counters.push(persisted_counters(&service));
    }
    let logits = probe(&mut service, fx.probe_time);
    let metric = probe_metric(&fx.dataset, &logits);
    Reference { counters, logits, metric }
}

/// Runs the scripted deployment cleanly with trace recording on, returning
/// every durable file operation (label, bytes) it performed.
fn traced_operations(fx: &Fixture, shards: usize, dir: &Path) -> Vec<(String, u64)> {
    let plan = FaultPlan::new();
    plan.record_trace();
    let mut service = loaded_service(fx, shards, true);
    let seeded = service
        .make_durable(
            MODEL,
            DurabilityConfig::new(dir).checkpoint_every(EVERY).faults(plan.clone()),
        )
        .unwrap();
    assert!(seeded.is_none(), "a fresh directory seeds, not recovers");
    for op in &fx.ops {
        apply_op(&mut service, op).unwrap();
    }
    plan.take_trace()
}

enum Crash {
    /// Kill the op's file write after exactly this many bytes.
    WriteAt(u64),
    /// Let the op's bytes land fully, die before its rename / right after
    /// its append.
    BeforeRename,
}

/// One full kill-and-restart cycle. Returns whether recovery truncated a
/// torn WAL tail (so the matrix can assert that case actually occurred).
fn crash_trial(
    fx: &Fixture,
    shards: usize,
    reference: &Reference,
    dir: &Path,
    op: u64,
    crash: &Crash,
    context: &str,
) -> bool {
    std::fs::remove_dir_all(dir).ok();
    let plan = FaultPlan::new();
    match crash {
        Crash::WriteAt(off) => plan.arm_write(op, *off),
        Crash::BeforeRename => plan.arm_rename(op),
    }

    // The doomed process.
    let mut service = loaded_service(fx, shards, true);
    let cfg = DurabilityConfig::new(dir).checkpoint_every(EVERY).faults(plan.clone());
    let mut acked = 0usize;
    match service.make_durable(MODEL, cfg) {
        Ok(seeded) => {
            assert!(seeded.is_none(), "{context}: fresh dir must seed");
            for step in &fx.ops {
                match apply_op(&mut service, step) {
                    Ok(()) => acked += 1,
                    Err(e) => {
                        assert!(matches!(e, SplashError::Io(_)), "{context}: {e:?}");
                        break;
                    }
                }
            }
        }
        Err(e) => assert!(matches!(e, SplashError::Io(_)), "{context}: {e:?}"),
    }
    assert!(plan.fired(), "{context}: the armed fault never fired");
    drop(service); // kill -9

    // The restarted process: recover, detect the resume point from the
    // durable counters, finish the script.
    let mut restarted = loaded_service(fx, shards, true);
    let report = restarted
        .make_durable(MODEL, DurabilityConfig::new(dir).checkpoint_every(EVERY))
        .unwrap_or_else(|e| panic!("{context}: recovery failed: {e}"));
    let recovered = persisted_counters(&restarted);
    let resume = reference
        .counters
        .iter()
        .position(|c| *c == recovered)
        .unwrap_or_else(|| {
            panic!("{context}: recovered counters {recovered:?} match no op prefix")
        });
    assert!(
        resume == acked || resume == acked + 1,
        "{context}: recovered at op {resume}, but {acked} ops were acknowledged"
    );
    for op in &fx.ops[resume..] {
        apply_op(&mut restarted, op)
            .unwrap_or_else(|e| panic!("{context}: resumed op failed: {e}"));
    }
    assert_eq!(
        persisted_counters(&restarted),
        *reference.counters.last().unwrap(),
        "{context}: durable counters diverged from the never-crashed run"
    );
    let logits = probe(&mut restarted, fx.probe_time);
    assert_eq!(
        logits, reference.logits,
        "{context}: probe logits diverged from the never-crashed run"
    );
    let metric = probe_metric(&fx.dataset, &logits);
    assert_eq!(
        metric.to_bits(),
        reference.metric.to_bits(),
        "{context}: streamed metric diverged from the never-crashed run"
    );
    report.is_some_and(|r| r.wal_tail_truncated)
}

/// Byte offsets to kill a `bytes`-long write at. The three crash classes
/// per operation are nothing-written (offset 0), partially-written
/// (midway), and fully-written-but-uncommitted (`BeforeRename`); the
/// `every_byte…` test walks all offsets of a WAL append exhaustively, so
/// the matrix samples class representatives. The sharded matrix covers
/// many more operations, so it drops the offset-0 sample (an absent temp
/// file and an empty one recover identically) to bound runtime.
fn offsets_for(bytes: u64, full: bool) -> Vec<u64> {
    let mut offs = if full { vec![0, bytes / 2] } else { vec![bytes / 2] };
    offs.sort_unstable();
    offs.dedup();
    offs.retain(|&o| o < bytes.max(1));
    offs
}

/// The full kill matrix at one shard count: every traced durable file
/// operation × (several byte offsets + the before-rename point).
fn crash_matrix(shards: usize) {
    let fx = fixture();
    let reference = reference(&fx, shards, true);
    let base = std::env::temp_dir()
        .join(format!("splash-durable-matrix-{shards}-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let trace = traced_operations(&fx, shards, &base.join("trace"));
    // 1 seed checkpoint + 7 appends + 3 rotation checkpoints, each
    // checkpoint 6 ops unsharded (model, witness, ring shard, manifest,
    // WAL create, CURRENT) / 8 ops at 3 shards (one model file at every
    // shard count, witness, 3 ring shards, state manifest, WAL create,
    // CURRENT).
    let checkpoint_ops = if shards == 1 { 6 } else { 8 };
    assert_eq!(trace.len(), 4 * checkpoint_ops + fx.ops.len(), "unexpected op trace: {trace:?}");

    let dir = base.join("crash");
    let mut torn_tails = 0usize;
    for (op, (label, bytes)) in trace.iter().enumerate() {
        for off in offsets_for(*bytes, shards == 1) {
            let context = format!("shards={shards} op={op} ({label}, {bytes}B) write@{off}");
            if crash_trial(&fx, shards, &reference, &dir, op as u64, &Crash::WriteAt(off), &context)
            {
                torn_tails += 1;
            }
        }
        let context = format!("shards={shards} op={op} ({label}, {bytes}B) before-rename");
        if crash_trial(&fx, shards, &reference, &dir, op as u64, &Crash::BeforeRename, &context) {
            torn_tails += 1;
        }
    }
    assert!(torn_tails > 0, "the matrix never exercised torn-tail truncation");
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn crash_at_every_traced_operation_recovers_bit_identically_unsharded() {
    crash_matrix(1);
}

#[test]
fn crash_at_every_traced_operation_recovers_bit_identically_at_3_shards() {
    crash_matrix(3);
}

/// The finest-grained slice of the matrix: one WAL append record, killed
/// at **every** byte offset (and after its full write), on a durable
/// deployment without continual learning — covering the trainer-less
/// checkpoint layout too.
#[test]
fn every_byte_of_a_wal_append_is_a_recoverable_crash_point() {
    let fx = fixture();
    let Op::Ingest(full) = &fx.ops[0] else { panic!("fixture starts with an ingest") };
    let edges = full[..2].to_vec();
    let probe_time = edges.last().unwrap().time + 100.0;

    // Never-crashed reference (no durability at all).
    let mut plain = loaded_service(&fx, 1, false);
    let before = persisted_counters(&plain);
    plain.ingest(MODEL, IngestRequest::new(&edges)).unwrap();
    let after = persisted_counters(&plain);
    let want = probe(&mut plain, probe_time);
    drop(plain);

    let base = std::env::temp_dir()
        .join(format!("splash-durable-bytes-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();

    // Clean traced run to size the append record.
    let plan = FaultPlan::new();
    plan.record_trace();
    let mut service = loaded_service(&fx, 1, false);
    service
        .make_durable(
            MODEL,
            DurabilityConfig::new(base.join("trace")).faults(plan.clone()),
        )
        .unwrap();
    service.ingest(MODEL, IngestRequest::new(&edges)).unwrap();
    drop(service);
    let trace = plan.take_trace();
    assert_eq!(trace.len(), 7, "seed checkpoint (6 ops) + 1 append: {trace:?}");
    let (label, record_len) = &trace[6];
    assert_eq!(label, "wal.append");

    let dir = base.join("crash");
    let mut crashes: Vec<Crash> = (0..*record_len).map(Crash::WriteAt).collect();
    crashes.push(Crash::BeforeRename);
    for crash in &crashes {
        std::fs::remove_dir_all(&dir).ok();
        let plan = FaultPlan::new();
        let off_desc = match crash {
            Crash::WriteAt(off) => {
                plan.arm_write(6, *off);
                format!("write@{off}")
            }
            Crash::BeforeRename => {
                plan.arm_rename(6);
                "after-append".into()
            }
        };
        let mut service = loaded_service(&fx, 1, false);
        service
            .make_durable(MODEL, DurabilityConfig::new(&dir).faults(plan.clone()))
            .unwrap();
        let err = service.ingest(MODEL, IngestRequest::new(&edges)).unwrap_err();
        assert!(matches!(err, SplashError::Io(_)), "{off_desc}: {err:?}");
        assert!(plan.fired());
        drop(service);

        let mut restarted = loaded_service(&fx, 1, false);
        restarted
            .make_durable(MODEL, DurabilityConfig::new(&dir))
            .unwrap_or_else(|e| panic!("{off_desc}: recovery failed: {e}"));
        let recovered = persisted_counters(&restarted);
        if recovered == before {
            // The record did not survive: the request was never durable.
            restarted.ingest(MODEL, IngestRequest::new(&edges)).unwrap();
        } else {
            // The full record survived the crash (possible only once every
            // byte was written).
            assert_eq!(recovered, after, "{off_desc}: partial record replayed");
        }
        assert_eq!(probe(&mut restarted, probe_time), want, "{off_desc}: diverged");
    }
    std::fs::remove_dir_all(&base).ok();
}

/// The global witness epoch file (`witness.<e>.bin`, new in the shared
/// witness-state layout) is a first-class crash point: kill its write at
/// several offsets — and right after it, before its rename — at every
/// checkpoint that emits one, and recovery must land on a committed
/// epoch bit-identically. The full matrix above covers these ops among
/// all others; this case pins them *by label*, so a layout change that
/// silently drops the witness file from the checkpoint sequence fails
/// loudly here rather than shifting indices in the matrix.
#[test]
fn killing_the_witness_file_mid_write_recovers_bit_identically() {
    let fx = fixture();
    let reference = reference(&fx, 1, true);
    let base = std::env::temp_dir()
        .join(format!("splash-durable-witness-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let trace = traced_operations(&fx, 1, &base.join("trace"));
    let witness_ops: Vec<usize> = trace
        .iter()
        .enumerate()
        .filter(|(_, (label, _))| label == "witness")
        .map(|(i, _)| i)
        .collect();
    assert_eq!(witness_ops.len(), 4, "each checkpoint writes one witness file: {trace:?}");

    let dir = base.join("crash");
    for op in witness_ops {
        let bytes = trace[op].1;
        for crash in [Crash::WriteAt(0), Crash::WriteAt(bytes / 2), Crash::BeforeRename] {
            let off = match &crash {
                Crash::WriteAt(o) => format!("write@{o}"),
                Crash::BeforeRename => "before-rename".into(),
            };
            let context = format!("witness op={op} ({bytes}B) {off}");
            crash_trial(&fx, 1, &reference, &dir, op as u64, &crash, &context);
        }
    }
    std::fs::remove_dir_all(&base).ok();
}

/// Fuzz-lite WAL damage: flipping any byte or truncating at any length
/// must yield either a typed error or a clean-prefix recovery — never a
/// panic, and never silently-wrong state (a successful recovery must
/// still serve finite predictions and resume appends).
#[test]
fn corrupted_wal_bytes_are_typed_errors_or_clean_prefixes() {
    let fx = fixture();
    let base = std::env::temp_dir()
        .join(format!("splash-durable-fuzz-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();

    // A committed directory whose single WAL holds the whole script
    // (threshold high enough that it never rotates).
    let mut service = loaded_service(&fx, 1, true);
    service
        .make_durable(MODEL, DurabilityConfig::new(&base).checkpoint_every(1_000))
        .unwrap();
    for op in &fx.ops {
        apply_op(&mut service, op).unwrap();
    }
    drop(service);
    let wal_path = base.join("wal.0.log");
    let pristine = std::fs::read(&wal_path).unwrap();
    assert!(pristine.len() > 100, "fixture WAL too small to fuzz");
    // Recovery itself mutates the directory (tail truncation, GC, and the
    // post-recovery checkpoint below rotates epochs), so every iteration
    // starts from a byte-identical copy of the committed directory.
    let committed: Vec<(std::ffi::OsString, Vec<u8>)> = std::fs::read_dir(&base)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name(), std::fs::read(e.path()).unwrap())
        })
        .collect();

    let recover = |mutated: &[u8], what: &str| {
        std::fs::remove_dir_all(&base).ok();
        std::fs::create_dir_all(&base).unwrap();
        for (name, bytes) in &committed {
            std::fs::write(base.join(name), bytes).unwrap();
        }
        std::fs::write(&wal_path, mutated).unwrap();
        // A bare service: recovery needs no dataset and no prior model,
        // and skipping the artifact load keeps ~300 mutations affordable.
        let mut restarted = build_service(&fx.cfg, 1, true);
        match restarted.make_durable(MODEL, DurabilityConfig::new(&base)) {
            Ok(report) => {
                let report = report.expect("a committed directory recovers");
                assert!(
                    report.wal_records_replayed <= fx.ops.len() as u64,
                    "{what}: replayed more records than were written"
                );
                // A clean-prefix recovery must leave a servable model that
                // accepts appends again.
                let logits = probe(&mut restarted, fx.probe_time);
                assert!(!logits.is_empty());
                restarted.checkpoint(MODEL).unwrap_or_else(|e| {
                    panic!("{what}: post-recovery checkpoint failed: {e}")
                });
            }
            Err(
                SplashError::WalCorrupt { .. }
                | SplashError::CorruptModel { .. }
                | SplashError::PersistVersionMismatch { .. },
            ) => {}
            Err(e) => panic!("{what}: untyped recovery failure: {e:?}"),
        }
    };

    // Byte flips: the header and the first record's framing byte-by-byte,
    // a stride through the rest (runtime is the only reason not to walk
    // every byte — any sampled byte must behave).
    let mut flip_points: Vec<usize> = (0..pristine.len().min(24)).collect();
    flip_points.extend((24..pristine.len()).step_by(997));
    for i in flip_points {
        let mut mutated = pristine.clone();
        mutated[i] ^= 0x41;
        recover(&mutated, &format!("flip byte {i}"));
    }
    // Truncations at a stride of prefix lengths plus the near-end cuts
    // (the torn-tail shapes a real crash leaves).
    let mut cut_points: Vec<usize> = (0..pristine.len()).step_by(1777).collect();
    cut_points.extend([pristine.len() - 9, pristine.len() - 1]);
    for len in cut_points {
        recover(&pristine[..len], &format!("truncate to {len}B"));
    }

    // The pristine directory still recovers in full afterwards.
    std::fs::remove_dir_all(&base).ok();
    std::fs::create_dir_all(&base).unwrap();
    for (name, bytes) in &committed {
        std::fs::write(base.join(name), bytes).unwrap();
    }
    let mut restarted = loaded_service(&fx, 1, true);
    let report = restarted
        .make_durable(MODEL, DurabilityConfig::new(&base))
        .unwrap()
        .expect("committed directory");
    assert_eq!(report.wal_records_replayed, fx.ops.len() as u64);
    assert!(!report.wal_tail_truncated);
    std::fs::remove_dir_all(&base).ok();
}

/// The flush-before-checkpoint hazard, both policies: `PersistBuffer`
/// (default) carries the un-trained replay buffer through the restart
/// bit-identically; `Refuse` rejects explicit checkpoints with the typed
/// 409 error and *defers* threshold checkpoints instead of failing the
/// triggering request.
#[test]
fn unflushed_replay_buffers_follow_the_checkpoint_policy() {
    let fx = fixture();
    let Op::Ingest(batch) = &fx.ops[0] else { panic!("fixture starts with an ingest") };
    let base = std::env::temp_dir()
        .join(format!("splash-durable-policy-{}", std::process::id()));

    // --- PersistBuffer: the buffer survives the restart, and the
    // fine-tune that eventually drains it matches the uninterrupted run.
    let mut uninterrupted = loaded_service(&fx, 1, true);
    for op in &fx.ops[..2] {
        apply_op(&mut uninterrupted, op).unwrap(); // ingest + 24 labels
    }
    uninterrupted.fine_tune(MODEL).unwrap();
    let want = probe(&mut uninterrupted, fx.probe_time);
    drop(uninterrupted);

    std::fs::remove_dir_all(&base).ok();
    let mut service = loaded_service(&fx, 1, true);
    service
        .make_durable(MODEL, DurabilityConfig::new(&base).checkpoint_every(1_000))
        .unwrap();
    for op in &fx.ops[..2] {
        apply_op(&mut service, op).unwrap();
    }
    assert_eq!(service.trainer(MODEL).unwrap().buffered(), 24);
    service.checkpoint(MODEL).unwrap(); // buffer rides inside the snapshot
    assert_eq!(service.checkpoint_epoch(MODEL).unwrap(), Some(1));
    drop(service);
    let mut restarted = loaded_service(&fx, 1, true);
    let report = restarted
        .make_durable(MODEL, DurabilityConfig::new(&base))
        .unwrap()
        .expect("committed directory");
    assert_eq!(report.wal_records_replayed, 0, "the snapshot already holds both ops");
    assert_eq!(restarted.trainer(MODEL).unwrap().buffered(), 24, "buffer restored");
    restarted.fine_tune(MODEL).unwrap();
    assert_eq!(probe(&mut restarted, fx.probe_time), want, "restored buffer diverged");
    drop(restarted);
    std::fs::remove_dir_all(&base).ok();

    // --- Refuse: explicit checkpoints (and `save_model`) reject a
    // non-empty buffer; threshold checkpoints defer until it drains.
    let mut service = SplashService::builder(fx.cfg)
        .online(online_cfg())
        .checkpoint_policy(CheckpointPolicy::Refuse)
        .build()
        .unwrap();
    service.load_model(MODEL, model_file(), &fx.dataset).unwrap();
    service
        .make_durable(MODEL, DurabilityConfig::new(&base).checkpoint_every(1))
        .unwrap();
    // Threshold 1: the ingest itself triggers a rotation (buffer empty).
    service.ingest(MODEL, IngestRequest::new(batch)).unwrap();
    assert_eq!(service.checkpoint_epoch(MODEL).unwrap(), Some(1));
    // A buffered label defers the rotation its own append triggered…
    let t = service.model_last_time(MODEL).unwrap();
    service.observe_labels(MODEL, &labels_at(t, 4)).unwrap();
    assert_eq!(
        service.checkpoint_epoch(MODEL).unwrap(),
        Some(1),
        "threshold checkpoint must defer while the buffer is non-empty"
    );
    // …and explicit checkpoints / artifact saves refuse with the typed 409.
    let err = service.checkpoint(MODEL).unwrap_err();
    assert!(matches!(err, SplashError::CheckpointUnflushed { buffered: 4 }), "{err:?}");
    assert_eq!(err.kind(), "CheckpointUnflushed");
    assert_eq!(err.http_status(), 409);
    let err = service
        .save_model(MODEL, &base.join("refused.bin"))
        .unwrap_err();
    assert!(matches!(err, SplashError::CheckpointUnflushed { .. }), "{err:?}");
    // Draining the buffer lifts the refusal: the fine-tune's own WAL
    // append rotates (buffer now empty), and explicit checkpoints work.
    service.fine_tune(MODEL).unwrap();
    service.checkpoint(MODEL).unwrap();
    assert!(service.checkpoint_epoch(MODEL).unwrap().unwrap() > 1);
    drop(service);
    std::fs::remove_dir_all(&base).ok();
}

/// `save_model` always refuses to drop a non-empty replay buffer, even
/// under the default `PersistBuffer` policy — the portable artifact has
/// no section to carry it, so silently discarding it would lose labels.
#[test]
fn save_model_never_discards_a_replay_buffer() {
    let fx = fixture();
    let mut service = loaded_service(&fx, 1, true);
    for op in &fx.ops[..2] {
        apply_op(&mut service, op).unwrap();
    }
    let path = std::env::temp_dir()
        .join(format!("splash-durable-save-{}.bin", std::process::id()));
    let err = service.save_model(MODEL, &path).unwrap_err();
    assert!(matches!(err, SplashError::CheckpointUnflushed { buffered: 24 }), "{err:?}");
    // Draining the buffer makes the same save legal.
    service.fine_tune(MODEL).unwrap();
    service.save_model(MODEL, &path).unwrap();
    std::fs::remove_file(&path).ok();
}

/// Recovery refuses configuration drift with typed errors instead of
/// serving subtly-wrong state: a checkpoint written with continual
/// learning cannot restore into a service without it (and vice versa),
/// and attaching twice is an error.
#[test]
fn recovery_rejects_mismatched_deployments() {
    let fx = fixture();
    let base = std::env::temp_dir()
        .join(format!("splash-durable-mismatch-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();

    let mut service = loaded_service(&fx, 1, true);
    service.make_durable(MODEL, DurabilityConfig::new(&base)).unwrap();
    let err = service
        .make_durable(MODEL, DurabilityConfig::new(&base))
        .unwrap_err();
    assert!(matches!(err, SplashError::InvalidConfig { .. }), "{err:?}");
    drop(service);

    // Online checkpoint → offline service: typed refusal.
    let mut offline = loaded_service(&fx, 1, false);
    let err = offline
        .make_durable(MODEL, DurabilityConfig::new(&base))
        .unwrap_err();
    assert!(matches!(err, SplashError::InvalidConfig { .. }), "{err:?}");
    std::fs::remove_dir_all(&base).ok();

    // Offline checkpoint → online service: typed refusal.
    let mut offline = loaded_service(&fx, 1, false);
    offline.make_durable(MODEL, DurabilityConfig::new(&base)).unwrap();
    drop(offline);
    let mut online = loaded_service(&fx, 1, true);
    let err = online
        .make_durable(MODEL, DurabilityConfig::new(&base))
        .unwrap_err();
    assert!(matches!(err, SplashError::InvalidConfig { .. }), "{err:?}");
    std::fs::remove_dir_all(&base).ok();
}

/// A restart needs no dataset and no prior model: a freshly *built*
/// service (nothing trained, nothing loaded) recovers the deployment from
/// the directory alone and serves bit-identically.
#[test]
fn recovery_installs_into_a_fresh_service() {
    let fx = fixture();
    let base = std::env::temp_dir()
        .join(format!("splash-durable-fresh-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();

    let mut service = loaded_service(&fx, 1, true);
    service.make_durable(MODEL, DurabilityConfig::new(&base)).unwrap();
    for op in &fx.ops {
        apply_op(&mut service, op).unwrap();
    }
    let want = probe(&mut service, fx.probe_time);
    let want_counters = persisted_counters(&service);
    drop(service);

    let mut restarted = build_service(&fx.cfg, 1, true); // no model at all
    let report = restarted
        .make_durable(MODEL, DurabilityConfig::new(&base))
        .unwrap()
        .expect("committed directory");
    assert_eq!(report.wal_records_replayed, fx.ops.len() as u64);
    assert_eq!(persisted_counters(&restarted), want_counters);
    assert_eq!(probe(&mut restarted, fx.probe_time), want);

    // An empty directory, by contrast, cannot conjure a model.
    let empty = base.join("nothing-here");
    let mut bare = build_service(&fx.cfg, 1, true);
    let err = bare.make_durable(MODEL, DurabilityConfig::new(&empty)).unwrap_err();
    assert!(matches!(err, SplashError::UnknownModel { .. }), "{err:?}");
    std::fs::remove_dir_all(&base).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Snapshot → restore at a random cut of the script, at a random
    /// checkpoint cadence, equals the never-snapshotted run bit-for-bit —
    /// at shard counts 1 and 3.
    #[test]
    fn snapshot_restore_equals_never_snapshotted(
        cut in 1usize..7,
        every in 1u64..5,
        sharded in any::<bool>(),
    ) {
        let shards = if sharded { 3 } else { 1 };
        let fx = fixture();

        let mut plain = loaded_service(&fx, shards, true);
        for op in &fx.ops {
            apply_op(&mut plain, op).unwrap();
        }
        let want = probe(&mut plain, fx.probe_time);
        let want_counters = persisted_counters(&plain);
        drop(plain);

        let base = std::env::temp_dir().join(format!(
            "splash-durable-prop-{shards}-{cut}-{every}-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&base).ok();
        let mut service = loaded_service(&fx, shards, true);
        service
            .make_durable(MODEL, DurabilityConfig::new(&base).checkpoint_every(every))
            .unwrap();
        for op in &fx.ops[..cut] {
            apply_op(&mut service, op).unwrap();
        }
        drop(service); // clean snapshot+WAL state on disk, process gone

        let mut restarted = loaded_service(&fx, shards, true);
        restarted
            .make_durable(MODEL, DurabilityConfig::new(&base).checkpoint_every(every))
            .unwrap()
            .expect("committed directory");
        for op in &fx.ops[cut..] {
            apply_op(&mut restarted, op).unwrap();
        }
        prop_assert_eq!(persisted_counters(&restarted), want_counters);
        let logits = probe(&mut restarted, fx.probe_time);
        prop_assert_eq!(logits, want);
        std::fs::remove_dir_all(&base).ok();
    }
}
