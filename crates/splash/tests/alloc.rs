//! Allocation-regression tests: the steady-state streaming hot paths must
//! stay off the global allocator.
//!
//! This integration test binary installs a counting wrapper around the
//! system allocator (each test binary is its own process, so the wrapper
//! does not affect the rest of the suite), warms the predictor's reusable
//! buffers up, and then pins the exact number of allocator calls the hot
//! loops may make: zero for `predict_into`, one (the returned vector) for
//! `predict`.
//!
//! The counter is process-global on purpose: allocations made by worker
//! threads that the code under test spawns must be counted too. The test
//! harness runs tests on parallel threads, though, so every test holds
//! [`serial`] for its whole body — no other test can allocate inside a
//! counted window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use ctdg::{Label, PropertyQuery, TemporalEdge};
use splash::{
    seen_end_time, DurabilityConfig, FeatureProcess, FineTunePolicy, IngestRequest, OnlineConfig,
    PredictRequest, PredictResponse, SplashConfig, SplashService, StreamingPredictor, SEEN_FRAC,
};

/// Counts every `alloc`/`realloc` that reaches the system allocator.
///
/// A global allocator must live in the binary that uses it, so this
/// wrapper is local to this test binary; splashbench, a separate package,
/// keeps its own copy.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes the tests of this binary (see the module docs).
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes the [`SERIAL`] lock; a test that panicked while holding it only
/// poisons it, and the next test still runs.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` and returns how many allocator calls it made.
fn count_allocs(mut f: impl FnMut()) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    f();
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

fn trained_predictor() -> (StreamingPredictor, Vec<TemporalEdge>) {
    let dataset = splash::truncate_to_available(&datasets::synthetic_shift(40, 6), 0.5);
    let mut cfg = SplashConfig::tiny();
    cfg.epochs = 2;
    let predictor =
        StreamingPredictor::train_with_process(&dataset, &cfg, FeatureProcess::Random);
    let t_seen = seen_end_time(&dataset, SEEN_FRAC);
    let prefix = dataset.stream.prefix_len_at(t_seen);
    let tail = dataset.stream.edges()[prefix..].to_vec();
    (predictor, tail)
}

/// After warm-up, `predict_into` performs zero heap allocations per query,
/// and `predict` performs at most one (the returned logits vector).
#[test]
fn steady_state_predict_is_allocation_free() {
    let _serial = serial();
    let (mut predictor, tail) = trained_predictor();
    assert!(tail.len() > 20, "fixture too small");
    predictor.try_push_edges(&tail).unwrap();
    let t0 = predictor.last_time();

    // Query a spread of nodes, including one far outside the ring table
    // (no ring at all → zero neighbors): alternating between full and
    // empty neighbor lists exercises the slot-parking path in query
    // assembly. Warm every buffer: the workspace, the packed batch, the
    // assembled query, and the output vector.
    let mut nodes: Vec<u32> = (0..32u32).map(|i| i * 3 % 40).collect();
    nodes.insert(7, 9_999); // never seen: rings.get(..) is None
    nodes.insert(21, 9_999);
    let mut out = Vec::new();
    for (i, &v) in nodes.iter().enumerate() {
        predictor.try_predict_into(v, t0 + i as f64, &mut out).unwrap();
    }

    // Steady state: repeat the same query mix; not a single allocator call
    // may happen.
    let mut sink = 0.0f32;
    let allocs = count_allocs(|| {
        for (i, &v) in nodes.iter().enumerate() {
            predictor
                .try_predict_into(v, t0 + (nodes.len() + i) as f64, &mut out)
                .unwrap();
            sink += out[0];
        }
    });
    assert!(sink.is_finite());
    assert_eq!(
        allocs, 0,
        "steady-state predict_into must not allocate ({allocs} calls over {} queries)",
        nodes.len()
    );

    // The convenience form may allocate exactly its returned Vec.
    let warm = predictor.try_predict(nodes[0], t0 + 1000.0).unwrap();
    assert!(!warm.is_empty());
    let allocs = count_allocs(|| {
        let logits = predictor.try_predict(nodes[0], t0 + 1001.0).unwrap();
        sink += logits[0];
    });
    assert!(
        allocs <= 1,
        "predict should allocate at most the returned vector, saw {allocs}"
    );
}

/// The `SplashService` façade must not reintroduce per-query heap
/// traffic: a steady-state `PredictRequest` through
/// `SplashService::predict_into` (registry lookup, policy checks, typed
/// response, serving counters and all) performs **zero** allocator calls,
/// exactly like the bare predictor.
#[test]
fn steady_state_service_predict_is_allocation_free() {
    let _serial = serial();
    let dataset = splash::truncate_to_available(&datasets::synthetic_shift(40, 6), 0.5);
    let mut cfg = SplashConfig::tiny();
    cfg.epochs = 2;
    let mut service = SplashService::builder(cfg).build().unwrap();
    service
        .train_model_with_process("live", &dataset, FeatureProcess::Random)
        .unwrap();
    let t_seen = seen_end_time(&dataset, SEEN_FRAC);
    let prefix = dataset.stream.prefix_len_at(t_seen);
    let tail = &dataset.stream.edges()[prefix..];
    let report = service.ingest("live", IngestRequest::new(tail)).unwrap();
    let t0 = report.last_time;

    // Same query mix as the bare-predictor test: a spread of nodes
    // including never-seen ones, warming every reusable buffer.
    let mut nodes: Vec<u32> = (0..32u32).map(|i| i * 3 % 40).collect();
    nodes.insert(7, 9_999);
    nodes.insert(21, 9_999);
    let mut resp = PredictResponse::default();
    for (i, &v) in nodes.iter().enumerate() {
        service
            .predict_into("live", PredictRequest::new(v, t0 + i as f64), &mut resp)
            .unwrap();
    }

    let mut sink = 0.0f32;
    let tel = service.telemetry();
    let served_before = tel.queries_served.get();
    let allocs = count_allocs(|| {
        for (i, &v) in nodes.iter().enumerate() {
            let req = PredictRequest::new(v, t0 + (nodes.len() + i) as f64);
            match service.predict_into("live", req, &mut resp) {
                Ok(()) => sink += resp.logits[0],
                Err(_) => unreachable!("valid steady-state query"),
            }
        }
    });
    assert!(sink.is_finite());
    assert_eq!(
        allocs, 0,
        "steady-state service predict_into must not allocate ({allocs} calls over {} queries)",
        nodes.len()
    );
    // The counted section went through the live telemetry registry — the
    // zero above prices the metrics counters in, not around.
    assert_eq!(tel.queries_served.get() - served_before, nodes.len() as u64);
}

/// One WAL-committed ingest on a warmed **durable** service performs zero
/// heap allocations: the record encodes into the log's reusable payload
/// scratch, the frame builds in its reusable record buffer, and the
/// telemetry counters (edges ingested, WAL records appended, commit-time
/// staging) are plain atomics.
#[test]
fn steady_state_durable_ingest_is_allocation_free() {
    let _serial = serial();
    let dataset = splash::truncate_to_available(&datasets::synthetic_shift(40, 6), 0.5);
    let mut cfg = SplashConfig::tiny();
    cfg.epochs = 2;
    let mut service = SplashService::builder(cfg).build().unwrap();
    service
        .train_model_with_process("live", &dataset, FeatureProcess::Random)
        .unwrap();
    let dir = std::env::temp_dir().join(format!("splash-alloc-wal-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // A checkpoint cadence past anything this test appends: the counted
    // section must hit the WAL append seam, never the snapshot writer.
    let durability = DurabilityConfig::new(&dir).checkpoint_every(1_000_000);
    service.make_durable("live", durability).unwrap();

    let t_seen = seen_end_time(&dataset, SEEN_FRAC);
    let prefix = dataset.stream.prefix_len_at(t_seen);
    let tail = dataset.stream.edges()[prefix..].to_vec();
    assert!(tail.len() > 40, "fixture too small");
    service.ingest("live", IngestRequest::new(&tail)).unwrap();

    // Warm-up: replay the tail (re-timed) until every touched ring is at
    // capacity and the log's scratch buffers reached their high-water
    // sizes — identical batch shape to the counted ingest below.
    let k = SplashConfig::tiny().k;
    let mut replay: Vec<TemporalEdge> = tail.clone();
    let retime = |replay: &mut Vec<TemporalEdge>, t0: f64| {
        for (i, e) in replay.iter_mut().enumerate() {
            e.time = t0 + i as f64;
        }
    };
    for _ in 0..k {
        let t0 = service.model_last_time("live").unwrap();
        retime(&mut replay, t0);
        service.ingest("live", IngestRequest::new(&replay)).unwrap();
    }

    let t0 = service.model_last_time("live").unwrap();
    retime(&mut replay, t0);
    let tel = service.telemetry();
    let (edges_before, wal_before) =
        (tel.edges_ingested.get(), tel.wal_records_appended.get());
    let allocs = count_allocs(|| {
        service.ingest("live", IngestRequest::new(&replay)).unwrap();
    });
    assert_eq!(
        allocs, 0,
        "a WAL-committed steady-state ingest must not allocate \
         ({allocs} calls over {} edges)",
        replay.len()
    );
    // The counted ingest really was WAL-committed and counted.
    assert_eq!(tel.edges_ingested.get() - edges_before, replay.len() as u64);
    assert_eq!(tel.wal_records_appended.get() - wal_before, 1);
    drop(service);
    std::fs::remove_dir_all(&dir).ok();
}

/// A 3-shard engine's serving paths must be as allocation-free as the
/// unsharded engine's: after warm-up, a single-node `try_predict_into`
/// (answered by the node's owner partition) and a batched
/// `try_predict_batch_into` with a reused output matrix perform **zero**
/// allocator calls.
///
/// The counted section is pinned to the serial path
/// (`with_serial_backend`): with threads available a batch fans out
/// thread-per-shard, and spawning threads allocates by design.
#[test]
fn steady_state_sharded_predict_is_allocation_free() {
    let _serial = serial();
    let (base, tail) = trained_predictor();
    let mut sharded = base.reshard(3).unwrap();
    assert!(tail.len() > 20, "fixture too small");
    sharded.try_push_edges(&tail).unwrap();
    let t0 = sharded.last_time();

    // The same query spread as the single-engine test (never-seen nodes
    // included), batched; warm both the owner-partition single-query path
    // and the batch path.
    let mut nodes: Vec<u32> = (0..32u32).map(|i| i * 3 % 40).collect();
    nodes.insert(7, 9_999);
    nodes.insert(21, 9_999);
    let batch = |t_base: f64| -> Vec<PropertyQuery> {
        nodes
            .iter()
            .enumerate()
            .map(|(i, &v)| PropertyQuery {
                node: v,
                time: t_base + i as f64,
                label: Label::Class(0),
            })
            .collect()
    };
    let mut out = Vec::new();
    let mut logits = nn::Matrix::default();
    nn::backend::with_serial_backend(|| {
        // Warm-up: several full single-then-batch cycles. Two pools reach
        // their steady state here: the parked-slot pool that the
        // single-query and batch paths *share* (so the alternation, not
        // each path alone, is what must stabilize), and each shard's
        // workspace pool, which grows toward its high-water buffer set
        // over the first few batched forwards rather than in one call.
        for cycle in 0..6 {
            let warm = batch(t0 + 100.0 * cycle as f64);
            for q in &warm {
                sharded.try_predict_into(q.node, q.time, &mut out).unwrap();
            }
            sharded.try_predict_batch_into(&warm, &mut logits).unwrap();
        }

        // Steady state: same mix at later times, zero allocator calls.
        let steady = batch(t0 + 1_000.0);
        let mut sink = 0.0f32;
        let allocs = count_allocs(|| {
            for q in &steady {
                sharded.try_predict_into(q.node, q.time, &mut out).unwrap();
                sink += out[0];
            }
        });
        assert!(sink.is_finite());
        assert_eq!(
            allocs, 0,
            "steady-state sharded try_predict_into must not allocate \
             ({allocs} calls over {} queries)",
            steady.len()
        );

        let steady = batch(t0 + 2_000.0);
        let allocs = count_allocs(|| {
            sharded.try_predict_batch_into(&steady, &mut logits).unwrap();
            sink += logits.row(0)[0];
        });
        assert!(sink.is_finite());
        assert_eq!(
            allocs, 0,
            "steady-state sharded try_predict_batch_into must not allocate \
             ({allocs} calls over {} queries)",
            steady.len()
        );
    });
}

/// The steady-state online continual-learning path — absorb a batch of
/// labeled observations, run a bounded fine-tune round, publish the
/// weights — performs **zero** heap allocations after warm-up: capture
/// recycles replay-buffer slots, packing/forward/backward run through the
/// trainer's workspace, the Adam step goes through the allocation-free
/// visitor, and the publish copies weights into the engine's existing
/// buffers.
///
/// The counted section is pinned to the serial backend like the sharded
/// test (threads would allocate by design under NN_THREADS>1).
#[test]
fn steady_state_fine_tune_is_allocation_free() {
    let _serial = serial();
    let dataset = splash::truncate_to_available(&datasets::synthetic_shift(40, 6), 0.5);
    let mut cfg = SplashConfig::tiny();
    cfg.epochs = 2;
    let online = OnlineConfig {
        policy: FineTunePolicy::Manual,
        buffer_capacity: 64,
        batch_size: 16,
        steps_per_tune: 4,
        lr: 1e-3,
    };
    let mut service = SplashService::builder(cfg).online(online).build().unwrap();
    service
        .train_model_with_process("live", &dataset, FeatureProcess::Random)
        .unwrap();
    let t_seen = seen_end_time(&dataset, SEEN_FRAC);
    let prefix = dataset.stream.prefix_len_at(t_seen);
    let tail = &dataset.stream.edges()[prefix..];
    let report = service.ingest("live", IngestRequest::new(tail)).unwrap();
    let t0 = report.last_time;

    // Class labels only: affinity labels carry a boxed slice whose reuse
    // is covered by `Label::clone_from`, but this dataset is categorical.
    let labels = |t_base: f64| -> Vec<PropertyQuery> {
        (0..32usize)
            .map(|i| PropertyQuery {
                node: (i as u32 * 3) % 40,
                time: t_base + i as f64 * 0.1,
                label: Label::Class(i % 2),
            })
            .collect()
    };

    nn::backend::with_serial_backend(|| {
        // Warm-up: several full absorb → tune → publish cycles (the
        // trainer's workspace pool grows toward its high-water buffer set
        // over the first few batched forwards, like every other pool).
        for cycle in 0..6 {
            let batch = labels(t0 + 100.0 * cycle as f64);
            service.observe_labels("live", &batch).unwrap();
            service.fine_tune("live").unwrap();
        }

        let steady = labels(t0 + 10_000.0);
        let mut sink = 0.0f32;
        let allocs = count_allocs(|| {
            service.observe_labels("live", &steady).unwrap();
            let r = service.fine_tune("live").unwrap();
            sink += r.mean_loss;
        });
        assert!(sink.is_finite());
        assert_eq!(
            allocs, 0,
            "steady-state observe_labels + fine_tune must not allocate \
             ({allocs} calls over {} labels)",
            steady.len()
        );
    });
}

/// Steady-state edge ingestion reuses ring slots and augmenter scratch:
/// once every touched ring is at capacity `k` and the propagated-feature
/// slots exist, pushing further edges does not allocate.
#[test]
fn steady_state_ingest_is_allocation_free() {
    let _serial = serial();
    let (mut predictor, tail) = trained_predictor();
    assert!(tail.len() > 40, "fixture too small");
    // Warm-up: fill the rings to capacity `k`, grow the ring table, and
    // create propagated-feature slots for unseen endpoints. A node seen `e`
    // times per pass needs ⌈k/e⌉ passes to saturate its ring, so replay the
    // tail k times — afterwards every touched ring slot exists.
    predictor.try_push_edges(&tail).unwrap();
    let k = SplashConfig::tiny().k;
    let mut replay: Vec<TemporalEdge> = tail.to_vec();
    for _ in 0..k {
        let t0 = predictor.last_time();
        for (i, e) in replay.iter_mut().enumerate() {
            e.time = t0 + i as f64;
        }
        predictor.try_push_edges(&replay).unwrap();
    }

    // Steady state: the same endpoints again, strictly buffer reuse.
    let t0 = predictor.last_time();
    for (i, e) in replay.iter_mut().enumerate() {
        e.time = t0 + i as f64;
    }
    let allocs = count_allocs(|| {
        predictor.try_push_edges(&replay).unwrap();
    });
    assert_eq!(
        allocs, 0,
        "steady-state push_edges must not allocate ({allocs} calls over {} edges)",
        replay.len()
    );
}
