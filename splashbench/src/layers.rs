//! Layer timers shared by the workloads: `stream`, `slim`, `pipeline` and
//! `persist`, each timed from outside around public calls.

use std::path::Path;
use std::time::Instant;

use ctdg::{NodeId, PropertyQuery, TemporalEdge};
use nn::{Matrix, Workspace};
use splash::{CapturedNeighbor, CapturedQuery, SlimBatch, StreamingPredictor};

use crate::metrics::Values;
use crate::stats::{median, ns_since};
use crate::traffic::{queries_into, Ctx, Res, SetupCosts, Traffic};

/// Queries per captured round in the stream timer.
const CAPTURE_QUERIES: usize = 16;
/// Rows of the large slim batch.
const BIG_BATCH: usize = 256;
/// Rows of the small slim batch (one wire predict request).
const SMALL_BATCH: usize = 16;

/// Times `stream` ingest and capture on `engine` (a clone or twin of the
/// serving engine): `rounds` batches of `edges` live edges from edge
/// `start`, each followed by 16 labeled captures at the batch's clock.
/// Returns `BIG_BATCH` queries captured at the final clock, for the slim
/// timer.
pub fn time_stream(
    engine: &mut StreamingPredictor,
    traffic: &Traffic,
    start: u64,
    rounds: u64,
    edges: usize,
    values: &mut Values,
) -> Res<Vec<CapturedQuery>> {
    let mut batch: Vec<TemporalEdge> = Vec::new();
    let mut queries: Vec<PropertyQuery> = Vec::new();
    let mut q = CapturedQuery::default();
    let mut spare: Vec<CapturedNeighbor> = Vec::new();
    let (mut push, mut capture) = (Vec::new(), Vec::new());
    let stride = (edges / CAPTURE_QUERIES).max(1) as u64;
    let mut clock = engine.last_time();
    for r in 0..rounds {
        let g0 = start + r * edges as u64;
        traffic.edges_into(g0, edges, &mut batch);
        let t = Instant::now();
        engine.try_push_edges(&batch).ctx("stream push")?;
        push.push(ns_since(t) / edges as f64);
        clock = traffic.time(g0 + edges as u64 - 1);
        queries_into(traffic, g0, stride, CAPTURE_QUERIES, clock, &mut queries);
        let t = Instant::now();
        for pq in &queries {
            engine
                .capture_labeled_into(pq.node, pq.time, &pq.label, &mut q, &mut spare)
                .ctx("stream capture")?;
        }
        capture.push(ns_since(t) / CAPTURE_QUERIES as f64);
    }
    values.set("stream.push_us_per_edge", median(&push) / 1e3);
    values.set("stream.capture_us_per_query", median(&capture) / 1e3);

    let g0 = start + rounds * edges as u64;
    queries_into(traffic, g0, 1, BIG_BATCH, clock, &mut queries);
    queries
        .iter()
        .map(|pq| {
            let mut q = CapturedQuery::default();
            engine
                .capture_labeled_into(pq.node, pq.time, &pq.label, &mut q, &mut spare)
                .ctx("stream capture")?;
            Ok(q)
        })
        .collect()
}

/// Times `SlimModel::infer_into` of the artifact's model on captured
/// batches of 16 and 256 rows.
pub fn time_slim(artifact: &Path, captured: &[CapturedQuery], values: &mut Values) -> Res<()> {
    let model = splash::load_model(artifact)
        .ctx("loading the artifact")?
        .model;
    let mut ws = Workspace::new();
    let mut out = Matrix::default();
    for (rows, reps, name) in [
        (SMALL_BATCH, 512, "slim.forward_us_per_row_b16"),
        (BIG_BATCH, 64, "slim.forward_us_per_row_b256"),
    ] {
        let rows = rows.min(captured.len());
        let mut batch = SlimBatch::default();
        model.build_batch_into(&captured[..rows], &mut batch);
        model.infer_into(&batch, &mut out, &mut ws);
        let mut per_row = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            model.infer_into(std::hint::black_box(&batch), &mut out, &mut ws);
            per_row.push(ns_since(t) / rows as f64);
            std::hint::black_box(&out);
        }
        values.set(name, median(&per_row) / 1e3);
    }
    Ok(())
}

/// Records the `pipeline` and `persist` timers of the run's deployments.
pub fn record_setup(costs: &SetupCosts, values: &mut Values) {
    values.set("pipeline.train_s", median(&costs.train_s));
    values.set("persist.save_ms", median(&costs.save_ms));
    values.set("persist.load_ms", median(&costs.load_ms));
    values.set("persist.artifact_bytes", costs.artifact_bytes as f64);
}

/// Share of `nodes` that never appeared in the training prefix.
pub fn unseen_share(traffic: &Traffic, nodes: &[NodeId]) -> f64 {
    if nodes.is_empty() {
        return 0.0;
    }
    nodes.iter().filter(|&&n| traffic.unseen(n)).count() as f64 / nodes.len() as f64
}

/// Whether two logit slices agree bit for bit.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
