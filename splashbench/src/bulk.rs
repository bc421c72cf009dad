//! `engine_bulk`: an in-process 2-shard `SplashService`, no server. Each
//! round ingests 1,024 live edges and answers 4 `predict_batch` calls of
//! 256 queries; every replay of the tail renames node ids into a fresh
//! generation, so the live node population grows past the trained graph.

use std::time::{Duration, Instant};

use ctdg::{PropertyQuery, TemporalEdge};
use nn::Matrix;
use splash::{IngestRequest, SplashService, StreamingPredictor};

use crate::layers::{record_setup, same_bits, time_slim, time_stream, unseen_share};
use crate::stats::{median, ns_since, Phase};
use crate::traffic::{
    deploy, queries_into, Ctx, Res, SetupCosts, Sizes, Traffic, WorkDir, MODEL, PAUSES,
};
use crate::{alloc, procfs, Opts, Outcome};

const SHARDS: usize = 2;
const EDGES: usize = 1024;
const BATCH: usize = 256;
const BATCHES: usize = EDGES / BATCH;
/// Fresh id generations before the node population stops growing:
/// `(GENERATIONS + 1) ×` the trained node count live at the plateau.
const GENERATIONS: u32 = 28;
/// Every `CHECK_EVERY`-th of the first `fixed_rounds` rounds is compared
/// against a single engine fed the same stream.
const CHECK_EVERY: u64 = 16;
/// Rounds per throughput window (~15 ms on a 2-vCPU host).
const WINDOW: u64 = 1;

/// One restart: a fresh 2-shard service loads the artifact and answers
/// its first batch (queries at the artifact's clock); returns the time
/// that took, ms.
fn restart(sizes: &Sizes, artifact: &std::path::Path, traffic: &Traffic) -> Res<f64> {
    let mut queries = Vec::new();
    queries_into(traffic, 0, 1, BATCH, traffic.time(0), &mut queries);
    let mut out = Matrix::default();
    let t = Instant::now();
    let mut service = SplashService::builder(sizes.cfg)
        .shards(SHARDS)
        .build()
        .ctx("restart build")?;
    service
        .load_model(MODEL, artifact, &traffic.dataset)
        .ctx("restart load")?;
    service
        .predict_batch_into(MODEL, &queries, &mut out)
        .ctx("restart predict")?;
    Ok(ns_since(t) / 1e6)
}

/// Runs `engine_bulk`.
pub fn run(opts: &Opts) -> Res<Outcome> {
    let sizes = opts.sizes;
    let work = WorkDir::create("engine_bulk")?;
    let mut costs = SetupCosts::default();
    let mut live = None;
    let mut out_m = Matrix::default();
    let mut queries: Vec<PropertyQuery> = Vec::new();
    for rep in 0..sizes.setup_reps {
        drop(live.take());
        let artifact = work.join(&format!("model{rep}.bin"));
        let serving = SplashService::builder(sizes.cfg).shards(SHARDS);
        let mut dep = deploy(
            opts.seed,
            &sizes,
            GENERATIONS,
            &artifact,
            serving,
            &mut costs,
        )?;
        let clock0 = dep
            .service
            .model_last_time(MODEL)
            .ctx("reading the clock")?;
        queries_into(&dep.traffic, 0, 1, BATCH, clock0, &mut queries);
        dep.service
            .predict_batch_into(MODEL, &queries, &mut out_m)
            .ctx("warm-up predict")?;
        costs.total_s.push(ns_since(dep.started) / 1e9);
        live = Some((dep, artifact));
    }
    let (dep, artifact) = live.ok_or("no deployment")?;
    let (traffic, mut service) = (dep.traffic, dep.service);
    let mut out = Outcome::default();
    let tally = &mut out.tally;
    let values = &mut out.values;
    values.set("setup_s", costs.setup_s());
    record_setup(&costs, values);
    // Set-up ran on every CPU; the measured part runs on one.
    procfs::pin_to_one_cpu();

    let halves: &[bool] = if opts.traced {
        &[false, true]
    } else {
        &[false]
    };
    let length = Duration::from_secs_f64(opts.seconds / halves.len() as f64);
    let check_rounds = sizes.fixed_rounds;
    let mut sampled: Vec<(u64, Matrix)> = Vec::new();
    let mut phases = Vec::new();
    let mut edges: Vec<TemporalEdge> = Vec::new();
    // The statistics start once the node population has stopped growing.
    let plateau = traffic.growth_edges().div_ceil(EDGES as u64);
    let mut r = 0u64;
    let (mut restarts, mut paused) = (Vec::new(), 0);
    for &traced in halves {
        let mut phase = Phase::new(length, WINDOW);
        while !phase.done() {
            if r == plateau {
                phase.discard();
            }
            if !traced && phase.pause_due(paused, PAUSES) {
                phase.interrupt(|| -> Res<()> {
                    for _ in 0..sizes.restarts {
                        restarts.push(restart(&sizes, &artifact, &traffic)?);
                        tally.note(true);
                    }
                    Ok(())
                })?;
                paused += 1;
            }
            let g0 = r * EDGES as u64;
            traffic.edges_into(g0, EDGES, &mut edges);
            let clock = traffic.time(g0 + EDGES as u64 - 1);
            let t = Instant::now();
            let ok = service.ingest(MODEL, IngestRequest::new(&edges)).is_ok();
            let ingest = ns_since(t);
            tally.note(ok);
            queries_into(&traffic, g0, 1, EDGES, clock, &mut queries);
            let mut predict_total = 0.0;
            for b in 0..BATCHES {
                let t = Instant::now();
                let batch = &queries[b * BATCH..(b + 1) * BATCH];
                let ok = service.predict_batch_into(MODEL, batch, &mut out_m).is_ok();
                let predict = ns_since(t);
                tally.note(ok);
                phase.predict_ns.push(predict);
                predict_total += predict;
                if b == 0 && r < check_rounds && r.is_multiple_of(CHECK_EVERY) {
                    sampled.push((r, out_m.clone()));
                }
            }
            phase.ingest_ns.push(ingest);
            phase.end_round(EDGES as u64, ingest + predict_total);
            r += 1;
        }
        phases.push(phase);
    }
    values.set("rss_mb", procfs::peak_rss_mb());
    crate::record_phases(&phases, false, values);

    if opts.traced {
        let traced = &phases[1];
        values.set("service.ingest_us", median(&traced.ingest_ns) / 1e3);
        values.set(
            "service.predict_us_per_query",
            median(&traced.predict_ns) / BATCH as f64 / 1e3,
        );
        values.set("service.round_us", median(&traced.round_ns) / 1e3);
        let stats = service.shard_stats(MODEL).ctx("shard stats")?;
        let owned: Vec<f64> = stats.iter().map(|s| s.owned_edges as f64).collect();
        let mean = owned.iter().sum::<f64>() / owned.len().max(1) as f64;
        values.set(
            "shard.owned_skew",
            owned.iter().cloned().fold(0.0, f64::max) / mean,
        );

        // The shard layer on a clone of the live engine.
        let mut clone = service
            .sharded_model(MODEL)
            .ctx("the sharded engine")?
            .clone();
        let (mut push, mut gather) = (Vec::new(), Vec::new());
        for k in 0..sizes.fixed_rounds / 8 {
            let g0 = (r + k) * EDGES as u64;
            traffic.edges_into(g0, EDGES, &mut edges);
            let t = Instant::now();
            clone.try_push_edges(&edges).ctx("shard push")?;
            push.push(ns_since(t) / EDGES as f64);
            let clock = traffic.time(g0 + EDGES as u64 - 1);
            queries_into(&traffic, g0, 1, BATCH, clock, &mut queries);
            let t = Instant::now();
            clone
                .try_predict_batch_into(&queries, &mut out_m)
                .ctx("shard predict")?;
            gather.push(ns_since(t) / BATCH as f64);
        }
        values.set("shard.push_us_per_edge", median(&push) / 1e3);
        values.set("shard.predict_batch_us_per_query", median(&gather) / 1e3);
        drop(clone);
    }
    drop(service);

    if opts.traced {
        // Exact allocator counts on a fresh deployment fed the first
        // fixed rounds.
        let mut service = SplashService::builder(sizes.cfg)
            .shards(SHARDS)
            .build()
            .ctx("building")?;
        service
            .load_model(MODEL, &artifact, &traffic.dataset)
            .ctx("loading")?;
        let rounds = sizes.fixed_rounds / 8;
        let (res, allocs) = alloc::count(|| -> Res<()> {
            for k in 0..rounds {
                let g0 = k * EDGES as u64;
                traffic.edges_into(g0, EDGES, &mut edges);
                let clock = traffic.time(g0 + EDGES as u64 - 1);
                tally.note(service.ingest(MODEL, IngestRequest::new(&edges)).is_ok());
                queries_into(&traffic, g0, 1, EDGES, clock, &mut queries);
                for b in 0..BATCHES {
                    let batch = &queries[b * BATCH..(b + 1) * BATCH];
                    tally.note(service.predict_batch_into(MODEL, batch, &mut out_m).is_ok());
                }
            }
            Ok(())
        });
        res?;
        values.set(
            "service.alloc_calls_per_round",
            allocs as f64 / rounds.max(1) as f64,
        );
    }

    // A single engine fed the same stream must answer the sampled batches
    // bit for bit; it is also the stream layer's engine.
    let saved = splash::load_model(&artifact).ctx("loading the artifact")?;
    let mut single =
        StreamingPredictor::try_from_saved(saved, &traffic.dataset).ctx("building the twin")?;
    let replay_rounds = r.min(check_rounds);
    let mut sampled = sampled.iter().peekable();
    let (mut compared, mut mismatched) = (0usize, 0usize);
    let mut nodes = Vec::new();
    let mut single_out = Matrix::default();
    for rr in 0..replay_rounds {
        let g0 = rr * EDGES as u64;
        traffic.edges_into(g0, EDGES, &mut edges);
        single.try_push_edges(&edges).ctx("twin push")?;
        queries_into(
            &traffic,
            g0,
            1,
            BATCH,
            traffic.time(g0 + EDGES as u64 - 1),
            &mut queries,
        );
        nodes.extend(queries.iter().map(|q| q.node));
        if let Some((_, sharded)) = sampled.next_if(|(sr, _)| *sr == rr) {
            single
                .try_predict_batch_into(&queries, &mut single_out)
                .ctx("twin predict")?;
            compared += 1;
            if !same_bits(sharded.data(), single_out.data()) {
                mismatched += 1;
            }
        }
    }
    out.checks.push((
        format!(
            "{SHARDS}-shard logits bit-identical to a single engine \
             ({compared} sampled batches of {BATCH}, {mismatched} differ)"
        ),
        compared > 0 && mismatched == 0,
    ));
    if opts.traced {
        values.set("stream.unseen_node_share", unseen_share(&traffic, &nodes));
        let start = replay_rounds * EDGES as u64;
        let captured = time_stream(
            &mut single,
            &traffic,
            start,
            sizes.fixed_rounds / 8,
            EDGES,
            values,
        )?;
        time_slim(&artifact, &captured, values)?;
    }
    drop(single);

    for _ in 0..sizes.restarts {
        restarts.push(restart(&sizes, &artifact, &traffic)?);
        tally.note(true);
    }
    values.set("recovery_ms", crate::stats::clean_latency(&restarts));
    Ok(out)
}
