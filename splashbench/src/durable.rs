//! `durable_online`: an in-process `SplashService` with a durable
//! checkpoint + WAL directory and an online trainer that fine-tunes every
//! `TUNE_EVERY` labels. Each round ingests 64 edges, sends 16 labels from
//! the dataset's own queries, then predicts 16 queries. After the timed
//! phase the service is dropped and recovered from its directory.

use std::path::Path;
use std::time::{Duration, Instant};

use ctdg::{PropertyQuery, TemporalEdge};
use nn::Matrix;
use splash::{
    DurabilityConfig, FaultPlan, FineTunePolicy, IngestRequest, OnlineConfig, SplashService,
    SplashServiceBuilder,
};

use crate::layers::{record_setup, same_bits, time_slim, time_stream, unseen_share};
use crate::metrics::Values;
use crate::stats::{median, ns_since, Phase, Tally};
use crate::traffic::{deploy, queries_into, Ctx, Res, SetupCosts, Traffic, WorkDir, MODEL, PAUSES};
use crate::{procfs, Opts, Outcome};

const EDGES: usize = 64;
const QUERIES: usize = 16;
const STRIDE: u64 = (EDGES / QUERIES) as u64;
/// Labels per automatic tune round.
const TUNE_EVERY: usize = 2048;
/// WAL records (one per request) per automatic checkpoint: one checkpoint
/// per tune period (a round appends two records and absorbs 16 labels).
const CHECKPOINT_EVERY: u64 = 2 * (TUNE_EVERY / QUERIES) as u64;
/// Rounds per statistics window: exactly one tune and one checkpoint
/// period, so every window carries the same background work.
const WINDOW: u64 = (TUNE_EVERY / QUERIES) as u64;
/// Rounds in the WAL tail a recovery replays: the second half of a tune
/// period, so the tail holds fewer records than a checkpoint period and
/// its last label record replays exactly one tune.
const TAIL_ROUNDS: u64 = WINDOW / 2;

fn online() -> OnlineConfig {
    OnlineConfig {
        policy: FineTunePolicy::EveryLabels(TUNE_EVERY),
        ..OnlineConfig::default()
    }
}

fn serving(opts: &Opts) -> SplashServiceBuilder {
    SplashService::builder(opts.sizes.cfg).online(online())
}

fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig::new(dir).checkpoint_every(CHECKPOINT_EVERY)
}

/// Per-round request buffers.
#[derive(Default)]
struct Round {
    edges: Vec<TemporalEdge>,
    labels: Vec<PropertyQuery>,
    queries: Vec<PropertyQuery>,
    out: Matrix,
}

/// Latencies of one round's three requests, ns, and the tunes the label
/// request triggered.
struct RoundTimes {
    ingest: f64,
    labels: f64,
    predict: f64,
    tunes: usize,
    steps: usize,
}

impl Round {
    /// Sends round `r` to `service`; failed requests count in `tally`.
    fn send(
        &mut self,
        service: &mut SplashService,
        traffic: &Traffic,
        r: u64,
        tally: &mut Tally,
    ) -> RoundTimes {
        let g0 = r * EDGES as u64;
        traffic.edges_into(g0, EDGES, &mut self.edges);
        let clock = traffic.time(g0 + EDGES as u64 - 1);
        queries_into(
            traffic,
            g0 + STRIDE / 2,
            STRIDE,
            QUERIES,
            clock,
            &mut self.labels,
        );
        queries_into(traffic, g0, STRIDE, QUERIES, clock, &mut self.queries);

        let t = Instant::now();
        tally.note(
            service
                .ingest(MODEL, IngestRequest::new(&self.edges))
                .is_ok(),
        );
        let ingest = ns_since(t);
        let t = Instant::now();
        let report = service.observe_labels(MODEL, &self.labels);
        let labels = ns_since(t);
        tally.note(report.is_ok());
        let report = report.unwrap_or_default();
        let t = Instant::now();
        tally.note(
            service
                .predict_batch_into(MODEL, &self.queries, &mut self.out)
                .is_ok(),
        );
        let predict = ns_since(t);
        RoundTimes {
            ingest,
            labels,
            predict,
            tunes: report.tunes,
            steps: report.steps,
        }
    }
}

/// Recovers a fresh service from `dir` and answers `probe`; returns the
/// service, the replayed record count, the logits, and the time taken.
fn recover(
    opts: &Opts,
    dir: &Path,
    probe: &[PropertyQuery],
) -> Res<(SplashService, u64, Matrix, f64)> {
    let t = Instant::now();
    let mut service = serving(opts).build().ctx("recovery build")?;
    let report = service
        .make_durable(MODEL, durability(dir))
        .ctx("recovering")?
        .ok_or("the directory held no checkpoint")?;
    let mut logits = Matrix::default();
    service
        .predict_batch_into(MODEL, probe, &mut logits)
        .ctx("recovered predict")?;
    Ok((
        service,
        report.wal_records_replayed,
        logits,
        ns_since(t) / 1e6,
    ))
}

/// What the restart cycles of a run measured and checked.
struct Recoveries {
    /// Time of each recovery, ms.
    ms: Vec<f64>,
    /// Every recovered service answered the probe like the live one.
    identical: bool,
    /// Every recovery replayed exactly the tail's records.
    replayed_ok: bool,
}

/// One restart cycle: run on to the middle of a tune period, checkpoint,
/// and finish the period, so the WAL tail is `TAIL_ROUNDS` rounds ending
/// on a tune; note the live service's answers to a probe, drop it, and
/// recover from the directory `restarts` times. Returns the last recovered
/// service, which serves on.
#[allow(clippy::too_many_arguments)]
fn cycle(
    opts: &Opts,
    mut service: SplashService,
    traffic: &Traffic,
    dir: &Path,
    r: &mut u64,
    round: &mut Round,
    tally: &mut Tally,
    rec: &mut Recoveries,
) -> Res<SplashService> {
    while *r % WINDOW != WINDOW - TAIL_ROUNDS {
        round.send(&mut service, traffic, *r, tally);
        *r += 1;
    }
    service.checkpoint(MODEL).ctx("explicit checkpoint")?;
    let appended0 = service.stats().wal_records_appended;
    for _ in 0..TAIL_ROUNDS {
        round.send(&mut service, traffic, *r, tally);
        *r += 1;
    }
    let since_checkpoint = service.stats().wal_records_appended - appended0;
    let clock = traffic.time(*r * EDGES as u64 - 1);
    let mut probe = Vec::new();
    queries_into(
        traffic,
        (*r - 1) * EDGES as u64,
        STRIDE,
        QUERIES,
        clock,
        &mut probe,
    );
    let mut live = Matrix::default();
    service
        .predict_batch_into(MODEL, &probe, &mut live)
        .ctx("final predict")?;
    drop(service);

    let mut last = None;
    for _ in 0..opts.sizes.restarts.max(1) {
        drop(last.take());
        let (recovered, replayed, logits, ms) = recover(opts, dir, &probe)?;
        tally.note(true);
        rec.ms.push(ms);
        rec.identical &= same_bits(logits.data(), live.data());
        rec.replayed_ok &= replayed == since_checkpoint && since_checkpoint == 2 * TAIL_ROUNDS;
        last = Some(recovered);
    }
    last.ok_or_else(|| "no recovery ran".to_string())
}

/// Runs `durable_online`.
pub fn run(opts: &Opts) -> Res<Outcome> {
    let sizes = opts.sizes;
    let work = WorkDir::create("durable_online")?;
    let mut costs = SetupCosts::default();
    let mut live = None;
    let mut round = Round::default();
    for rep in 0..sizes.setup_reps {
        drop(live.take());
        let artifact = work.join(&format!("model{rep}.bin"));
        let dir = work.join(&format!("durable{rep}"));
        let mut dep = deploy(opts.seed, &sizes, 0, &artifact, serving(opts), &mut costs)?;
        dep.service
            .make_durable(MODEL, durability(&dir))
            .ctx("make_durable")?;
        let clock0 = dep
            .service
            .model_last_time(MODEL)
            .ctx("reading the clock")?;
        queries_into(&dep.traffic, 0, STRIDE, QUERIES, clock0, &mut round.queries);
        dep.service
            .predict_batch_into(MODEL, &round.queries, &mut round.out)
            .ctx("warm-up predict")?;
        costs.total_s.push(ns_since(dep.started) / 1e9);
        live = Some((dep, artifact, dir));
    }
    let (dep, artifact, dir) = live.ok_or("no deployment")?;
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
    let mut phases = Vec::new();
    let (mut tune_ns, mut traced_wall) = (0.0, 0.0);
    let mut r = 0u64;
    let mut rec = Recoveries {
        ms: Vec::new(),
        identical: true,
        replayed_ok: true,
    };
    let mut paused = 0;
    for &traced in halves {
        let mut phase = Phase::new(length, WINDOW);
        while !phase.done() {
            if !traced && phase.pause_due(paused, PAUSES) {
                service = phase.interrupt(|| {
                    cycle(
                        opts, service, &traffic, &dir, &mut r, &mut round, tally, &mut rec,
                    )
                })?;
                paused += 1;
            }
            let times = round.send(&mut service, &traffic, r, tally);
            if traced && times.tunes > 0 {
                tune_ns += times.labels;
            }
            phase.ingest_ns.push(times.ingest);
            phase.labels_ns.push(times.labels);
            phase.predict_ns.push(times.predict);
            phase.end_round(EDGES as u64, times.ingest + times.labels + times.predict);
            r += 1;
        }
        if traced {
            traced_wall = phase.wall_s() * 1e9;
        }
        phases.push(phase);
    }
    values.set("rss_mb", procfs::peak_rss_mb());
    crate::record_phases(&phases, false, values);
    if opts.traced {
        let traced = &phases[1];
        values.set(
            "online.labels_p1_ms",
            crate::stats::clean_latency(&phases[0].labels_ns) / 1e6,
        );
        values.set("online.tune_share", tune_ns / traced_wall);
        values.set("service.ingest_us", median(&traced.ingest_ns) / 1e3);
        values.set(
            "service.predict_us_per_query",
            median(&traced.predict_ns) / QUERIES as f64 / 1e3,
        );
        values.set("service.round_us", median(&traced.round_ns) / 1e3);
    }

    drop(cycle(
        opts, service, &traffic, &dir, &mut r, &mut round, tally, &mut rec,
    )?);
    values.set("recovery_ms", crate::stats::clean_latency(&rec.ms));
    out.checks.push((
        format!(
            "recovered predictions bit-identical to the live service ({} recoveries)",
            rec.ms.len()
        ),
        rec.identical,
    ));
    out.checks.push((
        format!(
            "every recovery replayed exactly the {} WAL records appended since the last \
             checkpoint",
            2 * TAIL_ROUNDS
        ),
        rec.replayed_ok,
    ));

    if opts.traced {
        trace_layers(opts, &traffic, &artifact, &work, tally, values)?;
    }
    Ok(out)
}

/// The durable, online, service and stream layers on a fresh durable
/// deployment and a non-durable twin fed the same fixed rounds.
fn trace_layers(
    opts: &Opts,
    traffic: &Traffic,
    artifact: &Path,
    work: &WorkDir,
    tally: &mut Tally,
    values: &mut Values,
) -> Res<()> {
    let sizes = opts.sizes;
    let dir = work.join("durable-trace");
    let plan = FaultPlan::new();
    let mut durable = serving(opts).build().ctx("building the durable copy")?;
    durable
        .load_model(MODEL, artifact, &traffic.dataset)
        .ctx("loading the durable copy")?;
    durable
        .make_durable(MODEL, durability(&dir).faults(plan.clone()))
        .ctx("make_durable")?;
    let mut twin = serving(opts).build().ctx("building the twin")?;
    twin.load_model(MODEL, artifact, &traffic.dataset)
        .ctx("loading the twin")?;

    // Both fed the same rounds, request by request. The fault plan only
    // records what each durable operation wrote.
    let (mut d_round, mut t_round) = (Round::default(), Round::default());
    let (mut d_ingest, mut t_ingest, mut d_labels, mut t_labels) = (vec![], vec![], vec![], vec![]);
    let (mut tunes, mut steps, mut wal_bytes, mut edges) = (0usize, 0usize, 0u64, 0u64);
    let mut nodes = Vec::new();
    // Ends mid tune period, so the recovery tail below ends on a tune.
    let rounds = sizes.fixed_rounds * 2 + WINDOW - TAIL_ROUNDS;
    let mut pending = Vec::new();
    for r in 0..rounds {
        plan.record_trace();
        let d = d_round.send(&mut durable, traffic, r, tally);
        let trace = plan.take_trace();
        let t = t_round.send(&mut twin, traffic, r, tally);
        // The first trace entry is the ingest's WAL append.
        if let Some((label, bytes)) = trace.first() {
            if label == "wal.append" {
                wal_bytes += bytes;
                edges += EDGES as u64;
            }
        }
        d_ingest.push(d.ingest);
        t_ingest.push(t.ingest);
        if d.tunes == 0 {
            d_labels.push(d.labels);
            t_labels.push(t.labels);
        } else {
            pending.push(t.labels);
        }
        tunes += d.tunes;
        steps += d.steps;
        nodes.extend(d_round.queries.iter().map(|q| q.node));
    }
    // A tune-triggering label request's extra time over a plain one.
    let absorb_ns = median(&t_labels);
    let tune_extra: Vec<f64> = pending.iter().map(|ns| ns - absorb_ns).collect();
    let wal_ns =
        (median(&d_ingest) - median(&t_ingest) + median(&d_labels) - median(&t_labels)) / 2.0;
    values.set("durable.wal_us_per_record", wal_ns / 1e3);
    values.set(
        "durable.wal_bytes_per_edge",
        wal_bytes as f64 / edges.max(1) as f64,
    );
    values.set(
        "online.absorb_us_per_label",
        absorb_ns / QUERIES as f64 / 1e3,
    );
    values.set("online.tune_ms", median(&tune_extra) / 1e6);
    values.set("online.tunes", tunes as f64);
    values.set("online.steps", steps as f64);
    values.set("stream.unseen_node_share", unseen_share(traffic, &nodes));

    // Checkpoint cost, and the bytes of one checkpoint.
    let mut checkpoint_ms = Vec::new();
    let mut checkpoint_bytes = 0;
    for _ in 0..3 {
        plan.record_trace();
        let t = Instant::now();
        durable.checkpoint(MODEL).ctx("checkpoint")?;
        checkpoint_ms.push(ns_since(t) / 1e6);
        checkpoint_bytes = plan.take_trace().iter().map(|(_, b)| b).sum::<u64>();
    }
    values.set("durable.checkpoint_ms", median(&checkpoint_ms));
    values.set("durable.checkpoint_bytes", checkpoint_bytes as f64);

    // Recovery with a WAL tail of half a tune period that ends on a tune,
    // then from the snapshot alone.
    for r in rounds..rounds + TAIL_ROUNDS {
        d_round.send(&mut durable, traffic, r, tally);
    }
    drop(durable);
    let probe = d_round.queries.clone();
    let (mut with_tail, mut snapshot_only) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let (s, _, _, ms) = recover(opts, &dir, &probe)?;
        drop(s);
        with_tail.push(ms);
    }
    let (mut s, _, _, _) = recover(opts, &dir, &probe)?;
    s.checkpoint(MODEL)
        .ctx("checkpoint before the snapshot-only recovery")?;
    drop(s);
    for _ in 0..3 {
        let (s, replayed, _, ms) = recover(opts, &dir, &probe)?;
        if replayed != 0 {
            return Err(format!(
                "snapshot-only recovery replayed {replayed} records"
            ));
        }
        drop(s);
        snapshot_only.push(ms);
    }
    values.set("durable.snapshot_load_ms", median(&snapshot_only));
    values.set(
        "durable.wal_replay_ms",
        median(&with_tail) - median(&snapshot_only),
    );

    // The service allocation count, the stream layer on a clone of the
    // twin's engine, and the slim forward.
    let ((), allocs) = crate::alloc::count(|| {
        for k in 0..sizes.fixed_rounds / 4 {
            t_round.send(&mut twin, traffic, rounds + k, tally);
        }
    });
    values.set(
        "service.alloc_calls_per_round",
        allocs as f64 / (sizes.fixed_rounds / 4).max(1) as f64,
    );
    let mut engine = twin.model(MODEL).ctx("the twin engine")?.clone();
    let start = (rounds + sizes.fixed_rounds / 4) * EDGES as u64;
    let captured = time_stream(
        &mut engine,
        traffic,
        start,
        sizes.fixed_rounds / 4,
        EDGES,
        values,
    )?;
    time_slim(artifact, &captured, values)
}
