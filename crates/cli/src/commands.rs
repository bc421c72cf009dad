//! Subcommand implementations for the `splash` binary.

use std::fmt::Write as _;
use std::path::Path;

use baselines::{run as run_baseline, run_dtdg, BaselineKind, BaselineVariant, DtdgKind};
use ctdg::{replay, Event, Label, TemporalEdge};
use datasets::{
    edges_from_csv, export_csv, queries_from_csv, Dataset, DatasetStats, Task,
};
use splash::{
    capture, load_model, predict_slim, run_matrix, run_slim_with, run_splash, save_model,
    split_bounds, DurabilityConfig, EngineSpec, FeatureProcess, FineTunePolicy, IngestRequest,
    InputFeatures, LateEdgePolicy, ModelSpec, OnlineConfig, PredictRequest, PredictResponse,
    RecoveryReport, ScenarioConfig, ScenarioSpec, ServerConfig, SplashConfig, SplashServer,
    SplashService, StreamingPredictor, SEEN_FRAC,
};

use crate::args::{ArgError, Args};

/// The user-facing usage text.
pub fn usage() -> String {
    "splash — node property prediction on edge streams (SPLASH reproduction)

USAGE:
  splash generate --dataset <name|all> --out <dir>
  splash stats    --edges <csv> --queries <csv> --task <task> [--classes N]
  splash run      --edges <csv> --queries <csv> --task <task> [--classes N]
                  [--features auto|R|P|S|RF|ZF|joint] [--epochs N] [--k N]
                  [--dv N] [--hidden N] [--seed N] [--save <model.bin>]
  splash predict  --model-file <model.bin> --edges <csv> --queries <csv>
                  --task <task> [--scores <out.csv>]
  splash serve    --model-file <model.bin> --edges <csv> --queries <csv>
                  --task <task> [--late-policy error|drop] [--shards N]
                  [--online N] [--statz-out FILE]
                  [--checkpoint-dir DIR [--checkpoint-every N]]
                  [--listen ADDR [--workers N] [--queue-depth Q] [--deadline-ms D]
                   [--slow-ms MS]]
  splash baseline --model <name> --edges <csv> --queries <csv> --task <task>
                  [--classes N] [--features plain|RF] [--epochs N] [--seed N]
  splash scenarios [--out DIR] [--smoke true] [--timing true] [--frac F]
                  [--regimes r1,r2,..] [--models m1,m2,..] [--online-every N]
                  [--epochs N] [--k N] [--dv N] [--hidden N] [--seed N]
  splash drift    --edges <csv> --queries <csv> --task <task> [--buckets N]

  <task>   anomaly | classification | affinity
  <name>   reddit | wiki | mooc | email-eu | gdelt | tgbn-trade | tgbn-genre
  <model>  jodie | dysat | tgat | tgn | graphmixer | dygformer | freedyg |
           slade | dida | slid
  <regime> drift | anomaly | classification | affinity | scalability
           (scenario models: splash, splash+online, or any baseline variant
           such as tgn or tgn+RF; on the drift regime, splash+online is
           added automatically next to the frozen splash slot)
"
    .to_string()
}

/// Parses and executes one command line; returns the rendered report.
pub fn dispatch(tokens: Vec<String>) -> Result<String, ArgError> {
    let args = Args::parse(tokens)?;
    let out = match args.command.as_deref() {
        Some("generate") => cmd_generate(&args)?,
        Some("stats") => cmd_stats(&args)?,
        Some("run") => cmd_run(&args)?,
        Some("predict") => cmd_predict(&args)?,
        Some("serve") => cmd_serve(&args)?,
        Some("baseline") => cmd_baseline(&args)?,
        Some("scenarios") => cmd_scenarios(&args)?,
        Some("drift") => cmd_drift(&args)?,
        Some("help") | None => return Ok(usage()),
        Some(other) => return Err(ArgError(format!("unknown command {other:?}\n\n{}", usage()))),
    };
    args.reject_unused()?;
    Ok(out)
}

fn parse_task(raw: &str) -> Result<Task, ArgError> {
    match raw {
        "anomaly" => Ok(Task::Anomaly),
        "classification" => Ok(Task::Classification),
        "affinity" => Ok(Task::Affinity),
        other => Err(ArgError(format!(
            "unknown task {other:?} (anomaly | classification | affinity)"
        ))),
    }
}

/// Loads a dataset from the two-file CSV interchange format. When
/// `classes` is `None`, the label cardinality is inferred from the queries.
pub fn load_dataset(
    edges_path: &Path,
    queries_path: &Path,
    task: Task,
    classes: Option<usize>,
) -> Result<Dataset, ArgError> {
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| ArgError(format!("{}: {e}", p.display())))
    };
    let stream = edges_from_csv(&read(edges_path)?)
        .map_err(|e| ArgError(format!("{}: {e}", edges_path.display())))?;
    let queries = queries_from_csv(&read(queries_path)?, task)
        .map_err(|e| ArgError(format!("{}: {e}", queries_path.display())))?;
    if queries.is_empty() {
        return Err(ArgError("the query file contains no queries".into()));
    }
    let num_classes = match classes {
        Some(c) => c,
        None => match task {
            Task::Affinity => queries[0].label.affinity().len(),
            _ => queries
                .iter()
                .map(|q| q.label.class() + 1)
                .max()
                .unwrap_or(2)
                .max(2),
        },
    };
    let dataset = Dataset {
        name: edges_path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "cli".into()),
        task,
        stream,
        queries,
        num_classes,
        node_feats: None,
    };
    // Surface label/task mismatches as CLI errors instead of panics.
    for q in &dataset.queries {
        match (task, &q.label) {
            (Task::Affinity, Label::Affinity(a)) if a.len() == num_classes => {}
            (Task::Anomaly | Task::Classification, Label::Class(c)) if *c < num_classes => {}
            _ => {
                return Err(ArgError(format!(
                    "query at t={} has a label incompatible with task/classes",
                    q.time
                )))
            }
        }
    }
    Ok(dataset)
}

fn config_from(args: &Args) -> Result<SplashConfig, ArgError> {
    let mut cfg = SplashConfig::default();
    cfg.epochs = args.get_parsed("epochs", cfg.epochs)?;
    cfg.k = args.get_parsed("k", cfg.k)?;
    cfg.feat_dim = args.get_parsed("dv", cfg.feat_dim)?;
    cfg.node2vec = embed::Node2VecConfig::fast(cfg.feat_dim);
    cfg.hidden = args.get_parsed("hidden", cfg.hidden)?;
    cfg.seed = args.get_parsed("seed", cfg.seed)?;
    // Reject impossible knob combinations here, with the service layer's
    // message, instead of panicking (or hanging) somewhere in training.
    cfg.validate().map_err(|e| ArgError(e.to_string()))?;
    Ok(cfg)
}

fn load_from(args: &Args) -> Result<(Dataset, Task), ArgError> {
    let task = parse_task(args.require("task")?)?;
    let classes = match args.get("classes") {
        None => None,
        Some(raw) => Some(
            raw.parse::<usize>()
                .map_err(|e| ArgError(format!("--classes {raw:?}: {e}")))?,
        ),
    };
    let edges = args.require("edges")?.to_string();
    let queries = args.require("queries")?.to_string();
    let d = load_dataset(Path::new(&edges), Path::new(&queries), task, classes)?;
    Ok((d, task))
}

fn metric_name(task: Task) -> &'static str {
    match task {
        Task::Anomaly => "AUC",
        Task::Classification => "weighted F1",
        Task::Affinity => "NDCG@10",
    }
}

fn cmd_generate(args: &Args) -> Result<String, ArgError> {
    let which = args.require("dataset")?.to_string();
    let out_dir = args.require("out")?.to_string();
    let all = datasets::all_benchmarks();
    let selected: Vec<Dataset> = if which == "all" {
        all
    } else {
        let found = all.into_iter().find(|d| d.name == which);
        vec![found.ok_or_else(|| ArgError(format!("unknown dataset {which:?}")))?]
    };
    let mut report = String::new();
    for d in &selected {
        export_csv(d, Path::new(&out_dir)).map_err(|e| ArgError(format!("{out_dir}: {e}")))?;
        let _ = writeln!(
            report,
            "wrote {out_dir}/{name}.edges.csv and {out_dir}/{name}.queries.csv ({} edges, {} queries)",
            d.stream.len(),
            d.queries.len(),
            name = d.name,
        );
    }
    Ok(report)
}

fn cmd_stats(args: &Args) -> Result<String, ArgError> {
    let (dataset, _) = load_from(args)?;
    let stats = DatasetStats::compute(&dataset);
    Ok(format!("{}\n{}\n", DatasetStats::table_header(), stats.table_row()))
}

fn parse_features(raw: &str) -> Result<Option<InputFeatures>, ArgError> {
    Ok(Some(match raw {
        "auto" => return Ok(None),
        "R" => InputFeatures::Process(FeatureProcess::Random),
        "P" => InputFeatures::Process(FeatureProcess::Positional),
        "S" => InputFeatures::Process(FeatureProcess::Structural),
        "RF" => InputFeatures::RawRandom,
        "ZF" => InputFeatures::Zero,
        "joint" => InputFeatures::Joint,
        other => {
            return Err(ArgError(format!(
                "unknown feature mode {other:?} (auto|R|P|S|RF|ZF|joint)"
            )))
        }
    }))
}

fn cmd_run(args: &Args) -> Result<String, ArgError> {
    // Validate the config before touching the (possibly large) input
    // files: a bad knob should fail in milliseconds.
    let cfg = config_from(args)?;
    let (dataset, task) = load_from(args)?;
    let mode = parse_features(args.get("features").unwrap_or("auto"))?;
    let save_path = args.get("save").map(String::from);
    let out = match mode {
        None => run_splash(&dataset, &cfg),
        Some(m) => run_slim_with(&dataset, &cfg, m),
    };
    let mut report = String::new();
    let _ = writeln!(report, "dataset        : {} ({} queries)", dataset.name, dataset.queries.len());
    if let (Some(sel), Some(risks)) = (out.selected, out.risks) {
        let _ = writeln!(report, "selected       : process {} (risks R/P/S = {:.4}/{:.4}/{:.4})",
            sel.name(), risks[0], risks[1], risks[2]);
    }
    let _ = writeln!(report, "test {:<10}: {:.4}", metric_name(task), out.metric);
    let _ = writeln!(report, "parameters     : {}", out.num_params);
    let _ = writeln!(report, "train/infer (s): {:.2} / {:.3}", out.train_secs, out.infer_secs);

    if let Some(path) = save_path {
        // Retrain the same model deterministically (the pipeline call above
        // does not expose it). A process mode saves the streaming engine —
        // weights plus its training-prefix state — which `serve` restores;
        // an ablation mode saves weights only, for `predict`.
        let final_mode = out
            .selected
            .map(InputFeatures::Process)
            .or(mode)
            .expect("run always resolves a feature mode");
        let saved = match final_mode {
            InputFeatures::Process(process) => {
                StreamingPredictor::train_with_process(&dataset, &cfg, process)
                    .save(Path::new(&path))
            }
            _ => {
                let cap = capture(&dataset, final_mode, &cfg, SEEN_FRAC);
                let (train_end, _) = split_bounds(cap.queries.len());
                let (mut model, _) =
                    splash::train_slim(&cap, &dataset, &cap.queries[..train_end], &cfg);
                let out_dim = splash::task::output_dim(dataset.task, dataset.num_classes);
                save_model(
                    Path::new(&path),
                    &mut model,
                    &cfg,
                    final_mode,
                    cap.feat_dim,
                    cap.edge_feat_dim,
                    out_dim,
                )
            }
        };
        saved.map_err(|e| ArgError(format!("{path}: {e}")))?;
        let _ = writeln!(report, "saved model    : {path} (mode {})", final_mode.name());
    }
    Ok(report)
}

fn cmd_predict(args: &Args) -> Result<String, ArgError> {
    let model_path = args.require("model-file")?.to_string();
    let saved = load_model(Path::new(&model_path))
        .map_err(|e| ArgError(format!("{model_path}: {e}")))?;
    let task = parse_task(args.require("task")?)?;
    let edges = args.require("edges")?.to_string();
    let queries = args.require("queries")?.to_string();
    let dataset = load_dataset(
        Path::new(&edges),
        Path::new(&queries),
        task,
        Some(saved.out_dim),
    )?;

    let cap = capture(&dataset, saved.mode, &saved.cfg, SEEN_FRAC);
    if cap.feat_dim != saved.feat_dim || cap.edge_feat_dim != saved.edge_feat_dim {
        return Err(ArgError(format!(
            "input dimensions ({} node / {} edge) do not match the saved model ({} / {})",
            cap.feat_dim, cap.edge_feat_dim, saved.feat_dim, saved.edge_feat_dim
        )));
    }
    let (_, val_end) = split_bounds(cap.queries.len());
    let test = &cap.queries[val_end..];
    let logits = predict_slim(&saved.model, test, 256);
    let labels: Vec<&Label> = test.iter().map(|q| &q.label).collect();
    let metric = splash::task::evaluate(dataset.task, &logits, &labels);

    if let Some(scores_path) = args.get("scores") {
        let mut csv = String::from("node,time");
        for c in 0..logits.cols() {
            let _ = write!(csv, ",s{c}");
        }
        csv.push('\n');
        for (i, q) in test.iter().enumerate() {
            let _ = write!(csv, "{},{}", q.node, q.time);
            for &v in logits.row(i) {
                let _ = write!(csv, ",{v}");
            }
            csv.push('\n');
        }
        std::fs::write(scores_path, csv).map_err(|e| ArgError(format!("{scores_path}: {e}")))?;
    }

    Ok(format!(
        "model          : {model_path} (mode {})\nqueries scored : {} (test split of {})\ntest {:<10}: {metric:.4}\n",
        saved.mode.name(),
        test.len(),
        cap.queries.len(),
        metric_name(task),
    ))
}

fn parse_late_policy(raw: &str) -> Result<LateEdgePolicy, ArgError> {
    match raw {
        "error" => Ok(LateEdgePolicy::Error),
        "drop" => Ok(LateEdgePolicy::DropLate),
        other => Err(ArgError(format!("unknown late policy {other:?} (error | drop)"))),
    }
}

/// Everything `serve` needs before going live, for either mode (in-process
/// replay or `--listen` wire serving): the loaded service plus the inputs
/// that shaped it.
struct ServingSetup {
    service: SplashService,
    dataset: Dataset,
    model_path: String,
    policy: LateEdgePolicy,
    online: Option<usize>,
    task: Task,
    recovered: Option<RecoveryReport>,
}

fn serving_setup(args: &Args) -> Result<ServingSetup, ArgError> {
    let model_path = args.require("model-file")?.to_string();
    let policy = parse_late_policy(args.get("late-policy").unwrap_or("error"))?;
    let shards: usize = args.get_parsed("shards", 1)?;
    let online: Option<usize> = match args.get("online") {
        None => None,
        Some(raw) => {
            let n: usize = raw
                .parse()
                .map_err(|e| ArgError(format!("--online {raw:?}: {e}")))?;
            if n == 0 {
                return Err(ArgError("--online expects a positive label cadence".into()));
            }
            Some(n)
        }
    };
    let task = parse_task(args.require("task")?)?;
    let edges = args.require("edges")?.to_string();
    let queries = args.require("queries")?.to_string();

    // Decode the artifact first, once: its output width bounds the legal
    // labels (load_dataset checks them) and its edge-feature width must
    // match the stream, so incompatible inputs fail here as rendered
    // errors instead of shape panics mid-serve. The same decoded model is
    // installed below.
    let saved = load_model(Path::new(&model_path))
        .map_err(|e| ArgError(format!("{model_path}: {e}")))?;
    let dataset = load_dataset(
        Path::new(&edges),
        Path::new(&queries),
        task,
        Some(saved.out_dim),
    )?;
    if dataset.stream.feat_dim() != saved.edge_feat_dim {
        return Err(ArgError(format!(
            "edge-feature width {} does not match the saved model's {}",
            dataset.stream.feat_dim(),
            saved.edge_feat_dim
        )));
    }

    // The builder config only governs in-service training; the loaded
    // model carries (and validates) its own.
    let mut builder = SplashService::builder(SplashConfig::default())
        .late_edge_policy(policy)
        .shards(shards);
    if let Some(every) = online {
        builder = builder.online(OnlineConfig {
            policy: FineTunePolicy::EveryLabels(every),
            ..OnlineConfig::default()
        });
    }
    let mut service = builder.build().map_err(|e| ArgError(e.to_string()))?;
    service
        .load_saved("serving", saved, &dataset)
        .map_err(|e| ArgError(format!("{model_path}: {e}")))?;

    // `--checkpoint-dir` makes the deployment durable. An empty directory
    // seeds its first checkpoint from the model loaded above; a directory
    // with a committed checkpoint hot-swaps the loaded model with the
    // recovered one (snapshot + WAL replay), so a restarted process picks
    // up exactly where the crashed one stopped — no stream re-replay.
    let recovered = match args.get("checkpoint-dir") {
        None => {
            if args.get("checkpoint-every").is_some() {
                return Err(ArgError(
                    "--checkpoint-every needs --checkpoint-dir".into(),
                ));
            }
            None
        }
        Some(dir) => {
            let dir = dir.to_string();
            let every: u64 = args.get_parsed("checkpoint-every", 256u64)?;
            let cfg = DurabilityConfig::new(&dir).checkpoint_every(every);
            service
                .make_durable("serving", cfg)
                .map_err(|e| ArgError(format!("--checkpoint-dir {dir}: {e}")))?
        }
    };
    Ok(ServingSetup { service, dataset, model_path, policy, online, task, recovered })
}

/// Renders a recovery summary for the operator, or nothing on a cold
/// (first-checkpoint) start.
fn recovery_line(recovered: &Option<RecoveryReport>) -> String {
    match recovered {
        None => String::new(),
        Some(r) => format!(
            "recovered      : epoch {} ({} state shard{}), {} WAL records replayed ({} edges){}\n",
            r.epoch,
            r.snapshot_shards,
            if r.snapshot_shards == 1 { "" } else { "s" },
            r.wal_records_replayed,
            r.wal_edges_replayed,
            if r.wal_tail_truncated { ", torn tail truncated" } else { "" },
        ),
    }
}

/// `serve --listen`: put the loaded model behind the wire front end
/// ([`SplashServer`]) and block until stdin closes (ctrl-d), then shut
/// down cleanly and report the serving counters. The replay mode below
/// and this mode share `serving_setup`, so a model serves identically
/// either way.
fn cmd_serve_listen(args: &Args, addr: &str) -> Result<String, ArgError> {
    // Flags first: a typo'd knob should fail in milliseconds, before the
    // (possibly large) model and stream files are read.
    let cfg = ServerConfig {
        workers: args.get_parsed("workers", ServerConfig::default().workers)?,
        queue_depth: args.get_parsed("queue-depth", ServerConfig::default().queue_depth)?,
        deadline: std::time::Duration::from_millis(args.get_parsed("deadline-ms", 2000u64)?),
        ..ServerConfig::default()
    };
    // `--slow-ms MS` turns the shutdown summary into a slow-request log:
    // every retained trace span at or over the threshold is printed.
    let slow_ms: Option<u64> = match args.get("slow-ms") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|e| ArgError(format!("--slow-ms {raw:?}: {e}")))?,
        ),
    };
    let setup = serving_setup(args)?;
    // Flag errors (zero workers/queue/deadline) surface through the
    // server's own typed validation.
    let handle = SplashServer::bind(setup.service, addr, cfg)
        .map_err(|e| ArgError(format!("--listen {addr}: {e}")))?;
    println!(
        "serving {} on http://{} ({} workers, queue depth {}, deadline {}ms)",
        setup.model_path,
        handle.addr(),
        cfg.workers,
        cfg.queue_depth,
        cfg.deadline.as_millis(),
    );
    println!(
        "model \"serving\": POST /models/serving/{{ingest,predict,labels,fine-tune,publish}}; \
         GET /stats /metrics /statz.json /trace"
    );
    print!("{}", recovery_line(&setup.recovered));
    println!("late policy {:?}; press ctrl-d (stdin EOF) to stop", setup.policy);
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    let mut sink = String::new();
    while matches!(std::io::stdin().read_line(&mut sink), Ok(n) if n > 0) {
        sink.clear();
    }

    // Shed/deadline counts live in the shared telemetry registry, so the
    // stats snapshot taken after shutdown already carries them; no
    // server-side overlay is needed.
    let tel = handle.telemetry();
    let service = handle.shutdown();
    let stats = service.stats();
    Ok(format!("{stats}{}", tel.summary(slow_ms.map(|ms| ms.saturating_mul(1_000_000)))))
}

/// Streaming deployment through the `SplashService` façade: load a
/// persisted model, replay the post-training period as a live stream
/// (edges ingested in micro-batches, queries answered immediately), and
/// report the serving counters next to the test metric. With `--shards N`
/// the model is served by N hash-partitioned engines (scatter–gather;
/// identical predictions, per-shard counters in the report). With
/// `--online N` the model keeps learning while it serves: every query's
/// ground-truth label is fed back after prediction (prequential
/// evaluation), and a bounded fine-tune round runs — and publishes —
/// every N labels. With `--listen ADDR` the model instead goes behind
/// the HTTP front end until stdin closes.
fn cmd_serve(args: &Args) -> Result<String, ArgError> {
    if let Some(addr) = args.get("listen") {
        let addr = addr.to_string();
        return cmd_serve_listen(args, &addr);
    }
    let ServingSetup { mut service, dataset, model_path, policy, online, task, recovered } =
        serving_setup(args)?;

    // Go live: everything after the model's training prefix arrives as a
    // stream. Consecutive edges between queries form one ingest batch.
    let t_live = service.model_last_time("serving").map_err(|e| ArgError(e.to_string()))?;
    let prefix = dataset.stream.prefix_len_at(t_live);
    let (_, val_end) = split_bounds(dataset.queries.len());
    let mut pending: Vec<TemporalEdge> = Vec::new();
    let mut resp = PredictResponse::default();
    let mut logits: Vec<f32> = Vec::new();
    let mut labels: Vec<&Label> = Vec::new();
    let started = std::time::Instant::now();
    for event in replay(&dataset.stream, &dataset.queries) {
        match event {
            Event::Edge(idx, edge) => {
                if idx >= prefix {
                    pending.push(edge.clone());
                }
            }
            Event::Query(qi, q) => {
                if !pending.is_empty() {
                    service
                        .ingest("serving", IngestRequest::new(&pending))
                        .map_err(|e| ArgError(format!("ingest at t={}: {e}", q.time)))?;
                    pending.clear();
                }
                // After a recovery, queries the crashed process already
                // served sit before the restored stream clock — skip them
                // (the metric then covers the resumed tail only).
                if qi >= val_end && q.time >= t_live {
                    service
                        .predict_into("serving", PredictRequest::new(q.node, q.time), &mut resp)
                        .map_err(|e| ArgError(format!("query at t={}: {e}", q.time)))?;
                    logits.extend_from_slice(&resp.logits);
                    labels.push(&q.label);
                }
                // Prequential continual learning: the ground truth is fed
                // back only after the prediction above was recorded, so
                // the metric never sees a model trained on its own answer.
                // Labels from the (already-trained-on) seen period would
                // be past-time for the restored model and are skipped.
                if online.is_some() && q.time >= t_live {
                    service
                        .observe_labels("serving", std::slice::from_ref(q))
                        .map_err(|e| ArgError(format!("label at t={}: {e}", q.time)))?;
                }
            }
        }
    }
    if !pending.is_empty() {
        service
            .ingest("serving", IngestRequest::new(&pending))
            .map_err(|e| ArgError(format!("final ingest: {e}")))?;
    }
    let elapsed = started.elapsed().as_secs_f64();

    // `--statz-out FILE` dumps the metrics registry as JSON with the
    // timing-dependent histogram fields gated off, so two replays of the
    // same inputs write byte-identical files (the CI determinism check).
    if let Some(path) = args.get("statz-out") {
        let body = service.telemetry().registry().render_statz_json(false);
        std::fs::write(path, body).map_err(|e| ArgError(format!("{path}: {e}")))?;
    }

    if labels.is_empty() {
        if recovered.is_some() {
            // A fully-caught-up restart: the checkpoint already covers the
            // whole stream, so there is nothing left to serve or score.
            let mut report = String::new();
            let _ = writeln!(report, "model          : {model_path}");
            let _ = write!(report, "{}", recovery_line(&recovered));
            let _ = writeln!(report, "stream         : fully consumed before restart");
            let _ = write!(report, "{}", service.stats());
            return Ok(report);
        }
        return Err(ArgError("the query file has no test-split queries to serve".into()));
    }
    let out_dim = logits.len() / labels.len();
    let metric = splash::task::evaluate(
        dataset.task,
        &nn::Matrix::from_vec(labels.len(), out_dim, logits),
        &labels,
    );
    let stats = service.stats();
    let mut report = String::new();
    let _ = writeln!(report, "model          : {model_path}");
    let _ = writeln!(report, "late policy    : {policy:?}");
    // One line per registry slot, mirroring `GET /models` on the wire.
    for info in service.models_info() {
        let _ = writeln!(report, "slot           : {info}");
    }
    let _ = write!(report, "{}", recovery_line(&recovered));
    if let Some(every) = online {
        let _ = writeln!(report, "online         : fine-tune every {every} labels");
    }
    // The counters render through `ServiceStats`'s `Display` — one source
    // of truth for the operator-facing format.
    let _ = write!(report, "{stats}");
    let _ = writeln!(
        report,
        "throughput     : {:.0} queries/s ({elapsed:.2}s wall)",
        stats.queries_served as f64 / elapsed.max(1e-9),
    );
    for s in service.shard_stats("serving").map_err(|e| ArgError(e.to_string()))? {
        let _ = writeln!(
            report,
            "  shard {:<2}     : {} ring nodes, {} owned edges, {} queries",
            s.shard, s.owned_nodes, s.owned_edges, s.queries_served,
        );
    }
    let _ = writeln!(report, "test {:<10}: {metric:.4}", metric_name(task));
    Ok(report)
}

fn cmd_baseline(args: &Args) -> Result<String, ArgError> {
    let (dataset, task) = load_from(args)?;
    let cfg = config_from(args)?;
    let model = args.require("model")?.to_string();
    let mode = match args.get("features").unwrap_or("RF") {
        "plain" => InputFeatures::External,
        "RF" => InputFeatures::RawRandom,
        other => {
            return Err(ArgError(format!("unknown feature mode {other:?} (plain|RF)")))
        }
    };
    let out = if let Some(kind) = baseline_kind(&model) {
        // Route the N/A pairing through the typed service-error taxonomy
        // so the CLI, the scenario matrix, and the HTTP front end render
        // the same message for the same refusal.
        BaselineVariant { kind, mode }
            .ensure_supports(dataset.task)
            .map_err(|e| ArgError(e.to_string()))?;
        run_baseline(kind, &dataset, mode, &cfg)
    } else if let Some(kind) = dtdg_kind(&model) {
        run_dtdg(kind, &dataset, mode, &cfg)
    } else {
        return Err(ArgError(format!("unknown model {model:?}\n\n{}", usage())));
    };
    Ok(format!(
        "model          : {}\ntest {:<10}: {:.4}\nparameters     : {}\ntrain/infer (s): {:.2} / {:.3}\n",
        out.name,
        metric_name(task),
        out.metric,
        out.num_params,
        out.train_secs,
        out.infer_secs,
    ))
}

/// The benchmark dataset behind one scenario regime, truncated to `frac`
/// of its available property set when `frac < 1`.
fn scenario_dataset(regime: &str, frac: f64, seed: u64) -> Result<Dataset, ArgError> {
    let base = match regime {
        "drift" => datasets::synthetic_shift(50, seed),
        "anomaly" => datasets::reddit(),
        "classification" => datasets::email_eu(),
        "affinity" => datasets::tgbn_trade(),
        "scalability" => datasets::scalability_stream(20_000, 400, seed),
        other => {
            return Err(ArgError(format!(
                "unknown regime {other:?} (drift | anomaly | classification | affinity | scalability)"
            )))
        }
    };
    if !(frac > 0.0 && frac <= 1.0) {
        return Err(ArgError(format!("--frac {frac} must lie in (0, 1]")));
    }
    Ok(if frac < 1.0 { splash::truncate_to_available(&base, frac) } else { base })
}

/// One named contender: the SPLASH engines by their reserved names, any
/// baseline variant from the registry roster through its serving adapter.
fn scenario_model(name: &str) -> Result<ModelSpec, ArgError> {
    let engine = match name {
        "splash" => EngineSpec::Splash { online: false },
        "splash+online" => EngineSpec::Splash { online: true },
        other => match baselines::parse_variant(other) {
            Some(variant) => EngineSpec::External(baselines::engine_factory(variant)),
            None => {
                let roster: Vec<String> =
                    baselines::all_variants().iter().map(|v| v.name()).collect();
                return Err(ArgError(format!(
                    "unknown scenario model {other:?} (splash | splash+online | {})",
                    roster.join(" | ")
                )));
            }
        },
    };
    Ok(ModelSpec { name: name.to_string(), engine })
}

/// The scenario matrix: every requested dataset regime × every requested
/// model, streamed prequentially through one multi-tenant `SplashService`
/// per regime, rendered as a Table III-style artifact. `--smoke true`
/// shrinks the matrix to a deterministic two-regime, three-contender run
/// (timing off) for CI; `--timing true` adds edges/s and predict-p99
/// cells at the cost of byte-reproducibility.
fn cmd_scenarios(args: &Args) -> Result<String, ArgError> {
    let smoke: bool = args.get_parsed("smoke", false)?;
    let timing: bool = args.get_parsed("timing", false)?;
    let every: usize = args.get_parsed("online-every", 25)?;
    if every == 0 {
        return Err(ArgError("--online-every must be positive".into()));
    }
    let cfg = if smoke {
        let mut cfg = SplashConfig::tiny();
        cfg.epochs = 2;
        cfg.seed = args.get_parsed("seed", cfg.seed)?;
        cfg
    } else {
        config_from(args)?
    };
    let frac: f64 = args.get_parsed("frac", if smoke { 0.2 } else { 1.0 })?;
    let regimes = args
        .get("regimes")
        .unwrap_or(if smoke {
            "drift,anomaly"
        } else {
            "drift,anomaly,classification,affinity,scalability"
        })
        .to_string();
    let models = args
        .get("models")
        .unwrap_or(if smoke {
            "splash,jodie,tgn+RF"
        } else {
            "splash,jodie,tgat,tgn+RF,graphmixer,slade"
        })
        .to_string();
    let model_names: Vec<&str> = models.split(',').filter(|s| !s.is_empty()).collect();
    if model_names.is_empty() {
        return Err(ArgError("--models must name at least one contender".into()));
    }
    let out_dir = args.get("out").map(String::from);

    let mut specs = Vec::new();
    for regime in regimes.split(',').filter(|s| !s.is_empty()) {
        let dataset = scenario_dataset(regime, frac, cfg.seed)?;
        let mut slots = Vec::new();
        for name in &model_names {
            slots.push(scenario_model(name)?);
            // The paper's drift story is frozen vs continually learning:
            // pair the frozen SPLASH slot with its online twin unless the
            // user already listed one.
            if regime == "drift"
                && *name == "splash"
                && !model_names.contains(&"splash+online")
            {
                slots.push(scenario_model("splash+online")?);
            }
        }
        specs.push(ScenarioSpec { regime: regime.to_string(), dataset, models: slots });
    }

    let scfg = ScenarioConfig {
        splash: cfg,
        online: OnlineConfig {
            policy: FineTunePolicy::EveryLabels(every),
            buffer_capacity: 128,
            batch_size: 16,
            steps_per_tune: 5,
            lr: 5e-3,
        },
        timing,
    };
    let report = run_matrix(&specs, &scfg).map_err(|e| ArgError(e.to_string()))?;

    let mut out = report.to_markdown();
    if let Some(dir) = out_dir {
        let dir = Path::new(&dir);
        std::fs::create_dir_all(dir).map_err(|e| ArgError(format!("{}: {e}", dir.display())))?;
        let write = |name: &str, body: &str| {
            let path = dir.join(name);
            std::fs::write(&path, body).map_err(|e| ArgError(format!("{}: {e}", path.display())))
        };
        write("report.json", &report.to_json())?;
        write("report.md", &report.to_markdown())?;
        let _ = writeln!(out, "\nwrote {}/report.json and {}/report.md", dir.display(), dir.display());
    }
    Ok(out)
}

fn cmd_drift(args: &Args) -> Result<String, ArgError> {
    let (dataset, _) = load_from(args)?;
    let buckets: usize = args.get_parsed("buckets", 8)?;
    if buckets == 0 {
        return Err(ArgError("--buckets must be positive".into()));
    }
    let mut report = String::new();
    let _ = writeln!(
        report,
        "distribution-shift diagnostics for {} ({buckets} time buckets)",
        dataset.name
    );

    // Positional drift of arrival cohorts in node2vec space.
    let snap = ctdg::GraphSnapshot::from_stream_prefix(&dataset.stream, dataset.stream.len());
    let emb = embed::node2vec(&snap, &embed::Node2VecConfig::fast(16), 7);
    let cohorts = datasets::cohort_drift(&dataset, &emb, buckets);
    let _ = writeln!(
        report,
        "positional : cumulative cohort drift {:.4} (cohort sizes {:?})",
        cohorts.cumulative_drift, cohorts.counts
    );

    let deg = datasets::degree_trend(&dataset, buckets);
    let _ = writeln!(
        report,
        "structural : avg degree {}",
        deg.iter().map(|d| format!("{d:.1}")).collect::<Vec<_>>().join(" → ")
    );
    let pr = datasets::pagerank_concentration_trend(&dataset, buckets);
    let _ = writeln!(
        report,
        "structural : top-decile PageRank mass {}",
        pr.iter().map(|x| format!("{x:.3}")).collect::<Vec<_>>().join(" → ")
    );

    if dataset.task != Task::Affinity {
        // Property shift: per-class occupancy of the most drifting class.
        let drifts: Vec<(usize, f64)> = (0..dataset.num_classes)
            .map(|c| {
                let trend = datasets::label_ratio_trend(&dataset, c, buckets);
                let spread = trend.iter().cloned().fold(f64::MIN, f64::max)
                    - trend.iter().cloned().fold(f64::MAX, f64::min);
                (c, spread)
            })
            .collect();
        let (worst_class, spread) = drifts
            .iter()
            .cloned()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap_or((0, 0.0));
        let trend = datasets::label_ratio_trend(&dataset, worst_class, buckets);
        let _ = writeln!(
            report,
            "property   : class {worst_class} ratio {} (spread {spread:.3})",
            trend.iter().map(|x| format!("{x:.3}")).collect::<Vec<_>>().join(" → ")
        );
    }
    Ok(report)
}

fn baseline_kind(name: &str) -> Option<BaselineKind> {
    BaselineKind::ALL.into_iter().find(|k| k.name() == name)
}

fn dtdg_kind(name: &str) -> Option<DtdgKind> {
    DtdgKind::ALL.into_iter().find(|k| k.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn help_and_empty_print_usage() {
        assert!(dispatch(toks("help")).unwrap().contains("USAGE"));
        assert!(dispatch(vec![]).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        let err = dispatch(toks("frobnicate")).unwrap_err();
        assert!(err.0.contains("unknown command"));
    }

    #[test]
    fn unknown_task_and_model_error() {
        assert!(parse_task("anomaly").is_ok());
        assert!(parse_task("nope").is_err());
        assert!(baseline_kind("tgat").is_some());
        assert!(baseline_kind("dida").is_none());
        assert!(dtdg_kind("dida").is_some());
    }

    #[test]
    fn feature_modes_parse() {
        assert_eq!(parse_features("auto").unwrap(), None);
        assert_eq!(parse_features("RF").unwrap(), Some(InputFeatures::RawRandom));
        assert!(parse_features("XYZ").is_err());
    }

    #[test]
    fn generate_rejects_unknown_dataset() {
        let err = dispatch(toks("generate --dataset nope --out /tmp/x")).unwrap_err();
        assert!(err.0.contains("unknown dataset"));
    }

    #[test]
    fn scenarios_rejects_unknown_regime_and_model() {
        let err = dispatch(toks("scenarios --regimes warp --smoke true")).unwrap_err();
        assert!(err.0.contains("unknown regime"), "{}", err.0);
        let err = dispatch(toks("scenarios --models splash,bogus --smoke true")).unwrap_err();
        assert!(err.0.contains("unknown scenario model"), "{}", err.0);
        let err = dispatch(toks("scenarios --smoke true --frac 0")).unwrap_err();
        assert!(err.0.contains("--frac"), "{}", err.0);
    }

    #[test]
    fn scenarios_renders_na_cell_for_task_mismatch() {
        // SLADE on the (classification) drift regime: the matrix keeps the
        // row and reports the typed refusal instead of aborting.
        let out = dispatch(toks(
            "scenarios --smoke true --regimes drift --frac 0.08 --models splash,slade --seed 3",
        ))
        .unwrap();
        assert!(out.contains("| splash | splash | off |"), "{out}");
        assert!(out.contains("n/a") && out.contains("does not support"), "{out}");
        // The drift regime pairs the frozen slot with its online twin.
        assert!(out.contains("| splash+online | splash | on |"), "{out}");
    }

    #[test]
    fn run_requires_inputs() {
        let err = dispatch(toks("run --task anomaly")).unwrap_err();
        assert!(err.0.contains("--edges"));
    }

    #[test]
    fn serve_requires_a_model_file() {
        let err = dispatch(toks("serve --task anomaly")).unwrap_err();
        assert!(err.0.contains("--model-file"));
    }

    #[test]
    fn listen_flags_fail_fast() {
        // A bad knob errors before any file is opened.
        let err = dispatch(toks(
            "serve --listen 127.0.0.1:0 --deadline-ms nope --model-file /nope.bin \
             --edges /nope.csv --queries /nope.csv --task anomaly",
        ))
        .unwrap_err();
        assert!(err.0.contains("deadline-ms"), "{}", err.0);
        assert!(dispatch(toks("help")).unwrap().contains("--listen"));
    }

    #[test]
    fn late_policies_parse() {
        assert_eq!(parse_late_policy("error").unwrap(), LateEdgePolicy::Error);
        assert_eq!(parse_late_policy("drop").unwrap(), LateEdgePolicy::DropLate);
        assert!(parse_late_policy("panic").is_err());
    }

    #[test]
    fn invalid_config_is_a_rendered_error_not_a_panic() {
        let err = dispatch(toks(
            "run --task anomaly --edges /tmp/x.csv --queries /tmp/y.csv --dv 0",
        ))
        .unwrap_err();
        assert!(err.0.contains("invalid config"), "{}", err.0);
        assert!(err.0.contains("feat_dim"), "{}", err.0);
    }

    #[test]
    fn serve_surfaces_persist_errors() {
        let dir = std::env::temp_dir();
        let base = dir.join(format!("splash-cli-serve-{}", std::process::id()));
        let edges = base.with_extension("edges.csv");
        let queries = base.with_extension("queries.csv");
        let model = base.with_extension("bin");
        std::fs::write(&edges, "src,dst,time,weight\n0,1,1.0,1.0\n1,2,2.0,1.0\n").unwrap();
        std::fs::write(&queries, "node,time,label\n0,1.5,0\n1,2.5,1\n").unwrap();
        std::fs::write(&model, b"NOTAMODEL").unwrap();
        let err = dispatch(
            format!(
                "serve --model-file {} --edges {} --queries {} --task classification",
                model.display(),
                edges.display(),
                queries.display()
            )
            .split_whitespace()
            .map(String::from)
            .collect(),
        )
        .unwrap_err();
        for p in [&edges, &queries, &model] {
            std::fs::remove_file(p).ok();
        }
        assert!(err.0.contains("corrupt model"), "{}", err.0);
    }
}
