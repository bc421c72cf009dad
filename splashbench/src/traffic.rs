//! Seeded traffic and the operator-style deployment every workload starts
//! from: generate a wiki-shaped anomaly stream, train the default model,
//! save the artifact, load it into a serving service.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ctdg::{Label, NodeId, PropertyQuery, TemporalEdge};
use datasets::{AnomalySpec, Dataset};
use splash::{seen_end_time, SplashConfig, SplashService, SplashServiceBuilder, SEEN_FRAC};

use crate::stats::{median, ns_since};

/// Pauses of the (untraced) timed phase for restarts, evenly spaced; one
/// more round of restarts follows the phase. Spreading the restarts over
/// the run keeps one contention episode from owning all of them.
pub const PAUSES: usize = 11;

/// The model slot every workload serves.
pub const MODEL: &str = "live";

/// Result type of the benchmark: errors are messages for stderr.
pub type Res<T> = Result<T, String>;

/// Adds the failing step's name to an error.
pub trait Ctx<T> {
    /// Maps the error to `"<what>: <error>"`.
    fn ctx(self, what: &str) -> Res<T>;
}

impl<T, E: std::fmt::Display> Ctx<T> for Result<T, E> {
    fn ctx(self, what: &str) -> Res<T> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// Sizes of one run: the full benchmark, or the smoke mode's tiny one.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// User nodes of the generated stream.
    pub users: usize,
    /// Item nodes of the generated stream.
    pub items: usize,
    /// Edges of the generated stream (training prefix + live tail).
    pub edges: usize,
    /// Model configuration.
    pub cfg: SplashConfig,
    /// Deployments per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Restarts per pause; `recovery_ms` is the fastest of all of them.
    pub restarts: usize,
    /// Rounds of the fixed-count sections (checks, counts, layer timers).
    pub fixed_rounds: u64,
}

impl Sizes {
    /// The benchmark's sizes (`smoke = false`) or the smoke mode's.
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                users: 100,
                items: 20,
                edges: 1_500,
                cfg: SplashConfig::tiny(),
                setup_reps: 1,
                restarts: 1,
                fixed_rounds: 8,
            }
        } else {
            Self {
                users: 600,
                items: 120,
                edges: 9_000,
                cfg: SplashConfig::default(),
                setup_reps: 3,
                restarts: 1,
                fixed_rounds: 256,
            }
        }
    }
}

/// The live stream: the post-training tail of the generated dataset,
/// replayed over and over with strictly increasing timestamps.
///
/// Edge `g` of the live stream is tail edge `g % L` of replay `g / L`,
/// shifted in time by whole replay periods. With `generations > 0`, replay
/// `r ≥ 1` renames every node id into generation `(r - 1) % generations + 1`
/// (ids offset by whole multiples of the node count), so the live node
/// population grows past the trained graph for `generations` replays and
/// then stays at `(generations + 1) ×` the trained count.
#[derive(Debug)]
pub struct Traffic {
    /// The generated dataset (training prefix + tail).
    pub dataset: Dataset,
    tail: Vec<TemporalEdge>,
    tail_nodes: Vec<NodeId>,
    tail_labels: Vec<usize>,
    period: f64,
    generations: u32,
    nodes: u32,
    seen: Vec<bool>,
}

impl Traffic {
    /// Generates the wiki-shaped stream of `seed`.
    pub fn generate(seed: u64, sizes: &Sizes, generations: u32) -> Res<Self> {
        let dataset = datasets::generate_anomaly(&AnomalySpec {
            name: "wiki",
            num_users: sizes.users,
            num_items: sizes.items,
            num_edges: sizes.edges,
            edge_feat_dim: 8,
            abnormal_frac: 0.05,
            burst: 5.0,
            seed,
        });
        let prefix = dataset
            .stream
            .prefix_len_at(seen_end_time(&dataset, SEEN_FRAC));
        let edges = dataset.stream.edges();
        if edges.len() != dataset.queries.len() || edges.len() < prefix + 2 {
            return Err("generated stream has no usable live tail".into());
        }
        let mut tail: Vec<TemporalEdge> = edges[prefix..].to_vec();
        // Strictly increasing, even if the generator drew equal times.
        for i in 1..tail.len() {
            if tail[i].time <= tail[i - 1].time {
                tail[i].time = tail[i - 1].time.next_up();
            }
        }
        let span = tail[tail.len() - 1].time - tail[0].time;
        let period = span + span / (tail.len() - 1) as f64;
        let queries = &dataset.queries[prefix..];
        let tail_nodes = queries.iter().map(|q| q.node).collect();
        let tail_labels = queries.iter().map(|q| q.label.class()).collect();
        let nodes = dataset.stream.num_nodes() as u32;
        let mut seen = vec![false; nodes as usize];
        for e in &edges[..prefix] {
            seen[e.src as usize] = true;
            seen[e.dst as usize] = true;
        }
        Ok(Self {
            dataset,
            tail,
            tail_nodes,
            tail_labels,
            period,
            generations,
            nodes,
            seen,
        })
    }

    fn split(&self, g: u64) -> (u64, usize) {
        let len = self.tail.len() as u64;
        (g / len, (g % len) as usize)
    }

    fn rename(&self, node: NodeId, replay: u64) -> NodeId {
        if self.generations == 0 || replay == 0 {
            node
        } else {
            let generation = (replay - 1) % u64::from(self.generations) + 1;
            node + generation as u32 * self.nodes
        }
    }

    /// Live edges until the node population stops growing: the first
    /// replay plus one per fresh generation.
    pub fn growth_edges(&self) -> u64 {
        if self.generations == 0 {
            0
        } else {
            (u64::from(self.generations) + 1) * self.tail.len() as u64
        }
    }

    /// Arrival time of live edge `g`.
    pub fn time(&self, g: u64) -> f64 {
        let (r, i) = self.split(g);
        self.tail[i].time + r as f64 * self.period
    }

    /// Writes live edges `start .. start + n` into `out`, reusing its
    /// edges' feature buffers.
    pub fn edges_into(&self, start: u64, n: usize, out: &mut Vec<TemporalEdge>) {
        out.truncate(n);
        for k in 0..n {
            let g = start + k as u64;
            let (r, i) = self.split(g);
            let src = &self.tail[i];
            if k < out.len() {
                let e = &mut out[k];
                e.src = self.rename(src.src, r);
                e.dst = self.rename(src.dst, r);
                e.feat.copy_from_slice(&src.feat);
                e.weight = src.weight;
                e.time = self.time(g);
            } else {
                out.push(TemporalEdge {
                    src: self.rename(src.src, r),
                    dst: self.rename(src.dst, r),
                    feat: src.feat.clone(),
                    weight: src.weight,
                    time: self.time(g),
                });
            }
        }
    }

    /// The node of the label query attached to live edge `g`.
    pub fn query_node(&self, g: u64) -> NodeId {
        let (r, i) = self.split(g);
        self.rename(self.tail_nodes[i], r)
    }

    /// The ground-truth label of the query attached to live edge `g`.
    pub fn label(&self, g: u64) -> Label {
        let (_, i) = self.split(g);
        Label::Class(self.tail_labels[i])
    }

    /// Whether `node` never appeared in the training prefix.
    pub fn unseen(&self, node: NodeId) -> bool {
        !self.seen.get(node as usize).copied().unwrap_or(false)
    }

    /// Appends live edges `start .. start + n` to `out` in the
    /// `datasets::edges_to_csv` format (header included).
    pub fn edges_csv(&self, start: u64, n: usize, out: &mut String) {
        out.clear();
        out.push_str("src,dst,time,weight");
        for i in 0..self.tail[0].feat.len() {
            let _ = write!(out, ",f{i}");
        }
        out.push('\n');
        for k in 0..n as u64 {
            let g = start + k;
            let (r, i) = self.split(g);
            let e = &self.tail[i];
            let _ = write!(
                out,
                "{},{},{},{}",
                self.rename(e.src, r),
                self.rename(e.dst, r),
                self.time(g),
                e.weight
            );
            for v in e.feat.iter() {
                let _ = write!(out, ",{v}");
            }
            out.push('\n');
        }
    }
}

/// Fills `out` with `n` queries for the query nodes of live edges
/// `start, start + stride, …`, all at `time` (labels attached).
pub fn queries_into(
    traffic: &Traffic,
    start: u64,
    stride: u64,
    n: usize,
    time: f64,
    out: &mut Vec<PropertyQuery>,
) {
    out.clear();
    for j in 0..n as u64 {
        let g = start + j * stride;
        out.push(PropertyQuery {
            node: traffic.query_node(g),
            time,
            label: traffic.label(g),
        });
    }
}

/// A scratch directory inside the working directory, removed on drop.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.splashbench_work/<workload>-<pid>` under the current
    /// directory.
    pub fn create(workload: &str) -> Res<Self> {
        let dir =
            PathBuf::from(".splashbench_work").join(format!("{workload}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).ctx("creating the work directory")?;
        Ok(Self(dir))
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        if let Some(parent) = self.0.parent() {
            // Only succeeds when no other run uses it.
            std::fs::remove_dir(parent).ok();
        }
    }
}

/// Costs of the deployments of one run (one entry per deployment).
#[derive(Debug, Default)]
pub struct SetupCosts {
    /// Whole deployment, generation to first servable request, s.
    pub total_s: Vec<f64>,
    /// `train_model`, s.
    pub train_s: Vec<f64>,
    /// `save_model`, ms.
    pub save_ms: Vec<f64>,
    /// `load_model` into the serving service, ms.
    pub load_ms: Vec<f64>,
    /// Size of the saved artifact, bytes.
    pub artifact_bytes: u64,
}

impl SetupCosts {
    /// Median deployment time, s.
    pub fn setup_s(&self) -> f64 {
        median(&self.total_s)
    }
}

/// One deployment: the generated traffic and the loaded serving service.
#[derive(Debug)]
pub struct Deployment {
    /// The seeded traffic.
    pub traffic: Traffic,
    /// The serving service with the artifact loaded under [`MODEL`].
    pub service: SplashService,
    /// When this deployment started (the workload stops the clock once
    /// its first request can be served).
    pub started: Instant,
}

/// Deploys the paper's default model the way an operator would: generate
/// the stream, train, save the artifact, load it into a service built by
/// `serving`. The workload finishes the deployment (durability, bind,
/// warm-up) and records the total into `costs`.
pub fn deploy(
    seed: u64,
    sizes: &Sizes,
    generations: u32,
    artifact: &Path,
    serving: SplashServiceBuilder,
    costs: &mut SetupCosts,
) -> Res<Deployment> {
    let started = Instant::now();
    let traffic = Traffic::generate(seed, sizes, generations)?;

    let t = Instant::now();
    let mut trainer = SplashService::builder(sizes.cfg)
        .build()
        .ctx("building the trainer")?;
    trainer
        .train_model(MODEL, &traffic.dataset)
        .ctx("training")?;
    costs.train_s.push(ns_since(t) / 1e9);

    let t = Instant::now();
    trainer
        .save_model(MODEL, artifact)
        .ctx("saving the artifact")?;
    costs.save_ms.push(ns_since(t) / 1e6);
    drop(trainer);
    costs.artifact_bytes = std::fs::metadata(artifact)
        .ctx("sizing the artifact")?
        .len();

    let t = Instant::now();
    let mut service = serving.build().ctx("building the serving service")?;
    service
        .load_model(MODEL, artifact, &traffic.dataset)
        .ctx("loading the artifact")?;
    costs.load_ms.push(ns_since(t) / 1e6);

    Ok(Deployment {
        traffic,
        service,
        started,
    })
}
