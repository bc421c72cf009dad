//! Every metric the benchmark prints: name, unit, and which workloads
//! exercise it. `BENCHMARK.json` lists the same names and units; the smoke
//! mode checks that the two agree.

use std::collections::BTreeMap;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `SplashServer` over loopback, 64-edge ingest + 16-query predict.
    WireStream,
    /// In-process 2-shard service, 1,024-edge ingest + 4 × 256-query
    /// batches, growing node population.
    EngineBulk,
    /// In-process durable online service: ingest, labels, predict.
    DurableOnline,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Self::WireStream, Self::EngineBulk, Self::DurableOnline];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Self::WireStream => "wire_stream",
            Self::EngineBulk => "engine_bulk",
            Self::DurableOnline => "durable_online",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics, measured untraced on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("edges_per_s", "1/s"),
    ("ingest_p1_ms", "ms"),
    ("predict_p1_ms", "ms"),
    ("recovery_ms", "ms"),
    ("rss_mb", "MB"),
];

/// Which workloads a per-layer metric applies to.
#[derive(Debug, Clone, Copy)]
pub enum Scope {
    /// Every workload.
    All,
    /// Only this one.
    Only(Workload),
    /// The two in-process workloads.
    InProcess,
}

impl Scope {
    /// Whether the metric is measured on `w`.
    pub fn covers(self, w: Workload) -> bool {
        match self {
            Scope::All => true,
            Scope::Only(only) => only == w,
            Scope::InProcess => w != Workload::WireStream,
        }
    }
}

use Scope::{All, InProcess, Only};
use Workload::{DurableOnline, EngineBulk, WireStream};

/// Per-layer metrics, measured in the traced run. A workload that does
/// not exercise a layer prints 0 for its metrics.
pub const PER_LAYER: &[(&str, &str, Scope)] = &[
    ("server.ingest_queue_wait_us", "us", Only(WireStream)),
    ("server.predict_queue_wait_us", "us", Only(WireStream)),
    ("server.ingest_execute_us", "us", Only(WireStream)),
    ("server.predict_execute_us", "us", Only(WireStream)),
    ("server.ingest_wire_us", "us", Only(WireStream)),
    ("server.predict_wire_us", "us", Only(WireStream)),
    ("server.engine_busy", "ratio", Only(WireStream)),
    ("server.alloc_calls_per_round", "count", Only(WireStream)),
    ("server.ctx_switches_per_round", "count", Only(WireStream)),
    ("server.bytes_in_per_round", "B", Only(WireStream)),
    ("server.bytes_out_per_round", "B", Only(WireStream)),
    ("server.ingest_p90_ms", "ms", Only(WireStream)),
    ("server.ingest_p99_ms", "ms", Only(WireStream)),
    ("server.predict_p90_ms", "ms", Only(WireStream)),
    ("server.predict_p99_ms", "ms", Only(WireStream)),
    ("io.parse_us_per_edge", "us", Only(WireStream)),
    ("service.ingest_us", "us", All),
    ("service.predict_us_per_query", "us", All),
    ("service.round_us", "us", All),
    ("service.alloc_calls_per_round", "count", All),
    ("service.ingest_p90_ms", "ms", InProcess),
    ("service.ingest_p99_ms", "ms", InProcess),
    ("service.predict_p90_ms", "ms", InProcess),
    ("service.predict_p99_ms", "ms", InProcess),
    ("stream.push_us_per_edge", "us", All),
    ("stream.capture_us_per_query", "us", All),
    ("stream.unseen_node_share", "ratio", All),
    ("slim.forward_us_per_row_b16", "us", All),
    ("slim.forward_us_per_row_b256", "us", All),
    ("shard.push_us_per_edge", "us", Only(EngineBulk)),
    ("shard.predict_batch_us_per_query", "us", Only(EngineBulk)),
    ("shard.owned_skew", "ratio", Only(EngineBulk)),
    ("durable.wal_us_per_record", "us", Only(DurableOnline)),
    ("durable.wal_bytes_per_edge", "B", Only(DurableOnline)),
    ("durable.checkpoint_ms", "ms", Only(DurableOnline)),
    ("durable.checkpoint_bytes", "B", Only(DurableOnline)),
    ("durable.snapshot_load_ms", "ms", Only(DurableOnline)),
    ("durable.wal_replay_ms", "ms", Only(DurableOnline)),
    ("online.labels_p1_ms", "ms", Only(DurableOnline)),
    ("online.absorb_us_per_label", "us", Only(DurableOnline)),
    ("online.tune_ms", "ms", Only(DurableOnline)),
    ("online.tunes", "count", Only(DurableOnline)),
    ("online.steps", "count", Only(DurableOnline)),
    ("online.tune_share", "ratio", Only(DurableOnline)),
    ("pipeline.train_s", "s", All),
    ("persist.save_ms", "ms", All),
    ("persist.load_ms", "ms", All),
    ("persist.artifact_bytes", "B", All),
    ("trace.edges_per_s_overhead", "1/s", All),
    ("trace.ingest_p1_ms_overhead", "ms", All),
    ("trace.predict_p1_ms_overhead", "ms", All),
];

/// One printed metric: name, value, unit.
pub type Row = (&'static str, f64, &'static str);

/// The metric values one run measured, by name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`, which must be in one of the tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.0 == name) || PER_LAYER.iter().any(|m| m.0 == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `(name, value, unit)` rows to print for `w`: the end-to-end
    /// table untraced, the per-layer table traced. Fails when a metric the
    /// workload exercises was not measured, or a measured value is not a
    /// finite number.
    pub fn rows(&self, w: Workload, traced: bool) -> Result<Vec<Row>, String> {
        let wanted: Vec<(&'static str, &'static str, bool)> = if traced {
            PER_LAYER
                .iter()
                .map(|&(n, u, s)| (n, u, s.covers(w)))
                .collect()
        } else {
            END_TO_END.iter().map(|&(n, u)| (n, u, true)).collect()
        };
        let mut rows = Vec::with_capacity(wanted.len());
        for (name, unit, applies) in wanted {
            let value = match (self.get(name), applies) {
                (Some(v), true) if v.is_finite() => v,
                (Some(v), true) => return Err(format!("metric {name} is not finite ({v})")),
                (None, true) => return Err(format!("metric {name} was not measured")),
                (_, false) => 0.0,
            };
            rows.push((name, value, unit));
        }
        Ok(rows)
    }
}
