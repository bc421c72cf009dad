//! The typed error taxonomy of the `splash` serving surface.
//!
//! Every fallible public operation — edge ingestion, label queries, config
//! validation, model persistence, registry lookups — reports a
//! [`SplashError`] instead of panicking or returning a reason-less
//! `Option`. The numeric core stays infallible (shape bugs are programmer
//! errors and still panic); *input* problems a caller can cause at runtime
//! are the error surface.
//!
//! The enum is `#[non_exhaustive]`: later PRs (sharding, async serving,
//! remote registries) can add variants without breaking downstream
//! matches.

use std::fmt;
use std::io;

use ctdg::NodeId;

/// Everything that can go wrong at the `splash` API surface.
///
/// Constructing a variant never allocates except where a field owns a
/// `String` (`InvalidConfig`, `CorruptModel`, `UnknownModel`) — and those
/// are built only on the failure path, so the steady-state serving hot
/// loops stay allocation-free.
#[non_exhaustive]
#[derive(Debug)]
pub enum SplashError {
    /// An ingested edge travelled back in time: its timestamp precedes the
    /// most recently observed edge's.
    OutOfOrderEdge {
        /// Timestamp of the offending edge.
        got: f64,
        /// Timestamp of the last edge already observed.
        last: f64,
    },
    /// An ingested edge carries an edge-feature vector of the wrong width:
    /// the model's SLIM input row holds exactly `expected` edge-feature
    /// columns per message (Eq. 14), and this edge has `got`.
    EdgeFeatureWidth {
        /// Edge-feature width the model was trained with.
        expected: usize,
        /// Width of the offending edge's feature vector.
        got: usize,
    },
    /// A label query asked about the past: its timestamp precedes the most
    /// recently observed edge, so answering it would require state that has
    /// already been overwritten.
    PastQuery {
        /// Timestamp of the offending query.
        got: f64,
        /// Timestamp of the last edge already observed.
        last: f64,
    },
    /// A query named a node outside the service's known node universe
    /// (only reported when the service is built with strict node checking;
    /// the default is to serve unknown nodes from propagated features).
    UnknownNode {
        /// The offending node id.
        node: NodeId,
        /// Number of node ids currently known (valid ids are `0..known`).
        known: usize,
    },
    /// A request named a model that is not in the service's registry.
    UnknownModel {
        /// The name that failed to resolve.
        name: String,
    },
    /// A [`crate::SplashConfig`] failed validation.
    InvalidConfig {
        /// Which field was rejected and why.
        what: String,
    },
    /// A saved model file carries a format version this build does not
    /// understand.
    PersistVersionMismatch {
        /// The version word found in the file.
        found: u32,
        /// The version this build reads and writes.
        supported: u32,
    },
    /// A saved model file is not a SPLASH model or has been damaged
    /// (bad magic, truncation, impossible tags or shapes).
    CorruptModel {
        /// What was wrong with the file.
        what: String,
    },
    /// A saved model cannot back a streaming predictor because its feature
    /// mode is not a single augmentation process (streaming state is
    /// defined per process).
    NotStreamable {
        /// Display name of the offending feature mode.
        mode: &'static str,
    },
    /// A ground-truth observation fed to the continual learner cannot be
    /// trained on: the label does not fit the model's task or output
    /// width, carries non-finite affinity mass, or arrives with a
    /// non-finite timestamp. Training on it would panic deep in the loss
    /// or poison the published weights with NaN, so it is rejected up
    /// front (batch-atomically).
    LabelMismatch {
        /// What the model expects, and what arrived instead.
        expected: String,
    },
    /// A continual-learning request ([`crate::SplashService::fine_tune`],
    /// label ingest, publish) named a model that has no online trainer —
    /// the service was built without
    /// [`crate::SplashServiceBuilder::online`].
    OnlineDisabled {
        /// The registry name of the model.
        name: String,
    },
    /// A write-ahead-log file in a checkpoint directory is damaged beyond
    /// its recoverable prefix: a record in the *middle* of the log fails
    /// its checksum or decodes to an impossible payload. (A torn *tail* —
    /// the last record cut short by a crash — is not an error: recovery
    /// truncates it and carries on.)
    WalCorrupt {
        /// What was wrong, and where.
        what: String,
    },
    /// Recovery was asked to restart from a checkpoint directory that has
    /// no committed checkpoint (no `CURRENT` pointer) — nothing to restore
    /// from. A fresh deployment should install a model first and let the
    /// durable layer write epoch 0.
    CheckpointMissing {
        /// The directory that was searched.
        dir: String,
    },
    /// A checkpoint or artifact save was refused because the online replay
    /// buffer still holds captured labels that the destination cannot
    /// carry; persisting would silently drop them. Drain the buffer first
    /// ([`crate::SplashService::fine_tune`]) or build the service with
    /// [`crate::CheckpointPolicy::PersistBuffer`] and use a durable
    /// checkpoint, which persists the buffer alongside the state.
    CheckpointUnflushed {
        /// How many captured labels are still buffered.
        buffered: usize,
    },
    /// A model architecture was asked to serve a task it does not support
    /// (e.g. SLADE, a self-supervised anomaly scorer, on a classification
    /// or affinity workload — the paper reports N/A there). Registering or
    /// running such a pairing is refused up front instead of producing a
    /// nonsense metric.
    TaskUnsupported {
        /// The model (variant) name, e.g. `"slade"`.
        model: String,
        /// Display name of the requested task.
        task: &'static str,
    },
    /// An underlying I/O operation failed (file missing, permissions, …).
    Io(io::Error),
}

impl SplashError {
    /// Short machine-readable variant name, stable across `Display`
    /// wording changes. The wire front end ([`crate::server`]) echoes it
    /// in the `x-splash-error` response header so socket clients can match
    /// on the taxonomy without parsing prose.
    pub fn kind(&self) -> &'static str {
        match self {
            SplashError::OutOfOrderEdge { .. } => "OutOfOrderEdge",
            SplashError::EdgeFeatureWidth { .. } => "EdgeFeatureWidth",
            SplashError::PastQuery { .. } => "PastQuery",
            SplashError::UnknownNode { .. } => "UnknownNode",
            SplashError::UnknownModel { .. } => "UnknownModel",
            SplashError::InvalidConfig { .. } => "InvalidConfig",
            SplashError::PersistVersionMismatch { .. } => "PersistVersionMismatch",
            SplashError::CorruptModel { .. } => "CorruptModel",
            SplashError::NotStreamable { .. } => "NotStreamable",
            SplashError::LabelMismatch { .. } => "LabelMismatch",
            SplashError::OnlineDisabled { .. } => "OnlineDisabled",
            SplashError::WalCorrupt { .. } => "WalCorrupt",
            SplashError::CheckpointMissing { .. } => "CheckpointMissing",
            SplashError::CheckpointUnflushed { .. } => "CheckpointUnflushed",
            SplashError::TaskUnsupported { .. } => "TaskUnsupported",
            SplashError::Io(_) => "Io",
            // `#[non_exhaustive]`: a variant added later still maps.
            #[allow(unreachable_patterns)]
            _ => "SplashError",
        }
    }

    /// The HTTP status code the wire front end answers this error with.
    ///
    /// Everything a client can cause is 4xx (the request was understood
    /// and refused, the server keeps serving); only a genuine server-side
    /// failure ([`SplashError::Io`]) is 5xx. The full table is documented
    /// in ARCHITECTURE.md ("Wire protocol & backpressure").
    pub fn http_status(&self) -> u16 {
        match self {
            // The request contradicts the stream clock — a state conflict,
            // retryable after repair.
            SplashError::OutOfOrderEdge { .. } | SplashError::PastQuery { .. } => 409,
            // The edges do not fit the model's input shape: a malformed
            // request body.
            SplashError::EdgeFeatureWidth { .. } => 400,
            // The named resource does not exist.
            SplashError::UnknownModel { .. } => 404,
            // Well-formed but semantically impossible payloads.
            SplashError::UnknownNode { .. }
            | SplashError::InvalidConfig { .. }
            | SplashError::PersistVersionMismatch { .. }
            | SplashError::CorruptModel { .. }
            | SplashError::NotStreamable { .. }
            | SplashError::LabelMismatch { .. }
            | SplashError::TaskUnsupported { .. } => 422,
            // Damaged or absent durable state: the *artifact* is the
            // problem, exactly like a corrupt model file.
            SplashError::WalCorrupt { .. } | SplashError::CheckpointMissing { .. } => 422,
            // The request asks for a capability this deployment lacks, or
            // conflicts with serving state that must be drained first.
            SplashError::OnlineDisabled { .. }
            | SplashError::CheckpointUnflushed { .. } => 409,
            SplashError::Io(_) => 500,
            // `#[non_exhaustive]`: unknown future variants are server-side.
            #[allow(unreachable_patterns)]
            _ => 500,
        }
    }
}

impl fmt::Display for SplashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SplashError::OutOfOrderEdge { got, last } => write!(
                f,
                "edges must arrive chronologically ({got} < {last})"
            ),
            SplashError::EdgeFeatureWidth { expected, got } => write!(
                f,
                "edge has {got} feature columns, the model expects {expected}"
            ),
            SplashError::PastQuery { got, last } => write!(
                f,
                "cannot predict in the past (query time {got} precedes the last \
                 observed edge at {last})"
            ),
            SplashError::UnknownNode { node, known } => write!(
                f,
                "unknown node {node} (this service knows nodes 0..{known})"
            ),
            SplashError::UnknownModel { name } => {
                write!(f, "no model named {name:?} in the registry")
            }
            SplashError::InvalidConfig { what } => write!(f, "invalid config: {what}"),
            SplashError::PersistVersionMismatch { found, supported } => write!(
                f,
                "saved model has format version {found}, this build supports {supported}"
            ),
            SplashError::CorruptModel { what } => write!(f, "corrupt model file: {what}"),
            SplashError::NotStreamable { mode } => write!(
                f,
                "feature mode {mode} cannot back a streaming predictor \
                 (streaming state needs a single augmentation process)"
            ),
            SplashError::LabelMismatch { expected } => {
                write!(f, "label does not fit the model: expected {expected}")
            }
            SplashError::OnlineDisabled { name } => write!(
                f,
                "model {name:?} has no online trainer (build the service \
                 with .online(OnlineConfig) to enable continual learning)"
            ),
            SplashError::WalCorrupt { what } => {
                write!(f, "corrupt write-ahead log: {what}")
            }
            SplashError::CheckpointMissing { dir } => write!(
                f,
                "no committed checkpoint in {dir:?} (no CURRENT pointer; \
                 nothing to recover from)"
            ),
            SplashError::CheckpointUnflushed { buffered } => write!(
                f,
                "refusing to checkpoint: {buffered} captured label(s) still \
                 buffered would be dropped (fine_tune first, or persist the \
                 buffer with a durable checkpoint)"
            ),
            SplashError::TaskUnsupported { model, task } => write!(
                f,
                "model {model:?} does not support the {task} task (the paper \
                 reports N/A for this pairing)"
            ),
            SplashError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for SplashError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SplashError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SplashError {
    fn from(e: io::Error) -> Self {
        SplashError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_the_payload() {
        let e = SplashError::OutOfOrderEdge { got: 1.0, last: 2.0 };
        assert!(e.to_string().contains("chronologically"), "{e}");
        assert!(e.to_string().contains('1') && e.to_string().contains('2'), "{e}");
        let e = SplashError::PersistVersionMismatch { found: 9, supported: 1 };
        assert!(e.to_string().contains("version 9"), "{e}");
        let e = SplashError::UnknownModel { name: "prod".into() };
        assert!(e.to_string().contains("prod"), "{e}");
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let io = io::Error::new(io::ErrorKind::NotFound, "gone");
        let e: SplashError = io.into();
        assert!(matches!(&e, SplashError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
