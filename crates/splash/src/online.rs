//! Online continual learning: fine-tuning a served model from the live
//! stream, without downtime.
//!
//! The batch pipeline freezes a SLIM model at `train_model` time, yet
//! SPLASH's whole premise is that the data is a *stream* — the serving
//! stack can ingest and predict forever, but a frozen model can never
//! incorporate what the stream reveals after deployment. This module
//! closes that loop with a hot-standby trainer:
//!
//! 1. **Label-carrying ingest** — when ground truth for `(node, t)`
//!    arrives, [`StreamingPredictor::capture_labeled_into`] snapshots the
//!    model input *at that instant* (Eq. 14 semantics: the example is
//!    immutable from capture time on) into the trainer's bounded replay
//!    buffer.
//! 2. **Bounded fine-tuning** — [`OnlineTrainer::fine_tune`] sweeps the
//!    buffered examples oldest-first in `batch_size` windows and runs
//!    exactly `steps_per_tune` Adam steps on its *own* copy of the model
//!    (the served weights keep answering queries untouched), then
//!    consumes the examples it swept: each is trained on by exactly one
//!    round, and a backlog beyond `steps_per_tune` windows stays
//!    buffered for the next round rather than being discarded.
//! 3. **Atomic publication** — the service copies the tuned weights into
//!    the serving engine(s) between requests
//!    ([`crate::service::SplashService::fine_tune`] /
//!    [`crate::service::SplashService::publish`]); a sharded model's
//!    shards share weights, so one publish fans out to all of them.
//!
//! # Determinism and checkpointing
//!
//! A tune round is a pure function of (weights, Adam moments + step
//! count, buffer contents in insertion order): windows are swept in
//! insertion order (no shuffling), and the optimizer steps through
//! [`nn::Adam::step_visit`]. Checkpointing therefore only needs the
//! weights plus the optimizer state — exactly what an artifact's
//! `SAVEDOPT` section carries ([`crate::SplashService::save_model`]) — and
//! since the artifact also carries the streaming state, a restart that
//! carries on with the stream continues **bit-identically** to a run that
//! never stopped (pinned at shard counts 1 and 3 by
//! `crates/splash/tests/online.rs`).
//!
//! The replay buffer itself is deliberately *not* persisted: buffered
//! examples are in-flight stream data, and streams are the source of
//! truth. For exact resume, checkpoint from a drained buffer (call
//! `fine_tune` first — the flush-before-checkpoint discipline) or
//! re-deliver the unconsumed labels after the restart.
//!
//! # Allocation discipline
//!
//! The steady-state step path — capture into a recycled buffer slot, pack
//! with [`SlimModel::build_batch_into`], forward/backward through the
//! shared [`Workspace`], step via the visitor — performs **zero** heap
//! allocations after warm-up (pinned by the counting-allocator test in
//! `crates/splash/tests/alloc.rs`).

use ctdg::{Label, NodeId};
use datasets::Task;
use nn::{soft_cross_entropy_into, softmax_cross_entropy_into, Adam, Matrix, Workspace};

use crate::capture::{CapturedNeighbor, CapturedQuery};
use crate::error::SplashError;
use crate::slim::{AdamState, SlimBatch, SlimCache, SlimModel};
use crate::stream::StreamingPredictor;
use crate::telemetry::Gauge;

/// When the service fine-tunes (and publishes) automatically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FineTunePolicy {
    /// Never automatically — only on an explicit
    /// [`crate::service::SplashService::fine_tune`] call (the default).
    #[default]
    Manual,
    /// After every `n` absorbed labels (`n > 0`, checked by
    /// [`OnlineConfig::validate`]).
    EveryLabels(usize),
}

/// Knobs of the online continual-learning subsystem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// When fine-tuning triggers automatically.
    pub policy: FineTunePolicy,
    /// Bounded replay-buffer size: once full, the oldest unconsumed
    /// example is overwritten (the stream outranks history).
    pub buffer_capacity: usize,
    /// Minibatch size of one fine-tuning step.
    pub batch_size: usize,
    /// Adam steps per tune round (the buffer is swept cyclically when
    /// `steps_per_tune` exceeds the number of windows it holds).
    pub steps_per_tune: usize,
    /// Learning rate of the online Adam optimizer.
    pub lr: f32,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            policy: FineTunePolicy::Manual,
            buffer_capacity: 512,
            batch_size: 64,
            steps_per_tune: 8,
            lr: 1e-3,
        }
    }
}

impl OnlineConfig {
    /// Checks that the knobs describe a runnable trainer; a bad value
    /// surfaces as one [`SplashError::InvalidConfig`] at service build (or
    /// trainer construction) instead of a panic mid-serve.
    pub fn validate(&self) -> Result<(), SplashError> {
        let invalid = |what: String| Err(SplashError::InvalidConfig { what });
        if self.buffer_capacity == 0 {
            return invalid("online buffer_capacity must be positive".into());
        }
        if self.batch_size == 0 {
            return invalid("online batch_size must be positive".into());
        }
        if self.steps_per_tune == 0 {
            return invalid("online steps_per_tune must be positive".into());
        }
        if !self.lr.is_finite() || self.lr <= 0.0 {
            return invalid(format!("online lr must be positive and finite, got {}", self.lr));
        }
        if let FineTunePolicy::EveryLabels(0) = self.policy {
            return invalid("FineTunePolicy::EveryLabels needs a positive cadence".into());
        }
        Ok(())
    }
}

/// What one tune round did ([`OnlineTrainer::fine_tune`],
/// [`crate::service::SplashService::fine_tune`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FineTuneReport {
    /// Adam steps executed (0 when the buffer was empty).
    pub steps: usize,
    /// Distinct buffered examples consumed by this round.
    pub examples: usize,
    /// Mean training loss across the executed steps (0 when none ran).
    pub mean_loss: f32,
    /// Whether the tuned weights were published to the serving engine
    /// (set by the service entry points; a bare trainer never publishes).
    pub published: bool,
}

/// The hot-standby continual learner: a private copy of the served model,
/// an Adam optimizer with persistent state, and a bounded replay buffer of
/// labeled examples captured from the live stream.
///
/// See the [module docs](self) for the full contract. The trainer is
/// deliberately decoupled from serving: it never answers queries, and the
/// serving engines never see its weights until a publish.
#[derive(Debug)]
pub struct OnlineTrainer {
    cfg: OnlineConfig,
    task: Task,
    model: SlimModel,
    opt: Adam,
    /// Replay-buffer slots, grown lazily toward `buffer_capacity` and then
    /// recycled forever (capture overwrites a slot in place).
    buffer: Vec<CapturedQuery>,
    /// Index of the oldest valid entry once the ring has wrapped.
    head: usize,
    /// Number of valid entries (`<= buffer_capacity`).
    filled: usize,
    /// Parked neighbor slots shared with capture (keeps feature buffers
    /// alive across examples of varying neighbor counts).
    spare: Vec<CapturedNeighbor>,
    /// Reused `(start, end)` window list of the current sweep.
    windows: Vec<(usize, usize)>,
    batch: SlimBatch,
    cache: SlimCache,
    ws: Workspace,
    logits: Matrix,
    h: Matrix,
    dlogits: Matrix,
    targets: Vec<usize>,
    target_mat: Matrix,
    labels_seen: u64,
    since_tune: usize,
    tunes: u64,
    /// Mirror of `filled` in the telemetry plane
    /// (`splash_online_buffered{model="..."}`), attached by the service at
    /// install time; a bare trainer carries none. An atomic store per
    /// absorb — no allocation on the steady-state label path.
    buffer_gauge: Option<Gauge>,
}

impl OnlineTrainer {
    /// A trainer continuing from `predictor`'s current weights, with fresh
    /// optimizer state. `task` selects the loss (softmax cross-entropy for
    /// anomaly/classification, soft cross-entropy for affinity).
    pub fn for_predictor(
        cfg: OnlineConfig,
        predictor: &StreamingPredictor,
        task: Task,
    ) -> Result<Self, SplashError> {
        Self::resume(cfg, predictor.model().clone(), task, None)
    }

    /// The resuming constructor: `saved` (a `SAVEDOPT` checkpoint) restores
    /// the Adam moments and step count so the optimizer continues exactly
    /// where the checkpointed run stopped. Without a checkpoint the
    /// optimizer state is genuinely fresh: the moments left behind by
    /// batch training are zeroed — they belong to a step clock this
    /// optimizer does not share, and feeding them through step-1 bias
    /// correction would inflate the first updates ~10×/1000×.
    pub(crate) fn resume(
        cfg: OnlineConfig,
        mut model: SlimModel,
        task: Task,
        saved: Option<&AdamState>,
    ) -> Result<Self, SplashError> {
        cfg.validate()?;
        let mut opt = Adam::new(cfg.lr);
        match saved {
            Some(state) => {
                model.restore_adam_state(state);
                opt.set_steps(state.steps);
            }
            None => {
                use nn::Parameterized;
                model.visit_params(&mut |p| {
                    let (m, v) = p.adam_state_mut();
                    m.fill_zero();
                    v.fill_zero();
                });
            }
        }
        Ok(Self {
            cfg,
            task,
            model,
            opt,
            buffer: Vec::new(),
            head: 0,
            filled: 0,
            spare: Vec::new(),
            windows: Vec::new(),
            batch: SlimBatch::default(),
            cache: SlimCache::default(),
            ws: Workspace::new(),
            logits: Matrix::default(),
            h: Matrix::default(),
            dlogits: Matrix::default(),
            targets: Vec::new(),
            target_mat: Matrix::default(),
            labels_seen: 0,
            since_tune: 0,
            tunes: 0,
            buffer_gauge: None,
        })
    }

    /// Captures one labeled example from `predictor`'s current streaming
    /// state into the replay buffer (the standalone form of the service's
    /// label ingest). `time` must not precede the predictor's last observed
    /// edge ([`SplashError::PastQuery`] otherwise — the state needed to
    /// honor it is gone), and the label must fit the model's task
    /// ([`SplashError::LabelMismatch`] otherwise — training on it would
    /// panic deep in the loss).
    pub fn absorb(
        &mut self,
        predictor: &StreamingPredictor,
        node: NodeId,
        time: f64,
        label: &Label,
    ) -> Result<(), SplashError> {
        self.validate_observation(time, label)?;
        self.absorb_with(|slot, spare| {
            predictor.capture_labeled_into(node, time, label, slot, spare)
        })
    }

    /// [`OnlineTrainer::validate_label`] plus a finiteness check on the
    /// observation timestamp: a NaN time slips past every `<` comparison
    /// (NaN compares false) and would be time-encoded straight into the
    /// training features, poisoning the published weights.
    pub fn validate_observation(&self, time: f64, label: &Label) -> Result<(), SplashError> {
        if !time.is_finite() {
            return Err(SplashError::LabelMismatch {
                expected: format!("a finite observation timestamp, got {time}"),
            });
        }
        self.validate_label(label)
    }

    /// Checks that a ground-truth label fits this trainer's task and the
    /// model's output width — and, for affinity labels, that every element
    /// is finite — so a malformed label is a typed
    /// [`SplashError::LabelMismatch`] instead of a panic inside (or NaN
    /// weights out of) a later tune round's loss.
    pub fn validate_label(&self, label: &Label) -> Result<(), SplashError> {
        let out_dim = self.model.out_dim();
        let expected = match (self.task, label) {
            (Task::Anomaly | Task::Classification, Label::Class(c)) if *c < out_dim => {
                return Ok(())
            }
            (Task::Affinity, Label::Affinity(a)) if a.len() == out_dim => {
                // Non-finite affinity mass would flow unclipped into the
                // gradients (NaN bypasses the clip-norm comparison) and
                // permanently poison the published weights.
                if let Some(bad) = a.iter().find(|v| !v.is_finite()) {
                    return Err(SplashError::LabelMismatch {
                        expected: format!("finite affinity mass, got {bad}"),
                    });
                }
                return Ok(());
            }
            (Task::Anomaly | Task::Classification, Label::Class(c)) => {
                format!("a class index below {out_dim}, got {c}")
            }
            (Task::Anomaly | Task::Classification, Label::Affinity(_)) => {
                "a class label, got an affinity vector".to_string()
            }
            (Task::Affinity, Label::Affinity(a)) => {
                format!("an affinity vector of width {out_dim}, got width {}", a.len())
            }
            (Task::Affinity, Label::Class(_)) => {
                "an affinity vector, got a class label".to_string()
            }
        };
        Err(SplashError::LabelMismatch { expected })
    }

    /// [`OnlineTrainer::absorb`] with the capture supplied by the caller —
    /// the engine-agnostic form the service uses (single and sharded
    /// engines capture differently, the ring bookkeeping is identical).
    /// The caller is responsible for label validation
    /// ([`OnlineTrainer::validate_label`]).
    pub(crate) fn absorb_with(
        &mut self,
        fill: impl FnOnce(&mut CapturedQuery, &mut Vec<CapturedNeighbor>) -> Result<(), SplashError>,
    ) -> Result<(), SplashError> {
        let cap = self.cfg.buffer_capacity;
        let idx = (self.head + self.filled) % cap;
        if idx == self.buffer.len() {
            // Grows only while the buffer approaches capacity, never after.
            self.buffer.push(CapturedQuery::default());
        }
        fill(&mut self.buffer[idx], &mut self.spare)?;
        if self.filled == cap {
            // Full ring: the slot just written was the oldest entry.
            self.head = (self.head + 1) % cap;
        } else {
            self.filled += 1;
        }
        self.labels_seen += 1;
        self.since_tune += 1;
        self.sync_buffer_gauge();
        Ok(())
    }

    /// Points the trainer's buffer-fill mirror at a registry gauge and
    /// seeds it with the current fill (the trainer may already hold
    /// restored state when the service attaches the gauge).
    pub(crate) fn attach_buffer_gauge(&mut self, gauge: Gauge) {
        gauge.set(self.filled as u64);
        self.buffer_gauge = Some(gauge);
    }

    fn sync_buffer_gauge(&self) {
        if let Some(g) = &self.buffer_gauge {
            g.set(self.filled as u64);
        }
    }

    /// Whether the configured policy calls for a tune round now.
    pub fn tune_due(&self) -> bool {
        match self.cfg.policy {
            FineTunePolicy::Manual => false,
            FineTunePolicy::EveryLabels(n) => self.since_tune >= n,
        }
    }

    /// Runs one bounded tune round: exactly `steps_per_tune` Adam steps
    /// sweeping the buffered examples oldest-first in `batch_size` windows
    /// (cycling — multiple epochs — when steps outnumber windows), then
    /// consumes exactly the examples it swept: a buffer holding more than
    /// `steps_per_tune` windows keeps the un-swept remainder for the next
    /// round, so no label is ever silently discarded. Returns immediately
    /// (0 steps) when nothing is buffered.
    ///
    /// Deterministic by construction — see the [module docs](self) — and
    /// allocation-free after warm-up.
    pub fn fine_tune(&mut self) -> FineTuneReport {
        let n = self.filled;
        if n == 0 {
            return FineTuneReport::default();
        }
        // The ring holds its entries as (at most) two contiguous segments;
        // windows never straddle the wrap point, so every batch is a plain
        // slice and packing stays allocation-free.
        self.windows.clear();
        let bs = self.cfg.batch_size;
        let cap = self.cfg.buffer_capacity;
        let (seg1, seg2) = if self.head + n <= cap {
            ((self.head, self.head + n), (0, 0))
        } else {
            ((self.head, cap), (0, self.head + n - cap))
        };
        for (start, end) in [seg1, seg2] {
            let mut pos = start;
            while pos < end {
                let e = (pos + bs).min(end);
                self.windows.push((pos, e));
                pos = e;
            }
        }
        let steps = self.cfg.steps_per_tune;
        let mut total_loss = 0.0f32;
        for s in 0..steps {
            let (a, b) = self.windows[s % self.windows.len()];
            let window = &self.buffer[a..b];
            self.model.build_batch_into(window, &mut self.batch);
            self.model.forward_into(
                &self.batch,
                &mut self.logits,
                &mut self.h,
                &mut self.cache,
                &mut self.ws,
            );
            let loss = match self.task {
                Task::Anomaly | Task::Classification => {
                    self.targets.clear();
                    self.targets.extend(window.iter().map(|q| q.label.class()));
                    softmax_cross_entropy_into(&self.logits, &self.targets, &mut self.dlogits)
                }
                Task::Affinity => {
                    // Every row is overwritten by set_row; skip the fill.
                    self.target_mat.resize_for_overwrite(b - a, self.logits.cols());
                    for (i, q) in window.iter().enumerate() {
                        self.target_mat.set_row(i, q.label.affinity());
                    }
                    soft_cross_entropy_into(&self.logits, &self.target_mat, &mut self.dlogits)
                }
            };
            total_loss += loss;
            self.model.backward_ws(&self.cache, &self.dlogits, &mut self.ws);
            self.opt.step_visit(&mut self.model);
        }
        // Consume exactly what was swept. Each trained-on example is
        // consumed by exactly one round; with more windows than steps the
        // un-swept tail stays buffered (it was never trained on). What
        // persists across a checkpoint is weights + optimizer state, not
        // the buffer — hence the flush-before-checkpoint discipline.
        let swept = steps.min(self.windows.len());
        let consumed: usize = self.windows[..swept].iter().map(|&(a, b)| b - a).sum();
        if swept == self.windows.len() {
            self.filled = 0;
            self.head = 0;
        } else {
            self.head = (self.head + consumed) % self.cfg.buffer_capacity;
            self.filled -= consumed;
        }
        self.since_tune = 0;
        self.tunes += 1;
        self.sync_buffer_gauge();
        FineTuneReport {
            steps,
            examples: consumed,
            mean_loss: total_loss / steps as f32,
            published: false,
        }
    }

    /// Publishes the trainer's current weights into `predictor` (the
    /// standalone counterpart of the service's atomic publish;
    /// allocation-free).
    pub fn publish_to(&self, predictor: &mut StreamingPredictor) {
        predictor.set_model_weights(&self.model);
    }

    /// Snapshots the optimizer for a checkpoint (`&mut` only because
    /// parameter access goes through `Parameterized::params_mut`).
    pub fn checkpoint(&mut self) -> AdamState {
        self.model.extract_adam_state(self.opt.steps())
    }

    /// Snapshots the replay buffer and lifetime counters for a durable
    /// checkpoint — storage order and ring cursors verbatim, so a restored
    /// trainer's window splits (and therefore its tune rounds) reproduce
    /// bit-identically. The weights + optimizer travel separately, in the
    /// model artifact's `SAVEDOPT` section ([`OnlineTrainer::checkpoint`]).
    pub(crate) fn durable_state(&self) -> crate::durable::TrainerState {
        crate::durable::TrainerState {
            task: self.task,
            buffer: self.buffer[..].to_vec(),
            head: self.head,
            filled: self.filled,
            capacity: self.cfg.buffer_capacity,
            labels_seen: self.labels_seen,
            tunes: self.tunes,
            since_tune: self.since_tune,
        }
    }

    /// Restores a [`OnlineTrainer::durable_state`] snapshot into a freshly
    /// resumed trainer. The configured buffer capacity must match the
    /// snapshot's — the ring cursors are only meaningful against the
    /// capacity they were written at.
    pub(crate) fn restore_durable_state(
        &mut self,
        state: crate::durable::TrainerState,
    ) -> Result<(), SplashError> {
        if state.capacity != self.cfg.buffer_capacity {
            return Err(SplashError::InvalidConfig {
                what: format!(
                    "checkpointed replay buffer has capacity {}, the service is \
                     configured for {} (online buffer_capacity must match across \
                     restarts)",
                    state.capacity, self.cfg.buffer_capacity
                ),
            });
        }
        if state.task != self.task {
            return Err(SplashError::InvalidConfig {
                what: format!(
                    "checkpointed trainer optimizes {:?}, this trainer {:?}",
                    state.task, self.task
                ),
            });
        }
        self.buffer = state.buffer;
        self.head = state.head;
        self.filled = state.filled;
        self.labels_seen = state.labels_seen;
        self.tunes = state.tunes;
        self.since_tune = state.since_tune;
        self.sync_buffer_gauge();
        Ok(())
    }

    /// The trainer's current (possibly unpublished) model.
    pub fn model(&self) -> &SlimModel {
        &self.model
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &OnlineConfig {
        &self.cfg
    }

    /// The task whose loss this trainer optimizes — also the label format
    /// it accepts (class index vs. affinity vector), which is how the wire
    /// front end knows how to parse a label payload for this model.
    pub fn task(&self) -> Task {
        self.task
    }

    /// Labeled examples currently waiting in the replay buffer.
    pub fn buffered(&self) -> usize {
        self.filled
    }

    /// Total labeled examples absorbed over the trainer's lifetime.
    pub fn labels_seen(&self) -> u64 {
        self.labels_seen
    }

    /// Tune rounds completed.
    pub fn tunes(&self) -> u64 {
        self.tunes
    }

    /// Adam steps taken (the optimizer's bias-correction clock — survives
    /// checkpoints).
    pub fn steps(&self) -> u64 {
        self.opt.steps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::FeatureProcess;
    use crate::config::SplashConfig;
    use crate::truncate_to_available;
    use datasets::synthetic_shift;

    fn setup() -> (datasets::Dataset, StreamingPredictor) {
        let dataset = truncate_to_available(&synthetic_shift(40, 6), 0.5);
        let mut cfg = SplashConfig::tiny();
        cfg.epochs = 2;
        let p = StreamingPredictor::train_with_process(&dataset, &cfg, FeatureProcess::Random);
        (dataset, p)
    }

    #[test]
    fn invalid_online_configs_are_rejected() {
        for breakage in [
            (&|c: &mut OnlineConfig| c.buffer_capacity = 0) as &dyn Fn(&mut OnlineConfig),
            &|c| c.batch_size = 0,
            &|c| c.steps_per_tune = 0,
            &|c| c.lr = f32::NAN,
            &|c| c.lr = -1.0,
            &|c| c.policy = FineTunePolicy::EveryLabels(0),
        ] {
            let mut cfg = OnlineConfig::default();
            breakage(&mut cfg);
            assert!(matches!(cfg.validate(), Err(SplashError::InvalidConfig { .. })));
        }
        OnlineConfig::default().validate().unwrap();
    }

    #[test]
    fn fine_tune_on_an_empty_buffer_is_a_no_op() {
        let (dataset, predictor) = setup();
        let mut trainer =
            OnlineTrainer::for_predictor(OnlineConfig::default(), &predictor, dataset.task)
                .unwrap();
        let mut before = trainer.model().clone();
        let report = trainer.fine_tune();
        assert_eq!(report.steps, 0);
        assert_eq!(report.examples, 0);
        let mut after = trainer.model().clone();
        use nn::Parameterized;
        for (p, q) in before.params_mut().into_iter().zip(after.params_mut()) {
            assert_eq!(p.value.data(), q.value.data());
        }
    }

    #[test]
    fn absorb_then_tune_changes_the_trainer_not_the_served_model() {
        let (dataset, mut predictor) = setup();
        let mut trainer =
            OnlineTrainer::for_predictor(OnlineConfig::default(), &predictor, dataset.task)
                .unwrap();
        let t0 = predictor.last_time();
        for i in 0..20u32 {
            trainer
                .absorb(&predictor, i % 40, t0 + i as f64, &ctdg::Label::Class((i % 2) as usize))
                .unwrap();
        }
        assert_eq!(trainer.buffered(), 20);
        let probe = predictor.try_predict(3, t0 + 100.0).unwrap();
        let report = trainer.fine_tune();
        assert_eq!(report.steps, OnlineConfig::default().steps_per_tune);
        assert_eq!(report.examples, 20);
        assert_eq!(trainer.buffered(), 0, "tune rounds drain the buffer");
        // The served model is untouched until publish...
        assert_eq!(predictor.try_predict(3, t0 + 100.0).unwrap(), probe);
        trainer.publish_to(&mut predictor);
        // ...and changed after (fine-tuning on fresh labels moves weights).
        assert_ne!(predictor.try_predict(3, t0 + 100.0).unwrap(), probe);
    }

    #[test]
    fn replay_buffer_overwrites_the_oldest_when_full() {
        let (dataset, predictor) = setup();
        let cfg = OnlineConfig { buffer_capacity: 8, ..OnlineConfig::default() };
        let mut trainer = OnlineTrainer::for_predictor(cfg, &predictor, dataset.task).unwrap();
        let t0 = predictor.last_time();
        for i in 0..20u32 {
            trainer
                .absorb(&predictor, i % 40, t0 + i as f64, &ctdg::Label::Class(0))
                .unwrap();
        }
        assert_eq!(trainer.buffered(), 8);
        assert_eq!(trainer.labels_seen(), 20);
        let report = trainer.fine_tune();
        assert_eq!(report.examples, 8);
    }

    /// Regression: with more buffered windows than `steps_per_tune`, the
    /// round must consume only what it trained on — the backlog stays
    /// buffered instead of being silently discarded (and the report must
    /// not overstate the consumed count).
    #[test]
    fn backlog_beyond_the_step_budget_stays_buffered() {
        let (dataset, predictor) = setup();
        let cfg = OnlineConfig {
            buffer_capacity: 64,
            batch_size: 4,
            steps_per_tune: 2,
            ..OnlineConfig::default()
        };
        let mut trainer = OnlineTrainer::for_predictor(cfg, &predictor, dataset.task).unwrap();
        let t0 = predictor.last_time();
        for i in 0..20u32 {
            trainer
                .absorb(&predictor, i % 40, t0 + i as f64, &ctdg::Label::Class(0))
                .unwrap();
        }
        // 20 examples / batch 4 = 5 windows; 2 steps sweep 8 examples.
        let report = trainer.fine_tune();
        assert_eq!(report.steps, 2);
        assert_eq!(report.examples, 8);
        assert_eq!(trainer.buffered(), 12, "un-swept backlog must survive the round");
        // Two more rounds work through the backlog oldest-first.
        assert_eq!(trainer.fine_tune().examples, 8);
        let last = trainer.fine_tune();
        assert_eq!(last.examples, 4);
        assert_eq!(trainer.buffered(), 0);
    }

    /// Regression: a label that does not fit the model's task is a typed
    /// error at absorb time, not a panic inside a later tune round.
    #[test]
    fn mismatched_labels_are_typed_errors() {
        let (dataset, predictor) = setup();
        let mut trainer =
            OnlineTrainer::for_predictor(OnlineConfig::default(), &predictor, dataset.task)
                .unwrap();
        let t = predictor.last_time() + 1.0;
        // Classification model: affinity labels and out-of-range classes
        // are both rejected.
        for bad in [
            ctdg::Label::Affinity(Box::new([0.5, 0.5])),
            ctdg::Label::Class(usize::MAX),
        ] {
            let err = trainer.absorb(&predictor, 0, t, &bad).unwrap_err();
            assert!(matches!(err, SplashError::LabelMismatch { .. }), "{err:?}");
        }
        assert_eq!(trainer.buffered(), 0);
        // A fitting label still lands.
        trainer.absorb(&predictor, 0, t, &ctdg::Label::Class(1)).unwrap();
        assert_eq!(trainer.buffered(), 1);
    }

    /// Regression: NaN slips past every `<` comparison, so a NaN
    /// timestamp (or NaN affinity mass, on an affinity model) would be
    /// captured, trained on, and published as NaN weights. Both are typed
    /// errors at absorb time instead.
    #[test]
    fn non_finite_observations_are_rejected() {
        let (dataset, predictor) = setup();
        let mut trainer =
            OnlineTrainer::for_predictor(OnlineConfig::default(), &predictor, dataset.task)
                .unwrap();
        for bad_time in [f64::NAN, f64::INFINITY] {
            let err = trainer
                .absorb(&predictor, 0, bad_time, &ctdg::Label::Class(0))
                .unwrap_err();
            assert!(matches!(err, SplashError::LabelMismatch { .. }), "{err:?}");
        }
        assert_eq!(trainer.buffered(), 0);
        // Affinity-mass finiteness is validated on affinity models.
        let affinity_trainer =
            OnlineTrainer::for_predictor(OnlineConfig::default(), &predictor, Task::Affinity)
                .unwrap();
        let poisoned = {
            let mut mass = vec![0.0f32; predictor.out_dim()];
            mass[0] = f32::NAN;
            ctdg::Label::Affinity(mass.into())
        };
        let err = affinity_trainer.validate_label(&poisoned).unwrap_err();
        assert!(matches!(err, SplashError::LabelMismatch { .. }), "{err:?}");
    }

    #[test]
    fn past_time_labels_are_rejected() {
        let (dataset, predictor) = setup();
        let mut trainer =
            OnlineTrainer::for_predictor(OnlineConfig::default(), &predictor, dataset.task)
                .unwrap();
        let err = trainer
            .absorb(&predictor, 0, predictor.last_time() - 1.0, &ctdg::Label::Class(0))
            .unwrap_err();
        assert!(matches!(err, SplashError::PastQuery { .. }), "{err:?}");
        assert_eq!(trainer.buffered(), 0);
    }
}
