//! Order statistics and the timed-phase recorder shared by every workload.

use std::time::{Duration, Instant};

/// The `q`-quantile of `values` by nearest rank (`q` in `[0, 1]`); 0 for
/// an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values` (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nanoseconds elapsed since `start`, as `f64`.
pub fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// Requests sent and requests that failed, per workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Requests and operations attempted.
    pub attempted: u64,
    /// Of those, the ones that returned an error or a non-200 status.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `ok` says whether it succeeded.
    pub fn note(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Which share of a phase the contention-robust statistics look at: the
/// fastest hundredth.
pub const CLEAN_SHARE: f64 = 0.01;

/// Client-side latencies and throughput windows of one closed-loop timed
/// phase.
///
/// The host this benchmark was sized on is shared: other tenants slow the
/// whole machine by up to 2× for seconds at a time, and the same request
/// runs in a fast and a ~1.6× slower mode whose mix changes from second to
/// second and from run to run. Any phase-wide mean or median follows that
/// mix. So the reported latency is the [`CLEAN_SHARE`] quantile of all the
/// phase's latencies of one kind (the fast mode's lower edge, as long as a
/// few percent of the requests ran fast), and the reported throughput the
/// `1 - CLEAN_SHARE` quantile of the edge rates of short windows of
/// `window_rounds` rounds. Contention only ever slows a request down, so
/// these track the program's own speed.
#[derive(Debug)]
pub struct Phase {
    /// Ingest request latencies, ns.
    pub ingest_ns: Vec<f64>,
    /// Predict request latencies, ns.
    pub predict_ns: Vec<f64>,
    /// Label request latencies, ns.
    pub labels_ns: Vec<f64>,
    /// Whole-round latencies, ns.
    pub round_ns: Vec<f64>,
    windows: Windows,
    window_rounds: u64,
    /// Rounds completed.
    pub rounds: u64,
    /// Edges acknowledged.
    pub edges: u64,
    started: Instant,
    deadline: Instant,
    length: Duration,
}

/// Per-window edge rates and where the open window starts.
#[derive(Debug)]
struct Windows {
    rates: Vec<f64>,
    start: Instant,
    edges: u64,
    rounds: u64,
}

impl Windows {
    /// Opens a new window now.
    fn restart(&mut self) {
        self.start = Instant::now();
        self.edges = 0;
        self.rounds = 0;
    }
}

impl Phase {
    /// A phase that lasts `length` from now, windowed every
    /// `window_rounds` rounds.
    pub fn new(length: Duration, window_rounds: u64) -> Self {
        let now = Instant::now();
        Self {
            ingest_ns: Vec::with_capacity(1 << 16),
            predict_ns: Vec::with_capacity(1 << 18),
            labels_ns: Vec::with_capacity(1 << 16),
            round_ns: Vec::with_capacity(1 << 16),
            windows: Windows {
                rates: Vec::with_capacity(1 << 14),
                start: now,
                edges: 0,
                rounds: 0,
            },
            window_rounds: window_rounds.max(1),
            rounds: 0,
            edges: 0,
            started: now,
            deadline: now + length,
            length,
        }
    }

    /// Whether the phase's time is up.
    pub fn done(&self) -> bool {
        Instant::now() >= self.deadline
    }

    /// Share of the phase's running time elapsed so far, in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        let left = self.deadline.saturating_duration_since(Instant::now());
        1.0 - left.as_secs_f64() / self.length.as_secs_f64()
    }

    /// Whether the phase has reached the next of `pauses` evenly spaced
    /// pause points, `done` of them having been taken.
    pub fn pause_due(&self, done: usize, pauses: usize) -> bool {
        done < pauses && self.progress() >= (done + 1) as f64 / (pauses + 1) as f64
    }

    /// Runs `f` outside the phase: the deadline moves by `f`'s duration
    /// and the open window restarts after it, so no window spans it.
    pub fn interrupt<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.deadline += t.elapsed();
        self.windows.restart();
        out
    }

    /// Drops every sample and window so far (a warm-up the statistics
    /// should not see); the phase's clock keeps running.
    pub fn discard(&mut self) {
        self.ingest_ns.clear();
        self.predict_ns.clear();
        self.labels_ns.clear();
        self.round_ns.clear();
        self.windows.rates.clear();
        self.windows.restart();
    }

    /// Closes one round that acknowledged `edges` edges and took
    /// `round_ns`.
    pub fn end_round(&mut self, edges: u64, round_ns: f64) {
        self.rounds += 1;
        self.edges += edges;
        self.round_ns.push(round_ns);
        let w = &mut self.windows;
        w.edges += edges;
        w.rounds += 1;
        if w.rounds == self.window_rounds {
            w.rates
                .push(w.edges as f64 / w.start.elapsed().as_secs_f64());
            w.restart();
        }
    }

    /// Wall time since the phase started, seconds.
    pub fn wall_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Edges per second in the least-contended windows (the phase-wide
    /// rate when no window completed).
    pub fn edges_per_s(&self) -> f64 {
        if self.windows.rates.is_empty() {
            self.edges as f64 / self.wall_s()
        } else {
            quantile(&self.windows.rates, 1.0 - CLEAN_SHARE)
        }
    }
}

/// A latency in the least-contended part of a phase, or the fastest of a
/// few restarts: the [`CLEAN_SHARE`] quantile of `latencies`.
pub fn clean_latency(latencies: &[f64]) -> f64 {
    quantile(latencies, CLEAN_SHARE)
}
