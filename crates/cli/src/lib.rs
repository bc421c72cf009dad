//! Command-line interface to the SPLASH reproduction.
//!
//! Eight subcommands cover the bring-your-own-data workflow end to end:
//!
//! * `generate` — write any built-in dataset analogue to CSV;
//! * `stats` — Table II-style statistics of a CSV dataset;
//! * `run` — the full SPLASH pipeline (or a fixed-feature SLIM ablation) on
//!   a CSV dataset, printing the selection report and test metric;
//! * `predict` — batch-score the test split with a saved model;
//! * `serve` — streaming deployment through the `SplashService` façade:
//!   load a saved model, replay the post-training period live, report
//!   serving counters and the test metric;
//! * `baseline` — any Table III baseline (or DTDG method) on the same data;
//! * `scenarios` — the scenario matrix: dataset regimes × models streamed
//!   through one multi-tenant service, rendered as a report;
//! * `drift` — distribution-shift diagnostics of a CSV dataset.
//!
//! Invalid input — bad configs, corrupt or version-mismatched model
//! files, out-of-order streams — surfaces as rendered `SplashError`
//! messages with exit code 2, never as a panic.
//!
//! The library half is fully testable: [`dispatch`] takes raw argument
//! tokens and returns the rendered report, so integration tests can drive
//! the CLI without spawning processes.

pub mod args;
pub mod commands;

pub use args::{ArgError, Args};
pub use commands::{dispatch, load_dataset, usage};
