//! End-to-end and per-layer benchmark of the Hawk reproduction.
//!
//! One command (`src/main.rs`) runs a named workload single-threaded in one
//! process for a fixed host-time budget and prints its metrics as JSON:
//! with `--trace 0` the end-to-end metrics of [`spec::END_TO_END`], with
//! `--trace 1` the per-layer metrics of [`spec::PER_LAYER`] from a traced
//! run. Every cell's output is checked ([`check`]); a cell that fails
//! counts as failed, never as slow.
//!
//! Layers are measured from outside, through public entry points only:
//! `hawk-workload`'s generator, `Driver::with_scheduler` /
//! `Driver::step_events` / `Driver::run`, the `Scheduler` trait (through
//! [`timed::TimedScheduler`]), `Experiment::run_on` and `run_prototype`.
//! `hawk-cluster`, `hawk-simcore` and `hawk-net` run only inside the
//! driver, so [`standalone`] times their public functions directly at the
//! workload's size.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod runner;
pub mod spans;
pub mod spec;
pub mod standalone;
pub mod timed;
pub mod workloads;
