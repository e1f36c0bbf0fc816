//! # unprotected-computing — umbrella crate
//!
//! Reproduction of *"Unprotected Computing: A Large-Scale Study of DRAM Raw
//! Error Rate on a Supercomputer"* (Bautista-Gomez et al., SC 2016).
//!
//! This crate re-exports every subsystem of the workspace under one roof so
//! examples and downstream users can depend on a single crate:
//!
//! - [`simclock`]: virtual time, calendars, solar geometry, PRNG.
//! - [`parallel`]: the small data-parallel runtime used by the campaign.
//! - [`dram`]: the ECC-less LPDDR device model and the ECC codecs used to
//!   classify corruptions.
//! - [`thermal`]: room/node thermal model with positional effects.
//! - [`faults`]: fault-process models (cosmic, weak bit, degradation, flood).
//! - [`cluster`]: the prototype topology (72 blades x 15 SoCs).
//! - [`sched`]: the job scheduler that opens idle scan windows.
//! - [`memscan`]: the memory scanner tool (simulated-device and host modes).
//! - [`faultlog`]: log records, text codec, stores and streaming readers.
//! - [`analysis`]: the paper's full analysis suite (extraction, statistics,
//!   per-figure analyses).
//! - [`faultdb`]: the columnar fault database — binary store, query
//!   engine, and line-protocol server (`uc build-db` / `query` / `serve`).
//! - [`resilience`]: quarantine / page-retirement / checkpointing simulators
//!   plus the day-lease mitigation action cost surface.
//! - [`policy`]: the online mitigation policy engine behind `uc policy` —
//!   per-day feature extraction, static baselines, a seeded tabular
//!   bandit, and the clairvoyant oracle lower bound.
//! - [`core`]: campaign configuration, runner, and report generation.
//!
//! See `README.md` for a quickstart and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.
//!
//! ```
//! use unprotected_computing::core::{run_campaign, CampaignConfig, Report};
//!
//! // A 6-blade slice of the machine over the full 13-month window.
//! let result = run_campaign(&CampaignConfig::small(42, 6));
//! let report = Report::build(&result);
//! assert!(report.headline.independent_faults > 10_000);
//! assert_eq!(report.multibit.max_bit_distance, 11);
//! ```

pub mod direct;

pub use uc_analysis as analysis;
pub use uc_cluster as cluster;
pub use uc_dram as dram;
pub use uc_faultdb as faultdb;
pub use uc_faultlog as faultlog;
pub use uc_faults as faults;
pub use uc_memscan as memscan;
pub use uc_parallel as parallel;
pub use uc_policy as policy;
pub use uc_resilience as resilience;
pub use uc_sched as sched;
pub use uc_simclock as simclock;
pub use uc_thermal as thermal;
pub use unprotected_core as core;
