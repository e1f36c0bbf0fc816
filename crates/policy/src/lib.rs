//! policy — the online mitigation policy engine behind `uc policy`.
//!
//! The analysis stack so far asks *what happened*: raw fault rates,
//! spatial structure, correctable/uncorrectable splits. This crate asks
//! what an operator could have *done about it*, online: replay a sealed
//! campaign one simulated day at a time (through faultdb's pruned
//! [`uc_faultdb::days`] stream), and each day, for each node with fault
//! history, pick a cost-aware mitigation lease —
//! [`uc_resilience::MitigationAction`]: observe, checkpoint, quarantine,
//! retire the hot row, or migrate the job — then charge the realized
//! cost against a shared integer cost surface.
//!
//! The layers:
//!
//! * [`features`] — per-node history accumulation and the strictly-past
//!   feature vector (rates by class and flip direction, inter-arrival,
//!   spatial spread, temperature regime), discretized into the bandit's
//!   60 states.
//! * [`bandit`] — a seeded, integer-exact tabular epsilon-greedy
//!   learner; eval decisions are frozen greedy and consume no RNG.
//! * [`policies`] — the [`policies::Policy`] trait: static baselines
//!   (never / always-checkpoint / threshold-on-count), the bandit, and
//!   the clairvoyant per-day oracle.
//! * [`mod@replay`] — the train/eval day-replay driver and the side-by-side
//!   [`replay::Comparison`]; day-lease semantics make the oracle a
//!   provable lower bound on every policy's cost.
//! * [`report`] — the cost-vs-coverage table and CSV export.
//!
//! Everything is integer milli-node-hours end to end; a comparison is
//! byte-identical across reruns at a fixed seed and across thread
//! counts (`tests/policy_replay.rs` proves both, plus the oracle bound,
//! by proptest and by exhaustive enumeration on tiny streams).

pub mod bandit;
pub mod features;
pub mod policies;
pub mod replay;
pub mod report;

pub use bandit::Bandit;
pub use features::{Features, NodeHistory, HOT_PAGE_AFTER, RECENT_WINDOW_DAYS, STATE_BINS};
pub use policies::{
    AlwaysCheckpoint, BanditPolicy, Decision, Never, Oracle, Policy, ThresholdOnCount,
};
pub use replay::{
    replay, run_comparison, train_len, Comparison, PolicyKind, PolicyRun, ReplayConfig,
};
pub use report::{best_static, eval_cost_of, fmt_nh, render_csv, render_table, worst_static};
