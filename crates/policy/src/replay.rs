//! The day-replay driver: feed a day-ordered fault stream through a
//! policy, charging day-lease costs, and compare policies side by side.
//!
//! ## Protocol
//!
//! The stream is split into a training prefix and an evaluation suffix
//! (`train_days`, default half the span). Each day, every *managed*
//! node — one that faulted on some earlier day — gets exactly one
//! decision from strictly-past features; the chosen action is a one-day
//! lease costed by [`uc_resilience::day_cost`]. Faults on nodes not yet
//! managed (their first fault is today, or they never faulted before)
//! are charged the full miss penalty identically for every policy, so
//! they shift all totals equally and cancel in regret. At end of day the
//! faults are absorbed into the node histories; a node's first fault
//! therefore makes it managed from the *next* day onward.
//!
//! ## Why `oracle ≤ every policy` is a theorem here
//!
//! Leases last one day and histories depend only on the fault stream,
//! never on past actions — so each (node, day) cost is an independent
//! term and the clairvoyant per-day argmin ([`crate::policies::Oracle`])
//! minimizes every term separately. The integration suite proptests
//! this bound over arbitrary streams.
//!
//! ## Determinism
//!
//! A replay is one sequential pass: days ascend, nodes ascend within a
//! day (`BTreeMap` order), and each (node, day) decision is built once and
//! fed to every compared policy in kind order, so the bandit's RNG is
//! consumed in that fixed order. Nothing fans out across policies or
//! threads, so results are byte-identical at any `--threads` setting, and
//! a policy's run is the same alone ([`replay`]) as inside a comparison.

use std::collections::BTreeMap;

use uc_analysis::fault::Fault;
use uc_faultdb::DayFaults;
use uc_resilience::{day_cost, CostModel};

use crate::features::NodeHistory;
use crate::policies::{
    AlwaysCheckpoint, BanditPolicy, Decision, Never, Oracle, Policy, ThresholdOnCount,
};

/// Which policy to replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    Never,
    AlwaysCheckpoint,
    Threshold,
    Bandit,
    Oracle,
}

impl PolicyKind {
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Never,
        PolicyKind::AlwaysCheckpoint,
        PolicyKind::Threshold,
        PolicyKind::Bandit,
        PolicyKind::Oracle,
    ];

    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Never => "never",
            PolicyKind::AlwaysCheckpoint => "always-checkpoint",
            PolicyKind::Threshold => "threshold",
            PolicyKind::Bandit => "bandit",
            PolicyKind::Oracle => "oracle",
        }
    }

    pub fn parse(s: &str) -> Option<PolicyKind> {
        PolicyKind::ALL.into_iter().find(|k| k.label() == s)
    }

    fn instantiate(self, cfg: &ReplayConfig) -> Box<dyn Policy> {
        match self {
            PolicyKind::Never => Box::new(Never),
            PolicyKind::AlwaysCheckpoint => Box::new(AlwaysCheckpoint),
            PolicyKind::Threshold => Box::new(ThresholdOnCount {
                threshold: cfg.threshold,
            }),
            PolicyKind::Bandit => Box::new(BanditPolicy::new(cfg.seed)),
            PolicyKind::Oracle => Box::new(Oracle { cost: cfg.cost }),
        }
    }
}

/// Replay parameters shared by every policy in a comparison.
#[derive(Clone, Copy, Debug)]
pub struct ReplayConfig {
    /// Bandit RNG seed; same seed → byte-identical run.
    pub seed: u64,
    /// Training prefix length in days; `None` = half the span.
    pub train_days: Option<i64>,
    /// Trailing-week fault count that trips the threshold baseline.
    pub threshold: u32,
    /// The cost surface, shared by execution and the oracle.
    pub cost: CostModel,
}

impl Default for ReplayConfig {
    fn default() -> ReplayConfig {
        ReplayConfig {
            seed: 0,
            train_days: None,
            threshold: 3,
            cost: CostModel::default(),
        }
    }
}

/// The accounting of one policy over one stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolicyRun {
    pub kind: PolicyKind,
    /// Cost accrued over training days (mNh). Informational; policies
    /// are compared on evaluation cost only.
    pub train_cost_mnh: u64,
    /// Cost accrued over evaluation days (mNh), including the shared
    /// unmanaged-fault penalty.
    pub eval_cost_mnh: u64,
    /// Evaluation faults covered by a lease (checkpoint soft-landing,
    /// quarantine, migrate, or a retire hit on a hot page).
    pub mitigated: u64,
    /// Evaluation faults on managed nodes that hit unprotected.
    pub missed: u64,
    /// Evaluation faults on nodes not yet managed — charged at full miss
    /// penalty identically for every policy.
    pub unmanaged_missed: u64,
    /// Evaluation-day action counts, indexed by `MitigationAction::index`.
    pub actions: [u64; 5],
    /// Evaluation (node, day) decision points.
    pub eval_decisions: u64,
    /// Nodes that ever became managed over the whole stream.
    pub managed_nodes: u64,
}

impl PolicyRun {
    /// Total faults this run accounted for in the evaluation window.
    pub fn eval_faults(&self) -> u64 {
        self.mitigated + self.missed + self.unmanaged_missed
    }
}

/// One full comparison: every requested policy over the same stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Comparison {
    pub first_day: i64,
    pub last_day: i64,
    /// First evaluation day (= `first_day + train_len`).
    pub eval_start: i64,
    pub train_len: i64,
    pub seed: u64,
    /// Faults in the whole stream.
    pub total_faults: u64,
    /// Faults in the evaluation window.
    pub eval_faults: u64,
    /// Nodes that ever became managed.
    pub managed_nodes: u64,
    pub runs: Vec<PolicyRun>,
}

impl Comparison {
    /// The oracle's run, if it was part of the comparison.
    pub fn oracle(&self) -> Option<&PolicyRun> {
        self.runs.iter().find(|r| r.kind == PolicyKind::Oracle)
    }

    /// `run.eval_cost_mnh - oracle.eval_cost_mnh`, the realized regret.
    pub fn regret_mnh(&self, run: &PolicyRun) -> Option<u64> {
        self.oracle()
            .map(|o| run.eval_cost_mnh.saturating_sub(o.eval_cost_mnh))
    }
}

/// How many leading days of `days` are training under `cfg`.
pub fn train_len(days: &[DayFaults], cfg: &ReplayConfig) -> i64 {
    let span = days.len() as i64;
    cfg.train_days.unwrap_or(span / 2).clamp(0, span)
}

/// Replay one policy over a day-ordered stream (as produced by
/// `Engine::collect_days` — contiguous ascending days, empties included).
/// The one-kind case of [`run_comparison`]'s single pass.
pub fn replay(days: &[DayFaults], kind: PolicyKind, cfg: &ReplayConfig) -> PolicyRun {
    let mut runs = replay_all(days, &[kind], cfg);
    runs.pop().expect("one run per kind")
}

/// Replay every policy in `kinds` over the stream in one pass, returning
/// their runs in `kinds` order. Each day is grouped by node once, and each
/// managed node's [`Decision`] (features, hot-page count) is built once
/// and fed to every policy in `kinds` order: the decision depends only on
/// the fault stream, never on a policy's actions.
fn replay_all(days: &[DayFaults], kinds: &[PolicyKind], cfg: &ReplayConfig) -> Vec<PolicyRun> {
    let mut lanes: Vec<(Box<dyn Policy>, PolicyRun)> = kinds
        .iter()
        .map(|&kind| {
            let run = PolicyRun {
                kind,
                train_cost_mnh: 0,
                eval_cost_mnh: 0,
                mitigated: 0,
                missed: 0,
                unmanaged_missed: 0,
                actions: [0; 5],
                eval_decisions: 0,
                managed_nodes: 0,
            };
            (kind.instantiate(cfg), run)
        })
        .collect();
    let debug = std::env::var("UC_POLICY_DEBUG").is_ok();
    let eval_start = days
        .first()
        .map(|d| d.day + train_len(days, cfg))
        .unwrap_or(0);
    let mut histories: BTreeMap<u32, NodeHistory> = BTreeMap::new();

    for day in days {
        let training = day.day < eval_start;
        let mut by_node: BTreeMap<u32, Vec<&Fault>> = BTreeMap::new();
        for f in &day.faults {
            by_node.entry(f.node.0).or_default().push(f);
        }
        static NO_FAULTS: &[&Fault] = &[];
        // Every managed node gets exactly one decision, ascending.
        for (&node, hist) in &histories {
            let today = by_node.get(&node).map(Vec::as_slice).unwrap_or(NO_FAULTS);
            let features = hist.features(day.day);
            let d = Decision {
                day: day.day,
                node,
                features,
                state: features.state_bin(),
                training,
                faults_today: today.len() as u64,
                faults_on_hot_pages: hist.hot_faults(today),
            };
            for (policy, run) in &mut lanes {
                let action = policy.decide(&d);
                let outcome = day_cost(&cfg.cost, action, d.faults_today, d.faults_on_hot_pages);
                if debug && run.kind == PolicyKind::Bandit {
                    eprintln!(
                        "DBG {} day={} node={} state={} n={} hot={} action={:?} cost={} missed={}",
                        if training { "train" } else { "eval" },
                        d.day,
                        d.node,
                        d.state,
                        d.faults_today,
                        d.faults_on_hot_pages,
                        action,
                        outcome.cost_mnh,
                        outcome.missed
                    );
                }
                policy.learn(&d, action, outcome.cost_mnh);
                if training {
                    run.train_cost_mnh = run.train_cost_mnh.saturating_add(outcome.cost_mnh);
                } else {
                    run.eval_cost_mnh = run.eval_cost_mnh.saturating_add(outcome.cost_mnh);
                    run.mitigated += outcome.mitigated;
                    run.missed += outcome.missed;
                    run.actions[action.index()] += 1;
                    run.eval_decisions += 1;
                }
            }
        }
        // Faults on not-yet-managed nodes miss at full penalty for every
        // policy alike — no lease can exist before the first fault.
        for (&node, faults) in &by_node {
            if histories.contains_key(&node) {
                continue;
            }
            let penalty = cfg.cost.miss_mnh.saturating_mul(faults.len() as u64);
            for (_, run) in &mut lanes {
                if training {
                    run.train_cost_mnh = run.train_cost_mnh.saturating_add(penalty);
                } else {
                    run.eval_cost_mnh = run.eval_cost_mnh.saturating_add(penalty);
                    run.unmanaged_missed += faults.len() as u64;
                }
            }
        }
        // End of day: absorb. First-fault nodes enter management here,
        // so they get their first decision tomorrow.
        for (node, faults) in &by_node {
            histories
                .entry(*node)
                .or_insert_with(|| NodeHistory::new(day.day))
                .absorb_day(day.day, faults);
        }
    }
    lanes
        .into_iter()
        .map(|(_, mut run)| {
            run.managed_nodes = histories.len() as u64;
            run
        })
        .collect()
}

/// Replay every requested policy over the same stream. The oracle is
/// always included (appended if absent) so regret is well-defined. One
/// sequential pass feeds every policy in `kinds` order, so the
/// comparison is byte-identical at any thread count.
pub fn run_comparison(days: &[DayFaults], kinds: &[PolicyKind], cfg: &ReplayConfig) -> Comparison {
    let mut kinds: Vec<PolicyKind> = kinds.to_vec();
    if !kinds.contains(&PolicyKind::Oracle) {
        kinds.push(PolicyKind::Oracle);
    }
    let runs = replay_all(days, &kinds, cfg);
    let first_day = days.first().map(|d| d.day).unwrap_or(0);
    let last_day = days.last().map(|d| d.day).unwrap_or(-1);
    let tl = train_len(days, cfg);
    let eval_start = first_day + tl;
    let total_faults = days.iter().map(|d| d.faults.len() as u64).sum();
    let eval_faults = days
        .iter()
        .filter(|d| d.day >= eval_start)
        .map(|d| d.faults.len() as u64)
        .sum();
    let managed_nodes = runs.first().map(|r| r.managed_nodes).unwrap_or(0);
    Comparison {
        first_day,
        last_day,
        eval_start,
        train_len: tl,
        seed: cfg.seed,
        total_faults,
        eval_faults,
        managed_nodes,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_cluster::NodeId;
    use uc_simclock::SimTime;

    fn fault(node: u32, secs: i64, vaddr: u64) -> Fault {
        Fault {
            node: NodeId(node),
            time: SimTime::from_secs(secs),
            vaddr,
            expected: 0xffff_ffff,
            actual: 0xffff_fffe,
            temp: None,
            raw_logs: 1,
        }
    }

    /// days 0..n with the given (day, node, vaddr) faults, empties kept.
    fn stream(n: i64, faults: &[(i64, u32, u64)]) -> Vec<DayFaults> {
        (0..n)
            .map(|day| DayFaults {
                day,
                faults: faults
                    .iter()
                    .filter(|&&(d, _, _)| d == day)
                    .map(|&(d, node, vaddr)| fault(node, d * 86_400 + i64::from(node), vaddr))
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn empty_stream_yields_zeroed_runs() {
        let cmp = run_comparison(&[], PolicyKind::ALL.as_ref(), &ReplayConfig::default());
        assert_eq!(cmp.total_faults, 0);
        for run in &cmp.runs {
            assert_eq!(run.eval_cost_mnh, 0);
            assert_eq!(run.eval_faults(), 0);
        }
    }

    #[test]
    fn conservation_and_oracle_bound_on_a_small_stream() {
        let days = stream(
            10,
            &[
                (0, 1, 0x1000),
                (2, 1, 0x1008),
                (5, 1, 0x100c),
                (6, 1, 0x1010),
                (7, 2, 0x9000),
                (8, 2, 0x9100),
                (8, 1, 0x1020),
            ],
        );
        let cfg = ReplayConfig {
            train_days: Some(4),
            ..ReplayConfig::default()
        };
        let cmp = run_comparison(&days, PolicyKind::ALL.as_ref(), &cfg);
        assert_eq!(cmp.eval_start, 4);
        assert_eq!(cmp.eval_faults, 5);
        let oracle = cmp.oracle().unwrap().eval_cost_mnh;
        for run in &cmp.runs {
            assert_eq!(run.eval_faults(), cmp.eval_faults, "{}", run.kind.label());
            assert!(run.eval_cost_mnh >= oracle, "{}", run.kind.label());
        }
        // Node 2's first fault (day 7) precedes management; its day-8
        // fault is managed. Node 1 is managed from day 1 onward.
        let never = cmp
            .runs
            .iter()
            .find(|r| r.kind == PolicyKind::Never)
            .unwrap();
        assert_eq!(never.unmanaged_missed, 1);
        assert_eq!(never.missed, 4);
        assert_eq!(never.mitigated, 0);
    }

    #[test]
    fn replay_is_deterministic_per_seed() {
        let days = stream(
            30,
            &[
                (0, 1, 0x1000),
                (3, 1, 0x1004),
                (9, 1, 0x1008),
                (15, 1, 0x100c),
                (20, 1, 0x1010),
            ],
        );
        let cfg = ReplayConfig {
            seed: 1234,
            ..ReplayConfig::default()
        };
        let a = replay(&days, PolicyKind::Bandit, &cfg);
        let b = replay(&days, PolicyKind::Bandit, &cfg);
        assert_eq!(a, b);
        let other = replay(&days, PolicyKind::Bandit, &ReplayConfig { seed: 9, ..cfg });
        // Different seed may or may not change totals, but the struct
        // equality above is the real guarantee; just exercise it.
        let _ = other;
    }

    #[test]
    fn train_days_clamp_to_span() {
        let days = stream(4, &[(0, 1, 0x1000)]);
        let cfg = ReplayConfig {
            train_days: Some(99),
            ..ReplayConfig::default()
        };
        assert_eq!(train_len(&days, &cfg), 4);
        let cmp = run_comparison(&days, &[PolicyKind::Never], &cfg);
        // Everything is training: no eval faults, no eval cost.
        assert_eq!(cmp.eval_faults, 0);
        for run in &cmp.runs {
            assert_eq!(run.eval_cost_mnh, 0);
        }
    }

    #[test]
    fn single_day_stream_has_no_managed_decisions() {
        let days = stream(1, &[(0, 3, 0x2000), (0, 4, 0x3000)]);
        let cfg = ReplayConfig {
            train_days: Some(0),
            ..ReplayConfig::default()
        };
        let cmp = run_comparison(&days, PolicyKind::ALL.as_ref(), &cfg);
        for run in &cmp.runs {
            // Both faults are first faults: unmanaged for every policy,
            // including the oracle — identical totals, zero regret.
            assert_eq!(run.unmanaged_missed, 2);
            assert_eq!(run.eval_decisions, 0);
            assert_eq!(cmp.regret_mnh(run), Some(0));
        }
    }
}
