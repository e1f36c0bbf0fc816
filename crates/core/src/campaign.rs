//! The campaign runner: simulate every scanned node, in parallel,
//! deterministically.

use uc_analysis::extract::{extract_node_faults, is_flood_node, ExtractConfig};
use uc_analysis::fault::Fault;
use uc_cluster::{NodeId, RoleMap};
use uc_faultlog::store::{ClusterLog, NodeLog};
use uc_faults::ScanWindow;
use uc_memscan::{Pattern, SessionSpec};
use uc_parallel::{par_map_supervised, Supervised};
use uc_sched::SessionTermination;
use uc_simclock::rng::{StreamRng, StreamTag};

use crate::config::CampaignConfig;

/// Per-node simulation output.
#[derive(Clone, Debug)]
pub struct NodeSim {
    pub node: NodeId,
    pub log: NodeLog,
    pub faults: Vec<Fault>,
    pub monitored_hours: f64,
    pub terabyte_hours: f64,
}

/// Supervised outcome of one node's simulation: either the simulation
/// output, or a record of the node's worker panicking on every attempt.
/// A failed node degrades the campaign instead of aborting it — the
/// paper's pipeline likewise kept 12 other blades' logs when one node's
/// scanner died.
#[derive(Clone, Debug)]
pub enum NodeOutcome {
    Completed(NodeSim),
    Failed {
        node: NodeId,
        /// Times the simulation was attempted before giving up.
        attempts: u32,
        /// The final panic's message.
        reason: String,
    },
}

impl NodeOutcome {
    pub fn node(&self) -> NodeId {
        match self {
            NodeOutcome::Completed(sim) => sim.node,
            NodeOutcome::Failed { node, .. } => *node,
        }
    }

    /// The simulation output, if the node completed.
    pub fn sim(&self) -> Option<&NodeSim> {
        match self {
            NodeOutcome::Completed(sim) => Some(sim),
            NodeOutcome::Failed { .. } => None,
        }
    }
}

/// The whole campaign's output.
pub struct CampaignResult {
    pub config: CampaignConfig,
    pub roles: RoleMap,
    pub outcomes: Vec<NodeOutcome>,
}

impl CampaignResult {
    /// Completed per-node simulations (the degraded-mode survivors).
    pub fn completed(&self) -> impl Iterator<Item = &NodeSim> {
        self.outcomes.iter().filter_map(NodeOutcome::sim)
    }

    /// Roster of failed nodes: `(node, attempts, reason)`.
    pub fn failed_nodes(&self) -> Vec<(NodeId, u32, &str)> {
        self.outcomes
            .iter()
            .filter_map(|o| match o {
                NodeOutcome::Failed {
                    node,
                    attempts,
                    reason,
                } => Some((*node, *attempts, reason.as_str())),
                NodeOutcome::Completed(_) => None,
            })
            .collect()
    }

    /// True when at least one node failed and the aggregates below cover
    /// only the surviving nodes.
    pub fn is_degraded(&self) -> bool {
        self.outcomes
            .iter()
            .any(|o| matches!(o, NodeOutcome::Failed { .. }))
    }

    /// All faults across the cluster, sorted by the canonical
    /// fully discriminating key (time first, ties by node id).
    pub fn all_faults(&self) -> Vec<Fault> {
        let mut out: Vec<Fault> = self
            .completed()
            .flat_map(|o| o.faults.iter().copied())
            .collect();
        out.sort_by_key(uc_analysis::extract::fault_sort_key);
        out
    }

    /// The cluster log (borrows nothing; clones node logs).
    pub fn cluster_log(&self) -> ClusterLog {
        ClusterLog::new(self.completed().map(|o| o.log.clone()).collect())
    }

    /// Total raw error logs across the cluster.
    pub fn raw_error_logs(&self) -> u64 {
        self.completed().map(|o| o.log.raw_error_count()).sum()
    }

    /// Identify "replaced" nodes the paper filters out before
    /// characterization: any node holding more than `share` of all raw
    /// error logs (the flood node at ~98%).
    pub fn flood_nodes(&self, share: f64) -> Vec<NodeId> {
        let total = self.raw_error_logs();
        self.completed()
            .filter(|o| is_flood_node(o.log.raw_error_count(), total, share))
            .map(|o| o.node)
            .collect()
    }

    /// Fraction of all raw error logs held by the flood nodes. Numerator
    /// and denominator both range over `completed()` — the degraded-mode
    /// roster — so a failed node's lost logs appear in neither. Keeping the
    /// two sides of the ratio in one place makes that consistency
    /// structural rather than a property every caller re-derives.
    pub fn flood_log_share(&self, share: f64) -> f64 {
        let total = self.raw_error_logs();
        if total == 0 {
            return 0.0;
        }
        let flood = self.flood_nodes(share);
        let flood_logs: u64 = self
            .completed()
            .filter(|o| flood.contains(&o.node))
            .map(|o| o.log.raw_error_count())
            .sum();
        flood_logs as f64 / total as f64
    }

    /// Faults excluding the flood nodes — the paper's "after these filters"
    /// dataset (>55k independent errors).
    pub fn characterized_faults(&self) -> Vec<Fault> {
        let flood = self.flood_nodes(0.5);
        let mut out: Vec<Fault> = self
            .completed()
            .filter(|o| !flood.contains(&o.node))
            .flat_map(|o| o.faults.iter().copied())
            .collect();
        out.sort_by_key(uc_analysis::extract::fault_sort_key);
        out
    }

    /// Total monitored node-hours under the conservative accounting.
    pub fn monitored_node_hours(&self) -> f64 {
        self.completed().map(|o| o.monitored_hours).sum()
    }

    /// Total terabyte-hours scanned.
    pub fn terabyte_hours(&self) -> f64 {
        self.completed().map(|o| o.terabyte_hours).sum()
    }
}

/// Simulate one node end to end.
pub(crate) fn simulate_node(cfg: &CampaignConfig, node: NodeId) -> NodeSim {
    // Chaos hook: configs can poison specific nodes to exercise the
    // supervised runner's degraded mode.
    if cfg.panic_nodes.contains(&node) {
        panic!("chaos: injected panic on node {node}");
    }

    // 1. Scheduler: when does this node scan, and with how much memory?
    let plan = cfg.sched.plan_node(node, &cfg.load, cfg.seed);

    // 2. Fault processes, conditioned on the scan windows.
    let windows: Vec<ScanWindow> = plan
        .sessions
        .iter()
        .map(|s| ScanWindow {
            start: s.start,
            end: s.end,
            alloc_words: s.alloc_bytes / 4,
        })
        .collect();
    let profile = cfg.scenario.profile_for_node(cfg.seed, node, &windows);

    // 3. Render sessions into the node's log file.
    let mut log = NodeLog::new(node);
    let mut ops_rng = StreamRng::for_stream(cfg.seed, u64::from(node.0), StreamTag::Operations);
    let thermal = cfg.thermal.node_sampler(node);
    let mut event_cursor = 0usize;
    for s in &plan.sessions {
        let pattern = if ops_rng.chance(cfg.incrementing_fraction) {
            Pattern::incrementing()
        } else {
            Pattern::Alternating
        };
        let spec = SessionSpec {
            node,
            start: s.start,
            end: s.end,
            alloc_words: s.alloc_bytes / 4,
            pattern,
            clean_end: s.termination == SessionTermination::Clean,
        };
        // Events are time-sorted; advance a cursor to this session's span.
        while event_cursor < profile.transients.len()
            && profile.transients[event_cursor].time < s.start
        {
            event_cursor += 1;
        }
        let mut hi = event_cursor;
        while hi < profile.transients.len() && profile.transients[hi].time < s.end {
            hi += 1;
        }
        cfg.scan.render_session(
            &spec,
            &profile.transients[event_cursor..hi],
            &profile.stuck,
            &|t| thermal.sample(t),
            &mut log,
        );
        event_cursor = hi;
    }
    // 4. Extraction: independent faults.
    let faults = extract_node_faults(&log, &ExtractConfig::default());

    NodeSim {
        node,
        monitored_hours: plan.total_monitored_hours(),
        terabyte_hours: plan.total_terabyte_hours(),
        log,
        faults,
    }
}

/// The node roster a config's campaign covers, in deterministic order.
pub(crate) fn campaign_nodes(cfg: &CampaignConfig) -> (RoleMap, Vec<NodeId>) {
    let mut roles = RoleMap::paper_defaults(&cfg.topology);
    // Scenario-designated nodes demonstrably ran: never mark them dead.
    roles.ensure_scanned(&cfg.scenario.special_nodes());
    let nodes: Vec<NodeId> = roles
        .scanned_nodes()
        .into_iter()
        .filter(|n| cfg.topology.is_monitored_blade(*n))
        .collect();
    (roles, nodes)
}

pub(crate) fn supervised_to_outcome(node: NodeId, s: Supervised<NodeSim>) -> NodeOutcome {
    match s {
        Supervised::Ok(sim) => NodeOutcome::Completed(sim),
        Supervised::Panicked { attempts, message } => NodeOutcome::Failed {
            node,
            attempts,
            reason: message,
        },
    }
}

/// Run the campaign over every scanned node, in parallel. Deterministic:
/// the result depends only on `cfg` (including its seed).
///
/// Each node simulation runs supervised: a panic inside one node's worker
/// is caught, retried up to `cfg.node_attempts` times, and finally recorded
/// as a [`NodeOutcome::Failed`] entry so the rest of the campaign survives.
///
/// ```
/// use unprotected_core::{run_campaign, CampaignConfig};
///
/// // An 8-blade slice of the machine, full 13-month window.
/// let result = run_campaign(&CampaignConfig::small(42, 8));
/// assert!(result.raw_error_logs() > 1_000_000);
/// let faults = result.characterized_faults();
/// assert!(faults.len() > 10_000);
/// // Same seed, same everything.
/// let again = run_campaign(&CampaignConfig::small(42, 8));
/// assert_eq!(faults, again.characterized_faults());
/// ```
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignResult {
    let (roles, nodes) = campaign_nodes(cfg);
    let attempts = cfg.node_attempts.max(1);
    let sims = par_map_supervised(&nodes, attempts, |_, &node| simulate_node(cfg, node));
    let outcomes = nodes
        .iter()
        .zip(sims)
        .map(|(&node, s)| supervised_to_outcome(node, s))
        .collect();
    CampaignResult {
        config: cfg.clone(),
        roles,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CampaignResult {
        run_campaign(&CampaignConfig::small(42, 8))
    }

    #[test]
    fn campaign_runs_and_produces_faults() {
        let r = small();
        assert!(!r.outcomes.is_empty());
        let faults = r.all_faults();
        assert!(faults.len() > 1_000, "faults: {}", faults.len());
        assert!(faults.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn flood_node_dominates_raw_logs() {
        let r = small();
        let flood = r.flood_nodes(0.5);
        assert_eq!(flood.len(), 1);
        assert_eq!(flood[0].to_string(), "05-07");
        let flood_logs = r
            .completed()
            .find(|o| o.node == flood[0])
            .unwrap()
            .log
            .raw_error_count();
        let share = flood_logs as f64 / r.raw_error_logs() as f64;
        assert!(share > 0.9, "flood share {share}");
    }

    #[test]
    fn characterized_faults_exclude_flood() {
        let r = small();
        let flood = r.flood_nodes(0.5)[0];
        let faults = r.characterized_faults();
        assert!(faults.iter().all(|f| f.node != flood));
        assert!(faults.len() < r.all_faults().len());
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = run_campaign(&CampaignConfig::small(7, 8));
        let b = run_campaign(&CampaignConfig::small(7, 8));
        assert_eq!(a.all_faults(), b.all_faults());
        assert_eq!(a.raw_error_logs(), b.raw_error_logs());
        let c = run_campaign(&CampaignConfig::small(8, 8));
        assert_ne!(a.all_faults().len(), c.all_faults().len());
    }

    #[test]
    fn hot_node_has_most_characterized_faults() {
        let r = small();
        let faults = r.characterized_faults();
        let hot = NodeId::from_name("02-04").unwrap();
        let hot_count = faults.iter().filter(|f| f.node == hot).count();
        assert!(
            hot_count * 2 > faults.len(),
            "hot node carries the majority: {hot_count}/{}",
            faults.len()
        );
    }

    #[test]
    fn monitored_hours_in_plausible_range() {
        let r = small();
        let per_node = r.monitored_node_hours() / r.completed().count() as f64;
        assert!(
            (3_000.0..7_000.0).contains(&per_node),
            "mean monitored hours {per_node}"
        );
        let tbh = r.terabyte_hours() / r.completed().count() as f64;
        assert!((9.0..20.0).contains(&tbh), "mean TBh {tbh}");
    }

    #[test]
    fn poisoned_node_degrades_instead_of_aborting() {
        let mut cfg = CampaignConfig::small(42, 8);
        let victim = NodeId::from_name("03-03").unwrap();
        cfg.panic_nodes.push(victim);
        let r = run_campaign(&cfg);
        assert!(r.is_degraded());
        let failed = r.failed_nodes();
        assert_eq!(failed.len(), 1);
        let (node, attempts, reason) = failed[0];
        assert_eq!(node, victim);
        assert_eq!(attempts, 1);
        assert!(reason.contains("injected panic"), "reason: {reason}");
        // Every other node's output is intact and identical to the
        // healthy run's.
        let healthy = small();
        assert_eq!(r.completed().count() + 1, healthy.completed().count());
        for (a, b) in r
            .completed()
            .zip(healthy.completed().filter(|o| o.node != victim))
        {
            assert_eq!(a.node, b.node);
            assert_eq!(a.faults, b.faults);
            assert_eq!(a.log.entries(), b.log.entries());
        }
    }

    #[test]
    fn flood_share_consistent_on_degraded_campaign() {
        // A non-flood node fails: its logs must vanish from numerator and
        // denominator alike, so the share stays the direct ratio over the
        // surviving roster.
        let mut cfg = CampaignConfig::small(42, 8);
        cfg.panic_nodes.push(NodeId::from_name("03-03").unwrap());
        let r = run_campaign(&cfg);
        assert!(r.is_degraded());
        let share = r.flood_log_share(0.5);
        assert!((0.0..=1.0).contains(&share), "share {share}");
        let flood = r.flood_nodes(0.5);
        let expected: u64 = r
            .completed()
            .filter(|o| flood.contains(&o.node))
            .map(|o| o.log.raw_error_count())
            .sum();
        assert_eq!(share, expected as f64 / r.raw_error_logs() as f64);
        assert!(share > 0.9, "flood node survived, still dominates: {share}");
    }

    #[test]
    fn flood_share_zero_when_flood_node_itself_fails() {
        // The flood node fails: it is in neither side of the ratio, and no
        // surviving node crosses the 50% threshold.
        let mut cfg = CampaignConfig::small(42, 8);
        cfg.panic_nodes.push(NodeId::from_name("05-07").unwrap());
        let r = run_campaign(&cfg);
        assert!(r.is_degraded());
        assert!(r.raw_error_logs() > 0, "survivors still log errors");
        let share = r.flood_log_share(0.5);
        assert!((0.0..=1.0).contains(&share), "share {share}");
        if r.flood_nodes(0.5).is_empty() {
            assert_eq!(share, 0.0);
        }
    }

    #[test]
    fn healthy_campaign_is_not_degraded() {
        let r = small();
        assert!(!r.is_degraded());
        assert!(r.failed_nodes().is_empty());
        assert_eq!(r.completed().count(), r.outcomes.len());
    }
}
