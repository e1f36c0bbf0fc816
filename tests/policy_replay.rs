//! Policy engine contracts, end to end and by property:
//!
//! 1. **Conservation** — every policy accounts for exactly the faults in
//!    the evaluation window: mitigated + missed + unmanaged.
//! 2. **Oracle lower bound** — the clairvoyant per-day argmin costs no
//!    more than any policy, on arbitrary streams (proptest) and against
//!    an *exhaustive* enumeration of every possible action sequence on a
//!    tiny stream (the oracle is the global optimum over all 5^k
//!    assignments, not merely better than our three baselines).
//! 3. **Determinism** — byte-identical comparisons across reruns at a
//!    fixed seed and across worker pools of 1, 2, and 8 threads.
//! 4. **One pass** — a comparison feeds every policy the same decisions,
//!    so each kind's run inside it equals that kind replayed alone.
//!
//! The end-to-end variants run through a sealed database and the real
//! `Engine::collect_days` feed; the property tests drive `replay`
//! directly on generated day streams.

use std::fs;
use std::path::Path;

use proptest::prelude::*;

use unprotected_computing::analysis::fault::Fault;
use unprotected_computing::cluster::NodeId;
use unprotected_computing::faultdb::format::write_db;
use unprotected_computing::faultdb::{DayFaults, Engine, WriteOptions};
use unprotected_computing::faultlog::ingest::{recover_text, IngestStats};
use unprotected_computing::faultlog::store::ClusterLog;
use unprotected_computing::parallel::with_thread_limit;
use unprotected_computing::policy::{
    render_csv, render_table, replay, run_comparison, NodeHistory, PolicyKind, ReplayConfig,
};
use unprotected_computing::resilience::{day_cost, CostModel, MitigationAction};
use unprotected_computing::simclock::SimTime;

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

/// Build a contiguous day stream (empties included) from (day, node,
/// vaddr) placements, faults ordered by time within each day.
fn stream(span: i64, placements: &[(i64, u32, u64)]) -> Vec<DayFaults> {
    (0..span)
        .map(|day| {
            let mut faults: Vec<Fault> = placements
                .iter()
                .enumerate()
                .filter(|&(_, &(d, _, _))| d == day)
                .map(|(i, &(d, node, vaddr))| fault(node, d * 86_400 + i as i64, vaddr))
                .collect();
            faults.sort_by_key(|f| (f.time.as_secs(), f.node.0));
            DayFaults { day, faults }
        })
        .collect()
}

/// A month-long sealed database with three node personalities, built
/// through the real ingest + seal pipeline.
fn sealed_campaign_db(dir: &Path) -> Engine {
    const DAY: i64 = 86_400;
    let mut stats = IngestStats::default();
    let mut logs = Vec::new();
    // Volumes stay balanced under the snapshot flood filter (a node
    // holding more than half the raw errors would be excluded).
    for (name, days_and_pages) in [
        // Hot-page repeater: same page daily.
        ("01-01", (2..20).map(|d| (d, 0x5000u64)).collect::<Vec<_>>()),
        // Scattered: a fault every other day on fresh pages.
        (
            "01-09",
            (0..16)
                .map(|k| (2 * k + 1, 0x40_000 + 0x3000 * k as u64))
                .collect(),
        ),
        // Quiet: four isolated faults.
        (
            "05-03",
            vec![
                (6, 0x90_000),
                (13, 0x98_000),
                (19, 0xa0_000),
                (26, 0xa8_000),
            ],
        ),
    ] {
        let mut text = format!("START t=0 node={name} alloc=3221225472 temp=30.0\n");
        for (d, vaddr) in days_and_pages {
            text.push_str(&format!(
                "ERROR t={t} node={name} vaddr=0x{vaddr:08x} page=0x{page:06x} \
                 expected=0xffffffff actual=0xfffffffe temp=39.0\n",
                t = d as i64 * DAY + 600,
                page = vaddr >> 12
            ));
        }
        text.push_str(&format!("END t=2600000 node={name} temp=31.0\n"));
        let rec = recover_text(&text);
        stats.merge(&rec.stats);
        logs.push(rec.log);
    }
    let snap =
        unprotected_computing::faultdb::Snapshot::from_cluster(&ClusterLog::new(logs), stats);
    let path = dir.join("campaign.ucfdb");
    write_db(&snap, &path, &WriteOptions::default()).unwrap();
    Engine::open_auto(&path).unwrap()
}

#[test]
fn sealed_campaign_conservation_bound_and_determinism() {
    let dir = std::env::temp_dir().join(format!("uc-policy-it-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let db = sealed_campaign_db(&dir);
    let days = db.collect_days().unwrap();
    let cfg = ReplayConfig {
        seed: 42,
        ..ReplayConfig::default()
    };

    let cmp = run_comparison(&days, &PolicyKind::ALL, &cfg);
    let oracle = cmp.oracle().unwrap();
    for run in &cmp.runs {
        // Conservation + the oracle bound, per policy.
        assert_eq!(run.eval_faults(), cmp.eval_faults, "{}", run.kind.label());
        assert!(
            run.eval_cost_mnh >= oracle.eval_cost_mnh,
            "{}",
            run.kind.label()
        );
    }
    // The learned policy must never lose to the worst static baseline
    // (the beats-BEST-static claim is the paper-scale acceptance check,
    // exercised on the full campaign in CI and EXPERIMENTS.md — a
    // 30-day toy stream is too short for the bandit to converge).
    let bandit = cmp
        .runs
        .iter()
        .find(|r| r.kind == PolicyKind::Bandit)
        .unwrap();
    let worst_static = unprotected_computing::policy::worst_static(&cmp).unwrap();
    assert!(
        bandit.eval_cost_mnh <= worst_static.eval_cost_mnh,
        "bandit {} mNh lost to the worst static {} ({} mNh)",
        bandit.eval_cost_mnh,
        worst_static.kind.label(),
        worst_static.eval_cost_mnh
    );

    // Byte-identical rerun at the same seed, and across thread counts.
    let table = render_table(&cmp);
    let csv = render_csv(&cmp);
    let again = run_comparison(&days, &PolicyKind::ALL, &cfg);
    assert_eq!(render_table(&again), table);
    assert_eq!(render_csv(&again), csv);
    for threads in [1, 2, 8] {
        let t = with_thread_limit(threads, || {
            render_table(&run_comparison(&days, &PolicyKind::ALL, &cfg))
        });
        assert_eq!(t, table, "diverged at {threads} threads");
    }

    let _ = fs::remove_dir_all(&dir);
}

/// Replicate the replay's managed-decision bookkeeping to extract every
/// (faults_today, hot_faults) decision point plus the unmanaged
/// penalty — the raw material for exhaustive enumeration.
fn decision_points(days: &[DayFaults], cost: &CostModel) -> (Vec<(u64, u64)>, u64) {
    use std::collections::BTreeMap;
    let mut histories: BTreeMap<u32, NodeHistory> = BTreeMap::new();
    let mut points = Vec::new();
    let mut unmanaged_mnh = 0u64;
    for day in days {
        let mut by_node: BTreeMap<u32, Vec<&Fault>> = BTreeMap::new();
        for f in &day.faults {
            by_node.entry(f.node.0).or_default().push(f);
        }
        for (&node, hist) in &histories {
            let today = by_node.get(&node).map(Vec::as_slice).unwrap_or(&[]);
            points.push((today.len() as u64, hist.hot_faults(today)));
        }
        for (&node, faults) in &by_node {
            if !histories.contains_key(&node) {
                unmanaged_mnh += cost.miss_mnh * faults.len() as u64;
            }
        }
        for (node, faults) in &by_node {
            histories
                .entry(*node)
                .or_insert_with(|| NodeHistory::new(day.day))
                .absorb_day(day.day, faults);
        }
    }
    (points, unmanaged_mnh)
}

/// Exhaustive optimality: on a tiny stream, enumerate EVERY possible
/// assignment of actions to decision points (5^k sequences) and verify
/// the oracle's replayed total equals the global minimum. No realizable
/// policy of any kind — learning, static, clairvoyant — can beat it.
#[test]
fn oracle_equals_exhaustive_minimum_on_tiny_stream() {
    // 2 nodes, 7 days, train_days=0: both nodes fault on day 0 (their
    // management start) and then produce 6 decision points each... keep
    // k small: span 4 → k = managed node-days.
    let days = stream(
        4,
        &[
            (0, 1, 0x5000),
            (1, 1, 0x5008), // same page: turns hot on absorb
            (2, 1, 0x5010),
            (0, 2, 0x9000),
            (3, 2, 0x9800),
        ],
    );
    let cfg = ReplayConfig {
        train_days: Some(0),
        ..ReplayConfig::default()
    };
    let (points, unmanaged_mnh) = decision_points(&days, &cfg.cost);
    // Node 1 managed from day 1 (3 decisions), node 2 from day 1 (3).
    assert_eq!(points.len(), 6);

    // Enumerate all 5^6 = 15,625 action assignments.
    let actions = MitigationAction::ALL;
    let mut best = u64::MAX;
    let k = points.len();
    for mut code in 0..5u64.pow(k as u32) {
        let mut total = unmanaged_mnh;
        for &(n, hot) in &points {
            let action = actions[(code % 5) as usize];
            code /= 5;
            total = total.saturating_add(day_cost(&cfg.cost, action, n, hot).cost_mnh);
        }
        best = best.min(total);
    }

    let oracle = replay(&days, PolicyKind::Oracle, &cfg);
    assert_eq!(
        oracle.eval_cost_mnh, best,
        "oracle is not the global optimum over all {k}-point action sequences"
    );
}

/// Day-stream placements over a small grid; streams include empty days
/// and first-fault/management-boundary interactions by construction.
fn placements() -> impl Strategy<Value = Vec<(i64, u32, u64)>> {
    proptest::collection::vec(
        (0i64..12, 1u32..5, 0u64..6).prop_map(|(d, n, p)| (d, n, 0x1000 * (1 + p))),
        0..32,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation and the oracle bound hold on arbitrary streams, for
    /// every policy, at an arbitrary train split and seed.
    #[test]
    fn conservation_and_oracle_bound_hold(
        placements in placements(),
        seed in 0u64..1_000,
        train in 0i64..12,
    ) {
        let days = stream(12, &placements);
        let cfg = ReplayConfig { seed, train_days: Some(train), ..ReplayConfig::default() };
        let cmp = run_comparison(&days, &PolicyKind::ALL, &cfg);
        let oracle = cmp.oracle().unwrap();
        for run in &cmp.runs {
            prop_assert_eq!(run.eval_faults(), cmp.eval_faults);
            prop_assert!(run.eval_cost_mnh >= oracle.eval_cost_mnh,
                "{} ({} mNh) beat the oracle ({} mNh)",
                run.kind.label(), run.eval_cost_mnh, oracle.eval_cost_mnh);
        }
    }

    /// A comparison feeds every policy the same decisions in one pass:
    /// each kind's run inside it equals that kind replayed alone, over
    /// every kind and over a subset in reverse kind order.
    #[test]
    fn replay_equals_its_run_inside_a_comparison(
        placements in placements(),
        seed in 0u64..1_000,
        train in 0i64..12,
        mask in 1usize..32,
    ) {
        let days = stream(12, &placements);
        let cfg = ReplayConfig { seed, train_days: Some(train), ..ReplayConfig::default() };
        let reversed: Vec<PolicyKind> = PolicyKind::ALL
            .iter()
            .enumerate()
            .rev()
            .filter(|&(i, _)| mask >> i & 1 == 1)
            .map(|(_, &k)| k)
            .collect();
        for kinds in [PolicyKind::ALL.to_vec(), reversed] {
            let cmp = run_comparison(&days, &kinds, &cfg);
            let mut want = kinds.clone();
            if !want.contains(&PolicyKind::Oracle) {
                want.push(PolicyKind::Oracle);
            }
            let got: Vec<PolicyKind> = cmp.runs.iter().map(|r| r.kind).collect();
            prop_assert_eq!(got, want);
            for run in &cmp.runs {
                prop_assert_eq!(run, &replay(&days, run.kind, &cfg));
            }
        }
    }

    /// Replays are deterministic: same stream, same seed, same bytes —
    /// including under different worker pools.
    #[test]
    fn replay_is_deterministic(
        placements in placements(),
        seed in 0u64..1_000,
    ) {
        let days = stream(12, &placements);
        let cfg = ReplayConfig { seed, ..ReplayConfig::default() };
        let a = run_comparison(&days, &PolicyKind::ALL, &cfg);
        let b = run_comparison(&days, &PolicyKind::ALL, &cfg);
        prop_assert_eq!(&a, &b);
        let t1 = with_thread_limit(1, || run_comparison(&days, &PolicyKind::ALL, &cfg));
        prop_assert_eq!(&a, &t1);
        prop_assert_eq!(render_table(&a), render_table(&t1));
    }
}
