//! Rendering a [`Comparison`] as the `uc policy` cost-vs-coverage table
//! or as CSV. Pure string formatting over exact integer mNh totals, so
//! output is byte-deterministic whenever the comparison is.

use crate::replay::{Comparison, PolicyRun};

/// Milli-node-hours → "node-hours" with exact three decimals.
pub fn fmt_nh(mnh: u64) -> String {
    format!("{}.{:03}", mnh / 1_000, mnh % 1_000)
}

/// The human table: header block with the replay parameters, then one
/// row per policy with cost, coverage, action mix, and regret.
pub fn render_table(cmp: &Comparison) -> String {
    let mut out = String::new();
    out.push_str("policy cost-vs-coverage\n");
    out.push_str(&format!(
        "  days {}..={}  train {} days  eval from day {}  seed {}\n",
        cmp.first_day, cmp.last_day, cmp.train_len, cmp.eval_start, cmp.seed
    ));
    out.push_str(&format!(
        "  faults {} total, {} in eval window  managed nodes {}\n\n",
        cmp.total_faults, cmp.eval_faults, cmp.managed_nodes
    ));
    out.push_str(&format!(
        "  {:<18} {:>12} {:>12} {:>9} {:>7} {:>9} {:>7} {:>5} {:>5} {:>7} {:>7} {:>12}\n",
        "policy",
        "cost(nh)",
        "train(nh)",
        "mitigated",
        "missed",
        "unmanaged",
        "observe",
        "ckpt",
        "quar",
        "retire",
        "migrate",
        "regret(nh)"
    ));
    for run in &cmp.runs {
        let regret = cmp
            .regret_mnh(run)
            .map(fmt_nh)
            .unwrap_or_else(|| "-".to_string());
        out.push_str(&format!(
            "  {:<18} {:>12} {:>12} {:>9} {:>7} {:>9} {:>7} {:>5} {:>5} {:>7} {:>7} {:>12}\n",
            run.kind.label(),
            fmt_nh(run.eval_cost_mnh),
            fmt_nh(run.train_cost_mnh),
            run.mitigated,
            run.missed,
            run.unmanaged_missed,
            run.actions[0],
            run.actions[1],
            run.actions[2],
            run.actions[3],
            run.actions[4],
            regret,
        ));
    }
    out
}

/// CSV export: one row per policy, exact integer mNh columns.
pub fn render_csv(cmp: &Comparison) -> String {
    let mut out = String::from(
        "policy,eval_cost_mnh,train_cost_mnh,mitigated,missed,unmanaged_missed,\
         observe,checkpoint,quarantine,retire,migrate,regret_mnh\n",
    );
    for run in &cmp.runs {
        let regret = cmp
            .regret_mnh(run)
            .map(|r| r.to_string())
            .unwrap_or_default();
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{}\n",
            run.kind.label(),
            run.eval_cost_mnh,
            run.train_cost_mnh,
            run.mitigated,
            run.missed,
            run.unmanaged_missed,
            run.actions[0],
            run.actions[1],
            run.actions[2],
            run.actions[3],
            run.actions[4],
            regret,
        ));
    }
    out
}

/// The worst (highest eval cost) static baseline in the comparison.
pub fn worst_static(cmp: &Comparison) -> Option<&PolicyRun> {
    use crate::replay::PolicyKind::*;
    cmp.runs
        .iter()
        .filter(|r| matches!(r.kind, Never | AlwaysCheckpoint | Threshold))
        .max_by_key(|r| r.eval_cost_mnh)
}

/// The best (lowest eval cost) static baseline in the comparison.
pub fn best_static(cmp: &Comparison) -> Option<&PolicyRun> {
    use crate::replay::PolicyKind::*;
    cmp.runs
        .iter()
        .filter(|r| matches!(r.kind, Never | AlwaysCheckpoint | Threshold))
        .min_by_key(|r| r.eval_cost_mnh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{run_comparison, PolicyKind, ReplayConfig};

    #[test]
    fn fmt_nh_renders_exact_millis() {
        assert_eq!(fmt_nh(0), "0.000");
        assert_eq!(fmt_nh(1), "0.001");
        assert_eq!(fmt_nh(12_000), "12.000");
        assert_eq!(fmt_nh(24_105), "24.105");
    }

    #[test]
    fn table_and_csv_cover_every_run() {
        let cmp = run_comparison(&[], PolicyKind::ALL.as_ref(), &ReplayConfig::default());
        let table = render_table(&cmp);
        let csv = render_csv(&cmp);
        for kind in PolicyKind::ALL {
            assert!(
                table.contains(kind.label()),
                "table missing {}",
                kind.label()
            );
            assert!(csv.contains(kind.label()), "csv missing {}", kind.label());
        }
        assert_eq!(csv.lines().count(), 1 + cmp.runs.len());
        // Byte-determinism of rendering itself.
        assert_eq!(table, render_table(&cmp));
        assert_eq!(csv, render_csv(&cmp));
    }
}
