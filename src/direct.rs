//! The direct campaign→db streaming path: `uc campaign --db out.ucfdb`.
//!
//! Historically the only route from a simulation to a sealed fault
//! database took two trips through the filesystem:
//!
//! ```text
//! campaign → node-*.log text corpus → uc build-db → out.ucfdb
//! ```
//!
//! This module wires the campaign runner straight into the database
//! sealer through a typed in-memory fault channel, killing the text
//! middleman while keeping it as the *differential oracle*:
//!
//! * **Producer** — [`run_campaign_checkpointed_with`]'s `on_node` hook
//!   fires on each supervised simulation worker the moment a node
//!   completes (fresh or checkpoint-restored; never for a failed node).
//!   The hook recovers the node's log *in memory* with [`recover_log`]
//!   — proven byte-equivalent to writing the node's text file and
//!   reading it back — and emits the [`Recovered`] into a bounded
//!   [`stage_shared`] channel.
//! * **Consumer** — folds arrivals into a [`DirectFold`]: an
//!   order-insensitive bag, because completion order is
//!   nondeterministic across thread counts.
//! * **Seal** — [`seal_recovered`] imposes the directory reader's total
//!   order (sort by node id), merges ingest stats additively, and runs
//!   the *identical* `Snapshot::from_cluster` → `write_db` tail the text
//!   path uses — including the tmp + fsync + atomic-rename crash
//!   discipline, so a crash mid-seal leaves only a `*.ucfdb.tmp` for
//!   `uc fsck` to quarantine.
//!
//! The contract, enforced by `tests/direct_path.rs`: for the same
//! config, `campaign --db` produces a file **byte-identical** to
//! `campaign --out <plain text logs>` + `uc build-db`, at every thread
//! count and under degraded rosters (failed nodes contribute nothing on
//! either path).

use std::path::Path;

use uc_faultdb::direct::{seal_recovered, DirectFold};
use uc_faultdb::error::DbError;
use uc_faultdb::format::{WriteOptions, WriteSummary};
use uc_faultlog::ingest::{recover_log, IngestStats, Recovered};
use uc_parallel::pipeline::stage_shared;
use unprotected_core::{run_campaign_checkpointed_with, CampaignConfig, CampaignResult};

/// Bounded depth of the fault channel between simulation workers and
/// the fold. Deep enough that emit almost never blocks a worker, small
/// enough that memory stays bounded on huge rosters.
const CHANNEL_CAPACITY: usize = 64;

/// Everything the direct path produces: the campaign outcome (for the
/// report and degraded-roster warnings), the seal summary, and the
/// merged ingest stats (the same provenance counters a text re-ingest
/// would have produced).
pub struct DirectCampaignOutput {
    pub result: CampaignResult,
    pub summary: WriteSummary,
    pub stats: IngestStats,
}

/// Run a checkpointed campaign and stream its faults straight into a
/// sealed database at `db_path`, no text corpus in between.
///
/// Checkpoints behave exactly as in the text path (`ckpt_dir` is read
/// and written the same way), so `--resume` semantics carry over.
pub fn campaign_to_db(
    cfg: &CampaignConfig,
    ckpt_dir: &Path,
    db_path: &Path,
    opts: &WriteOptions,
) -> Result<DirectCampaignOutput, DbError> {
    let mut result_slot: Option<CampaignResult> = None;
    let (fold, _stage) = stage_shared(
        CHANNEL_CAPACITY,
        1,
        |emit: &(dyn Fn(Recovered) + Sync)| {
            // In-memory recovery runs here, on the simulation workers,
            // so the expensive part parallelizes with the simulation.
            let result = run_campaign_checkpointed_with(cfg, ckpt_dir, |sim| {
                emit(recover_log(&sim.log));
            });
            result_slot = Some(result);
        },
        DirectFold::new,
        |mut acc, rec| {
            acc.add(rec);
            acc
        },
        |mut a, b| {
            a.merge(b);
            a
        },
    );
    let result = result_slot.expect("producer runs to completion inside stage_shared");
    let (summary, stats) = seal_recovered(fold, db_path, opts)?;
    Ok(DirectCampaignOutput {
        result,
        summary,
        stats,
    })
}
