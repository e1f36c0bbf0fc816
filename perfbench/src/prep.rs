//! Per-seed inputs of the serve and live workloads.
//!
//! Both need inputs that cost far more memory to make than the workload
//! itself uses: the sealed campaign database (a direct campaign peaks at
//! several GiB) and the compact per-node logs. When an input is missing,
//! the process makes it and then re-executes itself, so the process that
//! measures starts afresh: its peak RSS (VmHWM, which only rises) covers
//! the workload alone, and no trace of the preparation skews its set-up
//! time. Inputs are cached per seed under the work directory and
//! published by rename, so a torn preparation is never mistaken for a
//! finished one. Each cached directory holds the identity of the
//! executable that made it and is remade when the running one differs,
//! so inputs made by an older build of the program are never reused.

use std::hash::Hasher;
use std::io::Read;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::Command;

use unprotected_computing::core::{run_campaign, CampaignConfig};
use unprotected_computing::direct::campaign_to_db;
use unprotected_computing::faultdb::WriteOptions;
use unprotected_computing::faultlog::files::write_cluster_log_compact;

/// The campaign every workload derives its inputs from.
pub fn campaign_config(seed: u64) -> CampaignConfig {
    CampaignConfig::small(seed, 8)
}

/// Sealed campaign database for `seed` (serve's input).
pub fn serve_db(seed: u64) -> Result<PathBuf, String> {
    let dir = crate::work_dir().join(format!("serve-{seed}"));
    let db = dir.join("campaign.ucfdb");
    prepare(&dir, &db, make_serve_db, seed)?;
    Ok(db)
}

/// Directory of compact `node-*.log` files for `seed` (live's input).
pub fn live_corpus(seed: u64) -> Result<PathBuf, String> {
    let dir = crate::work_dir().join(format!("live-{seed}"));
    let logs = dir.join("logs");
    prepare(&dir, &logs, make_live_corpus, seed)?;
    Ok(logs)
}

/// File in each cached input directory naming the executable that made it.
const STAMP: &str = "made-by";

/// Identity of the running executable: its length and a hash of its
/// bytes, read in small chunks so the measuring process's peak RSS does
/// not grow. The library is linked in statically, so any change to the
/// program (simulator, encoding, a default) changes the identity.
fn exe_identity() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut file = std::fs::File::open(&exe).map_err(|e| format!("open {}: {e}", exe.display()))?;
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    let mut buf = vec![0u8; 64 << 10];
    let mut len = 0u64;
    loop {
        let n = file
            .read(&mut buf)
            .map_err(|e| format!("read {}: {e}", exe.display()))?;
        if n == 0 {
            break;
        }
        hasher.write(&buf[..n]);
        len += n as u64;
    }
    Ok(format!("{len} {:016x}\n", hasher.finish()))
}

/// Set in the environment of the re-executed process, so a preparation
/// that does not take can never loop.
const PREPARED: &str = "PERFBENCH_PREPARED";

/// Return once `dir` holds `out`, made by this executable. Otherwise
/// make it with `make` and re-execute this process with its arguments;
/// that returns only on failure.
fn prepare(
    dir: &Path,
    out: &Path,
    make: fn(u64, &Path) -> Result<(), String>,
    seed: u64,
) -> Result<(), String> {
    let stamp = std::fs::read_to_string(dir.join(STAMP)).unwrap_or_default();
    if out.exists() && stamp == exe_identity()? {
        return Ok(());
    }
    if std::env::var_os(PREPARED).is_some() {
        return Err(format!("{} is missing after preparation", out.display()));
    }
    make(seed, dir)?;
    println!("prepared {}; restarting", dir.display());
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let err = Command::new(exe)
        .args(std::env::args_os().skip(1))
        .env(PREPARED, "1")
        .exec();
    Err(format!("re-execute after preparation: {err}"))
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))
}

/// Stamp `tmp` with this executable's identity and rename it to `dir`,
/// replacing whatever an earlier build left there.
fn publish(tmp: &Path, dir: &Path) -> Result<(), String> {
    std::fs::write(tmp.join(STAMP), exe_identity()?).map_err(|e| format!("write stamp: {e}"))?;
    let _ = std::fs::remove_dir_all(dir);
    std::fs::rename(tmp, dir).map_err(|e| format!("publish {}: {e}", dir.display()))
}

fn make_serve_db(seed: u64, dir: &Path) -> Result<(), String> {
    let tmp = dir.with_extension("tmp");
    fresh_dir(&tmp)?;
    let out = campaign_to_db(
        &campaign_config(seed),
        &tmp.join("ckpt"),
        &tmp.join("campaign.ucfdb"),
        &WriteOptions::default(),
    )
    .map_err(|e| format!("campaign_to_db: {e}"))?;
    if out.result.is_degraded() {
        return Err("campaign lost nodes".into());
    }
    let _ = std::fs::remove_dir_all(tmp.join("ckpt"));
    publish(&tmp, dir)
}

fn make_live_corpus(seed: u64, dir: &Path) -> Result<(), String> {
    let tmp = dir.with_extension("tmp");
    fresh_dir(&tmp)?;
    let result = run_campaign(&campaign_config(seed));
    if result.is_degraded() {
        return Err("campaign lost nodes".into());
    }
    let logs = tmp.join("logs");
    std::fs::create_dir_all(&logs).map_err(|e| format!("mkdir: {e}"))?;
    write_cluster_log_compact(&logs, &result.cluster_log())
        .map_err(|e| format!("write compact logs: {e}"))?;
    publish(&tmp, dir)
}
