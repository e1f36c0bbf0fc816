//! CLI contract tests: shell out to the real `uc` binary.
//!
//! Usage errors (no/unknown subcommand, bad flags) must print usage to
//! stderr and exit 2 — distinct from runtime failures (exit 1) so shell
//! scripts and CI can tell "called wrong" from "work failed". The
//! happy-path test drives the new database workflow end to end:
//! build-db → query → analyze parity between the text and `--db` paths.

use std::fs;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn uc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_uc"))
        .args(args)
        .output()
        .expect("spawn uc")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn no_arguments_prints_usage_to_stderr_and_exits_2() {
    let out = uc(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"), "{}", stderr(&out));
    assert!(stdout(&out).is_empty());
}

#[test]
fn unknown_subcommand_exits_2() {
    let out = uc(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown subcommand"), "{err}");
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn unknown_flag_exits_2_and_names_the_flag() {
    for (args, flag) in [
        (&["analyze", "somedir", "--frob", "x"][..], "--frob"),
        (&["serve", "some.fdb", "--selftest", "4"][..], "--selftest"),
        (&["policy", "--selftest", "x"][..], "--selftest"),
        (
            &["stream", "127.0.0.1:1", "somedir", "--chaos-seed", "1"][..],
            "--chaos-seed",
        ),
    ] {
        let out = uc(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        assert!(err.contains(flag), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
}

#[test]
fn garbage_numeric_flag_exits_2() {
    let out = uc(&["report", "--seed", "banana"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--seed"), "{}", stderr(&out));
}

#[test]
fn missing_required_positional_exits_2() {
    let out = uc(&["build-db", "only-one-arg"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("positional"), "{}", stderr(&out));
}

#[test]
fn version_prints_and_exits_0() {
    let out = uc(&["--version"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.starts_with("uc "), "{text}");
    assert!(text.trim().len() > 3);
}

#[test]
fn runtime_failure_is_exit_1_not_2() {
    // Well-formed invocation, nonexistent directory: the work fails.
    let out = uc(&["analyze", "/nonexistent/uc-cli-test"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(!stderr(&out).contains("usage:"), "{}", stderr(&out));
}

/// The exit-code contract, once per subcommand: a usage error exits 2
/// with usage on stderr, and a well-formed call whose work fails exits 1
/// without it. Every runtime failure here is local (a missing path, a
/// file where a directory belongs, an address that does not parse), so
/// no row resolves a host name or needs a database.
#[test]
fn every_subcommand_keeps_the_exit_code_contract() {
    let usage_errors: &[&[&str]] = &[
        &["campaign", "--out", "x", "extra"],
        &["fsck"],
        &["analyze", "a", "b"],
        &["build-db", "a"],
        &["query", "db"],
        &["serve"],
        &["stream", "127.0.0.1:1"],
        &["scrub", "a", "b"],
        &["promote"],
        &["policy", "--frob", "x"],
        &["scan", "--iters", "x"],
        &["report", "extra"],
    ];
    for args in usage_errors {
        let out = uc(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("usage:"),
            "{args:?}: {}",
            stderr(&out)
        );
    }

    let file = std::env::temp_dir().join(format!("uc-cli-contract-{}", std::process::id()));
    fs::write(&file, b"a file, not a directory").unwrap();
    let missing = "/nonexistent/uc-cli-contract";
    let runtime_failures: &[&[&str]] = &[
        &["campaign", "--out", file.to_str().unwrap()],
        &["fsck", missing],
        &["analyze", missing],
        &["build-db", missing, "/nonexistent/uc-cli-contract.fdb"],
        &["query", missing, "count"],
        &["serve", missing],
        &["stream", "127.0.0.1:1", missing],
        &["scrub", missing],
        &["promote", "not-an-address"],
        &["policy", missing],
    ];
    for args in runtime_failures {
        let out = uc(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        assert!(
            !stderr(&out).contains("usage:"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
    let _ = fs::remove_file(&file);
}

/// A tiny on-disk log directory: 2 nodes, a START/END pair and a handful
/// of errors each — enough for extraction to produce faults.
fn write_tiny_logs(dir: &PathBuf) {
    fs::create_dir_all(dir).unwrap();
    for name in ["01-01", "01-02"] {
        let mut text = format!("START t=0 node={name} alloc=3221225472 temp=30.0\n");
        for k in 0i64..12 {
            let vaddr = 0x400 + 0x100 * k as u64;
            text.push_str(&format!(
                "ERROR t={t} node={name} vaddr=0x{vaddr:08x} page=0x{page:06x} \
                 expected=0xffffffff actual=0xfffffffe temp=33.0\n",
                t = 60 + 600 * k,
                page = vaddr >> 12
            ));
        }
        text.push_str(&format!("END t=90000 node={name} temp=31.0\n"));
        fs::write(dir.join(format!("node-{name}.log")), text).unwrap();
    }
}

#[test]
fn build_db_query_and_analyze_parity_end_to_end() {
    let base = std::env::temp_dir().join(format!("uc-cli-e2e-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let logs = base.join("logs");
    write_tiny_logs(&logs);
    let db = base.join("faults.fdb");
    let logs_s = logs.to_str().unwrap();
    let db_s = db.to_str().unwrap();

    let built = uc(&["build-db", logs_s, db_s]);
    assert_eq!(built.status.code(), Some(0), "{}", stderr(&built));
    assert!(stdout(&built).contains("faults"), "{}", stdout(&built));
    assert!(db.is_file());

    // count == the number of ERROR lines (each is its own fault: distinct
    // vaddrs, far apart in time).
    let count = uc(&["query", db_s, "count"]);
    assert_eq!(count.status.code(), Some(0), "{}", stderr(&count));
    assert_eq!(stdout(&count).trim(), "24");

    // A structured query through the shell: predicate + aggregation.
    let grouped = uc(&["query", db_s, "group", "node", "where", "time>=0"]);
    assert_eq!(grouped.status.code(), Some(0), "{}", stderr(&grouped));
    assert_eq!(stdout(&grouped).lines().count(), 2, "{}", stdout(&grouped));

    // A malformed query is a runtime failure (exit 1), not usage (2).
    let bad = uc(&["query", db_s, "frobnicate", "everything"]);
    assert_eq!(bad.status.code(), Some(1));

    // The acceptance bar: `analyze --db` stdout is byte-identical to
    // `analyze` over the raw text logs, at different thread counts too.
    let text_report = uc(&["analyze", logs_s]);
    assert_eq!(
        text_report.status.code(),
        Some(0),
        "{}",
        stderr(&text_report)
    );
    let db_report = uc(&["analyze", "--db", db_s]);
    assert_eq!(db_report.status.code(), Some(0), "{}", stderr(&db_report));
    assert_eq!(stdout(&text_report), stdout(&db_report));
    let db_report_1t = uc(&["analyze", "--db", db_s, "--threads", "1"]);
    assert_eq!(stdout(&text_report), stdout(&db_report_1t));

    let _ = fs::remove_dir_all(&base);
}

#[test]
fn ingest_addr_without_ingest_is_a_usage_error() {
    let out = uc(&["serve", "somedir", "--ingest-addr", "127.0.0.1:9"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--ingest-addr"), "{}", stderr(&out));
}

/// `serve` has no `--chaos-seed`: fault injection lives in the tests'
/// `UC_CHAOS_SEED`. The flag is a usage error without `--ingest` and
/// with it.
#[test]
fn chaos_seed_without_ingest_is_a_usage_error() {
    for args in [
        &["serve", "somedir", "--chaos-seed", "7"][..],
        &["serve", "somedir", "--ingest", "x", "--chaos-seed", "7"][..],
    ] {
        let out = uc(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        assert!(err.contains("--chaos-seed"), "{args:?}: {err}");
    }
}

/// A live server child. If an assertion fails, the server must die with
/// the test — a leaked child keeps the harness pipes open forever.
struct KillOnDrop(Child);
impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A `uc serve --ingest` child and what its banner said.
struct LiveServer {
    child: KillOnDrop,
    /// The child's stderr, read up to and including the banner line.
    reader: BufReader<ChildStderr>,
    /// Everything the child printed up to and including the banner.
    banner: String,
    ingest_addr: String,
    query_addr: String,
}

/// Start `uc serve <live> --ingest x` with `extra` flags and read its
/// stderr up to the banner. Port 0 on both endpoints: the server prints
/// the bound addresses.
fn spawn_live_server(live: &Path, extra: &[&str]) -> LiveServer {
    use std::io::BufRead;

    let child = Command::new(env!("CARGO_BIN_EXE_uc"))
        .args([
            "serve",
            live.to_str().unwrap(),
            "--ingest",
            "x",
            "--ingest-addr",
            "127.0.0.1:0",
            "--addr",
            "127.0.0.1:0",
        ])
        .args(extra)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn uc serve --ingest");
    let mut child = KillOnDrop(child);
    let mut reader = BufReader::new(child.0.stderr.take().unwrap());
    let mut banner = String::new();
    let (ingest_addr, query_addr) = loop {
        let mut line = String::new();
        assert_ne!(
            reader.read_line(&mut line).unwrap(),
            0,
            "server died: {banner}"
        );
        banner.push_str(&line);
        // A primary's banner starts `ingest on A, queries on B;`, a
        // replica's `replica of U: ingest on A (readonly), queries on B;`.
        if let Some((_, rest)) = line.split_once("ingest on ") {
            let (i, rest) = rest.split_once(", queries on ").unwrap();
            break (
                i.trim_end_matches(" (readonly)").to_string(),
                rest.split(';').next().unwrap().trim().to_string(),
            );
        }
    };
    LiveServer {
        child,
        reader,
        banner,
        ingest_addr,
        query_addr,
    }
}

/// The live server builds its query endpoint from `--workers`, `--queue`
/// and `--timeout-ms`, as the static server does; its banner names the
/// workers and queue it runs with.
#[test]
fn serve_ingest_applies_query_server_flags() {
    let base = std::env::temp_dir().join(format!("uc-cli-ingest-flags-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let server = spawn_live_server(
        &base.join("live"),
        &["--workers", "1", "--queue", "3", "--timeout-ms", "250"],
    );
    assert!(
        server.banner.contains("; 1 workers, queue 3;"),
        "{}",
        server.banner
    );
    drop(server);
    let _ = fs::remove_dir_all(&base);
}

/// The full operational loop through the shell: start a live server,
/// `uc stream` real node logs into it with a final seal, query the
/// records back over TCP, stop the server with SIGTERM (the graceful
/// path, exit 0), and fsck the directory it leaves behind.
#[cfg(unix)]
#[test]
fn stream_serve_ingest_sigterm_and_fsck_end_to_end() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;

    let base = std::env::temp_dir().join(format!("uc-cli-ingest-e2e-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let logs = base.join("logs");
    write_tiny_logs(&logs);
    let live = base.join("live");

    let LiveServer {
        mut child,
        mut reader,
        banner,
        ingest_addr,
        query_addr,
    } = spawn_live_server(&live, &[]);

    let streamed = uc(&[
        "stream",
        &ingest_addr,
        logs.to_str().unwrap(),
        "--seal",
        "x",
    ]);
    assert_eq!(streamed.status.code(), Some(0), "{}", stderr(&streamed));
    assert!(
        stdout(&streamed).contains("28 records acked"),
        "{}",
        stdout(&streamed)
    );

    // The sealed generation answers over the query endpoint.
    let mut client =
        uc_faultdb::Client::connect(query_addr.parse().unwrap()).expect("connect query endpoint");
    match client.request("count").expect("count over live endpoint") {
        uc_faultdb::Response::Ok(lines) => assert_eq!(lines, vec!["24".to_string()]),
        other => panic!("unexpected response: {other:?}"),
    }
    drop(client);

    // SIGTERM drains and exits 0 — the graceful path, not a kill.
    assert_eq!(unsafe { kill(child.0.id() as i32, SIGTERM) }, 0);
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut reader, &mut rest).unwrap();
    let status = child.0.wait().unwrap();
    assert_eq!(status.code(), Some(0), "{banner}{rest}");
    assert!(rest.contains("signal received"), "{rest}");

    // What the server leaves behind is a conserved, healthy live dir.
    let fsck = uc(&["fsck", live.to_str().unwrap()]);
    assert_eq!(fsck.status.code(), Some(0), "{}", stderr(&fsck));
    assert!(
        stderr(&fsck).contains("conserved=true"),
        "{}",
        stderr(&fsck)
    );

    let _ = fs::remove_dir_all(&base);
}

/// Send SIGTERM to a child.
#[cfg(unix)]
fn sigterm(child: &Child) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    // SAFETY: kill(2) takes two integers and touches no memory of ours.
    assert_eq!(unsafe { kill(child.id() as i32, SIGTERM) }, 0);
}

/// The child's exit status, or `None` if it is still running after `bound`.
#[cfg(unix)]
fn wait_within(child: &mut Child, bound: Duration) -> Option<std::process::ExitStatus> {
    let deadline = Instant::now() + bound;
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return Some(status);
        }
        if Instant::now() > deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// SIGTERM stops a primary promptly even while a replica is attached: the
/// replica PULLs every 25 ms, so its SYNC session never idles out, and
/// shutdown must end it rather than wait for the replica to leave.
#[cfg(unix)]
#[test]
fn sigterm_stops_a_primary_with_an_attached_replica() {
    let base = std::env::temp_dir().join(format!("uc-cli-repl-term-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let logs = base.join("logs");
    write_tiny_logs(&logs);
    let LiveServer {
        mut child,
        mut reader,
        banner,
        ingest_addr,
        ..
    } = spawn_live_server(&base.join("primary"), &[]);
    let replica = spawn_live_server(&base.join("replica"), &["--replica-of", &ingest_addr]);

    let streamed = uc(&["stream", &ingest_addr, logs.to_str().unwrap()]);
    assert_eq!(streamed.status.code(), Some(0), "{}", stderr(&streamed));
    // The replica has applied every record, so its SYNC session is live.
    let mut client = uc_faultdb::Client::connect(replica.query_addr.parse().unwrap()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match client.request("STATS").unwrap() {
            uc_faultdb::Response::Ok(lines) if lines.iter().any(|l| l == "repl_applied 28") => {
                break
            }
            other => assert!(
                Instant::now() < deadline,
                "replica never caught up: {other:?}"
            ),
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(client);

    sigterm(&child.0);
    let status = wait_within(&mut child.0, Duration::from_secs(10))
        .expect("primary still running 10 s after SIGTERM with a replica attached");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut reader, &mut rest).unwrap();
    assert_eq!(status.code(), Some(0), "{banner}{rest}");
    assert!(
        rest.lines()
            .any(|l| l.starts_with("served ") && l.contains("; ingested 28 records")),
        "{rest}"
    );

    drop(replica);
    let _ = fs::remove_dir_all(&base);
}

/// SIGTERM stops a server whose stderr has no reader any more (the
/// terminal or log collector that started it went away): shutdown must
/// not depend on writing the notices around it. Both the static server
/// and a live primary, which also seals on the way out.
#[cfg(unix)]
#[test]
fn sigterm_stops_a_server_whose_stderr_reader_is_gone() {
    use std::io::BufRead;

    let base = std::env::temp_dir().join(format!("uc-cli-closed-stderr-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let logs = base.join("logs");
    write_tiny_logs(&logs);
    let db = base.join("faults.fdb");
    let built = uc(&["build-db", logs.to_str().unwrap(), db.to_str().unwrap()]);
    assert_eq!(built.status.code(), Some(0), "{}", stderr(&built));

    let child = Command::new(env!("CARGO_BIN_EXE_uc"))
        .args(["serve", db.to_str().unwrap(), "--addr", "127.0.0.1:0"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn uc serve");
    let mut child = KillOnDrop(child);
    let mut reader = BufReader::new(child.0.stderr.take().unwrap());
    let mut banner = String::new();
    reader.read_line(&mut banner).unwrap();
    assert!(banner.starts_with("serving "), "{banner}");
    let live = spawn_live_server(&base.join("live"), &[]);
    let mut live_child = live.child;

    for (what, child, reader) in [
        ("serve", &mut child, reader),
        ("serve --ingest", &mut live_child, live.reader),
    ] {
        drop(reader);
        sigterm(&child.0);
        let status = wait_within(&mut child.0, Duration::from_secs(10))
            .unwrap_or_else(|| panic!("{what} still running 10 s after SIGTERM"));
        assert_eq!(status.code(), Some(0), "{what}");
    }
    let _ = fs::remove_dir_all(&base);
}

/// A server out of file descriptors must not spin. With `ulimit -n 20`
/// and 40 idle clients, the four workers and the queue hold what
/// descriptors there are, every further `accept` fails with `EMFILE`,
/// and the acceptor must pause between attempts: the process may use
/// only a small share of one core.
#[cfg(target_os = "linux")]
#[test]
fn accept_errors_back_off_instead_of_spinning() {
    use std::io::BufRead;
    // USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
    const TICKS_PER_SEC: f64 = 100.0;

    let base = std::env::temp_dir().join(format!("uc-cli-emfile-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let logs = base.join("logs");
    write_tiny_logs(&logs);
    let db = base.join("faults.fdb");
    let built = uc(&["build-db", logs.to_str().unwrap(), db.to_str().unwrap()]);
    assert_eq!(built.status.code(), Some(0), "{}", stderr(&built));

    let child = Command::new("sh")
        .args([
            "-c",
            "ulimit -n 20 && exec \"$0\" serve \"$1\" --addr 127.0.0.1:0",
            env!("CARGO_BIN_EXE_uc"),
            db.to_str().unwrap(),
        ])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sh");
    let mut child = KillOnDrop(child);
    let mut reader = BufReader::new(child.0.stderr.take().unwrap());
    let mut banner = String::new();
    reader.read_line(&mut banner).unwrap();
    let addr = banner
        .rsplit_once(" on ")
        .and_then(|(_, rest)| rest.split_once(" ("))
        .unwrap_or_else(|| panic!("no address in banner: {banner}"))
        .0
        .to_string();

    // One idle client per worker first, so each worker is parked on a
    // client before descriptors run out; then enough to exhaust them.
    let connect = |n: usize| -> Vec<std::net::TcpStream> {
        (0..n)
            .map(|_| std::net::TcpStream::connect(&addr).unwrap())
            .collect()
    };
    let mut clients = connect(4);
    std::thread::sleep(Duration::from_millis(300));
    clients.extend(connect(36));
    std::thread::sleep(Duration::from_millis(500));
    let open = fs::read_dir(format!("/proc/{}/fd", child.0.id()))
        .unwrap()
        .count();
    assert_eq!(open, 20, "the server should hold every descriptor it may");
    let cpu_secs = || -> f64 {
        let stat = fs::read_to_string(format!("/proc/{}/stat", child.0.id())).unwrap();
        // Fields after the `(comm)`: state is the 3rd field, utime and
        // stime the 14th and 15th.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .unwrap()
            .1
            .split_whitespace()
            .collect();
        let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
        ticks as f64 / TICKS_PER_SEC
    };
    let before = cpu_secs();
    std::thread::sleep(Duration::from_secs(2));
    let used = cpu_secs() - before;
    assert!(
        used < 0.5,
        "server used {used:.2} s of CPU in 2 s with no descriptor left to accept"
    );
    drop(clients);
    let _ = fs::remove_dir_all(&base);
}

/// Every numeric flag follows one contract: garbage AND overflow are
/// usage errors (stderr + exit 2), never a silent wrap into a
/// valid-looking value. `--max-attempts 4294967301` used to truncate
/// to 5 via an `as u32` cast; these pin the normalized behavior.
#[test]
fn numeric_flag_overflow_and_garbage_both_exit_2() {
    // u32 flag: one past u32::MAX must not wrap (4294967296 -> 0, +5 -> 5).
    let wrap = uc(&[
        "stream",
        "127.0.0.1:1",
        "somedir",
        "--max-attempts",
        "4294967301",
    ]);
    assert_eq!(wrap.status.code(), Some(2), "{}", stderr(&wrap));
    assert!(
        stderr(&wrap).contains("--max-attempts"),
        "{}",
        stderr(&wrap)
    );
    let garbage = uc(&["stream", "127.0.0.1:1", "somedir", "--max-attempts", "many"]);
    assert_eq!(garbage.status.code(), Some(2));

    // u64 flag: one past u64::MAX overflows the parse itself.
    let big = uc(&["report", "--seed", "18446744073709551616"]);
    assert_eq!(big.status.code(), Some(2));
    assert!(stderr(&big).contains("--seed"), "{}", stderr(&big));

    // Derived overflow: the MB -> bytes multiply must be checked.
    let mb = uc(&["scan", "--mb", "99999999999999"]);
    assert_eq!(mb.status.code(), Some(2));
    assert!(stderr(&mb).contains("--mb"), "{}", stderr(&mb));

    // Range check instead of silent clamp.
    let rpb = uc(&["build-db", "a", "b", "--rows-per-block", "2000000"]);
    assert_eq!(rpb.status.code(), Some(2));
    assert!(
        stderr(&rpb).contains("--rows-per-block"),
        "{}",
        stderr(&rpb)
    );

    // --threads: zero, garbage, and overflow all land on the same exit.
    for bad in ["0", "x", "18446744073709551616"] {
        let out = uc(&["report", "--threads", bad]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "--threads {bad}: {}",
            stderr(&out)
        );
        assert!(stderr(&out).contains("--threads"), "{}", stderr(&out));
    }
}

#[test]
fn campaign_without_out_or_db_exits_2() {
    let out = uc(&["campaign"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("--out") && err.contains("--db"), "{err}");
}

#[test]
fn campaign_db_only_rejects_text_layout_flags() {
    let out = uc(&["campaign", "--db", "x.ucfdb", "--compact", "x"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--out"), "{}", stderr(&out));
}

/// A crash inside the db sealer's write-then-rename window leaves only a
/// `*.ucfdb.tmp`; `uc fsck` must quarantine it into `.lost+found`.
#[test]
fn fsck_quarantines_torn_db_seal_tmps() {
    let base = std::env::temp_dir().join(format!("uc-cli-dbtmp-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    fs::create_dir_all(&base).unwrap();
    fs::write(base.join("direct.ucfdb.tmp"), b"half-written seal").unwrap();
    fs::write(base.join("sealed.ucfdb"), b"not touched").unwrap();

    let out = uc(&["fsck", base.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("quarantined torn db seal direct.ucfdb.tmp"),
        "{}",
        stderr(&out)
    );
    assert!(!base.join("direct.ucfdb.tmp").exists());
    assert!(base.join(".lost+found").join("direct.ucfdb.tmp").is_file());
    assert!(base.join("sealed.ucfdb").is_file());

    let _ = fs::remove_dir_all(&base);
}

/// A job that leaves the same torn seal behind twice: each fsck pass
/// moves its copy aside without overwriting the one an earlier pass
/// kept, and counts it on the ledger.
#[test]
fn fsck_keeps_both_copies_of_a_torn_seal_left_twice() {
    let base = std::env::temp_dir().join(format!("uc-cli-dbtmp-twice-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    fs::create_dir_all(&base).unwrap();
    let lost = base.join(".lost+found");
    let mut logs = Vec::new();
    for (bytes, kept_as) in [
        (&b"first torn seal"[..], "out.ucfdb.tmp"),
        (&b"second"[..], "out.ucfdb.tmp.1"),
    ] {
        fs::write(base.join("out.ucfdb.tmp"), bytes).unwrap();
        let out = uc(&["fsck", base.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        assert_eq!(fs::read(lost.join(kept_as)).unwrap(), bytes);
        logs.push((bytes.len(), stderr(&out)));
    }
    assert_eq!(
        fs::read(lost.join("out.ucfdb.tmp")).unwrap(),
        b"first torn seal"
    );
    for (n, log) in logs {
        let ledger = format!("bytes[{n} in = 0 kept + {n} quarantined] conserved=true");
        assert!(log.contains(&ledger), "{log}");
    }
    let _ = fs::remove_dir_all(&base);
}

/// `uc help` (and `--help`) print the full usage table to stdout and
/// exit 0 — and the table must list every subcommand, because it is
/// generated from the same table `main` dispatches on.
#[test]
fn help_lists_every_subcommand_and_exits_0() {
    for invocation in [&["help"][..], &["--help"][..]] {
        let out = uc(invocation);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        let text = stdout(&out);
        for cmd in [
            "campaign", "fsck", "analyze", "build-db", "query", "serve", "stream", "scrub",
            "promote", "policy", "scan", "report",
        ] {
            assert!(
                text.contains(&format!("uc {cmd}")),
                "help missing {cmd}: {text}"
            );
        }
        assert!(stderr(&out).is_empty(), "{}", stderr(&out));
    }
}

#[test]
fn policy_usage_errors_exit_2() {
    // No database path.
    let out = uc(&["policy"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"), "{}", stderr(&out));

    // Unknown policy name.
    let out = uc(&["policy", "some.fdb", "--policy", "ouija"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--policy"), "{}", stderr(&out));

    // Garbage numerics follow the strict-flag contract.
    for (flag, value) in [
        ("--seed", "banana"),
        ("--train-days", "x"),
        ("--threshold", "0"),
    ] {
        let out = uc(&["policy", "some.fdb", flag, value]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} {value}: {}",
            stderr(&out)
        );
        assert!(stderr(&out).contains(flag), "{}", stderr(&out));
    }

    // Unknown flag.
    let out = uc(&["policy", "some.fdb", "--frob", "x"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--frob"), "{}", stderr(&out));
}

/// Multi-day logs for the policy replay: one node faulting daily on the
/// same page (retire bait), one quiet node.
fn write_multiday_logs(dir: &PathBuf) {
    fs::create_dir_all(dir).unwrap();
    let mut text = String::from("START t=0 node=01-01 alloc=3221225472 temp=30.0\n");
    for d in 1i64..12 {
        text.push_str(&format!(
            "ERROR t={t} node=01-01 vaddr=0x00005008 page=0x000005 \
             expected=0xffffffff actual=0xfffffffe temp=41.0\n",
            t = d * 86_400 + 300
        ));
    }
    text.push_str("END t=1100000 node=01-01 temp=31.0\n");
    fs::write(dir.join("node-01-01.log"), text).unwrap();

    // Matching volume on a second node keeps both under the flood
    // filter's 50% share so neither gets excluded from the snapshot.
    let mut text = String::from("START t=0 node=01-02 alloc=3221225472 temp=30.0\n");
    for d in 1i64..12 {
        let vaddr = 0x41_000 + 0x2000 * d as u64;
        text.push_str(&format!(
            "ERROR t={t} node=01-02 vaddr=0x{vaddr:08x} page=0x{page:06x} \
             expected=0xffffffff actual=0x7fffffff temp=32.0\n",
            t = d * 86_400 + 900,
            page = vaddr >> 12
        ));
    }
    text.push_str("END t=1100000 node=01-02 temp=31.0\n");
    fs::write(dir.join("node-01-02.log"), text).unwrap();
}

#[test]
fn policy_replay_end_to_end_through_the_binary() {
    let base = std::env::temp_dir().join(format!("uc-cli-policy-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let logs = base.join("logs");
    write_multiday_logs(&logs);
    let db = base.join("faults.fdb");
    let built = uc(&["build-db", logs.to_str().unwrap(), db.to_str().unwrap()]);
    assert_eq!(built.status.code(), Some(0), "{}", stderr(&built));
    let db_s = db.to_str().unwrap();

    // Full comparison: table lists every policy, reruns byte-identically,
    // and the CSV export matches across runs too.
    let csv1 = base.join("run1.csv");
    let csv2 = base.join("run2.csv");
    let run1 = uc(&[
        "policy",
        db_s,
        "--seed",
        "9",
        "--csv",
        csv1.to_str().unwrap(),
    ]);
    assert_eq!(run1.status.code(), Some(0), "{}", stderr(&run1));
    let table = stdout(&run1);
    for name in [
        "never",
        "always-checkpoint",
        "threshold",
        "bandit",
        "oracle",
    ] {
        assert!(table.contains(name), "table missing {name}: {table}");
    }
    let run2 = uc(&[
        "policy",
        db_s,
        "--seed",
        "9",
        "--csv",
        csv2.to_str().unwrap(),
    ]);
    assert_eq!(stdout(&run1), stdout(&run2));
    assert_eq!(
        fs::read_to_string(&csv1).unwrap(),
        fs::read_to_string(&csv2).unwrap()
    );

    // Thread count must not change a byte either.
    let run_1t = uc(&["policy", db_s, "--seed", "9", "--threads", "1"]);
    assert_eq!(stdout(&run1), stdout(&run_1t));

    // A single policy still gets the oracle appended for regret.
    let single = uc(&["policy", db_s, "--policy", "bandit"]);
    assert_eq!(single.status.code(), Some(0), "{}", stderr(&single));
    assert!(stdout(&single).contains("bandit"), "{}", stdout(&single));
    assert!(stdout(&single).contains("oracle"), "{}", stdout(&single));

    // A training window that swallows the whole stream is a runtime
    // failure (exit 1), not a usage error.
    let bad = uc(&["policy", db_s, "--train-days", "99999"]);
    assert_eq!(bad.status.code(), Some(1), "{}", stderr(&bad));
    assert!(stderr(&bad).contains("--train-days"), "{}", stderr(&bad));

    // Nonexistent database: runtime failure.
    let missing = uc(&["policy", base.join("nope.fdb").to_str().unwrap()]);
    assert_eq!(missing.status.code(), Some(1));

    let _ = fs::remove_dir_all(&base);
}

#[test]
fn policy_on_faultless_db_says_so_and_exits_0() {
    let base = std::env::temp_dir().join(format!("uc-cli-policy-empty-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let logs = base.join("logs");
    fs::create_dir_all(&logs).unwrap();
    // A healthy node that never faulted: the db seals with zero rows.
    fs::write(
        logs.join("node-01-01.log"),
        "START t=0 node=01-01 alloc=3221225472 temp=30.0\nEND t=90000 node=01-01 temp=31.0\n",
    )
    .unwrap();
    let db = base.join("faults.fdb");
    let built = uc(&["build-db", logs.to_str().unwrap(), db.to_str().unwrap()]);
    assert_eq!(built.status.code(), Some(0), "{}", stderr(&built));

    let out = uc(&["policy", db.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("nothing to replay"),
        "{}",
        stdout(&out)
    );

    let _ = fs::remove_dir_all(&base);
}

/// A closed stdout ends a command quietly with exit 0: `uc query … |
/// head` must not panic on the broken pipe. The list is ~270 KB, well
/// over a pipe's buffer, so `uc` is still writing when the reader goes.
#[cfg(unix)]
#[test]
fn closed_stdout_ends_the_command_quietly_with_exit_0() {
    use std::io::{BufRead, Read};

    let base = std::env::temp_dir().join(format!("uc-cli-closed-stdout-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let logs = base.join("logs");
    fs::create_dir_all(&logs).unwrap();
    for name in ["01-01", "01-02"] {
        let mut text = format!("START t=0 node={name} alloc=3221225472 temp=30.0\n");
        for k in 0u64..1500 {
            let vaddr = 0x1000 * (k + 1);
            text.push_str(&format!(
                "ERROR t={t} node={name} vaddr=0x{vaddr:08x} page=0x{page:06x} \
                 expected=0xffffffff actual=0xfffffffe temp=33.0\n",
                t = 60 + 600 * k,
                page = vaddr >> 12
            ));
        }
        text.push_str(&format!("END t=1000000 node={name} temp=31.0\n"));
        fs::write(logs.join(format!("node-{name}.log")), text).unwrap();
    }
    let db = base.join("faults.fdb");
    let built = uc(&["build-db", logs.to_str().unwrap(), db.to_str().unwrap()]);
    assert_eq!(built.status.code(), Some(0), "{}", stderr(&built));

    let child = Command::new(env!("CARGO_BIN_EXE_uc"))
        .args(["query", db.to_str().unwrap(), "list", "limit", "3000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn uc query");
    let mut child = KillOnDrop(child);
    let mut out = BufReader::new(child.0.stdout.take().unwrap());
    let mut first = String::new();
    out.read_line(&mut first).unwrap();
    assert!(!first.is_empty(), "uc printed nothing");
    drop(out);
    let status = wait_within(&mut child.0, Duration::from_secs(30))
        .expect("uc query still running 30 s after its stdout closed");
    let mut err = String::new();
    let mut err_pipe = child.0.stderr.take().unwrap();
    err_pipe.read_to_string(&mut err).unwrap();
    assert_eq!(status.code(), Some(0), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let _ = fs::remove_dir_all(&base);
}

/// Two faults 10^13 s apart span ~116M days: `uc policy` must refuse the
/// span with a typed message and exit 1 at once, not walk every day.
#[cfg(unix)]
#[test]
fn policy_on_a_huge_day_span_exits_1_promptly() {
    use std::io::Read;

    let base = std::env::temp_dir().join(format!("uc-cli-policy-span-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let logs = base.join("logs");
    fs::create_dir_all(&logs).unwrap();
    for (name, start, t, vaddr) in [
        ("01-01", 0i64, 100i64, 0x4000u64),
        ("01-02", 9_999_999_999_000, 10_000_000_000_000, 0x8000),
    ] {
        fs::write(
            logs.join(format!("node-{name}.log")),
            format!(
                "START t={start} node={name} alloc=3221225472 temp=30.0\n\
                 ERROR t={t} node={name} vaddr=0x{vaddr:08x} page=0x{page:06x} \
                 expected=0xffffffff actual=0xfffffffe temp=33.0\n\
                 END t={end} node={name} temp=31.0\n",
                page = vaddr >> 12,
                end = t + 100
            ),
        )
        .unwrap();
    }
    let db = base.join("faults.fdb");
    let built = uc(&["build-db", logs.to_str().unwrap(), db.to_str().unwrap()]);
    assert_eq!(built.status.code(), Some(0), "{}", stderr(&built));
    assert!(stdout(&built).contains(" 2 faults"), "{}", stdout(&built));

    let child = Command::new(env!("CARGO_BIN_EXE_uc"))
        .args(["policy", db.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn uc policy");
    let mut child = KillOnDrop(child);
    let status = wait_within(&mut child.0, Duration::from_secs(5))
        .expect("uc policy still running after 5 s");
    let mut err = String::new();
    let mut err_pipe = child.0.stderr.take().unwrap();
    err_pipe.read_to_string(&mut err).unwrap();
    assert_eq!(status.code(), Some(1), "{err}");
    assert!(err.contains("replay bound"), "{err}");
    let _ = fs::remove_dir_all(&base);
}
