//! End-to-end tests for the `epvf serve` daemon: golden-trace cache hits
//! observable through telemetry counters, FIFO ordering of queued specs,
//! and shard multiplexing that streams the byte-identical merged summary.
//!
//! The daemon speaks over a Unix domain socket, so the whole suite is
//! unix-only.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("epvf-cli-serve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

struct Daemon {
    child: Child,
    socket: PathBuf,
    metrics: PathBuf,
}

impl Daemon {
    fn start(dir: &std::path::Path) -> Daemon {
        Daemon::start_with(dir, &[], |_| {})
    }

    /// Start with extra `serve` flags and a hook to adjust the daemon's
    /// environment.
    fn start_with(dir: &std::path::Path, flags: &[&str], env: impl FnOnce(&mut Command)) -> Daemon {
        let socket = dir.join("epvf.sock");
        let metrics = dir.join("metrics.json");
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_epvf"));
        cmd.args([
            "serve",
            "--socket",
            socket.to_str().expect("utf8"),
            "--metrics-out",
            metrics.to_str().expect("utf8"),
        ])
        .args(flags);
        env(&mut cmd);
        let child = cmd
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn daemon");
        Daemon {
            child,
            socket,
            metrics,
        }
    }

    /// Connect with retries — the daemon needs a moment to bind.
    fn connect(&self) -> BufReader<UnixStream> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match UnixStream::connect(&self.socket) {
                Ok(s) => return BufReader::new(s),
                Err(e) => {
                    assert!(Instant::now() < deadline, "daemon never bound: {e}");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }

    /// Shut the daemon down cleanly and return the parsed metrics file
    /// (written by the binary on exit).
    fn shutdown(mut self, conn: &mut BufReader<UnixStream>) -> String {
        send(conn, "shutdown");
        assert_eq!(recv(conn), "bye");
        let status = self.child.wait().expect("reap daemon");
        assert!(status.success(), "daemon exit: {status}");
        std::fs::read_to_string(&self.metrics).expect("metrics file written on exit")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

fn send(conn: &mut BufReader<UnixStream>, line: &str) {
    let s = conn.get_mut();
    writeln!(s, "{line}").expect("write");
    s.flush().expect("flush");
}

fn recv(conn: &mut BufReader<UnixStream>) -> String {
    let mut line = String::new();
    let n = conn.read_line(&mut line).expect("read");
    assert!(n > 0, "daemon hung up");
    line.trim_end().to_owned()
}

/// Read protocol lines until `done <id>` (panicking on `error <id> ...`),
/// returning everything seen including the terminator.
fn drain_until_done(conn: &mut BufReader<UnixStream>, id: u32) -> Vec<String> {
    let done = format!("done {id}");
    let err = format!("error {id} ");
    let mut lines = Vec::new();
    loop {
        let line = recv(conn);
        assert!(!line.starts_with(&err), "campaign failed: {line}");
        let finished = line == done;
        lines.push(line);
        if finished {
            return lines;
        }
    }
}

/// Extract one counter from the compact single-line metrics JSON.
fn counter(metrics: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let at = metrics
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing"));
    metrics[at + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("counter value")
}

/// The `out <id> ` payload lines of a finished request — the streamed
/// campaign summary.
fn summary_of(lines: &[String], id: u32) -> Vec<String> {
    let prefix = format!("out {id} ");
    lines
        .iter()
        .filter_map(|l| l.strip_prefix(&prefix).map(str::to_owned))
        .collect()
}

/// Two identical requests: the first misses the golden-trace cache, the
/// second hits it (announced on the wire and counted in telemetry), and
/// a sharded replay of the cached campaign streams per-shard progress
/// and the byte-identical merged summary.
#[test]
fn cache_hits_are_observable_and_sharded_replay_is_identical() {
    let dir = tmpdir("cache");
    let daemon = Daemon::start(&dir);
    let mut conn = daemon.connect();

    send(&mut conn, "ping");
    assert_eq!(recv(&mut conn), "pong");

    send(&mut conn, "run lud:tiny 80 7");
    assert_eq!(recv(&mut conn), "queued 1");
    let first = drain_until_done(&mut conn, 1);
    assert!(first.contains(&"cache 1 miss".to_owned()), "{first:?}");

    // Same target, seed, and run count, now multiplexed over two shard
    // processes: the golden trace and checkpoints come from the cache.
    send(&mut conn, "run lud:tiny 80 7 --shards 2");
    assert_eq!(recv(&mut conn), "queued 2");
    let second = drain_until_done(&mut conn, 2);
    assert!(second.contains(&"cache 2 hit".to_owned()), "{second:?}");
    for shard in 0..2 {
        let progress = format!("progress 2 shard {shard}/2 done");
        assert!(second.contains(&progress), "{second:?}");
    }
    assert_eq!(
        summary_of(&first, 1),
        summary_of(&second, 2),
        "sharded replay must stream the byte-identical summary"
    );

    let metrics = daemon.shutdown(&mut conn);
    assert_eq!(counter(&metrics, "serve.campaigns"), 2);
    assert_eq!(counter(&metrics, "serve.cache.misses"), 1);
    assert_eq!(counter(&metrics, "serve.cache.hits"), 1);
}

/// Pipelined requests on one connection run strictly FIFO: request 1
/// finishes before request 2 starts, and ids are assigned in queue
/// order.
#[test]
fn queued_specs_run_in_fifo_order() {
    let dir = tmpdir("fifo");
    let daemon = Daemon::start(&dir);
    let mut conn = daemon.connect();

    // Enqueue both before reading anything back.
    send(&mut conn, "run lud:tiny 40 3");
    send(&mut conn, "run lud:tiny 40 5");

    let mut lines = vec![recv(&mut conn)];
    lines.extend(drain_until_done(&mut conn, 1));
    lines.extend(drain_until_done(&mut conn, 2));

    let pos = |needle: &str| {
        lines
            .iter()
            .position(|l| l == needle)
            .unwrap_or_else(|| panic!("{needle:?} missing from {lines:?}"))
    };
    assert!(pos("queued 1") < pos("queued 2"), "{lines:?}");
    assert!(pos("start 1") < pos("done 1"), "{lines:?}");
    assert!(
        pos("done 1") < pos("start 2"),
        "request 2 must not start until request 1 is done: {lines:?}"
    );
    assert!(pos("start 2") < pos("done 2"), "{lines:?}");

    let metrics = daemon.shutdown(&mut conn);
    // Different seeds — both campaigns share one cache entry (the golden
    // trace depends on the program, not the injection seed).
    assert_eq!(counter(&metrics, "serve.campaigns"), 2);
    assert_eq!(counter(&metrics, "serve.cache.misses"), 1);
    assert_eq!(counter(&metrics, "serve.cache.hits"), 1);
}

/// A socket file left behind by a crashed daemon (the path exists but
/// nobody is listening) must not wedge the next start: the daemon
/// probes it, removes the corpse, and binds. A socket with a live
/// daemon behind it is a hard error, not silent removal.
#[test]
fn stale_socket_is_removed_but_a_live_one_is_refused() {
    let dir = tmpdir("stale");
    let socket = dir.join("epvf.sock");

    // Fabricate a crash leftover: bind, then drop the listener without
    // unlinking. The file remains; connect() to it now fails.
    let dead = std::os::unix::net::UnixListener::bind(&socket).expect("bind");
    drop(dead);
    assert!(socket.exists(), "leftover socket file expected");

    let daemon = Daemon::start(&dir);
    let mut conn = daemon.connect();
    send(&mut conn, "ping");
    assert_eq!(recv(&mut conn), "pong");

    // While this daemon is alive, a second one on the same path must
    // refuse to start rather than steal the socket.
    let out = Command::new(env!("CARGO_BIN_EXE_epvf"))
        .args(["serve", "--socket", socket.to_str().expect("utf8")])
        .output()
        .expect("second daemon runs");
    assert_eq!(out.status.code(), Some(6), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("live daemon"), "{stderr}");

    daemon.shutdown(&mut conn);
    std::fs::remove_dir_all(&dir).ok();
}

/// `shutdown` with work still queued on the same connection must not
/// hang and must not drop requests silently: everything accepted
/// before the shutdown line drains to `done`, then the daemon says
/// `bye` and exits — deterministically, within a bounded wait.
#[test]
fn shutdown_with_queued_requests_drains_then_exits() {
    let dir = tmpdir("drain");
    let daemon = Daemon::start(&dir);
    let mut conn = daemon.connect();

    // Queue two campaigns and the shutdown before reading anything.
    send(&mut conn, "run lud:tiny 40 3");
    send(&mut conn, "run lud:tiny 40 5");
    send(&mut conn, "shutdown");

    // The `queued` acks race with the worker's `start`/`out` stream on
    // the shared write lock, so assert relative order, not line slots.
    let mut lines = Vec::new();
    loop {
        let line = recv(&mut conn);
        assert!(!line.starts_with("error"), "{line}");
        let finished = line == "done 2";
        lines.push(line);
        if finished {
            break;
        }
    }
    assert_eq!(recv(&mut conn), "bye");
    let pos = |needle: &str| {
        lines
            .iter()
            .position(|l| l == needle)
            .unwrap_or_else(|| panic!("{needle:?} missing from {lines:?}"))
    };
    assert!(pos("queued 1") < pos("done 1"), "{lines:?}");
    assert!(
        pos("done 1") < pos("start 2"),
        "queued work drains FIFO before shutdown: {lines:?}"
    );

    // The daemon process itself exits promptly after `bye`.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut daemon = daemon;
    loop {
        if let Some(status) = daemon.child.try_wait().expect("try_wait") {
            assert!(status.success(), "daemon exit: {status}");
            break;
        }
        assert!(Instant::now() < deadline, "daemon never exited after bye");
        std::thread::sleep(Duration::from_millis(10));
    }
    let metrics = std::fs::read_to_string(&daemon.metrics).expect("metrics on exit");
    assert_eq!(counter(&metrics, "serve.campaigns"), 2, "both drained");
    std::fs::remove_dir_all(&dir).ok();
}

/// The serve daemon's sharded path runs under the same supervisor as
/// `epvf run-sharded`: per-shard stderr goes to scratch files and the
/// shard progress lines still stream in the legacy format.
#[test]
fn sharded_requests_stream_supervised_progress() {
    let dir = tmpdir("supervised");
    let daemon = Daemon::start(&dir);
    let mut conn = daemon.connect();

    send(&mut conn, "run lud:tiny 80 7 --shards 3");
    assert_eq!(recv(&mut conn), "queued 1");
    let lines = drain_until_done(&mut conn, 1);
    for shard in 0..3 {
        let progress = format!("progress 1 shard {shard}/3 done");
        assert!(lines.contains(&progress), "{lines:?}");
    }
    daemon.shutdown(&mut conn);
    std::fs::remove_dir_all(&dir).ok();
}

/// A sharded request that fails still removes its scratch dir of shard
/// WALs and stderr captures: here every worker attempt overruns a 1 ms
/// deadline with no retries, so the request ends in `error`.
#[test]
fn failed_sharded_request_removes_its_scratch_dir() {
    let dir = tmpdir("leak");
    let scratch = dir.join("tmp");
    std::fs::create_dir_all(&scratch).expect("mkdir");
    let daemon = Daemon::start_with(
        &dir,
        &["--shard-retries", "0", "--shard-deadline-ms", "1"],
        |cmd| {
            cmd.env("TMPDIR", &scratch);
        },
    );
    let mut conn = daemon.connect();

    send(&mut conn, "run lud:small 300 1 --shards 2");
    assert_eq!(recv(&mut conn), "queued 1");
    let error = loop {
        let line = recv(&mut conn);
        assert_ne!(line, "done 1", "the deadline must fail the request");
        if line.starts_with("error 1 ") {
            break line;
        }
    };
    assert!(error.contains("exceeded the shard deadline"), "{error}");
    daemon.shutdown(&mut conn);

    let left: Vec<String> = std::fs::read_dir(&scratch)
        .expect("read scratch")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("epvf-serve-"))
        .collect();
    assert!(left.is_empty(), "scratch dirs left behind: {left:?}");
    std::fs::remove_dir_all(&dir).ok();
}
