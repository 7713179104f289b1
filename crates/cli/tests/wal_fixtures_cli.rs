//! WAL compatibility: logs written by an earlier `epvf` build (committed
//! under `tests/fixtures/`) must still resume. Each fixture is copied to a
//! scratch dir and resumed — whole, and with its tail torn off — and the
//! resumed stdout must equal a fresh run of the same campaign. A changed
//! fingerprint or record format fails here with exit 4 instead of
//! silently orphaning every existing log.
//!
//! The fixtures were written single-threaded:
//!
//! ```text
//! epvf inject mm:tiny 60 3 --threads 1 --wal inject-mm-tiny-60-3.wal
//! epvf shard mm:tiny 60 3 --threads 1 --index 1 --of 2 --wal shard-mm-tiny-60-3-1of2.wal
//! epvf inject lud:tiny --sample --target-ci 0.05 --threads 1 --wal sample-lud-tiny-ci05.wal
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

fn epvf(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_epvf"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().expect("not signal-killed"),
    )
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("epvf-cli-walfx-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

/// Resume `name` under `args` (whole, then torn mid-file) and diff the
/// stdout against `fresh`.
fn assert_resumes(name: &str, args: &[&str], fresh: &str) {
    let dir = tmpdir(name);
    let original = std::fs::read(fixture(name)).expect("fixture present");
    for (tag, bytes) in [
        ("whole", &original[..]),
        ("torn", &original[..original.len() / 2]),
    ] {
        let wal = dir.join(format!("{tag}.wal"));
        std::fs::write(&wal, bytes).expect("copy fixture");
        let wal = wal.to_str().expect("utf8");
        let mut resume = args.to_vec();
        resume.extend(["--wal", wal, "--resume"]);
        let (stdout, stderr, code) = epvf(&resume);
        assert_eq!(code, 0, "{name} ({tag}) resume failed: {stderr}");
        assert_eq!(stdout, fresh, "{name} ({tag}) resumed output differs");
        if tag == "whole" {
            // Every run was recovered, so nothing was appended.
            assert_eq!(
                std::fs::read(wal).expect("read back"),
                original,
                "{name}: a complete log must resume without re-running anything"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn inject_wal_fixture_resumes() {
    let args = ["inject", "mm:tiny", "60", "3"];
    let (fresh, stderr, code) = epvf(&args);
    assert_eq!(code, 0, "{stderr}");
    assert_resumes("inject-mm-tiny-60-3.wal", &args, &fresh);
}

#[test]
fn shard_wal_fixture_resumes() {
    let args = ["shard", "mm:tiny", "60", "3", "--index", "1", "--of", "2"];
    let dir = tmpdir("shard-fresh");
    let wal = dir.join("fresh.wal");
    let mut fresh_args = args.to_vec();
    fresh_args.extend(["--wal", wal.to_str().expect("utf8")]);
    let (fresh, stderr, code) = epvf(&fresh_args);
    assert_eq!(code, 0, "{stderr}");
    assert_resumes("shard-mm-tiny-60-3-1of2.wal", &args, &fresh);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sampled_wal_fixture_resumes() {
    let args = ["inject", "lud:tiny", "--sample", "--target-ci", "0.05"];
    let (fresh, stderr, code) = epvf(&args);
    assert_eq!(code, 0, "{stderr}");
    assert_resumes("sample-lud-tiny-ci05.wal", &args, &fresh);
}
