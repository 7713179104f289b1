//! Golden snapshot tests for the `epvf` CLI: the human-facing output is
//! part of the interface, and campaign results must be byte-identical
//! regardless of worker-thread count or checkpoint spacing (the replay
//! engine's determinism contract).
//!
//! Snapshots live in `tests/snapshots/`. After an intentional output
//! change, regenerate them with `UPDATE_SNAPSHOTS=1 cargo test -p
//! epvf-cli --test golden_output` and review the diff.

use std::path::Path;
use std::process::Command;

fn run_epvf(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_epvf"))
        .args(args)
        .output()
        .expect("epvf binary runs");
    assert!(
        out.status.success(),
        "epvf {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Drop the one line whose content is genuinely nondeterministic (wall-clock
/// measurements); everything else must be byte-stable.
fn normalize(s: &str) -> String {
    s.lines()
        .filter(|l| !l.starts_with("analysis time"))
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

fn check_snapshot(name: &str, content: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(name);
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
        std::fs::write(&path, content).expect("write snapshot");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing snapshot {}: {e}", path.display()));
    assert_eq!(
        content,
        golden,
        "output drifted from {} (run with UPDATE_SNAPSHOTS=1 if intentional)",
        path.display()
    );
}

#[test]
fn analyze_output_is_stable() {
    let first = run_epvf(&["analyze", "mm:tiny"]);
    let second = run_epvf(&["analyze", "mm:tiny"]);
    assert_eq!(
        normalize(&first),
        normalize(&second),
        "same input, same bytes"
    );
    check_snapshot("analyze-mm-tiny.txt", &normalize(&first));
}

/// A larger trace than mm:tiny, with load→store value paths through the
/// propagation walk, pinned byte for byte.
#[test]
fn analyze_bfs_small_output_is_stable() {
    let out = run_epvf(&["analyze", "bfs:small"]);
    check_snapshot("analyze-bfs-small.txt", &normalize(&out));
}

/// Every `inject-small` benchmark target at `:tiny`, with its snapshot.
const INJECT_TARGETS: [(&str, &str); 6] = [
    ("bfs:tiny", "inject-bfs-tiny.txt"),
    ("lud:tiny", "inject-lud-tiny.txt"),
    ("mm:tiny", "inject-mm-tiny.txt"),
    ("hotspot:tiny", "inject-hotspot-tiny.txt"),
    ("srad:tiny", "inject-srad-tiny.txt"),
    ("pathfinder:tiny", "inject-pathfinder-tiny.txt"),
];

#[test]
fn inject_is_byte_stable_across_threads_and_checkpoints() {
    for (target, snapshot) in INJECT_TARGETS {
        // No `--ckpt-interval` means the automatic spacing.
        let base = run_epvf(&["inject", target, "300", "7", "--threads", "1"]);
        for extra in [
            vec!["--threads", "2"],
            vec!["--threads", "4"],
            vec!["--threads", "3", "--ckpt-interval", "0"],
            vec!["--threads", "2", "--ckpt-interval", "64"],
            vec!["--threads", "1", "--ckpt-interval", "0"],
            vec!["--threads", "3", "--ckpt-interval", "64"],
        ] {
            let mut args = vec!["inject", target, "300", "7"];
            args.extend(extra.iter());
            let out = run_epvf(&args);
            assert_eq!(base, out, "{target}: output must not depend on {extra:?}");
        }
        check_snapshot(snapshot, &base);
    }
}

#[test]
fn metrics_out_does_not_perturb_stdout() {
    let plain = run_epvf(&["analyze", "mm:tiny"]);
    let mut path = std::env::temp_dir();
    path.push(format!("epvf-golden-metrics-{}.json", std::process::id()));
    let with_metrics = run_epvf(&[
        "analyze",
        "mm:tiny",
        "--metrics-out",
        path.to_str().unwrap(),
    ]);
    std::fs::remove_file(&path).ok();
    assert_eq!(
        normalize(&plain),
        normalize(&with_metrics),
        "--metrics-out must leave the human-facing output untouched"
    );
}

#[test]
fn oracle_output_is_byte_stable_across_threads() {
    let base = run_epvf(&["oracle", "mm:tiny", "--limit", "600", "--threads", "1"]);
    let multi = run_epvf(&["oracle", "mm:tiny", "--limit", "600", "--threads", "4"]);
    assert_eq!(base, multi, "oracle sweep must not depend on thread count");
    check_snapshot("oracle-mm-tiny.txt", &base);
}
