//! Fault-tolerant shard supervisor: concurrent worker processes with
//! hang/crash recovery.
//!
//! A sharded campaign's workers are ordinary OS processes whose only
//! durable product is a crash-safe WAL (see [`crate::wal`]). That makes
//! worker failure cheap to survive: kill whatever is left of the
//! process and start a fresh one with `--resume` — recovery truncates
//! the torn tail and the worker re-executes only the runs the log does
//! not already hold. This module is the loop that does exactly that,
//! for all shards **concurrently**:
//!
//! - **Heartbeat.** Workers do not speak a side protocol; the WAL file
//!   itself is the heartbeat. The supervisor sets
//!   `EPVF_WAL_FLUSH_BATCH=1` in every child so each completed run
//!   reaches the file, and samples `len(WAL)` every poll tick — growth
//!   is progress. A worker that stops growing its WAL for longer than
//!   [`SupervisorConfig::stall_timeout`] (a SIGSTOPped, livelocked, or
//!   wedged process) is killed and classified as a **hang**, as is one
//!   that outlives the per-attempt [`SupervisorConfig::deadline`].
//!   The stall window must cover the worker's startup phase (golden
//!   run + site enumeration happen before the WAL header is written),
//!   so callers size it in seconds, not milliseconds.
//! - **Crash detection.** A worker that exits on a signal or with an
//!   exit code outside [`SupervisorConfig::success_codes`] is a
//!   **crash** (the codes default to `{0, 3}`: exit 3 is the CLI's
//!   graceful-degradation gate, which still writes a complete WAL).
//! - **Restart policy.** Each failure consumes one unit of the
//!   per-shard retry budget. Restarts resume from the shard's WAL when
//!   its header survived (`len >= 16`), else start fresh, after an
//!   exponential backoff with deterministic seeded jitter
//!   (`delay ∈ [2^(k-1)·base/2, 2^(k-1)·base]`, capped) — so a
//!   persistently failing shard cannot hot-loop, and two supervisors
//!   with the same seed back off identically.
//! - **Chaos injection.** The test-only [`ChaosConfig`] hook SIGKILLs
//!   and SIGSTOPs *random* running workers from inside the supervision
//!   loop itself, which is how the chaos harness proves the recovery
//!   path preserves the byte-identity contract.
//!
//! The supervisor never interprets campaign results; it only reports
//! per-shard success/failure and counts what it saw
//! (`supervisor.{shards,spawned,restarts,hangs,crashes}` under the
//! conservation law `spawned == shards + restarts`). Salvaging a failed
//! shard's WAL prefix is merge-side policy (`epvf run-sharded
//! --allow-partial`), not supervisor policy.

use epvf_ir::hash::SplitMix64;
use epvf_telemetry::{add, Ctr};
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How one shard worker attempt is launched. The supervisor decides
/// per attempt whether to use `fresh_args` (no usable WAL on disk) or
/// `resume_args` (header intact), both argv tails for `program`.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Shard index (for logs and telemetry only).
    pub index: usize,
    /// Executable to spawn.
    pub program: PathBuf,
    /// Argv for a from-scratch attempt.
    pub fresh_args: Vec<String>,
    /// Argv for a resume-from-WAL attempt.
    pub resume_args: Vec<String>,
    /// The shard's WAL file: heartbeat source and resume decision.
    pub wal: PathBuf,
    /// Scratch file capturing the worker's stderr (truncated per
    /// attempt); the CLI surfaces its tail on failure.
    pub stderr_path: PathBuf,
    /// Extra environment for the child.
    pub envs: Vec<(String, String)>,
}

/// Supervisor policy knobs.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Restarts allowed per shard (0 = fail on first error).
    pub retries: u32,
    /// Kill a worker whose WAL has not grown for this long.
    pub stall_timeout: Option<Duration>,
    /// Kill a worker attempt that runs longer than this in total.
    pub deadline: Option<Duration>,
    /// Base of the exponential backoff between restarts.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff delay.
    pub backoff_cap: Duration,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
    /// Exit codes that count as shard success.
    pub success_codes: Vec<i32>,
    /// How often the loop samples children and WALs.
    pub poll_interval: Duration,
    /// Test-only fault injection into the loop itself.
    pub chaos: Option<ChaosConfig>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            retries: 2,
            stall_timeout: None,
            deadline: None,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(5),
            seed: 0,
            success_codes: vec![0, 3],
            poll_interval: Duration::from_millis(15),
            chaos: None,
        }
    }
}

/// Test-only chaos injection: per poll tick, each running worker is
/// SIGKILLed with probability `kill_p` and SIGSTOPped with probability
/// `stop_p`, up to `max_events` injections total (bounding the budget
/// guarantees a finite retry budget can still win). `halt_shard`
/// deterministically SIGKILLs that shard immediately at every spawn —
/// the retry-exhaustion lever for `--allow-partial` tests.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Per-tick SIGKILL probability per running worker.
    pub kill_p: f64,
    /// Per-tick SIGSTOP probability per running worker.
    pub stop_p: f64,
    /// RNG seed.
    pub seed: u64,
    /// Cap on total injected events (kills + stops), halts excluded.
    pub max_events: u32,
    /// Kill this shard at every spawn, unconditionally.
    pub halt_shard: Option<usize>,
}

impl ChaosConfig {
    /// Parse the CLI spec `kill:P,stop:P[,seed:S][,max:N][,halt:I]`.
    /// Omitted probabilities default to 0, `seed` to 0, `max` to 8.
    ///
    /// # Errors
    /// A human-readable message for unknown keys or unparsable values.
    pub fn parse(spec: &str) -> Result<ChaosConfig, String> {
        let mut cfg = ChaosConfig {
            kill_p: 0.0,
            stop_p: 0.0,
            seed: 0,
            max_events: 8,
            halt_shard: None,
        };
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once(':')
                .ok_or_else(|| format!("chaos clause `{part}` is not key:value"))?;
            let bad = |what: &str| format!("chaos {key} has a bad {what}: `{value}`");
            match key.trim() {
                "kill" => {
                    cfg.kill_p = value.trim().parse().map_err(|_| bad("probability"))?;
                }
                "stop" => {
                    cfg.stop_p = value.trim().parse().map_err(|_| bad("probability"))?;
                }
                "seed" => cfg.seed = value.trim().parse().map_err(|_| bad("integer"))?,
                "max" => cfg.max_events = value.trim().parse().map_err(|_| bad("integer"))?,
                "halt" => {
                    cfg.halt_shard = Some(value.trim().parse().map_err(|_| bad("shard index"))?)
                }
                other => return Err(format!("unknown chaos key `{other}`")),
            }
        }
        if !(0.0..=1.0).contains(&cfg.kill_p) || !(0.0..=1.0).contains(&cfg.stop_p) {
            return Err("chaos probabilities must be within [0, 1]".into());
        }
        Ok(cfg)
    }
}

/// Why a worker attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Died on a signal (SIGKILL, SIGSEGV, ...), not by our hand.
    Signal(i32),
    /// Exited with a code outside the success set.
    Exit(i32),
    /// Killed by the supervisor: WAL stopped growing.
    Stalled,
    /// Killed by the supervisor: per-attempt deadline exceeded.
    DeadlineExceeded,
    /// The spawn itself failed.
    SpawnError,
}

impl FailureKind {
    /// Whether this failure counts as a hang (supervisor-initiated
    /// kill) rather than a crash.
    pub fn is_hang(self) -> bool {
        matches!(self, FailureKind::Stalled | FailureKind::DeadlineExceeded)
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Signal(sig) => write!(f, "killed by signal {sig}"),
            FailureKind::Exit(code) => write!(f, "exited with code {code}"),
            FailureKind::Stalled => write!(f, "stalled (no WAL progress)"),
            FailureKind::DeadlineExceeded => write!(f, "exceeded the shard deadline"),
            FailureKind::SpawnError => write!(f, "failed to spawn"),
        }
    }
}

/// Narration hook: one call per notable supervision moment, mapped to
/// log lines by the CLI.
#[derive(Debug, Clone)]
pub enum Event {
    /// A worker attempt started (`attempt` is 1-based; `resumed` says
    /// whether it restarts from the shard's WAL).
    Spawned {
        /// Shard index.
        shard: usize,
        /// 1-based attempt number.
        attempt: u32,
        /// Whether the attempt resumes from the WAL.
        resumed: bool,
    },
    /// A worker attempt failed; a retry is scheduled after `backoff`
    /// when `will_retry`.
    Failed {
        /// Shard index.
        shard: usize,
        /// 1-based attempt number that failed.
        attempt: u32,
        /// Why.
        kind: FailureKind,
        /// Whether the retry budget allows another attempt.
        will_retry: bool,
        /// Backoff before that attempt (zero when `!will_retry`).
        backoff: Duration,
    },
    /// A worker attempt finished successfully.
    Succeeded {
        /// Shard index.
        shard: usize,
        /// 1-based attempt number that succeeded.
        attempt: u32,
    },
    /// Chaos injected a fault into a running worker.
    Chaos {
        /// Shard index.
        shard: usize,
        /// `"kill"`, `"stop"`, or `"halt"`.
        action: &'static str,
    },
}

/// Final fate of one shard.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Shard index.
    pub index: usize,
    /// Whether any attempt succeeded.
    pub ok: bool,
    /// Attempts consumed (≥ 1 unless the plan list was empty).
    pub attempts: u32,
    /// The last failure, if any attempt failed.
    pub last_failure: Option<FailureKind>,
}

/// What the supervisor saw, summed over all shards. The counts mirror
/// the `supervisor.*` telemetry counters.
#[derive(Debug, Clone, Default)]
pub struct SupervisorReport {
    /// Per-shard outcomes, in plan order.
    pub shards: Vec<ShardOutcome>,
    /// Worker processes spawned (== shards + restarts).
    pub spawned: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Supervisor-initiated kills (stall or deadline).
    pub hangs: u64,
    /// Signal deaths and bad exit codes.
    pub crashes: u64,
    /// Chaos SIGKILLs injected.
    pub chaos_kills: u64,
    /// Chaos SIGSTOPs injected.
    pub chaos_stops: u64,
}

impl SupervisorReport {
    /// Whether every shard completed successfully.
    pub fn all_ok(&self) -> bool {
        self.shards.iter().all(|s| s.ok)
    }

    /// Indices of shards that exhausted their retry budget.
    pub fn failed_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .filter(|s| !s.ok)
            .map(|s| s.index)
            .collect()
    }
}

/// The jittered exponential backoff before restart number `restart`
/// (1-based) of `shard`: `2^(restart-1) · base` capped at `cap`, then
/// jittered into `[delay/2, delay]`. Deterministic in
/// `(seed, shard, restart)` — no wall clock, no global RNG.
pub fn backoff_delay(cfg: &SupervisorConfig, shard: usize, restart: u32) -> Duration {
    let exp = cfg
        .backoff_base
        .saturating_mul(1u32 << (restart - 1).min(16))
        .min(cfg.backoff_cap);
    let mut rng = SplitMix64::new(
        cfg.seed
            ^ (shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ u64::from(restart).wrapping_mul(0xc2b2_ae3d_27d4_eb4f),
    );
    exp.div_f64(2.0) + exp.div_f64(2.0).mul_f64(rng.next_f64())
}

enum ShardState {
    /// Waiting to (re)spawn at `wake`.
    Waiting {
        wake: Instant,
    },
    Running {
        child: Child,
        spawned_at: Instant,
        last_len: u64,
        last_progress: Instant,
        /// Set when the supervisor itself killed the child; classifies
        /// the upcoming reap as a hang instead of a crash.
        pending_kill: Option<FailureKind>,
        /// The child is currently SIGSTOPped by chaos (skip further
        /// chaos; the stall detector is the recovery path).
        stopped: bool,
    },
    Done,
}

struct ShardSlot<'p> {
    plan: &'p ShardPlan,
    state: ShardState,
    attempts: u32,
    last_failure: Option<FailureKind>,
    ok: bool,
}

fn wal_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Send a signal by name (`STOP`, `CONT`) to a pid via the system
/// `kill` utility — avoids a libc dependency for the one place the
/// standard library has no API.
fn signal_pid(pid: u32, sig: &str) -> bool {
    Command::new("kill")
        .arg(format!("-{sig}"))
        .arg(pid.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

fn spawn_attempt(
    plan: &ShardPlan,
    attempt: u32,
    emit: &mut dyn FnMut(Event),
) -> Result<(Child, bool), FailureKind> {
    // A WAL whose 16-byte header (magic + fingerprint) survived is
    // resumable; anything shorter — including a worker killed before
    // `WalSink::create` ran — starts over from scratch.
    let resumed = wal_len(&plan.wal) >= 16;
    if !resumed {
        let _ = std::fs::remove_file(&plan.wal);
    }
    let stderr = match std::fs::File::create(&plan.stderr_path) {
        Ok(f) => Stdio::from(f),
        Err(_) => Stdio::null(),
    };
    let args = if resumed {
        &plan.resume_args
    } else {
        &plan.fresh_args
    };
    let mut cmd = Command::new(&plan.program);
    cmd.args(args)
        // Flush the WAL after every record so file growth is a
        // fine-grained heartbeat (the batched default could look like
        // a 64-record stall).
        .env("EPVF_WAL_FLUSH_BATCH", "1")
        .stdout(Stdio::null())
        .stderr(stderr);
    for (k, v) in &plan.envs {
        cmd.env(k, v);
    }
    match cmd.spawn() {
        Ok(child) => {
            emit(Event::Spawned {
                shard: plan.index,
                attempt,
                resumed,
            });
            Ok((child, resumed))
        }
        Err(_) => Err(FailureKind::SpawnError),
    }
}

/// Run every shard plan to completion (or retry exhaustion),
/// concurrently, under the failure policy in `cfg`. `emit` receives
/// the narration [`Event`]s as they happen.
///
/// Increments the `supervisor.*` telemetry counters; the conservation
/// laws `spawned == shards + restarts`,
/// `restarts <= hangs + crashes <= spawned` hold on the report and on
/// the registry alike.
///
/// # Errors
/// Only unrecoverable supervisor-side I/O (none today — spawn failures
/// are per-shard failures, not supervisor errors); returns `Ok` even
/// when shards failed, with the fates in the report.
pub fn supervise(
    plans: &[ShardPlan],
    cfg: &SupervisorConfig,
    emit: &mut dyn FnMut(Event),
) -> io::Result<SupervisorReport> {
    let mut report = SupervisorReport::default();
    add(Ctr::SupervisorShards, plans.len() as u64);
    let now = Instant::now();
    let mut slots: Vec<ShardSlot> = plans
        .iter()
        .map(|plan| ShardSlot {
            plan,
            state: ShardState::Waiting { wake: now },
            attempts: 0,
            last_failure: None,
            ok: false,
        })
        .collect();
    let mut chaos_rng = cfg
        .chaos
        .as_ref()
        .map(|c| SplitMix64::new(c.seed ^ 0xc4a0_59a1_5c4a_0e11));
    let mut chaos_events = 0u32;

    loop {
        let mut all_done = true;
        let now = Instant::now();
        for slot in &mut slots {
            match &mut slot.state {
                ShardState::Done => continue,
                ShardState::Waiting { wake } => {
                    all_done = false;
                    if *wake > now {
                        continue;
                    }
                    slot.attempts += 1;
                    add(Ctr::SupervisorSpawned, 1);
                    report.spawned += 1;
                    if slot.attempts > 1 {
                        add(Ctr::SupervisorRestarts, 1);
                        report.restarts += 1;
                    }
                    match spawn_attempt(slot.plan, slot.attempts, emit) {
                        Ok((child, _)) => {
                            let mut state = ShardState::Running {
                                child,
                                spawned_at: now,
                                last_len: wal_len(&slot.plan.wal),
                                last_progress: now,
                                pending_kill: None,
                                stopped: false,
                            };
                            // Deterministic chaos: the halted shard dies
                            // at birth, every attempt.
                            if let Some(chaos) = &cfg.chaos {
                                if chaos.halt_shard == Some(slot.plan.index) {
                                    if let ShardState::Running { child, .. } = &mut state {
                                        let _ = child.kill();
                                    }
                                    emit(Event::Chaos {
                                        shard: slot.plan.index,
                                        action: "halt",
                                    });
                                } else if let Some(rng) = &mut chaos_rng {
                                    // Random chaos also flips a coin at
                                    // spawn: a worker that finishes
                                    // inside one poll tick would
                                    // otherwise never be disturbable,
                                    // and mid-campaign includes the
                                    // very first record.
                                    if chaos_events < chaos.max_events {
                                        if rng.next_f64() < chaos.kill_p {
                                            chaos_events += 1;
                                            report.chaos_kills += 1;
                                            add(Ctr::SupervisorChaosKills, 1);
                                            if let ShardState::Running { child, .. } = &mut state {
                                                let _ = child.kill();
                                            }
                                            emit(Event::Chaos {
                                                shard: slot.plan.index,
                                                action: "kill",
                                            });
                                        } else if rng.next_f64() < chaos.stop_p {
                                            if let ShardState::Running { child, stopped, .. } =
                                                &mut state
                                            {
                                                if signal_pid(child.id(), "STOP") {
                                                    chaos_events += 1;
                                                    report.chaos_stops += 1;
                                                    add(Ctr::SupervisorChaosStops, 1);
                                                    *stopped = true;
                                                    emit(Event::Chaos {
                                                        shard: slot.plan.index,
                                                        action: "stop",
                                                    });
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                            slot.state = state;
                        }
                        Err(kind) => {
                            fail_slot(slot, kind, cfg, &mut report, emit);
                        }
                    }
                }
                ShardState::Running {
                    child,
                    spawned_at,
                    last_len,
                    last_progress,
                    pending_kill,
                    stopped,
                } => {
                    all_done = false;
                    match child.try_wait() {
                        Ok(Some(status)) => {
                            let kind = classify_exit(&status, &cfg.success_codes, *pending_kill);
                            match kind {
                                None => {
                                    slot.ok = true;
                                    slot.state = ShardState::Done;
                                    emit(Event::Succeeded {
                                        shard: slot.plan.index,
                                        attempt: slot.attempts,
                                    });
                                }
                                Some(kind) => {
                                    fail_slot(slot, kind, cfg, &mut report, emit);
                                }
                            }
                            continue;
                        }
                        Ok(None) => {}
                        Err(_) => continue,
                    }
                    if pending_kill.is_some() {
                        // Kill already sent; just wait for the reap.
                        continue;
                    }
                    // Heartbeat: WAL growth is progress.
                    let len = wal_len(&slot.plan.wal);
                    if len > *last_len {
                        *last_len = len;
                        *last_progress = now;
                    }
                    let stalled = cfg
                        .stall_timeout
                        .is_some_and(|t| now.duration_since(*last_progress) > t);
                    let over_deadline = cfg
                        .deadline
                        .is_some_and(|t| now.duration_since(*spawned_at) > t);
                    if stalled || over_deadline {
                        *pending_kill = Some(if stalled {
                            FailureKind::Stalled
                        } else {
                            FailureKind::DeadlineExceeded
                        });
                        // SIGKILL also reaps a SIGSTOPped child — no
                        // SIGCONT needed first.
                        let _ = child.kill();
                        continue;
                    }
                    // Chaos tick.
                    if let (Some(chaos), Some(rng)) = (&cfg.chaos, &mut chaos_rng) {
                        if chaos_events < chaos.max_events && !*stopped {
                            if rng.next_f64() < chaos.kill_p {
                                chaos_events += 1;
                                report.chaos_kills += 1;
                                add(Ctr::SupervisorChaosKills, 1);
                                let _ = child.kill();
                                emit(Event::Chaos {
                                    shard: slot.plan.index,
                                    action: "kill",
                                });
                            } else if rng.next_f64() < chaos.stop_p {
                                chaos_events += 1;
                                report.chaos_stops += 1;
                                add(Ctr::SupervisorChaosStops, 1);
                                if signal_pid(child.id(), "STOP") {
                                    *stopped = true;
                                    emit(Event::Chaos {
                                        shard: slot.plan.index,
                                        action: "stop",
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        if all_done {
            break;
        }
        std::thread::sleep(cfg.poll_interval);
    }

    report.shards = slots
        .iter()
        .map(|s| ShardOutcome {
            index: s.plan.index,
            ok: s.ok,
            attempts: s.attempts,
            last_failure: s.last_failure,
        })
        .collect();
    Ok(report)
}

/// `None` = success. Supervisor-initiated kills classify as the kind
/// recorded when the kill was sent, not as the SIGKILL they die of.
fn classify_exit(
    status: &std::process::ExitStatus,
    success_codes: &[i32],
    pending_kill: Option<FailureKind>,
) -> Option<FailureKind> {
    if let Some(kind) = pending_kill {
        return Some(kind);
    }
    match status.code() {
        Some(code) if success_codes.contains(&code) => None,
        Some(code) => Some(FailureKind::Exit(code)),
        None => {
            #[cfg(unix)]
            {
                use std::os::unix::process::ExitStatusExt;
                Some(FailureKind::Signal(status.signal().unwrap_or(0)))
            }
            #[cfg(not(unix))]
            Some(FailureKind::Signal(0))
        }
    }
}

fn fail_slot(
    slot: &mut ShardSlot<'_>,
    kind: FailureKind,
    cfg: &SupervisorConfig,
    report: &mut SupervisorReport,
    emit: &mut dyn FnMut(Event),
) {
    if kind.is_hang() {
        add(Ctr::SupervisorHangs, 1);
        report.hangs += 1;
    } else {
        add(Ctr::SupervisorCrashes, 1);
        report.crashes += 1;
    }
    slot.last_failure = Some(kind);
    let will_retry = slot.attempts <= cfg.retries;
    let backoff = if will_retry {
        backoff_delay(cfg, slot.plan.index, slot.attempts)
    } else {
        Duration::ZERO
    };
    emit(Event::Failed {
        shard: slot.plan.index,
        attempt: slot.attempts,
        kind,
        will_retry,
        backoff,
    });
    slot.state = if will_retry {
        ShardState::Waiting {
            wake: Instant::now() + backoff,
        }
    } else {
        ShardState::Done
    };
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    fn sh(dir: &std::path::Path, name: &str, script: &str) -> ShardPlan {
        ShardPlan {
            index: 0,
            program: PathBuf::from("/bin/sh"),
            fresh_args: vec!["-c".into(), script.into()],
            resume_args: vec!["-c".into(), script.into()],
            wal: dir.join(format!("{name}.wal")),
            stderr_path: dir.join(format!("{name}.stderr")),
            envs: Vec::new(),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("epvf-supervisor-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn quiet() -> impl FnMut(Event) {
        |_| {}
    }

    #[test]
    fn all_successful_workers_spawn_once() {
        let dir = tmpdir("ok");
        let plans: Vec<ShardPlan> = (0..3)
            .map(|i| {
                let mut p = sh(&dir, &format!("ok{i}"), "exit 0");
                p.index = i;
                p
            })
            .collect();
        let report = supervise(&plans, &SupervisorConfig::default(), &mut quiet()).unwrap();
        assert!(report.all_ok());
        assert_eq!(report.spawned, 3);
        assert_eq!(report.restarts, 0);
        assert_eq!(report.crashes, 0);
        assert_eq!(report.hangs, 0);
    }

    #[test]
    fn degraded_exit_code_counts_as_success() {
        let dir = tmpdir("degraded");
        let report = supervise(
            &[sh(&dir, "deg", "exit 3")],
            &SupervisorConfig::default(),
            &mut quiet(),
        )
        .unwrap();
        assert!(report.all_ok());
        assert_eq!(report.crashes, 0);
    }

    #[test]
    fn persistent_failure_exhausts_the_retry_budget() {
        let dir = tmpdir("exhaust");
        let cfg = SupervisorConfig {
            retries: 2,
            backoff_base: Duration::from_millis(1),
            ..SupervisorConfig::default()
        };
        let report = supervise(&[sh(&dir, "bad", "exit 7")], &cfg, &mut quiet()).unwrap();
        assert!(!report.all_ok());
        assert_eq!(report.failed_shards(), vec![0]);
        assert_eq!(report.shards[0].attempts, 3); // 1 first + 2 retries
        assert_eq!(report.spawned, 3);
        assert_eq!(report.restarts, 2);
        assert_eq!(report.crashes, 3);
        assert_eq!(report.shards[0].last_failure, Some(FailureKind::Exit(7)));
    }

    #[test]
    fn restart_resumes_once_the_wal_header_exists() {
        let dir = tmpdir("resume");
        // Fresh attempt writes a 16-byte header then fails; the resume
        // attempt (distinct argv) succeeds — proving the supervisor
        // switched argv based on the WAL.
        let wal = dir.join("resume.wal");
        let plan = ShardPlan {
            index: 0,
            program: PathBuf::from("/bin/sh"),
            fresh_args: vec![
                "-c".into(),
                format!("printf 'EPVFWAL1XXXXXXXX' > {}; exit 1", wal.display()),
            ],
            resume_args: vec!["-c".into(), "exit 0".into()],
            wal,
            stderr_path: dir.join("resume.stderr"),
            envs: Vec::new(),
        };
        let cfg = SupervisorConfig {
            retries: 1,
            backoff_base: Duration::from_millis(1),
            ..SupervisorConfig::default()
        };
        let report = supervise(&[plan], &cfg, &mut quiet()).unwrap();
        assert!(report.all_ok(), "{report:?}");
        assert_eq!(report.restarts, 1);
        assert_eq!(report.crashes, 1);
    }

    #[test]
    fn stalled_worker_is_killed_and_classified_as_hang() {
        let dir = tmpdir("stall");
        let cfg = SupervisorConfig {
            retries: 0,
            stall_timeout: Some(Duration::from_millis(200)),
            ..SupervisorConfig::default()
        };
        let report = supervise(&[sh(&dir, "sleepy", "sleep 30")], &cfg, &mut quiet()).unwrap();
        assert!(!report.all_ok());
        assert_eq!(report.hangs, 1);
        assert_eq!(report.crashes, 0);
        assert_eq!(report.shards[0].last_failure, Some(FailureKind::Stalled));
    }

    #[test]
    fn deadline_kill_is_distinct_from_stall() {
        let dir = tmpdir("deadline");
        let wal = dir.join("beat.wal");
        // The worker keeps growing its WAL (so it never stalls) but
        // outlives the deadline.
        let script = format!(
            "i=0; while [ $i -lt 100 ]; do echo beat >> {}; i=$((i+1)); sleep 0.05; done",
            wal.display()
        );
        let plan = ShardPlan {
            index: 0,
            program: PathBuf::from("/bin/sh"),
            fresh_args: vec!["-c".into(), script.clone()],
            resume_args: vec!["-c".into(), script],
            wal,
            stderr_path: dir.join("beat.stderr"),
            envs: Vec::new(),
        };
        let cfg = SupervisorConfig {
            retries: 0,
            stall_timeout: Some(Duration::from_secs(10)),
            deadline: Some(Duration::from_millis(300)),
            ..SupervisorConfig::default()
        };
        let report = supervise(&[plan], &cfg, &mut quiet()).unwrap();
        assert_eq!(report.hangs, 1);
        assert_eq!(
            report.shards[0].last_failure,
            Some(FailureKind::DeadlineExceeded)
        );
    }

    #[test]
    fn halt_chaos_guarantees_retry_exhaustion() {
        let dir = tmpdir("halt");
        let cfg = SupervisorConfig {
            retries: 1,
            backoff_base: Duration::from_millis(1),
            chaos: Some(ChaosConfig::parse("halt:0").unwrap()),
            ..SupervisorConfig::default()
        };
        let report = supervise(&[sh(&dir, "halted", "sleep 30")], &cfg, &mut quiet()).unwrap();
        assert!(!report.all_ok());
        assert_eq!(report.spawned, 2);
        // Every attempt dies on the injected SIGKILL.
        assert!(matches!(
            report.shards[0].last_failure,
            Some(FailureKind::Signal(_))
        ));
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let cfg = SupervisorConfig {
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_millis(800),
            seed: 42,
            ..SupervisorConfig::default()
        };
        for shard in 0..4 {
            for restart in 1..8 {
                let a = backoff_delay(&cfg, shard, restart);
                let b = backoff_delay(&cfg, shard, restart);
                assert_eq!(a, b, "same inputs, same delay");
                let exp = Duration::from_millis(100)
                    .saturating_mul(1 << (restart - 1).min(16))
                    .min(Duration::from_millis(800));
                assert!(a >= exp.div_f64(2.0) && a <= exp, "jitter window");
            }
        }
        // Different seeds give different jitter somewhere.
        let other = SupervisorConfig {
            seed: 43,
            ..cfg.clone()
        };
        assert!((1..8).any(|r| backoff_delay(&cfg, 0, r) != backoff_delay(&other, 0, r)));
    }

    #[test]
    fn chaos_spec_parses_and_rejects() {
        let c = ChaosConfig::parse("kill:0.3,stop:0.25,seed:9,max:5,halt:2").unwrap();
        assert_eq!(c.kill_p, 0.3);
        assert_eq!(c.stop_p, 0.25);
        assert_eq!(c.seed, 9);
        assert_eq!(c.max_events, 5);
        assert_eq!(c.halt_shard, Some(2));
        let d = ChaosConfig::parse("kill:0.5").unwrap();
        assert_eq!(d.stop_p, 0.0);
        assert_eq!(d.max_events, 8);
        assert!(ChaosConfig::parse("kill:2.0").is_err());
        assert!(ChaosConfig::parse("frob:1").is_err());
        assert!(ChaosConfig::parse("kill").is_err());
    }
}

#[cfg(all(test, unix))]
mod chaos_tick_tests {
    use super::*;

    #[test]
    fn random_kill_chaos_fires_on_running_workers() {
        let dir = std::env::temp_dir().join(format!("epvf-chaos-tick-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let plan = ShardPlan {
            index: 0,
            program: PathBuf::from("/bin/sh"),
            fresh_args: vec!["-c".into(), "sleep 5".into()],
            resume_args: vec!["-c".into(), "exit 0".into()],
            wal: dir.join("tick.wal"),
            stderr_path: dir.join("tick.stderr"),
            envs: Vec::new(),
        };
        let cfg = SupervisorConfig {
            retries: 1,
            backoff_base: Duration::from_millis(1),
            chaos: Some(ChaosConfig::parse("kill:1.0,max:1,seed:3").unwrap()),
            ..SupervisorConfig::default()
        };
        let report = supervise(&[plan], &cfg, &mut |_| {}).unwrap();
        assert_eq!(report.chaos_kills, 1, "{report:?}");
    }
}
