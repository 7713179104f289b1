//! Crash-safe write-ahead log of completed injection-run outcomes.
//!
//! A campaign told to persist (`epvf inject --wal FILE`) appends one
//! fixed-layout record per finished run. If the process dies — SIGKILL,
//! OOM, power loss — a later `--resume` invocation recovers every intact
//! record, re-runs only the missing specs, and reproduces byte-identical
//! aggregates.
//!
//! ## On-disk format
//!
//! ```text
//! header:  "EPVFWAL1"  (8 bytes)  ++  fingerprint (u64 LE)
//! record:  len (u32 LE)  ++  payload (len bytes)  ++  fnv1a32(payload) (u32 LE)
//! payload: index (u64 LE) ++ dyn_idx (u64 LE) ++ operand_slot (u32 LE)
//!          ++ bit (u8) ++ outcome tag (u8) ++ outcome subtag (u8)
//! ```
//!
//! The fingerprint binds the log to one exact campaign, so a stale WAL
//! from a different command is rejected instead of silently merged.
//! There are three domains, all hashed over module text, entry, and args:
//! [`wal_fingerprint_model`] (a drawn spec list under a fault model),
//! [`wal_fingerprint_shard`] (one strided slice of such a draw), and
//! [`wal_fingerprint_adaptive`] (a sampler configuration under a fault
//! model). Records are
//! checksummed individually; recovery stops at the first torn or
//! corrupt record and keeps everything before it — exactly the tail a
//! crash mid-append can damage. Duplicate indices (possible when a crash
//! lands between the outcome being applied and the batch being flushed
//! on a later resume) are deduplicated latest-wins.

use crate::campaign::InjOutcome;
use crate::sampler::SamplerConfig;
use epvf_interp::{CrashKind, InjectionSpec, TimeoutKind};
use epvf_ir::hash::{fnv1a32, Fnv64};
use epvf_telemetry::Ctr;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Magic bytes opening every WAL file (format version 1).
pub const WAL_MAGIC: &[u8; 8] = b"EPVFWAL1";

/// Flush to the OS after this many buffered records.
const FLUSH_BATCH: usize = 64;

/// The effective flush batch: [`FLUSH_BATCH`] unless overridden by the
/// `EPVF_WAL_FLUSH_BATCH` environment variable (clamped to ≥ 1). The
/// shard supervisor sets a small value in its workers so WAL file
/// growth doubles as a fine-grained liveness heartbeat; everything else
/// keeps the amortized default.
fn flush_batch() -> usize {
    use std::sync::OnceLock;
    static BATCH: OnceLock<usize> = OnceLock::new();
    *BATCH.get_or_init(|| {
        std::env::var("EPVF_WAL_FLUSH_BATCH")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(FLUSH_BATCH)
    })
}

/// Hash the identity every campaign fingerprint starts from: module
/// text, entry, and args.
fn campaign_prefix(module_text: &str, entry: &str, args: &[u64]) -> Fnv64 {
    let mut h = Fnv64::new();
    h.update(module_text.as_bytes());
    h.update(&[0xff]);
    h.update(entry.as_bytes());
    h.update(&[0xff]);
    for &a in args {
        h.update(&a.to_le_bytes());
    }
    h
}

/// Mix a non-default model name into a fingerprint (identity for the
/// default model, so single-bit-flip WALs predate and outlive the
/// model domain).
fn model_domain(mut h: Fnv64, model_name: &str) -> u64 {
    if model_name != epvf_core::DEFAULT_MODEL {
        h.update(&[0xfc]);
        h.update(model_name.as_bytes());
    }
    h.finish()
}

/// Fingerprint of one exact campaign invocation: module text, entry,
/// args, the complete ordered spec list, and the fault model. A WAL
/// carries this in its header; [`recover`](WalSink::recover) refuses to
/// resume against a different fingerprint. A non-default model appends a
/// `0xfc` domain separator plus its canonical name, so the same spec
/// coordinates under different models can never cross-resume.
pub fn wal_fingerprint_model(
    module_text: &str,
    entry: &str,
    args: &[u64],
    specs: &[InjectionSpec],
    model_name: &str,
) -> u64 {
    let mut h = campaign_prefix(module_text, entry, args);
    h.update(&[0xfe]);
    for s in specs {
        h.update(&s.dyn_idx.to_le_bytes());
        h.update(&(s.operand_slot as u32).to_le_bytes());
        h.update(&[s.bit]);
    }
    model_domain(h, model_name)
}

/// Mix a shard's partition coordinates into a campaign fingerprint. The
/// whole-campaign partition (`of <= 1`) is the **identity** — a 1-way
/// shard WAL is interchangeable with a plain `epvf inject --wal` log.
/// Real partitions append a `0xfb` domain separator plus `(index, of)`,
/// so a shard's WAL can never be resumed under a different `--index`
/// or `--of` (where its global record indices would map onto different
/// runs) and `epvf merge` can identify which shard a log belongs to by
/// trying each candidate `(i, of)` against the header.
pub fn wal_fingerprint_shard(base: u64, index: usize, of: usize) -> u64 {
    if of <= 1 {
        return base;
    }
    let mut h = Fnv64::resume(base);
    h.update(&[0xfb]);
    h.update(&(index as u64).to_le_bytes());
    h.update(&(of as u64).to_le_bytes());
    h.finish()
}

/// Read just the fingerprint from a WAL header without recovering the
/// records — how `epvf merge` matches each input file to its shard.
///
/// # Errors
/// [`WalError::BadMagic`] / [`WalError::TruncatedHeader`] for files that
/// are not WALs, [`WalError::Io`] on filesystem failures.
pub fn read_wal_fingerprint(path: &Path) -> Result<u64, WalError> {
    let mut head = [0u8; 16];
    let mut file = File::open(path)?;
    let mut got = 0;
    while got < head.len() {
        let n = file.read(&mut head[got..])?;
        if n == 0 {
            break;
        }
        got += n;
    }
    if got < head.len() {
        return Err(if head[..got.min(8)] == WAL_MAGIC[..got.min(8)] {
            WalError::TruncatedHeader
        } else {
            WalError::BadMagic
        });
    }
    if &head[..8] != WAL_MAGIC {
        return Err(WalError::BadMagic);
    }
    Ok(u64::from_le_bytes(head[8..16].try_into().expect("8 bytes")))
}

/// Fingerprint of one *adaptive* campaign invocation. An adaptive
/// campaign's spec list is not known upfront (each round's allocation
/// depends on earlier outcomes), but it **is** a pure function of the
/// campaign inputs and the sampler configuration — so hashing those plus
/// the exact config pins the execution sequence just as tightly as the
/// explicit spec list does for [`wal_fingerprint_model`]. A `0xfd` domain
/// separator keeps adaptive and exhaustive fingerprints disjoint even for
/// identical module/entry/args; the model domain is the same as there.
pub fn wal_fingerprint_adaptive(
    module_text: &str,
    entry: &str,
    args: &[u64],
    cfg: &SamplerConfig,
    model_name: &str,
) -> u64 {
    let mut h = campaign_prefix(module_text, entry, args);
    h.update(&[0xfd]);
    h.update(&cfg.target_ci.to_bits().to_le_bytes());
    h.update(&(cfg.pilot as u64).to_le_bytes());
    h.update(&(cfg.batch as u64).to_le_bytes());
    h.update(&(cfg.max_runs as u64).to_le_bytes());
    h.update(&cfg.seed.to_le_bytes());
    model_domain(h, model_name)
}

/// Why a WAL could not be opened or recovered.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem failure.
    Io(io::Error),
    /// The file does not start with [`WAL_MAGIC`].
    BadMagic,
    /// Header shorter than magic + fingerprint.
    TruncatedHeader,
    /// The log belongs to a different campaign (module/entry/args/specs).
    FingerprintMismatch {
        /// Fingerprint of the campaign being resumed.
        expected: u64,
        /// Fingerprint recorded in the WAL header.
        found: u64,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "WAL I/O error: {e}"),
            WalError::BadMagic => write!(f, "not a WAL file (bad magic)"),
            WalError::TruncatedHeader => write!(f, "WAL header truncated"),
            WalError::FingerprintMismatch { expected, found } => write!(
                f,
                "WAL belongs to a different campaign \
                 (expected fingerprint {expected:#018x}, file has {found:#018x}); \
                 delete it or rerun without --resume"
            ),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Outcomes salvaged from an existing WAL by [`WalSink::recover`].
#[derive(Debug, Default)]
pub struct RecoveredWal {
    /// `spec-list index -> (spec, outcome)` for every intact record
    /// (latest record wins on duplicate indices).
    pub outcomes: BTreeMap<usize, (InjectionSpec, InjOutcome)>,
    /// Records dropped because a torn tail or checksum failure cut the
    /// scan short (everything from the first bad frame on).
    pub torn: u64,
    /// Duplicate-index records superseded by a later record.
    pub duplicates: u64,
    /// Byte offset of the end of the last intact record — the resume
    /// point the file is truncated to before appending continues.
    pub valid_len: u64,
}

fn encode_outcome(o: InjOutcome) -> (u8, u8) {
    match o {
        InjOutcome::Benign => (0, 0),
        InjOutcome::Sdc => (1, 0),
        InjOutcome::Crash(CrashKind::Segfault) => (2, 0),
        InjOutcome::Crash(CrashKind::Abort) => (2, 1),
        InjOutcome::Crash(CrashKind::Misaligned) => (2, 2),
        InjOutcome::Crash(CrashKind::Arithmetic) => (2, 3),
        InjOutcome::Hang => (3, 0),
        InjOutcome::Detected => (4, 0),
        InjOutcome::TimedOut(TimeoutKind::Fuel) => (5, 0),
        InjOutcome::TimedOut(TimeoutKind::Deadline) => (5, 1),
        InjOutcome::Quarantined => (6, 0),
    }
}

fn decode_outcome(tag: u8, sub: u8) -> Option<InjOutcome> {
    Some(match (tag, sub) {
        (0, 0) => InjOutcome::Benign,
        (1, 0) => InjOutcome::Sdc,
        (2, 0) => InjOutcome::Crash(CrashKind::Segfault),
        (2, 1) => InjOutcome::Crash(CrashKind::Abort),
        (2, 2) => InjOutcome::Crash(CrashKind::Misaligned),
        (2, 3) => InjOutcome::Crash(CrashKind::Arithmetic),
        (3, 0) => InjOutcome::Hang,
        (4, 0) => InjOutcome::Detected,
        (5, 0) => InjOutcome::TimedOut(TimeoutKind::Fuel),
        (5, 1) => InjOutcome::TimedOut(TimeoutKind::Deadline),
        (6, 0) => InjOutcome::Quarantined,
        _ => return None,
    })
}

/// Payload length of every record (the format is fixed-width).
const PAYLOAD_LEN: usize = 8 + 8 + 4 + 1 + 1 + 1;

fn encode_payload(index: usize, spec: InjectionSpec, outcome: InjOutcome) -> [u8; PAYLOAD_LEN] {
    let (tag, sub) = encode_outcome(outcome);
    let mut p = [0u8; PAYLOAD_LEN];
    p[0..8].copy_from_slice(&(index as u64).to_le_bytes());
    p[8..16].copy_from_slice(&spec.dyn_idx.to_le_bytes());
    p[16..20].copy_from_slice(&(spec.operand_slot as u32).to_le_bytes());
    p[20] = spec.bit;
    p[21] = tag;
    p[22] = sub;
    p
}

fn decode_payload(p: &[u8]) -> Option<(usize, InjectionSpec, InjOutcome)> {
    if p.len() != PAYLOAD_LEN {
        return None;
    }
    let index = u64::from_le_bytes(p[0..8].try_into().ok()?);
    let dyn_idx = u64::from_le_bytes(p[8..16].try_into().ok()?);
    let slot = u32::from_le_bytes(p[16..20].try_into().ok()?);
    let spec = InjectionSpec {
        dyn_idx,
        operand_slot: slot as usize,
        bit: p[20],
    };
    let outcome = decode_outcome(p[21], p[22])?;
    Some((usize::try_from(index).ok()?, spec, outcome))
}

struct WalInner {
    file: File,
    buf: Vec<u8>,
    pending: usize,
    first_error: Option<io::Error>,
}

impl WalInner {
    /// Hand the buffered records to the OS. `sync` additionally forces
    /// them to stable storage: batch flushes skip it (a killed *process*
    /// cannot lose page-cache writes, and per-batch fsync costs ~10% of
    /// campaign wall time), while the end-of-campaign flush pays it once
    /// to also survive power loss.
    fn flush_locked(&mut self, sync: bool) {
        if self.buf.is_empty() {
            if sync {
                self.record_error(self.file.sync_data());
            }
            return;
        }
        let mut r = self.file.write_all(&self.buf);
        if sync {
            r = r.and_then(|()| self.file.sync_data());
        }
        self.buf.clear();
        self.pending = 0;
        // Only a flush that actually moved bytes counts — the conservation
        // law requires flushes <= records_appended.
        epvf_telemetry::add(Ctr::WalFlushes, 1);
        self.record_error(r);
    }

    fn record_error(&mut self, r: io::Result<()>) {
        if let (Err(e), None) = (r, self.first_error.as_ref()) {
            self.first_error = Some(e);
        }
    }
}

/// Thread-safe appender for a campaign's WAL. Workers share one sink;
/// appends are buffered and flushed to the OS every [`FLUSH_BATCH`]
/// records (and once more when the campaign finishes).
///
/// Write errors do not abort the campaign mid-flight (the in-memory
/// result is still valid); the first one is kept and surfaced by
/// [`WalSink::take_error`] so the CLI can exit with its I/O code.
pub struct WalSink {
    path: PathBuf,
    inner: Mutex<WalInner>,
}

impl fmt::Debug for WalSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WalSink").field("path", &self.path).finish()
    }
}

impl WalSink {
    /// Start a fresh WAL at `path` (truncating any previous file),
    /// stamped with `fingerprint`.
    ///
    /// # Errors
    /// Propagates filesystem errors creating or writing the header.
    pub fn create(path: &Path, fingerprint: u64) -> Result<WalSink, WalError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = File::create(path)?;
        file.write_all(WAL_MAGIC)?;
        file.write_all(&fingerprint.to_le_bytes())?;
        file.sync_data()?;
        Ok(WalSink {
            path: path.to_path_buf(),
            inner: Mutex::new(WalInner {
                file,
                buf: Vec::new(),
                pending: 0,
                first_error: None,
            }),
        })
    }

    /// Recover an existing WAL: verify magic and fingerprint, scan intact
    /// records (stopping at the first torn or checksum-failing frame),
    /// truncate the file back to the last intact record, and reopen it
    /// for appending.
    ///
    /// # Errors
    /// [`WalError::BadMagic`] / [`WalError::TruncatedHeader`] for files
    /// that are not WALs, [`WalError::FingerprintMismatch`] when the log
    /// belongs to a different campaign, and [`WalError::Io`] on
    /// filesystem failures.
    pub fn recover(path: &Path, fingerprint: u64) -> Result<(WalSink, RecoveredWal), WalError> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        if bytes.len() < WAL_MAGIC.len() + 8 {
            return Err(if bytes.starts_with(&WAL_MAGIC[..bytes.len().min(8)]) {
                WalError::TruncatedHeader
            } else {
                WalError::BadMagic
            });
        }
        if &bytes[..8] != WAL_MAGIC {
            return Err(WalError::BadMagic);
        }
        let found = u64::from_le_bytes(bytes[8..16].try_into().expect("sliced 8 bytes"));
        if found != fingerprint {
            return Err(WalError::FingerprintMismatch {
                expected: fingerprint,
                found,
            });
        }

        let mut rec = RecoveredWal {
            valid_len: 16,
            ..RecoveredWal::default()
        };
        let mut pos = 16usize;
        loop {
            let Some(frame) = bytes.get(pos..pos + 4) else {
                // Clean end (or a tail shorter than a length prefix).
                rec.torn += u64::from(pos < bytes.len());
                break;
            };
            let len = u32::from_le_bytes(frame.try_into().expect("sliced 4 bytes")) as usize;
            let Some(payload) = bytes.get(pos + 4..pos + 4 + len) else {
                rec.torn += 1;
                break;
            };
            let Some(ck) = bytes.get(pos + 4 + len..pos + 8 + len) else {
                rec.torn += 1;
                break;
            };
            let stored = u32::from_le_bytes(ck.try_into().expect("sliced 4 bytes"));
            if stored != fnv1a32(payload) {
                rec.torn += 1;
                break;
            }
            let Some((index, spec, outcome)) = decode_payload(payload) else {
                rec.torn += 1;
                break;
            };
            if rec.outcomes.insert(index, (spec, outcome)).is_some() {
                rec.duplicates += 1;
            }
            pos += 8 + len;
            rec.valid_len = pos as u64;
        }
        epvf_telemetry::add(Ctr::WalRecordsRecovered, rec.outcomes.len() as u64);
        epvf_telemetry::add(Ctr::WalRecordsTorn, rec.torn);
        epvf_telemetry::add(Ctr::WalDuplicatesDropped, rec.duplicates);

        let file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(rec.valid_len)?;
        let mut file = file;
        use std::io::Seek;
        file.seek(io::SeekFrom::End(0))?;
        Ok((
            WalSink {
                path: path.to_path_buf(),
                inner: Mutex::new(WalInner {
                    file,
                    buf: Vec::new(),
                    pending: 0,
                    first_error: None,
                }),
            },
            rec,
        ))
    }

    /// The file this sink appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one completed run. Buffered; flushed every
    /// [`FLUSH_BATCH`] records (or every `EPVF_WAL_FLUSH_BATCH` when
    /// that environment override is set — see [`flush_batch`]).
    pub fn append(&self, index: usize, spec: InjectionSpec, outcome: InjOutcome) {
        let payload = encode_payload(index, spec, outcome);
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner
            .buf
            .extend_from_slice(&(PAYLOAD_LEN as u32).to_le_bytes());
        inner.buf.extend_from_slice(&payload);
        inner
            .buf
            .extend_from_slice(&fnv1a32(&payload).to_le_bytes());
        inner.pending += 1;
        epvf_telemetry::add(Ctr::WalRecordsAppended, 1);
        if inner.pending >= flush_batch() {
            inner.flush_locked(false);
        }
    }

    /// Flush any buffered records to the OS.
    pub fn flush(&self) {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .flush_locked(true);
    }

    /// The first write error hit so far, if any (clears it).
    pub fn take_error(&self) -> Option<io::Error> {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .first_error
            .take()
    }
}

impl Drop for WalSink {
    fn drop(&mut self) {
        if let Ok(inner) = self.inner.get_mut() {
            inner.flush_locked(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("epvf-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn spec(dyn_idx: u64, slot: usize, bit: u8) -> InjectionSpec {
        InjectionSpec {
            dyn_idx,
            operand_slot: slot,
            bit,
        }
    }

    #[test]
    fn outcome_codec_round_trips() {
        let all = [
            InjOutcome::Benign,
            InjOutcome::Sdc,
            InjOutcome::Crash(CrashKind::Segfault),
            InjOutcome::Crash(CrashKind::Abort),
            InjOutcome::Crash(CrashKind::Misaligned),
            InjOutcome::Crash(CrashKind::Arithmetic),
            InjOutcome::Hang,
            InjOutcome::Detected,
            InjOutcome::TimedOut(TimeoutKind::Fuel),
            InjOutcome::TimedOut(TimeoutKind::Deadline),
            InjOutcome::Quarantined,
        ];
        for o in all {
            let (tag, sub) = encode_outcome(o);
            assert_eq!(decode_outcome(tag, sub), Some(o), "{o:?}");
        }
        assert_eq!(decode_outcome(7, 0), None);
        assert_eq!(decode_outcome(2, 4), None);
    }

    #[test]
    fn append_and_recover_round_trips() {
        let p = scratch("roundtrip.wal");
        let sink = WalSink::create(&p, 0xabcd).unwrap();
        sink.append(0, spec(10, 0, 3), InjOutcome::Benign);
        sink.append(2, spec(20, 1, 7), InjOutcome::Crash(CrashKind::Segfault));
        sink.append(5, spec(30, 0, 63), InjOutcome::Quarantined);
        sink.flush();
        drop(sink);

        let (_sink, rec) = WalSink::recover(&p, 0xabcd).unwrap();
        assert_eq!(rec.torn, 0);
        assert_eq!(rec.duplicates, 0);
        assert_eq!(rec.outcomes.len(), 3);
        assert_eq!(rec.outcomes[&0], (spec(10, 0, 3), InjOutcome::Benign));
        assert_eq!(
            rec.outcomes[&2],
            (spec(20, 1, 7), InjOutcome::Crash(CrashKind::Segfault))
        );
        assert_eq!(rec.outcomes[&5], (spec(30, 0, 63), InjOutcome::Quarantined));
    }

    #[test]
    fn truncated_tail_keeps_intact_prefix() {
        let p = scratch("torn.wal");
        let sink = WalSink::create(&p, 1).unwrap();
        sink.append(0, spec(1, 0, 0), InjOutcome::Benign);
        sink.append(1, spec(2, 0, 1), InjOutcome::Sdc);
        sink.flush();
        drop(sink);
        // Tear the last record in half.
        let full = std::fs::read(&p).unwrap();
        std::fs::write(&p, &full[..full.len() - 5]).unwrap();

        let (_sink, rec) = WalSink::recover(&p, 1).unwrap();
        assert_eq!(rec.outcomes.len(), 1);
        assert_eq!(rec.torn, 1);
        assert!(rec.outcomes.contains_key(&0));
        // The file was truncated back to the intact prefix.
        assert_eq!(std::fs::metadata(&p).unwrap().len(), rec.valid_len);
    }

    #[test]
    fn flipped_checksum_byte_drops_the_record() {
        let p = scratch("badsum.wal");
        let sink = WalSink::create(&p, 1).unwrap();
        sink.append(0, spec(1, 0, 0), InjOutcome::Benign);
        sink.append(1, spec(2, 0, 1), InjOutcome::Hang);
        sink.flush();
        drop(sink);
        let mut bytes = std::fs::read(&p).unwrap();
        // Flip a byte inside the *first* record's checksum: both records
        // are dropped — the first fails its checksum, and scanning stops
        // there because a corrupt frame length cannot be trusted.
        let first_ck = 16 + 4 + PAYLOAD_LEN;
        bytes[first_ck] ^= 0x40;
        std::fs::write(&p, &bytes).unwrap();

        let (_sink, rec) = WalSink::recover(&p, 1).unwrap();
        assert_eq!(rec.outcomes.len(), 0);
        assert_eq!(rec.torn, 1);
        assert_eq!(rec.valid_len, 16);
    }

    #[test]
    fn duplicate_records_dedup_latest_wins() {
        let p = scratch("dup.wal");
        let sink = WalSink::create(&p, 1).unwrap();
        sink.append(3, spec(5, 0, 2), InjOutcome::Benign);
        sink.append(3, spec(5, 0, 2), InjOutcome::Sdc);
        sink.flush();
        drop(sink);

        let (_sink, rec) = WalSink::recover(&p, 1).unwrap();
        assert_eq!(rec.duplicates, 1);
        assert_eq!(rec.outcomes[&3].1, InjOutcome::Sdc);
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let p = scratch("fp.wal");
        WalSink::create(&p, 42).unwrap();
        match WalSink::recover(&p, 43) {
            Err(WalError::FingerprintMismatch { expected, found }) => {
                assert_eq!((expected, found), (43, 42));
            }
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
    }

    #[test]
    fn non_wal_file_is_rejected() {
        let p = scratch("junk.wal");
        std::fs::write(&p, b"definitely not a wal file").unwrap();
        assert!(matches!(WalSink::recover(&p, 1), Err(WalError::BadMagic)));
        std::fs::write(&p, b"EPVF").unwrap();
        assert!(matches!(
            WalSink::recover(&p, 1),
            Err(WalError::TruncatedHeader)
        ));
    }

    #[test]
    fn resume_appends_after_recovery() {
        let p = scratch("resume.wal");
        let sink = WalSink::create(&p, 9).unwrap();
        sink.append(0, spec(1, 0, 0), InjOutcome::Benign);
        sink.flush();
        drop(sink);

        let (sink, rec) = WalSink::recover(&p, 9).unwrap();
        assert_eq!(rec.outcomes.len(), 1);
        sink.append(1, spec(2, 1, 4), InjOutcome::Detected);
        sink.flush();
        drop(sink);

        let (_sink, rec) = WalSink::recover(&p, 9).unwrap();
        assert_eq!(rec.outcomes.len(), 2);
        assert_eq!(rec.outcomes[&1].1, InjOutcome::Detected);
    }

    #[test]
    fn model_fingerprints_are_disjoint() {
        let specs = [spec(1, 0, 0)];
        let fp = |model: &str| wal_fingerprint_model("m", "main", &[4], &specs, model);
        let base = fp(epvf_core::DEFAULT_MODEL);
        let (burst, ecc) = (fp("burst:2"), fp("ecc:100"));
        assert_ne!(burst, base);
        assert_ne!(ecc, base);
        assert_ne!(burst, ecc);
        let cfg = SamplerConfig {
            target_ci: 0.05,
            pilot: 10,
            batch: 10,
            max_runs: 100,
            seed: 7,
        };
        let adaptive = |model: &str| wal_fingerprint_adaptive("m", "main", &[4], &cfg, model);
        assert_ne!(adaptive(epvf_core::DEFAULT_MODEL), base);
        assert_ne!(adaptive("skip"), adaptive(epvf_core::DEFAULT_MODEL));
    }

    #[test]
    fn shard_fingerprint_is_identity_for_whole_and_disjoint_per_partition() {
        let base = 0x1234_5678_9abc_def0u64;
        assert_eq!(wal_fingerprint_shard(base, 0, 1), base);
        assert_eq!(wal_fingerprint_shard(base, 0, 0), base);
        let mut seen = std::collections::BTreeSet::new();
        seen.insert(base);
        for of in 2..=7usize {
            for index in 0..of {
                assert!(
                    seen.insert(wal_fingerprint_shard(base, index, of)),
                    "shard {index}/{of} collides"
                );
            }
        }
    }

    #[test]
    fn read_wal_fingerprint_reads_headers_and_rejects_junk() {
        let p = scratch("readfp.wal");
        let sink = WalSink::create(&p, 0xfeed).unwrap();
        sink.append(0, spec(1, 0, 0), InjOutcome::Benign);
        sink.flush();
        drop(sink);
        assert_eq!(read_wal_fingerprint(&p).unwrap(), 0xfeed);
        std::fs::write(&p, b"not a wal").unwrap();
        assert!(matches!(read_wal_fingerprint(&p), Err(WalError::BadMagic)));
        std::fs::write(&p, &WAL_MAGIC[..6]).unwrap();
        assert!(matches!(
            read_wal_fingerprint(&p),
            Err(WalError::TruncatedHeader)
        ));
    }

    #[test]
    fn fingerprint_distinguishes_campaign_parameters() {
        let specs = [spec(1, 0, 0)];
        let fp = |m: &str, entry: &str, args: &[u64], specs: &[InjectionSpec]| {
            wal_fingerprint_model(m, entry, args, specs, epvf_core::DEFAULT_MODEL)
        };
        let base = fp("m", "main", &[4], &specs);
        assert_eq!(base, fp("m", "main", &[4], &specs));
        assert_ne!(base, fp("m2", "main", &[4], &specs));
        assert_ne!(base, fp("m", "other", &[4], &specs));
        assert_ne!(base, fp("m", "main", &[5], &specs));
        assert_ne!(base, fp("m", "main", &[4], &[spec(1, 0, 1)]));
    }

    #[test]
    fn fingerprint_domains_are_pinned() {
        let specs = [spec(3, 0, 5), spec(17, 1, 63)];
        let fp = |model: &str| wal_fingerprint_model("m", "main", &[4, 9], &specs, model);
        let cfg = SamplerConfig {
            target_ci: 0.05,
            seed: 42,
            ..SamplerConfig::default()
        };
        let adaptive = |model: &str| wal_fingerprint_adaptive("m", "main", &[4, 9], &cfg, model);
        // Existing WALs carry these exact values in their headers; any
        // change here orphans every log written before it.
        assert_eq!(fp(epvf_core::DEFAULT_MODEL), 0xc204_f82f_fe46_a879);
        assert_eq!(fp("burst:3"), 0x4c8b_4072_c5ea_1660);
        assert_eq!(
            wal_fingerprint_shard(fp(epvf_core::DEFAULT_MODEL), 2, 4),
            0xb62d_f422_d511_c560
        );
        assert_eq!(adaptive(epvf_core::DEFAULT_MODEL), 0x5c1f_60f1_0925_0d63);
        assert_eq!(adaptive("skip"), 0xb213_02c4_a99a_ca0a);
    }
}
