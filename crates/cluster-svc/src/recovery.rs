//! Durable write-ahead logging and crash recovery for the decision
//! journal.
//!
//! # Durability model
//!
//! The service's committed decision stream (see [`crate::decision`]) is
//! made durable as a **segmented write-ahead log**: a magic header
//! followed by length-prefixed, CRC32-checksummed frames. Frame 0 holds
//! the journal header (meta table + interned labels, no entries); every
//! later frame holds one *group commit* — a delta-coded batch of journal
//! entries sealed by the [`DurabilitySpec`] (every K committed events
//! and/or every V of virtual time). A frame boundary models an `fsync`:
//! a crash loses only the unsealed tail, never a sealed frame.
//!
//! Because the sealing cadence is a pure function of the committed entry
//! stream, [`WriteAheadLog::build`] constructed *after* a run is
//! byte-identical to the log an online implementation would have written
//! frame-by-frame — which is what lets the crash harness snapshot "what
//! the disk held" at any commit boundary without threading I/O through
//! the hot loop.
//!
//! # Recovery
//!
//! [`WriteAheadLog::scan`] walks frames, verifying each length and
//! checksum. The first invalid frame ends the committed prefix: if it is
//! the trailing write it is a **torn tail** — recorded and truncated,
//! never replayed ([`TornTail`]); a WAL whose magic or header frame is
//! unreadable has no committed state at all and fails with a typed
//! [`WalError`]. [`ClusterService::recover`] then re-executes the job
//! stream from scratch with [`ServeOptions::resume`] set to the
//! recovered prefix: the deterministic engine must reproduce every
//! recovered decision entry-for-entry (any divergence is a typed
//! protocol error) and continues past the crash point to completion. A
//! recovered run's report and journal are byte-identical to an
//! uninterrupted run — the recover-at-every-prefix property tests assert
//! exactly that.

use std::fmt;
use std::sync::Arc;

use desim::{crc32, Journal, JournalEntry, SimDuration};
use dps_sim::{SimError, SimResult};
use faults::FaultPlan;

use crate::job::JobSpec;
use crate::service::{ClusterService, ResumePrefix, ServeOptions, ServiceOutcome};

/// Magic bytes opening every WAL.
pub const WAL_MAGIC: &[u8] = b"DVNSWAL1\n";

/// Group-commit (modeled `fsync`) cadence: when a frame is sealed.
///
/// Both bounds are consulted; a frame seals as soon as either is hit.
/// The cadence depends only on the committed entry stream — entry count
/// and virtual time — never on host state, so the log layout is as
/// deterministic as the journal itself.
#[derive(Clone, Copy, Debug)]
pub struct DurabilitySpec {
    /// Seal a frame after this many committed events (minimum 1).
    pub group_events: u64,
    /// Also seal once a frame spans at least this much virtual time
    /// (zero disables the bound).
    pub group_vtime: SimDuration,
}

impl Default for DurabilitySpec {
    fn default() -> Self {
        DurabilitySpec {
            group_events: 1024,
            group_vtime: SimDuration::ZERO,
        }
    }
}

impl DurabilitySpec {
    /// A spec sealing every `events` committed events.
    pub fn group_commit(events: u64) -> DurabilitySpec {
        DurabilitySpec {
            group_events: events,
            ..DurabilitySpec::default()
        }
    }

    /// Adds a virtual-time sealing bound (builder style).
    pub fn with_vtime_bound(mut self, v: SimDuration) -> DurabilitySpec {
        self.group_vtime = v;
        self
    }

    /// Entry-index ranges `[start, end)` of each sealed frame — the pure
    /// function of the committed stream that makes post-hoc WAL
    /// construction equal online logging.
    pub fn frame_ranges(&self, entries: &[JournalEntry]) -> Vec<(usize, usize)> {
        let group = self.group_events.max(1);
        let mut out = Vec::new();
        let mut start = 0usize;
        while start < entries.len() {
            let first_vt = entries[start].vtime;
            let mut end = start + 1;
            while end < entries.len()
                && ((end - start) as u64) < group
                && (self.group_vtime.is_zero() || entries[end].vtime < first_vt + self.group_vtime)
            {
                end += 1;
            }
            out.push((start, end));
            start = end;
        }
        out
    }
}

/// Unrecoverable WAL corruption: bad magic, or an unreadable header
/// frame — there is no committed state to recover.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalError {
    /// Byte offset of the corruption.
    pub offset: usize,
    /// What was wrong there.
    pub reason: String,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unrecoverable WAL at offset {}: {}",
            self.offset, self.reason
        )
    }
}

impl std::error::Error for WalError {}

/// A trailing invalid frame, detected by its length prefix or checksum
/// and truncated by the scan — a torn write is never replayed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset the torn frame starts at.
    pub offset: usize,
    /// Why the frame was rejected.
    pub reason: String,
}

/// What a [`WriteAheadLog::scan`] recovered.
#[derive(Clone, Debug)]
pub struct RecoveredPrefix {
    /// The committed journal prefix (header + every sealed entry batch).
    pub journal: Journal,
    /// Valid frames consumed (including the header frame).
    pub frames: usize,
    /// The torn tail, when one was detected and truncated.
    pub torn: Option<TornTail>,
}

/// How a [`ClusterService::recover`] found the crashed log.
#[derive(Clone, Debug)]
pub struct CrashReport {
    /// Committed decision entries recovered from the WAL.
    pub recovered_entries: u64,
    /// Valid frames consumed (including the header frame).
    pub frames: usize,
    /// The torn tail, when one was detected and truncated.
    pub torn: Option<TornTail>,
}

/// A segmented, checksummed write-ahead log of one run's decision
/// journal (see the module docs for the format).
#[derive(Clone, Debug)]
pub struct WriteAheadLog {
    bytes: Vec<u8>,
    /// Start offset of each frame, plus a final end-of-log sentinel.
    offsets: Vec<usize>,
    /// Cumulative committed entries after each frame.
    cum_entries: Vec<u64>,
}

/// Appends one frame whose payload `write` encodes in place: the 8-byte
/// header is reserved first and filled in (length, then CRC32 of the
/// payload) once the payload is written.
fn push_frame(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; 8]);
    write(out);
    let payload = &out[at + 8..];
    let len = u32::try_from(payload.len()).expect("WAL frame payload exceeds 4 GiB");
    let crc = crc32(payload);
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    out[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Reads the frame at `pos`; an error is the reason the frame is invalid
/// (short header, short payload, or checksum mismatch).
fn read_frame(bytes: &[u8], pos: usize) -> Result<(&[u8], usize), String> {
    let Some(hdr) = bytes.get(pos..pos + 8) else {
        return Err(format!(
            "truncated frame header ({} of 8 bytes)",
            bytes.len() - pos
        ));
    };
    let len = u32::from_le_bytes(hdr[..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(hdr[4..8].try_into().expect("4 bytes"));
    let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
        return Err(format!(
            "truncated frame payload ({} of {len} bytes)",
            bytes.len() - pos - 8
        ));
    };
    if crc32(payload) != crc {
        return Err("frame checksum mismatch".to_string());
    }
    Ok((payload, pos + 8 + len))
}

impl WriteAheadLog {
    /// Builds the WAL of a finished run's journal under `spec`. Frame 0
    /// is the journal header; each later frame is one sealed entry batch.
    pub fn build(journal: &Journal, spec: &DurabilitySpec) -> WriteAheadLog {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(WAL_MAGIC);
        let mut offsets = vec![bytes.len()];
        let mut cum_entries = vec![0u64];
        push_frame(&mut bytes, |out| {
            out.extend_from_slice(&journal.encode_header());
        });
        offsets.push(bytes.len());
        cum_entries.push(0);
        for (s, e) in spec.frame_ranges(&journal.entries) {
            push_frame(&mut bytes, |out| journal.encode_entry_batch_into(out, s, e));
            offsets.push(bytes.len());
            cum_entries.push(e as u64);
        }
        // The log is immutable from here on: drop the doubling slack of
        // the in-place frame writes.
        bytes.shrink_to_fit();
        WriteAheadLog {
            bytes,
            offsets,
            cum_entries,
        }
    }

    /// The full log bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Total frames (header frame included).
    pub fn frames(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Committed entries covered by the whole log.
    pub fn entries(&self) -> u64 {
        *self.cum_entries.last().expect("sentinel")
    }

    /// Committed entries covered by the first `frames` frames.
    pub fn entries_through(&self, frames: usize) -> u64 {
        self.cum_entries[frames]
    }

    /// The log truncated at a frame boundary — what a disk that synced
    /// exactly `frames` frames holds.
    pub fn frame_prefix(&self, frames: usize) -> &[u8] {
        &self.bytes[..self.offsets[frames]]
    }

    /// The raw bytes of frame `i` (length prefix and checksum included).
    pub fn frame_bytes(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Validates `bytes` frame-by-frame and decodes the committed prefix.
    /// The first invalid frame past the header becomes a truncated
    /// [`TornTail`]; a broken magic or header frame is a [`WalError`].
    pub fn scan(bytes: &[u8]) -> Result<RecoveredPrefix, WalError> {
        if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
            return Err(WalError {
                offset: 0,
                reason: "bad WAL magic".to_string(),
            });
        }
        let mut pos = WAL_MAGIC.len();
        let mut frames = 0usize;
        let mut journal: Option<Journal> = None;
        let mut torn = None;
        while pos < bytes.len() {
            match read_frame(bytes, pos) {
                Ok((payload, next)) => {
                    match &mut journal {
                        None => match Journal::decode(payload) {
                            Ok(j) => journal = Some(j),
                            Err(e) => {
                                return Err(WalError {
                                    offset: pos,
                                    reason: format!("header frame does not decode: {e}"),
                                })
                            }
                        },
                        Some(j) => {
                            if let Err(e) = j.append_entry_batch(payload) {
                                // A frame that passes its checksum but
                                // fails to decode is corruption beyond a
                                // torn write — refuse the whole log.
                                return Err(WalError {
                                    offset: pos,
                                    reason: format!("frame {frames} does not decode: {e}"),
                                });
                            }
                        }
                    }
                    frames += 1;
                    pos = next;
                }
                Err(reason) => {
                    if frames == 0 {
                        return Err(WalError {
                            offset: pos,
                            reason,
                        });
                    }
                    torn = Some(TornTail {
                        offset: pos,
                        reason,
                    });
                    break;
                }
            }
        }
        let Some(journal) = journal else {
            return Err(WalError {
                offset: pos,
                reason: "WAL has no header frame".to_string(),
            });
        };
        Ok(RecoveredPrefix {
            journal,
            frames,
            torn,
        })
    }
}

/// A seeded crash point: which sealed frames survive, and whether the
/// write in flight at the crash leaves a torn partial frame behind.
#[derive(Clone, Copy, Debug)]
pub struct CrashPlan {
    /// Seed picking the crash boundary (and the torn bit position).
    pub seed: u64,
    /// Append a torn partial of the next frame — half its bytes with one
    /// bit flipped — exercising checksum truncation on recovery.
    pub tear: bool,
}

fn xorshift(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl CrashPlan {
    /// A tearing crash plan with the given seed.
    pub fn new(seed: u64) -> CrashPlan {
        CrashPlan { seed, tear: true }
    }

    /// Sets whether the crash tears the in-flight frame (builder style).
    pub fn with_tear(mut self, tear: bool) -> CrashPlan {
        self.tear = tear;
        self
    }

    /// Sealed frames surviving this crash: `1..=frames` (the header
    /// frame always lands before the first commit).
    pub fn keep_frames(&self, wal: &WriteAheadLog) -> usize {
        1 + (xorshift(self.seed) % wal.frames() as u64) as usize
    }

    /// What the disk holds after the crash: the surviving frame prefix,
    /// plus (with `tear`) a corrupted partial of the next frame.
    pub fn crashed_bytes(&self, wal: &WriteAheadLog) -> Vec<u8> {
        let keep = self.keep_frames(wal);
        let mut out = wal.frame_prefix(keep).to_vec();
        if self.tear && keep < wal.frames() {
            let next = wal.frame_bytes(keep);
            let take = (next.len() / 2).max(1);
            let mut part = next[..take].to_vec();
            let i = (xorshift(self.seed ^ 0xD6E8_FEB8_6659_FD93) % part.len() as u64) as usize;
            part[i] ^= 1 << (self.seed % 8);
            out.extend_from_slice(&part);
        }
        out
    }
}

impl ClusterService {
    /// Serves `stream` with the decision journal on and returns the
    /// outcome plus the durable WAL of its committed decision stream
    /// under `spec` — byte-identical to what online frame-by-frame
    /// logging would have written (see the module docs).
    pub fn serve_durable(
        &self,
        stream: impl IntoIterator<Item = JobSpec>,
        plan: &FaultPlan,
        opts: &ServeOptions,
        spec: &DurabilitySpec,
    ) -> SimResult<(ServiceOutcome, WriteAheadLog)> {
        let mut o = opts.clone();
        o.journal = true;
        let out = self.serve(stream, plan, &o)?;
        let wal = WriteAheadLog::build(out.journal.as_ref().expect("journal requested"), spec);
        Ok((out, wal))
    }

    /// Recovers from crashed WAL bytes: truncates the log at the last
    /// valid checksum, then re-serves `stream` with the recovered
    /// committed prefix as a validated [`ServeOptions::resume`] replay —
    /// the rerun must reproduce every recovered decision before
    /// committing anything new, and continues to completion. The
    /// outcome's `replay` carries the catch-up latency.
    pub fn recover(
        &self,
        stream: impl IntoIterator<Item = JobSpec>,
        plan: &FaultPlan,
        opts: &ServeOptions,
        wal_bytes: &[u8],
    ) -> SimResult<(ServiceOutcome, CrashReport)> {
        let rec = WriteAheadLog::scan(wal_bytes).map_err(|e| SimError::protocol(e.to_string()))?;
        let report = CrashReport {
            recovered_entries: rec.journal.len() as u64,
            frames: rec.frames,
            torn: rec.torn,
        };
        let mut o = opts.clone();
        o.journal = true;
        o.resume = Some(ResumePrefix {
            entries: Arc::new(rec.journal.entries),
        });
        let out = self.serve(stream, plan, &o)?;
        Ok((out, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ServiceConfig, TenantSpec};
    use crate::job::SyntheticLoad;
    use cluster::SchedulePolicy;

    fn svc(shards: u32) -> ClusterService {
        ClusterService::new(
            ServiceConfig::new(
                4,
                4,
                shards,
                SchedulePolicy::Malleable {
                    min_efficiency: 0.5,
                },
            )
            .with_tenant(TenantSpec::new("a", 2))
            .with_tenant(TenantSpec::new("b", 1)),
        )
        .unwrap()
    }

    fn load(jobs: u64) -> SyntheticLoad {
        SyntheticLoad::new(
            jobs,
            2,
            4,
            SimDuration::from_millis(50),
            SimDuration::from_millis(400),
            11,
        )
    }

    fn durable_run(shards: u32) -> (ServiceOutcome, WriteAheadLog) {
        svc(shards)
            .serve_durable(
                load(150),
                &FaultPlan::none(),
                &ServeOptions::default(),
                &DurabilitySpec::group_commit(64),
            )
            .unwrap()
    }

    #[test]
    fn every_frame_prefix_scans_back_to_its_committed_entries() {
        let (out, wal) = durable_run(2);
        let j = out.journal.expect("journal");
        assert!(
            wal.frames() > 4,
            "want several frames, got {}",
            wal.frames()
        );
        assert_eq!(wal.entries(), j.len() as u64);
        for k in 1..=wal.frames() {
            let rec = WriteAheadLog::scan(wal.frame_prefix(k)).unwrap();
            assert_eq!(rec.frames, k);
            assert!(rec.torn.is_none());
            assert_eq!(
                rec.journal.len() as u64,
                wal.entries_through(k),
                "frame {k}"
            );
            assert_eq!(&rec.journal.entries[..], &j.entries[..rec.journal.len()]);
            assert_eq!(rec.journal.labels, j.labels);
            assert_eq!(rec.journal.meta, j.meta);
        }
    }

    #[test]
    fn a_torn_tail_is_detected_and_truncated_never_replayed() {
        let (_, wal) = durable_run(1);
        for seed in 0..16 {
            let crash = CrashPlan::new(seed);
            let keep = crash.keep_frames(&wal);
            let bytes = crash.crashed_bytes(&wal);
            let rec = WriteAheadLog::scan(&bytes).unwrap();
            assert_eq!(rec.frames, keep, "seed {seed}");
            assert_eq!(rec.journal.len() as u64, wal.entries_through(keep));
            if keep < wal.frames() {
                let torn = rec.torn.expect("torn tail appended");
                assert_eq!(torn.offset, wal.frame_prefix(keep).len());
            } else {
                assert!(rec.torn.is_none());
            }
        }
    }

    #[test]
    fn a_bit_flip_inside_a_sealed_frame_truncates_at_its_checksum() {
        let (_, wal) = durable_run(1);
        assert!(wal.frames() >= 3);
        let mut bytes = wal.frame_prefix(3).to_vec();
        // Flip one payload bit of frame 2 (offset 8 skips its header).
        let frame2 = wal.frame_prefix(2).len();
        bytes[frame2 + 8] ^= 0x10;
        let rec = WriteAheadLog::scan(&bytes).unwrap();
        assert_eq!(rec.frames, 2);
        assert_eq!(rec.journal.len() as u64, wal.entries_through(2));
        let torn = rec.torn.expect("checksum mismatch becomes a torn tail");
        assert_eq!(torn.offset, frame2);
        assert!(torn.reason.contains("checksum"));
    }

    #[test]
    fn bad_magic_and_broken_header_frames_are_fatal() {
        let (_, wal) = durable_run(1);
        let err = WriteAheadLog::scan(b"NOTAWAL..").unwrap_err();
        assert_eq!(err.offset, 0);
        let mut torn_header = wal.bytes()[..WAL_MAGIC.len() + 5].to_vec();
        torn_header.push(0);
        assert!(WriteAheadLog::scan(&torn_header).is_err());
        assert!(WriteAheadLog::scan(WAL_MAGIC).is_err(), "no header frame");
    }

    #[test]
    fn recovery_from_every_crash_point_matches_the_uninterrupted_run() {
        let (full, wal) = durable_run(2);
        let full_j = full.journal.as_ref().expect("journal");
        let opts = ServeOptions {
            journal: true,
            ..ServeOptions::default()
        };
        for seed in 0..8 {
            let crash = CrashPlan::new(seed);
            let bytes = crash.crashed_bytes(&wal);
            let (out, cr) = svc(2)
                .recover(load(150), &FaultPlan::none(), &opts, &bytes)
                .unwrap();
            assert_eq!(
                cr.recovered_entries,
                wal.entries_through(crash.keep_frames(&wal))
            );
            assert_eq!(
                out.report.canonical_string(),
                full.report.canonical_string(),
                "seed {seed}"
            );
            let j = out.journal.as_ref().expect("journal");
            assert_eq!(j.encode(), full_j.encode(), "seed {seed}");
            let replay = out.replay.expect("resumed run reports replay stats");
            assert_eq!(replay.prefix_entries, cr.recovered_entries);
            assert_eq!(replay.matched, replay.prefix_entries);
        }
    }

    #[test]
    fn a_foreign_prefix_fails_replay_validation_with_a_typed_error() {
        let (_, wal) = durable_run(1);
        // Recover against a *different* stream: the rerun diverges from
        // the recovered prefix and must fail, not silently rewrite it.
        let err = svc(1)
            .recover(
                load(40),
                &FaultPlan::none(),
                &ServeOptions::default(),
                wal.bytes(),
            )
            .unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("recovered"), "unexpected error: {msg}");
    }
}
