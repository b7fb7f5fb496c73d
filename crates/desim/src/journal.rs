//! The event journal: a compact binary record stream of everything a
//! deterministic engine *commits*.
//!
//! Determinism in this workspace means: the same configuration produces the
//! same committed event sequence, byte for byte, no matter how the work was
//! scheduled on the host (fresh run or forked continuation, replay from a
//! prefix, sweep point on any harness thread, cache hit or miss). The
//! journal makes that sequence first-class. An engine appends one
//! [`JournalEntry`] per committed event — invocation dispatch, atomic-step
//! completion, post, transfer arrival, mark, deactivation, credit release,
//! memory accounting, termination, and the rate windows a fault plan edits
//! into the fabric — and two runs are equivalent iff their journals match.
//!
//! This crate holds the schema, the binary encoding and the comparison
//! machinery; it knows nothing about DPS. Field names like `op` and
//! `ticket` are documented contracts for the engines that emit them
//! (`dps-sim` maps `OpId`/`ThreadId`/`NodeId` to the raw integers here).
//!
//! Three consumers are built on top (in `dps-sim` and `bench`):
//!
//! * a **replayer** that re-executes a run against a journal prefix and
//!   checks every re-emitted event against the recorded one;
//! * a **divergence pinpointer** ([`Journal::first_divergence`]) that turns
//!   "two 40 kB canonical reports differ somewhere" into "event #1234 at
//!   vtime 3.2s: Step.job ours=88 theirs=91";
//! * a **fuzzing harness** that perturbs schedules under a seed and asserts
//!   journal equivalence.
//!
//! # Binary format
//!
//! Little-endian LEB128 varints throughout; `i64` fields are zigzag-encoded
//! first, `f64` fields travel as their IEEE-754 bit patterns (bit-exact,
//! like the rest of the workspace's determinism story).
//!
//! ```text
//! magic   b"DVNSJ1\n"
//! meta    varint count, then per pair: varint len + UTF-8 key,
//!                                       varint len + UTF-8 value
//! labels  varint count, then per label: varint len + UTF-8 bytes
//! entries varint count, then per entry:
//!         u8 kind tag, varint vtime delta (vs previous entry),
//!         the kind's fields as varints
//! ```
//!
//! Virtual time is monotone over committed events, so the per-entry delta
//! is non-negative and small — the stream stays compact even for
//! million-event runs. Metadata (key/value strings describing the run
//! configuration) and the mark-label table ride in the header; entries
//! refer to labels by index.

use crate::time::SimTime;

/// Magic bytes opening every encoded journal (format version 1).
pub const JOURNAL_MAGIC: &[u8; 7] = b"DVNSJ1\n";

/// One committed engine event. Integer fields are the raw values of the
/// emitting engine's typed ids (`op` = operation id, `thread` = DPS thread
/// id, `node` = cluster node id); `ticket`/`job` are the engine's monotone
/// atomic-step ids.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalEvent {
    /// A scheduled capacity window on one node's links — a fault plan's
    /// rate edit, recorded up front so plans are part of the stream.
    RateWindow {
        /// Affected node.
        node: u32,
        /// Uplink capacity multiplier, as IEEE-754 bits.
        up_bits: u64,
        /// Downlink capacity multiplier, as IEEE-754 bits.
        down_bits: u64,
        /// Window start (ns).
        from: u64,
        /// Window end (ns, exclusive).
        to: u64,
    },
    /// An invocation dispatched: a server began consuming a data object.
    /// `ticket` is the job id reserved at dispatch for the invocation's
    /// first atomic step.
    Invoke {
        /// Reserved job id of the invocation's first segment.
        ticket: u64,
        /// Consuming operation.
        op: u32,
        /// Consuming thread.
        thread: u32,
        /// Heap bytes of the consumed object.
        obj_bytes: u64,
    },
    /// An atomic step completed and its effects committed.
    Step {
        /// The step's job id (the invocation ticket for first segments).
        job: u64,
        /// Operation the step belongs to.
        op: u32,
        /// Thread it ran on.
        thread: u32,
        /// Node hosting the thread.
        node: u32,
        /// Step start (ns); the entry's vtime is the end.
        start: u64,
        /// Virtual CPU work of the step (ns).
        work: u64,
    },
    /// A data object posted along a graph edge (the commit footprint of a
    /// post action, after routing).
    Post {
        /// Posting operation.
        op: u32,
        /// Posting thread.
        thread: u32,
        /// Destination operation.
        to: u32,
        /// Routed destination thread.
        dst_thread: u32,
        /// Serialized payload size (wire bytes).
        wire_bytes: u64,
        /// 1 if the move was node-local (no network), else 0.
        local: u32,
    },
    /// A network transfer delivered its object to the destination server.
    Arrive {
        /// Destination operation.
        to: u32,
        /// Destination thread.
        thread: u32,
        /// Sending node.
        src: u32,
        /// Receiving node.
        dst: u32,
        /// Wire bytes transferred.
        wire_bytes: u64,
        /// Transfer start (ns); the entry's vtime is the delivery.
        start: u64,
    },
    /// An application mark (label index into [`Journal::labels`]).
    Mark {
        /// Index into the journal's label table.
        label: u32,
    },
    /// A thread deactivated (dynamic node deallocation).
    Deactivate {
        /// Deactivated thread.
        thread: u32,
    },
    /// A flow-control credit returned to an operation's window.
    Release {
        /// Operation whose window got the credit back.
        op: u32,
    },
    /// Modeled application memory adjusted by `delta` bytes.
    Account {
        /// Signed byte delta.
        delta: i64,
    },
    /// The application called terminate.
    Terminate,
}

impl JournalEvent {
    /// Stable name of the event kind.
    pub fn kind_name(&self) -> &'static str {
        match self {
            JournalEvent::RateWindow { .. } => "RateWindow",
            JournalEvent::Invoke { .. } => "Invoke",
            JournalEvent::Step { .. } => "Step",
            JournalEvent::Post { .. } => "Post",
            JournalEvent::Arrive { .. } => "Arrive",
            JournalEvent::Mark { .. } => "Mark",
            JournalEvent::Deactivate { .. } => "Deactivate",
            JournalEvent::Release { .. } => "Release",
            JournalEvent::Account { .. } => "Account",
            JournalEvent::Terminate => "Terminate",
        }
    }

    /// The commit ticket / job id carried by the event, if any.
    pub fn ticket(&self) -> Option<u64> {
        match self {
            JournalEvent::Invoke { ticket, .. } => Some(*ticket),
            JournalEvent::Step { job, .. } => Some(*job),
            _ => None,
        }
    }

    /// The operation id the event concerns, if any.
    pub fn op(&self) -> Option<u32> {
        match self {
            JournalEvent::Invoke { op, .. }
            | JournalEvent::Step { op, .. }
            | JournalEvent::Post { op, .. }
            | JournalEvent::Release { op } => Some(*op),
            JournalEvent::Arrive { to, .. } => Some(*to),
            _ => None,
        }
    }

    /// `(field name, rendered value)` pairs, for field-level divergence
    /// reporting. `labels` resolves mark indices to their strings.
    pub fn fields(&self, labels: &[String]) -> Vec<(&'static str, String)> {
        match self {
            JournalEvent::RateWindow {
                node,
                up_bits,
                down_bits,
                from,
                to,
            } => vec![
                ("node", node.to_string()),
                ("up", f64::from_bits(*up_bits).to_string()),
                ("down", f64::from_bits(*down_bits).to_string()),
                ("from", from.to_string()),
                ("to", to.to_string()),
            ],
            JournalEvent::Invoke {
                ticket,
                op,
                thread,
                obj_bytes,
            } => vec![
                ("ticket", ticket.to_string()),
                ("op", op.to_string()),
                ("thread", thread.to_string()),
                ("obj_bytes", obj_bytes.to_string()),
            ],
            JournalEvent::Step {
                job,
                op,
                thread,
                node,
                start,
                work,
            } => vec![
                ("job", job.to_string()),
                ("op", op.to_string()),
                ("thread", thread.to_string()),
                ("node", node.to_string()),
                ("start", start.to_string()),
                ("work", work.to_string()),
            ],
            JournalEvent::Post {
                op,
                thread,
                to,
                dst_thread,
                wire_bytes,
                local,
            } => vec![
                ("op", op.to_string()),
                ("thread", thread.to_string()),
                ("to", to.to_string()),
                ("dst_thread", dst_thread.to_string()),
                ("wire_bytes", wire_bytes.to_string()),
                ("local", local.to_string()),
            ],
            JournalEvent::Arrive {
                to,
                thread,
                src,
                dst,
                wire_bytes,
                start,
            } => vec![
                ("to", to.to_string()),
                ("thread", thread.to_string()),
                ("src", src.to_string()),
                ("dst", dst.to_string()),
                ("wire_bytes", wire_bytes.to_string()),
                ("start", start.to_string()),
            ],
            JournalEvent::Mark { label } => vec![(
                "label",
                labels
                    .get(*label as usize)
                    .cloned()
                    .unwrap_or_else(|| format!("<label #{label}>")),
            )],
            JournalEvent::Deactivate { thread } => vec![("thread", thread.to_string())],
            JournalEvent::Release { op } => vec![("op", op.to_string())],
            JournalEvent::Account { delta } => vec![("delta", delta.to_string())],
            JournalEvent::Terminate => Vec::new(),
        }
    }
}

/// One journal entry: the virtual instant an event committed at, plus the
/// event itself. An entry's *event id* is its index in the stream.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalEntry {
    /// Commit instant.
    pub vtime: SimTime,
    /// The committed event.
    pub event: JournalEvent,
}

impl JournalEntry {
    /// One-line rendering (`kind@vtime{field=value ...}`).
    pub fn render(&self, labels: &[String]) -> String {
        let fields: Vec<String> = self
            .event
            .fields(labels)
            .into_iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!(
            "{}@{:?}{{{}}}",
            self.event.kind_name(),
            self.vtime,
            fields.join(" ")
        )
    }
}

/// The first point at which two journals disagree. Produced by
/// [`Journal::first_divergence`]; names the event id, both virtual times,
/// the first differing field, and — where the events carry them — the
/// commit ticket and operation id, so a determinism failure is a one-line
/// diagnostic instead of a whole-file diff.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Index of the first diverging entry (its event id).
    pub index: u64,
    /// First differing field: `"kind"`, `"vtime"`, `"length"`, or
    /// `"<Kind>.<field>"`.
    pub field: String,
    /// Virtual time of our entry (absent past our end).
    pub vtime_ours: Option<SimTime>,
    /// Virtual time of the other entry (absent past its end).
    pub vtime_theirs: Option<SimTime>,
    /// Commit ticket / job id at the divergence, if the entries carry one.
    pub ticket: Option<u64>,
    /// Operation id at the divergence, if the entries carry one.
    pub op: Option<u32>,
    /// Our entry, rendered (or `<end of journal>`).
    pub ours: String,
    /// Their entry, rendered (or `<end of journal>`).
    pub theirs: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "first diverging event #{}", self.index)?;
        if let Some(t) = self.vtime_ours.or(self.vtime_theirs) {
            write!(f, " at vtime {t:?}")?;
        }
        if let Some(ticket) = self.ticket {
            write!(f, " ticket {ticket}")?;
        }
        if let Some(op) = self.op {
            write!(f, " op {op}")?;
        }
        write!(
            f,
            ": field {}: ours={} theirs={}",
            self.field, self.ours, self.theirs
        )
    }
}

/// Decoding failure: offset and reason.
#[derive(Clone, Debug)]
pub struct JournalDecodeError {
    /// Byte offset the decoder failed at.
    pub offset: usize,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for JournalDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "journal decode error at byte {}: {}",
            self.offset, self.reason
        )
    }
}

impl std::error::Error for JournalDecodeError {}

/// The committed event stream of one run. See the module docs for the
/// format and the determinism contract.
#[derive(Clone, Debug, Default)]
pub struct Journal {
    /// Run-configuration metadata (key/value). Describes how to re-execute
    /// the run (application, sizes, seed); deliberately *excluded* from
    /// [`Journal::first_divergence`] so journals that differ only in a
    /// configuration echo (e.g. a service's shard count) still compare
    /// equal.
    pub meta: Vec<(String, String)>,
    /// Interned mark labels; `Mark` entries index into this table.
    pub labels: Vec<String>,
    /// The committed events, in commit order.
    pub entries: Vec<JournalEntry>,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Journal {
        Journal::default()
    }

    /// Appends one committed event at `vtime`.
    #[inline]
    pub fn push(&mut self, vtime: SimTime, event: JournalEvent) {
        self.entries.push(JournalEntry { vtime, event });
    }

    /// Number of committed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no events have been committed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Interns a mark label, returning its index. Labels are few (one per
    /// application call site) so a linear scan beats carrying a side map
    /// through clone/encode.
    pub fn intern_label(&mut self, label: &str) -> u32 {
        if let Some(i) = self.labels.iter().position(|l| l == label) {
            return i as u32;
        }
        self.labels.push(label.to_string());
        (self.labels.len() - 1) as u32
    }

    /// Sets (or replaces) a metadata key.
    pub fn set_meta(&mut self, key: &str, value: impl Into<String>) {
        let value = value.into();
        if let Some(slot) = self.meta.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.meta.push((key.to_string(), value));
        }
    }

    /// Looks up a metadata key.
    pub fn meta_get(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether two journals carry the same committed event stream
    /// (metadata excluded).
    pub fn same_stream(&self, other: &Journal) -> bool {
        self.first_divergence(other).is_none()
    }

    /// Finds the first entry at which the two streams disagree — by kind,
    /// virtual time, or any field — or a `"length"` divergence when one
    /// stream is a strict prefix of the other. Mark labels are compared by
    /// *string*, so two journals that interned labels in different orders
    /// still compare by content. Metadata is not compared.
    pub fn first_divergence(&self, other: &Journal) -> Option<Divergence> {
        let n = self.entries.len().min(other.entries.len());
        for i in 0..n {
            let a = &self.entries[i];
            let b = &other.entries[i];
            if let Some(field) = entry_divergence(a, b, &self.labels, &other.labels) {
                return Some(Divergence {
                    index: i as u64,
                    field,
                    vtime_ours: Some(a.vtime),
                    vtime_theirs: Some(b.vtime),
                    ticket: a.event.ticket().or_else(|| b.event.ticket()),
                    op: a.event.op().or_else(|| b.event.op()),
                    ours: a.render(&self.labels),
                    theirs: b.render(&other.labels),
                });
            }
        }
        if self.entries.len() != other.entries.len() {
            let a = self.entries.get(n);
            let b = other.entries.get(n);
            return Some(Divergence {
                index: n as u64,
                field: "length".to_string(),
                vtime_ours: a.map(|e| e.vtime),
                vtime_theirs: b.map(|e| e.vtime),
                ticket: a
                    .and_then(|e| e.event.ticket())
                    .or_else(|| b.and_then(|e| e.event.ticket())),
                op: a
                    .and_then(|e| e.event.op())
                    .or_else(|| b.and_then(|e| e.event.op())),
                ours: a
                    .map(|e| e.render(&self.labels))
                    .unwrap_or_else(|| format!("<end of journal: {} entries>", self.entries.len())),
                theirs: b.map(|e| e.render(&other.labels)).unwrap_or_else(|| {
                    format!("<end of journal: {} entries>", other.entries.len())
                }),
            });
        }
        None
    }

    // ----- binary encoding -------------------------------------------------

    /// Encodes the journal to its compact binary form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.entries.len() * 8);
        put_header(&mut out, &self.meta, &self.labels);
        put_entries(&mut out, &self.entries, 0);
        out
    }

    /// Decodes a journal previously produced by [`Journal::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Journal, JournalDecodeError> {
        let mut c = Cursor { bytes, pos: 0 };
        let magic = c.take(JOURNAL_MAGIC.len())?;
        if magic != JOURNAL_MAGIC {
            return Err(c.err("bad magic (not a dvns journal)"));
        }
        let meta_count = c.varint()? as usize;
        let mut meta = Vec::with_capacity(meta_count.min(1024));
        for _ in 0..meta_count {
            let k = c.string()?;
            let v = c.string()?;
            meta.push((k, v));
        }
        let label_count = c.varint()? as usize;
        let mut labels = Vec::with_capacity(label_count.min(1024));
        for _ in 0..label_count {
            labels.push(c.string()?);
        }
        let mut entries = Vec::new();
        get_entries(&mut c, &mut entries)?;
        if c.pos != bytes.len() {
            return Err(c.err("trailing bytes after last entry"));
        }
        Ok(Journal {
            meta,
            labels,
            entries,
        })
    }

    // ----- segmented (WAL) framing primitives ------------------------------

    /// Encodes only the header — magic, metadata and label table, with an
    /// empty entry list. This is the payload of a segmented WAL's first
    /// frame: the entries follow in batches ([`Journal::encode_entry_batch`])
    /// so a torn tail loses events, never the tables they refer to.
    pub fn encode_header(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_header(&mut out, &self.meta, &self.labels);
        put_varint(&mut out, 0);
        out
    }

    /// Encodes `entries[start..end]` as a standalone delta-coded batch —
    /// the payload of one WAL entry frame. The first entry's vtime is
    /// delta-coded against `entries[start - 1]` (zero for `start == 0`), so
    /// concatenating the batches in order reproduces the exact bytes of the
    /// monolithic [`Journal::encode`] entry section.
    ///
    /// # Panics
    /// If `start..end` is not a valid, ordered range into the entries.
    pub fn encode_entry_batch(&self, start: usize, end: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + end.saturating_sub(start) * 8);
        self.encode_entry_batch_into(&mut out, start, end);
        out
    }

    /// [`Journal::encode_entry_batch`], appended to `out` instead of a
    /// fresh buffer — how a WAL writes a frame's payload in place.
    ///
    /// # Panics
    /// If `start..end` is not a valid, ordered range into the entries.
    pub fn encode_entry_batch_into(&self, out: &mut Vec<u8>, start: usize, end: usize) {
        assert!(start <= end && end <= self.entries.len(), "bad batch range");
        let prev = if start == 0 {
            0
        } else {
            self.entries[start - 1].vtime.as_nanos()
        };
        put_entries(out, &self.entries[start..end], prev);
    }

    /// Decodes a batch produced by [`Journal::encode_entry_batch`] and
    /// appends its entries, delta-decoding vtimes against the current last
    /// entry. Returns how many entries were appended. On error the journal
    /// is left unchanged.
    pub fn append_entry_batch(&mut self, bytes: &[u8]) -> Result<usize, JournalDecodeError> {
        let mut c = Cursor { bytes, pos: 0 };
        let old_len = self.entries.len();
        let decoded = get_entries(&mut c, &mut self.entries).and_then(|()| {
            if c.pos == bytes.len() {
                Ok(())
            } else {
                Err(c.err("trailing bytes after last batch entry"))
            }
        });
        if let Err(e) = decoded {
            self.entries.truncate(old_len);
            return Err(e);
        }
        Ok(self.entries.len() - old_len)
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes` — the
/// per-frame checksum of the segmented WAL built on this journal (see the
/// cluster service's recovery module). Slicing-by-8: each step folds in
/// eight bytes through eight table lookups, and the tail goes a byte at a
/// time. A WAL frame carries a whole group commit, tens of kilobytes, so
/// the per-byte cost is what counts.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// The slicing-by-8 tables of [`crc32`], built at compile time: `[0]` is
/// the classic byte-at-a-time table, and `[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// First differing field between two same-index entries, if any.
fn entry_divergence(
    a: &JournalEntry,
    b: &JournalEntry,
    labels_a: &[String],
    labels_b: &[String],
) -> Option<String> {
    if a.vtime != b.vtime {
        return Some("vtime".to_string());
    }
    if std::mem::discriminant(&a.event) != std::mem::discriminant(&b.event) {
        return Some("kind".to_string());
    }
    let fa = a.event.fields(labels_a);
    let fb = b.event.fields(labels_b);
    for ((name, va), (_, vb)) in fa.iter().zip(fb.iter()) {
        if va != vb {
            return Some(format!("{}.{}", a.event.kind_name(), name));
        }
    }
    None
}

// ----- event <-> field-list mapping ----------------------------------------

const K_RATE_WINDOW: u8 = 0;
const K_INVOKE: u8 = 1;
const K_STEP: u8 = 2;
const K_POST: u8 = 3;
const K_ARRIVE: u8 = 4;
const K_MARK: u8 = 5;
const K_DEACTIVATE: u8 = 6;
const K_RELEASE: u8 = 7;
const K_ACCOUNT: u8 = 8;
const K_TERMINATE: u8 = 9;

/// Writes one entry: kind tag, vtime `delta`, then the kind's fields.
fn put_entry(out: &mut Vec<u8>, delta: u64, e: &JournalEvent) {
    let (kind, fields): (u8, &[u64]) = match *e {
        JournalEvent::RateWindow {
            node,
            up_bits,
            down_bits,
            from,
            to,
        } => (K_RATE_WINDOW, &[node as u64, up_bits, down_bits, from, to]),
        JournalEvent::Invoke {
            ticket,
            op,
            thread,
            obj_bytes,
        } => (K_INVOKE, &[ticket, op as u64, thread as u64, obj_bytes]),
        JournalEvent::Step {
            job,
            op,
            thread,
            node,
            start,
            work,
        } => (
            K_STEP,
            &[job, op as u64, thread as u64, node as u64, start, work],
        ),
        JournalEvent::Post {
            op,
            thread,
            to,
            dst_thread,
            wire_bytes,
            local,
        } => (
            K_POST,
            &[
                op as u64,
                thread as u64,
                to as u64,
                dst_thread as u64,
                wire_bytes,
                local as u64,
            ],
        ),
        JournalEvent::Arrive {
            to,
            thread,
            src,
            dst,
            wire_bytes,
            start,
        } => (
            K_ARRIVE,
            &[
                to as u64,
                thread as u64,
                src as u64,
                dst as u64,
                wire_bytes,
                start,
            ],
        ),
        JournalEvent::Mark { label } => (K_MARK, &[label as u64]),
        JournalEvent::Deactivate { thread } => (K_DEACTIVATE, &[thread as u64]),
        JournalEvent::Release { op } => (K_RELEASE, &[op as u64]),
        JournalEvent::Account { delta } => (K_ACCOUNT, &[zigzag(delta)]),
        JournalEvent::Terminate => (K_TERMINATE, &[]),
    };
    // Assembled on the stack, then copied once: one capacity check per
    // entry instead of one per byte.
    let mut buf = [0u8; MAX_ENTRY_BYTES];
    buf[0] = kind;
    let mut n = write_varint(&mut buf, 1, delta);
    for &f in fields {
        n = write_varint(&mut buf, n, f);
    }
    out.extend_from_slice(&buf[..n]);
}

/// Writes the header sections: magic, metadata and label table.
fn put_header(out: &mut Vec<u8>, meta: &[(String, String)], labels: &[String]) {
    out.extend_from_slice(JOURNAL_MAGIC);
    put_varint(out, meta.len() as u64);
    for (k, v) in meta {
        put_str(out, k);
        put_str(out, v);
    }
    put_varint(out, labels.len() as u64);
    for l in labels {
        put_str(out, l);
    }
}

/// Writes an entry section: the count, then each entry with its vtime
/// delta-coded against the one before (the first against `prev`).
fn put_entries(out: &mut Vec<u8>, entries: &[JournalEntry], mut prev: u64) {
    put_varint(out, entries.len() as u64);
    for e in entries {
        let t = e.vtime.as_nanos();
        debug_assert!(t >= prev, "journal entries must be time-ordered");
        put_entry(out, t.saturating_sub(prev), &e.event);
        prev = t;
    }
}

/// Reads an entry section written by [`put_entries`] and pushes its
/// entries onto `entries`, delta-decoding vtimes against the current last
/// entry. On error the entries pushed so far stay; callers that promise
/// an unchanged journal truncate.
fn get_entries(
    c: &mut Cursor<'_>,
    entries: &mut Vec<JournalEntry>,
) -> Result<(), JournalDecodeError> {
    let count = c.varint()? as usize;
    // `count` is untrusted: every entry takes at least a kind byte and a
    // delta byte, so the remaining input bounds what can really follow.
    entries.reserve(count.min(c.remaining() / 2));
    let mut prev = entries.last().map_or(0, |e| e.vtime.as_nanos());
    for _ in 0..count {
        let kind = c.byte()?;
        let delta = c.varint()?;
        prev = prev
            .checked_add(delta)
            .ok_or_else(|| c.err("vtime overflow"))?;
        let event = decode_event(kind, c)?;
        entries.push(JournalEntry {
            vtime: SimTime(prev),
            event,
        });
    }
    Ok(())
}

fn decode_event(kind: u8, c: &mut Cursor<'_>) -> Result<JournalEvent, JournalDecodeError> {
    fn u32_of(v: u64, c: &Cursor<'_>) -> Result<u32, JournalDecodeError> {
        u32::try_from(v).map_err(|_| c.err("field exceeds u32"))
    }
    Ok(match kind {
        K_RATE_WINDOW => JournalEvent::RateWindow {
            node: u32_of(c.varint()?, c)?,
            up_bits: c.varint()?,
            down_bits: c.varint()?,
            from: c.varint()?,
            to: c.varint()?,
        },
        K_INVOKE => JournalEvent::Invoke {
            ticket: c.varint()?,
            op: u32_of(c.varint()?, c)?,
            thread: u32_of(c.varint()?, c)?,
            obj_bytes: c.varint()?,
        },
        K_STEP => JournalEvent::Step {
            job: c.varint()?,
            op: u32_of(c.varint()?, c)?,
            thread: u32_of(c.varint()?, c)?,
            node: u32_of(c.varint()?, c)?,
            start: c.varint()?,
            work: c.varint()?,
        },
        K_POST => JournalEvent::Post {
            op: u32_of(c.varint()?, c)?,
            thread: u32_of(c.varint()?, c)?,
            to: u32_of(c.varint()?, c)?,
            dst_thread: u32_of(c.varint()?, c)?,
            wire_bytes: c.varint()?,
            local: u32_of(c.varint()?, c)?,
        },
        K_ARRIVE => JournalEvent::Arrive {
            to: u32_of(c.varint()?, c)?,
            thread: u32_of(c.varint()?, c)?,
            src: u32_of(c.varint()?, c)?,
            dst: u32_of(c.varint()?, c)?,
            wire_bytes: c.varint()?,
            start: c.varint()?,
        },
        K_MARK => JournalEvent::Mark {
            label: u32_of(c.varint()?, c)?,
        },
        K_DEACTIVATE => JournalEvent::Deactivate {
            thread: u32_of(c.varint()?, c)?,
        },
        K_RELEASE => JournalEvent::Release {
            op: u32_of(c.varint()?, c)?,
        },
        K_ACCOUNT => JournalEvent::Account {
            delta: unzigzag(c.varint()?),
        },
        K_TERMINATE => JournalEvent::Terminate,
        other => return Err(c.err(format!("unknown event kind {other}"))),
    })
}

// ----- varint plumbing ------------------------------------------------------

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Longest encoded entry: a kind byte, then the vtime delta and at most
/// six fields, each a varint of at most ten bytes.
const MAX_ENTRY_BYTES: usize = 1 + 7 * 10;

/// Writes `v` as a varint at `buf[at..]`, returning the end offset.
fn write_varint(buf: &mut [u8], mut at: usize, mut v: u64) -> usize {
    while v >= 0x80 {
        buf[at] = (v & 0x7f) as u8 | 0x80;
        v >>= 7;
        at += 1;
    }
    buf[at] = v as u8;
    at + 1
}

fn put_varint(out: &mut Vec<u8>, v: u64) {
    let mut buf = [0u8; 10];
    let n = write_varint(&mut buf, 0, v);
    out.extend_from_slice(&buf[..n]);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, reason: impl Into<String>) -> JournalDecodeError {
        JournalDecodeError {
            offset: self.pos,
            reason: reason.into(),
        }
    }

    fn byte(&mut self) -> Result<u8, JournalDecodeError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], JournalDecodeError> {
        // `n` comes from an untrusted varint: the addition must not wrap
        // (debug overflow panic / release wrap-around past the bounds
        // check) on a malformed length near `usize::MAX`.
        if self
            .pos
            .checked_add(n)
            .is_none_or(|end| end > self.bytes.len())
        {
            return Err(self.err("unexpected end of input"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    #[inline]
    fn varint(&mut self) -> Result<u64, JournalDecodeError> {
        // Most fields (kinds' small ids, vtime deltas) fit one byte.
        if let Some(&b) = self.bytes.get(self.pos) {
            if b < 0x80 {
                self.pos += 1;
                return Ok(u64::from(b));
            }
        }
        self.varint_slow()
    }

    fn varint_slow(&mut self) -> Result<u64, JournalDecodeError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                return Err(self.err("varint overflows u64"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(self.err("varint too long"));
            }
        }
    }

    fn string(&mut self) -> Result<String, JournalDecodeError> {
        let len = self.varint()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.err("invalid UTF-8 in string"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Journal {
        let mut j = Journal::new();
        j.set_meta("app", "lu");
        j.set_meta("seed", "42");
        let l = j.intern_label("iter:1");
        j.push(
            SimTime(0),
            JournalEvent::RateWindow {
                node: 2,
                up_bits: 0.5f64.to_bits(),
                down_bits: 0.5f64.to_bits(),
                from: 1_000,
                to: 2_000,
            },
        );
        j.push(
            SimTime(10),
            JournalEvent::Invoke {
                ticket: 0,
                op: 3,
                thread: 1,
                obj_bytes: 4096,
            },
        );
        j.push(
            SimTime(50),
            JournalEvent::Step {
                job: 0,
                op: 3,
                thread: 1,
                node: 0,
                start: 10,
                work: 40,
            },
        );
        j.push(
            SimTime(50),
            JournalEvent::Post {
                op: 3,
                thread: 1,
                to: 4,
                dst_thread: 2,
                wire_bytes: 1024,
                local: 0,
            },
        );
        j.push(
            SimTime(90),
            JournalEvent::Arrive {
                to: 4,
                thread: 2,
                src: 0,
                dst: 1,
                wire_bytes: 1024,
                start: 50,
            },
        );
        j.push(SimTime(90), JournalEvent::Mark { label: l });
        j.push(SimTime(91), JournalEvent::Deactivate { thread: 3 });
        j.push(SimTime(92), JournalEvent::Release { op: 4 });
        j.push(SimTime(93), JournalEvent::Account { delta: -4096 });
        j.push(SimTime(100), JournalEvent::Terminate);
        j
    }

    #[test]
    fn encode_decode_roundtrip() {
        let j = sample();
        let bytes = j.encode();
        let back = Journal::decode(&bytes).unwrap();
        assert_eq!(back.meta, j.meta);
        assert_eq!(back.labels, j.labels);
        assert_eq!(back.entries, j.entries);
        assert!(j.same_stream(&back));
    }

    #[test]
    fn encoding_is_compact() {
        let j = sample();
        // 10 entries with metadata in well under 200 bytes.
        assert!(j.encode().len() < 200, "len = {}", j.encode().len());
    }

    #[test]
    fn identical_streams_have_no_divergence() {
        let j = sample();
        assert!(j.first_divergence(&j.clone()).is_none());
    }

    #[test]
    fn field_divergence_is_pinpointed() {
        let a = sample();
        let mut b = sample();
        if let JournalEvent::Step { job, .. } = &mut b.entries[2].event {
            *job = 7;
        }
        let d = a.first_divergence(&b).expect("must diverge");
        assert_eq!(d.index, 2);
        assert_eq!(d.field, "Step.job");
        assert_eq!(d.ticket, Some(0));
        assert_eq!(d.op, Some(3));
        let msg = d.to_string();
        assert!(msg.contains("event #2"), "{msg}");
        assert!(msg.contains("Step.job"), "{msg}");
        assert!(msg.contains("ticket 0"), "{msg}");
    }

    #[test]
    fn vtime_and_kind_divergences() {
        let a = sample();
        let mut b = sample();
        b.entries[1].vtime = SimTime(11);
        assert_eq!(a.first_divergence(&b).unwrap().field, "vtime");
        let mut c = sample();
        c.entries[1].event = JournalEvent::Terminate;
        assert_eq!(a.first_divergence(&c).unwrap().field, "kind");
    }

    #[test]
    fn length_divergence_points_past_shorter_stream() {
        let a = sample();
        let mut b = sample();
        b.entries.pop();
        let d = a.first_divergence(&b).unwrap();
        assert_eq!(d.field, "length");
        assert_eq!(d.index, a.entries.len() as u64 - 1);
        assert!(d.theirs.contains("end of journal"), "{}", d.theirs);
    }

    #[test]
    fn mark_labels_compare_by_string_not_index() {
        let mut a = Journal::new();
        let ai = a.intern_label("x");
        a.push(SimTime(1), JournalEvent::Mark { label: ai });
        let mut b = Journal::new();
        b.intern_label("unused");
        let bi = b.intern_label("x");
        b.push(SimTime(1), JournalEvent::Mark { label: bi });
        assert!(a.same_stream(&b));
        let mut c = Journal::new();
        let ci = c.intern_label("y");
        c.push(SimTime(1), JournalEvent::Mark { label: ci });
        assert_eq!(a.first_divergence(&c).unwrap().field, "Mark.label");
    }

    #[test]
    fn metadata_does_not_affect_stream_equality() {
        let a = sample();
        let mut b = sample();
        b.set_meta("fabric", "testbed");
        b.set_meta("seed", "43");
        assert!(a.same_stream(&b));
        assert_eq!(b.meta_get("seed"), Some("43"));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Journal::decode(b"not a journal").is_err());
        let mut bytes = sample().encode();
        bytes.push(0); // trailing byte
        assert!(Journal::decode(&bytes).is_err());
        let bytes = sample().encode();
        assert!(Journal::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn decode_rejects_huge_length_without_panicking() {
        // A string length varint near u64::MAX must surface as a typed
        // error (offset + reason), not an overflow panic in the cursor.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(JOURNAL_MAGIC);
        put_varint(&mut bytes, 1); // one meta pair
        put_varint(&mut bytes, u64::MAX); // absurd key length
        let err = Journal::decode(&bytes).unwrap_err();
        assert!(err.offset <= bytes.len(), "offset {} in bounds", err.offset);
        assert!(err.reason.contains("end of input"), "{}", err.reason);
    }

    #[test]
    fn truncation_at_every_byte_is_a_typed_error() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            match Journal::decode(&bytes[..cut]) {
                Ok(j) => panic!("decoded {} entries from a {cut}-byte prefix", j.len()),
                Err(e) => assert!(e.offset <= cut),
            }
        }
    }

    #[test]
    fn entry_batches_reassemble_the_monolithic_encoding() {
        let j = sample();
        // Rebuild via header + arbitrary batch split points: entries and
        // tables must round-trip exactly.
        for split in 0..=j.len() {
            let mut back = Journal::decode(&j.encode_header()).unwrap();
            assert!(back.is_empty());
            back.append_entry_batch(&j.encode_entry_batch(0, split))
                .unwrap();
            back.append_entry_batch(&j.encode_entry_batch(split, j.len()))
                .unwrap();
            assert_eq!(back.entries, j.entries, "split at {split}");
            assert_eq!(back.encode(), j.encode(), "split at {split}");
        }
    }

    #[test]
    fn a_failed_batch_append_leaves_the_journal_unchanged() {
        let j = sample();
        let mut back = Journal::decode(&j.encode_header()).unwrap();
        let mut batch = j.encode_entry_batch(0, j.len());
        batch.pop(); // torn tail
        assert!(back.append_entry_batch(&batch).is_err());
        assert!(back.is_empty(), "partial batches must not be applied");
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The standard CRC-32 check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let j = sample().encode();
        assert_ne!(crc32(&j), crc32(&j[..j.len() - 1]));
    }

    /// The bit-at-a-time CRC-32 the table-driven [`crc32`] must equal.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn table_crc32_equals_the_bitwise_reference() {
        use simrng::{Rng, Xoshiro256};
        let mut rng = Xoshiro256::seed_from_u64(0xC3C3);
        let mut buf = vec![0u8; (1 << 20) + 7];
        for b in &mut buf {
            *b = rng.next_u64() as u8;
        }
        // Every start offset mod 8 against every length through the
        // 8-byte body and the remainder tail, then one ~1 MB buffer.
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start} len {len}");
            }
            let s = &buf[start..start + (1 << 20) - start];
            assert_eq!(crc32(s), crc32_bitwise(s), "start {start}, ~1 MB");
        }
    }

    /// `magic, 0 meta, 0 labels, count = 2^40`, then `terminates`
    /// Terminate entries (two bytes each).
    fn huge_count_input(terminates: usize) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(JOURNAL_MAGIC);
        put_varint(&mut bytes, 0);
        put_varint(&mut bytes, 0);
        put_varint(&mut bytes, 1 << 40);
        for _ in 0..terminates {
            put_entry(&mut bytes, 0, &JournalEvent::Terminate);
        }
        bytes
    }

    #[test]
    fn an_untrusted_entry_count_reserves_at_most_what_the_input_can_hold() {
        let bytes = huge_count_input(1);
        assert_eq!(bytes.len(), 17);
        let err = Journal::decode(&bytes).unwrap_err();
        assert_eq!(err.offset, 17);
        assert!(err.reason.contains("end of input"), "{}", err.reason);

        // The batch path: the reservation survives the failed append (the
        // entries are truncated, the capacity is not), so it is visible.
        let batch_start = JOURNAL_MAGIC.len() + 2;
        let bytes = huge_count_input(1000);
        let batch = &bytes[batch_start..];
        let mut j = Journal::new();
        let err = j.append_entry_batch(batch).unwrap_err();
        assert!(err.reason.contains("end of input"), "{}", err.reason);
        assert!(j.is_empty());
        let remaining = batch.len() - 6; // after the 6-byte count varint
        assert!(
            j.entries.capacity() <= remaining / 2,
            "reserved {} entries for {remaining} bytes",
            j.entries.capacity()
        );
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varint_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut c = Cursor {
                bytes: &buf,
                pos: 0,
            };
            assert_eq!(c.varint().unwrap(), v);
        }
    }
}
