//! Crash-safe run journal: append-only persistence of every committed
//! iteration, with deterministic resume.
//!
//! # Format
//!
//! A journal is one binary file:
//!
//! ```text
//! header:  magic "ALSJRNL\0" · version u32 · flow-name string
//!          · config hash u64 · circuit hash u64 · header checksum u64
//! records: (kind u8 · payload-len u32 · payload · checksum u64)*
//! ```
//!
//! All integers are little-endian; floats are stored as their IEEE-754
//! bit patterns so replay cross-checks can demand *bit* equality, not
//! epsilon equality. Each record checksum is FNV-1a 64 over the kind byte
//! plus the payload. Two record kinds exist:
//!
//! * **checkpoint** (kind 1) — written at the top of every dual-phase
//!   iteration: commit count so far, cumulative error, the tunable
//!   parameters self-adaption may have changed (`M`, `N`, per-target LAC
//!   budget), degradation-ladder state, the first-analysis node ranking
//!   and a [`GuardSnapshot`]. Everything phase one needs that is not a
//!   function of the circuit itself.
//! * **commit** (kind 2) — one per applied LAC: the LAC, its
//!   [`IterationRecord`](crate::report::IterationRecord) fields, the
//!   serialized [`als_aig::edit::EditRecord`]s of the
//!   application, the cumulative error after the commit and the
//!   cumulative per-step times.
//!
//! # Durability
//!
//! Every persist rewrites the whole journal atomically: the full byte
//! image is written to a sibling `.tmp` file, fsynced, renamed over the
//! journal path, and the parent directory is fsynced so the rename itself
//! survives power loss. The on-disk file is therefore always a *prefix*
//! of the logical journal ending on a record boundary — a crash between
//! persists loses at most the records not yet flushed, never corrupts
//! earlier ones.
//!
//! Commits are **group-committed**: the dual-phase loop buffers each
//! iteration's commit records in memory and makes them durable with a
//! single fsync — either an explicit [`JournalWriter::flush`] or the next
//! iteration's checkpoint append (whose persist covers everything
//! buffered before it). That turns one fsync per applied LAC into one
//! fsync per iteration without weakening the prefix invariant. Journals
//! are small (a few KiB per hundred commits), so the rewrite is cheap;
//! see `BENCH_journal.json` for the measured overhead on a full DP-SA
//! run.
//!
//! # Recovery rules
//!
//! * A file whose *header* is damaged (short, bad magic/version, bad
//!   header checksum) is unusable → [`EngineError::Journal`].
//! * A **torn tail** — trailing bytes too short to hold a complete
//!   record frame — is truncated: resume continues from the last
//!   complete record. This is the crash-mid-write case.
//! * A *complete* record whose checksum does not match is corruption,
//!   not a torn write → [`EngineError::Journal`]. Same for a payload
//!   that fails structural decoding.
//! * Resume replays the journaled edit log onto the original circuit,
//!   cross-checking each regenerated [`EditRecord`] and the bit pattern
//!   of the cumulative error against the journaled values; any
//!   divergence → [`EngineError::Journal`] rather than a silently wrong
//!   result.

use std::path::{Path, PathBuf};

use als_aig::{Aig, EditRecord, Lit, NodeId};
use als_lac::{Lac, LacKind};

use crate::config::FlowConfig;
use crate::error::EngineError;
use crate::report::{GuardStats, Phase, StepTimes};
use crate::supervisor::StopReason;

/// File magic; the trailing NUL reserves room without a version bump.
const MAGIC: &[u8; 8] = b"ALSJRNL\0";
/// Format version; bump on any incompatible layout change.
const VERSION: u32 = 1;
/// Record kind tags.
const KIND_CHECKPOINT: u8 = 1;
const KIND_COMMIT: u8 = 2;
const KIND_PREEMPT: u8 = 3;

/// Transient-persist retry policy: how many times one `persist` retries a
/// transient I/O failure, and the deterministic backoff before attempt
/// `n` (1-based): 1 ms, 2 ms, 4 ms.
const PERSIST_RETRIES: u32 = 3;
fn backoff(attempt: u32) -> std::time::Duration {
    std::time::Duration::from_millis(1 << (attempt - 1))
}

/// Environment variable that makes the writer `abort()` the process right
/// after persisting the N-th commit record (1-based). Exists solely so the
/// kill-and-resume integration tests can crash a real `als` subprocess at
/// a deterministic point; unset in any normal run.
pub const CRASH_AFTER_COMMITS_ENV: &str = "ALS_CRASH_AFTER_COMMITS";

// ---------------------------------------------------------------------------
// hashing
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit, the checksum and fingerprint hash of the format. Not
/// cryptographic — it detects torn writes and bit rot, not adversaries.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of every configuration field that influences the run's
/// *results*. Threads and the scheduler settings are deliberately
/// excluded — runs are byte-identical at any thread count under any
/// scheduling mode, so a 1-thread journal may resume on 4 threads under
/// `ALS_SCHED=force` — as are the journal settings themselves and the
/// fault-injection plan.
pub fn config_fingerprint(cfg: &FlowConfig, flow: &str) -> u64 {
    let mut e = Enc::new();
    e.str(flow);
    e.str(&format!("{:?}", cfg.metric));
    e.f64(cfg.error_bound);
    e.u64(cfg.num_patterns as u64);
    e.u64(cfg.seed);
    e.str(&format!("{:?}", cfg.patterns_from));
    e.str(&format!("{:?}", cfg.selection));
    match &cfg.weights {
        None => e.u8(0),
        Some(w) => {
            e.u8(1);
            e.u32(w.len() as u32);
            for &x in w {
                e.f64(x);
            }
        }
    }
    e.u8(cfg.lac.constants as u8);
    e.u8(cfg.lac.substitutions as u8);
    e.u64(cfg.lac.max_subs_per_target as u64);
    e.f64(cfg.lac.max_distance_frac);
    e.u64(cfg.m as u64);
    e.u64(cfg.n as u64);
    e.f64(cfg.r_inc);
    e.f64(cfg.b_r);
    e.f64(cfg.b_s);
    e.f64(cfg.e_t);
    e.u64(cfg.multi_k as u64);
    e.u64(cfg.max_lacs as u64);
    e.u8(cfg.fold_constants as u8);
    e.u8(cfg.guard.enabled as u8);
    e.u8(cfg.guard.strict as u8);
    e.u64(cfg.guard.validation_factor as u64);
    e.u64(cfg.guard.max_retries as u64);
    e.u64(cfg.guard.max_resamples as u64);
    e.u64(cfg.guard.spot_check as u64);
    fnv1a(&e.buf)
}

/// Fingerprint of the input circuit (over its canonical ASCII AIGER
/// text), so a journal cannot silently replay onto the wrong netlist.
pub fn circuit_fingerprint(aig: &Aig) -> u64 {
    fnv1a(als_aig::io::to_ascii_string(aig).as_bytes())
}

/// Rejects a journaling configuration for flows that cannot honour it.
/// Dispatch is on [`crate::Flow::supports_journal`] — not on name strings —
/// so new flows opt in by overriding the trait method, and journaling a
/// flow that cannot checkpoint is a configuration error, not a silent
/// no-op.
pub fn reject_unsupported(cfg: &FlowConfig, flow: &dyn crate::Flow) -> Result<(), EngineError> {
    if cfg.journal.is_some() && !flow.supports_journal() {
        return Err(EngineError::Config(format!(
            "{} does not support --journal/--resume; only the dual-phase flows (dp, dpsa) \
             journal runs",
            flow.name()
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// byte-level encode / decode
// ---------------------------------------------------------------------------

/// Little-endian byte sink.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Enc {
        Enc { buf: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn opt_str(&mut self, s: &Option<String>) {
        match s {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
        }
    }
    fn u32s(&mut self, v: &[u32]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.u32(x);
        }
    }
}

/// Little-endian cursor over a complete, checksum-verified payload.
/// Decode errors therefore mean corruption, reported as `String` details
/// the caller wraps into [`EngineError::Journal`].
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| format!("payload truncated at byte {}", self.pos))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }
    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn str(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| "non-UTF-8 string".to_string())
    }
    fn opt_str(&mut self) -> Result<Option<String>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            t => Err(format!("invalid option tag {t}")),
        }
    }
    fn u32s(&mut self) -> Result<Vec<u32>, String> {
        let n = self.u32()? as usize;
        (0..n).map(|_| self.u32()).collect()
    }
    fn done(&self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes in payload", self.buf.len() - self.pos))
        }
    }
}

// ---------------------------------------------------------------------------
// record types
// ---------------------------------------------------------------------------

/// Identity of the run a journal belongs to; a resume refuses a journal
/// whose header does not match the current run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalHeader {
    /// Flow name ("DP" or "DP-SA").
    pub flow: String,
    /// [`config_fingerprint`] of the run configuration.
    pub config_hash: u64,
    /// [`circuit_fingerprint`] of the original input circuit.
    pub circuit_hash: u64,
}

/// Serializable snapshot of the [`crate::BudgetGuard`]'s mutable state,
/// taken at checkpoints so a resumed run reproduces the guard's behaviour
/// exactly (validation set regeneration included: the set is a pure
/// function of `val_seed`/`val_words`).
#[derive(Clone, Debug, PartialEq)]
pub struct GuardSnapshot {
    /// Seed of the next validation set to draw.
    pub val_seed: u64,
    /// Words per validation pattern set.
    pub val_words: u64,
    /// Resamples performed so far.
    pub resamples: u64,
    /// Validation error recorded at the most recent commit.
    pub committed_val_error: f64,
    /// Evicted `(target, replacement-literal)` pairs, sorted.
    pub evicted: Vec<(u32, u32)>,
    /// Guard activity counters.
    pub stats: GuardStats,
}

/// Loop state at the top of one dual-phase iteration.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Commits journaled before this checkpoint.
    pub commit_count: u64,
    /// Measured circuit error at the checkpoint (bit-exact cross-check).
    pub cum_error: f64,
    /// Candidate-set size `M` (self-adaption mutates it).
    pub m: u64,
    /// Phase-two round limit `N`.
    pub n_limit: u64,
    /// Per-target substitution budget (self-adaption mutates it).
    pub max_subs_per_target: u64,
    /// Phase-two rounds completed across the run (spot-check salt).
    pub total_rounds: u64,
    /// Comprehensive analyses performed so far.
    pub analyses: u64,
    /// Spot-check failure detail that forced the upcoming comprehensive
    /// analysis to be a fallback, if any.
    pub fallback_pending: Option<String>,
    /// Node ranking of the first comprehensive analysis (raw `NodeId`s).
    pub first_ranking: Vec<u32>,
    /// Budget-guard state.
    pub guard: GuardSnapshot,
}

/// One committed LAC application.
#[derive(Clone, Debug, PartialEq)]
pub struct Commit {
    /// 0-based commit index (= position in `FlowResult::iterations`).
    pub index: u64,
    /// The applied change.
    pub lac: Lac,
    /// Phase that selected the LAC.
    pub phase: Phase,
    /// `IterationRecord` bookkeeping.
    pub error_after: f64,
    /// Gates removed.
    pub saving: u64,
    /// Live AND gates after the application.
    pub nodes_after: u64,
    /// Guard rollbacks before this commit.
    pub rollbacks: u64,
    /// Measured circuit error after the commit (bit-exact cross-check).
    pub cum_error: f64,
    /// Cumulative per-step times at the commit, in nanoseconds
    /// (cuts, cpm, eval, apply) — observability only, never replayed.
    pub step_nanos: [u64; 4],
    /// Edit records of the application, LAC first.
    pub edits: Vec<EditRecord>,
}

/// Graceful-preemption marker, always the final record of a preempted
/// journal: the run was stopped by the supervision layer (deadline,
/// iteration budget or cancellation) after flushing every buffered
/// commit, so the journal is a complete record of the work done.
/// `--resume` drops it naturally — the resume image ends before the last
/// checkpoint, and the resumed (now unpreempted) run re-executes from
/// there, converging to a journal byte-identical to an uninterrupted run.
#[derive(Clone, Debug, PartialEq)]
pub struct Preempt {
    /// Why the run was preempted (always a preemption reason — natural
    /// ends never write this record).
    pub reason: StopReason,
    /// Commits journaled before the preemption.
    pub commit_count: u64,
}

impl Preempt {
    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        let (tag, limit) = match &self.reason {
            StopReason::IterLimit { limit } => (1u8, *limit as u64),
            StopReason::Deadline { limit } => (2u8, limit.as_nanos() as u64),
            StopReason::Cancelled => (3u8, 0u64),
            // Natural ends are never journaled as preemptions; encoding
            // one is a caller bug worth failing loudly on in tests.
            StopReason::Converged | StopReason::LacLimit { .. } => {
                debug_assert!(false, "natural stop journaled as Preempt");
                (3u8, 0u64)
            }
        };
        e.u8(tag);
        e.u64(limit);
        e.u64(self.commit_count);
        e.buf
    }

    fn decode(buf: &[u8]) -> Result<Preempt, String> {
        let mut d = Dec::new(buf);
        let tag = d.u8()?;
        let limit = d.u64()?;
        let reason = match tag {
            1 => StopReason::IterLimit { limit: limit as usize },
            2 => StopReason::Deadline { limit: std::time::Duration::from_nanos(limit) },
            3 => StopReason::Cancelled,
            t => return Err(format!("invalid preempt reason tag {t}")),
        };
        let p = Preempt { reason, commit_count: d.u64()? };
        d.done()?;
        Ok(p)
    }
}

/// Any journal record.
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// Top-of-iteration loop state.
    Checkpoint(Checkpoint),
    /// One committed LAC.
    Commit(Commit),
    /// Graceful-preemption marker (always last when present).
    Preempt(Preempt),
}

fn encode_lac(e: &mut Enc, lac: &Lac) {
    e.u32(lac.target.0);
    match lac.kind {
        LacKind::Const0 => {
            e.u8(0);
            e.u32(0);
        }
        LacKind::Const1 => {
            e.u8(1);
            e.u32(0);
        }
        LacKind::Substitute { sub } => {
            e.u8(2);
            e.u32(sub.raw());
        }
    }
}

fn decode_lac(d: &mut Dec) -> Result<Lac, String> {
    let target = NodeId(d.u32()?);
    let tag = d.u8()?;
    let sub = d.u32()?;
    let kind = match tag {
        0 => LacKind::Const0,
        1 => LacKind::Const1,
        2 => LacKind::Substitute { sub: Lit::from_raw(sub) },
        t => return Err(format!("invalid LAC kind {t}")),
    };
    Ok(Lac { target, kind })
}

fn encode_edit(e: &mut Enc, rec: &EditRecord) {
    e.u32(rec.target.0);
    e.u32(rec.replacement.raw());
    e.u32s(&rec.removed.iter().map(|n| n.0).collect::<Vec<_>>());
    e.u32s(&rec.fanout_changed.iter().map(|n| n.0).collect::<Vec<_>>());
}

fn decode_edit(d: &mut Dec) -> Result<EditRecord, String> {
    Ok(EditRecord {
        target: NodeId(d.u32()?),
        replacement: Lit::from_raw(d.u32()?),
        removed: d.u32s()?.into_iter().map(NodeId).collect(),
        fanout_changed: d.u32s()?.into_iter().map(NodeId).collect(),
    })
}

impl Checkpoint {
    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.commit_count);
        e.f64(self.cum_error);
        e.u64(self.m);
        e.u64(self.n_limit);
        e.u64(self.max_subs_per_target);
        e.u64(self.total_rounds);
        e.u64(self.analyses);
        e.opt_str(&self.fallback_pending);
        e.u32s(&self.first_ranking);
        e.u64(self.guard.val_seed);
        e.u64(self.guard.val_words);
        e.u64(self.guard.resamples);
        e.f64(self.guard.committed_val_error);
        e.u32(self.guard.evicted.len() as u32);
        for &(n, r) in &self.guard.evicted {
            e.u32(n);
            e.u32(r);
        }
        e.u64(self.guard.stats.validations as u64);
        e.u64(self.guard.stats.rollbacks as u64);
        e.u64(self.guard.stats.evictions as u64);
        e.u64(self.guard.stats.resamples as u64);
        e.u64(self.guard.stats.fallbacks as u64);
        e.buf
    }

    fn decode(buf: &[u8]) -> Result<Checkpoint, String> {
        let mut d = Dec::new(buf);
        let cp = Checkpoint {
            commit_count: d.u64()?,
            cum_error: d.f64()?,
            m: d.u64()?,
            n_limit: d.u64()?,
            max_subs_per_target: d.u64()?,
            total_rounds: d.u64()?,
            analyses: d.u64()?,
            fallback_pending: d.opt_str()?,
            first_ranking: d.u32s()?,
            guard: GuardSnapshot {
                val_seed: d.u64()?,
                val_words: d.u64()?,
                resamples: d.u64()?,
                committed_val_error: d.f64()?,
                evicted: {
                    let n = d.u32()? as usize;
                    (0..n)
                        .map(|_| Ok::<_, String>((d.u32()?, d.u32()?)))
                        .collect::<Result<Vec<_>, _>>()?
                },
                stats: GuardStats {
                    validations: d.u64()? as usize,
                    rollbacks: d.u64()? as usize,
                    evictions: d.u64()? as usize,
                    resamples: d.u64()? as usize,
                    fallbacks: d.u64()? as usize,
                },
            },
        };
        d.done()?;
        Ok(cp)
    }
}

impl Commit {
    /// Bundles the data of one committed iteration, converting the
    /// cumulative [`StepTimes`] to nanoseconds.
    pub fn new(
        index: usize,
        rec: &crate::report::IterationRecord,
        edits: &[EditRecord],
        cum_error: f64,
        times: &StepTimes,
    ) -> Commit {
        Commit {
            index: index as u64,
            lac: rec.lac,
            phase: rec.phase,
            error_after: rec.error_after,
            saving: rec.saving as u64,
            nodes_after: rec.nodes_after as u64,
            rollbacks: rec.rollbacks as u64,
            cum_error,
            step_nanos: [
                times.cuts.as_nanos() as u64,
                times.cpm.as_nanos() as u64,
                times.eval.as_nanos() as u64,
                times.apply.as_nanos() as u64,
            ],
            edits: edits.to_vec(),
        }
    }

    /// The journaled [`crate::report::IterationRecord`], for rebuilding
    /// `FlowResult::iterations` on resume.
    pub fn iteration_record(&self) -> crate::report::IterationRecord {
        crate::report::IterationRecord {
            lac: self.lac,
            error_after: self.error_after,
            saving: self.saving as usize,
            nodes_after: self.nodes_after as usize,
            phase: self.phase,
            rollbacks: self.rollbacks as usize,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.index);
        encode_lac(&mut e, &self.lac);
        e.u8(match self.phase {
            Phase::Comprehensive => 0,
            Phase::Incremental => 1,
        });
        e.f64(self.error_after);
        e.u64(self.saving);
        e.u64(self.nodes_after);
        e.u64(self.rollbacks);
        e.f64(self.cum_error);
        for n in self.step_nanos {
            e.u64(n);
        }
        e.u32(self.edits.len() as u32);
        for edit in &self.edits {
            encode_edit(&mut e, edit);
        }
        e.buf
    }

    fn decode(buf: &[u8]) -> Result<Commit, String> {
        let mut d = Dec::new(buf);
        let c = Commit {
            index: d.u64()?,
            lac: decode_lac(&mut d)?,
            phase: match d.u8()? {
                0 => Phase::Comprehensive,
                1 => Phase::Incremental,
                t => return Err(format!("invalid phase tag {t}")),
            },
            error_after: d.f64()?,
            saving: d.u64()?,
            nodes_after: d.u64()?,
            rollbacks: d.u64()?,
            cum_error: d.f64()?,
            step_nanos: [d.u64()?, d.u64()?, d.u64()?, d.u64()?],
            edits: {
                let n = d.u32()? as usize;
                (0..n).map(|_| decode_edit(&mut d)).collect::<Result<Vec<_>, _>>()?
            },
        };
        d.done()?;
        Ok(c)
    }
}

// ---------------------------------------------------------------------------
// writer
// ---------------------------------------------------------------------------

fn io_err(path: &Path, source: std::io::Error) -> EngineError {
    EngineError::Io { path: path.to_path_buf(), source }
}

fn journal_err(detail: impl Into<String>) -> EngineError {
    EngineError::Journal { detail: detail.into() }
}

fn encode_header(h: &JournalHeader) -> Vec<u8> {
    let mut e = Enc::new();
    e.buf.extend_from_slice(MAGIC);
    e.u32(VERSION);
    e.str(&h.flow);
    e.u64(h.config_hash);
    e.u64(h.circuit_hash);
    let sum = fnv1a(&e.buf);
    e.u64(sum);
    e.buf
}

fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(kind);
    e.u32(payload.len() as u32);
    e.buf.extend_from_slice(payload);
    let mut sum_input = vec![kind];
    sum_input.extend_from_slice(payload);
    e.u64(fnv1a(&sum_input));
    e.buf
}

/// Appends records to a journal file, atomically (whole-image temp file +
/// rename per persist).
///
/// Commits support **group commit**: [`JournalWriter::append_commit_buffered`]
/// only extends the in-memory image, and one [`JournalWriter::flush`] (or
/// any checkpoint append) makes every buffered commit durable with a single
/// write + fsync + rename. The on-disk file always ends on a record
/// boundary, so a crash between flushes loses at most the buffered commits
/// of the current iteration — never a torn or reordered record.
pub struct JournalWriter {
    path: PathBuf,
    tmp: PathBuf,
    /// Full byte image of the journal (header + complete records).
    buf: Vec<u8>,
    /// Commit records durably persisted so far (drives the crash hook).
    commits_written: usize,
    /// Commit records appended to `buf` but not yet persisted.
    pending_commits: usize,
    /// Crash hook: abort the process after persisting this many commits.
    crash_after: Option<usize>,
    /// Transient persist failures retried through (obs: the
    /// `als_journal_retries_total` family when wired via
    /// [`JournalWriter::set_retry_counter`]).
    retries: als_obs::Counter,
    #[cfg(feature = "fault-inject")]
    faults: crate::faultplan::FaultPlan,
}

impl JournalWriter {
    fn with_image(path: &Path, buf: Vec<u8>) -> Result<JournalWriter, EngineError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let mut w = JournalWriter {
            path: path.to_path_buf(),
            tmp: PathBuf::from(tmp),
            buf,
            commits_written: 0,
            pending_commits: 0,
            crash_after: std::env::var(CRASH_AFTER_COMMITS_ENV)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok()),
            retries: als_obs::Counter::noop(),
            #[cfg(feature = "fault-inject")]
            faults: crate::faultplan::FaultPlan::default(),
        };
        w.persist()?;
        Ok(w)
    }

    /// Starts a fresh journal at `path` (any existing file is replaced).
    pub fn create(path: &Path, header: &JournalHeader) -> Result<JournalWriter, EngineError> {
        JournalWriter::with_image(path, encode_header(header))
    }

    /// Continues journaling after a resume: `image` must be the verified
    /// byte prefix of the existing journal to keep (torn tails and
    /// re-executed records already dropped). Persisting immediately
    /// truncates the on-disk file to that prefix.
    pub fn resume(path: &Path, image: Vec<u8>) -> Result<JournalWriter, EngineError> {
        JournalWriter::with_image(path, image)
    }

    /// Installs the fault-injection plan consulted on each append.
    #[cfg(feature = "fault-inject")]
    pub fn set_faults(&mut self, faults: crate::faultplan::FaultPlan) {
        self.faults = faults;
    }

    /// Wires the counter incremented once per transient persist failure
    /// retried through (the engine registers it as
    /// `als_journal_retries_total`).
    pub fn set_retry_counter(&mut self, retries: als_obs::Counter) {
        self.retries = retries;
    }

    /// Writes the current image to the temp file, fsyncs it, renames it
    /// over the journal path, and fsyncs the parent directory so the
    /// rename itself is durable. Without the directory sync a crash after
    /// the rename could still lose the new directory entry — the file
    /// content was safe but the journal path might resolve to the old
    /// inode (or nothing) after power loss.
    fn persist_once(&mut self) -> Result<(), EngineError> {
        #[cfg(feature = "fault-inject")]
        if let Some(source) = self.faults.take_journal_failure() {
            return Err(io_err(&self.path, source));
        }
        #[cfg(feature = "fault-inject")]
        if let Some(source) = self.faults.take_transient_journal_failure() {
            return Err(io_err(&self.path, source));
        }
        let write = || -> std::io::Result<()> {
            std::fs::write(&self.tmp, &self.buf)?;
            let f = std::fs::File::open(&self.tmp)?;
            f.sync_all()?;
            std::fs::rename(&self.tmp, &self.path)?;
            #[cfg(feature = "fault-inject")]
            if let Some(source) = self.faults.take_dir_sync_failure() {
                return Err(source);
            }
            let parent = self.path.parent().filter(|p| !p.as_os_str().is_empty());
            let dir = std::fs::File::open(parent.unwrap_or_else(|| Path::new(".")))?;
            dir.sync_all()
        };
        write().map_err(|e| io_err(&self.path, e))
    }

    /// [`JournalWriter::persist_once`] with bounded deterministic retry:
    /// a transient failure (interrupted syscall, saturated device,
    /// timeout — see [`EngineError::is_transient`]) is retried up to
    /// [`PERSIST_RETRIES`] times with 1/2/4 ms backoff before surfacing.
    /// Persisting is idempotent — the whole image is rewritten and the
    /// rename is atomic — so a retry after a partial temp-file write is
    /// always safe. Non-transient failures surface immediately.
    fn persist(&mut self) -> Result<(), EngineError> {
        let mut attempt = 0;
        loop {
            match self.persist_once() {
                Ok(()) => return Ok(()),
                Err(e) if attempt < PERSIST_RETRIES && e.is_transient() => {
                    attempt += 1;
                    self.retries.inc();
                    std::thread::sleep(backoff(attempt));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Marks every buffered commit durable after a successful persist and
    /// services the [`CRASH_AFTER_COMMITS_ENV`] hook: when the armed count
    /// was crossed by this persist, the process aborts *after* the records
    /// are durably on disk — simulating a kill at the worst moment that
    /// still has work to lose.
    fn mark_durable(&mut self) {
        let before = self.commits_written;
        self.commits_written += self.pending_commits;
        self.pending_commits = 0;
        if let Some(n) = self.crash_after {
            if before < n && self.commits_written >= n {
                std::process::abort();
            }
        }
    }

    /// Appends and persists a checkpoint record. The persist also makes
    /// any buffered commits durable (they precede the checkpoint in the
    /// image), so the top-of-iteration checkpoint doubles as the group
    /// commit of the previous iteration.
    pub fn append_checkpoint(&mut self, cp: &Checkpoint) -> Result<(), EngineError> {
        self.buf.extend_from_slice(&frame(KIND_CHECKPOINT, &cp.encode()));
        self.persist()?;
        self.mark_durable();
        Ok(())
    }

    /// Appends a commit record to the in-memory image without touching
    /// disk. The record becomes durable at the next [`JournalWriter::flush`]
    /// or checkpoint append — one fsync then covers every commit buffered
    /// since the last persist.
    pub fn append_commit_buffered(&mut self, c: &Commit) {
        self.buf.extend_from_slice(&frame(KIND_COMMIT, &c.encode()));
        self.pending_commits += 1;
    }

    /// Persists every buffered commit with one write + fsync + rename.
    /// No-op when nothing is buffered.
    pub fn flush(&mut self) -> Result<(), EngineError> {
        if self.pending_commits == 0 {
            return Ok(());
        }
        self.persist()?;
        self.mark_durable();
        Ok(())
    }

    /// Commit records buffered in memory but not yet persisted.
    pub fn pending_commits(&self) -> usize {
        self.pending_commits
    }

    /// Appends and immediately persists a commit record — a buffered
    /// append followed by a [`JournalWriter::flush`]. Kept for callers
    /// (and tests) that want per-commit durability.
    pub fn append_commit(&mut self, c: &Commit) -> Result<(), EngineError> {
        self.append_commit_buffered(c);
        self.flush()
    }

    /// Appends and persists the graceful-preemption marker. Callers flush
    /// buffered commits first (the record claims the journal is complete),
    /// and must append nothing afterwards — `Preempt` is always last.
    pub fn append_preempt(&mut self, p: &Preempt) -> Result<(), EngineError> {
        debug_assert_eq!(self.pending_commits, 0, "flush buffered commits before Preempt");
        self.buf.extend_from_slice(&frame(KIND_PREEMPT, &p.encode()));
        self.persist()?;
        self.mark_durable();
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// loader
// ---------------------------------------------------------------------------

/// A parsed journal: header, complete records, and the verified byte
/// prefix they came from (any torn tail already dropped).
#[derive(Debug)]
pub struct LoadedJournal {
    /// The journal's identity header.
    pub header: JournalHeader,
    /// All complete records, in file order.
    pub records: Vec<Record>,
    /// Byte image up to the last complete record.
    pub bytes: Vec<u8>,
    /// Whether a torn tail record was truncated during loading.
    pub torn_tail: bool,
    /// End offset (exclusive) of each record within `bytes`.
    ends: Vec<usize>,
    /// End offset of the header within `bytes`.
    header_end: usize,
}

/// Loads and verifies the journal at `path`. See the module docs for the
/// torn-tail versus corruption rules.
pub fn load(path: &Path) -> Result<LoadedJournal, EngineError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;

    // Header. A short or mismatching header means there is nothing safe
    // to resume from — that is corruption, not a torn tail.
    let mut d = Dec::new(&bytes);
    let magic = d.take(8).map_err(|_| journal_err("file too short for header"))?;
    if magic != MAGIC {
        return Err(journal_err("bad magic (not an ALS run journal)"));
    }
    let version = d.u32().map_err(|_| journal_err("file too short for header"))?;
    if version != VERSION {
        return Err(journal_err(format!("unsupported journal version {version} (want {VERSION})")));
    }
    let flow = d.str().map_err(|e| journal_err(format!("bad header: {e}")))?;
    let config_hash = d.u64().map_err(|_| journal_err("file too short for header"))?;
    let circuit_hash = d.u64().map_err(|_| journal_err("file too short for header"))?;
    let hashed_len = d.pos;
    let stored_sum = d.u64().map_err(|_| journal_err("file too short for header"))?;
    if stored_sum != fnv1a(&bytes[..hashed_len]) {
        return Err(journal_err("header checksum mismatch"));
    }
    let header = JournalHeader { flow, config_hash, circuit_hash };
    let header_end = d.pos;

    // Records: a frame is kind u8 · len u32 · payload · checksum u64.
    let mut records = Vec::new();
    let mut ends = Vec::new();
    let mut pos = header_end;
    let mut torn_tail = false;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < 5 {
            torn_tail = true;
            break;
        }
        let kind = bytes[pos];
        let len =
            u32::from_le_bytes([bytes[pos + 1], bytes[pos + 2], bytes[pos + 3], bytes[pos + 4]])
                as usize;
        if remaining < 5 + len + 8 {
            torn_tail = true;
            break;
        }
        let payload = &bytes[pos + 5..pos + 5 + len];
        let stored = {
            let b = &bytes[pos + 5 + len..pos + 5 + len + 8];
            u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
        };
        let mut sum_input = vec![kind];
        sum_input.extend_from_slice(payload);
        let idx = records.len();
        if stored != fnv1a(&sum_input) {
            return Err(journal_err(format!("checksum mismatch in record {idx}")));
        }
        let record = match kind {
            KIND_CHECKPOINT => Checkpoint::decode(payload)
                .map(Record::Checkpoint)
                .map_err(|e| journal_err(format!("record {idx}: {e}")))?,
            KIND_COMMIT => Commit::decode(payload)
                .map(Record::Commit)
                .map_err(|e| journal_err(format!("record {idx}: {e}")))?,
            KIND_PREEMPT => Preempt::decode(payload)
                .map(Record::Preempt)
                .map_err(|e| journal_err(format!("record {idx}: {e}")))?,
            k => return Err(journal_err(format!("record {idx}: unknown kind {k}"))),
        };
        pos += 5 + len + 8;
        records.push(record);
        ends.push(pos);
    }

    let mut bytes = bytes;
    bytes.truncate(pos);
    Ok(LoadedJournal { header, records, bytes, torn_tail, ends, header_end })
}

impl LoadedJournal {
    /// Rejects the journal when its header does not match the current
    /// run's identity.
    pub fn check_header(&self, expected: &JournalHeader) -> Result<(), EngineError> {
        if self.header.flow != expected.flow {
            return Err(journal_err(format!(
                "journal belongs to flow {} but this run is {}",
                self.header.flow, expected.flow
            )));
        }
        if self.header.config_hash != expected.config_hash {
            return Err(journal_err(
                "journal was written under a different configuration (config hash mismatch)",
            ));
        }
        if self.header.circuit_hash != expected.circuit_hash {
            return Err(journal_err(
                "journal belongs to a different input circuit (circuit hash mismatch)",
            ));
        }
        Ok(())
    }

    /// Index and contents of the last checkpoint record, if any.
    pub fn last_checkpoint(&self) -> Option<(usize, &Checkpoint)> {
        self.records.iter().enumerate().rev().find_map(|(i, r)| match r {
            Record::Checkpoint(cp) => Some((i, cp)),
            Record::Commit(_) | Record::Preempt(_) => None,
        })
    }

    /// Byte image ending just *before* record `idx` — the resume writer
    /// is seeded with the prefix before the last checkpoint, because the
    /// resumed loop immediately re-journals an identical checkpoint
    /// (restored state is bit-exact), keeping the resumed journal
    /// byte-identical to an uninterrupted one.
    pub fn image_before(&self, idx: usize) -> Vec<u8> {
        let end = if idx == 0 { self.header_end } else { self.ends[idx - 1] };
        self.bytes[..end].to_vec()
    }

    /// The commit records preceding record index `idx`, in order.
    pub fn commits_before(&self, idx: usize) -> Vec<&Commit> {
        self.records[..idx]
            .iter()
            .filter_map(|r| match r {
                Record::Commit(c) => Some(c),
                Record::Checkpoint(_) | Record::Preempt(_) => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_error::MetricKind;

    fn header() -> JournalHeader {
        JournalHeader { flow: "DP-SA".into(), config_hash: 0x1234, circuit_hash: 0x5678 }
    }

    fn sample_checkpoint(commits: u64) -> Checkpoint {
        Checkpoint {
            commit_count: commits,
            cum_error: 1.25,
            m: 60,
            n_limit: 20,
            max_subs_per_target: 8,
            total_rounds: 7,
            analyses: 2,
            fallback_pending: Some("stale cut".into()),
            first_ranking: vec![9, 4, 7],
            guard: GuardSnapshot {
                val_seed: 42,
                val_words: 64,
                resamples: 1,
                committed_val_error: 0.5,
                evicted: vec![(3, 1), (5, 0)],
                stats: GuardStats {
                    validations: 10,
                    rollbacks: 2,
                    evictions: 2,
                    resamples: 1,
                    fallbacks: 1,
                },
            },
        }
    }

    fn sample_commit(index: u64) -> Commit {
        Commit {
            index,
            lac: Lac::substitute(NodeId(12), Lit::from_raw(7)),
            phase: Phase::Incremental,
            error_after: 0.75,
            saving: 3,
            nodes_after: 40,
            rollbacks: 1,
            cum_error: 0.75,
            step_nanos: [1, 2, 3, 4],
            edits: vec![EditRecord {
                target: NodeId(12),
                replacement: Lit::from_raw(7),
                removed: vec![NodeId(12), NodeId(13)],
                fanout_changed: vec![NodeId(3)],
            }],
        }
    }

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("als-journal-test-{}-{name}.alsj", std::process::id()));
        p
    }

    #[test]
    fn roundtrips_header_and_records() {
        let path = tmp_path("roundtrip");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.append_checkpoint(&sample_checkpoint(0)).unwrap();
        w.append_commit(&sample_commit(0)).unwrap();
        w.append_commit(&sample_commit(1)).unwrap();
        w.append_checkpoint(&sample_checkpoint(2)).unwrap();

        let loaded = load(&path).unwrap();
        assert_eq!(loaded.header, header());
        assert!(!loaded.torn_tail);
        assert_eq!(loaded.records.len(), 4);
        assert_eq!(loaded.records[0], Record::Checkpoint(sample_checkpoint(0)));
        assert_eq!(loaded.records[1], Record::Commit(sample_commit(0)));
        assert_eq!(loaded.records[3], Record::Checkpoint(sample_checkpoint(2)));
        let (idx, cp) = loaded.last_checkpoint().unwrap();
        assert_eq!((idx, cp.commit_count), (3, 2));
        assert_eq!(loaded.commits_before(idx).len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_to_last_complete_record() {
        let path = tmp_path("torn");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.append_checkpoint(&sample_checkpoint(0)).unwrap();
        w.append_commit(&sample_commit(0)).unwrap();
        let full = std::fs::read(&path).unwrap();
        // chop the final record mid-payload
        std::fs::write(&path, &full[..full.len() - 10]).unwrap();

        let loaded = load(&path).unwrap();
        assert!(loaded.torn_tail);
        assert_eq!(loaded.records.len(), 1, "only the complete checkpoint survives");
        assert!(matches!(loaded.records[0], Record::Checkpoint(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_checksum_is_an_error_not_a_truncation() {
        let path = tmp_path("corrupt");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.append_checkpoint(&sample_checkpoint(0)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // flip one payload byte of the (complete) record
        let n = bytes.len();
        bytes[n - 12] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let err = load(&path).unwrap_err();
        assert!(matches!(err, EngineError::Journal { ref detail } if detail.contains("checksum")));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_version_and_header_mismatch_are_rejected() {
        let path = tmp_path("badheader");
        std::fs::write(&path, b"NOTAJRNL").unwrap();
        assert!(matches!(load(&path).unwrap_err(), EngineError::Journal { .. }));

        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.append_checkpoint(&sample_checkpoint(0)).unwrap();
        let loaded = load(&path).unwrap();
        let other = JournalHeader { circuit_hash: 0x9999, ..header() };
        assert!(loaded.check_header(&header()).is_ok());
        assert!(matches!(loaded.check_header(&other).unwrap_err(), EngineError::Journal { .. }));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn image_before_supports_byte_identical_resume() {
        let path = tmp_path("image");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.append_checkpoint(&sample_checkpoint(0)).unwrap();
        w.append_commit(&sample_commit(0)).unwrap();
        let after_commit = std::fs::read(&path).unwrap();
        w.append_checkpoint(&sample_checkpoint(1)).unwrap();
        w.append_commit(&sample_commit(1)).unwrap();

        let loaded = load(&path).unwrap();
        let (idx, _) = loaded.last_checkpoint().unwrap();
        // the image before the last checkpoint is exactly the journal as
        // it stood after the preceding commit
        assert_eq!(loaded.image_before(idx), after_commit);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn preempt_records_roundtrip_and_resume_drops_them() {
        let path = tmp_path("preempt");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.append_checkpoint(&sample_checkpoint(0)).unwrap();
        w.append_commit(&sample_commit(0)).unwrap();
        let preempt = Preempt {
            reason: StopReason::Deadline { limit: std::time::Duration::from_millis(1500) },
            commit_count: 1,
        };
        w.append_preempt(&preempt).unwrap();

        let loaded = load(&path).unwrap();
        assert!(!loaded.torn_tail);
        assert_eq!(loaded.records.last(), Some(&Record::Preempt(preempt)));
        // the resume image (before the last checkpoint) excludes the
        // preempt marker, so a resumed journal can converge to the bytes
        // of an uninterrupted run
        let (idx, _) = loaded.last_checkpoint().unwrap();
        assert_eq!(idx, 0);
        assert!(!loaded.image_before(idx).is_empty());
        std::fs::remove_file(&path).ok();

        for reason in [StopReason::IterLimit { limit: 40 }, StopReason::Cancelled] {
            let p = Preempt { reason, commit_count: 7 };
            assert_eq!(Preempt::decode(&p.encode()).unwrap(), p);
        }
    }

    #[test]
    fn config_fingerprint_ignores_threads_but_not_semantics() {
        let a = FlowConfig::new(MetricKind::Med, 4.0).with_patterns(1024);
        let b = a.clone().with_threads(8);
        assert_eq!(config_fingerprint(&a, "DP-SA"), config_fingerprint(&b, "DP-SA"));
        // supervision limits are stop-time knobs, not result semantics: a
        // preempted run must resume under different (or no) limits
        let s = a.clone().with_timeout(std::time::Duration::from_secs(1)).with_max_iters(5);
        assert_eq!(config_fingerprint(&a, "DP-SA"), config_fingerprint(&s, "DP-SA"));
        let c = a.clone().with_seed(99);
        assert_ne!(config_fingerprint(&a, "DP-SA"), config_fingerprint(&c, "DP-SA"));
        assert_ne!(config_fingerprint(&a, "DP-SA"), config_fingerprint(&a, "DP"));
        let mut d = a.clone();
        d.error_bound = 5.0;
        assert_ne!(config_fingerprint(&a, "DP-SA"), config_fingerprint(&d, "DP-SA"));
    }
}
