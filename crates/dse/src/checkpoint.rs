//! Checkpoint/resume journaling: the one `Journal` behind the
//! exploration sweep and the guided search, and the one handle
//! ([`Journalled`]) that owns a run's journal and what it already held,
//! through whose runner ([`Journalled::run_journalled`]) both replay and
//! append it.
//!
//! The full sweep is minutes of compute; an interrupted run (ctrl-C, a
//! batch-queue eviction, a crash) should not forfeit the units it
//! finished. When [`crate::explore::ExploreConfig::checkpoint`] is set,
//! every completed `(architecture, benchmark)` unit is journaled to disk
//! as it lands, and a resumed run replays the journal instead of
//! re-evaluating — with *bit-identical* results, because measurements
//! are stored as exact `f64` bit patterns, and the evaluation of every
//! unit is already deterministic and independent of the others.
//!
//! Journal writes are crash-consistent. The header is written to a
//! sibling temp file and atomically renamed into place, so a journal
//! either exists with its whole header or not at all; every entry after
//! it is one `<key>,<outcome>\n` line appended with a single write, and
//! no line is ever rewritten. A crash mid-append can leave only a last
//! line without its newline: resume drops that torn line and truncates
//! it away before appending again.
//!
//! A journal is keyed by a fingerprint of everything that determines
//! its run's results (for the sweep: architectures, benchmarks, fuel
//! budget, fault injection — not thread counts, which cannot change
//! results). Resuming under a different configuration is refused rather
//! than silently mixing incompatible measurements.
//!
//! The file format and the write discipline live here and nowhere else.
//! A journal kind is its magic word, the header fields after the
//! fingerprint, and a typed entry key whose `Display` is its text on
//! disk: the sweep's (`sweep_journal`:
//! `cfp-checkpoint,v1,<fingerprint>,<units>`, entries keyed by the unit
//! index, a `usize`) and the guided search's (`search_journal`:
//! `cfp-search,v1,<fingerprint>`, entries keyed by a [`SearchKey`],
//! `<candidate>,<rung>`).

use crate::error::{CheckpointError, ExploreError, FailKind, FailReason};
use crate::eval::{EvalOutcome, Measurement};
use crate::explore::ExploreConfig;
use crate::units::Workers;
use cfp_ir::WordMap;
use cfp_machine::{ArchSpec, Fnv1a};
use std::fmt::Display;
use std::fs::{self, File, OpenOptions};
use std::hash::Hash;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// First header field of the sweep's journal.
const MAGIC: &str = "cfp-checkpoint";
/// First header field of the search's journal.
pub(crate) const SEARCH_MAGIC: &str = "cfp-search";
/// Second header field of every journal kind (and an input of every
/// run fingerprint, so a format bump orphans old journals with a typed
/// [`CheckpointError::Mismatch`]).
pub(crate) const VERSION: &str = "v1";

/// Where the sweep journals completed units, and whether an existing
/// journal may be loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The journal file.
    pub path: PathBuf,
    /// Load completed units from an existing journal (a mid-run journal
    /// resumes the sweep; a missing file just starts fresh). Without
    /// this, an existing journal is an error — never silently clobbered.
    pub resume: bool,
}

impl Checkpoint {
    /// Journal to `path`; refuse to start if a journal already exists.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Checkpoint {
            path: path.into(),
            resume: false,
        }
    }

    /// Journal to `path`, resuming from it if it exists.
    pub fn resume(path: impl Into<PathBuf>) -> Self {
        Checkpoint {
            path: path.into(),
            resume: true,
        }
    }
}

/// FNV-1a over everything that determines unit results. Deliberately
/// hand-rolled: `DefaultHasher`/`RandomState` are seeded per process and
/// would make every journal unresumable.
#[must_use]
pub fn fingerprint(config: &ExploreConfig) -> u64 {
    let mut h = Fnv1a::new();
    let mut eat = |bytes: &[u8]| {
        h.write(bytes);
        // Field separator, so ["ab","c"] and ["a","bc"] differ.
        h.write(&[0xff]);
    };
    eat(MAGIC.as_bytes());
    eat(VERSION.as_bytes());
    for a in &config.archs {
        eat(a.to_string().as_bytes());
    }
    for b in &config.benches {
        eat(b.letter().as_bytes());
    }
    match config.fuel {
        None => eat(b"fuel:none"),
        Some(n) => eat(format!("fuel:{n}").as_bytes()),
    }
    match &config.fault {
        None => eat(b"fault:none"),
        // Panicking injectors keep the pre-FaultKind encoding so old
        // journals stay resumable; the newer kinds fold in their token
        // (and a stall's length, which changes nothing but is honest).
        Some(f) => match f.kind() {
            cfp_testkit::FaultKind::Panic => {
                eat(format!("fault:{}:{}", f.seed(), f.denominator()).as_bytes());
            }
            kind => {
                eat(format!("fault:{}:{}:{}", kind.token(), f.seed(), f.denominator()).as_bytes())
            }
        },
    }
    h.finish()
}

/// FNV-1a over one architecture's seven axes plus its extension set —
/// the stable per-spec identity (distinct specs hash apart with
/// overwhelming probability; search journals key their entries on it
/// and pinned digests fold it, grouping never uses it). An empty
/// extension set contributes no bytes, so every unextended spec keeps
/// its historical fingerprint bit for bit.
#[must_use]
pub fn spec_fingerprint(spec: &ArchSpec) -> u64 {
    let mut h = Fnv1a::new();
    let mut eat = |x: u32| h.write(&x.to_le_bytes());
    eat(spec.alus);
    eat(spec.muls);
    eat(spec.regs);
    eat(spec.l2_ports);
    eat(spec.l2_latency);
    eat(u32::from(spec.l2_pipelined));
    eat(spec.clusters);
    if !spec.exts.is_empty() {
        eat(u32::from(spec.exts.bits()));
    }
    h.finish()
}

/// Percent-escape a failure message for one comma-separated field (also
/// reused by the CSV persistence, which has the same delimiter rules).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            ',' => out.push_str("%2c"),
            '\n' => out.push_str("%0a"),
            '\r' => out.push_str("%0d"),
            _ => out.push(c),
        }
    }
    out
}

pub(crate) fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let hex: String = chars.by_ref().take(2).collect();
        match hex.as_str() {
            "25" => out.push('%'),
            "2c" => out.push(','),
            "0a" => out.push('\n'),
            "0d" => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

/// The `done,...`/`failed,...` tail of a journal line — the outcome
/// payload after the entry key. The measurement's `f64` is stored as its
/// exact bit pattern so resume is bit-identical.
fn encode_outcome(outcome: &EvalOutcome) -> String {
    match outcome {
        EvalOutcome::Done(m) => format!(
            "done,{:016x},{},{},{}",
            m.cycles_per_output.to_bits(),
            m.unroll,
            u8::from(m.spilled),
            m.compilations,
        ),
        EvalOutcome::Failed { reason } => {
            format!("failed,{},{}", reason.kind.token(), escape(&reason.message))
        }
    }
}

/// Inverse of [`encode_outcome`] over the already-split fields after the
/// entry key.
fn parse_outcome(fields: &[&str], lineno: usize) -> CheckpointResult<EvalOutcome> {
    let corrupt = |message: String| CheckpointError::Corrupt {
        line: lineno,
        message,
    };
    match (fields.first().copied(), fields.len()) {
        (Some("done"), 5) => {
            let bits = u64::from_str_radix(fields[1], 16)
                .map_err(|e| corrupt(format!("bad cycle bits `{}`: {e}", fields[1])))?;
            let num = |s: &str| -> CheckpointResult<u32> {
                s.parse()
                    .map_err(|e| corrupt(format!("bad number `{s}`: {e}")))
            };
            // Exactly what `encode_outcome` writes: anything else in the
            // flag's place is damage, not `false`.
            let spilled = match fields[3] {
                "0" => false,
                "1" => true,
                other => return Err(corrupt(format!("bad spill flag `{other}`"))),
            };
            Ok(EvalOutcome::Done(Measurement {
                cycles_per_output: f64::from_bits(bits),
                unroll: num(fields[2])?,
                spilled,
                compilations: num(fields[4])?,
            }))
        }
        (Some("failed"), n) if n >= 3 => {
            let kind = FailKind::from_token(fields[1])
                .ok_or_else(|| corrupt(format!("unknown failure kind `{}`", fields[1])))?;
            let message = unescape(&fields[2..].join(","))
                .ok_or_else(|| corrupt("bad escape in failure message".to_owned()))?;
            Ok(EvalOutcome::Failed {
                reason: FailReason { kind, message },
            })
        }
        (tag, n) => Err(corrupt(format!(
            "unrecognized entry (tag {tag:?}, {n} fields)"
        ))),
    }
}

type CheckpointResult<T> = Result<T, CheckpointError>;

/// An open journal: the file, opened for appending, behind the entries
/// already on disk.
#[derive(Debug)]
pub(crate) struct Journal {
    path: PathBuf,
    file: File,
}

impl Journal {
    /// Open the journal `ck` describes for a run with this `fingerprint`.
    ///
    /// The first line is `<magic>,v1,<fingerprint>` followed by the
    /// `tail` fields; every other line is one entry, `key_fields`
    /// comma-separated key fields (decoded, and range-checked, by
    /// `decode_key`) followed by the outcome. Returns the journal with
    /// the entries already recorded — none unless `ck` resumes a file
    /// that exists; a file that exists without `resume` is
    /// [`CheckpointError::Exists`], never clobbered. A resumed file's
    /// last line without its newline is a torn append: it is not an
    /// entry, and it is cut off before anything is appended.
    pub(crate) fn attach<K: Copy + Eq + Hash>(
        ck: &Checkpoint,
        magic: &str,
        fingerprint: u64,
        tail: &[String],
        key_fields: usize,
        decode_key: impl Fn(&[&str]) -> Result<K, String>,
    ) -> CheckpointResult<Journalled<K>> {
        let fingerprint_hex = format!("{fingerprint:016x}");
        let mut header = vec![magic, VERSION, &fingerprint_hex];
        header.extend(tail.iter().map(String::as_str));
        let io = |source| CheckpointError::Io {
            path: ck.path.clone(),
            source,
        };
        let mut torn = None;
        let entries = if ck.path.exists() {
            if !ck.resume {
                return Err(CheckpointError::Exists(ck.path.clone()));
            }
            let bytes = fs::read(&ck.path).map_err(io)?;
            let whole = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            if whole < bytes.len() {
                torn = Some(whole as u64);
            }
            let text = std::str::from_utf8(&bytes[..whole])
                .map_err(|e| io(std::io::Error::new(std::io::ErrorKind::InvalidData, e)))?;
            parse(text, &header, fingerprint, key_fields, decode_key)?
        } else {
            write_atomic(&ck.path, &format!("{}\n", header.join(","))).map_err(io)?;
            WordMap::default()
        };
        let file = OpenOptions::new().append(true).open(&ck.path).map_err(io)?;
        if let Some(len) = torn {
            file.set_len(len).map_err(io)?;
        }
        let path = ck.path.clone();
        Ok(Journalled {
            journal: Some(Mutex::new(Journal { path, file })),
            held: entries,
        })
    }

    /// Append one `<key>,<outcome>` line per entry, each with a single
    /// write. No entries, no write.
    pub(crate) fn append<'a>(
        &mut self,
        entries: impl IntoIterator<Item = (impl Display, &'a EvalOutcome)>,
    ) -> CheckpointResult<()> {
        for (key, outcome) in entries {
            let line = format!("{key},{}\n", encode_outcome(outcome));
            self.file
                .write_all(line.as_bytes())
                .map_err(|source| CheckpointError::Io {
                    path: self.path.clone(),
                    source,
                })?;
        }
        Ok(())
    }
}

/// A run's journal — or none — and the outcomes it already held, by
/// entry key: the one handle through which the sweep (keyed by unit
/// index) and the guided search (keyed by [`SearchKey`]) replay and
/// append.
#[derive(Debug)]
pub(crate) struct Journalled<K> {
    journal: Option<Mutex<Journal>>,
    held: WordMap<K, EvalOutcome>,
}

impl<K: Copy + Eq + Hash + Display + Send + Sync + 'static> Journalled<K> {
    /// No journal: nothing is replayed and nothing appended.
    pub(crate) fn off() -> Self {
        Journalled {
            journal: None,
            held: WordMap::default(),
        }
    }

    /// Outcomes the journal held when the run attached it.
    pub(crate) fn resumed(&self) -> u64 {
        self.held.len() as u64
    }

    /// Run `unit(i)` for every `i` in `0..n` on the run's worker set,
    /// through the journal: a unit whose `key(i)` the journal held is
    /// replayed, not run, and any other is evaluated and, with a
    /// journal, appended under `key(i)` as it lands. Returns each unit's
    /// outcome and whether it was evaluated (`true`) or replayed
    /// (`false`), in index order. Without a journal no unit takes a
    /// lock, and `key` is never called.
    ///
    /// # Errors
    /// The first failed append, as [`ExploreError::Checkpoint`]: after
    /// it no further unit starts and nothing more is appended, since
    /// measuring on while the journal is lost would silently break a
    /// resumed run's bit-identity. [`ExploreError::WorkerLost`] if a
    /// unit panics.
    pub(crate) fn run_journalled<'env>(
        self: &Arc<Self>,
        workers: &Workers<'env>,
        n: usize,
        key: impl Fn(usize) -> K + Send + Sync + 'env,
        unit: impl Fn(usize) -> EvalOutcome + Send + Sync + 'env,
    ) -> Result<Vec<(EvalOutcome, bool)>, ExploreError> {
        let lost: Arc<Mutex<Option<CheckpointError>>> = Arc::default();
        let answers = workers
            .run(n, {
                let (this, lost) = (Arc::clone(self), Arc::clone(&lost));
                move |i| {
                    let Some(journal) = &this.journal else {
                        return Some((unit(i), true));
                    };
                    let key = key(i);
                    if let Some(out) = this.held.get(&key) {
                        return Some((out.clone(), false));
                    }
                    if lock(&lost).is_some() {
                        return None;
                    }
                    let out = unit(i);
                    let mut journal = lock(journal);
                    // A failed write may have left a torn line: nothing
                    // follows it.
                    if lock(&lost).is_none() {
                        if let Err(e) = journal.append([(key, &out)]) {
                            *lock(&lost) = Some(e);
                        }
                    }
                    Some((out, true))
                }
            })
            .map_err(|_| ExploreError::WorkerLost)?;
        if let Some(e) = lock(&lost).take() {
            return Err(e.into());
        }
        answers
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or(ExploreError::WorkerLost)
    }
}

/// Lock `m`, taking a poisoned lock as it stands: every write under the
/// locks this module takes is complete before anything fallible runs.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Replace `path`'s content with `content` atomically: write the
/// `<path>.tmp` sibling, then rename it over `path`, so a reader — a
/// resuming run, a recovering daemon — sees the old content or the new,
/// never a torn write. The one crash-consistent writer: the journals'
/// headers here and `cfp-serve`'s job and result files all go through
/// it.
///
/// # Errors
/// Whatever writing the sibling or renaming it reports.
pub fn write_atomic(path: &Path, content: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    fs::write(&tmp, content)?;
    fs::rename(&tmp, path)
}

/// Check `text`'s header against the one this run would write (`header`,
/// already split) and decode its entries. Blank lines are skipped; a key
/// recorded twice is corruption.
fn parse<K: Copy + Eq + Hash>(
    text: &str,
    header: &[&str],
    expected_fp: u64,
    key_fields: usize,
    decode_key: impl Fn(&[&str]) -> Result<K, String>,
) -> CheckpointResult<WordMap<K, EvalOutcome>> {
    let corrupt = |line: usize, message: String| CheckpointError::Corrupt { line, message };
    let mut lines = text.lines().enumerate();
    let Some((_, found_header)) = lines.next() else {
        return Err(corrupt(1, "no whole header line".to_owned()));
    };
    let h: Vec<&str> = found_header.split(',').collect();
    if h.len() != header.len() || h[..2] != header[..2] {
        return Err(corrupt(1, format!("bad header `{found_header}`")));
    }
    let found = u64::from_str_radix(h[2], 16)
        .map_err(|e| corrupt(1, format!("bad fingerprint `{}`: {e}", h[2])))?;
    if found != expected_fp {
        return Err(CheckpointError::Mismatch {
            expected: expected_fp,
            found,
        });
    }
    if h[3..] != header[3..] {
        return Err(corrupt(
            1,
            format!(
                "journal is for `{}`, this run is `{}`",
                h[3..].join(","),
                header[3..].join(",")
            ),
        ));
    }

    let mut entries = WordMap::default();
    for (idx, line) in lines {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() < key_fields {
            return Err(corrupt(lineno, format!("truncated entry `{line}`")));
        }
        let (key_text, outcome) = fields.split_at(key_fields);
        let key = decode_key(key_text).map_err(|message| corrupt(lineno, message))?;
        let outcome = parse_outcome(outcome, lineno)?;
        if entries.insert(key, outcome).is_some() {
            return Err(corrupt(
                lineno,
                format!("entry `{}` recorded twice", key_text.join(",")),
            ));
        }
    }
    Ok(entries)
}

/// Open the sweep's journal for a run of `units` work units: the unit
/// count is the header's tail, and an entry's key is its unit index in
/// decimal.
pub(crate) fn sweep_journal(
    ck: &Checkpoint,
    fingerprint: u64,
    units: usize,
) -> CheckpointResult<Journalled<usize>> {
    Journal::attach(ck, MAGIC, fingerprint, &[units.to_string()], 1, |key| {
        let unit: usize = key[0]
            .parse()
            .map_err(|e| format!("bad unit index `{}`: {e}", key[0]))?;
        if unit >= units {
            return Err(format!("unit {unit} out of range (run has {units})"));
        }
        Ok(unit)
    })
}

/// A search-journal entry's key: a candidate's [`spec_fingerprint`] and
/// its ladder rung, written `<candidate:016x>,<rung>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SearchKey {
    pub(crate) candidate: u64,
    pub(crate) rung: usize,
}

impl Display for SearchKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x},{}", self.candidate, self.rung)
    }
}

/// Open the search's journal: no header tail, entries keyed by
/// [`SearchKey`].
pub(crate) fn search_journal(
    ck: &Checkpoint,
    fingerprint: u64,
) -> CheckpointResult<Journalled<SearchKey>> {
    Journal::attach(ck, SEARCH_MAGIC, fingerprint, &[], 2, |key| {
        let candidate = u64::from_str_radix(key[0], 16)
            .map_err(|e| format!("bad candidate key `{}`: {e}", key[0]))?;
        let rung: usize = key[1]
            .parse()
            .map_err(|e| format!("bad rung `{}`: {e}", key[1]))?;
        Ok(SearchKey { candidate, rung })
    })
}

#[cfg(test)]
impl<K> Journalled<K> {
    /// This journal behind a handle that refuses every write: what a
    /// journal lost mid-run looks like to the runner.
    pub(crate) fn refusing_writes(self) -> CheckpointResult<Self> {
        let journal = self.journal.map(|j| {
            let path = j.into_inner().unwrap_or_else(PoisonError::into_inner).path;
            let file = File::open(&path).map_err(|source| CheckpointError::Io {
                path: path.clone(),
                source,
            })?;
            Ok(Mutex::new(Journal { path, file }))
        });
        Ok(Journalled {
            journal: journal.transpose()?,
            held: self.held,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn done(cpo: f64, spilled: bool) -> EvalOutcome {
        EvalOutcome::Done(Measurement {
            cycles_per_output: cpo,
            unroll: 4,
            spilled,
            compilations: 3,
        })
    }

    /// A quarantine record whose message holds every character the line
    /// format must escape.
    fn nasty() -> EvalOutcome {
        EvalOutcome::Failed {
            reason: FailReason {
                kind: FailKind::Panic,
                message: "index 3,7 out of bounds\n(100%)".to_owned(),
            },
        }
    }

    #[test]
    fn outcomes_round_trip_bit_exactly() {
        // A value with no finite decimal representation, plus edge bits.
        for cpo in [0.1 + 0.2, f64::MIN_POSITIVE, 1.0 / 3.0, 12345.678] {
            for spilled in [false, true] {
                let line = encode_outcome(&done(cpo, spilled));
                let fields: Vec<&str> = line.split(',').collect();
                let back = parse_outcome(&fields, 2).expect("parses");
                let m = back.measurement().expect("done");
                assert_eq!(m.cycles_per_output.to_bits(), cpo.to_bits());
                assert_eq!((m.unroll, m.spilled, m.compilations), (4, spilled, 3));
            }
        }
    }

    #[test]
    fn failed_outcomes_keep_their_messy_messages() {
        let line = encode_outcome(&nasty());
        assert!(!line.contains('\n'), "journal lines stay single lines");
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(parse_outcome(&fields, 2).expect("parses"), nasty());
    }

    #[test]
    fn escape_round_trips_and_rejects_garbage() {
        for s in ["plain", "a,b", "100%", "x\ny\r", "%2c literal"] {
            assert_eq!(unescape(&escape(s)).as_deref(), Some(s));
        }
        assert_eq!(unescape("bad %zz escape"), None);
    }

    #[test]
    fn fingerprints_separate_every_axis() {
        let spec = ArchSpec::new(8, 4, 256, 2, 4, 2).unwrap();
        let variants = [
            ArchSpec::new(16, 4, 256, 2, 4, 2).unwrap(),
            ArchSpec::new(8, 2, 256, 2, 4, 2).unwrap(),
            ArchSpec::new(8, 4, 512, 2, 4, 2).unwrap(),
            ArchSpec::new(8, 4, 256, 1, 4, 2).unwrap(),
            ArchSpec::new(8, 4, 256, 2, 8, 2).unwrap(),
            ArchSpec::new(8, 4, 256, 2, 4, 4).unwrap(),
            spec.with_pipelined_l2(),
        ];
        let base = spec_fingerprint(&spec);
        for v in variants {
            assert_ne!(base, spec_fingerprint(&v), "{v}");
        }
        // The extension set is an axis too: every non-empty set hashes
        // apart from the base spec and from the other sets.
        let exts: Vec<u64> = cfp_machine::ExtSet::AXIS
            .iter()
            .map(|&e| spec_fingerprint(&spec.with_extensions(e)))
            .collect();
        assert_eq!(exts[0], base, "empty set must not change the hash");
        for (i, &a) in exts.iter().enumerate() {
            for &b in &exts[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    /// The two journal kinds behind one face, so every case below runs
    /// against both key codecs: entries come back with their keys
    /// re-encoded as the text that stands on disk.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Kind {
        Sweep,
        Search,
    }

    const FP: u64 = 0xabcd;
    const UNITS: usize = 10;

    impl Kind {
        /// The journal, and the entries it held sorted by their text.
        fn open(
            self,
            ck: &Checkpoint,
            fp: u64,
        ) -> CheckpointResult<(Journal, Vec<(String, EvalOutcome)>)> {
            fn text<K: Display>(opened: Journalled<K>) -> (Journal, Vec<(String, EvalOutcome)>) {
                let journal = opened.journal.expect("attached").into_inner().unwrap();
                let mut entries: Vec<(String, EvalOutcome)> = opened
                    .held
                    .into_iter()
                    .map(|(k, o)| (k.to_string(), o))
                    .collect();
                entries.sort_by(|a, b| a.0.cmp(&b.0));
                (journal, entries)
            }
            match self {
                Kind::Sweep => sweep_journal(ck, fp, UNITS).map(text),
                Kind::Search => search_journal(ck, fp).map(text),
            }
        }

        fn header(self) -> String {
            match self {
                Kind::Sweep => format!("cfp-checkpoint,v1,{FP:016x},{UNITS}"),
                Kind::Search => format!("cfp-search,v1,{FP:016x}"),
            }
        }

        /// Two distinct keys, through the encoders the engines use.
        fn keys(self) -> [String; 2] {
            match self {
                Kind::Sweep => [3_usize.to_string(), 7_usize.to_string()],
                Kind::Search => [
                    SearchKey {
                        candidate: 0x1234,
                        rung: 0,
                    }
                    .to_string(),
                    SearchKey {
                        candidate: 0xfeed_f00d,
                        rung: 2,
                    }
                    .to_string(),
                ],
            }
        }

        /// Key texts the codec must refuse.
        fn bad_keys(self) -> &'static [&'static str] {
            match self {
                // Not a number, negative, one past the run's last unit.
                Kind::Sweep => &["x", "-1", "10"],
                // Not hex, not a rung.
                Kind::Search => &["wxyz,0", "0000000000001234,two"],
            }
        }

        /// A fresh journal path for `test`, nothing there yet.
        fn path(self, test: &str) -> PathBuf {
            let path = std::env::temp_dir().join(format!(
                "cfp_journal_{}_{test}_{self:?}.journal",
                std::process::id()
            ));
            let _ = fs::remove_file(&path);
            path
        }
    }

    #[test]
    fn both_kinds_round_trip_and_refuse_the_same_damage() {
        for kind in [Kind::Sweep, Kind::Search] {
            let path = kind.path("table");
            let header = kind.header();
            let [k1, k2] = kind.keys();

            // A fresh attach writes the header and nothing else.
            let (_, entries) = kind.open(&Checkpoint::new(&path), FP).expect("fresh");
            assert!(entries.is_empty());
            assert_eq!(fs::read_to_string(&path).unwrap(), format!("{header}\n"));
            // A missing file under `resume` is the same fresh start.
            fs::remove_file(&path).unwrap();
            let (mut journal, entries) = kind.open(&Checkpoint::resume(&path), FP).expect("fresh");
            assert!(entries.is_empty());
            assert_eq!(fs::read_to_string(&path).unwrap(), format!("{header}\n"));

            // Appended entries come back on resume.
            journal.append([(&k1, &done(1.0 / 3.0, false))]).unwrap();
            journal.append([(&k2, &nasty())]).unwrap();
            let (_, back) = kind.open(&Checkpoint::resume(&path), FP).expect("resume");
            let want = vec![(k1.clone(), done(1.0 / 3.0, false)), (k2.clone(), nasty())];
            assert_eq!(back, want, "{kind:?}");

            // Without `resume` an existing journal is never clobbered; a
            // different configuration's fingerprint is refused by name.
            let err = kind.open(&Checkpoint::new(&path), FP).expect_err("exists");
            assert!(
                matches!(&err, CheckpointError::Exists(p) if *p == path),
                "{err}"
            );
            let err = kind
                .open(&Checkpoint::resume(&path), FP ^ 1)
                .expect_err("mismatch");
            assert!(
                matches!(err, CheckpointError::Mismatch { expected, found }
                    if expected == FP ^ 1 && found == FP),
                "{err}"
            );

            // Blank lines are skipped (and still counted).
            let good = format!("{k1},{}", encode_outcome(&done(2.5, false)));
            fs::write(&path, format!("{header}\n\n{good}\n\n")).unwrap();
            let (_, back) = kind
                .open(&Checkpoint::resume(&path), FP)
                .expect("blank lines");
            assert_eq!(back, vec![(k1.clone(), done(2.5, false))]);

            // Damage: the text, and the line `Corrupt` must name.
            let other = match kind {
                Kind::Sweep => Kind::Search,
                Kind::Search => Kind::Sweep,
            };
            let mut damage: Vec<(String, usize)> = vec![
                (String::new(), 1),
                ("garbage\n".to_owned(), 1),
                (format!("{}\n{good}\n", other.header()), 1),
                (
                    format!("{}\n", header.replace("000000000000abcd", "wxyz")),
                    1,
                ),
                (format!("{header},extra\n"), 1),
                (format!("{header}\n{k1}\n"), 2),
                (format!("{header}\n{k1},done,xyz\n"), 2),
                (format!("{header}\n{k1},done,xyz,4,0,3\n"), 2),
                (format!("{header}\n{k1},done,4004000000000000,4,0,-3\n"), 2),
                (format!("{header}\n{k1},failed,weird,message\n"), 2),
                (format!("{header}\n{k1},failed,panic,bad %zz escape\n"), 2),
                (format!("{header}\n{k1},skipped\n"), 2),
                // One key, two entries.
                (format!("{header}\n{good}\n{good}\n"), 3),
                // The spill flag is `0` or `1`, nothing else.
                (
                    format!("{header}\n{good}\n\n{k2},done,4004000000000000,4,banana,3\n"),
                    4,
                ),
                (format!("{header}\n{k1},done,4004000000000000,4,,3\n"), 2),
            ];
            for bad in kind.bad_keys() {
                damage.push((format!("{header}\n{bad},done,4004000000000000,4,0,3\n"), 2));
            }
            if kind == Kind::Sweep {
                // The header tail: a journal for a run of another size.
                let eleven = header.replace(",10", ",11");
                damage.push((format!("{eleven}\n{good}\n"), 1));
            }
            for (text, line) in damage {
                fs::write(&path, &text).unwrap();
                let err = kind
                    .open(&Checkpoint::resume(&path), FP)
                    .expect_err("damaged");
                assert!(
                    matches!(err, CheckpointError::Corrupt { line: l, .. } if l == line),
                    "{kind:?} on {text:?}: {err}"
                );
            }
            let _ = fs::remove_file(&path);
        }
    }

    /// The bytes on disk, captured from the two writers this module
    /// replaced (the commit before the journals were folded into one):
    /// a journal either of them wrote must resume here, and the other
    /// way round.
    #[test]
    fn the_bytes_on_disk_are_pinned() {
        const SWEEP: &str = "cfp-checkpoint,v1,000000000000abcd,10\n\
            3,done,4004000000000000,4,1,3\n\
            7,failed,panic,index 3%2c7 out of bounds%0a(100%25)\n";
        const SEARCH: &str = "cfp-search,v1,000000000000abcd\n\
            0000000000001234,0,done,4004000000000000,4,1,3\n\
            00000000feedf00d,2,failed,panic,index 3%2c7 out of bounds%0a(100%25)\n";
        for (kind, text) in [(Kind::Sweep, SWEEP), (Kind::Search, SEARCH)] {
            let path = kind.path("pin");
            let [k1, k2] = kind.keys();
            let want = vec![(k1.clone(), done(2.5, true)), (k2.clone(), nasty())];

            let (mut journal, _) = kind.open(&Checkpoint::new(&path), FP).expect("fresh");
            journal
                .append([(&k1, &done(2.5, true)), (&k2, &nasty())])
                .unwrap();
            assert_eq!(fs::read_to_string(&path).unwrap(), text, "{kind:?}");

            fs::write(&path, text).unwrap();
            let (_, back) = kind.open(&Checkpoint::resume(&path), FP).expect("resume");
            assert_eq!(back, want, "{kind:?}");
            fs::remove_file(&path).unwrap();

            // The temp sibling is `<journal>.tmp`: with a directory in
            // its place the write fails, typed, and no journal appears.
            let mut tmp = path.clone().into_os_string();
            tmp.push(".tmp");
            fs::create_dir(&tmp).unwrap();
            let err = kind.open(&Checkpoint::new(&path), FP).expect_err("no temp");
            assert!(
                matches!(&err, CheckpointError::Io { path: p, .. } if *p == path),
                "{err}"
            );
            assert!(!path.exists());
            fs::remove_dir(&tmp).unwrap();
        }
    }

    #[test]
    fn a_torn_last_entry_is_dropped_and_cut_off_before_the_next_append() {
        for kind in [Kind::Sweep, Kind::Search] {
            let path = kind.path("torn");
            let [k1, k2] = kind.keys();
            let whole = format!(
                "{}\n{k1},{}\n",
                kind.header(),
                encode_outcome(&done(2.5, true))
            );
            let line = format!("{k2},{}", encode_outcome(&nasty()));
            // Cut after one byte, mid-line, and with only the newline lost.
            for cut in [1, line.len() / 2, line.len()] {
                fs::write(&path, format!("{whole}{}", &line[..cut])).unwrap();
                let (mut journal, back) = kind
                    .open(&Checkpoint::resume(&path), FP)
                    .expect("a torn tail resumes");
                assert_eq!(back, vec![(k1.clone(), done(2.5, true))], "{kind:?} {cut}");
                journal.append([(&k2, &nasty())]).unwrap();
                assert_eq!(
                    fs::read_to_string(&path).unwrap(),
                    format!("{whole}{line}\n"),
                    "{kind:?} {cut}"
                );
            }
            // A header without its newline is no journal at all.
            fs::write(&path, kind.header()).unwrap();
            let err = kind
                .open(&Checkpoint::resume(&path), FP)
                .expect_err("torn header");
            assert!(
                matches!(err, CheckpointError::Corrupt { line: 1, .. }),
                "{err}"
            );
            fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn the_runner_replays_what_the_journal_holds_and_appends_the_rest() {
        let path = Kind::Sweep.path("runner");
        let held = |i: usize| (i % 3 == 0).then(|| done(i as f64, false));
        let first = sweep_journal(&Checkpoint::new(&path), FP, UNITS).unwrap();
        let mut journal = first.journal.unwrap().into_inner().unwrap();
        let earlier: Vec<(usize, EvalOutcome)> =
            (0..UNITS).filter_map(|i| Some((i, held(i)?))).collect();
        journal.append(earlier.iter().map(|(i, o)| (i, o))).unwrap();
        let ran = AtomicUsize::new(0);
        let evaluate = |i: usize| {
            ran.fetch_add(1, Ordering::SeqCst);
            done(i as f64 + 0.5, true)
        };
        let resumed = Arc::new(sweep_journal(&Checkpoint::resume(&path), FP, UNITS).unwrap());
        assert_eq!(resumed.resumed(), 4);
        let answers = Workers::scope(3, |workers| {
            resumed.run_journalled(workers, UNITS, |i| i, evaluate)
        })
        .expect("runs");
        let fresh = |i: usize| (done(i as f64 + 0.5, true), true);
        let want: Vec<(EvalOutcome, bool)> = (0..UNITS)
            .map(|i| held(i).map_or(fresh(i), |o| (o, false)))
            .collect();
        assert_eq!(answers, want);
        assert_eq!(ran.load(Ordering::SeqCst), 6, "replayed units are not run");
        // Exactly the evaluated units were appended, each once.
        let back = sweep_journal(&Checkpoint::resume(&path), FP, UNITS).expect("resume");
        let mut back: Vec<(usize, EvalOutcome)> = back.held.into_iter().collect();
        back.sort_by_key(|(i, _)| *i);
        let all: Vec<(usize, EvalOutcome)> = (0..UNITS)
            .map(|i| (i, held(i).unwrap_or(fresh(i).0)))
            .collect();
        assert_eq!(back, all);

        // Without a journal nothing asks for a key, and every unit runs.
        let plain = Workers::scope(2, |workers| {
            let no_key = |_| -> usize { unreachable!("no journal, no key") };
            Arc::new(Journalled::off()).run_journalled(workers, UNITS, no_key, evaluate)
        })
        .expect("runs");
        assert_eq!(plain, (0..UNITS).map(fresh).collect::<Vec<_>>());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_lost_journal_stops_the_runner_with_its_error() {
        for threads in [1, 2] {
            let path = Kind::Sweep.path("lost");
            let journal = sweep_journal(&Checkpoint::new(&path), FP, UNITS).unwrap();
            let lost = Arc::new(journal.refusing_writes().unwrap());
            let ran = AtomicUsize::new(0);
            let err = Workers::scope(threads, |workers| {
                let unit = |_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    done(1.0, false)
                };
                lost.run_journalled(workers, UNITS, |i| i, unit)
            })
            .expect_err("journal lost");
            assert!(
                matches!(&err, ExploreError::Checkpoint(CheckpointError::Io { path: p, .. }) if *p == path),
                "{err}"
            );
            // Every worker may have had a unit under way when the append
            // failed; none starts another after it.
            let ran = ran.load(Ordering::SeqCst);
            assert!(
                (1..=threads).contains(&ran),
                "{ran} units ran on without a journal ({threads} threads)"
            );
            fs::remove_file(&path).unwrap();
        }
    }
}
