//! Checkpoint/resume journaling for the exploration sweep.
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
//! Journal writes are crash-consistent: the whole journal is rewritten
//! to a sibling temp file and atomically renamed over the old one, so a
//! crash at any instant leaves either the previous journal or the new
//! one, never a torn line.
//!
//! The journal is keyed by a fingerprint of everything that determines
//! unit results (architectures, benchmarks, fuel budget, fault
//! injection — not thread counts or reuse, which cannot change results).
//! Resuming under a different configuration is refused rather than
//! silently mixing incompatible measurements.

use crate::error::{CheckpointError, FailKind, FailReason};
use crate::eval::{EvalOutcome, Measurement};
use crate::explore::ExploreConfig;
use cfp_machine::Fnv1a;
use std::fs;
use std::path::PathBuf;

/// First journal line: `cfp-checkpoint,v1,<fingerprint>,<units>`.
const MAGIC: &str = "cfp-checkpoint";
const VERSION: &str = "v1";

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
/// payload without the unit key, shared with the search engine's own
/// journal (which keys lines differently but stores outcomes the same
/// way). The measurement's `f64` is stored as its exact bit pattern so
/// resume is bit-identical.
pub(crate) fn encode_outcome(outcome: &EvalOutcome) -> String {
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
/// line key.
pub(crate) fn parse_outcome(
    fields: &[&str],
    lineno: usize,
) -> Result<EvalOutcome, CheckpointError> {
    let corrupt = |message: String| CheckpointError::Corrupt {
        line: lineno,
        message,
    };
    match (fields.first().copied(), fields.len()) {
        (Some("done"), 5) => {
            let bits = u64::from_str_radix(fields[1], 16)
                .map_err(|e| corrupt(format!("bad cycle bits `{}`: {e}", fields[1])))?;
            let num = |s: &str| -> Result<u32, CheckpointError> {
                s.parse()
                    .map_err(|e| corrupt(format!("bad number `{s}`: {e}")))
            };
            Ok(EvalOutcome::Done(Measurement {
                cycles_per_output: f64::from_bits(bits),
                unroll: num(fields[2])?,
                spilled: fields[3] == "1",
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

/// One journal line for a completed unit.
fn encode_entry(unit: usize, outcome: &EvalOutcome) -> String {
    format!("{unit},{}", encode_outcome(outcome))
}

fn parse_entry(line: &str, lineno: usize) -> Result<(usize, EvalOutcome), CheckpointError> {
    let corrupt = |message: String| CheckpointError::Corrupt {
        line: lineno,
        message,
    };
    let fields: Vec<&str> = line.split(',').collect();
    let unit: usize = fields[0]
        .parse()
        .map_err(|e| corrupt(format!("bad unit index `{}`: {e}", fields[0])))?;
    Ok((unit, parse_outcome(&fields[1..], lineno)?))
}

/// An open journal: the lines already on disk plus the machinery to
/// append more, one atomic rewrite per appended unit.
#[derive(Debug)]
pub(crate) struct Journal {
    path: PathBuf,
    lines: Vec<String>,
}

impl Journal {
    /// Append one completed unit and persist.
    pub(crate) fn append(&mut self, unit: usize, outcome: &EvalOutcome) -> CheckpointResult<()> {
        self.lines.push(encode_entry(unit, outcome));
        self.persist()
    }

    /// Write all lines to a temp sibling, then rename over the journal.
    fn persist(&self) -> CheckpointResult<()> {
        let io = |source: std::io::Error| CheckpointError::Io {
            path: self.path.clone(),
            source,
        };
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let mut text = self.lines.join("\n");
        text.push('\n');
        fs::write(&tmp, text).map_err(io)?;
        fs::rename(&tmp, &self.path).map_err(io)
    }
}

type CheckpointResult<T> = Result<T, CheckpointError>;

/// Open the journal described by `ck` for a run with this `fingerprint`
/// and `units` work units. Returns the journal plus the outcomes already
/// recorded (empty unless resuming an existing file).
pub(crate) fn attach(
    ck: &Checkpoint,
    fingerprint: u64,
    units: usize,
) -> CheckpointResult<(Journal, Vec<(usize, EvalOutcome)>)> {
    let header = format!("{MAGIC},{VERSION},{fingerprint:016x},{units}");
    if !ck.path.exists() {
        let journal = Journal {
            path: ck.path.clone(),
            lines: vec![header],
        };
        journal.persist()?;
        return Ok((journal, Vec::new()));
    }
    if !ck.resume {
        return Err(CheckpointError::Exists(ck.path.clone()));
    }
    let text = fs::read_to_string(&ck.path).map_err(|source| CheckpointError::Io {
        path: ck.path.clone(),
        source,
    })?;
    let entries = parse(&text, fingerprint, units)?;
    let journal = Journal {
        path: ck.path.clone(),
        lines: text.lines().map(str::to_owned).collect(),
    };
    Ok((journal, entries))
}

fn parse(
    text: &str,
    expected_fp: u64,
    units: usize,
) -> CheckpointResult<Vec<(usize, EvalOutcome)>> {
    let corrupt = |line: usize, message: String| CheckpointError::Corrupt { line, message };
    let mut lines = text.lines().enumerate();
    let Some((_, header)) = lines.next() else {
        return Err(corrupt(1, "empty journal".to_owned()));
    };
    let h: Vec<&str> = header.split(',').collect();
    if h.len() != 4 || h[0] != MAGIC || h[1] != VERSION {
        return Err(corrupt(1, format!("bad header `{header}`")));
    }
    let found = u64::from_str_radix(h[2], 16)
        .map_err(|e| corrupt(1, format!("bad fingerprint `{}`: {e}", h[2])))?;
    if found != expected_fp {
        return Err(CheckpointError::Mismatch {
            expected: expected_fp,
            found,
        });
    }
    let recorded_units: usize = h[3]
        .parse()
        .map_err(|e| corrupt(1, format!("bad unit count `{}`: {e}", h[3])))?;
    if recorded_units != units {
        return Err(corrupt(
            1,
            format!("journal is for {recorded_units} units, this run has {units}"),
        ));
    }

    let mut seen = vec![false; units];
    let mut entries = Vec::new();
    for (idx, line) in lines {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let (unit, outcome) = parse_entry(line, lineno)?;
        if unit >= units {
            return Err(corrupt(
                lineno,
                format!("unit {unit} out of range (run has {units})"),
            ));
        }
        if seen[unit] {
            return Err(corrupt(lineno, format!("unit {unit} recorded twice")));
        }
        seen[unit] = true;
        entries.push((unit, outcome));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(cpo: f64) -> EvalOutcome {
        EvalOutcome::Done(Measurement {
            cycles_per_output: cpo,
            unroll: 4,
            spilled: false,
            compilations: 3,
        })
    }

    #[test]
    fn entries_round_trip_bit_exactly() {
        // A value with no finite decimal representation, plus edge bits.
        for cpo in [0.1 + 0.2, f64::MIN_POSITIVE, 1.0 / 3.0, 12345.678] {
            let line = encode_entry(9, &done(cpo));
            let (unit, back) = parse_entry(&line, 2).expect("parses");
            assert_eq!(unit, 9);
            let m = back.measurement().expect("done");
            assert_eq!(m.cycles_per_output.to_bits(), cpo.to_bits());
            assert_eq!((m.unroll, m.spilled, m.compilations), (4, false, 3));
        }
    }

    #[test]
    fn failed_entries_keep_their_messy_messages() {
        let nasty = "panic: index 3,7 out of bounds\n(100%: a,b,c)";
        let out = EvalOutcome::Failed {
            reason: FailReason {
                kind: FailKind::Panic,
                message: nasty.to_owned(),
            },
        };
        let line = encode_entry(0, &out);
        assert!(!line.contains('\n'), "journal lines stay single lines");
        let (_, back) = parse_entry(&line, 2).expect("parses");
        assert_eq!(back, out);
    }

    #[test]
    fn escape_round_trips_and_rejects_garbage() {
        for s in ["plain", "a,b", "100%", "x\ny\r", "%2c literal"] {
            assert_eq!(unescape(&escape(s)).as_deref(), Some(s));
        }
        assert_eq!(unescape("bad %zz escape"), None);
    }

    #[test]
    fn parse_rejects_wrong_runs_and_corruption() {
        let fp = 0xabcd_u64;
        let header = format!("{MAGIC},{VERSION},{fp:016x},10");
        let good = format!("{header}\n{}\n", encode_entry(3, &done(2.5)));
        assert_eq!(parse(&good, fp, 10).expect("parses").len(), 1);
        // Wrong fingerprint.
        assert!(matches!(
            parse(&good, fp + 1, 10),
            Err(CheckpointError::Mismatch { .. })
        ));
        // Wrong unit count.
        assert!(parse(&good, fp, 11).is_err());
        // Out-of-range and duplicate units.
        let bad = format!("{header}\n{}\n", encode_entry(10, &done(2.5)));
        assert!(parse(&bad, fp, 10).is_err());
        let dup = format!(
            "{header}\n{}\n{}\n",
            encode_entry(3, &done(2.5)),
            encode_entry(3, &done(2.5))
        );
        assert!(parse(&dup, fp, 10).is_err());
        // Truncated entry line.
        assert!(parse(&format!("{header}\n3,done,xyz\n"), fp, 10).is_err());
        assert!(parse("", fp, 10).is_err());
    }
}
