//! Persistence: save a completed exploration as CSV and load it back.
//!
//! The full 192-point experiment takes minutes; the selection tables,
//! frontiers, and studies are instant. Persisting the exploration lets
//! the analysis layers (and external plotting) re-run without
//! recompiling anything — the same role the paper's collected
//! measurement logs played. The format is a plain CSV, one row per
//! `(architecture, benchmark)`, self-describing and diff-friendly.
//!
//! Quarantined units survive the round trip: a failed unit's row carries
//! `failed:<kind>:<escaped message>` in the `cycles_per_output` column
//! (zeros elsewhere), so a degraded run's CSV is honest about exactly
//! which pairs have no measurement and why.

use crate::checkpoint::{escape, unescape};
use crate::error::{FailKind, FailReason};
use crate::eval::{EvalOutcome, Measurement};
use crate::explore::{ArchEval, Exploration, RunStats};
use cfp_kernels::Benchmark;
use cfp_machine::ArchSpec;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Header of the exploration CSV.
pub const HEADER: &str =
    "arch,bench,cost,derate,cycles_per_output,unroll,spilled,compilations,is_baseline";

/// A malformed exploration CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

/// Serialize an exploration (lossless for everything the analysis layers
/// read; run statistics are reduced to the compilation count).
#[must_use]
pub fn to_csv(ex: &Exploration) -> String {
    let mut out = String::from(HEADER);
    out.push('\n');
    let row = |arch: &ArchEval, is_baseline: bool, out: &mut String| {
        for (b, o) in ex.benches.iter().zip(&arch.outcomes) {
            let (cycles, unroll, spilled, compilations) = match o {
                EvalOutcome::Done(m) => (
                    m.cycles_per_output.to_string(),
                    m.unroll,
                    u8::from(m.spilled),
                    m.compilations,
                ),
                EvalOutcome::Failed { reason } => (
                    format!("failed:{}:{}", reason.kind.token(), escape(&reason.message)),
                    0,
                    0,
                    0,
                ),
            };
            out.push_str(&format!(
                "{},{},{},{},{cycles},{unroll},{spilled},{compilations},{}\n",
                arch.spec.to_string().replace(' ', "/"),
                b,
                arch.cost,
                arch.derate,
                u8::from(is_baseline),
            ));
        }
    };
    row(&ex.baseline, true, &mut out);
    for a in &ex.archs {
        row(a, false, &mut out);
    }
    out
}

/// Parse an exploration back from [`to_csv`] output.
///
/// # Errors
/// Returns a [`ParseError`] naming the first malformed line.
pub fn from_csv(text: &str) -> Result<Exploration, ParseError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h.trim() == HEADER => {}
        other => {
            return Err(ParseError {
                line: 1,
                message: format!("bad header: {other:?}"),
            })
        }
    }

    let mut benches: Vec<Benchmark> = Vec::new();
    // Keyed by (is_baseline, spec) preserving first-seen order via index.
    let mut order: Vec<(bool, ArchSpec)> = Vec::new();
    let mut rows: BTreeMap<(bool, ArchSpec), (f64, f64, Vec<EvalOutcome>)> = BTreeMap::new();

    for (idx, line) in lines {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let err = |message: String| ParseError {
            line: lineno,
            message,
        };
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != 9 {
            return Err(err(format!("expected 9 fields, got {}", f.len())));
        }
        let spec = ArchSpec::parse(&f[0].replace('/', " ")).map_err(&err)?;
        let bench = Benchmark::ALL
            .into_iter()
            .find(|b| b.letter() == f[1])
            .ok_or_else(|| err(format!("unknown benchmark `{}`", f[1])))?;
        let num = |s: &str| -> Result<f64, ParseError> {
            s.parse().map_err(|e| err(format!("bad number `{s}`: {e}")))
        };
        let int = |s: &str| -> Result<u32, ParseError> {
            s.parse().map_err(|e| err(format!("bad count `{s}`: {e}")))
        };
        let cost = num(f[2])?;
        let derate = num(f[3])?;
        let outcome = if let Some(rest) = f[4].strip_prefix("failed:") {
            let (token, message) = rest
                .split_once(':')
                .ok_or_else(|| err(format!("bad failure field `{}`", f[4])))?;
            let kind = FailKind::from_token(token)
                .ok_or_else(|| err(format!("unknown failure kind `{token}`")))?;
            let message =
                unescape(message).ok_or_else(|| err("bad escape in failure message".to_owned()))?;
            EvalOutcome::Failed {
                reason: FailReason { kind, message },
            }
        } else {
            EvalOutcome::Done(Measurement {
                cycles_per_output: num(f[4])?,
                unroll: int(f[5])?,
                spilled: f[6] == "1",
                compilations: int(f[7])?,
            })
        };
        let is_baseline = f[8] == "1";

        if !benches.contains(&bench) {
            benches.push(bench);
        }
        let key = (is_baseline, spec);
        if !rows.contains_key(&key) {
            order.push(key);
        }
        rows.entry(key)
            .or_insert_with(|| (cost, derate, Vec::new()))
            .2
            .push(outcome);
    }

    let mut baseline: Option<ArchEval> = None;
    let mut archs = Vec::new();
    for key in order {
        // Every key in `order` was inserted into `rows` above, so a miss
        // cannot happen; skipping (rather than unwrapping) keeps the
        // parser total.
        let Some((cost, derate, outcomes)) = rows.remove(&key) else {
            continue;
        };
        if outcomes.len() != benches.len() {
            return Err(ParseError {
                line: 0,
                message: format!(
                    "architecture {} has {} outcomes for {} benchmarks",
                    key.1,
                    outcomes.len(),
                    benches.len()
                ),
            });
        }
        let eval = ArchEval {
            spec: key.1,
            cost,
            derate,
            outcomes,
        };
        if key.0 {
            baseline = Some(eval);
        } else {
            archs.push(eval);
        }
    }
    let baseline = baseline.ok_or(ParseError {
        line: 0,
        message: "no baseline row".to_owned(),
    })?;
    Ok(Exploration {
        benches,
        // Timings and cache accounting are run-time facts the CSV
        // deliberately does not persist.
        stats: RunStats::counted(&archs, &baseline),
        archs,
        baseline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::ExploreConfig;

    fn small() -> Exploration {
        let mut cfg = ExploreConfig::smoke();
        cfg.archs.truncate(4);
        cfg.benches = vec![Benchmark::D, Benchmark::G];
        Exploration::run(&cfg)
    }

    #[test]
    fn round_trip_preserves_the_analysis_view() {
        let ex = small();
        let csv = to_csv(&ex);
        let back = from_csv(&csv).expect("parses");
        assert_eq!(back.benches, ex.benches);
        assert_eq!(back.archs.len(), ex.archs.len());
        for a in 0..ex.archs.len() {
            assert_eq!(back.archs[a].spec, ex.archs[a].spec);
            for b in 0..ex.benches.len() {
                assert_eq!(back.speedup(a, b), ex.speedup(a, b), "({a},{b})");
            }
        }
        // Analysis layers agree end to end.
        let s1 = crate::select::select(&ex, 0, 10.0, crate::select::Range::Fraction(0.1));
        let s2 = crate::select::select(&back, 0, 10.0, crate::select::Range::Fraction(0.1));
        assert_eq!(s1.map(|s| s.spec), s2.map(|s| s.spec));
    }

    #[test]
    fn failed_units_round_trip_with_their_reasons() {
        let mut ex = small();
        ex.archs[1].outcomes[0] = EvalOutcome::Failed {
            reason: FailReason {
                kind: FailKind::Panic,
                message: "index 3,7 out of bounds\nat eval".to_owned(),
            },
        };
        ex.archs[2].outcomes[1] = EvalOutcome::Failed {
            reason: FailReason {
                kind: FailKind::FuelExhausted,
                message: "fuel budget 100 exhausted".to_owned(),
            },
        };
        let csv = to_csv(&ex);
        assert!(!csv.contains('\r'), "messages are escaped into one line");
        let back = from_csv(&csv).expect("parses");
        assert_eq!(back.archs[1].outcomes[0], ex.archs[1].outcomes[0]);
        assert_eq!(back.archs[2].outcomes[1], ex.archs[2].outcomes[1]);
        assert_eq!(back.stats.failed_units, 2);
        assert_eq!(back.stats.fuel_exhausted, 1);
        // The failed pairs stay visibly unmeasured after the round trip.
        assert!(back.speedup(1, 0).is_nan());
        assert!(back.speedup(2, 1).is_nan());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_csv("").is_err());
        assert!(from_csv("not,the,header\n").is_err());
        let ex = small();
        let csv = to_csv(&ex);
        // Chop a field off some row; a line with no comma at all is left
        // as-is (and the parser rejects its field count anyway).
        let broken: String = csv
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i == 2 {
                    l.rsplit_once(',')
                        .map_or_else(String::new, |(a, _)| a.to_owned())
                } else {
                    l.to_owned()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let err = from_csv(&broken).expect_err("malformed");
        assert_eq!(err.line, 3, "error names the broken line");
        // Garbage failure fields are named, not panicked over.
        let mut lines: Vec<String> = csv.lines().map(str::to_owned).collect();
        let f: Vec<&str> = lines[1].split(',').collect();
        lines[1] = format!(
            "{},{},{},{},failed:weird:msg,0,0,0,{}",
            f[0], f[1], f[2], f[3], f[8]
        );
        let err = from_csv(&lines.join("\n")).expect_err("unknown kind");
        assert!(err.message.contains("weird"), "{err}");
    }

    #[test]
    fn csv_is_plain_and_headed() {
        let csv = to_csv(&small());
        assert!(csv.starts_with(HEADER));
        assert!(!csv.contains(' '), "specs use `/` separators in CSV");
    }
}
