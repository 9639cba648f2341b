//! The service's wire protocol: line-delimited JSON requests, typed
//! rejections that name the offending field *and* byte offset, and the
//! canonical job form the daemon journals for crash recovery.
//!
//! Every request is one JSON object on one line. Parsing is strict —
//! unknown job fields, wrong types, unknown benchmarks, malformed
//! architecture specs are all rejected with a [`RequestError`] that
//! points into the request line (the protocol analogue of the
//! line-numbered CSV errors in `cfp_dse::io`), so a client can fix its
//! request without guessing. Rejections themselves round-trip through
//! JSON ([`RequestError::to_json`] / [`RequestError::from_json`]): what
//! the daemon sends back is exactly what the client libraries (and the
//! protocol tests) can reconstruct.
//!
//! [`JobSpec::submit_line`] renders a job back to a *canonical* submit
//! request with every default baked in and every preset expanded to
//! explicit architecture specs. That line is what the daemon writes to
//! its job journal at admission, which makes restart recovery
//! self-contained: re-parsing the journal re-creates the job bit for
//! bit, with no dependency on the defaults or presets of the daemon
//! version that accepted it.

use crate::json::{self, Json};
use cfp_kernels::Benchmark;
use cfp_machine::{ArchSpec, DesignSpace, SpaceAxes};
use cfp_testkit::FaultInjector;
use std::fmt;

/// Longest accepted request line, in bytes. A line beyond this is
/// rejected before parsing — admission control for memory, not just for
/// the queue.
pub const MAX_LINE: usize = 1 << 20;

/// Ceiling on a job's worker threads (the daemon runs many jobs; one
/// job monopolizing the host is an admission failure, not a tuning
/// knob).
pub const MAX_JOB_THREADS: u64 = 16;

/// Ceiling on a search job's rounds (admission control: bracket depth
/// bounds wall clock the way the arch list bounds an explore job).
pub const MAX_SEARCH_ROUNDS: u64 = 256;

/// Ceiling on a search job's per-round candidate pool.
pub const MAX_ROUND_SIZE: u64 = 4096;

/// One parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Submit a job for execution.
    Submit(Box<JobSpec>),
    /// One-shot state of a job.
    Status {
        /// The job id.
        id: String,
    },
    /// The terminal result of a job; with `wait`, blocks until the job
    /// reaches one.
    Result {
        /// The job id.
        id: String,
        /// Block until the job is terminal (default true).
        wait: bool,
    },
    /// Stream progress events until the job is terminal.
    Watch {
        /// The job id.
        id: String,
    },
    /// Daemon-level counters.
    Stats,
    /// Graceful shutdown.
    Shutdown,
}

/// How a job wants faults injected, for robustness tests. Mirrors
/// [`cfp_testkit::FaultInjector`]; connection-level drops are a client
/// affair and deliberately not spellable here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// What happens on a tripped unit: a panic (quarantined) or a
    /// wall-clock stall of `millis` (what the deadline watchdog is
    /// for).
    pub stall_millis: Option<u64>,
    /// Injector seed.
    pub seed: u64,
    /// Roughly one in this many units trips.
    pub denominator: u64,
}

impl FaultSpec {
    /// The injector this spec describes.
    #[must_use]
    pub fn injector(&self) -> FaultInjector {
        match self.stall_millis {
            Some(ms) => FaultInjector::stalling(self.seed, self.denominator, ms),
            None => FaultInjector::one_in(self.seed, self.denominator),
        }
    }
}

/// What kind of work a job is: an exhaustive sweep over an explicit
/// architecture list, or a guided search over a symbolic design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobKind {
    /// Exhaustive sweep (`cfp_dse::Exploration`) — the default, and the
    /// only kind until the guided engine existed, so it never appears
    /// in a canonical submit line.
    #[default]
    Explore,
    /// Guided search (`cfp_dse::try_search_shared`): the space stays a
    /// [`SpaceName`] end to end, never a materialized arch list — a
    /// combinatorial space would not even fit in [`MAX_LINE`].
    Search,
}

/// A named design space for search jobs. Unlike explore presets these
/// are *not* expanded to explicit specs at parse time: the whole point
/// of the guided engine is that the space is sampled lazily.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceName {
    /// The paper's 8-point base grid.
    Paper,
    /// The extended grid (384 base points).
    Extended,
    /// The combinatorial grid (≥10^5 arrangements).
    Combinatorial,
}

impl SpaceName {
    /// Wire token, also what [`JobSpec::submit_line`] emits.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            SpaceName::Paper => "paper",
            SpaceName::Extended => "extended",
            SpaceName::Combinatorial => "combinatorial",
        }
    }

    /// The axes this name denotes.
    #[must_use]
    pub fn axes(self) -> SpaceAxes {
        match self {
            SpaceName::Paper => SpaceAxes::paper(),
            SpaceName::Extended => SpaceAxes::extended(),
            SpaceName::Combinatorial => SpaceAxes::combinatorial(),
        }
    }
}

/// One fully-resolved exploration job: what to run and under which
/// budgets. Presets and defaults are resolved at parse time, so two
/// equal `JobSpec`s mean the same work regardless of which daemon
/// version admitted them.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Sweep or guided search.
    pub kind: JobKind,
    /// Benchmarks to evaluate (exactly one for search jobs).
    pub benches: Vec<Benchmark>,
    /// Candidate architectures (explore jobs; empty for search jobs).
    pub archs: Vec<ArchSpec>,
    /// The symbolic design space (search jobs only).
    pub space: Option<SpaceName>,
    /// The search's cost bound — the frontier is built under it
    /// (search jobs only; explore jobs filter with `max_cost`).
    pub cost_bound: Option<f64>,
    /// Search seed (proposal sampling; the frontier is deterministic in
    /// it).
    pub seed: u64,
    /// Search rounds override (`None` = engine default).
    pub rounds: Option<u64>,
    /// Search per-round pool override (`None` = engine default).
    pub round_size: Option<u64>,
    /// Per-compilation deterministic step budget.
    pub fuel: Option<u64>,
    /// Wall-clock deadline per attempt, milliseconds. `None` uses the
    /// daemon's default.
    pub deadline_ms: Option<u64>,
    /// Worker threads inside this job's sweep.
    pub threads: usize,
    /// Drop candidate architectures whose datapath cost exceeds this
    /// (the job's cost budget), before the sweep.
    pub max_cost: Option<f64>,
    /// Deterministic fault injection, tests only.
    pub fault: Option<FaultSpec>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            kind: JobKind::Explore,
            benches: Vec::new(),
            archs: Vec::new(),
            space: None,
            cost_bound: None,
            seed: 0,
            rounds: None,
            round_size: None,
            fuel: None,
            deadline_ms: None,
            threads: 1,
            max_cost: None,
            fault: None,
        }
    }
}

impl JobSpec {
    /// The canonical submit line for this job (see the module docs).
    #[must_use]
    pub fn submit_line(&self) -> String {
        let mut out = String::from(r#"{"op":"submit","job":{"benches":["#);
        for (i, b) in self.benches.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, b.letter());
        }
        out.push(']');
        match self.kind {
            JobKind::Explore => {
                out.push_str(r#","archs":["#);
                for (i, a) in self.archs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json::write_str(&mut out, &a.to_string());
                }
                out.push(']');
            }
            JobKind::Search => {
                out.push_str(r#","kind":"search","space":"#);
                let space = self.space.unwrap_or(SpaceName::Extended);
                json::write_str(&mut out, space.token());
                if let Some(c) = self.cost_bound {
                    out.push_str(&format!(r#","cost_bound":{c}"#));
                }
                out.push_str(&format!(r#","seed":{}"#, self.seed));
                if let Some(r) = self.rounds {
                    out.push_str(&format!(r#","rounds":{r}"#));
                }
                if let Some(r) = self.round_size {
                    out.push_str(&format!(r#","round_size":{r}"#));
                }
            }
        }
        if let Some(fuel) = self.fuel {
            out.push_str(&format!(r#","fuel":{fuel}"#));
        }
        if let Some(ms) = self.deadline_ms {
            out.push_str(&format!(r#","deadline_ms":{ms}"#));
        }
        out.push_str(&format!(r#","threads":{}"#, self.threads));
        if let Some(c) = self.max_cost {
            out.push_str(&format!(r#","max_cost":{c}"#));
        }
        if let Some(f) = &self.fault {
            out.push_str(&format!(
                r#","fault":{{"seed":{},"denominator":{}"#,
                f.seed, f.denominator
            ));
            match f.stall_millis {
                Some(ms) => out.push_str(&format!(r#","kind":"stall","millis":{ms}}}"#)),
                None => out.push_str(r#","kind":"panic"}"#),
            }
        }
        out.push_str("}}");
        out
    }
}

/// Why a request line was rejected. Every variant names the byte offset
/// in the request line it is about; field-level variants name the field
/// too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The line exceeds [`MAX_LINE`].
    TooLong {
        /// Received length in bytes.
        length: usize,
        /// The limit it exceeded.
        limit: usize,
    },
    /// The line is not valid JSON.
    Syntax {
        /// Byte offset of the first bad character.
        offset: usize,
        /// What the parser expected.
        message: String,
    },
    /// The line parses but is not a JSON object.
    NotAnObject {
        /// Byte offset of the value.
        offset: usize,
        /// What it was instead.
        found: String,
    },
    /// The `op` is not one the daemon knows.
    UnknownOp {
        /// Byte offset of the op value.
        offset: usize,
        /// The unknown op.
        op: String,
    },
    /// A required field is absent.
    MissingField {
        /// Byte offset of the object the field is missing from.
        offset: usize,
        /// Dotted path of the missing field.
        field: String,
    },
    /// A field is present but unusable: wrong type, unknown value,
    /// out-of-range number, unknown benchmark letter, malformed
    /// architecture spec, or a field the protocol does not define.
    BadField {
        /// Byte offset of the offending value (or key, for unknown
        /// fields).
        offset: usize,
        /// Dotted path of the field.
        field: String,
        /// What is wrong with it.
        message: String,
    },
}

impl RequestError {
    /// Stable kind token, the wire discriminant.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            RequestError::TooLong { .. } => "too_long",
            RequestError::Syntax { .. } => "syntax",
            RequestError::NotAnObject { .. } => "not_an_object",
            RequestError::UnknownOp { .. } => "unknown_op",
            RequestError::MissingField { .. } => "missing_field",
            RequestError::BadField { .. } => "bad_field",
        }
    }

    /// The rejection as a one-line JSON response.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            r#"{{"ok":false,"error":"bad_request","kind":"{}""#,
            self.kind()
        );
        match self {
            RequestError::TooLong { length, limit } => {
                out.push_str(&format!(r#","length":{length},"limit":{limit}"#));
            }
            RequestError::Syntax { offset, message } => {
                out.push_str(&format!(r#","offset":{offset},"message":"#));
                json::write_str(&mut out, message);
            }
            RequestError::NotAnObject { offset, found } => {
                out.push_str(&format!(r#","offset":{offset},"found":"#));
                json::write_str(&mut out, found);
            }
            RequestError::UnknownOp { offset, op } => {
                out.push_str(&format!(r#","offset":{offset},"op":"#));
                json::write_str(&mut out, op);
            }
            RequestError::MissingField { offset, field } => {
                out.push_str(&format!(r#","offset":{offset},"field":"#));
                json::write_str(&mut out, field);
            }
            RequestError::BadField {
                offset,
                field,
                message,
            } => {
                out.push_str(&format!(r#","offset":{offset},"field":"#));
                json::write_str(&mut out, field);
                out.push_str(r#","message":"#);
                json::write_str(&mut out, message);
            }
        }
        out.push('}');
        out
    }

    /// Reconstruct a rejection from its [`Self::to_json`] form. `None`
    /// if the value is not a rejection response.
    #[must_use]
    pub fn from_json(v: &Json) -> Option<Self> {
        if v.get("error")?.as_str()? != "bad_request" {
            return None;
        }
        let offset = || v.get("offset")?.as_u64().map(|o| o as usize);
        let text = |key: &str| v.get(key)?.as_str().map(str::to_owned);
        match v.get("kind")?.as_str()? {
            "too_long" => Some(RequestError::TooLong {
                length: v.get("length")?.as_u64()? as usize,
                limit: v.get("limit")?.as_u64()? as usize,
            }),
            "syntax" => Some(RequestError::Syntax {
                offset: offset()?,
                message: text("message")?,
            }),
            "not_an_object" => Some(RequestError::NotAnObject {
                offset: offset()?,
                found: text("found")?,
            }),
            "unknown_op" => Some(RequestError::UnknownOp {
                offset: offset()?,
                op: text("op")?,
            }),
            "missing_field" => Some(RequestError::MissingField {
                offset: offset()?,
                field: text("field")?,
            }),
            "bad_field" => Some(RequestError::BadField {
                offset: offset()?,
                field: text("field")?,
                message: text("message")?,
            }),
            _ => None,
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::TooLong { length, limit } => {
                write!(
                    f,
                    "request of {length} bytes exceeds the {limit}-byte limit"
                )
            }
            RequestError::Syntax { offset, message } => {
                write!(f, "byte {offset}: {message}")
            }
            RequestError::NotAnObject { offset, found } => {
                write!(f, "byte {offset}: expected an object, found {found}")
            }
            RequestError::UnknownOp { offset, op } => {
                write!(f, "byte {offset}: unknown op '{op}'")
            }
            RequestError::MissingField { offset, field } => {
                write!(f, "byte {offset}: missing required field '{field}'")
            }
            RequestError::BadField {
                offset,
                field,
                message,
            } => write!(f, "byte {offset}: field '{field}': {message}"),
        }
    }
}

impl std::error::Error for RequestError {}

fn bad(offset: usize, field: impl Into<String>, message: impl Into<String>) -> RequestError {
    RequestError::BadField {
        offset,
        field: field.into(),
        message: message.into(),
    }
}

fn bench_from_letter(s: &str) -> Option<Benchmark> {
    Benchmark::ALL.into_iter().find(|b| b.letter() == s)
}

fn req_str(obj: &Json, field: &str) -> Result<String, RequestError> {
    match obj.get(field) {
        None => Err(RequestError::MissingField {
            offset: obj.offset,
            field: field.to_string(),
        }),
        Some(v) => v.as_str().map(str::to_owned).ok_or_else(|| {
            bad(
                v.offset,
                field,
                format!("expected a string, found {}", v.type_name()),
            )
        }),
    }
}

fn opt_u64(obj: &Json, field: &str, path: &str) -> Result<Option<u64>, RequestError> {
    match obj.get(field) {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            bad(
                v.offset,
                path,
                format!("expected a non-negative integer, found {}", v.type_name()),
            )
        }),
    }
}

/// Parse one request line.
///
/// # Errors
/// A [`RequestError`] naming the first problem, its field, and its byte
/// offset.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    if line.len() > MAX_LINE {
        return Err(RequestError::TooLong {
            length: line.len(),
            limit: MAX_LINE,
        });
    }
    let root = json::parse(line).map_err(|e| RequestError::Syntax {
        offset: e.offset,
        message: e.message,
    })?;
    if root.as_obj().is_none() {
        return Err(RequestError::NotAnObject {
            offset: root.offset,
            found: root.type_name().to_string(),
        });
    }
    let op_value = root.get("op").ok_or(RequestError::MissingField {
        offset: root.offset,
        field: "op".to_string(),
    })?;
    let op = op_value.as_str().ok_or_else(|| {
        bad(
            op_value.offset,
            "op",
            format!("expected a string, found {}", op_value.type_name()),
        )
    })?;
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "status" => Ok(Request::Status {
            id: req_str(&root, "id")?,
        }),
        "watch" => Ok(Request::Watch {
            id: req_str(&root, "id")?,
        }),
        "result" => {
            let wait = match root.get("wait") {
                None => true,
                Some(v) => v.as_bool().ok_or_else(|| {
                    bad(
                        v.offset,
                        "wait",
                        format!("expected a boolean, found {}", v.type_name()),
                    )
                })?,
            };
            Ok(Request::Result {
                id: req_str(&root, "id")?,
                wait,
            })
        }
        "submit" => {
            let job = root.get("job").ok_or(RequestError::MissingField {
                offset: root.offset,
                field: "job".to_string(),
            })?;
            if job.as_obj().is_none() {
                return Err(bad(
                    job.offset,
                    "job",
                    format!("expected an object, found {}", job.type_name()),
                ));
            }
            Ok(Request::Submit(Box::new(parse_job(job)?)))
        }
        other => Err(RequestError::UnknownOp {
            offset: op_value.offset,
            op: other.to_string(),
        }),
    }
}

fn parse_job(job: &Json) -> Result<JobSpec, RequestError> {
    const KNOWN: [&str; 15] = [
        "kind",
        "benches",
        "archs",
        "preset",
        "space",
        "cost_bound",
        "seed",
        "rounds",
        "round_size",
        "fuel",
        "deadline_ms",
        "threads",
        "reuse",
        "max_cost",
        "fault",
    ];
    // Strictness first: an unknown field is more likely a typo'd budget
    // than an extension, and a budget silently ignored is the worst
    // failure mode a budgeted service can have.
    for (key, key_offset, _) in job.as_obj().unwrap_or(&[]) {
        if !KNOWN.contains(&key.as_str()) {
            return Err(bad(
                *key_offset,
                format!("job.{key}"),
                "unknown field".to_string(),
            ));
        }
    }

    let kind = match job.get("kind") {
        None => JobKind::Explore,
        Some(v) => {
            let token = v.as_str().ok_or_else(|| {
                bad(
                    v.offset,
                    "job.kind",
                    format!("expected a string, found {}", v.type_name()),
                )
            })?;
            match token {
                "explore" => JobKind::Explore,
                "search" => JobKind::Search,
                other => {
                    return Err(bad(
                        v.offset,
                        "job.kind",
                        format!("unknown job kind '{other}' (know explore, search)"),
                    ))
                }
            }
        }
    };

    let benches_value = job.get("benches").ok_or(RequestError::MissingField {
        offset: job.offset,
        field: "job.benches".to_string(),
    })?;
    let bench_items = benches_value.as_arr().ok_or_else(|| {
        bad(
            benches_value.offset,
            "job.benches",
            format!("expected an array, found {}", benches_value.type_name()),
        )
    })?;
    if bench_items.is_empty() {
        return Err(bad(
            benches_value.offset,
            "job.benches",
            "at least one benchmark is required",
        ));
    }
    let mut benches = Vec::with_capacity(bench_items.len());
    for item in bench_items {
        let letter = item.as_str().ok_or_else(|| {
            bad(
                item.offset,
                "job.benches",
                format!("expected a benchmark letter, found {}", item.type_name()),
            )
        })?;
        let b = bench_from_letter(letter).ok_or_else(|| {
            bad(
                item.offset,
                "job.benches",
                format!("unknown benchmark '{letter}' (know A C D E F G H GF GEF DH DHEF)"),
            )
        })?;
        benches.push(b);
    }

    let (archs, space, cost_bound, seed, rounds, round_size) = match kind {
        JobKind::Explore => {
            // Strict in both directions: a search knob on a sweep job is
            // as much a lost budget as a typo'd field name.
            for field in ["space", "cost_bound", "seed", "rounds", "round_size"] {
                if let Some(v) = job.get(field) {
                    return Err(bad(
                        v.offset,
                        format!("job.{field}"),
                        "only applies to search jobs",
                    ));
                }
            }
            (parse_space(job)?, None, None, 0, None, None)
        }
        JobKind::Search => {
            for field in ["archs", "preset"] {
                if let Some(v) = job.get(field) {
                    return Err(bad(
                        v.offset,
                        format!("job.{field}"),
                        "search jobs name their space with 'space', not an arch list",
                    ));
                }
            }
            if let Some(v) = job.get("max_cost") {
                return Err(bad(
                    v.offset,
                    "job.max_cost",
                    "search jobs bound cost with 'cost_bound'",
                ));
            }
            if let Some(v) = job.get("fault") {
                return Err(bad(
                    v.offset,
                    "job.fault",
                    "fault injection only applies to explore jobs",
                ));
            }
            if benches.len() != 1 {
                return Err(bad(
                    benches_value.offset,
                    "job.benches",
                    "search jobs take exactly one benchmark",
                ));
            }
            let space_value = job.get("space").ok_or(RequestError::MissingField {
                offset: job.offset,
                field: "job.space".to_string(),
            })?;
            let name = space_value.as_str().ok_or_else(|| {
                bad(
                    space_value.offset,
                    "job.space",
                    format!("expected a string, found {}", space_value.type_name()),
                )
            })?;
            let space = match name {
                "paper" => SpaceName::Paper,
                "extended" => SpaceName::Extended,
                "combinatorial" => SpaceName::Combinatorial,
                other => {
                    return Err(bad(
                        space_value.offset,
                        "job.space",
                        format!("unknown space '{other}' (know paper, extended, combinatorial)"),
                    ))
                }
            };
            let bound_value = job.get("cost_bound").ok_or(RequestError::MissingField {
                offset: job.offset,
                field: "job.cost_bound".to_string(),
            })?;
            let bound = bound_value.as_f64().ok_or_else(|| {
                bad(
                    bound_value.offset,
                    "job.cost_bound",
                    format!("expected a number, found {}", bound_value.type_name()),
                )
            })?;
            if bound.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return Err(bad(
                    bound_value.offset,
                    "job.cost_bound",
                    "cost bound must be positive",
                ));
            }
            let seed = opt_u64(job, "seed", "job.seed")?.unwrap_or(0);
            let rounds = opt_count(job, "rounds", MAX_SEARCH_ROUNDS)?;
            let round_size = opt_count(job, "round_size", MAX_ROUND_SIZE)?;
            (
                Vec::new(),
                Some(space),
                Some(bound),
                seed,
                rounds,
                round_size,
            )
        }
    };

    let fuel = opt_u64(job, "fuel", "job.fuel")?;
    let deadline_ms = match opt_u64(job, "deadline_ms", "job.deadline_ms")? {
        Some(0) => {
            // Zero would deadline every job before it starts; the field's
            // offset is re-derived for the error. `get` cannot fail here.
            let v = job.get("deadline_ms").map_or(job.offset, |v| v.offset);
            return Err(bad(v, "job.deadline_ms", "deadline must be at least 1 ms"));
        }
        other => other,
    };
    let threads = match opt_u64(job, "threads", "job.threads")? {
        None => 1,
        Some(0) => {
            let v = job.get("threads").map_or(job.offset, |v| v.offset);
            return Err(bad(v, "job.threads", "at least one thread is required"));
        }
        Some(n) if n > MAX_JOB_THREADS => {
            let v = job.get("threads").map_or(job.offset, |v| v.offset);
            return Err(bad(
                v,
                "job.threads",
                format!("at most {MAX_JOB_THREADS} threads per job"),
            ));
        }
        Some(n) => n as usize,
    };
    // Retired: every job shares the daemon's warm cache. The field is
    // still type-checked and then ignored, so old clients and `.job`
    // files journaled by an older daemon keep working.
    if let Some(v) = job.get("reuse") {
        if v.as_bool().is_none() {
            return Err(bad(
                v.offset,
                "job.reuse",
                format!("expected a boolean, found {}", v.type_name()),
            ));
        }
    }
    let max_cost = match job.get("max_cost") {
        None => None,
        Some(v) => {
            let c = v.as_f64().ok_or_else(|| {
                bad(
                    v.offset,
                    "job.max_cost",
                    format!("expected a number, found {}", v.type_name()),
                )
            })?;
            if c.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return Err(bad(
                    v.offset,
                    "job.max_cost",
                    "cost budget must be positive",
                ));
            }
            Some(c)
        }
    };
    let fault = match job.get("fault") {
        None => None,
        Some(v) => Some(parse_fault(v)?),
    };

    Ok(JobSpec {
        kind,
        benches,
        archs,
        space,
        cost_bound,
        seed,
        rounds,
        round_size,
        fuel,
        deadline_ms,
        threads,
        max_cost,
        fault,
    })
}

/// Parse an optional positive count with an admission ceiling.
fn opt_count(job: &Json, field: &str, max: u64) -> Result<Option<u64>, RequestError> {
    let path = format!("job.{field}");
    match opt_u64(job, field, &path)? {
        None => Ok(None),
        Some(0) => {
            let v = job.get(field).map_or(job.offset, |v| v.offset);
            Err(bad(v, path, "must be at least 1"))
        }
        Some(n) if n > max => {
            let v = job.get(field).map_or(job.offset, |v| v.offset);
            Err(bad(v, path, format!("at most {max}")))
        }
        Some(n) => Ok(Some(n)),
    }
}

fn parse_space(job: &Json) -> Result<Vec<ArchSpec>, RequestError> {
    let archs_value = job.get("archs");
    let preset_value = job.get("preset");
    match (archs_value, preset_value) {
        (Some(_), Some(p)) => Err(bad(
            p.offset,
            "job.preset",
            "give either 'archs' or 'preset', not both",
        )),
        (None, None) => Err(RequestError::MissingField {
            offset: job.offset,
            field: "job.archs".to_string(),
        }),
        (None, Some(p)) => {
            let name = p.as_str().ok_or_else(|| {
                bad(
                    p.offset,
                    "job.preset",
                    format!("expected a string, found {}", p.type_name()),
                )
            })?;
            match name {
                "paper" => Ok(DesignSpace::paper().all_arrangements()),
                "extended" => Ok(DesignSpace::extended().all_arrangements()),
                "smoke" => Ok(cfp_dse::ExploreConfig::smoke().archs),
                other => Err(bad(
                    p.offset,
                    "job.preset",
                    format!("unknown preset '{other}' (know paper, extended, smoke)"),
                )),
            }
        }
        (Some(a), None) => {
            let items = a.as_arr().ok_or_else(|| {
                bad(
                    a.offset,
                    "job.archs",
                    format!("expected an array, found {}", a.type_name()),
                )
            })?;
            if items.is_empty() {
                return Err(bad(
                    a.offset,
                    "job.archs",
                    "at least one architecture is required",
                ));
            }
            let mut archs = Vec::with_capacity(items.len());
            for item in items {
                let text = item.as_str().ok_or_else(|| {
                    bad(
                        item.offset,
                        "job.archs",
                        format!("expected a spec string, found {}", item.type_name()),
                    )
                })?;
                let spec = ArchSpec::parse(text).map_err(|e| bad(item.offset, "job.archs", e))?;
                archs.push(spec);
            }
            Ok(archs)
        }
    }
}

fn parse_fault(v: &Json) -> Result<FaultSpec, RequestError> {
    if v.as_obj().is_none() {
        return Err(bad(
            v.offset,
            "job.fault",
            format!("expected an object, found {}", v.type_name()),
        ));
    }
    let kind_value = v.get("kind").ok_or(RequestError::MissingField {
        offset: v.offset,
        field: "job.fault.kind".to_string(),
    })?;
    let kind = kind_value.as_str().ok_or_else(|| {
        bad(
            kind_value.offset,
            "job.fault.kind",
            format!("expected a string, found {}", kind_value.type_name()),
        )
    })?;
    let seed = opt_u64(v, "seed", "job.fault.seed")?.ok_or(RequestError::MissingField {
        offset: v.offset,
        field: "job.fault.seed".to_string(),
    })?;
    let denominator =
        opt_u64(v, "denominator", "job.fault.denominator")?.ok_or(RequestError::MissingField {
            offset: v.offset,
            field: "job.fault.denominator".to_string(),
        })?;
    if denominator == 0 {
        let d = v.get("denominator").map_or(v.offset, |d| d.offset);
        return Err(bad(
            d,
            "job.fault.denominator",
            "denominator must be at least 1",
        ));
    }
    let millis = opt_u64(v, "millis", "job.fault.millis")?;
    match kind {
        "panic" => {
            if millis.is_some() {
                let m = v.get("millis").map_or(v.offset, |m| m.offset);
                return Err(bad(
                    m,
                    "job.fault.millis",
                    "millis only applies to stall faults",
                ));
            }
            Ok(FaultSpec {
                stall_millis: None,
                seed,
                denominator,
            })
        }
        "stall" => {
            let ms = millis.ok_or(RequestError::MissingField {
                offset: v.offset,
                field: "job.fault.millis".to_string(),
            })?;
            Ok(FaultSpec {
                stall_millis: Some(ms),
                seed,
                denominator,
            })
        }
        "drop" => Err(bad(
            kind_value.offset,
            "job.fault.kind",
            "connection drops are injected client-side, not per job",
        )),
        other => Err(bad(
            kind_value.offset,
            "job.fault.kind",
            format!("unknown fault kind '{other}' (know panic, stall)"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_submit_parses_and_round_trips_canonically() {
        let line = r#"{"op":"submit","job":{"benches":["A","DH"],"archs":["(4 2 128 2 4 1)","(8 4 256 2 4 2)"],"fuel":5000,"deadline_ms":800,"threads":2,"reuse":false,"max_cost":3.5,"fault":{"kind":"stall","seed":7,"denominator":9,"millis":50}}}"#;
        let req = parse_request(line).expect("parses");
        let Request::Submit(job) = req else {
            panic!("not a submit: {req:?}")
        };
        assert_eq!(job.benches, vec![Benchmark::A, Benchmark::DH]);
        assert_eq!(job.archs.len(), 2);
        assert_eq!(job.fuel, Some(5000));
        assert_eq!(job.threads, 2);
        assert_eq!(job.max_cost, Some(3.5));
        assert_eq!(
            job.fault,
            Some(FaultSpec {
                stall_millis: Some(50),
                seed: 7,
                denominator: 9
            })
        );
        // The canonical line re-parses to the same job (fixed point),
        // and the retired `reuse` field is accepted but not carried.
        let canon = job.submit_line();
        assert!(!canon.contains("reuse"), "{canon}");
        let Request::Submit(again) = parse_request(&canon).expect("canonical parses") else {
            panic!("canonical not a submit")
        };
        assert_eq!(*job, *again);
        assert_eq!(again.submit_line(), canon);
    }

    #[test]
    fn presets_resolve_to_explicit_archs() {
        let line = r#"{"op":"submit","job":{"benches":["D"],"preset":"smoke"}}"#;
        let Request::Submit(job) = parse_request(line).expect("parses") else {
            panic!()
        };
        assert_eq!(job.archs, cfp_dse::ExploreConfig::smoke().archs);
        // The canonical form has no preset left in it.
        assert!(!job.submit_line().contains("preset"));
    }

    #[test]
    fn simple_ops_parse() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#), Ok(Request::Ping));
        assert_eq!(parse_request(r#"{"op":"stats"}"#), Ok(Request::Stats));
        assert_eq!(parse_request(r#"{"op":"shutdown"}"#), Ok(Request::Shutdown));
        assert_eq!(
            parse_request(r#"{"op":"status","id":"job-000001"}"#),
            Ok(Request::Status {
                id: "job-000001".to_string()
            })
        );
        assert_eq!(
            parse_request(r#"{"op":"result","id":"j","wait":false}"#),
            Ok(Request::Result {
                id: "j".to_string(),
                wait: false
            })
        );
    }

    #[test]
    fn a_search_submit_parses_and_round_trips_canonically() {
        let line = r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":"combinatorial","cost_bound":12.5,"seed":9,"rounds":4,"round_size":16,"threads":2}}"#;
        let Request::Submit(job) = parse_request(line).expect("parses") else {
            panic!("not a submit")
        };
        assert_eq!(job.kind, JobKind::Search);
        assert_eq!(job.benches, vec![Benchmark::D]);
        assert!(job.archs.is_empty(), "the space stays symbolic");
        assert_eq!(job.space, Some(SpaceName::Combinatorial));
        assert_eq!(job.cost_bound, Some(12.5));
        assert_eq!(job.seed, 9);
        assert_eq!(job.rounds, Some(4));
        assert_eq!(job.round_size, Some(16));
        let canon = job.submit_line();
        let Request::Submit(again) = parse_request(&canon).expect("canonical parses") else {
            panic!("canonical not a submit")
        };
        assert_eq!(*job, *again);
        assert_eq!(again.submit_line(), canon);
    }

    #[test]
    fn search_defaults_are_baked_into_the_canonical_line() {
        let line = r#"{"op":"submit","job":{"benches":["A"],"kind":"search","space":"paper","cost_bound":8}}"#;
        let Request::Submit(job) = parse_request(line).expect("parses") else {
            panic!()
        };
        assert_eq!(job.seed, 0);
        assert_eq!(job.rounds, None, "engine default, not journaled");
        let canon = job.submit_line();
        assert!(canon.contains(r#""seed":0"#), "seed is explicit: {canon}");
        let Request::Submit(again) = parse_request(&canon).expect("re-parses") else {
            panic!()
        };
        assert_eq!(*job, *again);
    }

    #[test]
    fn search_and_explore_fields_do_not_cross() {
        // A search job with an arch list is a contradiction.
        let e = parse_request(
            r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":"paper","cost_bound":8,"archs":["(4 2 128 2 4 1)"]}}"#,
        )
        .expect_err("archs on a search job");
        assert!(matches!(&e, RequestError::BadField { field, .. } if field == "job.archs"));
        // An explore job with a search knob silently ignored would be a
        // lost budget; it is rejected instead.
        let e = parse_request(
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"rounds":4}}"#,
        )
        .expect_err("rounds on an explore job");
        assert!(matches!(&e, RequestError::BadField { field, .. } if field == "job.rounds"));
        // Search jobs need their space and bound.
        let e = parse_request(
            r#"{"op":"submit","job":{"benches":["D"],"kind":"search","cost_bound":8}}"#,
        )
        .expect_err("missing space");
        assert!(matches!(&e, RequestError::MissingField { field, .. } if field == "job.space"));
        let e = parse_request(
            r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":"paper"}}"#,
        )
        .expect_err("missing cost_bound");
        assert!(
            matches!(&e, RequestError::MissingField { field, .. } if field == "job.cost_bound")
        );
        // One benchmark only, and the space name must be known.
        let e = parse_request(
            r#"{"op":"submit","job":{"benches":["D","A"],"kind":"search","space":"paper","cost_bound":8}}"#,
        )
        .expect_err("two benches");
        assert!(matches!(&e, RequestError::BadField { field, .. } if field == "job.benches"));
        let e = parse_request(
            r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":"galactic","cost_bound":8}}"#,
        )
        .expect_err("unknown space");
        assert!(matches!(&e, RequestError::BadField { field, message, .. }
            if field == "job.space" && message.contains("combinatorial")));
    }

    #[test]
    fn search_counts_are_bounded_at_admission() {
        let over = format!(
            r#"{{"op":"submit","job":{{"benches":["D"],"kind":"search","space":"paper","cost_bound":8,"round_size":{}}}}}"#,
            MAX_ROUND_SIZE + 1
        );
        let e = parse_request(&over).expect_err("oversized round");
        assert!(matches!(&e, RequestError::BadField { field, .. } if field == "job.round_size"));
        let zero = r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":"paper","cost_bound":8,"rounds":0}}"#;
        let e = parse_request(zero).expect_err("zero rounds");
        assert!(matches!(&e, RequestError::BadField { field, .. } if field == "job.rounds"));
    }

    #[test]
    fn rejections_name_field_and_offset() {
        let line = r#"{"op":"submit","job":{"benches":["A","Q"],"archs":["(4 2 128 2 4 1)"]}}"#;
        let e = parse_request(line).expect_err("unknown benchmark");
        let RequestError::BadField {
            offset,
            field,
            message,
        } = &e
        else {
            panic!("{e:?}")
        };
        assert_eq!(field, "job.benches");
        assert_eq!(&line[*offset..*offset + 3], "\"Q\"");
        assert!(message.contains('Q'));
    }
}
