//! The service's wire protocol: line-delimited JSON requests, typed
//! rejections that name the offending field *and* byte offset, and the
//! canonical job form the daemon journals for crash recovery.
//!
//! Every request is one JSON object on one line. Parsing is strict —
//! unknown job fields, wrong types, unknown benchmarks, malformed
//! architecture specs are all rejected with a [`RequestError`] that
//! points into the request line (the protocol analogue of the
//! line-numbered CSV errors in `cfp_dse::io`), so a client can fix its
//! request without guessing. The daemon sends back
//! [`RequestError::to_json`] of exactly the error the parser built.
//!
//! Apart from the envelope (too long, syntax, not an object, unknown op)
//! and the unknown-job-field check, every rejection comes from one field
//! reader at the bottom of this file: a `Field` is a value plus its
//! dotted path (`id`, `job.threads`, `job.fault.seed`). `req` answers
//! `missing_field` at the containing object's offset, `opt` returns a
//! present field, and the typed accessors answer the protocol's one
//! `expected …, found …` rejection at the value's own offset. Range and
//! cross-field checks call `bad` on the field already in hand, so no
//! offset is recovered by looking a value up again.
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
use cfp_machine::{ArchSpec, SpaceAxes};
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
    /// The paper's grid (192 base points).
    Paper,
    /// The extended grid (384 base points).
    Extended,
    /// The combinatorial grid (≥10^5 arrangements).
    Combinatorial,
}

impl SpaceName {
    /// Every space, in the order a rejection lists them.
    pub(crate) const ALL: [SpaceName; 3] = [Self::Paper, Self::Extended, Self::Combinatorial];

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
    let doc = json::parse(line).map_err(|e| RequestError::Syntax {
        offset: e.offset,
        message: e.message,
    })?;
    if doc.as_obj().is_none() {
        return Err(RequestError::NotAnObject {
            offset: doc.offset,
            found: doc.type_name().to_string(),
        });
    }
    let root = Field {
        value: &doc,
        path: "",
    };
    let op = root.req("op")?;
    let id = || root.req("id")?.str().map(str::to_owned);
    match op.str()? {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "status" => Ok(Request::Status { id: id()? }),
        "watch" => Ok(Request::Watch { id: id()? }),
        "result" => {
            let wait = root.opt("wait").map(Field::bool).transpose()?;
            let wait = wait.unwrap_or(true);
            Ok(Request::Result { id: id()?, wait })
        }
        "submit" => Ok(Request::Submit(Box::new(parse_job(root.req("job")?)?))),
        other => Err(RequestError::UnknownOp {
            offset: op.value.offset,
            op: other.to_string(),
        }),
    }
}

fn parse_job(job: Field<'_>) -> Result<JobSpec, RequestError> {
    #[rustfmt::skip]
    const KNOWN: [&str; 15] = ["kind", "benches", "archs", "preset", "space", "cost_bound",
        "seed", "rounds", "round_size", "fuel", "deadline_ms", "threads", "reuse", "max_cost",
        "fault"];
    // Strictness first: an unknown field is more likely a typo'd budget
    // than an extension, and a budget silently ignored is the worst
    // failure mode a budgeted service can have.
    for (key, key_offset, _) in job.obj()? {
        if !KNOWN.contains(&key.as_str()) {
            return Err(RequestError::BadField {
                offset: *key_offset,
                field: format!("job.{key}"),
                message: "unknown field".to_string(),
            });
        }
    }

    let kinds = [("explore", JobKind::Explore), ("search", JobKind::Search)];
    let kind = job.opt("job.kind").map(|f| f.token("job kind", &kinds));
    let kind = kind.transpose()?.unwrap_or_default();

    let benches = job.req("job.benches")?;
    let items = benches.arr()?;
    if items.is_empty() {
        return Err(benches.bad("at least one benchmark is required"));
    }
    let mut spec = JobSpec {
        kind,
        benches: Vec::with_capacity(items.len()),
        ..JobSpec::default()
    };
    for item in items {
        let item = benches.item(item);
        let letter = item.str_as("a benchmark letter")?;
        let b = Benchmark::ALL.into_iter().find(|b| b.letter() == letter);
        spec.benches.push(b.ok_or_else(|| {
            item.bad(format!(
                "unknown benchmark '{letter}' (know A C D E F G H GF GEF DH DHEF)"
            ))
        })?);
    }

    match kind {
        JobKind::Explore => {
            // Strict in both directions: a search knob on a sweep job is
            // as much a lost budget as a typo'd field name.
            #[rustfmt::skip]
            let search_only =
                ["job.space", "job.cost_bound", "job.seed", "job.rounds", "job.round_size"];
            for path in search_only {
                if let Some(f) = job.opt(path) {
                    return Err(f.bad("only applies to search jobs"));
                }
            }
            spec.archs = parse_archs(job)?;
        }
        JobKind::Search => {
            if let Some(f) = job.opt("job.archs").or_else(|| job.opt("job.preset")) {
                return Err(f.bad("search jobs name their space with 'space', not an arch list"));
            }
            if let Some(f) = job.opt("job.max_cost") {
                return Err(f.bad("search jobs bound cost with 'cost_bound'"));
            }
            if let Some(f) = job.opt("job.fault") {
                return Err(f.bad("fault injection only applies to explore jobs"));
            }
            if spec.benches.len() != 1 {
                return Err(benches.bad("search jobs take exactly one benchmark"));
            }
            let spaces = SpaceName::ALL.map(|s| (s.token(), s));
            spec.space = Some(job.req("job.space")?.token("space", &spaces)?);
            spec.cost_bound = Some(cost(job.req("job.cost_bound")?, "cost bound")?);
            let seed = job.opt("job.seed").map(Field::u64).transpose()?;
            spec.seed = seed.unwrap_or(0);
            let bounded = |path, max| job.opt(path).map(|f| count(f, max)).transpose();
            spec.rounds = bounded("job.rounds", MAX_SEARCH_ROUNDS)?;
            spec.round_size = bounded("job.round_size", MAX_ROUND_SIZE)?;
        }
    }

    spec.fuel = job.opt("job.fuel").map(Field::u64).transpose()?;
    if let Some(f) = job.opt("job.deadline_ms") {
        // Zero would deadline every job before it starts.
        spec.deadline_ms = match f.u64()? {
            0 => Err(f.bad("deadline must be at least 1 ms")),
            ms => Ok(Some(ms)),
        }?;
    }
    if let Some(f) = job.opt("job.threads") {
        spec.threads = match f.u64()? {
            0 => Err(f.bad("at least one thread is required")),
            n if n <= MAX_JOB_THREADS => Ok(n as usize),
            _ => Err(f.bad(format!("at most {MAX_JOB_THREADS} threads per job"))),
        }?;
    }
    // Retired: every job shares the daemon's warm cache. The field is
    // still type-checked and then ignored, so old clients and `.job`
    // files journaled by an older daemon keep working.
    job.opt("job.reuse").map(Field::bool).transpose()?;
    let max_cost = job.opt("job.max_cost");
    spec.max_cost = max_cost.map(|f| cost(f, "cost budget")).transpose()?;
    spec.fault = job.opt("job.fault").map(parse_fault).transpose()?;
    Ok(spec)
}

/// A positive count with an admission ceiling.
fn count(f: Field<'_>, max: u64) -> Result<u64, RequestError> {
    match f.u64()? {
        0 => Err(f.bad("must be at least 1")),
        n if n > max => Err(f.bad(format!("at most {max}"))),
        n => Ok(n),
    }
}

/// A cost bound or budget: positive, and finite — `1e999` reads as
/// infinity, which the canonical journal line could not write as JSON.
fn cost(f: Field<'_>, what: &str) -> Result<f64, RequestError> {
    match f.f64()? {
        c if c > 0.0 && c.is_finite() => Ok(c),
        c if c > 0.0 => Err(f.bad(format!("{what} must be finite"))),
        _ => Err(f.bad(format!("{what} must be positive"))),
    }
}

/// An explore job's candidates: an explicit `archs` list or a named
/// `preset`, expanded here so the canonical line carries explicit specs.
fn parse_archs(job: Field<'_>) -> Result<Vec<ArchSpec>, RequestError> {
    match (job.opt("job.archs"), job.opt("job.preset")) {
        (Some(_), Some(p)) => Err(p.bad("give either 'archs' or 'preset', not both")),
        (None, None) => Err(job.missing("job.archs")),
        (None, Some(p)) => match p.str()? {
            "paper" => Ok(SpaceAxes::paper().arrangements()),
            "extended" => Ok(SpaceAxes::extended().arrangements()),
            "smoke" => Ok(cfp_dse::ExploreConfig::smoke().archs),
            other => Err(p.bad(format!(
                "unknown preset '{other}' (know paper, extended, smoke)"
            ))),
        },
        (Some(archs), None) => {
            let items = archs.arr()?;
            if items.is_empty() {
                return Err(archs.bad("at least one architecture is required"));
            }
            let mut specs = Vec::with_capacity(items.len());
            for item in items {
                let item = archs.item(item);
                let text = item.str_as("a spec string")?;
                specs.push(ArchSpec::parse(text).map_err(|e| item.bad(e))?);
            }
            Ok(specs)
        }
    }
}

fn parse_fault(fault: Field<'_>) -> Result<FaultSpec, RequestError> {
    fault.obj()?;
    let kind = fault.req("job.fault.kind")?;
    let token = kind.str()?;
    let seed = fault.req("job.fault.seed")?.u64()?;
    let denominator = fault.req("job.fault.denominator")?;
    let denominator = match denominator.u64()? {
        0 => return Err(denominator.bad("denominator must be at least 1")),
        d => d,
    };
    let millis = fault.opt("job.fault.millis");
    let ms = millis.map(Field::u64).transpose()?;
    let stall_millis = match (token, millis) {
        ("panic", Some(m)) => Err(m.bad("millis only applies to stall faults")),
        ("panic", None) => Ok(None),
        ("stall", _) => ms
            .map(Some)
            .ok_or_else(|| fault.missing("job.fault.millis")),
        ("drop", _) => Err(kind.bad("connection drops are injected client-side, not per job")),
        (other, _) => Err(kind.bad(format!("unknown fault kind '{other}' (know panic, stall)"))),
    }?;
    Ok(FaultSpec {
        stall_millis,
        seed,
        denominator,
    })
}

/// The field reader every rejection past `parse_request`'s envelope
/// comes from: one value of the request and its dotted path (`id`,
/// `job.threads`, `job.fault.seed`). Paths are static; a rejection is
/// the only thing that turns one into a `String`.
#[derive(Clone, Copy)]
struct Field<'a> {
    value: &'a Json,
    path: &'static str,
}

impl<'a> Field<'a> {
    /// The member of this object at `path` — this field's own path, a
    /// dot, then the key — if present; the first of duplicate keys.
    fn opt(self, path: &'static str) -> Option<Field<'a>> {
        let key = path[self.path.len()..].trim_start_matches('.');
        let value = self.value.get(key)?;
        Some(Field { value, path })
    }

    /// The member at `path`, or `missing_field` at this object's offset.
    fn req(self, path: &'static str) -> Result<Field<'a>, RequestError> {
        self.opt(path).ok_or_else(|| self.missing(path))
    }

    fn missing(self, path: &str) -> RequestError {
        RequestError::MissingField {
            offset: self.value.offset,
            field: path.to_string(),
        }
    }

    /// A `bad_field` rejection of this value, at its own offset.
    fn bad(self, message: impl Into<String>) -> RequestError {
        RequestError::BadField {
            offset: self.value.offset,
            field: self.path.to_string(),
            message: message.into(),
        }
    }

    /// `got`, or the protocol's one type-mismatch rejection.
    fn expect<T>(self, noun: &str, got: Option<T>) -> Result<T, RequestError> {
        got.ok_or_else(|| self.bad(format!("expected {noun}, found {}", self.value.type_name())))
    }

    fn str(self) -> Result<&'a str, RequestError> {
        self.str_as("a string")
    }

    /// A string that a rejection calls `noun` ("a benchmark letter").
    fn str_as(self, noun: &str) -> Result<&'a str, RequestError> {
        self.expect(noun, self.value.as_str())
    }

    fn u64(self) -> Result<u64, RequestError> {
        self.expect("a non-negative integer", self.value.as_u64())
    }

    fn f64(self) -> Result<f64, RequestError> {
        self.expect("a number", self.value.as_f64())
    }

    fn bool(self) -> Result<bool, RequestError> {
        self.expect("a boolean", self.value.as_bool())
    }

    fn arr(self) -> Result<&'a [Json], RequestError> {
        self.expect("an array", self.value.as_arr())
    }

    fn obj(self) -> Result<&'a [(String, usize, Json)], RequestError> {
        self.expect("an object", self.value.as_obj())
    }

    /// One of `known`'s tokens, or `unknown {what} '…' (know …)`.
    fn token<T: Copy>(self, what: &str, known: &[(&str, T)]) -> Result<T, RequestError> {
        let s = self.str()?;
        if let Some(&(_, v)) = known.iter().find(|(t, _)| *t == s) {
            return Ok(v);
        }
        let names: Vec<&str> = known.iter().map(|(t, _)| *t).collect();
        Err(self.bad(format!("unknown {what} '{s}' (know {})", names.join(", "))))
    }

    /// One item of this array, named by the array's path.
    fn item(self, value: &'a Json) -> Field<'a> {
        Field { value, ..self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every rejection site of the parser, one line each, mapped to the
    /// exact wire response (`to_json`) it produces: kind, offset, field
    /// and message. The last four lines carry several faults each and pin
    /// which one is reported first.
    const REJECTIONS: &[(&str, &str)] = &[
        (
            r#"[1]"#,
            r#"{"ok":false,"error":"bad_request","kind":"not_an_object","offset":0,"found":"array"}"#,
        ),
        (
            r#"{"op":"#,
            r#"{"ok":false,"error":"bad_request","kind":"syntax","offset":6,"message":"unexpected end of input"}"#,
        ),
        (
            r#"{"no_op":true}"#,
            r#"{"ok":false,"error":"bad_request","kind":"missing_field","offset":0,"field":"op"}"#,
        ),
        (
            r#"{"op":7}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":6,"field":"op","message":"expected a string, found number"}"#,
        ),
        (
            r#"{"op":"frobnicate"}"#,
            r#"{"ok":false,"error":"bad_request","kind":"unknown_op","offset":6,"op":"frobnicate"}"#,
        ),
        (
            r#"{"op":"status"}"#,
            r#"{"ok":false,"error":"bad_request","kind":"missing_field","offset":0,"field":"id"}"#,
        ),
        (
            r#"{"op":"watch"}"#,
            r#"{"ok":false,"error":"bad_request","kind":"missing_field","offset":0,"field":"id"}"#,
        ),
        (
            r#"{"op":"result"}"#,
            r#"{"ok":false,"error":"bad_request","kind":"missing_field","offset":0,"field":"id"}"#,
        ),
        (
            r#"{"op":"status","id":7}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":20,"field":"id","message":"expected a string, found number"}"#,
        ),
        (
            r#"{"op":"watch","id":null}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":19,"field":"id","message":"expected a string, found null"}"#,
        ),
        (
            r#"{"op":"result","id":"j","wait":"no"}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":31,"field":"wait","message":"expected a boolean, found string"}"#,
        ),
        (
            r#"{"op":"result","wait":1}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":22,"field":"wait","message":"expected a boolean, found number"}"#,
        ),
        (
            r#"{"op":"submit"}"#,
            r#"{"ok":false,"error":"bad_request","kind":"missing_field","offset":0,"field":"job"}"#,
        ),
        (
            r#"{"op":"submit","job":[1]}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":21,"field":"job","message":"expected an object, found array"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"frobs":1}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":38,"field":"job.frobs","message":"unknown field"}"#,
        ),
        (
            r#"{"op":"submit","job":{"kind":7,"benches":["D"]}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":29,"field":"job.kind","message":"expected a string, found number"}"#,
        ),
        (
            r#"{"op":"submit","job":{"kind":"sweep","benches":["D"]}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":29,"field":"job.kind","message":"unknown job kind 'sweep' (know explore, search)"}"#,
        ),
        (
            r#"{"op":"submit","job":{"archs":["(4 2 128 2 4 1)"]}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"missing_field","offset":21,"field":"job.benches"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":"D"}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":32,"field":"job.benches","message":"expected an array, found string"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":[]}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":32,"field":"job.benches","message":"at least one benchmark is required"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":[4]}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":33,"field":"job.benches","message":"expected a benchmark letter, found number"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D","Q"]}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":37,"field":"job.benches","message":"unknown benchmark 'Q' (know A C D E F G H GF GEF DH DHEF)"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"space":"paper"}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":74,"field":"job.space","message":"only applies to search jobs"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"cost_bound":8}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":79,"field":"job.cost_bound","message":"only applies to search jobs"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"seed":1}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":73,"field":"job.seed","message":"only applies to search jobs"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"rounds":2}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":75,"field":"job.rounds","message":"only applies to search jobs"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"round_size":2}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":79,"field":"job.round_size","message":"only applies to search jobs"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"]}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"missing_field","offset":21,"field":"job.archs"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"preset":"smoke"}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":75,"field":"job.preset","message":"give either 'archs' or 'preset', not both"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"preset":7}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":47,"field":"job.preset","message":"expected a string, found number"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"preset":"nope"}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":47,"field":"job.preset","message":"unknown preset 'nope' (know paper, extended, smoke)"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":"(4 2 128 2 4 1)"}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":46,"field":"job.archs","message":"expected an array, found string"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":[]}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":46,"field":"job.archs","message":"at least one architecture is required"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":[7]}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":47,"field":"job.archs","message":"expected a spec string, found number"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)","(0 0 0)"]}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":65,"field":"job.archs","message":"expected 6 fields, got 3"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1 +fma)"]}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":47,"field":"job.archs","message":"unknown extension `fma` in `+fma` (know madd, minmax, addshr)"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":"paper","cost_bound":8,"archs":[]}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":93,"field":"job.archs","message":"search jobs name their space with 'space', not an arch list"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":"paper","cost_bound":8,"preset":"smoke"}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":94,"field":"job.preset","message":"search jobs name their space with 'space', not an arch list"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":"paper","cost_bound":8,"max_cost":3}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":96,"field":"job.max_cost","message":"search jobs bound cost with 'cost_bound'"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":"paper","cost_bound":8,"fault":{"kind":"panic","seed":1,"denominator":2}}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":93,"field":"job.fault","message":"fault injection only applies to explore jobs"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D","A"],"kind":"search","space":"paper","cost_bound":8}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":32,"field":"job.benches","message":"search jobs take exactly one benchmark"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"kind":"search","cost_bound":8}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"missing_field","offset":21,"field":"job.space"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":7,"cost_bound":8}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":62,"field":"job.space","message":"expected a string, found number"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":"galactic","cost_bound":8}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":62,"field":"job.space","message":"unknown space 'galactic' (know paper, extended, combinatorial)"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":"paper"}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"missing_field","offset":21,"field":"job.cost_bound"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":"paper","cost_bound":"8"}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":83,"field":"job.cost_bound","message":"expected a number, found string"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":"paper","cost_bound":0}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":83,"field":"job.cost_bound","message":"cost bound must be positive"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":"paper","cost_bound":-1}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":83,"field":"job.cost_bound","message":"cost bound must be positive"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":"paper","cost_bound":-1e999}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":83,"field":"job.cost_bound","message":"cost bound must be positive"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":"paper","cost_bound":8,"seed":-1}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":92,"field":"job.seed","message":"expected a non-negative integer, found number"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":"paper","cost_bound":8,"rounds":"2"}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":94,"field":"job.rounds","message":"expected a non-negative integer, found string"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":"paper","cost_bound":8,"rounds":0}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":94,"field":"job.rounds","message":"must be at least 1"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":"paper","cost_bound":8,"rounds":257}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":94,"field":"job.rounds","message":"at most 256"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":"paper","cost_bound":8,"round_size":0}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":98,"field":"job.round_size","message":"must be at least 1"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":"paper","cost_bound":8,"round_size":4097}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":98,"field":"job.round_size","message":"at most 4096"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":"paper","cost_bound":8,"round_size":2.5}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":98,"field":"job.round_size","message":"expected a non-negative integer, found number"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"fuel":"x"}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":73,"field":"job.fuel","message":"expected a non-negative integer, found string"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"fuel":-1}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":73,"field":"job.fuel","message":"expected a non-negative integer, found number"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"deadline_ms":0}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":80,"field":"job.deadline_ms","message":"deadline must be at least 1 ms"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"deadline_ms":1.5}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":80,"field":"job.deadline_ms","message":"expected a non-negative integer, found number"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"threads":0}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":76,"field":"job.threads","message":"at least one thread is required"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"threads":17}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":76,"field":"job.threads","message":"at most 16 threads per job"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"threads":"2"}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":76,"field":"job.threads","message":"expected a non-negative integer, found string"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"reuse":"yes"}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":74,"field":"job.reuse","message":"expected a boolean, found string"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"max_cost":"3"}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":77,"field":"job.max_cost","message":"expected a number, found string"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"max_cost":0}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":77,"field":"job.max_cost","message":"cost budget must be positive"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"max_cost":-1}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":77,"field":"job.max_cost","message":"cost budget must be positive"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"fault":1}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":74,"field":"job.fault","message":"expected an object, found number"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"fault":{}}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"missing_field","offset":74,"field":"job.fault.kind"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"fault":{"kind":1,"seed":1,"denominator":2}}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":82,"field":"job.fault.kind","message":"expected a string, found number"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"fault":{"kind":"panic","denominator":2}}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"missing_field","offset":74,"field":"job.fault.seed"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"fault":{"kind":"panic","seed":"1","denominator":2}}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":97,"field":"job.fault.seed","message":"expected a non-negative integer, found string"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"fault":{"kind":"panic","seed":1}}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"missing_field","offset":74,"field":"job.fault.denominator"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"fault":{"kind":"panic","seed":1,"denominator":true}}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":113,"field":"job.fault.denominator","message":"expected a non-negative integer, found boolean"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"fault":{"kind":"panic","seed":1,"denominator":0}}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":113,"field":"job.fault.denominator","message":"denominator must be at least 1"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"fault":{"kind":"stall","seed":1,"denominator":2,"millis":"5"}}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":124,"field":"job.fault.millis","message":"expected a non-negative integer, found string"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"fault":{"kind":"panic","seed":1,"denominator":2,"millis":5}}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":124,"field":"job.fault.millis","message":"millis only applies to stall faults"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"fault":{"kind":"stall","seed":1,"denominator":2}}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"missing_field","offset":74,"field":"job.fault.millis"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"fault":{"kind":"drop","seed":1,"denominator":2}}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":82,"field":"job.fault.kind","message":"connection drops are injected client-side, not per job"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"fault":{"kind":"boom","seed":1,"denominator":2}}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":82,"field":"job.fault.kind","message":"unknown fault kind 'boom' (know panic, stall)"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":[],"archs":[],"threads":0,"frobs":1}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":58,"field":"job.frobs","message":"unknown field"}"#,
        ),
        (
            r#"{"op":"submit","job":{"kind":"search","benches":["D","A"],"archs":["x"],"cost_bound":-1}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":66,"field":"job.archs","message":"search jobs name their space with 'space', not an arch list"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"max_cost":-1,"threads":0,"deadline_ms":0}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":106,"field":"job.deadline_ms","message":"deadline must be at least 1 ms"}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"fault":{"kind":"drop","seed":1,"denominator":0}}}"#,
            r#"{"ok":false,"error":"bad_request","kind":"bad_field","offset":112,"field":"job.fault.denominator","message":"denominator must be at least 1"}"#,
        ),
    ];

    /// Accepted submits and their literal canonical journal line.
    const CANONICAL: &[(&str, &str)] = &[
        (
            r#"{"op":"submit","job":{"benches":["A","DH"],"archs":["(4 2 128 2 4 1)","(8 4 256 2 4 2)"],"fuel":5000,"deadline_ms":800,"threads":2,"reuse":false,"max_cost":3.5,"fault":{"kind":"stall","seed":7,"denominator":9,"millis":50}}}"#,
            r#"{"op":"submit","job":{"benches":["A","DH"],"archs":["(4 2 128 2 4 1)","(8 4 256 2 4 2)"],"fuel":5000,"deadline_ms":800,"threads":2,"max_cost":3.5,"fault":{"seed":7,"denominator":9,"kind":"stall","millis":50}}}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"preset":"smoke"}}"#,
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(1 1 64 1 8 1)","(2 1 64 1 4 1)","(4 2 128 1 4 1)","(4 2 256 1 4 4)","(8 2 128 1 4 4)","(8 4 256 2 4 2)","(16 4 128 1 4 8)"],"threads":1}}"#,
        ),
        (
            r#"{"op":"submit","job":{"kind":"explore","benches":["GEF"],"archs":["(8 4 256 2 4 1 +madd+minmax+addshr)"],"fault":{"kind":"panic","seed":3,"denominator":2}}}"#,
            r#"{"op":"submit","job":{"benches":["GEF"],"archs":["(8 4 256 2 4 1 +madd+minmax+addshr)"],"threads":1,"fault":{"seed":3,"denominator":2,"kind":"panic"}}}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":"combinatorial","cost_bound":12.5,"seed":9,"rounds":4,"round_size":16,"threads":2}}"#,
            r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":"combinatorial","cost_bound":12.5,"seed":9,"rounds":4,"round_size":16,"threads":2}}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["A"],"kind":"search","space":"paper","cost_bound":8}}"#,
            r#"{"op":"submit","job":{"benches":["A"],"kind":"search","space":"paper","cost_bound":8,"seed":0,"threads":1}}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["H"],"kind":"search","space":"extended","cost_bound":1e2,"fuel":100,"deadline_ms":5,"reuse":true,"rounds":256,"round_size":4096}}"#,
            r#"{"op":"submit","job":{"benches":["H"],"kind":"search","space":"extended","cost_bound":100,"seed":0,"rounds":256,"round_size":4096,"fuel":100,"deadline_ms":5,"threads":1}}"#,
        ),
        (
            r#"{ "job" : { "threads" : 16, "archs" : ["(2 1 64 1 4 1)"], "benches" : ["C","E"], "max_cost" : 1e-3 }, "op" : "submit" }"#,
            r#"{"op":"submit","job":{"benches":["C","E"],"archs":["(2 1 64 1 4 1)"],"threads":16,"max_cost":0.001}}"#,
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"benches":["A"],"preset":"smoke","fuel":18446744073709551615}}"#,
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(1 1 64 1 8 1)","(2 1 64 1 4 1)","(4 2 128 1 4 1)","(4 2 256 1 4 4)","(8 2 128 1 4 4)","(8 4 256 2 4 2)","(16 4 128 1 4 8)"],"fuel":18446744073709551615,"threads":1}}"#,
        ),
    ];

    #[test]
    fn every_rejection_site_answers_its_pinned_wire_response() {
        for (line, want) in REJECTIONS {
            let got = parse_request(line).expect_err(line).to_json();
            assert_eq!(got, *want, "for request {line}");
        }
    }

    #[test]
    fn accepted_submits_render_their_pinned_canonical_line() {
        for (line, want) in CANONICAL {
            let Ok(Request::Submit(job)) = parse_request(line) else {
                panic!("not an accepted submit: {line}")
            };
            assert_eq!(job.submit_line(), *want, "for request {line}");
            let Ok(Request::Submit(again)) = parse_request(want) else {
                panic!("canonical line does not re-parse: {want}")
            };
            assert_eq!(again.submit_line(), *want, "fixed point");
        }
    }

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

    #[test]
    fn a_non_finite_cost_is_rejected_at_admission() {
        // `1e999` reads as infinity. Admitted, it would be journaled as
        // `inf`, which is not JSON, and recovery would skip the job.
        for (line, path) in [
            (
                r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":"paper","cost_bound":1e999}}"#,
                "job.cost_bound",
            ),
            (
                r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1)"],"max_cost":1e999}}"#,
                "job.max_cost",
            ),
        ] {
            let e = parse_request(line).expect_err(line);
            let RequestError::BadField { offset, field, .. } = &e else {
                panic!("{e:?}")
            };
            assert_eq!(
                (field.as_str(), *offset),
                (path, line.find("1e999").unwrap())
            );
        }
    }
}
