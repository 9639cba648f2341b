//! The exploration daemon: admission, a bounded worker pool over shared
//! warm caches, per-job deadlines and retries, and crash recovery.
//!
//! ## Lifecycle of a job
//!
//! 1. **Admission.** A `submit` request is parsed ([`crate::proto`]),
//!    its cost budget applied, and — if the queue is below the
//!    high-water mark — the job's *canonical* form is journaled to
//!    `<state>/jobs/<id>.job` (write-temp-then-rename) **before** the
//!    submit is acknowledged. Accepted and journaled are the same
//!    event: any job the client believes exists survives a crash.
//!    Beyond the high-water mark the request is shed with a typed
//!    `overloaded` response instead of degrading admitted work.
//! 2. **Execution.** A pool worker claims the job and runs it via
//!    [`cfp_dse::Exploration::try_run_shared`] against the daemon's
//!    shared [`cfp_dse::PlanStore`] and [`cfp_dse::CompileCache`],
//!    journaling completed units to `<id>.ck` through the checkpoint
//!    layer. The attempt runs on its own thread; the worker arms a
//!    wall-clock watchdog (`recv_timeout`) for the job's deadline.
//! 3. **Deadline.** If the watchdog fires, the attempt thread is
//!    *abandoned*, never joined: it finishes (or stalls forever) off
//!    the pool, its eventual sends land in a closed channel, and its
//!    cache writes are completed pure values other jobs may reuse.
//!    The worker itself — the bounded resource — returns to the pool
//!    immediately, unpoisoned.
//! 4. **Retry.** Failures classified transient by
//!    [`JobError::is_transient`] are retried with capped exponential
//!    backoff (a corrupt checkpoint journal is removed first);
//!    deterministic failures fail fast with the reason attached.
//! 5. **Terminal.** The result (or failure) JSON is journaled to
//!    `<id>.result` atomically, then served to any waiter.
//!
//! ## Restart recovery
//!
//! On start the daemon scans `<state>/jobs`: entries with a `.result`
//! are re-served from it; entries without one are re-queued from their
//! canonical `.job` line. A re-queued job resumes from its `.ck`
//! journal, replaying completed units — by the checkpoint layer's
//! fingerprint discipline the resumed result is bit-identical to an
//! uninterrupted run, which the recovery test proves by SIGKILLing a
//! daemon mid-sweep and comparing FNV digests.

use crate::error::{JobError, ServeError};
use crate::job;
use crate::json;
use crate::proto::{self, JobKind, JobSpec, Request, RequestError};
use cfp_dse::checkpoint::write_atomic;
use cfp_dse::{CompileCache, Exploration, ExploreError, FailReason, PlanStore, SearchOutcome};
use cfp_obs::{Event, Recorder, Stage};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Retry ladder shape: how many attempts, and the capped exponential
/// backoff between them.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (1 = never retry).
    pub max_attempts: u32,
    /// Backoff before the second attempt, milliseconds.
    pub base_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub cap_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_ms: 10,
            cap_ms: 200,
        }
    }
}

impl RetryPolicy {
    /// Backoff after failed attempt `attempt` (1-based):
    /// `min(base << (attempt - 1), cap)`.
    #[must_use]
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let shifted = self
            .base_ms
            .checked_shl(attempt.saturating_sub(1))
            .unwrap_or(self.cap_ms);
        shifted.min(self.cap_ms)
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; port 0 picks an ephemeral port (the bound
    /// address is [`Server::addr`]).
    pub addr: String,
    /// State directory: job journals, checkpoints, results.
    pub state_dir: PathBuf,
    /// Worker pool size — the concurrency bound.
    pub workers: usize,
    /// Admission high-water mark: submits beyond this many queued jobs
    /// are shed.
    pub queue_high_water: usize,
    /// Retry ladder for transient failures.
    pub retry: RetryPolicy,
    /// Deadline for jobs that do not set one, milliseconds.
    pub default_deadline_ms: u64,
    /// Stream every Nth unit event to watchers (1 = every unit).
    pub progress_every: u64,
    /// Bound the shared compile cache to this many scheduled
    /// cores (`None` = unbounded). See `cfp_dse::CompileCache::bounded`.
    pub core_cache_cap: Option<usize>,
}

impl ServeConfig {
    /// A config serving `state_dir` on an ephemeral localhost port with
    /// production defaults.
    #[must_use]
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            state_dir: state_dir.into(),
            workers: 2,
            queue_high_water: 16,
            retry: RetryPolicy::default(),
            default_deadline_ms: 60_000,
            progress_every: 5,
            core_cache_cap: None,
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug)]
enum JobState {
    Queued,
    Running {
        attempt: u32,
    },
    /// Terminal; the line is the persisted result JSON.
    Done {
        line: String,
    },
    /// Terminal failure; the line is the persisted failure JSON.
    Failed {
        line: String,
    },
}

impl JobState {
    fn token(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running { .. } => "running",
            JobState::Done { .. } => "done",
            JobState::Failed { .. } => "failed",
        }
    }

    fn terminal_line(&self) -> Option<&str> {
        match self {
            JobState::Done { line } | JobState::Failed { line } => Some(line),
            _ => None,
        }
    }
}

/// Per-job progress stream: a bounded ring of serialized unit events
/// plus counters. Disabled for recovered jobs (no client is attached to
/// a daemon that restarted; tracing off means zero overhead).
#[derive(Debug)]
struct Progress {
    enabled: bool,
    units_done: AtomicU64,
    next_seq: AtomicU64,
    events: Mutex<VecDeque<(u64, String)>>,
}

const PROGRESS_RING: usize = 1024;

impl Progress {
    fn new(enabled: bool) -> Self {
        Progress {
            enabled,
            units_done: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            events: Mutex::new(VecDeque::new()),
        }
    }

    fn push(&self, line: String) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.len() >= PROGRESS_RING {
            ring.pop_front();
        }
        ring.push_back((seq, line));
    }

    /// Events with sequence number >= `cursor`; returns the next cursor.
    fn drain_from(&self, cursor: u64, out: &mut Vec<String>) -> u64 {
        let ring = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        let mut next = cursor;
        for (seq, line) in ring.iter() {
            if *seq >= cursor {
                out.push(line.clone());
                next = seq + 1;
            }
        }
        next
    }
}

/// The [`Recorder`] handed to a job's exploration: counts units, and
/// serializes every Nth `unit` span into the job's progress ring.
struct ProgressRecorder {
    progress: Arc<Progress>,
    every: u64,
}

impl Recorder for ProgressRecorder {
    fn enabled(&self) -> bool {
        self.progress.enabled
    }

    fn now(&self, tick: u64) -> u64 {
        tick
    }

    fn record(&self, event: &Event<'_>) {
        let (token, sampled) = match event.stage {
            Stage::Unit => ("unit", true),
            // Search rounds are rare (a handful per job) and each one is
            // the bracket's whole story — never sampled away.
            Stage::Search => ("search", false),
            _ => return,
        };
        let n = self.progress.units_done.fetch_add(1, Ordering::Relaxed) + 1;
        if sampled && self.every > 1 && n % self.every != 1 {
            return;
        }
        let mut line = format!(r#"{{"event":"{token}","n":{n},"unit":{}"#, event.unit);
        for (name, value) in event.fields {
            line.push(',');
            json::write_str(&mut line, name);
            line.push(':');
            // The trace's own writer: an empty round's non-finite best
            // speedup goes out as null, so the line stays parseable.
            json::write_value(&mut line, *value);
        }
        line.push('}');
        self.progress.push(line);
    }
}

#[derive(Debug)]
struct JobEntry {
    spec: JobSpec,
    state: JobState,
    progress: Arc<Progress>,
}

#[derive(Debug, Default)]
struct Inner {
    queue: VecDeque<String>,
    jobs: HashMap<String, JobEntry>,
    next_id: u64,
    shutdown: bool,
}

#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    retries: AtomicU64,
    recovered: AtomicU64,
    deadline_kills: AtomicU64,
}

struct State {
    cfg: ServeConfig,
    jobs_dir: PathBuf,
    inner: Mutex<Inner>,
    work_cv: Condvar,
    done_cv: Condvar,
    store: PlanStore,
    memo: CompileCache,
    counters: Counters,
}

impl State {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn begin_shutdown(&self) {
        self.lock().shutdown = true;
        self.work_cv.notify_all();
        self.done_cv.notify_all();
    }

    fn is_shutdown(&self) -> bool {
        self.lock().shutdown
    }
}

/// A running daemon. Dropping the handle does not stop it; call
/// [`Server::shutdown`] (or send the `shutdown` op) for a clean stop.
pub struct Server {
    state: Arc<State>,
    addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Create the state directory, recover journaled jobs, bind, and
    /// start the pool.
    ///
    /// # Errors
    /// [`ServeError`] when the state directory or the listen socket is
    /// unusable. Individual unreadable job journals are skipped (their
    /// files are left for inspection), never fatal.
    pub fn start(cfg: ServeConfig) -> Result<Self, ServeError> {
        let jobs_dir = cfg.state_dir.join("jobs");
        std::fs::create_dir_all(&jobs_dir).map_err(|source| ServeError::State {
            path: jobs_dir.clone(),
            source,
        })?;

        let listener = TcpListener::bind(&cfg.addr).map_err(|source| ServeError::Listen {
            addr: cfg.addr.clone(),
            source,
        })?;
        let addr = listener.local_addr().map_err(|source| ServeError::Listen {
            addr: cfg.addr.clone(),
            source,
        })?;

        let memo = match cfg.core_cache_cap {
            Some(cap) => CompileCache::bounded(cap),
            None => CompileCache::new(),
        };
        let workers = cfg.workers.max(1);
        let state = Arc::new(State {
            cfg,
            jobs_dir,
            inner: Mutex::new(Inner::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            store: PlanStore::new(),
            memo,
            counters: Counters::default(),
        });

        recover(&state)?;

        let mut worker_handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let st = Arc::clone(&state);
            worker_handles.push(std::thread::spawn(move || worker_loop(&st)));
        }

        let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let st = Arc::clone(&state);
        let conns_for_acceptor = Arc::clone(&conns);
        let acceptor = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if st.is_shutdown() {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let conn_state = Arc::clone(&st);
                let handle = std::thread::spawn(move || handle_connection(&conn_state, stream));
                let mut conns = conns_for_acceptor
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                reap(&mut conns);
                conns.push(handle);
            }
        });

        Ok(Server {
            state,
            addr,
            acceptor: Some(acceptor),
            workers: worker_handles,
            conns,
        })
    }

    /// The bound listen address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Jobs re-queued from journals at startup.
    #[must_use]
    pub fn recovered(&self) -> u64 {
        self.state.counters.recovered.load(Ordering::Relaxed)
    }

    /// Block until a `shutdown` request arrives, then stop cleanly.
    pub fn run(mut self) {
        while !self.state.is_shutdown() {
            std::thread::sleep(Duration::from_millis(100));
        }
        self.join();
    }

    /// Stop accepting, wake everything, and join all threads. Queued
    /// jobs stay journaled and run on the next start.
    pub fn shutdown(mut self) {
        self.state.begin_shutdown();
        self.join();
    }

    fn join(&mut self) {
        self.state.begin_shutdown();
        // Unblock the acceptor's blocking `accept` with a throwaway
        // connection; if that fails the listener is already dead.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in conns {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Join and drop the connection threads that have finished, so a
/// long-running daemon holds only its live connections.
fn reap(conns: &mut Vec<std::thread::JoinHandle<()>>) {
    let mut i = 0;
    while i < conns.len() {
        if conns[i].is_finished() {
            let _ = conns.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// Scan the jobs directory: load terminal results, re-queue incomplete
/// jobs (progress disabled — no client is attached after a restart).
fn recover(state: &Arc<State>) -> Result<(), ServeError> {
    let entries = std::fs::read_dir(&state.jobs_dir).map_err(|source| ServeError::State {
        path: state.jobs_dir.clone(),
        source,
    })?;
    let mut ids: Vec<String> = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(id) = name.strip_suffix(".job") {
            ids.push(id.to_string());
        }
    }
    ids.sort_unstable();

    let mut inner = state.lock();
    for id in ids {
        // Track the numeric suffix so new ids never collide with
        // recovered ones.
        if let Some(n) = id.strip_prefix("job-").and_then(|n| n.parse::<u64>().ok()) {
            inner.next_id = inner.next_id.max(n + 1);
        }
        let job_path = state.jobs_dir.join(format!("{id}.job"));
        let Ok(line) = std::fs::read_to_string(&job_path) else {
            continue; // unreadable journal: leave the file, skip the job
        };
        let Ok(Request::Submit(spec)) = proto::parse_request(line.trim_end()) else {
            continue; // not a canonical submit: leave for inspection
        };
        let result_path = state.jobs_dir.join(format!("{id}.result"));
        let entry = match std::fs::read_to_string(&result_path) {
            Ok(result_line) => {
                let result_line = result_line.trim_end().to_string();
                let state_token = json::parse(&result_line)
                    .ok()
                    .and_then(|v| v.get("state").and_then(|s| s.as_str().map(str::to_owned)));
                let state = if state_token.as_deref() == Some("done") {
                    JobState::Done { line: result_line }
                } else {
                    JobState::Failed { line: result_line }
                };
                JobEntry {
                    spec: *spec,
                    state,
                    progress: Arc::new(Progress::new(false)),
                }
            }
            Err(_) => {
                state.counters.recovered.fetch_add(1, Ordering::Relaxed);
                inner.queue.push_back(id.clone());
                JobEntry {
                    spec: *spec,
                    state: JobState::Queued,
                    progress: Arc::new(Progress::new(false)),
                }
            }
        };
        inner.jobs.insert(id, entry);
    }
    Ok(())
}

fn worker_loop(state: &Arc<State>) {
    loop {
        let id = {
            let mut inner = state.lock();
            loop {
                if let Some(id) = inner.queue.pop_front() {
                    if let Some(entry) = inner.jobs.get_mut(&id) {
                        entry.state = JobState::Running { attempt: 1 };
                    }
                    break id;
                }
                if inner.shutdown {
                    return;
                }
                inner = state
                    .work_cv
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        run_job(state, &id);
    }
}

/// The retry ladder around one job.
fn run_job(state: &Arc<State>, id: &str) {
    let (spec, progress) = {
        let inner = state.lock();
        let Some(entry) = inner.jobs.get(id) else {
            return;
        };
        (entry.spec.clone(), Arc::clone(&entry.progress))
    };
    let deadline_ms = spec.deadline_ms.unwrap_or(state.cfg.default_deadline_ms);
    let ck_path = state.jobs_dir.join(format!("{id}.ck"));
    let started = Instant::now();
    let max_attempts = state.cfg.retry.max_attempts.max(1);

    let mut attempt = 1;
    let terminal = loop {
        {
            let mut inner = state.lock();
            if let Some(entry) = inner.jobs.get_mut(id) {
                entry.state = JobState::Running { attempt };
            }
        }
        match run_attempt(state, &spec, &ck_path, deadline_ms, &progress) {
            Ok(out) => {
                let wall_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
                state.counters.completed.fetch_add(1, Ordering::Relaxed);
                let line = match &out {
                    AttemptOutput::Explore(ex) => job::result_json(id, ex, attempt, wall_ms),
                    AttemptOutput::Search(so) => job::search_result_json(id, so, attempt, wall_ms),
                };
                break JobState::Done { line };
            }
            Err(e) if e.is_transient() && attempt < max_attempts => {
                state.counters.retries.fetch_add(1, Ordering::Relaxed);
                if e.is_corrupt_checkpoint() {
                    // The journal cannot be replayed; a retry starts the
                    // job cold rather than refusing it forever.
                    let _ = std::fs::remove_file(&ck_path);
                }
                std::thread::sleep(Duration::from_millis(state.cfg.retry.backoff_ms(attempt)));
                attempt += 1;
            }
            Err(e) => {
                state.counters.failed.fetch_add(1, Ordering::Relaxed);
                break JobState::Failed {
                    line: job::failure_json(id, &e, attempt),
                };
            }
        }
    };

    if let Some(line) = terminal.terminal_line() {
        // Persist before publishing: a crash between the two re-runs the
        // job (idempotent — it resumes from its checkpoint), while the
        // reverse order could acknowledge a result a restart forgets.
        let result_path = state.jobs_dir.join(format!("{id}.result"));
        let mut persisted = String::with_capacity(line.len() + 1);
        persisted.push_str(line);
        persisted.push('\n');
        let _ = write_atomic(&result_path, &persisted);
    }
    {
        let mut inner = state.lock();
        if let Some(entry) = inner.jobs.get_mut(id) {
            entry.state = terminal;
        }
    }
    state.done_cv.notify_all();
}

/// What one successful attempt produced, by job kind.
enum AttemptOutput {
    /// An exhaustive sweep's full result.
    Explore(Box<Exploration>),
    /// A guided search's frontier and bracket bookkeeping.
    Search(Box<SearchOutcome>),
}

/// One attempt on its own thread, under the wall-clock watchdog. Both
/// job kinds run against the daemon's shared warm caches; for either,
/// cache warmth changes who computes, never what is computed.
fn run_attempt(
    state: &Arc<State>,
    spec: &JobSpec,
    ck_path: &Path,
    deadline_ms: u64,
    progress: &Arc<Progress>,
) -> Result<AttemptOutput, JobError> {
    let (tx, rx) = mpsc::channel();
    let st = Arc::clone(state);
    let prog = Arc::clone(progress);
    let spec = spec.clone();
    let ck_path = ck_path.to_path_buf();
    std::thread::spawn(move || {
        let rec = ProgressRecorder {
            progress: prog,
            every: st.cfg.progress_every.max(1),
        };
        let out = catch_unwind(AssertUnwindSafe(|| match spec.kind {
            JobKind::Explore => {
                let config = job::explore_config(&spec, &ck_path);
                Exploration::try_run_shared(&config, &st.store, &st.memo, &rec)
                    .map(|ex| AttemptOutput::Explore(Box::new(ex)))
            }
            JobKind::Search => {
                let config = job::search_config(&spec, &ck_path);
                cfp_dse::try_search_shared(&config, &st.store, &st.memo, &rec)
                    .map(|so| AttemptOutput::Search(Box::new(so)))
            }
        }));
        // The receiver is gone when the watchdog fired; nothing to do —
        // this thread was already written off.
        let _ = tx.send(out);
    });
    match rx.recv_timeout(Duration::from_millis(deadline_ms)) {
        Ok(Ok(Ok(out))) => Ok(out),
        Ok(Ok(Err(e))) => Err(JobError::Explore(e)),
        Ok(Err(payload)) => Err(JobError::Panicked(FailReason::from_panic(payload.as_ref()))),
        Err(RecvTimeoutError::Timeout) => {
            state
                .counters
                .deadline_kills
                .fetch_add(1, Ordering::Relaxed);
            Err(JobError::DeadlineExceeded { ms: deadline_ms })
        }
        // The attempt thread died without sending — lost outside every
        // quarantine, the definition of transient.
        Err(RecvTimeoutError::Disconnected) => Err(JobError::Explore(ExploreError::WorkerLost)),
    }
}

// ---------------------------------------------------------------------
// Protocol surface
// ---------------------------------------------------------------------

fn ok_line(op: &str, rest: &str) -> String {
    if rest.is_empty() {
        format!(r#"{{"ok":true,"op":"{op}"}}"#)
    } else {
        format!(r#"{{"ok":true,"op":"{op}",{rest}}}"#)
    }
}

fn submit(state: &Arc<State>, mut spec: JobSpec) -> String {
    job::apply_cost_budget(&mut spec);
    let mut inner = state.lock();
    if inner.shutdown {
        return r#"{"ok":false,"error":"shutting_down"}"#.to_string();
    }
    if inner.queue.len() >= state.cfg.queue_high_water {
        state.counters.shed.fetch_add(1, Ordering::Relaxed);
        return format!(
            r#"{{"ok":false,"error":"overloaded","queued":{},"high_water":{}}}"#,
            inner.queue.len(),
            state.cfg.queue_high_water
        );
    }
    let id = format!("job-{:06}", inner.next_id);
    inner.next_id += 1;
    // Journal before acknowledging: accepted == journaled.
    let job_path = state.jobs_dir.join(format!("{id}.job"));
    let mut line = spec.submit_line();
    line.push('\n');
    if let Err(e) = write_atomic(&job_path, &line) {
        let mut out = String::from(r#"{"ok":false,"error":"state_io","message":"#);
        json::write_str(&mut out, &e.to_string());
        out.push('}');
        return out;
    }
    inner.jobs.insert(
        id.clone(),
        JobEntry {
            spec,
            state: JobState::Queued,
            progress: Arc::new(Progress::new(true)),
        },
    );
    inner.queue.push_back(id.clone());
    let queued = inner.queue.len();
    drop(inner);
    state.counters.submitted.fetch_add(1, Ordering::Relaxed);
    state.work_cv.notify_one();
    ok_line("submit", &format!(r#""id":"{id}","queued":{queued}"#))
}

fn unknown_job(id: &str) -> String {
    let mut out = String::from(r#"{"ok":false,"error":"unknown_job","id":"#);
    json::write_str(&mut out, id);
    out.push('}');
    out
}

fn status(state: &Arc<State>, id: &str) -> String {
    let inner = state.lock();
    let Some(entry) = inner.jobs.get(id) else {
        return unknown_job(id);
    };
    let attempt = match &entry.state {
        JobState::Running { attempt } => *attempt,
        _ => 0,
    };
    let units = entry.progress.units_done.load(Ordering::Relaxed);
    ok_line(
        "status",
        &format!(
            r#""id":"{id}","state":"{}","attempt":{attempt},"units_done":{units}"#,
            entry.state.token()
        ),
    )
}

fn result(state: &Arc<State>, id: &str, wait: bool) -> String {
    let mut inner = state.lock();
    loop {
        let Some(entry) = inner.jobs.get(id) else {
            return unknown_job(id);
        };
        if let Some(line) = entry.state.terminal_line() {
            return line.to_string();
        }
        if !wait {
            return format!(
                r#"{{"ok":false,"error":"not_finished","id":"{id}","state":"{}"}}"#,
                entry.state.token()
            );
        }
        if inner.shutdown {
            return r#"{"ok":false,"error":"shutting_down"}"#.to_string();
        }
        let (guard, _timeout) = state
            .done_cv
            .wait_timeout(inner, Duration::from_millis(200))
            .unwrap_or_else(PoisonError::into_inner);
        inner = guard;
    }
}

fn stats(state: &Arc<State>) -> String {
    let (queued, running) = {
        let inner = state.lock();
        let running = inner
            .jobs
            .values()
            .filter(|e| matches!(e.state, JobState::Running { .. }))
            .count();
        (inner.queue.len(), running)
    };
    let c = &state.counters;
    ok_line(
        "stats",
        &format!(
            r#""submitted":{},"completed":{},"failed":{},"shed":{},"retries":{},"recovered":{},"deadline_kills":{},"queued":{queued},"running":{running},"core_hits":{},"core_misses":{},"core_evictions":{},"unique_cores":{},"plan_hits":{},"plan_misses":{},"unique_kernels":{}"#,
            c.submitted.load(Ordering::Relaxed),
            c.completed.load(Ordering::Relaxed),
            c.failed.load(Ordering::Relaxed),
            c.shed.load(Ordering::Relaxed),
            c.retries.load(Ordering::Relaxed),
            c.recovered.load(Ordering::Relaxed),
            c.deadline_kills.load(Ordering::Relaxed),
            state.memo.core_hits(),
            state.memo.core_misses(),
            state.memo.core_evictions(),
            state.memo.unique_cores(),
            state.store.plan_hits(),
            state.store.plan_misses(),
            state.store.unique_kernels(),
        ),
    )
}

/// Stream progress events for `id` until it is terminal, then its
/// result line. Returns `Err` when the client went away.
fn watch(state: &Arc<State>, id: &str, out: &mut TcpStream) -> std::io::Result<()> {
    let progress = {
        let inner = state.lock();
        match inner.jobs.get(id) {
            Some(entry) => Arc::clone(&entry.progress),
            None => {
                writeln!(out, "{}", unknown_job(id))?;
                return out.flush();
            }
        }
    };
    let mut cursor = 0_u64;
    let mut batch = Vec::new();
    loop {
        batch.clear();
        cursor = progress.drain_from(cursor, &mut batch);
        for line in &batch {
            writeln!(out, "{line}")?;
        }
        if !batch.is_empty() {
            out.flush()?;
        }
        let terminal = {
            let inner = state.lock();
            inner
                .jobs
                .get(id)
                .and_then(|e| e.state.terminal_line().map(str::to_owned))
        };
        if let Some(line) = terminal {
            // Any events recorded after the last drain still precede the
            // result line in the stream.
            batch.clear();
            progress.drain_from(cursor, &mut batch);
            for event in &batch {
                writeln!(out, "{event}")?;
            }
            writeln!(out, "{line}")?;
            return out.flush();
        }
        if state.is_shutdown() {
            writeln!(out, r#"{{"ok":false,"error":"shutting_down"}}"#)?;
            return out.flush();
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn handle_connection(state: &Arc<State>, stream: TcpStream) {
    // One-line requests and responses are exactly the small-write
    // pattern Nagle + delayed ACK turns into ~40 ms round trips.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut write_half = stream;
    // Short read timeouts turn the blocking read loop into a poll of the
    // shutdown flag.
    let _ = read_half.set_read_timeout(Some(Duration::from_millis(200)));
    let mut reader = BufReader::new(read_half);
    // At most `MAX_LINE + 1` bytes of a line are held. The rest of a
    // longer one is read on, up to as much again, and dropped: `dropped`
    // counts it, so the rejection names the line's length and the
    // connection goes on. A line longer still is rejected unended and the
    // connection closed.
    let mut buf: Vec<u8> = Vec::new();
    let mut dropped = 0;
    loop {
        let room = (proto::MAX_LINE + 1 - buf.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', &mut buf) {
            Ok(0) => return, // client closed
            Ok(_) if buf.len() > proto::MAX_LINE && buf.last() != Some(&b'\n') => {
                dropped += buf.len();
                buf.clear();
                if dropped > 2 * proto::MAX_LINE {
                    let reject = RequestError::TooLong {
                        length: dropped,
                        limit: proto::MAX_LINE,
                    };
                    let _ = writeln!(write_half, "{}", reject.to_json());
                    let _ = write_half.flush();
                    return;
                }
            }
            Ok(_) => {
                let line = String::from_utf8_lossy(&buf).trim_end().to_string();
                buf.clear();
                let dropped = std::mem::take(&mut dropped);
                if line.is_empty() && dropped == 0 {
                    continue;
                }
                let parsed = if dropped == 0 {
                    proto::parse_request(&line)
                } else {
                    Err(RequestError::TooLong {
                        length: dropped + line.len(),
                        limit: proto::MAX_LINE,
                    })
                };
                let response = match parsed {
                    Err(e) => e.to_json(),
                    Ok(Request::Ping) => ok_line("pong", ""),
                    Ok(Request::Stats) => stats(state),
                    Ok(Request::Submit(spec)) => submit(state, *spec),
                    Ok(Request::Status { id }) => status(state, &id),
                    Ok(Request::Result { id, wait }) => result(state, &id, wait),
                    Ok(Request::Watch { id }) => {
                        if watch(state, &id, &mut write_half).is_err() {
                            return;
                        }
                        continue;
                    }
                    Ok(Request::Shutdown) => {
                        let _ = writeln!(write_half, r#"{{"ok":true,"op":"shutdown"}}"#);
                        let _ = write_half.flush();
                        state.begin_shutdown();
                        return;
                    }
                };
                if writeln!(write_half, "{response}").is_err() || write_half.flush().is_err() {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if state.is_shutdown() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_exponential() {
        let retry = RetryPolicy {
            max_attempts: 10,
            base_ms: 10,
            cap_ms: 200,
        };
        assert_eq!(retry.backoff_ms(1), 10);
        assert_eq!(retry.backoff_ms(2), 20);
        assert_eq!(retry.backoff_ms(3), 40);
        assert_eq!(retry.backoff_ms(5), 160);
        assert_eq!(retry.backoff_ms(6), 200, "capped");
        assert_eq!(retry.backoff_ms(60), 200, "shift overflow capped");
    }

    /// After short connections come and go, the acceptor holds only the
    /// live connection's thread.
    #[test]
    fn finished_connection_threads_are_reaped_on_accept() {
        let dir = std::env::temp_dir().join(format!("cfp-serve-reap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServeConfig::new(&dir)).unwrap();
        let ping = |stream: &TcpStream| {
            writeln!(&*stream, r#"{{"op":"ping"}}"#).unwrap();
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line).unwrap();
            assert!(line.contains("pong"), "{line}");
        };
        for _ in 0..8 {
            ping(&TcpStream::connect(server.addr()).unwrap());
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        let conns = || server.conns.lock().unwrap();
        while !conns().iter().all(std::thread::JoinHandle::is_finished) {
            assert!(Instant::now() < deadline, "short connections never ended");
            std::thread::sleep(Duration::from_millis(5));
        }
        let live = TcpStream::connect(server.addr()).unwrap();
        ping(&live);
        while conns().len() != 1 {
            assert!(Instant::now() < deadline, "held {}", conns().len());
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!conns()[0].is_finished());
        drop(live);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn progress_ring_is_bounded_and_ordered() {
        let p = Progress::new(true);
        for i in 0..(PROGRESS_RING + 10) {
            p.push(format!("e{i}"));
        }
        let mut out = Vec::new();
        let next = p.drain_from(0, &mut out);
        assert_eq!(out.len(), PROGRESS_RING);
        assert_eq!(out.first().map(String::as_str), Some("e10"));
        assert_eq!(next, (PROGRESS_RING + 10) as u64);
        // A cursor past the ring sees nothing new.
        out.clear();
        assert_eq!(p.drain_from(next, &mut out), next);
        assert!(out.is_empty());
    }
}
