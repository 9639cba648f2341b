//! `serve_mixed` — the exploration service's job mix against caches that
//! outlive the job: mostly reads, with inserts and evictions beside
//! them, where `sweep_cold` is mostly inserts.
//!
//! Every pass starts from the same warm state — fresh caches primed with
//! the template set, which is the workload's set-up — so a pass's missing
//! jobs really miss and its hits really hit, whatever ran before.
//!
//! The end-to-end passes run each job the way a `cfpd` worker does —
//! parse the request line, materialize the config, run it against the
//! shared plan store and the bounded compile cache, render the result
//! JSON — on closed-loop client threads, in process and without a
//! checkpoint journal. What a client of the real daemon waits for on top
//! of that — the socket, the queue, a thread per attempt, and above all
//! the journal, which `checkpoint.rs` rewrites and renames once per unit
//! — is measured by the traced run, which drives a real daemon over TCP
//! and reports it as per-layer metrics without a bound. It cannot be an
//! end-to-end metric with one: the daemon's state directory has to live
//! inside the checkout, on whatever disk that is, and there a warm
//! 48-unit job took 4.3, 7.5, 21, 24, 25, 25, 25, 25, 27 and 27 ms
//! (median of 300 jobs each) in ten runs one after another, against
//! 0.09 ms for everything else a job does (README, "Where the daemon's
//! disk went").

use super::{out_dir, proc_deltas, reference_sweep, timed, trace_ratios, Pass, Workload};
use crate::gen::{Job, JobClass, ServeMix};
use crate::report::RunResult;
use crate::trace::Tracer;
use crate::{median, probe, Digest};
use custom_fit::dse::{
    try_search_shared, CompileCache, Exploration, ExploreConfig, PlanStore, SearchConfig,
};
use custom_fit::serve::job::{
    explore_config, result_digest, result_json, search_config, search_digest, search_result_json,
};
use custom_fit::serve::json::{self, Json};
use custom_fit::serve::{parse_request, JobKind, JobSpec, Request, ServeConfig, Server};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Mutex;

/// Jobs per timed pass.
pub const JOBS: usize = 1200;

/// Jobs the traced run sends through the real daemon: the same mix, and
/// a subset of pass 0's job lines. Fewer than a pass: on a slow disk each
/// costs tens of milliseconds.
const DAEMON_JOBS: usize = 300;

/// Bound on the shared compile cache, in scheduled cores: room for the
/// hot set and the searches' working set but not for every cold group
/// a pass's missing jobs bring, so a pass also evicts.
const CORE_CACHE_CAP: usize = 2048;

/// What one job answered: its terminal state and the digest of its full
/// result surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Answer {
    done: bool,
    digest: u64,
}

/// The caches a daemon holds for its lifetime.
struct Engine {
    store: PlanStore,
    memo: CompileCache,
}

impl Engine {
    /// Fresh caches with every template run once, in order, on one
    /// thread: the warm state every pass starts from. Returns what the
    /// templates answered.
    fn primed(mix: &ServeMix) -> (Self, Vec<Answer>) {
        let engine = Engine {
            store: PlanStore::new(),
            memo: CompileCache::bounded(CORE_CACHE_CAP),
        };
        let answers = mix
            .template_lines()
            .iter()
            .map(|line| engine.run(line, false).0)
            .collect();
        (engine, answers)
    }

    /// One job as a worker runs it, request line in, result line out,
    /// but for the checkpoint journal. Also returns the quality of the
    /// answer — for an explore job every unit's speedup over the baseline,
    /// for a search the best speedup found — when `quality` asks for it.
    fn run(&self, line: &str, quality: bool) -> (Answer, Vec<f64>) {
        let Ok(Request::Submit(spec)) = parse_request(line) else {
            return Default::default();
        };
        self.run_spec(&spec, quality)
    }

    fn run_spec(&self, spec: &JobSpec, quality: bool) -> (Answer, Vec<f64>) {
        let null = &custom_fit::obs::NULL;
        match spec.kind {
            JobKind::Explore => {
                let config = ExploreConfig {
                    checkpoint: None,
                    ..explore_config(spec, Path::new(""))
                };
                let Ok(ex) = Exploration::try_run_shared(&config, &self.store, &self.memo, null)
                else {
                    return Default::default();
                };
                black_box(result_json("job-000000", &ex, 1, 0));
                let answer = Answer {
                    done: ex.stats.failed_units == 0,
                    digest: result_digest(&ex),
                };
                let speedups = if quality {
                    (0..ex.archs.len())
                        .flat_map(|a| ex.speedup_row(a))
                        .collect()
                } else {
                    Vec::new()
                };
                (answer, speedups)
            }
            JobKind::Search => {
                let config = SearchConfig {
                    checkpoint: None,
                    ..search_config(spec, Path::new(""))
                };
                let Ok(so) = try_search_shared(&config, &self.store, &self.memo, null) else {
                    return Default::default();
                };
                black_box(search_result_json("job-000000", &so, 1, 0));
                let answer = Answer {
                    done: so.stats.failed_units == 0,
                    digest: search_digest(&so),
                };
                (answer, so.best.iter().map(|p| p.speedup).collect())
            }
        }
    }
}

/// The digest every job line has produced so far. Identical lines must
/// keep producing identical digests — over every pass, both thread
/// counts, the in-process engine and the real daemon.
#[derive(Debug, Default)]
struct Known(HashMap<String, u64>);

impl Known {
    /// Fold one pass's answers into a [`Pass`]: every job done, every
    /// line's digest the one it had before. The pass's digest is over
    /// every job's answer in job order.
    fn account(&mut self, jobs: &[Job], answers: &[(f64, Answer)]) -> Pass {
        let mut pass = Pass {
            attempted: jobs.len() as u64,
            ..Pass::default()
        };
        let mut digest = Digest::default();
        for (job, (ms, answer)) in jobs.iter().zip(answers) {
            pass.op_ms.push(*ms);
            digest.eat(answer.digest);
            if !answer.done {
                pass.failed += 1;
                continue;
            }
            let known = *self.0.entry(job.line.clone()).or_insert(answer.digest);
            if known != answer.digest {
                pass.check_failures.push(format!(
                    "{:?} job answered digest {:016x}, the same line earlier {known:016x}",
                    job.class, answer.digest
                ));
            }
        }
        pass.digest = digest.0;
        pass
    }
}

/// The workload's state: warm caches and what every line has answered.
pub struct ServeMixed {
    mix: ServeMix,
    engine: Engine,
    threads: usize,
    known: Known,
    /// What the templates answered when `prepare` primed the caches.
    template_answers: Vec<Answer>,
    /// The current pass's jobs.
    jobs: Vec<Job>,
}

impl ServeMixed {
    /// Run the pass's jobs split round-robin over `threads` closed-loop
    /// clients; returns `(latency ms, answer)` per job in job order.
    fn drive(&self, threads: usize) -> Vec<(f64, Answer)> {
        let jobs = &self.jobs;
        let out = Mutex::new(vec![(0.0, Answer::default()); jobs.len()]);
        std::thread::scope(|scope| {
            for c in 0..threads {
                let (out, engine) = (&out, &self.engine);
                scope.spawn(move || {
                    for (i, job) in jobs.iter().enumerate().skip(c).step_by(threads) {
                        let (s, (answer, _)) = timed(|| engine.run(&job.line, false));
                        out.lock().expect("no client panics holding the lock")[i] =
                            (s * 1e3, answer);
                    }
                });
            }
        });
        out.into_inner().expect("every client finished")
    }
}

/// One protocol connection to a real daemon: a line out, a line back.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Request and response payload bytes, to tell socket writes from
    /// journal writes in the process's I/O counters.
    bytes: u64,
}

impl Client {
    fn request(&mut self, line: &str) -> Json {
        let mut request = String::with_capacity(line.len() + 1);
        request.push_str(line);
        request.push('\n');
        self.writer
            .write_all(request.as_bytes())
            .expect("send a request");
        let mut response = String::new();
        self.reader
            .read_line(&mut response)
            .expect("read a response");
        self.bytes += (request.len() + response.len()) as u64;
        json::parse(response.trim_end()).expect("the daemon speaks JSON")
    }

    /// Submit a job line; the job id, or `None` if it was refused.
    fn submit(&mut self, line: &str) -> Option<String> {
        let ack = self.request(line);
        if ack.get("ok").and_then(Json::as_bool) != Some(true) {
            return None;
        }
        ack.get("id").and_then(Json::as_str).map(str::to_owned)
    }

    /// Block until job `id` is terminal.
    fn result(&mut self, id: &str) -> Answer {
        let r = self.request(&format!(r#"{{"op":"result","id":"{id}"}}"#));
        Answer {
            done: r.get("state").and_then(Json::as_str) == Some("done"),
            digest: r
                .get("digest")
                .and_then(Json::as_str)
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .unwrap_or(0),
        }
    }

    /// Submit and wait.
    fn run(&mut self, line: &str) -> Answer {
        self.submit(line)
            .map_or_else(Answer::default, |id| self.result(&id))
    }
}

impl Workload for ServeMixed {
    const NAME: &'static str = "serve_mixed";

    fn prepare(seed: u64, threads: usize) -> Self {
        let mix = ServeMix::new(seed);
        let (engine, template_answers) = Engine::primed(&mix);
        let known = Known(
            mix.template_lines()
                .into_iter()
                .zip(template_answers.iter().map(|a| a.digest))
                .collect(),
        );
        ServeMixed {
            mix,
            engine,
            threads,
            known,
            template_answers,
            jobs: Vec::new(),
        }
    }

    fn before_pass(&mut self, pass: u64) {
        self.jobs = self.mix.pass(pass, JOBS);
    }

    fn pass(&mut self) -> Pass {
        let answers = self.drive(self.threads);
        self.known.account(&self.jobs, &answers)
    }

    fn verify(&mut self, out: &mut RunResult) {
        let primed = self.template_answers.iter().filter(|a| a.done).count();
        out.check(primed == self.template_answers.len(), || {
            format!(
                "only {primed} of {} templates finished when priming",
                self.template_answers.len()
            )
        });
        // One template through a plain cold sweep, no shared cache: the
        // warm answer must be the cold one.
        let template = &self.mix.explore[0];
        let ex = Exploration::try_run(&ExploreConfig {
            archs: template.archs.clone(),
            benches: template.benches.clone(),
            threads: 1,
            ..ExploreConfig::default()
        })
        .expect("a template explores");
        out.check(
            result_digest(&ex) == self.template_answers[0].digest,
            || {
                format!(
                    "template 0: shared-cache digest {:016x}, cold sweep {:016x}",
                    self.template_answers[0].digest,
                    result_digest(&ex)
                )
            },
        );
        let memo = &self.engine.memo;
        out.notes.push(format!(
            "{} closed-loop clients, in process; {JOBS} jobs a pass (70% explore templates, 20% search templates, 10% missing); compile cache: {} hits, {} misses, {} evictions, {} cores held",
            self.threads,
            memo.core_hits(),
            memo.core_misses(),
            memo.core_evictions(),
            memo.unique_cores()
        ));
    }

    /// Every unit's speedup over the baseline in one explore job over the
    /// whole paper space on the reference benchmarks, through the engine
    /// and the caches the last pass left warm.
    fn quality(&mut self, _out: &mut RunResult) -> Vec<f64> {
        let (archs, benches) = reference_sweep();
        let job = crate::gen::ExploreJob { archs, benches };
        self.engine.run(&job.line(), true).1
    }

    fn trace(&mut self, tr: &mut Tracer, out: &mut RunResult) {
        // The path the end-to-end passes time. Pass 0 at full parallelism
        // first (the pass the process probes describe, and the warm-up),
        // then on one client without spans (the wall the spans must
        // account for), then under a span around the parser and one
        // around the engine; the caches primed again before each, so the
        // missing jobs miss again.
        let (cpu0, io0) = (probe::cpu_times(), probe::io_counters());
        let answers = self.drive(self.threads);
        proc_deltas(out, (cpu0, probe::cpu_times()), (io0, probe::io_counters()));
        let parallel = self.known.account(&self.jobs, &answers);
        self.engine = Engine::primed(&self.mix).0;
        let (untraced, answers) = timed(|| self.drive(1));
        let real = self.known.account(&self.jobs, &answers);
        self.engine = Engine::primed(&self.mix).0;
        let (traced, answers) = timed(|| {
            self.jobs
                .iter()
                .enumerate()
                .map(|(op, job)| {
                    tr.set_op(op as u64 + 1);
                    let t = std::time::Instant::now();
                    let spec = tr.span("serve.proto", || match parse_request(&job.line) {
                        Ok(Request::Submit(spec)) => *spec,
                        other => panic!("a generated job line parses as a submit: {other:?}"),
                    });
                    let (answer, _) =
                        tr.span("serve.engine", || self.engine.run_spec(&spec, false));
                    (t.elapsed().as_secs_f64() * 1e3, answer)
                })
                .collect::<Vec<_>>()
        });
        trace_ratios(out, tr, traced, untraced);
        let spanned = self.known.account(&self.jobs, &answers);
        out.digests.push(("result".to_owned(), real.digest));
        out.check(
            spanned.digest == real.digest && parallel.digest == real.digest,
            || "the jobs answered differently under spans or on more clients".to_owned(),
        );
        tr.count("serve.jobs", self.jobs.len() as f64);
        let misses = |jobs: &[Job]| jobs.iter().filter(|j| j.class == JobClass::Miss).count();
        tr.count("serve.missing_jobs", misses(&self.jobs) as f64);

        // What a client of the real daemon waits for on top of that: a
        // daemon, its state under `out/` (inside the checkout: the
        // benchmark writes nowhere else), one worker, one connection,
        // primed like the engine, then the same mix with each job's
        // submit -> ack and ack -> result as the client sees them. The
        // line -> digest check holds the daemon to the engine's answers.
        let state_dir = out_dir().join(format!("serve-state-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state_dir);
        let mut cfg = ServeConfig::new(&state_dir);
        cfg.workers = 1;
        cfg.core_cache_cap = Some(CORE_CACHE_CAP);
        let server = Server::start(cfg).expect("the daemon starts on an ephemeral port");
        let stream = TcpStream::connect(server.addr()).expect("the daemon accepts connections");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        let mut client = Client {
            reader: BufReader::new(stream.try_clone().expect("clone the stream")),
            writer: stream,
            bytes: 0,
        };
        let primed: Vec<Answer> = self
            .mix
            .template_lines()
            .iter()
            .map(|line| client.run(line))
            .collect();
        out.check(primed == self.template_answers, || {
            "the daemon's template answers differ from the in-process engine's".to_owned()
        });
        let jobs = self.mix.pass(0, DAEMON_JOBS);
        let (io0, bytes0) = (probe::io_counters(), client.bytes);
        let (daemon_wall, answers) = timed(|| {
            jobs.iter()
                .enumerate()
                .map(|(op, job)| {
                    tr.set_op(op as u64 + 1);
                    let t = std::time::Instant::now();
                    let id = tr.span("serve.submit_ack", || client.submit(&job.line));
                    let answer = tr.span("serve.ack_to_result", || {
                        id.map_or_else(Answer::default, |id| client.result(&id))
                    });
                    (t.elapsed().as_secs_f64() * 1e3, answer)
                })
                .collect::<Vec<_>>()
        });
        let (io1, socket_bytes) = (probe::io_counters(), client.bytes - bytes0);
        let daemon = self.known.account(&jobs, &answers);

        let passes = [parallel, real, spanned, daemon];
        out.attempted = passes.iter().map(|p| p.attempted).sum();
        out.failed = passes.iter().map(|p| p.failed).sum();
        for pass in passes {
            out.check_failures.extend(pass.check_failures);
        }

        match (io0, io1) {
            (Some(a), Some(b)) => {
                let n = jobs.len() as f64;
                // Both ends of the connection are this process: every
                // payload byte was written once, by the client or by the
                // daemon, and `socket_bytes` counts exactly those.
                out.metrics.insert(
                    "serve.journal.write_bytes_per_job",
                    (b.wchar - a.wchar).saturating_sub(socket_bytes) as f64 / n,
                );
                out.metrics.insert(
                    "serve.journal.write_syscalls_per_job",
                    (b.syscw - a.syscw) as f64 / n,
                );
            }
            _ => {
                out.notes
                    .push("serve.journal.* omitted: /proc/self/io unreadable".to_owned());
                for name in [
                    "serve.journal.write_bytes_per_job",
                    "serve.journal.write_syscalls_per_job",
                ] {
                    out.metrics.insert(name, probe::UNAVAILABLE);
                }
            }
        }

        let stats = client.request(r#"{"op":"stats"}"#);
        let field = |name: &str| stats.get(name).and_then(Json::as_u64).unwrap_or(0) as f64;
        let share = |hits: f64, misses: f64| {
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            }
        };
        out.metrics.insert(
            "serve.cache.core_hit_ratio",
            share(field("core_hits"), field("core_misses")),
        );
        out.metrics
            .insert("serve.cache.core_evictions", field("core_evictions"));
        out.metrics.insert(
            "serve.cache.plan_hit_ratio",
            share(field("plan_hits"), field("plan_misses")),
        );
        out.metrics.insert("serve.shed", field("shed"));
        out.metrics.insert("serve.retries", field("retries"));
        out.failed += field("failed") as u64;
        drop(client);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&state_dir);

        let durations_ms = |name: &str| -> Vec<f64> {
            tr.spans()
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
                .collect()
        };
        for (metric, span) in [
            ("serve.submit_ack.p50_ms", "serve.submit_ack"),
            ("serve.ack_to_result.p50_ms", "serve.ack_to_result"),
            ("serve.engine.p50_ms", "serve.engine"),
        ] {
            out.metrics.insert(metric, median(&durations_ms(span)));
        }
        let parse_s: f64 = durations_ms("serve.proto").iter().sum::<f64>() / 1e3;
        out.metrics.insert(
            "serve.proto.parse_lines_per_s",
            self.jobs.len() as f64 / parse_s,
        );
        out.notes.push(format!(
            "one client; in process: {} jobs ({} missing), wall {untraced:.3} s, under spans {traced:.3} s; daemon with one worker on one connection: {} jobs ({} missing), wall {daemon_wall:.3} s; cache ratios cover the daemon's whole life, priming included",
            self.jobs.len(),
            misses(&self.jobs),
            jobs.len(),
            misses(&jobs),
        ));
    }
}
