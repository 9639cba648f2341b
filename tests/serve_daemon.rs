//! End-to-end tests of a live `cfp-serve` daemon: the happy protocol
//! path, warm-vs-cold bit-identity across the shared caches, progress
//! watching, and admission-control shedding.

mod common;

use common::serve::{state_dir, str_field, submit, u64_field, wait_result, Client};
use custom_fit::serve::json::{self, Json};
use custom_fit::serve::{parse_request, Request, ServeConfig, Server};

const JOB: &str = r#"{"op":"submit","job":{"benches":["D","G"],"preset":"smoke"}}"#;

/// [`JOB`] as a client from before the `reuse` switch was retired would
/// send it: the field is still admitted, and ignored.
const OLD_CLIENT_JOB: &str =
    r#"{"op":"submit","job":{"benches":["D","G"],"preset":"smoke","reuse":false}}"#;

/// A stalled variant of [`JOB`] (20 ms per unit, every unit) for tests
/// that need jobs to occupy a worker long enough to observe.
const SLOW_JOB: &str = r#"{"op":"submit","job":{"benches":["D","G"],"preset":"smoke","fault":{"kind":"stall","millis":20,"seed":1,"denominator":1}}}"#;

#[test]
fn the_daemon_serves_the_happy_path() {
    let dir = state_dir("daemon-smoke");
    let server = Server::start(ServeConfig::new(&dir)).expect("start daemon");
    let mut client = Client::connect(server.addr());

    let pong = client.request(r#"{"op":"ping"}"#);
    assert_eq!(pong.get("op").and_then(Json::as_str), Some("pong"));

    let id = submit(&mut client, JOB);
    assert_eq!(id, "job-000000");

    let result = wait_result(&mut client, &id);
    assert_eq!(result.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(u64_field(&result, "attempts"), 1);
    assert!(u64_field(&result, "architectures") > 0);
    assert!(result.get("best").is_some(), "{result:?}");
    let digest = str_field(&result, "digest");
    assert_eq!(digest.len(), 16, "fixed-width hex digest");

    // A terminal job's status is terminal, and asking again returns the
    // same persisted line.
    let status = client.request(&format!(r#"{{"op":"status","id":"{id}"}}"#));
    assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
    let again = wait_result(&mut client, &id);
    assert_eq!(str_field(&again, "digest"), digest);

    // Unknown ids are typed errors, not hangs.
    let missing = client.request(r#"{"op":"status","id":"job-999999"}"#);
    assert_eq!(
        missing.get("error").and_then(Json::as_str),
        Some("unknown_job")
    );
    // A non-waiting result poll on an unfinished job says so. (Submit a
    // stalled job so it is still running when we poll.)
    let slow = submit(&mut client, SLOW_JOB);
    let poll = client.request(&format!(r#"{{"op":"result","id":"{slow}","wait":false}}"#));
    assert_eq!(
        poll.get("error").and_then(Json::as_str),
        Some("not_finished"),
        "{poll:?}"
    );
    let finished = wait_result(&mut client, &slow);
    assert_eq!(finished.get("state").and_then(Json::as_str), Some("done"));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole guarantee of the shared-cache design: a job against
/// warm caches returns the bit-identical result surface of the same job
/// against cold caches — and actually hits the caches. The digest is
/// also compared against an in-process run of the identical spec
/// through the plain (non-daemon) exploration path.
#[test]
fn warm_cache_results_are_bit_identical_to_cold_and_actually_hit() {
    let dir = state_dir("daemon-warm");
    let server = Server::start(ServeConfig::new(&dir)).expect("start daemon");
    let mut client = Client::connect(server.addr());

    let cold_id = submit(&mut client, JOB);
    let cold = wait_result(&mut client, &cold_id);
    assert_eq!(cold.get("state").and_then(Json::as_str), Some("done"));
    let stats_before = client.request(r#"{"op":"stats"}"#);

    // Asking for no reuse changes nothing: the job is the same job, and
    // it runs on the shared caches like every other.
    let warm_id = submit(&mut client, OLD_CLIENT_JOB);
    let warm = wait_result(&mut client, &warm_id);
    assert_eq!(warm.get("state").and_then(Json::as_str), Some("done"));
    let stats_after = client.request(r#"{"op":"stats"}"#);

    assert_eq!(
        str_field(&cold, "digest"),
        str_field(&warm, "digest"),
        "warm caches must not change results"
    );
    // The warm job compiled nothing new and hit the plan cache.
    assert_eq!(u64_field(&warm, "unique_schedules"), 0, "{warm:?}");
    assert!(u64_field(&warm, "cache_hits") > 0, "{warm:?}");
    assert!(
        u64_field(&stats_after, "plan_hits") > u64_field(&stats_before, "plan_hits"),
        "the second job must hit the shared plan store"
    );
    assert!(
        u64_field(&stats_after, "core_hits") > 0,
        "cross-job compile cache hit rate must be > 0"
    );

    // The same job through the plain exploration path digests the same:
    // the daemon adds availability, not new semantics.
    let Ok(Request::Submit(spec)) = parse_request(JOB) else {
        panic!("the test job must parse");
    };
    let ck = dir.join("inproc.ck");
    let config = custom_fit::serve::job::explore_config(&spec, &ck);
    let ex = custom_fit::dse::Exploration::try_run(&config).expect("in-process run");
    let expected = format!("{:016x}", custom_fit::serve::job::result_digest(&ex));
    assert_eq!(str_field(&cold, "digest"), expected);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `watch` streams unit progress events and terminates with the result
/// line.
#[test]
fn watch_streams_progress_then_the_result() {
    let dir = state_dir("daemon-watch");
    let mut cfg = ServeConfig::new(&dir);
    cfg.progress_every = 1; // every unit, so the stream is non-trivial
    let server = Server::start(cfg).expect("start daemon");
    let mut client = Client::connect(server.addr());

    let id = submit(&mut client, SLOW_JOB);
    let mut watcher = Client::connect(server.addr());
    watcher.send(&format!(r#"{{"op":"watch","id":"{id}"}}"#));
    let mut events = 0;
    let result = loop {
        let line = watcher.recv_line();
        let v = json::parse(&line).unwrap_or_else(|e| panic!("bad stream line {line:?}: {e:?}"));
        if v.get("event").and_then(Json::as_str) == Some("unit") {
            events += 1;
            assert!(v.get("n").and_then(Json::as_u64).is_some(), "{line}");
            continue;
        }
        break v;
    };
    assert!(events > 0, "a watched run must stream unit events");
    assert_eq!(result.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(str_field(&result, "id"), id);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admission control: a burst beyond the high-water mark is shed with a
/// typed `overloaded` response, and every job that *was* accepted still
/// completes correctly.
#[test]
fn overload_sheds_typed_and_accepted_jobs_still_finish() {
    let dir = state_dir("daemon-shed");
    let mut cfg = ServeConfig::new(&dir);
    cfg.workers = 1;
    cfg.queue_high_water = 2;
    let server = Server::start(cfg).expect("start daemon");
    let mut client = Client::connect(server.addr());

    let mut accepted = Vec::new();
    let mut shed = 0;
    for _ in 0..12 {
        let resp = client.request(SLOW_JOB);
        if resp.get("ok").and_then(Json::as_bool) == Some(true) {
            accepted.push(str_field(&resp, "id"));
        } else {
            assert_eq!(
                resp.get("error").and_then(Json::as_str),
                Some("overloaded"),
                "shedding must be the typed overload error: {resp:?}"
            );
            assert_eq!(u64_field(&resp, "high_water"), 2);
            shed += 1;
        }
    }
    assert!(shed > 0, "a 12-deep burst over high-water 2 must shed");
    assert!(!accepted.is_empty(), "the first submits must be admitted");

    // Shed submits leave no trace in the state directory: only accepted
    // jobs are journaled.
    let journals = std::fs::read_dir(dir.join("jobs"))
        .expect("jobs dir")
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "job"))
        .count();
    assert_eq!(journals, accepted.len());

    let mut digests = Vec::new();
    for id in &accepted {
        let result = wait_result(&mut client, id);
        assert_eq!(
            result.get("state").and_then(Json::as_str),
            Some("done"),
            "{result:?}"
        );
        digests.push(str_field(&result, "digest"));
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "identical jobs, identical results — under load too"
    );
    let stats = client.request(r#"{"op":"stats"}"#);
    assert_eq!(u64_field(&stats, "shed"), shed);
    assert_eq!(u64_field(&stats, "completed") as usize, accepted.len());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The guided-search job kind end to end: a search job runs on the
/// daemon's shared warm caches, streams per-round `search` events, and
/// returns a frontier whose digest is bit-identical between a cold and
/// a warm submission of the same job.
#[test]
fn search_jobs_run_stream_rounds_and_are_warm_cache_deterministic() {
    const SEARCH_JOB: &str = r#"{"op":"submit","job":{"benches":["D"],"kind":"search","space":"paper","cost_bound":10,"seed":7,"rounds":2,"round_size":6,"threads":2}}"#;

    let dir = state_dir("daemon-search");
    let server = Server::start(ServeConfig::new(&dir)).expect("start daemon");
    let mut client = Client::connect(server.addr());

    let cold_id = submit(&mut client, SEARCH_JOB);
    // Watch the stream: a search job's progress is its rounds.
    let mut watcher = Client::connect(server.addr());
    watcher.send(&format!(r#"{{"op":"watch","id":"{cold_id}"}}"#));
    let mut rounds_seen = 0;
    let streamed = loop {
        let line = watcher.recv_line();
        let v = json::parse(&line).unwrap_or_else(|e| panic!("bad stream line {line:?}: {e:?}"));
        if v.get("event").and_then(Json::as_str) == Some("search") {
            rounds_seen += 1;
            assert!(v.get("round").and_then(Json::as_u64).is_some(), "{line}");
            assert!(v.get("frontier").and_then(Json::as_u64).is_some(), "{line}");
            continue;
        }
        break v;
    };
    assert!(rounds_seen > 0, "a watched search must stream round events");
    assert_eq!(streamed.get("state").and_then(Json::as_str), Some("done"));

    let cold = wait_result(&mut client, &cold_id);
    assert_eq!(cold.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(cold.get("kind").and_then(Json::as_str), Some("search"));
    assert!(u64_field(&cold, "full_evals") > 0, "{cold:?}");
    assert!(u64_field(&cold, "frontier") > 0, "{cold:?}");
    assert!(cold.get("best").is_some(), "{cold:?}");

    // The same job against the now-warm caches: bit-identical frontier.
    let warm_id = submit(&mut client, SEARCH_JOB);
    let warm = wait_result(&mut client, &warm_id);
    assert_eq!(warm.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(
        str_field(&cold, "digest"),
        str_field(&warm, "digest"),
        "warm caches must not change the frontier"
    );

    // Search jobs and explore jobs share one daemon: an explore job
    // after a search job still completes against the same caches.
    let explore_id = submit(&mut client, JOB);
    let explore = wait_result(&mut client, &explore_id);
    assert_eq!(explore.get("state").and_then(Json::as_str), Some("done"));
    assert!(
        explore.get("kind").is_none(),
        "explore results are unkinded"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
